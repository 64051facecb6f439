//! A shared, scoped worker pool for morsel-driven parallel kernels.
//!
//! The heavy kernels (group-by, join, sort, CSV ingestion) split their
//! input into *morsels* — contiguous row ranges of a few tens of
//! thousands of rows — and let a small set of workers claim morsels off a
//! shared atomic counter (morsel-driven scheduling, after Leis et al.).
//! Workers are spawned inside [`std::thread::scope`] per parallel call:
//! crates.io is unreachable from this build environment, so there is no
//! rayon; scoped threads keep the pool dependency-free and let kernels
//! borrow their inputs without `'static` bounds. Spawning a handful of
//! OS threads costs tens of microseconds, which is noise against the
//! multi-millisecond kernels the pool is reserved for — every entry
//! point falls back to the sequential path below [`PAR_MIN_ROWS`].
//!
//! Thread counts come from one place: an explicit request wins, else
//! [`ExecConfig::threads`] (`LAFP_THREADS`, then
//! [`std::thread::available_parallelism`]). See [`WorkerPool::new`].
//!
//! Determinism: every parallel kernel stitches its per-morsel outputs
//! back together in morsel order (or merges with a total, index-broken
//! comparator), so results are identical to the sequential path at any
//! thread count.

// New `unwrap`/`expect` escapes in the pool are panics that tear through
// the isolation layer — make them visible in review (CI elevates to deny;
// the survivors below carry justified `#[allow]`s).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::cancel::CancelToken;
use crate::error::{ColumnarError, Result};
use crate::faults::{FaultKind, FaultSite, Faults};
use crate::ExecConfig;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Extract a human-readable message from a caught panic payload
/// (`panic!` with a string literal or a formatted `String`; anything
/// else gets a placeholder). Used everywhere a panic is converted into
/// [`ColumnarError::WorkerPanic`].
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record `err` as the run's first error (later errors are dropped —
/// the first failure is the one that poisoned the queue).
fn set_first_error(slot: &Mutex<Option<ColumnarError>>, err: ColumnarError) {
    let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
    guard.get_or_insert(err);
}

/// Fire the pipeline-stage injection point (panics when the plan says
/// so; the surrounding `catch_unwind` is what is under test).
fn stage_inject(faults: &Faults) {
    if let Some(FaultKind::Panic(msg)) = faults.fire(FaultSite::PipelineStage) {
        panic!("{msg}");
    }
}

/// Default morsel size in rows for the parallel kernels. Large enough
/// that per-morsel overheads (an accumulator merge, a run header)
/// amortize, small enough that a handful of morsels per worker keeps the
/// claim queue busy when morsel costs are skewed.
pub const MORSEL_ROWS: usize = 64 * 1024;

/// Inputs below this row count take the sequential path: the work is
/// too small to amortize spawning scoped workers.
pub const PAR_MIN_ROWS: usize = 16 * 1024;

/// A scoped worker pool: a resolved thread count plus the morsel-claiming
/// machinery. Cheap to construct (no threads live between calls).
///
/// ```
/// use lafp_columnar::WorkerPool;
/// let pool = WorkerPool::new(2);
/// // Items are claimed dynamically; outputs come back in item order.
/// let doubled = pool.map(vec![1, 2, 3], |_, v| v * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    threads: usize,
    /// The `worker_panic` / `pipeline_stage` injection plan.
    faults: Faults,
    /// Cooperative cancellation consulted at every morsel claim by the
    /// fallible entry points ([`try_map`](WorkerPool::try_map),
    /// [`run_workers`](WorkerPool::run_workers)). `None` = never
    /// cancelled.
    cancel: Option<CancelToken>,
}

/// A shared queue of task indexes `0..tasks`, claimed atomically by the
/// pool's workers (the morsel dispenser).
pub struct TaskQueue {
    next: AtomicUsize,
    tasks: usize,
    /// Set when a worker fails: remaining claims return `None` so the
    /// other workers drain instead of burning through a doomed run.
    poisoned: AtomicBool,
    cancel: Option<CancelToken>,
    faults: Faults,
}

impl TaskQueue {
    fn new(tasks: usize, cancel: Option<CancelToken>, faults: &Faults) -> TaskQueue {
        TaskQueue {
            next: AtomicUsize::new(0),
            tasks,
            poisoned: AtomicBool::new(false),
            cancel,
            faults: faults.clone(),
        }
    }

    /// Claim the next unclaimed task index, or `None` when exhausted,
    /// poisoned, or cancelled. This is the single choke point every
    /// morsel passes through, so it doubles as the `worker_panic`
    /// injection site (the fault fires here as a real panic; the pool's
    /// `catch_unwind` boundary converts it).
    #[inline]
    pub fn claim(&self) -> Option<usize> {
        if self.poisoned.load(Ordering::Relaxed) {
            return None;
        }
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        if let Some(FaultKind::Panic(msg)) = self.faults.fire(FaultSite::MorselExecute) {
            panic!("{msg}");
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.tasks).then_some(i)
    }

    /// Stop handing out tasks: remaining and future claims return
    /// `None`. Called by a worker that hit an error or panic so its
    /// peers finish their in-hand morsel and exit.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }
}

/// One output slot, written exactly once by the worker that claimed its
/// index (disjoint writes — see the safety comments in [`WorkerPool::map`]).
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: slots are only written through disjoint, uniquely-claimed
// indexes while the scope is live, and only read after every worker has
// joined.
unsafe impl<T: Send> Sync for Slot<T> {}

impl WorkerPool {
    /// A pool with `threads` workers and the process configuration's
    /// fault plan ([`ExecConfig::from_env`]). `0` means the configured
    /// count; a pool of 1 runs every entry point's sequential path.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::from_config(&ExecConfig::from_env().with_threads(threads))
    }

    /// A pool with `config`'s thread count (at least 1) and fault plan.
    pub fn from_config(config: &ExecConfig) -> WorkerPool {
        WorkerPool {
            threads: config.threads.max(1),
            faults: config.faults.clone(),
            cancel: None,
        }
    }

    /// A pool sharing this one's thread count whose fallible entry
    /// points ([`try_map`](WorkerPool::try_map),
    /// [`run_workers`](WorkerPool::run_workers)) check `token` at every
    /// morsel claim and return [`ColumnarError::Cancelled`] once it
    /// trips. Cheap (no threads are held by a pool between calls); the
    /// engines derive one per query.
    pub fn with_cancel(&self, token: CancelToken) -> WorkerPool {
        WorkerPool {
            threads: self.threads,
            faults: self.faults.clone(),
            cancel: Some(token),
        }
    }

    /// Worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Does this pool actually run work concurrently?
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Apply `f` to every item, in parallel, returning outputs in item
    /// order. Items are claimed dynamically (morsel-driven): a worker
    /// that finishes a cheap item immediately claims the next, so skewed
    /// per-item costs balance without static partitioning.
    ///
    /// `map` is infallible and ignores the pool's cancel token: a panic
    /// in `f` propagates out of the scope join and is only converted to
    /// a structured error at the query boundary. Fallible or
    /// cancellation-aware paths use [`try_map`](WorkerPool::try_map).
    #[allow(clippy::expect_used)] // slot invariants: each index claimed and filled exactly once
    pub fn map<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, T) -> R + Sync,
    ) -> Vec<R> {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Slot<T>> = items
            .into_iter()
            .map(|t| Slot(UnsafeCell::new(Some(t))))
            .collect();
        let out: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let queue = TaskQueue::new(n, None, &self.faults);
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    while let Some(i) = queue.claim() {
                        // SAFETY: `claim` hands out each index exactly
                        // once, so this worker is the only one touching
                        // slot `i`; the vectors are never resized.
                        let item = unsafe { (*slots[i].0.get()).take() }
                            .expect("task claimed exactly once");
                        let r = f(i, item);
                        unsafe { *out[i].0.get() = Some(r) };
                    }
                });
            }
        });
        out.into_iter()
            .map(|s| s.0.into_inner().expect("worker filled its slot"))
            .collect()
    }

    /// Fallible, panic-isolating [`map`](WorkerPool::map): apply `f` to
    /// every item in parallel, returning outputs in item order, where
    /// any worker's `Err` or panic fails the whole call with the *first*
    /// failure. On failure the task queue is poisoned so the remaining
    /// workers finish their in-hand item and exit — one bad morsel costs
    /// one query, not the process. Checks the pool's cancel token at
    /// every claim.
    ///
    /// ```
    /// use lafp_columnar::WorkerPool;
    /// let pool = WorkerPool::new(2);
    /// let out = pool.try_map(vec![1, 2, 3], |_, v| Ok(v * 2)).unwrap();
    /// assert_eq!(out, vec![2, 4, 6]);
    /// ```
    pub fn try_map<T: Send, R: Send>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, T) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        let n = items.len();
        if let Some(token) = &self.cancel {
            token.check()?;
        }
        if self.threads <= 1 || n <= 1 {
            let mut out = Vec::with_capacity(n);
            for (i, item) in items.into_iter().enumerate() {
                if let Some(token) = &self.cancel {
                    token.check()?;
                }
                // Same morsel-execution injection point the parallel
                // path hits in `TaskQueue::claim`.
                match catch_unwind(AssertUnwindSafe(|| {
                    self.faults
                        .inject(FaultSite::MorselExecute)
                        .and_then(|()| f(i, item))
                })) {
                    Ok(r) => out.push(r?),
                    Err(payload) => {
                        self.faults.record_panic_isolated();
                        return Err(ColumnarError::WorkerPanic(panic_message(payload)));
                    }
                }
            }
            return Ok(out);
        }
        let slots: Vec<Slot<T>> = items
            .into_iter()
            .map(|t| Slot(UnsafeCell::new(Some(t))))
            .collect();
        let out: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let queue = TaskQueue::new(n, self.cancel.clone(), &self.faults);
        let error: Mutex<Option<ColumnarError>> = Mutex::new(None);
        let workers = self.threads.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        while let Some(i) = queue.claim() {
                            // SAFETY: as in `map` — disjoint uniquely
                            // claimed indexes, vectors never resized.
                            let Some(item) = (unsafe { (*slots[i].0.get()).take() }) else {
                                break;
                            };
                            match f(i, item) {
                                Ok(r) => unsafe { *out[i].0.get() = Some(r) },
                                Err(e) => {
                                    queue.poison();
                                    set_first_error(&error, e);
                                    break;
                                }
                            }
                        }
                    }));
                    if let Err(payload) = run {
                        queue.poison();
                        self.faults.record_panic_isolated();
                        set_first_error(
                            &error,
                            ColumnarError::WorkerPanic(panic_message(payload)),
                        );
                    }
                });
            }
        });
        if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        if let Some(token) = &self.cancel {
            token.check()?;
        }
        #[allow(clippy::expect_used)] // no error recorded ⇒ every slot was filled
        Ok(out
            .into_iter()
            .map(|s| s.0.into_inner().expect("worker filled its slot"))
            .collect())
    }

    /// Spawn up to `threads` workers, each running `worker` with the
    /// shared task queue over `0..tasks`, and return one result per
    /// worker (in worker order). This is the shape the group-by kernel
    /// needs: worker-local accumulators fed by dynamically claimed
    /// morsels, merged by the caller afterwards.
    ///
    /// A panicking worker poisons the queue (its peers drain and exit)
    /// and fails the call with [`ColumnarError::WorkerPanic`]; a tripped
    /// cancel token fails it with [`ColumnarError::Cancelled`].
    pub fn run_workers<R: Send>(
        &self,
        tasks: usize,
        worker: impl Fn(&TaskQueue) -> R + Sync,
    ) -> Result<Vec<R>> {
        let queue = TaskQueue::new(tasks, self.cancel.clone(), &self.faults);
        let workers = self.threads.min(tasks.max(1));
        let error: Mutex<Option<ColumnarError>> = Mutex::new(None);
        let run_one = |queue: &TaskQueue| -> Option<R> {
            match catch_unwind(AssertUnwindSafe(|| worker(queue))) {
                Ok(r) => Some(r),
                Err(payload) => {
                    queue.poison();
                    self.faults.record_panic_isolated();
                    set_first_error(
                        &error,
                        ColumnarError::WorkerPanic(panic_message(payload)),
                    );
                    None
                }
            }
        };
        let results: Vec<Option<R>> = if workers <= 1 {
            vec![run_one(&queue)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> =
                    (0..workers).map(|_| scope.spawn(|| run_one(&queue))).collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        // Unreachable (run_one catches), but stay structured.
                        Err(payload) => {
                            set_first_error(
                                &error,
                                ColumnarError::WorkerPanic(panic_message(payload)),
                            );
                            None
                        }
                    })
                    .collect()
            })
        };
        if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
            return Err(e);
        }
        if let Some(token) = &self.cancel {
            token.check()?;
        }
        #[allow(clippy::expect_used)] // no error recorded ⇒ every worker returned
        Ok(results
            .into_iter()
            .map(|r| r.expect("worker result present"))
            .collect())
    }
}

// ---------------------------------------------------------------------------
// Pipeline stages
// ---------------------------------------------------------------------------

/// A bounded single-producer/single-consumer channel between two
/// pipeline stages. The bound is the pipeline's *backpressure rule*: a
/// producer that gets more than `cap` items ahead of its consumer blocks
/// in [`send`](StageChannel::send), so at most `cap` in-flight items
/// (plus the two being worked on) are ever materialized — the property
/// that keeps a streaming scan's footprint independent of file size.
///
/// Built on `Mutex` + `Condvar` (no crossbeam in the sanctioned
/// dependency set); the morsels flowing through are thousands of rows
/// each, so lock traffic is noise.
pub struct StageChannel<T> {
    inner: Mutex<StageState<T>>,
    /// Signaled when an item is pushed or the producer closes.
    ready: Condvar,
    /// Signaled when an item is popped or the consumer hangs up.
    space: Condvar,
    cap: usize,
}

struct StageState<T> {
    queue: VecDeque<T>,
    /// Producer finished: drain the queue, then `recv` returns `None`.
    closed: bool,
    /// Consumer gone: `send` returns `false` so the producer can stop
    /// early (e.g. a `LIMIT` was satisfied downstream).
    hung_up: bool,
}

impl<T> StageChannel<T> {
    /// A channel admitting at most `cap` queued items (min 1).
    pub fn new(cap: usize) -> StageChannel<T> {
        StageChannel {
            inner: Mutex::new(StageState {
                queue: VecDeque::new(),
                closed: false,
                hung_up: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Lock the state, recovering from poison: the mutex is only held
    /// inside this module's short critical sections, so a poisoned lock
    /// means a *peer stage* panicked mid-protocol — the state itself is
    /// still consistent and shutdown must proceed, not double-panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, StageState<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Push an item, blocking while the queue is full. Returns `false`
    /// (dropping the item) if the consumer has hung up — the producer
    /// should stop generating.
    pub fn send(&self, item: T) -> bool {
        let mut st = self.lock();
        while st.queue.len() >= self.cap && !st.hung_up {
            st = self.space.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.hung_up {
            return false;
        }
        st.queue.push_back(item);
        drop(st);
        self.ready.notify_one();
        true
    }

    /// Pop the next item, blocking while the queue is empty and the
    /// producer is still running. Returns `None` once the producer has
    /// [`close`](StageChannel::close)d and the queue is drained.
    pub fn recv(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.queue.pop_front() {
                drop(st);
                self.space.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Producer side: no more items will be sent. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Consumer side: stop accepting items (subsequent and blocked
    /// `send`s return `false`). Queued items are dropped. Idempotent.
    pub fn hang_up(&self) {
        let mut st = self.lock();
        st.hung_up = true;
        st.queue.clear();
        drop(st);
        self.space.notify_all();
    }
}

impl WorkerPool {
    /// Run a two-stage pipeline: `producer` on a scoped worker thread,
    /// `consumer` on the calling thread, connected by a bounded
    /// [`StageChannel`] of `cap` items. Returns both stages' results once
    /// both finish.
    ///
    /// The consumer runs on the caller's thread so it can hold `&mut`
    /// state (an engine driving operators downstream of a scan) without
    /// `Send` gymnastics. The producer must close the channel when done —
    /// typical producers wrap their loop and call
    /// [`close`](StageChannel::close) at the end; a consumer that stops
    /// early (limit reached, error) should call
    /// [`hang_up`](StageChannel::hang_up) so the producer's next `send`
    /// returns `false` and it can exit instead of blocking forever.
    ///
    /// Both stages run under `catch_unwind`, and the shutdown protocol runs
    /// *unconditionally*: whatever a stage does — return, error out early,
    /// or panic — its channel side is released (producer exit closes,
    /// consumer exit hangs up), so the peer can never block forever on a
    /// bounded queue. A panic in either stage surfaces as
    /// [`ColumnarError::WorkerPanic`] after both stages have unwound. The
    /// stage threads are the pool's `pipeline_stage` injection site.
    pub fn pipeline<T, A, B>(
        &self,
        cap: usize,
        producer: impl FnOnce(&StageChannel<T>) -> A + Send,
        consumer: impl FnOnce(&StageChannel<T>) -> B,
    ) -> Result<(A, B)>
    where
        T: Send,
        A: Send,
    {
        let channel = StageChannel::new(cap);
        let (a, b) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    stage_inject(&self.faults);
                    producer(&channel)
                }));
                // Whether the producer returned or panicked, the consumer
                // must not block on a channel nobody will feed again.
                channel.close();
                r
            });
            let b = catch_unwind(AssertUnwindSafe(|| consumer(&channel)));
            // A consumer that returned early (or panicked) must not strand
            // the producer on a full queue.
            channel.hang_up();
            let a = handle.join().unwrap_or_else(Err);
            (a, b)
        });
        match (a, b) {
            (Ok(a), Ok(b)) => Ok((a, b)),
            (ra, rb) => Err(self.stage_panics([ra.err(), rb.err()])),
        }
    }

    /// Run a three-stage pipeline: `producer` and `middle` each on their own
    /// scoped worker thread, `consumer` on the calling thread, connected by
    /// two bounded [`StageChannel`]s of `cap` items each. This is the
    /// multi-stage shape the streaming executor uses for
    /// scan → fused-chain transform → accumulate: the parse thread, the
    /// operator-chain thread, and the driver all run concurrently, and the
    /// two bounds keep the total in-flight footprint at `2 · cap` morsels
    /// regardless of file size.
    ///
    /// Shutdown protocol (the part that must not deadlock): every stage
    /// runs under `catch_unwind` and releases its channel sides
    /// *unconditionally* when it exits — normally, on error, or by panic.
    /// The producer's exit closes the upstream channel; the middle stage's
    /// exit hangs up upstream (so a blocked producer `send` returns
    /// `false`) and closes downstream (so the consumer's `recv` drains and
    /// returns `None`); the consumer's exit hangs up downstream. Any stage
    /// panic surfaces as [`ColumnarError::WorkerPanic`] after all three
    /// stages have unwound — bounded-channel peers never block forever. A
    /// middle stage should still mirror a well-behaved producer: forward
    /// until `recv` returns `None` or `send` returns `false`, then
    /// [`close`](StageChannel::close) its output.
    pub fn pipeline3<T, U, A, B, C>(
        &self,
        cap: usize,
        producer: impl FnOnce(&StageChannel<T>) -> A + Send,
        middle: impl FnOnce(&StageChannel<T>, &StageChannel<U>) -> B + Send,
        consumer: impl FnOnce(&StageChannel<U>) -> C,
    ) -> Result<(A, B, C)>
    where
        T: Send,
        U: Send,
        A: Send,
        B: Send,
    {
        let upstream = StageChannel::new(cap);
        let downstream = StageChannel::new(cap);
        let (a, b, c) = std::thread::scope(|scope| {
            let h1 = scope.spawn(|| {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    stage_inject(&self.faults);
                    producer(&upstream)
                }));
                upstream.close();
                r
            });
            let h2 = scope.spawn(|| {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    stage_inject(&self.faults);
                    middle(&upstream, &downstream)
                }));
                // A middle stage that stopped — normally or not — must
                // release both neighbors: the producer may be blocked
                // sending upstream, the consumer waiting downstream.
                upstream.hang_up();
                downstream.close();
                r
            });
            let c = catch_unwind(AssertUnwindSafe(|| consumer(&downstream)));
            // Unwind in dependency order (each call is idempotent): free the
            // middle stage first, then the producer.
            downstream.hang_up();
            let b = h2.join().unwrap_or_else(Err);
            upstream.hang_up();
            let a = h1.join().unwrap_or_else(Err);
            (a, b, c)
        });
        match (a, b, c) {
            (Ok(a), Ok(b), Ok(c)) => Ok((a, b, c)),
            (ra, rb, rc) => Err(self.stage_panics([ra.err(), rb.err(), rc.err()])),
        }
    }

    /// The error of a pipeline whose stages caught these panics: each is
    /// counted as isolated, and the first one's message is kept.
    fn stage_panics<const N: usize>(
        &self,
        caught: [Option<Box<dyn std::any::Any + Send>>; N],
    ) -> ColumnarError {
        let msgs: Vec<String> = caught.into_iter().flatten().map(panic_message).collect();
        for _ in &msgs {
            self.faults.record_panic_isolated();
        }
        let first = msgs.into_iter().next();
        ColumnarError::WorkerPanic(first.unwrap_or_else(|| "pipeline stage panicked".into()))
    }
}

/// [`WorkerPool::pipeline`] under the process configuration's fault plan
/// ([`ExecConfig::from_env`]).
///
/// ```
/// use lafp_columnar::pool::{pipeline, StageChannel};
/// let ((), sum) = pipeline(
///     2,
///     |tx: &StageChannel<i64>| {
///         for v in 1..=100 {
///             if !tx.send(v) {
///                 break;
///             }
///         }
///         tx.close();
///     },
///     |rx| {
///         let mut total = 0;
///         while let Some(v) = rx.recv() {
///             total += v;
///         }
///         total
///     },
/// )
/// .unwrap();
/// assert_eq!(sum, 5050);
/// ```
pub fn pipeline<T: Send, A: Send, B>(
    cap: usize,
    producer: impl FnOnce(&StageChannel<T>) -> A + Send,
    consumer: impl FnOnce(&StageChannel<T>) -> B,
) -> Result<(A, B)> {
    WorkerPool::new(0).pipeline(cap, producer, consumer)
}

/// [`WorkerPool::pipeline3`] under the process configuration's fault
/// plan ([`ExecConfig::from_env`]).
///
/// ```
/// use lafp_columnar::pool::{pipeline3, StageChannel};
/// let ((), (), sum) = pipeline3(
///     2,
///     |tx: &StageChannel<i64>| {
///         for v in 1..=100 {
///             if !tx.send(v) {
///                 break;
///             }
///         }
///         tx.close();
///     },
///     |rx, tx: &StageChannel<i64>| {
///         while let Some(v) = rx.recv() {
///             if !tx.send(v * 2) {
///                 break;
///             }
///         }
///         tx.close();
///     },
///     |rx| {
///         let mut total = 0;
///         while let Some(v) = rx.recv() {
///             total += v;
///         }
///         total
///     },
/// )
/// .unwrap();
/// assert_eq!(sum, 10100);
/// ```
pub fn pipeline3<T: Send, U: Send, A: Send, B: Send, C>(
    cap: usize,
    producer: impl FnOnce(&StageChannel<T>) -> A + Send,
    middle: impl FnOnce(&StageChannel<T>, &StageChannel<U>) -> B + Send,
    consumer: impl FnOnce(&StageChannel<U>) -> C,
) -> Result<(A, B, C)> {
    WorkerPool::new(0).pipeline3(cap, producer, middle, consumer)
}

/// Split `rows` into contiguous `(start, len)` morsels of at most
/// `morsel` rows, evenly sized (lengths differ by at most one). Empty
/// input yields no morsels.
pub fn morsel_ranges(rows: usize, morsel: usize) -> Vec<(usize, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    let morsel = morsel.max(1);
    let count = rows.div_ceil(morsel);
    let base = rows / count;
    let extra = rows % count;
    let mut out = Vec::with_capacity(count);
    let mut start = 0;
    for i in 0..count {
        let len = base + usize::from(i < extra);
        out.push((start, len));
        start += len;
    }
    out
}

/// Morsels for a kernel run: at most [`MORSEL_ROWS`] rows each, but at
/// least two per worker when the input is big enough to split at all, so
/// the claim queue can balance skew.
pub fn kernel_morsels(rows: usize, threads: usize) -> Vec<(usize, usize)> {
    let target = MORSEL_ROWS.min(rows.div_ceil(2 * threads.max(1)).max(1));
    morsel_ranges(rows, target)
}

/// Split `data` into disjoint mutable chunks aligned to `morsels` (as
/// produced by [`morsel_ranges`] / [`kernel_morsels`]), each paired with
/// its starting row — the item shape parallel fill-in-place kernels
/// [`WorkerPool::map`] over. `morsels` must cover `data` exactly.
pub fn split_mut_chunks<'a, T>(
    data: &'a mut [T],
    morsels: &[(usize, usize)],
) -> Vec<(usize, &'a mut [T])> {
    let mut chunks = Vec::with_capacity(morsels.len());
    let mut rest = data;
    for &(start, len) in morsels {
        let (head, tail) = rest.split_at_mut(len);
        chunks.push((start, head));
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "morsels must cover the slice exactly");
    chunks
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

    use super::*;

    #[test]
    fn resolve_honors_explicit_request() {
        assert_eq!(WorkerPool::new(3).threads(), 3);
        assert!(WorkerPool::new(0).threads() >= 1);
        let config = ExecConfig::default().with_threads(5);
        let pool = WorkerPool::from_config(&config.with_threads(0));
        assert_eq!(pool.threads(), 5);
    }

    #[test]
    fn map_preserves_order_and_runs_everything() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..1000).collect();
        let out = pool.map(items, |i, v| {
            assert_eq!(i, v);
            v * 2
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn map_sequential_fallback() {
        let pool = WorkerPool::new(1);
        assert!(!pool.is_parallel());
        let out = pool.map(vec![10, 20], |_, v| v + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn run_workers_claims_each_task_once() {
        use std::sync::Mutex;
        let pool = WorkerPool::new(4);
        let seen = Mutex::new(vec![0u32; 100]);
        let counts = pool
            .run_workers(100, |q| {
                let mut local = 0usize;
                while let Some(t) = q.claim() {
                    seen.lock().unwrap()[t] += 1;
                    local += 1;
                }
                local
            })
            .unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn run_workers_zero_tasks_still_returns_one_result() {
        let pool = WorkerPool::new(4);
        let out = pool
            .run_workers(0, |q| {
                assert!(q.claim().is_none());
                7
            })
            .unwrap();
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn try_map_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool
            .try_map((0..1000).collect::<Vec<usize>>(), |i, v| {
                assert_eq!(i, v);
                Ok(v * 2)
            })
            .unwrap();
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn try_map_surfaces_first_error() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .try_map((0..100).collect::<Vec<usize>>(), |_, v| {
                    if v == 57 {
                        Err(ColumnarError::InvalidArgument("morsel 57".into()))
                    } else {
                        Ok(v)
                    }
                })
                .unwrap_err();
            assert!(matches!(err, ColumnarError::InvalidArgument(_)));
        }
    }

    /// One panicking morsel fails the call with a structured error and
    /// the pool is immediately reusable — the core isolation property.
    #[test]
    fn try_map_isolates_worker_panic() {
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let err = pool
                .try_map((0..100).collect::<Vec<usize>>(), |_, v| {
                    if v == 31 {
                        panic!("poisoned morsel 31");
                    }
                    Ok(v)
                })
                .unwrap_err();
            assert!(
                matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("poisoned morsel")),
                "got {err:?}"
            );
            // Same pool, next call: fine.
            let ok = pool.try_map(vec![1, 2, 3], |_, v| Ok(v + 1)).unwrap();
            assert_eq!(ok, vec![2, 3, 4]);
        }
    }

    #[test]
    fn run_workers_isolates_worker_panic() {
        let pool = WorkerPool::new(4);
        let err = pool
            .run_workers(100, |q| {
                while let Some(t) = q.claim() {
                    if t == 13 {
                        panic!("worker died on task 13");
                    }
                }
                0usize
            })
            .unwrap_err();
        assert!(matches!(err, ColumnarError::WorkerPanic(_)));
    }

    #[test]
    fn cancelled_pool_fails_fallible_entry_points() {
        let token = CancelToken::new();
        token.cancel();
        let pool = WorkerPool::new(4).with_cancel(token);
        assert!(matches!(
            pool.try_map(vec![1, 2, 3], |_, v| Ok(v)),
            Err(ColumnarError::Cancelled(_))
        ));
        assert!(matches!(
            pool.run_workers(10, |q| {
                while q.claim().is_some() {}
                0usize
            }),
            Err(ColumnarError::Cancelled(_))
        ));
    }

    /// Cancelling mid-run stops the claim queue: workers drain and the
    /// call reports `Cancelled` without executing every task.
    #[test]
    fn cancel_mid_run_stops_claims() {
        let token = CancelToken::new();
        let pool = WorkerPool::new(2).with_cancel(token.clone());
        let executed = AtomicUsize::new(0);
        let err = pool
            .run_workers(1_000_000, |q| {
                while q.claim().is_some() {
                    if executed.fetch_add(1, Ordering::Relaxed) == 10 {
                        token.cancel();
                    }
                }
            })
            .unwrap_err();
        assert!(matches!(err, ColumnarError::Cancelled(_)));
        assert!(
            executed.load(Ordering::Relaxed) < 1_000_000,
            "claims stopped early"
        );
    }

    #[test]
    fn morsel_ranges_cover_exactly() {
        for rows in [0usize, 1, 7, 100, 64 * 1024 + 3] {
            for morsel in [1usize, 10, 64 * 1024] {
                let ranges = morsel_ranges(rows, morsel);
                let mut next = 0;
                for (start, len) in &ranges {
                    assert_eq!(*start, next);
                    assert!(*len >= 1 && *len <= morsel);
                    next += len;
                }
                assert_eq!(next, rows);
            }
        }
    }

    #[test]
    fn kernel_morsels_split_for_workers() {
        let m = kernel_morsels(100_000, 4);
        assert!(m.len() >= 8, "at least two morsels per worker: {}", m.len());
        assert_eq!(m.iter().map(|(_, l)| l).sum::<usize>(), 100_000);
    }

    #[test]
    fn pipeline_streams_in_order() {
        let pool = WorkerPool::new(2);
        let ((), got) = pool.pipeline(
            4,
            |tx: &StageChannel<usize>| {
                for v in 0..1000 {
                    assert!(tx.send(v), "consumer drains everything");
                }
                tx.close();
            },
            |rx| {
                let mut out = Vec::new();
                while let Some(v) = rx.recv() {
                    out.push(v);
                }
                out
            },
        )
        .unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
    }

    /// The bound is the backpressure rule: the producer can never get
    /// more than `cap` items ahead of the consumer.
    #[test]
    fn pipeline_bounds_in_flight_items() {
        let in_flight = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let cap = 3;
        let pool = WorkerPool::new(2);
        pool.pipeline(
            cap,
            |tx: &StageChannel<()>| {
                for _ in 0..200 {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    assert!(tx.send(()));
                }
                tx.close();
            },
            |rx| {
                while rx.recv().is_some() {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            },
        )
        .unwrap();
        // `cap` queued, plus one item in the producer's pre-send window
        // and one in the consumer's popped-but-not-yet-counted window.
        assert!(
            max_seen.load(Ordering::SeqCst) <= cap + 2,
            "producer ran {} items ahead of a cap-{} channel",
            max_seen.load(Ordering::SeqCst),
            cap
        );
    }

    /// A consumer that stops early (a satisfied LIMIT) must unblock the
    /// producer instead of deadlocking it on a full queue.
    #[test]
    fn pipeline_consumer_hangup_stops_producer() {
        let pool = WorkerPool::new(2);
        let (sent, got) = pool.pipeline(
            1,
            |tx: &StageChannel<usize>| {
                let mut sent = 0usize;
                for v in 0..1_000_000 {
                    if !tx.send(v) {
                        break;
                    }
                    sent += 1;
                }
                tx.close();
                sent
            },
            |rx| {
                let mut out = Vec::new();
                for _ in 0..5 {
                    match rx.recv() {
                        Some(v) => out.push(v),
                        None => break,
                    }
                }
                rx.hang_up();
                out
            },
        )
        .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(sent < 1_000_000, "producer stopped early (sent {sent})");
    }

    #[test]
    fn pipeline3_streams_in_order_through_both_channels() {
        let pool = WorkerPool::new(2);
        let ((), (), got) = pool.pipeline3(
            4,
            |tx: &StageChannel<usize>| {
                for v in 0..1000 {
                    assert!(tx.send(v));
                }
                tx.close();
            },
            |rx, tx: &StageChannel<usize>| {
                while let Some(v) = rx.recv() {
                    if !tx.send(v + 1) {
                        break;
                    }
                }
                tx.close();
            },
            |rx| {
                let mut out = Vec::new();
                while let Some(v) = rx.recv() {
                    out.push(v);
                }
                out
            },
        )
        .unwrap();
        assert_eq!(got, (1..=1000).collect::<Vec<_>>());
    }

    /// A middle stage may drop items (a fused filter chain): the stages
    /// around it must still terminate cleanly.
    #[test]
    fn pipeline3_middle_stage_filters() {
        let pool = WorkerPool::new(2);
        let ((), kept, sum) = pool.pipeline3(
            2,
            |tx: &StageChannel<usize>| {
                for v in 0..100 {
                    assert!(tx.send(v));
                }
                tx.close();
            },
            |rx, tx: &StageChannel<usize>| {
                let mut kept = 0usize;
                while let Some(v) = rx.recv() {
                    if v % 2 == 0 {
                        kept += 1;
                        if !tx.send(v) {
                            break;
                        }
                    }
                }
                tx.close();
                kept
            },
            |rx| {
                let mut total = 0usize;
                while let Some(v) = rx.recv() {
                    total += v;
                }
                total
            },
        )
        .unwrap();
        assert_eq!(kept, 50);
        assert_eq!(sum, (0..100).filter(|v| v % 2 == 0).sum::<usize>());
    }

    /// A consumer that stops early must unwind both upstream stages
    /// (downstream hang-up stops the middle, upstream hang-up stops the
    /// producer) instead of deadlocking on full queues.
    #[test]
    fn pipeline3_consumer_hangup_unwinds_both_stages() {
        let pool = WorkerPool::new(2);
        let (sent, forwarded, got) = pool.pipeline3(
            1,
            |tx: &StageChannel<usize>| {
                let mut sent = 0usize;
                for v in 0..1_000_000 {
                    if !tx.send(v) {
                        break;
                    }
                    sent += 1;
                }
                tx.close();
                sent
            },
            |rx, tx: &StageChannel<usize>| {
                let mut forwarded = 0usize;
                while let Some(v) = rx.recv() {
                    if !tx.send(v) {
                        break;
                    }
                    forwarded += 1;
                }
                tx.close();
                forwarded
            },
            |rx| {
                let mut out = Vec::new();
                for _ in 0..5 {
                    match rx.recv() {
                        Some(v) => out.push(v),
                        None => break,
                    }
                }
                rx.hang_up();
                out
            },
        )
        .unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(sent < 1_000_000, "producer stopped early (sent {sent})");
        assert!(forwarded < 1_000_000, "middle stopped early ({forwarded})");
    }

    /// Both channel bounds hold at once: neither stage outruns its
    /// consumer by more than the cap (+ the two in-hand windows).
    #[test]
    fn pipeline3_bounds_in_flight_items() {
        let in_flight = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        let cap = 3;
        let pool = WorkerPool::new(2);
        pool.pipeline3(
            cap,
            |tx: &StageChannel<()>| {
                for _ in 0..200 {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    max_seen.fetch_max(now, Ordering::SeqCst);
                    assert!(tx.send(()));
                }
                tx.close();
            },
            |rx, tx: &StageChannel<()>| {
                while let Some(v) = rx.recv() {
                    if !tx.send(v) {
                        break;
                    }
                }
                tx.close();
            },
            |rx| {
                while rx.recv().is_some() {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                }
            },
        )
        .unwrap();
        // Two cap-bounded queues plus one in-hand item per stage.
        assert!(
            max_seen.load(Ordering::SeqCst) <= 2 * cap + 3,
            "stages ran {} items ahead of two cap-{} channels",
            max_seen.load(Ordering::SeqCst),
            cap
        );
    }

    #[test]
    fn pipeline_empty_producer() {
        let pool = WorkerPool::new(2);
        let ((), n) = pool.pipeline(
            2,
            |tx: &StageChannel<u8>| tx.close(),
            |rx| {
                let mut n = 0;
                while rx.recv().is_some() {
                    n += 1;
                }
                n
            },
        )
        .unwrap();
        assert_eq!(n, 0);
    }

    /// Satellite regression: a producer that panics mid-stream (without
    /// closing) must not leave the consumer blocked on `recv` — the
    /// unconditional close in the stage wrapper ends the stream, and the
    /// panic surfaces as a structured error. Exercised at cap 1 (full
    /// backpressure) and a wide cap.
    #[test]
    fn pipeline_producer_panic_mid_stream_no_deadlock() {
        for cap in [1usize, 8] {
            let pool = WorkerPool::new(2);
            let err = pool.pipeline(
                cap,
                |tx: &StageChannel<usize>| {
                    for v in 0..10 {
                        let _ = tx.send(v);
                    }
                    panic!("producer exploded mid-stream");
                },
                |rx| {
                    let mut n = 0usize;
                    while rx.recv().is_some() {
                        n += 1;
                    }
                    n
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("exploded")),
                "cap {cap}: got {err:?}"
            );
        }
    }

    /// Satellite regression: a consumer that panics mid-stream must not
    /// leave the producer blocked on a full queue — the unconditional
    /// hang-up makes the producer's `send` return `false`.
    #[test]
    fn pipeline_consumer_panic_mid_stream_no_deadlock() {
        for cap in [1usize, 8] {
            let sent = AtomicUsize::new(0);
            let pool = WorkerPool::new(2);
            let err = pool.pipeline(
                cap,
                |tx: &StageChannel<usize>| {
                    for v in 0..1_000_000 {
                        if !tx.send(v) {
                            break;
                        }
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    tx.close();
                },
                |rx| {
                    if rx.recv().is_some() {
                        panic!("consumer bailed");
                    }
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("bailed")),
                "cap {cap}: got {err:?}"
            );
            assert!(
                sent.load(Ordering::Relaxed) < 1_000_000,
                "cap {cap}: producer stopped early"
            );
        }
    }

    /// Satellite regression: a mid-stream *middle* stage failure must
    /// unwind both directions — the producer unblocks via upstream
    /// hang-up, the consumer drains via downstream close — at cap 1 and
    /// a wide cap.
    #[test]
    fn pipeline3_middle_panic_mid_stream_unwinds_both_directions() {
        for cap in [1usize, 8] {
            let sent = AtomicUsize::new(0);
            let pool = WorkerPool::new(2);
            let err = pool.pipeline3(
                cap,
                |tx: &StageChannel<usize>| {
                    for v in 0..1_000_000 {
                        if !tx.send(v) {
                            break;
                        }
                        sent.fetch_add(1, Ordering::Relaxed);
                    }
                    tx.close();
                },
                |rx, _tx: &StageChannel<usize>| {
                    if rx.recv().is_some() {
                        panic!("middle stage died");
                    }
                },
                |rx| {
                    let mut n = 0usize;
                    while rx.recv().is_some() {
                        n += 1;
                    }
                    n
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("middle stage died")),
                "cap {cap}: got {err:?}"
            );
            assert!(
                sent.load(Ordering::Relaxed) < 1_000_000,
                "cap {cap}: producer stopped early"
            );
        }
    }

    /// And the first stage of a 3-stage pipeline: its panic ends the
    /// stream for both downstream stages.
    #[test]
    fn pipeline3_producer_panic_mid_stream_no_deadlock() {
        for cap in [1usize, 8] {
            let pool = WorkerPool::new(2);
            let err = pool.pipeline3(
                cap,
                |tx: &StageChannel<usize>| {
                    let _ = tx.send(1);
                    panic!("scan failed");
                },
                |rx, tx: &StageChannel<usize>| {
                    while let Some(v) = rx.recv() {
                        if !tx.send(v) {
                            break;
                        }
                    }
                    tx.close();
                },
                |rx| {
                    let mut n = 0usize;
                    while rx.recv().is_some() {
                        n += 1;
                    }
                    n
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("scan failed")),
                "cap {cap}: got {err:?}"
            );
        }
    }
}
