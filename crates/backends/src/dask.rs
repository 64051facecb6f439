//! The Dask-like backend: a self-contained lazy dataframe framework.
//!
//! Mirrors the three properties of Dask that the paper leans on (§2.5–2.6,
//! §5.2):
//!
//! 1. **Lazy task graphs with their own optimizer.** Operations build a
//!    [`DaskOp`] graph; computing first runs the engine's own optimizer
//!    (dead-node culling is implicit in the reachability walk; `head`-limit
//!    pushdown into scans runs always — the paper-era Dask did *not* do
//!    automatic column projection on `read_csv`, which is exactly why
//!    LaFP's static column selection still pays off on this backend; an
//!    opt-in projection pass exists for the ablation benches).
//! 2. **Out-of-core execution.** Partitions stream from the CSV chunk
//!    reader through row-wise operators without materializing the whole
//!    frame; aggregations keep only their running state. Only blocking
//!    operators (sort, merge build side, full gather) buffer partitions,
//!    charging the shared [`MemoryTracker`] — and when a buffer would
//!    overflow the budget, it **spills** partitions to disk in the
//!    `lafp-columnar` spill format and re-admits them (re-charging the
//!    budget) on drain. A sort whose buffer spilled switches to an
//!    external sort: sorted runs on disk merged k-way with bounded
//!    memory. CSV scans are additionally **pipelined** when the worker
//!    pool is parallel: the parse runs on a producer thread overlapping
//!    downstream operator work on the driver thread, connected by a
//!    bounded channel (backpressure keeps at most a few chunks in
//!    flight).
//! 3. **Shared multi-output computation.** [`DaskEngine::compute_batch`]
//!    executes several roots in *one* pass over shared sources with an
//!    event-driven, push-based scheduler — the engine-level behaviour that
//!    makes LaFP's lazy-print batching (§3.3) profitable: one scan feeds
//!    every deferred print instead of one re-scan per print.
//!
//! `persist()` pins a node's partitions in (tracked) memory for reuse
//! across compute calls — the substrate of the paper's common computation
//! reuse (§3.5) — and `unpersist()` releases them after the last use.
//!
//! Row order: partitions keep file order, but positional operations are
//! partition-local (`head` reads from the front of the stream), so programs
//! relying on global positional indexing see Dask-like behaviour.

use crate::memory::{MemoryReservation, MemoryTracker};
use lafp_columnar::csv::{CsvChunkReader, CsvOptions};
use lafp_columnar::faults::FaultSite;
use lafp_columnar::groupby::{GroupByAccumulator, GroupBySpec};
use lafp_columnar::join::{merge as join_merge, JoinKind};
use lafp_columnar::pool::{panic_message, StageChannel, WorkerPool};
use lafp_columnar::sort::{
    cmp_rows_across, sort_values_par, top_k, top_k_par, FrameSortKeys, SortOptions,
};
use lafp_columnar::spill::{spill_frame, SpillDir, SpillFile, SpillReader};
use lafp_columnar::{
    AggKind, Bitmap, CancelToken, Column, ColumnarError, DataFrame, ExecConfig, HeapSize, Result,
    Scalar, Series,
};
use lafp_expr::Expr;
use lafp_meta::FusionStats;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Identifier of a node in the Dask graph.
pub type DaskNodeId = usize;

/// Operators of the Dask engine's own task graph.
#[derive(Debug, Clone)]
pub enum DaskOp {
    /// Partitioned CSV scan.
    ReadCsv {
        /// Source file.
        path: PathBuf,
        /// Scan options (projection, dtypes, date parsing).
        options: CsvOptions,
        /// Stop after this many rows (installed by the head-limit pass).
        limit: Option<usize>,
    },
    /// Scatter an already-materialized frame into the graph.
    FromFrame(Arc<DataFrame>),
    /// Row filter.
    Filter(Expr),
    /// Add or replace a computed column.
    WithColumn(String, Expr),
    /// Column projection.
    Select(Vec<String>),
    /// Drop columns.
    DropColumns(Vec<String>),
    /// Rename columns.
    Rename(Vec<(String, String)>),
    /// Frame-wide fillna.
    FillNa(Scalar),
    /// Streaming distinct over a key subset (empty = all columns).
    DropDuplicates(Vec<String>),
    /// Group-by aggregation (streams to partial-aggregate state).
    GroupByAgg(GroupBySpec),
    /// Column reduction to a scalar.
    Reduce {
        /// Column to reduce.
        column: String,
        /// Aggregate to apply.
        agg: AggKind,
    },
    /// Row count (lazy `len()`).
    Len,
    /// Hash join of the two inputs (input 0 probes, input 1 builds).
    Merge {
        /// Join keys.
        on: Vec<String>,
        /// Join kind.
        how: JoinKind,
    },
    /// Global sort (blocking: buffers all partitions).
    Sort(SortOptions),
    /// First `n` rows of the stream.
    Head(usize),
    /// The first `n` rows of the stable sort, streamed: buffers only
    /// each partition's own best `n` rows, cut back to `n` whenever `2n`
    /// accumulate. Over budget the candidates spill like a sort's and
    /// the external sort finishes, stopping after `n` rows.
    TopK {
        /// Sort keys and directions.
        by: SortOptions,
        /// Rows kept.
        n: usize,
    },
    /// Vertical concatenation of the two inputs.
    Concat,
}

impl DaskOp {
    /// Row-wise operators stream partition-at-a-time with O(partition)
    /// memory; everything else blocks or reduces.
    pub fn is_row_wise(&self) -> bool {
        matches!(
            self,
            DaskOp::Filter(_)
                | DaskOp::WithColumn(..)
                | DaskOp::Select(_)
                | DaskOp::DropColumns(_)
                | DaskOp::Rename(_)
                | DaskOp::FillNa(_)
        )
    }
}

/// Result of a compute call.
#[derive(Debug, Clone)]
pub enum DaskValue {
    /// A materialized frame.
    Frame(DataFrame),
    /// A scalar (reductions, len).
    Scalar(Scalar),
}

impl DaskValue {
    /// Unwrap a frame.
    pub fn into_frame(self) -> Result<DataFrame> {
        match self {
            DaskValue::Frame(f) => Ok(f),
            DaskValue::Scalar(s) => Err(ColumnarError::InvalidArgument(format!(
                "expected frame, got scalar {s}"
            ))),
        }
    }

    /// Unwrap a scalar.
    pub fn into_scalar(self) -> Result<Scalar> {
        match self {
            DaskValue::Scalar(s) => Ok(s),
            DaskValue::Frame(_) => Err(ColumnarError::InvalidArgument(
                "expected scalar, got frame".into(),
            )),
        }
    }
}

#[derive(Debug)]
struct DaskNode {
    op: DaskOp,
    inputs: Vec<DaskNodeId>,
    persisted: bool,
    cache: Option<CachedPartitions>,
}

#[derive(Debug)]
struct CachedPartitions {
    parts: Vec<Arc<DataFrame>>,
    _reservation: MemoryReservation,
}

/// The lazy engine: graph construction + optimizer + streaming executor.
#[derive(Debug)]
pub struct DaskEngine {
    nodes: Vec<DaskNode>,
    tracker: Arc<MemoryTracker>,
    /// Target partition size in rows for CSV scans.
    chunk_rows: usize,
    /// Worker pool for blocking operators (sort flush, buffered probe
    /// drain). Streaming operators stay partition-at-a-time — that is
    /// the engine's out-of-core contract — but partition *work* that has
    /// already been buffered is submitted to the pool instead of drained
    /// on one core.
    pool: Arc<WorkerPool>,
    /// Where blocking operators evict buffered partitions once the
    /// memory budget is exhausted. Lazily created on first spill;
    /// removed when the engine drops.
    spill_dir: Arc<SpillDir>,
    /// Enable the engine's own column-projection pushdown into scans.
    /// Off by default: the paper-era Dask lacked it (see module docs).
    pub projection_pushdown: bool,
    /// Run CSV scans as a two-stage pipeline (parse thread overlapping
    /// operator work) when the pool is parallel. On by default; exists
    /// so benches can measure the blocking drain for comparison.
    pub pipeline_scan: bool,
    /// The engine's settings: chain fusion ([`ExecConfig::fuse`]), the
    /// query deadline and the fault plan its driver fires (the pool and
    /// spill dir above were built from it).
    config: ExecConfig,
    /// Engine-local chain-fusion counters (mirrored into
    /// [`lafp_meta::fusion::global`]).
    fusion_stats: Arc<FusionStats>,
    /// Engine-level cancellation token. Each `compute_batch` derives a
    /// per-query handle from it, armed with the configured
    /// [`ExecConfig::query_timeout`]; cancelling this token aborts the
    /// running query and every later one.
    cancel: CancelToken,
}

impl DaskEngine {
    /// New engine charging `tracker`, scanning CSVs in `chunk_rows`-row
    /// partitions (0 picks the 8192-row default), under the process
    /// configuration ([`ExecConfig::from_env`]).
    pub fn new(tracker: Arc<MemoryTracker>, chunk_rows: usize) -> DaskEngine {
        DaskEngine::with_threads(tracker, chunk_rows, 0)
    }

    /// Like [`new`](Self::new) but with an explicit worker-thread count
    /// (`0` = the configured count).
    pub fn with_threads(
        tracker: Arc<MemoryTracker>,
        chunk_rows: usize,
        threads: usize,
    ) -> DaskEngine {
        DaskEngine::with_config(tracker, chunk_rows, ExecConfig::from_env().with_threads(threads))
    }

    /// An engine whose pool, spill dir, fusion switch, query deadline
    /// and driver fault plan all come from `config`.
    pub fn with_config(
        tracker: Arc<MemoryTracker>,
        chunk_rows: usize,
        config: ExecConfig,
    ) -> DaskEngine {
        DaskEngine {
            nodes: Vec::new(),
            tracker,
            chunk_rows: if chunk_rows == 0 { 8192 } else { chunk_rows },
            pool: Arc::new(WorkerPool::from_config(&config)),
            spill_dir: Arc::new(SpillDir::from_config(&config)),
            projection_pushdown: false,
            pipeline_scan: true,
            config,
            fusion_stats: Arc::new(FusionStats::default()),
            cancel: CancelToken::new(),
        }
    }

    /// The shared memory tracker.
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// The engine's settings.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// The roots of the engine's spill dir (created on first spill,
    /// removed when the engine drops).
    pub fn spill_roots(&self) -> Vec<PathBuf> {
        self.spill_dir.root_paths()
    }

    /// Replace the engine-level cancellation token. Queries started
    /// after this call observe the new token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// The engine-level cancellation token. Cancelling it stops the
    /// in-flight query (if any) at its next morsel/spill boundary and
    /// makes every later query fail fast with
    /// [`ColumnarError::Cancelled`].
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Snapshot of this engine's chain-fusion counters: how many chains
    /// were planned, how many morsels flowed through them, and how many
    /// intermediate frames the *unfused* row-wise path materialized.
    /// A fully fused pipeline reports `intermediate_frames == 0`.
    pub fn fusion_stats(&self) -> lafp_meta::FusionSnapshot {
        self.fusion_stats.snapshot()
    }

    /// Count one intermediate frame materialized by the unfused row-wise
    /// path (the cost fusion exists to remove).
    fn record_intermediate(&self) {
        self.fusion_stats.record_intermediate();
        lafp_meta::fusion::global().record_intermediate();
    }

    /// Number of graph nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Add a node.
    pub fn add(&mut self, op: DaskOp, inputs: Vec<DaskNodeId>) -> DaskNodeId {
        let id = self.nodes.len();
        self.nodes.push(DaskNode {
            op,
            inputs,
            persisted: false,
            cache: None,
        });
        id
    }

    /// The op of a node (primarily for tests and plan display).
    pub fn op(&self, id: DaskNodeId) -> &DaskOp {
        &self.nodes[id].op
    }

    /// Mark a node persisted: its partitions are cached (and charged) on
    /// first execution and reused afterwards (§3.5).
    pub fn persist(&mut self, id: DaskNodeId) {
        self.nodes[id].persisted = true;
    }

    /// Release a persisted node's cache (after its last use).
    pub fn unpersist(&mut self, id: DaskNodeId) {
        self.nodes[id].persisted = false;
        self.nodes[id].cache = None;
    }

    /// Is the node currently cached?
    pub fn is_cached(&self, id: DaskNodeId) -> bool {
        self.nodes[id].cache.is_some()
    }

    // ------------------------------------------------------------------
    // The engine's own optimizer.
    // ------------------------------------------------------------------

    /// Head-limit pushdown: `Head(n)` whose input chain is row-preserving
    /// row-wise ops over a scan limits the scan so the reader stops early.
    /// (Filters are skipped: they change row counts.) The limits are
    /// *per-batch* — the shared graph is never mutated, so later computes
    /// over the same scan still see every row.
    fn plan_head_limits(
        &self,
        roots: &[DaskNodeId],
    ) -> std::collections::HashMap<DaskNodeId, usize> {
        let mut limits = std::collections::HashMap::new();
        let included = self.reachable(roots);
        for &id in &included {
            if let DaskOp::Head(n) = self.nodes[id].op {
                let mut cur = self.nodes[id].inputs[0];
                loop {
                    match &self.nodes[cur].op {
                        DaskOp::Select(_)
                        | DaskOp::DropColumns(_)
                        | DaskOp::Rename(_)
                        | DaskOp::WithColumn(..)
                        | DaskOp::FillNa(_) => cur = self.nodes[cur].inputs[0],
                        DaskOp::ReadCsv { .. } => {
                            // Safe only when nothing else in THIS batch
                            // consumes the scan (it would need all rows).
                            let consumers = included
                                .iter()
                                .filter(|&&c| {
                                    self.nodes[c].cache.is_none()
                                        && self.nodes[c].inputs.contains(&cur)
                                })
                                .count();
                            if consumers == 1 {
                                let slot = limits.entry(cur).or_insert(n);
                                *slot = (*slot).min(n);
                            }
                            break;
                        }
                        _ => break,
                    }
                }
            }
        }
        limits
    }

    /// Optional projection pushdown (ablation only; see module docs).
    fn pushdown_projection(&mut self, roots: &[DaskNodeId]) {
        let mut required: Vec<Option<ColumnRequirement>> = vec![None; self.nodes.len()];
        let order = self.topo_order(roots);
        for &root in roots {
            required[root] = Some(ColumnRequirement::All);
        }
        for &id in order.iter().rev() {
            let Some(req) = required[id].clone() else {
                continue;
            };
            let inputs = self.nodes[id].inputs.clone();
            let input_reqs = input_requirements(&self.nodes[id].op, &req, inputs.len());
            for (input, in_req) in inputs.into_iter().zip(input_reqs) {
                let slot = &mut required[input];
                *slot = Some(match slot.take() {
                    None => in_req,
                    Some(prev) => prev.union(&in_req),
                });
            }
        }
        for (node, req) in self.nodes.iter_mut().zip(&required) {
            if let (DaskOp::ReadCsv { options, .. }, Some(ColumnRequirement::Some(cols))) =
                (&mut node.op, req)
            {
                let mut cols: Vec<String> = cols.iter().cloned().collect();
                cols.sort();
                options.usecols = Some(match options.usecols.take() {
                    Some(existing) => existing.into_iter().filter(|c| cols.contains(c)).collect(),
                    None => cols,
                });
            }
        }
    }

    /// Nodes reachable from `roots`, stopping at cached nodes' inputs
    /// (a cached node is a source; its upstream need not run).
    fn reachable(&self, roots: &[DaskNodeId]) -> Vec<DaskNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<DaskNodeId> = roots.to_vec();
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                continue;
            }
            out.push(id);
            if self.nodes[id].cache.is_none() {
                stack.extend(self.nodes[id].inputs.iter().copied());
            }
        }
        out
    }

    fn topo_order(&self, roots: &[DaskNodeId]) -> Vec<DaskNodeId> {
        let mut order = Vec::new();
        let mut state = vec![0u8; self.nodes.len()];
        let mut stack: Vec<(DaskNodeId, bool)> = roots.iter().map(|&r| (r, false)).collect();
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                state[id] = 2;
                order.push(id);
                continue;
            }
            if state[id] != 0 {
                continue;
            }
            state[id] = 1;
            stack.push((id, true));
            if self.nodes[id].cache.is_none() {
                // Reverse push so input 0's subtree is visited (and thus
                // scheduled) before input 1's — Concat emits left-first.
                for &i in self.nodes[id].inputs.iter().rev() {
                    if state[i] == 0 {
                        stack.push((i, false));
                    }
                }
            }
        }
        order
    }

    // ------------------------------------------------------------------
    // Execution: event-driven, push-based, multi-root.
    // ------------------------------------------------------------------

    /// Compute one root.
    pub fn compute(&mut self, root: DaskNodeId) -> Result<(DaskValue, MemoryReservation)> {
        Ok(self.compute_batch(&[root])?.pop().expect("one root"))
    }

    /// Materialize every partition of `id` into one frame (the blocking
    /// "convert to pandas" step; this is where large frames OOM).
    pub fn gather(&mut self, id: DaskNodeId) -> Result<(DataFrame, MemoryReservation)> {
        let (value, reservation) = self.compute(id)?;
        Ok((value.into_frame()?, reservation))
    }

    /// Compute several roots in **one pass** over shared sources.
    ///
    /// This is what a `flush()` of several lazy prints compiles to: all
    /// deferred outputs are satisfied by a single scan of each input file.
    pub fn compute_batch(
        &mut self,
        roots: &[DaskNodeId],
    ) -> Result<Vec<(DaskValue, MemoryReservation)>> {
        // Per-query cancellation handle: engine token plus the
        // configured deadline, if any.
        let query = match self.config.query_timeout {
            Some(timeout) => self.cancel.with_timeout(timeout),
            None => self.cancel.clone(),
        };
        // Blocking helpers (sort flush, buffered drains) submitted to the
        // pool during this query observe the same handle.
        let saved_pool = Arc::clone(&self.pool);
        self.pool = Arc::new(saved_pool.with_cancel(query.clone()));
        // Panic boundary: a poisoned morsel (or any bug on the driver
        // path) fails THIS query with a structured error instead of
        // aborting the process. All working state is RAII — dropping the
        // half-built `BatchRun` releases its reservations and deletes its
        // spill files — so the engine stays usable for the next query.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.compute_batch_inner(roots, &query)
        }));
        self.pool = saved_pool;
        match result {
            Ok(r) => r,
            Err(payload) => {
                self.config.faults.record_panic_isolated();
                Err(ColumnarError::WorkerPanic(panic_message(payload)))
            }
        }
    }

    fn compute_batch_inner(
        &mut self,
        roots: &[DaskNodeId],
        query: &CancelToken,
    ) -> Result<Vec<(DaskValue, MemoryReservation)>> {
        query.check()?;
        let scan_limits = self.plan_head_limits(roots);
        if self.projection_pushdown {
            self.pushdown_projection(roots);
        }
        let mut run = BatchRun::plan(self, roots, query.clone())?;
        run.scan_limits = scan_limits;
        run.execute(self)?;
        run.finish(self, roots)
    }
}

// ---------------------------------------------------------------------------
// Batch executor internals
// ---------------------------------------------------------------------------

/// Per-node runtime state in one batch execution.
enum NodeState {
    /// Source: partitions produced by the driver loop (scan / FromFrame /
    /// cached partitions).
    Source,
    /// Stateless row-wise transform.
    RowWise,
    /// Streaming group-by.
    GroupBy {
        acc: GroupByAccumulator,
        state: MemoryReservation,
    },
    /// Streaming scalar reduction.
    Reduce { acc: ReduceState },
    /// Streaming row count.
    Len { rows: usize },
    /// First-n rows pass-through.
    Head { remaining: usize, emitted: bool },
    /// Blocking sort buffer.
    Sort { buffer: PartitionBuffer },
    /// Streaming top-k: candidate frames in arrival order, `rows` in
    /// total.
    TopK { buffer: PartitionBuffer, rows: usize },
    /// Streaming dedup with global seen-set.
    Dedup {
        seen: std::collections::HashSet<u64>,
        state: MemoryReservation,
    },
    /// Hash join: buffers the build side (slot 1), then streams probes.
    MergeState {
        build: PartitionBuffer,
        build_done: bool,
        pending_probes: PartitionBuffer,
        built: Option<DataFrame>,
    },
    /// Concatenation forwards both inputs.
    ConcatState,
}

/// One buffered partition: resident, or evicted to its own spill file.
enum BufPart {
    Mem(DataFrame),
    Disk(SpillFile),
}

/// A charged buffer of partitions with spill-to-disk overflow.
///
/// `push` first tries to grow the reservation; on [`OutOfMemory`]
/// it evicts the **oldest resident** partitions to disk (giving their
/// bytes back to the budget via [`MemoryReservation::shrink`]) until the
/// newcomer fits, spilling the newcomer itself as a last resort — so a
/// push only fails when a single partition alone exceeds the whole
/// budget. Draining (`concat_all` / `pop_front`) re-admits evicted
/// partitions *under reservation*: restoring more than the budget still
/// reports [`OutOfMemory`], which keeps "gather a too-large frame" an
/// error while letting bounded-output queries complete out-of-core.
///
/// [`OutOfMemory`]: ColumnarError::OutOfMemory
struct PartitionBuffer {
    parts: std::collections::VecDeque<BufPart>,
    reservation: MemoryReservation,
    spill_dir: Arc<SpillDir>,
    spilled: bool,
    /// Per-query handle: spill-boundary cancellation checkpoint.
    cancel: CancelToken,
}

impl PartitionBuffer {
    fn new(
        tracker: &Arc<MemoryTracker>,
        spill_dir: &Arc<SpillDir>,
        cancel: &CancelToken,
    ) -> PartitionBuffer {
        PartitionBuffer {
            parts: std::collections::VecDeque::new(),
            reservation: MemoryReservation::empty(tracker),
            spill_dir: Arc::clone(spill_dir),
            spilled: false,
            cancel: cancel.clone(),
        }
    }

    /// Did any push overflow the budget and hit disk?
    fn spilled(&self) -> bool {
        self.spilled
    }

    fn evict(&mut self, frame: &DataFrame) -> Result<SpillFile> {
        let bytes = frame.heap_size();
        let file = spill_frame(&self.spill_dir, frame)?;
        let stats = lafp_meta::spill::global();
        stats.record_file();
        stats.record_spill(bytes);
        self.spilled = true;
        Ok(file)
    }

    fn push(&mut self, frame: DataFrame) -> Result<()> {
        self.cancel.check()?;
        let bytes = frame.heap_size();
        if self.reservation.grow(bytes).is_ok() {
            self.parts.push_back(BufPart::Mem(frame));
            return Ok(());
        }
        // Over budget: evict resident partitions oldest-first until the
        // newcomer fits.
        for i in 0..self.parts.len() {
            if !matches!(self.parts[i], BufPart::Mem(_)) {
                continue;
            }
            let BufPart::Mem(resident) =
                std::mem::replace(&mut self.parts[i], BufPart::Mem(DataFrame::empty()))
            else {
                unreachable!("checked above");
            };
            let freed = resident.heap_size();
            let file = self.evict(&resident)?;
            drop(resident);
            self.parts[i] = BufPart::Disk(file);
            self.reservation.shrink(freed);
            if self.reservation.grow(bytes).is_ok() {
                self.parts.push_back(BufPart::Mem(frame));
                return Ok(());
            }
        }
        // Nothing left to evict (or the newcomer alone exceeds what
        // eviction can free): spill the newcomer itself.
        let file = self.evict(&frame)?;
        self.parts.push_back(BufPart::Disk(file));
        Ok(())
    }

    fn restore(&mut self, file: SpillFile) -> Result<DataFrame> {
        let frame = file
            .read_all()?
            .pop()
            .ok_or_else(|| ColumnarError::io("empty spill file"))?;
        self.reservation.grow(frame.heap_size())?;
        lafp_meta::spill::global().record_restore(frame.heap_size());
        Ok(frame)
    }

    /// Remove and return the oldest partition, re-admitting it from disk
    /// (and re-charging the budget) if it was evicted. The returned
    /// frame's bytes stay covered by this buffer's reservation until
    /// [`release`](Self::release) or drop.
    fn pop_front(&mut self) -> Result<Option<DataFrame>> {
        self.cancel.check()?;
        match self.parts.pop_front() {
            None => Ok(None),
            Some(BufPart::Mem(f)) => Ok(Some(f)),
            Some(BufPart::Disk(file)) => Ok(Some(self.restore(file)?)),
        }
    }

    /// Give `bytes` back to the budget for popped frames the caller has
    /// finished with.
    fn release(&mut self, bytes: usize) {
        self.reservation.shrink(bytes);
    }

    /// Pop the newest partition, but only if it is resident in memory.
    /// (Eviction keeps the invariant "disk prefix, then memory suffix",
    /// so the external sort drains the charged suffix first.)
    fn pop_back_mem(&mut self) -> Option<DataFrame> {
        match self.parts.back() {
            Some(BufPart::Mem(_)) => match self.parts.pop_back() {
                Some(BufPart::Mem(f)) => Some(f),
                _ => unreachable!("just checked"),
            },
            _ => None,
        }
    }

    /// Total payload across resident and spilled partitions.
    fn total_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                BufPart::Mem(f) => f.heap_size(),
                BufPart::Disk(file) => file.payload_bytes(),
            })
            .sum()
    }

    /// Materialize every partition into one frame with a single n-way
    /// assembly. The partitions and the assembled result genuinely
    /// coexist, so both are charged — materializing a frame the budget
    /// cannot hold twice over still fails, spill or no spill (the
    /// paper's "convert to pandas" OOM). The partitions' bytes are
    /// released only after the result is charged; the reservation then
    /// covers exactly the result.
    fn concat_all(&mut self) -> Result<DataFrame> {
        let mut parts = Vec::with_capacity(self.parts.len());
        while let Some(p) = self.pop_front()? {
            parts.push(p);
        }
        if parts.is_empty() {
            return Ok(DataFrame::empty());
        }
        let parts_bytes: usize = parts.iter().map(HeapSize::heap_size).sum();
        let result = DataFrame::concat_many(&parts)?;
        self.reservation.grow(result.heap_size())?;
        drop(parts);
        self.reservation.shrink(parts_bytes);
        Ok(result)
    }

    /// Replace the resident partitions with `cut` of their
    /// concatenation, returning the rows now held. The concatenation is
    /// charged while it lives; a buffer that has spilled, or whose
    /// concatenation the budget cannot hold, is left as it is (`None`).
    fn compact(
        &mut self,
        cut: impl FnOnce(&DataFrame) -> Result<DataFrame>,
    ) -> Result<Option<usize>> {
        if self.spilled {
            return Ok(None);
        }
        let frames: Vec<&DataFrame> = self
            .parts
            .iter()
            .map(|p| match p {
                BufPart::Mem(f) => f,
                BufPart::Disk(_) => unreachable!("a buffer that never spilled"),
            })
            .collect();
        let all = DataFrame::concat_many(&frames)?;
        if self.reservation.grow(all.heap_size()).is_err() {
            return Ok(None);
        }
        let kept = cut(&all);
        self.reservation.shrink(all.heap_size());
        let kept = kept?;
        let held = self.reservation.bytes();
        let bytes = kept.heap_size();
        if bytes > held {
            self.reservation.grow(bytes - held)?;
        } else {
            self.reservation.shrink(held - bytes);
        }
        let rows = kept.num_rows();
        self.parts = std::iter::once(BufPart::Mem(kept)).collect();
        Ok(Some(rows))
    }
}

// ---------------------------------------------------------------------------
// Fused operator chains
// ---------------------------------------------------------------------------
//
// The batch planner groups maximal runs of row-wise operators (plus an
// optional terminal aggregation) into a `FusedChain` executed as ONE pass
// per morsel. Instead of each operator materializing a fresh frame
// (filter gathers every column; with_column clones every column), the
// chain accumulates filter predicates into a selection bitmap, computes
// derived columns only for surviving rows, applies projections and
// renames as schema bookkeeping, and feeds a terminal group-by / reduce /
// len accumulator straight from the selected view. The only per-morsel
// materialization is the chain's *output* — and a chain that ends in an
// aggregation materializes nothing at all.

/// One row-local step of a fused chain (the op of an absorbed node).
enum FusedStep {
    /// AND the predicate into the selection bitmap (no rows gathered).
    Filter(Expr),
    /// Compute a column over the *compacted* domain (survivors only).
    WithColumn(String, Expr),
    /// Projection: schema bookkeeping only.
    Select(Vec<String>),
    /// Column drop: schema bookkeeping only.
    Drop(Vec<String>),
    /// Rename: schema bookkeeping only.
    Rename(Vec<(String, String)>),
    /// Fill nulls in every live column over the current domain (fill is
    /// row-local, so it commutes with a pending selection).
    FillNa(Scalar),
}

/// A planned chain: row-local steps executed as one pass per morsel.
struct FusedChain {
    /// Steps in execution order; `steps[0]` is the chain head's op.
    steps: Vec<FusedStep>,
    /// Node id of the last row-wise step — chain output emits from it
    /// (it may be persisted, a root, or have several consumers).
    last: DaskNodeId,
    /// Terminal aggregation absorbed into the chain (`GroupByAgg`,
    /// `Reduce` or `Len`), fed from the selected view without ever
    /// materializing the chain output.
    terminal: Option<DaskNodeId>,
    /// `live[k]`: column names whose *values* steps `k..` (and the chain
    /// output) still need; `None` = all visible. Compaction consults this
    /// to gather only live columns — dead ones keep their name (schema
    /// steps still validate against it) but drop their data.
    live: Vec<Option<BTreeSet<String>>>,
}

/// Where a visible column's values currently live while a chain runs.
enum FusedSrc {
    /// Column `i` of the input morsel, untouched (zero copies so far).
    Base(usize),
    /// Computed / filled / compacted column owned by this morsel.
    Owned(Column),
    /// Liveness-pruned at a compaction: the name is still visible (so
    /// select / drop / rename semantics match the unfused path) but the
    /// values were provably never needed again.
    Dead,
}

/// The result of running a chain's steps over one input morsel: a
/// visible schema over base/owned columns plus a pending selection.
/// Nothing here is materialized into a frame.
struct FusedMorsel {
    cols: Vec<(String, FusedSrc)>,
    /// Pending selection over the current row domain (`None` = all rows).
    sel: Option<Bitmap>,
    /// Current row-domain length (post-compaction, pre-`sel`).
    rows: usize,
}

/// Resolve a visible column to a borrowed `Column` (base or owned).
fn fused_resolve<'a>(
    cols: &'a [(String, FusedSrc)],
    part: &'a DataFrame,
    name: &str,
) -> Result<&'a Column> {
    for (n, src) in cols {
        if n == name {
            return match src {
                FusedSrc::Base(i) => Ok(part.series()[*i].column()),
                FusedSrc::Owned(c) => Ok(c),
                FusedSrc::Dead => Err(ColumnarError::ColumnNotFound(name.to_string())),
            };
        }
    }
    Err(ColumnarError::ColumnNotFound(name.to_string()))
}

/// Apply a pending selection: gather the live columns once, mark dead
/// ones, and shrink the row domain. This is the *only* place a fused
/// chain gathers rows, and it gathers each live column exactly once no
/// matter how many filters preceded it.
fn fused_compact(
    part: &DataFrame,
    cols: &mut [(String, FusedSrc)],
    sel: &mut Option<Bitmap>,
    rows: &mut usize,
    live: &Option<BTreeSet<String>>,
) -> Result<()> {
    let Some(mask) = sel.take() else {
        return Ok(());
    };
    *rows = mask.count_set();
    for (name, src) in cols.iter_mut() {
        if let Some(live) = live {
            if !live.contains(name) {
                *src = FusedSrc::Dead;
                continue;
            }
        }
        let gathered = match src {
            FusedSrc::Base(i) => part.series()[*i].column().filter(&mask)?,
            FusedSrc::Owned(c) => c.filter(&mask)?,
            FusedSrc::Dead => continue,
        };
        *src = FusedSrc::Owned(gathered);
    }
    Ok(())
}

/// Add-or-replace preserving position (mirrors `DataFrame::with_column`).
fn fused_upsert(cols: &mut Vec<(String, FusedSrc)>, name: &str, col: Column) {
    match cols.iter_mut().find(|(n, _)| n == name) {
        Some((_, src)) => *src = FusedSrc::Owned(col),
        None => cols.push((name.to_string(), FusedSrc::Owned(col))),
    }
}

impl FusedChain {
    /// Compile a planned run of row-wise node ids (+ optional terminal)
    /// into executable steps with per-step column liveness.
    fn compile(
        engine: &DaskEngine,
        run: &[DaskNodeId],
        terminal: Option<DaskNodeId>,
    ) -> FusedChain {
        let steps: Vec<FusedStep> = run
            .iter()
            .map(|&id| match engine.nodes[id].op.clone() {
                DaskOp::Filter(e) => FusedStep::Filter(e),
                DaskOp::WithColumn(name, e) => FusedStep::WithColumn(name, e),
                DaskOp::Select(cols) => FusedStep::Select(cols),
                DaskOp::DropColumns(cols) => FusedStep::Drop(cols),
                DaskOp::Rename(mapping) => FusedStep::Rename(mapping),
                DaskOp::FillNa(value) => FusedStep::FillNa(value),
                other => unreachable!("non-fusable op {other:?} in chain"),
            })
            .collect();
        // Backward liveness: what each suffix of the chain still reads.
        let n = steps.len();
        let mut live: Vec<Option<BTreeSet<String>>> = vec![None; n + 1];
        live[n] = terminal.map(|t| match &engine.nodes[t].op {
            DaskOp::GroupByAgg(spec) => {
                let mut s: BTreeSet<String> = spec.keys.iter().cloned().collect();
                s.insert(spec.value.clone());
                s
            }
            DaskOp::Reduce { column, .. } => std::iter::once(column.clone()).collect(),
            DaskOp::Len => BTreeSet::new(),
            other => unreachable!("op {other:?} fused as terminal"),
        });
        for k in (0..n).rev() {
            let down = live[k + 1].clone();
            live[k] = match &steps[k] {
                FusedStep::Filter(e) => down.map(|mut s| {
                    s.extend(e.used_columns());
                    s
                }),
                FusedStep::WithColumn(name, e) => down.map(|mut s| {
                    s.remove(name);
                    s.extend(e.used_columns());
                    s
                }),
                FusedStep::Select(names) => Some(match down {
                    Some(s) => s,
                    None => names.iter().cloned().collect(),
                }),
                FusedStep::Drop(_) | FusedStep::FillNa(_) => down,
                FusedStep::Rename(mapping) => down.map(|s| {
                    s.into_iter()
                        .map(|c| match mapping.iter().find(|(_, new)| *new == c) {
                            Some((old, _)) => old.clone(),
                            None => c,
                        })
                        .collect()
                }),
            };
        }
        FusedChain {
            steps,
            last: *run.last().expect("non-empty chain"),
            terminal,
            live,
        }
    }

    /// Run every step over one input morsel in a single pass. Error
    /// semantics deliberately mirror the unfused operators: unknown
    /// columns report [`ColumnNotFound`], duplicate projections report
    /// [`DuplicateColumn`], and `fillna` skips columns it cannot fill.
    ///
    /// [`ColumnNotFound`]: ColumnarError::ColumnNotFound
    /// [`DuplicateColumn`]: ColumnarError::DuplicateColumn
    fn apply(&self, part: &DataFrame) -> Result<FusedMorsel> {
        let mut cols: Vec<(String, FusedSrc)> = part
            .series()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name().to_string(), FusedSrc::Base(i)))
            .collect();
        let mut sel: Option<Bitmap> = None;
        let mut rows = part.num_rows();
        for (k, step) in self.steps.iter().enumerate() {
            match step {
                FusedStep::Filter(expr) => {
                    // Evaluate over the current (possibly unselected)
                    // domain and AND into the pending selection: adjacent
                    // filters collapse into one bitmap before any row is
                    // gathered. Sound because every expression kernel is
                    // total (e.g. `% 0` nulls, never panics), so rows an
                    // earlier predicate already rejected are harmless.
                    let mask =
                        expr.evaluate_mask_resolved(rows, &|n| fused_resolve(&cols, part, n))?;
                    match &mut sel {
                        None => sel = Some(mask),
                        Some(s) => s.and_assign(&mask),
                    }
                }
                FusedStep::WithColumn(name, expr) => {
                    // Compact first so the derived column is computed
                    // only for surviving rows.
                    fused_compact(part, &mut cols, &mut sel, &mut rows, &self.live[k])?;
                    let col =
                        expr.evaluate_resolved(rows, &|n| fused_resolve(&cols, part, n))?;
                    fused_upsert(&mut cols, name, col);
                }
                FusedStep::Select(names) => {
                    let mut picked: Vec<(String, FusedSrc)> = Vec::with_capacity(names.len());
                    for name in names {
                        let idx = cols
                            .iter()
                            .position(|(n, _)| n == name)
                            .ok_or_else(|| ColumnarError::ColumnNotFound(name.clone()))?;
                        if picked.iter().any(|(n, _)| n == name) {
                            return Err(ColumnarError::DuplicateColumn(name.clone()));
                        }
                        let src = std::mem::replace(&mut cols[idx].1, FusedSrc::Dead);
                        picked.push((name.clone(), src));
                    }
                    cols = picked;
                }
                FusedStep::Drop(names) => {
                    for name in names {
                        if !cols.iter().any(|(n, _)| n == name) {
                            return Err(ColumnarError::ColumnNotFound(name.clone()));
                        }
                    }
                    cols.retain(|(n, _)| !names.iter().any(|d| d == n));
                }
                FusedStep::Rename(mapping) => {
                    for (old, _) in mapping {
                        if !cols.iter().any(|(n, _)| n == old) {
                            return Err(ColumnarError::ColumnNotFound(old.clone()));
                        }
                    }
                    for (name, _) in cols.iter_mut() {
                        if let Some((_, new)) = mapping.iter().find(|(old, _)| old == name) {
                            *name = new.clone();
                        }
                    }
                    let mut seen = BTreeSet::new();
                    for (name, _) in &cols {
                        if !seen.insert(name.clone()) {
                            return Err(ColumnarError::DuplicateColumn(name.clone()));
                        }
                    }
                }
                FusedStep::FillNa(value) => {
                    // Fill is row-local, so it commutes with the pending
                    // selection — no compaction needed. Only live columns
                    // are filled; unfillable ones pass through unchanged
                    // (unfused parity).
                    for (name, src) in cols.iter_mut() {
                        if let Some(live) = &self.live[k] {
                            if !live.contains(name) {
                                continue;
                            }
                        }
                        let base = match src {
                            FusedSrc::Base(i) => part.series()[*i].column(),
                            FusedSrc::Owned(c) => c,
                            FusedSrc::Dead => continue,
                        };
                        if let Ok(filled) = base.fillna(value) {
                            *src = FusedSrc::Owned(filled);
                        }
                    }
                }
            }
        }
        Ok(FusedMorsel { cols, sel, rows })
    }
}

/// Materialize a chain's output morsel into a frame — the chain
/// boundary, and the only per-morsel materialization a fused chain
/// performs. Each output column is gathered (or cloned) exactly once.
fn fused_materialize(part: &DataFrame, morsel: FusedMorsel) -> Result<DataFrame> {
    let FusedMorsel { cols, sel, .. } = morsel;
    let mut series = Vec::with_capacity(cols.len());
    for (name, src) in cols {
        let col = match (src, &sel) {
            (FusedSrc::Base(i), Some(mask)) => part.series()[i].column().filter(mask)?,
            (FusedSrc::Base(i), None) => part.series()[i].column().clone(),
            (FusedSrc::Owned(c), Some(mask)) => c.filter(mask)?,
            (FusedSrc::Owned(c), None) => c,
            // Liveness only kills columns the suffix provably never
            // reads, and the output reads every visible column.
            (FusedSrc::Dead, _) => {
                return Err(ColumnarError::ColumnNotFound(name));
            }
        };
        series.push(Series::new(name, col));
    }
    DataFrame::new(series)
}

/// One batch execution over the engine graph.
struct BatchRun {
    /// Node ids included in this run.
    nodes: Vec<DaskNodeId>,
    /// Runtime state per included node (indexed by dense position).
    states: Vec<NodeState>,
    /// Dense position per node id.
    pos: Vec<Option<usize>>,
    /// Consumers per node: (consumer id, input slot).
    consumers: Vec<Vec<(DaskNodeId, usize)>>,
    /// Remaining not-yet-finished inputs per node.
    open_inputs: Vec<usize>,
    /// Cache tee for persisted nodes.
    persist_tees: std::collections::HashMap<DaskNodeId, (Vec<Arc<DataFrame>>, MemoryReservation)>,
    /// The batch's roots.
    root_set: std::collections::HashSet<DaskNodeId>,
    /// Scalar results per root node id.
    scalar_results: std::collections::HashMap<DaskNodeId, Scalar>,
    /// Output buffers for frame-valued roots, keyed by dense position.
    gather_buffers: std::collections::HashMap<usize, PartitionBuffer>,
    /// Per-batch scan row limits from head pushdown.
    scan_limits: std::collections::HashMap<DaskNodeId, usize>,
    /// Fused operator chains planned for this batch (`Arc` so a pipeline
    /// transform stage can run a chain while the driver owns the run).
    chains: Vec<Arc<FusedChain>>,
    /// Chain index by head node id: partitions delivered to a head are
    /// routed through the whole chain in one pass.
    chain_by_head: std::collections::HashMap<DaskNodeId, usize>,
    /// Per-query cancellation handle, checked at morsel boundaries
    /// (consume / fused absorb / external-sort merge rounds).
    cancel: CancelToken,
}

impl BatchRun {
    fn plan(engine: &DaskEngine, roots: &[DaskNodeId], cancel: CancelToken) -> Result<BatchRun> {
        let included = engine.reachable(roots);
        let mut pos = vec![None; engine.nodes.len()];
        for (i, &id) in included.iter().enumerate() {
            pos[id] = Some(i);
        }
        let root_set: std::collections::HashSet<DaskNodeId> = roots.iter().copied().collect();
        let mut consumers: Vec<Vec<(DaskNodeId, usize)>> = vec![Vec::new(); included.len()];
        let mut open_inputs = vec![0usize; included.len()];
        for &id in &included {
            if engine.nodes[id].cache.is_some() {
                continue; // cached: acts as a source, no live inputs
            }
            for (slot, &input) in engine.nodes[id].inputs.iter().enumerate() {
                let ipos = pos[input].expect("input included");
                consumers[ipos].push((id, slot));
                open_inputs[pos[id].unwrap()] += 1;
            }
        }
        let tracker = &engine.tracker;
        let mut states = Vec::with_capacity(included.len());
        for &id in &included {
            let node = &engine.nodes[id];
            let state = if node.cache.is_some() {
                NodeState::Source
            } else {
                match &node.op {
                    DaskOp::ReadCsv { .. } | DaskOp::FromFrame(_) => NodeState::Source,
                    op if op.is_row_wise() => NodeState::RowWise,
                    DaskOp::GroupByAgg(spec) => NodeState::GroupBy {
                        acc: GroupByAccumulator::new(spec.clone()),
                        state: MemoryReservation::empty(tracker),
                    },
                    DaskOp::Reduce { agg, .. } => NodeState::Reduce {
                        acc: ReduceState::new(*agg),
                    },
                    DaskOp::Len => NodeState::Len { rows: 0 },
                    DaskOp::Head(n) => NodeState::Head {
                        remaining: *n,
                        emitted: false,
                    },
                    DaskOp::Sort(_) => NodeState::Sort {
                        buffer: PartitionBuffer::new(tracker, &engine.spill_dir, &cancel),
                    },
                    DaskOp::TopK { .. } => NodeState::TopK {
                        buffer: PartitionBuffer::new(tracker, &engine.spill_dir, &cancel),
                        rows: 0,
                    },
                    DaskOp::DropDuplicates(_) => NodeState::Dedup {
                        seen: std::collections::HashSet::new(),
                        state: MemoryReservation::empty(tracker),
                    },
                    DaskOp::Merge { .. } => NodeState::MergeState {
                        build: PartitionBuffer::new(tracker, &engine.spill_dir, &cancel),
                        build_done: false,
                        pending_probes: PartitionBuffer::new(tracker, &engine.spill_dir, &cancel),
                        built: None,
                    },
                    DaskOp::Concat => NodeState::ConcatState,
                    _ => NodeState::RowWise,
                }
            };
            states.push(state);
        }
        // Frame-valued roots get a gather buffer appended conceptually; we
        // model it by wrapping: a root that is frame-valued buffers its own
        // deliveries in scalar_results/gather. Implemented in deliver().
        let mut run = BatchRun {
            nodes: included,
            states,
            pos,
            consumers,
            open_inputs,
            persist_tees: std::collections::HashMap::new(),
            root_set,
            scalar_results: std::collections::HashMap::new(),
            gather_buffers: std::collections::HashMap::new(),
            scan_limits: std::collections::HashMap::new(),
            chains: Vec::new(),
            chain_by_head: std::collections::HashMap::new(),
            cancel,
        };
        // Frame-valued roots additionally buffer their output.
        for &root in roots {
            let p = run.pos[root].expect("root included");
            let scalar_valued = matches!(
                engine.nodes[root].op,
                DaskOp::Reduce { .. } | DaskOp::Len
            ) && engine.nodes[root].cache.is_none();
            if !scalar_valued {
                // Wrap the state so root deliveries also land in a buffer.
                run.install_gather(p, tracker, &engine.spill_dir);
            }
        }
        if engine.config.fuse {
            run.plan_chains(engine);
        }
        Ok(run)
    }

    /// Plan fused operator chains (see the "Fused operator chains"
    /// section above). A node heads a chain when it is row-wise,
    /// uncached, and its producer does not itself extend into it; the
    /// chain then absorbs every downstream link whose output is
    /// invisible to the rest of the batch (single consumer, no persist
    /// tee, not a root), and optionally a terminal aggregation.
    fn plan_chains(&mut self, engine: &DaskEngine) {
        let fusable =
            |id: DaskNodeId| engine.nodes[id].cache.is_none() && engine.nodes[id].op.is_row_wise();
        // Interior links must be invisible to everything but the next
        // link: exactly one consumer, no persist tee, not a batch root.
        let interior_ok = |run: &BatchRun, n: DaskNodeId| {
            let p = run.pos[n].expect("chain node included");
            run.consumers[p].len() == 1
                && !engine.nodes[n].persisted
                && !run.root_set.contains(&n)
        };
        for idx in 0..self.nodes.len() {
            let id = self.nodes[idx];
            if !fusable(id) {
                continue;
            }
            let producer = engine.nodes[id].inputs.first().copied();
            if producer.is_some_and(|p| fusable(p) && interior_ok(self, p)) {
                continue; // not a head: the upstream chain absorbs this node
            }
            let mut run_nodes = vec![id];
            let mut terminal = None;
            let mut cur = id;
            while interior_ok(self, cur) {
                let (next, _slot) = self.consumers[self.pos[cur].unwrap()][0];
                if fusable(next) {
                    run_nodes.push(next);
                    cur = next;
                    continue;
                }
                if matches!(
                    engine.nodes[next].op,
                    DaskOp::GroupByAgg(_) | DaskOp::Reduce { .. } | DaskOp::Len
                ) {
                    terminal = Some(next);
                }
                break;
            }
            if run_nodes.len() < 2 && terminal.is_none() {
                continue; // a lone row-wise op has nothing to fuse with
            }
            let ops = run_nodes.len() + usize::from(terminal.is_some());
            engine.fusion_stats.record_chain(ops);
            lafp_meta::fusion::global().record_chain(ops);
            let chain = FusedChain::compile(engine, &run_nodes, terminal);
            self.chain_by_head.insert(id, self.chains.len());
            self.chains.push(Arc::new(chain));
        }
    }

    fn install_gather(
        &mut self,
        p: usize,
        tracker: &Arc<MemoryTracker>,
        spill_dir: &Arc<SpillDir>,
    ) {
        // A root may also feed other consumers; we keep its operational
        // state and add a side buffer keyed by dense position.
        self.gather_buffers
            .entry(p)
            .or_insert_with(|| PartitionBuffer::new(tracker, spill_dir, &self.cancel));
    }

    fn execute(&mut self, engine: &mut DaskEngine) -> Result<()> {
        // Drive sources in topo order (so Concat's input-0 emits first and
        // merge build sides tend to finish before probe floods).
        let mut roots: Vec<DaskNodeId> = self.root_set.iter().copied().collect();
        roots.sort_unstable();
        let order = engine.topo_order(&roots);
        let mut sources: Vec<DaskNodeId> = order
            .into_iter()
            .filter(|&id| {
                self.pos[id].is_some()
                    && matches!(self.states[self.pos[id].unwrap()], NodeState::Source)
            })
            .collect();
        // Merge build sides (input 1) should finish before probe sources
        // start, or every probe partition gets buffered. Run sources that
        // feed only build sides first (stable within each class).
        let mut build_side: std::collections::HashSet<DaskNodeId> = Default::default();
        let mut probe_side: std::collections::HashSet<DaskNodeId> = Default::default();
        for &id in &self.nodes {
            if engine.nodes[id].cache.is_none() {
                if let DaskOp::Merge { .. } = engine.nodes[id].op {
                    build_side.extend(engine.reachable(&[engine.nodes[id].inputs[1]]));
                    probe_side.extend(engine.reachable(&[engine.nodes[id].inputs[0]]));
                }
            }
        }
        sources.sort_by_key(|id| !build_side.contains(id) || probe_side.contains(id));
        for source in sources {
            self.drive_source(engine, source)?;
        }
        // Persist tees -> engine caches.
        for (id, (parts, reservation)) in self.persist_tees.drain() {
            engine.nodes[id].cache = Some(CachedPartitions {
                parts,
                _reservation: reservation,
            });
        }
        Ok(())
    }

    fn drive_source(&mut self, engine: &mut DaskEngine, id: DaskNodeId) -> Result<()> {
        self.cancel.check()?;
        // Cached partitions replay.
        if let Some(cache) = &engine.nodes[id].cache {
            let parts = cache.parts.clone();
            for p in parts {
                self.emit(engine, id, &p)?;
            }
            self.finish_node(engine, id)?;
            return Ok(());
        }
        match engine.nodes[id].op.clone() {
            DaskOp::ReadCsv {
                path,
                options,
                limit,
            } => {
                let limit = match (limit, self.scan_limits.get(&id).copied()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                let mut reader = CsvChunkReader::open(&path, &options, engine.chunk_rows)?;
                // A header-only file yields no chunks; remember the
                // schema so the scan still emits one empty partition — a
                // zero-part stream would otherwise materialize as a
                // 0-column frame downstream.
                let scan_empty = reader.empty_frame()?;
                let mut scanned_any = false;
                // When the scan's sole observer is a fused chain head and
                // no row limit applies, run a THREE-stage pipeline: the
                // parse thread overlaps a dedicated chain-transform
                // thread, and this (driver) thread only lands finished
                // morsels (accumulator updates / output emits).
                let chain_ci = if limit.is_none()
                    && !engine.nodes[id].persisted
                    && !self.root_set.contains(&id)
                    && self.consumers[self.pos[id].expect("source included")].len() == 1
                {
                    let (consumer, _slot) =
                        self.consumers[self.pos[id].expect("source included")][0];
                    self.chain_by_head.get(&consumer).copied()
                } else {
                    None
                };
                if let (true, Some(ci)) = (
                    engine.pipeline_scan && engine.pool.is_parallel(),
                    chain_ci,
                ) {
                    let (pool, cap) = (Arc::clone(&engine.pool), engine.pool.threads());
                    let chain = Arc::clone(&self.chains[ci]);
                    let landed_chain = Arc::clone(&self.chains[ci]);
                    let ((), (), drive) = pool.pipeline3(
                        cap,
                        move |tx: &StageChannel<Result<DataFrame>>| {
                            loop {
                                match reader.next_chunk() {
                                    Ok(Some(chunk)) => {
                                        if !tx.send(Ok(chunk)) {
                                            break; // downstream hung up
                                        }
                                    }
                                    Ok(None) => break,
                                    Err(e) => {
                                        let _ = tx.send(Err(e));
                                        break;
                                    }
                                }
                            }
                            tx.close();
                        },
                        move |rx: &StageChannel<Result<DataFrame>>,
                              tx: &StageChannel<Result<(DataFrame, FusedMorsel)>>| {
                            while let Some(item) = rx.recv() {
                                let out = item
                                    .and_then(|chunk| chain.apply(&chunk).map(|m| (chunk, m)));
                                let stop = out.is_err();
                                if !tx.send(out) || stop {
                                    break;
                                }
                            }
                            tx.close();
                        },
                        |rx: &StageChannel<Result<(DataFrame, FusedMorsel)>>| -> Result<()> {
                            while let Some(item) = rx.recv() {
                                let (chunk, morsel) = item?;
                                scanned_any = true;
                                let _t = engine.tracker.charge(chunk.heap_size())?;
                                self.absorb_fused(engine, &landed_chain, &chunk, morsel)?;
                            }
                            Ok(())
                        },
                    )?;
                    drive?;
                } else if engine.pipeline_scan && engine.pool.is_parallel() {
                    // Pipelined scan: the CSV parse runs on a producer
                    // thread while this (driver) thread pushes finished
                    // chunks through the downstream operators. The
                    // bounded channel is the backpressure rule — at most
                    // `threads` parsed-but-unconsumed chunks in flight,
                    // so a slow consumer throttles the parser instead of
                    // buffering the file.
                    let (pool, cap) = (Arc::clone(&engine.pool), engine.pool.threads());
                    let ((), drive) = pool.pipeline(
                        cap,
                        move |tx: &StageChannel<Result<DataFrame>>| {
                            loop {
                                match reader.next_chunk() {
                                    Ok(Some(chunk)) => {
                                        if !tx.send(Ok(chunk)) {
                                            break; // consumer hung up (limit hit / error)
                                        }
                                    }
                                    Ok(None) => break,
                                    Err(e) => {
                                        let _ = tx.send(Err(e));
                                        break;
                                    }
                                }
                            }
                            tx.close();
                        },
                        |rx: &StageChannel<Result<DataFrame>>| -> Result<()> {
                            let mut emitted = 0usize;
                            while let Some(item) = rx.recv() {
                                let chunk = item?;
                                let chunk = match limit {
                                    Some(l) if emitted + chunk.num_rows() > l => {
                                        chunk.head(l - emitted)
                                    }
                                    _ => chunk,
                                };
                                emitted += chunk.num_rows();
                                scanned_any = true;
                                let _t = engine.tracker.charge(chunk.heap_size())?;
                                self.emit(engine, id, &chunk)?;
                                if limit.is_some_and(|l| emitted >= l) {
                                    break;
                                }
                            }
                            Ok(())
                        },
                    )?;
                    drive?;
                } else {
                    let mut emitted = 0usize;
                    while let Some(chunk) = reader.next_chunk()? {
                        self.cancel.check()?;
                        let chunk = match limit {
                            Some(l) if emitted + chunk.num_rows() > l => chunk.head(l - emitted),
                            _ => chunk,
                        };
                        emitted += chunk.num_rows();
                        scanned_any = true;
                        let _t = engine.tracker.charge(chunk.heap_size())?;
                        self.emit(engine, id, &chunk)?;
                        if limit.is_some_and(|l| emitted >= l) {
                            break;
                        }
                    }
                }
                if !scanned_any {
                    self.emit(engine, id, &scan_empty)?;
                }
            }
            DaskOp::FromFrame(frame) => {
                let rows = frame.num_rows();
                let mut start = 0;
                if rows == 0 {
                    self.emit(engine, id, frame.as_ref())?;
                }
                while start < rows {
                    self.cancel.check()?;
                    let len = engine.chunk_rows.min(rows - start);
                    let part = frame.slice(start, len);
                    let _t = engine.tracker.charge(part.heap_size())?;
                    self.emit(engine, id, &part)?;
                    start += len;
                }
            }
            other => {
                return Err(ColumnarError::InvalidArgument(format!(
                    "node {id} with op {other:?} is not a source"
                )))
            }
        }
        self.finish_node(engine, id)
    }

    /// A node produced one output partition: tee to persist/gather buffers
    /// and push to all consumers.
    fn emit(&mut self, engine: &mut DaskEngine, from: DaskNodeId, part: &DataFrame) -> Result<()> {
        let p = self.pos[from].expect("emitting node included");
        if engine.nodes[from].persisted && engine.nodes[from].cache.is_none() {
            let tee = self
                .persist_tees
                .entry(from)
                .or_insert_with(|| (Vec::new(), MemoryReservation::empty(&engine.tracker)));
            tee.1.grow(part.heap_size())?;
            tee.0.push(Arc::new(part.clone()));
        }
        if let Some(buffer) = self.gather_buffers.get_mut(&p) {
            buffer.push(part.clone())?;
        }
        let consumers = self.consumers[p].clone();
        for (consumer, slot) in consumers {
            self.consume(engine, consumer, slot, part)?;
        }
        Ok(())
    }

    /// Deliver one input partition into a node's state.
    fn consume(
        &mut self,
        engine: &mut DaskEngine,
        id: DaskNodeId,
        slot: usize,
        part: &DataFrame,
    ) -> Result<()> {
        self.cancel.check()?;
        // Driver-side morsel-execution injection point (the pool's
        // equivalent sits in `TaskQueue::claim`); a fired panic unwinds
        // to the `compute_batch` isolation boundary.
        engine.config.faults.inject(FaultSite::MorselExecute)?;
        // A chain head routes the partition through the whole fused
        // chain in one pass instead of its own (unfused) arm below.
        if let Some(ci) = self.chain_by_head.get(&id).copied() {
            let chain = Arc::clone(&self.chains[ci]);
            let morsel = chain.apply(part)?;
            return self.absorb_fused(engine, &chain, part, morsel);
        }
        let p = self.pos[id].expect("consumer included");
        let op = engine.nodes[id].op.clone();
        // Take the state out to satisfy the borrow checker across recursion.
        let mut state = std::mem::replace(&mut self.states[p], NodeState::RowWise);
        let result = (|| -> Result<()> {
            match (&op, &mut state) {
                (DaskOp::Filter(expr), NodeState::RowWise) => {
                    engine.record_intermediate();
                    let out = part.filter(&expr.evaluate_mask(part)?)?;
                    let _t = engine.tracker.charge(out.heap_size())?;
                    self.emit(engine, id, &out)
                }
                (DaskOp::WithColumn(name, expr), NodeState::RowWise) => {
                    engine.record_intermediate();
                    let out = part.with_column(name, expr.evaluate(part)?)?;
                    let _t = engine.tracker.charge(out.heap_size())?;
                    self.emit(engine, id, &out)
                }
                (DaskOp::Select(cols), NodeState::RowWise) => {
                    engine.record_intermediate();
                    self.emit_owned(engine, id, part.select(cols)?)
                }
                (DaskOp::DropColumns(cols), NodeState::RowWise) => {
                    engine.record_intermediate();
                    self.emit_owned(engine, id, part.drop(cols)?)
                }
                (DaskOp::Rename(mapping), NodeState::RowWise) => {
                    engine.record_intermediate();
                    self.emit_owned(engine, id, part.rename(mapping)?)
                }
                (DaskOp::FillNa(value), NodeState::RowWise) => {
                    engine.record_intermediate();
                    let mut cols = Vec::with_capacity(part.num_columns());
                    for s in part.series() {
                        match s.column().fillna(value) {
                            Ok(c) => cols.push(Series::new(s.name(), c)),
                            Err(_) => cols.push(s.clone()),
                        }
                    }
                    self.emit_owned(engine, id, DataFrame::new(cols)?)
                }
                (DaskOp::GroupByAgg(_), NodeState::GroupBy { acc, state }) => {
                    acc.update(part)?;
                    let held = acc.heap_size();
                    if held > state.bytes() {
                        state.grow(held - state.bytes())?;
                    }
                    Ok(())
                }
                (DaskOp::Reduce { column, .. }, NodeState::Reduce { acc }) => {
                    acc.update(part, column)
                }
                (DaskOp::Len, NodeState::Len { rows }) => {
                    *rows += part.num_rows();
                    Ok(())
                }
                (DaskOp::Head(_), NodeState::Head { remaining, emitted }) => {
                    // Emit at least one (possibly empty) part so a
                    // zero-row head still reports its schema.
                    if *remaining == 0 && *emitted {
                        return Ok(());
                    }
                    let take = (*remaining).min(part.num_rows());
                    *remaining -= take;
                    *emitted = true;
                    let out = part.head(take);
                    self.emit(engine, id, &out)
                }
                (DaskOp::Sort(_), NodeState::Sort { buffer }) => buffer.push(part.clone()),
                (DaskOp::TopK { by, n }, NodeState::TopK { buffer, rows }) => {
                    // Only a partition's own best n rows can make the
                    // final cut. The first frame fixes the schema; later
                    // empty ones add nothing.
                    let candidates = if part.num_rows() > *n {
                        top_k(part, by, *n)?
                    } else {
                        part.clone()
                    };
                    if candidates.num_rows() == 0 && !buffer.parts.is_empty() {
                        return Ok(());
                    }
                    *rows += candidates.num_rows();
                    buffer.push(candidates)?;
                    // Cut back to n once 2n rows are held, so the buffer
                    // stays O(n) and each row is cut O(1) times on
                    // average; n past the input never cuts. Candidates
                    // stay in arrival order, so index tie-breaks keep
                    // ties in input order.
                    if *rows > n.saturating_mul(2) {
                        if let Some(kept) = buffer.compact(|all| top_k(all, by, *n))? {
                            *rows = kept;
                        }
                    }
                    Ok(())
                }
                (DaskOp::DropDuplicates(subset), NodeState::Dedup { seen, state }) => {
                    let hashes = part.row_hashes(subset)?;
                    let keep: Vec<usize> = hashes
                        .iter()
                        .enumerate()
                        .filter(|(_, h)| seen.insert(**h))
                        .map(|(i, _)| i)
                        .collect();
                    state.grow(keep.len() * 8)?;
                    // Pass empty parts through (schema preservation);
                    // skip only when a non-empty part deduped to nothing.
                    if keep.is_empty() && part.num_rows() > 0 {
                        return Ok(());
                    }
                    let out = part.take(&keep)?;
                    self.emit(engine, id, &out)
                }
                (
                    DaskOp::Merge { on, how },
                    NodeState::MergeState {
                        build,
                        build_done,
                        pending_probes,
                        built,
                    },
                ) => {
                    if slot == 1 {
                        build.push(part.clone())
                    } else if *build_done {
                        let right = built.as_ref().expect("built after build_done");
                        let out = join_merge(part, right, on, *how)?;
                        let _t = engine.tracker.charge(out.heap_size())?;
                        self.emit(engine, id, &out)
                    } else {
                        pending_probes.push(part.clone())
                    }
                }
                (DaskOp::Concat, NodeState::ConcatState) => self.emit(engine, id, part),
                (op, _) => Err(ColumnarError::InvalidArgument(format!(
                    "unexpected state for op {op:?}"
                ))),
            }
        })();
        self.states[p] = state;
        result
    }

    /// Land one chain-transformed morsel: feed the terminal accumulator
    /// straight from the selected view (zero materializations), or
    /// materialize the chain's output frame once and emit it from the
    /// last fused node (which handles persist tees / gather buffers /
    /// fan-out exactly like an unfused emit).
    fn absorb_fused(
        &mut self,
        engine: &mut DaskEngine,
        chain: &FusedChain,
        part: &DataFrame,
        morsel: FusedMorsel,
    ) -> Result<()> {
        self.cancel.check()?;
        engine.config.faults.inject(FaultSite::MorselExecute)?;
        engine.fusion_stats.record_fused_morsel(part.num_rows());
        lafp_meta::fusion::global().record_fused_morsel(part.num_rows());
        let Some(t) = chain.terminal else {
            let out = fused_materialize(part, morsel)?;
            let _t = engine.tracker.charge(out.heap_size())?;
            return self.emit(engine, chain.last, &out);
        };
        let p = self.pos[t].expect("terminal included");
        let op = engine.nodes[t].op.clone();
        let mut state = std::mem::replace(&mut self.states[p], NodeState::RowWise);
        let result = (|| -> Result<()> {
            match (&op, &mut state) {
                (DaskOp::GroupByAgg(spec), NodeState::GroupBy { acc, state }) => {
                    let key_cols: Vec<&Column> = spec
                        .keys
                        .iter()
                        .map(|k| fused_resolve(&morsel.cols, part, k))
                        .collect::<Result<_>>()?;
                    let value_col = fused_resolve(&morsel.cols, part, &spec.value)?;
                    acc.update_cols(&key_cols, value_col, morsel.sel.as_ref())?;
                    let held = acc.heap_size();
                    if held > state.bytes() {
                        state.grow(held - state.bytes())?;
                    }
                    Ok(())
                }
                (DaskOp::Reduce { column, .. }, NodeState::Reduce { acc }) => {
                    let col = fused_resolve(&morsel.cols, part, column)?;
                    match &morsel.sel {
                        Some(mask) => acc.update_col(&col.filter(mask)?),
                        None => acc.update_col(col),
                    }
                }
                (DaskOp::Len, NodeState::Len { rows }) => {
                    *rows += morsel
                        .sel
                        .as_ref()
                        .map_or(morsel.rows, Bitmap::count_set);
                    Ok(())
                }
                (op, _) => Err(ColumnarError::InvalidArgument(format!(
                    "unexpected state for fused terminal {op:?}"
                ))),
            }
        })();
        self.states[p] = state;
        result
    }

    fn emit_owned(
        &mut self,
        engine: &mut DaskEngine,
        id: DaskNodeId,
        frame: DataFrame,
    ) -> Result<()> {
        self.emit(engine, id, &frame)
    }

    /// An upstream input of `id` finished; when all inputs are done the
    /// node flushes its final output(s) and finishes itself.
    fn input_finished(&mut self, engine: &mut DaskEngine, id: DaskNodeId, slot: usize) -> Result<()> {
        let p = self.pos[id].expect("node included");
        // Merge needs to react to the build side finishing even before all
        // inputs are done.
        if let DaskOp::Merge { on, how } = engine.nodes[id].op.clone() {
            if slot == 1 {
                let mut state = std::mem::replace(&mut self.states[p], NodeState::RowWise);
                let result = (|| -> Result<()> {
                    if let NodeState::MergeState {
                        build,
                        build_done,
                        pending_probes,
                        built,
                    } = &mut state
                    {
                        *build_done = true;
                        *built = Some(build.concat_all()?);
                        let mut probes = std::mem::replace(
                            pending_probes,
                            PartitionBuffer::new(&engine.tracker, &engine.spill_dir, &self.cancel),
                        );
                        let right = built.as_ref().expect("just built");
                        // The backlog of buffered probe partitions is
                        // embarrassingly parallel: join against the
                        // shared build side on the pool in waves of one
                        // partition per worker. Draining wave-by-wave
                        // (instead of mapping the whole backlog at once)
                        // bounds the tracked footprint to one wave of
                        // inputs plus outputs, and lets a backlog that
                        // spilled to disk re-admit a wave at a time.
                        let pool = Arc::clone(&engine.pool);
                        let wave = pool.threads().max(1);
                        loop {
                            let mut batch = Vec::with_capacity(wave);
                            while batch.len() < wave {
                                match probes.pop_front()? {
                                    Some(f) => batch.push(f),
                                    None => break,
                                }
                            }
                            if batch.is_empty() {
                                break;
                            }
                            let in_bytes: usize =
                                batch.iter().map(HeapSize::heap_size).sum();
                            let outs: Vec<DataFrame> = pool
                                .map(batch, |_, probe| join_merge(&probe, right, &on, how))
                                .into_iter()
                                .collect::<Result<Vec<_>>>()?;
                            let wave_bytes: usize =
                                outs.iter().map(HeapSize::heap_size).sum();
                            let _t = engine.tracker.charge(wave_bytes)?;
                            for out in outs {
                                self.emit(engine, id, &out)?;
                            }
                            probes.release(in_bytes);
                        }
                    }
                    Ok(())
                })();
                self.states[p] = state;
                result?;
            }
        }
        self.open_inputs[p] -= 1;
        if self.open_inputs[p] == 0 {
            self.flush_finals(engine, id)?;
            self.finish_node(engine, id)?;
        }
        Ok(())
    }

    /// Emit whatever a stateful node holds at end-of-stream.
    fn flush_finals(&mut self, engine: &mut DaskEngine, id: DaskNodeId) -> Result<()> {
        let p = self.pos[id].expect("node included");
        let op = engine.nodes[id].op.clone();
        let mut state = std::mem::replace(&mut self.states[p], NodeState::RowWise);
        let result = (|| -> Result<()> {
            match (&op, &mut state) {
                (DaskOp::GroupByAgg(_), NodeState::GroupBy { acc, .. }) => {
                    let spec = acc.spec().clone();
                    let done =
                        std::mem::replace(acc, GroupByAccumulator::new(spec)).finish()?;
                    let _t = engine.tracker.charge(done.heap_size())?;
                    self.emit(engine, id, &done)
                }
                (DaskOp::Reduce { agg, .. }, NodeState::Reduce { acc }) => {
                    let done = std::mem::replace(acc, ReduceState::new(*agg)).finish();
                    self.scalar_results.insert(id, done);
                    Ok(())
                }
                (DaskOp::Len, NodeState::Len { rows }) => {
                    self.scalar_results.insert(id, Scalar::Int(*rows as i64));
                    Ok(())
                }
                (DaskOp::TopK { by, n }, NodeState::TopK { buffer, .. }) => {
                    if buffer.spilled() {
                        // The candidates outgrew the budget: external
                        // sort, stopped after n rows.
                        self.external_sort(engine, id, by, buffer, *n)
                    } else {
                        let frame = buffer.concat_all()?;
                        let top = top_k_par(&frame, by, *n, &engine.pool)?;
                        let _t = engine.tracker.charge(top.heap_size())?;
                        self.emit(engine, id, &top)
                    }
                }
                (DaskOp::Sort(options), NodeState::Sort { buffer }) => {
                    if buffer.spilled() {
                        // The input didn't fit in the budget: external
                        // sort (sorted on-disk runs + k-way merge).
                        self.external_sort(engine, id, options, buffer, usize::MAX)
                    } else {
                        // The sort is blocking anyway — every partition
                        // is already buffered — so flush through the
                        // morsel-parallel kernel.
                        let frame = buffer.concat_all()?;
                        let sorted = sort_values_par(&frame, options, &engine.pool)?;
                        let _t = engine.tracker.charge(sorted.heap_size())?;
                        self.emit(engine, id, &sorted)
                    }
                }
                _ => Ok(()),
            }
        })();
        self.states[p] = state;
        result
    }

    /// External sort for a buffer that overflowed the budget.
    ///
    /// Phase 1 drains the buffer into **sorted runs**: partitions are
    /// accumulated (re-admitting spilled ones one at a time) up to a
    /// run budget, sorted with the morsel-parallel kernel, and written
    /// back to disk as chunk-sized frames. Phase 2 **k-way merges** the
    /// runs holding one resident chunk per run, comparing rows with the
    /// cross-frame sort keys; key ties break toward the earlier run, so
    /// the merge is stable with respect to arrival order exactly like
    /// the in-memory path (the underlying kernel sort is stable).
    ///
    /// `limit` stops it after that many rows (top-k): runs keep only
    /// their first `limit` rows and the merge ends once they are out.
    fn external_sort(
        &mut self,
        engine: &mut DaskEngine,
        id: DaskNodeId,
        options: &SortOptions,
        buffer: &mut PartitionBuffer,
        limit: usize,
    ) -> Result<()> {
        let budget = engine.tracker.budget();
        let run_budget = if budget == usize::MAX {
            usize::MAX
        } else {
            // Each run is accumulated under charge before it is sorted
            // and parked on disk; /4 keeps phase 1 comfortably inside
            // the budget once the resident suffix has been drained.
            (budget / 4).max(1)
        };
        // The merge holds one resident chunk per run; cap run-file frame
        // sizes so ~est_runs of them stay within half the budget.
        let est_runs = buffer.total_bytes() / run_budget + 1;
        let frame_cap = if budget == usize::MAX {
            usize::MAX
        } else {
            (budget / (2 * est_runs)).max(1)
        };

        // Drain the *resident suffix* first (eviction keeps spilled
        // partitions as an arrival-order prefix): flushing it into runs
        // releases its charge before any spilled partition is
        // re-admitted, so phase 1 never holds resident-suffix + restored
        // bytes at once. Runs are later merged with an arrival-order
        // tie-break, so the run list must be assembled prefix-first.
        let mut resident: Vec<DataFrame> = Vec::new();
        while let Some(f) = buffer.pop_back_mem() {
            resident.push(f);
        }
        resident.reverse(); // arrival order
        let mut suffix_runs: Vec<SpillFile> = Vec::new();
        let mut acc: Vec<DataFrame> = Vec::new();
        let mut acc_bytes = 0usize;
        for part in resident {
            acc_bytes += part.heap_size();
            acc.push(part);
            if acc_bytes >= run_budget {
                suffix_runs.push(write_sorted_run(engine, &mut acc, options, frame_cap, limit)?);
                buffer.release(acc_bytes);
                acc_bytes = 0;
            }
        }
        if !acc.is_empty() {
            suffix_runs.push(write_sorted_run(engine, &mut acc, options, frame_cap, limit)?);
            buffer.release(acc_bytes);
            acc_bytes = 0;
        }
        // Now re-admit the spilled prefix, one run's worth at a time.
        let mut runs: Vec<SpillFile> = Vec::new();
        while let Some(part) = buffer.pop_front()? {
            acc_bytes += part.heap_size();
            acc.push(part);
            if acc_bytes >= run_budget {
                runs.push(write_sorted_run(engine, &mut acc, options, frame_cap, limit)?);
                buffer.release(acc_bytes);
                acc_bytes = 0;
            }
        }
        if !acc.is_empty() {
            runs.push(write_sorted_run(engine, &mut acc, options, frame_cap, limit)?);
            buffer.release(acc_bytes);
        }
        runs.extend(suffix_runs);

        let nruns = runs.len();
        let stats = lafp_meta::spill::global();
        let mut readers: Vec<SpillReader> = Vec::with_capacity(nruns);
        for r in &runs {
            readers.push(r.open_reader()?);
        }
        let mut resv = MemoryReservation::empty(&engine.tracker);
        let mut frames: Vec<Option<DataFrame>> = Vec::with_capacity(nruns);
        let mut rows: Vec<usize> = vec![0; nruns];
        let mut remaining = limit;
        for reader in &mut readers {
            let f = next_nonempty(reader)?;
            if let Some(f) = &f {
                resv.grow(f.heap_size())?;
                stats.record_restore(f.heap_size());
            }
            frames.push(f);
        }
        while remaining > 0 {
            self.cancel.check()?;
            // Cross-frame comparators for the resident chunks. Rebuilt
            // each round (a round ends when some chunk exhausts) — cheap
            // relative to the per-row merge work.
            let mut keys: Vec<Option<FrameSortKeys>> = Vec::with_capacity(nruns);
            for f in &frames {
                keys.push(match f {
                    Some(fr) => Some(FrameSortKeys::resolve(fr, options)?),
                    None => None,
                });
            }
            if keys.iter().all(Option::is_none) {
                break;
            }
            // Pop global-minimum rows until some run's chunk exhausts.
            let mut pops: Vec<(usize, usize)> = Vec::new();
            let exhausted = loop {
                let mut best: Option<usize> = None;
                for r in 0..nruns {
                    let Some(k) = &keys[r] else { continue };
                    best = Some(match best {
                        None => r,
                        Some(b)
                            if cmp_rows_across(
                                k,
                                rows[r],
                                keys[b].as_ref().expect("active"),
                                rows[b],
                            ) == Ordering::Less =>
                        {
                            r
                        }
                        Some(b) => b,
                    });
                }
                let b = best.expect("some run active");
                pops.push((b, rows[b]));
                rows[b] += 1;
                if rows[b] == frames[b].as_ref().expect("active").num_rows() {
                    break b;
                }
            };
            drop(keys);
            // Materialize the round: gather each run's popped rows, then
            // one permutation take interleaves them in pop order.
            let mut per_run: Vec<Vec<usize>> = vec![Vec::new(); nruns];
            for &(r, i) in &pops {
                per_run[r].push(i);
            }
            let mut offsets = vec![0usize; nruns];
            let mut off = 0usize;
            let mut subs: Vec<DataFrame> = Vec::new();
            for r in 0..nruns {
                if per_run[r].is_empty() {
                    continue;
                }
                offsets[r] = off;
                off += per_run[r].len();
                subs.push(frames[r].as_ref().expect("active run").take(&per_run[r])?);
            }
            let combined = assemble(subs)?;
            let mut cursor = offsets;
            let mut perm = Vec::with_capacity(pops.len());
            for &(r, _) in &pops {
                perm.push(cursor[r]);
                cursor[r] += 1;
            }
            let ordered = combined.take(&perm)?;
            // Emit the round in chunk-sized partitions.
            let total = ordered.num_rows().min(remaining);
            remaining -= total;
            let mut start = 0usize;
            while start < total {
                let len = engine.chunk_rows.min(total - start);
                let part = ordered.slice(start, len);
                let _t = engine.tracker.charge(part.heap_size())?;
                self.emit(engine, id, &part)?;
                start += len;
            }
            // Advance the exhausted run to its next resident chunk.
            let done = frames[exhausted].take().expect("was active");
            resv.shrink(done.heap_size());
            drop(done);
            if let Some(next) = next_nonempty(&mut readers[exhausted])? {
                resv.grow(next.heap_size())?;
                stats.record_restore(next.heap_size());
                rows[exhausted] = 0;
                frames[exhausted] = Some(next);
            }
        }
        Ok(())
    }

    /// Node is done emitting: notify consumers.
    fn finish_node(&mut self, engine: &mut DaskEngine, id: DaskNodeId) -> Result<()> {
        let p = self.pos[id].expect("node included");
        let consumers = self.consumers[p].clone();
        for (consumer, slot) in consumers {
            self.input_finished(engine, consumer, slot)?;
        }
        Ok(())
    }

    fn finish(
        mut self,
        engine: &mut DaskEngine,
        roots: &[DaskNodeId],
    ) -> Result<Vec<(DaskValue, MemoryReservation)>> {
        let mut out = Vec::with_capacity(roots.len());
        for &root in roots {
            let p = self.pos[root].expect("root included");
            if let Some(scalar) = self.scalar_results.remove(&root) {
                out.push((
                    DaskValue::Scalar(scalar),
                    MemoryReservation::empty(&engine.tracker),
                ));
            } else if let Some(mut buffer) = self.gather_buffers.remove(&p) {
                let frame = buffer.concat_all()?;
                out.push((DaskValue::Frame(frame), buffer.reservation));
            } else {
                return Err(ColumnarError::InvalidArgument(format!(
                    "root {root} produced no value"
                )));
            }
        }
        Ok(out)
    }
}

/// Stack owned partitions with one n-way concat; a lone partition moves
/// through without a copy.
fn assemble(mut parts: Vec<DataFrame>) -> Result<DataFrame> {
    match parts.len() {
        1 => Ok(parts.pop().expect("one part")),
        _ => DataFrame::concat_many(&parts),
    }
}

/// Concatenate and sort the accumulated partitions of one external-sort
/// run, keeping its first `limit` rows, and write them to a fresh spill
/// file in frames no larger
/// than the engine chunk size or `frame_cap` bytes (whichever is
/// smaller — the cap bounds the k-way merge's resident footprint).
fn write_sorted_run(
    engine: &DaskEngine,
    acc: &mut Vec<DataFrame>,
    options: &SortOptions,
    frame_cap: usize,
    limit: usize,
) -> Result<SpillFile> {
    let frame = assemble(std::mem::take(acc))?;
    let sorted = top_k_par(&frame, options, limit, &engine.pool)?;
    drop(frame);
    let rows = sorted.num_rows();
    let row_bytes = (sorted.heap_size() / rows.max(1)).max(1);
    let frame_rows = engine.chunk_rows.min((frame_cap / row_bytes).max(1));
    // write_with_retry owns the transient-failure ladder: retry, fall
    // back to a secondary spill root on ENOSPC, or degrade to a clean
    // OutOfMemory ("spill unavailable") error with no partial file left.
    let file = engine.spill_dir.write_with_retry(|w| {
        let mut start = 0usize;
        while start < rows {
            let len = frame_rows.min(rows - start);
            w.write_frame(&sorted.slice(start, len))?;
            start += len;
        }
        Ok(())
    })?;
    let stats = lafp_meta::spill::global();
    stats.record_file();
    stats.record_spill(sorted.heap_size());
    Ok(file)
}

/// Next frame with at least one row (zero-row frames carry no merge
/// work and would break the "exhausted when `rows == num_rows`" rule).
fn next_nonempty(reader: &mut SpillReader) -> Result<Option<DataFrame>> {
    while let Some(f) = reader.next_frame()? {
        if f.num_rows() > 0 {
            return Ok(Some(f));
        }
    }
    Ok(None)
}

/// Column requirement propagated by the projection-pushdown pass.
#[derive(Debug, Clone)]
enum ColumnRequirement {
    All,
    Some(std::collections::BTreeSet<String>),
}

impl ColumnRequirement {
    fn union(&self, other: &ColumnRequirement) -> ColumnRequirement {
        match (self, other) {
            (ColumnRequirement::Some(a), ColumnRequirement::Some(b)) => {
                ColumnRequirement::Some(a.union(b).cloned().collect())
            }
            _ => ColumnRequirement::All,
        }
    }

    fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> ColumnRequirement {
        ColumnRequirement::Some(iter.into_iter().collect())
    }
}

/// What each input must provide, given what this op must produce.
fn input_requirements(
    op: &DaskOp,
    out: &ColumnRequirement,
    n_inputs: usize,
) -> Vec<ColumnRequirement> {
    let add_used = |base: &ColumnRequirement, extra: Vec<String>| match base {
        ColumnRequirement::All => ColumnRequirement::All,
        ColumnRequirement::Some(set) => {
            let mut s = set.clone();
            s.extend(extra);
            ColumnRequirement::Some(s)
        }
    };
    match op {
        DaskOp::Filter(e) => vec![add_used(out, e.used_columns().into_iter().collect())],
        DaskOp::WithColumn(name, e) => {
            let mut req = match out {
                ColumnRequirement::All => ColumnRequirement::All,
                ColumnRequirement::Some(set) => {
                    let mut s = set.clone();
                    s.remove(name);
                    ColumnRequirement::Some(s)
                }
            };
            req = add_used(&req, e.used_columns().into_iter().collect());
            vec![req]
        }
        DaskOp::Select(cols) => vec![ColumnRequirement::from_iter(cols.iter().cloned())],
        DaskOp::GroupByAgg(spec) => {
            let mut cols: Vec<String> = spec.keys.clone();
            cols.push(spec.value.clone());
            vec![ColumnRequirement::from_iter(cols)]
        }
        DaskOp::Reduce { column, .. } => {
            vec![ColumnRequirement::from_iter([column.clone()])]
        }
        DaskOp::Len => vec![out.clone()],
        DaskOp::Rename(mapping) => match out {
            ColumnRequirement::All => vec![ColumnRequirement::All],
            ColumnRequirement::Some(set) => {
                let mut s = std::collections::BTreeSet::new();
                for c in set {
                    match mapping.iter().find(|(_, new)| new == c) {
                        Some((old, _)) => s.insert(old.clone()),
                        None => s.insert(c.clone()),
                    };
                }
                vec![ColumnRequirement::Some(s)]
            }
        },
        DaskOp::Sort(opts) | DaskOp::TopK { by: opts, .. } => {
            vec![add_used(out, opts.by.clone())]
        }
        DaskOp::DropDuplicates(subset) => vec![add_used(out, subset.clone())],
        DaskOp::Merge { on, .. } => {
            let both = add_used(out, on.clone());
            vec![both.clone(), both]
        }
        // FillNa fills whatever flows through it and Head passes rows
        // through — neither widens what the input must provide.
        DaskOp::FillNa(_) | DaskOp::Head(_) => vec![out.clone()],
        // Drop errors on missing names (pandas default), so the dropped
        // columns must still be *read* even though they are discarded.
        DaskOp::DropColumns(cols) => vec![add_used(out, cols.clone())],
        _ => vec![ColumnRequirement::All; n_inputs],
    }
}

/// Streaming single-column reduction state.
struct ReduceState {
    agg: AggKind,
    acc: GroupByAccumulator,
}

impl ReduceState {
    fn new(agg: AggKind) -> ReduceState {
        ReduceState {
            agg,
            acc: GroupByAccumulator::new(GroupBySpec {
                keys: vec!["__all".into()],
                value: "__v".into(),
                agg,
            }),
        }
    }

    fn update(&mut self, part: &DataFrame, column: &str) -> Result<()> {
        self.update_col(part.column(column)?.column())
    }

    /// Feed a bare value column (fused chains resolve the column out of
    /// the morsel, so no two-column scratch frame is assembled).
    fn update_col(&mut self, col: &Column) -> Result<()> {
        let all = Column::from_i64(vec![0; col.len()]);
        self.acc.update_cols(&[&all], col, None)
    }

    fn finish(self) -> Scalar {
        let agg = self.agg;
        match self.acc.finish() {
            Ok(frame) if frame.num_rows() == 1 => frame
                .column("__v")
                .map(|s| s.get(0))
                .unwrap_or(Scalar::Null),
            _ => match agg {
                AggKind::Count | AggKind::NUnique => Scalar::Int(0),
                _ => Scalar::Null,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lafp_columnar::column::Column;
    use lafp_columnar::csv::write_csv;
    use lafp_columnar::df;
    use std::path::Path;

    fn temp_csv(rows: usize) -> PathBuf {
        let df = df![
            (
                "fare",
                Column::from_f64((0..rows).map(|i| i as f64 - 3.0).collect())
            ),
            (
                "day",
                Column::from_i64((0..rows).map(|i| (i % 7) as i64).collect())
            ),
            (
                "extra",
                Column::from_strings((0..rows).map(|i| format!("blob-{i}")).collect::<Vec<_>>())
            ),
        ];
        let dir = std::env::temp_dir().join("lafp-dask-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "d{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        write_csv(&df, &path).unwrap();
        path
    }

    fn scan(engine: &mut DaskEngine, path: &Path) -> DaskNodeId {
        engine.add(
            DaskOp::ReadCsv {
                path: path.to_path_buf(),
                options: CsvOptions::new(),
                limit: None,
            },
            vec![],
        )
    }

    /// Zero-part streams must still report their schema (found by the
    /// differential fuzzer): a header-only CSV scan, a `head(0)`, and a
    /// drop-duplicates over an empty stream each materialize as a
    /// 0-row frame with the right columns — never a 0-column frame.
    #[test]
    fn empty_streams_preserve_schema() {
        // Header-only file: the chunk reader yields no chunks.
        let dir = std::env::temp_dir().join("lafp-dask-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "empty{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::write(&path, "fare,day\n").unwrap();
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        let s = scan(&mut e, &path);
        let (f, _r) = e.gather(s).unwrap();
        assert_eq!(f.column_names(), vec!["fare", "day"]);
        assert_eq!(f.num_rows(), 0);

        // head(0) over a non-empty scan: the head node emits nothing
        // row-wise but must still forward the schema.
        let data = temp_csv(50);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        let s = scan(&mut e, &data);
        let h = e.add(DaskOp::Head(0), vec![s]);
        let (f, _r) = e.gather(h).unwrap();
        assert_eq!(f.column_names(), vec!["fare", "day", "extra"]);
        assert_eq!(f.num_rows(), 0);

        // Operators downstream of an empty stream see the empty part.
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        let s = scan(&mut e, &data);
        let h = e.add(DaskOp::Head(0), vec![s]);
        let d = e.add(DaskOp::DropDuplicates(vec![]), vec![h]);
        let g = e.add(
            DaskOp::Sort(SortOptions::single("fare", true)),
            vec![d],
        );
        let (f, _r) = e.gather(g).unwrap();
        assert_eq!(f.column_names(), vec!["fare", "day", "extra"]);
        assert_eq!(f.num_rows(), 0);
    }

    #[test]
    fn scan_filter_groupby_streams() {
        let path = temp_csv(100);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        let s = scan(&mut e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let g = e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Count,
            }),
            vec![f],
        );
        let (v, _r) = e.compute(g).unwrap();
        let frame = v.into_frame().unwrap();
        assert_eq!(frame.num_rows(), 7);
        let total: i64 = (0..7)
            .map(|i| frame.column("fare").unwrap().get(i).as_i64().unwrap())
            .sum();
        assert_eq!(total, 96); // 4 non-positive fares filtered out
    }

    #[test]
    fn streaming_uses_less_memory_than_gather() {
        let path = temp_csv(2000);
        let mut whole = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut whole, &path);
        let (frame, _r) = whole.gather(s).unwrap();
        let full_size = frame.heap_size();

        // Budget too small to hold the whole frame but fine per-partition.
        let tracker = MemoryTracker::with_budget(full_size / 3);
        let mut e = DaskEngine::new(Arc::clone(&tracker), 64);
        let s = scan(&mut e, &path);
        let g = e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Sum,
            },
            vec![s],
        );
        let (v, _r) = e.compute(g).unwrap();
        let sum = v.into_scalar().unwrap();
        assert_eq!(sum, Scalar::Float((0..2000).map(|i| i as f64 - 3.0).sum()));
        // And gathering under the same budget fails:
        let mut e2 = DaskEngine::new(tracker, 64);
        let s2 = scan(&mut e2, &path);
        assert!(matches!(
            e2.gather(s2),
            Err(ColumnarError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn head_limits_scan() {
        let path = temp_csv(1000);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 10);
        let s = scan(&mut e, &path);
        let h = e.add(DaskOp::Head(5), vec![s]);
        let (v, _r) = e.compute(h).unwrap();
        let frame = v.into_frame().unwrap();
        assert_eq!(frame.num_rows(), 5);
        // The per-batch limit must NOT leak into later computes over the
        // same scan: a full-count batch still sees every row.
        let l = e.add(DaskOp::Len, vec![s]);
        let (v, _r) = e.compute(l).unwrap();
        assert_eq!(v.into_scalar().unwrap(), Scalar::Int(1000));
    }

    #[test]
    fn persist_caches_and_unpersist_releases() {
        let path = temp_csv(100);
        let tracker = MemoryTracker::unlimited();
        let mut e = DaskEngine::new(Arc::clone(&tracker), 16);
        let s = scan(&mut e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        e.persist(f);
        let g1 = e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Count,
            },
            vec![f],
        );
        let (v1, _r1) = e.compute(g1).unwrap();
        assert!(e.is_cached(f));
        assert!(tracker.current() > 0, "persisted partitions are charged");
        // Second compute reuses the cache (file could even disappear).
        std::fs::remove_file(&path).unwrap();
        let g2 = e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Sum,
            },
            vec![f],
        );
        let (v2, _r2) = e.compute(g2).unwrap();
        assert_eq!(v1.into_scalar().unwrap(), Scalar::Int(96));
        assert!(matches!(v2.into_scalar().unwrap(), Scalar::Float(_)));
        e.unpersist(f);
        assert_eq!(tracker.current(), 0);
    }

    #[test]
    fn merge_streams_probe_side() {
        let path = temp_csv(50);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 8);
        let s = scan(&mut e, &path);
        let lookup = df![
            ("day", Column::from_i64((0..7).collect())),
            ("weekend", Column::from_bool((0..7).map(|d| d >= 5).collect())),
        ];
        let r = e.add(DaskOp::FromFrame(Arc::new(lookup)), vec![]);
        let m = e.add(
            DaskOp::Merge {
                on: vec!["day".into()],
                how: JoinKind::Inner,
            },
            vec![s, r],
        );
        let (v, _r) = e.compute(m).unwrap();
        let frame = v.into_frame().unwrap();
        assert_eq!(frame.num_rows(), 50);
        assert!(frame.has_column("weekend"));
    }

    #[test]
    fn sort_is_blocking_but_correct() {
        let path = temp_csv(40);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 7);
        let s = scan(&mut e, &path);
        let so = e.add(DaskOp::Sort(SortOptions::single("fare", false)), vec![s]);
        let (v, _r) = e.compute(so).unwrap();
        let frame = v.into_frame().unwrap();
        assert_eq!(frame.column("fare").unwrap().get(0), Scalar::Float(36.0));
    }

    #[test]
    fn drop_duplicates_streams_with_global_state() {
        let path = temp_csv(60);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 9);
        let s = scan(&mut e, &path);
        let d = e.add(DaskOp::DropDuplicates(vec!["day".into()]), vec![s]);
        let (v, _r) = e.compute(d).unwrap();
        assert_eq!(v.into_frame().unwrap().num_rows(), 7);
    }

    #[test]
    fn len_is_lazy_scalar() {
        let path = temp_csv(33);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 10);
        let s = scan(&mut e, &path);
        let l = e.add(DaskOp::Len, vec![s]);
        let (v, _r) = e.compute(l).unwrap();
        assert_eq!(v.into_scalar().unwrap(), Scalar::Int(33));
    }

    #[test]
    fn projection_pushdown_opt_in() {
        let path = temp_csv(30);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 10);
        e.projection_pushdown = true;
        let s = scan(&mut e, &path);
        let g = e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Mean,
            }),
            vec![s],
        );
        let (v, _r) = e.compute(g).unwrap();
        assert_eq!(v.into_frame().unwrap().num_rows(), 7);
        match e.op(s) {
            DaskOp::ReadCsv { options, .. } => {
                assert_eq!(
                    options.usecols,
                    Some(vec!["day".to_string(), "fare".to_string()])
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn concat_streams_both_inputs() {
        let path = temp_csv(10);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 4);
        let a = scan(&mut e, &path);
        let b = scan(&mut e, &path);
        let c = e.add(DaskOp::Concat, vec![a, b]);
        let l = e.add(DaskOp::Len, vec![c]);
        let (v, _r) = e.compute(l).unwrap();
        assert_eq!(v.into_scalar().unwrap(), Scalar::Int(20));
    }

    #[test]
    fn batch_computes_multiple_roots_in_one_pass() {
        let path = temp_csv(200);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        let s = scan(&mut e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let g = e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare".into(),
                agg: AggKind::Sum,
            }),
            vec![f],
        );
        let m = e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Mean,
            },
            vec![f],
        );
        let c = e.add(DaskOp::Len, vec![s]);
        let results = e.compute_batch(&[g, m, c]).unwrap();
        assert_eq!(results.len(), 3);
        let frame = results[0].0.clone().into_frame().unwrap();
        assert_eq!(frame.num_rows(), 7);
        assert!(matches!(results[1].0, DaskValue::Scalar(Scalar::Float(_))));
        assert_eq!(results[2].0.clone().into_scalar().unwrap(), Scalar::Int(200));
        // Shared scan executed once: delete the file and batch again fails,
        // proving data really came from the file (sanity), while the single
        // pass above satisfied all three roots.
        std::fs::remove_file(&path).unwrap();
        let l2 = e.add(DaskOp::Len, vec![s]);
        assert!(e.compute(l2).is_err());
    }

    #[test]
    fn batch_root_that_is_also_intermediate() {
        // A root that other roots consume must both buffer its output and
        // keep feeding downstream consumers.
        let path = temp_csv(20);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 6);
        let s = scan(&mut e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let l = e.add(DaskOp::Len, vec![f]);
        let results = e.compute_batch(&[f, l]).unwrap();
        let frame = results[0].0.clone().into_frame().unwrap();
        assert_eq!(frame.num_rows(), 16);
        assert_eq!(results[1].0.clone().into_scalar().unwrap(), Scalar::Int(16));
    }

    /// How hard the spill tests squeeze the budget: dataset size divided
    /// by this. Defaults to 3; CI runs the suite a second time with
    /// `LAFP_BUDGET_DIVISOR=6` so the out-of-core paths see a much
    /// tighter budget than the default run.
    fn budget_divisor() -> usize {
        std::env::var("LAFP_BUDGET_DIVISOR")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&d| d >= 2)
            .unwrap_or(3)
    }

    #[test]
    fn over_budget_sort_completes_via_spill_with_identical_result() {
        let path = temp_csv(3000);
        // Unbudgeted reference: full sort, then a bounded head so the
        // final gather stays small in the budgeted rerun.
        let mut reference = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut reference, &path);
        let (full, _r) = reference.gather(s).unwrap();
        let full_size = full.heap_size();
        let so = reference.add(DaskOp::Sort(SortOptions::single("fare", false)), vec![s]);
        let h = reference.add(DaskOp::Head(128), vec![so]);
        let (v, _r) = reference.compute(h).unwrap();
        let expect = v.into_frame().unwrap().row_hashes(&[]).unwrap();
        assert_eq!(expect.len(), 128);

        // Budget a fraction of the dataset (a third by default, tighter
        // under LAFP_BUDGET_DIVISOR): the sort buffer cannot hold the
        // input, so the query must spill — and still match.
        let before = lafp_meta::spill::global().snapshot();
        let tracker = MemoryTracker::with_budget(full_size / budget_divisor());
        let mut e = DaskEngine::new(Arc::clone(&tracker), 64);
        let s = scan(&mut e, &path);
        let so = e.add(DaskOp::Sort(SortOptions::single("fare", false)), vec![s]);
        let h = e.add(DaskOp::Head(128), vec![so]);
        let (v, result_reservation) = e.compute(h).unwrap();
        let got = v.into_frame().unwrap().row_hashes(&[]).unwrap();
        assert_eq!(got, expect, "spilled sort must match in-memory result");
        let after = lafp_meta::spill::global().snapshot();
        assert!(
            after.events > before.events,
            "an over-budget sort must actually spill"
        );
        assert!(after.restored_bytes > before.restored_bytes);
        // Only the returned result's own reservation may remain charged.
        drop(result_reservation);
        assert_eq!(tracker.current(), 0, "all reservations released");
    }

    /// Top-k streams with its O(n) candidates as its only state: under
    /// the budget that forces the full sort to spill it matches
    /// sort → head, peaks at a few partitions, and releases everything.
    #[test]
    fn top_k_streams_within_budget_and_matches_sort_head() {
        let path = temp_csv(3000);
        let options = SortOptions {
            by: vec!["day".into(), "fare".into()],
            ascending: vec![true, false],
        };
        let mut reference = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut reference, &path);
        let (full, _r) = reference.gather(s).unwrap();
        let full_size = full.heap_size();
        let so = reference.add(DaskOp::Sort(options.clone()), vec![s]);
        let h = reference.add(DaskOp::Head(32), vec![so]);
        let (expect, _r) = reference.gather(h).unwrap();

        let tracker = MemoryTracker::with_budget(full_size / budget_divisor());
        let mut e = DaskEngine::new(Arc::clone(&tracker), 64);
        let s = scan(&mut e, &path);
        let t = e.add(DaskOp::TopK { by: options, n: 32 }, vec![s]);
        let (got, result_reservation) = e.gather(t).unwrap();
        assert_eq!(got, expect);
        assert!(
            tracker.peak() < full_size / 10,
            "top-k holds O(k): peak {} of {full_size}",
            tracker.peak()
        );
        drop(result_reservation);
        assert_eq!(tracker.current(), 0, "all reservations released");

        // n = 0 and an empty stream both keep the schema.
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut e, &path);
        let t = e.add(
            DaskOp::TopK {
                by: SortOptions::single("fare", true),
                n: 0,
            },
            vec![s],
        );
        let h = e.add(DaskOp::Head(0), vec![s]);
        let t2 = e.add(
            DaskOp::TopK {
                by: SortOptions::single("fare", true),
                n: 5,
            },
            vec![h],
        );
        for node in [t, t2] {
            let (f, _r) = e.gather(node).unwrap();
            assert_eq!(f.column_names(), vec!["fare", "day", "extra"]);
            assert_eq!(f.num_rows(), 0);
        }
    }

    /// Wherever sort → head finishes under a budget, top-k finishes too
    /// with the same rows: small n is cut in memory, while n near or past
    /// the budget spills its candidates and the external sort stops
    /// after n rows.
    #[test]
    fn top_k_finishes_wherever_sort_head_does() {
        let path = temp_csv(3000);
        let options = SortOptions {
            by: vec!["day".into(), "fare".into()],
            ascending: vec![true, false],
        };
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut e, &path);
        let full_size = e.gather(s).unwrap().0.heap_size();
        let mut checked = 0;
        for n in [1, 100, 500, 1000, 1500, 2999, 3000, 5000] {
            for divisor in [2, 3, 4, 6] {
                let budget = full_size / divisor;
                let mut reference = DaskEngine::new(MemoryTracker::with_budget(budget), 64);
                let s = scan(&mut reference, &path);
                let so = reference.add(DaskOp::Sort(options.clone()), vec![s]);
                let h = reference.add(DaskOp::Head(n), vec![so]);
                let Ok((expect, _r)) = reference.gather(h) else {
                    continue;
                };
                let tracker = MemoryTracker::with_budget(budget);
                let mut e = DaskEngine::new(Arc::clone(&tracker), 64);
                let s = scan(&mut e, &path);
                let t = e.add(DaskOp::TopK { by: options.clone(), n }, vec![s]);
                let (got, result_reservation) = e
                    .gather(t)
                    .unwrap_or_else(|err| panic!("n {n}, budget 1/{divisor}: {err}"));
                assert_eq!(got, expect, "n {n}, budget 1/{divisor}");
                drop(result_reservation);
                assert_eq!(tracker.current(), 0, "all reservations released");
                checked += 1;
            }
        }
        assert!(checked >= 8, "only {checked} budgeted sort → head runs finished");
    }

    #[test]
    fn failed_drain_releases_all_reservations() {
        let path = temp_csv(2000);
        let mut whole = DaskEngine::new(MemoryTracker::unlimited(), 64);
        let s = scan(&mut whole, &path);
        let (frame, _r) = whole.gather(s).unwrap();
        let full_size = frame.heap_size();

        // Buffering succeeds by spilling, but the final gather charges
        // the assembled result alongside the re-admitted partitions and
        // fails mid-drain. Every reservation taken along the way — scan
        // charges, buffer charges, partial restores, the partial result
        // — must be returned when the error propagates.
        let tracker = MemoryTracker::with_budget(full_size / budget_divisor());
        assert_eq!(tracker.current(), 0);
        let mut e = DaskEngine::new(Arc::clone(&tracker), 64);
        let s = scan(&mut e, &path);
        let result = e.gather(s);
        assert!(matches!(result, Err(ColumnarError::OutOfMemory { .. })));
        drop(result);
        drop(e);
        assert_eq!(
            tracker.current(),
            0,
            "failed drain must release every reservation"
        );
    }

    #[test]
    fn pipelined_scan_matches_blocking_scan() {
        let path = temp_csv(1500);
        let run = |pipelined: bool| {
            let mut e = DaskEngine::with_threads(MemoryTracker::unlimited(), 37, 4);
            e.pipeline_scan = pipelined;
            assert!(e.pool.is_parallel());
            let s = scan(&mut e, &path);
            let f = e.add(
                DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(10.0))),
                vec![s],
            );
            let g = e.add(
                DaskOp::GroupByAgg(GroupBySpec {
                    keys: vec!["day".into()],
                    value: "fare".into(),
                    agg: AggKind::Sum,
                }),
                vec![f],
            );
            let (v, _r) = e.compute(g).unwrap();
            v.into_frame().unwrap()
        };
        let piped = run(true);
        let blocking = run(false);
        assert_eq!(
            piped.row_hashes(&[]).unwrap(),
            blocking.row_hashes(&[]).unwrap()
        );
    }

    #[test]
    fn pipelined_scan_respects_head_limit() {
        // The consumer stops at the limit and hangs up the channel; the
        // parse thread must unblock and the scan must not over-emit.
        let path = temp_csv(5000);
        let mut e = DaskEngine::with_threads(MemoryTracker::unlimited(), 32, 4);
        let s = scan(&mut e, &path);
        let h = e.add(DaskOp::Head(10), vec![s]);
        let (v, _r) = e.compute(h).unwrap();
        assert_eq!(v.into_frame().unwrap().num_rows(), 10);
    }

    #[test]
    fn merge_build_side_scheduled_first() {
        // Both sides are scans; the build side (input 1) must be driven
        // before the probe side so probes stream instead of buffering.
        let left_path = temp_csv(50);
        let right = df![
            ("day", Column::from_i64((0..7).collect())),
            ("tag", Column::from_strings((0..7).map(|d| format!("d{d}")).collect::<Vec<_>>())),
        ];
        let dir = std::env::temp_dir().join("lafp-dask-tests");
        let right_path = dir.join(format!(
            "r{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        write_csv(&right, &right_path).unwrap();
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 8);
        let l = scan(&mut e, &left_path);
        let r = scan(&mut e, &right_path);
        let m = e.add(
            DaskOp::Merge {
                on: vec!["day".into()],
                how: JoinKind::Left,
            },
            vec![l, r],
        );
        let (v, _r) = e.compute(m).unwrap();
        let frame = v.into_frame().unwrap();
        assert_eq!(frame.num_rows(), 50);
        assert!(frame.has_column("tag"));
    }

    // ------------------------------------------------------------------
    // Chain fusion
    // ------------------------------------------------------------------

    use lafp_columnar::column::ArithOp;

    /// `scan → filter → with_column → select → groupby` — the canonical
    /// fully-fusable chain from the PR's acceptance criteria.
    fn fused_query(e: &mut DaskEngine, path: &Path) -> DaskNodeId {
        let s = scan(e, path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        let w = e.add(
            DaskOp::WithColumn(
                "fare2".into(),
                Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(2.0)),
            ),
            vec![f],
        );
        let sel = e.add(
            DaskOp::Select(vec!["day".into(), "fare2".into()]),
            vec![w],
        );
        e.add(
            DaskOp::GroupByAgg(GroupBySpec {
                keys: vec!["day".into()],
                value: "fare2".into(),
                agg: AggKind::Sum,
            }),
            vec![sel],
        )
    }

    /// An engine under the process configuration with fusion set to `fuse`.
    fn fusing(chunk_rows: usize, threads: usize, fuse: bool) -> DaskEngine {
        let config = ExecConfig { fuse, ..ExecConfig::from_env() }.with_threads(threads);
        DaskEngine::with_config(MemoryTracker::unlimited(), chunk_rows, config)
    }

    #[test]
    fn fused_chain_zero_intermediate_frames() {
        let path = temp_csv(300);
        let mut fused = fusing(16, 0, true);
        let g = fused_query(&mut fused, &path);
        let (v, _r) = fused.compute(g).unwrap();
        let got = v.into_frame().unwrap();
        let stats = fused.fusion_stats();
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.fused_ops, 4, "filter + with_column + select + groupby");
        assert!(stats.fused_morsels > 0);
        assert_eq!(
            stats.intermediate_frames, 0,
            "no frame may be materialized between fused ops"
        );

        let mut unfused = fusing(16, 0, false);
        let g = fused_query(&mut unfused, &path);
        let (v, _r) = unfused.compute(g).unwrap();
        let expect = v.into_frame().unwrap();
        let stats = unfused.fusion_stats();
        assert_eq!(stats.chains, 0);
        assert!(stats.intermediate_frames > 0);
        assert_eq!(
            got.row_hashes(&[]).unwrap(),
            expect.row_hashes(&[]).unwrap()
        );
    }

    #[test]
    fn adjacent_filters_collapse_into_one_selection() {
        let path = temp_csv(200);
        let run = |fuse: bool| {
            let mut e = fusing(16, 0, fuse);
            let s = scan(&mut e, &path);
            let f1 = e.add(
                DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
                vec![s],
            );
            let f2 = e.add(
                DaskOp::Filter(Expr::col("day").lt(Expr::lit_int(5))),
                vec![f1],
            );
            let l = e.add(DaskOp::Len, vec![f2]);
            let (v, _r) = e.compute(l).unwrap();
            (v.into_scalar().unwrap(), e.fusion_stats())
        };
        let (fused, fs) = run(true);
        let (plain, _) = run(false);
        assert_eq!(fused, plain);
        assert_eq!(fs.chains, 1);
        assert_eq!(fs.fused_ops, 3, "two filters + the len terminal");
        assert_eq!(
            fs.intermediate_frames, 0,
            "both selections AND into one bitmap; no row is ever gathered"
        );
    }

    #[test]
    fn fused_schema_steps_match_unfused() {
        // rename + drop + with_column exercise the schema-bookkeeping
        // steps; the chain ends at a frame root, so its output is
        // materialized exactly once per morsel.
        let path = temp_csv(150);
        let run = |fuse: bool| {
            let mut e = fusing(16, 0, fuse);
            let s = scan(&mut e, &path);
            let f = e.add(
                DaskOp::Filter(Expr::col("fare").ge(Expr::lit_float(-1.0))),
                vec![s],
            );
            let r = e.add(
                DaskOp::Rename(vec![("fare".into(), "amount".into())]),
                vec![f],
            );
            let d = e.add(DaskOp::DropColumns(vec!["extra".into()]), vec![r]);
            let w = e.add(
                DaskOp::WithColumn(
                    "half".into(),
                    Expr::col("amount").arith(ArithOp::Div, Expr::lit_float(2.0)),
                ),
                vec![d],
            );
            let (v, _r) = e.compute(w).unwrap();
            v.into_frame().unwrap()
        };
        let fused = run(true);
        let plain = run(false);
        assert_eq!(fused.column_names(), plain.column_names());
        assert_eq!(
            fused.row_hashes(&[]).unwrap(),
            plain.row_hashes(&[]).unwrap()
        );
    }

    #[test]
    fn three_stage_scan_matches_blocking_unfused() {
        // parse | chain-transform | land, versus a blocking unfused run.
        let path = temp_csv(4000);
        let run = |threads: usize, pipe: bool, fuse: bool| {
            let mut e = fusing(37, threads, fuse);
            e.pipeline_scan = pipe;
            let g = fused_query(&mut e, &path);
            let (v, _r) = e.compute(g).unwrap();
            v.into_frame().unwrap().row_hashes(&[]).unwrap()
        };
        let three_stage = run(4, true, true);
        let blocking_fused = run(1, false, true);
        let blocking_plain = run(1, false, false);
        assert_eq!(three_stage, blocking_plain);
        assert_eq!(blocking_fused, blocking_plain);
    }

    #[test]
    fn fused_chain_respects_persist_tee() {
        // A persisted mid-chain node must keep emitting real partitions
        // for its cache, so the chain may not swallow it.
        let path = temp_csv(90);
        let mut e = fusing(16, 0, true);
        let s = scan(&mut e, &path);
        let f = e.add(
            DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(0.0))),
            vec![s],
        );
        e.persist(f);
        let w = e.add(
            DaskOp::WithColumn(
                "fare2".into(),
                Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(2.0)),
            ),
            vec![f],
        );
        let l = e.add(DaskOp::Len, vec![w]);
        let (v, _r) = e.compute(l).unwrap();
        assert_eq!(v.into_scalar().unwrap(), Scalar::Int(86));
        assert!(e.is_cached(f), "persist tee still fills behind fusion");
        // Replays from the cache flow through the remaining chain.
        let l2 = e.add(DaskOp::Len, vec![w]);
        let (v2, _r2) = e.compute(l2).unwrap();
        assert_eq!(v2.into_scalar().unwrap(), Scalar::Int(86));
    }

    #[test]
    fn projection_pushdown_through_fillna_and_drop() {
        let path = temp_csv(60);
        let mut e = DaskEngine::new(MemoryTracker::unlimited(), 16);
        e.projection_pushdown = true;
        let s = scan(&mut e, &path);
        let fill = e.add(DaskOp::FillNa(Scalar::Float(0.0)), vec![s]);
        let d = e.add(DaskOp::DropColumns(vec!["extra".into()]), vec![fill]);
        let g = e.add(
            DaskOp::Reduce {
                column: "fare".into(),
                agg: AggKind::Sum,
            },
            vec![d],
        );
        let (v, _r) = e.compute(g).unwrap();
        assert!(matches!(v.into_scalar().unwrap(), Scalar::Float(_)));
        // FillNa propagates its downstream requirement; DropColumns adds
        // only the dropped names (they must exist to be dropped). The
        // scan must NOT fall back to reading every column.
        match e.op(s) {
            DaskOp::ReadCsv { options, .. } => {
                assert_eq!(
                    options.usecols,
                    Some(vec!["extra".to_string(), "fare".to_string()])
                );
            }
            _ => unreachable!(),
        }
    }
}
