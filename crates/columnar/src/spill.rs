//! Spill-to-disk serialization of frames — the out-of-core substrate.
//!
//! Blocking operators in the streaming (Dask-like) backend buffer whole
//! partition sets: a sort buffers every input partition, a merge buffers
//! its build side, gather buffers the final result. Under a finite
//! simulated memory budget (charged via [`HeapSize`](crate::HeapSize))
//! those buffers are what
//! overflow first, so the backend evicts buffered partitions to disk in
//! this module's format and re-admits them (re-charging the budget) on
//! drain. That turns "dataset larger than the budget" from a hard
//! `OutOfMemory` into a first-class streaming scenario, exactly the
//! situation the paper's Dask backend exists for.
//!
//! ## File layout
//!
//! A spill file is a little-endian binary stream: an 8-byte magic
//! (`LAFPSPL1`), then zero or more frames. Each frame is
//!
//! ```text
//! u64 ncols · u64 nrows
//! per column:
//!   u32 name_len · name bytes (UTF-8)
//!   u8  dtype tag (0 Int64 · 1 Float64 · 2 Bool · 3 Utf8 · 4 Datetime
//!                  · 5 category Dict · 6 transparent Dict · 7 Rle)
//!   u8  has_validity; if 1: nrows.div_ceil(64) × u64 bitmap words
//!   payload:
//!     Int64/Datetime  nrows × i64
//!     Float64         nrows × u64   (f64::to_bits — NaN payloads survive bit-identically)
//!     Bool            nrows.div_ceil(64) × u64 bitmap words
//!     Utf8            u64 total_bytes · nrows × u32 row lengths · arena bytes
//!     Dict (5 and 6)  nrows × u32 codes · dict as a Utf8 payload (u64 rows first)
//!     Rle             u64 nruns · run values as a column (nruns rows) · nruns × u32 ends
//! ```
//!
//! Utf8 payloads write the column's *used* arena range once
//! ([`Utf8Col::used_bytes`]) plus per-row lengths; restoring validates
//! the buffer as UTF-8 and re-slices on `str` boundaries before pushing
//! through [`Utf8Builder`], so the arena invariant (whole-`&str`
//! concatenation) is re-established by construction, never assumed of
//! the file. Restored frames are value-identical to what was written —
//! bit-identical for every numeric payload including float NaNs.
//!
//! Files are transient: [`SpillFile`] deletes its file on drop, and
//! [`SpillDir`] removes its directories when the owning engine goes away.
//!
//! ## Failure & recovery
//!
//! Spill I/O is the executor's contact surface with a fallible disk, so
//! this module owns the recovery ladder (see `ARCHITECTURE.md`, "Fault
//! model & recovery"):
//!
//! 1. **Retry with bounded backoff** — [`SpillDir::write_with_retry`]
//!    re-runs a failed write on a fresh file (the partial file is always
//!    removed first), [`SpillReader::next_frame`] seeks back to the
//!    frame start and re-reads. Transient faults (including everything
//!    the [`faults`] registry injects) recover here.
//! 2. **Fallback directory** — an ENOSPC-shaped write failure advances
//!    the dir to its next root (`LAFP_SPILL_DIRS`, colon-separated) and
//!    retries there: a full primary disk degrades to a slower spill
//!    volume, not a failed query.
//! 3. **Clean error** — when every root is exhausted the write returns a
//!    structured out-of-memory error (`requested: 0` marks
//!    "spill-to-disk unavailable"): the query fails cleanly with no
//!    temp file leaked and the engine stays usable.

// New `unwrap`/`expect` escapes in the spill path are panics where the
// recovery ladder should run instead — make them visible in review (CI
// elevates to deny).
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::bitmap::Bitmap;
use crate::column::{Categorical, Column};
use crate::error::{ColumnarError, Result};
use crate::faults::{self, FaultSite};
use crate::frame::DataFrame;
use crate::series::Series;
use crate::strings::{Utf8Builder, Utf8Col};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"LAFPSPL1";

/// Total write attempts across all roots before degrading to a clean
/// error. Injected transient faults at 5% per operation survive this
/// many redraws with probability ~1e-8 — the chaos CI seeds rely on it.
const WRITE_ATTEMPTS: usize = 6;

/// Re-reads of one frame (after seeking back) before the error is real.
const READ_ATTEMPTS: usize = 4;

/// Backoff between same-root retries, in milliseconds (indexed by
/// attempt, clamped to the last entry). Kept tiny: real transient disk
/// errors clear in microseconds and tests pay this on every injected
/// fault.
const RETRY_BACKOFF_MS: [u64; 3] = [0, 1, 2];

/// Lazily created spill directories for one engine: a primary root plus
/// optional fallbacks. Construction is free (no filesystem touch); each
/// root's directory appears the first time a file path is reserved in it
/// and every created root is removed (best effort) on drop — an engine
/// that never spills never creates anything.
///
/// Writes normally land in the *active* root (initially the primary).
/// When a write fails with an ENOSPC-shaped error,
/// [`write_with_retry`](SpillDir::write_with_retry) advances the active
/// root to the next fallback — configured via the `LAFP_SPILL_DIRS`
/// environment variable (colon-separated directories, each given a
/// process-unique subdirectory) or [`with_fallbacks`](SpillDir::with_fallbacks).
#[derive(Debug)]
pub struct SpillDir {
    roots: Vec<SpillRoot>,
    /// Index of the root new files go to.
    active: AtomicUsize,
    next_file: AtomicU64,
}

#[derive(Debug)]
struct SpillRoot {
    path: PathBuf,
    created: AtomicBool,
}

impl SpillRoot {
    fn at(path: PathBuf) -> SpillRoot {
        SpillRoot {
            path,
            created: AtomicBool::new(false),
        }
    }
}

/// Process-wide uniquifier so two engines in one process never collide.
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl SpillDir {
    /// A spill directory under the system temp dir, unique to this
    /// process and call, with fallback roots from `LAFP_SPILL_DIRS` (a
    /// colon-separated directory list; each entry gets a process-unique
    /// subdirectory).
    pub fn in_temp() -> SpillDir {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let unique = |base: &Path| base.join(format!("lafp-spill-{}-{n}", std::process::id()));
        let mut roots = vec![SpillRoot::at(unique(&std::env::temp_dir()))];
        if let Ok(spec) = std::env::var("LAFP_SPILL_DIRS") {
            for dir in spec.split(':').filter(|d| !d.trim().is_empty()) {
                roots.push(SpillRoot::at(unique(Path::new(dir.trim()))));
            }
        }
        SpillDir {
            roots,
            active: AtomicUsize::new(0),
            next_file: AtomicU64::new(0),
        }
    }

    /// A spill directory at an explicit location (created lazily), with
    /// no fallback roots.
    pub fn at(path: PathBuf) -> SpillDir {
        SpillDir {
            roots: vec![SpillRoot::at(path)],
            active: AtomicUsize::new(0),
            next_file: AtomicU64::new(0),
        }
    }

    /// Append explicit fallback roots (tried in order after the primary).
    pub fn with_fallbacks(mut self, fallbacks: impl IntoIterator<Item = PathBuf>) -> SpillDir {
        self.roots.extend(fallbacks.into_iter().map(SpillRoot::at));
        self
    }

    /// Every root's path, primary first — test hooks scan these for
    /// leaked files.
    pub fn root_paths(&self) -> Vec<PathBuf> {
        self.roots.iter().map(|r| r.path.clone()).collect()
    }

    /// Reserve a fresh file path inside the active root, creating its
    /// directory on first use.
    pub fn new_file_path(&self) -> Result<PathBuf> {
        let root = &self.roots[self.active.load(Ordering::Relaxed).min(self.roots.len() - 1)];
        if !root.created.swap(true, Ordering::Relaxed) {
            std::fs::create_dir_all(&root.path).map_err(|e| ColumnarError::Io {
                kind: e.kind(),
                message: format!("{:?}: {e}", root.path),
            })?;
        }
        let n = self.next_file.fetch_add(1, Ordering::Relaxed);
        Ok(root.path.join(format!("part-{n}.spill")))
    }

    /// Advance the active root to the next fallback. Returns `false`
    /// when there is none left (the caller degrades to a clean error).
    fn advance_root(&self) -> bool {
        let cur = self.active.load(Ordering::Relaxed);
        if cur + 1 >= self.roots.len() {
            return false;
        }
        // Racing advancers both move forward at most one root; losing
        // the race just means someone else already advanced.
        let _ = self
            .active
            .compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed);
        true
    }

    /// Run `body` against a fresh [`SpillWriter`], retrying failures
    /// with bounded backoff and advancing to a fallback root on
    /// ENOSPC-shaped errors — the write path of the recovery ladder
    /// (see the module docs). Every failed attempt removes its partial
    /// file before the next one starts; when all attempts are spent the
    /// call degrades to a clean [`ColumnarError::OutOfMemory`] with
    /// `requested: 0` ("spill-to-disk unavailable") carrying no wrong
    /// result and leaking no temp file.
    ///
    /// `body` must be re-runnable: it is called once per attempt against
    /// an empty writer.
    pub fn write_with_retry(
        &self,
        body: impl Fn(&mut SpillWriter) -> Result<()>,
    ) -> Result<SpillFile> {
        let mut fell_back = false;
        for attempt in 0..WRITE_ATTEMPTS {
            let result = self.new_file_path().and_then(|path| {
                let attempt_path = path.clone();
                let run = || -> Result<SpillFile> {
                    let mut w = SpillWriter::create(path)?;
                    body(&mut w)?;
                    w.finish()
                };
                run().inspect_err(|_| {
                    // Never leak a partial file, whatever stage died.
                    let _ = std::fs::remove_file(&attempt_path);
                })
            });
            match result {
                Ok(file) => {
                    if fell_back {
                        faults::record_dir_fallback();
                    } else if attempt > 0 {
                        faults::record_retry_recovered();
                    }
                    return Ok(file);
                }
                Err(e) => {
                    let enospc = matches!(
                        &e,
                        ColumnarError::Io { kind, .. } if *kind == std::io::ErrorKind::StorageFull
                    );
                    if enospc && self.advance_root() {
                        fell_back = true;
                        continue; // fresh root: no backoff needed
                    }
                    if attempt + 1 == WRITE_ATTEMPTS {
                        break;
                    }
                    let ms = RETRY_BACKOFF_MS[attempt.min(RETRY_BACKOFF_MS.len() - 1)];
                    if ms > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
            }
        }
        // All roots and retries exhausted: the buffer that wanted to
        // evict cannot free memory, so surface it as the budget running
        // out — `requested: 0` is the "spill-to-disk unavailable" marker.
        Err(ColumnarError::OutOfMemory {
            requested: 0,
            available: 0,
        })
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        for root in &self.roots {
            if root.created.load(Ordering::Relaxed) {
                let _ = std::fs::remove_dir_all(&root.path);
            }
        }
    }
}

/// Writes frames into one spill file. [`finish`](SpillWriter::finish)
/// flushes and hands back the owning [`SpillFile`].
pub struct SpillWriter {
    w: BufWriter<File>,
    path: PathBuf,
    frames: usize,
    payload_bytes: usize,
}

impl SpillWriter {
    /// Create (truncate) the spill file at `path` and write the magic.
    pub fn create(path: PathBuf) -> Result<SpillWriter> {
        inject_spill(FaultSite::SpillWrite, &path)?;
        let file =
            File::create(&path).map_err(|e| ColumnarError::Io { kind: e.kind(), message: format!("{path:?}: {e}") })?;
        let mut w = BufWriter::new(file);
        w.write_all(MAGIC)?;
        Ok(SpillWriter {
            w,
            path,
            frames: 0,
            payload_bytes: 0,
        })
    }

    /// Append one frame.
    pub fn write_frame(&mut self, frame: &DataFrame) -> Result<()> {
        inject_spill(FaultSite::SpillWrite, &self.path)?;
        let nrows = frame.num_rows();
        write_u64(&mut self.w, frame.num_columns() as u64)?;
        write_u64(&mut self.w, nrows as u64)?;
        for s in frame.series() {
            let name = s.name().as_bytes();
            write_u32(&mut self.w, name.len() as u32)?;
            self.w.write_all(name)?;
            write_column(&mut self.w, s.column(), nrows)?;
        }
        self.frames += 1;
        self.payload_bytes += crate::HeapSize::heap_size(frame);
        Ok(())
    }

    /// Flush and seal the file.
    pub fn finish(mut self) -> Result<SpillFile> {
        inject_spill(FaultSite::SpillWrite, &self.path)?;
        self.w.flush()?;
        Ok(SpillFile {
            path: self.path.clone(),
            frames: self.frames,
            payload_bytes: self.payload_bytes,
        })
    }

    /// Abandon the write: drop the buffered writer and remove the
    /// partial file from disk.
    pub fn discard(self) {
        let path = self.path.clone();
        drop(self);
        let _ = std::fs::remove_file(path);
    }
}

/// Fire the registry at a spill site, attaching the file path to the
/// synthetic error.
fn inject_spill(site: FaultSite, path: &Path) -> Result<()> {
    faults::inject_io(site).map_err(|e| ColumnarError::Io {
        kind: e.kind(),
        message: format!("{path:?}: {e}"),
    })
}

/// An owned, sealed spill file; deleted from disk on drop.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    frames: usize,
    payload_bytes: usize,
}

impl SpillFile {
    /// Where the file lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames written into the file.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Total simulated heap bytes of the frames written (what re-loading
    /// everything would charge against the budget).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Open the file for reading back.
    pub fn open_reader(&self) -> Result<SpillReader> {
        SpillReader::open(self.path.clone())
    }

    /// Read every frame back (in write order).
    pub fn read_all(&self) -> Result<Vec<DataFrame>> {
        let mut r = self.open_reader()?;
        let mut out = Vec::with_capacity(self.frames);
        while let Some(f) = r.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Convenience: write a single frame into a fresh file in `dir`,
/// through the full retry/fallback ladder.
pub fn spill_frame(dir: &SpillDir, frame: &DataFrame) -> Result<SpillFile> {
    dir.write_with_retry(|w| w.write_frame(frame))
}

/// Streams frames back out of a spill file in write order.
///
/// Reads are retried: a frame that fails mid-read seeks back to the
/// frame boundary and re-reads (up to a small bound), so transient read
/// faults — including everything the registry injects — recover
/// transparently, while real corruption fails every attempt and surfaces
/// as the structured error.
#[derive(Debug)]
pub struct SpillReader {
    r: BufReader<File>,
    path: PathBuf,
}

impl SpillReader {
    fn open(path: PathBuf) -> Result<SpillReader> {
        let mut last = None;
        for attempt in 0..READ_ATTEMPTS {
            match Self::open_once(&path) {
                Ok(r) => {
                    if attempt > 0 {
                        faults::record_retry_recovered();
                    }
                    return Ok(r);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| corrupt(&path, "unreachable: no open attempt ran")))
    }

    fn open_once(path: &Path) -> Result<SpillReader> {
        inject_spill(FaultSite::SpillRead, path)?;
        let file = File::open(path)
            .map_err(|e| ColumnarError::Io { kind: e.kind(), message: format!("{path:?}: {e}") })?;
        let mut r = BufReader::new(file);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|e| ColumnarError::Io { kind: e.kind(), message: format!("{path:?}: {e}") })?;
        if &magic != MAGIC {
            return Err(corrupt(path, "bad magic"));
        }
        Ok(SpillReader {
            r,
            path: path.to_path_buf(),
        })
    }

    /// The next frame, or `None` at end of file. Retries a failed read
    /// from the frame boundary (see the type docs).
    pub fn next_frame(&mut self) -> Result<Option<DataFrame>> {
        let start = self.r.stream_position()?;
        let mut last = None;
        for attempt in 0..READ_ATTEMPTS {
            match self.read_frame_once() {
                Ok(frame) => {
                    if attempt > 0 {
                        faults::record_retry_recovered();
                    }
                    return Ok(frame);
                }
                Err(e) => {
                    last = Some(e);
                    self.r.seek(SeekFrom::Start(start))?;
                }
            }
        }
        Err(last.unwrap_or_else(|| corrupt(&self.path, "unreachable: no read attempt ran")))
    }

    fn read_frame_once(&mut self) -> Result<Option<DataFrame>> {
        inject_spill(FaultSite::SpillRead, &self.path)?;
        let ncols = match try_read_u64(&mut self.r)? {
            Some(n) => n as usize,
            None => return Ok(None),
        };
        let nrows = read_u64(&mut self.r)? as usize;
        let mut series = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let name_len = read_u32(&mut self.r)? as usize;
            let mut name = vec![0u8; name_len];
            self.r.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|_| corrupt(&self.path, "column name not UTF-8"))?;
            let col = read_column(&mut self.r, nrows, &self.path)?;
            series.push(Series::new(name, col));
        }
        Ok(Some(DataFrame::new(series)?))
    }
}

fn corrupt(path: &Path, what: &str) -> ColumnarError {
    ColumnarError::Io {
        kind: std::io::ErrorKind::InvalidData,
        message: format!("{path:?}: corrupt spill file ({what})"),
    }
}

// --- primitive I/O helpers (all little-endian) -----------------------------

fn write_u32(w: &mut impl Write, v: u32) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> std::io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Read a `u64`, mapping a clean EOF at the first byte to `None` (the
/// frame-boundary sentinel).
fn try_read_u64(r: &mut impl Read) -> std::io::Result<Option<u64>> {
    let mut b = [0u8; 8];
    let mut filled = 0;
    while filled < 8 {
        let n = r.read(&mut b[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "truncated frame header",
            ));
        }
        filled += n;
    }
    Ok(Some(u64::from_le_bytes(b)))
}

fn write_i64_slice(w: &mut impl Write, data: &[i64]) -> std::io::Result<()> {
    for &v in data {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_i64_vec(r: &mut impl Read, n: usize) -> std::io::Result<Vec<i64>> {
    let mut out = Vec::with_capacity(n);
    let mut b = [0u8; 8];
    for _ in 0..n {
        r.read_exact(&mut b)?;
        out.push(i64::from_le_bytes(b));
    }
    Ok(out)
}

fn write_bitmap(w: &mut impl Write, bm: &Bitmap) -> std::io::Result<()> {
    for &word in bm.as_words() {
        w.write_all(&word.to_le_bytes())?;
    }
    Ok(())
}

fn read_bitmap(r: &mut impl Read, len: usize) -> std::io::Result<Bitmap> {
    let nwords = len.div_ceil(64);
    let mut words = Vec::with_capacity(nwords);
    let mut b = [0u8; 8];
    for _ in 0..nwords {
        r.read_exact(&mut b)?;
        words.push(u64::from_le_bytes(b));
    }
    Ok(Bitmap::from_words(words, len))
}

// --- column payloads -------------------------------------------------------

fn dtype_tag(col: &Column) -> u8 {
    match col {
        Column::Int64(..) => 0,
        Column::Float64(..) => 1,
        Column::Bool(..) => 2,
        Column::Utf8(..) => 3,
        Column::Datetime(..) => 4,
        // One dictionary layout, two tags: the flag picks the dtype.
        Column::Dict(c, _) if c.category => 5,
        Column::Dict(..) => 6,
        Column::Rle(..) => 7,
    }
}

fn write_column(w: &mut impl Write, col: &Column, nrows: usize) -> Result<()> {
    w.write_all(&[dtype_tag(col)])?;
    let validity = col.validity();
    w.write_all(&[validity.is_some() as u8])?;
    if let Some(v) = validity {
        write_bitmap(w, v)?;
    }
    match col {
        Column::Int64(d, _) | Column::Datetime(d, _) => write_i64_slice(w, d)?,
        Column::Float64(d, _) => {
            for &v in d {
                w.write_all(&v.to_bits().to_le_bytes())?;
            }
        }
        Column::Bool(d, _) => write_bitmap(w, d)?,
        Column::Utf8(d, _) => write_utf8(w, d)?,
        // Dictionary columns spill their compressed form — the
        // dictionary is written once, not a string per row.
        Column::Dict(c, _) => {
            for &code in &c.codes {
                write_u32(w, code)?;
            }
            write_u64(w, c.dict.len() as u64)?;
            write_utf8(w, &c.dict)?;
        }
        // Runs spill as-is: the run-value column (recursively, with one
        // row per run) followed by the u32 run ends.
        Column::Rle(r) => {
            write_u64(w, r.num_runs() as u64)?;
            write_column(w, &r.values, r.num_runs())?;
            for &end in &r.ends {
                write_u32(w, end)?;
            }
        }
    }
    debug_assert_eq!(col.len(), nrows);
    Ok(())
}

fn write_utf8(w: &mut impl Write, col: &Utf8Col) -> Result<()> {
    write_u64(w, col.value_bytes() as u64)?;
    for i in 0..col.len() {
        let len = col.len_at(i);
        let len32 = u32::try_from(len).map_err(|_| {
            ColumnarError::InvalidArgument(format!("spill: string row of {len} bytes"))
        })?;
        write_u32(w, len32)?;
    }
    w.write_all(col.used_bytes())?;
    Ok(())
}

fn read_column(r: &mut impl Read, nrows: usize, path: &Path) -> Result<Column> {
    let mut tag = [0u8; 2];
    r.read_exact(&mut tag)?;
    let [dtype, has_validity] = tag;
    let validity = if has_validity == 1 {
        Some(read_bitmap(r, nrows)?)
    } else if has_validity == 0 {
        None
    } else {
        return Err(corrupt(path, "bad validity flag"));
    };
    let col = match dtype {
        0 => Column::Int64(read_i64_vec(r, nrows)?, validity),
        1 => {
            let mut out = Vec::with_capacity(nrows);
            let mut b = [0u8; 8];
            for _ in 0..nrows {
                r.read_exact(&mut b)?;
                out.push(f64::from_bits(u64::from_le_bytes(b)));
            }
            Column::Float64(out, validity)
        }
        2 => Column::Bool(read_bitmap(r, nrows)?, validity),
        3 => Column::Utf8(read_utf8(r, nrows, path)?, validity),
        4 => Column::Datetime(read_i64_vec(r, nrows)?, validity),
        5 | 6 => {
            let mut codes = Vec::with_capacity(nrows);
            for _ in 0..nrows {
                codes.push(read_u32(r)?);
            }
            let dict_rows = read_u64(r)? as usize;
            let dict = read_utf8(r, dict_rows, path)?;
            if codes.iter().any(|&c| c as usize >= dict_rows) {
                return Err(corrupt(path, "dictionary code out of range"));
            }
            let payload = Categorical {
                codes,
                dict: Arc::new(dict),
                category: dtype == 5,
            };
            Column::Dict(payload, validity)
        }
        7 => {
            if validity.is_some() {
                return Err(corrupt(path, "run-length column with row validity"));
            }
            let nruns = read_u64(r)? as usize;
            if nruns > nrows {
                return Err(corrupt(path, "more runs than rows"));
            }
            let values = read_column(r, nruns, path)?;
            let mut ends = Vec::with_capacity(nruns);
            let mut prev = 0u32;
            for _ in 0..nruns {
                let end = read_u32(r)?;
                if end <= prev {
                    return Err(corrupt(path, "run ends not increasing"));
                }
                prev = end;
                ends.push(end);
            }
            if ends.last().copied().unwrap_or(0) as usize != nrows {
                return Err(corrupt(path, "run ends disagree with row count"));
            }
            Column::Rle(crate::column::RleCol {
                values: Box::new(values),
                ends,
            })
        }
        _ => return Err(corrupt(path, "unknown dtype tag")),
    };
    if col.len() != nrows {
        return Err(corrupt(path, "column length mismatch"));
    }
    Ok(col)
}

fn read_utf8(r: &mut impl Read, nrows: usize, path: &Path) -> Result<Utf8Col> {
    let total = read_u64(r)? as usize;
    let mut lens = Vec::with_capacity(nrows);
    let mut sum = 0usize;
    for _ in 0..nrows {
        let len = read_u32(r)? as usize;
        sum = sum
            .checked_add(len)
            .ok_or_else(|| corrupt(path, "string lengths overflow"))?;
        lens.push(len);
    }
    if sum != total {
        return Err(corrupt(path, "string lengths disagree with arena size"));
    }
    let mut bytes = vec![0u8; total];
    r.read_exact(&mut bytes)?;
    // Validate once, then re-slice on char boundaries: the builder only
    // ever appends whole `&str` values, so the arena invariant the
    // unsafe fast path in `Utf8Col::get` relies on is re-established by
    // construction — a corrupt file fails here instead of later.
    let text =
        std::str::from_utf8(&bytes).map_err(|_| corrupt(path, "string payload not UTF-8"))?;
    let mut b = Utf8Builder::with_capacity(nrows, total);
    let mut pos = 0usize;
    for len in lens {
        let row = text
            .get(pos..pos + len)
            .ok_or_else(|| corrupt(path, "string row splits a UTF-8 sequence"))?;
        b.push(row);
        pos += len;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely

    use super::*;
    use crate::column::Column;
    use crate::df;

    fn temp_dir() -> SpillDir {
        SpillDir::in_temp()
    }

    fn opt_bool(values: Vec<Option<bool>>) -> Column {
        let data: Vec<bool> = values.iter().map(|v| v.unwrap_or(false)).collect();
        let valid: Vec<bool> = values.iter().map(|v| v.is_some()).collect();
        Column::Bool(
            Bitmap::from_bools(&data),
            Some(Bitmap::from_bools(&valid)),
        )
    }

    fn opt_strings(values: Vec<Option<&str>>) -> Column {
        Column::from_opt_strings(values.into_iter().map(|o| o.map(String::from)).collect())
    }

    fn all_dtypes_frame() -> DataFrame {
        let cat = Column::from_strings(vec!["red", "green", "red", "blue"])
            .to_categorical()
            .unwrap();
        df![
            ("i", Column::from_opt_i64(vec![Some(-5), None, Some(i64::MAX), Some(0)])),
            (
                "f",
                Column::from_opt_f64(vec![Some(1.5), Some(-0.0), None, Some(f64::INFINITY)])
            ),
            (
                "b",
                opt_bool(vec![Some(true), Some(false), None, Some(true)])
            ),
            (
                "s",
                opt_strings(vec![Some("plain"), None, Some("emb\0nul"), Some("ünïcode")])
            ),
            ("d", Column::from_datetimes(vec![0, 86_400, -1, 1_700_000_000])),
            ("c", cat),
        ]
    }

    #[test]
    fn round_trip_all_dtypes() {
        let dir = temp_dir();
        let frame = all_dtypes_frame();
        let file = spill_frame(&dir, &frame).unwrap();
        assert_eq!(file.frames(), 1);
        let back = file.read_all().unwrap();
        assert_eq!(back.len(), 1);
        // The masked float slot holds NaN, which defeats whole-frame
        // PartialEq — compare the float column by bits, the rest directly.
        for name in ["i", "b", "s", "d", "c"] {
            assert_eq!(back[0].column(name).unwrap(), frame.column(name).unwrap());
        }
        assert_float_bits_eq(frame.column("f").unwrap(), back[0].column("f").unwrap());
        assert_eq!(
            back[0].column("c").unwrap().dtype(),
            crate::dtype::DType::Categorical
        );
    }

    fn assert_float_bits_eq(a: &Series, b: &Series) {
        let (Column::Float64(av, avm), Column::Float64(bv, bvm)) = (a.column(), b.column())
        else {
            panic!("expected float columns");
        };
        assert_eq!(avm, bvm, "float validity");
        assert_eq!(av.len(), bv.len());
        for (x, y) in av.iter().zip(bv) {
            assert_eq!(x.to_bits(), y.to_bits(), "bit-identical restore");
        }
    }

    #[test]
    fn float_nan_payloads_are_bit_identical() {
        let dir = temp_dir();
        // A NaN with a non-default payload and both zero signs.
        let weird = f64::from_bits(0x7ff8_0000_dead_beef);
        let frame = df![("f", Column::from_f64(vec![weird, -0.0, 0.0, f64::NEG_INFINITY]))];
        let file = spill_frame(&dir, &frame).unwrap();
        let back = &file.read_all().unwrap()[0];
        let Column::Float64(vals, _) = back.column("f").unwrap().column() else {
            panic!("dtype changed");
        };
        let Column::Float64(orig, _) = frame.column("f").unwrap().column() else {
            unreachable!();
        };
        for (a, b) in orig.iter().zip(vals) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-identical restore");
        }
    }

    #[test]
    fn multiple_frames_stream_in_order() {
        let dir = temp_dir();
        let mut w = SpillWriter::create(dir.new_file_path().unwrap()).unwrap();
        let frames: Vec<DataFrame> = (0..5)
            .map(|k| df![("v", Column::from_i64(vec![k, k + 1, k + 2]))])
            .collect();
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        let file = w.finish().unwrap();
        assert_eq!(file.frames(), 5);
        let mut r = file.open_reader().unwrap();
        for f in &frames {
            assert_eq!(&r.next_frame().unwrap().unwrap(), f);
        }
        assert!(r.next_frame().unwrap().is_none());
    }

    #[test]
    fn empty_and_zero_row_frames() {
        let dir = temp_dir();
        let frame = df![("v", Column::from_i64(Vec::new()))];
        let file = spill_frame(&dir, &frame).unwrap();
        let back = file.read_all().unwrap();
        assert_eq!(back[0].shape(), (0, 1));
    }

    #[test]
    fn spill_file_removed_on_drop() {
        let dir = temp_dir();
        let frame = df![("v", Column::from_i64(vec![1]))];
        let file = spill_frame(&dir, &frame).unwrap();
        let path = file.path().to_path_buf();
        assert!(path.exists());
        drop(file);
        assert!(!path.exists(), "spill file must be deleted on drop");
    }

    #[test]
    fn corrupt_magic_rejected() {
        let dir = temp_dir();
        let path = dir.new_file_path().unwrap();
        std::fs::write(&path, b"NOTSPILL????").unwrap();
        let err = SpillReader::open(path).unwrap_err();
        assert!(err.to_string().contains("corrupt"));
    }

    /// A dictionary column whose codes point past its dictionary —
    /// including rows over a zero-entry dictionary — must be rejected on
    /// read as a structured error, never admitted to panic later in
    /// `decode()`'s gather. Both spill tags (5 category, 6 transparent)
    /// take the same check.
    #[test]
    fn dictionary_codes_out_of_range_rejected() {
        let dir = temp_dir();
        let cases = [
            (Vec::new(), vec![0, 0], Some(Bitmap::new(2, false))),
            (vec!["x"], vec![0, 1], None),
        ];
        for (entries, codes, validity) in cases {
            for category in [true, false] {
                let col = Column::Dict(
                    Categorical {
                        codes: codes.clone(),
                        dict: Arc::new(Utf8Col::from_values(&entries)),
                        category,
                    },
                    validity.clone(),
                );
                let file = spill_frame(&dir, &df![("c", col)]).unwrap();
                let err = file.read_all().unwrap_err();
                assert!(
                    err.to_string().contains("dictionary code out of range"),
                    "{entries:?} {codes:?} category={category}: {err}"
                );
            }
        }
    }

    /// Randomized property test: many shapes per dtype (validity
    /// patterns, empty strings, NUL bytes, duplicated categories)
    /// round-trip value-identically.
    #[test]
    fn property_round_trip_randomized() {
        // Tiny deterministic LCG — no external rand crate.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let dir = temp_dir();
        for case in 0..25 {
            let rows = next() % 70;
            let ints: Vec<Option<i64>> = (0..rows)
                .map(|_| (next() % 4 != 0).then(|| next() as i64 - (i64::MAX / 2)))
                .collect();
            let floats: Vec<Option<f64>> = (0..rows)
                .map(|_| match next() % 5 {
                    0 => None,
                    1 => Some(f64::from_bits(next() as u64 | 0x3ff0_0000_0000_0000)),
                    _ => Some(next() as f64 / 7.0),
                })
                .collect();
            let strings: Vec<Option<String>> = (0..rows)
                .map(|_| match next() % 6 {
                    0 => None,
                    1 => Some(String::new()),
                    2 => Some(format!("nul\0{}", next() % 100)),
                    3 => Some("ü".repeat(next() % 9)),
                    _ => Some(format!("value-{}", next() % 1000)),
                })
                .collect();
            let cats: Vec<&str> = (0..rows)
                .map(|_| ["a", "bb", "ccc", ""][next() % 4])
                .collect();
            let bools: Vec<Option<bool>> = (0..rows)
                .map(|_| (next() % 3 != 0).then(|| next() % 2 == 0))
                .collect();
            let frame = df![
                ("i", Column::from_opt_i64(ints)),
                ("f", Column::from_opt_f64(floats.clone())),
                ("s", Column::from_opt_strings(strings.clone())),
                ("c", Column::from_strings(cats).to_categorical().unwrap()),
                ("b", opt_bool(bools)),
            ];
            let file = spill_frame(&dir, &frame).unwrap();
            let back = &file.read_all().unwrap()[0];
            // Float NaN defeats PartialEq; compare floats by bits and
            // the rest structurally.
            for name in ["i", "s", "c", "b"] {
                assert_eq!(
                    back.column(name).unwrap(),
                    frame.column(name).unwrap(),
                    "case {case} column {name}"
                );
            }
            let (Column::Float64(a, va), Column::Float64(b, vb)) = (
                frame.column("f").unwrap().column(),
                back.column("f").unwrap().column(),
            ) else {
                panic!("float column changed dtype");
            };
            assert_eq!(va, vb, "case {case} float validity");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case} float bits");
            }
        }
    }
}
