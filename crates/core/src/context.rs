//! The LaFP context: configuration (backend selection, §2.6), the shared
//! task graph, the engines, pending lazy prints and captured output.

use crate::graph::{NodeId, TaskGraph};
use crate::op::{LogicalOp, Value};
use crate::optimizer::OptimizerFlags;
use lafp_backends::{BackendKind, EagerEngine, MemoryTracker};
use lafp_columnar::csv::CsvOptions;
use lafp_columnar::{DataFrame, Result, Scalar};
use lafp_meta::MetaStore;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

/// Configuration of a LaFP session, the programmatic equivalent of the
/// paper's two-line program change plus the backend-selection line.
#[derive(Debug, Clone)]
pub struct LafpConfig {
    /// Which backend executes task graphs (paper default: Dask).
    pub backend: BackendKind,
    /// Simulated memory budget in bytes (`usize::MAX` = unlimited).
    pub memory_budget: usize,
    /// Worker threads for the Modin and Dask backends. `0` = the process
    /// configuration's count (`LAFP_THREADS`, else available parallelism
    /// — see [`crate::ExecConfig::from_env`]); the Pandas backend is
    /// single-threaded regardless, by definition.
    pub threads: usize,
    /// Partition size (rows) for the Dask backend (0 = default).
    pub chunk_rows: usize,
    /// Runtime optimizer toggles (ablations).
    pub optimizer: OptimizerFlags,
    /// Consult the metastore for `read_csv` dtype overrides (§3.6).
    pub use_metadata: bool,
    /// Rows shown when printing a frame.
    pub print_rows: usize,
}

impl Default for LafpConfig {
    fn default() -> Self {
        LafpConfig {
            backend: BackendKind::default(),
            memory_budget: usize::MAX,
            threads: 0,
            chunk_rows: 0,
            optimizer: OptimizerFlags::default(),
            use_metadata: false,
            print_rows: 10,
        }
    }
}

/// Shared mutable state of a session.
pub(crate) struct ContextInner {
    pub graph: TaskGraph,
    /// Print nodes recorded but not yet flushed, in program order (§3.3).
    pub pending_prints: Vec<NodeId>,
    /// The most recent print node (target of the next order edge).
    pub last_print: Option<NodeId>,
    /// Nodes currently holding persisted results (§3.5).
    pub persisted: Vec<NodeId>,
    /// Captured print output, one entry per executed print.
    pub output: Vec<String>,
    /// Mirror print output to stdout as well.
    pub echo: bool,
}

/// The LaFP session object — the `pd` module stand-in
/// (`import lazyfatpandas.pandas as pd`).
#[derive(Clone)]
pub struct LaFP {
    pub(crate) config: LafpConfig,
    pub(crate) tracker: Arc<MemoryTracker>,
    pub(crate) eager: EagerEngine,
    pub(crate) inner: Arc<Mutex<ContextInner>>,
}

impl LaFP {
    /// Create a session with the given configuration.
    pub fn with_config(config: LafpConfig) -> LaFP {
        let tracker = MemoryTracker::with_budget(config.memory_budget);
        let eager_kind = if config.backend == BackendKind::Dask {
            // Dask fallback path ("convert to Pandas, apply, convert back")
            // uses a single-threaded eager engine.
            BackendKind::Pandas
        } else {
            config.backend
        };
        LaFP {
            eager: EagerEngine::new(eager_kind, Arc::clone(&tracker), config.threads),
            tracker,
            config,
            inner: Arc::new(Mutex::new(ContextInner {
                graph: TaskGraph::new(),
                pending_prints: Vec::new(),
                last_print: None,
                persisted: Vec::new(),
                output: Vec::new(),
                echo: false,
            })),
        }
    }

    /// Default session (Dask backend, unlimited budget).
    pub fn new() -> LaFP {
        Self::with_config(LafpConfig::default())
    }

    /// The session configuration.
    pub fn config(&self) -> &LafpConfig {
        &self.config
    }

    /// The simulated-memory tracker (peak/current readings drive Fig. 15).
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Echo lazy-print output to stdout in addition to capturing it.
    pub fn set_echo(&self, echo: bool) {
        self.inner.lock().echo = echo;
    }

    /// Drain and return everything printed so far.
    pub fn take_output(&self) -> Vec<String> {
        std::mem::take(&mut self.inner.lock().output)
    }

    /// Add a node to the session graph.
    pub(crate) fn add_node(&self, op: LogicalOp, inputs: Vec<NodeId>) -> NodeId {
        self.inner.lock().graph.add(op, inputs)
    }

    /// `pd.read_csv(path)` — lazy scan with explicit options.
    ///
    /// When [`LafpConfig::use_metadata`] is set and a valid metastore entry
    /// exists, column dtypes are passed to the scan (the §3.6 runtime
    /// metadata utilization); `read_only_cols` additionally allows the
    /// category optimization for those columns (safety per §3.6 requires
    /// the read-only fact, which static analysis provides).
    pub fn read_csv_opts(
        &self,
        path: &Path,
        mut options: CsvOptions,
        read_only_cols: &[String],
    ) -> crate::frame::LazyFrame {
        if self.config.use_metadata {
            if let Ok(Some(meta)) = MetaStore::new().load(path) {
                for (col, dtype) in meta.dtype_overrides(read_only_cols) {
                    options.dtypes.entry(col).or_insert(dtype);
                }
            }
        }
        let node = self.add_node(
            LogicalOp::ReadCsv {
                path: path.to_path_buf(),
                options,
            },
            vec![],
        );
        crate::frame::LazyFrame::from_node(self.clone(), node)
    }

    /// `pd.read_csv(path)` with default options.
    pub fn read_csv(&self, path: &Path) -> crate::frame::LazyFrame {
        self.read_csv_opts(path, CsvOptions::new(), &[])
    }

    /// Wrap an existing materialized frame (`pd.DataFrame(data)`).
    pub fn from_frame(&self, frame: DataFrame) -> crate::frame::LazyFrame {
        let node = self.add_node(LogicalOp::FromFrame(Arc::new(frame)), vec![]);
        crate::frame::LazyFrame::from_node(self.clone(), node)
    }

    /// `pd.flush()` — force all pending lazy prints (end of program, §3.3).
    pub fn flush(&self) -> Result<()> {
        crate::exec::flush(self)
    }

    /// Lazy `print(...)` over a mix of text, frames and scalars (§3.3).
    pub fn print(&self, args: Vec<crate::frame::PrintArg>) {
        crate::frame::print_args(self, args)
    }

    /// Render the current task graph rooted at the pending prints (and any
    /// extra roots) — a textual Figure 6.
    pub fn explain(&self, extra_roots: &[NodeId]) -> String {
        let inner = self.inner.lock();
        let mut roots = inner.pending_prints.clone();
        roots.extend_from_slice(extra_roots);
        inner.graph.explain(&roots)
    }

    /// Peak simulated memory since session start (bytes).
    pub fn peak_memory(&self) -> usize {
        self.tracker.peak()
    }

    /// Internal: read the value cached on a node, if any.
    #[allow(dead_code)] // consumed by the interpreter crate via exec
    pub(crate) fn cached_value(&self, node: NodeId) -> Option<Value> {
        self.inner
            .lock()
            .graph
            .node(node)
            .result
            .as_ref()
            .map(|m| m.value.clone())
    }
}

impl Default for LaFP {
    fn default() -> Self {
        Self::new()
    }
}

/// A scalar or frame value printed by the lazy print machinery.
pub(crate) fn render_value(value: &Value, print_rows: usize) -> String {
    match value {
        Value::Frame(f) => f.to_display_string(print_rows),
        Value::Scalar(Scalar::Float(x)) => format!("{}", Scalar::Float(*x)),
        Value::Scalar(s) => s.to_string(),
        Value::None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_defaults() {
        let cfg = LafpConfig::default();
        assert_eq!(cfg.backend, BackendKind::Dask, "paper: default is Dask");
        assert!(cfg.optimizer.predicate_pushdown);
        assert!(cfg.optimizer.common_reuse);
    }

    #[test]
    fn session_construction_and_output_capture() {
        let pd = LaFP::new();
        assert_eq!(pd.take_output(), Vec::<String>::new());
        assert_eq!(pd.peak_memory(), 0);
    }

    #[test]
    fn eager_engine_kind_follows_backend() {
        let pd = LaFP::with_config(LafpConfig {
            backend: BackendKind::Modin,
            ..Default::default()
        });
        assert_eq!(pd.eager.kind(), BackendKind::Modin);
        let pd = LaFP::with_config(LafpConfig {
            backend: BackendKind::Dask,
            ..Default::default()
        });
        // Dask's pandas-fallback engine is single threaded.
        assert_eq!(pd.eager.kind(), BackendKind::Pandas);
    }
}
