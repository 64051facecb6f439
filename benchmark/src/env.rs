//! Environment guard and provenance.
//!
//! The engine reads a dozen `LAFP_*` knobs ad hoc; any of them left set
//! in the caller's shell would silently change what is measured. They are
//! all removed (and listed) before the first engine call. Two variables
//! are then set on purpose: `LAFP_THREADS`, the only way to size the Dask
//! engine's pool from outside, and `TMPDIR`, so that spill files land
//! inside the checkout.

use std::path::{Path, PathBuf};
use std::process::Command;

/// What was measured on, recorded with every result.
pub struct Environment {
    /// `LAFP_*` variables that were set and have been removed.
    pub scrubbed: Vec<String>,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Threads every engine gets: `min(nproc, 4)`, never more than cores.
    pub threads: usize,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Scratch directory of this process (data, spill files); removed on drop.
    pub work_dir: PathBuf,
    /// Where files that outlive the run go (`target/` of the package).
    pub out_dir: PathBuf,
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Scrub the environment and create the scratch directory. Must run
/// before any engine call and before any thread is started.
pub fn prepare() -> Result<Environment, String> {
    let mut scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LAFP_"))
        .collect();
    scrubbed.sort();
    for key in &scrubbed {
        std::env::remove_var(key);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(4);
    std::env::set_var("LAFP_THREADS", threads.to_string());

    // `cargo run` exports the manifest directory; a binary started by hand
    // falls back to where it was built.
    let package_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    let out_dir = package_dir.join("target");
    let work_dir = out_dir.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    std::env::set_var("TMPDIR", &work_dir);

    Ok(Environment {
        scrubbed,
        nproc,
        threads,
        rustc: first_line_of("rustc", &["--version"], &package_dir),
        // Asked only where the checkout itself is a repository, so git never
        // walks up into directories outside it.
        commit: if package_dir.join("../.git").exists() {
            first_line_of("git", &["rev-parse", "HEAD"], &package_dir)
        } else {
            "unknown".to_string()
        },
        work_dir,
        out_dir,
    })
}

impl Drop for Environment {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.work_dir);
    }
}
