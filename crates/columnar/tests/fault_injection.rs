//! Fault-plan integration tests: deterministic replay, pool panic
//! isolation, pipeline stage injection, CSV read injection, and
//! cooperative cancellation.
//!
//! Each test arms only the owners it builds from its own
//! [`ExecConfig`], so the tests run in parallel with each other and
//! with everything else.

use lafp_columnar::csv::{read_csv, read_csv_par, CsvOptions};
use lafp_columnar::faults::{FaultPlan, FaultSite, Faults};
use lafp_columnar::pool::{StageChannel, WorkerPool};
use lafp_columnar::{CancelToken, ColumnarError, ExecConfig};
use std::path::PathBuf;

/// A configuration of `threads` workers firing `plan`.
fn armed(threads: usize, plan: FaultPlan) -> ExecConfig {
    ExecConfig { faults: Faults::new(plan), ..ExecConfig::default() }.with_threads(threads)
}

fn temp_csv(rows: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-fault-injection");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "t-{}.csv",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let mut text = String::from("a,b\n");
    for i in 0..rows {
        text.push_str(&format!("{i},{}\n", i * 2));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn same_seed_fires_identical_draw_sequence() {
    let run = || -> Vec<bool> {
        let faults = Faults::new(FaultPlan::new(42).with(FaultSite::SpillWrite, 0.3));
        (0..256)
            .map(|_| faults.fire(FaultSite::SpillWrite).is_some())
            .collect()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "seeded draws must replay bit-identically");
    assert!(a.iter().any(|&f| f), "p=0.3 over 256 draws fires");
    assert!(!a.iter().all(|&f| f));
}

#[test]
fn different_seeds_differ() {
    let run = |seed| -> Vec<bool> {
        let faults = Faults::new(FaultPlan::new(seed).with(FaultSite::SpillRead, 0.5));
        (0..256)
            .map(|_| faults.fire(FaultSite::SpillRead).is_some())
            .collect()
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn injected_worker_panic_fails_query_not_pool() {
    let config = armed(4, FaultPlan::new(7).with(FaultSite::MorselExecute, 1.0));
    let err = WorkerPool::from_config(&config)
        .try_map((0..64).collect::<Vec<i64>>(), |_, x| Ok(x + 1))
        .unwrap_err();
    assert!(
        matches!(err, ColumnarError::WorkerPanic(ref m) if m.contains("injected")),
        "got {err:?}"
    );
    assert!(config.faults.snapshot().panics_isolated > 0);
    // A pool built without the plan runs the same work.
    let pool = WorkerPool::from_config(&ExecConfig::default().with_threads(4));
    let out = pool
        .try_map((0..64).collect::<Vec<i64>>(), |_, x| Ok(x + 1))
        .unwrap();
    assert_eq!(out.len(), 64);
    assert_eq!(out[63], 64);
}

#[test]
fn low_probability_panic_still_isolated_at_cap_one() {
    // Sequential pool (no worker threads): the driver-path catch_unwind
    // inside try_map must isolate the injected panic too.
    let pool = WorkerPool::from_config(&armed(1, FaultPlan::new(3).with(FaultSite::MorselExecute, 1.0)));
    let err = pool
        .try_map(vec![1, 2, 3], |_, x: i32| Ok(x))
        .unwrap_err();
    assert!(matches!(err, ColumnarError::WorkerPanic(_)), "got {err:?}");
}

#[test]
fn injected_stage_panic_unwinds_pipeline() {
    let pool = WorkerPool::from_config(&armed(2, FaultPlan::new(9).with(FaultSite::PipelineStage, 1.0)));
    // cap 1 is the deadlock-prone shape: a blocked producer must be
    // released by the panicking peer's hang-up.
    for cap in [1usize, 8] {
        let r: lafp_columnar::Result<((), usize)> = pool.pipeline(
            cap,
            |tx: &StageChannel<usize>| {
                for i in 0..100 {
                    if !tx.send(i) {
                        break;
                    }
                }
                tx.close();
            },
            |rx: &StageChannel<usize>| {
                let mut n = 0;
                while rx.recv().is_some() {
                    n += 1;
                }
                n
            },
        );
        let err = r.unwrap_err();
        assert!(matches!(err, ColumnarError::WorkerPanic(_)), "cap={cap}: {err:?}");
    }
}

#[test]
fn csv_read_injection_surfaces_io_error_with_path() {
    let path = temp_csv(100);
    let pool = WorkerPool::new(4);
    let options = CsvOptions {
        exec: armed(4, FaultPlan::new(5).with(FaultSite::CsvRead, 1.0)),
        ..CsvOptions::new()
    };
    let err = read_csv(&path, &options).unwrap_err();
    match err {
        ColumnarError::Io { message, .. } => {
            assert!(message.contains("injected"), "{message}");
            assert!(
                message.contains(path.file_name().unwrap().to_str().unwrap()),
                "error should name the file: {message}"
            );
        }
        other => panic!("expected Io, got {other:?}"),
    }
    assert!(read_csv_par(&path, &options, &pool).is_err());
    // Options without the plan read the same file fine.
    let options = CsvOptions { exec: ExecConfig::default(), ..CsvOptions::new() };
    let df = read_csv(&path, &options).unwrap();
    assert_eq!(df.num_rows(), 100);
}

#[test]
fn cancelled_token_stops_pool_between_claims() {
    let token = CancelToken::new();
    token.cancel();
    let pool = WorkerPool::new(4).with_cancel(token);
    let err = pool
        .try_map((0..32).collect::<Vec<i64>>(), |_, x| Ok(x))
        .unwrap_err();
    assert!(matches!(err, ColumnarError::Cancelled(_)), "got {err:?}");
}
