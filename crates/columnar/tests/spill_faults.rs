//! Spill-failure recovery sweep (the "full disk at 2 a.m." drill).
//!
//! Under injected spill-write and spill-read faults, every spill
//! operation must either succeed (retry / fallback-dir recovery) or
//! fail with a structured error — and EITHER WAY leave no `LAFPSPL1`
//! temp file behind once the [`SpillDir`] drops. Each test arms only
//! the dir it builds, so the tests run in parallel.

use lafp_columnar::column::Column;
use lafp_columnar::df;
use lafp_columnar::faults::{FaultPlan, FaultSite, Faults};
use lafp_columnar::spill::{spill_frame, SpillDir};
use lafp_columnar::{ColumnarError, DataFrame};
use std::path::PathBuf;

fn frame(rows: usize) -> DataFrame {
    df![
        ("a", Column::from_i64((0..rows as i64).collect())),
        (
            "s",
            Column::from_strings((0..rows).map(|i| format!("row-{i}")).collect::<Vec<_>>())
        ),
    ]
}

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "lafp-spill-faults-{tag}-{}",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Every spill file a dir could have written sits under its roots;
/// after drop, the roots themselves must be gone.
fn assert_roots_removed(roots: &[PathBuf]) {
    for r in roots {
        assert!(
            !r.exists(),
            "spill root {r:?} (and its LAFPSPL1 files) must be removed on drop"
        );
    }
}

#[test]
fn write_faults_recover_or_fail_clean_across_seeds() {
    let f = frame(500);
    for seed in [42u64, 1337, 7, 99] {
        let faults = Faults::new(FaultPlan::new(seed).with(FaultSite::SpillWrite, 0.3));
        let dir = SpillDir::at(scratch_root(&format!("w{seed}"))).with_faults(faults.clone());
        let roots = dir.root_paths();
        let mut written = Vec::new();
        let mut clean_oom = 0usize;
        for _ in 0..40 {
            match spill_frame(&dir, &f) {
                Ok(file) => written.push(file),
                Err(ColumnarError::OutOfMemory { .. }) => clean_oom += 1,
                Err(other) => panic!("seed {seed}: expected clean OOM marker, got {other:?}"),
            }
        }
        let ok = written.len();
        assert!(ok > 0, "seed {seed}: retries should recover most writes");
        // Readback (the plan has no read faults): recovery never
        // corrupts data.
        for file in &written {
            let got = file.read_all().unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].num_rows(), 500);
        }
        drop(written);
        let snap = faults.snapshot();
        assert!(
            snap.injected_at(FaultSite::SpillWrite) > 0,
            "seed {seed}: plan must actually fire"
        );
        assert!(
            snap.retries_recovered > 0,
            "seed {seed}: at least one op must succeed via retry (ok={ok}, oom={clean_oom})"
        );
        drop(dir);
        assert_roots_removed(&roots);
    }
}

#[test]
fn enospc_falls_back_to_secondary_root() {
    let f = frame(200);
    // p=0.5: roughly half the injected faults are ENOSPC-shaped, which
    // advance the active root; transient Io faults burn retries.
    let faults = Faults::new(FaultPlan::new(13).with(FaultSite::SpillWrite, 0.5));
    let dir = SpillDir::at(scratch_root("primary"))
        .with_fallbacks([scratch_root("fallback-a"), scratch_root("fallback-b")])
        .with_faults(faults.clone());
    let roots = dir.root_paths();
    assert_eq!(roots.len(), 3);
    let mut ok = 0usize;
    for _ in 0..60 {
        match spill_frame(&dir, &f) {
            Ok(_) => ok += 1,
            Err(ColumnarError::OutOfMemory { .. }) => {}
            Err(other) => panic!("expected clean OOM marker, got {other:?}"),
        }
    }
    let snap = faults.snapshot();
    assert!(ok > 0, "most writes should survive p=0.5 with 6 attempts");
    assert!(
        snap.dir_fallbacks > 0,
        "injected ENOSPC must exercise the fallback-dir ladder ({snap:?})"
    );
    drop(dir);
    assert_roots_removed(&roots);
}

#[test]
fn read_faults_retry_and_never_return_wrong_data() {
    let f = frame(300);
    // Only reads fault: the write succeeds, every read is under injection.
    let faults = Faults::new(FaultPlan::new(21).with(FaultSite::SpillRead, 0.4));
    let dir = SpillDir::at(scratch_root("read")).with_faults(faults.clone());
    let roots = dir.root_paths();
    let file = spill_frame(&dir, &f).unwrap();
    let expected = f.row_hashes(&[]).unwrap();
    let mut ok = 0usize;
    let mut failed = 0usize;
    for _ in 0..50 {
        match file.read_all() {
            Ok(frames) => {
                ok += 1;
                assert_eq!(frames.len(), 1);
                assert_eq!(
                    frames[0].row_hashes(&[]).unwrap(),
                    expected,
                    "a recovered read must be bit-identical"
                );
            }
            Err(ColumnarError::Io { .. }) => failed += 1,
            Err(other) => panic!("unexpected error shape {other:?}"),
        }
    }
    let snap = faults.snapshot();
    assert!(ok > 0, "retries should recover reads (ok={ok}, failed={failed})");
    assert!(snap.injected_at(FaultSite::SpillRead) > 0);
    assert!(snap.retries_recovered > 0, "read retry path must run ({snap:?})");
    drop(file);
    drop(dir);
    assert_roots_removed(&roots);
}

#[test]
fn failed_writes_leave_no_partial_files_mid_run() {
    // Stronger than drop-time cleanup: while the dir is still alive, a
    // failed write must not leave its partial file on disk.
    let f = frame(400);
    let faults = Faults::new(FaultPlan::new(2).with(FaultSite::SpillWrite, 1.0));
    let dir = SpillDir::at(scratch_root("partial")).with_faults(faults);
    let root = dir.root_paths()[0].clone();
    for _ in 0..10 {
        let err = spill_frame(&dir, &f).unwrap_err();
        assert!(matches!(err, ColumnarError::OutOfMemory { .. }), "{err:?}");
    }
    if root.exists() {
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            leftovers.is_empty(),
            "failed writes leaked partial spill files: {leftovers:?}"
        );
    }
}
