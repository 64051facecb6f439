//! Workspace-level end-to-end tests: the full pipeline from PandaScript
//! source through JIT rewriting to execution on every backend, on the
//! real benchmark programs and datasets.

use lafp_bench::datagen::{compute_all_metadata, ensure_datasets, Size};
use lafp_bench::programs::{all, program, Program};
use lafp_bench::runner::{run_cell, Config, RunKnobs};
use std::path::PathBuf;

fn data() -> PathBuf {
    let dir = ensure_datasets(std::path::Path::new("target/lafp-data"), Size::Small).unwrap();
    compute_all_metadata(&dir).unwrap();
    dir
}

fn unlimited() -> RunKnobs {
    RunKnobs {
        budget: Some(usize::MAX),
        ..Default::default()
    }
}

#[test]
fn every_program_runs_and_matches_pandas_on_every_config() {
    let dir = data();
    for p in all() {
        let baseline = run_cell(&p, Config::Pandas, &dir, &unlimited());
        assert!(baseline.ok, "{} pandas: {:?}", p.name, baseline.error);
        assert!(baseline.outputs > 0, "{} must print something", p.name);
        for config in [Config::LPandas, Config::Modin, Config::LModin, Config::Dask, Config::LDask] {
            let r = run_cell(&p, config, &dir, &unlimited());
            assert!(r.ok, "{} {}: {:?}", p.name, config.label(), r.error);
            assert_eq!(
                (r.output_hash, r.outputs),
                (baseline.output_hash, baseline.outputs),
                "{} {} diverges from Pandas (§5.2 regression)",
                p.name,
                config.label()
            );
        }
    }
}

#[test]
fn lafp_saves_memory_on_column_selection_programs() {
    let dir = data();
    for name in ["nyt", "ais"] {
        let p = program(name).unwrap();
        let plain = run_cell(&p, Config::Pandas, &dir, &unlimited());
        let lafp = run_cell(&p, Config::LPandas, &dir, &unlimited());
        assert!(plain.ok && lafp.ok);
        assert!(
            (lafp.peak_memory as f64) < 0.7 * plain.peak_memory as f64,
            "{name}: {} vs {}",
            lafp.peak_memory,
            plain.peak_memory
        );
    }
}

#[test]
fn lazy_print_batches_dask_passes() {
    // env has six prints; LDask with lazy print should beat LDask without.
    let dir = data();
    let p = program("env").unwrap();
    let with = run_cell(&p, Config::LDask, &dir, &unlimited());
    let without = run_cell(
        &p,
        Config::LDask,
        &dir,
        &RunKnobs {
            disable_lazy_print: true,
            budget: Some(usize::MAX),
            ..Default::default()
        },
    );
    assert!(with.ok && without.ok);
    assert!(
        with.wall < without.wall,
        "lazy print should win: {:?} vs {:?}",
        with.wall,
        without.wall
    );
}

#[test]
fn caching_accelerates_stu_on_dask() {
    let dir = data();
    let p = program("stu").unwrap();
    let cached = run_cell(&p, Config::LDask, &dir, &unlimited());
    let uncached = run_cell(
        &p,
        Config::LDask,
        &dir,
        &RunKnobs {
            disable_caching: true,
            budget: Some(usize::MAX),
            ..Default::default()
        },
    );
    assert!(cached.ok && uncached.ok);
    assert_eq!(cached.output_hash, uncached.output_hash, "same results");
    assert!(
        cached.wall.as_secs_f64() < 0.8 * uncached.wall.as_secs_f64(),
        "persist should pay off: {:?} vs {:?}",
        cached.wall,
        uncached.wall
    );
    assert!(
        cached.peak_memory > uncached.peak_memory,
        "persist trades memory for time (§5.4)"
    );
}

#[test]
fn emp_ooms_under_budget_on_every_config_at_large_ratio() {
    // emp plots the whole frame: at the scaled budget with the Large
    // dataset, every configuration fails (the paper's one universal OOM).
    let root = std::path::Path::new("target/lafp-data");
    let dir = ensure_datasets(root, Size::Large).unwrap();
    let p = program("emp").unwrap();
    for config in Config::ALL {
        let r = run_cell(&p, config, &dir, &RunKnobs::default());
        assert!(
            !r.ok,
            "{} should OOM on emp at 12.6GB (got ok)",
            config.label()
        );
    }
}

/// A multi-key, mixed-direction sort → projection → head: the top-k
/// rewrite fires under LPandas, LModin and LDask, and every
/// configuration must still print what Pandas prints.
#[test]
fn mixed_direction_sort_head_matches_pandas_on_every_config() {
    let dir = data();
    let p = Program {
        name: "zip_mixed_top_k",
        source: "\
import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('zip.csv')
df['density'] = df.population / df.land_area
top = df.sort_values(['state', 'households', 'median_income'], ascending=[False, True, False])
report = top[['zip', 'state', 'households', 'density']]
print(report.head(10))
",
        order_sensitive: false,
    };
    let baseline = run_cell(&p, Config::Pandas, &dir, &unlimited());
    assert!(baseline.ok, "pandas: {:?}", baseline.error);
    for config in [Config::LPandas, Config::Modin, Config::LModin, Config::Dask, Config::LDask] {
        let r = run_cell(&p, config, &dir, &unlimited());
        assert!(r.ok, "{}: {:?}", config.label(), r.error);
        assert_eq!(
            (r.output_hash, r.outputs),
            (baseline.output_hash, baseline.outputs),
            "{} diverges from Pandas",
            config.label()
        );
    }

    // A flag list of the wrong length is pandas' structured error on
    // every configuration, not a silent broadcast.
    let bad = Program {
        name: "zip_bad_ascending",
        source: "\
import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('zip.csv')
top = df.sort_values(['state', 'households', 'zip'], ascending=[True, False])
print(top.head(3))
",
        order_sensitive: false,
    };
    for config in Config::ALL {
        let r = run_cell(&bad, config, &dir, &unlimited());
        let error = r.error.unwrap_or_default();
        assert!(
            error.contains("Length of ascending (2) != length of by (3)"),
            "{}: {error:?}",
            config.label()
        );
    }
}
