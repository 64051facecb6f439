//! Kernel microbenchmarks: the vectorized kernels raced against in-tree
//! re-implementations of the seed-era (PR 1) scalar-boxed algorithms, on
//! the same data in the same process, so each PR's `BENCH_PR<N>.json`
//! records an apples-to-apples trajectory point.
//!
//! The reference implementations mirror the seed code paths: group-by keys
//! rendered to a canonical `String` per row with `Scalar`-boxed aggregate
//! state, element-wise kernels calling `get(i) -> Scalar` per element, and
//! `slice` materializing an index vector and gathering. They live here (not
//! in `lafp-columnar`) so the production crate carries no dead slow paths.
//!
//! ```text
//! cargo run -p lafp-bench --release --bin harness -- bench \
//!     --rows 1000000 --json BENCH_PR2.json
//! ```

use crate::datagen::kernel_frame;
use lafp_backends::{DaskEngine, DaskOp, DaskValue, MemoryTracker};
use lafp_columnar::column::{ArithOp, CmpOp};
use lafp_columnar::csv::{read_csv, read_csv_par, CsvOptions};
use lafp_columnar::groupby::{group_by, group_by_par, AggKind, GroupBySpec};
use lafp_columnar::join::{merge, merge_par, JoinKind};
use lafp_columnar::pool::WorkerPool;
use lafp_columnar::sort::{nlargest, sort_values, sort_values_par, top_k, SortOptions};
use lafp_columnar::{Bitmap, Column, DType, DataFrame, Scalar, Series};
use lafp_expr::Expr;
use lafp_oracle::equiv::{assert_col_equiv, assert_frame_close, assert_frame_equiv};
use lafp_oracle::reference::{
    arith_ref, cast_ref, compare_ref, fillna_ref, filter_ref, group_by_ref,
    merge_ref, nlargest_ref, read_csv_schema_ref as read_csv_ref, slice_ref,
    sort_values_ref, sum_ref,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One bench row: seed vs vectorized timing for a kernel.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Kernel name.
    pub name: String,
    /// Best-of-N wall time of the seed-era reference, in milliseconds.
    pub seed_ms: f64,
    /// Best-of-N wall time of the vectorized kernel, in milliseconds.
    pub vectorized_ms: f64,
    /// `seed_ms / vectorized_ms`.
    pub speedup: f64,
}

/// One string-representation bench row: the arena-backed Utf8 kernel vs
/// an in-tree `Arc<str>` (PR 2–4 era) baseline on the same data.
#[derive(Debug, Clone)]
pub struct StringBenchResult {
    /// Kernel name.
    pub name: String,
    /// Best-of-N wall time of the `Arc<str>` baseline, in milliseconds.
    pub arc_ms: f64,
    /// Best-of-N wall time of the arena-backed kernel, in milliseconds.
    pub arena_ms: f64,
    /// `arc_ms / arena_ms`.
    pub speedup: f64,
}

/// One parallel bench row: the same pool-driven kernel at one worker vs
/// `threads` workers.
#[derive(Debug, Clone)]
pub struct ParallelBenchResult {
    /// Kernel name.
    pub name: String,
    /// Best-of-N wall time on a 1-worker pool (the sequential path).
    pub t1_ms: f64,
    /// Best-of-N wall time on a `threads`-worker pool.
    pub tn_ms: f64,
    /// Worker count of the parallel column.
    pub threads: usize,
    /// `t1_ms / tn_ms`.
    pub speedup: f64,
}

/// One pipelined-executor bench row: the same streaming Dask query with
/// the CSV scan pipelined against downstream operator morsels vs fully
/// drained before them.
#[derive(Debug, Clone)]
pub struct PipelineBenchResult {
    /// Query name.
    pub name: String,
    /// Best-of-N wall time with `pipeline_scan` off (blocking drain).
    pub blocking_ms: f64,
    /// Best-of-N wall time with the scan overlapped on the worker pool.
    pub pipelined_ms: f64,
    /// Worker count of the engine pool (both sides).
    pub threads: usize,
    /// `blocking_ms / pipelined_ms`.
    pub speedup: f64,
}

/// One chain-fusion bench row: the same streaming Dask query with
/// row-local operator runs fused into one pass per morsel vs executed
/// as separate per-operator morsel passes.
#[derive(Debug, Clone)]
pub struct FusionBenchResult {
    /// Query name.
    pub name: String,
    /// Best-of-N wall time with `fuse_chains` off (one frame per op).
    pub unfused_ms: f64,
    /// Best-of-N wall time with the chain fused (`fuse_chains` on).
    pub fused_ms: f64,
    /// Worker count of the engine pool (both sides).
    pub threads: usize,
    /// `unfused_ms / fused_ms`.
    pub speedup: f64,
}

/// One encoded-execution bench row: the same kernel on an encoded
/// column (`Dict`/`Rle`) vs decode-then-compute on its plain twin.
#[derive(Debug, Clone)]
pub struct EncodingBenchResult {
    /// Kernel name.
    pub name: String,
    /// Best-of-N wall time of decode-then-compute, in milliseconds.
    pub decoded_ms: f64,
    /// Best-of-N wall time operating on the encoded column directly.
    pub encoded_ms: f64,
    /// `decoded_ms / encoded_ms`.
    pub speedup: f64,
}

/// One partition-assembly bench row: stacking partitions with one n-way
/// `Column::concat_many` vs the pairwise left fold of two-input `concat`
/// that partition assembly used before.
#[derive(Debug, Clone)]
pub struct ConcatBenchResult {
    /// Column kind being assembled.
    pub name: String,
    /// Best-of-N wall time of the pairwise fold, in milliseconds.
    pub pairwise_ms: f64,
    /// Best-of-N wall time of the single n-way concat, in milliseconds.
    pub nway_ms: f64,
    /// Number of partitions stacked.
    pub parts: usize,
    /// `pairwise_ms / nway_ms`.
    pub speedup: f64,
}

/// Best-of-N paired timing: each iteration times the seed reference and
/// the vectorized kernel back to back, so both sides see the same
/// allocator and cache state as the process evolves — a seed-first block
/// followed by a fast-only block would systematically charge the fast
/// side with the reference's heap churn.
fn best_of_pair_ms(iters: usize, mut seed: impl FnMut(), mut fast: impl FnMut()) -> (f64, f64) {
    let mut best_seed = f64::INFINITY;
    let mut best_fast = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        seed();
        best_seed = best_seed.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        fast();
        best_fast = best_fast.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (best_seed, best_fast)
}

/// Run the full kernel suite at `rows` rows, `iters` timing repetitions
/// each. Every pair is checked for result equivalence before timing.
pub fn run_suite(rows: usize, iters: usize) -> Vec<BenchResult> {
    let frame = kernel_frame(rows);
    let fare = frame.column("fare").unwrap().column();
    let tip = frame.column("tip").unwrap().column();
    let key = frame.column("key").unwrap().column();
    let passenger = frame.column("passenger_count").unwrap().column();
    let mut results = Vec::new();
    let mut push = |name: &str, seed_ms: f64, vectorized_ms: f64| {
        results.push(BenchResult {
            name: name.to_string(),
            seed_ms,
            vectorized_ms,
            speedup: seed_ms / vectorized_ms,
        });
    };

    // -- group-by ------------------------------------------------------
    let spec = GroupBySpec {
        keys: vec!["key".into()],
        value: "fare".into(),
        agg: AggKind::Sum,
    };
    assert_eq!(group_by_ref(&frame, &spec), group_by(&frame, &spec).unwrap());
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(group_by_ref(black_box(&frame), &spec));
    },
        || {
        black_box(group_by(black_box(&frame), &spec).unwrap());
    },
    );
    push("groupby_i64key_sum_f64", seed, fast);

    let multi = GroupBySpec {
        keys: vec!["vendor".into(), "key".into()],
        value: "tip".into(),
        agg: AggKind::Mean,
    };
    assert_eq!(
        group_by_ref(&frame, &multi),
        group_by(&frame, &multi).unwrap()
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(group_by_ref(black_box(&frame), &multi));
    },
        || {
        black_box(group_by(black_box(&frame), &multi).unwrap());
    },
    );
    push("groupby_multikey_mean_f64", seed, fast);

    // -- filter --------------------------------------------------------
    let mask = fare.compare_scalar(CmpOp::Gt, &Scalar::Float(40.0)).unwrap();
    assert_eq!(filter_ref(&frame, &mask), frame.filter(&mask).unwrap());
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(filter_ref(black_box(&frame), &mask));
    },
        || {
        black_box(frame.filter(black_box(&mask)).unwrap());
    },
    );
    push("filter_mixed_frame", seed, fast);

    // -- element-wise arithmetic ---------------------------------------
    assert_col_equiv(
        &arith_ref(fare, ArithOp::Mul, tip),
        &fare.arith(ArithOp::Mul, tip).unwrap(),
        "arith f64",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(arith_ref(black_box(fare), ArithOp::Mul, tip));
    },
        || {
        black_box(black_box(fare).arith(ArithOp::Mul, tip).unwrap());
    },
    );
    push("arith_mul_f64", seed, fast);

    assert_col_equiv(
        &arith_ref(key, ArithOp::Add, passenger),
        &key.arith(ArithOp::Add, passenger).unwrap(),
        "arith i64",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(arith_ref(black_box(key), ArithOp::Add, passenger));
    },
        || {
        black_box(black_box(key).arith(ArithOp::Add, passenger).unwrap());
    },
    );
    push("arith_add_i64", seed, fast);

    // -- comparison ----------------------------------------------------
    assert_eq!(compare_ref(fare, CmpOp::Gt, tip), fare.compare(CmpOp::Gt, tip).unwrap());
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(compare_ref(black_box(fare), CmpOp::Gt, tip));
    },
        || {
        black_box(black_box(fare).compare(CmpOp::Gt, tip).unwrap());
    },
    );
    push("compare_gt_f64", seed, fast);

    // -- slice (head) --------------------------------------------------
    // Many short heads per timed pass: a single 1000-row slice is too fast
    // to time on its own.
    let head_loops = 200usize;
    assert_col_equiv(&slice_ref(fare, 10, 1000), &fare.slice(10, 1000), "slice");
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        for k in 0..head_loops {
            black_box(slice_ref(black_box(fare), k, 1000));
        }
    },
        || {
        for k in 0..head_loops {
            black_box(black_box(fare).slice(k, 1000));
        }
    },
    );
    push("slice_head_1000_x200", seed, fast);

    // Frame-level slice across all six columns (strings included).
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        for k in 0..head_loops {
            black_box(
                DataFrame::new(
                    frame
                        .series()
                        .iter()
                        .map(|s| Series::new(s.name(), slice_ref(s.column(), k, 1000)))
                        .collect(),
                )
                .unwrap(),
            );
        }
    },
        || {
        for k in 0..head_loops {
            black_box(black_box(&frame).slice(k, 1000));
        }
    },
    );
    push("slice_frame_1000_x200", seed, fast);

    // -- fillna / cast / sum -------------------------------------------
    assert_col_equiv(
        &fillna_ref(fare, &Scalar::Float(0.0)),
        &fare.fillna(&Scalar::Float(0.0)).unwrap(),
        "fillna",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(fillna_ref(black_box(fare), &Scalar::Float(0.0)));
    },
        || {
        black_box(black_box(fare).fillna(&Scalar::Float(0.0)).unwrap());
    },
    );
    push("fillna_f64", seed, fast);

    assert_col_equiv(
        &cast_ref(key, DType::Float64).expect("int->float casts"),
        &key.cast(DType::Float64).unwrap(),
        "cast",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(cast_ref(black_box(key), DType::Float64).expect("int->float casts"));
    },
        || {
        black_box(black_box(key).cast(DType::Float64).unwrap());
    },
    );
    push("cast_i64_to_f64", seed, fast);

    assert_eq!(sum_ref(fare), fare.sum());
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(sum_ref(black_box(fare)));
    },
        || {
        black_box(black_box(fare).sum());
    },
    );
    push("sum_f64", seed, fast);

    // -- hash join -----------------------------------------------------
    // Right (build) sides: one row per distinct key for the single-key
    // joins, vendor x key combinations for the multi-key join. The
    // left-join side covers only half the keys so misses exercise the
    // null-aware typed gather.
    let vendors = ["CMT", "VTS", "DDS", "NYC", "JUNO", "LYFT"];
    let right_full = DataFrame::new(vec![
        Series::new("key", Column::from_i64((0..100).collect())),
        Series::new(
            "title",
            Column::from_strings((0..100).map(|k| format!("key-title-{k}"))),
        ),
        Series::new("val", Column::from_f64((0..100).map(|k| k as f64 * 0.5).collect())),
    ])
    .unwrap();
    let right_half = DataFrame::new(vec![
        Series::new("key", Column::from_i64((0..50).collect())),
        Series::new(
            "title",
            Column::from_strings((0..50).map(|k| format!("key-title-{k}"))),
        ),
        Series::new("val", Column::from_f64((0..50).map(|k| k as f64 * 0.5).collect())),
    ])
    .unwrap();
    let right_multi = DataFrame::new(vec![
        Series::new(
            "vendor",
            Column::from_strings(vendors.iter().flat_map(|v| std::iter::repeat_n(*v, 100))),
        ),
        Series::new(
            "key",
            Column::from_i64((0..vendors.len() as i64).flat_map(|_| 0..100).collect()),
        ),
        Series::new(
            "boost",
            Column::from_f64((0..vendors.len() * 100).map(|i| i as f64 * 0.25).collect()),
        ),
    ])
    .unwrap();

    let on_key = vec!["key".to_string()];
    let on_multi = vec!["vendor".to_string(), "key".to_string()];
    for (name, right, on, how) in [
        ("join_inner_i64key", &right_full, &on_key, JoinKind::Inner),
        ("join_inner_multikey", &right_multi, &on_multi, JoinKind::Inner),
        ("join_left_i64key", &right_half, &on_key, JoinKind::Left),
    ] {
        assert_frame_equiv(
            &merge(&frame, right, on, how).unwrap(),
            &merge_ref(&frame, right, on, how),
            name,
        );
        let (seed, fast) = best_of_pair_ms(
            iters,
            || {
            black_box(merge_ref(black_box(&frame), right, on, how));
        },
            || {
            black_box(merge(black_box(&frame), right, on, how).unwrap());
        },
        );
        push(name, seed, fast);
    }

    // -- sort ----------------------------------------------------------
    let sort_single = SortOptions::single("fare", true);
    let sort_multi = SortOptions {
        by: vec!["vendor".into(), "fare".into()],
        ascending: vec![true, false],
    };
    for (name, options) in [
        ("sort_single_f64", &sort_single),
        ("sort_multikey_str_f64", &sort_multi),
    ] {
        assert_frame_equiv(
            &sort_values(&frame, options).unwrap(),
            &sort_values_ref(&frame, options),
            name,
        );
        let (seed, fast) = best_of_pair_ms(
            iters,
            || {
            black_box(sort_values_ref(black_box(&frame), options));
        },
            || {
            black_box(sort_values(black_box(&frame), options).unwrap());
        },
        );
        push(name, seed, fast);
    }

    let top_n = 100.min(rows);
    assert_frame_equiv(
        &nlargest(&frame, top_n, "fare").unwrap(),
        &nlargest_ref(&frame, top_n, "fare"),
        "nlargest",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(nlargest_ref(black_box(&frame), top_n, "fare"));
    },
        || {
        black_box(nlargest(black_box(&frame), top_n, "fare").unwrap());
    },
    );
    push("nlargest_100_f64", seed, fast);

    // Sort-then-head as one top-k (the optimizer's rewrite target):
    // two keys in mixed directions against the reference full sort.
    assert_frame_equiv(
        &top_k(&frame, &sort_multi, top_n).unwrap(),
        &sort_values_ref(&frame, &sort_multi).head(top_n),
        "top_k_multikey",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(sort_values_ref(black_box(&frame), &sort_multi).head(top_n));
    },
        || {
        black_box(top_k(black_box(&frame), &sort_multi, top_n).unwrap());
    },
    );
    push("top_k_multikey_100", seed, fast);

    // -- CSV ingestion -------------------------------------------------
    // A mixed-dtype file written once outside the timed region: int id,
    // float fare with empty (null) cells, a string column with quoted
    // commas, and a bool flag.
    let csv_path = std::env::temp_dir().join(format!(
        "lafp-kernel-bench-{rows}-{}.csv",
        std::process::id()
    ));
    {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).unwrap());
        writeln!(w, "id,fare,city,ok").unwrap();
        for i in 0..rows {
            let fare = if i % 50 == 0 {
                String::new()
            } else {
                format!("{:.2}", (i % 977) as f64 * 0.13)
            };
            if i % 7 == 0 {
                writeln!(w, "{i},{fare},\"City, {}\",true", i % 80).unwrap();
            } else {
                writeln!(w, "{i},{fare},City{},false", i % 80).unwrap();
            }
        }
        w.flush().unwrap();
    }
    let csv_options = CsvOptions::new();
    let csv_schema = vec![
        ("id".to_string(), DType::Int64),
        ("fare".to_string(), DType::Float64),
        ("city".to_string(), DType::Utf8),
        ("ok".to_string(), DType::Bool),
    ];
    assert_frame_equiv(
        &read_csv(&csv_path, &csv_options).unwrap(),
        &read_csv_ref(&csv_path, &csv_schema),
        "read_csv",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
        black_box(read_csv_ref(black_box(&csv_path), &csv_schema));
    },
        || {
        black_box(read_csv(black_box(&csv_path), &csv_options).unwrap());
    },
    );
    push("read_csv_mixed", seed, fast);
    std::fs::remove_file(&csv_path).ok();

    // A 22-column taxi-shaped file read the way the column-selection
    // rewrite reads it: 3 kept columns, one of them parsed as datetimes.
    // The reference tokenizes and boxes every field, then projects.
    let nyt_rows = (rows / 4).max(1);
    let nyt_path = std::env::temp_dir().join(format!(
        "lafp-kernel-bench-nyt-{nyt_rows}-{}.csv",
        std::process::id()
    ));
    let nyt_schema: Vec<(String, DType)> = [
        ("vendor_id", DType::Int64),
        ("tpep_pickup_datetime", DType::Datetime),
        ("tpep_dropoff_datetime", DType::Datetime),
        ("passenger_count", DType::Int64),
        ("trip_distance", DType::Float64),
        ("rate_code", DType::Int64),
        ("store_and_fwd_flag", DType::Utf8),
        ("pu_location", DType::Int64),
        ("do_location", DType::Int64),
        ("payment_type", DType::Int64),
        ("fare_amount", DType::Float64),
        ("extra", DType::Float64),
        ("mta_tax", DType::Float64),
        ("tip_amount", DType::Float64),
        ("tolls_amount", DType::Float64),
        ("improvement_surcharge", DType::Float64),
        ("total_amount", DType::Float64),
        ("congestion_surcharge", DType::Float64),
        ("airport_fee", DType::Float64),
        ("trip_type", DType::Int64),
        ("ehail_fee", DType::Float64),
        ("note", DType::Utf8),
    ]
    .map(|(name, dt)| (name.to_string(), dt))
    .to_vec();
    {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&nyt_path).unwrap());
        let names: Vec<&str> = nyt_schema.iter().map(|(n, _)| n.as_str()).collect();
        writeln!(w, "{}", names.join(",")).unwrap();
        for i in 0..nyt_rows {
            let stamp = |k: usize| {
                lafp_columnar::value::format_datetime(
                    1_704_067_200 + ((i * 7_919 + k) % 31_536_000) as i64,
                )
            };
            let fare = (i % 1_000) as f64 * 0.1 - 5.0;
            writeln!(
                w,
                "{},{},{},{},{:.2},{},{},{},{},{},{fare:.2},{:.2},0.50,{:.2},{:.2},0.30,{:.2},{:.2},{:.2},{},{:.2},trip-note-{i}",
                1 + i % 2,
                stamp(0),
                stamp(900),
                1 + i % 6,
                (i % 400) as f64 * 0.1,
                1 + i % 6,
                if i % 2 == 0 { "Y" } else { "N" },
                1 + i % 265,
                1 + (i * 7) % 265,
                1 + i % 4,
                (i % 300) as f64 * 0.01,
                (i % 2_000) as f64 * 0.01,
                (i % 1_000) as f64 * 0.01,
                fare + (i % 3_000) as f64 * 0.01,
                (i % 275) as f64 * 0.01,
                (i % 500) as f64 * 0.01,
                1 + i % 2,
                (i % 100) as f64 * 0.01,
            )
            .unwrap();
        }
        w.flush().unwrap();
    }
    let kept = ["tpep_pickup_datetime", "passenger_count", "fare_amount"].map(String::from);
    let nyt_options = CsvOptions::new()
        .with_usecols(kept.to_vec())
        .with_parse_dates(vec!["tpep_pickup_datetime".into()]);
    assert_frame_equiv(
        &read_csv(&nyt_path, &nyt_options).unwrap(),
        &read_csv_ref(&nyt_path, &nyt_schema).select(&kept).unwrap(),
        "read_csv_projected",
    );
    let (seed, fast) = best_of_pair_ms(
        iters,
        || {
            black_box(
                read_csv_ref(black_box(&nyt_path), &nyt_schema)
                    .select(&kept)
                    .unwrap(),
            );
        },
        || {
            black_box(read_csv(black_box(&nyt_path), &nyt_options).unwrap());
        },
    );
    push("read_csv_projected", seed, fast);
    std::fs::remove_file(&nyt_path).ok();

    results
}

// ---------------------------------------------------------------------------
// String representation benches (arena vs Arc<str>)
// ---------------------------------------------------------------------------

/// The PR 2–4 `Arc<str>` string gather, reproduced verbatim as the PR 5
/// baseline: contiguous ascending runs bulk-extend the `Arc` slice, but
/// every output row still pays one atomic refcount increment.
fn gather_arcs_ref(data: &[Arc<str>], indices: &[usize]) -> Vec<Arc<str>> {
    let n = indices.len();
    let mut out: Vec<Arc<str>> = Vec::with_capacity(n);
    let mut k = 0;
    while k < n {
        let start = indices[k];
        let mut run = 1;
        while k + run < n && indices[k + run] == start + run {
            run += 1;
        }
        if run >= 4 {
            out.extend_from_slice(&data[start..start + run]);
        } else {
            for r in 0..run {
                out.push(Arc::clone(&data[start + r]));
            }
        }
        k += run;
    }
    out
}

/// Run the string-representation suite: arena-backed Utf8 kernels raced
/// against the `Arc<str>` storage they replaced, on identical values.
/// Each pair is checked for value equivalence before timing. The gather
/// benches are the join-assembly cost model: `utf8_take_join_runs` uses
/// the ascending-run index shape an FK-join probe emits, and
/// `utf8_take_random` is the worst case with no runs to collapse.
pub fn run_string_suite(rows: usize, iters: usize) -> Vec<StringBenchResult> {
    // Realistic mixed-width values: mostly short city-style strings with
    // a longer tail every 13th row.
    let values: Vec<String> = (0..rows)
        .map(|i| {
            if i % 13 == 0 {
                format!("metropolitan-area-{}-{}", i % 997, i % 7)
            } else {
                format!("city-{:04}", i % 997)
            }
        })
        .collect();
    let arena_col = Column::from_strings(&values);
    let arc_col: Vec<Arc<str>> = values.iter().map(|s| Arc::from(s.as_str())).collect();

    // Index vectors: an FK-join-shaped one (ascending runs of ~8 rows
    // per matched key) and a pseudo-random one (no runs to collapse).
    let mut join_runs: Vec<usize> = Vec::with_capacity(rows);
    let mut start = 0usize;
    while join_runs.len() < rows {
        let run = 4 + (start % 9);
        for r in 0..run.min(rows - join_runs.len()) {
            join_runs.push((start + r) % rows);
        }
        start = (start + run * 7) % rows;
    }
    let random: Vec<usize> = (0..rows)
        .map(|i| (i.wrapping_mul(2654435761)) % rows)
        .collect();

    let mut results = Vec::new();
    let mut push = |name: &str, arc_ms: f64, arena_ms: f64| {
        results.push(StringBenchResult {
            name: name.to_string(),
            arc_ms,
            arena_ms,
            speedup: arc_ms / arena_ms,
        });
    };

    for (name, indices) in [
        ("utf8_take_join_runs", &join_runs),
        ("utf8_take_random", &random),
    ] {
        let gathered = arena_col.take(indices).unwrap();
        let reference = gather_arcs_ref(&arc_col, indices);
        assert_eq!(gathered.len(), reference.len(), "{name}: length");
        for (i, r) in reference.iter().enumerate() {
            assert_eq!(gathered.get(i), Scalar::Str(r.to_string()), "{name}: row {i}");
        }
        let (arc_ms, arena_ms) = best_of_pair_ms(
            iters,
            || {
                // Same bounds scan Column::take performs.
                assert!(indices.iter().all(|&i| i < arc_col.len()));
                black_box(gather_arcs_ref(black_box(&arc_col), indices));
            },
            || {
                black_box(black_box(&arena_col).take(indices).unwrap());
            },
        );
        push(name, arc_ms, arena_ms);
    }

    // Filter: alternating keep mask (runs of one — per-row memcpy vs
    // per-row refcount bump).
    let mask = Bitmap::from_iter((0..rows).map(|i| i % 2 == 0));
    let (arc_ms, arena_ms) = best_of_pair_ms(
        iters,
        || {
            let mut out: Vec<Arc<str>> = Vec::with_capacity(rows / 2);
            mask.for_each_set(|i| out.push(Arc::clone(&arc_col[i])));
            black_box(out);
        },
        || {
            black_box(black_box(&arena_col).filter(&mask).unwrap());
        },
    );
    push("utf8_filter_alternate", arc_ms, arena_ms);

    // Slice (head-style): arena slices share the byte buffer zero-copy,
    // the Arc representation clones a pointer per row.
    let head_loops = 200usize;
    let slice_len = (rows / 2).max(1);
    let (arc_ms, arena_ms) = best_of_pair_ms(
        iters,
        || {
            for k in 0..head_loops {
                let s = k.min(rows - slice_len.min(rows));
                black_box(arc_col[s..s + slice_len].to_vec());
            }
        },
        || {
            for k in 0..head_loops {
                let s = k.min(rows - slice_len.min(rows));
                black_box(black_box(&arena_col).slice(s, slice_len));
            }
        },
    );
    push("utf8_slice_half_x200", arc_ms, arena_ms);

    results
}

/// Run the morsel-parallel kernels at one worker vs `threads` workers —
/// the per-PR parallel-scaling trajectory. Each pair is checked for
/// result equivalence before timing (float aggregates within 1e-12
/// relative, everything else exact).
pub fn run_parallel_suite(rows: usize, iters: usize, threads: usize) -> Vec<ParallelBenchResult> {
    let frame = kernel_frame(rows);
    let pool1 = WorkerPool::new(1);
    let pooln = WorkerPool::new(threads);
    let mut results = Vec::new();
    let mut push = |name: &str, t1: f64, tn: f64| {
        results.push(ParallelBenchResult {
            name: name.to_string(),
            t1_ms: t1,
            tn_ms: tn,
            threads,
            speedup: t1 / tn,
        });
    };

    // -- group-by ------------------------------------------------------
    let spec = GroupBySpec {
        keys: vec!["key".into()],
        value: "fare".into(),
        agg: AggKind::Sum,
    };
    assert_frame_close(
        &group_by_par(&frame, &spec, &pooln).unwrap(),
        &group_by(&frame, &spec).unwrap(),
        1e-12,
        "par groupby",
    );
    let (t1, tn) = best_of_pair_ms(
        iters,
        || {
            black_box(group_by_par(black_box(&frame), &spec, &pool1).unwrap());
        },
        || {
            black_box(group_by_par(black_box(&frame), &spec, &pooln).unwrap());
        },
    );
    push("par_groupby_i64key_sum_f64", t1, tn);

    let multi = GroupBySpec {
        keys: vec!["vendor".into(), "key".into()],
        value: "tip".into(),
        agg: AggKind::Mean,
    };
    let (t1, tn) = best_of_pair_ms(
        iters,
        || {
            black_box(group_by_par(black_box(&frame), &multi, &pool1).unwrap());
        },
        || {
            black_box(group_by_par(black_box(&frame), &multi, &pooln).unwrap());
        },
    );
    push("par_groupby_multikey_mean_f64", t1, tn);

    // -- join ----------------------------------------------------------
    let right = DataFrame::new(vec![
        Series::new("key", Column::from_i64((0..100).collect())),
        Series::new(
            "title",
            Column::from_strings((0..100).map(|k| format!("key-title-{k}"))),
        ),
        Series::new("val", Column::from_f64((0..100).map(|k| k as f64 * 0.5).collect())),
    ])
    .unwrap();
    let on_key = vec!["key".to_string()];
    assert_frame_close(
        &merge_par(&frame, &right, &on_key, JoinKind::Inner, &pooln).unwrap(),
        &merge(&frame, &right, &on_key, JoinKind::Inner).unwrap(),
        0.0,
        "par join",
    );
    let (t1, tn) = best_of_pair_ms(
        iters,
        || {
            black_box(merge_par(black_box(&frame), &right, &on_key, JoinKind::Inner, &pool1).unwrap());
        },
        || {
            black_box(merge_par(black_box(&frame), &right, &on_key, JoinKind::Inner, &pooln).unwrap());
        },
    );
    push("par_join_inner_i64key", t1, tn);

    // -- sort ----------------------------------------------------------
    let sort_single = SortOptions::single("fare", true);
    let sort_multi = SortOptions {
        by: vec!["vendor".into(), "fare".into()],
        ascending: vec![true, false],
    };
    for (name, options) in [
        ("par_sort_single_f64", &sort_single),
        ("par_sort_multikey_str_f64", &sort_multi),
    ] {
        assert_frame_close(
            &sort_values_par(&frame, options, &pooln).unwrap(),
            &sort_values(&frame, options).unwrap(),
            0.0,
            name,
        );
        let (t1, tn) = best_of_pair_ms(
            iters,
            || {
                black_box(sort_values_par(black_box(&frame), options, &pool1).unwrap());
            },
            || {
                black_box(sort_values_par(black_box(&frame), options, &pooln).unwrap());
            },
        );
        push(name, t1, tn);
    }

    // -- CSV ingestion -------------------------------------------------
    let csv_path = std::env::temp_dir().join(format!(
        "lafp-parallel-bench-{rows}-{}.csv",
        std::process::id()
    ));
    {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).unwrap());
        writeln!(w, "id,fare,city,ok").unwrap();
        for i in 0..rows {
            let fare = if i % 50 == 0 {
                String::new()
            } else {
                format!("{:.2}", (i % 977) as f64 * 0.13)
            };
            if i % 7 == 0 {
                writeln!(w, "{i},{fare},\"City, {}\",true", i % 80).unwrap();
            } else {
                writeln!(w, "{i},{fare},City{},false", i % 80).unwrap();
            }
        }
        w.flush().unwrap();
    }
    let csv_options = CsvOptions::new();
    assert_frame_close(
        &read_csv_par(&csv_path, &csv_options, &pooln).unwrap(),
        &read_csv(&csv_path, &csv_options).unwrap(),
        0.0,
        "par csv",
    );
    let (t1, tn) = best_of_pair_ms(
        iters,
        || {
            black_box(read_csv_par(black_box(&csv_path), &csv_options, &pool1).unwrap());
        },
        || {
            black_box(read_csv_par(black_box(&csv_path), &csv_options, &pooln).unwrap());
        },
    );
    push("par_read_csv_mixed", t1, tn);
    std::fs::remove_file(&csv_path).ok();

    results
}

// ---------------------------------------------------------------------------
// Pipelined-executor benches (scan overlap vs blocking drain)
// ---------------------------------------------------------------------------

/// Run streaming Dask queries with the CSV scan overlapped against
/// downstream operator morsels (`pipeline_scan = true`, the default)
/// vs the blocking parse-everything-then-drain schedule, on the same
/// engine pool. Both sides are checked for row-hash equality before
/// timing. On a single-core host the overlap cannot beat the blocking
/// drain; the artifact still records the trajectory point.
pub fn run_pipeline_suite(rows: usize, iters: usize, threads: usize) -> Vec<PipelineBenchResult> {
    // The scan source: mixed dtypes with a low-cardinality group key, a
    // float measure, and a quoted-comma string column so the parse side
    // does realistic work.
    let csv_path = std::env::temp_dir().join(format!(
        "lafp-pipeline-bench-{rows}-{}.csv",
        std::process::id()
    ));
    {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).unwrap());
        writeln!(w, "id,day,fare,city,ok").unwrap();
        for i in 0..rows {
            let fare = if i % 50 == 0 {
                String::new()
            } else {
                format!("{:.2}", (i % 977) as f64 * 0.13)
            };
            if i % 7 == 0 {
                writeln!(w, "{i},{},{fare},\"City, {}\",true", i % 31, i % 80).unwrap();
            } else {
                writeln!(w, "{i},{},{fare},City{},false", i % 31, i % 80).unwrap();
            }
        }
        w.flush().unwrap();
    }

    // Build the query graph on a fresh engine; morsels small enough that
    // the scan emits many chunks for the pipeline to overlap.
    let chunk_rows = (rows / 64).clamp(1024, 65_536);
    let build = |e: &mut DaskEngine, query: &str| {
        let s = e.add(
            DaskOp::ReadCsv {
                path: csv_path.clone(),
                options: CsvOptions::new(),
                limit: None,
            },
            vec![],
        );
        match query {
            "filter_groupby" => {
                let f = e.add(
                    DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(10.0))),
                    vec![s],
                );
                e.add(
                    DaskOp::GroupByAgg(GroupBySpec {
                        keys: vec!["day".into()],
                        value: "fare".into(),
                        agg: AggKind::Sum,
                    }),
                    vec![f],
                )
            }
            "groupby_multikey" => e.add(
                DaskOp::GroupByAgg(GroupBySpec {
                    keys: vec!["city".into(), "day".into()],
                    value: "fare".into(),
                    agg: AggKind::Mean,
                }),
                vec![s],
            ),
            _ => unreachable!(),
        }
    };
    let run = |query: &str, pipelined: bool| -> DataFrame {
        let mut e = DaskEngine::with_threads(MemoryTracker::unlimited(), chunk_rows, threads);
        e.pipeline_scan = pipelined;
        let root = build(&mut e, query);
        let (v, _r) = e.compute(root).unwrap();
        v.into_frame().unwrap()
    };

    let mut results = Vec::new();
    for query in ["filter_groupby", "groupby_multikey"] {
        let piped = run(query, true);
        let blocking = run(query, false);
        assert_eq!(
            piped.row_hashes(&[]).unwrap(),
            blocking.row_hashes(&[]).unwrap(),
            "pipe_scan_{query}: pipelined vs blocking result"
        );
        let (blocking_ms, pipelined_ms) = best_of_pair_ms(
            iters,
            || {
                black_box(run(black_box(query), false));
            },
            || {
                black_box(run(black_box(query), true));
            },
        );
        results.push(PipelineBenchResult {
            name: format!("pipe_scan_{query}"),
            blocking_ms,
            pipelined_ms,
            threads,
            speedup: blocking_ms / pipelined_ms,
        });
    }
    std::fs::remove_file(&csv_path).ok();
    results
}

// ---------------------------------------------------------------------------
// Chain-fusion benches (fused per-morsel operator runs vs one frame per op)
// ---------------------------------------------------------------------------

/// Run streaming Dask queries with maximal row-local operator runs fused
/// into a single pass per morsel (`fuse_chains = true`, the default) vs
/// the one-intermediate-frame-per-operator schedule, on the same engine
/// pool. The source is a pre-materialized frame scattered into morsels
/// (`FromFrame`), so the race times the chains themselves rather than
/// the CSV parse that dominates a scan-fed query on both sides alike.
/// Both sides are checked for result equality before timing, and the
/// fused side is checked to materialize zero intermediate frames.
pub fn run_fusion_suite(rows: usize, iters: usize, threads: usize) -> Vec<FusionBenchResult> {
    // A fat source frame in the paper's taxi-scan shape — a
    // low-cardinality group key, a float measure with nulls, and seven
    // passenger columns the canonical chains never read, so the backward
    // liveness pass has real dead weight to prune (the unfused path must
    // gather every column at every hop) — parsed once up front and
    // shared across runs.
    let csv_path = std::env::temp_dir().join(format!(
        "lafp-fusion-bench-{rows}-{}.csv",
        std::process::id()
    ));
    {
        use std::io::Write as _;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&csv_path).unwrap());
        writeln!(w, "id,day,fare,city,ok,lon,lat,tip,vendor,flag").unwrap();
        for i in 0..rows {
            let fare = if i % 50 == 0 {
                String::new()
            } else {
                format!("{:.2}", (i % 977) as f64 * 0.13)
            };
            let city = if i % 7 == 0 {
                format!("\"City, {}\"", i % 80)
            } else {
                format!("City{}", i % 80)
            };
            writeln!(
                w,
                "{i},{},{fare},{city},{},{:.4},{:.4},{:.2},V{},{}",
                i % 31,
                i % 2 == 0,
                -74.0 + (i % 500) as f64 * 0.001,
                40.7 + (i % 300) as f64 * 0.001,
                (i % 53) as f64 * 0.25,
                i % 5,
                i % 97,
            )
            .unwrap();
        }
        w.flush().unwrap();
    }
    let source = Arc::new(read_csv(&csv_path, &CsvOptions::new()).unwrap());
    std::fs::remove_file(&csv_path).ok();

    let chunk_rows = (rows / 64).clamp(1024, 65_536);
    let build = |e: &mut DaskEngine, query: &str| {
        let s = e.add(DaskOp::FromFrame(Arc::clone(&source)), vec![]);
        match query {
            // The canonical acceptance chain: filter -> with_column ->
            // select -> group-by, all absorbed into one fused pass.
            "filter_withcol_select_groupby" => {
                let f = e.add(
                    DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(10.0))),
                    vec![s],
                );
                let w = e.add(
                    DaskOp::WithColumn(
                        "fare2".into(),
                        Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(1.1)),
                    ),
                    vec![f],
                );
                let p = e.add(DaskOp::Select(vec!["day".into(), "fare2".into()]), vec![w]);
                e.add(
                    DaskOp::GroupByAgg(GroupBySpec {
                        keys: vec!["day".into()],
                        value: "fare2".into(),
                        agg: AggKind::Sum,
                    }),
                    vec![p],
                )
            }
            // Adjacent filters collapse into one selection bitmap, fed
            // straight into a scalar reduction — no gather at all.
            "two_filters_reduce" => {
                let f1 = e.add(
                    DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(10.0))),
                    vec![s],
                );
                let f2 = e.add(
                    DaskOp::Filter(Expr::col("day").lt(Expr::lit_int(20))),
                    vec![f1],
                );
                e.add(
                    DaskOp::Reduce {
                        column: "fare".into(),
                        agg: AggKind::Sum,
                    },
                    vec![f2],
                )
            }
            // A fused chain whose output is a materialized frame: the
            // single gather at the chain tail replaces three per-op ones.
            "filter_withcol_drop_frame" => {
                let f = e.add(
                    DaskOp::Filter(Expr::col("fare").gt(Expr::lit_float(100.0))),
                    vec![s],
                );
                let w = e.add(
                    DaskOp::WithColumn(
                        "half".into(),
                        Expr::col("fare").arith(ArithOp::Mul, Expr::lit_float(0.5)),
                    ),
                    vec![f],
                );
                e.add(
                    DaskOp::DropColumns(vec!["city".into(), "ok".into()]),
                    vec![w],
                )
            }
            _ => unreachable!(),
        }
    };
    let fingerprint = |v: DaskValue| -> String {
        match v {
            DaskValue::Frame(f) => {
                format!("{:?}:{:?}", f.column_names(), f.row_hashes(&[]).unwrap())
            }
            DaskValue::Scalar(s) => format!("{s:?}"),
        }
    };
    let run = |query: &str, fused: bool| -> String {
        let mut e = DaskEngine::with_threads(MemoryTracker::unlimited(), chunk_rows, threads);
        e.fuse_chains = fused;
        let root = build(&mut e, query);
        let (v, _r) = e.compute(root).unwrap();
        if fused {
            let stats = e.fusion_stats();
            assert!(stats.chains >= 1, "fuse_{query}: chain not planned");
            assert_eq!(
                stats.intermediate_frames, 0,
                "fuse_{query}: fused run materialized intermediate frames"
            );
        }
        fingerprint(v)
    };

    let mut results = Vec::new();
    for query in [
        "filter_withcol_select_groupby",
        "two_filters_reduce",
        "filter_withcol_drop_frame",
    ] {
        let fused = run(query, true);
        let unfused = run(query, false);
        assert_eq!(fused, unfused, "fuse_{query}: fused vs unfused result");
        let (unfused_ms, fused_ms) = best_of_pair_ms(
            iters,
            || {
                black_box(run(black_box(query), false));
            },
            || {
                black_box(run(black_box(query), true));
            },
        );
        results.push(FusionBenchResult {
            name: format!("fuse_{query}"),
            unfused_ms,
            fused_ms,
            threads,
            speedup: unfused_ms / fused_ms,
        });
    }
    results
}

// ---------------------------------------------------------------------------
// Encoded-execution benches (Dict/Rle kernels vs decode-then-compute)
// ---------------------------------------------------------------------------

/// Race kernels operating directly on encoded columns against the
/// decode-then-compute strategy on the same logical data: a
/// low-cardinality dictionary key through the code-keyed dense group-by
/// and the rank-table sort, a long-run RLE column through the
/// once-per-run filter, and an encoded frame through the LAFPSPL1 spill
/// round-trip. Each pair is checked for result equality before timing,
/// and the decode cost is *inside* the decoded side's timed region —
/// that is the strategy an encoding-oblivious engine actually pays.
pub fn run_encoding_suite(rows: usize, iters: usize) -> Vec<EncodingBenchResult> {
    use lafp_columnar::spill::{spill_frame, SpillDir};

    // Low-cardinality string key (32 merchants, padded so the decoded
    // arena is fat) with an i64 measure — the paper's groupby shape.
    let keys: Vec<String> = (0..rows)
        .map(|i| format!("merchant-{:04}-of-the-fleet", i % 32))
        .collect();
    let plain_key = Column::from_strings(&keys);
    drop(keys);
    let dict_key =
        lafp_columnar::encoding::dict_encode(&plain_key).expect("32 entries fit the cap");
    let values = Column::from_opt_i64((0..rows).map(|i| Some((i % 1009) as i64)).collect());
    let enc_frame = DataFrame::new(vec![
        Series::new("k", dict_key.clone()),
        Series::new("v", values.clone()),
    ])
    .unwrap();
    let spec = GroupBySpec {
        keys: vec!["k".into()],
        value: "v".into(),
        agg: AggKind::Sum,
    };
    let decode_then_group = |frame: &DataFrame| -> DataFrame {
        let plain = DataFrame::new(vec![
            Series::new("k", frame.column("k").unwrap().column().decode()),
            Series::new("v", frame.column("v").unwrap().column().clone()),
        ])
        .unwrap();
        group_by(&plain, &spec).unwrap()
    };

    let mut results = Vec::new();
    let mut race = |name: &str, mut decoded: Box<dyn FnMut()>, mut encoded: Box<dyn FnMut()>| {
        let (decoded_ms, encoded_ms) = best_of_pair_ms(iters, &mut *decoded, &mut *encoded);
        results.push(EncodingBenchResult {
            name: name.into(),
            decoded_ms,
            encoded_ms,
            speedup: decoded_ms / encoded_ms,
        });
    };

    // Group-by: dense code-indexed states vs decode + hash-table probe.
    assert_eq!(
        group_by(&enc_frame, &spec).unwrap().row_hashes(&[]).unwrap(),
        decode_then_group(&enc_frame).row_hashes(&[]).unwrap(),
        "enc_groupby_dict_codes: encoded result diverges"
    );
    {
        let f = enc_frame.clone();
        let g = enc_frame.clone();
        let gspec = spec.clone();
        race(
            "enc_groupby_dict_codes",
            Box::new(move || {
                black_box(decode_then_group(black_box(&f)));
            }),
            Box::new(move || {
                black_box(group_by(black_box(&g), &gspec).unwrap());
            }),
        );
    }

    // Sort: dictionary rank table vs decode + byte-wise comparator.
    let sort_opts = SortOptions {
        by: vec!["k".into()],
        ascending: vec![true],
    };
    let plain_frame = DataFrame::new(vec![
        Series::new("k", plain_key.clone()),
        Series::new("v", values.clone()),
    ])
    .unwrap();
    assert_eq!(
        sort_values(&enc_frame, &sort_opts)
            .unwrap()
            .column("v")
            .unwrap()
            .column(),
        sort_values(&plain_frame, &sort_opts)
            .unwrap()
            .column("v")
            .unwrap()
            .column(),
        "enc_sort_dict_ranks: encoded sort diverges"
    );
    {
        let f = enc_frame.clone();
        let g = enc_frame.clone();
        let (a, b) = (sort_opts.clone(), sort_opts);
        race(
            "enc_sort_dict_ranks",
            Box::new(move || {
                let plain = DataFrame::new(vec![
                    Series::new("k", f.column("k").unwrap().column().decode()),
                    Series::new("v", f.column("v").unwrap().column().clone()),
                ])
                .unwrap();
                black_box(sort_values(black_box(&plain), &a).unwrap());
            }),
            Box::new(move || {
                black_box(sort_values(black_box(&g), &b).unwrap());
            }),
        );
    }

    // Filter: one predicate evaluation per run, run-aligned bitmap
    // append vs decode + per-row comparison. Runs of ~1000 rows.
    let run_len = (rows / 1024).max(2);
    let rle = {
        let col = Column::from_opt_i64(
            (0..rows).map(|i| Some(((i / run_len) % 16) as i64)).collect(),
        );
        lafp_columnar::encoding::rle_encode(&col).expect("long runs encode")
    };
    let pivot = Scalar::Int(8);
    {
        let enc_mask = rle.compare_scalar(CmpOp::Lt, &pivot).unwrap();
        let plain_mask = rle.decode().compare_scalar(CmpOp::Lt, &pivot).unwrap();
        assert_eq!(
            enc_mask.count_set(),
            plain_mask.count_set(),
            "enc_filter_rle_runs: encoded mask diverges"
        );
        assert_eq!(
            rle.filter(&enc_mask).unwrap().decode(),
            rle.decode().filter(&plain_mask).unwrap(),
            "enc_filter_rle_runs: encoded filter diverges"
        );
    }
    {
        let (a, b) = (rle.clone(), rle.clone());
        let (pa, pb) = (pivot.clone(), pivot);
        race(
            "enc_filter_rle_runs",
            Box::new(move || {
                let plain = a.decode();
                let mask = plain.compare_scalar(CmpOp::Lt, &pa).unwrap();
                black_box(plain.filter(black_box(&mask)).unwrap());
            }),
            Box::new(move || {
                let mask = b.compare_scalar(CmpOp::Lt, &pb).unwrap();
                black_box(b.filter(black_box(&mask)).unwrap());
            }),
        );
    }

    // Spill: LAFPSPL1 serializes codes + dictionary / run list natively,
    // so the encoded round-trip moves far fewer bytes than the decoded
    // frame's arena. Round-trip equality doubles as the format check.
    let spill_src = DataFrame::new(vec![
        Series::new("k", dict_key),
        Series::new("r", rle),
    ])
    .unwrap();
    let spill_plain = DataFrame::new(vec![
        Series::new("k", spill_src.column("k").unwrap().column().decode()),
        Series::new("r", spill_src.column("r").unwrap().column().decode()),
    ])
    .unwrap();
    {
        let dir = SpillDir::in_temp();
        let file = spill_frame(&dir, &spill_src).unwrap();
        let back = file.read_all().unwrap();
        assert_eq!(
            back[0].column("k").unwrap().column(),
            spill_src.column("k").unwrap().column(),
            "encoded spill must round-trip bit-identically"
        );
        let plain_file = spill_frame(&dir, &spill_plain).unwrap();
        assert!(
            file.payload_bytes() < plain_file.payload_bytes(),
            "encoded spill should move fewer bytes ({} vs {})",
            file.payload_bytes(),
            plain_file.payload_bytes()
        );
    }
    {
        let dir = Arc::new(SpillDir::in_temp());
        let (a, b) = (spill_plain, spill_src);
        race(
            "enc_spill_roundtrip",
            Box::new({
                let dir = Arc::clone(&dir);
                move || {
                    let file = spill_frame(&dir, &a).unwrap();
                    black_box(file.read_all().unwrap());
                }
            }),
            Box::new(move || {
                let file = spill_frame(&dir, &b).unwrap();
                black_box(file.read_all().unwrap());
            }),
        );
    }

    results
}

// ---------------------------------------------------------------------------
// Partition-assembly benches (n-way concat vs pairwise fold)
// ---------------------------------------------------------------------------

/// Race one n-way [`Column::concat_many`] against the pairwise left fold
/// of [`Column::concat`] over `rows` rows split into 8192-row parts (the
/// Dask engine's default partition size), for an i64 column with nulls,
/// a mixed-width string column, per-part `Dict` columns (distinct
/// dictionaries, as the chunked CSV scan produces) and a category
/// column (parts sharing one dictionary). Each pair is checked for
/// equality (structural for the dictionary kinds) before timing.
pub fn run_concat_suite(rows: usize, iters: usize) -> Vec<ConcatBenchResult> {
    use lafp_columnar::encoding::dict_encode;

    const PART_ROWS: usize = 8192;
    let split = |col: &Column| -> Vec<Column> {
        (0..rows.div_ceil(PART_ROWS))
            .map(|k| col.slice(k * PART_ROWS, PART_ROWS))
            .collect()
    };
    let merchants =
        Column::from_strings((0..rows).map(|i| format!("merchant-{:02}-of-the-fleet", i % 32)));
    let cases: Vec<(&str, Vec<Column>)> = vec![
        (
            "concat_i64",
            split(&Column::from_opt_i64(
                (0..rows)
                    .map(|i| (i % 97 != 0).then_some(i as i64))
                    .collect(),
            )),
        ),
        (
            "concat_utf8",
            split(&Column::from_strings(
                (0..rows).map(|i| format!("city-{:04}", i % 997)),
            )),
        ),
        (
            "concat_dict",
            split(&merchants)
                .iter()
                .map(|p| dict_encode(p).expect("32 entries fit the cap"))
                .collect(),
        ),
        (
            "concat_categorical",
            split(&merchants.to_categorical().unwrap()),
        ),
    ];
    let fold = |parts: &[Column]| -> Column {
        parts[1..]
            .iter()
            .fold(parts[0].clone(), |acc, p| acc.concat(p).unwrap())
    };
    let mut results = Vec::new();
    for (name, parts) in cases {
        let refs: Vec<&Column> = parts.iter().collect();
        let nway = Column::concat_many(&refs).unwrap();
        let pairwise = fold(&parts);
        assert_col_equiv(&nway, &pairwise, name);
        if matches!(nway, Column::Dict(..)) {
            assert_eq!(
                nway, pairwise,
                "{name}: n-way layout diverges from the fold"
            );
        }
        let (pairwise_ms, nway_ms) = best_of_pair_ms(
            iters,
            || {
                black_box(fold(black_box(&parts)));
            },
            || {
                black_box(Column::concat_many(black_box(&refs)).unwrap());
            },
        );
        results.push(ConcatBenchResult {
            name: name.to_string(),
            pairwise_ms,
            nway_ms,
            parts: parts.len(),
            speedup: pairwise_ms / nway_ms,
        });
    }
    results
}

/// The per-suite result slices of one bench run, bundled for rendering.
/// Optional suites left empty are omitted from the artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchSections<'a> {
    /// The seed-vs-vectorized kernel races (the mandatory section).
    pub benches: &'a [BenchResult],
    /// The arena-vs-`Arc<str>` string kernel races.
    pub strings: &'a [StringBenchResult],
    /// The 1-worker-vs-N pool kernel races.
    pub parallel: &'a [ParallelBenchResult],
    /// The pipelined-scan-vs-blocking-drain query races.
    pub pipeline: &'a [PipelineBenchResult],
    /// The fused-chain-vs-per-operator query races.
    pub fusion: &'a [FusionBenchResult],
    /// The encoded-kernel-vs-decode-then-compute races.
    pub encoding: &'a [EncodingBenchResult],
    /// The n-way-concat-vs-pairwise-fold partition-assembly races.
    pub concat: &'a [ConcatBenchResult],
}

/// Render the results as the `BENCH_PR<N>.json` trajectory artifact.
pub fn render_json(pr: u32, rows: usize, iters: usize, sections: &BenchSections<'_>) -> String {
    let BenchSections {
        benches: results,
        strings,
        parallel,
        pipeline,
        fusion,
        encoding,
        concat,
    } = *sections;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"pr\": {pr},\n"));
    out.push_str(&format!("  \"rows\": {rows},\n"));
    out.push_str(&format!("  \"iters\": {iters},\n"));
    out.push_str(&format!(
        "  \"host_threads\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(
        "  \"reference\": \"seed-era (PR 1) scalar-boxed kernels, re-implemented in \
         lafp-bench::kernel_bench and raced in the same process\",\n",
    );
    // Render each present section as `"key": [rows]`, then join — one
    // code path no matter which optional sections exist.
    let section = |key: &str, rows: &[String]| -> String {
        format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n"))
    };
    let mut sections: Vec<String> = Vec::new();
    sections.push(section(
        "benches",
        &results
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"seed_ms\": {:.3}, \"vectorized_ms\": {:.3}, \
                     \"speedup\": {:.2}}}",
                    r.name, r.seed_ms, r.vectorized_ms, r.speedup
                )
            })
            .collect::<Vec<_>>(),
    ));
    if !strings.is_empty() {
        sections.push(section(
            "strings",
            &strings
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"arc_ms\": {:.3}, \"arena_ms\": {:.3}, \
                         \"speedup\": {:.2}}}",
                        r.name, r.arc_ms, r.arena_ms, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    if !parallel.is_empty() {
        sections.push(section(
            "parallel",
            &parallel
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"t1_ms\": {:.3}, \"t{}_ms\": {:.3}, \
                         \"threads\": {}, \"speedup\": {:.2}}}",
                        r.name, r.t1_ms, r.threads, r.tn_ms, r.threads, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    if !pipeline.is_empty() {
        sections.push(section(
            "pipeline",
            &pipeline
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"blocking_ms\": {:.3}, \"pipelined_ms\": {:.3}, \
                         \"threads\": {}, \"speedup\": {:.2}}}",
                        r.name, r.blocking_ms, r.pipelined_ms, r.threads, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    if !fusion.is_empty() {
        sections.push(section(
            "fusion",
            &fusion
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"unfused_ms\": {:.3}, \"fused_ms\": {:.3}, \
                         \"threads\": {}, \"speedup\": {:.2}}}",
                        r.name, r.unfused_ms, r.fused_ms, r.threads, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    if !encoding.is_empty() {
        sections.push(section(
            "encoding",
            &encoding
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"decoded_ms\": {:.3}, \"encoded_ms\": {:.3}, \
                         \"speedup\": {:.2}}}",
                        r.name, r.decoded_ms, r.encoded_ms, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    if !concat.is_empty() {
        sections.push(section(
            "concat",
            &concat
                .iter()
                .map(|r| {
                    format!(
                        "    {{\"name\": \"{}\", \"pairwise_ms\": {:.3}, \"nway_ms\": {:.3}, \
                         \"parts\": {}, \"speedup\": {:.2}}}",
                        r.name, r.pairwise_ms, r.nway_ms, r.parts, r.speedup
                    )
                })
                .collect::<Vec<_>>(),
        ));
    }
    out.push_str(&sections.join(",\n"));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: the suite runs at a small size and every pair agrees (the
    /// equivalence asserts inside `run_suite` are the real test).
    #[test]
    fn suite_smoke() {
        let results = run_suite(2_000, 1);
        assert!(results.len() >= 15);
        for r in &results {
            assert!(r.seed_ms >= 0.0 && r.vectorized_ms > 0.0, "{}", r.name);
        }
        let strings = run_string_suite(2_000, 1);
        assert_eq!(strings.len(), 4);
        for r in &strings {
            assert!(r.arc_ms >= 0.0 && r.arena_ms > 0.0, "{}", r.name);
        }
        let parallel = run_parallel_suite(2_000, 1, 2);
        assert_eq!(parallel.len(), 6);
        for r in &parallel {
            assert!(r.t1_ms > 0.0 && r.tn_ms > 0.0, "{}", r.name);
        }
        let pipeline = run_pipeline_suite(2_000, 1, 2);
        assert_eq!(pipeline.len(), 2);
        for r in &pipeline {
            assert!(r.blocking_ms > 0.0 && r.pipelined_ms > 0.0, "{}", r.name);
        }
        let fusion = run_fusion_suite(2_000, 1, 2);
        assert_eq!(fusion.len(), 3);
        for r in &fusion {
            assert!(r.unfused_ms > 0.0 && r.fused_ms > 0.0, "{}", r.name);
        }
        let encoding = run_encoding_suite(4_096, 1);
        assert_eq!(encoding.len(), 4);
        for r in &encoding {
            assert!(r.decoded_ms > 0.0 && r.encoded_ms > 0.0, "{}", r.name);
        }
        let concat = run_concat_suite(20_000, 1);
        assert_eq!(concat.len(), 4);
        for r in &concat {
            assert_eq!(r.parts, 3, "{}", r.name);
            assert!(r.pairwise_ms > 0.0 && r.nway_ms > 0.0, "{}", r.name);
        }
        let all = BenchSections {
            benches: &results,
            strings: &strings,
            parallel: &parallel,
            pipeline: &pipeline,
            fusion: &fusion,
            encoding: &encoding,
            concat: &concat,
        };
        let json = render_json(4, 2_000, 1, &all);
        assert!(json.contains("\"benches\""));
        assert!(json.contains("groupby_i64key_sum_f64"));
        assert!(json.contains("join_inner_i64key"));
        assert!(json.contains("sort_single_f64"));
        assert!(json.contains("read_csv_mixed"));
        assert!(json.contains("read_csv_projected"));
        assert!(json.contains("\"strings\""));
        assert!(json.contains("utf8_take_join_runs"));
        assert!(json.contains("\"parallel\""));
        assert!(json.contains("par_read_csv_mixed"));
        assert!(json.contains("\"host_threads\""));
        assert!(json.contains("\"pipeline\""));
        assert!(json.contains("pipe_scan_filter_groupby"));
        assert!(json.contains("\"fusion\""));
        assert!(json.contains("fuse_filter_withcol_select_groupby"));
        assert!(json.contains("\"encoding\""));
        assert!(json.contains("enc_groupby_dict_codes"));
        assert!(json.contains("enc_filter_rle_runs"));
        assert!(json.contains("\"concat\""));
        assert!(json.contains("concat_categorical"));
        // Every section shape renders valid JSON-ish structure.
        let no_strings = render_json(4, 2_000, 1, &BenchSections { strings: &[], ..all });
        assert!(!no_strings.contains("\"strings\""));
        assert!(no_strings.contains("\"parallel\""));
        let no_parallel = render_json(
            4,
            2_000,
            1,
            &BenchSections {
                benches: &results,
                strings: &strings,
                ..Default::default()
            },
        );
        assert!(no_parallel.contains("\"strings\""));
        assert!(!no_parallel.contains("\"parallel\""));
        assert!(!no_parallel.contains("\"pipeline\""));
        assert!(!no_parallel.contains("\"fusion\""));
        assert!(!no_parallel.contains("\"encoding\""));
        assert!(!no_parallel.contains("\"concat\""));
    }
}
