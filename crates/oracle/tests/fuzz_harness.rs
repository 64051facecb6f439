//! The differential fuzzer's own test suite: codec round-trips, seeded
//! determinism, fixed-seed batches across the config matrix, replay,
//! and a mutation test proving a planted engine bug is caught and
//! shrunk to a small replayable trace.

use lafp_oracle::fuzz::{
    self, default_configs, gen, shrink, trace, FuzzConfig, Mode, Mutation,
};

/// Codec: decode(encode(decode(bytes))) == decode(bytes) for seeded
/// byte strings and for adversarial short/long ones.
#[test]
fn codec_round_trips() {
    for seed in [42u64, 1337, 7] {
        for case in 0..200 {
            let bytes = gen::seeded_case_bytes(seed, case);
            let t = trace::decode(&bytes);
            let re = trace::decode(&trace::encode(&t));
            assert_eq!(t, re, "seed {seed} case {case}");
        }
    }
    // Adversarial inputs: empty, short, all-0xFF, long junk.
    let mut rng = gen::SplitMix::new(0xC0DEC);
    for len in [0usize, 1, 2, 5, 9, 33, 64, 300] {
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() >> 24) as u8).collect();
        let t = trace::decode(&bytes);
        let re = trace::decode(&trace::encode(&t));
        assert_eq!(t, re, "junk len {len}");
        let t2 = trace::decode(&vec![0xFF; len]);
        assert_eq!(t2, trace::decode(&trace::encode(&t2)), "0xFF len {len}");
    }
}

/// Hex round-trips, including whitespace tolerance and rejection.
#[test]
fn hex_round_trips() {
    let bytes = gen::seeded_case_bytes(42, 0);
    let hex = trace::to_hex(&bytes);
    assert_eq!(trace::from_hex(&hex).as_deref(), Some(&bytes[..]));
    let spaced: String = hex
        .chars()
        .enumerate()
        .flat_map(|(i, c)| if i % 8 == 0 { vec![' ', c] } else { vec![c] })
        .collect();
    assert_eq!(trace::from_hex(&spaced).as_deref(), Some(&bytes[..]));
    assert!(trace::from_hex("abc").is_none(), "odd digit count");
    assert!(trace::from_hex("zz").is_none(), "non-hex digit");
}

/// Seeded byte generation is deterministic and seed-sensitive.
#[test]
fn seeded_bytes_deterministic() {
    assert_eq!(gen::seeded_case_bytes(42, 7), gen::seeded_case_bytes(42, 7));
    assert_ne!(gen::seeded_case_bytes(42, 7), gen::seeded_case_bytes(43, 7));
    assert_ne!(gen::seeded_case_bytes(42, 7), gen::seeded_case_bytes(42, 8));
}

fn assert_batch_clean(seed: u64, cases: u64, configs: &[FuzzConfig]) {
    let report = fuzz::run_batch(seed, cases, configs, Mutation::None);
    assert!(
        report.failures.is_empty(),
        "seed {seed}: {} divergence(s); first: [{}] {}\n  replay: LAFP_FUZZ_REPLAY={}",
        report.failures.len(),
        report.failures[0].config,
        report.failures[0].message,
        report.failures[0].hex_shrunk,
    );
    assert_eq!(report.cases, cases);
}

/// The tier-1 fixed-seed batch: engine and oracle agree across the
/// config matrix. (CI runs larger batches; this keeps `cargo test`
/// fast while still rotating through every config cell.)
#[test]
fn fixed_seed_batch_seed_42() {
    assert_batch_clean(42, 48, &default_configs());
}

#[test]
fn fixed_seed_batch_seed_1337() {
    assert_batch_clean(1337, 48, &default_configs());
}

#[test]
fn fixed_seed_batch_seed_7() {
    assert_batch_clean(7, 48, &default_configs());
}

/// `LAFP_FUZZ_REPLAY=<hex>` support: when the variable is set, this
/// test re-executes the trace against the full config matrix and fails
/// on any divergence — the test-suite door for reproducing CI reports.
#[test]
fn replay_env_trace_if_set() {
    let Ok(hex) = std::env::var(fuzz::REPLAY_ENV) else {
        return;
    };
    let divergences = fuzz::replay_hex(&hex, &default_configs(), Mutation::None)
        .expect("LAFP_FUZZ_REPLAY must hold a hex trace");
    assert!(
        divergences.is_empty(),
        "replayed trace diverges: {divergences:?}"
    );
}

/// Mutation test: a planted engine bug (sort silently drops its last
/// row) must be (a) detected by a seeded batch, (b) shrunk to a small
/// trace, and (c) reproducible from the shrunk hex alone —
/// deterministically.
#[test]
fn planted_sort_bug_is_caught_shrunk_and_replayable() {
    // Eager config: the mutation hooks the eager/pooled sort path.
    let eager = vec![fuzz::config_by_name("eager").expect("eager config")];
    let report = fuzz::run_batch(42, 64, &eager, Mutation::SortDropsLastRow);
    assert!(
        !report.failures.is_empty(),
        "the planted sort bug must be detected within 64 seeded cases"
    );
    let failure = &report.failures[0];
    assert!(
        failure.shrunk_ops <= 10,
        "shrunk trace must be small, got {} ops (hex {})",
        failure.shrunk_ops,
        failure.hex_shrunk
    );
    // The shrunk hex replays to the same failure, twice (determinism).
    for round in 0..2 {
        let divergences =
            fuzz::replay_hex(&failure.hex_shrunk, &eager, Mutation::SortDropsLastRow)
                .expect("shrunk hex parses");
        assert_eq!(
            divergences.len(),
            1,
            "round {round}: shrunk trace must still diverge under the mutation"
        );
        assert_eq!(
            divergences[0].1, failure.message,
            "round {round}: divergence message must be deterministic"
        );
    }
    // And the same trace passes on the real (unmutated) engine.
    let clean = fuzz::replay_hex(&failure.hex_shrunk, &eager, Mutation::None)
        .expect("shrunk hex parses");
    assert!(
        clean.is_empty(),
        "shrunk trace must pass without the planted bug: {clean:?}"
    );
}

/// The shrinker preserves failure and never grows a trace.
#[test]
fn shrinker_only_shrinks() {
    let eager = fuzz::config_by_name("eager").expect("eager config");
    let report = fuzz::run_batch(7, 64, std::slice::from_ref(&eager), Mutation::SortDropsLastRow);
    let failure = report.failures.first().expect("mutation must be caught");
    let original = trace::decode(&trace::from_hex(&failure.hex_original).unwrap());
    let shrunk = shrink::shrink(&original, &eager, Mutation::SortDropsLastRow);
    assert!(shrunk.ops.len() <= original.ops.len());
    assert!(shrunk.main.rows <= original.main.rows);
    assert!(
        fuzz::run_case(&shrunk, &eager, Mutation::SortDropsLastRow).is_err(),
        "shrunk trace must still fail"
    );
}

/// Dask-mode coverage of the mutation-free matrix cells that tolerate
/// errors: structured errors are accepted, never panics.
#[test]
fn fault_and_budget_configs_accept_structured_errors() {
    let cells: Vec<FuzzConfig> = default_configs()
        .into_iter()
        .filter(|c| c.tolerates_errors())
        .collect();
    assert!(cells.iter().any(|c| c.faults));
    assert!(cells.iter().any(|c| c.budget.is_some()));
    for cfg in &cells {
        assert!(matches!(cfg.mode, Mode::Dask { .. }));
        let report = fuzz::run_batch(1337, 12, std::slice::from_ref(cfg), Mutation::None);
        assert!(
            report.failures.is_empty(),
            "[{}] {:?}",
            cfg.name,
            report.failures[0]
        );
    }
}

/// The alphabet reaches the top-k op in its interesting shapes: more
/// than one key, mixed directions, and `n` at or past the row count.
#[test]
fn seeded_traces_exercise_top_k() {
    let (mut multi_key, mut mixed, mut past_rows) = (0, 0, 0);
    for case in 0..30 {
        let t = trace::decode(&gen::seeded_case_bytes(42, case));
        let run = fuzz::exec::run_oracle(&t);
        for (k, rop) in run.rops.iter().enumerate() {
            if let fuzz::exec::ROp::TopK { by, n } = rop {
                multi_key += usize::from(by.len() > 1);
                mixed += usize::from(by.iter().any(|b| b.1) && by.iter().any(|b| !b.1));
                past_rows += usize::from(*n >= run.states[k].num_rows());
            }
        }
    }
    assert!(
        multi_key > 0 && mixed > 0 && past_rows > 0,
        "multi-key {multi_key}, mixed {mixed}, n >= rows {past_rows}"
    );
}

/// The `Category` axis reaches the dictionary kernels: seeded traces
/// filter, sort, top-k, group and join on a category column, and
/// concat and spill frames that carry one.
#[test]
fn seeded_traces_exercise_categories() {
    use fuzz::exec::ROp;
    use lafp_columnar::DType;
    let mut hits = [0usize; 7];
    for case in 0..300 {
        let t = trace::decode(&gen::seeded_case_bytes(42, case));
        let run = fuzz::exec::run_oracle(&t);
        for (k, rop) in run.rops.iter().enumerate() {
            let state = &run.states[k];
            let is_cat = |name: &str| {
                state
                    .column(name)
                    .is_ok_and(|s| s.column().dtype() == DType::Categorical)
            };
            let any_cat = state.series().iter().any(|s| is_cat(s.name()));
            let slot = match rop {
                ROp::Filter { col, .. } if is_cat(col) => 0,
                ROp::Sort { by, .. } if is_cat(by) => 1,
                ROp::TopK { by, .. } if by.iter().any(|(b, _)| is_cat(b)) => 2,
                ROp::GroupBy { spec } if is_cat(&spec.keys[0]) => 3,
                ROp::Join { on, .. } if on.iter().any(|c| is_cat(c)) => 4,
                ROp::Concat { .. } if any_cat => 5,
                ROp::SpillRoundTrip if any_cat => 6,
                _ => continue,
            };
            hits[slot] += 1;
        }
    }
    assert!(
        hits.iter().all(|&h| h > 0),
        "filter/sort/top-k/group-by/join/concat/spill hits on a category: {hits:?}"
    );
}
