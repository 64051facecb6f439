//! Greedy trace minimization.
//!
//! Given a failing trace, repeatedly try structure-reducing edits —
//! truncate the op tail, drop single ops, halve row counts, drop
//! columns, strip the CSV route, strip nulls and encodings — keeping
//! any edit that still fails, until a full pass accepts nothing (or
//! the re-execution budget runs out). Ops address columns modulo the
//! live schema, so every edited trace is still a valid trace.

use super::exec::{FuzzConfig, Mutation};
use super::trace::{normalize, Enc, Trace};

/// Upper bound on re-executions during one shrink (a runaway guard;
/// typical shrinks finish in well under a hundred).
const MAX_ATTEMPTS: usize = 300;

struct Shrinker<'a> {
    cfg: &'a FuzzConfig,
    mutation: Mutation,
    attempts: usize,
}

impl Shrinker<'_> {
    fn fails(&mut self, t: &Trace) -> bool {
        if self.attempts >= MAX_ATTEMPTS {
            return false;
        }
        self.attempts += 1;
        super::run_case(t, self.cfg, self.mutation).is_err()
    }

    /// Try one edit (re-normalized, so the shrunk trace replays from its
    /// hex exactly); returns the edited trace if it still fails.
    fn try_edit(&mut self, base: &Trace, edit: impl FnOnce(&mut Trace)) -> Option<Trace> {
        let mut t = base.clone();
        edit(&mut t);
        normalize(&mut t);
        if t != *base && self.fails(&t) {
            Some(t)
        } else {
            None
        }
    }
}

/// Minimize a failing trace under `cfg`. The result is guaranteed to
/// still fail (the original is returned unchanged if nothing smaller
/// does).
pub fn shrink(trace: &Trace, cfg: &FuzzConfig, mutation: Mutation) -> Trace {
    let mut s = Shrinker {
        cfg,
        mutation,
        attempts: 0,
    };
    let mut cur = trace.clone();
    'outer: loop {
        if s.attempts >= MAX_ATTEMPTS {
            return cur;
        }
        // 1. Shortest failing op prefix (finds it in one sweep when the
        //    failure is op-local).
        for k in 0..cur.ops.len() {
            if let Some(t) = s.try_edit(&cur, |t| t.ops.truncate(k)) {
                cur = t;
                continue 'outer;
            }
        }
        // 2. Drop interior ops one at a time.
        for i in (0..cur.ops.len()).rev() {
            if let Some(t) = s.try_edit(&cur, |t| {
                t.ops.remove(i);
            }) {
                cur = t;
                continue 'outer;
            }
        }
        // 3. Halve row counts.
        if cur.main.rows > 0 {
            if let Some(t) = s.try_edit(&cur, |t| t.main.rows /= 2) {
                cur = t;
                continue 'outer;
            }
        }
        if cur.aux.rows > 0 {
            if let Some(t) = s.try_edit(&cur, |t| t.aux.rows /= 2) {
                cur = t;
                continue 'outer;
            }
        }
        // 4. Drop columns (keep at least one per frame; `try_edit`
        //    re-derives the join-key pairing).
        for i in (1..cur.main.cols.len()).rev() {
            if let Some(t) = s.try_edit(&cur, |t| {
                t.main.cols.remove(i);
            }) {
                cur = t;
                continue 'outer;
            }
        }
        if cur.main.cols.len() > 1 {
            if let Some(t) = s.try_edit(&cur, |t| {
                t.main.cols.remove(0);
            }) {
                cur = t;
                continue 'outer;
            }
        }
        for i in (1..cur.aux.cols.len()).rev() {
            if let Some(t) = s.try_edit(&cur, |t| {
                t.aux.cols.remove(i);
            }) {
                cur = t;
                continue 'outer;
            }
        }
        // 5. Simplify the environment: no CSV route, no nulls, no
        //    encodings.
        if cur.via_csv {
            if let Some(t) = s.try_edit(&cur, |t| t.via_csv = false) {
                cur = t;
                continue 'outer;
            }
        }
        for i in 0..cur.main.cols.len() {
            if cur.main.cols[i].null_every != 0 {
                if let Some(t) = s.try_edit(&cur, |t| t.main.cols[i].null_every = 0) {
                    cur = t;
                    continue 'outer;
                }
            }
            if cur.main.cols[i].enc != Enc::Plain {
                if let Some(t) = s.try_edit(&cur, |t| t.main.cols[i].enc = Enc::Plain) {
                    cur = t;
                    continue 'outer;
                }
            }
        }
        return cur;
    }
}
