//! The LaFP runtime optimizer (§2.6, §3): rewrites the task graph just
//! before execution.
//!
//! Passes, in order:
//! 1. **Common-subexpression merging** — structurally identical nodes are
//!    unified so sharing is visible to the later passes.
//! 2. **Predicate pushdown** (§3.2) — filters move toward sources past
//!    safe points, including the two multi-parent rules.
//! 3. **Top-k** (always on) — `head(n)` over a sort, reached through
//!    single-consumer projections, reads a cloned chain over a new
//!    [`LogicalOp::TopK`] instead; the sort itself is left in place.
//! 4. **Persist marking** (§3.5) — nodes shared between the computed roots
//!    and still-live dataframes are marked `persist` so forced computation
//!    doesn't recompute them later.
//!
//! Dead-node culling (§2.6 "redundant operations elimination") is implicit:
//! execution only ever touches nodes reachable from the roots.

use crate::graph::{NodeId, TaskGraph};
use crate::op::LogicalOp;
use lafp_expr::Expr;
use std::collections::{HashMap, HashSet};

/// Which optimizer passes run; the ablation benches toggle these.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerFlags {
    /// Merge structurally identical subgraphs.
    pub common_subexpression: bool,
    /// Push filters below safe operators (§3.2).
    pub predicate_pushdown: bool,
    /// Persist shared live subexpressions (§3.5).
    pub common_reuse: bool,
}

impl Default for OptimizerFlags {
    fn default() -> Self {
        OptimizerFlags {
            common_subexpression: true,
            predicate_pushdown: true,
            common_reuse: true,
        }
    }
}

/// Run all enabled passes. `roots` are the nodes about to be computed
/// (pending prints + the forced node); `live` are the nodes of dataframes
/// that static analysis (or the API caller) reports as live afterwards —
/// the `live_df` argument of §3.5. Returns possibly-updated root ids
/// (CSE can merge a root into its representative).
pub fn optimize(
    graph: &mut TaskGraph,
    roots: &[NodeId],
    live: &[NodeId],
    flags: OptimizerFlags,
) -> Vec<NodeId> {
    let mut roots: Vec<NodeId> = roots.to_vec();
    if flags.common_subexpression {
        let remap = merge_common_subexpressions(graph);
        for r in &mut roots {
            *r = resolve(&remap, *r);
        }
    }
    if flags.predicate_pushdown {
        pushdown_predicates(graph, &roots);
    }
    rewrite_top_k(graph, &roots, live);
    if flags.common_reuse {
        mark_persists(graph, &roots, live);
    }
    roots
}

fn resolve(remap: &HashMap<NodeId, NodeId>, mut id: NodeId) -> NodeId {
    while let Some(&next) = remap.get(&id) {
        id = next;
    }
    id
}

/// Pass 1: hash-cons the graph bottom-up. Returns the merge map.
pub fn merge_common_subexpressions(graph: &mut TaskGraph) -> HashMap<NodeId, NodeId> {
    let mut canonical: HashMap<(u64, Vec<NodeId>), NodeId> = HashMap::new();
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    for id in graph.ids().collect::<Vec<_>>() {
        let node = graph.node(id);
        // Side effects and already-materialized nodes are never merged.
        if matches!(node.op, LogicalOp::Print(_)) || node.result.is_some() {
            continue;
        }
        let inputs: Vec<NodeId> = node
            .inputs
            .iter()
            .map(|&i| resolve(&remap, i))
            .collect();
        let key = (node.op.fingerprint(), inputs);
        match canonical.get(&key) {
            Some(&rep) if rep != id => {
                // Persist flags migrate to the representative.
                if graph.node(id).persist {
                    graph.node_mut(rep).persist = true;
                }
                graph.redirect(id, rep);
                remap.insert(id, rep);
            }
            Some(_) => {}
            None => {
                canonical.insert(key, id);
            }
        }
    }
    remap
}

/// Pass 2: predicate pushdown over the task graph (§3.2).
///
/// Repeatedly looks for `Filter` nodes whose input operator admits the swap
/// (safe-point conditions encoded in [`LogicalOp::filter_can_push_below`])
/// and rewrites `filter(u(x))` into `u(filter(x))`. Rewrites are performed
/// *in place on the filter node's identity* — the filter node becomes the
/// `u`-op node and a fresh filter is inserted below — so external handles
/// (LazyFrames, roots) that point at the old top node keep observing a
/// value-equivalent result. Condition (3) — `f` is the only parent of `u`
/// — is checked on the graph, with the paper's two multi-parent
/// refinements:
///
/// * if **all** parents of `u` are filters with the *same* predicate, one
///   copy is pushed below `u` and in-graph consumers of the parent filters
///   are redirected to `u` (the retained filter nodes stay value-correct:
///   filters are idempotent);
/// * if all parents of `u` are filters with distinct predicates, their
///   **disjunction** is pushed below `u` while the originals stay in place.
///   (The paper's §3.2 text says conjunction; only the disjunction keeps
///   every parent's row set intact, so we implement that — see DESIGN.md.)
pub fn pushdown_predicates(graph: &mut TaskGraph, roots: &[NodeId]) {
    // Each successful push moves a filter strictly closer to a source along
    // a finite path, so a generous iteration cap is only a safety net.
    let cap = graph.len() * 4 + 16;
    for _ in 0..cap {
        if !pushdown_step(graph, roots) {
            break;
        }
    }
}

fn pushdown_step(graph: &mut TaskGraph, roots: &[NodeId]) -> bool {
    let reachable: Vec<NodeId> = {
        let set = graph.reachable(roots);
        let mut v: Vec<NodeId> = set.into_iter().collect();
        v.sort();
        v
    };
    // Case A: single-parent swap.
    for &f in &reachable {
        let (pred, u) = match &graph.node(f).op {
            LogicalOp::Filter(p) => (p.clone(), graph.node(f).inputs[0]),
            _ => continue,
        };
        if graph.node(u).result.is_some() || graph.node(u).persist {
            continue; // materialized boundary: nothing to gain, and moving
                      // a filter below a persisted node changes its value
        }
        let u_op = graph.node(u).op.clone();
        let used = pred.used_columns();
        if !u_op.filter_can_push_below(&used) {
            continue;
        }
        if graph.parents_of(u).len() != 1 {
            continue; // handled by the multi-parent cases below
        }
        // Substitute through rename.
        let new_pred = if matches!(u_op, LogicalOp::Rename(_)) {
            pred.substitute(&|c| u_op.rename_substitution(c))
        } else {
            pred.clone()
        };
        // Node f keeps its identity but becomes the u-op applied to a fresh
        // filter over u's input; node u itself is untouched (it may still
        // be referenced by live dataframe handles).
        let x = graph.node(u).inputs[0];
        let new_f = graph.add(LogicalOp::Filter(new_pred), vec![x]);
        let node_f = graph.node_mut(f);
        node_f.op = u_op;
        node_f.inputs = vec![new_f];
        return true;
    }
    // Case B/C: multi-parent rules.
    for &u in &reachable {
        if graph.node(u).result.is_some() || graph.node(u).persist {
            continue;
        }
        let u_op = graph.node(u).op.clone();
        if matches!(u_op, LogicalOp::Filter(_) | LogicalOp::Print(_)) {
            continue;
        }
        if graph.node(u).inputs.len() != 1 {
            continue;
        }
        let parents = graph.parents_of(u);
        if parents.len() < 2 {
            continue;
        }
        let preds: Option<Vec<Expr>> = parents
            .iter()
            .map(|&p| match &graph.node(p).op {
                LogicalOp::Filter(e) => Some(e.clone()),
                _ => None,
            })
            .collect();
        let Some(preds) = preds else {
            continue; // some parent is not a filter
        };
        let all_used: std::collections::BTreeSet<String> = preds
            .iter()
            .flat_map(|p| p.used_columns())
            .collect();
        if !u_op.filter_can_push_below(&all_used) {
            continue;
        }
        // Guard against re-applying to an already-pushed shape: if u's
        // input is already a filter with the same combined predicate we
        // are done with this u.
        let x = graph.node(u).inputs[0];
        let same = preds
            .windows(2)
            .all(|w| w[0].fingerprint() == w[1].fingerprint());
        let subst = |e: &Expr| {
            if matches!(u_op, LogicalOp::Rename(_)) {
                e.substitute(&|c| u_op.rename_substitution(c))
            } else {
                e.clone()
            }
        };
        let combined = if same {
            subst(&preds[0])
        } else {
            preds
                .iter()
                .skip(1)
                .fold(subst(&preds[0]), |acc, p| acc.or(subst(p)))
        };
        if let LogicalOp::Filter(existing) = &graph.node(x).op {
            if existing.fingerprint() == combined.fingerprint() {
                continue;
            }
        }
        let new_f = graph.add(LogicalOp::Filter(combined), vec![x]);
        graph.node_mut(u).inputs = vec![new_f];
        if same {
            // Collapse: in-graph consumers of the parent filters read u
            // directly (the filter nodes stay, for external handles).
            for &p in &parents {
                graph.redirect(p, u);
            }
        }
        return true;
    }
    false
}

/// Pass 3: sort-then-head is a top-k.
///
/// Matches `Head(n)` ← (`Select` | `DropColumns` | `Rename` |
/// `WithColumn`)* ← `Sort`, where every link and the sort have exactly
/// one consumer in the whole graph and none is persisted, materialized
/// or `live`. Those links are row-local, so they commute with keeping
/// the first `n` sorted rows. A live sort or link is left alone: the
/// persist pass then keeps the full sort for its later readers instead
/// of sorting twice. The rewrite **clones rather than mutates**: a new
/// `TopK` reads the sort's input, the links are cloned on top of it,
/// and only the head's input is repointed. The original sort and links
/// stay intact, so a later statement that reads them (`top.tail(3)`)
/// still sees the full sort even when `live` missed it. A rewritten
/// head no longer reaches a `Sort`, so re-running the pass is a no-op.
pub fn rewrite_top_k(graph: &mut TaskGraph, roots: &[NodeId], live: &[NodeId]) {
    let mut heads: Vec<NodeId> = graph
        .reachable(roots)
        .into_iter()
        .filter(|&id| {
            matches!(graph.node(id).op, LogicalOp::Head(_)) && graph.node(id).result.is_none()
        })
        .collect();
    heads.sort();
    for head in heads {
        let LogicalOp::Head(n) = graph.node(head).op else {
            continue;
        };
        let mut links = Vec::new();
        let mut cur = graph.node(head).inputs[0];
        let by = loop {
            let node = graph.node(cur);
            if node.persist
                || node.result.is_some()
                || live.contains(&cur)
                || graph.parents_of(cur).len() != 1
            {
                break None;
            }
            match &node.op {
                LogicalOp::Select(_)
                | LogicalOp::DropColumns(_)
                | LogicalOp::Rename(_)
                | LogicalOp::WithColumn(..) => {
                    links.push(cur);
                    cur = node.inputs[0];
                }
                LogicalOp::Sort(options) => break Some(options.clone()),
                _ => break None,
            }
        };
        let Some(by) = by else {
            continue;
        };
        let source = graph.node(cur).inputs[0];
        let mut top = graph.add(LogicalOp::TopK { by, n }, vec![source]);
        for &link in links.iter().rev() {
            let op = graph.node(link).op.clone();
            top = graph.add(op, vec![top]);
        }
        graph.node_mut(head).inputs = vec![top];
    }
}

/// Pass 4: mark for persistence the *maximal* nodes shared between the
/// computed roots and the live dataframes (§3.5): a shared node none of
/// whose consumers (within the computed subgraph) is itself shared.
pub fn mark_persists(graph: &mut TaskGraph, roots: &[NodeId], live: &[NodeId]) {
    if live.is_empty() {
        return;
    }
    let computed = graph.reachable(roots);
    let live_reach = graph.reachable_through_results(live);
    let shared: HashSet<NodeId> = computed
        .intersection(&live_reach)
        .copied()
        .filter(|&id| {
            graph.node(id).op.is_frame_valued() && graph.node(id).result.is_none()
        })
        .collect();
    for &id in &shared {
        let has_shared_consumer = graph
            .parents_of(id)
            .into_iter()
            .any(|p| shared.contains(&p));
        if !has_shared_consumer {
            graph.node_mut(id).persist = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lafp_columnar::csv::CsvOptions;
    use lafp_columnar::groupby::GroupBySpec;
    use lafp_columnar::AggKind;
    use lafp_expr::Expr;

    fn read() -> LogicalOp {
        LogicalOp::ReadCsv {
            path: "data.csv".into(),
            options: CsvOptions::new(),
        }
    }

    fn filt(col: &str) -> LogicalOp {
        LogicalOp::Filter(Expr::col(col).gt(Expr::lit_int(0)))
    }

    #[test]
    fn pushdown_below_with_column() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let wc = g.add(
            LogicalOp::WithColumn("day".into(), Expr::col("ts").dt(lafp_columnar::column::DtField::DayOfWeek)),
            vec![r],
        );
        let f = g.add(filt("fare"), vec![wc]);
        let h = g.add(LogicalOp::Head(5), vec![f]);
        pushdown_predicates(&mut g, &[h]);
        // Now: read <- filter <- with_column <- head
        assert!(matches!(g.node(h).op, LogicalOp::Head(5)));
        let wc_in = g.node(h).inputs[0];
        assert!(matches!(g.node(wc_in).op, LogicalOp::WithColumn(..)));
        let f_in = g.node(wc_in).inputs[0];
        assert!(matches!(g.node(f_in).op, LogicalOp::Filter(_)));
        assert_eq!(g.node(f_in).inputs, vec![r]);
    }

    #[test]
    fn pushdown_blocked_when_filter_reads_computed_column() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let wc = g.add(
            LogicalOp::WithColumn("day".into(), Expr::col("ts").dt(lafp_columnar::column::DtField::DayOfWeek)),
            vec![r],
        );
        let f = g.add(filt("day"), vec![wc]);
        pushdown_predicates(&mut g, &[f]);
        assert_eq!(g.node(f).inputs, vec![wc], "must not move");
    }

    #[test]
    fn pushdown_blocked_below_merge_and_groupby() {
        let mut g = TaskGraph::new();
        let a = g.add(read(), vec![]);
        let b = g.add(read(), vec![]);
        let m = g.add(
            LogicalOp::Merge {
                on: vec!["k".into()],
                how: lafp_columnar::JoinKind::Inner,
            },
            vec![a, b],
        );
        let f = g.add(filt("v"), vec![m]);
        pushdown_predicates(&mut g, &[f]);
        assert_eq!(g.node(f).inputs, vec![m]);

        let gb = g.add(
            LogicalOp::GroupByAgg(GroupBySpec {
                keys: vec!["k".into()],
                value: "v".into(),
                agg: AggKind::Sum,
            }),
            vec![a],
        );
        let f2 = g.add(filt("v"), vec![gb]);
        pushdown_predicates(&mut g, &[f2]);
        assert_eq!(g.node(f2).inputs, vec![gb]);
    }

    #[test]
    fn pushdown_through_rename_substitutes() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let rn = g.add(
            LogicalOp::Rename(vec![("fare_amount".into(), "fare".into())]),
            vec![r],
        );
        let f = g.add(filt("fare"), vec![rn]);
        pushdown_predicates(&mut g, &[f]);
        // The top node (f) kept its identity but became the rename; the
        // filter below it reads the pre-rename column name.
        assert!(matches!(g.node(f).op, LogicalOp::Rename(_)));
        let below = g.node(f).inputs[0];
        match &g.node(below).op {
            LogicalOp::Filter(p) => {
                assert!(p.used_columns().contains("fare_amount"));
                assert_eq!(g.node(below).inputs, vec![r]);
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn multi_parent_same_filter_collapses() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let wc = g.add(
            LogicalOp::WithColumn("d".into(), Expr::col("x")),
            vec![r],
        );
        let f1 = g.add(filt("fare"), vec![wc]);
        let f2 = g.add(filt("fare"), vec![wc]);
        let h1 = g.add(LogicalOp::Head(1), vec![f1]);
        let h2 = g.add(LogicalOp::Head(2), vec![f2]);
        pushdown_predicates(&mut g, &[h1, h2]);
        // Both heads should now consume wc directly, with a single filter
        // below wc.
        assert_eq!(g.node(h1).inputs, vec![wc]);
        assert_eq!(g.node(h2).inputs, vec![wc]);
        let below = g.node(wc).inputs[0];
        assert!(matches!(g.node(below).op, LogicalOp::Filter(_)));
        assert_eq!(g.node(below).inputs, vec![r]);
    }

    #[test]
    fn multi_parent_distinct_filters_push_conjunction() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let wc = g.add(
            LogicalOp::WithColumn("d".into(), Expr::col("x")),
            vec![r],
        );
        let f1 = g.add(filt("fare"), vec![wc]);
        let f2 = g.add(filt("tip"), vec![wc]);
        pushdown_predicates(&mut g, &[f1, f2]);
        // Parents retained, conjunction below wc.
        assert_eq!(g.node(f1).inputs, vec![wc]);
        assert_eq!(g.node(f2).inputs, vec![wc]);
        let below = g.node(wc).inputs[0];
        match &g.node(below).op {
            LogicalOp::Filter(p) => {
                let used = p.used_columns();
                assert!(used.contains("fare") && used.contains("tip"));
            }
            other => panic!("expected conjunction filter, got {other:?}"),
        }
    }

    #[test]
    fn cse_merges_identical_chains() {
        let mut g = TaskGraph::new();
        let r1 = g.add(read(), vec![]);
        let r2 = g.add(read(), vec![]);
        let f1 = g.add(filt("x"), vec![r1]);
        let f2 = g.add(filt("x"), vec![r2]);
        let remap = merge_common_subexpressions(&mut g);
        assert_eq!(resolve(&remap, r2), r1);
        assert_eq!(resolve(&remap, f2), f1);
        assert_eq!(g.node(f1).inputs, vec![r1]);
    }

    #[test]
    fn cse_does_not_merge_prints() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let p1 = g.add(LogicalOp::Print(vec![]), vec![r]);
        let p2 = g.add(LogicalOp::Print(vec![]), vec![r]);
        let remap = merge_common_subexpressions(&mut g);
        assert_eq!(resolve(&remap, p1), p1);
        assert_eq!(resolve(&remap, p2), p2);
    }

    #[test]
    fn persist_marks_maximal_shared_node() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let wc = g.add(
            LogicalOp::WithColumn("d".into(), Expr::col("x")),
            vec![r],
        );
        let agg = g.add(
            LogicalOp::GroupByAgg(GroupBySpec {
                keys: vec!["d".into()],
                value: "x".into(),
                agg: AggKind::Sum,
            }),
            vec![wc],
        );
        // live: wc used again later for a mean.
        mark_persists(&mut g, &[agg], &[wc]);
        assert!(g.node(wc).persist, "shared frame should persist");
        assert!(!g.node(r).persist, "only the maximal shared node persists");
        assert!(!g.node(agg).persist);
    }

    #[test]
    fn persist_skips_scalar_nodes_and_no_live() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let red = g.add(
            LogicalOp::Reduce {
                column: "x".into(),
                agg: AggKind::Mean,
            },
            vec![r],
        );
        mark_persists(&mut g, &[red], &[]);
        assert!(!g.node(r).persist);
        mark_persists(&mut g, &[red], &[red]);
        assert!(!g.node(red).persist, "scalar node not persisted");
        assert!(g.node(r).persist, "its frame input is the shared frame");
    }

    /// read <- sort <- select <- head(n): the fixture of the top-k tests.
    fn sort_select_head(g: &mut TaskGraph, n: usize) -> (NodeId, NodeId, NodeId) {
        let r = g.add(read(), vec![]);
        let sort = g.add(
            LogicalOp::Sort(lafp_columnar::sort::SortOptions::single("x", false)),
            vec![r],
        );
        let sel = g.add(LogicalOp::Select(vec!["x".into(), "y".into()]), vec![sort]);
        let head = g.add(LogicalOp::Head(n), vec![sel]);
        (sort, sel, head)
    }

    #[test]
    fn top_k_rewrite_clones_the_chain() {
        let mut g = TaskGraph::new();
        let (sort, sel, head) = sort_select_head(&mut g, 10);
        let r = g.node(sort).inputs[0];
        rewrite_top_k(&mut g, &[head], &[]);
        let plan = g.explain(&[head]);
        assert!(plan.contains(r#"top_k ["x"] 10"#), "{plan}");
        assert!(!plan.contains("sort_values"), "{plan}");
        // Head reads a clone of the projection over a new TopK node.
        let clone = g.node(head).inputs[0];
        assert_ne!(clone, sel);
        assert!(matches!(g.node(clone).op, LogicalOp::Select(_)));
        let top = g.node(clone).inputs[0];
        assert!(matches!(g.node(top).op, LogicalOp::TopK { n: 10, .. }));
        assert_eq!(g.node(top).inputs, vec![r]);
        // The originals are untouched for later readers.
        assert!(matches!(g.node(sort).op, LogicalOp::Sort(_)));
        assert_eq!(g.node(sel).inputs, vec![sort]);
        // Idempotent: the rewritten head no longer reaches a sort.
        let nodes = g.len();
        rewrite_top_k(&mut g, &[head], &[]);
        assert_eq!(g.len(), nodes);
    }

    #[test]
    fn top_k_rewrite_walks_every_projection_kind() {
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let mut cur = g.add(
            LogicalOp::Sort(lafp_columnar::sort::SortOptions::single("x", true)),
            vec![r],
        );
        for op in [
            LogicalOp::WithColumn("d".into(), Expr::col("x")),
            LogicalOp::Rename(vec![("d".into(), "e".into())]),
            LogicalOp::DropColumns(vec!["y".into()]),
            LogicalOp::Select(vec!["e".into()]),
        ] {
            cur = g.add(op, vec![cur]);
        }
        let head = g.add(LogicalOp::Head(3), vec![cur]);
        optimize(&mut g, &[head], &[], OptimizerFlags::default());
        let plan = g.explain(&[head]);
        assert!(plan.contains("top_k"), "{plan}");
        assert!(!plan.contains("sort_values"), "{plan}");
        for label in ["set_item d", "rename", "drop", "get_item"] {
            assert!(plan.contains(label), "{label} cloned: {plan}");
        }
    }

    #[test]
    fn top_k_rewrite_needs_a_private_chain() {
        // The sort has a second consumer.
        let mut g = TaskGraph::new();
        let (sort, _, head) = sort_select_head(&mut g, 5);
        let len = g.add(LogicalOp::Len, vec![sort]);
        rewrite_top_k(&mut g, &[head, len], &[]);
        assert!(!g.explain(&[head]).contains("top_k"));

        // A projection link has a second consumer.
        let mut g = TaskGraph::new();
        let (_, sel, head) = sort_select_head(&mut g, 5);
        let tail = g.add(LogicalOp::Tail(2), vec![sel]);
        rewrite_top_k(&mut g, &[head, tail], &[]);
        assert!(!g.explain(&[head]).contains("top_k"));

        // The sort is persisted.
        let mut g = TaskGraph::new();
        let (sort, _, head) = sort_select_head(&mut g, 5);
        g.node_mut(sort).persist = true;
        rewrite_top_k(&mut g, &[head], &[]);
        assert!(!g.explain(&[head]).contains("top_k"));

        // The sort or a link stays live: the full sort is persisted for
        // its later readers instead.
        for pick_live in [0, 1] {
            let mut g = TaskGraph::new();
            let (sort, sel, head) = sort_select_head(&mut g, 5);
            let live = [sort, sel][pick_live];
            optimize(&mut g, &[head], &[live], OptimizerFlags::default());
            assert!(!g.explain(&[head]).contains("top_k"));
            assert!(g.node(live).persist, "the live frame is kept");
        }
    }

    #[test]
    fn top_k_rewrite_stops_at_row_changing_ops() {
        let sort_opts = || lafp_columnar::sort::SortOptions::single("x", true);
        let between = [
            filt("x"),
            LogicalOp::GroupByAgg(GroupBySpec {
                keys: vec!["x".into()],
                value: "y".into(),
                agg: AggKind::Sum,
            }),
        ];
        for op in between {
            let mut g = TaskGraph::new();
            let r = g.add(read(), vec![]);
            let sort = g.add(LogicalOp::Sort(sort_opts()), vec![r]);
            let mid = g.add(op, vec![sort]);
            let head = g.add(LogicalOp::Head(4), vec![mid]);
            rewrite_top_k(&mut g, &[head], &[]);
            assert!(!g.explain(&[head]).contains("top_k"));
        }
        // tail(n) of a sort is not a top-k.
        let mut g = TaskGraph::new();
        let r = g.add(read(), vec![]);
        let sort = g.add(LogicalOp::Sort(sort_opts()), vec![r]);
        let tail = g.add(LogicalOp::Tail(4), vec![sort]);
        optimize(&mut g, &[tail], &[], OptimizerFlags::default());
        assert!(!g.explain(&[tail]).contains("top_k"));
    }

    #[test]
    fn optimize_composes_and_remaps_roots() {
        let mut g = TaskGraph::new();
        let r1 = g.add(read(), vec![]);
        let r2 = g.add(read(), vec![]);
        let f1 = g.add(filt("x"), vec![r1]);
        let f2 = g.add(filt("x"), vec![r2]);
        let roots = optimize(&mut g, &[f2], &[f1], OptimizerFlags::default());
        assert_eq!(roots, vec![f1], "root remapped onto CSE representative");
    }
}
