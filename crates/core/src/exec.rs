//! Execution of the (optimized) task graph on the selected backend.
//!
//! * **Eager backends** (Pandas / Modin): nodes run in topological order;
//!   each result is ref-counted by its consumers and freed the moment the
//!   last consumer has run (§2.6).
//! * **Lazy backend** (Dask): the subgraph is translated into the Dask
//!   engine's own task graph and all required outputs (pending prints +
//!   the forced node + nodes marked for persistence) are computed in one
//!   batched, streaming pass. Operators the Dask engine does not support
//!   (`tail`, `describe`) take the paper's fallback path: materialize to a
//!   "pandas" frame, apply the eager operator, scatter the result back
//!   (§5.2).
//!
//! Every compute first executes pending lazy prints (in program order,
//! §3.3), then materializes the requested value; `live_df` hints drive the
//! §3.5 persistence decisions, and persisted results are dropped once no
//! live dataframe references them.

use crate::context::{render_value, LaFP};
use crate::graph::{Materialized, NodeId, TaskGraph};
use crate::op::{LogicalOp, PrintPiece, Value};
use crate::optimizer;
use lafp_backends::{BackendKind, DaskEngine, DaskNodeId, DaskOp, MemoryReservation};
use lafp_columnar::{ColumnarError, DataFrame, HeapSize, Result, Scalar};
use std::collections::HashMap;
use std::sync::Arc;

/// Force this frame-valued node (plus pending prints) and return the frame.
pub fn compute_frame(ctx: &LaFP, node: NodeId, live: &[NodeId]) -> Result<DataFrame> {
    let value = compute_value(ctx, node, live)?;
    match value {
        Value::Frame(f) => Ok(Arc::try_unwrap(f).unwrap_or_else(|arc| (*arc).clone())),
        other => Err(ColumnarError::InvalidArgument(format!(
            "expected frame from compute, got {other:?}"
        ))),
    }
}

/// Force this scalar-valued node (plus pending prints) and return it.
pub fn compute_scalar(ctx: &LaFP, node: NodeId, live: &[NodeId]) -> Result<Scalar> {
    let value = compute_value(ctx, node, live)?;
    match value {
        Value::Scalar(s) => Ok(s),
        other => Err(ColumnarError::InvalidArgument(format!(
            "expected scalar from compute, got {other:?}"
        ))),
    }
}

/// `pd.flush()`: execute pending prints only (end of program — nothing is
/// live afterwards, so all persisted results are released too).
pub fn flush(ctx: &LaFP) -> Result<()> {
    run_batch(ctx, None, &[])?;
    Ok(())
}

fn compute_value(ctx: &LaFP, node: NodeId, live: &[NodeId]) -> Result<Value> {
    let value = run_batch(ctx, Some(node), live)?;
    Ok(value.expect("target value produced"))
}

/// The shared compute path: pending prints + optional target, one batch.
fn run_batch(ctx: &LaFP, target: Option<NodeId>, live: &[NodeId]) -> Result<Option<Value>> {
    let mut inner = ctx.inner.lock();
    let prints: Vec<NodeId> = inner.pending_prints.drain(..).collect();
    let mut roots = prints.clone();
    if let Some(t) = target {
        roots.push(t);
    }
    if roots.is_empty() {
        return Ok(None);
    }
    let opt_roots = optimizer::optimize(&mut inner.graph, &roots, live, ctx.config.optimizer);
    let target_node = target.map(|_| *opt_roots.last().expect("target kept"));
    let print_nodes = &opt_roots[..opt_roots.len() - usize::from(target.is_some())];

    // Execute the value-producing part of the graph.
    let exec_result = if ctx.config.backend == BackendKind::Dask {
        run_dask(ctx, &mut inner, &opt_roots)
    } else {
        run_eager(ctx, &mut inner, &opt_roots)
    };
    let mut values = exec_result?;

    // Render prints in order.
    for &p in print_nodes {
        let (pieces, inputs) = match &inner.graph.node(p).op {
            LogicalOp::Print(pieces) => (pieces.clone(), inner.graph.node(p).inputs.clone()),
            _ => continue,
        };
        let mut line = String::new();
        for piece in &pieces {
            match piece {
                PrintPiece::Text(t) => line.push_str(t),
                PrintPiece::Value(i) => {
                    let input = inputs[*i];
                    let v = values
                        .get(&input)
                        .cloned()
                        .or_else(|| {
                            inner.graph.node(input).result.as_ref().map(|m| m.value.clone())
                        })
                        .unwrap_or(Value::None);
                    line.push_str(&render_value(&v, ctx.config.print_rows));
                }
            }
        }
        if inner.echo {
            println!("{line}");
        }
        inner.output.push(line);
        // Executed prints hold an empty result so they never re-run.
        inner.graph.node_mut(p).result = Some(Materialized {
            value: Value::None,
            reservation: MemoryReservation::empty(ctx.tracker()),
        });
    }

    // Harvest the target value before releasing temporaries.
    let target_value = target_node.map(|t| {
        values
            .remove(&t)
            .or_else(|| inner.graph.node(t).result.as_ref().map(|m| m.value.clone()))
            .expect("target computed")
    });

    // Release persisted results no longer reachable from live frames (§3.5).
    release_dead_persists(&mut inner, live);

    Ok(target_value)
}

fn release_dead_persists(inner: &mut crate::context::ContextInner, live: &[NodeId]) {
    let live_reach = inner.graph.reachable_through_results(live);
    inner.persisted.retain(|&p| {
        if live_reach.contains(&p) {
            true
        } else {
            let node = inner.graph.node_mut(p);
            node.persist = false;
            node.result = None;
            false
        }
    });
}

// ---------------------------------------------------------------------------
// Eager execution (§2.6)
// ---------------------------------------------------------------------------

fn run_eager(
    ctx: &LaFP,
    inner: &mut crate::context::ContextInner,
    roots: &[NodeId],
) -> Result<HashMap<NodeId, Value>> {
    let order = inner.graph.topo_order(roots);
    let subset = inner.graph.reachable(roots);
    let mut counts = inner.graph.consumer_counts(&subset);
    // Roots are consumed by the harvest step.
    for &r in roots {
        *counts.entry(r).or_default() += 1;
    }
    let mut out: HashMap<NodeId, Value> = HashMap::new();
    for id in order {
        if inner.graph.node(id).result.is_some() {
            if let Some(m) = inner.graph.node(id).result.as_ref() {
                out.insert(id, m.value.clone());
            }
            continue;
        }
        if matches!(inner.graph.node(id).op, LogicalOp::Print(_)) {
            continue; // rendered by the caller, after values exist
        }
        let value = eval_eager(ctx, &inner.graph, id)?;
        let bytes = match &value {
            Value::Frame(f) => f.heap_size(),
            _ => 0,
        };
        let reservation = ctx.tracker().charge(bytes)?;
        out.insert(id, value.clone());
        inner.graph.node_mut(id).result = Some(Materialized { value, reservation });
        if inner.graph.node(id).persist && !inner.persisted.contains(&id) {
            inner.persisted.push(id);
        }
        // Ref-count inputs: free results whose consumers are all done.
        for input in inner.graph.node(id).inputs.clone() {
            if let Some(c) = counts.get_mut(&input) {
                *c -= 1;
                if *c == 0 && !inner.graph.node(input).persist {
                    inner.graph.node_mut(input).result = None;
                }
            }
        }
    }
    // Roots release their extra count now that values are harvested; the
    // caller received clones (Arc) so dropping the stored result is safe
    // for non-persisted roots.
    for &r in roots {
        if !inner.graph.node(r).persist {
            inner.graph.node_mut(r).result = None;
        }
    }
    // Re-mark print results (cleared above) as executed.
    Ok(out)
}

fn eval_eager(ctx: &LaFP, graph: &TaskGraph, id: NodeId) -> Result<Value> {
    let node = graph.node(id);
    let input_frame = |i: usize| -> Result<Arc<DataFrame>> {
        let input = node.inputs[i];
        match graph.node(input).result.as_ref().map(|m| &m.value) {
            Some(Value::Frame(f)) => Ok(Arc::clone(f)),
            other => Err(ColumnarError::InvalidArgument(format!(
                "input {input} of {id} not materialized as frame (got {other:?})"
            ))),
        }
    };
    let engine = &ctx.eager;
    let value = match &node.op {
        LogicalOp::ReadCsv { path, options } => {
            Value::Frame(Arc::new(engine.read_csv(path, options)?))
        }
        LogicalOp::FromFrame(frame) => Value::Frame(Arc::clone(frame)),
        LogicalOp::Filter(e) => Value::Frame(Arc::new(engine.filter(&*input_frame(0)?, e)?)),
        LogicalOp::WithColumn(name, e) => {
            Value::Frame(Arc::new(engine.with_column(&*input_frame(0)?, name, e)?))
        }
        LogicalOp::Select(cols) => Value::Frame(Arc::new(engine.select(&*input_frame(0)?, cols)?)),
        LogicalOp::DropColumns(cols) => {
            Value::Frame(Arc::new(engine.drop(&*input_frame(0)?, cols)?))
        }
        LogicalOp::Rename(mapping) => {
            Value::Frame(Arc::new(engine.rename(&*input_frame(0)?, mapping)?))
        }
        LogicalOp::FillNa(v) => Value::Frame(Arc::new(engine.fillna(&*input_frame(0)?, v)?)),
        LogicalOp::DropDuplicates(subset) => {
            Value::Frame(Arc::new(engine.drop_duplicates(&*input_frame(0)?, subset)?))
        }
        LogicalOp::GroupByAgg(spec) => {
            Value::Frame(Arc::new(engine.group_by(&*input_frame(0)?, spec)?))
        }
        LogicalOp::Merge { on, how } => Value::Frame(Arc::new(engine.merge(
            &*input_frame(0)?,
            &*input_frame(1)?,
            on,
            *how,
        )?)),
        LogicalOp::Sort(options) => {
            Value::Frame(Arc::new(engine.sort_values(&*input_frame(0)?, options)?))
        }
        LogicalOp::Head(n) => Value::Frame(Arc::new(engine.head(&*input_frame(0)?, *n)?)),
        LogicalOp::TopK { by, n } => {
            Value::Frame(Arc::new(engine.top_k(&*input_frame(0)?, by, *n)?))
        }
        LogicalOp::Tail(n) => Value::Frame(Arc::new(engine.tail(&*input_frame(0)?, *n)?)),
        LogicalOp::Describe => Value::Frame(Arc::new(engine.describe(&*input_frame(0)?)?)),
        LogicalOp::Concat => {
            Value::Frame(Arc::new(input_frame(0)?.concat(&*input_frame(1)?)?))
        }
        LogicalOp::Reduce { column, agg } => {
            Value::Scalar(engine.reduce(&*input_frame(0)?, column, *agg)?)
        }
        LogicalOp::Len => Value::Scalar(Scalar::Int(input_frame(0)?.num_rows() as i64)),
        LogicalOp::Print(_) => Value::None,
    };
    Ok(value)
}

// ---------------------------------------------------------------------------
// Dask execution (§2.5–2.6)
// ---------------------------------------------------------------------------

fn run_dask(
    ctx: &LaFP,
    inner: &mut crate::context::ContextInner,
    roots: &[NodeId],
) -> Result<HashMap<NodeId, Value>> {
    let mut engine =
        DaskEngine::with_threads(Arc::clone(ctx.tracker()), ctx.config.chunk_rows, ctx.config.threads);
    let mut memo: HashMap<NodeId, DaskNodeId> = HashMap::new();

    // The batch must produce: every print's inputs, the target(s), and
    // every node marked persist within the executed subgraph.
    let subset = inner.graph.reachable(roots);
    let mut wanted: Vec<NodeId> = Vec::new();
    for &r in roots {
        match &inner.graph.node(r).op {
            LogicalOp::Print(_) => {
                for &i in &inner.graph.node(r).inputs {
                    if !wanted.contains(&i) {
                        wanted.push(i);
                    }
                }
            }
            _ => {
                if !wanted.contains(&r) {
                    wanted.push(r);
                }
            }
        }
    }
    let mut to_persist: Vec<NodeId> = subset
        .iter()
        .copied()
        .filter(|&id| inner.graph.node(id).persist && inner.graph.node(id).result.is_none())
        .collect();
    to_persist.sort();
    for &p in &to_persist {
        if !wanted.contains(&p) {
            wanted.push(p);
        }
    }

    // Translate and batch-compute.
    let mut dask_roots = Vec::with_capacity(wanted.len());
    for &w in &wanted {
        dask_roots.push(translate(ctx, &mut inner.graph, &mut engine, &mut memo, w)?);
    }
    let results = engine.compute_batch(&dask_roots)?;

    let mut out: HashMap<NodeId, Value> = HashMap::new();
    for ((node, _dask), (value, reservation)) in wanted.iter().zip(&dask_roots).zip(results) {
        let value = match value {
            lafp_backends::DaskValue::Frame(f) => Value::Frame(Arc::new(f)),
            lafp_backends::DaskValue::Scalar(s) => Value::Scalar(s),
        };
        if to_persist.contains(node) {
            inner.graph.node_mut(*node).result = Some(Materialized {
                value: value.clone(),
                reservation,
            });
            if !inner.persisted.contains(node) {
                inner.persisted.push(*node);
            }
        }
        out.insert(*node, value);
    }
    Ok(out)
}

/// Translate a LaFP node into the Dask engine graph, memoized. Nodes with
/// materialized results become `FromFrame` sources; ops the engine lacks
/// (`tail`, `describe`) take the pandas-fallback path.
fn translate(
    ctx: &LaFP,
    graph: &mut TaskGraph,
    engine: &mut DaskEngine,
    memo: &mut HashMap<NodeId, DaskNodeId>,
    id: NodeId,
) -> Result<DaskNodeId> {
    if let Some(&d) = memo.get(&id) {
        return Ok(d);
    }
    if let Some(m) = graph.node(id).result.as_ref() {
        if let Value::Frame(f) = &m.value {
            let d = engine.add(DaskOp::FromFrame(Arc::clone(f)), vec![]);
            memo.insert(id, d);
            return Ok(d);
        }
    }
    let op = graph.node(id).op.clone();
    let inputs = graph.node(id).inputs.clone();
    let d = match op {
        LogicalOp::ReadCsv { path, options } => engine.add(
            DaskOp::ReadCsv {
                path,
                options,
                limit: None,
            },
            vec![],
        ),
        LogicalOp::FromFrame(f) => engine.add(DaskOp::FromFrame(f), vec![]),
        LogicalOp::Filter(e) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Filter(e), vec![i])
        }
        LogicalOp::WithColumn(name, e) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::WithColumn(name, e), vec![i])
        }
        LogicalOp::Select(cols) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Select(cols), vec![i])
        }
        LogicalOp::DropColumns(cols) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::DropColumns(cols), vec![i])
        }
        LogicalOp::Rename(mapping) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Rename(mapping), vec![i])
        }
        LogicalOp::FillNa(v) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::FillNa(v), vec![i])
        }
        LogicalOp::DropDuplicates(subset) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::DropDuplicates(subset), vec![i])
        }
        LogicalOp::GroupByAgg(spec) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::GroupByAgg(spec), vec![i])
        }
        LogicalOp::Merge { on, how } => {
            let l = translate(ctx, graph, engine, memo, inputs[0])?;
            let r = translate(ctx, graph, engine, memo, inputs[1])?;
            engine.add(DaskOp::Merge { on, how }, vec![l, r])
        }
        LogicalOp::Sort(options) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Sort(options), vec![i])
        }
        LogicalOp::Head(n) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Head(n), vec![i])
        }
        LogicalOp::TopK { by, n } => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::TopK { by, n }, vec![i])
        }
        LogicalOp::Concat => {
            let l = translate(ctx, graph, engine, memo, inputs[0])?;
            let r = translate(ctx, graph, engine, memo, inputs[1])?;
            engine.add(DaskOp::Concat, vec![l, r])
        }
        LogicalOp::Reduce { column, agg } => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Reduce { column, agg }, vec![i])
        }
        LogicalOp::Len => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            engine.add(DaskOp::Len, vec![i])
        }
        // Paper §5.2: ops the backend lacks fall back to Pandas — gather
        // the input, run the eager kernel, scatter the result back.
        LogicalOp::Tail(n) => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            let (frame, _res) = engine.gather(i)?;
            let value = ctx.eager.tail(&frame, n)?;
            let reservation = ctx.tracker().charge(value.heap_size())?;
            let arc = Arc::new(value);
            graph.node_mut(id).result = Some(Materialized {
                value: Value::Frame(Arc::clone(&arc)),
                reservation,
            });
            engine.add(DaskOp::FromFrame(arc), vec![])
        }
        LogicalOp::Describe => {
            let i = translate(ctx, graph, engine, memo, inputs[0])?;
            let (frame, _res) = engine.gather(i)?;
            let value = ctx.eager.describe(&frame)?;
            let reservation = ctx.tracker().charge(value.heap_size())?;
            let arc = Arc::new(value);
            graph.node_mut(id).result = Some(Materialized {
                value: Value::Frame(Arc::clone(&arc)),
                reservation,
            });
            engine.add(DaskOp::FromFrame(arc), vec![])
        }
        LogicalOp::Print(_) => {
            return Err(ColumnarError::InvalidArgument(
                "print nodes are executed by the LaFP layer, not the backend".into(),
            ))
        }
    };
    memo.insert(id, d);
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::LafpConfig;
    use crate::frame::PrintArg;
    use lafp_columnar::column::Column;
    use lafp_columnar::csv::write_csv;
    use lafp_columnar::{df, AggKind};
    use lafp_expr::Expr;
    use std::path::PathBuf;

    fn temp_csv(rows: usize) -> PathBuf {
        let df = df![
            (
                "fare",
                Column::from_f64((0..rows).map(|i| i as f64 - 3.0).collect())
            ),
            (
                "day",
                Column::from_i64((0..rows).map(|i| (i % 7) as i64).collect())
            ),
            (
                "unused",
                Column::from_strings((0..rows).map(|i| format!("u{i}")).collect::<Vec<_>>())
            ),
        ];
        let dir = std::env::temp_dir().join("lafp-core-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "c{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        write_csv(&df, &path).unwrap();
        path
    }

    fn sessions() -> Vec<LaFP> {
        BackendKind::ALL
            .into_iter()
            .map(|backend| {
                LaFP::with_config(LafpConfig {
                    backend,
                    ..Default::default()
                })
            })
            .collect()
    }

    #[test]
    fn figure3_pipeline_on_all_backends() {
        let path = temp_csv(70);
        let mut outputs = Vec::new();
        for pd in sessions() {
            let df = pd.read_csv(&path);
            let df = df.filter(Expr::col("fare").gt(Expr::lit_float(0.0)));
            let g = df.groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
            let result = g.compute(&[]).unwrap();
            outputs.push(result);
        }
        assert_eq!(outputs[0], outputs[1], "pandas == modin");
        assert_eq!(outputs[0], outputs[2], "pandas == dask");
        assert_eq!(outputs[0].num_rows(), 7);
    }

    #[test]
    fn lazy_print_defers_and_orders_output() {
        let path = temp_csv(30);
        for pd in sessions() {
            let df = pd.read_csv(&path);
            let head = df.head(2);
            head.print();
            let mean = df.reduce("fare", AggKind::Mean);
            pd.print(vec![
                PrintArg::Text("Average fare: ".into()),
                PrintArg::Scalar(mean),
            ]);
            assert!(
                pd.take_output().is_empty(),
                "nothing printed before flush ({})",
                pd.config().backend
            );
            pd.flush().unwrap();
            let out = pd.take_output();
            assert_eq!(out.len(), 2, "{}", pd.config().backend);
            assert!(out[0].contains("fare"), "head table first");
            assert!(out[1].starts_with("Average fare: "), "f-string second");
        }
    }

    #[test]
    fn compute_flushes_pending_prints_first() {
        let path = temp_csv(20);
        let pd = LaFP::new();
        let df = pd.read_csv(&path);
        df.head(1).print();
        let g = df.groupby_agg(vec!["day".into()], "fare", AggKind::Count);
        let _ = g.compute(&[]).unwrap();
        let out = pd.take_output();
        assert_eq!(out.len(), 1, "pending print executed by compute (§3.4)");
    }

    #[test]
    fn common_reuse_persists_shared_frame() {
        let path = temp_csv(50);
        for pd in sessions() {
            let df = pd
                .read_csv(&path)
                .filter(Expr::col("fare").gt(Expr::lit_float(0.0)));
            let sum = df.groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
            // compute with df live: shared node (the filter) persists.
            let _ = sum.compute(&[&df]).unwrap();
            assert!(
                pd.inner.lock().graph.node(df.node()).result.is_some(),
                "{}: filtered frame persisted",
                pd.config().backend
            );
            let held = pd.tracker().current();
            assert!(held > 0, "{}: persist charged", pd.config().backend);
            // Second compute reuses it; with live=[] it is then released.
            let mean = df.reduce("fare", AggKind::Mean);
            let v = mean.compute(&[]).unwrap();
            assert!(matches!(v, Scalar::Float(_)));
            assert!(
                pd.inner.lock().graph.node(df.node()).result.is_none(),
                "{}: persist released after last use",
                pd.config().backend
            );
        }
    }

    #[test]
    fn ablation_no_common_reuse_recomputes() {
        let path = temp_csv(50);
        let pd = LaFP::with_config(LafpConfig {
            optimizer: optimizer::OptimizerFlags {
                common_reuse: false,
                ..Default::default()
            },
            ..Default::default()
        });
        let df = pd
            .read_csv(&path)
            .filter(Expr::col("fare").gt(Expr::lit_float(0.0)));
        let sum = df.groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
        let _ = sum.compute(&[&df]).unwrap();
        assert!(pd.inner.lock().graph.node(df.node()).result.is_none());
    }

    #[test]
    fn pushdown_preserves_results_on_all_backends() {
        let path = temp_csv(60);
        for pd in sessions() {
            // Feature-add THEN filter: pushdown will reorder underneath.
            let df = pd.read_csv(&path);
            let df = df.with_column(
                "double",
                Expr::col("fare").arith(lafp_columnar::column::ArithOp::Mul, Expr::lit_float(2.0)),
            );
            let df = df.filter(Expr::col("fare").gt(Expr::lit_float(0.0)));
            let out = df.compute(&[]).unwrap();
            assert_eq!(out.num_rows(), 56, "{}", pd.config().backend);
            assert!(out.has_column("double"));
        }
    }

    #[test]
    fn tail_and_describe_fallback_on_dask() {
        let path = temp_csv(25);
        let pd = LaFP::with_config(LafpConfig {
            backend: BackendKind::Dask,
            ..Default::default()
        });
        let df = pd.read_csv(&path);
        let t = df.tail(3).compute(&[]).unwrap();
        assert_eq!(t.num_rows(), 3);
        let d = df.describe().compute(&[]).unwrap();
        assert_eq!(d.num_rows(), 8);
    }

    #[test]
    fn oom_surfaces_as_error_not_panic() {
        let path = temp_csv(5000);
        let pd = LaFP::with_config(LafpConfig {
            backend: BackendKind::Pandas,
            memory_budget: 20_000,
            ..Default::default()
        });
        let df = pd.read_csv(&path);
        let err = df.compute(&[]).unwrap_err();
        assert!(matches!(err, ColumnarError::OutOfMemory { .. }));
    }

    #[test]
    fn dask_streams_within_budget_where_pandas_cannot() {
        let path = temp_csv(5000);
        let budget = 400_000;
        let pandas = LaFP::with_config(LafpConfig {
            backend: BackendKind::Pandas,
            memory_budget: budget,
            ..Default::default()
        });
        let df = pandas.read_csv(&path);
        let g = df.groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
        assert!(g.compute(&[]).is_err(), "pandas OOMs");

        let dask = LaFP::with_config(LafpConfig {
            backend: BackendKind::Dask,
            memory_budget: budget,
            chunk_rows: 256,
            ..Default::default()
        });
        let df = dask.read_csv(&path);
        let g = df.groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
        let out = g.compute(&[]).unwrap();
        assert_eq!(out.num_rows(), 7, "dask streams within the same budget");
    }

    #[test]
    fn explain_shows_figure6_shape() {
        let path = temp_csv(10);
        let pd = LaFP::new();
        let df = pd
            .read_csv(&path)
            .filter(Expr::col("fare").gt(Expr::lit_float(0.0)))
            .groupby_agg(vec!["day".into()], "fare", AggKind::Sum);
        df.print();
        let plan = pd.explain(&[]);
        assert!(plan.contains("read_csv"));
        assert!(plan.contains("filter"));
        assert!(plan.contains("groupby"));
        assert!(plan.contains("print"));
        pd.flush().unwrap();
    }
}
