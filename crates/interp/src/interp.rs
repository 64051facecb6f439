//! The PandaScript executor for all six experimental configurations.

use crate::value::{FrameVal, Namespace, PyValue, SeriesVal};
use lafp_backends::{BackendKind, DaskEngine, DaskOp, EagerEngine, MemoryTracker};
use lafp_columnar::column::{ArithOp, CmpOp, DtField, StrOp};
use lafp_columnar::csv::CsvOptions;
use lafp_columnar::groupby::GroupBySpec;
use lafp_columnar::join::JoinKind;
use lafp_columnar::sort::SortOptions;
use lafp_columnar::{AggKind, ColumnarError, DataFrame, DType, HeapSize, Result, Scalar};
use lafp_core::{LaFP, LafpConfig, LazyFrame, PrintArg};
use lafp_expr::Expr as ColExpr;
use lafp_ir::ast::{Ast, BinOpKind, CmpOpKind, Expr, FPiece, StmtId, StmtKind, Target, UnaryOpKind};
use lafp_meta::MetaStore;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// Which execution configuration to run (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Plain eager backend (Pandas or Modin baselines).
    Eager(BackendKind),
    /// The manually-ported Dask baseline: lazy graphs, a separate
    /// `compute()` per print/plot/aggregate, no LaFP optimizations.
    PlainDask,
    /// The LaFP runtime (LPandas / LModin / LDask, per the config backend).
    Lafp,
}

/// What a program run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Captured print output, one entry per print.
    pub output: Vec<String>,
    /// Plot calls recorded by the matplotlib stub (rows plotted).
    pub plots: Vec<String>,
    /// Peak simulated memory (bytes).
    pub peak_memory: usize,
}

enum Engines {
    Eager(EagerEngine),
    Dask(DaskEngine),
    Lafp(LaFP),
}

/// The interpreter.
pub struct Interp {
    engines: Engines,
    tracker: Arc<MemoryTracker>,
    env: HashMap<String, PyValue>,
    output: Vec<String>,
    plots: Vec<String>,
    externals: HashSet<String>,
    pandas_alias: Option<String>,
    lazy_print: bool,
    use_metadata: bool,
    print_rows: usize,
    data_dir: PathBuf,
}

/// Extended runtime value for group-by chains.
enum Callee {
    Print,
    Len,
    PandasFn(String),
    ExternalFn(String, String),
    Method(PyValue, String),
}

impl Interp {
    /// Build an interpreter. The `config` supplies budget, threads, chunk
    /// size, optimizer flags (LaFP mode) and metadata usage.
    pub fn new(mode: ExecMode, config: LafpConfig, data_dir: PathBuf) -> Interp {
        let (engines, tracker, use_metadata) = match mode {
            ExecMode::Eager(kind) => {
                let tracker = MemoryTracker::with_budget(config.memory_budget);
                (
                    Engines::Eager(EagerEngine::new(kind, Arc::clone(&tracker), config.threads)),
                    tracker,
                    config.use_metadata,
                )
            }
            ExecMode::PlainDask => {
                let tracker = MemoryTracker::with_budget(config.memory_budget);
                (
                    Engines::Dask(DaskEngine::new(Arc::clone(&tracker), config.chunk_rows)),
                    tracker,
                    config.use_metadata,
                )
            }
            ExecMode::Lafp => {
                let use_meta = config.use_metadata;
                let session = LaFP::with_config(config);
                let tracker = Arc::clone(session.tracker());
                (Engines::Lafp(session), tracker, use_meta)
            }
        };
        Interp {
            engines,
            tracker,
            env: HashMap::new(),
            output: Vec::new(),
            plots: Vec::new(),
            externals: HashSet::new(),
            pandas_alias: None,
            lazy_print: false,
            use_metadata,
            print_rows: 5,
            data_dir,
        }
    }

    /// The memory tracker (peak readings drive Figure 15).
    pub fn tracker(&self) -> &Arc<MemoryTracker> {
        &self.tracker
    }

    /// Execute a module.
    pub fn run(&mut self, ast: &Ast) -> Result<RunOutcome> {
        let module = ast.module.clone();
        self.exec_block(ast, &module)?;
        // Safety net: un-flushed lazy prints at program end still print.
        if let Engines::Lafp(session) = &self.engines {
            session.flush()?;
            self.output.extend(session.take_output());
        }
        // Program end: release all held variables before reading the peak?
        // No — peak is a high-water mark; just read it.
        Ok(RunOutcome {
            output: std::mem::take(&mut self.output),
            plots: std::mem::take(&mut self.plots),
            peak_memory: self.tracker.peak(),
        })
    }

    fn exec_block(&mut self, ast: &Ast, stmts: &[StmtId]) -> Result<()> {
        for &id in stmts {
            self.exec_stmt(ast, id)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, ast: &Ast, id: StmtId) -> Result<()> {
        match &ast.stmt(id).kind {
            StmtKind::Import { module, alias } => {
                let name = alias.clone().unwrap_or_else(|| module.clone());
                if module == "lazyfatpandas.pandas" || module == "pandas" {
                    self.pandas_alias = Some(name.clone());
                } else if module != "lazyfatpandas" {
                    self.externals.insert(name.clone());
                }
                self.env.insert(name, PyValue::Module(module.clone()));
                Ok(())
            }
            StmtKind::FromImport { module, names } => {
                if module == "lazyfatpandas.func" && names.iter().any(|n| n == "print") {
                    self.lazy_print = true;
                }
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            StmtKind::Assign { target, value } => {
                let v = self.eval(value)?;
                match target {
                    Target::Name(name) => {
                        self.env.insert(name.clone(), v);
                    }
                    Target::Subscript { obj, key } => {
                        let col = key.as_str_lit().ok_or_else(|| {
                            err("subscript assignment requires a string column key")
                        })?;
                        let frame = self.frame_var(obj)?;
                        let expr = self.value_to_col_expr(&v)?;
                        let updated = self.f_with_column(&frame, col, &expr)?;
                        self.env.insert(obj.clone(), PyValue::Frame(updated));
                    }
                }
                Ok(())
            }
            StmtKind::If { cond, then, orelse } => {
                let c = self.eval(cond)?;
                if c.truthy() {
                    self.exec_block(ast, &then.clone())
                } else {
                    self.exec_block(ast, &orelse.clone())
                }
            }
            StmtKind::For { var, iter, body } => {
                let items = match self.eval(iter)? {
                    PyValue::List(items) => items,
                    other => return Err(err(&format!("cannot iterate {other:?}"))),
                };
                for item in items {
                    self.env.insert(var.clone(), item);
                    self.exec_block(ast, &body.clone())?;
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Expression evaluation
    // ------------------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<PyValue> {
        match e {
            Expr::Int(v) => Ok(PyValue::Scalar(Scalar::Int(*v))),
            Expr::Float(v) => Ok(PyValue::Scalar(Scalar::Float(*v))),
            Expr::Str(s) => Ok(PyValue::Scalar(Scalar::Str(s.clone()))),
            Expr::Bool(b) => Ok(PyValue::Scalar(Scalar::Bool(*b))),
            Expr::NoneLit => Ok(PyValue::None),
            Expr::Name(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| err(&format!("name {n:?} is not defined"))),
            Expr::List(items) => Ok(PyValue::List(
                items
                    .iter()
                    .map(|i| self.eval(i))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Expr::Dict(items) => Ok(PyValue::Dict(
                items
                    .iter()
                    .map(|(k, v)| Ok((self.eval(k)?, self.eval(v)?)))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Expr::FString(pieces) => {
                // Outside print: render eagerly.
                let mut out = String::new();
                for p in pieces {
                    match p {
                        FPiece::Text(t) => out.push_str(t),
                        FPiece::Expr(inner) => {
                            let v = self.eval(inner)?;
                            out.push_str(&self.render_eager(&v)?);
                        }
                    }
                }
                Ok(PyValue::Scalar(Scalar::Str(out)))
            }
            Expr::Attribute { value, attr } => {
                let recv = self.eval(value)?;
                self.eval_attribute(recv, attr)
            }
            Expr::Subscript { value, index } => {
                let recv = self.eval(value)?;
                self.eval_subscript(recv, index)
            }
            Expr::Call { func, args, kwargs } => self.eval_call(func, args, kwargs),
            Expr::Compare { left, op, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.eval_compare(l, *op, r)
            }
            Expr::BinOp { left, op, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                self.eval_binop(l, *op, r)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match (op, v) {
                    (UnaryOpKind::Invert, PyValue::Series(s)) => Ok(PyValue::Series(SeriesVal {
                        frame: s.frame,
                        expr: !s.expr,
                    })),
                    (UnaryOpKind::Not, v) => Ok(PyValue::Scalar(Scalar::Bool(!v.truthy()))),
                    (UnaryOpKind::Neg, PyValue::Scalar(Scalar::Int(v))) => {
                        Ok(PyValue::Scalar(Scalar::Int(-v)))
                    }
                    (UnaryOpKind::Neg, PyValue::Scalar(Scalar::Float(v))) => {
                        Ok(PyValue::Scalar(Scalar::Float(-v)))
                    }
                    (op, v) => Err(err(&format!("unsupported unary {op:?} on {v:?}"))),
                }
            }
        }
    }

    fn eval_attribute(&mut self, recv: PyValue, attr: &str) -> Result<PyValue> {
        match recv {
            PyValue::Frame(frame) => {
                // df.col — column read (methods are resolved at Call sites).
                Ok(PyValue::Series(SeriesVal {
                    frame,
                    expr: ColExpr::col(attr),
                }))
            }
            PyValue::Series(series) => match attr {
                "dt" => Ok(PyValue::Accessor(series, Namespace::Dt)),
                "str" => Ok(PyValue::Accessor(series, Namespace::Str)),
                _ => Err(err(&format!("unknown series attribute {attr:?}"))),
            },
            PyValue::Accessor(series, Namespace::Dt) => {
                let field = DtField::parse(attr)
                    .ok_or_else(|| err(&format!("unknown dt accessor {attr:?}")))?;
                Ok(PyValue::Series(SeriesVal {
                    frame: series.frame,
                    expr: series.expr.dt(field),
                }))
            }
            PyValue::Accessor(_, Namespace::Str) => {
                Err(err("str accessor fields must be called (e.g. .str.lower())"))
            }
            other => Err(err(&format!("no attribute {attr:?} on {other:?}"))),
        }
    }

    fn eval_subscript(&mut self, recv: PyValue, index: &Expr) -> Result<PyValue> {
        match recv {
            PyValue::Frame(frame) => {
                if let Some(col) = index.as_str_lit() {
                    return Ok(PyValue::Series(SeriesVal {
                        frame,
                        expr: ColExpr::col(col),
                    }));
                }
                if let Some(cols) = index.as_str_list() {
                    return Ok(PyValue::Frame(self.f_select(&frame, cols)?));
                }
                // Boolean mask filter.
                let mask = self.eval(index)?;
                match mask {
                    PyValue::Series(s) => Ok(PyValue::Frame(self.f_filter(&frame, &s.expr)?)),
                    other => Err(err(&format!("unsupported frame subscript {other:?}"))),
                }
            }
            PyValue::GroupBy(frame, keys) => {
                let col = index
                    .as_str_lit()
                    .ok_or_else(|| err("groupby subscript must be a column name"))?;
                Ok(PyValue::GroupByCol(frame, keys, col.to_string()))
            }
            PyValue::List(items) => {
                let i = match self.eval(index)? {
                    PyValue::Scalar(Scalar::Int(i)) => i,
                    other => return Err(err(&format!("bad list index {other:?}"))),
                };
                items
                    .get(i as usize)
                    .cloned()
                    .ok_or_else(|| err("list index out of range"))
            }
            other => Err(err(&format!("cannot subscript {other:?}"))),
        }
    }

    fn eval_compare(&mut self, l: PyValue, op: CmpOpKind, r: PyValue) -> Result<PyValue> {
        let cop = map_cmp(op);
        match (l, r) {
            (PyValue::Series(s), rhs) => {
                let rhs_expr = self.value_to_col_expr(&rhs)?;
                Ok(PyValue::Series(SeriesVal {
                    frame: s.frame,
                    expr: s.expr.cmp(cop, rhs_expr),
                }))
            }
            (lhs, PyValue::Series(s)) => {
                let lhs_expr = self.value_to_col_expr(&lhs)?;
                Ok(PyValue::Series(SeriesVal {
                    frame: s.frame,
                    expr: lhs_expr.cmp(cop, s.expr),
                }))
            }
            (PyValue::Scalar(a), PyValue::Scalar(b)) => {
                let ord = a.cmp_values(&b);
                let res = match op {
                    CmpOpKind::Eq => ord.is_eq(),
                    CmpOpKind::Ne => !ord.is_eq(),
                    CmpOpKind::Lt => ord.is_lt(),
                    CmpOpKind::Le => ord.is_le(),
                    CmpOpKind::Gt => ord.is_gt(),
                    CmpOpKind::Ge => ord.is_ge(),
                };
                Ok(PyValue::Scalar(Scalar::Bool(res)))
            }
            (PyValue::LazyScalar(s), rhs) => {
                // Comparing a lazy scalar forces it (e.g. `if avg > 10:`).
                let v = s.compute(&[])?;
                self.eval_compare(PyValue::Scalar(v), op, rhs)
            }
            (lhs, PyValue::LazyScalar(s)) => {
                let v = s.compute(&[])?;
                self.eval_compare(lhs, op, PyValue::Scalar(v))
            }
            (l, r) => Err(err(&format!("unsupported comparison {l:?} vs {r:?}"))),
        }
    }

    fn eval_binop(&mut self, l: PyValue, op: BinOpKind, r: PyValue) -> Result<PyValue> {
        match op {
            BinOpKind::And | BinOpKind::Or => {
                let (PyValue::Series(a), PyValue::Series(b)) = (l, r) else {
                    return Err(err("&/| operands must be boolean series"));
                };
                let expr = if op == BinOpKind::And {
                    a.expr.and(b.expr)
                } else {
                    a.expr.or(b.expr)
                };
                Ok(PyValue::Series(SeriesVal {
                    frame: a.frame,
                    expr,
                }))
            }
            _ => {
                let aop = map_arith(op);
                match (l, r) {
                    // Arithmetic on a lazy scalar forces it.
                    (PyValue::LazyScalar(s), rhs) => {
                        let v = s.compute(&[])?;
                        self.eval_binop(PyValue::Scalar(v), op, rhs)
                    }
                    (lhs, PyValue::LazyScalar(s)) => {
                        let v = s.compute(&[])?;
                        self.eval_binop(lhs, op, PyValue::Scalar(v))
                    }
                    (PyValue::Series(s), rhs) => {
                        let rhs_expr = self.value_to_col_expr(&rhs)?;
                        Ok(PyValue::Series(SeriesVal {
                            frame: s.frame,
                            expr: s.expr.arith(aop, rhs_expr),
                        }))
                    }
                    (lhs, PyValue::Series(s)) => {
                        let lhs_expr = self.value_to_col_expr(&lhs)?;
                        Ok(PyValue::Series(SeriesVal {
                            frame: s.frame,
                            expr: lhs_expr.arith(aop, s.expr),
                        }))
                    }
                    (PyValue::Scalar(Scalar::Str(a)), PyValue::Scalar(Scalar::Str(b)))
                        if op == BinOpKind::Add =>
                    {
                        Ok(PyValue::Scalar(Scalar::Str(format!("{a}{b}"))))
                    }
                    (PyValue::Scalar(a), PyValue::Scalar(b)) => {
                        let (x, y) = (
                            a.as_f64().ok_or_else(|| err("non-numeric arithmetic"))?,
                            b.as_f64().ok_or_else(|| err("non-numeric arithmetic"))?,
                        );
                        let v = match aop {
                            ArithOp::Add => x + y,
                            ArithOp::Sub => x - y,
                            ArithOp::Mul => x * y,
                            ArithOp::Div => x / y,
                            ArithOp::Mod => x.rem_euclid(y),
                        };
                        let int_result = matches!(
                            (&a, &b, aop),
                            (Scalar::Int(_), Scalar::Int(_), ArithOp::Add)
                                | (Scalar::Int(_), Scalar::Int(_), ArithOp::Sub)
                                | (Scalar::Int(_), Scalar::Int(_), ArithOp::Mul)
                                | (Scalar::Int(_), Scalar::Int(_), ArithOp::Mod)
                        );
                        Ok(PyValue::Scalar(if int_result {
                            Scalar::Int(v as i64)
                        } else {
                            Scalar::Float(v)
                        }))
                    }
                    (l, r) => Err(err(&format!("unsupported arithmetic {l:?} {op:?} {r:?}"))),
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    fn classify_callee(&mut self, func: &Expr) -> Result<Callee> {
        match func {
            Expr::Name(n) if n == "print" => Ok(Callee::Print),
            Expr::Name(n) if n == "len" => Ok(Callee::Len),
            Expr::Attribute { value, attr } => {
                if let Expr::Name(m) = value.as_ref() {
                    if Some(m) == self.pandas_alias.as_ref() {
                        return Ok(Callee::PandasFn(attr.clone()));
                    }
                    if self.externals.contains(m) {
                        return Ok(Callee::ExternalFn(m.clone(), attr.clone()));
                    }
                }
                let recv = self.eval(value)?;
                Ok(Callee::Method(recv, attr.clone()))
            }
            other => Err(err(&format!("cannot call {other:?}"))),
        }
    }

    fn eval_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<PyValue> {
        match self.classify_callee(func)? {
            Callee::Print => self.builtin_print(args),
            Callee::Len => {
                let v = self.eval(&args[0])?;
                match v {
                    PyValue::Frame(frame) => self.f_len(&frame),
                    PyValue::List(items) => Ok(PyValue::Scalar(Scalar::Int(items.len() as i64))),
                    PyValue::Scalar(Scalar::Str(s)) => {
                        Ok(PyValue::Scalar(Scalar::Int(s.chars().count() as i64)))
                    }
                    other => Err(err(&format!("len() of {other:?}"))),
                }
            }
            Callee::PandasFn(name) => match name.as_str() {
                "read_csv" => self.pandas_read_csv(args, kwargs),
                "analyze" => Ok(PyValue::None), // JIT bootstrap: no-op here
                "flush" => {
                    if let Engines::Lafp(session) = &self.engines {
                        session.flush()?;
                        self.output.extend(session.take_output());
                    }
                    Ok(PyValue::None)
                }
                other => Err(err(&format!("unsupported pandas function {other:?}"))),
            },
            Callee::ExternalFn(module, name) => self.external_call(&module, &name, args),
            Callee::Method(recv, method) => self.method_call(recv, &method, args, kwargs),
        }
    }

    fn builtin_print(&mut self, args: &[Expr]) -> Result<PyValue> {
        // Build print pieces; f-strings explode into text/value pieces so
        // the LaFP lazy print can defer the value slots (§3.3).
        let mut pieces: Vec<PyValue> = Vec::new();
        let mut texts: Vec<Option<String>> = Vec::new();
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                texts.push(Some(" ".into()));
                pieces.push(PyValue::None);
            }
            match a {
                Expr::FString(fp) => {
                    for p in fp {
                        match p {
                            FPiece::Text(t) => {
                                texts.push(Some(t.clone()));
                                pieces.push(PyValue::None);
                            }
                            FPiece::Expr(inner) => {
                                let v = self.eval(inner)?;
                                texts.push(None);
                                pieces.push(v);
                            }
                        }
                    }
                }
                other => {
                    let v = self.eval(other)?;
                    texts.push(None);
                    pieces.push(v);
                }
            }
        }
        if let Engines::Lafp(session) = &self.engines {
            let session = session.clone();
            let mut print_args = Vec::new();
            for (text, value) in texts.iter().zip(&pieces) {
                match text {
                    Some(t) => print_args.push(PrintArg::Text(t.clone())),
                    None => match value {
                        PyValue::Frame(FrameVal::Lafp(f)) => {
                            print_args.push(PrintArg::Frame(f.clone()))
                        }
                        PyValue::Series(s) => {
                            let f = self.series_to_frame(s)?;
                            match f {
                                FrameVal::Lafp(lf) => print_args.push(PrintArg::Frame(lf)),
                                _ => unreachable!("lafp mode"),
                            }
                        }
                        PyValue::LazyScalar(s) => print_args.push(PrintArg::Scalar(s.clone())),
                        other => print_args.push(PrintArg::Text(self.render_eager(other)?)),
                    },
                }
            }
            session.print(print_args);
            if !self.lazy_print {
                // No lazy-print override: print forces computation now.
                session.flush()?;
                self.output.extend(session.take_output());
            }
            return Ok(PyValue::None);
        }
        // Eager / plain-dask: render immediately.
        let mut line = String::new();
        for (text, value) in texts.iter().zip(&pieces) {
            match text {
                Some(t) => line.push_str(t),
                None => line.push_str(&self.render_eager(value)?),
            }
        }
        self.output.push(line);
        Ok(PyValue::None)
    }

    /// matplotlib-style stub: requires a *materialized* frame (forces
    /// computation in the lazy modes), records the call (§3.4).
    fn external_call(&mut self, module: &str, name: &str, args: &[Expr]) -> Result<PyValue> {
        let mut rows = Vec::new();
        for a in args {
            let v = self.eval(a)?;
            match v {
                PyValue::Frame(frame) => {
                    let (df, _res) = self.materialize(&frame)?;
                    rows.push(df.num_rows().to_string());
                }
                PyValue::Series(s) => {
                    let frame = self.series_to_frame(&s)?;
                    let (df, _res) = self.materialize(&frame)?;
                    rows.push(df.num_rows().to_string());
                }
                PyValue::Scalar(s) => rows.push(s.to_string()),
                PyValue::LazyScalar(s) => rows.push(s.compute(&[])?.to_string()),
                _ => {}
            }
        }
        self.plots.push(format!("{module}.{name}({})", rows.join(",")));
        Ok(PyValue::None)
    }

    fn pandas_read_csv(&mut self, args: &[Expr], kwargs: &[(String, Expr)]) -> Result<PyValue> {
        let path_arg = args
            .first()
            .ok_or_else(|| err("read_csv requires a path"))?;
        let path_str = match self.eval(path_arg)? {
            PyValue::Scalar(Scalar::Str(s)) => s,
            other => return Err(err(&format!("bad read_csv path {other:?}"))),
        };
        let path = if PathBuf::from(&path_str).is_relative() {
            self.data_dir.join(&path_str)
        } else {
            PathBuf::from(&path_str)
        };
        let mut options = CsvOptions::new();
        for (k, v) in kwargs {
            match k.as_str() {
                "usecols" => {
                    let cols = self
                        .eval(v)?
                        .as_string_list()
                        .ok_or_else(|| err("usecols must be a list of strings"))?;
                    options.usecols = Some(cols);
                }
                "parse_dates" => {
                    let cols = self
                        .eval(v)?
                        .as_string_list()
                        .ok_or_else(|| err("parse_dates must be a list of strings"))?;
                    options.parse_dates = cols;
                }
                "dtype" => {
                    if let PyValue::Dict(items) = self.eval(v)? {
                        for (k, v) in items {
                            if let (Some(col), Some(dt)) = (k.as_str(), v.as_str()) {
                                if let Some(dt) = DType::parse(dt) {
                                    options.dtypes.insert(col.to_string(), dt);
                                }
                            }
                        }
                    }
                }
                other => return Err(err(&format!("unsupported read_csv kwarg {other:?}"))),
            }
        }
        // Runtime metadata utilization (§3.6): known dtypes from the
        // metastore speed up parsing (no inference) in every mode.
        if self.use_metadata {
            if let Ok(Some(meta)) = MetaStore::new().load(&path) {
                for c in &meta.columns {
                    if !options.parse_dates.iter().any(|p| p == &c.name) {
                        options.dtypes.entry(c.name.clone()).or_insert(c.dtype);
                    }
                }
            }
        }
        match &mut self.engines {
            Engines::Eager(engine) => {
                let df = engine.read_csv(&path, &options)?;
                let reservation = self.tracker.charge(df.heap_size())?;
                Ok(PyValue::Frame(FrameVal::Eager(
                    Arc::new(df),
                    Rc::new(reservation),
                )))
            }
            Engines::Dask(engine) => {
                let node = engine.add(
                    DaskOp::ReadCsv {
                        path,
                        options,
                        limit: None,
                    },
                    vec![],
                );
                Ok(PyValue::Frame(FrameVal::DaskNode(node)))
            }
            Engines::Lafp(session) => {
                let lf = session.read_csv_opts(&path, options, &[]);
                Ok(PyValue::Frame(FrameVal::Lafp(lf)))
            }
        }
    }

    fn method_call(
        &mut self,
        recv: PyValue,
        method: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<PyValue> {
        match recv {
            PyValue::Frame(frame) => self.frame_method(frame, method, args, kwargs),
            PyValue::Series(series) => self.series_method(series, method, args, kwargs),
            PyValue::Accessor(series, Namespace::Str) => {
                let op = match method {
                    "lower" => StrOp::Lower,
                    "upper" => StrOp::Upper,
                    "len" => StrOp::Len,
                    "contains" => {
                        let pat = self.eval_str_arg(args)?;
                        StrOp::Contains(pat)
                    }
                    "startswith" => {
                        let pat = self.eval_str_arg(args)?;
                        StrOp::StartsWith(pat)
                    }
                    other => return Err(err(&format!("unknown str method {other:?}"))),
                };
                Ok(PyValue::Series(SeriesVal {
                    frame: series.frame,
                    expr: series.expr.str_op(op),
                }))
            }
            PyValue::GroupByCol(frame, keys, col) => {
                let agg = AggKind::parse(method)
                    .ok_or_else(|| err(&format!("unknown aggregate {method:?}")))?;
                Ok(PyValue::Frame(self.f_groupby_agg(&frame, keys, col, agg)?))
            }
            other => Err(err(&format!("cannot call {method:?} on {other:?}"))),
        }
    }

    fn eval_str_arg(&mut self, args: &[Expr]) -> Result<String> {
        match self.eval(args.first().ok_or_else(|| err("missing argument"))?)? {
            PyValue::Scalar(Scalar::Str(s)) => Ok(s),
            other => Err(err(&format!("expected string argument, got {other:?}"))),
        }
    }

    fn frame_method(
        &mut self,
        frame: FrameVal,
        method: &str,
        args: &[Expr],
        kwargs: &[(String, Expr)],
    ) -> Result<PyValue> {
        match method {
            "head" | "tail" => {
                let n = match args.first() {
                    Some(a) => match self.eval(a)? {
                        PyValue::Scalar(Scalar::Int(v)) => v as usize,
                        other => return Err(err(&format!("bad head/tail arg {other:?}"))),
                    },
                    None => 5,
                };
                Ok(PyValue::Frame(self.f_head_tail(&frame, n, method == "head")?))
            }
            "fillna" => {
                let v = match self.eval(args.first().ok_or_else(|| err("fillna needs a value"))?)? {
                    PyValue::Scalar(s) => s,
                    other => return Err(err(&format!("bad fillna value {other:?}"))),
                };
                Ok(PyValue::Frame(self.f_fillna(&frame, &v)?))
            }
            "drop" => {
                let cols = self.kwarg_string_list(kwargs, "columns")?.ok_or_else(|| {
                    err("drop requires columns=[...]")
                })?;
                Ok(PyValue::Frame(self.f_drop(&frame, cols)?))
            }
            "rename" => {
                let mapping = self.kwarg_rename_map(kwargs)?;
                Ok(PyValue::Frame(self.f_rename(&frame, mapping)?))
            }
            "sort_values" => {
                let by = match args.first() {
                    Some(a) => self
                        .eval(a)?
                        .as_string_list()
                        .ok_or_else(|| err("sort_values by must be str or list"))?,
                    None => self
                        .kwarg_string_list(kwargs, "by")?
                        .ok_or_else(|| err("sort_values requires by"))?,
                };
                // A bool applies to every key; a list gives one flag per
                // key (the kernel rejects a length mismatch, as pandas).
                let ascending = match kwargs.iter().find(|(k, _)| k == "ascending") {
                    Some((_, v)) => match self.eval(v)? {
                        PyValue::Scalar(Scalar::Bool(b)) => vec![b; by.len()],
                        PyValue::List(items) => items
                            .into_iter()
                            .map(|item| match item {
                                PyValue::Scalar(Scalar::Bool(b)) => Ok(b),
                                other => Err(err(&format!("bad ascending entry {other:?}"))),
                            })
                            .collect::<Result<Vec<bool>>>()?,
                        other => return Err(err(&format!("bad ascending {other:?}"))),
                    },
                    None => vec![true; by.len()],
                };
                let options = SortOptions { by, ascending };
                Ok(PyValue::Frame(self.f_sort(&frame, options)?))
            }
            "drop_duplicates" => {
                let subset = self.kwarg_string_list(kwargs, "subset")?.unwrap_or_default();
                Ok(PyValue::Frame(self.f_dropdup(&frame, subset)?))
            }
            "describe" => Ok(PyValue::Frame(self.f_describe(&frame)?)),
            "copy" | "reset_index" => Ok(PyValue::Frame(frame)),
            "merge" => {
                let right = match self.eval(args.first().ok_or_else(|| err("merge needs rhs"))?)? {
                    PyValue::Frame(f) => f,
                    other => return Err(err(&format!("merge rhs {other:?}"))),
                };
                let on = self
                    .kwarg_string_list(kwargs, "on")?
                    .ok_or_else(|| err("merge requires on=[...]"))?;
                let how = match kwargs.iter().find(|(k, _)| k == "how") {
                    Some((_, v)) => {
                        let name = match self.eval(v)? {
                            PyValue::Scalar(Scalar::Str(s)) => s,
                            other => return Err(err(&format!("bad how {other:?}"))),
                        };
                        JoinKind::parse(&name)
                            .ok_or_else(|| err(&format!("unsupported how={name:?}")))?
                    }
                    None => JoinKind::Inner,
                };
                Ok(PyValue::Frame(self.f_merge(&frame, &right, on, how)?))
            }
            "groupby" => {
                let keys = match args.first() {
                    Some(a) => self
                        .eval(a)?
                        .as_string_list()
                        .ok_or_else(|| err("groupby keys must be strings"))?,
                    None => return Err(err("groupby requires keys")),
                };
                Ok(PyValue::GroupBy(frame, keys))
            }
            "compute" => {
                // §3.4 forced computation with §3.5 live_df.
                let live = self.live_frames_kwarg(kwargs)?;
                let (df, reservation) = match &frame {
                    FrameVal::Lafp(lf) => {
                        let refs: Vec<&LazyFrame> = live.iter().collect();
                        let df = lf.compute(&refs)?;
                        let reservation = self.tracker.charge(df.heap_size())?;
                        (Arc::new(df), Rc::new(reservation))
                    }
                    _ => self.materialize(&frame)?,
                };
                Ok(PyValue::Frame(FrameVal::Eager(df, reservation)))
            }
            agg if AggKind::parse(agg).is_some() => {
                // Whole-frame aggregate not in our subset; reduce per column
                // is handled on series. Treat as error to surface misuse.
                Err(err(&format!("frame-level aggregate {agg:?} unsupported")))
            }
            other => Err(err(&format!("unsupported dataframe method {other:?}"))),
        }
    }

    fn series_method(
        &mut self,
        series: SeriesVal,
        method: &str,
        args: &[Expr],
        _kwargs: &[(String, Expr)],
    ) -> Result<PyValue> {
        if let Some(agg) = AggKind::parse(method) {
            return self.f_reduce(&series, agg);
        }
        match method {
            "fillna" => {
                let v = match self.eval(args.first().ok_or_else(|| err("fillna needs value"))?)? {
                    PyValue::Scalar(s) => s,
                    other => return Err(err(&format!("bad fillna value {other:?}"))),
                };
                Ok(PyValue::Series(SeriesVal {
                    frame: series.frame,
                    expr: ColExpr::FillNa(Box::new(series.expr), v),
                }))
            }
            "astype" => {
                let name = self.eval_str_arg(args)?;
                let dt = DType::parse(&name)
                    .ok_or_else(|| err(&format!("unknown dtype {name:?}")))?;
                Ok(PyValue::Series(SeriesVal {
                    frame: series.frame,
                    expr: ColExpr::Cast(Box::new(series.expr), dt),
                }))
            }
            "round" => {
                let digits = match args.first() {
                    Some(a) => match self.eval(a)? {
                        PyValue::Scalar(Scalar::Int(v)) => v as i32,
                        other => return Err(err(&format!("bad round arg {other:?}"))),
                    },
                    None => 0,
                };
                Ok(PyValue::Series(SeriesVal {
                    frame: series.frame,
                    expr: ColExpr::Round(Box::new(series.expr), digits),
                }))
            }
            "abs" => Ok(PyValue::Series(SeriesVal {
                frame: series.frame,
                expr: ColExpr::Abs(Box::new(series.expr)),
            })),
            "isna" | "isnull" => Ok(PyValue::Series(SeriesVal {
                frame: series.frame,
                expr: ColExpr::IsNull(Box::new(series.expr)),
            })),
            "notna" | "notnull" => Ok(PyValue::Series(SeriesVal {
                frame: series.frame,
                expr: ColExpr::NotNull(Box::new(series.expr)),
            })),
            "compute" => {
                let frame = self.series_to_frame(&series)?;
                let (df, reservation) = self.materialize(&frame)?;
                Ok(PyValue::Frame(FrameVal::Eager(df, reservation)))
            }
            other => Err(err(&format!("unsupported series method {other:?}"))),
        }
    }

    // ------------------------------------------------------------------
    // Frame operations per mode
    // ------------------------------------------------------------------

    fn frame_var(&self, name: &str) -> Result<FrameVal> {
        match self.env.get(name) {
            Some(PyValue::Frame(f)) => Ok(f.clone()),
            other => Err(err(&format!("{name:?} is not a dataframe ({other:?})"))),
        }
    }

    fn value_to_col_expr(&self, v: &PyValue) -> Result<ColExpr> {
        match v {
            PyValue::Series(s) => Ok(s.expr.clone()),
            PyValue::Scalar(s) => Ok(ColExpr::Lit(s.clone())),
            PyValue::None => Ok(ColExpr::Lit(Scalar::Null)),
            other => Err(err(&format!("cannot use {other:?} as a column expression"))),
        }
    }

    fn kwarg_string_list(
        &mut self,
        kwargs: &[(String, Expr)],
        name: &str,
    ) -> Result<Option<Vec<String>>> {
        match kwargs.iter().find(|(k, _)| k == name) {
            Some((_, v)) => {
                let value = self.eval(v)?;
                value
                    .as_string_list()
                    .map(Some)
                    .ok_or_else(|| err(&format!("{name} must be a string list")))
            }
            None => Ok(None),
        }
    }

    fn kwarg_rename_map(&mut self, kwargs: &[(String, Expr)]) -> Result<Vec<(String, String)>> {
        match kwargs.iter().find(|(k, _)| k == "columns") {
            Some((_, v)) => match self.eval(v)? {
                PyValue::Dict(items) => items
                    .into_iter()
                    .map(|(k, v)| match (k.as_str(), v.as_str()) {
                        (Some(a), Some(b)) => Ok((a.to_string(), b.to_string())),
                        _ => Err(err("rename mapping must be string: string")),
                    })
                    .collect(),
                other => Err(err(&format!("bad rename columns {other:?}"))),
            },
            None => Err(err("rename requires columns={...}")),
        }
    }

    fn live_frames_kwarg(&mut self, kwargs: &[(String, Expr)]) -> Result<Vec<LazyFrame>> {
        let mut out = Vec::new();
        if let Some((_, v)) = kwargs.iter().find(|(k, _)| k == "live_df") {
            if let PyValue::List(items) = self.eval(v)? {
                for item in items {
                    if let PyValue::Frame(FrameVal::Lafp(lf)) = item {
                        out.push(lf);
                    }
                }
            }
        }
        Ok(out)
    }

    fn dask_engine(&mut self) -> &mut DaskEngine {
        match &mut self.engines {
            Engines::Dask(e) => e,
            _ => unreachable!("dask engine access outside PlainDask mode"),
        }
    }

    fn f_filter(&mut self, frame: &FrameVal, predicate: &ColExpr) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().filter(df, predicate)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self
                    .dask_engine()
                    .add(DaskOp::Filter(predicate.clone()), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.filter(predicate.clone()))),
        }
    }

    fn f_with_column(&mut self, frame: &FrameVal, name: &str, expr: &ColExpr) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().with_column(df, name, expr)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self
                    .dask_engine()
                    .add(DaskOp::WithColumn(name.into(), expr.clone()), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.with_column(name, expr.clone()))),
        }
    }

    fn f_select(&mut self, frame: &FrameVal, cols: Vec<String>) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().select(df, &cols)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::Select(cols), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.select(cols))),
        }
    }

    fn f_drop(&mut self, frame: &FrameVal, cols: Vec<String>) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().drop(df, &cols)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::DropColumns(cols), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.drop(cols))),
        }
    }

    fn f_rename(&mut self, frame: &FrameVal, mapping: Vec<(String, String)>) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().rename(df, &mapping)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::Rename(mapping), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.rename(mapping))),
        }
    }

    fn f_fillna(&mut self, frame: &FrameVal, value: &Scalar) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().fillna(df, value)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self
                    .dask_engine()
                    .add(DaskOp::FillNa(value.clone()), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.fillna(value.clone()))),
        }
    }

    fn f_head_tail(&mut self, frame: &FrameVal, n: usize, head: bool) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = if head { df.head(n) } else { df.tail(n) };
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                if head {
                    let node = self.dask_engine().add(DaskOp::Head(n), vec![*id]);
                    Ok(FrameVal::DaskNode(node))
                } else {
                    // Manual Dask ports materialize for tail (no dask tail).
                    let (df, _r) = self.dask_engine().gather(*id)?;
                    let out = df.tail(n);
                    let node = self
                        .dask_engine()
                        .add(DaskOp::FromFrame(Arc::new(out)), vec![]);
                    Ok(FrameVal::DaskNode(node))
                }
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(if head { lf.head(n) } else { lf.tail(n) })),
        }
    }

    fn f_sort(&mut self, frame: &FrameVal, options: SortOptions) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().sort_values(df, &options)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::Sort(options), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.sort_values(options))),
        }
    }

    fn f_dropdup(&mut self, frame: &FrameVal, subset: Vec<String>) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().drop_duplicates(df, &subset)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self
                    .dask_engine()
                    .add(DaskOp::DropDuplicates(subset), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.drop_duplicates(subset))),
        }
    }

    fn f_describe(&mut self, frame: &FrameVal) -> Result<FrameVal> {
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().describe(df)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                // Manual port: gather, describe in pandas, scatter back.
                let (df, _r) = self.dask_engine().gather(*id)?;
                let out = lafp_columnar::describe::describe(&df)?;
                let node = self
                    .dask_engine()
                    .add(DaskOp::FromFrame(Arc::new(out)), vec![]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.describe())),
        }
    }

    fn f_merge(
        &mut self,
        left: &FrameVal,
        right: &FrameVal,
        on: Vec<String>,
        how: JoinKind,
    ) -> Result<FrameVal> {
        match (left, right) {
            (FrameVal::Eager(l, _), FrameVal::Eager(r, _)) => {
                let out = self.eager_engine().merge(l, r, &on, how)?;
                self.charge_eager(out)
            }
            (FrameVal::DaskNode(l), FrameVal::DaskNode(r)) => {
                let node = self
                    .dask_engine()
                    .add(DaskOp::Merge { on, how }, vec![*l, *r]);
                Ok(FrameVal::DaskNode(node))
            }
            (FrameVal::Lafp(l), FrameVal::Lafp(r)) => {
                Ok(FrameVal::Lafp(l.merge(r, on, how)))
            }
            (l, r) => {
                // Mixed (e.g. computed frame merged with lazy): lift the
                // eager side into the lazy engine.
                match (l, r) {
                    (FrameVal::Lafp(l), FrameVal::Eager(df, _)) => {
                        let session = self.lafp_session()?;
                        let lifted = session.from_frame((**df).clone());
                        Ok(FrameVal::Lafp(l.merge(&lifted, on, how)))
                    }
                    (FrameVal::Eager(df, _), FrameVal::Lafp(r)) => {
                        let session = self.lafp_session()?;
                        let lifted = session.from_frame((**df).clone());
                        Ok(FrameVal::Lafp(lifted.merge(r, on, how)))
                    }
                    (FrameVal::DaskNode(l), FrameVal::Eager(df, _)) => {
                        let node = self
                            .dask_engine()
                            .add(DaskOp::FromFrame(Arc::clone(df)), vec![]);
                        let l = *l;
                        let m = self
                            .dask_engine()
                            .add(DaskOp::Merge { on, how }, vec![l, node]);
                        Ok(FrameVal::DaskNode(m))
                    }
                    _ => Err(err("unsupported mixed-mode merge")),
                }
            }
        }
    }

    fn f_groupby_agg(
        &mut self,
        frame: &FrameVal,
        keys: Vec<String>,
        value: String,
        agg: AggKind,
    ) -> Result<FrameVal> {
        let spec = GroupBySpec {
            keys,
            value,
            agg,
        };
        match frame {
            FrameVal::Eager(df, _) => {
                let out = self.eager_engine().group_by(df, &spec)?;
                self.charge_eager(out)
            }
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::GroupByAgg(spec), vec![*id]);
                Ok(FrameVal::DaskNode(node))
            }
            FrameVal::Lafp(lf) => Ok(FrameVal::Lafp(lf.groupby_agg(spec.keys, spec.value, spec.agg))),
        }
    }

    fn f_reduce(&mut self, series: &SeriesVal, agg: AggKind) -> Result<PyValue> {
        // Named column: reduce directly; compound expression: stage a
        // temporary computed column first.
        let (frame, column) = match &series.expr {
            ColExpr::Col(c) => (series.frame.clone(), c.clone()),
            compound => {
                let staged = self.f_with_column(&series.frame, "__lafp_agg", compound)?;
                (staged, "__lafp_agg".to_string())
            }
        };
        match &frame {
            FrameVal::Eager(df, _) => Ok(PyValue::Scalar(
                self.eager_engine().reduce(df, &column, agg)?,
            )),
            FrameVal::DaskNode(id) => {
                // Plain Dask: an aggregate forces its own compute pass.
                let node = self
                    .dask_engine()
                    .add(DaskOp::Reduce { column, agg }, vec![*id]);
                let (v, _r) = self.dask_engine().compute(node)?;
                Ok(PyValue::Scalar(v.into_scalar()?))
            }
            FrameVal::Lafp(lf) => Ok(PyValue::LazyScalar(lf.reduce(column, agg))),
        }
    }

    fn f_len(&mut self, frame: &FrameVal) -> Result<PyValue> {
        match frame {
            FrameVal::Eager(df, _) => Ok(PyValue::Scalar(Scalar::Int(df.num_rows() as i64))),
            FrameVal::DaskNode(id) => {
                let node = self.dask_engine().add(DaskOp::Len, vec![*id]);
                let (v, _r) = self.dask_engine().compute(node)?;
                Ok(PyValue::Scalar(v.into_scalar()?))
            }
            FrameVal::Lafp(lf) => Ok(PyValue::LazyScalar(lf.len())),
        }
    }

    /// Materialize any frame representation into a concrete `DataFrame`.
    fn materialize(&mut self, frame: &FrameVal) -> Result<(Arc<DataFrame>, Rc<MemoryReservationAlias>)> {
        match frame {
            FrameVal::Eager(df, r) => Ok((Arc::clone(df), Rc::clone(r))),
            FrameVal::DaskNode(id) => {
                let (df, reservation) = self.dask_engine().gather(*id)?;
                Ok((Arc::new(df), Rc::new(reservation)))
            }
            FrameVal::Lafp(lf) => {
                let df = lf.compute(&[])?;
                let reservation = self.tracker.charge(df.heap_size())?;
                Ok((Arc::new(df), Rc::new(reservation)))
            }
        }
    }

    /// A series as a single-column frame (for printing / plotting).
    fn series_to_frame(&mut self, series: &SeriesVal) -> Result<FrameVal> {
        let named = match &series.expr {
            ColExpr::Col(c) => c.clone(),
            _ => "value".to_string(),
        };
        let staged = self.f_with_column(&series.frame, &named, &series.expr)?;
        self.f_select(&staged, vec![named])
    }

    fn eager_engine(&self) -> EagerEngine {
        match &self.engines {
            Engines::Eager(e) => e.clone(),
            _ => self.eager_fallback(),
        }
    }

    fn eager_fallback(&self) -> EagerEngine {
        EagerEngine::new(BackendKind::Pandas, Arc::clone(&self.tracker), 1)
    }

    fn lafp_session(&self) -> Result<LaFP> {
        match &self.engines {
            Engines::Lafp(s) => Ok(s.clone()),
            _ => Err(err("LaFP session required")),
        }
    }

    fn charge_eager(&self, df: DataFrame) -> Result<FrameVal> {
        let reservation = self.tracker.charge(df.heap_size())?;
        Ok(FrameVal::Eager(Arc::new(df), Rc::new(reservation)))
    }

    fn render_eager(&mut self, v: &PyValue) -> Result<String> {
        Ok(match v {
            PyValue::Scalar(s) => s.to_string(),
            PyValue::LazyScalar(s) => s.compute(&[])?.to_string(),
            PyValue::Frame(frame) => {
                let (df, _r) = self.materialize(frame)?;
                df.to_display_string(self.print_rows)
            }
            PyValue::Series(s) => {
                let frame = self.series_to_frame(s)?;
                let (df, _r) = self.materialize(&frame)?;
                df.to_display_string(self.print_rows)
            }
            PyValue::List(items) => {
                let mut parts = Vec::new();
                for i in items {
                    parts.push(self.render_eager(i)?);
                }
                format!("[{}]", parts.join(", "))
            }
            PyValue::None => "None".into(),
            other => format!("{other:?}"),
        })
    }
}

/// `MemoryReservation` alias (the interp stores reservations in `Rc`).
pub type MemoryReservationAlias = lafp_backends::MemoryReservation;

fn map_cmp(op: CmpOpKind) -> CmpOp {
    match op {
        CmpOpKind::Eq => CmpOp::Eq,
        CmpOpKind::Ne => CmpOp::Ne,
        CmpOpKind::Lt => CmpOp::Lt,
        CmpOpKind::Le => CmpOp::Le,
        CmpOpKind::Gt => CmpOp::Gt,
        CmpOpKind::Ge => CmpOp::Ge,
    }
}

fn map_arith(op: BinOpKind) -> ArithOp {
    match op {
        BinOpKind::Add => ArithOp::Add,
        BinOpKind::Sub => ArithOp::Sub,
        BinOpKind::Mul => ArithOp::Mul,
        BinOpKind::Div => ArithOp::Div,
        BinOpKind::Mod => ArithOp::Mod,
        BinOpKind::And | BinOpKind::Or => unreachable!("handled by eval_binop"),
    }
}

fn err(message: &str) -> ColumnarError {
    ColumnarError::InvalidArgument(message.to_string())
}
