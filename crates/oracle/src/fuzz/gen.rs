//! Deterministic case generation: seeded bytes, plan-driven frame
//! construction, engine-side encoding, and the CSV routing helpers.
//!
//! Everything here is a pure function of the trace (plus the batch
//! seed), so a replayed hex string rebuilds byte-identical inputs. The
//! oracle and the engine share [`build_plain`] — the oracle's copy then
//! goes through [`categories_for_oracle`], the engine's through
//! [`encode_for_engine`] (or a CSV file), so the two sides hold
//! logically identical frames in different representations.

use super::trace::{ColKind, ColPlan, Enc, FramePlan, MAX_AUX_COLS, MAX_AUX_ROWS, MAX_COLS, MAX_OPS, NUM_OPCODES};
use crate::reference::{cast_ref, force_rle};
use lafp_columnar::column::ColumnBuilder;
use lafp_columnar::csv::quote_field;
use lafp_columnar::encoding::dict_encode;
use lafp_columnar::{Column, DType, DataFrame, Scalar, Series};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cardinality buckets indexed by [`ColPlan::card`]: constants, coin
/// flips, small groups, a groupby-sized key space, and effectively
/// unique values.
pub const CARDS: [u64; 6] = [1, 2, 5, 30, 1000, 100_000];

/// SplitMix64 — the deterministic stream behind both byte generation
/// and column values. Small, seedable, and stable across platforms.
pub struct SplitMix(u64);

impl SplitMix {
    /// Stream seeded from `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn u8(&mut self) -> u8 {
        (self.next_u64() >> 32) as u8
    }
}

/// The canonical bytes for case `case` of batch `seed`. Row counts are
/// bucketed: mostly small frames (fast), a medium band, and a rare
/// >64 Ki band that crosses the morsel seam.
pub fn seeded_case_bytes(seed: u64, case: u64) -> Vec<u8> {
    let mut rng = SplitMix::new(
        seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA076_1D64_78BD_642F,
    );
    let mut out = Vec::new();
    let n_main_b = rng.u8();
    let n_aux_b = rng.u8();
    out.push(n_main_b);
    out.push(n_aux_b);
    let rows: u32 = match rng.next_u64() % 100 {
        0..=29 => [0, 1, 2, 3, 5, 7][(rng.next_u64() % 6) as usize],
        30..=74 => 8 + (rng.next_u64() % 505) as u32,
        75..=94 => 513 + (rng.next_u64() % 3584) as u32,
        95..=97 => 20_000 + (rng.next_u64() % 10_000) as u32,
        _ => 70_000 + (rng.next_u64() % 10_000) as u32,
    };
    out.extend_from_slice(&rows.to_le_bytes());
    let aux_rows = (rng.next_u64() % (MAX_AUX_ROWS as u64 + 1)) as u32;
    out.extend_from_slice(&aux_rows.to_le_bytes());
    out.push(u8::from(rng.next_u64().is_multiple_of(4))); // ~25% of cases route via CSV
    let n_main = 1 + (n_main_b as usize) % MAX_COLS;
    let n_aux = 1 + (n_aux_b as usize) % MAX_AUX_COLS;
    for _ in 0..(n_main + n_aux) * 5 {
        out.push(rng.u8());
    }
    let n_ops = (rng.next_u64() % (MAX_OPS as u64 + 1)) as u8;
    out.push(n_ops);
    for _ in 0..n_ops {
        out.push(rng.u8() % NUM_OPCODES);
        out.push(rng.u8());
        out.push(rng.u8());
        out.push(rng.u8());
    }
    out
}

fn dtype_of(kind: ColKind) -> DType {
    match kind {
        ColKind::I64 => DType::Int64,
        ColKind::F64 => DType::Float64,
        ColKind::Bool => DType::Bool,
        ColKind::Utf8 => DType::Utf8,
        ColKind::Datetime => DType::Datetime,
    }
}

/// Build one plain column from its plan. Float values are exact
/// multiples of 0.25 so parallel re-association stays well inside the
/// 1e-12 relative tolerance and CSV round-trips are lossless.
fn build_col(cp: &ColPlan, col_idx: usize, rows: u32) -> Column {
    let mut rng = SplitMix::new(
        ((cp.salt as u64) << 8) ^ (col_idx as u64) ^ 0x51A5_C0DE_F00D_BEEF,
    );
    let card = CARDS[(cp.card as usize) % CARDS.len()].max(1);
    let mut b = ColumnBuilder::new(dtype_of(cp.kind));
    for _ in 0..rows {
        let null_draw = rng.next_u64();
        let v = rng.next_u64();
        if cp.null_every > 0 && null_draw.is_multiple_of(cp.null_every as u64) {
            b.push_null();
            continue;
        }
        match cp.kind {
            ColKind::I64 => b.push_i64((v % card) as i64 - (card / 2) as i64),
            ColKind::F64 => b.push_f64(((v % card) as f64 - card as f64 / 2.0) * 0.25),
            ColKind::Bool => b.push_bool(v & 1 == 1),
            ColKind::Utf8 => b.push_str(&format!("s{}", v % card)),
            ColKind::Datetime => b.push_datetime(86_400 * (v % card) as i64),
        }
    }
    b.finish()
}

/// Build the plain (oracle-side) frame for a plan. Columns are named
/// `c0`, `c1`, ... positionally.
pub fn build_plain(plan: &FramePlan) -> DataFrame {
    let series = plan
        .cols
        .iter()
        .enumerate()
        .map(|(i, cp)| Series::new(format!("c{i}"), build_col(cp, i, plan.rows)))
        .collect();
    DataFrame::new(series).expect("generated frame is well-formed")
}

/// Re-encode the engine's copy per the plan: `Dict` dictionary-encodes
/// Utf8 columns (falling back to plain past the cardinality cap), `Rle`
/// force-run-length-encodes any column, `Category` converts Utf8
/// columns with the engine's own `to_categorical`. The oracle keeps the
/// plain twin (or, for `Category`, the builder-made category), so every
/// downstream comparison checks the engine's kernels against the seed
/// semantics.
pub fn encode_for_engine(frame: &DataFrame, plan: &FramePlan) -> DataFrame {
    let mut out = frame.clone();
    for (i, cp) in plan.cols.iter().enumerate() {
        let name = format!("c{i}");
        let col = out.column(&name).expect("planned column").column().clone();
        let plain_utf8 = col.dtype() == DType::Utf8 && !col.is_encoded();
        let encoded = match cp.enc {
            Enc::Plain => None,
            Enc::Dict => plain_utf8.then(|| dict_encode(&col)).flatten(),
            Enc::Rle => (!col.is_encoded()).then(|| force_rle(&col)),
            Enc::Category => plain_utf8.then(|| col.to_categorical().expect("Utf8 converts")),
        };
        if let Some(encoded) = encoded {
            out = out.with_column(&name, encoded).expect("same length");
        }
    }
    out
}

/// The oracle's copy of a plain frame: `Category` Utf8 columns become
/// pandas `category` through the seed builder cast; every other column
/// stays plain.
pub fn categories_for_oracle(frame: &DataFrame, plan: &FramePlan) -> DataFrame {
    let mut out = frame.clone();
    for (i, cp) in plan.cols.iter().enumerate() {
        let name = format!("c{i}");
        let col = out.column(&name).expect("planned column").column();
        if cp.enc == Enc::Category && col.dtype() == DType::Utf8 {
            let cat = cast_ref(col, DType::Categorical).expect("strings cast to category");
            out = out.with_column(&name, cat).expect("same length");
        }
    }
    out
}

static CSV_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temp path for a case's CSV routing.
pub fn temp_csv_path() -> PathBuf {
    let n = CSV_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lafp-fuzz-{}-{n}.csv", std::process::id()))
}

/// Write a frame as CSV in the format both readers agree on: header
/// row, empty field = null, `True`/`False` booleans, `to_string`
/// numerics (exact for the generator's quarter-valued floats).
pub fn write_csv(frame: &DataFrame, path: &std::path::Path) {
    use std::io::Write;
    let mut out = String::new();
    let names: Vec<&str> = frame.series().iter().map(|s| s.name()).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for i in 0..frame.num_rows() {
        let mut fields = Vec::with_capacity(names.len());
        for s in frame.series() {
            fields.push(match s.column().get(i) {
                Scalar::Null => String::new(),
                Scalar::Int(v) => v.to_string(),
                Scalar::Float(v) => v.to_string(),
                Scalar::Bool(v) => if v { "True" } else { "False" }.to_string(),
                Scalar::Str(v) => quote_field(&v),
                Scalar::Datetime(v) => v.to_string(),
            });
        }
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    let mut f = std::fs::File::create(path).expect("create fuzz CSV");
    f.write_all(out.as_bytes()).expect("write fuzz CSV");
}
