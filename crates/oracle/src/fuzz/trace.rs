//! The fuzz trace: frame-generation plans plus an op sequence, with a
//! total byte codec.
//!
//! A trace is decoded from an arbitrary byte string — every byte string
//! is a valid trace (out-of-range values wrap modulo their domain,
//! exhausted input reads as zero), so seeded random bytes, shrunk
//! traces, and hand-written replay strings all go through the same
//! door. `encode` emits the canonical byte form; `decode(encode(t)) ==
//! t` for every trace produced by `decode` or by the shrinker.

/// Maximum rows a frame plan may request (caps replay input, covers the
/// 64 Ki morsel seam with room to spare).
pub const MAX_ROWS: u32 = 100_000;
/// Maximum rows an auxiliary (join-side) frame plan may request.
pub const MAX_AUX_ROWS: u32 = 256;
/// Maximum columns in the main frame plan.
pub const MAX_COLS: usize = 6;
/// Maximum columns in the auxiliary frame plan.
pub const MAX_AUX_COLS: usize = 4;
/// Maximum ops per trace.
pub const MAX_OPS: usize = 12;
/// Row cap applied after growth ops (join, concat) so low-cardinality
/// join keys cannot blow a trace up quadratically.
pub const GROWTH_CAP: usize = 1 << 18;

/// Number of distinct opcodes in the alphabet.
pub const NUM_OPCODES: u8 = 15;

/// Logical column dtypes the generator can plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColKind {
    /// 64-bit integers.
    I64,
    /// 64-bit floats (generated as exact quarters so re-association in
    /// parallel sums stays within the 1e-12 relative tolerance).
    F64,
    /// Booleans.
    Bool,
    /// Strings (`s0`, `s1`, ... over the cardinality bucket).
    Utf8,
    /// Datetimes (whole days as epoch seconds).
    Datetime,
}

impl ColKind {
    /// Total decode from a byte.
    pub fn from_byte(b: u8) -> ColKind {
        match b % 5 {
            0 => ColKind::I64,
            1 => ColKind::F64,
            2 => ColKind::Bool,
            3 => ColKind::Utf8,
            _ => ColKind::Datetime,
        }
    }

    /// Canonical byte for [`Self::from_byte`].
    pub fn to_byte(self) -> u8 {
        match self {
            ColKind::I64 => 0,
            ColKind::F64 => 1,
            ColKind::Bool => 2,
            ColKind::Utf8 => 3,
            ColKind::Datetime => 4,
        }
    }
}

/// Representation requested for a column. The three encodings apply to
/// the engine-side copy only (the oracle holds the plain twin);
/// `Category` changes the dtype on both sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Enc {
    /// Plain storage.
    Plain,
    /// Dictionary encoding (effective for Utf8 columns; others stay
    /// plain).
    Dict,
    /// Forced run-length encoding (no shrink gate).
    Rle,
    /// Held as pandas `category` (effective for Utf8 columns; others
    /// stay plain): the engine through `Column::to_categorical`, the
    /// oracle through the seed builder cast.
    Category,
}

impl Enc {
    /// Total decode from a byte.
    pub fn from_byte(b: u8) -> Enc {
        match b % 4 {
            0 => Enc::Plain,
            1 => Enc::Dict,
            2 => Enc::Rle,
            _ => Enc::Category,
        }
    }

    /// Canonical byte for [`Self::from_byte`].
    pub fn to_byte(self) -> u8 {
        match self {
            Enc::Plain => 0,
            Enc::Dict => 1,
            Enc::Rle => 2,
            Enc::Category => 3,
        }
    }
}

/// One planned column: dtype, null density, value cardinality bucket,
/// engine-side encoding, and a value-stream salt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColPlan {
    /// Logical dtype.
    pub kind: ColKind,
    /// Null density: 0 = no nulls, else roughly one row in `null_every`
    /// is null.
    pub null_every: u8,
    /// Cardinality bucket index (see `CARDS` in the generator).
    pub card: u8,
    /// Engine-side encoding.
    pub enc: Enc,
    /// Per-column salt for the deterministic value stream.
    pub salt: u8,
}

/// One planned frame: a row count and its columns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FramePlan {
    /// Row count (already capped by the codec).
    pub rows: u32,
    /// Column plans; names are assigned positionally (`c0`, `c1`, ...).
    pub cols: Vec<ColPlan>,
}

/// One op as decoded: an opcode plus three raw operand bytes. The
/// interpretation of the operands (which column, which comparison,
/// which literal) is resolved against the live schema at execution
/// time, so any operand bytes are valid for any schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawOp {
    /// Opcode, already reduced modulo [`NUM_OPCODES`].
    pub code: u8,
    /// First operand byte (usually a column selector).
    pub a: u8,
    /// Second operand byte (usually a second column / comparison / agg).
    pub b: u8,
    /// Third operand byte (usually a literal seed).
    pub c: u8,
}

/// A complete fuzz case: the main frame, the auxiliary (join-side)
/// frame, whether the main frame routes through a CSV file, and the op
/// sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The main frame plan.
    pub main: FramePlan,
    /// The auxiliary frame plan (join/concat partner).
    pub aux: FramePlan,
    /// Route the main frame through a temp CSV: the oracle reads it
    /// with the seed reader, the engine with `read_csv` (exercising
    /// ingest dtype inference and auto-encoding, and therefore the
    /// encoding-off config axis, `ExecConfig::encode`).
    pub via_csv: bool,
    /// The op sequence.
    pub ops: Vec<RawOp>,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u8(&mut self) -> u8 {
        let b = self.bytes.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    fn u32(&mut self) -> u32 {
        u32::from_le_bytes([self.u8(), self.u8(), self.u8(), self.u8()])
    }
}

fn decode_col(r: &mut Reader<'_>) -> ColPlan {
    ColPlan {
        kind: ColKind::from_byte(r.u8()),
        null_every: r.u8() % 17,
        card: r.u8() % 6,
        enc: Enc::from_byte(r.u8()),
        salt: r.u8(),
    }
}

/// Decode a trace from any byte string (total: wraps out-of-range
/// values, reads zeros past the end).
pub fn decode(bytes: &[u8]) -> Trace {
    let r = &mut Reader { bytes, pos: 0 };
    let n_main = 1 + (r.u8() as usize) % MAX_COLS;
    let n_aux = 1 + (r.u8() as usize) % MAX_AUX_COLS;
    let main_rows = r.u32() % (MAX_ROWS + 1);
    let aux_rows = r.u32() % (MAX_AUX_ROWS + 1);
    let via_csv = r.u8() % 2 == 1;
    let main = FramePlan {
        rows: main_rows,
        cols: (0..n_main).map(|_| decode_col(r)).collect(),
    };
    let aux = FramePlan {
        rows: aux_rows,
        cols: (0..n_aux).map(|_| decode_col(r)).collect(),
    };
    let n_ops = (r.u8() as usize) % (MAX_OPS + 1);
    let ops = (0..n_ops)
        .map(|_| RawOp {
            code: r.u8() % NUM_OPCODES,
            a: r.u8(),
            b: r.u8(),
            c: r.u8(),
        })
        .collect();
    let mut t = Trace {
        main,
        aux,
        via_csv,
        ops,
    };
    normalize(&mut t);
    t
}

/// Bring a trace's plans to canonical form (part of decoding, so the
/// stored trace is already canonical and `decode(encode(t)) == t` holds;
/// the shrinker re-applies it after every edit):
/// the join key column pair (`c0` on both sides) shares one dtype —
/// cross-dtype canonical keys are outside the frozen seed semantics, so
/// a category on either side is a category on both;
/// CSV-routed frames avoid Datetime (scalar rendering is not the CSV
/// datetime parse format) and always store plain (the engine-side
/// representation comes from ingest auto-encoding instead).
pub fn normalize(t: &mut Trace) {
    let (main, aux) = (&mut t.main, &mut t.aux);
    if t.via_csv {
        for c in &mut main.cols {
            if c.kind == ColKind::Datetime {
                c.kind = ColKind::I64;
            }
            c.enc = Enc::Plain;
        }
    }
    aux.cols[0].kind = main.cols[0].kind;
    if (main.cols[0].enc == Enc::Category) != (aux.cols[0].enc == Enc::Category) {
        aux.cols[0].enc = main.cols[0].enc;
    }
}

fn encode_col(out: &mut Vec<u8>, c: &ColPlan) {
    out.push(c.kind.to_byte());
    out.push(c.null_every % 17);
    out.push(c.card % 6);
    out.push(c.enc.to_byte());
    out.push(c.salt);
}

/// Canonical byte form of a trace. For traces produced by [`decode`]
/// (or shrunk from one), `decode(encode(t)) == t`.
pub fn encode(t: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(((t.main.cols.len().clamp(1, MAX_COLS) - 1) % MAX_COLS) as u8);
    out.push(((t.aux.cols.len().clamp(1, MAX_AUX_COLS) - 1) % MAX_AUX_COLS) as u8);
    out.extend_from_slice(&(t.main.rows % (MAX_ROWS + 1)).to_le_bytes());
    out.extend_from_slice(&(t.aux.rows % (MAX_AUX_ROWS + 1)).to_le_bytes());
    out.push(t.via_csv as u8);
    for c in &t.main.cols {
        encode_col(&mut out, c);
    }
    for c in &t.aux.cols {
        encode_col(&mut out, c);
    }
    out.push((t.ops.len() % (MAX_OPS + 1)) as u8);
    for op in &t.ops {
        out.push(op.code % NUM_OPCODES);
        out.push(op.a);
        out.push(op.b);
        out.push(op.c);
    }
    out
}

/// Render bytes as the replay hex string.
pub fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parse a replay hex string (whitespace tolerated). `None` on a
/// non-hex character or odd digit count.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let digits: Vec<u32> = s
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_digit(16))
        .collect::<Option<_>>()?;
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    Some(
        digits
            .chunks(2)
            .map(|p| (p[0] * 16 + p[1]) as u8)
            .collect(),
    )
}
