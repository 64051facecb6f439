//! Scalar values, including nulls, plus date/time helpers shared by the
//! datetime kernels.

use crate::dtype::DType;
use crate::HeapSize;
use std::cmp::Ordering;
use std::fmt;

/// One cell of a column, or the result of a full-column reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Missing value (pandas `NaN` / `NaT` / `None`).
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
    /// Timestamp as seconds since the Unix epoch.
    Datetime(i64),
}

impl Scalar {
    /// The dtype this scalar naturally belongs to (`None` for nulls).
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Scalar::Null => None,
            Scalar::Int(_) => Some(DType::Int64),
            Scalar::Float(_) => Some(DType::Float64),
            Scalar::Bool(_) => Some(DType::Bool),
            Scalar::Str(_) => Some(DType::Utf8),
            Scalar::Datetime(_) => Some(DType::Datetime),
        }
    }

    /// True if this is the null scalar (or a float NaN, matching pandas).
    pub fn is_null(&self) -> bool {
        match self {
            Scalar::Null => true,
            Scalar::Float(f) => f.is_nan(),
            _ => false,
        }
    }

    /// Numeric view as f64 when the scalar is numeric (int, float, bool,
    /// datetime-as-seconds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Float(v) => Some(*v),
            Scalar::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Scalar::Datetime(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer view when the scalar is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            Scalar::Bool(b) => Some(i64::from(*b)),
            Scalar::Datetime(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used by sort kernels: nulls sort last; numerics compare
    /// numerically across int/float; strings lexicographically.
    pub fn cmp_values(&self, other: &Scalar) -> Ordering {
        use Scalar::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (Datetime(a), Datetime(b)) => a.cmp(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
                _ => format!("{self}").cmp(&format!("{other}")),
            },
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Null => f.write_str("NaN"),
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => {
                if v.is_nan() {
                    f.write_str("NaN")
                } else if *v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Scalar::Bool(v) => f.write_str(if *v { "True" } else { "False" }),
            Scalar::Str(v) => f.write_str(v),
            Scalar::Datetime(v) => f.write_str(&format_datetime(*v)),
        }
    }
}

impl HeapSize for Scalar {
    fn heap_size(&self) -> usize {
        match self {
            Scalar::Str(s) => s.capacity(),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Civil date/time conversions (Howard Hinnant's algorithms), used by the
// datetime column kernels and the CSV date parser.
// ---------------------------------------------------------------------------

/// Days from the Unix epoch for a civil date.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m as u64 + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + d as u64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe as i64 - 719468
}

/// Civil date `(year, month, day)` for days since the Unix epoch.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Day of week for an epoch-seconds timestamp, pandas convention:
/// Monday = 0 ... Sunday = 6.
pub fn dayofweek(epoch_secs: i64) -> i64 {
    let days = epoch_secs.div_euclid(86_400);
    // 1970-01-01 was a Thursday (weekday 3 in the Monday=0 convention).
    (days + 3).rem_euclid(7)
}

/// Parse `YYYY-MM-DD` or `YYYY-MM-DD HH:MM:SS` into epoch seconds.
pub fn parse_datetime(text: &str) -> Option<i64> {
    parse_datetime_fixed(text.as_bytes()).or_else(|| parse_datetime_general(text))
}

/// Fast path for the 19-byte `YYYY-MM-DD HH:MM:SS` (or `T`-separated)
/// shape the CSV writer emits: byte arithmetic with the general parser's
/// range checks (so `2024-02-30` is accepted there and here alike).
/// `None` for any other shape or out-of-range field, and the caller then
/// asks [`parse_datetime_general`], which decides every such input.
#[inline]
fn parse_datetime_fixed(b: &[u8]) -> Option<i64> {
    let b: &[u8; 19] = b.try_into().ok()?;
    if b[4] != b'-'
        || b[7] != b'-'
        || !matches!(b[10], b' ' | b'T')
        || b[13] != b':'
        || b[16] != b':'
    {
        return None;
    }
    let mut digits = [0u8; 14];
    for (slot, &pos) in digits
        .iter_mut()
        .zip(&[0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18])
    {
        *slot = b[pos].wrapping_sub(b'0');
        if *slot > 9 {
            return None;
        }
    }
    let two = |i: usize| u32::from(digits[i]) * 10 + u32::from(digits[i + 1]);
    let y = i64::from(two(0) * 100 + two(2));
    let (m, d) = (two(4), two(6));
    let (h, mi, s) = (two(8), two(10), two(12));
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || h >= 24 || mi >= 60 || s >= 60 {
        return None;
    }
    Some(days_from_civil(y, m, d) * 86_400 + i64::from(h * 3600 + mi * 60 + s))
}

/// The general `parse_datetime`: date, optional ` ` / `T` time part,
/// optional seconds, surrounding whitespace trimmed.
fn parse_datetime_general(text: &str) -> Option<i64> {
    let text = text.trim();
    let (date_part, time_part) = match text.split_once(' ') {
        Some((d, t)) => (d, Some(t)),
        None => match text.split_once('T') {
            Some((d, t)) => (d, Some(t)),
            None => (text, None),
        },
    };
    let mut it = date_part.split('-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    // Years past ±2^40 overflow the epoch-seconds arithmetic below; such
    // a stamp is not representable and parses as `None`, never a panic.
    if it.next().is_some()
        || !(1..=12).contains(&m)
        || !(1..=31).contains(&d)
        || y.unsigned_abs() > 1 << 40
    {
        return None;
    }
    let mut secs = days_from_civil(y, m, d).checked_mul(86_400)?;
    if let Some(t) = time_part {
        let mut parts = t.split(':');
        let h: i64 = parts.next()?.parse().ok()?;
        let mi: i64 = parts.next()?.parse().ok()?;
        let s: i64 = match parts.next() {
            Some(s) => s.parse().ok()?,
            None => 0,
        };
        if !(0..24).contains(&h) || !(0..60).contains(&mi) || !(0..60).contains(&s) {
            return None;
        }
        secs = secs.checked_add(h * 3600 + mi * 60 + s)?;
    }
    Some(secs)
}

/// Format epoch seconds as `YYYY-MM-DD HH:MM:SS`.
pub fn format_datetime(epoch_secs: i64) -> String {
    let days = epoch_secs.div_euclid(86_400);
    let rem = epoch_secs.rem_euclid(86_400);
    let (y, m, d) = civil_from_days(days);
    let (h, mi, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    format!("{y:04}-{m:02}-{d:02} {h:02}:{mi:02}:{s:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_roundtrip() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (1999, 12, 31),
            (2024, 3, 1),
            (1900, 1, 1),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "{y}-{m}-{d}");
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
    }

    #[test]
    fn weekday_convention_matches_pandas() {
        // 1970-01-01 was a Thursday => 3 under Monday=0.
        assert_eq!(dayofweek(0), 3);
        // 2024-01-01 was a Monday.
        assert_eq!(dayofweek(days_from_civil(2024, 1, 1) * 86_400), 0);
        // 2024-01-07 was a Sunday.
        assert_eq!(dayofweek(days_from_civil(2024, 1, 7) * 86_400), 6);
        // Negative timestamps (pre-epoch): 1969-12-31 was a Wednesday.
        assert_eq!(dayofweek(-86_400), 2);
    }

    #[test]
    fn parse_and_format_datetime() {
        let ts = parse_datetime("2024-05-17 13:45:09").unwrap();
        assert_eq!(format_datetime(ts), "2024-05-17 13:45:09");
        let midnight = parse_datetime("2024-05-17").unwrap();
        assert_eq!(format_datetime(midnight), "2024-05-17 00:00:00");
        assert_eq!(midnight % 86_400, 0);
        // ISO 'T' separator also accepted.
        assert_eq!(parse_datetime("2024-05-17T13:45:09"), Some(ts));
    }

    #[test]
    fn parse_datetime_rejects_garbage() {
        assert_eq!(parse_datetime("not a date"), None);
        assert_eq!(parse_datetime("2024-13-01"), None);
        assert_eq!(parse_datetime("2024-01-32"), None);
        assert_eq!(parse_datetime("2024-01-01 25:00:00"), None);
        assert_eq!(parse_datetime(""), None);
    }

    /// The 19-byte fast path agrees with the general parser on every
    /// input of that length: valid stamps, out-of-range digits, a
    /// non-digit at each position, and both separators.
    #[test]
    fn datetime_fast_path_matches_general() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |s: &[u8]| {
            let Ok(text) = std::str::from_utf8(s) else {
                return;
            };
            let fast = parse_datetime_fixed(s);
            assert!(
                fast.is_none() || fast == parse_datetime_general(text),
                "{text:?}"
            );
            assert_eq!(
                parse_datetime(text),
                parse_datetime_general(text),
                "{text:?}"
            );
        };
        let alphabet = b"0123456789-: T+x/";
        for _ in 0..200_000 {
            let r = next();
            let mut s = format!(
                "{:04}-{:02}-{:02}{}{:02}:{:02}:{:02}",
                r % 10_000,
                (r >> 14) % 14,
                (r >> 18) % 33,
                if r >> 24 & 1 == 0 { ' ' } else { 'T' },
                (r >> 25) % 26,
                (r >> 30) % 62,
                (r >> 36) % 62,
            )
            .into_bytes();
            check(&s);
            // One byte replaced at a random position by a random symbol.
            let pos = (r >> 42) as usize % 19;
            s[pos] = alphabet[(r >> 48) as usize % alphabet.len()];
            check(&s);
            // Fully random bytes over the same alphabet.
            let raw: Vec<u8> = (0..19)
                .map(|_| alphabet[next() as usize % alphabet.len()])
                .collect();
            check(&raw);
        }
        assert_eq!(
            parse_datetime_fixed(b"2024-02-30 00:00:00"),
            parse_datetime_general("2024-02-30 00:00:00")
        );
        assert!(parse_datetime_fixed(b"2024-02-30 00:00:00").is_some());
        assert_eq!(parse_datetime_fixed(b"+024-01-01 00:00:00"), None);
        assert_eq!(
            parse_datetime("+024-01-01 00:00:00"),
            parse_datetime_general("+024-01-01 00:00:00")
        );
    }

    #[test]
    fn scalar_nulls_and_views() {
        assert!(Scalar::Null.is_null());
        assert!(Scalar::Float(f64::NAN).is_null());
        assert!(!Scalar::Float(1.5).is_null());
        assert_eq!(Scalar::Int(3).as_f64(), Some(3.0));
        assert_eq!(Scalar::Bool(true).as_i64(), Some(1));
        assert_eq!(Scalar::Str("hi".into()).as_str(), Some("hi"));
        assert_eq!(Scalar::Str("hi".into()).as_f64(), None);
    }

    #[test]
    fn scalar_ordering_nulls_last() {
        use std::cmp::Ordering::*;
        assert_eq!(Scalar::Null.cmp_values(&Scalar::Int(1)), Greater);
        assert_eq!(Scalar::Int(1).cmp_values(&Scalar::Null), Less);
        assert_eq!(Scalar::Int(2).cmp_values(&Scalar::Float(2.5)), Less);
        assert_eq!(
            Scalar::Str("a".into()).cmp_values(&Scalar::Str("b".into())),
            Less
        );
    }

    #[test]
    fn scalar_display() {
        assert_eq!(Scalar::Int(5).to_string(), "5");
        assert_eq!(Scalar::Float(5.0).to_string(), "5.0");
        assert_eq!(Scalar::Float(5.25).to_string(), "5.25");
        assert_eq!(Scalar::Bool(true).to_string(), "True");
        assert_eq!(Scalar::Null.to_string(), "NaN");
    }
}
