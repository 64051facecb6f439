//! CSV reading and writing.
//!
//! The reader supports the `read_csv` options the paper's optimizations
//! inject: `usecols` (column-selection rewrite, §3.1), `dtype` overrides
//! including `category` (metadata optimization, §3.6), and `parse_dates`.
//! A chunked reader provides the partition stream for the out-of-core
//! (Dask-like) backend.
//!
//! Every reader drives one block scan core, `scan_record`: eight bytes
//! at a time it classifies `,` `"` `\n` with SWAR masks, walks the set
//! bits with quote parity, spans fields only up to the last kept column
//! and counts the rest. [`CsvChunkReader`] (and so [`read_csv`]) feeds
//! it fixed-size blocks of the file; [`read_csv_par`] feeds it
//! record-aligned pieces of the whole body from one serial classifier
//! pass. ARCHITECTURE.md ("CSV scan") states the rules it keeps.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::column::ColumnBuilder;
use crate::dtype::DType;
use crate::error::{ColumnarError, Result};
use crate::frame::DataFrame;
use crate::series::Series;
use crate::value::parse_datetime;
use crate::ExecConfig;
use std::collections::HashMap;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// Options accepted by [`read_csv`] (a subset of pandas `read_csv`).
#[derive(Debug, Clone, Default)]
pub struct CsvOptions {
    /// Read only these columns (pandas `usecols`). Order in the output
    /// follows the file header order, like pandas.
    pub usecols: Option<Vec<String>>,
    /// Per-column dtype overrides (pandas `dtype=`).
    pub dtypes: HashMap<String, DType>,
    /// Columns to parse as datetimes (pandas `parse_dates=`).
    pub parse_dates: Vec<String>,
    /// Rows to sample for dtype inference (default 1000).
    pub infer_rows: usize,
    /// The reader's ingest encoding switch and `csv_read` fault plan.
    pub exec: ExecConfig,
}

impl CsvOptions {
    /// Default options, under the process configuration
    /// ([`ExecConfig::from_env`]).
    pub fn new() -> CsvOptions {
        CsvOptions {
            infer_rows: 1000,
            exec: ExecConfig::from_env(),
            ..Default::default()
        }
    }

    /// Set `usecols`.
    pub fn with_usecols(mut self, cols: Vec<String>) -> CsvOptions {
        self.usecols = Some(cols);
        self
    }

    /// Add one dtype override.
    pub fn with_dtype(mut self, col: impl Into<String>, dtype: DType) -> CsvOptions {
        self.dtypes.insert(col.into(), dtype);
        self
    }

    /// Add a parse-dates column.
    pub fn with_parse_dates(mut self, cols: Vec<String>) -> CsvOptions {
        self.parse_dates = cols;
        self
    }
}

/// Bytes the streaming reader reads from its file per refill.
const BLOCK: usize = 128 * 1024;

/// The high bit of every byte of `word` equal to `byte`, and no other
/// bit. Borrow-free: `(x & 0x7f..) + 0x7f..` cannot carry into the next
/// byte, so unlike the cheaper `(x - 0x01..) & !x & 0x80..` zero test it
/// never flags the byte after a match (which would read the `-` of
/// `,-3.21` as a second comma).
#[inline(always)]
fn byte_mask(word: u64, byte: u8) -> u64 {
    let x = word ^ (u64::from(byte) * 0x0101_0101_0101_0101);
    !(((x & 0x7f7f_7f7f_7f7f_7f7f) + 0x7f7f_7f7f_7f7f_7f7f) | x) & 0x8080_8080_8080_8080
}

/// The little-endian word at `bytes[i..]` (`i < bytes.len()`),
/// zero-padded past the end; a zero byte is never structural.
#[inline(always)]
fn load(bytes: &[u8], i: usize) -> u64 {
    let rest = &bytes[i..];
    match rest.first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            let mut pad = [0u8; 8];
            pad[..rest.len()].copy_from_slice(rest);
            u64::from_le_bytes(pad)
        }
    }
}

/// One field of the current record: `(start, end, holds a quote)`, a
/// byte range of the scanned text and whether it must be unescaped.
type Span = (usize, usize, bool);

/// The block scan core: scan the record that starts at `text[start]`
/// and return `(next record's start, field count, physical lines)`; the
/// count is 0 for an empty line and the lines include the terminator.
///
/// Each 8-byte word is classified into `,` `"` `\n` masks and the set
/// bits are walked in order with quote parity (a `""` escape toggles
/// twice, so parity holds). Inside quotes `,` and `\n` are content, but
/// every `\n` still counts a physical line. Spans are pushed for the
/// first `need` fields only; past them a word with no quote and no
/// newline just adds the popcount of its commas. Trailing `\r` / `\n`
/// are trimmed from the record. `None` when `text` ends before the
/// record does and `at_eof` is false; at EOF the unterminated tail, even
/// inside an open quote, is the last record.
fn scan_record(
    text: &[u8],
    start: usize,
    at_eof: bool,
    need: usize,
    spans: &mut Vec<Span>,
) -> Option<(usize, usize, usize)> {
    spans.clear();
    let (mut field_start, mut quoted, mut in_quotes) = (start, false, false);
    let (mut fields, mut quoted_lines) = (0usize, 0usize);
    let mut terminator = None;
    let mut i = start;
    'words: while i < text.len() {
        let w = load(text, i);
        let (commas, quotes) = (byte_mask(w, b','), byte_mask(w, b'"'));
        let newlines = byte_mask(w, b'\n');
        if fields >= need && !in_quotes && (quotes | newlines) == 0 {
            fields += commas.count_ones() as usize;
            i += 8;
            continue;
        }
        let mut bits = commas | quotes | newlines;
        while bits != 0 {
            let k = i + (bits.trailing_zeros() / 8) as usize;
            bits &= bits - 1;
            match (text[k], in_quotes) {
                (b'"', _) => {
                    in_quotes = !in_quotes;
                    quoted = true;
                }
                (b'\n', true) => quoted_lines += 1,
                (b',', true) => {}
                (b',', false) => {
                    if fields < need {
                        spans.push((field_start, k, quoted));
                    }
                    fields += 1;
                    field_start = k + 1;
                    quoted = false;
                }
                _ => {
                    terminator = Some(k);
                    break 'words;
                }
            }
        }
        i += 8;
    }
    let (mut end, next) = match terminator {
        Some(k) => (k, k + 1),
        None if at_eof => (text.len(), text.len()),
        None => return None,
    };
    while end > start && matches!(text[end - 1], b'\r' | b'\n') {
        end -= 1;
    }
    if end == start {
        return Some((next, 0, quoted_lines + 1));
    }
    if fields < need {
        spans.push((field_start, end, quoted));
    }
    Some((next, fields + 1, quoted_lines + 1))
}

/// Strip the quotes of one field and unescape its `""` pairs into `out`,
/// exactly as a quote-aware split does: outside quotes a `"` opens,
/// inside one `""` is a literal quote and a lone `"` closes.
fn unescape(raw: &str, out: &mut String) {
    out.clear();
    let bytes = raw.as_bytes();
    let (mut run, mut i, mut in_quotes) = (0, 0, false);
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        out.push_str(&raw[run..i]);
        if in_quotes && bytes.get(i + 1) == Some(&b'"') {
            out.push('"');
            i += 2;
        } else {
            in_quotes = !in_quotes;
            i += 1;
        }
        run = i;
    }
    out.push_str(&raw[run..]);
}

/// Record-level state every reader shares: the physical line reached
/// and the current record's spans.
struct Tokenizer {
    /// The file, for error messages.
    path: PathBuf,
    /// Header width: every record must have exactly this many fields.
    width: usize,
    /// Fields to span: one past the last kept column.
    need: usize,
    /// Physical lines consumed so far (the header is line 1).
    line: usize,
    spans: Vec<Span>,
    /// Unescape buffer for the quoted field being read.
    scratch: String,
}

/// Receives each record: the tokenizer positioned on it, the text its
/// spans index, and its first physical line.
type Sink<'s> = dyn FnMut(&mut Tokenizer, &str, usize) -> Result<()> + 's;

impl Tokenizer {
    fn new(path: &Path, width: usize, keep: &[usize], line: usize) -> Tokenizer {
        Tokenizer {
            path: path.to_path_buf(),
            width,
            need: keep.last().map_or(0, |&k| k + 1),
            line,
            spans: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Feed up to `max` non-empty records of `text` from `*pos` to `sink`,
    /// each with the physical line it starts on, and return how many were
    /// fed; stop early when `text` holds no further complete record. A
    /// ragged record is an error naming its first physical line and its
    /// true field count.
    fn feed(
        &mut self,
        text: &str,
        pos: &mut usize,
        at_eof: bool,
        max: usize,
        sink: &mut Sink<'_>,
    ) -> Result<usize> {
        let mut fed = 0;
        while fed < max && *pos < text.len() {
            let Some((next, fields, lines)) =
                scan_record(text.as_bytes(), *pos, at_eof, self.need, &mut self.spans)
            else {
                break;
            };
            let first = self.line + 1;
            *pos = next;
            self.line += lines;
            if fields == 0 {
                continue;
            }
            if fields != self.width {
                return Err(ColumnarError::Csv(format!(
                    "{:?}: line {first} has {fields} fields, expected {}",
                    self.path, self.width
                )));
            }
            sink(self, text, first)?;
            fed += 1;
        }
        Ok(fed)
    }

    /// Field `idx` (below `need`) of the current record: a slice of
    /// `text`, or its unescaped copy in `scratch` when it holds a quote.
    fn field<'a>(&'a mut self, text: &'a str, idx: usize) -> &'a str {
        let (start, end, quoted) = self.spans[idx];
        if !quoted {
            return &text[start..end];
        }
        unescape(&text[start..end], &mut self.scratch);
        &self.scratch
    }

    /// Parse the current record's kept fields into `builders`.
    fn parse_kept(
        &mut self,
        text: &str,
        line: usize,
        keep: &[usize],
        dtypes: &[DType],
        builders: &mut [ColumnBuilder],
    ) -> Result<()> {
        for ((&col, &dtype), builder) in keep.iter().zip(dtypes).zip(builders) {
            parse_field(builder, self.field(text, col), dtype, line)?;
        }
        Ok(())
    }
}

/// The error `read_line` gives for bytes that are not UTF-8.
fn invalid_utf8() -> ColumnarError {
    std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8").into()
}

/// An I/O error on `path`, naming it.
fn io_error(path: &Path, e: std::io::Error) -> ColumnarError {
    ColumnarError::Io {
        kind: e.kind(),
        message: format!("{path:?}: {e}"),
    }
}

/// The streaming reader's source: `file` read in `block`-byte refills
/// into one reused buffer, of which `buf[start..end]` is not yet
/// consumed, and the tokenizer over it.
struct RecordStream {
    file: File,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
    block: usize,
    tok: Tokenizer,
    /// Scan position within the current window (relative to `start`).
    cursor: usize,
    done: bool,
}

/// The complete-record prefix of `bytes` as text: cut after the last
/// newline (nothing is cut at EOF) and validated by one `str::from_utf8`
/// call. Also says whether it runs to EOF, and whether invalid UTF-8
/// follows it (then it stops at the last valid byte).
fn window(bytes: &[u8], eof: bool) -> (&str, bool, bool) {
    let cut = match eof {
        true => bytes.len(),
        false => bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1),
    };
    match std::str::from_utf8(&bytes[..cut]) {
        Ok(text) => (text, eof, false),
        Err(e) => {
            let valid = std::str::from_utf8(&bytes[..e.valid_up_to()]);
            (valid.unwrap_or_default(), false, true)
        }
    }
}

impl RecordStream {
    /// Open `path` and read its header: the first physical line (quotes
    /// do not join header lines).
    fn open(path: &Path, block: usize) -> Result<(RecordStream, Vec<String>)> {
        let mut s = RecordStream {
            file: File::open(path).map_err(|e| io_error(path, e))?,
            buf: Vec::new(),
            start: 0,
            end: 0,
            eof: false,
            block: block.max(1),
            tok: Tokenizer::new(path, 0, &[], 1),
            cursor: 0,
            done: false,
        };
        let header_end = loop {
            match s.buf[..s.end].iter().position(|&b| b == b'\n') {
                Some(p) => break p + 1,
                None if s.eof => break s.end,
                None => s.refill()?,
            }
        };
        let line = std::str::from_utf8(&s.buf[..header_end]).map_err(|_| invalid_utf8())?;
        let header = parse_header(line, path)?;
        s.start = header_end;
        Ok((s, header))
    }

    /// Move the unconsumed bytes to the front and read one block, or as
    /// many bytes as are kept when that is more: a record (or sample)
    /// longer than a block doubles the buffer, so it is rescanned only
    /// a logarithmic number of times. A zero-byte read sets `eof`.
    fn refill(&mut self) -> Result<()> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let want = self.block.max(self.end);
        if self.buf.len() < self.end + want {
            self.buf.resize(self.end + want, 0);
        }
        let n = loop {
            match self.file.read(&mut self.buf[self.end..self.end + want]) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                read => break read?,
            }
        };
        self.eof = n == 0;
        self.end += n;
        Ok(())
    }

    /// Feed up to `max` records to `sink`, refilling as the window runs
    /// out, and return how many were fed. A record is only cut from the
    /// buffer once fed, unless `consume` is false: then every byte stays
    /// put so the records can be read again from `cursor` 0.
    fn drive(&mut self, max: usize, consume: bool, sink: &mut Sink<'_>) -> Result<usize> {
        let mut fed = 0;
        while fed < max && !self.done {
            let (text, at_eof, bad_utf8) = window(&self.buf[self.start..self.end], self.eof);
            fed += self
                .tok
                .feed(text, &mut self.cursor, at_eof, max - fed, sink)?;
            if consume {
                self.start += self.cursor;
                self.cursor = 0;
            }
            if fed == max {
                break;
            }
            if bad_utf8 {
                return Err(invalid_utf8());
            }
            if at_eof {
                self.done = true;
            } else {
                self.refill()?;
            }
        }
        Ok(fed)
    }
}

/// Split one CSV record honoring double-quote escaping (RFC-4180 style).
pub fn split_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut field));
            }
            _ => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Quote a field if it contains separators, quotes or line terminators.
pub fn quote_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
    {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Fire the `csv_read` injection point, attaching the file path to the
/// synthetic error (see [`faults`](crate::faults)).
fn inject_csv(exec: &ExecConfig, path: &Path) -> Result<()> {
    exec.faults.inject_io(crate::faults::FaultSite::CsvRead).map_err(|e| io_error(path, e))
}

/// Split the header line (terminator included or not).
fn parse_header(line: &str, path: &Path) -> Result<Vec<String>> {
    let line = line.trim_end_matches(['\n', '\r']);
    if line.is_empty() {
        return Err(ColumnarError::Csv(format!("{path:?}: empty header")));
    }
    Ok(split_record(line))
}

/// Read just the header row of a CSV file.
pub fn read_header(path: &Path) -> Result<Vec<String>> {
    RecordStream::open(path, 8 * 1024).map(|(_, header)| header)
}

/// Read a whole CSV file into a [`DataFrame`].
pub fn read_csv(path: &Path, options: &CsvOptions) -> Result<DataFrame> {
    let mut reader = CsvChunkReader::open(path, options, usize::MAX)?;
    match reader.next_chunk()? {
        Some(chunk) => Ok(chunk),
        None => {
            // Header-only file: build an empty frame with the right schema.
            reader.empty_frame()
        }
    }
}

/// Resolve `usecols` against the header: kept record indices in file
/// order (pandas semantics), error on unknown names.
fn resolve_usecols(header: &[String], options: &CsvOptions, path: &Path) -> Result<Vec<usize>> {
    match &options.usecols {
        Some(cols) => {
            for c in cols {
                if !header.iter().any(|h| h == c) {
                    return Err(ColumnarError::ColumnNotFound(format!(
                        "{c} (usecols, file {path:?})"
                    )));
                }
            }
            Ok((0..header.len())
                .filter(|&i| cols.iter().any(|c| *c == header[i]))
                .collect())
        }
        None => Ok((0..header.len()).collect()),
    }
}

/// Each kept column's dtype: an override, then `parse_dates`, then
/// inference over the records `sample` feeds to a sink (it is asked for
/// the first `infer_rows`, 1000 when that is 0).
fn infer_dtypes(
    header: &[String],
    keep: &[usize],
    options: &CsvOptions,
    sample: impl FnOnce(usize, &mut Sink<'_>) -> Result<usize>,
) -> Result<Vec<DType>> {
    let mut guesses = vec![DtypeGuess::new(); keep.len()];
    let rows = match options.infer_rows {
        0 => 1000,
        n => n,
    };
    sample(rows, &mut |tok, text, _| {
        for (guess, &col) in guesses.iter_mut().zip(keep) {
            guess.update(tok.field(text, col));
        }
        Ok(())
    })?;
    Ok(keep
        .iter()
        .zip(&guesses)
        .map(|(&col, guess)| match options.dtypes.get(&header[col]) {
            Some(&dt) => dt,
            None if options.parse_dates.contains(&header[col]) => DType::Datetime,
            None => guess.finish(),
        })
        .collect())
}

/// Bodies below this size parse sequentially — chunking and worker
/// spawn don't amortize.
const PAR_MIN_BYTES: usize = 256 * 1024;

/// The parallel reader's one serial pass: cut `body` just past the first
/// newline outside quotes at or beyond every `approx` bytes, as `(start,
/// end, physical lines before start)`. Quote parity runs across the
/// whole body, so a newline inside a quoted field never splits a record.
/// A word that cannot hold a cut is settled by two popcounts.
fn split_pieces(body: &[u8], approx: usize) -> Vec<(usize, usize, usize)> {
    let mut pieces = Vec::new();
    let (mut piece_start, mut lines_before, mut lines, mut in_quotes) = (0, 0, 0, false);
    let mut i = 0;
    while i < body.len() {
        let w = load(body, i);
        let (quotes, newlines) = (byte_mask(w, b'"'), byte_mask(w, b'\n'));
        if i + 8 < piece_start + approx || (in_quotes && quotes == 0) {
            lines += newlines.count_ones() as usize;
            in_quotes ^= quotes.count_ones() % 2 == 1;
        } else {
            let mut bits = quotes | newlines;
            while bits != 0 {
                let k = i + (bits.trailing_zeros() / 8) as usize;
                bits &= bits - 1;
                if body[k] == b'"' {
                    in_quotes = !in_quotes;
                    continue;
                }
                lines += 1;
                if !in_quotes && k + 1 - piece_start >= approx {
                    pieces.push((piece_start, k + 1, lines_before));
                    (piece_start, lines_before) = (k + 1, lines);
                }
            }
        }
        i += 8;
    }
    if piece_start < body.len() {
        pieces.push((piece_start, body.len(), lines_before));
    }
    pieces
}

/// [`read_csv`] driven through a worker pool: the file is read into one
/// buffer, dtypes are inferred from the streaming reader's sample, and
/// one serial classifier pass (`split_pieces`) cuts the body into ~4
/// record-aligned pieces per worker, each knowing its first physical
/// line. Workers scan pieces into their own [`ColumnBuilder`]s, appended
/// in file order: the frame, and the first error in file order, match
/// the streaming reader's at any thread count.
pub fn read_csv_par(
    path: &Path,
    options: &CsvOptions,
    pool: &crate::pool::WorkerPool,
) -> Result<DataFrame> {
    if !pool.is_parallel() {
        return read_csv(path, options);
    }
    inject_csv(&options.exec, path)?;
    // Size-gate on metadata before buffering the file, so small files
    // are read once (by the streaming reader), not twice.
    let file_bytes = std::fs::metadata(path)
        .map(|m| m.len() as usize)
        .map_err(|e| io_error(path, e))?;
    if file_bytes < PAR_MIN_BYTES {
        return read_csv(path, options);
    }
    let text = std::fs::read_to_string(path).map_err(|e| io_error(path, e))?;
    let body_start = text.find('\n').map_or(text.len(), |p| p + 1);
    let header = parse_header(&text[..body_start], path)?;
    let keep = resolve_usecols(&header, options, path)?;
    let body = &text[body_start..];
    if body.is_empty() {
        // Header-only file: same empty frame as the streaming reader.
        return read_csv(path, options);
    }

    let dtypes = infer_dtypes(&header, &keep, options, |rows, sink| {
        Tokenizer::new(path, header.len(), &keep, 1).feed(body, &mut 0, true, rows, sink)
    })?;
    let approx = body.len().div_ceil(pool.threads() * 4).max(1);
    let pieces = split_pieces(body.as_bytes(), approx);
    let results: Vec<Result<Vec<ColumnBuilder>>> = pool.map(pieces, |_, (start, end, before)| {
        let mut builders: Vec<ColumnBuilder> =
            dtypes.iter().map(|&dt| ColumnBuilder::new(dt)).collect();
        // The header is line 1.
        Tokenizer::new(path, header.len(), &keep, 1 + before).feed(
            &body[start..end],
            &mut 0,
            true,
            usize::MAX,
            &mut |tok, text, line| tok.parse_kept(text, line, &keep, &dtypes, &mut builders),
        )?;
        Ok(builders)
    });

    // Columns are assembled in parallel, each appending its pieces in
    // file order (so capacities match a serial append), then encoded.
    let mut columns: Vec<Vec<ColumnBuilder>> = keep.iter().map(|_| Vec::new()).collect();
    for part in results {
        for (column, piece) in columns.iter_mut().zip(part?) {
            column.push(piece);
        }
    }
    let finished = pool.map(columns, |_, pieces| {
        let mut pieces = pieces.into_iter();
        let mut acc = pieces.next()?;
        pieces.for_each(|b| acc.append(b));
        Some(finish_encoded(acc, options.exec.encode))
    });
    let series = keep
        .iter()
        .zip(finished)
        .map(|(&i, col)| Some(Series::new(header[i].clone(), col?)))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| ColumnarError::Csv(format!("{path:?}: no body")))?;
    DataFrame::new(series)
}

/// Streaming CSV reader yielding row-chunks of at most `chunk_rows` rows.
///
/// Dtypes are inferred once from the first `infer_rows` records and then held
/// fixed for all chunks so partitions agree on a schema (this is also how
/// Dask behaves; a later value that fails the inferred dtype is a parse
/// error, not a silent re-infer).
///
/// The file is read in fixed-size blocks into one reused buffer and
/// scanned in place: kept fields are borrowed slices of it (quoted ones
/// unescaped into one scratch string) parsed straight into typed
/// [`ColumnBuilder`]s. The inference sample is read without consuming
/// it, then scanned again for the first chunk.
pub struct CsvChunkReader {
    stream: RecordStream,
    chunk_rows: usize,
    /// All header names, in file order.
    header: Vec<String>,
    /// Indices (into the record) of the columns we keep, in header order.
    keep: Vec<usize>,
    /// dtype per kept column.
    dtypes: Vec<DType>,
    /// The options' configuration (ingest encoding, `csv_read` faults).
    exec: ExecConfig,
}

impl CsvChunkReader {
    /// Open `path` and prepare to stream chunks of `chunk_rows` rows.
    pub fn open(path: &Path, options: &CsvOptions, chunk_rows: usize) -> Result<CsvChunkReader> {
        CsvChunkReader::open_with_block_size(path, options, chunk_rows, BLOCK)
    }

    /// Test hook, not an option: [`open`](CsvChunkReader::open) with a
    /// chosen refill size, so tests can put block edges inside every
    /// record shape.
    #[doc(hidden)]
    pub fn open_with_block_size(
        path: &Path,
        options: &CsvOptions,
        chunk_rows: usize,
        block: usize,
    ) -> Result<CsvChunkReader> {
        inject_csv(&options.exec, path)?;
        let (mut stream, header) = RecordStream::open(path, block)?;
        let keep = resolve_usecols(&header, options, path)?;
        stream.tok = Tokenizer::new(path, header.len(), &keep, 1);
        let dtypes = infer_dtypes(&header, &keep, options, |rows, sink| {
            stream.drive(rows, false, sink)
        })?;
        // Back to the first record, the header line behind it.
        (stream.cursor, stream.tok.line, stream.done) = (0, 1, false);
        Ok(CsvChunkReader {
            stream,
            chunk_rows: chunk_rows.max(1),
            header,
            keep,
            dtypes,
            exec: options.exec.clone(),
        })
    }

    /// The schema `(name, dtype)` of emitted chunks.
    pub fn schema(&self) -> Vec<(String, DType)> {
        self.keep
            .iter()
            .zip(&self.dtypes)
            .map(|(&i, &dt)| (self.header[i].clone(), dt))
            .collect()
    }

    /// All column names present in the file header.
    pub fn file_columns(&self) -> &[String] {
        &self.header
    }

    /// An empty frame with the reader's schema.
    pub fn empty_frame(&self) -> Result<DataFrame> {
        let series = self
            .schema()
            .into_iter()
            .map(|(name, dt)| Series::new(name, ColumnBuilder::new(dt).finish()))
            .collect();
        DataFrame::new(series)
    }

    /// Read the next chunk; `None` when the file is exhausted.
    pub fn next_chunk(&mut self) -> Result<Option<DataFrame>> {
        inject_csv(&self.exec, &self.stream.tok.path)?;
        let mut builders: Vec<ColumnBuilder> =
            self.dtypes.iter().map(|&dt| ColumnBuilder::new(dt)).collect();
        for b in &mut builders {
            // Cap the up-front reservation: chunk_rows is usize::MAX for
            // whole-file reads, and growth doubling takes over past 16k.
            b.reserve(self.chunk_rows.min(16 * 1024));
        }
        let (keep, dtypes) = (&self.keep, &self.dtypes);
        let rows = self
            .stream
            .drive(self.chunk_rows, true, &mut |tok, text, line| {
                tok.parse_kept(text, line, keep, dtypes, &mut builders)
            })?;
        if rows == 0 {
            return Ok(None);
        }
        let series = self
            .keep
            .iter()
            .zip(builders)
            .map(|(&i, b)| Series::new(self.header[i].clone(), finish_encoded(b, self.exec.encode)))
            .collect();
        Ok(Some(DataFrame::new(series)?))
    }
}

/// Finish a builder, dictionary-encoding low-cardinality string columns
/// at ingest when `encode` is set (the decision layer in
/// [`crate::encoding`] gates on row count, cardinality, and actual byte
/// shrink).
fn finish_encoded(b: ColumnBuilder, encode: bool) -> crate::Column {
    let col = b.finish();
    match encode {
        true => crate::encoding::dict_encode_auto(&col).unwrap_or(col),
        false => col,
    }
}

/// Parse one raw field into `builder` as `dtype` (empty string = null).
/// Dispatches on dtype and pushes through the builder's typed methods —
/// no `Scalar` is constructed and no coercion re-runs per cell.
fn parse_field(
    builder: &mut ColumnBuilder,
    raw: &str,
    dtype: DType,
    line: usize,
) -> Result<()> {
    if raw.is_empty() {
        builder.push_null();
        return Ok(());
    }
    let parse_err = || ColumnarError::ParseError {
        value: raw.to_string(),
        dtype: dtype.to_string(),
        line: Some(line),
    };
    match dtype {
        DType::Int64 => builder.push_i64(raw.trim().parse().map_err(|_| parse_err())?),
        DType::Float64 => builder.push_f64(raw.trim().parse().map_err(|_| parse_err())?),
        DType::Bool => match raw.trim() {
            "True" | "true" | "1" => builder.push_bool(true),
            "False" | "false" | "0" => builder.push_bool(false),
            _ => return Err(parse_err()),
        },
        DType::Datetime => builder.push_datetime(parse_datetime(raw).ok_or_else(parse_err)?),
        DType::Utf8 | DType::Categorical => builder.push_str(raw),
    }
    Ok(())
}

/// Incremental dtype inference state: Int64 ⊂ Float64 ⊂ Utf8, with Bool
/// and Datetime recognized exactly. One instance per column, fed sample
/// values in file order by the same sample sink in both readers, so
/// their inference cannot drift.
#[derive(Debug, Clone)]
struct DtypeGuess {
    any: bool,
    all_int: bool,
    all_float: bool,
    all_bool: bool,
    all_datetime: bool,
}

impl DtypeGuess {
    fn new() -> DtypeGuess {
        DtypeGuess {
            any: false,
            all_int: true,
            all_float: true,
            all_bool: true,
            all_datetime: true,
        }
    }

    fn update(&mut self, v: &str) {
        if v.is_empty() {
            return;
        }
        self.any = true;
        if !self.all_int && !self.all_float && !self.all_bool && !self.all_datetime {
            return; // already resolved to Utf8
        }
        let t = v.trim();
        if self.all_int && t.parse::<i64>().is_err() {
            self.all_int = false;
        }
        if self.all_float && t.parse::<f64>().is_err() {
            self.all_float = false;
        }
        if self.all_bool && !matches!(t, "True" | "true" | "False" | "false") {
            self.all_bool = false;
        }
        if self.all_datetime && parse_datetime(t).is_none() {
            self.all_datetime = false;
        }
    }

    fn finish(&self) -> DType {
        if !self.any {
            DType::Utf8 // empty sample infers Utf8 (pandas: object)
        } else if self.all_bool {
            DType::Bool
        } else if self.all_int {
            DType::Int64
        } else if self.all_float {
            DType::Float64
        } else if self.all_datetime {
            DType::Datetime
        } else {
            DType::Utf8
        }
    }
}

/// Write a frame to CSV (header + rows; datetimes in `YYYY-MM-DD HH:MM:SS`).
pub fn write_csv(frame: &DataFrame, path: &Path) -> Result<()> {
    let file = File::create(path).map_err(|e| io_error(path, e))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(
        w,
        "{}",
        frame
            .column_names()
            .iter()
            .map(|n| quote_field(n))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for i in 0..frame.num_rows() {
        let row: Vec<String> = frame
            .series()
            .iter()
            .map(|s| {
                let v = s.get(i);
                if v.is_null() {
                    String::new()
                } else {
                    quote_field(&v.to_string())
                }
            })
            .collect();
        writeln!(w, "{}", row.join(","))?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
    use super::*;
    use crate::value::Scalar;

    fn write_temp(content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("lafp-csv-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "t{}.csv",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mut f = File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    const SAMPLE: &str = "\
id,fare,city,when,ok
1,5.5,NY,2024-01-01 10:00:00,true
2,6.25,SF,2024-01-02 11:30:00,false
3,,\"LA, CA\",2024-01-03 12:00:00,true
";

    #[test]
    fn split_record_handles_quotes() {
        assert_eq!(split_record("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_record("a,\"b,c\",d"), vec!["a", "b,c", "d"]);
        assert_eq!(split_record("\"he said \"\"hi\"\"\",x"), vec![
            "he said \"hi\"",
            "x"
        ]);
        assert_eq!(split_record(""), vec![""]);
        assert_eq!(split_record("a,,c"), vec!["a", "", "c"]);
    }

    #[test]
    fn quote_field_roundtrip() {
        for s in ["plain", "with,comma", "with\"quote", "multi\nline"] {
            let quoted = quote_field(s);
            let rec = split_record(&quoted);
            assert_eq!(rec, vec![s.to_string()]);
        }
    }

    #[test]
    fn read_infers_types() {
        let path = write_temp(SAMPLE);
        let df = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(df.shape(), (3, 5));
        assert_eq!(df.column("id").unwrap().dtype(), DType::Int64);
        assert_eq!(df.column("fare").unwrap().dtype(), DType::Float64);
        assert_eq!(df.column("city").unwrap().dtype(), DType::Utf8);
        assert_eq!(df.column("when").unwrap().dtype(), DType::Datetime);
        assert_eq!(df.column("ok").unwrap().dtype(), DType::Bool);
        // null cell
        assert!(df.column("fare").unwrap().column().is_null_at(2));
        // quoted comma preserved
        assert_eq!(
            df.column("city").unwrap().get(2),
            Scalar::Str("LA, CA".into())
        );
    }

    #[test]
    fn usecols_projects_in_file_order() {
        let path = write_temp(SAMPLE);
        let opts = CsvOptions::new().with_usecols(vec!["city".into(), "id".into()]);
        let df = read_csv(&path, &opts).unwrap();
        assert_eq!(df.column_names(), vec!["id", "city"]);
        let missing = CsvOptions::new().with_usecols(vec!["ghost".into()]);
        assert!(read_csv(&path, &missing).is_err());
    }

    #[test]
    fn dtype_overrides_respected() {
        let path = write_temp(SAMPLE);
        let opts = CsvOptions::new()
            .with_dtype("id", DType::Float64)
            .with_dtype("city", DType::Categorical);
        let df = read_csv(&path, &opts).unwrap();
        assert_eq!(df.column("id").unwrap().dtype(), DType::Float64);
        assert_eq!(df.column("city").unwrap().dtype(), DType::Categorical);
    }

    #[test]
    fn chunked_reading_covers_all_rows() {
        let mut content = String::from("a,b\n");
        for i in 0..25 {
            content.push_str(&format!("{i},{}\n", i * 2));
        }
        let path = write_temp(&content);
        let mut rdr = CsvChunkReader::open(&path, &CsvOptions::new(), 10).unwrap();
        let mut total = 0;
        let mut chunks = 0;
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            assert!(chunk.num_rows() <= 10);
            total += chunk.num_rows();
            chunks += 1;
        }
        assert_eq!(total, 25);
        assert_eq!(chunks, 3);
    }

    #[test]
    fn chunked_inference_spans_chunks_consistently() {
        // First 1000-row sample sees only ints in 'v'; inference fixes dtype.
        let mut content = String::from("v\n");
        for i in 0..30 {
            content.push_str(&format!("{i}\n"));
        }
        let path = write_temp(&content);
        let mut rdr = CsvChunkReader::open(&path, &CsvOptions::new(), 7).unwrap();
        let mut dtypes = Vec::new();
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            dtypes.push(chunk.column("v").unwrap().dtype());
        }
        assert!(dtypes.iter().all(|&d| d == DType::Int64));
    }

    #[test]
    fn parse_error_includes_line() {
        let path = write_temp("n\n1\nnot-a-number\n");
        let opts = CsvOptions::new().with_dtype("n", DType::Int64);
        let err = read_csv(&path, &opts).unwrap_err();
        match err {
            ColumnarError::ParseError { line, .. } => assert_eq!(line, Some(3)),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn ragged_row_rejected() {
        let path = write_temp("a,b\n1\n");
        assert!(read_csv(&path, &CsvOptions::new()).is_err());
    }

    #[test]
    fn header_only_file_gives_empty_frame() {
        let path = write_temp("a,b\n");
        let df = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(df.shape(), (0, 2));
    }

    #[test]
    fn write_then_read_roundtrip() {
        use crate::column::Column;
        use crate::df;
        let df = df![
            ("id", Column::from_i64(vec![1, 2])),
            ("city", Column::from_strings(vec!["NY", "LA, CA"])),
            ("fare", Column::from_opt_f64(vec![Some(5.5), None])),
        ];
        let path = write_temp("");
        write_csv(&df, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(back.shape(), (2, 3));
        assert_eq!(back.column("city").unwrap().get(1), Scalar::Str("LA, CA".into()));
        assert!(back.column("fare").unwrap().column().is_null_at(1));
    }

    #[test]
    fn read_header_lists_columns() {
        let path = write_temp(SAMPLE);
        assert_eq!(
            read_header(&path).unwrap(),
            vec!["id", "fare", "city", "when", "ok"]
        );
    }

    #[test]
    fn write_read_roundtrip_with_quoted_fields() {
        use crate::column::Column;
        let df = DataFrame::new(vec![
            Series::new("n", Column::from_opt_i64(vec![Some(-3), None, Some(7)])),
            Series::new("f", Column::from_f64(vec![0.5, -2.25, 100.0])),
            Series::new(
                "s",
                Column::from_strings(vec!["plain", "with,comma", "say \"hi\""]),
            ),
            Series::new("b", Column::from_bool(vec![true, false, true])),
        ])
        .unwrap();
        let path = write_temp("");
        write_csv(&df, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(back, df, "write → read must reproduce the frame");
        // The quoted fields specifically survive verbatim.
        assert_eq!(
            back.column("s").unwrap().get(1),
            Scalar::Str("with,comma".into())
        );
        assert_eq!(
            back.column("s").unwrap().get(2),
            Scalar::Str("say \"hi\"".into())
        );
    }

    #[test]
    fn roundtrip_with_dtype_overrides() {
        use crate::column::Column;
        let df = DataFrame::new(vec![
            Series::new("code", Column::from_i64(vec![1, 2, 1])),
            Series::new("state", Column::from_strings(vec!["NY", "CA", "NY"])),
        ])
        .unwrap();
        let path = write_temp("");
        write_csv(&df, &path).unwrap();
        let opts = CsvOptions::new()
            .with_dtype("code", DType::Float64)
            .with_dtype("state", DType::Categorical);
        let back = read_csv(&path, &opts).unwrap();
        assert_eq!(back.column("code").unwrap().dtype(), DType::Float64);
        assert_eq!(back.column("code").unwrap().get(0), Scalar::Float(1.0));
        let state = back.column("state").unwrap();
        assert_eq!(state.dtype(), DType::Categorical);
        // Values read back identically despite the categorical encoding.
        for (i, want) in ["NY", "CA", "NY"].iter().enumerate() {
            assert_eq!(state.get(i), Scalar::Str((*want).into()), "row {i}");
        }
        assert_eq!(state.column().nunique(), Scalar::Int(2));
    }

    #[test]
    fn quoted_newline_records_parse_sequentially() {
        // quote_field output with embedded \n and \r\n round-trips
        // through write_csv + read_csv.
        use crate::column::Column;
        let df = DataFrame::new(vec![
            Series::new("id", Column::from_i64(vec![1, 2, 3, 4])),
            Series::new(
                "note",
                Column::from_strings(vec![
                    "one\nline two",
                    "crlf\r\nend",
                    "both,\"\nquoted\"",
                    "plain",
                ]),
            ),
        ])
        .unwrap();
        let path = write_temp("");
        write_csv(&df, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(back, df);
        // Chunked reads cut at record — not physical-line — boundaries.
        let mut rdr = CsvChunkReader::open(&path, &CsvOptions::new(), 1).unwrap();
        let mut rows = 0;
        while let Some(chunk) = rdr.next_chunk().unwrap() {
            assert_eq!(chunk.num_rows(), 1);
            rows += 1;
        }
        assert_eq!(rows, 4);
    }

    /// The headline differential test: quote_field output with embedded
    /// `\n`/`\r\n` parses identically through the sequential and
    /// parallel readers at 1, 2 and 8 threads.
    #[test]
    fn quoted_newline_differential_sequential_vs_parallel() {
        use crate::pool::WorkerPool;
        let mut content = String::from("id,note,fare\n");
        for i in 0..20_000u32 {
            let note = match i % 5 {
                0 => format!("line one\nline two of {i}"),
                1 => format!("crlf\r\nterminated {i}"),
                2 => format!("with,comma {i}"),
                3 => format!("say \"hi\" {i}"),
                _ => format!("plain-{i}"),
            };
            content.push_str(&format!("{i},{},{}.5\n", quote_field(&note), i % 97));
        }
        assert!(
            content.len() >= PAR_MIN_BYTES,
            "body must exceed the parallel gate ({} bytes)",
            content.len()
        );
        let path = write_temp(&content);
        let seq = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(seq.num_rows(), 20_000);
        assert_eq!(
            seq.column("note").unwrap().get(0),
            Scalar::Str("line one\nline two of 0".into())
        );
        assert_eq!(
            seq.column("note").unwrap().get(1),
            Scalar::Str("crlf\r\nterminated 1".into())
        );
        for threads in [1usize, 2, 8] {
            let pool = WorkerPool::new(threads);
            let par = read_csv_par(&path, &CsvOptions::new(), &pool).unwrap();
            assert_eq!(par, seq, "parallel read diverged at {threads} threads");
        }
    }

    /// CRLF-terminated bodies whose final record has no terminator parse
    /// identically in both readers (chunk boundaries and values).
    #[test]
    fn crlf_and_unterminated_tail_parity() {
        use crate::pool::WorkerPool;
        let mut content = String::from("id,s\r\n");
        for i in 0..25_000u32 {
            content.push_str(&format!("{i},\"v\r\n{i}\"\r\n"));
        }
        content.push_str("25000,tail"); // no trailing newline
        assert!(content.len() >= PAR_MIN_BYTES);
        let path = write_temp(&content);
        let seq = read_csv(&path, &CsvOptions::new()).unwrap();
        assert_eq!(seq.num_rows(), 25_001);
        assert_eq!(seq.column("s").unwrap().get(0), Scalar::Str("v\r\n0".into()));
        assert_eq!(
            seq.column("s").unwrap().get(25_000),
            Scalar::Str("tail".into())
        );
        for threads in [2usize, 8] {
            let pool = WorkerPool::new(threads);
            let par = read_csv_par(&path, &CsvOptions::new(), &pool).unwrap();
            assert_eq!(par, seq, "CRLF parity diverged at {threads} threads");
        }
    }

    /// Error line numbers count *physical* lines and report a multiline
    /// record's first line — identically in both readers.
    #[test]
    fn error_line_numbers_match_across_readers_with_multiline_records() {
        use crate::pool::WorkerPool;
        let mut content = String::from("n,s\n");
        let records = 25_000usize;
        for i in 0..records {
            // Every record spans two physical lines.
            content.push_str(&format!("{i},\"x\ny{i}\"\n"));
        }
        content.push_str("oops,\"z\nw\"\n");
        assert!(content.len() >= PAR_MIN_BYTES);
        let path = write_temp(&content);
        let opts = CsvOptions::new()
            .with_dtype("n", DType::Int64)
            .with_dtype("s", DType::Utf8);
        let expect_line = 1 + 2 * records + 1; // header + records + bad row start
        let seq_err = read_csv(&path, &opts).unwrap_err();
        match &seq_err {
            ColumnarError::ParseError { line, .. } => assert_eq!(*line, Some(expect_line)),
            other => panic!("expected parse error, got {other:?}"),
        }
        let pool = WorkerPool::new(4);
        let par_err = read_csv_par(&path, &opts, &pool).unwrap_err();
        match &par_err {
            ColumnarError::ParseError { line, .. } => assert_eq!(*line, Some(expect_line)),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_quoted_fields_with_usecols_and_override() {
        // Quoting, projection and overrides compose.
        let content = "a,b,c\n\"1,5\",2,x\n\"\",4,y\n";
        let path = write_temp(content);
        let opts = CsvOptions::new()
            .with_usecols(vec!["a".into(), "c".into()])
            .with_dtype("c", DType::Categorical);
        let df = read_csv(&path, &opts).unwrap();
        assert_eq!(df.column_names(), vec!["a", "c"]);
        assert_eq!(df.column("a").unwrap().get(0), Scalar::Str("1,5".into()));
        assert!(df.column("a").unwrap().column().is_null_at(1));
        assert_eq!(df.column("c").unwrap().dtype(), DType::Categorical);
    }
}
