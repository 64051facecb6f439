//! Frozen references for the two dataset scans: the line-at-a-time CSV
//! chunk reader and the `Scalar`-per-cell metadata sidecar, exactly as
//! the engine ran them before the block scanner replaced both.
//!
//! Same freeze policy as [`crate::reference`]: the bodies do not change,
//! and the engine's scanners must reproduce their frames, their error
//! strings and their [`DatasetMeta`] field for field.

use lafp_columnar::column::ColumnBuilder;
use lafp_columnar::csv::{split_record, CsvOptions};
use lafp_columnar::value::parse_datetime;
use lafp_columnar::{ColumnarError, DType, DataFrame, HeapSize, Result, Scalar, Series};
use lafp_meta::store::{ColumnMeta, DatasetMeta, MetaStore, NDISTINCT_CAP};
use std::collections::{HashSet, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// Everything the line-at-a-time streaming reader produced for `path`
/// at `chunk_rows` rows per chunk: its schema as an empty frame, then
/// every chunk in order, and the error that stopped it (if any). An
/// error while opening yields no frames at all.
pub fn read_csv_stream_ref(
    path: &Path,
    options: &CsvOptions,
    chunk_rows: usize,
) -> (Vec<DataFrame>, Option<ColumnarError>) {
    let mut reader = match RefChunkReader::open(path, options, chunk_rows) {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut frames = match reader.empty_frame() {
        Ok(f) => vec![f],
        Err(e) => return (Vec::new(), Some(e)),
    };
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => frames.push(chunk),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// One field's location after [`split_spans`].
#[derive(Debug, Clone, Copy)]
struct FieldSpan {
    start: usize,
    end: usize,
    in_scratch: bool,
}

/// Split one record into field spans: zero-copy for quote-free lines,
/// normalized into `scratch` (quotes stripped, `""` unescaped) otherwise.
fn split_spans(line: &str, spans: &mut Vec<FieldSpan>, scratch: &mut String) {
    spans.clear();
    scratch.clear();
    let bytes = line.as_bytes();
    if !bytes.contains(&b'"') {
        let mut start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b',' {
                spans.push(FieldSpan {
                    start,
                    end: i,
                    in_scratch: false,
                });
                start = i + 1;
            }
        }
        spans.push(FieldSpan {
            start,
            end: bytes.len(),
            in_scratch: false,
        });
        return;
    }
    let len = bytes.len();
    let mut i = 0;
    let mut field_start = 0;
    let mut in_quotes = false;
    while i < len {
        if in_quotes {
            let j = bytes[i..]
                .iter()
                .position(|&b| b == b'"')
                .map_or(len, |p| i + p);
            scratch.push_str(&line[i..j]);
            i = j;
            if i < len {
                if bytes.get(i + 1) == Some(&b'"') {
                    scratch.push('"');
                    i += 2;
                } else {
                    in_quotes = false;
                    i += 1;
                }
            }
        } else {
            match bytes[i] {
                b'"' => {
                    in_quotes = true;
                    i += 1;
                }
                b',' => {
                    spans.push(FieldSpan {
                        start: field_start,
                        end: scratch.len(),
                        in_scratch: true,
                    });
                    field_start = scratch.len();
                    i += 1;
                }
                _ => {
                    let j = bytes[i..]
                        .iter()
                        .position(|&b| b == b'"' || b == b',')
                        .map_or(len, |p| i + p);
                    scratch.push_str(&line[i..j]);
                    i = j;
                }
            }
        }
    }
    spans.push(FieldSpan {
        start: field_start,
        end: scratch.len(),
        in_scratch: true,
    });
}

fn count_quotes(s: &str) -> usize {
    s.as_bytes().iter().filter(|&&b| b == b'"').count()
}

fn inject_csv(path: &Path) -> Result<()> {
    lafp_columnar::faults::inject_io(lafp_columnar::faults::FaultSite::CsvRead).map_err(|e| {
        ColumnarError::Io {
            kind: e.kind(),
            message: format!("{path:?}: {e}"),
        }
    })
}

/// The line-at-a-time `CsvChunkReader`: `read_line` per physical line,
/// quote counting to join multiline records, a full `split_spans` per
/// record, dtypes inferred from owned copies of the first `infer_rows`
/// records.
struct RefChunkReader {
    reader: BufReader<File>,
    path: PathBuf,
    chunk_rows: usize,
    header: Vec<String>,
    keep: Vec<usize>,
    dtypes: Vec<DType>,
    pending: VecDeque<(usize, Vec<String>)>,
    line: String,
    scratch: String,
    spans: Vec<FieldSpan>,
    line_no: usize,
    record_line: usize,
    done: bool,
}

impl RefChunkReader {
    fn open(path: &Path, options: &CsvOptions, chunk_rows: usize) -> Result<RefChunkReader> {
        inject_csv(path)?;
        let file = File::open(path).map_err(|e| ColumnarError::Io {
            kind: e.kind(),
            message: format!("{path:?}: {e}"),
        })?;
        let mut reader = BufReader::new(file);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let header_line = line.trim_end_matches(['\n', '\r']);
        if header_line.is_empty() {
            return Err(ColumnarError::Csv(format!("{path:?}: empty header")));
        }
        let header = split_record(header_line);
        let keep = match &options.usecols {
            Some(cols) => {
                for c in cols {
                    if !header.iter().any(|h| h == c) {
                        return Err(ColumnarError::ColumnNotFound(format!(
                            "{c} (usecols, file {path:?})"
                        )));
                    }
                }
                (0..header.len())
                    .filter(|&i| cols.iter().any(|c| *c == header[i]))
                    .collect()
            }
            None => (0..header.len()).collect(),
        };
        let mut rdr = RefChunkReader {
            reader,
            path: path.to_path_buf(),
            chunk_rows: chunk_rows.max(1),
            header,
            keep,
            dtypes: Vec::new(),
            pending: VecDeque::new(),
            line: String::new(),
            scratch: String::new(),
            spans: Vec::new(),
            line_no: 1,
            record_line: 1,
            done: false,
        };
        rdr.infer_dtypes(options)?;
        Ok(rdr)
    }

    fn empty_frame(&self) -> Result<DataFrame> {
        let series = self
            .keep
            .iter()
            .zip(&self.dtypes)
            .map(|(&i, &dt)| Series::new(self.header[i].clone(), ColumnBuilder::new(dt).finish()))
            .collect();
        DataFrame::new(series)
    }

    fn next_record(&mut self) -> Result<bool> {
        if self.done {
            return Ok(false);
        }
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                self.done = true;
                return Ok(false);
            }
            self.line_no += 1;
            self.record_line = self.line_no;
            let mut quotes = count_quotes(&self.line);
            while quotes % 2 == 1 {
                let before = self.line.len();
                if self.reader.read_line(&mut self.line)? == 0 {
                    break;
                }
                self.line_no += 1;
                quotes += count_quotes(&self.line[before..]);
            }
            while self.line.ends_with(['\n', '\r']) {
                self.line.pop();
            }
            if self.line.is_empty() {
                continue;
            }
            split_spans(&self.line, &mut self.spans, &mut self.scratch);
            if self.spans.len() != self.header.len() {
                return Err(ColumnarError::Csv(format!(
                    "{:?}: line {} has {} fields, expected {}",
                    self.path,
                    self.record_line,
                    self.spans.len(),
                    self.header.len()
                )));
            }
            return Ok(true);
        }
    }

    fn field(&self, idx: usize) -> &str {
        let span = self.spans[idx];
        if span.in_scratch {
            &self.scratch[span.start..span.end]
        } else {
            &self.line[span.start..span.end]
        }
    }

    fn infer_dtypes(&mut self, options: &CsvOptions) -> Result<()> {
        let sample_rows = if options.infer_rows == 0 {
            1000
        } else {
            options.infer_rows
        };
        let mut sample: Vec<(usize, Vec<String>)> = Vec::new();
        while sample.len() < sample_rows {
            if !self.next_record()? {
                break;
            }
            sample.push((
                self.record_line,
                (0..self.spans.len())
                    .map(|f| self.field(f).to_string())
                    .collect(),
            ));
        }
        for &col_idx in &self.keep {
            let name = &self.header[col_idx];
            let dt = if let Some(&dt) = options.dtypes.get(name) {
                dt
            } else if options.parse_dates.iter().any(|c| c == name) {
                DType::Datetime
            } else {
                infer_dtype(sample.iter().map(|(_, r)| r[col_idx].as_str()))
            };
            self.dtypes.push(dt);
        }
        self.pending = sample.into();
        Ok(())
    }

    fn next_chunk(&mut self) -> Result<Option<DataFrame>> {
        inject_csv(&self.path)?;
        let mut builders: Vec<ColumnBuilder> = self
            .dtypes
            .iter()
            .map(|&dt| ColumnBuilder::new(dt))
            .collect();
        for b in &mut builders {
            b.reserve(self.chunk_rows.min(16 * 1024));
        }
        let mut rows = 0usize;
        while rows < self.chunk_rows {
            let Some((line_no, record)) = self.pending.pop_front() else {
                break;
            };
            for (slot, &col_idx) in self.keep.iter().enumerate() {
                parse_field(
                    &mut builders[slot],
                    &record[col_idx],
                    self.dtypes[slot],
                    line_no,
                )?;
            }
            rows += 1;
        }
        while rows < self.chunk_rows {
            if !self.next_record()? {
                break;
            }
            for (slot, &col_idx) in self.keep.iter().enumerate() {
                let (dtype, line) = (self.dtypes[slot], self.record_line);
                let span = self.spans[col_idx];
                let raw = if span.in_scratch {
                    &self.scratch[span.start..span.end]
                } else {
                    &self.line[span.start..span.end]
                };
                parse_field(&mut builders[slot], raw, dtype, line)?;
            }
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        let series = self
            .keep
            .iter()
            .zip(builders)
            .map(|(&i, b)| {
                let col = b.finish();
                let col = lafp_columnar::encoding::dict_encode_auto(&col).unwrap_or(col);
                Series::new(self.header[i].clone(), col)
            })
            .collect();
        Ok(Some(DataFrame::new(series)?))
    }
}

fn parse_field(builder: &mut ColumnBuilder, raw: &str, dtype: DType, line: usize) -> Result<()> {
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

fn infer_dtype<'a>(values: impl Iterator<Item = &'a str>) -> DType {
    let (mut any, mut all_int, mut all_float) = (false, true, true);
    let (mut all_bool, mut all_datetime) = (true, true);
    for v in values {
        if v.is_empty() {
            continue;
        }
        any = true;
        if !all_int && !all_float && !all_bool && !all_datetime {
            continue;
        }
        let t = v.trim();
        if all_int && t.parse::<i64>().is_err() {
            all_int = false;
        }
        if all_float && t.parse::<f64>().is_err() {
            all_float = false;
        }
        if all_bool && !matches!(t, "True" | "true" | "False" | "false") {
            all_bool = false;
        }
        if all_datetime && parse_datetime(t).is_none() {
            all_datetime = false;
        }
    }
    if !any {
        DType::Utf8
    } else if all_bool {
        DType::Bool
    } else if all_int {
        DType::Int64
    } else if all_float {
        DType::Float64
    } else if all_datetime {
        DType::Datetime
    } else {
        DType::Utf8
    }
}

// ---------------------------------------------------------------------------
// Metadata sidecar
// ---------------------------------------------------------------------------

/// Per-column state of the `Scalar`-per-cell metadata scan.
struct ColumnScanRef {
    name: String,
    min: Option<Scalar>,
    max: Option<Scalar>,
    distinct: HashSet<String>,
    distinct_capped: bool,
    null_count: u64,
}

impl ColumnScanRef {
    fn update(&mut self, value: &Scalar) {
        if value.is_null() {
            self.null_count += 1;
            return;
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| value.cmp_values(m).is_lt())
        {
            self.min = Some(value.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| value.cmp_values(m).is_gt())
        {
            self.max = Some(value.clone());
        }
        if !self.distinct_capped {
            self.distinct.insert(value.to_string());
            if self.distinct.len() as u64 > NDISTINCT_CAP {
                self.distinct_capped = true;
            }
        }
    }
}

/// The `Scalar`-per-cell `compute_metadata`: every cell boxed through
/// `Column::get`, min / max by `Scalar::cmp_values`, distincts as
/// rendered strings in a `HashSet`, over 16 384-row chunks of the
/// engine's chunk reader.
pub fn compute_metadata_ref(path: &Path) -> Result<DatasetMeta> {
    let mut reader = lafp_columnar::csv::CsvChunkReader::open(path, &CsvOptions::new(), 16_384)?;
    let schema = reader.schema();
    let mut scans: Vec<ColumnScanRef> = schema
        .iter()
        .map(|(name, _)| ColumnScanRef {
            name: name.clone(),
            min: None,
            max: None,
            distinct: HashSet::new(),
            distinct_capped: false,
            null_count: 0,
        })
        .collect();
    let mut nrows: u64 = 0;
    let mut heap_bytes: u64 = 0;
    while let Some(chunk) = reader.next_chunk()? {
        nrows += chunk.num_rows() as u64;
        heap_bytes += chunk.heap_size() as u64;
        for scan in scans.iter_mut() {
            let col = chunk.column(&scan.name)?;
            for i in 0..col.len() {
                scan.update(&col.get(i));
            }
        }
    }
    let row_bytes = if nrows == 0 {
        0.0
    } else {
        heap_bytes as f64 / nrows as f64
    };
    let columns = schema
        .into_iter()
        .zip(scans)
        .map(|((name, dtype), scan)| ColumnMeta {
            name,
            dtype,
            min: scan.min.as_ref().map(Scalar::to_string),
            max: scan.max.as_ref().map(Scalar::to_string),
            ndistinct: if scan.distinct_capped {
                NDISTINCT_CAP + 1
            } else {
                scan.distinct.len() as u64
            },
            null_count: scan.null_count,
        })
        .collect();
    Ok(DatasetMeta {
        path: path.to_path_buf(),
        modified_unix: MetaStore::file_mtime(path)?,
        nrows,
        row_bytes,
        columns,
    })
}
