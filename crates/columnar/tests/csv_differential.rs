//! Differential and robustness suite for the CSV block scan core.
//!
//! The streaming reader ([`CsvChunkReader`], and so `read_csv`) must
//! reproduce the frozen line-at-a-time reader
//! ([`read_csv_stream_ref`]) chunk for chunk: the same schema, values,
//! validity, dictionary encoding and memory charge (`heap_size`, which
//! counts capacity), and the same error string at the same point of the
//! chunk stream. Core-level cases run at refill sizes of 1, 7 and 64
//! bytes as well as the default, so block edges fall inside quoted
//! fields, `""` escapes, CRLF pairs, multi-byte characters and fields
//! longer than a block. A byte fuzz over arbitrary input must give a
//! result or an error, never a panic. `read_csv_par` must match
//! `read_csv` on bodies large enough to split.

use lafp_columnar::csv::{quote_field, read_csv, read_csv_par, CsvChunkReader, CsvOptions};
use lafp_columnar::{Column, DType, DataFrame, HeapSize, WorkerPool};
use lafp_oracle::equiv::assert_frame_equiv;
use lafp_oracle::scan_ref::read_csv_stream_ref;
use std::path::{Path, PathBuf};

/// Refill sizes the core runs at; `None` is the engine's own block.
const BLOCKS: [Option<usize>; 4] = [Some(1), Some(7), Some(64), None];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

fn temp_file(tag: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join("lafp-csv-differential");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!(
        "{tag}-{}-{:?}.csv",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// Buffer-for-buffer frame equality: floats by bit pattern (NaN null
/// slots included), every other column through `Column`'s `==`.
fn same_layout(a: &DataFrame, b: &DataFrame) -> bool {
    a.column_names() == b.column_names()
        && a.series()
            .iter()
            .zip(b.series())
            .all(|(x, y)| match (x.column(), y.column()) {
                (Column::Float64(p, vp), Column::Float64(q, vq)) => {
                    vp == vq
                        && p.len() == q.len()
                        && p.iter().zip(q).all(|(u, v)| u.to_bits() == v.to_bits())
                }
                (p, q) => p == q,
            })
}

/// The core's counterpart of [`read_csv_stream_ref`]: the schema as an
/// empty frame, every chunk, and the error that stopped the stream.
fn read_core(
    path: &Path,
    options: &CsvOptions,
    chunk_rows: usize,
    block: Option<usize>,
) -> (Vec<DataFrame>, Option<String>) {
    let opened = match block {
        Some(b) => CsvChunkReader::open_with_block_size(path, options, chunk_rows, b),
        None => CsvChunkReader::open(path, options, chunk_rows),
    };
    let mut reader = match opened {
        Ok(r) => r,
        Err(e) => return (Vec::new(), Some(e.to_string())),
    };
    let mut frames = match reader.empty_frame() {
        Ok(f) => vec![f],
        Err(e) => return (Vec::new(), Some(e.to_string())),
    };
    loop {
        match reader.next_chunk() {
            Ok(Some(chunk)) => frames.push(chunk),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.to_string())),
        }
    }
}

/// Assert the core ≡ the reference on `path` at every block size.
fn check_core(path: &Path, options: &CsvOptions, chunk_rows: usize, what: &str) {
    let (want, want_err) = read_csv_stream_ref(path, options, chunk_rows);
    let want_err = want_err.map(|e| e.to_string());
    for block in BLOCKS {
        let what = format!("{what} chunk_rows={chunk_rows} block={block:?}");
        let (got, got_err) = read_core(path, options, chunk_rows, block);
        assert_eq!(got_err, want_err, "{what}: error");
        assert_eq!(got.len(), want.len(), "{what}: frame count");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_frame_equiv(g, w, &format!("{what} frame {i}"));
            assert!(
                same_layout(g, w),
                "{what} frame {i}: representation\n{g:?}\n{w:?}"
            );
            assert_eq!(
                g.heap_size(),
                w.heap_size(),
                "{what} frame {i}: memory charge"
            );
        }
    }
    if chunk_rows == usize::MAX {
        match read_csv(path, options) {
            Ok(df) => {
                assert_eq!(
                    want_err, None,
                    "{what}: read_csv succeeded where the reference failed"
                );
                assert!(same_layout(&df, want.last().unwrap()), "{what}: read_csv");
            }
            Err(e) => assert_eq!(Some(e.to_string()), want_err, "{what}: read_csv error"),
        }
    }
}

const WORDS: [&str; 8] = ["alpha", "beta", "gamma", "NY", "SF", "LA", "Zürich", "東京"];

/// One random field value (unquoted text) of the given column kind.
fn value(rng: &mut Rng, kind: usize, row: usize) -> String {
    if rng.chance(8) {
        return String::new();
    }
    match kind {
        0 => format!("{}", rng.below(2000) as i64 - 1000),
        1 => format!("{:.2}", rng.below(100_000) as f64 / 100.0 - 300.0),
        2 => format!(
            "2024-{:02}-{:02} {:02}:{:02}:{:02}",
            1 + rng.below(12),
            1 + rng.below(28),
            rng.below(24),
            rng.below(60),
            rng.below(60)
        ),
        3 => WORDS[rng.below(WORDS.len())].to_string(),
        4 => ["true", "false", "True", "False"][rng.below(4)].to_string(),
        _ => match rng.below(9) {
            0 => format!("line one\nline two {row}"),
            1 => format!("crlf\r\nend {row}"),
            2 => format!("with,comma {row}"),
            3 => format!("say \"hi\" {row}"),
            4 => "é".repeat(1 + rng.below(40)),
            5 => format!("{}-{row}", "long-field-".repeat(1 + rng.below(12))),
            6 => "🦀,\"\"".to_string(),
            7 => format!("trailing cr\r{row}"),
            _ => format!("plain-{row}"),
        },
    }
}

/// A random body: `kinds` give each column's value family. Records may
/// use CRLF, be preceded by empty lines, and the last one may lack its
/// terminator.
fn body(rng: &mut Rng, kinds: &[usize], rows: usize) -> String {
    let header: Vec<String> = (0..kinds.len()).map(|c| format!("c{c}")).collect();
    let crlf = rng.chance(30);
    let end = if crlf { "\r\n" } else { "\n" };
    let mut out = header.join(",") + end;
    for row in 0..rows {
        if rng.chance(4) {
            out.push_str(if rng.chance(50) { "\n" } else { "\r\n" });
        }
        let fields: Vec<String> = kinds
            .iter()
            .map(|&k| {
                let v = value(rng, k, row);
                if rng.chance(10) && !v.is_empty() {
                    format!("\"{}\"", v.replace('"', "\"\""))
                } else {
                    quote_field(&v)
                }
            })
            .collect();
        out.push_str(&fields.join(","));
        if row + 1 < rows || rng.chance(70) {
            out.push_str(end);
        }
    }
    out
}

/// `usecols` variants: everything, first only, last only, a gapped set.
fn projections(width: usize) -> Vec<Option<Vec<String>>> {
    let name = |c: usize| format!("c{c}");
    let mut out = vec![None, Some(vec![name(0)]), Some(vec![name(width - 1)])];
    if width >= 4 {
        out.push(Some(vec![name(1), name(3), name(width - 1)]));
    }
    out
}

#[test]
fn generated_bodies_match_reference() {
    let mut rng = Rng(42);
    for case in 0..40 {
        let width = 1 + rng.below(7);
        let kinds: Vec<usize> = (0..width).map(|_| rng.below(6)).collect();
        let rows = rng.below(60);
        let text = body(&mut rng, &kinds, rows);
        let path = temp_file("gen", text.as_bytes());
        for usecols in projections(width) {
            let mut options = CsvOptions::new();
            options.usecols = usecols.clone();
            if rng.chance(30) {
                options.infer_rows = 1 + rng.below(5);
            }
            for chunk_rows in [1, 7, usize::MAX] {
                check_core(
                    &path,
                    &options,
                    chunk_rows,
                    &format!("case {case} {usecols:?}"),
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn dtype_overrides_and_parse_errors_match_reference() {
    let mut rng = Rng(7);
    for case in 0..20 {
        let kinds = [0, 1, 2, 3, 5];
        let text = body(&mut rng, &kinds, 30);
        let path = temp_file("dtype", text.as_bytes());
        let overrides = [
            ("c0", DType::Float64),
            ("c3", DType::Categorical),
            ("c3", DType::Int64), // words: a parse error with a line number
            ("c4", DType::Datetime),
            ("c1", DType::Bool),
        ];
        let (col, dt) = overrides[case % overrides.len()];
        let options = CsvOptions::new()
            .with_dtype(col, dt)
            .with_parse_dates(vec!["c2".into()]);
        for chunk_rows in [1, 4, usize::MAX] {
            check_core(
                &path,
                &options,
                chunk_rows,
                &format!("case {case} {col}:{dt:?}"),
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn targeted_shapes_match_reference() {
    let long = "x".repeat(300);
    let cases: Vec<(&str, String)> = vec![
        ("plain", "a,b\n1,2\n3,4\n".into()),
        ("crlf", "a,b\r\n1,2\r\n3,4\r\n".into()),
        ("empty lines", "a,b\n\n1,2\n\r\n\n3,4\n\n".into()),
        ("unterminated tail", "a,b\n1,2\n3,4".into()),
        ("unterminated crlf tail", "a,b\r\n1,2\r\n3,4\r".into()),
        (
            "eof inside quote",
            "a,b\n1,2\n3,\"open\nstill open\n\n".into(),
        ),
        ("eof right after open quote", "a,b\n1,\"".into()),
        (
            "escaped quotes",
            "a,b\n\"\"\"\",\"x\"\"y\"\n\"\",z\n".into(),
        ),
        ("quote mid field", "a,b\nab\"c,d\"e,f\n".into()),
        ("quoted newline", "a,b\n1,\"x\ny\"\n2,\"p\r\nq\"\n".into()),
        ("ragged short", "a,b,c\n1,2,3\n4,5\n".into()),
        ("ragged long", "a,b\n1,2\n3,4,5\n".into()),
        ("ragged multiline", "a,b\n1,2\n\"x\ny\",2,3\n".into()),
        ("ragged after sample", "a,b\n1,2\n3,4\n5\n".into()),
        (
            "long fields",
            format!("a,b,c\n{long},\"{long}\",1\n2,{long},3\n"),
        ),
        ("multibyte", "a,b\nZürich,東京\n🦀🦀🦀🦀🦀🦀🦀,é\n".into()),
        ("header only", "a,b\n".into()),
        ("header only no newline", "a,b".into()),
        ("empty file", String::new()),
        ("blank header", "\n1,2\n".into()),
        ("trailing comma", "a,b\n1,\n,\n".into()),
        ("single column with blanks", "v\n1\n\n2\n".into()),
        ("negative floats", "a,b,c\n1,-3.21,x\n2,-0.5,y\n".into()),
        ("bad utf8 after rows", "a,b\n1,2\n3,4\n5,\u{0}\n".into()),
    ];
    for (name, text) in &cases {
        let path = temp_file("shape", text.as_bytes());
        for usecols in [
            None,
            Some(vec!["a".to_string()]),
            Some(vec!["b".to_string()]),
        ] {
            let mut options = CsvOptions::new();
            options.usecols = usecols.clone();
            for chunk_rows in [1, 2, usize::MAX] {
                check_core(&path, &options, chunk_rows, &format!("{name} {usecols:?}"));
            }
        }
        std::fs::remove_file(&path).ok();
    }
    // Invalid UTF-8: in the header, mid-file, straddling a block edge,
    // and after a parse error (which must win: it comes first).
    let invalid: Vec<(&str, Vec<u8>)> = vec![
        ("bad header", b"a,\xffb\n1,2\n".to_vec()),
        ("bad row", b"a,b\n1,2\n3,\xc3\n5,6\n".to_vec()),
        ("bad tail", b"a,b\n1,2\n3,4\xe6\x97".to_vec()),
        ("bad in quoted newline", b"a,b\n1,\"x\n\xff\"\n".to_vec()),
        ("bad after many rows", {
            let mut v = b"a,b\n".to_vec();
            for i in 0..50 {
                v.extend_from_slice(format!("{i},\"Zürich\"\n").as_bytes());
            }
            v.extend_from_slice(b"x,\xf0\x9f\n");
            v
        }),
    ];
    for (name, bytes) in &invalid {
        let path = temp_file("utf8", bytes);
        for chunk_rows in [1, 3, usize::MAX] {
            check_core(&path, &CsvOptions::new(), chunk_rows, name);
            let opts = CsvOptions::new().with_dtype("a", DType::Int64);
            check_core(&path, &opts, chunk_rows, &format!("{name} int a"));
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn byte_fuzz_never_panics_and_matches_reference() {
    let mut rng = Rng(1337);
    let alphabet: &[u8] = b",,,\"\"\n\n\r\r0123456789.-abcT: ";
    for case in 0..300 {
        let len = rng.below(120);
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| {
                if rng.chance(3) {
                    rng.next() as u8
                } else {
                    alphabet[rng.below(alphabet.len())]
                }
            })
            .collect();
        if rng.chance(50) {
            let mut with_header = b"h0,h1,h2\n".to_vec();
            with_header.append(&mut bytes);
            bytes = with_header;
        }
        let path = temp_file("fuzz", &bytes);
        let mut options = CsvOptions::new();
        if rng.chance(30) {
            options.infer_rows = 1 + rng.below(3);
        }
        for chunk_rows in [1, usize::MAX] {
            check_core(
                &path,
                &options,
                chunk_rows,
                &format!("fuzz {case} {bytes:?}"),
            );
        }
        // The parallel reader on the same bytes: an answer or an error.
        let _ = read_csv_par(&path, &options, &WorkerPool::new(2));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn parallel_reader_matches_streaming_reader() {
    let mut rng = Rng(99);
    for case in 0..4 {
        let kinds = [0, 1, 2, 3, 4, 5];
        let mut text = body(&mut rng, &kinds, 6000);
        if case == 3 {
            // A ragged multiline record deep in the file.
            text.push_str("\n\"ragged\nrecord\",1\n");
        }
        assert!(
            text.len() > 256 * 1024,
            "body must exceed the parallel gate"
        );
        let path = temp_file("par", text.as_bytes());
        for usecols in projections(kinds.len()) {
            let mut options = CsvOptions::new().with_parse_dates(vec!["c2".into()]);
            options.usecols = usecols.clone();
            let seq = read_csv(&path, &options);
            for threads in [2, 3] {
                let par = read_csv_par(&path, &options, &WorkerPool::new(threads));
                let what = format!("case {case} {usecols:?} threads={threads}");
                match (&par, &seq) {
                    (Ok(p), Ok(s)) => assert!(same_layout(p, s), "{what}"),
                    _ => assert_eq!(
                        par.as_ref().map_err(|e| e.to_string()).err(),
                        seq.as_ref().map_err(|e| e.to_string()).err(),
                        "{what}"
                    ),
                }
                assert_eq!(par.is_ok(), seq.is_ok(), "{what}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn records_and_samples_longer_than_a_block_match_reference() {
    // One 3 MiB quoted field, then a sample of 1000 records of ~2 KiB:
    // the buffer must grow to hold them, without rescanning them from
    // the start at every refill.
    let mut text = format!("a,b\n1,\"{}\"\n", "q,\n".repeat(1 << 20));
    for i in 0..1000 {
        text.push_str(&format!("{i},{}\n", "w".repeat(2000 + i)));
    }
    let path = temp_file("long", text.as_bytes());
    for chunk_rows in [64, usize::MAX] {
        check_core(&path, &CsvOptions::new(), chunk_rows, "long records");
    }
    std::fs::remove_file(&path).ok();
}
