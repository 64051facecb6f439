//! The typed metadata sidecar (`lafp_meta::compute_metadata`) equals the
//! frozen `Scalar`-per-cell scan (`compute_metadata_ref`) field for
//! field, `row_bytes` included: on every dataset the benchmark programs
//! read, and on generated files with NaN, ±0.0, infinities, nulls,
//! all-null columns, dictionary-encoded chunks, datetimes, bools and
//! columns whose distinct count crosses `NDISTINCT_CAP`.

use lafp_bench::datagen::{ensure_datasets, Size};
use lafp_columnar::csv::{CsvChunkReader, CsvOptions};
use lafp_columnar::Column;
use lafp_meta::store::{DatasetMeta, NDISTINCT_CAP};
use lafp_oracle::scan_ref::compute_metadata_ref;
use std::path::{Path, PathBuf};

fn assert_same_meta(got: &DatasetMeta, want: &DatasetMeta, what: &str) {
    assert_eq!(got.nrows, want.nrows, "{what}: nrows");
    assert_eq!(
        got.row_bytes.to_bits(),
        want.row_bytes.to_bits(),
        "{what}: row_bytes"
    );
    assert_eq!(got.columns.len(), want.columns.len(), "{what}: columns");
    for (g, w) in got.columns.iter().zip(&want.columns) {
        assert_eq!(g, w, "{what}: column {}", w.name);
    }
    assert_eq!(got, want, "{what}");
}

fn check(path: &Path, what: &str) {
    let got = lafp_meta::compute_metadata(path).unwrap();
    let want = compute_metadata_ref(path).unwrap();
    assert_same_meta(&got, &want, what);
}

#[test]
fn benchmark_datasets_match_reference() {
    let root = std::env::temp_dir().join("lafp-sidecar-equivalence");
    let dir = ensure_datasets(&root, Size::Small).unwrap();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    files.sort();
    for name in ["nyt.csv", "zip.csv", "mov.csv", "stu.csv"] {
        assert!(files.iter().any(|p| p.ends_with(name)), "{name} generated");
    }
    for path in &files {
        check(path, &path.display().to_string());
    }
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One generated file: `rows` rows of every column family.
fn write_case(path: &Path, rng: &mut Rng, rows: usize) {
    const SPECIAL: [&str; 8] = ["NaN", "-0.0", "0.0", "inf", "-inf", "", "1.5", "-2.25"];
    const CITIES: [&str; 5] = [
        "Amsterdam-Centraal",
        "Rotterdam-Blaak",
        "",
        "Utrecht-Zuid",
        "Den-Haag-HS",
    ];
    let mut text =
        String::from("nan_first,floats,ints,all_null,when,flag,city,unique,big_ints,zeros\n");
    for i in 0..rows {
        let nan_first = if i == 0 {
            "NaN"
        } else {
            SPECIAL[rng.below(8) as usize]
        };
        let floats = match rng.below(4) {
            0 => SPECIAL[rng.below(8) as usize].to_string(),
            _ => format!("{:.3}", rng.below(20_000) as f64 / 7.0 - 1000.0),
        };
        let ints = match rng.below(10) {
            0 => String::new(),
            _ => format!("{}", rng.below(50) as i64 - 25),
        };
        let when = match rng.below(8) {
            0 => String::new(),
            _ => format!(
                "2023-{:02}-{:02} {:02}:00:{:02}",
                1 + rng.below(12),
                1 + rng.below(28),
                rng.below(24),
                rng.below(60)
            ),
        };
        let flag = ["true", "false", ""][rng.below(3) as usize];
        let city = CITIES[rng.below(CITIES.len() as u64) as usize];
        let big = rng.below(3 * NDISTINCT_CAP);
        // Signed zeros only: every row ties for min and max.
        let zeros = ["0.0", "-0.0", "", "-0"][rng.below(4) as usize];
        text.push_str(&format!(
            "{nan_first},{floats},{ints},,{when},{flag},{city},u{i},{big},{zeros}\n"
        ));
    }
    std::fs::write(path, text).unwrap();
}

#[test]
fn generated_edge_cases_match_reference() {
    let dir = std::env::temp_dir().join("lafp-sidecar-equivalence-gen");
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = Rng(2024);
    for (case, rows) in [0usize, 1, 2, 17, 2_000, 40_000].into_iter().enumerate() {
        let path = dir.join(format!("case{case}-{}.csv", std::process::id()));
        write_case(&path, &mut rng, rows);
        check(&path, &format!("case {case} ({rows} rows)"));
        if rows >= 2_000 && lafp_columnar::encoding::enabled() {
            // The low-cardinality string column reached the scan encoded.
            let mut reader = CsvChunkReader::open(&path, &CsvOptions::new(), 16_384).unwrap();
            let chunk = reader.next_chunk().unwrap().unwrap();
            let city = chunk.column("city").unwrap();
            assert!(
                matches!(city.column(), Column::Dict(..)),
                "case {case}: city is dictionary-encoded"
            );
        }
        if rows == 40_000 {
            let meta = lafp_meta::compute_metadata(&path).unwrap();
            assert_eq!(meta.column("unique").unwrap().ndistinct, NDISTINCT_CAP + 1);
            assert_eq!(
                meta.column("big_ints").unwrap().ndistinct,
                NDISTINCT_CAP + 1
            );
            assert_eq!(meta.column("all_null").unwrap().null_count, 40_000);
            assert_eq!(meta.column("all_null").unwrap().min, None);
        }
        std::fs::remove_file(&path).ok();
    }
    // -0.0 and 0.0 are two distinct values; the earlier one wins a tie
    // for min and max; NaN is null and never an extreme.
    let path = dir.join(format!("zeros-{}.csv", std::process::id()));
    std::fs::write(&path, "z\nNaN\n0.0\n-0.0\nNaN\n-0.0\n").unwrap();
    check(&path, "zeros");
    let meta = lafp_meta::compute_metadata(&path).unwrap();
    let z = meta.column("z").unwrap();
    assert_eq!(
        (z.min.as_deref(), z.max.as_deref()),
        (Some("0.0"), Some("0.0"))
    );
    assert_eq!((z.ndistinct, z.null_count), (2, 2));
    std::fs::remove_file(&path).ok();
}
