//! End-to-end encoded-execution telemetry check.
//!
//! Runs the canonical low-cardinality query — CSV ingest, an equality
//! filter on the category column, a code-keyed group-by sum — and
//! asserts through the [`lafp_meta::encoding`] facade that every
//! operator stayed on its encoded fast path: the ingest layer
//! dictionary-encoded the category column, and **zero** decode
//! fallbacks were taken anywhere in the pipeline.
//!
//! Lives in its own integration-test binary because the counters are
//! process-global; sharing a process with unrelated tests would make
//! the zero-fallback assertion racy.

use lafp_columnar::column::CmpOp;
use lafp_columnar::csv::{read_csv, CsvOptions};
use lafp_columnar::groupby::group_by;
use lafp_columnar::{AggKind, Column, GroupBySpec, Scalar};

const ROWS: usize = 4096;
const CATEGORIES: [&str; 8] = ["ad", "click", "view", "buy", "hover", "scroll", "close", "open"];

fn write_fixture(path: &std::path::Path) {
    let mut out = String::from("event,amount\n");
    for i in 0..ROWS {
        out.push_str(CATEGORIES[i % CATEGORIES.len()]);
        out.push(',');
        out.push_str(&(i as i64 % 97).to_string());
        out.push('\n');
    }
    std::fs::write(path, out).unwrap();
}

#[test]
fn low_cardinality_query_takes_zero_decode_fallbacks() {
    let dir = std::env::temp_dir().join(format!("lafp_enc_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("events.csv");
    write_fixture(&csv);

    lafp_meta::encoding::reset();
    let frame = read_csv(&csv, &CsvOptions::new()).unwrap();

    let ingest = lafp_meta::encoding::snapshot();
    if lafp_columnar::ExecConfig::from_env().encode {
        // Auto-detection must have dictionary-encoded the category
        // column at ingest and recorded the shrink.
        assert!(
            matches!(frame.column("event").unwrap().column(), Column::Dict(..)),
            "low-cardinality string column should ingest dictionary-encoded"
        );
        assert!(ingest.dict_columns >= 1);
        assert!(ingest.bytes_saved > 0);
    } else {
        // LAFP_NO_ENCODE=1: the escape hatch leaves columns plain and
        // the counters untouched.
        assert!(matches!(
            frame.column("event").unwrap().column(),
            Column::Utf8(..)
        ));
        assert_eq!(ingest.dict_columns, 0);
    }

    // The query itself: filter one category out, then sum per category.
    lafp_meta::encoding::reset();
    let mask = frame
        .column("event")
        .unwrap()
        .column()
        .compare_scalar(CmpOp::Ne, &Scalar::Str("close".to_string()))
        .unwrap();
    let kept = frame.filter(&mask).unwrap();
    let spec = GroupBySpec {
        keys: vec!["event".to_string()],
        value: "amount".to_string(),
        agg: AggKind::Sum,
    };
    let grouped = group_by(&kept, &spec).unwrap();

    // Correctness: 7 surviving categories, totals match a scalar replay.
    assert_eq!(grouped.num_rows(), CATEGORIES.len() - 1);
    let mut expected: std::collections::HashMap<&str, i64> = std::collections::HashMap::new();
    for i in 0..ROWS {
        let cat = CATEGORIES[i % CATEGORIES.len()];
        if cat != "close" {
            *expected.entry(cat).or_insert(0) += i as i64 % 97;
        }
    }
    let keys = grouped.column("event").unwrap().column();
    let sums = grouped.column("amount").unwrap().column();
    for i in 0..grouped.num_rows() {
        let k = match keys.get(i) {
            Scalar::Str(s) => s,
            other => panic!("string key expected, got {other:?}"),
        };
        match sums.get(i) {
            Scalar::Int(v) => assert_eq!(v, expected[k.as_str()], "sum mismatch for {k}"),
            other => panic!("int sum expected, got {other:?}"),
        }
    }

    // Telemetry: the filter ran once-per-dict-entry on codes and the
    // group-by took the dense code-keyed path — no operator expanded an
    // encoded column.
    let snap = lafp_meta::encoding::snapshot();
    assert_eq!(
        snap.decode_fallbacks, 0,
        "encoded fast paths must cover the whole low-cardinality query"
    );

    std::fs::remove_dir_all(&dir).ok();
}
