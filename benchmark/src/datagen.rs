//! Seeded, row-parametrised dataset writers.
//!
//! Ports of the `nyt`, `zip`, `mov` (+ `mov_titles`) and `stu` writers in
//! `crates/bench/src/datagen.rs`: same headers, dtypes and value
//! distributions, but taking `(rows, seed)` instead of a fixed size and
//! hard-coded seeds. The generator carries its own splitmix64 so that no
//! change to the workspace (not even to the `rand` shim) can alter the
//! bytes a seed produces; the engine only ever sees the files.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

/// Bumped whenever a writer's output for a given `(rows, seed)` changes;
/// the golden hashes in `expected/` are keyed on it.
pub const GENERATOR_VERSION: u32 = 1;

/// splitmix64, the same generator family the workspace's writers use.
pub struct Rng(u64);

impl Rng {
    /// A stream fully determined by `seed` and the dataset `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi` (half-open, `lo < hi`).
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform float in `lo..hi`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One CSV being written: rows are assembled in a reused line buffer, so
/// generation costs no per-field allocation.
struct Csv {
    out: BufWriter<File>,
    line: String,
}

impl Csv {
    fn create(dir: &Path, name: &str, header: &str) -> io::Result<Csv> {
        let mut out = BufWriter::with_capacity(1 << 20, File::create(dir.join(name))?);
        writeln!(out, "{header}")?;
        Ok(Csv {
            out,
            line: String::with_capacity(512),
        })
    }

    /// Append one field; none of the generated values needs quoting.
    fn field(&mut self, args: std::fmt::Arguments<'_>) {
        if !self.line.is_empty() {
            self.line.push(',');
        }
        self.line
            .write_fmt(args)
            .expect("writing to a String cannot fail");
    }

    fn end_row(&mut self) -> io::Result<()> {
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())?;
        self.line.clear();
        Ok(())
    }

    fn finish(mut self) -> io::Result<()> {
        // A dropped BufWriter swallows write errors; surface them.
        self.out.flush()
    }
}

macro_rules! field {
    ($csv:expr, $($arg:tt)*) => { $csv.field(format_args!($($arg)*)) };
}

/// A datetime through 2024, always valid, formatted like the engine does.
fn datetime(rng: &mut Rng) -> String {
    let secs = 1_704_067_200 + rng.int(0, 365) * 86_400 + rng.int(0, 86_400);
    lafp_columnar::value::format_datetime(secs)
}

/// A generated dataset: which files it consists of, and how to write them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// NYC-taxi-like trips, 22 columns (Figure 3's workload).
    Nyt,
    /// Zip-code census, 10 columns.
    Zip,
    /// Movie ratings (6 columns) plus the 500-row title lookup.
    Mov,
    /// Student records, 12 columns.
    Stu,
}

impl Dataset {
    /// Every dataset the benchmark can generate.
    pub const ALL: [Dataset; 4] = [Dataset::Nyt, Dataset::Zip, Dataset::Mov, Dataset::Stu];

    /// The program (and main file stem) this dataset feeds.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Nyt => "nyt",
            Dataset::Zip => "zip",
            Dataset::Mov => "mov",
            Dataset::Stu => "stu",
        }
    }

    /// Files written by [`Dataset::write`], the row-parametrised one first.
    pub fn files(self) -> &'static [&'static str] {
        match self {
            Dataset::Nyt => &["nyt.csv"],
            Dataset::Zip => &["zip.csv"],
            Dataset::Mov => &["mov.csv", "mov_titles.csv"],
            Dataset::Stu => &["stu.csv"],
        }
    }

    /// Write the dataset's files into `dir`: `rows` data rows in the main
    /// file, every value drawn from `seed`.
    pub fn write(self, dir: &Path, rows: usize, seed: u64) -> io::Result<()> {
        match self {
            Dataset::Nyt => write_nyt(dir, rows, seed),
            Dataset::Zip => write_zip(dir, rows, seed),
            Dataset::Mov => write_mov(dir, rows, seed),
            Dataset::Stu => write_stu(dir, rows, seed),
        }
    }
}

fn write_nyt(dir: &Path, rows: usize, seed: u64) -> io::Result<()> {
    let mut rng = Rng::new(seed, 101);
    let mut csv = Csv::create(
        dir,
        "nyt.csv",
        "vendor_id,tpep_pickup_datetime,tpep_dropoff_datetime,passenger_count,trip_distance,\
         rate_code,store_and_fwd_flag,pu_location,do_location,payment_type,fare_amount,extra,\
         mta_tax,tip_amount,tolls_amount,improvement_surcharge,total_amount,congestion_surcharge,\
         airport_fee,trip_type,ehail_fee,note",
    )?;
    for i in 0..rows {
        let fare = rng.float(-5.0, 95.0);
        field!(csv, "{}", rng.int(1, 3));
        field!(csv, "{}", datetime(&mut rng));
        field!(csv, "{}", datetime(&mut rng));
        field!(csv, "{}", rng.int(1, 7));
        field!(csv, "{:.2}", rng.float(0.1, 40.0));
        field!(csv, "{}", rng.int(1, 7));
        field!(csv, "{}", if rng.chance(0.5) { "Y" } else { "N" });
        field!(csv, "{}", rng.int(1, 266));
        field!(csv, "{}", rng.int(1, 266));
        field!(csv, "{}", rng.int(1, 5));
        field!(csv, "{fare:.2}");
        field!(csv, "{:.2}", rng.float(0.0, 3.0));
        field!(csv, "0.50");
        field!(csv, "{:.2}", rng.float(0.0, 20.0));
        field!(csv, "{:.2}", rng.float(0.0, 10.0));
        field!(csv, "0.30");
        field!(csv, "{:.2}", fare + rng.float(0.0, 30.0));
        field!(csv, "{:.2}", rng.float(0.0, 2.75));
        field!(csv, "{:.2}", rng.float(0.0, 5.0));
        field!(csv, "{}", rng.int(1, 3));
        field!(csv, "{:.2}", rng.float(0.0, 1.0));
        field!(csv, "trip-note-{i}");
        csv.end_row()?;
    }
    csv.finish()
}

fn write_zip(dir: &Path, rows: usize, seed: u64) -> io::Result<()> {
    let mut rng = Rng::new(seed, 1010);
    let mut csv = Csv::create(
        dir,
        "zip.csv",
        "zip,state,population,median_income,households,land_area,lat,lon,county,note",
    )?;
    for i in 0..rows {
        field!(csv, "{:05}", i % 99_999);
        field!(csv, "S{}", rng.int(0, 50));
        field!(csv, "{}", rng.int(100, 100_000));
        field!(csv, "{:.2}", rng.float(20_000.0, 180_000.0));
        field!(csv, "{}", rng.int(50, 40_000));
        field!(csv, "{:.2}", rng.float(1.0, 900.0));
        field!(csv, "{:.2}", rng.float(25.0, 49.0));
        field!(csv, "{:.2}", rng.float(-125.0, -67.0));
        field!(csv, "County {}", rng.int(0, 300));
        field!(csv, "zip note {i}");
        csv.end_row()?;
    }
    csv.finish()
}

fn write_mov(dir: &Path, rows: usize, seed: u64) -> io::Result<()> {
    let mut rng = Rng::new(seed, 808);
    let n_movies = 500;
    let mut csv = Csv::create(
        dir,
        "mov.csv",
        "user_id,movie_id,rating,rated_at,device,session",
    )?;
    for i in 0..rows {
        field!(csv, "{}", rng.int(0, rows as i64 / 4 + 1));
        field!(csv, "{}", rng.int(0, n_movies));
        field!(csv, "{:.2}", rng.int(1, 11) as f64 / 2.0);
        field!(csv, "{}", datetime(&mut rng));
        field!(csv, "{}", if rng.chance(0.6) { "mobile" } else { "web" });
        field!(csv, "session-{i}");
        csv.end_row()?;
    }
    csv.finish()?;
    let genres = ["drama", "comedy", "action", "scifi", "docu", "horror"];
    let mut titles = Csv::create(dir, "mov_titles.csv", "movie_id,title,genre,year")?;
    for m in 0..n_movies {
        field!(titles, "{m}");
        field!(titles, "Movie #{m}");
        field!(
            titles,
            "{}",
            genres[rng.int(0, genres.len() as i64) as usize]
        );
        field!(titles, "{}", rng.int(1960, 2025));
        titles.end_row()?;
    }
    titles.finish()
}

fn write_stu(dir: &Path, rows: usize, seed: u64) -> io::Result<()> {
    let mut rng = Rng::new(seed, 909);
    let mut csv = Csv::create(
        dir,
        "stu.csv",
        "student_id,name,grade_level,school,math,reading,science,history,attendance,city,\
         counselor,remark",
    )?;
    for i in 0..rows {
        field!(csv, "{i}");
        field!(csv, "Student Name {i}");
        field!(csv, "{}", rng.int(1, 13));
        field!(csv, "School-{:02}", rng.int(0, 12));
        field!(csv, "{:.2}", rng.float(0.0, 100.0));
        field!(csv, "{:.2}", rng.float(0.0, 100.0));
        field!(csv, "{:.2}", rng.float(0.0, 100.0));
        field!(csv, "{:.2}", rng.float(0.0, 100.0));
        field!(csv, "{:.2}", rng.float(60.0, 100.0));
        field!(csv, "Town{}", rng.int(0, 30));
        field!(csv, "Counselor {}", rng.int(0, 40));
        field!(csv, "remark about student {i}");
        csv.end_row()?;
    }
    csv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(dataset: Dataset, rows: usize, seed: u64) -> Vec<Vec<u8>> {
        // Inside the package's own target/, like everything the benchmark writes.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "target/test-datagen-{}-{}-{rows}-{seed}",
            std::process::id(),
            dataset.name()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dataset.write(&dir, rows, seed).unwrap();
        let out = dataset
            .files()
            .iter()
            .map(|f| std::fs::read(dir.join(f)).unwrap())
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for dataset in Dataset::ALL {
            let a = bytes_of(dataset, 300, 7);
            assert_eq!(a, bytes_of(dataset, 300, 7), "{}", dataset.name());
            assert_ne!(a, bytes_of(dataset, 300, 8), "{}", dataset.name());
        }
    }

    #[test]
    fn rows_and_headers_match_the_workspace_writers() {
        let nyt = bytes_of(Dataset::Nyt, 50, 1);
        let text = String::from_utf8(nyt[0].clone()).unwrap();
        assert_eq!(text.lines().count(), 51);
        assert!(text.lines().all(|l| l.split(',').count() == 22));
        let mov = bytes_of(Dataset::Mov, 40, 1);
        assert_eq!(
            String::from_utf8(mov[0].clone()).unwrap().lines().count(),
            41
        );
        assert_eq!(
            String::from_utf8(mov[1].clone()).unwrap().lines().count(),
            501
        );
    }
}
