//! The golden-table check shared by the simulator snapshot tests.
//!
//! A golden table is a TSV under `tests/golden/`: `#` comment lines, the
//! last of which names the columns, then one row per simulated run. A test
//! computes its rows afresh, formats every cell the way the file stores it
//! and hands the rows to [`Golden::check`], which rewrites the file when
//! `UPDATE_SIM_GOLDEN` is set and otherwise compares each column within
//! its own tolerance. On a mismatch the fresh table and a cell-level diff
//! are written to `target/<artifact>/` (CI uploads that directory) and the
//! test fails.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// How a fresh cell must match the committed one.
#[derive(Clone, Copy, Debug)]
pub enum Tol {
    /// A grid coordinate: must be equal, and in the same row order.
    Key,
    /// `|a − b| ≤ r · max(|a|, |b|)` (plus 1e-12 for zero cells).
    Rel(f64),
    /// `|a − b| ≤ d`.
    Abs(f64),
}

/// One committed table and how to check it.
pub struct Golden {
    /// File name under `tests/golden/`.
    pub file: &'static str,
    /// Directory under `target/` that receives `actual.tsv` and `diff.txt`.
    pub artifact: &'static str,
    /// The command that re-baselines the file after an intentional change.
    pub regen: &'static str,
    /// Column names and tolerances, in file order.
    pub columns: &'static [(&'static str, Tol)],
}

impl Golden {
    fn path(&self) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(self.file)
    }

    /// The committed rows, one string per cell.
    pub fn read(&self) -> Vec<Vec<String>> {
        let text = fs::read_to_string(self.path()).unwrap_or_else(|e| {
            panic!(
                "missing tests/golden/{} ({e}) — run `{}` once",
                self.file, self.regen
            )
        });
        text.lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let cells: Vec<String> = l.split('\t').map(str::to_owned).collect();
                assert_eq!(
                    cells.len(),
                    self.columns.len(),
                    "malformed golden row: {l:?}"
                );
                cells
            })
            .collect()
    }

    /// The file text for `rows`: every line of `preamble` as a `#`
    /// comment, then the column names, then one tab-separated line per row.
    fn render(&self, preamble: &str, rows: &[Vec<String>]) -> String {
        let mut out = String::new();
        for line in preamble.lines() {
            let _ = writeln!(out, "# {line}");
        }
        let names: Vec<&str> = self.columns.iter().map(|(name, _)| *name).collect();
        let _ = writeln!(out, "# {}", names.join("\t"));
        for row in rows {
            let _ = writeln!(out, "{}", row.join("\t"));
        }
        out
    }

    /// Checks `rows`, the whole table computed afresh, against the
    /// committed file, or rewrites the file under `UPDATE_SIM_GOLDEN`.
    #[allow(dead_code)] // a table too slow for debug builds checks it only under `stats`
    pub fn check(&self, preamble: &str, rows: &[Vec<String>]) {
        let text = self.render(preamble, rows);
        if std::env::var("UPDATE_SIM_GOLDEN").is_ok() {
            fs::write(self.path(), &text).expect("write golden");
            eprintln!("golden table rewritten at {:?}", self.path());
            return;
        }
        self.compare(&self.read(), rows, &text);
    }

    /// Checks `rows` against the committed rows that `keep` selects, in
    /// file order. It never rewrites the file: only the whole table can.
    #[allow(dead_code)] // only a test that recomputes part of its table
    pub fn check_subset(&self, rows: &[Vec<String>], keep: impl Fn(&[String]) -> bool) {
        let golden: Vec<Vec<String>> = self.read().into_iter().filter(|r| keep(r)).collect();
        let text = self.render(&format!("subset of tests/golden/{}", self.file), rows);
        self.compare(&golden, rows, &text);
    }

    fn compare(&self, golden: &[Vec<String>], rows: &[Vec<String>], actual_text: &str) {
        assert_eq!(
            golden.len(),
            rows.len(),
            "snapshot grid changed; re-baseline"
        );
        let mut diffs = String::new();
        for (g, a) in golden.iter().zip(rows) {
            let key = |row: &[String]| -> Vec<String> {
                self.columns
                    .iter()
                    .zip(row)
                    .filter(|((_, tol), _)| matches!(tol, Tol::Key))
                    .map(|((name, _), cell)| format!("{name}={cell}"))
                    .collect()
            };
            let label = key(g);
            assert_eq!(label, key(a), "grid order changed; re-baseline");
            let label = label.join(" ");
            for (((name, tol), gc), ac) in self.columns.iter().zip(g).zip(a) {
                let parse = |cell: &String| -> f64 {
                    cell.parse()
                        .unwrap_or_else(|_| panic!("{name}: {cell:?} is not a number"))
                };
                let (gv, av) = match tol {
                    Tol::Key => continue,
                    _ => (parse(gc), parse(ac)),
                };
                let ok = match *tol {
                    Tol::Key => true, // compared through the row label above
                    Tol::Rel(r) => (gv - av).abs() <= r * gv.abs().max(av.abs()) + 1e-12,
                    Tol::Abs(d) => (gv - av).abs() <= d,
                };
                if !ok {
                    let _ = writeln!(
                        diffs,
                        "{label} {name}: golden {gc} vs actual {ac} ({:+.1}%)",
                        100.0 * (av - gv) / gv.abs().max(1e-300)
                    );
                }
            }
        }
        if !diffs.is_empty() {
            let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join(self.artifact);
            fs::create_dir_all(&dir).expect("create the diff directory");
            fs::write(dir.join("actual.tsv"), actual_text).expect("write actual");
            fs::write(dir.join("diff.txt"), &diffs).expect("write diff");
            panic!(
                "tests/golden/{} drifted (full table + diff written to target/{}/):\n{diffs}\n\
                 If the change is intentional, re-baseline with {}",
                self.file, self.artifact, self.regen
            );
        }
    }
}
