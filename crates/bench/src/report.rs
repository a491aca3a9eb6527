//! Result tables: the one artifact writer. A [`Table`] owns an
//! experiment's rows and derives everything that leaves the process from
//! them — the aligned console table, `results/<stem>.csv`, the optional
//! `results/BENCH_<name>.json` trajectory artifact, and the terminal bars
//! — so no two of them can disagree. [`gate`] is the one pass/fail
//! protocol; failures (gates and artifact writes alike) are collected
//! here and turned into the exit code by the driver, *after* every
//! artifact is on disk.

use std::fmt::{Display, Write as _};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Failures recorded by [`gate`] and [`Table::finish`] since process start.
static FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Everything that must turn the driver's exit code non-zero.
pub fn failures() -> Vec<String> {
    FAILURES.lock().expect("failure list poisoned").clone()
}

fn fail(msg: String) {
    FAILURES.lock().expect("failure list poisoned").push(msg);
}

/// The side of `observed` a gate's bound sits on.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    /// Pass when `observed >= bound`.
    AtLeast(f64),
    /// Pass when `observed <= bound`.
    AtMost(f64),
}

/// One evaluated gate, as recorded in a trajectory artifact.
pub struct Gate {
    name: String,
    observed: f64,
    bound: f64,
    pass: bool,
}

/// Evaluate one gate: print its verdict line and, on failure, record it
/// so the driver exits non-zero once the artifacts are written (a failing
/// gate must not hide the numbers that failed it).
pub fn gate(name: &str, observed: f64, bound: Bound) -> Gate {
    let (op, limit, pass) = match bound {
        Bound::AtLeast(b) => (">=", b, observed >= b),
        Bound::AtMost(b) => ("<=", b, observed <= b),
    };
    let verdict = if pass { "ok" } else { "FAILED" };
    println!("  gate {name}: {observed:.2} (need {op} {limit}) — {verdict}");
    if !pass {
        fail(format!("gate {name}: {observed} is not {op} {limit}"));
    }
    Gate {
        name: name.to_string(),
        observed,
        bound: limit,
        pass,
    }
}

/// A result table and everything written from it.
pub struct Table {
    stem: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    bench: Option<&'static str>,
    meta: Vec<(String, String)>,
    headline: Vec<(String, String)>,
    gates: Vec<Gate>,
}

impl Table {
    /// Create a table called `stem` (also the CSV file stem) with columns.
    pub fn new(stem: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            stem: stem.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            bench: None,
            meta: Vec::new(),
            headline: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Also write `results/BENCH_<name>.json` on [`Table::finish`].
    pub fn trajectory(mut self, name: &'static str) -> Table {
        self.bench = Some(name);
        self
    }

    /// Record a sweep parameter in the trajectory artifact's `meta`.
    pub fn meta(&mut self, key: &str, value: impl Display) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Record a derived headline number in the trajectory artifact.
    pub fn headline(&mut self, key: &str, value: impl Display) {
        self.headline.push((key.to_string(), value.to_string()));
    }

    /// Evaluate a [`gate`] and record it in the trajectory artifact.
    pub fn gate(&mut self, name: &str, observed: f64, bound: Bound) {
        self.gates.push(gate(name, observed, bound));
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.headers.len(), "row/header mismatch");
        self.rows
            .push(cells.iter().map(|c| format!("{c}")).collect());
    }

    /// Print to stdout with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.stem);
        let line = |cells: &[String]| {
            let cols: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cols.join("  "));
        };
        line(&self.headers);
        line(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<String>>(),
        );
        for r in &self.rows {
            line(r);
        }
    }

    fn col(&self, name: &str) -> usize {
        self.headers
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.stem))
    }

    /// Render grouped horizontal bars from the table's own rows: one group
    /// per distinct `group_col` cell, one bar per distinct `series_col`
    /// cell, bar length from `value_col`, scaled to the global maximum. A
    /// lightweight stand-in for the paper's figures in a terminal.
    pub fn bars(&self, title: &str, group_col: &str, series_col: &str, value_col: &str) {
        let (g, s, v) = (
            self.col(group_col),
            self.col(series_col),
            self.col(value_col),
        );
        let value = |r: &Vec<String>| r[v].parse::<f64>().unwrap_or(0.0);
        let max = self.rows.iter().map(value).fold(1e-12f64, f64::max);
        let width_of = |c: usize| self.rows.iter().map(|r| r[c].len()).max().unwrap_or(0);
        let (group_w, name_w) = (width_of(g), width_of(s));
        const WIDTH: usize = 46;
        println!("\n-- {title} --");
        let mut last_group = None;
        for r in &self.rows {
            let group = if last_group == Some(&r[g]) { "" } else { &r[g] };
            last_group = Some(&r[g]);
            let n = ((value(r) / max) * WIDTH as f64).round() as usize;
            println!(
                "  {group:>group_w$}  {:<name_w$} |{}{} {:.1}",
                r[s],
                "#".repeat(n),
                " ".repeat(WIDTH - n.min(WIDTH)),
                value(r),
            );
        }
    }

    fn csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }

    /// The trajectory artifact: one schema for every bench. Cells are the
    /// CSV's own strings (unquoted when they are JSON numbers), so the two
    /// files cannot drift.
    fn json(&self, bench: &str) -> String {
        let object = |pairs: &[(String, String)]| {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", json_string(k), json_cell(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        };
        let list = |items: Vec<String>| {
            if items.is_empty() {
                "[]".to_string()
            } else {
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
        };
        let array = |cells: &[String]| {
            let body: Vec<String> = cells.iter().map(|c| json_cell(c)).collect();
            format!("[{}]", body.join(", "))
        };
        let gates = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "{{\"name\": {}, \"observed\": {}, \"bound\": {}, \"pass\": {}}}",
                    json_string(&g.name),
                    json_f64(g.observed),
                    json_f64(g.bound),
                    g.pass
                )
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"bench\": {},", json_string(bench));
        let _ = writeln!(out, "  \"meta\": {},", object(&self.meta));
        let _ = writeln!(out, "  \"headline\": {},", object(&self.headline));
        let _ = writeln!(out, "  \"gates\": {},", list(gates));
        let _ = writeln!(out, "  \"columns\": {},", array(&self.headers));
        let rows = self.rows.iter().map(|r| array(r)).collect();
        let _ = writeln!(out, "  \"rows\": {}\n}}", list(rows));
        out
    }

    /// Write every artifact this table owns into `dir`; the error names
    /// the file that could not be written.
    pub fn write_into(&self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        let mut files = vec![(dir.join(format!("{}.csv", self.stem)), self.csv())];
        if let Some(bench) = self.bench {
            files.push((dir.join(format!("BENCH_{bench}.json")), self.json(bench)));
        }
        let mut written = Vec::new();
        for (path, body) in files {
            fs::create_dir_all(dir)
                .and_then(|()| fs::write(&path, body))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            written.push(path);
        }
        Ok(written)
    }

    /// Print the table and write its artifacts under [`results_dir`]. A
    /// write failure is recorded as a driver failure: CI diffs `results/`
    /// next, and a swallowed error would compare the stale committed file
    /// with itself and pass.
    pub fn finish(&self) {
        self.print();
        match self.write_into(&results_dir()) {
            Ok(paths) => paths.iter().for_each(|p| println!("  -> {}", p.display())),
            Err(e) => {
                eprintln!("  error: {e}");
                fail(e);
            }
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no `inf`/`NaN`: a non-finite observation becomes `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A table cell as a JSON value: verbatim when it is a JSON number
/// (`-?int[.frac][e[+-]exp]` — stricter than `f64::from_str`, which also
/// takes `inf`, `+1` and `.5`), a quoted string otherwise.
fn json_cell(s: &str) -> String {
    let digits = |b: &[u8]| b.iter().take_while(|c| c.is_ascii_digit()).count();
    let b = s.as_bytes();
    let mut i = usize::from(b.first() == Some(&b'-'));
    let int = digits(&b[i..]);
    let mut ok = int > 0 && (int == 1 || b[i] != b'0');
    i += int;
    if ok && b.get(i) == Some(&b'.') {
        let frac = digits(&b[i + 1..]);
        ok = frac > 0;
        i += 1 + frac;
    }
    if ok && matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1 + usize::from(matches!(b.get(i + 1), Some(b'+' | b'-')));
        let exp = digits(&b[i..]);
        ok = exp > 0;
        i += exp;
    }
    if ok && i == b.len() {
        s.to_string()
    } else {
        json_string(s)
    }
}

/// The `results/` directory (repo root when run via cargo, else cwd).
pub fn results_dir() -> PathBuf {
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Format a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Human-friendly size label (4096 -> "4K").
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1024 {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new("unit_test_table", &["a", "bbbb"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &f2(1.5)]);
        t.print();
        let dir = std::env::temp_dir().join(format!("bench-report-{}", std::process::id()));
        let written = t.write_into(&dir).unwrap();
        assert_eq!(written, [dir.join("unit_test_table.csv")]);
        let body = fs::read_to_string(&written[0]).unwrap();
        assert_eq!(body, "a,bbbb\n1,x\n22,1.50\n");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn only_json_numbers_go_unquoted() {
        for n in ["0", "-0", "12", "1.50", "-3.25", "1e9", "2.5E-3", "1e+2"] {
            assert_eq!(json_cell(n), n);
        }
        for s in [
            "", "-", "01", "1.", ".5", "+1", "inf", "NaN", "1e", "4K", "1.5us", "1 ",
        ] {
            assert_eq!(json_cell(s), format!("\"{s}\""), "{s:?} must be quoted");
        }
    }

    #[test]
    fn bars_render_without_panicking() {
        let mut t = Table::new("t", &["size", "system", "krps"]);
        for size in ["4K", "8K"] {
            for (sys, v) in [("eRPC", 10.0), ("DmRPC", 30.0)] {
                t.row(&[&size, &sys, &f2(v)]);
            }
        }
        t.bars("demo", "size", "system", "krps");
        // Degenerate inputs.
        Table::new("empty", &["a", "b", "c"]).bars("empty", "a", "b", "c");
        let mut z = Table::new("zeros", &["a", "b", "c"]);
        z.row(&[&"x", &"s", &"n/a"]);
        z.bars("zeros", "a", "b", "c");
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(512), "512B");
        assert_eq!(size_label(4096), "4K");
        assert_eq!(size_label(1 << 20), "1M");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", &["a"]);
        t.row(&[&1, &2]);
    }
}
