//! The one results format of the bench binaries.
//!
//! A binary names each output field once, as a `(key, value)` pair of a
//! [`Row`]. A [`Report`] prints every row as it arrives and renders the
//! same rows as the results file: the CSV of a paper artifact
//! ([`Report::write_csv`]) or the JSON document
//! `{bench, host, config, <tables>, gates, passed}` ([`Report::finish`]).
//! Acceptance gates are declarative `(name, value, op, bound)` checks
//! ([`Gate`]); a failed gate still writes the file, then the process
//! exits 1.

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Instant;

use sias_obs::push_json_string;

/// One value of a results row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent: JSON `null`, `-` in text.
    Null,
    /// A flag.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A measurement, printed with the given number of decimals.
    Num(f64, usize),
    /// A label.
    Str(String),
}

/// `x` printed with `decimals` digits after the point.
pub fn num(x: f64, decimals: usize) -> Value {
    Value::Num(x, decimals)
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Int(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Int(n.into())
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("-"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Num(x, d) => write!(f, "{x:.d$}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl Value {
    /// The value as a number, for gates.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x, _) => Some(*x),
            Value::Null | Value::Bool(_) | Value::Str(_) => None,
        }
    }

    fn push_json(&self, out: &mut String) {
        match self {
            Value::Str(s) => push_json_string(out, s),
            Value::Num(x, _) if !x.is_finite() => out.push_str("null"),
            Value::Null => out.push_str("null"),
            v => out.push_str(&v.to_string()),
        }
    }
}

/// An ordered list of named values: one cell of a table, or a config.
pub type Row = Vec<(&'static str, Value)>;

/// The value of `key` in `row`; panics when the row has none (a
/// misspelt gate input must not read as zero).
pub fn get<'a>(row: &'a Row, key: &str) -> &'a Value {
    row.iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("row has no {key:?}"))
}

/// The numeric value of `key` in `row`; panics when it is not a number.
pub fn field(row: &Row, key: &str) -> f64 {
    get(row, key).as_f64().unwrap_or_else(|| panic!("{key:?} is not a number"))
}

/// One CSV line (no newline) of `row`'s values.
fn csv_line(row: &Row) -> String {
    row.iter().map(|(_, v)| v.to_string()).collect::<Vec<_>>().join(",")
}

fn push_json_object(out: &mut String, row: &Row) {
    out.push('{');
    for (i, (k, v)) in row.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, k);
        out.push_str(": ");
        v.push_json(out);
    }
    out.push('}');
}

/// The comparison a [`Gate`] asserts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `value <= bound`.
    Le,
    /// `value >= bound`.
    Ge,
    /// `value > bound`.
    Gt,
    /// `value == bound`.
    Eq,
}

impl Op {
    fn symbol(self) -> &'static str {
        match self {
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Eq => "==",
        }
    }
}

/// One declarative acceptance check: `value op bound`.
#[derive(Clone, Debug, PartialEq)]
pub struct Gate {
    /// What is checked.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The comparison.
    pub op: Op,
    /// The bound it is compared against.
    pub bound: f64,
    /// The measurement attempt the value comes from (see
    /// [`Report::remeasure`]).
    pub attempt: u32,
}

impl Gate {
    /// The check `value op bound`, from the first attempt.
    pub fn new(name: impl Into<String>, value: f64, op: Op, bound: f64) -> Gate {
        Gate { name: name.into(), value, op, bound, attempt: 1 }
    }

    /// Whether the check holds.
    pub fn passed(&self) -> bool {
        match self.op {
            Op::Le => self.value <= self.bound,
            Op::Ge => self.value >= self.bound,
            Op::Gt => self.value > self.bound,
            Op::Eq => self.value == self.bound,
        }
    }

    fn row(&self) -> Row {
        vec![
            ("name", self.name.clone().into()),
            ("value", num(self.value, 3)),
            ("op", self.op.symbol().into()),
            ("bound", num(self.bound, 3)),
            ("attempt", self.attempt.into()),
            ("passed", self.passed().into()),
        ]
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        write!(
            f,
            "{} = {:.3} (need {} {}) -> {verdict}",
            self.name,
            self.value,
            self.op.symbol(),
            self.bound
        )
    }
}

/// The host a result was measured on.
fn host() -> Row {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    vec![("nproc", nproc.into()), ("profile", profile.into())]
}

/// Width of a printed column: its key, at least 9 characters.
fn width(key: &str) -> usize {
    key.len().max(9)
}

/// The results of one bench run: its config, named tables of rows and
/// acceptance gates.
pub struct Report {
    bench: &'static str,
    /// The run's inputs (the JSON `config` object).
    pub config: Row,
    tables: Vec<(&'static str, Vec<Row>)>,
    gates: Vec<Gate>,
}

impl Report {
    /// Starts the report of `bench` and prints its config.
    pub fn new(bench: &'static str, config: Row) -> Report {
        let line: Vec<String> = config.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{bench}: {}", line.join(" "));
        Report { bench, config, tables: Vec::new(), gates: Vec::new() }
    }

    /// Appends `row` to `table` and prints it, under a header line of
    /// the table's keys when it is the table's first row.
    pub fn row(&mut self, table: &'static str, row: Row) {
        let i = match self.tables.iter().position(|(name, _)| *name == table) {
            Some(i) => i,
            None => {
                let keys: Vec<String> =
                    row.iter().map(|(k, _)| format!("{k:>w$}", w = width(k))).collect();
                println!("\n{table}:\n{}", keys.join(" "));
                self.tables.push((table, Vec::new()));
                self.tables.len() - 1
            }
        };
        let cols: Vec<String> =
            row.iter().map(|(k, v)| format!("{:>w$}", v.to_string(), w = width(k))).collect();
        println!("{}", cols.join(" "));
        self.tables[i].1.push(row);
    }

    /// The rows of `table` so far.
    pub fn rows(&self, table: &str) -> &[Row] {
        self.tables.iter().find(|(name, _)| *name == table).map_or(&[], |(_, rows)| rows)
    }

    /// Adds acceptance gates.
    pub fn gates(&mut self, gates: impl IntoIterator<Item = Gate>) {
        self.gates.extend(gates);
    }

    /// Runs `measure(attempt)` for attempt 1, 2, … until every gate
    /// `gates` derives from its result passes, at most `max_attempts`
    /// times, so that one noisy scheduling hiccup on a shared host does
    /// not fail the run. Keeps the last attempt's gates and returns its
    /// result.
    pub fn remeasure<T>(
        &mut self,
        max_attempts: u32,
        mut measure: impl FnMut(u32) -> T,
        gates: impl Fn(&T) -> Vec<Gate>,
    ) -> T {
        let mut attempt = 1;
        loop {
            let out = measure(attempt);
            let mut checks = gates(&out);
            checks.iter_mut().for_each(|g| g.attempt = attempt);
            let missed: Vec<String> =
                checks.iter().filter(|g| !g.passed()).map(|g| g.to_string()).collect();
            if missed.is_empty() || attempt == max_attempts {
                self.gates(checks);
                return out;
            }
            attempt += 1;
            println!(
                "gate miss ({}), re-measuring (attempt {attempt}/{max_attempts})",
                missed.join("; ")
            );
        }
    }

    /// Whether every gate passed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(Gate::passed)
    }

    /// The JSON results document.
    fn json(&self) -> String {
        let mut out = String::from("{\n  \"bench\": ");
        push_json_string(&mut out, self.bench);
        out.push_str(",\n  \"host\": ");
        push_json_object(&mut out, &host());
        out.push_str(",\n  \"config\": ");
        push_json_object(&mut out, &self.config);
        let gates: (&str, Vec<Row>) = ("gates", self.gates.iter().map(Gate::row).collect());
        for (name, rows) in self.tables.iter().chain([&gates]) {
            out.push_str(",\n  ");
            push_json_string(&mut out, name);
            out.push_str(": [");
            for (i, row) in rows.iter().enumerate() {
                out.push_str(if i == 0 { "\n    " } else { ",\n    " });
                push_json_object(&mut out, row);
            }
            out.push_str(if rows.is_empty() { "]" } else { "\n  ]" });
        }
        out.push_str(&format!(",\n  \"passed\": {}\n}}\n", self.passed()));
        out
    }

    /// Prints the gates and writes the JSON document to `path`; returns
    /// whether every gate passed.
    fn write(&self, path: &Path) -> bool {
        for g in &self.gates {
            println!("gate: {g}");
        }
        println!("wrote {}", write_file(path, &self.json()).display());
        self.passed()
    }

    /// Writes `results/<file>` as JSON, then exits 1 if a gate failed.
    pub fn finish(self, file: &str) {
        if !self.write(&Path::new("results").join(file)) {
            println!(
                "FAIL: {} acceptance gate(s) missed",
                self.gates.iter().filter(|g| !g.passed()).count()
            );
            std::process::exit(1);
        }
    }

    /// Writes the rows of the report's one table to `results/<file>` as
    /// CSV, its keys as the header line.
    pub fn write_csv(&self, file: &str) {
        let rows = self.tables.first().map_or(&[][..], |(_, rows)| rows);
        let mut csv = String::new();
        if let Some(first) = rows.first() {
            csv.push_str(&first.iter().map(|(k, _)| *k).collect::<Vec<_>>().join(","));
            csv.push('\n');
        }
        for row in rows {
            csv.push_str(&csv_line(row));
            csv.push('\n');
        }
        let path = write_file(&Path::new("results").join(file), &csv);
        println!("\nwrote {}", path.display());
    }
}

/// Best-of-`reps` wall time of `f` in nanoseconds, and the last result.
pub fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    let mut best = u128::MAX;
    let mut out = None;
    for _ in 0..reps {
        // The previous result goes before the next timed run.
        drop(out.take());
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_nanos());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

/// Writes `contents` to `path`, creating its directory; the one writer
/// of every results file and dump. Returns the path.
pub fn write_file(path: &Path, contents: &str) -> PathBuf {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create output dir");
    }
    std::fs::write(path, contents).expect("write output file");
    path.to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1_row() -> Row {
        vec![
            ("duration_s", 600u64.into()),
            ("si_mb", num(1557.7749, 2)),
            ("sias_t1_mb", num(399.1389, 2)),
            ("sias_t2_mb", num(164.5688, 2)),
            ("red_t1_pct", num(74.377, 1)),
            ("red_t2_pct", num(89.435, 1)),
            ("si_space_pages", 8707u64.into()),
            ("sias_t2_space_pages", 8657u64.into()),
        ]
    }

    #[test]
    fn table1_row_renders_as_the_paper_csv_line() {
        assert_eq!(csv_line(&table1_row()), "600,1557.77,399.14,164.57,74.4,89.4,8707,8657");
        let mut r = Report::new("table1", Vec::new());
        r.row("rows", table1_row());
        assert_eq!(r.rows("rows").len(), 1);
        assert_eq!(field(&r.rows("rows")[0], "si_space_pages"), 8707.0);
    }

    #[test]
    fn labels_are_escaped_by_the_one_escaper() {
        let mut r = Report::new("escape", vec![("note", "a \"quoted\" \\ path\nnext".into())]);
        r.row("cells", vec![("cell", "x\"y".into()), ("ratio", num(f64::NAN, 2))]);
        let json = r.json();
        assert!(json.contains(r#""note": "a \"quoted\" \\ path\nnext""#), "{json}");
        assert!(json.contains(r#"{"cell": "x\"y", "ratio": null}"#), "{json}");
    }

    #[test]
    fn failed_gate_fails_the_report_and_still_writes_it() {
        let mut r = Report::new("gated", Vec::new());
        r.gates([Gate::new("speedup", 1.2, Op::Ge, 1.5), Gate::new("reclaimed", 3.0, Op::Gt, 0.0)]);
        assert!(!r.passed());
        assert_eq!(r.gates.iter().filter(|g| g.passed()).count(), 1);
        assert!(r.gates[0].to_string().ends_with("FAIL"));
        let path =
            std::env::temp_dir().join(format!("sias_report_gate_{}.json", std::process::id()));
        assert!(!r.write(&path));
        let written = std::fs::read_to_string(&path).expect("file written despite the failed gate");
        std::fs::remove_file(&path).ok();
        assert!(
            written.contains(r#""name": "speedup", "value": 1.200, "op": ">=", "bound": 1.500"#)
        );
        assert!(written.ends_with("\"passed\": false\n}\n"), "{written}");
    }

    #[test]
    fn every_json_document_records_the_host() {
        let json = Report::new("host", Vec::new()).json();
        let nproc: u64 = json
            .split("\"nproc\": ")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .expect("host.nproc")
            .parse()
            .expect("numeric host.nproc");
        assert!(nproc >= 1);
        assert!(json.contains("\"profile\": \""));
    }

    #[test]
    fn remeasure_stops_at_the_first_pass_or_the_limit() {
        let mut r = Report::new("retry", Vec::new());
        let got = r.remeasure(4, |a| a, |&a| vec![Gate::new("attempt", a.into(), Op::Ge, 2.0)]);
        assert_eq!(got, 2);
        assert_eq!(r.gates[0].attempt, 2);
        let mut r = Report::new("retry", Vec::new());
        assert_eq!(r.remeasure(3, |a| a, |_| vec![Gate::new("never", 0.0, Op::Gt, 0.0)]), 3);
        assert!(!r.passed());
    }
}
