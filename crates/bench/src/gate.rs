//! The engine bench's JSON schema and the CI perf-regression gate over it.
//!
//! `bench_engine` writes one object: `{"bench", "mode", "cores", "rows"}`.
//! `cores` is the machine's available parallelism, and `rows` is one flat
//! array of self-describing [`Row`]s: `{"section": …, "key": …, metric:
//! value, …}`, each metric a number or a boolean. [`check`] matches the
//! current run's rows to the reference's by `(section, key)` and picks the
//! rule for each metric from its name alone:
//!
//! | metric name               | rule                                          |
//! |---------------------------|-----------------------------------------------|
//! | `*_identical`, `*_ok`     | must be `true` on the current run             |
//! | `*_ratio`                 | finite and positive; `cur ≥ ref / max_regress` |
//! | `*_bits`, `messages`      | must equal the reference exactly              |
//! | anything else             | informational (`*_secs`, `*_per_sec`, `*_iqr`, counts, estimates) |
//!
//! Correctness bits are deterministic at any machine speed, so the
//! reference is not consulted for them. Ratios are within-run (both sides
//! timed on the same machine, interleaved), so runner speed cancels while a
//! real regression still collapses them. Bit accounting is a function of
//! the protocol alone, so any change to it is a change to the schedule.
//! Rows that carry a `threads` field time a multi-threaded run: their
//! ratios are compared only when both files report the same `cores`.
//!
//! A row or metric present in only one file is skipped, so adding a
//! workload never needs an edit here. Malformed input fails the gate with a
//! message naming the row: a field that does not parse, a duplicate
//! `(section, key)`, a file without `rows`, or a ratio that is not finite
//! and positive.
//!
//! The parser reads exactly what [`Bench::to_json`] writes (flat rows,
//! plain-text keys, no escapes): the workspace builds offline, and a
//! vendored full JSON parser would be all cost and no coverage.

use crate::timing::Spread;
use std::collections::BTreeSet;
use std::fmt;

/// One metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A number: a ratio, a count, a time.
    Num(f64),
    /// A correctness bit.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Bool(b) => write!(f, "{b}"),
            // Four significant digits below 1000, whole numbers above;
            // non-finite values print as `NaN` / `inf` so the gate can
            // reject them.
            Value::Num(v) if !v.is_finite() || v == 0.0 || v.abs() >= 1000.0 => {
                write!(f, "{v:.0}")
            }
            Value::Num(v) => {
                let decimals = (3.0 - v.abs().log10().floor()).clamp(0.0, 15.0) as usize;
                let s = format!("{v:.decimals$}");
                f.write_str(s.trim_end_matches('0').trim_end_matches('.'))
            }
        }
    }
}

/// One self-describing bench row: its identity and its metrics, in
/// emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload that emitted the row.
    pub section: String,
    /// The row's identity within its section (`cycle/n=64`, `k2/t=4`, …).
    pub key: String,
    /// The metrics, by name.
    pub metrics: Vec<(String, Value)>,
}

impl Row {
    /// An empty row.
    ///
    /// # Panics
    ///
    /// Panics if `section` or `key` contains a JSON delimiter.
    #[must_use]
    pub fn new(section: &str, key: impl Into<String>) -> Self {
        let key = key.into();
        assert!(
            !format!("{section}{key}").contains(['"', ',', ':', '{', '}', '[', ']', '\\']),
            "section and key are plain text: {section}/{key}"
        );
        Self {
            section: section.into(),
            key,
            metrics: Vec::new(),
        }
    }

    /// Adds a numeric metric.
    #[must_use]
    pub fn num(mut self, name: &str, value: f64) -> Self {
        self.metrics.push((name.into(), Value::Num(value)));
        self
    }

    /// Adds a count.
    #[must_use]
    pub fn count(self, name: &str, value: usize) -> Self {
        self.num(name, value as f64)
    }

    /// Adds a correctness bit.
    #[must_use]
    pub fn bool(mut self, name: &str, value: bool) -> Self {
        self.metrics.push((name.into(), Value::Bool(value)));
        self
    }

    /// Adds a timed metric: `name` holds the median, `name_iqr` the spread.
    #[must_use]
    pub fn spread(self, name: &str, spread: Spread) -> Self {
        self.num(name, spread.median)
            .num(&format!("{name}_iqr"), spread.iqr)
    }

    /// The metric called `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Value> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// `section/key`, as failures name the row.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{}/{}", self.section, self.key)
    }

    /// The row as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"section\": \"{}\", \"key\": \"{}\"",
            self.section, self.key
        );
        for (name, value) in &self.metrics {
            out.push_str(&format!(", \"{name}\": {value}"));
        }
        out.push('}');
        out
    }

    /// Parses the body of one `{…}` object; `index` names the row until its
    /// `section` and `key` are known.
    fn parse(body: &str, index: usize) -> Result<Self, String> {
        let fields: Vec<(&str, &str)> = body
            .split(',')
            .map(|field| {
                let (name, value) = field.split_once(':').unwrap_or((field, ""));
                (name.trim().trim_matches('"'), value.trim())
            })
            .collect();
        let text = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| v.strip_prefix('"')?.strip_suffix('"'))
        };
        let (Some(section), Some(key)) = (text("section"), text("key")) else {
            return Err(format!("row {index} has no string `section` and `key`"));
        };
        let mut row = Row::new(section, key);
        for (name, raw) in fields {
            if name == "section" || name == "key" {
                continue;
            }
            let value = match raw {
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                _ => Value::Num(raw.parse().map_err(|_| {
                    format!("{}: field `{name}` has unparseable value `{raw}`", row.id())
                })?),
            };
            if row.get(name).is_some() {
                return Err(format!("{}: duplicate field `{name}`", row.id()));
            }
            row.metrics.push((name.into(), value));
        }
        Ok(row)
    }
}

/// One bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// `full` or `smoke`.
    pub mode: String,
    /// The available parallelism of the machine that ran it.
    pub cores: Option<usize>,
    /// Every row, in emission order.
    pub rows: Vec<Row>,
}

impl Bench {
    /// The file as written to disk: one row per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"bench\": \"engine\",\n  \"mode\": \"{}\",\n",
            self.mode
        );
        if let Some(cores) = self.cores {
            out.push_str(&format!("  \"cores\": {cores},\n"));
        }
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if i + 1 == self.rows.len() { "" } else { "," };
            out.push_str(&format!("    {}{sep}\n", row.to_json()));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a file written by [`Bench::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem (and the row, where there is
    /// one) if the file has no `rows` array, a row or field does not parse,
    /// or two rows share a `(section, key)`.
    pub fn parse(json: &str) -> Result<Self, String> {
        let at = json.find("\"rows\"").ok_or("no `rows` array")?;
        let header = &json[..at];
        let top = |name: &str| {
            let rest = &header[header.find(&format!("\"{name}\""))? + name.len() + 2..];
            let value = rest.trim_start().strip_prefix(':')?.trim_start();
            Some(&value[..value.find([',', '\n', '}']).unwrap_or(value.len())])
        };
        let mode = top("mode")
            .unwrap_or("")
            .trim()
            .trim_matches('"')
            .to_string();
        let cores = top("cores")
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("unparseable `cores`: {v}"))
            })
            .transpose()?;
        let body = json[at + "\"rows\"".len()..]
            .trim_start()
            .strip_prefix(':')
            .and_then(|rest| rest.trim_start().strip_prefix('['))
            .ok_or("`rows` is not an array")?;
        let body = &body[..body.find(']').ok_or("unterminated `rows` array")?];
        let mut rows = Vec::new();
        let mut seen = BTreeSet::new();
        for chunk in body.split_inclusive('}') {
            let chunk = chunk.trim_start_matches(|c: char| c == ',' || c.is_whitespace());
            if chunk.is_empty() {
                continue;
            }
            let inner = chunk
                .strip_prefix('{')
                .and_then(|c| c.strip_suffix('}'))
                .ok_or_else(|| format!("row {} is not a flat object: {chunk}", rows.len()))?;
            let row = Row::parse(inner, rows.len())?;
            if !seen.insert((row.section.clone(), row.key.clone())) {
                return Err(format!("duplicate row {}", row.id()));
            }
            rows.push(row);
        }
        Ok(Self { mode, cores, rows })
    }
}

/// How the gate treats a metric, chosen by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// `*_identical`, `*_ok`: must be true.
    Holds,
    /// `*_ratio`: compared relatively against the reference.
    Ratio,
    /// `*_bits`, `messages`: must equal the reference.
    Exact,
    /// Recorded, never compared.
    Info,
}

impl Rule {
    fn of(metric: &str) -> Self {
        if metric.ends_with("_identical") || metric.ends_with("_ok") {
            Rule::Holds
        } else if metric.ends_with("_ratio") {
            Rule::Ratio
        } else if metric.ends_with("_bits") || metric == "messages" {
            Rule::Exact
        } else {
            Rule::Info
        }
    }
}

/// The outcome of one gate run.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// `*_ratio` metrics compared against the reference.
    pub ratios: usize,
    /// `*_bits` and `messages` metrics compared against the reference.
    pub exact: usize,
    /// Correctness bits checked on the current run.
    pub holds: usize,
    /// Human-readable failures; empty means the gate passes.
    pub failures: Vec<String>,
}

impl GateReport {
    /// Every check made.
    #[must_use]
    pub fn checks(&self) -> usize {
        self.ratios + self.exact + self.holds
    }

    /// Whether the build should pass.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Whether `v` is a usable ratio.
fn finite_positive(v: Value) -> Option<f64> {
    match v {
        Value::Num(x) if x.is_finite() && x > 0.0 => Some(x),
        _ => None,
    }
}

/// Checks `current` (a fresh run) against `reference` (the committed
/// file) under the rules in the module docs. The `bench_gate` binary turns
/// a non-empty failure list into a non-zero exit.
///
/// # Panics
///
/// Panics if `max_regress` is not a positive finite number.
#[must_use]
pub fn check(current: &str, reference: &str, max_regress: f64) -> GateReport {
    assert!(
        max_regress.is_finite() && max_regress > 0.0,
        "max_regress must be positive"
    );
    let mut report = GateReport::default();
    let (cur, old) = match (Bench::parse(current), Bench::parse(reference)) {
        (Ok(cur), Ok(old)) => (cur, old),
        (cur, old) => {
            for (file, result) in [("current", cur), ("reference", old)] {
                if let Err(e) = result {
                    report.failures.push(format!("{file}: {e}"));
                }
            }
            return report;
        }
    };
    let same_cores = cur.cores.is_some() && cur.cores == old.cores;
    for row in &cur.rows {
        let id = row.id();
        let old_row = old
            .rows
            .iter()
            .find(|r| r.section == row.section && r.key == row.key);
        let threaded = row.get("threads").is_some();
        for (metric, value) in &row.metrics {
            let old_value = old_row.and_then(|r| r.get(metric));
            let mut fail = |what: String| report.failures.push(format!("{id} {metric}: {what}"));
            match Rule::of(metric) {
                Rule::Holds => {
                    report.holds += 1;
                    if *value != Value::Bool(true) {
                        fail(format!("is {value}, must be true"));
                    }
                }
                Rule::Ratio => {
                    let Some(c) = finite_positive(*value) else {
                        fail(format!("{value} is not a finite positive ratio"));
                        continue;
                    };
                    let Some(old_value) = old_value else { continue };
                    if threaded && !same_cores {
                        continue;
                    }
                    let Some(r) = finite_positive(old_value) else {
                        fail(format!(
                            "reference {old_value} is not a finite positive ratio"
                        ));
                        continue;
                    };
                    report.ratios += 1;
                    if c < r / max_regress {
                        fail(format!(
                            "{value} is more than {max_regress}x below reference {old_value}"
                        ));
                    }
                }
                Rule::Exact => {
                    let Some(old_value) = old_value else { continue };
                    report.exact += 1;
                    if !matches!(value, Value::Num(_)) || *value != old_value {
                        fail(format!("{value} differs from reference {old_value}"));
                    }
                }
                Rule::Info => {}
            }
        }
    }
    if report.ratios + report.exact == 0 {
        report
            .failures
            .push("no comparable metrics found — wrong file, or schema drift".into());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(cores: usize, rows: &[Row]) -> String {
        Bench {
            mode: "smoke".into(),
            cores: Some(cores),
            rows: rows.to_vec(),
        }
        .to_json()
    }

    /// A round-matrix row and a compiled acceptance row: four ratios and
    /// one correctness bit.
    fn sample(rand_ratio: f64, prepared: f64, batched: Option<f64>, identical: bool) -> Vec<Row> {
        let matrix = Row::new("round_matrix", "cycle/n=64")
            .num("det_vs_baseline_ratio", 20.8)
            .num("rand_vs_baseline_ratio", rand_ratio)
            .num("det_rounds_per_sec", 1_000_000.0)
            .num("baseline_rounds_per_sec", 48_000.0);
        let mut acc = Row::new("acceptance", "compiled")
            .count("trials", 1000)
            .num("prepared_ratio", prepared)
            .num("prepared_trial_secs", 0.0001)
            .bool("estimates_identical", identical);
        if let Some(b) = batched {
            acc = acc.num("batched_ratio", b);
        }
        vec![matrix, acc]
    }

    fn base() -> Vec<Row> {
        sample(6.25, 20.0, Some(50.0), true)
    }

    fn with(mut rows: Vec<Row>, extra: impl IntoIterator<Item = Row>) -> Vec<Row> {
        rows.extend(extra);
        rows
    }

    fn gate(cur: &[Row], reference: &[Row]) -> GateReport {
        check(&json(2, cur), &json(2, reference), 2.0)
    }

    /// Asserts that the sample plus `extra`, gated against itself, fails
    /// exactly once, on `what` (`"key metric"`).
    fn fails_on(extra: impl IntoIterator<Item = Row>, what: &str) {
        let rows = with(base(), extra);
        let report = gate(&rows, &rows);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains(what), "{:?}", report.failures);
    }

    /// The keys of the rows after the sample's two, read back from disk.
    fn keys(rows: &[Row]) -> Vec<String> {
        let parsed = Bench::parse(&json(2, rows)).expect("parses");
        parsed.rows[2..].iter().map(|r| r.key.clone()).collect()
    }

    #[test]
    fn identical_files_pass() {
        let report = gate(&base(), &base());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!((report.ratios, report.exact, report.holds), (4, 0, 1));
    }

    #[test]
    fn small_regressions_within_tolerance_pass() {
        let cur = sample(3.4, 11.0, Some(26.0), true);
        assert!(gate(&cur, &base()).passed());
    }

    #[test]
    fn throughput_collapse_fails() {
        let report = gate(&sample(2.0, 20.0, Some(50.0), true), &base());
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("round_matrix/cycle/n=64 rand_vs_baseline_ratio"));
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        // A runner 3x slower on every side keeps every within-run ratio;
        // only the raw times move, and they are informational.
        let slow: Vec<Row> = base()
            .into_iter()
            .map(|mut row| {
                for (name, value) in &mut row.metrics {
                    if let Value::Num(v) = value {
                        if name.ends_with("_per_sec") {
                            *v /= 3.0;
                        } else if name.ends_with("_secs") {
                            *v *= 3.0;
                        }
                    }
                }
                row
            })
            .collect();
        assert_ne!(slow, base());
        let report = gate(&slow, &base());
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn speedup_collapse_fails() {
        let report = gate(&sample(6.25, 5.0, Some(10.0), true), &base());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
    }

    #[test]
    fn metric_missing_from_reference_is_skipped() {
        let report = gate(&base(), &sample(6.25, 20.0, None, true));
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.ratios, 3);
    }

    fn sweep(amortized: f64, identical: bool) -> Row {
        Row::new("adversary_sweep", "cycle256/labelings=64")
            .num("prep_amortized_ratio", amortized)
            .bool("estimates_identical", identical)
    }

    #[test]
    fn sweep_amortization_collapse_fails() {
        let reference = with(base(), [sweep(8.0, true)]);
        assert!(gate(&with(base(), [sweep(4.5, true)]), &reference).passed());
        let report = gate(&with(base(), [sweep(1.1, true)]), &reference);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("adversary_sweep/cycle256/labelings=64"));
        assert!(report.failures[0].contains("prep_amortized_ratio"));
    }

    #[test]
    fn sweep_row_missing_from_reference_is_skipped() {
        let report = gate(&with(base(), [sweep(9.0, true)]), &base());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.ratios, 4);
    }

    #[test]
    fn sweep_estimate_divergence_fails_regardless_of_speed() {
        fails_on(
            [sweep(50.0, false)],
            "cycle256/labelings=64 estimates_identical",
        );
    }

    #[test]
    fn diverged_estimates_fail_regardless_of_speed() {
        let rows = sample(6.25, 20.0, Some(50.0), false);
        let report = gate(&rows, &rows);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("acceptance/compiled estimates_identical"));
    }

    #[test]
    fn empty_current_file_fails_loudly() {
        let reference = json(2, &base());
        for empty in ["", "{}", "{\"rows\": []}", "{\"rows\": [\n  ]\n}"] {
            let report = check(empty, &reference, 2.0);
            assert!(!report.passed(), "{empty:?} must fail");
        }
        assert!(check("{}", &reference, 2.0).failures[0].contains("current: no `rows`"));
    }

    fn tradeoff(t: usize, round_bits: usize, shrink: f64, t1_identical: bool) -> Row {
        let row = Row::new("tradeoff", format!("exchange_spanning_tree/t={t}"))
            .count("max_round_bits", round_bits)
            .count("total_bits", 49152)
            .num("bits_shrink_ratio", shrink)
            .bool("complete_ok", true);
        if t == 1 {
            row.bool("t1_identical", t1_identical)
        } else {
            row
        }
    }

    fn tradeoff_rows(round_bits_t16: usize, shrink_t16: f64, t1_identical: bool) -> Vec<Row> {
        with(
            base(),
            [
                tradeoff(1, 96, 1.0, t1_identical),
                tradeoff(16, round_bits_t16, shrink_t16, true),
            ],
        )
    }

    #[test]
    fn tradeoff_rows_are_keyed_by_scheme_and_t() {
        let keys = keys(&tradeoff_rows(6, 16.0, true));
        assert_eq!(
            keys,
            ["exchange_spanning_tree/t=1", "exchange_spanning_tree/t=16"]
        );
        // Each row is compared with its own reference row: a change at
        // t = 16 names t = 16 only.
        let report = gate(&tradeoff_rows(7, 16.0, true), &tradeoff_rows(6, 16.0, true));
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("t=16 max_round_bits"));
    }

    #[test]
    fn tradeoff_bits_shrink_collapse_fails() {
        let reference = tradeoff_rows(6, 16.0, true);
        assert!(gate(&tradeoff_rows(6, 9.0, true), &reference).passed());
        let report = gate(&tradeoff_rows(6, 1.0, true), &reference);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("t=16 bits_shrink_ratio"));
    }

    #[test]
    fn tradeoff_t1_divergence_fails_regardless_of_speed() {
        let rows = tradeoff_rows(6, 16.0, false);
        fails_on(rows[2..].to_vec(), "t=1 t1_identical");
    }

    #[test]
    fn tradeoff_missing_from_reference_is_skipped() {
        let report = gate(&tradeoff_rows(6, 16.0, true), &base());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!((report.ratios, report.exact), (4, 0));
    }

    #[test]
    fn tradeoff_and_pattern_bits_are_exact() {
        // A one-bit change anywhere in the bit accounting fails, however
        // small next to a 2x tolerance.
        let reference = with(tradeoff_rows(6, 16.0, true), patterns(true, true));
        assert!(gate(&reference, &reference).passed());
        let mut cur = reference.clone();
        for (i, metric) in [(3, "total_bits"), (4, "max_round_bits"), (5, "messages")] {
            let (_, value) = cur[i]
                .metrics
                .iter_mut()
                .find(|(n, _)| n == metric)
                .expect("metric present");
            let Value::Num(v) = value else {
                panic!("numeric")
            };
            *v += 1.0;
        }
        let report = gate(&cur, &reference);
        assert_eq!(report.failures.len(), 3, "{:?}", report.failures);
        assert!(report.failures[0].contains("t=16 total_bits: 49153 differs"));
        assert!(report.failures[1].contains("patterns/cycle256/per_port max_round_bits"));
        assert!(report.failures[2].contains("patterns/cycle256/unicast messages"));
    }

    #[test]
    fn real_schema_round_trips() {
        // The committed reference must parse, re-render byte for byte (the
        // emitter and the parser agree), and pass against itself.
        let text = include_str!("../../../BENCH_engine.json");
        let bench = Bench::parse(text).expect("committed reference parses");
        assert_eq!(bench.to_json(), text);
        assert_eq!(bench.mode, "full");
        assert!(bench.cores.is_some_and(|c| c > 0));
        let report = check(text, text, 2.0);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.checks() >= 65, "{report:?}");
    }

    fn faults(zero_identical: bool, sound: bool) -> [Row; 2] {
        [
            Row::new("faults", "none/rate=0")
                .num("honest_acceptance", 1.0)
                .bool("soundness_ok", true)
                .bool("zero_fault_identical", zero_identical),
            Row::new("faults", "drop/rate=0.005")
                .num("honest_acceptance", 0.0771)
                .bool("soundness_ok", sound),
        ]
    }

    #[test]
    fn fault_rows_are_keyed_by_kind_and_rate() {
        let rows = with(base(), faults(true, true));
        assert_eq!(keys(&rows), ["none/rate=0", "drop/rate=0.005"]);
        // A healthy file passes against itself and against a reference
        // without the section.
        assert!(gate(&rows, &rows).passed());
        assert!(gate(&rows, &base()).passed());
    }

    #[test]
    fn zero_fault_divergence_fails_regardless_of_speed() {
        fails_on(faults(false, true), "none/rate=0 zero_fault_identical");
    }

    #[test]
    fn soundness_break_fails_regardless_of_speed() {
        fails_on(faults(true, false), "drop/rate=0.005 soundness_ok");
    }

    fn patterns(per_port_identical: bool, unicast_ok: bool) -> [Row; 3] {
        let row = |pattern: &str, messages: usize, round_bits: usize, total_bits: usize| {
            Row::new("patterns", format!("cycle256/{pattern}"))
                .count("messages", messages)
                .count("max_round_bits", round_bits)
                .count("total_bits", total_bits)
                .bool("complete_ok", true)
        };
        [
            row("per_port", 2, 14, 7168).bool("per_port_identical", per_port_identical),
            row("unicast", 2, 7, 3584).bool("unicast_undercuts_ok", unicast_ok),
            row("broadcast", 1, 14, 3584),
        ]
    }

    #[test]
    fn pattern_rows_are_keyed_by_graph_and_pattern() {
        let rows = with(base(), patterns(true, true));
        let keys = keys(&rows);
        assert_eq!(
            keys,
            [
                "cycle256/per_port",
                "cycle256/unicast",
                "cycle256/broadcast"
            ]
        );
        assert!(gate(&rows, &rows).passed());
        assert!(gate(&rows, &base()).passed());
    }

    #[test]
    fn per_port_divergence_fails_regardless_of_speed() {
        fails_on(
            patterns(false, true),
            "cycle256/per_port per_port_identical",
        );
    }

    #[test]
    fn unicast_bit_inflation_fails_regardless_of_speed() {
        // Unicast accounting no fewer bits than per-port means the
        // half-width message was lost somewhere.
        fails_on(
            patterns(true, false),
            "cycle256/unicast unicast_undercuts_ok",
        );
    }

    fn service(identical: bool, hit_ok: bool) -> Row {
        Row::new("service", "mixed_tenants")
            .num("jobs_per_sec", 45.2)
            .num("cache_hit_rate", if hit_ok { 0.85 } else { 0.0 })
            .bool("verdicts_identical", identical)
            .bool("cache_hit_ok", hit_ok)
    }

    fn chaos(replay: bool, accounting: bool) -> Row {
        Row::new("service", "service_chaos")
            .count("attempts", 9)
            .bool("verdicts_identical", true)
            .bool("replay_identical", replay)
            .bool("shed_accounting_ok", accounting)
    }

    #[test]
    fn service_rows_are_keyed_by_workload() {
        let rows = with(base(), [service(true, true)]);
        assert_eq!(keys(&rows), ["mixed_tenants"]);
        assert!(gate(&rows, &rows).passed());
        assert!(gate(&rows, &base()).passed());
    }

    #[test]
    fn service_verdict_divergence_fails_regardless_of_speed() {
        fails_on([service(false, true)], "mixed_tenants verdicts_identical");
    }

    #[test]
    fn service_zero_hit_rate_fails_regardless_of_speed() {
        fails_on([service(true, false)], "mixed_tenants cache_hit_ok");
    }

    #[test]
    fn chaos_row_is_keyed_by_workload_and_healthy_bits_pass() {
        let rows = with(base(), [service(true, true), chaos(true, true)]);
        assert_eq!(keys(&rows), ["mixed_tenants", "service_chaos"]);
        let report = gate(&rows, &base());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.holds, 1 + 2 + 3);
    }

    #[test]
    fn chaos_replay_divergence_fails_regardless_of_speed() {
        fails_on([chaos(false, true)], "service_chaos replay_identical");
    }

    #[test]
    fn chaos_accounting_break_fails_regardless_of_speed() {
        fails_on([chaos(true, false)], "service_chaos shed_accounting_ok");
    }

    fn scale(dense_ratio: f64, dense_ok: bool, scaling: f64, par_identical: bool) -> [Row; 3] {
        [
            Row::new("scale", "sparse_random").num("ports_per_sec", 6_553_280.0),
            Row::new("scale", "clique_sketched")
                .num("dense_vs_sparse_ratio", dense_ratio)
                .bool("dense_within_2x_ok", dense_ok),
            Row::new("scale", "thread_scaling_2")
                .count("threads", 2)
                .num("thread_scaling_ratio", scaling)
                .bool("par_identical", par_identical),
        ]
    }

    #[test]
    fn scale_rows_are_keyed_by_workload() {
        let rows = with(base(), scale(3.2, true, 1.6, true));
        let keys = keys(&rows);
        assert_eq!(
            keys,
            ["sparse_random", "clique_sketched", "thread_scaling_2"]
        );
        assert!(gate(&rows, &rows).passed());
        assert!(gate(&rows, &base()).passed());
    }

    #[test]
    fn thread_scaling_collapse_fails() {
        let reference = with(base(), scale(3.2, true, 1.9, true));
        assert!(gate(&with(base(), scale(3.2, true, 1.0, true)), &reference).passed());
        let report = gate(&with(base(), scale(3.2, true, 0.9, true)), &reference);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("thread_scaling_ratio"));
    }

    #[test]
    fn dense_ratio_collapse_fails() {
        let reference = with(base(), scale(3.2, true, 1.6, true));
        let report = gate(&with(base(), scale(0.9, true, 1.6, true)), &reference);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("dense_vs_sparse_ratio"));
    }

    #[test]
    fn par_divergence_fails_regardless_of_speed() {
        fails_on(
            scale(3.2, true, 1.6, false),
            "thread_scaling_2 par_identical",
        );
    }

    #[test]
    fn dense_cliff_bit_fails_regardless_of_speed() {
        fails_on(
            scale(3.2, false, 1.6, true),
            "clique_sketched dense_within_2x_ok",
        );
    }

    #[test]
    fn other_cores_skip_only_thread_scaling_ratios() {
        let reference = with(base(), scale(3.2, true, 1.9, true));
        // A collapsed scaling ratio from a machine with other cores is not
        // compared; everything else still is.
        let cur = with(base(), scale(0.4, true, 0.5, false));
        let report = check(&json(2, &cur), &json(4, &reference), 2.0);
        assert_eq!(report.ratios, 5, "{report:?}");
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures[0].contains("dense_vs_sparse_ratio"));
        assert!(report.failures[1].contains("thread_scaling_2 par_identical"));
        // With equal cores the scaling ratio is compared too.
        let same = check(&json(4, &cur), &json(4, &reference), 2.0);
        assert_eq!(same.ratios, 6);
        assert!(same
            .failures
            .iter()
            .any(|f| f.contains("thread_scaling_ratio")));
    }

    /// Gates one metric of one row: `reference` (if any) against
    /// `current`, and returns the failures.
    fn one(metric: &str, reference: Option<Value>, current: Value) -> Vec<String> {
        let row = |v: Option<Value>| {
            let r = Row::new("table", "row").num("anchor_ratio", 1.0);
            match v {
                Some(Value::Num(x)) => r.num(metric, x),
                Some(Value::Bool(b)) => r.bool(metric, b),
                None => r,
            }
        };
        check(
            &json(2, &[row(Some(current))]),
            &json(2, &[row(reference)]),
            2.0,
        )
        .failures
    }

    #[test]
    fn holds_rule_table() {
        use Value::{Bool, Num};
        for (metric, current, passes) in [
            ("estimates_identical", Bool(true), true),
            ("estimates_identical", Bool(false), false),
            ("cache_hit_ok", Bool(true), true),
            ("cache_hit_ok", Bool(false), false),
            ("cache_hit_ok", Num(1.0), false),
        ] {
            // The reference is never consulted for correctness bits.
            for reference in [None, Some(Bool(false))] {
                let failures = one(metric, reference, current);
                assert_eq!(
                    failures.is_empty(),
                    passes,
                    "{metric} {current}: {failures:?}"
                );
            }
        }
    }

    #[test]
    fn ratio_rule_table() {
        use Value::{Bool, Num};
        for (reference, current, passes) in [
            (Some(Num(10.0)), Num(10.0), true),
            (Some(Num(10.0)), Num(5.0), true),
            (Some(Num(10.0)), Num(4.99), false),
            (Some(Num(10.0)), Num(1000.0), true),
            (None, Num(0.01), true),
            (None, Num(f64::NAN), false),
            (None, Num(f64::INFINITY), false),
            (None, Num(0.0), false),
            (None, Num(-3.0), false),
            (None, Bool(true), false),
            (Some(Num(f64::NAN)), Num(1.0), false),
            (Some(Num(0.0)), Num(1.0), false),
        ] {
            let failures = one("prepared_ratio", reference, current);
            assert_eq!(
                failures.is_empty(),
                passes,
                "{reference:?} -> {current}: {failures:?}"
            );
        }
    }

    #[test]
    fn exact_rule_table() {
        use Value::{Bool, Num};
        for (metric, reference, current, passes) in [
            ("total_bits", Some(Num(9216.0)), Num(9216.0), true),
            ("total_bits", Some(Num(9216.0)), Num(9215.0), false),
            ("max_round_bits", Some(Num(18.0)), Num(19.0), false),
            ("messages", Some(Num(2.0)), Num(2.0), true),
            ("messages", Some(Num(2.0)), Num(1.0), false),
            ("messages", Some(Bool(true)), Bool(true), false),
            ("messages", None, Num(5.0), true),
        ] {
            let failures = one(metric, reference, current);
            assert_eq!(
                failures.is_empty(),
                passes,
                "{metric} {current}: {failures:?}"
            );
        }
    }

    #[test]
    fn informational_rule_table() {
        use Value::{Bool, Num};
        for (metric, reference, current) in [
            ("batched_secs", Num(0.001), Num(100.0)),
            ("ports_per_sec", Num(1e6), Num(1.0)),
            ("prepared_ratio_iqr", Num(0.1), Num(50.0)),
            ("honest_estimate", Num(1.0), Num(0.0)),
            ("threads", Num(2.0), Bool(false)),
        ] {
            let failures = one(metric, Some(reference), current);
            assert!(failures.is_empty(), "{metric}: {failures:?}");
        }
    }

    #[test]
    fn non_finite_ratio_fails() {
        // 0/0 timings must not slip through a `<` comparison.
        let text = json(2, &base()).replace("\"prepared_ratio\": 20", "\"prepared_ratio\": NaN");
        assert!(text.contains("NaN"));
        let report = check(&text, &json(2, &base()), 2.0);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("acceptance/compiled prepared_ratio: NaN"));
    }

    #[test]
    fn unparseable_field_fails_naming_the_row() {
        let good = json(2, &base());
        let bad = good.replace("\"prepared_ratio\": 20", "\"prepared_ratio\": fast");
        let report = check(&bad, &good, 2.0);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(report.failures[0].contains("current: acceptance/compiled"));
        assert!(report.failures[0].contains("prepared_ratio"));
        let report = check(&good, &bad, 2.0);
        assert!(report.failures[0].starts_with("reference: acceptance/compiled"));
    }

    #[test]
    fn duplicate_row_fails() {
        let rows = with(base(), [base()[1].clone()]);
        let report = check(&json(2, &rows), &json(2, &base()), 2.0);
        assert_eq!(
            report.failures,
            ["current: duplicate row acceptance/compiled"]
        );
    }

    #[test]
    fn reference_without_rows_fails() {
        let report = check(&json(2, &base()), "{\"bench\": \"engine\"}", 2.0);
        assert_eq!(report.failures, ["reference: no `rows` array"]);
    }

    #[test]
    fn rendering_round_trips() {
        let rows = with(
            base(),
            [Row::new("x", "y/n=3")
                .num("tiny", 0.000_04)
                .num("big", 1_234_567.8)
                .num("third", 1.0 / 3.0)
                .spread(
                    "z_ratio",
                    Spread {
                        median: 2.5,
                        iqr: 0.25,
                    },
                )],
        );
        let text = json(3, &rows);
        assert!(text.contains("\"tiny\": 0.00004, \"big\": 1234568, \"third\": 0.3333"));
        assert!(text.contains("\"z_ratio\": 2.5, \"z_ratio_iqr\": 0.25"));
        let parsed = Bench::parse(&text).expect("parses");
        assert_eq!(parsed.cores, Some(3));
        assert_eq!(parsed.to_json(), text);
    }
}
