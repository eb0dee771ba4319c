//! The repository benchmark. Runs one workload for a fixed time, checks
//! every result, and prints the metrics as one JSON object on the last
//! line of standard output:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! a traced replay of the same jobs adds the per-layer ones. See
//! `README.md` beside this package for every workload and metric.

mod expected;
mod inproc;
mod summary;
mod tcp;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["probe_kernel", "tcp_service"];

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Cores available to the process (`nproc`). Load threads (clients,
    /// connections, estimator workers) equal it, so never exceed it.
    pub cores: usize,
}

/// Set-ups per run: half before the timed loop, half after it; `setup_s`
/// is the median of all. Set-up is memory-bound, and a shared host has
/// slow phases lasting seconds, so two groups tens of seconds apart keep
/// one phase from setting the median alone.
pub const SETUP_REPS: usize = 10;

/// One metric as printed.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// A workload's result.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// An outcome over one job per entry of `failed` (whether that job
    /// failed its output checks).
    pub fn new(failed: &[bool], metrics: Vec<Metric>, notes: Vec<String>) -> Self {
        let failed_jobs = failed.iter().filter(|&&f| f).count() as u64;
        Self {
            correct: failed_jobs == 0,
            attempted: failed.len() as u64,
            failed: failed_jobs,
            metrics,
            notes,
        }
    }
}

/// SplitMix64 of `(seed, stream, index)`: the benchmark's own input
/// seeding, independent of the program's seed derivation.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// States which quantile `job_p99_ms` reports and over how many jobs.
pub fn tail_note(q: f64, samples: usize) -> String {
    format!("job_p99_ms is the p{:.0} of {samples} jobs", q * 100.0)
}

/// Where a traced run writes its spans, relative to the checkout root.
pub fn trace_path(opts: &Opts) -> PathBuf {
    PathBuf::from("perfbench/traces").join(format!("{}-seed{}.tsv", opts.workload, opts.seed))
}

/// Run metadata written at the head of a span file.
pub fn trace_meta(opts: &Opts, digest: summary::Digest) -> BTreeMap<&'static str, String> {
    BTreeMap::from([
        ("workload", opts.workload.clone()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("cores", opts.cores.to_string()),
        ("digest", format!("{:016x}", digest.0)),
    ])
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    if let Some(extra) = flags
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        cores,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "probe_kernel" => inproc::run(&opts),
        "tcp_service" => tcp::run(&opts),
        _ => unreachable!("parse admits only known workloads"),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} cores={}",
        opts.workload, opts.seed, opts.seconds, opts.trace, opts.cores
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} jobs failed their output check",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse(&args(
            "--workload tcp_service --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("tcp_service", 7, 10.0, true)
        );
        assert!(parse(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args(
            "--workload tcp_service --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&args("--workload tcp_service --seed 7 --seconds 10")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = json(&Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            notes: Vec::new(),
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
