//! The perf-regression gate CLI: compares a fresh `bench_engine` JSON
//! against the committed reference and exits non-zero on regression.
//!
//! ```text
//! cargo run -p rpls-bench --release --bin bench_gate -- \
//!     BENCH_engine_smoke.json BENCH_engine.json [--max-regress 2.0]
//! ```
//!
//! Each metric's rule follows from its name (correctness bits must hold,
//! within-run ratios may not fall more than the tolerance, bit accounting
//! must match exactly); see `rpls_bench::gate` for the exact contract.

use rpls_bench::gate;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut max_regress = 2.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--max-regress" {
            let Some(v) = it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|v| v.is_finite() && *v > 0.0)
            else {
                eprintln!("bench_gate: --max-regress needs a positive number");
                return ExitCode::FAILURE;
            };
            max_regress = v;
        } else {
            files.push(arg.clone());
        }
    }
    let [current_path, reference_path] = files.as_slice() else {
        eprintln!("usage: bench_gate <current.json> <reference.json> [--max-regress FACTOR]");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(current), Some(reference)) = (read(current_path), read(reference_path)) else {
        return ExitCode::FAILURE;
    };

    let report = gate::check(&current, &reference, max_regress);
    println!(
        "bench_gate: {} checks against {reference_path}: {} ratio(s) within {max_regress}x, {} \
         exact, {} correctness bit(s)",
        report.checks(),
        report.ratios,
        report.exact,
        report.holds
    );
    if report.passed() {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        for failure in &report.failures {
            eprintln!("bench_gate: FAIL {failure}");
        }
        ExitCode::FAILURE
    }
}
