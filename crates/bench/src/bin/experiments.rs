//! The experiment runner: regenerates every theorem/figure table.
//!
//! ```text
//! cargo run -p rpls-bench --release --bin experiments            # all
//! cargo run -p rpls-bench --release --bin experiments -- e31 f2  # a subset
//! cargo run -p rpls-bench --release --bin experiments -- --markdown
//! ```

use rpls_bench::{all_experiments, select};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let wanted: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .collect();

    let experiments = all_experiments();
    if wanted.contains(&"list") {
        for (id, desc, _) in &experiments {
            println!("{id:6} {desc}");
        }
        return;
    }
    let selected = select(&experiments, &wanted).unwrap_or_else(|unknown| {
        eprintln!("unknown experiment id `{unknown}`; use `experiments list` to see ids");
        std::process::exit(2);
    });
    for (id, desc, gen) in selected {
        eprintln!("[{id}] {desc} ...");
        let table = gen();
        if markdown {
            println!("{}", table.to_markdown());
        } else {
            println!("{table}");
        }
    }
}
