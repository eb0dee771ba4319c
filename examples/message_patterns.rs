//! The message-pattern spectrum: what one round of verification costs
//! under per-port, broadcast, unicast, and k-messages communication.
//!
//! The engine's randomness axis (independent per-port challenges vs one
//! shared challenge per node) is orthogonal to its *communication* axis:
//! how many distinct messages a node emits per round. This example sweeps
//! [`MessagePattern`](rpls::core::engine::MessagePattern) over one
//! spanning-tree instance, for both the κ-bit `ExchangeLabels` baseline
//! and the compiled fingerprint scheme:
//!
//! * **per-port** — one independent message per incident edge; the
//!   classical RPLS model and the engine's golden-tested default;
//! * **broadcast** — one message per node per round, copied to every
//!   port (the broadcast-CONGEST regime of Patt-Shamir & Perry);
//! * **unicast** — per-port transcripts, but the compiled scheme ships
//!   only the polynomial *evaluation* (the point is shared randomness, à
//!   la Filtser & Fischer), halving the accounted bits;
//! * **k-messages** — k distinct messages per node, interpolating
//!   between broadcast (k = 1) and per-port (k ≥ degree).
//!
//! ```text
//! cargo run --release --example message_patterns
//! ```

use rpls::core::engine::{MessagePattern, RunSpec};
use rpls::core::stats::EstimateOpts;
use rpls::core::{measure, stats, CompiledRpls, Configuration, Rpls};
use rpls::graph::{generators, NodeId};
use rpls::schemes::spanning_tree::{spanning_tree_config, SpanningTreePls};
use std::num::NonZeroUsize;

fn main() {
    let n = 64;
    let trials = 2000;
    let seed = 11;
    let config = spanning_tree_config(&Configuration::plain(generators::cycle(n)), NodeId::new(0));
    let compiled = CompiledRpls::new(SpanningTreePls::new());
    let exchange = rpls::core::scheme::ExchangeLabels::new(SpanningTreePls::new());

    // One corrupted claimed replica, to show soundness is pattern-blind.
    let tamper = |labeling: &rpls::core::Labeling| {
        let mut out = labeling.clone();
        let node = NodeId::new(5);
        let target = out.get(node).len() / 2;
        let flipped: rpls::bits::BitString = out
            .get(node)
            .iter()
            .enumerate()
            .map(|(i, b)| if i == target { !b } else { b })
            .collect();
        out.set(node, flipped);
        out
    };

    let patterns = [
        ("per-port", MessagePattern::PerPort),
        ("broadcast", MessagePattern::Broadcast),
        ("unicast", MessagePattern::Unicast),
        (
            "2-messages",
            MessagePattern::KMessages(NonZeroUsize::new(2).unwrap()),
        ),
    ];

    println!(
        "message-pattern spectrum on the {n}-cycle spanning tree ({trials} trials per cell)\n"
    );
    for (name, scheme) in [
        (
            "exchange-labels (κ-bit proof streaming)",
            &exchange as &dyn Rpls,
        ),
        ("compiled (fingerprint streaming)", &compiled as &dyn Rpls),
    ] {
        let honest = scheme.label(&config);
        let tampered = tamper(&honest);
        println!("{name}");
        println!(
            "     pattern | msgs/node | bits/round t=1 | bits/round t=4 | honest accept | tampered accept"
        );
        println!(
            "  -----------+-----------+----------------+----------------+---------------+-----------------"
        );
        let configs = std::slice::from_ref(&config);
        for (pname, pattern) in patterns {
            let t1 = measure::randomized_complexity_report(scheme, configs, pattern, 1, 8, seed);
            let t4 = measure::randomized_complexity_report(scheme, configs, pattern, 4, 8, seed);
            let honest_p = stats::estimate(
                scheme,
                &config,
                &honest,
                &RunSpec::trial(seed).with_pattern(pattern),
                &EstimateOpts::new(trials),
            )
            .acceptance();
            let tampered_p = stats::estimate(
                scheme,
                &config,
                &tampered,
                &RunSpec::trial(seed).with_pattern(pattern),
                &EstimateOpts::new(trials),
            )
            .acceptance();
            assert!(
                (honest_p - 1.0).abs() < f64::EPSILON,
                "one-sided completeness"
            );
            println!(
                "  {pname:>10} | {:>9} | {:>14} | {:>14} | {honest_p:>13} | {tampered_p:>15.4}",
                t1.messages, t1.bits_per_round, t4.bits_per_round,
            );
        }
        println!();
    }

    println!("reading the table:");
    println!("  * broadcast sends ONE message per node per round — on the cycle that halves");
    println!("    message count vs per-port, at unchanged per-message width;");
    println!("  * unicast keeps per-port transcripts but the compiled rows account half the");
    println!("    bits: the fingerprint point is shared randomness, only P(x) is shipped;");
    println!("  * 2-messages saturates per-port on the cycle (every degree is 2), so its");
    println!("    column reproduces per-port exactly;");
    println!("  * soundness is pattern-blind: the tampered column barely moves across rows.");
}
