//! The experiment harness: one function per theorem/figure of the paper.
//!
//! The paper's evaluation is its theorem set (it is a theory paper — there
//! are no testbed tables), so "reproducing every table and figure" means
//! regenerating, for each theorem, the quantitative behaviour it asserts:
//! certificate sizes and their growth rates, acceptance/rejection
//! probabilities, and the success of the crossing attacks below the proven
//! thresholds. Each experiment returns a [`Table`] that the `experiments`
//! binary prints; EXPERIMENTS.md records paper-vs-measured for each.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p rpls-bench --release --bin experiments
//! ```
//!
//! or a single experiment by id (e.g. `e31`, `e48`, `f1`):
//!
//! ```text
//! cargo run -p rpls-bench --release --bin experiments -- e31
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod gate;
pub mod table;
pub mod timing;

pub use table::Table;

/// One registered experiment: `(id, description, generator)`.
pub type Experiment = (&'static str, &'static str, fn() -> Table);

/// Returns every experiment in presentation order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "ea1",
            "Lemma A.1 / Lemma 3.2 — the randomized equality protocol",
            experiments::ea1_eq_protocol,
        ),
        (
            "e31",
            "Theorem 3.1 — compiling deterministic schemes to O(log kappa) bits",
            experiments::e31_compiler_gap,
        ),
        (
            "e33",
            "Lemma 3.3 — universal PLS label sizes",
            experiments::e33_universal_pls,
        ),
        (
            "e34",
            "Corollary 3.4 — universal RPLS certificates O(log n + log k)",
            experiments::e34_universal_rpls,
        ),
        (
            "e35",
            "Theorem 3.5 — Omega(log n + log k): Sym and Unif families",
            experiments::e35_lower_bound,
        ),
        (
            "e43",
            "Prop 4.3 / Thm 4.4 — deterministic crossing attack",
            experiments::e43_det_crossing,
        ),
        (
            "e46",
            "Prop 4.6 — two-sided rounded-distribution crossing",
            experiments::e46_rounded_crossing,
        ),
        (
            "e48",
            "Prop 4.8 — one-sided support crossing",
            experiments::e48_onesided_crossing,
        ),
        (
            "e51",
            "Theorem 5.1 — MST: Theta(log^2 n) labels, Theta(log log n) certificates",
            experiments::e51_mst,
        ),
        (
            "e52",
            "Theorem 5.2 — vertex biconnectivity",
            experiments::e52_biconnectivity,
        ),
        (
            "e53",
            "Theorem 5.3 — cycle-at-least-c upper bounds",
            experiments::e53_cycle_at_least,
        ),
        (
            "e54",
            "Theorem 5.4 — cycle-at-least-c lower bound (crossing the wheel)",
            experiments::e54_cycle_lower,
        ),
        (
            "e55",
            "Theorem 5.5 — iterated crossing",
            experiments::e55_iterated,
        ),
        (
            "e56",
            "Theorem 5.6 — cycle-at-most-c lower bound (chain of cycles)",
            experiments::e56_chain,
        ),
        (
            "eb",
            "Footnote 1 — majority boosting",
            experiments::eb_boosting,
        ),
        ("ef", "Section 5.2 remark — k-flow", experiments::ef_flow),
        (
            "ev",
            "Section 5.2 — s-t k-vertex-connectivity",
            experiments::ev_vertex_connectivity,
        ),
        (
            "f1",
            "Figure 1 — crossing two edges under sigma",
            experiments::f1_crossing_figure,
        ),
        (
            "f2",
            "Figure 2 — the wheel and its crossed version",
            experiments::f2_wheel_figure,
        ),
        (
            "f34",
            "Figures 3-4 — the symmetry gadgets G(z) and G(z, z')",
            experiments::f34_gadget_figure,
        ),
        (
            "f5",
            "Figure 5 — the chain of cycles",
            experiments::f5_chain_figure,
        ),
    ]
}

/// The experiments named by `wanted`, in presentation order — every
/// experiment when `wanted` is empty.
///
/// # Errors
///
/// Returns the first id in `wanted` that names no experiment.
pub fn select<'a>(
    experiments: &'a [Experiment],
    wanted: &[&str],
) -> Result<Vec<&'a Experiment>, String> {
    if let Some(unknown) = wanted
        .iter()
        .find(|w| !experiments.iter().any(|(id, _, _)| id == *w))
    {
        return Err((*unknown).to_string());
    }
    Ok(experiments
        .iter()
        .filter(|(id, _, _)| wanted.is_empty() || wanted.contains(id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_names_the_first_unknown_id() {
        let all = all_experiments();
        let ids = |picked: Vec<&Experiment>| -> Vec<&str> {
            picked.into_iter().map(|(id, _, _)| *id).collect()
        };
        assert_eq!(ids(select(&all, &[]).unwrap()).len(), all.len());
        // Presentation order, whatever order the ids were asked in.
        assert_eq!(ids(select(&all, &["f2", "e31"]).unwrap()), ["e31", "f2"]);
        assert_eq!(select(&all, &["e31", "bogus"]), Err("bogus".to_string()));
        assert_eq!(select(&all, &["nope", "bogus"]), Err("nope".to_string()));
    }

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|(id, _, _)| *id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 20, "every theorem and figure gets an experiment");
    }
}
