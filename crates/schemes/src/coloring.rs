//! Proper coloring — the paper's opening example of a *locally checkable*
//! predicate (§1).
//!
//! Colors live in the states; since verifiers see neighbor *labels* rather
//! than neighbor states, the scheme copies the color into the label
//! (Θ(log C) bits for C colors) and each node checks that its label equals
//! its color and differs from every neighbor's.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};

const COLOR_BITS: u32 = 32;

/// Reads the color payload of a node.
#[must_use]
pub fn decode_color(bits: BitSlice<'_>) -> Option<u64> {
    let mut r = BitReader::from_slice(bits);
    let c = r.read_u64(COLOR_BITS).ok()?;
    r.is_exhausted().then_some(c)
}

/// Writes a color payload.
#[must_use]
pub fn encode_color(color: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_u64(color, COLOR_BITS);
    w.finish()
}

/// Installs a greedy proper coloring into the payloads.
#[must_use]
pub fn greedy_coloring_config(config: &Configuration) -> Configuration {
    let g = config.graph();
    let mut colors: Vec<Option<u64>> = vec![None; g.node_count()];
    for v in g.nodes() {
        let used: std::collections::HashSet<u64> = g
            .neighbors(v)
            .filter_map(|nb| colors[nb.node.index()])
            .collect();
        let color = (0..).find(|c| !used.contains(c)).expect("finite degree");
        colors[v.index()] = Some(color);
    }
    let mut out = config.clone();
    for v in g.nodes() {
        out.state_mut(v)
            .set_payload(encode_color(colors[v.index()].expect("assigned")));
    }
    out
}

/// The proper-coloring predicate: every edge's endpoints have different
/// color payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProperColoringPredicate;

impl ProperColoringPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for ProperColoringPredicate {
    fn name(&self) -> String {
        "proper-coloring".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        config.graph().edges().all(|(_, rec)| {
            let cu = decode_color(config.state(rec.u).payload().as_slice());
            let cv = decode_color(config.state(rec.v).payload().as_slice());
            matches!((cu, cv), (Some(a), Some(b)) if a != b)
        })
    }
}

/// The Θ(log C) deterministic scheme: label = color copy.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColoringPls;

impl ColoringPls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Pls for ColoringPls {
    fn name(&self) -> String {
        "proper-coloring".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        config
            .states()
            .iter()
            .map(|s| s.payload().clone())
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        // Label must be the node's own color, and differ from every
        // neighbor's label.
        let Some(own) = decode_color(view.label) else {
            return false;
        };
        if Some(own) != decode_color(view.local.state.payload().as_slice()) {
            return false;
        }
        view.neighbor_labels
            .iter()
            .all(|l| matches!(decode_color(*l), Some(c) if c != own))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_core::engine;
    use rpls_graph::generators;
    use rpls_graph::NodeId;

    #[test]
    fn greedy_coloring_is_proper() {
        for g in [
            generators::cycle(7),
            generators::complete(5),
            generators::wheel(9),
            generators::grid(3, 3),
        ] {
            let c = greedy_coloring_config(&Configuration::plain(g));
            assert!(ProperColoringPredicate.holds(&c));
        }
    }

    #[test]
    fn honest_labels_accepted() {
        let c = greedy_coloring_config(&Configuration::plain(generators::wheel(8)));
        let labeling = ColoringPls.label(&c);
        assert!(engine::run_deterministic(&ColoringPls, &c, &labeling).accepted());
    }

    #[test]
    fn monochrome_edge_detected() {
        let mut c = greedy_coloring_config(&Configuration::plain(generators::cycle(5)));
        // Make nodes 1 and 2 share a color.
        let color = decode_color(c.state(NodeId::new(1)).payload().as_slice()).unwrap();
        c.state_mut(NodeId::new(2)).set_payload(encode_color(color));
        assert!(!ProperColoringPredicate.holds(&c));
        // No labeling fools the verifier: labels are pinned to payloads.
        assert!(rpls_core::adversary::exhaustive_forge(&ColoringPls, &c, 2).is_none());
        let labeling = ColoringPls.label(&c);
        assert!(!engine::run_deterministic(&ColoringPls, &c, &labeling).accepted());
    }

    #[test]
    fn lying_label_detected() {
        let c = greedy_coloring_config(&Configuration::plain(generators::path(3)));
        let mut labeling = ColoringPls.label(&c);
        // Node 1 lies about its color.
        labeling.set(NodeId::new(1), encode_color(99));
        assert!(!engine::run_deterministic(&ColoringPls, &c, &labeling).accepted());
    }
}
