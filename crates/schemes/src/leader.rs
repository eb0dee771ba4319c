//! Leader election certification: exactly one node holds the leader flag.
//!
//! The classic companion to the spanning-tree scheme: the label carries
//! `(id_leader, dist)` where `dist` descends to the unique node whose
//! identity equals `id_leader`. Distinct identities make the leader unique;
//! the descending-distance chains make it existent; the flag is pinned to
//! `dist = 0`. Θ(log n) deterministic, Θ(log log n) compiled.

use rpls_bits::{BitReader, BitSlice, BitString, BitWriter};
use rpls_core::{Configuration, DetView, Labeling, Pls, Predicate};
use rpls_graph::traversal;

const DIST_BITS: u32 = 32;
const ID_BITS: u32 = 64;

/// Writes a leader-flag payload.
#[must_use]
pub fn encode_flag(is_leader: bool) -> BitString {
    let mut w = BitWriter::new();
    w.write_bool(is_leader);
    w.finish()
}

/// Reads a leader-flag payload.
#[must_use]
pub fn decode_flag(bits: &BitString) -> Option<bool> {
    let mut r = BitReader::new(bits);
    let f = r.read_bool().ok()?;
    r.is_exhausted().then_some(f)
}

/// Installs a leader flag at `leader` and clears it everywhere else.
#[must_use]
pub fn leader_config(config: &Configuration, leader: rpls_graph::NodeId) -> Configuration {
    let mut out = config.clone();
    for v in config.graph().nodes() {
        out.state_mut(v).set_payload(encode_flag(v == leader));
    }
    out
}

/// The predicate: exactly one node's payload carries a set leader flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeaderPredicate;

impl LeaderPredicate {
    /// Creates the predicate.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Predicate for LeaderPredicate {
    fn name(&self) -> String {
        "unique-leader".into()
    }

    fn holds(&self, config: &Configuration) -> bool {
        let flags: Option<Vec<bool>> = config
            .states()
            .iter()
            .map(|s| decode_flag(s.payload()))
            .collect();
        matches!(flags, Some(f) if f.iter().filter(|&&b| b).count() == 1)
    }
}

/// The Θ(log n) deterministic leader-uniqueness scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeaderPls;

impl LeaderPls {
    /// Creates the scheme.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

fn encode_label(leader_id: u64, dist: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_u64(leader_id, ID_BITS);
    w.write_u64(dist, DIST_BITS);
    w.finish()
}

fn decode_label(bits: BitSlice<'_>) -> Option<(u64, u64)> {
    let mut r = BitReader::from_slice(bits);
    let id = r.read_u64(ID_BITS).ok()?;
    let d = r.read_u64(DIST_BITS).ok()?;
    r.is_exhausted().then_some((id, d))
}

impl Pls for LeaderPls {
    fn name(&self) -> String {
        "unique-leader".into()
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let g = config.graph();
        let leader = g
            .nodes()
            .find(|&v| decode_flag(config.state(v).payload()) == Some(true))
            .expect("legal configuration has a leader");
        let leader_id = config.state(leader).id();
        let bfs = traversal::bfs(g, leader);
        g.nodes()
            .map(|v| encode_label(leader_id, bfs.dist[v.index()].expect("connected") as u64))
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some((leader_id, dist)) = decode_label(view.label) else {
            return false;
        };
        let Some(flag) = decode_flag(view.local.state.payload()) else {
            return false;
        };
        // Flag pinned to distance 0, which is pinned to owning the id.
        if flag != (dist == 0) {
            return false;
        }
        if dist == 0 && view.local.state.id() != leader_id {
            return false;
        }
        if dist > 0 && view.local.state.id() == leader_id {
            return false;
        }
        let mut closer = false;
        for &l in &view.neighbor_labels {
            let Some((lid, d)) = decode_label(l) else {
                return false;
            };
            if lid != leader_id {
                return false;
            }
            if dist > 0 && d == dist - 1 {
                closer = true;
            }
        }
        dist == 0 || closer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpls_core::engine;
    use rpls_graph::{generators, NodeId};

    #[test]
    fn predicate_counts_flags() {
        let base = Configuration::plain(generators::cycle(5));
        assert!(LeaderPredicate.holds(&leader_config(&base, NodeId::new(2))));
        // Zero leaders.
        let mut zero = base.clone();
        for v in base.graph().nodes() {
            zero.state_mut(v).set_payload(encode_flag(false));
        }
        assert!(!LeaderPredicate.holds(&zero));
        // Two leaders.
        let mut two = leader_config(&base, NodeId::new(1));
        two.state_mut(NodeId::new(3)).set_payload(encode_flag(true));
        assert!(!LeaderPredicate.holds(&two));
    }

    #[test]
    fn honest_labels_accepted() {
        let base = Configuration::plain(generators::grid(3, 4));
        let c = leader_config(&base, NodeId::new(7));
        let labeling = LeaderPls.label(&c);
        assert!(engine::run_deterministic(&LeaderPls, &c, &labeling).accepted());
    }

    #[test]
    fn two_leaders_unforgeable() {
        let base = Configuration::plain(generators::path(3));
        let mut c = leader_config(&base, NodeId::new(0));
        c.state_mut(NodeId::new(2)).set_payload(encode_flag(true));
        assert!(rpls_core::adversary::exhaustive_forge(&LeaderPls, &c, 3).is_none());
    }

    #[test]
    fn zero_leaders_unforgeable() {
        let base = Configuration::plain(generators::path(3));
        let mut c = base.clone();
        for v in base.graph().nodes() {
            c.state_mut(v).set_payload(encode_flag(false));
        }
        assert!(rpls_core::adversary::exhaustive_forge(&LeaderPls, &c, 3).is_none());
    }

    #[test]
    fn flag_distance_mismatch_rejected() {
        let base = Configuration::plain(generators::cycle(4));
        let c = leader_config(&base, NodeId::new(0));
        let mut labeling = LeaderPls.label(&c);
        // Pretend node 2 is at distance 0 (without the flag): rejected.
        labeling.set(NodeId::new(2), encode_label(0, 0));
        assert!(!engine::run_deterministic(&LeaderPls, &c, &labeling).accepted());
    }
}
