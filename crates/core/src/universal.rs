//! The universal schemes: Lemma 3.3 and Corollary 3.4.
//!
//! **Lemma 3.3** (Appendix B): for any decidable predicate there is a
//! deterministic PLS whose label is a canonical representation `R` of the
//! whole configuration — `O(min(n², m log n) + nk)` bits. Every node checks
//! that (a) all neighbors hold the same `R`, (b) its own row of `R` matches
//! its actual local view (identity, state, degree, incident weights, and
//! the claimed neighbor identities), and (c) `R` satisfies the predicate.
//! If every node accepts, the actual configuration is isomorphic to `R`
//! (identities are unique), hence legal.
//!
//! **Corollary 3.4**: compiling this scheme with
//! [`CompiledRpls`] yields certificates of
//! `O(log n + log k)` bits for any predicate.
//!
//! Two encodings are implemented and the smaller is chosen per
//! configuration, mirroring the `min(n², m log n)` in the bound: an
//! adjacency *list* with `⌈log n⌉`-bit node indices (weighted graphs
//! supported, port-exact), and an adjacency *matrix* of `n²` bits
//! (unweighted only; certifies the structure up to port renumbering, which
//! suffices for the port-invariant predicates in this repository).

use crate::compiler::CompiledRpls;
use crate::labeling::Labeling;
use crate::scheme::{DetView, Pls, Predicate};
use crate::state::{Configuration, State};
use rpls_bits::{bits_for, id_width, BitReader, BitSlice, BitString, BitWriter};
use rpls_graph::{Graph, GraphBuilder, NodeId, Port};

/// Fixed width of the node-count field.
const N_BITS: u32 = 32;
/// Width of the width-descriptor fields in the header.
const WIDTH_BITS: u32 = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    List,
    Matrix,
}

struct Widths {
    id: u32,
    payload_len: u32,
    node: u32,
    weight: u32, // 0 = unweighted
}

fn widths_for(config: &Configuration) -> Widths {
    let id = config
        .states()
        .iter()
        .map(|s| bits_for(s.id()))
        .max()
        .unwrap_or(1);
    let payload_len = bits_for(
        config
            .states()
            .iter()
            .map(|s| s.payload().len() as u64)
            .max()
            .unwrap_or(0),
    );
    let node = id_width(config.node_count() as u64);
    let weight = if config.graph().is_weighted() {
        config
            .graph()
            .edges()
            .map(|(_, r)| bits_for(r.weight.expect("weighted")))
            .max()
            .unwrap_or(1)
    } else {
        0
    };
    Widths {
        id,
        payload_len,
        node,
        weight,
    }
}

fn write_header(w: &mut BitWriter, config: &Configuration, enc: Encoding, widths: &Widths) {
    w.write_bool(enc == Encoding::Matrix);
    w.write_u64(config.node_count() as u64, N_BITS);
    w.write_u64(u64::from(widths.id), WIDTH_BITS);
    w.write_u64(u64::from(widths.payload_len), WIDTH_BITS);
    w.write_u64(u64::from(widths.node), WIDTH_BITS);
    w.write_u64(u64::from(widths.weight), WIDTH_BITS);
    for s in config.states() {
        w.write_u64(s.id(), widths.id);
        w.write_u64(s.payload().len() as u64, widths.payload_len);
        w.write_bits(s.payload());
    }
}

/// Canonically encodes a configuration as the adjacency-list form.
fn encode_list(config: &Configuration) -> BitString {
    let widths = widths_for(config);
    let mut w = BitWriter::new();
    write_header(&mut w, config, Encoding::List, &widths);
    let g = config.graph();
    for v in g.nodes() {
        w.write_u64(g.degree(v) as u64, widths.node.max(1) + 1);
        for nb in g.neighbors(v) {
            w.write_u64(nb.node.index() as u64, widths.node);
            w.write_u64(nb.remote_port.rank() as u64, widths.node.max(1) + 1);
            if widths.weight > 0 {
                w.write_u64(nb.weight.expect("weighted"), widths.weight);
            }
        }
    }
    w.finish()
}

/// Canonically encodes a configuration as the adjacency-matrix form
/// (unweighted graphs only).
fn encode_matrix(config: &Configuration) -> Option<BitString> {
    if config.graph().is_weighted() {
        return None;
    }
    let widths = widths_for(config);
    let mut w = BitWriter::new();
    write_header(&mut w, config, Encoding::Matrix, &widths);
    let g = config.graph();
    let n = g.node_count();
    for u in 0..n {
        for v in 0..n {
            w.write_bool(u != v && g.are_adjacent(NodeId::new(u), NodeId::new(v)));
        }
    }
    Some(w.finish())
}

/// Encodes a configuration, choosing the smaller of the two encodings — the
/// `min(n², m log n)` of Lemma 3.3 in action.
#[must_use]
pub fn encode_configuration(config: &Configuration) -> BitString {
    let list = encode_list(config);
    match encode_matrix(config) {
        Some(matrix) if matrix.len() < list.len() => matrix,
        _ => list,
    }
}

/// Decodes a configuration. Returns `None` on any malformed input —
/// adversarial labels must never panic the verifier.
#[must_use]
pub fn decode_configuration(bits: BitSlice<'_>) -> Option<Configuration> {
    let mut r = BitReader::from_slice(bits);
    let matrix = r.read_bool().ok()?;
    let n = r.read_u64(N_BITS).ok()? as usize;
    if n == 0 || n > 1 << 24 {
        return None;
    }
    let w_id = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
    let w_pl = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
    let w_node = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
    let w_weight = u32::try_from(r.read_u64(WIDTH_BITS).ok()?).ok()?;
    if w_id == 0 || w_id > 64 || w_pl > 64 || w_node == 0 || w_node > 32 || w_weight > 64 {
        return None;
    }
    // Capacity bounded by what the bits could possibly encode (each state
    // takes at least w_id ≥ 1 bits): an adversarial header claiming
    // n = 2²⁴ on a short label must not pre-allocate gigabytes.
    let mut states = Vec::with_capacity(n.min(r.remaining() + 1));
    for _ in 0..n {
        let id = r.read_u64(w_id).ok()?;
        let pl_len = if w_pl == 0 {
            0
        } else {
            r.read_u64(w_pl).ok()? as usize
        };
        let payload = r.read_bits(pl_len).ok()?;
        states.push(State::new(id, payload));
    }
    // Distinct ids required; Configuration::new would panic, so pre-check.
    {
        let mut ids: Vec<u64> = states.iter().map(State::id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != n {
            return None;
        }
    }
    let graph = if matrix {
        decode_matrix_graph(&mut r, n)?
    } else {
        decode_list_graph(&mut r, n, w_node, w_weight)?
    };
    if !r.is_exhausted() {
        return None;
    }
    Some(Configuration::new(graph, states))
}

fn decode_matrix_graph(r: &mut BitReader<'_>, n: usize) -> Option<Graph> {
    // Every capacity is clamped by what the remaining bits could encode
    // (each row takes n bits), so a huge claimed n cannot force a huge
    // allocation before the reads fail.
    let mut rows = Vec::with_capacity(n.min(r.remaining() / n.max(1) + 1));
    for _ in 0..n {
        let mut row = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            row.push(r.read_bool().ok()?);
        }
        rows.push(row);
    }
    // Must be symmetric with empty diagonal.
    for (u, row) in rows.iter().enumerate() {
        if row[u] {
            return None;
        }
        for (v, &cell) in row.iter().enumerate() {
            if cell != rows[v][u] {
                return None;
            }
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, row) in rows.iter().enumerate() {
        for (v, &cell) in row.iter().enumerate().skip(u + 1) {
            if cell {
                b.add_edge(u, v).ok()?;
            }
        }
    }
    b.finish().ok()
}

fn decode_list_graph(r: &mut BitReader<'_>, n: usize, w_node: u32, w_weight: u32) -> Option<Graph> {
    let w_deg = w_node.max(1) + 1;
    // entries[v][p] = (neighbor, remote_port, weight); capacities clamped
    // by the remaining bits so a huge claimed n or degree cannot force a
    // huge allocation before the reads fail.
    let mut entries: Vec<Vec<(usize, usize, Option<u64>)>> =
        Vec::with_capacity(n.min(r.remaining() / w_deg as usize + 1));
    for _ in 0..n {
        let deg = r.read_u64(w_deg).ok()? as usize;
        if deg >= n {
            return None;
        }
        let mut row = Vec::with_capacity(deg.min(r.remaining() / w_node as usize + 1));
        for _ in 0..deg {
            let nb = r.read_u64(w_node).ok()? as usize;
            let rport = r.read_u64(w_deg).ok()? as usize;
            let weight = if w_weight > 0 {
                Some(r.read_u64(w_weight).ok()?)
            } else {
                None
            };
            if nb >= n {
                return None;
            }
            row.push((nb, rport, weight));
        }
        entries.push(row);
    }
    // Symmetry check: entry (v, p) -> (u, q, w) must be mirrored by
    // (u, q) -> (v, p, w).
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for (p, &(u, q, weight)) in entries[v].iter().enumerate() {
            let mirror = entries.get(u)?.get(q)?;
            if *mirror != (v, p, weight) {
                return None;
            }
            if v < u {
                b.add_edge_full(
                    NodeId::new(v),
                    NodeId::new(u),
                    Some((Port::from_rank(p), Port::from_rank(q))),
                    weight,
                )
                .ok()?;
            }
        }
    }
    b.finish().ok()
}

/// The Lemma 3.3 universal deterministic scheme for an arbitrary predicate.
///
/// # Examples
///
/// ```
/// use rpls_core::{UniversalPls, Configuration};
/// use rpls_core::scheme::{FnPredicate, Pls};
/// use rpls_graph::generators;
///
/// let scheme = UniversalPls::new(FnPredicate::new("is-cycle", |c: &Configuration| {
///     c.graph().nodes().all(|v| c.graph().degree(v) == 2)
/// }));
/// let config = Configuration::plain(generators::cycle(5));
/// let labels = scheme.label(&config);
/// assert!(labels.max_bits() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct UniversalPls<P> {
    predicate: P,
}

impl<P: Predicate> UniversalPls<P> {
    /// Builds the universal scheme for `predicate`.
    #[must_use]
    pub fn new(predicate: P) -> Self {
        Self { predicate }
    }

    /// The certified predicate.
    #[must_use]
    pub fn predicate(&self) -> &P {
        &self.predicate
    }
}

/// Splits a universal label into `(id, R)`; `R` is read in place from
/// byte 8 on.
fn parse_universal_label(label: BitSlice<'_>) -> Option<(u64, BitSlice<'_>)> {
    Some((label.leading_u64(), label.skip_bytes(8)?))
}

impl<P: Predicate> Pls for UniversalPls<P> {
    fn name(&self) -> String {
        format!("universal({})", self.predicate.name())
    }

    fn label(&self, config: &Configuration) -> Labeling {
        let repr = encode_configuration(config);
        config
            .states()
            .iter()
            .map(|s| {
                let mut w = BitWriter::new();
                w.write_u64(s.id(), 64);
                w.write_bits(&repr);
                w.finish()
            })
            .collect()
    }

    fn verify(&self, view: &DetView<'_>) -> bool {
        let Some((own_id, repr)) = parse_universal_label(view.label) else {
            return false;
        };
        if own_id != view.local.state.id() {
            return false;
        }
        // (a) All neighbors hold the same representation.
        let mut neighbor_ids = Vec::with_capacity(view.neighbor_labels.len());
        for &l in &view.neighbor_labels {
            let Some((nid, nrepr)) = parse_universal_label(l) else {
                return false;
            };
            if nrepr != repr {
                return false;
            }
            neighbor_ids.push(nid);
        }
        // (b) Our row of R matches our actual local view.
        let Some(decoded) = decode_configuration(repr) else {
            return false;
        };
        let Some(me) = decoded.node_with_id(own_id) else {
            return false;
        };
        if decoded.state(me).payload() != view.local.state.payload() {
            return false;
        }
        let g = decoded.graph();
        if g.degree(me) != view.local.degree() {
            return false;
        }
        let matrix_encoded = repr.bit(0) == Some(true);
        if matrix_encoded {
            // Ports are not represented: compare the neighbor id multiset
            // and require the graph unweighted.
            if view.local.incident_weights.iter().any(Option::is_some) {
                return false;
            }
            let mut claimed: Vec<u64> = g
                .neighbors(me)
                .map(|nb| decoded.state(nb.node).id())
                .collect();
            let mut actual = neighbor_ids.clone();
            claimed.sort_unstable();
            actual.sort_unstable();
            if claimed != actual {
                return false;
            }
        } else {
            // Port-exact check: neighbor on port p must have the claimed id
            // and the recorded weight.
            for (p, &nid) in neighbor_ids.iter().enumerate() {
                let Some(nb) = g.neighbor_by_port(me, Port::from_rank(p)) else {
                    return false;
                };
                if decoded.state(nb.node).id() != nid {
                    return false;
                }
                if nb.weight != view.local.incident_weights[p] {
                    return false;
                }
            }
        }
        // (c) The representation satisfies the predicate.
        self.predicate.holds(&decoded)
    }
}

/// The Corollary 3.4 universal randomized scheme: the compiled Lemma 3.3
/// scheme, exchanging `O(log n + log k)`-bit certificates.
pub type UniversalRpls<P> = CompiledRpls<UniversalPls<P>>;

/// Builds the universal randomized scheme for a predicate.
#[must_use]
pub fn universal_rpls<P: Predicate>(predicate: P) -> UniversalRpls<P> {
    CompiledRpls::new(UniversalPls::new(predicate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::scheme::FnPredicate;
    use crate::stats;
    use rpls_graph::generators;

    fn cycle_predicate() -> FnPredicate<impl Fn(&Configuration) -> bool> {
        FnPredicate::new("is-cycle", |c: &Configuration| {
            c.graph().nodes().all(|v| c.graph().degree(v) == 2)
                && rpls_graph::connectivity::is_connected(c.graph())
        })
    }

    #[test]
    fn encode_decode_round_trip_unweighted() {
        for g in [
            generators::cycle(6),
            generators::path(4),
            generators::wheel(7),
            generators::complete(5),
        ] {
            let c = Configuration::plain(g);
            let enc = encode_configuration(&c);
            let dec = decode_configuration(enc.as_slice()).expect("decodes");
            assert_eq!(dec.node_count(), c.node_count());
            assert_eq!(dec.graph().sorted_edge_list(), c.graph().sorted_edge_list());
            for v in c.graph().nodes() {
                assert_eq!(dec.state(v).id(), c.state(v).id());
            }
        }
    }

    #[test]
    fn encode_decode_round_trip_weighted_preserves_ports() {
        let g = generators::cycle(5).with_weights(&[9, 1, 7, 3, 5]);
        let c = Configuration::plain(g);
        let enc = encode_configuration(&c);
        let dec = decode_configuration(enc.as_slice()).expect("decodes");
        // Weighted graphs use the list encoding: port-exact.
        for v in c.graph().nodes() {
            for nb in c.graph().neighbors(v) {
                let dnb = dec.graph().neighbor_by_port(v, nb.port).unwrap();
                assert_eq!(dnb.node, nb.node);
                assert_eq!(dnb.weight, nb.weight);
                assert_eq!(dnb.remote_port, nb.remote_port);
            }
        }
    }

    #[test]
    fn dense_graphs_pick_matrix_encoding() {
        let c = Configuration::plain(generators::complete(40));
        let enc = encode_configuration(&c);
        assert_eq!(enc.bit(0), Some(true), "matrix tag expected");
        // Sparse graphs pick the list.
        let c = Configuration::plain(generators::path(40));
        let enc = encode_configuration(&c);
        assert_eq!(enc.bit(0), Some(false), "list tag expected");
    }

    #[test]
    fn universal_pls_accepts_legal_configurations() {
        let scheme = UniversalPls::new(cycle_predicate());
        for n in [3usize, 5, 9] {
            let c = Configuration::plain(generators::cycle(n));
            let labeling = scheme.label(&c);
            let out = engine::run_deterministic(&scheme, &c, &labeling);
            assert!(out.accepted(), "n = {n}");
        }
    }

    #[test]
    fn universal_pls_rejects_wrong_representation() {
        // Label a path with the representation of a cycle: nodes must spot
        // the degree mismatch.
        let scheme = UniversalPls::new(cycle_predicate());
        let cycle_conf = Configuration::plain(generators::cycle(5));
        let path_conf = Configuration::plain(generators::path(5));
        let forged = scheme.label(&cycle_conf);
        let out = engine::run_deterministic(&scheme, &path_conf, &forged);
        assert!(!out.accepted());
    }

    #[test]
    fn universal_pls_rejects_honest_encoding_of_illegal_config() {
        // Honestly encode an illegal configuration: the predicate check at
        // every node fails.
        let scheme = UniversalPls::new(cycle_predicate());
        let path_conf = Configuration::plain(generators::path(5));
        let labeling = scheme.label(&path_conf);
        let out = engine::run_deterministic(&scheme, &path_conf, &labeling);
        assert!(!out.accepted());
    }

    #[test]
    fn universal_rpls_accepts_legal_and_rejects_forgery() {
        let rpls = universal_rpls(cycle_predicate());
        let c = Configuration::plain(generators::cycle(6));
        let labeling = crate::scheme::Rpls::label(&rpls, &c);
        let rec = engine::run_randomized(&rpls, &c, &labeling, 5);
        assert!(rec.outcome.accepted());

        // Forge on an illegal instance by replaying the cycle labels.
        let path_conf = Configuration::plain(generators::path(6));
        let p = stats::acceptance_probability(&rpls, &path_conf, &labeling, 300, 1);
        assert!(p < 0.34, "forged acceptance = {p}");
    }

    #[test]
    fn universal_certificates_are_logarithmic() {
        let rpls = universal_rpls(cycle_predicate());
        let small = Configuration::plain(generators::cycle(8));
        let big = Configuration::plain(generators::cycle(64));
        let bits_small = {
            let l = crate::scheme::Rpls::label(&rpls, &small);
            engine::run_randomized(&rpls, &small, &l, 0).max_certificate_bits()
        };
        let bits_big = {
            let l = crate::scheme::Rpls::label(&rpls, &big);
            engine::run_randomized(&rpls, &big, &l, 0).max_certificate_bits()
        };
        // n grew 8×, labels grew ~64×; certificates by a few bits only.
        assert!(bits_big <= bits_small + 8, "{bits_small} -> {bits_big}");
    }

    #[test]
    fn decode_rejects_truncated_and_asymmetric_input() {
        let c = Configuration::plain(generators::cycle(4));
        let enc = encode_configuration(&c);
        assert!(decode_configuration(enc.truncated(enc.len() - 3).as_slice()).is_none());
        assert!(decode_configuration(BitString::zeros(10).as_slice()).is_none());
    }
}
