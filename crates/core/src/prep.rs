//! Cross-labeling preparation cache.
//!
//! [`Rpls::prepare`](crate::scheme::Rpls::prepare) hoists per-labeling work
//! out of the round loop — but a *sweep* (an acceptance estimate per forged
//! candidate, a complexity measurement per configuration) pays that
//! preparation once per labeling, and under the Theorem 3.1 compiler the
//! preparations of neighboring labelings are nearly identical: the same
//! inner labels are fingerprinted under the same per-κ primes again and
//! again. [`PrepCache`] makes that work shared. It outlives any single
//! [`Rpls::prepare_cached`](crate::scheme::Rpls::prepare_cached) call and
//! memoises two layers of **content-keyed** state:
//!
//! * fingerprint preparations, keyed by `(modulus, fingerprinted string)` —
//!   the shared [`PreparedEq`]s whose lazily built GF(p) evaluation tables
//!   are the expensive part of compiled preparation;
//! * whole replicated-label parses, keyed by the label's bits — the parsed
//!   `(κ, parts)` split plus the per-part fingerprint handles, so a label
//!   seen before (in this labeling or any earlier one) costs one hash
//!   lookup instead of a re-parse and re-preparation.
//!
//! **Cache poisoning is impossible by construction**: every key is the full
//! content the cached value is a function of (the map hashes the key and
//! then verifies it by equality on every hit), and nothing
//! configuration- or scheme-dependent is ever stored — arity-vs-degree
//! checks and inner-verifier verdicts stay per-prepared-instance. One cache
//! may therefore serve different labelings, different configurations, and
//! different compiled schemes; transcripts are bit-identical to uncached
//! preparation either way (`tests/engine_golden.rs` pins this).
//!
//! Memory is bounded by two per-epoch budgets: an aggregate cap on
//! evaluation-table slots ([`PrepCache::TABLE_SLOT_BUDGET`], 64 MiB of
//! `u64`s) and a cap on retention cost ([`PrepCache::KEY_BITS_BUDGET`],
//! key bits plus a per-entry overhead charge). When the retention budget
//! runs out the cache **turns over an epoch** — clears itself and starts
//! fresh — so a sweep of any length keeps amortising against its recent
//! candidates while live memory stays bounded by one epoch's budgets
//! (plus whatever outstanding prepared instances pin). Values are
//! identical shared or not, so neither budget exhaustion nor an epoch
//! boundary can ever change a transcript.

use rpls_bits::BitString;
use rpls_fingerprint::PreparedEq;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A multiply-rotate hasher (the `FxHash` construction) for the cache
/// maps: the keys are multi-word bit strings hashed on every lookup of
/// every node of every labeling, and the cache needs throughput, not
/// DoS-resistant hashing — lookups verify the full key by equality on
/// every hit, so an engineered collision can only slow the cache down,
/// never corrupt it.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.write_u64(tail);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Firefox's multiply-rotate mix: one rotate, one xor, one multiply
        // per word.
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A preparation cache shared across labelings (and configurations); see
/// the [module docs](self) for the contract.
///
/// # Examples
///
/// ```
/// use rpls_core::prelude::*;
/// use rpls_core::PrepCache;
/// use rpls_graph::generators;
///
/// // A tiny deterministic scheme: every label must be empty.
/// struct Empty;
/// impl Pls for Empty {
///     fn name(&self) -> String { "empty".into() }
///     fn label(&self, c: &Configuration) -> Labeling { Labeling::empty(c.node_count()) }
///     fn verify(&self, view: &DetView<'_>) -> bool { view.label.is_empty() }
/// }
///
/// let config = Configuration::plain(generators::cycle(8));
/// let scheme = CompiledRpls::new(Empty);
/// let labeling = Rpls::label(&scheme, &config);
/// let mut cache = PrepCache::new();
/// let mut scratch = RoundScratch::new();
/// let opts = stats::EstimateOpts::new(50);
/// // A sweep reuses one cache: later estimates skip re-preparation.
/// for seed in 0..4 {
///     let spec = RunSpec::trial(seed);
///     let est = stats::estimate_with(
///         &scheme, &config, &labeling, &spec, &opts, &mut scratch, &mut cache,
///     );
///     assert_eq!(est.acceptance(), 1.0);
/// }
/// assert!(cache.shared_labels() > 0);
/// assert!(cache.hits() > cache.misses());
/// ```
pub struct PrepCache {
    /// The fingerprint layer plus budgets and counters, behind a shared
    /// handle (see [`EqStore`]): prepared instances clone it so plans
    /// built lazily after binding time (the per-`t` multi-round slice
    /// schedules) request their fingerprints through the same
    /// content-keyed sharing and epoch budgets as everything prepared up
    /// front.
    pub(crate) store: Rc<RefCell<EqStore>>,
    /// Replicated-label preparations keyed by the raw label bits.
    pub(crate) labels: HashMap<BitString, Rc<CachedLabel>, FxBuildHasher>,
    /// The store epoch this label map belongs to. The store turns epochs
    /// over without a handle on the label map, so the map is cleared
    /// *lazily*: any label lookup that observes a newer store epoch first
    /// drops the stale entries (their `Rc`s stay valid for holders —
    /// only future sharing restarts, exactly as for fingerprints).
    pub(crate) labels_epoch: u64,
}

/// The fingerprint layer of a [`PrepCache`]: shared preparations keyed by
/// `(modulus, fingerprinted string)`, the per-epoch budgets, and the
/// hit/miss counters. Split out behind `Rc<RefCell<…>>` so prepared
/// instances can keep requesting content-keyed preparations *after*
/// binding time — the multi-round planner cuts slice fingerprints on
/// first use of each `t`, long after `prepare_cached` returned — against
/// the same budgets and sharing as binding-time preparation.
pub(crate) struct EqStore {
    /// Fingerprint preparations keyed by `(modulus, fingerprinted string)`.
    pub(crate) eq: HashMap<(u64, BitString), Rc<PreparedEq>, FxBuildHasher>,
    /// Remaining evaluation-table slots (`u64` entries) this store may
    /// still grant in the current epoch.
    pub(crate) table_slots: u64,
    /// Remaining retention budget (key bits + per-entry overhead) for the
    /// current epoch.
    pub(crate) key_bits: u64,
    /// Epoch turnovers so far (see [`PrepCache::epochs`]).
    pub(crate) epoch_count: u64,
    /// Lookups served from the cache (either layer).
    pub(crate) hits: u64,
    /// Lookups that had to prepare fresh state (either layer).
    pub(crate) misses: u64,
}

impl EqStore {
    /// An empty store with full budgets.
    fn new() -> Self {
        Self {
            eq: HashMap::default(),
            table_slots: PrepCache::TABLE_SLOT_BUDGET,
            key_bits: PrepCache::KEY_BITS_BUDGET,
            epoch_count: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Turns the store over to a fresh epoch: the fingerprint map is
    /// cleared and both budgets reset. The label layer lives on
    /// [`PrepCache`] and clears itself lazily on the next lookup that
    /// observes the bumped epoch count. Live `Rc`s held by outstanding
    /// prepared instances stay valid — only future sharing is affected,
    /// and values never depend on sharing, so an epoch boundary can never
    /// change a transcript.
    pub(crate) fn begin_epoch(&mut self) {
        self.eq.clear();
        self.table_slots = PrepCache::TABLE_SLOT_BUDGET;
        self.key_bits = PrepCache::KEY_BITS_BUDGET;
        self.epoch_count += 1;
    }
}

/// The content-derived preparation of one replicated label — everything the
/// compiled prover and verifier need from the label that does not depend on
/// which node (or which configuration) carries it. Built by
/// `CompiledRpls::prepare_cached` and shared via [`Rc`] across nodes,
/// labelings, and sweeps.
pub(crate) struct CachedLabel {
    /// The prover-side fingerprint of the `(κ, own-label)` prefix, `None`
    /// when that prefix is malformed (such nodes emit empty certificates).
    pub(crate) prover: Option<Rc<PreparedEq>>,
    /// The verifier-side parse of the full replication, `None` when it is
    /// malformed. Whether its arity matches a node's degree is checked at
    /// binding time, not here — degree is not label content.
    pub(crate) replication: Option<CachedReplication>,
}

/// The verifier-side half of a [`CachedLabel`]: the parsed parts and one
/// prepared fingerprint per claimed neighbor copy.
pub(crate) struct CachedReplication {
    /// Exact certificate size every received message must have.
    pub(crate) expected_bits: usize,
    /// The protocol prime for the label's declared κ.
    pub(crate) modulus: u64,
    /// The parsed parts `(own, claimed₀, …, claimed_{d−1})`.
    pub(crate) parts: Vec<BitString>,
    /// One prepared fingerprint per claimed neighbor copy, in port order.
    pub(crate) ports: Vec<Rc<PreparedEq>>,
}

impl PrepCache {
    /// Aggregate cap on evaluation-table slots a cache may grant: `2²³`
    /// `u64` entries ≈ 64 MiB. Each table is additionally capped
    /// individually inside `EqProtocol::prepare`; this budget stops an
    /// adversarial sweep from multiplying per-table cost by labels × ports
    /// × labelings.
    pub const TABLE_SLOT_BUDGET: u64 = 1 << 23;

    /// Cap on the retention cost the cache may accumulate, in bits: `2²⁶`
    /// = 8 Mi. Each retained entry is charged its key bits **plus**
    /// [`PrepCache::ENTRY_OVERHEAD_BITS`] for the heap bookkeeping a key
    /// does not show (map buckets, `Rc` allocations, parsed parts, the
    /// polynomial clone), so both adversarial regimes stay bounded: a few
    /// enormous labels and floods of tiny distinct ones (at most ~16k
    /// entries). Exhausting the budget turns the cache over to a fresh
    /// epoch (see [`PrepCache::epochs`]); an entry too large for even a
    /// whole epoch's budget is handed out unshared instead.
    pub const KEY_BITS_BUDGET: u64 = 1 << 26;

    /// Flat per-entry charge against [`PrepCache::KEY_BITS_BUDGET`]:
    /// 4096 bits ≈ 512 bytes, a deliberate overestimate of the per-entry
    /// allocations around the key itself.
    pub const ENTRY_OVERHEAD_BITS: u64 = 1 << 12;

    /// The retention charge for an entry whose key is `key_bits` bits.
    pub(crate) fn key_cost(key_bits: usize) -> u64 {
        key_bits as u64 + Self::ENTRY_OVERHEAD_BITS
    }

    /// An empty cache with full budgets.
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: Rc::new(RefCell::new(EqStore::new())),
            labels: HashMap::default(),
            labels_epoch: 0,
        }
    }

    /// A clone of the shared fingerprint-store handle, for prepared
    /// instances that build plans lazily after binding time.
    pub(crate) fn store_handle(&self) -> Rc<RefCell<EqStore>> {
        Rc::clone(&self.store)
    }

    /// The lazy half of an epoch turnover: if the store has moved on to a
    /// newer epoch since this label map was last touched, drop the stale
    /// entries. Must run before any read of — or insert into — the label
    /// map.
    pub(crate) fn sync_labels(&mut self) {
        let epoch = self.store.borrow().epoch_count;
        if epoch != self.labels_epoch {
            self.labels.clear();
            self.labels_epoch = epoch;
        }
    }

    /// How many times the cache has turned over an epoch (cleared itself
    /// after exhausting a retention budget). 0 for a cache that has never
    /// overflowed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.store.borrow().epoch_count
    }

    /// Number of shared fingerprint preparations currently retained.
    #[must_use]
    pub fn shared_fingerprints(&self) -> usize {
        self.store.borrow().eq.len()
    }

    /// Number of shared replicated-label preparations currently retained.
    #[must_use]
    pub fn shared_labels(&self) -> usize {
        if self.store.borrow().epoch_count != self.labels_epoch {
            // Stale entries pending their lazy clear are already dead for
            // sharing purposes.
            return 0;
        }
        self.labels.len()
    }

    /// Retention cost (key bits plus per-entry overhead) charged in the
    /// current epoch — by construction never exceeds
    /// [`PrepCache::KEY_BITS_BUDGET`].
    #[must_use]
    pub fn retained_key_bits(&self) -> u64 {
        Self::KEY_BITS_BUDGET - self.store.borrow().key_bits
    }

    /// Evaluation-table slots granted in the current epoch — by
    /// construction never exceeds [`PrepCache::TABLE_SLOT_BUDGET`]. Slots
    /// are *reserved* when a preparation is allowed a table (the tables
    /// themselves build lazily), so this is an upper bound on the epoch's
    /// table memory, counted in `u64` entries.
    #[must_use]
    pub fn table_slots_reserved(&self) -> u64 {
        Self::TABLE_SLOT_BUDGET - self.store.borrow().table_slots
    }

    /// Lookups served from the cache since construction (label or
    /// fingerprint layer).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.store.borrow().hits
    }

    /// Lookups that prepared fresh state since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.store.borrow().misses
    }
}

/// A point-in-time snapshot of a [`PrepCache`]'s counters, as returned by
/// [`PrepCache::stats`]. Everything a service operator needs to judge
/// whether cross-tenant sharing is paying off: lifetime hit/miss counts,
/// epoch turnovers, and the current epoch's retained footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the cache since construction (label or
    /// fingerprint layer).
    pub hits: u64,
    /// Lookups that prepared fresh state since construction.
    pub misses: u64,
    /// Epoch turnovers so far (see [`PrepCache::epochs`]).
    pub epochs: u64,
    /// Retention cost charged in the current epoch, rounded up to bytes
    /// (key bytes plus per-entry overhead; see
    /// [`PrepCache::KEY_BITS_BUDGET`]).
    pub retained_bytes: u64,
    /// Shared fingerprint preparations currently retained.
    pub shared_fingerprints: usize,
    /// Shared replicated-label preparations currently retained.
    pub shared_labels: usize,
    /// Evaluation-table slots (`u64` entries) reserved in the current
    /// epoch.
    pub table_slots_reserved: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, `0.0` when the cache has
    /// never been consulted.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl PrepCache {
    /// A snapshot of the cache's counters; see [`CacheStats`].
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            epochs: self.epochs(),
            retained_bytes: self.retained_key_bits().div_ceil(8),
            shared_fingerprints: self.shared_fingerprints(),
            shared_labels: self.shared_labels(),
            table_slots_reserved: self.table_slots_reserved(),
        }
    }
}

impl Default for PrepCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PrepCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrepCache")
            .field("shared_fingerprints", &self.shared_fingerprints())
            .field("shared_labels", &self.shared_labels())
            .field("retained_key_bits", &self.retained_key_bits())
            .field("table_slots_reserved", &self.table_slots_reserved())
            .field("epochs", &self.epochs())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cache_is_empty_with_full_budgets() {
        let cache = PrepCache::new();
        assert_eq!(cache.shared_fingerprints(), 0);
        assert_eq!(cache.shared_labels(), 0);
        assert_eq!(cache.retained_key_bits(), 0);
        assert_eq!(cache.table_slots_reserved(), 0);
        assert_eq!(cache.epochs(), 0);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        let dbg = format!("{:?}", PrepCache::default());
        assert!(dbg.contains("PrepCache"));
    }

    #[test]
    fn stats_snapshot_mirrors_accessors() {
        let cache = PrepCache::new();
        let stats = cache.stats();
        assert_eq!(stats, CacheStats::default());
        assert_eq!(stats.hit_rate(), 0.0);
        let warm = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(warm.hit_rate(), 0.75);
    }
}
