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
//!   the prepared equality inputs whose lazily built GF(p) evaluation
//!   tables are the expensive part of compiled preparation;
//! * whole replicated-label parses, keyed by the label's bits — the parsed
//!   `(κ, parts)` split plus the per-part fingerprints, so a label seen
//!   before (in this labeling or any earlier one) costs one hash lookup
//!   instead of a re-parse and re-preparation.
//!
//! **Cache poisoning is impossible by construction**: every key is the full
//! content the cached value is a function of (the index hashes the key and
//! then verifies it by equality on every hit), and the one
//! configuration- and scheme-dependent layer, the kept instances below, is
//! keyed by the identity of the very scheme and configuration objects it
//! was prepared for. One cache may therefore serve different labelings,
//! different configurations, and different compiled schemes; transcripts
//! are bit-identical to uncached preparation either way
//! (`tests/engine_golden.rs` pins it).
//!
//! # Epochs
//!
//! Everything the cache retains lives in one epoch: a byte arena
//! holding every string (label keys and length-prefixed fingerprinted
//! strings; a parsed part is the tail of its fingerprinted string), the
//! label and fingerprint records in two vectors indexed by `u32`, and one
//! open-addressing index of `u32` ids serving both layers. A prepared
//! instance refers to cached state by `(epoch, id)` and pins the epochs it
//! refers to through `Rc`. The inner verifier reads each part in place,
//! as the tail of its fingerprinted string, so every byte an epoch holds
//! is one the budget charges.
//!
//! Memory is bounded by two per-epoch budgets: an aggregate cap on
//! evaluation-table slots ([`PrepCache::TABLE_SLOT_BUDGET`], 64 MiB of
//! `u64`s) and a cap on the epoch's own size ([`PrepCache::KEY_BITS_BUDGET`]:
//! arena bytes, records and index slots). A miss that would overflow the
//! size cap **turns the epoch over** first — the cache swaps in an empty
//! epoch and drops its handle on the old one, which is freed once no
//! prepared instance pins it: a few large frees. A sweep of any length
//! thus keeps amortising against its recent candidates while the cache's
//! live memory stays bounded by one epoch (plus whatever outstanding
//! prepared instances pin). A label's preparation is sized before it
//! starts, so its entries never straddle two epochs; one too large for a
//! whole epoch is prepared into a private epoch of its own and shared with
//! no one. Values are identical shared or not, so neither budget
//! exhaustion nor an epoch boundary can ever change a transcript.
//!
//! # Kept instances
//!
//! A compiled scheme's prepared instance — each node's label reference
//! and arity fit, its memoised inner verdict, and the plan of every
//! schedule length `t` run so far — is a pure function of (compiled
//! scheme, configuration, labeling). The store keeps a few of them, so a
//! repeated `prepare_cached` of the same triple (a Monte-Carlo estimate
//! re-run under new seeds) returns the instance prepared before and pays
//! for its plans and inner verdicts once. The contract:
//!
//! * **Key.** The scheme and the configuration are matched by identity,
//!   never hashed: each carries an id drawn from one process-wide counter
//!   (`fresh_id`), assigned at construction, copied by `Clone` (the
//!   content is equal) and renewed by every mutation
//!   (`Configuration::state_mut`, `CompiledRpls::with_sketch` and
//!   `force_dynamic`). The labeling is matched exactly: every prepare
//!   still runs its label lookups, and a kept instance is returned only if
//!   each node's lookup lands on the same `(epoch, label id)` as the
//!   instance's — equal label content.
//! * **Second sight.** An instance is kept only when its (scheme,
//!   configuration) pair is prepared the second time or later; the store
//!   remembers the last `KEPT_INSTANCES` (8) pairs it saw. A caller that
//!   builds a fresh configuration and scheme for every job, as the service
//!   does, never keeps one.
//! * **Bound.** At most `KEPT_INSTANCES` instances are kept; the oldest
//!   goes first.
//! * **Turnover.** Turning over to a new epoch drops every kept instance,
//!   and an instance with a label outside the current epoch is never kept,
//!   so kept instances pin no retired epoch.

use crate::compiler::Instance;
use rpls_bits::{BitSlice, BitString};
use rpls_fingerprint::{EqEvaluator, EqProtocol, PreparedEq};
use std::cell::RefCell;
use std::hash::Hasher;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many compiled instances a cache keeps, and how many recently
/// prepared (scheme, configuration) pairs it remembers (see the module
/// docs).
const KEPT_INSTANCES: usize = 8;

/// A fresh identity from one process-wide counter: kept instances are
/// matched by the ids of the scheme and configuration they were prepared
/// for (see the module docs).
pub(crate) fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A multiply-rotate hasher (the `FxHash` construction) for the cache
/// index: the keys are multi-word bit strings hashed on every lookup of
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
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The index hash of a key: a domain word (a fingerprint's modulus, or
/// [`LABEL_DOMAIN`] for a label), the bit length, and the bytes.
fn key_hash(domain: u64, bits: BitSlice<'_>) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(domain);
    h.write_u64(bits.len() as u64);
    h.write(bits.as_bytes());
    // A xor-shift-multiply finaliser (MurmurHash3's `fmix64`): the
    // multiply-rotate mix alone leaves whole bit ranges of the result
    // depending on a few input bits, which clusters a linear-probed index.
    let mut x = h.finish();
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The hash domain of label keys. Moduli are below `2⁶³`, so no
/// fingerprint key shares it (a shared domain would only cost a probe:
/// entries are told apart by kind before their keys are compared).
const LABEL_DOMAIN: u64 = u64::MAX;

/// An empty index slot.
const EMPTY: u32 = u32::MAX;

/// Set on the index entries that name labels (their id in the low bits);
/// fingerprint entries are plain ids.
const LABEL_TAG: u32 = 1 << 31;

/// A `u32` id or offset of an epoch. An epoch within its budget is a few
/// MiB; only a private epoch holding one multi-GiB label could outgrow the
/// range.
fn epoch_u32(n: usize) -> u32 {
    u32::try_from(n).expect("epoch offsets and ids fit in u32")
}

/// A string in an epoch's arena: `len` bits starting at byte `at`,
/// zero-padded to whole bytes.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

/// The content-derived preparation of one replicated label — everything the
/// compiled prover and verifier need from the label that does not depend on
/// which node (or which configuration) carries it.
pub(crate) struct LabelRecord {
    /// The label's bits (the key).
    key: Span,
    /// The prover-side fingerprint of the `(κ, own-label)` prefix, `None`
    /// when that prefix is malformed (such nodes emit empty certificates).
    pub(crate) prover: Option<u32>,
    /// Where the label's part fingerprints start in [`Epoch::parts`].
    parts_at: u32,
    /// Number of parsed parts `(own, claimed₀, …, claimed_{d−1})`, 0 when
    /// the replication is malformed. Whether it matches a node's degree is
    /// checked at binding time, not here — degree is not label content.
    pub(crate) arity: u32,
}

/// One prepared fingerprint: the fingerprinted string and its prepared
/// equality input. When the string length-prefixes a parsed part, the
/// inner verifier reads that part in place (see [`Epoch::part`]).
struct EqRecord {
    coeffs: Span,
    prep: PreparedEq,
}

/// The smallest charge any retained entry adds to its epoch: its record,
/// and the two index slots the index keeps per entry at its maximum load.
/// (Spare capacity only adds to the charge.)
#[cfg(test)]
pub(crate) const MIN_ENTRY_BYTES: u64 = {
    let (label, eq) = (size_of::<LabelRecord>(), size_of::<EqRecord>());
    (if label < eq { label } else { eq } + 2 * size_of::<u32>()) as u64
};

/// What one miss may append to an epoch: an upper bound, since a lookup
/// that hits appends nothing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Growth {
    /// Arena bytes.
    bits: usize,
    labels: usize,
    eqs: usize,
    /// Part-list entries.
    parts: usize,
}

impl Growth {
    /// A fingerprint of a `bits`-bit string.
    pub(crate) fn eq(bits: usize) -> Self {
        Self {
            bits: bits.div_ceil(8),
            eqs: 1,
            ..Self::default()
        }
    }

    /// A label with a `key_bits`-bit key, `arity` parts, and one
    /// fingerprint per `fingerprinted` string length in bits.
    pub(crate) fn label(
        key_bits: usize,
        arity: usize,
        fingerprinted: impl Iterator<Item = usize>,
    ) -> Self {
        fingerprinted.fold(
            Self {
                bits: key_bits.div_ceil(8),
                labels: 1,
                eqs: 0,
                parts: arity,
            },
            |g, bits| Self {
                bits: g.bits.saturating_add(bits.div_ceil(8)),
                eqs: g.eqs + 1,
                ..g
            },
        )
    }
}

/// The capacity of a vector of `len` elements and capacity `cap` once it
/// has room for `add` more: unchanged when they fit, else at least doubled.
fn grown(len: usize, cap: usize, add: usize) -> usize {
    let need = len.saturating_add(add);
    if need <= cap {
        cap
    } else {
        need.max(cap.saturating_mul(2))
    }
}

/// Grows `v` to [`grown`]'s capacity for `add` more elements.
fn make_room<T>(v: &mut Vec<T>, add: usize) {
    let target = grown(v.len(), v.capacity(), add);
    if target > v.capacity() {
        v.reserve_exact(target - v.len());
    }
}

/// The bytes of `cap` elements of `T`.
fn heap<T>(cap: usize) -> u64 {
    (cap as u64).saturating_mul(size_of::<T>() as u64)
}

/// Appends bits `[start, start + len)` of the canonical string `src` to
/// `dst`, starting on a fresh byte, with the final byte's padding zeroed.
pub(crate) fn append_bits(dst: &mut Vec<u8>, src: &[u8], start: usize, len: usize) {
    let (first, shift) = (start / 8, (start % 8) as u32);
    let bytes = len.div_ceil(8);
    if shift == 0 {
        dst.extend_from_slice(&src[first..first + bytes]);
    } else {
        dst.extend((first..first + bytes).map(|i| {
            let next = src.get(i + 1).map_or(0, |&b| b >> (8 - shift));
            (src[i] << shift) | next
        }));
    }
    if !len.is_multiple_of(8) {
        let last = dst.last_mut().expect("a non-empty string was appended");
        *last &= 0xFFu8 << (8 - len % 8);
    }
}

/// Appends the fingerprinted form of the part at bits `[start, start +
/// len)` of `src` to `dst`: its 32-bit big-endian length, then the part
/// from a fresh byte (see [`append_bits`]), which [`part_of`] reads back.
pub(crate) fn append_length_prefixed(dst: &mut Vec<u8>, src: &[u8], start: usize, len: usize) {
    let prefix = u32::try_from(len).expect("part lengths are bounded by κ");
    dst.extend_from_slice(&prefix.to_be_bytes());
    append_bits(dst, src, start, len);
}

/// The part a fingerprinted string (see [`append_length_prefixed`])
/// holds, borrowed in place: the bits past its 4-byte prefix.
pub(crate) fn part_of(string: BitSlice<'_>) -> BitSlice<'_> {
    string.skip_bytes(4).expect("a 32-bit length prefix")
}

/// A shared handle on one epoch of a [`PrepCache`].
pub(crate) type SharedEpoch = Rc<RefCell<Epoch>>;

/// One epoch of a [`PrepCache`]: the arena, the records, and the index
/// (see the [module docs](self)). Entries are only ever appended; an epoch
/// is dropped whole.
pub(crate) struct Epoch {
    /// The byte arena every [`Span`] points into.
    bits: Vec<u8>,
    labels: Vec<LabelRecord>,
    eqs: Vec<EqRecord>,
    /// The part fingerprints of every label, each label's run contiguous:
    /// part 0's is the prover fingerprint, the rest the claimed copies' in
    /// port order.
    parts: Vec<u32>,
    /// Open addressing with linear probing over a power-of-two table of
    /// entry ids (labels tagged with [`LABEL_TAG`]), at most half full.
    index: Vec<u32>,
    /// Whether this epoch is the cache's (its fingerprints may be granted
    /// evaluation tables from the cache's slot budget) rather than a
    /// private one holding a single oversized entry.
    shared: bool,
}

impl Epoch {
    fn new(shared: bool) -> Self {
        Self {
            bits: Vec::new(),
            labels: Vec::new(),
            eqs: Vec::new(),
            parts: Vec::new(),
            index: Vec::new(),
            shared,
        }
    }

    /// The epoch's size in bytes: the allocations of its arena, records,
    /// part lists and index. This is what [`PrepCache::KEY_BITS_BUDGET`]
    /// caps.
    pub(crate) fn bytes(&self) -> u64 {
        heap::<u8>(self.bits.capacity())
            + heap::<LabelRecord>(self.labels.capacity())
            + heap::<EqRecord>(self.eqs.capacity())
            + heap::<u32>(self.parts.capacity())
            + heap::<u32>(self.index.capacity())
    }

    /// [`Epoch::bytes`] recounted from the records: checks that every
    /// arena byte belongs to exactly one record's string, every part-list
    /// entry to one label and every index entry to one record, then sums
    /// the allocations holding them.
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> u64 {
        let string = |s: Span| s.len.div_ceil(8) as usize;
        let keys: usize = self.labels.iter().map(|l| string(l.key)).sum();
        let coeffs: usize = self.eqs.iter().map(|e| string(e.coeffs)).sum();
        assert_eq!(
            keys + coeffs,
            self.bits.len(),
            "arena bytes outside records"
        );
        let arities: usize = self.labels.iter().map(|l| l.arity as usize).sum();
        assert_eq!(arities, self.parts.len(), "part entries outside labels");
        let filed = self.index.iter().filter(|&&e| e != EMPTY).count();
        assert_eq!(filed, self.labels.len() + self.eqs.len(), "index entries");
        fn allocation<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * size_of::<T>()) as u64
        }
        allocation(&self.bits)
            + allocation(&self.labels)
            + allocation(&self.eqs)
            + allocation(&self.parts)
            + allocation(&self.index)
    }

    /// Index slots needed to hold `entries` entries at most half full.
    fn slots_for(entries: usize) -> usize {
        match entries {
            0 => 0,
            n => n
                .saturating_mul(2)
                .checked_next_power_of_two()
                .unwrap_or(usize::MAX)
                .max(16),
        }
    }

    /// Whether this epoch stays within [`PrepCache::KEY_BITS_BUDGET`] once
    /// it has made room for `growth` (see [`Epoch::make_room`]).
    fn fits(&self, growth: &Growth) -> bool {
        let g = growth;
        let entries = (self.labels.len() + self.eqs.len()).saturating_add(g.labels + g.eqs);
        let after = heap::<u8>(grown(self.bits.len(), self.bits.capacity(), g.bits))
            .saturating_add(heap::<LabelRecord>(grown(
                self.labels.len(),
                self.labels.capacity(),
                g.labels,
            )))
            .saturating_add(heap::<EqRecord>(grown(
                self.eqs.len(),
                self.eqs.capacity(),
                g.eqs,
            )))
            .saturating_add(heap::<u32>(grown(
                self.parts.len(),
                self.parts.capacity(),
                g.parts,
            )))
            .saturating_add(heap::<u32>(
                Self::slots_for(entries).max(self.index.capacity()),
            ));
        after <= PrepCache::KEY_BITS_BUDGET / 8
    }

    /// Grows the arena, records and part lists so that `growth` appends
    /// without reallocating, exactly as [`Epoch::fits`] predicts. (The
    /// index grows itself, to [`Epoch::slots_for`] slots.)
    fn make_room(&mut self, growth: &Growth) {
        make_room(&mut self.bits, growth.bits);
        make_room(&mut self.labels, growth.labels);
        make_room(&mut self.eqs, growth.eqs);
        make_room(&mut self.parts, growth.parts);
    }

    fn span(&self, s: Span) -> BitSlice<'_> {
        let at = s.at as usize;
        BitSlice::new(
            &self.bits[at..at + s.len.div_ceil(8) as usize],
            s.len as usize,
        )
    }

    /// The label with id `id`.
    pub(crate) fn label(&self, id: u32) -> &LabelRecord {
        &self.labels[id as usize]
    }

    /// The part fingerprints of `label`: the prover's, then one per claimed
    /// neighbor copy in port order (empty when the replication is
    /// malformed).
    pub(crate) fn parts(&self, label: &LabelRecord) -> &[u32] {
        let at = label.parts_at as usize;
        &self.parts[at..at + label.arity as usize]
    }

    /// The prepared fingerprint with id `id`.
    pub(crate) fn eq(&self, id: u32) -> &PreparedEq {
        &self.eqs[id as usize].prep
    }

    /// The string fingerprint `id` fingerprints.
    pub(crate) fn coeffs(&self, id: u32) -> BitSlice<'_> {
        self.span(self.eqs[id as usize].coeffs)
    }

    /// An evaluation view of fingerprint `id`.
    pub(crate) fn evaluator(&self, id: u32) -> EqEvaluator<'_> {
        let rec = &self.eqs[id as usize];
        rec.prep.evaluator(self.span(rec.coeffs))
    }

    /// The parsed part fingerprint `id` length-prefixes, read in place
    /// for the inner verifier.
    pub(crate) fn part(&self, id: u32) -> BitSlice<'_> {
        part_of(self.coeffs(id))
    }

    /// The id of the entry with hash `hash` that `matches`, or the empty
    /// slot where it would go.
    fn probe(&self, hash: u64, matches: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.index[slot] {
                EMPTY => return Err(slot),
                entry if matches(entry) => return Ok(entry),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The hash an index entry was filed under.
    fn entry_hash(&self, entry: u32) -> u64 {
        if entry & LABEL_TAG != 0 {
            key_hash(
                LABEL_DOMAIN,
                self.span(self.labels[(entry ^ LABEL_TAG) as usize].key),
            )
        } else {
            let rec = &self.eqs[entry as usize];
            key_hash(rec.prep.protocol().modulus(), self.span(rec.coeffs))
        }
    }

    /// Files `entry` under `hash`, growing (and refiling) the index first
    /// when it would pass half full.
    fn file(&mut self, hash: u64, entry: u32) {
        let count = self.labels.len() + self.eqs.len();
        let slots = Self::slots_for(count);
        if slots > self.index.len() {
            let old = std::mem::replace(&mut self.index, vec![EMPTY; slots]);
            for e in old.into_iter().filter(|&e| e != EMPTY) {
                let h = self.entry_hash(e);
                let slot = self
                    .probe(h, |_| false)
                    .expect_err("refiled ids are distinct");
                self.index[slot] = e;
            }
        }
        let slot = self
            .probe(hash, |_| false)
            .expect_err("a new entry is not filed yet");
        self.index[slot] = entry;
    }

    /// The label whose bits are `key`, if this epoch holds it.
    pub(crate) fn find_label(&self, key: BitSlice<'_>) -> Option<u32> {
        let hit = self.probe(key_hash(LABEL_DOMAIN, key), |e| {
            e & LABEL_TAG != 0 && self.span(self.labels[(e ^ LABEL_TAG) as usize].key) == key
        });
        hit.ok().map(|e| e ^ LABEL_TAG)
    }

    /// Appends bits `[start, start + len)` of the canonical string `src` to
    /// the arena (see [`append_bits`]) — the staging step of
    /// [`Epoch::intern_eq`].
    pub(crate) fn stage_bits(&mut self, src: &[u8], start: usize, len: usize) {
        append_bits(&mut self.bits, src, start, len);
    }

    /// Appends the fingerprinted form of a part to the arena (see
    /// [`append_length_prefixed`]) — the staging step of
    /// [`Epoch::intern_eq`] for a part.
    pub(crate) fn stage_part(&mut self, src: &[u8], start: usize, len: usize) {
        append_length_prefixed(&mut self.bits, src, start, len);
    }

    /// The arena's current end, where the next staged string starts.
    pub(crate) fn mark(&self) -> usize {
        self.bits.len()
    }

    /// The fingerprint of the `len`-bit string staged at `mark` under
    /// `proto`: the existing entry if the epoch holds one (the staged bytes
    /// are dropped again), a new one otherwise. Counts the lookup in
    /// `tally`. A table allowance (`rounds_hint`) is granted only in a
    /// shared epoch and only while `tally`'s slot budget lasts; a hit under
    /// a bigger hint than its entry was born with is upgraded.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `proto`'s λ (callers bound it).
    pub(crate) fn intern_eq(
        &mut self,
        proto: &EqProtocol,
        mark: usize,
        len: usize,
        rounds_hint: usize,
        tally: &mut Tally,
    ) -> u32 {
        let modulus = proto.modulus();
        let key = BitSlice::new(&self.bits[mark..], len);
        let hash = key_hash(modulus, key);
        let hit = self.probe(hash, |e| {
            e & LABEL_TAG == 0 && {
                let rec = &self.eqs[e as usize];
                rec.prep.protocol().modulus() == modulus && self.span(rec.coeffs) == key
            }
        });
        if let Ok(id) = hit {
            self.bits.truncate(mark);
            tally.hits += 1;
            if self.shared {
                tally.grant(self.eq(id), rounds_hint);
            }
            return id;
        }
        tally.misses += 1;
        let hint = if self.shared && tally.table_slots >= modulus {
            rounds_hint
        } else {
            0
        };
        let prep = proto
            .prepare(len, hint)
            .expect("fingerprinted strings are bounded by λ");
        if prep.table_allowed() {
            tally.table_slots -= modulus;
        }
        let id = epoch_u32(self.eqs.len());
        self.eqs.push(EqRecord {
            coeffs: Span {
                at: epoch_u32(mark),
                len: epoch_u32(len),
            },
            prep,
        });
        self.file(hash, id);
        id
    }

    /// Files a label with key `key`, prover fingerprint `prover` and part
    /// fingerprints `parts` (all already interned here); returns its id.
    pub(crate) fn push_label(
        &mut self,
        key: &BitString,
        prover: Option<u32>,
        parts: &[u32],
    ) -> u32 {
        let at = self.mark();
        self.bits.extend_from_slice(key.as_bytes());
        let id = epoch_u32(self.labels.len());
        self.labels.push(LabelRecord {
            key: Span {
                at: epoch_u32(at),
                len: epoch_u32(key.len()),
            },
            prover,
            parts_at: epoch_u32(self.parts.len()),
            arity: epoch_u32(parts.len()),
        });
        self.parts.extend_from_slice(parts);
        self.file(key_hash(LABEL_DOMAIN, key.as_slice()), id | LABEL_TAG);
        id
    }

    /// Re-evaluates the table allowances of a label hit: its fingerprints
    /// were skipped entirely (that is the point of the label layer), so the
    /// round-hint upgrade of [`Epoch::intern_eq`] is applied to them
    /// directly.
    pub(crate) fn upgrade_tables(&self, label: u32, rounds_hint: usize, tally: &mut Tally) {
        let label = self.label(label);
        let parts = self.parts(label).iter().skip(1);
        for &id in label.prover.iter().chain(parts) {
            tally.grant(self.eq(id), rounds_hint);
        }
    }
}

/// The cache-wide counters and the evaluation-table slot budget.
pub(crate) struct Tally {
    /// Remaining evaluation-table slots (`u64` entries) this cache may
    /// still grant in the current epoch.
    table_slots: u64,
    /// Lookups served from the cache (either layer).
    pub(crate) hits: u64,
    /// Lookups that had to prepare fresh state (either layer).
    pub(crate) misses: u64,
}

impl Tally {
    /// Grants `prep` a table allowance for `rounds_hint` rounds if that
    /// newly justifies one and the slot budget covers it.
    fn grant(&mut self, prep: &PreparedEq, rounds_hint: usize) {
        let modulus = prep.protocol().modulus();
        if self.table_slots >= modulus && prep.permit_table(rounds_hint) {
            self.table_slots -= modulus;
        }
    }
}

/// The shared state of a [`PrepCache`]: the current epoch plus budgets and
/// counters, behind one handle so prepared instances can keep requesting
/// content-keyed preparations *after* binding time — the planner cuts
/// slice fingerprints on first use of each `t`, long after
/// `prepare_cached` returned — against the same epoch and budgets as
/// binding-time preparation. It also holds the kept compiled instances.
pub(crate) struct Store {
    /// The epoch new entries go to.
    current: SharedEpoch,
    /// Epoch turnovers so far (see [`PrepCache::epochs`]).
    epoch_count: u64,
    pub(crate) tally: Tally,
    /// Kept compiled instances, oldest first (see the module docs).
    pub(crate) instances: Vec<Rc<Instance>>,
    /// The (scheme, configuration) id pairs prepared most recently, oldest
    /// first.
    sightings: Vec<(u64, u64)>,
}

impl Store {
    fn new() -> Self {
        Self {
            current: Rc::new(RefCell::new(Epoch::new(true))),
            epoch_count: 0,
            tally: Tally {
                table_slots: PrepCache::TABLE_SLOT_BUDGET,
                hits: 0,
                misses: 0,
            },
            instances: Vec::new(),
            sightings: Vec::new(),
        }
    }

    /// The current epoch.
    pub(crate) fn current(&self) -> SharedEpoch {
        Rc::clone(&self.current)
    }

    /// Records a freshly prepared `instance` and keeps it if its (scheme,
    /// configuration) pair was seen before and every label epoch it pins
    /// is the current one (see the module docs).
    pub(crate) fn keep(&mut self, instance: &Rc<Instance>) {
        let key = instance.key();
        let seen = self.sightings.contains(&key) || self.instances.iter().any(|i| i.key() == key);
        if !seen {
            if self.sightings.len() == KEPT_INSTANCES {
                self.sightings.remove(0);
            }
            self.sightings.push(key);
            return;
        }
        if instance.pins().iter().all(|e| Rc::ptr_eq(e, &self.current)) {
            if self.instances.len() == KEPT_INSTANCES {
                self.instances.remove(0);
            }
            self.instances.push(Rc::clone(instance));
        }
    }

    /// The epoch a miss appending at most `growth` is prepared into, with
    /// room made for it: the current one if the miss fits it; else, if it
    /// fits an empty epoch, a fresh one the cache turns over to; else a
    /// private epoch shared with no one.
    pub(crate) fn target(&mut self, growth: &Growth) -> SharedEpoch {
        let epoch = if self.current.borrow().fits(growth) {
            self.current()
        } else if Epoch::new(true).fits(growth) {
            // Turnover: drop the cache's handle on the old epoch (freed
            // now, or when the last prepared instance pinning it drops),
            // and the kept instances, which pin it too, and reset the
            // table budget. Values never depend on sharing, so an epoch
            // boundary can never change a transcript.
            self.instances.clear();
            self.current = Rc::new(RefCell::new(Epoch::new(true)));
            self.tally.table_slots = PrepCache::TABLE_SLOT_BUDGET;
            self.epoch_count += 1;
            self.current()
        } else {
            Rc::new(RefCell::new(Epoch::new(false)))
        };
        epoch.borrow_mut().make_room(growth);
        epoch
    }
}

/// A preparation cache shared across labelings (and configurations); see
/// the [module docs](self) for the contract.
///
/// Besides content-keyed label and fingerprint preparations, a cache keeps
/// up to eight whole compiled instances: a repeated `prepare_cached` of the
/// same compiled scheme, configuration and labeling returns the instance
/// prepared before, with its plans and memoised inner verdicts. Scheme and
/// configuration are matched by identity (a clone matches, a mutated
/// configuration or a rebuilt scheme does not), the labeling by content.
/// An instance is kept only the second time its scheme and configuration
/// are prepared together, and every kept instance is dropped when the
/// cache turns over to a new epoch.
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
    /// The current epoch, budgets and counters, behind a shared handle
    /// (see [`Store`]).
    pub(crate) store: Rc<RefCell<Store>>,
    /// Scratch for label parsing: the bit ranges of the parts.
    pub(crate) part_ranges: Vec<(usize, usize)>,
    /// Scratch for label preparation: the part fingerprint ids.
    pub(crate) part_ids: Vec<u32>,
    /// Scratch for binding a labeling: each node's `(epoch slot, label
    /// id)`, compared in place against the kept instances.
    pub(crate) found: Vec<(u32, u32)>,
}

impl PrepCache {
    /// Aggregate cap on evaluation-table slots a cache may grant: `2²³`
    /// `u64` entries ≈ 64 MiB. Each table is additionally capped
    /// individually inside `EqProtocol::prepare`; this budget stops an
    /// adversarial sweep from multiplying per-table cost by labels × ports
    /// × labelings.
    pub const TABLE_SLOT_BUDGET: u64 = 1 << 23;

    /// Cap on the size of an epoch, in bits: `2²⁶` = 8 MiB. An epoch is
    /// charged its real size — the allocations holding its arena of
    /// strings, its label and fingerprint records, its part lists and its
    /// index slots, spare capacity included — so both adversarial regimes
    /// stay bounded: a few enormous labels and floods of tiny distinct
    /// ones (each entry costs at least its record and two index slots).
    /// A miss that would overflow the budget turns the cache over to a
    /// fresh epoch first (see [`PrepCache::epochs`]); a label too large
    /// for even a whole epoch is prepared into a private epoch and shared
    /// with no one. The lazily built evaluation tables are capped
    /// separately by [`PrepCache::TABLE_SLOT_BUDGET`].
    pub const KEY_BITS_BUDGET: u64 = 1 << 26;

    /// An empty cache with full budgets.
    #[must_use]
    pub fn new() -> Self {
        Self {
            store: Rc::new(RefCell::new(Store::new())),
            part_ranges: Vec::new(),
            part_ids: Vec::new(),
            found: Vec::new(),
        }
    }

    /// A clone of the shared store handle, for prepared instances that
    /// build plans lazily after binding time.
    pub(crate) fn store_handle(&self) -> Rc<RefCell<Store>> {
        Rc::clone(&self.store)
    }

    /// How many times the cache has turned over an epoch (started a fresh
    /// one after exhausting the size budget). 0 for a cache that has never
    /// overflowed.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.store.borrow().epoch_count
    }

    /// Number of shared fingerprint preparations in the current epoch.
    #[must_use]
    pub fn shared_fingerprints(&self) -> usize {
        self.store.borrow().current.borrow().eqs.len()
    }

    /// Number of shared replicated-label preparations in the current epoch.
    #[must_use]
    pub fn shared_labels(&self) -> usize {
        self.store.borrow().current.borrow().labels.len()
    }

    /// The current epoch's size in bits (the allocations of its arena,
    /// records and index; see [`PrepCache::KEY_BITS_BUDGET`]) — by
    /// construction never exceeds the budget.
    #[must_use]
    pub fn retained_key_bits(&self) -> u64 {
        self.store.borrow().current.borrow().bytes() * 8
    }

    /// Evaluation-table slots granted in the current epoch — by
    /// construction never exceeds [`PrepCache::TABLE_SLOT_BUDGET`]. Slots
    /// are *reserved* when a preparation is allowed a table (the tables
    /// themselves build lazily), so this is an upper bound on the epoch's
    /// table memory, counted in `u64` entries.
    #[must_use]
    pub fn table_slots_reserved(&self) -> u64 {
        Self::TABLE_SLOT_BUDGET - self.store.borrow().tally.table_slots
    }

    /// Lookups served from the cache since construction (label or
    /// fingerprint layer).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.store.borrow().tally.hits
    }

    /// Lookups that prepared fresh state since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.store.borrow().tally.misses
    }

    /// The current epoch's size recounted from its records (see
    /// [`Epoch::recount_bytes`]).
    #[cfg(test)]
    pub(crate) fn recount_bytes(&self) -> u64 {
        self.store.borrow().current.borrow().recount_bytes()
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
    /// The current epoch's size in bytes: the allocations of its arena,
    /// records and index (see [`PrepCache::KEY_BITS_BUDGET`]).
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
            retained_bytes: self.retained_key_bits() / 8,
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
