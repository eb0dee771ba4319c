//! The service's length-prefixed wire format.
//!
//! A connection carries **frames**: a little-endian `u32` header word
//! followed by the payload bytes ([`write_frame`] / [`read_frame`]). Two
//! frame flavors share that header word: a **plain** frame (the word is
//! the payload length) and a **checksummed** frame (the high bit
//! [`FRAME_CHECKED_FLAG`] is set, and an 8-byte FNV-1a checksum of the
//! payload sits between the header and the payload — see
//! [`write_frame_checked`]). [`read_frame_tagged`] auto-detects the
//! flavor, so both coexist on one connection; the checksummed flavor lets
//! a client distinguish *transport corruption* (checksum mismatch — a
//! retryable I/O error) from a genuinely malformed job (a decode error
//! the service answers with [`ShedReason::Malformed`], which is terminal).
//!
//! Every payload opens with the 4-byte magic `b"RPLS"` and a version byte,
//! then a kind byte (request or reply) and the body. All integers are
//! little-endian; rates travel as IEEE-754 bit patterns; bit strings as a
//! bit length plus their canonical zero-padded bytes.
//!
//! The format is **versioned**: encoders emit [`VERSION`], decoders accept
//! every version back to [`MIN_VERSION`]. Version 2 appended the tenant
//! key and the optional per-job deadline to requests (and the
//! `DeadlineExceeded` / `WorkerFault` shed codes to replies); a version-1
//! frame still decodes bit-for-bit, with an empty tenant and no deadline.
//!
//! Decoding is **total**: [`JobRequest::decode`] and [`JobReply::decode`]
//! return a [`WireError`] on any malformed input — truncation, bad magic,
//! unknown tags, out-of-range rates, oversized collections — and never
//! panic, no matter the bytes (`tests/wire.rs` throws adversarial inputs
//! at them). Every field that could make the engine panic (zero trials,
//! zero rounds, non-probability rates, a labeling of the wrong arity) is
//! rejected at decode time instead.

use rpls_bits::BitString;
use rpls_core::engine::{MessagePattern, RunSpec, SeedSource, StreamMode};
use rpls_core::fault::{FaultPlan, FaultSpec, MAX_RETRY_BUDGET};
use rpls_core::prep::CacheStats;
use std::io::{self, Read, Write};
use std::num::NonZeroUsize;

/// Magic bytes opening every payload.
pub const MAGIC: [u8; 4] = *b"RPLS";

/// Wire-format version this crate emits.
pub const VERSION: u8 = 2;

/// Oldest wire-format version this crate still decodes.
pub const MIN_VERSION: u8 = 1;

/// Hard cap on a frame's payload length: 16 MiB. Anything larger is
/// rejected before allocation, so a hostile peer cannot make the service
/// reserve unbounded memory from a 4-byte header.
pub const MAX_FRAME_LEN: u32 = 1 << 24;

/// High bit of the frame header word, marking a **checksummed** frame:
/// the remaining 31 bits are the payload length and an 8-byte FNV-1a
/// checksum of the payload follows the header word. Plain frames (the
/// whole word is the length) never collide with the flag because
/// [`MAX_FRAME_LEN`] keeps legal lengths far below it.
pub const FRAME_CHECKED_FLAG: u32 = 1 << 31;

/// Cap on a request's deadline: one hour, in milliseconds. A deadline is
/// advice about *this* submission, not a calendar entry; anything longer
/// is a client bug and is rejected at decode time.
pub const MAX_DEADLINE_MS: u32 = 3_600_000;

/// Caps on decoded collection sizes, keeping adversarial payloads from
/// turning small frames into large allocations.
const MAX_NODES: u32 = 1 << 20;
const MAX_EDGES: u32 = 1 << 22;
const MAX_BITS: u32 = 1 << 24;
const MAX_NAME: u32 = 1 << 10;

/// Payload kind byte: a job submission.
const KIND_REQUEST: u8 = 0;
/// Payload kind byte: a completed job's estimate.
const KIND_OK: u8 = 1;
/// Payload kind byte: a shed job (rejected with a reason).
const KIND_SHED: u8 = 2;

/// Everything that can go wrong decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// Bytes remained after the last field.
    TrailingBytes,
    /// The payload does not open with [`MAGIC`].
    BadMagic,
    /// The version byte is not [`VERSION`].
    BadVersion(u8),
    /// An enum tag byte has no meaning.
    BadTag(&'static str, u8),
    /// A length or count field exceeds its cap.
    TooLarge(&'static str),
    /// A field is structurally present but semantically invalid.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "payload truncated"),
            Self::TrailingBytes => write!(f, "trailing bytes after payload"),
            Self::BadMagic => write!(f, "bad magic"),
            Self::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            Self::BadTag(what, t) => write!(f, "bad {what} tag {t}"),
            Self::TooLarge(what) => write!(f, "{what} exceeds wire cap"),
            Self::Invalid(what) => write!(f, "invalid {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// An undirected edge of a submitted configuration graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEdge {
    /// One endpoint (node index).
    pub u: u32,
    /// The other endpoint (node index).
    pub v: u32,
    /// Optional edge weight.
    pub weight: Option<u64>,
}

/// The fault environment of a job, as submitted on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaults {
    /// Per-message drop probability.
    pub drop_rate: f64,
    /// Per-message corruption probability.
    pub corrupt_rate: f64,
    /// Per-message duplication probability.
    pub duplicate_rate: f64,
    /// Per-(node, round) crash-stop hazard.
    pub crash_rate: f64,
    /// Multiround retry budget per failed chunk, at most
    /// [`MAX_RETRY_BUDGET`] (larger budgets fail decoding).
    pub retry_budget: u32,
    /// Seed of the fault schedule.
    pub fault_seed: u64,
}

impl WireFaults {
    /// The [`FaultPlan`] this wire description denotes.
    #[must_use]
    pub fn plan(&self) -> FaultPlan {
        let spec = FaultSpec::transparent()
            .with_drop(self.drop_rate)
            .with_corrupt(self.corrupt_rate)
            .with_duplicate(self.duplicate_rate)
            .with_crash(self.crash_rate)
            .with_retry_budget(self.retry_budget as usize);
        FaultPlan::new(spec, self.fault_seed)
    }
}

/// One verification job, fully specified on the wire: the scheme to run,
/// the configuration it runs on, the candidate labeling (or a request for
/// the honest prover's), and the [`RunSpec`] axes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Registry name of the scheme (see
    /// [`registry::build`](crate::registry::build)).
    pub scheme: String,
    /// Node count of the configuration graph.
    pub node_count: u32,
    /// Edges of the configuration graph.
    pub edges: Vec<WireEdge>,
    /// Explicit node identities (one per node), or `None` for the default
    /// `0..n` identities.
    pub ids: Option<Vec<u64>>,
    /// Scheme-specific scalar parameter (spanning-tree root, leader index;
    /// ignored by schemes that take none).
    pub param: u64,
    /// Scheme-specific payload (the uniformity payload; ignored by schemes
    /// that take none).
    pub payload: BitString,
    /// The candidate labeling to verify, one label per node — or `None` to
    /// verify the honest prover's labeling.
    pub labeling: Option<Vec<BitString>>,
    /// Monte-Carlo trial count (≥ 1).
    pub trials: u32,
    /// Schedule length `t` (≥ 1).
    pub rounds: u32,
    /// Message pattern certificates are shared under.
    pub pattern: MessagePattern,
    /// How per-port random streams are keyed.
    pub stream_mode: StreamMode,
    /// Fault environment, `None` for a clean network.
    pub faults: Option<WireFaults>,
    /// Private trial seed or public beacon coins.
    pub seed_source: SeedSource,
    /// The submitting tenant's key (empty = the anonymous default
    /// tenant). The service tracks in-flight jobs per tenant key for
    /// quota enforcement and fair shedding; the key is opaque — it
    /// never influences a verdict. Wire version ≥ 2; version-1 frames
    /// decode with an empty key.
    pub tenant: String,
    /// Optional per-job deadline, in milliseconds from submission. A job
    /// still queued when its deadline passes is shed with
    /// [`ShedReason::DeadlineExceeded`] instead of being computed
    /// uselessly. Wire version ≥ 2; version-1 frames decode with `None`.
    pub deadline_ms: Option<u32>,
}

impl JobRequest {
    /// The [`RunSpec`] this job denotes — the exact spec the service
    /// executes, exposed so tests can run the identical job directly
    /// against the engine.
    #[must_use]
    pub fn run_spec(&self) -> RunSpec {
        let mut spec = RunSpec::new(self.seed_source)
            .with_rounds(self.rounds as usize)
            .with_pattern(self.pattern)
            .with_stream_mode(self.stream_mode);
        if let Some(faults) = &self.faults {
            spec = spec.with_faults(faults.plan());
        }
        spec
    }

    /// Encodes the request as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, KIND_REQUEST);
        put_str(&mut out, &self.scheme);
        put_u32(&mut out, self.node_count);
        put_u32(&mut out, self.edges.len() as u32);
        for e in &self.edges {
            put_u32(&mut out, e.u);
            put_u32(&mut out, e.v);
            match e.weight {
                None => out.push(0),
                Some(w) => {
                    out.push(1);
                    put_u64(&mut out, w);
                }
            }
        }
        match &self.ids {
            None => out.push(0),
            Some(ids) => {
                out.push(1);
                for &id in ids {
                    put_u64(&mut out, id);
                }
            }
        }
        put_u64(&mut out, self.param);
        put_bits(&mut out, &self.payload);
        match &self.labeling {
            None => out.push(0),
            Some(labels) => {
                out.push(1);
                for label in labels {
                    put_bits(&mut out, label);
                }
            }
        }
        put_u32(&mut out, self.trials);
        put_u32(&mut out, self.rounds);
        match self.pattern {
            MessagePattern::PerPort => out.push(0),
            MessagePattern::Broadcast => out.push(1),
            MessagePattern::Unicast => out.push(2),
            MessagePattern::KMessages(k) => {
                out.push(3);
                // Every k at or above a node's degree is the same job, and
                // no graph on the wire has 2³² nodes: saturate.
                put_u32(&mut out, u32::try_from(k.get()).unwrap_or(u32::MAX));
            }
        }
        out.push(match self.stream_mode {
            StreamMode::EdgeIndependent => 0,
            StreamMode::SharedPerNode => 1,
        });
        match &self.faults {
            None => out.push(0),
            Some(f) => {
                out.push(1);
                put_u64(&mut out, f.drop_rate.to_bits());
                put_u64(&mut out, f.corrupt_rate.to_bits());
                put_u64(&mut out, f.duplicate_rate.to_bits());
                put_u64(&mut out, f.crash_rate.to_bits());
                put_u32(&mut out, f.retry_budget);
                put_u64(&mut out, f.fault_seed);
            }
        }
        match self.seed_source {
            SeedSource::Trial(seed) => {
                out.push(0);
                put_u64(&mut out, seed);
            }
            SeedSource::Beacon { round_id, value } => {
                out.push(1);
                put_u64(&mut out, round_id);
                put_u64(&mut out, value);
            }
        }
        // Version-2 tail: tenant key + optional deadline.
        put_str(&mut out, &self.tenant);
        match self.deadline_ms {
            None => out.push(0),
            Some(ms) => {
                out.push(1);
                put_u32(&mut out, ms);
            }
        }
        out
    }

    /// Decodes a frame payload. Total: any byte sequence yields `Ok` or a
    /// [`WireError`], never a panic. Accepts every version back to
    /// [`MIN_VERSION`]; fields a version predates decode to their
    /// defaults.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let version = c.header(KIND_REQUEST)?;
        let scheme = c.str(MAX_NAME, "scheme name")?;
        let node_count = c.u32()?;
        if node_count > MAX_NODES {
            return Err(WireError::TooLarge("node count"));
        }
        let edge_count = c.u32()?;
        if edge_count > MAX_EDGES {
            return Err(WireError::TooLarge("edge count"));
        }
        let mut edges = Vec::with_capacity(edge_count.min(1 << 12) as usize);
        for _ in 0..edge_count {
            let u = c.u32()?;
            let v = c.u32()?;
            let weight = match c.u8()? {
                0 => None,
                1 => Some(c.u64()?),
                t => return Err(WireError::BadTag("edge weight", t)),
            };
            if u >= node_count || v >= node_count {
                return Err(WireError::Invalid("edge endpoint"));
            }
            edges.push(WireEdge { u, v, weight });
        }
        let ids = match c.u8()? {
            0 => None,
            1 => {
                let mut ids = Vec::with_capacity(node_count.min(1 << 12) as usize);
                for _ in 0..node_count {
                    ids.push(c.u64()?);
                }
                Some(ids)
            }
            t => return Err(WireError::BadTag("ids", t)),
        };
        let param = c.u64()?;
        let payload_bits = c.bits()?;
        let labeling = match c.u8()? {
            0 => None,
            1 => {
                let mut labels = Vec::with_capacity(node_count.min(1 << 12) as usize);
                for _ in 0..node_count {
                    labels.push(c.bits()?);
                }
                Some(labels)
            }
            t => return Err(WireError::BadTag("labeling", t)),
        };
        let trials = c.u32()?;
        if trials == 0 {
            return Err(WireError::Invalid("trial count"));
        }
        let rounds = c.u32()?;
        if rounds == 0 {
            return Err(WireError::Invalid("round count"));
        }
        let pattern = match c.u8()? {
            0 => MessagePattern::PerPort,
            1 => MessagePattern::Broadcast,
            2 => MessagePattern::Unicast,
            3 => {
                let k = NonZeroUsize::new(c.u32()? as usize);
                MessagePattern::KMessages(k.ok_or(WireError::Invalid("k-messages k"))?)
            }
            t => return Err(WireError::BadTag("pattern", t)),
        };
        let stream_mode = match c.u8()? {
            0 => StreamMode::EdgeIndependent,
            1 => StreamMode::SharedPerNode,
            t => return Err(WireError::BadTag("stream mode", t)),
        };
        let faults = match c.u8()? {
            0 => None,
            1 => {
                let drop_rate = c.rate()?;
                let corrupt_rate = c.rate()?;
                let duplicate_rate = c.rate()?;
                let crash_rate = c.rate()?;
                let retry_budget = c.u32()?;
                // The core saturates larger budgets; the wire refuses them.
                if retry_budget as usize > MAX_RETRY_BUDGET {
                    return Err(WireError::Invalid("retry budget"));
                }
                let fault_seed = c.u64()?;
                Some(WireFaults {
                    drop_rate,
                    corrupt_rate,
                    duplicate_rate,
                    crash_rate,
                    retry_budget,
                    fault_seed,
                })
            }
            t => return Err(WireError::BadTag("faults", t)),
        };
        let seed_source = match c.u8()? {
            0 => SeedSource::Trial(c.u64()?),
            1 => SeedSource::Beacon {
                round_id: c.u64()?,
                value: c.u64()?,
            },
            t => return Err(WireError::BadTag("seed source", t)),
        };
        let (tenant, deadline_ms) = if version >= 2 {
            let tenant = c.str(MAX_NAME, "tenant key")?;
            let deadline_ms = match c.u8()? {
                0 => None,
                1 => {
                    let ms = c.u32()?;
                    if ms == 0 || ms > MAX_DEADLINE_MS {
                        return Err(WireError::Invalid("deadline"));
                    }
                    Some(ms)
                }
                t => return Err(WireError::BadTag("deadline", t)),
            };
            (tenant, deadline_ms)
        } else {
            (String::new(), None)
        };
        c.done()?;
        Ok(Self {
            scheme,
            node_count,
            edges,
            ids,
            param,
            payload: payload_bits,
            labeling,
            trials,
            rounds,
            pattern,
            stream_mode,
            faults,
            seed_source,
            tenant,
            deadline_ms,
        })
    }
}

/// Why the service refused a job instead of running it.
///
/// The taxonomy splits into **retryable** reasons — transient service
/// state the tenant should back off and resubmit through
/// ([`QueueFull`](Self::QueueFull), [`WorkerFault`](Self::WorkerFault);
/// see [`ShedReason::is_retryable`]) — and **terminal** reasons, where
/// resubmitting the identical job can only earn the identical refusal
/// ([`UnknownScheme`](Self::UnknownScheme), [`BadJob`](Self::BadJob),
/// [`Malformed`](Self::Malformed), and
/// [`DeadlineExceeded`](Self::DeadlineExceeded) — the job's own deadline
/// has already passed). The service *always* sheds with a reason: a job
/// never hangs and never takes the worker down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue had no fair room for this tenant — global
    /// backpressure, a per-tenant quota, or a fair-shedding eviction in
    /// favor of a lighter tenant. Retryable: back off and resubmit.
    QueueFull,
    /// The scheme name is not in the registry.
    UnknownScheme(String),
    /// The job was structurally valid on the wire but impossible to run
    /// (bad graph, labeling arity mismatch, parameter out of range, …).
    BadJob(String),
    /// The frame failed to decode.
    Malformed(String),
    /// The job's deadline passed while it waited in the queue, so the
    /// service shed it instead of computing a verdict nobody is waiting
    /// for. Terminal for *this* submission; the tenant may resubmit with
    /// a fresh deadline.
    DeadlineExceeded,
    /// The worker panicked while running this job. The panic cost exactly
    /// this job: the worker was respawned with a fresh cache and keeps
    /// serving. Retryable — though a job that *deterministically* crashes
    /// the worker will earn the same reply every time.
    WorkerFault,
}

impl ShedReason {
    /// Whether a client should back off and resubmit the identical job.
    /// `true` only for transient service-side states
    /// ([`QueueFull`](Self::QueueFull), [`WorkerFault`](Self::WorkerFault));
    /// every reason that indicts the job itself is terminal.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::QueueFull | Self::WorkerFault)
    }
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull => write!(f, "queue full"),
            Self::UnknownScheme(name) => write!(f, "unknown scheme {name:?}"),
            Self::BadJob(why) => write!(f, "bad job: {why}"),
            Self::Malformed(why) => write!(f, "malformed frame: {why}"),
            Self::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            Self::WorkerFault => write!(f, "worker fault (job panicked; worker respawned)"),
        }
    }
}

/// The result of one completed job: the engine's aggregate estimate plus a
/// snapshot of the shared cache's counters at completion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobResponse {
    /// Trials run.
    pub trials: u64,
    /// Trials whose every node voted accept.
    pub accepts: u64,
    /// Trials in which at least one node was missing input.
    pub degraded_trials: u64,
    /// Total missing messages over all trials.
    pub missing_messages: u64,
    /// Messages dropped in transit over all trials.
    pub dropped: u64,
    /// Messages corrupted and discarded over all trials.
    pub corrupted: u64,
    /// Messages delivered twice over all trials.
    pub duplicated: u64,
    /// Crash-stop hazards fired over all trials.
    pub crashed_nodes: u64,
    /// Retry transmissions over all trials.
    pub retries: u64,
    /// The shared cache's counters when the job completed.
    pub cache: CacheStats,
}

impl JobResponse {
    /// The estimated acceptance probability.
    #[must_use]
    pub fn acceptance(&self) -> f64 {
        self.accepts as f64 / self.trials as f64
    }
}

/// A reply frame: the job's estimate, or the reason it was shed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobReply {
    /// The job ran; here is its estimate.
    Ok(JobResponse),
    /// The job was refused.
    Shed(ShedReason),
}

impl JobReply {
    /// Encodes the reply as one frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::Ok(r) => {
                put_header(&mut out, KIND_OK);
                for word in [
                    r.trials,
                    r.accepts,
                    r.degraded_trials,
                    r.missing_messages,
                    r.dropped,
                    r.corrupted,
                    r.duplicated,
                    r.crashed_nodes,
                    r.retries,
                    r.cache.hits,
                    r.cache.misses,
                    r.cache.epochs,
                    r.cache.retained_bytes,
                    r.cache.shared_fingerprints as u64,
                    r.cache.shared_labels as u64,
                    r.cache.table_slots_reserved,
                ] {
                    put_u64(&mut out, word);
                }
            }
            Self::Shed(reason) => {
                put_header(&mut out, KIND_SHED);
                let (code, detail) = match reason {
                    ShedReason::QueueFull => (0u8, String::new()),
                    ShedReason::UnknownScheme(name) => (1, name.clone()),
                    ShedReason::BadJob(why) => (2, why.clone()),
                    ShedReason::Malformed(why) => (3, why.clone()),
                    ShedReason::DeadlineExceeded => (4, String::new()),
                    ShedReason::WorkerFault => (5, String::new()),
                };
                out.push(code);
                put_str(&mut out, &detail);
            }
        }
        out
    }

    /// Decodes a reply frame payload; total like [`JobRequest::decode`].
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(payload);
        let (_, kind) = c.header_any()?;
        let reply = match kind {
            KIND_OK => {
                let mut words = [0u64; 16];
                for w in &mut words {
                    *w = c.u64()?;
                }
                Self::Ok(JobResponse {
                    trials: words[0],
                    accepts: words[1],
                    degraded_trials: words[2],
                    missing_messages: words[3],
                    dropped: words[4],
                    corrupted: words[5],
                    duplicated: words[6],
                    crashed_nodes: words[7],
                    retries: words[8],
                    cache: CacheStats {
                        hits: words[9],
                        misses: words[10],
                        epochs: words[11],
                        retained_bytes: words[12],
                        shared_fingerprints: words[13] as usize,
                        shared_labels: words[14] as usize,
                        table_slots_reserved: words[15],
                    },
                })
            }
            KIND_SHED => {
                let code = c.u8()?;
                let detail = c.str(MAX_NAME, "shed detail")?;
                Self::Shed(match code {
                    0 => ShedReason::QueueFull,
                    1 => ShedReason::UnknownScheme(detail),
                    2 => ShedReason::BadJob(detail),
                    3 => ShedReason::Malformed(detail),
                    4 => ShedReason::DeadlineExceeded,
                    5 => ShedReason::WorkerFault,
                    t => return Err(WireError::BadTag("shed reason", t)),
                })
            }
            t => return Err(WireError::BadTag("reply kind", t)),
        };
        c.done()?;
        Ok(reply)
    }
}

/// Writes one **plain** frame: `u32` LE payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = frame_payload_len(payload)?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Writes one **checksummed** frame: the header word with
/// [`FRAME_CHECKED_FLAG`] set, an 8-byte FNV-1a checksum of the payload,
/// then the payload. A receiver that verifies the checksum (both
/// [`read_frame`] and [`read_frame_tagged`] do) turns any transport-level
/// corruption into a clean I/O error instead of a garbled — or worse, a
/// *plausible but different* — payload, which is what lets a retry policy
/// treat corruption as transient.
pub fn write_frame_checked(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = frame_payload_len(payload)?;
    w.write_all(&(len | FRAME_CHECKED_FLAG).to_le_bytes())?;
    w.write_all(&frame_checksum(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Validates a payload's length against [`MAX_FRAME_LEN`].
fn frame_payload_len(payload: &[u8]) -> io::Result<u32> {
    u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))
}

/// Splits a frame header word into `(payload length, checksummed?)`,
/// enforcing the [`MAX_FRAME_LEN`] cap **before** any allocation — a
/// hostile 4 GiB length prefix earns an error, never a reservation.
///
/// # Errors
///
/// `InvalidData` when the encoded length exceeds [`MAX_FRAME_LEN`].
pub fn frame_header(word: u32) -> io::Result<(usize, bool)> {
    let checked = word & FRAME_CHECKED_FLAG != 0;
    let len = word & !FRAME_CHECKED_FLAG;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    Ok((len as usize, checked))
}

/// The 64-bit FNV-1a checksum guarding checksummed frames. Not
/// cryptographic — it detects *accidental* corruption (the adversary
/// model here is a lossy wire, not a forger; forged jobs are harmless
/// because verdicts are pure functions of the request).
#[must_use]
pub fn frame_checksum(payload: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reads one frame's payload plus its flavor (`true` = checksummed).
/// Frames longer than [`MAX_FRAME_LEN`] are rejected before any
/// allocation; a checksummed frame whose checksum does not match its
/// payload is an `InvalidData` error.
pub fn read_frame_tagged(r: &mut impl Read) -> io::Result<(Vec<u8>, bool)> {
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let (len, checked) = frame_header(u32::from_le_bytes(word))?;
    let expected = if checked {
        let mut sum = [0u8; 8];
        r.read_exact(&mut sum)?;
        Some(u64::from_le_bytes(sum))
    } else {
        None
    };
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if let Some(expected) = expected {
        if frame_checksum(&payload) != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
    }
    Ok((payload, checked))
}

/// Reads one frame's payload, either flavor. See [`read_frame_tagged`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    read_frame_tagged(r).map(|(payload, _)| payload)
}

fn put_header(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bits(out: &mut Vec<u8>, bits: &BitString) {
    put_u32(out, bits.len() as u32);
    out.extend_from_slice(bits.as_bytes());
}

/// A bounds-checked little-endian reader over a payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    /// A probability in `[0, 1]` carried as IEEE-754 bits — anything else
    /// (NaN, negatives, > 1) is rejected here so the fault constructors'
    /// panics are unreachable from the wire.
    fn rate(&mut self) -> Result<f64, WireError> {
        let rate = f64::from_bits(self.u64()?);
        if rate.is_finite() && (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(WireError::Invalid("fault rate"))
        }
    }

    fn str(&mut self, cap: u32, what: &'static str) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > cap {
            return Err(WireError::TooLarge(what));
        }
        String::from_utf8(self.bytes(len as usize)?.to_vec())
            .map_err(|_| WireError::Invalid("utf-8 string"))
    }

    fn bits(&mut self) -> Result<BitString, WireError> {
        let len = self.u32()?;
        if len > MAX_BITS {
            return Err(WireError::TooLarge("bit string"));
        }
        let bytes = self.bytes((len as usize).div_ceil(8))?;
        Ok(BitString::from_bytes(bytes, len as usize))
    }

    /// Reads the payload header, requiring `kind`; returns the version.
    fn header(&mut self, kind: u8) -> Result<u8, WireError> {
        let (version, got) = self.header_any()?;
        if got == kind {
            Ok(version)
        } else {
            Err(WireError::BadTag("payload kind", got))
        }
    }

    /// Reads the payload header; returns `(version, kind)`. Every version
    /// in [`MIN_VERSION`]`..=`[`VERSION`] is accepted.
    fn header_any(&mut self) -> Result<(u8, u8), WireError> {
        if self.bytes(4)? != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = self.u8()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion(version));
        }
        Ok((version, self.u8()?))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}
