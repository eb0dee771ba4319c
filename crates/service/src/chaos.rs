//! A deterministic network-chaos harness: a TCP interposer whose
//! byte-level faults replay from a seed.
//!
//! [`ChaosProxy`] sits between a client and the service's TCP front and
//! perturbs the byte streams — drop, corrupt, truncate, split, delay —
//! the same way the engine's
//! [`FaultPlan`](rpls_core::fault::FaultPlan) perturbs CONGEST messages:
//! every decision is a pure function of `(seed, connection index,
//! direction, byte index)` through the engine's own SplitMix64 counter
//! streams ([`rpls_core::rng`]). Two consequences make the harness a
//! *harness* rather than mere noise:
//!
//! * **Chunking independence** — decisions key on a byte's *index in the
//!   stream*, not on how the OS happened to batch reads, so the fault
//!   pattern a seed denotes does not depend on scheduler timing.
//! * **Replayability** — rerunning the same workload through a proxy with
//!   the same [`ChaosPlan`] reproduces the same delivered bytes, hence
//!   the same retries, sheds, and verdicts (`tests/chaos.rs` pins this).
//!
//! Faults are per-byte hazards, each drawn from its own decision stream
//! (so enabling one never shifts another — the same recipe as
//! `FaultSpec`'s independent per-message draws):
//!
//! * **drop** — the byte silently vanishes from the stream (downstream
//!   sees a shorter frame: a checksum failure or a read deadline);
//! * **corrupt** — one bit of the byte flips (caught by checksummed
//!   frames, surfacing as a retryable transport error);
//! * **truncate** — the stream is cut and the connection killed from
//!   this byte on (both directions);
//! * **split** — a write boundary is forced before this byte (content
//!   neutral; exercises the front's partial-read paths);
//! * **delay** — forwarding pauses for [`ChaosPlan::delay`] before this
//!   byte (content neutral; exercises deadlines).
//!
//! The proxy runs on the TCP front's blocking accept loop ([`crate::tcp`]);
//! its stop wake-up is never counted, indexed, or dialled upstream.

use crate::tcp::{poll_expired, Acceptor, POLL_SLICE};
use rpls_core::rng::{mix_seed, state_stream_word};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// 2⁶⁴ as an `f64`, the scale mapping a probability to a 64-bit
/// threshold (the [`rpls_core::fault`] convention).
const TWO_64: f64 = 18_446_744_073_709_551_616.0;

/// Domain tags for the per-action decision streams.
const TAG_DROP: u64 = 1;
const TAG_CORRUPT: u64 = 2;
const TAG_TRUNCATE: u64 = 3;
const TAG_SPLIT: u64 = 4;
const TAG_DELAY: u64 = 5;

/// The seeded fault recipe a [`ChaosProxy`] applies. All rates are
/// per-byte probabilities in `[0, 1]`; the default is transparent (all
/// zero).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed of every decision stream.
    pub seed: u64,
    /// Per-byte hazard of the byte vanishing from the stream.
    pub drop_rate: f64,
    /// Per-byte hazard of a single bit flip.
    pub corrupt_rate: f64,
    /// Per-byte hazard of the connection being cut from this byte on.
    pub truncate_rate: f64,
    /// Per-byte hazard of a forced write boundary before this byte.
    pub split_rate: f64,
    /// Per-byte hazard of pausing for [`ChaosPlan::delay`].
    pub delay_rate: f64,
    /// The pause a delay hazard inserts.
    pub delay: Duration,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            split_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::from_millis(1),
        }
    }
}

impl ChaosPlan {
    /// A transparent plan with the given seed — a starting point for the
    /// builder-style rate setters.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Whether every hazard is zero (the proxy forwards verbatim).
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.drop_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.truncate_rate <= 0.0
            && self.split_rate <= 0.0
            && self.delay_rate <= 0.0
    }

    /// Whether the hazard tagged `tag` fires for byte `index` of `link`,
    /// also returning the decision word (its high bits pick e.g. which
    /// bit a corruption flips).
    fn hazard(&self, tag: u64, link: u64, index: u64, rate: f64) -> (bool, u64) {
        if rate <= 0.0 {
            return (false, 0);
        }
        let state = mix_seed(self.seed, link, tag);
        let word = state_stream_word(state, index);
        (u128::from(word) < threshold(rate), word)
    }
}

/// Maps a probability to its threshold over the 64-bit word space; exact
/// at the endpoints (0.0 never fires, 1.0 always fires).
fn threshold(rate: f64) -> u128 {
    (rate.clamp(0.0, 1.0) * TWO_64) as u128
}

/// Lifetime counters of a [`ChaosProxy`] — what the chaos actually did.
/// Useful for asserting a run was genuinely exercised (nonzero faults);
/// byte totals on killed connections can race the peer's teardown, so
/// replay assertions should compare client/service accounting instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Connections accepted (and interposed).
    pub connections: u64,
    /// Bytes that arrived at the proxy (both directions, pre-fault).
    pub bytes_seen: u64,
    /// Bytes silently dropped.
    pub bytes_dropped: u64,
    /// Bytes forwarded with a flipped bit.
    pub bytes_corrupted: u64,
    /// Connections cut by a truncate hazard.
    pub truncations: u64,
    /// Forced write boundaries.
    pub splits: u64,
    /// Delay pauses inserted.
    pub delays: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    bytes_seen: AtomicU64,
    bytes_dropped: AtomicU64,
    bytes_corrupted: AtomicU64,
    truncations: AtomicU64,
    splits: AtomicU64,
    delays: AtomicU64,
}

/// A running chaos interposer: connect to [`ChaosProxy::addr`] instead of
/// the upstream service and every byte in both directions runs the
/// [`ChaosPlan`] gauntlet. Connection indices are assigned in accept
/// order, so a client opening connections sequentially gets a fully
/// deterministic fault pattern.
pub struct ChaosProxy {
    acceptor: Acceptor,
    counters: Arc<Counters>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and interposes every accepted connection onto
    /// `upstream` under `plan`.
    ///
    /// # Errors
    ///
    /// Propagates listener binding and thread spawn failures.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> io::Result<Self> {
        let counters = Arc::new(Counters::default());
        let stats = Arc::clone(&counters);
        let mut conn_index = 0u64;
        let acceptor = Acceptor::spawn("rpls-chaos-accept", move |client, stop| {
            stats.connections.fetch_add(1, Ordering::Relaxed);
            let index = conn_index;
            conn_index += 1;
            match TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) {
                Ok(server) => spawn_pumps(client, server, plan, index, stop, &stats),
                Err(_) => {
                    let _ = client.shutdown(Shutdown::Both);
                }
            }
            None
        })?;
        Ok(Self { acceptor, counters })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr
    }

    /// A snapshot of what the chaos has done so far.
    #[must_use]
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            bytes_seen: self.counters.bytes_seen.load(Ordering::Relaxed),
            bytes_dropped: self.counters.bytes_dropped.load(Ordering::Relaxed),
            bytes_corrupted: self.counters.bytes_corrupted.load(Ordering::Relaxed),
            truncations: self.counters.truncations.load(Ordering::Relaxed),
            splits: self.counters.splits.load(Ordering::Relaxed),
            delays: self.counters.delays.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and tears down; connections already interposed are
    /// cut (chaos is allowed to be rude on shutdown).
    pub fn stop(mut self) {
        self.acceptor.stop();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.acceptor.stop();
    }
}

/// Starts the two directional pumps of one interposed connection. Each
/// direction is its own link (`connection index * 2 + direction`) with
/// its own decision streams; killing either side shuts the whole
/// connection down, as a real middlebox failure would.
fn spawn_pumps(
    client: TcpStream,
    server: TcpStream,
    plan: ChaosPlan,
    index: u64,
    stop: &Arc<AtomicBool>,
    counters: &Arc<Counters>,
) {
    let pairs = [
        (client.try_clone(), server.try_clone(), index * 2),
        (server.try_clone(), client.try_clone(), index * 2 + 1),
    ];
    for (from, to, link) in pairs {
        let (Ok(from), Ok(to)) = (from, to) else {
            let _ = client.shutdown(Shutdown::Both);
            let _ = server.shutdown(Shutdown::Both);
            return;
        };
        let stop = Arc::clone(stop);
        let counters = Arc::clone(counters);
        // Pump threads detach; they exit on EOF, a truncate hazard, a
        // peer shutdown, or the stop flag.
        let _ = std::thread::Builder::new()
            .name("rpls-chaos-pump".into())
            .spawn(move || pump(from, to, plan, link, &stop, &counters));
    }
}

/// Forwards one direction byte-by-byte through the hazard gauntlet.
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    plan: ChaosPlan,
    link: u64,
    stop: &AtomicBool,
    counters: &Counters,
) {
    if from.set_read_timeout(Some(POLL_SLICE)).is_err() {
        return;
    }
    let mut buf = [0u8; 4096];
    let mut out = Vec::with_capacity(4096);
    let mut index = 0u64;
    'outer: loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if poll_expired(&e) || e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        counters.bytes_seen.fetch_add(n as u64, Ordering::Relaxed);
        out.clear();
        for &byte in &buf[..n] {
            let i = index;
            index += 1;
            if plan.hazard(TAG_TRUNCATE, link, i, plan.truncate_rate).0 {
                counters.truncations.fetch_add(1, Ordering::Relaxed);
                // Cut, don't flush: bytes queued before the cut are lost
                // with it.
                break 'outer;
            }
            if plan.hazard(TAG_DROP, link, i, plan.drop_rate).0 {
                counters.bytes_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if plan.hazard(TAG_SPLIT, link, i, plan.split_rate).0 && !out.is_empty() {
                counters.splits.fetch_add(1, Ordering::Relaxed);
                if to.write_all(&out).is_err() || to.flush().is_err() {
                    break 'outer;
                }
                out.clear();
            }
            if plan.hazard(TAG_DELAY, link, i, plan.delay_rate).0 {
                counters.delays.fetch_add(1, Ordering::Relaxed);
                if !out.is_empty() {
                    if to.write_all(&out).is_err() || to.flush().is_err() {
                        break 'outer;
                    }
                    out.clear();
                }
                std::thread::sleep(plan.delay);
            }
            let (corrupt, word) = plan.hazard(TAG_CORRUPT, link, i, plan.corrupt_rate);
            if corrupt {
                counters.bytes_corrupted.fetch_add(1, Ordering::Relaxed);
                out.push(byte ^ (1 << ((word >> 32) % 8)));
            } else {
                out.push(byte);
            }
        }
        if !out.is_empty() && (to.write_all(&out).is_err() || to.flush().is_err()) {
            break;
        }
    }
    // Tear both half-connections down so the twin pump exits too.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
