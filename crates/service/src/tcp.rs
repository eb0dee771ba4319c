//! The TCP front for the service: one blocking accept loop, a handler
//! thread per connection, frame deadlines on every read and write.
//!
//! Each connection carries any number of request frames (see [`wire`]);
//! every frame gets exactly one reply frame — the job's estimate, or the
//! shed reason (including [`ShedReason::Malformed`] for bytes that don't
//! decode, so a confused client hears *why* instead of a closed socket).
//! Replies answer in the flavor they were asked in: a checksummed request
//! frame gets a checksummed reply frame.
//!
//! # Accepting: blocked, never polled
//!
//! The listener thread sits in a blocking `accept()`, so a connection is
//! handed to its handler the moment it arrives. Stopping sets the stop
//! flag, then wakes the blocked `accept()` with one loopback connect to
//! the front's own address; the loop checks the flag after every accept
//! and drops that wake-up connection unserved. An accept error never ends
//! the loop — it pauses briefly and keeps serving until stop. The
//! [`ChaosProxy`](crate::chaos::ChaosProxy) runs on the same loop.
//!
//! # Deadlines: a slow client costs a timeout, never the service
//!
//! Connections are served on their own threads, so a slowloris — a client
//! trickling a frame one byte at a time — can no longer wedge the accept
//! loop. It cannot wedge its own handler either: from the moment a
//! frame's first byte arrives, the whole frame must land within
//! [`FrontConfig::frame_timeout`] or the connection is dropped, and the
//! reply write runs under the same budget. Waiting *between* frames is
//! governed separately by [`FrontConfig::idle_timeout`] (unlimited by
//! default — an idle connection parks cheaply on a poll loop).
//!
//! # Stop drains
//!
//! [`TcpFront::stop`] closes the accept loop, then joins every live
//! connection handler. Handlers observe the stop flag only while idle
//! between frames, so a frame already in flight is read, served, and
//! answered before its connection closes — bounded by `frame_timeout`,
//! never abandoned mid-frame.

use crate::service::Service;
use crate::wire::{self, JobReply, JobRequest, ShedReason};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The read-poll slice: how often a blocked read re-checks its deadline
/// (and, while idle, the stop flag).
pub(crate) const POLL_SLICE: Duration = Duration::from_millis(20);

/// The pause after an accept error (or a failed stop wake-up connect), so
/// an error storm such as fd exhaustion cannot spin the loop.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// Deadline knobs for the TCP front.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Budget for one whole frame, counted from its first byte: header,
    /// payload, and the reply write each complete within this or the
    /// connection is dropped. Clamped to at least 1ms.
    pub frame_timeout: Duration,
    /// How long a connection may sit idle between frames before the front
    /// hangs up. `None` (the default) means idle connections are kept
    /// until the client leaves or the front stops.
    pub idle_timeout: Option<Duration>,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            frame_timeout: Duration::from_secs(5),
            idle_timeout: None,
        }
    }
}

/// A running TCP front. Stop it with [`TcpFront::stop`]; dropping without
/// stopping leaves the listener thread running until the process exits.
pub struct TcpFront {
    acceptor: Acceptor,
}

impl TcpFront {
    /// Binds `127.0.0.1:0` (an OS-assigned port — read it back with
    /// [`TcpFront::addr`]) and serves `service` with default
    /// [`FrontConfig`] deadlines until stopped.
    ///
    /// # Errors
    ///
    /// Propagates listener binding failures.
    pub fn spawn(service: Arc<Service>) -> io::Result<Self> {
        Self::spawn_with(service, FrontConfig::default())
    }

    /// Like [`TcpFront::spawn`] with explicit deadline knobs.
    ///
    /// # Errors
    ///
    /// Propagates listener binding and thread spawn failures.
    pub fn spawn_with(service: Arc<Service>, config: FrontConfig) -> io::Result<Self> {
        let acceptor = Acceptor::spawn("rpls-tcp-accept", move |stream, stop| {
            let service = Arc::clone(&service);
            let config = config.clone();
            let stop = Arc::clone(stop);
            std::thread::Builder::new()
                .name("rpls-tcp-conn".into())
                .spawn(move || serve_connection(stream, &service, &config, &stop))
                .ok()
        })?;
        Ok(Self { acceptor })
    }

    /// The address the front is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr
    }

    /// Stops the accept loop and drains: every connection finishes (and
    /// answers) the frame it is currently reading, then closes. Returns
    /// once all handlers have exited.
    pub fn stop(mut self) {
        self.acceptor.stop();
    }
}

/// A `127.0.0.1:0` listener served by one blocking accept loop on its own
/// thread — the socket layer under both [`TcpFront`] and
/// [`ChaosProxy`](crate::chaos::ChaosProxy).
pub(crate) struct Acceptor {
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds and starts [`accept_loop`] on a thread called `name`.
    pub(crate) fn spawn<F>(name: &str, on_accept: F) -> io::Result<Self>
    where
        F: FnMut(TcpStream, &Arc<AtomicBool>) -> Option<JoinHandle<()>> + Send + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || accept_loop(&listener, &flag, on_accept))?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Sets the stop flag, wakes the blocked `accept()` with a loopback
    /// connect, and joins the loop (which joins its handlers). Idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            // One connect suffices: once it lands in the backlog the loop
            // wakes. Retry only if it could not be made at all.
            while TcpStream::connect_timeout(&self.addr, ACCEPT_ERROR_PAUSE).is_err()
                && !handle.is_finished()
            {
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
            let _ = handle.join();
        }
    }
}

/// Blocks in `accept()` until stop (see the module docs). `on_accept` runs
/// for every accepted connection, in accept order; a handler thread it
/// returns is reaped once finished and joined on the way out — stop means
/// drain, not abandon.
fn accept_loop<F>(listener: &TcpListener, stop: &Arc<AtomicBool>, mut on_accept: F)
where
    F: FnMut(TcpStream, &Arc<AtomicBool>) -> Option<JoinHandle<()>>,
{
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                handlers.retain(|h| !h.is_finished());
                handlers.extend(on_accept(stream, stop));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            // E.g. fd exhaustion: keep serving, but don't spin.
            Err(_) => std::thread::sleep(ACCEPT_ERROR_PAUSE),
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Serves one connection: request frame in, reply frame out (in the same
/// frame flavor), until EOF, stop-while-idle, a missed deadline, or an
/// unwritable socket.
fn serve_connection(
    mut stream: TcpStream,
    service: &Service,
    config: &FrontConfig,
    stop: &AtomicBool,
) {
    if stream.set_read_timeout(Some(POLL_SLICE)).is_err() {
        return;
    }
    if stream
        .set_write_timeout(Some(config.frame_timeout.max(Duration::from_millis(1))))
        .is_err()
    {
        return;
    }
    loop {
        let (payload, checked) = match read_frame_deadline(&mut stream, config, stop) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return,
        };
        let reply = match JobRequest::decode(&payload) {
            Ok(req) => service.submit(req),
            Err(e) => JobReply::Shed(ShedReason::Malformed(e.to_string())),
        };
        let bytes = reply.encode();
        let written = if checked {
            wire::write_frame_checked(&mut stream, &bytes)
        } else {
            wire::write_frame(&mut stream, &bytes)
        };
        if written.is_err() {
            return;
        }
    }
}

/// Reads one frame (either flavor) with slowloris-proof deadlines:
/// unlimited (or `idle_timeout`-bounded) patience while waiting for a
/// frame to *start*, a hard `frame_timeout` once its first byte arrives.
/// `Ok(None)` is the clean between-frames exit: EOF, stop, or idle
/// timeout.
fn read_frame_deadline(
    stream: &mut TcpStream,
    config: &FrontConfig,
    stop: &AtomicBool,
) -> io::Result<Option<(Vec<u8>, bool)>> {
    let mut header = [0u8; 4];
    let idle_deadline = config.idle_timeout.map(|d| Instant::now() + d);
    let mut got = 0usize;
    while got == 0 {
        if stop.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match stream.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if poll_expired(&e) => {
                if idle_deadline.is_some_and(|at| Instant::now() >= at) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    // The frame has started: everything below runs against one deadline,
    // and the stop flag is deliberately ignored — stop drains in-flight
    // frames, and this bound caps how long the drain can take.
    let deadline = Instant::now() + config.frame_timeout.max(Duration::from_millis(1));
    read_full(stream, &mut header[got..], deadline)?;
    let (len, checked) = wire::frame_header(u32::from_le_bytes(header))?;
    let expect = if checked {
        let mut sum = [0u8; 8];
        read_full(stream, &mut sum, deadline)?;
        Some(u64::from_le_bytes(sum))
    } else {
        None
    };
    let mut payload = vec![0u8; len];
    read_full(stream, &mut payload, deadline)?;
    if let Some(expect) = expect {
        if wire::frame_checksum(&payload) != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
    }
    Ok(Some((payload, checked)))
}

/// Fills `buf` completely or fails: poll-sliced reads against an absolute
/// deadline, so even a one-byte-per-slice trickle cannot stretch a frame
/// past its budget.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], deadline: Instant) -> io::Result<()> {
    let mut got = 0usize;
    while got < buf.len() {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exceeded",
            ));
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if poll_expired(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Whether an error is the read-timeout poll slice expiring (reported as
/// `WouldBlock` or `TimedOut` depending on the platform).
pub(crate) fn poll_expired(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
