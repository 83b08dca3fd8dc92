//! Production socket transports for the serve protocol: TCP and
//! Unix-domain listeners with connection caps, idle timeouts, write
//! backpressure, and graceful drain.
//!
//! Hand-rolled on `std` only (zero new dependencies). The transport is
//! event-driven: the accept loop blocks in `poll(2)` on the listener and
//! the drain fds, and each accepted connection gets a handler thread
//! that blocks in `poll(2)` on its socket and the same drain fds — the
//! connection cap bounds the thread count, so thread-per-connection here
//! is a readiness loop with the OS scheduler doing the multiplexing.
//! Nothing runs on a tick: the only timeouts are deadlines (journal
//! sync, idle connection, stalled write, goodbye, drain). Off Unix,
//! where there is no `poll(2)` binding, accepts and reads fall back to
//! waits of at most 50 ms. Request handling itself is
//! serialized through the shared [`Server`] mutex, preserving the
//! protocol's deterministic one-line-in/one-line-out semantics; the
//! transport's job is I/O overlap, not evaluation parallelism (that
//! lives in `livelit-sched` under the engine).
//!
//! # Connection state machine
//!
//! ```text
//!          accept
//!            │  over cap? ──► error line, goodbye        (dropped)
//!            ▼
//!         READING ──── line framed ───► HANDLING (server lock)
//!            │ ▲                            │
//!            │ └──── reply + notes written ─┘  (write timeout ► dropped)
//!            │ idle > idle_timeout ──► error line, close (dropped)
//!            │ EOF (client done) ─────► close            (clean)
//!            │ drain fd readable ─────► goodbye          (clean)
//! ```
//!
//! Framing (CRLF, final unterminated line, oversized-line recovery) is
//! [`LineReader`], shared with the stdio path; a handler polls only
//! when the framer needs more bytes, so a line already buffered is never
//! held back.
//!
//! # Drain
//!
//! A drain — SIGTERM, SIGINT, a `shutdown` op from any connection, or
//! [`ShutdownHandle::request_drain`] — stops the accept loop, lets every
//! in-flight request finish and its reply ship, stops reading further
//! requests, syncs session journals, and returns. Each transport owns a
//! pipe; requesting a drain writes one byte to it and nothing ever reads
//! that byte back, so the pipe stays readable and every later `poll` on
//! it returns at once — no wakeup can be lost. A termination signal
//! writes to a process-wide pipe instead (see [`signal`]), which every
//! transport polls too. Because a request is journaled before its reply
//! ships and never handled without being read, a client that reconnects
//! after a restart resumes by re-sending from its first unacknowledged
//! request — nothing is lost, nothing is applied twice.

use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::observe::ServeMetrics;
use crate::wire::{FrameError, LineReader};
use crate::{error_reply, ErrorKind, RequestError, Server};

/// How long a closing connection keeps drain-reading the client's
/// in-flight bytes after our FIN (see [`goodbye`]).
const GOODBYE_WAIT: Duration = Duration::from_millis(250);

/// How long the accept loop backs off after a failed `accept` (EMFILE
/// under fd pressure): the listener stays readable, so polling again at
/// once would spin. Off Unix, where nothing waits for readiness, it is
/// also the wait between accepts, and the longest a handler's read
/// blocks before it re-checks the drain.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Transport tuning. [`TransportConfig::default`] is the `hazel serve`
/// default; the CLI flags override individual fields.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// Connections served concurrently; further accepts get a
    /// `transport` error line and a graceful close.
    pub max_conns: usize,
    /// A connection idle longer than this (no complete request framed)
    /// is told so and closed.
    pub idle_timeout: Duration,
    /// A reply write stalled longer than this (client not consuming —
    /// write backpressure) drops the connection rather than wedging a
    /// handler thread.
    pub write_timeout: Duration,
    /// Request lines over this many bytes are rejected (the framer
    /// discards without buffering) with a `transport` error line.
    pub max_line_bytes: usize,
    /// At drain, how long to wait for handler threads to finish before
    /// abandoning the stragglers.
    pub drain_wait: Duration,
    /// How often the accept loop fsyncs session journals. Appends are
    /// already flushed per request; this bounds how much the OS page
    /// cache can hold back from stable storage.
    pub sync_interval: Duration,
}

impl Default for TransportConfig {
    fn default() -> TransportConfig {
        TransportConfig {
            max_conns: 1024,
            idle_timeout: Duration::from_secs(300),
            write_timeout: Duration::from_secs(30),
            max_line_bytes: 4 * 1024 * 1024,
            drain_wait: Duration::from_secs(10),
            sync_interval: Duration::from_secs(5),
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum BindTo {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port —
    /// read it back with [`Transport::tcp_addr`]).
    Tcp(String),
    /// A Unix-domain socket path. A stale socket file left by a dead
    /// process is removed and rebound; a live one is an `AddrInUse`
    /// error.
    #[cfg(unix)]
    Unix(PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(stream, _)| Conn::Tcp(stream)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(stream, _)| Conn::Unix(stream)),
        }
    }

    /// Whether a connection may be pending: see [`wait_readable`]. The
    /// listener is nonblocking, so a connection that went away before
    /// `accept` costs one `WouldBlock`.
    #[cfg(unix)]
    fn wait(&self, drain: &Drain, timeout: Duration) -> bool {
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        };
        wait_readable(fd, drain, timeout)
    }

    /// Off Unix there is no `poll(2)` binding: the nonblocking `accept`
    /// tells whether anything is pending, and the accept loop backs off
    /// when nothing is.
    #[cfg(not(unix))]
    fn wait(&self, drain: &Drain, _timeout: Duration) -> bool {
        !drain.requested()
    }
}

/// One accepted connection, TCP or Unix, with a uniform socket surface.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(on),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(on),
        }
    }

    fn set_read_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(dur)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(dur)),
        }
    }

    fn set_write_timeout(&self, dur: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(Some(dur)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(Some(dur)),
        }
    }

    fn shutdown_write(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
    }

    /// Whether request bytes (or EOF) are readable: see
    /// [`wait_readable`].
    #[cfg(unix)]
    fn wait(&self, drain: &Drain, timeout: Duration) -> bool {
        let fd = match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        };
        wait_readable(fd, drain, timeout)
    }

    /// Off Unix the read itself waits, bounded by a socket read timeout
    /// of at most [`ACCEPT_BACKOFF`]; a read that times out is handled
    /// like a wake without bytes.
    #[cfg(not(unix))]
    fn wait(&self, drain: &Drain, timeout: Duration) -> bool {
        let bound = timeout.clamp(Duration::from_millis(1), ACCEPT_BACKOFF);
        self.set_read_timeout(bound).is_ok() && !drain.requested()
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The connection as [`LineReader`] sees it: every read first waits for
/// request bytes, a drain, or the idle deadline. The framer reads only
/// when it needs more bytes, so a buffered line is never held back.
struct Watched<'a> {
    conn: Conn,
    drain: &'a Drain,
    /// No complete request framed by then: the connection is idle.
    idle_deadline: Instant,
}

impl Read for Watched<'_> {
    /// `WouldBlock` when woken without bytes: the handler then checks
    /// the drain and the idle deadline.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timeout = self.idle_deadline.saturating_duration_since(Instant::now());
        if self.conn.wait(self.drain, timeout) {
            self.conn.read(buf)
        } else {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }
}

/// The drain trigger, shared by the accept loop, the handler threads and
/// every [`ShutdownHandle`]. The first request sets the flag and writes
/// one byte to `wake_tx`; nothing reads it back, so `wake_rx` turns
/// readable and stays readable, level-triggered for every later `poll`.
struct Drain {
    requested: AtomicBool,
    /// Only ever polled, never read.
    #[cfg_attr(not(unix), allow(dead_code))]
    wake_rx: PipeReader,
    wake_tx: PipeWriter,
}

impl Drain {
    fn new() -> io::Result<Drain> {
        let (wake_rx, wake_tx) = io::pipe()?;
        Ok(Drain {
            requested: AtomicBool::new(false),
            wake_rx,
            wake_tx,
        })
    }

    fn request(&self) {
        if !self.requested.swap(true, Ordering::SeqCst) {
            let _ = (&self.wake_tx).write_all(&[1]);
        }
    }

    fn requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst) || signal::term_requested()
    }
}

/// Blocks in `poll(2)` until `fd` or a drain fd is readable, or until
/// `timeout` passes, and returns whether `fd` is readable (or hung up,
/// or failed: the next call on it reports which) with no drain
/// requested. `false` after a drain, the timeout, or a signal: the
/// caller re-checks its state. A drain wins over a readable `fd`: what
/// is still unread at a drain stays unread.
#[cfg(unix)]
fn wait_readable(fd: RawFd, drain: &Drain, timeout: Duration) -> bool {
    let fds = [fd, drain.wake_rx.as_raw_fd(), signal::wake_fd()];
    match sys::poll_readable(fds, timeout) {
        Ok(ready) => ready == [true, false, false],
        Err(e) => e.kind() != io::ErrorKind::Interrupted,
    }
}

/// The one `poll(2)` binding, declared by hand like `signal(2)` below.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }

    /// Which of `fds` are readable (or hung up, or in error) once at least
    /// one is, or all `false` after `timeout`. Negative fds are skipped,
    /// as `poll(2)` does.
    pub(super) fn poll_readable<const N: usize>(
        fds: [RawFd; N],
        timeout: Duration,
    ) -> io::Result<[bool; N]> {
        let mut pollfds = fds.map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        // Round up: a sub-millisecond remainder must not become a
        // zero-timeout spin.
        let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
        // SAFETY: `pollfds` is a live array of exactly `N` `struct pollfd`s.
        let n = unsafe { poll(pollfds.as_mut_ptr(), N as NFds, millis) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(pollfds.map(|p| p.revents != 0))
    }
}

struct Shared {
    server: Mutex<Server>,
    config: TransportConfig,
    /// Shared with [`ShutdownHandle`]s directly (not via the `Shared`
    /// arc) so outstanding handles don't stop the drained server from
    /// being handed back.
    drain: Arc<Drain>,
    accepted: AtomicU64,
    dropped: AtomicU64,
    /// Cloned from the server at bind time, for the connection gauges.
    metrics: Option<ServeMetrics>,
}

fn lock_server(shared: &Shared) -> MutexGuard<'_, Server> {
    shared.server.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handler threads still serving a connection. Kept out of [`Shared`]:
/// a handler drops its `Shared` before it leaves, so once the count is
/// zero the drain can hand the server back.
#[derive(Default)]
struct Live {
    count: Mutex<usize>,
    left: Condvar,
}

impl Live {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts a new handler in, unless `cap` handlers are already live.
    fn try_enter(&self, cap: usize) -> bool {
        let mut count = self.lock();
        let admitted = *count < cap;
        *count += usize::from(admitted);
        admitted
    }

    fn leave(&self) {
        *self.lock() -= 1;
        self.left.notify_all();
    }

    /// Waits until every handler has left or `deadline` passes; returns
    /// how many are still live.
    fn wait_empty(&self, deadline: Instant) -> usize {
        let mut count = self.lock();
        while *count > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            count = self
                .left
                .wait_timeout(count, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        *count
    }
}

/// A cheap handle that asks a running [`Transport`] to drain — what the
/// embedding process wires to its own lifecycle (the B19 bench uses it
/// as its in-process `kill -TERM`).
#[derive(Clone)]
pub struct ShutdownHandle {
    drain: Arc<Drain>,
}

impl ShutdownHandle {
    /// Begin a graceful drain: stop accepting, finish in-flight
    /// requests, sync journals, return from [`Transport::run`].
    pub fn request_drain(&self) {
        self.drain.request();
    }

    /// Whether a drain has been requested (by anyone, a termination
    /// signal included).
    pub fn draining(&self) -> bool {
        self.drain.requested()
    }
}

/// What a completed [`Transport::run`] saw.
pub struct DrainSummary {
    /// Connections accepted over the transport's lifetime.
    pub accepted: u64,
    /// Connections closed early (over the cap, idle, or stalled writes).
    pub dropped: u64,
    /// Handler threads still running when `drain_wait` expired; their
    /// connections were abandoned (the process is exiting anyway).
    pub stranded: usize,
    /// The server, with journals synced — `None` only if stragglers
    /// still hold it.
    pub server: Option<Server>,
}

/// A bound listener plus the shared connection state; [`Transport::run`]
/// serves until drained.
pub struct Transport {
    shared: Arc<Shared>,
    live: Arc<Live>,
    listener: Listener,
}

impl Transport {
    /// Binds the listener and prepares the shared state. The server's
    /// metrics handle (if metrics are enabled) is used for connection
    /// gauges.
    ///
    /// # Errors
    ///
    /// Propagates bind errors (address in use, permission, bad address)
    /// and a failure to create the drain pipe.
    pub fn bind(addr: &BindTo, server: Server, config: TransportConfig) -> io::Result<Transport> {
        let listener = match addr {
            BindTo::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            #[cfg(unix)]
            BindTo::Unix(path) => Listener::Unix(bind_unix(path)?),
        };
        let metrics = server.metrics().cloned();
        Ok(Transport {
            shared: Arc::new(Shared {
                server: Mutex::new(server),
                config,
                drain: Arc::new(Drain::new()?),
                accepted: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                metrics,
            }),
            live: Arc::default(),
            listener,
        })
    }

    /// The bound TCP address (`None` for a Unix listener) — how tests
    /// and benches learn the port after binding `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix(_) => None,
        }
    }

    /// A drain handle, cloneable across threads.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            drain: Arc::clone(&self.shared.drain),
        }
    }

    /// Serves until a drain is requested — by [`ShutdownHandle`], by a
    /// `shutdown` op on any connection, or by SIGTERM/SIGINT (when
    /// [`signal::install_term_handler`] was called) — then drains
    /// gracefully and returns what happened.
    pub fn run(self) -> DrainSummary {
        let Transport {
            shared,
            live,
            listener,
        } = self;
        let _ = listener.set_nonblocking(true);
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        let mut next_sync = Instant::now() + shared.config.sync_interval;
        while !shared.drain.requested() {
            // A finished handler's handle holds only its exit status.
            handles.retain(|h| !h.is_finished());
            let now = Instant::now();
            if now >= next_sync {
                let _ = lock_server(&shared).sync_snapshots();
                next_sync = Instant::now() + shared.config.sync_interval;
            }
            let until_sync = next_sync.saturating_duration_since(now);
            if !listener.wait(&shared.drain, until_sync) {
                continue;
            }
            match listener.accept() {
                Ok(conn) => handles.extend(admit(&shared, &live, conn)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // The connection went away between `poll` and `accept`.
                Err(e) if cfg!(unix) && e.kind() == io::ErrorKind::WouldBlock => {}
                // Transient accept failure (EMFILE under fd pressure,
                // aborted handshake), or nothing pending off Unix: back
                // off and keep listening.
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }

        // Drain: no new connections; the byte on the drain pipe wakes
        // every handler blocked in `poll` (a signal-triggered drain
        // included), each finishes its in-flight request and leaves.
        shared.drain.request();
        drop(listener);
        let stranded = live.wait_empty(Instant::now() + shared.config.drain_wait);
        if stranded == 0 {
            // Every handler has left and is only returning: joins at once.
            for handle in handles {
                let _ = handle.join();
            }
        }
        // Otherwise the stragglers stay detached; the summary says so.
        let _ = lock_server(&shared).sync_snapshots();

        let accepted = shared.accepted.load(Ordering::Relaxed);
        let dropped = shared.dropped.load(Ordering::Relaxed);
        let server = Arc::try_unwrap(shared).ok().map(|shared| {
            shared
                .server
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        });
        DrainSummary {
            accepted,
            dropped,
            stranded,
            server,
        }
    }
}

/// Hands an accepted connection to a new handler thread, or refuses it
/// when the cap is reached.
fn admit(shared: &Arc<Shared>, live: &Arc<Live>, conn: Conn) -> Option<JoinHandle<()>> {
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &shared.metrics {
        m.conn_opened();
    }
    // Some platforms hand out accepted sockets with the listener's
    // O_NONBLOCK; handlers and `goodbye` block (bounded by poll and
    // socket timeouts).
    let _ = conn.set_nonblocking(false);
    if !live.try_enter(shared.config.max_conns) {
        reject_over_cap(shared, conn);
        return None;
    }
    let shared = Arc::clone(shared);
    let live = Arc::clone(live);
    Some(std::thread::spawn(move || {
        // A panic counts as a dropped connection, and the handler still
        // leaves the live count, so a drain never waits for it.
        let end = panic::catch_unwind(AssertUnwindSafe(|| serve_conn(&shared, conn)));
        if end.unwrap_or(ConnEnd::Dropped) == ConnEnd::Dropped {
            note_dropped(&shared);
        }
        if let Some(m) = &shared.metrics {
            m.conn_closed();
        }
        drop(shared);
        live.leave();
    }))
}

fn note_dropped(shared: &Shared) {
    shared.dropped.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = &shared.metrics {
        m.conn_dropped();
    }
}

/// Refuses a connection over the cap: one `transport` error line, then
/// [`goodbye`], so the client reads the line and a clean EOF even when
/// it already sent a request. The goodbye's drain-read runs on a thread
/// of its own, off the accept loop.
fn reject_over_cap(shared: &Shared, mut conn: Conn) {
    note_dropped(shared);
    if let Some(m) = &shared.metrics {
        m.conn_closed();
    }
    let line = transport_error_line(format!(
        "server at connection capacity ({})",
        shared.config.max_conns
    ));
    let write_timeout = shared.config.write_timeout;
    std::thread::spawn(move || {
        let _ = conn.set_write_timeout(write_timeout);
        let _ = write_line(&mut conn, &line);
        goodbye(conn);
    });
}

#[derive(PartialEq, Eq)]
enum ConnEnd {
    /// EOF, or closed by a drain.
    Clean,
    /// Closed early: idle timeout, write stall, or a socket error.
    Dropped,
}

/// Serves one connection until EOF, drop, or drain. See the state
/// machine in the module docs.
fn serve_conn(shared: &Shared, conn: Conn) -> ConnEnd {
    if conn.set_write_timeout(shared.config.write_timeout).is_err() {
        return ConnEnd::Dropped;
    }
    let Ok(mut writer) = conn.try_clone() else {
        return ConnEnd::Dropped;
    };
    let idle_timeout = shared.config.idle_timeout;
    let watched = Watched {
        conn,
        drain: &shared.drain,
        idle_deadline: Instant::now() + idle_timeout,
    };
    let mut reader = LineReader::new(watched, shared.config.max_line_bytes);
    loop {
        if shared.drain.requested() {
            // Drain between requests: everything read got its reply;
            // everything unread stays unread (and unjournaled), so the
            // client can safely re-send it after reconnecting.
            goodbye(reader.into_inner().conn);
            return ConnEnd::Clean;
        }
        match reader.next_line() {
            Ok(Some(line)) => {
                reader.get_mut().idle_deadline = Instant::now() + idle_timeout;
                if line.trim().is_empty() {
                    continue;
                }
                let (reply, notes, drain) = {
                    let mut server = lock_server(shared);
                    let reply = server.handle_line(&line);
                    (
                        reply,
                        server.take_notifications(),
                        server.shutdown_requested(),
                    )
                };
                if write_line(&mut writer, &reply).is_err() {
                    return ConnEnd::Dropped;
                }
                for note in notes {
                    if write_line(&mut writer, &note).is_err() {
                        return ConnEnd::Dropped;
                    }
                }
                if drain {
                    shared.drain.request();
                }
            }
            Ok(None) => return ConnEnd::Clean,
            Err(FrameError::TooLong { limit }) => {
                let line = transport_error_line(format!("request line exceeds {limit} bytes"));
                if write_line(&mut writer, &line).is_err() {
                    return ConnEnd::Dropped;
                }
            }
            // Woken without bytes: by a drain (checked at the top of the
            // loop) or the idle deadline.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= reader.get_ref().idle_deadline {
                    let line = transport_error_line(format!(
                        "idle for {}s, closing",
                        idle_timeout.as_secs()
                    ));
                    let _ = write_line(&mut writer, &line);
                    return ConnEnd::Dropped;
                }
            }
            Err(FrameError::Io(_)) => return ConnEnd::Dropped,
        }
    }
}

/// The graceful end of a connection: FIN the write side so the client
/// reads every buffered reply and then a clean EOF, and drain whatever
/// requests the client still had in flight for up to [`GOODBYE_WAIT`] —
/// closing with unread bytes in the receive buffer turns the close into
/// a RST, which can destroy replies the client has not read yet and
/// break the acked-implies-processed contract clients resume on.
fn goodbye(mut conn: Conn) {
    let _ = conn.shutdown_write();
    let deadline = Instant::now() + GOODBYE_WAIT;
    let mut scratch = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.set_read_timeout(left).is_err() {
            return;
        }
        match conn.read(&mut scratch) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Timed out, or the socket failed.
            Err(_) => return,
        }
    }
}

fn write_line(writer: &mut Conn, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)?;
    writer.flush()
}

/// A one-line `transport`-kind error reply, for transport-level
/// refusals (over the cap, idle, oversized lines). Also used by the
/// stdio loop so both transports speak identical framing errors.
pub fn transport_error_line(message: String) -> String {
    error_reply(
        None,
        None,
        &RequestError::new(ErrorKind::Transport, message),
    )
    .to_string()
}

/// Binds a Unix socket, recovering from a stale socket file: if the
/// path is in use but nothing answers a connect, the previous process
/// died without unlinking — remove and rebind.
#[cfg(unix)]
fn bind_unix(path: &Path) -> io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_err() {
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            } else {
                Err(io::Error::new(
                    io::ErrorKind::AddrInUse,
                    format!("{} is in use by a live server", path.display()),
                ))
            }
        }
        other => other,
    }
}

/// SIGTERM/SIGINT handling with no dependencies: a C `signal(2)` handler
/// that sets a flag and writes one byte to a process-wide wake pipe,
/// which every [`Transport`] polls beside its own drain pipe.
#[cfg(unix)]
pub mod signal {
    use std::ffi::c_void;
    use std::os::fd::{IntoRawFd, RawFd};
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::Once;

    static TERM: AtomicBool = AtomicBool::new(false);
    /// The wake pipe's ends, `-1` until [`install_term_handler`] creates
    /// them. The pipe is never closed, so the handler can never write to
    /// an fd that has been closed and reused.
    static WAKE_RX: AtomicI32 = AtomicI32::new(-1);
    static WAKE_TX: AtomicI32 = AtomicI32::new(-1);

    extern "C" fn on_term(_signum: i32) {
        // Only async-signal-safe work here: an atomic swap and, for the
        // first signal only, one write(2) — so the pipe never fills and
        // the write never blocks.
        if !TERM.swap(true, Ordering::SeqCst) {
            let fd = WAKE_TX.load(Ordering::SeqCst);
            if fd >= 0 {
                let byte = 1u8;
                // SAFETY: a one-byte write from a live local to an fd
                // that is never closed.
                unsafe {
                    write(fd, std::ptr::from_ref(&byte).cast(), 1);
                }
            }
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the termination handler for SIGTERM and SIGINT, creating
    /// the wake pipe on first use. Safe to call more than once.
    pub fn install_term_handler() {
        static PIPE: Once = Once::new();
        PIPE.call_once(|| {
            if let Ok((rx, tx)) = std::io::pipe() {
                WAKE_RX.store(rx.into_raw_fd(), Ordering::SeqCst);
                WAKE_TX.store(tx.into_raw_fd(), Ordering::SeqCst);
            }
        });
        // SAFETY: `on_term` only touches atomics and calls write(2).
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    /// Whether a termination signal has arrived.
    pub fn term_requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }

    /// The wake pipe's read end — readable once a termination signal has
    /// arrived — or `-1` (which `poll(2)` skips) before the handler is
    /// installed.
    pub(crate) fn wake_fd() -> RawFd {
        WAKE_RX.load(Ordering::SeqCst)
    }
}

/// Non-Unix stub: no signals to install; never requested.
#[cfg(not(unix))]
pub mod signal {
    /// No-op off Unix.
    pub fn install_term_handler() {}

    /// Always `false` off Unix.
    pub fn term_requested() -> bool {
        false
    }
}
