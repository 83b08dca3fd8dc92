//! The closed-loop socket clients: each sends its next request only after
//! the previous reply arrived, as an editor does.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::plan::{ClientPlan, Kind, Req, Step};

/// How long a client waits for a restarted server before giving up.
const RESTART_TIMEOUT: Duration = Duration::from_secs(120);

/// How long the timed loop runs, or how many rounds each client plays.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Run rounds until this much time has passed.
    Seconds(f64),
    /// Play exactly this many rounds (repeatable request counts).
    Rounds(u64),
}

/// One request as sent, with what came back.
#[derive(Debug)]
pub struct Sent {
    /// The request.
    pub req: Req,
    /// The reply line, `None` when the connection died without one.
    pub reply: Option<String>,
    /// Write-to-reply time.
    pub rtt_ns: u64,
    /// When the reply arrived.
    pub done: Instant,
    /// Whether this was the first request on its connection (so its
    /// round trip includes the server's accept wait).
    pub first_on_conn: bool,
    /// Whether it was sent inside the timed loop.
    pub in_loop: bool,
}

/// What one client did.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every acknowledged request in send order (an unacknowledged one is
    /// re-sent after a restart and logged then).
    pub sent: Vec<Sent>,
    /// Step latencies by kind with their completion times, interrupted
    /// steps excluded.
    pub samples: Vec<(Kind, u64, Instant)>,
    /// When the client's timed loop ended.
    pub loop_end: Option<Instant>,
    /// Requests re-sent to the next server life because a drain cut their
    /// connection before they were processed.
    pub resent: u64,
    /// Why the client stopped early, if it did.
    pub error: Option<String>,
}

/// Which server life is listening; clients cut off by a drain wait for the
/// next one.
#[derive(Default)]
pub struct Life {
    /// The listening life's number, and whether the run was abandoned.
    generation: Mutex<(u64, bool)>,
    next: Condvar,
    /// Timed-loop rounds completed by all clients together.
    pub rounds_done: AtomicU64,
    /// Loop steps run under the read side; an `open` probe takes the
    /// write side, so it never queues behind another client's request.
    quiet: RwLock<()>,
}

impl Life {
    fn current(&self) -> u64 {
        self.generation.lock().expect("life lock poisoned").0
    }

    /// Announces that a restarted server is listening.
    pub fn advance(&self) {
        self.generation.lock().expect("life lock poisoned").0 += 1;
        self.next.notify_all();
    }

    /// Releases every waiting client with an error: no server will come.
    pub fn abandon(&self) {
        self.generation.lock().expect("life lock poisoned").1 = true;
        self.next.notify_all();
    }

    fn wait_past(&self, generation: u64) -> Result<(), String> {
        let guard = self.generation.lock().expect("life lock poisoned");
        let (guard, _) = self
            .next
            .wait_timeout_while(guard, RESTART_TIMEOUT, |(g, abandoned)| {
                *g <= generation && !*abandoned
            })
            .expect("life lock poisoned");
        if guard.0 <= generation {
            return Err("the server did not come back after a drain".into());
        }
        Ok(())
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    generation: u64,
    fresh: bool,
}

impl Conn {
    fn roundtrip(&mut self, line: &str) -> Option<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out).ok()?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 && reply.ends_with('\n') => {
                reply.pop();
                Some(reply)
            }
            _ => None,
        }
    }
}

/// One client's connection state and log.
struct Client<'a> {
    socket: &'a Path,
    life: &'a Life,
    /// Whether a lost connection means a drain to wait out (`restart`)
    /// rather than a failure.
    resumable: bool,
    conn: Option<Conn>,
    log: ClientLog,
}

impl Client<'_> {
    fn connect(&mut self) -> Result<Conn, String> {
        loop {
            let generation = self.life.current();
            match UnixStream::connect(self.socket) {
                Ok(stream) => {
                    let writer = stream
                        .try_clone()
                        .map_err(|e| format!("cannot clone the socket: {e}"))?;
                    return Ok(Conn {
                        reader: BufReader::new(stream),
                        writer,
                        generation,
                        fresh: true,
                    });
                }
                Err(e) if !self.resumable => return Err(format!("cannot connect: {e}")),
                // The server is between lives.
                Err(_) => self.life.wait_past(generation)?,
            }
        }
    }

    /// Sends a step's requests back to back and records one latency
    /// sample for it — from `connect()` when the step opens a connection.
    fn run_step(&mut self, step: Step, in_loop: bool) -> Result<(), String> {
        let started = Instant::now();
        if step.connect {
            self.conn = None;
        }
        let mut interrupted = false;
        for req in step.reqs {
            loop {
                if self.conn.is_none() {
                    self.conn = Some(self.connect()?);
                }
                let conn = self.conn.as_mut().expect("connected above");
                let first_on_conn = std::mem::replace(&mut conn.fresh, false);
                let sent_at = Instant::now();
                let reply = conn.roundtrip(&req.line);
                let done = Instant::now();
                let rtt_ns = (done - sent_at).as_nanos() as u64;
                if reply.is_none() && self.resumable {
                    // Drained: the request was not processed (a reply is
                    // delivered iff it was). Resend it to the next life.
                    let generation = conn.generation;
                    self.conn = None;
                    interrupted = true;
                    self.log.resent += 1;
                    self.life.wait_past(generation)?;
                    continue;
                }
                let lost = reply.is_none();
                self.log.sent.push(Sent {
                    req,
                    reply,
                    rtt_ns,
                    done,
                    first_on_conn,
                    in_loop,
                });
                if lost {
                    return Err("the server closed the connection".into());
                }
                break;
            }
        }
        if !interrupted {
            let now = Instant::now();
            let ns = (now - started).as_nanos() as u64;
            self.log.samples.push((step.kind, ns, now));
        }
        Ok(())
    }

    fn run(&mut self, mut plan: ClientPlan, budget: Budget, ready: &Barrier) -> Result<(), String> {
        let setup = plan
            .setup()
            .into_iter()
            .try_for_each(|step| self.run_step(step, false));
        // Every client passes the barrier, failed or not, so none waits
        // forever for a client that gave up.
        ready.wait();
        setup?;
        let start = Instant::now();
        let mut round = 0u64;
        loop {
            let more = match budget {
                Budget::Seconds(secs) => start.elapsed().as_secs_f64() < secs,
                Budget::Rounds(n) => round < n,
            };
            if !more {
                break;
            }
            for step in plan.next_round() {
                let quiet = &self.life.quiet;
                if step.kind == Kind::Open {
                    let _alone = quiet.write().expect("quiet lock poisoned");
                    self.run_step(step, true)?;
                } else {
                    let _shared = quiet.read().expect("quiet lock poisoned");
                    self.run_step(step, true)?;
                }
            }
            round += 1;
            self.life.rounds_done.fetch_add(1, Ordering::Relaxed);
        }
        self.log.loop_end = Some(Instant::now());
        Ok(())
    }
}

/// Plays one client's plan against the server on `socket`. `ready` is
/// passed once setup is done, so every client's timed loop starts
/// together. Errors land in the log, so the oracle still sees what was
/// sent.
pub fn run_client(
    plan: ClientPlan,
    socket: &Path,
    life: &Life,
    resumable: bool,
    budget: Budget,
    ready: &Barrier,
) -> ClientLog {
    let mut client = Client {
        socket,
        life,
        resumable,
        conn: None,
        log: ClientLog::default(),
    };
    if let Err(e) = client.run(plan, budget, ready) {
        client.log.error = Some(e);
    }
    client.log
}
