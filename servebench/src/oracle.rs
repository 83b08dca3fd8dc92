//! The correctness gate: every reply the socket server sent is compared
//! byte for byte with a sequential in-process `Server::handle_line` that
//! replays each client's requests in order and never restarts.

use std::sync::Arc;
use std::time::Instant;

use livelit_server::{RegistryFactory, Server};

use crate::drive::ClientLog;

/// The registry `hazel serve` gives every session: the standard livelits.
pub fn registry_factory() -> RegistryFactory {
    Arc::new(|| {
        let mut registry = hazel_editor::LivelitRegistry::new();
        livelit_std::register_all(&mut registry);
        registry
    })
}

/// What the replay found.
#[derive(Debug)]
pub struct Check {
    /// Requests sent.
    pub attempted: u64,
    /// Requests with no reply, a reply that differs from the oracle's, or
    /// an error reply where the workload expects success.
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
    /// In-process `handle_line` time per sent request, per client.
    pub handle_ns: Vec<Vec<u64>>,
}

/// Replays every client's requests through one fresh server and checks
/// each socket reply against the oracle's.
pub fn check(logs: &[ClientLog]) -> Check {
    let mut oracle = Server::with_registry(registry_factory());
    let mut out = Check {
        attempted: 0,
        failed: 0,
        first_failure: None,
        handle_ns: Vec::with_capacity(logs.len()),
    };
    for log in logs {
        let mut times = Vec::with_capacity(log.sent.len());
        for sent in &log.sent {
            let started = Instant::now();
            let want = oracle.handle_line(&sent.req.line);
            times.push(started.elapsed().as_nanos() as u64);
            out.attempted += 1;
            let problem = match sent.reply.as_deref() {
                None => Some("no reply".to_owned()),
                Some(got) if got != want => Some(format!("got {got}\nwant {want}")),
                Some(got) if sent.req.expect_ok && !got.starts_with("{\"ok\":true") => {
                    Some(format!("unexpected error reply {got}"))
                }
                Some(_) => None,
            };
            if let Some(problem) = problem {
                out.failed += 1;
                out.first_failure
                    .get_or_insert_with(|| format!("request {}: {problem}", sent.req.line));
            }
        }
        out.handle_ns.push(times);
    }
    out
}
