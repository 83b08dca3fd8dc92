//! The repository benchmark: the release `hazel serve` binary on a Unix
//! socket, driven by closed-loop clients on three workloads, every reply
//! checked against an in-process oracle. A traced run adds a per-layer
//! breakdown measured from the benchmark's side of each layer's API.

pub mod drive;
pub mod layers;
pub mod oracle;
pub mod pin;
pub mod plan;
pub mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use drive::{Budget, ClientLog, Life};
use plan::{ClientPlan, Kind, Workload};
use serve::{ServeProc, TempDir};

/// Client threads and connections: one per core of the 2-core reference
/// host, so the clients never outnumber the cores the server shares.
pub const CLIENTS: usize = 2;
/// Server spawns timed for `setup_s` (the first life is the last).
const SETUP_SPAWNS: usize = 21;
/// How often the main thread checks the timed loop's progress.
const POLL: Duration = Duration::from_millis(5);
/// Equal slices of the timed loop that loop medians are taken over.
const WINDOWS: usize = 20;

/// One measured figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Its name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples it summarizes.
    pub n: usize,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The traffic mix.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// How long the timed loop runs.
    pub budget: Budget,
    /// Whether to add the per-layer breakdown.
    pub trace: bool,
    /// The vetted release `hazel` binary.
    pub hazel: PathBuf,
    /// Where temporary sockets and snapshot directories go.
    pub scratch: PathBuf,
}

/// Figures that must repeat exactly for a fixed seed and request budget.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Requests sent per op.
    pub ops: BTreeMap<&'static str, u64>,
    /// Mean bytes per `render` reply.
    pub render_bytes_mean: f64,
    /// Bytes in the snapshot directory after all plans (`restart`).
    pub journal_bytes: u64,
    /// Evaluator steps in the traced replay.
    pub machine_steps: u64,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without a correct reply.
    pub failed: u64,
    /// Requests re-sent after the `restart` drain cut their connection.
    pub resent: u64,
    /// Why the run is not correct, if it is not.
    pub failure: Option<String>,
    /// Every end-to-end figure the workload produces.
    pub end_to_end: Vec<Metric>,
    /// The per-layer breakdown (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The exactly repeatable figures.
    pub counts: Counts,
}

/// The value at quantile `q` of `sorted` (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 0.5)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Timed spawns of throwaway servers with the workload's flags.
fn setup_samples(opts: &Options, journaled: bool, samples: &mut Vec<f64>) -> Result<(), String> {
    for i in 0..SETUP_SPAWNS - 1 {
        let dir = TempDir::new(&opts.scratch, &format!("setup{i}"))?;
        let snap = dir.path().join("snap");
        let (proc, secs) = ServeProc::spawn(
            &opts.hazel,
            &dir.path().join("s.sock"),
            journaled.then_some(snap.as_path()),
        )?;
        samples.push(secs);
        proc.terminate()?;
    }
    Ok(())
}

/// Runs one workload end to end: spawn, drive, (restart,) drain, check.
///
/// # Errors
///
/// When the server cannot be started or drained — not for wrong replies,
/// which the outcome reports.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let journaled = opts.workload == Workload::Restart;
    // `restart` is short requests in bursts after idle gaps: one core, so
    // its round trips do not ride on how soon the host wakes an idle one.
    let pinned = journaled.then(pin::OneCore::pin).transpose()?;
    let mut setup = Vec::with_capacity(SETUP_SPAWNS);
    setup_samples(opts, journaled, &mut setup)?;

    let dir = TempDir::new(&opts.scratch, opts.workload.name())?;
    let socket = dir.path().join("s.sock");
    let snap = dir.path().join("snap");
    let snap_dir = journaled.then_some(snap.as_path());
    let (first, secs) = ServeProc::spawn(&opts.hazel, &socket, snap_dir)?;
    setup.push(secs);

    let life = Life::default();
    let ready = Barrier::new(CLIENTS + 1);
    let mut server = Some(first);
    let (logs, loop_start, watch) = std::thread::scope(|scope| -> Result<_, String> {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let plan = ClientPlan::new(opts.workload, opts.seed, c);
                let (socket, life, ready) = (&socket, &life, &ready);
                scope.spawn(move || {
                    drive::run_client(plan, socket, life, journaled, opts.budget, ready)
                })
            })
            .collect();
        ready.wait();
        let loop_start = Instant::now();
        let watched = watch_loop(
            opts,
            &life,
            loop_start,
            &socket,
            snap_dir,
            &clients,
            &mut server,
        );
        let watch = match watched {
            Ok(watch) => watch,
            Err(e) => {
                life.abandon();
                for c in clients {
                    let _ = c.join();
                }
                return Err(e);
            }
        };
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        Ok((logs, loop_start, watch))
    })?;

    let server = server.expect("a server is running after the loop");
    let journal_bytes = snap_dir.map_or(0, dir_bytes);
    server.shutdown()?;
    drop(pinned);

    let check = oracle::check(&logs);
    let failure = logs
        .iter()
        .find_map(|l| l.error.clone())
        .or_else(|| check.first_failure.clone());

    // Loop medians and throughput are medians over equal slices of the
    // loop, so a burst of host noise in one slice moves none of them.
    let loop_end = logs
        .iter()
        .filter_map(|l| l.loop_end)
        .max()
        .unwrap_or(loop_start);
    let slice_secs = (loop_end - loop_start).as_secs_f64().max(1e-9) / WINDOWS as f64;
    let slice = |at: Instant| {
        let secs = at.saturating_duration_since(loop_start).as_secs_f64();
        ((secs / slice_secs) as usize).min(WINDOWS - 1)
    };
    let mut by_kind: BTreeMap<&str, Vec<Vec<f64>>> = BTreeMap::new();
    for (kind, ns, at) in logs.iter().flat_map(|l| &l.samples) {
        let key = match kind {
            Kind::Open => "open",
            Kind::Interact => "interact",
            Kind::Edit => "edit",
            Kind::Reconnect => "reconnect",
            _ => continue,
        };
        let slices = by_kind
            .entry(key)
            .or_insert_with(|| vec![Vec::new(); WINDOWS]);
        slices[slice(*at)].push(*ns as f64 / 1e6);
    }
    let mut per_slice = [0usize; WINDOWS];
    for sent in logs.iter().flat_map(|l| &l.sent).filter(|s| s.in_loop) {
        per_slice[slice(sent.done)] += 1;
    }
    let loop_requests: usize = per_slice.iter().sum();
    let renders: Vec<f64> = logs
        .iter()
        .flat_map(|l| &l.sent)
        .filter(|s| s.req.op == "render")
        .filter_map(|s| s.reply.as_ref().map(|r| r.len() as f64))
        .collect();
    let mut ops: BTreeMap<&'static str, u64> = BTreeMap::new();
    for sent in logs.iter().flat_map(|l| &l.sent) {
        *ops.entry(sent.req.op).or_default() += 1;
    }

    let mut e2e = vec![Metric::new(
        "setup_s",
        median(setup.clone()),
        "s",
        setup.len(),
    )];
    for (key, slices) in by_kind {
        let n = slices.iter().map(Vec::len).sum();
        let pooled = sorted(slices.concat());
        if key == "open" || key == "reconnect" {
            // Too few per slice: the median of all of them.
            e2e.push(Metric::new(
                format!("{key}_p50_ms"),
                quantile(&pooled, 0.5),
                "ms",
                n,
            ));
            continue;
        }
        let p50 = median(
            slices
                .into_iter()
                .filter(|s| !s.is_empty())
                .map(|s| quantile(&sorted(s), 0.5))
                .collect(),
        );
        e2e.push(Metric::new(format!("{key}_p50_ms"), p50, "ms", n));
        // Tails, over the whole loop, up to the highest percentile with
        // ten samples beyond it.
        for (q, label) in [(0.9, "p90"), (0.99, "p99")] {
            if n as f64 * (1.0 - q) >= 10.0 {
                e2e.push(Metric::new(
                    format!("{key}_{label}_ms"),
                    quantile(&pooled, q),
                    "ms",
                    n,
                ));
            }
        }
    }
    if let Some(secs) = watch.restore_s {
        e2e.push(Metric::new("restore_s", secs, "s", 1));
    }
    e2e.push(Metric::new(
        "throughput_rps",
        median(per_slice.iter().map(|&c| c as f64 / slice_secs).collect()),
        "1/s",
        loop_requests,
    ));
    e2e.push(Metric::new(
        "failed_frac",
        check.failed as f64 / check.attempted.max(1) as f64,
        "ratio",
        check.attempted as usize,
    ));
    e2e.push(Metric::new(
        "render_bytes_mean",
        mean(&renders),
        "bytes",
        renders.len(),
    ));
    e2e.push(Metric::new(
        "peak_rss_mb",
        watch.peak_rss_mb.unwrap_or(0.0),
        "MiB",
        1,
    ));
    if journaled {
        e2e.push(Metric::new(
            "journal_bytes",
            journal_bytes as f64,
            "bytes",
            1,
        ));
    }

    let mut counts = Counts {
        ops,
        render_bytes_mean: mean(&renders),
        journal_bytes,
        machine_steps: 0,
    };
    let per_layer = if opts.trace {
        let layer_dir = TempDir::new(&opts.scratch, "layers")?;
        let report = layers::measure(opts.workload, &logs, &check, layer_dir.path());
        counts.machine_steps = report.machine_steps;
        report.metrics
    } else {
        Vec::new()
    };

    Ok(Outcome {
        attempted: check.attempted,
        failed: check.failed,
        resent: logs.iter().map(|l| l.resent).sum(),
        failure,
        end_to_end: e2e,
        per_layer,
        counts,
    })
}

/// Loop rounds, all clients together, after which the server's peak
/// resident set is read: reached about 3 s into a run on the
/// reference host, so a host several times slower still reaches it. On
/// `restart` it is read before the drain at the latest.
fn rss_checkpoint(workload: Workload) -> u64 {
    match workload {
        Workload::Interact => 140,
        Workload::EditLarge => 25,
        Workload::Restart => 60,
    }
}

/// When the `restart` drain is due: after this much of the timed loop, or
/// after this many rounds of all clients together.
#[derive(Clone, Copy)]
enum DrainAt {
    Secs(f64),
    Round(u64),
}

/// What the main thread saw while the clients ran.
struct Watch {
    peak_rss_mb: Option<f64>,
    restore_s: Option<f64>,
}

/// Watches the timed loop until two events have fired, each as the loop
/// passes it and independently of the other: the peak-RSS read at the
/// workload's checkpoint, and on `restart` the drain at a seeded point of
/// the loop — drain the server with the `shutdown` op, restart it on the
/// same snapshot directory, and let the clients resume. Under a round
/// budget both points are shares of the rounds played, so a short run
/// still drains mid-loop. Events still due when every client has finished
/// fire then. Returns as soon as both have fired, so the rest of the loop
/// runs without the watcher's wakeups.
fn watch_loop(
    opts: &Options,
    life: &Life,
    loop_start: Instant,
    socket: &Path,
    snap_dir: Option<&Path>,
    clients: &[std::thread::ScopedJoinHandle<'_, ClientLog>],
    server: &mut Option<ServeProc>,
) -> Result<Watch, String> {
    let mut rng = plan::Rng::new(opts.seed, 0);
    let share = 0.3 + 0.2 * (rng.below(1000) as f64 / 1000.0);
    let rounds = || life.rounds_done.load(Ordering::Relaxed);
    let (checkpoint, drain_due) = match opts.budget {
        Budget::Seconds(secs) => (rss_checkpoint(opts.workload), DrainAt::Secs(share * secs)),
        Budget::Rounds(n) => {
            let drain_at = (share * (n * CLIENTS as u64) as f64).ceil() as u64;
            (
                rss_checkpoint(opts.workload).min(drain_at),
                DrainAt::Round(drain_at),
            )
        }
    };
    let drain_due = || match drain_due {
        DrainAt::Secs(secs) => loop_start.elapsed().as_secs_f64() >= secs,
        DrainAt::Round(round) => rounds() >= round,
    };
    let mut watch = Watch {
        peak_rss_mb: None,
        restore_s: None,
    };
    let journaled = snap_dir.is_some();
    let mut drained = !journaled;
    let mut rss_read = false;
    loop {
        let finished = clients.iter().all(|c| c.is_finished());
        let drain_now = !drained && (finished || drain_due());
        if !rss_read && (rounds() >= checkpoint || drain_now || finished) {
            watch.peak_rss_mb = server.as_ref().and_then(ServeProc::peak_rss_mb);
            rss_read = true;
        }
        if drain_now {
            server
                .take()
                .expect("the first life is running")
                .shutdown()?;
            let (second, secs) = ServeProc::spawn(&opts.hazel, socket, snap_dir)?;
            *server = Some(second);
            life.advance();
            watch.restore_s = Some(secs);
            drained = true;
        }
        if drained && rss_read {
            return Ok(watch);
        }
        std::thread::sleep(POLL);
    }
}
