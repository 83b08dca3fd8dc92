//! The per-layer breakdown of a traced run. Everything here is measured
//! from the benchmark's side: socket round trips against in-process
//! `handle_line` times, timed calls into each layer's public functions,
//! and the spans and counters the program already emits, read through a
//! sink installed around an in-process replay of the workload's own
//! requests.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use livelit_server::json::{self, Json};
use livelit_server::observe::ServeMetrics;
use livelit_server::snapshot::SnapshotStore;
use livelit_server::Server;
use livelit_trace::{Counter, Event, MetricsSink, PairSink, Sink, Tracer};

use crate::drive::{ClientLog, Sent};
use crate::oracle::{registry_factory, Check};
use crate::plan::Workload;
use crate::{mean, quantile, sorted, Metric};

/// Requests per client replayed in process: a fixed prefix of each
/// client's log, about a second of server work, so counts repeat exactly
/// for a fixed seed.
fn prefix_len(workload: Workload) -> usize {
    match workload {
        Workload::Interact => 1500,
        Workload::EditLarge => 150,
        Workload::Restart => 1000,
    }
}

/// The ops whose `handle_line` time is reported separately.
const OPS: [&str; 5] = ["open", "dispatch", "edit", "render", "analyze"];

/// The breakdown, plus the counts the determinism check compares.
pub struct Report {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Evaluator steps over the replayed prefix.
    pub machine_steps: u64,
}

/// A trace event reduced to what the breakdown reads.
enum Ev {
    Begin(Cow<'static, str>),
    End(Cow<'static, str>, u64),
    Count(Counter, u64),
}

/// Buffers events until the replay drains them after each request.
#[derive(Clone, Default)]
struct LayerSink(Arc<Mutex<Vec<Ev>>>);

impl LayerSink {
    fn drain(&self) -> Vec<Ev> {
        std::mem::take(&mut *self.0.lock().expect("sink lock poisoned"))
    }
}

impl Sink for LayerSink {
    fn record(&mut self, event: &Event) {
        let ev = match event {
            Event::Begin { name, .. } => Ev::Begin(name.clone()),
            Event::End { name, dur_ns, .. } => Ev::End(name.clone(), *dur_ns),
            Event::Count { counter, delta, .. } => Ev::Count(*counter, *delta),
        };
        if let Ok(mut events) = self.0.lock() {
            events.push(ev);
        }
    }
}

/// Span time and counters accumulated over the traced replay.
#[derive(Default)]
struct Spans {
    counters: BTreeMap<Counter, u64>,
    open_ns: Vec<f64>,
    run_fast_ns: Vec<f64>,
    run_full_ns: Vec<f64>,
    /// `engine.collect` time; collection runs on the full path only.
    collect_ns: f64,
    views_ns: Vec<f64>,
    analyze_ns: Vec<f64>,
    parse_elab_ns: f64,
    /// Per render: the `serve.render` span minus its child spans — the
    /// view encoding (`html_json`/`patch_json`) and reply assembly.
    render_encode_ns: Vec<f64>,
}

fn is_parse_elab(name: &str) -> bool {
    matches!(name, "parse" | "parse.module" | "elab.syn" | "elab.ana")
}

/// An open span while folding one request.
struct Open {
    name: Cow<'static, str>,
    children_ns: u64,
}

impl Spans {
    /// Folds one request's events; returns the request's top-level serve
    /// span and the sum of that span's direct children.
    fn fold(&mut self, events: Vec<Ev>) -> (u64, u64) {
        let mut stack: Vec<Open> = Vec::new();
        let mut serve = (0, 0);
        // `IncrementalEngine::run` has no span of its own: its time is the
        // engine spans directly below the serve span, and its counters
        // say which path it took.
        let mut engine_ns = 0u64;
        let (mut fast, mut full) = (false, false);
        for ev in events {
            match ev {
                Ev::Begin(name) => stack.push(Open {
                    name,
                    children_ns: 0,
                }),
                Ev::Count(counter, delta) => {
                    *self.counters.entry(counter).or_default() += delta;
                    fast |= counter == Counter::IncrementalFastPaths;
                    full |= counter == Counter::IncrementalFullRuns;
                }
                Ev::End(name, dur) => {
                    let Some(span) = stack.pop() else { continue };
                    if let Some(parent) = stack.last_mut() {
                        parent.children_ns += dur;
                    }
                    let below_serve = stack.len() == 1;
                    let ancestor =
                        |pred: &dyn Fn(&str) -> bool| stack.iter().any(|s| pred(&s.name));
                    let ns = dur as f64;
                    if below_serve && name.starts_with("engine.") {
                        engine_ns += dur;
                    }
                    match name.as_ref() {
                        "engine.views" => self.views_ns.push(ns),
                        "engine.collect" => self.collect_ns += ns,
                        "analysis.run" if !ancestor(&|n| n == "analysis.run") => {
                            self.analyze_ns.push(ns);
                        }
                        n if is_parse_elab(n) && !ancestor(&is_parse_elab) => {
                            self.parse_elab_ns += ns;
                        }
                        n if n.starts_with("serve.") && stack.is_empty() => {
                            match n {
                                "serve.open" => self.open_ns.push(ns),
                                "serve.render" => self
                                    .render_encode_ns
                                    .push(dur.saturating_sub(span.children_ns) as f64),
                                _ => {}
                            }
                            serve = (dur, span.children_ns);
                        }
                        _ => {}
                    }
                }
            }
        }
        if full {
            self.run_full_ns.push(engine_ns as f64);
        } else if fast {
            self.run_fast_ns.push(engine_ns as f64);
        }
        serve
    }

    fn counter(&self, c: Counter) -> u64 {
        self.counters.get(&c).copied().unwrap_or(0)
    }

    fn share(&self, hit: Counter, miss: Counter) -> f64 {
        let (h, m) = (self.counter(hit), self.counter(miss));
        h as f64 / (h + m).max(1) as f64
    }
}

/// Replays `lines` through a fresh plain server; returns the elapsed ns.
fn replay_plain(lines: &[&Sent]) -> u64 {
    let mut server = Server::with_registry(registry_factory());
    let started = Instant::now();
    for sent in lines {
        std::hint::black_box(server.handle_line(&sent.req.line));
    }
    started.elapsed().as_nanos() as u64
}

/// Replays `lines` with the deployed observability attached: the
/// `ServeMetrics` aggregate plus a `MetricsSink` tracer for phase
/// attribution.
fn replay_metrics(lines: &[&Sent]) -> u64 {
    let metrics = ServeMetrics::new(4, 4096);
    let mut server = Server::with_registry(registry_factory());
    server.enable_metrics(metrics.clone());
    let sink = PairSink(
        MetricsSink::new(Arc::clone(metrics.hub())),
        metrics.capture().clone(),
    );
    let _guard = livelit_trace::install(&Tracer::monotonic(sink));
    let started = Instant::now();
    for sent in lines {
        std::hint::black_box(server.handle_line(&sent.req.line));
    }
    started.elapsed().as_nanos() as u64
}

/// Replays `lines` with the breakdown's tracer installed, its events
/// drained after every request as the breakdown does.
fn replay_traced(lines: &[&Sent]) -> u64 {
    let sink = LayerSink::default();
    let _guard = livelit_trace::install(&Tracer::monotonic(sink.clone()));
    let mut server = Server::with_registry(registry_factory());
    let started = Instant::now();
    for sent in lines {
        std::hint::black_box(server.handle_line(&sent.req.line));
        std::hint::black_box(sink.drain());
    }
    started.elapsed().as_nanos() as u64
}

/// Measures every per-layer metric for one finished run.
pub fn measure(workload: Workload, logs: &[ClientLog], check: &Check, scratch: &Path) -> Report {
    let mut out = Vec::new();
    let us = |ns: f64| ns / 1e3;
    let ms = |ns: f64| ns / 1e6;

    // server::transport — socket round trip minus in-process handling.
    let mut gap = Vec::new();
    let mut reconnect = Vec::new();
    let mut handle_by_op: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (log, handle) in logs.iter().zip(&check.handle_ns) {
        for (sent, &h) in log.sent.iter().zip(handle) {
            let d = sent.rtt_ns as f64 - h as f64;
            if sent.first_on_conn {
                reconnect.push(d);
            } else {
                gap.push(d);
            }
            handle_by_op.entry(sent.req.op).or_default().push(h as f64);
        }
    }
    let (gap, reconnect) = (sorted(gap), sorted(reconnect));
    out.push(Metric::new(
        "transport.gap_us_p50",
        us(quantile(&gap, 0.5)),
        "us",
        gap.len(),
    ));
    out.push(Metric::new(
        "transport.reconnect_wait_ms_p50",
        ms(quantile(&reconnect, 0.5)),
        "ms",
        reconnect.len(),
    ));
    for op in OPS {
        let v = sorted(handle_by_op.remove(op).unwrap_or_default());
        out.push(Metric::new(
            format!("server.handle_us_p50.{op}"),
            us(quantile(&v, 0.5)),
            "us",
            v.len(),
        ));
    }

    let prefix: Vec<&Sent> = logs
        .iter()
        .flat_map(|l| l.sent.iter().take(prefix_len(workload)))
        .collect();

    // server::json — the request parser on its own.
    let parse_ns: Vec<f64> = prefix
        .iter()
        .map(|s| {
            let started = Instant::now();
            let _ = std::hint::black_box(json::parse(std::hint::black_box(&s.req.line)));
            started.elapsed().as_nanos() as f64
        })
        .collect();

    // The traced replay: per request, the spans below `handle_line`.
    let sink = LayerSink::default();
    let mut spans = Spans::default();
    let mut unaccounted = Vec::with_capacity(prefix.len());
    let mut write_ns = Vec::new();
    {
        let _guard = livelit_trace::install(&Tracer::monotonic(sink.clone()));
        let mut server = Server::with_registry(registry_factory());
        for (sent, parse) in prefix.iter().zip(&parse_ns) {
            let started = Instant::now();
            let reply = server.handle_line(&sent.req.line);
            let handle = started.elapsed().as_nanos() as u64;
            let (serve, children) = spans.fold(sink.drain());
            let mut rest = handle as f64 - parse;
            if sent.req.op == "render" {
                // The reply tree written out again, timed on its own.
                let tree = json::parse(&reply).unwrap_or(Json::Null);
                let started = Instant::now();
                std::hint::black_box(tree.to_string());
                let write = started.elapsed().as_nanos() as f64;
                write_ns.push(write);
                rest -= serve as f64 + write;
            } else {
                rest -= children as f64;
            }
            unaccounted.push(rest);
        }
    }

    // server::observe and the tracing distortion — the deployed metrics
    // and the breakdown's tracer, each against a plain replay: the best of
    // two whole-loop passes per side, alternated so drift hits every side
    // alike.
    let mut plain = u64::MAX;
    let mut observed = u64::MAX;
    let mut traced = u64::MAX;
    for _ in 0..2 {
        plain = plain.min(replay_plain(&prefix));
        observed = observed.min(replay_metrics(&prefix));
        traced = traced.min(replay_traced(&prefix));
    }

    // server::snapshot — the journal append of every request the server
    // would journal, then a restore of the result.
    let snap_dir = scratch.join("snap");
    let mut append_ns = Vec::new();
    let mut journal_bytes = 0u64;
    let mut opened = BTreeSet::new();
    if let Ok(mut store) = SnapshotStore::open(&snap_dir) {
        for sent in &prefix {
            let Some(session) = sent.req.session.as_deref() else {
                continue;
            };
            let ok = sent
                .reply
                .as_deref()
                .is_some_and(|r| r.starts_with("{\"ok\":true"));
            if sent.req.op == "open" && ok {
                opened.insert(session);
            }
            if !opened.contains(session) {
                continue;
            }
            // The server's journaling rule: a successful `close` deletes
            // the session's journal instead of appending to it.
            if sent.req.op == "close" && ok {
                opened.remove(session);
                let _ = store.remove(session);
                continue;
            }
            let started = Instant::now();
            if let Ok(bytes) = store.append(session, &sent.req.line) {
                append_ns.push(started.elapsed().as_nanos() as f64);
                journal_bytes += bytes;
            }
        }
        let _ = store.sync();
    }
    let mut restored = Server::with_registry(registry_factory());
    let started = Instant::now();
    let report = restored.enable_snapshots(&snap_dir);
    let restore_ns = started.elapsed().as_nanos() as f64;
    let replay_lines: usize = report
        .map(|r| r.restored.iter().map(|(_, n)| n).sum())
        .unwrap_or(0);

    // server::wire — what renders shipped as patches.
    let mut views = 0usize;
    let mut patched = 0usize;
    for sent in logs.iter().flat_map(|l| &l.sent) {
        if sent.req.op != "render" {
            continue;
        }
        let tree = sent.reply.as_deref().and_then(|r| json::parse(r).ok());
        for view in tree
            .as_ref()
            .and_then(|t| t.get("views"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
        {
            views += 1;
            patched += usize::from(view.get("mode").and_then(Json::as_str) == Some("patch"));
        }
    }

    let n = prefix.len();
    out.push(Metric::new(
        "server.unaccounted_us",
        us(mean(&unaccounted)),
        "us",
        n,
    ));
    out.push(Metric::new(
        "json.parse_us_per_req",
        us(mean(&parse_ns)),
        "us",
        n,
    ));
    let encode: Vec<f64> = spans
        .render_encode_ns
        .iter()
        .zip(&write_ns)
        .map(|(a, b)| a + b)
        .collect();
    out.push(Metric::new(
        "wire.encode_us_per_render",
        us(mean(&encode)),
        "us",
        encode.len(),
    ));
    out.push(Metric::new(
        "wire.patch_view_share",
        patched as f64 / views.max(1) as f64,
        "ratio",
        views,
    ));
    let append = sorted(append_ns);
    out.push(Metric::new(
        "snapshot.append_us_p50",
        us(quantile(&append, 0.5)),
        "us",
        append.len(),
    ));
    out.push(Metric::new("snapshot.restore_ms", ms(restore_ns), "ms", 1));
    out.push(Metric::new(
        "snapshot.replay_lines",
        replay_lines as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "snapshot.bytes_per_req",
        journal_bytes as f64 / append.len().max(1) as f64,
        "bytes",
        append.len(),
    ));
    out.push(Metric::new(
        "observe.metrics_cost_ratio",
        observed as f64 / plain.max(1) as f64,
        "ratio",
        n,
    ));

    let open = sorted(spans.open_ns.clone());
    let fast = sorted(spans.run_fast_ns.clone());
    let full = sorted(spans.run_full_ns.clone());
    let analyze = sorted(spans.analyze_ns.clone());
    let full_runs = spans.counter(Counter::IncrementalFullRuns);
    let parse_elab_reqs = prefix
        .iter()
        .filter(|s| matches!(s.req.op, "open" | "edit"))
        .count();
    out.extend([
        Metric::new(
            "editor.open_ms_p50",
            ms(quantile(&open, 0.5)),
            "ms",
            open.len(),
        ),
        Metric::new(
            "editor.run_fast_us_p50",
            us(quantile(&fast, 0.5)),
            "us",
            fast.len(),
        ),
        Metric::new(
            "editor.run_full_ms_p50",
            ms(quantile(&full, 0.5)),
            "ms",
            full.len(),
        ),
        Metric::new(
            "editor.fast_path_share",
            spans.share(Counter::IncrementalFastPaths, Counter::IncrementalFullRuns),
            "ratio",
            fast.len() + full.len(),
        ),
        Metric::new(
            "editor.views_us",
            us(mean(&spans.views_ns)),
            "us",
            spans.views_ns.len(),
        ),
        Metric::new(
            "analysis.analyze_us_p50",
            us(quantile(&analyze, 0.5)),
            "us",
            analyze.len(),
        ),
        Metric::new(
            "analysis.facts_reused_share",
            spans.share(Counter::FlowFactsReused, Counter::FlowFactsComputed),
            "ratio",
            analyze.len(),
        ),
        Metric::new(
            "core.collect_ms_per_full_run",
            ms(spans.collect_ns / full_runs.max(1) as f64),
            "ms",
            full_runs as usize,
        ),
        Metric::new(
            "core.splice_cache_hit_share",
            spans.share(Counter::SpliceCacheHits, Counter::SpliceCacheMisses),
            "ratio",
            n,
        ),
        Metric::new(
            "lang.parse_elab_ms",
            ms(spans.parse_elab_ns / parse_elab_reqs.max(1) as f64),
            "ms",
            parse_elab_reqs,
        ),
        Metric::new(
            "lang.machine_steps",
            spans.counter(Counter::MachineSteps) as f64,
            "count",
            n,
        ),
        Metric::new(
            "mvu.view_nodes_reused_share",
            spans.share(Counter::ViewNodesReused, Counter::ViewNodesRebuilt),
            "ratio",
            n,
        ),
        Metric::new(
            "sched.tasks",
            spans.counter(Counter::SchedTasks) as f64,
            "count",
            n,
        ),
        Metric::new(
            "sched.idle_ms",
            ms(spans.counter(Counter::SchedIdleNs) as f64),
            "ms",
            n,
        ),
        // The tracing distortion: traced replay throughput over plain.
        Metric::new(
            "trace.throughput_ratio",
            plain as f64 / traced.max(1) as f64,
            "ratio",
            n,
        ),
    ]);
    Report {
        machine_steps: spans.counter(Counter::MachineSteps),
        metrics: out,
    }
}
