//! The tracer: span lifecycle, parent links, and the process-global
//! installation the instrumentation probes report to.
//!
//! Instrumented code calls the free functions [`crate::span`] and
//! [`crate::count`]; they are no-ops (a single relaxed atomic load) until a
//! [`Tracer`] is installed with [`install`]. Installation is serialized
//! process-wide by a lock held for the guard's lifetime, so concurrent
//! traced sections (e.g. parallel tests) cannot interleave their events.
//!
//! The current tracer and its span stack are process-global rather than
//! thread-local: a span opened on any thread while a tracer is installed
//! nests under the innermost span open anywhere. The pipeline emits events
//! only from the thread that drives a request (pool workers return their
//! counts to it) and spawns no helper threads of its own, so nothing in
//! it depends on that cross-thread nesting.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::clock::{Clock, MonotonicClock, TestClock};
use crate::event::{Counter, Event, SpanId};
use crate::sink::Sink;

struct TracerInner {
    clock: Box<dyn Clock>,
    sink: Box<dyn Sink>,
    next_span: u64,
    /// Open spans, innermost last: `(id, name, begin reading)`.
    stack: Vec<(SpanId, Cow<'static, str>, u64)>,
}

/// A handle to one trace session: a clock, a sink, and the open-span stack.
/// Clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer over an explicit clock and sink.
    pub fn new(clock: impl Clock + 'static, sink: impl Sink + 'static) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                clock: Box::new(clock),
                sink: Box::new(sink),
                next_span: 1,
                stack: Vec::new(),
            })),
        }
    }

    /// A tracer over real monotonic time.
    pub fn monotonic(sink: impl Sink + 'static) -> Tracer {
        Tracer::new(MonotonicClock::new(), sink)
    }

    /// A tracer over the deterministic [`TestClock`] — the configuration
    /// whose serialized output is byte-identical across runs.
    pub fn deterministic(sink: impl Sink + 'static) -> Tracer {
        Tracer::new(TestClock::new(), sink)
    }

    fn lock(&self) -> MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span, records its `Begin` event, and returns its id.
    pub fn begin(&self, name: Cow<'static, str>) -> SpanId {
        let mut inner = self.lock();
        let id = SpanId(inner.next_span);
        inner.next_span += 1;
        let parent = inner.stack.last().map(|(p, _, _)| *p);
        let t_ns = inner.clock.now_ns();
        inner.stack.push((id, name.clone(), t_ns));
        let event = Event::Begin {
            id,
            parent,
            name,
            t_ns,
        };
        inner.sink.record(&event);
        id
    }

    /// Closes span `id`, recording its `End` event. Any spans opened inside
    /// it and not yet closed are unwound silently (guards make this
    /// unreachable in practice; it keeps the stack sound under panics).
    pub fn end(&self, id: SpanId) {
        let mut inner = self.lock();
        let Some(pos) = inner.stack.iter().rposition(|(s, _, _)| *s == id) else {
            return;
        };
        let (_, name, begin_ns) = inner.stack.swap_remove(pos);
        inner.stack.truncate(pos);
        let t_ns = inner.clock.now_ns();
        let event = Event::End {
            id,
            name,
            t_ns,
            dur_ns: t_ns.saturating_sub(begin_ns),
        };
        inner.sink.record(&event);
    }

    /// Records a counter increment, attributed to the innermost open span.
    pub fn count(&self, counter: Counter, delta: u64) {
        let mut inner = self.lock();
        let span = inner.stack.last().map(|(s, _, _)| *s);
        let t_ns = inner.clock.now_ns();
        let event = Event::Count {
            counter,
            delta,
            span,
            t_ns,
        };
        inner.sink.record(&event);
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

/// Fast flag the probes check before touching any lock.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// The installed tracer, when [`ENABLED`] is set.
static CURRENT: Mutex<Option<Tracer>> = Mutex::new(None);
/// Bumped on every install/uninstall; lets per-thread tracer caches
/// detect staleness with one relaxed load instead of locking [`CURRENT`].
static GENERATION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
/// Serializes installations process-wide (held by the [`InstallGuard`]).
static INSTALL: Mutex<()> = Mutex::new(());

thread_local! {
    /// This thread's last-seen `(generation, tracer)` — a cache of
    /// [`CURRENT`] so the per-event hot path (every span begin and every
    /// counter bump while tracing is on) costs an atomic generation check
    /// and an `Arc` clone rather than a contended global mutex.
    static CACHED: std::cell::RefCell<(u64, Option<Tracer>)> =
        const { std::cell::RefCell::new((0, None)) };
}

/// Whether a tracer is currently installed. Probes compile to this single
/// relaxed load when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Keeps a tracer installed; uninstalls on drop.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub struct InstallGuard {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        *CURRENT.lock().unwrap_or_else(PoisonError::into_inner) = None;
        GENERATION.fetch_add(1, Ordering::Release);
    }
}

/// Installs `tracer` as the process-global trace destination until the
/// returned guard drops. Concurrent installs from other threads block
/// until then; do not nest installs on one thread (it would deadlock).
///
/// A tracer whose sink [`Sink::is_noop`] (e.g. [`crate::NullSink`]) is
/// installed without enabling the probes: recording events nobody will see
/// would be pure overhead, so the off-state fast path is kept instead.
pub fn install(tracer: &Tracer) -> InstallGuard {
    let serial = INSTALL.lock().unwrap_or_else(PoisonError::into_inner);
    let noop = tracer.lock().sink.is_noop();
    *CURRENT.lock().unwrap_or_else(PoisonError::into_inner) = Some(tracer.clone());
    GENERATION.fetch_add(1, Ordering::Release);
    ENABLED.store(!noop, Ordering::SeqCst);
    InstallGuard { _serial: serial }
}

/// The installed tracer, via this thread's generation-checked cache: the
/// common case (tracer unchanged since this thread last looked) is one
/// relaxed load and an `Arc` clone; only a generation mismatch pays the
/// [`CURRENT`] lock.
fn current() -> Option<Tracer> {
    // Not `Option::cloned` point-free: the higher-ranked lifetime in
    // `with_current`'s callback rejects the bare method reference.
    #[allow(clippy::redundant_closure_for_method_calls)]
    with_current(|tracer| tracer.cloned())
}

/// Runs `f` on the installed tracer (or `None`) borrowed from this
/// thread's cache — the hot-path variant of [`current`] that skips the
/// `Arc` refcount round-trip when the caller doesn't need ownership.
fn with_current<R>(f: impl FnOnce(Option<&Tracer>) -> R) -> R {
    let generation = GENERATION.load(Ordering::Acquire);
    CACHED.with(|cached| {
        let mut cached = cached.borrow_mut();
        if cached.0 != generation {
            *cached = (
                generation,
                CURRENT
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            );
        }
        f(cached.1.as_ref())
    })
}

/// Closes its span when dropped. The disabled form is a no-op shell.
#[must_use = "the span closes when the guard drops"]
pub struct SpanGuard(Option<(Tracer, SpanId)>);

impl SpanGuard {
    /// The guard's span id, when tracing was enabled at open.
    pub fn id(&self) -> Option<SpanId> {
        self.0.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((tracer, id)) = self.0.take() {
            tracer.end(id);
        }
    }
}

/// Opens a span named `name` on the installed tracer, if any. When tracing
/// is off this is one atomic load and returns an inert guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_cow(Cow::Borrowed(name))
}

/// [`span`] with a runtime-composed name `prefix + rest`; the allocation
/// happens only when tracing is enabled.
#[inline]
pub fn span_prefixed(prefix: &'static str, rest: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    span_cow(Cow::Owned(format!("{prefix}{rest}")))
}

fn span_cow(name: Cow<'static, str>) -> SpanGuard {
    match current() {
        Some(tracer) => {
            let id = tracer.begin(name);
            SpanGuard(Some((tracer, id)))
        }
        None => SpanGuard(None),
    }
}

/// Adds `delta` to `counter` on the installed tracer, if any. When tracing
/// is off this is one atomic load.
#[inline]
pub fn count(counter: Counter, delta: u64) {
    if !enabled() {
        return;
    }
    with_current(|tracer| {
        if let Some(tracer) = tracer {
            tracer.count(counter, delta);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;

    #[test]
    fn probes_are_inert_without_install() {
        assert!(!enabled());
        let guard = span("nothing");
        assert!(guard.id().is_none());
        count(Counter::EvalSteps, 5);
    }

    #[test]
    fn spans_nest_and_unwind_defensively() {
        let sink = RingSink::new(64);
        let tracer = Tracer::deterministic(sink.clone());
        let outer = tracer.begin(Cow::Borrowed("outer"));
        let _inner = tracer.begin(Cow::Borrowed("inner"));
        // Ending the outer span unwinds the dangling inner one silently.
        tracer.end(outer);
        let events = sink.events();
        assert_eq!(events.len(), 3, "{events:?}");
        assert!(matches!(&events[2], Event::End { name, .. } if name == "outer"));
    }
}
