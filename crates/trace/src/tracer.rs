//! The tracer: span lifecycle, parent links, and the thread-scoped
//! installation the instrumentation probes report to.
//!
//! Instrumented code calls the free functions [`crate::span`] and
//! [`crate::count`]; they are no-ops (a single thread-local load) until a
//! [`Tracer`] is installed on the calling thread with [`install`].
//!
//! An install covers only the thread that made it: events from any other
//! thread go to that thread's own tracer, or nowhere. A traced run
//! therefore records exactly its own work, whatever else the process is
//! doing at the same time (parallel tests, concurrent requests). The
//! pipeline emits events only from the thread that drives a request; pool
//! workers return their counts to it instead of recording them.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
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

thread_local! {
    /// Whether a tracer is installed on this thread. Kept apart from
    /// [`CURRENT`] so the off path reads one `const`-initialised flag and
    /// never registers a thread-local destructor.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// This thread's installed tracer, when [`ENABLED`] is set.
    static CURRENT: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Whether a tracer is installed on the calling thread. Probes compile to
/// this single thread-local load when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Keeps a tracer installed on the thread that called [`install`]; on
/// drop, restores whatever that thread had installed before. Not `Send`:
/// it must drop on the thread it was made on.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub struct InstallGuard {
    previous: Option<Tracer>,
    was_enabled: bool,
    _not_send: PhantomData<*const ()>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| *current.borrow_mut() = self.previous.take());
        ENABLED.with(|enabled| enabled.set(self.was_enabled));
    }
}

/// Installs `tracer` as the calling thread's trace destination until the
/// returned guard drops. Events from other threads never reach it. Installs
/// nest: an inner install shadows the outer one until its guard drops.
///
/// A tracer whose sink [`Sink::is_noop`] (e.g. [`crate::NullSink`]) is
/// installed without enabling the probes: recording events nobody will see
/// would be pure overhead, so the off-state fast path is kept instead.
pub fn install(tracer: &Tracer) -> InstallGuard {
    let noop = tracer.lock().sink.is_noop();
    let previous = CURRENT.with(|current| current.borrow_mut().replace(tracer.clone()));
    let was_enabled = ENABLED.with(|enabled| enabled.replace(!noop));
    InstallGuard {
        previous,
        was_enabled,
        _not_send: PhantomData,
    }
}

/// Runs `f` on the calling thread's installed tracer, if any.
fn with_current<R>(f: impl FnOnce(&Tracer) -> R) -> Option<R> {
    CURRENT.with(|current| current.borrow().as_ref().map(f))
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
/// is off this is one thread-local load and returns an inert guard.
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
    SpanGuard(with_current(|tracer| (tracer.clone(), tracer.begin(name))))
}

/// Adds `delta` to `counter` on the installed tracer, if any. When tracing
/// is off this is one thread-local load.
#[inline]
pub fn count(counter: Counter, delta: u64) {
    if !enabled() {
        return;
    }
    with_current(|tracer| tracer.count(counter, delta));
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
