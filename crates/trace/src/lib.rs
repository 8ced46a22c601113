#![forbid(unsafe_code)]
//! `prs-trace` — structured tracing for the whole solver stack.
//!
//! A process-global span/event recorder with lock-free per-thread buffers,
//! monotonic `u64`-nanosecond timing, and three exporters (human summary,
//! JSONL event log, Chrome trace-event JSON — see [`export`]). Every layer
//! of the stack records against stable span names (`flow.exact_max_flow`,
//! `bd.session_round`, `deviation.sample`, …); the taxonomy lives in
//! `docs/OBSERVABILITY.md`.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost when disabled.** [`span`] and [`instant`] are a single
//!    relaxed atomic load when the recorder is off — no clock read, no
//!    allocation, no attribute formatting (attributes are closures that
//!    only run while recording).
//! 2. **Panic-free, float-free, cast-free.** This crate sits inside the
//!    exact kernels' call graph, so `prs-lint` holds it to the same rules
//!    as `crates/numeric`: all timing and export arithmetic is integer.
//! 3. **Deterministic at joins.** Each thread buffers its own events
//!    (flushed to the global sink when the thread exits or at [`take`]);
//!    [`take`] merges them in `(worker, seq)` order and renumbers workers
//!    densely, so a single-threaded run exports byte-identical streams
//!    modulo timestamps, and parallel runs are permutation-equal.
//!
//! The recorder also hosts the process-wide [`Counter`] registry: each
//! layer declares its counters as `static`s in the module that bumps them,
//! and every reader — `prs … --stats`, the human summary, the benchmark —
//! reads them by registered name through [`counter_values`],
//! [`counter_value`] and [`counters_since`]. Counters are always live
//! (independent of span recording).
//!
//! The [`metrics`] module adds the *streaming* half of the story:
//! log-linear histograms updated at span close (bounded state, callable
//! mid-run), an SLO watchdog, and a per-thread flight recorder — all
//! gated by the same single state word as event recording, so the
//! disabled path stays one relaxed atomic load no matter how many
//! subsystems hang off span close.

pub mod export;
pub mod metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Recorder configuration, threaded through the stack's usual
/// `#[non_exhaustive]` + `with_*` builder convention.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct TraceConfig {
    /// Whether span/event recording is on (counters are always live).
    pub enabled: bool,
    /// Per-thread buffered-event cap; events beyond it are counted as
    /// dropped rather than recorded (reported by [`take`], never silent).
    pub max_events_per_thread: usize,
}

impl TraceConfig {
    /// Recording on, with a roomy default buffer (2^20 events per thread).
    pub fn new() -> Self {
        TraceConfig {
            enabled: true,
            max_events_per_thread: 1 << 20,
        }
    }

    /// Toggle recording.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Override the per-thread buffered-event cap.
    pub fn with_max_events_per_thread(mut self, cap: usize) -> Self {
        self.max_events_per_thread = cap;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::new()
    }
}

/// What an event represents; drives the exporters' phase fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: entered at `start_ns`, lasted `dur_ns`.
    Span,
    /// A point-in-time marker (`dur_ns` is zero).
    Instant,
}

/// One recorded event. Timestamps are nanoseconds since the process
/// trace epoch (first clock use), monotonic within the process.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Layer the event belongs to (`"flow"`, `"bd"`, `"deviation"`, …).
    pub layer: &'static str,
    /// Stable span/event name within the layer.
    pub name: &'static str,
    /// Span or instant marker.
    pub kind: EventKind,
    /// Start time, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (zero for instants).
    pub dur_ns: u64,
    /// Dense worker (thread) id, assigned at [`take`] in merge order.
    pub worker: u64,
    /// Per-worker sequence number (program order on a thread), renumbered
    /// from zero at [`take`].
    pub seq: u64,
    /// Key/value attributes (values preformatted by the recording site).
    pub attrs: Vec<(&'static str, String)>,
}

/// A drained trace: every event recorded since the previous [`take`],
/// merged deterministically, plus the count of events the per-thread cap
/// forced us to drop (so truncation is never silent).
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in `(worker, seq)` order.
    pub events: Vec<TraceEvent>,
    /// Events dropped because a thread buffer hit its cap.
    pub dropped: u64,
}

// ---------------------------------------------------------------------------
// Global recorder state.
// ---------------------------------------------------------------------------

/// Recorder state bits, packed into one word so the disabled fast path in
/// [`span`] / [`instant`] is a *single* relaxed atomic load regardless of
/// which subsystems are armed. `BIT_RECORD` is classic event buffering;
/// the other bits belong to the [`metrics`] module and are set/cleared by
/// [`metrics::install`].
pub(crate) const BIT_RECORD: u32 = 1 << 0;
pub(crate) const BIT_METRICS: u32 = 1 << 1;
pub(crate) const BIT_FLIGHT: u32 = 1 << 2;
pub(crate) const BIT_SLO: u32 = 1 << 3;

static STATE: AtomicU32 = AtomicU32::new(0);
static MAX_PER_THREAD: AtomicUsize = AtomicUsize::new(1 << 20);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_WORKER: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn lock_sink() -> std::sync::MutexGuard<'static, Vec<TraceEvent>> {
    // A panicked recording thread must not silence everyone else's trace.
    match SINK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[inline]
pub(crate) fn state_bits() -> u32 {
    STATE.load(Ordering::Relaxed)
}

pub(crate) fn set_state_bits(bits: u32) {
    STATE.fetch_or(bits, Ordering::Relaxed);
}

pub(crate) fn clear_state_bits(bits: u32) {
    STATE.fetch_and(!bits, Ordering::Relaxed);
}

/// Install a configuration: sets the buffer cap and flips recording.
/// Metrics/flight/SLO state is independent — see [`metrics::install`].
pub fn install(cfg: &TraceConfig) {
    MAX_PER_THREAD.store(cfg.max_events_per_thread, Ordering::Relaxed);
    if cfg.enabled {
        set_state_bits(BIT_RECORD);
    } else {
        clear_state_bits(BIT_RECORD);
    }
}

/// Turn recording on with the default configuration.
pub fn enable() {
    install(&TraceConfig::new());
}

/// Turn recording off (buffered events stay until [`take`] or [`clear`]).
pub fn disable() {
    clear_state_bits(BIT_RECORD);
}

/// Whether event recording is currently on (metrics-only operation — see
/// [`metrics`] — does not count: no events are buffered there).
#[inline]
pub fn is_enabled() -> bool {
    state_bits() & BIT_RECORD != 0
}

// ---------------------------------------------------------------------------
// Per-thread buffers.
// ---------------------------------------------------------------------------

struct ThreadBuf {
    worker: u64,
    seq: u64,
    events: Vec<TraceEvent>,
}

impl ThreadBuf {
    fn fresh() -> Self {
        ThreadBuf {
            worker: NEXT_WORKER.fetch_add(1, Ordering::Relaxed),
            seq: 0,
            events: Vec::new(),
        }
    }

    fn push(&mut self, mut ev: TraceEvent) {
        if self.events.len() >= MAX_PER_THREAD.load(Ordering::Relaxed) {
            DROPPED.fetch_add(1, Ordering::Relaxed);
            return;
        }
        ev.worker = self.worker;
        ev.seq = self.seq;
        self.seq += 1;
        self.events.push(ev);
    }

    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        lock_sink().append(&mut self.events);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Worker threads (scoped or spawned) flush on exit, so
        // a `take()` after the join sees every worker's events.
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::fresh());
}

fn record(ev: TraceEvent) {
    // `try_with`/`try_borrow_mut` keep this path panic-free even during
    // thread-local destruction or pathological re-entrancy; an event that
    // cannot be buffered is counted as dropped.
    let stored = BUF.try_with(|cell| {
        if let Ok(mut buf) = cell.try_borrow_mut() {
            buf.push(ev);
            true
        } else {
            false
        }
    });
    if stored != Ok(true) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans and instants.
// ---------------------------------------------------------------------------

/// A live span: records one [`EventKind::Span`] event when dropped.
/// Obtained from [`span`]; inert (no clock, no allocation) when the
/// recorder was off at creation.
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(&'static str, String)>,
    /// State bits captured at open; a mid-span `install` does not change
    /// where this span's close is routed.
    bits: u32,
}

/// Open a span. The returned guard records the span (with its duration)
/// when it goes out of scope — into the event buffer, the streaming
/// [`metrics`] histograms, and/or the flight-recorder ring, per the state
/// bits at open. When everything is off this is one relaxed atomic load
/// and returns an inert guard.
#[inline]
pub fn span(layer: &'static str, name: &'static str) -> SpanGuard {
    let bits = state_bits();
    if bits == 0 {
        return SpanGuard { open: None };
    }
    SpanGuard {
        open: Some(OpenSpan {
            layer,
            name,
            start_ns: now_ns(),
            attrs: Vec::new(),
            bits,
        }),
    }
}

impl SpanGuard {
    /// Whether this guard will record the span *event* (buffer or flight
    /// ring) — i.e. whether attribute prep is worth doing. Metrics-only
    /// operation answers `false`: histograms only consume the duration.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.open
            .as_ref()
            .is_some_and(|o| o.bits & (BIT_RECORD | BIT_FLIGHT) != 0)
    }

    /// Attach an attribute. The value closure only runs while the span
    /// event is going somewhere (recording or flight ring), so formatting
    /// costs nothing when tracing is off or metrics-only.
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: impl FnOnce() -> String) {
        if let Some(open) = self.open.as_mut() {
            if open.bits & (BIT_RECORD | BIT_FLIGHT) != 0 {
                open.attrs.push((key, value()));
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            let end_ns = now_ns();
            let dur_ns = end_ns.saturating_sub(open.start_ns);
            if open.bits & (BIT_METRICS | BIT_SLO) != 0 {
                metrics::on_span_close(open.layer, open.name, dur_ns, open.bits);
            }
            if open.bits & (BIT_RECORD | BIT_FLIGHT) != 0 {
                let ev = TraceEvent {
                    layer: open.layer,
                    name: open.name,
                    kind: EventKind::Span,
                    start_ns: open.start_ns,
                    dur_ns,
                    worker: 0,
                    seq: 0,
                    attrs: open.attrs,
                };
                if open.bits & BIT_FLIGHT != 0 {
                    metrics::flight_record(&ev);
                }
                if open.bits & BIT_RECORD != 0 {
                    record(ev);
                }
            }
        }
    }
}

/// Record a point-in-time event. The attribute closure only runs while
/// the event is going somewhere (recording or the flight-recorder ring);
/// when tracing is off this is one relaxed atomic load.
#[inline]
pub fn instant(
    layer: &'static str,
    name: &'static str,
    attrs: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    let bits = state_bits();
    if bits & (BIT_RECORD | BIT_FLIGHT) == 0 {
        return;
    }
    let ev = TraceEvent {
        layer,
        name,
        kind: EventKind::Instant,
        start_ns: now_ns(),
        dur_ns: 0,
        worker: 0,
        seq: 0,
        attrs: attrs(),
    };
    if bits & BIT_FLIGHT != 0 {
        metrics::flight_record(&ev);
    }
    if bits & BIT_RECORD != 0 {
        record(ev);
    }
}

// ---------------------------------------------------------------------------
// Draining.
// ---------------------------------------------------------------------------

/// Flush the calling thread's buffered events to the global sink.
///
/// Scoped worker closures must call this as their **last act** (after
/// their span guards drop): `std::thread::scope` can return to the parent
/// before a child thread's thread-local destructors run, so relying on the
/// TLS drop-flush alone races the parent's [`take`]. The drop-flush stays
/// as a backstop for plain `std::thread::spawn` + `join` threads.
pub fn flush_thread() {
    let _ = BUF.try_with(|cell| {
        if let Ok(mut buf) = cell.try_borrow_mut() {
            buf.flush();
        }
    });
}

/// Drain every buffered event into a [`Trace`].
///
/// Flushes the calling thread's buffer, takes the global sink, sorts by
/// `(worker, seq)`, and renumbers both workers (densely, in merge order)
/// and each worker's `seq` (from zero) — so two identical runs in one
/// process export identical ids even though the underlying thread-local
/// counters keep growing. Call this at a quiescent point — after parallel
/// scopes have joined — or still-running threads' buffered events are
/// missed until their next flush.
pub fn take() -> Trace {
    flush_thread();
    let mut events = std::mem::take(&mut *lock_sink());
    events.sort_by_key(|a| (a.worker, a.seq));
    let mut dense: u64 = 0;
    let mut seq: u64 = 0;
    let mut prev: Option<u64> = None;
    for ev in events.iter_mut() {
        match prev {
            Some(p) if p == ev.worker => {}
            Some(_) => {
                dense += 1;
                seq = 0;
            }
            None => {}
        }
        prev = Some(ev.worker);
        ev.worker = dense;
        ev.seq = seq;
        seq += 1;
    }
    Trace {
        events,
        dropped: DROPPED.swap(0, Ordering::Relaxed),
    }
}

/// Discard every buffered event and the dropped-event count.
pub fn clear() {
    let _ = take();
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// A named process-global counter, always live (independent of span
/// recording). Each layer declares its counters as `static`s in the module
/// that bumps them; every counter self-registers on first use so the
/// readers can list the full set without a static manifest.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

static REGISTRY: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

fn lock_registry() -> std::sync::MutexGuard<'static, Vec<&'static Counter>> {
    match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Counter {
    /// A new counter at zero. `name` should be globally unique and
    /// dot-namespaced by layer (e.g. `"flow.exact_bfs_phases"`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Bump by `n` (relaxed; counters are monotone between `set`s).
    #[inline]
    pub fn add(&'static self, n: u64) {
        // A plain load on the hot path; only a counter not yet registered
        // pays the swap, which still decides registration exactly once.
        // Relaxed is enough: the flag publishes no data (the registry has
        // its own lock).
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            lock_registry().push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Snapshot every registered counter as `(name, value)`, sorted by name.
pub fn counter_values() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = lock_registry()
        .iter()
        .map(|c| (c.name(), c.get()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(b.0));
    out
}

/// The value of the counter registered as `name`; 0 before its first bump.
pub fn counter_value(name: &str) -> u64 {
    lock_registry()
        .iter()
        .find(|c| c.name() == name)
        .map_or(0, |c| c.get())
}

/// Every counter that moved since `before` (a [`counter_values`] snapshot)
/// and by how much, sorted by name. Differences saturate at zero, so a
/// counter [`set`](Counter::set) below its snapshot reads as not moved.
pub fn counters_since(before: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    counter_values()
        .into_iter()
        .map(|(name, v)| {
            let was = before.iter().find(|(n, _)| *n == name).map_or(0, |e| e.1);
            (name, v.saturating_sub(was))
        })
        .filter(|(_, d)| *d > 0)
        .collect()
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::{Mutex, MutexGuard};

    // The recorder is process-global, so tests that enable/drain it must
    // not interleave; this lock serializes them (shared with the metrics
    // module's tests, which toggle the same state word).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::locked;
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = locked();
        clear();
        disable();
        {
            let mut s = span("flow", "exact_max_flow");
            assert!(!s.is_recording());
            let mut ran = false;
            s.attr("x", || {
                ran = true;
                "never".to_string()
            });
            assert!(!ran, "attr closure must not run while disabled");
        }
        instant("bd", "noop", || vec![("k", "v".to_string())]);
        let t = take();
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn spans_and_instants_record_in_program_order() {
        let _g = locked();
        clear();
        enable();
        {
            let mut s = span("bd", "round");
            s.attr("round", || "0".to_string());
        }
        instant("deviation", "breakpoint", || vec![("x", "1/2".to_string())]);
        {
            let _s = span("flow", "exact_max_flow");
        }
        disable();
        let t = take();
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.events[0].name, "round");
        assert_eq!(t.events[0].kind, EventKind::Span);
        assert_eq!(t.events[0].attrs, vec![("round", "0".to_string())]);
        assert_eq!(t.events[1].name, "breakpoint");
        assert_eq!(t.events[1].kind, EventKind::Instant);
        assert_eq!(t.events[1].dur_ns, 0);
        assert_eq!(t.events[2].name, "exact_max_flow");
        // Same thread: one dense worker id, increasing seq.
        assert!(t.events.iter().all(|e| e.worker == 0));
        assert!(t.events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Monotonic timestamps on one thread.
        assert!(t.events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn worker_ids_renumber_densely_across_threads() {
        let _g = locked();
        clear();
        enable();
        {
            let _s = span("bd", "main_side");
        }
        let handles: Vec<_> = (0..3)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut s = span("bd", "par_worker");
                    s.attr("job", || i.to_string());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        disable();
        let t = take();
        assert_eq!(t.events.len(), 4);
        let mut workers: Vec<u64> = t.events.iter().map(|e| e.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(workers, vec![0, 1, 2, 3], "dense renumbering");
    }

    #[test]
    fn per_thread_cap_counts_dropped_events() {
        let _g = locked();
        clear();
        install(&TraceConfig::new().with_max_events_per_thread(2));
        for _ in 0..5 {
            instant("bd", "tick", Vec::new);
        }
        disable();
        let t = take();
        // Restore the default cap for other tests.
        install(&TraceConfig::new().with_enabled(false));
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn counters_register_and_accumulate() {
        // Other tests bump the metrics counters concurrently, so only the
        // probes' own entries are asserted exactly.
        static PROBE: Counter = Counter::new("test.probe_counter");
        static LATER: Counter = Counter::new("test.probe_later");
        static IDLE: Counter = Counter::new("test.probe_idle");
        PROBE.add(3);
        PROBE.add(4);
        IDLE.add(1);
        assert_eq!(PROBE.get(), 7);
        let vals = counter_values();
        let listed = vals.iter().filter(|(n, _)| *n == "test.probe_counter");
        assert_eq!(listed.count(), 1, "registered once: {vals:?}");
        assert_eq!(counter_value("test.probe_counter"), 7);
        assert_eq!(counter_value("test.never_bumped"), 0);

        LATER.add(2);
        PROBE.add(5);
        let moved = counters_since(&vals);
        assert!(moved.windows(2).all(|w| w[0].0 < w[1].0), "{moved:?}");
        let probes: Vec<_> = moved
            .iter()
            .filter(|(n, _)| n.starts_with("test."))
            .collect();
        assert_eq!(
            probes,
            [&("test.probe_counter", 5), &("test.probe_later", 2)],
            "only the probes that moved, sorted: {moved:?}"
        );

        // A counter set below its snapshot has not moved.
        let before = counter_values();
        PROBE.set(0);
        assert_eq!(PROBE.get(), 0);
        let moved = counters_since(&before);
        assert!(
            moved.iter().all(|(n, _)| !n.starts_with("test.")),
            "{moved:?}"
        );
    }

    #[test]
    fn config_builders_round_trip() {
        let cfg = TraceConfig::new()
            .with_enabled(false)
            .with_max_events_per_thread(64);
        assert!(!cfg.enabled);
        assert_eq!(cfg.max_events_per_thread, 64);
        assert_eq!(TraceConfig::default(), TraceConfig::new());
    }
}
