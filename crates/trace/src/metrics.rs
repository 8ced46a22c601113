//! `prs-metrics` — the streaming half of the observability stack.
//!
//! [`crate::Trace::span_stats`] is post-hoc: it needs the whole event
//! buffer in memory and a [`take`](crate::take) to drain it, which a
//! long-lived service can never afford. This module keeps **bounded**
//! aggregate state updated online at span close instead, and adds the
//! operational machinery a `prs serve` deployment needs around it:
//!
//! 1. **Streaming histograms** ([`Histogram`]): log-linear (HDR-style)
//!    buckets over integer nanoseconds, one histogram per `(layer, span)`
//!    pair, updated at every span close while [`MetricsConfig::enabled`].
//!    Constant memory (≤ [`MAX_BUCKETS`] `u64` slots per span kind, in
//!    practice far fewer), fixed relative error (see
//!    [`Histogram::quantile`]), and a merge that is plain bucket-count
//!    addition — commutative and associative, so parallel workers merge
//!    deterministically in any order. [`snapshot`] / [`snapshot_jsonl`]
//!    read the live state *without draining it*, mid-run.
//! 2. **SLO watchdog** ([`SloConfig`]): per-span latency and count
//!    thresholds checked at span close. A violation bumps the
//!    `metrics.slo_breaches` counter, emits a registered `slo.breach`
//!    instant event, and trips the flight recorder.
//! 3. **Flight recorder** ([`FlightConfig`]): a bounded per-thread ring
//!    of the most recent spans/instants (attributes included) that keeps
//!    working under `take()`-free operation. [`anomaly`] dumps the
//!    calling thread's ring as Chrome trace-event JSON — triggers are
//!    wired at the i128 overflow poison, the BigInt promotion sites, and
//!    SLO breaches.
//!
//! Everything is gated by the same single state word as event recording
//! (see `STATE` in the crate root): with every subsystem off, a span is
//! one relaxed atomic load — asserted by the `metrics_overhead` bench row.

use crate::{instant, span, Counter, TraceEvent, BIT_FLIGHT, BIT_METRICS, BIT_SLO};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

// ---------------------------------------------------------------------------
// Log-linear histogram.
// ---------------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two decade is split into
/// `2^SUB_BITS` linear buckets, which bounds the relative quantile error
/// at `1 / 2^SUB_BITS` (see [`Histogram::quantile`]).
pub const SUB_BITS: u32 = 6;

const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Upper bound on bucket-array length: values below `2^SUB_BITS` get one
/// exact bucket each, and each of the 58 remaining decades of `u64`
/// contributes `2^SUB_BITS` log-linear buckets.
pub const MAX_BUCKETS: usize = 3776;

/// Bucket index for a duration: exact below `SUB_BUCKETS`, log-linear
/// above (top `SUB_BITS` bits after the leading one select the
/// sub-bucket).
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        usize::try_from(v).unwrap_or(0)
    } else {
        let msb = u64::from(63 - v.leading_zeros());
        let shift = msb - u64::from(SUB_BITS);
        let idx = SUB_BUCKETS + shift * SUB_BUCKETS + ((v >> shift) & (SUB_BUCKETS - 1));
        usize::try_from(idx).unwrap_or(MAX_BUCKETS - 1)
    }
}

/// Smallest duration mapping to bucket `idx` — the inverse of
/// [`bucket_index`] on bucket lower bounds.
fn bucket_lower(idx: usize) -> u64 {
    let i = u64::try_from(idx).unwrap_or(0);
    if i < SUB_BUCKETS {
        i
    } else {
        let shift = i / SUB_BUCKETS - 1;
        let sub = i % SUB_BUCKETS;
        (SUB_BUCKETS + sub) << shift
    }
}

/// Nearest-rank position for quantile `q` (percent) over `count`
/// observations: 1-based `ceil(count·q/100)`, clamped to `[1, count]` —
/// the same convention as `span_stats()`'s percentile, so streaming and
/// post-hoc answers are comparable rank-for-rank.
fn nearest_rank(count: u64, q: u64) -> u64 {
    count
        .saturating_mul(q.min(100))
        .div_ceil(100)
        .clamp(1, count)
}

/// A streaming log-linear histogram over integer-nanosecond durations.
///
/// Buckets are exact below `2^SUB_BITS` ns and geometric with
/// `2^SUB_BITS` linear sub-buckets per power-of-two decade above, so the
/// bucket holding a value `v ≥ 2^SUB_BITS` has width `≤ v / 2^SUB_BITS`.
/// Memory is bounded by [`MAX_BUCKETS`] `u64` slots and in practice by
/// the largest duration seen. Merging two histograms is bucket-count
/// addition: commutative, associative, and therefore deterministic under
/// any merge order or thread schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Histogram {
    /// An empty histogram (no allocation until the first record).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one duration. Constant-time; saturating on the (absurd)
    /// `u64` totals overflow.
    pub fn record(&mut self, dur_ns: u64) {
        let idx = bucket_index(dur_ns);
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(slot) = self.counts.get_mut(idx) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(dur_ns);
    }

    /// Fold another histogram into this one (bucket-count addition).
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded durations, nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile (`q` in percent, clamped to 100): the lower
    /// bound of the bucket holding the rank-`ceil(count·q/100)` smallest
    /// observation. Returns 0 on an empty histogram.
    ///
    /// **Error bound.** The answer never exceeds the exact nearest-rank
    /// value `x`, and undershoots it by less than the bucket width:
    /// exact for `x < 2^SUB_BITS` ns, and within `x / 2^SUB_BITS`
    /// (< 1.6% for `SUB_BITS = 6`) above — i.e.
    /// `(x - quantile) · 2^SUB_BITS ≤ x`.
    pub fn quantile(&self, q: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count, q);
        let mut cum: u64 = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            if cum >= rank {
                return bucket_lower(i);
            }
        }
        bucket_lower(self.counts.len().saturating_sub(1))
    }
}

// ---------------------------------------------------------------------------
// Configuration.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
struct SloEntry {
    span: String,
    max_dur_ns: Option<u64>,
    max_count: Option<u64>,
}

/// SLO watchdog rules: span names (`"layer.name"`, matching the
/// registered taxonomy in `docs/trace-registry.txt`) mapped to latency
/// and/or count thresholds. Built with the stack's usual `with_*`
/// convention; an empty config disarms the watchdog.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct SloConfig {
    rules: Vec<SloEntry>,
}

impl SloConfig {
    /// No rules.
    pub fn new() -> Self {
        SloConfig::default()
    }

    fn upsert(&mut self, span: &str) -> Option<&mut SloEntry> {
        if !self.rules.iter().any(|e| e.span == span) {
            self.rules.push(SloEntry {
                span: span.to_string(),
                max_dur_ns: None,
                max_count: None,
            });
        }
        self.rules.iter_mut().find(|e| e.span == span)
    }

    /// Breach whenever a `span` (e.g. `"bd.session_round"`) closes with a
    /// duration strictly above `max_dur_ns`.
    pub fn with_latency(mut self, span: &str, max_dur_ns: u64) -> Self {
        if let Some(e) = self.upsert(span) {
            e.max_dur_ns = Some(max_dur_ns);
        }
        self
    }

    /// Breach (once) when more than `max_count` closes of `span` have
    /// been seen since [`install`] / [`reset`].
    pub fn with_count(mut self, span: &str, max_count: u64) -> Self {
        if let Some(e) = self.upsert(span) {
            e.max_count = Some(max_count);
        }
        self
    }

    /// Number of configured rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether no rules are configured (watchdog disarmed).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Flight-recorder configuration: a bounded per-thread ring of the most
/// recent spans/instants, dumped to `dump_dir` as Chrome trace-event
/// JSON when [`anomaly`] fires.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct FlightConfig {
    /// Ring capacity (events) per thread; `0` disables the recorder.
    pub capacity: usize,
    /// Directory for anomaly dumps; `None` keeps the ring in memory only
    /// (inspectable via [`flight_snapshot`], nothing written to disk).
    pub dump_dir: Option<PathBuf>,
    /// Cap on dump files written per process; anomalies past the cap
    /// still count (`metrics.anomalies`) but write nothing.
    pub max_dumps: u64,
}

impl FlightConfig {
    /// Recorder armed with a 256-event ring, in-memory only, and at most
    /// 8 dump files once a `dump_dir` is set.
    pub fn new() -> Self {
        FlightConfig {
            capacity: 256,
            dump_dir: None,
            max_dumps: 8,
        }
    }

    /// Recorder off (zero capacity).
    pub fn off() -> Self {
        FlightConfig {
            capacity: 0,
            dump_dir: None,
            max_dumps: 0,
        }
    }

    /// Override the per-thread ring capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Write anomaly dumps under `dir`.
    pub fn with_dump_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dump_dir = Some(dir.into());
        self
    }

    /// Override the process-wide dump-file cap.
    pub fn with_max_dumps(mut self, max_dumps: u64) -> Self {
        self.max_dumps = max_dumps;
        self
    }
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig::new()
    }
}

/// Top-level metrics configuration, installed with [`install`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct MetricsConfig {
    /// Whether streaming histograms update at span close.
    pub enabled: bool,
    /// SLO watchdog rules (armed only while `enabled` and non-empty).
    pub slo: SloConfig,
    /// Flight-recorder configuration.
    pub flight: FlightConfig,
}

impl MetricsConfig {
    /// Histograms on, watchdog disarmed, flight recorder off.
    pub fn new() -> Self {
        MetricsConfig {
            enabled: true,
            slo: SloConfig::new(),
            flight: FlightConfig::off(),
        }
    }

    /// Toggle histogram recording.
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Install SLO watchdog rules.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Install a flight-recorder configuration.
    pub fn with_flight(mut self, flight: FlightConfig) -> Self {
        self.flight = flight;
        self
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::new()
    }
}

// ---------------------------------------------------------------------------
// Global state.
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SloRule {
    layer: String,
    name: String,
    max_dur_ns: Option<u64>,
    max_count: Option<u64>,
    seen: u64,
    count_fired: bool,
}

struct MetricsState {
    hists: BTreeMap<(&'static str, &'static str), Histogram>,
    slo: Vec<SloRule>,
}

static METRICS: Mutex<MetricsState> = Mutex::new(MetricsState {
    hists: BTreeMap::new(),
    slo: Vec::new(),
});

static FLIGHT_CAP: AtomicUsize = AtomicUsize::new(0);
static MAX_DUMPS: AtomicU64 = AtomicU64::new(0);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

static SLO_BREACHES: Counter = Counter::new("metrics.slo_breaches");
static ANOMALIES: Counter = Counter::new("metrics.anomalies");
static FLIGHT_DUMPS: Counter = Counter::new("metrics.flight_dumps");

/// Registered name of the flight-recorder dump span (layer `metrics`).
const MSPAN_FLIGHT_DUMP: &str = "flight_dump";

fn lock_metrics() -> std::sync::MutexGuard<'static, MetricsState> {
    // Same poison policy as the event sink: a panicked recording thread
    // must not take everyone else's metrics down with it.
    match METRICS.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn lock_dump_dir() -> std::sync::MutexGuard<'static, Option<PathBuf>> {
    match DUMP_DIR.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Install a metrics configuration: replaces the SLO rule set and flight
/// settings, clears nothing (histograms persist across installs — use
/// [`reset`] to zero them), and flips the state bits so the span fast
/// path routes accordingly.
pub fn install(cfg: &MetricsConfig) {
    {
        let mut st = lock_metrics();
        st.slo = cfg
            .slo
            .rules
            .iter()
            .map(|e| {
                let (layer, name) = match e.span.split_once('.') {
                    Some((l, n)) => (l.to_string(), n.to_string()),
                    None => (String::new(), e.span.clone()),
                };
                SloRule {
                    layer,
                    name,
                    max_dur_ns: e.max_dur_ns,
                    max_count: e.max_count,
                    seen: 0,
                    count_fired: false,
                }
            })
            .collect();
    }
    FLIGHT_CAP.store(cfg.flight.capacity, Ordering::Relaxed);
    MAX_DUMPS.store(cfg.flight.max_dumps, Ordering::Relaxed);
    *lock_dump_dir() = cfg.flight.dump_dir.clone();
    let mut bits = 0;
    if cfg.enabled {
        bits |= BIT_METRICS;
        if !cfg.slo.is_empty() {
            bits |= BIT_SLO;
        }
    }
    if cfg.flight.capacity > 0 {
        bits |= BIT_FLIGHT;
    }
    crate::clear_state_bits(BIT_METRICS | BIT_SLO | BIT_FLIGHT);
    crate::set_state_bits(bits);
}

/// Turn streaming histograms on with the default configuration.
pub fn enable() {
    install(&MetricsConfig::new());
}

/// Turn every metrics subsystem off (histograms keep their contents for
/// later [`snapshot`]s; use [`reset`] to zero them).
pub fn disable() {
    crate::clear_state_bits(BIT_METRICS | BIT_SLO | BIT_FLIGHT);
}

/// Whether streaming histograms are currently updating.
#[inline]
pub fn is_enabled() -> bool {
    crate::state_bits() & BIT_METRICS != 0
}

/// Zero every histogram, re-arm fired SLO count rules, and clear the
/// calling thread's flight ring. Counters (`metrics.*`) are process
/// cumulative and not touched.
pub fn reset() {
    let mut st = lock_metrics();
    st.hists.clear();
    for r in st.slo.iter_mut() {
        r.seen = 0;
        r.count_fired = false;
    }
    drop(st);
    let _ = RING.try_with(|cell| {
        if let Ok(mut r) = cell.try_borrow_mut() {
            r.buf.clear();
            r.next = 0;
        }
    });
}

// ---------------------------------------------------------------------------
// Span-close hook (called from SpanGuard::drop in the crate root).
// ---------------------------------------------------------------------------

struct Breach {
    span: String,
    kind: &'static str,
    observed: u64,
    limit: u64,
}

pub(crate) fn on_span_close(layer: &'static str, name: &'static str, dur_ns: u64, bits: u32) {
    let mut breaches: Vec<Breach> = Vec::new();
    {
        let mut st = lock_metrics();
        if bits & BIT_METRICS != 0 {
            st.hists.entry((layer, name)).or_default().record(dur_ns);
        }
        if bits & BIT_SLO != 0 {
            for rule in st.slo.iter_mut() {
                if rule.layer != layer || rule.name != name {
                    continue;
                }
                rule.seen = rule.seen.saturating_add(1);
                if let Some(max) = rule.max_dur_ns {
                    if dur_ns > max {
                        breaches.push(Breach {
                            span: format!("{layer}.{name}"),
                            kind: "latency",
                            observed: dur_ns,
                            limit: max,
                        });
                    }
                }
                if let Some(max) = rule.max_count {
                    if rule.seen > max && !rule.count_fired {
                        rule.count_fired = true;
                        breaches.push(Breach {
                            span: format!("{layer}.{name}"),
                            kind: "count",
                            observed: rule.seen,
                            limit: max,
                        });
                    }
                }
            }
        }
    }
    // Emit outside the state lock: the breach instant, counter, and
    // flight dump all re-enter the recorder.
    for b in breaches {
        SLO_BREACHES.add(1);
        instant("slo", "breach", || {
            vec![
                ("span", b.span.clone()),
                ("kind", b.kind.to_string()),
                ("observed", b.observed.to_string()),
                ("limit", b.limit.to_string()),
            ]
        });
        anomaly("slo_breach");
    }
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

/// One histogram's aggregate row, as returned by [`snapshot`].
/// Percentiles carry the [`Histogram::quantile`] error bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramRow {
    /// Layer the spans belong to.
    pub layer: &'static str,
    /// Stable span name within the layer.
    pub name: &'static str,
    /// Number of span closes recorded.
    pub count: u64,
    /// Summed duration, nanoseconds (saturating).
    pub sum_ns: u64,
    /// Streaming median, nanoseconds.
    pub p50_ns: u64,
    /// Streaming 90th percentile, nanoseconds.
    pub p90_ns: u64,
    /// Streaming 99th percentile, nanoseconds.
    pub p99_ns: u64,
}

/// Read every live histogram as aggregate rows, sorted by
/// `(layer, name)`, **without draining** anything — safe to call mid-run
/// from any thread, any number of times.
pub fn snapshot() -> Vec<HistogramRow> {
    let st = lock_metrics();
    st.hists
        .iter()
        .map(|(&(layer, name), h)| HistogramRow {
            layer,
            name,
            count: h.count(),
            sum_ns: h.sum_ns(),
            p50_ns: h.quantile(50),
            p90_ns: h.quantile(90),
            p99_ns: h.quantile(99),
        })
        .collect()
}

/// [`snapshot`] rendered as JSONL: one object per `(layer, span)` with a
/// fixed key order (`layer`, `name`, `count`, `sum_ns`, `p50_ns`,
/// `p90_ns`, `p99_ns`), rows sorted by `(layer, name)`. Also emits a
/// `metrics.snapshot` instant event so exported traces show when live
/// snapshots were taken.
pub fn snapshot_jsonl() -> String {
    let rows = snapshot();
    instant("metrics", "snapshot", || {
        vec![("rows", rows.len().to_string())]
    });
    let mut out = String::new();
    for r in &rows {
        out.push_str("{\"layer\": \"");
        crate::export::escape_into(&mut out, r.layer);
        out.push_str("\", \"name\": \"");
        crate::export::escape_into(&mut out, r.name);
        out.push_str(&format!(
            "\", \"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}\n",
            r.count, r.sum_ns, r.p50_ns, r.p90_ns, r.p99_ns
        ));
    }
    out
}

/// The live quantile for one `(layer, name)` span kind, or `None` if no
/// close has been recorded for it.
pub fn quantile(layer: &str, name: &str, q: u64) -> Option<u64> {
    let st = lock_metrics();
    st.hists
        .iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map(|(_, h)| h.quantile(q))
}

/// A clone of one span kind's live histogram, or `None` if no close has
/// been recorded for it.
pub fn histogram(layer: &str, name: &str) -> Option<Histogram> {
    let st = lock_metrics();
    st.hists
        .iter()
        .find(|((l, n), _)| *l == layer && *n == name)
        .map(|(_, h)| h.clone())
}

/// Process-cumulative `metrics.slo_breaches` counter value.
pub fn slo_breach_count() -> u64 {
    SLO_BREACHES.get()
}

/// Process-cumulative `metrics.anomalies` counter value.
pub fn anomaly_count() -> u64 {
    ANOMALIES.get()
}

/// Process-cumulative `metrics.flight_dumps` counter value.
pub fn flight_dump_count() -> u64 {
    FLIGHT_DUMPS.get()
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

struct FlightRing {
    buf: Vec<TraceEvent>,
    next: usize,
}

impl FlightRing {
    fn push(&mut self, ev: TraceEvent, cap: usize) {
        if self.buf.len() > cap {
            // Capacity shrank since the last install: restart rather than
            // reason about a partially valid ring.
            self.buf.clear();
            self.next = 0;
        }
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = ev;
            self.next = (self.next + 1) % cap.max(1);
        }
    }

    fn ordered(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(self.buf.get(self.next..).unwrap_or(&[]));
        out.extend_from_slice(self.buf.get(..self.next).unwrap_or(&[]));
        out
    }
}

thread_local! {
    static RING: RefCell<FlightRing> = const {
        RefCell::new(FlightRing { buf: Vec::new(), next: 0 })
    };
    /// Re-entrancy guard: the dump itself opens a span whose close could
    /// (via an SLO rule on `metrics.flight_dump`) trigger another
    /// anomaly; one dump at a time per thread.
    static IN_DUMP: Cell<bool> = const { Cell::new(false) };
}

/// Append an event to the calling thread's flight ring (called from the
/// span/instant paths in the crate root while `BIT_FLIGHT` is set).
pub(crate) fn flight_record(ev: &TraceEvent) {
    let cap = FLIGHT_CAP.load(Ordering::Relaxed);
    if cap == 0 {
        return;
    }
    let _ = RING.try_with(|cell| {
        if let Ok(mut r) = cell.try_borrow_mut() {
            r.push(ev.clone(), cap);
        }
    });
}

/// The calling thread's flight ring, oldest event first. Empty when the
/// recorder is off or nothing has been recorded on this thread.
pub fn flight_snapshot() -> Vec<TraceEvent> {
    RING.try_with(|cell| cell.try_borrow().map(|r| r.ordered()).unwrap_or_default())
        .unwrap_or_default()
}

/// Report an anomaly: bumps `metrics.anomalies`, emits a
/// `metrics.anomaly` instant (which also lands in the flight ring, so
/// the dump records its own trigger), and — when the flight recorder is
/// armed with a dump directory — writes the calling thread's ring as
/// Chrome trace-event JSON under the configured directory.
///
/// Wired triggers: i128 overflow poison (`prs-flow`), BigInt promotion
/// sites (`prs-bd`), and SLO breaches (this module). `kind` names the trigger in the dump filename and the
/// instant's attributes.
pub fn anomaly(kind: &'static str) {
    ANOMALIES.add(1);
    instant("metrics", "anomaly", || vec![("kind", kind.to_string())]);
    if crate::state_bits() & BIT_FLIGHT == 0 {
        return;
    }
    let already = IN_DUMP.try_with(|c| c.replace(true)).unwrap_or(true);
    if already {
        return;
    }
    dump(kind);
    let _ = IN_DUMP.try_with(|c| c.set(false));
}

fn dump(kind: &'static str) {
    let dir = lock_dump_dir().clone();
    let Some(dir) = dir else {
        return;
    };
    if DUMP_SEQ.load(Ordering::Relaxed) >= MAX_DUMPS.load(Ordering::Relaxed) {
        return;
    }
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    if seq >= MAX_DUMPS.load(Ordering::Relaxed) {
        return;
    }
    let mut sp = span("metrics", MSPAN_FLIGHT_DUMP);
    sp.attr("kind", || kind.to_string());
    let events = flight_snapshot();
    sp.attr("events", || events.len().to_string());
    let json = crate::export::chrome_json_of(&events);
    let path = dir.join(format!("flight-{seq:03}-{kind}.json"));
    if std::fs::write(&path, json).is_ok() {
        FLIGHT_DUMPS.add(1);
        sp.attr("path", || path.display().to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::locked;
    use crate::EventKind;

    fn quiesce() {
        disable();
        crate::disable();
        reset();
        crate::clear();
        SLO_BREACHES.set(0);
        ANOMALIES.set(0);
        FLIGHT_DUMPS.set(0);
    }

    #[test]
    fn bucket_index_round_trips_lower_bounds() {
        // Exact region.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_lower(bucket_index(v)), v);
        }
        // Log-linear region: lower ≤ v, width ≤ v / 64.
        for &v in &[64u64, 65, 100, 1_000, 123_456, 1 << 33, u64::MAX] {
            let i = bucket_index(v);
            let lo = bucket_lower(i);
            assert!(lo <= v, "lo={lo} v={v}");
            assert!((v - lo).saturating_mul(SUB_BUCKETS) <= v, "lo={lo} v={v}");
            if i + 1 < MAX_BUCKETS {
                assert!(bucket_lower(i + 1) > v, "v={v} must fall below next bucket");
            }
        }
        assert!(bucket_index(u64::MAX) < MAX_BUCKETS);
    }

    #[test]
    fn quantile_matches_exact_within_documented_bound() {
        // Deterministic LCG over several decades.
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut vals: Vec<u64> = Vec::new();
        let mut h = Histogram::new();
        for i in 0..10_000u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let v = (x >> 32) % (1 << (8 + (i % 7) * 4));
            vals.push(v);
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0u64, 1, 10, 50, 90, 99, 100] {
            let rank = nearest_rank(h.count(), q);
            let idx = usize::try_from(rank - 1).unwrap();
            let exact = vals[idx];
            let est = h.quantile(q);
            assert!(est <= exact, "q={q} est={est} exact={exact}");
            assert!(
                (exact - est).saturating_mul(SUB_BUCKETS) <= exact,
                "q={q} est={est} exact={exact}"
            );
        }
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum_ns(), vals.iter().sum::<u64>());
    }

    #[test]
    fn quantile_edge_counts() {
        let h = Histogram::new();
        assert_eq!(h.quantile(50), 0);
        assert!(h.is_empty());
        let mut h1 = Histogram::new();
        h1.record(42);
        for q in [0, 50, 99, 100] {
            assert_eq!(h1.quantile(q), 42, "single element is every quantile");
        }
        let mut h2 = Histogram::new();
        h2.record(7);
        h2.record(63);
        assert_eq!(h2.quantile(50), 7, "rank 1 of 2");
        assert_eq!(h2.quantile(99), 63, "rank 2 of 2");
    }

    #[test]
    fn merge_is_order_independent() {
        // Per-"worker" histograms built in threads, merged in two
        // different permutations — mirrors tests/trace_determinism.rs.
        let shards: Vec<Vec<u64>> = (0..4)
            .map(|w| (0..500u64).map(|i| (i * 7 + w * 13) % 100_000).collect())
            .collect();
        let hists: Vec<Histogram> = std::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter()
                .map(|vals| {
                    s.spawn(move || {
                        let mut h = Histogram::new();
                        for &v in vals {
                            h.record(v);
                        }
                        h
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut fwd = Histogram::new();
        for h in &hists {
            fwd.merge(h);
        }
        let mut rev = Histogram::new();
        for h in hists.iter().rev() {
            rev.merge(h);
        }
        assert_eq!(fwd, rev);
        for q in [50, 90, 99] {
            assert_eq!(fwd.quantile(q), rev.quantile(q));
        }
        assert_eq!(fwd.count(), 2_000);
    }

    #[test]
    fn span_close_feeds_histograms_without_recording() {
        let _g = locked();
        quiesce();
        install(&MetricsConfig::new());
        {
            let mut s = span("bd", "round");
            assert!(!s.is_recording(), "metrics-only: no event destination");
            let mut ran = false;
            s.attr("x", || {
                ran = true;
                String::new()
            });
            assert!(!ran, "attr closures must not run metrics-only");
        }
        disable();
        let rows = snapshot();
        let row = rows
            .iter()
            .find(|r| (r.layer, r.name) == ("bd", "round"))
            .expect("histogram row");
        assert_eq!(row.count, 1);
        assert!(crate::take().events.is_empty(), "no events buffered");
        quiesce();
    }

    #[test]
    fn snapshot_jsonl_fixed_keys_and_monotone_quantiles() {
        let _g = locked();
        quiesce();
        install(&MetricsConfig::new());
        for _ in 0..32 {
            let _s = span("flow", "i128_max_flow");
        }
        let jsonl = snapshot_jsonl();
        disable();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1, "{jsonl}");
        assert!(
            lines[0].starts_with(
                "{\"layer\": \"flow\", \"name\": \"i128_max_flow\", \"count\": 32, \"sum_ns\": "
            ),
            "{jsonl}"
        );
        let row = snapshot().pop().expect("one row");
        assert!(row.p50_ns <= row.p90_ns && row.p90_ns <= row.p99_ns);
        quiesce();
    }

    #[test]
    fn slo_latency_breach_emits_event_and_counter() {
        let _g = locked();
        quiesce();
        crate::enable();
        install(&MetricsConfig::new().with_slo(SloConfig::new().with_latency("bd.round", 0)));
        let before = slo_breach_count();
        {
            let _s = span("bd", "round");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        crate::disable();
        assert!(slo_breach_count() > before, "latency breach must fire");
        let t = crate::take();
        assert!(
            t.events
                .iter()
                .any(|e| e.layer == "slo" && e.name == "breach" && e.kind == EventKind::Instant),
            "breach instant recorded: {:?}",
            t.events
        );
        quiesce();
    }

    #[test]
    fn slo_count_breach_fires_once() {
        let _g = locked();
        quiesce();
        install(&MetricsConfig::new().with_slo(SloConfig::new().with_count("bd.round", 2)));
        let before = slo_breach_count();
        for _ in 0..5 {
            let _s = span("bd", "round");
        }
        disable();
        assert_eq!(slo_breach_count() - before, 1, "count breach fires once");
        quiesce();
    }

    #[test]
    fn flight_ring_wraps_and_keeps_most_recent() {
        let _g = locked();
        quiesce();
        install(
            &MetricsConfig::new()
                .with_enabled(false)
                .with_flight(FlightConfig::new().with_capacity(4)),
        );
        for i in 0..10u64 {
            instant("bd", "tick", || vec![("i", i.to_string())]);
        }
        let ring = flight_snapshot();
        disable();
        assert_eq!(ring.len(), 4, "ring holds exactly its capacity");
        let seen: Vec<String> = ring
            .iter()
            .map(|e| e.attrs.first().map(|(_, v)| v.clone()).unwrap_or_default())
            .collect();
        assert_eq!(seen, vec!["6", "7", "8", "9"], "oldest→newest, last 4");
        quiesce();
    }

    #[test]
    fn anomaly_dumps_ring_to_dir() {
        let _g = locked();
        quiesce();
        let dir = std::env::temp_dir().join(format!("prs-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let seq0 = DUMP_SEQ.load(Ordering::Relaxed);
        install(
            &MetricsConfig::new().with_flight(
                FlightConfig::new()
                    .with_capacity(16)
                    .with_dump_dir(&dir)
                    .with_max_dumps(seq0 + 4),
            ),
        );
        {
            let _s = span("bd", "session_round");
        }
        instant("bd", "tick", Vec::new);
        let dumps0 = flight_dump_count();
        anomaly("test_probe");
        disable();
        assert_eq!(flight_dump_count() - dumps0, 1, "one dump written");
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        let content = std::fs::read_to_string(entries[0].path()).expect("read dump");
        assert!(content.contains("\"session_round\""), "{content}");
        assert!(content.contains("test_probe"), "dump records its trigger");
        assert_eq!(
            content.matches('{').count(),
            content.matches('}').count(),
            "balanced chrome JSON"
        );
        let _ = std::fs::remove_dir_all(&dir);
        quiesce();
    }

    #[test]
    fn config_builders_round_trip() {
        let slo = SloConfig::new()
            .with_latency("bd.session_round", 1_000_000)
            .with_count("bd.session_round", 10)
            .with_latency("flow.i128_max_flow", 500);
        assert_eq!(slo.len(), 2, "same span upserts one rule");
        assert!(!slo.is_empty());
        let cfg = MetricsConfig::new()
            .with_enabled(false)
            .with_slo(slo.clone())
            .with_flight(FlightConfig::new().with_capacity(7).with_max_dumps(3));
        assert!(!cfg.enabled);
        assert_eq!(cfg.slo, slo);
        assert_eq!(cfg.flight.capacity, 7);
        assert_eq!(cfg.flight.max_dumps, 3);
        assert_eq!(MetricsConfig::default(), MetricsConfig::new());
        assert_eq!(FlightConfig::off().capacity, 0);
    }
}
