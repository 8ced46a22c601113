//! Trace exporters: human summary, JSONL event log, Chrome trace-event
//! JSON (loadable in `chrome://tracing` and Perfetto).
//!
//! All formatting is integer arithmetic (this crate is float-free by
//! lint): microsecond fields are rendered as `ns / 1000` with a
//! three-digit fractional part, and percentiles are nearest-rank over
//! integer nanoseconds.

use crate::{EventKind, Trace, TraceEvent};
use std::collections::BTreeMap;

/// Aggregated timing of one span kind (`layer.name`), as reported by
/// [`Trace::span_stats`]. Percentiles are nearest-rank over integer
/// nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStats {
    /// Layer the spans belong to.
    pub layer: &'static str,
    /// Stable span name within the layer.
    pub name: &'static str,
    /// Number of recorded spans of this kind.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Median duration, nanoseconds.
    pub p50_ns: u64,
    /// 90th-percentile duration, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile duration, nanoseconds.
    pub p99_ns: u64,
}

impl Trace {
    /// Per-span-kind timing rows, sorted by `(layer, name)`. The same
    /// aggregation the human [`summary`](Trace::summary) prints, exposed
    /// structurally for programmatic consumers.
    pub fn span_stats(&self) -> Vec<SpanStats> {
        let mut groups: BTreeMap<(&'static str, &'static str), Vec<u64>> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Span {
                groups
                    .entry((ev.layer, ev.name))
                    .or_default()
                    .push(ev.dur_ns);
            }
        }
        groups
            .into_iter()
            .map(|((layer, name), mut durs)| {
                durs.sort_unstable();
                SpanStats {
                    layer,
                    name,
                    count: u64::try_from(durs.len()).unwrap_or(u64::MAX),
                    total_ns: durs.iter().sum(),
                    p50_ns: percentile(&durs, 50),
                    p90_ns: percentile(&durs, 90),
                    p99_ns: percentile(&durs, 99),
                }
            })
            .collect()
    }

    /// Human summary: per span kind (`layer.name`) the event count, total
    /// time, and p50/p90/p99 durations, followed by the registered
    /// counters and the dropped-event count (if any).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let mut instants: BTreeMap<(&'static str, &'static str), u64> = BTreeMap::new();
        for ev in &self.events {
            if ev.kind == EventKind::Instant {
                *instants.entry((ev.layer, ev.name)).or_default() += 1;
            }
        }
        out.push_str(
            "span kind                          count      total     p50      p90      p99\n",
        );
        for row in self.span_stats() {
            out.push_str(&format!(
                "  {:<32} {:>6} {:>10} {:>8} {:>8} {:>8}\n",
                format!("{}.{}", row.layer, row.name),
                row.count,
                fmt_ns(row.total_ns),
                fmt_ns(row.p50_ns),
                fmt_ns(row.p90_ns),
                fmt_ns(row.p99_ns),
            ));
        }
        if !instants.is_empty() {
            out.push_str("instant events\n");
            for ((layer, name), count) in &instants {
                out.push_str(&format!(
                    "  {:<32} {:>6}\n",
                    format!("{layer}.{name}"),
                    count
                ));
            }
        }
        let counters = crate::counter_values();
        if !counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in counters {
                out.push_str(&format!("  {name:<32} {value}\n"));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "dropped {} events (per-thread buffer cap hit — raise max_events_per_thread)\n",
                self.dropped
            ));
        }
        out
    }

    /// JSONL: one JSON object per event, in `(worker, seq)` order. Keys
    /// are emitted in a fixed order, so two identical single-threaded runs
    /// produce byte-identical output after stripping `ts_ns`/`dur_ns`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            push_jsonl_line(&mut out, ev);
        }
        out
    }

    /// Chrome trace-event JSON (the `chrome://tracing` / Perfetto format):
    /// spans become `"ph": "X"` complete events, instants become
    /// `"ph": "i"` thread-scoped markers; attributes ride in `"args"`.
    pub fn to_chrome_json(&self) -> String {
        chrome_json_of(&self.events)
    }
}

/// Chrome trace-event JSON over a bare event slice — shared between
/// [`Trace::to_chrome_json`] and the flight recorder's anomaly dumps
/// (`crate::metrics`), which excerpt a ring rather than a drained trace.
pub(crate) fn chrome_json_of(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    for ev in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_chrome_event(&mut out, ev);
    }
    out.push_str("\n]}\n");
    out
}

fn push_jsonl_line(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"layer\": \"");
    escape_into(out, ev.layer);
    out.push_str("\", \"name\": \"");
    escape_into(out, ev.name);
    out.push_str("\", \"kind\": \"");
    out.push_str(match ev.kind {
        EventKind::Span => "span",
        EventKind::Instant => "instant",
    });
    out.push_str(&format!(
        "\", \"ts_ns\": {}, \"dur_ns\": {}, \"worker\": {}, \"seq\": {}",
        ev.start_ns, ev.dur_ns, ev.worker, ev.seq
    ));
    push_attrs(out, &ev.attrs, "attrs");
    out.push_str("}\n");
}

fn push_chrome_event(out: &mut String, ev: &TraceEvent) {
    out.push_str("{\"name\": \"");
    escape_into(out, ev.name);
    out.push_str("\", \"cat\": \"");
    escape_into(out, ev.layer);
    match ev.kind {
        EventKind::Span => {
            out.push_str(&format!(
                "\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}",
                ev.worker,
                fmt_us(ev.start_ns),
                fmt_us(ev.dur_ns)
            ));
        }
        EventKind::Instant => {
            out.push_str(&format!(
                "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": {}, \"ts\": {}",
                ev.worker,
                fmt_us(ev.start_ns)
            ));
        }
    }
    push_attrs(out, &ev.attrs, "args");
    out.push('}');
}

fn push_attrs(out: &mut String, attrs: &[(&'static str, String)], key: &str) {
    if attrs.is_empty() {
        return;
    }
    out.push_str(&format!(", \"{key}\": {{"));
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\": \"");
        escape_into(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Microseconds with a 3-digit fractional part, by integer division
/// (Chrome's `ts`/`dur` fields are microsecond floats; `123.456` is the
/// exact rendering of 123456 ns).
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Adaptive duration for the human summary: ns below 10µs, µs below
/// 10ms, ms above.
fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{}us", ns / 1_000)
    } else {
        format!("{}ms", ns / 1_000_000)
    }
}

/// Nearest-rank percentile over an ascending-sorted slice, defined for
/// every input size:
///
/// * **empty** → `0` (there is no observation to report);
/// * **one element** → that element, for every `p`;
/// * in general the value at 1-based rank `ceil(len·p/100)`, clamped to
///   `[1, len]` — so p50 of a 2-element set is the lower element and p99
///   the upper one (the floor-indexed variant this replaced collapsed
///   both onto the lower element).
///
/// The streaming histograms (`crate::metrics`) use the same rank
/// convention, so live and post-hoc quantiles are comparable
/// rank-for-rank.
fn percentile(sorted: &[u64], p: u64) -> u64 {
    let Some(&last) = sorted.last() else {
        return 0;
    };
    let n = u64::try_from(sorted.len()).unwrap_or(u64::MAX);
    let rank = n.saturating_mul(p.min(100)).div_ceil(100).clamp(1, n);
    let idx = usize::try_from(rank - 1).unwrap_or(usize::MAX);
    sorted.get(idx).copied().unwrap_or(last)
}

pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(name: &'static str, kind: EventKind, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            layer: "bd",
            name,
            kind,
            start_ns: start,
            dur_ns: dur,
            worker: 0,
            seq: start,
            attrs: vec![("x", "1/2".to_string())],
        }
    }

    fn sample() -> Trace {
        Trace {
            events: vec![
                ev("round", EventKind::Span, 1_000, 123_456),
                ev("round", EventKind::Span, 200_000, 7_000),
                ev("breakpoint", EventKind::Instant, 300_000, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn summary_groups_and_ranks() {
        let s = sample().summary();
        assert!(s.contains("bd.round"), "{s}");
        assert!(s.contains("bd.breakpoint"), "{s}");
        // total = 130456ns -> "130us"; p50 of [7000, 123456] is 7000ns.
        assert!(s.contains("130us"), "{s}");
        assert!(s.contains("7000ns"), "{s}");
    }

    #[test]
    fn jsonl_has_fixed_key_order_and_escapes() {
        let mut t = sample();
        t.events[0].attrs = vec![("note", "a\"b\\c\n".to_string())];
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with(
            "{\"layer\": \"bd\", \"name\": \"round\", \"kind\": \"span\", \"ts_ns\": 1000"
        ));
        assert!(lines[0].contains("\\\"b\\\\c\\n"), "{}", lines[0]);
        assert!(lines[2].contains("\"kind\": \"instant\""));
    }

    #[test]
    fn chrome_json_is_balanced_and_typed() {
        let c = sample().to_chrome_json();
        assert!(c.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(c.trim_end().ends_with("]}"));
        assert!(c.contains("\"ph\": \"X\""));
        assert!(c.contains("\"ph\": \"i\""));
        // 123456 ns -> 123.456 us.
        assert!(c.contains("\"dur\": 123.456"), "{c}");
        let opens = c.matches('{').count();
        let closes = c.matches('}').count();
        assert_eq!(opens, closes, "balanced braces:\n{c}");
    }

    #[test]
    fn span_stats_aggregate_per_kind() {
        let rows = sample().span_stats();
        assert_eq!(rows.len(), 1, "{rows:?}"); // instants excluded
        assert_eq!((rows[0].layer, rows[0].name), ("bd", "round"));
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total_ns, 130_456);
        // Nearest rank: of a 2-element set, p50 (rank 1) is the lower
        // value and p99 (rank 2) the upper (matches
        // `percentile_is_nearest_rank`).
        assert_eq!(rows[0].p50_ns, 7_000);
        assert_eq!(rows[0].p99_ns, 123_456);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // Empty: defined as 0 for every p.
        assert_eq!(percentile(&[], 0), 0);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[], 100), 0);
        // Single element: it is every percentile.
        assert_eq!(percentile(&[5], 0), 5);
        assert_eq!(percentile(&[5], 50), 5);
        assert_eq!(percentile(&[5], 99), 5);
        assert_eq!(percentile(&[5], 100), 5);
        // Two elements: p≤50 is the lower, p>50 the upper.
        assert_eq!(percentile(&[7_000, 123_456], 0), 7_000);
        assert_eq!(percentile(&[7_000, 123_456], 50), 7_000);
        assert_eq!(percentile(&[7_000, 123_456], 51), 123_456);
        assert_eq!(percentile(&[7_000, 123_456], 99), 123_456);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 90), 90);
        // Out-of-range p clamps rather than indexing past the end.
        assert_eq!(percentile(&v, 300), 100);
    }

    #[test]
    fn fmt_us_is_exact_integer_math() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(123_456), "123.456");
    }
}
