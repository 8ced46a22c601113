//! Per-layer self time of one traced window.
//!
//! A span's self time is its duration minus the part its child spans on the
//! same worker cover (interval nesting; the recorder keeps no parent ids).
//! The main thread's timeline is split into self-time segments of its spans
//! plus untraced gaps. While a fan-out's workers run, the main thread only
//! waits; that waiting time is handed to the layers in proportion to the
//! workers' self time in the same window. The labels therefore add up to
//! the wall clock of the traced window.

use crate::stats::ratio;
use prs_core::trace::{EventKind, Trace, TraceEvent};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Label for wall time no span covers.
pub const UNTRACED: &str = "untraced";

/// Dense worker id of the main thread: `prs_trace::take` numbers workers in
/// the order their buffers were created, and the benchmark touches the
/// recorder from its main thread before it starts any other thread.
const MAIN: u64 = 0;

#[derive(Debug, Default)]
pub struct Attribution {
    /// Self time in ns per layer, plus [`UNTRACED`]; sums to the wall time.
    pub self_ns: BTreeMap<&'static str, f64>,
    /// Σ duration of the fan-out worker sections.
    pub fanout_busy_ns: f64,
    /// Σ wall time during which fan-outs were open.
    pub fanout_wall_ns: f64,
}

impl Attribution {
    /// Worker busy time divided by fan-out wall time (0 without fan-outs).
    pub fn fanout_parallelism(&self) -> f64 {
        ratio(self.fanout_busy_ns, self.fanout_wall_ns)
    }

    #[cfg(test)]
    pub fn total_ns(&self) -> f64 {
        self.self_ns.values().sum()
    }
}

#[derive(Clone, Copy, Debug)]
struct Seg {
    start: u64,
    end: u64,
    label: &'static str,
}

struct Open {
    end: u64,
    label: &'static str,
    cursor: u64,
}

/// Self-time segments of one worker's spans (sorted by start, longest
/// first), in time order, and the worker's top-level intervals. With
/// `fill`, the gaps between top-level spans over `lo..hi` come back as
/// [`UNTRACED`] segments.
fn self_segments(
    spans: &[&TraceEvent],
    lo: u64,
    hi: u64,
    fill: bool,
) -> (Vec<Seg>, Vec<(u64, u64)>) {
    let mut segs = Vec::new();
    let mut roots = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut root_cursor = lo;
    let push = |segs: &mut Vec<Seg>, start: u64, end: u64, label: &'static str| {
        if end > start {
            segs.push(Seg { start, end, label });
        }
    };
    let close = |stack: &mut Vec<Open>, segs: &mut Vec<Seg>, root_cursor: &mut u64| {
        if let Some(o) = stack.pop() {
            push(segs, o.cursor, o.end, o.label);
            match stack.last_mut() {
                Some(parent) => parent.cursor = parent.cursor.max(o.end),
                None => *root_cursor = o.end,
            }
        }
    };
    for sp in spans {
        let start = sp.start_ns;
        while stack.last().is_some_and(|top| top.end <= start) {
            close(&mut stack, &mut segs, &mut root_cursor);
        }
        let end = start.saturating_add(sp.dur_ns);
        match stack.last_mut() {
            Some(parent) => {
                // Spans on one thread nest; clamp defensively all the same.
                let start = start.max(parent.cursor);
                let end = end.min(parent.end).max(start);
                push(&mut segs, parent.cursor, start, parent.label);
                parent.cursor = start;
                stack.push(Open {
                    end,
                    label: sp.layer,
                    cursor: start,
                });
            }
            None => {
                if fill {
                    push(&mut segs, root_cursor, start, UNTRACED);
                }
                roots.push((start, end));
                stack.push(Open {
                    end,
                    label: sp.layer,
                    cursor: start,
                });
            }
        }
    }
    while !stack.is_empty() {
        close(&mut stack, &mut segs, &mut root_cursor);
    }
    if fill {
        push(&mut segs, root_cursor, hi, UNTRACED);
    }
    (segs, roots)
}

fn is_fanout_section(e: &TraceEvent) -> bool {
    e.name.ends_with("_worker")
}

/// Attribute a traced window of `wall_ns` nanoseconds to layers.
///
/// Fails when the recorder dropped events (the attribution would be
/// silently short) or when the spans outlast the wall clock.
pub fn attribute(trace: &Trace, wall_ns: u64) -> Result<Attribution, String> {
    if trace.dropped > 0 {
        return Err(format!("the recorder dropped {} events", trace.dropped));
    }
    let mut by_worker: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in trace.events.iter().filter(|e| e.kind == EventKind::Span) {
        by_worker.entry(e.worker).or_default().push(e);
    }
    for spans in by_worker.values_mut() {
        spans.sort_by_key(|e| (e.start_ns, Reverse(e.dur_ns), e.seq));
    }
    let all = by_worker.values().flatten();
    let lo = all.clone().map(|e| e.start_ns).min().unwrap_or(0);
    let hi = all.map(|e| e.start_ns + e.dur_ns).max().unwrap_or(0);
    let covered = hi - lo;
    if covered > wall_ns {
        return Err(format!("spans cover {covered} ns of a {wall_ns} ns window"));
    }

    let mut out = Attribution::default();
    let add = |map: &mut BTreeMap<&'static str, f64>, label: &'static str, ns: f64| {
        *map.entry(label).or_insert(0.0) += ns;
    };

    // Fan-out windows: the merged top-level intervals of the other workers.
    let mut worker_segs = Vec::new();
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for (_, spans) in by_worker.iter().filter(|(w, _)| **w != MAIN) {
        let (segs, roots) = self_segments(spans, 0, 0, false);
        worker_segs.extend(segs);
        for (s, e) in roots {
            out.fanout_busy_ns += (e - s) as f64;
            windows.push((s, e));
        }
    }
    windows.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in windows {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    out.fanout_wall_ns = merged.iter().map(|(s, e)| (e - s) as f64).sum();
    let window_of = |t: u64| merged.partition_point(|w| w.1 <= t);
    let mut worker_self = vec![BTreeMap::new(); merged.len()];
    for seg in &worker_segs {
        let k = window_of(seg.start);
        if let Some(map) = worker_self.get_mut(k) {
            add(map, seg.label, (seg.end - seg.start) as f64);
        }
    }

    // The main thread: self time outside fan-out windows stays with its
    // label, time inside them is waiting and is split below.
    let main: &[&TraceEvent] = by_worker.get(&MAIN).map_or(&[], Vec::as_slice);
    for e in main.iter().filter(|e| is_fanout_section(e)) {
        // A fan-out that fell back to running on the calling thread.
        out.fanout_busy_ns += e.dur_ns as f64;
        out.fanout_wall_ns += e.dur_ns as f64;
    }
    let (main_segs, _) = self_segments(main, lo, hi, true);
    let mut waiting = vec![BTreeMap::new(); merged.len()];
    for seg in main_segs {
        let mut inside = 0u64;
        let mut k = window_of(seg.start);
        while let Some(&(ws, we)) = merged.get(k) {
            if ws >= seg.end {
                break;
            }
            let overlap = seg.end.min(we).saturating_sub(seg.start.max(ws));
            add(&mut waiting[k], seg.label, overlap as f64);
            inside += overlap;
            k += 1;
        }
        add(
            &mut out.self_ns,
            seg.label,
            (seg.end - seg.start - inside) as f64,
        );
    }
    for (wait, work) in waiting.iter().zip(&worker_self) {
        let work_total: f64 = work.values().sum();
        let wait_total: f64 = wait.values().sum();
        let (shares, scale) = if work_total > 0.0 {
            (work, wait_total / work_total)
        } else {
            (wait, 1.0)
        };
        for (label, ns) in shares {
            add(&mut out.self_ns, label, ns * scale);
        }
    }
    add(&mut out.self_ns, UNTRACED, (wall_ns - covered) as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        worker: u64,
        layer: &'static str,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> TraceEvent {
        TraceEvent {
            layer,
            name,
            kind: EventKind::Span,
            start_ns: start,
            dur_ns: end - start,
            worker,
            seq: 0,
            attrs: Vec::new(),
        }
    }

    fn trace(events: Vec<TraceEvent>) -> Trace {
        Trace { events, dropped: 0 }
    }

    fn get(a: &Attribution, label: &str) -> f64 {
        a.self_ns.get(label).copied().unwrap_or(0.0)
    }

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let t = trace(vec![
            span(0, "bd", "decompose", 10, 110),
            span(0, "flow", "i128_max_flow", 20, 50),
            span(0, "flow", "i128_max_flow", 60, 70),
            span(0, "numeric", "gcd", 62, 65),
            span(0, "p2psim", "soa_round", 120, 130),
        ]);
        let a = attribute(&t, 150).unwrap();
        assert_close(get(&a, "bd"), 60.0);
        assert_close(get(&a, "flow"), 37.0);
        assert_close(get(&a, "numeric"), 3.0);
        assert_close(get(&a, "p2psim"), 10.0);
        // 10 ns between the two top-level spans, 30 outside the spans.
        assert_close(get(&a, UNTRACED), 40.0);
        assert_close(a.total_ns(), 150.0);
        assert_eq!(a.fanout_parallelism(), 0.0);
    }

    #[test]
    fn fanout_waiting_is_split_by_worker_self_time() {
        let t = trace(vec![
            span(0, "sybil", "attack", 0, 100),
            span(1, "bd", "pool_worker", 20, 80),
            span(1, "flow", "exact_max_flow", 30, 50),
            span(2, "bd", "pool_worker", 25, 70),
            span(2, "deviation", "sample", 30, 60),
        ]);
        let a = attribute(&t, 100).unwrap();
        // Main waits over the window 20..80; the workers' self time there is
        // bd 40 + 15, flow 20, deviation 30 (105 in all).
        assert_close(get(&a, "sybil"), 40.0);
        assert_close(get(&a, "bd"), 60.0 * 55.0 / 105.0);
        assert_close(get(&a, "flow"), 60.0 * 20.0 / 105.0);
        assert_close(get(&a, "deviation"), 60.0 * 30.0 / 105.0);
        assert_close(get(&a, UNTRACED), 0.0);
        assert_close(a.total_ns(), 100.0);
        assert_close(a.fanout_parallelism(), 105.0 / 60.0);
    }

    #[test]
    fn separate_fanouts_and_multiple_workers_keep_their_own_shares() {
        let t = trace(vec![
            span(0, "deviation", "sweep", 0, 200),
            // First fan-out: only flow work.
            span(1, "bd", "par_worker", 10, 50),
            span(1, "flow", "f64_max_flow", 10, 50),
            // Second fan-out: only sybil work, on two other threads.
            span(2, "sybil", "split_eval", 100, 150),
            span(3, "sybil", "split_eval", 110, 160),
        ]);
        let a = attribute(&t, 250).unwrap();
        assert_close(get(&a, "flow"), 40.0);
        assert_close(get(&a, "sybil"), 60.0);
        assert_close(get(&a, "deviation"), 100.0);
        assert_close(get(&a, "bd"), 0.0);
        assert_close(get(&a, UNTRACED), 50.0);
        let shares: f64 = a.self_ns.values().map(|ns| ns / 250.0).sum();
        assert_close(shares, 1.0);
        assert_close(a.fanout_parallelism(), (40.0 + 50.0 + 50.0) / (40.0 + 60.0));
    }

    #[test]
    fn fanout_from_untraced_code_splits_the_untraced_wait() {
        let t = trace(vec![
            span(1, "bd", "pool_worker", 0, 40),
            span(1, "flow", "exact_max_flow", 0, 10),
            span(0, "bd", "allocate", 50, 60),
        ]);
        let a = attribute(&t, 100).unwrap();
        assert_close(get(&a, "flow"), 10.0);
        assert_close(get(&a, "bd"), 30.0 + 10.0);
        // 40..50 between the spans plus 40 outside them.
        assert_close(get(&a, UNTRACED), 50.0);
        assert_close(a.total_ns(), 100.0);
    }

    #[test]
    fn sequential_fallback_counts_as_one_busy_worker() {
        let t = trace(vec![
            span(0, "bd", "pool_worker", 0, 80),
            span(0, "flow", "i128_max_flow", 10, 30),
        ]);
        let a = attribute(&t, 80).unwrap();
        assert_close(get(&a, "bd"), 60.0);
        assert_close(get(&a, "flow"), 20.0);
        assert_close(a.fanout_parallelism(), 1.0);
    }

    #[test]
    fn dropped_events_fail_the_attribution() {
        let mut t = trace(vec![span(0, "bd", "decompose", 0, 10)]);
        t.dropped = 3;
        assert!(attribute(&t, 10).unwrap_err().contains("dropped 3"));
    }

    #[test]
    fn spans_longer_than_the_window_fail() {
        let t = trace(vec![span(0, "bd", "decompose", 0, 10)]);
        assert!(attribute(&t, 5).is_err());
        let empty = attribute(&trace(Vec::new()), 5).unwrap();
        assert_close(get(&empty, UNTRACED), 5.0);
    }
}
