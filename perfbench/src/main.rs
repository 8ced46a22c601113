//! `prs-perfbench`: one benchmark for `prs` — the audit, churn and swarm
//! workloads, end-to-end metrics with tracing off and per-layer metrics
//! from a traced repeat. See `perfbench/README.md`.
//!
//! ```text
//! prs-perfbench --workload audit|churn|swarm --seed N --seconds S --trace 0|1
//!               --prs <path to the release prs binary> --io-dir <scratch dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod attrib;
mod audit;
mod churn;
mod cli;
mod gen;
mod layers;
mod stats;
mod swarm;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `BENCHMARK.json`: the one list of the metrics this binary reports.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each metric in one section of a `BENCHMARK.json` text
/// (`"end_to_end"` or `"per_layer"`), in file order. The section's metrics
/// are flat objects, so its list ends at the first `]`.
fn listed<'a>(json: &'a str, section: &str) -> Vec<(&'a str, &'a str)> {
    let body = json.find(&format!("\"{section}\"")).map_or("", |at| {
        let rest = &json[at..];
        rest.find(']').map_or(rest, |end| &rest[..end])
    });
    body.split('{')
        .skip(1)
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// The string value of `"key": "value"` in the text of a flat JSON object.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let rest = &obj[obj.find(&quoted)? + quoted.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// Whether `BENCHMARK.json` lists `name` as a per-layer metric.
pub fn listed_per_layer(name: &str) -> bool {
    listed(BENCHMARK_JSON, "per_layer")
        .iter()
        .any(|(n, _)| *n == name)
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub prs: PathBuf,
    pub io_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let mut take = |key: &str| map.remove(key).ok_or_else(|| format!("missing --{key}"));
    let args = Args {
        workload: take("workload")?,
        seed: take("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: take("seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
        prs: take("prs")?.into(),
        io_dir: take("io-dir")?.into(),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(args)
}

/// What one run found: metric values plus the tally of attempted and failed
/// operations (an operation fails when it errors or its output check fails).
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Count one operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The end-to-end timings, each the fastest of the run's repetitions: the
    /// fastest set-up, the fastest pass (`pass_s[p]` is pass `p`'s time) and
    /// the lowest of the passes' median operations (`op_us[p]` holds pass
    /// `p`'s operation durations, µs).
    pub fn set_timings(&mut self, setups_s: &[f64], pass_s: &[f64], op_us: &[Vec<f64>]) {
        self.set("setup_s", stats::least(setups_s.iter().copied()));
        self.set("pass_s", stats::least(pass_s.iter().copied()));
        let medians = op_us.iter().map(|ops| stats::percentile(ops, 50.0));
        self.set("op_p50_us", stats::least(medians));
    }

    /// Record the peak resident set, once: the workloads call this after
    /// every pass, so it reads the peak of the first set-up and pass. Later
    /// passes rebuild the same state, and what they add is the allocator's
    /// leftovers from the passes before (a swarm of 10⁶ agents peaked at
    /// 320 MiB after its first pass, 327–365 MiB after its last).
    pub fn note_peak_rss(&mut self) {
        if self.metrics.contains_key("peak_rss_mb") {
            return;
        }
        match peak_rss_mib() {
            Some(mib) => self.set("peak_rss_mb", mib),
            None => self.check(false, || "cannot read peak RSS".to_string()),
        }
    }
}

/// The passes of a run: `seconds` ÷ the workload's nominal pass time (set-up
/// and checks included, as measured on a 2-vCPU Xeon VM), at least two. The
/// count depends on `--seconds` alone, not on how fast the build or the
/// machine is, so two builds run on one seed take their fastest pass out of
/// equally many. Only a machine so slow that the run outlasts 1.5 ×
/// `seconds` stops it early, after two passes.
pub fn schedule(seconds: f64, nominal_pass_s: f64) -> impl Iterator<Item = usize> {
    let count = ((seconds / nominal_pass_s).round() as usize).max(2);
    let start = Instant::now();
    (0..count).take_while(move |&p| p < 2 || start.elapsed().as_secs_f64() < 1.5 * seconds)
}

/// Heap allocations on all threads while counting is switched on; the
/// swarm workload counts the allocations of its `step()` calls.
pub mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    static ON: AtomicBool = AtomicBool::new(false);
    static COUNT: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    impl Counting {
        fn note(&self) {
            if ON.load(Ordering::Relaxed) {
                COUNT.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    // SAFETY: every operation is forwarded to `System` unchanged; the
    // counter is a statistic with no effect on the returned pointers.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, l: Layout) -> *mut u8 {
            self.note();
            System.alloc(l)
        }
        unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
            System.dealloc(p, l)
        }
        unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
            self.note();
            System.alloc_zeroed(l)
        }
        unsafe fn realloc(&self, p: *mut u8, l: Layout, size: usize) -> *mut u8 {
            self.note();
            System.realloc(p, l, size)
        }
    }

    /// Allocations made while `f` runs.
    pub fn during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = COUNT.load(Ordering::Relaxed);
        ON.store(true, Ordering::Relaxed);
        let out = f();
        ON.store(false, Ordering::Relaxed);
        (out, COUNT.load(Ordering::Relaxed) - before)
    }
}

#[global_allocator]
static GLOBAL: alloc_count::Counting = alloc_count::Counting;

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where the run happened: the audit's fan-out width follows
/// `available_parallelism`, so its counts and timings only compare across
/// runs with the same fingerprint.
fn fingerprint() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "available_parallelism={cpus} cpu=\"{model}\" os={} arch={}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Create the main thread's trace buffer before any other thread exists,
    // so the main thread is worker 0 in every drained trace.
    prs_core::trace::clear();
    eprintln!("perfbench: machine: {}", fingerprint());

    type Parity = fn(&Args, &mut Report) -> Result<(), String>;
    let (run, parity, command): (fn(&Args, &mut Report), Parity, &str) =
        match args.workload.as_str() {
            "audit" => (audit::run, audit::parity, "audit"),
            "churn" => (churn::run, churn::parity, "update"),
            "swarm" => (swarm::run, swarm::parity, "swarm"),
            other => {
                eprintln!("perfbench: unknown workload `{other}` (audit, churn, swarm)");
                std::process::exit(2);
            }
        };
    let mut rep = Report::default();
    run(&args, &mut rep);
    // Once per run, outside the timed windows: the release `prs` binary
    // against in-process results on this workload's input.
    if let Err(e) = parity(&args, &mut rep) {
        rep.check(false, || format!("`prs {command}` parity: {e}"));
    }

    let end_to_end = listed(BENCHMARK_JSON, "end_to_end");
    let per_layer = listed(BENCHMARK_JSON, "per_layer");
    let names = if args.trace { &per_layer } else { &end_to_end };
    rep.check(!names.is_empty(), || {
        "BENCHMARK.json lists no metrics".to_string()
    });
    if !args.trace {
        for (name, _) in &end_to_end {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            rep.check(v.is_finite() && v > 0.0, || format!("{name} = {v}"));
        }
    }
    let unlisted: Vec<&str> = rep
        .metrics
        .keys()
        .copied()
        .filter(|m| !end_to_end.iter().chain(&per_layer).any(|(n, _)| n == m))
        .collect();
    rep.check(unlisted.is_empty(), || {
        format!("metrics missing from BENCHMARK.json: {unlisted:?}")
    });
    rep.set(
        "failed_share",
        stats::ratio(rep.failed as f64, rep.attempted as f64),
    );
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = rep.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_come_from_benchmark_json() {
        let json = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"unit":"us","name":"op_p50_us"}],
          "per_layer": [{"name": "core.parse_us", "unit": "us", "better": "lower"}]}"#;
        assert_eq!(
            listed(json, "end_to_end"),
            vec![("setup_s", "s"), ("op_p50_us", "us")]
        );
        assert_eq!(listed(json, "per_layer"), vec![("core.parse_us", "us")]);
        assert!(listed(json, "workloads").is_empty());
        assert!(listed(BENCHMARK_JSON, "end_to_end").contains(&("setup_s", "s")));
        assert!(listed_per_layer("failed_share"));
    }

    #[test]
    fn pass_count_follows_the_seconds_only() {
        assert_eq!(schedule(30.0, 7.5).count(), 4);
        assert_eq!(schedule(30.0, 1.25).count(), 24);
        assert_eq!(schedule(1.0, 7.5).count(), 2);
        // Past 1.5 × the seconds, a run stops after its first two passes.
        assert_eq!(schedule(0.0, 1e-9).count(), 2);
    }

    #[test]
    fn timings_are_the_fastest_repetitions() {
        let mut rep = Report::default();
        let ops = vec![
            vec![5.0, 1.0, 9.0],
            vec![2.0, 3.0, 4.0],
            vec![8.0, 8.0, 8.0],
        ];
        rep.set_timings(&[0.3, 0.1, 0.2], &[15.0, 9.0, 24.0], &ops);
        assert_eq!(rep.metrics["setup_s"], 0.1);
        assert_eq!(rep.metrics["pass_s"], 9.0);
        assert_eq!(rep.metrics["op_p50_us"], 3.0);
    }
}
