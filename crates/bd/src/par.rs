//! Deterministic parallel fan-out for decomposition consumers.
//!
//! The deviation sweep, the Sybil grid search, the audit batches and the
//! exhaustive ring audit all fan the same shape of work out: `count`
//! independent exact evaluations whose results must come back in input
//! order (so downstream best-pick and interval assembly are bit-identical to
//! a sequential run). This module holds the index-ordered fan-out the stack
//! shares, and with it every worker thread the library crates start: a
//! shared atomic cursor hands out indices (work stealing), each worker
//! writes into its index's slot, and the scope join makes the slots safe to
//! drain in order. A worker's panic re-panics in the caller at the join.

// prs-lint: allow-file(panic, reason = "the slot and pool expects are poison propagation: a job that panicked has already aborted the fan-out, which re-panics at the scope join; the cursor-coverage expect is the module's ordering invariant")

use crate::session::DecompositionSession;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The worker sections' span names, bound to `BSPAN_*` consts so prs-lint's
/// trace-registry extraction ties them to the `bd` layer (see
/// `span_const_layers` in `crates/xtask/src/rules.rs`).
const BSPAN_PAR_WORKER: &str = "par_worker";
const BSPAN_POOL_WORKER: &str = "pool_worker";

/// Worker count for `count` independent jobs: the machine's parallelism,
/// capped by the job count, at least 1. The parallelism is read once per
/// process (on Linux each read re-parses the cgroup CPU quota).
pub fn worker_threads(count: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    hw.min(count).max(1)
}

/// Evaluate `f(i)` for `i ∈ 0..count` across `threads` scoped workers and
/// return the results **in index order**, independent of scheduling.
///
/// Falls back to a plain sequential map when a single worker suffices, so
/// callers never pay thread spawn cost for tiny inputs.
pub fn par_map_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    Worker {
        span: BSPAN_PAR_WORKER,
        enter: || (),
        job: |_: &mut (), i| f(i),
        leave: |()| {},
    }
    .fan_out(count, threads)
}

/// One fan-out's per-worker program: a worker opens a `span` section tagged
/// with its id, takes a state from `enter`, runs `job` on every index it is
/// handed, gives the state to `leave` after its last job, and tags the
/// section with its job count.
struct Worker<E, J, L> {
    span: &'static str,
    enter: E,
    job: J,
    leave: L,
}

impl<E, J, L> Worker<E, J, L> {
    /// Run worker `w` over `indices`, handing each result to `put`.
    fn run<S, T>(
        &self,
        w: usize,
        indices: impl Iterator<Item = usize>,
        mut put: impl FnMut(usize, T),
    ) where
        E: Fn() -> S,
        J: Fn(&mut S, usize) -> T,
        L: Fn(S),
    {
        let mut sp = prs_trace::span("bd", self.span);
        sp.attr("worker", || w.to_string());
        let mut state = (self.enter)();
        let mut jobs: u64 = 0;
        for i in indices {
            put(i, (self.job)(&mut state, i));
            jobs += 1;
        }
        (self.leave)(state);
        sp.attr("jobs", || jobs.to_string());
    }

    /// `count` jobs on `threads` workers, results in index order. One
    /// worker runs as a plain loop on the caller's thread, with the same
    /// span shape as the threaded path, so traces always carry a
    /// worker-tagged section (single-core machines included).
    fn fan_out<S, T>(&self, count: usize, threads: usize) -> Vec<T>
    where
        T: Send,
        E: Fn() -> S + Sync,
        J: Fn(&mut S, usize) -> T + Sync,
        L: Fn(S) + Sync,
    {
        let threads = threads.clamp(1, count.max(1));
        if threads == 1 {
            let mut out = Vec::with_capacity(count);
            self.run(0, 0..count, |_, t| out.push(t));
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let (cursor, slots) = (&cursor, &slots);
                scope.spawn(move || {
                    let next =
                        || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < count);
                    // One uncontended lock per job, not per step: each index
                    // is handed to exactly one worker by the cursor.
                    self.run(w, std::iter::from_fn(next), |i, t| {
                        *slots[i].lock().expect("slot poisoned") = Some(t);
                    });
                    // Must be the closure's last act: the scope join can race
                    // this thread's TLS destructors (see prs_trace::flush_thread).
                    prs_trace::flush_thread();
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot poisoned")
                    .expect("cursor covered every index")
            })
            .collect()
    }
}

/// A pool of [`DecompositionSession`]s for parallel fan-outs: each worker
/// checks one session out for its whole lifetime (so every evaluation it
/// runs warm-starts from its predecessors), and sessions return to the pool
/// at the join — a later fan-out (the next zoom level, the bisection pass)
/// re-checks them out with their shape caches intact.
#[derive(Default)]
pub struct SessionPool {
    free: Mutex<Vec<DecompositionSession>>,
}

impl SessionPool {
    /// An empty pool; sessions are created on demand, detached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a session out of the pool (or create a fresh one).
    pub fn checkout(&self) -> DecompositionSession {
        self.free
            .lock()
            .expect("pool poisoned")
            .pop()
            .unwrap_or_else(DecompositionSession::detached)
    }

    /// Return a session (and its warm cache) to the pool.
    pub fn checkin(&self, session: DecompositionSession) {
        self.free.lock().expect("pool poisoned").push(session);
    }

    /// Aggregate hit/miss/warm-start counters over the pooled (checked-in)
    /// sessions.
    pub fn stats(&self) -> crate::session::SessionStats {
        let free = self.free.lock().expect("pool poisoned");
        let mut total = crate::session::SessionStats::default();
        for s in free.iter() {
            // UFCS: a bare `.stats()` is ambiguous to the lock-order
            // linker, which would alias it with this very function and
            // report a `free`→`free` re-entrancy cycle.
            let st = DecompositionSession::stats(s);
            total.hits += st.hits;
            total.misses += st.misses;
            total.warm_starts += st.warm_starts;
        }
        total
    }

    /// [`par_map_indexed`], with a pooled session threaded through each
    /// worker: evaluate `f(&mut session, i)` for `i ∈ 0..count` on
    /// `threads` workers and return results in index order.
    pub fn map_indexed<T, F>(&self, count: usize, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut DecompositionSession, usize) -> T + Sync,
    {
        Worker {
            span: BSPAN_POOL_WORKER,
            enter: || self.checkout(),
            job: f,
            leave: |session| self.checkin(session),
        }
        .fan_out(count, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose;
    use prs_graph::builders;
    use prs_numeric::int;

    #[test]
    fn results_in_index_order() {
        let out = par_map_indexed(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_fallback_matches() {
        assert_eq!(par_map_indexed(3, 1, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    #[should_panic]
    fn worker_panic_reaches_the_caller() {
        par_map_indexed(4, 2, |i| assert_ne!(i, 2, "job 2 fails"));
    }

    #[test]
    #[should_panic]
    fn pool_worker_panic_reaches_the_caller() {
        SessionPool::new().map_indexed(4, 2, |_, i| assert_ne!(i, 2, "job 2 fails"));
    }

    #[test]
    fn worker_threads_bounds() {
        assert_eq!(worker_threads(0), 1);
        assert!(worker_threads(1000) >= 1);
        assert!(worker_threads(2) <= 2);
    }

    #[test]
    fn pooled_sessions_match_cold_decompose() {
        let pool = SessionPool::new();
        let out = pool.map_indexed(24, 4, |session, i| {
            let g = builders::path(vec![int(1 + i as i64), int(10), int(3)]).unwrap();
            (session.decompose(&g).unwrap(), decompose(&g).unwrap())
        });
        for (warm, cold) in out {
            assert_eq!(warm, cold);
        }
        // All sessions are back in the pool and did real work.
        let stats = pool.stats();
        assert!(stats.hits + stats.misses > 0);
    }

    #[test]
    fn pool_reuses_sessions_across_fanouts() {
        let pool = SessionPool::new();
        let g = builders::path(vec![int(2), int(10), int(3)]).unwrap();
        pool.map_indexed(4, 1, |session, _| session.decompose(&g).unwrap());
        let warm_before = pool.stats();
        pool.map_indexed(4, 1, |session, _| session.decompose(&g).unwrap());
        let warm_after = pool.stats();
        assert!(
            warm_after.hits > warm_before.hits,
            "second fan-out must hit the warmed cache: {warm_before:?} → {warm_after:?}"
        );
    }
}
