//! Deterministic parallel fan-out for decomposition consumers.
//!
//! The deviation sweep, the Sybil grid search, and the audit batches all
//! fan the same shape of work out: `count` independent exact evaluations
//! whose results must come back in input order (so downstream best-pick and
//! interval assembly are bit-identical to a sequential run). This module
//! holds the index-ordered fan-out the stack shares: a shared
//! atomic cursor hands out indices (work stealing), each worker writes into
//! its index's slot, and the scope join makes the slots safe to drain in
//! order.

// prs-lint: allow-file(panic, reason = "every expect here is poison/join propagation: a worker panic has already aborted the computation, and re-raising at the join is the correct way to surface it; the cursor-coverage expect is the module's ordering invariant")

use crate::session::{DecompositionSession, SessionConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
    let threads = threads.clamp(1, count.max(1));
    if threads == 1 {
        // Same span shape as the threaded path, so traces always carry a
        // worker-tagged section (single-core machines included).
        let mut sp = prs_trace::span("bd", "par_worker");
        sp.attr("worker", || "0".to_string());
        let out = (0..count).map(f).collect();
        sp.attr("jobs", || count.to_string());
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    crossbeam::scope(|scope| {
        let (cursor, slots, f) = (&cursor, &slots, &f);
        for w in 0..threads {
            scope.spawn(move |_| {
                {
                    let mut sp = prs_trace::span("bd", "par_worker");
                    sp.attr("worker", || w.to_string());
                    let mut jobs: u64 = 0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        jobs += 1;
                        // One uncontended lock per job, not per step: each
                        // index is handed to exactly one worker by the
                        // cursor.
                        *slots[i].lock().expect("slot poisoned") = Some(f(i));
                    }
                    sp.attr("jobs", || jobs.to_string());
                }
                // Must be the closure's last act: the scope join can race
                // this thread's TLS destructors (see prs_trace::flush_thread).
                prs_trace::flush_thread();
            });
        }
    })
    .expect("parallel worker panicked");
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("cursor covered every index")
        })
        .collect()
}

/// A pool of [`DecompositionSession`]s for parallel fan-outs: each worker
/// checks one session out for its whole lifetime (so every evaluation it
/// runs warm-starts from its predecessors), and sessions return to the pool
/// at the join — a later fan-out (the next zoom level, the bisection pass)
/// re-checks them out with their shape caches intact.
pub struct SessionPool {
    cfg: SessionConfig,
    free: Mutex<Vec<DecompositionSession>>,
}

impl SessionPool {
    /// An empty pool; sessions are created on demand with `cfg`.
    pub fn new(cfg: SessionConfig) -> Self {
        SessionPool {
            cfg,
            free: Mutex::new(Vec::new()),
        }
    }

    /// Take a session out of the pool (or create a fresh one).
    pub fn checkout(&self) -> DecompositionSession {
        self.free
            .lock()
            .expect("pool poisoned")
            .pop()
            .unwrap_or_else(|| DecompositionSession::detached_with_config(self.cfg.clone()))
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
        let threads = threads.clamp(1, count.max(1));
        if threads == 1 {
            let mut sp = prs_trace::span("bd", "pool_worker");
            sp.attr("worker", || "0".to_string());
            let mut session = self.checkout();
            let out = (0..count).map(|i| f(&mut session, i)).collect();
            self.checkin(session);
            sp.attr("jobs", || count.to_string());
            return out;
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        crossbeam::scope(|scope| {
            let (cursor, slots, f) = (&cursor, &slots, &f);
            for w in 0..threads {
                scope.spawn(move |_| {
                    {
                        let mut sp = prs_trace::span("bd", "pool_worker");
                        sp.attr("worker", || w.to_string());
                        let mut jobs: u64 = 0;
                        let mut session = self.checkout();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            jobs += 1;
                            *slots[i].lock().expect("slot poisoned") = Some(f(&mut session, i));
                        }
                        self.checkin(session);
                        sp.attr("jobs", || jobs.to_string());
                    }
                    prs_trace::flush_thread();
                });
            }
        })
        .expect("parallel worker panicked");
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
    fn worker_threads_bounds() {
        assert_eq!(worker_threads(0), 1);
        assert!(worker_threads(1000) >= 1);
        assert!(worker_threads(2) <= 2);
    }

    #[test]
    fn pooled_sessions_match_cold_decompose() {
        let pool = SessionPool::new(SessionConfig::new());
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
        let pool = SessionPool::new(SessionConfig::new());
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
