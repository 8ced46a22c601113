//! Deterministic parallel fan-out for decomposition consumers.
//!
//! The deviation sweep, the Sybil grid search, and the audit batches all
//! fan the same shape of work out: `count` independent exact evaluations
//! whose results must come back in input order (so downstream best-pick and
//! interval assembly are bit-identical to a sequential run). This module
//! centralizes the crossbeam scoped-thread idiom used by
//! `prs-dynamics::parallel`: a shared atomic cursor hands out indices
//! (work stealing), each worker writes into its index's slot, and the scope
//! join makes the slots safe to drain in order.

// prs-lint: allow-file(panic, reason = "every expect here is poison/join propagation: a worker panic has already aborted the computation, and re-raising at the join is the correct way to surface it; the cursor-coverage expect is the module's ordering invariant")

use crate::delta::{Delta, UpdateOutcome};
use crate::error::BdError;
use crate::session::{DecompositionSession, SessionConfig};
use prs_graph::Graph;
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

/// One shard of a [`ShardPool`]: a long-lived owned-instance session plus
/// its FIFO delta queue.
struct Shard {
    session: DecompositionSession,
    queue: Vec<Delta>,
}

/// A sharded fleet of long-lived delta-serving sessions — the parallel face
/// of the stream-of-mutations API.
///
/// Each shard owns one instance (one swarm neighborhood, one tenant, …) and
/// an in-order delta queue. Producers [`enqueue`](ShardPool::enqueue)
/// mutations at any time; [`drain`](ShardPool::drain) then applies every
/// shard's queue FIFO, shards running in parallel over
/// [`par_map_indexed`]'s deterministic fan-out. Because deltas never cross
/// shards, the result is independent of scheduling: each shard's outcome
/// vector equals what a sequential replay of its queue would produce.
pub struct ShardPool {
    shards: Vec<Mutex<Shard>>,
}

impl ShardPool {
    /// One owned-instance session per shard, every session tuned by `cfg`.
    pub fn new(instances: Vec<Graph>, cfg: SessionConfig) -> Self {
        ShardPool {
            shards: instances
                .into_iter()
                .map(|g| {
                    Mutex::new(Shard {
                        session: DecompositionSession::with_config(g, cfg.clone()),
                        queue: Vec::new(),
                    })
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True iff the pool has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Append `delta` to shard `shard`'s queue (FIFO). Returns `false` when
    /// the shard index is out of range (the delta is dropped).
    pub fn enqueue(&self, shard: usize, delta: Delta) -> bool {
        match self.shards.get(shard) {
            Some(m) => {
                m.lock().expect("shard poisoned").queue.push(delta);
                true
            }
            None => false,
        }
    }

    /// Number of queued (not yet drained) deltas on shard `shard`.
    pub fn queued(&self, shard: usize) -> usize {
        self.shards
            .get(shard)
            .map_or(0, |m| m.lock().expect("shard poisoned").queue.len())
    }

    /// Apply every shard's queued deltas in FIFO order — shards in parallel
    /// across `threads` workers — and return each shard's per-delta
    /// outcomes, in shard order. A rejected delta (its `Err` is reported in
    /// place) leaves that shard's session untouched and the drain moves on
    /// to the next queued delta.
    pub fn drain(&self, threads: usize) -> Vec<Vec<Result<UpdateOutcome, BdError>>> {
        par_map_indexed(self.shards.len(), threads, |i| {
            let mut shard = self.shards[i].lock().expect("shard poisoned");
            let queue = std::mem::take(&mut shard.queue);
            let mut sp = prs_trace::span("bd", "shard_drain");
            sp.attr("shard", || i.to_string());
            sp.attr("deltas", || queue.len().to_string());
            // prs-lint: allow(lock-order, reason = "by design: each worker applies deltas under its own shard's lock only — shards are disjoint (one lock per worker, never nested), so the engine running under it cannot deadlock")
            queue.into_iter().map(|d| shard.session.apply(d)).collect()
        })
    }

    /// Run `f` against shard `shard`'s session (e.g. to read
    /// [`current`](DecompositionSession::current) or
    /// [`stats`](DecompositionSession::stats) after a drain). `None` when
    /// the shard index is out of range.
    pub fn with_session<T>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut DecompositionSession) -> T,
    ) -> Option<T> {
        self.shards
            .get(shard)
            .map(|m| f(&mut m.lock().expect("shard poisoned").session))
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
    fn shard_pool_drains_fifo_and_matches_cold() {
        let instances: Vec<Graph> = (0..6)
            .map(|i| builders::path(vec![int(2 + i), int(10), int(3)]).unwrap())
            .collect();
        let pool = ShardPool::new(instances.clone(), SessionConfig::new());
        assert_eq!(pool.len(), 6);
        assert!(!pool.is_empty());
        for (i, _) in instances.iter().enumerate() {
            assert!(pool.enqueue(i, Delta::SetWeight { v: 0, w: int(7) }));
            assert!(pool.enqueue(
                i,
                Delta::SetWeight {
                    v: 0,
                    w: int(1 + i as i64),
                }
            ));
        }
        assert!(!pool.enqueue(99, Delta::Batch(vec![])), "range-checked");
        assert_eq!(pool.queued(0), 2);
        let outcomes = pool.drain(4);
        assert_eq!(outcomes.len(), 6);
        assert_eq!(pool.queued(0), 0);
        for (i, per_shard) in outcomes.iter().enumerate() {
            assert_eq!(per_shard.len(), 2, "shard {i} served its whole queue");
            assert!(per_shard.iter().all(|o| o.is_ok()));
            // FIFO: the final committed weight is the *second* enqueued one.
            let expected = builders::path(vec![int(1 + i as i64), int(10), int(3)]).unwrap();
            pool.with_session(i, |s| {
                assert_eq!(s.graph(), Some(&expected));
                assert_eq!(*s.current().unwrap(), decompose(&expected).unwrap());
            })
            .unwrap();
        }
    }

    #[test]
    fn shard_pool_reports_rejections_in_place() {
        let pool = ShardPool::new(
            vec![builders::path(vec![int(1), int(2)]).unwrap()],
            SessionConfig::new(),
        );
        pool.enqueue(0, Delta::SetWeight { v: 9, w: int(1) });
        pool.enqueue(0, Delta::SetWeight { v: 0, w: int(5) });
        let outcomes = pool.drain(1);
        assert!(matches!(outcomes[0][0], Err(BdError::InvalidDelta { .. })));
        assert!(outcomes[0][1].is_ok(), "queue continues past a rejection");
        let expected = builders::path(vec![int(5), int(2)]).unwrap();
        pool.with_session(0, |s| assert_eq!(s.graph(), Some(&expected)))
            .unwrap();
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
