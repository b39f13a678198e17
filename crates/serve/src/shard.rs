//! One serve shard: a session pool, a bounded queue, a per-shard LRU
//! result cache, and per-shard observability.
//!
//! Shards are the unit of consistent-hash routing: every [`crate::job::JobKey`]
//! has exactly one *home* shard, so duplicate coalescing and the result
//! cache keep their hit rates no matter how many shards the fleet runs —
//! identical submissions always meet at the same cache. Work stealing
//! may *execute* a job elsewhere, but its artifacts are always credited
//! back to the home shard's cache.
//!
//! A shard's session pool is **elastic**: [`Shard::set_target_sessions`]
//! records the desired size and [`Shard::apply_resize`] converges on it
//! at safe points — new slots warm up immediately, retiring slots drain
//! first (a slot is only removed once it is free at the current virtual
//! tick). Long jobs survive shrinks because they run in checkpointed
//! slices: a preempted job's continuation simply lands on whatever pool
//! exists next.

use crate::cache::{CacheStats, ResultCache};
use crate::job::{JobId, JobKey, SimJob};
use crate::queue::JobQueue;
use crate::session::{CancelToken, PaletteFn, Session};
use crate::stats::SessionStat;
use cca_core::{ExecutorStats, Profiler};
use std::collections::BTreeMap;

/// A duplicate submission riding a queued primary on this shard. It
/// holds its own copy of the job so it can be *promoted* to primary —
/// with its own fresh attempt budget — if the primary is lost to
/// cancellation or failure (duplicates never share a failure).
pub(crate) struct Follower {
    pub id: JobId,
    pub tenant: u32,
    pub job: SimJob,
    pub submit_tick: u64,
    pub token: CancelToken,
}

/// One shard of the fleet.
pub(crate) struct Shard {
    /// Stable shard index (the ring routes onto it).
    pub id: usize,
    pub sessions: Vec<Session>,
    /// Monotone session-id source, so rebuilt/grown slots never reuse an
    /// id within the shard.
    pub next_session_id: usize,
    /// Elastic pool goal; `apply_resize` converges the pool onto it.
    pub target_sessions: usize,
    pub queue: JobQueue,
    pub cache: ResultCache,
    pub followers: BTreeMap<JobKey, Vec<Follower>>,
    /// Per-shard latency reservoirs (`fleet.queue_wait`, `fleet.run`,
    /// `fleet.turnaround`); the fleet snapshot merges them via
    /// `Profiler::absorb`.
    pub profiler: Profiler,
    pub exec_agg: ExecutorStats,
    pub completed: u64,
    pub cached: u64,
    pub retries: u64,
    pub poisonings: u64,
    pub failed: u64,
    /// Ready entries this shard pulled from other shards.
    pub steals_in: u64,
    /// Ready entries other shards pulled from this one.
    pub steals_out: u64,
}

impl Shard {
    pub fn new(
        id: usize,
        sessions: usize,
        queue_capacity: usize,
        cache_capacity: usize,
        palette: &PaletteFn,
    ) -> Self {
        let n = sessions.max(1);
        Shard {
            id,
            sessions: (0..n).map(|sid| Session::new(sid, palette)).collect(),
            next_session_id: n,
            target_sessions: n,
            queue: JobQueue::new(queue_capacity),
            cache: ResultCache::new(cache_capacity),
            followers: BTreeMap::new(),
            profiler: Profiler::new(),
            exec_agg: ExecutorStats::default(),
            completed: 0,
            cached: 0,
            retries: 0,
            poisonings: 0,
            failed: 0,
            steals_in: 0,
            steals_out: 0,
        }
    }

    /// Does any slot accept work at `clock`?
    pub fn has_free_session(&self, clock: u64) -> bool {
        self.sessions.iter().any(|s| s.free_at <= clock)
    }

    /// The session the dispatcher uses: earliest-free, lowest id.
    pub fn pick_session(&self) -> usize {
        self.sessions
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.free_at, *i))
            .map(|(i, _)| i)
            .expect("pool is non-empty")
    }

    /// Record the desired pool size (≥ 1). Takes effect via
    /// [`Shard::apply_resize`].
    pub fn set_target_sessions(&mut self, target: usize) {
        self.target_sessions = target.max(1);
    }

    /// Converge the pool on its target at a safe point: grow with fresh
    /// warm slots immediately; shrink by retiring *idle* slots only
    /// (drain-then-remove — a busy slot survives until it frees up).
    pub fn apply_resize(&mut self, clock: u64, palette: &PaletteFn) {
        while self.sessions.len() < self.target_sessions {
            self.sessions
                .push(Session::new(self.next_session_id, palette));
            self.next_session_id += 1;
        }
        while self.sessions.len() > self.target_sessions {
            // Retire the highest-id idle slot; if all are busy, wait.
            let Some(idx) = self
                .sessions
                .iter()
                .enumerate()
                .rev()
                .find(|(_, s)| s.free_at <= clock)
                .map(|(i, _)| i)
            else {
                break;
            };
            self.sessions.remove(idx);
        }
    }

    /// This shard's row of the fleet snapshot.
    pub fn stat(&self) -> ShardStat {
        ShardStat {
            id: self.id,
            sessions: self.sessions.len(),
            target_sessions: self.target_sessions,
            queue_depth: self.queue.depth() as u64,
            completed: self.completed,
            cached: self.cached,
            retries: self.retries,
            poisonings: self.poisonings,
            failed: self.failed,
            steals_in: self.steals_in,
            steals_out: self.steals_out,
            cache_stats: self.cache.stats(),
            slots: self
                .sessions
                .iter()
                .map(|s| SessionStat {
                    id: s.id,
                    epoch: s.epoch,
                    runs: s.runs,
                    free_at: s.free_at,
                })
                .collect(),
        }
    }
}

/// Public per-shard statistics row.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStat {
    /// Shard index.
    pub id: usize,
    /// Live session-pool size.
    pub sessions: usize,
    /// Elastic pool target.
    pub target_sessions: usize,
    /// Entries waiting in the shard queue.
    pub queue_depth: u64,
    /// Jobs completed on this shard's sessions.
    pub completed: u64,
    /// Submissions this shard answered from its cache.
    pub cached: u64,
    /// Retries re-queued on this shard.
    pub retries: u64,
    /// Session poisonings on this shard.
    pub poisonings: u64,
    /// Terminal failures on this shard.
    pub failed: u64,
    /// Entries stolen *into* this shard.
    pub steals_in: u64,
    /// Entries stolen *out of* this shard.
    pub steals_out: u64,
    /// Result-cache counters.
    pub cache_stats: CacheStats,
    /// Per-slot session rows, in pool order (`sessions` of them).
    pub slots: Vec<SessionStat>,
}
