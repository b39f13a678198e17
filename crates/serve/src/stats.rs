//! Building blocks of the [`crate::fleet::FleetStats`] snapshot: tick
//! distributions (p50/p95/p99 via the core profiler's sample reservoir)
//! and the per-slot session rows each [`crate::shard::ShardStat`] carries.

use cca_core::Profiler;

/// Distribution summary of a tick-valued quantity (queue wait, run cost).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyStat {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean, ticks.
    pub mean: f64,
    /// Largest sample, ticks.
    pub max: f64,
    /// Median, ticks (nearest-rank over the recent-sample reservoir).
    pub p50: f64,
    /// 95th percentile, ticks.
    pub p95: f64,
    /// 99th percentile, ticks.
    pub p99: f64,
}

impl LatencyStat {
    /// Summarize the named timer of `profiler` (ticks recorded as raw
    /// sample values). Zeroes if the timer never fired.
    pub fn from_profiler(profiler: &Profiler, name: &str) -> LatencyStat {
        let Some(stat) = profiler.stat(name) else {
            return LatencyStat::default();
        };
        let p = profiler
            .percentiles(name, &[0.50, 0.95, 0.99])
            .unwrap_or_else(|| vec![0.0; 3]);
        LatencyStat {
            count: stat.calls,
            mean: if stat.calls > 0 {
                stat.total_secs / stat.calls as f64
            } else {
                0.0
            },
            max: stat.max_secs,
            p50: p[0],
            p95: p[1],
            p99: p[2],
        }
    }
}

/// Per-slot session summary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStat {
    /// Slot index.
    pub id: usize,
    /// Rebuilds after poisonings.
    pub epoch: u64,
    /// Attempts executed on the slot.
    pub runs: u64,
    /// Virtual tick the slot next becomes free.
    pub free_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stat_summarizes_profiler_timer() {
        let p = Profiler::new();
        for k in 1..=100 {
            p.record("serve.wait", k as f64);
        }
        let l = LatencyStat::from_profiler(&p, "serve.wait");
        assert_eq!(l.count, 100);
        assert!((l.mean - 50.5).abs() < 1e-12);
        assert!((l.p50 - 50.0).abs() < 1e-12);
        assert!((l.p99 - 99.0).abs() < 1e-12);
        assert!((l.max - 100.0).abs() < 1e-12);
        assert_eq!(
            LatencyStat::from_profiler(&p, "ghost"),
            LatencyStat::default()
        );
    }
}
