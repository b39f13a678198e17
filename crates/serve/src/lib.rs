//! `cca-serve` — simulation-as-a-service over the component framework.
//!
//! The paper's codes are batch programs: a script assembles an
//! application, `go` runs it, the process exits. This crate turns the
//! same palette into a *served* resource — the shape a production
//! CCA-style deployment takes when many clients share one simulation
//! capability:
//!
//! * [`job::SimJob`] — a request: rc-script + typed parameter overrides,
//!   content-hashed into a [`job::JobKey`] so identical physics is
//!   recognized no matter how the script is formatted.
//! * [`fleet::Fleet`] — the one scheduler: admission (via `cca-analyze`,
//!   so doomed scripts never spend a session), bounded queues with
//!   backpressure, pools of framework sessions with panic isolation
//!   (poisoned sessions are rebuilt, never reused), bounded
//!   retry-with-backoff for transient faults, and step-budget deadlines
//!   enforced cooperatively between macro steps. One shard is a single
//!   pool behind one queue; N shards sit behind a consistent-hash router
//!   ([`fleet::HashRing`]) so coalescing and the result cache stay
//!   effective per shard, with deterministic work stealing between idle
//!   and overloaded pools, per-tenant QoS fair share ([`tenant`]),
//!   exact-tick deadline admission ([`cost`]), and preemptive
//!   checkpoint-based migration of long jobs between shards (real
//!   `cca-ckpt` bytes under a sealed handoff ticket — results stay
//!   bit-identical to unmigrated runs).
//! * [`cache::ResultCache`] — completed artifacts (field norms, digest,
//!   optional checkpoint bytes) in an LRU cache; duplicate submissions
//!   coalesce onto in-flight work and are answered bit-identically.
//! * [`fleet::FleetStats`] — queue depth, wait/run/turnaround tick
//!   distributions (p50/p95/p99 from the core profiler's sample
//!   reservoir), per-shard cache counters and session rows, per-tenant
//!   service, retries, poisonings, rejections.
//!
//! Scheduling runs on a **virtual clock** (ticks = macro steps), so
//! every latency number and the entire schedule are deterministic — no
//! wall-clock sleeps anywhere, which is what lets CI pin the loadgen
//! benchmarks byte-for-byte (`BENCH_PR3.json`, `BENCH_PR10.json`).

pub mod cache;
pub mod cost;
pub mod fleet;
pub mod job;
pub mod loadgen;
pub(crate) mod queue;
pub mod session;
pub(crate) mod shard;
pub mod stats;
pub mod tenant;
pub mod workload;

pub use cache::{Artifacts, CacheStats, ResultCache};
pub use cost::{CostPrediction, LatePolicy};
pub use fleet::{Fleet, FleetConfig, FleetStats, HashRing, JobOutcome, SubmitError, TenantRow};
pub use job::{DistributedSpec, FaultSpec, JobId, JobKey, Override, SimJob, WorkloadKind};
pub use loadgen::{
    fleet_request_stream, fleet_tenants, run_fleet_loadgen, run_loadgen, FleetLoadgenConfig,
    FleetLoadgenReport, LoadgenConfig, LoadgenReport,
};
pub use session::{CancelReason, CancelToken, PreemptSpec, StepSignal};
pub use shard::ShardStat;
pub use stats::{LatencyStat, SessionStat};
pub use tenant::{default_tenants, QosClass, TenantSpec, TenantState};
pub use workload::{serve_palette, IgnitionSpec, JobConfig, RdSpec};
