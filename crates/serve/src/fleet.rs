//! The serve fleet: N shards behind a consistent-hash router, with
//! deterministic work stealing, per-tenant QoS fair-share scheduling,
//! deadline-aware admission, and checkpoint-based migration of long jobs.
//!
//! This is the crate's only scheduler. A single-pool deployment is the
//! one-shard fleet, `Fleet::new(FleetConfig { shards: 1, .. })`; every
//! mechanism below degenerates cleanly (one home, nobody to steal from):
//!
//! * **Routing** — every [`JobKey`] has exactly one *home* shard, chosen
//!   by a [`HashRing`] (FNV points, no process-seeded hashing, identical
//!   across runs). Duplicate coalescing and the LRU result cache live on
//!   the home shard, so their hit rates survive scaling out: identical
//!   submissions always meet at the same cache, no matter which shard
//!   ultimately executes them.
//! * **Work stealing** — dispatch is *lazy*: a shard only starts jobs on
//!   sessions free at the current virtual tick, so waiting work remains
//!   in queues where an idle shard can steal it. The thief/donor choice
//!   is a pure function of queue depths and shard ids — deterministic,
//!   like everything else on the virtual clock.
//! * **QoS** — tenants ([`crate::tenant`]) get class bands (interactive ≻
//!   standard ≻ batch), stride fair-share within a band, and priority
//!   aging so no job starves forever.
//! * **Deadline admission** — [`cost::predict`] gives an attempt's
//!   virtual-tick cost exactly; a job whose deadline is provably
//!   unreachable even on the globally earliest-free session is refused
//!   (or accepted degraded) *at submit time*, before it can rot in a
//!   queue it can never leave in time.
//! * **Preemptive migration** — long reaction–diffusion jobs with a
//!   positive `ckpt_interval` run in *slices*: the dispatcher arms a
//!   [`PreemptSpec`], the workload commits periodic
//!   [`cca_ckpt::ComponentSet`]s, and the yielded continuation re-enters
//!   the home queue carrying the committed bytes. If another shard steals
//!   it, the handoff travels as real checkpoint bytes under a sealed
//!   [`HandoffTicket`] — and deterministic re-execution makes the final
//!   artifacts bit-identical to an unmigrated run. Preemption cost is
//!   bounded by `ckpt_interval` re-executed steps.
//!
//! Shard session pools are elastic ([`Fleet::resize_shard`]): grows warm
//! up immediately, shrinks drain busy slots first, and in-flight sliced
//! jobs simply resume on whatever pool exists next — the same
//! any-pool-size restart guarantee `cca-ckpt` gives the distributed SAMR
//! runs.
//!
//! Job lifecycle (the DESIGN.md §7 state machine; [`Fleet::submit`] owns
//! the edges out of `submit`, one `Transition` per dispatch the rest):
//!
//! ```text
//! submit ──admission error──────▶ Rejected(admission)
//!   │ ──cache hit at home───────▶ Cached
//!   │ ──duplicate queued at home▶ Follower ──primary answered─▶ Cached
//!   │                                      └─primary lost─────▶ promoted ─▶ Queued
//!   │ ──deadline provably late──▶ Rejected(deadline) │ downgraded ─▶ Queued
//!   │ ──home queue full─────────▶ Rejected(full, retry-after hint)
//!   ▼
//! Queued ──client cancel────────▶ Cancelled
//!   │ ──result landed at home───▶ Cached
//!   │ ──stolen by an idle shard─▶ Queued on the thief (home keeps cache + followers)
//!   │ ──continuation on a new shard: *migrated* under a handoff ticket
//!   │                             over its checkpoint bytes ──rejected─▶ Failed
//!   ▼ ready, session free
//! Running ──ok──────────▶ Completed (+ cache insert at home)
//!   │ ──budget/token────▶ Cancelled
//!   │ ──solver error────▶ Failed
//!   │ ──panic───────────▶ session poisoned + rebuilt;
//!   │                     retries left ─backoff─▶ Queued at home, else Failed
//!   └──slice over───────▶ Preempted ─continuation (restore = last
//!                         committed set)─▶ Queued at home
//! ```
//!
//! Time is counted in **virtual ticks**: an attempt costs `1 + macro
//! steps executed`. Queue waits, retry backoff and the retry-after hint
//! are all tick arithmetic — the whole schedule is a pure function of
//! the submission sequence, which is what lets the loadgen benchmarks pin
//! their latency distributions byte-for-byte.

use crate::cache::Artifacts;
use crate::cost::{self, LatePolicy};
use crate::job::{JobId, JobKey, Override, SimJob, WorkloadKind};
use crate::queue::Entry;
use crate::session::{CancelReason, CancelToken, PaletteFn, PreemptSpec, RunOutcome};
use crate::shard::{Follower, Shard, ShardStat};
use crate::stats::LatencyStat;
use crate::tenant::{default_tenants, TenantSpec, TenantState};
use cca_analyze::Analyzer;
use cca_ckpt::{fnv1a64, HandoffTicket, FNV1A_INIT};
use cca_core::{ExecutorStats, Profiler};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Why a submission was refused (no session time was spent on it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity: back off and resubmit after the hinted ticks.
    QueueFull {
        /// Queue depth at rejection time.
        depth: usize,
        /// Deterministic hint: ticks until a slot is plausibly free.
        retry_after: u64,
    },
    /// The static admission check found errors; rendered report attached.
    Admission {
        /// `cca-analyze` report rendered against the submitted script.
        report: String,
    },
    /// The fleet's cost model proved the deadline unreachable: even the
    /// globally earliest-free session would finish at `needed`, past
    /// `deadline`. Raised only for jobs with [`LatePolicy::Reject`].
    Deadline {
        /// Earliest provable completion tick (absolute).
        needed: u64,
        /// The requested deadline (absolute virtual tick).
        deadline: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth, retry_after } => {
                write!(
                    f,
                    "queue full (depth {depth}); retry after {retry_after} ticks"
                )
            }
            SubmitError::Admission { report } => {
                write!(f, "rejected by admission check:\n{report}")
            }
            SubmitError::Deadline { needed, deadline } => {
                write!(
                    f,
                    "deadline provably unreachable: earliest completion at tick {needed}, \
                     deadline at tick {deadline}"
                )
            }
        }
    }
}

/// Terminal state of an accepted submission.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Ran to completion on a session.
    Completed {
        /// The results.
        artifacts: Rc<Artifacts>,
        /// Ticks from submission to the first start on a session.
        wait_ticks: u64,
        /// Session ticks summed over every attempt and slice.
        run_ticks: u64,
        /// Attempts consumed (1 = first try).
        attempts: u32,
        /// Session slot the final attempt ran on.
        session: usize,
    },
    /// Served from the result cache (submit-time hit or coalesced onto a
    /// completing duplicate).
    Cached {
        /// The results — bit-identical to a cold run.
        artifacts: Rc<Artifacts>,
        /// Ticks from submission to resolution.
        wait_ticks: u64,
    },
    /// Stopped cooperatively.
    Cancelled {
        /// Deadline or client token.
        reason: CancelReason,
        /// Ticks from submission to the stop.
        wait_ticks: u64,
        /// Macro steps executed before the stop.
        steps: u64,
    },
    /// Terminal failure (deterministic error, or retries exhausted).
    Failed {
        /// What went wrong.
        reason: String,
        /// Attempts consumed.
        attempts: u32,
    },
}

impl JobOutcome {
    /// Short tag for outcome lines (`completed`, `cached`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            JobOutcome::Completed { .. } => "completed",
            JobOutcome::Cached { .. } => "cached",
            JobOutcome::Cancelled {
                reason: CancelReason::Deadline { .. },
                ..
            } => "cancelled-deadline",
            JobOutcome::Cancelled { .. } => "cancelled-user",
            JobOutcome::Failed { .. } => "failed",
        }
    }
}

/// Consistent-hash ring mapping job keys onto shards.
///
/// Each shard contributes `virtual_nodes` points hashed from the stable
/// string `shard:<id>:replica:<r>` with FNV-1a — no process-seeded
/// hashing anywhere, so routing is identical across runs and machines. A
/// key routes to the successor point of `key.hi` (wrapping), which is
/// what bounds remapping when the fleet grows: adding a shard moves only
/// the keys falling into the new shard's arcs, ~K/N of them.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Ring over `shards` shards with `virtual_nodes` points each.
    pub fn new(shards: usize, virtual_nodes: usize) -> Self {
        let shards = shards.max(1);
        let virtual_nodes = virtual_nodes.max(1);
        let mut points = Vec::with_capacity(shards * virtual_nodes);
        for s in 0..shards {
            for r in 0..virtual_nodes {
                let label = format!("shard:{s}:replica:{r}");
                points.push((fnv1a64(FNV1A_INIT, label.as_bytes()), s));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// The home shard of `key`: owner of the successor point of `key.hi`.
    pub fn route(&self, key: JobKey) -> usize {
        let i = self.points.partition_point(|(h, _)| *h < key.hi);
        self.points[i % self.points.len()].1
    }

    /// Number of ring points (shards × virtual nodes).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// A ring always has at least one point.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Ring points per shard.
const VIRTUAL_NODES: usize = 64;
/// Maximum retries after transient (panic) failures.
const MAX_RETRIES: u32 = 2;
/// Retry backoff base, ticks: retry `k` becomes ready
/// `BACKOFF_TICKS << (k-1)` ticks after the failed attempt.
const BACKOFF_TICKS: u64 = 4;

/// Fleet tuning knobs.
pub struct FleetConfig {
    /// Framework factory jobs assemble against.
    pub palette: PaletteFn,
    /// Number of shards (1 = a single session pool behind one queue).
    pub shards: usize,
    /// Session-pool size per shard (the initial elastic target).
    pub sessions_per_shard: usize,
    /// Queue capacity per shard (client backpressure bound).
    pub queue_capacity: usize,
    /// Result-cache capacity per shard.
    pub cache_capacity: usize,
    /// Enable deterministic work stealing between shards.
    pub steal: bool,
    /// Macro steps a sliceable job may run per attempt before the
    /// dispatcher preempts it (0 disables slicing). Clamped up to the
    /// job's `ckpt_interval` so every slice commits at least once.
    pub slice_steps: u64,
    /// Queue-wait ticks per point of priority aging (0 disables aging).
    pub aging_ticks: u64,
    /// The tenant table; job `tenant` fields index into it.
    pub tenants: Vec<TenantSpec>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            palette: Rc::new(crate::workload::serve_palette),
            shards: 2,
            sessions_per_shard: 2,
            queue_capacity: 16,
            cache_capacity: 64,
            steal: true,
            slice_steps: 4,
            aging_ticks: 64,
            tenants: default_tenants(),
        }
    }
}

/// Per-job fleet context: routing home, the pristine job continuations
/// are rebuilt from, and migration/latency accounting. Every queued
/// primary has one; it is kept after resolution so tests can audit a
/// job's whole path.
struct JobCtx {
    /// Home shard (cache + coalescing site).
    home: usize,
    /// Content hash the job is cached and coalesced under.
    key: JobKey,
    /// The job exactly as admitted (continuation template).
    base_job: SimJob,
    /// First tick any session started the job.
    first_start: Option<u64>,
    /// Session ticks spent across all slices/attempts.
    run_ticks: u64,
    /// Cross-shard handoffs over checkpoint bytes.
    migrations: u64,
    /// Absolute macro steps covered by the entry's current restore set.
    committed_steps: u64,
    /// Shard that executed the most recent slice.
    last_exec_shard: Option<usize>,
    /// Times the entry was stolen out of a queue.
    stolen: u64,
    /// Extra slice length granted after a no-progress preemption (the
    /// mid-snapshot drill can tear the only commit of a slice).
    extend_slice: u64,
}

impl JobCtx {
    fn new(home: usize, key: JobKey, base_job: SimJob) -> Self {
        JobCtx {
            home,
            key,
            base_job,
            first_start: None,
            run_ticks: 0,
            migrations: 0,
            committed_steps: 0,
            last_exec_shard: None,
            stolen: 0,
            extend_slice: 0,
        }
    }
}

/// Where one dispatch leaves its entry: the edges out of `Queued` and
/// `Running` in the lifecycle above.
enum Transition {
    /// Terminal. `credit` is the shard whose counters the outcome lands
    /// on; `tick` is when it lands (followers' waits end there).
    Resolved {
        outcome: JobOutcome,
        credit: usize,
        tick: u64,
    },
    /// Back to the home queue, updated in place: a retry waiting out its
    /// backoff, or a preempted job's continuation.
    Requeued,
}

/// One tenant's row in a [`FleetStats`] snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// QoS class tag (`interactive`, `standard`, `batch`).
    pub class: &'static str,
    /// Fair-share weight.
    pub weight: u64,
    /// Stride pass value at snapshot time.
    pub pass: u64,
    /// Session ticks served.
    pub served_ticks: u64,
    /// Submissions accepted.
    pub submitted: u64,
    /// Jobs completed on a session.
    pub completed: u64,
    /// Submissions answered from a result cache.
    pub hits: u64,
    /// Submissions resolved without a cache answer.
    pub misses: u64,
    /// Submissions refused by queue backpressure.
    pub rejected_full: u64,
    /// Submissions refused by deadline admission.
    pub rejected_deadline: u64,
    /// Deadline-doomed submissions accepted degraded.
    pub downgraded: u64,
}

/// One coherent snapshot of the fleet's state and history. Latency
/// distributions are merged across shards via `Profiler::absorb` —
/// every wait/run/turnaround figure is recorded exactly once, at the
/// job's terminal resolution, so retried and sliced jobs are never
/// double-counted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetStats {
    /// Current virtual time.
    pub clock: u64,
    /// Submissions accepted.
    pub submitted: u64,
    /// Jobs completed on a session.
    pub completed: u64,
    /// Submissions answered from a result cache.
    pub cached: u64,
    /// Submissions coalesced onto an in-flight duplicate.
    pub coalesced: u64,
    /// Submissions refused by queue backpressure.
    pub rejected_full: u64,
    /// Submissions refused by the static admission check.
    pub rejected_admission: u64,
    /// Admission warnings observed on accepted jobs.
    pub admission_warnings: u64,
    /// Submissions refused because their deadline was provably
    /// unreachable.
    pub rejected_deadline: u64,
    /// Deadline-doomed submissions accepted degraded.
    pub downgraded: u64,
    /// Attempts re-queued after transient (panic) failures.
    pub retries: u64,
    /// Sessions poisoned (and rebuilt) by panicking jobs.
    pub poisonings: u64,
    /// Jobs that ended in terminal failure.
    pub failed: u64,
    /// Jobs cancelled by their step-budget deadline.
    pub cancelled_deadline: u64,
    /// Jobs cancelled by their client.
    pub cancelled_user: u64,
    /// Queue entries stolen between shards.
    pub steals: u64,
    /// Cross-shard continuation handoffs over checkpoint bytes.
    pub migrations: u64,
    /// Scheduler preemptions of sliceable jobs.
    pub preemptions: u64,
    /// Entries waiting across all shard queues.
    pub queue_depth: u64,
    /// Queue-wait distribution (submission → first start), ticks.
    pub queue_wait: LatencyStat,
    /// Run-cost distribution (session ticks over all slices), ticks.
    pub run_ticks: LatencyStat,
    /// Turnaround distribution (submission → completion), ticks.
    pub turnaround: LatencyStat,
    /// Patch-executor counters aggregated over every framework run.
    pub executor: ExecutorStats,
    /// Per-shard rows.
    pub shards: Vec<ShardStat>,
    /// Per-tenant rows.
    pub tenants: Vec<TenantRow>,
}

impl FleetStats {
    /// Human-readable rendering for CLI front-ends.
    pub fn render(&self) -> String {
        let mut out = String::from("=== cca-serve fleet stats ===\n");
        out.push_str(&format!(
            "clock {} ticks | submitted {} | completed {} | cached {} (coalesced {})\n",
            self.clock, self.submitted, self.completed, self.cached, self.coalesced
        ));
        out.push_str(&format!(
            "rejected: {} full, {} admission, {} deadline ({} downgraded, {} warnings)\n",
            self.rejected_full,
            self.rejected_admission,
            self.rejected_deadline,
            self.downgraded,
            self.admission_warnings
        ));
        out.push_str(&format!(
            "retries {} | poisonings {} | failed {} | cancelled: {} deadline, {} user\n",
            self.retries,
            self.poisonings,
            self.failed,
            self.cancelled_deadline,
            self.cancelled_user
        ));
        out.push_str(&format!(
            "steals {} | migrations {} | preemptions {} | queue depth {}\n",
            self.steals, self.migrations, self.preemptions, self.queue_depth
        ));
        for (label, l) in [
            ("queue wait", &self.queue_wait),
            ("run cost  ", &self.run_ticks),
            ("turnaround", &self.turnaround),
        ] {
            out.push_str(&format!(
                "{label} [ticks]: n={} mean={:.2} p50={:.0} p95={:.0} p99={:.0} max={:.0}\n",
                l.count, l.mean, l.p50, l.p95, l.p99, l.max
            ));
        }
        out.push_str(&format!(
            "patch executor: workers {} runs {} items {} poisonings {}\n",
            self.executor.workers,
            self.executor.runs,
            self.executor.items,
            self.executor.poisonings
        ));
        for s in &self.shards {
            let c = &s.cache_stats;
            out.push_str(&format!(
                "shard {}: sessions {}/{} queue {} completed {} cached {} retries {} \
                 steals in/out {}/{} cache {}/{} (hits {}, misses {}, evictions {})\n",
                s.id,
                s.sessions,
                s.target_sessions,
                s.queue_depth,
                s.completed,
                s.cached,
                s.retries,
                s.steals_in,
                s.steals_out,
                c.len,
                c.capacity,
                c.hits,
                c.misses,
                c.evictions
            ));
            for slot in &s.slots {
                out.push_str(&format!(
                    "  session {}: epoch {} runs {} free_at {}\n",
                    slot.id, slot.epoch, slot.runs, slot.free_at
                ));
            }
        }
        for t in &self.tenants {
            out.push_str(&format!(
                "tenant {:<12} [{:<11} w{}]: submitted {} completed {} hits {} misses {} \
                 served {}t rejected {}f/{}d downgraded {}\n",
                t.name,
                t.class,
                t.weight,
                t.submitted,
                t.completed,
                t.hits,
                t.misses,
                t.served_ticks,
                t.rejected_full,
                t.rejected_deadline,
                t.downgraded
            ));
        }
        out
    }
}

/// The sharded simulation fleet.
pub struct Fleet {
    cfg: FleetConfig,
    analyzer: Analyzer,
    ring: HashRing,
    shards: Vec<Shard>,
    tenants: Vec<TenantState>,
    clock: u64,
    next_id: JobId,
    next_seq: u64,
    outcomes: BTreeMap<JobId, JobOutcome>,
    tokens: BTreeMap<JobId, CancelToken>,
    ctxs: BTreeMap<JobId, JobCtx>,
    /// Jobs admitted degraded: scheduled in the batch band regardless of
    /// their tenant's class.
    downgraded_ids: BTreeSet<JobId>,
    submitted: u64,
    completed: u64,
    cached: u64,
    coalesced: u64,
    rejected_full: u64,
    rejected_admission: u64,
    admission_warnings: u64,
    rejected_deadline: u64,
    downgraded: u64,
    retries: u64,
    poisonings: u64,
    failed: u64,
    cancelled_deadline: u64,
    cancelled_user: u64,
    steals: u64,
    migrations: u64,
    preemptions: u64,
}

impl Fleet {
    /// Build a fleet; harvests the palette's class signatures once for
    /// the admission checker and builds the routing ring.
    pub fn new(cfg: FleetConfig) -> Self {
        let probe = (cfg.palette)();
        let analyzer = Analyzer::new(&probe);
        let n = cfg.shards.max(1);
        let ring = HashRing::new(n, VIRTUAL_NODES);
        let shards = (0..n)
            .map(|id| {
                Shard::new(
                    id,
                    cfg.sessions_per_shard,
                    cfg.queue_capacity,
                    cfg.cache_capacity,
                    &cfg.palette,
                )
            })
            .collect();
        let table = if cfg.tenants.is_empty() {
            default_tenants()
        } else {
            cfg.tenants.clone()
        };
        let tenants = table.into_iter().map(TenantState::new).collect();
        Fleet {
            analyzer,
            ring,
            shards,
            tenants,
            cfg,
            clock: 0,
            next_id: 1,
            next_seq: 1,
            outcomes: BTreeMap::new(),
            tokens: BTreeMap::new(),
            ctxs: BTreeMap::new(),
            downgraded_ids: BTreeSet::new(),
            submitted: 0,
            completed: 0,
            cached: 0,
            coalesced: 0,
            rejected_full: 0,
            rejected_admission: 0,
            admission_warnings: 0,
            rejected_deadline: 0,
            downgraded: 0,
            retries: 0,
            poisonings: 0,
            failed: 0,
            cancelled_deadline: 0,
            cancelled_user: 0,
            steals: 0,
            migrations: 0,
            preemptions: 0,
        }
    }

    /// Current virtual time, ticks.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The home shard `key` routes to.
    pub fn home_of(&self, key: JobKey) -> usize {
        self.ring.route(key)
    }

    /// Cross-shard checkpoint-byte migrations of submission `id`.
    pub fn migrations_of(&self, id: JobId) -> u64 {
        self.ctxs.get(&id).map(|c| c.migrations).unwrap_or(0)
    }

    /// Times submission `id` was stolen between shard queues.
    pub fn steals_of(&self, id: JobId) -> u64 {
        self.ctxs.get(&id).map(|c| c.stolen).unwrap_or(0)
    }

    /// Submit a job to the fleet. Admission order: static script check,
    /// tenant validation, comm-plan verification, home-cache lookup,
    /// duplicate coalescing, deadline admission, then the home queue with
    /// backpressure. Rejected jobs never spend a session.
    pub fn submit(&mut self, job: SimJob) -> Result<JobId, SubmitError> {
        // Vet the script (plus overrides) statically, so a doomed
        // assembly never occupies a session.
        let admission_script = job.admission_script();
        let report = self.analyzer.analyze(&admission_script);
        if report.has_errors() {
            self.rejected_admission += 1;
            return Err(SubmitError::Admission {
                report: report.render(&admission_script),
            });
        }
        self.admission_warnings += report.warning_count() as u64;

        let tenant = job.tenant as usize;
        if tenant >= self.tenants.len() {
            self.rejected_admission += 1;
            return Err(SubmitError::Admission {
                report: format!(
                    "unknown tenant {} (fleet tenant table has {} entries)",
                    job.tenant,
                    self.tenants.len()
                ),
            });
        }

        // Distributed jobs: a deadlocking or mismatched communication
        // plan would hang (or corrupt) a whole rank team, so it is
        // refused here with the C-code report.
        if let Some(spec) = &job.distributed {
            let plan_report = spec.effective_plan().verify();
            if plan_report.has_errors() {
                self.rejected_admission += 1;
                return Err(SubmitError::Admission {
                    report: plan_report.render("comm-plan"),
                });
            }
            self.admission_warnings += plan_report.warning_count() as u64;
        }

        let key = job.key();
        let home = self.ring.route(key);
        let id = self.next_id;

        // Home-shard result cache: identical completed work answers now.
        if let Some(artifacts) = self.shards[home].cache.get(key) {
            self.accept(tenant);
            let hit = JobOutcome::Cached {
                artifacts,
                wait_ticks: 0,
            };
            self.resolve(id, job.tenant, home, hit);
            return Ok(id);
        }

        // Coalesce onto a queued identical primary at home. A follower
        // occupies no queue slot and is answered from the primary's
        // result the moment it lands in the cache.
        let token = CancelToken::new();
        if self.shards[home].queue.contains_key(key) {
            self.accept(tenant);
            self.coalesced += 1;
            self.shards[home]
                .followers
                .entry(key)
                .or_default()
                .push(Follower {
                    id,
                    tenant: job.tenant,
                    job,
                    submit_tick: self.clock,
                    token: token.clone(),
                });
            self.tokens.insert(id, token);
            return Ok(id);
        }

        // Deadline admission: provable-lateness test against the
        // globally earliest-free session (a lower bound no schedule —
        // stealing included — can beat).
        let mut job = job;
        let mut degrade = false;
        if let Some(rel) = job.deadline {
            let deadline_abs = self.clock.saturating_add(rel);
            let earliest = self.earliest_start();
            if let Some(needed) = cost::provably_late(&job, earliest, deadline_abs) {
                match job.on_late {
                    LatePolicy::Reject => {
                        self.rejected_deadline += 1;
                        self.tenants[tenant].rejected_deadline += 1;
                        return Err(SubmitError::Deadline {
                            needed,
                            deadline: deadline_abs,
                        });
                    }
                    LatePolicy::Downgrade => {
                        // Scavenger mode: drop the deadline, demote to
                        // the batch band at priority 0.
                        job.deadline = None;
                        job.priority = 0;
                        degrade = true;
                    }
                }
            }
        }

        let base_job = job.clone();
        let entry = Entry {
            id,
            seq: self.next_seq,
            key,
            job,
            submit_tick: self.clock,
            ready_at: self.clock,
            attempts: 0,
            token: token.clone(),
        };
        match self.shards[home].queue.push(entry) {
            Ok(()) => {
                self.accept(tenant);
                self.next_seq += 1;
                if degrade {
                    self.downgraded += 1;
                    self.tenants[tenant].downgraded += 1;
                    self.downgraded_ids.insert(id);
                }
                self.tokens.insert(id, token);
                self.ctxs.insert(id, JobCtx::new(home, key, base_job));
                Ok(id)
            }
            Err(full) => {
                self.rejected_full += 1;
                self.tenants[tenant].rejected_full += 1;
                // Hint: queued work spread over the pool, plus one tick.
                let sessions = self.shards[home].sessions.len().max(1) as u64;
                Err(SubmitError::QueueFull {
                    depth: full.depth,
                    retry_after: (full.depth as u64 / sessions) + 1,
                })
            }
        }
    }

    /// Count an accepted submission and consume its id.
    fn accept(&mut self, tenant: usize) {
        self.next_id += 1;
        self.submitted += 1;
        self.tenants[tenant].submitted += 1;
    }

    /// Cancel an accepted submission. Queued primaries resolve
    /// immediately (a follower is promoted in their place); followers
    /// detach without touching the primary. Returns `false` if the id is
    /// unknown or already resolved.
    pub fn cancel(&mut self, id: JobId) -> bool {
        if self.outcomes.contains_key(&id) {
            return false;
        }
        let Some(token) = self.tokens.get(&id) else {
            return false;
        };
        token.cancel();
        for s in 0..self.shards.len() {
            if let Some(entry) = self.shards[s].queue.remove_by_id(id) {
                let cancelled = self.cancelled_by_user(entry.submit_tick);
                self.resolve_primary(id, cancelled, s, self.clock);
                return true;
            }
        }
        for s in 0..self.shards.len() {
            let followers = &mut self.shards[s].followers;
            let found = followers
                .iter()
                .find_map(|(key, fs)| Some((*key, fs.iter().position(|f| f.id == id)?)));
            if let Some((key, pos)) = found {
                let fs = followers.get_mut(&key).expect("key just found");
                let f = fs.remove(pos);
                if fs.is_empty() {
                    followers.remove(&key);
                }
                let cancelled = self.cancelled_by_user(f.submit_tick);
                self.resolve(id, f.tenant, s, cancelled);
                return true;
            }
        }
        true
    }

    /// Set shard `shard`'s elastic session-pool target and converge on
    /// it as far as the current tick allows (grows are immediate, shrinks
    /// retire idle slots only — busy slots drain first).
    pub fn resize_shard(&mut self, shard: usize, sessions: usize) {
        let palette = self.cfg.palette.clone();
        self.shards[shard].set_target_sessions(sessions);
        self.shards[shard].apply_resize(self.clock, &palette);
    }

    /// One scheduler round: dispatch everything startable at the current
    /// tick (stealing between shards as configured), then advance the
    /// virtual clock to the next event. Returns `false` once the fleet is
    /// idle — `while fleet.step() {}` is `run_until_idle`.
    pub fn step(&mut self) -> bool {
        let progressed = self.dispatch_round();
        match self.next_event() {
            Some(t) => {
                self.clock = t;
                true
            }
            None => progressed,
        }
    }

    /// Drain every queue deterministically.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Resolved outcome of a submission, if terminal.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.get(&id)
    }

    /// All resolved outcomes (id-sorted).
    pub fn outcomes(&self) -> &BTreeMap<JobId, JobOutcome> {
        &self.outcomes
    }

    /// Coherent statistics snapshot. Per-shard latency reservoirs merge
    /// through `Profiler::absorb` into fleet-wide distributions.
    pub fn stats(&self) -> FleetStats {
        let merged = Profiler::new();
        let mut executor = ExecutorStats::default();
        for sh in &self.shards {
            merged.absorb(&sh.profiler);
            executor.absorb(&sh.exec_agg);
        }
        FleetStats {
            clock: self.clock,
            submitted: self.submitted,
            completed: self.completed,
            cached: self.cached,
            coalesced: self.coalesced,
            rejected_full: self.rejected_full,
            rejected_admission: self.rejected_admission,
            admission_warnings: self.admission_warnings,
            rejected_deadline: self.rejected_deadline,
            downgraded: self.downgraded,
            retries: self.retries,
            poisonings: self.poisonings,
            failed: self.failed,
            cancelled_deadline: self.cancelled_deadline,
            cancelled_user: self.cancelled_user,
            steals: self.steals,
            migrations: self.migrations,
            preemptions: self.preemptions,
            queue_depth: self.shards.iter().map(|s| s.queue.depth() as u64).sum(),
            queue_wait: LatencyStat::from_profiler(&merged, "fleet.queue_wait"),
            run_ticks: LatencyStat::from_profiler(&merged, "fleet.run"),
            turnaround: LatencyStat::from_profiler(&merged, "fleet.turnaround"),
            executor,
            shards: self.shards.iter().map(Shard::stat).collect(),
            tenants: self
                .tenants
                .iter()
                .map(|t| TenantRow {
                    name: t.spec.name.clone(),
                    class: t.spec.class.tag(),
                    weight: t.spec.weight,
                    pass: t.pass,
                    served_ticks: t.served_ticks,
                    submitted: t.submitted,
                    completed: t.completed,
                    hits: t.hits,
                    misses: t.misses,
                    rejected_full: t.rejected_full,
                    rejected_deadline: t.rejected_deadline,
                    downgraded: t.downgraded,
                })
                .collect(),
        }
    }

    // --- internals -----------------------------------------------------

    /// Lower bound on when *any* session in the fleet could start a new
    /// job — the provability anchor of deadline admission.
    fn earliest_start(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|sh| sh.sessions.iter())
            .map(|s| s.free_at.max(self.clock))
            .min()
            .unwrap_or(self.clock)
    }

    /// Pop shard `s`'s next entry under the fleet scheduling key:
    /// aged class-band priority first, then smallest tenant stride pass,
    /// then FIFO by sequence — a total, deterministic order.
    fn pop_scheduled(&mut self, s: usize) -> Option<Entry> {
        let clock = self.clock;
        let aging = self.cfg.aging_ticks;
        let passes: Vec<u64> = self.tenants.iter().map(|t| t.pass).collect();
        let bases: Vec<u64> = self
            .tenants
            .iter()
            .map(|t| t.spec.class.base_priority())
            .collect();
        let degraded = self.downgraded_ids.clone();
        self.shards[s].queue.pop_ready_by(clock, move |e| {
            let t = e.job.tenant as usize;
            let band = if degraded.contains(&e.id) {
                0
            } else {
                bases[t]
            };
            let aged = band
                + e.job.priority as u64
                + clock
                    .saturating_sub(e.submit_tick)
                    .checked_div(aging)
                    .unwrap_or(0);
            (aged, std::cmp::Reverse(passes[t]), std::cmp::Reverse(e.seq))
        })
    }

    /// Dispatch everything startable at the current tick: per-shard in id
    /// order, then steal, until a fixpoint. Returns whether anything ran.
    fn dispatch_round(&mut self) -> bool {
        let palette = self.cfg.palette.clone();
        let mut progressed = false;
        loop {
            let mut moved = false;
            for s in 0..self.shards.len() {
                self.shards[s].apply_resize(self.clock, &palette);
                while self.shards[s].has_free_session(self.clock) {
                    let Some(entry) = self.pop_scheduled(s) else {
                        break;
                    };
                    self.dispatch_on(s, entry);
                    moved = true;
                }
            }
            if self.cfg.steal && self.try_steal() {
                moved = true;
            }
            if !moved {
                break;
            }
            progressed = true;
        }
        progressed
    }

    /// The next virtual tick anything can happen at: a backoff edge, or
    /// a session freeing up for ready-but-blocked work.
    fn next_event(&self) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut bump = |t: u64| {
            next = Some(next.map_or(t, |n: u64| n.min(t)));
        };
        let global_free: Option<u64> = self
            .shards
            .iter()
            .flat_map(|sh| sh.sessions.iter())
            .map(|s| s.free_at)
            .filter(|t| *t > self.clock)
            .min();
        for sh in &self.shards {
            if let Some(t) = sh.queue.next_ready_after(self.clock) {
                bump(t);
            }
            if sh.queue.ready_count(self.clock) > 0 {
                // Ready work is blocked on sessions. With stealing, any
                // freeing session in the fleet can take it; pinned, only
                // this shard's own pool counts.
                let candidate = if self.cfg.steal {
                    global_free
                } else {
                    sh.sessions
                        .iter()
                        .map(|s| s.free_at)
                        .filter(|t| *t > self.clock)
                        .min()
                };
                if let Some(t) = candidate {
                    bump(t);
                }
            }
        }
        next
    }

    /// One steal: the lowest-id shard that is idle-with-capacity takes
    /// the top-ranked ready entry of the most-backlogged other shard.
    fn try_steal(&mut self) -> bool {
        let clock = self.clock;
        let Some(thief) = (0..self.shards.len()).find(|&i| {
            self.shards[i].has_free_session(clock) && self.shards[i].queue.ready_count(clock) == 0
        }) else {
            return false;
        };
        let Some(donor) = (0..self.shards.len())
            .filter(|&i| i != thief && self.shards[i].queue.ready_count(clock) > 0)
            .max_by_key(|&i| {
                (
                    self.shards[i].queue.ready_count(clock),
                    std::cmp::Reverse(i),
                )
            })
        else {
            return false;
        };
        let Some(entry) = self.pop_scheduled(donor) else {
            return false;
        };
        self.shards[donor].steals_out += 1;
        self.shards[thief].steals_in += 1;
        self.steals += 1;
        if let Some(ctx) = self.ctxs.get_mut(&entry.id) {
            ctx.stolen += 1;
        }
        self.shards[thief].queue.push_internal(entry);
        true
    }

    /// Take `entry` off shard `s`'s queue at the current tick (a session
    /// is free by the caller's invariant) and follow exactly one
    /// lifecycle edge: out of `Queued` without a session if one applies,
    /// else through `Running`.
    fn dispatch_on(&mut self, s: usize, mut entry: Entry) {
        let id = entry.id;
        let mut ctx = self
            .ctxs
            .remove(&id)
            .expect("every queued primary has a context");
        let next = match self.leave_queue(s, &entry, &mut ctx) {
            Some(edge) => edge,
            None => self.run(s, &mut entry, &mut ctx),
        };
        let home = ctx.home;
        self.ctxs.insert(id, ctx);
        match next {
            Transition::Resolved {
                outcome,
                credit,
                tick,
            } => self.resolve_primary(id, outcome, credit, tick),
            // Always the HOME queue (coalescing and cache stay
            // effective), bypassing its capacity: accepted work is never
            // dropped for lack of a slot. Stealing may carry the entry to
            // any shard, which is exactly the migration path.
            Transition::Requeued => self.shards[home].queue.push_internal(entry),
        }
    }

    /// The edges out of `Queued` that spend no session time. `None`
    /// means the entry starts running on shard `s`.
    fn leave_queue(&mut self, s: usize, entry: &Entry, ctx: &mut JobCtx) -> Option<Transition> {
        let tick = self.clock;
        if entry.token.is_cancelled() {
            return Some(Transition::Resolved {
                outcome: self.cancelled_by_user(entry.submit_tick),
                credit: s,
                tick,
            });
        }
        // A duplicate's result may have landed at home since queueing.
        if let Some(artifacts) = self.shards[ctx.home].cache.get(entry.key) {
            return Some(Transition::Resolved {
                outcome: JobOutcome::Cached {
                    artifacts,
                    wait_ticks: tick.saturating_sub(entry.submit_tick),
                },
                credit: ctx.home,
                tick,
            });
        }
        // A continuation landing on a different shard than its last slice
        // is a *migration*: the committed set travels as checkpoint bytes
        // under a sealed handoff ticket, verified before any session time
        // is spent on the restore.
        if let (Some(prev), Some(bytes)) = (ctx.last_exec_shard, entry.job.restore.as_ref()) {
            if prev != s {
                if let Err(e) = HandoffTicket::seal(prev, s, bytes).and_then(|t| t.verify(bytes)) {
                    return Some(Transition::Resolved {
                        outcome: JobOutcome::Failed {
                            reason: format!("migration handoff rejected: {e}"),
                            attempts: entry.attempts,
                        },
                        credit: s,
                        tick,
                    });
                }
                self.migrations += 1;
                ctx.migrations += 1;
            }
        }
        None
    }

    /// `Running`: one attempt of `entry` on shard `s`'s earliest-free
    /// session, charged `1 + steps` ticks, and the edge its outcome takes.
    fn run(&mut self, s: usize, entry: &mut Entry, ctx: &mut JobCtx) -> Transition {
        // Slice decision: a sliceable job whose remaining work exceeds
        // the slice gets a preemption directive. The slice is clamped up
        // to the commit interval (every slice must commit at least once)
        // and extended after a no-progress yield (mid-snapshot drill).
        let preempt = if entry.job.kind == WorkloadKind::ReactionDiffusion
            && entry.job.ckpt_interval > 0
            && self.cfg.slice_steps > 0
        {
            let slice = self.cfg.slice_steps.max(entry.job.ckpt_interval) + ctx.extend_slice;
            let remaining = cost::predict(&entry.job).steps;
            (remaining > slice).then_some(PreemptSpec {
                at_step: slice,
                mid_snapshot: entry.job.fault.mid_snapshot_preempt,
            })
        } else {
            None
        };

        let si = self.shards[s].pick_session();
        let start = self.clock;
        let inject = entry.attempts < entry.job.fault.fail_attempts;
        let palette = self.cfg.palette.clone();
        let (outcome, steps, exec) = self.shards[s].sessions[si].execute(
            &entry.job,
            entry.token.clone(),
            inject,
            &palette,
            preempt,
        );
        self.shards[s].exec_agg.absorb(&exec);
        entry.attempts += 1;
        let cost = 1 + steps;
        let finish = start + cost;
        self.shards[s].sessions[si].free_at = finish;
        self.tenants[entry.job.tenant as usize].charge(cost);
        let first_start = *ctx.first_start.get_or_insert(start);
        ctx.run_ticks += cost;
        ctx.last_exec_shard = Some(s);
        let prior_committed = ctx.committed_steps;
        let resolved = |outcome| Transition::Resolved {
            outcome,
            credit: s,
            tick: finish,
        };

        match outcome {
            RunOutcome::Done(mut artifacts) => {
                // A final slice reports only its own steps; lift the
                // count to the whole job so the sealed digest is
                // bit-identical to an unsliced, unmigrated run.
                if prior_committed > 0 {
                    artifacts.steps += prior_committed;
                    artifacts = artifacts.seal();
                }
                let artifacts = Rc::new(artifacts);
                self.shards[ctx.home]
                    .cache
                    .insert(entry.key, artifacts.clone());
                // Recorded once, here, so retried and sliced jobs are
                // never double-counted.
                let wait_ticks = first_start.saturating_sub(entry.submit_tick);
                let profiler = &self.shards[s].profiler;
                profiler.record("fleet.queue_wait", wait_ticks as f64);
                profiler.record("fleet.run", ctx.run_ticks as f64);
                profiler.record(
                    "fleet.turnaround",
                    finish.saturating_sub(entry.submit_tick) as f64,
                );
                resolved(JobOutcome::Completed {
                    artifacts,
                    wait_ticks,
                    run_ticks: ctx.run_ticks,
                    attempts: entry.attempts,
                    session: si,
                })
            }
            RunOutcome::Preempted {
                set,
                committed_steps,
            } => {
                self.preemptions += 1;
                // A yield without a usable set (or a torn boundary
                // commit) falls back to the entry's prior restore; the
                // continuation then re-executes at most `ckpt_interval`
                // steps — the bounded-migration-cost invariant.
                let (bytes, committed) = match set {
                    Some(b) => (Some(b), committed_steps),
                    None => (entry.job.restore.take(), prior_committed),
                };
                if committed <= prior_committed {
                    // No forward progress persisted: grant the next
                    // slice one extra interval so it can out-run the
                    // torn commit.
                    ctx.extend_slice += entry.job.ckpt_interval;
                } else {
                    ctx.extend_slice = 0;
                }
                ctx.committed_steps = committed;
                let total = cost::predict(&ctx.base_job).steps;
                let remaining = total.saturating_sub(committed).max(1);
                let mut cont = ctx.base_job.clone();
                cont.overrides
                    .retain(|o| !(o.instance == "cfg" && o.key == "n_steps"));
                cont.overrides
                    .push(Override::new("cfg", "n_steps", remaining as f64));
                cont.restore = if committed > 0 { bytes } else { None };
                entry.job = cont;
                entry.ready_at = finish;
                Transition::Requeued
            }
            RunOutcome::Cancelled(reason) => resolved(JobOutcome::Cancelled {
                reason,
                wait_ticks: start.saturating_sub(entry.submit_tick),
                steps: prior_committed + steps,
            }),
            RunOutcome::Failed(reason) => resolved(JobOutcome::Failed {
                reason,
                attempts: entry.attempts,
            }),
            RunOutcome::Panicked(message) => {
                self.poisonings += 1;
                self.shards[s].poisonings += 1;
                if entry.attempts <= MAX_RETRIES {
                    self.retries += 1;
                    self.shards[s].retries += 1;
                    entry.ready_at = finish + (BACKOFF_TICKS << (entry.attempts - 1));
                    Transition::Requeued
                } else {
                    resolved(JobOutcome::Failed {
                        reason: format!("panicked after {} attempts: {message}", entry.attempts),
                        attempts: entry.attempts,
                    })
                }
            }
        }
    }

    /// The outcome of a client cancellation that spent no session time.
    fn cancelled_by_user(&self, submit_tick: u64) -> JobOutcome {
        JobOutcome::Cancelled {
            reason: CancelReason::User,
            wait_ticks: self.clock.saturating_sub(submit_tick),
            steps: 0,
        }
    }

    /// The one place a submission becomes terminal: count the outcome
    /// (fleet-wide, on shard `credit`, on the tenant) and publish it.
    fn resolve(&mut self, id: JobId, tenant: u32, credit: usize, outcome: JobOutcome) {
        let shard = &mut self.shards[credit];
        let t = &mut self.tenants[tenant as usize];
        match &outcome {
            JobOutcome::Completed { .. } => {
                self.completed += 1;
                shard.completed += 1;
                t.completed += 1;
                t.misses += 1;
            }
            JobOutcome::Cached { .. } => {
                self.cached += 1;
                shard.cached += 1;
                t.hits += 1;
            }
            JobOutcome::Cancelled { reason, .. } => {
                match reason {
                    CancelReason::Deadline { .. } => self.cancelled_deadline += 1,
                    CancelReason::User => self.cancelled_user += 1,
                }
                t.misses += 1;
            }
            JobOutcome::Failed { .. } => {
                self.failed += 1;
                shard.failed += 1;
                t.misses += 1;
            }
        }
        self.tokens.remove(&id);
        self.outcomes.insert(id, outcome);
    }

    /// Terminal edge of a queued primary: resolve it, then settle the
    /// duplicates riding it at home. An answered primary (completed or
    /// cached) answers every follower from the home cache, bit-identical
    /// and literally the same artifact object; a lost one promotes the
    /// oldest live follower in its place.
    fn resolve_primary(&mut self, id: JobId, outcome: JobOutcome, credit: usize, tick: u64) {
        let ctx = &self.ctxs[&id];
        let (home, key, tenant) = (ctx.home, ctx.key, ctx.base_job.tenant);
        let answered = matches!(
            outcome,
            JobOutcome::Completed { .. } | JobOutcome::Cached { .. }
        );
        self.resolve(id, tenant, credit, outcome);
        let Some(mut fs) = self.shards[home].followers.remove(&key) else {
            return;
        };
        if answered {
            for f in fs {
                let artifacts = self.shards[home]
                    .cache
                    .get(key)
                    .expect("primary result is resident at home");
                let hit = JobOutcome::Cached {
                    artifacts,
                    wait_ticks: tick.saturating_sub(f.submit_tick),
                };
                self.resolve(f.id, f.tenant, home, hit);
            }
            return;
        }
        while !fs.is_empty() {
            let f = fs.remove(0);
            if f.token.is_cancelled() {
                let cancelled = self.cancelled_by_user(f.submit_tick);
                self.resolve(f.id, f.tenant, home, cancelled);
                continue;
            }
            // Promoted with a fresh attempt budget: duplicates never
            // inherit a failure they didn't cause.
            self.ctxs
                .insert(f.id, JobCtx::new(home, key, f.job.clone()));
            let promoted = Entry {
                id: f.id,
                seq: self.next_seq,
                key,
                job: f.job,
                submit_tick: f.submit_tick,
                ready_at: self.clock,
                attempts: 0,
                token: f.token,
            };
            self.next_seq += 1;
            self.shards[home].queue.push_internal(promoted);
            if !fs.is_empty() {
                self.shards[home].followers.insert(key, fs);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::IgnitionSpec;

    #[test]
    fn ring_routing_is_stable_and_total() {
        let ring = HashRing::new(4, 64);
        assert_eq!(ring.len(), 256);
        let key = IgnitionSpec::default().job().key();
        let home = ring.route(key);
        assert!(home < 4);
        // A freshly built identical ring routes identically.
        assert_eq!(HashRing::new(4, 64).route(key), home);
    }

    #[test]
    fn fleet_completes_caches_and_coalesces_at_home() {
        let mut fleet = Fleet::new(FleetConfig {
            shards: 3,
            ..FleetConfig::default()
        });
        let job = IgnitionSpec::default().job();
        let a = fleet.submit(job.clone()).unwrap();
        let b = fleet.submit(job.clone()).unwrap(); // coalesces
        fleet.run_until_idle();
        let c = fleet.submit(job).unwrap(); // cache hit
        let (da, db, dc) = match (
            fleet.outcome(a).unwrap(),
            fleet.outcome(b).unwrap(),
            fleet.outcome(c).unwrap(),
        ) {
            (
                JobOutcome::Completed { artifacts: x, .. },
                JobOutcome::Cached { artifacts: y, .. },
                JobOutcome::Cached { artifacts: z, .. },
            ) => (
                x.transcript_digest.clone(),
                y.transcript_digest.clone(),
                z.transcript_digest.clone(),
            ),
            other => panic!("unexpected outcomes: {other:?}"),
        };
        assert_eq!(da, db);
        assert_eq!(da, dc);
        let s = fleet.stats();
        assert_eq!(s.completed, 1);
        assert_eq!(s.cached, 2);
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn deadline_admission_rejects_provably_late_jobs() {
        let mut fleet = Fleet::new(FleetConfig::default());
        let mut job = IgnitionSpec::default().job(); // run_ticks = 5
        job.deadline = Some(2);
        match fleet.submit(job.clone()) {
            Err(SubmitError::Deadline { needed, deadline }) => {
                assert_eq!(deadline, 2);
                assert_eq!(needed, 5);
            }
            other => panic!("expected deadline rejection, got {other:?}"),
        }
        // Downgrade policy accepts the same job as scavenger traffic.
        job.on_late = LatePolicy::Downgrade;
        job.priority = 7;
        let id = fleet.submit(job).unwrap();
        fleet.run_until_idle();
        assert!(matches!(
            fleet.outcome(id),
            Some(JobOutcome::Completed { .. })
        ));
        let s = fleet.stats();
        assert_eq!(s.rejected_deadline, 1);
        assert_eq!(s.downgraded, 1);
        // A reachable deadline is admitted untouched.
        let mut fine = IgnitionSpec {
            t0: 1077.0,
            ..IgnitionSpec::default()
        }
        .job();
        fine.deadline = Some(50);
        fleet.submit(fine).unwrap();
    }

    #[test]
    fn idle_shards_steal_ready_work() {
        // One home shard gets every job (distinct scripts, but we force
        // imbalance by submitting more work than one pool can start);
        // with stealing on, other shards must pick some of it up.
        let mut fleet = Fleet::new(FleetConfig {
            shards: 4,
            sessions_per_shard: 1,
            queue_capacity: 64,
            ..FleetConfig::default()
        });
        for i in 0..12 {
            let job = IgnitionSpec {
                t0: 1000.0 + i as f64,
                ..IgnitionSpec::default()
            }
            .job();
            fleet.submit(job).unwrap();
        }
        fleet.run_until_idle();
        let s = fleet.stats();
        assert_eq!(s.completed, 12);
        // Jobs spread across several homes, and total served work must
        // involve more than one shard regardless of the routing split.
        let active = s.shards.iter().filter(|sh| sh.completed > 0).count();
        assert!(active > 1, "work never spread beyond one shard");
    }
}
