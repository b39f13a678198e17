//! Deadline-aware admission: predicting a job's virtual-clock runtime
//! from its script alone — chunk or step count, step budget — before
//! any session is spent on it.
//!
//! The virtual-tick prediction is *exact*: the scheduler charges
//! `1 + macro steps` per attempt, and the macro-step count of both
//! workloads is a pure function of script parameters (`chunks`,
//! `n_steps`) and the step budget. That exactness is what makes deadline
//! rejection **provable**: if even the globally earliest-free session
//! cannot finish the job by its deadline, no schedule can — work
//! stealing included — so the fleet refuses (or degrades) the job
//! instead of letting it rot in a queue it can never leave in time.
//!
//! Ticks are all admission uses. Nothing here estimates wall seconds:
//! no throughput figure has been fitted to a measured run.

use crate::job::{canonical_script, SimJob, WorkloadKind};

/// What to do with a job whose deadline is provably unreachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LatePolicy {
    /// Refuse it at admission with a typed error (the default).
    #[default]
    Reject,
    /// Accept it degraded: the deadline is dropped and the job demoted
    /// to priority 0 — it runs as scavenger traffic.
    Downgrade,
}

/// A job's predicted cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostPrediction {
    /// Macro steps the job will execute (budget-clamped).
    pub steps: u64,
    /// Virtual ticks one uninterrupted attempt costs (`1 + steps`) —
    /// exact, because the dispatcher charges the same formula.
    pub run_ticks: u64,
}

/// The value the run will see for `parameter cfg <key>`: the workload
/// default (kept in lockstep with `workload::run_ignition` / `run_rd`),
/// then the script's lines, then the overrides — they apply after the
/// script, so the last writer wins.
fn cfg_param(job: &SimJob, key: &str, default: f64) -> f64 {
    let mut value = default;
    for line in canonical_script(&job.script).lines() {
        let mut tok = line.split(' ');
        if (tok.next(), tok.next(), tok.next()) != (Some("parameter"), Some("cfg"), Some(key)) {
            continue;
        }
        if let Some(Ok(v)) = tok.next().map(str::parse::<f64>) {
            value = v;
        }
    }
    for o in &job.overrides {
        if o.instance == "cfg" && o.key == key {
            value = o.value;
        }
    }
    value
}

/// Predict the cost of one uninterrupted run of `job`.
pub fn predict(job: &SimJob) -> CostPrediction {
    let (key, default) = match job.kind {
        WorkloadKind::Ignition0d => ("chunks", 4.0),
        WorkloadKind::ReactionDiffusion => ("n_steps", 2.0),
    };
    // A restored leg only runs the steps its own script asks for —
    // `n_steps`/`chunks` already describe the leg, not the original
    // submission — so no further adjustment is needed here.
    let natural_steps = (cfg_param(job, key, default) as u64).max(1);
    let steps = match job.step_budget {
        Some(b) => natural_steps.min(b),
        None => natural_steps,
    };
    CostPrediction {
        steps,
        run_ticks: 1 + steps,
    }
}

/// Is the deadline provably unreachable? `earliest_start` must be a
/// lower bound on when *any* session in the whole fleet could start
/// the job (work stealing cannot beat the globally earliest-free
/// session). Returns the needed completion tick when it proves
/// lateness, `None` when the deadline is (at least in principle)
/// reachable.
pub fn provably_late(job: &SimJob, earliest_start: u64, deadline_abs: u64) -> Option<u64> {
    let needed = earliest_start + predict(job).run_ticks;
    (needed > deadline_abs).then_some(needed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{IgnitionSpec, RdSpec};

    #[test]
    fn tick_prediction_matches_the_dispatcher_charge_exactly() {
        let ign = IgnitionSpec {
            chunks: 7,
            ..IgnitionSpec::default()
        }
        .job();
        assert_eq!(predict(&ign).run_ticks, 8);
        let rd = RdSpec {
            n_steps: 12,
            ..RdSpec::default()
        }
        .job();
        assert_eq!(predict(&rd).run_ticks, 13);
        // Budget clamps the charge, exactly as StepCtl clamps the run.
        let mut budgeted = rd;
        budgeted.step_budget = Some(3);
        assert_eq!(predict(&budgeted).run_ticks, 4);
    }

    #[test]
    fn overrides_shift_the_prediction() {
        let mut rd = RdSpec {
            n_steps: 2,
            ..RdSpec::default()
        }
        .job();
        rd.overrides
            .push(crate::job::Override::new("cfg", "n_steps", 9.0));
        assert_eq!(predict(&rd).steps, 9);
    }

    #[test]
    fn provable_lateness_is_a_lower_bound_test() {
        let job = IgnitionSpec {
            chunks: 4,
            ..IgnitionSpec::default()
        }
        .job(); // run_ticks = 5
        assert_eq!(provably_late(&job, 10, 14), Some(15));
        assert_eq!(provably_late(&job, 10, 15), None);
    }
}
