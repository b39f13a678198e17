//! Framework sessions: the worker slots jobs execute on.
//!
//! A session is a logical slot in the pool. It keeps a *warm* pre-built
//! framework so dispatch does not pay palette construction on the
//! critical path; every job nevertheless runs on a pristine framework
//! (instance names are script-chosen, so frameworks cannot be shared
//! between jobs — and pristine state is what makes reruns bit-identical).
//! A panicking job *poisons* the session: the dirty framework is
//! discarded wholesale, the epoch increments, and the slot is rebuilt
//! before it accepts the next job — poisoned state is never reused.

use crate::cache::Artifacts;
use crate::job::SimJob;
use cca_core::{ExecutorStats, Framework};
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Factory producing a fresh framework pre-loaded with the palette the
/// fleet executes against.
pub type PaletteFn = Rc<dyn Fn() -> Framework>;

/// Why a job stopped before reaching its natural end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The macro-step budget (deadline) was exhausted.
    Deadline {
        /// The budget that ran out.
        budget: u64,
    },
    /// The client cancelled through its token.
    User,
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::Deadline { budget } => write!(f, "deadline (step budget {budget})"),
            CancelReason::User => write!(f, "cancelled by client"),
        }
    }
}

/// Shared cooperative cancellation flag: the client holds one end, the
/// stepper polls the other between macro steps.
#[derive(Clone, Default)]
pub struct CancelToken(Rc<Cell<bool>>);

impl CancelToken {
    /// Fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; the stepper honors it at its next step edge.
    pub fn cancel(&self) {
        self.0.set(true);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.get()
    }
}

/// Why a stepper must stop at a step edge: a cooperative cancellation
/// (deadline/client) or a scheduler preemption (the slice the fleet
/// granted this attempt is over — checkpoint and yield the session).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepSignal {
    /// Stop for good: deadline exhausted or client cancelled.
    Cancel(CancelReason),
    /// Stop *for now*: commit the latest periodic set and yield; the
    /// scheduler re-queues a continuation that resumes from it.
    Preempt,
}

/// Scheduler preemption directive for one attempt: run at most `at_step`
/// macro steps, then yield. `mid_snapshot` models the unlucky timing
/// where the preemption lands while the boundary snapshot is still being
/// written — the torn set is discarded and the continuation falls back
/// to the *prior* committed set (re-executing at most `ckpt_interval`
/// steps, which is exactly the bounded-migration-cost invariant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PreemptSpec {
    /// Macro steps this attempt may execute before yielding.
    pub at_step: u64,
    /// Treat a commit landing exactly on the yield step as torn.
    pub mid_snapshot: bool,
}

/// Per-attempt step controller handed to the stepper: enforces the step
/// budget, polls the cancel token, counts steps, carries the preemption
/// directive, and hosts the fault-injection hook. All deterministic — no
/// wall clocks anywhere.
pub struct StepCtl {
    token: CancelToken,
    budget: Option<u64>,
    steps: Cell<u64>,
    /// `Some(step)` — panic at the start of that 1-based step.
    inject_panic_at: Option<u64>,
    preempt: Option<PreemptSpec>,
}

impl StepCtl {
    /// Controller for one attempt.
    pub fn new(token: CancelToken, budget: Option<u64>, inject_panic_at: Option<u64>) -> Self {
        StepCtl {
            token,
            budget,
            steps: Cell::new(0),
            inject_panic_at,
            preempt: None,
        }
    }

    /// Arm a scheduler preemption directive on this attempt.
    pub fn with_preempt(mut self, preempt: Option<PreemptSpec>) -> Self {
        self.preempt = preempt;
        self
    }

    /// The preemption directive, if armed (steppers that support
    /// checkpointing read `mid_snapshot` from here).
    pub fn preempt_spec(&self) -> Option<PreemptSpec> {
        self.preempt
    }

    /// Called by the stepper at the top of every macro step. `Err` means
    /// stop *before* doing the step's work; on `Ok` the step is counted.
    pub fn begin_step(&self) -> Result<(), StepSignal> {
        if self.token.is_cancelled() {
            return Err(StepSignal::Cancel(CancelReason::User));
        }
        let done = self.steps.get();
        if let Some(b) = self.budget {
            if done >= b {
                return Err(StepSignal::Cancel(CancelReason::Deadline { budget: b }));
            }
        }
        if let Some(p) = self.preempt {
            if done >= p.at_step {
                return Err(StepSignal::Preempt);
            }
        }
        let next = done + 1;
        if self.inject_panic_at == Some(next) {
            panic!("injected transient fault at step {next}");
        }
        self.steps.set(next);
        Ok(())
    }

    /// Macro steps executed so far this attempt.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }
}

/// What one attempt on a session produced.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Natural completion.
    Done(Artifacts),
    /// Cooperative stop (deadline or client cancel).
    Cancelled(CancelReason),
    /// Deterministic failure (bad script, solver error) — not retried.
    Failed(String),
    /// The job panicked; the session is poisoned and rebuilt.
    Panicked(String),
    /// The scheduler's slice ran out: the attempt yielded cooperatively,
    /// handing back the last committed component set so a continuation
    /// can resume from it (possibly on another shard).
    Preempted {
        /// Serialized `cca_ckpt::ComponentSet` of the last commit;
        /// `None` if the slice ended before the first commit (the
        /// continuation then restarts from the initial condition).
        set: Option<Vec<u8>>,
        /// Absolute macro steps covered by `set` (0 when `None`).
        committed_steps: u64,
    },
}

/// One slot in the session pool.
pub struct Session {
    /// Stable slot index.
    pub id: usize,
    /// Incremented every time the slot is rebuilt after a poisoning.
    pub epoch: u64,
    /// Jobs attempted on this slot (all epochs).
    pub runs: u64,
    /// Virtual tick at which the slot next becomes free.
    pub free_at: u64,
    warm: Framework,
}

impl Session {
    /// Build slot `id` with a warm framework from `palette`.
    pub fn new(id: usize, palette: &PaletteFn) -> Self {
        Session {
            id,
            epoch: 0,
            runs: 0,
            free_at: 0,
            warm: palette(),
        }
    }

    /// Execute one attempt of `job` on this slot, with an optional
    /// preemption slice armed (long jobs; the attempt may then end in
    /// [`RunOutcome::Preempted`]).
    ///
    /// Returns the outcome, the number of macro steps the attempt
    /// executed (its deterministic virtual-time cost), and the patch-
    /// executor counters of the framework the attempt ran on.
    pub fn execute(
        &mut self,
        job: &SimJob,
        token: CancelToken,
        inject_fault: bool,
        palette: &PaletteFn,
        preempt: Option<PreemptSpec>,
    ) -> (RunOutcome, u64, ExecutorStats) {
        // Take the warm framework and immediately re-warm the slot, so the
        // slot is whole again no matter how this attempt ends.
        let mut fw = std::mem::replace(&mut self.warm, palette());
        let armed = inject_fault && job.fault.fail_attempts > 0;
        let ctl = StepCtl::new(
            token,
            job.step_budget,
            armed.then_some(job.fault.panic_at_step),
        )
        .with_preempt(preempt);
        // An armed injection is *expected* to panic — keep its backtrace
        // off stderr. Genuine panics keep the default hook and print.
        let prev_hook = if armed {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            Some(prev)
        } else {
            None
        };
        let outcome = {
            let fw_ref = &mut fw;
            let ctl_ref = &ctl;
            match catch_unwind(AssertUnwindSafe(move || run_attempt(fw_ref, job, ctl_ref))) {
                Ok(Ok(artifacts)) => RunOutcome::Done(artifacts),
                Ok(Err(StepError::Cancelled(reason))) => RunOutcome::Cancelled(reason),
                Ok(Err(StepError::Failed(message))) => RunOutcome::Failed(message),
                Ok(Err(StepError::Preempted {
                    set,
                    committed_steps,
                })) => RunOutcome::Preempted {
                    set,
                    committed_steps,
                },
                Err(payload) => {
                    // Poisoned: never reuse anything from this epoch.
                    self.epoch += 1;
                    RunOutcome::Panicked(panic_message(payload))
                }
            }
        };
        if let Some(prev) = prev_hook {
            std::panic::set_hook(prev);
        }
        self.runs += 1;
        let exec = fw.executor().stats();
        (outcome, ctl.steps(), exec)
    }
}

/// Stepper-level error: a cooperative stop, a scheduler preemption, or a
/// hard failure.
pub(crate) enum StepError {
    Cancelled(CancelReason),
    Failed(String),
    Preempted {
        set: Option<Vec<u8>>,
        committed_steps: u64,
    },
}

fn run_attempt(fw: &mut Framework, job: &SimJob, ctl: &StepCtl) -> Result<Artifacts, StepError> {
    cca_core::script::run_script(fw, &job.script)
        .map_err(|e| StepError::Failed(format!("assembly failed: {e}")))?;
    for o in &job.overrides {
        fw.set_parameter(&o.instance, &o.key, o.value)
            .map_err(|e| {
                StepError::Failed(format!("override {}.{} failed: {e}", o.instance, o.key))
            })?;
    }
    crate::workload::execute(job, fw, ctl)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_ctl_enforces_budget_exactly() {
        let ctl = StepCtl::new(CancelToken::new(), Some(3), None);
        for _ in 0..3 {
            ctl.begin_step().unwrap();
        }
        assert_eq!(
            ctl.begin_step().unwrap_err(),
            StepSignal::Cancel(CancelReason::Deadline { budget: 3 })
        );
        assert_eq!(ctl.steps(), 3);
    }

    #[test]
    fn step_ctl_honors_cancellation() {
        let token = CancelToken::new();
        let ctl = StepCtl::new(token.clone(), None, None);
        ctl.begin_step().unwrap();
        token.cancel();
        assert_eq!(
            ctl.begin_step().unwrap_err(),
            StepSignal::Cancel(CancelReason::User)
        );
        assert_eq!(ctl.steps(), 1);
    }

    #[test]
    fn step_ctl_preempts_at_the_slice_boundary() {
        let ctl =
            StepCtl::new(CancelToken::new(), Some(10), None).with_preempt(Some(PreemptSpec {
                at_step: 2,
                mid_snapshot: false,
            }));
        ctl.begin_step().unwrap();
        ctl.begin_step().unwrap();
        assert_eq!(ctl.begin_step().unwrap_err(), StepSignal::Preempt);
        assert_eq!(ctl.steps(), 2);
        // Cancellation outranks preemption at the same edge.
        let token = CancelToken::new();
        let ctl = StepCtl::new(token.clone(), None, None).with_preempt(Some(PreemptSpec {
            at_step: 0,
            mid_snapshot: false,
        }));
        token.cancel();
        assert_eq!(
            ctl.begin_step().unwrap_err(),
            StepSignal::Cancel(CancelReason::User)
        );
    }

    #[test]
    fn fault_hook_panics_at_the_requested_step() {
        let ctl = StepCtl::new(CancelToken::new(), None, Some(2));
        ctl.begin_step().unwrap();
        let err = catch_unwind(AssertUnwindSafe(|| ctl.begin_step())).unwrap_err();
        assert!(panic_message(err).contains("injected transient fault at step 2"));
    }
}
