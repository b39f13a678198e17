//! The end-to-end run of one workload, tracing off: set-up (several times,
//! each in a fresh process), timed reps for the requested number of
//! seconds, then the correctness checks.

use crate::json::Json;
use crate::metrics::Measured;
use crate::reference;
use crate::stats::median;
use crate::sysinfo;
use crate::workloads::{self, RepOutput, RepPlan, Wiring, Workload};
use std::process::Command;
use std::time::Instant;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long the timed phase measures, s.
    pub seconds: f64,
    /// Fixed rep count instead of a duration.
    pub reps: Option<usize>,
    /// Tiny sizes, one set-up, no reference pins.
    pub smoke: bool,
}

/// A named pass/fail with the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Did it hold?
    pub ok: bool,
    /// The evidence (numbers compared, first violation).
    pub detail: String,
}

impl Check {
    /// Build a check.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    /// Result-file form.
    pub fn json(&self) -> Json {
        Json::obj()
            .with("name", self.name.as_str())
            .with("ok", self.ok)
            .with("detail", self.detail.as_str())
    }
}

/// Outcome of one run (either pass): metrics, op counts, checks.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// The metrics, in registry order.
    pub metrics: Vec<Measured>,
    /// Operations attempted across all reps.
    pub attempted: u64,
    /// Operations failed, plus one per failed run-level check.
    pub failed: u64,
    /// Every check made.
    pub checks: Vec<Check>,
    /// Informational lines (reference drift, trace file paths).
    pub notes: Vec<String>,
    /// Exact counters of the last rep.
    pub counts: Vec<(String, f64)>,
}

impl RunReport {
    /// No op failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last output line the driver reads.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(&m.name, m.contract_json());
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }

    /// Everything, for result files and `compare`.
    pub fn detail_json(&self) -> Json {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            metrics.set(&m.name, m.detail_json());
        }
        let mut counts = Json::obj();
        for (name, value) in &self.counts {
            counts.set(name, *value);
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("fail_ratio", self.fail_ratio())
            .with("metrics", metrics)
            .with("counts", counts)
            .with(
                "checks",
                self.checks.iter().map(Check::json).collect::<Vec<_>>(),
            )
            .with(
                "notes",
                self.notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect::<Vec<_>>(),
            )
    }

    /// Human-readable report: one line per metric, then the checks.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("{}", m.line(workload));
        }
        println!(
            "{:<46} {:<18} {:>16.6e} {:<8} failed={} attempted={}",
            "fail_ratio",
            workload,
            self.fail_ratio(),
            "ratio",
            self.failed,
            self.attempted
        );
        for c in &self.checks {
            println!(
                "check {:<40} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        for n in &self.notes {
            println!("note  {n}");
        }
    }
}

/// Fewest timed reps a run reports a median of.
const MIN_REPS: usize = 3;
/// Most timed reps, however long the run is asked to be.
const MAX_REPS: usize = 200;
/// Set-ups of a run whose reps share a process (that process plus fresh
/// children).
const SETUPS: usize = 3;

/// How many timed reps a run of `seconds` makes. The count comes from the
/// workload's *nominal* rep time, not from the speed measured on the day:
/// two commits are then compared on the same number of reps, and — since
/// every component assembly retains memory from one rep to the next —
/// `peak_rss_mb` is read after the same number of reps on both.
pub fn planned_reps(opts: &RunOptions, plan: &RepPlan) -> usize {
    if let Some(k) = opts.reps {
        return k.clamp(1, MAX_REPS);
    }
    if opts.smoke {
        return MIN_REPS;
    }
    ((opts.seconds / plan.nominal_seconds).ceil() as usize).clamp(MIN_REPS, MAX_REPS)
}

/// One rep measured in a process of its own.
pub struct ProbedRep {
    /// Process start to the end of the rep (input generation + the rep).
    pub setup_s: f64,
    /// The rep alone.
    pub wall_s: f64,
    /// Process CPU seconds of the rep.
    pub cpu_s: f64,
    /// `VmHWM` of the process after the rep, MiB.
    pub hwm_mib: f64,
    /// What the rep produced (without bulk output).
    pub out: RepOutput,
}

impl ProbedRep {
    /// Generate the inputs and run one rep in *this* process, which must
    /// not have run one before.
    pub fn measure(
        opts: &RunOptions,
        process_start: Instant,
    ) -> Result<(Workload, ProbedRep), String> {
        let workload = Workload::generate(&opts.workload, opts.seed, opts.smoke)?;
        let cpu0 = sysinfo::process_cpu_seconds();
        let t0 = Instant::now();
        let out = workload.rep(Wiring::Plain, false);
        let probed = ProbedRep {
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: sysinfo::process_cpu_seconds() - cpu0,
            setup_s: process_start.elapsed().as_secs_f64(),
            hwm_mib: sysinfo::peak_rss_mib(),
            out,
        };
        Ok((workload, probed))
    }

    /// The line a `rep-probe` child prints.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("setup_s", self.setup_s)
            .with("wall_s", self.wall_s)
            .with("cpu_s", self.cpu_s)
            .with("hwm_mib", self.hwm_mib)
            .with("out", self.out.to_json())
    }

    fn from_json(doc: &Json) -> Option<ProbedRep> {
        let num = |key: &str| doc.get(key).and_then(Json::as_f64);
        Some(ProbedRep {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            cpu_s: num("cpu_s")?,
            hwm_mib: num("hwm_mib")?,
            out: RepOutput::from_json(doc.get("out")?)?,
        })
    }

    /// Run `rep-probe` in a fresh process and read its line back.
    fn in_child(opts: &RunOptions) -> Result<ProbedRep, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["rep-probe", "--workload", &opts.workload])
            .args(["--seed", &opts.seed.to_string()]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child and reaps it.
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start a rep probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "rep probe exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|doc| ProbedRep::from_json(&doc))
            .ok_or_else(|| "rep probe printed no result".to_string())
    }
}

/// The end-to-end pass of one workload.
pub fn run_end_to_end(opts: &RunOptions, process_start: Instant) -> Result<RunReport, String> {
    let plan = workloads::rep_plan(&opts.workload)?;
    let timed_reps = planned_reps(opts, &plan);
    let mut reps: Vec<RepOutput> = Vec::new();
    let (mut setups, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let peak_rss;
    // The workload this process generated, if it ran reps itself.
    let mut own_workload = None;
    if plan.isolated {
        // Every rep in a process of its own, one at a time: each is a
        // set-up sample and a timed sample at once.
        let mut peaks = Vec::new();
        for _ in 0..timed_reps {
            let probed = ProbedRep::in_child(opts)?;
            setups.push(probed.setup_s);
            walls.push(probed.wall_s);
            cpus.push(probed.cpu_s);
            peaks.push(probed.hwm_mib);
            reps.push(probed.out);
        }
        peak_rss = Measured::median_of("peak_rss_mb", "MiB", &peaks);
    } else {
        // Set-up children first, one at a time: this process is idle while
        // they run, and its own set-up then starts from the same warm page
        // cache. Their outputs join the bit-identity check.
        if !opts.smoke {
            for _ in 1..SETUPS {
                let probed = ProbedRep::in_child(opts)?;
                setups.push(probed.setup_s);
                reps.push(probed.out);
            }
        }
        let own_start = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let (workload, cold) = ProbedRep::measure(opts, own_start)?;
        setups.push(cold.setup_s);
        reps.push(cold.out);
        for _ in 0..timed_reps {
            let cpu0 = sysinfo::process_cpu_seconds();
            let t0 = Instant::now();
            let out = workload.rep(Wiring::Plain, false);
            walls.push(t0.elapsed().as_secs_f64());
            cpus.push(sysinfo::process_cpu_seconds() - cpu0);
            // Only the latest rep keeps its bulk output (compared below).
            if let Some(previous) = reps.last_mut() {
                previous.sweep = None;
            }
            reps.push(out);
        }
        peak_rss = Measured::single("peak_rss_mb", "MiB", sysinfo::peak_rss_mib());
        own_workload = Some(workload);
    }

    let mut report = RunReport::default();
    check_reps(&reps, &mut report);
    let last = &reps[reps.len() - 1];
    cross_check(own_workload.as_ref(), last, &mut report);
    if opts.seed == 0 && !opts.smoke {
        reference::compare(&opts.workload, &last.scalars, &mut report);
    }
    report.failed += report.checks.iter().filter(|c| !c.ok).count() as u64;
    report.counts = last.counts.clone();

    let work = last.work;
    let wall = Measured::median_of("wall_s", "s", &walls);
    // CPU time is read in 10 ms ticks, 0.4–1 % of a rep: a median of tick
    // counts would move in steps, and a mean would follow the odd rep that
    // the kernel charges a burst of page faults to. The per-rep CPU/wall
    // ratios are continuous; their median times the median wall is neither.
    let utilisation: Vec<f64> = cpus.iter().zip(&walls).map(|(c, w)| c / w).collect();
    let mut cpu = Measured::median_of("cpu_s", "s", &cpus);
    cpu.value = median(&utilisation) * wall.value;
    let rates: Vec<f64> = walls.iter().map(|w| work / w).collect();
    let mut rate = Measured::median_of("work_per_s", "1/s", &rates);
    rate.value = work / wall.value;
    report.metrics = vec![
        Measured::median_of("setup_s", "s", &setups),
        wall,
        cpu,
        rate,
        peak_rss,
    ];
    Ok(report)
}

/// Per-rep invariants, op counts, and bit-identity across the reps.
pub fn check_reps(reps: &[RepOutput], report: &mut RunReport) {
    for out in reps {
        report.attempted += out.ops;
        report.failed += out.failed_ops;
    }
    let problems: Vec<&String> = reps.iter().flat_map(|r| &r.problems).collect();
    report.checks.push(Check::new(
        "invariants hold on every rep",
        problems.is_empty(),
        match problems.first() {
            Some(p) => format!("{} violations, first: {p}", problems.len()),
            None => format!("{} reps", reps.len()),
        },
    ));
    let first = reps[0].digest;
    let differing = reps.iter().filter(|r| r.digest != first).count();
    report.checks.push(Check::new(
        "results bit-identical across reps",
        differing == 0,
        format!(
            "digest {first:016x}, {differing} of {} reps differ",
            reps.len()
        ),
    ));
}

/// The cross-path check that fits inside an end-to-end run: for the cell
/// sweep, the direct library path must do the same work and reach the
/// same states. (P = 1 vs P = 2 and 1 vs 2 shards cost a whole extra run
/// each and live in the traced pass.)
fn cross_check(workload: Option<&Workload>, last: &RepOutput, report: &mut RunReport) {
    let (Some(Workload::Ignition(inputs)), Some(component)) = (workload, &last.sweep) else {
        return;
    };
    let direct = workloads::ignition_cells_direct(inputs);
    let bad = workloads::ignition_mismatches(component, &direct);
    report.checks.push(Check::new(
        "component path = direct path (NFE equal, states within 1e-12)",
        bad == 0 && direct.failed == 0,
        format!("{bad} of {} cells differ", inputs.t0.len()),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digest: u64, problems: &[&str], failed_ops: u64) -> RepOutput {
        RepOutput {
            digest,
            ops: 10,
            failed_ops,
            problems: problems.iter().map(|p| p.to_string()).collect(),
            ..RepOutput::default()
        }
    }

    #[test]
    fn a_clean_run_is_correct_and_counts_its_ops() {
        let mut report = RunReport::default();
        check_reps(&[rep(7, &[], 0), rep(7, &[], 0)], &mut report);
        assert!(report.correct());
        assert_eq!((report.attempted, report.failed), (20, 0));
        assert_eq!(report.fail_ratio(), 0.0);
        let line = Json::parse(&report.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(20.0));
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        // Differing digests.
        let mut report = RunReport::default();
        check_reps(&[rep(7, &[], 0), rep(8, &[], 0)], &mut report);
        assert!(!report.correct());
        assert!(report
            .checks
            .iter()
            .any(|c| !c.ok && c.name.contains("bit-identical")));
        // A violated invariant.
        let mut report = RunReport::default();
        check_reps(&[rep(7, &["rho_min <= 0"], 1)], &mut report);
        assert!(!report.correct());
        assert_eq!(report.failed, 1);
        assert!(report.fail_ratio() > 0.0);
        let line = Json::parse(&report.contract_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
