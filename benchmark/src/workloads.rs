//! The six workloads: input generation from the seed, one *rep* (a fresh
//! framework, script assembly, run to completion through the public entry
//! point) and the per-rep invariants.

use crate::json::Json;
use crate::proxy;
use crate::span;
use crate::stats::{seed_unit, Digest, SplitMix64};
use cca_apps::ignition0d::{ignition_framework, ignition_script};
use cca_apps::reaction_diffusion::{
    rd_framework, rd_script, run_reaction_diffusion, RdConfig, RdReport,
};
use cca_apps::samr::{run_samr, SamrConfig, SamrResult};
use cca_apps::shock_interface::{
    run_shock_interface, shock_framework, shock_script, FluxChoice, ShockConfig, ShockReport,
};
use cca_chem::systems::ConstantVolumeIgnition;
use cca_chem::thermo::Mixture;
use cca_comm::ClusterModel;
use cca_components::ports::{ChemistrySourcePort, OdeIntegratorPort, OdeRhsPort};
use cca_core::script::run_script;
use cca_core::{Framework, ParameterPort, TimerStat};
use cca_serve::loadgen::{
    fleet_request_stream, run_fleet_loadgen, FleetLoadgenConfig, FleetLoadgenReport,
};
use cca_solvers::{Bdf, BdfConfig};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// Workload names, in the order `all` runs them.
pub const NAMES: [&str; 6] = [
    "ignition0d_cells",
    "flame_samr",
    "diffusion_uniform",
    "shock_samr",
    "dist_samr_p2",
    "fleet_mixed",
];

/// Standard atmosphere, Pa.
const P_ATM: f64 = 101_325.0;

/// How a component assembly is wired for a rep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// The script as the application publishes it, run through the public
    /// `run_*` entry point — what the end-to-end metrics time.
    Plain,
    /// Timing proxies spliced onto the ports (traced pass only).
    Proxied,
}

/// Inputs of the Table 4 cell sweep.
#[derive(Clone, Debug)]
pub struct IgnitionInputs {
    /// Initial temperature of every cell, K.
    pub t0: Vec<f64>,
    /// Integration length, s.
    pub t_end: f64,
}

/// One generated workload: everything a rep needs, made from the seed.
#[derive(Clone, Debug)]
pub enum Workload {
    /// Table 4: many cells through the Fig. 1 assembly.
    Ignition(IgnitionInputs),
    /// §4.2 flame with chemistry on two levels, two executor workers.
    Flame(RdConfig),
    /// §4.2 diffusion only on one uniform level, one worker.
    Diffusion(RdConfig),
    /// §4.3 / Fig. 7 shock–interface run on three levels.
    Shock(ShockConfig),
    /// Distributed SAMR at two ranks with periodic snapshots.
    Dist(SamrConfig),
    /// Multi-tenant fleet load generator on two shards.
    Fleet(FleetLoadgenConfig),
}

/// What one rep produced.
#[derive(Clone, Debug, Default)]
pub struct RepOutput {
    /// Digest of every output bit; reps of one run must agree on it.
    pub digest: u64,
    /// The deterministic work count `W` of `work_per_s`.
    pub work: f64,
    /// Operations attempted (the unit is the workload's: cell, rep, job).
    pub ops: u64,
    /// Operations that failed.
    pub failed_ops: u64,
    /// Violated invariants, one line each.
    pub problems: Vec<String>,
    /// Named output scalars (compared with `reference.json` at seed 0).
    pub scalars: Vec<(String, f64)>,
    /// Exact counters the run returned (messages, steals, NFE, …).
    pub counts: Vec<(String, f64)>,
    /// Profiler timers, when the rep ran with the profiler on.
    pub profile: Vec<(String, TimerStat)>,
    /// The cell sweep behind an `ignition0d_cells` rep, for the
    /// cell-by-cell comparison with the direct path.
    pub sweep: Option<Box<CellSweep>>,
}

impl RepOutput {
    fn failed(message: String) -> RepOutput {
        RepOutput {
            ops: 1,
            failed_ops: 1,
            problems: vec![message],
            ..RepOutput::default()
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Value of a named counter.
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of a named output scalar.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// What a rep run in a child process sends home: everything but the
    /// bulk output and the profile. Floats travel as their bit patterns,
    /// so the parent compares exactly what the child computed.
    pub fn to_json(&self) -> Json {
        let pairs = |items: &[(String, f64)]| {
            let mut doc = Json::obj();
            for (name, value) in items {
                doc.set(name, format!("{:016x}", value.to_bits()));
            }
            doc
        };
        Json::obj()
            .with("digest", format!("{:016x}", self.digest))
            .with("work", format!("{:016x}", self.work.to_bits()))
            .with("ops", self.ops)
            .with("failed_ops", self.failed_ops)
            .with(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("scalars", pairs(&self.scalars))
            .with("counts", pairs(&self.counts))
    }

    /// Inverse of [`RepOutput::to_json`].
    pub fn from_json(doc: &Json) -> Option<RepOutput> {
        let hex = |j: &Json| u64::from_str_radix(j.as_str()?, 16).ok();
        let pairs = |key: &str| -> Option<Vec<(String, f64)>> {
            doc.get(key)?
                .entries()
                .iter()
                .map(|(name, bits)| Some((name.clone(), f64::from_bits(hex(bits)?))))
                .collect()
        };
        Some(RepOutput {
            digest: hex(doc.get("digest")?)?,
            work: f64::from_bits(hex(doc.get("work")?)?),
            ops: doc.get("ops")?.as_f64()? as u64,
            failed_ops: doc.get("failed_ops")?.as_f64()? as u64,
            problems: doc
                .get("problems")?
                .items()
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            scalars: pairs("scalars")?,
            counts: pairs("counts")?,
            ..RepOutput::default()
        })
    }
}

fn named(items: &[(&str, f64)]) -> Vec<(String, f64)> {
    items.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

/// How the end-to-end pass schedules a workload's reps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RepPlan {
    /// Wall of one rep at full size on the build host at the commit that
    /// introduced the benchmark, s. Only ever used to turn `--seconds`
    /// into a rep count; it is not a measurement.
    pub nominal_seconds: f64,
    /// Must every rep run in a process of its own?
    pub isolated: bool,
}

/// The rep plan of a workload, by name.
///
/// Only the fleet is isolated: it retains ≈ 150 MB per load-generator run
/// (sessions' frameworks are never freed), and on the build host a process
/// slows by ≈ 30 % once ≈ 900 MB are resident, so in-process rep 5 would
/// be timed in a different regime than rep 2. The other component
/// workloads retain 1–10 MB per rep, which a run of ten reps does not
/// notice. An isolated rep's nominal time is the whole process:
/// generation, the rep, teardown.
pub fn rep_plan(name: &str) -> Result<RepPlan, String> {
    let (nominal_seconds, isolated) = match name {
        "ignition0d_cells" => (1.0, false),
        "flame_samr" => (2.0, false),
        "diffusion_uniform" => (2.3, false),
        "shock_samr" => (1.35, false),
        "dist_samr_p2" => (1.4, false),
        "fleet_mixed" => (2.5, true),
        other => return Err(unknown_workload(other)),
    };
    Ok(RepPlan {
        nominal_seconds,
        isolated,
    })
}

fn unknown_workload(name: &str) -> String {
    format!("unknown workload '{name}' (known: {})", NAMES.join(", "))
}

/// Stoichiometric H₂–air for an `n`-species table (H2, O2 first; N2 last).
pub fn stoichiometric(n: usize) -> Vec<f64> {
    let (wh, wo, wn) = (2.0 * 2.016, 31.998, 3.76 * 28.014);
    let total = wh + wo + wn;
    let mut y = vec![0.0; n];
    y[0] = wh / total;
    y[1] = wo / total;
    y[n - 1] = wn / total;
    y
}

impl Workload {
    /// Generate the named workload from `seed`. `smoke` shrinks every size
    /// so the whole suite runs in seconds (no bounds apply to it).
    pub fn generate(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
        let u = seed_unit(seed);
        Ok(match name {
            "ignition0d_cells" => {
                // Per-cell jitter, so no two cells are the same problem and
                // memoising identical cells cannot win.
                let mut rng = SplitMix64::new(seed ^ 0x1c0f_fee0_1234_5678);
                let cells = if smoke { 600 } else { 24_000 };
                Workload::Ignition(IgnitionInputs {
                    t0: (0..cells)
                        .map(|_| 1450.0 + 100.0 * rng.next_f64())
                        .collect(),
                    t_end: 1.0e-5,
                })
            }
            "flame_samr" => Workload::Flame(RdConfig {
                nx: if smoke { 16 } else { 32 },
                max_levels: 2,
                with_chemistry: true,
                dt: 5.0e-7,
                n_steps: if smoke { 2 } else { 4 },
                t_hot: 1400.0 + 20.0 * u,
                ..RdConfig::default()
            }),
            "diffusion_uniform" => Workload::Diffusion(RdConfig {
                nx: if smoke { 64 } else { 256 },
                max_levels: 1,
                with_chemistry: false,
                n_steps: if smoke { 3 } else { 12 },
                t_hot: 1400.0 + 20.0 * u,
                ..RdConfig::default()
            }),
            "shock_samr" => Workload::Shock(ShockConfig {
                nx: 32,
                ny: 16,
                max_levels: if smoke { 2 } else { 3 },
                regrid_interval: 4,
                flux: FluxChoice::Godunov,
                // The seed only moves the stopping time: the trajectory up
                // to t/τ = 1 is the Fig. 7 one tier-1 already exercises,
                // and nearby initial states are known to go non-finite.
                t_end_over_tau: if smoke { 0.3 } else { 1.0 + 0.004 * u },
                ..ShockConfig::default()
            }),
            "dist_samr_p2" => Workload::Dist(SamrConfig {
                nx: if smoke { 64 } else { 256 },
                patch_split: if smoke { 4 } else { 8 },
                ranks: 2,
                steps: if smoke { 12 } else { 120 },
                stages_per_step: 2,
                regrid_interval: 2,
                threshold: 15.0 + 0.2 * (u - if seed == 0 { 0.0 } else { 0.5 }),
                ckpt_interval: if smoke { 4 } else { 8 },
                audit: false,
                ..SamrConfig::default()
            }),
            "fleet_mixed" => {
                let nominal = FleetLoadgenConfig::default();
                let base = FleetLoadgenConfig {
                    jobs: if smoke { 120 } else { 2400 },
                    shards: 2,
                    sessions_per_shard: 2,
                    steal: true,
                    deadlines: false,
                    ..nominal
                };
                Workload::Fleet(FleetLoadgenConfig {
                    seed: fleet_stream_seed(seed, &base, smoke),
                    ..base
                })
            }
            other => return Err(unknown_workload(other)),
        })
    }

    /// Executor workers the workload runs with (`CCA_HYDRO_THREADS`).
    pub fn workers(&self) -> usize {
        match self {
            Workload::Flame(_) => 2,
            _ => 1,
        }
    }

    /// Run one rep. `profile` turns the framework profiler on (component
    /// assemblies under [`Wiring::Proxied`] only).
    pub fn rep(&self, wiring: Wiring, profile: bool) -> RepOutput {
        self.rep_at(wiring, profile, self.workers())
    }

    /// The framework and the published script of a component workload
    /// (`None` for the two workloads that assemble no components).
    pub fn assembly(&self) -> Option<(Framework, String)> {
        match self {
            Workload::Ignition(inputs) => {
                Some((ignition_framework(), ignition_cells_script(inputs)))
            }
            Workload::Flame(cfg) | Workload::Diffusion(cfg) => {
                Some((rd_framework(), rd_script(cfg)))
            }
            Workload::Shock(cfg) => Some((shock_framework(), shock_script(cfg))),
            Workload::Dist(_) | Workload::Fleet(_) => None,
        }
    }

    /// [`Workload::rep`] at an explicit executor worker count.
    pub fn rep_at(&self, wiring: Wiring, profile: bool, workers: usize) -> RepOutput {
        set_workers(workers);
        match self {
            Workload::Ignition(inputs) => ignition_component(inputs, wiring),
            Workload::Flame(cfg) | Workload::Diffusion(cfg) => match run_rd(cfg, wiring, profile) {
                Ok((report, timers)) => rd_output(cfg, &report, timers),
                Err(e) => RepOutput::failed(e),
            },
            Workload::Shock(cfg) => match run_shock(cfg, wiring, profile) {
                Ok((report, timers)) => shock_output(cfg, &report, timers),
                Err(e) => RepOutput::failed(e),
            },
            Workload::Dist(cfg) => dist_output(cfg, &run_samr(cfg, ClusterModel::zero())),
            Workload::Fleet(cfg) => fleet_output(&run_fleet_loadgen(cfg)),
        }
    }
}

/// The load generator's stream seed for benchmark seed `seed`.
///
/// Seed 0 is the generator's own pinned scenario. Any other seed walks a
/// sequence of candidate stream seeds and takes the first whose stream has
/// the generator's nominal composition: 35 % bursty and 25 % heavy jobs
/// within 1 % of each count, and 14 % + 8 distinct interactive keys (the
/// non-popular draws plus the popular pool) within 2 %. The generator draws
/// each job's class independently, so over 2400 jobs these counts wander
/// by 3–4 % between streams, and the wall with them: ± 2 % from the heavy
/// count (half the cost), ± 2 % from the number of interactive jobs that
/// are not cache hits. That is the generator's sampling noise, not the
/// fleet's speed. Which jobs, which keys, which duplicates and in what
/// order still differ from seed to seed.
fn fleet_stream_seed(seed: u64, base: &FleetLoadgenConfig, smoke: bool) -> u64 {
    if seed == 0 {
        return FleetLoadgenConfig::default().seed;
    }
    let mut candidates = SplitMix64::new(seed);
    if smoke {
        return candidates.next_u64();
    }
    let jobs = base.jobs as f64;
    let mut best = (f64::INFINITY, 0u64);
    // An acceptable candidate usually comes within fifty tries (≈ 0.3 s);
    // the cap only bounds the search.
    for _ in 0..2000 {
        let candidate = candidates.next_u64();
        let stream = fleet_request_stream(&FleetLoadgenConfig {
            seed: candidate,
            ..*base
        });
        let off = |count: usize, want: f64, tolerance: f64| {
            (count as f64 - want).abs() / (want * tolerance)
        };
        let of_tenant = |tenant: u32| stream.iter().filter(|j| j.tenant == tenant).count();
        let mix = off(of_tenant(1), 0.35 * jobs, 0.01).max(off(of_tenant(2), 0.25 * jobs, 0.01));
        if mix > 1.0 {
            continue;
        }
        let distinct_interactive: BTreeSet<_> = stream
            .iter()
            .filter(|j| j.tenant == 0)
            .map(|j| j.key())
            .collect();
        let worst = mix.max(off(distinct_interactive.len(), 0.14 * jobs + 8.0, 0.02));
        if worst <= 1.0 {
            return candidate;
        }
        if worst < best.0 {
            best = (worst, candidate);
        }
    }
    best.1
}

/// Frameworks read the worker count from the environment when they are
/// built; every rep builds a fresh one.
pub fn set_workers(workers: usize) {
    std::env::set_var(cca_core::executor::WORKERS_ENV, workers.to_string());
}

// --- ignition0d_cells ---------------------------------------------------

/// Final state and work of every cell of one sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellSweep {
    /// `n_state` values per cell, cell-major.
    pub states: Vec<f64>,
    /// RHS evaluations per cell.
    pub nfe: Vec<u32>,
    /// Cells whose integration returned an error.
    pub failed: u64,
    /// State length per cell.
    pub n_state: usize,
}

/// Integrator settings of the Table 4 configuration, both paths.
const RTOL: f64 = 1e-8;
const ATOL: f64 = 1e-14;
const H_INIT: f64 = 1e-8;

/// The published Fig. 1 script minus its `go`: same instances, same
/// wiring; the benchmark drives the cells.
fn ignition_cells_script(inputs: &IgnitionInputs) -> String {
    ignition_script(true, 1500.0, P_ATM, inputs.t_end)
        .lines()
        .filter(|l| !l.starts_with("go "))
        .flat_map(|l| [l, "\n"])
        .collect()
}

/// The Fig. 1 assembly driven cell by cell through `init`'s uses-ports —
/// the benchmark plays the `Initializer`'s `go`, once per cell.
pub fn ignition_cells_component(
    inputs: &IgnitionInputs,
    wiring: Wiring,
) -> Result<CellSweep, String> {
    let mut fw = ignition_framework();
    let mut script = ignition_cells_script(inputs);
    if wiring == Wiring::Proxied {
        proxy::register(&mut fw);
        script = proxy::interpose(&script);
    }
    run_script(&mut fw, &script).map_err(|e| e.to_string())?;
    let init = fw.services("init").map_err(|e| e.to_string())?;
    let port_err = |e: cca_core::CcaError| e.to_string();
    let chem: Rc<dyn ChemistrySourcePort> = init.get_port("chemistry").map_err(port_err)?;
    let rhs: Rc<dyn OdeRhsPort> = init.get_port("rhs").map_err(port_err)?;
    let integ: Rc<dyn OdeIntegratorPort> = init.get_port("integrator").map_err(port_err)?;
    let config: Rc<dyn ParameterPort> = init.get_port("modeler-config").map_err(port_err)?;
    integ.set_tolerances(RTOL, ATOL);
    integ.set_initial_step(Some(H_INIT));

    let n = chem.n_species();
    let y = stoichiometric(n);
    let mut sweep = CellSweep {
        n_state: n + 1,
        ..CellSweep::default()
    };
    let mut state = vec![0.0; n + 1];
    // The benchmark is the driver here, so the root span is its own.
    let _sweep = span::enter(span::intern("bench.cells.sweep"));
    for &t0 in &inputs.t0 {
        // Rigid vessel: the density is frozen at its initial value.
        config.set_parameter("density", chem.density(t0, P_ATM, &y));
        state[0] = t0;
        state[1..n].copy_from_slice(&y[..n - 1]);
        state[n] = P_ATM;
        match integ.integrate(rhs.clone(), 0.0, inputs.t_end, &mut state) {
            Ok(stats) => sweep.nfe.push(stats.rhs_evals as u32),
            Err(_) => {
                sweep.failed += 1;
                sweep.nfe.push(0);
            }
        }
        sweep.states.extend_from_slice(&state);
    }
    Ok(sweep)
}

/// The same sweep as plain library calls: no framework, no ports.
pub fn ignition_cells_direct(inputs: &IgnitionInputs) -> CellSweep {
    let mech = cca_chem::h2_air_reduced_5();
    let n = mech.n_species();
    let y = stoichiometric(n);
    let mut sys = ConstantVolumeIgnition::new(mech, 1500.0, P_ATM, &y);
    let bdf = Bdf::new(BdfConfig {
        rtol: RTOL,
        atol: ATOL,
        h_init: Some(H_INIT),
        ..BdfConfig::default()
    });
    let mut sweep = CellSweep {
        n_state: n + 1,
        ..CellSweep::default()
    };
    for &t0 in &inputs.t0 {
        sys.rho = Mixture::new(&sys.mechanism().species).density(t0, P_ATM, &y);
        let mut state = sys.pack_state(t0, &y, P_ATM);
        match bdf.integrate(&sys, 0.0, inputs.t_end, &mut state) {
            Ok(stats) => sweep.nfe.push(stats.rhs_evals as u32),
            Err(_) => {
                sweep.failed += 1;
                sweep.nfe.push(0);
            }
        }
        sweep.states.extend_from_slice(&state);
    }
    sweep
}

fn ignition_component(inputs: &IgnitionInputs, wiring: Wiring) -> RepOutput {
    let sweep = match ignition_cells_component(inputs, wiring) {
        Ok(s) => s,
        Err(e) => return RepOutput::failed(e),
    };
    let cells = inputs.t0.len();
    let mut out = RepOutput {
        work: cells as f64,
        ops: cells as u64,
        failed_ops: sweep.failed,
        ..RepOutput::default()
    };
    let mut digest = Digest::default();
    let (mut t_sum, mut nfe_sum) = (0.0, 0u64);
    let mut unphysical = 0usize;
    for (state, nfe) in sweep.states.chunks_exact(sweep.n_state).zip(&sweep.nfe) {
        for &x in state {
            digest.f64(x);
        }
        digest.word(u64::from(*nfe));
        t_sum += state[0];
        nfe_sum += u64::from(*nfe);
        // Stored species plus the implied bulk species close ΣY = 1; what
        // can go wrong is a fraction leaving [0, 1].
        let stored = &state[1..sweep.n_state - 1];
        let bulk = 1.0 - stored.iter().sum::<f64>();
        let physical = state.iter().all(|x| x.is_finite())
            && (300.0..5000.0).contains(&state[0])
            && stored
                .iter()
                .chain([&bulk])
                .all(|y| (-1e-9..=1.0 + 1e-9).contains(y));
        unphysical += usize::from(!physical);
    }
    out.require(unphysical == 0, || {
        format!("{unphysical} cells ended non-finite, outside 300–5000 K, or with Y outside [0,1]")
    });
    out.digest = digest.finish();
    out.scalars = named(&[("mean_final_T", t_sum / cells as f64)]);
    out.counts = named(&[("nfe_total", nfe_sum as f64)]);
    out.sweep = Some(Box::new(sweep));
    out
}

/// Cells on which the component and the direct sweep disagree: different
/// NFE, or a final state component differing by more than 1e-12 relative
/// plus the integrator's absolute tolerance (radicals that never formed
/// sit at 1e-27, far below `ATOL`, where only rounding noise lives).
pub fn ignition_mismatches(component: &CellSweep, direct: &CellSweep) -> usize {
    if component.n_state != direct.n_state || component.nfe.len() != direct.nfe.len() {
        return component.nfe.len().max(direct.nfe.len()).max(1);
    }
    let n = component.n_state;
    component
        .states
        .chunks_exact(n)
        .zip(direct.states.chunks_exact(n))
        .zip(component.nfe.iter().zip(&direct.nfe))
        .filter(|((c, d), (nc, nd))| {
            nc != nd
                || c.iter().zip(*d).any(|(a, b)| {
                    // NaN on either side must count as a difference.
                    let close = (a - b).abs() <= 1e-12 * a.abs().max(b.abs()) + ATOL;
                    !close
                })
        })
        .count()
}

// --- flame_samr, diffusion_uniform ---------------------------------------

type Timers = Vec<(String, TimerStat)>;

fn run_rd(cfg: &RdConfig, wiring: Wiring, profile: bool) -> Result<(RdReport, Timers), String> {
    if wiring == Wiring::Plain {
        return run_reaction_diffusion(cfg)
            .map(|(report, _arena)| (report, Vec::new()))
            .map_err(|e| e.to_string());
    }
    let mut fw = rd_framework();
    run_proxied::<RdReport>(&mut fw, &rd_script(cfg), profile)
}

/// `run_*` re-enacted with the proxies spliced in: same framework factory,
/// same script (interposed), same report port.
fn run_proxied<R: Clone + 'static>(
    fw: &mut Framework,
    script: &str,
    profile: bool,
) -> Result<(R, Timers), String> {
    proxy::register(fw);
    fw.profiler().set_enabled(profile);
    run_script(fw, &proxy::interpose(script)).map_err(|e| e.to_string())?;
    let report: Rc<RefCell<R>> = fw
        .get_provides_port("driver", "report")
        .map_err(|e| e.to_string())?;
    let report = report.borrow().clone();
    Ok((report, fw.profiler().stats()))
}

fn rd_output(cfg: &RdConfig, report: &RdReport, timers: Timers) -> RepOutput {
    let mut out = RepOutput {
        ops: 1,
        profile: timers,
        ..RepOutput::default()
    };
    let mut digest = Digest::default();
    for (t, v) in report.t_max_series.iter().chain(&report.h2o2_max_series) {
        digest.f64(*t);
        digest.f64(*v);
    }
    for (level, lo, hi) in &report.final_patches {
        digest.word(*level as u64);
        for x in lo.iter().chain(hi) {
            digest.word(*x as u64);
        }
    }
    for c in &report.cells_per_level {
        digest.word(*c as u64);
    }
    for (x, y, t) in &report.final_t_field {
        digest.f64(*x);
        digest.f64(*y);
        digest.f64(*t);
    }
    digest.word(report.total_flags as u64);
    out.digest = digest.finish();

    let cells: i64 = report.cells_per_level.iter().sum();
    // W is the work that was asked for — coarse cell-steps — not how the
    // run chose to refine it.
    out.work = (cfg.nx * cfg.nx) as f64 * cfg.n_steps as f64;
    out.require(report.t_max_series.len() == cfg.n_steps, || {
        format!(
            "{} of {} macro steps ran",
            report.t_max_series.len(),
            cfg.n_steps
        )
    });
    out.require(
        report
            .final_t_field
            .iter()
            .all(|c| c.2.is_finite() && c.2 > 0.0)
            && report.t_max_series.iter().all(|p| p.1.is_finite()),
        || "temperature field is not finite and positive".into(),
    );
    // H2O2 is the one mass fraction the report exposes.
    out.require(
        report
            .h2o2_max_series
            .iter()
            .all(|p| (-1e-9..=1.0 + 1e-9).contains(&p.1)),
        || "max Y_H2O2 left [0, 1]".into(),
    );
    out.require(cells > 0, || "no cells at the end".into());
    out.failed_ops = u64::from(!out.problems.is_empty());
    out.scalars = named(&[
        (
            "final_max_T",
            report.t_max_series.last().map_or(f64::NAN, |p| p.1),
        ),
        ("final_cells", cells as f64),
    ]);
    out.counts = named(&[("total_flags", report.total_flags as f64)]);
    out
}

// --- shock_samr -----------------------------------------------------------

fn run_shock(
    cfg: &ShockConfig,
    wiring: Wiring,
    profile: bool,
) -> Result<(ShockReport, Timers), String> {
    if wiring == Wiring::Plain {
        return run_shock_interface(cfg)
            .map(|(report, _arena)| (report, Vec::new()))
            .map_err(|e| e.to_string());
    }
    let mut fw = shock_framework();
    run_proxied::<ShockReport>(&mut fw, &shock_script(cfg), profile)
}

fn shock_output(cfg: &ShockConfig, report: &ShockReport, timers: Timers) -> RepOutput {
    let mut out = RepOutput {
        ops: 1,
        profile: timers,
        ..RepOutput::default()
    };
    let mut digest = Digest::default();
    for (t, g) in &report.circulation_series {
        digest.f64(*t);
        digest.f64(*g);
    }
    for (x, y, rho, zeta, level) in &report.final_density {
        for v in [x, y, rho, zeta] {
            digest.f64(*v);
        }
        digest.word(*level as u64);
    }
    for c in &report.cells_per_level {
        digest.word(*c as u64);
    }
    digest.word(report.steps as u64);
    digest.f64(report.rho_min);
    digest.f64(report.rho_max);
    out.digest = digest.finish();

    let cells: i64 = report.cells_per_level.iter().sum();
    out.work = report.steps as f64 * (cfg.nx * cfg.ny) as f64;
    out.require(report.rho_min > 0.0 && report.rho_max.is_finite(), || {
        format!(
            "density left (0, ∞): [{}, {}]",
            report.rho_min, report.rho_max
        )
    });
    out.require(
        report.circulation_series.iter().all(|p| p.1.is_finite())
            && report
                .final_density
                .iter()
                .all(|c| c.2.is_finite() && c.3.is_finite()),
        || "circulation or final density field is not finite".into(),
    );
    out.require(report.steps > 0 && cells > 0, || "no steps ran".into());
    out.failed_ops = u64::from(!out.problems.is_empty());
    out.scalars = named(&[
        (
            "final_circulation",
            report.circulation_series.last().map_or(f64::NAN, |p| p.1),
        ),
        ("final_cells", cells as f64),
    ]);
    out.counts = named(&[("steps", report.steps as f64)]);
    out
}

// --- dist_samr_p2 -----------------------------------------------------------

fn dist_output(cfg: &SamrConfig, r: &SamrResult) -> RepOutput {
    let mut out = RepOutput {
        ops: 1,
        ..RepOutput::default()
    };
    let mut digest = Digest::default();
    digest.f64(r.checksum);
    digest.f64(r.final_max);
    for w in [
        r.fine_cells as u64,
        r.regrids as u64,
        r.migrations as u64,
        r.messages,
        r.bytes,
        r.checkpoints as u64,
    ] {
        digest.word(w);
    }
    out.digest = digest.finish();
    out.work = cfg.steps as f64 * (cfg.nx * cfg.nx) as f64;
    out.require(r.checksum.is_finite() && r.final_max.is_finite(), || {
        "checksum or final max is not finite".into()
    });
    out.require(r.fine_cells > 0 && r.regrids > 0, || {
        "the run never refined".into()
    });
    out.require(
        cfg.ckpt_interval == 0 || r.checkpoints == (cfg.steps - 1) / cfg.ckpt_interval,
        || format!("{} snapshots taken", r.checkpoints),
    );
    out.failed_ops = u64::from(!out.problems.is_empty());
    out.scalars = named(&[
        ("checksum", r.checksum),
        ("final_max", r.final_max),
        ("fine_cells", r.fine_cells as f64),
    ]);
    out.counts = named(&[
        ("messages", r.messages as f64),
        ("bytes", r.bytes as f64),
        ("regrids", r.regrids as f64),
        ("migrations", r.migrations as f64),
        ("checkpoints", r.checkpoints as f64),
    ]);
    out
}

// --- fleet_mixed --------------------------------------------------------------

fn fleet_output(r: &FleetLoadgenReport) -> RepOutput {
    let jobs = r.config.jobs as u64;
    let mut out = RepOutput {
        ops: jobs,
        failed_ops: r.failed + r.lost,
        work: (jobs - r.lost) as f64,
        ..RepOutput::default()
    };
    let mut digest = Digest::default();
    for w in [
        r.outcome_checksum,
        r.completed,
        r.cached,
        r.cancelled_deadline,
        r.failed,
        r.lost,
        r.total_ticks,
        r.stats.steals,
        r.stats.migrations,
        r.stats.preemptions,
    ] {
        digest.word(w);
    }
    out.digest = digest.finish();
    out.require(r.lost == 0 && r.failed == 0, || {
        format!("{} jobs lost, {} failed", r.lost, r.failed)
    });
    out.require(
        r.completed + r.cached + r.cancelled_deadline + r.rejected_deadline == jobs,
        || "resolved jobs do not add up to the request count".into(),
    );
    // A hash cannot be "within tolerance"; the two halves are kept exact.
    out.scalars = named(&[
        ("outcome_checksum_hi", (r.outcome_checksum >> 32) as f64),
        (
            "outcome_checksum_lo",
            (r.outcome_checksum & 0xffff_ffff) as f64,
        ),
    ]);
    out.counts = named(&[
        ("cache_hit_ratio", r.cached as f64 / jobs as f64),
        ("steals", r.stats.steals as f64),
        ("preemptions", r.stats.preemptions as f64),
        ("migrations", r.stats.migrations as f64),
        ("rejections", r.rejection_events as f64),
        ("ticks", r.total_ticks as f64),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for name in NAMES {
            let a = format!("{:?}", Workload::generate(name, 7, false).unwrap());
            let b = format!("{:?}", Workload::generate(name, 7, false).unwrap());
            let c = format!("{:?}", Workload::generate(name, 8, false).unwrap());
            assert_eq!(a, b, "{name}");
            assert_ne!(a, c, "{name}: the seed must reach the inputs");
        }
        assert!(Workload::generate("nope", 0, false).is_err());
    }

    #[test]
    fn seed_zero_is_the_nominal_configuration() {
        let Workload::Flame(flame) = Workload::generate("flame_samr", 0, false).unwrap() else {
            panic!()
        };
        assert_eq!(flame.t_hot, 1400.0);
        let Workload::Shock(shock) = Workload::generate("shock_samr", 0, false).unwrap() else {
            panic!()
        };
        assert_eq!(shock.t_end_over_tau, 1.0);
        let Workload::Dist(dist) = Workload::generate("dist_samr_p2", 0, false).unwrap() else {
            panic!()
        };
        assert_eq!(dist.threshold, 15.0);
        let Workload::Fleet(fleet) = Workload::generate("fleet_mixed", 0, false).unwrap() else {
            panic!()
        };
        assert_eq!(fleet.seed, FleetLoadgenConfig::default().seed);
    }

    #[test]
    fn component_and_direct_sweeps_agree_cell_by_cell() {
        // The sweep opens spans; keep them out of a recording under test.
        let _guard = crate::span::test_lock();
        let Workload::Ignition(mut inputs) =
            Workload::generate("ignition0d_cells", 3, true).unwrap()
        else {
            panic!()
        };
        inputs.t0.truncate(40);
        let component = ignition_cells_component(&inputs, Wiring::Plain).unwrap();
        let direct = ignition_cells_direct(&inputs);
        assert_eq!(component.failed + direct.failed, 0);
        assert_eq!(ignition_mismatches(&component, &direct), 0);
        assert!(component.nfe.iter().all(|n| *n > 10));
        // The proxied wiring computes the same bits.
        let proxied = ignition_cells_component(&inputs, Wiring::Proxied).unwrap();
        assert_eq!(proxied, component);
        // A perturbed state or NFE is caught.
        let mut off = direct.clone();
        off.states[0] *= 1.0 + 1e-9;
        off.states[direct.n_state + 3] = f64::NAN;
        off.nfe[5] += 1;
        assert_eq!(ignition_mismatches(&component, &off), 3);
    }
}
