//! Per-layer probes: direct calls into each crate's public functions,
//! timed from here. A probe takes 101 batches of at least 1 ms and reports
//! the median (and the 90th percentile, ten samples beyond it); operations
//! that take milliseconds themselves are sampled 21 times, one call each.
//!
//! Layers are the crates. Inputs are fixed and stated next to each probe;
//! nothing here depends on the workload seed.

use crate::metrics::Measured;
use crate::sysinfo::HostFingerprint;
use crate::workloads::stoichiometric;
use cca_analyze::distplan::PlanBuilder;
use cca_apps::reaction_diffusion::{rd_framework, rd_script, RdConfig};
use cca_apps::samr::{base_hierarchy, run_samr_harnessed, CkptHarness, SamrConfig, NGHOST, NVARS};
use cca_chem::systems::{ConstantPressureKinetics, ConstantVolumeIgnition};
use cca_ckpt::{CheckpointSet, CkptMeta, CkptStore};
use cca_comm::{scmd, ClusterModel, Communicator};
use cca_components::diffusion::diffusion_rhs_with_kernels;
use cca_components::ports::{ChemistryKernel, ChemistrySourcePort, TransportKernel, TransportPort};
use cca_core::script::run_script;
use cca_core::{Executor, Profiler};
use cca_hydro_solver::muscl::compute_rhs_cfg;
use cca_hydro_solver::riemann;
use cca_hydro_solver::{prim_to_cons, EfmFlux, FluxScheme, GodunovFlux, Limiter, Prim};
use cca_mesh::checkpoint::{patch_from_bytes, patch_to_bytes};
use cca_mesh::cluster::cluster_deterministic;
use cca_mesh::dist::{self, DistributedHierarchy};
use cca_mesh::ghost::{fill_coarse_fine_ghosts, fill_same_level_ghosts};
use cca_mesh::hierarchy::{Hierarchy, Patch};
use cca_mesh::interp::{prolong_limited, restrict_average};
use cca_mesh::regrid::{regrid_level, RegridParams};
use cca_mesh::{DataObject, IntBox, KernelConfig, PatchData};
use cca_serve::loadgen::{fleet_request_stream, fleet_tenants, FleetLoadgenConfig};
use cca_serve::{Fleet, FleetConfig, IgnitionSpec, RdSpec};
use cca_solvers::{Bdf, BdfConfig};
use cca_transport::TransportModel;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Standard atmosphere, Pa.
const P_ATM: f64 = 101_325.0;

/// How many samples a probe takes and how long a batch must be.
#[derive(Clone, Copy, Debug)]
pub struct Sampling {
    /// Batches of a cheap operation.
    pub batches: usize,
    /// Shortest batch.
    pub min_batch: Duration,
    /// Single-call samples of an operation that takes ≳ 1 ms itself.
    pub heavy: usize,
    /// Shrink the probes' inputs too (patch edges, hierarchies, streams).
    pub small_inputs: bool,
}

impl Sampling {
    /// The full protocol: 101 batches of ≥ 1 ms; 21 single calls.
    pub const FULL: Sampling = Sampling {
        batches: 101,
        min_batch: Duration::from_millis(1),
        heavy: 21,
        small_inputs: false,
    };
    /// `--smoke`: enough to exercise every probe, not to trust a number.
    pub const SMOKE: Sampling = Sampling {
        batches: 5,
        min_batch: Duration::from_micros(100),
        heavy: 3,
        small_inputs: true,
    };
}

/// Seconds per call of `op`, one value per batch.
pub fn sample(s: Sampling, mut op: impl FnMut()) -> Vec<f64> {
    // Warm up and find how many calls fill a batch.
    op();
    let mut iters = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        let dt = t0.elapsed();
        if dt >= s.min_batch || iters >= 1 << 24 {
            break;
        }
        // Aim a little past the minimum so most batches clear it.
        let want = s.min_batch.as_secs_f64() * 1.2 / dt.as_secs_f64().max(1e-9);
        iters = ((iters as f64 * want).ceil() as u64).clamp(iters + 1, iters * 16);
    }
    (0..s.batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect()
}

/// Seconds per call of an operation that consumes fresh state: `prepare`
/// is not timed, `op` is, once per sample.
pub fn sample_heavy<S>(
    s: Sampling,
    mut prepare: impl FnMut() -> S,
    mut op: impl FnMut(S),
) -> Vec<f64> {
    op(prepare());
    (0..s.heavy)
        .map(|_| {
            let state = prepare();
            let t0 = Instant::now();
            op(state);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// [`sample`] for an operation both ranks of an SCMD pair must execute the
/// same number of times: rank 0 sizes the batch and broadcasts it.
fn sample_lockstep(comm: &Communicator, s: Sampling, mut op: impl FnMut()) -> Vec<f64> {
    const CALIBRATION: u32 = 8;
    op();
    let t0 = Instant::now();
    for _ in 0..CALIBRATION {
        op();
    }
    let per_call = t0.elapsed().as_secs_f64() / f64::from(CALIBRATION);
    let iters = (s.min_batch.as_secs_f64() * 1.2 / per_call.max(1e-9)).ceil();
    let iters = comm.bcast(0, &[iters.clamp(1.0, 1e6) as u64])[0];
    (0..s.batches)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect()
}

fn scaled(samples: &[f64], factor: f64) -> Vec<f64> {
    samples.iter().map(|x| x * factor).collect()
}

fn rate(samples: &[f64], amount: f64) -> Vec<f64> {
    samples.iter().map(|x| amount / x).collect()
}

/// Run every probe. `out` receives one [`Measured`] per per-layer metric
/// that is not derived from a workload run or a trace.
pub fn run_all(
    s: Sampling,
    host: &HostFingerprint,
    out: &mut Vec<Measured>,
    notes: &mut Vec<String>,
) {
    host_probes(s, host, out, notes);
    core_probes(s, out);
    comm_probes(s, out);
    solver_chem_transport_probes(s, out);
    kernel_probes(s, host, out, notes);
    mesh_probes(s, out, notes);
    mesh_dist_probes(s, out);
    ckpt_probes(s, out, notes);
    serve_probes(s, out);
}

// --- host -------------------------------------------------------------------

fn host_probes(
    s: Sampling,
    host: &HostFingerprint,
    out: &mut Vec<Measured>,
    notes: &mut Vec<String>,
) {
    // A dependent integer chain: one multiply-add per step, no memory.
    let spin = sample(s, || {
        let mut x = black_box(1u64);
        for i in 0..1000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        black_box(x);
    });
    out.push(Measured::median_of(
        "host.spin_ns",
        "ns",
        &scaled(&spin, 1e9 / 1000.0),
    ));
    let timer = sample(s, || {
        black_box(Instant::now());
    });
    out.push(Measured::median_of(
        "host.timer_ns",
        "ns",
        &scaled(&timer, 1e9),
    ));

    // STREAM triad a = b + s·c over three arrays of four times the
    // last-level cache each, so no line survives from one pass to the next.
    let llc = host.last_level_cache_bytes();
    let want = if s.small_inputs {
        1 << 20
    } else {
        4 * llc as usize
    };
    let n = (want / 8).clamp(1 << 17, 1 << 26);
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let passes = sample_heavy(
        Sampling {
            heavy: s.heavy.min(7),
            ..s
        },
        || (),
        |()| {
            for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
                *ai = bi + 3.0 * ci;
            }
            black_box(&mut a);
        },
    );
    // Two reads and one write per element, counted as STREAM does.
    out.push(Measured::median_of(
        "host.triad_GBps",
        "GB/s",
        &rate(&passes, 24.0 * n as f64 / 1e9),
    ));
    notes.push(format!(
        "host.triad_GBps: 3 arrays of {} MiB each, last-level cache {} MiB",
        (8 * n) >> 20,
        llc >> 20
    ));
}

// --- core -------------------------------------------------------------------

fn core_probes(s: Sampling, out: &mut Vec<Measured>) {
    // production_rates of the reduced mechanism: the concrete call, and the
    // same object reached through Framework::get_provides_port.
    let mech = cca_chem::h2_air_reduced_5();
    let n = mech.n_species();
    let conc = vec![1.0e-3; n];
    let mut wdot = vec![0.0; n];
    let direct = sample(s, || {
        mech.production_rates(black_box(1200.0), black_box(&conc), &mut wdot);
        black_box(&mut wdot);
    });
    let mut fw = cca_apps::palette::standard_palette();
    fw.instantiate("ThermoChemistryReduced", "chem")
        .expect("the palette has the reduced chemistry");
    let port: Rc<dyn ChemistrySourcePort> = fw
        .get_provides_port("chem", "chemistry")
        .expect("chem provides chemistry");
    let through_port = sample(s, || {
        port.production_rates(black_box(1200.0), black_box(&conc), &mut wdot);
        black_box(&mut wdot);
    });
    out.push(Measured::median_of(
        "core.port_call_ns",
        "ns",
        &scaled(&through_port, 1e9),
    ));
    out.push(Measured::median_of(
        "core.direct_call_ns",
        "ns",
        &scaled(&direct, 1e9),
    ));

    // Assembly: palette + every instantiate/connect/parameter of Fig. 2.
    let script: String = rd_script(&RdConfig::default())
        .lines()
        .filter(|l| !l.starts_with("go "))
        .flat_map(|l| [l, "\n"])
        .collect();
    let assemble = sample(s, || {
        let mut fw = rd_framework();
        run_script(&mut fw, &script).expect("the Fig. 2 script assembles");
        black_box(&fw);
    });
    out.push(Measured::median_of(
        "core.assemble_us",
        "us",
        &scaled(&assemble, 1e6),
    ));

    // Executor dispatch: 64 no-op items per run.
    const ITEMS: usize = 64;
    for (workers, name) in [
        (1, "core.executor_item_us_1w"),
        (2, "core.executor_item_us_2w"),
    ] {
        let executor = Executor::new(Profiler::new());
        executor.set_workers(workers);
        let mut items: Vec<u64> = vec![0; ITEMS];
        let per_run = sample(s, || {
            let report = executor.run("bench.noop", std::mem::take(&mut items), |_, x| *x += 1);
            items = report.items;
        });
        out.push(Measured::median_of(
            name,
            "us",
            &scaled(&per_run, 1e6 / ITEMS as f64),
        ));
    }
}

// --- comm -------------------------------------------------------------------

fn comm_probes(s: Sampling, out: &mut Vec<Measured>) {
    const TAG: u64 = 7;
    const MIB: usize = 1 << 20;
    let results = scmd::run(2, ClusterModel::zero(), move |comm: &Communicator| {
        let peer = 1 - comm.rank();
        let pingpong = |payload: &[f64]| {
            if comm.rank() == 0 {
                comm.isend(peer, TAG, payload);
                black_box(comm.wait(comm.irecv::<f64>(peer, TAG)));
            } else {
                let got = comm.wait(comm.irecv::<f64>(peer, TAG));
                comm.isend(peer, TAG, &got);
            }
        };
        let small = [1.0f64];
        let large = vec![1.0f64; MIB / 8];
        let round_8b = sample_lockstep(comm, s, || pingpong(&small));
        let round_1m = sample_lockstep(comm, s, || pingpong(&large));
        let allreduce = sample_lockstep(comm, s, || {
            black_box(comm.allreduce_max(&[comm.rank() as f64]));
        });
        let barrier = sample_lockstep(comm, s, || comm.barrier());
        [round_8b, round_1m, allreduce, barrier]
    });
    let [round_8b, round_1m, allreduce, barrier] = &results[0];
    out.push(Measured::median_of(
        "comm.pingpong_us_8B",
        "us",
        &scaled(round_8b, 1e6),
    ));
    // A round trip moves the payload twice.
    out.push(Measured::median_of(
        "comm.pingpong_MBps_1MiB",
        "MB/s",
        &rate(round_1m, 2.0 * MIB as f64 / 1e6),
    ));
    out.push(Measured::median_of(
        "comm.allreduce_us",
        "us",
        &scaled(allreduce, 1e6),
    ));
    out.push(Measured::median_of(
        "comm.barrier_us",
        "us",
        &scaled(barrier, 1e6),
    ));
}

// --- solvers, chem, transport -------------------------------------------------

fn solver_chem_transport_probes(s: Sampling, out: &mut Vec<Measured>) {
    // One Table 4 cell: reduced mechanism, T0 = 1500 K, t_end = 1e-5 s.
    let reduced = cca_chem::h2_air_reduced_5();
    let y = stoichiometric(reduced.n_species());
    let sys = ConstantVolumeIgnition::new(reduced.clone(), 1500.0, P_ATM, &y);
    let state0 = sys.pack_state(1500.0, &y, P_ATM);
    let bdf = Bdf::new(BdfConfig {
        rtol: 1e-8,
        atol: 1e-14,
        h_init: Some(1e-8),
        ..BdfConfig::default()
    });
    let mut nfe = 0usize;
    let cell = sample(s, || {
        let mut state = state0.clone();
        nfe = bdf
            .integrate(&sys, 0.0, 1.0e-5, &mut state)
            .expect("the Table 4 cell integrates")
            .rhs_evals;
        black_box(&state);
    });
    out.push(Measured::median_of(
        "solvers.bdf_cell_us",
        "us",
        &scaled(&cell, 1e6),
    ));
    out.push(Measured::single("solvers.bdf_nfe", "count", nfe as f64));

    // One chemistry half-step of the flame: full mechanism at constant
    // pressure, a fresh BDF over 2.5e-7 s from a 1400 K stoichiometric cell
    // (CvodeComponent's defaults: rtol 1e-8, atol 1e-14, heuristic h0).
    let full = cca_chem::h2_air_19();
    let y_full = stoichiometric(full.n_species());
    let flame_sys = ConstantPressureKinetics::new(full.clone(), P_ATM);
    let flame0 = flame_sys.pack_state(1400.0, &y_full);
    let restart_bdf = Bdf::new(BdfConfig {
        rtol: 1e-8,
        atol: 1e-14,
        ..BdfConfig::default()
    });
    let restart = sample(s, || {
        let mut state = flame0.clone();
        restart_bdf
            .integrate(&flame_sys, 0.0, 2.5e-7, &mut state)
            .expect("the flame half-step integrates");
        black_box(&state);
    });
    out.push(Measured::median_of(
        "solvers.bdf_restart_us",
        "us",
        &scaled(&restart, 1e6),
    ));

    for (mech, name) in [
        (&reduced, "chem.rates_ns_reduced"),
        (&full, "chem.rates_ns_full"),
    ] {
        let n = mech.n_species();
        let conc: Vec<f64> = (0..n).map(|i| 1.0e-3 + 2.0e-4 * i as f64).collect();
        let mut wdot = vec![0.0; n];
        let rates = sample(s, || {
            mech.production_rates(black_box(1500.0), black_box(&conc), &mut wdot);
            black_box(&mut wdot);
        });
        out.push(Measured::median_of(name, "ns", &scaled(&rates, 1e9)));
    }

    // What the diffusion RHS asks of transport per cell.
    let transport =
        TransportModel::for_species(&["H2", "O2", "O", "OH", "H", "H2O", "HO2", "H2O2", "N2"]);
    let x = vec![1.0 / 9.0; 9];
    let mut d = vec![0.0; 9];
    let props = sample(s, || {
        transport.mix_diffusivities(black_box(1200.0), P_ATM, black_box(&x), &mut d);
        black_box(transport.mix_conductivity(black_box(1200.0), &x));
        black_box(&mut d);
    });
    out.push(Measured::median_of(
        "transport.mix_props_ns",
        "ns",
        &scaled(&props, 1e9),
    ));
}

// --- components, hydro: the two patch kernels ---------------------------------

/// Edge of the kernel-probe patch: the `diffusion_uniform` patch.
const KERNEL_N: i64 = 256;

fn kernel_probes(
    s: Sampling,
    host: &HostFingerprint,
    out: &mut Vec<Measured>,
    notes: &mut Vec<String>,
) {
    let edge = if s.small_inputs { 48 } else { KERNEL_N };
    let tiled = KernelConfig::tiled(cca_mesh::layout::DEFAULT_TILE_ROWS);

    // Diffusion RHS on the flame state {T, Y1..Y8}, one ghost ring.
    let (chem, transport) = property_kernels();
    let mut state = PatchData::new(IntBox::sized(edge, edge), 9, 1);
    for (i, j) in state.total_box().cells() {
        let (x, y) = (
            (i as f64 + 0.5) / edge as f64,
            (j as f64 + 0.5) / edge as f64,
        );
        let bump = 16.0 * x * (1.0 - x) * y * (1.0 - y);
        state.set(0, i, j, 300.0 + 1250.0 * bump);
        state.set(1, i, j, 0.028 + 0.012 * bump);
        state.set(2, i, j, 0.226);
        for v in 3..9 {
            state.set(v, i, j, 2.0e-3 + 1.0e-4 * v as f64);
        }
    }
    let mut rhs = PatchData::new(state.interior, 9, 0);
    let cells = (edge * edge) as f64;
    let dx = 1.0 / edge as f64;
    for (cfg, name) in [
        (
            KernelConfig::UNTILED,
            "components.diffusion_rhs_ns_per_cell_untiled",
        ),
        (tiled, "components.diffusion_rhs_ns_per_cell_tiled"),
    ] {
        let sweep = sample_heavy(
            s,
            || (),
            |()| diffusion_rhs_with_kernels(&chem, &transport, &state, &mut rhs, dx, dx, cfg),
        );
        out.push(Measured::median_of(
            name,
            "ns/cell",
            &scaled(&sweep, 1e9 / cells),
        ));
    }
    notes.push(format!(
        "diffusion_rhs probe: {edge}x{edge} patch, state array {:.1} MiB (9 vars, pitch {}), caches {}",
        (9 * state.pitch() * (edge as usize + 2) * 8) as f64 / (1 << 20) as f64,
        state.pitch(),
        host.caches
    ));

    // MUSCL + exact Riemann on the shock state, two ghost rings.
    let mut u = PatchData::new(IntBox::sized(edge, edge), 5, 2);
    for (i, j) in u.total_box().cells() {
        let a = (i * 37 + j * 23).rem_euclid(17) as f64 / 17.0;
        let b = (i * 13 + j * 7).rem_euclid(29) as f64 / 29.0;
        let w = Prim {
            rho: 0.8 + 0.5 * a,
            u: 0.6 - 1.1 * b,
            v: -0.4 + 0.7 * a,
            p: if b > 0.7 { 4.5 } else { 0.5 },
            zeta: a,
        };
        for (var, value) in prim_to_cons(&w, 1.4).iter().enumerate() {
            u.set(var, i, j, *value);
        }
    }
    let mut flux_rhs = PatchData::new(u.interior, 5, 0);
    let shock_tiled = KernelConfig::tiled(8);
    for (cfg, name) in [
        (KernelConfig::UNTILED, "hydro.muscl_rhs_ns_per_cell_untiled"),
        (shock_tiled, "hydro.muscl_rhs_ns_per_cell_tiled"),
    ] {
        let sweep = sample_heavy(
            s,
            || (),
            |()| {
                compute_rhs_cfg(
                    &u,
                    &mut flux_rhs,
                    0.05,
                    0.08,
                    1.4,
                    &GodunovFlux,
                    Limiter::VanLeer,
                    cfg,
                )
            },
        );
        out.push(Measured::median_of(
            name,
            "ns/cell",
            &scaled(&sweep, 1e9 / cells),
        ));
    }

    // One interface: Sod-like left/right states.
    let left = Prim {
        rho: 1.0,
        u: 0.3,
        v: 0.1,
        p: 1.0,
        zeta: 0.0,
    };
    let right = Prim {
        rho: 0.125,
        u: -0.1,
        v: 0.0,
        p: 0.1,
        zeta: 1.0,
    };
    let riemann = sample(s, || {
        black_box(riemann::star_state(
            black_box(&left),
            black_box(&right),
            1.4,
        ));
        black_box(riemann::sample(&left, &right, 1.4, 0.0));
    });
    out.push(Measured::median_of(
        "hydro.riemann_ns",
        "ns",
        &scaled(&riemann, 1e9),
    ));
    let efm = sample(s, || {
        black_box(EfmFlux.flux_x(black_box(&left), black_box(&right), 1.4));
    });
    out.push(Measured::median_of(
        "hydro.efm_ns",
        "ns",
        &scaled(&efm, 1e9),
    ));
}

/// Chemistry and transport kernel snapshots from the components the flame
/// assembly wires together.
fn property_kernels() -> (Arc<dyn ChemistryKernel>, Arc<dyn TransportKernel>) {
    let mut fw = cca_apps::palette::standard_palette();
    run_script(
        &mut fw,
        "instantiate ThermoChemistry chem\ninstantiate DRFMComponent drfm\n",
    )
    .expect("two palette classes instantiate");
    let chem: Rc<dyn ChemistrySourcePort> = fw
        .get_provides_port("chem", "chemistry")
        .expect("chem provides chemistry");
    let transport: Rc<dyn TransportPort> = fw
        .get_provides_port("drfm", "transport")
        .expect("drfm provides transport");
    (
        chem.kernel().expect("ThermoChemistry offers a kernel"),
        transport.kernel().expect("DRFM offers a kernel"),
    )
}

// --- mesh (shared memory) ------------------------------------------------------

/// A three-level hierarchy shaped like the end of the shock run: 32×16
/// coarse cells, two adjacent level-1 patches over the interface, three
/// level-2 patches inside them. Five variables, two ghost rings.
fn shock_like_hierarchy() -> (Hierarchy, DataObject) {
    let mut h = Hierarchy::new(IntBox::sized(32, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2);
    h.set_level_boxes(
        1,
        &[
            IntBox::new([12, 0], [31, 31]),
            IntBox::new([32, 0], [47, 31]),
        ],
    );
    h.set_level_boxes(
        2,
        &[
            IntBox::new([32, 8], [63, 55]),
            IntBox::new([64, 8], [87, 55]),
            IntBox::new([40, 56], [79, 63]),
        ],
    );
    let mut dobj = DataObject::new(5, 2);
    dobj.ensure_levels(3);
    for (level, l) in h.levels.iter().enumerate() {
        for p in &l.patches {
            dobj.allocate(level, p.id, p.interior);
            let pd = dobj.patch_mut(level, p.id).expect("just allocated");
            for (i, j) in p.interior.cells() {
                let [x, y] = h.cell_center(level, i, j);
                for var in 0..5 {
                    pd.set(var, i, j, 1.0 + 0.3 * var as f64 + x * (1.0 - y));
                }
            }
        }
    }
    (h, dobj)
}

/// An oblique band plus a vertical front on a 64×32 level: the flag set of
/// the clustering and regrid probes (≈ 480 cells).
fn stated_flags(shift: i64) -> Vec<(i64, i64)> {
    let mut flags = Vec::new();
    for j in 0..32i64 {
        for i in 0..64i64 {
            let band = (i - 18 - shift - j / 2).abs() <= 2;
            let front = (i - 44 - shift).abs() <= 1;
            if band || front {
                flags.push((i, j));
            }
        }
    }
    flags
}

fn mesh_probes(s: Sampling, out: &mut Vec<Measured>, notes: &mut Vec<String>) {
    let (h, mut dobj) = shock_like_hierarchy();
    let same = sample(s, || {
        for level in 0..3 {
            fill_same_level_ghosts(&mut dobj, &h, level);
        }
    });
    out.push(Measured::median_of(
        "mesh.ghost_fill_us",
        "us",
        &scaled(&same, 1e6),
    ));
    let coarse_fine = sample(s, || {
        for level in 1..3 {
            fill_coarse_fine_ghosts(&mut dobj, &h, level);
        }
    });
    out.push(Measured::median_of(
        "mesh.cf_fill_us",
        "us",
        &scaled(&coarse_fine, 1e6),
    ));

    // Clustering and a full level rebuild on a 64×32 level.
    let flags = [stated_flags(0), stated_flags(3)];
    let cluster = sample(s, || {
        black_box(cluster_deterministic(black_box(&flags[0]), 0.7, 4));
    });
    out.push(Measured::median_of(
        "mesh.cluster_us",
        "us",
        &scaled(&cluster, 1e6),
    ));
    notes.push(format!(
        "mesh.cluster_us / mesh.regrid_level_us: {} flags on a 64x32 level, efficiency 0.7, min width 4",
        flags[0].len()
    ));
    let mut rh = Hierarchy::new(IntBox::sized(64, 32), [0.0, 0.0], [1.0 / 32.0; 2], 2);
    let mut rd = DataObject::new(5, 2);
    rd.ensure_levels(1);
    let base = rh.levels[0].patches[0];
    rd.allocate(0, base.id, base.interior);
    rd.patch_mut(0, base.id)
        .expect("just allocated")
        .fill_var(0, 1.0);
    let params = RegridParams::default();
    let mut turn = 0usize;
    // The front moves three cells between calls, so every rebuild both
    // prolongs new area and copies surviving fine data.
    let regrid = sample(s, || {
        turn += 1;
        black_box(regrid_level(
            &mut rh,
            0,
            &flags[turn % 2],
            &params,
            &mut [&mut rd],
        ));
    });
    out.push(Measured::median_of(
        "mesh.regrid_level_us",
        "us",
        &scaled(&regrid, 1e6),
    ));

    // Inter-level transfer on one 32×32 coarse patch and its 64×64 child.
    let coarse_box = IntBox::sized(32, 32);
    let fine_box = coarse_box.refine(2);
    let mut coarse = PatchData::new(coarse_box, 5, 2);
    for (i, j) in coarse.total_box().cells() {
        for var in 0..5 {
            coarse.set(var, i, j, (i * 3 + j * 5 + var as i64) as f64 * 0.01);
        }
    }
    let mut fine = PatchData::new(fine_box, 5, 2);
    let prolong = sample(s, || prolong_limited(&mut fine, &coarse, &fine_box, 2));
    out.push(Measured::median_of(
        "mesh.prolong_ns_per_cell",
        "ns/cell",
        &scaled(&prolong, 1e9 / fine_box.count() as f64),
    ));
    let restrict = sample(s, || restrict_average(&mut coarse, &fine, &coarse_box, 2));
    out.push(Measured::median_of(
        "mesh.restrict_ns_per_cell",
        "ns/cell",
        &scaled(&restrict, 1e9 / coarse_box.count() as f64),
    ));

    // The migration/checkpoint wire format: encode + decode one patch.
    let mut wire = Vec::new();
    let codec = sample(s, || {
        wire.clear();
        patch_to_bytes(1, 7, &fine, &mut wire);
        black_box(patch_from_bytes(&mut wire.as_slice(), 5, 2).expect("own record parses"));
    });
    out.push(Measured::median_of(
        "mesh.patch_codec_MBps",
        "MB/s",
        &rate(&codec, 2.0 * wire.len() as f64 / 1e6),
    ));
}

// --- mesh::dist (two ranks) ------------------------------------------------------

/// The owner-computes cost the distributed run balances by: own cells
/// plus four per overlying (or own) fine cell.
fn patch_work(h: &Hierarchy, level: usize, p: &Patch) -> f64 {
    const FINE_WEIGHT: f64 = 4.0;
    if level > 0 {
        return FINE_WEIGHT * p.interior.count() as f64;
    }
    let over: i64 = h.levels.get(1).map_or(0, |l1| {
        l1.patches
            .iter()
            .filter_map(|f| f.interior.intersect(&p.interior.refine(h.ratio)))
            .map(|ov| ov.count())
            .sum()
    });
    p.interior.count() as f64 + FINE_WEIGHT * over as f64
}

/// Fine-level affinity tolerance of the distributed run.
const AFFINITY_TOL: f64 = 1.5;

fn dist_config(s: Sampling) -> SamrConfig {
    let small = s.small_inputs;
    SamrConfig {
        nx: if small { 64 } else { 256 },
        patch_split: if small { 4 } else { 8 },
        ranks: 2,
        ..SamrConfig::default()
    }
}

/// Flags of a Gaussian-footprint disc on the level-0 domain, centred at
/// `(c, c)` in units of the domain edge.
fn disc_flags(nx: i64, c: f64) -> Vec<(i64, i64)> {
    let r = 0.12 * nx as f64;
    IntBox::sized(nx, nx)
        .cells()
        .filter(|&(i, j)| {
            let (dx, dy) = (
                i as f64 + 0.5 - c * nx as f64,
                j as f64 + 0.5 - c * nx as f64,
            );
            dx * dx + dy * dy <= r * r
        })
        .collect()
}

fn mesh_dist_probes(s: Sampling, out: &mut Vec<Measured>) {
    let cfg = dist_config(s);
    let results = scmd::run(2, ClusterModel::zero(), move |comm: &Communicator| {
        let rank = comm.rank();
        let mut dh = DistributedHierarchy::new(base_hierarchy(&cfg), 2);
        dh.assign_owners(patch_work, AFFINITY_TOL);
        let mut dobj = DataObject::new(NVARS, NGHOST);
        dh.allocate_owned(&mut dobj, rank);
        for p in &dh.hier.levels[0].patches {
            if p.owner == rank {
                dobj.patch_mut(0, p.id)
                    .expect("owned")
                    .fill_var(0, 300.0 + p.id as f64);
            }
        }
        // Manifest + grouping + exchange, as the app's fill_level does.
        let fill = sample_lockstep(comm, s, || {
            let xfers = dh.same_level_xfers(0, NGHOST);
            let groups = dist::region_groups(&xfers, NVARS);
            dist::exchange_same_level(comm, &mut dobj, 0, &xfers, &groups);
        });
        // Regrid: the refined disc hops between two places, so every
        // epoch migrates, ships donors and copies surviving data.
        let params = RegridParams::default();
        let flags = [disc_flags(cfg.nx, 0.35), disc_flags(cfg.nx, 0.45)];
        let (mut plan_s, mut exec_s) = (Vec::new(), Vec::new());
        for k in 0..=s.heavy {
            let t0 = Instant::now();
            let rp =
                dist::plan_regrid(&mut dh, 0, &flags[k % 2], &params, patch_work, AFFINITY_TOL);
            let planned = t0.elapsed().as_secs_f64();
            comm.barrier();
            let t1 = Instant::now();
            dist::execute_regrid(comm, &dh, &mut dobj, &rp);
            comm.barrier();
            // The first rebuild creates the level from nothing: warm-up.
            if k > 0 {
                plan_s.push(planned);
                exec_s.push(t1.elapsed().as_secs_f64());
            }
        }
        [fill, plan_s, exec_s]
    });
    let [fill, plan_s, exec_s] = &results[0];
    out.push(Measured::median_of(
        "mesh.dist_fill_us",
        "us",
        &scaled(fill, 1e6),
    ));
    out.push(Measured::median_of(
        "mesh.plan_regrid_us",
        "us",
        &scaled(plan_s, 1e6),
    ));
    out.push(Measured::median_of(
        "mesh.execute_regrid_us",
        "us",
        &scaled(exec_s, 1e6),
    ));
}

// --- ckpt ---------------------------------------------------------------------

fn ckpt_probes(s: Sampling, out: &mut Vec<Measured>, notes: &mut Vec<String>) {
    // A set captured the way the application captures it: through the
    // harness store, at the first snapshot of a short distributed run.
    let cfg = SamrConfig {
        steps: 9,
        stages_per_step: 2,
        regrid_interval: 2,
        threshold: 15.0,
        ckpt_interval: 8,
        ..dist_config(s)
    };
    let store = Arc::new(CkptStore::new());
    run_samr_harnessed(
        &cfg,
        ClusterModel::zero(),
        CkptHarness {
            store: Some(store.clone()),
            ..CkptHarness::default()
        },
    );
    let set = store
        .latest()
        .expect("the run committed its step-8 snapshot");
    let bytes = set.to_bytes();
    notes.push(format!(
        "ckpt probes: set of a {0}x{0} two-level run at step 8, {1} shards, {2} bytes",
        cfg.nx,
        set.shards.len(),
        bytes.len()
    ));
    out.push(Measured::single(
        "ckpt.set_bytes",
        "bytes",
        bytes.len() as f64,
    ));
    let encode = sample_heavy(
        s,
        || (),
        |()| {
            black_box(set.to_bytes());
        },
    );
    out.push(Measured::median_of(
        "ckpt.encode_MBps",
        "MB/s",
        &rate(&encode, bytes.len() as f64 / 1e6),
    ));
    let decode = sample_heavy(
        s,
        || (),
        |()| {
            let parsed = CheckpointSet::from_bytes(black_box(&bytes)).expect("own bytes parse");
            parsed.validate().expect("own set validates");
            black_box(parsed);
        },
    );
    out.push(Measured::median_of(
        "ckpt.decode_MBps",
        "MB/s",
        &rate(&decode, bytes.len() as f64 / 1e6),
    ));

    // Collective restore at P' = 1 and 2, then snapshots at P = 2 of the
    // restored state.
    let meta = CkptMeta { ..set.meta };
    let mut restore_medians = Vec::new();
    for nranks in [1usize, 2] {
        let set = set.clone();
        let results = scmd::run(nranks, ClusterModel::zero(), move |comm: &Communicator| {
            let mut plan = PlanBuilder::new(nranks);
            let mut restores = Vec::new();
            let mut restored = None;
            for k in 0..=s.heavy {
                comm.barrier();
                let t0 = Instant::now();
                let state =
                    cca_ckpt::restore(comm, &mut plan, &set, nranks, patch_work, AFFINITY_TOL);
                if k > 0 {
                    restores.push(t0.elapsed().as_secs_f64());
                }
                restored = Some(state);
            }
            let (dh, dobj) = restored.expect("at least one restore ran");
            let mut snapshots = Vec::new();
            if nranks == 2 {
                for k in 0..=s.heavy {
                    comm.barrier();
                    let t0 = Instant::now();
                    let taken = cca_ckpt::snapshot(
                        comm,
                        &mut plan,
                        &dh,
                        &dobj,
                        meta,
                        meta.step + k as u64,
                        Vec::new(),
                        None,
                    );
                    if k > 0 {
                        snapshots.push(t0.elapsed().as_secs_f64());
                    }
                    black_box(taken);
                }
            }
            (restores, snapshots)
        });
        let (restores, snapshots) = &results[0];
        restore_medians.push(crate::stats::median(restores));
        if nranks == 2 {
            out.push(Measured::median_of(
                "ckpt.snapshot_ms",
                "ms",
                &scaled(snapshots, 1e3),
            ));
        }
    }
    // One figure for both cohort sizes: the mean of the two medians.
    let restore_ms = 1e3 * restore_medians.iter().sum::<f64>() / restore_medians.len() as f64;
    out.push(Measured::single("ckpt.restore_ms", "ms", restore_ms));
    notes.push(format!(
        "ckpt.restore_ms: median {:.3} ms at P'=1, {:.3} ms at P'=2",
        1e3 * restore_medians[0],
        1e3 * restore_medians[1]
    ));
}

// --- serve, analyze ---------------------------------------------------------------

fn probe_fleet() -> Fleet {
    Fleet::new(FleetConfig {
        shards: 2,
        sessions_per_shard: 2,
        // Submissions are never drained in the submit probes.
        queue_capacity: 1 << 20,
        cache_capacity: 64,
        tenants: fleet_tenants(),
        ..FleetConfig::default()
    })
}

fn serve_probes(s: Sampling, out: &mut Vec<Measured>) {
    // Every submission a new key: route, admit (static check), queue.
    let mut fleet = probe_fleet();
    let mut k = 0u64;
    let submit = sample(s, || {
        k += 1;
        let job = IgnitionSpec {
            t0: 1000.0 + 1.0e-3 * k as f64,
            ..IgnitionSpec::default()
        }
        .job();
        black_box(
            fleet
                .submit(job)
                .expect("the queue is effectively unbounded"),
        );
    });
    out.push(Measured::median_of(
        "serve.submit_us",
        "us",
        &scaled(&submit, 1e6),
    ));

    // The same key again after it resolved: answered from the cache.
    let mut fleet = probe_fleet();
    let job = IgnitionSpec {
        t_end: 2.0e-6,
        chunks: 3,
        ..IgnitionSpec::default()
    }
    .job();
    fleet
        .submit(job.clone())
        .expect("first submission is accepted");
    fleet.run_until_idle();
    let hit = sample(s, || {
        black_box(
            fleet
                .submit(job.clone())
                .expect("a cached key is always accepted"),
        );
    });
    out.push(Measured::median_of(
        "serve.submit_hit_us",
        "us",
        &scaled(&hit, 1e6),
    ));

    let rd_job = RdSpec::default().job();
    let key = sample(s, || {
        black_box(black_box(&rd_job).key());
    });
    out.push(Measured::median_of(
        "serve.jobkey_us",
        "us",
        &scaled(&key, 1e6),
    ));

    // Scheduler rounds over the load generator's own mix: every step()
    // until the fleet drains is one sample.
    let jobs = if s.small_inputs { 40 } else { 240 };
    let mut fleet = probe_fleet();
    for job in fleet_request_stream(&FleetLoadgenConfig {
        jobs,
        ..FleetLoadgenConfig::default()
    }) {
        fleet
            .submit(job)
            .expect("the queue is effectively unbounded");
    }
    let mut steps = Vec::new();
    loop {
        let t0 = Instant::now();
        let more = fleet.step();
        steps.push(t0.elapsed().as_secs_f64());
        if !more {
            break;
        }
    }
    out.push(Measured::median_of(
        "serve.step_us",
        "us",
        &scaled(&steps, 1e6),
    ));

    // The static check every admitted job pays, on the Fig. 2 script.
    let fw = rd_framework();
    let analyzer = cca_analyze::Analyzer::new(&fw);
    let script = rd_script(&RdConfig::default());
    let check = sample(s, || {
        black_box(analyzer.check(black_box(&script)).is_ok());
    });
    out.push(Measured::median_of(
        "analyze.check_us",
        "us",
        &scaled(&check, 1e6),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_sized_to_the_minimum_and_counted() {
        let s = Sampling {
            batches: 7,
            min_batch: Duration::from_micros(200),
            heavy: 3,
            small_inputs: true,
        };
        let mut calls = 0u64;
        let samples = sample(s, || {
            calls += 1;
            black_box((0..50u64).sum::<u64>());
        });
        assert_eq!(samples.len(), 7);
        assert!(samples.iter().all(|x| *x > 0.0 && *x < 1e-3));
        // Far more calls than batches: a batch is many calls.
        assert!(calls > 7 * 10, "{calls}");
        let mut prepared = 0;
        let heavy = sample_heavy(s, || prepared += 1, |()| {});
        assert_eq!((heavy.len(), prepared), (3, 4));
    }

    #[test]
    fn every_probe_runs_at_smoke_size_and_names_a_registered_metric() {
        let host = HostFingerprint::read();
        let (mut out, mut notes) = (Vec::new(), Vec::new());
        run_all(Sampling::SMOKE, &host, &mut out, &mut notes);
        for m in &out {
            assert!(
                crate::metrics::PER_LAYER
                    .iter()
                    .any(|p| p.name == m.name && p.unit == m.unit),
                "{} [{}] is not in the registry",
                m.name,
                m.unit
            );
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {}",
                m.name,
                m.value
            );
        }
        let mut names: Vec<&str> = out.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), out.len(), "a probe reported twice");
    }
}
