//! Property tests of the banded-sweep contract: for random box sizes ×
//! band heights × pitch quanta, the banded diffusion RHS and Godunov
//! flux sweeps reproduce the untiled dense-pitch reference bit-for-bit
//! at 1, 2, and 4 executor workers (the kernels preserve per-cell
//! summation order). What production runs is pinned too: the
//! `DiffusionPhysics` and `InviscidFlux` `patch-rhs` ports give the bits
//! of the library entry points at [`KernelConfig::UNTILED`], the latter
//! for every flux component × two limiter settings.

use cca_components::diffusion::{diffusion_rhs_with_kernels, DiffusionPhysics};
use cca_components::euler::{
    EfmFluxComponent, GasProperties, GodunovFluxComponent, InviscidFluxComponent, StatesComponent,
};
use cca_components::ports::{
    ChemistryKernel, ChemistrySourcePort, PatchRhsPort, TransportKernel, TransportPort,
};
use cca_components::thermochem::ThermoChemistry;
use cca_components::transport_comp::DrfmComponent;
use cca_core::{Executor, Framework, Profiler};
use cca_hydro_solver::limiter::Limiter;
use cca_hydro_solver::muscl::{compute_rhs_cfg, FluxScheme};
use cca_hydro_solver::riemann::GodunovFlux;
use cca_hydro_solver::state::{prim_to_cons, Prim, NVARS};
use cca_hydro_solver::EfmFlux;
use cca_mesh::{IntBox, KernelConfig, PatchData};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

/// Species of the full H2-air mechanism ({T, Y1..Y8} state layout).
const NSPEC: usize = 9;
/// Patches per executor run — enough that 2 and 4 workers really share.
const NPATCH: usize = 4;

type Props = (Arc<dyn ChemistryKernel>, Arc<dyn TransportKernel>);

/// The diffusion corner of the flame assembly: real chemistry and
/// transport components wired into `DiffusionPhysics`.
fn assembly() -> Framework {
    let mut fw = Framework::new();
    fw.register_class("ThermoChemistry", || Box::new(ThermoChemistry::full()));
    fw.register_class("DRFMComponent", || Box::<DrfmComponent>::default());
    fw.register_class("DiffusionPhysics", || Box::<DiffusionPhysics>::default());
    cca_core::script::run_script(
        &mut fw,
        "instantiate ThermoChemistry chem\n\
         instantiate DRFMComponent drfm\n\
         instantiate DiffusionPhysics diffusion\n\
         connect diffusion chemistry chem chemistry\n\
         connect diffusion transport drfm transport\n",
    )
    .expect("assembly");
    fw
}

/// The flux corner of the shock assembly: `States` at `limiter`, the flux
/// component of `flux_class` and the γ database wired into `InviscidFlux`.
/// The framework owns the connections, so it is returned with the port.
fn euler_patch_rhs(flux_class: &str, limiter: f64) -> (Framework, Rc<dyn PatchRhsPort>) {
    let mut fw = Framework::new();
    fw.register_class("GasProperties", || Box::<GasProperties>::default());
    fw.register_class("States", || Box::<StatesComponent>::default());
    fw.register_class("GodunovFlux", || Box::<GodunovFluxComponent>::default());
    fw.register_class("EFMFlux", || Box::<EfmFluxComponent>::default());
    fw.register_class("InviscidFlux", || Box::<InviscidFluxComponent>::default());
    cca_core::script::run_script(
        &mut fw,
        &format!(
            "instantiate GasProperties gas\n\
             instantiate States states\n\
             instantiate {flux_class} flux\n\
             instantiate InviscidFlux inviscid\n\
             connect inviscid states states states\n\
             connect inviscid flux flux flux\n\
             connect inviscid gas gas gas\n\
             parameter states limiter {limiter}\n"
        ),
    )
    .expect("assembly");
    let port = fw
        .get_provides_port("inviscid", "patch-rhs")
        .expect("patch-rhs");
    (fw, port)
}

/// Chemistry/transport kernel snapshots from the real components,
/// assembled once for the whole test binary.
fn props() -> Props {
    static CELL: OnceLock<Props> = OnceLock::new();
    CELL.get_or_init(|| {
        let fw = assembly();
        let chem: Rc<dyn ChemistrySourcePort> = fw
            .get_provides_port("chem", "chemistry")
            .expect("chemistry");
        let transport: Rc<dyn TransportPort> = fw
            .get_provides_port("drfm", "transport")
            .expect("transport");
        (
            chem.kernel().expect("chemistry kernel"),
            transport.kernel().expect("transport kernel"),
        )
    })
    .clone()
}

/// Deterministic modular pseudo-noise in [0, 1).
fn noise(i: i64, j: i64, seed: u64) -> f64 {
    (i.wrapping_mul(31) + j.wrapping_mul(17) + seed as i64).rem_euclid(23) as f64 / 23.0
}

/// A physical flame-state patch at the given pitch quantum; values are a
/// pure function of `(i, j, seed)`, so any quantum carries equal bits.
fn diffusion_patch(nx: i64, ny: i64, quantum: usize, seed: u64) -> PatchData {
    let mut pd = PatchData::with_pitch_quantum(IntBox::sized(nx, ny), NSPEC, 1, quantum);
    for (i, j) in pd.total_box().cells() {
        let h = noise(i, j, seed);
        pd.set(0, i, j, 320.0 + 1100.0 * h);
        pd.set(1, i, j, 0.02 + 0.015 * h);
        pd.set(2, i, j, 0.20 + 0.02 * h);
        for v in 3..NSPEC {
            pd.set(v, i, j, 1.5e-3 + 1.0e-4 * v as f64 * h);
        }
    }
    pd
}

/// A conserved Euler patch (two ghost rings) with shocks that keep the
/// limiter branches live.
fn flux_patch(nx: i64, ny: i64, quantum: usize, seed: u64) -> PatchData {
    let mut pd = PatchData::with_pitch_quantum(IntBox::sized(nx, ny), NVARS, 2, quantum);
    for (i, j) in pd.total_box().cells() {
        let a = noise(i, j, seed);
        let b = noise(j, i, seed.wrapping_add(7));
        let w = Prim {
            rho: 0.7 + 0.6 * a,
            u: 0.5 - 1.0 * b,
            v: -0.3 + 0.6 * a,
            p: if b > 0.6 { 3.5 } else { 0.4 },
            zeta: a,
        };
        let u = prim_to_cons(&w, 1.4);
        for (var, &uv) in u.iter().enumerate() {
            pd.set(var, i, j, uv);
        }
    }
    pd
}

/// The patch sizes of one case: NPATCH boxes staggered off the base
/// dims so workers get unequal work.
fn boxes(nx: i64, ny: i64) -> Vec<(i64, i64)> {
    (0..NPATCH as i64).map(|k| (nx + k, ny + k % 3)).collect()
}

fn assert_bits_equal(got: &PatchData, want: &PatchData) -> Result<(), TestCaseError> {
    for (i, j) in got.interior.cells() {
        for v in 0..got.nvars {
            prop_assert_eq!(
                got.get(v, i, j).to_bits(),
                want.get(v, i, j).to_bits(),
                "var {} at ({}, {}): {} vs {}",
                v,
                i,
                j,
                got.get(v, i, j),
                want.get(v, i, j)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn tiled_diffusion_matches_untiled_at_any_worker_count(
        nx in 4i64..18,
        ny in 4i64..18,
        tile in 1usize..8,
        quantum in prop::sample::select(vec![1usize, 4, 8, 16]),
        seed in 0usize..1000,
    ) {
        let seed = seed as u64;
        let (chem, transport) = props();
        let (dx, dy) = (0.01, 0.012);
        // Untiled dense-pitch references, evaluated serially.
        let mut want = Vec::new();
        for (k, &(bx, by)) in boxes(nx, ny).iter().enumerate() {
            let state = diffusion_patch(bx, by, 1, seed + k as u64);
            let mut rhs = PatchData::new(state.interior, NSPEC, 0);
            diffusion_rhs_with_kernels(
                &chem, &transport, &state, &mut rhs, dx, dy, KernelConfig::UNTILED,
            );
            want.push(rhs);
        }
        let cfg = KernelConfig::tiled(tile);
        for workers in [1usize, 2, 4] {
            let items: Vec<(PatchData, PatchData)> = boxes(nx, ny)
                .iter()
                .enumerate()
                .map(|(k, &(bx, by))| {
                    let state = diffusion_patch(bx, by, quantum, seed + k as u64);
                    let rhs = PatchData::new(state.interior, NSPEC, 0);
                    (state, rhs)
                })
                .collect();
            let exec = Executor::new(Profiler::new());
            exec.set_workers(workers);
            let (c, t) = (chem.clone(), transport.clone());
            let out = exec
                .run("prop.diffusion-rhs", items, move |_, (state, rhs)| {
                    diffusion_rhs_with_kernels(&c, &t, state, rhs, dx, dy, cfg);
                })
                .into_result()
                .expect("kernels do not panic");
            for ((_, rhs), want) in out.iter().zip(&want) {
                assert_bits_equal(rhs, want)?;
            }
        }
    }

    #[test]
    fn tiled_flux_sweep_matches_untiled_at_any_worker_count(
        nx in 4i64..18,
        ny in 4i64..18,
        tile in 1usize..8,
        quantum in prop::sample::select(vec![1usize, 4, 8, 16]),
        seed in 0usize..1000,
    ) {
        let seed = seed as u64;
        let (dx, dy, gamma) = (0.05, 0.08, 1.4);
        let mut want = Vec::new();
        for (k, &(bx, by)) in boxes(nx, ny).iter().enumerate() {
            let state = flux_patch(bx, by, 1, seed + k as u64);
            let mut rhs = PatchData::new(state.interior, NVARS, 0);
            compute_rhs_cfg(
                &state, &mut rhs, dx, dy, gamma,
                &GodunovFlux, Limiter::MinMod, KernelConfig::UNTILED,
            );
            want.push(rhs);
        }
        let cfg = KernelConfig::tiled(tile);
        for workers in [1usize, 2, 4] {
            let items: Vec<(PatchData, PatchData)> = boxes(nx, ny)
                .iter()
                .enumerate()
                .map(|(k, &(bx, by))| {
                    let state = flux_patch(bx, by, quantum, seed + k as u64);
                    let rhs = PatchData::new(state.interior, NVARS, 0);
                    (state, rhs)
                })
                .collect();
            let exec = Executor::new(Profiler::new());
            exec.set_workers(workers);
            let out = exec
                .run("prop.flux-sweep", items, move |_, (state, rhs)| {
                    compute_rhs_cfg(
                        state, rhs, dx, dy, gamma, &GodunovFlux, Limiter::MinMod, cfg,
                    );
                })
                .into_result()
                .expect("kernels do not panic");
            for ((_, rhs), want) in out.iter().zip(&want) {
                assert_bits_equal(rhs, want)?;
            }
        }
        // What production runs: the `InviscidFlux` port sweeps through the
        // snapshots of whichever States setting and flux component are
        // connected, and gives the bits of the library's own instantiation.
        let schemes: [(&str, &dyn FluxScheme); 2] =
            [("GodunovFlux", &GodunovFlux), ("EFMFlux", &EfmFlux)];
        for (flux_class, scheme) in schemes {
            for (param, limiter) in [(1.0, Limiter::MinMod), (2.0, Limiter::VanLeer)] {
                let (_fw, port) = euler_patch_rhs(flux_class, param);
                let state = flux_patch(nx, ny, quantum, seed);
                let mut want = PatchData::new(state.interior, NVARS, 0);
                compute_rhs_cfg(
                    &state, &mut want, dx, dy, gamma, scheme, limiter, KernelConfig::UNTILED,
                );
                let mut got = PatchData::new(state.interior, NVARS, 0);
                port.eval_patch(&state, &mut got, dx, dy, 0.0);
                assert_bits_equal(&got, &want)?;
                prop_assert_eq!(port.evals(), 1);
            }
        }
    }
}

#[test]
fn patch_rhs_port_runs_the_untiled_kernel() {
    let fw = assembly();
    let port: Rc<dyn PatchRhsPort> = fw
        .get_provides_port("diffusion", "patch-rhs")
        .expect("patch-rhs");
    let (chem, transport) = props();
    let state = diffusion_patch(21, 19, 8, 5);
    let (dx, dy) = (0.01, 0.012);
    let mut want = PatchData::new(state.interior, NSPEC, 0);
    diffusion_rhs_with_kernels(
        &chem,
        &transport,
        &state,
        &mut want,
        dx,
        dy,
        KernelConfig::UNTILED,
    );
    let mut got = PatchData::new(state.interior, NSPEC, 0);
    port.eval_patch(&state, &mut got, dx, dy, 0.0);
    assert_bits_equal(&got, &want).expect("port output equals the untiled kernel");
    assert_eq!(port.evals(), 1);
}
