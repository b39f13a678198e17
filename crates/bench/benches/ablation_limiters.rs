//! **Ablation: slope limiters** — the `States` component's design choice.
//! L1 density error on the Sod shock tube against the exact Riemann
//! solution for each limiter, plus overshoot (a TVD violation detector).

use cca_bench::banner;
use cca_hydro_solver::muscl::{compute_rhs_cfg, fill_uniform, max_wave_speed};
use cca_hydro_solver::riemann::{sample, GodunovFlux};
use cca_hydro_solver::{cons_to_prim, prim_to_cons, Limiter, Prim, NVARS};
use cca_mesh::boxes::IntBox;
use cca_mesh::data::PatchData;
use cca_mesh::KernelConfig;

fn sod_run(limiter: Limiter, n: i64) -> (f64, f64) {
    let gamma = 1.4;
    let dx = 1.0 / n as f64;
    let left = Prim {
        rho: 1.0,
        u: 0.0,
        v: 0.0,
        p: 1.0,
        zeta: 1.0,
    };
    let right = Prim {
        rho: 0.125,
        u: 0.0,
        v: 0.0,
        p: 0.1,
        zeta: 0.0,
    };
    let mut pd = PatchData::new(IntBox::sized(n, 1), NVARS, 2);
    fill_uniform(&mut pd, &left, gamma);
    for (i, j) in IntBox::sized(n, 1).cells() {
        let w = if (i as f64 + 0.5) * dx < 0.5 {
            left
        } else {
            right
        };
        let u = prim_to_cons(&w, gamma);
        for (var, uv) in u.iter().enumerate().take(NVARS) {
            pd.set(var, i, j, *uv);
        }
    }
    let fill_ghosts = |pd: &mut PatchData| {
        let interior = pd.interior;
        let total = pd.total_box();
        for var in 0..NVARS {
            for (i, j) in total.cells() {
                if !interior.contains(i, j) {
                    let ii = i.clamp(interior.lo[0], interior.hi[0]);
                    let jj = j.clamp(interior.lo[1], interior.hi[1]);
                    let v = pd.get(var, ii, jj);
                    pd.set(var, i, j, v);
                }
            }
        }
    };
    let t_end = 0.2;
    let mut t = 0.0;
    let mut rhs = PatchData::new(pd.interior, NVARS, 0);
    let mut rhs2 = PatchData::new(pd.interior, NVARS, 0);
    let mut stage = pd.clone();
    while t < t_end {
        let smax = max_wave_speed(&pd, gamma, dx, 1e30);
        let dt = (0.4 / smax).min(t_end - t);
        fill_ghosts(&mut pd);
        compute_rhs_cfg(
            &pd,
            &mut rhs,
            dx,
            1e30,
            gamma,
            &GodunovFlux,
            limiter,
            KernelConfig::UNTILED,
        );
        let interior = pd.interior;
        for (i, j) in interior.cells() {
            for var in 0..NVARS {
                stage.set(var, i, j, pd.get(var, i, j) + dt * rhs.get(var, i, j));
            }
        }
        fill_ghosts(&mut stage);
        compute_rhs_cfg(
            &stage,
            &mut rhs2,
            dx,
            1e30,
            gamma,
            &GodunovFlux,
            limiter,
            KernelConfig::UNTILED,
        );
        for (i, j) in interior.cells() {
            for var in 0..NVARS {
                let v = pd.get(var, i, j) + 0.5 * dt * (rhs.get(var, i, j) + rhs2.get(var, i, j));
                pd.set(var, i, j, v);
            }
        }
        t += dt;
    }
    let mut l1 = 0.0;
    let mut overshoot = 0.0f64;
    for i in 0..n {
        let x = (i as f64 + 0.5) * dx;
        let exact = sample(&left, &right, gamma, (x - 0.5) / t_end);
        let got = cons_to_prim(
            &[
                pd.get(0, i, 0),
                pd.get(1, i, 0),
                pd.get(2, i, 0),
                pd.get(3, i, 0),
                pd.get(4, i, 0),
            ],
            gamma,
        );
        l1 += (got.rho - exact.rho).abs() * dx;
        overshoot = overshoot.max(got.rho - 1.0).max(0.125 - got.rho - 1.0);
    }
    (l1, overshoot.max(0.0))
}

fn main() {
    banner(
        "Ablation: limiters",
        "States-component reconstruction choice",
    );
    println!("limiter        L1(rho) @200   overshoot @200   L1(rho) @400");
    for (name, lim) in [
        ("first-order", Limiter::FirstOrder),
        ("minmod", Limiter::MinMod),
        ("van-leer", Limiter::VanLeer),
        ("mc", Limiter::MonotonizedCentral),
        ("superbee", Limiter::Superbee),
        ("unlimited", Limiter::None),
    ] {
        let (l1_200, over) = sod_run(lim, 200);
        let (l1_400, _) = sod_run(lim, 400);
        println!("{name:12}   {l1_200:12.5}   {over:14.5}   {l1_400:12.5}");
    }
    println!("\nexpected: second-order limiters beat first-order; the");
    println!("unlimited slope overshoots (oscillates) at the shock; errors");
    println!("shrink with resolution for all stable choices.");
}
