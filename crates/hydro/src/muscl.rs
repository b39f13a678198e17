//! MUSCL finite-volume right-hand side on one patch: slope-limited
//! interface states (the `States` component), a pluggable interface flux
//! (the `GodunovFlux` / `EFMFlux` components), and the conservative
//! divergence — one sweep ([`muscl_rhs`]), generic over the first two so
//! that the paper's `InviscidFlux` adaptor runs it over whatever
//! components are connected to it.

use crate::limiter::Limiter;
use crate::state::{cons_to_prim, prim_to_cons, Prim, NVARS};
use cca_core::scratch;
use cca_mesh::data::PatchData;
use cca_mesh::layout::KernelConfig;

/// An interface flux in the x-orientation; y fluxes are obtained by
/// rotating the states. Object-safe so assemblies can swap implementations
/// through a CCA port without recompiling.
pub trait FluxScheme {
    /// Numerical flux across an x-normal interface between reconstructed
    /// left and right states.
    fn flux_x(&self, left: &Prim, right: &Prim, gamma: f64) -> [f64; NVARS];

    /// Scheme name for reports.
    fn name(&self) -> &'static str;
}

fn swap_uv(w: &Prim) -> Prim {
    Prim {
        rho: w.rho,
        u: w.v,
        v: w.u,
        p: w.p,
        zeta: w.zeta,
    }
}

/// Load the conserved vector of cell `(i, j)`.
#[inline]
fn load(pd: &PatchData, i: i64, j: i64) -> [f64; NVARS] {
    let mut u = [0.0; NVARS];
    for (var, uk) in u.iter_mut().enumerate() {
        *uk = pd.get(var, i, j);
    }
    u
}

/// Reconstruct the primitive states at the interface between cells `c`
/// (left) and `d` (right), using neighbours `b` (left of c) and `e`
/// (right of d). Limiting is applied to primitive variables. Public: this
/// is the kernel behind the paper's `States` component.
pub fn interface_states(
    b: &[f64; NVARS],
    c: &[f64; NVARS],
    d: &[f64; NVARS],
    e: &[f64; NVARS],
    gamma: f64,
    limiter: Limiter,
) -> (Prim, Prim) {
    let wb = cons_to_prim(b, gamma);
    let wc = cons_to_prim(c, gamma);
    let wd = cons_to_prim(d, gamma);
    let we = cons_to_prim(e, gamma);
    let fields = |w: &Prim| [w.rho, w.u, w.v, w.p, w.zeta];
    let fb = fields(&wb);
    let fc = fields(&wc);
    let fd = fields(&wd);
    let fe = fields(&we);
    let mut left = [0.0; NVARS];
    let mut right = [0.0; NVARS];
    for (k, (l, r)) in left.iter_mut().zip(right.iter_mut()).enumerate() {
        let slope_c = limiter.slope(fc[k] - fb[k], fd[k] - fc[k]);
        let slope_d = limiter.slope(fd[k] - fc[k], fe[k] - fd[k]);
        *l = fc[k] + 0.5 * slope_c;
        *r = fd[k] - 0.5 * slope_d;
    }
    // Guard positivity of the reconstructed thermodynamic state; if even
    // the cell average has gone non-physical (a transient RK2 stage near
    // a strong shock), apply a floor rather than propagate NaNs — the
    // standard production-code positivity fix.
    let guard = |f: [f64; NVARS], fallback: &Prim| -> Prim {
        let w = if f[0] > 0.0 && f[3] > 0.0 {
            Prim {
                rho: f[0],
                u: f[1],
                v: f[2],
                p: f[3],
                zeta: f[4],
            }
        } else {
            *fallback
        };
        Prim {
            rho: w.rho.max(1e-10),
            p: w.p.max(1e-10),
            ..w
        }
    };
    (guard(left, &wc), guard(right, &wd))
}

/// Accumulate `−∇·F` for every interior cell of `pd` into `rhs` (same
/// interior box, zero ghosts needed). `pd` must have ≥ 2 filled ghost
/// layers. `dx`/`dy` are this level's cell sizes. The one MUSCL sweep of
/// the workspace (DESIGN.md §13), generic over the two operations the
/// paper makes swappable components: `reconstruct` (the `States`
/// component; arguments as [`interface_states`] without the limiter) and
/// `flux_x` (`GodunovFlux` / `EFMFlux`; as [`FluxScheme::flux_x`]).
/// [`compute_rhs_cfg`] instantiates it with this crate's own functions,
/// the `InviscidFlux` component with the kernel snapshots of whatever is
/// connected to its `states` and `flux` ports.
///
/// The j-loop is blocked into bands of `cfg.band_rows` rows
/// ([`KernelConfig::UNTILED`] is one band); within a band the
/// x-interface sweep runs first, then the y-interface sweep for the
/// interfaces *below* each cell row (the final `hi+1` interface rides
/// with the last band). Every cell still receives its four flux
/// contributions in the seed order — `+fᵢ/dx, −fᵢ₊₁/dx, +gⱼ/dy, −gⱼ₊₁/dy`
/// — so results are bit-identical at any band height and pitch. Interface
/// fluxes of one row are staged in pooled scratch and applied per
/// variable over dense row slices (bounds hoisted, no per-cell
/// `contains` branches).
#[allow(clippy::too_many_arguments)]
pub fn muscl_rhs(
    pd: &PatchData,
    rhs: &mut PatchData,
    dx: f64,
    dy: f64,
    gamma: f64,
    reconstruct: impl Fn(
        &[f64; NVARS],
        &[f64; NVARS],
        &[f64; NVARS],
        &[f64; NVARS],
        f64,
    ) -> (Prim, Prim),
    flux_x: impl Fn(&Prim, &Prim, f64) -> [f64; NVARS],
    cfg: KernelConfig,
) {
    assert!(pd.nghost >= 2, "MUSCL needs two ghost layers");
    assert_eq!(pd.nvars, NVARS);
    assert_eq!(rhs.nvars, NVARS);
    let interior = pd.interior;
    for var in 0..NVARS {
        rhs.fill_var(var, 0.0);
    }
    let nxi = interior.nx() as usize;
    // Column offsets of the interior inside stored rows of pd / rhs.
    let c0 = (interior.lo[0] - pd.total_box().lo[0]) as usize;
    let r0 = (interior.lo[0] - rhs.total_box().lo[0]) as usize;
    // One row of staged interface fluxes, AoS per interface.
    let mut fx = scratch::take_f64((nxi + 1) * NVARS);
    let mut fy = scratch::take_f64(nxi * NVARS);

    let band_h = cfg.band_rows(interior.ny() as usize) as i64;
    let mut j0 = interior.lo[1];
    while j0 <= interior.hi[1] {
        let j1 = (j0 + band_h - 1).min(interior.hi[1]);
        // x fluxes: interfaces i-1/2 for i in lo..=hi+1, band rows only.
        for j in j0..=j1 {
            let rows: [&[f64]; NVARS] = std::array::from_fn(|var| pd.row(var, j));
            for ii in 0..=nxi {
                let s = c0 + ii;
                let b: [f64; NVARS] = std::array::from_fn(|var| rows[var][s - 2]);
                let c: [f64; NVARS] = std::array::from_fn(|var| rows[var][s - 1]);
                let d: [f64; NVARS] = std::array::from_fn(|var| rows[var][s]);
                let e: [f64; NVARS] = std::array::from_fn(|var| rows[var][s + 1]);
                let (wl, wr) = reconstruct(&b, &c, &d, &e, gamma);
                fx[ii * NVARS..(ii + 1) * NVARS].copy_from_slice(&flux_x(&wl, &wr, gamma));
            }
            // Per cell and variable: += f_i/dx, then -= f_{i+1}/dx (the
            // seed's two rounded operations, in the seed's order).
            for var in 0..NVARS {
                let out = &mut rhs.row_mut(var, j)[r0..r0 + nxi];
                for (ii, o) in out.iter_mut().enumerate() {
                    let fl = fx[ii * NVARS + var];
                    let fr = fx[(ii + 1) * NVARS + var];
                    *o = (*o + fl / dx) - fr / dx;
                }
            }
        }
        // y fluxes via u/v rotation: interface row j sits below cell row
        // j; the band owns interfaces j0..=j1, plus hi+1 in the last band.
        let iface_hi = if j1 == interior.hi[1] { j1 + 1 } else { j1 };
        for j in j0..=iface_hi {
            let b_r: [&[f64]; NVARS] = std::array::from_fn(|var| pd.row(var, j - 2));
            let c_r: [&[f64]; NVARS] = std::array::from_fn(|var| pd.row(var, j - 1));
            let d_r: [&[f64]; NVARS] = std::array::from_fn(|var| pd.row(var, j));
            let e_r: [&[f64]; NVARS] = std::array::from_fn(|var| pd.row(var, j + 1));
            for ii in 0..nxi {
                let s = c0 + ii;
                let b: [f64; NVARS] = std::array::from_fn(|var| b_r[var][s]);
                let c: [f64; NVARS] = std::array::from_fn(|var| c_r[var][s]);
                let d: [f64; NVARS] = std::array::from_fn(|var| d_r[var][s]);
                let e: [f64; NVARS] = std::array::from_fn(|var| e_r[var][s]);
                let (wl, wr) = reconstruct(&b, &c, &d, &e, gamma);
                let f_rot = flux_x(&swap_uv(&wl), &swap_uv(&wr), gamma);
                // Rotate the momentum components back.
                let f = [f_rot[0], f_rot[2], f_rot[1], f_rot[3], f_rot[4]];
                fy[ii * NVARS..(ii + 1) * NVARS].copy_from_slice(&f);
            }
            for var in 0..NVARS {
                if j > interior.lo[1] {
                    let out = &mut rhs.row_mut(var, j - 1)[r0..r0 + nxi];
                    for (ii, o) in out.iter_mut().enumerate() {
                        *o -= fy[ii * NVARS + var] / dy;
                    }
                }
                if j <= interior.hi[1] {
                    let out = &mut rhs.row_mut(var, j)[r0..r0 + nxi];
                    for (ii, o) in out.iter_mut().enumerate() {
                        *o += fy[ii * NVARS + var] / dy;
                    }
                }
            }
        }
        j0 = j1 + 1;
    }
}

/// [`muscl_rhs`] with this crate's reconstruction at `limiter` and the
/// flux of `scheme` — the entry point the wall-clock probes, the limiter
/// ablation and the bit-identity tests call.
#[allow(clippy::too_many_arguments)]
pub fn compute_rhs_cfg(
    pd: &PatchData,
    rhs: &mut PatchData,
    dx: f64,
    dy: f64,
    gamma: f64,
    scheme: &dyn FluxScheme,
    limiter: Limiter,
    cfg: KernelConfig,
) {
    muscl_rhs(
        pd,
        rhs,
        dx,
        dy,
        gamma,
        |b, c, d, e, g| interface_states(b, c, d, e, g, limiter),
        |left, right, g| scheme.flux_x(left, right, g),
        cfg,
    );
}

/// Largest signal speed over the interior of a patch (per axis scaled by
/// cell size), for the CFL time step: `dt = cfl / max((|u|+c)/dx + (|v|+c)/dy)`.
pub fn max_wave_speed(pd: &PatchData, gamma: f64, dx: f64, dy: f64) -> f64 {
    let mut m: f64 = 0.0;
    for (i, j) in pd.interior.cells() {
        let u = load(pd, i, j);
        let w = cons_to_prim(&u, gamma);
        // Positivity floor: a transiently non-physical cell must not turn
        // the global dt into NaN.
        let c = (gamma * w.p.max(1e-10) / w.rho.max(1e-10)).sqrt();
        let sx = (w.u.abs() + c) / dx;
        let sy = (w.v.abs() + c) / dy;
        m = m.max(sx + sy);
    }
    m
}

/// Fill a patch with a uniform primitive state (test/IC helper).
pub fn fill_uniform(pd: &mut PatchData, w: &Prim, gamma: f64) {
    let u = prim_to_cons(w, gamma);
    let total = pd.total_box();
    for (i, j) in total.cells() {
        for (var, &uv) in u.iter().enumerate() {
            pd.set(var, i, j, uv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efm::EfmFlux;
    use crate::riemann::GodunovFlux;
    use cca_mesh::boxes::IntBox;

    fn uniform_patch(w: &Prim) -> PatchData {
        let mut pd = PatchData::new(IntBox::sized(8, 8), NVARS, 2);
        fill_uniform(&mut pd, w, 1.4);
        pd
    }

    #[test]
    fn uniform_flow_has_zero_rhs() {
        let w = Prim {
            rho: 1.2,
            u: 0.7,
            v: -0.4,
            p: 1.5,
            zeta: 0.3,
        };
        let pd = uniform_patch(&w);
        let mut rhs = PatchData::new(pd.interior, NVARS, 0);
        for scheme in [&GodunovFlux as &dyn FluxScheme, &EfmFlux] {
            compute_rhs_cfg(
                &pd,
                &mut rhs,
                0.1,
                0.1,
                1.4,
                scheme,
                Limiter::VanLeer,
                KernelConfig::UNTILED,
            );
            for var in 0..NVARS {
                assert!(
                    rhs.interior_max_abs(var) < 1e-8,
                    "{} var {var}: {}",
                    scheme.name(),
                    rhs.interior_max_abs(var)
                );
            }
        }
    }

    #[test]
    fn rhs_conserves_totals_in_periodicity_free_interior() {
        // With a locally varying field, the sum of RHS over cells away
        // from the patch edge telescopes: total change equals boundary
        // fluxes only. Check by comparing sum over the full interior with
        // the flux difference computed through a wider patch.
        let mut pd = PatchData::new(IntBox::sized(12, 4), NVARS, 2);
        let gamma = 1.4;
        for (i, j) in pd.total_box().cells() {
            let w = Prim {
                rho: 1.0 + 0.1 * ((i as f64) * 0.3).sin(),
                u: 0.2,
                v: 0.0,
                p: 1.0 + 0.05 * ((i as f64) * 0.3).cos(),
                zeta: 0.0,
            };
            let u = prim_to_cons(&w, gamma);
            for (var, &uv) in u.iter().enumerate() {
                pd.set(var, i, j, uv);
            }
        }
        let mut rhs = PatchData::new(pd.interior, NVARS, 0);
        compute_rhs_cfg(
            &pd,
            &mut rhs,
            0.1,
            0.1,
            gamma,
            &GodunovFlux,
            Limiter::MinMod,
            KernelConfig::UNTILED,
        );
        // Mass: interior sum of RHS = (F_left_boundary - F_right)/dx summed
        // over rows — nonzero in general but finite; here just require
        // finiteness and y-invariance (the field is y-independent).
        for var in 0..NVARS {
            for i in pd.interior.lo[0]..=pd.interior.hi[0] {
                let v0 = rhs.get(var, i, 0);
                for j in 1..=3 {
                    assert!(
                        (rhs.get(var, i, j) - v0).abs() < 1e-10,
                        "y-dependence crept in at var {var}"
                    );
                }
            }
        }
    }

    /// 1D Sod shock tube advanced with RK2 matches the exact solution.
    #[test]
    fn sod_shock_tube_converges_to_exact() {
        use crate::riemann::sample;
        let gamma = 1.4;
        let n = 200i64;
        let dx = 1.0 / n as f64;
        let mut pd = PatchData::new(IntBox::sized(n, 1), NVARS, 2);
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
        for (i, j) in pd.total_box().cells() {
            let w = if (i as f64 + 0.5) * dx < 0.5 {
                left
            } else {
                right
            };
            let u = prim_to_cons(&w, gamma);
            for (var, &uv) in u.iter().enumerate() {
                pd.set(var, i, j, uv);
            }
        }
        let t_end = 0.2;
        let mut t = 0.0;
        let mut rhs = PatchData::new(pd.interior, NVARS, 0);
        let mut stage = pd.clone();
        while t < t_end {
            let smax = max_wave_speed(&pd, gamma, dx, 1e30);
            let dt = (0.4 / smax).min(t_end - t);
            // Heun: stage 1.
            fill_edge_ghosts_1d(&mut pd);
            compute_rhs_cfg(
                &pd,
                &mut rhs,
                dx,
                1e30,
                gamma,
                &GodunovFlux,
                Limiter::MinMod,
                KernelConfig::UNTILED,
            );
            for (i, j) in pd.interior.cells() {
                for var in 0..NVARS {
                    stage.set(var, i, j, pd.get(var, i, j) + dt * rhs.get(var, i, j));
                }
            }
            fill_edge_ghosts_1d(&mut stage);
            let mut rhs2 = PatchData::new(pd.interior, NVARS, 0);
            compute_rhs_cfg(
                &stage,
                &mut rhs2,
                dx,
                1e30,
                gamma,
                &GodunovFlux,
                Limiter::MinMod,
                KernelConfig::UNTILED,
            );
            let interior = pd.interior;
            for (i, j) in interior.cells() {
                for var in 0..NVARS {
                    let v =
                        pd.get(var, i, j) + 0.5 * dt * (rhs.get(var, i, j) + rhs2.get(var, i, j));
                    pd.set(var, i, j, v);
                }
            }
            t += dt;
        }
        // Compare density with the exact solution; L1 error should be
        // small (first-order at shocks: ~1e-2 at n = 200).
        let mut l1 = 0.0;
        for i in 0..n {
            let x = (i as f64 + 0.5) * dx;
            let exact = sample(&left, &right, gamma, (x - 0.5) / t_end);
            l1 += (pd.get(0, i, 0) - exact.rho).abs() * dx;
        }
        assert!(l1 < 0.012, "L1 density error = {l1}");
    }

    /// Zero-gradient ghost fill along x for the 1D test (y ghosts copy the
    /// interior row so the y-flux differences vanish).
    fn fill_edge_ghosts_1d(pd: &mut PatchData) {
        let int = pd.interior;
        let total = pd.total_box();
        for var in 0..NVARS {
            for j in total.lo[1]..=total.hi[1] {
                let jj = j.clamp(int.lo[1], int.hi[1]);
                for i in total.lo[0]..=total.hi[0] {
                    let ii = i.clamp(int.lo[0], int.hi[0]);
                    if ii != i || jj != j {
                        let v = pd.get(var, ii, jj);
                        pd.set(var, i, j, v);
                    }
                }
            }
        }
    }

    #[test]
    fn symmetric_blast_stays_symmetric() {
        let gamma = 1.4;
        let n = 16i64;
        let mut pd = PatchData::new(IntBox::sized(n, n), NVARS, 2);
        for (i, j) in pd.total_box().cells() {
            let cx = (i - n / 2) as f64 + 0.5;
            let cy = (j - n / 2) as f64 + 0.5;
            let r2 = cx * cx + cy * cy;
            let w = Prim {
                rho: 1.0,
                u: 0.0,
                v: 0.0,
                p: if r2 < 9.0 { 10.0 } else { 0.1 },
                zeta: 0.0,
            };
            let u = prim_to_cons(&w, gamma);
            for (var, &uv) in u.iter().enumerate() {
                pd.set(var, i, j, uv);
            }
        }
        let mut rhs = PatchData::new(pd.interior, NVARS, 0);
        compute_rhs_cfg(
            &pd,
            &mut rhs,
            0.1,
            0.1,
            gamma,
            &GodunovFlux,
            Limiter::VanLeer,
            KernelConfig::UNTILED,
        );
        // Mirror symmetry: rho-RHS at (i,j) equals (n-1-i, j) and (i, n-1-j).
        for (i, j) in pd.interior.cells() {
            let a = rhs.get(0, i, j);
            let b = rhs.get(0, n - 1 - i, j);
            let c = rhs.get(0, i, n - 1 - j);
            assert!((a - b).abs() < 1e-9, "x mirror broken at ({i},{j})");
            assert!((a - c).abs() < 1e-9, "y mirror broken at ({i},{j})");
        }
    }

    /// Shocked, fully 2D field for layout/tiling regression tests.
    fn wavy_patch(nx: i64, ny: i64, quantum: usize) -> PatchData {
        let gamma = 1.4;
        let mut pd = PatchData::with_pitch_quantum(IntBox::sized(nx, ny), NVARS, 2, quantum);
        for (i, j) in pd.total_box().cells() {
            let (x, y) = (i as f64 * 0.37, j as f64 * 0.23);
            let w = Prim {
                rho: 1.0 + 0.4 * (x + y).sin().abs(),
                u: 0.6 * x.cos(),
                v: -0.3 * (y * 1.7).sin(),
                p: if (x.sin() * y.cos()) > 0.3 { 5.0 } else { 0.4 },
                zeta: 0.5 + 0.5 * (x - y).sin(),
            };
            let u = prim_to_cons(&w, gamma);
            for (var, &uv) in u.iter().enumerate() {
                pd.set(var, i, j, uv);
            }
        }
        pd
    }

    #[test]
    fn tiled_sweep_is_bit_identical_to_untiled() {
        let schemes = [&GodunovFlux as &dyn FluxScheme, &EfmFlux];
        for scheme in schemes {
            let reference = wavy_patch(19, 13, 1);
            let mut want = PatchData::new(reference.interior, NVARS, 0);
            compute_rhs_cfg(
                &reference,
                &mut want,
                0.05,
                0.08,
                1.4,
                scheme,
                Limiter::VanLeer,
                KernelConfig::UNTILED,
            );
            for (tile, quantum) in [(1, 8), (3, 16), (5, 1), (16, 8), (64, 8)] {
                let pd = wavy_patch(19, 13, quantum);
                let mut got = PatchData::new(pd.interior, NVARS, 0);
                compute_rhs_cfg(
                    &pd,
                    &mut got,
                    0.05,
                    0.08,
                    1.4,
                    scheme,
                    Limiter::VanLeer,
                    KernelConfig::tiled(tile),
                );
                for (i, j) in pd.interior.cells() {
                    for var in 0..NVARS {
                        assert_eq!(
                            got.get(var, i, j).to_bits(),
                            want.get(var, i, j).to_bits(),
                            "{} tile {tile} quantum {quantum} var {var} at ({i},{j})",
                            scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cfl_speed_positive_and_scales() {
        let w = Prim {
            rho: 1.0,
            u: 2.0,
            v: 1.0,
            p: 1.0,
            zeta: 0.0,
        };
        let pd = uniform_patch(&w);
        let s1 = max_wave_speed(&pd, 1.4, 0.1, 0.1);
        let s2 = max_wave_speed(&pd, 1.4, 0.05, 0.05);
        assert!(s1 > 0.0);
        assert!((s2 / s1 - 2.0).abs() < 1e-12);
    }
}
