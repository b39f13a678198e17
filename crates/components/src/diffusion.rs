//! `DiffusionPhysics` — the patch-at-a-time evaluator of the diffusive
//! transport source term `K ∇·(B ∇Φ)` of paper Eq. 3, with
//! `Φ = {T, Y₁…Y_{N−1}}`, `K = (1/ρ){1/cp, 1, …}`, `B = {λ, ρD₁, …}`.
//!
//! The stencil lives in [`diffusion_rhs_with_kernels`], written once over
//! the `Send + Sync` kernel snapshots the connected chemistry and
//! transport components hand out. The `patch-rhs` port and the executor
//! both run the `DiffusionKernel` snapshot, at every worker count.

use crate::ports::{
    ChemistryKernel, ChemistrySourcePort, PatchKernel, PatchRhsPort, TransportKernel, TransportPort,
};
use cca_core::{scratch, Component, Services};
use cca_mesh::data::PatchData;
use cca_mesh::layout::KernelConfig;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Fixed ambient pressure of the open-domain flame (Pa): "pressure is
/// assumed to be constant in time and space (i.e. burning in an open
/// domain)".
const P0: f64 = 101_325.0;

/// The 5-point diffusive RHS of one patch over the chemistry and
/// transport kernel snapshots, swept in bands (DESIGN.md §13) — the one
/// copy of the stencil, called by the `patch-rhs` snapshot, the wall-clock
/// probes and the bit-identity tests.
///
/// The j-loop is blocked into bands of `cfg.band_rows` interior rows:
/// production passes [`KernelConfig::UNTILED`], one band over the whole
/// patch; the wall-clock probes and bit-identity tests also pass finite
/// band heights. The per-cell transport/thermo property tables (`λ`,
/// `1/ρcp`, `1/ρ` per cell; `ρD` per species plane) are computed into
/// pooled scratch sized for **one band plus its one-row stencil halo**
/// and consumed by the stencil sweep of that band. Properties are pure
/// per-cell functions, so recomputing the band-halo rows gives the exact
/// values a whole-patch table does, and every cell's arithmetic is the
/// seed expression in the seed order: results are bit-identical at any
/// band height and pitch. The recomputation is also why banding does not
/// pay: 2 extra property rows per 16-row band is +12.5 % of the dominant
/// cost.
pub fn diffusion_rhs_with_kernels(
    chem: &Arc<dyn ChemistryKernel>,
    transport: &Arc<dyn TransportKernel>,
    state: &PatchData,
    rhs: &mut PatchData,
    dx: f64,
    dy: f64,
    cfg: KernelConfig,
) {
    let n = chem.n_species();
    assert_eq!(state.nvars, n, "state layout is {{T, Y1..Y_{{N-1}}}}");
    assert!(state.nghost >= 1);
    let mut w = scratch::take_f64(n);
    chem.molar_masses(&mut w);

    let int = state.interior;
    let ring = int.grow(1);
    let nxr = ring.nx() as usize;
    let nxi = int.nx() as usize;
    let band_h = cfg.band_rows(int.ny() as usize);
    // One band of stencil rows plus the halo row above and below.
    let rows_cap = band_h + 2;
    let mut lambda = scratch::take_f64(rows_cap * nxr);
    let mut inv_rho_cp = scratch::take_f64(rows_cap * nxr);
    let mut inv_rho = scratch::take_f64(rows_cap * nxr);
    // One dense plane per species so each species sweep is unit-stride.
    let mut rho_d = scratch::take_f64(n * rows_cap * nxr);
    // Per-cell working slices, hoisted out of the property loop.
    let mut y = scratch::take_f64(n);
    let mut x = scratch::take_f64(n);
    let mut d = scratch::take_f64(n);

    // Column offsets of the ring / the interior inside a stored row.
    // `rhs` may carry a different ghost width than `state`, so its
    // interior column offset is computed from its own total box.
    let c0r = (ring.lo[0] - state.total_box().lo[0]) as usize;
    let c0i = c0r + 1;
    let r0 = (int.lo[0] - rhs.total_box().lo[0]) as usize;

    let mut j0 = int.lo[1];
    while j0 <= int.hi[1] {
        let j1 = (j0 + band_h as i64 - 1).min(int.hi[1]);
        // Property pass over the band's ring rows [j0-1, j1+1].
        for (r, j) in (j0 - 1..=j1 + 1).enumerate() {
            let trow = &state.row(0, j)[c0r..c0r + nxr];
            for (ii, tv) in trow.iter().enumerate() {
                let t = tv.max(200.0);
                let mut bulk = 1.0;
                for (v, yv) in y.iter_mut().take(n - 1).enumerate() {
                    *yv = state.row(1 + v, j)[c0r + ii];
                    bulk -= *yv;
                }
                y[n - 1] = bulk;
                let w_mean = chem.mean_molar_mass(&y);
                let rho = chem.density(t, P0, &y);
                for (v, xv) in x.iter_mut().enumerate() {
                    *xv = y[v] * w_mean / w[v];
                }
                transport.mix_diffusivities(t, P0, &x, &mut d);
                let cell = r * nxr + ii;
                lambda[cell] = transport.mix_conductivity(t, &x);
                let cp = chem.cp_mass(t, &y);
                for (v, di) in d.iter().enumerate() {
                    rho_d[v * rows_cap * nxr + cell] = rho * di;
                }
                inv_rho_cp[cell] = 1.0 / (rho * cp);
                inv_rho[cell] = 1.0 / rho;
            }
        }
        // Stencil pass: consume the band tables while they are hot.
        for j in j0..=j1 {
            // Table row of stencil row `j` (halo row j0-1 is table row 0).
            let tj = (j - (j0 - 1)) as usize;
            let (lam_s, rest) = lambda[(tj - 1) * nxr..(tj + 2) * nxr].split_at(nxr);
            let (lam_c, lam_n) = rest.split_at(nxr);
            let ircp = &inv_rho_cp[tj * nxr..(tj + 1) * nxr];
            // Temperature: (1/ρcp) ∇·(λ∇T), 5-point form with
            // face-averaged coefficients.
            let (t_s, t_c, t_n) = state.rows3(0, j);
            let out = rhs.row_mut(0, j);
            for ii in 0..nxi {
                let p = ii + 1; // ring/table column of interior column ii
                let s = c0i + ii; // stored-row column
                let lam_cc = lam_c[p];
                let lam_e = 0.5 * (lam_cc + lam_c[p + 1]);
                let lam_w = 0.5 * (lam_cc + lam_c[p - 1]);
                let lam_nn = 0.5 * (lam_cc + lam_n[p]);
                let lam_ss = 0.5 * (lam_cc + lam_s[p]);
                let t_cc = t_c[s];
                let div_x = lam_e * (t_c[s + 1] - t_cc) - lam_w * (t_cc - t_c[s - 1]);
                let div_y = lam_nn * (t_n[s] - t_cc) - lam_ss * (t_cc - t_s[s]);
                let div_t = div_x / (dx * dx) + div_y / (dy * dy);
                out[r0 + ii] = ircp[p] * div_t;
            }
            // Species: (1/ρ) ∇·(ρD_i ∇Y_i) for the N-1 stored species.
            let irho = &inv_rho[tj * nxr..(tj + 1) * nxr];
            for v in 0..n - 1 {
                let plane = &rho_d[v * rows_cap * nxr..(v + 1) * rows_cap * nxr];
                let (b_s, rest) = plane[(tj - 1) * nxr..(tj + 2) * nxr].split_at(nxr);
                let (b_c, b_n) = rest.split_at(nxr);
                let (y_s, y_c, y_n) = state.rows3(1 + v, j);
                let out = rhs.row_mut(1 + v, j);
                for ii in 0..nxi {
                    let p = ii + 1;
                    let s = c0i + ii;
                    let b_cc = b_c[p];
                    let b_e = 0.5 * (b_cc + b_c[p + 1]);
                    let b_w = 0.5 * (b_cc + b_c[p - 1]);
                    let b_nn = 0.5 * (b_cc + b_n[p]);
                    let b_ss = 0.5 * (b_cc + b_s[p]);
                    let y_cc = y_c[s];
                    let div_x = b_e * (y_c[s + 1] - y_cc) - b_w * (y_cc - y_c[s - 1]);
                    let div_y = b_nn * (y_n[s] - y_cc) - b_ss * (y_cc - y_s[s]);
                    let div = div_x / (dx * dx) + div_y / (dy * dy);
                    out[r0 + ii] = irho[p] * div;
                }
            }
        }
        j0 = j1 + 1;
    }
}

/// The `patch-rhs` snapshot: chemistry + transport kernel snapshots and
/// the shared evaluation counter.
struct DiffusionKernel {
    chem: Arc<dyn ChemistryKernel>,
    transport: Arc<dyn TransportKernel>,
    evals: Arc<AtomicUsize>,
}

impl PatchKernel for DiffusionKernel {
    fn eval(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, _t: f64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        diffusion_rhs_with_kernels(
            &self.chem,
            &self.transport,
            state,
            rhs,
            dx,
            dy,
            KernelConfig::UNTILED,
        );
    }

    fn label(&self) -> &'static str {
        "DiffusionPhysics.patch-rhs"
    }
}

struct Inner {
    services: Services,
    evals: Arc<AtomicUsize>,
    /// Built on first use (needs both upstream kernels); never rebuilt —
    /// the component has no mutable configuration to re-snapshot.
    kernel: RefCell<Option<Arc<dyn PatchKernel>>>,
}

impl PatchRhsPort for Inner {
    fn eval_patch(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64) {
        let _scope = self.services.profiler().scope("DiffusionPhysics.patch-rhs");
        self.services
            .profiler()
            .add_cells("DiffusionPhysics.patch-rhs", state.interior.count() as u64);
        // The port call runs the very kernel the executor runs.
        let k = self.patch_kernel().unwrap_or_else(|| {
            panic!(
                "{}.patch-rhs: `chemistry` and `transport` must be connected to \
                 components that hand out kernel snapshots",
                self.services.instance_name()
            )
        });
        k.eval(state, rhs, dx, dy, t);
    }

    fn evals(&self) -> usize {
        self.evals.load(Ordering::Relaxed)
    }

    fn patch_kernel(&self) -> Option<Arc<dyn PatchKernel>> {
        if let Some(k) = self.kernel.borrow().as_ref() {
            return Some(k.clone());
        }
        let chem = self
            .services
            .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
            .ok()?;
        let transport = self
            .services
            .get_port::<Rc<dyn TransportPort>>("transport")
            .ok()?;
        let k: Arc<dyn PatchKernel> = Arc::new(DiffusionKernel {
            chem: chem.kernel()?,
            transport: transport.kernel()?,
            evals: self.evals.clone(),
        });
        *self.kernel.borrow_mut() = Some(k.clone());
        Some(k)
    }
}

/// The component: provides `patch-rhs` (PatchRhsPort); uses `chemistry`
/// and `transport`.
#[derive(Default)]
pub struct DiffusionPhysics;

impl Component for DiffusionPhysics {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("chemistry");
        s.register_uses_port::<Rc<dyn TransportPort>>("transport");
        s.add_provides_port::<Rc<dyn PatchRhsPort>>(
            "patch-rhs",
            Rc::new(Inner {
                services: s.clone(),
                evals: Arc::new(AtomicUsize::new(0)),
                kernel: RefCell::new(None),
            }),
        );
    }
}
