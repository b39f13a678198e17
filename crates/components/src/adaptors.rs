//! The paper's *Adaptors*: "case-specific adaptors are often used to
//! consolidate and filter outputs from various physics components."
//!
//! * [`DpdtComponent`] — the rigid-vessel pressure closure of the 0D
//!   ignition code ("the pressure term depends on the boundary conditions
//!   of the problem (rigid walls, i.e. constant mass and volume) and is
//!   computed by the dPdt component");
//! * [`ProblemModeler`] — sits "between CvodeComponent and
//!   ThermoChemistry... for this closed system it adds the pressure term
//!   to the heat equation": assembles the full `Φ = {T, Y₁..Y_{N−1}, P}`
//!   right-hand side from the chemistry and dPdt ports;
//! * [`ImplicitIntegrator`] — the 2D adaptor "that calls on the Implicit
//!   Integration subsystem for all cells and all patches": one executor
//!   run per advance over the kernel snapshots of the connected chemistry
//!   and integrator.

use crate::ports::{
    ChemistryAdvancePort, ChemistryKernel, ChemistrySourcePort, DataPort, DpdtPort, MeshPort,
    OdeCellKernel, OdeIntegratorPort, OdeRhsPort, OdeSystemKernel,
};
use cca_core::{Component, ParameterPort, Services};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Universal gas constant, J/(kmol·K) — duplicated here so adaptors do not
/// reach into substrate crates for a constant.
const RU: f64 = 8314.462618;

// ---------------------------------------------------------------------
// dPdt
// ---------------------------------------------------------------------

struct DpdtInner {
    chem: RefCell<Option<Rc<dyn ChemistrySourcePort>>>,
    services: Services,
    /// Cached molar masses (constants), filled on first use.
    w: RefCell<Vec<f64>>,
}

impl DpdtInner {
    fn chem(&self) -> Rc<dyn ChemistrySourcePort> {
        if self.chem.borrow().is_none() {
            let port = self
                .services
                .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
                .expect("dPdt requires a connected chemistry port");
            *self.chem.borrow_mut() = Some(port);
        }
        self.chem.borrow().as_ref().expect("just filled").clone()
    }
}

impl DpdtPort for DpdtInner {
    fn dpdt(&self, t_gas: f64, dtdt: f64, y: &[f64], dydt: &[f64], rho: f64) -> f64 {
        let chem = self.chem();
        {
            let mut w = self.w.borrow_mut();
            if w.len() != y.len() {
                w.resize(y.len(), 0.0);
                chem.molar_masses(&mut w);
            }
        }
        let w = self.w.borrow();
        // P = ρ R T / W̄, ρ const: dP/dt = ρR( dT/dt / W̄ + T Σ (dY_i/dt)/W_i ).
        let inv_w_mean: f64 = y.iter().zip(w.iter()).map(|(yi, wi)| yi / wi).sum();
        let sum_dyw: f64 = dydt.iter().zip(w.iter()).map(|(dy, wi)| dy / wi).sum();
        rho * RU * (dtdt * inv_w_mean + t_gas * sum_dyw)
    }
}

/// The `dPdt` component: provides `dpdt`, uses `chemistry`.
#[derive(Default)]
pub struct DpdtComponent;

impl Component for DpdtComponent {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("chemistry");
        s.add_provides_port::<Rc<dyn DpdtPort>>(
            "dpdt",
            Rc::new(DpdtInner {
                chem: RefCell::new(None),
                services: s.clone(),
                w: RefCell::new(Vec::new()),
            }),
        );
    }
}

// ---------------------------------------------------------------------
// problemModeler
// ---------------------------------------------------------------------

/// The pair of ports `problemModeler` fetches once and keeps.
type CachedPorts = RefCell<Option<(Rc<dyn ChemistrySourcePort>, Rc<dyn DpdtPort>)>>;

struct ModelerInner {
    services: Services,
    rho: Cell<f64>,
    nfe: Cell<usize>,
    scratch: RefCell<ModelerScratch>,
    /// Ports are fetched once and kept, as CCA components do after their
    /// first `getPort` — re-fetching per call would turn the O(10 ns)
    /// virtual-dispatch overhead of Table 4 into a registry lookup.
    cached: CachedPorts,
}

#[derive(Default)]
struct ModelerScratch {
    y_full: Vec<f64>,
    c: Vec<f64>,
    wdot: Vec<f64>,
    dydt: Vec<f64>,
    /// Species molar masses, fetched once (they are constants).
    w: Vec<f64>,
    /// Molar internal energies at the current T.
    u: Vec<f64>,
}

impl ModelerInner {
    fn ports(&self) -> (Rc<dyn ChemistrySourcePort>, Rc<dyn DpdtPort>) {
        if let Some((chem, dpdt)) = self.cached.borrow().as_ref() {
            return (chem.clone(), dpdt.clone());
        }
        let chem = self
            .services
            .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
            .expect("problemModeler requires a connected chemistry port");
        let dpdt = self
            .services
            .get_port::<Rc<dyn DpdtPort>>("dpdt")
            .expect("problemModeler requires a connected dPdt port");
        *self.cached.borrow_mut() = Some((chem.clone(), dpdt.clone()));
        (chem, dpdt)
    }
}

impl OdeRhsPort for ModelerInner {
    fn dim(&self) -> usize {
        let (chem, _) = self.ports();
        chem.n_species() + 1 // T, Y1..Y_{N-1}, P
    }

    fn eval(&self, _t: f64, state: &[f64], dstate: &mut [f64]) {
        self.nfe.set(self.nfe.get() + 1);
        // Prime the port cache once, then borrow without cloning: the per
        // evaluation cost of the uses-port is the virtual call alone.
        if self.cached.borrow().is_none() {
            let _ = self.ports();
        }
        let cached = self.cached.borrow();
        let (chem, dpdt) = cached.as_ref().expect("primed above");
        let n = chem.n_species();
        let rho = self.rho.get();
        assert!(rho > 0.0, "problemModeler density not set");
        let mut s = self.scratch.borrow_mut();
        s.y_full.resize(n, 0.0);
        s.c.resize(n, 0.0);
        s.wdot.resize(n, 0.0);
        s.dydt.resize(n, 0.0);
        s.u.resize(n, 0.0);
        if s.w.len() != n {
            s.w.resize(n, 0.0);
            chem.molar_masses(&mut s.w);
        }
        let ModelerScratch {
            y_full,
            c,
            wdot,
            dydt,
            w,
            u,
        } = &mut *s;

        let temp = state[0].max(200.0);
        let mut bulk = 1.0;
        for i in 0..n - 1 {
            y_full[i] = state[1 + i];
            bulk -= state[1 + i];
        }
        y_full[n - 1] = bulk;
        for i in 0..n {
            c[i] = rho * y_full[i] / w[i];
        }
        chem.production_rates(temp, c, wdot);
        chem.internal_energies_molar(temp, u);

        // Species and energy (constant volume).
        let mut sum_u_wdot = 0.0;
        for i in 0..n {
            dydt[i] = wdot[i] * w[i] / rho;
            sum_u_wdot += u[i] * wdot[i];
        }
        let cv = chem.cv_mass(temp, y_full);
        let dtdt = -sum_u_wdot / (rho * cv);
        dstate[0] = dtdt;
        dstate[1..n].copy_from_slice(&dydt[..n - 1]);
        // The pressure term comes from the dPdt component.
        dstate[n] = dpdt.dpdt(temp, dtdt, y_full, dydt, rho);
    }

    fn nfe(&self) -> usize {
        self.nfe.get()
    }
}

impl ParameterPort for ModelerInner {
    fn set_parameter(&self, key: &str, value: f64) {
        if key == "density" {
            self.rho.set(value);
        }
    }

    fn get_parameter(&self, key: &str) -> Option<f64> {
        (key == "density").then(|| self.rho.get())
    }
}

/// The `problemModeler` component: provides `rhs` (OdeRhsPort) and
/// `config` (ParameterPort carrying the frozen density); uses `chemistry`
/// and `dpdt`.
#[derive(Default)]
pub struct ProblemModeler;

impl Component for ProblemModeler {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("chemistry");
        s.register_uses_port::<Rc<dyn DpdtPort>>("dpdt");
        let inner = Rc::new(ModelerInner {
            services: s.clone(),
            rho: Cell::new(0.0),
            nfe: Cell::new(0),
            scratch: RefCell::new(ModelerScratch::default()),
            cached: RefCell::new(None),
        });
        s.add_provides_port::<Rc<dyn OdeRhsPort>>("rhs", inner.clone());
        s.add_provides_port::<Rc<dyn ParameterPort>>("config", inner);
    }
}

// ---------------------------------------------------------------------
// ImplicitIntegrator (2D adaptor)
// ---------------------------------------------------------------------

#[derive(Default)]
struct CellScratch {
    y: Vec<f64>,
    c: Vec<f64>,
    wdot: Vec<f64>,
    w: Vec<f64>,
    h: Vec<f64>,
}

/// Constant-pressure single-cell chemistry RHS `d{T, Y}/dt` over the
/// chemistry kernel snapshot — the math behind [`CellKernelSys`].
fn cell_chem_rhs(
    chem: &dyn ChemistryKernel,
    pressure: f64,
    state: &[f64],
    dstate: &mut [f64],
    s: &mut CellScratch,
) {
    let n = chem.n_species();
    let temp = state[0].max(200.0);
    s.y.resize(n, 0.0);
    s.c.resize(n, 0.0);
    s.wdot.resize(n, 0.0);
    s.h.resize(n, 0.0);
    if s.w.len() != n {
        s.w.resize(n, 0.0);
        chem.molar_masses(&mut s.w);
    }
    let CellScratch { y, c, wdot, w, h } = &mut *s;
    let mut bulk = 1.0;
    for i in 0..n - 1 {
        y[i] = state[1 + i];
        bulk -= state[1 + i];
    }
    y[n - 1] = bulk;
    let rho = chem.density(temp, pressure, y);
    for i in 0..n {
        c[i] = rho * y[i] / w[i];
    }
    chem.production_rates(temp, c, wdot);
    chem.enthalpies_molar(temp, h);
    let mut sum_h_wdot = 0.0;
    for i in 0..n {
        if i < n - 1 {
            dstate[1 + i] = wdot[i] * w[i] / rho;
        }
        sum_h_wdot += h[i] * wdot[i];
    }
    dstate[0] = -sum_h_wdot / (rho * chem.cp_mass(temp, y));
}

/// The cell RHS as the ODE system the integrator's cell kernel advances.
/// One instance per cell batch; the scratch mutex is uncontended (a job
/// runs on exactly one worker).
struct CellKernelSys {
    chem: Arc<dyn ChemistryKernel>,
    pressure: f64,
    scratch: Mutex<CellScratch>,
}

impl OdeSystemKernel for CellKernelSys {
    fn dim(&self) -> usize {
        self.chem.n_species()
    }

    fn eval(&self, _t: f64, state: &[f64], dstate: &mut [f64]) {
        let mut s = self.scratch.lock().expect("cell scratch is uncontended");
        cell_chem_rhs(&*self.chem, self.pressure, state, dstate, &mut s);
    }
}

/// Cells per executor work item of the chemistry sweep. A cell costs
/// ≈ 150 µs, so a batch is ≈ 5 ms: the idle tail at the end of a run is
/// at most one batch while the ≈ 1 µs pool dispatch per item stays
/// invisible. Patches are not the unit because a regrid decides their
/// count and sizes (DESIGN.md "Patch-kernel executor").
const BATCH_CELLS: usize = 32;

/// One work item of the chemistry sweep: the gathered states of up to
/// [`BATCH_CELLS`] consecutive cells of the sweep order, owned, so
/// disjointness between workers is a fact of ownership.
struct CellBatch {
    /// `nvars` values per cell, cell after cell.
    states: Vec<f64>,
    steps: usize,
    /// Slot and message of the first cell whose integration failed.
    error: Option<(usize, String)>,
}

impl CellBatch {
    /// Integrate every cell in place by `dt`, in slot order, stopping at
    /// the first failure.
    fn sweep(
        &mut self,
        nvars: usize,
        integrator: &dyn OdeCellKernel,
        sys: &dyn OdeSystemKernel,
        dt: f64,
    ) {
        for (slot, cell) in self.states.chunks_exact_mut(nvars).enumerate() {
            match integrator.integrate(sys, 0.0, dt, cell) {
                Ok(st) => self.steps += st.steps,
                Err(e) => {
                    self.error = Some((slot, e));
                    return;
                }
            }
        }
    }
}

struct ImplicitInner {
    services: Services,
}

impl ChemistryAdvancePort for ImplicitInner {
    fn advance_chemistry(&self, state: &str, dt: f64, p: f64) -> Result<usize, String> {
        let _scope = self
            .services
            .profiler()
            .scope("ImplicitIntegrator.chemistry-advance");
        let chem = self
            .services
            .get_port::<Rc<dyn ChemistrySourcePort>>("chemistry")
            .map_err(|e| e.to_string())?;
        let integ = self
            .services
            .get_port::<Rc<dyn OdeIntegratorPort>>("integrator")
            .map_err(|e| e.to_string())?;
        let mesh = self
            .services
            .get_port::<Rc<dyn MeshPort>>("mesh")
            .map_err(|e| e.to_string())?;
        let data = self
            .services
            .get_port::<Rc<dyn DataPort>>("data")
            .map_err(|e| e.to_string())?;
        // The sweep runs on snapshots; a port that hands out none is a
        // mis-assembled application, reported before any cell is read.
        let no_kernel = |port: &str| {
            format!(
                "{}: the component connected to `{port}` hands out no kernel snapshot",
                self.services.instance_name()
            )
        };
        let chem_k = chem.kernel().ok_or_else(|| no_kernel("chemistry"))?;
        let cell_k = integ.cell_kernel().ok_or_else(|| no_kernel("integrator"))?;
        let nvars = data.nvars(state);
        // Gather: "for all cells and all patches", coarse cells covered by
        // a finer level excluded (the finer level integrates that region).
        // The order does not matter physically (point operation); it fixes
        // which cell an error names. `cells[n]` is where slot `n % BATCH_CELLS`
        // of batch `n / BATCH_CELLS` came from.
        let mut cells: Vec<(usize, usize, i64, i64)> = Vec::new();
        let mut batches: Vec<CellBatch> = Vec::new();
        for level in 0..mesh.n_levels() {
            for (id, _, _) in mesh.patches(level) {
                data.with_patch(state, level, id, &mut |pd| {
                    for (i, j) in pd.interior.cells() {
                        if mesh.covered_by_finer(level, i, j) {
                            continue;
                        }
                        let n = cells.len();
                        if n.is_multiple_of(BATCH_CELLS) {
                            batches.push(CellBatch {
                                states: Vec::with_capacity(BATCH_CELLS * nvars),
                                steps: 0,
                                error: None,
                            });
                        }
                        cells.push((level, id, i, j));
                        let gathered = (0..nvars).map(|v| pd.get(v, i, j));
                        batches[n / BATCH_CELLS].states.extend(gathered);
                    }
                });
            }
        }
        // Run: one executor run over the whole hierarchy, at *any* worker
        // count (the executor runs inline at 1), so the numerics never
        // depend on the worker knob.
        let kernel = move |_index: usize, batch: &mut CellBatch| {
            let sys = CellKernelSys {
                chem: chem_k.clone(),
                pressure: p,
                scratch: Mutex::new(CellScratch::default()),
            };
            batch.sweep(nvars, &*cell_k, &sys, dt);
        };
        // A panicked kernel poisons the run; nothing was scattered, so the
        // Data Object is untouched.
        let batches = self
            .services
            .executor()
            .run("ImplicitIntegrator.cell-sweep", batches, kernel)
            .into_result()?;
        // Scatter, patch by patch — only if every cell integrated: the
        // first failing batch holds the first failing cell of the sweep.
        for (b, batch) in batches.iter().enumerate() {
            if let Some((slot, e)) = &batch.error {
                let (level, _, i, j) = cells[b * BATCH_CELLS + slot];
                return Err(format!("cell ({i},{j}) level {level}: {e}"));
            }
        }
        let mut results = cells
            .iter()
            .zip(batches.iter().flat_map(|b| b.states.chunks_exact(nvars)))
            .peekable();
        while let Some(&(&(level, id, _, _), _)) = results.peek() {
            data.with_patch_mut(state, level, id, &mut |pd| {
                while let Some((&(_, _, i, j), values)) =
                    results.next_if(|(c, _)| (c.0, c.1) == (level, id))
                {
                    for (v, value) in values.iter().enumerate() {
                        pd.set(v, i, j, *value);
                    }
                }
            });
        }
        Ok(batches.iter().map(|b| b.steps).sum())
    }
}

/// The `ImplicitIntegrator` adaptor: provides `chemistry-advance`; uses
/// `chemistry`, `integrator`, `mesh`, `data`.
#[derive(Default)]
pub struct ImplicitIntegrator;

impl Component for ImplicitIntegrator {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("chemistry");
        s.register_uses_port::<Rc<dyn OdeIntegratorPort>>("integrator");
        s.register_uses_port::<Rc<dyn MeshPort>>("mesh");
        s.register_uses_port::<Rc<dyn DataPort>>("data");
        s.add_provides_port::<Rc<dyn ChemistryAdvancePort>>(
            "chemistry-advance",
            Rc::new(ImplicitInner {
                services: s.clone(),
            }),
        );
    }
}
