//! `ExplicitIntegrator` — the Runge-Kutta-Chebyshev time integrator of the
//! reaction–diffusion assembly, acting on Data Objects in a synchronized
//! manner (a type-(c) port). The RKC stage recursion runs over a
//! *flattened view* of the whole hierarchy: each stage's RHS evaluation
//! scatters the stage vector into the Data Object, refills ghosts (so
//! patch coupling happens exactly once per stage, as in GrACE), and runs
//! the connected `PatchRhsPort`'s kernel snapshot over the patches on the
//! framework's executor.

use crate::ports::{
    BoundaryConditionPort, DataPort, EigenEstimatePort, MeshPort, PatchRhsPort, TimeIntegratorPort,
};
use cca_core::{scratch, Component, Executor, Services};
use cca_mesh::data::PatchData;
use cca_solvers::ode::OdeSystem;
use cca_solvers::rkc::{Rkc, RkcConfig, RkcStats};
use std::cell::Cell;
use std::rc::Rc;

/// Flattened hierarchy view: gather/scatter between a Data Object and a
/// contiguous vector (interiors only, level-major, patch-major,
/// variable-major within a cell... variable-major per patch).
pub(crate) struct FlatView {
    pub mesh: Rc<dyn MeshPort>,
    pub data: Rc<dyn DataPort>,
    pub name: String,
    pub nvars: usize,
}

impl FlatView {
    pub fn dim(&self) -> usize {
        let mut n = 0usize;
        for level in 0..self.mesh.n_levels() {
            for (_, interior, _) in self.mesh.patches(level) {
                n += interior.count() as usize * self.nvars;
            }
        }
        n
    }

    pub fn gather(&self, out: &mut Vec<f64>) {
        out.clear();
        for level in 0..self.mesh.n_levels() {
            for (id, _, _) in self.mesh.patches(level) {
                self.data.with_patch(&self.name, level, id, &mut |pd| {
                    // Dense interior rows in the same var-major, row-major
                    // value order the per-cell loop produced.
                    let interior = pd.interior;
                    let si = (interior.lo[0] - pd.total_box().lo[0]) as usize;
                    let w = interior.nx() as usize;
                    for var in 0..pd.nvars {
                        for j in interior.lo[1]..=interior.hi[1] {
                            out.extend_from_slice(&pd.row(var, j)[si..si + w]);
                        }
                    }
                });
            }
        }
    }

    pub fn scatter(&self, v: &[f64]) {
        let mut k = 0usize;
        for level in 0..self.mesh.n_levels() {
            for (id, _, _) in self.mesh.patches(level) {
                self.data.with_patch_mut(&self.name, level, id, &mut |pd| {
                    let interior = pd.interior;
                    let di = (interior.lo[0] - pd.total_box().lo[0]) as usize;
                    let w = interior.nx() as usize;
                    for var in 0..pd.nvars {
                        for j in interior.lo[1]..=interior.hi[1] {
                            pd.row_mut(var, j)[di..di + w].copy_from_slice(&v[k..k + w]);
                            k += w;
                        }
                    }
                });
            }
        }
        debug_assert_eq!(k, v.len());
    }
}

/// One patch's share of a hierarchy RHS evaluation: the state view
/// (ghosts filled) and the RHS patch to write, both detached from the
/// Data Objects so a worker thread owns them exclusively.
struct RhsItem {
    state: PatchData,
    rhs: PatchData,
}

/// Evaluate the connected `PatchRhsPort` over every patch of the
/// hierarchy, writing into the `rhs_name` Data Object. Ghosts of
/// `view.name` must already be filled.
///
/// The patch loop runs the port's [`crate::ports::PatchKernel`] snapshot
/// on the framework's executor: state and RHS patches are detached as
/// disjoint owned views, evaluated concurrently, and re-attached — at
/// *any* worker count (the executor runs inline at 1 worker), so results
/// never depend on the worker knob. A port that hands out no snapshot is
/// a mis-assembled application and panics here, under `label`.
pub(crate) fn eval_hierarchy_rhs(
    view: &FlatView,
    rhs_port: &Rc<dyn PatchRhsPort>,
    rhs_name: &str,
    executor: &Executor,
    label: &str,
    t: f64,
) {
    let mesh = &view.mesh;
    let data = &view.data;
    let kernel = rhs_port.patch_kernel().unwrap_or_else(|| {
        panic!("{label}: the component connected to `patch-rhs` hands out no kernel snapshot")
    });
    // Run under the kernel's own timer name (the same `component.port`
    // the port's `eval_patch` records) so profiles read the same whichever
    // way a patch was evaluated.
    let run_label = kernel.label();
    for level in 0..mesh.n_levels() {
        let dx = mesh.dx(level);
        let descriptors = mesh.patches(level);
        let ids: Vec<usize> = descriptors.iter().map(|(id, _, _)| *id).collect();
        if ids.is_empty() {
            continue;
        }
        // Boundary-adjacent patches (touching a sibling patch or the
        // level-domain edge) feed the next ghost exchange, so they start
        // first — shortening the path to the exchange the same way the
        // distributed sweep overlaps its halo.
        let domain = mesh.level_domain(level);
        let adjacency: Vec<i64> = descriptors
            .iter()
            .enumerate()
            .map(|(pi, (_, interior, _))| {
                let ring = interior.grow(1);
                let edge = !domain.contains_box(&ring);
                let sibling = descriptors
                    .iter()
                    .enumerate()
                    .any(|(qi, (_, other, _))| qi != pi && other.intersect(&ring).is_some());
                (edge || sibling) as i64
            })
            .collect();
        let states = data.take_level_patches(&view.name, level, &ids);
        let rhss = data.take_level_patches(rhs_name, level, &ids);
        let items: Vec<RhsItem> = states
            .into_iter()
            .zip(rhss)
            .map(|(state, rhs)| RhsItem { state, rhs })
            .collect();
        let cells: u64 = descriptors
            .iter()
            .map(|(_, interior, _)| interior.count() as u64)
            .sum();
        executor.profiler().add_cells(run_label, cells);
        let k = kernel.clone();
        let report = executor.run_with_priority(
            run_label,
            items,
            |idx, _| adjacency[idx],
            move |_worker, item| {
                k.eval(&item.state, &mut item.rhs, dx[0], dx[1], t);
            },
        );
        // A panicking kernel poisons the run; surface it as a panic of
        // this call (the detached patches are forfeit either way).
        let items = report
            .into_result()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let (mut states, mut rhss) = (Vec::new(), Vec::new());
        for item in items {
            states.push(item.state);
            rhss.push(item.rhs);
        }
        data.put_level_patches(&view.name, level, &ids, states);
        data.put_level_patches(rhs_name, level, &ids, rhss);
    }
}

/// OdeSystem adapter: scatter → ghost fill → per-patch RHS → gather.
struct HierarchyOde {
    view: FlatView,
    /// Pre-built view of the scratch RHS Data Object, so per-stage RHS
    /// evaluations do not rebuild it (and its name `String`) each call.
    rhs_view: FlatView,
    rhs_port: Rc<dyn PatchRhsPort>,
    bc: Rc<dyn BoundaryConditionPort>,
    executor: Executor,
}

impl OdeSystem for HierarchyOde {
    fn dim(&self) -> usize {
        self.view.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.view.scatter(y);
        let mesh = &self.view.mesh;
        let data = &self.view.data;
        for level in 0..mesh.n_levels() {
            data.fill_ghosts(&self.view.name, level, &|side, var| self.bc.rule(side, var));
        }
        eval_hierarchy_rhs(
            &self.view,
            &self.rhs_port,
            &self.rhs_view.name,
            &self.executor,
            "ExplicitIntegrator.patch-rhs",
            t,
        );
        // Gather the RHS object through a pooled staging buffer (the
        // gather path wants a Vec it can push into).
        let mut buf = scratch::take_f64(dydt.len());
        self.rhs_view.gather(&mut buf);
        dydt.copy_from_slice(&buf);
    }
}

struct Inner {
    services: Services,
    stats: Cell<RkcStats>,
    rtol: Cell<f64>,
    atol: Cell<f64>,
}

impl TimeIntegratorPort for Inner {
    fn advance(&self, state: &str, t: f64, dt_max: f64) -> Result<f64, String> {
        let _scope = self.services.profiler().scope("ExplicitIntegrator.advance");
        let mesh = self
            .services
            .get_port::<Rc<dyn MeshPort>>("mesh")
            .map_err(|e| e.to_string())?;
        let data = self
            .services
            .get_port::<Rc<dyn DataPort>>("data")
            .map_err(|e| e.to_string())?;
        let rhs_port = self
            .services
            .get_port::<Rc<dyn PatchRhsPort>>("patch-rhs")
            .map_err(|e| e.to_string())?;
        let eigen = self
            .services
            .get_port::<Rc<dyn EigenEstimatePort>>("eigen-estimate")
            .map_err(|e| e.to_string())?;
        let bc = self
            .services
            .get_port::<Rc<dyn BoundaryConditionPort>>("bc")
            .map_err(|e| e.to_string())?;

        let nvars = data.nvars(state);
        // Scratch RHS Data Object (idempotent creation).
        let rhs_name = format!("__rkc_rhs_{state}");
        data.create_data_object(&rhs_name, nvars, 0);
        let rhs_view = FlatView {
            mesh: mesh.clone(),
            data: data.clone(),
            name: rhs_name,
            nvars,
        };
        let view = FlatView {
            mesh,
            data,
            name: state.to_string(),
            nvars,
        };
        let sys = HierarchyOde {
            view,
            rhs_view,
            rhs_port,
            bc,
            executor: self.services.executor(),
        };
        let n = sys.view.dim();
        let mut y = scratch::take_f64(n);
        sys.view.gather(&mut y);

        let rho = eigen.estimate(state);
        let rkc = Rkc::new(RkcConfig {
            rtol: self.rtol.get(),
            atol: self.atol.get(),
            ..RkcConfig::default()
        });
        // Single stability-scheduled RKC macro-step of size dt_max: the
        // stage count is chosen from the spectral radius (the paper's
        // "dynamic time-step sizing" information path). Stage vectors
        // and the output/error buffers all come from the scratch pool.
        let mut stats = RkcStats::default();
        let mut y_new = scratch::take_f64(n);
        let mut est = scratch::take_f64(n);
        rkc.step_into(&sys, t, &y, dt_max, rho, &mut stats, &mut y_new, &mut est);
        if y_new.iter().any(|v| !v.is_finite()) {
            return Err(format!("RKC produced a non-finite state at t = {t:e}"));
        }
        stats.steps += 1;
        self.stats.set(accumulate(self.stats.get(), stats));
        sys.view.scatter(&y_new);
        Ok(dt_max)
    }
}

fn accumulate(mut a: RkcStats, b: RkcStats) -> RkcStats {
    a.steps += b.steps;
    a.rhs_evals += b.rhs_evals;
    a.rejections += b.rejections;
    a.max_stages_used = a.max_stages_used.max(b.max_stages_used);
    a
}

/// The component: provides `time-integrator` (TimeIntegratorPort); uses
/// `mesh`, `data`, `patch-rhs`, `eigen-estimate`, `bc`.
#[derive(Default)]
pub struct ExplicitIntegratorRkc;

impl Component for ExplicitIntegratorRkc {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn MeshPort>>("mesh");
        s.register_uses_port::<Rc<dyn DataPort>>("data");
        s.register_uses_port::<Rc<dyn PatchRhsPort>>("patch-rhs");
        s.register_uses_port::<Rc<dyn EigenEstimatePort>>("eigen-estimate");
        s.register_uses_port::<Rc<dyn BoundaryConditionPort>>("bc");
        s.add_provides_port::<Rc<dyn TimeIntegratorPort>>(
            "time-integrator",
            Rc::new(Inner {
                services: s.clone(),
                stats: Cell::new(RkcStats::default()),
                rtol: Cell::new(1e-6),
                atol: Cell::new(1e-9),
            }),
        );
    }
}
