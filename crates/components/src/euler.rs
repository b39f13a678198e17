//! The Euler-solver component family of the shock assembly (Table 3):
//! `States`, `GodunovFlux`, `EFMFlux`, `InviscidFlux` (the adaptor that
//! "supplies the right-hand-side of the equation, patch-by-patch"),
//! `CharacteristicQuantities`, and the `GasProperties` database.
//!
//! `InviscidFlux` owns no sweep of its own: its `patch-rhs` snapshot runs
//! `cca_hydro_solver::muscl::muscl_rhs` over the kernel snapshots of the
//! components connected to its `states` and `flux` ports.

use crate::ports::{
    DataPort, EigenEstimatePort, FluxKernel, FluxPort, MeshPort, PatchKernel, PatchRhsPort,
    StatesKernel, StatesPort,
};
use cca_core::{Component, ParameterPort, ParameterStore, Services};
use cca_hydro_solver::efm::EfmFlux;
use cca_hydro_solver::muscl::{interface_states, max_wave_speed, muscl_rhs};
use cca_hydro_solver::riemann::GodunovFlux;
use cca_hydro_solver::{FluxScheme, Limiter, Prim};
use cca_mesh::data::PatchData;
use cca_mesh::layout::KernelConfig;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------
// GasProperties (Database)
// ---------------------------------------------------------------------

/// The `GasProperties` database: γ and friends, retrieved "using a
/// key-value pair mechanism".
#[derive(Default)]
pub struct GasProperties;

impl Component for GasProperties {
    fn set_services(&mut self, s: Services) {
        let store = Rc::new(ParameterStore::new());
        store.set_parameter("gamma", 1.4);
        store.set_parameter("density_ratio", 3.0);
        s.add_provides_port::<Rc<dyn ParameterPort>>("gas", store);
    }
}

// ---------------------------------------------------------------------
// States
// ---------------------------------------------------------------------

struct StatesInner {
    limiter: Cell<Limiter>,
}

/// Limiter snapshot — the `Send + Sync` face of `States`.
struct StatesSnapshot {
    limiter: Limiter,
}

impl StatesKernel for StatesSnapshot {
    fn reconstruct(
        &self,
        b: &[f64; 5],
        c: &[f64; 5],
        d: &[f64; 5],
        e: &[f64; 5],
        gamma: f64,
    ) -> (Prim, Prim) {
        interface_states(b, c, d, e, gamma, self.limiter)
    }
}

impl StatesPort for StatesInner {
    fn reconstruct(
        &self,
        b: &[f64; 5],
        c: &[f64; 5],
        d: &[f64; 5],
        e: &[f64; 5],
        gamma: f64,
    ) -> (Prim, Prim) {
        interface_states(b, c, d, e, gamma, self.limiter.get())
    }

    fn kernel(&self) -> Option<Arc<dyn StatesKernel>> {
        Some(Arc::new(StatesSnapshot {
            limiter: self.limiter.get(),
        }))
    }
}

impl ParameterPort for StatesInner {
    fn set_parameter(&self, key: &str, value: f64) {
        if key == "limiter" {
            self.limiter.set(match value as i64 {
                0 => Limiter::FirstOrder,
                1 => Limiter::MinMod,
                2 => Limiter::VanLeer,
                3 => Limiter::MonotonizedCentral,
                4 => Limiter::Superbee,
                _ => Limiter::None,
            });
        }
    }

    fn get_parameter(&self, key: &str) -> Option<f64> {
        (key == "limiter").then(|| match self.limiter.get() {
            Limiter::FirstOrder => 0.0,
            Limiter::MinMod => 1.0,
            Limiter::VanLeer => 2.0,
            Limiter::MonotonizedCentral => 3.0,
            Limiter::Superbee => 4.0,
            Limiter::None => 5.0,
        })
    }
}

/// The `States` component: slope-limited interface reconstruction.
/// Provides `states` (StatesPort) and `config` (ParameterPort `limiter`:
/// 0 = first-order, 1 = minmod, 2 = van Leer, 3 = MC, 4 = superbee).
#[derive(Default)]
pub struct StatesComponent;

impl Component for StatesComponent {
    fn set_services(&mut self, s: Services) {
        let inner = Rc::new(StatesInner {
            limiter: Cell::new(Limiter::VanLeer),
        });
        s.add_provides_port::<Rc<dyn StatesPort>>("states", inner.clone());
        s.add_provides_port::<Rc<dyn ParameterPort>>("config", inner);
    }
}

// ---------------------------------------------------------------------
// Flux components
// ---------------------------------------------------------------------

struct FluxWrap<S: FluxScheme>(S);

impl<S: FluxScheme + Send + Sync> FluxKernel for FluxWrap<S> {
    fn flux_x(&self, left: &Prim, right: &Prim, gamma: f64) -> [f64; 5] {
        self.0.flux_x(left, right, gamma)
    }
}

impl<S: FluxScheme + Clone + Send + Sync + 'static> FluxPort for FluxWrap<S> {
    fn flux_x(&self, left: &Prim, right: &Prim, gamma: f64) -> [f64; 5] {
        self.0.flux_x(left, right, gamma)
    }

    fn scheme_name(&self) -> &'static str {
        self.0.name()
    }

    fn kernel(&self) -> Option<Arc<dyn FluxKernel>> {
        // The flux schemes are stateless value types; the kernel is a
        // clone of the same wrapper.
        Some(Arc::new(FluxWrap(self.0.clone())))
    }
}

/// The `GodunovFlux` component (exact Riemann solution at the interface).
#[derive(Default)]
pub struct GodunovFluxComponent;

impl Component for GodunovFluxComponent {
    fn set_services(&mut self, s: Services) {
        s.add_provides_port::<Rc<dyn FluxPort>>("flux", Rc::new(FluxWrap(GodunovFlux)));
    }
}

/// The `EFMFlux` component (Pullin's gas-kinetic flux; "a more diffusive
/// gas-kinetic scheme" that stays stable for strong shocks).
#[derive(Default)]
pub struct EfmFluxComponent;

impl Component for EfmFluxComponent {
    fn set_services(&mut self, s: Services) {
        s.add_provides_port::<Rc<dyn FluxPort>>("flux", Rc::new(FluxWrap(EfmFlux)));
    }
}

// ---------------------------------------------------------------------
// InviscidFlux (adaptor; PatchRhsPort)
// ---------------------------------------------------------------------

struct InviscidInner {
    services: Services,
    evals: Arc<AtomicUsize>,
}

impl InviscidInner {
    fn gamma(&self) -> f64 {
        self.services
            .get_port::<Rc<dyn ParameterPort>>("gas")
            .expect("InviscidFlux needs the GasProperties port")
            .get_parameter("gamma")
            .unwrap_or(1.4)
    }
}

/// The `patch-rhs` snapshot of `InviscidFlux`: the reconstruction and
/// flux snapshots of the connected components and γ, captured when the
/// kernel is handed out. Its `eval` is the workspace's one MUSCL sweep
/// ([`muscl_rhs`]) instantiated over those two snapshots, so swapping
/// `GodunovFlux` for `EFMFlux` in the script swaps the flux inside the
/// sweep.
struct EulerPatchKernel {
    states: Arc<dyn StatesKernel>,
    flux: Arc<dyn FluxKernel>,
    gamma: f64,
    evals: Arc<AtomicUsize>,
}

impl PatchKernel for EulerPatchKernel {
    fn eval(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, _t: f64) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        muscl_rhs(
            state,
            rhs,
            dx,
            dy,
            self.gamma,
            |b, c, d, e, gamma| self.states.reconstruct(b, c, d, e, gamma),
            |left, right, gamma| self.flux.flux_x(left, right, gamma),
            KernelConfig::UNTILED,
        );
    }

    fn label(&self) -> &'static str {
        "InviscidFlux.patch-rhs"
    }
}

impl PatchRhsPort for InviscidInner {
    fn eval_patch(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64) {
        let _scope = self.services.profiler().scope("InviscidFlux.patch-rhs");
        self.services
            .profiler()
            .add_cells("InviscidFlux.patch-rhs", state.interior.count() as u64);
        // The port call runs the very kernel the executor runs.
        let k = self.patch_kernel().unwrap_or_else(|| {
            panic!(
                "{}.patch-rhs: `states` and `flux` must be connected to \
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
        // Snapshot afresh on every request: the limiter and γ are live
        // parameters, and a kernel must capture their current values.
        let states = self
            .services
            .get_port::<Rc<dyn StatesPort>>("states")
            .ok()?;
        let flux = self.services.get_port::<Rc<dyn FluxPort>>("flux").ok()?;
        Some(Arc::new(EulerPatchKernel {
            states: states.kernel()?,
            flux: flux.kernel()?,
            gamma: self.gamma(),
            evals: self.evals.clone(),
        }))
    }
}

/// The `InviscidFlux` adaptor: provides `patch-rhs`; uses `states`,
/// `flux`, `gas`.
#[derive(Default)]
pub struct InviscidFluxComponent;

impl Component for InviscidFluxComponent {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn StatesPort>>("states");
        s.register_uses_port::<Rc<dyn FluxPort>>("flux");
        s.register_uses_port::<Rc<dyn ParameterPort>>("gas");
        s.add_provides_port::<Rc<dyn PatchRhsPort>>(
            "patch-rhs",
            Rc::new(InviscidInner {
                services: s.clone(),
                evals: Arc::new(AtomicUsize::new(0)),
            }),
        );
    }
}

// ---------------------------------------------------------------------
// CharacteristicQuantities
// ---------------------------------------------------------------------

struct CharInner {
    services: Services,
}

impl EigenEstimatePort for CharInner {
    /// Largest `(|u|+c)/dx + (|v|+c)/dy` over the hierarchy — the inverse
    /// of the stable time step up to the CFL number.
    fn estimate(&self, name: &str) -> f64 {
        let mesh = self
            .services
            .get_port::<Rc<dyn MeshPort>>("mesh")
            .expect("CharacteristicQuantities needs the mesh port");
        let data = self
            .services
            .get_port::<Rc<dyn DataPort>>("data")
            .expect("CharacteristicQuantities needs the data port");
        let gamma = self
            .services
            .get_port::<Rc<dyn ParameterPort>>("gas")
            .expect("CharacteristicQuantities needs the GasProperties port")
            .get_parameter("gamma")
            .unwrap_or(1.4);
        let mut m: f64 = 0.0;
        for level in 0..mesh.n_levels() {
            let dx = mesh.dx(level);
            for (id, _, _) in mesh.patches(level) {
                data.with_patch(name, level, id, &mut |pd| {
                    m = m.max(max_wave_speed(pd, gamma, dx[0], dx[1]));
                });
            }
        }
        m
    }
}

/// The `CharacteristicQuantities` component: provides `eigen-estimate`;
/// uses `mesh`, `data`, `gas`.
#[derive(Default)]
pub struct CharacteristicQuantities;

impl Component for CharacteristicQuantities {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn MeshPort>>("mesh");
        s.register_uses_port::<Rc<dyn DataPort>>("data");
        s.register_uses_port::<Rc<dyn ParameterPort>>("gas");
        s.add_provides_port::<Rc<dyn EigenEstimatePort>>(
            "eigen-estimate",
            Rc::new(CharInner {
                services: s.clone(),
            }),
        );
    }
}
