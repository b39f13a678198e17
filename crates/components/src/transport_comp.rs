//! `DRFMComponent` ("a thin C++ wrapper around the Fortran77 DRFM
//! package" — here around `cca-transport`) and `MaxDiffCoeffEvaluator`
//! ("used by the explicit integrator to evaluate the maximum diffusion
//! coefficient over the domain to determine the maximum stable
//! timestep").

use crate::ports::{DataPort, EigenEstimatePort, MeshPort, TransportKernel, TransportPort};
use cca_core::{Component, Services};
use cca_transport::TransportModel;
use std::rc::Rc;
use std::sync::Arc;

/// Thread-safe core: the DRFM property fits are immutable data, so the
/// kernel is the model itself; the port's own methods delegate to it.
struct DrfmKernel {
    model: TransportModel,
}

impl TransportKernel for DrfmKernel {
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]) {
        self.model.mix_diffusivities(t, p, x, out);
    }

    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64 {
        self.model.mix_conductivity(t, x)
    }
}

struct DrfmInner {
    kernel: Arc<DrfmKernel>,
}

impl TransportPort for DrfmInner {
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]) {
        TransportKernel::mix_diffusivities(&*self.kernel, t, p, x, out);
    }

    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64 {
        TransportKernel::mix_conductivity(&*self.kernel, t, x)
    }

    fn max_diffusivity(&self, t: f64, p: f64) -> f64 {
        self.kernel.model.max_diffusivity(t, p)
    }

    fn kernel(&self) -> Option<Arc<dyn TransportKernel>> {
        Some(self.kernel.clone())
    }
}

/// The transport-property component. Provides `transport` (TransportPort)
/// for the full 9-species H₂–air system.
#[derive(Default)]
pub struct DrfmComponent;

impl Component for DrfmComponent {
    fn set_services(&mut self, s: Services) {
        let model =
            TransportModel::for_species(&["H2", "O2", "O", "OH", "H", "H2O", "HO2", "H2O2", "N2"]);
        s.add_provides_port::<Rc<dyn TransportPort>>(
            "transport",
            Rc::new(DrfmInner {
                kernel: Arc::new(DrfmKernel { model }),
            }),
        );
    }
}

struct MaxDiffInner {
    services: Services,
}

impl EigenEstimatePort for MaxDiffInner {
    fn estimate(&self, name: &str) -> f64 {
        let transport = self
            .services
            .get_port::<Rc<dyn TransportPort>>("transport")
            .expect("MaxDiffCoeffEvaluator needs the transport port");
        let mesh = self
            .services
            .get_port::<Rc<dyn MeshPort>>("mesh")
            .expect("MaxDiffCoeffEvaluator needs the mesh port");
        let data = self
            .services
            .get_port::<Rc<dyn DataPort>>("data")
            .expect("MaxDiffCoeffEvaluator needs the data port");
        // Hottest temperature anywhere (T is variable 0 of the reacting
        // Data Object).
        let mut t_max: f64 = 300.0;
        for level in 0..mesh.n_levels() {
            for (id, _, _) in mesh.patches(level) {
                data.with_patch(name, level, id, &mut |pd| {
                    let interior = pd.interior;
                    for (i, j) in interior.cells() {
                        t_max = t_max.max(pd.get(0, i, j));
                    }
                });
            }
        }
        let d_max = transport.max_diffusivity(t_max, 101_325.0);
        // Spectral radius of the diffusion operator on the finest level:
        // rho <= 4 D (1/dx^2 + 1/dy^2).
        let finest = mesh.n_levels() - 1;
        let dx = mesh.dx(finest);
        4.0 * d_max * (1.0 / (dx[0] * dx[0]) + 1.0 / (dx[1] * dx[1]))
    }
}

/// The spectral-radius estimator. Provides `eigen-estimate`
/// (EigenEstimatePort); uses `transport`, `mesh`, `data`.
#[derive(Default)]
pub struct MaxDiffCoeffEvaluator;

impl Component for MaxDiffCoeffEvaluator {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn TransportPort>>("transport");
        s.register_uses_port::<Rc<dyn MeshPort>>("mesh");
        s.register_uses_port::<Rc<dyn DataPort>>("data");
        s.add_provides_port::<Rc<dyn EigenEstimatePort>>(
            "eigen-estimate",
            Rc::new(MaxDiffInner {
                services: s.clone(),
            }),
        );
    }
}
