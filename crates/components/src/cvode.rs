//! `CvodeComponent` — "an implicit stiff/non-stiff integrator that
//! time-advances the system as it ignites. This is a thin wrapper around
//! the Cvode integrator library." The wrapped library here is the BDF
//! integrator of `cca-solvers`.

use crate::ports::{IntegrateStats, OdeCellKernel, OdeIntegratorPort, OdeRhsPort, OdeSystemKernel};
use cca_core::{Component, Services};
use cca_solvers::bdf::{Bdf, BdfConfig, BdfStats};
use cca_solvers::ode::OdeSystem;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

struct RhsAdapter {
    port: Rc<dyn OdeRhsPort>,
}

impl OdeSystem for RhsAdapter {
    fn dim(&self) -> usize {
        self.port.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        // One virtual call through the CCA port per RHS evaluation — the
        // dispatch whose cost Table 4 bounds.
        self.port.eval(t, y, dydt);
    }
}

/// Kernel-side adapter: same one-virtual-call-per-RHS shape as
/// [`RhsAdapter`], but over the `Sync` kernel system.
struct KernelSysAdapter<'a> {
    sys: &'a dyn OdeSystemKernel,
}

impl OdeSystem for KernelSysAdapter<'_> {
    fn dim(&self) -> usize {
        self.sys.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.sys.eval(t, y, dydt);
    }
}

fn to_port_stats(stats: BdfStats) -> IntegrateStats {
    IntegrateStats {
        steps: stats.steps,
        rhs_evals: stats.rhs_evals,
        jacobians: stats.jac_evals,
    }
}

/// A configuration snapshot of the component: tolerances and initial
/// step captured at [`OdeIntegratorPort::cell_kernel`] time — what the
/// hierarchy's chemistry sweep integrates every cell with. Runs the exact
/// `Bdf` code [`OdeIntegratorPort::integrate`] (the 0D assembly's call)
/// runs.
struct BdfCellKernel {
    rtol: f64,
    atol: f64,
    h_init: Option<f64>,
}

impl OdeCellKernel for BdfCellKernel {
    fn integrate(
        &self,
        sys: &dyn OdeSystemKernel,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String> {
        let bdf = Bdf::new(BdfConfig {
            rtol: self.rtol,
            atol: self.atol,
            h_init: self.h_init,
            ..BdfConfig::default()
        });
        let adapter = KernelSysAdapter { sys };
        let stats = bdf
            .integrate(&adapter, t0, t1, y)
            .map_err(|e| e.to_string())?;
        Ok(to_port_stats(stats))
    }
}

struct Inner {
    rtol: Cell<f64>,
    atol: Cell<f64>,
    h_init: Cell<Option<f64>>,
}

impl OdeIntegratorPort for Inner {
    fn integrate(
        &self,
        rhs: Rc<dyn OdeRhsPort>,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String> {
        let bdf = Bdf::new(BdfConfig {
            rtol: self.rtol.get(),
            atol: self.atol.get(),
            h_init: self.h_init.get(),
            ..BdfConfig::default()
        });
        let sys = RhsAdapter { port: rhs };
        let stats = bdf.integrate(&sys, t0, t1, y).map_err(|e| e.to_string())?;
        Ok(to_port_stats(stats))
    }

    fn set_tolerances(&self, rtol: f64, atol: f64) {
        self.rtol.set(rtol);
        self.atol.set(atol);
    }

    fn set_initial_step(&self, h: Option<f64>) {
        self.h_init.set(h);
    }

    fn cell_kernel(&self) -> Option<Arc<dyn OdeCellKernel>> {
        Some(Arc::new(BdfCellKernel {
            rtol: self.rtol.get(),
            atol: self.atol.get(),
            h_init: self.h_init.get(),
        }))
    }
}

/// The component. Provides `integrator` (OdeIntegratorPort).
#[derive(Default)]
pub struct CvodeComponent;

impl Component for CvodeComponent {
    fn set_services(&mut self, s: Services) {
        s.add_provides_port::<Rc<dyn OdeIntegratorPort>>(
            "integrator",
            Rc::new(Inner {
                rtol: Cell::new(1e-8),
                atol: Cell::new(1e-14),
                h_init: Cell::new(None),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Decay(Cell<usize>);
    impl OdeRhsPort for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn eval(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            self.0.set(self.0.get() + 1);
            d[0] = -y[0];
        }
        fn nfe(&self) -> usize {
            self.0.get()
        }
    }

    fn integrator() -> Rc<dyn OdeIntegratorPort> {
        let mut fw = cca_core::Framework::new();
        fw.register_class("Cvode", || Box::new(CvodeComponent));
        fw.instantiate("Cvode", "c").unwrap();
        fw.get_provides_port("c", "integrator").unwrap()
    }

    #[test]
    fn integrates_through_the_port() {
        let integ = integrator();
        let rhs = Rc::new(Decay(Cell::new(0)));
        let mut y = [1.0];
        let stats = integ.integrate(rhs.clone(), 0.0, 2.0, &mut y).unwrap();
        assert!((y[0] - (-2.0f64).exp()).abs() < 1e-7, "y = {}", y[0]);
        // The port's counter saw exactly the integrator's RHS calls.
        assert_eq!(rhs.nfe(), stats.rhs_evals);
        assert!(stats.steps > 0 && stats.jacobians > 0);
    }

    #[test]
    fn tolerances_are_settable() {
        let integ = integrator();
        let rhs = Rc::new(Decay(Cell::new(0)));
        integ.set_tolerances(1e-4, 1e-8);
        let mut y_loose = [1.0];
        let loose = integ
            .integrate(rhs.clone(), 0.0, 1.0, &mut y_loose)
            .unwrap();
        integ.set_tolerances(1e-11, 1e-14);
        let mut y_tight = [1.0];
        let tight = integ.integrate(rhs, 0.0, 1.0, &mut y_tight).unwrap();
        assert!(tight.rhs_evals > loose.rhs_evals);
        assert!(
            (y_tight[0] - (-1.0f64).exp()).abs() <= (y_loose[0] - (-1.0f64).exp()).abs() + 1e-12
        );
    }

    #[test]
    fn cell_kernel_is_bit_identical_to_the_port_path() {
        struct DecaySys;
        impl crate::ports::OdeSystemKernel for DecaySys {
            fn dim(&self) -> usize {
                1
            }
            fn eval(&self, _t: f64, y: &[f64], d: &mut [f64]) {
                d[0] = -y[0];
            }
        }
        let integ = integrator();
        integ.set_tolerances(1e-9, 1e-13);
        let mut y_port = [1.0];
        let port_stats = integ
            .integrate(Rc::new(Decay(Cell::new(0))), 0.0, 1.5, &mut y_port)
            .unwrap();
        // Snapshot taken after set_tolerances: same configuration.
        let kernel = integ.cell_kernel().expect("Cvode offers a cell kernel");
        let mut y_kernel = [1.0];
        let kernel_stats = kernel
            .integrate(&DecaySys, 0.0, 1.5, &mut y_kernel)
            .unwrap();
        assert_eq!(y_port[0].to_bits(), y_kernel[0].to_bits());
        assert_eq!(port_stats, kernel_stats);
    }

    #[test]
    fn reports_failures_as_strings() {
        let integ = integrator();
        let rhs = Rc::new(Decay(Cell::new(0)));
        let mut y = [1.0];
        let err = integ.integrate(rhs, 1.0, 0.0, &mut y).err().unwrap();
        assert!(err.contains("t1 > t0"), "{err}");
    }
}
