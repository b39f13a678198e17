//! `ThermoChemistry` — the paper's thermochemistry component: "it provides
//! the source terms for temperature and species due to chemistry and is a
//! thin C++ wrapper around Fortran 77 subroutines... also serves as a
//! Database subsystem, i.e. it holds the gas properties." Here the wrapped
//! library is `cca-chem`.
//!
//! The gas-phase evaluations live in one `Send + Sync` `MechKernel`: it
//! is the snapshot `kernel()` hands to the SAMR sweeps, and the port's
//! own per-call methods (what the 0D assembly calls, vector by vector)
//! delegate to it, so one object and one shared NFE counter serve both.

use crate::ports::{ChemistryKernel, ChemistrySourcePort};
use cca_chem::kinetics::Mechanism;
use cca_chem::thermo::Mixture;
use cca_core::{Component, ParameterPort, Services};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Which mechanism the component instantiates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MechanismChoice {
    /// 9 species, 19 reversible reactions (paper §4.1/§4.2).
    Full19,
    /// 8 species, 5 reactions (the deliberately light Table 4 mechanism).
    Reduced5,
}

/// The thread-safe core: mechanism data plus the production-rate call
/// counter (Table 4's NFE), shared by every port and kernel handle.
struct MechKernel {
    mech: Mechanism,
    calls: AtomicUsize,
}

impl ChemistryKernel for MechKernel {
    fn n_species(&self) -> usize {
        self.mech.n_species()
    }

    fn molar_masses(&self, out: &mut [f64]) {
        for (o, s) in out.iter_mut().zip(&self.mech.species) {
            *o = s.molar_mass;
        }
    }

    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.mech.production_rates(t, c, wdot);
    }

    fn enthalpies_molar(&self, t: f64, out: &mut [f64]) {
        for (o, s) in out.iter_mut().zip(&self.mech.species) {
            *o = s.h_molar(t);
        }
    }

    fn internal_energies_molar(&self, t: f64, out: &mut [f64]) {
        for (o, s) in out.iter_mut().zip(&self.mech.species) {
            *o = s.u_molar(t);
        }
    }

    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        Mixture::new(&self.mech.species).cp_mass(t, y)
    }

    fn cv_mass(&self, t: f64, y: &[f64]) -> f64 {
        Mixture::new(&self.mech.species).cv_mass(t, y)
    }

    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        Mixture::new(&self.mech.species).mean_molar_mass(y)
    }

    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        Mixture::new(&self.mech.species).density(t, p, y)
    }
}

struct Inner {
    kernel: Arc<MechKernel>,
    /// The Database face: gas properties by name.
    params: std::cell::RefCell<std::collections::BTreeMap<String, f64>>,
}

impl ChemistrySourcePort for Inner {
    fn n_species(&self) -> usize {
        self.kernel.n_species()
    }

    fn molar_mass(&self, i: usize) -> f64 {
        self.kernel.mech.species[i].molar_mass
    }

    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]) {
        ChemistryKernel::production_rates(&*self.kernel, t, c, wdot);
    }

    fn h_molar(&self, i: usize, t: f64) -> f64 {
        self.kernel.mech.species[i].h_molar(t)
    }

    fn u_molar(&self, i: usize, t: f64) -> f64 {
        self.kernel.mech.species[i].u_molar(t)
    }

    // Array overrides (CHEMKIN CKWT/CKHML/CKUML shape): one port call per
    // evaluation, no per-species dispatch in hot loops.
    fn molar_masses(&self, out: &mut [f64]) {
        self.kernel.molar_masses(out);
    }

    fn enthalpies_molar(&self, t: f64, out: &mut [f64]) {
        ChemistryKernel::enthalpies_molar(&*self.kernel, t, out);
    }

    fn internal_energies_molar(&self, t: f64, out: &mut [f64]) {
        ChemistryKernel::internal_energies_molar(&*self.kernel, t, out);
    }

    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        ChemistryKernel::cp_mass(&*self.kernel, t, y)
    }

    fn cv_mass(&self, t: f64, y: &[f64]) -> f64 {
        ChemistryKernel::cv_mass(&*self.kernel, t, y)
    }

    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        ChemistryKernel::mean_molar_mass(&*self.kernel, y)
    }

    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        ChemistryKernel::density(&*self.kernel, t, p, y)
    }

    fn calls(&self) -> usize {
        self.kernel.calls.load(Ordering::Relaxed)
    }

    fn kernel(&self) -> Option<Arc<dyn ChemistryKernel>> {
        Some(self.kernel.clone())
    }
}

impl ParameterPort for Inner {
    fn set_parameter(&self, key: &str, value: f64) {
        self.params.borrow_mut().insert(key.to_string(), value);
    }

    fn get_parameter(&self, key: &str) -> Option<f64> {
        // Built-in gas properties first, then user-set keys.
        match key {
            "n_species" => Some(self.kernel.mech.n_species() as f64),
            "n_reactions" => Some(self.kernel.mech.reactions.len() as f64),
            _ => self.params.borrow().get(key).copied(),
        }
    }
}

/// The component. Registers `chemistry` (ChemistrySourcePort) and
/// `properties` (ParameterPort) provides-ports.
pub struct ThermoChemistry {
    choice: MechanismChoice,
}

impl ThermoChemistry {
    /// Component with the full 19-reaction mechanism.
    pub fn full() -> Self {
        ThermoChemistry {
            choice: MechanismChoice::Full19,
        }
    }

    /// Component with the reduced 5-reaction mechanism.
    pub fn reduced() -> Self {
        ThermoChemistry {
            choice: MechanismChoice::Reduced5,
        }
    }
}

impl Component for ThermoChemistry {
    fn set_services(&mut self, s: Services) {
        let mech = match self.choice {
            MechanismChoice::Full19 => cca_chem::h2_air_19(),
            MechanismChoice::Reduced5 => cca_chem::h2_air_reduced_5(),
        };
        let inner = Rc::new(Inner {
            kernel: Arc::new(MechKernel {
                mech,
                calls: AtomicUsize::new(0),
            }),
            params: Default::default(),
        });
        s.add_provides_port::<Rc<dyn ChemistrySourcePort>>("chemistry", inner.clone());
        s.add_provides_port::<Rc<dyn ParameterPort>>("properties", inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(choice: MechanismChoice) -> Rc<dyn ChemistrySourcePort> {
        let mut c = ThermoChemistry { choice };
        let s = Services::new("chem");
        c.set_services(s.clone());
        // Fetch the provides port directly for unit testing.
        let mut fw = cca_core::Framework::new();
        fw.register_class("T", move || Box::new(ThermoChemistry { choice }));
        fw.instantiate("T", "t").unwrap();
        fw.get_provides_port::<Rc<dyn ChemistrySourcePort>>("t", "chemistry")
            .unwrap()
    }

    #[test]
    fn full_and_reduced_dimensions() {
        assert_eq!(port(MechanismChoice::Full19).n_species(), 9);
        assert_eq!(port(MechanismChoice::Reduced5).n_species(), 8);
    }

    #[test]
    fn database_face_reports_gas_properties() {
        let mut fw = cca_core::Framework::new();
        fw.register_class("T", || Box::new(ThermoChemistry::full()));
        fw.instantiate("T", "t").unwrap();
        let db = fw
            .get_provides_port::<Rc<dyn ParameterPort>>("t", "properties")
            .unwrap();
        assert_eq!(db.get_parameter("n_species"), Some(9.0));
        assert_eq!(db.get_parameter("n_reactions"), Some(19.0));
        db.set_parameter("reference_pressure", 101325.0);
        assert_eq!(db.get_parameter("reference_pressure"), Some(101325.0));
    }

    #[test]
    fn call_counter_tracks_nfe() {
        let p = port(MechanismChoice::Reduced5);
        let n = p.n_species();
        let mut wdot = vec![0.0; n];
        assert_eq!(p.calls(), 0);
        p.production_rates(1200.0, &vec![1e-3; n], &mut wdot);
        p.production_rates(1200.0, &vec![1e-3; n], &mut wdot);
        assert_eq!(p.calls(), 2);
    }

    #[test]
    fn kernel_matches_port_and_shares_the_counter() {
        let p = port(MechanismChoice::Full19);
        let k = p.kernel().expect("ThermoChemistry offers a kernel");
        let n = p.n_species();
        assert_eq!(k.n_species(), n);
        let c = vec![1e-3; n];
        let (mut wp, mut wk) = (vec![0.0; n], vec![0.0; n]);
        p.production_rates(1500.0, &c, &mut wp);
        k.production_rates(1500.0, &c, &mut wk);
        // The port delegates to the kernel: bit-identical rates...
        for (a, b) in wp.iter().zip(&wk) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // ...and one shared NFE counter.
        assert_eq!(p.calls(), 2);
        let y = vec![1.0 / n as f64; n];
        assert_eq!(
            p.density(1500.0, 101_325.0, &y).to_bits(),
            k.density(1500.0, 101_325.0, &y).to_bits()
        );
    }
}
