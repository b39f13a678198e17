//! Failure injection across the component stack: errors must surface as
//! `Err` values with informative messages, never as panics or silent
//! corruption.

use cca_apps::palette::standard_palette;
use cca_apps::reaction_diffusion::{run_reaction_diffusion, RdConfig, RdDriver};
use cca_components::ports::{
    ChemistryAdvancePort, ChemistryKernel, ChemistrySourcePort, DataPort, MeshPort,
};
use cca_core::script::run_script;
use cca_core::{CcaError, Component, Framework, Services};
use std::rc::Rc;
use std::sync::Arc;

/// Temperature of the one cell the [`FaultyChemistry`] kernel panics on.
const PANIC_T: f64 = 1234.5;

/// Kernel face of [`FaultyChemistry`]: the real kernel, except that
/// evaluating rates at exactly [`PANIC_T`] panics.
struct FaultyKernel(Arc<dyn ChemistryKernel>);

impl ChemistryKernel for FaultyKernel {
    fn n_species(&self) -> usize {
        self.0.n_species()
    }
    fn molar_masses(&self, out: &mut [f64]) {
        self.0.molar_masses(out);
    }
    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]) {
        assert!(t != PANIC_T, "injected chemistry kernel panic");
        self.0.production_rates(t, c, wdot);
    }
    fn enthalpies_molar(&self, t: f64, out: &mut [f64]) {
        self.0.enthalpies_molar(t, out);
    }
    fn internal_energies_molar(&self, t: f64, out: &mut [f64]) {
        self.0.internal_energies_molar(t, out);
    }
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.0.cp_mass(t, y)
    }
    fn cv_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.0.cv_mass(t, y)
    }
    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        self.0.mean_molar_mass(y)
    }
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        self.0.density(t, p, y)
    }
}

/// Port face of [`FaultyChemistry`]: forwards to the `inner` chemistry.
struct FaultyPort {
    services: Services,
    hands_out_kernel: bool,
}

impl FaultyPort {
    fn inner(&self) -> Rc<dyn ChemistrySourcePort> {
        self.services.get_port("inner").unwrap()
    }
}

impl ChemistrySourcePort for FaultyPort {
    fn n_species(&self) -> usize {
        self.inner().n_species()
    }
    fn molar_mass(&self, i: usize) -> f64 {
        self.inner().molar_mass(i)
    }
    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]) {
        self.inner().production_rates(t, c, wdot);
    }
    fn h_molar(&self, i: usize, t: f64) -> f64 {
        self.inner().h_molar(i, t)
    }
    fn u_molar(&self, i: usize, t: f64) -> f64 {
        self.inner().u_molar(i, t)
    }
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.inner().cp_mass(t, y)
    }
    fn cv_mass(&self, t: f64, y: &[f64]) -> f64 {
        self.inner().cv_mass(t, y)
    }
    fn mean_molar_mass(&self, y: &[f64]) -> f64 {
        self.inner().mean_molar_mass(y)
    }
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64 {
        self.inner().density(t, p, y)
    }
    fn calls(&self) -> usize {
        self.inner().calls()
    }
    fn kernel(&self) -> Option<Arc<dyn ChemistryKernel>> {
        if !self.hands_out_kernel {
            return None;
        }
        Some(Arc::new(FaultyKernel(self.inner().kernel()?)))
    }
}

/// Test palette classes: provide `chemistry` by forwarding to the
/// chemistry connected at `inner`. `FaultyChemistry` hands out a kernel
/// that panics on one cell, `KernelLessChemistry` hands out none.
struct FaultyChemistry {
    hands_out_kernel: bool,
}

impl Component for FaultyChemistry {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<dyn ChemistrySourcePort>>("inner");
        s.add_provides_port::<Rc<dyn ChemistrySourcePort>>(
            "chemistry",
            Rc::new(FaultyPort {
                services: s.clone(),
                hands_out_kernel: self.hands_out_kernel,
            }),
        );
    }
}

/// The implicit-chemistry assembly on an 8 × 8 coarse level with one
/// refined region, every cell at 1000 K (pure bulk species).
struct ChemistryRig {
    fw: Framework,
    mesh: Rc<dyn MeshPort>,
    data: Rc<dyn DataPort>,
    adv: Rc<dyn ChemistryAdvancePort>,
}

impl ChemistryRig {
    /// `wrapper` names the class (`FaultyChemistry`, `KernelLessChemistry`)
    /// to put between `implicit` and the real chemistry, if any.
    fn new(workers: usize, wrapper: Option<&str>) -> Self {
        let mut fw = standard_palette();
        for (class, hands_out_kernel) in [("FaultyChemistry", true), ("KernelLessChemistry", false)]
        {
            fw.register_class(class, move || {
                Box::new(FaultyChemistry { hands_out_kernel })
            });
        }
        fw.set_workers(workers);
        let chemistry = match wrapper {
            Some(class) => format!(
                "instantiate {class} faulty\n\
                 connect faulty inner chem chemistry\n\
                 connect implicit chemistry faulty chemistry\n"
            ),
            None => "connect implicit chemistry chem chemistry\n".to_string(),
        };
        run_script(
            &mut fw,
            &format!(
                "instantiate GrACEComponent grace\n\
                 instantiate ThermoChemistry chem\n\
                 instantiate CvodeComponent cvode\n\
                 instantiate ImplicitIntegrator implicit\n\
                 connect implicit integrator cvode integrator\n\
                 connect implicit mesh grace mesh\n\
                 connect implicit data grace data\n\
                 {chemistry}"
            ),
        )
        .unwrap();
        let mesh: Rc<dyn MeshPort> = fw.get_provides_port("grace", "mesh").unwrap();
        let data: Rc<dyn DataPort> = fw.get_provides_port("grace", "data").unwrap();
        let adv = fw
            .get_provides_port("implicit", "chemistry-advance")
            .unwrap();
        mesh.create(8, 8, 0.01, 0.01, 2);
        data.create_data_object("state", 9, 1);
        mesh.regrid(0, &[(3, 3), (4, 4)]);
        let rig = ChemistryRig {
            fw,
            mesh,
            data,
            adv,
        };
        assert_eq!(rig.mesh.n_levels(), 2, "the rig needs a fine level");
        for (level, id) in rig.patch_ids() {
            rig.data
                .with_patch_mut("state", level, id, &mut |pd| pd.fill_var(0, 1000.0));
        }
        rig
    }

    fn patch_ids(&self) -> Vec<(usize, usize)> {
        (0..self.mesh.n_levels())
            .flat_map(|level| {
                let ids = self.mesh.patches(level).into_iter().map(|(id, _, _)| id);
                ids.map(move |id| (level, id))
            })
            .collect()
    }

    /// Overwrite the temperature of one cell of the patch holding it.
    fn set_temperature(&self, level: usize, (i, j): (i64, i64), t: f64) {
        let (id, _, _) = self
            .mesh
            .patches(level)
            .into_iter()
            .find(|(_, interior, _)| interior.contains(i, j))
            .expect("cell lies in a patch");
        self.data
            .with_patch_mut("state", level, id, &mut |pd| pd.set(0, i, j, t));
    }

    /// The bits of every interior value of `state`, patch by patch in
    /// level then id order.
    fn snapshot(&self) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for (level, id) in self.patch_ids() {
            self.data.with_patch("state", level, id, &mut |pd| {
                let cells = pd.interior.cells();
                let bits =
                    cells.flat_map(|(i, j)| (0..pd.nvars).map(move |v| pd.get(v, i, j).to_bits()));
                out.push(bits.collect());
            });
        }
        out
    }
}

#[test]
fn nan_state_fails_chemistry_advance_gracefully() {
    let errors: Vec<String> = [1, 2]
        .into_iter()
        .map(|workers| {
            let rig = ChemistryRig::new(workers, None);
            // Two poisoned temperatures: an uncovered coarse cell in the
            // first batch of the sweep, and the last cell of the fine level
            // in the last batch. Whichever batch finishes first, the error
            // must name the first cell in sweep order.
            assert!(!rig.mesh.covered_by_finer(0, 6, 0));
            rig.set_temperature(0, (6, 0), f64::NAN);
            let (_, last_fine, _) = rig.mesh.patches(1).pop().unwrap();
            rig.set_temperature(1, (last_fine.hi[0], last_fine.hi[1]), f64::NAN);
            rig.adv
                .advance_chemistry("state", 1e-7, 101_325.0)
                .expect_err("NaN cells must fail the advance")
        })
        .collect();
    assert!(
        errors[0].starts_with("cell (6,0) level 0:"),
        "error should locate the first poisoned cell: {}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1], "1 worker vs 2 workers");
}

/// A panicking chemistry kernel poisons the advance but must not cost the
/// Data Object anything: the sweep works on gathered copies, so every
/// patch is still present and bit-unchanged.
#[test]
fn panicking_chemistry_kernel_leaves_the_data_object_intact() {
    for workers in [1, 2] {
        let rig = ChemistryRig::new(workers, Some("FaultyChemistry"));
        rig.set_temperature(1, (7, 7), PANIC_T);
        let before = rig.snapshot();
        let err = rig
            .adv
            .advance_chemistry("state", 1e-7, 101_325.0)
            .expect_err("a panicking kernel must fail the advance");
        assert!(err.contains("executor run poisoned"), "w={workers}: {err}");
        assert!(err.contains("injected chemistry kernel panic"), "{err}");
        assert_eq!(rig.fw.executor().stats().poisonings, 1, "w={workers}");
        assert_eq!(before, rig.snapshot(), "w={workers}");
    }
}

/// Sweeps run on kernel snapshots only: a chemistry class that hands out
/// none is an assembly error, reported by name before any cell is touched
/// — not a silent port-by-port slow path.
#[test]
fn chemistry_without_a_kernel_is_an_assembly_error() {
    let rig = ChemistryRig::new(2, Some("KernelLessChemistry"));
    let before = rig.snapshot();
    let err = rig
        .adv
        .advance_chemistry("state", 1e-7, 101_325.0)
        .expect_err("a kernel-less chemistry must fail the advance");
    assert!(err.starts_with("implicit:"), "{err}");
    assert!(err.contains("`chemistry`"), "{err}");
    assert!(err.contains("no kernel snapshot"), "{err}");
    assert_eq!(rig.fw.executor().stats().runs, 0, "no sweep was started");
    assert_eq!(before, rig.snapshot());
}

#[test]
fn missing_connection_fails_at_go_not_later() {
    let mut fw = standard_palette();
    fw.register_class("RDDriver", || Box::<RdDriver>::default());
    // Deliberately omit the statistics connection.
    let err = run_script(
        &mut fw,
        "instantiate GrACEComponent grace\n\
         instantiate RDDriver driver\n\
         connect driver mesh grace mesh\n\
         connect driver data grace data\n\
         go driver go\n",
    )
    .expect_err("dangling ports must be refused");
    match err {
        CcaError::Script { message, .. } => {
            assert!(message.contains("dangling"), "{message}");
            assert!(message.contains("statistics"), "{message}");
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn zero_steps_run_is_a_clean_noop() {
    let cfg = RdConfig {
        nx: 8,
        n_steps: 0,
        max_levels: 1,
        with_chemistry: false,
        ..RdConfig::default()
    };
    let (report, _) = run_reaction_diffusion(&cfg).unwrap();
    assert!(report.t_max_series.is_empty());
    assert_eq!(report.cells_per_level, vec![64]);
    // The final field is still captured (the IC).
    assert_eq!(report.final_t_field.len(), 64);
}

#[test]
fn unknown_data_object_panics_with_its_name() {
    let mut fw = standard_palette();
    fw.instantiate("GrACEComponent", "grace").unwrap();
    let mesh: Rc<dyn MeshPort> = fw.get_provides_port("grace", "mesh").unwrap();
    let data: Rc<dyn DataPort> = fw.get_provides_port("grace", "data").unwrap();
    mesh.create(4, 4, 1.0, 1.0, 2);
    let result =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| data.nvars("never-created")));
    let err = result.expect_err("must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("never-created"), "{msg}");
}
