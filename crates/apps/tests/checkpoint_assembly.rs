//! Checkpoint/restart exercised through a full component assembly: set up
//! the shock-interface initial state, checkpoint it, damage the live
//! state, restore, and verify the physics diagnostics come back bit-equal.

use cca_apps::palette::standard_palette;
use cca_components::ports::{
    CheckpointPort, DataPort, InitialConditionPort, MeshPort, StatisticsPort,
};
use cca_core::script::run_script;
use std::rc::Rc;

fn assemble() -> cca_core::Framework {
    let mut fw = standard_palette();
    run_script(
        &mut fw,
        "instantiate GrACEComponent grace\n\
         instantiate GasProperties gas\n\
         instantiate ConicalInterfaceIC ic\n\
         instantiate StatisticsComponent statistics\n\
         connect ic mesh grace mesh\n\
         connect ic data grace data\n\
         connect ic gas gas gas\n\
         connect statistics mesh grace mesh\n\
         connect statistics data grace data\n",
    )
    .unwrap();
    fw
}

#[test]
fn checkpoint_restore_roundtrips_a_live_assembly() {
    let fw = assemble();
    let mesh: Rc<dyn MeshPort> = fw.get_provides_port("grace", "mesh").unwrap();
    let data: Rc<dyn DataPort> = fw.get_provides_port("grace", "data").unwrap();
    let ic: Rc<dyn InitialConditionPort> = fw.get_provides_port("ic", "ic").unwrap();
    let stats: Rc<dyn StatisticsPort> = fw.get_provides_port("statistics", "statistics").unwrap();
    let ckpt: Rc<dyn CheckpointPort> = fw.get_provides_port("grace", "checkpoint").unwrap();

    mesh.create(32, 16, 2.0, 1.0, 2);
    data.create_data_object("U", 5, 2);
    ic.apply("U");
    let rho_max_before = stats.max_var("U", 0);
    let integral_before = stats.integral("U", 0);
    assert!(rho_max_before > 2.0, "IC produced a shock state");

    let path = std::env::temp_dir().join("cca_assembly_ckpt.bin");
    let path = path.to_str().unwrap().to_string();
    ckpt.save(&path).unwrap();

    // Damage the live state thoroughly.
    let (id, _, _) = mesh.patches(0)[0];
    data.with_patch_mut("U", 0, id, &mut |pd| {
        for var in 0..5 {
            pd.fill_var(var, 0.1);
        }
    });
    assert!((stats.max_var("U", 0) - rho_max_before).abs() > 1e-6);

    ckpt.restore(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Diagnostics restored exactly.
    assert_eq!(stats.max_var("U", 0), rho_max_before);
    assert_eq!(stats.integral("U", 0), integral_before);
    // Geometry restored too.
    assert_eq!(mesh.level_domain(0).count(), 32 * 16);
}

/// The stream saves the exact patch-id counter, not `max(id) + 1`: after
/// a regrid whose patches were destroyed again, a restored assembly must
/// hand the next regrid the ids the uninterrupted one gets.
#[test]
fn restored_assembly_issues_the_same_patch_ids_as_the_live_one() {
    let regrid_churn = |fw: &cca_core::Framework| {
        let mesh: Rc<dyn MeshPort> = fw.get_provides_port("grace", "mesh").unwrap();
        let data: Rc<dyn DataPort> = fw.get_provides_port("grace", "data").unwrap();
        let ic: Rc<dyn InitialConditionPort> = fw.get_provides_port("ic", "ic").unwrap();
        mesh.create(32, 16, 2.0, 1.0, 2);
        data.create_data_object("U", 5, 2);
        ic.apply("U");
        assert!(!mesh.regrid(0, &[(10, 8), (11, 8)]).is_empty());
        assert!(mesh.regrid(0, &[]).is_empty(), "empty flags drop level 1");
        mesh
    };
    let live_fw = assemble();
    let live = regrid_churn(&live_fw);
    let ckpt: Rc<dyn CheckpointPort> = live_fw.get_provides_port("grace", "checkpoint").unwrap();
    let bytes = ckpt.save_bytes().unwrap();

    let restored_fw = assemble();
    let restored: Rc<dyn MeshPort> = restored_fw.get_provides_port("grace", "mesh").unwrap();
    let ckpt: Rc<dyn CheckpointPort> = restored_fw
        .get_provides_port("grace", "checkpoint")
        .unwrap();
    ckpt.restore_bytes(&bytes).unwrap();

    let flags = [(20, 4), (21, 5)];
    let want = live.regrid(0, &flags);
    assert!(!want.is_empty());
    assert_eq!(restored.regrid(0, &flags), want);
    assert_eq!(restored.patches(1), live.patches(1));
    let live_ckpt: Rc<dyn CheckpointPort> =
        live_fw.get_provides_port("grace", "checkpoint").unwrap();
    assert!(
        ckpt.save_bytes().unwrap() == live_ckpt.save_bytes().unwrap(),
        "the two assemblies diverged"
    );
}
