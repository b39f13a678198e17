//! Palette audit of the invariant every SAMR sweep relies on: a compute
//! port hands out a kernel snapshot. The sweeps have no port-by-port
//! fallback, so a palette class whose hook returned `None` would turn a
//! working script into an assembly error; this test finds it first.

use cca_apps::palette::standard_palette;
use cca_apps::reaction_diffusion::{rd_framework, rd_script, RdConfig};
use cca_apps::shock_interface::{shock_framework, shock_script, FluxChoice, ShockConfig};
use cca_components::ports::{
    ChemistrySourcePort, FluxPort, OdeIntegratorPort, PatchRhsPort, StatesPort, TransportPort,
};
use cca_core::script::run_script;
use cca_core::Framework;
use std::rc::Rc;

/// `(instance.port, port type, hook returned Some)` for every
/// provides-port of `instance` that is one of the six kernel-bearing types.
fn kernel_hooks(fw: &Framework, instance: &str) -> Vec<(String, &'static str, bool)> {
    let mut out = Vec::new();
    for port in fw.services(instance).unwrap().provides_names() {
        macro_rules! audit {
            ($trait_:ident, $hook:ident) => {
                if let Ok(p) = fw.get_provides_port::<Rc<dyn $trait_>>(instance, &port) {
                    let name = format!("{instance}.{port}");
                    out.push((name, stringify!($trait_), p.$hook().is_some()));
                }
            };
        }
        audit!(ChemistrySourcePort, kernel);
        audit!(TransportPort, kernel);
        audit!(StatesPort, kernel);
        audit!(FluxPort, kernel);
        audit!(OdeIntegratorPort, cell_kernel);
        audit!(PatchRhsPort, patch_kernel);
    }
    out
}

#[test]
fn every_palette_class_hands_out_its_kernel() {
    let mut fw = standard_palette();
    let mut audited = Vec::new();
    for class in fw.palette_classes() {
        fw.instantiate(&class, &class).unwrap();
        audited.extend(kernel_hooks(&fw, &class));
    }
    // Two chemistries, the integrator, transport, States, two fluxes, two
    // patch-rhs adaptors: the audit must not pass by finding nothing.
    assert_eq!(audited.len(), 9, "{audited:?}");
    for (port, ty, some) in &audited {
        // A patch-rhs snapshot is built from its upstream snapshots, so
        // unconnected it is the one hook that may (and must) say None.
        assert_eq!(*some, *ty != "PatchRhsPort", "{port}: {ty}");
    }
}

#[test]
fn every_kernel_hook_of_the_samr_scripts_is_some() {
    let without_go = |script: String| -> String {
        let keep = script
            .lines()
            .filter(|l| !l.trim_start().starts_with("go "));
        keep.collect::<Vec<_>>().join("\n")
    };
    let shock = |flux| {
        let cfg = ShockConfig {
            flux,
            ..ShockConfig::default()
        };
        (shock_framework(), shock_script(&cfg))
    };
    let assemblies = [
        (rd_framework(), rd_script(&RdConfig::default())),
        shock(FluxChoice::Godunov),
        shock(FluxChoice::Efm),
    ];
    for (mut fw, script) in assemblies {
        run_script(&mut fw, &without_go(script)).unwrap();
        let audited: Vec<_> = fw
            .instance_names()
            .iter()
            .flat_map(|instance| kernel_hooks(&fw, instance))
            .collect();
        assert!(
            audited.iter().any(|(_, ty, _)| *ty == "PatchRhsPort"),
            "{audited:?}"
        );
        for (port, ty, some) in &audited {
            assert!(some, "{port}: {ty} hands out no kernel snapshot");
        }
    }
}
