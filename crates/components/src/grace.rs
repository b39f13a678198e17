//! `GrACEComponent` — "the componetized version of the GrACE library",
//! serving the **Mesh**, **Data Object** and boundary-condition plumbing
//! subsystems (Tables 2 and 3). Wraps `cca-mesh`.

use crate::ports::{DataPort, MeshPort};
use cca_core::{Component, Services};
use cca_mesh::balance::assign_hierarchy;
use cca_mesh::bc::{apply_physical_bc, BcKind, Side};
use cca_mesh::boxes::IntBox;
use cca_mesh::data::{DataObject, PatchData};
use cca_mesh::ghost::{fill_coarse_fine_ghosts, fill_same_level_ghosts};
use cca_mesh::hierarchy::Hierarchy;
use cca_mesh::interp::restrict_average;
use cca_mesh::regrid::{regrid_level, RegridParams};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared state behind both ports. Hierarchy and field storage live in
/// *separate* `RefCell`s so a mesh query (e.g. `covered_by_finer`) is legal
/// while a patch's data is mutably borrowed through `with_patch_mut`.
pub struct GraceInner {
    hier: RefCell<Option<Hierarchy>>,
    objects: RefCell<BTreeMap<String, DataObject>>,
    regrid_params: RegridParams,
    services: Services,
}

impl GraceInner {
    fn with_hier<R>(&self, f: impl FnOnce(&Hierarchy) -> R) -> R {
        f(self
            .hier
            .borrow()
            .as_ref()
            .expect("MeshPort::create must run before any other mesh call"))
    }
}

impl MeshPort for GraceInner {
    fn create(&self, nx: i64, ny: i64, lx: f64, ly: f64, ratio: i64) {
        let h = Hierarchy::new(
            IntBox::sized(nx, ny),
            [0.0, 0.0],
            [lx / nx as f64, ly / ny as f64],
            ratio,
        );
        *self.hier.borrow_mut() = Some(h);
        self.objects.borrow_mut().clear();
    }

    fn n_levels(&self) -> usize {
        self.with_hier(|h| h.n_levels())
    }

    fn dx(&self, level: usize) -> [f64; 2] {
        self.with_hier(|h| h.dx(level))
    }

    fn level_domain(&self, level: usize) -> IntBox {
        self.with_hier(|h| h.level_domain(level))
    }

    fn patches(&self, level: usize) -> Vec<(usize, IntBox, usize)> {
        self.with_hier(|h| {
            h.levels
                .get(level)
                .map(|l| {
                    l.patches
                        .iter()
                        .map(|p| (p.id, p.interior, p.owner))
                        .collect()
                })
                .unwrap_or_default()
        })
    }

    fn cell_center(&self, level: usize, i: i64, j: i64) -> [f64; 2] {
        self.with_hier(|h| h.cell_center(level, i, j))
    }

    fn regrid(&self, level: usize, flags: &[(i64, i64)]) -> Vec<usize> {
        let _scope = self.services.profiler().scope("GrACEComponent.regrid");
        let mut hier = self.hier.borrow_mut();
        let hier = hier
            .as_mut()
            .expect("MeshPort::create must run before regrid");
        let mut objects = self.objects.borrow_mut();
        let mut refs: Vec<&mut DataObject> = objects.values_mut().collect();
        regrid_level(hier, level, flags, &self.regrid_params, &mut refs)
    }

    fn load_balance(&self, nranks: usize) -> Vec<Vec<f64>> {
        // Paper future-work (1): if a LoadBalancerPort is connected, it
        // decides the assignment level by level; otherwise the built-in
        // parent-affinity greedy balancer runs.
        let balancer = self
            .services
            .get_port::<std::rc::Rc<dyn crate::ports::LoadBalancerPort>>("load-balancer")
            .ok();
        let mut hier = self.hier.borrow_mut();
        let hier = hier.as_mut().expect("create first");
        match balancer {
            Some(b) => {
                let mut level_loads = Vec::with_capacity(hier.n_levels());
                for level in 0..hier.n_levels() {
                    let works: Vec<f64> = hier.levels[level]
                        .patches
                        .iter()
                        .map(|p| p.interior.count() as f64)
                        .collect();
                    let owners = b.assign(&works, nranks);
                    let mut loads = vec![0.0; nranks];
                    for ((patch, owner), w) in hier.levels[level]
                        .patches
                        .iter_mut()
                        .zip(&owners)
                        .zip(&works)
                    {
                        patch.owner = *owner;
                        loads[*owner] += w;
                    }
                    level_loads.push(loads);
                }
                level_loads
            }
            None => assign_hierarchy(hier, |_, _, p| p.interior.count() as f64, nranks, 1.5),
        }
    }

    fn covered_by_finer(&self, level: usize, i: i64, j: i64) -> bool {
        self.with_hier(|h| {
            if level + 1 >= h.n_levels() {
                return false;
            }
            // Fine patches are unions of whole coarse cells (they come
            // from refined coarse boxes), so one corner decides.
            h.levels[level + 1]
                .patches
                .iter()
                .any(|p| p.interior.contains(i * h.ratio, j * h.ratio))
        })
    }
}

impl DataPort for GraceInner {
    fn create_data_object(&self, name: &str, nvars: usize, nghost: i64) {
        let mut dobj = DataObject::new(nvars, nghost);
        self.with_hier(|h| {
            for (level, l) in h.levels.iter().enumerate() {
                for p in &l.patches {
                    dobj.allocate(level, p.id, p.interior);
                }
            }
        });
        self.objects.borrow_mut().insert(name.to_string(), dobj);
    }

    fn nvars(&self, name: &str) -> usize {
        self.objects
            .borrow()
            .get(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"))
            .nvars
    }

    fn with_patch_mut(
        &self,
        name: &str,
        level: usize,
        id: usize,
        f: &mut dyn FnMut(&mut PatchData),
    ) {
        let mut objects = self.objects.borrow_mut();
        let pd = objects
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"))
            .patch_mut(level, id)
            .unwrap_or_else(|| panic!("no patch {id} on level {level} of '{name}'"));
        f(pd);
    }

    fn with_patch(&self, name: &str, level: usize, id: usize, f: &mut dyn FnMut(&PatchData)) {
        let objects = self.objects.borrow();
        let pd = objects
            .get(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"))
            .patch(level, id)
            .unwrap_or_else(|| panic!("no patch {id} on level {level} of '{name}'"));
        f(pd);
    }

    fn fill_ghosts(&self, name: &str, level: usize, bc: &dyn Fn(Side, usize) -> BcKind) {
        let _scope = self.services.profiler().scope("GrACEComponent.fill-ghosts");
        let hier = self.hier.borrow();
        let hier = hier.as_ref().expect("create first");
        let mut objects = self.objects.borrow_mut();
        let dobj = objects
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"));
        fill_same_level_ghosts(dobj, hier, level);
        fill_coarse_fine_ghosts(dobj, hier, level);
        let domain = hier.level_domain(level);
        for p in &hier.levels[level].patches {
            let pd = dobj.patch_mut(level, p.id).expect("allocated");
            apply_physical_bc(pd, &domain, &bc);
        }
    }

    fn restrict_down(&self, name: &str) {
        let hier = self.hier.borrow();
        let hier = hier.as_ref().expect("create first");
        let mut objects = self.objects.borrow_mut();
        let dobj = objects
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"));
        for level in (1..hier.n_levels()).rev() {
            // Borrow the patch lists in place: `hier` and the Data
            // Object are distinct RefCells, so no clone is needed to
            // split the borrows.
            let fine_patches = &hier.levels[level].patches;
            let coarse_patches = &hier.levels[level - 1].patches;
            for fp in fine_patches {
                let fine_in_coarse = fp.interior.coarsen(hier.ratio);
                for cp in coarse_patches {
                    if let Some(region) = fine_in_coarse.intersect(&cp.interior) {
                        let (coarse_pd, fine_pd) = dobj
                            .patch_pair_mut(level - 1, cp.id, level, fp.id)
                            .expect("both allocated");
                        restrict_average(coarse_pd, fine_pd, &region, hier.ratio);
                    }
                }
            }
        }
    }

    fn copy_object(&self, src: &str, dst: &str) {
        let mut objects = self.objects.borrow_mut();
        let src_obj = objects
            .get(src)
            .unwrap_or_else(|| panic!("unknown Data Object '{src}'"))
            .clone();
        let dst_obj = objects
            .get_mut(dst)
            .unwrap_or_else(|| panic!("unknown Data Object '{dst}'"));
        *dst_obj = src_obj;
    }

    fn take_level_patches(&self, name: &str, level: usize, ids: &[usize]) -> Vec<PatchData> {
        // True move (no copy): the patches leave the Data Object and the
        // executor's workers own them exclusively until put back.
        let mut objects = self.objects.borrow_mut();
        let dobj = objects
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"));
        ids.iter()
            .map(|&id| {
                dobj.take_patch(level, id)
                    .unwrap_or_else(|| panic!("no patch {id} on level {level} of '{name}'"))
            })
            .collect()
    }

    fn put_level_patches(&self, name: &str, level: usize, ids: &[usize], patches: Vec<PatchData>) {
        assert_eq!(
            ids.len(),
            patches.len(),
            "put_level_patches id/patch mismatch"
        );
        let mut objects = self.objects.borrow_mut();
        let dobj = objects
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown Data Object '{name}'"));
        for (&id, pd) in ids.iter().zip(patches) {
            dobj.insert(level, id, pd);
        }
    }

    fn axpy(&self, dst: &str, s: f64, src: &str) {
        let hier = self.hier.borrow();
        let hier = hier.as_ref().expect("create first");
        let mut objects = self.objects.borrow_mut();
        // Split-borrow via remove/insert of the destination.
        let mut dst_obj = objects
            .remove(dst)
            .unwrap_or_else(|| panic!("unknown Data Object '{dst}'"));
        {
            let src_obj = objects
                .get(src)
                .unwrap_or_else(|| panic!("unknown Data Object '{src}'"));
            for (level, l) in hier.levels.iter().enumerate() {
                for p in &l.patches {
                    let spd = src_obj.patch(level, p.id).expect("allocated");
                    let dpd = dst_obj.patch_mut(level, p.id).expect("allocated");
                    let interior = dpd.interior;
                    for var in 0..dpd.nvars {
                        for (i, j) in interior.cells() {
                            dpd.add(var, i, j, s * spd.get(var, i, j));
                        }
                    }
                }
            }
        }
        objects.insert(dst.to_string(), dst_obj);
    }
}

impl crate::ports::CheckpointPort for GraceInner {
    fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.save_bytes()?).map_err(|e| e.to_string())
    }

    fn restore(&self, path: &str) -> Result<(), String> {
        self.restore_bytes(&std::fs::read(path).map_err(|e| e.to_string())?)
    }

    fn save_bytes(&self) -> Result<Vec<u8>, String> {
        let hier = self.hier.borrow();
        let hier = hier.as_ref().ok_or("no hierarchy to checkpoint")?;
        Ok(cca_mesh::checkpoint::write_checkpoint(
            hier,
            &self.objects.borrow(),
        ))
    }

    fn restore_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        let (hier, objects) =
            cca_mesh::checkpoint::read_checkpoint(bytes).map_err(|e| e.to_string())?;
        *self.hier.borrow_mut() = Some(hier);
        *self.objects.borrow_mut() = objects;
        Ok(())
    }
}

/// The component. Provides `mesh` (MeshPort) and `data` (DataPort).
#[derive(Default)]
pub struct GraceComponent {
    /// Regrid tuning (exposed for ablation studies).
    pub regrid_params: RegridParams,
}

impl Component for GraceComponent {
    fn set_services(&mut self, s: Services) {
        // Optional uses-port: a pluggable load balancer (future-work 1);
        // the built-in parent-affinity greedy balancer is the default.
        s.register_optional_uses_port::<Rc<dyn crate::ports::LoadBalancerPort>>("load-balancer");
        let inner = Rc::new(GraceInner {
            hier: RefCell::new(None),
            objects: RefCell::new(BTreeMap::new()),
            regrid_params: self.regrid_params,
            services: s.clone(),
        });
        s.add_provides_port::<Rc<dyn MeshPort>>("mesh", inner.clone());
        s.add_provides_port::<Rc<dyn DataPort>>("data", inner.clone());
        s.add_provides_port::<Rc<dyn crate::ports::CheckpointPort>>("checkpoint", inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports() -> (Rc<dyn MeshPort>, Rc<dyn DataPort>) {
        let mut fw = cca_core::Framework::new();
        fw.register_class("Grace", || Box::new(GraceComponent::default()));
        fw.instantiate("Grace", "g").unwrap();
        (
            fw.get_provides_port("g", "mesh").unwrap(),
            fw.get_provides_port("g", "data").unwrap(),
        )
    }

    #[test]
    fn create_and_query_geometry() {
        let (mesh, _) = ports();
        mesh.create(100, 100, 0.01, 0.01, 2);
        assert_eq!(mesh.n_levels(), 1);
        assert_eq!(mesh.dx(0), [1e-4, 1e-4]);
        let patches = mesh.patches(0);
        assert_eq!(patches.len(), 1);
        assert_eq!(patches[0].1.count(), 10_000);
        let c = mesh.cell_center(0, 0, 0);
        assert!((c[0] - 5e-5).abs() < 1e-18);
    }

    #[test]
    fn data_object_follows_regrid() {
        let (mesh, data) = ports();
        mesh.create(32, 32, 1.0, 1.0, 2);
        data.create_data_object("phi", 2, 2);
        // Paint the coarse level with a marker value.
        let (id0, _, _) = mesh.patches(0)[0];
        data.with_patch_mut("phi", 0, id0, &mut |pd| pd.fill_var(0, 3.0));
        // Flag the center; the new fine level must hold prolonged data.
        let flags: Vec<(i64, i64)> = (12..20)
            .flat_map(|i| (12..20).map(move |j| (i, j)))
            .collect();
        let new_ids = mesh.regrid(0, &flags);
        assert!(!new_ids.is_empty());
        assert_eq!(mesh.n_levels(), 2);
        for id in new_ids {
            data.with_patch("phi", 1, id, &mut |pd| {
                let interior = pd.interior;
                for (i, j) in interior.cells() {
                    assert_eq!(pd.get(0, i, j), 3.0);
                }
            });
        }
    }

    #[test]
    fn restrict_down_averages_fine_onto_coarse() {
        let (mesh, data) = ports();
        mesh.create(16, 16, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 1);
        let flags: Vec<(i64, i64)> = (4..12).flat_map(|i| (4..12).map(move |j| (i, j))).collect();
        let ids = mesh.regrid(0, &flags);
        for id in &ids {
            data.with_patch_mut("u", 1, *id, &mut |pd| pd.fill_var(0, 8.0));
        }
        data.restrict_down("u");
        let (id0, _, _) = mesh.patches(0)[0];
        data.with_patch("u", 0, id0, &mut |pd| {
            // A coarse cell under the fine level got the fine average.
            assert_eq!(pd.get(0, 6, 6), 8.0);
            // Far away stays 0.
            assert_eq!(pd.get(0, 0, 0), 0.0);
        });
    }

    #[test]
    fn covered_by_finer_tracks_fine_patches() {
        let (mesh, data) = ports();
        mesh.create(16, 16, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 1);
        let flags: Vec<(i64, i64)> = (6..10).flat_map(|i| (6..10).map(move |j| (i, j))).collect();
        mesh.regrid(0, &flags);
        assert!(mesh.covered_by_finer(0, 7, 7));
        assert!(!mesh.covered_by_finer(0, 0, 0));
        assert!(!mesh.covered_by_finer(1, 20, 20)); // no level 2
    }

    #[test]
    fn axpy_and_copy() {
        let (mesh, data) = ports();
        mesh.create(8, 8, 1.0, 1.0, 2);
        data.create_data_object("a", 1, 0);
        data.create_data_object("b", 1, 0);
        let (id, _, _) = mesh.patches(0)[0];
        data.with_patch_mut("a", 0, id, &mut |pd| pd.fill_var(0, 2.0));
        data.with_patch_mut("b", 0, id, &mut |pd| pd.fill_var(0, 10.0));
        data.axpy("a", 0.5, "b");
        data.with_patch("a", 0, id, &mut |pd| assert_eq!(pd.get(0, 3, 3), 7.0));
        data.copy_object("b", "a");
        data.with_patch("a", 0, id, &mut |pd| assert_eq!(pd.get(0, 3, 3), 10.0));
    }

    #[test]
    fn fill_ghosts_applies_physical_bc() {
        let (mesh, data) = ports();
        mesh.create(8, 8, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 2);
        let (id, _, _) = mesh.patches(0)[0];
        data.with_patch_mut("u", 0, id, &mut |pd| pd.fill_var(0, 1.0));
        data.fill_ghosts("u", 0, &|_, _| BcKind::Dirichlet(300.0));
        data.with_patch("u", 0, id, &mut |pd| {
            assert_eq!(pd.get(0, -1, 3), 300.0);
            assert_eq!(pd.get(0, 8, 8), 300.0);
            assert_eq!(pd.get(0, 3, 3), 1.0);
        });
    }

    #[test]
    fn checkpoint_roundtrip_through_the_port() {
        use crate::ports::CheckpointPort;
        let mut fw = cca_core::Framework::new();
        fw.register_class("Grace", || Box::new(GraceComponent::default()));
        fw.instantiate("Grace", "g").unwrap();
        let mesh: Rc<dyn MeshPort> = fw.get_provides_port("g", "mesh").unwrap();
        let data: Rc<dyn DataPort> = fw.get_provides_port("g", "data").unwrap();
        let ckpt: Rc<dyn CheckpointPort> = fw.get_provides_port("g", "checkpoint").unwrap();
        mesh.create(8, 8, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 1);
        let (id, _, _) = mesh.patches(0)[0];
        data.with_patch_mut("u", 0, id, &mut |pd| pd.fill_var(0, 7.5));
        let path = std::env::temp_dir().join("cca_grace_ckpt_test.bin");
        let path = path.to_str().unwrap().to_string();
        ckpt.save(&path).unwrap();
        // Wreck the state, then restore.
        data.with_patch_mut("u", 0, id, &mut |pd| pd.fill_var(0, -1.0));
        ckpt.restore(&path).unwrap();
        data.with_patch("u", 0, id, &mut |pd| assert_eq!(pd.get(0, 3, 3), 7.5));
        let _ = std::fs::remove_file(&path);
        // Restoring a missing file reports an error, not a panic.
        assert!(ckpt.restore("/nonexistent/nope.bin").is_err());
    }

    #[test]
    fn checkpoint_bytes_roundtrip_without_filesystem() {
        use crate::ports::CheckpointPort;
        let mut fw = cca_core::Framework::new();
        fw.register_class("Grace", || Box::new(GraceComponent::default()));
        fw.instantiate("Grace", "g").unwrap();
        let mesh: Rc<dyn MeshPort> = fw.get_provides_port("g", "mesh").unwrap();
        let data: Rc<dyn DataPort> = fw.get_provides_port("g", "data").unwrap();
        let ckpt: Rc<dyn CheckpointPort> = fw.get_provides_port("g", "checkpoint").unwrap();
        mesh.create(8, 8, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 1);
        let (id, _, _) = mesh.patches(0)[0];
        data.with_patch_mut("u", 0, id, &mut |pd| pd.fill_var(0, 2.25));
        let bytes = ckpt.save_bytes().unwrap();
        // Saving twice yields identical bytes (the cache-fidelity basis).
        assert_eq!(bytes, ckpt.save_bytes().unwrap());
        data.with_patch_mut("u", 0, id, &mut |pd| pd.fill_var(0, -9.0));
        ckpt.restore_bytes(&bytes).unwrap();
        data.with_patch("u", 0, id, &mut |pd| assert_eq!(pd.get(0, 3, 3), 2.25));
        assert!(ckpt.restore_bytes(b"garbage").is_err());
    }

    #[test]
    fn pluggable_balancer_overrides_builtin() {
        use crate::balancer_comp::RoundRobinLoadBalancer;
        let mut fw = cca_core::Framework::new();
        fw.register_class("Grace", || Box::new(GraceComponent::default()));
        fw.register_class("RR", || Box::<RoundRobinLoadBalancer>::default());
        fw.instantiate("Grace", "g").unwrap();
        fw.instantiate("RR", "rr").unwrap();
        fw.connect("g", "load-balancer", "rr", "load-balancer")
            .unwrap();
        let mesh: Rc<dyn MeshPort> = fw.get_provides_port("g", "mesh").unwrap();
        mesh.create(16, 16, 1.0, 1.0, 2);
        // Regrid into several fine patches, then balance round-robin.
        let flags: Vec<(i64, i64)> = (2..6)
            .flat_map(|i| (2..6).map(move |j| (i, j)))
            .chain((10..14).flat_map(|i| (10..14).map(move |j| (i, j))))
            .collect();
        mesh.regrid(0, &flags);
        mesh.load_balance(2);
        let owners: Vec<usize> = mesh.patches(1).iter().map(|(_, _, o)| *o).collect();
        // Round-robin: owners alternate in patch order.
        for (k, o) in owners.iter().enumerate() {
            assert_eq!(*o, k % 2, "{owners:?}");
        }
    }

    #[test]
    fn load_balance_assigns_owners() {
        let (mesh, data) = ports();
        mesh.create(32, 32, 1.0, 1.0, 2);
        data.create_data_object("u", 1, 0);
        let flags: Vec<(i64, i64)> = (4..28).flat_map(|i| (4..12).map(move |j| (i, j))).collect();
        mesh.regrid(0, &flags);
        let loads = mesh.load_balance(3);
        assert_eq!(loads.len(), mesh.n_levels());
        // All level-0 work lands somewhere.
        assert!(loads[0].iter().sum::<f64>() > 0.0);
    }
}
