//! The patch hierarchy: geometric bookkeeping of levels, patches, and
//! parent/child/sibling relations — the paper's **Mesh** subsystem ("it
//! serves as a means of declaring and maintaining patches in the mesh
//! hierarchy... determines and administers the child-parent-sibling
//! relationships and the spatio-temporal location of patches").

use crate::boxes::IntBox;

/// One rectangular patch of one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Patch {
    /// Hierarchy-unique id (stable across regrids of other levels).
    pub id: usize,
    /// Interior cells in this level's index space.
    pub interior: IntBox,
    /// Owning rank under the current domain decomposition.
    pub owner: usize,
}

/// One refinement level: a set of disjoint patches.
#[derive(Clone, Debug, Default)]
pub struct Level {
    /// The patches of this level.
    pub patches: Vec<Patch>,
}

impl Level {
    /// Total interior cells of the level.
    pub fn cell_count(&self) -> i64 {
        self.patches.iter().map(|p| p.interior.count()).sum()
    }
}

/// The SAMR hierarchy: geometry plus the level/patch structure.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Level-0 domain in index space.
    pub domain0: IntBox,
    /// Level-0 cell sizes (physical units).
    pub dx0: [f64; 2],
    /// Physical coordinates of the lower-left corner of the domain.
    pub origin: [f64; 2],
    /// Refinement ratio between consecutive levels.
    pub ratio: i64,
    /// The levels, coarsest first. Level 0 always covers `domain0`.
    pub levels: Vec<Level>,
    next_patch_id: usize,
}

impl Hierarchy {
    /// Create a single-level hierarchy whose level 0 is `domain0` split
    /// into one patch (decomposition happens separately).
    pub fn new(domain0: IntBox, origin: [f64; 2], dx0: [f64; 2], ratio: i64) -> Self {
        let mut h = Hierarchy {
            domain0,
            dx0,
            origin,
            ratio,
            levels: vec![Level::default()],
            next_patch_id: 0,
        };
        let id = h.fresh_id();
        h.levels[0].patches.push(Patch {
            id,
            interior: domain0,
            owner: 0,
        });
        h
    }

    /// Allocate a new unique patch id.
    pub fn fresh_id(&mut self) -> usize {
        let id = self.next_patch_id;
        self.next_patch_id += 1;
        id
    }

    /// Ensure future [`Hierarchy::fresh_id`] calls return at least
    /// `min_next` — used by checkpoint restart so restored patch ids are
    /// never reissued.
    pub fn reserve_ids(&mut self, min_next: usize) {
        self.next_patch_id = self.next_patch_id.max(min_next);
    }

    /// The id the next [`Hierarchy::fresh_id`] call would return.
    ///
    /// Checkpointing must save this exact watermark (not `max(id) + 1`
    /// over the surviving patches): regrids destroy patches, so the
    /// largest live id can undershoot the counter, and a restart that
    /// guessed from live ids would reissue ids the interrupted run never
    /// reused — changing the `(level, id)` summation order of every
    /// subsequent checksum and breaking bit-identical restart.
    pub fn next_id_watermark(&self) -> usize {
        self.next_patch_id
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Patch `id` of `level`, if both exist.
    pub fn patch(&self, level: usize, id: usize) -> Option<&Patch> {
        self.levels.get(level)?.patches.iter().find(|p| p.id == id)
    }

    /// The domain box of `level` (level 0 domain refined `level` times).
    pub fn level_domain(&self, level: usize) -> IntBox {
        let mut d = self.domain0;
        for _ in 0..level {
            d = d.refine(self.ratio);
        }
        d
    }

    /// Cell sizes on `level`.
    pub fn dx(&self, level: usize) -> [f64; 2] {
        let f = (self.ratio as f64).powi(level as i32);
        [self.dx0[0] / f, self.dx0[1] / f]
    }

    /// Physical coordinates of the center of cell `(i, j)` on `level`.
    pub fn cell_center(&self, level: usize, i: i64, j: i64) -> [f64; 2] {
        let dx = self.dx(level);
        [
            self.origin[0] + (i as f64 + 0.5) * dx[0],
            self.origin[1] + (j as f64 + 0.5) * dx[1],
        ]
    }

    /// Replace the patch set of `level` (regridding). Patches receive
    /// fresh ids; finer levels' nesting must be re-validated by the caller
    /// (regrid proceeds fine-to-coarse precisely to avoid stale nesting).
    pub fn set_level_boxes(&mut self, level: usize, boxes: &[IntBox]) -> Vec<usize> {
        while self.levels.len() <= level {
            self.levels.push(Level::default());
        }
        let ids: Vec<usize> = boxes.iter().map(|_| self.fresh_id()).collect();
        self.levels[level].patches = boxes
            .iter()
            .zip(&ids)
            .map(|(b, &id)| Patch {
                id,
                interior: *b,
                owner: 0,
            })
            .collect();
        ids
    }

    /// Drop levels finer than `level` (over-refined regions destroyed).
    pub fn truncate_levels(&mut self, n_levels: usize) {
        self.levels.truncate(n_levels.max(1));
    }

    /// Parent patches (level−1) overlapping patch `p` of `level`.
    pub fn parents_of(&self, level: usize, interior: &IntBox) -> Vec<&Patch> {
        if level == 0 {
            return Vec::new();
        }
        let coarse = interior.coarsen(self.ratio);
        self.levels[level - 1]
            .patches
            .iter()
            .filter(|q| q.interior.intersect(&coarse).is_some())
            .collect()
    }

    /// Child patches (level+1) overlapping patch `p` of `level`.
    pub fn children_of(&self, level: usize, interior: &IntBox) -> Vec<&Patch> {
        if level + 1 >= self.levels.len() {
            return Vec::new();
        }
        let fine = interior.refine(self.ratio);
        self.levels[level + 1]
            .patches
            .iter()
            .filter(|q| q.interior.intersect(&fine).is_some())
            .collect()
    }

    /// Are all patches of `level` disjoint? (Structural invariant.)
    pub fn level_disjoint(&self, level: usize) -> bool {
        let ps = &self.levels[level].patches;
        for (a, pa) in ps.iter().enumerate() {
            for pb in &ps[a + 1..] {
                if pa.interior.intersect(&pb.interior).is_some() {
                    return false;
                }
            }
        }
        true
    }

    /// Is every patch of `level` properly nested: contained in the union
    /// of the coarser level's patches (refined), and inside the level
    /// domain? A cell-by-cell check — O(cells), used in tests and debug
    /// assertions, not in the hot path.
    pub fn properly_nested(&self, level: usize) -> bool {
        if level == 0 {
            return self.levels[0]
                .patches
                .iter()
                .all(|p| self.domain0.contains_box(&p.interior));
        }
        let domain = self.level_domain(level);
        for p in &self.levels[level].patches {
            if !domain.contains_box(&p.interior) {
                return false;
            }
            let coarse = p.interior.coarsen(self.ratio);
            for (ci, cj) in coarse.cells() {
                let covered = self.levels[level - 1]
                    .patches
                    .iter()
                    .any(|q| q.interior.contains(ci, cj));
                if !covered {
                    return false;
                }
            }
        }
        true
    }

    /// Workload summary: cells per level.
    pub fn cells_per_level(&self) -> Vec<i64> {
        self.levels.iter().map(|l| l.cell_count()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Hierarchy {
        Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2)
    }

    #[test]
    fn level_geometry() {
        let h = base();
        assert_eq!(h.level_domain(0), IntBox::sized(16, 16));
        assert_eq!(h.level_domain(2), IntBox::sized(64, 64));
        assert_eq!(h.dx(1), [1.0 / 32.0; 2]);
        let c = h.cell_center(0, 0, 0);
        assert!((c[0] - 0.03125).abs() < 1e-15);
    }

    #[test]
    fn set_level_and_relations() {
        let mut h = base();
        let fine_boxes = [IntBox::new([4, 4], [11, 11]).refine(2)];
        h.set_level_boxes(1, &fine_boxes);
        assert!(h.properly_nested(1));
        assert!(h.level_disjoint(1));
        let parents = h.parents_of(1, &h.levels[1].patches[0].interior);
        assert_eq!(parents.len(), 1);
        let children = h.children_of(0, &h.levels[0].patches[0].interior);
        assert_eq!(children.len(), 1);
    }

    #[test]
    fn nesting_violation_detected() {
        let mut h = base();
        // Level 1 box poking outside the refined level-0 patch union is
        // impossible here (level 0 covers the domain), so instead build a
        // level-2 box outside level 1's union.
        h.set_level_boxes(1, &[IntBox::new([0, 0], [7, 7]).refine(2)]);
        assert!(h.properly_nested(1));
        h.set_level_boxes(2, &[IntBox::new([50, 50], [59, 59])]);
        assert!(!h.properly_nested(2));
        h.set_level_boxes(2, &[IntBox::new([4, 4], [11, 11])]);
        assert!(h.properly_nested(2));
    }

    #[test]
    fn overlapping_patches_fail_disjointness() {
        let mut h = base();
        h.set_level_boxes(1, &[IntBox::sized(8, 8), IntBox::new([4, 4], [11, 11])]);
        assert!(!h.level_disjoint(1));
    }

    #[test]
    fn ids_are_unique_across_regrids() {
        let mut h = base();
        let a = h.set_level_boxes(1, &[IntBox::sized(4, 4)]);
        let b = h.set_level_boxes(1, &[IntBox::sized(4, 4)]);
        assert_ne!(a, b);
    }

    #[test]
    fn truncate_keeps_coarsest() {
        let mut h = base();
        h.set_level_boxes(1, &[IntBox::sized(8, 8)]);
        h.set_level_boxes(2, &[IntBox::sized(8, 8)]);
        h.truncate_levels(1);
        assert_eq!(h.n_levels(), 1);
        h.truncate_levels(0); // never drops level 0
        assert_eq!(h.n_levels(), 1);
    }
}
