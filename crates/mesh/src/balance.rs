//! Load balancing and patch-to-rank assignment. Paper §3/§4.2: "Load
//! balancing and domain decomposition functionalities are implemented
//! here... Patches are collated and distributed among processors to
//! maximize load-balance while keeping parents and children on the same
//! processors."

use crate::hierarchy::Hierarchy;

/// Greedy LPT (longest processing time first): sort work descending,
/// always hand the next item to the least-loaded rank. Returns the rank of
/// each item, preserving input order.
pub fn assign_greedy(work: &[f64], nranks: usize) -> Vec<usize> {
    assert!(nranks > 0);
    let mut order: Vec<usize> = (0..work.len()).collect();
    order.sort_by(|&a, &b| work[b].partial_cmp(&work[a]).expect("finite work values"));
    let mut loads = vec![0.0f64; nranks];
    let mut owner = vec![0usize; work.len()];
    for idx in order {
        let r = loads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(r, _)| r)
            .expect("nranks > 0");
        owner[idx] = r;
        loads[r] += work[idx];
    }
    owner
}

/// Max-load over mean-load; 1.0 is perfect balance.
pub fn imbalance(loads: &[f64]) -> f64 {
    let max = loads.iter().cloned().fold(0.0, f64::max);
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Assign every patch of every level to a rank.
///
/// Level 0 is balanced greedily by `work`. Finer levels first try the
/// affinity rule (each patch goes to the owner of the coarse patch it
/// overlaps most, keeping parent and child on one processor so
/// prolongation/restriction is rank-local); if the resulting imbalance
/// exceeds `affinity_tolerance`, the level falls back to greedy LPT.
///
/// `work(hier, level, patch)` prices one patch; it sees the whole
/// hierarchy so a cost model can, e.g., charge a coarse patch for the
/// fine cells overlying it (owner-computes coarse-fine locality).
///
/// Returns per-level per-rank loads.
pub fn assign_hierarchy(
    hier: &mut Hierarchy,
    work: impl Fn(&Hierarchy, usize, &crate::hierarchy::Patch) -> f64,
    nranks: usize,
    affinity_tolerance: f64,
) -> Vec<Vec<f64>> {
    let mut level_loads: Vec<Vec<f64>> = Vec::with_capacity(hier.n_levels());
    for level in 0..hier.n_levels() {
        let patches = hier.levels[level].patches.clone();
        let works: Vec<f64> = patches.iter().map(|p| work(hier, level, p)).collect();
        let owners: Vec<usize> = if level == 0 {
            assign_greedy(&works, nranks)
        } else {
            // Affinity pass: strongest-overlap parent's owner.
            let parent_patches = hier.levels[level - 1].patches.clone();
            let by_affinity: Vec<usize> = patches
                .iter()
                .map(|p| {
                    let coarse = p.interior.coarsen(hier.ratio);
                    parent_patches
                        .iter()
                        .filter_map(|q| {
                            coarse
                                .intersect(&q.interior)
                                .map(|ov| (ov.count(), q.owner))
                        })
                        .max_by_key(|&(area, _)| area)
                        .map(|(_, owner)| owner)
                        .unwrap_or(0)
                })
                .collect();
            let mut loads = vec![0.0; nranks];
            for (o, w) in by_affinity.iter().zip(&works) {
                loads[*o] += w;
            }
            if imbalance(&loads) <= affinity_tolerance {
                by_affinity
            } else {
                assign_greedy(&works, nranks)
            }
        };
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

/// A patch whose owner changed during a rebalance: its stored bytes must
/// migrate `from → to` before the next exchange epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Move {
    /// Refinement level of the migrating patch.
    pub level: usize,
    /// Patch id within the hierarchy.
    pub id: usize,
    /// Rank that currently stores the patch.
    pub from: usize,
    /// Rank that owns (and must store) it after the rebalance.
    pub to: usize,
}

/// Re-run the full-hierarchy assignment at regrid time and report which
/// surviving patches changed owner relative to `prev_owner`.
///
/// `prev_owner` maps `(level, id)` to the rank that stored the patch before
/// the regrid; patches absent from it (freshly created by the regrid) are
/// assigned but never produce a [`Move`] — their data is born on the new
/// owner. The assignment itself is [`assign_hierarchy`], so level 0 gets
/// greedy LPT and finer levels keep parent affinity within tolerance;
/// determinism is inherited from those (stable sorts, first-minimum ties).
///
/// Returns `(per-level per-rank loads, moves sorted by (level, id))`.
pub fn rebalance_hierarchy(
    hier: &mut Hierarchy,
    work: impl Fn(&Hierarchy, usize, &crate::hierarchy::Patch) -> f64,
    nranks: usize,
    affinity_tolerance: f64,
    prev_owner: &[(usize, usize, usize)],
) -> (Vec<Vec<f64>>, Vec<Move>) {
    let level_loads = assign_hierarchy(hier, work, nranks, affinity_tolerance);
    let mut moves = Vec::new();
    for &(level, id, from) in prev_owner {
        let Some(patch) = hier.patch(level, id) else {
            continue; // regrid dropped the patch; nothing to migrate
        };
        if patch.owner != from {
            moves.push(Move {
                level,
                id,
                from,
                to: patch.owner,
            });
        }
    }
    moves.sort_unstable_by_key(|m| (m.level, m.id));
    (level_loads, moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::IntBox;

    #[test]
    fn greedy_balances_equal_work() {
        let work = vec![1.0; 8];
        let owners = assign_greedy(&work, 4);
        let mut loads = vec![0.0; 4];
        for (o, w) in owners.iter().zip(&work) {
            loads[*o] += w;
        }
        assert!((imbalance(&loads) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_handles_skewed_work() {
        let work = vec![10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let owners = assign_greedy(&work, 2);
        let mut loads = vec![0.0; 2];
        for (o, w) in owners.iter().zip(&work) {
            loads[*o] += w;
        }
        // Optimal split is 10 vs 10; LPT achieves it here.
        assert!((loads[0] - loads[1]).abs() < 1e-12, "{loads:?}");
    }

    #[test]
    fn more_ranks_than_patches() {
        let owners = assign_greedy(&[3.0, 2.0], 5);
        assert_eq!(owners.len(), 2);
        assert_ne!(owners[0], owners[1]);
    }

    #[test]
    fn hierarchy_affinity_keeps_children_with_parents() {
        let mut h = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0; 2], 2);
        // Two coarse patches side by side, two fine patches each nested in
        // one parent.
        h.set_level_boxes(
            0,
            &[IntBox::new([0, 0], [7, 15]), IntBox::new([8, 0], [15, 15])],
        );
        h.set_level_boxes(
            1,
            &[
                IntBox::new([2, 2], [5, 5]).refine(2),
                IntBox::new([10, 10], [13, 13]).refine(2),
            ],
        );
        assign_hierarchy(&mut h, |_, _, p| p.interior.count() as f64, 2, 1.5);
        let l0 = &h.levels[0].patches;
        let l1 = &h.levels[1].patches;
        // Each fine patch shares its strongest parent's rank.
        for f in l1 {
            let parent = l0
                .iter()
                .find(|p| p.interior.contains_box(&f.interior.coarsen(2)))
                .unwrap();
            assert_eq!(f.owner, parent.owner, "child strayed from parent");
        }
        // And the coarse patches went to different ranks.
        assert_ne!(l0[0].owner, l0[1].owner);
    }

    #[test]
    fn affinity_falls_back_when_badly_imbalanced() {
        let mut h = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0; 2], 2);
        h.set_level_boxes(
            0,
            &[IntBox::new([0, 0], [7, 15]), IntBox::new([8, 0], [15, 15])],
        );
        // All fine patches under parent 0: affinity would pile everything
        // on one rank.
        h.set_level_boxes(
            1,
            &[
                IntBox::new([0, 0], [3, 3]).refine(2),
                IntBox::new([0, 4], [3, 7]).refine(2),
                IntBox::new([4, 0], [7, 3]).refine(2),
                IntBox::new([4, 4], [7, 7]).refine(2),
            ],
        );
        let loads = assign_hierarchy(&mut h, |_, _, p| p.interior.count() as f64, 2, 1.2);
        let fine_loads = &loads[1];
        assert!(
            imbalance(fine_loads) <= 1.2 + 1e-12,
            "fallback failed: {fine_loads:?}"
        );
    }

    #[test]
    fn rebalance_reports_only_surviving_owner_changes() {
        let mut h = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0; 2], 2);
        let ids = h.set_level_boxes(
            0,
            &[IntBox::new([0, 0], [7, 15]), IntBox::new([8, 0], [15, 15])],
        );
        // Pretend both patches used to live on rank 1, plus a stale record
        // for a patch the regrid deleted.
        let prev: Vec<(usize, usize, usize)> = vec![(0, ids[0], 1), (0, ids[1], 1), (0, 999, 0)];
        let (loads, moves) =
            rebalance_hierarchy(&mut h, |_, _, p| p.interior.count() as f64, 2, 1.5, &prev);
        assert_eq!(loads[0].len(), 2);
        // Exactly one of the two equal patches leaves rank 1 (LPT splits
        // them across the two ranks); the deleted id produces no move.
        assert_eq!(moves.len(), 1, "{moves:?}");
        assert_eq!(moves[0].from, 1);
        assert!(moves.iter().all(|m| m.id != 999));
        // Moves agree with the post-assignment owners.
        for m in &moves {
            let p = h.patch(m.level, m.id).unwrap();
            assert_eq!(p.owner, m.to);
        }
    }

    #[test]
    fn imbalance_degenerate_cases() {
        assert_eq!(imbalance(&[0.0, 0.0]), 1.0);
        assert!((imbalance(&[2.0, 0.0]) - 2.0).abs() < 1e-12);
    }
}
