//! Distributed SAMR: the ownership/storage split that lets one adaptive
//! hierarchy span SCMD ranks.
//!
//! The paper's GrACE layer manages a *distributed* adaptive mesh under the
//! component architecture; this module is our equivalent. The design rule
//! is the one every production AMR framework (FLASH, Chombo, waLBerla's
//! block forest) converges on:
//!
//! * **metadata is replicated** — every rank holds the full [`Hierarchy`]
//!   (patch boxes, ids, owners) and keeps it bit-identical by construction:
//!   regridding runs on an all-gathered, canonically sorted flag set with
//!   [`cluster_deterministic`], so no broadcast is needed;
//! * **storage is owner-local** — each rank's [`DataObject`] holds only
//!   the patches it owns; everything that crosses a rank boundary moves
//!   through explicit, deterministically ordered *manifests* (same-level
//!   ghost strips, coarse-fine donor ships, restriction windows, regrid
//!   prolongation/copy windows, migration records).
//!
//! Manifests are pure metadata: every rank derives the identical list from
//! the replicated hierarchy, then executes only its own sends/receives.
//! The same manifests drive comm-plan IR emission (see
//! `cca-analyze::distplan`), so the static verifier and the runtime audit
//! cover every distributed exchange with no extra bookkeeping.
//!
//! Bit-identity across P: ghost strips are exact copies of disjoint
//! regions; coarse-fine donors ship their *entire* ghost-padded box so the
//! receiver's limited prolongation sees exactly the stencil (and exactly
//! the clamping) a rank-local fill would; restriction is computed on the
//! sending rank with the same arithmetic `restrict_average` uses locally.
//! Hence field values never depend on which rank computed them.

use crate::balance::{assign_hierarchy, rebalance_hierarchy, Move};
use crate::boxes::IntBox;
use crate::checkpoint::{patch_from_bytes, patch_record_len, patch_to_bytes};
use crate::cluster::cluster_deterministic;
use crate::data::{DataObject, PatchData};
use crate::hierarchy::Hierarchy;
use crate::interp::prolong_limited;
use crate::regrid::RegridParams;
use cca_comm::Communicator;
use std::collections::BTreeMap;

/// Tag for coalesced same-level ghost-strip messages.
pub const TAG_SAME_LEVEL: u64 = 40;
/// Tag for coarse-fine donor-patch ships (full ghost-padded boxes).
pub const TAG_COARSE_FINE: u64 = 41;
/// Tag for restriction windows (pre-averaged on the fine owner).
pub const TAG_RESTRICT: u64 = 42;
/// Tag for regrid prolongation donor ships.
pub const TAG_PROLONG: u64 = 43;
/// Tag for regrid old-data copy windows.
pub const TAG_OLD_COPY: u64 = 44;
/// Tag for patch migration records.
pub const TAG_MIGRATE: u64 = 45;

/// A replicated adaptive hierarchy whose patch storage is distributed:
/// `hier` (metadata, identical on every rank) plus the rank count the
/// owner assignment targets.
#[derive(Clone, Debug)]
pub struct DistributedHierarchy {
    /// Replicated hierarchy metadata; `Patch::owner` is the storing rank.
    pub hier: Hierarchy,
    /// Number of SCMD ranks patches are distributed over.
    pub nranks: usize,
}

/// One same-level or regrid-copy window: copy `region` (a box in the
/// common index space of the level) from patch `donor` stored on rank
/// `src` into patch `recv` stored on rank `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionXfer {
    /// Rank storing the donor patch.
    pub src: usize,
    /// Rank storing the receiving patch.
    pub dst: usize,
    /// Donor patch id.
    pub donor: usize,
    /// Receiving patch id.
    pub recv: usize,
    /// Cells copied (donor interior ∩ receiver ghost box, or regrid
    /// overlap window).
    pub region: IntBox,
}

/// A whole coarse donor patch shipped `src → dst` (its full ghost-padded
/// box), so the receiver can run the limited prolongation stencil exactly
/// as if the donor were local.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DonorShip {
    /// Rank storing the donor.
    pub src: usize,
    /// Rank needing the donor's data.
    pub dst: usize,
    /// Donor patch id (on the coarse level).
    pub donor: usize,
}

/// Ghost cells of one fine patch served by one coarse donor, in the exact
/// discovery order the rank-local fill (`ghost::fill_coarse_fine_ghosts`)
/// would visit them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CfFill {
    /// Fine patch whose ghosts are filled.
    pub fine: usize,
    /// Coarse donor patch id.
    pub donor: usize,
    /// Fine-index ghost cells, discovery order (row-major over the ghost
    /// box).
    pub cells: Vec<(i64, i64)>,
}

/// The complete coarse-fine fill manifest for one level: per-donor cell
/// lists, donor ships that cross ranks, and the clamp-filled orphans with
/// no coarse coverage at all.
#[derive(Clone, Debug, Default)]
pub struct CoarseFinePlan {
    /// Prolongation work items, fine patches in level order, donors
    /// ascending per patch.
    pub fills: Vec<CfFill>,
    /// Cross-rank donor ships, deduped and sorted by `(src, dst, donor)`.
    pub ships: Vec<DonorShip>,
    /// Per fine patch: ghost cells with no coarse donor, filled
    /// zero-gradient from the patch's own interior.
    pub clamps: Vec<(usize, Vec<(i64, i64)>)>,
}

/// One restriction window: fine patch `fine` (stored on `src`) underlies
/// coarse patch `coarse` (stored on `dst`) over `region` in *coarse* index
/// space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestrictXfer {
    /// Rank storing the fine patch.
    pub src: usize,
    /// Rank storing the coarse patch.
    pub dst: usize,
    /// Fine patch id.
    pub fine: usize,
    /// Coarse patch id.
    pub coarse: usize,
    /// Restricted cells, coarse index space.
    pub region: IntBox,
}

/// A coalesced wire message: every manifest entry between one `(src, dst)`
/// pair rides one isend/irecv, exactly like the PR 5 halo coalescing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsgGroup {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Total payload elements (`f64`s for field exchanges, bytes for
    /// migration records).
    pub elems: usize,
    /// Indices into the originating manifest, in manifest order.
    pub xfers: Vec<usize>,
}

/// Coalesce manifest entries into per-`(src, dst)` wire messages. Input:
/// one `(src, dst, elems)` triple per manifest entry, manifest order.
/// Entries with `src == dst` are rank-local and excluded. Output is sorted
/// by `(src, dst)` with each group's `xfers` in manifest order — every
/// rank derives the identical grouping.
pub fn group_xfers(ends: &[(usize, usize, usize)]) -> Vec<MsgGroup> {
    let mut by_pair: BTreeMap<(usize, usize), MsgGroup> = BTreeMap::new();
    for (idx, &(src, dst, elems)) in ends.iter().enumerate() {
        if src == dst {
            continue;
        }
        let g = by_pair.entry((src, dst)).or_insert(MsgGroup {
            src,
            dst,
            elems: 0,
            xfers: Vec::new(),
        });
        g.elems += elems;
        g.xfers.push(idx);
    }
    by_pair.into_values().collect()
}

/// Wire-level `(src, dst, tag, bytes)` tuples for a group list — the exact
/// shape `cca-analyze`'s plan builder consumes. `elem_bytes` is 8 for
/// `f64` payloads and 1 for raw migration bytes.
pub fn group_wire_msgs(
    groups: &[MsgGroup],
    tag: u64,
    elem_bytes: usize,
) -> Vec<(usize, usize, u64, u64)> {
    groups
        .iter()
        .map(|g| (g.src, g.dst, tag, (g.elems * elem_bytes) as u64))
        .collect()
}

/// The patch → owner map and every derived manifest.
impl DistributedHierarchy {
    /// Wrap replicated hierarchy metadata for distribution over `nranks`.
    pub fn new(hier: Hierarchy, nranks: usize) -> Self {
        assert!(nranks > 0, "need at least one rank");
        DistributedHierarchy { hier, nranks }
    }

    /// Owner rank of patch `id` on `level`, if the patch exists.
    pub fn owner(&self, level: usize, id: usize) -> Option<usize> {
        self.hier.patch(level, id).map(|p| p.owner)
    }

    /// `(level, id, owner)` for every patch — the `prev_owner` input of a
    /// later rebalance.
    pub fn owner_snapshot(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (level, l) in self.hier.levels.iter().enumerate() {
            for p in &l.patches {
                out.push((level, p.id, p.owner));
            }
        }
        out
    }

    /// Run the full-hierarchy owner assignment (level 0 greedy LPT, finer
    /// levels parent-affinity within `affinity_tolerance`). Returns
    /// per-level per-rank loads. Deterministic, so every rank may call it
    /// independently on identical metadata.
    pub fn assign_owners(
        &mut self,
        work: impl Fn(&Hierarchy, usize, &crate::hierarchy::Patch) -> f64,
        affinity_tolerance: f64,
    ) -> Vec<Vec<f64>> {
        assign_hierarchy(&mut self.hier, work, self.nranks, affinity_tolerance)
    }

    /// Allocate storage in `dobj` for every patch `rank` owns (all
    /// levels). The ownership/storage split in one line: metadata is
    /// everywhere, field memory only here.
    pub fn allocate_owned(&self, dobj: &mut DataObject, rank: usize) {
        dobj.ensure_levels(self.hier.n_levels());
        for (level, l) in self.hier.levels.iter().enumerate() {
            for p in &l.patches {
                if p.owner == rank {
                    dobj.allocate(level, p.id, p.interior);
                }
            }
        }
    }

    /// Same-level ghost manifest for `level`: every (receiver ghost box ∩
    /// donor interior) window, receivers in level order, donors in level
    /// order per receiver — the iteration order of the rank-local fill.
    pub fn same_level_xfers(&self, level: usize, nghost: i64) -> Vec<RegionXfer> {
        let patches = &self.hier.levels[level].patches;
        let mut out = Vec::new();
        for p in patches {
            let total = p.interior.grow(nghost);
            for q in patches {
                if q.id == p.id {
                    continue;
                }
                if let Some(region) = total.intersect(&q.interior) {
                    out.push(RegionXfer {
                        src: q.owner,
                        dst: p.owner,
                        donor: q.id,
                        recv: p.id,
                        region,
                    });
                }
            }
        }
        out
    }

    /// Coarse-fine fill manifest for `level` (> 0): which coarse donor
    /// serves each orphan ghost cell, which donors must be shipped across
    /// ranks, and which cells have no donor. Mirrors the donor-selection
    /// rules of `ghost::fill_coarse_fine_ghosts` cell for cell.
    pub fn coarse_fine_plan(&self, level: usize, nghost: i64) -> CoarseFinePlan {
        let mut plan = CoarseFinePlan::default();
        if level == 0 {
            return plan;
        }
        let ratio = self.hier.ratio;
        let domain = self.hier.level_domain(level);
        let patches = &self.hier.levels[level].patches;
        let coarse = &self.hier.levels[level - 1].patches;
        for p in patches {
            let total = p.interior.grow(nghost);
            let near: Vec<usize> = patches
                .iter()
                .enumerate()
                .filter_map(|(qi, q)| {
                    (q.id != p.id && q.interior.intersect(&total).is_some()).then_some(qi)
                })
                .collect();
            // (donor id, i, j) in discovery order, exactly like the local
            // fill's flattened cell list.
            let mut cells: Vec<(usize, i64, i64)> = Vec::new();
            let mut orphans: Vec<(i64, i64)> = Vec::new();
            for (i, j) in total.cells() {
                if p.interior.contains(i, j) || !domain.contains(i, j) {
                    continue;
                }
                if near.iter().any(|&qi| patches[qi].interior.contains(i, j)) {
                    continue;
                }
                let ci = i.div_euclid(ratio);
                let cj = j.div_euclid(ratio);
                let donor = coarse
                    .iter()
                    .find(|q| q.interior.contains(ci, cj))
                    .or_else(|| {
                        coarse
                            .iter()
                            .find(|q| q.interior.grow(nghost).contains(ci, cj))
                    });
                if let Some(d) = donor {
                    cells.push((d.id, i, j));
                } else {
                    orphans.push((i, j));
                }
            }
            let mut donors: Vec<usize> = cells.iter().map(|t| t.0).collect();
            donors.sort_unstable();
            donors.dedup();
            for donor in donors {
                let fill_cells: Vec<(i64, i64)> = cells
                    .iter()
                    .filter(|t| t.0 == donor)
                    .map(|t| (t.1, t.2))
                    .collect();
                let donor_owner = self
                    .owner(level - 1, donor)
                    .expect("donor came from this level");
                if donor_owner != p.owner {
                    plan.ships.push(DonorShip {
                        src: donor_owner,
                        dst: p.owner,
                        donor,
                    });
                }
                plan.fills.push(CfFill {
                    fine: p.id,
                    donor,
                    cells: fill_cells,
                });
            }
            if !orphans.is_empty() {
                plan.clamps.push((p.id, orphans));
            }
        }
        plan.ships.sort_unstable();
        plan.ships.dedup();
        plan
    }

    /// Restriction manifest: every (coarse interior ∩ coarsened fine
    /// interior) window of `fine_level`, coarse patches outermost — the
    /// iteration order of a rank-local restriction sweep.
    pub fn restrict_xfers(&self, fine_level: usize) -> Vec<RestrictXfer> {
        assert!(fine_level > 0, "level 0 has no parent to restrict into");
        let ratio = self.hier.ratio;
        let coarse = &self.hier.levels[fine_level - 1].patches;
        let fine = &self.hier.levels[fine_level].patches;
        let mut out = Vec::new();
        for c in coarse {
            for f in fine {
                if let Some(region) = c.interior.intersect(&f.interior.coarsen(ratio)) {
                    out.push(RestrictXfer {
                        src: f.owner,
                        dst: c.owner,
                        fine: f.id,
                        coarse: c.id,
                        region,
                    });
                }
            }
        }
        out
    }
}

/// Coalesced wire groups for a same-level (or regrid-copy) manifest.
pub fn region_groups(xfers: &[RegionXfer], nvars: usize) -> Vec<MsgGroup> {
    let ends: Vec<(usize, usize, usize)> = xfers
        .iter()
        .map(|x| (x.src, x.dst, nvars * x.region.count() as usize))
        .collect();
    group_xfers(&ends)
}

/// Coalesced wire groups for coarse-fine / prolongation donor ships: each
/// ship carries the donor's full ghost-padded box.
pub fn ship_groups(
    dh: &DistributedHierarchy,
    ships: &[DonorShip],
    donor_level: usize,
    nvars: usize,
    nghost: i64,
) -> Vec<MsgGroup> {
    let ends: Vec<(usize, usize, usize)> = ships
        .iter()
        .map(|s| {
            let donor = dh
                .hier
                .patch(donor_level, s.donor)
                .expect("shipped donor exists");
            let total = donor.interior.grow(nghost);
            (s.src, s.dst, nvars * total.count() as usize)
        })
        .collect();
    group_xfers(&ends)
}

/// Coalesced wire groups for a restriction manifest.
pub fn restrict_groups(xfers: &[RestrictXfer], nvars: usize) -> Vec<MsgGroup> {
    let ends: Vec<(usize, usize, usize)> = xfers
        .iter()
        .map(|x| (x.src, x.dst, nvars * x.region.count() as usize))
        .collect();
    group_xfers(&ends)
}

/// Post one irecv per group destined for `rank` (group order), send one
/// packed isend per group sourced at `rank` (group order, payload packed
/// by `pack` per manifest index), then waitall. Returns the received
/// payloads in group order. This call order — irecvs, isends, waitall —
/// is exactly what the plan builder emits, so traces audit clean.
fn exchange_f64(
    comm: &Communicator,
    groups: &[MsgGroup],
    tag: u64,
    mut pack: impl FnMut(usize, &mut Vec<f64>),
) -> BTreeMap<usize, Vec<f64>> {
    let rank = comm.rank();
    let mut reqs = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        if g.dst == rank {
            reqs.push((gi, comm.irecv::<f64>(g.src, tag)));
        }
    }
    for g in groups.iter().filter(|g| g.src == rank) {
        let mut buf = Vec::with_capacity(g.elems);
        for &xi in &g.xfers {
            pack(xi, &mut buf);
        }
        debug_assert_eq!(buf.len(), g.elems);
        comm.isend(g.dst, tag, &buf);
        comm.note_coalesced(g.xfers.len() as u64);
    }
    let mut received = BTreeMap::new();
    for (gi, req) in reqs {
        received.insert(gi, comm.wait(req));
    }
    received
}

/// Distributed same-level ghost fill: rank-local windows are copied
/// directly, cross-rank windows ride one coalesced message per rank pair.
/// Ghost regions from distinct donors are disjoint, so the fill is
/// value-identical to the rank-local `ghost::fill_same_level_ghosts`.
pub fn exchange_same_level(
    comm: &Communicator,
    dobj: &mut DataObject,
    level: usize,
    xfers: &[RegionXfer],
    groups: &[MsgGroup],
) {
    let rank = comm.rank();
    let received = exchange_f64(comm, groups, TAG_SAME_LEVEL, |xi, buf| {
        let x = &xfers[xi];
        let donor = dobj.patch(level, x.donor).expect("donor stored locally");
        let n = donor.nvars * x.region.count() as usize;
        let off = buf.len();
        buf.resize(off + n, 0.0);
        donor.pack_into(&x.region, &mut buf[off..]);
    });
    // Local windows, manifest order.
    for x in xfers.iter().filter(|x| x.src == rank && x.dst == rank) {
        let strip = dobj
            .patch(level, x.donor)
            .expect("donor stored locally")
            .pack(&x.region);
        dobj.patch_mut(level, x.recv)
            .expect("receiver stored locally")
            .unpack(&x.region, &strip);
    }
    // Remote windows, group order then manifest order within the group.
    for_each_received(groups, received, |xi, rest| {
        let x = &xfers[xi];
        let pd = dobj
            .patch_mut(level, x.recv)
            .expect("receiver stored locally");
        let n = pd.nvars * x.region.count() as usize;
        pd.unpack(&x.region, &rest[..n]);
        n
    });
}

/// Distributed coarse-fine ghost fill: ship the cross-rank coarse donors
/// whole, then run the limited per-cell prolongation locally against
/// either the stored or the shipped donor. Clamp-fill orphans last, like
/// the rank-local path.
pub fn exchange_coarse_fine(
    comm: &Communicator,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
    level: usize,
    plan: &CoarseFinePlan,
    groups: &[MsgGroup],
) {
    let rank = comm.rank();
    let ratio = dh.hier.ratio;
    let remote = ship_donors(
        comm,
        dh,
        dobj,
        level - 1,
        &plan.ships,
        groups,
        TAG_COARSE_FINE,
    );
    for fill in &plan.fills {
        if dh.owner(level, fill.fine) != Some(rank) {
            continue;
        }
        let donor_local = dh.owner(level - 1, fill.donor) == Some(rank);
        for &(i, j) in &fill.cells {
            let cell = IntBox::new([i, j], [i, j]);
            if donor_local {
                let (fine_pd, coarse_pd) = dobj
                    .patch_pair_mut(level, fill.fine, level - 1, fill.donor)
                    .expect("both stored locally");
                prolong_limited(fine_pd, coarse_pd, &cell, ratio);
            } else {
                let coarse_pd = remote.get(&fill.donor).expect("donor was shipped");
                let fine_pd = dobj
                    .patch_mut(level, fill.fine)
                    .expect("fine patch stored locally");
                prolong_limited(fine_pd, coarse_pd, &cell, ratio);
            }
        }
    }
    for (fine, orphans) in &plan.clamps {
        if dh.owner(level, *fine) != Some(rank) {
            continue;
        }
        let pd = dobj
            .patch_mut(level, *fine)
            .expect("fine patch stored locally");
        let interior = pd.interior;
        for &(i, j) in orphans {
            let ii = i.clamp(interior.lo[0], interior.hi[0]);
            let jj = j.clamp(interior.lo[1], interior.hi[1]);
            for var in 0..pd.nvars {
                let v = pd.get(var, ii, jj);
                pd.set(var, i, j, v);
            }
        }
    }
}

/// Distributed conservative restriction: windows whose fine patch lives
/// elsewhere arrive pre-averaged from the fine owner (same arithmetic as
/// `interp::restrict_average`, so values are bit-identical to a local
/// sweep); local windows restrict in place.
pub fn exchange_restrict(
    comm: &Communicator,
    dobj: &mut DataObject,
    fine_level: usize,
    ratio: i64,
    xfers: &[RestrictXfer],
    groups: &[MsgGroup],
) {
    let rank = comm.rank();
    let nvars = dobj.nvars;
    let inv = 1.0 / (ratio * ratio) as f64;
    let received = exchange_f64(comm, groups, TAG_RESTRICT, |xi, buf| {
        let x = &xfers[xi];
        let fine = dobj.patch(fine_level, x.fine).expect("fine stored locally");
        for var in 0..nvars {
            for (ci, cj) in x.region.cells() {
                let mut acc = 0.0;
                for dj in 0..ratio {
                    for di in 0..ratio {
                        acc += fine.get(var, ci * ratio + di, cj * ratio + dj);
                    }
                }
                buf.push(acc * inv);
            }
        }
    });
    for x in xfers.iter().filter(|x| x.src == rank && x.dst == rank) {
        let (coarse_pd, fine_pd) = dobj
            .patch_pair_mut(fine_level - 1, x.coarse, fine_level, x.fine)
            .expect("both stored locally");
        crate::interp::restrict_average(coarse_pd, fine_pd, &x.region, ratio);
    }
    for_each_received(groups, received, |xi, rest| {
        let x = &xfers[xi];
        let pd = dobj
            .patch_mut(fine_level - 1, x.coarse)
            .expect("coarse stored locally");
        let n = nvars * x.region.count() as usize;
        pd.unpack(&x.region, &rest[..n]);
        n
    });
}

/// Coalesced wire groups for a migration: one message per `(src, dst)`
/// pair, `elems` in **bytes** (migration records are raw bytes, not
/// `f64`s), moves in `(level, id)` order within each group.
pub fn migration_groups(
    dh: &DistributedHierarchy,
    moves: &[Move],
    nvars: usize,
    nghost: i64,
) -> Vec<MsgGroup> {
    let ends: Vec<(usize, usize, usize)> = moves
        .iter()
        .map(|m| {
            let moved = dh.hier.patch(m.level, m.id).expect("moved patch exists");
            (
                m.from,
                m.to,
                patch_record_len(&moved.interior, nvars, nghost),
            )
        })
        .collect();
    group_xfers(&ends)
}

/// Execute a migration: senders serialize and *remove* each moved patch,
/// receivers parse and insert. Payloads are concatenated
/// `checkpoint::patch_to_bytes` records, so a migrated patch arrives
/// bit-identical, ghosts included.
pub fn migrate_patches(
    comm: &Communicator,
    dobj: &mut DataObject,
    moves: &[Move],
    groups: &[MsgGroup],
) {
    let rank = comm.rank();
    let nvars = dobj.nvars;
    let nghost = dobj.nghost;
    let mut reqs = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        if g.dst == rank {
            reqs.push((gi, comm.irecv::<u8>(g.src, TAG_MIGRATE)));
        }
    }
    for g in groups.iter().filter(|g| g.src == rank) {
        let mut buf: Vec<u8> = Vec::with_capacity(g.elems);
        for &mi in &g.xfers {
            let m = &moves[mi];
            let pd = dobj
                .take_patch(m.level, m.id)
                .expect("moved patch stored locally");
            patch_to_bytes(m.level, m.id, &pd, &mut buf);
        }
        debug_assert_eq!(buf.len(), g.elems);
        comm.isend(g.dst, TAG_MIGRATE, &buf);
        comm.note_coalesced(g.xfers.len() as u64);
    }
    for (gi, req) in reqs {
        let payload = comm.wait(req);
        let g = &groups[gi];
        let mut r = payload.as_slice();
        for _ in &g.xfers {
            let (level, id, pd) =
                patch_from_bytes(&mut r, nvars, nghost).expect("well-formed migration record");
            dobj.ensure_levels(level + 1);
            dobj.insert(level, id, pd);
        }
        debug_assert!(r.is_empty(), "trailing bytes in migration payload");
    }
}

/// One regrid prolongation window: initialize `region` (fine index space)
/// of new patch `fine` from coarse donor `donor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProlongFill {
    /// Newly created fine patch id.
    pub fine: usize,
    /// Coarse donor patch id.
    pub donor: usize,
    /// Initialized cells, fine index space.
    pub region: IntBox,
}

/// Everything a distributed regrid epoch needs, derived identically on
/// every rank from the merged flag set: the rebuilt level's geometry, the
/// data-movement manifests, and the rebalancing moves.
#[derive(Clone, Debug)]
pub struct RegridPlan {
    /// Coarse level that was flagged (`level + 1` was rebuilt).
    pub level: usize,
    /// Ids of the new fine patches, in box order.
    pub new_ids: Vec<usize>,
    /// Interiors of the new fine patches, same order as `new_ids`.
    pub fine_boxes: Vec<IntBox>,
    /// `(id, interior, owner)` of the destroyed fine patches; their data
    /// still sits on the old owners until the copy epoch drains it.
    pub old_patches: Vec<(usize, IntBox, usize)>,
    /// Prolongation windows, new patches outermost, donors in level order.
    pub prolong: Vec<ProlongFill>,
    /// Coarse donors shipped cross-rank for prolongation (post-rebalance
    /// owners), deduped and sorted.
    pub prolong_ships: Vec<DonorShip>,
    /// Old-fine → new-fine overlap copies (`src` = old owner, `dst` = new
    /// owner); applied after prolongation, like the rank-local regrid.
    pub old_copies: Vec<RegionXfer>,
    /// Owner changes of *surviving* patches (regrid-time rebalancing).
    pub moves: Vec<Move>,
    /// Per-level per-rank loads after rebalancing.
    pub level_loads: Vec<Vec<f64>>,
}

/// Plan a distributed regrid of `level + 1` from the *merged* (all-rank)
/// flag set. Pure metadata: mutates only the replicated hierarchy, so
/// every rank calls this with the identical flag set and lands on the
/// identical plan — patch ids included, because `set_level_boxes` draws
/// from the replicated id counter.
///
/// Mirrors `regrid::regrid_level` step for step (buffering, deeper-level
/// nesting enforcement, clustering, rebuild) with two deltas: clustering
/// is [`cluster_deterministic`] (canonical box order), and data movement
/// is returned as manifests instead of performed.
pub fn plan_regrid(
    dh: &mut DistributedHierarchy,
    level: usize,
    flags: &[(i64, i64)],
    params: &RegridParams,
    work: impl Fn(&Hierarchy, usize, &crate::hierarchy::Patch) -> f64,
    affinity_tolerance: f64,
) -> RegridPlan {
    let patch_union: Vec<IntBox> = dh.hier.levels[level]
        .patches
        .iter()
        .map(|p| p.interior)
        .collect();
    // Buffer + clip, Vec-canonical instead of hash-set so iteration order
    // is fixed by construction (determinism lint covers this module).
    let mut buffered: Vec<(i64, i64)> = Vec::new();
    for &(i, j) in flags {
        for dj in -params.buffer..=params.buffer {
            for di in -params.buffer..=params.buffer {
                let (bi, bj) = (i + di, j + dj);
                if patch_union.iter().any(|b| b.contains(bi, bj)) {
                    buffered.push((bi, bj));
                }
            }
        }
    }
    if dh.hier.n_levels() > level + 2 {
        let margin = params.buffer.max(1);
        for p in &dh.hier.levels[level + 2].patches {
            let foot = p
                .interior
                .coarsen(dh.hier.ratio)
                .coarsen(dh.hier.ratio)
                .grow(margin);
            for (bi, bj) in foot.cells() {
                if patch_union.iter().any(|b| b.contains(bi, bj)) {
                    buffered.push((bi, bj));
                }
            }
        }
    }
    buffered.sort_unstable();
    buffered.dedup();

    let coarse_boxes = cluster_deterministic(&buffered, params.efficiency, params.min_width);
    let fine_boxes: Vec<IntBox> = coarse_boxes
        .iter()
        .map(|b| b.refine(dh.hier.ratio))
        .collect();

    let old_patches: Vec<(usize, IntBox, usize)> = if dh.hier.n_levels() > level + 1 {
        dh.hier.levels[level + 1]
            .patches
            .iter()
            .map(|p| (p.id, p.interior, p.owner))
            .collect()
    } else {
        Vec::new()
    };
    let prev_owner = dh.owner_snapshot();

    let new_ids = if fine_boxes.is_empty() {
        dh.hier.truncate_levels(level + 1);
        Vec::new()
    } else {
        dh.hier.set_level_boxes(level + 1, &fine_boxes)
    };
    debug_assert!(fine_boxes.is_empty() || dh.hier.properly_nested(level + 1));

    let nranks = dh.nranks;
    let (level_loads, moves) =
        rebalance_hierarchy(&mut dh.hier, work, nranks, affinity_tolerance, &prev_owner);

    let mut prolong = Vec::new();
    let mut prolong_ships = Vec::new();
    let mut old_copies = Vec::new();
    for (new_id, fine_box) in new_ids.iter().zip(&fine_boxes) {
        let new_owner = dh.owner(level + 1, *new_id).expect("just created");
        for q in &dh.hier.levels[level].patches {
            let Some(ov) = fine_box.coarsen(dh.hier.ratio).intersect(&q.interior) else {
                continue;
            };
            let fine_region = ov
                .refine(dh.hier.ratio)
                .intersect(fine_box)
                .expect("refined overlap intersects the fine box");
            prolong.push(ProlongFill {
                fine: *new_id,
                donor: q.id,
                region: fine_region,
            });
            if q.owner != new_owner {
                prolong_ships.push(DonorShip {
                    src: q.owner,
                    dst: new_owner,
                    donor: q.id,
                });
            }
        }
        for &(old_id, old_interior, old_owner) in &old_patches {
            if let Some(region) = fine_box.intersect(&old_interior) {
                old_copies.push(RegionXfer {
                    src: old_owner,
                    dst: new_owner,
                    donor: old_id,
                    recv: *new_id,
                    region,
                });
            }
        }
    }
    prolong_ships.sort_unstable();
    prolong_ships.dedup();

    RegridPlan {
        level,
        new_ids,
        fine_boxes,
        old_patches,
        prolong,
        prolong_ships,
        old_copies,
        moves,
        level_loads,
    }
}

/// Execute a [`RegridPlan`] on this rank's storage, in three comm epochs
/// that every rank enters in lockstep:
///
/// 1. **migrate** — surviving patches move to their post-rebalance owners
///    (serialized whole, ghosts included);
/// 2. **prolong ships** — cross-rank coarse donors arrive whole, then new
///    fine patches are initialized by limited prolongation;
/// 3. **old copies** — surviving same-resolution data overwrites the
///    prolonged initialization, exactly like the rank-local regrid.
///
/// Old fine-level storage is drained into a side map first so epoch 3 can
/// source it even though the hierarchy no longer lists those patches.
pub fn execute_regrid(
    comm: &Communicator,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
    plan: &RegridPlan,
) {
    let rank = comm.rank();
    let nvars = dobj.nvars;
    let nghost = dobj.nghost;
    let ratio = dh.hier.ratio;
    let fine_level = plan.level + 1;

    // Drain destroyed-level storage before anything else: migration may
    // deliver patches into the rebuilt level, and ids must not mix.
    let old_fine: BTreeMap<usize, PatchData> = if dobj.n_levels() > fine_level {
        dobj.take_level(fine_level)
    } else {
        BTreeMap::new()
    };

    // Epoch 1: migrate surviving patches to their new owners.
    let mig_groups = migration_groups(dh, &plan.moves, nvars, nghost);
    migrate_patches(comm, dobj, &plan.moves, &mig_groups);

    // Allocate the rebuilt level's local patches.
    dobj.ensure_levels(dh.hier.n_levels());
    for (new_id, fine_box) in plan.new_ids.iter().zip(&plan.fine_boxes) {
        if dh.owner(fine_level, *new_id) == Some(rank) {
            dobj.allocate(fine_level, *new_id, *fine_box);
        }
    }

    // Epoch 2: ship cross-rank coarse donors, then prolong.
    let ship_gs = ship_groups(dh, &plan.prolong_ships, plan.level, nvars, nghost);
    let remote = ship_donors(
        comm,
        dh,
        dobj,
        plan.level,
        &plan.prolong_ships,
        &ship_gs,
        TAG_PROLONG,
    );
    for fill in &plan.prolong {
        if dh.owner(fine_level, fill.fine) != Some(rank) {
            continue;
        }
        if dh.owner(plan.level, fill.donor) == Some(rank) {
            let (fine_pd, coarse_pd) = dobj
                .patch_pair_mut(fine_level, fill.fine, plan.level, fill.donor)
                .expect("both stored locally");
            prolong_limited(fine_pd, coarse_pd, &fill.region, ratio);
        } else {
            let coarse_pd = remote.get(&fill.donor).expect("donor was shipped");
            let fine_pd = dobj
                .patch_mut(fine_level, fill.fine)
                .expect("fine patch stored locally");
            prolong_limited(fine_pd, coarse_pd, &fill.region, ratio);
        }
    }

    // Epoch 3: overwrite with surviving same-resolution data.
    let copy_gs = region_groups(&plan.old_copies, nvars);
    let received = exchange_f64(comm, &copy_gs, TAG_OLD_COPY, |xi, buf| {
        let x = &plan.old_copies[xi];
        let old = old_fine.get(&x.donor).expect("old patch stored locally");
        let n = nvars * x.region.count() as usize;
        let off = buf.len();
        buf.resize(off + n, 0.0);
        old.pack_into(&x.region, &mut buf[off..]);
    });
    for x in plan
        .old_copies
        .iter()
        .filter(|x| x.src == rank && x.dst == rank)
    {
        let old = old_fine.get(&x.donor).expect("old patch stored locally");
        dobj.patch_mut(fine_level, x.recv)
            .expect("receiver stored locally")
            .copy_from(old, &x.region);
    }
    for_each_received(&copy_gs, received, |xi, rest| {
        let x = &plan.old_copies[xi];
        let pd = dobj
            .patch_mut(fine_level, x.recv)
            .expect("receiver stored locally");
        let n = nvars * x.region.count() as usize;
        pd.unpack(&x.region, &rest[..n]);
        n
    });
}

/// Walk the payloads [`exchange_f64`] received, group order then manifest
/// order within a group: `visit(xi, rest)` consumes manifest entry `xi`'s
/// values from the front of `rest` and returns how many it took.
fn for_each_received(
    groups: &[MsgGroup],
    received: BTreeMap<usize, Vec<f64>>,
    mut visit: impl FnMut(usize, &[f64]) -> usize,
) {
    for (gi, payload) in received {
        let mut off = 0usize;
        for &xi in &groups[gi].xfers {
            off += visit(xi, &payload[off..]);
        }
    }
}

/// Ship the cross-rank donors of `ships` whole and rebuild each arrival,
/// keyed by donor id, as a full `PatchData`, so prolongation clamps
/// against the identical ghost-padded box a local donor presents.
fn ship_donors(
    comm: &Communicator,
    dh: &DistributedHierarchy,
    dobj: &DataObject,
    donor_level: usize,
    ships: &[DonorShip],
    groups: &[MsgGroup],
    tag: u64,
) -> BTreeMap<usize, PatchData> {
    let (nvars, nghost) = (dobj.nvars, dobj.nghost);
    let received = exchange_f64(comm, groups, tag, |xi, buf| {
        let donor = dobj
            .patch(donor_level, ships[xi].donor)
            .expect("shipped donor stored locally");
        let total = donor.total_box();
        let off = buf.len();
        buf.resize(off + nvars * total.count() as usize, 0.0);
        donor.pack_into(&total, &mut buf[off..]);
    });
    let mut remote = BTreeMap::new();
    for_each_received(groups, received, |xi, rest| {
        let donor = ships[xi].donor;
        let interior = dh
            .hier
            .patch(donor_level, donor)
            .expect("shipped donor exists")
            .interior;
        let mut pd = PatchData::new(interior, nvars, nghost);
        let total = pd.total_box();
        let n = nvars * total.count() as usize;
        pd.unpack(&total, &rest[..n]);
        remote.insert(donor, pd);
        n
    });
    remote
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_comm::{scmd, ClusterModel};

    fn two_patch_hier() -> Hierarchy {
        let mut h = Hierarchy::new(IntBox::sized(16, 8), [0.0, 0.0], [1.0; 2], 2);
        h.set_level_boxes(
            0,
            &[IntBox::new([0, 0], [7, 7]), IntBox::new([8, 0], [15, 7])],
        );
        h
    }

    #[test]
    fn manifests_are_replicable_and_ordered() {
        let mut dh = DistributedHierarchy::new(two_patch_hier(), 2);
        dh.assign_owners(|_, _, p| p.interior.count() as f64, 1.5);
        let xfers = dh.same_level_xfers(0, 2);
        assert_eq!(xfers.len(), 2); // each patch reads the other's edge
        let groups = region_groups(&xfers, 3);
        // Both windows cross ranks (LPT split the two patches).
        assert_eq!(groups.len(), 2);
        assert!(groups
            .windows(2)
            .all(|w| (w[0].src, w[0].dst) <= (w[1].src, w[1].dst)));
        let wire = group_wire_msgs(&groups, TAG_SAME_LEVEL, 8);
        for ((src, dst, tag, bytes), g) in wire.iter().zip(&groups) {
            assert_eq!((*src, *dst, *tag), (g.src, g.dst, TAG_SAME_LEVEL));
            assert_eq!(*bytes as usize, g.elems * 8);
        }
    }

    #[test]
    fn distributed_same_level_fill_matches_local_fill() {
        let mut dh = DistributedHierarchy::new(two_patch_hier(), 2);
        dh.assign_owners(|_, _, p| p.interior.count() as f64, 1.5);
        let nghost = 2;
        let seed = |pd: &mut PatchData| {
            let t = pd.total_box();
            for (i, j) in t.cells() {
                pd.set(0, i, j, (3 * i - 7 * j) as f64);
                pd.set(1, i, j, (i * j) as f64 * 0.25);
            }
        };
        // Reference: rank-local fill with all patches stored.
        let mut reference = DataObject::new(2, nghost);
        for p in &dh.hier.levels[0].patches {
            reference.allocate(0, p.id, p.interior);
            seed(reference.patch_mut(0, p.id).unwrap());
        }
        crate::ghost::fill_same_level_ghosts(&mut reference, &dh.hier, 0);

        let xfers = dh.same_level_xfers(0, nghost);
        let groups = region_groups(&xfers, 2);
        let dh = std::sync::Arc::new(dh);
        let results = scmd::run(2, ClusterModel::zero(), move |comm| {
            let mut dobj = DataObject::new(2, nghost);
            dh.allocate_owned(&mut dobj, comm.rank());
            for p in &dh.hier.levels[0].patches {
                if p.owner == comm.rank() {
                    seed(dobj.patch_mut(0, p.id).unwrap());
                }
            }
            exchange_same_level(comm, &mut dobj, 0, &xfers, &groups);
            // Return every owned patch's full data for comparison.
            dh.hier.levels[0]
                .patches
                .iter()
                .filter(|p| p.owner == comm.rank())
                .map(|p| {
                    let pd = dobj.patch(0, p.id).unwrap();
                    (p.id, pd.pack(&pd.total_box()))
                })
                .collect::<Vec<_>>()
        });
        for (id, data) in results.into_iter().flatten() {
            let ref_pd = reference.patch(0, id).unwrap();
            let expect = ref_pd.pack(&ref_pd.total_box());
            let same = data
                .iter()
                .zip(&expect)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "patch {id} ghost fill diverged from local fill");
        }
    }

    #[test]
    fn plan_regrid_metadata_is_independent_of_rank_count() {
        let flags: Vec<(i64, i64)> = IntBox::new([3, 2], [9, 6]).cells().collect();
        let params = RegridParams::default();
        let plan_for = |nranks: usize| {
            let mut dh = DistributedHierarchy::new(two_patch_hier(), nranks);
            dh.assign_owners(|_, _, p| p.interior.count() as f64, 1.5);
            plan_regrid(
                &mut dh,
                0,
                &flags,
                &params,
                |_, _, p| p.interior.count() as f64,
                1.5,
            )
        };
        let p1 = plan_for(1);
        let p4 = plan_for(4);
        assert_eq!(p1.new_ids, p4.new_ids);
        assert_eq!(p1.fine_boxes, p4.fine_boxes);
        assert!(!p1.new_ids.is_empty());
    }

    #[test]
    fn migration_roundtrip_is_bit_identical() {
        // Rank 0 owns both patches; move one to rank 1 and back.
        let mut h = two_patch_hier();
        for p in &mut h.levels[0].patches {
            p.owner = 0;
        }
        let ids: Vec<usize> = h.levels[0].patches.iter().map(|p| p.id).collect();
        let dh = std::sync::Arc::new(DistributedHierarchy::new(h, 2));
        let moved = ids[1];
        let results = scmd::run(2, ClusterModel::zero(), move |comm| {
            let mut dobj = DataObject::new(2, 1);
            dh.allocate_owned(&mut dobj, comm.rank());
            let mut original = Vec::new();
            if comm.rank() == 0 {
                let pd = dobj.patch_mut(0, moved).unwrap();
                let t = pd.total_box();
                for (k, (i, j)) in t.cells().enumerate() {
                    pd.set(0, i, j, k as f64 * 1.5);
                    pd.set(1, i, j, -(k as f64));
                }
                original = pd.pack(&t);
            }
            let there = vec![Move {
                level: 0,
                id: moved,
                from: 0,
                to: 1,
            }];
            let back = vec![Move {
                level: 0,
                id: moved,
                from: 1,
                to: 0,
            }];
            let g_there = migration_groups(&dh, &there, 2, 1);
            let g_back = migration_groups(&dh, &back, 2, 1);
            migrate_patches(comm, &mut dobj, &there, &g_there);
            if comm.rank() == 0 {
                assert!(dobj.patch(0, moved).is_none(), "sender kept the patch");
            } else {
                assert!(dobj.patch(0, moved).is_some(), "receiver missing the patch");
            }
            migrate_patches(comm, &mut dobj, &back, &g_back);
            if comm.rank() == 0 {
                let pd = dobj.patch(0, moved).unwrap();
                let now = pd.pack(&pd.total_box());
                assert_eq!(now.len(), original.len());
                assert!(
                    now.iter()
                        .zip(&original)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "round-tripped patch data drifted"
                );
            }
        });
        assert_eq!(results.len(), 2);
    }
}
