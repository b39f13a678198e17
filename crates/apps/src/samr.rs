//! Distributed reaction–diffusion SAMR: the paper's adaptive flame proxy
//! run across SCMD ranks on a patch hierarchy whose *metadata* is
//! replicated and whose *storage* is distributed (`cca-mesh::dist`).
//!
//! A moving Gaussian source drags a steep feature across the domain; the
//! error estimator flags its footprint, Berger–Rigoutsos clustering
//! rebuilds level 1 every `regrid_interval` steps, and regrid-time
//! rebalancing migrates surviving patches between ranks as the refined
//! region (and its owner-computes load) moves. Every cross-rank byte —
//! same-level ghost strips, coarse-fine donor ships, restriction windows,
//! regrid prolongation/copy traffic, migration records — rides the
//! nonblocking coalesced layer and is mirrored into comm-plan IR
//! (`cca-analyze::distplan`), so audited runs statically verify the
//! schedule and check the execution trace against it.
//!
//! The headline invariant, pinned by tests and the `cca-bench samr`
//! baseline: the final checksum is **bit-identical for every rank count**.
//! Ghost values are exact copies or prolongations from donors whose full
//! ghost-padded boxes travel with them, restriction is pre-averaged with
//! the rank-local arithmetic, the merged flag set is canonicalized before
//! clustering, and the checksum is summed in fixed `(level, id)` order on
//! rank 0 — so no floating-point result ever depends on P.

use cca_analyze::commplan::CommPlan;
use cca_analyze::distplan::PlanBuilder;
use cca_ckpt::CkptError;
use cca_comm::{scmd, ClusterModel, Communicator};
use cca_mesh::boxes::IntBox;
use cca_mesh::data::DataObject;
use cca_mesh::dist::{self, DistributedHierarchy};
use cca_mesh::hierarchy::{Hierarchy, Patch};
use cca_mesh::regrid::RegridParams;
use cca_mesh::wire;

/// Variables per mesh point (temperature plus a reduced species set).
pub const NVARS: usize = 5;

/// Ghost ring width; the 5-point stencil and limited prolongation need 1.
pub const NGHOST: i64 = 1;

/// Fine-level affinity tolerance before falling back to greedy LPT.
const AFFINITY_TOL: f64 = 1.5;

/// Explicit diffusion coefficient (index-space).
const ALPHA: f64 = 0.15;

/// Pseudo time step scaling the source injection.
const DT: f64 = 0.05;

/// One distributed SAMR experiment.
#[derive(Clone, Copy, Debug)]
pub struct SamrConfig {
    /// Level-0 domain extent (cells per axis, square).
    pub nx: i64,
    /// Split level 0 into `patch_split × patch_split` patches.
    pub patch_split: i64,
    /// Number of SCMD ranks.
    pub ranks: usize,
    /// Macro steps.
    pub steps: usize,
    /// Stages per step (each stage = ghost fill + sweep + restriction).
    pub stages_per_step: usize,
    /// Regrid every this many steps (plus once before stepping starts).
    pub regrid_interval: usize,
    /// Flag threshold on the undivided gradient of variable 0.
    pub threshold: f64,
    /// Work multiplier of a fine cell relative to a coarse cell; also the
    /// owner-computes surcharge a coarse patch pays per overlying fine
    /// cell, which is what makes the LPT assignment *move* as the refined
    /// region moves.
    pub fine_weight: f64,
    /// Modeled work units per cell-variable per stage.
    pub work_per_cell_var: f64,
    /// Verify the emitted comm plan and audit the execution trace against
    /// it. Bit-identical results either way.
    pub audit: bool,
    /// Take a coordinated checkpoint every this many macro steps
    /// (0 disables checkpointing).
    pub ckpt_interval: usize,
}

impl Default for SamrConfig {
    fn default() -> Self {
        SamrConfig {
            nx: 40,
            patch_split: 4,
            ranks: 4,
            steps: 6,
            stages_per_step: 2,
            regrid_interval: 2,
            threshold: 30.0,
            fine_weight: 4.0,
            work_per_cell_var: 0.5,
            audit: false,
            ckpt_interval: 0,
        }
    }
}

impl SamrConfig {
    /// RNG-free hash of the physics-bearing configuration. Checkpoint
    /// sets carry it and restore refuses a mismatch. Rank count, audit
    /// mode, checkpoint cadence, and the modeled compute cost are
    /// excluded: none of them influences a single field bit, and an
    /// elastic restart changes `ranks` by design.
    pub fn state_hash(&self) -> u64 {
        let mut h = wire::FNV1A_INIT;
        for word in [
            self.nx as u64,
            self.patch_split as u64,
            self.steps as u64,
            self.stages_per_step as u64,
            self.regrid_interval as u64,
            self.threshold.to_bits(),
            self.fine_weight.to_bits(),
        ] {
            h = wire::fnv1a64(h, &word.to_le_bytes());
        }
        h
    }
}

/// Outcome of a distributed SAMR run.
#[derive(Clone, Debug)]
pub struct SamrResult {
    /// Modeled job runtime: slowest rank's virtual clock, s.
    pub modeled_time: f64,
    /// Total messages sent across ranks.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
    /// Messages saved by per-rank-pair coalescing.
    pub messages_coalesced: u64,
    /// Regrid epochs executed (including the initial one).
    pub regrids: usize,
    /// Patch migrations performed by regrid-time rebalancing.
    pub migrations: usize,
    /// Final fine-level (level 1) cell count.
    pub fine_cells: i64,
    /// Final step's global max |variable 0| (the stability probe).
    pub final_max: f64,
    /// Final-field checksum, summed in fixed `(level, id)` order — the
    /// cross-P bit-identity witness.
    pub checksum: f64,
    /// Coordinated checkpoints taken during the run.
    pub checkpoints: usize,
}

/// Checkpoint/restart harness threaded through a run: an optional store
/// that receives every complete set, an optional deterministic fault, and
/// an optional set to resume from instead of the initial condition.
#[derive(Clone, Default)]
pub struct CkptHarness {
    /// Every complete set is committed here (rank 0 writes).
    pub store: Option<std::sync::Arc<cca_ckpt::CkptStore>>,
    /// Deterministic kill switch for recovery drills.
    pub fault: Option<cca_ckpt::FaultPlan>,
    /// Resume from this set instead of running the initial condition.
    pub restore: Option<std::sync::Arc<cca_ckpt::CheckpointSet>>,
}

/// Per-rank return value of the SCMD closure.
struct RankOut {
    checksum: f64,
    regrids: usize,
    migrations: usize,
    fine_cells: i64,
    final_max: f64,
    ckpts: usize,
    plan: Option<CommPlan>,
}

/// Driver counters carried as a component-state part in every set, so a
/// resumed run reports cumulative totals rather than restarting its
/// bookkeeping from zero. (Post-restart *migration* counts can still
/// legitimately differ across cohort sizes — rebalancing at P' moves
/// different patches — which is why recovery equivalence is asserted on
/// field bits, never on these counters.)
fn driver_part(regrids: usize, migrations: usize) -> (String, Vec<u8>) {
    let mut blob = Vec::with_capacity(16);
    wire::put_u64(&mut blob, regrids as u64);
    wire::put_u64(&mut blob, migrations as u64);
    ("driver".to_string(), blob)
}

/// The counters [`driver_part`] saved. The set is job input: a missing,
/// short or over-long part is a typed error.
fn read_driver_part(set: &cca_ckpt::CheckpointSet) -> Result<(usize, usize), CkptError> {
    let blob = set
        .part("driver")
        .ok_or_else(|| CkptError::Corrupt("set carries no driver part".into()))?;
    let mut r = wire::Reader(blob);
    let counters = (r.index()?, r.index()?);
    r.finish("the driver counters")?;
    Ok(counters)
}

/// The level-0 hierarchy: `nx × nx` cells tiled into
/// `patch_split × patch_split` patches, refinement ratio 2.
pub fn base_hierarchy(cfg: &SamrConfig) -> Hierarchy {
    let mut h = Hierarchy::new(
        IntBox::sized(cfg.nx, cfg.nx),
        [0.0, 0.0],
        [1.0 / cfg.nx as f64; 2],
        2,
    );
    let s = cfg.patch_split;
    let edge = |k: i64| k * cfg.nx / s;
    let mut boxes = Vec::new();
    for bj in 0..s {
        for bi in 0..s {
            boxes.push(IntBox::new(
                [edge(bi), edge(bj)],
                [edge(bi + 1) - 1, edge(bj + 1) - 1],
            ));
        }
    }
    h.set_level_boxes(0, &boxes);
    h
}

/// The owner-computes cost model: a coarse patch pays for its own cells
/// plus `fine_weight` per overlying fine cell (coarse-fine fill locality);
/// a fine patch costs `fine_weight` per cell.
fn patch_work(fine_weight: f64) -> impl Fn(&Hierarchy, usize, &Patch) -> f64 {
    move |h, level, p| {
        if level == 0 {
            let over: i64 = match h.levels.get(1) {
                Some(l1) => l1
                    .patches
                    .iter()
                    .filter_map(|f| {
                        f.interior
                            .intersect(&p.interior.refine(h.ratio))
                            .map(|ov| ov.count())
                    })
                    .sum(),
                None => 0,
            };
            p.interior.count() as f64 + fine_weight * over as f64
        } else {
            fine_weight * p.interior.count() as f64
        }
    }
}

/// The moving Gaussian source feeding variable 0: its center tracks the
/// step counter, dragging the refined region across the domain.
fn source(x: f64, y: f64, step: usize, steps: usize) -> f64 {
    let t = (step as f64 + 1.0) / steps as f64;
    let cx = 0.3 + 0.4 * t;
    let cy = 0.3 + 0.4 * t;
    400.0 * (-((x - cx).powi(2) + (y - cy).powi(2)) / 0.004).exp()
}

/// Deterministic initial condition: a hot bump in variable 0, graded
/// mixture fractions elsewhere. Pure function of the physical cell center.
fn init_patch(pd: &mut cca_mesh::data::PatchData, hier: &Hierarchy, level: usize) {
    let interior = pd.interior;
    for (i, j) in interior.cells() {
        let [x, y] = hier.cell_center(level, i, j);
        let bump = (-((x - 0.3).powi(2) + (y - 0.3).powi(2)) / 0.01).exp();
        pd.set(0, i, j, 300.0 + 900.0 * bump);
        for v in 1..NVARS {
            pd.set(v, i, j, 0.1 * v as f64 + 0.2 * x * y);
        }
    }
}

/// Zero-gradient physical walls: ghost cells outside the level domain
/// copy the nearest interior cell of their own patch. Purely local.
fn apply_walls(dobj: &mut DataObject, dh: &DistributedHierarchy, level: usize, rank: usize) {
    let domain = dh.hier.level_domain(level);
    for p in &dh.hier.levels[level].patches {
        if p.owner != rank {
            continue;
        }
        let pd = dobj.patch_mut(level, p.id).expect("owned patch stored");
        let total = pd.total_box();
        let interior = pd.interior;
        for (i, j) in total.cells() {
            if domain.contains(i, j) {
                continue;
            }
            let ii = i.clamp(interior.lo[0], interior.hi[0]);
            let jj = j.clamp(interior.lo[1], interior.hi[1]);
            for var in 0..pd.nvars {
                let v = pd.get(var, ii, jj);
                pd.set(var, i, j, v);
            }
        }
    }
}

/// Same-level ghost fill for `level`: derive the manifest, mirror it into
/// the plan, execute it.
fn fill_level(
    comm: &Communicator,
    plan: &mut PlanBuilder,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
    level: usize,
) {
    let xfers = dh.same_level_xfers(level, NGHOST);
    let groups = dist::region_groups(&xfers, NVARS);
    plan.exchange(&dist::group_wire_msgs(&groups, dist::TAG_SAME_LEVEL, 8));
    dist::exchange_same_level(comm, dobj, level, &xfers, &groups);
}

/// Coarse-fine ghost fill for `level`: donor ships plus local limited
/// prolongation, plan-mirrored.
fn fill_coarse_fine(
    comm: &Communicator,
    plan: &mut PlanBuilder,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
    level: usize,
) {
    let cf = dh.coarse_fine_plan(level, NGHOST);
    let groups = dist::ship_groups(dh, &cf.ships, level - 1, NVARS, NGHOST);
    plan.exchange(&dist::group_wire_msgs(&groups, dist::TAG_COARSE_FINE, 8));
    dist::exchange_coarse_fine(comm, dh, dobj, level, &cf, &groups);
}

/// One explicit diffusion + source stage on every owned patch, coarse
/// level first. Reads the ghost ring filled this stage; writes interiors
/// only.
fn sweep(
    comm: &Communicator,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
    cfg: &SamrConfig,
    step: usize,
    rank: usize,
) {
    for level in 0..dh.hier.n_levels() {
        for p in &dh.hier.levels[level].patches {
            if p.owner != rank {
                continue;
            }
            let pd = dobj.patch(level, p.id).expect("owned patch stored");
            let interior = pd.interior;
            let si = (interior.lo[0] - pd.total_box().lo[0]) as usize;
            let w = interior.nx() as usize;
            let mut newv = Vec::with_capacity(NVARS * interior.count() as usize);
            for var in 0..NVARS {
                for j in interior.lo[1]..=interior.hi[1] {
                    let (below, mid, above) = pd.rows3(var, j);
                    for k in 0..w {
                        let s = si + k;
                        let c = mid[s];
                        let lap = mid[s - 1] + mid[s + 1] + below[s] + above[s] - 4.0 * c;
                        let mut v = c + ALPHA * lap;
                        if var == 0 {
                            let i = interior.lo[0] + k as i64;
                            let [x, y] = dh.hier.cell_center(level, i, j);
                            v += DT * source(x, y, step, cfg.steps);
                        }
                        newv.push(v);
                    }
                }
            }
            dobj.patch_mut(level, p.id)
                .expect("owned patch stored")
                .unpack(&interior, &newv);
            comm.charge_compute(cfg.work_per_cell_var * (interior.count() as usize * NVARS) as f64);
        }
    }
}

/// Flag owned level-0 interior cells whose undivided gradient of variable
/// 0 exceeds the threshold. Ghosts must be freshly filled.
fn compute_flags(
    dobj: &DataObject,
    dh: &DistributedHierarchy,
    rank: usize,
    threshold: f64,
) -> Vec<(i64, i64)> {
    let mut flags = Vec::new();
    for p in &dh.hier.levels[0].patches {
        if p.owner != rank {
            continue;
        }
        let pd = dobj.patch(0, p.id).expect("owned patch stored");
        let interior = pd.interior;
        let si = (interior.lo[0] - pd.total_box().lo[0]) as usize;
        let w = interior.nx() as usize;
        for j in interior.lo[1]..=interior.hi[1] {
            let (below, mid, above) = pd.rows3(0, j);
            for k in 0..w {
                let s = si + k;
                let c = mid[s];
                let g = (mid[s - 1] - c)
                    .abs()
                    .max((mid[s + 1] - c).abs())
                    .max((below[s] - c).abs())
                    .max((above[s] - c).abs());
                if g > threshold {
                    flags.push((interior.lo[0] + k as i64, j));
                }
            }
        }
    }
    flags
}

/// One full regrid: flag, all-gather, plan (identically on every rank),
/// mirror the migrate/ship/copy epochs into the comm plan, execute. The
/// first epoch's number names the regrid in poison reports
/// ([`Communicator::set_phase`]). Returns `(migrations, fine_cells)`.
fn do_regrid(
    comm: &Communicator,
    plan: &mut PlanBuilder,
    dh: &mut DistributedHierarchy,
    dobj: &mut DataObject,
    cfg: &SamrConfig,
    rank: usize,
) -> (usize, i64) {
    let flags = compute_flags(dobj, dh, rank, cfg.threshold);
    // Untraced collective: flag metadata, not field data — no plan entry.
    let merged: Vec<(i64, i64)> = comm.allgather(&flags).into_iter().flatten().collect();
    let params = RegridParams::default();
    let rp = dist::plan_regrid(
        dh,
        0,
        &merged,
        &params,
        patch_work(cfg.fine_weight),
        AFFINITY_TOL,
    );
    let mig = dist::migration_groups(dh, &rp.moves, NVARS, NGHOST);
    let epoch = plan.exchange(&dist::group_wire_msgs(&mig, dist::TAG_MIGRATE, 1));
    let ships = dist::ship_groups(dh, &rp.prolong_ships, 0, NVARS, NGHOST);
    plan.exchange(&dist::group_wire_msgs(&ships, dist::TAG_PROLONG, 8));
    let copies = dist::region_groups(&rp.old_copies, NVARS);
    plan.exchange(&dist::group_wire_msgs(&copies, dist::TAG_OLD_COPY, 8));
    comm.set_phase(&format!("regrid epoch {epoch}"));
    dist::execute_regrid(comm, dh, dobj, &rp);
    comm.clear_phase();
    let fine_cells = dh
        .hier
        .levels
        .get(1)
        .map(|l| l.patches.iter().map(|p| p.interior.count()).sum())
        .unwrap_or(0);
    (rp.moves.len(), fine_cells)
}

/// Conservative restriction of level 1 into level 0, plan-mirrored.
fn restrict(
    comm: &Communicator,
    plan: &mut PlanBuilder,
    dh: &DistributedHierarchy,
    dobj: &mut DataObject,
) {
    let xfers = dh.restrict_xfers(1);
    let groups = dist::restrict_groups(&xfers, NVARS);
    plan.exchange(&dist::group_wire_msgs(&groups, dist::TAG_RESTRICT, 8));
    dist::exchange_restrict(comm, dobj, 1, dh.hier.ratio, &xfers, &groups);
}

/// Checksum in fixed `(level, id)` order: gather per-patch interior sums
/// to rank 0 (untraced metadata collective), sort, fold, broadcast. The
/// summation order never depends on ownership, so neither do the bits.
fn checksum(comm: &Communicator, dobj: &DataObject, dh: &DistributedHierarchy, rank: usize) -> f64 {
    let mut triples: Vec<(u64, u64, f64)> = Vec::new();
    for (level, l) in dh.hier.levels.iter().enumerate() {
        for p in &l.patches {
            if p.owner != rank {
                continue;
            }
            let pd = dobj.patch(level, p.id).expect("owned patch stored");
            let mut s = 0.0;
            for var in 0..NVARS {
                s += pd.interior_sum(var);
            }
            triples.push((level as u64, p.id as u64, s));
        }
    }
    let total = match comm.gather(0, &triples) {
        Some(parts) => {
            let mut all: Vec<(u64, u64, f64)> = parts.into_iter().flatten().collect();
            all.sort_by_key(|t| (t.0, t.1));
            all.iter().fold(0.0, |acc, t| acc + t.2)
        }
        None => 0.0,
    };
    comm.bcast(0, &[total])[0]
}

/// The per-rank SCMD program.
fn rank_main(comm: &Communicator, cfg: &SamrConfig, harness: &CkptHarness) -> RankOut {
    let rank = comm.rank();
    let mut plan = PlanBuilder::new(cfg.ranks);
    let mut regrids = 0usize;
    let mut migrations = 0usize;
    let mut final_max = 0.0f64;
    let mut ckpts = 0usize;
    let config_hash = cfg.state_hash();

    let (mut dh, mut dobj, start_step, mut fine_cells) = match &harness.restore {
        Some(set) => {
            // Elastic restart: rebuild the saved hierarchy bit-exactly,
            // replay the LPT assignment at *this* rank count, and pick up
            // the step counter where the interrupted run left off.
            assert_eq!(
                set.meta.config_hash, config_hash,
                "checkpoint set belongs to a different configuration"
            );
            assert_eq!((set.meta.nvars, set.meta.nghost), (NVARS, NGHOST));
            let (dh, dobj) = cca_ckpt::restore(
                comm,
                &mut plan,
                set,
                cfg.ranks,
                patch_work(cfg.fine_weight),
                AFFINITY_TOL,
            );
            let fc = dh
                .hier
                .levels
                .get(1)
                .map(|l| l.patches.iter().map(|p| p.interior.count()).sum())
                .unwrap_or(0);
            (regrids, migrations) = read_driver_part(set)
                .unwrap_or_else(|e| panic!("checkpoint set rejected on resume: {e}"));
            (dh, dobj, set.meta.step as usize, fc)
        }
        None => {
            let mut dh = DistributedHierarchy::new(base_hierarchy(cfg), cfg.ranks);
            dh.assign_owners(patch_work(cfg.fine_weight), AFFINITY_TOL);
            let mut dobj = DataObject::new(NVARS, NGHOST);
            dh.allocate_owned(&mut dobj, rank);
            for p in &dh.hier.levels[0].patches {
                if p.owner == rank {
                    init_patch(
                        dobj.patch_mut(0, p.id).expect("just allocated"),
                        &dh.hier,
                        0,
                    );
                }
            }
            // Initial refinement from the initial condition.
            fill_level(comm, &mut plan, &dh, &mut dobj, 0);
            apply_walls(&mut dobj, &dh, 0, rank);
            let (m, fc) = do_regrid(comm, &mut plan, &mut dh, &mut dobj, cfg, rank);
            regrids += 1;
            migrations += m;
            (dh, dobj, 0, fc)
        }
    };

    for step in start_step..cfg.steps {
        if let Some(f) = harness.fault {
            if !f.mid_snapshot && f.rank == rank && f.step == step {
                panic!("injected fault: rank {rank} killed at step {step}");
            }
        }
        // Stability probe: the global spectral-radius style reduction.
        let mut local_max = 0.0f64;
        for (level, l) in dh.hier.levels.iter().enumerate() {
            for p in &l.patches {
                if p.owner == rank {
                    let pd = dobj.patch(level, p.id).expect("owned patch stored");
                    local_max = local_max.max(pd.interior_max_abs(0));
                }
            }
        }
        final_max = comm.allreduce_max(&[local_max])[0];
        plan.reduce(8);

        for _stage in 0..cfg.stages_per_step {
            fill_level(comm, &mut plan, &dh, &mut dobj, 0);
            apply_walls(&mut dobj, &dh, 0, rank);
            if dh.hier.n_levels() > 1 {
                fill_level(comm, &mut plan, &dh, &mut dobj, 1);
                fill_coarse_fine(comm, &mut plan, &dh, &mut dobj, 1);
                apply_walls(&mut dobj, &dh, 1, rank);
            }
            sweep(comm, &dh, &mut dobj, cfg, step, rank);
            if dh.hier.n_levels() > 1 {
                restrict(comm, &mut plan, &dh, &mut dobj);
            }
        }

        if (step + 1) % cfg.regrid_interval == 0 && step + 1 < cfg.steps {
            // Fresh ghosts for the error estimator, then rebuild level 1.
            fill_level(comm, &mut plan, &dh, &mut dobj, 0);
            apply_walls(&mut dobj, &dh, 0, rank);
            let (m, fc) = do_regrid(comm, &mut plan, &mut dh, &mut dobj, cfg, rank);
            regrids += 1;
            migrations += m;
            fine_cells = fc;
        }

        if cfg.ckpt_interval > 0 && (step + 1) % cfg.ckpt_interval == 0 && step + 1 < cfg.steps {
            // Coordinated snapshot at the macro-step barrier, after any
            // regrid — the set captures the post-regrid state. The epoch
            // is the resume step, monotonic across restarts.
            let epoch = (step + 1) as u64;
            let meta = cca_ckpt::CkptMeta {
                step: epoch,
                config_hash,
                nvars: NVARS,
                nghost: NGHOST,
            };
            let kill = harness
                .fault
                .filter(|f| f.mid_snapshot && f.step == step)
                .map(|f| f.rank);
            let parts = vec![driver_part(regrids, migrations)];
            let set = cca_ckpt::snapshot(comm, &mut plan, &dh, &dobj, meta, epoch, parts, kill);
            ckpts += 1;
            if let (Some(set), Some(store)) = (set, &harness.store) {
                store.commit(set).expect("validated set commits");
            }
        }
    }

    let sum = checksum(comm, &dobj, &dh, rank);
    comm.barrier();
    plan.barrier();
    RankOut {
        checksum: sum,
        regrids,
        migrations,
        fine_cells,
        final_max,
        ckpts,
        plan: (rank == 0).then(|| plan.build()),
    }
}

/// Run the distributed SAMR experiment under `model`. With `cfg.audit`,
/// statically verifies the emitted comm plan and audits the execution
/// trace against it (results are bit-identical either way).
pub fn run_samr(cfg: &SamrConfig, model: ClusterModel) -> SamrResult {
    run_samr_harnessed(cfg, model, CkptHarness::default())
}

/// [`run_samr`] with a checkpoint/restart harness: commit sets to a
/// store, resume from a set, and/or inject a deterministic fault. Audited
/// runs cover the checkpoint and restore exchanges with the same static
/// verification and trace conformance as every other epoch.
pub fn run_samr_harnessed(
    cfg: &SamrConfig,
    model: ClusterModel,
    harness: CkptHarness,
) -> SamrResult {
    let cfg = *cfg;
    let program = move |comm: &Communicator| rank_main(comm, &cfg, &harness);
    let reports = if cfg.audit {
        let (reports, trace) = scmd::run_reported_traced(cfg.ranks, model, program);
        let plan = reports[0]
            .result
            .plan
            .as_ref()
            .expect("rank 0 built the plan");
        let verdict = plan.verify();
        assert!(
            verdict.is_clean(),
            "comm-plan verification failed:\n{}",
            verdict.render("samr comm-plan")
        );
        let conformance = plan.audit(&trace);
        assert!(
            conformance.is_clean(),
            "comm-trace conformance failed:\n{}",
            conformance.render("samr comm-trace")
        );
        reports
    } else {
        scmd::run_reported(cfg.ranks, model, program)
    };
    let r0 = &reports[0].result;
    SamrResult {
        modeled_time: scmd::modeled_runtime(&reports),
        messages: reports.iter().map(|r| r.messages_sent).sum(),
        bytes: reports.iter().map(|r| r.bytes_sent).sum(),
        messages_coalesced: reports.iter().map(|r| r.stats.messages_coalesced).sum(),
        regrids: r0.regrids,
        migrations: r0.migrations,
        fine_cells: r0.fine_cells,
        final_max: r0.final_max,
        checksum: r0.checksum,
        checkpoints: r0.ckpts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_run_refines_and_checks_out() {
        let cfg = SamrConfig {
            ranks: 1,
            steps: 2,
            audit: true,
            ..SamrConfig::default()
        };
        let r = run_samr(&cfg, ClusterModel::zero());
        assert!(r.regrids >= 1);
        assert!(r.fine_cells > 0, "no refinement happened");
        assert!(r.checksum.is_finite());
        assert_eq!(r.migrations, 0, "one rank cannot migrate");
    }

    #[test]
    fn two_ranks_match_one_rank_bitwise() {
        let base = SamrConfig {
            steps: 2,
            audit: true,
            ..SamrConfig::default()
        };
        let r1 = run_samr(&SamrConfig { ranks: 1, ..base }, ClusterModel::zero());
        let r2 = run_samr(&SamrConfig { ranks: 2, ..base }, ClusterModel::zero());
        assert_eq!(
            r1.checksum.to_bits(),
            r2.checksum.to_bits(),
            "P=2 drifted from P=1: {} vs {}",
            r2.checksum,
            r1.checksum
        );
        assert_eq!(r1.final_max.to_bits(), r2.final_max.to_bits());
        assert_eq!(r1.fine_cells, r2.fine_cells);
        assert_eq!(r1.regrids, r2.regrids);
    }

    #[test]
    fn driver_part_roundtrips_and_a_hostile_one_is_a_typed_error() {
        let cfg = SamrConfig::default();
        let hier = base_hierarchy(&cfg);
        let mut dobj = DataObject::new(NVARS, NGHOST);
        for p in &hier.levels[0].patches {
            dobj.allocate(0, p.id, p.interior);
        }
        let meta = cca_ckpt::CkptMeta {
            step: 2,
            config_hash: cfg.state_hash(),
            nvars: NVARS,
            nghost: NGHOST,
        };
        let set_with = |parts| cca_ckpt::CheckpointSet::from_local(1, meta, &hier, &dobj, parts);
        let good = set_with(vec![driver_part(3, 11)]).unwrap();
        assert_eq!(read_driver_part(&good).unwrap(), (3, 11));
        // The part arrives inside a set somebody else wrote.
        let (name, blob) = driver_part(3, 11);
        let absent = set_with(Vec::new()).unwrap();
        assert!(matches!(
            read_driver_part(&absent),
            Err(CkptError::Corrupt(_))
        ));
        let short = set_with(vec![(name.clone(), blob[..12].to_vec())]).unwrap();
        assert!(matches!(
            read_driver_part(&short),
            Err(CkptError::Truncated(_))
        ));
        let long = set_with(vec![(name, [blob, vec![0]].concat())]).unwrap();
        assert!(matches!(
            read_driver_part(&long),
            Err(CkptError::Corrupt(_))
        ));
    }
}
