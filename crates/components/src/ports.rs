//! Domain-specific port (interface) definitions — the concrete realization
//! of the paper's §4 port taxonomy:
//!
//! * (a) [`MeshPort`] — geometrical manipulation of the domain, field
//!   declaration, domain-decomposition queries;
//! * (b) [`DataPort`] — Data Object manipulation (patch data access, ghost
//!   fill, restriction);
//! * (c) [`TimeIntegratorPort`] — act on Data Objects in a synchronized
//!   manner; [`ChemistryAdvancePort`] for the implicit subsystem;
//! * (d) [`PatchRhsPort`] — accept an array from a patch (RHS evaluation,
//!   one patch at a time);
//! * (e) [`OdeRhsPort`], [`OdeIntegratorPort`] — accept vectors;
//! * (f) `cca_core::ParameterPort` — key-value pairs (Database).
//!
//! All ports are object-safe traits passed as `Rc<dyn Trait>`: one virtual
//! call per invocation, the overhead Table 4 measures.

use cca_mesh::bc::BcKind;
use cca_mesh::boxes::IntBox;
use cca_mesh::data::PatchData;
use std::rc::Rc;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Patch-kernel snapshots — the parallel-executor seam
// ---------------------------------------------------------------------
//
// Ports are single-threaded (`Rc<dyn Trait>`): cheap to call, but pinned
// to the framework thread. The hot loops of the paper's codes, however,
// are *patch* (and cell) loops whose iterations are independent — exactly
// the "computation of the RHS values... performed patch-by-patch"
// structure the paper exploits for parallelism. So every compute port
// hands out a **kernel**: an immutable `Send + Sync` snapshot of the
// computation behind the port, safe to invoke from worker threads, and
// every SAMR sweep runs on snapshots — on the framework's executor, at
// every worker count (inline at 1). The component boundary is crossed
// once per sweep, outside the per-cell loop.
//
// 1. *One sweep*: a component's own port body (`eval_patch`) runs the
//    snapshot it hands out, so a port call and an executor run are
//    bit-identical by construction.
// 2. *Snapshot semantics*: a kernel captures the component's
//    configuration (tolerances, limiter, γ) at the moment it is handed
//    out; parameter changes require re-fetching the kernel.
// 3. *No silent slow path*: the hooks are required methods. A hook
//    returns `None` only when the snapshot cannot be built (an upstream
//    port is unconnected); the consumer reports that as an assembly
//    error at the point of use. (The `Option` stays in the signatures
//    because the stand-alone `benchmark/` package compiles against it.)

/// `Send + Sync` face of [`ChemistrySourcePort`]: the thermochemistry
/// evaluations worker threads need. Call counters behind the snapshot
/// are shared atomics, so the port's NFE accounting stays exact.
pub trait ChemistryKernel: Send + Sync {
    /// Number of species.
    fn n_species(&self) -> usize;
    /// All species molar masses, kg/kmol.
    fn molar_masses(&self, out: &mut [f64]);
    /// Net molar production rates from `T` and concentrations.
    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]);
    /// All molar enthalpies at `T`, J/kmol.
    fn enthalpies_molar(&self, t: f64, out: &mut [f64]);
    /// All molar internal energies at `T`, J/kmol.
    fn internal_energies_molar(&self, t: f64, out: &mut [f64]);
    /// Mixture mass heat capacity cp, J/(kg·K).
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64;
    /// Mixture mass heat capacity cv, J/(kg·K).
    fn cv_mass(&self, t: f64, y: &[f64]) -> f64;
    /// Mean molar mass, kg/kmol.
    fn mean_molar_mass(&self, y: &[f64]) -> f64;
    /// Ideal-gas density at `(T, P, Y)`.
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64;
}

/// `Send + Sync` face of [`TransportPort`].
pub trait TransportKernel: Send + Sync {
    /// Mixture-averaged diffusivities from `T`, `P`, mole fractions.
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]);
    /// Mixture thermal conductivity.
    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64;
}

/// `Send + Sync` face of [`PatchRhsPort`]: one patch RHS evaluation,
/// invocable from any worker thread on disjoint patch views.
pub trait PatchKernel: Send + Sync {
    /// Write the RHS of `state` into `rhs` (interiors only); same
    /// contract as [`PatchRhsPort::eval_patch`].
    fn eval(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64);

    /// Profiler timer name for one `eval` — the same `component.port`
    /// name the providing component's `eval_patch` records, so a direct
    /// port call and an executor run report under one name.
    fn label(&self) -> &'static str {
        "patch-kernel.eval"
    }
}

/// A `Sync` ODE right-hand side evaluated inside worker threads (the
/// kernel counterpart of [`OdeRhsPort`], minus the single-threaded NFE
/// cell — kernels count via shared atomics).
pub trait OdeSystemKernel: Sync {
    /// State dimension.
    fn dim(&self) -> usize;
    /// Evaluate the RHS.
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

/// `Send + Sync` face of [`OdeIntegratorPort`]: a configuration snapshot
/// (tolerances, initial step) that integrates one cell's ODE system on
/// whatever thread the executor chose.
pub trait OdeCellKernel: Send + Sync {
    /// Advance `y` from `t0` to `t1` using `sys`.
    fn integrate(
        &self,
        sys: &dyn OdeSystemKernel,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String>;
}

/// `Send + Sync` face of [`StatesPort`] (limiter captured at snapshot).
pub trait StatesKernel: Send + Sync {
    /// Left/right primitive interface states; same contract as
    /// [`StatesPort::reconstruct`].
    fn reconstruct(
        &self,
        b: &[f64; 5],
        c: &[f64; 5],
        d: &[f64; 5],
        e: &[f64; 5],
        gamma: f64,
    ) -> (cca_hydro_solver::Prim, cca_hydro_solver::Prim);
}

/// `Send + Sync` face of [`FluxPort`].
pub trait FluxKernel: Send + Sync {
    /// Numerical flux across an x-normal interface.
    fn flux_x(
        &self,
        left: &cca_hydro_solver::Prim,
        right: &cca_hydro_solver::Prim,
        gamma: f64,
    ) -> [f64; 5];
}

// ---------------------------------------------------------------------
// Vector (ODE) ports — the Implicit Integration subsystem
// ---------------------------------------------------------------------

/// A vector-valued right-hand side `dy/dt = f(t, y)`.
pub trait OdeRhsPort {
    /// State dimension.
    fn dim(&self) -> usize;
    /// Evaluate the RHS.
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]);
    /// RHS evaluations so far (the paper's NFE).
    fn nfe(&self) -> usize;
}

/// Statistics of one implicit integration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrateStats {
    /// Accepted steps.
    pub steps: usize,
    /// RHS evaluations.
    pub rhs_evals: usize,
    /// Jacobian evaluations.
    pub jacobians: usize,
}

/// A stiff/non-stiff vector integrator (the `CvodeComponent` port).
pub trait OdeIntegratorPort {
    /// Advance `y` from `t0` to `t1` using `rhs`.
    fn integrate(
        &self,
        rhs: Rc<dyn OdeRhsPort>,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String>;

    /// Set relative/absolute tolerances.
    fn set_tolerances(&self, rtol: f64, atol: f64);

    /// Force the initial step size (CVODE's `CVodeSetInitStep`); `None`
    /// restores the heuristic default.
    fn set_initial_step(&self, h: Option<f64>);

    /// A `Send + Sync` snapshot of this integrator's current
    /// configuration — what the hierarchy's cell sweep integrates with.
    fn cell_kernel(&self) -> Option<Arc<dyn OdeCellKernel>>;
}

/// Chemical source terms and thermodynamic queries — the face of
/// `ThermoChemistry`. Units: SI-kmol (see `cca-chem`).
pub trait ChemistrySourcePort {
    /// Number of species.
    fn n_species(&self) -> usize;
    /// Species molar masses, kg/kmol.
    fn molar_mass(&self, i: usize) -> f64;
    /// Net molar production rates from `T` and concentrations.
    fn production_rates(&self, t: f64, c: &[f64], wdot: &mut [f64]);
    /// Molar enthalpy of species `i` at `T`, J/kmol.
    fn h_molar(&self, i: usize, t: f64) -> f64;
    /// Molar internal energy of species `i` at `T`, J/kmol.
    fn u_molar(&self, i: usize, t: f64) -> f64;
    /// All molar masses at once (CHEMKIN `CKWT` shape). Hot paths call
    /// this once and cache — the values are constants.
    fn molar_masses(&self, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.molar_mass(i);
        }
    }
    /// All molar enthalpies at `T` (CHEMKIN `CKHML` shape): one port call
    /// per evaluation instead of one per species.
    fn enthalpies_molar(&self, t: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.h_molar(i, t);
        }
    }
    /// All molar internal energies at `T` (CHEMKIN `CKUML` shape).
    fn internal_energies_molar(&self, t: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.u_molar(i, t);
        }
    }
    /// Mixture mass heat capacity cp, J/(kg·K).
    fn cp_mass(&self, t: f64, y: &[f64]) -> f64;
    /// Mixture mass heat capacity cv, J/(kg·K).
    fn cv_mass(&self, t: f64, y: &[f64]) -> f64;
    /// Mean molar mass, kg/kmol.
    fn mean_molar_mass(&self, y: &[f64]) -> f64;
    /// Ideal-gas density at `(T, P, Y)`.
    fn density(&self, t: f64, p: f64, y: &[f64]) -> f64;
    /// Number of production-rate calls so far (Table 4's NFE per cell).
    fn calls(&self) -> usize;
    /// A `Send + Sync` snapshot of the gas-phase evaluations behind this
    /// port, sharing its call counter — what the diffusion stencil and the
    /// chemistry cell sweep evaluate.
    fn kernel(&self) -> Option<Arc<dyn ChemistryKernel>>;
}

/// The 0D rigid-vessel pressure closure (the `dPdt` component).
pub trait DpdtPort {
    /// `dP/dt` from the current temperature, its rate, the mass-fraction
    /// rates, and the (fixed) density.
    fn dpdt(&self, t_gas: f64, dtdt: f64, y: &[f64], dydt: &[f64], rho: f64) -> f64;
}

// ---------------------------------------------------------------------
// Mesh / Data Object ports — the SAMR subsystem
// ---------------------------------------------------------------------

/// Geometry and hierarchy management (the `MeshPort` of reference \[4\] in the paper).
pub trait MeshPort {
    /// (Re)create the hierarchy: a level-0 box of `nx × ny` cells over
    /// physical size `lx × ly`, refinement `ratio`.
    fn create(&self, nx: i64, ny: i64, lx: f64, ly: f64, ratio: i64);
    /// Number of levels.
    fn n_levels(&self) -> usize;
    /// Cell sizes of a level.
    fn dx(&self, level: usize) -> [f64; 2];
    /// The level's physical index-space domain.
    fn level_domain(&self, level: usize) -> IntBox;
    /// `(id, interior, owner)` of every patch of a level.
    fn patches(&self, level: usize) -> Vec<(usize, IntBox, usize)>;
    /// Cell-center coordinates.
    fn cell_center(&self, level: usize, i: i64, j: i64) -> [f64; 2];
    /// Rebuild `level + 1` from flags on `level`, moving the data of every
    /// registered Data Object. Returns new patch ids.
    fn regrid(&self, level: usize, flags: &[(i64, i64)]) -> Vec<usize>;
    /// Re-balance patch ownership over `nranks` (modeled decomposition).
    fn load_balance(&self, nranks: usize) -> Vec<Vec<f64>>;
    /// Is `(i, j)` of `level` covered by a finer patch? (Used to count
    /// each physical region once in diagnostics.)
    fn covered_by_finer(&self, level: usize, i: i64, j: i64) -> bool;
}

/// Data Object manipulation (port type (b)).
pub trait DataPort {
    /// Declare a Data Object on the current hierarchy.
    fn create_data_object(&self, name: &str, nvars: usize, nghost: i64);
    /// Number of variables of a Data Object.
    fn nvars(&self, name: &str) -> usize;
    /// Run `f` with mutable access to one patch's data.
    fn with_patch_mut(
        &self,
        name: &str,
        level: usize,
        id: usize,
        f: &mut dyn FnMut(&mut PatchData),
    );
    /// Run `f` with shared access to one patch's data.
    fn with_patch(&self, name: &str, level: usize, id: usize, f: &mut dyn FnMut(&PatchData));
    /// Fill ghosts of every patch of `level`: sibling copies, coarse-fine
    /// interpolation, then the physical boundary rule.
    fn fill_ghosts(
        &self,
        name: &str,
        level: usize,
        bc: &dyn Fn(cca_mesh::bc::Side, usize) -> BcKind,
    );
    /// Conservatively restrict fine data onto coarse parents, finest
    /// level downward.
    fn restrict_down(&self, name: &str);
    /// Copy `src` into `dst` (same shape) on all levels.
    fn copy_object(&self, src: &str, dst: &str);
    /// `dst += s * src` over all interiors (integrator axpy).
    fn axpy(&self, dst: &str, s: f64, src: &str);
    /// Detach the listed patches of `level` as owned [`PatchData`]
    /// values, in `ids` order — the disjoint patch views the parallel
    /// executor hands to worker threads: a move out of the Data Object,
    /// not a copy. Until the matching [`DataPort::put_level_patches`],
    /// reads of those patches through this port see unspecified
    /// (implementation-defined) contents.
    fn take_level_patches(&self, name: &str, level: usize, ids: &[usize]) -> Vec<PatchData>;
    /// Re-attach patches detached by [`DataPort::take_level_patches`]
    /// (same `ids`, same order).
    fn put_level_patches(&self, name: &str, level: usize, ids: &[usize], patches: Vec<PatchData>);
}

// ---------------------------------------------------------------------
// Integration subsystem ports
// ---------------------------------------------------------------------

/// RHS evaluation one patch at a time (port type (d)).
pub trait PatchRhsPort {
    /// Write the RHS of `state` into `rhs` (interiors only); ghosts of
    /// `state` are filled before the call. `dx`, `dy` are the patch's
    /// level cell sizes.
    fn eval_patch(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64);
    /// Number of patch evaluations performed.
    fn evals(&self) -> usize;
    /// A `Send + Sync` snapshot of the evaluation behind this port,
    /// runnable concurrently on disjoint patches — what the time
    /// integrators' hierarchy sweep runs. Shares the `evals` counter.
    /// `None` when an upstream port is unconnected or hands out no
    /// snapshot of its own.
    fn patch_kernel(&self) -> Option<Arc<dyn PatchKernel>>;
}

/// Physical boundary rule, applied patch by patch (the paper's Boundary
/// Condition subsystem granularity).
pub trait BoundaryConditionPort {
    /// The ghost-fill rule for `(side, var)`.
    fn rule(&self, side: cca_mesh::bc::Side, var: usize) -> BcKind;
}

/// Estimate of the largest eigenvalue the integrator will encounter
/// (spectral radius for RKC; max signal speed for the CFL of RK2).
pub trait EigenEstimatePort {
    /// Estimate over the whole hierarchy for Data Object `name`.
    fn estimate(&self, name: &str) -> f64;
}

/// A time integrator acting on Data Objects in a synchronized manner
/// (port type (c)).
pub trait TimeIntegratorPort {
    /// Advance Data Object `state` from `t` by up to `dt_max`; returns the
    /// dt actually taken (stability-limited schemes may take less).
    fn advance(&self, state: &str, t: f64, dt_max: f64) -> Result<f64, String>;
}

/// The implicit-subsystem adaptor (`ImplicitIntegrator`): advance the
/// point chemistry of every cell of every patch by `dt`.
pub trait ChemistryAdvancePort {
    /// Advance chemistry in `state` (layout `{T, Y1..Y_{N-1}}` per cell)
    /// by `dt` at fixed pressure `p`. Returns total BDF steps.
    fn advance_chemistry(&self, state: &str, dt: f64, p: f64) -> Result<usize, String>;
}

// ---------------------------------------------------------------------
// Transport, hydro, diagnostics
// ---------------------------------------------------------------------

/// Mixture-averaged transport properties (the `DRFMComponent` port).
pub trait TransportPort {
    /// Mixture-averaged diffusivities from `T`, `P`, mole fractions.
    fn mix_diffusivities(&self, t: f64, p: f64, x: &[f64], out: &mut [f64]);
    /// Mixture thermal conductivity.
    fn mix_conductivity(&self, t: f64, x: &[f64]) -> f64;
    /// Upper bound over species diffusivities (RKC spectral radius input).
    fn max_diffusivity(&self, t: f64, p: f64) -> f64;
    /// A `Send + Sync` snapshot of the property evaluations behind this
    /// port — what the diffusion stencil evaluates.
    fn kernel(&self) -> Option<Arc<dyn TransportKernel>>;
}

/// Slope-limited interface state construction (the `States` component).
pub trait StatesPort {
    /// Left/right primitive states at the interface between cells `c` and
    /// `d`, with outer neighbours `b`, `e` (conserved inputs).
    fn reconstruct(
        &self,
        b: &[f64; 5],
        c: &[f64; 5],
        d: &[f64; 5],
        e: &[f64; 5],
        gamma: f64,
    ) -> (cca_hydro_solver::Prim, cca_hydro_solver::Prim);

    /// A `Send + Sync` snapshot of the reconstruction (current limiter
    /// captured) — what the MUSCL sweep of `InviscidFlux` calls.
    fn kernel(&self) -> Option<Arc<dyn StatesKernel>>;
}

/// An interface flux (the `GodunovFlux` / `EFMFlux` components).
pub trait FluxPort {
    /// Numerical flux across an x-normal interface.
    fn flux_x(
        &self,
        left: &cca_hydro_solver::Prim,
        right: &cca_hydro_solver::Prim,
        gamma: f64,
    ) -> [f64; 5];
    /// Scheme name (for arena dumps and reports).
    fn scheme_name(&self) -> &'static str;
    /// A `Send + Sync` snapshot of the flux evaluation — what the MUSCL
    /// sweep of `InviscidFlux` calls.
    fn kernel(&self) -> Option<Arc<dyn FluxKernel>>;
}

/// Initial condition application (the Initial Condition subsystem).
pub trait InitialConditionPort {
    /// Impose the IC on Data Object `state` across the current hierarchy
    /// (all levels, interiors).
    fn apply(&self, state: &str);
}

/// Prolong/restrict between specific levels (the `ProlongRestrict`
/// component of the shock assembly).
pub trait InterpolationPort {
    /// Initialize `level`'s patches of `name` from `level − 1` (bilinear).
    fn prolong_level(&self, name: &str, level: usize);
    /// Average `level`'s patches of `name` onto `level − 1`.
    fn restrict_level(&self, name: &str, level: usize);
}

/// Field statistics & diagnostics (the `StatisticsComponent`).
pub trait StatisticsPort {
    /// Global max of a variable over the hierarchy (finest data wins).
    fn max_var(&self, name: &str, var: usize) -> f64;
    /// Global min.
    fn min_var(&self, name: &str, var: usize) -> f64;
    /// Interfacial circulation Γ over cells with ζ in the window,
    /// counting each physical region at its finest resolution.
    fn circulation(&self, name: &str, zeta_lo: f64, zeta_hi: f64) -> f64;
    /// Total of `var` weighted by cell area (conservation checks).
    fn integral(&self, name: &str, var: usize) -> f64;
}

/// Save/restore of the whole SAMR state (hierarchy + all Data Objects) —
/// restart capability for long campaigns (the paper's flame run was 58
/// hours; GrACE shipped the equivalent facility).
pub trait CheckpointPort {
    /// Write the current state to `path`.
    fn save(&self, path: &str) -> Result<(), String>;
    /// Replace the current state with the checkpoint at `path`.
    fn restore(&self, path: &str) -> Result<(), String>;
    /// The checkpoint as in-memory bytes (same format as [`Self::save`])
    /// — what a serving tier stores in a result cache instead of touching
    /// the filesystem. Default: unsupported.
    fn save_bytes(&self) -> Result<Vec<u8>, String> {
        Err("in-memory checkpointing not supported by this component".into())
    }
    /// Replace the current state with an in-memory checkpoint produced by
    /// [`Self::save_bytes`]. Default: unsupported.
    fn restore_bytes(&self, _bytes: &[u8]) -> Result<(), String> {
        Err("in-memory checkpointing not supported by this component".into())
    }
}

/// Pluggable patch-to-processor assignment — the interface the paper's
/// future-work item (1) calls for ("an effort to define interfaces to
/// load-balancers prior to testing a number of them"). `GrACEComponent`
/// declares a uses-port of this type; which balancer runs is an assembly
/// (script) decision.
pub trait LoadBalancerPort {
    /// Owner rank of each work item (patch), preserving input order.
    fn assign(&self, work: &[f64], nranks: usize) -> Vec<usize>;
    /// Balancer name for reports.
    fn balancer_name(&self) -> &'static str;
}

/// Read-back of a driver's solution vector (examples and tests).
pub trait SolutionPort {
    /// The stored state vector.
    fn solution(&self) -> Vec<f64>;
    /// The time the state corresponds to.
    fn time(&self) -> f64;
}

/// Error estimation + regrid trigger (the `ErrorEstAndRegrid` component).
pub trait RegridPort {
    /// Flag cells of `level` by the gradient detector on `var` of `state`
    /// and rebuild level+1. Returns the number of flagged cells.
    fn estimate_and_regrid(&self, state: &str, level: usize, var: usize, threshold: f64) -> usize;
}
