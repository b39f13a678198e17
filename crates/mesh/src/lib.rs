//! `cca-mesh` — the structured adaptive mesh refinement (SAMR) substrate:
//! this workspace's replacement for the GrACE library (Parashar & Browne,
//! HDDA/DAGH lineage) that the paper wraps as `GrACEComponent` to serve the
//! **Mesh** and **Data Object** subsystems.
//!
//! The machinery follows Berger & Colella (J. Comp. Phys. 82, 1989), the
//! paper's reference \[10\]:
//!
//! * a uniform coarse mesh covers the (logically rectangular) domain;
//! * cells where a user-supplied error estimator trips are **flagged**,
//!   buffered, and **clustered into rectangles** with the Berger–Rigoutsos
//!   signature algorithm ([`cluster`]);
//! * each rectangle, refined by a constant ratio, becomes a **patch** of
//!   the next finer level ([`hierarchy`]); patches nest properly inside
//!   their parent level;
//! * new fine data is **prolonged** from coarse parents (or copied from
//!   overlapping old patches), and after every step fine solutions are
//!   conservatively **restricted** back down ([`interp`]);
//! * ghost regions are filled from same-level neighbours, from
//!   coarse-fine interpolation, and from physical boundary conditions
//!   ([`ghost`], [`bc`]);
//! * patches are assigned to ranks by a work-aware load balancer that
//!   keeps children with their parents where possible ([`balance`]), and
//!   the uniform (adaptivity-off) decomposition used by the paper's
//!   scaling studies lives in [`decomp`];
//! * field data leaves and enters memory through one byte layer
//!   ([`wire`]): the patch record that migration and every checkpoint
//!   container carry, and the `CheckpointPort` stream ([`checkpoint`]).

pub mod balance;
pub mod bc;
pub mod boxes;
pub mod checkpoint;
pub mod cluster;
pub mod data;
pub mod decomp;
pub mod dist;
pub mod ghost;
pub mod hierarchy;
pub mod interp;
pub mod layout;
pub mod regrid;
pub mod wire;

pub use bc::{apply_physical_bc, BcKind, Side};
pub use boxes::IntBox;
pub use cluster::berger_rigoutsos;
pub use data::{DataObject, PatchData, VarView};
pub use decomp::UniformDecomp;
pub use dist::DistributedHierarchy;
pub use hierarchy::{Hierarchy, Level, Patch};
pub use layout::KernelConfig;
pub use regrid::{regrid_level, RegridParams};
