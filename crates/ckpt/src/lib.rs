//! cca-ckpt: coordinated distributed checkpointing with elastic,
//! deterministic restart.
//!
//! This crate layers a checkpoint/restart subsystem over the component
//! framework's `CheckpointPort` and the hardened patch-record wire
//! format in [`cca_mesh::checkpoint`]. At macro-step barriers a cohort
//! of SCMD ranks takes a *coordinated snapshot*: every rank serializes
//! its owned patches into a checksummed shard, rank 0 assembles shards
//! with the replicated hierarchy metadata (including the exact fresh-id
//! watermark) and an RNG-free configuration hash into a versioned
//! [`CheckpointSet`], and a closing barrier commits the set atomically.
//!
//! Restart is *elastic and deterministic*: any rank count `P'` can
//! rebuild the saved hierarchy bit-exactly and replay the same
//! deterministic LPT owner assignment the live run would have produced
//! at `P'` ranks — so a run resumed from a checkpoint is bit-identical
//! to one that never stopped, regardless of cohort size. Both the
//! snapshot gather and the restore scatter are mirrored into the
//! comm-plan IR, putting checkpoint traffic under the same static
//! verification and runtime audit as every other exchange.
//!
//! Modules:
//! - [`set`] — the checkpoint-set container: manifest, shards,
//!   checksums, validation, and elastic record redistribution helpers.
//! - [`store`] — a bounded, commit-atomic in-memory set store shared
//!   between a run and its recovery driver.
//! - [`coord`] — the coordinated snapshot/restore protocol over
//!   [`cca_comm::Communicator`], plus deterministic fault injection.
//! - [`component`] — single-process component-state sets used by the
//!   serving layer to preempt and migrate jobs.
//! - [`migrate`] — handoff tickets sealing component-set bytes that
//!   migrate between serve shards under work stealing.

pub mod component;
pub mod coord;
pub mod migrate;
pub mod set;
pub mod store;

/// The one FNV-1a of the workspace: set and ticket checksums here, job
/// keys, ring points and artifact digests in `cca-serve`.
pub use cca_mesh::wire::{fnv1a64, FNV1A_INIT};
pub use component::ComponentSet;
pub use coord::{restore, snapshot, FaultPlan, TAG_CKPT, TAG_RESTORE};
pub use migrate::HandoffTicket;
pub use set::{CheckpointSet, CkptError, CkptMeta, SavedHierarchy, Shard};
pub use store::CkptStore;
