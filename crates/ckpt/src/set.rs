//! The checkpoint-set format: a versioned, checksummed container holding
//! everything a cohort needs to restart **at any rank count** —
//! replicated hierarchy metadata (including the exact next-patch-id
//! watermark), one shard of bit-exact patch records per writing rank, any
//! named component-state blobs, and an RNG-free configuration hash that
//! gates restore against the wrong run.
//!
//! Wire layout, on the shared [`cca_mesh::wire`] layer: `magic CCKS,
//! version u32, epoch u64, step u64, config_hash u64, nvars u64,
//! nghost i64, the hierarchy block, the parts list, n_shards u64, per
//! shard: writer u64, n_records u64, records (length-prefixed, then their
//! FNV-1a), set FNV-1a u64 over every preceding byte`. The records of a
//! shard are [`cca_mesh::checkpoint::patch_to_bytes`] records
//! concatenated in `(level, id)` order — the format migration uses, so a
//! restored patch is bit-identical to the one the interrupted run held,
//! ghosts included.

use cca_mesh::boxes::IntBox;
use cca_mesh::checkpoint::{patch_from_bytes, patch_record_len, patch_to_bytes, split_record};
use cca_mesh::data::DataObject;
use cca_mesh::hierarchy::Hierarchy;
use cca_mesh::wire::{self, Reader};
use std::collections::BTreeMap;

/// Checkpoint errors: the wire layer's, so a fault keeps its type from
/// the byte it was found at to the caller that reports it.
pub use cca_mesh::wire::CheckpointError as CkptError;
pub use cca_mesh::wire::SavedHierarchy;

const MAGIC: &[u8; 4] = b"CCKS";
const VERSION: u32 = 1;

/// Run identity and resume point carried by a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptMeta {
    /// First macro step the resumed run must execute (the interrupted run
    /// completed steps `0..step`).
    pub step: u64,
    /// RNG-free hash of the physics-bearing configuration; restore
    /// refuses a set whose hash differs from the resuming run's.
    pub config_hash: u64,
    /// Variables per mesh point of the checkpointed Data Object.
    pub nvars: usize,
    /// Ghost-ring width of the checkpointed Data Object.
    pub nghost: i64,
}

/// One rank's worth of patch records: concatenated hardened
/// `patch_to_bytes` records in `(level, id)` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Rank that wrote the shard in the interrupted run.
    pub writer: usize,
    /// Number of records in `records`.
    pub n_records: u64,
    /// The concatenated records.
    pub records: Vec<u8>,
}

/// One complete coordinated checkpoint: manifest + shards + component
/// state. Assembled on rank 0 at a macro-step barrier, committed to a
/// [`crate::store::CkptStore`] only once whole — a rank that dies
/// mid-snapshot can never leave a half-written set behind.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    /// Monotonic checkpoint epoch within the run (1-based).
    pub epoch: u64,
    /// Run identity and resume point.
    pub meta: CkptMeta,
    /// Replicated hierarchy metadata.
    pub hier: SavedHierarchy,
    /// Named component-state blobs (e.g. `CheckpointPort::save_bytes`
    /// output), each integrity-checksummed on the wire.
    pub parts: Vec<(String, Vec<u8>)>,
    /// Per-writing-rank patch shards.
    pub shards: Vec<Shard>,
}

impl CheckpointSet {
    /// Serialize the whole set, trailer checksum included. Byte-stable:
    /// the same set always serializes to the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_header(&mut out, MAGIC, VERSION);
        let meta = &self.meta;
        for v in [self.epoch, meta.step, meta.config_hash, meta.nvars as u64] {
            wire::put_u64(&mut out, v);
        }
        wire::put_i64(&mut out, meta.nghost);
        self.hier.put(&mut out);
        wire::put_parts(&mut out, &self.parts);
        wire::put_u64(&mut out, self.shards.len() as u64);
        for shard in &self.shards {
            wire::put_u64(&mut out, shard.writer as u64);
            wire::put_u64(&mut out, shard.n_records);
            wire::put_checked_bytes(&mut out, &shard.records);
        }
        wire::seal(&mut out, 0);
        out
    }

    /// Parse and integrity-check a serialized set: the whole-set trailer
    /// checksum, every per-part and per-shard checksum, and the header
    /// fields are all validated before anything is returned.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::sealed(buf, "set")?;
        r.header(MAGIC, VERSION)?;
        let (epoch, step, config_hash) = (r.u64()?, r.u64()?, r.u64()?);
        let (nvars, nghost) = r.shape()?;
        let mut set = CheckpointSet {
            epoch,
            meta: CkptMeta {
                step,
                config_hash,
                nvars,
                nghost,
            },
            hier: SavedHierarchy::get(&mut r)?,
            parts: r.parts()?,
            shards: Vec::new(),
        };
        for _ in 0..r.count(1 << 20, 32, "shards")? {
            let (writer, n_records) = (r.index()?, r.u64()?);
            let records = r.checked_bytes(1 << 32, &format!("shard of rank {writer}"))?;
            set.shards.push(Shard {
                writer,
                n_records,
                records: records.to_vec(),
            });
        }
        r.finish("the last shard")?;
        set.validate()?;
        Ok(set)
    }

    /// Structural completeness check: every patch of the saved hierarchy
    /// has exactly one well-formed record across the shards (box and
    /// record checksum included), and no shard holds a record for a patch
    /// the hierarchy does not know. Commit gates on this, so a set in a
    /// store is always restorable.
    pub fn validate(&self) -> Result<(), CkptError> {
        let mut seen: BTreeMap<(usize, usize), IntBox> = BTreeMap::new();
        for shard in &self.shards {
            let mut r = shard.records.as_slice();
            for _ in 0..shard.n_records {
                let (level, id, pd) = patch_from_bytes(&mut r, self.meta.nvars, self.meta.nghost)?;
                if seen.insert((level, id), pd.interior).is_some() {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) appears in two shards"
                    )));
                }
            }
            if !r.is_empty() {
                return Err(CkptError::Corrupt(format!(
                    "shard of rank {} has {} trailing bytes",
                    shard.writer,
                    r.len()
                )));
            }
        }
        for (level, id, interior) in self.hier.sorted_patches() {
            match seen.remove(&(level, id)) {
                None => {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) has no record in any shard"
                    )));
                }
                Some(b) if b != interior => {
                    return Err(CkptError::Corrupt(format!(
                        "patch (level {level}, id {id}) record box disagrees with manifest"
                    )));
                }
                Some(_) => {}
            }
        }
        if let Some(((level, id), _)) = seen.into_iter().next() {
            return Err(CkptError::Corrupt(format!(
                "shard record (level {level}, id {id}) not in the manifest"
            )));
        }
        Ok(())
    }

    /// Build a complete set from a fully-local state (every patch stored
    /// in one Data Object) — the single-writer degenerate case of the
    /// coordinated snapshot, used by tests and single-rank runs.
    pub fn from_local(
        epoch: u64,
        meta: CkptMeta,
        hier: &Hierarchy,
        dobj: &DataObject,
        parts: Vec<(String, Vec<u8>)>,
    ) -> Result<Self, CkptError> {
        let saved = SavedHierarchy::capture(hier);
        let patches = saved.sorted_patches();
        let mut records = Vec::new();
        for &(level, id, _) in &patches {
            let pd = dobj.patch(level, id).ok_or_else(|| {
                CkptError::Corrupt(format!("patch (level {level}, id {id}) not stored locally"))
            })?;
            patch_to_bytes(level, id, pd, &mut records);
        }
        let set = CheckpointSet {
            epoch,
            meta,
            hier: saved,
            parts,
            shards: vec![Shard {
                writer: 0,
                n_records: patches.len() as u64,
                records,
            }],
        };
        set.validate()?;
        Ok(set)
    }

    /// The blob of the named component-state part, if present.
    pub fn part(&self, name: &str) -> Option<&[u8]> {
        wire::part(&self.parts, name)
    }

    /// Index every record by `(level, id)` as a borrowed byte slice,
    /// using the record framing alone — no field data is copied or
    /// parsed. On a validated set (commit gates on
    /// [`CheckpointSet::validate`]) that is every record; on any other,
    /// a shard is indexed up to its first malformed frame.
    pub fn record_index(&self) -> BTreeMap<(usize, usize), &[u8]> {
        let mut index = BTreeMap::new();
        for shard in &self.shards {
            let mut rest = shard.records.as_slice();
            while let Some((level, id, record)) = split_record(&mut rest) {
                index.insert((level, id), record);
            }
        }
        index
    }

    /// Exact byte length of the records for the patches `owner_rank` owns
    /// under the hierarchy `hier` — derivable from replicated metadata
    /// alone, which is what lets every rank emit identical comm-plan rows
    /// for checkpoint and restore exchanges without seeing the data.
    pub fn owned_record_len(
        hier: &Hierarchy,
        owner_rank: usize,
        nvars: usize,
        nghost: i64,
    ) -> usize {
        hier.levels
            .iter()
            .flat_map(|l| l.patches.iter())
            .filter(|p| p.owner == owner_rank)
            .map(|p| patch_record_len(&p.interior, nvars, nghost))
            .sum()
    }

    /// Restore every patch of the set into one Data Object (the local
    /// inverse of [`CheckpointSet::from_local`]). Returns the rebuilt
    /// hierarchy and data.
    pub fn restore_local(&self) -> Result<(Hierarchy, DataObject), CkptError> {
        let hier = self.hier.rebuild();
        let mut dobj = DataObject::new(self.meta.nvars, self.meta.nghost);
        dobj.ensure_levels(hier.n_levels());
        for shard in &self.shards {
            let mut r = shard.records.as_slice();
            for _ in 0..shard.n_records {
                let (level, id, pd) = patch_from_bytes(&mut r, self.meta.nvars, self.meta.nghost)?;
                dobj.insert(level, id, pd);
            }
        }
        Ok((hier, dobj))
    }
}
