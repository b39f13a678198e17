//! Checkpoint/restart of the SAMR state, and the patch record every
//! migration and checkpoint moves field data in. Long SAMR campaigns (the
//! paper's production flame run took 58 hours on 28 CPUs) are not
//! survivable without restart files; GrACE/DAGH shipped the equivalent
//! facility.
//!
//! Both formats are built on [`crate::wire`]. The **patch record** is
//! `u64 record length (whole record, length prefix and trailing checksum
//! included), u64 level, u64 id, interior box, raw f64 data (all vars,
//! interior + ghosts, dense rows), u64 FNV-1a of the body (level through
//! data)`. The **`CCAH` stream** (version 2) is `magic, version u32, the
//! hierarchy block ([`SavedHierarchy`]), one owner u64 per patch in block
//! order, object count, then per Data Object: name, nvars u64, nghost i64,
//! n_records u64 and that many concatenated patch records`.

use crate::boxes::IntBox;
use crate::data::{DataObject, PatchData};
use crate::hierarchy::Hierarchy;
use crate::wire::{self, put_box, put_bytes, put_f64s, put_header, put_i64, put_u64, seal};
pub use crate::wire::{fnv1a64, CheckpointError, FNV1A_INIT};
use crate::wire::{Reader, SavedHierarchy};
use std::collections::BTreeMap;
use CheckpointError::Corrupt;

const MAGIC: &[u8; 4] = b"CCAH";
const VERSION: u32 = 2;

/// Fixed bytes of one patch record besides the field data: length prefix,
/// level, id, interior box, trailing checksum.
const RECORD_OVERHEAD: usize = 8 + 8 + 8 + 32 + 8;

/// Upper bound accepted for a record's length prefix; anything larger is
/// reported as corruption without reading further.
const RECORD_MAX: usize = 1 << 32;

/// [`patch_record_len`] for geometry that came from a stream: `None` when
/// it overflows.
fn checked_record_len(interior: &IntBox, nvars: usize, nghost: i64) -> Option<usize> {
    let mut n = nvars.checked_mul(8)?;
    for axis in 0..2 {
        let lo = interior.lo[axis].checked_sub(nghost)?;
        let hi = interior.hi[axis].checked_add(nghost)?;
        let extent = hi.checked_sub(lo)?.checked_add(1)?;
        n = n.checked_mul(usize::try_from(extent).ok()?)?;
    }
    n.checked_add(RECORD_OVERHEAD)
}

/// Serialize one stored patch as a self-describing record (layout in the
/// module docs). A record is exactly [`patch_record_len`] bytes and a
/// concatenation of records is a valid migration payload — and every
/// record carries enough framing for [`patch_from_bytes`] to reject
/// truncation or corruption with a typed error instead of misparsing
/// garbage.
pub fn patch_to_bytes(level: usize, id: usize, pd: &PatchData, out: &mut Vec<u8>) {
    let start = out.len();
    let len = patch_record_len(&pd.interior, pd.nvars, pd.nghost);
    put_u64(out, len as u64);
    put_u64(out, level as u64);
    put_u64(out, id as u64);
    put_box(out, &pd.interior);
    // Dense rows only: row padding is an in-memory artifact and must never
    // reach the wire (records stay byte-identical at any pitch quantum).
    let t = pd.total_box();
    for var in 0..pd.nvars {
        for j in t.lo[1]..=t.hi[1] {
            put_f64s(out, pd.row(var, j));
        }
    }
    seal(out, start + 8);
    debug_assert_eq!(out.len() - start, len);
}

/// Parse one record produced by [`patch_to_bytes`] off the front of
/// `bytes`. `nvars` and `nghost` come from the receiving Data Object (the
/// record stores only geometry + raw data). Returns `(level, id, patch)`.
///
/// Every structural fault is a typed [`CheckpointError`], never a panic:
/// an implausible or geometry-inconsistent length prefix and a checksum
/// mismatch are `Corrupt`; input shorter than its own length prefix is
/// `Truncated`. Storage is allocated only once all of the record's bytes
/// are in hand and agree with its geometry.
pub fn patch_from_bytes(
    bytes: &mut &[u8],
    nvars: usize,
    nghost: i64,
) -> wire::Result<(usize, usize, PatchData)> {
    let mut frame = Reader(bytes);
    let len = frame.index()?;
    if !(RECORD_OVERHEAD + 8..=RECORD_MAX).contains(&len) {
        return Err(Corrupt(format!(
            "record length prefix {len} outside [{}, {RECORD_MAX}]",
            RECORD_OVERHEAD + 8
        )));
    }
    let mut r = Reader::sealed(frame.take(len - 8)?, "record")?;
    *bytes = frame.0;
    let (level, id, interior) = (r.index()?, r.index()?, r.boxx()?);
    let want = checked_record_len(&interior, nvars, nghost);
    if want != Some(len) {
        return Err(Corrupt(format!(
            "record length {len} does not match geometry ({want:?} bytes for \
             box {:?}..{:?}, {nvars} vars, {nghost} ghosts)",
            interior.lo, interior.hi
        )));
    }
    let mut pd = PatchData::new(interior, nvars, nghost);
    let t = pd.total_box();
    for var in 0..nvars {
        for j in t.lo[1]..=t.hi[1] {
            r.f64s(pd.row_mut(var, j))?;
        }
    }
    Ok((level, id, pd))
}

/// Split the next record off the front of `bytes` by its framing alone —
/// no field data is parsed or copied. Returns `(level, id, record)`, or
/// `None` at the end of the payload or at a frame that cannot be a record.
pub fn split_record<'a>(bytes: &mut &'a [u8]) -> Option<(usize, usize, &'a [u8])> {
    let mut r = Reader(bytes);
    let (len, level, id) = (r.index().ok()?, r.index().ok()?, r.index().ok()?);
    if len < RECORD_OVERHEAD + 8 || len > bytes.len() {
        return None;
    }
    let (record, rest) = bytes.split_at(len);
    *bytes = rest;
    Some((level, id, record))
}

/// Exact wire size of one [`patch_to_bytes`] record for a patch with the
/// given interior box: framing (length prefix + level + id + box +
/// checksum) plus the ghost-padded field data. Lets both sides of a
/// migration size buffers and comm plans without constructing the
/// payload.
pub fn patch_record_len(interior: &IntBox, nvars: usize, nghost: i64) -> usize {
    let total = interior.grow(nghost).count() as usize;
    RECORD_OVERHEAD + 8 * nvars * total
}

/// Serialize `hier` and the given Data Objects as a `CCAH` stream.
pub fn write_checkpoint(hier: &Hierarchy, objects: &BTreeMap<String, DataObject>) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, MAGIC, VERSION);
    SavedHierarchy::capture(hier).put(&mut out);
    for p in hier.levels.iter().flat_map(|l| &l.patches) {
        put_u64(&mut out, p.owner as u64);
    }
    put_u64(&mut out, objects.len() as u64);
    for (name, dobj) in objects {
        put_bytes(&mut out, name.as_bytes());
        put_u64(&mut out, dobj.nvars as u64);
        put_i64(&mut out, dobj.nghost);
        put_u64(&mut out, dobj.patches().count() as u64);
        for (level, id, pd) in dobj.patches() {
            patch_to_bytes(level, id, pd, &mut out);
        }
    }
    out
}

/// Read a `CCAH` stream back. Beyond what the hierarchy block and each
/// record check for themselves: every record must name a patch of the
/// hierarchy block, with that patch's box, at most once per object — so
/// counts and storage are bounded by the block, not by what an object
/// section declares — and nothing may follow the last object.
pub fn read_checkpoint(bytes: &[u8]) -> wire::Result<(Hierarchy, BTreeMap<String, DataObject>)> {
    let mut r = Reader(bytes);
    r.header(MAGIC, VERSION)?;
    let saved = SavedHierarchy::get(&mut r)?;
    let mut hier = saved.rebuild();
    for p in hier.levels.iter_mut().flat_map(|l| &mut l.patches) {
        p.owner = r.index()?;
    }
    let boxes: BTreeMap<(usize, usize), IntBox> = saved
        .sorted_patches()
        .into_iter()
        .map(|(level, id, interior)| ((level, id), interior))
        .collect();
    let mut objects = BTreeMap::new();
    for _ in 0..r.count(1 << 16, 32, "objects")? {
        let name = r.string("object name")?;
        let (nvars, nghost) = r.shape()?;
        let mut dobj = DataObject::new(nvars, nghost);
        dobj.ensure_levels(hier.n_levels());
        for _ in 0..r.count(boxes.len(), RECORD_OVERHEAD + 8, "records")? {
            let (level, id, pd) = patch_from_bytes(&mut r.0, nvars, nghost)?;
            if boxes.get(&(level, id)) != Some(&pd.interior) || dobj.patch(level, id).is_some() {
                return Err(Corrupt(format!(
                    "object '{name}': record (level {level}, id {id}) {:?}..{:?} is not \
                     a patch of the hierarchy, or appears twice",
                    pd.interior.lo, pd.interior.hi
                )));
            }
            dobj.insert(level, id, pd);
        }
        objects.insert(name, dobj);
    }
    r.finish("the last object")?;
    Ok((hier, objects))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regrid::{regrid_level, RegridParams};

    fn sample() -> (Hierarchy, BTreeMap<String, DataObject>) {
        let mut hier = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2);
        hier.set_level_boxes(1, &[IntBox::new([4, 4], [11, 11]).refine(2)]);
        hier.levels[1].patches[0].owner = 3;
        let mut dobj = DataObject::new(2, 1);
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                dobj.allocate(level, p.id, p.interior);
            }
        }
        let id0 = hier.levels[0].patches[0].id;
        let pd = dobj.patch_mut(0, id0).unwrap();
        let interior = pd.interior;
        for (k, (i, j)) in interior.cells().enumerate() {
            pd.set(0, i, j, k as f64);
            pd.set(1, i, j, -(k as f64) * 0.5);
        }
        let mut objects = BTreeMap::new();
        objects.insert("state".to_string(), dobj);
        (hier, objects)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (hier, objects) = sample();
        let buf = write_checkpoint(&hier, &objects);
        let (h2, o2) = read_checkpoint(&buf).unwrap();
        assert_eq!(h2.domain0, hier.domain0);
        assert_eq!(h2.ratio, hier.ratio);
        assert_eq!(h2.n_levels(), hier.n_levels());
        assert_eq!(h2.levels[1].patches[0].owner, 3);
        assert_eq!(
            h2.levels[1].patches[0].interior,
            hier.levels[1].patches[0].interior
        );
        let (src, dst) = (&objects["state"], &o2["state"]);
        assert_eq!(src.patches().count(), 2);
        for (level, id, pd) in src.patches() {
            assert_eq!(Some(pd), dst.patch(level, id));
        }
        // Byte-stable: the restored state serializes to the same stream.
        assert_eq!(write_checkpoint(&h2, &o2), buf);
    }

    #[test]
    fn fresh_ids_do_not_collide_after_restart() {
        let (hier, objects) = sample();
        let (mut h2, _) = read_checkpoint(&write_checkpoint(&hier, &objects)).unwrap();
        let existing: Vec<usize> = h2
            .levels
            .iter()
            .flat_map(|l| l.patches.iter().map(|p| p.id))
            .collect();
        let fresh = h2.fresh_id();
        assert!(!existing.contains(&fresh), "id {fresh} collides");
    }

    #[test]
    fn stream_restores_the_id_watermark() {
        // Regrid, then destroy the fine level: the counter has issued ids
        // no live patch carries, so `max(id) + 1` undershoots it.
        let mut hier = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [1.0 / 16.0; 2], 2);
        let mut dobj = DataObject::new(1, 1);
        dobj.allocate(0, hier.levels[0].patches[0].id, hier.domain0);
        let params = RegridParams::default();
        regrid_level(&mut hier, 0, &[(7, 7), (8, 8)], &params, &mut [&mut dobj]);
        assert!(!hier.levels[1].patches.is_empty(), "nothing was refined");
        regrid_level(&mut hier, 0, &[], &params, &mut [&mut dobj]);
        let live_max = hier
            .levels
            .iter()
            .flat_map(|l| &l.patches)
            .map(|p| p.id)
            .max();
        assert!(hier.next_id_watermark() > live_max.unwrap() + 1);
        let objects = BTreeMap::from([("state".to_string(), dobj)]);
        let (mut back, _) = read_checkpoint(&write_checkpoint(&hier, &objects)).unwrap();
        assert_eq!(back.next_id_watermark(), hier.next_id_watermark());
        assert_eq!(back.fresh_id(), hier.fresh_id());
    }

    #[test]
    fn patch_record_roundtrip_is_bit_exact_and_sized() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let pd = dobj.patch(0, id0).unwrap();
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, pd, &mut buf);
        assert_eq!(buf.len(), patch_record_len(&pd.interior, pd.nvars, 1));
        let (level, id, back) = patch_from_bytes(&mut buf.as_slice(), pd.nvars, 1).unwrap();
        assert_eq!((level, id), (0, id0));
        assert_eq!(&back, pd);
    }

    #[test]
    fn record_bytes_and_restore_are_pitch_independent() {
        // The wire format strips row padding: a pitch-16 patch serializes
        // to the exact bytes of its dense twin, and restoring through a
        // different pitch quantum reproduces the values bit-identically.
        let interior = IntBox::sized(13, 7); // 13 + 2·2 ghosts = 17: pads at 8 and 16
        let mk = |quantum: usize| {
            let mut pd = PatchData::with_pitch_quantum(interior, 2, 2, quantum);
            let t = pd.total_box();
            for (k, (i, j)) in t.cells().enumerate() {
                pd.set(0, i, j, (k as f64).sin());
                pd.set(1, i, j, k as f64 * 0.25 - 3.0);
            }
            pd
        };
        let dense = mk(1);
        let wide = mk(16);
        assert_ne!(dense.pitch(), wide.pitch());
        let (mut b_dense, mut b_wide) = (Vec::new(), Vec::new());
        patch_to_bytes(2, 7, &dense, &mut b_dense);
        patch_to_bytes(2, 7, &wide, &mut b_wide);
        assert_eq!(b_dense, b_wide, "padding leaked into record bytes");
        assert_eq!(b_wide.len(), patch_record_len(&interior, 2, 2));
        // Restore with the constant quantum (8): values must match
        // the pitch-16 original bit-for-bit.
        let (level, id, back) = patch_from_bytes(&mut b_wide.as_slice(), 2, 2).unwrap();
        assert_eq!((level, id), (2, 7));
        assert_eq!(back, wide);
        let t = wide.total_box();
        for (i, j) in t.cells() {
            for var in 0..2 {
                assert_eq!(back.get(var, i, j).to_bits(), wide.get(var, i, j).to_bits());
            }
        }
    }

    #[test]
    fn concatenated_patch_records_parse_sequentially() {
        let (_, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let mut buf = Vec::new();
        for (level, id, pd) in dobj.patches() {
            patch_to_bytes(level, id, pd, &mut buf);
        }
        let (mut r, mut s) = (buf.as_slice(), buf.as_slice());
        for (level, id, want) in dobj.patches() {
            let before = s;
            let (l, i, record) = split_record(&mut s).unwrap();
            assert_eq!((l, i), (level, id));
            assert_eq!(record, &before[..record.len()]);
            let (l, i, pd) = patch_from_bytes(&mut r, dobj.nvars, dobj.nghost).unwrap();
            assert_eq!((l, i), (level, id));
            assert_eq!(&pd, want);
            assert_eq!(r, s, "parse and split disagree on where the record ends");
        }
        assert!(r.is_empty(), "trailing bytes after last record");
        assert!(split_record(&mut s).is_none());
        // Every proper prefix of the two-record payload runs out of input
        // in one of the records: a typed error, never a panic.
        for keep in 0..buf.len() {
            let mut r = &buf[..keep];
            let err = patch_from_bytes(&mut r, dobj.nvars, dobj.nghost)
                .and_then(|_| patch_from_bytes(&mut r, dobj.nvars, dobj.nghost))
                .err()
                .unwrap();
            assert!(
                matches!(err, CheckpointError::Truncated(_)),
                "keep {keep}: {err}"
            );
        }
    }

    #[test]
    fn split_record_stops_at_a_frame_that_cannot_be_a_record() {
        // A zero length prefix must end the walk, not stall it; so must a
        // prefix longer than the payload.
        let (_, objects) = sample();
        let (level, id, pd) = objects["state"].patches().next().unwrap();
        let mut good = Vec::new();
        patch_to_bytes(level, id, pd, &mut good);
        for hostile in [0u64, 1, 71, good.len() as u64 + 1, u64::MAX] {
            let mut buf = good.clone();
            buf[..8].copy_from_slice(&hostile.to_le_bytes());
            let mut rest = buf.as_slice();
            assert!(split_record(&mut rest).is_none(), "length prefix {hostile}");
            assert_eq!(rest.len(), buf.len(), "nothing is consumed");
        }
    }

    #[test]
    fn corrupted_patch_record_data_rejected_by_checksum() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, dobj.patch(0, id0).unwrap(), &mut buf);
        // Flip one bit in the middle of the field data.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = patch_from_bytes(&mut buf.as_slice(), 2, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn implausible_record_length_prefix_rejected() {
        // A length prefix far beyond RECORD_MAX must not be trusted as an
        // allocation size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u64::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let err = patch_from_bytes(&mut buf.as_slice(), 2, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("length prefix"), "{err}");
    }

    #[test]
    fn geometry_inconsistent_length_rejected() {
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        let mut buf = Vec::new();
        patch_to_bytes(0, id0, dobj.patch(0, id0).unwrap(), &mut buf);
        // Parse with the wrong nvars: the record is intact (checksum
        // passes) but its length no longer matches the claimed geometry.
        let err = patch_from_bytes(&mut buf.as_slice(), 3, 1).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("geometry"), "{err}");
    }

    #[test]
    fn bad_magic_and_the_retired_version_1_are_rejected() {
        let (hier, objects) = sample();
        let mut buf = write_checkpoint(&hier, &objects);
        buf[4..8].copy_from_slice(&1u32.to_le_bytes());
        for bytes in [&b"NOPE\x02\x00\x00\x00"[..], &buf] {
            let err = read_checkpoint(bytes).err().unwrap();
            assert!(matches!(err, CheckpointError::BadHeader(_)), "{err}");
        }
    }

    #[test]
    fn records_must_name_hierarchy_patches_once_and_nothing_may_trail() {
        let (hier, objects) = sample();
        let good = write_checkpoint(&hier, &objects);
        let rejected = |bytes: &[u8], why: &str| {
            let err = read_checkpoint(bytes).err().unwrap();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        };
        let mut trailing = good.clone();
        trailing.push(0);
        rejected(&trailing, "trailing");
        // The same object over a hierarchy whose fine patch sits elsewhere:
        // an intact record the hierarchy block does not know.
        let mut moved = hier.clone();
        moved.levels[1].patches[0].interior = IntBox::new([0, 0], [15, 15]);
        rejected(&write_checkpoint(&moved, &objects), "not a patch");
        // One record twice, in a stream that declares two records.
        let dobj = &objects["state"];
        let mut twice = write_checkpoint(&hier, &BTreeMap::new());
        twice.truncate(twice.len() - 8); // the empty object count
        put_u64(&mut twice, 1);
        put_bytes(&mut twice, b"state");
        put_u64(&mut twice, dobj.nvars as u64);
        put_i64(&mut twice, dobj.nghost);
        put_u64(&mut twice, 2);
        let (level, id, pd) = dobj.patches().next().unwrap();
        patch_to_bytes(level, id, pd, &mut twice);
        patch_to_bytes(level, id, pd, &mut twice);
        rejected(&twice, "appears twice");
    }

    #[test]
    fn corrupted_ratio_rejected() {
        let (hier, objects) = sample();
        let mut buf = write_checkpoint(&hier, &objects);
        // ratio sits after magic(4) + version(4) + box(32) + origin/dx(32).
        let off = 4 + 4 + 32 + 32;
        buf[off..off + 8].copy_from_slice(&999i64.to_le_bytes());
        let err = read_checkpoint(&buf).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }
}
