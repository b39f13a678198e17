//! Checkpoint/restart of the SAMR state: hierarchy geometry plus any
//! number of named Data Objects, in a self-describing little-endian
//! binary format. Long SAMR campaigns (the paper's production flame run
//! took 58 hours on 28 CPUs) are not survivable without restart files;
//! GrACE/DAGH shipped the equivalent facility.
//!
//! Format: magic `CCAH`, version u32, hierarchy block, object count, then
//! per object: name, nvars, nghost, and per (level, patch) the interior
//! box plus the raw interior+ghost field data.

use crate::boxes::IntBox;
use crate::data::{DataObject, PatchData};
use crate::hierarchy::{Hierarchy, Patch};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CCAH";
const VERSION: u32 = 1;

/// FNV-1a initial offset basis (64-bit).
pub const FNV1A_INIT: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Plain 64-bit FNV-1a over a byte stream, seedable for chaining.
/// The per-record and per-set integrity checksums of the checkpoint
/// subsystem all use this (deterministic, dependency-free).
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV1A_PRIME);
    }
    h
}

/// Fixed bytes of one patch record besides the field data: length prefix,
/// level, id, interior box, trailing checksum.
const RECORD_OVERHEAD: usize = 8 + 8 + 8 + 32 + 8;

/// Upper bound accepted for a record's length prefix; anything larger is
/// reported as corruption without reading further.
const RECORD_MAX: usize = 1 << 32;

/// Upper bound accepted for a level count read from a stream.
const MAX_LEVELS: usize = 64;

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a checkpoint, or a different format version.
    BadHeader(String),
    /// Structurally invalid payload.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

fn put_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_i64(w: &mut impl Write, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn get_u32(r: &mut impl Read) -> Result<u32, CheckpointError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64(r: &mut impl Read) -> Result<u64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_i64(r: &mut impl Read) -> Result<i64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

fn get_f64(r: &mut impl Read) -> Result<f64, CheckpointError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn get_str(r: &mut impl Read) -> Result<String, CheckpointError> {
    let len = get_u64(r)? as usize;
    if len > 1 << 20 {
        return Err(CheckpointError::Corrupt(format!("string length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|e| CheckpointError::Corrupt(e.to_string()))
}

fn put_box(w: &mut impl Write, b: &IntBox) -> io::Result<()> {
    put_i64(w, b.lo[0])?;
    put_i64(w, b.lo[1])?;
    put_i64(w, b.hi[0])?;
    put_i64(w, b.hi[1])
}

fn get_box(r: &mut impl Read) -> Result<IntBox, CheckpointError> {
    let lo = [get_i64(r)?, get_i64(r)?];
    let hi = [get_i64(r)?, get_i64(r)?];
    // `hi − lo + 1` must be a positive i64 on both axes: everything
    // downstream (`nx`, `count`, `grow`) computes it unchecked.
    let extent = |axis: usize| hi[axis].checked_sub(lo[axis])?.checked_add(1);
    if !(0..2).all(|axis| extent(axis).is_some_and(|n| n >= 1)) {
        return Err(CheckpointError::Corrupt(format!(
            "box {lo:?}..{hi:?} is inverted or its extent overflows"
        )));
    }
    Ok(IntBox::new(lo, hi))
}

/// Byte size of a patch's field data (all vars, interior + ghosts) whose
/// geometry came from a stream, or `None` when it overflows.
fn checked_data_len(interior: &IntBox, nvars: usize, nghost: i64) -> Option<usize> {
    let mut n = nvars.checked_mul(8)?;
    for axis in 0..2 {
        let lo = interior.lo[axis].checked_sub(nghost)?;
        let hi = interior.hi[axis].checked_add(nghost)?;
        let extent = hi.checked_sub(lo)?.checked_add(1)?;
        n = n.checked_mul(usize::try_from(extent).ok()?)?;
    }
    Some(n)
}

/// Read exactly `len` bytes. The buffer grows only as bytes actually
/// arrive, so a stream that declares more data than it carries costs
/// what it carries, not what it declares.
fn get_bytes(r: &mut impl Read, len: usize) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::with_capacity(len.min(1 << 16));
    r.take(len as u64).read_to_end(&mut buf)?;
    if buf.len() != len {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(buf)
}

/// Serialize one stored patch as a self-describing migration record:
/// `u64 record length (whole record, length prefix and trailing checksum
/// included), u64 level, u64 id, interior box, raw f64 data (all vars,
/// interior + ghosts), u64 FNV-1a checksum of the body (level through
/// data)`. Little-endian, same conventions as the checkpoint body, so a
/// record is exactly [`patch_record_len`] bytes and a concatenation of
/// records is a valid migration payload — and every record carries enough
/// framing for [`patch_from_bytes`] to reject truncation or corruption
/// with a typed error instead of misparsing garbage.
pub fn patch_to_bytes(level: usize, id: usize, pd: &PatchData, out: &mut Vec<u8>) {
    let start = out.len();
    let len = patch_record_len(&pd.interior, pd.nvars, pd.nghost);
    put_u64(out, len as u64).expect("Vec writes are infallible");
    put_u64(out, level as u64).expect("Vec writes are infallible");
    put_u64(out, id as u64).expect("Vec writes are infallible");
    put_box(out, &pd.interior).expect("Vec writes are infallible");
    // Dense rows only: row padding is an in-memory artifact and must never
    // reach the wire (records stay byte-identical at any pitch quantum).
    let t = pd.total_box();
    for var in 0..pd.nvars {
        for j in t.lo[1]..=t.hi[1] {
            for v in pd.row(var, j) {
                put_f64(out, *v).expect("Vec writes are infallible");
            }
        }
    }
    let sum = fnv1a64(FNV1A_INIT, &out[start + 8..]);
    put_u64(out, sum).expect("Vec writes are infallible");
    debug_assert_eq!(out.len() - start, len);
}

/// Parse one migration record produced by [`patch_to_bytes`]. `nvars` and
/// `nghost` come from the receiving Data Object (the record stores only
/// geometry + raw data). Returns `(level, id, patch)`.
///
/// Every structural fault is a typed [`CheckpointError`], never a panic:
/// an implausible or geometry-inconsistent length prefix and a checksum
/// mismatch are `Corrupt`; a stream shorter than its own length prefix is
/// `Io` (unexpected EOF).
pub fn patch_from_bytes(
    r: &mut impl Read,
    nvars: usize,
    nghost: i64,
) -> Result<(usize, usize, PatchData), CheckpointError> {
    let len = get_u64(r)? as usize;
    if !(RECORD_OVERHEAD + 8..=RECORD_MAX).contains(&len) {
        return Err(CheckpointError::Corrupt(format!(
            "record length prefix {len} outside [{}, {RECORD_MAX}]",
            RECORD_OVERHEAD + 8
        )));
    }
    // The prefix is a claim: the buffer grows with the bytes that arrive.
    let body = get_bytes(r, len - 8)?;
    let (payload, tail) = body.split_at(body.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = fnv1a64(FNV1A_INIT, payload);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "record checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }
    let mut p = payload;
    let level = get_u64(&mut p)? as usize;
    let id = get_u64(&mut p)? as usize;
    let interior = get_box(&mut p)?;
    let want = checked_data_len(&interior, nvars, nghost)
        .and_then(|data| data.checked_add(RECORD_OVERHEAD));
    if want != Some(len) {
        return Err(CheckpointError::Corrupt(format!(
            "record length {len} does not match geometry ({want:?} bytes for \
             box {:?}..{:?}, {nvars} vars, {nghost} ghosts)",
            interior.lo, interior.hi
        )));
    }
    let mut pd = PatchData::new(interior, nvars, nghost);
    let t = pd.total_box();
    for var in 0..nvars {
        for j in t.lo[1]..=t.hi[1] {
            for v in pd.row_mut(var, j).iter_mut() {
                *v = get_f64(&mut p)?;
            }
        }
    }
    Ok((level, id, pd))
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

/// Write a checkpoint of `hier` and the given Data Objects.
pub fn write_checkpoint(
    hier: &Hierarchy,
    objects: &BTreeMap<String, DataObject>,
    w: &mut impl Write,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;
    // Hierarchy geometry.
    put_box(w, &hier.domain0)?;
    put_f64(w, hier.origin[0])?;
    put_f64(w, hier.origin[1])?;
    put_f64(w, hier.dx0[0])?;
    put_f64(w, hier.dx0[1])?;
    put_i64(w, hier.ratio)?;
    put_u64(w, hier.n_levels() as u64)?;
    for level in &hier.levels {
        put_u64(w, level.patches.len() as u64)?;
        for p in &level.patches {
            put_u64(w, p.id as u64)?;
            put_box(w, &p.interior)?;
            put_u64(w, p.owner as u64)?;
        }
    }
    // Data objects.
    put_u64(w, objects.len() as u64)?;
    for (name, dobj) in objects {
        put_str(w, name)?;
        put_u64(w, dobj.nvars as u64)?;
        put_i64(w, dobj.nghost)?;
        put_u64(w, dobj.n_levels() as u64)?;
        for level in 0..dobj.n_levels() {
            let ids = dobj.patch_ids(level);
            put_u64(w, ids.len() as u64)?;
            for id in ids {
                let pd = dobj.patch(level, id).expect("listed id");
                put_u64(w, id as u64)?;
                put_box(w, &pd.interior)?;
                let t = pd.total_box();
                for var in 0..pd.nvars {
                    for j in t.lo[1]..=t.hi[1] {
                        for v in pd.row(var, j) {
                            put_f64(w, *v)?;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Read a checkpoint back.
pub fn read_checkpoint(
    r: &mut impl Read,
) -> Result<(Hierarchy, BTreeMap<String, DataObject>), CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadHeader(format!("magic {magic:?}")));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(CheckpointError::BadHeader(format!("version {version}")));
    }
    let domain0 = get_box(r)?;
    let origin = [get_f64(r)?, get_f64(r)?];
    let dx0 = [get_f64(r)?, get_f64(r)?];
    let ratio = get_i64(r)?;
    if !(2..=16).contains(&ratio) {
        return Err(CheckpointError::Corrupt(format!("ratio {ratio}")));
    }
    let mut hier = Hierarchy::new(domain0, origin, dx0, ratio);
    let n_levels = get_u64(r)? as usize;
    if n_levels == 0 || n_levels > MAX_LEVELS {
        return Err(CheckpointError::Corrupt(format!("{n_levels} levels")));
    }
    hier.levels.clear();
    let mut max_id = 0usize;
    for _ in 0..n_levels {
        let n_patches = get_u64(r)? as usize;
        if n_patches > 1 << 24 {
            return Err(CheckpointError::Corrupt(format!("{n_patches} patches")));
        }
        let mut level = crate::hierarchy::Level::default();
        for _ in 0..n_patches {
            let id = get_u64(r)? as usize;
            let interior = get_box(r)?;
            let owner = get_u64(r)? as usize;
            let next = id
                .checked_add(1)
                .ok_or_else(|| CheckpointError::Corrupt(format!("patch id {id}")))?;
            max_id = max_id.max(next);
            level.patches.push(Patch {
                id,
                interior,
                owner,
            });
        }
        hier.levels.push(level);
    }
    hier.reserve_ids(max_id);
    // (id → box) of every level: what a data record may name.
    let hier_boxes: Vec<BTreeMap<usize, IntBox>> = hier
        .levels
        .iter()
        .map(|l| l.patches.iter().map(|p| (p.id, p.interior)).collect())
        .collect();
    let no_boxes = BTreeMap::new();

    let n_objects = get_u64(r)? as usize;
    if n_objects > 1 << 16 {
        return Err(CheckpointError::Corrupt(format!("{n_objects} objects")));
    }
    let mut objects = BTreeMap::new();
    for _ in 0..n_objects {
        let name = get_str(r)?;
        let nvars = get_u64(r)? as usize;
        let nghost = get_i64(r)?;
        if nvars == 0 || nvars > 1 << 12 || !(0..=16).contains(&nghost) {
            return Err(CheckpointError::Corrupt(format!(
                "object '{name}': nvars {nvars}, nghost {nghost}"
            )));
        }
        let mut dobj = DataObject::new(nvars, nghost);
        // Every data record must name a patch of the hierarchy block just
        // parsed, once: counts and boxes are bounded by it, not by what
        // the object section declares. (An object may carry empty levels
        // the hierarchy has since dropped.)
        let n_levels = get_u64(r)? as usize;
        if n_levels > MAX_LEVELS {
            return Err(CheckpointError::Corrupt(format!(
                "object '{name}': {n_levels} levels"
            )));
        }
        for level in 0..n_levels {
            let hier_boxes = hier_boxes.get(level).unwrap_or(&no_boxes);
            let n_patches = get_u64(r)?;
            if n_patches > hier_boxes.len() as u64 {
                return Err(CheckpointError::Corrupt(format!(
                    "object '{name}' level {level}: {n_patches} patches, hierarchy has {}",
                    hier_boxes.len()
                )));
            }
            for _ in 0..n_patches {
                let id = get_u64(r)? as usize;
                let interior = get_box(r)?;
                if hier_boxes.get(&id) != Some(&interior) || dobj.patch(level, id).is_some() {
                    return Err(CheckpointError::Corrupt(format!(
                        "object '{name}' level {level}: patch {id} {:?}..{:?} is not \
                         a patch of the hierarchy, or appears twice",
                        interior.lo, interior.hi
                    )));
                }
                let len = checked_data_len(&interior, nvars, nghost).ok_or_else(|| {
                    CheckpointError::Corrupt(format!(
                        "object '{name}' level {level}: size of patch {id} {:?}..{:?} overflows",
                        interior.lo, interior.hi
                    ))
                })?;
                // All of the patch's bytes are in hand before its storage
                // is allocated.
                let raw = get_bytes(r, len)?;
                let mut rest = raw.as_slice();
                let mut pd = PatchData::new(interior, nvars, nghost);
                let t = pd.total_box();
                for var in 0..nvars {
                    for j in t.lo[1]..=t.hi[1] {
                        let row = pd.row_mut(var, j);
                        let (head, tail) = rest.split_at(8 * row.len());
                        for (v, b) in row.iter_mut().zip(head.chunks_exact(8)) {
                            *v = f64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                        }
                        rest = tail;
                    }
                }
                dobj.insert(level, id, pd);
            }
        }
        objects.insert(name, dobj);
    }
    Ok((hier, objects))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        let (h2, o2) = read_checkpoint(&mut buf.as_slice()).unwrap();
        assert_eq!(h2.domain0, hier.domain0);
        assert_eq!(h2.ratio, hier.ratio);
        assert_eq!(h2.n_levels(), hier.n_levels());
        assert_eq!(h2.levels[1].patches[0].owner, 3);
        assert_eq!(
            h2.levels[1].patches[0].interior,
            hier.levels[1].patches[0].interior
        );
        let src = objects.get("state").unwrap();
        let dst = o2.get("state").unwrap();
        let id0 = hier.levels[0].patches[0].id;
        assert_eq!(src.patch(0, id0).unwrap(), dst.patch(0, id0).unwrap());
    }

    #[test]
    fn fresh_ids_do_not_collide_after_restart() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        let (mut h2, _) = read_checkpoint(&mut buf.as_slice()).unwrap();
        let existing: Vec<usize> = h2
            .levels
            .iter()
            .flat_map(|l| l.patches.iter().map(|p| p.id))
            .collect();
        let fresh = h2.fresh_id();
        assert!(!existing.contains(&fresh), "id {fresh} collides");
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
        let (hier, objects) = sample();
        let dobj = objects.get("state").unwrap();
        let mut buf = Vec::new();
        let mut expect = Vec::new();
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                patch_to_bytes(level, p.id, dobj.patch(level, p.id).unwrap(), &mut buf);
                expect.push((level, p.id));
            }
        }
        let mut r = buf.as_slice();
        for &(level, id) in &expect {
            let (l, i, pd) = patch_from_bytes(&mut r, dobj.nvars, dobj.nghost).unwrap();
            assert_eq!((l, i), (level, id));
            assert_eq!(&pd, dobj.patch(level, id).unwrap());
        }
        assert!(r.is_empty(), "trailing bytes after last record");
        // Every proper prefix of the two-record payload runs out of input
        // in one of the records: a typed error, never a panic.
        assert_eq!(expect.len(), 2);
        for keep in 0..buf.len() {
            let mut r = &buf[..keep];
            let err = patch_from_bytes(&mut r, dobj.nvars, dobj.nghost)
                .and_then(|_| patch_from_bytes(&mut r, dobj.nvars, dobj.nghost))
                .err()
                .unwrap();
            assert!(matches!(err, CheckpointError::Io(_)), "keep {keep}: {err}");
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
    fn bad_magic_rejected() {
        let err = read_checkpoint(&mut &b"NOPE\x01\x00\x00\x00"[..])
            .err()
            .unwrap();
        assert!(matches!(err, CheckpointError::BadHeader(_)), "{err}");
    }

    /// A checkpoint of `hier` whose single object "state" (1 var, no
    /// ghosts) has one level of hand-written `(id, box, n_zero_values)`
    /// records.
    fn hand_written(hier: &Hierarchy, records: &[(usize, IntBox, usize)]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_checkpoint(hier, &BTreeMap::new(), &mut buf).unwrap();
        buf.truncate(buf.len() - 8); // the empty object count
        put_u64(&mut buf, 1).unwrap();
        put_str(&mut buf, "state").unwrap();
        put_u64(&mut buf, 1).unwrap(); // nvars
        put_i64(&mut buf, 0).unwrap(); // nghost
        put_u64(&mut buf, 1).unwrap(); // n_levels
        put_u64(&mut buf, records.len() as u64).unwrap();
        for (id, interior, n_values) in records {
            put_u64(&mut buf, *id as u64).unwrap();
            put_box(&mut buf, interior).unwrap();
            buf.resize(buf.len() + 8 * n_values, 0);
        }
        buf
    }

    #[test]
    fn hostile_sizes_are_typed_errors_not_allocations() {
        let square = |edge: i64| IntBox::new([0, 0], [edge - 1, edge - 1]);
        let hier_of = |interior: IntBox| {
            let mut hier = Hierarchy::new(square(16), [0.0, 0.0], [1.0; 2], 2);
            hier.levels[0].patches[0].interior = interior;
            let spare = Patch {
                id: hier.fresh_id(),
                interior: IntBox::new([-16, 0], [-1, 15]),
                owner: 0,
            };
            hier.levels[0].patches.push(spare);
            hier
        };
        let hier = hier_of(square(16));
        let id = hier.levels[0].patches[0].id;
        let good = hand_written(&hier, &[(id, square(16), 256)]);
        assert!(read_checkpoint(&mut good.as_slice()).is_ok());
        let rejected = |buf: &[u8], why: &str| {
            let err = read_checkpoint(&mut &buf[..]).err().unwrap();
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{why}: {err}");
            assert!(err.to_string().contains(why), "{why}: {err}");
        };
        // A 2^31 x 2^31 data record the hierarchy does not have (the old
        // reader allocated it up front), and a patch listed twice.
        rejected(
            &hand_written(&hier, &[(id, square(1 << 31), 0)]),
            "not a patch",
        );
        let record = (id, square(16), 256);
        rejected(&hand_written(&hier, &[record, record]), "not a patch");
        // A box hierarchy and record agree on: only checked arithmetic
        // stops the overflowing one, and the 8 TiB one must run out of
        // input, not out of memory.
        let far = IntBox::new([0, 0], [i64::MAX, i64::MAX]);
        rejected(&hand_written(&hier_of(far), &[(id, far, 0)]), "overflows");
        let big = hand_written(&hier_of(square(1 << 20)), &[(id, square(1 << 20), 8)]);
        let err = read_checkpoint(&mut big.as_slice()).err().unwrap();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        // Counts beyond what the hierarchy block holds: n_levels and
        // n_patches sit just before the one (id, box, data) record.
        let n_patches_at = good.len() - (8 + 32 + 8 * 256) - 8;
        for (at, why) in [(n_patches_at - 8, "levels"), (n_patches_at, "patches")] {
            let mut bad = good.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            rejected(&bad, why);
        }
    }

    #[test]
    fn hostile_patch_records_are_typed_errors_not_allocations() {
        // 16 bytes that declare a 4 GiB record: the stream runs out, the
        // declared size is never allocated.
        let mut declared = Vec::new();
        put_u64(&mut declared, RECORD_MAX as u64).unwrap();
        put_u64(&mut declared, 0).unwrap();
        let err = patch_from_bytes(&mut declared.as_slice(), 1, 0)
            .err()
            .unwrap();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        // An intact record (checksum passes) around a box whose extent
        // overflows i64; the same box as a checkpoint's level-0 domain.
        let all = IntBox::new([i64::MIN; 2], [i64::MAX; 2]);
        let mut record = Vec::new();
        put_u64(&mut record, (RECORD_OVERHEAD + 8) as u64).unwrap();
        put_u64(&mut record, 0).unwrap(); // level
        put_u64(&mut record, 7).unwrap(); // id
        put_box(&mut record, &all).unwrap();
        put_f64(&mut record, 1.0).unwrap();
        let sum = fnv1a64(FNV1A_INIT, &record[8..]);
        put_u64(&mut record, sum).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, VERSION).unwrap();
        put_box(&mut header, &all).unwrap();
        for err in [
            patch_from_bytes(&mut record.as_slice(), 1, 0)
                .err()
                .unwrap(),
            read_checkpoint(&mut header.as_slice()).err().unwrap(),
        ] {
            assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        for keep in 0..buf.len() {
            let err = read_checkpoint(&mut &buf[..keep]).err().unwrap();
            assert!(matches!(err, CheckpointError::Io(_)), "keep {keep}: {err}");
        }
    }

    #[test]
    fn corrupted_ratio_rejected() {
        let (hier, objects) = sample();
        let mut buf = Vec::new();
        write_checkpoint(&hier, &objects, &mut buf).unwrap();
        // ratio sits after magic(4) + version(4) + box(32) + origin/dx(32).
        let off = 4 + 4 + 32 + 32;
        buf[off..off + 8].copy_from_slice(&999i64.to_le_bytes());
        let err = read_checkpoint(&mut buf.as_slice()).err().unwrap();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }
}
