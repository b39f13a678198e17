//! The one little-endian wire layer under every byte this workspace
//! persists or migrates. The paper gives the Data Object subsystem sole
//! ownership of "the actual movement/copying of data"; this module is
//! where that data becomes bytes and back.
//!
//! Writers append to a `Vec<u8>` and cannot fail. [`Reader`] walks a
//! slice and is *total*: every read is bounds-checked, every declared
//! count or length is capped by the bytes that remain (a decoder pays for
//! what its input carries, never for what it declares), and every box
//! must have a positive, non-overflowing extent. Two sections shared by
//! the containers sit on top: the hierarchy block ([`SavedHierarchy`])
//! and the named, checksummed blob list ([`put_parts`] /
//! [`Reader::parts`]). DESIGN.md §12 tabulates which container is built
//! from which section.

use crate::boxes::IntBox;
use crate::hierarchy::{Hierarchy, Level, Patch};

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

/// What a decoder of this layer can report. Every structural fault of
/// hostile or damaged input is one of these, never a panic.
#[derive(Debug)]
pub enum CheckpointError {
    /// The input ends before the bytes it declares: a cut transfer or a
    /// short file, as opposed to damaged content.
    Truncated(String),
    /// Not the expected container, or a different format version.
    BadHeader(String),
    /// Structurally invalid or checksum-failing payload.
    Corrupt(String),
    /// Well-formed, but it does not belong to this run (configuration
    /// hash, step or epoch mismatch).
    Incompatible(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated(m) => write!(f, "truncated checkpoint: {m}"),
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
            CheckpointError::Incompatible(m) => write!(f, "incompatible checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// What every read of this layer returns.
pub type Result<T> = std::result::Result<T, CheckpointError>;

use CheckpointError::{BadHeader, Corrupt, Truncated};

/// Append a `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a run of `f64`s (no length prefix: the reader knows the shape).
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append a box: `lo[0], lo[1], hi[0], hi[1]`.
pub fn put_box(out: &mut Vec<u8>, b: &IntBox) {
    for v in [b.lo[0], b.lo[1], b.hi[0], b.hi[1]] {
        put_i64(out, v);
    }
}

/// Append length-prefixed bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append length-prefixed bytes followed by their FNV-1a.
pub fn put_checked_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_bytes(out, bytes);
    put_u64(out, fnv1a64(FNV1A_INIT, bytes));
}

/// Append a container header: four magic bytes and a `u32` version.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u32) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
}

/// Append the named-blob list: count, then per part a length-prefixed
/// name and a length-prefixed, checksummed blob.
pub fn put_parts(out: &mut Vec<u8>, parts: &[(String, Vec<u8>)]) {
    put_u64(out, parts.len() as u64);
    for (name, blob) in parts {
        put_bytes(out, name.as_bytes());
        put_checked_bytes(out, blob);
    }
}

/// Seal `out[from..]`: append the FNV-1a of those bytes.
pub fn seal(out: &mut Vec<u8>, from: usize) {
    let sum = fnv1a64(FNV1A_INIT, &out[from..]);
    put_u64(out, sum);
}

/// The blob of the named part, if present.
pub fn part<'a>(parts: &'a [(String, Vec<u8>)], name: &str) -> Option<&'a [u8]> {
    parts
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, b)| b.as_slice())
}

/// Total reader over a byte slice (see the module docs); the field is
/// what has not been read yet.
pub struct Reader<'a>(pub &'a [u8]);

impl<'a> Reader<'a> {
    /// Reader over the body of bytes closed by [`seal`]: the trailing
    /// FNV-1a is verified before a single field is parsed.
    pub fn sealed(buf: &'a [u8], what: &str) -> Result<Self> {
        let mut r = Reader(buf);
        let body = r.take(buf.len().saturating_sub(8))?;
        let (stored, computed) = (r.u64()?, fnv1a64(FNV1A_INIT, body));
        if stored != computed {
            return Err(Corrupt(format!(
                "{what} checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            )));
        }
        Ok(Reader(body))
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let Some((head, tail)) = self.0.split_at_checked(n) else {
            let left = self.0.len();
            return Err(Truncated(format!("want {n} bytes, {left} remain")));
        };
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// An `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// A `u64` that names or sizes something in memory (level, id, rank).
    pub fn index(&mut self) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| Corrupt(format!("index {v} exceeds the address space")))
    }

    /// A declared element count: at most `max`, and no more than the
    /// remaining bytes could hold at `item_bytes` (the smallest wire size
    /// of one element) each — so a `Vec` sized by it costs what the input
    /// carries, not what it declares.
    pub fn count(&mut self, max: usize, item_bytes: usize, what: &str) -> Result<usize> {
        let n = self.index()?;
        if n > max {
            return Err(Corrupt(format!("{n} {what} (at most {max})")));
        }
        let left = self.0.len();
        if n > left / item_bytes {
            return Err(Truncated(format!("{n} {what} declared in {left} bytes")));
        }
        Ok(n)
    }

    /// Length-prefixed bytes, borrowed from the input.
    pub fn bytes(&mut self, max: usize, what: &str) -> Result<&'a [u8]> {
        let n = self.count(max, 1, what)?;
        self.take(n)
    }

    /// Length-prefixed bytes written by [`put_checked_bytes`], their
    /// FNV-1a verified.
    pub fn checked_bytes(&mut self, max: usize, what: &str) -> Result<&'a [u8]> {
        let bytes = self.bytes(max, what)?;
        if self.u64()? != fnv1a64(FNV1A_INIT, bytes) {
            return Err(Corrupt(format!("{what} checksum mismatch")));
        }
        Ok(bytes)
    }

    /// A length-prefixed UTF-8 name.
    pub fn string(&mut self, what: &str) -> Result<String> {
        String::from_utf8(self.bytes(1 << 20, what)?.to_vec())
            .map_err(|e| Corrupt(format!("{what}: {e}")))
    }

    /// Fill `out` with the next `out.len()` `f64`s.
    pub fn f64s(&mut self, out: &mut [f64]) -> Result<()> {
        let (chunks, _) = self.take(8 * out.len())?.as_chunks::<8>();
        for (v, b) in out.iter_mut().zip(chunks) {
            *v = f64::from_le_bytes(*b);
        }
        Ok(())
    }

    /// A box. `hi − lo + 1` must be a positive `i64` on both axes:
    /// everything downstream (`nx`, `count`, `grow`) computes it unchecked.
    pub fn boxx(&mut self) -> Result<IntBox> {
        let lo = [self.i64()?, self.i64()?];
        let hi = [self.i64()?, self.i64()?];
        let extent = |axis: usize| hi[axis].checked_sub(lo[axis])?.checked_add(1);
        if !(0..2).all(|axis| extent(axis).is_some_and(|n| n >= 1)) {
            return Err(Corrupt(format!(
                "box {lo:?}..{hi:?} is inverted or its extent overflows"
            )));
        }
        Ok(IntBox::new(lo, hi))
    }

    /// A Data Object's shape: `nvars` in `1..=4096`, `nghost` in `0..=16`.
    pub fn shape(&mut self) -> Result<(usize, i64)> {
        let (nvars, nghost) = (self.index()?, self.i64()?);
        if nvars == 0 || nvars > 1 << 12 || !(0..=16).contains(&nghost) {
            return Err(Corrupt(format!("nvars {nvars}, nghost {nghost}")));
        }
        Ok((nvars, nghost))
    }

    /// A container header written by [`put_header`], which must match.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> Result<()> {
        let (m, v) = (self.array::<4>()?, self.array().map(u32::from_le_bytes)?);
        if &m != magic || v != version {
            return Err(BadHeader(format!(
                "magic {m:?} version {v}, want {magic:?} version {version}"
            )));
        }
        Ok(())
    }

    /// The named-blob list written by [`put_parts`]: at most 2¹⁶ parts,
    /// names to 1 MiB, blobs to 4 GiB, every blob checksum verified.
    pub fn parts(&mut self) -> Result<Vec<(String, Vec<u8>)>> {
        let n = self.count(1 << 16, 24, "parts")?;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            let name = self.string("part name")?;
            let blob = self.checked_bytes(1 << 32, &format!("part '{name}'"))?;
            parts.push((name, blob.to_vec()));
        }
        Ok(parts)
    }

    /// End of input: bytes left after `what` are an error.
    pub fn finish(self, what: &str) -> Result<()> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(Corrupt(format!("{n} trailing bytes after {what}"))),
        }
    }
}

/// Replicated hierarchy metadata as saved: enough to rebuild the exact
/// [`Hierarchy`], including the id counter. On the wire (the *hierarchy
/// block*): `domain0 box, origin f64×2, dx0 f64×2, ratio i64, next-id
/// watermark u64, n_levels u64, per level: n_patches u64, per patch:
/// id u64, box`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavedHierarchy {
    /// Level-0 domain in index space.
    pub domain0: IntBox,
    /// Physical origin (bit patterns, so equality is exact).
    pub origin: [u64; 2],
    /// Level-0 cell sizes (bit patterns).
    pub dx0: [u64; 2],
    /// Refinement ratio.
    pub ratio: i64,
    /// The exact next-patch-id watermark at checkpoint time (see
    /// [`Hierarchy::next_id_watermark`]) — restoring `max(id) + 1`
    /// instead would let post-restart regrids issue different fresh ids
    /// and silently break bit-identical restart.
    pub next_id: usize,
    /// Per level, per patch: `(id, interior)`. Owners are deliberately
    /// NOT part of the block — an elastic restore replays the LPT
    /// assignment at the new rank count, so two cohorts of different
    /// sizes write byte-identical manifests for the same physical state.
    pub patches: Vec<Vec<(usize, IntBox)>>,
}

impl SavedHierarchy {
    /// Capture the replicated metadata of a live hierarchy.
    pub fn capture(hier: &Hierarchy) -> Self {
        SavedHierarchy {
            domain0: hier.domain0,
            origin: hier.origin.map(f64::to_bits),
            dx0: hier.dx0.map(f64::to_bits),
            ratio: hier.ratio,
            next_id: hier.next_id_watermark(),
            patches: hier
                .levels
                .iter()
                .map(|l| l.patches.iter().map(|p| (p.id, p.interior)).collect())
                .collect(),
        }
    }

    /// Rebuild the exact hierarchy, id watermark included; every patch is
    /// owned by rank 0 until the caller assigns owners.
    pub fn rebuild(&self) -> Hierarchy {
        let mut hier = Hierarchy::new(
            self.domain0,
            self.origin.map(f64::from_bits),
            self.dx0.map(f64::from_bits),
            self.ratio,
        );
        hier.levels.clear();
        for saved in &self.patches {
            let patches = saved.iter().map(|&(id, interior)| Patch {
                id,
                interior,
                owner: 0,
            });
            hier.levels.push(Level {
                patches: patches.collect(),
            });
        }
        hier.reserve_ids(self.next_id);
        hier
    }

    /// All `(level, id, interior)` triples in `(level, id)` order.
    pub fn sorted_patches(&self) -> Vec<(usize, usize, IntBox)> {
        let mut out: Vec<_> = self
            .patches
            .iter()
            .enumerate()
            .flat_map(|(level, saved)| saved.iter().map(move |&(id, b)| (level, id, b)))
            .collect();
        out.sort_unstable_by_key(|&(level, id, _)| (level, id));
        out
    }

    /// Append the hierarchy block.
    pub fn put(&self, out: &mut Vec<u8>) {
        put_box(out, &self.domain0);
        for bits in self.origin.into_iter().chain(self.dx0) {
            put_u64(out, bits);
        }
        put_i64(out, self.ratio);
        put_u64(out, self.next_id as u64);
        put_u64(out, self.patches.len() as u64);
        for level in &self.patches {
            put_u64(out, level.len() as u64);
            for (id, interior) in level {
                put_u64(out, *id as u64);
                put_box(out, interior);
            }
        }
    }

    /// Read the hierarchy block: ratio in `2..=16`, 1 to 64 levels, at
    /// most 2²⁴ patches a level.
    pub fn get(r: &mut Reader) -> Result<Self> {
        let mut saved = SavedHierarchy {
            domain0: r.boxx()?,
            origin: [r.u64()?, r.u64()?],
            dx0: [r.u64()?, r.u64()?],
            ratio: r.i64()?,
            next_id: r.index()?,
            patches: Vec::new(),
        };
        if !(2..=16).contains(&saved.ratio) {
            return Err(Corrupt(format!("ratio {}", saved.ratio)));
        }
        let n_levels = r.count(64, 8, "levels")?;
        if n_levels == 0 {
            return Err(Corrupt("0 levels".into()));
        }
        for _ in 0..n_levels {
            let n = r.count(1 << 24, 40, "patches")?;
            let mut level = Vec::with_capacity(n);
            for _ in 0..n {
                level.push((r.index()?, r.boxx()?));
            }
            saved.patches.push(level);
        }
        Ok(saved)
    }
}
