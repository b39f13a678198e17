//! Property tests of the checkpoint-set layer: serialization is a
//! bit-exact roundtrip for *arbitrary* two-level hierarchies and field
//! values, a cohort of any size P can snapshot while a cohort of any
//! other size P' restores the identical bits, and every decoder of the
//! workspace's four byte formats (plus the handoff ticket) answers
//! hostile bytes with a typed error — never a panic, never an allocation
//! sized by what the input declares instead of what it carries.

use std::collections::BTreeMap;
use std::sync::Arc;

use cca_analyze::distplan::PlanBuilder;
use cca_ckpt::{
    fnv1a64, restore, snapshot, CheckpointSet, CkptError, CkptMeta, ComponentSet, HandoffTicket,
    Shard, FNV1A_INIT,
};
use cca_comm::{scmd, ClusterModel};
use cca_mesh::boxes::IntBox;
use cca_mesh::checkpoint::{patch_from_bytes, patch_to_bytes, read_checkpoint, write_checkpoint};
use cca_mesh::data::DataObject;
use cca_mesh::dist::DistributedHierarchy;
use cca_mesh::hierarchy::{Hierarchy, Patch};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const NVARS: usize = 2;
const NGHOST: i64 = 1;

fn work(_: &Hierarchy, _: usize, p: &Patch) -> f64 {
    p.interior.count() as f64
}

/// Candidate fine boxes (level-1 index space), each nested in the 16×16
/// level-0 domain; `mask` selects a disjoint subset.
const FINE: [([i64; 2], [i64; 2]); 4] = [
    ([2, 2], [9, 7]),
    ([14, 2], [21, 9]),
    ([4, 16], [13, 23]),
    ([20, 18], [29, 27]),
];

/// An arbitrary two-level hierarchy: four level-0 tiles, a mask-selected
/// subset of fine patches, and a watermark bump as after regrid churn.
fn hier_for(mask: usize, bump: usize) -> Hierarchy {
    let mut h = Hierarchy::new(IntBox::sized(16, 16), [0.0, 0.0], [0.5; 2], 2);
    h.set_level_boxes(
        0,
        &[
            IntBox::new([0, 0], [7, 7]),
            IntBox::new([8, 0], [15, 7]),
            IntBox::new([0, 8], [7, 15]),
            IntBox::new([8, 8], [15, 15]),
        ],
    );
    let boxes: Vec<IntBox> = FINE
        .iter()
        .enumerate()
        .filter(|(k, _)| mask & (1 << k) != 0)
        .map(|(_, &(lo, hi))| IntBox::new(lo, hi))
        .collect();
    h.set_level_boxes(1, &boxes);
    h.reserve_ids(h.next_id_watermark() + bump);
    h
}

/// Deterministic per-cell value: a pure function of identity and seed.
fn cell_value(seed: u32, level: usize, id: usize, var: usize, i: i64, j: i64) -> f64 {
    let h = seed as f64 + 31.0 * id as f64 + 7.0 * var as f64 + 131.0 * level as f64;
    (h + 0.001 * (i * 37 + j * 101) as f64) * 1.000_000_1
}

/// Every patch stored and seeded locally: the ground truth.
fn reference(hier: &Hierarchy, seed: u32) -> DataObject {
    let mut dobj = DataObject::new(NVARS, NGHOST);
    for (level, l) in hier.levels.iter().enumerate() {
        for p in &l.patches {
            dobj.allocate(level, p.id, p.interior);
            let pd = dobj.patch_mut(level, p.id).unwrap();
            for (i, j) in pd.total_box().cells() {
                for v in 0..NVARS {
                    pd.set(v, i, j, cell_value(seed, level, p.id, v, i, j));
                }
            }
        }
    }
    dobj
}

fn meta(seed: u32) -> CkptMeta {
    CkptMeta {
        step: 3,
        config_hash: seed as u64 ^ 0xc0ff_ee00,
        nvars: NVARS,
        nghost: NGHOST,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// to_bytes/from_bytes is byte-stable and bit-exact for arbitrary
    /// two-level hierarchies, field values, and watermarks.
    #[test]
    fn set_serialization_roundtrips_bit_exactly(
        mask in 0usize..16,
        bump in 0usize..5,
        seed in 0usize..10_000,
    ) {
        let seed = seed as u32;
        let hier = hier_for(mask, bump);
        let dobj = reference(&hier, seed);
        let parts = vec![("driver".to_string(), seed.to_le_bytes().to_vec())];
        let set = CheckpointSet::from_local(7, meta(seed), &hier, &dobj, parts).unwrap();
        let bytes = set.to_bytes();
        prop_assert_eq!(&bytes, &set.to_bytes());
        let back = CheckpointSet::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.to_bytes(), bytes);
        let (rh, rd) = back.restore_local().unwrap();
        prop_assert_eq!(rh.next_id_watermark(), hier.next_id_watermark());
        for (level, l) in hier.levels.iter().enumerate() {
            for p in &l.patches {
                let got = rd.patch(level, p.id).unwrap();
                let want = dobj.patch(level, p.id).unwrap();
                let (a, b) = (got.pack(&got.total_box()), want.pack(&want.total_box()));
                prop_assert_eq!(a.len(), b.len());
                prop_assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    /// A snapshot written by P ranks restores bit-exactly on P' ranks,
    /// for random cohort sizes and hierarchies.
    #[test]
    fn p_to_p_prime_restart_is_bit_exact(
        mask in 0usize..16,
        seed in 0usize..10_000,
        p in 1usize..7,
        p_prime in 1usize..7,
    ) {
        let seed = seed as u32;
        let mut dh = DistributedHierarchy::new(hier_for(mask, 2), p);
        dh.assign_owners(work, 1.5);
        let expect = reference(&dh.hier, seed);
        let dh = Arc::new(dh);
        // P-rank cohort takes one coordinated snapshot.
        let results = scmd::run(p, ClusterModel::zero(), {
            let dh = Arc::clone(&dh);
            move |comm| {
                let mut dobj = DataObject::new(NVARS, NGHOST);
                dh.allocate_owned(&mut dobj, comm.rank());
                for (level, l) in dh.hier.levels.iter().enumerate() {
                    for patch in &l.patches {
                        if patch.owner == comm.rank() {
                            let pd = dobj.patch_mut(level, patch.id).unwrap();
                            for (i, j) in pd.total_box().cells() {
                                for v in 0..NVARS {
                                    pd.set(v, i, j, cell_value(seed, level, patch.id, v, i, j));
                                }
                            }
                        }
                    }
                }
                let mut plan = PlanBuilder::new(comm.size());
                snapshot(comm, &mut plan, &dh, &dobj, meta(seed), 1, Vec::new(), None)
                    .map(|s| s.to_bytes())
            }
        });
        let bytes = results[0].clone().expect("rank 0 holds the set");
        let set = Arc::new(CheckpointSet::from_bytes(&bytes).unwrap());
        // P'-rank cohort restores and reports every owned patch's bits.
        let out = scmd::run(p_prime, ClusterModel::zero(), {
            let set = Arc::clone(&set);
            move |comm| {
                let mut plan = PlanBuilder::new(comm.size());
                let (dh, dobj) = restore(comm, &mut plan, &set, comm.size(), work, 1.5);
                let mut owned = Vec::new();
                for (level, l) in dh.hier.levels.iter().enumerate() {
                    for patch in &l.patches {
                        if patch.owner == comm.rank() {
                            let pd = dobj.patch(level, patch.id).unwrap();
                            owned.push((level, patch.id, pd.pack(&pd.total_box())));
                        }
                    }
                }
                owned
            }
        });
        let mut seen = 0usize;
        for (level, id, data) in out.into_iter().flatten() {
            let rp = expect.patch(level, id).unwrap();
            let want = rp.pack(&rp.total_box());
            prop_assert_eq!(data.len(), want.len());
            prop_assert!(
                data.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                "patch ({},{}) diverged for P={} -> P'={}", level, id, p, p_prime
            );
            seen += 1;
        }
        let total: usize = dh.hier.levels.iter().map(|l| l.patches.len()).sum();
        prop_assert_eq!(seen, total);
    }
}

// --- hostile input ---------------------------------------------------------

mod peak {
    //! The largest single allocation the current thread has requested —
    //! the only way to observe "a decoder never allocates what its input
    //! merely declares" from a test, and the one place this workspace
    //! needs `unsafe`: a `GlobalAlloc` impl cannot be written without it.
    #![allow(unsafe_code)]
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        // A thread being torn down has no counter left to update.
        let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    }

    pub struct Tracking;

    // SAFETY: every method hands its arguments unchanged to `System`, so
    // `System`'s own upholding of the `GlobalAlloc` contract carries over;
    // `note` touches a const-initialized thread-local `Cell` only and
    // never allocates or unwinds.
    unsafe impl GlobalAlloc for Tracking {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller's `layout` obligations are passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: as for `alloc`.
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: `ptr` came from this allocator, i.e. from `System`,
            // with `layout`; the caller guarantees the rest.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    /// Run `f`; return its result and the largest single allocation it
    /// requested on this thread.
    pub fn of<T>(f: impl FnOnce() -> T) -> (T, usize) {
        PEAK.with(|p| p.set(0));
        let out = f();
        (out, PEAK.with(Cell::get))
    }
}

#[global_allocator]
static ALLOC: peak::Tracking = peak::Tracking;

type Decode = Box<dyn Fn(&[u8]) -> Result<(), CkptError>>;

/// One byte format under test.
struct Format {
    name: &'static str,
    /// A valid encoding.
    bytes: Vec<u8>,
    decode: Decode,
    /// The trailing FNV-1a covers `bytes[from..len − 8]`; `None` for the
    /// unsealed stream, whose only checksums are its records' own.
    sealed_from: Option<usize>,
    /// Must a cut input report `Truncated` (unsealed framing), or may the
    /// trailer checksum speak first?
    cut_is_truncated: bool,
    /// Does a re-sealed single-byte change still have to fail? (Only the
    /// ticket, which pins the exact bytes.)
    pins_bytes: bool,
    /// Every declared count or length: `(offset, value it holds)`.
    counts: Vec<(usize, u64)>,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn formats(mask: usize, seed: u32) -> Vec<Format> {
    let hier = hier_for(mask, 2);
    let dobj = reference(&hier, seed);
    let k = hier.levels[1].patches.len();
    let n_patches = 4 + k as u64;

    let stream = write_checkpoint(
        &hier,
        &BTreeMap::from([("state".to_string(), dobj.clone())]),
    );
    let (level, id, pd) = dobj.patches().next().unwrap();
    let mut record = Vec::new();
    patch_to_bytes(level, id, pd, &mut record);
    let parts = vec![("driver".to_string(), (0u8..16).collect::<Vec<u8>>())];
    let set = CheckpointSet::from_local(7, meta(seed), &hier, &dobj, parts).unwrap();
    let records_len = set.shards[0].records.len() as u64;
    let component = ComponentSet {
        config_hash: seed as u64,
        steps_done: 6,
        parts: vec![
            ("grace".into(), stream.clone()),
            ("integrator".into(), vec![]),
        ],
    }
    .to_bytes();
    let ticket = HandoffTicket::seal(0, 1, &component).unwrap();
    // n_parts, the first part's name length, its blob length.
    let component_counts = vec![(24, 2), (32, 5), (45, stream.len() as u64)];

    // Offsets follow the layouts in DESIGN.md §12: an 8-byte header, an
    // 80-byte hierarchy preamble, 40 bytes a patch, 8-byte counts.
    let (s, c) = (48 * k, 40 * k);
    vec![
        Format {
            name: "CCAH stream",
            decode: Box::new(|b| read_checkpoint(b).map(|_| ())),
            sealed_from: None,
            cut_is_truncated: true,
            pins_bytes: false,
            counts: vec![
                (88, 2),                        // n_levels
                (96, 4),                        // n_patches, level 0
                (264, k as u64),                // n_patches, level 1
                (304 + s, 1),                   // n_objects
                (312 + s, 5),                   // name length
                (341 + s, n_patches),           // n_records
                (349 + s, record.len() as u64), // first record's length
            ],
            bytes: stream.clone(),
        },
        Format {
            name: "patch record",
            decode: Box::new(|mut b| patch_from_bytes(&mut b, NVARS, NGHOST).map(|_| ())),
            sealed_from: Some(8),
            cut_is_truncated: true,
            pins_bytes: false,
            counts: vec![(0, record.len() as u64)],
            bytes: record,
        },
        Format {
            name: "CCKS set",
            decode: Box::new(|b| CheckpointSet::from_bytes(b).map(|_| ())),
            sealed_from: Some(0),
            cut_is_truncated: false,
            pins_bytes: false,
            counts: vec![
                (128, 2),               // n_levels
                (136, 4),               // n_patches, level 0
                (304, k as u64),        // n_patches, level 1
                (312 + c, 1),           // n_parts
                (320 + c, 6),           // part name length
                (334 + c, 16),          // part blob length
                (366 + c, 1),           // n_shards
                (382 + c, n_patches),   // n_records
                (390 + c, records_len), // shard length
            ],
            bytes: set.to_bytes(),
        },
        Format {
            name: "CCKC component set",
            decode: Box::new(|b| ComponentSet::from_bytes(b).map(|_| ())),
            sealed_from: Some(0),
            cut_is_truncated: false,
            pins_bytes: false,
            counts: component_counts.clone(),
            bytes: component.clone(),
        },
        Format {
            name: "handoff ticket",
            decode: Box::new(move |b| ticket.verify(b).map(|_| ())),
            sealed_from: Some(0),
            cut_is_truncated: false,
            pins_bytes: true,
            counts: component_counts,
            bytes: component,
        },
    ]
}

/// Recompute a sealed format's trailing checksum after an edit.
fn reseal(bytes: &mut [u8], from: usize) {
    let body = bytes.len() - 8;
    let sum = fnv1a64(FNV1A_INIT, &bytes[from..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Decode under the allocation meter. The allowance over the input's own
/// length covers row-pitch padding of restored patches (at most 1.6× for
/// these 10-cell rows), `Vec` bookkeeping wider than its wire form, and
/// error strings; a declared 2²⁴ patches or 4 GiB record is 10³–10⁶×
/// beyond it.
fn metered(f: &Format, input: &[u8]) -> Result<Result<(), CkptError>, TestCaseError> {
    let (out, peak) = peak::of(|| (f.decode)(input));
    prop_assert!(
        peak <= 2 * input.len() + 4096,
        "{}: a {}-byte input caused a {peak}-byte allocation",
        f.name,
        input.len()
    );
    Ok(out)
}

fn hostile_bytes_are_typed_errors(f: &Format) -> Result<(), TestCaseError> {
    let len = f.bytes.len();
    prop_assert!(metered(f, &f.bytes)?.is_ok(), "{}: own bytes", f.name);
    // Every prefix.
    for keep in 0..len {
        let out = metered(f, &f.bytes[..keep])?;
        let typed = match &out {
            Err(CkptError::Truncated(_)) => true,
            Err(_) => !f.cut_is_truncated,
            Ok(()) => false,
        };
        prop_assert!(typed, "{}: cut to {keep} of {len}: {out:?}", f.name);
    }
    // One flipped byte: everywhere in the metadata-dense head and tail,
    // sampled across the field data between them.
    let dense = |at: usize| at < 512 || at + 256 >= len || at.is_multiple_of(61);
    for at in (0..len).filter(|&at| dense(at)) {
        let mut bad = f.bytes.clone();
        bad[at] ^= 0x10;
        let stale = metered(f, &bad)?;
        if f.sealed_from.is_some() {
            prop_assert!(stale.is_err(), "{}: flip at {at} went unnoticed", f.name);
        }
        if let Some(from) = f.sealed_from {
            reseal(&mut bad, from);
            let resealed = metered(f, &bad)?;
            // (Re-sealing a flip inside the trailer restores the original.)
            prop_assert!(
                !f.pins_bytes || bad == f.bytes || resealed.is_err(),
                "{}: re-sealed flip at {at} passed",
                f.name
            );
        }
    }
    // Declared counts and lengths beyond the bytes carried.
    for &(at, holds) in &f.counts {
        prop_assert_eq!(
            u64_at(&f.bytes, at),
            holds,
            "{}: layout moved at {}",
            f.name,
            at
        );
        for declared in [len as u64 + 1, 1 << 24, 1 << 32, u64::MAX] {
            let mut bad = f.bytes.clone();
            bad[at..at + 8].copy_from_slice(&declared.to_le_bytes());
            if let Some(from) = f.sealed_from {
                reseal(&mut bad, from);
            }
            let out = metered(f, &bad)?;
            prop_assert!(out.is_err(), "{}: {declared} declared at {at}", f.name);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// All four decoders and `HandoffTicket::verify`, one property.
    #[test]
    fn hostile_input_is_a_typed_error_never_a_panic_or_a_declared_allocation(
        mask in 0usize..16,
        seed in 0usize..10_000,
    ) {
        for f in formats(mask, seed as u32) {
            hostile_bytes_are_typed_errors(&f)?;
        }
    }
}

/// Hand-built inputs the sweep above cannot reach by editing a valid
/// encoding: well-sealed records around impossible geometry.
#[test]
fn impossible_geometry_is_rejected_before_any_storage_exists() {
    use cca_mesh::wire::{put_box, put_f64s, put_header, put_u64, seal};
    let record_around = |interior: &IntBox, declared_len: u64| {
        let mut record = Vec::new();
        put_u64(&mut record, declared_len);
        put_u64(&mut record, 0); // level
        put_u64(&mut record, 7); // id
        put_box(&mut record, interior);
        put_f64s(&mut record, &[1.0]);
        seal(&mut record, 8);
        record
    };
    let rejected = |out: Result<(), CkptError>, why: &str| {
        let err = out.err().unwrap();
        assert!(matches!(err, CkptError::Corrupt(_)), "{why}: {err}");
        assert!(err.to_string().contains(why), "{why}: {err}");
    };
    // Boxes whose extent overflows i64, inside an intact record and as a
    // stream's level-0 domain.
    let all = IntBox::new([i64::MIN; 2], [i64::MAX; 2]);
    let far = IntBox::new([0, 0], [i64::MAX, i64::MAX]);
    for interior in [all, far] {
        let record = record_around(&interior, 72);
        let (out, peak) = peak::of(|| patch_from_bytes(&mut record.as_slice(), 1, 0));
        rejected(out.map(|_| ()), "overflows");
        let mut stream = Vec::new();
        put_header(&mut stream, b"CCAH", 2);
        put_box(&mut stream, &interior);
        rejected(read_checkpoint(&stream).map(|_| ()), "overflows");
        assert!(peak < 4096, "{peak}-byte allocation");
    }
    // An 8 TiB patch that carries one value: its honest length prefix is
    // implausible, a plausible one contradicts the geometry.
    let big = IntBox::new([0, 0], [(1 << 20) - 1, (1 << 20) - 1]);
    for (declared, why) in [(72 + (8u64 << 40) - 8, "length prefix"), (72, "geometry")] {
        let record = record_around(&big, declared);
        let (out, peak) = peak::of(|| patch_from_bytes(&mut record.as_slice(), 1, 0));
        rejected(out.map(|_| ()), why);
        assert!(peak < 4096, "{peak}-byte allocation");
    }
    // 16 bytes that declare the largest record accepted: the input runs
    // out, the declared 4 GiB is never allocated.
    let mut declared = Vec::new();
    put_u64(&mut declared, 1 << 32);
    put_u64(&mut declared, 0);
    let (out, peak) = peak::of(|| patch_from_bytes(&mut declared.as_slice(), 1, 0));
    assert!(matches!(out, Err(CkptError::Truncated(_))));
    assert!(peak < 4096, "{peak}-byte allocation");
}

/// `record_index` is callable on a set nobody validated (its fields are
/// public): it must terminate on any shard bytes.
#[test]
fn record_index_is_total_on_an_unvalidated_set() {
    let hier = hier_for(0b0011, 0);
    let dobj = reference(&hier, 1);
    let mut set = CheckpointSet::from_local(1, meta(1), &hier, &dobj, Vec::new()).unwrap();
    let n_patches = set.hier.sorted_patches().len();
    assert_eq!(set.record_index().len(), n_patches);
    // A zero length prefix used to pin the walk in place forever.
    set.shards.push(Shard {
        writer: 1,
        n_records: 1,
        records: vec![0; 24],
    });
    assert_eq!(set.record_index().len(), n_patches);
    assert!(set.validate().is_err());
}

/// The three layouts this change did not touch, byte for byte: FNV-1a and
/// length of fixed encodings, captured at the commit before the shared
/// wire layer existed.
#[test]
fn untouched_wire_layouts_are_pinned() {
    let hier = hier_for(0b0101, 3);
    let dobj = reference(&hier, 42);
    let parts = vec![("driver".to_string(), (0u8..16).collect::<Vec<u8>>())];
    let set = CheckpointSet::from_local(7, meta(42), &hier, &dobj, parts).unwrap();
    let component = ComponentSet {
        config_hash: 0xdead_beef_1234_5678,
        steps_done: 17,
        parts: vec![
            ("grace".into(), vec![1, 2, 3, 4, 5]),
            ("integrator".into(), vec![]),
        ],
    };
    let fine = &hier.levels[1].patches[0];
    let mut record = Vec::new();
    patch_to_bytes(1, fine.id, dobj.patch(1, fine.id).unwrap(), &mut record);
    for (what, bytes, len, sum) in [
        ("CCKS", set.to_bytes(), 10478, 0xc761_ed83_d0d7_0f5c_u64),
        ("CCKC", component.to_bytes(), 108, 0x0bab_afe0_7f45_832b),
        ("record", record, 1344, 0xef96_45a9_0f14_7bab),
    ] {
        assert_eq!(bytes.len(), len, "{what} changed size");
        assert_eq!(fnv1a64(FNV1A_INIT, &bytes), sum, "{what} changed bytes");
    }
}
