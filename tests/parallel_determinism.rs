//! Determinism and failure-containment guarantees of the patch-kernel
//! executor, exercised through the real application assemblies.
//!
//! The executor's contract (crates/core/src/executor.rs) is that results
//! are reassembled by submission index, each patch is owned by exactly
//! one worker, and the kernel route is taken at *any* worker count — so
//! the worker knob must never change the numbers. These tests pin that
//! down end-to-end: the flame assembly (chemistry + diffusion kernels)
//! and the shock assembly (Euler flux kernel under RK2) must be
//! bit-identical at 1 vs N workers, and a panicking kernel must poison
//! the run without hanging or losing patches.

use cca_hydro::apps::reaction_diffusion::{rd_framework, rd_script, RdConfig, RdReport};
use cca_hydro::apps::shock_interface::{shock_framework, shock_script, ShockConfig, ShockReport};
use cca_hydro::components::ports::ChemistryAdvancePort;
use cca_hydro::core::script::run_script;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Run the flame assembly; returns its report plus the BDF step total of
/// one further chemistry half-step on the final hierarchy (the return
/// value of `advance_chemistry`, which the report does not carry).
fn run_flame(workers: usize, cfg: &RdConfig) -> (RdReport, usize) {
    let mut fw = rd_framework();
    fw.set_workers(workers);
    run_script(&mut fw, &rd_script(cfg)).unwrap();
    let report: Rc<RefCell<RdReport>> = fw.get_provides_port("driver", "report").unwrap();
    let report = report.borrow().clone();
    let adv: Rc<dyn ChemistryAdvancePort> = fw
        .get_provides_port("implicit", "chemistry-advance")
        .unwrap();
    let steps = adv
        .advance_chemistry("state", 0.5 * cfg.dt, 101_325.0)
        .unwrap();
    (report, steps)
}

/// Cells per work item of the chemistry sweep (`BATCH_CELLS`, private to
/// `cca_components::adaptors`).
const BATCH_CELLS: i64 = 32;

/// Sweep-order offsets at which the chemistry sweep crosses from one
/// patch to the next: level 0 is a single patch minus what level 1
/// covers; level-1 patches are the finest, so none of their cells is
/// covered.
fn patch_boundary_offsets(report: &RdReport, ratio: i64) -> Vec<i64> {
    let fine_cells = report.cells_per_level.get(1).copied().unwrap_or(0);
    let mut offset = report.cells_per_level[0] - fine_cells / (ratio * ratio);
    let mut offsets = vec![offset];
    for (_, lo, hi) in report.final_patches.iter().filter(|p| p.0 == 1) {
        offset += (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1);
        offsets.push(offset);
    }
    offsets
}

fn run_shock(workers: usize, cfg: &ShockConfig) -> ShockReport {
    let mut fw = shock_framework();
    fw.set_workers(workers);
    run_script(&mut fw, &shock_script(cfg)).unwrap();
    let report: Rc<RefCell<ShockReport>> = fw.get_provides_port("driver", "report").unwrap();
    let report = report.borrow().clone();
    report
}

/// Chemistry (ImplicitIntegrator cell sweep) and diffusion (RKC patch
/// RHS) both run on `Send + Sync` kernel snapshots at every worker count,
/// so a parallel flame run must reproduce the serial fields bit for bit.
#[test]
fn flame_fields_bit_identical_across_worker_counts() {
    let base = RdConfig {
        nx: 16,
        dt: 5.0e-7,
        n_steps: 2,
        max_levels: 2,
        threshold: 50.0,
        ..RdConfig::default()
    };
    let straddling = RdConfig {
        nx: 20,
        threshold: 40.0,
        n_steps: 1,
        ..base
    };
    for (cfg, straddles) in [(base, false), (straddling, true)] {
        let (serial, serial_steps) = run_flame(1, &cfg);
        // AMR must have produced more than one patch, or the test proves
        // nothing about concurrent execution.
        assert!(
            serial.final_patches.len() > 1,
            "want a multi-patch hierarchy, got {:?}",
            serial.final_patches
        );
        if straddles {
            // ... and here no patch or level boundary may coincide with a
            // batch boundary: every batch edge case (a batch spanning two
            // levels, two patches, a short last batch) is on the path.
            let offsets = patch_boundary_offsets(&serial, cfg.ratio);
            assert!(
                offsets.len() > 2 && offsets.iter().all(|o| o % BATCH_CELLS != 0),
                "want straddling batches, got patch boundaries at {offsets:?}"
            );
        }
        for workers in [2, 3, 4] {
            let (par, par_steps) = run_flame(workers, &cfg);
            assert_eq!(serial_steps, par_steps, "BDF steps w={workers}");
            assert_eq!(serial.final_patches, par.final_patches, "w={workers}");
            assert_eq!(
                serial.final_t_field.len(),
                par.final_t_field.len(),
                "w={workers}"
            );
            for (s, p) in serial.final_t_field.iter().zip(&par.final_t_field) {
                assert_eq!(
                    s.2.to_bits(),
                    p.2.to_bits(),
                    "T at {:?} w={workers}",
                    (s.0, s.1)
                );
            }
            for (s, p) in serial.t_max_series.iter().zip(&par.t_max_series) {
                assert_eq!(s.1.to_bits(), p.1.to_bits(), "Tmax series w={workers}");
            }
            for (s, p) in serial.h2o2_max_series.iter().zip(&par.h2o2_max_series) {
                assert_eq!(s.1.to_bits(), p.1.to_bits(), "H2O2 series w={workers}");
            }
        }
    }
}

/// The unit of chemistry scheduling is a batch of cells, not a patch: a
/// one-level hierarchy (a single patch) still keeps both workers busy.
#[test]
fn single_patch_chemistry_sweep_uses_every_worker() {
    let cfg = RdConfig {
        nx: 16,
        dt: 5.0e-7,
        n_steps: 1,
        max_levels: 1,
        ..RdConfig::default()
    };
    let mut fw = rd_framework();
    fw.set_workers(2);
    fw.profiler().set_enabled(true);
    run_script(&mut fw, &rd_script(&cfg)).unwrap();
    let profiler = fw.profiler();
    // Two half-steps of 16² cells in batches of 32: one timer call each.
    let sweep = profiler.stat("ImplicitIntegrator.cell-sweep").unwrap();
    assert_eq!(sweep.calls as i64, 2 * (16 * 16) / BATCH_CELLS);
    for worker in [
        "ImplicitIntegrator.cell-sweep[w0]",
        "ImplicitIntegrator.cell-sweep[w1]",
    ] {
        assert!(profiler.stat(worker).is_some(), "no {worker} row");
    }
    // Every other run of this assembly carries one item (the patch).
    let stats = fw.executor().stats();
    assert_eq!(stats.items, stats.runs - 2 + sweep.calls);
}

/// The Euler flux kernel snapshots the States limiter and γ per RHS
/// evaluation, every patch runs the one MUSCL sweep on whichever worker
/// takes it, and patches come back in submission order: the shock run is
/// bit-identical at every worker count.
#[test]
fn shock_fields_match_across_worker_counts() {
    let cfg = ShockConfig {
        nx: 24,
        ny: 12,
        max_levels: 2,
        t_end_over_tau: 0.2,
        ..ShockConfig::default()
    };
    let serial = run_shock(1, &cfg);
    assert!(serial.steps > 0);
    for workers in [2, 4] {
        let par = run_shock(workers, &cfg);
        assert_eq!(serial.steps, par.steps, "w={workers}");
        assert_eq!(serial.final_patches, par.final_patches, "w={workers}");
        assert_eq!(serial.final_density.len(), par.final_density.len());
        for (s, p) in serial.final_density.iter().zip(&par.final_density) {
            assert_eq!((s.0, s.1), (p.0, p.1), "w={workers}");
            assert_eq!(s.2.to_bits(), p.2.to_bits(), "w={workers}: rho at {s:?}");
        }
        assert_eq!(
            serial.circulation_series.len(),
            par.circulation_series.len()
        );
        for (s, p) in serial
            .circulation_series
            .iter()
            .zip(&par.circulation_series)
        {
            assert_eq!(
                s.1.to_bits(),
                p.1.to_bits(),
                "w={workers}: circulation {s:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A kernel that panics on an arbitrary subset of patches, at an
    /// arbitrary worker count, must (a) return — no hang, (b) hand every
    /// patch back, (c) report exactly the panicked indices, sorted, and
    /// (d) leave the non-panicked patches fully updated.
    #[test]
    fn panicking_kernels_poison_without_losing_patches(
        workers in 1usize..5,
        n_items in 1usize..40,
        seed in 0usize..1000,
    ) {
        let seed = seed as u64;
        let executor = cca_hydro::core::Executor::new(cca_hydro::core::Profiler::new());
        executor.set_workers(workers);
        // Deterministic pseudo-random panic mask from the seed.
        let panics: Vec<bool> = (0..n_items)
            .map(|i| {
                let h = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add((i as u64).wrapping_mul(1442695040888963407));
                h.is_multiple_of(5)
            })
            .collect();
        let mask = panics.clone();
        let items: Vec<i64> = (0..n_items as i64).collect();
        let report = executor.run("prop", items, move |_w, it| {
            if mask[*it as usize] {
                panic!("injected panic at {it}");
            }
            *it += 10_000;
        });
        prop_assert_eq!(report.items.len(), n_items, "no lost patches");
        let expect: Vec<usize> = panics
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(i))
            .collect();
        let got: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(report.poisoned(), !expect.is_empty());
        for (i, it) in report.items.iter().enumerate() {
            if !panics[i] {
                prop_assert_eq!(*it, i as i64 + 10_000, "surviving patch updated");
            }
        }
        if report.poisoned() {
            let err = report.into_result().unwrap_err();
            prop_assert!(err.contains("poisoned"), "{}", err);
        }
    }
}
