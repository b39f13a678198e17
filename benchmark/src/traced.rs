//! The traced pass of one workload: where the per-layer metrics come from.
//!
//! Three sources, all outside the program under test:
//!
//! * **spans** recorded by the timing proxies spliced onto the CCA ports of
//!   the workload's assembly (one proxied rep, plus an untraced rep beside
//!   it for the overhead of tracing itself);
//! * **whole-application ratios and exact counters** that need a second
//!   configuration of an application (P = 1 beside P = 2, one worker
//!   beside two, component path beside direct path);
//! * the **probes** of [`crate::probes`].
//!
//! Every per-layer metric is reported by every traced run; a span metric
//! of a workload that has no such span reads 0.

use crate::metrics::{Measured, PER_LAYER};
use crate::probes::{self, Sampling};
use crate::proxy;
use crate::runner::{check_reps, Check, RunOptions, RunReport};
use crate::span::{self, sum_rows, Recording};
use crate::sysinfo::{self, HostFingerprint};
use crate::workloads::{
    ignition_cells_component, ignition_cells_direct, RepOutput, Wiring, Workload,
};
use std::time::Instant;

/// Span-name suffix ↔ built-in profiler timer that brackets the same
/// call: on a rep run with both switched on, the counts must be equal.
const PROFILER_TWINS: [(&str, &str); 8] = [
    ("rkc.time-integrator.advance", "ExplicitIntegrator.advance"),
    (
        "rk2.time-integrator.advance",
        "ExplicitIntegratorRK2.advance",
    ),
    (
        "implicit.chemistry-advance.advance_chemistry",
        "ImplicitIntegrator.chemistry-advance",
    ),
    ("diffusion.patch-rhs.eval", "DiffusionPhysics.patch-rhs"),
    ("inviscid.patch-rhs.eval", "InviscidFlux.patch-rhs"),
    ("regrid.regrid.estimate_and_regrid", "GrACEComponent.regrid"),
    ("ic.ic.apply", "InitialCondition.ic"),
    ("ic.ic.apply", "ConicalInterfaceIC.ic"),
];

/// Interleaved component/direct rounds behind `component_over_direct`.
const RATIO_ROUNDS: usize = 3;

struct Timed {
    out: RepOutput,
    wall: f64,
    cpu: f64,
}

fn timed(run: impl FnOnce() -> RepOutput) -> Timed {
    let cpu0 = sysinfo::process_cpu_seconds();
    let t0 = Instant::now();
    let out = run();
    Timed {
        out,
        wall: t0.elapsed().as_secs_f64(),
        cpu: sysinfo::process_cpu_seconds() - cpu0,
    }
}

/// The traced pass.
pub fn run_traced(opts: &RunOptions) -> Result<RunReport, String> {
    let host = HostFingerprint::read();
    let sampling = if opts.smoke {
        Sampling::SMOKE
    } else {
        Sampling::FULL
    };
    let workload = Workload::generate(&opts.workload, opts.seed, opts.smoke)?;
    let mut report = RunReport::default();
    let mut values: Vec<Measured> = Vec::new();
    let mut reps: Vec<RepOutput> = Vec::new();

    // --- the workload's own assembly, with and without the proxies ------
    let span_source = if let Some((mut fw, script)) = workload.assembly() {
        proxy::register(&mut fw);
        let proxied = proxy::interpose(&script);
        let lint = cca_analyze::lint(&fw, &proxied);
        report.checks.push(Check::new(
            "proxied assembly is analyzer-clean",
            lint.is_ok(),
            lint.err().map_or_else(
                || {
                    format!(
                        "{} proxies",
                        proxied.matches("instantiate BenchProxy.").count()
                    )
                },
                |e| e.to_string(),
            ),
        ));
        drop(fw);

        // Cold rep: proxies and the built-in profiler both on, so their
        // call counts can be held against each other. Its time is unused.
        span::start();
        let profiled = workload.rep(Wiring::Proxied, true);
        let counted = span::stop();
        report
            .checks
            .push(profiler_cross_check(&counted, &profiled));

        let reference = timed(|| workload.rep(Wiring::Plain, false));
        span::start();
        let traced = timed(|| workload.rep(Wiring::Proxied, false));
        let recording = span::stop();
        report.checks.push(Check::new(
            "proxied run is bit-identical to the un-proxied run",
            traced.out.digest == reference.out.digest && profiled.digest == reference.out.digest,
            format!(
                "digests {:016x} (plain) {:016x} (proxied) {:016x} (proxied + profiler)",
                reference.out.digest, traced.out.digest, profiled.digest
            ),
        ));
        export_trace(&opts.workload, &recording, traced.wall, &mut report.notes);
        report.counts = traced.out.counts.clone();
        let (ref_wall, traced_wall) = (reference.wall, traced.wall);
        reps.extend([profiled, reference.out, traced.out]);
        Some((recording, ref_wall, traced_wall))
    } else {
        None
    };
    span_metrics(span_source.as_ref(), &mut values, &mut report.notes);

    // --- whole-application ratios and exact counters -----------------------
    // Each is taken on the workload that owns it, generated from this run's
    // seed; when that is the workload being traced, its reps are checked
    // with the others.
    let own = |name: &str| -> Result<Workload, String> {
        if name == opts.workload {
            Ok(workload.clone())
        } else {
            Workload::generate(name, opts.seed, opts.smoke)
        }
    };

    // Distributed SAMR at P = 1 beside P = 2.
    let Workload::Dist(dist_cfg) = own("dist_samr_p2")? else {
        unreachable!("dist_samr_p2 generates a Dist workload")
    };
    let p2 = timed(|| Workload::Dist(dist_cfg).rep(Wiring::Plain, false));
    let p1_cfg = cca_apps::samr::SamrConfig {
        ranks: 1,
        ..dist_cfg
    };
    let p1 = timed(|| Workload::Dist(p1_cfg).rep(Wiring::Plain, false));
    let scalar = |out: &RepOutput, name: &str| out.scalar(name).unwrap_or(f64::NAN);
    report.checks.push(Check::new(
        "dist: P = 2 checksum bits = P = 1 checksum bits",
        scalar(&p2.out, "checksum").to_bits() == scalar(&p1.out, "checksum").to_bits()
            && p1.out.problems.is_empty(),
        format!(
            "{:e} at P = 2, {:e} at P = 1",
            scalar(&p2.out, "checksum"),
            scalar(&p1.out, "checksum")
        ),
    ));
    values.push(Measured::single(
        "apps.samr_cpu_ratio_p2",
        "ratio",
        p2.cpu / p1.cpu,
    ));
    values.push(Measured::single(
        "apps.samr_speedup_p2",
        "ratio",
        p1.wall / p2.wall,
    ));
    for (metric, unit, count) in [
        ("comm.messages", "count", "messages"),
        ("comm.bytes", "bytes", "bytes"),
    ] {
        values.push(Measured::single(
            metric,
            unit,
            p2.out.count(count).unwrap_or(f64::NAN),
        ));
    }
    if matches!(workload, Workload::Dist(_)) {
        // P = 1 sends no messages, so its digest differs by design: only
        // the P = 2 rep joins the bit-identity set.
        report.counts = p2.out.counts.clone();
        reps.push(p2.out);
    }

    // The flame at one executor worker beside two.
    let flame = own("flame_samr")?;
    let one = timed(|| flame.rep_at(Wiring::Plain, false, 1));
    let two = timed(|| flame.rep_at(Wiring::Plain, false, 2));
    report.checks.push(Check::new(
        "flame: 1 worker and 2 workers give the same bits",
        one.out.digest == two.out.digest,
        format!("{:016x} vs {:016x}", one.out.digest, two.out.digest),
    ));
    values.push(Measured::single(
        "core.executor_speedup_2w",
        "ratio",
        one.wall / two.wall,
    ));
    report.notes.push(format!(
        "core.executor_speedup_2w: flame wall {:.4} s at 1 worker, {:.4} s at 2 (cpu {:.2} s, {:.2} s); nproc {}",
        one.wall, two.wall, one.cpu, two.cpu, host.nproc
    ));

    // The fleet's exact counters; on its own workload also 1 shard vs 2.
    let Workload::Fleet(fleet_cfg) = own("fleet_mixed")? else {
        unreachable!("fleet_mixed generates a Fleet workload")
    };
    let two_shards = Workload::Fleet(fleet_cfg).rep(Wiring::Plain, false);
    for name in [
        "cache_hit_ratio", "steals", "preemptions", "migrations", "rejections", "ticks",
    ] {
        let unit = if name == "cache_hit_ratio" {
            "ratio"
        } else {
            "count"
        };
        values.push(Measured::single(
            &format!("serve.{name}"),
            unit,
            two_shards.count(name).unwrap_or(f64::NAN),
        ));
    }
    if matches!(workload, Workload::Fleet(_)) {
        let one_shard = Workload::Fleet(cca_serve::loadgen::FleetLoadgenConfig {
            shards: 1,
            ..fleet_cfg
        })
        .rep(Wiring::Plain, false);
        // The hash travels as two exact 32-bit halves.
        let halves = |out: &RepOutput| {
            ["outcome_checksum_hi", "outcome_checksum_lo"].map(|h| out.scalar(h).map(f64::to_bits))
        };
        let (one, two) = (halves(&one_shard), halves(&two_shards));
        report.checks.push(Check::new(
            "fleet: outcome checksum equal at 1 and 2 shards",
            one == two && one.iter().all(Option::is_some) && one_shard.problems.is_empty(),
            format!("{one:x?} at 1 shard, {two:x?} at 2"),
        ));
        report.counts = two_shards.counts.clone();
        reps.push(two_shards);
    }

    // Table 4 as a ratio: component path and direct path, interleaved.
    let Workload::Ignition(mut cells) = own("ignition0d_cells")? else {
        unreachable!("ignition0d_cells generates an Ignition workload")
    };
    if !matches!(workload, Workload::Ignition(_)) {
        // Elsewhere a tenth of the cells is enough to place the ratio.
        cells.t0.truncate((cells.t0.len() / 10).max(50));
    }
    let mut ratios = Vec::new();
    for _ in 0..RATIO_ROUNDS {
        let t0 = Instant::now();
        let component = ignition_cells_component(&cells, Wiring::Plain)?;
        let component_wall = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let direct = ignition_cells_direct(&cells);
        ratios.push(component_wall / t1.elapsed().as_secs_f64());
        std::hint::black_box((component, direct));
    }
    values.push(Measured::median_of(
        "component_over_direct",
        "ratio",
        &ratios,
    ));
    report.notes.push(format!(
        "component_over_direct: {} cells per path, {RATIO_ROUNDS} interleaved rounds",
        cells.t0.len()
    ));

    // --- probes -----------------------------------------------------------
    probes::run_all(sampling, &host, &mut values, &mut report.notes);

    check_reps(&reps, &mut report);
    report.failed += report.checks.iter().filter(|c| !c.ok).count() as u64;
    // Registry order, and nothing missing: a metric the pass forgot is a
    // bug in the pass, not a zero.
    for layer in PER_LAYER {
        let measured = values
            .iter()
            .find(|m| m.name == layer.name)
            .ok_or_else(|| format!("the traced pass produced no value for {}", layer.name))?;
        report.metrics.push(measured.clone());
    }
    report.notes.push(format!(
        "host: nproc {}, {}, caches {}, {}",
        host.nproc, host.cpu_model, host.caches, host.rustc
    ));
    Ok(report)
}

/// Proxy call counts against `Profiler::stats()` calls of the scopes that
/// bracket the same port bodies, on the rep that recorded both.
fn profiler_cross_check(recording: &Recording, profiled: &RepOutput) -> Check {
    let rows = recording.rows();
    let mut compared = 0usize;
    let mut mismatches = Vec::new();
    for (suffix, timer) in PROFILER_TWINS {
        let spans: u64 = rows
            .iter()
            .filter(|r| r.name == suffix)
            .map(|r| r.calls)
            .sum();
        let Some((_, stat)) = profiled.profile.iter().find(|(n, _)| n == timer) else {
            continue;
        };
        // `ic.ic.apply` twins with whichever IC class the assembly uses.
        if spans == 0 {
            continue;
        }
        compared += 1;
        if spans != stat.calls {
            mismatches.push(format!(
                "{suffix}: {spans} spans vs {} {timer} calls",
                stat.calls
            ));
        }
    }
    Check::new(
        "proxy call counts = profiler call counts",
        mismatches.is_empty() && (compared > 0 || profiled.profile.is_empty()),
        if mismatches.is_empty() {
            format!("{compared} scopes compared")
        } else {
            mismatches.join("; ")
        },
    )
}

/// The span-derived metrics of one traced rep: `(recording, untraced wall,
/// traced wall)`. Without one, an empty recording over equal walls gives
/// what "nothing was traced" means: every span metric 0, no overhead, and
/// the whole wall outside any span.
fn span_metrics(
    source: Option<&(Recording, f64, f64)>,
    values: &mut Vec<Measured>,
    notes: &mut Vec<String>,
) {
    let nothing = (Recording::default(), 1.0, 1.0);
    let (recording, ref_wall, wall) = source.unwrap_or(&nothing);
    let rows = recording.rows();
    let total = |suffix: &str| sum_rows(&rows, suffix, |r| r.total_s);
    let own = |suffix: &str| sum_rows(&rows, suffix, |r| r.self_s);
    let calls = |suffix: &str| sum_rows(&rows, suffix, |r| r.calls as f64);
    let chem = total(".chemistry-advance.advance_chemistry");
    let regrid = total(".regrid.estimate_and_regrid");
    let patch_rhs = sum_rows(&rows, ".patch-rhs.eval", |r| r.covered_s);
    let integrator = own(".time-integrator.advance");
    let cell_integrations = calls(".integrator.integrate");
    let mut push = |name: &str, unit: &str, value: f64| {
        values.push(Measured::single(name, unit, value));
    };
    push("span.regrid_s", "s", regrid);
    push("span.chem_advance_s", "s", chem);
    push("span.integrator_self_s", "s", integrator);
    push("span.patch_rhs_s", "s", patch_rhs);
    push("span.patch_rhs_calls", "count", calls(".patch-rhs.eval"));
    push("span.eigen_s", "s", total(".eigen-estimate.estimate"));
    push("span.ic_s", "s", total(".ic.apply"));
    push(
        "span.driver_self_s",
        "s",
        own(".go.go") + own("bench.cells.sweep"),
    );
    push(
        "solvers.rkc_self_share",
        "ratio",
        own("rkc.time-integrator.advance") / wall,
    );
    push(
        "solvers.rk2_self_share",
        "ratio",
        own("rk2.time-integrator.advance") / wall,
    );
    push(
        "components.chem_advance_us_per_cell",
        "us/cell",
        if cell_integrations > 0.0 {
            1e6 * chem / cell_integrations
        } else {
            0.0
        },
    );
    push("trace.overhead_ratio", "ratio", wall / ref_wall);
    push(
        "trace.residual_ratio",
        "ratio",
        (wall - recording.root_covered_s()) / wall,
    );
    if source.is_some() {
        notes.push(format!(
            "trace: {} spans over {wall:.4} s traced wall ({ref_wall:.4} s untraced); shares of \
             traced wall: chemistry {:.1} %, patch-rhs {:.1} %, regrid {:.1} %, integrator self {:.1} %",
            recording.spans.len(),
            100.0 * chem / wall,
            100.0 * patch_rhs / wall,
            100.0 * regrid / wall,
            100.0 * integrator / wall,
        ));
    }
}

/// Write `out/trace-<workload>.json` (Chrome trace) and the text summary
/// beside it. A failure to write is reported, not fatal: the metrics do
/// not depend on the files.
fn export_trace(workload: &str, recording: &Recording, wall: f64, notes: &mut Vec<String>) {
    let dir = crate::out_dir();
    let json_path = dir.join(format!("trace-{workload}.json"));
    let text_path = dir.join(format!("trace-{workload}.txt"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&json_path, recording.chrome_trace().render()))
        .and_then(|()| std::fs::write(&text_path, recording.text_summary(wall)));
    match written {
        Ok(()) => notes.push(format!(
            "trace written to {} and {}",
            json_path.display(),
            text_path.display()
        )),
        Err(e) => notes.push(format!("trace not written to {}: {e}", dir.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;
    use cca_core::TimerStat;

    fn recording(names: &[&str], calls_each: u32) -> Recording {
        let mut spans = Vec::new();
        for (k, _) in names.iter().enumerate() {
            for c in 0..calls_each {
                let id = (k as u32) * calls_each + c + 1;
                spans.push(Span {
                    id,
                    parent: 0,
                    name: k as u32,
                    thread: 0,
                    start: u64::from(id) * 10,
                    end: u64::from(id) * 10 + 5,
                });
            }
        }
        Recording {
            spans,
            names: names.iter().map(|n| n.to_string()).collect(),
        }
    }

    fn profile(rows: &[(&str, u64)]) -> RepOutput {
        RepOutput {
            profile: rows
                .iter()
                .map(|(n, calls)| {
                    (
                        n.to_string(),
                        TimerStat {
                            calls: *calls,
                            ..TimerStat::default()
                        },
                    )
                })
                .collect(),
            ..RepOutput::default()
        }
    }

    #[test]
    fn equal_counts_pass_and_a_missed_call_fails() {
        let rec = recording(
            &["rk2.time-integrator.advance", "inviscid.patch-rhs.eval"],
            4,
        );
        let ok = profiler_cross_check(
            &rec,
            &profile(&[
                ("ExplicitIntegratorRK2.advance", 4),
                ("InviscidFlux.patch-rhs", 4),
            ]),
        );
        assert!(ok.ok, "{ok:?}");
        let off = profiler_cross_check(
            &rec,
            &profile(&[
                ("ExplicitIntegratorRK2.advance", 4),
                ("InviscidFlux.patch-rhs", 5),
            ]),
        );
        assert!(!off.ok && off.detail.contains("4 spans vs 5"), "{off:?}");
        // A profiled rep whose scopes match no span at all is not a pass.
        let none = profiler_cross_check(&recording(&["x"], 1), &profile(&[("y", 1)]));
        assert!(!none.ok);
    }

    #[test]
    fn span_metrics_read_zero_without_a_trace_and_sum_by_suffix_with_one() {
        let (mut values, mut notes) = (Vec::new(), Vec::new());
        span_metrics(None, &mut values, &mut notes);
        let get =
            |values: &[Measured], name: &str| values.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get(&values, "span.patch_rhs_calls"), 0.0);
        assert_eq!(get(&values, "trace.overhead_ratio"), 1.0);
        let rec = recording(&["diffusion.patch-rhs.eval", "driver.go.go"], 2);
        let mut values = Vec::new();
        span_metrics(Some(&(rec, 1.0e-7, 1.1e-7)), &mut values, &mut notes);
        assert_eq!(get(&values, "span.patch_rhs_calls"), 2.0);
        assert!((get(&values, "span.patch_rhs_s") - 10e-9).abs() < 1e-15);
        assert!((get(&values, "trace.overhead_ratio") - 1.1).abs() < 1e-12);
        assert!((get(&values, "span.driver_self_s") - 10e-9).abs() < 1e-15);
    }
}
