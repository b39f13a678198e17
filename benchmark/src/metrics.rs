//! The metric registry: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the regression bound, and for
//! per-layer metrics the end-to-end metric it is predicted to move.
//! `BENCHMARK.json` lists the same names; a unit test keeps the two equal.

use crate::json::Json;
use crate::stats::{median, percentile_nearest_rank, Summary};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported for every workload, tracing off.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over set-ups (fresh processes) of the wall from process start to the \
               first timed rep: input generation plus the cold rep",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.08,
        what: "median wall of the timed reps: time to solution at the stated size",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.08,
        what: "process CPU seconds (user + system, all threads) per timed rep: wall_s times the \
               median CPU/wall ratio of the reps",
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
        what: "the workload's deterministic work count W over wall_s",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the run's process when the run ends (fleet_mixed: median over its \
               one-rep processes)",
    },
];

/// A per-layer metric: reported by the traced pass, never gated.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `layer.what_unit`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric @ workload it should move; elsewhere the
    /// prediction is *no change*.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics, grouped by layer (= crate).
pub const PER_LAYER: [PerLayer; 69] = [
    layer("component_over_direct", "ratio", Lower, "wall_s @ ignition0d_cells (Table 4 as a ratio: component-path wall / direct-path wall, interleaved)"),
    layer("core.port_call_ns", "ns", Lower, "component_over_direct, wall_s @ ignition0d_cells"),
    layer("core.direct_call_ns", "ns", Lower, "baseline of core.port_call_ns; moves nothing by itself"),
    layer("core.assemble_us", "us", Lower, "work_per_s @ fleet_mixed; setup_s everywhere"),
    layer("core.executor_item_us_1w", "us", Lower, "wall_s @ flame_samr, shock_samr (per-patch dispatch, inline)"),
    layer("core.executor_item_us_2w", "us", Lower, "wall_s @ flame_samr (per-patch dispatch through the pool)"),
    layer("core.executor_speedup_2w", "ratio", Higher, "wall_s (not cpu_s) @ flame_samr"),
    layer("comm.pingpong_us_8B", "us", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("comm.pingpong_MBps_1MiB", "MB/s", Higher, "cpu_s, wall_s @ dist_samr_p2"),
    layer("comm.allreduce_us", "us", Lower, "wall_s @ dist_samr_p2"),
    layer("comm.barrier_us", "us", Lower, "wall_s @ dist_samr_p2"),
    layer("comm.messages", "count", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("comm.bytes", "bytes", Lower, "cpu_s, wall_s, peak_rss_mb @ dist_samr_p2"),
    layer("solvers.bdf_cell_us", "us", Lower, "wall_s @ ignition0d_cells"),
    layer("solvers.bdf_nfe", "count", Lower, "wall_s @ ignition0d_cells"),
    layer("solvers.bdf_restart_us", "us", Lower, "wall_s, cpu_s @ flame_samr"),
    layer("solvers.rkc_self_share", "ratio", Lower, "wall_s @ diffusion_uniform"),
    layer("solvers.rk2_self_share", "ratio", Lower, "wall_s @ shock_samr"),
    layer("chem.rates_ns_reduced", "ns", Lower, "wall_s @ ignition0d_cells"),
    layer("chem.rates_ns_full", "ns", Lower, "wall_s, cpu_s @ flame_samr"),
    layer("transport.mix_props_ns", "ns", Lower, "wall_s @ diffusion_uniform"),
    layer("components.diffusion_rhs_ns_per_cell_untiled", "ns/cell", Lower, "reference for the tiled figure; moves nothing by itself"),
    layer("components.diffusion_rhs_ns_per_cell_tiled", "ns/cell", Lower, "wall_s @ diffusion_uniform"),
    layer("components.chem_advance_us_per_cell", "us/cell", Lower, "wall_s, cpu_s @ flame_samr"),
    layer("hydro.riemann_ns", "ns", Lower, "wall_s @ shock_samr"),
    layer("hydro.efm_ns", "ns", Lower, "none of the six workloads (the EFM swap of §4.3); kept as the alternative flux"),
    layer("hydro.muscl_rhs_ns_per_cell_untiled", "ns/cell", Lower, "reference for the tiled figure; moves nothing by itself"),
    layer("hydro.muscl_rhs_ns_per_cell_tiled", "ns/cell", Lower, "wall_s @ shock_samr"),
    layer("mesh.ghost_fill_us", "us", Lower, "wall_s @ shock_samr"),
    layer("mesh.cf_fill_us", "us", Lower, "wall_s @ shock_samr"),
    layer("mesh.regrid_level_us", "us", Lower, "wall_s @ shock_samr"),
    layer("mesh.cluster_us", "us", Lower, "wall_s @ shock_samr, dist_samr_p2"),
    layer("mesh.prolong_ns_per_cell", "ns/cell", Lower, "wall_s @ shock_samr"),
    layer("mesh.restrict_ns_per_cell", "ns/cell", Lower, "wall_s @ shock_samr"),
    layer("mesh.dist_fill_us", "us", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("mesh.plan_regrid_us", "us", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("mesh.execute_regrid_us", "us", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("mesh.patch_codec_MBps", "MB/s", Higher, "cpu_s, wall_s @ dist_samr_p2"),
    layer("ckpt.encode_MBps", "MB/s", Higher, "cpu_s, wall_s @ dist_samr_p2"),
    layer("ckpt.snapshot_ms", "ms", Lower, "cpu_s, wall_s @ dist_samr_p2"),
    layer("ckpt.set_bytes", "bytes", Lower, "peak_rss_mb @ dist_samr_p2"),
    layer("ckpt.decode_MBps", "MB/s", Higher, "work_per_s @ fleet_mixed"),
    layer("ckpt.restore_ms", "ms", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.submit_us", "us", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.submit_hit_us", "us", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.step_us", "us", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.jobkey_us", "us", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.cache_hit_ratio", "ratio", Higher, "work_per_s @ fleet_mixed"),
    layer("serve.steals", "count", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.preemptions", "count", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.migrations", "count", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.rejections", "count", Lower, "work_per_s @ fleet_mixed"),
    layer("serve.ticks", "count", Lower, "none (virtual time); a change means the schedule changed"),
    layer("analyze.check_us", "us", Lower, "work_per_s @ fleet_mixed"),
    layer("apps.samr_cpu_ratio_p2", "ratio", Lower, "cpu_s @ dist_samr_p2"),
    layer("apps.samr_speedup_p2", "ratio", Higher, "wall_s @ dist_samr_p2"),
    layer("span.regrid_s", "s", Lower, "wall_s @ shock_samr, flame_samr"),
    layer("span.chem_advance_s", "s", Lower, "wall_s @ flame_samr"),
    layer("span.integrator_self_s", "s", Lower, "wall_s @ diffusion_uniform, shock_samr"),
    layer("span.patch_rhs_s", "s", Lower, "wall_s @ diffusion_uniform, shock_samr"),
    layer("span.patch_rhs_calls", "count", Lower, "wall_s @ shock_samr (patch count × stages)"),
    layer("span.eigen_s", "s", Lower, "wall_s @ shock_samr, diffusion_uniform"),
    layer("span.ic_s", "s", Lower, "setup_s @ the three SAMR app workloads"),
    layer("span.driver_self_s", "s", Lower, "wall_s @ the workload traced (MeshPort/DataPort/statistics cost lands here)"),
    layer("trace.overhead_ratio", "ratio", Lower, "nothing: the cost of the traced pass itself"),
    layer("trace.residual_ratio", "ratio", Lower, "nothing: share of the traced wall outside every span"),
    layer("host.triad_GBps", "GB/s", Higher, "calibration only, never compared"),
    layer("host.spin_ns", "ns", Lower, "calibration only; two result files must agree on it within 10 %"),
    layer("host.timer_ns", "ns", Lower, "calibration only: cost of one Instant::now(), two per span"),
];

/// One measured value on its way to the report.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (a median unless the metric says otherwise).
    pub value: f64,
    /// The samples behind it, in the order taken (empty for a count or a
    /// ratio of two medians).
    pub samples: Vec<f64>,
}

/// Most samples a result file lists one by one.
pub const RAW_LIMIT: usize = 32;
/// Fewest samples a 90th percentile is quoted from (ten beyond it).
const P90_MIN_SAMPLES: usize = 101;

impl Measured {
    /// A single-valued metric (a count, a ratio of two medians).
    pub fn single(name: &str, unit: &str, value: f64) -> Measured {
        Measured {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples: Vec::new(),
        }
    }

    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &str, unit: &str, samples: &[f64]) -> Measured {
        Measured {
            value: median(samples),
            samples: samples.to_vec(),
            ..Measured::single(name, unit, f64::NAN)
        }
    }

    /// n/min/quartiles/max of the samples, and their 90th percentile when
    /// there are enough of them.
    fn spread(&self) -> Option<(Summary, Option<f64>)> {
        let summary = Summary::of(&self.samples)?;
        let p90 = (self.samples.len() >= P90_MIN_SAMPLES)
            .then(|| percentile_nearest_rank(&self.samples, 90.0));
        Some((summary, p90))
    }

    /// `{"value": …, "unit": …}` — the shape the last output line uses.
    pub fn contract_json(&self) -> Json {
        Json::obj()
            .with("value", self.value)
            .with("unit", self.unit.as_str())
    }

    /// The contract shape plus the sample summary, for result files.
    pub fn detail_json(&self) -> Json {
        let mut doc = self.contract_json();
        if let Some((s, p90)) = self.spread() {
            doc.set("n", s.n);
            doc.set("min", s.min);
            doc.set("q1", s.q1);
            doc.set("median", s.median);
            doc.set("q3", s.q3);
            doc.set("max", s.max);
            if let Some(p90) = p90 {
                doc.set("p90", p90);
            }
        }
        if (2..=RAW_LIMIT).contains(&self.samples.len()) {
            doc.set(
                "samples",
                self.samples
                    .iter()
                    .map(|x| Json::Num(*x))
                    .collect::<Vec<_>>(),
            );
        }
        doc
    }

    /// One report line: name, value, unit, then the spread if known.
    pub fn line(&self, workload: &str) -> String {
        let mut out = format!(
            "{:<46} {:<18} {:>16.6e} {:<8}",
            self.name, workload, self.value, self.unit
        );
        if let Some((s, p90)) = self.spread() {
            out.push_str(&format!(
                " n={} min={:.4e} q1={:.4e} q3={:.4e} max={:.4e}",
                s.n, s.min, s.q1, s.q3, s.max
            ));
            if let Some(p90) = p90 {
                out.push_str(&format!(" p90={p90:.4e}"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let listed: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(listed, crate::workloads::NAMES);
        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(row.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(row.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(row.get("better").unwrap().as_str(), Some(m.better.word()));
            assert_eq!(
                row.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(row.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(row.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(row.get("better").unwrap().as_str(), Some(m.better.word()));
            assert_eq!(
                row.entries().len(),
                3,
                "{}: exactly name, unit, better",
                m.name
            );
        }
        assert!(text.len() < 64 * 1024);
    }

    #[test]
    fn readme_names_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES)
        {
            assert!(
                readme.contains(&format!("`{name}`")),
                "README.md lacks `{name}`"
            );
        }
    }
}
