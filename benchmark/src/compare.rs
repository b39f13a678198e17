//! `cca-benchmark compare A.json B.json`: hold two result files of `all`
//! against each other, metric by metric and workload by workload, with the
//! bounds the benchmark fixed. `A` is the baseline, `B` the candidate.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use std::process::ExitCode;

/// Per-layer metrics that are exact counts: two runs of one program on
/// one seed must agree on them to the last digit.
const EXACT_COUNTS: [&str; 10] = [
    "comm.messages",
    "comm.bytes",
    "solvers.bdf_nfe",
    "span.patch_rhs_calls",
    "serve.cache_hit_ratio",
    "serve.steals",
    "serve.preemptions",
    "serve.migrations",
    "serve.rejections",
    "serve.ticks",
];

/// Schema tag of the result files `all` writes and `compare` reads.
pub const RESULTS_SCHEMA: &str = "cca-benchmark-results-v1";

/// How far `host.spin_ns` may differ before two files are incomparable.
const SPIN_TOLERANCE: f64 = 0.10;

/// Verdict on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// A file's own rep-to-rep spread exceeds the bound: no verdict.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's value and its interquartile spread as a share of the median.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    /// The reported value.
    pub value: f64,
    /// `(q3 − q1) / median` of the reps behind it (0 for a single value).
    pub spread: f64,
}

/// Judge a candidate against a baseline under `bound`.
pub fn judge(base: Side, cand: Side, better: Better, bound: f64) -> Verdict {
    if base.spread > bound || cand.spread > bound {
        return Verdict::Unresolved;
    }
    let change = (cand.value - base.value) / base.value.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if !worsening.is_finite() {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(doc: &Json, workload: &str, pass: &str, metric: &str) -> Option<Side> {
    let m = doc.path(&["workloads", workload, pass, "metrics", metric])?;
    let value = m.get("value")?.as_f64()?;
    let spread = match (m.get("q1"), m.get("q3"), m.get("median")) {
        (Some(q1), Some(q3), Some(med)) => {
            let (q1, q3, med) = (q1.as_f64()?, q3.as_f64()?, med.as_f64()?);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        _ => 0.0,
    };
    Some(Side { value, spread })
}

/// Why two files cannot be compared, if they cannot.
pub fn host_mismatch(a: &Json, b: &Json) -> Option<String> {
    for key in ["nproc", "cpu_model", "caches", "rustc"] {
        let (x, y) = (a.path(&["host", key]), b.path(&["host", key]));
        if x.is_none() || x != y {
            return Some(format!(
                "host.{key} differs: {} vs {}",
                x.map_or("missing".into(), Json::render),
                y.map_or("missing".into(), Json::render)
            ));
        }
    }
    let spin = |doc: &Json| {
        doc.path(&["host", "probes", "host.spin_ns", "value"])
            .and_then(Json::as_f64)
    };
    match (spin(a), spin(b)) {
        (Some(x), Some(y)) if ((y - x) / x).abs() <= SPIN_TOLERANCE => None,
        (Some(x), Some(y)) => Some(format!(
            "host.spin_ns differs by more than {:.0} %: {x:.4} vs {y:.4} ns",
            100.0 * SPIN_TOLERANCE
        )),
        _ => Some("host.spin_ns is missing from a file".into()),
    }
}

/// All rows of a comparison, and whether any is `Worse`.
pub fn compare_docs(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut rows = Vec::new();
    let mut any_worse = false;
    for workload in NAMES {
        for m in END_TO_END {
            let row = match (
                side(a, workload, "end_to_end", m.name),
                side(b, workload, "end_to_end", m.name),
            ) {
                (Some(x), Some(y)) => {
                    let verdict = judge(x, y, m.better, m.bound);
                    any_worse |= verdict == Verdict::Worse;
                    format!(
                        "{:<14} {:<18} {:>14.6e} {:>14.6e} {:>+8.2} %  bound {:>4.1} %  spread {:>5.2} % / {:>5.2} %  {}",
                        m.name,
                        workload,
                        x.value,
                        y.value,
                        100.0 * (y.value - x.value) / x.value.abs(),
                        100.0 * m.bound,
                        100.0 * x.spread,
                        100.0 * y.spread,
                        verdict.word()
                    )
                }
                _ => format!("{:<14} {:<18} missing from a file", m.name, workload),
            };
            rows.push(row);
        }
        // fail_ratio: any increase is a regression.
        let ratio = |doc: &Json| {
            doc.path(&["workloads", workload, "end_to_end", "fail_ratio"])
                .and_then(Json::as_f64)
        };
        if let (Some(x), Some(y)) = (ratio(a), ratio(b)) {
            let verdict = if y > x {
                any_worse = true;
                Verdict::Worse
            } else if y < x {
                Verdict::Better
            } else {
                Verdict::Same
            };
            rows.push(format!(
                "{:<14} {:<18} {:>14.6e} {:>14.6e} {:>10}  any increase              {}",
                "fail_ratio",
                workload,
                x,
                y,
                "",
                verdict.word()
            ));
        }
        for name in EXACT_COUNTS {
            let count = |doc: &Json| {
                doc.path(&["workloads", workload, "per_layer", "metrics", name, "value"])
                    .and_then(Json::as_f64)
            };
            if let (Some(x), Some(y)) = (count(a), count(b)) {
                if x.to_bits() != y.to_bits() {
                    rows.push(format!(
                        "{name:<24} {workload:<18} exact count differs: {x} vs {y}"
                    ));
                }
            }
        }
    }
    (rows, any_worse)
}

/// The `compare` subcommand.
pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(RESULTS_SCHEMA) => Ok(doc),
            other => Err(format!(
                "{path}: not a result file of `all` (schema {other:?})"
            )),
        }
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    if let Some(why) = host_mismatch(&a, &b) {
        return Err(format!("refusing to compare across hosts: {why}"));
    }
    if a.get("seed") != b.get("seed") || a.get("smoke") != b.get("smoke") {
        return Err("refusing to compare runs of different seeds or sizes".into());
    }
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>10}",
        "metric", "workload", "baseline", "candidate", "change"
    );
    let (rows, any_worse) = compare_docs(&a, &b);
    for row in rows {
        println!("{row}");
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Better::{Higher, Lower};
        assert_eq!(
            judge(s(1.0, 0.01), s(1.04, 0.01), Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            judge(s(1.0, 0.01), s(1.06, 0.01), Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(s(1.0, 0.01), s(0.90, 0.01), Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            judge(s(100.0, 0.0), s(90.0, 0.0), Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(s(100.0, 0.0), s(110.0, 0.0), Higher, 0.05),
            Verdict::Better
        );
        // Either file's own spread beyond the bound: no verdict.
        assert_eq!(
            judge(s(1.0, 0.08), s(2.0, 0.0), Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(1.0, 0.0), s(2.0, 0.08), Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(0.0, 0.0), s(1.0, 0.0), Lower, 0.05),
            Verdict::Unresolved
        );
    }

    fn result_file(wall: f64, spin: f64, failed: f64) -> Json {
        let metric = |v: f64| {
            Json::obj()
                .with("value", v)
                .with("q1", v * 0.995)
                .with("median", v)
                .with("q3", v * 1.005)
        };
        let mut workloads = Json::obj();
        for w in NAMES {
            let mut metrics = Json::obj();
            for m in END_TO_END {
                metrics.set(m.name, metric(if m.name == "wall_s" { wall } else { 2.0 }));
            }
            workloads.set(
                w,
                Json::obj()
                    .with(
                        "end_to_end",
                        Json::obj()
                            .with("metrics", metrics)
                            .with("fail_ratio", failed),
                    )
                    .with(
                        "per_layer",
                        Json::obj().with(
                            "metrics",
                            Json::obj().with("comm.messages", Json::obj().with("value", 2474u64)),
                        ),
                    ),
            );
        }
        Json::obj()
            .with("schema", RESULTS_SCHEMA)
            .with("seed", 0u64)
            .with("smoke", false)
            .with(
                "host",
                Json::obj()
                    .with("nproc", 2u64)
                    .with("cpu_model", "cpu")
                    .with("caches", "L2 1M")
                    .with("rustc", "rustc 1")
                    .with(
                        "probes",
                        Json::obj().with("host.spin_ns", Json::obj().with("value", spin)),
                    ),
            )
            .with("workloads", workloads)
    }

    #[test]
    fn identical_files_compare_clean_and_a_slowdown_is_flagged() {
        let base = result_file(1.0, 0.31, 0.0);
        assert_eq!(host_mismatch(&base, &base), None);
        let (rows, worse) = compare_docs(&base, &base);
        assert!(!worse);
        assert_eq!(rows.len(), NAMES.len() * (END_TO_END.len() + 1));
        assert!(rows.iter().all(|r| r.ends_with("same")), "{rows:#?}");
        let slow = result_file(1.2, 0.31, 0.0);
        let (rows, worse) = compare_docs(&base, &slow);
        assert!(worse);
        assert_eq!(
            rows.iter().filter(|r| r.ends_with("WORSE")).count(),
            NAMES.len()
        );
        // Any increase of fail_ratio is a regression.
        let failing = result_file(1.0, 0.31, 1.0e-4);
        assert!(compare_docs(&base, &failing).1);
    }

    #[test]
    fn different_hosts_are_refused() {
        let base = result_file(1.0, 0.31, 0.0);
        let faster_clock = result_file(1.0, 0.25, 0.0);
        assert!(host_mismatch(&base, &faster_clock)
            .unwrap()
            .contains("spin_ns"));
        let mut other_cpu = base.clone();
        let Json::Obj(entries) = &mut other_cpu else {
            panic!()
        };
        let host = &mut entries.iter_mut().find(|(k, _)| k == "host").unwrap().1;
        host.set("cpu_model", "another cpu");
        assert!(host_mismatch(&base, &other_cpu)
            .unwrap()
            .contains("cpu_model"));
    }
}
