//! Seed-0 reference outputs (`reference.json`, compiled in).
//!
//! Two tolerances. A value further than [`FAIL_REL_TOL`] from its
//! reference is a failed check: the physics changed materially. A value
//! further than [`PIN_REL_TOL`] is reported as *drift* but does not fail:
//! a later change that deliberately alters numerics (a flux register, a
//! reordered sum) may not edit the benchmark, so the pin must not be able
//! to veto it — the drift line tells the reader the outputs are no longer
//! the pinned ones. Hash-valued scalars can only drift.

use crate::json::Json;
use crate::runner::{Check, RunReport};

/// Relative deviation beyond which a seed-0 output is wrong.
pub const FAIL_REL_TOL: f64 = 0.02;
/// Relative deviation beyond which a seed-0 output has drifted.
pub const PIN_REL_TOL: f64 = 1e-8;

fn table() -> Json {
    Json::parse(include_str!("../reference.json")).expect("reference.json is valid JSON")
}

/// Compare a run's named scalars with the pinned ones.
pub fn compare(workload: &str, scalars: &[(String, f64)], report: &mut RunReport) {
    compare_with(&table(), workload, scalars, report);
}

fn compare_with(table: &Json, workload: &str, scalars: &[(String, f64)], report: &mut RunReport) {
    let Some(pins) = table.get(workload) else {
        report
            .notes
            .push(format!("reference.json has no entry for {workload}"));
        return;
    };
    let mut worst: (f64, &str) = (0.0, "-");
    let mut missing = Vec::new();
    for (name, pin) in pins.entries() {
        let Some(pin) = pin.as_f64() else { continue };
        let Some((_, got)) = scalars.iter().find(|(n, _)| n == name) else {
            missing.push(name.as_str());
            continue;
        };
        let rel = (got - pin).abs() / pin.abs().max(f64::MIN_POSITIVE);
        if rel > PIN_REL_TOL || !rel.is_finite() {
            report.notes.push(format!(
                "reference drift: {workload}.{name} = {got:e}, pinned {pin:e} (rel {rel:.3e})"
            ));
        }
        let hash_valued = name.contains("checksum_hi") || name.contains("checksum_lo");
        if !hash_valued && (rel > worst.0 || !rel.is_finite()) {
            worst = (if rel.is_finite() { rel } else { f64::INFINITY }, name);
        }
    }
    report.checks.push(Check::new(
        "seed-0 outputs within 2 % of reference.json",
        worst.0 <= FAIL_REL_TOL && missing.is_empty(),
        format!(
            "largest deviation {:.3e} ({}){}",
            worst.0,
            worst.1,
            if missing.is_empty() {
                String::new()
            } else {
                format!(", not reported: {}", missing.join(", "))
            }
        ),
    ));
}

/// `reference.json` text for the given per-workload scalars.
pub fn render(rows: &[(String, Vec<(String, f64)>)]) -> String {
    let mut doc = Json::obj();
    for (workload, scalars) in rows {
        let mut entry = Json::obj();
        for (name, value) in scalars {
            entry.set(name, *value);
        }
        doc.set(workload, entry);
    }
    doc.render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalars(items: &[(&str, f64)]) -> Vec<(String, f64)> {
        items.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    fn pins() -> Json {
        Json::parse(r#"{"w": {"t_max": 1000.0, "outcome_checksum_hi": 5.0}}"#).unwrap()
    }

    #[test]
    fn exact_outputs_pass_without_notes() {
        let mut report = RunReport::default();
        compare_with(
            &pins(),
            "w",
            &scalars(&[("t_max", 1000.0), ("outcome_checksum_hi", 5.0)]),
            &mut report,
        );
        assert!(report.correct() && report.notes.is_empty(), "{report:?}");
    }

    #[test]
    fn small_drift_is_noted_but_large_drift_fails() {
        let mut report = RunReport::default();
        compare_with(
            &pins(),
            "w",
            &scalars(&[("t_max", 1000.001), ("outcome_checksum_hi", 9.0)]),
            &mut report,
        );
        assert!(report.correct(), "1e-6 off and a changed hash only drift");
        assert_eq!(report.notes.len(), 2);
        let mut report = RunReport::default();
        compare_with(
            &pins(),
            "w",
            &scalars(&[("t_max", 1100.0), ("outcome_checksum_hi", 5.0)]),
            &mut report,
        );
        assert!(!report.correct());
        let mut report = RunReport::default();
        compare_with(
            &pins(),
            "w",
            &scalars(&[("t_max", f64::NAN), ("outcome_checksum_hi", 5.0)]),
            &mut report,
        );
        assert!(!report.correct());
        let mut report = RunReport::default();
        compare_with(
            &pins(),
            "w",
            &scalars(&[("outcome_checksum_hi", 5.0)]),
            &mut report,
        );
        assert!(
            !report.correct(),
            "a pinned scalar that is not reported fails"
        );
    }

    #[test]
    fn every_workload_has_pins() {
        let table = table();
        for name in crate::workloads::NAMES {
            assert!(!table.get(name).unwrap().entries().is_empty(), "{name}");
        }
    }

    #[test]
    fn render_round_trips() {
        let text = render(&[("w".into(), scalars(&[("a", 1.5), ("b", 2.0)]))]);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.path(&["w", "a"]).unwrap().as_f64(), Some(1.5));
    }
}
