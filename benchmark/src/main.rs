//! `cca-benchmark` — wall-clock benchmark of the cca-hydro workspace.
//!
//! ```text
//! cca-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! cca-benchmark run W [--seed N] [--seconds S | --reps K] [--trace] [--smoke]
//! cca-benchmark all [--seed N] [--seconds S] [--smoke] [--out FILE]
//! cca-benchmark compare A.json B.json
//! cca-benchmark list | reference | manifest
//! ```
//!
//! See `README.md` beside this package for every metric and workload.

mod compare;
mod json;
mod metrics;
mod probes;
mod proxy;
mod reference;
mod runner;
mod span;
mod stats;
mod sysinfo;
mod traced;
mod workloads;

use json::Json;
use runner::RunOptions;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Seconds a run measures when none are given.
const DEFAULT_SECONDS: f64 = 10.0;

/// Marks the line of a child's output that carries its full result.
const DETAIL_TAG: &str = "DETAIL ";

/// Where trace exports and result files go: `out/` beside this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 2] = ["--smoke", "--trace"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut k = 0;
        while k < raw.len() {
            let a = &raw[k];
            if let Some(name) = a.strip_prefix("--") {
                // `--trace` is a switch for `run` but takes 0|1 in the
                // driver's form; a following 0/1 is consumed as its value.
                let next = raw.get(k + 1);
                let takes_value = !SWITCHES.contains(&a.as_str())
                    || (a == "--trace" && next.is_some_and(|v| v == "0" || v == "1"));
                if takes_value {
                    let value = next.ok_or_else(|| format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), Some(value.clone())));
                    k += 2;
                } else {
                    args.options.push((name.to_string(), None));
                    k += 1;
                }
            } else {
                args.positional.push(a.clone());
                k += 1;
            }
        }
        Ok(args)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: '{v}' is not a valid number"))
            })
            .transpose()
    }

    fn run_options(&self, workload: &str) -> Result<RunOptions, String> {
        let seconds = self.number::<f64>("seconds")?.unwrap_or(DEFAULT_SECONDS);
        if !(seconds.is_finite() && (0.0..=3600.0).contains(&seconds)) {
            return Err(format!("--seconds {seconds} is outside 0..3600"));
        }
        Ok(RunOptions {
            workload: workload.to_string(),
            seed: self.number::<u64>("seed")?.unwrap_or(0),
            seconds,
            reps: self.number::<usize>("reps")?,
            smoke: self.has("smoke"),
        })
    }

    fn traced(&self) -> bool {
        self.has("trace") && self.value("trace") != Some("0")
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw, process_start) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("cca-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(raw: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    let command = args.positional.first().map(String::as_str);
    match command {
        None if args.has("workload") => {
            let workload = args.value("workload").unwrap_or_default().to_string();
            run_one(&args, &workload, process_start)
        }
        Some("run") => {
            let workload = args
                .positional
                .get(1)
                .ok_or("usage: cca-benchmark run <workload> [options]")?
                .clone();
            run_one(&args, &workload, process_start)
        }
        // Internal: one rep in this fresh process, reported on one line.
        Some("rep-probe") => {
            let workload = args.value("workload").ok_or("rep-probe needs --workload")?;
            let opts = args.run_options(workload)?;
            let (_, probed) = runner::ProbedRep::measure(&opts, process_start)?;
            println!("{}", probed.to_json().render());
            Ok(ExitCode::SUCCESS)
        }
        Some("all") => run_all(&args),
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => compare::run(a, b),
            _ => Err("usage: cca-benchmark compare <a.json> <b.json>".into()),
        },
        Some("list") => {
            list();
            Ok(ExitCode::SUCCESS)
        }
        Some("reference") => print_reference(),
        Some("manifest") => {
            print!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(
            "usage: cca-benchmark (--workload W --seed N --seconds S --trace 0|1 | run W | all | \
             compare A B | list | reference | manifest)"
                .into(),
        ),
    }
}

/// One run of one workload: the end-to-end pass, or with `--trace` the
/// traced pass. Prints every metric, then the detail line, then the line
/// the driver reads; exits non-zero if any check failed.
fn run_one(args: &Args, workload: &str, process_start: Instant) -> Result<ExitCode, String> {
    let opts = args.run_options(workload)?;
    let traced = args.traced();
    let report = if traced {
        traced::run_traced(&opts)?
    } else {
        runner::run_end_to_end(&opts, process_start)?
    };
    report.print(workload);
    let detail = Json::obj()
        .with("workload", workload)
        .with("seed", opts.seed)
        .with("traced", traced)
        .with("smoke", opts.smoke)
        .with("result", report.detail_json());
    println!("{DETAIL_TAG}{}", detail.render());
    println!("{}", report.contract_line());
    Ok(ExitCode::from(exit_status(&report)))
}

/// Process exit status of a run: 0 only if no op failed and every check
/// held.
fn exit_status(report: &runner::RunReport) -> u8 {
    u8::from(!report.correct())
}

/// Every workload, one child process per run and never two at once: for
/// each workload its end-to-end pass, then its traced pass.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number::<u64>("seed")?.unwrap_or(0);
    let smoke = args.has("smoke");
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let started = Instant::now();
    let mut workloads_doc = Json::obj();
    let mut all_correct = true;
    let mut host_probes = Json::obj();
    for name in workloads::NAMES {
        let mut entry = Json::obj();
        for traced in [false, true] {
            let t0 = Instant::now();
            let mut cmd = Command::new(&exe);
            cmd.args(["run", name, "--seed", &seed.to_string()]);
            if let Some(s) = args.value("seconds") {
                cmd.args(["--seconds", s]);
            }
            if smoke {
                cmd.arg("--smoke");
            }
            if traced {
                cmd.arg("--trace");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("cannot start the {name} run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix(DETAIL_TAG) {
                    Some(text) => detail = Some(Json::parse(text)?),
                    // The contract line is for the driver; `all` prints the
                    // report lines only.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let detail = detail.ok_or_else(|| {
                format!(
                    "the {name} run (traced: {traced}) printed no result ({})",
                    out.status
                )
            })?;
            let result = detail.get("result").cloned().unwrap_or(Json::Null);
            all_correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            if traced {
                for key in ["host.spin_ns", "host.triad_GBps", "host.timer_ns"] {
                    if let Some(v) = result.path(&["metrics", key]) {
                        host_probes.set(key, v.clone());
                    }
                }
            }
            entry.set(if traced { "per_layer" } else { "end_to_end" }, result);
            println!(
                "# {name} {} pass took {:.1} s",
                if traced { "traced" } else { "end-to-end" },
                t0.elapsed().as_secs_f64()
            );
        }
        workloads_doc.set(name, entry);
    }
    let host = sysinfo::HostFingerprint::read();
    let doc = Json::obj()
        .with("schema", compare::RESULTS_SCHEMA)
        .with("seed", seed)
        .with("smoke", smoke)
        .with(
            "host",
            Json::obj()
                .with("nproc", host.nproc)
                .with("cpu_model", host.cpu_model)
                .with("caches", host.caches)
                .with("rustc", host.rustc)
                .with("probes", host_probes),
        )
        .with("workloads", workloads_doc);
    let path = match args.value("out") {
        Some(p) => PathBuf::from(p),
        None => {
            std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
            out_dir().join(format!("results-seed{seed}.json"))
        }
    };
    std::fs::write(&path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "# all: {} in {:.1} s, results in {}",
        if all_correct {
            "every check passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The glossary: every metric with unit, direction, bound or prediction.
fn list() {
    use std::fmt::Write as _;
    let mut out = String::from("end-to-end metrics (every workload, tracing off):\n");
    for m in metrics::END_TO_END {
        let _ = writeln!(
            out,
            "  {:<14} {:<5} {:<7} bound {:>4.0} %  {}",
            m.name,
            m.unit,
            m.better.word(),
            100.0 * m.bound,
            m.what
        );
    }
    let _ = writeln!(
        out,
        "  {:<14} {:<5} {:<7} any increase  failed ops / attempted ops",
        "fail_ratio", "ratio", "lower"
    );
    out.push_str("per-layer metrics (traced pass) -> what each should move:\n");
    for m in metrics::PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<46} {:<8} {:<7} -> {}",
            m.name,
            m.unit,
            m.better.word(),
            m.moves
        );
    }
    let _ = writeln!(out, "workloads: {}", workloads::NAMES.join(", "));
    // A closed pipe (`list | head`) is not an error worth a panic.
    let _ = std::io::Write::write_all(&mut std::io::stdout(), out.as_bytes());
}

/// Why each workload is in the suite (one line each, for `BENCHMARK.json`).
const WHY: [(&str, &str); 6] = [
    (
        "ignition0d_cells",
        "Table 4 cell sweep through the Fig. 1 ports: the only workload where core port dispatch is \
         a visible share; one long BDF run per cell plus reduced chem; no mesh, comm, hydro, serve",
    ),
    (
        "flame_samr",
        "99 % implicit point chemistry as many short BDF restarts on the 2-worker executor: the only \
         workload where executor load balance moves wall_s without moving cpu_s",
    ),
    (
        "diffusion_uniform",
        "plain single-threaded kernel baseline: diffusion patch-rhs with transport properties plus \
         RKC on one uniform level; bypasses chemistry, BDF, regridding and the worker pool",
    ),
    (
        "shock_samr",
        "a different kernel (MUSCL + exact Riemann) on many small patches over three levels: the \
         largest mesh share (ghost fill, regrid) of the single-process runs; bypasses chem and BDF",
    ),
    (
        "dist_samr_p2",
        "trivial stencil at two ranks, so the comm router, mesh::dist manifests and regrid epochs \
         and ckpt snapshot writes dominate; bypasses the component framework and every kernel",
    ),
    (
        "fleet_mixed",
        "2400 tiny jobs on two shards: serve routing, queueing, admission (analyze), stealing, \
         caching and per-session assembly are the cost; sliced jobs read checkpoint sets back",
    ),
];

/// `BENCHMARK.json`, from the registry.
fn manifest() -> Json {
    let strings = |items: &[&str]| items.iter().map(|s| Json::from(*s)).collect::<Vec<_>>();
    Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--bin",
                "cca-benchmark",
                "--",
            ]),
        )
        .with("paths", strings(&["benchmark"]))
        .with("run_seconds", DEFAULT_SECONDS as u64)
        .with(
            "workloads",
            WHY.iter()
                .map(|(name, why)| Json::obj().with("name", *name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with(
            "end_to_end",
            metrics::END_TO_END
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                        .with("bound", m.bound)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "per_layer",
            metrics::PER_LAYER
                .iter()
                .map(|m| {
                    Json::obj()
                        .with("name", m.name)
                        .with("unit", m.unit)
                        .with("better", m.better.word())
                })
                .collect::<Vec<_>>(),
        )
}

/// Print `reference.json` for the current code: one seed-0 rep of each
/// workload at full size.
fn print_reference() -> Result<ExitCode, String> {
    let mut rows = Vec::new();
    for name in workloads::NAMES {
        let workload = workloads::Workload::generate(name, 0, false)?;
        let out = workload.rep(workloads::Wiring::Plain, false);
        if !out.problems.is_empty() {
            return Err(format!("{name}: {}", out.problems.join("; ")));
        }
        rows.push((name.to_string(), out.scalars));
    }
    print!("{}", reference::render(&rows));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::{Check, RunReport};

    fn parse(words: &[&str]) -> Args {
        let raw: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        Args::parse(&raw).unwrap()
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = parse(&[
            "--workload", "shock_samr", "--seed", "7", "--seconds", "10", "--trace", "0",
        ]);
        assert!(a.positional.is_empty());
        let opts = a.run_options(a.value("workload").unwrap()).unwrap();
        assert_eq!(
            (opts.workload.as_str(), opts.seed, opts.seconds),
            ("shock_samr", 7, 10.0)
        );
        assert!(!a.traced());
        assert!(parse(&["--workload", "x", "--trace", "1"]).traced());
    }

    #[test]
    fn trace_and_smoke_are_switches_for_run() {
        let a = parse(&["run", "flame_samr", "--trace", "--smoke", "--reps", "2"]);
        assert_eq!(a.positional, ["run", "flame_samr"]);
        assert!(a.traced() && a.has("smoke"));
        assert_eq!(a.run_options("flame_samr").unwrap().reps, Some(2));
        assert!(!parse(&["run", "flame_samr"]).traced());
        // Bad numbers and missing values are errors, not panics.
        assert!(parse(&["--seed", "x"]).run_options("w").is_err());
        assert!(parse(&["--seconds", "-1"]).run_options("w").is_err());
        let raw = vec!["--seed".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn a_failed_check_gives_a_non_zero_exit_status() {
        let mut report = RunReport {
            attempted: 9,
            ..RunReport::default()
        };
        report.checks.push(Check::new("holds", true, String::new()));
        assert_eq!(exit_status(&report), 0);
        report
            .checks
            .push(Check::new("made to fail", false, "injected".into()));
        assert_eq!(exit_status(&report), 1);
        let failed_op = RunReport {
            attempted: 9,
            failed: 1,
            ..RunReport::default()
        };
        assert_eq!(exit_status(&failed_op), 1);
    }

    #[test]
    fn the_manifest_fits_the_drivers_limits() {
        let doc = manifest();
        let text = doc.render_pretty();
        assert!(text.len() < 64 * 1024);
        for w in doc.get("workloads").unwrap().items() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let command = doc.get("command").unwrap().items();
        assert!(command.len() <= 32);
        assert!(command.iter().all(|c| {
            let c = c.as_str().unwrap();
            c.len() <= 200 && !c.starts_with('/') && !c.contains("..")
        }));
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds));
        // 4 + 22 runs per workload, two builds, inside the driver's budget
        // at the measured ~18 s per run.
        assert!((4.0 + 22.0 * 6.0) * (seconds + 9.0) < 3420.0 - 2.0 * 60.0);
    }
}
