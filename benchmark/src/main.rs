//! `mnemonic-perfbench`: the measured benchmark of the Mnemonic workspace.
//!
//! ```text
//! mnemonic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mnemonic-perfbench run (--all | --workload <name>)… [--seed 11] [--seconds 10]
//!                        [--runs 1] [--traced] [--out FILE]
//! mnemonic-perfbench compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! mnemonic-perfbench check-repeat [--runs 10] [--seed 11] [--seconds 10] [--workload <name>]…
//! ```
//!
//! The first form runs one workload in this process and ends its output with
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); it is what
//! `BENCHMARK.json`'s `command` invokes and what `run` spawns, one child per
//! workload run, one at a time. See README.md.

mod json;
mod manifest;
mod metrics;
mod probes;
mod replay;
mod run;
mod serve;
mod stats;
mod trace;
mod workloads;

use json::Value;
use manifest::{Manifest, MetricSeries};
use run::RunResult;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

const USAGE: &str = "usage:
  mnemonic-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  mnemonic-perfbench run (--all | --workload <name>)... [--seed 11] [--seconds 10] [--runs 1] [--traced] [--out FILE]
  mnemonic-perfbench compare BASE.json NEW.json [--bounds BENCHMARK.json]
  mnemonic-perfbench check-repeat [--runs 10] [--seed 11] [--seconds 10] [--workload <name>]...
workloads: netflow_select netflow_cyclic lsbench_churn lanl_window_paged serve_netflow";

/// `benchmark/` of the checkout this binary was built from.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces, manifests and scratch files go: `benchmark/out/`.
fn out_dir() -> PathBuf {
    package_dir().join("out")
}

fn repo_root() -> PathBuf {
    package_dir().join("..")
}

/// Parsed command-line options shared by the sub-commands.
#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    runs: usize,
    traced: bool,
    out: Option<PathBuf>,
    bounds: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_options(args: &[String], default_runs: usize) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 11,
        seconds: 10.0,
        runs: default_runs,
        traced: false,
        out: None,
        bounds: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--all" => o.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let name = value("a workload name")?;
                o.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                o.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                o.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--runs" => {
                o.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&o.runs) {
                    return Err("--runs must be in 1..=100".to_string());
                }
            }
            "--trace" => {
                o.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => o.traced = true,
            "--out" => o.out = Some(PathBuf::from(value("a path")?)),
            "--bounds" => o.bounds = Some(PathBuf::from(value("a path")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "mnemonic-perfbench measures optimised builds only: run it with `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..], 1).and_then(|o| command_run(&o)),
        Some("compare") => parse_options(&args[1..], 1).and_then(|o| command_compare(&o)),
        Some("check-repeat") => {
            parse_options(&args[1..], 10).and_then(|o| command_check_repeat(&o))
        }
        Some(flag) if flag.starts_with("--") => {
            parse_options(&args, 1).and_then(|o| command_single(&o))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

// ---- one workload, in this process ----------------------------------------------

/// The contract's result line.
fn result_line(result: &RunResult) -> String {
    Value::obj([
        ("correct", Value::Bool(result.correct())),
        ("attempted", Value::Num(result.attempted.max(1) as f64)),
        ("failed", Value::Num(result.failed as f64)),
        (
            "metrics",
            Value::obj(result.metrics.iter().map(|m| {
                (
                    m.def.name,
                    Value::obj([
                        ("value", Value::Num(m.value)),
                        ("unit", Value::str(m.def.unit)),
                    ]),
                )
            })),
        ),
    ])
    .to_compact()
}

/// What `run` needs beyond the result line: sample counts, checks, warnings.
fn detail_line(result: &RunResult) -> String {
    Value::obj([
        (
            "samples",
            Value::obj(
                result
                    .metrics
                    .iter()
                    .map(|m| (m.def.name, Value::Num(m.samples as f64))),
            ),
        ),
        (
            "checks",
            Value::Arr(
                result
                    .checks
                    .iter()
                    .map(|c| {
                        Value::str(format!(
                            "{}: {}",
                            if c.ok { "ok" } else { "FAILED" },
                            c.what
                        ))
                    })
                    .collect(),
            ),
        ),
        (
            "warnings",
            Value::Arr(result.warnings.iter().map(Value::str).collect()),
        ),
    ])
    .to_compact()
}

fn command_single(o: &Options) -> Result<ExitCode, String> {
    let [workload] = o.workloads[..] else {
        return Err(format!("exactly one --workload is needed\n{USAGE}"));
    };
    // The spill tier and the storage probe create their files in the
    // system temporary directory; keep them inside the checkout.
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);
    let result = run::run(workload, o.seed, o.seconds, o.traced, &out_dir());
    let _ = std::fs::remove_dir_all(&scratch);
    let result = match result {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{} failed: {e}", workload.name());
            return Ok(ExitCode::FAILURE);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.traced)
    );
    for m in &result.metrics {
        println!(
            "  {:<36} {:>18.6} {:<6} ({} samples)",
            m.def.name, m.value, m.def.unit, m.samples
        );
    }
    for c in &result.checks {
        println!("  {}: {}", if c.ok { "ok" } else { "FAILED" }, c.what);
    }
    for w in &result.warnings {
        println!("  note: {w}");
    }
    println!(
        "  failed_share {} / {} = {:.6}",
        result.failed,
        result.attempted,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    println!("detail {}", detail_line(&result));
    println!("{}", result_line(&result));
    Ok(ExitCode::SUCCESS)
}

// ---- sets of runs, one child process each --------------------------------------------

/// Run one workload once in a child process and fold its output into the
/// manifest.
fn run_child(
    manifest: &mut Manifest,
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let report = manifest.workload_mut(workload.name());
    let lines: Vec<&str> = stdout.lines().collect();
    let (Some(last), true) = (lines.last(), output.status.success()) else {
        report.correct = false;
        report.attempted += 1.0;
        report.failed += 1.0;
        manifest.warnings.push(format!(
            "{} seed {seed} trace {}: the run exited with {} and no result",
            workload.name(),
            u8::from(traced),
            output.status
        ));
        return Ok(());
    };
    let result = json::parse(last).map_err(|e| format!("{} result line: {e}", workload.name()))?;
    let detail = lines
        .iter()
        .rev()
        .find_map(|l| l.strip_prefix("detail "))
        .map(json::parse)
        .transpose()
        .map_err(|e| format!("{} detail line: {e}", workload.name()))?
        .unwrap_or(Value::Null);

    report.correct &= matches!(result.get("correct"), Some(Value::Bool(true)));
    report.attempted += result
        .get("attempted")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    report.failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    let target = if traced {
        &mut report.per_layer
    } else {
        &mut report.end_to_end
    };
    for (name, m) in result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
    {
        let series = target.entry(name.clone()).or_insert_with(|| MetricSeries {
            unit: m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            values: Vec::new(),
            samples: Vec::new(),
        });
        series
            .values
            .push(m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN));
        series.samples.push(
            detail
                .get("samples")
                .and_then(|s| s.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
    }
    let strings = |key: &str| -> Vec<String> {
        detail
            .get(key)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|v| v.as_str().map(str::to_string))
            .collect()
    };
    report.checks = strings("checks");
    let tag = format!("{} seed {seed} trace {}", workload.name(), u8::from(traced));
    manifest.warnings.extend(
        strings("warnings")
            .into_iter()
            .map(|w| format!("{tag}: {w}")),
    );
    Ok(())
}

/// Run a whole set — `runs` seeds of every selected workload, untraced, plus
/// a traced run per seed when asked — and print every metric by name.
fn collect_set(o: &Options, workloads: &[Workload]) -> Result<Manifest, String> {
    let mut manifest = Manifest::start(&repo_root(), o.seed, o.seconds, o.runs);
    for &workload in workloads {
        for k in 0..o.runs as u64 {
            eprintln!(
                "[{}] seed {} run {}/{}",
                workload.name(),
                o.seed + k,
                k + 1,
                o.runs
            );
            run_child(&mut manifest, workload, o.seed + k, o.seconds, false)?;
            if o.traced {
                run_child(&mut manifest, workload, o.seed + k, o.seconds, true)?;
            }
        }
    }
    let bounds = manifest::read_bounds(&bounds_path(o)).unwrap_or_default();
    for (name, report) in &manifest.workloads {
        for (metric, series) in &report.end_to_end {
            if let (Some(spread), Some(&bound)) =
                (stats::spread(&series.values), bounds.get(metric))
            {
                if spread > bound && metric != "setup_s" {
                    manifest.warnings.push(format!(
                        "{name}/{metric}: spread {spread:.4} over {} runs is wider than its bound {bound}",
                        series.values.len()
                    ));
                }
            }
        }
    }
    print_manifest(&manifest);
    Ok(manifest)
}

fn print_manifest(manifest: &Manifest) {
    println!(
        "run {} git {} nproc {} seed {} seconds {} runs {}",
        manifest.run_id,
        manifest.git_rev,
        manifest.nproc,
        manifest.seed,
        manifest.seconds,
        manifest.runs
    );
    for (name, report) in &manifest.workloads {
        println!(
            "{name}: correct {} failed_share {:.6} ({} of {})",
            report.correct,
            report.failed_share(),
            report.failed,
            report.attempted
        );
        for (metric, series) in report.end_to_end.iter().chain(&report.per_layer) {
            let note = metrics::find(metric)
                .filter(|_| metric.contains('.'))
                .map_or(String::new(), |d| format!("  -> {}", d.note));
            println!(
                "  {metric:<36} {:>18.6} {:<6} ({} samples{}){note}",
                series.median().unwrap_or(f64::NAN),
                series.unit,
                series.samples.last().copied().unwrap_or(0.0),
                stats::spread(&series.values).map_or(String::new(), |s| format!(
                    ", spread {s:.4} over {} runs",
                    series.values.len()
                )),
            );
        }
        for check in &report.checks {
            println!("  {check}");
        }
    }
    for warning in &manifest.warnings {
        println!("note: {warning}");
    }
}

fn write_manifest(manifest: &Manifest, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, manifest.to_json().to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("manifest written to {}", path.display());
    Ok(())
}

fn bounds_path(o: &Options) -> PathBuf {
    o.bounds
        .clone()
        .unwrap_or_else(|| repo_root().join("BENCHMARK.json"))
}

fn all_held(manifest: &Manifest) -> bool {
    manifest
        .workloads
        .iter()
        .all(|(_, w)| w.correct && w.failed == 0.0)
}

fn command_run(o: &Options) -> Result<ExitCode, String> {
    if o.workloads.is_empty() {
        return Err(format!("run needs --all or --workload\n{USAGE}"));
    }
    let manifest = collect_set(o, &o.workloads)?;
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}.json", manifest.run_id)));
    write_manifest(&manifest, &path)?;
    Ok(if all_held(&manifest) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn report_comparison(
    base: &Manifest,
    new: &Manifest,
    o: &Options,
    strict: bool,
) -> Result<ExitCode, String> {
    let bounds = manifest::read_bounds(&bounds_path(o))?;
    let cmp = manifest::compare(base, new, &bounds);
    print!("{}", cmp.table);
    println!(
        "base {} ({}), new {} ({}); ratios are new/base",
        base.run_id, base.git_rev, new.run_id, new.git_rev
    );
    for (what, list) in [
        ("regression", &cmp.regressions),
        ("more failures", &cmp.more_failures),
        ("unresolved (spread wider than bound)", &cmp.unresolved),
    ] {
        for item in list {
            println!("{what}: {item}");
        }
    }
    let bad = !cmp.regressions.is_empty()
        || !cmp.more_failures.is_empty()
        || (strict && !cmp.unresolved.is_empty());
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn command_compare(o: &Options) -> Result<ExitCode, String> {
    let [base, new] = &o.positional[..] else {
        return Err(format!("compare needs two manifests\n{USAGE}"));
    };
    let base = Manifest::read(Path::new(base))?;
    let new = Manifest::read(Path::new(new))?;
    report_comparison(&base, &new, o, false)
}

/// Two full sets of the same binary, compared with the benchmark's own
/// bounds: every spread (but `setup_s`'s) must stay within its bound, and no
/// second median may be worse than the first by more than its bound.
fn command_check_repeat(o: &Options) -> Result<ExitCode, String> {
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    let first = collect_set(o, &workloads)?;
    write_manifest(&first, &out_dir().join("repeat-a.json"))?;
    let second = collect_set(o, &workloads)?;
    write_manifest(&second, &out_dir().join("repeat-b.json"))?;
    let code = report_comparison(&first, &second, o, true)?;
    Ok(if all_held(&first) && all_held(&second) {
        code
    } else {
        ExitCode::FAILURE
    })
}
