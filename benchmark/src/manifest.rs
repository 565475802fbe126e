//! The run manifest — `run_id`, git revision, `nproc`, seed, `started_at`,
//! per-workload metrics with units and sample counts, and a `warnings` list —
//! and the comparison of two manifests against the bounds `BENCHMARK.json`
//! fixes.

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// One metric of one workload over the runs of a set.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Unit of the values.
    pub unit: String,
    /// One value per run, in run order.
    pub values: Vec<f64>,
    /// Samples behind each value (batches, repetitions, …), per run.
    pub samples: Vec<f64>,
}

impl MetricSeries {
    /// Median over the runs.
    pub fn median(&self) -> Option<f64> {
        stats::median(&self.values)
    }
}

/// Everything the manifest records about one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadReport {
    /// Operations attempted over all runs.
    pub attempted: f64,
    /// Operations failed over all runs.
    pub failed: f64,
    /// Whether every correctness check of every run held.
    pub correct: bool,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, MetricSeries>,
    /// Per-layer metrics by name (empty without `--traced`).
    pub per_layer: BTreeMap<String, MetricSeries>,
    /// The correctness checks of the last run, as `"ok: …"` / `"FAILED: …"`.
    pub checks: Vec<String>,
}

impl WorkloadReport {
    /// failed ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            1.0
        }
    }
}

/// The run manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Manifest {
    /// `bench-<UTC compact>-<pid>`.
    pub run_id: String,
    /// Commit of the repository, `unknown` outside a git checkout.
    pub git_rev: String,
    /// `std::thread::available_parallelism()`.
    pub nproc: f64,
    /// First seed of the set; run *k* uses seed + *k*.
    pub seed: f64,
    /// Seconds each run measured for.
    pub seconds: f64,
    /// Runs per workload.
    pub runs: f64,
    /// UTC, ISO 8601.
    pub started_at: String,
    /// Per-workload reports, in `BENCHMARK.json` order.
    pub workloads: Vec<(String, WorkloadReport)>,
    /// Things a reader should know before trusting a number.
    pub warnings: Vec<String>,
}

/// `(year, month, day, hour, minute, second)` of a Unix time, UTC.
fn civil(unix: u64) -> (i64, u32, u32, u32, u32, u32) {
    let days = (unix / 86_400) as i64;
    let rem = (unix % 86_400) as u32;
    // Days-to-civil, Gregorian, era-based.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day, rem / 3600, rem % 3600 / 60, rem % 60)
}

/// The commit `HEAD` points at, read from `.git` without running git.
fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Manifest {
    /// Start a manifest now.
    pub fn start(repo_root: &Path, seed: u64, seconds: f64, runs: usize) -> Manifest {
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let (y, mo, d, h, mi, s) = civil(unix);
        Manifest {
            run_id: format!(
                "bench-{y:04}{mo:02}{d:02}T{h:02}{mi:02}{s:02}Z-{}",
                std::process::id()
            ),
            git_rev: git_rev(repo_root),
            nproc: std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
            seed: seed as f64,
            seconds,
            runs: runs as f64,
            started_at: format!("{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z"),
            workloads: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// The report of `workload`, created on first use.
    pub fn workload_mut(&mut self, workload: &str) -> &mut WorkloadReport {
        if let Some(i) = self.workloads.iter().position(|(n, _)| n == workload) {
            return &mut self.workloads[i].1;
        }
        self.workloads.push((
            workload.to_string(),
            WorkloadReport {
                correct: true,
                ..WorkloadReport::default()
            },
        ));
        &mut self.workloads.last_mut().expect("just pushed").1
    }

    /// The report of `workload`.
    pub fn workload(&self, workload: &str) -> Option<&WorkloadReport> {
        self.workloads
            .iter()
            .find(|(n, _)| n == workload)
            .map(|(_, r)| r)
    }

    /// Serialise.
    pub fn to_json(&self) -> Value {
        let nums = |v: &[f64]| Value::Arr(v.iter().map(|&x| Value::Num(x)).collect());
        let strs = |v: &[String]| Value::Arr(v.iter().map(Value::str).collect());
        let series = |m: &BTreeMap<String, MetricSeries>| {
            Value::obj(m.iter().map(|(name, s)| {
                (
                    name.clone(),
                    Value::obj([
                        ("unit", Value::str(&s.unit)),
                        ("median", s.median().map_or(Value::Null, Value::Num)),
                        ("values", nums(&s.values)),
                        ("samples", nums(&s.samples)),
                    ]),
                )
            }))
        };
        Value::obj([
            ("run_id", Value::str(&self.run_id)),
            ("git_rev", Value::str(&self.git_rev)),
            ("nproc", Value::Num(self.nproc)),
            ("seed", Value::Num(self.seed)),
            ("seconds", Value::Num(self.seconds)),
            ("runs", Value::Num(self.runs)),
            ("started_at", Value::str(&self.started_at)),
            (
                "workloads",
                Value::obj(self.workloads.iter().map(|(name, w)| {
                    (
                        name.clone(),
                        Value::obj([
                            ("attempted", Value::Num(w.attempted)),
                            ("failed", Value::Num(w.failed)),
                            ("failed_share", Value::Num(w.failed_share())),
                            ("correct", Value::Bool(w.correct)),
                            ("end_to_end", series(&w.end_to_end)),
                            ("per_layer", series(&w.per_layer)),
                            ("checks", strs(&w.checks)),
                        ]),
                    )
                })),
            ),
            ("warnings", strs(&self.warnings)),
        ])
    }

    /// Read a manifest this writer wrote.
    ///
    /// # Errors
    /// A message naming the first field that is missing or of the wrong type.
    pub fn from_json(doc: &Value) -> Result<Manifest, String> {
        let text = |key: &str| {
            doc.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest: no string `{key}`"))
        };
        let num = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("manifest: no number `{key}`"))
        };
        let nums = |v: &Value, key: &str| -> Result<Vec<f64>, String> {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("manifest: no array `{key}`"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("manifest: `{key}` holds a non-number"))
                })
                .collect()
        };
        let strs = |v: &Value, key: &str| -> Result<Vec<String>, String> {
            Ok(v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("manifest: no array `{key}`"))?
                .iter()
                .filter_map(|x| x.as_str().map(str::to_string))
                .collect())
        };
        let series = |v: &Value, key: &str| -> Result<BTreeMap<String, MetricSeries>, String> {
            v.get(key)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("manifest: no object `{key}`"))?
                .iter()
                .map(|(name, s)| {
                    Ok((
                        name.clone(),
                        MetricSeries {
                            unit: s
                                .get("unit")
                                .and_then(Value::as_str)
                                .ok_or_else(|| format!("manifest: `{name}` has no unit"))?
                                .to_string(),
                            values: nums(s, "values")?,
                            samples: nums(s, "samples")?,
                        },
                    ))
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("manifest: no object `workloads`")?
            .iter()
            .map(|(name, w)| {
                Ok((
                    name.clone(),
                    WorkloadReport {
                        attempted: num(w, "attempted")?,
                        failed: num(w, "failed")?,
                        correct: matches!(w.get("correct"), Some(Value::Bool(true))),
                        end_to_end: series(w, "end_to_end")?,
                        per_layer: series(w, "per_layer")?,
                        checks: strs(w, "checks")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Manifest {
            run_id: text("run_id")?,
            git_rev: text("git_rev")?,
            nproc: num(doc, "nproc")?,
            seed: num(doc, "seed")?,
            seconds: num(doc, "seconds")?,
            runs: num(doc, "runs")?,
            started_at: text("started_at")?,
            workloads,
            warnings: strs(doc, "warnings")?,
        })
    }

    /// Read a manifest file.
    ///
    /// # Errors
    /// The I/O or parse error, with the path.
    pub fn read(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
///
/// # Errors
/// The I/O or parse error, with the path.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no `end_to_end` list", path.display()))?
        .iter()
        .map(|m| {
            match (
                m.get("name").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
            ) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err(format!("{}: a metric lacks name or bound", path.display())),
            }
        })
        .collect()
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better than the base by more than the bound.
    Improved,
    /// Worse than the base by more than the bound.
    Regression,
    /// The run-to-run spread of a side exceeds the bound: no verdict.
    Unresolved,
}

/// Judge `new` against `base`: by how much of the base's median is it worse,
/// and is that — or either side's inter-quartile spread — beyond `bound`?
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Option<(f64, Verdict)> {
    let (a, b) = (stats::median(base)?, stats::median(new)?);
    if a == 0.0 {
        return None;
    }
    let worse = match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => 1.0 - b / a,
    };
    let spread = [base, new]
        .iter()
        .filter_map(|v| stats::spread(v))
        .fold(0.0, f64::max);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    Some((worse, verdict))
}

/// The outcome of comparing two manifests.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One row per (workload, metric), ready to print.
    pub table: String,
    /// (workload, metric) pairs worse than their bound.
    pub regressions: Vec<String>,
    /// (workload, metric) pairs whose spread exceeds their bound; `setup_s`
    /// is exempt, as in the acceptance rule.
    pub unresolved: Vec<String>,
    /// Workloads whose `failed_share` went up.
    pub more_failures: Vec<String>,
}

/// Compare `new` against `base` with the bounds of `BENCHMARK.json`: one row
/// per (workload, metric) with both medians, the ratio and its base.
pub fn compare(base: &Manifest, new: &Manifest, bounds: &BTreeMap<String, f64>) -> Comparison {
    let mut out = Comparison::default();
    let _ = writeln!(
        out.table,
        "{:<18} {:<34} {:>14} {:>14} {:>8} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spr.a", "spr.b", "bound"
    );
    for (name, b) in &new.workloads {
        let Some(a) = base.workload(name) else {
            continue;
        };
        let (fa, fb) = (a.failed_share(), b.failed_share());
        let _ = writeln!(
            out.table,
            "{name:<18} {:<34} {fa:>14.6} {fb:>14.6} {:>8} {:>7} {:>7} {:>7}  {}",
            "failed_share",
            "",
            "",
            "",
            "0",
            if fb > fa { "MORE FAILURES" } else { "same" }
        );
        if fb > fa {
            out.more_failures.push(name.clone());
        }
        for (kind, sa, sb) in [
            ("end_to_end", &a.end_to_end, &b.end_to_end),
            ("per_layer", &a.per_layer, &b.per_layer),
        ] {
            for (metric, series_b) in sb {
                let Some(series_a) = sa.get(metric) else {
                    continue;
                };
                let (Some(ma), Some(mb)) = (series_a.median(), series_b.median()) else {
                    continue;
                };
                let ratio = if ma != 0.0 {
                    format!("{:.4}", mb / ma)
                } else {
                    "-".to_string()
                };
                let spread = |v: &MetricSeries| {
                    stats::spread(&v.values).map_or("-".to_string(), |s| format!("{s:.4}"))
                };
                let def = metrics::find(metric);
                let bound = bounds.get(metric).filter(|_| kind == "end_to_end");
                let verdict = match (def, bound) {
                    (Some(def), Some(&bound)) => {
                        match judge(&series_a.values, &series_b.values, def.better, bound) {
                            Some((_, Verdict::Regression)) => {
                                out.regressions.push(format!("{name}/{metric}"));
                                "REGRESSION"
                            }
                            Some((_, Verdict::Unresolved)) => {
                                if metric != "setup_s" {
                                    out.unresolved.push(format!("{name}/{metric}"));
                                }
                                "unresolved"
                            }
                            Some((_, Verdict::Improved)) => "improved",
                            Some((_, Verdict::Same)) => "same",
                            None => "-",
                        }
                    }
                    _ => "info",
                };
                let _ = writeln!(
                    out.table,
                    "{name:<18} {metric:<34} {ma:>14.4} {mb:>14.4} {ratio:>8} {:>7} {:>7} {:>7}  {verdict}",
                    spread(series_a),
                    spread(series_b),
                    bound.map_or("-".to_string(), |b| format!("{b}")),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_manifest() -> Manifest {
        let mut m = Manifest::start(Path::new("/nonexistent"), 11, 10.0, 2);
        m.warnings
            .push("generator ran late: p99 61.0 ms".to_string());
        let w = m.workload_mut("netflow_select");
        w.attempted = 800_000.0;
        w.checks.push("ok: oracle".to_string());
        w.end_to_end.insert(
            "events_per_s".to_string(),
            MetricSeries {
                unit: "1/s".to_string(),
                values: vec![194_171.25, 198_103.5],
                samples: vec![5.0, 5.0],
            },
        );
        w.per_layer.insert(
            "pipeline.top_down_ms".to_string(),
            MetricSeries {
                unit: "ms".to_string(),
                values: vec![1590.5294859999992],
                samples: vec![2.0],
            },
        );
        m
    }

    #[test]
    fn manifest_round_trips_through_its_own_writer_and_reader() {
        let m = sample_manifest();
        assert_eq!(m.git_rev, "unknown");
        let text = m.to_json().to_pretty();
        let back = Manifest::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        assert!(Manifest::from_json(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn civil_dates() {
        assert_eq!(civil(0), (1970, 1, 1, 0, 0, 0));
        assert_eq!(civil(951_782_400), (2000, 2, 29, 0, 0, 0));
        assert_eq!(civil(1_790_331_072), (2026, 9, 25, 10, 11, 12));
    }

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0];
        // 10 % fewer events per second against a 7 % bound.
        let (worse, v) = judge(&base, &[90.0, 90.5, 89.5, 90.0], Better::Higher, 0.07).unwrap();
        assert!((worse - 0.1).abs() < 1e-9);
        assert_eq!(v, Verdict::Regression);
        // The same numbers as a latency are an improvement.
        let (_, v) = judge(&base, &[90.0, 90.5, 89.5, 90.0], Better::Lower, 0.07).unwrap();
        assert_eq!(v, Verdict::Improved);
        let (_, v) = judge(&base, &[103.0, 104.0, 102.0, 103.0], Better::Lower, 0.07).unwrap();
        assert_eq!(v, Verdict::Same);
        // A side that scatters more than the bound gives no verdict.
        let (_, v) = judge(&base, &[60.0, 120.0, 80.0, 100.0], Better::Higher, 0.07).unwrap();
        assert_eq!(v, Verdict::Unresolved);
        assert!(judge(&[], &[1.0], Better::Lower, 0.1).is_none());
    }

    #[test]
    fn compare_flags_regressions_and_more_failures() {
        let base = sample_manifest();
        let mut new = sample_manifest();
        let w = new.workload_mut("netflow_select");
        w.failed = 10.0;
        w.end_to_end.get_mut("events_per_s").unwrap().values = vec![150_000.0, 151_000.0];
        let bounds = BTreeMap::from([("events_per_s".to_string(), 0.07)]);
        let cmp = compare(&base, &new, &bounds);
        assert_eq!(cmp.regressions, ["netflow_select/events_per_s"]);
        assert_eq!(cmp.more_failures, ["netflow_select"]);
        assert!(cmp.table.contains("pipeline.top_down_ms"));
        let same = compare(&base, &base, &bounds);
        assert!(same.regressions.is_empty() && same.more_failures.is_empty());
    }
}
