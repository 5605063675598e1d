//! The suite modes: `run` and `trace` start one child process per
//! (workload, repetition) — so each `peak_rss_mib` is one workload's own
//! — gather the children's result lines into one stamped file, and
//! `compare` judges two such files by the catalogue's bounds.

use crate::host;
use crate::json::{self, Json};
use crate::metrics::{unit_of, Better, Limit, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::serve_load::{SERVE_WORKLOADS, WARMUP_TICKS};
use crate::stats::{median, quartile_spread};
use crate::OUT_DIR;
use std::process::{Command, Stdio};

/// What a suite run does.
#[derive(Debug)]
pub struct Options {
    /// Traced runs (per-layer metrics) instead of untraced ones.
    pub trace: bool,
    /// Seed of every run.
    pub seed: u64,
    /// Smoke mode: one short stream per run, one repetition.
    pub smoke: bool,
    /// Result file (default `benchmark/out/{run,trace}.json`).
    pub out: Option<String>,
}

/// What one child reported.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    digest: String,
    metrics: Vec<(String, f64)>,
}

/// Starts one run as a child of this executable and waits for it; its
/// report goes to our stdout, its result line is parsed.
fn child(workload: &str, opts: &Options) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    let digest = lines
        .iter()
        .find_map(|l| l.strip_prefix("model_digest "))
        .unwrap_or("unknown")
        .to_owned();
    for line in lines
        .iter()
        .filter(|l| l.starts_with("GATE FAILED") || l.starts_with('#'))
    {
        println!("    {line}");
    }
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload}: no result line ({e}); exit status {}",
            output.status
        )
    })?;
    // The result line names every metric of the mode; the ones this
    // workload does not produce stay out of the file.
    let absent: Vec<&str> = lines
        .iter()
        .find_map(|l| l.strip_prefix("absent "))
        .map(|names| names.split_whitespace().collect())
        .unwrap_or_default();
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .filter(|(name, _)| !absent.contains(&name.as_str()))
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: result.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
        digest,
        metrics,
    })
}

/// Runs every workload — three times, or once when traced or in smoke
/// mode — and writes the stamped result file. `Ok(false)` when a run was
/// incorrect.
///
/// # Errors
///
/// A child that could not be started or printed no result.
pub fn run(opts: &Options) -> Result<bool, String> {
    let mode = if opts.trace { "trace" } else { "run" };
    let reps = if opts.trace || opts.smoke { 1 } else { 3 };
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in &WORKLOADS {
        let mut runs = Vec::new();
        for rep in 0..reps {
            println!("== {mode} {} rep {rep} seed {}", workload.name, opts.seed);
            runs.push(child(workload.name, opts)?);
        }
        let correct = runs.iter().all(|r| r.correct);
        all_correct &= correct;
        let mut digests: Vec<&str> = runs.iter().map(|r| r.digest.as_str()).collect();
        digests.dedup();
        let names: Vec<&String> = runs[0].metrics.iter().map(|(n, _)| n).collect();
        let mut rows = Vec::new();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "  {name:<34} {:>16.4} {:<12} min {lo:.4} max {hi:.4} n {} spread {:.4}",
                median(&values),
                unit_of(name),
                values.len(),
                quartile_spread(&values),
            );
            rows.push((
                name.clone(),
                Json::obj([
                    ("unit", Json::str(unit_of(name))),
                    ("median", Json::Num(median(&values))),
                    ("min", Json::Num(lo)),
                    ("max", Json::Num(hi)),
                    ("n", Json::Num(values.len() as f64)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ]),
            ));
        }
        println!("  correct {correct}  model_digest {}", digests.join(" / "));
        results.push((
            workload.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(runs.iter().map(|r| r.attempted).sum()),
                ),
                ("failed", Json::Num(runs.iter().map(|r| r.failed).sum())),
                (
                    "model_digest",
                    Json::Arr(digests.into_iter().map(Json::str).collect()),
                ),
                ("metrics", Json::Obj(rows)),
            ]),
        ));
    }

    let mut stamp = host::stamp();
    stamp.extend([
        ("mode".to_owned(), Json::str(mode)),
        ("seed".to_owned(), Json::Num(opts.seed as f64)),
        ("seconds".to_owned(), Json::Num(RUN_SECONDS as f64)),
        ("repetitions".to_owned(), Json::Num(f64::from(reps))),
        ("smoke".to_owned(), Json::Bool(opts.smoke)),
        ("workers".to_owned(), Json::Num(1.0)),
        ("warmup_ticks".to_owned(), Json::Num(WARMUP_TICKS as f64)),
        (
            "round_ticks".to_owned(),
            Json::obj(
                SERVE_WORKLOADS
                    .iter()
                    .map(|w| (w.name, Json::Num(w.ticks(opts.smoke) as f64))),
            ),
        ),
    ]);
    let file = Json::obj([("stamp", Json::Obj(stamp)), ("results", Json::obj(results))]);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/{mode}.json"));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("== written {path}; every run correct: {all_correct}");
    Ok(all_correct)
}

/// One side of a comparison: the values of `metric` on `workload`.
fn values_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values = file
        .get("results")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    Some(values.iter().filter_map(Json::as_f64).collect())
}

/// The verdict on one (metric, workload) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the limit of A's.
    Pass,
    /// B's median is behind A's by more than the limit.
    Worse,
    /// A side's run-to-run spread is wider than the limit's share and the
    /// sides' runs overlap: the cell says nothing either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judges B against A: `worse_by` is the share of A's median by which
/// B's is behind (negative when ahead).
pub fn judge(a: &[f64], b: &[f64], better: Better, limit: Limit) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let behind = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let worse_by = behind / ma.abs();
    let every_b_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if limit.share > 0.0 && spread > limit.share && !every_b_better {
        Verdict::Unresolved
    } else if worse_by > limit.share && behind > limit.floor {
        Verdict::Worse
    } else {
        Verdict::Pass
    };
    (worse_by, verdict)
}

/// A limit as the `limit` column shows it.
fn limit_text(limit: Limit) -> String {
    match (limit.share > 0.0, limit.floor > 0.0) {
        (true, true) => format!("{} & {}", limit.share, limit.floor),
        (true, false) => format!("{}", limit.share),
        (false, true) => format!("abs {}", limit.floor),
        (false, false) => "no more".to_owned(),
    }
}

/// The stamp fields that fix what a run measured. Two files differing in
/// one of them hold different work, and `compare` refuses them.
const SAME_WORK: [&str; 6] = [
    "mode",
    "seed",
    "seconds",
    "smoke",
    "warmup_ticks",
    "round_ticks",
];

/// Prints one row per (metric, workload) with both medians, the ratio
/// with its base, the limit and the verdict. `Ok(false)` when any cell
/// is `WORSE`.
///
/// # Errors
///
/// A file that cannot be read or is not a result file, or two files that
/// did not measure the same work.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in SAME_WORK {
        let of = |file: &Json| file.get("stamp").and_then(|s| s.get(key)).cloned();
        let (va, vb) = (of(&a), of(&b));
        if va.is_none() || va != vb {
            return Err(format!(
                "the files did not measure the same work: stamp `{key}` is {} in A and {} in B",
                va.map_or("missing".to_owned(), |v| v.to_compact()),
                vb.map_or("missing".to_owned(), |v| v.to_compact()),
            ));
        }
    }
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>9} {:>11}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "limit"
    );
    let mut any_worse = false;
    let mut compared = 0;
    for workload in &WORKLOADS {
        let rows = END_TO_END
            .iter()
            .map(|m| (m.name, m.better, Some(m.limit)))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.better, m.limit)));
        for (metric, better, limit) in rows {
            let (Some(va), Some(vb)) = (
                values_of(&a, workload.name, metric),
                values_of(&b, workload.name, metric),
            ) else {
                continue;
            };
            compared += 1;
            // A layer's timing carries no limit: its row shows the move,
            // which way is better, and whether a count repeated exactly.
            let (limit, verdict) = match limit {
                Some(limit) => {
                    let verdict = judge(&va, &vb, better, limit).1;
                    any_worse |= verdict == Verdict::Worse;
                    (limit_text(limit), verdict.as_str())
                }
                None => (
                    better.as_str().to_owned(),
                    if va == vb { "EQUAL" } else { "-" },
                ),
            };
            let (ma, mb) = (median(&va), median(&vb));
            let ratio = if ma == 0.0 {
                "-".to_owned()
            } else {
                format!("{:.4}", mb / ma)
            };
            println!(
                "{:<16} {metric:<28} {ma:>14.4} {mb:>14.4} {ratio:>9} {limit:>11}  {verdict}",
                workload.name
            );
        }
    }
    if compared == 0 {
        return Err("the two files share no (metric, workload) cell".to_owned());
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_limit_direction_and_spread() {
        let share = |share| Limit { share, floor: 0.0 };
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +20% is worse than a 10% bound, +5% is not.
        let slow = steady.map(|v| v * 1.2);
        assert_eq!(
            judge(&steady, &slow, Better::Lower, share(0.1)).1,
            Verdict::Worse
        );
        let near = steady.map(|v| v * 1.05);
        assert_eq!(
            judge(&steady, &near, Better::Lower, share(0.1)).1,
            Verdict::Pass
        );
        // Higher is better: the same move reads the other way.
        assert_eq!(
            judge(&steady, &slow, Better::Higher, share(0.1)).1,
            Verdict::Pass
        );
        let low = steady.map(|v| v * 0.8);
        let (worse_by, verdict) = judge(&steady, &low, Better::Higher, share(0.1));
        assert!((worse_by - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Worse);
        // A spread wider than the bound resolves nothing…
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(
            judge(&noisy, &slow, Better::Lower, share(0.1)).1,
            Verdict::Unresolved
        );
        // …unless every run of B beats every run of A.
        let fast = [10.0, 11.0, 12.0];
        assert_eq!(
            judge(&noisy, &fast, Better::Lower, share(0.1)).1,
            Verdict::Pass
        );
        // A floor spares a move that is large as a share but small in
        // the metric's unit (set-up time of a few milliseconds)…
        let floored = Limit {
            share: 0.25,
            floor: 0.05,
        };
        assert_eq!(
            judge(&[0.006], &[0.009], Better::Lower, floored).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(&[1.0], &[1.3], Better::Lower, floored).1,
            Verdict::Worse
        );
        // …and alone it is an absolute limit, also from a base of 0.
        let absolute = Limit {
            share: 0.0,
            floor: 0.002,
        };
        assert_eq!(
            judge(&[0.0], &[0.001], Better::Lower, absolute).1,
            Verdict::Pass
        );
        assert_eq!(
            judge(&[0.0], &[0.003], Better::Lower, absolute).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[0.0], &[0.0], Better::Lower, absolute).1,
            Verdict::Pass
        );
    }

    #[test]
    fn compare_refuses_files_of_different_work() {
        let dir = std::env::temp_dir();
        let file = |name: &str, seconds: u32| {
            let path = dir.join(format!("vnpu_benchmark_{}_{name}", std::process::id()));
            let text = format!(
                r#"{{"stamp":{{"mode":"run","seed":11,"seconds":{seconds},"smoke":false,
                "warmup_ticks":200,"round_ticks":{{"place_hot":50000}}}},
                "results":{{"place_hot":{{"metrics":{{"ops_per_s":{{"values":[1,2,3]}}}}}}}}}}"#
            );
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let (a, b, c) = (file("a", 16), file("b", 16), file("c", 8));
        assert_eq!(compare(&a, &b), Ok(true));
        let refused = compare(&a, &c).unwrap_err();
        assert!(refused.contains("`seconds`"), "{refused}");
        for path in [a, b, c] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn values_are_found_by_workload_and_metric() {
        let file = json::parse(
            r#"{"results":{"place_hot":{"metrics":{"ops_per_s":{"values":[1,2,3]}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            values_of(&file, "place_hot", "ops_per_s"),
            Some(vec![1.0, 2.0, 3.0])
        );
        assert_eq!(values_of(&file, "place_hot", "setup_s"), None);
        assert_eq!(values_of(&file, "churn_1chip", "ops_per_s"), None);
    }
}
