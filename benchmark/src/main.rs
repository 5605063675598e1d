//! The vNPU stack's benchmark: five named workloads, end-to-end metrics
//! from an untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! vnpu_benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! vnpu_benchmark run     [--seed N] [--smoke] [--out F]   3 runs per workload (1 in smoke mode)
//! vnpu_benchmark trace   [--seed N] [--smoke] [--out F]   1 traced run per workload
//! vnpu_benchmark compare A.json B.json
//! ```
//!
//! One run is one process, so `peak_rss_mib` is the workload's own; `run`
//! and `trace` start one child per (workload, repetition), one at a time.
//! The last line of a run's standard output is its result as one JSON
//! object; see `README.md` beside this package for the metrics.

mod alloc;
mod api;
mod bench;
mod host;
mod json;
mod metrics;
mod micro;
mod paper;
mod replay;
mod serve_load;
mod span;
mod stats;
mod suite;

use bench::RunArgs;
use json::Json;
use metrics::{RUN_SECONDS, WORKLOADS};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Where span files and suite results go, relative to the directory the
/// benchmark is started from (the repository root).
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  vnpu_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  vnpu_benchmark run   [--seed n] [--smoke] [--out file]
  vnpu_benchmark trace [--seed n] [--smoke] [--out file]
  vnpu_benchmark compare <a.json> <b.json>
workloads: churn_1chip fleet16_exec place_hot reconfig_storm paper_static";

/// `--flag value` pairs and bare flags, checked against what the mode
/// accepts.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                out.push((arg.clone(), Some(value.clone())));
            } else if bare.contains(&arg.as_str()) {
                out.push((arg.clone(), None));
            } else {
                return Err(format!("unknown argument {arg}"));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: bad value {v}")),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite_mode(&args[1..], false),
        Some("trace") => suite_mode(&args[1..], true),
        Some("compare") => match &args[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("compare takes two result files".to_owned()),
        },
        Some(flag) if flag.starts_with("--") => one_run(&args),
        _ => Err(String::new()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn suite_mode(args: &[String], trace: bool) -> Result<bool, String> {
    let flags = Flags::parse(args, &["--seed", "--out"], &["--smoke"])?;
    let options = suite::Options {
        trace,
        seed: flags.number("--seed", 11)?,
        smoke: flags.has("--smoke"),
        out: flags.value("--out").map(str::to_owned),
    };
    suite::run(&options)
}

/// The driver's form: one workload, one seed, this process.
fn one_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--smoke"],
    )?;
    let run = RunArgs {
        workload: flags
            .value("--workload")
            .ok_or("--workload is required")?
            .to_owned(),
        seed: flags.number("--seed", 11)?,
        seconds: flags.number("--seconds", RUN_SECONDS as f64)?,
        trace: match flags.value("--trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(v) => return Err(format!("--trace: bad value {v}")),
        },
        smoke: flags.has("--smoke"),
    };
    if !(run.seconds >= 0.0 && run.seconds <= 600.0) {
        return Err(format!("--seconds: {} is out of range", run.seconds));
    }
    let outcome = bench::run(&run).ok_or(format!("unknown workload {}", run.workload))?;

    println!(
        "# {} seed {} seconds {} trace {}{}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        if run.smoke { " (smoke)" } else { "" }
    );
    if let Some(workload) = WORKLOADS.iter().find(|w| w.name == run.workload) {
        println!("# why: {}", workload.why);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    // Every metric of the mode by name, with its unit. A metric of a
    // layer the workload never enters is absent; an end-to-end metric
    // can only be missing when the run failed.
    let rows: Vec<(&str, &str, Option<f64>)> = metrics::catalogue(run.trace)
        .into_iter()
        .map(|(name, unit)| (name, unit, outcome.metrics.get(name).copied()))
        .collect();
    for (name, unit, value) in &rows {
        // An end-to-end metric shows the bound the driver holds it to.
        let bound = metrics::END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or(String::new(), |m| format!("  (bound {})", m.bound));
        match value {
            Some(value) => println!("{name:<34} {value:>18.6} {unit}{bound}"),
            None => println!("{name:<34} {:>18} {unit}", "-"),
        }
    }
    let absent: Vec<&str> = rows
        .iter()
        .filter(|(_, _, value)| value.is_none())
        .map(|&(name, _, _)| name)
        .collect();
    if !absent.is_empty() {
        println!("absent {}", absent.join(" "));
    }
    println!("model_digest {:#018x}", outcome.model_digest);
    for failure in &outcome.failures {
        println!("GATE FAILED: {failure}");
    }
    if run.trace {
        let path = format!("{OUT_DIR}/trace-{}.json", run.workload);
        let file = span::to_json(&run.workload, run.seed, &outcome.spans);
        match std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, file.to_compact()))
        {
            Ok(()) => println!("# {} spans written to {path}", outcome.spans.len()),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            // The driver wants every metric of the mode on this line; an
            // absent one reads 0 here and is listed on the `absent` line.
            Json::obj(rows.iter().map(|&(name, unit, value)| {
                let value = Json::Num(value.unwrap_or(0.0));
                (
                    name,
                    Json::obj([("value", value), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ]);
    println!("{}", result.to_compact());
    Ok(outcome.correct())
}
