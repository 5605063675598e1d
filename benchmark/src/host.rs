//! What the numbers were measured on: the stamp every output file
//! carries, and this process's peak resident memory.

use crate::json::Json;
use std::process::Command;

/// Peak resident set size of this process (`VmHWM`), in MiB; `None`
/// where `/proc` does not offer it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hardware threads the host offers (1 when it will not say).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line of a helper program's output, or `"unknown"`: the stamp
/// must never fail a run (the driver's checkout is not a git
/// repository).
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The host stamp: parallelism, git revision and compiler.
pub fn stamp() -> Vec<(String, Json)> {
    let text = |key: &str, value: String| (key.to_owned(), Json::Str(value));
    vec![
        (
            "available_parallelism".to_owned(),
            Json::Num(available_parallelism() as f64),
        ),
        text("git_rev", first_line("git", &["rev-parse", "HEAD"])),
        text("rustc", first_line("rustc", &["--version"])),
    ]
}
