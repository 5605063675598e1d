//! Prints the paper's figures, tables and ablations at paper scale —
//! every one, in ledger order, or only the ones named — exactly as the
//! committed `FIGURES.txt` records them.
//!
//! ```text
//! cargo run --release -p vnpu_bench --bin figs                    # all sixteen
//! cargo run --release -p vnpu_bench --bin figs fig18_topo_mapping # one
//! ```
//!
//! An unknown name lists the valid ones on stderr and exits with status 2.

use std::process::ExitCode;
use vnpu_bench::figs::ALL;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut chosen = Vec::new();
    for name in &names {
        let Some(&(_, run)) = ALL.iter().find(|(n, _)| n == name) else {
            let valid: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
            eprintln!("figs: unknown figure `{name}`; valid: {}", valid.join(" "));
            return ExitCode::from(2);
        };
        chosen.push(run);
    }
    if names.is_empty() {
        chosen = ALL.iter().map(|&(_, run)| run).collect();
    }
    for run in chosen {
        print!("{}", run());
    }
    ExitCode::SUCCESS
}
