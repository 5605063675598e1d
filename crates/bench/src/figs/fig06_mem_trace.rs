//! **Figure 6** — the trace of accessed global-memory addresses for the
//! ResNet workload across NPU cores and iterations.
//!
//! Paper result: within one iteration each core's accessed weight
//! addresses increase monotonically (Pattern-2); across iterations the
//! same address sequence repeats (Pattern-3). These two patterns are what
//! vChunk's `RTT_CUR` and `last_v` exploit.

use crate::render_table;
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CompileOptions, Residency};
use vnpu_workloads::models;

/// Replays the streamed model and checks Pattern-2/Pattern-3.
pub fn run() -> String {
    let iterations: u32 = 3;
    let cores: u32 = 4;
    let cfg = SocConfig::fpga();
    let model = models::resnet50();
    let opts = CompileOptions {
        iterations,
        residency: Residency::Streamed,
        ..Default::default()
    };
    let out = compile(&model, cores, &cfg, &opts).expect("compile");
    let mut machine = Machine::new(cfg.clone());
    machine.enable_mem_trace();
    let tenant = machine.add_tenant(model.name());
    for (c, p) in out.programs.iter().enumerate() {
        machine
            .bind(c as u32, tenant, c as u32, p.clone())
            .expect("bind");
    }
    let report = machine.run().expect("run");
    let trace = report.mem_trace();
    assert!(!trace.is_empty(), "mem trace must be recorded");

    // Split per core, then per iteration (address resets mark boundaries).
    let mut rows = Vec::new();
    for core in 0..cores {
        let accesses: Vec<(u64, u64)> = trace
            .iter()
            .filter(|(_, c, _)| *c == core)
            .map(|(t, _, va)| (*t, *va))
            .collect();
        if accesses.is_empty() {
            continue;
        }
        // Iteration boundaries: where the address strictly drops.
        let mut iters: Vec<Vec<u64>> = vec![Vec::new()];
        for w in accesses.windows(2) {
            iters.last_mut().unwrap().push(w[0].1);
            if w[1].1 < w[0].1 {
                iters.push(Vec::new());
            }
        }
        iters.last_mut().unwrap().push(accesses.last().unwrap().1);

        // Pattern-2: monotonic within each iteration.
        let monotonic = iters.iter().all(|it| it.windows(2).all(|w| w[1] >= w[0]));
        // Pattern-3: identical sequences across iterations.
        let repeating = iters.windows(2).all(|w| w[0] == w[1]);
        rows.push(vec![
            format!("core {core}"),
            accesses.len().to_string(),
            iters.len().to_string(),
            format!("{:#x}", iters[0].first().copied().unwrap_or(0)),
            format!("{:#x}", iters[0].last().copied().unwrap_or(0)),
            monotonic.to_string(),
            repeating.to_string(),
        ]);
        assert!(monotonic, "core {core}: Pattern-2 must hold");
        assert!(repeating, "core {core}: Pattern-3 must hold");
        assert_eq!(iters.len() as u32, iterations, "one sweep per iteration");
    }
    let mut out = render_table(
        &format!(
            "Figure 6: per-core global-memory access trace ({}, {iterations} iterations)",
            model.name()
        ),
        &[
            "core",
            "accesses",
            "sweeps",
            "first VA",
            "last VA",
            "monotonic",
            "repeating",
        ],
        &rows,
    );
    out += "\nEvery core sweeps its weight range monotonically within an iteration and \
            repeats it across iterations — the patterns vChunk exploits (§4.2).\n";
    out
}
