//! **Figure 12** — latency of NPU instruction dispatch via the vRouter:
//! IBUS vs. per-core instruction-NoC latency, against Conv/Matmul kernel
//! execution times.
//!
//! Paper result: IBUS is shortest and fixed; NoC#1..8 varies slightly
//! with distance; both are two to three orders of magnitude below kernel
//! execution, so routing latency is negligible.

use crate::render_table;
use vnpu_sim::compute::kernel_cycles;
use vnpu_sim::controller::{dispatch_latency, DispatchPath};
use vnpu_sim::SocConfig;
use vnpu_workloads::kernels;

/// Pure cost-model arithmetic.
pub fn run() -> String {
    let cfg = SocConfig::fpga();
    let mut rows = vec![vec![
        "IBUS".to_owned(),
        dispatch_latency(&cfg, DispatchPath::InstructionBus, 0).to_string(),
    ]];
    for core in 0..cfg.core_count() {
        rows.push(vec![
            format!("NoC#{}", core + 1),
            dispatch_latency(&cfg, DispatchPath::InstructionNoc, core).to_string(),
        ]);
    }
    let conv = kernel_cycles(&cfg, &kernels::conv_32hw_16c_16oc_3k());
    let matmul = kernel_cycles(&cfg, &kernels::matmul_128m_128k_128n());
    rows.push(vec!["Conv".to_owned(), conv.to_string()]);
    rows.push(vec!["Matmul".to_owned(), matmul.to_string()]);
    let mut out = render_table(
        "Figure 12: instruction dispatch latency vs. kernel execution (clocks)",
        &["path", "clocks"],
        &rows,
    );

    let worst_noc = (0..cfg.core_count())
        .map(|c| dispatch_latency(&cfg, DispatchPath::InstructionNoc, c))
        .max()
        .unwrap();
    out += &format!(
        "\nWorst dispatch = {worst_noc} clocks; Conv = {conv} clocks \
         ({}x) — dispatch cost is negligible, as in the paper.\n",
        conv / worst_noc
    );
    assert!(
        conv / worst_noc > 100,
        "kernels must dominate by 2-3 orders"
    );
    assert!(
        dispatch_latency(&cfg, DispatchPath::InstructionBus, 7)
            <= dispatch_latency(&cfg, DispatchPath::InstructionNoc, 7),
        "IBUS is the shortest fixed path"
    );
    out
}
