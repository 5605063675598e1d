//! Smoke tests for the figure/table benches: every self-printing bench
//! binary's core loop (now library code in `vnpu_bench::figs`) runs at
//! tiny scale, so bench bit-rot — a scenario that panics, asserts, or
//! no longer terminates — is caught by plain `cargo test -q`, not only
//! by the full `cargo bench` pass.
//!
//! The quick mode keeps every structural assertion (isolation,
//! determinism, access patterns) and skips only the paper-scale claim
//! thresholds; see `vnpu_bench::figs` for the per-figure split.

use vnpu_bench::figs;

#[test]
fn smoke_fig03_utilization() {
    figs::fig03_utilization::run(true);
}

#[test]
fn smoke_fig06_mem_trace() {
    figs::fig06_mem_trace::run(true);
}

#[test]
fn smoke_fig11_rt_config() {
    figs::fig11_rt_config::run(true);
}

#[test]
fn smoke_fig12_inst_dispatch() {
    figs::fig12_inst_dispatch::run(true);
}

#[test]
fn smoke_fig13_broadcast() {
    figs::fig13_broadcast::run(true);
}

#[test]
fn smoke_fig14_mem_virt() {
    figs::fig14_mem_virt::run(true);
}

#[test]
fn smoke_fig15_vnpu_vs_uvm() {
    figs::fig15_vnpu_vs_uvm::run(true);
}

#[test]
fn smoke_fig16_vnpu_vs_mig() {
    figs::fig16_vnpu_vs_mig::run(true);
}

#[test]
fn smoke_fig18_topo_mapping() {
    figs::fig18_topo_mapping::run(true);
}

#[test]
fn smoke_fig19_hw_cost() {
    figs::fig19_hw_cost::run(true);
}

#[test]
fn smoke_table3_vrouter_noc() {
    figs::table3_vrouter_noc::run(true);
}

#[test]
fn smoke_ablation_fragmentation() {
    figs::ablation_fragmentation::run(true);
}

#[test]
fn smoke_ablation_gnn_random_access() {
    figs::ablation_gnn_random_access::run(true);
}

#[test]
fn smoke_ablation_hybrid_cores() {
    figs::ablation_hybrid_cores::run(true);
}

#[test]
fn smoke_ablation_noc_isolation() {
    figs::ablation_noc_isolation::run(true);
}

#[test]
fn smoke_ablation_tlb_sweep() {
    figs::ablation_tlb_sweep::run(true);
}
