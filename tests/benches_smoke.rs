//! One test per reproduction in `vnpu_bench::figs::ALL`: each runs its
//! figure, table or ablation at paper scale — so its claim assertions
//! fire under a test named after it — and requires the rendered rows to
//! appear verbatim in the committed `FIGURES.txt`. `tests/figures.rs`
//! additionally holds the ledger to all sixteen, in order, and nothing
//! else.

use vnpu_bench::figs::ALL;

const LEDGER: &str = include_str!("../FIGURES.txt");

/// Runs the reproduction called `name` and checks it against the ledger.
fn pinned(name: &str) {
    let (_, run) = ALL
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in figs::ALL"));
    let rendered = run();
    assert!(!rendered.is_empty(), "{name} rendered nothing");
    assert!(
        LEDGER.contains(rendered.as_str()),
        "{name}'s output is not in FIGURES.txt; run tests/figures.rs for the first differing line"
    );
}

#[test]
fn smoke_fig03_utilization() {
    pinned("fig03_utilization");
}

#[test]
fn smoke_fig06_mem_trace() {
    pinned("fig06_mem_trace");
}

#[test]
fn smoke_fig11_rt_config() {
    pinned("fig11_rt_config");
}

#[test]
fn smoke_fig12_inst_dispatch() {
    pinned("fig12_inst_dispatch");
}

#[test]
fn smoke_fig13_broadcast() {
    pinned("fig13_broadcast");
}

#[test]
fn smoke_fig14_mem_virt() {
    pinned("fig14_mem_virt");
}

#[test]
fn smoke_fig15_vnpu_vs_uvm() {
    pinned("fig15_vnpu_vs_uvm");
}

#[test]
fn smoke_fig16_vnpu_vs_mig() {
    pinned("fig16_vnpu_vs_mig");
}

#[test]
fn smoke_fig18_topo_mapping() {
    pinned("fig18_topo_mapping");
}

#[test]
fn smoke_fig19_hw_cost() {
    pinned("fig19_hw_cost");
}

#[test]
fn smoke_table3_vrouter_noc() {
    pinned("table3_vrouter_noc");
}

#[test]
fn smoke_ablation_fragmentation() {
    pinned("ablation_fragmentation");
}

#[test]
fn smoke_ablation_gnn_random_access() {
    pinned("ablation_gnn_random_access");
}

#[test]
fn smoke_ablation_hybrid_cores() {
    pinned("ablation_hybrid_cores");
}

#[test]
fn smoke_ablation_noc_isolation() {
    pinned("ablation_noc_isolation");
}

#[test]
fn smoke_ablation_tlb_sweep() {
    pinned("ablation_tlb_sweep");
}
