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

#[test]
fn smoke_serving_churn() {
    figs::serving_churn::run(true);
}

#[test]
fn smoke_cluster_churn() {
    figs::cluster_churn::run(true);
}

#[test]
fn smoke_defrag_churn() {
    figs::defrag_churn::run(true);
}

#[test]
fn smoke_drain_maintenance() {
    figs::drain_maintenance::run(true);
}

#[test]
fn smoke_fault_recovery() {
    figs::fault_recovery::run(true);
}

#[test]
fn smoke_temporal_check() {
    figs::temporal_check::run(true);
}

/// The micro-benchmark harness itself, in quick mode: the same bench
/// functions `benches/micro_criterion.rs` registers must measure and
/// record without panicking.
#[test]
fn smoke_micro_criterion_harness() {
    let mut c = vnpu_bench::harness::Criterion::with_quick(true);
    let mut g = c.benchmark_group("smoke");
    g.sample_size(3)
        .bench_function("noop", |b| b.iter(|| 1 + 1));
    g.finish();
    assert_eq!(c.records().len(), 1);
    assert!(c.to_json().contains("smoke/noop"));
}
