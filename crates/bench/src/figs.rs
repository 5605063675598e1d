//! The paper's figures, tables and ablations, one module each.
//!
//! Each submodule exposes `run() -> String`: it runs its scenario at
//! paper scale, asserts the paper's claims (the orderings and margins
//! the figure exists to show) along with its invariants (determinism,
//! access patterns, isolation), and returns the rendered rows. [`ALL`]
//! lists them in the order of the `FIGURES.txt` ledger, which the `figs`
//! binary prints and `tests/figures.rs` pins byte for byte.
//!
//! Figures 14, 15 and 16 also export the function that builds and runs
//! one of their cells (`cell`), so `tests/baselines.rs` pins the very
//! cells the figures print.

pub mod ablation_fragmentation;
pub mod ablation_gnn_random_access;
pub mod ablation_hybrid_cores;
pub mod ablation_noc_isolation;
pub mod ablation_tlb_sweep;
pub mod fig03_utilization;
pub mod fig06_mem_trace;
pub mod fig11_rt_config;
pub mod fig12_inst_dispatch;
pub mod fig13_broadcast;
pub mod fig14_mem_virt;
pub mod fig15_vnpu_vs_uvm;
pub mod fig16_vnpu_vs_mig;
pub mod fig18_topo_mapping;
pub mod fig19_hw_cost;
pub mod table3_vrouter_noc;

/// A reproduction's name and the function that runs and renders it.
pub type Figure = (&'static str, fn() -> String);

/// Every reproduction by name, in ledger order: the figures, Table 3,
/// then the ablations.
pub const ALL: [Figure; 16] = [
    ("fig03_utilization", fig03_utilization::run),
    ("fig06_mem_trace", fig06_mem_trace::run),
    ("fig11_rt_config", fig11_rt_config::run),
    ("fig12_inst_dispatch", fig12_inst_dispatch::run),
    ("fig13_broadcast", fig13_broadcast::run),
    ("fig14_mem_virt", fig14_mem_virt::run),
    ("fig15_vnpu_vs_uvm", fig15_vnpu_vs_uvm::run),
    ("fig16_vnpu_vs_mig", fig16_vnpu_vs_mig::run),
    ("fig18_topo_mapping", fig18_topo_mapping::run),
    ("fig19_hw_cost", fig19_hw_cost::run),
    ("table3_vrouter_noc", table3_vrouter_noc::run),
    ("ablation_fragmentation", ablation_fragmentation::run),
    (
        "ablation_gnn_random_access",
        ablation_gnn_random_access::run,
    ),
    ("ablation_hybrid_cores", ablation_hybrid_cores::run),
    ("ablation_noc_isolation", ablation_noc_isolation::run),
    ("ablation_tlb_sweep", ablation_tlb_sweep::run),
];
