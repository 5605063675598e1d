//! The core loop of every figure/table bench, as library code.
//!
//! Each submodule exposes `run(quick: bool)`. The bench binaries under
//! `benches/` are thin wrappers calling `run(crate::quick_from_env())` —
//! full paper scale by default, asserting the paper's claims, or the fast
//! mode under `-- --quick` — while `tests/benches_smoke.rs` calls
//! `run(true)`: tiny workloads, structural sanity asserts only, so bench
//! bit-rot — not just compile rot — is caught by `cargo test -q`.
//!
//! Scale-dependent claim assertions (e.g. "vRouter beats UVM-sync by
//! 4x") are gated on `!quick`; invariant assertions (determinism,
//! monotonic access patterns, isolation) run in both modes.
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
