//! The workspace API surface of the benchmark, in one place.
//!
//! Every item the benchmark takes from the repository's crates is
//! re-exported here and nowhere else: the other modules import from
//! `crate::api`, so a later change that renames or deletes a public
//! function shows up as one broken line in this file. The benchmark
//! measures each layer **from outside**, by timing calls into these
//! functions; nothing here reaches into a crate's private state.
//!
//! Configurations are built with a constructor followed by plain field
//! assignment (`ServeConfig::cluster(..)` then fields), never with
//! struct-update syntax over private defaults, so a new field with a
//! default does not break the build.
//!
//! Deliberately absent — the ROADMAP marks them for deletion:
//! `Hypervisor::submit`, `Hypervisor::process_admissions[_in]` and
//! `vnpu_topo::cache::ShardedMappingCache`.
//!
//! | layer (crate) | functions called |
//! |---|---|
//! | `vnpu_serve` | `ServeConfig::cluster`, `ServeConfig::temporal_checker_config`, `ServeRuntime::{new, step, drain, report, cluster, begin_drain, complete_drain, undrain, trace, trace_with_claim}`, `ServeReport::to_json`, `ArrivalGenerator::{new, arrivals_for_tick}` |
//! | `vnpu` (core) | `Hypervisor::{with_hbm_bytes, new, create_vnpu, create_vnpu_in, destroy_vnpu, plan, commit, services, free_set, topology, phys_key, topology_generation, total_config_cycles, vnpu, vnpu_count}`, `VirtualNpu::{core_count, phys_core}`, `VnpuRequest::{mesh, cores, mem_bytes, topology, strategy_ref}`, `MigPartitioner::{standard, allocate}`, `Cluster::chip`, `LeastLoaded`, `GreedyDefrag` |
//! | `vnpu_topo` | `Mapper::{with_phys_key, at_generation, map_in, map_cached, map_cached_with}`, `MappingCache::with_capacity`, `FreeSet::{occupy_all, release_all}`, `Strategy::similar_topology` |
//! | `vnpu_sim` | `Machine::{new, add_tenant, remove_tenant, bind_with, run, run_epoch, migrate_tenant}`, `Report::{makespan, fps, noc_packets, noc_contention_cycles, hbm_wait_cycles, translation_cycles, translator_stats}`, `SocConfig::{sim, sim48, fpga}` |
//! | `vnpu_mem` | `RangeTranslator::new` / `PageTranslator::new` + `Translate::translate`, `RangeTranslationTable::new`, `PageTable::{new, map_range}`, `BuddyAllocator::{new, alloc, free}` |
//! | `vnpu_workloads` | `compile`, `models::*` |
//! | `vnpu_audit` | `FleetAuditor::{new, audit}` |
//! | `vnpu_temporal` | `TraceFold::{new, observe}`, `check_trace` |
//! | `vnpu_fault` | `FaultPlan::{seeded, is_empty}` |
//! | `vnpu_bench` | `bind_design`, `bind_mig`, `Design` |

pub use vnpu::cluster::LeastLoaded;
pub use vnpu::mig::{MigAllocation, MigPartitioner};
pub use vnpu::plan::{GreedyDefrag, MigrationTarget, PlanOp};
pub use vnpu::vchunk::MemMode;
pub use vnpu::vnpu::GUEST_VA_BASE;
pub use vnpu::vrouter::RoutePolicy;
pub use vnpu::{Hypervisor, VirtCoreId, VmId, VnpuError, VnpuRequest};
pub use vnpu_audit::FleetAuditor;
pub use vnpu_bench::{bind_design, bind_mig, Design};
pub use vnpu_fault::FaultPlan;
pub use vnpu_mem::buddy::BuddyAllocator;
pub use vnpu_mem::page::{PageTable, PageTranslator};
pub use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
pub use vnpu_mem::translate::{Translate, TranslationCosts};
pub use vnpu_mem::{Perm, PhysAddr, VirtAddr};
pub use vnpu_serve::{ArrivalGenerator, ServeConfig, ServeReport, ServeRuntime};
pub use vnpu_sim::isa::{Instr, Program};
pub use vnpu_sim::machine::{Machine, TenantId};
pub use vnpu_sim::{Report, SocConfig};
pub use vnpu_temporal::{check_trace, TraceFold};
pub use vnpu_topo::cache::MappingCache;
pub use vnpu_topo::mapping::{Mapper, Strategy};
pub use vnpu_workloads::compile::{compile, CompileOptions, Residency};
pub use vnpu_workloads::{models, ModelGraph};
