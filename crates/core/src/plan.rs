//! Transactional placement plans — the mutation surface behind live
//! migration and background defragmentation.
//!
//! The paper's Figure 11 path shows a vNPU's cost is dominated by how
//! well its shape matches the free region *at admission time*, and §4.3
//! shows topology lock-in eroding exact-match windows as churn
//! accumulates. Un-doing lock-in needs an operation the bare
//! create/destroy surface cannot express: *move* a running tenant. This
//! module makes that a first-class, costed, atomically-committable
//! operation:
//!
//! * a [`PlanOp`] is one mutation, [`PlanOp::Migrate`]: re-map a
//!   tenant's cores under pin, or compact its HBM blocks (tenants are
//!   created and destroyed directly, through
//!   [`crate::Hypervisor::create_vnpu`] and
//!   [`crate::Hypervisor::destroy_vnpu`]);
//! * [`crate::Hypervisor::commit`] validates a transaction against the
//!   live free region and plan generation, then applies *all* ops or —
//!   on any failure or staleness — none (the hypervisor's observable
//!   state is byte-identical to before the call);
//! * [`crate::Hypervisor::plan`] *is* that commit run on a copy: the
//!   whole op list goes through the commit's op loop — one routine per
//!   migration target, there is no second, simulated one — against a
//!   clone of the chip's placement state, each op keeps the
//!   [`ReconfigCost`] it paid there (routing-table re-deployment cycles,
//!   RTT re-deployment cycles, data-movement bytes, paused-tenant time),
//!   the clone is dropped and the priced list comes back as a
//!   [`PlacementTxn`]. A plan that succeeded therefore commits, at the
//!   planned prices, unless the chip changed in between.
//!
//! On top of the transaction engine, [`Defragmenter`] is the policy
//! trait for background compaction: driven by the per-tick
//! [`FragmentationStats`], it proposes the migration set that re-opens
//! the largest exact-match window, budgeted by [`ReconfigBudget`].
//! [`GreedyDefrag`] ships as the reference policy.

use crate::admission::FragmentationStats;
use crate::hypervisor::Hypervisor;
use crate::ids::VmId;
use std::fmt;
use vnpu_topo::cache::MappingCache;
use vnpu_topo::mapping::Strategy;
use vnpu_topo::NodeId;

/// Bytes of tenant state movable per controller cycle during a live
/// migration (DMA-engine copy bandwidth; matches the simulator's 8 B/cyc
/// HBM channel rate).
pub const MIGRATION_BYTES_PER_CYCLE: u64 = 8;

/// The price of one placement mutation, in the Figure 11 cost dimensions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReconfigCost {
    /// Controller cycles to re-deploy the routing table.
    pub routing_cycles: u64,
    /// Controller cycles to re-deploy range-translation entries.
    pub rtt_cycles: u64,
    /// Tenant state moved (scratchpad working sets for core moves, guest
    /// HBM for memory moves and cross-chip migrations).
    pub data_move_bytes: u64,
    /// Cycles the tenant is paused while its state moves and its
    /// meta-tables are rewritten.
    pub paused_cycles: u64,
}

impl ReconfigCost {
    /// Meta-table configuration cycles (routing + RTT) — the part charged
    /// to the hypervisor's Figure 11 configuration counter.
    pub fn config_cycles(&self) -> u64 {
        self.routing_cycles + self.rtt_cycles
    }

    /// Element-wise sum.
    pub fn plus(self, other: ReconfigCost) -> ReconfigCost {
        ReconfigCost {
            routing_cycles: self.routing_cycles + other.routing_cycles,
            rtt_cycles: self.rtt_cycles + other.rtt_cycles,
            data_move_bytes: self.data_move_bytes + other.data_move_bytes,
            paused_cycles: self.paused_cycles + other.paused_cycles,
        }
    }

    /// Whether this op costs nothing (a planned no-op).
    pub fn is_zero(&self) -> bool {
        *self == ReconfigCost::default()
    }

    /// The cost of moving `bytes` of tenant state plus rewriting the
    /// given meta-table cycles, with the pause covering both.
    pub(crate) fn for_move(routing_cycles: u64, rtt_cycles: u64, data_move_bytes: u64) -> Self {
        ReconfigCost {
            routing_cycles,
            rtt_cycles,
            data_move_bytes,
            paused_cycles: routing_cycles
                + rtt_cycles
                + data_move_bytes.div_ceil(MIGRATION_BYTES_PER_CYCLE),
        }
    }
}

/// How much reconfiguration a defragmentation pass may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigBudget {
    /// Migrations per pass (core moves and memory compactions count
    /// alike).
    pub max_migrations: usize,
    /// Total paused-tenant cycles per pass.
    pub max_paused_cycles: u64,
    /// Total data moved per pass.
    pub max_data_move_bytes: u64,
}

impl Default for ReconfigBudget {
    fn default() -> Self {
        ReconfigBudget {
            max_migrations: 4,
            max_paused_cycles: 50_000_000,
            max_data_move_bytes: 1 << 30,
        }
    }
}

impl ReconfigBudget {
    /// Whether a pass that has already committed `total` over
    /// `migrations` ops can afford one more op costing `next`.
    pub fn admits(&self, total: &ReconfigCost, migrations: usize, next: &ReconfigCost) -> bool {
        migrations < self.max_migrations
            && total.paused_cycles + next.paused_cycles <= self.max_paused_cycles
            && total.data_move_bytes + next.data_move_bytes <= self.max_data_move_bytes
    }
}

/// Where a [`PlanOp::Migrate`] moves the tenant.
#[derive(Debug, Clone)]
pub enum MigrationTarget {
    /// Re-map the tenant's virtual topology against the free region
    /// *plus its own current cores* (remap-under-pin) with the given
    /// strategy, re-deploying its routing table onto the new cores. The
    /// plan resolves to a no-op when the best mapping is the current one.
    Remap(Strategy),
    /// Re-allocate the tenant's buddy blocks (lowest-address-first) and
    /// re-deploy its RTT — HBM compaction. Cores are untouched. Resolves
    /// to a no-op when the allocator hands back the identical blocks.
    CompactMemory,
}

/// One placement mutation inside a [`PlacementTxn`].
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Move a live virtual NPU (cores or memory; see [`MigrationTarget`]).
    Migrate {
        /// The tenant to move.
        vm: VmId,
        /// Where (and what) to move.
        to: MigrationTarget,
    },
}

/// One op of a planned transaction, with its price.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// The operation.
    pub op: PlanOp,
    /// Its planned [`ReconfigCost`] (zero for a planned no-op).
    pub cost: ReconfigCost,
}

/// A planned, costed, not-yet-applied set of placement mutations.
///
/// Produced by [`crate::Hypervisor::plan`] on a copy of the chip's
/// placement state; applied atomically by [`crate::Hypervisor::commit`].
/// The only constructor is the plan itself and the fields are
/// crate-private, so every migration in a transaction already applied
/// cleanly on the copy: an unknown VM, an over-released core and a
/// target that no longer fits are `Err`s from `plan`. What a transaction
/// cannot know is whether the chip moved since: it remembers the
/// free-region fingerprint and count, HBM occupancy, VM numbering and
/// plan generation the copy was taken at — if any of them changed by
/// commit time (a direct create or destroy, a fault, a drain's
/// [`crate::Hypervisor::invalidate_plans`]), the commit fails with
/// [`crate::VnpuError::StalePlan`] and mutates nothing.
#[derive(Debug, Clone)]
pub struct PlacementTxn {
    pub(crate) ops: Vec<PlannedOp>,
    pub(crate) free_fingerprint: u64,
    pub(crate) free_count: usize,
    pub(crate) hbm_free_bytes: u64,
    pub(crate) next_vm: u32,
    pub(crate) plan_generation: u64,
}

impl PlacementTxn {
    /// The planned ops with their per-op costs, in application order.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }
}

/// What a successful [`crate::Hypervisor::commit`] actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitReceipt {
    /// VMs whose placement actually changed, with the paid cost (planned
    /// no-ops are omitted).
    pub migrated: Vec<(VmId, ReconfigCost)>,
}

/// A background-defragmentation policy: given the per-tick fragmentation
/// picture, propose the migration set that best re-opens exact-match
/// windows within the budget.
///
/// Object-safe for the same reason [`crate::cluster::ChipPlacement`]
/// is — deployments bring their own compaction logic. Implementations
/// must be deterministic functions of their inputs (serve reports are
/// asserted byte-identical across runs). Proposals are advisory: the
/// driver prices them through [`crate::Hypervisor::plan_budgeted_in`],
/// which drops everything past the budget, and commits the rest
/// atomically.
pub trait Defragmenter: fmt::Debug + Send + Sync {
    /// Proposes migrations for one chip. `cache` is the cluster's
    /// placement [`MappingCache`], for probing through
    /// [`crate::Hypervisor::probe_remap_in`], which searches its score
    /// memo and reads, stores and counts no placement entry.
    fn plan(
        &self,
        hv: &Hypervisor,
        stats: &FragmentationStats,
        budget: &ReconfigBudget,
        cache: &mut MappingCache,
    ) -> Vec<PlanOp>;
}

/// The reference defragmentation policy: greedy window-opening core
/// moves plus highest-block-first HBM compaction.
///
/// * **Cores** — when the free region is split into several islands,
///   consider live tenants smallest-first (cheapest moves first); for
///   each, probe a remap-under-pin and accept it only when it strictly
///   grows the largest connected free window *and* does not degrade the
///   tenant's topology edit distance. Accepted moves update the
///   simulated free region, so later probes see the compacted state.
/// * **Memory** — when buddy external fragmentation exceeds
///   [`GreedyDefrag::min_hbm_fragmentation`], propose
///   [`MigrationTarget::CompactMemory`] for the tenants whose blocks sit
///   highest in HBM: freeing high blocks and re-allocating
///   lowest-address-first grows the largest free buddy block.
#[derive(Debug, Clone, Copy)]
pub struct GreedyDefrag {
    /// Core migrations proposed per pass (further capped by the budget).
    pub max_core_moves: usize,
    /// Memory compactions proposed per pass.
    pub max_memory_moves: usize,
    /// Candidate-enumeration cap for remap probes (advisory probes stay
    /// far cheaper than placements).
    pub probe_candidate_cap: usize,
    /// Buddy external fragmentation below which memory compaction is not
    /// worth its data movement.
    pub min_hbm_fragmentation: f64,
}

impl Default for GreedyDefrag {
    fn default() -> Self {
        GreedyDefrag {
            max_core_moves: 3,
            max_memory_moves: 2,
            probe_candidate_cap: 300,
            min_hbm_fragmentation: 0.05,
        }
    }
}

impl Defragmenter for GreedyDefrag {
    fn plan(
        &self,
        hv: &Hypervisor,
        stats: &FragmentationStats,
        budget: &ReconfigBudget,
        cache: &mut MappingCache,
    ) -> Vec<PlanOp> {
        let mut ops: Vec<PlanOp> = Vec::new();
        let move_cap = self.max_core_moves.min(budget.max_migrations);
        // --- Core compaction: only a fragmented free region can gain. ---
        if stats.free_components > 1 && move_cap > 0 {
            let mut sim_free = hv.free_set().clone();
            let (_, mut window) = hv.free_regions(&sim_free);
            // Smallest tenants first: their moves are cheapest and their
            // shapes fit the most target regions.
            let mut vms: Vec<(u32, VmId)> =
                hv.vnpus().map(|(vm, v)| (v.core_count(), *vm)).collect();
            vms.sort_unstable();
            let strategy = Strategy::similar_topology().candidate_cap(self.probe_candidate_cap);
            for (_, vm) in vms {
                if ops.len() >= move_cap {
                    break;
                }
                let vnpu = hv.vnpu(vm).expect("listed vm is live");
                let own: Vec<NodeId> = vnpu.mapping().phys_nodes().to_vec();
                let Ok(mapping) = hv.probe_remap_in(vm, &strategy, &sim_free, cache) else {
                    continue;
                };
                if mapping.phys_nodes() == own.as_slice()
                    || mapping.edit_distance() > vnpu.mapping().edit_distance()
                {
                    continue;
                }
                let mut after = sim_free.with_released(&own);
                after.occupy_all(mapping.phys_nodes());
                let (_, new_window) = hv.free_regions(&after);
                if new_window > window {
                    ops.push(PlanOp::Migrate {
                        vm,
                        to: MigrationTarget::Remap(strategy.clone()),
                    });
                    sim_free = after;
                    window = new_window;
                }
            }
        }
        // --- Memory compaction: squeeze holes out of the buddy space. ---
        if stats.hbm_external_fragmentation > self.min_hbm_fragmentation {
            let mut by_height: Vec<(u64, VmId)> = hv
                .vnpus()
                .map(|(vm, v)| {
                    let top = v
                        .memory_blocks()
                        .iter()
                        .map(|b| b.addr.value() + b.size)
                        .max()
                        .unwrap_or(0);
                    (top, *vm)
                })
                .collect();
            by_height.sort_unstable_by(|a, b| b.cmp(a));
            for (_, vm) in by_height.into_iter().take(self.max_memory_moves) {
                ops.push(PlanOp::Migrate {
                    vm,
                    to: MigrationTarget::CompactMemory,
                });
            }
        }
        ops
    }
}
