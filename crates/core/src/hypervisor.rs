//! The hypervisor: owner of all physical NPU resources (§5.2).
//!
//! The paper modifies KVM so that only the hypervisor can program the
//! hyper-mode NPU controller: it allocates cores with a topology-mapping
//! strategy, allocates HBM with a buddy system, builds the routing table
//! and the range translation table, and deploys both into meta-zones. This
//! module is that logic as a library: [`Hypervisor::create_vnpu`] performs
//! the whole provisioning pipeline and accounts the controller cycles it
//! would cost (the Figure 11 configuration overhead).

use crate::admission::{FitHint, FragmentationStats};
use crate::ids::{VirtCoreId, VmId};
use crate::meta::MetaZoneLayout;
use crate::plan::{
    CommitReceipt, MigrationTarget, PlacementTxn, PlanOp, PlannedOp, ReconfigBudget, ReconfigCost,
};
use crate::routing_table::RoutingTable;
use crate::vnpu::{VirtualNpu, VnpuRequest, GUEST_VA_BASE};
use crate::{Result, VnpuError};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use vnpu_mem::buddy::{Block, BuddyAllocator};
use vnpu_mem::rtt::{rtt_deploy_cycles, RttEntry};
use vnpu_mem::{Perm, PhysAddr, VirtAddr};
use vnpu_sim::SocConfig;
use vnpu_topo::cache::{labeled_hash, CacheStats, FreeSet, MappingCache};
use vnpu_topo::mapping::{Mapper, Mapping, Strategy};
use vnpu_topo::{NodeId, Topology};

/// Candidate-enumeration cap for [`Hypervisor::fit_hint_in_bounded`] probes:
/// hints are advisory, so the probe budget stays well below a real
/// placement attempt's.
const FIT_PROBE_CANDIDATE_CAP: usize = 200;

/// Default HBM capacity managed by the hypervisor (the paper's SIM config
/// pairs the chip with tens of GB of HBM).
pub const DEFAULT_HBM_BYTES: u64 = 16 << 30;

/// Minimum buddy block (also the RTT entry granularity floor).
pub const MIN_BLOCK_BYTES: u64 = 1 << 20;

/// Largest single buddy block the hypervisor requests per RTT entry;
/// bigger guest windows become multiple entries.
pub const MAX_BLOCK_BYTES: u64 = 256 << 20;

/// What a chip *is* as far as a placement op is concerned: the facts
/// [`Placement::apply`] reads and never writes. They change only outside
/// the transaction engine (reconfiguration, fault masking).
#[derive(Debug)]
struct Chip {
    cfg: SocConfig,
    topo: Arc<Topology>,
    /// The chip's `labeled_hash` fingerprint, computed once so per-request
    /// mappers don't re-hash the whole topology before a cache lookup.
    phys_key: u64,
    /// Reconfiguration generation, folded into every mapping-cache key:
    /// core scaling and fault transitions bump it, so entries cached
    /// before them expire.
    topo_generation: u64,
    /// Per-core fault mask maintained by [`Hypervisor::set_core_faulted`]:
    /// a faulted core is held *occupied* in the free region (so every
    /// placement path — mapping, fit hints, snapshots, fragmentation —
    /// excludes it automatically) without touching `core_users`, and a
    /// tenant releasing it does not return it to the free pool.
    faulted: Vec<bool>,
}

/// Everything placement changes, as one value: direct creates and
/// destroys and a commit apply to the live one (a commit assigns a clone
/// back to roll back), a plan applies the commit's ops to a clone and
/// drops it.
#[derive(Debug, Clone)]
struct Placement {
    core_users: Vec<u32>,
    /// The free-core region (`core_users[i] == 0`), maintained
    /// incrementally so the mapping hot path never rebuilds it.
    free_set: FreeSet,
    buddy: BuddyAllocator,
    vnpus: BTreeMap<VmId, VirtualNpu>,
    next_vm: u32,
    config_cycles: u64,
}

/// The resource owner and meta-table manager for one physical NPU.
///
/// The hypervisor keeps what placement reads: the tenants, the free
/// region, HBM, and the core fault mask that holds dead cores out of
/// the free region. The chip's [`vnpu_sim::machine::Machine`] keeps
/// what the hardware is, faulted NoC links included: a link carries no
/// occupancy, so placement never asks about one.
#[derive(Debug)]
pub struct Hypervisor {
    chip: Chip,
    state: Placement,
    /// Memoized mapping results keyed by (request, strategy, free region).
    cache: MappingCache,
    /// Plan-generation hash chain: every committed [`PlacementTxn`] (and
    /// every [`Hypervisor::invalidate_plans`]) advances it, so a
    /// transaction planned before another commit can never apply against
    /// state it did not see — [`Hypervisor::commit`] rejects it as
    /// [`VnpuError::StalePlan`]. 0 = no commit yet.
    plan_generation: u64,
}

impl Hypervisor {
    /// Creates a hypervisor over a physical NPU with the default HBM size.
    pub fn new(cfg: SocConfig) -> Self {
        Self::with_hbm_bytes(cfg, DEFAULT_HBM_BYTES)
    }

    /// Creates a hypervisor with an explicit HBM capacity.
    ///
    /// # Panics
    ///
    /// Panics if `hbm_bytes` is zero or not a multiple of
    /// [`MIN_BLOCK_BYTES`], the HBM buddy allocator's smallest block.
    pub fn with_hbm_bytes(cfg: SocConfig, hbm_bytes: u64) -> Self {
        let topo = Topology::mesh2d(cfg.mesh_width, cfg.mesh_height);
        let n = cfg.core_count() as usize;
        Hypervisor {
            chip: Chip {
                phys_key: labeled_hash(&topo),
                topo: Arc::new(topo),
                topo_generation: 0,
                faulted: vec![false; n],
                cfg,
            },
            state: Placement {
                core_users: vec![0; n],
                free_set: FreeSet::all_free(n),
                buddy: BuddyAllocator::new(PhysAddr(0x8_0000_0000), hbm_bytes, MIN_BLOCK_BYTES),
                vnpus: BTreeMap::new(),
                next_vm: 0,
                config_cycles: 0,
            },
            cache: MappingCache::default(),
            plan_generation: 0,
        }
    }

    /// The SoC configuration.
    pub fn config(&self) -> &SocConfig {
        &self.chip.cfg
    }

    /// The physical topology (memory-distance annotated).
    pub fn topology(&self) -> &Topology {
        &self.chip.topo
    }

    /// Currently free physical cores, ascending.
    pub fn free_cores(&self) -> Vec<u32> {
        self.state
            .free_set
            .nodes()
            .into_iter()
            .map(|n| n.0)
            .collect()
    }

    /// The free-core region (incrementally maintained).
    pub fn free_set(&self) -> &FreeSet {
        &self.state.free_set
    }

    /// Per-core user counts, indexed by physical core ID: 0 = free,
    /// 1 = exclusively owned, ≥ 2 = temporally shared (or reserved on
    /// top of an owner via [`Hypervisor::reserve_cores`]). Read-only —
    /// this is the occupancy ground truth the `vnpu_audit` fleet
    /// auditor cross-checks against tenant mappings and the free set.
    pub fn core_users(&self) -> &[u32] {
        &self.state.core_users
    }

    /// Number of free cores.
    pub fn free_core_count(&self) -> u32 {
        self.state.free_set.free_count() as u32
    }

    /// Mapping-cache effectiveness counters (hits, misses, evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Free HBM bytes.
    pub fn hbm_free_bytes(&self) -> u64 {
        self.state.buddy.free_bytes()
    }

    /// Total managed HBM bytes.
    pub fn hbm_total_bytes(&self) -> u64 {
        self.state.buddy.total_bytes()
    }

    /// Fraction of physical cores currently allocated.
    pub fn core_utilization(&self) -> f64 {
        1.0 - f64::from(self.free_core_count()) / f64::from(self.chip.cfg.core_count())
    }

    /// Controller cycles spent configuring meta-tables so far (Figure 11).
    pub fn total_config_cycles(&self) -> u64 {
        self.state.config_cycles
    }

    /// The reconfiguration generation mapping-cache keys are bound to: a
    /// copy of the paired [`vnpu_sim::machine::Machine`]'s hardware-state
    /// hash chain (0 while pristine).
    pub fn topology_generation(&self) -> u64 {
        self.chip.topo_generation
    }

    /// Adopts the paired machine's
    /// [`vnpu_sim::machine::Machine::topology_generation`] — the ground
    /// truth, extended by every core rescale and fault transition. Every
    /// mapping memoized under the old value expires (its key carries it).
    /// The cluster, which owns both halves of each chip, is the only
    /// caller.
    pub(crate) fn set_topology_generation(&mut self, generation: u64) {
        self.chip.topo_generation = generation;
    }

    // ------------------------------------------------------------------
    // Hardware-fault masking (the `vnpu_fault` layer's hypervisor hooks).
    // ------------------------------------------------------------------

    /// Marks a physical core faulted (or repairs it). A faulted core is
    /// held *occupied* in the free region without touching user counts,
    /// so every placement path — mapping candidates, fit hints,
    /// snapshots, fragmentation — excludes it automatically; tenants
    /// still pinned on it keep their user references until recovery
    /// moves or retires them, and a release while faulted does not
    /// return the core to the free pool. Repairing a core with no users
    /// frees it. Either transition invalidates outstanding placement
    /// plans (they were costed against a differently-healthy chip).
    /// Returns whether the mask changed (the call is idempotent).
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::VirtCoreOutOfRange`] for a core outside the
    /// chip.
    pub fn set_core_faulted(&mut self, core: u32, faulted: bool) -> Result<bool> {
        let count = self.chip.cfg.core_count();
        if core >= count {
            return Err(VnpuError::VirtCoreOutOfRange {
                vcore: VirtCoreId(core),
                count,
            });
        }
        if self.chip.faulted[core as usize] == faulted {
            return Ok(false);
        }
        self.chip.faulted[core as usize] = faulted;
        if self.state.core_users[core as usize] == 0 {
            if faulted {
                self.state.free_set.occupy(NodeId(core));
            } else {
                self.state.free_set.release(NodeId(core));
            }
        }
        self.invalidate_plans();
        Ok(true)
    }

    /// Whether a core is currently marked faulted (out-of-range = false).
    pub fn core_faulted(&self, core: u32) -> bool {
        self.chip
            .faulted
            .get(core as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Currently faulted cores, ascending.
    pub fn faulted_cores(&self) -> impl Iterator<Item = u32> + '_ {
        let faulted = self.chip.faulted.iter().enumerate();
        faulted.filter(|(_, &f)| f).map(|(i, _)| i as u32)
    }

    /// Number of currently faulted cores.
    pub fn faulted_core_count(&self) -> u32 {
        self.chip.faulted.iter().filter(|&&f| f).count() as u32
    }

    /// Faulted cores currently *unowned* — held out of the free region by
    /// the fault mask alone. Leak accounting subtracts these: they are
    /// dead hardware, not leaked tenant state (an owned faulted core is
    /// already accounted to its owner).
    pub fn masked_core_count(&self) -> u32 {
        self.chip
            .faulted
            .iter()
            .zip(&self.state.core_users)
            .filter(|&(&f, &users)| f && users == 0)
            .count() as u32
    }

    /// Cores that are neither free nor dead-and-unowned: what live
    /// tenants and administrative reservations hold. After every tenant
    /// has been retired this is the chip's core *leak* — the quantity the
    /// serve report and the end-of-run quiescence probe both publish.
    pub fn leaked_core_count(&self) -> u32 {
        self.chip.cfg.core_count() - self.free_core_count() - self.masked_core_count()
    }

    /// Number of live virtual NPUs.
    pub fn vnpu_count(&self) -> usize {
        self.state.vnpus.len()
    }

    /// Live virtual NPUs, ascending by VM ID.
    pub fn vnpus(&self) -> impl Iterator<Item = (&VmId, &VirtualNpu)> {
        self.state.vnpus.iter()
    }

    /// Looks up a virtual NPU.
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::UnknownVm`] for stale IDs.
    pub fn vnpu(&self, vm: VmId) -> Result<&VirtualNpu> {
        self.state.vnpus.get(&vm).ok_or(VnpuError::UnknownVm(vm))
    }

    /// Provisions a virtual NPU: maps cores, allocates memory, builds and
    /// "deploys" the routing and range-translation tables. Mapping goes
    /// through this hypervisor's own [`MappingCache`]; chips managed by a
    /// [`crate::cluster::Cluster`] use
    /// [`Hypervisor::create_vnpu_in`] with the cluster's shared cache
    /// instead.
    ///
    /// # Errors
    ///
    /// * [`VnpuError::EmptyRequest`] — zero cores or zero memory.
    /// * [`VnpuError::Mapping`] — no core allocation satisfies the
    ///   strategy (e.g. topology lock-in under
    ///   [`vnpu_topo::mapping::Strategy::exact_only`]).
    /// * [`VnpuError::Memory`] — HBM exhausted.
    pub fn create_vnpu(&mut self, req: VnpuRequest) -> Result<VmId> {
        let mut cache = std::mem::take(&mut self.cache);
        let result = self.create_vnpu_in(req, &mut cache);
        self.cache = cache;
        result
    }

    /// [`Hypervisor::create_vnpu`] with an explicit (possibly shared)
    /// [`MappingCache`]. A [`crate::cluster::Cluster`] passes one cache to
    /// every chip it owns; entries cannot alias across chips because the
    /// key carries each chip's topology fingerprint and reconfiguration
    /// generation. The request is taken owned or borrowed: it is copied
    /// into the placed [`VirtualNpu`] only when the placement succeeds.
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::create_vnpu`].
    pub fn create_vnpu_in(
        &mut self,
        req: impl Borrow<VnpuRequest>,
        cache: &mut MappingCache,
    ) -> Result<VmId> {
        self.state.create(&self.chip, req.borrow(), cache)
    }

    /// The chip's precomputed [`labeled_hash`] fingerprint (the `phys`
    /// component of every cache key for this chip).
    pub fn phys_key(&self) -> u64 {
        self.chip.phys_key
    }

    /// Administratively reserves specific physical cores (hyper-mode
    /// operation: maintenance, pinned system services, or reproducing a
    /// pre-occupied chip state as in the paper's Figure 17/18 setups).
    /// Already-reserved cores are ignored.
    ///
    /// # Errors
    ///
    /// * [`VnpuError::VirtCoreOutOfRange`] — an index outside the chip.
    /// * [`VnpuError::Faulted`] — a core currently marked faulted; dead
    ///   hardware cannot be reserved (nothing is reserved).
    pub fn reserve_cores(&mut self, cores: &[u32]) -> Result<()> {
        let count = self.chip.cfg.core_count();
        for &c in cores {
            if c >= count {
                return Err(VnpuError::VirtCoreOutOfRange {
                    vcore: VirtCoreId(c),
                    count,
                });
            }
            if self.chip.faulted[c as usize] {
                return Err(VnpuError::Faulted { core: c });
            }
        }
        for &c in cores {
            self.state.acquire_core(&self.chip, c);
        }
        Ok(())
    }

    /// Tears down a virtual NPU, releasing cores and memory.
    ///
    /// # Errors
    ///
    /// * [`VnpuError::UnknownVm`] — stale ID.
    /// * [`VnpuError::OverRelease`] — a core of this vNPU no longer has a
    ///   user reference (a core released out from under it); the vNPU is
    ///   left untouched.
    pub fn destroy_vnpu(&mut self, vm: VmId) -> Result<()> {
        self.state.destroy(&self.chip, vm)
    }

    /// Builds per-core services for binding into a machine — convenience
    /// over [`VirtualNpu::services`].
    ///
    /// # Errors
    ///
    /// Propagates lookup and construction failures.
    pub fn services(&self, vm: VmId, vcore: VirtCoreId) -> Result<vnpu_sim::machine::CoreServices> {
        self.vnpu(vm)?.services(vcore)
    }

    /// The largest request shape that would place on the *current* free
    /// region, probed largest-first with near-square mesh shapes. `None`
    /// when nothing fits (no free cores, or every probe fails).
    ///
    /// `largest_island` is the chip's largest connected free component
    /// ([`Hypervisor::fragmentation`], or a snapshot of it): probes
    /// enumerate *connected* candidates, so nothing larger can succeed and
    /// probing starts there. The probes search through `cache`'s score
    /// memo ([`Mapper::map_scored`]), so candidates placements already
    /// scored are not scored again, and never read or store a placement
    /// entry or move [`MappingCache::stats`]: the cluster passes its
    /// placement cache, whose hit rate counts placements only.
    pub fn fit_hint_in_bounded(
        &self,
        cache: &mut MappingCache,
        largest_island: usize,
    ) -> Option<FitHint> {
        let free = self.state.free_set.free_count() as u32;
        if free == 0 || largest_island == 0 {
            return None;
        }
        let mapper = self.chip.mapper();
        let strategy = Strategy::similar_topology().candidate_cap(FIT_PROBE_CANDIDATE_CAP);
        for cores in (1..=(largest_island as u32).min(free)).rev() {
            let probe = crate::vnpu::near_mesh_topology(cores);
            if mapper
                .map_scored(&self.state.free_set, &probe, &strategy, cache)
                .is_ok()
            {
                // Soundness of the emitted hint, re-proved in debug
                // builds: the advertised shape must map against the
                // *current* free set through a fresh (memo-free)
                // attempt, so no memoized score can leak out as an
                // unplaceable advice.
                debug_assert!(
                    mapper
                        .map_in(&self.state.free_set, &probe, &strategy)
                        .is_ok(),
                    "fit hint advertises {cores} cores but a fresh probe \
                     cannot place that shape on the current free set"
                );
                let width = probe
                    .mesh_shape()
                    .map_or_else(|| (cores as f64).sqrt().ceil() as u32, |shape| shape.width);
                return Some(FitHint {
                    cores,
                    width,
                    height: cores.div_ceil(width.max(1)),
                });
            }
        }
        None
    }

    /// The per-tick fragmentation picture: free-core connectivity and
    /// buddy external fragmentation (the two resources whose fragmentation
    /// gates admission).
    pub fn fragmentation(&self) -> FragmentationStats {
        let (components, largest) = self.free_regions(&self.state.free_set);
        let free_cores = self.state.free_set.free_count();
        let free_bytes = self.state.buddy.free_bytes();
        let largest_block = self.state.buddy.largest_free_block();
        FragmentationStats {
            free_cores: free_cores as u32,
            free_components: components,
            largest_free_component: largest,
            free_connectivity: if free_cores == 0 {
                1.0
            } else {
                largest as f64 / free_cores as f64
            },
            hbm_free_bytes: free_bytes,
            hbm_external_fragmentation: if free_bytes == 0 {
                0.0
            } else {
                1.0 - largest_block as f64 / free_bytes as f64
            },
        }
    }

    /// `(components, largest)` of the free region `free` of this chip:
    /// its connected components and the core count of the largest.
    pub(crate) fn free_regions(&self, free: &FreeSet) -> (usize, usize) {
        free.free_regions(&self.chip.topo)
    }

    // ------------------------------------------------------------------
    // Transactional placement plans (see [`crate::plan`]).
    // ------------------------------------------------------------------

    /// Administratively advances the plan-generation chain, rendering
    /// every outstanding [`PlacementTxn`] stale. Use when hypervisor
    /// state is about to change outside the transaction engine (e.g. a
    /// maintenance drain) and half-planned reshapes must not land on it.
    pub fn invalidate_plans(&mut self) {
        self.advance_plan_generation(0xDEAD_BEEF);
    }

    fn advance_plan_generation(&mut self, salt: u64) {
        let mut h = DefaultHasher::new();
        self.plan_generation.hash(&mut h);
        self.state.next_vm.hash(&mut h);
        self.state.free_set.fingerprint().hash(&mut h);
        salt.hash(&mut h);
        // `| 1` keeps 0 reserved for "no commit yet".
        self.plan_generation = h.finish() | 1;
    }

    /// An order-sensitive digest of every observable piece of hypervisor
    /// state the transaction engine may touch: core user counts, the
    /// free region, HBM occupancy, every live vNPU's placement and
    /// memory plan, VM numbering, the configuration-cycle counter, and
    /// both generation chains. Two calls return the same
    /// value iff the state is identical — the "failed commit mutates
    /// nothing" invariant is asserted by comparing digests.
    pub fn state_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.state.core_users.hash(&mut h);
        self.state.free_set.fingerprint().hash(&mut h);
        self.state.free_set.free_count().hash(&mut h);
        self.state.buddy.free_bytes().hash(&mut h);
        self.state.buddy.largest_free_block().hash(&mut h);
        for (vm, vnpu) in &self.state.vnpus {
            vm.0.hash(&mut h);
            for n in vnpu.mapping().phys_nodes() {
                n.0.hash(&mut h);
            }
            for e in vnpu.rtt_entries() {
                (e.va.value(), e.pa.value(), e.size).hash(&mut h);
            }
            for b in vnpu.memory_blocks() {
                (b.addr.value(), b.size).hash(&mut h);
            }
            vnpu.mem_bytes().hash(&mut h);
            vnpu.routing_table().entry_count().hash(&mut h);
        }
        self.state.next_vm.hash(&mut h);
        self.state.config_cycles.hash(&mut h);
        self.chip.topo_generation.hash(&mut h);
        self.plan_generation.hash(&mut h);
        self.chip.faulted.hash(&mut h);
        h.finish()
    }

    /// Probes a remap-under-pin for `vm` against an explicit free region:
    /// the tenant's own cores are treated as free (it vacates them by
    /// moving) within `free`. Defragmentation policies call this with
    /// their *simulated* free region so successive accepted moves see the
    /// compacted state. The probe searches through `cache`'s score memo
    /// ([`Mapper::map_scored`]) and reads, stores and counts no placement
    /// entry, so the cluster passes its placement cache.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownVm`] for stale IDs, otherwise as for
    /// [`vnpu_topo::mapping::Mapper::map_in`].
    pub fn probe_remap_in(
        &self,
        vm: VmId,
        strategy: &Strategy,
        free: &FreeSet,
        cache: &mut MappingCache,
    ) -> Result<Mapping> {
        let vnpu = self.vnpu(vm)?;
        let region = self.chip.remap_region(vnpu, free);
        Ok(self
            .chip
            .mapper()
            .map_scored(&region, vnpu.virt_topology(), strategy, cache)?)
    }

    /// Plans a transaction over this hypervisor's own cache — see
    /// [`Hypervisor::plan_in`].
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::plan_in`].
    pub fn plan(&mut self, ops: &[PlanOp]) -> Result<PlacementTxn> {
        let mut cache = std::mem::take(&mut self.cache);
        let result = self.plan_in(ops, &mut cache);
        self.cache = cache;
        result
    }

    /// Runs the commit's op loop on a *copy* of the placement state and
    /// keeps only the prices: every op goes through the one routine
    /// [`Hypervisor::commit_in`] applies to the live state (mappings
    /// looked up through `cache`, memory re-allocated on the copy's
    /// allocator) and is priced with the [`ReconfigCost`] it paid there.
    /// Ops apply to the copy in order, so a later move sees the cores and
    /// blocks an earlier one vacated; the copy is then dropped, so
    /// nothing on the chip moves. The returned [`PlacementTxn`] commits
    /// atomically via [`Hypervisor::commit_in`] — with nothing in
    /// between, at exactly the planned prices.
    ///
    /// # Errors
    ///
    /// The first op that cannot be applied fails the whole plan:
    /// [`VnpuError::Mapping`], [`VnpuError::Memory`],
    /// [`VnpuError::OverRelease`] or [`VnpuError::UnknownVm`].
    pub fn plan_in(&self, ops: &[PlanOp], cache: &mut MappingCache) -> Result<PlacementTxn> {
        self.plan_with(ops, None, cache)
    }

    /// [`Hypervisor::plan_in`] under a [`ReconfigBudget`]: migration ops
    /// are planned in order until the next one would exceed the budget,
    /// at which point planning stops and the affordable prefix is
    /// returned (possibly empty). Planned no-ops cost nothing and are
    /// not counted.
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::plan_in`].
    pub fn plan_budgeted_in(
        &self,
        ops: &[PlanOp],
        budget: &ReconfigBudget,
        cache: &mut MappingCache,
    ) -> Result<PlacementTxn> {
        self.plan_with(ops, Some(budget), cache)
    }

    fn plan_with(
        &self,
        ops: &[PlanOp],
        budget: Option<&ReconfigBudget>,
        cache: &mut MappingCache,
    ) -> Result<PlacementTxn> {
        let mut copy = self.state.clone();
        let mut planned: Vec<PlannedOp> = Vec::new();
        let mut total = ReconfigCost::default();
        let mut migrations = 0usize;
        for op in ops {
            let cost = copy.apply(&self.chip, op, cache)?;
            if let Some(b) = budget.filter(|_| !cost.is_zero()) {
                if !b.admits(&total, migrations, &cost) {
                    break;
                }
                migrations += 1;
                total = total.plus(cost);
            }
            planned.push(PlannedOp {
                op: op.clone(),
                cost,
            });
        }
        Ok(PlacementTxn {
            ops: planned,
            free_fingerprint: self.state.free_set.fingerprint(),
            free_count: self.state.free_set.free_count(),
            hbm_free_bytes: self.state.buddy.free_bytes(),
            next_vm: self.state.next_vm,
            plan_generation: self.plan_generation,
        })
    }

    /// Commits a transaction through this hypervisor's own cache — see
    /// [`Hypervisor::commit_in`].
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::commit_in`].
    pub fn commit(&mut self, txn: &PlacementTxn) -> Result<CommitReceipt> {
        let mut cache = std::mem::take(&mut self.cache);
        let result = self.commit_in(txn, &mut cache);
        self.cache = cache;
        result
    }

    /// Atomically applies a planned transaction: first validates that the
    /// chip still looks exactly as it did at plan time (free-region
    /// fingerprint and count, HBM occupancy, VM numbering, and the
    /// plan-generation chain), then runs every op, in order, through the
    /// routine the plan ran on its copy — this time on the live placement
    /// state. On success the plan-generation chain advances (outstanding
    /// plans become stale). On *any* failure — staleness or a mid-apply
    /// error — the state is assigned back from a snapshot taken before
    /// the first op, so the hypervisor is byte-identical to before the
    /// call ([`Hypervisor::state_digest`]).
    ///
    /// # Errors
    ///
    /// * [`VnpuError::StalePlan`] — the chip changed since the plan.
    /// * Any provisioning error from an op (the commit rolls back).
    pub fn commit_in(
        &mut self,
        txn: &PlacementTxn,
        cache: &mut MappingCache,
    ) -> Result<CommitReceipt> {
        if txn.plan_generation != self.plan_generation {
            return Err(VnpuError::StalePlan {
                detail: "plan generation advanced since planning",
            });
        }
        if txn.free_fingerprint != self.state.free_set.fingerprint()
            || txn.free_count != self.state.free_set.free_count()
        {
            return Err(VnpuError::StalePlan {
                detail: "free region changed since planning",
            });
        }
        if txn.hbm_free_bytes != self.state.buddy.free_bytes() {
            return Err(VnpuError::StalePlan {
                detail: "HBM occupancy changed since planning",
            });
        }
        if txn.next_vm != self.state.next_vm {
            return Err(VnpuError::StalePlan {
                detail: "VM numbering advanced since planning",
            });
        }
        let snapshot = self.state.clone();
        let mut receipt = CommitReceipt::default();
        for p in &txn.ops {
            let PlanOp::Migrate { vm, .. } = p.op;
            match self.state.apply(&self.chip, &p.op, cache) {
                Ok(cost) if cost.is_zero() => {}
                Ok(cost) => receipt.migrated.push((vm, cost)),
                Err(e) => {
                    self.state = snapshot;
                    return Err(e);
                }
            }
        }
        self.advance_plan_generation(txn.ops.len() as u64);
        Ok(receipt)
    }
}

impl Chip {
    /// The mapper for this chip, bound to the precomputed topology
    /// fingerprint and the current reconfiguration generation.
    fn mapper(&self) -> Mapper<'_> {
        Mapper::with_phys_key(&self.topo, self.phys_key).at_generation(self.topo_generation)
    }

    /// The region a remap-under-pin of `vnpu` searches within the free
    /// region `free`: its own cores count as free (it vacates them by
    /// moving) — except the faulted ones, which the move exists to escape
    /// and which are never re-offered. The probe
    /// ([`Hypervisor::probe_remap_in`]) and the committed remap search the
    /// same region.
    fn remap_region(&self, vnpu: &VirtualNpu, free: &FreeSet) -> FreeSet {
        let mut region = free.clone();
        for &n in vnpu.mapping().phys_nodes() {
            if !self.faulted[n.index()] {
                region.release(n);
            }
        }
        region
    }

    /// Detects an axis-aligned window allocation and emits the compact
    /// mesh table, else the standard per-entry table.
    fn build_routing_table(
        &self,
        vm: VmId,
        virt_topology: &Topology,
        mapping: &Mapping,
    ) -> RoutingTable {
        let v2p: Vec<u32> = mapping.phys_nodes().iter().map(|n| n.0).collect();
        if mapping.edit_distance() == 0 {
            if let Some(shape) = virt_topology.mesh_shape() {
                let w = self.cfg.mesh_width;
                let origin = v2p[0];
                let window = v2p.iter().enumerate().all(|(v, &p)| {
                    let vx = v as u32 % shape.width;
                    let vy = v as u32 / shape.width;
                    p == origin + vy * w + vx
                });
                if window {
                    return RoutingTable::mesh2d(vm, crate::PhysCoreId(origin), shape, w);
                }
            }
        }
        RoutingTable::from_dense(vm, &v2p)
    }
}

impl Placement {
    /// Applies one op: the only implementation of each
    /// [`MigrationTarget`]. [`Hypervisor::commit_in`] calls it on the
    /// live state, a plan on a clone. Returns what the op paid (zero for
    /// a migration that resolved to a no-op). An `Err` may leave `self`
    /// half-applied: the commit assigns its snapshot back, the plan drops
    /// its clone.
    fn apply(
        &mut self,
        chip: &Chip,
        op: &PlanOp,
        cache: &mut MappingCache,
    ) -> Result<ReconfigCost> {
        let PlanOp::Migrate { vm, to } = op;
        match to {
            MigrationTarget::Remap(strategy) => self.remap(chip, *vm, strategy, cache),
            MigrationTarget::CompactMemory => self.compact(*vm),
        }
    }

    /// Takes one user reference on a core, updating the free region when
    /// the core transitions free → used. A faulted core is already held
    /// occupied by the fault mask, so the transition does not touch the
    /// free region again.
    fn acquire_core(&mut self, chip: &Chip, core: u32) {
        let users = &mut self.core_users[core as usize];
        *users += 1;
        if *users == 1 && !chip.faulted[core as usize] {
            self.free_set.occupy(NodeId(core));
        }
    }

    /// Drops one user reference on a core, updating the free region when
    /// the core transitions used → free.
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::OverRelease`] when the core has no user — a
    /// double release, which previously was silently masked by a
    /// saturating subtraction.
    fn release_core(&mut self, chip: &Chip, core: u32) -> Result<()> {
        let users = &mut self.core_users[core as usize];
        if *users == 0 {
            return Err(VnpuError::OverRelease { core });
        }
        *users -= 1;
        if *users == 0 && !chip.faulted[core as usize] {
            self.free_set.release(NodeId(core));
        }
        Ok(())
    }

    /// `vm`'s record, provided every core it maps still carries a user
    /// reference — checked before a teardown or a move releases them, so
    /// neither searches or mutates on behalf of a tenant whose core was
    /// released out from under it.
    fn owned(&self, vm: VmId) -> Result<&VirtualNpu> {
        let vnpu = self.vnpus.get(&vm).ok_or(VnpuError::UnknownVm(vm))?;
        let stripped = |n: &&NodeId| self.core_users[n.index()] == 0;
        match vnpu.mapping().phys_nodes().iter().find(stripped) {
            Some(n) => Err(VnpuError::OverRelease { core: n.0 }),
            None => Ok(vnpu),
        }
    }

    /// The provisioning pipeline behind [`Hypervisor::create_vnpu_in`]:
    /// maps cores, allocates memory, builds and deploys the routing and
    /// range-translation tables, charges the configuration cycles and
    /// returns the new VM. All-or-nothing: a failing create changes
    /// nothing.
    fn create(&mut self, chip: &Chip, req: &VnpuRequest, cache: &mut MappingCache) -> Result<VmId> {
        if req.core_count() == 0 || req.memory_bytes() == 0 {
            return Err(VnpuError::EmptyRequest);
        }
        // 1. Core allocation via the topology-mapping strategy, memoized
        //    through the mapping cache (the request topology + free-region
        //    fingerprint identify the answer). With temporal sharing (§7
        //    over-provisioning), the available set is widened with the
        //    least-loaded busy cores; their current tenants will be
        //    time-division-multiplexed with this one. The widened set is
        //    its own cacheable region — its fingerprint differs from the
        //    plain free set's.
        let widened = self.widened_for(chip, req);
        let available = widened.as_ref().unwrap_or(&self.free_set);
        let mapping =
            chip.mapper()
                .map_cached(available, req.topology(), req.strategy_ref(), cache)?;

        // 2. Guest memory: buddy blocks mapped 1:1 into RTT entries.
        let (entries, blocks) = allocate_memory(&mut self.buddy, req.memory_bytes())?;

        // 3. Routing table: compact form when the allocation is an exact
        //    axis-aligned mesh window, standard otherwise.
        let vm = VmId(self.next_vm);
        let routing_table = chip.build_routing_table(vm, req.topology(), &mapping);

        // 4. Meta-zone budget check per core.
        let layout = MetaZoneLayout {
            noc_rt_entries: u64::from(req.core_count()),
            direction_entries: if req.wants_noc_isolation() {
                // A route visits a core at most once, so a core relays
                // each ordered pair of the tenant's cores at most once:
                // `core_count²` direction entries bound any one core's
                // share, whatever the mapping's shape.
                u64::from(req.core_count()) * u64::from(req.core_count())
            } else {
                0
            },
            rtt_entries: entries.len() as u64,
        };
        if let Err(e) = layout.check(chip.cfg.scratchpad_bytes) {
            for b in &blocks {
                let _ = self.buddy.free(b.addr);
            }
            return Err(e);
        }

        // 5. Deploy: mark cores used, account controller configuration.
        for &n in mapping.phys_nodes() {
            self.acquire_core(chip, n.0);
        }
        self.config_cycles += routing_table.config_cycles() + rtt_deploy_cycles(entries.len());
        self.next_vm += 1;
        let vnpu = VirtualNpu::new(
            req.clone(),
            Arc::clone(&chip.topo),
            mapping,
            routing_table,
            entries,
            blocks,
        );
        self.vnpus.insert(vm, vnpu);
        Ok(vm)
    }

    /// The temporal-sharing widening of the free set for `req`: when the
    /// request opts into §7 over-provisioning and the plain free region is
    /// too small, the least-loaded busy cores are treated as additionally
    /// available (their tenants will be time-division-multiplexed).
    /// `None` when the plain free set is the region to map against.
    fn widened_for(&self, chip: &Chip, req: &VnpuRequest) -> Option<FreeSet> {
        if req.wants_temporal_sharing() && self.free_set.free_count() < req.core_count() as usize {
            let mut set = self.free_set.clone();
            let mut busy: Vec<(u32, u32)> = self
                .core_users
                .iter()
                .enumerate()
                .filter(|&(i, &u)| u > 0 && !chip.faulted[i])
                .map(|(i, &u)| (u, i as u32))
                .collect();
            busy.sort_unstable();
            for (_, core) in busy {
                if set.free_count() >= req.core_count() as usize {
                    break;
                }
                set.release(NodeId(core));
            }
            Some(set)
        } else {
            None
        }
    }

    /// Tears `vm` down, releasing its cores and memory; refuses (changing
    /// nothing) when [`Placement::owned`] does.
    fn destroy(&mut self, chip: &Chip, vm: VmId) -> Result<()> {
        self.owned(vm)?;
        let vnpu = self
            .vnpus
            .remove(&vm)
            .expect("owned() found this vm in the map");
        for &n in vnpu.mapping().phys_nodes() {
            self.release_core(chip, n.0)
                .expect("owned() saw a user on each of the vm's distinct cores");
        }
        for b in vnpu.memory_blocks() {
            self.buddy
                .free(b.addr)
                .expect("hypervisor-owned block frees cleanly");
        }
        Ok(())
    }

    /// Live-migrates `vm`'s cores: re-maps its virtual topology under pin
    /// (in [`Chip::remap_region`] of the current free region), releases
    /// the old cores, acquires the new ones and re-deploys the routing
    /// table, charging the configuration cycles; the tenant's per-core
    /// scratchpad state is what moves. Zero cost when the best mapping is
    /// the current one (nothing moves, nothing is charged).
    fn remap(
        &mut self,
        chip: &Chip,
        vm: VmId,
        strategy: &Strategy,
        cache: &mut MappingCache,
    ) -> Result<ReconfigCost> {
        let vnpu = self.owned(vm)?;
        let own: Vec<NodeId> = vnpu.mapping().phys_nodes().to_vec();
        let region = chip.remap_region(vnpu, &self.free_set);
        let mapping = chip
            .mapper()
            .map_cached(&region, vnpu.virt_topology(), strategy, cache)?;
        if mapping.phys_nodes() == own {
            return Ok(ReconfigCost::default());
        }
        let routing = chip.build_routing_table(vm, vnpu.virt_topology(), &mapping);
        let data = own.len() as u64 * chip.cfg.scratchpad_bytes;
        let cost = ReconfigCost::for_move(routing.config_cycles(), 0, data);
        for &n in &own {
            self.release_core(chip, n.0)
                .expect("owned() saw a user on each of the vm's distinct cores");
        }
        for &n in mapping.phys_nodes() {
            self.acquire_core(chip, n.0);
        }
        self.config_cycles += cost.routing_cycles;
        self.vnpus
            .get_mut(&vm)
            .expect("owned() found this vm in the map")
            .redeploy_cores(mapping, routing);
        Ok(cost)
    }

    /// Compacts `vm`'s HBM: frees its buddy blocks, re-allocates the same
    /// sizes in order (the allocator hands out lowest addresses first, so
    /// holes squeeze out) and re-deploys its guest-VA-contiguous RTT,
    /// charging the entry writes. Zero cost when the allocator hands back
    /// the identical blocks.
    ///
    /// Block sizes are non-increasing (the allocation split is), so each
    /// size still has a free region at least as large as the slot it just
    /// vacated; an allocation failure here is a buddy bug.
    fn compact(&mut self, vm: VmId) -> Result<ReconfigCost> {
        let vnpu = self.vnpus.get_mut(&vm).ok_or(VnpuError::UnknownVm(vm))?;
        let old = vnpu.memory_blocks();
        for b in old {
            self.buddy
                .free(b.addr)
                .expect("hypervisor-owned block frees cleanly");
        }
        let mut new_blocks = Vec::with_capacity(old.len());
        for b in old {
            new_blocks.push(self.buddy.alloc(b.size).map_err(VnpuError::Memory)?);
        }
        if new_blocks == old {
            return Ok(ReconfigCost::default());
        }
        let mut entries = Vec::with_capacity(new_blocks.len());
        let mut va = VirtAddr(GUEST_VA_BASE);
        for b in &new_blocks {
            entries.push(RttEntry::new(va, b.addr, b.size, Perm::RW));
            va = va.offset(b.size);
        }
        let bytes: u64 = new_blocks.iter().map(|b| b.size).sum();
        let cost = ReconfigCost::for_move(0, rtt_deploy_cycles(entries.len()), bytes);
        self.config_cycles += cost.rtt_cycles;
        vnpu.redeploy_memory(entries, new_blocks);
        Ok(cost)
    }
}

/// Splits a guest-memory request into buddy blocks mapped 1:1 into RTT
/// entries, rolling back partial allocations on exhaustion.
fn allocate_memory(buddy: &mut BuddyAllocator, bytes: u64) -> Result<(Vec<RttEntry>, Vec<Block>)> {
    let mut entries: Vec<RttEntry> = Vec::new();
    let mut blocks: Vec<Block> = Vec::new();
    let mut va = VirtAddr(GUEST_VA_BASE);
    let mut remaining = bytes;
    while remaining > 0 {
        let ask = remaining.clamp(MIN_BLOCK_BYTES, MAX_BLOCK_BYTES);
        let block = match buddy.alloc(ask) {
            Ok(b) => b,
            Err(e) => {
                // Roll back partial allocations.
                for b in &blocks {
                    let _ = buddy.free(b.addr);
                }
                return Err(VnpuError::Memory(e));
            }
        };
        entries.push(RttEntry::new(va, block.addr, block.size, Perm::RW));
        va = va.offset(block.size);
        remaining = remaining.saturating_sub(block.size);
        blocks.push(block);
    }
    Ok((entries, blocks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RequestId;
    use crate::cluster::{Cluster, ClusterAdmissionOutcome as Outcome};
    use crate::vchunk::MemMode;
    use crate::vrouter::ConfinedPaths;

    // The misuse injector: releasing cores a tenant still maps is how the
    // tests reach the `OverRelease` guard of `Placement::owned`, which no
    // production path trips.
    impl Hypervisor {
        /// Releases cores previously taken with [`Hypervisor::reserve_cores`].
        ///
        /// The call is transactional: it validates every index *and* every
        /// user count up front, so a failing call changes nothing.
        ///
        /// # Errors
        ///
        /// * [`VnpuError::VirtCoreOutOfRange`] — an index outside the chip.
        /// * [`VnpuError::OverRelease`] — a core released more times than it
        ///   was acquired (counting duplicates within this call).
        pub(crate) fn release_cores(&mut self, cores: &[u32]) -> Result<()> {
            let count = self.chip.cfg.core_count();
            let mut releases = vec![0u32; count as usize];
            for &c in cores {
                if c >= count {
                    return Err(VnpuError::VirtCoreOutOfRange {
                        vcore: VirtCoreId(c),
                        count,
                    });
                }
                releases[c as usize] += 1;
                if releases[c as usize] > self.state.core_users[c as usize] {
                    return Err(VnpuError::OverRelease { core: c });
                }
            }
            for &c in cores {
                self.state
                    .release_core(&self.chip, c)
                    .expect("the loop above counted a user for every release");
            }
            Ok(())
        }
    }

    fn hv() -> Hypervisor {
        Hypervisor::new(SocConfig::sim()) // 6x6
    }

    #[test]
    fn create_exact_mesh_vnpu() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(3, 3)).unwrap();
        let v = h.vnpu(vm).unwrap();
        assert_eq!(v.core_count(), 9);
        assert_eq!(v.mapping().edit_distance(), 0);
        assert_eq!(v.routing_table().entry_count(), 1, "compact table expected");
        assert_eq!(h.free_core_count(), 27);
    }

    #[test]
    fn paper_lock_in_scenario_on_5x5() {
        // §4.3: 5x5 chip, two 3x3 requests. Exact-only: second fails and
        // ~64% of cores idle; similar-topology: both fit.
        let cfg = SocConfig {
            mesh_width: 5,
            mesh_height: 5,
            ..SocConfig::sim()
        };
        let mut h = Hypervisor::new(cfg.clone());
        h.create_vnpu(VnpuRequest::mesh(3, 3).strategy(Strategy::exact_only()))
            .unwrap();
        let second_exact = h.create_vnpu(VnpuRequest::mesh(3, 3).strategy(Strategy::exact_only()));
        assert!(second_exact.is_err(), "topology lock-in must occur");
        assert_eq!(h.free_core_count(), 16); // 64% of 25 wasted

        let mut h2 = Hypervisor::new(cfg);
        h2.create_vnpu(VnpuRequest::mesh(3, 3)).unwrap();
        let vm2 = h2
            .create_vnpu(VnpuRequest::mesh(3, 3).strategy(Strategy::similar_topology()))
            .unwrap();
        let v2 = h2.vnpu(vm2).unwrap();
        assert_eq!(v2.core_count(), 9);
        assert!(v2.mapping().edit_distance() > 0);
        assert_eq!(h2.free_core_count(), 7);
    }

    #[test]
    fn destroy_releases_resources() {
        let mut h = hv();
        let before_mem = h.state.buddy.free_bytes();
        let vm = h
            .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(128 << 20))
            .unwrap();
        assert_eq!(h.free_core_count(), 32);
        assert!(h.state.buddy.free_bytes() < before_mem);
        h.destroy_vnpu(vm).unwrap();
        assert_eq!(h.free_core_count(), 36);
        assert_eq!(h.state.buddy.free_bytes(), before_mem);
        assert!(matches!(h.vnpu(vm), Err(VnpuError::UnknownVm(_))));
        assert!(h.destroy_vnpu(vm).is_err());
    }

    #[test]
    fn memory_plan_covers_request_contiguously() {
        let mut h = hv();
        let vm = h
            .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(600 << 20))
            .unwrap();
        let v = h.vnpu(vm).unwrap();
        let entries = v.rtt_entries();
        assert!(entries.len() >= 3, "600 MB needs multiple <=256 MB blocks");
        // VA-contiguous from the base.
        let mut va = GUEST_VA_BASE;
        for e in entries {
            assert_eq!(e.va.value(), va);
            va += e.size;
        }
        assert!(v.mem_bytes() >= 600 << 20);
    }

    #[test]
    fn hbm_exhaustion_rolls_back() {
        let mut h = Hypervisor::with_hbm_bytes(SocConfig::sim(), 64 << 20);
        let free_before = h.state.buddy.free_bytes();
        let r = h.create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(1 << 30));
        assert!(matches!(r, Err(VnpuError::Memory(_))));
        assert_eq!(
            h.state.buddy.free_bytes(),
            free_before,
            "partial blocks must be freed"
        );
        assert_eq!(h.free_core_count(), 36, "no cores leaked");
    }

    #[test]
    fn empty_request_rejected() {
        let mut h = hv();
        assert!(matches!(
            h.create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(0)),
            Err(VnpuError::EmptyRequest)
        ));
    }

    #[test]
    fn services_buildable_for_every_core() {
        let mut h = hv();
        let vm = h
            .create_vnpu(VnpuRequest::mesh(2, 3).noc_isolation(true))
            .unwrap();
        for v in 0..6 {
            let s = h.services(vm, VirtCoreId(v)).unwrap();
            assert_eq!(s.router.name(), "vrouter-confined");
            assert!(s.translator.name().starts_with("vchunk"));
        }
        assert!(h.services(vm, VirtCoreId(6)).is_err());
    }

    #[test]
    fn mem_mode_flows_to_services() {
        let mut h = hv();
        let vm = h
            .create_vnpu(VnpuRequest::mesh(2, 2).mem_mode(MemMode::Page { tlb_entries: 32 }))
            .unwrap();
        let s = h.services(vm, VirtCoreId(0)).unwrap();
        assert_eq!(s.translator.name(), "iotlb-32");
    }

    #[test]
    fn config_cycles_accumulate() {
        let mut h = hv();
        assert_eq!(h.total_config_cycles(), 0);
        h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let after_one = h.total_config_cycles();
        assert!(after_one > 0);
        h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        assert!(h.total_config_cycles() > after_one);
    }

    #[test]
    fn irregular_allocation_gets_standard_table() {
        let mut h = hv();
        // First take a 6x1 row so the remaining region still has 3x3
        // windows; then occupy one interior core via a 1x1 vNPU to break
        // window alignment in that area... simplest: allocate 1x1 at core 0
        // then request 6x6-minus impossible, so ask a line of 5.
        h.create_vnpu(VnpuRequest::mesh(1, 1)).unwrap();
        let vm = h
            .create_vnpu(VnpuRequest::custom(Topology::line(5)))
            .unwrap();
        let v = h.vnpu(vm).unwrap();
        // Line of 5 on a mesh still matches exactly (a row), possibly
        // shifted; either table form is valid but lookups must be total.
        for i in 0..5 {
            assert!(v.routing_table().lookup(VirtCoreId(i)).is_some());
        }
    }

    #[test]
    fn utilization_math() {
        let mut h = hv();
        assert_eq!(h.core_utilization(), 0.0);
        h.create_vnpu(VnpuRequest::mesh(3, 3)).unwrap();
        assert!((h.core_utilization() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn reserve_and_release_cores() {
        let mut h = hv();
        h.reserve_cores(&[0, 7, 35]).unwrap();
        assert_eq!(h.free_core_count(), 33);
        assert!(!h.free_cores().contains(&7));
        h.release_cores(&[7]).unwrap();
        assert!(h.free_cores().contains(&7));
        assert!(h.reserve_cores(&[99]).is_err());
    }

    #[test]
    fn temporal_sharing_overprovisions() {
        let mut h = hv();
        // Fill the whole chip spatially.
        let first = h.create_vnpu(VnpuRequest::mesh(6, 6)).unwrap();
        assert_eq!(h.free_core_count(), 0);
        // A strict request now fails...
        assert!(h.create_vnpu(VnpuRequest::mesh(2, 2)).is_err());
        // ...but temporal sharing places it on busy cores (TDM).
        let shared = h
            .create_vnpu(VnpuRequest::mesh(2, 2).temporal_sharing(true))
            .unwrap();
        let v = h.vnpu(shared).unwrap();
        assert_eq!(v.core_count(), 4);
        // Its cores are shared with the first tenant.
        let first_cores: Vec<u32> = h
            .vnpu(first)
            .unwrap()
            .mapping()
            .phys_nodes()
            .iter()
            .map(|n| n.0)
            .collect();
        for n in h.vnpu(shared).unwrap().mapping().phys_nodes() {
            assert!(first_cores.contains(&n.0));
        }
        // Destroying both returns every core.
        h.destroy_vnpu(shared).unwrap();
        h.destroy_vnpu(first).unwrap();
        assert_eq!(h.free_core_count(), 36);
    }

    #[test]
    fn over_release_is_an_error_not_a_silent_mask() {
        // Regression: release_cores/destroy_vnpu used saturating_sub on
        // the user counts, so a double release silently zeroed state and
        // later teardown corrupted accounting. It must be a hard error.
        let mut h = hv();
        h.reserve_cores(&[3]).unwrap();
        h.release_cores(&[3]).unwrap();
        assert_eq!(
            h.release_cores(&[3]),
            Err(VnpuError::OverRelease { core: 3 })
        );
        // Duplicates inside one call count too, and the failing call is
        // transactional: nothing is released.
        h.reserve_cores(&[5]).unwrap();
        assert_eq!(
            h.release_cores(&[5, 5]),
            Err(VnpuError::OverRelease { core: 5 })
        );
        assert!(!h.free_cores().contains(&5), "failed call must not mutate");
        h.release_cores(&[5]).unwrap();
        // destroy_vnpu notices when a vNPU's core was stripped externally.
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let core = h.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        h.release_cores(&[core]).unwrap(); // misuse: steals the vNPU's core
        assert_eq!(h.destroy_vnpu(vm), Err(VnpuError::OverRelease { core }));
        assert!(h.vnpu(vm).is_ok(), "failed destroy must keep the vNPU");
    }

    #[test]
    fn hostile_edge_costs_are_an_error_not_an_overflow() {
        // Regression: a 3x3 request whose edges cost u64::MAX / 3, on a
        // chip with no free 3x3 window, reached the bipartite GED pricer
        // and overflowed summing a node's deletion row (a panic under
        // `cargo test`, a silent wrap in release). The mapper now refuses
        // it up front — before its placement cache builds, looks up or
        // stores a key — and the chip is untouched.
        let mut h = hv();
        let columns_2_3 = (0..6).flat_map(|row| [6 * row + 2, 6 * row + 3]);
        let taken: Vec<u32> = columns_2_3.chain([12, 13, 30, 31]).collect();
        h.reserve_cores(&taken).unwrap();
        let mut topology = Topology::empty(9);
        for (a, b, _) in Topology::mesh2d(3, 3).edges().collect::<Vec<_>>() {
            let cost = u64::MAX / 3;
            topology
                .add_edge_with(a, b, vnpu_topo::EdgeAttr { cost })
                .unwrap();
        }
        let before = h.state_digest();
        assert_eq!(
            h.create_vnpu(VnpuRequest::custom(topology)),
            Err(VnpuError::Mapping(vnpu_topo::TopoError::EdgeCostsTooLarge))
        );
        assert_eq!(h.cache_stats(), CacheStats::default());
        assert_eq!(
            h.state_digest(),
            before,
            "a refused request changes nothing"
        );
    }

    #[test]
    fn oversized_requests_are_an_error_before_any_search() {
        // A 193-node request on an idle 14x14 chip fits its free cores,
        // but the edit-distance kernels take at most 192 nodes: the search
        // refuses it at entry, and the chip is untouched.
        let mut h = Hypervisor::new(SocConfig {
            mesh_width: 14,
            mesh_height: 14,
            ..SocConfig::sim()
        });
        let before = h.state_digest();
        assert_eq!(
            h.create_vnpu(VnpuRequest::custom(Topology::line(193))),
            Err(VnpuError::Mapping(vnpu_topo::TopoError::RequestTooLarge {
                nodes: 193
            }))
        );
        assert_eq!(h.cache_stats(), CacheStats::default());
        assert_eq!(
            h.state_digest(),
            before,
            "a refused request changes nothing"
        );
    }

    #[test]
    fn plan_and_commit_agree_on_an_over_released_tenant() {
        // Regression: the planner searched first and checked ownership
        // only when the tenant moved, so a stay-put Remap of a tenant with
        // a stripped core planned Ok at zero cost and the commit right
        // behind it failed OverRelease. Both refuse, before any lookup.
        let remap = |vm| PlanOp::Migrate {
            vm,
            to: MigrationTarget::Remap(Strategy::similar_topology()),
        };
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let core = h.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        h.release_cores(&[core]).unwrap(); // misuse: steals the vNPU's core
        let (digest, lookups) = (h.state_digest(), h.cache_stats());
        let refused = h.plan(&[remap(vm)]).map(|txn| txn.ops().len());
        assert_eq!(refused, Err(VnpuError::OverRelease { core }));
        assert_eq!(h.destroy_vnpu(vm), Err(VnpuError::OverRelease { core }));
        assert_eq!(h.cache_stats(), lookups, "refused before the search");
        assert_eq!(h.state_digest(), digest);
        // The commit's turn: a faulted core is stripped without the free
        // region (or anything else a commit checks for staleness) moving.
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let core = h.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        h.set_core_faulted(core, true).unwrap();
        let txn = h.plan(&[remap(vm)]).unwrap();
        assert!(
            !txn.ops()[0].cost.is_zero(),
            "the plan escapes the dead core"
        );
        h.release_cores(&[core]).unwrap();
        let (digest, lookups) = (h.state_digest(), h.cache_stats());
        assert_eq!(h.commit(&txn), Err(VnpuError::OverRelease { core }));
        assert_eq!(h.cache_stats(), lookups);
        assert_eq!(h.state_digest(), digest);
    }

    #[test]
    fn free_set_tracks_core_users_incrementally() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(3, 2)).unwrap();
        let reference: Vec<u32> = h
            .state
            .core_users
            .iter()
            .enumerate()
            .filter_map(|(i, &u)| (u == 0).then_some(i as u32))
            .collect();
        assert_eq!(h.free_cores(), reference);
        assert_eq!(h.free_set().free_count(), 30);
        h.destroy_vnpu(vm).unwrap();
        assert_eq!(h.free_set().free_count(), 36);
    }

    #[test]
    fn mapping_cache_hits_on_repeated_churn() {
        let mut h = hv();
        // Same request shape against the same free region, repeatedly.
        for _ in 0..4 {
            let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
            h.destroy_vnpu(vm).unwrap();
        }
        let stats = h.cache_stats();
        assert_eq!(stats.misses, 1, "one cold mapping");
        assert_eq!(stats.hits, 3, "subsequent identical requests must hit");
    }

    // Single-chip admission. The hypervisor owns no queue: a 1-chip
    // `Cluster` *is* the single-chip admission path, and these tests pin
    // its queue and fit-hint behaviour on one chip.

    fn one_chip() -> Cluster {
        Cluster::new(vec![SocConfig::sim()]) // 6x6
    }

    #[test]
    fn admission_fifo_blocks_head_of_line() {
        let mut cl = one_chip();
        cl.create_on(0, VnpuRequest::mesh(6, 5)).unwrap(); // 6 cores left
        cl.submit(VnpuRequest::mesh(3, 3));
        cl.submit(VnpuRequest::mesh(1, 2));
        let events = cl.process_admissions();
        assert!(events.is_empty(), "FIFO head cannot place, tick stops");
        assert_eq!(cl.pending_count(), 2);
    }

    #[test]
    fn admission_events_stamp_config_cycles_incrementally() {
        let mut cl = one_chip();
        cl.submit(VnpuRequest::mesh(2, 2));
        cl.submit(VnpuRequest::mesh(2, 2));
        let before = cl.total_config_cycles();
        let events = cl.process_admissions();
        let after = cl.total_config_cycles();
        assert_eq!(events.len(), 2);
        // Each placement deploys its own meta-tables, so the per-event
        // cumulative counters are strictly increasing and the first
        // admission's stamp must not include the second's work.
        assert!(before < events[0].config_cycles_total);
        assert!(events[0].config_cycles_total < events[1].config_cycles_total);
        assert_eq!(events[1].config_cycles_total, after);
    }

    #[test]
    fn admission_rejects_impossible_and_budget_exhausted() {
        let mut cl = one_chip();
        let impossible = cl.submit(VnpuRequest::mesh(7, 7)); // 49 > 36 cores
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, impossible);
        assert!(matches!(events[0].outcome, Outcome::Rejected(_)));

        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap(); // fill the chip
        cl.set_max_attempts(Some(2));
        let starved = cl.submit(VnpuRequest::mesh(2, 2));
        assert!(cl.process_admissions().is_empty(), "attempt 1 defers");
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1, "attempt 2 exhausts the budget");
        assert_eq!(events[0].id, starved);
        assert!(matches!(events[0].outcome, Outcome::Rejected(_)));
        assert_eq!(cl.pending_count(), 0);
    }

    #[test]
    fn rejected_head_does_not_block_the_tick() {
        // Submits `head` then `next`, runs one tick and expects the head
        // rejected and `next` admitted behind it.
        fn head_rejected_then_next_admitted(mut cl: Cluster, head: VnpuRequest, next: VnpuRequest) {
            let head = cl.submit(head);
            let next = cl.submit(next);
            let events = cl.process_admissions();
            let ids: Vec<RequestId> = events.iter().map(|e| e.id).collect();
            assert_eq!(ids, [head, next]);
            assert!(matches!(events[0].outcome, Outcome::Rejected(_)));
            assert!(matches!(events[1].outcome, Outcome::Admitted(_)));
            assert_eq!(cl.pending_count(), 0);
        }
        // A head that fits no chip even idle.
        head_rejected_then_next_admitted(
            one_chip(),
            VnpuRequest::mesh(7, 7), // 49 > 36 cores
            VnpuRequest::mesh(2, 2),
        );
        // A blocked head whose attempt budget runs out.
        let mut cl = one_chip();
        cl.create_on(0, VnpuRequest::mesh(6, 5)).unwrap(); // 6 cores left
        cl.set_max_attempts(Some(1));
        head_rejected_then_next_admitted(cl, VnpuRequest::mesh(3, 3), VnpuRequest::mesh(1, 2));
    }

    #[test]
    fn stale_plan_commits_nothing() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let other = h.create_vnpu(VnpuRequest::mesh(1, 1)).unwrap();
        let compact = [PlanOp::Migrate {
            vm,
            to: MigrationTarget::CompactMemory,
        }];
        // The chip changes between plan and commit — a direct destroy,
        // then a direct create: the plan is stale.
        let txn = h.plan(&compact).unwrap();
        h.destroy_vnpu(other).unwrap();
        let digest = h.state_digest();
        assert!(matches!(h.commit(&txn), Err(VnpuError::StalePlan { .. })));
        assert_eq!(h.state_digest(), digest, "failed commit must not mutate");
        let txn = h.plan(&compact).unwrap();
        h.create_vnpu(VnpuRequest::mesh(1, 1)).unwrap();
        let digest = h.state_digest();
        assert!(matches!(h.commit(&txn), Err(VnpuError::StalePlan { .. })));
        assert_eq!(h.state_digest(), digest, "failed commit must not mutate");
        // Injected staleness (the generation chain) is caught even when
        // the free region happens to look identical.
        let txn = h.plan(&compact).unwrap();
        h.invalidate_plans();
        let digest = h.state_digest();
        assert!(matches!(h.commit(&txn), Err(VnpuError::StalePlan { .. })));
        assert_eq!(h.state_digest(), digest);
        // A fresh plan against the new generation commits fine.
        let txn = h.plan(&compact).unwrap();
        assert!(h.commit(&txn).is_ok());
    }

    #[test]
    fn commit_advances_the_plan_generation_chain() {
        let mut h = hv();
        assert_eq!(h.plan_generation, 0);
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let compact = [PlanOp::Migrate {
            vm,
            to: MigrationTarget::CompactMemory,
        }];
        let a = h.plan(&compact).unwrap();
        let b = h.plan(&compact).unwrap();
        h.commit(&a).unwrap();
        assert_ne!(h.plan_generation, 0);
        // b was planned against the pre-commit generation: stale now.
        assert!(matches!(h.commit(&b), Err(VnpuError::StalePlan { .. })));
    }

    #[test]
    fn failed_mid_commit_rolls_back_byte_identically() {
        // A genuine mid-apply failure: a full chip but for cores 20 and
        // 21, tenant `a` on cores 0-1 and tenant `b` on core 35, with
        // cores 0 and 35 dead. `a`'s only healthy window is 20-21 (core 1
        // is boxed in by reserved and dead cores), and the core 1 it
        // vacates is `b`'s only way out. Reserving core 1 between plan
        // and commit leaves the free region, HBM occupancy and VM
        // numbering untouched (the core was already occupied), so the
        // staleness checks pass — but `a`'s move no longer frees core 1
        // and `b`'s remap fails halfway through the commit.
        let mut h = hv();
        h.reserve_cores(&(2..36).collect::<Vec<u32>>()).unwrap();
        let a = h.create_vnpu(VnpuRequest::mesh(2, 1)).unwrap();
        h.release_cores(&[35]).unwrap();
        let b = h.create_vnpu(VnpuRequest::mesh(1, 1)).unwrap();
        h.set_core_faulted(0, true).unwrap();
        h.set_core_faulted(35, true).unwrap();
        h.release_cores(&[20, 21]).unwrap();
        let remap = |vm| PlanOp::Migrate {
            vm,
            to: MigrationTarget::Remap(Strategy::similar_topology()),
        };
        let txn = h.plan(&[remap(a), remap(b)]).unwrap();
        assert!(txn.ops().iter().all(|p| !p.cost.is_zero()), "both move");
        h.reserve_cores(&[1]).unwrap();
        let digest = h.state_digest();
        assert!(matches!(h.commit(&txn), Err(VnpuError::Mapping(_))));
        assert_eq!(
            h.state_digest(),
            digest,
            "mid-commit failure must roll everything back"
        );
        let cores = |vm| h.vnpu(vm).unwrap().mapping().phys_nodes().to_vec();
        assert_eq!(cores(a), [NodeId(0), NodeId(1)], "the moved tenant is back");
        assert_eq!(cores(b), [NodeId(35)]);
    }

    #[test]
    fn plan_refuses_a_vm_that_never_existed() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let digest = h.state_digest();
        let ghost = VmId(77);
        let uses = [
            MigrationTarget::Remap(Strategy::similar_topology()),
            MigrationTarget::CompactMemory,
        ];
        for to in uses {
            let r = h.plan(&[
                PlanOp::Migrate {
                    vm,
                    to: MigrationTarget::CompactMemory,
                },
                PlanOp::Migrate { vm: ghost, to },
            ]);
            assert!(
                matches!(r, Err(VnpuError::UnknownVm(v)) if v == ghost),
                "{r:?}"
            );
            assert_eq!(h.state_digest(), digest, "a refused plan moves nothing");
        }
    }

    #[test]
    fn migrate_remap_under_pin_moves_the_tenant() {
        // Occupy a 6x5 block, then a 1x6 bottom row tenant with NoC
        // isolation; free the big block so a migration can recompact the
        // row tenant anywhere.
        let mut h = hv();
        let big = h.create_vnpu(VnpuRequest::mesh(6, 5)).unwrap();
        let line = VnpuRequest::custom(Topology::line(6)).noc_isolation(true);
        let row = h.create_vnpu(line).unwrap();
        let before: Vec<u32> = h
            .vnpu(row)
            .unwrap()
            .mapping()
            .phys_nodes()
            .iter()
            .map(|n| n.0)
            .collect();
        h.destroy_vnpu(big).unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm: row,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        let receipt = h.commit(&txn).unwrap();
        assert_eq!(receipt.migrated.len(), 1);
        let (vm, cost) = receipt.migrated[0];
        assert_eq!(vm, row);
        assert!(cost.routing_cycles > 0, "routing re-deployment is paid");
        assert!(cost.data_move_bytes > 0, "scratchpad state moves");
        assert!(cost.paused_cycles > cost.routing_cycles);
        let after: Vec<u32> = h
            .vnpu(row)
            .unwrap()
            .mapping()
            .phys_nodes()
            .iter()
            .map(|n| n.0)
            .collect();
        assert_ne!(before, after, "the tenant must actually move");
        // Core accounting stays exact: 6 cores used, 30 free.
        assert_eq!(h.free_core_count(), 30);
        // The routing table resolves every virtual core to the new cores.
        for v in 0..6 {
            let p = h
                .vnpu(row)
                .unwrap()
                .routing_table()
                .lookup(VirtCoreId(v))
                .unwrap();
            assert!(after.contains(&p.0));
        }
        // The routes are redeployed with the cores.
        let routes = h.vnpu(row).unwrap().routes().unwrap();
        assert_eq!(**routes, ConfinedPaths::build(h.topology(), &after));
        h.destroy_vnpu(row).unwrap();
        assert_eq!(h.free_core_count(), 36, "no cores leak through migration");
    }

    #[test]
    fn plan_accounts_temporal_sharing_user_counts() {
        // A shared core stays occupied until its *last* user leaves —
        // through a planned move of one of its tenants and through a
        // direct destroy alike.
        let mut h = hv();
        let resident = h.create_vnpu(VnpuRequest::mesh(6, 6)).unwrap();
        let shared = h
            .create_vnpu(VnpuRequest::mesh(2, 2).temporal_sharing(true))
            .unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm: shared,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        h.commit(&txn).unwrap();
        assert_eq!(h.core_users().iter().filter(|&&u| u == 2).count(), 4);
        h.destroy_vnpu(shared).unwrap();
        assert_eq!(h.free_core_count(), 0, "shared cores stay occupied");
        h.destroy_vnpu(resident).unwrap();
        assert_eq!(h.free_core_count(), 36);
    }

    #[test]
    fn migrate_to_same_spot_is_a_no_op() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        assert!(
            txn.ops()[0].cost.is_zero(),
            "best mapping is the current one"
        );
        assert!(h.commit(&txn).unwrap().migrated.is_empty());
    }

    #[test]
    fn compact_memory_grows_the_largest_free_block() {
        // Three tenants with interleaved memory; destroying the middle one
        // leaves a hole that compaction squeezes out.
        let mut h = Hypervisor::with_hbm_bytes(SocConfig::sim(), 1 << 30);
        let a = h
            .create_vnpu(VnpuRequest::mesh(1, 1).mem_bytes(256 << 20))
            .unwrap();
        let b = h
            .create_vnpu(VnpuRequest::mesh(1, 2).mem_bytes(256 << 20))
            .unwrap();
        let c = h
            .create_vnpu(VnpuRequest::mesh(2, 1).mem_bytes(256 << 20))
            .unwrap();
        h.destroy_vnpu(b).unwrap();
        let frag_before = h.fragmentation().hbm_external_fragmentation;
        assert!(frag_before > 0.0, "the hole fragments free HBM");
        let bytes_before = h.vnpu(c).unwrap().mem_bytes();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm: c,
                to: MigrationTarget::CompactMemory,
            }])
            .unwrap();
        let cost = txn.ops()[0].cost;
        assert!(cost.rtt_cycles > 0);
        assert_eq!(cost.data_move_bytes, 256 << 20);
        assert_eq!(h.commit(&txn).unwrap().migrated, [(c, cost)]);
        let frag_after = h.fragmentation().hbm_external_fragmentation;
        assert!(
            frag_after < frag_before,
            "compaction must reduce buddy external fragmentation \
             ({frag_before} -> {frag_after})"
        );
        // The tenant's RTT still covers its whole, unchanged VA window
        // contiguously.
        let v = h.vnpu(c).unwrap();
        assert_eq!(v.mem_bytes(), bytes_before);
        let mut va = GUEST_VA_BASE;
        for e in v.rtt_entries() {
            assert_eq!(e.va.value(), va);
            va += e.size;
        }
        assert_eq!(va - GUEST_VA_BASE, bytes_before);
        h.destroy_vnpu(a).unwrap();
        h.destroy_vnpu(c).unwrap();
        assert_eq!(h.hbm_free_bytes(), 1 << 30, "no HBM leaks");
    }

    #[test]
    fn deployment_stamp_moves_exactly_when_the_deployment_does() {
        let mut h = Hypervisor::with_hbm_bytes(SocConfig::sim(), 1 << 30);
        let big = h.create_vnpu(VnpuRequest::mesh(6, 4)).unwrap();
        let hole = h
            .create_vnpu(VnpuRequest::mesh(1, 1).mem_bytes(256 << 20))
            .unwrap();
        let row = h
            .create_vnpu(VnpuRequest::custom(Topology::line(6)).mem_bytes(256 << 20))
            .unwrap();
        let stamp = |h: &Hypervisor, vm| h.vnpu(vm).unwrap().deployment_stamp();
        let (big0, row0) = (stamp(&h, big), stamp(&h, row));
        assert_ne!(big0, row0, "every deployment has its own stamp");
        // Binding, planning and a no-op migration deploy nothing.
        h.services(row, VirtCoreId(0)).unwrap();
        let noop = h
            .plan(&[PlanOp::Migrate {
                vm: big,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        assert_eq!(h.commit(&noop).unwrap().migrated.len(), 0);
        assert_eq!((stamp(&h, big), stamp(&h, row)), (big0, row0));
        // A core move re-deploys the moved tenant only ...
        h.destroy_vnpu(big).unwrap();
        let remap = h
            .plan(&[PlanOp::Migrate {
                vm: row,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        assert_eq!(h.commit(&remap).unwrap().migrated.len(), 1);
        let row1 = stamp(&h, row);
        assert_ne!(row1, row0);
        // ... and so does a memory move.
        h.destroy_vnpu(hole).unwrap();
        let compact = h
            .plan(&[PlanOp::Migrate {
                vm: row,
                to: MigrationTarget::CompactMemory,
            }])
            .unwrap();
        assert_eq!(h.commit(&compact).unwrap().migrated.len(), 1);
        assert_ne!(stamp(&h, row), row1);
    }

    #[test]
    fn every_bind_starts_cold_and_follows_the_current_deployment() {
        use crate::routing_table::RT_LOOKUP_CYCLES;
        use vnpu_mem::{Perm, VirtAddr};
        let mut h = hv();
        let big = h.create_vnpu(VnpuRequest::mesh(6, 5)).unwrap();
        let row = h
            .create_vnpu(
                VnpuRequest::custom(Topology::line(6))
                    .mem_bytes(512 << 20)
                    .noc_isolation(true),
            )
            .unwrap();
        // Walk both RTT entries twice on one core's services: the range
        // TLB fills and a `last_v` hint is learned ...
        let walk = |s: &mut vnpu_sim::machine::CoreServices| {
            for off in [0u64, 256 << 20, 0, 256 << 20] {
                s.translator
                    .translate(VirtAddr(GUEST_VA_BASE + off), 64, Perm::R)
                    .unwrap();
            }
            assert_eq!(s.router.resolve(3).unwrap().1, RT_LOOKUP_CYCLES);
            assert_eq!(s.router.resolve(3).unwrap().1, 0, "rewrite cache warm");
            s.translator.stats()
        };
        let mut first = h.services(row, VirtCoreId(0)).unwrap();
        let cold = walk(&mut first);
        assert!(cold.misses >= 2);
        // ... none of which a later bind, of this or a sibling core, sees.
        assert_eq!(walk(&mut h.services(row, VirtCoreId(0)).unwrap()), cold);
        assert_eq!(walk(&mut h.services(row, VirtCoreId(4)).unwrap()), cold);
        // After a live migration the shared tables are the new ones.
        let phys = |h: &Hypervisor, v| h.vnpu(row).unwrap().phys_core(VirtCoreId(v)).unwrap();
        let before = (phys(&h, 0), phys(&h, 5));
        h.destroy_vnpu(big).unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm: row,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        assert_eq!(h.commit(&txn).unwrap().migrated.len(), 1);
        let after = (phys(&h, 0), phys(&h, 5));
        assert_ne!(before, after);
        let mut moved = h.services(row, VirtCoreId(0)).unwrap();
        assert_eq!(moved.router.resolve(5).unwrap().0, after.1);
        let path = moved.router.path(after.0, after.1).unwrap();
        assert_eq!((path[0], *path.last().unwrap()), after);
        let own: Vec<u32> = (0..6).map(|v| phys(&h, v)).collect();
        assert!(path.iter().all(|hop| own.contains(hop)), "still confined");
    }

    #[test]
    fn budgeted_plan_keeps_the_affordable_prefix() {
        let mut h = hv();
        // Fragment the chip: two tenants in opposite corners.
        let keep_free = [0u32, 1, 2, 6, 7, 8, 28, 29, 34, 35];
        let taken: Vec<u32> = (0..36).filter(|c| !keep_free.contains(c)).collect();
        h.reserve_cores(&taken).unwrap();
        let a = h.create_vnpu(VnpuRequest::mesh(2, 1)).unwrap();
        let b = h.create_vnpu(VnpuRequest::mesh(1, 2)).unwrap();
        let ops = vec![
            PlanOp::Migrate {
                vm: a,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            },
            PlanOp::Migrate {
                vm: b,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            },
        ];
        let unbudgeted = h.plan(&ops).unwrap();
        let moves = unbudgeted
            .ops()
            .iter()
            .filter(|p| !p.cost.is_zero())
            .count();
        let budget = ReconfigBudget {
            max_migrations: 1,
            ..ReconfigBudget::default()
        };
        let mut cache = MappingCache::default();
        let budgeted = h.plan_budgeted_in(&ops, &budget, &mut cache).unwrap();
        let budgeted_moves = budgeted.ops().iter().filter(|p| !p.cost.is_zero()).count();
        assert!(budgeted_moves <= 1, "budget caps migrations");
        assert!(budgeted_moves <= moves);
    }

    #[test]
    fn reconfig_generation_invalidates_mapping_cache() {
        // Regression for the ROADMAP's "mapping-cache invalidation on
        // reconfig" hazard: a hybrid-core rescale between two identical
        // requests must miss the cache — the memoized entry predates the
        // rescale.
        let mut cl = one_chip();
        let vm = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(vm).unwrap();
        assert_eq!(cl.cache_stats().misses, 1);
        cl.set_core_scales(0, 3, 50, 200).unwrap();
        assert_ne!(cl.chip(0).topology_generation(), 0);
        let vm = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(vm).unwrap();
        let stats = cl.cache_stats();
        assert_eq!(stats.hits, 0, "post-reconfig lookup must not hit");
        assert_eq!(stats.misses, 2);
        // Without another reconfig the new generation's entry hits.
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().hits, 1);
    }

    #[test]
    fn terminal_no_candidate_rejection_carries_fit_hint() {
        // Two free islands — a 3x2 block (6 cores) and a 2x2 block (4
        // cores), 10 free total. A 3x3 request (9 cores) passes the count
        // check but has no *connected* candidate → NoCandidate; with a
        // budget of one attempt it is terminally rejected. The event must
        // offer the largest shape that does fit: the whole 6-core island.
        let mut cl = one_chip();
        let keep_free = [0u32, 1, 2, 6, 7, 8, 28, 29, 34, 35];
        let taken: Vec<u32> = (0..36).filter(|c| !keep_free.contains(c)).collect();
        cl.chip_mut(0).reserve_cores(&taken).unwrap();
        cl.set_max_attempts(Some(1));
        let id = cl.submit(VnpuRequest::mesh(3, 3));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert!(matches!(
            events[0].outcome,
            Outcome::Rejected(VnpuError::Mapping(vnpu_topo::TopoError::NoCandidate))
        ));
        let hint = events[0].fit_hint.expect("a 6-core island fits");
        assert_eq!(hint.cores, 6, "largest fitting shape fills the big island");
        assert_eq!((hint.width, hint.height), (3, 2));
        // Admitted events never carry a hint.
        let mut cl2 = one_chip();
        cl2.submit(VnpuRequest::mesh(2, 2));
        let ev = cl2.process_admissions();
        assert!(ev[0].fit_hint.is_none());
    }

    #[test]
    fn fit_hint_is_none_on_a_full_chip() {
        let mut cl = one_chip();
        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap();
        assert_eq!(cl.fit_hint(), None);
    }

    #[test]
    fn fit_hint_remains_sound_across_free_set_churn() {
        // A hint is advice the caller may act on immediately: the probe
        // that produced it must place on the *current* free set even
        // when the score memo it searched through still holds candidates
        // scored against a looser free region (the debug-build re-probe
        // in `fit_hint_in_bounded` proves this on every emission; acting
        // on the hint here proves it end to end).
        let mut cl = one_chip();
        let vm = cl.create_on(0, VnpuRequest::mesh(2, 6)).unwrap();
        let loose = cl.fit_hint().expect("most of the chip is free");
        assert!(loose.cores >= 24, "a big island must be advertised");
        // Churn: release the block, then carve the free region up much
        // more tightly — shapes the looser region held no longer fit.
        cl.destroy(vm).unwrap();
        let taken: Vec<u32> = (0..36).filter(|&c| c % 3 != 0 || c >= 18).collect();
        cl.chip_mut(0).reserve_cores(&taken).unwrap();
        let tight = cl.fit_hint().expect("free cores remain");
        assert!(
            tight.cores < loose.cores,
            "the tighter free set must shrink the hint"
        );
        // Acting on the hint verbatim must succeed: the advertised core
        // count rebuilds the exact near-mesh probe shape.
        cl.create_on(0, VnpuRequest::cores(tight.cores))
            .expect("a sound hint is placeable as advertised");
    }

    #[test]
    fn fragmentation_stats_reflect_lock_in() {
        let cfg = SocConfig {
            mesh_width: 3,
            mesh_height: 3,
            ..SocConfig::sim()
        };
        let mut h = Hypervisor::new(cfg);
        let frag = h.fragmentation();
        assert_eq!(frag.free_components, 1);
        assert!((frag.free_connectivity - 1.0).abs() < 1e-12);
        assert!(frag.hbm_external_fragmentation < 1e-12);
        // Occupy the middle row: the free region splits into two islands.
        h.reserve_cores(&[3, 4, 5]).unwrap();
        let frag = h.fragmentation();
        assert_eq!(frag.free_cores, 6);
        assert_eq!(frag.free_components, 2);
        assert_eq!(frag.largest_free_component, 3);
        assert!((frag.free_connectivity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn temporal_sharing_prefers_free_cores_first() {
        let mut h = hv();
        h.create_vnpu(VnpuRequest::mesh(6, 5)).unwrap(); // 30 cores busy
        let vm = h
            .create_vnpu(VnpuRequest::custom(Topology::line(6)).temporal_sharing(true))
            .unwrap();
        // Six cores were still free; sharing must not have been needed.
        let v = h.vnpu(vm).unwrap();
        for n in v.mapping().phys_nodes() {
            assert!(n.0 >= 30, "free bottom row preferred, got {n}");
        }
    }

    #[test]
    fn faulted_free_core_leaves_every_placement_path() {
        let mut h = hv();
        assert!(h.set_core_faulted(0, true).unwrap());
        assert!(!h.set_core_faulted(0, true).unwrap(), "idempotent");
        assert!(h.core_faulted(0));
        assert_eq!(h.faulted_cores().collect::<Vec<_>>(), vec![0]);
        assert_eq!(h.free_core_count(), 35);
        assert_eq!(h.core_users()[0], 0, "fault masking never touches users");
        // Placement routes around the dead core.
        let vm = h.create_vnpu(VnpuRequest::mesh(6, 6 - 1)).unwrap();
        assert!(!h
            .vnpu(vm)
            .unwrap()
            .mapping()
            .phys_nodes()
            .contains(&NodeId(0)));
        // Reservation refuses dead hardware outright.
        assert!(matches!(
            h.reserve_cores(&[0]),
            Err(VnpuError::Faulted { core: 0 })
        ));
        assert!(matches!(
            h.set_core_faulted(99, true),
            Err(VnpuError::VirtCoreOutOfRange { .. })
        ));
        // Repair returns the core.
        assert!(h.set_core_faulted(0, false).unwrap());
        assert_eq!(h.free_core_count(), 6);
    }

    #[test]
    fn faulted_owned_core_is_not_freed_by_teardown() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let dead = h.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        h.set_core_faulted(dead, true).unwrap();
        assert_eq!(h.free_core_count(), 32, "owned core: free set unchanged");
        h.destroy_vnpu(vm).unwrap();
        // Three healthy cores came back; the dead one stayed out.
        assert_eq!(h.free_core_count(), 35);
        assert!(!h.free_set().contains(NodeId(dead)));
        h.set_core_faulted(dead, false).unwrap();
        assert_eq!(h.free_core_count(), 36);
    }

    #[test]
    fn fault_transitions_invalidate_outstanding_plans() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm,
                to: MigrationTarget::CompactMemory,
            }])
            .unwrap();
        h.set_core_faulted(7, true).unwrap();
        assert!(matches!(h.commit(&txn), Err(VnpuError::StalePlan { .. })));
    }

    #[test]
    fn remap_under_pin_escapes_the_faulted_core() {
        let mut h = hv();
        let vm = h.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let dead = h.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        h.set_core_faulted(dead, true).unwrap();
        let txn = h
            .plan(&[PlanOp::Migrate {
                vm,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        let receipt = h.commit(&txn).unwrap();
        assert_eq!(receipt.migrated.len(), 1, "a move must happen");
        let nodes = h.vnpu(vm).unwrap().mapping().phys_nodes();
        assert!(!nodes.contains(&NodeId(dead)), "dead core escaped");
        assert_eq!(h.core_users()[dead as usize], 0);
        assert!(!h.free_set().contains(NodeId(dead)), "still masked");
    }
}
