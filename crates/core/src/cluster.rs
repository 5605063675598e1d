//! The cluster facade: several [`Hypervisor`]-managed chips behind one
//! admission queue — the fleet shape datacenter accelerator serving
//! actually takes (pods of chips, not a chip).
//!
//! The paper virtualizes one inter-core-connected NPU; its admission and
//! mapping machinery is chip-local. A [`Cluster`] lifts that to N chips
//! (heterogeneous [`SocConfig`]s allowed) with three pieces:
//!
//! * **the admission queue** — the only one: a [`Hypervisor`] owns no
//!   queue, and a single chip is served by a 1-chip cluster. Requests
//!   are admitted fleet-wide in arrival order, head of line first;
//! * a [`ChipPlacement`] trait deciding *which chip* each request maps
//!   onto ([`FirstFit`], [`LeastLoaded`] ship);
//! * a **shared [`MappingCache`]**: every chip's placements are memoized
//!   in one table, and advisory fit-hint and defrag probes search through
//!   its score memo without touching its entries or statistics
//!   ([`vnpu_topo::mapping::Mapper::map_scored`]). Entries never alias across chips because
//!   each key carries the chip's `labeled_hash` topology fingerprint (its
//!   mesh shape, node kinds and edges with costs) and its reconfiguration
//!   generation — two identical free regions on two identical chip models
//!   *do* share entries, which is the point.
//!   After reconfigs, soundness relies on the generation reflecting the
//!   actual hardware state, and it does by construction: each chip slot
//!   owns the chip's simulated [`Machine`] next to its hypervisor, every
//!   fault transition and core rescale lands on the machine first, and
//!   the hypervisor copies the machine's reconfig hash chain
//!   ([`Machine::topology_generation`]) — its one writer. Identical
//!   models share entries only while their reconfig histories match.
//!
//! The machine is the chip the hypervisor configures, as in the paper:
//! every cluster mutation updates both halves in one step — a placement
//! registers a machine tenant ([`Cluster::tenants`]), a teardown removes
//! it, a remap or a defrag move pauses it, a cross-chip move re-registers
//! it on the destination paused for the paid cost — so a bare `Cluster`
//! behaves exactly like a served one. A serving loop reads the machine
//! and binds its epochs through [`Cluster::epoch_parts`].
//!
//! Placement attempts stay transactional per chip (a failed
//! [`Hypervisor::create_vnpu_in`] changes nothing), so cluster admission
//! inherits the single-chip leak-freedom invariants. Every fleet-wide
//! operation has one entry point — [`Cluster::process_admissions`],
//! [`Cluster::drain_tick`], [`Cluster::defrag_pass`] — and all of them run
//! on the caller's thread: the per-chip planning inside the latter two is
//! a loop over the chips, in chip order. The mapper below spawns no
//! threads either.
//!
//! Every one of them, and the fleet [`Cluster::fit_hint`], steers by the
//! same per-chip picture: the memoized [`ChipSnapshot`] behind
//! [`Cluster::snapshot_cached`]. Each mutating path clears the memo of
//! the chips it touched, so a chip's free region is scanned once per
//! change, not once per reader, and no caller keeps a copy to re-sync.
//! Builds with debug assertions re-scan on every memo hit and assert the
//! memo equals the fresh scan ([`Cluster::snapshot_of`]).

use crate::admission::{AdmissionQueue, FitHint, FragmentationStats, PendingView, RequestId};
use crate::drain::{plan_step, ChipSchedState, DrainMove, DrainStep};
use crate::hypervisor::Hypervisor;
use crate::ids::VmId;
use crate::plan::{
    CommitReceipt, Defragmenter, MigrationTarget, PlanOp, ReconfigBudget, ReconfigCost,
};
use crate::vnpu::{VirtualNpu, VnpuRequest};
use crate::{Result, VnpuError};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vnpu_sim::machine::{Machine, TenantId};
use vnpu_sim::SocConfig;
use vnpu_topo::cache::{CacheStats, MappingCache};
use vnpu_topo::mapping::Strategy;
use vnpu_topo::TopoError;

/// A virtual NPU's cluster-wide identity: which chip it lives on, and
/// its VM id *on that chip* (chips number their VMs independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterVmId {
    /// Index of the owning chip within the cluster.
    pub chip: usize,
    /// The chip-local VM id.
    pub vm: VmId,
}

impl fmt::Display for ClusterVmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chip{}/{}", self.chip, self.vm)
    }
}

/// A point-in-time picture of one chip, handed to [`ChipPlacement`]
/// implementations: its [`Hypervisor::fragmentation`] plus the static
/// capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSnapshot {
    /// Index of the chip within the cluster.
    pub chip: usize,
    /// Physical cores on the chip.
    pub total_cores: u32,
    /// Cores currently masked out by the hardware-fault layer
    /// ([`Hypervisor::set_core_faulted`]). Never part of the free cores,
    /// and excluded from the capacity a temporal-sharing request may
    /// widen onto.
    pub faulted_cores: u32,
    /// The free-core region and free HBM: one free-region scan serves
    /// admission, fit-hint probing, drain, defragmentation and the
    /// serving layer's fragmentation sample.
    pub frag: FragmentationStats,
    /// Whether the chip may be nominated for placements — `false` while
    /// it is draining for (or under) maintenance. Drained chips are never
    /// nominated by the shipped [`ChipPlacement`] policies (they gate on
    /// [`ChipSnapshot::fits`]) and never advertised by the fleet
    /// [`Cluster::fit_hint`].
    pub schedulable: bool,
}

impl ChipSnapshot {
    /// Whether the chip's capacity can possibly host `req` (count checks
    /// only — the topology mapper has the final word). Temporal-sharing
    /// requests (§7 over-provisioning) may widen onto busy cores, so for
    /// them only the chip's *total* core count gates; HBM is never
    /// time-shared and must be free either way. Unschedulable (draining)
    /// chips fit nothing — the fleet-wide schedulability mask.
    pub fn fits(&self, req: &PendingView) -> bool {
        self.schedulable && self.fits_raw(req.cores, req.memory_bytes, req.temporal_sharing)
    }

    /// The raw capacity check behind [`ChipSnapshot::fits`], *without*
    /// the schedulability gate — drain policies use it to size up
    /// destination chips they already know to be schedulable.
    pub fn fits_raw(&self, cores: u32, memory_bytes: u64, temporal_sharing: bool) -> bool {
        let cores_ok = if temporal_sharing {
            // Dead cores cannot be time-shared either.
            self.total_cores.saturating_sub(self.faulted_cores) >= cores
        } else {
            self.frag.free_cores >= cores
        };
        cores_ok && self.frag.hbm_free_bytes >= memory_bytes
    }
}

/// Decides which chips a request is attempted on, and in what order.
///
/// Object-safe so deployments bring their own placement logic (power
/// capping, tenancy affinity, failure domains) without this crate
/// enumerating it. Implementations must be deterministic functions of
/// their inputs or cluster runs stop being reproducible.
pub trait ChipPlacement: fmt::Debug + Send + Sync {
    /// Short name for reports and debugging.
    fn name(&self) -> &'static str;

    /// Chip indices to attempt for `req`, in preference order; chips not
    /// listed are not attempted this round. Returning an empty vector
    /// makes the attempt fail (the request stays queued, within its
    /// attempt budget).
    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize>;
}

/// Attempt chips in index order, skipping only those that cannot fit the
/// request's raw core/memory counts. The baseline: deterministic, cheap,
/// and it concentrates load on low-index chips (keeping high-index chips
/// drained for large requests).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstFit;

impl ChipPlacement for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize> {
        chips
            .iter()
            .filter(|c| c.fits(req))
            .map(|c| c.chip)
            .collect()
    }
}

/// Prefer the chip with the most free cores (ties: more free HBM, then
/// lower index) — spreads load evenly across the fleet, minimizing
/// per-chip NoC/HBM contention at the cost of fragmenting every chip a
/// little.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoaded;

impl ChipPlacement for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn chip_order(&self, req: &PendingView, chips: &[ChipSnapshot]) -> Vec<usize> {
        // Sorts snapshot positions, then names their chips in place: the
        // key ends in the chip index, so it is a total order.
        let mut order: Vec<usize> = (0..chips.len()).filter(|&p| chips[p].fits(req)).collect();
        order.sort_unstable_by_key(|&p| {
            let c = &chips[p];
            (Reverse((c.frag.free_cores, c.frag.hbm_free_bytes)), c.chip)
        });
        order.iter_mut().for_each(|p| *p = chips[*p].chip);
        order
    }
}

/// Terminal outcome of one cluster-queued request during an admission
/// tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterAdmissionOutcome {
    /// Placed on a chip; the virtual NPU is live.
    Admitted(ClusterVmId),
    /// Permanently rejected (fits no chip in the fleet, or attempt
    /// budget spent). Carries the error from the *last* chip attempted.
    Rejected(VnpuError),
}

/// One terminal cluster admission decision, as returned by
/// [`Cluster::process_admissions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAdmissionEvent {
    /// The request this decision is about.
    pub id: RequestId,
    /// What happened to it.
    pub outcome: ClusterAdmissionOutcome,
    /// The cluster-wide cumulative configuration-cycle counter
    /// ([`Cluster::total_config_cycles`]) at the instant of this
    /// decision, so a scheduler can stamp each placement with only the
    /// configuration work accrued *up to that event* rather than
    /// charging every admission in a tick for the whole tick's work.
    pub config_cycles_total: u64,
    /// On a terminal no-candidate rejection: the largest request shape
    /// that would currently fit on *some* chip (the fleet-wide best
    /// hint), probed through the shared cache.
    pub fit_hint: Option<FitHint>,
}

/// Everything the cluster keeps for one chip, in one value.
#[derive(Debug)]
struct ChipSlot {
    hv: Hypervisor,
    /// The simulated chip the hypervisor configures: its tenants, their
    /// pending migration pauses, its fault mask and core scales.
    machine: Machine,
    /// The machine tenant of every VM the cluster placed on the chip.
    tenants: BTreeMap<VmId, TenantId>,
    /// Schedulability / drain lifecycle state.
    sched: ChipSchedState,
    /// The memoized snapshot (`None` = stale): every mutating path
    /// clears it, so [`Cluster::snapshot_cached`] re-scans only the
    /// chips that changed.
    snap: Option<ChipSnapshot>,
}

/// [`Cluster::slot`], mutably. A free function over the `chips` field so
/// callers keep the cluster's other fields (the shared cache) borrowable
/// alongside.
fn slot_mut(chips: &mut [ChipSlot], chip: usize) -> Result<&mut ChipSlot> {
    let count = chips.len();
    chips
        .get_mut(chip)
        .ok_or(VnpuError::UnknownChip { chip, count })
}

impl ChipSlot {
    /// Registers a VM the hypervisor just placed as a machine tenant —
    /// paused for `landed_pause` cycles when it landed from another chip.
    fn add_tenant(&mut self, vm: VmId, landed_pause: Option<u64>) {
        let name = vm.to_string();
        let tenant = match landed_pause {
            Some(cycles) => self.machine.adopt_tenant(&name, cycles),
            None => self.machine.add_tenant(&name),
        };
        self.tenants.insert(vm, tenant);
        self.snap = None;
    }

    /// Tears a VM down on the hypervisor, then on the machine.
    fn destroy(&mut self, vm: VmId) -> Result<()> {
        self.hv.destroy_vnpu(vm)?;
        self.remove_tenant(vm)
    }

    /// Unregisters a VM the hypervisor no longer holds.
    fn remove_tenant(&mut self, vm: VmId) -> Result<()> {
        self.snap = None;
        if let Some(tenant) = self.tenants.remove(&vm) {
            self.machine.remove_tenant(tenant)?;
        }
        Ok(())
    }

    /// Charges a committed migration's pause to the VM's next epoch —
    /// zero included, which still marks the tenant as moved.
    fn pause(&mut self, vm: VmId, cycles: u64) -> Result<()> {
        if let Some(&tenant) = self.tenants.get(&vm) {
            self.machine.migrate_tenant(tenant, cycles)?;
        }
        Ok(())
    }

    /// Prices and commits one chip's defrag proposals through the shared
    /// `cache` — the second half of a chip's defrag pass.
    fn apply_defrag_ops(
        &mut self,
        cache: &mut MappingCache,
        ops: Vec<PlanOp>,
        budget: &ReconfigBudget,
    ) -> Result<CommitReceipt> {
        if ops.is_empty() {
            return Ok(CommitReceipt::default());
        }
        // Proposals are advisory: a policy whose ops cannot be planned
        // (a tenant departed under it, a target stopped fitting) skips
        // this pass instead of failing the caller's serving tick.
        let Ok(txn) = self.hv.plan_budgeted_in(&ops, budget, cache) else {
            return Ok(CommitReceipt::default());
        };
        // Nothing to do when every affordable op resolved to a no-op
        // migration — committing would pay a full rollback-snapshot
        // clone (and transient buddy churn) to change nothing.
        if txn.ops().iter().all(|p| p.cost.is_zero()) {
            return Ok(CommitReceipt::default());
        }
        let receipt = self.hv.commit_in(&txn, cache)?;
        self.snap = None;
        for &(vm, cost) in &receipt.migrated {
            self.pause(vm, cost.paused_cycles)?;
        }
        Ok(receipt)
    }
}

/// N hypervisor-managed chips behind one admission queue, one placement
/// policy, and one shared mapping cache.
#[derive(Debug)]
pub struct Cluster {
    chips: Vec<ChipSlot>,
    /// The shared placement cache: one bounded FIFO table for every
    /// chip's placements, migrations and recoveries.
    cache: MappingCache,
    admissions: AdmissionQueue,
    placement: Arc<dyn ChipPlacement>,
}

impl Cluster {
    /// A cluster over the given chip models (heterogeneous configs
    /// welcome), each with the default HBM capacity, FIFO admission and
    /// [`FirstFit`] placement.
    ///
    /// # Panics
    ///
    /// Panics when `configs` is empty — a cluster owns at least one chip.
    pub fn new(configs: Vec<SocConfig>) -> Self {
        Self::with_chips(configs.into_iter().map(Hypervisor::new).collect())
    }

    /// A cluster over pre-built hypervisors (use this for per-chip HBM
    /// sizes or pre-reserved cores).
    ///
    /// # Panics
    ///
    /// Panics when `chips` is empty.
    pub fn with_chips(chips: Vec<Hypervisor>) -> Self {
        assert!(!chips.is_empty(), "a cluster owns at least one chip");
        let chips = chips
            .into_iter()
            .map(|hv| ChipSlot {
                machine: Machine::new(hv.config().clone()),
                tenants: BTreeMap::new(),
                hv,
                sched: ChipSchedState::Schedulable,
                snap: None,
            })
            .collect();
        Cluster {
            chips,
            cache: MappingCache::default(),
            admissions: AdmissionQueue::default(),
            placement: Arc::new(FirstFit),
        }
    }

    /// The slot of `chip`, or [`VnpuError::UnknownChip`].
    fn slot(&self, chip: usize) -> Result<&ChipSlot> {
        let count = self.chips.len();
        self.chips
            .get(chip)
            .ok_or(VnpuError::UnknownChip { chip, count })
    }

    /// Number of chips.
    pub fn chip_count(&self) -> usize {
        self.chips.len()
    }

    /// The chip at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn chip(&self, index: usize) -> &Hypervisor {
        &self.chips[index].hv
    }

    /// Mutable access to the hypervisor at `index` — administrative
    /// operations (reserving cores, planning by hand). It bypasses the
    /// chip's machine: a vNPU created or destroyed through it gains or
    /// keeps no machine tenant, so place, move and tear down tenants
    /// through the cluster's own methods. The topology generation cannot
    /// be written through it; it follows the machine.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn chip_mut(&mut self, index: usize) -> &mut Hypervisor {
        // The caller may mutate anything; the memoized snapshot is stale.
        let slot = &mut self.chips[index];
        slot.snap = None;
        &mut slot.hv
    }

    /// The chips, in index order.
    pub fn chips(&self) -> impl Iterator<Item = &Hypervisor> {
        self.chips.iter().map(|slot| &slot.hv)
    }

    /// The simulated chip behind the hypervisor at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn machine(&self, index: usize) -> &Machine {
        &self.chips[index].machine
    }

    /// The machine tenant of every VM placed on chip `index`, by VM id.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn tenants(&self, index: usize) -> &BTreeMap<VmId, TenantId> {
        &self.chips[index].tenants
    }

    /// What one machine epoch on chip `index` needs: the machine, to bind
    /// the residents' programs and run, and the hypervisor that deployed
    /// them. Tenants are registered, paused and removed by the cluster's
    /// mutations, not through this borrow.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn epoch_parts(&mut self, index: usize) -> (&mut Machine, &Hypervisor) {
        let slot = &mut self.chips[index];
        (&mut slot.machine, &slot.hv)
    }

    /// Replaces the chip-placement policy.
    pub fn set_placement(&mut self, placement: Arc<dyn ChipPlacement>) {
        self.placement = placement;
    }

    /// The active chip-placement policy.
    pub fn placement(&self) -> &Arc<dyn ChipPlacement> {
        &self.placement
    }

    /// Caps placement attempts per queued request.
    pub fn set_max_attempts(&mut self, max_attempts: Option<u32>) {
        self.admissions.set_max_attempts(max_attempts);
    }

    /// Queues a create request for the next admission tick. Requests
    /// that can *never* fit (more cores than any chip, more memory than
    /// any HBM) are still queued; the first tick rejects them.
    pub fn submit(&mut self, req: VnpuRequest) -> RequestId {
        self.admissions.push(req)
    }

    /// Number of requests waiting for placement.
    pub fn pending_count(&self) -> usize {
        self.admissions.len()
    }

    /// Shared mapping-cache counters (all chips fold into one table).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Cluster-wide cumulative meta-table configuration cycles.
    pub fn total_config_cycles(&self) -> u64 {
        self.chips().map(Hypervisor::total_config_cycles).sum()
    }

    /// Live virtual NPUs across all chips.
    pub fn live_count(&self) -> usize {
        self.chips().map(Hypervisor::vnpu_count).sum()
    }

    /// Total physical cores across all chips.
    pub fn total_cores(&self) -> u32 {
        self.chips().map(|h| h.config().core_count()).sum()
    }

    /// Free cores across all chips.
    pub fn free_cores(&self) -> u32 {
        self.chips().map(Hypervisor::free_core_count).sum()
    }

    /// The placement snapshot of one chip, scanned afresh (read-only —
    /// the form audits and tests use, and the oracle of
    /// [`Cluster::snapshot_cached`]).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn snapshot_of(&self, index: usize) -> ChipSnapshot {
        let ChipSlot { hv, sched, .. } = &self.chips[index];
        ChipSnapshot {
            chip: index,
            total_cores: hv.config().core_count(),
            faulted_cores: hv.faulted_core_count(),
            frag: hv.fragmentation(),
            schedulable: *sched == ChipSchedState::Schedulable,
        }
    }

    /// One chip's snapshot from the memoized store, re-scanned only when
    /// stale — the picture every fleet-wide operation steers by. Every
    /// mutating path (placements, teardowns, migrations, fault and
    /// drain-lifecycle transitions, [`Cluster::chip_mut`]) marks the
    /// chips it touched stale, so this is always the current picture;
    /// builds with debug assertions re-scan on every hit and assert it.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn snapshot_cached(&mut self, index: usize) -> ChipSnapshot {
        if let Some(snap) = self.chips[index].snap {
            debug_assert_eq!(snap, self.snapshot_of(index), "stale snapshot memo");
            return snap;
        }
        let snap = self.snapshot_of(index);
        self.chips[index].snap = Some(snap);
        snap
    }

    /// Every chip's snapshot from the memoized store, in chip order.
    fn snapshots(&mut self) -> Vec<ChipSnapshot> {
        (0..self.chips.len())
            .map(|i| self.snapshot_cached(i))
            .collect()
    }

    // ------------------------------------------------------------------
    // Drain-for-maintenance (see [`crate::drain`]).
    // ------------------------------------------------------------------

    /// The chip's position in the drain lifecycle.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range index.
    pub fn drain_state(&self, chip: usize) -> Result<ChipSchedState> {
        Ok(self.slot(chip)?.sched)
    }

    /// Takes a chip out of service for maintenance: from this call on it
    /// is never nominated by the placement policy, never advertised by
    /// the fleet [`Cluster::fit_hint`], and refuses direct placements
    /// ([`Cluster::create_on`]) and inbound migrations. Its live tenants
    /// keep running and are moved off by budgeted
    /// [`Cluster::drain_tick`]s. Outstanding placement plans against the
    /// chip are staled ([`Hypervisor::invalidate_plans`]) so half-planned
    /// reshapes cannot land mid-drain.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip is already draining or drained.
    pub fn begin_drain(&mut self, chip: usize) -> Result<()> {
        let slot = slot_mut(&mut self.chips, chip)?;
        if slot.sched != ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip is already draining or drained",
            });
        }
        slot.sched = ChipSchedState::Draining;
        slot.hv.invalidate_plans();
        slot.snap = None;
        Ok(())
    }

    /// Runs one budgeted evacuation step on *every* draining chip — the
    /// one drain entry point. Each chip proposes this epoch's
    /// `(tenant, destination)` set within `budget`, read-only, against
    /// the memoized snapshots of the schedulable chips: its cheapest
    /// tenants first (by estimated cross-chip [`ReconfigCost`]), each
    /// onto the least-loaded schedulable chip that fits it. The proposals
    /// are then applied in chip order, each through the transactional
    /// [`Cluster::migrate_to_chip`] — create-before-destroy, so a failed
    /// move leaves the tenant on the source chip. Proposals that no
    /// longer apply (tenant departed, destination stopped fitting or
    /// draining itself) are skipped, not errors: the tenants stay for a
    /// later step. Returns `(chip, step)` pairs in chip order; no chip
    /// draining means no step.
    ///
    /// Every chip is planned before any proposal is applied: with several
    /// chips draining, every plan sees the fleet as it stood at the call
    /// rather than its predecessors' moves.
    pub fn drain_tick(&mut self, budget: &ReconfigBudget) -> Vec<(usize, DrainStep)> {
        if self
            .chips
            .iter()
            .all(|s| s.sched != ChipSchedState::Draining)
        {
            return Vec::new();
        }
        let mut destinations = self.snapshots();
        destinations.retain(|s| s.schedulable);
        let plans: Vec<(usize, Vec<(VmId, usize)>)> = self
            .chips
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.sched == ChipSchedState::Draining)
            .map(|(chip, slot)| (chip, plan_step(&slot.hv, &destinations, budget)))
            .collect();
        plans
            .into_iter()
            .map(|(chip, proposals)| (chip, self.apply_drain_proposals(chip, proposals, budget)))
            .collect()
    }

    /// Applies one chip's drain proposals under the budget — the second
    /// half of a drain step.
    fn apply_drain_proposals(
        &mut self,
        chip: usize,
        proposals: Vec<(VmId, usize)>,
        budget: &ReconfigBudget,
    ) -> DrainStep {
        let total_proposals = proposals.len();
        let mut step = DrainStep::default();
        for (applied, (vm, dest)) in proposals.into_iter().enumerate() {
            // Proposals are advisory; the budget is a hard per-step cap
            // on what the moves actually paid. Admission gates on the
            // tenant's *estimated* cost (the landed copy's meta-tables
            // may price slightly differently), so the post-move check
            // below bounds any estimate overshoot to a single move.
            let hv = &self.chips[chip].hv;
            let affordable = hv.vnpu(vm).is_ok_and(|v| {
                let estimate = crate::drain::estimated_move_cost(hv, v);
                budget.admits(&step.total, step.moved.len(), &estimate)
            });
            if !affordable {
                step.skipped += 1;
                continue;
            }
            let from = ClusterVmId { chip, vm };
            match self.migrate_to_chip(from, dest) {
                Ok((to, cost)) => {
                    step.total = step.total.plus(cost);
                    step.moved.push(DrainMove { from, to, cost });
                    // Paid costs reached (or overshot) a budget cap: no
                    // further proposal can be admitted this step.
                    if !budget.admits(&step.total, step.moved.len(), &ReconfigCost::default()) {
                        step.skipped += total_proposals - applied - 1;
                        break;
                    }
                }
                Err(_) => step.skipped += 1,
            }
        }
        step.remaining = self.chips[chip].hv.vnpu_count();
        step
    }

    /// Declares the evacuation finished: the chip must hold zero tenants.
    /// It stays unschedulable (the maintenance window is open) until
    /// [`Cluster::undrain`] hands it back.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip is not draining or still has residents.
    pub fn complete_drain(&mut self, chip: usize) -> Result<()> {
        let slot = slot_mut(&mut self.chips, chip)?;
        if slot.sched != ChipSchedState::Draining {
            return Err(VnpuError::Drain {
                chip,
                detail: "complete_drain requires an active drain",
            });
        }
        if slot.hv.vnpu_count() > 0 {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip still has resident tenants",
            });
        }
        slot.sched = ChipSchedState::Drained;
        slot.snap = None;
        Ok(())
    }

    /// Hands a draining or drained chip back to the schedulers: it is
    /// nominated and advertised again exactly as before the drain, its
    /// memoized snapshot marked stale.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad index; [`VnpuError::Drain`]
    /// when the chip was not draining or drained.
    pub fn undrain(&mut self, chip: usize) -> Result<()> {
        let slot = slot_mut(&mut self.chips, chip)?;
        if slot.sched == ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip,
                detail: "chip is not draining or drained",
            });
        }
        slot.sched = ChipSchedState::Schedulable;
        self.reshaped(chip);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hardware-fault lifecycle (the `vnpu_fault` layer's cluster hooks).
    // ------------------------------------------------------------------

    /// Cache hygiene after `chip`'s placeable region changed shape (a
    /// fault-mask transition, a hand-back from maintenance): its memoized
    /// snapshot is marked stale. The placement cache needs no flush: its
    /// keys carry the chip's reconfiguration generation, which the
    /// hypervisor copies here from the machine's hash chain (extended on
    /// every onset/repair), so stale entries expire by key. Advisory
    /// probes store no results, and the score memo they share with
    /// placements is keyed by request and candidate structure alone, so
    /// neither has anything to drop.
    fn reshaped(&mut self, chip: usize) {
        let slot = &mut self.chips[chip];
        slot.snap = None;
        slot.hv
            .set_topology_generation(slot.machine.topology_generation());
    }

    /// Marks one core on one chip faulted — on the machine first, then in
    /// the hypervisor's mask. Returns whether the mask changed
    /// (idempotent, like [`Hypervisor::set_core_faulted`]).
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad chip index;
    /// [`VnpuError::Sim`] ([`vnpu_sim::SimError::CoreOutOfRange`]) for a
    /// core outside the chip, with both halves untouched.
    pub fn fault_core(&mut self, chip: usize, core: u32) -> Result<bool> {
        self.set_core_fault_state(chip, core, true)
    }

    /// Repairs a previously faulted core: it rejoins the free region (if
    /// unowned).
    ///
    /// # Errors
    ///
    /// As for [`Cluster::fault_core`].
    pub fn repair_core(&mut self, chip: usize, core: u32) -> Result<bool> {
        self.set_core_fault_state(chip, core, false)
    }

    fn set_core_fault_state(&mut self, chip: usize, core: u32, faulted: bool) -> Result<bool> {
        let slot = slot_mut(&mut self.chips, chip)?;
        let changed = if faulted {
            slot.machine.fault_core(core)?
        } else {
            slot.machine.repair_core(core)?
        };
        slot.hv.set_core_faulted(core, faulted)?;
        if changed {
            self.reshaped(chip);
        }
        Ok(changed)
    }

    /// Marks one undirected NoC link on one chip faulted. The chip's
    /// machine is the only record of it; a change also expires the
    /// hypervisor's outstanding plans. Returns whether the link's state
    /// changed.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad chip index;
    /// [`VnpuError::Sim`] ([`vnpu_sim::SimError::RouteFault`]) when `a`
    /// and `b` are not neighbours on the mesh, with the chip untouched.
    pub fn fault_link(&mut self, chip: usize, a: u32, b: u32) -> Result<bool> {
        self.set_link_fault_state(chip, a, b, true)
    }

    /// Repairs a previously faulted link.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::fault_link`].
    pub fn repair_link(&mut self, chip: usize, a: u32, b: u32) -> Result<bool> {
        self.set_link_fault_state(chip, a, b, false)
    }

    fn set_link_fault_state(&mut self, chip: usize, a: u32, b: u32, faulted: bool) -> Result<bool> {
        let slot = slot_mut(&mut self.chips, chip)?;
        let changed = if faulted {
            slot.machine.fault_link(a, b)?
        } else {
            slot.machine.repair_link(a, b)?
        };
        if changed {
            slot.hv.invalidate_plans();
            self.reshaped(chip);
        }
        Ok(changed)
    }

    /// Reconfigures a hybrid core (§7) on one chip: the machine rescales
    /// it and extends its topology-generation hash chain, which the
    /// hypervisor adopts, so placement-cache entries from before the
    /// rescale expire, as they do across a fault transition.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for a bad chip index;
    /// [`VnpuError::Sim`] for a bad core index, with both halves
    /// untouched.
    pub fn set_core_scales(
        &mut self,
        chip: usize,
        core: u32,
        matrix_pct: u32,
        vector_pct: u32,
    ) -> Result<()> {
        let slot = slot_mut(&mut self.chips, chip)?;
        slot.machine.set_core_scales(core, matrix_pct, vector_pct)?;
        slot.hv
            .set_topology_generation(slot.machine.topology_generation());
        Ok(())
    }

    /// Provisions a virtual NPU on a specific chip, through the shared
    /// cache — the direct (queue-bypassing) path.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range chip index;
    /// [`VnpuError::Drain`] when the chip is draining or drained (even
    /// the queue-bypassing path honours the maintenance mask); otherwise
    /// as for [`Hypervisor::create_vnpu`].
    pub fn create_on(&mut self, chip: usize, req: VnpuRequest) -> Result<ClusterVmId> {
        let slot = slot_mut(&mut self.chips, chip)?;
        if slot.sched != ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip,
                detail: "cannot place on a draining chip",
            });
        }
        let vm = slot.hv.create_vnpu_in(req, &mut self.cache)?;
        slot.add_tenant(vm, None);
        Ok(ClusterVmId { chip, vm })
    }

    /// Looks up a live virtual NPU.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range chip index,
    /// [`VnpuError::UnknownVm`] for stale IDs.
    pub fn vnpu(&self, id: ClusterVmId) -> Result<&VirtualNpu> {
        self.slot(id.chip)?.hv.vnpu(id.vm)
    }

    /// Tears down a virtual NPU, releasing its chip's cores and memory,
    /// and removes its machine tenant.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] for an out-of-range chip index,
    /// otherwise as for [`Hypervisor::destroy_vnpu`] and
    /// [`Machine::remove_tenant`].
    pub fn destroy(&mut self, id: ClusterVmId) -> Result<()> {
        slot_mut(&mut self.chips, id.chip)?.destroy(id.vm)
    }

    /// The fleet-wide fit hint: the largest shape that would currently
    /// place on *some* schedulable chip, probed through the shared
    /// placement cache's score memo (its entries and statistics stay
    /// untouched). Draining and drained chips are never advertised.
    /// Chips are probed biggest-island-first, each chip's largest free
    /// island read from its memoized snapshot, and pruned once no
    /// remaining chip's island can beat the best hint found.
    pub fn fit_hint(&mut self) -> Option<FitHint> {
        let mut order: Vec<(Reverse<usize>, usize)> = (0..self.chips.len())
            .map(|i| {
                let island = self.snapshot_cached(i).frag.largest_free_component;
                (Reverse(island), i)
            })
            .collect();
        order.sort_unstable();
        let mut best: Option<FitHint> = None;
        for (Reverse(island), i) in order {
            if best.is_some_and(|b| island as u32 <= b.cores) {
                break; // sorted descending: nothing further can beat it
            }
            let slot = &self.chips[i];
            if slot.sched != ChipSchedState::Schedulable {
                continue; // a draining chip's window must not be advertised
            }
            if let Some(hint) = slot.hv.fit_hint_in_bounded(&mut self.cache, island) {
                if best.is_none_or(|b| hint.cores > b.cores) {
                    best = Some(hint);
                }
            }
        }
        best
    }

    /// Runs one cluster admission tick: queued requests in arrival
    /// order, each attempted on the chips the placement policy nominates,
    /// in order, through the shared mapping cache — each attempt the same
    /// transactional [`Hypervisor::create_vnpu_in`] pipeline a direct
    /// create runs. Returns the tick's *terminal* decisions — admissions
    /// and rejections; requests that merely stay queued produce no event.
    ///
    /// A request is terminally rejected when it cannot fit *any* chip
    /// even idle, or when its attempt budget is spent. A placed or
    /// rejected head leaves the queue and the tick moves on to the next
    /// request; any other failure ends the tick (head-of-line blocking).
    pub fn process_admissions(&mut self) -> Vec<ClusterAdmissionEvent> {
        let mut events = Vec::new();
        // Chip snapshots only change when a placement succeeds (failed
        // attempts are transactional), so the placement policy's view is
        // read from the memo once and refreshed only for the placed chip.
        let mut snapshots = self.snapshots();
        while let Some(head) = self.admissions.front() {
            let (id, view) = (head.id, head.view());
            let order = self.placement.chip_order(&view, &snapshots);
            let mut last_err: Option<VnpuError> = None;
            // Whether *any* chip rejected for want of a candidate this
            // attempt — the fleet hint must not depend on which chip the
            // placement policy happened to try last.
            let mut saw_no_candidate = false;
            let mut placed: Option<ClusterVmId> = None;
            for chip in order {
                // Defense in depth against custom placement policies: a
                // draining (or out-of-range) chip is never attempted even
                // when nominated (the shipped policies already filter on
                // the snapshot's schedulability mask).
                let Some(slot) = self
                    .chips
                    .get_mut(chip)
                    .filter(|slot| slot.sched == ChipSchedState::Schedulable)
                else {
                    continue;
                };
                match slot.hv.create_vnpu_in(&head.req, &mut self.cache) {
                    Ok(vm) => {
                        slot.add_tenant(vm, None);
                        placed = Some(ClusterVmId { chip, vm });
                        break;
                    }
                    Err(err) => {
                        saw_no_candidate |=
                            matches!(err, VnpuError::Mapping(TopoError::NoCandidate));
                        last_err = Some(err);
                    }
                }
            }
            match placed {
                Some(cvm) => {
                    self.admissions.pop_front();
                    snapshots[cvm.chip] = self.snapshot_cached(cvm.chip);
                    events.push(ClusterAdmissionEvent {
                        id,
                        outcome: ClusterAdmissionOutcome::Admitted(cvm),
                        config_cycles_total: self.total_config_cycles(),
                        fit_hint: None,
                    });
                }
                None => {
                    // Terminal = impossible fleet-wide: no chip's raw
                    // capacity covers the request even when idle. The
                    // classification only applies to *failed* attempts:
                    // if a placement path lets such a request place after
                    // all, the admission succeeds normally.
                    let terminal = view.cores == 0
                        || view.memory_bytes == 0
                        || self.chips().all(|h| {
                            view.cores > h.config().core_count()
                                || view.memory_bytes > h.hbm_total_bytes()
                        });
                    let budget_spent = self.admissions.mark_front_failed();
                    if !(terminal || budget_spent) {
                        break;
                    }
                    self.admissions.pop_front();
                    // No chip was nominated, or every nominated chip
                    // failed. An empty nomination means no chip's free
                    // capacity covers the request right now — blame the
                    // resource that actually blocks: cores if no chip has
                    // enough of them free, otherwise memory.
                    let err = last_err.unwrap_or_else(|| {
                        // Only schedulable chips count as capacity — a
                        // draining chip's free cores are not on offer.
                        let schedulable = || {
                            self.chips
                                .iter()
                                .filter(|slot| slot.sched == ChipSchedState::Schedulable)
                                .map(|slot| &slot.hv)
                        };
                        let cores_feasible = schedulable()
                            .any(|h| h.free_core_count() >= view.cores || view.temporal_sharing);
                        if cores_feasible {
                            VnpuError::Memory(vnpu_mem::MemError::OutOfMemory {
                                requested: view.memory_bytes,
                            })
                        } else {
                            VnpuError::Mapping(TopoError::InsufficientNodes {
                                requested: view.cores as usize,
                                available: schedulable()
                                    .map(|h| h.free_core_count() as usize)
                                    .max()
                                    .unwrap_or(0),
                            })
                        }
                    });
                    let fit_hint = if saw_no_candidate {
                        self.fit_hint()
                    } else {
                        None
                    };
                    events.push(ClusterAdmissionEvent {
                        id,
                        outcome: ClusterAdmissionOutcome::Rejected(err),
                        config_cycles_total: self.total_config_cycles(),
                        fit_hint,
                    });
                }
            }
        }
        events
    }

    /// Runs one background-defragmentation pass over *every* schedulable
    /// chip — the one defrag entry point (a draining chip is being
    /// emptied, not compacted). The policy proposes migrations per chip
    /// from the chip's memoized snapshot ([`ChipSnapshot::frag`]),
    /// reading only the owning chip and probing through the shared cache's
    /// score memo, never its entries. Each chip's plan is then priced through
    /// [`Hypervisor::plan_budgeted_in`] against the shared mapping cache
    /// (dropping everything past the default [`ReconfigBudget`], per chip)
    /// and the affordable prefix committed atomically, in chip order.
    /// Returns `(chip, receipt)` pairs in chip order, one per schedulable
    /// chip (empty when the policy proposed nothing or nothing was
    /// affordable).
    ///
    /// # Errors
    ///
    /// As for [`Hypervisor::commit_in`] on the first failing chip (a
    /// failed commit leaves the chip untouched).
    pub fn defrag_pass(
        &mut self,
        defrag: &Arc<dyn Defragmenter>,
    ) -> Result<Vec<(usize, CommitReceipt)>> {
        let budget = ReconfigBudget::default();
        let mut receipts = Vec::new();
        for chip in 0..self.chips.len() {
            if self.chips[chip].sched != ChipSchedState::Schedulable {
                continue;
            }
            let stats = self.snapshot_cached(chip).frag;
            let slot = &mut self.chips[chip];
            let ops = defrag.plan(&slot.hv, &stats, &budget, &mut self.cache);
            receipts.push((chip, slot.apply_defrag_ops(&mut self.cache, ops, &budget)?));
        }
        Ok(receipts)
    }

    /// Remaps a virtual NPU in place on its own chip under a
    /// caller-supplied strategy — the fault layer's remap-under-pin
    /// primitive. Unlike the same-chip arm of
    /// [`Cluster::migrate_to_chip`] (which re-runs the tenant's *own*
    /// strategy, preserving e.g. an exact-only guarantee), this lets fault
    /// recovery substitute a laxer strategy when the tenant must
    /// escape a faulted core at any shape cost. The plan machinery never
    /// re-offers a faulted node, so a successful remap provably leaves
    /// every dead core behind. Works on draining chips too: recovery
    /// outranks the maintenance mask because the alternative is a tenant
    /// pinned to dead hardware.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] / [`VnpuError::UnknownVm`] for bad
    /// IDs; otherwise as for [`Hypervisor::plan_in`] /
    /// [`Hypervisor::commit_in`] (notably [`VnpuError::Mapping`] —
    /// `NoCandidate` or `InsufficientNodes` — when no fault-free
    /// placement of the tenant's shape exists, changing nothing).
    pub fn recover_in_place(
        &mut self,
        id: ClusterVmId,
        strategy: &Strategy,
    ) -> Result<ReconfigCost> {
        self.remap_under_pin(id, strategy.clone())
    }

    /// The one same-chip move: a remap-under-pin of `id` under
    /// `strategy`, planned and committed as a single transaction through
    /// the shared cache, its pause charged to the tenant's next epoch.
    /// Returns the paid cost (zero when the best mapping is the current
    /// one).
    fn remap_under_pin(&mut self, id: ClusterVmId, strategy: Strategy) -> Result<ReconfigCost> {
        let slot = slot_mut(&mut self.chips, id.chip)?;
        let ops = [PlanOp::Migrate {
            vm: id.vm,
            to: MigrationTarget::Remap(strategy),
        }];
        let txn = slot.hv.plan_in(&ops, &mut self.cache)?;
        let receipt = slot.hv.commit_in(&txn, &mut self.cache)?;
        slot.snap = None;
        let cost = receipt.migrated.first().map(|m| m.1).unwrap_or_default();
        slot.pause(id.vm, cost.paused_cycles)?;
        Ok(cost)
    }

    /// Live-migrates a virtual NPU across chips: the tenant is recreated
    /// on `to_chip` through the shared cache (a transactional create) and
    /// destroyed on its source chip only after the create succeeds — a
    /// failure leaves the source untouched. The returned cost is
    /// dominated by the data-movement term: unlike an intra-chip move,
    /// the tenant's entire guest HBM crosses chips on top of its per-core
    /// scratchpad state.
    ///
    /// Same-chip "migrations" (`to_chip == id.chip`) are a
    /// remap-under-pin transaction instead (planned by running the
    /// commit's op loop on a copy of the chip's placement state, then
    /// committed) — under the tenant's own mapping strategy, so an
    /// exact-only tenant keeps its edit-distance-0 guarantee — which may
    /// be a free no-op.
    ///
    /// # Errors
    ///
    /// [`VnpuError::UnknownChip`] / [`VnpuError::UnknownVm`] for bad IDs;
    /// [`VnpuError::Drain`] when the destination chip is draining or
    /// drained (evacuations move *off* maintenance chips, never onto
    /// them); otherwise as for [`Hypervisor::plan_in`] /
    /// [`Hypervisor::commit_in`] on the target chip.
    pub fn migrate_to_chip(
        &mut self,
        id: ClusterVmId,
        to_chip: usize,
    ) -> Result<(ClusterVmId, ReconfigCost)> {
        if self.drain_state(to_chip)? != ChipSchedState::Schedulable {
            return Err(VnpuError::Drain {
                chip: to_chip,
                detail: "cannot migrate onto a draining chip",
            });
        }
        let vnpu = self.vnpu(id)?;
        if to_chip == id.chip {
            let strategy = vnpu.request().strategy_ref().clone();
            return Ok((id, self.remap_under_pin(id, strategy)?));
        }
        // The landed copy is placed from the tenant's own request, so it
        // keeps every policy that request carries; only its memory is the
        // size the source actually allocated.
        let req = vnpu.request().clone().mem_bytes(vnpu.mem_bytes());
        // Cross-chip state: every byte of guest HBM plus each core's
        // scratchpad working set moves over the inter-chip fabric (the
        // same formula the drain estimate prices against).
        let data_move = crate::drain::cross_chip_data_bytes(&self.chips[id.chip].hv, vnpu);
        // create_vnpu_in is all-or-nothing, and the source is only torn
        // down after the copy stands.
        let dest = &mut self.chips[to_chip].hv;
        let new_vm = dest.create_vnpu_in(req, &mut self.cache)?;
        let landed = dest.vnpu(new_vm).expect("just created");
        let cost = ReconfigCost::for_move(
            landed.routing_table().config_cycles(),
            vnpu_mem::rtt::rtt_deploy_cycles(landed.rtt_entries().len()),
            data_move,
        );
        self.chips[to_chip].snap = None;
        if let Err(e) = self.chips[id.chip].destroy(id.vm) {
            // Unwind the landed copy so a failed source teardown leaves
            // the fleet exactly as it was.
            self.chips[to_chip]
                .hv
                .destroy_vnpu(new_vm)
                .expect("freshly created vm tears down");
            return Err(e);
        }
        // The landed copy becomes a machine tenant only once the source's
        // is gone, paused for the paid move.
        self.chips[to_chip].add_tenant(new_vm, Some(cost.paused_cycles));
        let to = ClusterVmId {
            chip: to_chip,
            vm: new_vm,
        };
        Ok((to, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vchunk::MemMode;

    fn sim_chip() -> SocConfig {
        SocConfig::sim() // 6x6
    }

    fn small_chip() -> SocConfig {
        SocConfig {
            mesh_width: 4,
            mesh_height: 4,
            ..SocConfig::sim()
        }
    }

    fn two_chip_cluster() -> Cluster {
        Cluster::new(vec![sim_chip(), small_chip()])
    }

    #[test]
    fn create_on_an_unknown_chip_is_an_error_not_a_panic() {
        let mut cl = two_chip_cluster();
        assert_eq!(
            cl.create_on(2, VnpuRequest::mesh(1, 1)),
            Err(VnpuError::UnknownChip { chip: 2, count: 2 })
        );
        assert_eq!(cl.live_count(), 0);
    }

    #[test]
    fn first_fit_concentrates_on_chip_zero() {
        let mut cl = two_chip_cluster();
        for _ in 0..3 {
            cl.submit(VnpuRequest::mesh(2, 2));
        }
        let events = cl.process_admissions();
        assert_eq!(events.len(), 3);
        for e in &events {
            match e.outcome {
                ClusterAdmissionOutcome::Admitted(cvm) => assert_eq!(cvm.chip, 0),
                ref o => panic!("expected admission, got {o:?}"),
            }
        }
        assert_eq!(cl.chip(0).vnpu_count(), 3);
        assert_eq!(cl.chip(1).vnpu_count(), 0);
    }

    #[test]
    fn least_loaded_spreads_across_chips() {
        // Two identical chips: least-loaded alternates between them
        // (every placement makes the other chip the emptier one).
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.set_placement(Arc::new(LeastLoaded));
        for _ in 0..4 {
            cl.submit(VnpuRequest::mesh(2, 2));
        }
        let events = cl.process_admissions();
        assert_eq!(events.len(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 2);
        assert_eq!(
            cl.chip(1).vnpu_count(),
            2,
            "least-loaded must alternate between equal chips"
        );
    }

    #[test]
    fn spillover_when_the_preferred_chip_is_full() {
        let mut cl = two_chip_cluster();
        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap(); // fill chip 0
        cl.submit(VnpuRequest::mesh(3, 3));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        match events[0].outcome {
            ClusterAdmissionOutcome::Admitted(cvm) => assert_eq!(cvm.chip, 1),
            ref o => panic!("expected spillover admission, got {o:?}"),
        }
    }

    #[test]
    fn a_borrowed_head_fails_on_one_chip_and_places_on_the_next() {
        // Chip 0 keeps columns 0, 2 and 4 free: cores enough for an
        // exact-only 2x2, but no square among them, so the first nominated
        // chip fails with `NoCandidate` and the second places the queued
        // request. The same steps with an owned clone per chip must leave
        // every chip, the shared cache and the accounting identical.
        let fragmented = || {
            let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
            let odd_columns: Vec<u32> = (0..36).filter(|c| c % 2 == 1).collect();
            cl.chip_mut(0).reserve_cores(&odd_columns).unwrap();
            cl
        };
        let req = VnpuRequest::mesh(2, 2).strategy(Strategy::exact_only());

        let mut borrowed = fragmented();
        let id = borrowed.submit(req.clone());
        let events = borrowed.process_admissions();

        let mut owned = fragmented();
        assert_eq!(
            owned.create_on(0, req.clone()),
            Err(VnpuError::Mapping(TopoError::NoCandidate))
        );
        let placed = owned.create_on(1, req.clone()).unwrap();

        assert_eq!(
            events,
            vec![ClusterAdmissionEvent {
                id,
                outcome: ClusterAdmissionOutcome::Admitted(placed),
                config_cycles_total: owned.total_config_cycles(),
                fit_hint: None,
            }]
        );
        assert!(borrowed.admissions.is_empty());
        for chip in 0..2 {
            assert_eq!(
                borrowed.chip(chip).state_digest(),
                owned.chip(chip).state_digest(),
                "chip {chip}"
            );
        }
        assert_eq!(borrowed.cache_stats(), owned.cache_stats());
        assert_eq!(borrowed.cache_stats().misses, 2, "one search per chip");
        assert_eq!(
            borrowed.vnpu(placed).unwrap().request().topology(),
            req.topology()
        );
    }

    #[test]
    fn fleet_impossible_requests_reject_immediately() {
        let mut cl = two_chip_cluster();
        let id = cl.submit(VnpuRequest::mesh(7, 7)); // 49 > 36 > 16
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].id, id);
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Rejected(_)
        ));
        // ...but a request that fits only the *larger* chip is not
        // terminal for the fleet.
        cl.submit(VnpuRequest::mesh(5, 5)); // 25 ≤ 36, > 16
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
        ));
    }

    #[test]
    fn shared_cache_hits_for_identical_chip_models() {
        // Two identical chips: the second chip's first placement of a
        // popular shape reuses the first chip's cached mapping (same
        // phys_key, same free fingerprint).
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().misses, 1);
        cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        let stats = cl.cache_stats();
        assert_eq!(stats.hits, 1, "identical chips share mapping work");
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn heterogeneous_chips_never_share_entries() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(
            cl.cache_stats().hits,
            0,
            "different phys_keys must not alias"
        );
        assert_eq!(cl.cache_stats().misses, 2);
        // Both placements are valid on their own chips.
        for (id, cores) in [(a, 36u32), (b, 16u32)] {
            for n in cl.vnpu(id).unwrap().mapping().phys_nodes() {
                assert!(n.0 < cores, "{id}: node {n} outside its chip");
            }
        }
    }

    #[test]
    fn cluster_destroy_and_leak_accounting() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(3, 3)).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.live_count(), 2);
        cl.destroy(a).unwrap();
        cl.destroy(b).unwrap();
        assert_eq!(cl.live_count(), 0);
        assert_eq!(cl.free_cores(), cl.total_cores());
        assert!(cl.destroy(a).is_err(), "double destroy is an error");
    }

    #[test]
    fn cluster_policies_order_across_chips() {
        let mut cl = two_chip_cluster();
        // Fill both chips except small islands: 6 free cores on chip 0,
        // 4 on chip 1.
        let resident = cl.create_on(0, VnpuRequest::mesh(6, 5)).unwrap();
        cl.create_on(1, VnpuRequest::mesh(4, 3)).unwrap();
        // The big request fits nothing now, the small one either chip:
        // the fleet-wide queue blocks behind the big request.
        let big = cl.submit(VnpuRequest::mesh(3, 3));
        let small = cl.submit(VnpuRequest::mesh(1, 2));
        assert!(cl.process_admissions().is_empty());
        assert_eq!(cl.pending_count(), 2);
        // Once chip 0 frees up, both admit in arrival order in one tick.
        cl.destroy(resident).unwrap();
        let events = cl.process_admissions();
        let ids: Vec<RequestId> = events.iter().map(|e| e.id).collect();
        assert_eq!(ids, [big, small]);
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
        ));
    }

    #[test]
    fn temporal_sharing_requests_reach_full_chips() {
        // Regression: ChipSnapshot::fits used to require free cores even
        // for temporal-sharing requests, so a fully loaded fleet made
        // them unplaceable through the cluster path although the
        // single-chip hypervisor admits them by widening onto busy cores.
        let mut cl = Cluster::new(vec![sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap(); // full chip
        cl.submit(VnpuRequest::mesh(2, 2).temporal_sharing(true));
        let events = cl.process_admissions();
        assert_eq!(events.len(), 1);
        assert!(
            matches!(
                events[0].outcome,
                ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
            ),
            "temporal sharing must place on busy cores: {:?}",
            events[0].outcome
        );
        // A strict request on the same full chip still cannot place.
        cl.submit(VnpuRequest::mesh(2, 2));
        assert!(cl.process_admissions().is_empty());
    }

    #[test]
    fn cross_chip_migration_moves_tenant_and_costs_data_movement() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl
            .create_on(0, VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
            .unwrap();
        let (b, cost) = cl.migrate_to_chip(a, 1).unwrap();
        assert_eq!(b.chip, 1);
        assert!(cl.vnpu(a).is_err(), "the source copy is gone");
        assert_eq!(cl.vnpu(b).unwrap().core_count(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
        assert_eq!(cl.chip(0).free_core_count(), 36);
        assert_eq!(cl.chip(1).vnpu_count(), 1);
        // The data-movement term (guest HBM + scratchpad state) dwarfs
        // the meta-table cycles for a cross-chip move.
        assert!(cost.data_move_bytes >= 64 << 20);
        assert!(cost.paused_cycles > (cost.routing_cycles + cost.rtt_cycles) * 100);
        cl.destroy(b).unwrap();
        assert_eq!(cl.free_cores(), cl.total_cores(), "no cores leak");
    }

    #[test]
    fn cross_chip_migration_is_transactional_on_failure() {
        let mut cl = two_chip_cluster();
        let a = cl.create_on(0, VnpuRequest::mesh(5, 5)).unwrap(); // 25 > 16
        assert!(cl.migrate_to_chip(a, 1).is_err(), "target cannot host it");
        assert!(cl.vnpu(a).is_ok(), "failed migration leaves the tenant");
        assert_eq!(cl.chip(1).vnpu_count(), 0, "no half-landed copy");
        assert!(matches!(
            cl.migrate_to_chip(a, 9),
            Err(VnpuError::UnknownChip { chip: 9, .. })
        ));
    }

    #[test]
    fn defrag_pass_opens_a_larger_window() {
        use crate::plan::GreedyDefrag;
        // Fill a 6x6 with four 3x3 quadrant tenants, then free the two
        // diagonal ones: two 9-core islands remain. Moving one surviving
        // quadrant into a freed one merges the free region into an
        // 18-core window.
        let mut cl = Cluster::new(vec![sim_chip()]);
        let mut vms = Vec::new();
        for _ in 0..4 {
            vms.push(cl.create_on(0, VnpuRequest::mesh(3, 3)).unwrap());
        }
        cl.destroy(vms[0]).unwrap();
        cl.destroy(vms[3]).unwrap();
        let before = cl.snapshot_of(0).frag;
        assert_eq!(before.free_components, 2);
        assert_eq!(before.largest_free_component, 9);
        let defrag: Arc<dyn Defragmenter> = Arc::new(GreedyDefrag::default());
        let receipts = cl.defrag_pass(&defrag).unwrap();
        assert_eq!(receipts.len(), 1, "one receipt per schedulable chip");
        let (chip, receipt) = &receipts[0];
        assert_eq!(*chip, 0);
        assert!(!receipt.migrated.is_empty(), "a window-opening move runs");
        let (_, cost) = receipt.migrated[0];
        assert!(cost.routing_cycles > 0);
        assert!(cost.data_move_bytes > 0);
        let after = cl.snapshot_of(0);
        assert_eq!(
            after.frag.largest_free_component, 18,
            "the exact-match window re-opens"
        );
        // An exact 3x6 request now places where it previously could not.
        assert!(cl.create_on(0, VnpuRequest::mesh(3, 6)).is_ok());
    }

    #[test]
    fn cross_chip_migration_preserves_tenant_semantics() {
        // A migrated tenant keeps every policy its request carried. A §7
        // over-provisioned tenant lands on the full chip 1 only by
        // widening onto busy cores — the four least-loaded, a row, which
        // only a row-shaped exact-only tenant fits.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.create_on(1, VnpuRequest::mesh(6, 6)).unwrap(); // chip 1 full
        let req = VnpuRequest::mesh(4, 1)
            .temporal_sharing(true)
            .bandwidth_cap(1 << 16)
            .noc_isolation(true)
            .mem_mode(MemMode::Page { tlb_entries: 4 })
            .strategy(Strategy::exact_only().candidate_cap(64))
            .mem_bytes(100 << 20);
        let a = cl.create_on(0, req).unwrap();
        let source = cl.vnpu(a).unwrap();
        let expected = format!(
            "{:?}",
            source.request().clone().mem_bytes(source.mem_bytes())
        );
        let (b, _) = cl
            .migrate_to_chip(a, 1)
            .expect("temporal sharing must carry over and widen onto busy cores");
        let landed = cl.vnpu(b).unwrap();
        assert!(
            landed.request().wants_temporal_sharing(),
            "flag survives migration"
        );
        assert_eq!(format!("{:?}", landed.request()), expected);
        assert_eq!(landed.mapping().edit_distance(), 0, "exact-only kept");
        assert_eq!(landed.core_count(), 4);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
    }

    #[test]
    fn recover_in_place_without_a_healthy_window_rolls_back() {
        // A full 4x4 chip: the tenant's only way off a dead core is the
        // free region plus its own healthy cores, three of four needed.
        let mut cl = Cluster::new(vec![small_chip()]);
        let id = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.create_on(0, VnpuRequest::cores(12)).unwrap();
        assert_eq!(cl.chip(0).free_core_count(), 0);
        let dead = cl.vnpu(id).unwrap().mapping().phys_nodes()[0].0;
        assert_eq!(cl.fault_core(0, dead), Ok(true));
        let digest = cl.chip(0).state_digest();
        let pauses: Vec<_> = cl.machine(0).pending_migration_pauses().collect();
        let err = cl
            .recover_in_place(id, &Strategy::similar_topology())
            .unwrap_err();
        assert!(matches!(err, VnpuError::Mapping(_)), "{err:?}");
        assert_eq!(cl.chip(0).state_digest(), digest, "nothing moved");
        assert_eq!(
            cl.machine(0).pending_migration_pauses().collect::<Vec<_>>(),
            pauses,
            "no pause charged"
        );
    }

    #[test]
    fn defrag_pass_absorbs_unplannable_proposals() {
        // A policy that always proposes moving a tenant that does not
        // exist: advisory proposals must skip the pass, not error it.
        #[derive(Debug)]
        struct Bogus;
        impl Defragmenter for Bogus {
            fn plan(
                &self,
                _hv: &Hypervisor,
                _stats: &FragmentationStats,
                _budget: &ReconfigBudget,
                _cache: &mut MappingCache,
            ) -> Vec<PlanOp> {
                vec![PlanOp::Migrate {
                    vm: crate::ids::VmId(9_999),
                    to: MigrationTarget::Remap(Strategy::similar_topology()),
                }]
            }
        }
        let mut cl = Cluster::new(vec![sim_chip()]);
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let bogus: Arc<dyn Defragmenter> = Arc::new(Bogus);
        let receipts = cl
            .defrag_pass(&bogus)
            .expect("unplannable advisory proposals skip the pass");
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].1.migrated.len(), 0);
        assert_eq!(cl.chip(0).vnpu_count(), 1, "nothing was touched");
    }

    #[test]
    fn cross_chip_migration_rolls_back_on_destroy_failure() {
        // Regression: the destination create commits first
        // (create-before-destroy); if the source-chip destroy then fails,
        // the landed copy must be unwound — a tenant can never exist on
        // two chips. Inject the failure by administratively stripping one
        // of the tenant's cores, which makes destroy_vnpu refuse with
        // OverRelease.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let core = cl.vnpu(a).unwrap().mapping().phys_nodes()[0].0;
        cl.chip_mut(0).release_cores(&[core]).unwrap(); // misuse
        let err = cl.migrate_to_chip(a, 1);
        assert!(
            matches!(err, Err(VnpuError::OverRelease { .. })),
            "the failed source teardown surfaces: {err:?}"
        );
        assert!(cl.vnpu(a).is_ok(), "the tenant still lives on the source");
        assert_eq!(cl.chip(0).vnpu_count(), 1);
        assert_eq!(
            cl.chip(1).vnpu_count(),
            0,
            "the landed copy must be rolled back — never two live copies"
        );
        assert_eq!(
            cl.chip(1).free_core_count(),
            36,
            "the rollback releases every destination core"
        );
        assert_eq!(
            cl.chip(1).hbm_free_bytes(),
            cl.chip(1).hbm_total_bytes(),
            "the rollback releases the destination HBM"
        );
        // Restore the stolen reference; the migration then succeeds.
        cl.chip_mut(0).reserve_cores(&[core]).unwrap();
        let (b, _) = cl.migrate_to_chip(a, 1).unwrap();
        assert_eq!(b.chip, 1);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
    }

    #[test]
    fn drain_lifecycle_masks_and_restores_schedulability() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        assert!(
            cl.drain_tick(&ReconfigBudget::default()).is_empty(),
            "nothing draining, no step"
        );
        for _ in 0..3 {
            cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        }
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Schedulable));
        cl.begin_drain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Draining));
        assert!(
            matches!(cl.begin_drain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "double begin is a lifecycle error"
        );
        // The mask: snapshots say unschedulable, direct placement and
        // inbound migration refuse, admission lands elsewhere.
        assert!(!cl.snapshot_of(0).schedulable);
        assert!(!cl.snapshot_of(0).fits(&PendingView {
            id: RequestId(0),
            cores: 1,
            memory_bytes: 1,
            temporal_sharing: false,
        }));
        assert!(matches!(
            cl.create_on(0, VnpuRequest::mesh(1, 1)),
            Err(VnpuError::Drain { chip: 0, .. })
        ));
        let elsewhere = cl.create_on(1, VnpuRequest::mesh(1, 1)).unwrap();
        assert!(matches!(
            cl.migrate_to_chip(elsewhere, 0),
            Err(VnpuError::Drain { chip: 0, .. })
        ));
        cl.submit(VnpuRequest::mesh(2, 2));
        let events = cl.process_admissions();
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 1, .. })
        ));
        // Budgeted evacuation: two moves per step empties three tenants
        // in two steps.
        let budget = ReconfigBudget {
            max_migrations: 2,
            ..ReconfigBudget::default()
        };
        let steps = cl.drain_tick(&budget);
        assert_eq!(steps.len(), 1, "one step per draining chip");
        let (chip, step1) = &steps[0];
        assert_eq!(*chip, 0);
        assert_eq!(step1.moved.len(), 2, "budget caps the per-epoch moves");
        assert_eq!(step1.remaining, 1);
        assert!(
            step1.total.data_move_bytes > 0,
            "evacuations pay data movement"
        );
        assert!(
            matches!(cl.complete_drain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "complete_drain refuses while residents remain"
        );
        let step2 = &cl.drain_tick(&budget)[0].1;
        assert_eq!(step2.remaining, 0);
        assert_eq!(cl.chip(0).vnpu_count(), 0);
        assert_eq!(cl.chip(1).vnpu_count(), 5, "every tenant landed on chip 1");
        cl.complete_drain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Drained));
        assert!(
            cl.drain_tick(&budget).is_empty(),
            "drained chips no longer step"
        );
        // Hand-back restores schedulability byte-for-byte: the chip is
        // empty and nominated again.
        cl.undrain(0).unwrap();
        assert_eq!(cl.drain_state(0), Ok(ChipSchedState::Schedulable));
        let fresh = Cluster::new(vec![sim_chip(), sim_chip()]);
        assert_eq!(
            cl.snapshot_of(0),
            fresh.snapshot_of(0),
            "an evacuated, undrained chip looks exactly like a fresh one"
        );
        cl.submit(VnpuRequest::mesh(6, 6));
        let events = cl.process_admissions();
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 0, .. })
        ));
        assert!(
            matches!(cl.undrain(0), Err(VnpuError::Drain { chip: 0, .. })),
            "undraining a schedulable chip is a lifecycle error"
        );
    }

    #[test]
    fn a_plan_from_before_begin_drain_is_stale() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let id = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let txn = cl
            .chip_mut(0)
            .plan(&[
                PlanOp::Migrate {
                    vm: id.vm,
                    to: MigrationTarget::CompactMemory,
                },
                PlanOp::Migrate {
                    vm: id.vm,
                    to: MigrationTarget::Remap(Strategy::similar_topology()),
                },
            ])
            .unwrap();
        cl.begin_drain(0).unwrap();
        let digest = cl.chip(0).state_digest();
        let r = cl.chip_mut(0).commit(&txn);
        assert!(matches!(r, Err(VnpuError::StalePlan { .. })), "{r:?}");
        assert_eq!(cl.chip(0).state_digest(), digest, "nothing lands");
    }

    #[test]
    fn drain_step_skips_unplaceable_tenants() {
        // Chip 0 hosts a 5x5 tenant no other chip can take (chip 1 is
        // 4x4): the step moves what it can and reports the residual.
        let mut cl = two_chip_cluster();
        cl.create_on(0, VnpuRequest::mesh(5, 5)).unwrap();
        cl.create_on(0, VnpuRequest::mesh(1, 2)).unwrap();
        cl.begin_drain(0).unwrap();
        let step = &cl.drain_tick(&ReconfigBudget::default())[0].1;
        assert_eq!(step.moved.len(), 1, "only the small tenant fits chip 1");
        assert_eq!(step.remaining, 1, "the 5x5 tenant stays resident");
        assert_eq!(cl.chip(1).vnpu_count(), 1);
    }

    #[test]
    fn advisory_probes_leave_the_placement_cache_alone_and_twin_chips_share_it() {
        use crate::plan::GreedyDefrag;
        // One cache for the fleet: a direct create on chip 0 and a queued
        // admission on its twin share an entry.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        cl.set_placement(Arc::new(LeastLoaded));
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.submit(VnpuRequest::mesh(2, 2));
        let events = cl.process_admissions();
        assert!(matches!(
            events[0].outcome,
            ClusterAdmissionOutcome::Admitted(ClusterVmId { chip: 1, .. })
        ));
        let placed = cl.cache_stats();
        assert_eq!((placed.misses, placed.hits), (1, 1));
        // Advisory probing — a fleet fit hint, and a defrag pass over a
        // chip whose free region is split (row 3 reserved) but cannot be
        // improved — searches through the same cache's score memo and
        // leaves its entries and statistics alone.
        cl.chip_mut(0)
            .reserve_cores(&[18, 19, 20, 21, 22, 23])
            .unwrap();
        assert!(cl.fit_hint().is_some());
        assert_eq!(cl.cache_stats(), placed, "the fit hint counted nothing");
        let defrag: Arc<dyn Defragmenter> = Arc::new(GreedyDefrag::default());
        assert_eq!(cl.snapshot_cached(0).frag.free_components, 2);
        let receipts = cl.defrag_pass(&defrag).unwrap();
        assert!(receipts.iter().all(|(_, r)| r.migrated.is_empty()));
        assert_eq!(cl.cache_stats(), placed, "nor did the defrag probes");
    }

    #[test]
    fn per_chip_generation_bump_only_invalidates_that_chip() {
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(a).unwrap();
        let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        cl.destroy(b).unwrap();
        assert_eq!(cl.cache_stats().hits, 1);
        // Reconfig chip 0: its next identical request misses; chip 1's
        // still hits.
        cl.set_core_scales(0, 3, 50, 200).unwrap();
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().misses, 2, "chip 0 re-maps after reconfig");
        cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().hits, 2, "chip 1's entry survives");
    }

    #[test]
    fn fault_transitions_expire_cached_placements() {
        // Two twin chips share one entry. A link fault and its repair on
        // chip 0 move its generation along the machine's hash chain, so
        // chip 0 re-maps while chip 1 still hits.
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip()]);
        for chip in 0..2 {
            let id = cl.create_on(chip, VnpuRequest::mesh(2, 2)).unwrap();
            cl.destroy(id).unwrap();
        }
        assert_eq!((cl.cache_stats().misses, cl.cache_stats().hits), (1, 1));
        assert_eq!(cl.fault_link(0, 0, 1), Ok(true));
        assert_eq!(cl.repair_link(0, 0, 1), Ok(true));
        assert_ne!(cl.chip(0).topology_generation(), 0);
        assert_eq!(cl.chip(1).topology_generation(), 0);
        cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(
            cl.cache_stats().misses,
            2,
            "chip 0 re-maps after its faults"
        );
        cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        assert_eq!(cl.cache_stats().hits, 2, "chip 1's entry survives");
    }

    #[test]
    fn link_faults_off_the_mesh_are_an_error_not_a_mask() {
        use vnpu_sim::SimError;
        let mut cl = Cluster::new(vec![sim_chip()]);
        let digest = cl.chip(0).state_digest();
        for (a, b) in [(0, 35), (999, 1000), (0, 0)] {
            for r in [cl.fault_link(0, a, b), cl.repair_link(0, a, b)] {
                assert!(
                    matches!(r, Err(VnpuError::Sim(SimError::RouteFault { .. }))),
                    "{a}-{b}: {r:?}"
                );
            }
        }
        assert!(matches!(
            cl.fault_core(0, 36),
            Err(VnpuError::Sim(SimError::CoreOutOfRange { core: 36, .. }))
        ));
        assert_eq!(cl.machine(0).faulted_links().count(), 0, "nothing masked");
        assert!(!cl.machine(0).has_active_faults());
        assert_eq!(cl.chip(0).state_digest(), digest);
        assert_eq!(cl.chip(0).topology_generation(), 0);
        assert_eq!(
            cl.snapshot_of(0),
            Cluster::new(vec![sim_chip()]).snapshot_of(0)
        );
    }

    #[test]
    fn link_fault_transitions_invalidate_outstanding_plans() {
        let mut cl = Cluster::new(vec![sim_chip()]);
        let id = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let compact = [PlanOp::Migrate {
            vm: id.vm,
            to: MigrationTarget::CompactMemory,
        }];
        let txn = cl.chip_mut(0).plan(&compact).unwrap();
        assert_eq!(cl.fault_link(0, 0, 1), Ok(true));
        assert!(matches!(
            cl.chip_mut(0).commit(&txn),
            Err(VnpuError::StalePlan { .. })
        ));
        // A repeat, in either direction, changes nothing.
        let digest = cl.chip(0).state_digest();
        assert_eq!(cl.fault_link(0, 1, 0), Ok(false), "undirected, idempotent");
        assert_eq!(cl.chip(0).state_digest(), digest);
        assert!(cl.machine(0).link_faulted(1, 0));
        assert_eq!(cl.machine(0).faulted_links().collect::<Vec<_>>(), [(0, 1)]);
        let txn = cl.chip_mut(0).plan(&compact).unwrap();
        assert_eq!(cl.repair_link(0, 1, 0), Ok(true));
        assert!(matches!(
            cl.chip_mut(0).commit(&txn),
            Err(VnpuError::StalePlan { .. })
        ));
        let digest = cl.chip(0).state_digest();
        assert_eq!(cl.repair_link(0, 0, 1), Ok(false));
        assert_eq!(cl.chip(0).state_digest(), digest);
        assert_eq!(cl.machine(0).faulted_links().count(), 0);
    }

    /// A migration pause a step paid: the tenant's landed identity and
    /// the cycles.
    type Paid = (ClusterVmId, u64);

    /// Drives every mutating path of a three-chip cluster — admissions,
    /// teardowns, a defrag pass, faults and repairs, a core rescale, a
    /// recovery, same- and cross-chip migrations, a reservation and the
    /// drain lifecycle — and calls `check` after each step with the
    /// step's name and the migration pauses it paid, by landed identity.
    fn drive_mutations(check: &mut dyn FnMut(&mut Cluster, &str, &[Paid])) {
        use crate::plan::GreedyDefrag;
        let mut cl = Cluster::new(vec![sim_chip(), sim_chip(), small_chip()]);
        check(&mut cl, "construction", &[]);
        for _ in 0..4 {
            cl.submit(VnpuRequest::mesh(3, 3));
        }
        let quadrants: Vec<ClusterVmId> = cl
            .process_admissions()
            .into_iter()
            .filter_map(|e| match e.outcome {
                ClusterAdmissionOutcome::Admitted(id) => Some(id),
                ClusterAdmissionOutcome::Rejected(_) => None,
            })
            .collect();
        assert_eq!(quadrants.len(), 4, "first fit fills chip 0's quadrants");
        check(&mut cl, "admissions", &[]);
        cl.destroy(quadrants[0]).unwrap();
        check(&mut cl, "destroy", &[]);
        cl.destroy(quadrants[3]).unwrap();
        check(&mut cl, "destroy", &[]);
        let defrag: Arc<dyn Defragmenter> = Arc::new(GreedyDefrag::default());
        let receipts = cl.defrag_pass(&defrag).unwrap();
        assert!(receipts.iter().any(|(_, r)| !r.migrated.is_empty()));
        let paid: Vec<Paid> = receipts
            .iter()
            .flat_map(|(chip, r)| {
                let chip = *chip;
                r.migrated
                    .iter()
                    .map(move |&(vm, c)| (ClusterVmId { chip, vm }, c.paused_cycles))
            })
            .collect();
        check(&mut cl, "defrag_pass", &paid);
        assert_eq!(cl.fault_core(1, 5), Ok(true));
        check(&mut cl, "fault_core", &[]);
        assert_eq!(cl.fault_link(1, 0, 1), Ok(true));
        check(&mut cl, "fault_link", &[]);
        assert_eq!(cl.repair_core(1, 5), Ok(true));
        check(&mut cl, "repair_core", &[]);
        assert_eq!(cl.repair_link(1, 0, 1), Ok(true));
        check(&mut cl, "repair_link", &[]);
        cl.set_core_scales(1, 7, 50, 200).unwrap();
        check(&mut cl, "set_core_scales", &[]);
        let cost = cl
            .recover_in_place(quadrants[1], &Strategy::similar_topology())
            .unwrap();
        check(
            &mut cl,
            "recover_in_place",
            &[(quadrants[1], cost.paused_cycles)],
        );
        let (id, cost) = cl.migrate_to_chip(quadrants[2], 0).unwrap();
        check(&mut cl, "same-chip migrate", &[(id, cost.paused_cycles)]);
        let visitor = cl.create_on(2, VnpuRequest::mesh(1, 2)).unwrap();
        check(&mut cl, "create_on", &[]);
        let (landed, cost) = cl.migrate_to_chip(visitor, 1).unwrap();
        assert_eq!(landed.chip, 1);
        check(
            &mut cl,
            "cross-chip migrate",
            &[(landed, cost.paused_cycles)],
        );
        cl.chip_mut(2).reserve_cores(&[0, 1]).unwrap();
        check(&mut cl, "reserve_cores", &[]);
        cl.begin_drain(0).unwrap();
        check(&mut cl, "begin_drain", &[]);
        for _ in 0..2 {
            let steps = cl.drain_tick(&ReconfigBudget::default());
            assert_eq!(steps[0].1.moved.len(), 1, "{steps:?}");
            let paid: Vec<Paid> = (steps[0].1.moved.iter())
                .map(|m| (m.to, m.cost.paused_cycles))
                .collect();
            check(&mut cl, "drain_tick", &paid);
        }
        cl.complete_drain(0).unwrap();
        check(&mut cl, "complete_drain", &[]);
        cl.undrain(0).unwrap();
        check(&mut cl, "undrain", &[]);
    }

    #[test]
    fn snapshot_memo_matches_fresh_scans() {
        // After every mutating step each chip's memoized snapshot equals
        // a fresh scan. The check first fills every memo, so the next
        // step is checked on memo hits: a path that forgets to clear the
        // memo of a chip it touched fails here.
        drive_mutations(&mut |cl, step, _| {
            for i in 0..cl.chip_count() {
                assert_eq!(
                    cl.snapshot_cached(i),
                    cl.snapshot_of(i),
                    "chip {i} after {step}"
                );
            }
        });
    }

    #[test]
    fn each_machine_matches_its_hypervisor() {
        // After every mutating step each chip's machine agrees with its
        // hypervisor: the same tenants, generation and core fault mask, and
        // exactly the pauses the step paid. The check then ends the
        // machines' epochs, so each step's pauses are its own.
        drive_mutations(&mut |cl, step, paid| {
            for i in 0..cl.chip_count() {
                let (m, hv) = (cl.machine(i), cl.chip(i));
                let at = format!("chip {i} after {step}");
                let vms: Vec<VmId> = hv.vnpus().map(|(&vm, _)| vm).collect();
                let tenants = cl.tenants(i);
                assert_eq!(tenants.keys().copied().collect::<Vec<_>>(), vms, "{at}");
                assert_eq!(m.tenant_count(), hv.vnpu_count(), "{at}");
                assert_eq!(m.topology_generation(), hv.topology_generation(), "{at}");
                let cores = hv.config().core_count();
                assert!(
                    (0..cores).all(|c| m.core_faulted(c) == hv.core_faulted(c)),
                    "{at}"
                );
                let mut owed = BTreeMap::new();
                for &(id, cycles) in paid.iter().filter(|(id, _)| id.chip == i) {
                    *owed.entry(tenants[&id.vm]).or_insert(0) += cycles;
                }
                let pending: BTreeMap<TenantId, u64> = m.pending_migration_pauses().collect();
                assert_eq!(pending, owed, "{at}");
            }
            for i in 0..cl.chip_count() {
                cl.epoch_parts(i).0.finish_epoch();
            }
        });
    }
}
