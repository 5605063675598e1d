//! The plan linter: static analysis over a [`PlacementTxn`] *before*
//! commit.
//!
//! [`Hypervisor::commit`] validates a transaction only against the
//! staleness snapshot and then trusts the plan's internal structure — a
//! hand-assembled or corrupted plan can still encode hazards the
//! transaction engine only discovers mid-apply (forcing a rollback) or,
//! worse, applies silently. The linter proves the plan's structure sound
//! up front:
//!
//! 1. The txn is resolved into a [`PlanView`] — an explicit intermediate
//!    representation where every op carries the physical cores it
//!    acquires and releases, re-derived from the live chip through the
//!    same deterministic mapper the planner used.
//! 2. [`lint_view`] replays the view against the chip's per-core user
//!    counts and checks every plan-layer rule (see the crate-level
//!    catalogue).
//!
//! The split matters for testing: mutation suites corrupt a *view* of a
//! valid plan (duplicate a core, inflate a cost, stale the generation)
//! and assert the linter flags every mutant — without needing write
//! access to [`PlacementTxn`] internals.

use crate::{AuditFinding, Rule};
use std::collections::BTreeSet;
use vnpu::drain::ChipSchedState;
use vnpu::plan::{MigrationTarget, PlacementTxn, PlanOp, ReconfigBudget, ReconfigCost};
use vnpu::{Hypervisor, VmId};
use vnpu_topo::mapping::Mapper;
use vnpu_topo::NodeId;

/// What kind of op a [`OpView`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKindView {
    /// Provision a new tenant.
    Create,
    /// Re-map a live tenant's cores.
    Remap,
    /// Compact a live tenant's HBM blocks (cores untouched).
    CompactMemory,
    /// Tear a tenant down.
    Destroy,
}

/// One resolved op of a [`PlanView`]: the kind, the tenant it names, the
/// physical cores it acquires and releases, guest bytes it allocates,
/// and its declared cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpView {
    /// Op kind.
    pub kind: OpKindView,
    /// Named tenant (`None` for creates, which mint a fresh VM).
    pub vm: Option<VmId>,
    /// Physical cores the op occupies, in mapping order.
    pub acquires: Vec<u32>,
    /// Physical cores the op frees, in mapping order.
    pub releases: Vec<u32>,
    /// Guest HBM bytes the op allocates (creates only; compaction is
    /// modeled as net-zero).
    pub alloc_bytes: u64,
    /// The op's declared [`ReconfigCost`].
    pub cost: ReconfigCost,
}

/// The staleness snapshot a plan was built against, as carried by the
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSnapshotView {
    /// Free-region fingerprint at plan time.
    pub free_fingerprint: u64,
    /// Free-core count at plan time.
    pub free_count: usize,
    /// Free HBM bytes at plan time.
    pub hbm_free_bytes: u64,
}

/// An explicit, fully-resolved view of a [`PlacementTxn`]: every op with
/// the physical cores it touches, plus the declared totals and the
/// staleness snapshot. Built by [`PlanView::resolve`]; linted by
/// [`lint_view`]. All fields are public so property/mutation tests can
/// corrupt a valid view and assert the linter notices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanView {
    /// The plan generation the txn was planned at.
    pub generation: u64,
    /// The staleness snapshot the txn carries.
    pub snapshot: PlanSnapshotView,
    /// The txn's declared total cost.
    pub declared_total: ReconfigCost,
    /// The resolved ops, in application order.
    pub ops: Vec<OpView>,
}

impl PlanView {
    /// Resolves a transaction against the live chip: create and remap
    /// ops are re-mapped through the same deterministic mapper the
    /// planner used (against a simulated free region that evolves op by
    /// op), destroys and migrations pick up the cores the tenant holds
    /// at that point of the plan. Resolution is read-only and uses no
    /// shared mapping cache, so placement-cache statistics are never
    /// distorted.
    ///
    /// Ops that cannot be resolved (unknown VM, unplaceable create)
    /// appear with empty core lists — [`lint_view`] flags them from the
    /// op structure itself, and the linter's replay rules still cover
    /// the rest of the plan.
    pub fn resolve(hv: &Hypervisor, txn: &PlacementTxn) -> PlanView {
        let mapper = Mapper::new(hv.topology());
        let mut sim_free = hv.free_set().clone();
        // Tenant positions as evolved by earlier ops of this plan.
        let mut positions: std::collections::BTreeMap<VmId, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        let mut destroyed: BTreeSet<VmId> = BTreeSet::new();
        let current_cores = |hv: &Hypervisor,
                             positions: &std::collections::BTreeMap<VmId, Vec<NodeId>>,
                             vm: VmId|
         -> Option<Vec<NodeId>> {
            positions
                .get(&vm)
                .cloned()
                .or_else(|| hv.vnpu(vm).ok().map(|v| v.mapping().phys_nodes().to_vec()))
        };
        let mut ops = Vec::with_capacity(txn.ops().len());
        for p in txn.ops() {
            let view = match &p.op {
                PlanOp::Create(req) => {
                    let acquires = mapper
                        .map_in(&sim_free, req.topology(), req.strategy_ref())
                        .map(|m| m.phys_nodes().to_vec())
                        .unwrap_or_default();
                    sim_free.occupy_all(&acquires);
                    OpView {
                        kind: OpKindView::Create,
                        vm: None,
                        acquires: acquires.iter().map(|n| n.0).collect(),
                        releases: Vec::new(),
                        alloc_bytes: req.memory_bytes(),
                        cost: p.cost,
                    }
                }
                PlanOp::Migrate {
                    vm,
                    to: MigrationTarget::Remap(strategy),
                } => {
                    let live = !destroyed.contains(vm);
                    let own = if live {
                        current_cores(hv, &positions, *vm).unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    let widened = sim_free.with_released(&own);
                    let next = if own.is_empty() {
                        Vec::new()
                    } else {
                        hv.vnpu(*vm)
                            .ok()
                            .and_then(|v| mapper.map_in(&widened, v.virt_topology(), strategy).ok())
                            .map(|m| m.phys_nodes().to_vec())
                            .unwrap_or_default()
                    };
                    // A remap resolving to the current cores is a
                    // planned no-op: it touches nothing.
                    let (acquires, releases) = if next.is_empty() || next == own {
                        (Vec::new(), Vec::new())
                    } else {
                        sim_free.release_all(&own);
                        sim_free.occupy_all(&next);
                        positions.insert(*vm, next.clone());
                        (next, own)
                    };
                    OpView {
                        kind: OpKindView::Remap,
                        vm: Some(*vm),
                        acquires: acquires.iter().map(|n| n.0).collect(),
                        releases: releases.iter().map(|n| n.0).collect(),
                        alloc_bytes: 0,
                        cost: p.cost,
                    }
                }
                PlanOp::Migrate {
                    vm,
                    to: MigrationTarget::CompactMemory,
                } => OpView {
                    kind: OpKindView::CompactMemory,
                    vm: Some(*vm),
                    acquires: Vec::new(),
                    releases: Vec::new(),
                    alloc_bytes: 0,
                    cost: p.cost,
                },
                PlanOp::Destroy(vm) => {
                    let releases = if destroyed.contains(vm) {
                        Vec::new()
                    } else {
                        current_cores(hv, &positions, *vm).unwrap_or_default()
                    };
                    sim_free.release_all(&releases);
                    destroyed.insert(*vm);
                    OpView {
                        kind: OpKindView::Destroy,
                        vm: Some(*vm),
                        acquires: Vec::new(),
                        releases: releases.iter().map(|n| n.0).collect(),
                        alloc_bytes: 0,
                        cost: p.cost,
                    }
                }
            };
            ops.push(view);
        }
        PlanView {
            generation: txn.planned_at_generation(),
            snapshot: PlanSnapshotView {
                free_fingerprint: txn.snapshot_free_fingerprint(),
                free_count: txn.snapshot_free_count(),
                hbm_free_bytes: txn.snapshot_hbm_free_bytes(),
            },
            declared_total: txn.total(),
            ops,
        }
    }
}

/// Lints a resolved [`PlanView`] against the live chip. `sched` is the
/// chip's drain-lifecycle state (pass
/// [`ChipSchedState::Schedulable`] for a standalone hypervisor);
/// `budget` enables the budget-conformance rule.
///
/// Returns every finding, deterministic in order; an empty vector means
/// the plan is structurally safe to commit.
pub fn lint_view(
    hv: &Hypervisor,
    view: &PlanView,
    sched: ChipSchedState,
    budget: Option<&ReconfigBudget>,
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();

    // PLAN-GEN: the generation chain moved on.
    if view.generation != hv.plan_generation() {
        findings.push(AuditFinding::error(
            Rule::PlanStaleGeneration,
            format!(
                "planned at generation {:#x}, chip is at {:#x}",
                view.generation,
                hv.plan_generation()
            ),
        ));
    }

    // PLAN-SNAP: the free region / HBM snapshot drifted.
    if view.snapshot.free_fingerprint != hv.free_set().fingerprint()
        || view.snapshot.free_count != hv.free_set().free_count()
    {
        findings.push(AuditFinding::error(
            Rule::PlanSnapshotDrift,
            format!(
                "free-region snapshot (fingerprint {:#x}, {} cores) does not match the live \
                 chip (fingerprint {:#x}, {} cores)",
                view.snapshot.free_fingerprint,
                view.snapshot.free_count,
                hv.free_set().fingerprint(),
                hv.free_set().free_count()
            ),
        ));
    }
    if view.snapshot.hbm_free_bytes != hv.hbm_free_bytes() {
        findings.push(AuditFinding::error(
            Rule::PlanSnapshotDrift,
            format!(
                "HBM snapshot ({} free bytes) does not match the live chip ({} free bytes)",
                view.snapshot.hbm_free_bytes,
                hv.hbm_free_bytes()
            ),
        ));
    }

    // PLAN-COST: the declared total must be the sum of per-op costs.
    let summed = view
        .ops
        .iter()
        .fold(ReconfigCost::default(), |acc, op| acc.plus(op.cost));
    if summed != view.declared_total {
        findings.push(AuditFinding::error(
            Rule::PlanCostMismatch,
            format!(
                "declared total {:?} != sum of per-op costs {:?}",
                view.declared_total, summed
            ),
        ));
    }

    // PLAN-DRAIN: only teardown belongs on an unschedulable chip.
    if sched != ChipSchedState::Schedulable {
        for op in &view.ops {
            if matches!(op.kind, OpKindView::Create | OpKindView::Remap) {
                let mut f = AuditFinding::error(
                    Rule::PlanUnschedulableChip,
                    format!("{:?} op targets a chip in state {sched}", op.kind),
                );
                if let Some(vm) = op.vm {
                    f = f.vm(vm);
                }
                findings.push(f);
            }
        }
    }

    // Replay the ops against the chip's per-core user counts:
    // PLAN-ORDER / PLAN-VM / PLAN-CORE / PLAN-FREE / PLAN-HBM.
    let mut users: Vec<u32> = hv.core_users().to_vec();
    let mut destroyed: BTreeSet<VmId> = BTreeSet::new();
    let mut hbm_free = view.snapshot.hbm_free_bytes;
    for (i, op) in view.ops.iter().enumerate() {
        if let Some(vm) = op.vm {
            if destroyed.contains(&vm) {
                findings.push(
                    AuditFinding::error(
                        Rule::PlanUseAfterDestroy,
                        format!(
                            "op #{i} ({:?}) uses a VM destroyed earlier in the plan",
                            op.kind
                        ),
                    )
                    .vm(vm),
                );
                continue;
            }
            if hv.vnpu(vm).is_err() {
                findings.push(
                    AuditFinding::error(
                        Rule::PlanUnknownVm,
                        format!("op #{i} ({:?}) names a VM not live on this chip", op.kind),
                    )
                    .vm(vm),
                );
                continue;
            }
            if op.kind == OpKindView::Destroy {
                destroyed.insert(vm);
            }
        }
        // Releases first: a remap vacates before (conceptually) landing,
        // but an op acquiring a core it also releases is still caught —
        // the planner never emits self-overlapping moves, and the
        // double-book rule below sees the post-release counts.
        for &core in &op.releases {
            match users.get_mut(core as usize) {
                Some(u) if *u > 0 => *u -= 1,
                _ => findings.push(
                    AuditFinding::error(
                        Rule::PlanOverRelease,
                        format!("op #{i} ({:?}) frees an already-free core", op.kind),
                    )
                    .core(core),
                ),
            }
        }
        for &core in &op.acquires {
            match users.get_mut(core as usize) {
                Some(u) if *u == 0 => *u += 1,
                Some(_) => findings.push(
                    AuditFinding::error(
                        Rule::PlanDoubleBooked,
                        format!("op #{i} ({:?}) acquires an occupied core", op.kind),
                    )
                    .core(core),
                ),
                None => findings.push(
                    AuditFinding::error(
                        Rule::PlanDoubleBooked,
                        format!("op #{i} ({:?}) acquires a core outside the mesh", op.kind),
                    )
                    .core(core),
                ),
            }
        }
        if op.alloc_bytes > 0 {
            if op.alloc_bytes > hbm_free {
                findings.push(AuditFinding::error(
                    Rule::PlanHbmOvercommit,
                    format!(
                        "op #{i} allocates {} guest bytes with only {} free at this point \
                         of the plan",
                        op.alloc_bytes, hbm_free
                    ),
                ));
                hbm_free = 0;
            } else {
                hbm_free -= op.alloc_bytes;
            }
        }
        if op.kind == OpKindView::Destroy {
            if let Some(vm) = op.vm {
                if let Ok(v) = hv.vnpu(vm) {
                    hbm_free += v.memory_blocks().iter().map(|b| b.size).sum::<u64>();
                }
            }
        }
    }

    // PLAN-BUDGET: replay the budget admission walk the planner uses.
    if let Some(b) = budget {
        let mut total = ReconfigCost::default();
        let mut migrations = 0usize;
        for (i, op) in view.ops.iter().enumerate() {
            if matches!(op.kind, OpKindView::Remap | OpKindView::CompactMemory)
                && !op.cost.is_zero()
            {
                if !b.admits(&total, migrations, &op.cost) {
                    let mut f = AuditFinding::error(
                        Rule::PlanBudgetExceeded,
                        format!(
                            "op #{i} ({:?}, cost {:?}) exceeds the reconfiguration budget \
                             after {migrations} migrations",
                            op.kind, op.cost
                        ),
                    );
                    if let Some(vm) = op.vm {
                        f = f.vm(vm);
                    }
                    findings.push(f);
                }
                migrations += 1;
            }
            total = total.plus(op.cost);
        }
    }

    findings
}

/// Lints a [`PlacementTxn`] against the live chip: resolves the plan
/// into a [`PlanView`] and runs every plan-layer rule. See [`lint_view`]
/// for the parameters.
pub fn lint_plan(
    hv: &Hypervisor,
    txn: &PlacementTxn,
    sched: ChipSchedState,
    budget: Option<&ReconfigBudget>,
) -> Vec<AuditFinding> {
    lint_view(hv, &PlanView::resolve(hv, txn), sched, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::plan::MigrationTarget;
    use vnpu::VnpuRequest;
    use vnpu_sim::SocConfig;
    use vnpu_topo::mapping::Strategy;

    fn chip() -> Hypervisor {
        Hypervisor::new(SocConfig::sim())
    }

    fn rules(findings: &[AuditFinding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn valid_plan_lints_clean() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = hv
            .plan(&[
                PlanOp::Create(VnpuRequest::mesh(3, 2)),
                PlanOp::Destroy(vm),
                PlanOp::Create(VnpuRequest::cores(3)),
            ])
            .unwrap();
        let findings = lint_plan(&hv, &txn, ChipSchedState::Schedulable, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn resolve_tracks_destroy_then_create_reuse() {
        // A plan destroying a tenant and creating into the freed region
        // must resolve without double-booking: the create may legally
        // land on the destroyed tenant's cores.
        let mut hv = chip();
        let victims: Vec<VmId> = (0..8)
            .map(|_| hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap())
            .collect();
        let txn = hv
            .plan(&[
                PlanOp::Destroy(victims[0]),
                PlanOp::Create(VnpuRequest::mesh(2, 2)),
            ])
            .unwrap();
        let findings = lint_plan(&hv, &txn, ChipSchedState::Schedulable, None);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_generation_is_flagged() {
        let mut hv = chip();
        let txn = hv.plan(&[PlanOp::Create(VnpuRequest::mesh(2, 2))]).unwrap();
        hv.invalidate_plans();
        let findings = lint_plan(&hv, &txn, ChipSchedState::Schedulable, None);
        assert!(
            rules(&findings).contains(&Rule::PlanStaleGeneration),
            "{findings:?}"
        );
    }

    #[test]
    fn snapshot_drift_is_flagged() {
        let mut hv = chip();
        let txn = hv.plan(&[PlanOp::Create(VnpuRequest::mesh(2, 2))]).unwrap();
        // Mutate the chip after planning: the snapshot no longer holds.
        hv.create_vnpu(VnpuRequest::cores(2)).unwrap();
        let findings = lint_plan(&hv, &txn, ChipSchedState::Schedulable, None);
        // A direct create does not advance the plan-generation chain, so
        // the drift is caught by the snapshot rule alone — both the core
        // region and the HBM snapshot diverged.
        let drifts = rules(&findings)
            .iter()
            .filter(|&&r| r == Rule::PlanSnapshotDrift)
            .count();
        assert_eq!(drifts, 2, "{findings:?}");
    }

    #[test]
    fn destroy_then_migrate_ordering_hazard() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = hv.plan(&[PlanOp::Destroy(vm)]).unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        // Append a migrate of the tenant the plan just destroyed.
        view.ops.push(OpView {
            kind: OpKindView::Remap,
            vm: Some(vm),
            acquires: Vec::new(),
            releases: Vec::new(),
            alloc_bytes: 0,
            cost: ReconfigCost::default(),
        });
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        assert!(
            rules(&findings).contains(&Rule::PlanUseAfterDestroy),
            "{findings:?}"
        );
    }

    #[test]
    fn unknown_vm_is_flagged() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = hv.plan(&[PlanOp::Destroy(vm)]).unwrap();
        // The tenant departs between plan and lint.
        hv.destroy_vnpu(vm).unwrap();
        let findings = lint_plan(&hv, &txn, ChipSchedState::Schedulable, None);
        let rs = rules(&findings);
        assert!(rs.contains(&Rule::PlanUnknownVm), "{findings:?}");
        // And the departure also staled the snapshot.
        assert!(rs.contains(&Rule::PlanSnapshotDrift), "{findings:?}");
    }

    #[test]
    fn duplicated_core_is_double_booked() {
        let mut hv = chip();
        let txn = hv.plan(&[PlanOp::Create(VnpuRequest::mesh(2, 2))]).unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        let first = view.ops[0].acquires[0];
        view.ops[0].acquires.push(first);
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        let hit = findings
            .iter()
            .find(|f| f.rule == Rule::PlanDoubleBooked)
            .expect("duplicate core must be flagged");
        assert_eq!(hit.core, Some(first));
    }

    #[test]
    fn occupied_core_is_double_booked() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let held = hv.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        let txn = hv.plan(&[PlanOp::Create(VnpuRequest::cores(2))]).unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        view.ops[0].acquires[0] = held;
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::PlanDoubleBooked && f.core == Some(held)),
            "{findings:?}"
        );
    }

    #[test]
    fn over_release_is_flagged() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = hv.plan(&[PlanOp::Destroy(vm)]).unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        // Release a core nobody holds.
        let free = hv.free_cores()[0];
        view.ops[0].releases.push(free);
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::PlanOverRelease && f.core == Some(free)),
            "{findings:?}"
        );
    }

    #[test]
    fn inflated_cost_breaks_the_sum() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let txn = hv
            .plan(&[PlanOp::Migrate {
                vm,
                to: MigrationTarget::CompactMemory,
            }])
            .unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        view.ops[0].cost.paused_cycles += 1_000;
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        assert!(
            rules(&findings).contains(&Rule::PlanCostMismatch),
            "{findings:?}"
        );
    }

    #[test]
    fn hbm_overcommit_is_flagged() {
        let hv = Hypervisor::with_hbm_bytes(SocConfig::sim(), 64 << 20);
        let txn = hv
            .plan_in(
                &[PlanOp::Create(VnpuRequest::mesh(2, 2).mem_bytes(16 << 20))],
                &mut vnpu_topo::cache::MappingCache::with_capacity(16),
            )
            .unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        view.ops[0].alloc_bytes = 128 << 20; // more than the chip has
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, None);
        assert!(
            rules(&findings).contains(&Rule::PlanHbmOvercommit),
            "{findings:?}"
        );
    }

    #[test]
    fn budget_violation_is_flagged() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        // Fragment the free region so a remap actually moves.
        let blocker = hv.create_vnpu(VnpuRequest::cores(3)).unwrap();
        hv.destroy_vnpu(blocker).unwrap();
        let txn = hv
            .plan(&[PlanOp::Migrate {
                vm,
                to: MigrationTarget::Remap(Strategy::similar_topology()),
            }])
            .unwrap();
        let mut view = PlanView::resolve(&hv, &txn);
        // Any nonzero migration cost blows a zero budget.
        view.ops[0].cost.paused_cycles = view.ops[0].cost.paused_cycles.max(1);
        view.declared_total = view
            .ops
            .iter()
            .fold(ReconfigCost::default(), |a, o| a.plus(o.cost));
        let zero = ReconfigBudget {
            max_migrations: 0,
            max_paused_cycles: 0,
            max_data_move_bytes: 0,
        };
        let findings = lint_view(&hv, &view, ChipSchedState::Schedulable, Some(&zero));
        assert!(
            rules(&findings).contains(&Rule::PlanBudgetExceeded),
            "{findings:?}"
        );
    }

    #[test]
    fn draining_chip_rejects_creates_but_not_destroys() {
        let mut hv = chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let create = hv.plan(&[PlanOp::Create(VnpuRequest::cores(2))]).unwrap();
        let findings = lint_plan(&hv, &create, ChipSchedState::Draining, None);
        assert!(
            rules(&findings).contains(&Rule::PlanUnschedulableChip),
            "{findings:?}"
        );
        let destroy = hv.plan(&[PlanOp::Destroy(vm)]).unwrap();
        let findings = lint_plan(&hv, &destroy, ChipSchedState::Draining, None);
        assert!(
            !rules(&findings).contains(&Rule::PlanUnschedulableChip),
            "teardown is exactly what a draining chip is for: {findings:?}"
        );
    }

    #[test]
    fn lint_never_panics_on_garbage_views() {
        let hv = chip();
        let view = PlanView {
            generation: 42,
            snapshot: PlanSnapshotView {
                free_fingerprint: 0,
                free_count: 9999,
                hbm_free_bytes: u64::MAX,
            },
            declared_total: ReconfigCost::default(),
            ops: vec![OpView {
                kind: OpKindView::Remap,
                vm: Some(VmId(77)),
                acquires: vec![10_000, 10_001],
                releases: vec![10_002],
                alloc_bytes: u64::MAX,
                cost: ReconfigCost {
                    routing_cycles: u64::MAX / 4,
                    rtt_cycles: 0,
                    data_move_bytes: 0,
                    paused_cycles: 0,
                },
            }],
        };
        let findings = lint_view(&hv, &view, ChipSchedState::Drained, None);
        assert!(!findings.is_empty());
    }
}
