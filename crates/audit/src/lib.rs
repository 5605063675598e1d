//! **vnpu_audit** — static analysis over the vNPU stack's safety
//! invariants.
//!
//! The paper's core promise is *safe* multi-tenant sharing of an
//! inter-core connected NPU: tenants spatially isolated, routing tables
//! consistent, reconfiguration atomic. After the transactional-plan,
//! live-migration, defragmentation and drain layers, those invariants
//! are upheld by construction — but nothing *checks* them. This crate is
//! the checker: three read-only passes that never mutate the structures
//! they audit and never panic, reporting violations as structured
//! [`AuditFinding`]s instead.
//!
//! * [`linter`] — lints a [`vnpu::plan::PlacementTxn`] *before* commit:
//!   double-booked cores, use-after-destroy ordering hazards, cost-sum
//!   mismatches, budget violations, stale plan generations, plans
//!   targeting a draining chip.
//! * [`routing`] — rebuilds every resident tenant's physical routes from
//!   its routing table and route policy, then proves NoC deadlock
//!   freedom over the channel-dependency graph and checks inter-tenant
//!   link isolation.
//! * [`fleet`] — the whole-[`vnpu::cluster::Cluster`] post-tick audit:
//!   core-ownership and free-set consistency, HBM byte conservation,
//!   drained-chip residue, cache-generation monotonicity (via the
//!   stateful [`FleetAuditor`]).
//!
//! The fleet pass is wired into the serving loop behind
//! `ServeConfig::audit` (off by default — zero cost), and
//! `tests/scenarios.rs` runs the drain, fault and defrag lifecycles with
//! it on as a hard gate. It is also the safety net for refactors of the
//! serve tick: the invariants a restructured tick must preserve are
//! exactly the rules below.
//!
//! # Rule catalogue
//!
//! | Rule id | Invariant | Layer |
//! |---|---|---|
//! | `PLAN-GEN` | plan generation matches the live chain | plan |
//! | `PLAN-SNAP` | plan snapshot matches the live free region / HBM | plan |
//! | `PLAN-COST` | declared total equals the sum of per-op costs | plan |
//! | `PLAN-ORDER` | no op uses a VM a previous op destroys | plan |
//! | `PLAN-VM` | every named VM is live on the chip | plan |
//! | `PLAN-CORE` | no physical core acquired twice without release | plan |
//! | `PLAN-FREE` | no op releases an already-free core | plan |
//! | `PLAN-HBM` | created guest memory fits the snapshot's free HBM | plan |
//! | `PLAN-BUDGET` | migrations stay inside the reconfiguration budget | plan |
//! | `PLAN-DRAIN` | no create/migrate lands on an unschedulable chip | plan |
//! | `ROUTE-TABLE` | routing-table entries agree with the core mapping | routing |
//! | `ROUTE-CONF` | confined tenants' routes stay inside their cores | routing |
//! | `ROUTE-ISO` | no link shared with a NoC-isolated tenant | routing |
//! | `ROUTE-SHARE` | (strict) no two tenants share any physical link | routing |
//! | `ROUTE-CDG` | the channel-dependency graph is acyclic | routing |
//! | `FLEET-OWN` | per-core user counts equal the sum of tenant claims | fleet |
//! | `FLEET-SHARE` | shared cores only between temporal-sharing tenants | fleet |
//! | `FLEET-FREE` | free-set membership/fingerprint match occupancy | fleet |
//! | `FLEET-HBM` | allocated HBM equals the sum of tenant blocks | fleet |
//! | `FLEET-DRAIN` | a drained chip holds zero tenants | fleet |
//! | `FLEET-GEN` | the mapping-cache generation never regresses | fleet |
//! | `FAULT-MAP` | no live tenant maps a faulted core | fault |
//! | `FAULT-FREE` | no faulted core is advertised free | fault |
//! | `FAULT-LINK` | no live tenant owns an endpoint of a faulted link | fault |
//! | `CONC-DET` | phase digest chains agree across runs | conc |
//! | `TEMP-STARVE` | arrivals admitted or terminally rejected in bounded ticks | temporal |
//! | `TEMP-DRAIN` | a silently stalled drain progresses or finishes in bounded ticks | temporal |
//! | `TEMP-FAULT` | detected outages resolve by the recovery deadline | temporal |
//! | `TEMP-COST` | per-event paid costs sum to the report's claims | temporal |
//! | `TEMP-CACHE` | cache counters consistent and monotone | temporal |
//! | `TEMP-LEAK` | quiescence implies a coalesced, leak-free free state | temporal |
//! | `TEMP-HINT` | emitted fit hints fit the emitting admission snapshot | temporal |
//!
//! `CONC-DET` is produced by `vnpu_conc`'s digest-chain comparison (see
//! that crate); [`AuditFinding`] implements
//! `From<vnpu_conc::ConcFinding>` so determinism findings flow through
//! the same reporting channel as the passes above. The `TEMP-*` rules
//! are produced by `vnpu_temporal`'s streaming property checker over
//! serve traces and lift into this channel the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use vnpu::VmId;

pub mod fleet;
pub mod linter;
pub mod routing;

pub use fleet::{audit_chip, audit_cluster, FleetAuditor};
pub use linter::{lint_plan, lint_view, OpKindView, OpView, PlanSnapshotView, PlanView};
pub use routing::{audit_routing, collect_tenant_routes, Link, TenantRoutes};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A diagnostic worth knowing (e.g. two best-effort tenants sharing
    /// a NoC link under plain dimension-order routing) — not a broken
    /// guarantee.
    Warning,
    /// A violated invariant: committing the plan (or running the fleet
    /// as-is) is unsafe.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The machine-checkable invariants this crate enforces. Every rule has
/// a stable string id (see the crate-level catalogue) used in reports
/// and CI gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// The plan's generation no longer matches the hypervisor's chain.
    PlanStaleGeneration,
    /// The plan's free-region/HBM snapshot drifted from the live chip.
    PlanSnapshotDrift,
    /// The declared total cost is not the sum of the per-op costs.
    PlanCostMismatch,
    /// An op names a VM that an earlier op in the same plan destroys.
    PlanUseAfterDestroy,
    /// An op names a VM that is not live on the chip.
    PlanUnknownVm,
    /// A physical core is acquired while already occupied.
    PlanDoubleBooked,
    /// An op releases a core that is already free.
    PlanOverRelease,
    /// Created guest memory exceeds the snapshot's free HBM.
    PlanHbmOvercommit,
    /// A migration op exceeds the reconfiguration budget.
    PlanBudgetExceeded,
    /// A create/migrate op targets a draining or drained chip.
    PlanUnschedulableChip,
    /// A routing-table entry disagrees with the tenant's core mapping.
    RouteTableMismatch,
    /// A confined (NoC-isolated) tenant's route leaves its own cores.
    RouteEscapedRegion,
    /// A physical link is shared with a tenant that was promised NoC
    /// isolation.
    RouteIsolationLeak,
    /// (Strict mode only.) Two tenants' routes share a physical link.
    RouteSharedLink,
    /// The channel-dependency graph over all resident routes has a
    /// cycle — deadlock freedom is not provable.
    RouteDeadlockCycle,
    /// A core's user count disagrees with the tenants claiming it.
    FleetCoreOwnership,
    /// A core is shared by tenants that did not all opt into temporal
    /// sharing.
    FleetSharedCore,
    /// The free set (membership, count or fingerprint) disagrees with
    /// per-core occupancy.
    FleetFreeSetDrift,
    /// Allocated HBM bytes differ from the sum of tenant blocks.
    FleetHbmAccounting,
    /// A drained chip still holds tenants.
    FleetDrainedResidue,
    /// A chip's mapping-cache (topology) generation went backwards.
    FleetGenerationRegressed,
    /// A live tenant's mapping includes a core the fault layer marked
    /// dead — recovery has not (yet) moved it off and the placement
    /// machinery failed to exclude the core.
    FaultMappedCore,
    /// A faulted core is a member of the chip's free region — it could
    /// be handed to the next placement.
    FaultFreeCore,
    /// A live tenant owns an endpoint core of a faulted NoC link: its
    /// traffic terminates in (or originates from) the dead link's
    /// routers. A warning — traffic may still route around the link —
    /// but recovery should be moving the tenant.
    FaultLinkEndpoint,
    /// Phase digest chains diverged between runs that must agree.
    ConcDeterminism,
    /// A queued request was neither admitted nor terminally rejected
    /// within the admission policy's starvation bound.
    TemporalStarvation,
    /// A draining chip sat through silent drain steps (nothing moved,
    /// nothing explicitly skipped) past the stall bound.
    TemporalDrainConvergence,
    /// A detected outage was not recovered, lost, or departed by the
    /// recovery deadline.
    TemporalFaultDeadline,
    /// Per-event paid reconfiguration costs do not sum to the serve
    /// report's claimed totals.
    TemporalCostConservation,
    /// Mapping-cache counters are inconsistent or regressed over time.
    TemporalCacheConservation,
    /// The fleet claimed quiescence while leaking cores/HBM or with an
    /// uncoalesced free region on healthy hardware.
    TemporalQuiescenceLeak,
    /// An emitted fit hint exceeds the largest schedulable free island
    /// at the start of its admission pass.
    TemporalHintSoundness,
}

impl Rule {
    /// The stable rule id used in reports and the README catalogue.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PlanStaleGeneration => "PLAN-GEN",
            Rule::PlanSnapshotDrift => "PLAN-SNAP",
            Rule::PlanCostMismatch => "PLAN-COST",
            Rule::PlanUseAfterDestroy => "PLAN-ORDER",
            Rule::PlanUnknownVm => "PLAN-VM",
            Rule::PlanDoubleBooked => "PLAN-CORE",
            Rule::PlanOverRelease => "PLAN-FREE",
            Rule::PlanHbmOvercommit => "PLAN-HBM",
            Rule::PlanBudgetExceeded => "PLAN-BUDGET",
            Rule::PlanUnschedulableChip => "PLAN-DRAIN",
            Rule::RouteTableMismatch => "ROUTE-TABLE",
            Rule::RouteEscapedRegion => "ROUTE-CONF",
            Rule::RouteIsolationLeak => "ROUTE-ISO",
            Rule::RouteSharedLink => "ROUTE-SHARE",
            Rule::RouteDeadlockCycle => "ROUTE-CDG",
            Rule::FleetCoreOwnership => "FLEET-OWN",
            Rule::FleetSharedCore => "FLEET-SHARE",
            Rule::FleetFreeSetDrift => "FLEET-FREE",
            Rule::FleetHbmAccounting => "FLEET-HBM",
            Rule::FleetDrainedResidue => "FLEET-DRAIN",
            Rule::FleetGenerationRegressed => "FLEET-GEN",
            Rule::FaultMappedCore => "FAULT-MAP",
            Rule::FaultFreeCore => "FAULT-FREE",
            Rule::FaultLinkEndpoint => "FAULT-LINK",
            Rule::ConcDeterminism => "CONC-DET",
            Rule::TemporalStarvation => "TEMP-STARVE",
            Rule::TemporalDrainConvergence => "TEMP-DRAIN",
            Rule::TemporalFaultDeadline => "TEMP-FAULT",
            Rule::TemporalCostConservation => "TEMP-COST",
            Rule::TemporalCacheConservation => "TEMP-CACHE",
            Rule::TemporalQuiescenceLeak => "TEMP-LEAK",
            Rule::TemporalHintSoundness => "TEMP-HINT",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One violated (or noteworthy) invariant, with enough context to name
/// the offender: rule, severity, chip/VM/core where applicable, and a
/// human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// The rule that fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Offending chip index, when the audit ran over a cluster.
    pub chip: Option<usize>,
    /// Offending tenant, when one is identifiable.
    pub vm: Option<VmId>,
    /// Offending physical core, when one is identifiable.
    pub core: Option<u32>,
    /// Human-readable explanation (exact link, tenant pair, expected vs
    /// observed value, ...).
    pub detail: String,
}

impl AuditFinding {
    pub(crate) fn error(rule: Rule, detail: String) -> Self {
        AuditFinding {
            rule,
            severity: Severity::Error,
            chip: None,
            vm: None,
            core: None,
            detail,
        }
    }

    pub(crate) fn warning(rule: Rule, detail: String) -> Self {
        AuditFinding {
            rule,
            severity: Severity::Warning,
            chip: None,
            vm: None,
            core: None,
            detail,
        }
    }

    pub(crate) fn vm(mut self, vm: VmId) -> Self {
        self.vm = Some(vm);
        self
    }

    pub(crate) fn core(mut self, core: u32) -> Self {
        self.core = Some(core);
        self
    }

    pub(crate) fn on_chip(mut self, chip: usize) -> Self {
        self.chip = Some(chip);
        self
    }
}

impl From<vnpu_conc::ConcFinding> for AuditFinding {
    /// Lifts a determinism finding into the audit channel: same rule id
    /// (`CONC-DET`, the only [`vnpu_conc::ConcRule`]), same severity, chip
    /// carried over; determinism findings never name a VM or core.
    fn from(finding: vnpu_conc::ConcFinding) -> Self {
        AuditFinding {
            rule: Rule::ConcDeterminism,
            severity: match finding.severity {
                vnpu_conc::ConcSeverity::Warning => Severity::Warning,
                vnpu_conc::ConcSeverity::Error => Severity::Error,
            },
            chip: finding.chip,
            vm: None,
            core: None,
            detail: finding.detail,
        }
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.severity)?;
        if let Some(chip) = self.chip {
            write!(f, " chip{chip}")?;
        }
        if let Some(vm) = self.vm {
            write!(f, " {vm}")?;
        }
        if let Some(core) = self.core {
            write!(f, " core{core}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_names_the_offender() {
        let f = AuditFinding::error(Rule::FleetSharedCore, "two exclusive owners".into())
            .on_chip(1)
            .vm(VmId(3))
            .core(7);
        let s = f.to_string();
        assert!(s.contains("[FLEET-SHARE]"), "{s}");
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("chip1"), "{s}");
        assert!(s.contains("core7"), "{s}");
        assert!(s.contains("two exclusive owners"), "{s}");
    }

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let rules = [
            Rule::PlanStaleGeneration,
            Rule::PlanSnapshotDrift,
            Rule::PlanCostMismatch,
            Rule::PlanUseAfterDestroy,
            Rule::PlanUnknownVm,
            Rule::PlanDoubleBooked,
            Rule::PlanOverRelease,
            Rule::PlanHbmOvercommit,
            Rule::PlanBudgetExceeded,
            Rule::PlanUnschedulableChip,
            Rule::RouteTableMismatch,
            Rule::RouteEscapedRegion,
            Rule::RouteIsolationLeak,
            Rule::RouteSharedLink,
            Rule::RouteDeadlockCycle,
            Rule::FleetCoreOwnership,
            Rule::FleetSharedCore,
            Rule::FleetFreeSetDrift,
            Rule::FleetHbmAccounting,
            Rule::FleetDrainedResidue,
            Rule::FleetGenerationRegressed,
            Rule::FaultMappedCore,
            Rule::FaultFreeCore,
            Rule::FaultLinkEndpoint,
            Rule::ConcDeterminism,
            Rule::TemporalStarvation,
            Rule::TemporalDrainConvergence,
            Rule::TemporalFaultDeadline,
            Rule::TemporalCostConservation,
            Rule::TemporalCacheConservation,
            Rule::TemporalQuiescenceLeak,
            Rule::TemporalHintSoundness,
        ];
        let ids: std::collections::BTreeSet<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len(), "duplicate rule id");
        for id in ids {
            let (layer, _) = id.split_once('-').expect("ids are LAYER-NAME");
            assert!(
                matches!(
                    layer,
                    "PLAN" | "ROUTE" | "FLEET" | "CONC" | "FAULT" | "TEMP"
                ),
                "{id}"
            );
        }
    }

    #[test]
    fn conc_findings_convert_losslessly() {
        let cases = [(vnpu_conc::ConcRule::Determinism, "CONC-DET")];
        for (conc_rule, id) in cases {
            // The conc crate and the audit catalogue must agree on ids.
            assert_eq!(conc_rule.id(), id);
            let lifted: AuditFinding =
                vnpu_conc::ConcFinding::error(conc_rule, "witness".into()).into();
            assert_eq!(lifted.rule.id(), id);
            assert_eq!(lifted.severity, Severity::Error);
            assert_eq!(lifted.detail, "witness");
        }
        let warned: AuditFinding = vnpu_conc::ConcFinding::warning(
            vnpu_conc::ConcRule::Determinism,
            "tick 5 diverged".into(),
        )
        .on_chip(3)
        .into();
        assert_eq!(warned.severity, Severity::Warning);
        assert_eq!(warned.chip, Some(3));
        assert_eq!(warned.vm, None);
        assert_eq!(warned.core, None);
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }
}
