//! **vnpu_audit** — static analysis over the vNPU stack's safety
//! invariants.
//!
//! The paper's core promise is *safe* multi-tenant sharing of an
//! inter-core connected NPU: tenants spatially isolated, routing tables
//! consistent, reconfiguration atomic. After the transactional-plan,
//! live-migration, defragmentation and drain layers, those invariants
//! are upheld by construction — but nothing *checks* them. This crate is
//! the checker: two read-only passes that never mutate the structures
//! they audit and never panic, reporting violations as structured
//! [`AuditFinding`]s instead.
//!
//! * [`routing`] — rebuilds every resident tenant's physical routes from
//!   its routing table and route policy, then proves NoC deadlock
//!   freedom over the channel-dependency graph and checks inter-tenant
//!   link isolation.
//! * [`fleet`] — the whole-[`vnpu::cluster::Cluster`] post-tick audit:
//!   core-ownership and free-set consistency, HBM byte conservation,
//!   drained-chip residue, cache-generation monotonicity (via the
//!   stateful [`FleetAuditor`]), and the fault mask.
//!
//! A placement plan needs no pass of its own: `Hypervisor::plan` runs
//! the commit's op loop on a copy, so an unsound plan is an `Err` from
//! `plan`, and a plan the chip moved away from is a `StalePlan` from
//! `commit`.
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
//! | `ROUTE-TABLE` | routing-table entries agree with the core mapping | routing |
//! | `ROUTE-CONF` | confined tenants' routes stay inside their cores | routing |
//! | `ROUTE-ISO` | no link shared with a NoC-isolated tenant | routing |
//! | `ROUTE-CDG` | the channel-dependency graph is acyclic | routing |
//! | `FLEET-OWN` | per-core user counts equal the sum of tenant claims | fleet |
//! | `FLEET-SHARE` | shared cores only between temporal-sharing tenants | fleet |
//! | `FLEET-FREE` | free-set membership/fingerprint match occupancy | fleet |
//! | `FLEET-HBM` | allocated HBM equals the sum of tenant blocks | fleet |
//! | `FLEET-DRAIN` | a drained chip holds zero tenants | fleet |
//! | `FLEET-GEN` | the mapping-cache generation never regresses | fleet |
//! | `FAULT-MAP` | no live tenant maps a faulted core | fault |
//! | `FAULT-LINK` | no live tenant owns an endpoint of a faulted link | fault |
//!
//! The `TEMP-*` rules live in `vnpu_temporal`; each crate's rule type is
//! the only home of its ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use vnpu::VmId;

pub mod fleet;
pub mod routing;

pub use fleet::{audit_chip, audit_cluster, FleetAuditor};
pub use routing::{audit_routing, collect_tenant_routes, Link, TenantRoutes};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A diagnostic worth knowing (e.g. a live tenant owning an
    /// endpoint of a faulted link) — not a broken guarantee.
    Warning,
    /// A violated invariant: running the fleet as-is is unsafe.
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
    /// A routing-table entry disagrees with the tenant's core mapping.
    RouteTableMismatch,
    /// A confined (NoC-isolated) tenant's route leaves its own cores.
    RouteEscapedRegion,
    /// A physical link is shared with a tenant that was promised NoC
    /// isolation.
    RouteIsolationLeak,
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
    /// A live tenant owns an endpoint core of a faulted NoC link: its
    /// traffic terminates in (or originates from) the dead link's
    /// routers. A warning — traffic may still route around the link —
    /// but recovery should be moving the tenant.
    FaultLinkEndpoint,
}

impl Rule {
    /// The stable rule id used in reports and the README catalogue.
    pub fn id(self) -> &'static str {
        match self {
            Rule::RouteTableMismatch => "ROUTE-TABLE",
            Rule::RouteEscapedRegion => "ROUTE-CONF",
            Rule::RouteIsolationLeak => "ROUTE-ISO",
            Rule::RouteDeadlockCycle => "ROUTE-CDG",
            Rule::FleetCoreOwnership => "FLEET-OWN",
            Rule::FleetSharedCore => "FLEET-SHARE",
            Rule::FleetFreeSetDrift => "FLEET-FREE",
            Rule::FleetHbmAccounting => "FLEET-HBM",
            Rule::FleetDrainedResidue => "FLEET-DRAIN",
            Rule::FleetGenerationRegressed => "FLEET-GEN",
            Rule::FaultMappedCore => "FAULT-MAP",
            Rule::FaultLinkEndpoint => "FAULT-LINK",
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
    pub(crate) fn error(rule: Rule, detail: impl Into<String>) -> Self {
        AuditFinding {
            rule,
            severity: Severity::Error,
            chip: None,
            vm: None,
            core: None,
            detail: detail.into(),
        }
    }

    pub(crate) fn warning(rule: Rule, detail: impl Into<String>) -> Self {
        AuditFinding {
            severity: Severity::Warning,
            ..AuditFinding::error(rule, detail)
        }
    }

    /// Names the offending tenant (`None` leaves it unnamed).
    pub(crate) fn vm(mut self, vm: impl Into<Option<VmId>>) -> Self {
        self.vm = vm.into();
        self
    }

    /// Names the offending core (`None` leaves it unnamed).
    pub(crate) fn core(mut self, core: impl Into<Option<u32>>) -> Self {
        self.core = core.into();
        self
    }

    pub(crate) fn on_chip(mut self, chip: usize) -> Self {
        self.chip = Some(chip);
        self
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
        let f = AuditFinding::error(Rule::FleetSharedCore, "two exclusive owners")
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
            Rule::RouteTableMismatch,
            Rule::RouteEscapedRegion,
            Rule::RouteIsolationLeak,
            Rule::RouteDeadlockCycle,
            Rule::FleetCoreOwnership,
            Rule::FleetSharedCore,
            Rule::FleetFreeSetDrift,
            Rule::FleetHbmAccounting,
            Rule::FleetDrainedResidue,
            Rule::FleetGenerationRegressed,
            Rule::FaultMappedCore,
            Rule::FaultLinkEndpoint,
        ];
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), rules.len(), "duplicate rule id");
        for id in unique {
            let (layer, _) = id.split_once('-').expect("ids are LAYER-NAME");
            assert!(matches!(layer, "ROUTE" | "FLEET" | "FAULT"), "{id}");
        }
        // The README's rule table and the crate-doc catalogue list exactly
        // these ids, in this order, so a deleted id cannot linger there.
        for (doc, text) in [
            ("README.md", include_str!("../../../README.md")),
            ("crate docs", include_str!("lib.rs")),
        ] {
            let listed: Vec<&str> = text
                .lines()
                .filter_map(|line| line.trim_start_matches("//! ").strip_prefix("| `"))
                .filter_map(|cell| cell.split('`').next())
                .filter(|id| {
                    id.starts_with("ROUTE-") || id.starts_with("FLEET-") || id.starts_with("FAULT-")
                })
                .collect();
            assert_eq!(listed, ids, "{doc}'s rule table");
        }
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }
}
