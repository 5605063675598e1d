//! Streaming temporal-property verification over vNPU serve traces.
//!
//! The repository's other analysis layer checks *instants*: `vnpu_audit`
//! validates per-tick snapshots (safety). It cannot see a run in which a
//! request starves forever, a drain never converges, or a fault blows
//! past its recovery deadline — every individual tick still audits
//! clean. This crate adds the missing temporal axis:
//!
//! 1. a structured [`TraceEvent`] log, emitted by the serve loop as
//!    transitions happen, which replaces lossy ad-hoc counters as the
//!    single source of truth — the serve report folds its numbers from
//!    the same stream ([`TraceFold`]) the checker verifies, and two runs
//!    that must agree are compared event by event on it;
//! 2. a property-combinator DSL ([`props`]: `always`,
//!    `leads_to_within(n)`) from which the shipped `TEMP-*` catalogue
//!    is composed;
//! 3. a checker that runs the catalogue *online* (streaming, O(1)
//!    state per tracked subject, live inside `ServeRuntime::step`) or
//!    *offline* over a recorded trace ([`check_trace`]).
//!
//! # Rule catalogue
//!
//! | id | property | shape |
//! |----|----------|-------|
//! | `TEMP-STARVE` | every arrival admitted or terminally rejected within the policy bound | leads-to |
//! | `TEMP-DRAIN`  | a silently stalled drain makes progress or finishes within the stall bound | leads-to |
//! | `TEMP-FAULT`  | a detected outage recovers, is lost, or departs by `max_recovery_ticks` | leads-to + always |
//! | `TEMP-LEAK`   | quiescence implies a coalesced, leak-free free state | always |
//! | `TEMP-HINT`   | an emitted fit hint fits the admission pass's start snapshot | always |
//!
//! The checker is pure read-only analysis: it never mutates the runtime
//! it observes and never panics on malformed traces (a corrupted trace
//! is exactly the input it exists for). Findings carry a stable rule
//! id, a witness window `(first_tick, last_tick)`, and a [`Subject`].
//! [`TempRule`] is the only home of the `TEMP-*` ids.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod checker;
pub mod fold;
pub mod props;
pub mod trace;

pub use checker::{check_trace, CheckerConfig, TemporalChecker};
pub use fold::{ChipFold, TraceFold};
pub use trace::{RecoveryKind, TraceEvent};

/// The shipped temporal rules. Every rule has a stable string id (see
/// the crate-level catalogue) used in reports and CI gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TempRule {
    /// A queued request was neither admitted nor terminally rejected
    /// within the policy-derived bound.
    Starvation,
    /// A draining chip sat through silent steps (nothing moved, nothing
    /// explicitly skipped) past the stall bound.
    DrainConvergence,
    /// A detected outage was not recovered, lost, or departed by the
    /// recovery deadline — or a resolution event contradicts it.
    FaultDeadline,
    /// The fleet claimed quiescence while still holding cores or HBM,
    /// or with an uncoalesced free region on healthy hardware.
    QuiescenceLeak,
    /// An emitted fit hint exceeds the largest schedulable free island
    /// at the start of its admission pass.
    HintSoundness,
}

impl TempRule {
    /// The stable rule id used in reports and the README catalogue.
    pub fn id(self) -> &'static str {
        match self {
            TempRule::Starvation => "TEMP-STARVE",
            TempRule::DrainConvergence => "TEMP-DRAIN",
            TempRule::FaultDeadline => "TEMP-FAULT",
            TempRule::QuiescenceLeak => "TEMP-LEAK",
            TempRule::HintSoundness => "TEMP-HINT",
        }
    }
}

impl fmt::Display for TempRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// What a finding is about — the entity whose property was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subject {
    /// The fleet as a whole (quiescence).
    Fleet,
    /// A queued admission request, by raw request id.
    Request(u64),
    /// A chip, by cluster index.
    Chip(usize),
    /// A tenant, by its identity at the time the obligation opened.
    Tenant {
        /// The tenant's chip index.
        chip: usize,
        /// Its raw VM id on that chip.
        vm: u32,
    },
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Subject::Fleet => f.write_str("fleet"),
            Subject::Request(id) => write!(f, "request{id}"),
            Subject::Chip(chip) => write!(f, "chip{chip}"),
            Subject::Tenant { chip, vm } => write!(f, "chip{chip}/vm{vm}"),
        }
    }
}

/// One proven temporal violation: the rule, the witness window over
/// which it was established, the subject, and a human-readable
/// explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalFinding {
    /// The rule that fired.
    pub rule: TempRule,
    /// First tick of the witness window (e.g. when the obligation
    /// opened).
    pub first_tick: u64,
    /// Last tick of the witness window (e.g. when the violation became
    /// provable).
    pub last_tick: u64,
    /// The entity the finding is about.
    pub subject: Subject,
    /// Human-readable explanation with the observed numbers.
    pub detail: String,
}

impl fmt::Display for TemporalFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ticks {}..{}: {}",
            self.rule, self.subject, self.first_tick, self.last_tick, self.detail
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_stable_and_temp_prefixed() {
        let rules = [
            TempRule::Starvation,
            TempRule::DrainConvergence,
            TempRule::FaultDeadline,
            TempRule::QuiescenceLeak,
            TempRule::HintSoundness,
        ];
        let ids: Vec<&str> = rules.iter().map(|r| r.id()).collect();
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), rules.len(), "duplicate rule id");
        for id in unique {
            assert!(id.starts_with("TEMP-"), "{id}");
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
                .filter(|id| id.starts_with("TEMP-"))
                .collect();
            assert_eq!(listed, ids, "{doc}'s rule table");
        }
    }

    #[test]
    fn finding_display_names_rule_subject_and_window() {
        let finding = TemporalFinding {
            rule: TempRule::FaultDeadline,
            first_tick: 10,
            last_tick: 19,
            subject: Subject::Tenant { chip: 2, vm: 5 },
            detail: "still pending".into(),
        };
        let s = finding.to_string();
        assert!(s.contains("[TEMP-FAULT]"), "{s}");
        assert!(s.contains("chip2/vm5"), "{s}");
        assert!(s.contains("10..19"), "{s}");
        assert!(s.contains("still pending"), "{s}");
    }
}
