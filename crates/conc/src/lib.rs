//! **vnpu_conc** — the determinism sanitizer of the serve loop.
//!
//! The stack spawns no threads (the serve tick and the mapper's scoring
//! are plain loops), so there is no lock to order and no schedule to
//! explore. What remains worth checking is that two
//! runs which must agree — the same seed twice, instrumentation on and
//! off — really do, and *where* they stop agreeing when they do not: the
//! serve loop (behind `ServeConfig::phase_digests`) records a per-tick,
//! per-phase, per-chip [`DigestChain`] (admission decisions, drain and
//! defrag applies, recovery resolutions, execution makespans — never
//! wall-clock), and [`compare_chains`] pinpoints the *first* divergent
//! `(tick, phase, chip)` instead of leaving a whole-report diff to
//! bisect.
//!
//! A divergence is a [`ConcFinding`] under the stable rule id `CONC-DET`,
//! and [`ConcRule`] is the only home of that id. The workspace's
//! `conc_mutations` suite proves the rule by mutation: a chain folded in
//! completion order is flagged against one folded in job order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod digest;

pub use digest::{compare_all, compare_chains, Digest, DigestChain, DigestEntry, Phase};

/// The concurrency rules this crate checks. Every rule has a stable
/// string id used in reports and CI gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ConcRule {
    /// Two runs that must agree diverged; the finding names the first
    /// divergent `(tick, phase, chip)` of the digest chains.
    Determinism,
}

impl ConcRule {
    /// The stable rule id used in reports and the README catalogue.
    pub fn id(self) -> &'static str {
        match self {
            ConcRule::Determinism => "CONC-DET",
        }
    }
}

impl fmt::Display for ConcRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How bad a concurrency finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConcSeverity {
    /// A hazard worth knowing about, not a proven violation.
    Warning,
    /// A violated concurrency invariant.
    Error,
}

impl fmt::Display for ConcSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConcSeverity::Warning => "warning",
            ConcSeverity::Error => "error",
        })
    }
}

/// One concurrency finding: rule, severity, the offending chip when one
/// is identifiable (determinism findings), and a human-readable detail
/// naming the witness (runs, tick, phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcFinding {
    /// The rule that fired.
    pub rule: ConcRule,
    /// How bad it is.
    pub severity: ConcSeverity,
    /// Offending chip index, when one is identifiable.
    pub chip: Option<usize>,
    /// Human-readable witness (run labels, tick, phase, digests).
    pub detail: String,
}

impl ConcFinding {
    /// An error-severity finding.
    pub fn error(rule: ConcRule, detail: String) -> Self {
        ConcFinding {
            rule,
            severity: ConcSeverity::Error,
            chip: None,
            detail,
        }
    }

    /// A warning-severity finding.
    pub fn warning(rule: ConcRule, detail: String) -> Self {
        ConcFinding {
            rule,
            severity: ConcSeverity::Warning,
            chip: None,
            detail,
        }
    }

    /// Attributes the finding to a chip.
    #[must_use]
    pub fn on_chip(mut self, chip: usize) -> Self {
        self.chip = Some(chip);
        self
    }
}

impl fmt::Display for ConcFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.severity)?;
        if let Some(chip) = self.chip {
            write!(f, " chip{chip}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let rules = [ConcRule::Determinism];
        let ids: std::collections::BTreeSet<&str> = rules.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), rules.len(), "duplicate rule id");
        for id in ids {
            assert!(id.starts_with("CONC-"), "{id}");
        }
    }

    #[test]
    fn finding_display_names_rule_severity_and_chip() {
        let f = ConcFinding::error(ConcRule::Determinism, "tick 3 diverged".into()).on_chip(2);
        let s = f.to_string();
        assert!(s.contains("[CONC-DET]"), "{s}");
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("chip2"), "{s}");
        assert!(s.contains("tick 3 diverged"), "{s}");
    }
}
