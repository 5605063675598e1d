//! The per-phase determinism digest chain.
//!
//! The serve loop (behind `ServeConfig::phase_digests`) hashes the
//! *result* of each tick phase — admission decisions, drain apply,
//! defrag apply, execution fold — per tick and per chip into a
//! [`DigestChain`]. Two runs that must agree (the same seed twice,
//! instrumentation on and off) then compare chains entry-by-entry:
//! [`compare_chains`] pinpoints the **first** divergent
//! `(tick, phase, chip)` instead of leaving a whole-report diff to
//! bisect, and reports it as a `CONC-DET` [`ConcFinding`].
//!
//! Hashing is a self-contained splitmix64 fold — stable across runs,
//! platforms and `std` versions, unlike `DefaultHasher`'s unspecified
//! algorithm.

use std::fmt;

use crate::{ConcFinding, ConcRule};

/// splitmix64's finalizer: a cheap, well-mixed 64-bit permutation.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// An order-sensitive 64-bit fold: `write_u64` values in, one mixed
/// word out. Order sensitivity is the point — a fold in any order but
/// the canonical one produces a different digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: 0xD1E5_7A11_u64,
        }
    }
}

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word in (order-sensitive).
    pub fn write_u64(&mut self, value: u64) {
        self.state = mix64(self.state ^ value).rotate_left(17);
    }

    /// Folds a byte string in (length-prefixed, so `"ab","c"` and
    /// `"a","bc"` differ).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The folded value.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// Which tick phase a digest entry covers. Ordered as the serve loop
/// runs them within a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Fault-recovery fold: onsets and repairs applied, affected tenants
    /// detected, and each one's recovery resolution (remapped, replaced
    /// cross-chip, pending or lost) per chip.
    Recovery,
    /// Admission pass: which requests landed where, in decision order.
    Admission,
    /// Drain-step apply: planned moves, skips and remaining counts per
    /// draining chip.
    Drain,
    /// Defrag receipt apply: created / migrated / destroyed VMs and
    /// their costs.
    Defrag,
    /// Per-chip execution fold: the makespan each chip reported.
    Execution,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Recovery => "recovery",
            Phase::Admission => "admission",
            Phase::Drain => "drain",
            Phase::Defrag => "defrag",
            Phase::Execution => "execution",
        })
    }
}

/// One recorded phase digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestEntry {
    /// Serve tick the phase ran in.
    pub tick: u64,
    /// Which phase.
    pub phase: Phase,
    /// The chip the digest covers, or `None` for a fleet-level phase
    /// (the admission pass spans chips).
    pub chip: Option<u32>,
    /// The folded phase result.
    pub digest: u64,
}

/// The ordered log of phase digests for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestChain {
    /// Entries in recording order (tick-major, phase order within a
    /// tick, chip order within a phase).
    pub entries: Vec<DigestEntry>,
}

impl DigestChain {
    /// A fresh, empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one phase digest.
    pub fn record(&mut self, tick: u64, phase: Phase, chip: Option<u32>, digest: u64) {
        self.entries.push(DigestEntry {
            tick,
            phase,
            chip,
            digest,
        });
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn divergence_finding(
    label_a: &str,
    label_b: &str,
    a: &DigestEntry,
    b: &DigestEntry,
) -> ConcFinding {
    let finding = if a.tick == b.tick && a.phase == b.phase && a.chip == b.chip {
        ConcFinding::error(
            ConcRule::Determinism,
            format!(
                "runs '{label_a}' and '{label_b}' diverge first at tick {} phase {}{}: digest {:#018x} vs {:#018x}",
                a.tick,
                a.phase,
                match a.chip {
                    Some(c) => format!(" chip {c}"),
                    None => String::from(" (fleet)"),
                },
                a.digest,
                b.digest,
            ),
        )
    } else {
        ConcFinding::error(
            ConcRule::Determinism,
            format!(
                "runs '{label_a}' and '{label_b}' record different phase sequences: first mismatch \
                 (tick {} {}{:?}) vs (tick {} {}{:?})",
                a.tick, a.phase, a.chip, b.tick, b.phase, b.chip,
            ),
        )
    };
    match (a.chip, b.chip) {
        (Some(c), Some(d)) if c == d => finding.on_chip(c as usize),
        _ => finding,
    }
}

/// Compares two chains that must be identical; returns a `CONC-DET`
/// finding naming the first divergent `(tick, phase, chip)`, or `None`
/// when they agree.
pub fn compare_chains(
    label_a: &str,
    chain_a: &DigestChain,
    label_b: &str,
    chain_b: &DigestChain,
) -> Option<ConcFinding> {
    for (a, b) in chain_a.entries.iter().zip(&chain_b.entries) {
        if a != b {
            return Some(divergence_finding(label_a, label_b, a, b));
        }
    }
    if chain_a.len() != chain_b.len() {
        return Some(ConcFinding::error(
            ConcRule::Determinism,
            format!(
                "runs '{label_a}' and '{label_b}' recorded different phase counts: {} vs {} \
                 (shorter run is a prefix of the longer)",
                chain_a.len(),
                chain_b.len(),
            ),
        ));
    }
    None
}

/// Compares every labelled chain against the first; one finding per
/// diverging run. Empty when all runs agree.
pub fn compare_all(chains: &[(String, DigestChain)]) -> Vec<ConcFinding> {
    let Some((base_label, base)) = chains.first() else {
        return Vec::new();
    };
    chains
        .iter()
        .skip(1)
        .filter_map(|(label, chain)| compare_chains(base_label, base, label, chain))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_fold_is_length_prefixed() {
        let mut a = Digest::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Digest::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn identical_chains_compare_clean() {
        let mut chain = DigestChain::new();
        chain.record(0, Phase::Admission, None, 7);
        chain.record(0, Phase::Execution, Some(0), 9);
        assert!(compare_chains("a", &chain, "b", &chain.clone()).is_none());
        assert!(compare_all(&[("a".into(), chain.clone()), ("b".into(), chain)]).is_empty());
    }

    #[test]
    fn first_divergent_entry_is_named() {
        let mut a = DigestChain::new();
        a.record(0, Phase::Admission, None, 7);
        a.record(1, Phase::Execution, Some(2), 9);
        a.record(2, Phase::Execution, Some(2), 11);
        let mut b = a.clone();
        b.entries[1].digest = 10;
        b.entries[2].digest = 12;
        let finding = compare_chains("w1", &a, "w4", &b).expect("diverges");
        assert_eq!(finding.rule, ConcRule::Determinism);
        assert_eq!(finding.chip, Some(2));
        assert!(finding.detail.contains("tick 1"), "{}", finding.detail);
        assert!(finding.detail.contains("execution"), "{}", finding.detail);
    }

    #[test]
    fn length_mismatch_is_a_finding() {
        let mut a = DigestChain::new();
        a.record(0, Phase::Admission, None, 7);
        let b = DigestChain::new();
        let finding = compare_chains("a", &a, "b", &b).expect("length mismatch");
        assert!(
            finding.detail.contains("phase counts"),
            "{}",
            finding.detail
        );
    }
}
