//! The [`Translate`] trait: one interface over the three translation modes
//! the paper evaluates in Figure 14 (physical / page-based IOTLB /
//! range-based vChunk), consumed by the simulator's DMA engine.

use crate::{MemError, Perm, PhysAddr, Result, VirtAddr};
use std::fmt;

/// Latency parameters of the translation hardware, in core clock cycles.
///
/// Defaults are chosen to reproduce the *relative* overheads of Figure 14:
/// a page walk through an in-memory table is two orders of magnitude more
/// expensive than a TLB hit, and an RTT probe is a single SRAM read since
/// the table lives in the core's meta-zone (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationCosts {
    /// Cycles for a TLB / range-TLB hit (pipelined, usually 0–1).
    pub tlb_hit: u64,
    /// Cycles for a full page-table walk on a page-TLB miss.
    pub page_walk: u64,
    /// Cycles per RTT entry probe (one meta-zone SRAM read).
    pub rtt_probe: u64,
    /// Fixed cycles to refill the range TLB after the right entry is found.
    pub rtt_refill: u64,
}

impl Default for TranslationCosts {
    fn default() -> Self {
        TranslationCosts {
            tlb_hit: 1,
            page_walk: 200,
            rtt_probe: 8,
            rtt_refill: 4,
        }
    }
}

/// Outcome of a successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Physical address of the first byte.
    pub pa: PhysAddr,
    /// Cycles the translation hardware occupied the DMA pipeline. During a
    /// miss this stalls *all* queued DMA requests (§4.2's burst-stall
    /// phenomenon).
    pub cycles: u64,
    /// Whether the lookup hit in the TLB (no stall beyond `tlb_hit`).
    pub hit: bool,
}

/// Cumulative statistics of a translator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslateStats {
    /// Total translation requests.
    pub lookups: u64,
    /// Requests satisfied by the TLB.
    pub hits: u64,
    /// Requests requiring a walk / RTT scan.
    pub misses: u64,
    /// Individual table-entry reads performed on misses.
    pub probe_reads: u64,
    /// Total cycles spent translating (hit + miss).
    pub cycles: u64,
}

impl TranslateStats {
    /// Hit rate in `[0, 1]`; 1.0 when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

impl fmt::Display for TranslateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} lookups, {} hits ({:.1}%), {} misses, {} probes, {} cycles",
            self.lookups,
            self.hits,
            100.0 * self.hit_rate(),
            self.misses,
            self.probe_reads,
            self.cycles
        )
    }
}

/// A virtual→physical translation mechanism with a hardware cost model.
///
/// Implementors: [`PhysicalTranslator`] (no translation),
/// [`crate::page::PageTranslator`], [`crate::rtt::RangeTranslator`].
pub trait Translate {
    /// Translates an access of `len` bytes at `va` requiring `perm`.
    ///
    /// # Errors
    ///
    /// * [`MemError::TranslationFault`] if no mapping covers `va`.
    /// * [`MemError::PermissionDenied`] on a permission mismatch.
    /// * [`MemError::RangeOverrun`] if the access crosses out of its
    ///   mapping (for range translation; page translation walks every page
    ///   the access touches instead).
    fn translate(&mut self, va: VirtAddr, len: u64, perm: Perm) -> Result<Translation>;

    /// Human-readable mechanism name (for reports: "physical", "iotlb-4",
    /// "vchunk" ...).
    fn name(&self) -> String;

    /// Cumulative statistics.
    fn stats(&self) -> TranslateStats;

    /// Resets statistics (not TLB contents).
    fn reset_stats(&mut self);
}

/// Address of the last byte of the access `[va, va + len)` (of `va` itself
/// for an empty one). A guest chooses both numbers, so the sum is
/// checked: an access that runs off the end of the address space is a
/// [`MemError::RangeOverrun`] in every translator, and in the simulator
/// before a transfer's first burst.
///
/// # Errors
///
/// [`MemError::RangeOverrun`] when `va + len - 1` does not fit.
pub fn last_byte(va: VirtAddr, len: u64) -> Result<u64> {
    va.value()
        .checked_add(len.saturating_sub(1))
        .ok_or(MemError::RangeOverrun { va, len })
}

/// Identity translation with zero cost — the paper's "Physical Mem" ideal
/// bar in Figure 14.
#[derive(Debug, Clone, Default)]
pub struct PhysicalTranslator {
    stats: TranslateStats,
}

impl PhysicalTranslator {
    /// Creates the identity translator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Translate for PhysicalTranslator {
    fn translate(&mut self, va: VirtAddr, len: u64, _perm: Perm) -> Result<Translation> {
        last_byte(va, len)?;
        self.stats.lookups += 1;
        self.stats.hits += 1;
        Ok(Translation {
            pa: PhysAddr(va.0),
            cycles: 0,
            hit: true,
        })
    }

    fn name(&self) -> String {
        "physical".to_owned()
    }

    fn stats(&self) -> TranslateStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TranslateStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_is_identity_and_free() {
        let mut t = PhysicalTranslator::new();
        let r = t.translate(VirtAddr(0xdead_0000), 4096, Perm::RW).unwrap();
        assert_eq!(r.pa, PhysAddr(0xdead_0000));
        assert_eq!(r.cycles, 0);
        assert!(r.hit);
        assert_eq!(t.stats().lookups, 1);
        assert_eq!(t.stats().hit_rate(), 1.0);
    }

    #[test]
    fn access_off_the_end_of_the_address_space_is_an_overrun() {
        let mut t = PhysicalTranslator::new();
        let va = VirtAddr(u64::MAX - 10);
        assert_eq!(
            t.translate(va, 64, Perm::R),
            Err(MemError::RangeOverrun { va, len: 64 })
        );
        assert!(t.translate(va, 11, Perm::R).is_ok(), "the last byte exists");
        assert!(t.translate(VirtAddr(u64::MAX), 0, Perm::R).is_ok());
    }

    #[test]
    fn stats_reset() {
        let mut t = PhysicalTranslator::new();
        t.translate(VirtAddr(0), 1, Perm::R).unwrap();
        t.reset_stats();
        assert_eq!(t.stats(), TranslateStats::default());
    }

    #[test]
    fn hit_rate_with_no_lookups() {
        assert_eq!(TranslateStats::default().hit_rate(), 1.0);
    }
}
