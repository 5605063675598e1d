//! The [`Translate`] trait: one interface over the three translation modes
//! the paper evaluates in Figure 14 (physical / page-based IOTLB /
//! range-based vChunk), consumed by the simulator's DMA engine.

use crate::{MemError, Perm, PhysAddr, Result, VirtAddr};
use std::fmt;
use std::ops::RangeInclusive;

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

    /// Books a run of TLB hits after a successful
    /// [`Translate::translate`] of `len` bytes at `va`: of the `max`
    /// bursts of `len` bytes that follow it back to back (at `va + len`,
    /// `va + 2·len`, …), the leading ones that the translation entry the
    /// call just used serves whole. Returns how many were booked and the
    /// cycles each of them costs.
    ///
    /// The contract: booking `k` bursts leaves every observable — the
    /// statistics, the TLB's resident set and its LRU order — exactly as
    /// `k` calls of `translate(va + i·len, len, perm)` for `i` in `1..=k`
    /// would, each a hit costing the returned cycles. Called anywhere but
    /// straight after a successful `translate` of the same `va` and `len`
    /// it may book nothing. The default books nothing, so an implementor
    /// that does not override it is translated burst by burst.
    fn translate_run(&mut self, va: VirtAddr, len: u64, max: u64) -> (u64, u64) {
        let _ = (va, len, max);
        (0, 0)
    }

    /// Books up to `max` *miss periods* from `va` at once: each period
    /// is `period` bursts of `len` bytes back to back, the first a miss
    /// costing exactly `cycles` and the rest hits on one entry each.
    /// Returns how many periods were booked.
    ///
    /// The contract: booking `m` periods leaves every observable — the
    /// statistics, the TLB's resident set, its slot order, its MRU slot
    /// and its LRU ticks — exactly as the `m·period` calls of
    /// `translate(va + i·len, len, perm)` for `i` in `0..m·period`
    /// would, each returning the hit flag and cycles of the burst one
    /// period before it. The caller has just translated that period
    /// (bursts from `va − period·len`) and saw it open with a miss
    /// costing `cycles` followed by hits. A translator may book fewer
    /// periods than `max`, or none; the default books none.
    fn translate_miss_run(
        &mut self,
        va: VirtAddr,
        len: u64,
        period: u64,
        cycles: u64,
        perm: Perm,
        max: u64,
    ) -> u64 {
        let _ = (va, len, period, cycles, perm, max);
        0
    }

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

/// How many of `max` bursts of `len` bytes following `[va, va + len)`
/// back to back fit whole inside the entry spanning the bytes `entry` —
/// none unless that burst itself ends inside it.
pub(crate) fn bursts_within(va: VirtAddr, len: u64, entry: RangeInclusive<u64>, max: u64) -> u64 {
    match last_byte(va, len) {
        Ok(last) if len > 0 && entry.contains(&last) => ((entry.end() - last) / len).min(max),
        _ => 0,
    }
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

    /// The entry is the whole address space.
    fn translate_run(&mut self, va: VirtAddr, len: u64, max: u64) -> (u64, u64) {
        let k = bursts_within(va, len, 0..=u64::MAX, max);
        self.stats.lookups += k;
        self.stats.hits += k;
        (k, 0)
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

    /// Translates `len` bytes at `va` on two copies of `t`, books a run
    /// of up to `max` on one and translates the booked bursts one by one
    /// on the other: each a hit at the run's cycles, and the two
    /// translators identical after. Returns the run's length.
    fn booked<T: Translate + Clone + fmt::Debug>(t: &T, va: u64, len: u64, max: u64) -> u64 {
        let (mut run, mut each) = (t.clone(), t.clone());
        let va = VirtAddr(va);
        assert_eq!(
            run.translate(va, len, Perm::R),
            each.translate(va, len, Perm::R)
        );
        let (k, cycles) = run.translate_run(va, len, max);
        for i in 1..=k {
            let tr = each.translate(va.offset(i * len), len, Perm::R).unwrap();
            assert!(tr.hit && tr.cycles == cycles, "burst {i}: {tr:?}");
        }
        assert_eq!(format!("{run:?}"), format!("{each:?}"));
        k
    }

    #[test]
    fn a_run_is_what_translating_its_bursts_would_do() {
        use crate::page::{PageTable, PageTranslator};
        use crate::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
        let physical = PhysicalTranslator::new();
        assert_eq!(booked(&physical, 0x1_0000, 2048, 100), 100);
        assert_eq!(booked(&physical, u64::MAX - 4095, 1024, 100), 3);
        // Two VA-contiguous ranges, 6 KiB and 12 KiB, on a one-entry TLB.
        let rtt = RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x1_0000), PhysAddr(0x8_0000), 0x1800, Perm::RW),
            RttEntry::new(VirtAddr(0x1_1800), PhysAddr(0x2_0000), 0x3000, Perm::RW),
        ])
        .unwrap();
        let range = RangeTranslator::new(rtt, 1, TranslationCosts::default());
        assert_eq!(booked(&range, 0x1_0000, 1024, 100), 5);
        assert_eq!(booked(&range, 0x1_0000, 1024, 2), 2, "max binds");
        assert_eq!(booked(&range, 0x1_1000, 0x1000, 100), 2, "after a straddle");
        assert_eq!(
            booked(&range, 0x1_0000, 0x1000, 100),
            0,
            "ragged to the end"
        );
        let mut pages = PageTable::new(4096);
        pages
            .map_range(VirtAddr(0x1_0000), PhysAddr(0x8_0000), 0x8000, Perm::RW)
            .unwrap();
        let page = PageTranslator::new(pages, 4, TranslationCosts::default());
        assert_eq!(booked(&page, 0x1_0000, 1024, 100), 3);
        assert_eq!(booked(&page, 0x1_0c00, 0x800, 100), 1, "from the last page");
        assert_eq!(booked(&page, 0x1_0000, 3000, 100), 0);
    }
}
