//! Page-based translation: the conventional fixed-size-page design the
//! paper argues is a poor fit for NPU DMA bursts (§4.2), evaluated as the
//! "IOTLB-4" and "IOTLB-32" baselines of Figure 14.
//!
//! A DMA chunk access walks every page it touches; each page lookup either
//! hits the small LRU IOTLB or pays a full page-table walk, and a miss
//! stalls the whole DMA queue behind it.
//!
//! The *modelled* hardware pays per page; the model itself does not. The
//! table keeps one run per mapped range, not one node per page, and the
//! IOTLB scans its entries once per lookup, so building, walking and
//! dropping a translator costs the host what the mapping's shape costs,
//! not what its size does. A DMA stream's bursts on the page it just
//! filled are booked as one run of hits, and a stream through fresh
//! pages as one run of misses: every page still walks and evicts in the
//! model's statistics and LRU state, but the host writes the final TLB
//! once, however many pages went by.

use crate::translate::{
    bursts_within, last_byte, Translate, TranslateStats, Translation, TranslationCosts,
};
use crate::{MemError, Perm, PhysAddr, Result, VirtAddr};

/// One mapped run: `pages` consecutive virtual pages from `vpn0` backed
/// by consecutive physical pages from `pfn0`, all with `perm`.
#[derive(Debug, Clone, Copy)]
struct Run {
    vpn0: u64,
    pfn0: u64,
    pages: u64,
    perm: Perm,
}

/// A flat (single-level) page table with fixed-size pages, held as the
/// runs it was mapped in: a vector of disjoint `(vpn0, pfn0, pages,
/// perm)` runs sorted by `vpn0`. Mapping a range is one insert and a
/// lookup one binary search, whatever the range's size — the hypervisor
/// maps whole buddy blocks, so a table is a handful of runs.
///
/// The walk latency of a real multi-level table is modelled by
/// [`TranslationCosts::page_walk`] rather than by structural levels.
#[derive(Debug, Clone)]
pub struct PageTable {
    page_size: u64,
    runs: Vec<Run>,
}

impl PageTable {
    /// Creates an empty page table with the given page size (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(page_size: u64) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        PageTable {
            page_size,
            runs: Vec::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Maps the virtual range `[va, va + len)` to consecutive physical
    /// pages starting at `pa`. Both addresses must be page-aligned; `len`
    /// is rounded up to whole pages.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidRange`] if either address is unaligned,
    /// `len` is zero, or the range overlaps an existing mapping.
    pub fn map_range(&mut self, va: VirtAddr, pa: PhysAddr, len: u64, perm: Perm) -> Result<()> {
        if va.value() % self.page_size != 0 || pa.value() % self.page_size != 0 || len == 0 {
            return Err(MemError::InvalidRange { va });
        }
        let vpn0 = va.value() / self.page_size;
        let pages = len.div_ceil(self.page_size);
        // Only one-byte pages can push a run past the last page number.
        let Some(end) = vpn0.checked_add(pages) else {
            return Err(MemError::InvalidRange { va });
        };
        let at = self.runs.partition_point(|r| r.vpn0 < vpn0);
        let clear_below = at == 0 || {
            let below = &self.runs[at - 1];
            below.vpn0 + below.pages <= vpn0
        };
        let clear_above = self.runs.get(at).is_none_or(|above| end <= above.vpn0);
        if !(clear_below && clear_above) {
            return Err(MemError::InvalidRange { va });
        }
        let run = Run {
            vpn0,
            pfn0: pa.value() / self.page_size,
            pages,
            perm,
        };
        self.runs.insert(at, run);
        Ok(())
    }

    /// The run mapping virtual page `vpn`, if any.
    fn run_of(&self, vpn: u64) -> Option<&Run> {
        let at = self.runs.partition_point(|r| r.vpn0 <= vpn);
        self.runs[..at]
            .last()
            .filter(|run| vpn - run.vpn0 < run.pages)
    }

    /// The frame and permissions of virtual page `vpn`, if mapped.
    fn lookup_vpn(&self, vpn: u64) -> Option<(u64, Perm)> {
        self.run_of(vpn)
            .map(|run| (run.pfn0 + (vpn - run.vpn0), run.perm))
    }
}

/// A small fully-associative LRU TLB over page translations (the IOTLB of
/// Figure 14; each entry caches one page).
#[derive(Debug, Clone)]
struct PageTlb {
    capacity: usize,
    /// (vpn, pfn, perm, last-use tick), linear scan — capacities are 4–32.
    /// Ticks are unique, so the least-recently-used entry is too.
    entries: Vec<(u64, u64, Perm, u64)>,
    /// Slot of the most recently used entry: a DMA stream's bursts stay
    /// on one page for many lookups, so it is tried before the scan.
    mru: usize,
    tick: u64,
}

impl PageTlb {
    /// Creates a TLB with the given number of entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        PageTlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            mru: 0,
            tick: 0,
        }
    }

    /// Looks up a virtual page number; refreshes LRU state on hit.
    fn lookup(&mut self, vpn: u64) -> Option<(u64, Perm)> {
        self.tick += 1;
        let slot = match self.entries.get(self.mru) {
            Some(e) if e.0 == vpn => self.mru,
            _ => self.entries.iter().position(|e| e.0 == vpn)?,
        };
        self.mru = slot;
        let e = &mut self.entries[slot];
        e.3 = self.tick;
        Some((e.1, e.2))
    }

    /// Installs a `vpn` known to be absent — the lookup that just missed
    /// it — replacing the LRU victim where it sits when full.
    fn fill(&mut self, vpn: u64, pfn: u64, perm: Perm) {
        self.tick += 1;
        let entry = (vpn, pfn, perm, self.tick);
        if self.entries.len() < self.capacity {
            self.mru = self.entries.len();
            self.entries.push(entry);
            return;
        }
        let (slot, victim) = self
            .entries
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, e)| e.3)
            .expect("capacity is positive, so a full TLB has entries");
        *victim = entry;
        self.mru = slot;
    }

    /// Books `k` lookups of `vpn` if it is the most recently used entry:
    /// an MRU hit moves nothing but the entry's tick, so `k` of them are
    /// the last one's tick.
    fn hit_mru(&mut self, vpn: u64, k: u64) -> bool {
        let Some(e) = self.entries.get_mut(self.mru).filter(|e| e.0 == vpn) else {
            return false;
        };
        self.tick += k;
        e.3 = self.tick;
        true
    }

    /// Books `m` rounds of a page stream: round `j` looks `vpn0 + j` up
    /// (after an MRU hit, if the stream `straddle`s into it from the page
    /// before), misses, fills it with frame `pfn0 + j`, and hits it
    /// `hits` more times. None of the `m` pages may be resident.
    ///
    /// Victims follow in age order: the old entries by tick, then the
    /// pushed slots, cyclically. So the `x`-th slot of that order ends up
    /// holding the last round `j < m` with `j ≡ x (mod capacity)`, and
    /// the booking costs O(capacity) — O(capacity²) when earlier hits
    /// left the ticks out of slot order — whatever `m` is.
    fn fill_stream(&mut self, vpn0: u64, pfn0: u64, perm: Perm, m: u64, hits: u64, straddle: bool) {
        let t0 = self.tick;
        let per_round = hits + 2 + u64::from(straddle);
        if straddle {
            // Still the newest of the old entries: the MRU has the top tick.
            self.entries[self.mru].3 = t0 + 1;
        }
        let (old, cap) = (self.entries.len(), self.capacity as u64);
        let pushes = self.capacity - old;
        // Old slots by age. A stream of fills leaves the ticks rising
        // along the slots from the oldest, cyclically, so the next oldest
        // is the next slot. Otherwise it is the least tick not yet
        // replaced, one scan each.
        let (mut descents, mut oldest) = (0, 0);
        for (i, pair) in self.entries.windows(2).enumerate() {
            if pair[0].3 > pair[1].3 {
                (descents, oldest) = (descents + 1, i + 1);
            }
        }
        let rotated =
            descents == 0 || (descents == 1 && self.entries[old - 1].3 < self.entries[0].3);
        // Round `j` lands on position `j mod cap` of the victim order; the
        // last round on position `wrap`.
        let (top, wrap) = ((m - 1) / cap * cap, (m - 1) % cap);
        let mut slot = oldest;
        for x in 0..m.min(cap) {
            let at = x as usize;
            slot = if at < pushes {
                old + at
            } else if !rotated {
                // Replaced entries carry ticks past `t0 + 1`.
                (0..old)
                    .filter(|&i| self.entries[i].3 <= t0 + 1)
                    .min_by_key(|&i| self.entries[i].3)
                    .expect("an old entry is left for every old slot")
            } else if at == pushes {
                oldest
            } else if slot + 1 == old {
                0
            } else {
                slot + 1
            };
            let j = if x <= wrap { top + x } else { top + x - cap };
            // Round `j` ends on its last hit; the next round's opening
            // hits it once more when the stream straddles.
            let last_use = t0 + (j + 1) * per_round + u64::from(straddle && j + 1 < m);
            let entry = (vpn0 + j, pfn0 + j, perm, last_use);
            if slot == self.entries.len() {
                self.entries.push(entry);
            } else {
                self.entries[slot] = entry;
            }
            if x == wrap {
                self.mru = slot;
            }
        }
        self.tick = t0 + m * per_round;
    }
}

/// Page-table translation with an IOTLB and a walk cost model.
#[derive(Debug, Clone)]
pub struct PageTranslator {
    table: PageTable,
    tlb: PageTlb,
    costs: TranslationCosts,
    stats: TranslateStats,
}

impl PageTranslator {
    /// Wraps a populated page table with a TLB of `tlb_entries` entries.
    pub fn new(table: PageTable, tlb_entries: usize, costs: TranslationCosts) -> Self {
        PageTranslator {
            table,
            tlb: PageTlb::new(tlb_entries),
            costs,
            stats: TranslateStats::default(),
        }
    }
}

impl Translate for PageTranslator {
    fn translate(&mut self, va: VirtAddr, len: u64, perm: Perm) -> Result<Translation> {
        if len == 0 {
            return Err(MemError::RangeOverrun { va, len });
        }
        let ps = self.table.page_size();
        let first_vpn = va.value() / ps;
        let last_vpn = last_byte(va, len)? / ps;
        let mut cycles = 0u64;
        let mut all_hit = true;
        let mut first_pa = None;
        for vpn in first_vpn..=last_vpn {
            self.stats.lookups += 1;
            let (pfn, p) = match self.tlb.lookup(vpn) {
                Some(hit) => {
                    self.stats.hits += 1;
                    cycles += self.costs.tlb_hit;
                    hit
                }
                None => {
                    self.stats.misses += 1;
                    self.stats.probe_reads += 1;
                    all_hit = false;
                    cycles += self.costs.page_walk;
                    let (pfn, p) =
                        self.table
                            .lookup_vpn(vpn)
                            .ok_or(MemError::TranslationFault {
                                va: VirtAddr(vpn * ps),
                            })?;
                    self.tlb.fill(vpn, pfn, p);
                    (pfn, p)
                }
            };
            if !p.contains(perm) {
                return Err(MemError::PermissionDenied {
                    va,
                    needed: perm,
                    granted: p,
                });
            }
            if vpn == first_vpn {
                first_pa = Some(PhysAddr(pfn * ps + va.value() % ps));
            }
        }
        self.stats.cycles += cycles;
        Ok(Translation {
            pa: first_pa.expect("at least one page walked"),
            cycles,
            hit: all_hit,
        })
    }

    /// The entry is the most recently used page: a successful
    /// `translate` leaves the last page it walked there.
    fn translate_run(&mut self, va: VirtAddr, len: u64, max: u64) -> (u64, u64) {
        let Ok(last) = last_byte(va, len) else {
            return (0, 0);
        };
        let ps = self.table.page_size();
        let first = last & !(ps - 1); // a power of two
        let vpn = first >> ps.trailing_zeros();
        let k = bursts_within(va, len, first..=first + (ps - 1), max);
        if k == 0 || !self.tlb.hit_mru(vpn, k) {
            return (0, 0);
        }
        self.stats.lookups += k;
        self.stats.hits += k;
        self.stats.cycles += k * self.costs.tlb_hit;
        (k, self.costs.tlb_hit)
    }

    /// A period is one page of the stream: its opening burst either
    /// starts the page and walks, or straddles into it from the MRU page
    /// (one hit plus one walk), and the rest hit the page it filled.
    /// Booking stops at the end of the table run, and before the first
    /// page already resident at or ahead of the stream.
    fn translate_miss_run(
        &mut self,
        va: VirtAddr,
        len: u64,
        period: u64,
        cycles: u64,
        perm: Perm,
        max: u64,
    ) -> u64 {
        let ps = self.table.page_size();
        let (hit, walk) = (self.costs.tlb_hit, self.costs.page_walk);
        let offset = va.value() % ps;
        let straddle = offset != 0;
        let opening = if straddle { hit + walk } else { walk };
        if period.checked_mul(len) != Some(ps)
            || cycles != opening
            || (straddle && offset + len <= ps)
        {
            return 0;
        }
        let (tlb, vpn) = (&self.tlb, va.value() / ps);
        let mru = tlb.entries.get(tlb.mru);
        if straddle && !mru.is_some_and(|e| e.0 == vpn && e.2.contains(perm)) {
            return 0;
        }
        let vpn0 = vpn + u64::from(straddle);
        let Some(run) = self.table.run_of(vpn0).filter(|r| r.perm.contains(perm)) else {
            return 0;
        };
        let ahead = tlb.entries.iter().map(|e| e.0).filter(|&v| v >= vpn0).min();
        let m = max
            .min(run.vpn0 + run.pages - vpn0)
            .min(ahead.unwrap_or(u64::MAX) - vpn0);
        if m == 0 {
            return 0;
        }
        let (pfn0, run_perm) = (run.pfn0 + (vpn0 - run.vpn0), run.perm);
        self.tlb
            .fill_stream(vpn0, pfn0, run_perm, m, period - 1, straddle);
        let lookups = period + u64::from(straddle);
        self.stats.lookups += m * lookups;
        self.stats.hits += m * (lookups - 1);
        self.stats.misses += m;
        self.stats.probe_reads += m;
        self.stats.cycles += m * (cycles + (period - 1) * hit);
        m
    }

    fn name(&self) -> String {
        format!("iotlb-{}", self.tlb.capacity)
    }

    fn stats(&self) -> TranslateStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = TranslateStats::default();
    }
}

/// What the tests read of a page table: translation itself reads it page
/// by page through `lookup_vpn`.
#[cfg(test)]
impl PageTable {
    /// Number of mapped pages.
    fn len(&self) -> usize {
        self.runs.iter().map(|r| r.pages).sum::<u64>() as usize
    }

    /// Looks up the page containing `va`.
    fn lookup(&self, va: VirtAddr) -> Option<(PhysAddr, Perm)> {
        let (pfn, perm) = self.lookup_vpn(va.value() / self.page_size)?;
        let off = va.value() % self.page_size;
        Some((PhysAddr(pfn * self.page_size + off), perm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proptest_lite::{check, range, vec_of};
    use std::cell::Cell;

    fn table_64k() -> PageTable {
        let mut t = PageTable::new(4096);
        t.map_range(VirtAddr(0x1_0000), PhysAddr(0x80_0000), 64 * 1024, Perm::RW)
            .unwrap();
        t
    }

    #[test]
    fn lookup_translates_offset() {
        let t = table_64k();
        let (pa, perm) = t.lookup(VirtAddr(0x1_2345)).unwrap();
        assert_eq!(pa, PhysAddr(0x80_2345));
        assert!(perm.contains(Perm::RW));
        assert!(t.lookup(VirtAddr(0x9_0000)).is_none());
    }

    #[test]
    fn overlap_rejected() {
        let mut t = table_64k();
        assert!(matches!(
            t.map_range(VirtAddr(0x1_4000), PhysAddr(0), 4096, Perm::R),
            Err(MemError::InvalidRange { .. })
        ));
    }

    #[test]
    fn unaligned_rejected() {
        let mut t = PageTable::new(4096);
        assert!(t
            .map_range(VirtAddr(0x123), PhysAddr(0), 4096, Perm::R)
            .is_err());
        assert!(t
            .map_range(VirtAddr(0x1000), PhysAddr(0x10), 4096, Perm::R)
            .is_err());
        assert!(t
            .map_range(VirtAddr(0x1000), PhysAddr(0x1000), 0, Perm::R)
            .is_err());
    }

    #[test]
    fn tlb_lru_eviction() {
        let mut tlb = PageTlb::new(2);
        tlb.fill(1, 101, Perm::R);
        tlb.fill(2, 102, Perm::R);
        assert!(tlb.lookup(1).is_some()); // 1 now MRU
        assert!(tlb.lookup(3).is_none());
        tlb.fill(3, 103, Perm::R); // evicts 2
        assert!(tlb.lookup(2).is_none());
        assert!(tlb.lookup(1).is_some());
        assert!(tlb.lookup(3).is_some());
    }

    #[test]
    fn translator_hit_miss_accounting() {
        let mut tr = PageTranslator::new(table_64k(), 4, TranslationCosts::default());
        // First touch: miss + walk.
        let t1 = tr.translate(VirtAddr(0x1_0000), 64, Perm::R).unwrap();
        assert!(!t1.hit);
        assert_eq!(t1.cycles, TranslationCosts::default().page_walk);
        // Same page again: hit.
        let t2 = tr.translate(VirtAddr(0x1_0040), 64, Perm::R).unwrap();
        assert!(t2.hit);
        assert_eq!(t2.cycles, TranslationCosts::default().tlb_hit);
        let s = tr.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn cross_page_access_walks_both() {
        let mut tr = PageTranslator::new(table_64k(), 4, TranslationCosts::default());
        let t = tr
            .translate(VirtAddr(0x1_0000 + 4096 - 32), 64, Perm::R)
            .unwrap();
        assert!(!t.hit);
        assert_eq!(tr.stats().lookups, 2);
        assert_eq!(t.pa, PhysAddr(0x80_0000 + 4096 - 32));
    }

    #[test]
    fn burst_of_chunks_thrashes_small_tlb() {
        // 32 pages streamed with a 4-entry TLB: every page is a miss on the
        // first iteration AND on every subsequent iteration (capacity
        // misses) — this is the Figure 14 effect.
        let mut t = PageTable::new(4096);
        t.map_range(VirtAddr(0), PhysAddr(0x100_0000), 32 * 4096, Perm::R)
            .unwrap();
        let mut tr = PageTranslator::new(t, 4, TranslationCosts::default());
        for _iter in 0..3 {
            for page in 0..32u64 {
                tr.translate(VirtAddr(page * 4096), 2048, Perm::R).unwrap();
            }
        }
        let s = tr.stats();
        assert_eq!(s.lookups, 96);
        assert_eq!(
            s.misses, 96,
            "streaming working set must thrash a 4-entry TLB"
        );
    }

    #[test]
    fn permission_enforced() {
        let mut t = PageTable::new(4096);
        t.map_range(VirtAddr(0), PhysAddr(0), 4096, Perm::R)
            .unwrap();
        let mut tr = PageTranslator::new(t, 4, TranslationCosts::default());
        assert!(matches!(
            tr.translate(VirtAddr(0), 64, Perm::W),
            Err(MemError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn fault_on_unmapped() {
        let mut tr = PageTranslator::new(PageTable::new(4096), 4, TranslationCosts::default());
        assert!(matches!(
            tr.translate(VirtAddr(0x5000), 8, Perm::R),
            Err(MemError::TranslationFault { .. })
        ));
    }

    #[test]
    fn name_reflects_capacity() {
        let tr = PageTranslator::new(PageTable::new(4096), 32, TranslationCosts::default());
        assert_eq!(tr.name(), "iotlb-32");
    }

    #[test]
    fn access_off_the_end_of_the_address_space_is_an_overrun() {
        // `va + len - 1` wraps: an error, not an empty page walk.
        let mut tr = PageTranslator::new(table_64k(), 4, TranslationCosts::default());
        let va = VirtAddr(u64::MAX - 10);
        assert_eq!(
            tr.translate(va, 64, Perm::R),
            Err(MemError::RangeOverrun { va, len: 64 })
        );
        // The last byte of the address space is still an ordinary fault.
        assert!(matches!(
            tr.translate(va, 11, Perm::R),
            Err(MemError::TranslationFault { .. })
        ));
    }

    #[test]
    fn runs_keep_their_own_frames_and_permissions() {
        let mut t = PageTable::new(4096);
        t.map_range(VirtAddr(0x4000), PhysAddr(0x10_0000), 0x2000, Perm::R)
            .unwrap();
        t.map_range(VirtAddr(0x1000), PhysAddr(0x90_0000), 0x1001, Perm::RW)
            .unwrap();
        // Adjacent below and above: no overlap.
        t.map_range(
            VirtAddr(0x3000),
            PhysAddr(0x20_0000),
            0x1000,
            Perm::R | Perm::X,
        )
        .unwrap();
        assert_eq!(t.len(), 2 + 2 + 1, "a partial page counts whole");
        assert_eq!(
            t.lookup(VirtAddr(0x2fff)),
            Some((PhysAddr(0x90_1fff), Perm::RW))
        );
        assert_eq!(
            t.lookup(VirtAddr(0x3000)),
            Some((PhysAddr(0x20_0000), Perm::R | Perm::X))
        );
        assert_eq!(
            t.lookup(VirtAddr(0x5abc)),
            Some((PhysAddr(0x10_1abc), Perm::R))
        );
        assert_eq!(t.lookup(VirtAddr(0x6000)), None);
        assert_eq!(t.lookup(VirtAddr(0xfff)), None);
        // A range swallowing existing runs, or reaching into one, overlaps.
        for (va, len) in [(0u64, 0x10_000u64), (0x2000, 0x1000), (0x5000, 0x3000)] {
            assert_eq!(
                t.map_range(VirtAddr(va), PhysAddr(0), len, Perm::R),
                Err(MemError::InvalidRange { va: VirtAddr(va) })
            );
        }
        assert_eq!(t.len(), 5, "a rejected range maps nothing");
    }

    const PS: u64 = 4096;
    const BASE: u64 = 0x10_0000;

    /// 128 pages from `BASE`: read-only from page 80, read-write again
    /// from page 88, so the window holds two run ends.
    fn window(capacity: usize) -> PageTranslator {
        let mut t = PageTable::new(PS);
        for (first, pages, perm) in [(0, 80, Perm::RW), (80, 8, Perm::R), (88, 40, Perm::RW)] {
            let (va, pa) = (BASE + first * PS, 0x80_0000 + (127 - first) * PS);
            t.map_range(VirtAddr(va), PhysAddr(pa), pages * PS, perm)
                .unwrap();
        }
        PageTranslator::new(t, capacity, TranslationCosts::default())
    }

    /// Translates the two periods of `len`-byte bursts before `va` on
    /// `tr`, then books up to `max` miss periods from `va` with the last
    /// opening's cycles on one copy and translates the booked bursts one
    /// by one on another. Each must repeat the burst one period before
    /// it, and the copies must end identical; a refusal must leave `tr`
    /// untouched. Returns the periods booked, or `None` on a fault.
    fn book(tr: &mut PageTranslator, va: u64, len: u64, perm: Perm, max: u64) -> Option<u64> {
        let period = PS / len;
        let before: Vec<_> = (0..2 * period)
            .map(|i| tr.translate(VirtAddr(va - 2 * PS + i * len), len, perm))
            .collect::<Result<Vec<_>>>()
            .ok()?
            .split_off(period as usize);
        let (untouched, mut each) = (format!("{tr:?}"), tr.clone());
        let m = tr.translate_miss_run(VirtAddr(va), len, period, before[0].cycles, perm, max);
        if m == 0 {
            assert_eq!(
                format!("{tr:?}"),
                untouched,
                "a refusal moved the translator"
            );
        }
        assert!(m <= max);
        for i in 0..m * period {
            let got = each.translate(VirtAddr(va + i * len), len, perm).unwrap();
            let want = before[(i % period) as usize];
            assert_eq!((got.hit, got.cycles), (want.hit, want.cycles), "burst {i}");
        }
        assert_eq!(format!("{tr:?}"), format!("{each:?}"));
        Some(m)
    }

    #[test]
    fn miss_runs_match_translating_every_burst() {
        const CAPACITIES: [usize; 3] = [1, 4, 32];
        const BURSTS: [u64; 4] = [512, 1024, 2048, 4096];
        // Per capacity: bookings opening at a page start and straddling,
        // bookings of at least the capacity, and bookings into a full TLB.
        let tally = Cell::new([[0u32; 4]; 3]);
        let refused = Cell::new(0u32);
        let stream = (
            range(0usize..3),
            range(0usize..4),
            range(3u64..128),
            range(0u64..64),
        );
        // (max, perm, warm-up behind the stream only), warm-up pages.
        let limits = (range(1u64..80), range(0usize..2), range(0usize..2));
        check(
            "miss_runs_match_translating_every_burst",
            512,
            (stream, limits, vec_of(range(0u64..128), 0..150)),
            |((cap, burst, page, shift), (max, write, behind), warm)| {
                let (capacity, len) = (CAPACITIES[*cap], BURSTS[*burst]);
                let mut tr = window(capacity);
                for &p in warm {
                    let p = if *behind == 1 { p % page } else { p };
                    tr.translate(VirtAddr(BASE + p * PS), 1, Perm::R).unwrap();
                }
                let full = tr.tlb.entries.len() == capacity;
                // Open at the page start, or straddle into it from the
                // page before by a multiple of 64 bytes.
                let straddle = *shift >= 32;
                let into = if straddle {
                    64 * (1 + shift % (len / 64 - 1))
                } else {
                    0
                };
                let va = BASE + page * PS - into;
                let perm = [Perm::R, Perm::W][*write];
                let Some(m) = book(&mut tr, va, len, perm, *max) else {
                    return Ok(());
                };
                let mut counts = tally.get();
                let row = &mut counts[*cap];
                if m > 0 {
                    row[usize::from(straddle)] += 1;
                    row[2] += u32::from(m >= capacity as u64);
                    row[3] += u32::from(full);
                } else {
                    refused.set(refused.get() + 1);
                }
                tally.set(counts);
                Ok(())
            },
        );
        let tally = tally.get();
        assert!(
            tally.iter().flatten().all(|&n| n > 0) && refused.get() > 0,
            "per capacity [aligned, straddling, m >= capacity, from full]: {tally:?}; \
             {refused:?} refused"
        );
    }

    #[test]
    fn miss_run_refusals_leave_the_translator_untouched() {
        let costs = TranslationCosts::default();
        let (walk, straddle) = (costs.page_walk, costs.tlb_hit + costs.page_walk);
        let mut tr = window(4);
        // Periods of two 2 KiB bursts on pages 1 and 2, then pages 3–5
        // booked; a hit on page 2 leaves page 5 resident but not MRU.
        assert_eq!(book(&mut tr, BASE + 3 * PS, 2048, Perm::R, 3), Some(3));
        assert!(
            tr.translate(VirtAddr(BASE + 2 * PS), 1, Perm::R)
                .unwrap()
                .hit
        );
        let untouched = format!("{tr:?}");
        let mut refuse = |va: u64, len: u64, period: u64, cycles: u64, perm: Perm| {
            let m = tr.translate_miss_run(VirtAddr(va), len, period, cycles, perm, 100);
            assert_eq!((m, format!("{tr:?}")), (0, untouched.clone()), "{va:#x}");
        };
        let next = BASE + 6 * PS;
        refuse(next, 2048, 2, 2 * walk, Perm::R); // a period that paid two walks
        refuse(next - 1024, 2048, 2, 2 * walk, Perm::R);
        refuse(next, 1024, 2, walk, Perm::R); // period·len is not the page
        refuse(next - 1024, 2048, 2, straddle, Perm::R); // from a page that is not MRU
        refuse(BASE + 80 * PS, 2048, 2, walk, Perm::W); // a write into a read-only run
        refuse(BASE + 128 * PS, 2048, 2, walk, Perm::R); // past the last run's end
                                                         // A run end stops a booking where it is.
        let mut tr = window(4);
        assert_eq!(book(&mut tr, BASE + 78 * PS, 2048, Perm::W, 100), Some(2));
        let mut tr = window(32);
        assert_eq!(book(&mut tr, BASE + 82 * PS, 1024, Perm::R, 100), Some(6));
    }
}

#[cfg(test)]
mod reference {
    //! The structures [`PageTable`] and [`PageTlb`] replaced, kept
    //! verbatim as differential oracles: a `BTreeMap` with one node per
    //! page, and an LRU that scans every entry on lookup, searches again
    //! on insert and evicts by `swap_remove`. The campaigns hold the runs
    //! table to the same `Ok`/`Err`, `len()` and lookups, and the TLB to
    //! the same hit/miss sequence and the same resident set (so the same
    //! victim) after every access.

    use super::*;
    use crate::prop_assert_eq;
    use crate::proptest_lite::{check, range, vec_of};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    struct MapTable {
        page_size: u64,
        map: BTreeMap<u64, (u64, Perm)>, // vpn -> (pfn, perm)
    }

    impl MapTable {
        fn map_range(&mut self, va: VirtAddr, pa: PhysAddr, len: u64, perm: Perm) -> Result<()> {
            if va.value() % self.page_size != 0 || pa.value() % self.page_size != 0 || len == 0 {
                return Err(MemError::InvalidRange { va });
            }
            let pages = len.div_ceil(self.page_size);
            let vpn0 = va.value() / self.page_size;
            let pfn0 = pa.value() / self.page_size;
            for i in 0..pages {
                if self.map.contains_key(&(vpn0 + i)) {
                    return Err(MemError::InvalidRange { va });
                }
            }
            for i in 0..pages {
                self.map.insert(vpn0 + i, (pfn0 + i, perm));
            }
            Ok(())
        }

        fn lookup(&self, va: VirtAddr) -> Option<(PhysAddr, Perm)> {
            let vpn = va.value() / self.page_size;
            self.map.get(&vpn).map(|&(pfn, perm)| {
                let off = va.value() % self.page_size;
                (PhysAddr(pfn * self.page_size + off), perm)
            })
        }
    }

    struct ScanTlb {
        capacity: usize,
        entries: Vec<(u64, u64, Perm, u64)>,
        tick: u64,
    }

    impl ScanTlb {
        fn lookup(&mut self, vpn: u64) -> Option<(u64, Perm)> {
            self.tick += 1;
            let tick = self.tick;
            for e in &mut self.entries {
                if e.0 == vpn {
                    e.3 = tick;
                    return Some((e.1, e.2));
                }
            }
            None
        }

        fn insert(&mut self, vpn: u64, pfn: u64, perm: Perm) {
            self.tick += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
                *e = (vpn, pfn, perm, self.tick);
                return;
            }
            if self.entries.len() == self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.3)
                    .map(|(i, _)| i)
                    .expect("TLB non-empty when full");
                self.entries.swap_remove(lru);
            }
            self.entries.push((vpn, pfn, perm, self.tick));
        }
    }

    /// The resident `vpn`s of either TLB, sorted.
    fn resident(entries: &[(u64, u64, Perm, u64)]) -> Vec<u64> {
        let mut vpns: Vec<u64> = entries.iter().map(|e| e.0).collect();
        vpns.sort_unstable();
        vpns
    }

    #[test]
    fn runs_table_matches_the_btreemap_reference() {
        const PS: u64 = 4096;
        let perms = [Perm::R, Perm::RW, Perm::R | Perm::X, Perm::default()];
        // (va in quarter pages, pa in quarter pages, len in quarter
        // pages, perm): three addresses in four are unaligned unless
        // snapped, lengths include zero and partial pages, and a 24-page
        // window makes adjacent and overlapping ranges the common case.
        let (accepted, rejected) = (Cell::new(0u32), Cell::new(0u32));
        let op = (
            range(0u64..96),
            range(0u64..4096),
            range(0u64..40),
            range(0usize..8),
        );
        check(
            "runs_table_matches_the_btreemap_reference",
            512,
            vec_of(op, 1..24),
            |ops| {
                let mut runs = PageTable::new(PS);
                let mut map = MapTable {
                    page_size: PS,
                    map: BTreeMap::new(),
                };
                for &(va, pa, len, choice) in ops {
                    // Half the draws are snapped to page boundaries, so
                    // the aligned paths are reached as often as the
                    // rejected ones.
                    let snap = |q: u64| if choice < 4 { q / 4 * 4 } else { q };
                    let (va, pa) = (VirtAddr(snap(va) * PS / 4), PhysAddr(snap(pa) * PS / 4));
                    let (len, perm) = (len * PS / 4, perms[choice % 4]);
                    let (got, want) = (
                        runs.map_range(va, pa, len, perm),
                        map.map_range(va, pa, len, perm),
                    );
                    prop_assert_eq!(got, want, "map_range({va}, {pa}, {len:#x})");
                    let outcome = if got.is_ok() { &accepted } else { &rejected };
                    outcome.set(outcome.get() + 1);
                    prop_assert_eq!(runs.len(), map.map.len());
                }
                for probe in 0..(36 * 4) {
                    let va = VirtAddr(probe * PS / 4 + probe % 7);
                    prop_assert_eq!(runs.lookup(va), map.lookup(va), "lookup({va})");
                }
                Ok(())
            },
        );
        assert!(
            accepted.get() > 0 && rejected.get() > 0,
            "both outcomes exercised: {accepted:?} accepted, {rejected:?} rejected"
        );
    }

    #[test]
    fn tlb_matches_the_scan_everything_lru() {
        // The translator's use of a TLB: look up, and on a miss install.
        // A small `vpn` alphabet revisits pages; runs of one page are
        // what the MRU slot serves.
        for capacity in [1usize, 4, 32] {
            let (hits, evictions) = (Cell::new(0u32), Cell::new(0u32));
            check(
                "tlb_matches_the_scan_everything_lru",
                256,
                vec_of((range(0u64..48), range(1usize..6)), 1..160),
                |stream| {
                    let mut tlb = PageTlb::new(capacity);
                    let mut scan = ScanTlb {
                        capacity,
                        entries: Vec::new(),
                        tick: 0,
                    };
                    for &(vpn, repeats) in stream {
                        for _ in 0..repeats {
                            let (got, want) = (tlb.lookup(vpn), scan.lookup(vpn));
                            prop_assert_eq!(got, want, "lookup({vpn})");
                            if got.is_none() {
                                let full = scan.entries.len() == capacity;
                                evictions.set(evictions.get() + u32::from(full));
                                tlb.fill(vpn, vpn + 1000, Perm::RW);
                                scan.insert(vpn, vpn + 1000, Perm::RW);
                            } else {
                                hits.set(hits.get() + 1);
                            }
                            prop_assert_eq!(
                                resident(&tlb.entries),
                                resident(&scan.entries),
                                "after {vpn}"
                            );
                        }
                    }
                    Ok(())
                },
            );
            assert!(
                hits.get() > 0 && evictions.get() > 0,
                "capacity {capacity}: {hits:?} hits, {evictions:?} evictions"
            );
        }
    }
}
