//! The Range Translation Table — the paper's **vChunk** mechanism (§4.2,
//! Figure 7).
//!
//! Instead of fixed-size pages, each entry maps a whole variable-size range
//! (a tensor / buddy block): `VA(48) | PA(48) | Size(32) | Perm(4) |
//! Last_V(8)` — 144 bits per hardware range-TLB entry, the figure the
//! paper's Figure 14 caption quotes.
//!
//! Lookup exploits the NPU access patterns:
//!
//! * **Pattern-1** (tensor-granularity transfers) — one entry per tensor,
//!   so a whole DMA burst needs one translation;
//! * **Pattern-2** (monotonically increasing addresses within an
//!   iteration) — entries are sorted by VA and scans start at `RTT_CUR`,
//!   the index of the entry in current use;
//! * **Pattern-3** (iterations repeat the same address sequence) — each
//!   entry's `last_v` field remembers the index of the *next* entry
//!   accessed after it last time, so steady-state misses cost a single
//!   probe even across the iteration wrap-around.

use crate::translate::{
    bursts_within, last_byte, Translate, TranslateStats, Translation, TranslationCosts,
};
use crate::{MemError, Perm, PhysAddr, Result, VirtAddr};
use std::sync::Arc;

/// Bits of state per hardware range-TLB entry (VA 48 + PA 48 + size 32 +
/// perm 4 + last_v 8 + valid 4), matching the paper's "144 bits for each".
pub const RANGE_TLB_ENTRY_BITS: u32 = 144;

/// Controller cycles to write one RTT entry into a core's meta-zone (the
/// Figure 11 configuration-path cost per range).
pub const RTT_ENTRY_WRITE_CYCLES: u64 = 22;

/// Controller cycles to deploy (or re-deploy, after a live migration or a
/// memory compaction) a table of `entries` RTT entries. Every entry is a
/// meta-zone write; re-deployment costs the same as the initial deploy
/// because the hyper-mode controller rewrites the whole table.
pub fn rtt_deploy_cycles(entries: usize) -> u64 {
    entries as u64 * RTT_ENTRY_WRITE_CYCLES
}

/// One entry of the range translation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RttEntry {
    /// Guest-virtual start of the range.
    pub va: VirtAddr,
    /// Physical start of the range.
    pub pa: PhysAddr,
    /// Range length in bytes (the paper's 32-bit `Size`).
    pub size: u64,
    /// Access permissions.
    pub perm: Perm,
    /// Index of the entry that followed this one in the previous iteration
    /// (`None` = "not recorded").
    pub last_v: Option<u16>,
}

impl RttEntry {
    /// Creates an entry with an unset `last_v` hint.
    pub fn new(va: VirtAddr, pa: PhysAddr, size: u64, perm: Perm) -> Self {
        RttEntry {
            va,
            pa,
            size,
            perm,
            last_v: None,
        }
    }

    /// Offset of `va` into the range, if it falls inside.
    #[inline]
    fn offset_of(&self, va: VirtAddr) -> Option<u64> {
        let off = va.value().checked_sub(self.va.value())?;
        (off < self.size).then_some(off)
    }

    /// Whether `va` falls inside this range.
    #[inline]
    pub fn contains(&self, va: VirtAddr) -> bool {
        self.offset_of(va).is_some()
    }

    /// Translates an address inside the range (no bounds check).
    #[inline]
    fn translate(&self, va: VirtAddr) -> PhysAddr {
        self.pa.offset(va - self.va)
    }

    /// Whether an access of `len` bytes at `va` stays inside the range.
    #[inline]
    pub fn covers(&self, va: VirtAddr, len: u64) -> bool {
        self.offset_of(va).is_some_and(|off| len <= self.size - off)
    }
}

/// The in-SRAM (meta-zone) table of sorted ranges, owned per NPU core and
/// written only by the hyper-mode controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTranslationTable {
    entries: Vec<RttEntry>,
}

impl RangeTranslationTable {
    /// Builds a table from entries, sorting by virtual address (the
    /// hypervisor's job per §5.2) and validating them.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidRange`] for zero-sized or overlapping
    /// ranges, for a range that runs off the end of the address space,
    /// and if more than `u16::MAX` entries are supplied (the paper's
    /// `last_v` is 8-bit; we allow 16 for larger simulations).
    pub fn new(mut entries: Vec<RttEntry>) -> Result<Self> {
        entries.sort_by_key(|e| e.va);
        if entries.len() > u16::MAX as usize {
            return Err(MemError::InvalidRange {
                va: entries[u16::MAX as usize].va,
            });
        }
        for e in &entries {
            if e.size == 0 || e.va.value().checked_add(e.size).is_none() {
                return Err(MemError::InvalidRange { va: e.va });
            }
        }
        for w in entries.windows(2) {
            if w[0].va.value() + w[0].size > w[1].va.value() {
                return Err(MemError::InvalidRange { va: w[1].va });
            }
        }
        Ok(RangeTranslationTable { entries })
    }

    /// Number of entries (`RTT_END − RTT_BASE`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The per-core translation engine: a small range TLB over the RTT plus the
/// `RTT_CUR` pointer and `last_v` maintenance, with a cycle cost model.
///
/// The table may be shared: the cores of one virtual NPU are all deployed
/// the same table, so their translators hold one `Arc` of it. A core's
/// `last_v` hints are its own, though — the first hint it learns copies
/// the table for that translator alone, so every translator starts from
/// the table as deployed, whatever its siblings have learned.
#[derive(Debug, Clone)]
pub struct RangeTranslator {
    rtt: Arc<RangeTranslationTable>,
    /// Resident entry indices with LRU ticks.
    resident: Vec<(usize, u64)>,
    tlb_capacity: usize,
    rtt_cur: usize,
    tick: u64,
    costs: TranslationCosts,
    stats: TranslateStats,
}

impl RangeTranslator {
    /// Wraps a table — owned, or an `Arc` shared with other translators —
    /// with a hardware range TLB of `tlb_entries` entries.
    ///
    /// # Panics
    ///
    /// Panics if `tlb_entries == 0`.
    pub fn new(
        rtt: impl Into<Arc<RangeTranslationTable>>,
        tlb_entries: usize,
        costs: TranslationCosts,
    ) -> Self {
        assert!(tlb_entries > 0, "range TLB needs at least one entry");
        RangeTranslator {
            rtt: rtt.into(),
            resident: Vec::with_capacity(tlb_entries),
            tlb_capacity: tlb_entries,
            rtt_cur: 0,
            tick: 0,
            costs,
            stats: TranslateStats::default(),
        }
    }

    fn tlb_lookup(&mut self, va: VirtAddr) -> Option<usize> {
        self.tick += 1;
        let tick = self.tick;
        for slot in &mut self.resident {
            if self.rtt.entries[slot.0].contains(va) {
                slot.1 = tick;
                return Some(slot.0);
            }
        }
        None
    }

    fn tlb_insert(&mut self, idx: usize) {
        self.tick += 1;
        if let Some(slot) = self.resident.iter_mut().find(|s| s.0 == idx) {
            slot.1 = self.tick;
            return;
        }
        if self.resident.len() == self.tlb_capacity {
            let lru = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.1)
                .map(|(i, _)| i)
                .expect("TLB full implies non-empty");
            self.resident.swap_remove(lru);
        }
        self.resident.push((idx, self.tick));
    }

    /// The miss path of Figure 7: try the `last_v` hint of the current
    /// entry, then scan forward from `RTT_CUR` with wrap-around. Returns
    /// `(entry index, probe reads)`.
    fn miss_walk(&mut self, va: VirtAddr) -> Result<(usize, u64)> {
        let n = self.rtt.len();
        if n == 0 {
            return Err(MemError::TranslationFault { va });
        }
        let mut probes = 0u64;
        // 1. last_v hint of the current entry.
        if let Some(hint) = self.rtt.entries[self.rtt_cur].last_v {
            probes += 1;
            let h = hint as usize;
            if h < n && self.rtt.entries[h].contains(va) {
                return Ok((h, probes));
            }
            // "not recorded or incorrect" → fall through to the scan.
        }
        // 2. Sequential scan from RTT_CUR, wrapping END → BASE.
        for step in 0..n {
            let idx = (self.rtt_cur + step) % n;
            probes += 1;
            if self.rtt.entries[idx].contains(va) {
                return Ok((idx, probes));
            }
        }
        Err(MemError::TranslationFault { va })
    }
}

impl Translate for RangeTranslator {
    fn translate(&mut self, va: VirtAddr, len: u64, perm: Perm) -> Result<Translation> {
        last_byte(va, len)?;
        self.stats.lookups += 1;
        let (idx, cycles, hit) = if let Some(idx) = self.tlb_lookup(va) {
            self.stats.hits += 1;
            self.stats.cycles += self.costs.tlb_hit;
            (idx, self.costs.tlb_hit, true)
        } else {
            // Miss path.
            self.stats.misses += 1;
            let (idx, probes) = self.miss_walk(va)?;
            self.stats.probe_reads += probes;
            let cycles = probes * self.costs.rtt_probe + self.costs.rtt_refill;
            self.stats.cycles += cycles;
            // Pattern-3 bookkeeping: remember where we went from the old
            // entry.
            let old = self.rtt_cur;
            if old != idx && self.rtt.entries[old].last_v != Some(idx as u16) {
                Arc::make_mut(&mut self.rtt).entries[old].last_v = Some(idx as u16);
            }
            self.tlb_insert(idx);
            (idx, cycles, false)
        };
        self.rtt_cur = idx; // Pattern-2: track the stream position
        let e = self.rtt.entries[idx];
        if !e.perm.contains(perm) {
            return Err(MemError::PermissionDenied {
                va,
                needed: perm,
                granted: e.perm,
            });
        }
        if e.covers(va, len) {
            return Ok(Translation {
                pa: e.translate(va),
                cycles,
                hit,
            });
        }
        // The access straddles the range end. If the next range is
        // VA-contiguous (adjacent buddy blocks of one guest window), the
        // DMA engine splits the burst: translate the remainder too and
        // charge both lookups. Otherwise the access genuinely overruns.
        let covered = e.size - (va - e.va);
        if covered == 0 || covered >= len {
            return Err(MemError::RangeOverrun { va, len });
        }
        let rest = self
            .translate(va.offset(covered), len - covered, perm)
            .map_err(|err| match err {
                MemError::TranslationFault { .. } => MemError::RangeOverrun { va, len },
                other => other,
            })?;
        Ok(Translation {
            pa: e.translate(va),
            cycles: cycles + rest.cycles,
            hit: hit && rest.hit,
        })
    }

    /// The entry is the range at `RTT_CUR`: a successful `translate`
    /// leaves it there and resident, ranges are disjoint, so it is the
    /// only resident entry a lookup inside it can hit.
    fn translate_run(&mut self, va: VirtAddr, len: u64, max: u64) -> (u64, u64) {
        let cur = self.rtt_cur;
        let Some(e) = self.rtt.entries.get(cur) else {
            return (0, 0);
        };
        let k = bursts_within(va, len, e.va.value()..=e.va.value() + (e.size - 1), max);
        let Some(slot) = self.resident.iter_mut().find(|s| k > 0 && s.0 == cur) else {
            return (0, 0);
        };
        self.tick += k;
        slot.1 = self.tick;
        self.stats.lookups += k;
        self.stats.hits += k;
        self.stats.cycles += k * self.costs.tlb_hit;
        (k, self.costs.tlb_hit)
    }

    fn name(&self) -> String {
        format!("vchunk-{}", self.tlb_capacity)
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

    /// Figure 7's example layout: two layers for vNPU1, one for vNPU2.
    fn figure7_table() -> RangeTranslationTable {
        RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x10000), PhysAddr(0x20000), 0x10000, Perm::RW),
            RttEntry::new(VirtAddr(0x20000), PhysAddr(0x50000), 0x10000, Perm::R),
            RttEntry::new(
                VirtAddr(0x60000),
                PhysAddr(0x60000),
                0x400,
                Perm::R | Perm::X,
            ),
        ])
        .unwrap()
    }

    #[test]
    fn table_sorted_and_searchable() {
        let t = figure7_table();
        assert_eq!(t.len(), 3);
        assert!(t.entries.windows(2).all(|w| w[0].va < w[1].va));
        let find = |va| t.entries.iter().position(|e| e.contains(VirtAddr(va)));
        assert_eq!(find(0x10000), Some(0));
        assert_eq!(find(0x1ffff), Some(0));
        assert_eq!(find(0x20000), Some(1));
        assert_eq!(find(0x60400), None); // just past the 0x400 range
        assert_eq!(find(0x5000), None);
    }

    #[test]
    fn overlapping_ranges_rejected() {
        let r = RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x1000), PhysAddr(0), 0x2000, Perm::R),
            RttEntry::new(VirtAddr(0x2000), PhysAddr(0), 0x1000, Perm::R),
        ]);
        assert!(matches!(r, Err(MemError::InvalidRange { .. })));
    }

    #[test]
    fn zero_size_rejected() {
        let r = RangeTranslationTable::new(vec![RttEntry::new(
            VirtAddr(0x1000),
            PhysAddr(0),
            0,
            Perm::R,
        )]);
        assert!(r.is_err());
    }

    #[test]
    fn translation_offsets_correct() {
        let mut tr = RangeTranslator::new(figure7_table(), 4, TranslationCosts::default());
        let t = tr.translate(VirtAddr(0x20040), 64, Perm::R).unwrap();
        assert_eq!(t.pa, PhysAddr(0x50040));
    }

    #[test]
    fn whole_tensor_burst_is_one_miss() {
        // Pattern-1: a 64 KiB tensor streamed as 2 KiB chunks costs exactly
        // one miss, then hits.
        let mut tr = RangeTranslator::new(figure7_table(), 4, TranslationCosts::default());
        for chunk in 0..32u64 {
            tr.translate(VirtAddr(0x10000 + chunk * 2048), 2048, Perm::R)
                .unwrap();
        }
        let s = tr.stats();
        assert_eq!(s.lookups, 32);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 31);
    }

    #[test]
    fn monotonic_stream_scan_is_short() {
        // Pattern-2: entries sorted by VA; moving to the next tensor scans
        // from RTT_CUR so it finds the neighbor in ≤2 probes.
        let entries: Vec<RttEntry> = (0..16u64)
            .map(|i| {
                RttEntry::new(
                    VirtAddr(i * 0x10000),
                    PhysAddr(i * 0x10000),
                    0x10000,
                    Perm::R,
                )
            })
            .collect();
        let rtt = RangeTranslationTable::new(entries).unwrap();
        let mut tr = RangeTranslator::new(rtt, 2, TranslationCosts::default());
        for i in 0..16u64 {
            tr.translate(VirtAddr(i * 0x10000), 2048, Perm::R).unwrap();
        }
        let s = tr.stats();
        assert_eq!(s.misses, 16);
        // First miss probes once (cur=0 contains va); later misses probe cur
        // (no) then cur+1 (yes) = 2 probes each.
        assert_eq!(s.probe_reads, 1 + 15 * 2);
    }

    #[test]
    fn last_v_accelerates_second_iteration() {
        // Pattern-3: the second iteration's misses hit the last_v hint: one
        // probe each, including the wrap-around back to entry 0.
        let entries: Vec<RttEntry> = (0..8u64)
            .map(|i| {
                RttEntry::new(
                    VirtAddr(i * 0x10000),
                    PhysAddr(i * 0x10000),
                    0x10000,
                    Perm::R,
                )
            })
            .collect();
        let rtt = RangeTranslationTable::new(entries).unwrap();
        // TLB of 1 entry: every range transition is a miss.
        let mut tr = RangeTranslator::new(rtt, 1, TranslationCosts::default());
        // Iterations 1 and 2 train the last_v chain (the wrap-around hint is
        // only learned when iteration 2 wraps back to entry 0).
        for _ in 0..2 {
            for i in 0..8u64 {
                tr.translate(VirtAddr(i * 0x10000), 2048, Perm::R).unwrap();
            }
        }
        tr.reset_stats();
        // Steady state: iteration 3.
        for i in 0..8u64 {
            tr.translate(VirtAddr(i * 0x10000), 2048, Perm::R).unwrap();
        }
        let s = tr.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(
            s.probe_reads, 8,
            "every steady-state miss must resolve via a single last_v probe"
        );
    }

    #[test]
    fn wraparound_uses_last_v() {
        let entries: Vec<RttEntry> = (0..4u64)
            .map(|i| RttEntry::new(VirtAddr(i * 0x1000), PhysAddr(i * 0x1000), 0x1000, Perm::R))
            .collect();
        let rtt = RangeTranslationTable::new(entries).unwrap();
        let mut tr = RangeTranslator::new(rtt, 1, TranslationCosts::default());
        // One full iteration.
        for i in 0..4u64 {
            tr.translate(VirtAddr(i * 0x1000), 64, Perm::R).unwrap();
        }
        // The wrap access sets last_v of entry 3 to 0.
        tr.translate(VirtAddr(0), 64, Perm::R).unwrap();
        assert_eq!(tr.rtt.entries[3].last_v, Some(0));
        assert_eq!(tr.rtt_cur, 0);
    }

    #[test]
    fn incorrect_last_v_falls_back_to_scan() {
        let entries: Vec<RttEntry> = (0..4u64)
            .map(|i| {
                RttEntry::new(
                    VirtAddr(i * 0x1000),
                    PhysAddr(0x100000 + i * 0x1000),
                    0x1000,
                    Perm::R,
                )
            })
            .collect();
        let mut rtt = RangeTranslationTable::new(entries).unwrap();
        // Poison entry 0's hint to point at the wrong entry.
        rtt.entries[0].last_v = Some(3);
        let mut tr = RangeTranslator::new(rtt, 1, TranslationCosts::default());
        // First access: bad hint probe (1) + scan finds cur=0 (1) = 2 probes.
        tr.translate(VirtAddr(0), 64, Perm::R).unwrap();
        assert_eq!(tr.stats().probe_reads, 2);
        // Second access: bad hint probe (1) + scan cur=0 (1) + entry 1 (1) = 3.
        let t = tr.translate(VirtAddr(0x1000), 64, Perm::R).unwrap();
        assert!(!t.hit);
        assert_eq!(tr.stats().probe_reads, 2 + 3);
        // Hint must now be corrected.
        assert_eq!(tr.rtt.entries[0].last_v, Some(1));
    }

    #[test]
    fn translators_sharing_a_table_keep_their_hints_apart() {
        // Two cores of one vNPU are deployed the same table. What one
        // learns (`last_v`) must not warm the other: a freshly bound
        // translator starts cold.
        let entries: Vec<RttEntry> = (0..4u64)
            .map(|i| RttEntry::new(VirtAddr(i * 0x1000), PhysAddr(i * 0x1000), 0x1000, Perm::R))
            .collect();
        let shared = Arc::new(RangeTranslationTable::new(entries).unwrap());
        let walk = |tr: &mut RangeTranslator| {
            for i in [0u64, 1, 2, 3, 0] {
                tr.translate(VirtAddr(i * 0x1000), 64, Perm::R).unwrap();
            }
            tr.stats()
        };
        let mut first = RangeTranslator::new(Arc::clone(&shared), 1, TranslationCosts::default());
        let trained = walk(&mut first);
        assert_eq!(first.rtt.entries[3].last_v, Some(0));
        assert!(
            shared.entries.iter().all(|e| e.last_v.is_none()),
            "the deployed table is never written through a translator"
        );
        let mut second = RangeTranslator::new(Arc::clone(&shared), 1, TranslationCosts::default());
        assert_eq!(walk(&mut second), trained, "a sibling starts as cold");
        let mut alone = RangeTranslator::new(
            RangeTranslationTable::clone(&shared),
            1,
            TranslationCosts::default(),
        );
        assert_eq!(walk(&mut alone), trained, "sharing changes no cost");
    }

    #[test]
    fn fault_outside_all_ranges() {
        let mut tr = RangeTranslator::new(figure7_table(), 4, TranslationCosts::default());
        assert!(matches!(
            tr.translate(VirtAddr(0x9999_0000), 8, Perm::R),
            Err(MemError::TranslationFault { .. })
        ));
    }

    #[test]
    fn permission_denied() {
        let mut tr = RangeTranslator::new(figure7_table(), 4, TranslationCosts::default());
        assert!(matches!(
            tr.translate(VirtAddr(0x20000), 8, Perm::W),
            Err(MemError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn overrun_detected() {
        let mut tr = RangeTranslator::new(figure7_table(), 4, TranslationCosts::default());
        // 0x400-byte executable range; a 0x800-byte read overruns it.
        assert!(matches!(
            tr.translate(VirtAddr(0x60000), 0x800, Perm::R),
            Err(MemError::RangeOverrun { .. })
        ));
    }

    #[test]
    fn range_tlb_cheaper_than_page_tlb_on_streaming() {
        // Head-to-head: stream 32 x 64KiB tensors, 2KiB chunks, 4-entry TLBs.
        use crate::page::{PageTable, PageTranslator};
        let mut pt = PageTable::new(4096);
        pt.map_range(VirtAddr(0), PhysAddr(0), 32 * 0x10000, Perm::R)
            .unwrap();
        let mut page = PageTranslator::new(pt, 4, TranslationCosts::default());

        let entries: Vec<RttEntry> = (0..32u64)
            .map(|i| {
                RttEntry::new(
                    VirtAddr(i * 0x10000),
                    PhysAddr(i * 0x10000),
                    0x10000,
                    Perm::R,
                )
            })
            .collect();
        let mut range = RangeTranslator::new(
            RangeTranslationTable::new(entries).unwrap(),
            4,
            TranslationCosts::default(),
        );

        for iter in 0..2 {
            let _ = iter;
            for chunk in 0..(32 * 32u64) {
                let va = VirtAddr(chunk * 2048);
                page.translate(va, 2048, Perm::R).unwrap();
                range.translate(va, 2048, Perm::R).unwrap();
            }
        }
        assert!(
            range.stats().cycles * 10 < page.stats().cycles,
            "vChunk ({}) must be >10x cheaper than page walks ({}) on streams",
            range.stats().cycles,
            page.stats().cycles
        );
    }

    #[test]
    fn empty_table_faults() {
        let rtt = RangeTranslationTable::new(Vec::new()).unwrap();
        let mut tr = RangeTranslator::new(rtt, 1, TranslationCosts::default());
        assert!(tr.translate(VirtAddr(0), 1, Perm::R).is_err());
    }

    #[test]
    fn straddle_across_contiguous_ranges_splits_the_burst() {
        // Two VA-contiguous buddy blocks with discontiguous PAs: a chunk
        // crossing the seam translates as two lookups (both charged).
        let rtt = RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x1000), PhysAddr(0x10_0000), 0x1000, Perm::RW),
            RttEntry::new(VirtAddr(0x2000), PhysAddr(0x90_0000), 0x1000, Perm::RW),
        ])
        .unwrap();
        let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
        let t = tr
            .translate(VirtAddr(0x2000 - 0x100), 0x200, Perm::R)
            .unwrap();
        assert_eq!(t.pa, PhysAddr(0x10_0000 + 0x1000 - 0x100));
        assert_eq!(tr.stats().lookups, 2, "the split burst costs two lookups");
    }

    #[test]
    fn straddle_off_the_end_still_faults() {
        let rtt = RangeTranslationTable::new(vec![RttEntry::new(
            VirtAddr(0x1000),
            PhysAddr(0),
            0x1000,
            Perm::RW,
        )])
        .unwrap();
        let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
        assert!(matches!(
            tr.translate(VirtAddr(0x1f00), 0x200, Perm::R),
            Err(MemError::RangeOverrun { .. })
        ));
    }

    #[test]
    fn straddle_into_gap_faults() {
        // VA-discontiguous ranges: the seam is a hole, not a split point.
        let rtt = RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x1000), PhysAddr(0), 0x1000, Perm::RW),
            RttEntry::new(VirtAddr(0x4000), PhysAddr(0x1000), 0x1000, Perm::RW),
        ])
        .unwrap();
        let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
        assert!(tr.translate(VirtAddr(0x1f80), 0x100, Perm::R).is_err());
    }

    #[test]
    fn straddle_respects_permissions_of_both_ranges() {
        let rtt = RangeTranslationTable::new(vec![
            RttEntry::new(VirtAddr(0x1000), PhysAddr(0), 0x1000, Perm::RW),
            RttEntry::new(VirtAddr(0x2000), PhysAddr(0x1000), 0x1000, Perm::R),
        ])
        .unwrap();
        let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
        // Reading across the seam is fine; writing is not (second range is RO).
        assert!(tr.translate(VirtAddr(0x1f00), 0x200, Perm::R).is_ok());
        assert!(matches!(
            tr.translate(VirtAddr(0x1f00), 0x200, Perm::W),
            Err(MemError::PermissionDenied { .. })
        ));
    }

    #[test]
    fn access_off_the_end_of_the_address_space_is_an_overrun() {
        // A range reaching the last representable byte: `va + len` wraps
        // for every access near its end.
        let top = VirtAddr(u64::MAX - 0xfff);
        let rtt = RangeTranslationTable::new(vec![RttEntry::new(top, PhysAddr(0), 0xfff, Perm::R)])
            .unwrap();
        let e = rtt.entries[0];
        let va = VirtAddr(u64::MAX - 10);
        assert!(e.contains(va) && e.covers(va, 10) && !e.covers(va, 64));
        assert!(!e.covers(va, u64::MAX));
        let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
        assert_eq!(
            tr.translate(va, 64, Perm::R),
            Err(MemError::RangeOverrun { va, len: 64 })
        );
        assert_eq!(tr.stats().lookups, 0, "rejected before the TLB");
        assert!(tr.translate(va, 10, Perm::R).is_ok());
        // A table entry may not run off the address space either.
        assert!(matches!(
            RangeTranslationTable::new(vec![RttEntry::new(top, PhysAddr(0), 0x1000, Perm::R)]),
            Err(MemError::InvalidRange { .. })
        ));
    }
}
