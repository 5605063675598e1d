//! vChunk service construction: per-core translators over the hypervisor's
//! memory plan, plus bandwidth limiting (§4.2).
//!
//! The hypervisor allocates whole buddy blocks and maps each directly into
//! one RTT entry (§5.2); this module turns that entry list into the
//! translation hardware each bound core carries: a [`RangeTranslator`]
//! (vChunk proper), a [`PageTranslator`] (the IOTLB baseline of Figure
//! 14), or a [`PhysicalTranslator`] (the no-translation ideal).

use vnpu_mem::page::{PageTable, PageTranslator};
use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
use vnpu_mem::translate::PhysicalTranslator;
use vnpu_mem::{MemError, Translate, TranslationCosts};

/// Default page size for the page-based baseline.
pub const UVM_PAGE_SIZE: u64 = 4096;

/// Default monitoring window of the access counter, in cycles.
pub const BANDWIDTH_WINDOW_CYCLES: u64 = 10_000;

/// Which memory-virtualization mechanism a core uses — the Figure 14
/// comparison axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMode {
    /// No translation (the "Physical Mem" ideal).
    Physical,
    /// vChunk range translation with the given hardware range-TLB entries.
    Range {
        /// Range-TLB entries (the paper evaluates 4).
        tlb_entries: usize,
    },
    /// Page-based translation with an IOTLB (the paper evaluates 4 and 32).
    Page {
        /// IOTLB entries.
        tlb_entries: usize,
    },
}

impl MemMode {
    /// The paper's default vChunk configuration (4 range-TLB entries).
    pub fn vchunk() -> Self {
        MemMode::Range { tlb_entries: 4 }
    }
}

/// Builds a boxed translator over the virtual NPU's RTT entry list.
///
/// # Errors
///
/// Propagates table-construction errors (overlapping ranges); page tables
/// additionally require entry addresses to be page-aligned (buddy blocks
/// are, by construction).
pub fn build_translator(
    entries: &[RttEntry],
    mode: MemMode,
    costs: TranslationCosts,
) -> Result<Box<dyn Translate + Send>, MemError> {
    match mode {
        MemMode::Physical => Ok(Box::new(PhysicalTranslator::new())),
        MemMode::Range { tlb_entries } => {
            let table = RangeTranslationTable::new(entries.to_vec())?;
            Ok(Box::new(RangeTranslator::new(table, tlb_entries, costs)))
        }
        MemMode::Page { tlb_entries } => {
            let mut table = PageTable::new(UVM_PAGE_SIZE);
            for e in entries {
                table.map_range(e.va, e.pa, e.size, e.perm)?;
            }
            Ok(Box::new(PageTranslator::new(table, tlb_entries, costs)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu_mem::{Perm, PhysAddr, VirtAddr};

    fn entries() -> Vec<RttEntry> {
        vec![
            RttEntry::new(
                VirtAddr(0x1000_0000),
                PhysAddr(0x8000_0000),
                1 << 20,
                Perm::RW,
            ),
            RttEntry::new(
                VirtAddr(0x1010_0000),
                PhysAddr(0x9000_0000),
                1 << 19,
                Perm::RW,
            ),
        ]
    }

    #[test]
    fn all_three_modes_translate_consistently() {
        let e = entries();
        let costs = TranslationCosts::default();
        let mut range = build_translator(&e, MemMode::vchunk(), costs).unwrap();
        let mut page = build_translator(&e, MemMode::Page { tlb_entries: 32 }, costs).unwrap();
        let va = VirtAddr(0x1000_0040);
        let pr = range.translate(va, 64, Perm::R).unwrap();
        let pp = page.translate(va, 64, Perm::R).unwrap();
        assert_eq!(pr.pa, pp.pa);
        assert_eq!(pr.pa, PhysAddr(0x8000_0040));
    }

    #[test]
    fn physical_mode_is_identity() {
        let mut t = build_translator(&[], MemMode::Physical, TranslationCosts::default()).unwrap();
        let r = t.translate(VirtAddr(0x42), 8, Perm::RW).unwrap();
        assert_eq!(r.pa.value(), 0x42);
    }

    #[test]
    fn translator_names_distinguish_modes() {
        let e = entries();
        let costs = TranslationCosts::default();
        assert_eq!(
            build_translator(&e, MemMode::Range { tlb_entries: 4 }, costs)
                .unwrap()
                .name(),
            "vchunk-4"
        );
        assert_eq!(
            build_translator(&e, MemMode::Page { tlb_entries: 32 }, costs)
                .unwrap()
                .name(),
            "iotlb-32"
        );
    }

    #[test]
    fn overlapping_plan_rejected() {
        let bad = vec![
            RttEntry::new(VirtAddr(0x1000), PhysAddr(0), 0x2000, Perm::RW),
            RttEntry::new(VirtAddr(0x2000), PhysAddr(0x10000), 0x1000, Perm::RW),
        ];
        assert!(build_translator(&bad, MemMode::vchunk(), TranslationCosts::default()).is_err());
    }
}
