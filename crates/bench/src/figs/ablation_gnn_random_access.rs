//! **Ablation (§7)** — "For graph workloads such as GNNs, which require
//! large graph datasets and involve random information retrieval, our
//! range-translation design may not be ideal. For these types of
//! workloads, employing traditional page-level translation is
//! recommended."
//!
//! A synthetic GNN gather stream (uniform random feature fetches over a
//! large graph) is replayed against both translators. The range TLB's
//! sequential-scan miss path degenerates on random addresses, while a
//! page TLB pays one bounded walk per miss — reproducing the paper's own
//! caveat.

use crate::render_table;
use vnpu::vchunk::{build_translator, MemMode};
use vnpu_mem::proptest_lite::Rng;
use vnpu_mem::rtt::RttEntry;
use vnpu_mem::{Perm, PhysAddr, TranslationCosts, VirtAddr};

/// Replays random and sequential gather streams against both
/// translators.
pub fn run() -> String {
    let accesses: u64 = 20_000;
    // 64 ranges of 1 MiB each: a 64 MiB feature store.
    let entries: Vec<RttEntry> = (0..64u64)
        .map(|i| {
            RttEntry::new(
                VirtAddr(0x1000_0000 + i * (1 << 20)),
                PhysAddr(0x8000_0000 + i * (1 << 20)),
                1 << 20,
                Perm::R,
            )
        })
        .collect();
    let costs = TranslationCosts::default();
    let mut range = build_translator(&entries, MemMode::Range { tlb_entries: 4 }, costs).unwrap();
    let mut page = build_translator(&entries, MemMode::Page { tlb_entries: 32 }, costs).unwrap();

    // GNN gather: random 256-byte feature reads.
    let mut rng = Rng::new(0x5eed_0000_1234);
    let span = 64u64 * (1 << 20) - 256;
    for _ in 0..accesses {
        let off = rng.below(span);
        let va = VirtAddr(0x1000_0000 + off);
        range.translate(va, 256, Perm::R).unwrap();
        page.translate(va, 256, Perm::R).unwrap();
    }

    let rs = range.stats();
    let ps = page.stats();
    let mut out = render_table(
        "Ablation (§7): random GNN gathers — range vs page translation",
        &[
            "mechanism",
            "lookups",
            "miss rate",
            "probe reads",
            "stall cycles",
        ],
        &[
            vec![
                range.name(),
                rs.lookups.to_string(),
                format!("{:.0}%", 100.0 * rs.misses as f64 / rs.lookups as f64),
                rs.probe_reads.to_string(),
                rs.cycles.to_string(),
            ],
            vec![
                page.name(),
                ps.lookups.to_string(),
                format!("{:.0}%", 100.0 * ps.misses as f64 / ps.lookups as f64),
                ps.probe_reads.to_string(),
                ps.cycles.to_string(),
            ],
        ],
    );
    out += &format!(
        "\nOn random accesses the range walker scans ~half the table per miss \
         ({:.1} probes/miss), so page translation wins — exactly the §7 caveat; \
         the hypervisor should provision GNN tenants with page-mode services \
         (`MemMode::Page`).\n",
        rs.probe_reads as f64 / rs.misses.max(1) as f64
    );
    assert!(
        rs.cycles > ps.cycles,
        "random access must favor page translation ({} vs {})",
        rs.cycles,
        ps.cycles
    );
    // And the converse sanity: sequential streams favor ranges.
    range.reset_stats();
    page.reset_stats();
    for i in 0..accesses {
        let va = VirtAddr(0x1000_0000 + (i * 2048) % span);
        range.translate(va, 256, Perm::R).unwrap();
        page.translate(va, 256, Perm::R).unwrap();
    }
    assert!(
        range.stats().cycles < page.stats().cycles,
        "sequential streams must still favor ranges"
    );
    out += &format!(
        "(sequential check: range {} cycles vs page {} — vChunk keeps its streaming win)\n",
        range.stats().cycles,
        page.stats().cycles
    );
    out
}
