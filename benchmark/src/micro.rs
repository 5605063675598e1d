//! Direct calls into the memory layer and the large-request mapper
//! search (traced runs only). They depend on no workload, so every
//! traced run repeats them and reports the same few numbers.

use crate::api::{
    BuddyAllocator, Hypervisor, PageTable, PageTranslator, Perm, PhysAddr, RangeTranslationTable,
    RangeTranslator, RttEntry, SocConfig, Translate, TranslationCosts, VirtAddr, VnpuRequest,
};
use crate::span::Recorder;
use std::hint::black_box;

/// Accesses of the translation stream.
const STREAM_ACCESSES: u64 = 512;
/// Passes over the stream per measurement.
const STREAM_PASSES: u64 = 200;
/// Mapped regions, each one RTT entry.
const REGIONS: u64 = 8;
/// Bytes per region.
const REGION_BYTES: u64 = 16 << 20;
/// Guest base of the mapped window.
const VA_BASE: u64 = 0x1000_0000;
/// Host base of the mapped window.
const PA_BASE: u64 = 0x8000_0000;

/// What the direct calls measured, each in nanoseconds per operation.
#[derive(Debug, Default)]
pub struct Micro {
    /// `RangeTranslator::translate`, per access.
    pub range_translate_ns: f64,
    /// `PageTranslator::translate`, per access.
    pub page_translate_ns: f64,
    /// `BuddyAllocator::alloc` + `free`, per pair.
    pub buddy_alloc_free_ns: f64,
    /// `create_vnpu` of a 24-core request on a 6×6 and of a 36-core
    /// request on an 8×6, each beside a 12-core tenant; mean of the two.
    pub map_large_ns: f64,
}

/// The `i`-th access of the stream: 64 KiB tensor tiles walking each
/// region in turn, the burst pattern of streamed weights.
fn access(i: u64) -> (VirtAddr, u64) {
    let region = i % REGIONS;
    let tile = (i / REGIONS) % (REGION_BYTES / (64 << 10));
    (
        VirtAddr(VA_BASE + region * REGION_BYTES + tile * (64 << 10)),
        64 << 10,
    )
}

/// Nanoseconds per access of `STREAM_PASSES` passes over the stream.
fn stream_ns(
    rec: &mut Recorder,
    name: &'static str,
    translator: &mut dyn Translate,
) -> Result<f64, String> {
    let span = rec.enter(name);
    for _ in 0..STREAM_PASSES {
        for i in 0..STREAM_ACCESSES {
            let (va, len) = access(i);
            let t = translator
                .translate(black_box(va), len, Perm::R)
                .map_err(|e| format!("{name}: {e}"))?;
            black_box(t);
        }
    }
    Ok(rec.exit(span) as f64 / (STREAM_PASSES * STREAM_ACCESSES) as f64)
}

/// Runs the direct calls.
///
/// # Errors
///
/// A failure of a call that must succeed on these fixed inputs.
pub fn run(rec: &mut Recorder) -> Result<Micro, String> {
    rec.next_op();
    let root = rec.enter("micro");
    let mut out = Micro::default();

    let entries = (0..REGIONS)
        .map(|r| {
            RttEntry::new(
                VirtAddr(VA_BASE + r * REGION_BYTES),
                PhysAddr(PA_BASE + r * REGION_BYTES),
                REGION_BYTES,
                Perm::RW,
            )
        })
        .collect();
    let rtt = RangeTranslationTable::new(entries).map_err(|e| format!("RTT: {e}"))?;
    let mut range = RangeTranslator::new(rtt, 4, TranslationCosts::default());
    out.range_translate_ns = stream_ns(rec, "mem.range_translate", &mut range)?;

    let mut table = PageTable::new(4096);
    table
        .map_range(
            VirtAddr(VA_BASE),
            PhysAddr(PA_BASE),
            REGIONS * REGION_BYTES,
            Perm::RW,
        )
        .map_err(|e| format!("page table: {e}"))?;
    let mut page = PageTranslator::new(table, 32, TranslationCosts::default());
    out.page_translate_ns = stream_ns(rec, "mem.page_translate", &mut page)?;

    let mut buddy = BuddyAllocator::new(PhysAddr(PA_BASE), 4 << 30, 1 << 20);
    let sizes = [16u64 << 20, 32 << 20, 64 << 20, 128 << 20];
    let rounds = 2_000u64;
    let span = rec.enter("mem.buddy_alloc_free");
    for _ in 0..rounds {
        let mut held = [PhysAddr(0); 8];
        for (slot, held) in held.iter_mut().enumerate() {
            *held = buddy
                .alloc(sizes[slot % sizes.len()])
                .map_err(|e| format!("buddy alloc: {e}"))?
                .addr;
        }
        for addr in held {
            buddy.free(addr).map_err(|e| format!("buddy free: {e}"))?;
        }
    }
    out.buddy_alloc_free_ns = rec.exit(span) as f64 / (rounds * 8) as f64;

    // The Fig. 16 provisioning: a 12-core tenant first, then the large
    // one into what is left — the search `paper_static` pays in set-up.
    let mut total = 0u64;
    for (soc, cores) in [(SocConfig::sim(), 24), (SocConfig::sim48(), 36)] {
        let mut hv = Hypervisor::new(soc);
        hv.create_vnpu(VnpuRequest::cores(12).mem_bytes(1 << 30))
            .map_err(|e| format!("create_vnpu(cores(12)): {e}"))?;
        let span = rec.enter("topo.map_large");
        let created = hv.create_vnpu(VnpuRequest::cores(cores).mem_bytes(1 << 30));
        total += rec.exit(span);
        created.map_err(|e| format!("create_vnpu(cores({cores})): {e}"))?;
    }
    out.map_large_ns = total as f64 / 2.0;

    rec.exit(root);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_stays_inside_the_mapped_window() {
        for i in 0..STREAM_ACCESSES {
            let (va, len) = access(i);
            assert!(va.0 >= VA_BASE);
            assert!(va.0 + len <= VA_BASE + REGIONS * REGION_BYTES);
            // A tile never straddles two RTT entries.
            assert_eq!(
                (va.0 - VA_BASE) / REGION_BYTES,
                (va.0 + len - 1 - VA_BASE) / REGION_BYTES
            );
        }
    }
}
