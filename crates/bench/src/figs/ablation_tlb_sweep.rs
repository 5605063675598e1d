//! **Ablation** (§4.2) — translation-hardware sizing sweep: range-TLB and
//! IOTLB entry counts vs. translation stall cycles on a streamed ResNet.
//!
//! The range TLB saturates at a handful of entries (one per live tensor),
//! while the page IOTLB keeps paying compulsory misses regardless of size
//! — the structural argument for vChunk.

use crate::{bind_design, render_table, Design};
use vnpu::vchunk::MemMode;
use vnpu::vrouter::RoutePolicy;
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CompileOptions, Residency};
use vnpu_workloads::models;

fn stall_cycles(cfg: &SocConfig, mode: MemMode, iterations: u32) -> (u64, f64) {
    let model = models::resnet18();
    let opts = CompileOptions {
        iterations,
        residency: Residency::Streamed,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 8, cfg, &opts).expect("compile");
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(4, 2).mem_bytes(64 << 20))
        .expect("vNPU");
    let tenant = bind_design(
        &mut machine,
        &hv,
        vm,
        &out.programs,
        Design::VnpuWith(mode, RoutePolicy::Dor),
        "sweep",
    );
    let report = machine.run().expect("run");
    (report.translation_cycles(), report.fps(tenant))
}

/// Sweeps TLB sizes for both translation modes.
pub fn run() -> String {
    let iterations = 3;
    let cfg = SocConfig::fpga();
    let mut rows = Vec::new();
    let mut range_stalls = Vec::new();
    let mut page_stalls = Vec::new();
    for entries in [1, 2, 4, 8, 16, 32] {
        let (rc, rf) = stall_cycles(
            &cfg,
            MemMode::Range {
                tlb_entries: entries,
            },
            iterations,
        );
        let (pc, pf) = stall_cycles(
            &cfg,
            MemMode::Page {
                tlb_entries: entries,
            },
            iterations,
        );
        range_stalls.push((entries, rc));
        page_stalls.push((entries, pc));
        rows.push(vec![
            entries.to_string(),
            rc.to_string(),
            format!("{rf:.1}"),
            pc.to_string(),
            format!("{pf:.1}"),
        ]);
    }
    let mut out = render_table(
        "Ablation: TLB-size sweep (streamed ResNet-18, FPGA config)",
        &[
            "entries",
            "range stalls",
            "range fps",
            "page stalls",
            "page fps",
        ],
        &rows,
    );
    out += "\nRange translation needs only a couple of entries; page translation's compulsory \
            misses persist at any size (streaming working sets exceed any IOTLB reach).\n";
    let stalls_at = |v: &[(usize, u64)], entries: usize| {
        v.iter()
            .find(|(e, _)| *e == entries)
            .map(|(_, s)| *s)
            .unwrap()
    };
    // Range TLB at the vChunk operating point (4 entries) must beat the
    // best page TLB by 10x+.
    assert!(
        stalls_at(&range_stalls, 4) * 10 < stalls_at(&page_stalls, 32),
        "range ({}) must be far below page ({})",
        stalls_at(&range_stalls, 4),
        stalls_at(&page_stalls, 32)
    );
    // Page stalls barely improve with size (compulsory misses).
    let improvement = stalls_at(&page_stalls, 1) as f64 / stalls_at(&page_stalls, 32).max(1) as f64;
    assert!(
        improvement < 2.0,
        "page-TLB scaling cannot fix streaming misses ({improvement:.2}x)"
    );
    out
}
