//! **Figure 14** — normalized performance of ML workloads under different
//! memory-virtualization methods: ideal physical memory, vChunk (ours,
//! 4 range-TLB entries), IOTLB-32 and IOTLB-4 page translation.
//!
//! Paper result: page-based translation costs ~20% with 4 IOTLB entries
//! and ≥9.2% even with 32; vChunk stays within ~4.3% of physical memory,
//! because whole-tensor ranges hit a 4-entry range TLB and the `last_v`
//! chain removes scan costs across iterations.

use crate::{bind_design, render_table, Design};
use vnpu::vchunk::MemMode;
use vnpu::vrouter::RoutePolicy;
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::{Report, SocConfig};
use vnpu_workloads::compile::{compile, CompileOptions, Residency};
use vnpu_workloads::models;
use vnpu_workloads::ModelGraph;

const CORES: u32 = 8;

/// Builds and runs one cell of the figure: `model` compiled for eight
/// cores with streamed weights, on a 4×2 vNPU translating under `mode`.
/// The tenant is tenant 0 of the returned report.
pub fn cell(cfg: &SocConfig, model: &ModelGraph, mode: MemMode, iterations: u32) -> Report {
    let opts = CompileOptions {
        iterations,
        residency: Residency::Streamed, // weights stream from HBM: the §4.2 burst regime
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(model, CORES, cfg, &opts).expect("compile");
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(
            VnpuRequest::mesh(4, 2).mem_bytes((out.va_footprint + (1 << 20)).max(64 << 20)),
        )
        .expect("vNPU");
    bind_design(
        &mut machine,
        &hv,
        vm,
        &out.programs,
        Design::VnpuWith(mode, RoutePolicy::Dor),
        model.name(),
    );
    machine.run().expect("run")
}

/// Compares the four memory modes.
pub fn run() -> String {
    let cfg = SocConfig::fpga();
    let model_zoo = [
        models::alexnet(),
        models::resnet18(),
        models::googlenet(),
        models::mobilenet_v1(),
        models::yolo_lite(),
        models::bert_base(), // the figure's "Transformer"
    ];
    let modes = [
        ("Physical", MemMode::Physical),
        ("Ours(vChunk)", MemMode::Range { tlb_entries: 4 }),
        ("IOTLB32", MemMode::Page { tlb_entries: 32 }),
        ("IOTLB4", MemMode::Page { tlb_entries: 4 }),
    ];
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for model in &model_zoo {
        let fps: Vec<f64> = modes
            .iter()
            .map(|(_, m)| cell(&cfg, model, *m, 4).fps(0))
            .collect();
        let base = fps[0].max(1e-9);
        assert!(
            fps.iter().all(|&f| f > 0.0),
            "every mode must make progress"
        );
        let mut row = vec![model.name().to_owned()];
        for (i, f) in fps.iter().enumerate() {
            let norm = f / base;
            sums[i] += norm;
            row.push(format!("{norm:.3}"));
        }
        rows.push(row);
    }
    let n = model_zoo.len() as f64;
    rows.push(vec![
        "AVERAGE".to_owned(),
        format!("{:.3}", sums[0] / n),
        format!("{:.3}", sums[1] / n),
        format!("{:.3}", sums[2] / n),
        format!("{:.3}", sums[3] / n),
    ]);
    let mut out = render_table(
        "Figure 14: normalized fps under memory-virtualization methods",
        &["model", "Physical", "Ours(vChunk)", "IOTLB32", "IOTLB4"],
        &rows,
    );
    let avg_ours = sums[1] / n;
    let avg_32 = sums[2] / n;
    let avg_4 = sums[3] / n;
    out += &format!(
        "\nAverage overhead: vChunk {:.1}% | IOTLB32 {:.1}% | IOTLB4 {:.1}% \
         (paper: <4.3% | 9.2% | ~20%).\n",
        100.0 * (1.0 - avg_ours),
        100.0 * (1.0 - avg_32),
        100.0 * (1.0 - avg_4)
    );
    assert!(avg_ours > avg_32 && avg_32 >= avg_4, "ordering must hold");
    assert!(
        avg_ours > 0.90,
        "vChunk must stay near physical performance"
    );
    out
}
