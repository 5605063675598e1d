//! **Figure 3** (motivation) — overall FLOPS utilization of ML workloads
//! on a large NPU, across batch sizes.
//!
//! Paper result: most traditional models use <50% of the chip's FLOPS,
//! and even batch 32 does not close the gap — the imbalance that
//! motivates NPU virtualization.

use crate::render_table;
use vnpu_sim::isa::Kernel;
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::graph::{Layer, ModelGraph};
use vnpu_workloads::models;

/// Scales a model's batch dimension: matmul `m` and vector lengths grow
/// with the batch (convolutions repeat per image, leaving utilization
/// unchanged, so they keep their shapes).
fn with_batch(model: &ModelGraph, batch: u32) -> ModelGraph {
    let layers: Vec<Layer> = model
        .layers()
        .iter()
        .map(|l| {
            let kernel = match l.kernel {
                Kernel::Matmul { m, k, n } => Kernel::Matmul { m: m * batch, k, n },
                Kernel::Vector { elems } => Kernel::Vector {
                    elems: elems * u64::from(batch),
                },
                conv => conv,
            };
            Layer {
                kernel,
                out_bytes: l.out_bytes * u64::from(batch),
                ..l.clone()
            }
        })
        .collect();
    ModelGraph::new(format!("{}@b{batch}", model.name()), layers).expect("valid graph")
}

fn utilization(cfg: &SocConfig, model: &ModelGraph, iterations: u32) -> f64 {
    let cores = cfg.core_count();
    let opts = CompileOptions {
        iterations,
        ..Default::default()
    };
    let out = compile(model, cores, cfg, &opts).expect("compile");
    let mut machine = Machine::new(cfg.clone());
    let tenant = machine.add_tenant(model.name());
    for (c, p) in out.programs.iter().enumerate() {
        machine
            .bind(c as u32, tenant, c as u32, p.clone())
            .expect("bind");
    }
    machine.run().expect("run").tenant_utilization(tenant)
}

/// Runs the Figure 3 sweep.
pub fn run() -> String {
    let cfg = SocConfig::sim();
    let zoo = [
        models::bert_base(),
        models::dlrm(),
        models::efficientnet_b0(),
        models::alexnet(),
        models::resnet50(),
        models::retinanet_approx(),
        models::resnet_rs_approx(),
    ];
    let mut rows = Vec::new();
    let mut below_half = 0usize;
    let mut count = 0usize;
    for model in &zoo {
        let mut row = vec![model.name().to_owned()];
        for batch in [1, 8, 32] {
            let u = utilization(&cfg, &with_batch(model, batch), 3);
            assert!((0.0..=1.0).contains(&u), "utilization must be a fraction");
            count += 1;
            if u < 0.5 {
                below_half += 1;
            }
            row.push(format!("{:.1}%", 100.0 * u));
        }
        rows.push(row);
    }
    let mut out = render_table(
        "Figure 3: FLOPS utilization on the 36-core / 576-TOPS NPU",
        &["model", "batch 1", "batch 8", "batch 32"],
        &rows,
    );
    out += &format!(
        "\n{below_half}/{count} (model, batch) points sit below 50% utilization \
         (paper: 'the majority of traditional ML models utilize less than 50%').\n"
    );
    assert!(
        below_half * 2 > count,
        "most points must underutilize the big chip"
    );
    out
}
