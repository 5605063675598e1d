//! **Figure 15** — vNPU vs. UVM-based virtual NPUs, single-instance and
//! multi-instance.
//!
//! Paper result: single-instance, vNPU's virtual-topology routing gives a
//! 2.29× speedup for the Transformer block over UVM (which synchronizes
//! through global memory) but only ~5.4% for the ResNet block (data-flow
//! bubbles); multi-instance, UVM suffers ~24% degradation from global
//! memory contention while vNPU's inter-core connections keep
//! interference negligible.

use crate::{bind_design, render_table, Design};
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::{Report, SocConfig};
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;
use vnpu_workloads::ModelGraph;

const CORES_PER_INSTANCE: u32 = 4;

/// Transformer blocks are tensor/pipeline-parallel across the instance's
/// 4 cores (communication on every boundary). ResNet blocks run
/// data-parallel — one replica per core, each pulling its input frame
/// from global memory every iteration — the deployment under which the
/// paper's ResNet numbers (UVM ≈ vNPU) make sense, since residual blocks
/// have no inter-core traffic then.
fn compile_block(
    model: &ModelGraph,
    cfg: &SocConfig,
    iterations: u32,
) -> Vec<vnpu_sim::isa::Program> {
    if model.name().starts_with("resnet_block") {
        return data_parallel_programs(model, CORES_PER_INSTANCE, iterations);
    }
    let opts = CompileOptions {
        iterations,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    compile(model, CORES_PER_INSTANCE, cfg, &opts)
        .expect("compile")
        .programs
}

/// One full-model replica per core; each iteration DMA-loads the input
/// frame, then runs every layer locally.
fn data_parallel_programs(
    model: &ModelGraph,
    cores: u32,
    iterations: u32,
) -> Vec<vnpu_sim::isa::Program> {
    use vnpu_sim::isa::{Instr, Program};
    let base = vnpu::vnpu::GUEST_VA_BASE;
    let input_bytes = model.layers()[0].out_bytes.max(1024);
    let total_weights: u64 = model.total_weight_bytes();
    (0..cores)
        .map(|c| {
            let mut va = base + u64::from(c) * (total_weights + input_bytes + 0x1_0000);
            let mut prelude = Vec::new();
            for l in model.layers() {
                if l.weight_bytes > 0 {
                    prelude.push(Instr::DmaLoad {
                        va: vnpu_mem::VirtAddr(va),
                        bytes: l.weight_bytes,
                    });
                    va += l.weight_bytes;
                }
            }
            let mut body = vec![Instr::DmaLoad {
                va: vnpu_mem::VirtAddr(va),
                bytes: input_bytes,
            }];
            body.extend(model.layers().iter().map(|l| Instr::Compute(l.kernel)));
            Program::looped(prelude, body, iterations).with_footprint(total_weights)
        })
        .collect()
}

/// Builds and runs one single-instance cell of the figure: `model` on a
/// 2×2 vNPU under `design`. The tenant is tenant 0 of the returned report.
pub fn cell(cfg: &SocConfig, model: &ModelGraph, design: Design, iterations: u32) -> Report {
    let programs = compile_block(model, cfg, iterations);
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .expect("vNPU");
    bind_design(&mut machine, &hv, vm, &programs, design, model.name());
    machine.run().expect("run")
}

/// Single-instance cycles per iteration under one design.
fn single(cfg: &SocConfig, model: &ModelGraph, design: Design, iterations: u32) -> f64 {
    cell(cfg, model, design, iterations).cycles_per_iteration(0)
}

/// Multi-instance: two co-located instances; returns both tenants'
/// cycles/iteration under contention.
fn multi(
    cfg: &SocConfig,
    a: &ModelGraph,
    b: &ModelGraph,
    design: Design,
    iterations: u32,
) -> (f64, f64) {
    let progs_a = compile_block(a, cfg, iterations);
    let progs_b = compile_block(b, cfg, iterations);
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm_a = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .expect("vNPU A");
    let vm_b = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(64 << 20))
        .expect("vNPU B");
    let ta = bind_design(&mut machine, &hv, vm_a, &progs_a, design, a.name());
    let tb = bind_design(&mut machine, &hv, vm_b, &progs_b, design, b.name());
    let report = machine.run().expect("run");
    (
        report.cycles_per_iteration(ta),
        report.cycles_per_iteration(tb),
    )
}

/// Runs both halves of Figure 15.
pub fn run() -> String {
    let cfg = SocConfig::sim();
    let iterations = 8;
    let blocks = [
        models::transformer_block(128, 16),
        models::transformer_block(64, 16),
        models::resnet_block(16, 64),
        models::resnet_block(20, 32),
    ];
    // --- Single instance ---
    let mut rows = Vec::new();
    let mut tf_speedups = Vec::new();
    let mut rn_speedups = Vec::new();
    for model in &blocks {
        let v = single(&cfg, model, Design::Vnpu, iterations);
        let u = single(&cfg, model, Design::Uvm { iotlb: 32 }, iterations);
        assert!(v > 0.0 && u > 0.0, "both designs must make progress");
        let speedup = u / v.max(1.0);
        if model.name().starts_with("transformer") {
            tf_speedups.push(speedup);
        } else {
            rn_speedups.push(speedup);
        }
        rows.push(vec![
            model.name().to_owned(),
            format!("{v:.0}"),
            format!("{u:.0}"),
            format!("{speedup:.2}x"),
        ]);
    }
    let mut out = render_table(
        "Figure 15 (single-instance): clocks per iteration",
        &["workload", "vNPU", "UVM", "vNPU speedup"],
        &rows,
    );

    // --- Multi instance: transformer + resnet concurrently ---
    let tf = &blocks[0];
    let rn = blocks
        .iter()
        .find(|m| m.name().starts_with("resnet_block"))
        .expect("a resnet block");
    let mut rows = Vec::new();
    let mut uvm_degr = 0.0f64;
    let mut vnpu_degr = 0.0f64;
    for (label, design) in [("vNPU", Design::Vnpu), ("UVM", Design::Uvm { iotlb: 32 })] {
        let solo_tf = single(&cfg, tf, design, iterations);
        let solo_rn = single(&cfg, rn, design, iterations);
        let (multi_tf, multi_rn) = multi(&cfg, tf, rn, design, iterations);
        let degr_tf = multi_tf / solo_tf.max(1.0) - 1.0;
        let degr_rn = multi_rn / solo_rn.max(1.0) - 1.0;
        let avg = 0.5 * (degr_tf + degr_rn);
        match label {
            "UVM" => uvm_degr = avg,
            _ => vnpu_degr = avg,
        }
        rows.push(vec![
            label.to_owned(),
            format!("{solo_tf:.0}"),
            format!("{multi_tf:.0}"),
            format!("{:.1}%", 100.0 * degr_tf),
            format!("{solo_rn:.0}"),
            format!("{multi_rn:.0}"),
            format!("{:.1}%", 100.0 * degr_rn),
        ]);
    }
    out += &render_table(
        "Figure 15 (multi-instance): interference of co-located instances",
        &[
            "design", "tf solo", "tf multi", "tf degr", "rn solo", "rn multi", "rn degr",
        ],
        &rows,
    );

    let tf_avg = tf_speedups.iter().sum::<f64>() / tf_speedups.len() as f64;
    let rn_avg = rn_speedups.iter().sum::<f64>() / rn_speedups.len() as f64;
    out += &format!(
        "\nTransformer-block speedup vNPU/UVM = {tf_avg:.2}x (paper: 2.29x); \
         ResNet-block = {rn_avg:.2}x (paper: ~1.05x).\n\
         Multi-instance degradation: UVM {:.1}% (paper ~24%), vNPU {:.1}% (paper ~0%).\n",
        100.0 * uvm_degr,
        100.0 * vnpu_degr
    );
    assert!(
        tf_avg > 1.5,
        "vNPU must clearly beat UVM on transformer blocks"
    );
    assert!(rn_avg < tf_avg, "ResNet blocks benefit less (bubbles)");
    assert!(rn_avg > 0.9, "vNPU must not lose on ResNet blocks");
    assert!(
        uvm_degr > vnpu_degr + 0.03,
        "UVM must suffer visibly more interference"
    );
    assert!(vnpu_degr < 0.05, "vNPU interference must stay negligible");
    out
}
