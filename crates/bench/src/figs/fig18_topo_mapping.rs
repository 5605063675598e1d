//! **Figures 17/18** — straightforward (zig-zag) vs. similar-topology
//! mapping on a partially-occupied chip.
//!
//! Paper result: the similar-topology (minimum edit distance) mapping
//! beats zig-zag by ~40% for ResNet34 at 28 cores but only ~6% at 11
//! cores (communication matters less when layers share cores); GPT
//! models, with uniform blocks, are far less sensitive (zig-zag reaches
//! ~89% of vNPU's mapping); and the advantage grows with core count.
//! The bottom part traces per-core compute/send/receive activity.

use crate::{bind_design, render_table, Design};
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::stats::Activity;
use vnpu_sim::SocConfig;
use vnpu_topo::mapping::Strategy;
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;
use vnpu_workloads::ModelGraph;

/// The pre-occupied cores of Figure 17/18 (the "red nodes"): scattered
/// across the 6×6 mesh so that the zig-zag allocation becomes
/// discontinuous — consecutive core IDs skip holes, separating pipeline
/// neighbors and forcing their exchange paths to overlap.
const OCCUPIED: [u32; 8] = [2, 5, 8, 15, 18, 25, 28, 35];

fn occupy_scattered(hv: &mut Hypervisor) {
    hv.reserve_cores(&OCCUPIED).expect("reserve red nodes");
}

const ITERATIONS: u32 = 24;

/// Compiles `model` for `cores`, maps it onto the partly occupied chip
/// under `strategy` and returns its fps.
fn one(cfg: &SocConfig, model: &ModelGraph, cores: u32, strategy: Strategy) -> f64 {
    let what = format!("{} on {cores} cores", model.name());
    let opts = CompileOptions {
        iterations: ITERATIONS,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        bsp: true, // IPU-style supersteps: exchange is on the critical path
        ..Default::default()
    };
    let out = compile(model, cores, cfg, &opts).unwrap_or_else(|e| panic!("compile {what}: {e}"));
    let mut hv = Hypervisor::new(cfg.clone());
    occupy_scattered(&mut hv);
    // The user topology is the compiled pipeline's communication graph
    // (Figure 17's "User Topo" chains), so the similar-topology mapper
    // optimizes exactly the edges the workload will exercise.
    let vm = hv
        .create_vnpu(
            VnpuRequest::custom(out.comm_topology())
                .mem_bytes(1 << 30)
                .strategy(strategy),
        )
        .unwrap_or_else(|e| panic!("place {what}: {e}"));
    let mut machine = Machine::new(cfg.clone());
    let tenant = bind_design(
        &mut machine,
        &hv,
        vm,
        &out.programs,
        Design::Vnpu,
        model.name(),
    );
    let report = machine.run().unwrap_or_else(|e| panic!("run {what}: {e}"));
    report.fps(tenant)
}

/// Sweeps models × core counts × strategies.
pub fn run() -> String {
    let cfg = SocConfig::sim();
    let model_set = [
        ("ResNet18", models::resnet18()),
        ("ResNet34", models::resnet34()),
        ("GPT2-s", models::gpt2_small()),
    ];
    let mut rows = Vec::new();
    let mut gains: Vec<(String, u32, f64)> = Vec::new();
    for (name, model) in &model_set {
        for cores in [28, 24, 16, 13, 12, 9] {
            let zig = one(&cfg, model, cores, Strategy::straightforward());
            let similar = Strategy::similar_topology().candidate_cap(4000);
            let sim = one(&cfg, model, cores, similar);
            let gain = sim / zig.max(1e-9);
            gains.push((name.to_string(), cores, gain));
            rows.push(vec![
                name.to_string(),
                cores.to_string(),
                format!("{zig:.1}"),
                format!("{sim:.1}"),
                format!("{:+.0}%", 100.0 * (gain - 1.0)),
            ]);
        }
    }
    let mut out = render_table(
        "Figure 18: fps under straightforward vs similar-topology mapping",
        &["model", "cores", "zig-zag fps", "similar fps", "gain"],
        &rows,
    );

    // Bottom of Figure 18: core activity trace for ResNet18 at 12 cores.
    out += &render_table(
        "Figure 18 (bottom): per-core activity, similar mapping",
        &["vcore", "compute%", "send%", "recv-wait%"],
        &trace_rows(&cfg, &model_set[0].1, 12),
    );

    // Claims.
    let avg = |pred: &dyn Fn(&str, u32) -> bool| {
        let v: Vec<f64> = gains
            .iter()
            .filter(|(m, c, _)| pred(m, *c))
            .map(|(_, _, g)| *g)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let resnet_big = avg(&|m, c| m.starts_with("ResNet") && c >= 16);
    let resnet_small = avg(&|m, c| m.starts_with("ResNet") && c <= 13);
    let resnet_all = avg(&|m, _| m.starts_with("ResNet"));
    let gpt_gain = avg(&|m, _| m == "GPT2-s");
    out += &format!(
        "\nResNet similar-mapping gain: {:+.1}% at >=16 cores vs {:+.1}% at <=13 cores \
         (paper: ~+40-42% at 28 cores vs ~+6% at 11 — same ordering, smaller magnitude; \
         our BSP exchange is cheaper relative to compute than the authors' NoC).\n\
         GPT2 zig-zag reaches {:.0}% of the similar mapping (paper ~89%) — far less \
         mapping-sensitive than ResNet, as the paper reports.\n",
        100.0 * (resnet_big - 1.0),
        100.0 * (resnet_small - 1.0),
        100.0 / gpt_gain
    );
    assert!(
        resnet_big > resnet_small,
        "the mapping gain must grow with core count ({resnet_big:.3} vs {resnet_small:.3})"
    );
    assert!(
        resnet_all > 1.02,
        "ResNet must benefit overall ({resnet_all:.3})"
    );
    assert!(
        gpt_gain < resnet_all,
        "GPT must be less mapping-sensitive than ResNet ({gpt_gain:.3} vs {resnet_all:.3})"
    );
    out
}

fn trace_rows(cfg: &SocConfig, model: &ModelGraph, cores: u32) -> Vec<Vec<String>> {
    let opts = CompileOptions {
        iterations: ITERATIONS,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        bsp: true, // IPU-style supersteps: exchange is on the critical path
        ..Default::default()
    };
    let out = compile(model, cores, cfg, &opts).expect("compile");
    let mut hv = Hypervisor::new(cfg.clone());
    occupy_scattered(&mut hv);
    let vm = hv
        .create_vnpu(VnpuRequest::custom(out.comm_topology()).mem_bytes(1 << 30))
        .expect("vNPU");
    let mut machine = Machine::new(cfg.clone());
    let tenant = bind_design(&mut machine, &hv, vm, &out.programs, Design::Vnpu, "trace");
    let report = machine.run().expect("run");
    let horizon = report.tenant(tenant).unwrap().end.max(1);
    let vnpu_ref = hv.vnpu(vm).unwrap();
    (0..cores.min(6))
        .map(|v| {
            let phys = vnpu_ref.phys_core(vnpu::VirtCoreId(v)).unwrap();
            let tr = report
                .core_trace(phys)
                .expect("a placed core is on the chip");
            vec![
                format!("v{v}(p{phys})"),
                format!(
                    "{:.0}%",
                    100.0 * tr.cycles_in(Activity::Compute) as f64 / horizon as f64
                ),
                format!(
                    "{:.0}%",
                    100.0 * tr.cycles_in(Activity::Send) as f64 / horizon as f64
                ),
                format!(
                    "{:.0}%",
                    100.0 * tr.cycles_in(Activity::RecvWait) as f64 / horizon as f64
                ),
            ]
        })
        .collect()
}
