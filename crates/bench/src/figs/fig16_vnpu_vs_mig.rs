//! **Figure 16** — performance and warm-up latency of MIG-based virtual
//! NPUs vs. vNPU, on 36- and 48-core chips running two tenants.
//!
//! Scenarios (as in the paper):
//! * 36 cores: GPT2-small (needs 12 cores) + ResNet34. MIG's fixed 18+18
//!   partitions strand 6 cores under GPT2-small and cap ResNet34 at 18;
//!   vNPU allocates exactly 12 + 24.
//! * 48 cores: GPT2-small + GPT2-large (needs 36 cores). MIG's 24+24
//!   partitions force GPT2-large into TDM (36 virtual cores on 24
//!   physical); vNPU allocates exactly 36 + 12.
//!
//! Paper result: up to 1.92× (GPT2-large) and 1.28× (ResNet34) vNPU
//! advantage; vNPU itself costs <1% vs bare metal (§6.3.3); warm-up time
//! is set by weight volume over the tenant's memory bandwidth (§6.3.4).

use crate::{bind_design, bind_mig, render_table, Design};
use vnpu::mig::MigPartitioner;
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::{Report, SocConfig};
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;
use vnpu_workloads::ModelGraph;

fn programs(
    model: &ModelGraph,
    cores: u32,
    cfg: &SocConfig,
    iterations: u32,
) -> Vec<vnpu_sim::isa::Program> {
    let opts = CompileOptions {
        iterations,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    compile(model, cores, cfg, &opts).expect("compile").programs
}

/// Builds and runs one cell of the figure: two tenants `(model, cores)`
/// sharing a chip — tenants 0 and 1 of the returned report. `Some(design)`
/// gives each an exact-size vNPU bound under that design. `None` is the
/// MIG baseline: each tenant gets a whole fixed partition; a tenant
/// needing more virtual cores than the partition holds
/// time-division-multiplexes, and one needing fewer still compiles to the
/// number of cores it *wants* (the paper: GPT2-small uses 12 of 18/24).
pub fn cell(
    cfg: &SocConfig,
    a: (&ModelGraph, u32),
    b: (&ModelGraph, u32),
    design: Option<Design>,
    iterations: u32,
) -> Report {
    let mut machine = Machine::new(cfg.clone());
    let tenants =
        [a, b].map(|(model, cores)| (model.name(), cores, programs(model, cores, cfg, iterations)));
    if let Some(design) = design {
        let mut hv = Hypervisor::new(cfg.clone());
        for (name, cores, programs) in &tenants {
            let vm = hv
                .create_vnpu(VnpuRequest::cores(*cores).mem_bytes(1 << 30))
                .expect("vNPU");
            bind_design(&mut machine, &hv, vm, programs, design, name);
        }
    } else {
        let mut mig = MigPartitioner::standard(cfg);
        for (name, cores, programs) in &tenants {
            let alloc = mig.allocate(*cores).expect("partition");
            bind_mig(&mut machine, cfg, &alloc, programs, name);
        }
    }
    machine.run().expect("run")
}

/// Runs the two-chip comparison.
pub fn run() -> String {
    let iterations = 96;

    // ---------------- 36-core chip ----------------
    let cfg36 = SocConfig::sim();
    let gpt_s = models::gpt2_small();
    let resnet34 = models::resnet34();
    // vNPU: exact 12 + 24; MIG: both squeezed into 18-core partitions
    // (GPT2-small still runs 12 virtual cores; ResNet34 gets only 18).
    let on36 = |b, design| cell(&cfg36, (&gpt_s, 12), (&resnet34, b), design, iterations);
    let v36 = on36(24, Some(Design::Vnpu));
    let m36 = on36(18, None);
    let bare36 = on36(24, Some(Design::BareMetal));

    // ---------------- 48-core chip ----------------
    let cfg48 = SocConfig::sim48();
    let gpt_l = models::gpt2_large();
    let on48 = |design| cell(&cfg48, (&gpt_s, 12), (&gpt_l, 36), design, iterations);
    let v48 = on48(Some(Design::Vnpu));
    let m48 = on48(None); // 36 vcores on 24 phys: TDM
    let bare48 = on48(Some(Design::BareMetal));

    let row = |scenario: &str, r: &Report| {
        vec![
            scenario.to_owned(),
            format!("{:.1}", r.fps(0)),
            format!("{:.1}", r.fps(1)),
            format!("{:.2}M", r.warmup_cycles(0) as f64 / 1e6),
            format!("{:.2}M", r.warmup_cycles(1) as f64 / 1e6),
        ]
    };
    let mut out = render_table(
        "Figure 16: fps and warm-up (cycles) under MIG vs vNPU",
        &["scenario", "task1 fps", "task2 fps", "warmup1", "warmup2"],
        &[
            row("36c vNPU (GPT2-s:12 + ResNet34:24)", &v36),
            row("36c MIG  (GPT2-s:18p + ResNet34:18p)", &m36),
            row("36c bare-metal (same alloc as vNPU)", &bare36),
            row("48c vNPU (GPT2-s:12 + GPT2-l:36)", &v48),
            row("48c MIG  (GPT2-s:24p + GPT2-l:24p TDM)", &m48),
            row("48c bare-metal (same alloc as vNPU)", &bare48),
        ],
    );

    let resnet_speedup = v36.fps(1) / m36.fps(1).max(1e-9);
    let overhead36 = 1.0 - v36.fps(1) / bare36.fps(1).max(1e-9);
    let gptl_speedup = v48.fps(1) / m48.fps(1).max(1e-9);
    let overhead48 = 1.0 - v48.fps(1) / bare48.fps(1).max(1e-9);
    out += &format!(
        "\nvNPU vs MIG: ResNet34 {resnet_speedup:.2}x (paper 1.28x avg).\n\
         vNPU vs bare metal: {:.2}% (36c) overhead (paper <1%).\n\
         GPT2-large {gptl_speedup:.2}x vs MIG (paper up to 1.92x); \
         48c bare-metal overhead {:.2}%.\n",
        100.0 * overhead36,
        100.0 * overhead48
    );
    assert!(
        v36.fps(0) > 0.0 && v36.fps(1) > 0.0,
        "both tenants must run"
    );
    assert!(
        v36.warmup_cycles(0) > 0 && v36.warmup_cycles(1) > 0,
        "warm-up (weight loading) must be visible"
    );
    assert!(
        resnet_speedup > 1.1,
        "more cores must beat MIG's fixed partition for ResNet34"
    );
    assert!(gptl_speedup > 1.4, "TDM must cost MIG dearly on GPT2-large");
    assert!(
        overhead36.abs() < 0.03 && overhead48.abs() < 0.03,
        "vNPU ~free"
    );
    // GPT2-small under MIG wastes partition cores; vNPU gives it exactly 12,
    // so its fps should be comparable (within noise) across designs.
    let gpts_ratio = v48.fps(0) / m48.fps(0).max(1e-9);
    assert!(
        (0.8..1.3).contains(&gpts_ratio),
        "GPT2-small fps should be similar under both designs ({gpts_ratio:.2})"
    );
    out
}
