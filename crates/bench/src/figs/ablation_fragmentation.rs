//! **Ablation** (§4.3, "Topology fragmentation") — relaxing the
//! connectivity requirement (R-3) lets fragmented cores serve virtual
//! NPUs, improving utilization at the price of inter-core conflict:
//! "a trade-off between performance and resource utilization."

use crate::{bind_design, render_table, Design};
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_topo::mapping::Strategy;
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;

/// Fragments the chip, then compares a fragmented 12-core allocation
/// against the ideal connected one.
pub fn run() -> String {
    let cfg = SocConfig::sim();
    // Fragment the chip: occupy the odd columns via 3 vertical 1x6
    // strips, leaving 18 free cores with no connected 3x4 region.
    let mut hv = Hypervisor::new(cfg.clone());
    for _ in 0..3 {
        hv.create_vnpu(VnpuRequest::mesh(1, 6).mem_bytes(1 << 20))
            .expect("strip");
    }
    // Whatever the exact placement, 18 cores remain. Request 12 cores.
    let free_before = hv.free_core_count();
    assert_eq!(free_before, 18);

    let connected_attempt = hv.create_vnpu(
        VnpuRequest::cores(12)
            .mem_bytes(1 << 30)
            .strategy(Strategy::similar_topology().candidate_cap(4000)),
    );
    let connected_ok = connected_attempt.is_ok();
    if let Ok(vm) = connected_attempt {
        hv.destroy_vnpu(vm).expect("cleanup");
    }

    let frag_vm = hv
        .create_vnpu(
            VnpuRequest::cores(12).mem_bytes(1 << 30).strategy(
                Strategy::similar_topology()
                    .candidate_cap(4000)
                    .allow_disconnected(true),
            ),
        )
        .expect("fragmented allocation");

    // Measure GPT2-small on the (possibly fragmented) 12 cores vs. on an
    // idle chip with an exact 4x3 window.
    let model = models::gpt2_small();
    let opts = CompileOptions {
        iterations: 6,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 12, &cfg, &opts).expect("compile");

    let frag_fps = {
        let mut machine = Machine::new(cfg.clone());
        let tenant = bind_design(
            &mut machine,
            &hv,
            frag_vm,
            &out.programs,
            Design::Vnpu,
            "frag",
        );
        machine.run().expect("run").fps(tenant)
    };
    let ideal_fps = {
        let mut hv2 = Hypervisor::new(cfg.clone());
        let vm = hv2
            .create_vnpu(VnpuRequest::cores(12).mem_bytes(1 << 30))
            .expect("ideal");
        let mut machine = Machine::new(cfg.clone());
        let tenant = bind_design(&mut machine, &hv2, vm, &out.programs, Design::Vnpu, "ideal");
        machine.run().expect("run").fps(tenant)
    };
    let frag = hv.vnpu(frag_vm).expect("vm");
    let mut out = render_table(
        "Ablation: fragmentation mode (disconnected allocation)",
        &["configuration", "allocated", "connected", "fps"],
        &[
            vec![
                "connected-only request".to_owned(),
                connected_ok.to_string(),
                "n/a".to_owned(),
                "-".to_owned(),
            ],
            vec![
                "fragmented allocation".to_owned(),
                "true".to_owned(),
                frag.mapping().is_connected().to_string(),
                format!("{frag_fps:.1}"),
            ],
            vec![
                "ideal (idle chip)".to_owned(),
                "true".to_owned(),
                "true".to_owned(),
                format!("{ideal_fps:.1}"),
            ],
        ],
    );
    out += &format!(
        "\nFragmentation recovers otherwise-stranded cores at {:.0}% of the ideal \
         mapping's throughput (the §4.3 performance/utilization trade-off).\n",
        100.0 * frag_fps / ideal_fps.max(1e-9)
    );
    assert!(frag_fps > 0.0, "fragmented allocation must still run");
    assert!(
        frag_fps <= ideal_fps * 1.05,
        "fragmentation cannot meaningfully beat the ideal mapping \
         ({frag_fps:.1} vs {ideal_fps:.1})"
    );
    out
}
