//! **Ablation** (§4.1.2) — NoC routing strategies for irregular virtual
//! NPUs: default DOR (packets may cross foreign cores → interference) vs.
//! direction-override routing confined to the virtual topology.
//!
//! This reproduces Figure 5's scenario literally: vNPU2 owns physical
//! cores {3, 6, 7, 11} of a 4×3 mesh; its 11→6 flow under DOR crosses
//! foreign core 10 and shares the (10,6) link with the neighbouring
//! tenant's own traffic. Confined routing (11→7→6) removes the shared
//! link, eliminating the cross-tenant contention.

use crate::{adhoc_vrouter, render_table};
use vnpu::vrouter::RoutePolicy;
use vnpu_mem::translate::PhysicalTranslator;
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::{CoreServices, Machine};
use vnpu_sim::SocConfig;

const BYTES: u64 = 16 * 1024;

/// Runs both tenants with tenant A using the given policy; returns
/// (A cycles/iter, B cycles/iter, total link contention).
fn measure(policy: RoutePolicy, iterations: u32) -> (f64, f64, u64) {
    let cfg = SocConfig {
        mesh_width: 4,
        mesh_height: 3,
        ..SocConfig::fpga()
    };
    let mut machine = Machine::new(cfg.clone());

    // Tenant A = Figure 5's vNPU2 on {3, 6, 7, 11}; virtual 3 (phys 11)
    // streams to virtual 1 (phys 6) every iteration.
    let a = machine.add_tenant("vnpu2");
    let a_cores = vec![3u32, 6, 7, 11];
    let bind_a = |machine: &mut Machine, vcore: u32, program: Program| {
        let router = adhoc_vrouter(&cfg, a_cores.clone(), policy);
        machine
            .bind_with(
                a_cores[vcore as usize],
                a,
                vcore,
                program,
                CoreServices {
                    router: Box::new(router),
                    translator: Box::new(PhysicalTranslator::new()),
                    limiter: None,
                },
            )
            .unwrap();
    };
    bind_a(
        &mut machine,
        3,
        Program::looped(vec![], vec![Instr::send(1, BYTES, 0)], iterations),
    );
    bind_a(
        &mut machine,
        1,
        Program::looped(vec![], vec![Instr::recv(3, BYTES, 0)], iterations),
    );

    // Tenant B owns {2, 10}; its 10→2 flow always rides DOR through
    // foreign core 6, sharing the (10,6) link with A's DOR route.
    let b = machine.add_tenant("neighbour");
    let b_cores = vec![10u32, 2];
    for (vcore, program) in [
        (
            0u32,
            Program::looped(vec![], vec![Instr::send(1, BYTES, 0)], iterations),
        ),
        (
            1u32,
            Program::looped(vec![], vec![Instr::recv(0, BYTES, 0)], iterations),
        ),
    ] {
        let router = adhoc_vrouter(&cfg, b_cores.clone(), RoutePolicy::Dor);
        machine
            .bind_with(
                b_cores[vcore as usize],
                b,
                vcore,
                program,
                CoreServices {
                    router: Box::new(router),
                    translator: Box::new(PhysicalTranslator::new()),
                    limiter: None,
                },
            )
            .unwrap();
    }

    let report = machine.run().unwrap();
    (
        report.cycles_per_iteration(a),
        report.cycles_per_iteration(b),
        report.noc_contention_cycles(),
    )
}

/// Compares DOR vs confined routing.
pub fn run() -> String {
    let (dor_a, dor_b, dor_contention) = measure(RoutePolicy::Dor, 128);
    let (conf_a, conf_b, conf_contention) = measure(RoutePolicy::Confined, 128);
    let mut out = render_table(
        "Ablation: Figure 5's NoC interference — DOR vs confined routing for vNPU2",
        &[
            "vNPU2 policy",
            "vNPU2 c/iter",
            "neighbour c/iter",
            "link contention (cyc)",
        ],
        &[
            vec![
                "DOR".to_owned(),
                format!("{dor_a:.0}"),
                format!("{dor_b:.0}"),
                dor_contention.to_string(),
            ],
            vec![
                "Confined".to_owned(),
                format!("{conf_a:.0}"),
                format!("{conf_b:.0}"),
                conf_contention.to_string(),
            ],
        ],
    );
    out += &format!(
        "\nUnder DOR both tenants fight for the (10,6) link ({dor_contention} wait \
         cycles); the direction-override path 11→7→6 stays inside vNPU2 and the \
         contention drops to {conf_contention} — the §4.1.2 'NoC non-interference' \
         guarantee.\n"
    );
    assert!(
        dor_contention > 0,
        "Figure 5's DOR interference must appear"
    );
    assert!(
        conf_contention < dor_contention / 4,
        "confinement must remove the shared-link contention"
    );
    assert!(
        conf_b <= dor_b,
        "the neighbour must not slow down when vNPU2 confines itself"
    );
    out
}
