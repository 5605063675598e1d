//! **Figure 13** — vRouter vs. memory synchronization: data broadcast
//! latency of four NPU kernels at 1:1..1:4 sender:receiver ratios.
//!
//! Paper result: the vRouter mechanism is ~4.24× cheaper on average than
//! global-memory synchronization; vRouter broadcast cost stays well below
//! kernel execution time (fully overlappable), while UVM-sync for the
//! Matmul kernel at 1:4 *exceeds* its computation time.

use crate::{bind_design, render_table, Design};
use vnpu::vnpu::GUEST_VA_BASE;
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::isa::{Instr, Kernel, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::{kernels, traffic};

// One-shot broadcast latency, as in the paper's micro-test (the cost of
// getting one kernel's result to all receivers, beyond the kernel itself).
const ITERATIONS: u32 = 1;

/// Per-iteration cycles of the kernel alone (the figure's "comp" bar).
fn comp_cycles(cfg: &SocConfig, kernel: Kernel) -> f64 {
    let mut m = Machine::new(cfg.clone());
    let t = m.add_tenant("comp");
    m.bind(
        0,
        t,
        0,
        Program::looped(vec![], vec![Instr::Compute(kernel)], ITERATIONS),
    )
    .unwrap();
    m.run().unwrap().cycles_per_iteration(t)
}

/// Per-iteration broadcast cost beyond compute, for one design.
fn broadcast_cost(cfg: &SocConfig, kernel: Kernel, fanout: u32, uvm: bool) -> f64 {
    let programs = if uvm {
        traffic::broadcast_uvm(kernel, fanout, ITERATIONS, GUEST_VA_BASE)
    } else {
        traffic::broadcast_noc(kernel, fanout, ITERATIONS)
    };
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::cores(fanout + 1).mem_bytes(64 << 20))
        .expect("vNPU");
    let design = if uvm {
        Design::Uvm { iotlb: 32 }
    } else {
        Design::Vnpu
    };
    let tenant = bind_design(&mut machine, &hv, vm, &programs, design, "bcast");
    let per_iter = machine.run().expect("run").cycles_per_iteration(tenant);
    (per_iter - comp_cycles(cfg, kernel)).max(0.0)
}

/// Sweeps kernels × fan-outs.
pub fn run() -> String {
    let cfg = SocConfig::fpga();
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let mut uvm_exceeds_comp_at_1_4 = false;
    for (name, kernel) in kernels::fig13_kernels() {
        let comp = comp_cycles(&cfg, kernel);
        for fanout in 1..=4 {
            let vrouter = broadcast_cost(&cfg, kernel, fanout, false);
            let uvm = broadcast_cost(&cfg, kernel, fanout, true);
            if uvm > 0.0 && vrouter > 0.0 {
                ratios.push(uvm / vrouter);
            }
            if name.starts_with("Matmul") && fanout == 4 && uvm > comp {
                uvm_exceeds_comp_at_1_4 = true;
            }
            rows.push(vec![
                name.to_owned(),
                format!("1:{fanout}"),
                format!("{comp:.0}"),
                format!("{vrouter:.0}"),
                format!("{uvm:.0}"),
                format!("{:.2}", vrouter / comp),
                format!("{:.2}", uvm / comp),
            ]);
        }
    }
    let mut out = render_table(
        "Figure 13: broadcast cost per iteration (clocks), vRouter vs UVM-sync",
        &[
            "kernel", "fan-out", "comp", "vRouter", "UVM-sync", "vR/comp", "UVM/comp",
        ],
        &rows,
    );
    let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
    out += &format!(
        "\nAverage UVM-sync / vRouter broadcast-cost ratio = {avg:.2}x (paper: 4.24x).\n\
         UVM 1:4 Matmul broadcast exceeds its computation time: {uvm_exceeds_comp_at_1_4} \
         (paper: true).\n"
    );
    assert!(
        avg > 3.0,
        "vRouter must beat memory synchronization by multiples"
    );
    assert!(
        uvm_exceeds_comp_at_1_4,
        "the paper's Matmul 1:4 imbalance must reproduce"
    );
    out
}
