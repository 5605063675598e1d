//! Synthetic traffic generators for the §6.2 micro-benchmarks:
//! compute-then-broadcast (Figure 13).

use crate::kernels::output_bytes;
use vnpu_mem::VirtAddr;
use vnpu_sim::isa::{Instr, Kernel, Program};

/// Programs for a `1:n` compute-and-broadcast over the NoC: core 0 runs
/// `kernel` each iteration and sends its output to cores `1..=fanout`;
/// receivers only receive. Returns `fanout + 1` programs (index = core).
pub fn broadcast_noc(kernel: Kernel, fanout: u32, iterations: u32) -> Vec<Program> {
    let bytes = output_bytes(&kernel).max(1);
    let mut sender_body = vec![Instr::Compute(kernel)];
    for dst in 1..=fanout {
        sender_body.push(Instr::Send {
            dst,
            bytes,
            tag: dst,
        });
    }
    let mut programs = vec![Program::looped(vec![], sender_body, iterations)];
    for dst in 1..=fanout {
        programs.push(Program::looped(
            vec![],
            vec![Instr::Recv {
                src: 0,
                bytes,
                tag: dst,
            }],
            iterations,
        ));
    }
    programs
}

/// The UVM equivalent of [`broadcast_noc`]: the producer writes its output
/// to global memory once; every consumer re-reads it (memory
/// synchronization).
pub fn broadcast_uvm(kernel: Kernel, fanout: u32, iterations: u32, va_base: u64) -> Vec<Program> {
    let bytes = output_bytes(&kernel).max(64);
    let mut programs = vec![Program::looped(
        vec![],
        vec![
            Instr::Compute(kernel),
            Instr::GlobalWrite {
                va: VirtAddr(va_base),
                bytes,
                tag: 0,
            },
        ],
        iterations,
    )];
    for _ in 1..=fanout {
        programs.push(Program::looped(
            vec![],
            vec![Instr::GlobalRead {
                va: VirtAddr(va_base),
                bytes,
                tag: 0,
            }],
            iterations,
        ));
    }
    programs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use vnpu_sim::machine::Machine;
    use vnpu_sim::SocConfig;

    #[test]
    fn broadcast_noc_runs_and_scales_gently() {
        let kernel = kernels::matmul_128m_128k_128n();
        let run = |fanout: u32| {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("bcast");
            for (c, p) in broadcast_noc(kernel, fanout, 4).into_iter().enumerate() {
                m.bind(c as u32, t, c as u32, p).unwrap();
            }
            m.run().unwrap().makespan()
        };
        let one = run(1);
        let four = run(4);
        assert!(four >= one);
        // NoC broadcast cost is largely overlapped with compute: growing
        // fan-out 4x must cost far less than 4x.
        assert!(four < one * 2, "1:4 {four} vs 1:1 {one}");
    }

    #[test]
    fn uvm_broadcast_cost_exceeds_noc_cost() {
        // Figure 13's metric is the *broadcast cost* — the time beyond the
        // compute-only baseline. Memory synchronization must cost several
        // times the NoC handshake.
        let kernel = kernels::matmul_64m_512k_32n();
        let comp_only = {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("comp");
            m.bind(
                0,
                t,
                0,
                vnpu_sim::isa::Program::looped(vec![], vec![Instr::Compute(kernel)], 4),
            )
            .unwrap();
            m.run().unwrap().makespan()
        };
        let noc = {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("noc");
            for (c, p) in broadcast_noc(kernel, 4, 4).into_iter().enumerate() {
                m.bind(c as u32, t, c as u32, p).unwrap();
            }
            m.run().unwrap().makespan()
        };
        let uvm = {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("uvm");
            for (c, p) in broadcast_uvm(kernel, 4, 4, 0x1000).into_iter().enumerate() {
                m.bind(c as u32, t, c as u32, p).unwrap();
            }
            m.run().unwrap().makespan()
        };
        let noc_cost = noc.saturating_sub(comp_only).max(1);
        let uvm_cost = uvm.saturating_sub(comp_only).max(1);
        assert!(
            uvm_cost as f64 > 2.0 * noc_cost as f64,
            "memory-sync broadcast cost ({uvm_cost}) must be multiple of NoC cost ({noc_cost})"
        );
    }

    #[test]
    fn program_counts() {
        assert_eq!(
            broadcast_noc(kernels::matmul_128m_128k_128n(), 3, 1).len(),
            4
        );
    }
}
