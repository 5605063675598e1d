//! **Table 3** — micro-test of the NoC vRouter: data transfer clocks with
//! and without virtualization, for 2/10/20/30 routing packets (2048 B
//! each).
//!
//! Paper result: Send 309/1430/2810/4236, vSend 342/1432/2822/4240 —
//! the vRouter adds only 1–2% on top of raw inter-core transfers (a fixed
//! routing-table lookup plus a 1-cycle per-packet rewrite).

use crate::{bind_design, render_table, Design};
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::stats::Activity;
use vnpu_sim::SocConfig;

/// Runs one send/receive pair and returns (send clocks, receive clocks):
/// the send engine's stream completion and the receiver's completion.
fn measure(cfg: &SocConfig, packets: u64, virtualized: bool) -> (u64, u64) {
    let bytes = packets * cfg.packet_bytes;
    let programs = vec![
        Program::once(vec![Instr::send(1, bytes, 0)]),
        Program::once(vec![Instr::recv(0, bytes, 0)]),
    ];
    let mut machine = Machine::new(cfg.clone());
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(2, 1))
        .expect("2-core vNPU");
    let design = if virtualized {
        Design::Vnpu
    } else {
        Design::BareMetal
    };
    let tenant = bind_design(&mut machine, &hv, vm, &programs, design, "pair");
    let report = machine.run().expect("run");
    let sender_phys = hv.vnpu(vm).unwrap().phys_core(vnpu::VirtCoreId(0)).unwrap();
    let send_end = report
        .core_trace(sender_phys)
        .expect("a placed core is on the chip")
        .intervals()
        .iter()
        .filter(|(_, _, a)| *a == Activity::Send)
        .map(|(_, e, _)| *e)
        .max()
        .unwrap_or(0);
    let recv_end = report.tenant(tenant).unwrap().end;
    (send_end, recv_end)
}

/// The paper's (packets, Send, vSend) rows, each measured and held to
/// the paper's absolute numbers.
pub fn run() -> String {
    let cfg = SocConfig::fpga();
    let paper = [
        (2u64, 309u64, 342u64),
        (10, 1430, 1432),
        (20, 2810, 2822),
        (30, 4236, 4240),
    ];
    let mut rows = Vec::new();
    for (packets, paper_send, paper_vsend) in paper {
        let (send, recv) = measure(&cfg, packets, false);
        let (vsend, vrecv) = measure(&cfg, packets, true);
        let overhead = 100.0 * (vsend as f64 - send as f64) / send as f64;
        rows.push(vec![
            packets.to_string(),
            send.to_string(),
            recv.to_string(),
            vsend.to_string(),
            vrecv.to_string(),
            format!("{overhead:.1}%"),
            format!("{paper_send}/{paper_vsend}"),
        ]);
        // Shape assertions: within 30% of the paper's absolute numbers and
        // bounded virtualization overhead.
        assert!(
            (send as f64 / paper_send as f64 - 1.0).abs() < 0.3,
            "{packets} packets: send {send} vs paper {paper_send}"
        );
        assert!(
            overhead < 15.0,
            "{packets} packets: vRouter overhead {overhead:.1}% too high"
        );
    }
    let mut out = render_table(
        "Table 3: NoC transfers with/without the vRouter (clocks)",
        &[
            "packets",
            "Send",
            "Receive",
            "vSend",
            "vReceive",
            "overhead",
            "paper S/vS",
        ],
        &rows,
    );
    out += "\nLarge transfers amortize the routing-table lookup to ~1-2% (paper's claim).\n";
    out
}
