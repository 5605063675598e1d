//! Failure injection: every error path a misbehaving guest (or buggy
//! compiler) can trigger must surface as a typed error, not a hang or a
//! silent wrong answer.

use vnpu::{Hypervisor, VirtCoreId, VnpuRequest};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::{SimError, SocConfig};
use vnpu_topo::mapping::Strategy;

fn one_core_vnpu(cfg: &SocConfig) -> (Hypervisor, vnpu::VmId) {
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(2, 1).mem_bytes(16 << 20))
        .unwrap();
    (hv, vm)
}

#[test]
fn guest_access_outside_its_memory_faults() {
    let cfg = SocConfig::sim();
    let (hv, vm) = one_core_vnpu(&cfg);
    let vnpu = hv.vnpu(vm).unwrap();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("evil");
    // DMA from far beyond the guest window.
    let program = Program::once(vec![Instr::dma_load(0x9999_0000_0000, 4096)]);
    m.bind_with(
        vnpu.phys_core(VirtCoreId(0)).unwrap(),
        t,
        0,
        program,
        vnpu.services(VirtCoreId(0)).unwrap(),
    )
    .unwrap();
    match m.run() {
        Err(SimError::MemFault { .. }) => {}
        other => panic!("expected MemFault, got {other:?}"),
    }
}

#[test]
fn guest_send_to_foreign_core_faults() {
    let cfg = SocConfig::sim();
    let (hv, vm) = one_core_vnpu(&cfg);
    let vnpu = hv.vnpu(vm).unwrap();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("evil");
    // Virtual core 7 does not exist in this 2-core vNPU.
    let program = Program::once(vec![Instr::send(7, 2048, 0)]);
    m.bind_with(
        vnpu.phys_core(VirtCoreId(0)).unwrap(),
        t,
        0,
        program,
        vnpu.services(VirtCoreId(0)).unwrap(),
    )
    .unwrap();
    match m.run() {
        Err(SimError::RouteFault { dst: 7, .. }) => {}
        other => panic!("expected RouteFault, got {other:?}"),
    }
}

#[test]
fn unmatched_recv_is_reported_as_deadlock_with_detail() {
    let cfg = SocConfig::fpga();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("lonely");
    m.bind(0, t, 0, Program::once(vec![Instr::recv(1, 4096, 9)]))
        .unwrap();
    match m.run() {
        Err(SimError::Deadlock { detail }) => {
            assert!(detail.contains("recv"), "detail: {detail}");
            assert!(detail.contains("tenant"), "detail: {detail}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

#[test]
fn barrier_mismatch_deadlocks() {
    let cfg = SocConfig::fpga();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("t");
    m.bind(0, t, 0, Program::once(vec![Instr::Barrier { id: 1 }]))
        .unwrap();
    m.bind(1, t, 1, Program::once(vec![Instr::Barrier { id: 2 }]))
        .unwrap();
    assert!(matches!(m.run(), Err(SimError::Deadlock { .. })));
}

#[test]
fn oversized_program_rejected_at_bind() {
    let cfg = SocConfig::fpga();
    let mut m = Machine::new(cfg.clone());
    let t = m.add_tenant("fat");
    let p = Program::once(vec![]).with_footprint(cfg.scratchpad_bytes + 1);
    assert!(matches!(
        m.bind(0, t, 0, p),
        Err(SimError::ScratchpadOverflow { .. })
    ));
}

#[test]
fn cycle_limit_aborts_infinite_workloads() {
    let mut cfg = SocConfig::fpga();
    cfg.max_cycles = 50_000;
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("endless");
    m.bind(
        0,
        t,
        0,
        Program::looped(vec![], vec![Instr::Delay { cycles: 1000 }], 1000),
    )
    .unwrap();
    assert!(matches!(
        m.run(),
        Err(SimError::CycleLimit { limit: 50_000 })
    ));
}

#[test]
fn hypervisor_rejects_impossible_topologies() {
    let mut hv = Hypervisor::new(SocConfig::sim());
    // More cores than the chip has.
    assert!(hv.create_vnpu(VnpuRequest::mesh(7, 7)).is_err());
    // Exact-only request that cannot match after fragmentation.
    hv.create_vnpu(VnpuRequest::mesh(5, 5)).unwrap();
    let r = hv.create_vnpu(VnpuRequest::mesh(4, 4).strategy(Strategy::exact_only()));
    assert!(r.is_err());
    // But a flexible request still fits.
    assert!(hv
        .create_vnpu(
            VnpuRequest::cores(9).strategy(Strategy::similar_topology().candidate_cap(500))
        )
        .is_ok());
}

#[test]
fn double_destroy_and_stale_handles_fail_cleanly() {
    let mut hv = Hypervisor::new(SocConfig::sim());
    let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
    hv.destroy_vnpu(vm).unwrap();
    assert!(hv.destroy_vnpu(vm).is_err());
    assert!(hv.vnpu(vm).is_err());
    assert!(hv.services(vm, VirtCoreId(0)).is_err());
}

#[test]
fn write_to_readonly_range_denied() {
    // Build services whose plan is read-only, then DMA-store into it.
    use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
    use vnpu_mem::{Perm, PhysAddr, TranslationCosts, VirtAddr};
    use vnpu_sim::machine::CoreServices;

    let cfg = SocConfig::fpga();
    let rtt = RangeTranslationTable::new(vec![RttEntry::new(
        VirtAddr(0x1000_0000),
        PhysAddr(0x8000_0000),
        1 << 20,
        Perm::R,
    )])
    .unwrap();
    let services = CoreServices {
        router: Box::new(vnpu_sim::noc::DorRouter::new(&cfg)),
        translator: Box::new(RangeTranslator::new(rtt, 4, TranslationCosts::default())),
        limiter: None,
    };
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("ro");
    m.bind_with(
        0,
        t,
        0,
        Program::once(vec![Instr::DmaStore {
            va: VirtAddr(0x1000_0000),
            bytes: 4096,
        }]),
        services,
    )
    .unwrap();
    match m.run() {
        Err(SimError::MemFault { err, .. }) => {
            assert!(matches!(err, vnpu_mem::MemError::PermissionDenied { .. }));
        }
        other => panic!("expected permission fault, got {other:?}"),
    }
}

#[test]
fn bandwidth_cap_throttles_but_never_wedges() {
    let cfg = SocConfig::sim();
    let mut hv = Hypervisor::new(cfg.clone());
    let capped = hv
        .create_vnpu(
            VnpuRequest::mesh(2, 1)
                .mem_bytes(64 << 20)
                .bandwidth_cap(64 * 1024), // bytes per 10k-cycle window
        )
        .unwrap();
    let free = hv
        .create_vnpu(VnpuRequest::mesh(2, 1).mem_bytes(64 << 20))
        .unwrap();
    let run = |hv: &Hypervisor, vm| {
        let vnpu = hv.vnpu(vm).unwrap();
        let mut m = Machine::new(cfg.clone());
        let t = m.add_tenant("dma");
        m.bind_with(
            vnpu.phys_core(VirtCoreId(0)).unwrap(),
            t,
            0,
            Program::once(vec![Instr::DmaLoad {
                va: vnpu.va_base(),
                bytes: 8 << 20,
            }]),
            vnpu.services(VirtCoreId(0)).unwrap(),
        )
        .unwrap();
        m.run().unwrap().makespan()
    };
    let slow = run(&hv, capped);
    let fast = run(&hv, free);
    assert!(
        slow > fast * 2,
        "cap must throttle: capped {slow} vs free {fast}"
    );
}

#[test]
fn faulted_core_surfaces_typed_errors_at_every_layer() {
    // Dead hardware is a typed refusal, never a hang: the hypervisor
    // refuses to hand out a faulted core, and the machine refuses to
    // bind one.
    let cfg = SocConfig::sim();
    let mut hv = Hypervisor::new(cfg.clone());
    assert!(hv.set_core_faulted(0, true).unwrap(), "fresh fault");
    match hv.reserve_cores(&[0]) {
        Err(vnpu::VnpuError::Faulted { core: 0 }) => {}
        other => panic!("expected Faulted, got {other:?}"),
    }
    assert!(
        hv.set_core_faulted(999, true).is_err(),
        "out-of-range cores are rejected, not masked"
    );

    let (hv, vm) = one_core_vnpu(&cfg);
    let vnpu = hv.vnpu(vm).unwrap();
    let phys = vnpu.phys_core(VirtCoreId(0)).unwrap();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("unlucky");
    assert!(m.fault_core(phys).unwrap(), "fresh machine fault");
    let program = Program::once(vec![Instr::dma_load(0, 64)]);
    match m.bind_with(phys, t, 0, program, vnpu.services(VirtCoreId(0)).unwrap()) {
        Err(SimError::CoreFaulted { core }) if core == phys => {}
        other => panic!("expected CoreFaulted, got {other:?}"),
    }
}

#[test]
fn faulted_link_crossing_is_a_typed_error_not_a_hang() {
    // A packet routed across a dead link errors immediately with the
    // offending hop — no rerouting, no wedge.
    let cfg = SocConfig::sim();
    let (hv, vm) = one_core_vnpu(&cfg);
    let vnpu = hv.vnpu(vm).unwrap();
    let p0 = vnpu.phys_core(VirtCoreId(0)).unwrap();
    let p1 = vnpu.phys_core(VirtCoreId(1)).unwrap();
    let mut m = Machine::new(cfg);
    let t = m.add_tenant("split");
    m.bind_with(
        p0,
        t,
        0,
        Program::once(vec![Instr::send(1, 2048, 0)]),
        vnpu.services(VirtCoreId(0)).unwrap(),
    )
    .unwrap();
    m.bind_with(
        p1,
        t,
        1,
        Program::once(vec![Instr::recv(0, 2048, 0)]),
        vnpu.services(VirtCoreId(1)).unwrap(),
    )
    .unwrap();
    assert!(
        m.fault_link(p0, p1).unwrap(),
        "the 2x1 vNPU's cores are mesh-adjacent"
    );
    match m.run() {
        Err(SimError::LinkFaulted { .. }) => {}
        other => panic!("expected LinkFaulted, got {other:?}"),
    }
}

#[test]
fn fault_during_in_flight_migration_is_stale_plan_with_clean_rollback() {
    // A fault landing between plan and commit must fail the commit as
    // StalePlan (the plan was costed against a differently-healthy
    // chip) and leave the hypervisor byte-identical — then a re-plan
    // against the wounded chip goes through.
    use vnpu::plan::{MigrationTarget, PlanOp};
    let mut hv = Hypervisor::new(SocConfig::sim());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(2, 2).mem_bytes(16 << 20))
        .unwrap();
    let migrate = [PlanOp::Migrate {
        vm,
        to: MigrationTarget::Remap(Strategy::similar_topology()),
    }];
    let txn = hv.plan(&migrate).expect("plan against the healthy chip");
    // The fault strikes mid-flight (far corner, nobody owns it).
    assert!(hv.set_core_faulted(35, true).unwrap());
    let digest = hv.state_digest();
    match hv.commit(&txn) {
        Err(vnpu::VnpuError::StalePlan { .. }) => {}
        other => panic!("expected StalePlan, got {other:?}"),
    }
    assert_eq!(
        hv.state_digest(),
        digest,
        "a refused commit leaves the hypervisor byte-identical"
    );
    // Re-planned against the wounded chip, the migration commits — and
    // never lands on the dead core.
    let txn = hv.plan(&migrate).expect("re-plan sees the fault");
    hv.commit(&txn).expect("commit against the wounded chip");
    let nodes = hv.vnpu(vm).unwrap().mapping().phys_nodes().to_vec();
    assert!(
        !nodes.contains(&vnpu_topo::NodeId(35)),
        "the remap must avoid the faulted core"
    );
    hv.destroy_vnpu(vm).unwrap();
    hv.set_core_faulted(35, false).unwrap();
    assert_eq!(
        hv.free_core_count(),
        hv.config().core_count(),
        "no leaks through the fault window"
    );
}
