//! End-to-end integration: hypervisor → compiler → simulator for real
//! models, asserting the pipeline works and is deterministic.

use vnpu::{Hypervisor, VirtCoreId, VnpuRequest};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;
use vnpu_workloads::ModelGraph;

fn run_model(model: &ModelGraph, cores: u32, cfg: &SocConfig) -> (f64, u64) {
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::cores(cores).mem_bytes(1 << 30))
        .expect("create vnpu");
    let vnpu = hv.vnpu(vm).expect("vnpu");
    let opts = CompileOptions {
        iterations: 4,
        weight_va_base: vnpu.va_base().value(),
        ..Default::default()
    };
    let out = compile(model, cores, cfg, &opts).expect("compile");
    let mut machine = Machine::new(cfg.clone());
    let tenant = machine.add_tenant(model.name());
    for (v, p) in out.programs.iter().enumerate() {
        let vcore = VirtCoreId(v as u32);
        machine
            .bind_with(
                vnpu.phys_core(vcore).expect("phys"),
                tenant,
                v as u32,
                p.clone(),
                vnpu.services(vcore).expect("services"),
            )
            .expect("bind");
    }
    let report = machine.run().expect("run");
    (report.fps(tenant), report.makespan())
}

#[test]
fn every_zoo_model_runs_on_the_sim_config() {
    let cfg = SocConfig::sim();
    for model in models::zoo() {
        let cores = 8.min(model.len() as u32);
        let (fps, makespan) = run_model(&model, cores, &cfg);
        assert!(fps > 0.0, "{} produced no throughput", model.name());
        assert!(makespan > 0, "{} ran in zero time", model.name());
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let cfg = SocConfig::sim();
    let model = models::resnet18();
    let a = run_model(&model, 9, &cfg);
    let b = run_model(&model, 9, &cfg);
    assert_eq!(a, b, "same inputs must give bit-identical results");
}

#[test]
fn more_cores_help_compute_bound_models() {
    // Enough iterations that the pipeline fill does not dominate.
    let cfg = SocConfig::sim();
    let model = models::gpt2_small();
    let run_long = |cores: u32| {
        let mut hv = Hypervisor::new(cfg.clone());
        let vm = hv
            .create_vnpu(VnpuRequest::cores(cores).mem_bytes(1 << 30))
            .unwrap();
        let vnpu = hv.vnpu(vm).unwrap();
        let opts = CompileOptions {
            iterations: 64,
            weight_va_base: vnpu.va_base().value(),
            ..Default::default()
        };
        let out = compile(&model, cores, &cfg, &opts).unwrap();
        let mut machine = Machine::new(cfg.clone());
        let tenant = machine.add_tenant("gpt");
        for (v, p) in out.programs.iter().enumerate() {
            let vcore = VirtCoreId(v as u32);
            machine
                .bind_with(
                    vnpu.phys_core(vcore).unwrap(),
                    tenant,
                    v as u32,
                    p.clone(),
                    vnpu.services(vcore).unwrap(),
                )
                .unwrap();
        }
        machine.run().unwrap().fps(tenant)
    };
    let fps4 = run_long(4);
    let fps12 = run_long(12);
    assert!(
        fps12 > fps4 * 1.5,
        "pipeline scaling failed: {fps4:.1} -> {fps12:.1}"
    );
}

#[test]
fn headline_claim_vnpu_beats_mig_tdm_on_gpt2_large() {
    // The Figure 16 headline with a generous margin: exact 36-core
    // allocation must beat a 24-core TDM partition by >= 1.4x.
    let cfg = SocConfig::sim48();
    let model = models::gpt2_large();
    let opts = CompileOptions {
        iterations: 64, // past the 36-stage pipeline fill
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 36, &cfg, &opts).expect("compile");

    // vNPU: exact 36 cores.
    let vnpu_fps = {
        let mut hv = Hypervisor::new(cfg.clone());
        let vm = hv
            .create_vnpu(VnpuRequest::cores(36).mem_bytes(1 << 30))
            .expect("create");
        let vnpu = hv.vnpu(vm).expect("vnpu");
        let mut machine = Machine::new(cfg.clone());
        let tenant = machine.add_tenant("vnpu");
        for (v, p) in out.programs.iter().enumerate() {
            let vcore = VirtCoreId(v as u32);
            machine
                .bind_with(
                    vnpu.phys_core(vcore).unwrap(),
                    tenant,
                    v as u32,
                    p.clone(),
                    vnpu.services(vcore).unwrap(),
                )
                .unwrap();
        }
        machine.run().unwrap().fps(tenant)
    };

    // MIG: 24-core partition with TDM.
    let mig_fps = {
        let mut mig = vnpu::mig::MigPartitioner::standard(&cfg);
        let alloc = mig.allocate(36).expect("partition");
        assert!(alloc.is_tdm());
        let mut machine = Machine::new(cfg.clone());
        let tenant = machine.add_tenant("mig");
        for (v, p) in out.programs.iter().enumerate() {
            let services = vnpu_sim::machine::CoreServices {
                router: Box::new(vnpu_bench_router(&cfg, alloc.assignment().to_vec())),
                translator: Box::new(vnpu_mem::translate::PhysicalTranslator::new()),
                limiter: None,
            };
            machine
                .bind_with(alloc.assignment()[v], tenant, v as u32, p.clone(), services)
                .unwrap();
        }
        machine.run().unwrap().fps(tenant)
    };

    let speedup = vnpu_fps / mig_fps.max(1e-9);
    assert!(
        speedup > 1.4,
        "vNPU must beat MIG TDM clearly (got {speedup:.2}x; paper: up to 1.92x)"
    );
}

/// Minimal remap router for the MIG side of the headline test (mirrors
/// the bench crate's helper without depending on it).
fn vnpu_bench_router(cfg: &SocConfig, v2p: Vec<u32>) -> impl vnpu_sim::noc::NocRouter {
    struct Remap {
        dor: vnpu_sim::noc::DorRouter,
        v2p: Vec<u32>,
    }
    impl vnpu_sim::noc::NocRouter for Remap {
        fn resolve(&mut self, dst: u32) -> vnpu_sim::Result<(u32, u64)> {
            self.v2p
                .get(dst as usize)
                .map(|&p| (p, 0))
                .ok_or(vnpu_sim::SimError::RouteFault {
                    core: u32::MAX,
                    dst,
                })
        }
        fn path(&mut self, src: u32, dst: u32) -> vnpu_sim::Result<&[u32]> {
            self.dor.path(src, dst)
        }
        fn name(&self) -> String {
            "remap".to_owned()
        }
    }
    Remap {
        dor: vnpu_sim::noc::DorRouter::new(cfg),
        v2p,
    }
}

#[test]
fn virtualization_overhead_is_tiny() {
    // §6.3.3: vNPU vs bare metal < 1% — we allow 3% for model noise.
    let cfg = SocConfig::sim();
    let model = models::resnet34();
    let opts = CompileOptions {
        iterations: 4,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 12, &cfg, &opts).expect("compile");
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::cores(12).mem_bytes(1 << 30))
        .expect("create");
    let vnpu = hv.vnpu(vm).expect("vnpu");

    let run = |virtualized: bool| {
        let mut machine = Machine::new(cfg.clone());
        let tenant = machine.add_tenant("x");
        for (v, p) in out.programs.iter().enumerate() {
            let vcore = VirtCoreId(v as u32);
            let services = if virtualized {
                vnpu.services(vcore).unwrap()
            } else {
                vnpu_sim::machine::CoreServices {
                    router: Box::new(vnpu_bench_router(
                        &cfg,
                        vnpu.mapping().phys_nodes().iter().map(|n| n.0).collect(),
                    )),
                    translator: Box::new(vnpu_mem::translate::PhysicalTranslator::new()),
                    limiter: None,
                }
            };
            machine
                .bind_with(
                    vnpu.phys_core(vcore).unwrap(),
                    tenant,
                    v as u32,
                    p.clone(),
                    services,
                )
                .unwrap();
        }
        machine.run().unwrap().fps(tenant)
    };
    let virtualized = run(true);
    let bare = run(false);
    let overhead = 1.0 - virtualized / bare;
    assert!(
        overhead.abs() < 0.03,
        "virtualization overhead {overhead:.3} exceeds the paper's <1% envelope"
    );
}
