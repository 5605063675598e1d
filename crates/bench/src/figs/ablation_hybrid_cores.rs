//! **Ablation (§7)** — hybrid NPU cores: "vNPU may adopt hybrid NPU
//! cores, one optimized for matrix operations and the other for vector
//! computations. Tenants can then allocate varying ratios of these two
//! types of NPU cores according to their needs, using a virtual
//! topology."
//!
//! A matrix-heavy GPT pipeline and a vector-heavy post-processing
//! pipeline each run on (a) uniform cores and (b) a hybrid chip where the
//! tenant picked core kinds matching its stages. Matching kinds must beat
//! uniform for both tenants.

use crate::render_table;
use vnpu::{Hypervisor, VirtCoreId, VnpuRequest};
use vnpu_sim::isa::{Instr, Kernel, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_workloads::compile::{compile, CompileOptions};
use vnpu_workloads::models;

/// Runs GPT2-small (matrix-heavy) on 8 cores; `hybrid` upgrades those
/// cores to matrix-optimized (2x systolic array, half vector unit).
fn matrix_tenant(cfg: &SocConfig, hybrid: bool, iterations: u32) -> f64 {
    let model = models::gpt2_small();
    let opts = CompileOptions {
        iterations,
        weight_va_base: vnpu::vnpu::GUEST_VA_BASE,
        ..Default::default()
    };
    let out = compile(&model, 8, cfg, &opts).expect("compile");
    let mut hv = Hypervisor::new(cfg.clone());
    let vm = hv
        .create_vnpu(VnpuRequest::mesh(4, 2).mem_bytes(1 << 30))
        .expect("vNPU");
    let vnpu = hv.vnpu(vm).unwrap();
    let mut machine = Machine::new(cfg.clone());
    let tenant = machine.add_tenant("matrix");
    for (v, p) in out.programs.iter().enumerate() {
        let vcore = VirtCoreId(v as u32);
        let phys = vnpu.phys_core(vcore).unwrap();
        if hybrid {
            machine.set_core_scales(phys, 50, 200).unwrap();
        }
        machine
            .bind_with(
                phys,
                tenant,
                v as u32,
                p.clone(),
                vnpu.services(vcore).unwrap(),
            )
            .unwrap();
    }
    machine.run().unwrap().fps(tenant)
}

/// A vector-heavy tenant (normalization/augmentation pipeline): chains of
/// large element-wise kernels across 4 cores.
fn vector_tenant(cfg: &SocConfig, hybrid: bool, iterations: u32, elems: u64) -> f64 {
    let mut machine = Machine::new(cfg.clone());
    let tenant = machine.add_tenant("vector");
    for c in 0..4u32 {
        let phys = 8 + c; // row 1 of the 6x6 mesh
        if hybrid {
            machine.set_core_scales(phys, 200, 50).unwrap();
        }
        let mut body = vec![Instr::Compute(Kernel::Vector { elems })];
        if c < 3 {
            body.push(Instr::send(c + 1, 64 * 1024, 0));
        }
        if c > 0 {
            body.insert(0, Instr::recv(c - 1, 64 * 1024, 0));
        }
        let mut services = vnpu_sim::machine::CoreServices::bare_metal(cfg);
        services.router = Box::new(crate::RemapRouter::new(cfg, (8..12).collect::<Vec<u32>>()));
        machine
            .bind_with(
                phys,
                tenant,
                c,
                Program::looped(vec![], body, iterations),
                services,
            )
            .unwrap();
    }
    machine.run().unwrap().fps(tenant)
}

/// Compares uniform vs. matched-hybrid cores for both tenant styles.
pub fn run() -> String {
    let cfg = SocConfig::sim();
    let m_uniform = matrix_tenant(&cfg, false, 24);
    let m_hybrid = matrix_tenant(&cfg, true, 24);
    let v_uniform = vector_tenant(&cfg, false, 24, 2_000_000);
    let v_hybrid = vector_tenant(&cfg, true, 24, 2_000_000);
    let mut out = render_table(
        "Ablation (§7): hybrid matrix/vector cores vs uniform cores",
        &["tenant", "uniform fps", "matched-hybrid fps", "speedup"],
        &[
            vec![
                "GPT2-small (matrix-heavy)".into(),
                format!("{m_uniform:.1}"),
                format!("{m_hybrid:.1}"),
                format!("{:.2}x", m_hybrid / m_uniform),
            ],
            vec![
                "vector pipeline".into(),
                format!("{v_uniform:.1}"),
                format!("{v_hybrid:.1}"),
                format!("{:.2}x", v_hybrid / v_uniform),
            ],
        ],
    );
    out += "\nTenants that allocate core kinds matching their kernels gain throughput from \
            the same silicon budget — the §7 hybrid-core proposal.\n";
    // Matched kinds can only speed their bottleneck up.
    assert!(
        m_hybrid > m_uniform * 1.2,
        "matrix tenant must gain on matrix cores"
    );
    assert!(
        v_hybrid > v_uniform * 1.2,
        "vector tenant must gain on vector cores"
    );
    out
}
