//! `paper_static`: 34 cells from the paper's static experiments.
//!
//! * Fig. 14 — six models × {Physical, Range-4 (vChunk), Page-32,
//!   Page-4} on the 8-core FPGA configuration, weights streamed from
//!   HBM, 16 iterations (24 cells);
//! * Fig. 15 — two transformer blocks × {vNPU, UVM-32} on a 2×2 virtual
//!   NPU, 32 iterations (4 cells);
//! * Fig. 16 — GPT2-small + ResNet34 on 36 cores and GPT2-small +
//!   GPT2-large on 48 cores × {vNPU, bare metal, MIG}, 96 iterations
//!   (6 cells).
//!
//! Set-up compiles every model and provisions every cell once; the
//! large-request mapper searches (24 and 36 cores) land there. An op is
//! one cell run: a fresh `Machine`, `bind_design`/`bind_mig`, and
//! `Machine::run`. The simulator is deterministic, so every round yields
//! the same frame rates, and from them the paper's three headline
//! ratios.

use crate::api::{
    bind_design, bind_mig, compile, models, CompileOptions, Design, Hypervisor, Machine, MemMode,
    MigAllocation, MigPartitioner, ModelGraph, Program, Report, Residency, RoutePolicy, SocConfig,
    VmId, VnpuRequest, GUEST_VA_BASE,
};
use crate::span::Recorder;
use std::time::Instant;

/// What one cell binds into its machine.
enum Binding {
    /// Virtual NPUs of one hypervisor under a virtualization design.
    Designed {
        hv: Box<Hypervisor>,
        design: Design,
        tenants: Vec<(VmId, Vec<Program>)>,
    },
    /// Fixed MIG partitions.
    Mig {
        tenants: Vec<(MigAllocation, Vec<Program>)>,
    },
}

/// One provisioned cell.
pub struct Cell {
    /// Figure the cell belongs to (14, 15 or 16).
    pub fig: u8,
    /// Row: the model (Fig. 14/15) or the chip scenario (Fig. 16).
    pub row: &'static str,
    /// Column: the memory mode or virtualization design.
    pub variant: &'static str,
    soc: SocConfig,
    binding: Binding,
    /// Programs the cell binds (one per virtual core, all tenants).
    pub bound_cores: usize,
}

/// What one cell run produced.
pub struct CellRun {
    /// Frames per second of each tenant, in binding order.
    pub fps: Vec<f64>,
    /// The simulator's report.
    pub report: Report,
}

impl Cell {
    /// `fig14/alexnet/range4`-style name.
    pub fn name(&self) -> String {
        format!("fig{}/{}/{}", self.fig, self.row, self.variant)
    }

    /// Runs the cell once: fresh machine, bind, run. With a recorder the
    /// three calls are child spans of one `op` root span.
    ///
    /// # Errors
    ///
    /// The simulator's error, rendered.
    pub fn run(&self, mut rec: Option<&mut Recorder>) -> Result<CellRun, String> {
        let span = enter_on(&mut rec, "sim.new");
        let mut machine = Machine::new(self.soc.clone());
        exit(&mut rec, span);

        let span = enter_on(&mut rec, "bench.bind");
        let tenants: Vec<_> = match &self.binding {
            Binding::Designed {
                hv,
                design,
                tenants,
            } => tenants
                .iter()
                .map(|(vm, programs)| {
                    bind_design(&mut machine, hv, *vm, programs, *design, self.row)
                })
                .collect(),
            Binding::Mig { tenants } => tenants
                .iter()
                .map(|(alloc, programs)| {
                    bind_mig(&mut machine, &self.soc, alloc, programs, self.row)
                })
                .collect(),
        };
        exit(&mut rec, span);

        let span = enter_on(&mut rec, "sim.run");
        let outcome = machine.run();
        exit(&mut rec, span);
        // Tearing the machine down is part of a cell's cost.
        let span = enter_on(&mut rec, "sim.drop");
        drop(machine);
        exit(&mut rec, span);
        let report = outcome.map_err(|e| format!("{}: {e}", self.name()))?;
        Ok(CellRun {
            fps: tenants.iter().map(|&t| report.fps(t)).collect(),
            report,
        })
    }
}

fn enter_on(rec: &mut Option<&mut Recorder>, name: &'static str) -> Option<crate::span::Open> {
    rec.as_deref_mut().map(|r| r.enter(name))
}

fn exit(rec: &mut Option<&mut Recorder>, open: Option<crate::span::Open>) {
    if let (Some(rec), Some(open)) = (rec.as_deref_mut(), open) {
        rec.exit(open);
    }
}

/// The provisioned suite and what provisioning it cost.
pub struct Suite {
    /// The 34 cells, in figure order.
    pub cells: Vec<Cell>,
    /// Wall of each `compile` call, in nanoseconds.
    pub compile_ns: Vec<u64>,
    /// Simulated configuration cycles each `create_vnpu` spent.
    pub create_cycles: Vec<u64>,
}

/// Compiles with the figure's options, timing the call.
fn compiled(
    model: &ModelGraph,
    cores: u32,
    soc: &SocConfig,
    opts: &CompileOptions,
    compile_ns: &mut Vec<u64>,
) -> Result<(Vec<Program>, u64), String> {
    let t = Instant::now();
    let out =
        compile(model, cores, soc, opts).map_err(|e| format!("compile {}: {e}", model.name()));
    compile_ns.push(t.elapsed().as_nanos() as u64);
    out.map(|o| (o.programs, o.va_footprint))
}

/// `create_vnpu`, recording the configuration cycles it cost.
fn provision(
    hv: &mut Hypervisor,
    req: VnpuRequest,
    create_cycles: &mut Vec<u64>,
) -> Result<VmId, String> {
    let before = hv.total_config_cycles();
    let vm = hv
        .create_vnpu(req)
        .map_err(|e| format!("create_vnpu: {e}"))?;
    create_cycles.push(hv.total_config_cycles() - before);
    Ok(vm)
}

// Constructor then field assignment, as `api.rs` prescribes.
#[allow(clippy::field_reassign_with_default)]
fn options(iterations: u32) -> CompileOptions {
    let mut opts = CompileOptions::default();
    opts.iterations = iterations;
    opts.weight_va_base = GUEST_VA_BASE;
    opts
}

/// Builds the suite: every compile and every `create_vnpu` of the 34
/// cells.
///
/// # Errors
///
/// A compile or provisioning failure, rendered.
pub fn build() -> Result<Suite, String> {
    let mut cells = Vec::with_capacity(34);
    let mut compile_ns = Vec::new();
    let mut create_cycles = Vec::new();

    // ---- Fig. 14: memory virtualization, 8 cores, streamed weights ----
    let fpga = SocConfig::fpga();
    let mut streamed = options(16);
    streamed.residency = Residency::Streamed;
    let fig14_models: [(&'static str, ModelGraph); 6] = [
        ("alexnet", models::alexnet()),
        ("resnet18", models::resnet18()),
        ("googlenet", models::googlenet()),
        ("mobilenet_v1", models::mobilenet_v1()),
        ("yolo_lite", models::yolo_lite()),
        ("bert_base", models::bert_base()),
    ];
    let modes = [
        ("physical", MemMode::Physical),
        ("range4", MemMode::Range { tlb_entries: 4 }),
        ("page32", MemMode::Page { tlb_entries: 32 }),
        ("page4", MemMode::Page { tlb_entries: 4 }),
    ];
    for (row, model) in &fig14_models {
        let (programs, footprint) = compiled(model, 8, &fpga, &streamed, &mut compile_ns)?;
        for (variant, mode) in modes {
            let mut hv = Hypervisor::new(fpga.clone());
            let mem = (footprint + (1 << 20)).max(64 << 20);
            let vm = provision(
                &mut hv,
                VnpuRequest::mesh(4, 2).mem_bytes(mem),
                &mut create_cycles,
            )?;
            cells.push(Cell {
                fig: 14,
                row,
                variant,
                soc: fpga.clone(),
                bound_cores: programs.len(),
                binding: Binding::Designed {
                    hv: Box::new(hv),
                    design: Design::VnpuWith(mode, RoutePolicy::Dor),
                    tenants: vec![(vm, programs.clone())],
                },
            });
        }
    }

    // ---- Fig. 15: vNPU vs UVM, transformer blocks on a 2×2 vNPU ----
    let sim = SocConfig::sim();
    let fig15_models: [(&'static str, ModelGraph); 2] = [
        ("transformer_block_128", models::transformer_block(128, 16)),
        ("transformer_block_64", models::transformer_block(64, 16)),
    ];
    for (row, model) in &fig15_models {
        let (programs, _) = compiled(model, 4, &sim, &options(32), &mut compile_ns)?;
        for (variant, design) in [("vnpu", Design::Vnpu), ("uvm32", Design::Uvm { iotlb: 32 })] {
            let mut hv = Hypervisor::new(sim.clone());
            let vm = provision(
                &mut hv,
                VnpuRequest::mesh(2, 2).mem_bytes(64 << 20),
                &mut create_cycles,
            )?;
            cells.push(Cell {
                fig: 15,
                row,
                variant,
                soc: sim.clone(),
                bound_cores: programs.len(),
                binding: Binding::Designed {
                    hv: Box::new(hv),
                    design,
                    tenants: vec![(vm, programs.clone())],
                },
            });
        }
    }

    // ---- Fig. 16: vNPU vs MIG vs bare metal, two tenants per chip ----
    // vNPU allocates exactly what each tenant wants; MIG's fixed halves
    // cap ResNet34 at 18 cores and push GPT2-large (36 virtual cores)
    // into time-division multiplexing on 24.
    let gpt_s = models::gpt2_small();
    let scenarios: [(&'static str, SocConfig, ModelGraph, u32, u32); 2] = [
        (
            "36c_gpt2s_resnet34",
            SocConfig::sim(),
            models::resnet34(),
            24,
            18,
        ),
        (
            "48c_gpt2s_gpt2l",
            SocConfig::sim48(),
            models::gpt2_large(),
            36,
            36,
        ),
    ];
    let opts = options(96);
    for (row, soc, big, want, mig_cores) in &scenarios {
        let (small_programs, _) = compiled(&gpt_s, 12, soc, &opts, &mut compile_ns)?;
        let (big_programs, _) = compiled(big, *want, soc, &opts, &mut compile_ns)?;
        for (variant, design) in [("vnpu", Design::Vnpu), ("bare", Design::BareMetal)] {
            let mut hv = Hypervisor::new(soc.clone());
            let a = provision(
                &mut hv,
                VnpuRequest::cores(12).mem_bytes(1 << 30),
                &mut create_cycles,
            )?;
            let b = provision(
                &mut hv,
                VnpuRequest::cores(*want).mem_bytes(1 << 30),
                &mut create_cycles,
            )?;
            cells.push(Cell {
                fig: 16,
                row,
                variant,
                soc: soc.clone(),
                bound_cores: small_programs.len() + big_programs.len(),
                binding: Binding::Designed {
                    hv: Box::new(hv),
                    design,
                    tenants: vec![(a, small_programs.clone()), (b, big_programs.clone())],
                },
            });
        }
        let mig_programs = if mig_cores == want {
            big_programs
        } else {
            compiled(big, *mig_cores, soc, &opts, &mut compile_ns)?.0
        };
        let mut mig = MigPartitioner::standard(soc);
        let alloc_a = mig
            .allocate(12)
            .map_err(|e| format!("MIG partition: {e}"))?;
        let alloc_b = mig
            .allocate(*mig_cores)
            .map_err(|e| format!("MIG partition: {e}"))?;
        cells.push(Cell {
            fig: 16,
            row,
            variant: "mig",
            soc: soc.clone(),
            bound_cores: small_programs.len() + mig_programs.len(),
            binding: Binding::Mig {
                tenants: vec![(alloc_a, small_programs), (alloc_b, mig_programs)],
            },
        });
    }
    Ok(Suite {
        cells,
        compile_ns,
        create_cycles,
    })
}

/// The frame-rate table of one round: `fps[cell][tenant]`.
pub type FpsTable = Vec<Vec<f64>>;

/// The paper's ratios, formed from one round's frame rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratios {
    /// Mean over the six Fig. 14 models of fps(Range-4) / fps(Physical).
    pub vchunk_vs_phys: f64,
    /// Same mean for Page-32.
    pub page32_vs_phys: f64,
    /// Same mean for Page-4.
    pub page4_vs_phys: f64,
    /// Mean transformer-block fps(vNPU) / fps(UVM-32).
    pub vnpu_vs_uvm: f64,
    /// 48-core GPT2-large fps(vNPU) / fps(MIG).
    pub vnpu_vs_mig: f64,
    /// Largest |1 − fps(vNPU) / fps(bare metal)| over both chips' big
    /// tenant.
    pub bare_metal_overhead: f64,
}

impl Suite {
    fn fps(&self, table: &FpsTable, fig: u8, row: &str, variant: &str, tenant: usize) -> f64 {
        self.cells
            .iter()
            .position(|c| c.fig == fig && c.row == row && c.variant == variant)
            .and_then(|i| table[i].get(tenant).copied())
            .unwrap_or(f64::NAN)
    }

    fn rows(&self, fig: u8) -> Vec<&'static str> {
        let mut rows: Vec<&'static str> = Vec::new();
        for c in self.cells.iter().filter(|c| c.fig == fig) {
            if !rows.contains(&c.row) {
                rows.push(c.row);
            }
        }
        rows
    }

    /// The ratios of one round's frame rates.
    pub fn ratios(&self, table: &FpsTable) -> Ratios {
        let mean_vs = |fig: u8, num: &str, den: &str, tenant: usize| {
            let rows = self.rows(fig);
            rows.iter()
                .map(|row| {
                    self.fps(table, fig, row, num, tenant) / self.fps(table, fig, row, den, tenant)
                })
                .sum::<f64>()
                / rows.len() as f64
        };
        let overhead = |row: &str| {
            (1.0 - self.fps(table, 16, row, "vnpu", 1) / self.fps(table, 16, row, "bare", 1)).abs()
        };
        Ratios {
            vchunk_vs_phys: mean_vs(14, "range4", "physical", 0),
            page32_vs_phys: mean_vs(14, "page32", "physical", 0),
            page4_vs_phys: mean_vs(14, "page4", "physical", 0),
            vnpu_vs_uvm: mean_vs(15, "vnpu", "uvm32", 0),
            vnpu_vs_mig: self.fps(table, 16, "48c_gpt2s_gpt2l", "vnpu", 1)
                / self.fps(table, 16, "48c_gpt2s_gpt2l", "mig", 1),
            bare_metal_overhead: overhead("36c_gpt2s_resnet34").max(overhead("48c_gpt2s_gpt2l")),
        }
    }
}

/// The paper's orderings, as gate failures (empty when they hold). NaN
/// ratios — a missing cell — fail every comparison.
pub fn gate(r: &Ratios) -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    check(
        r.vchunk_vs_phys >= 0.95,
        format!(
            "vChunk must stay within 5% of physical memory: {}",
            r.vchunk_vs_phys
        ),
    );
    check(
        r.page32_vs_phys >= r.page4_vs_phys,
        format!(
            "a 32-entry IOTLB must not lose to a 4-entry one: {} < {}",
            r.page32_vs_phys, r.page4_vs_phys
        ),
    );
    check(
        r.vnpu_vs_uvm > 1.5,
        format!(
            "vNPU must clearly beat UVM on transformer blocks: {}",
            r.vnpu_vs_uvm
        ),
    );
    check(
        r.vnpu_vs_mig > 1.4,
        format!("TDM must cost MIG dearly on GPT2-large: {}", r.vnpu_vs_mig),
    );
    check(
        r.bare_metal_overhead < 0.03,
        format!(
            "vNPU must cost under 3% against bare metal: {}",
            r.bare_metal_overhead
        ),
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratios() -> Ratios {
        Ratios {
            vchunk_vs_phys: 1.0,
            page32_vs_phys: 0.9,
            page4_vs_phys: 0.8,
            vnpu_vs_uvm: 2.5,
            vnpu_vs_mig: 1.7,
            bare_metal_overhead: 0.001,
        }
    }

    #[test]
    fn gate_pins_each_ordering() {
        assert_eq!(gate(&ratios()), Vec::<String>::new());
        let broken = [
            Ratios {
                vchunk_vs_phys: 0.94,
                ..ratios()
            },
            Ratios {
                page32_vs_phys: 0.7,
                ..ratios()
            },
            Ratios {
                vnpu_vs_uvm: 1.5,
                ..ratios()
            },
            Ratios {
                vnpu_vs_mig: 1.4,
                ..ratios()
            },
            Ratios {
                bare_metal_overhead: 0.03,
                ..ratios()
            },
            Ratios {
                vnpu_vs_mig: f64::NAN,
                ..ratios()
            },
        ];
        for r in broken {
            assert_eq!(gate(&r).len(), 1, "{r:?}");
        }
    }
}
