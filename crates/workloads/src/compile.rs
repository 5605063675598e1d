//! Compilation: lowering a [`ModelGraph`] + partition into per-core
//! [`Program`]s.
//!
//! The lowering follows the paper's NPU workflow (§4.2): "each NPU core
//! first loads model weights from the global memory (HBM) into its local
//! memory (SRAM). After the computation, activations or results are
//! transferred directly via inter-core connections to the next layer."
//!
//! Two weight-residency regimes exist:
//!
//! * **Resident** — weights fit the scratchpad; they are DMA-loaded once
//!   in the prelude (this is the warm-up phase of Figure 16).
//! * **Streamed** — weights are re-loaded every iteration (the memory
//!   burst of §4.2, which makes translation overhead visible — the
//!   Figure 14 regime, and the source of the Figure 6 repeating traces).
//!
//! Communication lowers to NoC sends/receives, or to global-memory
//! synchronization for the UVM baseline.

use crate::graph::{LayerId, ModelGraph};
use crate::partition;
use crate::{Result, WorkloadError};
use vnpu_mem::VirtAddr;
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::SocConfig;

/// How cross-core activations travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommMode {
    /// Direct inter-core sends over the NoC (the vNPU/data-flow design).
    #[default]
    Noc,
    /// Global-memory synchronization (the UVM baseline: write + flag +
    /// re-read through HBM).
    Uvm,
}

/// Weight residency regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Residency {
    /// Pick [`Residency::Resident`] when every stage fits the scratchpad,
    /// else [`Residency::Streamed`].
    #[default]
    Auto,
    /// Load all weights once in the prelude.
    Resident,
    /// Reload weights from HBM every iteration.
    Streamed,
}

/// Compiler options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Body iterations (inference frames).
    pub iterations: u32,
    /// Communication lowering.
    pub comm: CommMode,
    /// Weight residency regime.
    pub residency: Residency,
    /// Base guest-VA of the weight region (the hypervisor's
    /// `GUEST_VA_BASE` when running virtualized).
    pub weight_va_base: u64,
    /// Column-split heavy layers so the pipeline can use all cores
    /// ([`crate::transform::split_for_stages`]); on by default.
    pub tensor_split: bool,
    /// Bulk-synchronous (Poplar-style) execution: every iteration is a
    /// superstep — all cores compute, then exchange *simultaneously*
    /// behind a barrier. Exchange contention lands on the critical path,
    /// which is what makes topology mapping matter (Figure 18). Off by
    /// default (asynchronously pipelined execution).
    pub bsp: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            iterations: 8,
            comm: CommMode::Noc,
            residency: Residency::Auto,
            weight_va_base: 0x1000_0000,
            tensor_split: true,
            bsp: false,
        }
    }
}

/// Barrier ID used for BSP superstep synchronization.
pub const BSP_BARRIER: u32 = 0xB5B;

/// A compiled workload: one program per virtual core.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    /// Programs indexed by virtual core ID (= pipeline stage).
    pub programs: Vec<Program>,
    /// Guest-VA bytes consumed (weights + UVM sync buffers).
    pub va_footprint: u64,
    /// Bytes flowing between each pair of stages per iteration.
    pub stage_traffic: Vec<((u32, u32), u64)>,
}

impl CompiledWorkload {
    /// The communication topology of the compiled pipeline: one node per
    /// virtual core, one edge per pair of stages that exchange
    /// activations, with the edge cost scaled by traffic volume. This is
    /// the "user topology" of Figure 17/18 — hand it to
    /// [`vnpu_topo::mapping`] (via a `VnpuRequest::custom`) so the
    /// allocator keeps communicating stages physically adjacent.
    pub fn comm_topology(&self) -> vnpu_topo::Topology {
        let n = self.programs.len();
        let mut t = vnpu_topo::Topology::empty(n);
        let max_bytes = self
            .stage_traffic
            .iter()
            .map(|(_, b)| *b)
            .max()
            .unwrap_or(1)
            .max(1);
        for &((a, b), bytes) in &self.stage_traffic {
            // Critical (high-traffic) edges get proportionally larger
            // deletion costs (the paper's customized EdgeMatch).
            let cost = 1 + (4 * bytes / max_bytes);
            let _ = t.add_edge_with(
                vnpu_topo::NodeId(a),
                vnpu_topo::NodeId(b),
                vnpu_topo::EdgeAttr { cost },
            );
        }
        t
    }
}

/// Compiles `graph` onto `n_cores` virtual cores.
///
/// # Errors
///
/// * [`WorkloadError::NoCores`] — `n_cores == 0`.
/// * [`WorkloadError::StageTooLarge`] — a stage's resident set (or, when
///   streaming, its largest single tensor) exceeds the scratchpad.
pub fn compile(
    graph: &ModelGraph,
    n_cores: u32,
    cfg: &SocConfig,
    opts: &CompileOptions,
) -> Result<CompiledWorkload> {
    // Tensor-parallel splitting of heavy layers, so throughput can scale
    // past the heaviest single operator.
    let split_graph;
    let graph = if opts.tensor_split && n_cores > 1 {
        split_graph = crate::transform::split_for_stages(graph, n_cores, cfg);
        &split_graph
    } else {
        graph
    };
    let part = partition::partition(graph, n_cores, cfg)?;
    let stages = part.len();

    // Embedding tables live in HBM permanently; only the gathered rows
    // cross into the scratchpad (per iteration), so `Embed` weights never
    // count towards residency.
    let resident_weight = |l: LayerId| {
        let layer = graph.layer(l);
        if layer.kind == crate::graph::LayerKind::Embed {
            0
        } else {
            layer.weight_bytes
        }
    };
    let stage_resident: Vec<u64> = (0..stages)
        .map(|s| part.stages()[s].iter().map(|&l| resident_weight(l)).sum())
        .collect();

    // Decide residency.
    let residency = match opts.residency {
        Residency::Resident => Residency::Resident,
        Residency::Streamed => Residency::Streamed,
        Residency::Auto => {
            if stage_resident.iter().max().copied().unwrap_or(0) <= cfg.scratchpad_bytes {
                Residency::Resident
            } else {
                Residency::Streamed
            }
        }
    };
    // Capacity check: only the resident regime can be infeasible —
    // streaming slices oversized tensors through a double buffer.
    if residency == Residency::Resident {
        for (s, &bytes) in stage_resident.iter().enumerate() {
            if bytes > cfg.scratchpad_bytes {
                return Err(WorkloadError::StageTooLarge {
                    stage: s,
                    bytes,
                    capacity: cfg.scratchpad_bytes,
                });
            }
        }
    }
    // Streaming double-buffer slice: half the scratchpad.
    let slice_cap = (cfg.scratchpad_bytes / 2).max(1);

    // Weight VA assignment (bump allocation in layer order).
    let mut va = opts.weight_va_base;
    let mut weight_va = vec![0u64; graph.len()];
    for (i, l) in graph.layers().iter().enumerate() {
        weight_va[i] = va;
        va += l.weight_bytes;
    }

    // UVM sync-buffer VAs per cross-stage edge, plus stage-level traffic
    // accounting for the communication topology.
    let consumers = graph.consumers();
    let mut edge_va = std::collections::HashMap::new();
    let mut traffic: std::collections::BTreeMap<(u32, u32), u64> =
        std::collections::BTreeMap::new();
    for (i, cons) in consumers.iter().enumerate() {
        let p = LayerId(i as u32);
        for &c in cons {
            let (sp, sc) = (part.stage_of(p), part.stage_of(c));
            if sp != sc {
                *traffic.entry((sp.min(sc), sp.max(sc))).or_insert(0) +=
                    graph.layer(p).out_bytes.max(1);
                if opts.comm == CommMode::Uvm {
                    edge_va.insert((p, c), va);
                    va += graph.layer(p).out_bytes.max(64);
                }
            }
        }
    }
    let va_footprint = va - opts.weight_va_base;

    // Emit per-stage programs.
    let mut programs = Vec::with_capacity(n_cores as usize);
    for (s, &stage_bytes) in stage_resident.iter().enumerate() {
        let mut prelude = Vec::new();
        let mut body = Vec::new();
        let owned = &part.stages()[s];
        // Weight loads.
        for &l in owned {
            let layer = graph.layer(l);
            if layer.kind == crate::graph::LayerKind::Embed {
                // Per-iteration gather of the rows actually used.
                if layer.out_bytes > 0 {
                    body.push(Instr::DmaLoad {
                        va: VirtAddr(weight_va[l.index()]),
                        bytes: layer.out_bytes,
                    });
                }
                continue;
            }
            if layer.weight_bytes == 0 {
                continue;
            }
            match residency {
                Residency::Streamed => {
                    // Slice oversized tensors through the double buffer.
                    let mut off = 0u64;
                    while off < layer.weight_bytes {
                        let len = slice_cap.min(layer.weight_bytes - off);
                        body.push(Instr::DmaLoad {
                            va: VirtAddr(weight_va[l.index()] + off),
                            bytes: len,
                        });
                        off += len;
                    }
                }
                _ => prelude.push(Instr::DmaLoad {
                    va: VirtAddr(weight_va[l.index()]),
                    bytes: layer.weight_bytes,
                }),
            }
        }
        // Compute + communication.
        let recv_of = |d: LayerId, l: LayerId| match opts.comm {
            CommMode::Noc => Instr::Recv {
                src: part.stage_of(d),
                bytes: graph.layer(d).out_bytes.max(1),
                tag: edge_tag(d, l),
            },
            CommMode::Uvm => Instr::GlobalRead {
                va: VirtAddr(edge_va[&(d, l)]),
                bytes: graph.layer(d).out_bytes.max(64),
                tag: edge_tag(d, l),
            },
        };
        let send_of = |l: LayerId, c: LayerId| match opts.comm {
            CommMode::Noc => Instr::Send {
                dst: part.stage_of(c),
                bytes: graph.layer(l).out_bytes.max(1),
                tag: edge_tag(l, c),
            },
            CommMode::Uvm => Instr::GlobalWrite {
                va: VirtAddr(edge_va[&(l, c)]),
                bytes: graph.layer(l).out_bytes.max(64),
                tag: edge_tag(l, c),
            },
        };
        if opts.bsp {
            // Superstep: compute everything, launch all sends, barrier,
            // then receive this superstep's exchange. All tenants' flows
            // fly concurrently during the exchange, so link contention
            // (and therefore the topology mapping) is on the critical
            // path — matching the IPU's bulk-synchronous execution.
            for &l in owned {
                body.push(Instr::Compute(graph.layer(l).kernel));
            }
            for &l in owned {
                for &c in &consumers[l.index()] {
                    if part.stage_of(c) != s as u32 {
                        body.push(send_of(l, c));
                    }
                }
            }
            body.push(Instr::Barrier { id: BSP_BARRIER });
            for &l in owned {
                for &d in &graph.layer(l).deps {
                    if part.stage_of(d) != s as u32 {
                        body.push(recv_of(d, l));
                    }
                }
            }
        } else {
            // Asynchronously pipelined execution, in topological order.
            for &l in owned {
                let layer = graph.layer(l);
                for &d in &layer.deps {
                    if part.stage_of(d) != s as u32 {
                        body.push(recv_of(d, l));
                    }
                }
                body.push(Instr::Compute(layer.kernel));
                for &c in &consumers[l.index()] {
                    if part.stage_of(c) != s as u32 {
                        body.push(send_of(l, c));
                    }
                }
            }
        }
        let footprint = match residency {
            Residency::Streamed => owned
                .iter()
                .map(|&l| resident_weight(l).min(slice_cap))
                .max()
                .unwrap_or(0),
            _ => stage_bytes,
        };
        programs.push(Program::looped(prelude, body, opts.iterations).with_footprint(footprint));
    }
    // Pad with idle programs if more cores than layers. Under BSP, idle
    // cores still participate in the superstep barrier.
    while programs.len() < n_cores as usize {
        if opts.bsp {
            programs.push(Program::looped(
                vec![],
                vec![Instr::Barrier { id: BSP_BARRIER }],
                opts.iterations,
            ));
        } else {
            programs.push(Program::default());
        }
    }
    Ok(CompiledWorkload {
        programs,
        va_footprint,
        stage_traffic: traffic.into_iter().collect(),
    })
}

/// Unique tag for the activation edge `producer → consumer`.
pub fn edge_tag(producer: LayerId, consumer: LayerId) -> u32 {
    (producer.0 << 16) | (consumer.0 & 0xffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn cfg() -> SocConfig {
        SocConfig::sim()
    }

    #[test]
    fn sends_match_recvs() {
        let g = models::resnet18();
        let out = compile(&g, 9, &cfg(), &CompileOptions::default()).unwrap();
        let mut sends = std::collections::HashMap::new();
        let mut recvs = std::collections::HashMap::new();
        for (s, p) in out.programs.iter().enumerate() {
            for i in &p.body {
                match *i {
                    Instr::Send { dst, bytes, tag } => {
                        sends.insert((s as u32, dst, tag), bytes);
                    }
                    Instr::Recv { src, bytes, tag } => {
                        recvs.insert((src, s as u32, tag), bytes);
                    }
                    _ => {}
                }
            }
        }
        assert!(!sends.is_empty());
        assert_eq!(sends, recvs, "every send needs a matching recv");
    }

    #[test]
    fn cross_edges_only_go_forward() {
        let g = models::resnet34();
        let out = compile(&g, 12, &cfg(), &CompileOptions::default()).unwrap();
        for (s, p) in out.programs.iter().enumerate() {
            for i in &p.body {
                if let Instr::Send { dst, .. } = i {
                    assert!(
                        *dst > s as u32,
                        "contiguous forward partition implies forward sends"
                    );
                }
            }
        }
    }

    #[test]
    fn resident_on_sim_config() {
        let g = models::gpt2_small();
        let out = compile(&g, 12, &cfg(), &CompileOptions::default()).unwrap();
        // Block weights only in preludes; body DMA is limited to small
        // embedding gathers (rows used this iteration, not the table).
        for p in &out.programs {
            for i in &p.body {
                if let Instr::DmaLoad { bytes, .. } = i {
                    assert!(
                        *bytes < 1 << 20,
                        "body load of {bytes} bytes is not a gather"
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_on_fpga_config() {
        // AlexNet's 61 MB across 8 tiny 512 KiB scratchpads must stream.
        let g = models::alexnet();
        let out = compile(&g, 8, &SocConfig::fpga(), &CompileOptions::default()).unwrap();
        // Weight loads are in the body (per iteration).
        let body_loads = out
            .programs
            .iter()
            .flat_map(|p| &p.body)
            .filter(|i| matches!(i, Instr::DmaLoad { .. }))
            .count();
        assert!(body_loads > 0);
    }

    #[test]
    fn stage_too_large_detected_when_residency_forced() {
        // A 1 GiB layer cannot be resident in a 512 KiB scratchpad; forcing
        // Residency::Resident must fail, while Auto falls back to
        // streaming with sliced loads.
        use crate::graph::{GraphBuilder, LayerKind};
        use vnpu_sim::isa::Kernel;
        let mut b = GraphBuilder::new();
        b.chain(
            "fat",
            LayerKind::Fc,
            Kernel::Matmul {
                m: 1,
                k: 32768,
                n: 32768,
            },
            1 << 30,
            64,
        );
        let g = b.build("fat").unwrap();
        let forced = CompileOptions {
            residency: Residency::Resident,
            ..Default::default()
        };
        assert!(matches!(
            compile(&g, 1, &SocConfig::fpga(), &forced),
            Err(WorkloadError::StageTooLarge { .. })
        ));
        let auto = compile(&g, 1, &SocConfig::fpga(), &CompileOptions::default()).unwrap();
        // Sliced into <= scratchpad/2 loads.
        let max_load = auto
            .programs
            .iter()
            .flat_map(|p| &p.body)
            .filter_map(|i| match i {
                Instr::DmaLoad { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(max_load <= SocConfig::fpga().scratchpad_bytes / 2);
    }

    #[test]
    fn uvm_mode_has_no_noc_ops() {
        let g = models::resnet18();
        let opts = CompileOptions {
            comm: CommMode::Uvm,
            ..Default::default()
        };
        let out = compile(&g, 9, &cfg(), &opts).unwrap();
        for p in &out.programs {
            for i in p.prelude.iter().chain(&p.body) {
                assert!(!matches!(i, Instr::Send { .. } | Instr::Recv { .. }));
            }
        }
        // Writers and readers agree on buffers.
        let mut writes = std::collections::HashMap::new();
        let mut reads = std::collections::HashMap::new();
        for p in &out.programs {
            for i in &p.body {
                match *i {
                    Instr::GlobalWrite { va, tag, .. } => {
                        writes.insert(tag, va);
                    }
                    Instr::GlobalRead { va, tag, .. } => {
                        reads.insert(tag, va);
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(writes, reads);
    }

    #[test]
    fn padding_for_extra_cores_without_splitting() {
        let g = models::transformer_block(64, 16);
        let opts = CompileOptions {
            tensor_split: false,
            ..Default::default()
        };
        let out = compile(&g, 32, &cfg(), &opts).unwrap();
        assert_eq!(out.programs.len(), 32);
        assert!(out.programs[31].is_empty());
    }

    #[test]
    fn tensor_split_fills_extra_cores() {
        // Large block: its matmuls can split across tile boundaries.
        let g = models::transformer_block(512, 64);
        let out = compile(&g, 32, &cfg(), &CompileOptions::default()).unwrap();
        assert_eq!(out.programs.len(), 32);
        let active = out.programs.iter().filter(|p| !p.is_empty()).count();
        assert!(
            active > 16,
            "splitting must spread work over the cores: {active}"
        );
    }

    #[test]
    fn tensor_split_refuses_useless_splits() {
        // Tiny block: every kernel fits one systolic tile, so splitting
        // cannot reduce cycles and the compiler must leave cores idle
        // rather than add pure overhead.
        let g = models::transformer_block(64, 16);
        let out = compile(&g, 32, &cfg(), &CompileOptions::default()).unwrap();
        let active = out.programs.iter().filter(|p| !p.is_empty()).count();
        assert!(active <= g.len() + 8, "useless splits detected");
    }

    #[test]
    fn footprints_fit_scratchpad() {
        let g = models::gpt2_medium();
        let c = cfg();
        let out = compile(&g, 24, &c, &CompileOptions::default()).unwrap();
        for p in &out.programs {
            assert!(p.footprint_bytes <= c.scratchpad_bytes);
        }
    }

    #[test]
    fn weight_vas_are_disjoint_and_ordered() {
        let g = models::yolo_lite();
        let out = compile(&g, 4, &cfg(), &CompileOptions::default()).unwrap();
        let mut loads: Vec<(u64, u64)> = out
            .programs
            .iter()
            .flat_map(|p| p.prelude.iter().chain(&p.body))
            .filter_map(|i| match i {
                Instr::DmaLoad { va, bytes } => Some((va.value(), *bytes)),
                _ => None,
            })
            .collect();
        loads.sort_unstable();
        for w in loads.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping weight tensors");
        }
    }

    #[test]
    fn iterations_respected() {
        let g = models::yolo_lite();
        let opts = CompileOptions {
            iterations: 3,
            ..Default::default()
        };
        let out = compile(&g, 2, &cfg(), &opts).unwrap();
        assert!(out.programs.iter().all(|p| p.iterations == 3));
    }

    #[test]
    fn edge_tags_unique_per_edge() {
        assert_ne!(
            edge_tag(LayerId(1), LayerId(2)),
            edge_tag(LayerId(2), LayerId(1))
        );
        assert_ne!(
            edge_tag(LayerId(1), LayerId(2)),
            edge_tag(LayerId(1), LayerId(3))
        );
    }
}
