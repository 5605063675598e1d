//! Criterion-style micro-benchmarks for the hot data-structure paths:
//! range-TLB translation, page-TLB translation, routing-table lookup,
//! graph edit distance, Hungarian assignment, connected-subgraph
//! enumeration, and the serve loop's execution phase (one services build,
//! a fresh chip epoch, a reused one) — running on the in-repo harness
//! ([`vnpu_bench::harness`]; the `criterion` crate is unavailable in
//! this offline workspace). Pass `-- --quick` for a sub-second pass.

use std::hint::black_box;
use vnpu::routing_table::RoutingTable;
use vnpu::{Hypervisor, PhysCoreId, VirtCoreId, VmId, VnpuRequest};
use vnpu_bench::harness::{BatchSize, Criterion};
use vnpu_bench::{criterion_group, criterion_main};
use vnpu_mem::page::{PageTable, PageTranslator};
use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
use vnpu_mem::{Perm, PhysAddr, Translate, TranslationCosts, VirtAddr};
use vnpu_serve::arrivals::Shape;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::Machine;
use vnpu_sim::SocConfig;
use vnpu_topo::mapping::{Mapper, Strategy};
use vnpu_topo::{enumerate, ged, hungarian, MeshShape, NodeId, Topology, UniformCosts};

fn bench_translation(c: &mut Criterion) {
    let mut g = c.benchmark_group("translation");
    let entries: Vec<RttEntry> = (0..32u64)
        .map(|i| {
            RttEntry::new(
                VirtAddr(i * 0x10_0000),
                PhysAddr(i * 0x10_0000),
                0x10_0000,
                Perm::RW,
            )
        })
        .collect();
    g.bench_function("range_tlb_stream", |b| {
        b.iter_batched(
            || {
                RangeTranslator::new(
                    RangeTranslationTable::new(entries.clone()).unwrap(),
                    4,
                    TranslationCosts::default(),
                )
            },
            |mut tr| {
                for i in 0..512u64 {
                    black_box(
                        tr.translate(VirtAddr((i * 0x1_0000) % (32 * 0x10_0000)), 2048, Perm::R)
                            .unwrap(),
                    );
                }
            },
            BatchSize::SmallInput,
        )
    });
    let mut pt = PageTable::new(4096);
    pt.map_range(VirtAddr(0), PhysAddr(0), 32 * 0x10_0000, Perm::RW)
        .unwrap();
    g.bench_function("page_tlb_stream", |b| {
        b.iter_batched(
            || PageTranslator::new(pt.clone(), 32, TranslationCosts::default()),
            |mut tr| {
                for i in 0..512u64 {
                    black_box(
                        tr.translate(VirtAddr((i * 0x1_0000) % (32 * 0x10_0000)), 2048, Perm::R)
                            .unwrap(),
                    );
                }
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_table");
    let standard = RoutingTable::from_dense(VmId(0), &(0..36).collect::<Vec<_>>());
    let mesh = RoutingTable::mesh2d(
        VmId(0),
        PhysCoreId(7),
        MeshShape {
            width: 6,
            height: 6,
        },
        8,
    );
    g.bench_function("standard_lookup", |b| {
        b.iter(|| {
            for v in 0..36u32 {
                black_box(standard.lookup(black_box(vnpu::VirtCoreId(v))));
            }
        })
    });
    g.bench_function("mesh_lookup", |b| {
        b.iter(|| {
            for v in 0..36u32 {
                black_box(mesh.lookup(black_box(vnpu::VirtCoreId(v))));
            }
        })
    });
    g.finish();
}

fn bench_mapping(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology_mapping");
    g.sample_size(20);
    let a = Topology::mesh2d(2, 3);
    let b2 = Topology::ring(6);
    g.bench_function("ged_exact_6", |b| {
        b.iter(|| black_box(ged::ged_exact(&a, &b2, &UniformCosts)))
    });
    let big_a = Topology::mesh2d(4, 4);
    let big_b = Topology::mesh2d(8, 2);
    g.bench_function("ged_bipartite_16", |b| {
        b.iter(|| black_box(ged::ged_bipartite(&big_a, &big_b, &UniformCosts)))
    });
    let cost: Vec<Vec<u64>> = (0..32)
        .map(|i| (0..32).map(|j| ((i * 31 + j * 17) % 97) as u64).collect())
        .collect();
    g.bench_function("hungarian_32", |b| {
        b.iter(|| black_box(hungarian::solve(&cost)))
    });
    let mesh = Topology::mesh2d(5, 5);
    let free: Vec<NodeId> = mesh.nodes().collect();
    g.bench_function("enumerate_3x3_of_5x5", |b| {
        b.iter(|| {
            black_box(enumerate::connected_candidates(&mesh, &free, 9, 2000).len());
        })
    });
    let req = Topology::mesh2d(3, 3);
    let free_locked: Vec<NodeId> = mesh
        .nodes()
        .filter(|n| !(n.0 % 5 < 3 && n.0 / 5 < 3))
        .collect();
    g.bench_function("similar_mapping_locked_5x5", |b| {
        b.iter(|| {
            let m = Mapper::new(&mesh);
            black_box(
                m.map(
                    &free_locked,
                    &req,
                    &Strategy::similar_topology().candidate_cap(2000),
                )
                .unwrap(),
            );
        })
    });
    g.finish();
}

/// The serve loop's execution phase, piece by piece, on a chip running
/// one 3×3 tenant (nine threads of the ring program).
fn bench_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("execution");
    let mut hv = Hypervisor::new(SocConfig::sim());
    let vm = hv.create_vnpu(VnpuRequest::mesh(3, 3)).unwrap();
    g.bench_function("services_build", |b| {
        b.iter(|| black_box(hv.services(vm, VirtCoreId(4)).unwrap()))
    });
    // What a chip pays when its epoch inputs changed: bind every core's
    // services and program, simulate, finish the epoch.
    let mut machine = Machine::new(SocConfig::sim());
    let tenant = machine.add_tenant("ring");
    let vnpu = hv.vnpu(vm).unwrap();
    g.bench_function("epoch_fresh", |b| {
        b.iter(|| {
            for v in 0..9u32 {
                let body = vec![
                    Instr::matmul(16, 16, 16),
                    Instr::send((v + 1) % 9, 1024, v),
                    Instr::recv((v + 8) % 9, 1024, (v + 8) % 9),
                ];
                machine
                    .bind_with(
                        vnpu.phys_core(VirtCoreId(v)).unwrap(),
                        tenant,
                        v,
                        Program::looped(vec![], body, 1),
                        hv.services(vm, VirtCoreId(v)).unwrap(),
                    )
                    .unwrap();
            }
            black_box(machine.run_epoch().unwrap().makespan())
        })
    });
    // What it pays when they did not: a whole serve tick on a 3×3 chip
    // whose single, never-leaving tenant is answered from the epoch memo
    // (arrivals are a thousand ticks apart, so the tick is little else).
    let soc = SocConfig {
        mesh_width: 3,
        mesh_height: 3,
        ..SocConfig::sim()
    };
    let mut cfg = ServeConfig::cluster(7, 0, vec![soc]);
    cfg.traffic.mix = vec![(1, Shape::Mesh(3, 3))];
    cfg.traffic.mean_interarrival_ticks = 1_000;
    cfg.traffic.mean_lifetime_epochs = 1_000_000;
    cfg.max_attempts = Some(1);
    let mut rt = ServeRuntime::new(cfg);
    while rt.live_count() == 0 {
        rt.step().unwrap();
    }
    g.bench_function("epoch_steady", |b| {
        b.iter(|| black_box(rt.step().unwrap().executed_chips))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_translation,
    bench_routing,
    bench_mapping,
    bench_execution
);
criterion_main!(benches);
