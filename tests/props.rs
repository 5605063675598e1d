//! Property-based invariants across the workspace, run on the in-repo
//! harness (`vnpu_mem::proptest_lite`) so the suite needs no external
//! crates. Each property keeps the invariant of the original
//! proptest-based suite; the first seven run 64 cases, the end-to-end
//! compile-and-run property 16 (it simulates whole pipelines per case).

use vnpu::{Hypervisor, VmId, VnpuRequest};
use vnpu_mem::buddy::BuddyAllocator;
use vnpu_mem::page::{PageTable, PageTranslator};
use vnpu_mem::proptest_lite::{check, range, vec_of};
use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
use vnpu_mem::{prop_assert, prop_assert_eq};
use vnpu_mem::{Perm, PhysAddr, Translate, TranslationCosts, VirtAddr};
use vnpu_topo::cache::FreeSet;
use vnpu_topo::mapping::{Mapper, Strategy};
use vnpu_topo::{canonical, enumerate, NodeId, Topology};

/// Buddy allocations never overlap and frees fully coalesce.
#[test]
fn buddy_no_overlap_and_full_coalesce() {
    check(
        "buddy_no_overlap_and_full_coalesce",
        64,
        vec_of(range(1u64..200_000), 1..24),
        |sizes| {
            let total = 16 << 20;
            let mut b = BuddyAllocator::new(PhysAddr(0), total, 4096);
            let mut live = Vec::new();
            for &s in sizes {
                if let Ok(block) = b.alloc(s) {
                    live.push(block);
                }
            }
            let mut sorted = live.clone();
            sorted.sort_by_key(|blk| blk.addr);
            for w in sorted.windows(2) {
                prop_assert!(w[0].addr.value() + w[0].size <= w[1].addr.value());
            }
            for blk in &live {
                b.free(blk.addr).expect("free succeeds");
            }
            prop_assert_eq!(b.free_bytes(), total);
            prop_assert_eq!(b.largest_free_block(), total);
            Ok(())
        },
    );
}

/// Range translation agrees with a linear reference map on every mapped
/// address, and faults exactly on unmapped ones.
#[test]
fn rtt_matches_reference() {
    check(
        "rtt_matches_reference",
        64,
        (
            vec_of((range(0u64..64), range(1u64..8)), 1..12),
            vec_of(range(0u64..1 << 20), 1..64),
        ),
        |(ranges, probes)| {
            // Build non-overlapping ranges from (slot, pages) pairs.
            let mut entries = Vec::new();
            let mut next_va = 0x1_0000u64;
            let mut reference: Vec<(u64, u64, u64)> = Vec::new(); // (va, size, pa)
            for (i, (gap, pages)) in ranges.iter().enumerate() {
                let va = next_va + gap * 0x1000;
                let size = pages * 0x1000;
                let pa = 0x10_0000_0000 + (i as u64) * 0x100_0000;
                entries.push(RttEntry::new(VirtAddr(va), PhysAddr(pa), size, Perm::RW));
                reference.push((va, size, pa));
                next_va = va + size;
            }
            let rtt = RangeTranslationTable::new(entries).expect("valid ranges");
            let mut tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
            for &p in probes {
                let va = 0x1_0000 + p;
                let expect = reference
                    .iter()
                    .find(|(rva, size, _)| va >= *rva && va < rva + size)
                    .map(|(rva, _, pa)| pa + (va - rva));
                // Use len=1 so range-straddling cannot trigger.
                match (tr.translate(VirtAddr(va), 1, Perm::R), expect) {
                    (Ok(t), Some(pa)) => prop_assert_eq!(t.pa.value(), pa),
                    (Err(_), None) => {}
                    (Ok(t), None) => prop_assert!(false, "phantom translation {:?}", t),
                    (Err(e), Some(_)) => prop_assert!(false, "spurious fault {}", e),
                }
            }
            Ok(())
        },
    );
}

/// Page and range translators agree wherever both are defined.
#[test]
fn page_and_range_agree() {
    check(
        "page_and_range_agree",
        64,
        (
            vec_of(range(1u64..16), 1..6),
            vec_of(range(0u64..1 << 16), 1..32),
        ),
        |(blocks, offsets)| {
            let mut entries = Vec::new();
            let mut va = 0x10_0000u64;
            for (i, &pages) in blocks.iter().enumerate() {
                let size = pages * 0x1000;
                entries.push(RttEntry::new(
                    VirtAddr(va),
                    PhysAddr(0x8000_0000 + (i as u64) * 0x10_0000),
                    size,
                    Perm::RW,
                ));
                va += size;
            }
            let span: u64 = entries.iter().map(|e| e.size).sum();
            let rtt = RangeTranslationTable::new(entries.clone()).expect("ranges");
            let mut range_tr = RangeTranslator::new(rtt, 4, TranslationCosts::default());
            let mut pt = PageTable::new(4096);
            for e in &entries {
                pt.map_range(e.va, e.pa, e.size, e.perm).expect("map");
            }
            let mut page = PageTranslator::new(pt, 8, TranslationCosts::default());
            for &off in offsets {
                let probe = VirtAddr(0x10_0000 + off % span);
                let a = range_tr.translate(probe, 1, Perm::R);
                let b = page.translate(probe, 1, Perm::R);
                match (a, b) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x.pa, y.pa),
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "translators disagree: {:?}", other),
                }
            }
            Ok(())
        },
    );
}

/// Connected-subgraph enumeration yields connected, duplicate-free,
/// right-sized candidates drawn from the free set.
#[test]
fn enumeration_soundness() {
    check(
        "enumeration_soundness",
        64,
        (
            range(2u32..5),
            range(2u32..4),
            range(2usize..6),
            range(0u32..256),
        ),
        |&(w, h, k, taken_mask)| {
            let t = Topology::mesh2d(w, h);
            let free: Vec<NodeId> = t
                .nodes()
                .filter(|n| taken_mask & (1 << (n.0 % 8)) == 0 || n.0 >= 8)
                .collect();
            let cands = enumerate::connected_candidates(&t, &free, k, 500);
            let mut seen = std::collections::HashSet::new();
            for c in &cands {
                prop_assert_eq!(c.len(), k);
                prop_assert!(t.is_connected_subset(c));
                prop_assert!(c.iter().all(|n| free.contains(n)));
                prop_assert!(seen.insert(c.clone()));
            }
            Ok(())
        },
    );
}

/// Any successful mapping is injective, right-sized, inside the free
/// set, and connected unless fragmentation was allowed.
#[test]
fn mapping_invariants() {
    check(
        "mapping_invariants",
        64,
        (
            vec_of(range(0u32..25), 0..10),
            range(1u32..4),
            range(1u32..3),
        ),
        |(taken, req_w, req_h)| {
            let phys = Topology::mesh2d(5, 5);
            let free: Vec<NodeId> = phys.nodes().filter(|n| !taken.contains(&n.0)).collect();
            let req = Topology::mesh2d(*req_w, *req_h);
            let mapper = Mapper::new(&phys);
            let strategy = Strategy::similar_topology().candidate_cap(500);
            if let Ok(m) = mapper.map(&free, &req, &strategy) {
                prop_assert_eq!(m.phys_nodes().len(), req.node_count());
                let mut seen = std::collections::HashSet::new();
                for n in m.phys_nodes() {
                    prop_assert!(free.contains(n));
                    prop_assert!(seen.insert(*n));
                }
                prop_assert!(m.is_connected());
            }
            Ok(())
        },
    );
}

/// WL canonical keys are isomorphism invariants under relabeling.
#[test]
fn canonical_key_relabel_invariant() {
    check(
        "canonical_key_relabel_invariant",
        64,
        (
            vec_of((range(0u32..6), range(0u32..6)), 1..10),
            range(0u64..1000),
        ),
        |(edges, perm_seed)| {
            let mut a = Topology::empty(6);
            for &(x, y) in edges {
                if x != y {
                    let _ = a.add_edge(NodeId(x), NodeId(y));
                }
            }
            // Deterministic permutation from the seed.
            let mut perm: Vec<u32> = (0..6).collect();
            let mut s = *perm_seed;
            for i in (1..6usize).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (s >> 33) as usize % (i + 1);
                perm.swap(i, j);
            }
            let mut b = Topology::empty(6);
            for &(x, y) in edges {
                if x != y {
                    let _ = b.add_edge(NodeId(perm[x as usize]), NodeId(perm[y as usize]));
                }
            }
            prop_assert_eq!(canonical::canonical_key(&a), canonical::canonical_key(&b));
            Ok(())
        },
    );
}

/// A topology's neighbour rows hold what its edge map holds. Graphs of
/// 1-200 nodes (rows of one to four words) are built by `add_edge` and
/// `add_edge_with`, with duplicate edges, overwritten costs, refused
/// self-loops and refused out-of-range ids among the calls; `neighbors`
/// (ascending), `degree` and `has_edge` both ways then agree with a
/// partner list rebuilt from `edges()`, which lists the last cost written.
#[test]
fn topology_rows_match_a_partner_list_from_edges() {
    use std::cell::Cell;
    use std::collections::BTreeMap;
    use vnpu_topo::EdgeAttr;

    // Cases with rows of more than one word, of four words, a duplicate
    // edge, an overwritten cost, a refused self-loop and a refused
    // out-of-range id.
    let reached: [Cell<usize>; 6] = Default::default();
    check(
        "topology_rows_match_a_partner_list_from_edges",
        64,
        (
            range(1usize..5),
            range(0usize..64),
            vec_of(
                (range(0u64..6), range(0u32..1024), range(0u32..1024)),
                0..600,
            ),
        ),
        |(words, extra, calls)| {
            let n = (64 * (words - 1) + 1 + extra).min(200);
            // Two ids past the last node, so some calls are refused.
            let id = |raw: u32| NodeId(raw % (n as u32 + 2));
            let mut t = Topology::empty(n);
            let mut costs: BTreeMap<(NodeId, NodeId), u64> = BTreeMap::new();
            let mut hits = [n > 64, n > 192, false, false, false, false];
            for (i, &(kind, x, y)) in calls.iter().enumerate() {
                // Kinds 4 and 5 repeat an earlier call's endpoints, swapped.
                let (a, b) = match (kind, i) {
                    (4 | 5, 1..) => {
                        let (_, px, py) = calls[x as usize % i];
                        (id(py), id(px))
                    }
                    _ => (id(x), id(y)),
                };
                let (result, cost) = match kind {
                    0 => (t.add_edge(a, b), 1),
                    _ => (t.add_edge_with(a, b, EdgeAttr { cost: kind }), kind),
                };
                let out_of_range = a.index() >= n || b.index() >= n;
                let refused = out_of_range || a == b;
                prop_assert_eq!(result.is_err(), refused);
                if !refused {
                    if let Some(old) = costs.insert((a.min(b), a.max(b)), cost) {
                        hits[2] = true;
                        hits[3] |= old != cost;
                    }
                }
                hits[4] |= a == b && !out_of_range;
                hits[5] |= out_of_range;
            }
            let listed: Vec<_> = t.edges().map(|(a, b, e)| ((a, b), e.cost)).collect();
            let written: Vec<_> = costs.iter().map(|(&k, &c)| (k, c)).collect();
            prop_assert!(listed == written, "edges() disagrees with the calls");
            // The partner list, rebuilt from `edges()` alone.
            let mut partners = vec![Vec::new(); n];
            for &((a, b), _) in &listed {
                partners[a.index()].push(b);
                partners[b.index()].push(a);
            }
            for v in t.nodes() {
                let list = &mut partners[v.index()];
                list.sort_unstable();
                let got: Vec<NodeId> = t.neighbors(v).collect();
                prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "{v}: not ascending");
                prop_assert_eq!(&got, list);
                prop_assert_eq!(t.degree(v), list.len());
            }
            for a in (0..n as u32 + 2).map(NodeId) {
                for b in (0..n as u32 + 2).map(NodeId) {
                    let listed = partners.get(a.index()).is_some_and(|l| l.contains(&b));
                    prop_assert_eq!(t.has_edge(a, b), listed);
                    prop_assert_eq!(t.has_edge(b, a), listed);
                }
            }
            for (count, hit) in reached.iter().zip(hits) {
                count.set(count.get() + usize::from(hit));
            }
            Ok(())
        },
    );
    let reached = reached.map(Cell::into_inner);
    println!(
        "topology-row campaign: 64 graphs of 1-200 nodes, rows equal to the partner lists \
         of edges(); {} of more than one word a row, {} of four, {} with a duplicate edge, \
         {} with an overwritten cost, {} with a refused self-loop, {} with a refused \
         out-of-range id",
        reached[0], reached[1], reached[2], reached[3], reached[4], reached[5]
    );
    assert!(
        reached.iter().all(|&r| r > 0),
        "a kind of case was never reached: {reached:?}"
    );
}

/// Compiled workloads always pair sends with receives and the machine
/// runs them to completion deterministically.
#[test]
fn compile_and_run_arbitrary_chains() {
    use vnpu_sim::isa::Kernel;
    use vnpu_sim::machine::Machine;
    use vnpu_sim::SocConfig;
    use vnpu_workloads::compile::{compile, CompileOptions};
    use vnpu_workloads::graph::{GraphBuilder, LayerKind};

    check(
        "compile_and_run_arbitrary_chains",
        16,
        (vec_of(range(16u32..128), 2..8), range(2u32..5)),
        |(layer_sizes, cores)| {
            let mut b = GraphBuilder::new();
            for (i, &s) in layer_sizes.iter().enumerate() {
                b.chain(
                    format!("l{i}"),
                    LayerKind::Fc,
                    Kernel::Matmul { m: s, k: s, n: s },
                    u64::from(s) * u64::from(s),
                    u64::from(s) * u64::from(s),
                );
            }
            let g = b.build("chain").expect("graph");
            let cfg = SocConfig::fpga();
            let out = compile(
                &g,
                *cores,
                &cfg,
                &CompileOptions {
                    iterations: 3,
                    ..Default::default()
                },
            )
            .expect("compile");
            let run = || {
                let mut m = Machine::new(cfg.clone());
                let t = m.add_tenant("chain");
                for (c, p) in out.programs.iter().enumerate() {
                    m.bind(c as u32, t, c as u32, p.clone()).expect("bind");
                }
                m.run().expect("run").makespan()
            };
            let a = run();
            prop_assert!(a > 0);
            prop_assert_eq!(a, run(), "determinism");
            Ok(())
        },
    );
}

/// The free-set oracle: the incrementally maintained free region is
/// exactly the cores no tenant uses and no fault masks.
fn free_set_is_exact(hv: &Hypervisor) -> Result<(), String> {
    let n = hv.config().core_count();
    let free: Vec<NodeId> = (0..n)
        .filter(|&c| hv.core_users()[c as usize] == 0 && !hv.core_faulted(c))
        .map(NodeId)
        .collect();
    prop_assert_eq!(
        hv.free_set(),
        &FreeSet::from_free_nodes(n as usize, &free),
        "free set drifted from the core users and fault mask"
    );
    Ok(())
}

/// Buddy-allocator + hypervisor churn invariant: any random interleaving
/// of vNPU creates and destroys (mixed shapes and sizes) and core faults
/// and repairs ends — after destroying the survivors and repairing every
/// core — with every core free, all HBM returned, and the buddy fully
/// coalesced back into its maximal block.
/// No cores or memory may leak through any interleaving, and after every
/// op the free set is exactly the unused, healthy cores.
///
/// Creates go through the one admission path — a 1-chip [`Cluster`]'s
/// queue — so a blocked head really holds back the requests behind it.
#[test]
fn hypervisor_churn_leaves_no_residue() {
    use vnpu::cluster::{Cluster, ClusterAdmissionOutcome, ClusterVmId};
    use vnpu_sim::SocConfig;
    check(
        "hypervisor_churn_leaves_no_residue",
        64,
        vec_of((range(0u32..8), range(0u32..6), range(0u32..36)), 4..40),
        |ops| {
            let hbm = 2 << 30;
            let mut cl =
                Cluster::with_chips(vec![Hypervisor::with_hbm_bytes(SocConfig::sim(), hbm)]);
            // A bounded budget, so blocked heads eventually leave the
            // queue and the requests behind them get their turn.
            cl.set_max_attempts(Some(3));
            let total_cores = cl.total_cores();
            let free_hbm_at_start = cl.chip(0).hbm_free_bytes();
            let mut live: Vec<ClusterVmId> = Vec::new();
            for &(shape, action, core) in ops {
                if action == 0 && !live.is_empty() {
                    // Destroy the oldest live vNPU (deterministic pick).
                    let vm = live.remove(0);
                    cl.destroy(vm).expect("destroy live vnpu");
                } else if action == 4 {
                    // Fault a core, owned or free: an owner keeps it
                    // until destroyed, and it rejoins no free region.
                    cl.fault_core(0, core).expect("core on the chip");
                } else if action == 5 {
                    // Repair the lowest faulted core, if any.
                    if let Some(&c) = cl.chip(0).faulted_cores().collect::<Vec<_>>().first() {
                        prop_assert!(cl.repair_core(0, c).expect("core on the chip"));
                    }
                } else {
                    cl.submit(match shape {
                        0 => VnpuRequest::mesh(1, 1).mem_bytes(8 << 20),
                        1 => VnpuRequest::mesh(2, 2).mem_bytes(48 << 20),
                        2 => VnpuRequest::mesh(2, 3).mem_bytes(96 << 20),
                        3 => VnpuRequest::mesh(3, 3).mem_bytes(160 << 20),
                        4 => VnpuRequest::cores(5).mem_bytes(24 << 20),
                        5 => VnpuRequest::cores(7).mem_bytes(72 << 20),
                        6 => VnpuRequest::mesh(4, 2).mem_bytes(33 << 20),
                        _ => VnpuRequest::mesh(1, 3).mem_bytes(130 << 20),
                    });
                }
                // One admission tick per op. Placement may legitimately
                // fail under fragmentation; the invariant is that
                // failures change nothing and successes are fully
                // reversible.
                for ev in cl.process_admissions() {
                    if let ClusterAdmissionOutcome::Admitted(id) = ev.outcome {
                        live.push(id);
                    }
                }
                // Bookkeeping sanity every step: used + free == total.
                prop_assert!(cl.free_cores() <= total_cores);
                prop_assert!(cl.chip(0).hbm_free_bytes() <= free_hbm_at_start);
                prop_assert_eq!(cl.live_count(), live.len());
                free_set_is_exact(cl.chip(0))?;
            }
            for vm in live {
                cl.destroy(vm).expect("drain");
            }
            for c in cl.chip(0).faulted_cores().collect::<Vec<_>>() {
                cl.repair_core(0, c).expect("core on the chip");
            }
            free_set_is_exact(cl.chip(0))?;
            let hv = cl.chip(0);
            prop_assert_eq!(hv.free_core_count(), total_cores, "no leaked cores");
            prop_assert_eq!(hv.hbm_free_bytes(), free_hbm_at_start, "no leaked HBM");
            let frag = hv.fragmentation();
            prop_assert_eq!(
                frag.hbm_external_fragmentation,
                0.0,
                "buddy must fully coalesce"
            );
            prop_assert_eq!(frag.free_components, 1, "free region is whole again");
            Ok(())
        },
    );
}

/// Transactional-plan churn invariant: any random interleaving of direct
/// creates and destroys with core migrations and memory compactions —
/// the migrations driven through `Hypervisor::plan`/`commit`, one op at
/// a time and as multi-op plans, with temporal-sharing residents on the
/// chip — leaks nothing and ends fully coalesced at quiescence, every
/// commit staled by a direct create or destroy leaves the hypervisor
/// byte-identical (`state_digest` compare), and every un-intervened
/// commit lands at the planned prices (`land`): the commit is the plan's
/// oracle. After every op the free set is exactly the cores no tenant
/// uses.
#[test]
fn placement_plan_churn_is_transactional_and_leak_free() {
    use std::cell::Cell;
    use vnpu::plan::{CommitReceipt, MigrationTarget, PlacementTxn, PlanOp, ReconfigBudget};
    use vnpu::VnpuError;
    use vnpu_sim::SocConfig;
    use vnpu_topo::cache::MappingCache;

    /// Commits a plan nothing has intervened on. It must not fail, it
    /// pays exactly what was planned, op for op, and what the receipt
    /// leaves out is exactly the migrations planned as zero-cost no-ops.
    fn land(hv: &mut Hypervisor, txn: &PlacementTxn) -> Result<CommitReceipt, String> {
        let receipt = hv
            .commit(txn)
            .map_err(|e| format!("an un-intervened commit failed: {e}"))?;
        let planned: Vec<_> = txn
            .ops()
            .iter()
            .filter(|p| !p.cost.is_zero())
            .map(|p| {
                let PlanOp::Migrate { vm, .. } = p.op;
                (vm, p.cost)
            })
            .collect();
        prop_assert_eq!(&receipt.migrated, &planned);
        Ok(receipt)
    }

    // How often each multi-op outcome was reached over the campaign:
    // a remap + compaction of one VM that both moved, a resident actually
    // sharing cores, a plan the budget cut short, a no-op migration left
    // out of a receipt.
    let reached: [Cell<u32>; 4] = Default::default();
    let [both_moved, sharing, cut_short, noop_omitted] = &reached;
    let hit = |outcome: &Cell<u32>| outcome.set(outcome.get() + 1);
    check(
        "placement_plan_churn_is_transactional_and_leak_free",
        48,
        vec_of((range(0u32..8), range(0u32..9)), 4..32),
        |ops| {
            let hbm = 2 << 30;
            let mut hv = Hypervisor::with_hbm_bytes(SocConfig::sim(), hbm);
            let total_cores = hv.config().core_count();
            let free_hbm_at_start = hv.hbm_free_bytes();
            let remap = || MigrationTarget::Remap(Strategy::similar_topology());
            let compact = |vm| PlanOp::Migrate {
                vm,
                to: MigrationTarget::CompactMemory,
            };
            let move_oldest = |live: &[VmId]| -> Vec<PlanOp> {
                let vm = live.first().copied();
                vm.map(|vm| PlanOp::Migrate { vm, to: remap() })
                    .into_iter()
                    .collect()
            };
            let mut live: Vec<VmId> = Vec::new();
            for &(shape, action) in ops {
                let req = match shape {
                    0 => VnpuRequest::mesh(1, 1).mem_bytes(8 << 20),
                    1 => VnpuRequest::mesh(2, 2).mem_bytes(48 << 20),
                    2 => VnpuRequest::mesh(2, 3).mem_bytes(96 << 20),
                    3 => VnpuRequest::mesh(3, 3).mem_bytes(160 << 20),
                    4 => VnpuRequest::cores(5).mem_bytes(24 << 20),
                    5 => VnpuRequest::cores(7).mem_bytes(72 << 20),
                    6 => VnpuRequest::mesh(4, 2).mem_bytes(33 << 20),
                    _ => VnpuRequest::mesh(1, 3).mem_bytes(130 << 20),
                };
                match action {
                    0 if !live.is_empty() => {
                        // Destroy the oldest tenant.
                        hv.destroy_vnpu(live.remove(0)).expect("destroy live vnpu");
                    }
                    1 if !live.is_empty() => {
                        // Migrate the oldest tenant's cores under pin.
                        let vm = live[0];
                        let txn = hv
                            .plan(&[PlanOp::Migrate { vm, to: remap() }])
                            .expect("remap-under-pin always has its own spot");
                        if land(&mut hv, &txn)?.migrated.is_empty() {
                            hit(noop_omitted);
                        }
                    }
                    2 if !live.is_empty() => {
                        // Compact the oldest tenant's HBM blocks.
                        let txn = hv
                            .plan(&[compact(live[0])])
                            .expect("compaction re-allocates freed space");
                        land(&mut hv, &txn)?;
                    }
                    5 if !live.is_empty() => {
                        // Turn the oldest tenant over: the create may map
                        // into the region the destroy frees. A create
                        // that does not fit changes nothing.
                        hv.destroy_vnpu(live.remove(0)).expect("destroy live vnpu");
                        let digest = hv.state_digest();
                        match hv.create_vnpu(req) {
                            Ok(vm) => live.push(vm),
                            Err(_) => {
                                prop_assert_eq!(hv.state_digest(), digest, "failed create mutated")
                            }
                        }
                    }
                    6 if !live.is_empty() => {
                        // Move one tenant's cores and memory in one plan.
                        let vm = live[shape as usize % live.len()];
                        let txn = hv
                            .plan(&[PlanOp::Migrate { vm, to: remap() }, compact(vm)])
                            .expect("both moves have their own spot");
                        if land(&mut hv, &txn)?.migrated.len() == 2 {
                            hit(both_moved);
                        }
                    }
                    7 => {
                        // A temporal-sharing resident, large enough to
                        // need busy cores.
                        let wide = VnpuRequest::mesh(3 + shape % 4, 3).mem_bytes(8 << 20);
                        if let Ok(vm) = hv.create_vnpu(wide.temporal_sharing(true)) {
                            live.push(vm);
                        }
                        if hv.core_users().iter().any(|&users| users > 1) {
                            hit(sharing);
                        }
                    }
                    8 => {
                        // Every tenant's two moves under a budget of one:
                        // the affordable prefix is what lands.
                        let all: Vec<PlanOp> = live
                            .iter()
                            .flat_map(|&vm| [PlanOp::Migrate { vm, to: remap() }, compact(vm)])
                            .collect();
                        let budget = ReconfigBudget {
                            max_migrations: 1,
                            ..ReconfigBudget::default()
                        };
                        let txn = hv
                            .plan_budgeted_in(&all, &budget, &mut MappingCache::default())
                            .expect("budgeted moves plan");
                        prop_assert!(land(&mut hv, &txn)?.migrated.len() <= 1);
                        if txn.ops().len() < all.len() {
                            hit(cut_short);
                        }
                    }
                    _ => {
                        // Plan a move of the oldest tenant (an empty plan
                        // on an empty chip), then stale it on purpose
                        // with a direct create — or, when the request
                        // does not fit, a direct destroy of the oldest
                        // tenant: the failed commit must leave the
                        // hypervisor byte-identical.
                        let txn = hv
                            .plan(&move_oldest(&live))
                            .expect("remap-under-pin always has its own spot");
                        match hv.create_vnpu(req) {
                            Ok(vm) => live.push(vm),
                            Err(_) => hv
                                .destroy_vnpu(live.remove(0))
                                .expect("an empty chip fits every request"),
                        }
                        let digest = hv.state_digest();
                        prop_assert!(
                            matches!(hv.commit(&txn), Err(VnpuError::StalePlan { .. })),
                            "a staled plan must be rejected"
                        );
                        prop_assert_eq!(
                            hv.state_digest(),
                            digest,
                            "failed commit must be byte-identical"
                        );
                        // Re-plan against the changed chip and land it.
                        let txn = hv.plan(&move_oldest(&live)).expect("replan");
                        land(&mut hv, &txn)?;
                    }
                }
                prop_assert!(hv.free_core_count() <= total_cores);
                prop_assert!(hv.hbm_free_bytes() <= free_hbm_at_start);
                free_set_is_exact(&hv)?;
            }
            // Drain every survivor.
            for vm in live {
                hv.destroy_vnpu(vm).expect("destroy live vnpu");
            }
            free_set_is_exact(&hv)?;
            prop_assert_eq!(hv.free_core_count(), total_cores, "no leaked cores");
            prop_assert_eq!(hv.hbm_free_bytes(), free_hbm_at_start, "no leaked HBM");
            let frag = hv.fragmentation();
            prop_assert_eq!(
                frag.hbm_external_fragmentation,
                0.0,
                "buddy must fully coalesce at quiescence"
            );
            prop_assert_eq!(frag.free_components, 1, "free region is whole again");
            Ok(())
        },
    );
    let reached = reached.map(Cell::into_inner);
    assert!(
        reached.iter().all(|&n| n > 0),
        "a multi-op outcome was never reached: {reached:?}"
    );
}

/// Differential test for the mapping cache: on any free set, a cache hit
/// must return a placement identical to the uncached
/// `Strategy::similar_topology` result (successes *and* failures), and
/// the second lookup must actually be a hit.
#[test]
fn mapping_cache_matches_uncached_similar_topology() {
    use vnpu_topo::cache::{FreeSet, MappingCache};
    check(
        "mapping_cache_matches_uncached_similar_topology",
        64,
        (vec_of(range(0u32..36), 0..24), range(0u32..5)),
        |(occupied, shape)| {
            let phys = Topology::mesh2d(6, 6);
            let mut free = FreeSet::all_free(36);
            for &c in occupied {
                free.occupy(NodeId(c));
            }
            let req = match shape {
                0 => Topology::mesh2d(2, 2),
                1 => Topology::mesh2d(2, 3),
                2 => Topology::mesh2d(3, 3),
                3 => Topology::line(4),
                _ => Topology::line(6),
            };
            let strategy = Strategy::similar_topology().candidate_cap(300);
            let mapper = Mapper::new(&phys);
            let uncached = mapper.map_in(&free, &req, &strategy);
            let mut cache = MappingCache::default();
            let cold = mapper.map_cached(&free, &req, &strategy, &mut cache);
            let hot = mapper.map_cached(&free, &req, &strategy, &mut cache);
            prop_assert_eq!(&cold, &uncached, "cold pass equals uncached");
            prop_assert_eq!(&hot, &uncached, "cache hit equals uncached");
            prop_assert_eq!(cache.stats().hits, 1, "second lookup must hit");
            if let Ok(m) = &hot {
                // Hit placements must still be valid for this free set.
                let mut seen = std::collections::HashSet::new();
                for n in m.phys_nodes() {
                    prop_assert!(free.contains(*n), "placement uses only free cores");
                    prop_assert!(seen.insert(*n), "placement is injective");
                }
            }
            Ok(())
        },
    );
}

/// The fleet tick is deterministic under its seed: the same seeded cluster
/// churn — heterogeneous chips, defrag on, audited — must produce a
/// byte-identical `ServeReport` JSON when run again, with zero fleet-audit
/// findings. Two full runtimes per case, so the case count stays small.
#[test]
fn cluster_churn_reruns_are_byte_identical_and_audit_clean() {
    use std::sync::Arc;
    use vnpu::cluster::LeastLoaded;
    use vnpu_serve::{ServeConfig, ServeRuntime};
    use vnpu_sim::SocConfig;
    check(
        "cluster_churn_reruns_are_byte_identical_and_audit_clean",
        4,
        range(0u64..1 << 32),
        |&seed| {
            let config = || {
                let small = SocConfig {
                    mesh_width: 4,
                    mesh_height: 4,
                    ..SocConfig::sim()
                };
                let mut cfg =
                    ServeConfig::cluster(seed, 60, vec![SocConfig::sim(), small, SocConfig::sim()]);
                cfg.traffic.mean_interarrival_ticks = 1;
                cfg.traffic.candidate_cap = 120;
                cfg.placement = Arc::new(LeastLoaded);
                cfg.defrag = Some(Arc::new(vnpu::plan::GreedyDefrag::default()));
                cfg.defrag_interval = 7;
                cfg.audit = true;
                cfg
            };
            let first = ServeRuntime::new(config()).run().expect("run completes");
            prop_assert_eq!(first.audit_findings, 0, "the run audits clean");
            let again = ServeRuntime::new(config()).run().expect("rerun completes");
            prop_assert_eq!(again.audit_findings, 0, "the rerun audits clean");
            prop_assert_eq!(
                &again.to_json(usize::MAX),
                &first.to_json(usize::MAX),
                "reports diverge between same-seed runs"
            );
            Ok(())
        },
    );
}

/// Satellite property: the fault/recovery phase keeps the tick
/// deterministic. The same seeded 3-chip churn with a seeded mid-run
/// fault plan (core faults sampled over the whole fleet, each repaired
/// 9 ticks later) must produce a byte-identical report when run again,
/// leak nothing, converge its recovery queue, and leave a fleet the
/// invariant auditor signs off on.
#[test]
fn fault_churn_reruns_are_byte_identical_and_converge() {
    use std::sync::Arc;
    use vnpu::cluster::LeastLoaded;
    use vnpu_serve::{FaultPlan, ServeConfig, ServeRuntime};
    use vnpu_sim::SocConfig;
    check(
        "fault_churn_reruns_are_byte_identical_and_converge",
        4,
        range(0u64..1 << 32),
        |&seed| {
            let config = || {
                let small = SocConfig {
                    mesh_width: 4,
                    mesh_height: 4,
                    ..SocConfig::sim()
                };
                let mut cfg =
                    ServeConfig::cluster(seed, 80, vec![SocConfig::sim(), small, SocConfig::sim()]);
                cfg.traffic.mean_interarrival_ticks = 1;
                cfg.traffic.candidate_cap = 120;
                cfg.placement = Arc::new(LeastLoaded);
                // 5 core faults sampled over the fleet in ticks 1..50,
                // each repaired 9 ticks after its onset — past the
                // 8-tick recovery deadline, so the lost-tenant path is
                // reachable alongside remap and cross-chip replacement.
                cfg.fault_plan = FaultPlan::seeded(seed, &[36, 16, 36], 5, 50, Some(9));
                cfg
            };
            let mut first = ServeRuntime::new(config());
            for _ in 0..80 {
                first.step().expect("fault tick");
            }
            // Recovery must converge: every detected tenant is resolved
            // (remapped, replaced, self-healed or lost) once the last
            // repair lands, and the healed fleet audits clean.
            prop_assert_eq!(
                vnpu_audit::FleetAuditor::new().audit(first.cluster()).len(),
                0,
                "healed fleet audits clean"
            );
            first.drain().expect("drain");
            let report = first.report();
            prop_assert_eq!(report.recoveries_pending, 0, "recovery converged");
            prop_assert_eq!(report.leaked_cores, 0, "no core leaks under faults");
            prop_assert_eq!(report.leaked_hbm_bytes, 0, "no HBM leaks under faults");
            prop_assert_eq!(
                report.faults_injected,
                report.faults_repaired,
                "every sampled fault repairs on schedule"
            );
            let mut again = ServeRuntime::new(config());
            for _ in 0..80 {
                again.step().expect("rerun fault tick");
            }
            again.drain().expect("rerun drain");
            prop_assert_eq!(
                &again.report().to_json(usize::MAX),
                &report.to_json(usize::MAX),
                "fault-recovery reports diverge between same-seed runs"
            );
            Ok(())
        },
    );
}

/// Differential campaign for the serve loop's per-chip epoch memo: a
/// reused epoch must be indistinguishable from one bound and simulated
/// afresh, whatever happened to the fleet in between.
///
/// Each case drives a 2–4-chip runtime (6×6 and 4×4 chips) through a
/// seeded mix of everything that changes an epoch's inputs: admissions
/// and retirements (the traffic), defragmentation migrations — core moves
/// and memory compactions — every third tick, a seeded plan of core and
/// link faults with repairs (onsets, recovery remaps in place, emergency
/// re-placements on another chip, stalls, self-heals), and, from outside
/// at seeded ticks, whole-chip drains (cross-chip evacuations) and
/// hybrid-core reconfigurations, each of the latter re-set to the same
/// values one tick later.
///
/// The oracle is built into debug builds (what tier-1 runs): there every
/// reuse also binds and runs the epoch and asserts the same makespan, so
/// a stale reuse panics the case. The campaign adds what makes that
/// meaningful — epochs *were* reused in every case, and over the
/// campaign every kind of invalidating event occurred.
#[test]
fn epoch_memo_matches_fresh_epochs_under_reconfiguration() {
    use std::cell::Cell;
    use std::sync::Arc;
    use vnpu::cluster::LeastLoaded;
    use vnpu::drain::ChipSchedState;
    use vnpu::plan::GreedyDefrag;
    use vnpu_serve::{FaultPlan, ServeConfig, ServeRuntime};
    use vnpu_sim::SocConfig;

    const TICKS: u64 = 90;
    #[derive(Default)]
    struct Seen {
        admitted: Cell<u64>,
        departed: Cell<u64>,
        core_moves: Cell<u64>,
        memory_moves: Cell<u64>,
        evacuated: Cell<u64>,
        onsets: Cell<u64>,
        repairs: Cell<u64>,
        remapped: Cell<u64>,
        replaced: Cell<u64>,
        rescaled: Cell<u64>,
    }
    let seen = Seen::default();
    let add = |cell: &Cell<u64>, n: u64| cell.set(cell.get() + n);

    check(
        "epoch_memo_matches_fresh_epochs_under_reconfiguration",
        6,
        (
            range(0u64..1 << 32),
            range(2usize..5),
            vec_of((range(5u64..TICKS - 5), range(0u32..1 << 16)), 2..7),
        ),
        |(seed, chips, pokes)| {
            let small = SocConfig {
                mesh_width: 4,
                mesh_height: 4,
                ..SocConfig::sim()
            };
            let socs: Vec<SocConfig> = (0..*chips)
                .map(|c| {
                    if c % 2 == 0 {
                        SocConfig::sim()
                    } else {
                        small.clone()
                    }
                })
                .collect();
            let cores: Vec<u32> = socs.iter().map(SocConfig::core_count).collect();
            let mut cfg = ServeConfig::cluster(*seed, TICKS, socs);
            for chip in &mut cfg.chips {
                chip.hbm_bytes = 1 << 30; // small enough for compaction to matter
            }
            cfg.traffic.mean_interarrival_ticks = 1;
            cfg.traffic.mean_lifetime_epochs = 12;
            cfg.traffic.candidate_cap = 120;
            cfg.placement = Arc::new(LeastLoaded);
            cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
            cfg.defrag_interval = 3;
            let mut faults = FaultPlan::seeded(*seed ^ 0xFA17, &cores, 6, TICKS - 20, Some(9));
            // One link fault too: its tenants are detected by route, and
            // an in-place remap may fail to escape it.
            faults = faults.link_fault(0, 14, 15, 20 + seed % 30, Some(60 + seed % 20));
            cfg.fault_plan = faults;
            cfg.record_trace = true;
            let mut rt = ServeRuntime::new(cfg);

            let mut draining: Option<usize> = None;
            let mut reset: Vec<(u64, usize, u32, u32, u32)> = Vec::new();
            for tick in 0..TICKS {
                // Hand an emptied chip back; start at most one drain at a time.
                if let Some(chip) = draining {
                    if rt.cluster().chip(chip).vnpu_count() == 0 {
                        rt.complete_drain(chip).map_err(|e| e.to_string())?;
                        rt.undrain(chip).map_err(|e| e.to_string())?;
                        draining = None;
                    }
                }
                for &(at, arg) in pokes.iter().filter(|(at, _)| *at == tick) {
                    let chip = arg as usize % chips;
                    if arg % 3 == 0 {
                        let idle = draining.is_none()
                            && rt.drain_state(chip) == Ok(ChipSchedState::Schedulable);
                        if idle && rt.begin_drain(chip).is_ok() {
                            draining = Some(chip);
                        }
                    } else {
                        let core = (arg >> 4) % cores[chip];
                        let (m, v) = (50 + (arg >> 8) % 200, 50 + (arg >> 10) % 200);
                        rt.set_core_scales(chip, core, m, v)
                            .map_err(|e| e.to_string())?;
                        reset.push((at + 1, chip, core, m, v));
                        add(&seen.rescaled, 1);
                    }
                }
                for &(_, chip, core, m, v) in reset.iter().filter(|r| r.0 == tick) {
                    rt.set_core_scales(chip, core, m, v)
                        .map_err(|e| e.to_string())?;
                }
                let ev = rt.step().map_err(|e| format!("tick {tick}: {e}"))?;
                add(&seen.admitted, ev.admitted.len() as u64);
                add(&seen.departed, ev.departed);
                add(&seen.evacuated, ev.drain_migrations);
                add(&seen.onsets, ev.fault_onsets);
                add(&seen.repairs, ev.fault_repairs);
                add(&seen.remapped, ev.recoveries_remapped);
                add(&seen.replaced, ev.recoveries_replaced);
            }
            prop_assert!(
                rt.epoch_memo_hits() > 0,
                "no epoch was ever reused: the oracle checked nothing"
            );
            for e in rt.trace().expect("recording") {
                if let vnpu_temporal::TraceEvent::Migrated { cost, .. } = e {
                    add(&seen.core_moves, u64::from(cost.routing_cycles > 0));
                    add(&seen.memory_moves, u64::from(cost.rtt_cycles > 0));
                }
            }
            rt.drain().map_err(|e| e.to_string())?;
            let report = rt.report();
            prop_assert_eq!(report.leaked_cores, 0);
            prop_assert_eq!(report.leaked_hbm_bytes, 0);
            Ok(())
        },
    );

    for (what, count) in [
        ("admission", &seen.admitted),
        ("retirement", &seen.departed),
        ("defrag core move", &seen.core_moves),
        ("defrag memory move", &seen.memory_moves),
        ("drain evacuation", &seen.evacuated),
        ("fault onset", &seen.onsets),
        ("fault repair", &seen.repairs),
        ("recovery remap", &seen.remapped),
        ("recovery re-placement", &seen.replaced),
        ("core rescale", &seen.rescaled),
    ] {
        assert!(count.get() > 0, "the campaign never exercised a {what}");
    }
}
