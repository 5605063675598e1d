//! The vRouter: NPU instruction-router and NoC-router virtualization
//! (§4.1).
//!
//! * [`InstRouter`] models the controller-side redirection of NPU
//!   instructions from virtual to physical cores (Figure 4), with the
//!   §6.2.1 cached-translation shortcut. Only its unit test builds one;
//!   the Figure 12 dispatch latencies come from
//!   [`vnpu_sim::controller::dispatch_latency`].
//! * [`VRouterNoc`] implements [`vnpu_sim::noc::NocRouter`]: the per-core
//!   send/receive engine extension that rewrites destination core IDs
//!   through the routing table and, when *NoC isolation* is requested,
//!   walks direction-override paths confined to the virtual topology
//!   (Figure 5) instead of default dimension-order routing.

use crate::ids::{PhysCoreId, VirtCoreId};
use crate::routing_table::{RoutingTable, RT_LOOKUP_CYCLES};
use std::collections::HashMap;
use std::sync::Arc;
use vnpu_sim::noc::{dor_path_into, NocRouter};
use vnpu_sim::{Result as SimResult, SimError};
use vnpu_topo::{route, NodeId, Topology};

/// Controller-side instruction router.
#[derive(Debug, Clone)]
pub struct InstRouter {
    table: RoutingTable,
    lookups: u64,
    cached: Option<(VirtCoreId, PhysCoreId)>,
}

impl InstRouter {
    /// Wraps a routing table.
    pub fn new(table: RoutingTable) -> Self {
        InstRouter {
            table,
            lookups: 0,
            cached: None,
        }
    }

    /// Redirects an instruction addressed to virtual core `v`, returning
    /// the physical core and the lookup cost in cycles (0 when the
    /// translation is cached from the previous instruction — §6.2.1: "if
    /// consecutive instructions are directed to the same NPU core, the
    /// subsequent instructions do not need to query the routing table
    /// again").
    pub fn redirect(&mut self, v: VirtCoreId) -> Option<(PhysCoreId, u64)> {
        if let Some((cv, cp)) = self.cached {
            if cv == v {
                return Some((cp, 0));
            }
        }
        let p = self.table.lookup(v)?;
        self.lookups += 1;
        self.cached = Some((v, p));
        Some((p, RT_LOOKUP_CYCLES))
    }

    /// Number of real (uncached) table lookups performed.
    pub fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// The underlying table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }
}

/// How the NoC vRouter picks paths between the virtual NPU's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Default dimension-order routing on the physical mesh. Packets may
    /// cross cores of other virtual NPUs (*NoC interference* possible).
    Dor,
    /// Direction-override routing confined to the virtual NPU's allocated
    /// cores (paper strategy 2: "predefining the routing direction inside
    /// the routing table"). Falls back to DOR when no confined path exists
    /// (fragmented allocations).
    Confined,
}

/// The direction-override paths the hypervisor deploys for one virtual
/// NPU under [`RoutePolicy::Confined`]: every ordered pair of its cores,
/// routed inside the allocation where a confined route exists and by DOR
/// where the allocation is fragmented. Built once per deployment and
/// shared by the routers of all the virtual NPU's cores.
#[derive(Debug, Default)]
pub struct ConfinedPaths {
    paths: HashMap<(u32, u32), Vec<u32>>,
    /// One per relay node of every confined path (meta-zone storage).
    direction_entries: u64,
    /// Pairs routed by DOR because no confined route exists.
    fallback_paths: u64,
}

impl ConfinedPaths {
    /// Routes every ordered pair of distinct cores in `v2p` on `topo`.
    pub fn build(topo: &Topology, v2p: &[u32]) -> Self {
        let allowed: Vec<NodeId> = v2p.iter().map(|&p| NodeId(p)).collect();
        let mut table = ConfinedPaths::default();
        for &a in v2p {
            for &b in v2p {
                if a == b {
                    continue;
                }
                let Ok((path, fallback)) = confined_or_dor(topo, &allowed, a, b) else {
                    continue;
                };
                if fallback {
                    table.fallback_paths += 1;
                } else {
                    // One direction entry per relay node (minus source).
                    table.direction_entries += path.len().saturating_sub(1) as u64;
                }
                table.paths.insert((a, b), path);
            }
        }
        table
    }
}

/// Per-core NoC router for one virtual NPU.
///
/// Every bound virtual core gets its own instance, but only the
/// destination-rewrite cache is per core: the physical topology, the
/// virtual→physical core list and (under [`RoutePolicy::Confined`]) the
/// path table are what the hypervisor deployed for the whole virtual NPU,
/// held here by `Arc` — steady-state routing is table-driven, and binding
/// a core copies none of it.
pub struct VRouterNoc {
    topo: Arc<Topology>,
    v2p: Arc<[u32]>,
    policy: RoutePolicy,
    cached_dst: Option<u32>,
    deployed: Option<Arc<ConfinedPaths>>,
    /// Buffer for routes computed on the fly (DOR, or a confined pair the
    /// deployed table does not hold).
    scratch: Vec<u32>,
}

impl std::fmt::Debug for VRouterNoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VRouterNoc")
            .field("cores", &self.v2p.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl VRouterNoc {
    /// Creates a NoC vRouter for a virtual NPU whose virtual core `i` is
    /// backed by physical core `v2p[i]` on the given physical mesh. Both
    /// arguments may be owned values or `Arc`s shared with sibling
    /// routers.
    pub fn new(
        phys_topo: impl Into<Arc<Topology>>,
        v2p: impl Into<Arc<[u32]>>,
        policy: RoutePolicy,
    ) -> Self {
        VRouterNoc {
            topo: phys_topo.into(),
            v2p: v2p.into(),
            policy,
            cached_dst: None,
            deployed: None,
            scratch: Vec::new(),
        }
    }

    /// Installs an already-built path table (the one the virtual NPU's
    /// other cores use).
    pub fn with_paths(mut self, paths: Arc<ConfinedPaths>) -> Self {
        self.deployed = Some(paths);
        self
    }

    /// Precomputes all pairwise paths among the virtual NPU's cores (what
    /// the hypervisor deploys into per-core meta-zones) for a router that
    /// was not handed a shared table. Returns the total number of
    /// direction entries installed.
    pub fn precompute_paths(&mut self) -> u64 {
        // DOR needs no table: routes are a function of the endpoints.
        if self.policy == RoutePolicy::Confined {
            self.deployed = Some(Arc::new(ConfinedPaths::build(&self.topo, &self.v2p)));
        }
        self.direction_entries()
    }

    /// Number of per-node direction entries deployed for this router
    /// (meta-zone storage accounting for [`crate::hwcost`]).
    pub fn direction_entries(&self) -> u64 {
        self.deployed.as_ref().map_or(0, |p| p.direction_entries)
    }

    /// Paths that fell back to DOR because no confined route existed.
    pub fn fallback_paths(&self) -> u64 {
        self.deployed.as_ref().map_or(0, |p| p.fallback_paths)
    }

    /// The route policy in force.
    pub fn policy(&self) -> RoutePolicy {
        self.policy
    }
}

impl NocRouter for VRouterNoc {
    fn resolve(&mut self, dst_program: u32) -> SimResult<(u32, u64)> {
        let Some(&p) = self.v2p.get(dst_program as usize) else {
            return Err(SimError::RouteFault {
                core: u32::MAX,
                dst: dst_program,
            });
        };
        // Destination-rewrite cache: repeated sends to the same virtual
        // core skip the routing-table read.
        if self.cached_dst == Some(dst_program) {
            return Ok((p, 0));
        }
        self.cached_dst = Some(dst_program);
        Ok((p, RT_LOOKUP_CYCLES))
    }

    fn path(&mut self, src_phys: u32, dst_phys: u32) -> SimResult<&[u32]> {
        let fault = || SimError::RouteFault {
            core: src_phys,
            dst: dst_phys,
        };
        if self.policy == RoutePolicy::Dor {
            let shape = self.topo.mesh_shape().ok_or_else(fault)?;
            dor_path_into(shape, src_phys, dst_phys, &mut self.scratch)?;
            return Ok(&self.scratch);
        }
        if let Some(path) = self
            .deployed
            .as_ref()
            .and_then(|table| table.paths.get(&(src_phys, dst_phys)))
        {
            return Ok(path);
        }
        let allowed: Vec<NodeId> = self.v2p.iter().map(|&p| NodeId(p)).collect();
        let (path, _) =
            confined_or_dor(&self.topo, &allowed, src_phys, dst_phys).map_err(|_| fault())?;
        self.scratch = path;
        Ok(&self.scratch)
    }

    fn per_packet_overhead(&self) -> u64 {
        1 // destination-rewrite mux in the send/receive engine
    }

    fn name(&self) -> String {
        match self.policy {
            RoutePolicy::Dor => "vrouter-dor".to_owned(),
            RoutePolicy::Confined => "vrouter-confined".to_owned(),
        }
    }
}

/// The confined route `src → dst` inside `allowed`, or — for a fragmented
/// virtual NPU with no such route — the DOR route across foreign cores
/// (the §4.3 performance/utilization trade-off), flagged `true`.
fn confined_or_dor(
    topo: &Topology,
    allowed: &[NodeId],
    src: u32,
    dst: u32,
) -> Result<(Vec<u32>, bool), vnpu_topo::TopoError> {
    let as_u32 = |p: Vec<NodeId>| p.into_iter().map(|n| n.0).collect::<Vec<u32>>();
    match route::confined_path(topo, allowed, NodeId(src), NodeId(dst)) {
        Ok(p) => Ok((as_u32(p), false)),
        Err(_) => route::dor_path(topo, NodeId(src), NodeId(dst)).map(|p| (as_u32(p), true)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VmId;
    use vnpu_mem::translate::PhysicalTranslator;
    use vnpu_sim::machine::CoreServices;
    use vnpu_sim::noc::DorRouter;
    use vnpu_sim::{Instr, Machine, Program, SocConfig};
    use vnpu_topo::MeshShape;

    #[test]
    fn inst_router_caches_repeat_destinations() {
        let table = RoutingTable::mesh2d(
            VmId(1),
            PhysCoreId(0),
            MeshShape {
                width: 2,
                height: 2,
            },
            4,
        );
        let mut r = InstRouter::new(table);
        let (p1, c1) = r.redirect(VirtCoreId(3)).unwrap();
        assert_eq!(p1, PhysCoreId(5));
        assert_eq!(c1, RT_LOOKUP_CYCLES);
        let (_, c2) = r.redirect(VirtCoreId(3)).unwrap();
        assert_eq!(c2, 0, "repeat destination must hit the cache");
        let (_, c3) = r.redirect(VirtCoreId(0)).unwrap();
        assert_eq!(c3, RT_LOOKUP_CYCLES);
        assert_eq!(r.lookup_count(), 2);
        assert!(r.redirect(VirtCoreId(9)).is_none());
    }

    /// Figure 5's vNPU2: virtual cores on physical {3, 6, 7, 11} of a 4x3
    /// mesh; the route 11 -> 6 must avoid physical core 10.
    fn fig5_router(policy: RoutePolicy) -> VRouterNoc {
        let topo = Topology::mesh2d(4, 3);
        VRouterNoc::new(topo, vec![3, 6, 7, 11], policy)
    }

    #[test]
    fn confined_path_stays_inside_vnpu() {
        let mut r = fig5_router(RoutePolicy::Confined);
        let path = r.path(11, 6).unwrap();
        assert_eq!(path, vec![11, 7, 6]);
    }

    #[test]
    fn dor_path_crosses_foreign_core() {
        let mut r = fig5_router(RoutePolicy::Dor);
        let path = r.path(11, 6).unwrap();
        // DOR (X then Y): 11 is (3,2); 6 is (2,1): go west to (2,2)=10,
        // then north to 6 — crossing foreign core 10.
        assert_eq!(path, vec![11, 10, 6]);
    }

    #[test]
    fn resolve_translates_and_caches() {
        let mut r = fig5_router(RoutePolicy::Confined);
        let (p, c) = r.resolve(2).unwrap();
        assert_eq!(p, 7);
        assert_eq!(c, RT_LOOKUP_CYCLES);
        let (_, c2) = r.resolve(2).unwrap();
        assert_eq!(c2, 0);
        let (_, c3) = r.resolve(0).unwrap();
        assert_eq!(c3, RT_LOOKUP_CYCLES);
        assert!(r.resolve(4).is_err());
    }

    #[test]
    fn precompute_counts_direction_entries() {
        let mut r = fig5_router(RoutePolicy::Confined);
        let entries = r.precompute_paths();
        assert!(entries > 0);
        assert_eq!(r.fallback_paths(), 0, "fig5 vNPU2 is connected");
        // Cached path still served.
        assert_eq!(r.path(11, 6).unwrap(), vec![11, 7, 6]);
    }

    #[test]
    fn fragmented_vnpu_falls_back_to_dor() {
        // Two disconnected islands: {0} and {15} on a 4x4 mesh.
        let topo = Topology::mesh2d(4, 4);
        let mut r = VRouterNoc::new(topo, vec![0, 15], RoutePolicy::Confined);
        r.precompute_paths();
        assert!(r.fallback_paths() > 0);
        let path = r.path(0, 15).unwrap();
        assert_eq!(path.len(), 7); // DOR path exists
    }

    #[test]
    fn per_packet_overhead_is_one_cycle() {
        let r = fig5_router(RoutePolicy::Dor);
        assert_eq!(r.per_packet_overhead(), 1);
    }

    /// Sends a virtual core issues each iteration, as `(destination offset,
    /// bytes)`: one destination again and again, two alternating, empty
    /// sends around full ones, and — at offset 3 on the two-core pair — a
    /// self-send.
    const PATTERNS: [&[(u32, u64)]; 4] = [
        &[(1, 4096), (1, 2048), (1, 100)],
        &[(1, 2048), (2, 3000), (1, 2048), (2, 0), (1, 5000)],
        &[(1, 0), (1, 4096), (1, 0), (2, 0), (2, 700)],
        &[(2, 9000), (2, 9000), (3, 2048), (2, 1)],
    ];

    /// On a 4x4 mesh: a U whose confined routes go round the cores 1 and 5
    /// that its DOR routes cross, an L, and a pair.
    const LAYOUTS: [&[u32]; 3] = [&[0, 4, 8, 9, 10, 6, 2], &[3, 7, 11, 15, 14, 13], &[1, 5]];

    /// One machine's outcome: every tenant's stats and the NoC counters,
    /// or the error text. `case` picks the link faulted before the epoch
    /// (none, one the U's routes cross, one only DOR routes cross), a
    /// second thread under a virtual core ID, and a send to a destination
    /// the tenant does not have.
    fn ring_outcome(router: usize, pattern: usize, case: usize, iterations: u32) -> String {
        let cfg = SocConfig {
            mesh_width: 4,
            mesh_height: 4,
            flow_credit_bytes: 1 << 20,
            ..SocConfig::fpga()
        };
        let topo = Arc::new(Topology::mesh2d(4, 4));
        let mut machine = Machine::new(cfg.clone());
        if let Some((a, b)) = [None, Some((4, 8)), Some((1, 2))][case % 3] {
            machine.fault_link(a, b).unwrap();
        }
        for (l, &v2p) in LAYOUTS.iter().enumerate() {
            let tenant = machine.add_tenant("ring");
            let n = v2p.len() as u32;
            // The first layout runs the router under test, the others DOR
            // on physical IDs, where a program names physical cores.
            let kind = if l == 0 { router } else { 0 };
            let id = |v: u32| if kind == 0 { v2p[v as usize] } else { v };
            let services = || {
                let router: Box<dyn NocRouter> = match kind {
                    0 => Box::new(DorRouter::new(&cfg)),
                    _ => {
                        let policy = [RoutePolicy::Dor, RoutePolicy::Confined][kind - 1];
                        let mut r = VRouterNoc::new(topo.clone(), v2p.to_vec(), policy);
                        r.precompute_paths();
                        Box::new(r)
                    }
                };
                CoreServices {
                    router,
                    translator: Box::new(PhysicalTranslator::new()),
                    limiter: None,
                }
            };
            let sends = |v: u32| PATTERNS[(pattern + v as usize) % PATTERNS.len()];
            for v in 0..n {
                let mut body: Vec<Instr> = sends(v)
                    .iter()
                    .map(|&(off, bytes)| Instr::send(id((v + off) % n), bytes, 0))
                    .collect();
                for src in 0..n {
                    let inbound: u64 = sends(src)
                        .iter()
                        .filter(|&&(off, _)| (src + off) % n == v)
                        .map(|&(_, bytes)| bytes)
                        .sum();
                    if inbound > 0 {
                        body.push(Instr::recv(id(src), inbound, 0));
                    }
                }
                if l == 0 && v == n - 1 && case / 6 == 1 {
                    // A destination the tenant does not have.
                    body.push(Instr::send(id(n - 1) + 16, 64, 0));
                }
                let phys = v2p[v as usize];
                let program = Program::looped(vec![], body, iterations);
                (machine.bind_with(phys, tenant, id(v), program, services())).unwrap();
            }
            if l == 0 && case / 3 % 2 == 1 {
                // A second thread under virtual core 0, on core 12 outside
                // the allocation: its sends join core 0's flows.
                let body = vec![Instr::send(id(2), 2048, 0), Instr::send(id(2), 0, 0)];
                let program = Program::looped(vec![], body, iterations);
                (machine.bind_with(12, tenant, id(0), program, services())).unwrap();
            }
        }
        match machine.run() {
            Ok(report) => format!(
                "{} {:?} {} {}",
                report.makespan(),
                report.tenants(),
                report.noc_contention_cycles(),
                report.noc_packets()
            ),
            Err(error) => format!("error: {error}"),
        }
    }

    #[test]
    fn routed_ring_sends_are_pinned() {
        // Every outcome, folded, and every error text: a change to how a
        // `Send` resolves, routes and checks its path must keep them.
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        let mut errors = std::collections::BTreeSet::new();
        for router in 0..3 {
            for pattern in 0..PATTERNS.len() {
                for case in 0..12 {
                    for iterations in [1, 3] {
                        let outcome = ring_outcome(router, pattern, case, iterations);
                        for byte in outcome.bytes() {
                            fold = (fold ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                        }
                        if let Some(text) = outcome.strip_prefix("error: ") {
                            errors.insert(text.to_owned());
                        }
                    }
                }
            }
        }
        let errors: Vec<&str> = errors.iter().map(String::as_str).collect();
        assert_eq!(fold, 6_870_036_314_249_117_706);
        assert_eq!(
            errors,
            [
                "NoC link 2 \u{2192} 1 is faulted",
                "NoC link 4 \u{2192} 8 is faulted",
                "NoC link 8 \u{2192} 4 is faulted",
                "core 2 cannot route to program destination 18",
                "core 2 cannot route to program destination 22",
            ]
        );
    }
}
