//! The vRouter: NoC-router virtualization (§4.1).
//!
//! [`VRouterNoc`] implements [`vnpu_sim::noc::NocRouter`]: the per-core
//! send/receive engine extension that rewrites destination core IDs
//! through the routing table and, for a virtual NPU that requested *NoC
//! isolation*, follows the direction-override routes the hypervisor
//! deployed for it ([`ConfinedPaths`], Figure 5) instead of default
//! dimension-order routing. The controller-side redirection of NPU
//! instructions (Figure 4) is priced by
//! [`vnpu_sim::controller::dispatch_latency`], which Figure 12 reads.

use crate::routing_table::RT_LOOKUP_CYCLES;
use std::sync::Arc;
use vnpu_sim::noc::{dor_path_into, NocRouter};
use vnpu_sim::{Result as SimResult, SimError};
use vnpu_topo::route::{confined_path, dor_walk};
use vnpu_topo::{NodeId, Topology};

/// How the NoC vRouter picks paths between the virtual NPU's cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Default dimension-order routing on the physical mesh. Packets may
    /// cross cores of other virtual NPUs (*NoC interference* possible).
    Dor,
    /// Direction-override routing confined to the virtual NPU's allocated
    /// cores (paper strategy 2: "predefining the routing direction inside
    /// the routing table"): the router follows the routes of a
    /// [`ConfinedPaths`] record, which holds the DOR route for a pair a
    /// fragmented allocation cannot join inside itself.
    Confined,
}

/// The routes the hypervisor deploys for one virtual NPU under
/// [`RoutePolicy::Confined`]: for every ordered pair of its cores, the
/// shortest route inside the allocation, or the DOR route across foreign
/// cores where the allocation is fragmented (the §4.3
/// performance/utilization trade-off). Built when the cores are deployed,
/// it is the one record of the virtual NPU's routes: the routers of all
/// its cores, the routing audit and the fault detector read it, and none
/// of them derives a route again.
#[derive(Debug, PartialEq, Eq)]
pub struct ConfinedPaths {
    /// Physical core of each virtual core, in virtual order.
    cores: Vec<u32>,
    /// Every route's nodes, endpoints included, back to back.
    nodes: Vec<u32>,
    /// Route `p` is `nodes[bounds[p]..bounds[p + 1]]`, where the pair
    /// `(s, d)` of virtual cores is `p = s * cores.len() + d`; empty for a
    /// core to itself and for a pair no route joins.
    bounds: Vec<usize>,
    /// One per relay node of every confined route (meta-zone storage).
    direction_entries: u64,
    /// Pairs routed by DOR because no confined route exists.
    fallback_paths: u64,
}

impl ConfinedPaths {
    /// Routes every ordered pair of distinct cores in `v2p` on `topo`.
    pub fn build(topo: &Topology, v2p: &[u32]) -> Self {
        let allowed: Vec<NodeId> = v2p.iter().map(|&p| NodeId(p)).collect();
        let mut paths = ConfinedPaths {
            cores: v2p.to_vec(),
            nodes: Vec::new(),
            bounds: Vec::with_capacity(v2p.len().pow(2) + 1),
            direction_entries: 0,
            fallback_paths: 0,
        };
        paths.bounds.push(0);
        for &a in &allowed {
            for &b in &allowed {
                if a != b {
                    if let Ok(path) = confined_path(topo, &allowed, a, b) {
                        // One direction entry per relay node (minus source).
                        paths.direction_entries += path.len() as u64 - 1;
                        paths.nodes.extend(path.iter().map(|n| n.0));
                    } else if let Some(shape) = topo.mesh_shape() {
                        let walk = dor_walk(shape, a, b, |n| paths.nodes.push(n.0));
                        paths.fallback_paths += u64::from(walk.is_ok());
                    }
                }
                paths.bounds.push(paths.nodes.len());
            }
        }
        paths
    }

    /// The deployed route from physical core `src` to `dst`, both
    /// endpoints included, or `None` for a pair the record does not hold:
    /// a core outside the allocation, a core to itself, an unroutable
    /// pair.
    pub fn route(&self, src: u32, dst: u32) -> Option<&[u32]> {
        let s = self.cores.iter().position(|&c| c == src)?;
        let d = self.cores.iter().position(|&c| c == dst)?;
        let p = s * self.cores.len() + d;
        let route = &self.nodes[self.bounds[p]..self.bounds[p + 1]];
        (!route.is_empty()).then_some(route)
    }

    /// Every route the record holds, in virtual pair order.
    pub fn routes(&self) -> impl Iterator<Item = &[u32]> {
        let routes = self.bounds.windows(2).map(|w| &self.nodes[w[0]..w[1]]);
        routes.filter(|route| !route.is_empty())
    }

    /// Number of per-node direction entries the confined routes need
    /// (meta-zone storage).
    pub fn direction_entries(&self) -> u64 {
        self.direction_entries
    }

    /// Pairs that fell back to DOR because no confined route existed.
    pub fn fallback_paths(&self) -> u64 {
        self.fallback_paths
    }
}

/// Per-core NoC router for one virtual NPU.
///
/// Every bound virtual core gets its own instance, but only the
/// destination-rewrite cache is per core: the physical topology, the
/// virtual→physical core list and (under [`RoutePolicy::Confined`]) the
/// route record are what the hypervisor deployed for the whole virtual
/// NPU, held here by `Arc` — steady-state routing is table-driven, and
/// binding a core copies none of it.
pub struct VRouterNoc {
    topo: Arc<Topology>,
    v2p: Arc<[u32]>,
    cached_dst: Option<u32>,
    /// The deployed routes; `None` routes every pair by DOR.
    routes: Option<Arc<ConfinedPaths>>,
    /// Buffer for DOR routes.
    scratch: Vec<u32>,
}

impl std::fmt::Debug for VRouterNoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VRouterNoc")
            .field("cores", &self.v2p.len())
            .field("confined", &self.routes.is_some())
            .finish_non_exhaustive()
    }
}

impl VRouterNoc {
    /// Creates a NoC vRouter for a virtual NPU whose virtual core `i` is
    /// backed by physical core `v2p[i]` on the given physical mesh. Under
    /// [`RoutePolicy::Confined`] it builds a route record of its own — an
    /// ad-hoc router; the routers of a placed virtual NPU share the record
    /// deployed with its cores. Both arguments may be owned values or
    /// `Arc`s shared with sibling routers.
    pub fn new(
        phys_topo: impl Into<Arc<Topology>>,
        v2p: impl Into<Arc<[u32]>>,
        policy: RoutePolicy,
    ) -> Self {
        let (topo, v2p) = (phys_topo.into(), v2p.into());
        let routes =
            (policy == RoutePolicy::Confined).then(|| Arc::new(ConfinedPaths::build(&topo, &v2p)));
        VRouterNoc::deployed(topo, v2p, routes)
    }

    /// A router that follows `routes`, the record deployed for the
    /// virtual NPU's cores (DOR without one).
    pub(crate) fn deployed(
        topo: Arc<Topology>,
        v2p: Arc<[u32]>,
        routes: Option<Arc<ConfinedPaths>>,
    ) -> Self {
        VRouterNoc {
            topo,
            v2p,
            cached_dst: None,
            routes,
            scratch: Vec::new(),
        }
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
        // The deployed route, or DOR for a pair the record does not hold
        // (a thread bound outside the allocation, say).
        let deployed = self
            .routes
            .as_ref()
            .and_then(|r| r.route(src_phys, dst_phys));
        if let Some(route) = deployed {
            return Ok(route);
        }
        let shape = self.topo.mesh_shape().ok_or(SimError::RouteFault {
            core: src_phys,
            dst: dst_phys,
        })?;
        dor_path_into(shape, src_phys, dst_phys, &mut self.scratch)?;
        Ok(&self.scratch)
    }

    fn per_packet_overhead(&self) -> u64 {
        1 // destination-rewrite mux in the send/receive engine
    }

    fn name(&self) -> String {
        match self.routes {
            None => "vrouter-dor".to_owned(),
            Some(_) => "vrouter-confined".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu_mem::translate::PhysicalTranslator;
    use vnpu_sim::machine::CoreServices;
    use vnpu_sim::noc::DorRouter;
    use vnpu_sim::{Instr, Machine, Program, SocConfig};

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
        let paths = ConfinedPaths::build(&Topology::mesh2d(4, 3), &[3, 6, 7, 11]);
        assert!(paths.direction_entries() > 0);
        assert_eq!(paths.fallback_paths(), 0, "fig5 vNPU2 is connected");
        assert_eq!(paths.route(11, 6), Some(&[11, 7, 6][..]));
        // A core to itself and a core outside the allocation.
        assert_eq!(paths.route(6, 6), None);
        assert_eq!(paths.route(11, 10), None);
    }

    #[test]
    fn fragmented_vnpu_falls_back_to_dor() {
        // Two disconnected islands: {0} and {15} on a 4x4 mesh.
        let topo = Topology::mesh2d(4, 4);
        assert_eq!(ConfinedPaths::build(&topo, &[0, 15]).fallback_paths(), 2);
        let mut r = VRouterNoc::new(topo, vec![0, 15], RoutePolicy::Confined);
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
                        Box::new(VRouterNoc::new(topo.clone(), v2p.to_vec(), policy))
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
