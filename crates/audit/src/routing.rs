//! NoC routing static analysis: deadlock freedom and inter-tenant link
//! isolation, proven from the resident tenants' routing tables, the routes
//! deployed for them and the physical mesh link graph.
//!
//! The pass takes the exact per-flow paths the vRouters take: a pair's
//! route from the record deployed with an isolated tenant's cores
//! ([`ConfinedPaths`]), and the dimension-order (X-then-Y) route for a
//! pair the record does not hold and for every pair of a plain tenant.
//! It derives no confined route itself, so a bad deployment is what it
//! checks. Then it checks three properties:
//!
//! * **Table soundness** — every routing-table entry resolves to the
//!   physical core the tenant's mapping actually granted (`ROUTE-TABLE`).
//! * **Isolation** — no physical link carries traffic of two tenants
//!   when either of them was promised NoC isolation (`ROUTE-ISO`), and
//!   no confined tenant's path escapes its own cores (`ROUTE-CONF`).
//!   Ordinary DOR fleets share links by design, so sharing between
//!   plain tenants is no finding.
//! * **Deadlock freedom** — the channel-dependency graph over directed
//!   mesh links (one edge per consecutive hop pair of any flow) is
//!   acyclic (`ROUTE-CDG`). X-then-Y routing is provably acyclic; the
//!   check covers confined direction-override paths, where a cycle is a
//!   genuine wormhole-deadlock hazard.
//!
//! The pass runs after every audited serve tick, so it works on flat
//! arrays and allocates nothing per path or per search step. Each
//! directed link gets a dense id from the topology's sorted adjacency —
//! `a → b` is numbered after every link leaving a lower core and after
//! `a`'s links to lower neighbours — so ascending ids are ascending
//! [`Link`]s. The per-tenant half is one entry per tenant, a function of
//! its [`TenantRoutes`] and the topology alone: its paths node after node
//! in one `Vec<u32>` with end offsets, and its turn dependencies as
//! link-id pairs, sorted and de-duplicated. The rules then run over every
//! tenant's entry. [`audit_routing`] builds all the entries fresh;
//! [`crate::FleetAuditor`] keeps them per `(vm, deployment stamp)` and
//! rebuilds only a redeployed tenant's, and both run the same rules.
//! Link occupancy is one sorted `(link, tenant)` array, built only when
//! an isolated tenant can turn sharing into a finding; the deadlock
//! search is one iterative DFS over the union of the entries' link-id
//! dependencies with a color array and an explicit stack, rooted in
//! ascending order and taking successors in ascending order. Those are
//! the orders the `BTreeMap`s this replaced iterated in, so the findings,
//! their order, their text and the `ROUTE-CDG` witness are unchanged (a
//! test-only `reference` module keeps the old pass as the oracle).

use crate::{AuditFinding, Rule};
use std::fmt;
use std::sync::Arc;
use vnpu::vrouter::ConfinedPaths;
use vnpu::{Hypervisor, VirtCoreId, VirtualNpu, VmId};
use vnpu_topo::route::dor_walk;
use vnpu_topo::{NodeId, Topology};

/// A directed physical mesh link `from → to` (adjacent cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    /// Upstream core.
    pub from: u32,
    /// Downstream core.
    pub to: u32,
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}\u{2192}p{}", self.from, self.to)
    }
}

/// One tenant's routing facts, as extracted from the hypervisor (or
/// hand-built by tests). All fields are public so property tests can
/// construct corrupted instances directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRoutes {
    /// The tenant.
    pub vm: VmId,
    /// Whether the tenant was promised NoC isolation (confined routing).
    pub isolated: bool,
    /// Physical core backing each virtual core, in virtual-core order,
    /// *as the routing table resolves it* — what packets actually target.
    pub table_cores: Vec<u32>,
    /// Physical cores the tenant's mapping grants, in virtual-core
    /// order — the ownership ground truth the table must agree with.
    pub owned_cores: Vec<u32>,
    /// The routes deployed with an isolated tenant's cores; `None` routes
    /// every pair by DOR, as the tenant's routers do.
    pub routes: Option<Arc<ConfinedPaths>>,
}

/// Extracts [`TenantRoutes`] for every resident tenant of a chip, in
/// VM-ID order. Virtual cores whose routing-table lookup fails are
/// dropped from `table_cores`, which [`audit_routing`] reports as a
/// table/mapping mismatch.
pub fn collect_tenant_routes(hv: &Hypervisor) -> Vec<TenantRoutes> {
    hv.vnpus().map(|(&vm, v)| tenant_routes(vm, v)).collect()
}

/// One resident tenant's [`TenantRoutes`].
pub(crate) fn tenant_routes(vm: VmId, v: &VirtualNpu) -> TenantRoutes {
    TenantRoutes {
        vm,
        isolated: v.request().wants_noc_isolation(),
        table_cores: (0..v.core_count())
            .filter_map(|i| v.routing_table().lookup(VirtCoreId(i)).map(|p| p.0))
            .collect(),
        owned_cores: v.mapping().phys_nodes().iter().map(|n| n.0).collect(),
        routes: v.routes().cloned(),
    }
}

/// One tenant's share of the routing pass, a function of its
/// [`TenantRoutes`] and the topology alone: its all-pairs paths on the
/// physical mesh, flat (path `p` visits `nodes[bounds[p]..bounds[p + 1]]`,
/// in `(src, dst)` table order), and its turn dependencies as
/// `(upstream, downstream)` link ids, sorted and de-duplicated. Each pair
/// takes its deployed route, or DOR, exactly as the router does;
/// unroutable pairs are skipped. An isolated tenant with a disconnected
/// region carries DOR routes in its record, which the escape rule then
/// flags.
#[derive(Debug, Clone)]
pub(crate) struct TenantEntry {
    routes: TenantRoutes,
    nodes: Vec<u32>,
    bounds: Vec<usize>,
    deps: Vec<(u32, u32)>,
}

impl TenantEntry {
    pub(crate) fn new(ids: &LinkIds, routes: TenantRoutes) -> Self {
        // At most a path per ordered pair, of a few nodes on a chip.
        let pairs = routes.table_cores.len().pow(2);
        let mut nodes = Vec::with_capacity(4 * pairs);
        let mut bounds = Vec::with_capacity(pairs + 1);
        bounds.push(0);
        let cores = &routes.table_cores;
        for &src in cores {
            for &dst in cores.iter().filter(|&&dst| dst != src) {
                let deployed = routes.routes.as_ref().and_then(|r| r.route(src, dst));
                match (deployed, ids.topo.mesh_shape()) {
                    (Some(route), _) => nodes.extend_from_slice(route),
                    (None, Some(shape)) => {
                        // Refused (an endpoint off the mesh): visits nothing.
                        let (src, dst) = (NodeId(src), NodeId(dst));
                        let _ = dor_walk(shape, src, dst, |n| nodes.push(n.0));
                    }
                    (None, None) => {}
                }
                if nodes.len() > bounds[bounds.len() - 1] {
                    bounds.push(nodes.len());
                }
            }
        }
        let mut entry = TenantEntry {
            routes,
            nodes,
            bounds,
            deps: Vec::new(),
        };
        // Fewer turns than nodes: one allocation.
        let mut deps = Vec::with_capacity(entry.nodes.len());
        let turns = entry.paths().flat_map(|p| p.windows(3));
        deps.extend(turns.map(|w| (ids.id(w[0], w[1]), ids.id(w[1], w[2]))));
        deps.sort_unstable();
        deps.dedup();
        entry.deps = deps;
        entry
    }

    /// The tenant's paths.
    fn paths(&self) -> impl Iterator<Item = &[u32]> {
        self.bounds.windows(2).map(|w| &self.nodes[w[0]..w[1]])
    }
}

/// Dense ids for a topology's directed links: `a → b` is `first[a]` plus
/// the rank of `b` among `a`'s neighbours, which come ascending, so
/// ascending ids are ascending [`Link`]s on any [`Topology`].
pub(crate) struct LinkIds<'t> {
    topo: &'t Topology,
    /// Id of each core's first outgoing link, then the link count.
    first: Vec<u32>,
}

impl<'t> LinkIds<'t> {
    pub(crate) fn new(topo: &'t Topology) -> Self {
        let mut first = vec![0];
        for node in topo.nodes() {
            first.push(first[node.index()] + topo.degree(node) as u32);
        }
        LinkIds { topo, first }
    }

    /// The id of hop `a → b`. Every path hop is a topology link: the
    /// confined router walks neighbours, and DOR only runs on a
    /// mesh-tagged topology, which only `mesh2d` / `torus2d` build.
    fn id(&self, a: u32, b: u32) -> u32 {
        let (a, b) = (NodeId(a), NodeId(b));
        debug_assert!(self.topo.has_edge(a, b), "hop {a}->{b} is not a link");
        let below = self.topo.neighbors(a).take_while(|&n| n < b).count();
        self.first[a.index()] + below as u32
    }

    fn link(&self, id: u32) -> Link {
        let from = self.first.partition_point(|&f| f <= id) - 1;
        let rank = (id - self.first[from]) as usize;
        let to = self.topo.neighbors(NodeId(from as u32)).nth(rank);
        Link {
            from: from as u32,
            to: to.expect("a link id ranks one of its core's neighbours").0,
        }
    }
}

/// The directed links a path traverses.
fn path_links(path: &[u32]) -> impl Iterator<Item = Link> + '_ {
    path.windows(2).map(|w| Link {
        from: w[0],
        to: w[1],
    })
}

/// Searches the channel-dependency graph of the given paths for a
/// cycle. Nodes are directed links; every consecutive hop pair of a
/// path contributes a dependency edge. Returns one witness cycle (as
/// the link sequence, first link repeated at the end) or `None` when
/// the graph is acyclic — i.e. the routing function is deadlock-free
/// for these flows.
pub fn find_cdg_cycle(paths: &[Vec<u32>]) -> Option<Vec<Link>> {
    // Ids by rank among the distinct links, so they ascend as links do.
    let mut links: Vec<Link> = paths.iter().flat_map(|p| path_links(p)).collect();
    links.sort_unstable();
    links.dedup();
    let id = |from, to| links.partition_point(|&l| l < Link { from, to }) as u32;
    let deps = paths.iter().flat_map(|p| p.windows(3));
    let deps = deps.map(|w| (id(w[0], w[1]), id(w[1], w[2]))).collect();
    let cycle = cdg_cycle(links.len(), deps)?;
    Some(cycle.into_iter().map(|l| links[l as usize]).collect())
}

/// The cycle search over link ids `0..links` (ascending ids = ascending
/// links), `deps` holding one `(upstream, downstream)` pair per
/// consecutive hop pair: an iterative three-color DFS rooted at every
/// link in ascending order, taking successors in ascending order, that
/// returns the first back edge's cycle, first link repeated at the end.
fn cdg_cycle(links: usize, mut deps: Vec<(u32, u32)>) -> Option<Vec<u32>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    deps.sort_unstable();
    deps.dedup();
    // Link `l`'s successors are `deps[start[l]..start[l + 1]]`.
    let mut start = vec![0u32; links + 1];
    for &(l, _) in &deps {
        start[l as usize + 1] += 1;
    }
    for l in 0..links {
        start[l + 1] += start[l];
    }
    let mut color = vec![Color::White; links];
    // The gray chain, each link with the index of its next successor.
    let mut stack: Vec<(u32, u32)> = Vec::new();
    for root in 0..links {
        // A link without successors closes no cycle: nothing to search.
        if color[root] != Color::White || start[root] == start[root + 1] {
            continue;
        }
        color[root] = Color::Gray;
        stack.push((root as u32, start[root]));
        while let Some((link, next)) = stack.last_mut() {
            let link = *link as usize;
            if *next == start[link + 1] {
                color[link] = Color::Black;
                stack.pop();
                continue;
            }
            let succ = deps[*next as usize].1;
            *next += 1;
            match color[succ as usize] {
                Color::White => {
                    color[succ as usize] = Color::Gray;
                    stack.push((succ, start[succ as usize]));
                }
                Color::Gray => {
                    // A back edge: the cycle is the chain from `succ` on,
                    // closed with `succ` again.
                    let from = stack.iter().position(|&(l, _)| l == succ).unwrap_or(0);
                    let mut cycle: Vec<u32> = stack[from..].iter().map(|&(l, _)| l).collect();
                    cycle.push(succ);
                    return Some(cycle);
                }
                Color::Black => {}
            }
        }
    }
    None
}

/// Runs the routing static analysis over a set of tenants on the given
/// physical topology.
pub fn audit_routing(topo: &Topology, tenants: &[TenantRoutes]) -> Vec<AuditFinding> {
    let ids = LinkIds::new(topo);
    let entries: Vec<TenantEntry> = tenants
        .iter()
        .map(|t| TenantEntry::new(&ids, t.clone()))
        .collect();
    routing_findings(&ids, &entries)
}

/// The routing rules over every resident tenant's entry, in VM-ID order:
/// the one place they are checked, fresh or memoised.
pub(crate) fn routing_findings(ids: &LinkIds, entries: &[TenantEntry]) -> Vec<AuditFinding> {
    let mut findings = Vec::new();

    // ROUTE-TABLE: the table must resolve exactly the granted cores.
    for t in entries.iter().map(|e| &e.routes) {
        if t.table_cores != t.owned_cores {
            let mismatch = t
                .table_cores
                .iter()
                .zip(&t.owned_cores)
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| t.table_cores.len().min(t.owned_cores.len()));
            findings.push(
                AuditFinding::error(
                    Rule::RouteTableMismatch,
                    format!(
                        "routing table resolves {} cores {:?} but the mapping grants {} cores \
                         {:?} (first divergence at virtual core {mismatch})",
                        t.table_cores.len(),
                        t.table_cores,
                        t.owned_cores.len(),
                        t.owned_cores
                    ),
                )
                .vm(t.vm)
                .core(t.table_cores.get(mismatch).copied()),
            );
        }
    }

    // ROUTE-CONF: a confined tenant's traffic must stay on its own cores.
    let n = ids.topo.node_count();
    for e in entries.iter().filter(|e| e.routes.isolated) {
        let t = &e.routes;
        let mut escaped = vec![false; n];
        for &node in &e.nodes {
            escaped[node as usize] |= !t.owned_cores.contains(&node);
        }
        for core in (0..n as u32).filter(|&c| escaped[c as usize]) {
            findings.push(
                AuditFinding::error(
                    Rule::RouteEscapedRegion,
                    "confined route crosses a core outside the tenant's allocation \
                     (DOR fallback in effect — isolation not actually deployed)",
                )
                .vm(t.vm)
                .core(core),
            );
        }
    }

    // Link occupancy — which tenants put traffic on each directed link,
    // grouped by link, VM-ID order within — can only matter when a tenant
    // was promised isolation.
    if entries.iter().any(|e| e.routes.isolated) {
        let mut users: Vec<(u32, VmId)> = Vec::new();
        for e in entries {
            for path in e.paths() {
                users.extend(path.windows(2).map(|w| (ids.id(w[0], w[1]), e.routes.vm)));
            }
        }
        users.sort_unstable();
        users.dedup();
        for group in users.chunk_by(|a, b| a.0 == b.0).filter(|g| g.len() >= 2) {
            let link = ids.link(group[0].0);
            let vms = group.iter().map(|&(_, vm)| vm);
            let isolated = |vm| {
                entries
                    .iter()
                    .any(|e| e.routes.isolated && e.routes.vm == vm)
            };
            if let Some(iso) = vms.clone().find(|&vm| isolated(vm)) {
                let others: Vec<String> = vms
                    .filter(|&vm| vm != iso)
                    .map(|vm| vm.to_string())
                    .collect();
                findings.push(
                    AuditFinding::error(
                        Rule::RouteIsolationLeak,
                        format!(
                            "link {link} carries traffic of isolated tenant {iso} and of {} — \
                             NoC isolation violated",
                            others.join(", ")
                        ),
                    )
                    .vm(iso)
                    .core(link.from),
                );
            }
        }
    }

    // ROUTE-CDG: the union of all flows must be deadlock-free.
    let mut deps = Vec::with_capacity(entries.iter().map(|e| e.deps.len()).sum());
    deps.extend(entries.iter().flat_map(|e| e.deps.iter().copied()));
    if let Some(cycle) = cdg_cycle(ids.first[n] as usize, deps) {
        let chain: Vec<String> = cycle.iter().map(|&l| ids.link(l).to_string()).collect();
        findings.push(AuditFinding::error(
            Rule::RouteDeadlockCycle,
            format!(
                "channel-dependency cycle: {} — wormhole deadlock possible",
                chain.join(" \u{2192} ")
            ),
        ));
    }

    findings
}

#[cfg(test)]
pub(crate) mod reference {
    //! The routing pass the flat `audit_routing` replaced, kept verbatim
    //! as a differential oracle: a `Vec` per path, link occupancy and the
    //! channel-dependency graph as `BTreeMap`s of `BTreeSet`s, a `Vec` of
    //! successors collected on every DFS step. The campaigns hold the
    //! two to identical findings and identical cycle witnesses.

    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use vnpu_mem::proptest_lite::Rng;
    use vnpu_topo::route::{confined_path, dor_path};

    /// The paths this tenant's all-pairs traffic takes on the physical
    /// mesh, as node-ID sequences. Unroutable pairs are skipped (the
    /// confined router's DOR fallback is modeled, so an isolated tenant
    /// with a disconnected region yields DOR paths — which the escape rule
    /// then flags).
    fn tenant_paths(topo: &Topology, t: &TenantRoutes) -> Vec<Vec<u32>> {
        let owned: Vec<NodeId> = t.owned_cores.iter().map(|&c| NodeId(c)).collect();
        let mut paths = Vec::new();
        for &src in &t.table_cores {
            for &dst in &t.table_cores {
                if src == dst {
                    continue;
                }
                let path = if t.isolated {
                    confined_path(topo, &owned, NodeId(src), NodeId(dst))
                        .or_else(|_| dor_path(topo, NodeId(src), NodeId(dst)))
                } else {
                    dor_path(topo, NodeId(src), NodeId(dst))
                };
                if let Ok(p) = path {
                    paths.push(p.iter().map(|n| n.0).collect());
                }
            }
        }
        paths
    }

    /// Searches the channel-dependency graph of the given paths for a
    /// cycle. Nodes are directed links; every consecutive hop pair of a
    /// path contributes a dependency edge. Returns one witness cycle (as
    /// the link sequence, first link repeated at the end) or `None` when
    /// the graph is acyclic — i.e. the routing function is deadlock-free
    /// for these flows.
    pub(crate) fn find_cdg_cycle(paths: &[Vec<u32>]) -> Option<Vec<Link>> {
        let mut deps: BTreeMap<Link, BTreeSet<Link>> = BTreeMap::new();
        for path in paths {
            let links: Vec<Link> = path_links(path).collect();
            for w in links.windows(2) {
                deps.entry(w[0]).or_default().insert(w[1]);
                deps.entry(w[1]).or_default();
            }
            for &l in &links {
                deps.entry(l).or_default();
            }
        }
        // Iterative three-color DFS with an explicit parent stack so a
        // witness cycle can be reconstructed.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: BTreeMap<Link, Color> = deps.keys().map(|&l| (l, Color::White)).collect();
        let nodes: Vec<Link> = deps.keys().copied().collect();
        for &start in &nodes {
            if color[&start] != Color::White {
                continue;
            }
            // Stack of (node, next-neighbor-index); `trail` mirrors the gray
            // chain for cycle extraction.
            let mut stack: Vec<(Link, usize)> = vec![(start, 0)];
            color.insert(start, Color::Gray);
            let mut trail: Vec<Link> = vec![start];
            while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
                let succs: Vec<Link> = deps[&node].iter().copied().collect();
                if *idx < succs.len() {
                    let next = succs[*idx];
                    *idx += 1;
                    match color[&next] {
                        Color::White => {
                            color.insert(next, Color::Gray);
                            stack.push((next, 0));
                            trail.push(next);
                        }
                        Color::Gray => {
                            // Found a back edge: the cycle is the trail from
                            // `next` onward, closed with `next` again.
                            let from = trail.iter().position(|&l| l == next).unwrap_or(0);
                            let mut cycle: Vec<Link> = trail[from..].to_vec();
                            cycle.push(next);
                            return Some(cycle);
                        }
                        Color::Black => {}
                    }
                } else {
                    color.insert(node, Color::Black);
                    stack.pop();
                    trail.pop();
                }
            }
        }
        None
    }

    /// Runs the routing static analysis over a set of tenants on the given
    /// physical topology.
    pub(crate) fn audit_routing(topo: &Topology, tenants: &[TenantRoutes]) -> Vec<AuditFinding> {
        let mut findings = Vec::new();

        // ROUTE-TABLE: the table must resolve exactly the granted cores.
        for t in tenants {
            if t.table_cores != t.owned_cores {
                let mismatch = t
                    .table_cores
                    .iter()
                    .zip(&t.owned_cores)
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| t.table_cores.len().min(t.owned_cores.len()));
                let mut f = AuditFinding::error(
                    Rule::RouteTableMismatch,
                    format!(
                        "routing table resolves {} cores {:?} but the mapping grants {} cores \
                         {:?} (first divergence at virtual core {mismatch})",
                        t.table_cores.len(),
                        t.table_cores,
                        t.owned_cores.len(),
                        t.owned_cores
                    ),
                )
                .vm(t.vm);
                if let Some(&c) = t.table_cores.get(mismatch) {
                    f = f.core(c);
                }
                findings.push(f);
            }
        }

        // Reconstruct every tenant's flows once.
        let tenant_flows: Vec<(VmId, bool, Vec<Vec<u32>>)> = tenants
            .iter()
            .map(|t| (t.vm, t.isolated, tenant_paths(topo, t)))
            .collect();

        // ROUTE-CONF: a confined tenant's traffic must stay on its own cores.
        for (t, (_, _, flows)) in tenants.iter().zip(&tenant_flows) {
            if !t.isolated {
                continue;
            }
            let owned: BTreeSet<u32> = t.owned_cores.iter().copied().collect();
            let mut escaped: BTreeSet<u32> = BTreeSet::new();
            for path in flows {
                for &node in path {
                    if !owned.contains(&node) {
                        escaped.insert(node);
                    }
                }
            }
            for core in escaped {
                findings.push(
                    AuditFinding::error(
                        Rule::RouteEscapedRegion,
                        "confined route crosses a core outside the tenant's allocation \
                         (DOR fallback in effect — isolation not actually deployed)"
                            .to_string(),
                    )
                    .vm(t.vm)
                    .core(core),
                );
            }
        }

        // Link occupancy: which tenants put traffic on each directed link.
        let mut link_users: BTreeMap<Link, BTreeSet<VmId>> = BTreeMap::new();
        let isolated: BTreeSet<VmId> = tenants
            .iter()
            .filter(|t| t.isolated)
            .map(|t| t.vm)
            .collect();
        for (vm, _, flows) in &tenant_flows {
            for path in flows {
                for link in path_links(path) {
                    link_users.entry(link).or_default().insert(*vm);
                }
            }
        }
        for (link, users) in &link_users {
            if users.len() < 2 {
                continue;
            }
            let vms: Vec<VmId> = users.iter().copied().collect();
            if let Some(&iso) = vms.iter().find(|vm| isolated.contains(vm)) {
                let others: Vec<String> = vms
                    .iter()
                    .filter(|&&vm| vm != iso)
                    .map(|vm| vm.to_string())
                    .collect();
                findings.push(
                    AuditFinding::error(
                        Rule::RouteIsolationLeak,
                        format!(
                            "link {link} carries traffic of isolated tenant {iso} and of {} — \
                             NoC isolation violated",
                            others.join(", ")
                        ),
                    )
                    .vm(iso)
                    .core(link.from),
                );
            }
        }

        // ROUTE-CDG: the union of all flows must be deadlock-free.
        let all_paths: Vec<Vec<u32>> = tenant_flows
            .iter()
            .flat_map(|(_, _, flows)| flows.iter().cloned())
            .collect();
        if let Some(cycle) = find_cdg_cycle(&all_paths) {
            let chain: Vec<String> = cycle.iter().map(|l| l.to_string()).collect();
            findings.push(AuditFinding::error(
                Rule::RouteDeadlockCycle,
                format!(
                    "channel-dependency cycle: {} — wormhole deadlock possible",
                    chain.join(" \u{2192} ")
                ),
            ));
        }

        findings
    }

    pub(crate) fn below(rng: &mut Rng, n: usize) -> usize {
        rng.below(n as u64) as usize
    }

    /// The cores of a `size` rectangle at `at` on a `w`-wide grid — only
    /// its border when `ring` (a cycle for the confined router).
    fn rectangle(w: u32, at: (u32, u32), size: (u32, u32), ring: bool) -> Vec<u32> {
        let (x0, y0, x1, y1) = (at.0, at.1, at.0 + size.0 - 1, at.1 + size.1 - 1);
        let cells = (y0..=y1).flat_map(|y| (x0..=x1).map(move |x| (x, y)));
        cells
            .filter(|&(x, y)| !ring || x == x0 || x == x1 || y == y0 || y == y1)
            .map(|(x, y)| y * w + x)
            .collect()
    }

    /// Up to four tenants on a `w × h` grid: scattered cores (with
    /// duplicates and cores off the grid), runs of consecutive ids (wrap
    /// pairs across rows), rectangles and rings; isolated or not; some
    /// with a table that disagrees with the mapping or is empty; VM ids
    /// from a pool of five, so some repeat.
    fn random_tenants(rng: &mut Rng, w: u32, h: u32) -> Vec<TenantRoutes> {
        let n = (w * h) as usize;
        (0..below(rng, 5))
            .map(|_| {
                let k = below(rng, 7) as u32;
                let at = (below(rng, w as usize) as u32, below(rng, h as usize) as u32);
                let size = (
                    1 + below(rng, (w - at.0).min(4) as usize) as u32,
                    1 + below(rng, (h - at.1).min(4) as usize) as u32,
                );
                let owned_cores: Vec<u32> = match below(rng, 4) {
                    0 => (0..k).map(|_| below(rng, n + 2) as u32).collect(),
                    1 => {
                        let first = below(rng, n) as u32;
                        (first..first + k).collect()
                    }
                    2 => rectangle(w, at, size, false),
                    _ => rectangle(w, at, size, true),
                };
                let mut table_cores = owned_cores.clone();
                match below(rng, 10) {
                    0 => table_cores.clear(),
                    1 => {
                        table_cores.pop();
                    }
                    2 => table_cores.reverse(),
                    3 if k > 0 => table_cores[0] = below(rng, n) as u32,
                    _ => {}
                }
                TenantRoutes {
                    vm: VmId(below(rng, 5) as u32),
                    isolated: below(rng, 2) == 0,
                    table_cores,
                    owned_cores,
                    routes: None,
                }
            })
            .collect()
    }

    #[test]
    fn flat_routing_matches_the_btreemap_reference() {
        const CASES: usize = 1_400;
        let rng = &mut Rng::new(0x5EED_2501);
        let mut reached = BTreeSet::new();
        let mut clean = 0;
        for case in 0..CASES {
            let (w, h) = match case % 7 {
                0 => (1, 2 + below(rng, 8) as u32),
                1 => (2 + below(rng, 8) as u32, 1),
                2 | 5 => (4, 4),
                3 => (6, 6),
                4 => (8, 6),
                _ => (5, 4),
            };
            let topo = match case % 7 {
                // A torus with its mesh tag (DOR runs, confined paths
                // may wrap) and one stripped of it (no DOR at all).
                5 | 6 => {
                    let mut torus = Topology::torus2d(w, h).unwrap();
                    if case % 7 == 5 {
                        torus.add_edge(NodeId(0), NodeId(1)).unwrap();
                        assert!(torus.mesh_shape().is_none());
                    }
                    torus
                }
                _ => Topology::mesh2d(w, h),
            };
            let mut tenants = random_tenants(rng, w, h);
            for t in &mut tenants {
                // An isolated tenant carries the routes deployed for its cores.
                let cores = &t.owned_cores;
                t.routes = t
                    .isolated
                    .then(|| Arc::new(ConfinedPaths::build(&topo, cores)));
            }
            let got = super::audit_routing(&topo, &tenants);
            let want = audit_routing(&topo, &tenants);
            assert_eq!(got, want, "case {case}: {tenants:?}");
            reached.extend(got.iter().map(|f| f.rule));
            clean += usize::from(got.is_empty());
        }
        assert_eq!(
            reached.len(),
            4,
            "a routing rule was never reached: {reached:?}"
        );
        assert!(clean > 0, "no clean case");
        println!(
            "routing campaign: {CASES} tenant sets, identical findings; \
             rules reached {reached:?}, {clean} clean audits"
        );
    }

    #[test]
    fn flat_cycle_search_matches_the_btreemap_reference() {
        const CASES: usize = 3_000;
        let rng = &mut Rng::new(0x5EED_2502);
        let mesh = Topology::mesh2d(6, 6);
        let (mut cycles, mut acyclic) = (0, 0);
        for case in 0..CASES {
            let mut paths: Vec<Vec<u32>> = (0..below(rng, 10))
                .map(|_| {
                    let len = below(rng, 7);
                    if below(rng, 4) == 0 {
                        // Arbitrary ids: non-adjacent hops, repeats, self-links.
                        return (0..len).map(|_| below(rng, 12) as u32).collect();
                    }
                    // A random walk on the mesh, backtracking allowed.
                    let mut node = below(rng, 36) as u32;
                    let mut walk = vec![node];
                    for _ in 1..len {
                        let degree = mesh.degree(NodeId(node));
                        node = mesh
                            .neighbors(NodeId(node))
                            .nth(below(rng, degree))
                            .unwrap()
                            .0;
                        walk.push(node);
                    }
                    walk
                })
                .collect();
            // Inject the four turns around a random 2x2 block, either way
            // round, at random positions.
            if below(rng, 2) == 0 {
                let (x, y) = (below(rng, 5) as u32, below(rng, 5) as u32);
                let mut block = [y * 6 + x, y * 6 + x + 1, y * 6 + x + 7, y * 6 + x + 6];
                if below(rng, 2) == 0 {
                    block.reverse();
                }
                for i in 0..4 {
                    let at = below(rng, paths.len() + 1);
                    paths.insert(at, (0..3).map(|j| block[(i + j) % 4]).collect());
                }
            }
            let got = super::find_cdg_cycle(&paths);
            assert_eq!(got, find_cdg_cycle(&paths), "case {case}: {paths:?}");
            if got.is_some() {
                cycles += 1;
            } else {
                acyclic += 1;
            }
        }
        assert!(
            cycles > CASES / 4 && acyclic > CASES / 4,
            "{cycles} / {acyclic}"
        );
        println!(
            "CDG campaign: {CASES} path sets, identical witnesses; {cycles} cyclic, {acyclic} acyclic"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::{Hypervisor, VnpuRequest};
    use vnpu_sim::SocConfig;

    fn rules(findings: &[AuditFinding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    /// A tenant on the 6x6 mesh every test here audits, an isolated one
    /// with the routes deployed for its cores.
    fn tenant(vm: u32, isolated: bool, cores: &[u32]) -> TenantRoutes {
        let topo = Topology::mesh2d(6, 6);
        TenantRoutes {
            vm: VmId(vm),
            isolated,
            table_cores: cores.to_vec(),
            owned_cores: cores.to_vec(),
            routes: isolated.then(|| Arc::new(ConfinedPaths::build(&topo, cores))),
        }
    }

    #[test]
    fn dor_fleet_shares_links_without_default_findings() {
        let topo = Topology::mesh2d(6, 6);
        // Two plain tenants interleaved along row 0 and a third turning
        // through it: DOR traffic overlaps. (Until PR 25 the tenants were
        // {0, 1, 2} and {3, 4, 5}, which share no link, so the check
        // below held vacuously.)
        let tenants = vec![
            tenant(0, false, &[0, 2, 4]),
            tenant(1, false, &[1, 3, 5]),
            tenant(2, false, &[7, 2]),
        ];
        assert!(audit_routing(&topo, &tenants).is_empty());
    }

    #[test]
    fn isolated_pair_and_wrap_escape_findings_are_pinned() {
        let topo = Topology::mesh2d(6, 6);
        // vm0 is the wrap pair {5, 6} promised isolation: no confined
        // path, so the router falls back to DOR across rows 0 and 1 —
        // straight over vm1's isolated {1, 2, 3} and the plain vm2, vm3.
        let tenants = vec![
            tenant(0, true, &[5, 6]),
            tenant(1, true, &[1, 2, 3]),
            tenant(2, false, &[7, 9]),
            tenant(3, false, &[8, 10]),
        ];
        let got: Vec<String> = audit_routing(&topo, &tenants)
            .iter()
            .map(|f| f.to_string())
            .collect();
        // Escaped cores ascending, then leaking links in link order, each
        // naming the first isolated user and the others in VM order.
        let conf = |core: u32| {
            format!(
                "[ROUTE-CONF] error vm0 core{core}: confined route crosses a core outside \
                 the tenant's allocation (DOR fallback in effect \u{2014} isolation not \
                 actually deployed)"
            )
        };
        let iso = |from: u32, to: u32, others: &str| {
            format!(
                "[ROUTE-ISO] error vm0 core{from}: link p{from}\u{2192}p{to} carries traffic \
                 of isolated tenant vm0 and of {others} \u{2014} NoC isolation violated"
            )
        };
        let mut want: Vec<String> = [0, 1, 2, 3, 4, 7, 8, 9, 10, 11].map(conf).to_vec();
        want.extend([
            iso(2, 1, "vm1"),
            iso(3, 2, "vm1"),
            iso(7, 8, "vm2"),
            iso(8, 9, "vm2, vm3"),
            iso(9, 10, "vm3"),
        ]);
        assert_eq!(got, want);
    }

    #[test]
    fn overlapped_tables_name_the_shared_link() {
        let topo = Topology::mesh2d(6, 6);
        // An isolated tenant and a plain tenant whose (corrupted) table
        // routes straight through the isolated region.
        let iso = tenant(0, true, &[7, 8, 13, 14]);
        let crossing = tenant(1, false, &[6, 9]); // DOR 6->7->8->9
        let findings = audit_routing(&topo, &[iso, crossing]);
        let leak = findings
            .iter()
            .find(|f| f.rule == Rule::RouteIsolationLeak)
            .expect("isolation leak must be reported");
        assert_eq!(leak.vm, Some(VmId(0)));
        assert!(
            leak.detail.contains("p7\u{2192}p8"),
            "the exact link must be named: {}",
            leak.detail
        );
        assert!(
            leak.detail.contains("vm1"),
            "the other tenant must be named: {}",
            leak.detail
        );
    }

    #[test]
    fn off_mesh_cores_are_skipped_not_a_panic() {
        let topo = Topology::mesh2d(6, 6);
        // An isolated tenant naming core 99 of a 6x6 mesh used to panic
        // inside `confined_path`; its pairs with 99 are unroutable and
        // skipped, exactly as the plain tenant's are.
        assert!(audit_routing(&topo, &[tenant(0, true, &[0, 99])]).is_empty());
        let mut iso = tenant(0, true, &[0, 1, 99]);
        iso.owned_cores[2] = 98;
        let mut plain = iso.clone();
        plain.isolated = false;
        let findings = audit_routing(&topo, &[iso]);
        assert_eq!(findings, audit_routing(&topo, &[plain]));
        assert_eq!(rules(&findings), vec![Rule::RouteTableMismatch]);
    }

    #[test]
    fn stale_deployed_route_escaping_the_allocation_is_flagged() {
        let topo = Topology::mesh2d(6, 6);
        // An isolated U whose record was built for the U plus core 1: its
        // routes between the U's arms take the shortcut over core 1.
        let u = [0, 6, 12, 13, 14, 8, 2];
        let mut t = tenant(0, true, &u);
        let stale = [&u[..], &[1]].concat();
        t.routes = Some(Arc::new(ConfinedPaths::build(&topo, &stale)));
        let findings = audit_routing(&topo, &[t]);
        assert_eq!(
            rules(&findings),
            [Rule::RouteEscapedRegion, Rule::RouteDeadlockCycle],
            "{findings:?}"
        );
        assert_eq!(findings[0].core, Some(1));
        // The routes deployed for the U alone stay inside it.
        assert!(audit_routing(&topo, &[tenant(0, true, &u)]).is_empty());
    }

    #[test]
    fn single_core_tenants_are_trivially_clean() {
        let topo = Topology::mesh2d(6, 6);
        let tenants = vec![tenant(0, true, &[0]), tenant(1, true, &[35])];
        assert!(audit_routing(&topo, &tenants).is_empty());
    }

    #[test]
    fn mesh_wrap_pair_is_clean_under_dor_but_escapes_when_confined() {
        let topo = Topology::mesh2d(6, 6);
        // Cores 5 and 6 are consecutive IDs but NOT mesh-adjacent (5 ends
        // row 0, 6 starts row 1): DOR legally crosses the row.
        let plain = vec![tenant(0, false, &[5, 6])];
        assert!(audit_routing(&topo, &plain).is_empty());
        // The same wrap pair promised isolation has no confined path, so
        // the router falls back to DOR — the audit must expose that the
        // promise is not actually kept.
        let confined = vec![tenant(0, true, &[5, 6])];
        let findings = audit_routing(&topo, &confined);
        assert!(
            rules(&findings).contains(&Rule::RouteEscapedRegion),
            "{findings:?}"
        );
    }

    #[test]
    fn adjacent_disjoint_rectangles_audit_clean() {
        let topo = Topology::mesh2d(6, 6);
        // Two isolated 2x2 rectangles sharing a border but no cores.
        let left = tenant(0, true, &[0, 1, 6, 7]);
        let right = tenant(1, true, &[2, 3, 8, 9]);
        let findings = audit_routing(&topo, &[left, right]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn table_mapping_mismatch_is_flagged() {
        let topo = Topology::mesh2d(6, 6);
        let mut t = tenant(0, false, &[0, 1, 2, 3]);
        t.table_cores[2] = 14; // table points somewhere the mapping never granted
        let findings = audit_routing(&topo, &[t]);
        let hit = findings
            .iter()
            .find(|f| f.rule == Rule::RouteTableMismatch)
            .expect("mismatch must be reported");
        assert_eq!(hit.vm, Some(VmId(0)));
        assert_eq!(hit.core, Some(14));
    }

    #[test]
    fn crafted_turn_cycle_is_a_deadlock_finding() {
        // Four L-shaped flows around the 2x2 block {0,1,6,7} of a 6-wide
        // mesh, each turning into the next — the textbook CDG cycle.
        let paths = vec![vec![0, 1, 7], vec![1, 7, 6], vec![7, 6, 0], vec![6, 0, 1]];
        let cycle = find_cdg_cycle(&paths).expect("cycle must be found");
        assert!(cycle.len() >= 4);
        assert_eq!(cycle.first(), cycle.last());
        // The exact witness: the search starts from the least link and
        // follows successors in ascending order.
        let link = |from, to| Link { from, to };
        assert_eq!(
            cycle,
            vec![link(0, 1), link(1, 7), link(7, 6), link(6, 0), link(0, 1)]
        );
        // And through the full audit it surfaces as ROUTE-CDG: a tenant
        // whose table order induces those flows cannot exist via the
        // shortest-path router, so drive the checker directly.
        let topo = Topology::mesh2d(6, 6);
        let t = tenant(0, true, &[0, 1, 6, 7]);
        let findings = audit_routing(&topo, &[t]);
        assert!(
            !rules(&findings).contains(&Rule::RouteDeadlockCycle),
            "the real confined router must remain deadlock-free: {findings:?}"
        );
    }

    #[test]
    fn dor_is_deadlock_free_by_construction() {
        let topo = Topology::mesh2d(6, 6);
        let everyone = tenant(0, false, &(0..36).collect::<Vec<u32>>());
        let findings = audit_routing(&topo, &[everyone]);
        assert!(
            !rules(&findings).contains(&Rule::RouteDeadlockCycle),
            "X-then-Y routing is provably acyclic: {findings:?}"
        );
    }

    #[test]
    fn live_hypervisor_fleet_collects_and_audits_clean() {
        let mut hv = Hypervisor::new(SocConfig::sim());
        hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        hv.create_vnpu(VnpuRequest::mesh(3, 2).noc_isolation(true))
            .unwrap();
        hv.create_vnpu(VnpuRequest::cores(1)).unwrap();
        let tenants = collect_tenant_routes(&hv);
        assert_eq!(tenants.len(), 3);
        assert!(tenants.iter().all(|t| t.table_cores == t.owned_cores));
        let findings = audit_routing(hv.topology(), &tenants);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
