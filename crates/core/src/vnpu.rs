//! The virtual-NPU abstraction: "virtual NPU cores, topology, and memory"
//! (§5.2), plus the request builder users hand to the hypervisor.

use crate::ids::VirtCoreId;
use crate::routing_table::RoutingTable;
use crate::vchunk::{self, MemMode, BANDWIDTH_WINDOW_CYCLES};
use crate::vrouter::{ConfinedPaths, RoutePolicy, VRouterNoc};
use crate::{Result, VnpuError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use vnpu_mem::buddy::Block;
use vnpu_mem::counter::AccessCounter;
use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
use vnpu_mem::{Translate, TranslationCosts, VirtAddr};
use vnpu_sim::machine::CoreServices;
use vnpu_topo::mapping::{Mapping, Strategy};
use vnpu_topo::Topology;

/// Guest-virtual base address of every virtual NPU's memory window.
pub const GUEST_VA_BASE: u64 = 0x1000_0000;

/// A request for a virtual NPU: core count + topology + memory + policies.
///
/// Built fluently:
///
/// ```
/// use vnpu::VnpuRequest;
/// let req = VnpuRequest::mesh(3, 3)
///     .mem_bytes(256 << 20)
///     .noc_isolation(true);
/// assert_eq!(req.core_count(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct VnpuRequest {
    topology: Topology,
    mem_bytes: u64,
    bandwidth_cap: Option<u64>,
    noc_isolation: bool,
    strategy: Strategy,
    mem_mode: MemMode,
    temporal_sharing: bool,
}

impl VnpuRequest {
    /// Requests a `w × h` 2D-mesh virtual topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `w × h` overflows a `u32`
    /// (see [`Topology::mesh2d`]).
    pub fn mesh(w: u32, h: u32) -> Self {
        Self::custom(Topology::mesh2d(w, h))
    }

    /// Requests `n` cores with the most-square mesh topology of exactly
    /// `n` nodes (a `w×h` factorization, or a partially-filled last row
    /// for awkward counts — mirroring the paper's Figure 16 arbitrary
    /// core-count allocations).
    pub fn cores(n: u32) -> Self {
        Self::custom(near_mesh_topology(n))
    }

    /// Requests an explicit virtual topology.
    pub fn custom(topology: Topology) -> Self {
        VnpuRequest {
            topology,
            mem_bytes: 64 << 20,
            bandwidth_cap: None,
            noc_isolation: false,
            strategy: Strategy::similar_topology(),
            mem_mode: MemMode::vchunk(),
            temporal_sharing: false,
        }
    }

    /// Sets the guest memory window size.
    pub fn mem_bytes(mut self, bytes: u64) -> Self {
        self.mem_bytes = bytes;
        self
    }

    /// Caps this virtual NPU's global-memory bandwidth (bytes per
    /// [`BANDWIDTH_WINDOW_CYCLES`] window, shared across its cores).
    pub fn bandwidth_cap(mut self, bytes_per_window: u64) -> Self {
        self.bandwidth_cap = Some(bytes_per_window);
        self
    }

    /// Requests NoC non-interference: direction-override routing confined
    /// to the virtual topology (§4.1.2 strategy 2).
    pub fn noc_isolation(mut self, on: bool) -> Self {
        self.noc_isolation = on;
        self
    }

    /// Permits temporal sharing (§7): when too few cores are free, the
    /// hypervisor may place this virtual NPU on already-allocated cores,
    /// time-division-multiplexed with their current tenants
    /// (over-provisioning). Off by default — vNPU primarily spatially
    /// shares because NPU context switches are costly.
    pub fn temporal_sharing(mut self, on: bool) -> Self {
        self.temporal_sharing = on;
        self
    }

    /// Whether temporal sharing was requested.
    pub fn wants_temporal_sharing(&self) -> bool {
        self.temporal_sharing
    }

    /// Selects the core-allocation strategy (default: similar-topology).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the memory-virtualization mode (default: vChunk with 4
    /// range-TLB entries).
    pub fn mem_mode(mut self, mode: MemMode) -> Self {
        self.mem_mode = mode;
        self
    }

    /// Number of requested cores.
    pub fn core_count(&self) -> u32 {
        self.topology.node_count() as u32
    }

    /// The requested virtual topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Requested guest memory bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.mem_bytes
    }

    /// The allocation strategy.
    pub fn strategy_ref(&self) -> &Strategy {
        &self.strategy
    }

    /// Whether NoC isolation was requested.
    pub fn wants_noc_isolation(&self) -> bool {
        self.noc_isolation
    }

    /// The memory mode.
    pub fn memory_mode(&self) -> MemMode {
        self.mem_mode
    }

    /// The bandwidth cap, if any.
    pub fn bandwidth_cap_bytes(&self) -> Option<u64> {
        self.bandwidth_cap
    }
}

/// The most-square connected topology with exactly `n` nodes: a `w×h`
/// mesh when `n` factors nicely, otherwise a `w×h` mesh plus a partially
/// filled extra row (still connected, still mesh-embedded).
pub fn near_mesh_topology(n: u32) -> Topology {
    assert!(n > 0, "topology needs at least one node");
    // Best factor pair.
    let mut best = (1, n);
    let mut w = 1;
    while w * w <= n {
        if n % w == 0 {
            best = (w, n / w);
        }
        w += 1;
    }
    let (a, b) = best;
    // Accept the factorization when it is reasonably square.
    if a * 3 >= b {
        return Topology::mesh2d(b, a);
    }
    // Awkward count (e.g. prime): near-square grid with a partial last row.
    let width = (n as f64).sqrt().ceil() as u32;
    let full_rows = n / width;
    let rem = n % width;
    let mut t = Topology::empty(n as usize);
    let node = |x: u32, y: u32| y * width + x;
    for y in 0..full_rows {
        for x in 0..width {
            if x + 1 < width {
                t.add_edge(node(x, y).into(), node(x + 1, y).into())
                    .unwrap();
            }
            if y + 1 < full_rows || (y + 1 == full_rows && x < rem) {
                t.add_edge(node(x, y).into(), node(x, y + 1).into())
                    .unwrap();
            }
        }
    }
    for x in 0..rem.saturating_sub(1) {
        t.add_edge(node(x, full_rows).into(), node(x + 1, full_rows).into())
            .unwrap();
    }
    t
}

/// The routes deployed with `mapping`'s cores: a record under NoC
/// isolation, nothing for DOR.
fn deploy_routes(
    request: &VnpuRequest,
    topo: &Topology,
    mapping: &Mapping,
) -> Option<Arc<ConfinedPaths>> {
    request.wants_noc_isolation().then(|| {
        let cores: Vec<u32> = mapping.phys_nodes().iter().map(|n| n.0).collect();
        Arc::new(ConfinedPaths::build(topo, &cores))
    })
}

/// One deployment of a virtual NPU's meta-tables: replaced wholesale
/// whenever the hypervisor (re-)deploys the core mapping, routing table
/// or memory plan, so nothing in it can outlive what it was derived from.
/// The tables are kept in the form the cores' bound services share: built
/// by the first bind that needs them, handed to every later one by `Arc`.
/// (The route record is not among them: it is deployed with the cores,
/// see [`VirtualNpu::routes`].)
#[derive(Debug, Clone)]
struct Deployment {
    /// Unique per deployment in this process; see
    /// [`VirtualNpu::deployment_stamp`].
    stamp: u64,
    /// Virtual core `i` → physical core (the NoC routing table's view).
    v2p: OnceLock<Arc<[u32]>>,
    /// The validated, VA-sorted range table, for binds in
    /// [`MemMode::Range`].
    range_table: OnceLock<Arc<RangeTranslationTable>>,
}

impl Deployment {
    fn new() -> Self {
        // Stamps are only ever compared for equality, so nothing
        // observable depends on which thread drew which value.
        static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);
        Deployment {
            stamp: NEXT_STAMP.fetch_add(1, Ordering::Relaxed),
            v2p: OnceLock::new(),
            range_table: OnceLock::new(),
        }
    }
}

/// A provisioned virtual NPU: cores (with virtual topology), memory plan
/// and routing state, as deployed by the hypervisor.
#[derive(Debug, Clone)]
pub struct VirtualNpu {
    /// The request this virtual NPU was placed from: every policy it
    /// carries (topology, memory mode, isolation, bandwidth cap, temporal
    /// sharing, strategy) is read here, and a cross-chip move re-places a
    /// copy of it.
    request: VnpuRequest,
    phys_topology: Arc<Topology>,
    mapping: Mapping,
    routing_table: RoutingTable,
    /// The routes deployed with the cores, under NoC isolation only.
    routes: Option<Arc<ConfinedPaths>>,
    rtt_entries: Vec<RttEntry>,
    blocks: Vec<Block>,
    deployment: Deployment,
}

impl VirtualNpu {
    /// Builds the deployed vNPU from the request it was placed from and
    /// what the hypervisor deployed for it.
    pub(crate) fn new(
        request: VnpuRequest,
        phys_topology: Arc<Topology>,
        mapping: Mapping,
        routing_table: RoutingTable,
        rtt_entries: Vec<RttEntry>,
        blocks: Vec<Block>,
    ) -> Self {
        VirtualNpu {
            routes: deploy_routes(&request, &phys_topology, &mapping),
            request,
            phys_topology,
            mapping,
            routing_table,
            rtt_entries,
            blocks,
            deployment: Deployment::new(),
        }
    }

    /// Identifies what is currently deployed for this virtual NPU: the
    /// value changes exactly when its core mapping, routing table or
    /// memory plan is (re-)deployed — creation, a live migration, an HBM
    /// compaction — and is never reused by another deployment in this
    /// process. Everything the bound services do is a function of the
    /// deployment, so equal stamps mean identical [`VirtualNpu::services`].
    pub fn deployment_stamp(&self) -> u64 {
        self.deployment.stamp
    }

    /// The request this virtual NPU was placed from.
    pub fn request(&self) -> &VnpuRequest {
        &self.request
    }

    /// Number of virtual cores.
    pub fn core_count(&self) -> u32 {
        self.request.core_count()
    }

    /// The virtual topology as requested.
    pub fn virt_topology(&self) -> &Topology {
        self.request.topology()
    }

    /// The virtual→physical core mapping chosen by the hypervisor.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Physical core backing a virtual core.
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::VirtCoreOutOfRange`] for bad IDs.
    pub fn phys_core(&self, v: VirtCoreId) -> Result<u32> {
        self.mapping
            .phys_nodes()
            .get(v.0 as usize)
            .map(|n| n.0)
            .ok_or(VnpuError::VirtCoreOutOfRange {
                vcore: v,
                count: self.core_count(),
            })
    }

    /// The deployed routing table.
    pub fn routing_table(&self) -> &RoutingTable {
        &self.routing_table
    }

    /// The routes deployed with the cores of a virtual NPU that requested
    /// NoC isolation — the one record its routers, the routing audit and
    /// the fault detector read; `None` for a DOR tenant, whose routes are
    /// a function of the endpoints.
    pub fn routes(&self) -> Option<&Arc<ConfinedPaths>> {
        self.routes.as_ref()
    }

    /// The deployed range-translation entries (VA-sorted).
    pub fn rtt_entries(&self) -> &[RttEntry] {
        &self.rtt_entries
    }

    /// The buddy blocks backing this virtual NPU's guest memory, in
    /// guest-VA order — what defragmentation policies inspect to decide
    /// which tenants' memory sits highest in HBM.
    pub fn memory_blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Re-deploys this virtual NPU onto new physical cores after a live
    /// migration: the mapping, routing table and routes are replaced
    /// wholesale. Caller (the hypervisor's transaction engine) owns the
    /// core bookkeeping.
    pub(crate) fn redeploy_cores(&mut self, mapping: Mapping, routing_table: RoutingTable) {
        self.routes = deploy_routes(&self.request, &self.phys_topology, &mapping);
        self.mapping = mapping;
        self.routing_table = routing_table;
        self.deployment = Deployment::new();
    }

    /// Re-deploys this virtual NPU's memory plan after an HBM compaction:
    /// same guest-VA window, new physical blocks and RTT entries. Caller
    /// owns the buddy bookkeeping.
    pub(crate) fn redeploy_memory(&mut self, rtt_entries: Vec<RttEntry>, blocks: Vec<Block>) {
        self.rtt_entries = rtt_entries;
        self.blocks = blocks;
        self.deployment = Deployment::new();
    }

    /// Guest-VA window start.
    pub fn va_base(&self) -> VirtAddr {
        VirtAddr(GUEST_VA_BASE)
    }

    /// Guest memory window size (possibly rounded up by buddy blocks).
    pub fn mem_bytes(&self) -> u64 {
        self.blocks.iter().map(|b| b.size).sum()
    }

    /// Builds the per-core services (vRouter + vChunk) for binding virtual
    /// core `v` into a [`vnpu_sim::machine::Machine`].
    ///
    /// What the hypervisor deployed — physical topology, core list, route
    /// record, range table — is shared with the virtual NPU's other bound
    /// cores; the per-core hardware state (destination-rewrite cache,
    /// range TLB and `last_v` hints, bandwidth counter) is fresh, so every
    /// bind starts cold.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range cores or unbuildable tables.
    pub fn services(&self, v: VirtCoreId) -> Result<CoreServices> {
        self.services_with(v, self.memory_mode(), self.route_policy())
    }

    /// Like [`VirtualNpu::services`] but with explicit memory mode and
    /// route policy (for the Figure 14 / Figure 13 ablations). A
    /// [`RoutePolicy::Confined`] override of a DOR tenant routes by a
    /// record of the router's own.
    pub fn services_with(
        &self,
        v: VirtCoreId,
        mem_mode: MemMode,
        policy: RoutePolicy,
    ) -> Result<CoreServices> {
        self.phys_core(v)?; // range check
        let v2p = self
            .deployment
            .v2p
            .get_or_init(|| self.mapping.phys_nodes().iter().map(|n| n.0).collect());
        let (topo, v2p) = (Arc::clone(&self.phys_topology), Arc::clone(v2p));
        let router = match (policy, &self.routes) {
            (RoutePolicy::Confined, Some(routes)) => {
                VRouterNoc::deployed(topo, v2p, Some(Arc::clone(routes)))
            }
            _ => VRouterNoc::new(topo, v2p, policy),
        };
        let translator: Box<dyn Translate + Send> = match mem_mode {
            MemMode::Range { tlb_entries } => Box::new(RangeTranslator::new(
                self.range_table()?,
                tlb_entries,
                TranslationCosts::default(),
            )),
            _ => {
                vchunk::build_translator(&self.rtt_entries, mem_mode, TranslationCosts::default())?
            }
        };
        let limiter = self.request.bandwidth_cap_bytes().map(|cap| {
            AccessCounter::new(
                BANDWIDTH_WINDOW_CYCLES,
                Some((cap / u64::from(self.core_count())).max(1)),
            )
        });
        Ok(CoreServices {
            router: Box::new(router),
            translator,
            limiter,
        })
    }

    /// The deployed range table, validated once per deployment.
    fn range_table(&self) -> Result<Arc<RangeTranslationTable>> {
        if let Some(table) = self.deployment.range_table.get() {
            return Ok(Arc::clone(table));
        }
        let table = Arc::new(RangeTranslationTable::new(self.rtt_entries.clone())?);
        Ok(Arc::clone(
            self.deployment.range_table.get_or_init(|| table),
        ))
    }

    /// The route policy implied by the isolation request.
    pub fn route_policy(&self) -> RoutePolicy {
        if self.request.wants_noc_isolation() {
            RoutePolicy::Confined
        } else {
            RoutePolicy::Dor
        }
    }

    /// The memory mode this virtual NPU was created with.
    pub fn memory_mode(&self) -> MemMode {
        self.request.memory_mode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_mesh_factors() {
        for (n, w, h) in [
            (12u32, 4u32, 3u32),
            (36, 6, 6),
            (24, 6, 4),
            (9, 3, 3),
            (2, 2, 1),
        ] {
            let t = near_mesh_topology(n);
            assert_eq!(t.node_count() as u32, n);
            assert_eq!(t.mesh_shape().map(|s| (s.width, s.height)), Some((w, h)));
        }
    }

    #[test]
    fn near_mesh_prime_counts_still_connected() {
        for n in [7u32, 13, 17, 23] {
            let t = near_mesh_topology(n);
            assert_eq!(t.node_count() as u32, n);
            assert!(t.is_connected(), "partial mesh for {n} must be connected");
            assert!(t.mesh_shape().is_none());
        }
    }

    #[test]
    fn request_builder_defaults() {
        let r = VnpuRequest::mesh(2, 3);
        assert_eq!(r.core_count(), 6);
        assert_eq!(r.memory_bytes(), 64 << 20);
        assert!(!r.wants_noc_isolation());
        assert_eq!(r.memory_mode(), MemMode::vchunk());
    }

    #[test]
    fn request_builder_chains() {
        let r = VnpuRequest::cores(13)
            .mem_bytes(1 << 30)
            .bandwidth_cap(4096)
            .noc_isolation(true);
        assert_eq!(r.core_count(), 13);
        assert_eq!(r.memory_bytes(), 1 << 30);
        assert_eq!(r.bandwidth_cap_bytes(), Some(4096));
        assert!(r.wants_noc_isolation());
    }
}
