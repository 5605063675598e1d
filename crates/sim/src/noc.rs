//! The 2D-mesh network-on-chip model.
//!
//! Packets are moved at routing-packet granularity (2048 B by default,
//! matching the paper's Table 3 unit): each packet store-and-forwards
//! across its path, holding every link for its serialization time
//! (`bytes / link_bytes_per_cycle`) plus a per-hop router latency. Links
//! are `busy_until` resources, so two flows crossing the same link contend
//! and the loser's wait shows up in [`Noc::contention_cycles`] — this is
//! the *NoC interference* phenomenon of §4.1.2.
//!
//! A sender resolves its path once into a [`Route`] of link slots,
//! checking every hop before any packet is booked, then books packets on
//! it: one at a time ([`Noc::send_on`], which reports whether the packet
//! waited on a link), or, behind a packet that waited on none, a whole
//! train of equal packets at once ([`Noc::send_train`]: each link's clock
//! moves by the train's span, in O(path)).
//!
//! Routing is pluggable through [`NocRouter`]: the bare-metal default
//! ([`DorRouter`]) applies dimension-order routing on physical IDs; the
//! `vnpu` crate supplies a vRouter implementation that first translates
//! virtual core IDs through the routing table and optionally walks
//! direction-override paths confined to the virtual topology.

use crate::config::SocConfig;
use crate::{Result, SimError};
use vnpu_topo::{route, MeshShape, NodeId};

/// Resolves program-level destination core IDs and supplies NoC paths.
///
/// Implementations must be deterministic; `resolve` may mutate internal
/// state (e.g. a last-destination cache, as in the paper: "if consecutive
/// instructions are directed to the same NPU core, the subsequent
/// instructions do not need to query the routing table again").
pub trait NocRouter: Send {
    /// Translates a program-level destination to a physical core ID,
    /// returning the lookup cost in cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when the destination is not mapped
    /// for this core's tenant.
    fn resolve(&mut self, dst_program: u32) -> Result<(u32, u64)>;

    /// Physical path (node sequence including both endpoints) between two
    /// physical cores. The slice borrows from the router — a deployed
    /// table entry, or a buffer the router reuses — so the per-`Send`
    /// lookup allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when no path exists.
    fn path(&mut self, src_phys: u32, dst_phys: u32) -> Result<&[u32]>;

    /// Extra cycles charged per packet (destination-rewrite muxing in the
    /// send/receive engine; 0 for bare-metal).
    fn per_packet_overhead(&self) -> u64 {
        0
    }

    /// Mechanism name for reports.
    fn name(&self) -> String;
}

/// Streams the dimension-order route `src → dst` on a `shape` mesh into
/// `out` (cleared first) — the allocation-free path lookup every
/// DOR-based [`NocRouter`] shares.
///
/// # Errors
///
/// Returns [`SimError::RouteFault`] when an endpoint is outside the mesh.
pub fn dor_path_into(shape: MeshShape, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<()> {
    out.clear();
    route::dor_walk(shape, NodeId(src), NodeId(dst), |n| out.push(n.0))
        .map_err(|_| SimError::RouteFault { core: src, dst })
}

/// Bare-metal routing: program IDs *are* physical IDs; dimension-order
/// (X-then-Y) paths; zero lookup cost.
#[derive(Debug, Clone)]
pub struct DorRouter {
    shape: MeshShape,
    path: Vec<u32>,
}

impl DorRouter {
    /// Creates a DOR router over the machine's mesh.
    pub fn new(cfg: &SocConfig) -> Self {
        DorRouter {
            shape: cfg.mesh_shape(),
            path: Vec::new(),
        }
    }
}

impl NocRouter for DorRouter {
    fn resolve(&mut self, dst_program: u32) -> Result<(u32, u64)> {
        if (dst_program as usize) < self.shape.len() {
            Ok((dst_program, 0))
        } else {
            Err(SimError::RouteFault {
                core: u32::MAX,
                dst: dst_program,
            })
        }
    }

    fn path(&mut self, src_phys: u32, dst_phys: u32) -> Result<&[u32]> {
        dor_path_into(self.shape, src_phys, dst_phys, &mut self.path)?;
        Ok(&self.path)
    }

    fn name(&self) -> String {
        "dor".to_owned()
    }
}

/// One directed mesh link: occupancy clock and fault flag.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    busy_until: u64,
    /// Injected hardware failure. Faults model hardware, so — like the
    /// link array itself — they survive [`Noc::reset_epoch`] until
    /// explicitly repaired.
    faulted: bool,
}

/// Outgoing link directions of a mesh node, in ascending order of the
/// neighbour's ID (so walking nodes then directions enumerates the
/// directed links sorted).
const DIRECTIONS: usize = 4;

/// The mesh NoC: directed links with busy-until contention tracking.
///
/// Links live in one dense array, four slots per node (north,
/// west, east, south); slots pointing off the mesh edge are never
/// addressed.
#[derive(Debug, Clone)]
pub struct Noc {
    links: Vec<Link>,
    shape: MeshShape,
    link_bw: u64,
    router_latency: u64,
    contention_cycles: u64,
    packets_sent: u64,
    /// Directed links currently faulted. A packet routed across one
    /// errors with [`SimError::LinkFaulted`].
    faulted_links: usize,
    /// Extra per-hop router cycles charged while the chip runs in
    /// degraded mode (active faults anywhere on the chip force the
    /// routers onto slower fault-tolerant arbitration). 0 = healthy.
    degraded_penalty: u64,
}

/// Timing of one packet's traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTiming {
    /// When the packet finished serializing onto the first link (the
    /// sender's injection port is free again).
    pub injected_at: u64,
    /// When the packet fully arrived at the destination.
    pub arrived_at: u64,
    /// Whether the packet waited on any link of its path.
    pub waited: bool,
}

/// A path resolved by [`Noc::route`] into the slots of its links, every
/// hop checked: what one sender books all its packets along. Reuse one
/// to keep its buffer.
#[derive(Debug, Clone, Default)]
pub struct Route {
    slots: Vec<usize>,
}

impl Route {
    /// Whether some link appears twice on the route, where a train's
    /// packets would meet their own predecessor.
    pub fn repeats_a_link(&self) -> bool {
        (1..self.slots.len()).any(|i| self.slots[..i].contains(&self.slots[i]))
    }
}

impl Noc {
    /// Creates the NoC for a mesh configuration.
    pub fn new(cfg: &SocConfig) -> Self {
        let shape = cfg.mesh_shape();
        Noc {
            links: vec![Link::default(); shape.len() * DIRECTIONS],
            shape,
            link_bw: cfg.link_bytes_per_cycle.max(1),
            router_latency: cfg.router_latency,
            contention_cycles: 0,
            packets_sent: 0,
            faulted_links: 0,
            degraded_penalty: 0,
        }
    }

    /// The neighbour of `node` in direction slot `dir`, if the mesh has
    /// one there.
    fn neighbor(&self, node: u32, dir: usize) -> Option<u32> {
        let MeshShape { width, height } = self.shape;
        let (x, y) = (node % width, node / width);
        match dir {
            0 => (y > 0).then(|| node - width),
            1 => (x > 0).then(|| node - 1),
            2 => (x + 1 < width).then(|| node + 1),
            _ => (y + 1 < height).then(|| node + width),
        }
    }

    /// Slot of the directed link `a → b` in the link array, if the two
    /// cores are mesh-adjacent. The direction is read off `b - a`; only a
    /// step along a row has to check that it stays on the row.
    fn link_slot(&self, a: u32, b: u32) -> Option<usize> {
        let MeshShape { width, .. } = self.shape;
        let nodes = self.shape.len();
        if a as usize >= nodes || b as usize >= nodes {
            return None;
        }
        let dir = if b.wrapping_add(width) == a {
            0
        } else if a.wrapping_add(width) == b {
            3
        } else if b.wrapping_add(1) == a && a % width != 0 {
            1
        } else if a.wrapping_add(1) == b && b % width != 0 {
            2
        } else {
            return None;
        };
        Some(a as usize * DIRECTIONS + dir)
    }

    /// Every directed link of the mesh with its state, sorted by
    /// `(src, dst)`.
    fn directed_links(&self) -> impl Iterator<Item = ((u32, u32), &Link)> + '_ {
        (0..self.shape.len() as u32).flat_map(move |a| {
            (0..DIRECTIONS).filter_map(move |dir| {
                let b = self.neighbor(a, dir)?;
                Some(((a, b), &self.links[a as usize * DIRECTIONS + dir]))
            })
        })
    }

    /// Resolves `path` (a node sequence, both endpoints included) into
    /// `route`, checking every hop. A path of fewer than two nodes is a
    /// self-send, with no link.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] at the first hop that is not a
    /// mesh link, or [`SimError::LinkFaulted`] at the first faulted one.
    pub fn route(&self, path: &[u32], route: &mut Route) -> Result<()> {
        route.slots.clear();
        for w in path.windows(2) {
            let slot = self.link_slot(w[0], w[1]).ok_or(SimError::RouteFault {
                core: w[0],
                dst: w[1],
            })?;
            if self.links[slot].faulted {
                return Err(SimError::LinkFaulted {
                    src: w[0],
                    dst: w[1],
                });
            }
            route.slots.push(slot);
        }
        Ok(())
    }

    /// Sends one packet of `bytes` along `route` starting no earlier than
    /// `depart`. Returns the injection-done and arrival times, and whether
    /// it waited on a link.
    ///
    /// A self-send arrives after one router latency. While the chip runs
    /// degraded (see [`Noc::set_degraded_penalty`]), every hop pays the
    /// extra penalty on top of the router latency.
    pub fn send_on(&mut self, route: &Route, bytes: u64, depart: u64) -> PacketTiming {
        self.packets_sent += 1;
        let hop_latency = self.router_latency + self.degraded_penalty;
        let ser = bytes.div_ceil(self.link_bw);
        let contention = self.contention_cycles;
        let mut t = depart;
        let mut injected_at = depart;
        for (hop, &slot) in route.slots.iter().enumerate() {
            let link = &mut self.links[slot];
            let start = t.max(link.busy_until);
            self.contention_cycles += start - t;
            link.busy_until = start + ser;
            if hop == 0 {
                injected_at = start + ser;
            }
            t = start + hop_latency + ser;
        }
        PacketTiming {
            injected_at,
            arrived_at: if route.slots.is_empty() {
                depart + hop_latency
            } else {
                t
            },
            waited: self.contention_cycles > contention,
        }
    }

    /// Books `count` more packets along `route`, each leaving `stride`
    /// cycles after the one before, behind a packet of the same size that
    /// [`Noc::send_on`] just sent there without waiting.
    ///
    /// The caller guarantees that `stride` is at least that packet's
    /// serialization time and that the route repeats no link. Each packet
    /// then reaches every link after the one before it freed it, and
    /// repeats its timing `stride` later: no wait, and each link busy
    /// `count · stride` longer.
    pub fn send_train(&mut self, route: &Route, count: u64, stride: u64) {
        self.packets_sent += count;
        for &slot in &route.slots {
            let link = &mut self.links[slot];
            link.busy_until += count * stride;
        }
    }

    /// Rewinds the NoC to an idle state for a fresh machine epoch: every
    /// link's `busy_until` clock and the per-epoch counters are zeroed,
    /// while the link array (and its fault flags) is reused, never
    /// rebuilt.
    pub fn reset_epoch(&mut self) {
        for link in &mut self.links {
            link.busy_until = 0;
        }
        self.contention_cycles = 0;
        self.packets_sent = 0;
    }

    /// Total cycles packets spent waiting for busy links (the NoC
    /// interference metric).
    pub fn contention_cycles(&self) -> u64 {
        self.contention_cycles
    }

    /// Total packets injected.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Marks (or repairs) the *undirected* link between `a` and `b` —
    /// both directed entries change together, since a physical fault
    /// takes out the whole wire. Returns whether the state changed
    /// (`false` = the link was already in the requested state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when `a` and `b` are not adjacent
    /// in the mesh (there is no such link to fault).
    pub fn set_link_faulted(&mut self, a: u32, b: u32, faulted: bool) -> Result<bool> {
        let (Some(ab), Some(ba)) = (self.link_slot(a, b), self.link_slot(b, a)) else {
            return Err(SimError::RouteFault { core: a, dst: b });
        };
        let mut changed = false;
        for slot in [ab, ba] {
            let link = &mut self.links[slot];
            if link.faulted != faulted {
                link.faulted = faulted;
                changed = true;
                if faulted {
                    self.faulted_links += 1;
                } else {
                    self.faulted_links -= 1;
                }
            }
        }
        Ok(changed)
    }

    /// Whether the directed link `src → dst` is currently faulted.
    pub(crate) fn link_faulted(&self, src: u32, dst: u32) -> bool {
        self.link_slot(src, dst)
            .is_some_and(|slot| self.links[slot].faulted)
    }

    /// Currently faulted undirected links, each once as `(a, b)` with
    /// `a < b`, ascending. Scans the mesh only while some link is
    /// faulted.
    pub fn faulted_links(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (self.faulted_links > 0)
            .then(|| {
                self.directed_links()
                    .filter(|&((a, b), link)| a < b && link.faulted)
                    .map(|(key, _)| key)
            })
            .into_iter()
            .flatten()
    }

    /// Number of faulted directed links.
    pub fn faulted_link_count(&self) -> usize {
        self.faulted_links
    }

    /// Sets the degraded-mode per-hop penalty (0 restores full speed).
    pub fn set_degraded_penalty(&mut self, cycles: u64) {
        self.degraded_penalty = cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // `EpochState::do_send` checks a path with `route` and books each
    // packet with `send_on`; the tests drive that pair one packet at a time.
    impl Noc {
        /// Sends one packet of `bytes` along `path`: [`Noc::route`], then
        /// [`Noc::send_on`]. A packet that fails books nothing.
        ///
        /// # Errors
        ///
        /// Returns [`SimError::RouteFault`] if the path uses a non-existent
        /// link, or [`SimError::LinkFaulted`] if it crosses a faulted one.
        pub(crate) fn send_packet(
            &mut self,
            path: &[u32],
            bytes: u64,
            depart: u64,
        ) -> Result<PacketTiming> {
            let mut route = Route::default();
            self.route(path, &mut route)?;
            Ok(self.send_on(&route, bytes, depart))
        }
    }

    fn cfg() -> SocConfig {
        SocConfig::fpga() // 4x2 mesh, 16 B/cyc links, router latency 3
    }

    #[test]
    fn dor_router_identity_resolution() {
        let mut r = DorRouter::new(&cfg());
        assert_eq!(r.resolve(3).unwrap(), (3, 0));
        assert!(r.resolve(99).is_err());
    }

    #[test]
    fn dor_router_reuses_its_path_buffer() {
        let mut r = DorRouter::new(&cfg());
        assert_eq!(r.path(0, 6).unwrap(), [0, 1, 2, 6]);
        assert_eq!(r.path(7, 4).unwrap(), [7, 6, 5, 4]);
        assert_eq!(r.path(3, 3).unwrap(), [3]);
        assert!(matches!(
            r.path(0, 8),
            Err(SimError::RouteFault { core: 0, dst: 8 })
        ));
    }

    #[test]
    fn link_array_holds_exactly_the_mesh_links() {
        // 4x2 mesh: 3 horizontal links per row x 2 rows + 4 vertical,
        // each in both directions; row ends do not wrap.
        let noc = Noc::new(&cfg());
        let keys: Vec<(u32, u32)> = noc.directed_links().map(|(key, _)| key).collect();
        assert_eq!(keys.len(), 2 * (3 * 2 + 4));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted");
        let has = |a, b| keys.contains(&(a, b));
        assert!(has(0, 1) && has(1, 0) && has(0, 4) && has(4, 0) && has(6, 7));
        assert!(!has(3, 4) && !has(4, 3), "no wrap across a row end");
        assert!(!noc.link_faulted(3, 4) && !noc.link_faulted(0, 99));
    }

    #[test]
    fn link_slot_agrees_with_the_neighbour_table() {
        // Every (a, b) pair, two past the mesh on each side, on meshes
        // where a row step and a column step can be the same number.
        for (width, height) in [(4, 2), (1, 5), (5, 1), (1, 1), (2, 2), (6, 6)] {
            let noc = Noc::new(&SocConfig {
                mesh_width: width,
                mesh_height: height,
                ..cfg()
            });
            let nodes = width * height;
            for a in 0..nodes + 2 {
                for b in 0..nodes + 2 {
                    let by_table = (0..DIRECTIONS)
                        .find(|&dir| a < nodes && noc.neighbor(a, dir) == Some(b))
                        .map(|dir| a as usize * DIRECTIONS + dir);
                    assert_eq!(
                        noc.link_slot(a, b),
                        by_table,
                        "{width}x{height}: {a} -> {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_hop_packet_timing() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 2048 B over a 16 B/cyc link: 128 cycles serialization + 3 router.
        let t = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        assert_eq!(t.injected_at, 128);
        assert_eq!(t.arrived_at, 131);
    }

    #[test]
    fn multi_hop_accumulates_router_latency() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 0 -> 1 -> 2 -> 3 on the 4x2 mesh: 3 hops.
        let t = noc.send_packet(&[0, 1, 2, 3], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 3 * (128 + 3));
    }

    #[test]
    fn self_send_is_cheap() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let t = noc.send_packet(&[5], 2048, 10).unwrap();
        assert_eq!(t.arrived_at, 10 + c.router_latency);
    }

    #[test]
    fn contention_serializes_same_link() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let a = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        assert_eq!(b.injected_at, a.injected_at + 128);
        assert_eq!(noc.contention_cycles(), 128);
    }

    #[test]
    fn disjoint_links_do_not_contend() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        let a = noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[2, 3], 2048, 0).unwrap();
        assert_eq!(a.arrived_at, b.arrived_at);
        assert_eq!(noc.contention_cycles(), 0);
    }

    #[test]
    fn reverse_direction_is_separate_link() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        noc.send_packet(&[0, 1], 2048, 0).unwrap();
        let b = noc.send_packet(&[1, 0], 2048, 0).unwrap();
        assert_eq!(b.injected_at, 128);
        assert_eq!(noc.contention_cycles(), 0);
    }

    #[test]
    fn crossing_flows_contend_on_shared_segment() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // On the 4x2 mesh, 5 is below 1: A = 0->1->2 and B = 5->1->2
        // share the link 1->2. A holds it from 131 to 259, so B, ready
        // there at 131, waits 128 cycles and arrives two hops later.
        let a = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        let b = noc.send_packet(&[5, 1, 2], 2048, 0).unwrap();
        assert_eq!((a.arrived_at, a.waited), (262, false));
        assert_eq!((b.arrived_at, b.waited), (390, true));
        assert_eq!(noc.contention_cycles(), 128);
    }

    #[test]
    fn invalid_link_rejected() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        // 0 and 2 are not adjacent on the 4-wide mesh.
        assert!(noc.send_packet(&[0, 2], 64, 0).is_err());
    }

    #[test]
    fn a_failed_packet_leaves_the_noc_untouched() {
        let mut noc = Noc::new(&cfg());
        noc.send_packet(&[4, 0, 1], 2048, 0).unwrap();
        noc.set_link_faulted(1, 2, true).unwrap();
        let before = format!("{noc:?}");
        // A faulted second hop, and a non-adjacent one after a good hop:
        // the first hop is not booked either.
        assert!(matches!(
            noc.send_packet(&[0, 1, 2], 2048, 100),
            Err(SimError::LinkFaulted { src: 1, dst: 2 })
        ));
        assert!(matches!(
            noc.send_packet(&[0, 1, 3], 2048, 100),
            Err(SimError::RouteFault { core: 1, dst: 3 })
        ));
        assert_eq!(format!("{noc:?}"), before);
    }

    #[test]
    fn a_train_books_what_its_packets_would() {
        // Behind foreign traffic, packets wait until one does not; from
        // there, a train books the rest as sending them one by one would.
        for (path, overhead) in [(&[0u32, 1, 2, 6][..], 13), (&[0, 1, 2, 6], 0), (&[3], 5)] {
            let mut sides = Vec::new();
            for train in [false, true] {
                let mut noc = Noc::new(&cfg());
                noc.send_packet(&[1, 2, 6], 2048, 100).unwrap();
                noc.send_packet(&[2, 6], 2048, 600).unwrap();
                let mut route = Route::default();
                noc.route(path, &mut route).unwrap();
                let (mut depart, mut left, mut last) = (0, 12, 0);
                while left > 0 {
                    let timing = noc.send_on(&route, 2048, depart);
                    let next = timing.injected_at + overhead;
                    (left, last) = (left - 1, timing.arrived_at);
                    if train && !timing.waited {
                        let stride = next - depart;
                        noc.send_train(&route, left, stride);
                        (depart, last) = (next + left * stride, last + left * stride);
                        break;
                    }
                    depart = next;
                }
                sides.push((format!("{noc:?}"), depart, last));
            }
            assert_eq!(sides[0], sides[1], "{path:?}");
        }
    }

    #[test]
    fn table3_shape_packet_scaling() {
        // The Table 3 calibration: send N packets back-to-back over one hop;
        // marginal cost per packet ≈ serialization (128 cyc at 2048 B,
        // 16 B/cyc). Matches the paper's ~141 cyc/packet with overheads.
        let c = cfg();
        let mut noc = Noc::new(&c);
        let mut depart = 0;
        let mut last_arrival = 0;
        for _ in 0..10 {
            let t = noc.send_packet(&[0, 1], 2048, depart).unwrap();
            depart = t.injected_at;
            last_arrival = t.arrived_at;
        }
        assert_eq!(last_arrival, 10 * 128 + 3);
    }

    #[test]
    fn faulted_link_rejects_packets_and_survives_epoch_reset() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        assert!(noc.set_link_faulted(0, 1, true).unwrap());
        assert!(!noc.set_link_faulted(0, 1, true).unwrap(), "idempotent");
        assert!(noc.link_faulted(0, 1) && noc.link_faulted(1, 0));
        assert!(matches!(
            noc.send_packet(&[0, 1], 2048, 0),
            Err(SimError::LinkFaulted { src: 0, dst: 1 })
        ));
        // Epoch resets rewind clocks, not hardware state.
        noc.reset_epoch();
        assert!(noc.link_faulted(0, 1));
        assert_eq!(noc.faulted_link_count(), 2);
        // The listing names each wire once, low end first, ascending.
        assert!(noc.set_link_faulted(6, 2, true).unwrap());
        assert!(noc.set_link_faulted(5, 4, true).unwrap());
        assert_eq!(
            noc.faulted_links().collect::<Vec<_>>(),
            [(0, 1), (2, 6), (4, 5)]
        );
        for (a, b) in [(0, 1), (2, 6), (4, 5)] {
            assert!(noc.set_link_faulted(b, a, false).unwrap());
        }
        assert_eq!(noc.faulted_links().count(), 0);
        assert!(noc.send_packet(&[0, 1], 2048, 0).is_ok());
        // Non-adjacent pairs cannot be faulted.
        assert!(noc.set_link_faulted(0, 2, true).is_err());
    }

    #[test]
    fn degraded_penalty_slows_every_hop() {
        let c = cfg();
        let mut noc = Noc::new(&c);
        noc.set_degraded_penalty(5);
        assert_eq!(noc.degraded_penalty, 5);
        let t = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 2 * (128 + 3 + 5));
        noc.set_degraded_penalty(0);
        noc.reset_epoch();
        let t = noc.send_packet(&[0, 1, 2], 2048, 0).unwrap();
        assert_eq!(t.arrived_at, 2 * (128 + 3));
    }
}
