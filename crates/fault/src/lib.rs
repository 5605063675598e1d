//! **vnpu_fault** — seeded hardware-fault injection and detection for
//! the vNPU serving stack.
//!
//! A production fleet serving millions of users must treat core and
//! NoC-link failures as first-class events, not as impossibilities the
//! topology-aware abstraction assumes away. This crate supplies the two
//! pieces the serving runtime composes into a fault → detect → recover
//! lifecycle:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of
//!   [`FaultEvent`]s (core or undirected-link failures, each with an
//!   onset tick and an optional repair tick). The plan is pure data: the
//!   serving runtime hands each event to the cluster, which injects it
//!   into the chip's [`vnpu_sim::Machine`] at the onset tick (a dead core
//!   is also masked in the hypervisor, out of the free region) and undoes
//!   it at the repair tick.
//! * [`FaultDetector`] — answers "does this tenant touch a live fault"
//!   from the hypervisor's live ownership state (the core mappings the
//!   virtualization layer already maintains), its core fault mask, and
//!   the faulted links the chip's machine records. The serving runtime
//!   asks it once per tick, after the tick's onsets and repairs have
//!   landed. Detection is conservative for link faults: any tenant owning
//!   an endpoint of a dead link is treated as affected, since its NoC
//!   traffic terminates in the failed router.
//!
//! The response lives in the serving runtime's recovery phase:
//! remap-under-pin around the dead resource where topology edit distance
//! allows, else an *emergency drain* of only the affected tenants (an
//! unplanned, unbudgeted variant of the maintenance-drain pipeline),
//! declaring a tenant lost after a fixed number of ticks without a
//! landing spot.
//!
//! Everything is deterministic: the same seed reproduces the same fault
//! schedule, and the recovery path runs through the same transactional
//! plan machinery as every other placement mutation — so serving reports
//! stay byte-identical across runs even with faults in flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vnpu::{Cluster, ClusterVmId, VirtualNpu};
use vnpu_topo::route::dor_walk;
use vnpu_topo::{NodeId, Topology};

/// Which hardware resource failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A physical core died: nothing can be bound to it and every tenant
    /// mapping it loses compute.
    Core {
        /// The failed physical core.
        core: u32,
    },
    /// An undirected NoC link died: packets crossing it (either
    /// direction) fault, and both endpoint routers are suspect.
    Link {
        /// One endpoint core of the failed link.
        a: u32,
        /// The other endpoint core.
        b: u32,
    },
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Core { core } => write!(f, "core {core}"),
            FaultKind::Link { a, b } => write!(f, "link {a}\u{2013}{b}"),
        }
    }
}

/// One scheduled hardware failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The chip the failure lands on.
    pub chip: usize,
    /// What fails.
    pub kind: FaultKind,
    /// The serving tick at which the failure manifests.
    pub onset_tick: u64,
    /// The tick at which field service repairs the resource (`None` =
    /// permanently dead for the run).
    pub repair_tick: Option<u64>,
}

/// A deterministic schedule of hardware failures, injected into the
/// serving loop tick by tick. Build one explicitly with
/// [`FaultPlan::core_fault`] / [`FaultPlan::link_fault`] /
/// [`FaultPlan::row_outage`], or sample one with [`FaultPlan::seeded`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no failures — the healthy-fleet baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules one core failure.
    pub fn core_fault(mut self, chip: usize, core: u32, onset: u64, repair: Option<u64>) -> Self {
        self.events.push(FaultEvent {
            chip,
            kind: FaultKind::Core { core },
            onset_tick: onset,
            repair_tick: repair.filter(|&r| r > onset),
        });
        self
    }

    /// Schedules one undirected-link failure.
    pub fn link_fault(
        mut self,
        chip: usize,
        a: u32,
        b: u32,
        onset: u64,
        repair: Option<u64>,
    ) -> Self {
        self.events.push(FaultEvent {
            chip,
            kind: FaultKind::Link { a, b },
            onset_tick: onset,
            repair_tick: repair.filter(|&r| r > onset),
        });
        self
    }

    /// Schedules the headline scenario: a chip loses one whole mesh row
    /// of cores at once (cores `row*mesh_width .. (row+1)*mesh_width`) —
    /// e.g. a shared power rail or row driver failing. Cores of the row
    /// past `u32::MAX` have no id and are left out.
    pub fn row_outage(
        mut self,
        chip: usize,
        mesh_width: u32,
        row: u32,
        onset: u64,
        repair: Option<u64>,
    ) -> Self {
        let first = u64::from(row) * u64::from(mesh_width);
        for core in (first..first + u64::from(mesh_width)).map_while(|c| u32::try_from(c).ok()) {
            self = self.core_fault(chip, core, onset, repair);
        }
        self
    }

    /// Samples a deterministic random plan: `count` failures spread
    /// uniformly over `chips` (each described by its core count) and over
    /// ticks `1..horizon`, with every failure repaired `repair_after`
    /// ticks later (`None` = permanent; a repair past `u64::MAX` lands at
    /// `u64::MAX`). The same seed always produces the same plan.
    pub fn seeded(
        seed: u64,
        chips: &[u32],
        count: usize,
        horizon: u64,
        repair_after: Option<u64>,
    ) -> Self {
        let mut plan = FaultPlan::new();
        if chips.is_empty() || horizon < 2 {
            return plan;
        }
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = splitmix64(state);
            state
        };
        for _ in 0..count {
            let chip = (next() % chips.len() as u64) as usize;
            let cores = chips[chip].max(1);
            let core = (next() % u64::from(cores)) as u32;
            let onset = 1 + next() % (horizon - 1);
            let repair = repair_after.map(|r| onset.saturating_add(r.max(1)));
            plan = plan.core_fault(chip, core, onset, repair);
        }
        plan
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events whose failure manifests at `tick`, in insertion order.
    pub fn onsets_at(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.onset_tick == tick)
    }

    /// Events whose repair lands at `tick`, in insertion order.
    pub fn repairs_at(&self, tick: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.repair_tick == Some(tick))
    }
}

/// The canonical splitmix64 step, which [`FaultPlan::seeded`] draws
/// from. (The arrival streams use a different generator, the xorshift64*
/// `vnpu_mem::proptest_lite::Rng`.)
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a route between two of `vnpu`'s cores crosses the undirected
/// link `a`–`b`: one of the routes deployed with a confined tenant's
/// cores, the dimension-order route of any other tenant. DOR traffic can
/// transit links between cores a tenant does not own — a route-aware
/// check is the only sound link-fault detector.
fn routes_cross_link(topo: &Topology, vnpu: &VirtualNpu, a: u32, b: u32) -> bool {
    let on_link = |x: u32, y: u32| (x, y) == (a, b) || (x, y) == (b, a);
    if let Some(routes) = vnpu.routes() {
        let mut hops = routes.routes().flat_map(|r| r.windows(2));
        return hops.any(|w| on_link(w[0], w[1]));
    }
    let Some(shape) = topo.mesh_shape() else {
        return false;
    };
    let nodes = vnpu.mapping().phys_nodes();
    nodes.iter().any(|&s| {
        nodes.iter().any(|&d| {
            let (mut prev, mut crossed) = (s.0, false);
            // Refused (an endpoint off the mesh): visits nothing.
            let _ = dor_walk(shape, s, d, |n| {
                crossed |= on_link(prev, n.0);
                prev = n.0;
            });
            crossed
        })
    })
}

/// Decides whether a tenant touches a live fault, via the hypervisor's
/// live ownership state and the chip's machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultDetector;

impl FaultDetector {
    /// Whether one tenant touches *any* currently-faulted resource on its
    /// chip — both the recovery loop's detection and its convergence
    /// test. A tenant is affected when it owns a faulted core, owns
    /// either endpoint of a faulted link (its NoC traffic terminates in
    /// the failed link's routers), or has a route across a faulted link:
    /// for a tenant with NoC isolation one of the routes deployed with its
    /// cores ([`VirtualNpu::routes`]), for any other its dimension-order
    /// routes, which are not confined to the cores it owns. A tenant that stopped being affected without moving (its
    /// fault was repaired, or it was detected conservatively off a link
    /// endpoint that healed) needs no recovery action at all.
    pub fn tenant_affected(cluster: &Cluster, id: ClusterVmId) -> bool {
        let hv = cluster.chip(id.chip);
        let Ok(vnpu) = hv.vnpu(id.vm) else {
            return false;
        };
        let nodes = vnpu.mapping().phys_nodes();
        let topo = hv.topology();
        nodes.iter().any(|n| hv.core_faulted(n.0))
            || cluster.machine(id.chip).faulted_links().any(|(a, b)| {
                nodes.contains(&NodeId(a))
                    || nodes.contains(&NodeId(b))
                    || routes_cross_link(topo, vnpu, a, b)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::VnpuRequest;
    use vnpu_sim::SocConfig;
    use vnpu_topo::mapping::Strategy;

    #[test]
    fn plan_builders_schedule_and_query() {
        let plan = FaultPlan::new()
            .core_fault(0, 7, 10, Some(20))
            .link_fault(1, 0, 1, 12, None)
            .row_outage(0, 6, 2, 15, Some(30));
        assert_eq!(plan.events.len(), 8, "a 6-wide row is 6 core faults");
        assert_eq!(plan.onsets_at(10).count(), 1);
        assert_eq!(plan.onsets_at(15).count(), 6);
        assert_eq!(plan.repairs_at(20).count(), 1);
        assert_eq!(plan.repairs_at(30).count(), 6);
        assert_eq!(plan.onsets_at(11).count(), 0);
        let row_cores: Vec<u32> = plan
            .onsets_at(15)
            .map(|e| match e.kind {
                FaultKind::Core { core } => core,
                FaultKind::Link { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(row_cores, vec![12, 13, 14, 15, 16, 17]);
    }

    #[test]
    fn repair_before_onset_is_dropped() {
        let plan = FaultPlan::new().core_fault(0, 0, 10, Some(5));
        assert_eq!(plan.events[0].repair_tick, None);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded(42, &[36, 16], 10, 100, Some(20));
        let b = FaultPlan::seeded(42, &[36, 16], 10, 100, Some(20));
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, &[36, 16], 10, 100, Some(20)));
        assert_eq!(a.events.len(), 10);
        for e in &a.events {
            assert!(e.chip < 2);
            let FaultKind::Core { core } = e.kind else {
                panic!("seeded plans are core faults");
            };
            assert!(core < [36, 16][e.chip]);
            assert!(e.onset_tick >= 1 && e.onset_tick < 100);
            assert_eq!(e.repair_tick, Some(e.onset_tick + 20));
        }
        assert!(FaultPlan::seeded(1, &[], 5, 100, None).is_empty());
    }

    #[test]
    fn row_outage_past_u32_is_not_a_panic() {
        // No core of row u32::MAX of a 2-wide mesh has a u32 id.
        assert!(FaultPlan::new()
            .row_outage(0, 2, u32::MAX, 1, None)
            .is_empty());
        // This row's first core is u32::MAX; the two after it are cut.
        let plan = FaultPlan::new().row_outage(0, 3, u32::MAX / 3, 1, None);
        assert_eq!(plan.events.len(), 1);
        assert_eq!(plan.events[0].kind, FaultKind::Core { core: u32::MAX });
    }

    #[test]
    fn seeded_repair_near_u64_max_is_not_a_panic() {
        let plan = FaultPlan::seeded(1, &[16], 4, 100, Some(u64::MAX));
        assert_eq!(plan.events.len(), 4);
        for e in &plan.events {
            assert_eq!(e.repair_tick, Some(u64::MAX));
        }
    }

    #[test]
    fn tenant_affected_sees_cores_endpoints_and_transit_links() {
        let mut cl = Cluster::new(vec![SocConfig::sim()]);
        // 6x6 mesh: with cores 1–2 reserved, a zig-zag 2-core tenant
        // lands on cores 0 and 3, so its X-Y route transits link 1–2
        // without owning either end.
        cl.chip_mut(0).reserve_cores(&[1, 2]).unwrap();
        let t = cl
            .create_on(
                0,
                VnpuRequest::cores(2).strategy(Strategy::straightforward()),
            )
            .unwrap();
        let nodes = |cl: &Cluster, id: ClusterVmId| {
            cl.chip(0)
                .vnpu(id.vm)
                .unwrap()
                .mapping()
                .phys_nodes()
                .to_vec()
        };
        assert_eq!(nodes(&cl, t), [NodeId(0), NodeId(3)]);
        let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        let a_nodes = nodes(&cl, a);
        let affected = |cl: &Cluster| {
            (
                FaultDetector::tenant_affected(cl, t),
                FaultDetector::tenant_affected(cl, a),
            )
        };
        assert_eq!(affected(&cl), (false, false));
        // A fault on an unowned core affects nobody.
        let free = (0..36)
            .find(|&c| {
                cl.chip(0)
                    .vnpus()
                    .all(|(_, v)| !v.mapping().phys_nodes().contains(&NodeId(c)))
            })
            .unwrap();
        assert!(cl.fault_core(0, free).unwrap());
        assert_eq!(affected(&cl), (false, false));
        assert!(cl.repair_core(0, free).unwrap());
        // A dead owned core, then its repair.
        assert!(cl.fault_core(0, a_nodes[0].0).unwrap());
        assert_eq!(affected(&cl), (false, true));
        assert!(cl.repair_core(0, a_nodes[0].0).unwrap());
        assert_eq!(affected(&cl), (false, false));
        // A dead link at an owned endpoint (inside a's window, off t's
        // row-0 route).
        assert!(cl.fault_link(0, a_nodes[0].0, a_nodes[1].0).unwrap());
        assert_eq!(affected(&cl), (false, true));
        assert!(cl.repair_link(0, a_nodes[0].0, a_nodes[1].0).unwrap());
        // A dead transit-only link, then its repair.
        assert!(cl.fault_link(0, 1, 2).unwrap());
        assert_eq!(affected(&cl), (true, false));
        assert!(cl.repair_link(0, 1, 2).unwrap());
        assert_eq!(affected(&cl), (false, false));
    }

    #[test]
    fn confined_tenant_is_affected_only_by_links_its_deployed_routes_cross() {
        // 6x6 mesh with all cores reserved but a U down column 0, along
        // row 3 and up column 3: the tenant's DOR route 0 -> 3 runs along
        // row 0 over link 1–2, its confined routes go round the U.
        let u = [0, 6, 12, 18, 19, 20, 21, 15, 9, 3];
        let affected = |isolated: bool| {
            let mut cl = Cluster::new(vec![SocConfig::sim()]);
            let others: Vec<u32> = (0..36).filter(|c| !u.contains(c)).collect();
            cl.chip_mut(0).reserve_cores(&others).unwrap();
            let req = VnpuRequest::cores(10).noc_isolation(isolated);
            let t = cl.create_on(0, req).unwrap();
            assert!(cl.fault_link(0, 1, 2).unwrap());
            FaultDetector::tenant_affected(&cl, t)
        };
        assert!(affected(false));
        assert!(!affected(true));
    }
}
