//! Fleet invariant auditor: the whole-[`Cluster`] post-tick audit.
//!
//! Each serve-loop tick mutates placement state through many layers —
//! admissions, migrations, defragmentation, drains. [`audit_chip`]
//! cross-checks one chip's ground truth after the dust settles:
//! per-core user counts against the tenants claiming each core, the
//! free set (membership, count *and* fingerprint) against occupancy,
//! HBM byte conservation against the tenants' buddy blocks, and
//! drained-chip emptiness — plus the full [`crate::routing`] pass over
//! the chip's resident routing tables. [`audit_cluster`] runs it over
//! every chip, memo-free.
//!
//! [`FleetAuditor`] is the same sweep with a routing memo per chip. The
//! routing pass is a function of the chip's topology, fixed when the chip
//! is built and named by its `phys_key`, and of each tenant's isolation
//! flag, routing table, mapping and deployed routes, which change only by
//! a redeployment, and every redeployment moves the tenant's deployment
//! stamp. So the memo keys a chip's findings on its `phys_key` and its
//! `(vm, stamp)` list in VM order, and a tenant's paths and turn
//! dependencies on its `(vm, stamp)`: a chip whose list is unchanged
//! keeps its findings, and on any other chip only the redeployed tenants
//! are walked again before the rules run over every entry. The
//! accounting half (`FLEET-*`, `FAULT-*`) reads the core counts, the free
//! set, the HBM allocator, the drain state and the fault masks, which
//! move without a stamp, so it runs fresh every audit. Debug builds
//! re-run the fresh routing pass on every audit and assert equal
//! findings, and the campaign below holds the memoised auditor to
//! [`audit_cluster`] over churn, faults and redeployments.
//!
//! All passes are read-only: auditing a clean fleet leaves behavior,
//! reports and cache statistics byte-identical to not auditing it.
//!
//! [`audit_chip`] runs after every audited tick, so its accounting half
//! builds no map: the ownership ground truth is one `(core, tenant)`
//! claim array, stably sorted by core. A core's claimants are then a
//! contiguous run in the VM-ID order the tenants are visited in, and the
//! runs come in ascending core order — the order the per-core
//! `BTreeMap` of `Vec`s this replaced iterated in, so every finding keeps
//! its place and text (a test-only `reference` module keeps the old pass
//! as the oracle). A core a mapping names outside the mesh, which no
//! per-core array could hold, sorts last and still groups by core.

use crate::routing::{
    audit_routing, collect_tenant_routes, routing_findings, tenant_routes, LinkIds, TenantEntry,
};
use crate::{AuditFinding, Rule};
use vnpu::cluster::Cluster;
use vnpu::drain::ChipSchedState;
use vnpu::{Hypervisor, VmId};
use vnpu_topo::{FreeSet, NodeId};

/// Audits one chip's resource-accounting invariants, then its routing.
/// `sched` is the chip's drain-lifecycle state (pass
/// [`ChipSchedState::Schedulable`] for a standalone hypervisor) and
/// `faulted_links` the dead links its machine records (none for a
/// standalone hypervisor, which has no links). Findings carry no chip
/// index — the cluster-level entry points tag it.
pub fn audit_chip(
    hv: &Hypervisor,
    sched: ChipSchedState,
    faulted_links: impl IntoIterator<Item = (u32, u32)>,
) -> Vec<AuditFinding> {
    let mut findings = audit_accounting(hv, sched, faulted_links);
    findings.extend(fresh_routing(hv));
    findings
}

/// The routing pass over a chip's resident tables, from scratch.
fn fresh_routing(hv: &Hypervisor) -> Vec<AuditFinding> {
    audit_routing(hv.topology(), &collect_tenant_routes(hv))
}

/// [`audit_chip`]'s accounting half: everything but the routing pass.
fn audit_accounting(
    hv: &Hypervisor,
    sched: ChipSchedState,
    faulted_links: impl IntoIterator<Item = (u32, u32)>,
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let users = hv.core_users();
    let n = users.len();

    // Ownership ground truth: every (core, tenant) claim in one array,
    // sorted by core — stably, so a core's claimants stay in the VM-ID
    // order the tenants are visited in.
    let mut claims: Vec<(u32, VmId)> = hv
        .vnpus()
        .flat_map(|(&vm, v)| v.mapping().phys_nodes().iter().map(move |n| (n.0, vm)))
        .collect();
    claims.sort_by_key(|&(core, _)| core);
    let owners = |core: u32| {
        let from = claims.partition_point(|&(c, _)| c < core);
        let to = claims.partition_point(|&(c, _)| c <= core);
        &claims[from..to]
    };

    // FLEET-OWN: user counts must equal the tenant claims, core by core.
    // (A count above the claims also covers cores pinned via
    // `Hypervisor::reserve_cores` without a tenant — a reservation the
    // serving path never issues, and exactly the kind of residue this
    // audit exists to surface.)
    for core in 0..n as u32 {
        let o = owners(core);
        let (claimed, counted) = (o.len() as u32, users[core as usize]);
        if claimed != counted {
            findings.push(
                AuditFinding::error(
                    Rule::FleetCoreOwnership,
                    format!("user count is {counted} but {claimed} tenant(s) claim the core"),
                )
                .core(core)
                .vm(o.first().map(|&(_, vm)| vm)),
            );
        }
    }
    let outside = &claims[claims.partition_point(|&(c, _)| (c as usize) < n)..];
    for o in outside.chunk_by(|a, b| a.0 == b.0) {
        findings.push(
            AuditFinding::error(
                Rule::FleetCoreOwnership,
                "a tenant mapping names a core outside the mesh",
            )
            .core(o[0].0),
        );
    }

    // FLEET-SHARE: multi-owner cores require unanimous temporal sharing.
    for o in claims.chunk_by(|a, b| a.0 == b.0).filter(|o| o.len() >= 2) {
        let opted_out = o.iter().filter(|&&(_, vm)| {
            !hv.vnpu(vm)
                .is_ok_and(|v| v.request().wants_temporal_sharing())
        });
        if let Some(&(core, vm)) = opted_out.clone().next() {
            let names: Vec<String> = o.iter().map(|(_, v)| v.to_string()).collect();
            findings.push(
                AuditFinding::error(
                    Rule::FleetSharedCore,
                    format!(
                        "core shared by {} but {} tenant(s) never opted into temporal sharing",
                        names.join(", "),
                        opted_out.count()
                    ),
                )
                .vm(vm)
                .core(core),
            );
        }
    }

    // FLEET-FREE: the free set must mirror `users == 0 && !faulted`
    // exactly — a faulted core is pinned occupied regardless of users.
    let free = hv.free_set();
    let mut truly_free = FreeSet::all_occupied(n);
    for core in 0..n as u32 {
        let faulted = hv.core_faulted(core);
        let vacant = users[core as usize] == 0 && !faulted;
        if vacant {
            truly_free.release(NodeId(core));
        }
        if free.contains(NodeId(core)) != vacant {
            findings.push(
                AuditFinding::error(
                    Rule::FleetFreeSetDrift,
                    if vacant {
                        "core has no users but the free set marks it occupied"
                    } else if faulted {
                        "core is faulted but the free set marks it free"
                    } else {
                        "core has users but the free set marks it free"
                    },
                )
                .core(core),
            );
        }
    }
    if free.free_count() != truly_free.free_count() {
        findings.push(AuditFinding::error(
            Rule::FleetFreeSetDrift,
            format!(
                "free set counts {} cores but {} have zero users",
                free.free_count(),
                truly_free.free_count()
            ),
        ));
    }
    let (fp, expected_fp) = (free.fingerprint(), truly_free.fingerprint());
    if fp != expected_fp {
        findings.push(AuditFinding::error(
            Rule::FleetFreeSetDrift,
            format!("free-set fingerprint {fp:#x} does not match occupancy fingerprint {expected_fp:#x}"),
        ));
    }

    // FLEET-HBM: allocated bytes must be exactly the tenants' blocks.
    let allocated = hv.hbm_total_bytes() - hv.hbm_free_bytes();
    let tenant_bytes: u64 = hv
        .vnpus()
        .map(|(_, v)| v.memory_blocks().iter().map(|b| b.size).sum::<u64>())
        .sum();
    if allocated != tenant_bytes {
        findings.push(AuditFinding::error(
            Rule::FleetHbmAccounting,
            format!(
                "buddy allocator holds {allocated} bytes but tenant blocks sum to \
                 {tenant_bytes} — {} byte(s) leaked or double-counted",
                allocated.abs_diff(tenant_bytes)
            ),
        ));
    }

    // FLEET-DRAIN: maintenance requires an empty chip.
    if sched == ChipSchedState::Drained && hv.vnpu_count() > 0 {
        findings.push(
            AuditFinding::error(
                Rule::FleetDrainedResidue,
                format!(
                    "chip is drained (under maintenance) but still holds {} tenant(s)",
                    hv.vnpu_count()
                ),
            )
            .vm(hv.vnpus().next().map(|(&vm, _)| vm)),
        );
    }

    // FAULT-MAP: no live tenant may (still) map a dead core (FLEET-FREE
    // already flags one advertised free). A tenant on a dead core is
    // expected *transiently* while recovery is converging; persisting
    // across audits means recovery stalled.
    for core in hv.faulted_cores() {
        for &(_, vm) in owners(core) {
            findings.push(
                AuditFinding::error(
                    Rule::FaultMappedCore,
                    "live tenant still maps a faulted core",
                )
                .vm(vm)
                .core(core),
            );
        }
    }

    // FAULT-LINK: a tenant owning an endpoint of a dead link may still
    // route around it, but its traffic terminates in the failed routers —
    // worth surfacing while recovery decides whether to move it.
    for (a, b) in faulted_links {
        for (&vm, v) in hv.vnpus() {
            let nodes = v.mapping().phys_nodes();
            if let Some(core) = [a, b].into_iter().find(|&c| nodes.contains(&NodeId(c))) {
                findings.push(
                    AuditFinding::warning(
                        Rule::FaultLinkEndpoint,
                        format!("live tenant owns an endpoint of faulted link {a}\u{2013}{b}"),
                    )
                    .vm(vm)
                    .core(core),
                );
            }
        }
    }

    findings
}

/// Audits every chip of a cluster, tagging findings with the chip
/// index. Memo-free: the oracle [`FleetAuditor`] is held to.
pub fn audit_cluster(cluster: &Cluster) -> Vec<AuditFinding> {
    audit_chips(cluster, |_, hv| fresh_routing(hv))
}

/// Every chip's accounting half, fresh, then `routing(chip, hv)`, each
/// chip's findings tagged with its index.
fn audit_chips(
    cluster: &Cluster,
    mut routing: impl FnMut(usize, &Hypervisor) -> Vec<AuditFinding>,
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for i in 0..cluster.chip_count() {
        let (hv, links) = (cluster.chip(i), cluster.machine(i).faulted_links());
        let sched = cluster
            .drain_state(i)
            .unwrap_or(ChipSchedState::Schedulable);
        let mut chip = audit_accounting(hv, sched, links);
        chip.extend(routing(i, hv));
        findings.extend(chip.into_iter().map(|f| f.on_chip(i)));
    }
    findings
}

/// The fleet audit as a value: [`audit_cluster`]'s findings, with each
/// chip's routing pass kept between audits. A chip's routing findings are
/// keyed on its [`Hypervisor::phys_key`] (its topology, fixed when the
/// chip is built) and its `(vm, deployment stamp)` list in VM order; a
/// tenant's paths and turn dependencies on its `(vm, stamp)`. Every input
/// of a tenant's routing — isolation flag, routing table, mapping,
/// deployed routes — changes only by a redeployment, which moves
/// [`vnpu::VirtualNpu::deployment_stamp`]. So an unchanged chip keeps its
/// findings, and a changed one walks only its redeployed tenants again.
/// The accounting half (`FLEET-*`, `FAULT-*`) runs fresh every audit.
/// Debug builds re-run the fresh routing pass and assert equal findings.
#[derive(Debug, Default, Clone)]
pub struct FleetAuditor {
    /// Per chip, by index.
    chips: Vec<RoutingMemo>,
}

/// One chip's routing pass as of its last audit.
#[derive(Debug, Default, Clone)]
struct RoutingMemo {
    phys_key: u64,
    /// `(vm, deployment stamp)` per resident tenant, in VM-ID order.
    key: Vec<(VmId, u64)>,
    /// Each tenant's entry, in `key` order.
    entries: Vec<TenantEntry>,
    /// The routing findings of `entries`.
    findings: Vec<AuditFinding>,
}

impl RoutingMemo {
    /// The chip's routing findings, re-walking only redeployed tenants.
    fn audit(&mut self, hv: &Hypervisor) -> &[AuditFinding] {
        if self.phys_key != hv.phys_key() {
            *self = RoutingMemo {
                phys_key: hv.phys_key(),
                ..RoutingMemo::default()
            };
        }
        let stamps = || hv.vnpus().map(|(&vm, v)| (vm, v.deployment_stamp()));
        if !stamps().eq(self.key.iter().copied()) {
            let ids = LinkIds::new(hv.topology());
            let mut old = self.key.iter().zip(self.entries.drain(..)).peekable();
            let mut entries = Vec::with_capacity(hv.vnpu_count());
            for (&vm, v) in hv.vnpus() {
                let stamp = v.deployment_stamp();
                while old.next_if(|(k, _)| k.0 < vm).is_some() {}
                entries.push(match old.next_if(|(k, _)| **k == (vm, stamp)) {
                    Some((_, entry)) => entry,
                    None => TenantEntry::new(&ids, tenant_routes(vm, v)),
                });
            }
            drop(old);
            self.key = stamps().collect();
            self.findings = routing_findings(&ids, &entries);
            self.entries = entries;
        }
        debug_assert_eq!(self.findings, fresh_routing(hv), "memoised routing");
        &self.findings
    }
}

impl FleetAuditor {
    /// An auditor with an empty memo.
    pub fn new() -> Self {
        FleetAuditor::default()
    }

    /// Runs the full fleet audit.
    pub fn audit(&mut self, cluster: &Cluster) -> Vec<AuditFinding> {
        self.chips
            .resize_with(cluster.chip_count(), Default::default);
        audit_chips(cluster, |i, hv| self.chips[i].audit(hv).to_vec())
    }
}

#[cfg(test)]
mod reference {
    //! The accounting half the flat `audit_chip` replaced, kept verbatim
    //! as a differential oracle (the owners as a `BTreeMap` of per-core
    //! `Vec`s, the free cores collected before the fingerprint is
    //! rebuilt), over the reference routing pass.

    use super::*;
    use crate::routing::reference::{audit_routing, below};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use vnpu::cluster::ClusterVmId;
    use vnpu::{Defragmenter, GreedyDefrag, VnpuRequest};
    use vnpu_mem::proptest_lite::Rng;
    use vnpu_sim::SocConfig;
    use vnpu_topo::Strategy;

    fn audit_chip(
        hv: &Hypervisor,
        sched: ChipSchedState,
        faulted_links: impl IntoIterator<Item = (u32, u32)>,
    ) -> Vec<AuditFinding> {
        let mut findings = Vec::new();
        let users = hv.core_users();
        let n = users.len();

        // Ownership ground truth: which tenants claim each physical core.
        let mut owners: BTreeMap<u32, Vec<VmId>> = BTreeMap::new();
        for (&vm, v) in hv.vnpus() {
            for node in v.mapping().phys_nodes() {
                owners.entry(node.0).or_default().push(vm);
            }
        }

        // FLEET-OWN: user counts must equal the tenant claims, core by core.
        // (A count above the claims also covers cores pinned via
        // `Hypervisor::reserve_cores` without a tenant — a reservation the
        // serving path never issues, and exactly the kind of residue this
        // audit exists to surface.)
        for core in 0..n as u32 {
            let claimed = owners.get(&core).map_or(0, |o| o.len()) as u32;
            let counted = users[core as usize];
            if claimed != counted {
                let mut f = AuditFinding::error(
                    Rule::FleetCoreOwnership,
                    format!("user count is {counted} but {claimed} tenant(s) claim the core"),
                )
                .core(core);
                if let Some(o) = owners.get(&core) {
                    if let Some(&vm) = o.first() {
                        f = f.vm(vm);
                    }
                }
                findings.push(f);
            }
        }
        for node in owners.keys().filter(|&&c| c as usize >= n) {
            findings.push(
                AuditFinding::error(
                    Rule::FleetCoreOwnership,
                    "a tenant mapping names a core outside the mesh".to_string(),
                )
                .core(*node),
            );
        }

        // FLEET-SHARE: multi-owner cores require unanimous temporal sharing.
        for (&core, vms) in &owners {
            if vms.len() < 2 {
                continue;
            }
            let opted_out: Vec<VmId> = vms
                .iter()
                .filter(|&&vm| {
                    hv.vnpu(vm)
                        .map(|v| !v.request().wants_temporal_sharing())
                        .unwrap_or(true)
                })
                .copied()
                .collect();
            if let Some(&vm) = opted_out.first() {
                let names: Vec<String> = vms.iter().map(|v| v.to_string()).collect();
                findings.push(
                    AuditFinding::error(
                        Rule::FleetSharedCore,
                        format!(
                            "core shared by {} but {} tenant(s) never opted into temporal sharing",
                            names.join(", "),
                            opted_out.len()
                        ),
                    )
                    .vm(vm)
                    .core(core),
                );
            }
        }

        // FLEET-FREE: the free set must mirror `users == 0 && !faulted`
        // exactly — a faulted core is pinned occupied regardless of users.
        let free = hv.free_set();
        let mut truly_free: Vec<NodeId> = Vec::new();
        for core in 0..n as u32 {
            let faulted = hv.core_faulted(core);
            let vacant = users[core as usize] == 0 && !faulted;
            if vacant {
                truly_free.push(NodeId(core));
            }
            if free.contains(NodeId(core)) != vacant {
                findings.push(
                    AuditFinding::error(
                        Rule::FleetFreeSetDrift,
                        if vacant {
                            "core has no users but the free set marks it occupied".to_string()
                        } else if faulted {
                            "core is faulted but the free set marks it free".to_string()
                        } else {
                            "core has users but the free set marks it free".to_string()
                        },
                    )
                    .core(core),
                );
            }
        }
        if free.free_count() != truly_free.len() {
            findings.push(AuditFinding::error(
                Rule::FleetFreeSetDrift,
                format!(
                    "free set counts {} cores but {} have zero users",
                    free.free_count(),
                    truly_free.len()
                ),
            ));
        }
        let expected_fp = FreeSet::from_free_nodes(n, &truly_free).fingerprint();
        if free.fingerprint() != expected_fp {
            findings.push(AuditFinding::error(
                Rule::FleetFreeSetDrift,
                format!(
                    "free-set fingerprint {:#x} does not match occupancy fingerprint {:#x}",
                    free.fingerprint(),
                    expected_fp
                ),
            ));
        }

        // FLEET-HBM: allocated bytes must be exactly the tenants' blocks.
        let allocated = hv.hbm_total_bytes() - hv.hbm_free_bytes();
        let tenant_bytes: u64 = hv
            .vnpus()
            .map(|(_, v)| v.memory_blocks().iter().map(|b| b.size).sum::<u64>())
            .sum();
        if allocated != tenant_bytes {
            findings.push(AuditFinding::error(
                Rule::FleetHbmAccounting,
                format!(
                    "buddy allocator holds {allocated} bytes but tenant blocks sum to \
                     {tenant_bytes} — {} byte(s) leaked or double-counted",
                    allocated.abs_diff(tenant_bytes)
                ),
            ));
        }

        // FLEET-DRAIN: maintenance requires an empty chip.
        if sched == ChipSchedState::Drained && hv.vnpu_count() > 0 {
            let mut f = AuditFinding::error(
                Rule::FleetDrainedResidue,
                format!(
                    "chip is drained (under maintenance) but still holds {} tenant(s)",
                    hv.vnpu_count()
                ),
            );
            if let Some((&vm, _)) = hv.vnpus().next() {
                f = f.vm(vm);
            }
            findings.push(f);
        }

        // FAULT-MAP: no live tenant may (still) map a dead core (FLEET-FREE
        // already flags one advertised free). A tenant on a dead core is
        // expected *transiently* while recovery is converging; persisting
        // across audits means recovery stalled.
        for core in hv.faulted_cores() {
            for &vm in owners.get(&core).map_or(&[][..], |o| o.as_slice()) {
                findings.push(
                    AuditFinding::error(
                        Rule::FaultMappedCore,
                        "live tenant still maps a faulted core".to_string(),
                    )
                    .vm(vm)
                    .core(core),
                );
            }
        }

        // FAULT-LINK: a tenant owning an endpoint of a dead link may still
        // route around it, but its traffic terminates in the failed routers —
        // worth surfacing while recovery decides whether to move it.
        for (a, b) in faulted_links {
            for (&vm, v) in hv.vnpus() {
                let nodes = v.mapping().phys_nodes();
                let endpoint = if nodes.contains(&NodeId(a)) {
                    Some(a)
                } else if nodes.contains(&NodeId(b)) {
                    Some(b)
                } else {
                    None
                };
                if let Some(core) = endpoint {
                    findings.push(
                        AuditFinding::warning(
                            Rule::FaultLinkEndpoint,
                            format!("live tenant owns an endpoint of faulted link {a}\u{2013}{b}"),
                        )
                        .vm(vm)
                        .core(core),
                    );
                }
            }
        }

        // The routing pass over this chip's resident tables.
        findings.extend(audit_routing(hv.topology(), &collect_tenant_routes(hv)));

        findings
    }
    /// Audits every chip of a cluster, tagging findings with the chip
    /// index.
    fn audit_cluster(cluster: &Cluster) -> Vec<AuditFinding> {
        let mut findings = Vec::new();
        for i in 0..cluster.chip_count() {
            let sched = cluster
                .drain_state(i)
                .unwrap_or(ChipSchedState::Schedulable);
            findings.extend(
                audit_chip(cluster.chip(i), sched, cluster.machine(i).faulted_links())
                    .into_iter()
                    .map(|f| f.on_chip(i)),
            );
        }
        findings
    }

    /// A small mesh or a core count, sometimes with guest memory,
    /// temporal sharing or NoC isolation.
    fn random_request(rng: &mut Rng) -> VnpuRequest {
        let req = match below(rng, 2) {
            0 => VnpuRequest::mesh(1 + below(rng, 4) as u32, 1 + below(rng, 4) as u32),
            _ => VnpuRequest::cores(1 + below(rng, 6) as u32),
        };
        let req = match below(rng, 3) {
            0 => req.mem_bytes((1 + below(rng, 8) as u64) << 20),
            _ => req,
        };
        req.temporal_sharing(below(rng, 4) == 0)
            .noc_isolation(below(rng, 4) == 0)
    }

    #[test]
    fn flat_fleet_audit_matches_the_btreemap_reference() {
        const CASES: usize = 32;
        const STEPS: usize = 80;
        let rng = &mut Rng::new(0x5EED_2503);
        let defrag: Arc<dyn Defragmenter> = Arc::new(GreedyDefrag::default());
        let mut reached = std::collections::BTreeSet::new();
        let (mut audits, mut chip_reuses, mut mixed_rebuilds, mut redeploys) = (0, 0, 0, 0);
        for case in 0..CASES {
            let mut cluster = Cluster::new(vec![SocConfig::sim(); 3]);
            let mut auditor = FleetAuditor::new();
            let mut live: Vec<ClusterVmId> = Vec::new();
            for step in 0..STEPS {
                // Churn, faults and repairs, reservation residue, drains,
                // and same-VM and cross-chip redeployments.
                let chip = below(rng, 3);
                let core = below(rng, cluster.chip(chip).core_users().len()) as u32;
                let peer = {
                    let topo = cluster.chip(chip).topology();
                    let at = below(rng, topo.degree(NodeId(core)));
                    topo.neighbors(NodeId(core)).nth(at).unwrap().0
                };
                let _ = match below(rng, 15) {
                    0..=3 => cluster
                        .create_on(chip, random_request(rng))
                        .map(|id| live.push(id)),
                    4 => {
                        // One core more than is free: temporal sharing.
                        let cores = cluster.chip(chip).free_core_count() + 1;
                        let req = VnpuRequest::cores(cores).temporal_sharing(true);
                        cluster.create_on(chip, req).map(|id| live.push(id))
                    }
                    5 | 6 if !live.is_empty() => {
                        cluster.destroy(live.swap_remove(below(rng, live.len())))
                    }
                    7 if cluster.chip(chip).core_faulted(core) => {
                        cluster.repair_core(chip, core).map(drop)
                    }
                    7 => cluster.fault_core(chip, core).map(drop),
                    8 if cluster.machine(chip).link_faulted(core, peer) => {
                        cluster.repair_link(chip, core, peer).map(drop)
                    }
                    8 => cluster.fault_link(chip, core, peer).map(drop),
                    9 => cluster.chip_mut(chip).reserve_cores(&[core]),
                    10 => cluster.begin_drain(chip),
                    11 => cluster
                        .complete_drain(chip)
                        .or_else(|_| cluster.undrain(chip)),
                    12 if !live.is_empty() => {
                        let id = live[below(rng, live.len())];
                        let lax = Strategy::similar_topology();
                        cluster.recover_in_place(id, &lax).map(drop)
                    }
                    13 => cluster.defrag_pass(&defrag).map(drop),
                    14 if !live.is_empty() => {
                        let k = below(rng, live.len());
                        cluster
                            .migrate_to_chip(live[k], chip)
                            .map(|(id, _)| live[k] = id)
                    }
                    _ => Ok(()),
                };
                for i in 0..cluster.chip_count() {
                    let live_state = cluster.drain_state(i).unwrap();
                    for sched in [live_state, ChipSchedState::Drained] {
                        let links = || cluster.machine(i).faulted_links();
                        let got = super::audit_chip(cluster.chip(i), sched, links());
                        let want = audit_chip(cluster.chip(i), sched, links());
                        assert_eq!(got, want, "case {case}, step {step}, chip {i}");
                        reached.extend(got.iter().map(|f| f.rule));
                        audits += 1;
                    }
                }
                let before: Vec<Vec<(VmId, u64)>> =
                    auditor.chips.iter().map(|m| m.key.clone()).collect();
                let got = auditor.audit(&cluster);
                assert_eq!(got, audit_cluster(&cluster), "case {case}, step {step}");
                // What the memo had to work with, chip by chip: the same
                // tenants as last audit, or kept tenants beside new ones.
                for (old, memo) in before.iter().zip(&auditor.chips) {
                    let kept = memo.key.iter().filter(|k| old.contains(k)).count();
                    chip_reuses += usize::from(!old.is_empty() && memo.key == *old);
                    mixed_rebuilds += usize::from(kept > 0 && kept < memo.key.len());
                    let moved = |&(vm, stamp): &(VmId, u64)| {
                        old.iter().any(|&(o, s)| o == vm && s != stamp)
                    };
                    redeploys += memo.key.iter().filter(|k| moved(k)).count();
                }
            }
        }
        for rule in [
            Rule::FleetCoreOwnership,
            Rule::FleetSharedCore,
            Rule::FleetDrainedResidue,
            Rule::FaultMappedCore,
            Rule::FaultLinkEndpoint,
            Rule::RouteIsolationLeak,
        ] {
            assert!(reached.contains(&rule), "{rule} never reached: {reached:?}");
        }
        assert!(
            chip_reuses > 0 && mixed_rebuilds > 0 && redeploys > 0,
            "memo reuse not exercised: {chip_reuses} whole-chip reuses, \
             {mixed_rebuilds} chips rebuilt beside a kept tenant, {redeploys} same-VM \
             redeployments"
        );
        println!(
            "fleet campaign: {audits} chip audits and {} cluster audits, identical \
             findings; rules reached {reached:?}; the memo reused {chip_reuses} whole \
             chips and kept tenants on {mixed_rebuilds} rebuilt ones, over \
             {redeploys} same-VM redeployments",
            CASES * STEPS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::VnpuRequest;
    use vnpu_sim::SocConfig;
    use vnpu_topo::{NodeId, Strategy};

    fn rules(findings: &[AuditFinding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    fn busy_chip() -> Hypervisor {
        let mut hv = Hypervisor::new(SocConfig::sim());
        hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        hv.create_vnpu(VnpuRequest::mesh(3, 2).mem_bytes(32 << 20))
            .unwrap();
        hv.create_vnpu(VnpuRequest::cores(1)).unwrap();
        hv
    }

    #[test]
    fn healthy_chip_audits_clean() {
        let findings = audit_chip(&busy_chip(), ChipSchedState::Schedulable, []);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn chip_stays_clean_across_churn() {
        let mut hv = busy_chip();
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        hv.destroy_vnpu(vm).unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn temporal_sharing_tenants_do_not_trip_the_share_rule() {
        let mut hv = Hypervisor::new(SocConfig::sim());
        // Fill the chip, then over-provision with temporal sharing.
        let (w, h) = {
            let s = hv.topology().mesh_shape().unwrap();
            (s.width, s.height)
        };
        hv.create_vnpu(VnpuRequest::mesh(w, h)).unwrap();
        hv.create_vnpu(VnpuRequest::mesh(2, 2).temporal_sharing(true))
            .unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        // The exclusive first tenant shares cores with the opted-in
        // second: that is exactly a broken exclusivity promise.
        assert!(
            rules(&findings).contains(&Rule::FleetSharedCore),
            "{findings:?}"
        );
        // But two tenants that BOTH opted in are fine.
        let mut hv2 = Hypervisor::new(SocConfig::sim());
        hv2.create_vnpu(VnpuRequest::mesh(w, h).temporal_sharing(true))
            .unwrap();
        hv2.create_vnpu(VnpuRequest::mesh(2, 2).temporal_sharing(true))
            .unwrap();
        let findings = audit_chip(&hv2, ChipSchedState::Schedulable, []);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reserved_cores_surface_as_ownership_findings() {
        let mut hv = Hypervisor::new(SocConfig::sim());
        hv.reserve_cores(&[0, 1]).unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        let own: Vec<&AuditFinding> = findings
            .iter()
            .filter(|f| f.rule == Rule::FleetCoreOwnership)
            .collect();
        assert_eq!(own.len(), 2, "{findings:?}");
        assert_eq!(own[0].core, Some(0));
        assert_eq!(own[1].core, Some(1));
    }

    #[test]
    fn drained_residue_is_flagged() {
        let hv = busy_chip();
        let findings = audit_chip(&hv, ChipSchedState::Drained, []);
        assert!(
            rules(&findings).contains(&Rule::FleetDrainedResidue),
            "{findings:?}"
        );
        // The same tenants on a merely *draining* chip are fine.
        let findings = audit_chip(&hv, ChipSchedState::Draining, []);
        assert!(
            !rules(&findings).contains(&Rule::FleetDrainedResidue),
            "{findings:?}"
        );
    }

    #[test]
    fn cluster_audit_tags_the_chip() {
        let mut cluster = Cluster::new(vec![SocConfig::sim(), SocConfig::sim()]);
        cluster.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
        cluster.begin_drain(1).unwrap();
        // Force the drained state with residue by auditing chip 1 as
        // drained directly through the cluster path: drain it for real.
        let findings = audit_cluster(&cluster);
        assert!(
            findings.is_empty(),
            "draining with tenants is legal: {findings:?}"
        );
    }

    #[test]
    fn fleet_auditor_accepts_monotone_generations() {
        let mut cluster = Cluster::new(vec![SocConfig::sim()]);
        let mut auditor = FleetAuditor::new();
        assert!(auditor.audit(&cluster).is_empty());
        let id = cluster.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert!(auditor.audit(&cluster).is_empty());
        cluster.destroy(id).unwrap();
        assert!(auditor.audit(&cluster).is_empty());
    }

    #[test]
    fn warm_memo_still_flags_accounting_drift_and_new_route_leaks() {
        // Faults pin every free core outside `keep` while `op` runs, so
        // what it places lands on `keep`; the repairs then free them.
        fn pinned<T>(cl: &mut Cluster, keep: &[u32], op: impl FnOnce(&mut Cluster) -> T) -> T {
            let free = cl.chip(0).free_set();
            let pins: Vec<u32> = (0..36)
                .filter(|&c| !keep.contains(&c) && free.contains(NodeId(c)))
                .collect();
            for &c in &pins {
                cl.fault_core(0, c).unwrap();
            }
            let out = op(cl);
            for &c in &pins {
                cl.repair_core(0, c).unwrap();
            }
            out
        }
        let mut cl = Cluster::new(vec![SocConfig::sim()]);
        let mut auditor = FleetAuditor::new();
        let iso = VnpuRequest::mesh(2, 2).noc_isolation(true);
        pinned(&mut cl, &[14, 15, 20, 21], |cl| {
            cl.create_on(0, iso).unwrap()
        });
        assert!(auditor.audit(&cl).is_empty());
        let cached = auditor.chips[0].key.clone();
        // A reservation moves no stamp: the chip's routing is reused, and
        // the fresh accounting half still flags the residue.
        cl.chip_mut(0).reserve_cores(&[0]).unwrap();
        let findings = auditor.audit(&cl);
        assert_eq!(auditor.chips[0].key, cached);
        assert_eq!(findings, audit_cluster(&cl));
        assert_eq!(rules(&findings), [Rule::FleetCoreOwnership]);
        // A DOR tenant on the arch 13-7-8-9-10-16 over the cached isolated
        // tenant routes its ends X first, over the isolated links between
        // 14 and 15: a finding each way.
        let arch = [13, 7, 8, 9, 10, 16];
        let dor = pinned(&mut cl, &arch, |cl| {
            cl.create_on(0, VnpuRequest::mesh(6, 1)).unwrap()
        });
        let findings = auditor.audit(&cl);
        assert_eq!(
            auditor.chips[0].key[0], cached[0],
            "the isolated entry is kept"
        );
        assert_eq!(findings, audit_cluster(&cl));
        let leaks = findings
            .iter()
            .filter(|f| f.rule == Rule::RouteIsolationLeak);
        let links: Vec<&str> = leaks
            .filter_map(|f| f.detail.split(" carries").next())
            .collect();
        assert_eq!(
            links,
            ["link p14\u{2192}p15", "link p15\u{2192}p14"],
            "{findings:?}"
        );
        // Remapped off a dead core of the arch onto the bottom row, the
        // same VM no longer crosses the isolated tenant: with the tenant
        // count unchanged, its new stamp alone must drop the leaks.
        cl.fault_core(0, 7).unwrap();
        pinned(&mut cl, &[30, 31, 32, 33, 34, 35], |cl| {
            cl.recover_in_place(dor, &Strategy::similar_topology())
                .unwrap()
        });
        cl.repair_core(0, 7).unwrap();
        let findings = auditor.audit(&cl);
        assert_eq!(findings, audit_cluster(&cl));
        assert_eq!(rules(&findings), [Rule::FleetCoreOwnership]);
    }

    #[test]
    fn faulted_cores_surface_map_and_free_findings() {
        let mut hv = Hypervisor::new(SocConfig::sim());
        let vm = hv.create_vnpu(VnpuRequest::mesh(2, 2)).unwrap();
        let owned = hv.vnpu(vm).unwrap().mapping().phys_nodes()[0].0;
        // Fault an *owned* core: the tenant still maps it → FAULT-MAP,
        // but the free set stays consistent (no FLEET-FREE).
        hv.set_core_faulted(owned, true).unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        assert_eq!(
            rules(&findings),
            vec![Rule::FaultMappedCore],
            "{findings:?}"
        );
        assert_eq!(findings[0].vm, Some(vm));
        assert_eq!(findings[0].core, Some(owned));
        // After the tenant leaves, the dead core must stay masked; the
        // hypervisor holds it occupied, so the audit is clean again.
        hv.destroy_vnpu(vm).unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        assert!(findings.is_empty(), "{findings:?}");
        // Repair: fully healthy.
        hv.set_core_faulted(owned, false).unwrap();
        let findings = audit_chip(&hv, ChipSchedState::Schedulable, []);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn faulted_link_endpoint_is_a_warning() {
        let mut cl = Cluster::new(vec![SocConfig::sim()]);
        let id = cl.create_on(0, VnpuRequest::mesh(2, 1)).unwrap();
        let nodes: Vec<u32> = cl
            .chip(0)
            .vnpu(id.vm)
            .unwrap()
            .mapping()
            .phys_nodes()
            .iter()
            .map(|n| n.0)
            .collect();
        let audit = |cl: &Cluster| {
            audit_chip(
                cl.chip(0),
                ChipSchedState::Schedulable,
                cl.machine(0).faulted_links(),
            )
        };
        cl.fault_link(0, nodes[0], nodes[1]).unwrap();
        let findings = audit(&cl);
        let hits: Vec<&AuditFinding> = findings
            .iter()
            .filter(|f| f.rule == Rule::FaultLinkEndpoint)
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].severity, crate::Severity::Warning);
        assert_eq!(hits[0].vm, Some(id.vm));
        // A faulted link nobody touches reports nothing.
        cl.repair_link(0, nodes[0], nodes[1]).unwrap();
        cl.fault_link(0, 34, 35).unwrap();
        let findings = audit(&cl);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
