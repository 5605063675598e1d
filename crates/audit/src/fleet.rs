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
//! every chip, and [`FleetAuditor`] is the same sweep as a value.
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

use crate::routing::{audit_routing, collect_tenant_routes};
use crate::{AuditFinding, Rule};
use vnpu::cluster::Cluster;
use vnpu::drain::ChipSchedState;
use vnpu::{Hypervisor, VmId};
use vnpu_topo::{FreeSet, NodeId};

/// Audits one chip's resource-accounting invariants. `sched` is the
/// chip's drain-lifecycle state (pass [`ChipSchedState::Schedulable`]
/// for a standalone hypervisor) and `faulted_links` the dead links its
/// machine records (none for a standalone hypervisor, which has no
/// links). Findings carry no chip index — the cluster-level entry
/// points tag it.
pub fn audit_chip(
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

    // The routing pass over this chip's resident tables.
    findings.extend(audit_routing(hv.topology(), &collect_tenant_routes(hv)));

    findings
}

/// Audits every chip of a cluster, tagging findings with the chip
/// index.
pub fn audit_cluster(cluster: &Cluster) -> Vec<AuditFinding> {
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

/// The fleet audit as a value: [`audit_cluster`], nothing more. A chip's
/// topology generation needs no cross-audit check — its one writer, the
/// cluster, copies the machine's hash chain, which never returns to 0
/// and repeats a value only on a 64-bit collision.
#[derive(Debug, Default, Clone, Copy)]
pub struct FleetAuditor;

impl FleetAuditor {
    /// An auditor.
    pub fn new() -> Self {
        FleetAuditor
    }

    /// Runs the full fleet audit.
    pub fn audit(&self, cluster: &Cluster) -> Vec<AuditFinding> {
        audit_cluster(cluster)
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
    use vnpu::cluster::ClusterVmId;
    use vnpu::VnpuRequest;
    use vnpu_mem::proptest_lite::Rng;
    use vnpu_sim::SocConfig;

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
        let mut reached = std::collections::BTreeSet::new();
        let mut audits = 0;
        for case in 0..CASES {
            let mut cluster = Cluster::new(vec![SocConfig::sim(); 3]);
            let auditor = FleetAuditor::new();
            let mut live: Vec<ClusterVmId> = Vec::new();
            for step in 0..STEPS {
                // Churn, faults and repairs, reservation residue, drains.
                let chip = below(rng, 3);
                let core = below(rng, cluster.chip(chip).core_users().len()) as u32;
                let next = cluster.chip(chip).topology().neighbors(NodeId(core));
                let peer = next[below(rng, next.len())].0;
                let _ = match below(rng, 12) {
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
                    _ => cluster
                        .complete_drain(chip)
                        .or_else(|_| cluster.undrain(chip)),
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
                let got = auditor.audit(&cluster);
                assert_eq!(got, audit_cluster(&cluster), "case {case}, step {step}");
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
        println!(
            "fleet campaign: {audits} chip audits and {} cluster audits, identical \
             findings; rules reached {reached:?}",
            CASES * STEPS
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnpu::VnpuRequest;
    use vnpu_sim::SocConfig;

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
        let auditor = FleetAuditor::new();
        assert!(auditor.audit(&cluster).is_empty());
        let id = cluster.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
        assert!(auditor.audit(&cluster).is_empty());
        cluster.destroy(id).unwrap();
        assert!(auditor.audit(&cluster).is_empty());
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
