//! Cross-crate integration tests for the cluster layer: multi-chip
//! placement determinism, shared-mapping-cache isolation across
//! heterogeneous chips, and the step-driven serve loop over a fleet.

use std::sync::Arc;
use vnpu::admission::{Backfill, SmallestFirst};
use vnpu::cluster::{
    BestFitFragmentation, ChipPlacement, Cluster, ClusterAdmissionOutcome, ClusterVmId, FirstFit,
    LeastLoaded,
};
use vnpu::drain::ChipSchedState;
use vnpu::{Hypervisor, VnpuRequest};
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;
use vnpu_topo::cache::FreeSet;
use vnpu_topo::mapping::Mapper;
use vnpu_topo::NodeId;

fn small_soc() -> SocConfig {
    SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    }
}

fn hetero_cluster() -> Cluster {
    Cluster::new(vec![SocConfig::sim(), small_soc()])
}

/// The deterministic request mix used by the placement-trace tests.
fn request_mix(i: u64) -> VnpuRequest {
    match i % 5 {
        0 => VnpuRequest::mesh(2, 2).mem_bytes(32 << 20),
        1 => VnpuRequest::mesh(2, 3).mem_bytes(64 << 20),
        2 => VnpuRequest::mesh(3, 3).mem_bytes(48 << 20),
        3 => VnpuRequest::cores(5).mem_bytes(16 << 20),
        _ => VnpuRequest::mesh(1, 2).mem_bytes(24 << 20),
    }
}

/// Runs a fixed create/destroy script against a fresh cluster and
/// returns the full placement trace (chip + physical cores per request).
fn placement_trace(placement: Arc<dyn ChipPlacement>) -> Vec<(usize, Vec<u32>)> {
    let mut cl = hetero_cluster();
    cl.set_placement(placement);
    let mut trace = Vec::new();
    let mut live: Vec<ClusterVmId> = Vec::new();
    for i in 0..60u64 {
        cl.submit(request_mix(i));
        for ev in cl.process_admissions() {
            if let ClusterAdmissionOutcome::Admitted(id) = ev.outcome {
                let cores: Vec<u32> = cl
                    .vnpu(id)
                    .unwrap()
                    .mapping()
                    .phys_nodes()
                    .iter()
                    .map(|n| n.0)
                    .collect();
                trace.push((id.chip, cores));
                live.push(id);
            }
        }
        // Deterministic churn: every third step retires the oldest.
        if i % 3 == 2 && !live.is_empty() {
            let id = live.remove(0);
            cl.destroy(id).unwrap();
        }
    }
    for id in live {
        cl.destroy(id).unwrap();
    }
    assert_eq!(cl.free_cores(), cl.total_cores(), "no leaked cores");
    trace
}

#[test]
fn first_fit_placement_trace_is_deterministic() {
    let a = placement_trace(Arc::new(FirstFit));
    let b = placement_trace(Arc::new(FirstFit));
    assert_eq!(a, b, "same script, same policy: identical placements");
    assert!(!a.is_empty());
}

#[test]
fn swapping_placement_changes_distribution_not_determinism() {
    let first_fit = placement_trace(Arc::new(FirstFit));
    let least_loaded = placement_trace(Arc::new(LeastLoaded));
    let least_loaded2 = placement_trace(Arc::new(LeastLoaded));
    assert_eq!(least_loaded, least_loaded2, "each policy is deterministic");
    let on_chip1 = |t: &[(usize, Vec<u32>)]| t.iter().filter(|(c, _)| *c == 1).count();
    assert_ne!(
        on_chip1(&first_fit),
        on_chip1(&least_loaded),
        "policies must distribute placements differently"
    );
}

#[test]
fn shared_cache_never_serves_hits_across_heterogeneous_chips() {
    // Alternate identical requests across a 6x6 and a 4x4 chip on idle
    // free regions: with distinct phys_keys the shared cache must keep
    // the chips apart, and every placement must be byte-identical to the
    // chip's own uncached mapping (a cross-chip leak would hand the 4x4
    // chip a 6x6 placement with out-of-range or misrouted cores).
    let mut cl = hetero_cluster();
    for round in 0..3 {
        let mut ids = Vec::new();
        for chip in 0..2 {
            let req = VnpuRequest::mesh(2, 2).mem_bytes(32 << 20);
            let id = cl.create_on(chip, req).unwrap();
            ids.push(id);
        }
        for id in ids {
            let hv = cl.chip(id.chip);
            let placed: Vec<NodeId> = cl.vnpu(id).unwrap().mapping().phys_nodes().to_vec();
            // Recompute directly on this chip's topology with the same
            // free region (the vNPU's own cores released first).
            let mut free = FreeSet::from_free_nodes(
                hv.config().core_count() as usize,
                &hv.free_cores()
                    .iter()
                    .map(|&c| NodeId(c))
                    .collect::<Vec<_>>(),
            );
            free.release_all(&placed);
            let direct = Mapper::new(hv.topology())
                .map_in(
                    &free,
                    cl.vnpu(id).unwrap().virt_topology(),
                    &vnpu_topo::mapping::Strategy::similar_topology(),
                )
                .unwrap();
            assert_eq!(
                direct.phys_nodes(),
                placed.as_slice(),
                "round {round}: {id} placement must equal the chip-local mapping"
            );
            for n in &placed {
                assert!(
                    n.0 < cl.chip(id.chip).config().core_count(),
                    "{id}: core {n} outside its chip"
                );
            }
        }
        // Identical chips would have shared; heterogeneous must not:
        // after round 0 each chip legitimately hits its *own* entry (two
        // hits per later round), and nothing more.
        assert_eq!(
            cl.cache_stats().hits,
            2 * round,
            "round {round}: no cross-chip hit may occur"
        );
        for id in [0, 1] {
            let vms: Vec<_> = cl.chip(id).vnpus().map(|(vm, _)| *vm).collect();
            for vm in vms {
                cl.destroy(ClusterVmId { chip: id, vm }).unwrap();
            }
        }
    }
}

#[test]
fn cluster_serve_runs_are_deterministic_with_first_fit() {
    let cfg = || {
        let mut c = ServeConfig::cluster(31, 60, vec![SocConfig::sim(), small_soc()]);
        c.traffic.candidate_cap = 200;
        c
    };
    let a = ServeRuntime::new(cfg()).run().unwrap();
    let b = ServeRuntime::new(cfg()).run().unwrap();
    assert_eq!(a, b, "seeded cluster runs must reproduce exactly");
    assert_eq!(a.per_chip.len(), 2);
    assert_eq!(a.leaked_cores, 0);
    assert_eq!(a.leaked_hbm_bytes, 0);
    assert!(a.accepted > 0);
}

#[test]
fn serve_placement_policy_moves_load_between_chips_not_arrivals() {
    // A thousand requests over the 6x6 + 4x4 fleet under each policy.
    let run = |placement: Arc<dyn ChipPlacement>| {
        let mut c = ServeConfig::cluster(0xC105_7E12, 1_300, vec![SocConfig::sim(), small_soc()]);
        c.traffic.candidate_cap = 200;
        c.traffic.mean_interarrival_ticks = 1;
        c.placement = placement;
        ServeRuntime::new(c).run().unwrap()
    };
    let (first_fit, least_loaded) = (run(Arc::new(FirstFit)), run(Arc::new(LeastLoaded)));
    assert!(first_fit.submitted >= 1_000, "{}", first_fit.submitted);
    assert_eq!(
        first_fit.submitted, least_loaded.submitted,
        "placement policy must not perturb the arrival stream"
    );
    for r in [&first_fit, &least_loaded] {
        assert!(
            r.per_chip.iter().all(|c| c.accepted > 0),
            "under load both chips serve: {:?}",
            r.per_chip
        );
    }
    assert!(
        least_loaded.per_chip[1].accepted > first_fit.per_chip[1].accepted,
        "least-loaded must push more tenants onto the second chip ({} vs {})",
        least_loaded.per_chip[1].accepted,
        first_fit.per_chip[1].accepted
    );
}

#[test]
fn step_driven_cluster_loop_with_policy_swaps_matches_itself() {
    let cfg = || {
        let mut c = ServeConfig::cluster(13, 0, vec![SocConfig::sim(), small_soc()]);
        c.traffic.candidate_cap = 200;
        c
    };
    let drive = || {
        let mut rt = ServeRuntime::new(cfg());
        for _ in 0..30 {
            rt.step().unwrap();
        }
        rt.set_admission_policy(Arc::new(Backfill));
        rt.set_placement(Arc::new(BestFitFragmentation));
        for _ in 0..30 {
            rt.step().unwrap();
        }
        rt.set_admission_policy(Arc::new(SmallestFirst));
        for _ in 0..20 {
            rt.step().unwrap();
        }
        rt.drain().unwrap();
        rt.report()
    };
    let a = drive();
    let b = drive();
    assert_eq!(a, b, "policy swaps at epoch boundaries stay deterministic");
    assert_eq!(a.leaked_cores, 0);
    assert_eq!(a.leaked_hbm_bytes, 0);
    assert_eq!(a.epochs, 80);
}

#[test]
fn identical_chip_models_share_mapping_work() {
    // The shared cache is the point of the cluster: two chips of the
    // same model hit each other's entries for identical (request, free
    // region) tuples.
    let mut cl = Cluster::new(vec![SocConfig::sim(), SocConfig::sim()]);
    cl.create_on(0, VnpuRequest::mesh(3, 3)).unwrap();
    cl.create_on(1, VnpuRequest::mesh(3, 3)).unwrap();
    let stats = cl.cache_stats();
    assert_eq!(stats.misses, 1, "only the first placement maps");
    assert_eq!(stats.hits, 1, "the twin chip reuses it");
}

#[test]
fn reconfig_on_one_chip_does_not_invalidate_the_fleet() {
    let mut cl = Cluster::new(vec![SocConfig::sim(), SocConfig::sim()]);
    let a = cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
    cl.destroy(a).unwrap();
    let b = cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
    cl.destroy(b).unwrap();
    let hits_before = cl.cache_stats().hits;
    cl.chip_mut(0).bump_topology_generation();
    // Chip 0 must re-map; chip 1 must still hit.
    cl.create_on(0, VnpuRequest::mesh(2, 2)).unwrap();
    assert_eq!(cl.cache_stats().hits, hits_before);
    cl.create_on(1, VnpuRequest::mesh(2, 2)).unwrap();
    assert_eq!(cl.cache_stats().hits, hits_before + 1);
}

#[test]
fn heterogeneous_hypervisors_with_custom_hbm() {
    // with_chips accepts pre-built hypervisors with per-chip HBM sizes.
    let cl = Cluster::with_chips(vec![
        Hypervisor::with_hbm_bytes(SocConfig::sim(), 8 << 30),
        Hypervisor::with_hbm_bytes(small_soc(), 2 << 30),
    ]);
    assert_eq!(cl.chip_count(), 2);
    assert_eq!(cl.chip(0).hbm_total_bytes(), 8 << 30);
    assert_eq!(cl.chip(1).hbm_total_bytes(), 2 << 30);
    assert_eq!(cl.total_cores(), 36 + 16);
}

#[test]
fn fleet_fit_hint_skips_drained_chips_and_recovers_on_undrain() {
    // Satellite coverage: under a partial drain the fleet hint must
    // never advertise a window on the unschedulable chip, and the hint
    // cache must not replay pre-drain exhaustion proofs once the chip
    // comes back bigger.
    let mut cl = hetero_cluster(); // chip 0: 6x6 (36), chip 1: 4x4 (16)
    assert_eq!(
        cl.fit_hint().map(|h| h.cores),
        Some(36),
        "idle fleet: the big chip's full window is the hint"
    );
    // Load chip 0 down to a small window, so its pre-drain hints (and
    // exhaustion proofs for everything larger) enter the hint cache.
    let resident = cl.create_on(0, VnpuRequest::mesh(6, 5)).unwrap(); // 6 free
    let pre_drain = cl.fit_hint().expect("something still fits");
    assert!(pre_drain.cores <= 16, "chip 1's idle window wins now");

    cl.begin_drain(0).unwrap();
    let during = cl.fit_hint().expect("chip 1 is still schedulable");
    assert!(
        during.cores <= 16,
        "a draining chip's window must never be advertised: {during:?}"
    );
    // Fill chip 1 almost completely: the only remaining fleet hint is
    // tiny — and must still never name drained chip 0's 6-core island.
    let filler = cl.create_on(1, VnpuRequest::mesh(4, 3)).unwrap();
    let tiny = cl.fit_hint().expect("4 cores remain on chip 1");
    assert!(
        tiny.cores <= 4,
        "the hint is bounded by the schedulable chip: {tiny:?}"
    );

    // Evacuate chip 0 (its tenant is too big for chip 1, so destroy it —
    // an operator cancelling the tenant — and complete the drain).
    cl.destroy(resident).unwrap();
    cl.complete_drain(0).unwrap();
    assert_eq!(cl.fit_hint().map(|h| h.cores), Some(4), "still masked");

    // Hand the chip back: the fleet hint must immediately reflect the
    // *post-drain* free region (36 cores), not any pre-drain proof that
    // only 6 cores fit there.
    cl.undrain(0).unwrap();
    assert_eq!(
        cl.fit_hint().map(|h| h.cores),
        Some(36),
        "undrain restores the full window — stale exhaustion proofs must not shadow it"
    );
    cl.destroy(filler).unwrap();
    assert_eq!(cl.free_cores(), cl.total_cores(), "no leaks");
}

#[test]
fn serve_runtime_rejections_carry_no_drained_chip_hints() {
    // A serving fleet with one chip draining: every fit hint attached to
    // a rejection (and every probe of the fleet hint) stays within the
    // schedulable chips' capacity.
    let mut cfg = ServeConfig::cluster(31, 60, vec![SocConfig::sim(), small_soc()]);
    cfg.traffic.candidate_cap = 200;
    let mut rt = ServeRuntime::new(cfg);
    for _ in 0..10 {
        rt.step().unwrap();
    }
    rt.begin_drain(0).unwrap();
    for _ in 0..50 {
        let ev = rt.step().unwrap();
        assert!(
            ev.admitted.iter().all(|id| id.chip != 0),
            "no placement may land on the draining chip"
        );
        for (_, hint) in &ev.rejected {
            if let Some(h) = hint {
                assert!(
                    h.cores <= 16,
                    "a rejection hint must not advertise the draining 6x6 chip: {h:?}"
                );
            }
        }
        if let Some(h) = rt.fleet_fit_hint() {
            assert!(h.cores <= 16, "fleet probe must skip the draining chip");
        }
    }
    rt.drain().unwrap();
    let r = rt.report();
    assert_eq!(r.leaked_cores, 0);
    assert_eq!(r.leaked_hbm_bytes, 0);
    assert_eq!(
        r.per_chip[0].sched,
        ChipSchedState::Draining,
        "chip 0 still draining at report"
    );
}

#[test]
fn fit_hints_and_snapshots_exclude_faulted_cores() {
    // Satellite coverage for the fault layer: a dead core must vanish
    // from every capacity surface — the chip snapshot, `fits`, the
    // fleet fit hint and its cache — and come back whole on repair.
    let mut cl = hetero_cluster(); // chip 0: 6x6 (36), chip 1: 4x4 (16)
    assert_eq!(
        cl.fit_hint().map(|h| h.cores),
        Some(36),
        "idle fleet: the big chip's full window is the hint"
    );

    // A whole row of chip 0 dies. Every surface must shrink at once.
    for core in 6..12 {
        assert!(cl.fault_core(0, core).unwrap(), "fresh fault");
    }
    let snap = cl.snapshot_of(0);
    assert_eq!(snap.faulted_cores, 6, "the snapshot names the dead row");
    assert_eq!(snap.free_cores, 30, "dead cores are not free");
    assert!(
        snap.largest_free_component <= 30,
        "dead cores are not reachable free capacity"
    );
    assert!(
        !snap.fits_raw(31, 0, false),
        "a spatial request larger than the healthy region must not fit"
    );
    assert!(
        !snap.fits_raw(31, 0, true),
        "dead cores cannot be time-shared either"
    );
    assert!(snap.fits_raw(30, 0, false), "the healthy region still fits");
    let wounded = cl.fit_hint().expect("the fleet still has windows");
    assert!(
        wounded.cores <= 30,
        "no hint may advertise dead capacity: {wounded:?}"
    );

    // Placement respects the mask: a 6x6 mesh no longer fits anywhere.
    assert!(
        cl.create_on(0, VnpuRequest::mesh(6, 6)).is_err(),
        "the full-chip request must bounce off the faulted row"
    );

    // Repair restores the full window immediately — fault-era
    // exhaustion proofs must not shadow the healed capacity.
    for core in 6..12 {
        assert!(cl.repair_core(0, core).unwrap(), "fresh repair");
    }
    assert_eq!(cl.snapshot_of(0).faulted_cores, 0);
    assert_eq!(
        cl.fit_hint().map(|h| h.cores),
        Some(36),
        "repair restores the full window"
    );
    let healed = cl.create_on(0, VnpuRequest::mesh(6, 6)).unwrap();
    cl.destroy(healed).unwrap();
    assert_eq!(cl.free_cores(), cl.total_cores(), "no leaks");
}

/// `Aging`'s documented bounded-wait guarantee, proved against an
/// adversarial arrival stream: a full-chip request stuck behind an
/// endless supply of fresh small requests (each tick one small tenant
/// departs and a new small request arrives to eat the freed slot) must
/// still admit within the documented bound. With
/// `boost_per_attempt = b` the large request overtakes `s`-core rivals
/// after at most `ceil((L - s) / b)` failed attempts (its effective
/// size then sorts ahead); once past `reserve_after_attempts` every
/// further failure blocks the tick, so each departure accrues to the
/// head instead of the fresh arrivals — at most one tick per resident
/// small tenant until the chip is clear. Bound:
/// `ceil((L - s) / b) + residents + 1` ticks from submission.
#[test]
fn aging_bounds_large_request_wait_under_adversarial_small_stream() {
    use vnpu::admission::Aging;

    let mut cl = Cluster::new(vec![SocConfig::sim()]); // 6x6 = 36 cores
    cl.set_admission_policy(Arc::new(Aging {
        boost_per_attempt: 4,
        reserve_after_attempts: 6,
    }));
    cl.set_max_attempts(None); // starvation must resolve, not time out

    // Fill the chip with nine 4-core tenants.
    let mut live_smalls: Vec<ClusterVmId> = Vec::new();
    for _ in 0..9 {
        cl.submit(VnpuRequest::mesh(2, 2));
    }
    for ev in cl.process_admissions() {
        match ev.outcome {
            ClusterAdmissionOutcome::Admitted(id) => live_smalls.push(id),
            ClusterAdmissionOutcome::Rejected(_) => panic!("fill must admit"),
        }
    }
    assert_eq!(live_smalls.len(), 9, "the chip starts full");

    // The starving giant arrives — nothing is free, the first attempt
    // fails silently (deferred, not rejected: no attempt cap is set).
    let big = cl.submit(VnpuRequest::mesh(6, 6));
    assert!(
        cl.process_admissions().is_empty(),
        "a deferred attempt emits no event"
    );

    // Adversarial churn: every tick one small departs and a fresh small
    // arrives to snatch the freed slot.
    let bound = (36u64 - 4).div_ceil(4) + 9 + 1;
    let mut admitted_at = None;
    for tick in 1..=2 * bound {
        if let Some(id) = live_smalls.pop() {
            cl.destroy(id).unwrap();
        }
        cl.submit(VnpuRequest::mesh(2, 2));
        for ev in cl.process_admissions() {
            match ev.outcome {
                ClusterAdmissionOutcome::Admitted(id) if ev.id == big => {
                    let _ = id;
                    admitted_at = Some(tick);
                }
                ClusterAdmissionOutcome::Admitted(id) => live_smalls.push(id),
                ClusterAdmissionOutcome::Rejected(_) => {
                    panic!("no request may be rejected without an attempt cap")
                }
            }
        }
        if admitted_at.is_some() {
            break;
        }
    }
    let waited = admitted_at.expect("the large request must eventually admit");
    assert!(
        waited <= bound,
        "head-of-line reservation must resolve within {bound} ticks, took {waited}"
    );
}

/// FNV-1a over 64-bit words / bytes: a hash this file owns, so the pinned
/// constants below move only when the serve loop's outputs do.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// An absolute pin on everything one serve run publishes: the report
/// JSON, the trace stream's length and a fold over every event's `{:?}`
/// text. The scenario turns every reconfiguration layer on at once —
/// churn over a heterogeneous 4-chip fleet, defrag every 4 ticks, seeded
/// core faults plus a link fault, one begin/complete/undrain maintenance
/// cycle, the fleet audit, the online temporal checker and trace
/// recording. The constants were captured at the commit *before* the
/// serve loop was restructured into phase units (the trace fold later,
/// from the same unchanged run); a refactor of the loop must reproduce
/// them bit for bit.
#[test]
fn serve_outputs_are_pinned_across_refactors() {
    use vnpu::plan::GreedyDefrag;
    use vnpu_fault::FaultPlan;
    let socs = vec![
        SocConfig::sim(),
        SocConfig::sim(),
        small_soc(),
        SocConfig::sim(),
    ];
    let cores: Vec<u32> = socs.iter().map(SocConfig::core_count).collect();
    let mut cfg = ServeConfig::cluster(29, 320, socs);
    cfg.traffic.candidate_cap = 200;
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 40;
    cfg.max_attempts = Some(6);
    cfg.drain_budget.max_migrations = 2;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
    cfg.defrag_interval = 4;
    cfg.fault_plan =
        FaultPlan::seeded(29, &cores, 10, 300, Some(25)).link_fault(1, 14, 15, 60, Some(110));
    cfg.audit = true;
    cfg.temporal = true;
    cfg.record_trace = true;
    let mut rt = ServeRuntime::new(cfg);
    let (mut drained_at, mut completed_at) = (None, None);
    while rt.tick_index() < 320 {
        let tick = rt.tick_index();
        if tick == 120 {
            rt.begin_drain(0).unwrap();
            drained_at = Some(tick);
        }
        if drained_at.is_some() && completed_at.is_none() && rt.cluster().chip(0).vnpu_count() == 0
        {
            rt.complete_drain(0).unwrap();
            completed_at = Some(tick);
        }
        if completed_at.is_some_and(|t| tick == t + 10) {
            rt.undrain(0).unwrap();
        }
        rt.step().unwrap();
    }
    rt.drain().unwrap();
    assert_eq!(rt.drain_state(0), Ok(ChipSchedState::Schedulable));
    let report = rt.report();
    // The fleet is overloaded on purpose, so every branch of every phase
    // runs: rejections with fit hints, all four recovery resolutions, a
    // budgeted evacuation that stalls (`TEMP-DRAIN` findings) before it
    // completes, and `FaultLinkEndpoint` audit warnings while a tenant
    // sits on the dead link. Their counts are part of the pinned JSON.
    assert!(report.rejected > 0 && report.migrations > 0 && report.drain_migrations > 0);
    assert!(report.recoveries_remapped > 0 && report.recoveries_replaced > 0);
    assert!(report.recoveries_self_healed > 0 && report.tenants_lost > 0);
    assert!(report.audit_findings > 0 && report.temporal_findings > 0);

    let json_hash = fnv1a(report.to_json(usize::MAX).bytes());
    let trace_len = rt.trace().unwrap().len();
    let trace_fold = fnv1a(
        rt.trace()
            .unwrap()
            .iter()
            .flat_map(|e| format!("{e:?}").into_bytes()),
    );
    assert_eq!(
        (json_hash, trace_len, trace_fold),
        (10_639_872_328_804_908_377, 2_890, 3_879_830_810_953_600_063),
        "the serve loop's published outputs moved"
    );
}

/// The same absolute pin on a saturated single 6×6 chip: one arrival a
/// tick living 6 ticks at candidate cap 400, so most placements miss the
/// placement cache and fall to the mapper's scored search — 3×3 requests
/// on a fragmented chip take its bipartite (> 8-node) branch and 2-opt
/// refinement. A change to how candidates are scored must leave every
/// placement, and so these constants, unchanged.
#[test]
fn churn_placements_are_pinned() {
    let mut cfg = ServeConfig::cluster(29, 600, vec![SocConfig::sim()]);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 6;
    cfg.traffic.candidate_cap = 400;
    cfg.record_trace = true;
    let mut rt = ServeRuntime::new(cfg);
    while rt.tick_index() < 600 {
        rt.step().unwrap();
    }
    rt.drain().unwrap();
    let report = rt.report();
    assert!(
        report.accepted > 0 && report.queued_at_end > 0,
        "a saturated chip"
    );

    let json_hash = fnv1a(report.to_json(usize::MAX).bytes());
    let trace_len = rt.trace().unwrap().len();
    let trace_fold = fnv1a(
        rt.trace()
            .unwrap()
            .iter()
            .flat_map(|e| format!("{e:?}").into_bytes()),
    );
    assert_eq!(
        (json_hash, trace_len, trace_fold),
        (6_223_482_786_767_537_346, 2_921, 12_904_678_073_205_306_551),
        "the churn run's placements moved"
    );
}

/// The same absolute pin on `reconfig_storm`'s shape: two 6×6 and two
/// 4×4 chips at 1 GiB HBM, least-loaded placement at candidate cap 300,
/// defrag every 4 ticks with one memory move, seeded core faults repaired
/// after 30 ticks, one drain of chip 0, and the audit and temporal checker
/// online. It covers what the other two pins do not: the per-chip hint
/// caches, the defrag probes at cap 300 and the fault remaps. A change to
/// how the mapper searches must leave every placement, and so these
/// constants, unchanged.
#[test]
fn reconfig_placements_are_pinned() {
    use vnpu::plan::GreedyDefrag;
    use vnpu_fault::FaultPlan;
    let socs = vec![SocConfig::sim(), SocConfig::sim(), small_soc(), small_soc()];
    let mut cfg = ServeConfig::cluster(29, 600, socs);
    for chip in &mut cfg.chips {
        chip.hbm_bytes = 1 << 30;
    }
    cfg.placement = Arc::new(LeastLoaded);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 7;
    cfg.traffic.candidate_cap = 300;
    cfg.defrag = Some(Arc::new(GreedyDefrag {
        max_memory_moves: 1,
        ..GreedyDefrag::default()
    }));
    cfg.defrag_interval = 4;
    cfg.fault_plan = FaultPlan::seeded(29 ^ 0xFA17, &[36, 36, 16, 16], 24, 600, Some(30));
    cfg.audit = true;
    cfg.temporal = true;
    cfg.record_trace = true;
    let mut rt = ServeRuntime::new(cfg);
    let mut completed_at = None;
    while rt.tick_index() < 600 {
        let tick = rt.tick_index();
        if tick == 150 {
            rt.begin_drain(0).unwrap();
        }
        if tick >= 150 && completed_at.is_none() && rt.cluster().chip(0).vnpu_count() == 0 {
            rt.complete_drain(0).unwrap();
            completed_at = Some(tick);
        }
        if completed_at.is_some_and(|t| tick == t + 5) {
            rt.undrain(0).unwrap();
        }
        rt.step().unwrap();
    }
    rt.drain().unwrap();
    assert_eq!(rt.drain_state(0), Ok(ChipSchedState::Schedulable));
    let report = rt.report();
    assert!(
        report.migrations > 0 && report.drain_migrations > 0,
        "defrag and drain both migrate"
    );

    let json_hash = fnv1a(report.to_json(usize::MAX).bytes());
    let trace_len = rt.trace().unwrap().len();
    let trace_fold = fnv1a(
        rt.trace()
            .unwrap()
            .iter()
            .flat_map(|e| format!("{e:?}").into_bytes()),
    );
    assert_eq!(
        (json_hash, trace_len, trace_fold),
        (
            16_643_284_090_563_796_239,
            4_979,
            18_188_107_238_829_779_517
        ),
        "the reconfiguration run's placements moved"
    );
}
