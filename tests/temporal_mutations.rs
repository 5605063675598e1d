//! Mutation suite for the temporal verifier (`vnpu_temporal`): each
//! seeded trace corruption must be flagged under exactly the matching
//! `TEMP-*` rule, while the pristine traces of every scenario family
//! (churn + defrag, whole-chip drain, fault lifecycle) check clean —
//! online and offline — and the online checker leaves reports
//! byte-identical at every worker count.
//!
//! The suite is the acceptance gate for the checker's *sensitivity*:
//! a rule that never fires on its own corruption is dead weight, and a
//! rule that fires on a healthy trace is noise. Both directions are
//! pinned here.

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu::plan::GreedyDefrag;
use vnpu_serve::{FaultPlan, ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;
use vnpu_temporal::{check_trace, CheckerConfig, TempRule, TraceEvent};

/// Churn with defragmentation: single chip, heavy arrivals, periodic
/// defrag passes — exercises Arrival/Admitted/Rejected, Migrated,
/// DefragRecovered and the end-of-run Quiesced probe.
fn churn_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::standard(13, 120);
    cfg.traffic.candidate_cap = 200;
    cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
    cfg.temporal = true;
    cfg.record_trace = true;
    cfg
}

/// Whole-chip maintenance drain under live serving: exercises
/// DrainMove/DrainStep alongside the churn events.
fn drain_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::cluster(0xD8A1_4011, 200, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = 200;
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 10;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.temporal = true;
    cfg.record_trace = true;
    cfg
}

/// Row outage + link fault with scheduled repair: exercises the whole
/// FaultOnset → RecoveryDetected → Recovered/TenantLost lifecycle.
fn fault_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::cluster(0xFA17_0001, 160, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = 200;
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 20;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.fault_plan = FaultPlan::new()
        .row_outage(0, 6, 1, 40, Some(70))
        .link_fault(0, 24, 25, 40, Some(70));
    cfg.temporal = true;
    cfg.record_trace = true;
    cfg
}

/// Runs a config to completion (steps + end-of-run drain), asserting
/// the *online* checker stayed clean, and returns the recorded trace
/// (with the report claim appended) plus the matching checker config.
fn pristine_trace(cfg: ServeConfig, drive_drain: bool) -> (Vec<TraceEvent>, CheckerConfig) {
    let check = cfg.temporal_checker_config();
    let epochs = cfg.epochs;
    let mut rt = ServeRuntime::new(cfg);
    if drive_drain {
        // Warm until chip 0 is loaded, evacuate it, hand it back, then
        // serve out the run — the drain_maintenance lifecycle.
        let mut warm = 0u64;
        while rt.cluster().chip(0).vnpu_count() < 3 {
            rt.step().expect("warm tick");
            warm += 1;
            assert!(warm < epochs / 2, "traffic must load chip 0");
        }
        rt.begin_drain(0).expect("begin_drain");
        while rt.cluster().chip(0).vnpu_count() > 0 {
            rt.step().expect("drain tick");
            assert!(rt.tick_index() < epochs, "the drain must converge");
        }
        rt.complete_drain(0).expect("complete_drain");
        rt.undrain(0).expect("undrain");
    }
    while rt.tick_index() < epochs {
        rt.step().expect("tick");
    }
    rt.drain().expect("end-of-run drain");
    assert!(
        rt.temporal_findings().is_empty(),
        "online checker must be clean: {:?}",
        rt.temporal_findings()
    );
    let trace = rt.trace_with_claim().expect("record_trace is on");
    (trace, check)
}

/// Asserts the corrupted trace fires at least once and *only* under
/// `rule`.
fn assert_fires_exactly(trace: &[TraceEvent], check: CheckerConfig, rule: TempRule) {
    let findings = check_trace(trace, check);
    assert!(
        !findings.is_empty(),
        "{} must fire on its seeded corruption",
        rule.id()
    );
    for f in &findings {
        assert_eq!(
            f.rule,
            rule,
            "corruption for {} leaked into another rule: {f}",
            rule.id()
        );
    }
}

#[test]
fn pristine_scenario_traces_check_clean_offline() {
    for (name, trace, check) in [
        ("churn+defrag", pristine_trace(churn_cfg(), false)),
        ("drain", pristine_trace(drain_cfg(), true)),
        ("fault", pristine_trace(fault_cfg(), false)),
    ]
    .map(|(n, (t, c))| (n, t, c))
    {
        let findings = check_trace(&trace, check);
        assert!(findings.is_empty(), "{name} replay dirty: {findings:?}");
    }
}

#[test]
fn starvation_mutation_fires_temp_starve() {
    let (trace, mut check) = pristine_trace(churn_cfg(), false);
    let final_tick = trace.iter().map(TraceEvent::tick).max().unwrap_or(0);
    // Self-calibrate the liveness bound from the pristine trace: the
    // worst observed arrival→resolution wait is, by construction, a
    // bound the healthy run satisfies.
    let mut opened: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut max_wait = 0u64;
    for ev in &trace {
        match *ev {
            TraceEvent::Arrival { tick, id } => {
                opened.entry(id).or_insert(tick);
            }
            TraceEvent::Admitted { tick, id, .. } | TraceEvent::Rejected { tick, id } => {
                if let Some(t0) = opened.remove(&id) {
                    max_wait = max_wait.max(tick.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
    check.starve_bound_ticks = Some(max_wait.max(1));
    assert!(
        check_trace(&trace, check).is_empty(),
        "the calibrated bound must hold on the pristine trace"
    );
    // Corrupt: erase the resolution of one early request — it now
    // starves past the bound the healthy run proved achievable.
    let victim = trace
        .iter()
        .find_map(|ev| match *ev {
            TraceEvent::Arrival { tick, id }
                if tick.saturating_add(max_wait.max(1)) + 2 < final_tick =>
            {
                Some(id)
            }
            _ => None,
        })
        .expect("an early arrival exists");
    let corrupted: Vec<TraceEvent> = trace
        .iter()
        .filter(|ev| {
            !matches!(**ev,
                TraceEvent::Admitted { id, .. } | TraceEvent::Rejected { id, .. } if id == victim)
        })
        .copied()
        .collect();
    assert!(corrupted.len() < trace.len(), "the victim was resolved");
    assert_fires_exactly(&corrupted, check, TempRule::Starvation);
}

#[test]
fn stalled_drain_mutation_fires_temp_drain() {
    let (mut trace, check) = pristine_trace(drain_cfg(), true);
    // Corrupt: after the run, a drain on chip 1 goes silent for longer
    // than the stall bound with residents still aboard.
    let base = trace.iter().map(TraceEvent::tick).max().unwrap_or(0) + 1;
    for i in 0..check.drain_stall_ticks + 4 {
        trace.push(TraceEvent::DrainStep {
            tick: base + i,
            chip: 1,
            moved: 0,
            skipped: 0,
            remaining: 3,
        });
    }
    assert_fires_exactly(&trace, check, TempRule::DrainConvergence);
}

#[test]
fn late_recovery_mutation_fires_temp_fault() {
    let (mut trace, check) = pristine_trace(fault_cfg(), false);
    // Corrupt: push one recovery past the policy deadline.
    let slot = trace
        .iter()
        .position(|ev| matches!(ev, TraceEvent::Recovered { .. }))
        .expect("the fault scenario recovers tenants");
    if let TraceEvent::Recovered {
        tick, onset_tick, ..
    } = &mut trace[slot]
    {
        *tick = onset_tick.saturating_add(check.max_recovery_ticks + 3);
    }
    assert_fires_exactly(&trace, check, TempRule::FaultDeadline);
}

#[test]
fn quiescence_leak_mutation_fires_temp_leak() {
    let (mut trace, check) = pristine_trace(churn_cfg(), false);
    let slot = trace
        .iter()
        .position(|ev| matches!(ev, TraceEvent::Quiesced { .. }))
        .expect("the end-of-run drain emits a quiescence probe");
    if let TraceEvent::Quiesced { leaked_cores, .. } = &mut trace[slot] {
        *leaked_cores = 3;
    }
    assert_fires_exactly(&trace, check, TempRule::QuiescenceLeak);
}

#[test]
fn oversized_hint_mutation_fires_temp_hint() {
    let (mut trace, check) = pristine_trace(churn_cfg(), false);
    // Corrupt: a fit hint advertises one core more than the pass-start
    // largest schedulable island — advice the caller provably cannot
    // act on.
    let slot = trace
        .iter()
        .position(|ev| matches!(ev, TraceEvent::AdmissionStart { .. }))
        .expect("every tick records its admission pass start");
    let (tick, bound) = match trace[slot] {
        TraceEvent::AdmissionStart {
            tick,
            largest_island,
        } => (tick, largest_island),
        _ => unreachable!(),
    };
    trace.insert(
        slot + 1,
        TraceEvent::HintEmitted {
            tick,
            id: 9_999_999,
            cores: bound + 1,
        },
    );
    assert_fires_exactly(&trace, check, TempRule::HintSoundness);
}

#[test]
fn online_checker_leaves_the_report_byte_identical() {
    let mut plain_cfg = fault_cfg();
    plain_cfg.temporal = false;
    plain_cfg.record_trace = false;
    let baseline = ServeRuntime::new(plain_cfg)
        .run()
        .expect("baseline run")
        .to_json(usize::MAX);
    // Checker on, twice: each run checks clean and matches the baseline.
    for run in ["first", "second"] {
        let mut cfg = fault_cfg();
        cfg.record_trace = false;
        let mut rt = ServeRuntime::new(cfg);
        while rt.tick_index() < 160 {
            rt.step().expect("tick");
        }
        rt.drain().expect("end-of-run drain");
        assert!(
            rt.temporal_findings().is_empty(),
            "{run} checked run must check clean: {:?}",
            rt.temporal_findings()
        );
        assert_eq!(
            rt.report().to_json(usize::MAX),
            baseline,
            "the online checker must not perturb the {run} run"
        );
    }
}
