//! The three reconfiguration lifecycles of the serving fleet — a whole-chip
//! maintenance drain, a row outage with recovery, churn under background
//! defragmentation — each defined here once, at one fixed size.
//!
//! Every lifecycle runs through [`run_checked`]: once with `audit`,
//! `temporal` and `record_trace` on, once with all three off. The pair is
//! held to what any lifecycle owes whatever it does in between — no
//! `TEMP-*` finding, a trace that replays clean offline, observers that
//! change neither a tick's events nor a byte of the report, a fleet that
//! ends empty, and a fold-derived report that agrees with a direct count
//! of the per-tick [`TickEvents`]. The tests then add the audit's verdict
//! and what is particular to each lifecycle and asserted nowhere else.
//!
//! Determinism is proved on the same record: two same-seed runs must
//! record identical traces, and [`first_divergence`] names the first event
//! where they do not.

use std::sync::Arc;
use vnpu::cluster::{Cluster, LeastLoaded};
use vnpu::plan::{GreedyDefrag, ReconfigBudget};
use vnpu::Hypervisor;
use vnpu_audit::{Rule, Severity};
use vnpu_fault::FaultPlan;
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime, TickEvents};
use vnpu_sim::SocConfig;
use vnpu_temporal::{check_trace, TraceEvent};

/// One stepped run: the runtime, every tick's events, and what the final
/// [`ServeRuntime::drain`] retired.
struct Run {
    rt: ServeRuntime,
    events: Vec<TickEvents>,
    drained: u64,
}

impl Run {
    fn step(&mut self) {
        self.events.push(self.rt.step().expect("tick"));
    }

    fn sum(&self, field: fn(&TickEvents) -> u64) -> u64 {
        self.events.iter().map(field).sum()
    }
}

/// The report's counters are folded from the trace stream; `TickEvents`
/// are filled in by the phases themselves. Summed over the run, the two
/// must agree. (A lost tenant's retirement and the final drain emit
/// `Departed` too, outside any tick's `departed`.)
fn assert_fold_matches_events(report: &ServeReport, run: &Run) {
    let lost = run.sum(|e| e.tenants_lost);
    for (counter, folded, counted) in [
        ("submitted", report.submitted, run.sum(|e| e.arrivals)),
        (
            "accepted",
            report.accepted,
            run.sum(|e| e.admitted.len() as u64),
        ),
        (
            "rejected",
            report.rejected,
            run.sum(|e| e.rejected.len() as u64),
        ),
        (
            "departed",
            report.departed,
            run.sum(|e| e.departed) + lost + run.drained,
        ),
        ("migrations", report.migrations, run.sum(|e| e.migrations)),
        (
            "drain_migrations",
            report.drain_migrations,
            run.sum(|e| e.drain_migrations),
        ),
        (
            "recoveries_remapped",
            report.recoveries_remapped,
            run.sum(|e| e.recoveries_remapped),
        ),
        (
            "recoveries_replaced",
            report.recoveries_replaced,
            run.sum(|e| e.recoveries_replaced),
        ),
        ("tenants_lost", report.tenants_lost, lost),
        (
            "faults_injected",
            report.faults_injected,
            run.sum(|e| e.fault_onsets),
        ),
        (
            "faults_repaired",
            report.faults_repaired,
            run.sum(|e| e.fault_repairs),
        ),
        (
            "executed_epochs",
            report.executed_epochs,
            run.sum(|e| u64::from(e.executed_chips)),
        ),
    ] {
        assert_eq!(
            folded, counted,
            "{counter}: folded from the trace vs counted per tick"
        );
    }
}

/// Drives `cfg` through `lifecycle` (then the end-of-run drain) with all
/// three observers on and again with all three off, asserts everything the
/// module doc lists but the audit's findings — a fault window may surface
/// a tolerated transient, so those are the caller's — and returns the
/// observed run with its report.
fn run_checked(cfg: &ServeConfig, lifecycle: impl Fn(&mut Run)) -> (Run, ServeReport) {
    let drive = |observed: bool| {
        let mut cfg = cfg.clone();
        (cfg.audit, cfg.temporal, cfg.record_trace) = (observed, observed, observed);
        let mut run = Run {
            rt: ServeRuntime::new(cfg),
            events: Vec::new(),
            drained: 0,
        };
        lifecycle(&mut run);
        run.drained = run.rt.drain().expect("end-of-run drain");
        run
    };
    let (observed, bare) = (drive(true), drive(false));
    let report = observed.rt.report();

    assert!(
        observed.rt.temporal_findings().is_empty(),
        "the online checker must stay silent: {:?}",
        observed.rt.temporal_findings()
    );
    let trace = observed.rt.trace_with_claim().expect("record_trace is on");
    let offline = check_trace(&trace, cfg.temporal_checker_config());
    assert!(offline.is_empty(), "offline replay dirty: {offline:?}");

    // The audit's finding count is the one field an observer owns in a
    // tick's events and in the report; the callers assert on the findings
    // themselves, and where there are none the identity below is literal.
    let unaudited = |e: &TickEvents| TickEvents {
        audit_findings: 0,
        ..e.clone()
    };
    assert!(
        observed
            .events
            .iter()
            .map(unaudited)
            .eq(bare.events.iter().cloned()),
        "observers must not change what a tick does"
    );
    let unaudited = ServeReport {
        audit_findings: 0,
        ..report.clone()
    };
    assert_eq!(
        unaudited.to_json(usize::MAX),
        bare.rt.report().to_json(usize::MAX),
        "observers must not change a byte of the report"
    );
    assert_fold_matches_events(&report, &observed);

    assert!(report.accepted > 0, "serving went on throughout");
    assert_eq!((report.leaked_cores, report.leaked_hbm_bytes), (0, 0));
    assert!(report.per_chip.iter().all(|c| c.residual_vnpus == 0));
    assert_eq!(
        report.accepted + report.rejected + report.queued_at_end,
        report.submitted,
        "every request accounted exactly once"
    );
    (observed, report)
}

/// Where two traces that must be equal first part: the index of the first
/// differing event, its tick and both events (`None` past a trace's end),
/// or `None` when they are equal.
fn first_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<String> {
    let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let (x, y) = (a.get(at), b.get(at));
    let tick = x.or(y).map_or(0, TraceEvent::tick);
    Some(format!(
        "traces diverge first at event {at}, tick {tick}: {x:?} vs {y:?}"
    ))
}

/// Churn over three chips (two 6×6 and a 4×4) with defrag every 7 ticks and
/// the fleet audit on, run twice from one seed: the two recorded traces,
/// every tick's events and the report JSON must be identical.
#[test]
fn same_seed_reruns_record_identical_traces() {
    let small = SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    };
    let mut cfg = ServeConfig::cluster(
        0xC0_1D_CA_FE,
        40,
        vec![SocConfig::sim(), small, SocConfig::sim()],
    );
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.candidate_cap = 120;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
    cfg.defrag_interval = 7;
    cfg.audit = true;
    cfg.record_trace = true;
    let rerun = || {
        let mut run = Run {
            rt: ServeRuntime::new(cfg.clone()),
            events: Vec::new(),
            drained: 0,
        };
        while run.rt.tick_index() < cfg.epochs {
            run.step();
        }
        run.rt.drain().expect("end-of-run drain");
        run
    };
    let (first, second) = (rerun(), rerun());
    let trace = first.rt.trace().expect("record_trace is on");
    assert!(trace.len() > 100, "the run must do something");
    if let Some(divergence) = first_divergence(trace, second.rt.trace().unwrap()) {
        panic!("{divergence}");
    }
    assert_eq!(first.events, second.events, "tick events must agree");
    let report = first.rt.report();
    assert_eq!(
        report.to_json(usize::MAX),
        second.rt.report().to_json(usize::MAX)
    );
    assert_eq!(report.audit_findings, 0, "the fleet audits clean");
    assert!(report.migrations > 0, "defrag must move someone");
}

fn twin_chip_cfg(seed: u64, epochs: u64, mean_lifetime_epochs: u64) -> ServeConfig {
    let mut cfg = ServeConfig::cluster(seed, epochs, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = 200;
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = mean_lifetime_epochs;
    cfg.placement = Arc::new(LeastLoaded);
    cfg
}

/// Warm two chips, evacuate chip 0 under a two-moves-a-tick budget while
/// chip 1 keeps serving, hold it masked for a maintenance window, hand it
/// back and serve out the run.
#[test]
fn drain_maintenance_lifecycle() {
    const EPOCHS: u64 = 300;
    let mut cfg = twin_chip_cfg(0xD8A1_4011, EPOCHS, 10);
    cfg.drain_budget = ReconfigBudget {
        max_migrations: 2,
        max_paused_cycles: 50_000_000,
        max_data_move_bytes: 1 << 30,
    };
    let (run, report) = run_checked(&cfg, |run| {
        while run.rt.cluster().chip(0).vnpu_count() < 4 {
            run.step();
            assert!(run.rt.tick_index() < EPOCHS / 2, "traffic must load chip 0");
        }
        run.rt.begin_drain(0).expect("begin_drain");
        while run.rt.cluster().chip(0).vnpu_count() > 0 {
            run.step();
            assert!(run.rt.tick_index() < EPOCHS, "the drain must converge");
        }
        run.rt.complete_drain(0).expect("evacuated chip completes");
        for _ in 0..5 {
            run.step();
        }
        run.rt.undrain(0).expect("undrain");
        // An idle fleet with the serve config's 4 GiB of HBM per chip.
        let idle = || Hypervisor::with_hbm_bytes(SocConfig::sim(), 4 << 30);
        assert_eq!(
            run.rt.cluster().snapshot_of(0),
            Cluster::with_chips(vec![idle(), idle()]).snapshot_of(0),
            "an undrained chip's snapshot is byte-identical to a fresh idle chip's"
        );
        while run.rt.tick_index() < EPOCHS {
            run.step();
        }
    });
    assert!(
        run.rt.audit_findings().is_empty(),
        "every tick audits clean"
    );
    let evacuated = run.sum(|e| e.drain_migrations);
    assert!(evacuated > 0, "a loaded chip drains by moving tenants");
    assert!(
        report.drain_reconfig.config_cycles() > 0,
        "evacuations pay meta-table re-deployment"
    );
    // Every serving tenant carries at least 16 MiB of guest HBM, and a
    // cross-chip move also carries per-core scratchpad state.
    assert!(
        report.drain_reconfig.data_move_bytes >= evacuated * (16 << 20),
        "the data-movement term dominates cross-chip evacuation"
    );
}

/// Chip 0 loses mesh row 1 and the 24–25 NoC link at tick 40, under load,
/// with a twin chip holding spare capacity; both come back at tick 70.
#[test]
fn fault_recovery_lifecycle() {
    const EPOCHS: u64 = 160;
    let mut cfg = twin_chip_cfg(0xFA17_2EC0, EPOCHS, 20);
    cfg.fault_plan = FaultPlan::new()
        .row_outage(0, 6, 1, 40, Some(70))
        .link_fault(0, 24, 25, 40, Some(70));
    let (run, report) = run_checked(&cfg, |run| {
        for _ in 0..EPOCHS {
            run.step();
        }
    });
    // A tenant admitted after a tick's recovery pass can own an endpoint of
    // the dead link until the next tick's sweep remaps it: that warning,
    // rarely, is the only finding an audited fault window may surface.
    let transients = run.rt.audit_findings();
    for f in transients {
        assert_eq!(
            (f.rule, f.severity),
            (Rule::FaultLinkEndpoint, Severity::Warning),
            "{f:?}"
        );
    }
    assert!(transients.len() as u64 <= report.faults_injected);
    assert_eq!(report.audit_findings, transients.len() as u64);
    let scheduled = 6 + 1; // the row plus the link
    assert_eq!(run.sum(|e| e.fault_onsets), scheduled);
    assert_eq!(run.sum(|e| e.fault_repairs), scheduled);
    assert_eq!(
        report.tenants_lost, 0,
        "with a spare twin chip, no tenant may be lost"
    );
    assert!(report.mean_mttr_ticks() <= report.mttr_max_ticks as f64);
    assert_eq!(
        report.per_chip[0].faulted_cores, 0,
        "the repaired row is back in service"
    );
}

/// A thousand requests through one 6×6 chip with tight HBM (1 GiB against
/// 16–128 MiB tenants, so buddy external fragmentation is real pressure),
/// defragmented every tick — against the same stream left alone.
#[test]
fn defrag_churn_lifecycle() {
    const EPOCHS: u64 = 1_300;
    let mut cfg = ServeConfig::standard(0xDEF4_A611, EPOCHS);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.candidate_cap = 200;
    cfg.chips[0].hbm_bytes = 1 << 30;
    let baseline = ServeRuntime::new(cfg.clone()).run().expect("baseline");
    cfg.defrag = Some(Arc::new(GreedyDefrag {
        max_memory_moves: 1,
        ..GreedyDefrag::default()
    }));
    let (run, defragged) = run_checked(&cfg, |run| {
        for _ in 0..EPOCHS {
            run.step();
        }
    });
    assert!(
        run.rt.audit_findings().is_empty(),
        "every tick audits clean"
    );
    assert!(defragged.submitted >= 1_000, "{}", defragged.submitted);

    // Mean HBM external fragmentation over the last `window` samples: the
    // whole run, and the final 100 ticks (a single end-tick sample swings
    // with whichever tenant happened to depart last).
    let hbm_frag = |r: &ServeReport, window: usize| {
        let tail = &r.fragmentation[r.fragmentation.len() - window..];
        tail.iter()
            .map(|s| s.hbm_external_fragmentation)
            .sum::<f64>()
            / window as f64
    };
    for window in [100, EPOCHS as usize] {
        let (left_alone, tended) = (hbm_frag(&baseline, window), hbm_frag(&defragged, window));
        assert!(
            tended < left_alone,
            "defragmentation must lower buddy external fragmentation over the \
             last {window} ticks: {left_alone:.4} left alone, {tended:.4} defragmented"
        );
    }
}
