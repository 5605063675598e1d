//! **Temporal check** — the acceptance gate for the streaming
//! temporal-property verifier (`vnpu_temporal`): the three dynamic
//! scenario families (churn + defrag, whole-chip maintenance drain,
//! fault lifecycle with scheduled repair) run with the online checker
//! enabled and must
//!
//! * surface **zero** `TEMP-*` findings on every healthy run — liveness
//!   (TEMP-STARVE), drain convergence (TEMP-DRAIN), recovery deadlines
//!   (TEMP-FAULT), cost/cache conservation (TEMP-COST, TEMP-CACHE),
//!   quiescence leaks (TEMP-LEAK) and hint soundness (TEMP-HINT) all
//!   hold by construction;
//! * leave every [`vnpu_serve::ServeReport`] **byte-identical** to the
//!   checker-off baseline — temporal checking is a read-only observer
//!   of the event stream;
//! * agree with the **offline** replay: `check_trace` over the recorded
//!   trace (report claim appended) comes back clean too, and the trace
//!   carries the scenario's signature events (drain moves, fault
//!   onsets, recoveries, the quiescence probe).
//!
//! The checker's *sensitivity* — every rule firing on its seeded
//! corruption — is pinned separately by `tests/temporal_mutations.rs`;
//! this bench pins the *specificity* and read-only contract at bench
//! scale, plus the streaming overhead (printed, not asserted: wall
//! clock is host-dependent).

use std::sync::Arc;
use std::time::Instant;
use vnpu::cluster::LeastLoaded;
use vnpu::plan::GreedyDefrag;
use vnpu_fault::FaultPlan;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;
use vnpu_temporal::{check_trace, TraceEvent};

/// Fixed seed shared by all three scenario families.
const SEED: u64 = 0x7E_40_0A_11;

/// One scenario family: a config builder plus how to drive the run.
struct Scenario {
    name: &'static str,
    /// Builds the config for a given mode; `temporal`/`record_trace`
    /// are overlaid by the driver.
    config: fn(bool) -> ServeConfig,
    /// Whether the driver walks the drain-maintenance lifecycle
    /// (warm → begin_drain → evacuate → complete/undrain → serve on).
    drive_drain: bool,
}

fn churn_config(quick: bool) -> ServeConfig {
    let epochs = if quick { 300 } else { 1_200 };
    let mut cfg = ServeConfig::cluster(
        SEED,
        epochs,
        vec![
            SocConfig::sim(),
            SocConfig {
                mesh_width: 4,
                mesh_height: 4,
                ..SocConfig::sim()
            },
        ],
    );
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.candidate_cap = if quick { 200 } else { 400 };
    cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
    cfg.placement = Arc::new(LeastLoaded);
    cfg
}

fn drain_config(quick: bool) -> ServeConfig {
    let epochs = if quick { 260 } else { 1_000 };
    let mut cfg = ServeConfig::cluster(SEED, epochs, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = if quick { 200 } else { 400 };
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 10;
    cfg.placement = Arc::new(LeastLoaded);
    cfg
}

fn fault_config(quick: bool) -> ServeConfig {
    let epochs = if quick { 160 } else { 600 };
    let mut cfg = ServeConfig::cluster(SEED, epochs, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = if quick { 200 } else { 400 };
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 20;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.fault_plan = FaultPlan::new()
        .row_outage(0, 6, 1, 40, Some(70))
        .link_fault(0, 24, 25, 40, Some(70));
    cfg
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "churn+defrag",
        config: churn_config,
        drive_drain: false,
    },
    Scenario {
        name: "drain",
        config: drain_config,
        drive_drain: true,
    },
    Scenario {
        name: "fault",
        config: fault_config,
        drive_drain: false,
    },
];

/// Drives one configured run to completion (scenario lifecycle + ticks
/// + end-of-run drain) and hands the runtime back for inspection.
fn drive(cfg: ServeConfig, drive_drain: bool) -> ServeRuntime {
    let epochs = cfg.epochs;
    let mut rt = ServeRuntime::new(cfg);
    if drive_drain {
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
    rt
}

/// Per-scenario observables folded into the bench's JSON artifact.
struct Outcome {
    name: &'static str,
    trace_events: usize,
    baseline_nanos: u128,
    checked_nanos: u128,
}

fn run_scenario(sc: &Scenario, quick: bool) -> Outcome {
    // --- Baseline: checker off. ---
    let t0 = Instant::now();
    let baseline_rt = drive((sc.config)(quick), sc.drive_drain);
    let baseline_nanos = t0.elapsed().as_nanos();
    let baseline = baseline_rt.report().to_json(usize::MAX);

    // --- Online checker: zero findings, report byte-identical to the
    //     baseline. ---
    let mut cfg = (sc.config)(quick);
    cfg.temporal = true;
    let t1 = Instant::now();
    let rt = drive(cfg, sc.drive_drain);
    let checked_nanos = t1.elapsed().as_nanos();
    assert!(
        rt.temporal_findings().is_empty(),
        "{}: a healthy run must check clean: {:?}",
        sc.name,
        rt.temporal_findings()
    );
    let report = rt.report();
    assert_eq!(
        report.temporal_findings, 0,
        "{}: the report mirrors the zero-findings count",
        sc.name
    );
    assert_eq!(
        report.to_json(usize::MAX),
        baseline,
        "{}: temporal checking must be read-only",
        sc.name
    );

    // --- Offline replay: the recorded trace (claim appended) is clean
    //     under the same config-derived bounds, and it carries the
    //     scenario's signature events. ---
    let mut cfg = (sc.config)(quick);
    cfg.temporal = true;
    cfg.record_trace = true;
    let check = cfg.temporal_checker_config();
    let rt = drive(cfg, sc.drive_drain);
    let trace = rt.trace_with_claim().expect("record_trace is on");
    let offline = check_trace(&trace, check);
    assert!(
        offline.is_empty(),
        "{}: offline replay must agree with the online checker: {offline:?}",
        sc.name
    );
    assert!(
        trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Arrival { .. })),
        "{}: the trace records arrivals",
        sc.name
    );
    assert!(
        trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::CacheSample { .. })),
        "{}: the trace samples the mapping cache",
        sc.name
    );
    assert!(
        trace
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Quiesced { .. })),
        "{}: the end-of-run drain emits the quiescence probe",
        sc.name
    );
    if sc.drive_drain {
        assert!(
            trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::DrainMove { .. })),
            "the drain scenario records evacuations"
        );
    }
    if sc.name == "fault" {
        assert!(
            trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::FaultOnset { .. })),
            "the fault scenario records onsets"
        );
        assert!(
            trace
                .iter()
                .any(|ev| matches!(ev, TraceEvent::Recovered { .. })),
            "the fault scenario recovers tenants"
        );
    }

    Outcome {
        name: sc.name,
        trace_events: trace.len(),
        baseline_nanos,
        checked_nanos,
    }
}

/// Runs all three scenario families through the temporal gate.
///
/// # Panics
///
/// Panics when any claim fails — the bench doubles as the acceptance
/// gate for the temporal-verification stack.
pub fn run(quick: bool) {
    println!("== temporal_check: streaming temporal verification gate ==\n");

    let outcomes: Vec<Outcome> = SCENARIOS.iter().map(|sc| run_scenario(sc, quick)).collect();

    println!(
        "{:<14} {:>12} {:>14} {:>14} {:>9}",
        "scenario", "trace events", "baseline ms", "checked ms", "overhead"
    );
    for o in &outcomes {
        let base = o.baseline_nanos.max(1) as f64 / 1e6;
        let checked = o.checked_nanos as f64 / 1e6;
        println!(
            "{:<14} {:>12} {:>14.2} {:>14.2} {:>8.2}x",
            o.name,
            o.trace_events,
            base,
            checked,
            checked / base.max(f64::MIN_POSITIVE)
        );
    }
    println!(
        "\nall scenarios: zero TEMP-* findings, reports byte-identical to \
         the checker-off baseline, offline replay agrees\n"
    );

    // --- JSON artifact via the existing harness conventions. ---
    if let Some(dir) = crate::harness::report_dir() {
        let mut json = String::from("{\n  \"scenarios\": [\n");
        for (i, o) in outcomes.iter().enumerate() {
            json.push_str(&format!(
                "    {{ \"name\": \"{}\", \"trace_events\": {}, \
                 \"baseline_nanos\": {}, \"checked_nanos\": {} }}{}\n",
                o.name,
                o.trace_events,
                o.baseline_nanos,
                o.checked_nanos,
                if i + 1 < outcomes.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        let name = if quick {
            "temporal_check.quick.json"
        } else {
            "temporal_check.json"
        };
        let path = dir.join(name);
        if std::fs::write(&path, json).is_ok() {
            println!("temporal gate report written to {}\n", path.display());
        }
    }
}
