//! **Fault recovery** — the headline fault-tolerance scenario: a
//! two-chip fleet takes churn traffic, then chip 0 loses a whole mesh
//! row of cores (a power rail failing) plus a NoC link while loaded,
//! with the twin chip holding spare capacity. The serve loop's recovery
//! phase must detect every affected tenant and resolve each one —
//! remap-under-pin on the wounded chip, emergency cross-chip re-place,
//! or self-heal on repair — without ever leaking a core or a byte.
//!
//! Asserted invariants (both modes):
//!
//! * the whole driver is deterministic under the seed: two runs produce
//!   byte-identical [`vnpu_serve::ServeReport`]s;
//! * every scheduled onset and repair lands exactly once and the
//!   recovery queue is **empty after the repair tick** — nobody stays
//!   stranded;
//! * MTTR is bounded by [`vnpu_fault::RecoveryPolicy::max_recovery_ticks`]
//!   and every recovery's [`vnpu::plan::ReconfigCost`] is accounted;
//! * the wounded chip is degraded for exactly the onset→repair window
//!   and the healthy chip never is;
//! * zero leaked cores and HBM bytes after the end-of-run drain, with
//!   [`vnpu_serve::ServeConfig::audit`] on for every tick — the
//!   transient `FAULT-LINK` warning (a tenant admitted mid-window owns
//!   a dead-link endpoint until the next tick's sweep remaps it) is the
//!   only finding tolerated, and none may persist.

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu_audit::{FleetAuditor, Rule, Severity};
use vnpu_fault::FaultPlan;
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime};
use vnpu_sim::SocConfig;

/// Fixed seed: the whole request stream, fault schedule and report are
/// reproducible from this value.
const SEED: u64 = 0xFA_17_2E_C0;

/// Mesh row width of the simulated chip — the row outage kills cores
/// `ROW * WIDTH .. (ROW + 1) * WIDTH`.
const MESH_WIDTH: u32 = 6;
/// The mesh row taken out by the outage (row 1: cores 6..12).
const ROW: u32 = 1;
/// Tick the row (and the link) fails.
const ONSET: u64 = 40;
/// Tick the hardware comes back.
const REPAIR: u64 = 70;

fn config(quick: bool) -> ServeConfig {
    let epochs = if quick { 160 } else { 600 };
    let mut cfg = ServeConfig::cluster(SEED, epochs, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.candidate_cap = if quick { 200 } else { 400 };
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 20;
    cfg.placement = Arc::new(LeastLoaded);
    // The headline plan: a whole row dies at ONSET, plus one extra NoC
    // link in the healthy half of the mesh (cores 24–25) so the
    // link-fault detection/repair path is exercised in the same run.
    cfg.fault_plan = FaultPlan::new()
        .row_outage(0, MESH_WIDTH, ROW, ONSET, Some(REPAIR))
        .link_fault(0, 24, 25, ONSET, Some(REPAIR));
    // Every tick of the fault lifecycle runs audited: transient
    // FAULT-MAP findings are expected while recovery converges, but the
    // fleet must audit clean once it has.
    cfg.audit = true;
    // `scripts/verify.sh` reruns the scenario with the streaming
    // temporal checker on (`VNPU_TEMPORAL=1`): zero TEMP-* findings may
    // surface and the report must stay byte-identical to the baseline
    // pass — temporal checking is a read-only observer.
    cfg.temporal = std::env::var("VNPU_TEMPORAL").as_deref() == Ok("1");
    cfg
}

/// One full fault lifecycle: warm → row outage under load → recovery →
/// repair → serve on → end-of-run drain.
struct Outcome {
    report: ServeReport,
    onsets: u64,
    repairs: u64,
    max_pending: u64,
    transient_findings: u64,
}

fn scenario(quick: bool) -> Outcome {
    let cfg = config(quick);
    let epochs = cfg.epochs;
    let mut rt = ServeRuntime::new(cfg);
    let mut onsets = 0u64;
    let mut repairs = 0u64;
    let mut max_pending = 0u64;
    for _ in 0..epochs {
        let ev = rt.step().expect("fault tick");
        onsets += ev.fault_onsets;
        repairs += ev.fault_repairs;
        max_pending = max_pending.max(ev.recoveries_pending);
        if ev.tick > REPAIR {
            assert_eq!(
                ev.recoveries_pending, 0,
                "tick {}: recovery must have converged after the repair",
                ev.tick
            );
        }
    }
    // The only findings an audited fault run may surface are the
    // *transient* fault-window diagnostics: a tenant admitted after the
    // tick's recovery pass can own a dead-link endpoint (FAULT-LINK,
    // warning) until the next tick's sweep remaps it. Anything else —
    // a leak, a stale hint, a tenant left mapping a dead core — fails.
    let transient_findings = rt.audit_findings().len() as u64;
    for f in rt.audit_findings() {
        assert_eq!(
            (f.rule, f.severity),
            (Rule::FaultLinkEndpoint, Severity::Warning),
            "only the transient dead-link-endpoint warning is tolerated: {f:?}"
        );
    }
    // Post-recovery, the healed fleet passes a fresh whole-fleet
    // invariant sweep with zero findings.
    let sweep = FleetAuditor::new().audit(rt.cluster());
    assert!(
        sweep.is_empty(),
        "the recovered fleet audits clean: {sweep:?}"
    );
    rt.drain().expect("end-of-run drain");
    assert!(
        rt.temporal_findings().is_empty(),
        "the temporal checker (when enabled) must stay silent across the \
         whole fault lifecycle: {:?}",
        rt.temporal_findings()
    );
    Outcome {
        report: rt.report(),
        onsets,
        repairs,
        max_pending,
        transient_findings,
    }
}

/// Runs the fault lifecycle twice and asserts every claim.
///
/// # Panics
///
/// Panics when any invariant fails — the bench doubles as the
/// acceptance gate for the fault-injection/recovery stack.
pub fn run(quick: bool) {
    println!("== fault_recovery: row outage + link fault under live serving ==\n");

    let a = scenario(quick);
    let b = scenario(quick);
    assert_eq!(
        a.report, b.report,
        "same seed must reproduce the whole report, recovery included"
    );
    assert_eq!(a.onsets, b.onsets);
    assert_eq!(a.max_pending, b.max_pending);

    let r = &a.report;
    println!("{}\n", r.summary());

    // --- The schedule landed exactly. ---
    let scheduled = u64::from(MESH_WIDTH) + 1; // the row plus the link
    assert_eq!(a.onsets, scheduled, "one onset per row core plus the link");
    assert_eq!(a.repairs, scheduled, "every fault repairs on schedule");
    assert_eq!(r.faults_injected, scheduled);
    assert_eq!(r.faults_repaired, scheduled);

    // --- Every affected tenant was resolved. ---
    assert!(
        r.recovered_tenants() > 0,
        "a loaded chip losing a row must displace someone"
    );
    assert_eq!(r.recoveries_pending, 0, "nobody stays stranded");
    assert_eq!(
        r.tenants_lost, 0,
        "with a spare twin chip, no tenant may be lost"
    );
    assert!(
        r.mttr_max_ticks <= vnpu_fault::RecoveryPolicy::default().max_recovery_ticks,
        "the recovery deadline bounds MTTR: {}",
        r.mttr_max_ticks
    );
    assert!(r.mean_mttr_ticks() <= r.mttr_max_ticks as f64);
    assert!(
        r.recovery_reconfig.paused_cycles > 0,
        "recoveries pay reconfiguration cost"
    );

    // --- Degradation spans exactly the fault window. ---
    assert_eq!(
        r.per_chip[0].degraded_ticks,
        REPAIR - ONSET,
        "chip 0 is degraded exactly from onset to repair"
    );
    assert_eq!(r.per_chip[1].degraded_ticks, 0, "chip 1 never degrades");
    assert_eq!(
        r.per_chip[0].faulted_cores, 0,
        "the repaired row is back in service"
    );

    // --- Serving continued throughout. ---
    assert!(r.accepted > 0, "serving continued through the outage");
    assert_eq!(
        r.accepted + r.rejected + r.queued_at_end,
        r.submitted,
        "every request accounted exactly once"
    );

    // --- Pristine fleet at the end. ---
    assert_eq!(r.leaked_cores, 0, "no cores may leak through a fault");
    assert_eq!(r.leaked_hbm_bytes, 0, "no HBM may leak through a fault");
    for c in &r.per_chip {
        assert_eq!(c.residual_vnpus, 0, "chip{} drained clean", c.chip);
    }
    assert_eq!(
        r.audit_findings, a.transient_findings,
        "every audited tick is clean modulo the transient dead-link \
         warnings the scenario checks individually"
    );
    assert!(
        a.transient_findings <= r.faults_injected,
        "transient warnings are rare one-tick events, not a standing \
         condition: {}",
        a.transient_findings
    );

    println!(
        "[recovery] {} faults injected/repaired, {} tenants recovered \
         ({} remapped, {} replaced, {} self-healed), peak queue {}, \
         mttr mean {:.2} max {} ticks\n",
        r.faults_injected,
        r.recovered_tenants(),
        r.recoveries_remapped,
        r.recoveries_replaced,
        r.recoveries_self_healed,
        a.max_pending,
        r.mean_mttr_ticks(),
        r.mttr_max_ticks
    );

    // --- JSON report via the existing harness conventions. ---
    if let Some(dir) = crate::harness::report_dir() {
        let name = if quick {
            "fault_recovery.report.quick.json"
        } else {
            "fault_recovery.report.json"
        };
        let path = dir.join(name);
        if std::fs::write(&path, r.to_json(64)).is_ok() {
            println!("fault report written to {}\n", path.display());
        }
    }
}
