//! **Cluster churn** — the multi-chip serving scenario: ≥1,000 vNPU
//! create/destroy requests streamed through one cluster-level admission
//! queue over two heterogeneous chips (the paper's 6×6 SIM chip plus a
//! 4×4 sibling), with execution epochs interleaved and every placement
//! memoized in the *shared* mapping cache.
//!
//! Asserted invariants (both modes): the run is deterministic under its
//! seed (the whole [`vnpu_serve::ServeReport`], per-chip sections
//! included, reproduces bit-for-bit), both chips take load, the shared
//! cache gets hits, the drained fleet ends with zero leaked cores and
//! zero leaked HBM bytes on every chip — and swapping the
//! [`ChipPlacement`] policy changes the placement distribution without
//! breaking determinism. A third run repeats the first-fit scenario with
//! [`vnpu_serve::ServeConfig::audit`] enabled: the per-tick fleet
//! auditor must report zero findings and, auditing being read-only, the
//! report must come out byte-identical to the unaudited run's.

use std::sync::Arc;
use vnpu::cluster::{ChipPlacement, FirstFit, LeastLoaded};
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime};
use vnpu_sim::SocConfig;

/// Fixed seed: the whole request stream, admission trace and report are
/// reproducible from this value.
const SEED: u64 = 0xC1_05_7E_12;

fn small_soc() -> SocConfig {
    SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    }
}

fn churn_config(quick: bool, placement: Arc<dyn ChipPlacement>) -> ServeConfig {
    let epochs = if quick { 1_300 } else { 4_000 };
    let mut cfg = ServeConfig::cluster(SEED, epochs, vec![SocConfig::sim(), small_soc()]);
    // ~1 arrival per tick: a 1,300-epoch quick run comfortably clears
    // 1,000 requests while staying CI-fast.
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.candidate_cap = if quick { 200 } else { 400 };
    cfg.placement = placement;
    cfg
}

fn assert_fleet_invariants(r: &ServeReport, label: &str) {
    assert!(
        r.submitted >= 1_000,
        "{label}: churn must exceed 1,000 requests, got {}",
        r.submitted
    );
    assert_eq!(r.per_chip.len(), 2, "{label}: two chips, two sections");
    assert!(
        r.per_chip.iter().all(|c| c.accepted > 0),
        "{label}: both chips must take load: {:?}",
        r.per_chip
    );
    assert!(
        r.cache_hit_rate() > 0.0,
        "{label}: shared mapping cache must get hits: {:?}",
        r.cache
    );
    assert_eq!(r.leaked_cores, 0, "{label}: no cores may leak");
    assert_eq!(r.leaked_hbm_bytes, 0, "{label}: no HBM may leak");
    for c in &r.per_chip {
        assert_eq!(c.leaked_cores, 0, "{label}: chip{} cores leak", c.chip);
        assert_eq!(c.leaked_hbm_bytes, 0, "{label}: chip{} HBM leak", c.chip);
    }
    assert_eq!(
        r.accepted + r.rejected + r.queued_at_end,
        r.submitted,
        "{label}: every request accounted exactly once"
    );
    assert_eq!(
        r.per_chip.iter().map(|c| c.accepted).sum::<u64>(),
        r.accepted,
        "{label}: per-chip sections cover every admission"
    );
}

/// Runs the cluster churn scenario under two placement policies.
///
/// # Panics
///
/// Panics when any fleet invariant fails — the bench doubles as the
/// acceptance gate for the cluster serving stack.
pub fn run(quick: bool) {
    println!("== cluster_churn: multi-chip vNPU lifecycle under load ==\n");

    // --- First-fit, twice: byte-identical reports or bust. ---
    let first_fit = ServeRuntime::new(churn_config(quick, Arc::new(FirstFit)))
        .run()
        .expect("first-fit churn run completes");
    let again = ServeRuntime::new(churn_config(quick, Arc::new(FirstFit)))
        .run()
        .expect("first-fit churn rerun completes");
    assert_eq!(
        first_fit, again,
        "same seed must reproduce the whole report, per-chip sections included"
    );
    assert_fleet_invariants(&first_fit, "first-fit");
    println!("[first-fit]\n{}\n", first_fit.summary());

    // --- Audited first-fit: the fleet auditor runs after every tick and
    //     must stay silent, and because auditing is read-only the report
    //     is byte-identical to the unaudited run's. ---
    let mut audited_cfg = churn_config(quick, Arc::new(FirstFit));
    audited_cfg.audit = true;
    let audited = ServeRuntime::new(audited_cfg)
        .run()
        .expect("audited churn run completes");
    assert_eq!(
        audited.audit_findings, 0,
        "a healthy serving fleet audits clean on every tick"
    );
    assert_eq!(
        audited, first_fit,
        "auditing is read-only: the audited report is byte-identical"
    );
    assert_eq!(
        audited.to_json(64),
        first_fit.to_json(64),
        "auditing must not perturb the serialized report either"
    );
    println!("[first-fit, audited] zero findings, report byte-identical\n");

    // --- Least-loaded: same stream, different distribution. ---
    let least_loaded = ServeRuntime::new(churn_config(quick, Arc::new(LeastLoaded)))
        .run()
        .expect("least-loaded churn run completes");
    assert_fleet_invariants(&least_loaded, "least-loaded");
    assert_eq!(
        first_fit.submitted, least_loaded.submitted,
        "placement policy must not perturb the arrival stream"
    );
    assert_ne!(
        first_fit.per_chip[1].accepted, least_loaded.per_chip[1].accepted,
        "swapping ChipPlacement must change the placement distribution"
    );
    assert!(
        least_loaded.per_chip[1].accepted > first_fit.per_chip[1].accepted,
        "least-loaded must push more tenants onto the second chip \
         (first-fit: {}, least-loaded: {})",
        first_fit.per_chip[1].accepted,
        least_loaded.per_chip[1].accepted
    );
    println!("[least-loaded]\n{}\n", least_loaded.summary());

    // --- JSON report via the existing harness conventions. ---
    if let Some(dir) = crate::harness::report_dir() {
        let name = if quick {
            "cluster_churn.report.quick.json"
        } else {
            "cluster_churn.report.json"
        };
        let path = dir.join(name);
        if std::fs::write(&path, first_fit.to_json(64)).is_ok() {
            println!("cluster report written to {}\n", path.display());
        }
    }

    println!(
        "placement spread: chip1 took {} tenants under first-fit, {} under \
         least-loaded, of {} accepted",
        first_fit.per_chip[1].accepted, least_loaded.per_chip[1].accepted, first_fit.accepted
    );
}
