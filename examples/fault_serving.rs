//! Fault-injection demo: a two-chip serving fleet under churn, with
//! chip 0 losing a whole mesh row of cores (and one NoC link) mid-run.
//!
//! The fault lifecycle is driven entirely by the serve loop's recovery
//! phase: the seeded `FaultPlan` lands its onsets, the `FaultDetector`
//! maps each dead resource to the tenants it affects, and the phase
//! resolves every one — remap-under-pin on the wounded chip where a
//! window exists, emergency cross-chip re-placement otherwise, self-heal
//! if the repair beats the recovery. While any fault is active the chip
//! serves degraded (slower fault-tolerant router arbitration), and a
//! tenant with no way out is declared lost eight ticks after detection
//! — never leaked.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example fault_serving
//! ```

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu_serve::{FaultPlan, ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;

fn main() {
    let onset = 40;
    let repair = 70;
    let mut cfg = ServeConfig::cluster(4022, 160, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 20;
    cfg.placement = Arc::new(LeastLoaded);
    // Row 1 of chip 0 (cores 6..12) dies at `onset` — a shared power
    // rail failing — plus the 24–25 NoC link; everything repairs at
    // `repair`.
    cfg.fault_plan = FaultPlan::new()
        .row_outage(0, 6, 1, onset, Some(repair))
        .link_fault(0, 24, 25, onset, Some(repair));
    let epochs = cfg.epochs;
    println!(
        "two 6x6 chips, {} epochs, seed {} — chip 0 loses mesh row 1 and \
         link 24-25 at tick {} (repaired at tick {})\n",
        epochs, cfg.traffic.seed, onset, repair
    );

    let mut rt = ServeRuntime::new(cfg);
    for _ in 0..epochs {
        let ev = rt.step().expect("serve tick");
        if ev.fault_onsets > 0 {
            println!(
                "tick {:>4}: {} fault(s) struck — {} tenant(s) queued for \
                 recovery, chip 0 degraded",
                ev.tick, ev.fault_onsets, ev.recoveries_pending,
            );
        }
        if ev.recoveries_remapped + ev.recoveries_replaced > 0 {
            println!(
                "tick {:>4}: recovered {} tenant(s) ({} remapped in place, \
                 {} re-placed cross-chip)",
                ev.tick,
                ev.recoveries_remapped + ev.recoveries_replaced,
                ev.recoveries_remapped,
                ev.recoveries_replaced,
            );
        }
        if ev.tenants_lost > 0 {
            println!(
                "tick {:>4}: {} tenant(s) lost at the recovery deadline",
                ev.tick, ev.tenants_lost
            );
        }
        if ev.fault_repairs > 0 {
            println!(
                "tick {:>4}: {} fault(s) repaired — chip 0 back to full \
                 health",
                ev.tick, ev.fault_repairs
            );
        }
    }
    rt.drain().expect("end-of-run drain");

    let report = rt.report();
    println!("\n{}", report.to_json(8));
    assert_eq!(report.recoveries_pending, 0, "recovery converged");
    assert_eq!(report.leaked_cores, 0, "faults never leak cores");
    assert_eq!(report.leaked_hbm_bytes, 0, "faults never leak HBM");
    println!(
        "\nrecovered {} tenant(s), mttr mean {:.2} / max {} ticks, {} \
         degraded chip-ticks — zero leaks",
        report.recovered_tenants(),
        report.mean_mttr_ticks(),
        report.mttr_max_ticks,
        report.degraded_ticks,
    );
}
