//! Drain-for-maintenance demo: a two-chip serving fleet under churn,
//! with chip 0 taken out of service mid-run.
//!
//! The drain lifecycle is `begin_drain` → budgeted `drain_tick`s (run
//! automatically by the serve loop's maintenance phase) →
//! `complete_drain` once the chip is empty → `undrain` when the
//! maintenance window closes. While the chip drains, no placement and no
//! fleet fit hint ever names it; its tenants cross to the other chip via
//! create-before-destroy migrations whose `ReconfigCost` (dominated by
//! the data-movement term) is fully accounted in the report.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example drain_serving
//! ```

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu::plan::ReconfigBudget;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;

fn main() {
    let mut cfg = ServeConfig::cluster(4021, 240, vec![SocConfig::sim(), SocConfig::sim()]);
    cfg.traffic.mean_interarrival_ticks = 2;
    cfg.traffic.mean_lifetime_epochs = 10;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.drain_budget = ReconfigBudget {
        max_migrations: 2,
        ..ReconfigBudget::default()
    };
    let epochs = cfg.epochs;
    println!(
        "two 6x6 chips, {} epochs, seed {} — chip 0 drains for maintenance \
         mid-run (budget: {} moves/epoch)\n",
        epochs, cfg.traffic.seed, cfg.drain_budget.max_migrations
    );

    let mut rt = ServeRuntime::new(cfg);

    // Warm the fleet until chip 0 carries real load.
    while rt.cluster().chip(0).vnpu_count() < 4 {
        rt.step().expect("warm tick");
    }
    println!(
        "tick {:>4}: begin_drain(0) with {} tenants resident on chip 0",
        rt.tick_index(),
        rt.cluster().chip(0).vnpu_count()
    );
    rt.begin_drain(0).expect("begin_drain");

    // The maintenance phase evacuates chip 0, budgeted per epoch.
    while rt.cluster().chip(0).vnpu_count() > 0 {
        let ev = rt.step().expect("drain tick");
        if ev.drain_migrations > 0 {
            println!(
                "tick {:>4}: moved {} tenant(s) off chip 0 — {} remain \
                 (chip 1 now holds {})",
                ev.tick,
                ev.drain_migrations,
                rt.cluster().chip(0).vnpu_count(),
                rt.cluster().chip(1).vnpu_count(),
            );
        }
        assert!(
            ev.admitted.iter().all(|id| id.chip != 0),
            "no placement may land on the draining chip"
        );
    }
    rt.complete_drain(0).expect("chip 0 is empty");
    println!(
        "tick {:>4}: complete_drain(0) — maintenance window open\n",
        rt.tick_index()
    );

    // Maintenance happens off-stage; serving continues on chip 1 alone.
    for _ in 0..10 {
        rt.step().expect("maintenance tick");
    }
    rt.undrain(0).expect("hand the chip back");
    println!(
        "tick {:>4}: undrain(0) — chip 0 schedulable again\n",
        rt.tick_index()
    );

    while rt.tick_index() < epochs {
        rt.step().expect("tick");
    }
    rt.drain().expect("end-of-run drain");
    let report = rt.report();
    println!("{}\n", report.to_json(8));
    println!(
        "maintenance paid for itself in the open: {} tenants evacuated, \
         {} config cycles, {} bytes moved cross-chip, {} tenant-pause cycles",
        report.drain_migrations,
        report.drain_reconfig.config_cycles(),
        report.drain_reconfig.data_move_bytes,
        report.drain_reconfig.paused_cycles,
    );

    assert!(report.drain_migrations > 0, "the drain must move tenants");
    assert_eq!(report.leaked_cores, 0, "no cores leak through a drain");
    assert_eq!(report.leaked_hbm_bytes, 0, "no HBM leaks through a drain");
    assert!(
        report.per_chip.iter().all(|c| c.schedulable()),
        "the whole fleet is back in service"
    );
    println!("\nno leaks, fleet back in service — drains are fully reversible");
}
