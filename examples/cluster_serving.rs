//! Cluster serving demo: tenant churn over two *heterogeneous* chips —
//! the paper's 6×6 SIM chip next to a 4×4 sibling — behind one admission
//! queue, driven through the step API with a placement swap mid-run.
//!
//! The first half runs first-fit placement (load piles onto chip 0). At
//! the halfway epoch the loop swaps in least-loaded placement *without
//! stopping the runtime* — queued requests are kept, and the placement
//! distribution visibly shifts toward chip 1. Both chips' placements are
//! memoized in one shared mapping cache; entries never alias across the
//! two chip models because every key carries the chip's topology
//! fingerprint.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example cluster_serving
//! ```

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;

fn main() {
    let small = SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    };
    let epochs = 60u64;
    let mut cfg = ServeConfig::cluster(2026, epochs, vec![SocConfig::sim(), small]);
    // Busy front door: ~2 arrivals per tick keeps both chips loaded.
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 8;
    // Run the fleet invariant auditor after every tick: a healthy fleet
    // must produce zero findings across both placement regimes.
    cfg.audit = true;
    println!(
        "cluster serving: {} chips ({}), {} epochs, seed {}\n",
        cfg.chips.len(),
        cfg.chips
            .iter()
            .map(|c| format!("{}x{}", c.soc.mesh_width, c.soc.mesh_height))
            .collect::<Vec<_>>()
            .join(" + "),
        epochs,
        cfg.traffic.seed
    );

    let mut rt = ServeRuntime::new(cfg);
    println!("tick  live  queued  admitted  chips-run   placement");
    for tick in 0..epochs {
        if tick == epochs / 2 {
            // Swap the placement policy at an epoch boundary, mid-run:
            // the step-driven API keeps the queue and the live tenants.
            rt.set_placement(Arc::new(LeastLoaded));
            println!("---- placement swap: least-loaded ----");
        }
        let ev = rt.step().expect("tick completes");
        if tick % 6 == 0 {
            println!(
                "{:>4}  {:>4}  {:>6}  {:>8}  {:>9}   {}",
                ev.tick,
                rt.live_count(),
                ev.queued,
                ev.admitted.len(),
                ev.executed_chips,
                rt.cluster().placement().name(),
            );
        }
    }
    rt.drain().expect("drain completes");
    let report = rt.report();

    println!("\n{}\n", report.to_json(8));

    assert_eq!(report.per_chip.len(), 2);
    assert!(
        report.per_chip.iter().all(|c| c.accepted > 0),
        "both chips must take load"
    );
    assert!(
        report.cache.hits > 0,
        "the shared mapping cache must get hits"
    );
    assert_eq!(report.leaked_cores, 0, "drained fleet must hold no cores");
    assert_eq!(report.leaked_hbm_bytes, 0, "drained fleet must hold no HBM");
    assert_eq!(
        report.audit_findings, 0,
        "the per-tick fleet auditor must stay silent on a healthy fleet"
    );
    println!(
        "no leaked cores, no leaked HBM, zero audit findings — both chips \
         pristine after drain"
    );
}
