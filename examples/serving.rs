//! Dynamic serving demo: 60 epochs of tenant churn on the paper's 6×6
//! SIM chip.
//!
//! Requests arrive Poisson-ish (seeded, reproducible), each asking for a
//! virtual topology from a mixed catalogue (meshes, chains, awkward core
//! counts). The hypervisor admits them through its FIFO admission queue,
//! placements run through the memoized topology-mapping hot path, every
//! live tenant executes a ring workload each machine epoch, and expired
//! tenants depart — freeing cores and HBM for the next wave.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use vnpu_serve::{ServeConfig, ServeRuntime};

fn main() {
    let cfg = ServeConfig::standard(2026, 60);
    println!(
        "serving on a {}x{} chip, {} epochs, seed {}\n",
        cfg.chips[0].soc.mesh_width, cfg.chips[0].soc.mesh_height, cfg.epochs, cfg.traffic.seed
    );
    let report = ServeRuntime::new(cfg).run().expect("serving run completes");

    println!("{}\n", report.to_json(8));

    // Fragmentation trajectory, coarsely sampled: watch the free region
    // shatter and heal as tenants come and go.
    println!("tick  live  free  islands  connectivity");
    for s in report.fragmentation.iter().step_by(6) {
        println!(
            "{:>4}  {:>4}  {:>4}  {:>7}  {:>11.3}",
            s.tick, s.live_vnpus, s.free_cores, s.free_components, s.free_connectivity
        );
    }

    assert_eq!(report.leaked_cores, 0, "drained chip must hold no cores");
    assert_eq!(report.leaked_hbm_bytes, 0, "drained chip must hold no HBM");
    println!("\nno leaked cores, no leaked HBM — chip is pristine after drain");
}
