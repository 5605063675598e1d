//! Background defragmentation demo: the same churn run twice — bare,
//! then with the [`GreedyDefrag`] policy committing live migrations
//! through the transactional placement-plan API every tick.
//!
//! Each tick the defragmenter reads the chip's fragmentation picture,
//! proposes the migration set that re-opens the largest exact-match
//! window (plus an HBM compaction when buddy fragmentation warrants
//! it), the hypervisor plans the set — pricing every op with its
//! `ReconfigCost` — and commits it atomically. The side-by-side
//! trajectories show the free region staying healthier and the paid
//! reconfiguration being fully accounted.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example defrag_serving
//! ```

use std::sync::Arc;
use vnpu::plan::GreedyDefrag;
use vnpu_serve::{ServeConfig, ServeReport, ServeRuntime};

fn config(defrag: bool) -> ServeConfig {
    let mut cfg = ServeConfig::standard(2027, 240);
    cfg.traffic.mean_interarrival_ticks = 1;
    // Tight HBM so memory fragmentation is real pressure.
    cfg.chips[0].hbm_bytes = 1 << 30;
    if defrag {
        cfg.defrag = Some(Arc::new(GreedyDefrag {
            max_memory_moves: 1,
            ..GreedyDefrag::default()
        }));
    }
    cfg
}

fn run(defrag: bool) -> ServeReport {
    ServeRuntime::new(config(defrag))
        .run()
        .expect("serving run completes")
}

fn main() {
    let cfg = config(false);
    println!(
        "churn on a {}x{} chip with {} MiB HBM, {} epochs, seed {} — \
         without, then with the defragmenter\n",
        cfg.chips[0].soc.mesh_width,
        cfg.chips[0].soc.mesh_height,
        cfg.chips[0].hbm_bytes >> 20,
        cfg.epochs,
        cfg.traffic.seed
    );
    let bare = run(false);
    let defragged = run(true);

    println!("[no defrag]\n{}\n", bare.to_json(8));
    println!("[defrag]\n{}\n", defragged.to_json(8));

    // Side-by-side fragmentation trajectory, coarsely sampled: largest
    // free window connectivity and buddy external fragmentation.
    println!("        |----- no defrag -----|  |------ defrag -------|");
    println!("tick    connectivity  hbm-frag    connectivity  hbm-frag");
    for (a, b) in bare
        .fragmentation
        .iter()
        .zip(&defragged.fragmentation)
        .step_by(20)
    {
        println!(
            "{:>5}   {:>12.3}  {:>8.3}    {:>12.3}  {:>8.3}",
            a.tick,
            a.free_connectivity,
            a.hbm_external_fragmentation,
            b.free_connectivity,
            b.hbm_external_fragmentation
        );
    }

    let mean = |r: &ServeReport| {
        r.fragmentation
            .iter()
            .map(|s| s.hbm_external_fragmentation)
            .sum::<f64>()
            / r.fragmentation.len().max(1) as f64
    };
    println!(
        "\nmean buddy external fragmentation: {:.3} bare vs {:.3} defragmented",
        mean(&bare),
        mean(&defragged)
    );
    println!(
        "defrag paid for it: {} migrations, {} config cycles, {} bytes \
         moved, {} tenant-pause cycles; largest-window gains totalled {} \
         cores",
        defragged.migrations,
        defragged.reconfig.config_cycles(),
        defragged.reconfig.data_move_bytes,
        defragged.reconfig.paused_cycles,
        defragged.frag_windows_recovered
    );

    assert_eq!(defragged.leaked_cores, 0, "drained chip must hold no cores");
    assert_eq!(defragged.leaked_hbm_bytes, 0, "no HBM leaks through defrag");
    assert!(defragged.migrations > 0, "the defragmenter must act");
    println!("\nno leaks after drain — migrations are fully reversible");
}
