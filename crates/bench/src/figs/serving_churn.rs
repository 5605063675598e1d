//! **Serving churn** — the dynamic-provisioning scenario the paper's
//! static experiments stop short of: ≥1,000 vNPU create/destroy requests
//! streamed through the admission scheduler with execution epochs
//! interleaved, plus a microbenchmark of the mapping hot path with and
//! without the [`MappingCache`].
//!
//! Asserted invariants (both modes): the run is deterministic under its
//! seed, the mapping cache gets hits (popular shapes against recurring
//! free regions), and the drained chip ends with zero leaked cores and
//! zero leaked HBM bytes. Full mode additionally asserts the memoized
//! hot path is measurably faster than re-running Algorithm 1 per
//! request.

use crate::harness::Criterion;
use vnpu::VnpuRequest;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_topo::cache::{FreeSet, MappingCache};
use vnpu_topo::mapping::{Mapper, Strategy};
use vnpu_topo::{NodeId, Topology};

/// Fixed seed: the whole request stream, admission trace and report are
/// reproducible from this value.
const SEED: u64 = 0x5EED_1CC5;

fn churn_config(quick: bool) -> ServeConfig {
    let epochs = if quick { 1_300 } else { 4_000 };
    let mut cfg = ServeConfig::standard(SEED, epochs);
    // ~1 arrival per tick: a 1,300-epoch quick run comfortably clears
    // 1,000 requests while staying CI-fast.
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg
}

/// A churn-like placement workload for the cache microbenchmark: free
/// regions cycling through a few occupancy patterns × rotating popular
/// request shapes — the steady state a serving chip revisits.
fn placement_workload() -> (Topology, Vec<(FreeSet, Topology, Strategy)>) {
    let phys = Topology::mesh2d(6, 6);
    let occupancies: [&[u32]; 4] = [
        &[0, 1, 6, 7],
        &[14, 15, 20, 21, 26, 27],
        &[4, 5, 10, 11, 33, 34, 35],
        &[],
    ];
    let shapes = [
        VnpuRequest::mesh(2, 2),
        VnpuRequest::mesh(2, 3),
        VnpuRequest::cores(5),
    ];
    let strategy = Strategy::similar_topology().candidate_cap(400);
    let mut work = Vec::new();
    for occ in occupancies {
        let mut set = FreeSet::all_free(36);
        set.occupy_all(&occ.iter().map(|&c| NodeId(c)).collect::<Vec<_>>());
        for req in &shapes {
            work.push((set.clone(), req.topology().clone(), strategy.clone()));
        }
    }
    (phys, work)
}

/// Runs the churn scenario and the hot-path microbenchmark.
///
/// # Panics
///
/// Panics when any churn invariant fails — the bench doubles as the
/// acceptance gate for the serving runtime.
pub fn run(quick: bool) {
    println!("== serving_churn: dynamic vNPU lifecycle under load ==\n");

    // --- The churn run, twice: byte-identical reports or bust. ---
    let first = ServeRuntime::new(churn_config(quick))
        .run()
        .expect("churn run completes");
    let second = ServeRuntime::new(churn_config(quick))
        .run()
        .expect("churn rerun completes");
    assert_eq!(first, second, "same seed must reproduce the whole report");
    assert!(
        first.submitted >= 1_000,
        "churn must exceed 1,000 requests, got {}",
        first.submitted
    );
    assert!(
        first.cache_hit_rate() > 0.0,
        "mapping cache must get hits under churn: {:?}",
        first.cache
    );
    assert_eq!(first.leaked_cores, 0, "no cores may leak");
    assert_eq!(first.leaked_hbm_bytes, 0, "no HBM may leak");
    assert_eq!(
        first.accepted + first.rejected + first.queued_at_end,
        first.submitted,
        "every request accounted exactly once"
    );
    println!("{}\n", first.summary());

    // --- JSON report via the existing harness conventions. ---
    if let Some(dir) = crate::harness::report_dir() {
        let name = if quick {
            "serving_churn.report.quick.json"
        } else {
            "serving_churn.report.json"
        };
        let path = dir.join(name);
        if std::fs::write(&path, first.to_json(64)).is_ok() {
            println!("serve report written to {}\n", path.display());
        }
    }

    // --- Mapping hot path: cached vs uncached placement. ---
    let (phys, work) = placement_workload();
    let mapper = Mapper::new(&phys);
    // Verify equivalence before timing: a hit must replay the exact
    // uncached placement.
    let mut cache = MappingCache::default();
    for (set, req, strategy) in &work {
        let direct = mapper.map_in(set, req, strategy);
        let warm = mapper.map_cached(set, req, strategy, &mut cache);
        let hot = mapper.map_cached(set, req, strategy, &mut cache);
        assert_eq!(direct, warm, "cold cache pass equals direct mapping");
        assert_eq!(direct, hot, "cache hit equals direct mapping");
    }

    let mut c = Criterion::with_quick(quick);
    let mut g = c.benchmark_group("placement");
    g.bench_function("uncached", |b| {
        b.iter(|| {
            for (set, req, strategy) in &work {
                let _ = mapper.map_in(set, req, strategy);
            }
        });
    });
    g.bench_function("cached", |b| {
        let mut cache = MappingCache::default();
        // Warm once so the measurement is the steady serving state.
        for (set, req, strategy) in &work {
            let _ = mapper.map_cached(set, req, strategy, &mut cache);
        }
        b.iter(|| {
            for (set, req, strategy) in &work {
                let _ = mapper.map_cached(set, req, strategy, &mut cache);
            }
        });
    });
    g.finish();
    let uncached_ns = c.records()[0].median_ns;
    let cached_ns = c.records()[1].median_ns;
    let speedup = uncached_ns / cached_ns.max(1e-9);
    println!("\nmapping hot path: uncached / cached median = {speedup:.1}x");
    if !quick {
        assert!(
            speedup > 2.0,
            "the memoized hot path must be measurably faster (got {speedup:.2}x)"
        );
    }
    c.final_summary();
}
