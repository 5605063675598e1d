//! The catalogue: the five workloads and every metric the benchmark
//! prints, with unit, direction and — for end-to-end metrics — the bound
//! by which a later change may worsen it. `BENCHMARK.json` at the
//! repository root restates this table for the driver; a unit test keeps
//! the two identical.
//!
//! Units: `s`, `us` and `ns` are **host** time; `sim_cycles` (and
//! `sim_cycles/s`) are **simulated** cycles of the modelled hardware.

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 22;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` and `compare` use.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A workload: a name and the one-line reason it was chosen.
#[derive(Debug)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why it is in the benchmark: what it exercises and bypasses.
    pub why: &'static str,
}

/// The five workloads. An *op* is one `ServeRuntime::step()` tick, or —
/// for `paper_static` — one cell run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "churn_1chip",
        why: "The paper's 6x6 chip under typical churn at ~84% core load: mapper search on a fragmented chip (cache hit rate ~0.13) plus execution, so a mapper or an execution gain both show.",
    },
    Workload {
        name: "fleet16_exec",
        why: "16 chips with long-lived tenants: execution (Machine::run_epoch plus the per-tick re-bind) is ~95% of a tick and admission ~3%. Exercises the simulator; bypasses the mapper.",
    },
    Workload {
        name: "place_hot",
        why: "16 chips, placement only, cache hit rate 0.999: exercises the placement cache and per-tick serve bookkeeping; bypasses mapper search and simulator. Also the memory-growth probe.",
    },
    Workload {
        name: "reconfig_storm",
        why: "Mixed 4-chip fleet with defrag, seeded core faults, rolling drains, audit and temporal checker on: the same layers used for reconfiguration, so a steady-state gain that costs it shows.",
    },
    Workload {
        name: "paper_static",
        why: "34 cells of the paper's Fig. 14/15/16: the only workload that runs compiled models, DMA/HBM and address translation; yields the three headline ratios (vChunk, UVM, MIG).",
    },
];

/// How far `compare` lets B's median fall behind A's on two result
/// files of the same seed: it is `WORSE` when it is behind by more than
/// `share` of A's median *and* by more than `floor` units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limit {
    /// Share of A's median.
    pub share: f64,
    /// Absolute amount, in the metric's unit.
    pub floor: f64,
}

const fn share(share: f64) -> Limit {
    Limit { share, floor: 0.0 }
}

/// The limit of a count that may not grow at all.
const NOT_ONE_MORE: Limit = share(0.0);

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// `bound` in `BENCHMARK.json`: the share of the parent's median by
    /// which the driver lets it worsen. The driver takes the medians of
    /// runs of *different* seeds made a quarter of an hour apart, so the
    /// bound has to cover the spread between request streams and the
    /// reference host's drift (medians of ten runs of the same code have
    /// moved by 22%).
    pub bound: f64,
    /// What `compare` allows between runs of the *same* seed.
    pub limit: Limit,
}

/// The end-to-end metrics, every one produced by every workload. The
/// same-seed limits are the ones the issue that defined the benchmark
/// fixed; `accept_ratio` carries its `fail_ratio`'s 0.002 absolute.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        limit: Limit {
            share: 0.25,
            floor: 0.05,
        },
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        limit: share(0.10),
    },
    EndToEnd {
        name: "op_iqm_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        limit: share(0.10),
    },
    EndToEnd {
        name: "op_tail10_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        limit: share(0.15),
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        limit: share(0.10),
    },
    EndToEnd {
        name: "accept_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.04,
        limit: Limit {
            share: 0.0,
            floor: 0.002,
        },
    },
];

/// A per-layer metric (layer = crate name before the first dot).
#[derive(Debug)]
pub struct PerLayer {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Set on the model's deterministic outputs, which repeat exactly at
    /// one seed: `compare` judges them by it. Timings of a single layer
    /// carry none.
    pub limit: Option<Limit>,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        limit: None,
    }
}

const fn pinned(name: &'static str, unit: &'static str, better: Better, limit: Limit) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        limit: Some(limit),
    }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run. A workload produces only
/// those of the layers it enters; the rest are absent from its rows (the
/// driver's result line, which must name every metric, carries 0).
pub const PER_LAYER: [PerLayer; 63] = [
    layer("op_p99_us", "us", Lower),
    layer("serve.admission_ns_per_tick", "ns", Lower),
    layer("serve.execution_ns_per_tick", "ns", Lower),
    layer("serve.defrag_ns_per_tick", "ns", Lower),
    layer("serve.drain_ns_per_tick", "ns", Lower),
    layer("serve.recovery_ns_per_tick", "ns", Lower),
    layer("serve.overhead_ns_per_tick", "ns", Lower),
    layer("serve.allocs_per_tick", "count", Lower),
    layer("serve.alloc_bytes_per_tick", "bytes", Lower),
    layer("serve.trace_events_per_tick", "count", Lower),
    layer("serve.final_drain_ns", "ns", Lower),
    layer("serve.report_ns", "ns", Lower),
    layer("serve.submitted", "count", Higher),
    layer("serve.accepted", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.queued_at_end", "count", Lower),
    layer("serve.migrations", "count", Lower),
    layer("serve.drain_migrations", "count", Lower),
    pinned("place_cycles_p50", "sim_cycles", Lower, share(0.02)),
    pinned("place_cycles_p99", "sim_cycles", Lower, share(0.02)),
    pinned(
        "fail_ratio",
        "ratio",
        Lower,
        Limit {
            share: 0.0,
            floor: 0.002,
        },
    ),
    layer("topo.cache_hits", "count", Higher),
    layer("topo.cache_misses", "count", Lower),
    layer("topo.cache_hit_ratio", "ratio", Higher),
    layer("topo.map_cold_ns_p50", "ns", Lower),
    layer("topo.map_cold_ns_p99", "ns", Lower),
    layer("topo.map_hit_ns", "ns", Lower),
    layer("topo.map_large_ns", "ns", Lower),
    layer("topo.freeset_update_ns", "ns", Lower),
    layer("core.create_ns", "ns", Lower),
    layer("core.destroy_ns", "ns", Lower),
    layer("core.plan_commit_ns", "ns", Lower),
    layer("core.services_ns", "ns", Lower),
    layer("core.config_cycles_per_create", "sim_cycles", Lower),
    layer("sim.run_epoch_ns", "ns", Lower),
    layer("sim.run_ns_per_cell", "ns", Lower),
    layer("sim.cycles_per_host_s", "sim_cycles/s", Higher),
    layer("sim.machine_cycles", "sim_cycles", Lower),
    layer("sim.noc_packets", "count", Lower),
    layer("sim.noc_contention_cycles", "sim_cycles", Lower),
    layer("sim.hbm_wait_cycles", "sim_cycles", Lower),
    layer("mem.range_translate_ns", "ns", Lower),
    layer("mem.page_translate_ns", "ns", Lower),
    layer("mem.buddy_alloc_free_ns", "ns", Lower),
    layer("mem.translation_cycles", "sim_cycles", Lower),
    layer("mem.rtt_hit_ratio", "ratio", Higher),
    layer("mem.iotlb_hit_ratio", "ratio", Higher),
    layer("workloads.compile_ns", "ns", Lower),
    layer("audit.tick_ns", "ns", Lower),
    pinned("audit.findings", "count", Lower, NOT_ONE_MORE),
    layer("temporal.fold_ns_per_event", "ns", Lower),
    layer("temporal.check_ns_per_event", "ns", Lower),
    pinned("temporal.findings", "count", Lower, NOT_ONE_MORE),
    layer("fault.onsets", "count", Lower),
    layer("fault.recovered", "count", Higher),
    layer("fault.lost", "count", Lower),
    layer("fault.mttr_mean_ticks", "ticks", Lower),
    layer("conc.fleet16_w2_ratio", "ratio", Higher),
    pinned("vchunk_vs_phys", "ratio", Higher, share(0.02)),
    pinned("vnpu_vs_uvm", "ratio", Higher, share(0.02)),
    pinned("vnpu_vs_mig", "ratio", Higher, share(0.02)),
    layer("trace_overhead_ratio", "ratio", Lower),
    layer("trace_accounted_ratio", "ratio", Higher),
];

/// Named values one run measured, by catalogue name.
pub type Measured = std::collections::BTreeMap<&'static str, f64>;

/// `(name, unit)` of every metric of a mode: per-layer for a traced run,
/// end-to-end otherwise, in catalogue order.
pub fn catalogue(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The unit of the metric called `name` (empty for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    catalogue(false)
        .into_iter()
        .chain(catalogue(true))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_obeys_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time carries the largest bound");
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program prints and `compare` judges by. They must not drift.
    #[test]
    fn benchmark_json_restates_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let file = json::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = file
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let rows = |key: &str| {
            file.get(key)
                .and_then(Json::as_arr)
                .expect("an array")
                .to_vec()
        };
        let text_of = |row: &Json, key: &str| {
            row.get(key)
                .and_then(Json::as_str)
                .expect("a string")
                .to_owned()
        };

        let workloads = rows("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(row.as_obj().map(<[_]>::len), Some(2));
            assert_eq!(text_of(row, "name"), w.name);
            assert_eq!(text_of(row, "why"), w.why);
        }
        let end_to_end = rows("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (row, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(row.as_obj().map(<[_]>::len), Some(4));
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = rows("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (row, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(row.as_obj().map(<[_]>::len), Some(3));
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), m.better.as_str());
        }
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            file.get("paths").and_then(Json::as_arr),
            Some(&[Json::str("benchmark")][..])
        );
    }
}
