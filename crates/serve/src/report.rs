//! The churn-run report: admission outcomes, placement latency
//! percentiles, mapping-cache effectiveness, fragmentation trajectory,
//! per-chip breakdowns and leak accounting, with hand-rolled JSON output
//! (the offline workspace has no serde).

use vnpu::drain::ChipSchedState;
use vnpu::plan::ReconfigCost;
use vnpu_topo::cache::CacheStats;

/// One per-tick fragmentation sample, aggregated across the cluster's
/// chips (sums for counts, free-core-weighted means for ratios).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragSample {
    /// Tick (= epoch) index.
    pub tick: u64,
    /// Free physical cores across all chips.
    pub free_cores: u32,
    /// Connected components of the free regions, summed over chips.
    pub free_components: usize,
    /// Free-core-weighted mean connectivity (1.0 when nothing is free).
    pub free_connectivity: f64,
    /// Mean buddy external fragmentation across chips.
    pub hbm_external_fragmentation: f64,
    /// Live virtual NPUs across all chips after this tick's admissions.
    pub live_vnpus: usize,
}

/// Per-chip section of a [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipReport {
    /// Chip index within the cluster.
    pub chip: usize,
    /// Mesh width of the chip.
    pub mesh_width: u32,
    /// Mesh height of the chip.
    pub mesh_height: u32,
    /// Requests placed onto this chip.
    pub accepted: u64,
    /// Tenants destroyed on this chip over the run.
    pub departed: u64,
    /// Live migrations committed on this chip by defragmentation.
    pub migrations: u64,
    /// Tenants evacuated *off* this chip by the maintenance phase while
    /// it drained.
    pub drain_evacuated: u64,
    /// Tenants this chip received from other chips' drains.
    pub drain_received: u64,
    /// The chip's drain-lifecycle state at report time — distinguishes a
    /// chip still being evacuated ([`ChipSchedState::Draining`]) from one
    /// already under maintenance ([`ChipSchedState::Drained`]).
    pub sched: ChipSchedState,
    /// Live virtual NPUs at report time — the residual occupancy of a
    /// draining chip (0 once its evacuation completed, and 0 for every
    /// chip after the end-of-run drain).
    pub residual_vnpus: u64,
    /// Machine epochs executed on this chip.
    pub executed_epochs: u64,
    /// Simulated machine cycles on this chip.
    pub machine_cycles: u64,
    /// Hardware-fault onsets that landed on this chip over the run.
    pub fault_onsets: u64,
    /// Hardware faults repaired on this chip over the run.
    pub fault_repairs: u64,
    /// Affected tenants this chip recovered in place (remap-under-pin).
    pub recoveries_remapped: u64,
    /// Affected tenants evacuated *off* this chip by an emergency
    /// cross-chip re-placement.
    pub recoveries_replaced: u64,
    /// Affected tenants on this chip declared lost (no landing spot
    /// within the recovery deadline).
    pub tenants_lost: u64,
    /// Ticks this chip served in degraded mode (any core or link fault
    /// active).
    pub degraded_ticks: u64,
    /// Cores still faulted at report time — dead hardware, excluded from
    /// [`ChipReport::leaked_cores`].
    pub faulted_cores: u64,
    /// Cores still marked used at report time (0 after a drain; unowned
    /// faulted cores are counted as dead hardware, not leaks).
    pub leaked_cores: u32,
    /// HBM bytes still allocated at report time (0 after a drain).
    pub leaked_hbm_bytes: u64,
    /// Wall-clock spent in this chip's machine epochs, in nanoseconds
    /// (always 0 unless the run collected phase timing —
    /// `ServeConfig::time_phases` — so untimed reports stay
    /// deterministic).
    pub exec_nanos: u64,
}

impl ChipReport {
    /// Whether the chip was schedulable at report time (`false` while
    /// draining or under maintenance).
    pub fn schedulable(&self) -> bool {
        self.sched == ChipSchedState::Schedulable
    }
}

/// Summary of one serving churn run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seed that reproduces the run.
    pub seed: u64,
    /// Ticks (= epochs) simulated.
    pub epochs: u64,
    /// Requests generated and submitted.
    pub submitted: u64,
    /// Requests placed.
    pub accepted: u64,
    /// Requests permanently rejected.
    pub rejected: u64,
    /// Requests still queued when the run ended.
    pub queued_at_end: u64,
    /// Tenants destroyed over the run (departures).
    pub departed: u64,
    /// Median time-to-placement in controller cycles (submit → admit).
    pub p50_placement_cycles: u64,
    /// 99th-percentile time-to-placement in controller cycles.
    pub p99_placement_cycles: u64,
    /// Worst observed time-to-placement in controller cycles.
    pub max_placement_cycles: u64,
    /// Live migrations committed by the defragmentation phase.
    pub migrations: u64,
    /// Tenants evacuated off draining chips by the maintenance phase.
    pub drain_migrations: u64,
    /// Summed [`ReconfigCost`] every drain evacuation paid (the
    /// cross-chip data-movement term dominates).
    pub drain_reconfig: ReconfigCost,
    /// Summed [`ReconfigCost`] every migration paid (routing/RTT
    /// re-deployment cycles, data-movement bytes, paused-tenant time).
    pub reconfig: ReconfigCost,
    /// Cumulative growth of largest free-core windows achieved by defrag
    /// passes (cores).
    pub frag_windows_recovered: u64,
    /// Cumulative reduction of buddy external fragmentation achieved by
    /// defrag passes (sum of per-pass deltas, each in `[0, 1]`).
    pub hbm_frag_recovered: f64,
    /// Mapping-cache counters (the cluster's shared cache).
    pub cache: CacheStats,
    /// Fragmentation trajectory, one aggregated sample per tick.
    pub fragmentation: Vec<FragSample>,
    /// Machine epochs executed, summed over chips (0 when execution is
    /// disabled).
    pub executed_epochs: u64,
    /// Total simulated machine cycles across chips and epochs.
    pub machine_cycles: u64,
    /// Controller cycles consumed over the run (ticks + configuration).
    pub controller_cycles: u64,
    /// Cores still marked used across all chips (must be 0 after the
    /// final drain).
    pub leaked_cores: u32,
    /// HBM bytes still allocated across all chips (must be 0 after the
    /// final drain).
    pub leaked_hbm_bytes: u64,
    /// Invariant violations reported by the post-tick fleet audit over
    /// the whole run (always 0 when auditing is disabled — and a healthy
    /// audited fleet reports 0 too, so a clean audited run's report is
    /// byte-identical to the unaudited one).
    pub audit_findings: u64,
    /// Temporal-property violations the online checker
    /// ([`vnpu_temporal`]) proved over the run (always 0 when
    /// `ServeConfig::temporal` is off — and 0 on a healthy fleet even
    /// with it on, so a checked run's report is byte-identical to the
    /// unchecked one).
    pub temporal_findings: u64,
    /// Hardware-fault onsets injected over the run (cores and links).
    pub faults_injected: u64,
    /// Hardware faults repaired over the run.
    pub faults_repaired: u64,
    /// Affected tenants recovered by an in-place remap-under-pin.
    pub recoveries_remapped: u64,
    /// Affected tenants recovered by an emergency cross-chip
    /// re-placement.
    pub recoveries_replaced: u64,
    /// Affected tenants whose fault was repaired under them before any
    /// recovery action landed.
    pub recoveries_self_healed: u64,
    /// Affected tenants declared lost (no landing spot within the
    /// recovery phase's deadline, 8 ticks after detection). Lost tenants
    /// are also counted in [`ServeReport::departed`].
    pub tenants_lost: u64,
    /// Affected tenants still awaiting recovery at report time (0 after
    /// the end-of-run drain).
    pub recoveries_pending: u64,
    /// Summed [`ReconfigCost`] every recovery action paid (remaps and
    /// emergency re-placements).
    pub recovery_reconfig: ReconfigCost,
    /// Chip-ticks served in degraded mode (the per-hop router penalty
    /// active), summed over chips.
    pub degraded_ticks: u64,
    /// Summed ticks-to-recover over every recovered tenant (detection →
    /// recovery; 0 = same tick).
    pub mttr_total_ticks: u64,
    /// Worst observed ticks-to-recover.
    pub mttr_max_ticks: u64,
    /// Echo of `ServeConfig::workers`, which nothing else reads (the
    /// tick is single-threaded); kept because the pinned report JSON
    /// prints the line.
    pub workers: usize,
    /// Wall-clock spent in the fault-recovery phase, in nanoseconds (0
    /// unless the run collected phase timing — `ServeConfig::time_phases`
    /// — so untimed reports stay deterministic).
    pub recovery_nanos: u64,
    /// Wall-clock spent in the admission phase, in nanoseconds (0
    /// unless phase timing was on).
    pub admission_nanos: u64,
    /// Wall-clock spent in the drain/maintenance phase, in nanoseconds
    /// (0 unless phase timing was on).
    pub drain_nanos: u64,
    /// Wall-clock spent in the defragmentation phase, in nanoseconds (0
    /// unless phase timing was on).
    pub defrag_nanos: u64,
    /// Wall-clock spent in the execution phase, in nanoseconds (0
    /// unless phase timing was on).
    pub execution_nanos: u64,
    /// Per-chip breakdowns, in chip order.
    pub per_chip: Vec<ChipReport>,
}

impl ServeReport {
    /// Cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Tenants that recovered from a hardware fault by any path (remap,
    /// emergency re-placement, or a repair landing under them).
    pub fn recovered_tenants(&self) -> u64 {
        self.recoveries_remapped + self.recoveries_replaced + self.recoveries_self_healed
    }

    /// Mean ticks-to-recover over every recovered tenant (0.0 when no
    /// tenant needed recovery). Lost tenants are excluded — they never
    /// recovered; [`ServeReport::mttr_max_ticks`] still bounds the
    /// successful tail.
    pub fn mean_mttr_ticks(&self) -> f64 {
        let recovered = self.recovered_tenants();
        if recovered == 0 {
            return 0.0;
        }
        self.mttr_total_ticks as f64 / recovered as f64
    }

    /// Serializes the report as a JSON object (fragmentation trajectory
    /// included, down-sampled to at most `max_samples` points; pass
    /// `usize::MAX` for everything).
    pub fn to_json(&self, max_samples: usize) -> String {
        let step = self.fragmentation.len().div_ceil(max_samples.max(1)).max(1);
        let mut frag = String::from("[");
        let mut first = true;
        for s in self.fragmentation.iter().step_by(step) {
            if !first {
                frag.push(',');
            }
            first = false;
            frag.push_str(&format!(
                "{{\"tick\":{},\"free_cores\":{},\"free_components\":{},\
                 \"free_connectivity\":{:.4},\"hbm_external_fragmentation\":{:.4},\
                 \"live_vnpus\":{}}}",
                s.tick,
                s.free_cores,
                s.free_components,
                s.free_connectivity,
                s.hbm_external_fragmentation,
                s.live_vnpus
            ));
        }
        frag.push(']');
        let mut chips = String::from("[");
        for (i, c) in self.per_chip.iter().enumerate() {
            if i > 0 {
                chips.push(',');
            }
            chips.push_str(&format!(
                "{{\"chip\":{},\"mesh\":\"{}x{}\",\"accepted\":{},\
                 \"departed\":{},\"migrations\":{},\
                 \"drain_evacuated\":{},\"drain_received\":{},\
                 \"schedulable\":{},\"sched_state\":\"{}\",\"residual_vnpus\":{},\
                 \"executed_epochs\":{},\
                 \"machine_cycles\":{},\
                 \"fault_onsets\":{},\"fault_repairs\":{},\
                 \"recoveries_remapped\":{},\"recoveries_replaced\":{},\
                 \"tenants_lost\":{},\"degraded_ticks\":{},\
                 \"faulted_cores\":{},\
                 \"leaked_cores\":{},\"leaked_hbm_bytes\":{},\
                 \"exec_nanos\":{}}}",
                c.chip,
                c.mesh_width,
                c.mesh_height,
                c.accepted,
                c.departed,
                c.migrations,
                c.drain_evacuated,
                c.drain_received,
                c.schedulable(),
                c.sched,
                c.residual_vnpus,
                c.executed_epochs,
                c.machine_cycles,
                c.fault_onsets,
                c.fault_repairs,
                c.recoveries_remapped,
                c.recoveries_replaced,
                c.tenants_lost,
                c.degraded_ticks,
                c.faulted_cores,
                c.leaked_cores,
                c.leaked_hbm_bytes,
                c.exec_nanos,
            ));
        }
        chips.push(']');
        format!(
            "{{\n  \"seed\": {},\n  \"epochs\": {},\n  \"submitted\": {},\n  \
             \"accepted\": {},\n  \"rejected\": {},\n  \"queued_at_end\": {},\n  \
             \"departed\": {},\n  \"p50_placement_cycles\": {},\n  \
             \"p99_placement_cycles\": {},\n  \"max_placement_cycles\": {},\n  \
             \"migrations\": {},\n  \"reconfig_config_cycles\": {},\n  \
             \"reconfig_data_move_bytes\": {},\n  \
             \"reconfig_paused_cycles\": {},\n  \
             \"drain_migrations\": {},\n  \
             \"drain_reconfig_config_cycles\": {},\n  \
             \"drain_reconfig_data_move_bytes\": {},\n  \
             \"drain_reconfig_paused_cycles\": {},\n  \
             \"frag_windows_recovered\": {},\n  \
             \"hbm_frag_recovered\": {:.4},\n  \
             \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
             \"cache_hit_rate\": {:.4},\n  \"cache_evictions\": {},\n  \
             \"executed_epochs\": {},\n  \"machine_cycles\": {},\n  \
             \"controller_cycles\": {},\n  \"leaked_cores\": {},\n  \
             \"leaked_hbm_bytes\": {},\n  \"audit_findings\": {},\n  \
             \"temporal_findings\": {},\n  \
             \"faults_injected\": {},\n  \"faults_repaired\": {},\n  \
             \"recoveries_remapped\": {},\n  \"recoveries_replaced\": {},\n  \
             \"recoveries_self_healed\": {},\n  \"tenants_lost\": {},\n  \
             \"recoveries_pending\": {},\n  \
             \"recovery_reconfig_config_cycles\": {},\n  \
             \"recovery_reconfig_data_move_bytes\": {},\n  \
             \"recovery_reconfig_paused_cycles\": {},\n  \
             \"degraded_ticks\": {},\n  \
             \"mttr_mean_ticks\": {:.4},\n  \"mttr_max_ticks\": {},\n  \
             \"workers\": {},\n  \
             \"recovery_nanos\": {},\n  \
             \"admission_nanos\": {},\n  \"drain_nanos\": {},\n  \
             \"defrag_nanos\": {},\n  \"execution_nanos\": {},\n  \
             \"chips\": {},\n  \
             \"fragmentation\": {}\n}}",
            self.seed,
            self.epochs,
            self.submitted,
            self.accepted,
            self.rejected,
            self.queued_at_end,
            self.departed,
            self.p50_placement_cycles,
            self.p99_placement_cycles,
            self.max_placement_cycles,
            self.migrations,
            self.reconfig.config_cycles(),
            self.reconfig.data_move_bytes,
            self.reconfig.paused_cycles,
            self.drain_migrations,
            self.drain_reconfig.config_cycles(),
            self.drain_reconfig.data_move_bytes,
            self.drain_reconfig.paused_cycles,
            self.frag_windows_recovered,
            self.hbm_frag_recovered,
            self.cache.hits,
            self.cache.misses,
            self.cache_hit_rate(),
            self.cache.evictions,
            self.executed_epochs,
            self.machine_cycles,
            self.controller_cycles,
            self.leaked_cores,
            self.leaked_hbm_bytes,
            self.audit_findings,
            self.temporal_findings,
            self.faults_injected,
            self.faults_repaired,
            self.recoveries_remapped,
            self.recoveries_replaced,
            self.recoveries_self_healed,
            self.tenants_lost,
            self.recoveries_pending,
            self.recovery_reconfig.config_cycles(),
            self.recovery_reconfig.data_move_bytes,
            self.recovery_reconfig.paused_cycles,
            self.degraded_ticks,
            self.mean_mttr_ticks(),
            self.mttr_max_ticks,
            self.workers,
            self.recovery_nanos,
            self.admission_nanos,
            self.drain_nanos,
            self.defrag_nanos,
            self.execution_nanos,
            chips,
            frag,
        )
    }
}

/// Percentile over a sorted slice: the `p`-th percentile element (nearest
/// -rank). Returns 0 for empty input.
pub(crate) fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_math() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = ServeReport {
            seed: 1,
            epochs: 2,
            submitted: 3,
            accepted: 2,
            rejected: 1,
            queued_at_end: 0,
            departed: 2,
            p50_placement_cycles: 10,
            p99_placement_cycles: 20,
            max_placement_cycles: 30,
            migrations: 1,
            drain_migrations: 2,
            drain_reconfig: ReconfigCost {
                routing_cycles: 10,
                rtt_cycles: 4,
                data_move_bytes: 1 << 20,
                paused_cycles: 131_086,
            },
            reconfig: ReconfigCost {
                routing_cycles: 100,
                rtt_cycles: 44,
                data_move_bytes: 4096,
                paused_cycles: 656,
            },
            frag_windows_recovered: 9,
            hbm_frag_recovered: 0.25,
            cache: CacheStats::default(),
            fragmentation: vec![FragSample {
                tick: 0,
                free_cores: 36,
                free_components: 1,
                free_connectivity: 1.0,
                hbm_external_fragmentation: 0.0,
                live_vnpus: 0,
            }],
            executed_epochs: 2,
            machine_cycles: 1000,
            controller_cycles: 99,
            leaked_cores: 0,
            leaked_hbm_bytes: 0,
            audit_findings: 0,
            temporal_findings: 0,
            faults_injected: 2,
            faults_repaired: 1,
            recoveries_remapped: 1,
            recoveries_replaced: 1,
            recoveries_self_healed: 0,
            tenants_lost: 1,
            recoveries_pending: 0,
            recovery_reconfig: ReconfigCost {
                routing_cycles: 20,
                rtt_cycles: 8,
                data_move_bytes: 2048,
                paused_cycles: 300,
            },
            degraded_ticks: 3,
            mttr_total_ticks: 4,
            mttr_max_ticks: 3,
            workers: 4,
            recovery_nanos: 0,
            admission_nanos: 1_500_000,
            drain_nanos: 0,
            defrag_nanos: 0,
            execution_nanos: 2_500_000,
            per_chip: vec![ChipReport {
                chip: 0,
                mesh_width: 6,
                mesh_height: 6,
                accepted: 2,
                departed: 2,
                migrations: 1,
                drain_evacuated: 2,
                drain_received: 0,
                sched: ChipSchedState::Draining,
                residual_vnpus: 0,
                executed_epochs: 2,
                machine_cycles: 1000,
                fault_onsets: 2,
                fault_repairs: 1,
                recoveries_remapped: 1,
                recoveries_replaced: 1,
                tenants_lost: 1,
                degraded_ticks: 3,
                faulted_cores: 1,
                leaked_cores: 0,
                leaked_hbm_bytes: 0,
                exec_nanos: 2_500_000,
            }],
        };
        let json = r.to_json(usize::MAX);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"migrations\": 1"));
        assert!(json.contains("\"reconfig_paused_cycles\": 656"));
        assert!(json.contains("\"drain_migrations\": 2"));
        assert!(json.contains("\"drain_reconfig_paused_cycles\": 131086"));
        assert!(json.contains("\"drain_evacuated\":2"));
        assert!(json.contains("\"schedulable\":false"));
        assert!(json.contains("\"sched_state\":\"draining\""));
        assert!(json.contains("\"audit_findings\": 0"));
        assert!(json.contains("\"temporal_findings\": 0"));
        assert!(json.contains("\"frag_windows_recovered\": 9"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"admission_nanos\": 1500000"));
        assert!(json.contains("\"execution_nanos\": 2500000"));
        assert!(json.contains("\"exec_nanos\":2500000"));
        assert!(json.contains("\"faults_injected\": 2"));
        assert!(json.contains("\"faults_repaired\": 1"));
        assert!(json.contains("\"recoveries_remapped\": 1"));
        assert!(json.contains("\"tenants_lost\": 1"));
        assert!(json.contains("\"recovery_reconfig_paused_cycles\": 300"));
        assert!(json.contains("\"degraded_ticks\": 3"));
        assert!(
            json.contains("\"mttr_mean_ticks\": 2.0000"),
            "4 ticks / 2 recovered"
        );
        assert!(json.contains("\"mttr_max_ticks\": 3"));
        assert!(json.contains("\"recovery_nanos\": 0"));
        assert!(json.contains("\"fault_onsets\":2"));
        assert!(json.contains("\"faulted_cores\":1"));
        assert!(json.contains("\"degraded_ticks\":3"));
        assert!(json.contains("\"mesh\":\"6x6\""));
        assert!(json.contains("\"chips\": [{"));
        assert!(json.contains("\"fragmentation\": [{"));
        assert_eq!(r.recovered_tenants(), 2);
        assert!((r.mean_mttr_ticks() - 2.0).abs() < 1e-9);
        assert!(!r.per_chip[0].schedulable());
    }

    #[test]
    fn chip_report_distinguishes_draining_from_drained() {
        let base = ChipReport {
            chip: 1,
            mesh_width: 4,
            mesh_height: 4,
            accepted: 0,
            departed: 0,
            migrations: 0,
            drain_evacuated: 0,
            drain_received: 0,
            sched: ChipSchedState::Drained,
            residual_vnpus: 0,
            executed_epochs: 0,
            machine_cycles: 0,
            fault_onsets: 0,
            fault_repairs: 0,
            recoveries_remapped: 0,
            recoveries_replaced: 0,
            tenants_lost: 0,
            degraded_ticks: 0,
            faulted_cores: 0,
            leaked_cores: 0,
            leaked_hbm_bytes: 0,
            exec_nanos: 0,
        };
        assert!(!base.schedulable());
        let schedulable = ChipReport {
            sched: ChipSchedState::Schedulable,
            ..base.clone()
        };
        assert!(schedulable.schedulable());
    }
}
