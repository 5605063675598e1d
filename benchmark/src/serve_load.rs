//! The four serve workloads: their configurations, the rolling-drain
//! driver of `reconfig_storm`, and one measured *round* — a fresh
//! `ServeRuntime`, warm-up, the timed tick loop, the final drain and the
//! correctness gate.
//!
//! Load shape: an open loop in *simulated* time — the seeded
//! `ArrivalGenerator` offers about one request per tick whatever the
//! host's speed — and a batch in *host* time, so throughput is ticks per
//! second at a fixed tick count. Single thread, `workers = 1`.

use crate::alloc;
use crate::api::{
    check_trace, FaultPlan, FleetAuditor, GreedyDefrag, LeastLoaded, ServeConfig, ServeReport,
    ServeRuntime, SocConfig, TraceFold, VnpuError,
};
use crate::span::Recorder;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Ticks run before timing starts, so caches are filled and the fleet is
/// at its steady load; they count towards `setup_s`.
pub const WARMUP_TICKS: u64 = 200;

/// Ticks between the traced run's outside calls of the fleet audit.
const AUDIT_SAMPLE_TICKS: u64 = 50;

/// One serve workload.
#[derive(Debug)]
pub struct ServeWorkload {
    /// Name, as in the catalogue.
    pub name: &'static str,
    /// Timed ticks of one round (about 1.5–2 s on the reference host).
    pub round_ticks: u64,
    /// Ticks per second the seed commit reached on the reference host.
    /// It turns `--seconds` into a count of request streams, so run
    /// length is a tick count: parent and change time the same work.
    seed_ops_per_s: f64,
    /// The share of the seconds asked for that the workload measures
    /// for. `place_hot` takes 0.7: its ticks never enter the simulator,
    /// it spreads 1–2% on a calm host, and what it spreads on a busy one
    /// is the host's drift, which more ticks do not average — so the
    /// driver's time limit over all runs is spent on the other three.
    seconds_share: f64,
    /// Whether the benchmark drives a rolling drain (`reconfig_storm`).
    pub rolling_drain: bool,
    /// Whether the offered load sits at the fleet's capacity, so that a
    /// queue stands at the end of a round (`churn_1chip`: between 0.1% and
    /// 7% of a stream's requests, and `accept_ratio` counts them as
    /// failed). Everywhere else a standing queue fails the gate.
    saturated: bool,
    build: fn(u64, u64) -> ServeConfig,
}

/// The serve workload called `name`.
pub fn by_name(name: &str) -> Option<&'static ServeWorkload> {
    SERVE_WORKLOADS.iter().find(|w| w.name == name)
}

/// The four serve workloads, in catalogue order.
pub const SERVE_WORKLOADS: [ServeWorkload; 4] = [
    ServeWorkload {
        name: "churn_1chip",
        seed_ops_per_s: 2050.0,
        seconds_share: 1.0,
        round_ticks: 4_000,
        rolling_drain: false,
        saturated: true,
        build: churn_1chip,
    },
    ServeWorkload {
        name: "fleet16_exec",
        seed_ops_per_s: 1060.0,
        seconds_share: 1.0,
        round_ticks: 2_000,
        rolling_drain: false,
        saturated: false,
        build: fleet16_exec,
    },
    // 40 000 ticks, not 50 000: there `peak_rss_mib` read 25 or 31 MiB by
    // the seed — some streams reach one more doubling of a per-tick
    // vector — and here every seed tried reads 22–24.
    ServeWorkload {
        name: "place_hot",
        seed_ops_per_s: 34000.0,
        seconds_share: 0.7,
        round_ticks: 40_000,
        rolling_drain: false,
        saturated: false,
        build: place_hot,
    },
    ServeWorkload {
        name: "reconfig_storm",
        seed_ops_per_s: 1630.0,
        seconds_share: 1.0,
        round_ticks: 2_500,
        rolling_drain: true,
        saturated: false,
        build: reconfig_storm,
    },
];

/// What smoke mode divides every round's tick count by.
pub const SMOKE_DIVISOR: u64 = 10;

/// Times a run plays each request stream. Per tick the fastest pass
/// counts: the simulated work is identical, so what the passes differ by
/// is the host's interference. Three, not two: a tick is misjudged only
/// when a busy spell of the host covers every pass of it, and the tail
/// metric holds the slowest tenth of the ticks — with a fifth of the
/// host's time disturbed two passes leave 4% of the ticks disturbed,
/// three under 1%. Every later pass is also the stream's same-seed rerun.
pub const PASSES: u64 = 3;

impl ServeWorkload {
    /// Timed ticks of one round, in smoke mode or not.
    pub fn ticks(&self, smoke: bool) -> u64 {
        if smoke {
            self.round_ticks / SMOKE_DIVISOR
        } else {
            self.round_ticks
        }
    }

    /// Distinct request streams of a run that measures for `seconds`:
    /// as many as the seed commit played [`PASSES`] times in the
    /// workload's share of that time on the reference host (one in smoke
    /// mode).
    pub fn streams(&self, seconds: f64, smoke: bool) -> u64 {
        if smoke {
            return 1;
        }
        let stream_s = (PASSES * self.round_ticks) as f64 / self.seed_ops_per_s;
        ((seconds * self.seconds_share / stream_s).round() as u64).max(1)
    }

    /// The configuration for `ticks` ticks (warm-up included) of the
    /// request stream `seed` generates.
    pub fn config(&self, seed: u64, ticks: u64) -> ServeConfig {
        (self.build)(seed, ticks)
    }
}

/// One 6×6 chip, execution on, FIFO / first-fit, one arrival per tick
/// living 6 ticks: about 84% core load on a fragmented chip.
fn churn_1chip(seed: u64, ticks: u64) -> ServeConfig {
    let mut cfg = ServeConfig::cluster(seed, ticks, vec![SocConfig::sim()]);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 6;
    cfg.traffic.candidate_cap = 400;
    cfg
}

/// Sixteen 6×6 chips, least-loaded placement, tenants living 30 ticks:
/// many residents to execute, few placements to search for.
fn fleet16_exec(seed: u64, ticks: u64) -> ServeConfig {
    let mut cfg = ServeConfig::cluster(seed, ticks, vec![SocConfig::sim(); 16]);
    cfg.placement = Arc::new(LeastLoaded);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 30;
    cfg.traffic.candidate_cap = 200;
    cfg
}

/// Sixteen 6×6 chips, placement only: every request finds an empty-ish
/// chip whose free region the cache has seen before.
fn place_hot(seed: u64, ticks: u64) -> ServeConfig {
    let mut cfg = ServeConfig::cluster(seed, ticks, vec![SocConfig::sim(); 16]);
    cfg.placement = Arc::new(LeastLoaded);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 8;
    cfg.execute_epochs = false;
    cfg
}

/// Core counts of `reconfig_storm`'s chips, in chip order.
const STORM_CORES: [u32; 4] = [36, 36, 16, 16];

/// Two 6×6 and two 4×4 chips at 1 GiB HBM and about 35% load — at
/// lifetime 8 the drain of a 6×6 chip stalls past the `TEMP-DRAIN` bound
/// on a third of the seeds, so do not raise it — with defragmentation
/// every 4 ticks, a seeded
/// core-fault plan repaired after 30 ticks, and the fleet audit and the
/// temporal checker online. The rolling drain is driven from outside.
fn reconfig_storm(seed: u64, ticks: u64) -> ServeConfig {
    let small = {
        let mut soc = SocConfig::sim();
        soc.mesh_width = 4;
        soc.mesh_height = 4;
        soc
    };
    let socs = vec![SocConfig::sim(), SocConfig::sim(), small.clone(), small];
    let mut cfg = ServeConfig::cluster(seed, ticks, socs);
    for chip in &mut cfg.chips {
        chip.hbm_bytes = 1 << 30;
    }
    cfg.placement = Arc::new(LeastLoaded);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 7;
    cfg.traffic.candidate_cap = 300;
    // Constructor then field assignment, as `api.rs` prescribes.
    #[allow(clippy::field_reassign_with_default)]
    let defrag = {
        let mut defrag = GreedyDefrag::default();
        defrag.max_memory_moves = 1;
        defrag
    };
    cfg.defrag = Some(Arc::new(defrag));
    cfg.defrag_interval = 4;
    cfg.fault_plan = FaultPlan::seeded(
        seed ^ 0xFA17,
        &STORM_CORES,
        (ticks / 25) as usize,
        ticks,
        Some(30),
    );
    cfg.audit = true;
    cfg.temporal = true;
    cfg
}

/// Ticks between two drains of the rolling maintenance schedule.
pub const DRAIN_PERIOD_TICKS: u64 = 150;

/// Ticks a drained chip stays in maintenance before it is handed back.
const MAINTENANCE_TICKS: u64 = 5;

/// The rolling maintenance schedule of `reconfig_storm`, driven from the
/// benchmark: every `period` ticks the next chip in rotation starts
/// draining; once it is empty the drain is completed, and a few ticks
/// later the chip is handed back. One chip at a time.
#[derive(Debug)]
pub struct RollingDrain {
    period: u64,
    chips: usize,
    next_chip: usize,
    draining: Option<usize>,
    undrain_at: Option<(usize, u64)>,
    /// Drains begun.
    pub begun: u64,
    /// Drains completed (the chip ran empty).
    pub completed: u64,
    /// Chips handed back after maintenance.
    pub undrained: u64,
}

impl RollingDrain {
    /// A schedule over `chips` chips starting a drain every `period`
    /// ticks.
    pub fn new(period: u64, chips: usize) -> Self {
        RollingDrain {
            period: period.max(1),
            chips: chips.max(1),
            next_chip: 0,
            draining: None,
            undrain_at: None,
            begun: 0,
            completed: 0,
            undrained: 0,
        }
    }

    /// Whether no chip is draining or in maintenance.
    #[cfg(test)]
    pub fn idle(&self) -> bool {
        self.draining.is_none() && self.undrain_at.is_none()
    }

    /// Advances the schedule; call before the step of tick `tick`.
    ///
    /// # Errors
    ///
    /// Propagates the runtime's drain-lifecycle errors.
    pub fn before_tick(&mut self, rt: &mut ServeRuntime, tick: u64) -> Result<(), VnpuError> {
        if let Some((chip, at)) = self.undrain_at {
            if tick >= at {
                rt.undrain(chip)?;
                self.undrain_at = None;
                self.undrained += 1;
            }
        }
        if let Some(chip) = self.draining {
            if rt.cluster().chip(chip).vnpu_count() == 0 {
                rt.complete_drain(chip)?;
                self.draining = None;
                self.completed += 1;
                self.undrain_at = Some((chip, tick + MAINTENANCE_TICKS));
            }
        } else if self.undrain_at.is_none() && tick % self.period == self.period - 1 {
            rt.begin_drain(self.next_chip)?;
            self.draining = Some(self.next_chip);
            self.next_chip = (self.next_chip + 1) % self.chips;
            self.begun += 1;
        }
        Ok(())
    }
}

/// What the traced round measured beyond the plain one.
#[derive(Debug, Default)]
pub struct RoundTrace {
    /// Phase wall-clock of the timed ticks, from the report's own
    /// `*_nanos` fields: recovery, admission, drain, defrag, execution.
    pub phase_ns: [u64; 5],
    /// Σ per-chip `exec_nanos` of the timed ticks and the machine epochs
    /// they ran.
    pub exec_ns: u64,
    /// Machine epochs executed in the timed ticks.
    pub executed_epochs: u64,
    /// Simulated machine cycles of those epochs.
    pub machine_cycles: u64,
    /// Σ `serve.step` spans.
    pub step_ns: u64,
    /// Allocation calls inside the timed `step()`s.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub alloc_bytes: u64,
    /// Trace events the timed ticks recorded.
    pub trace_events: u64,
    /// Span of the final `drain()`.
    pub final_drain_ns: u64,
    /// Span of `report()` on the loaded runtime.
    pub report_ns: u64,
    /// Mean span of one outside `FleetAuditor::audit` call.
    pub audit_tick_ns: f64,
    /// Events in the recorded trace (claim included).
    pub events: u64,
    /// `TraceFold::observe` over the recorded trace, total.
    pub fold_ns: u64,
    /// `check_trace` over the recorded trace, total.
    pub check_ns: u64,
    /// Findings of that offline check.
    pub offline_findings: u64,
}

/// What only a traced round keeps while it runs.
struct Tracing<'a> {
    rec: &'a mut Recorder,
    info: RoundTrace,
    /// The report at the end of warm-up: phase nanos accrue from tick 0.
    before: ServeReport,
    events_before: usize,
    counted_before: (u64, u64),
    auditor: FleetAuditor,
    audit_ns: u64,
    audits: u64,
}

/// One measured round.
#[derive(Debug)]
pub struct Round {
    /// Config, `ServeRuntime::new` and warm-up, in seconds.
    pub setup_s: f64,
    /// Wall of each timed op, in nanoseconds.
    pub op_ns: Vec<u64>,
    /// Wall of the whole timed loop, in nanoseconds.
    pub wall_ns: u64,
    /// The report after the final drain.
    pub report: ServeReport,
    /// Drains the rolling schedule began / completed / handed back.
    pub drains: (u64, u64, u64),
    /// Gate failures (empty on a correct round).
    pub failures: Vec<String>,
    /// The traced round's extra measurements.
    pub trace: Option<RoundTrace>,
}

impl Round {
    /// Timed ticks per second of the timed loop's wall.
    pub fn ops_per_s(&self) -> f64 {
        self.op_ns.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// `(accepted − tenants_lost, submitted)` after the final drain: a
    /// request still queued, rejected, or whose tenant was lost to a
    /// fault counts as failed.
    pub fn accepted_of_submitted(&self) -> (u64, u64) {
        let r = &self.report;
        (r.accepted.saturating_sub(r.tenants_lost), r.submitted)
    }
}

/// Runs one round of `workload` on the request stream of `seed` for
/// `ticks` timed ticks on `workers` threads (1 everywhere but the
/// worker-pool probe). With a recorder the round is the traced one:
/// phase timing and trace recording on, spans around every call, the
/// allocator counting inside `step()`.
///
/// # Errors
///
/// The first `VnpuError` a tick or the final drain returned.
pub fn run_round(
    workload: &ServeWorkload,
    seed: u64,
    ticks: u64,
    workers: usize,
    rec: Option<&mut Recorder>,
) -> Result<Round, VnpuError> {
    let setup = Instant::now();
    let mut cfg = workload.config(seed, WARMUP_TICKS + ticks);
    cfg.workers = workers;
    if rec.is_some() {
        cfg.time_phases = true;
        cfg.record_trace = true;
    }
    let checker_cfg = cfg.temporal_checker_config();
    let chips = cfg.chips.len();
    let mut rt = ServeRuntime::new(cfg);
    let mut drains = RollingDrain::new(DRAIN_PERIOD_TICKS, chips);
    for tick in 0..WARMUP_TICKS {
        if workload.rolling_drain {
            drains.before_tick(&mut rt, tick)?;
        }
        black_box(rt.step()?);
    }
    let setup_s = setup.elapsed().as_secs_f64();

    let mut op_ns = Vec::with_capacity(ticks as usize);
    // Everything only the traced round keeps, in one place.
    let mut tracing = rec.map(|rec| Tracing {
        rec,
        info: RoundTrace::default(),
        before: rt.report(),
        events_before: rt.trace().map_or(0, <[_]>::len),
        counted_before: alloc::counts(),
        auditor: FleetAuditor::new(),
        audit_ns: 0,
        audits: 0,
    });

    let loop_start = Instant::now();
    for tick in WARMUP_TICKS..WARMUP_TICKS + ticks {
        match tracing.as_mut() {
            None => {
                let t = Instant::now();
                if workload.rolling_drain {
                    drains.before_tick(&mut rt, tick)?;
                }
                black_box(rt.step()?);
                op_ns.push(t.elapsed().as_nanos() as u64);
            }
            Some(t) => {
                t.rec.next_op();
                let op = t.rec.enter("op");
                if workload.rolling_drain {
                    let control = t.rec.enter("serve.drain_control");
                    drains.before_tick(&mut rt, tick)?;
                    t.rec.exit(control);
                }
                let step = t.rec.enter("serve.step");
                alloc::set_counting(true);
                let events = rt.step();
                alloc::set_counting(false);
                t.info.step_ns += t.rec.exit(step);
                black_box(events?);
                op_ns.push(t.rec.exit(op));
                if tick % AUDIT_SAMPLE_TICKS == 0 {
                    // Read-only and outside the op: the audit layer's own
                    // cost on this fleet, whether or not the run audits.
                    let audit = t.rec.enter("audit.tick");
                    black_box(t.auditor.audit(rt.cluster()));
                    t.audit_ns += t.rec.exit(audit);
                    t.audits += 1;
                }
            }
        }
    }
    // The traced loop also samples the audit between ops; its wall is
    // the ops alone.
    let wall_ns = match tracing {
        Some(_) => op_ns.iter().sum(),
        None => loop_start.elapsed().as_nanos() as u64,
    };

    if let Some(t) = tracing.as_mut() {
        let span = t.rec.enter("serve.report");
        let loaded = rt.report();
        t.info.report_ns = t.rec.exit(span);
        let before = &t.before;
        t.info.phase_ns = [
            loaded.recovery_nanos - before.recovery_nanos,
            loaded.admission_nanos - before.admission_nanos,
            loaded.drain_nanos - before.drain_nanos,
            loaded.defrag_nanos - before.defrag_nanos,
            loaded.execution_nanos - before.execution_nanos,
        ];
        let exec = |r: &ServeReport| r.per_chip.iter().map(|c| c.exec_nanos).sum::<u64>();
        t.info.exec_ns = exec(&loaded) - exec(before);
        t.info.executed_epochs = loaded.executed_epochs - before.executed_epochs;
        t.info.machine_cycles = loaded.machine_cycles - before.machine_cycles;
        t.info.trace_events = (rt.trace().map_or(0, <[_]>::len) - t.events_before) as u64;
        let (allocs, bytes) = alloc::counts();
        t.info.allocs = allocs - t.counted_before.0;
        t.info.alloc_bytes = bytes - t.counted_before.1;
        t.info.audit_tick_ns = t.audit_ns as f64 / t.audits.max(1) as f64;
    }
    let span = tracing.as_mut().map(|t| t.rec.enter("serve.final_drain"));
    rt.drain()?;
    if let (Some(t), Some(span)) = (tracing.as_mut(), span) {
        t.info.final_drain_ns = t.rec.exit(span);
    }
    let report = rt.report();

    if let Some(t) = tracing.as_mut() {
        let events = rt.trace_with_claim().unwrap_or_default();
        t.info.events = events.len() as u64;
        let mut fold = TraceFold::new(chips);
        let span = t.rec.enter("temporal.fold");
        for ev in &events {
            fold.observe(ev);
        }
        t.info.fold_ns = t.rec.exit(span);
        black_box(fold);
        let span = t.rec.enter("temporal.check");
        let findings = check_trace(&events, checker_cfg);
        t.info.check_ns = t.rec.exit(span);
        t.info.offline_findings = findings.len() as u64;
    }
    let trace = tracing.map(|t| t.info);

    let failures = gate(workload, &report, &rt);
    Ok(Round {
        setup_s,
        op_ns,
        wall_ns,
        report,
        drains: (drains.begun, drains.completed, drains.undrained),
        failures,
        trace,
    })
}

/// The per-round correctness gate: after the final drain nothing may be
/// leaked, every request is accounted exactly once with under 1% of them
/// still queued (but on a saturated workload), no recovery is left pending, and a fresh whole-fleet
/// audit finds nothing. What `reconfig_storm`'s online audit and temporal
/// checker find *during* the run is a metric, not a gate condition: about
/// one request stream in eight legally shows a transient `FAULT-MAP`
/// while a recovery converges or a drain stalled past `TEMP-DRAIN`, and
/// the driver picks the seeds. `compare` pins both counts at one seed.
fn gate(workload: &ServeWorkload, report: &ServeReport, rt: &ServeRuntime) -> Vec<String> {
    let mut failures = Vec::new();
    if report.leaked_cores != 0 || report.leaked_hbm_bytes != 0 {
        failures.push(format!(
            "leak after the final drain: {} cores, {} HBM bytes",
            report.leaked_cores, report.leaked_hbm_bytes
        ));
    }
    if report.accepted + report.rejected + report.queued_at_end != report.submitted {
        failures.push(format!(
            "requests not conserved: accepted {} + rejected {} + queued {} != submitted {}",
            report.accepted, report.rejected, report.queued_at_end, report.submitted
        ));
    }
    if !workload.saturated && report.queued_at_end * 100 >= report.submitted.max(1) {
        failures.push(format!(
            "a backlog was left: {} of {} requests still queued",
            report.queued_at_end, report.submitted
        ));
    }
    if report.recoveries_pending != 0 {
        failures.push(format!(
            "{} recoveries still pending after the final drain",
            report.recoveries_pending
        ));
    }
    let sweep = FleetAuditor::new().audit(rt.cluster());
    if !sweep.is_empty() {
        failures.push(format!(
            "the drained fleet does not audit clean: {} findings, first {:?}",
            sweep.len(),
            sweep[0]
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_drain_completes_and_hands_back_every_chip() {
        let workload = by_name("reconfig_storm").expect("catalogued");
        let ticks = 200;
        let mut rt = ServeRuntime::new(workload.config(11, ticks));
        // A short period so 200 ticks see several drains, big and small
        // chips alike.
        let mut drains = RollingDrain::new(30, STORM_CORES.len());
        let mut tick = 0;
        while tick < ticks || !drains.idle() {
            drains.before_tick(&mut rt, tick).expect("drain lifecycle");
            rt.step().expect("tick");
            tick += 1;
            assert!(tick < ticks + 200, "a begun drain must converge");
        }
        assert!(drains.begun >= 4, "every chip took a turn: {drains:?}");
        assert_eq!(drains.begun, drains.completed, "{drains:?}");
        assert_eq!(drains.completed, drains.undrained, "{drains:?}");
        rt.drain().expect("final drain");
        let report = rt.report();
        assert!(report.drain_migrations > 0, "drains moved tenants");
        assert!(report.per_chip.iter().all(|c| c.schedulable()));
        assert_eq!(gate(workload, &report, &rt), Vec::<String>::new());
    }

    #[test]
    fn run_length_is_a_stream_count_fixed_by_the_seconds_asked_for() {
        let streams = |name: &str, seconds| by_name(name).unwrap().streams(seconds, false);
        assert_eq!(streams("churn_1chip", 22.0), 4);
        assert_eq!(streams("fleet16_exec", 22.0), 4);
        assert_eq!(streams("reconfig_storm", 22.0), 5);
        assert_eq!(streams("place_hot", 22.0), 4, "0.7 of the seconds");
        assert_eq!(streams("place_hot", 44.0), 9);
        assert_eq!(streams("fleet16_exec", 0.0), 1, "never no stream");
        assert_eq!(by_name("reconfig_storm").unwrap().streams(16.0, true), 1);
    }

    #[test]
    fn a_short_round_passes_its_gate_and_repeats_exactly() {
        let workload = by_name("churn_1chip").expect("catalogued");
        let a = run_round(workload, 11, 60, 1, None).expect("round");
        let b = run_round(workload, 11, 60, 1, None).expect("round");
        assert_eq!(a.failures, Vec::<String>::new());
        assert_eq!(a.op_ns.len(), 60);
        assert_eq!(a.report.epochs, WARMUP_TICKS + 60);
        assert_eq!(a.report.to_json(usize::MAX), b.report.to_json(usize::MAX));
        let (ok, submitted) = a.accepted_of_submitted();
        assert!(ok > submitted / 2 && ok <= submitted);
    }

    #[test]
    fn a_traced_round_splits_the_tick_and_counts_allocations() {
        let _switch = alloc::TEST_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        let workload = by_name("reconfig_storm").expect("catalogued");
        let mut rec = Recorder::with_capacity(1024);
        let round = run_round(workload, 11, 100, 1, Some(&mut rec)).expect("round");
        assert_eq!(round.failures, Vec::<String>::new());
        let info = round.trace.expect("traced");
        assert!(info.step_ns >= info.phase_ns.iter().sum::<u64>());
        assert!(info.allocs > 0 && info.alloc_bytes > 0);
        assert!(info.trace_events > 0 && info.events > info.trace_events);
        assert!(info.audit_tick_ns > 0.0);
        let ops = rec.spans().iter().filter(|s| s.name == "op").count();
        assert_eq!(ops, 100, "one root span per timed tick");
    }
}
