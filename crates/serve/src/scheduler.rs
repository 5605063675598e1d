//! The serving loop: one tick is an ordered list of phase units —
//! departures → fault recovery → arrivals → cluster admission →
//! maintenance (drain) → defragmentation → fragmentation sample →
//! execution epochs → audit — repeated, with every step deterministic
//! under the seed.
//!
//! Each *tick* of the runtime is one machine epoch per loaded chip. The
//! scheduler first retires tenants whose lifetime expired (destroying
//! their vNPUs frees cores and HBM — the fragmentation churn of §4.3),
//! lands the tick's hardware faults and recovers the tenants they hit,
//! then submits the tick's arrivals to the cluster's admission queue and
//! runs one arrival-order admission pass under the configured
//! [`ChipPlacement`], evacuates draining chips and defragments the others
//! within their budgets, and finally executes one epoch per loaded chip —
//! binding its tenants' per-core programs and running the simulator only
//! where the chip's residents, their deployments, its hardware state or
//! its pending migration pauses differ from the epoch it ran last, and
//! reusing that epoch's makespan where they do not. Placement
//! latency is measured in *controller cycles*: a fixed per-tick
//! scheduling overhead plus the meta-table configuration cycles the
//! hypervisors actually spend (the Figure 11 cost model), accrued
//! incrementally so each placement is charged only the configuration
//! work done up to its own admission decision.
//!
//! The phases are plain functions over one shared tick context (the
//! tick's [`TickEvents`]), listed in one array, and all run through
//! **one wrapper**, the only home of the per-phase
//! stopwatch ([`ServeConfig::time_phases`]). What a tick did is recorded
//! once, as the [`TraceEvent`] stream its phases emit; two runs that must
//! agree are compared on that stream ([`ServeRuntime::trace`]), their
//! [`TickEvents`] and their reports. Every phase that steers by a chip's
//! free cores and HBM reads the cluster's memoized per-chip picture
//! ([`Cluster::snapshot_cached`]) and keeps no copy of its own. Nor does
//! the loop keep a machine: each cluster chip owns its simulated
//! [`Machine`], whose tenants, pauses, faults and generation the
//! cluster's mutations update in the same step as the hypervisor, and
//! the execution phase only binds and runs epochs on it
//! ([`Cluster::epoch_parts`]). The whole tick runs on the caller's
//! thread: per-chip work (machine epochs here, drain and defrag planning
//! in the cluster) is a loop in chip order.
//!
//! The runtime is **step-driven**: [`ServeRuntime::step`] advances one
//! tick and returns its [`TickEvents`], so callers can interleave
//! inspection, placement swaps ([`ServeRuntime::set_placement`]),
//! maintenance
//! ([`ServeRuntime::begin_drain`]) and hardware reconfiguration
//! ([`ServeRuntime::set_core_scales`]) at epoch boundaries.
//! [`ServeRuntime::run`] remains as the thin batch loop: step through
//! the configured epochs, [`ServeRuntime::drain`], report.

use crate::arrivals::{ArrivalGenerator, TrafficConfig};
use crate::report::{percentile, ChipReport, FragSample, ServeReport};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use vnpu::admission::{FitHint, FragmentationStats, RequestId};
use vnpu::cluster::{ChipPlacement, Cluster, ClusterAdmissionOutcome, ClusterVmId, FirstFit};
use vnpu::drain::ChipSchedState;
use vnpu::plan::{Defragmenter, ReconfigBudget};
use vnpu::{Hypervisor, VirtCoreId, VmId};
use vnpu_audit::{AuditFinding, FleetAuditor};
use vnpu_fault::{FaultDetector, FaultEvent, FaultKind, FaultPlan};
use vnpu_sim::isa::{Instr, Program};
use vnpu_sim::machine::{Machine, TenantId};
use vnpu_sim::SocConfig;
use vnpu_temporal::{
    CheckerConfig, RecoveryKind, TemporalChecker, TemporalFinding, TraceEvent, TraceFold,
};
use vnpu_topo::mapping::Strategy;

/// Controller cycles charged per scheduling tick (queue scan, MMIO
/// doorbells); configuration cycles are accounted on top from the
/// hypervisors' own meta-table cost model.
const TICK_CYCLES: u64 = 1_000;

/// Ticks an affected tenant may stay pending (no remap window, no other
/// chip with room) before it is declared lost. Bounds MTTR; `TEMP-FAULT`
/// checks the same deadline.
const MAX_RECOVERY_TICKS: u64 = 8;

/// The mapping strategy of a recovery's remap-under-pin attempt: the
/// affected tenant's virtual topology is re-placed against the free
/// region plus its own *healthy* cores.
fn recovery_remap_strategy() -> Strategy {
    Strategy::similar_topology().candidate_cap(200)
}

/// Ticks of slack granted per admission attempt when deriving the
/// `TEMP-STARVE` bound from [`ServeConfig::max_attempts`]: a queued
/// request may be passed over for whole ticks while deeper queues
/// drain ahead of it, so the bound is per-attempt headroom, not a
/// per-tick guarantee.
const STARVE_SLACK_TICKS: u64 = 32;

/// Silent drain steps (nothing moved, nothing explicitly skipped,
/// residents remaining) tolerated before `TEMP-DRAIN` declares the
/// drain stalled.
const DRAIN_STALL_BOUND_TICKS: u64 = 16;

/// One chip of a serving deployment: its SoC model and HBM capacity.
#[derive(Debug, Clone)]
pub struct ChipSpec {
    /// The chip model.
    pub soc: SocConfig,
    /// HBM capacity managed by the chip's hypervisor.
    pub hbm_bytes: u64,
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The chips behind the front door (heterogeneous models allowed;
    /// at least one).
    pub chips: Vec<ChipSpec>,
    /// Ticks (= machine epochs) [`ServeRuntime::run`] simulates.
    pub epochs: u64,
    /// The seeded traffic model.
    pub traffic: TrafficConfig,
    /// Chip-placement policy.
    pub placement: Arc<dyn ChipPlacement>,
    /// Placement attempts per request before rejection (`None` = forever).
    pub max_attempts: Option<u32>,
    /// Whether to bind and execute tenant programs each epoch (off =
    /// placement-only churn, for mapping-focused benchmarks).
    pub execute_epochs: bool,
    /// Background defragmentation policy, run as an optional phase of
    /// every [`ServeRuntime::step`]; `None` disables the phase.
    pub defrag: Option<Arc<dyn Defragmenter>>,
    /// Run the defragmenter every N ticks (0 disables even when a
    /// policy is configured). The interval is anchored to the tick of
    /// the first completed admission — before any placement exists there
    /// is nothing to defragment.
    pub defrag_interval: u64,
    /// Reconfiguration budget per drain step (per chip, per epoch): for
    /// chips under an active drain ([`ServeRuntime::begin_drain`]) the
    /// maintenance phase runs one budgeted step per draining chip per
    /// tick.
    pub drain_budget: ReconfigBudget,
    /// Run the [`vnpu_audit`] fleet invariant audit after every tick.
    /// Off by default — disabled, the phase costs nothing; enabled on a
    /// healthy fleet, the audit is read-only and leaves the run's report
    /// byte-identical. Findings accumulate on the runtime
    /// ([`ServeRuntime::audit_findings`]) and are counted in
    /// [`TickEvents::audit_findings`] and
    /// [`crate::report::ServeReport::audit_findings`].
    pub audit: bool,
    /// Run the [`vnpu_temporal`] online checker inside every step: the
    /// tick's [`TraceEvent`] stream feeds the streaming `TEMP-*`
    /// properties (liveness, convergence, deadlines, leaks, hints) as
    /// it is emitted. Off by default — disabled, no observation event is even
    /// computed; enabled on a healthy fleet, checking is read-only and
    /// leaves the run's report byte-identical. Findings accumulate on
    /// the runtime ([`ServeRuntime::temporal_findings`]) and are
    /// counted in [`TickEvents::temporal_findings`] and
    /// [`crate::report::ServeReport::temporal_findings`].
    pub temporal: bool,
    /// Record the run's full structured [`TraceEvent`] stream for
    /// offline analysis ([`ServeRuntime::trace`],
    /// [`vnpu_temporal::check_trace`]). Off by default — a long run's
    /// trace is large.
    pub record_trace: bool,
    /// Inert: accepted, echoed into [`ServeReport::workers`] (and its
    /// JSON line) and read nowhere else. The tick is single-threaded; the
    /// field stays only because `benchmark/` assigns it by name and the
    /// pinned report JSON prints it (ROADMAP, benchmark-only follow-up).
    pub workers: usize,
    /// Collect per-phase wall-clock (admission / drain / defrag /
    /// execution) into the report via [`std::time::Instant`]. Off by
    /// default so reports stay fully deterministic run-to-run;
    /// `benchmark/` flips it on for its per-phase metrics.
    pub time_phases: bool,
    /// The seeded hardware-fault schedule injected into the run
    /// ([`vnpu_fault::FaultPlan`]); empty by default — the healthy-fleet
    /// baseline, where the recovery phase costs one branch per tick.
    pub fault_plan: FaultPlan,
}

impl ServeConfig {
    /// A standard churn scenario on one of the paper's 6×6 SIM chips:
    /// modest HBM (so memory churn matters), execution on, FIFO
    /// admission, first-fit placement.
    pub fn standard(seed: u64, epochs: u64) -> Self {
        Self::cluster(seed, epochs, vec![SocConfig::sim()])
    }

    /// A churn scenario over an explicit set of chip models (each with
    /// the standard 4 GiB serving HBM), FIFO admission, first-fit
    /// placement.
    pub fn cluster(seed: u64, epochs: u64, socs: Vec<SocConfig>) -> Self {
        ServeConfig {
            chips: socs
                .into_iter()
                .map(|soc| ChipSpec {
                    soc,
                    hbm_bytes: 4 << 30,
                })
                .collect(),
            epochs,
            traffic: TrafficConfig::standard(seed),
            placement: Arc::new(FirstFit),
            max_attempts: Some(24),
            execute_epochs: true,
            defrag: None,
            defrag_interval: 1,
            drain_budget: ReconfigBudget::default(),
            audit: false,
            temporal: false,
            record_trace: false,
            workers: 1,
            time_phases: false,
            fault_plan: FaultPlan::new(),
        }
    }

    /// The [`CheckerConfig`] this config's policies imply — the exact
    /// rule bounds the online checker runs under, exposed so offline
    /// re-checks of a recorded trace ([`vnpu_temporal::check_trace`])
    /// judge it by the same policy the run was served under.
    ///
    /// `TEMP-STARVE` is bounded at [`ServeConfig::max_attempts`] ×
    /// the per-attempt slack (32 ticks; disabled for unbounded retries
    /// — no policy, no bound); `TEMP-FAULT` is bounded at the recovery
    /// phase's loss deadline (8 ticks after detection).
    pub fn temporal_checker_config(&self) -> CheckerConfig {
        CheckerConfig {
            starve_bound_ticks: self
                .max_attempts
                .map(|a| u64::from(a).saturating_mul(STARVE_SLACK_TICKS).max(1)),
            drain_stall_ticks: DRAIN_STALL_BOUND_TICKS,
            max_recovery_ticks: MAX_RECOVERY_TICKS,
        }
    }
}

/// What one [`ServeRuntime::step`] did, for callers steering the loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickEvents {
    /// The tick that just ran.
    pub tick: u64,
    /// Requests that arrived (and were submitted) this tick.
    pub arrivals: u64,
    /// Virtual NPUs placed this tick, in admission order.
    pub admitted: Vec<ClusterVmId>,
    /// Requests terminally rejected this tick, each with the fleet's fit
    /// hint (the largest shape that *would* have placed) when the
    /// rejection was for want of a candidate.
    pub rejected: Vec<(RequestId, Option<FitHint>)>,
    /// Tenants retired this tick.
    pub departed: u64,
    /// Requests still queued after the admission pass.
    pub queued: u64,
    /// Live migrations committed by this tick's defragmentation phase.
    pub migrations: u64,
    /// Tenants evacuated off draining chips by this tick's maintenance
    /// phase (cross-chip moves, budgeted per epoch).
    pub drain_migrations: u64,
    /// Chips that executed a machine epoch this tick.
    pub executed_chips: u32,
    /// Invariant violations the post-tick fleet audit reported (always 0
    /// when [`ServeConfig::audit`] is off).
    pub audit_findings: u64,
    /// Temporal-property violations the online checker proved during
    /// this step (always 0 when [`ServeConfig::temporal`] is off).
    pub temporal_findings: u64,
    /// Hardware faults whose onset landed this tick.
    pub fault_onsets: u64,
    /// Hardware faults repaired this tick.
    pub fault_repairs: u64,
    /// Affected tenants recovered this tick by an in-place
    /// remap-under-pin around the dead resource.
    pub recoveries_remapped: u64,
    /// Affected tenants recovered this tick by an emergency cross-chip
    /// re-placement.
    pub recoveries_replaced: u64,
    /// Affected tenants still awaiting a landing spot after this tick's
    /// recovery pass.
    pub recoveries_pending: u64,
    /// Affected tenants declared lost this tick (pending past the
    /// recovery phase's deadline, 8 ticks after detection).
    pub tenants_lost: u64,
}

/// The run's event channel: every state transition the loop commits is
/// emitted here exactly once as a [`TraceEvent`]. The always-on
/// [`TraceFold`] derives every run counter the report publishes from
/// that stream — nothing is incremented inline anymore — and the
/// optional online checker and trace recording consume the *same*
/// stream, so the numbers the report claims and the temporal properties
/// guarding them can never drift apart.
#[derive(Debug)]
struct TemporalSink {
    /// Always on: the single source of the report's run counters.
    fold: TraceFold,
    /// The streaming `TEMP-*` checker, under [`ServeConfig::temporal`].
    checker: Option<TemporalChecker>,
    /// The recorded stream, under [`ServeConfig::record_trace`].
    trace: Option<Vec<TraceEvent>>,
}

impl TemporalSink {
    fn emit(&mut self, ev: TraceEvent) {
        self.fold.observe(&ev);
        if let Some(checker) = self.checker.as_mut() {
            checker.observe(&ev);
        }
        if let Some(trace) = self.trace.as_mut() {
            trace.push(ev);
        }
    }

    /// Emits an observation-only event (pass-start snapshots, fit hints,
    /// cache samples, quiescence probes) — if it has a consumer. The
    /// fold ignores these, so with the checker and the recording both
    /// off the event is not even *computed*: the disabled checker costs
    /// nothing.
    fn detail(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.checker.is_some() || self.trace.is_some() {
            self.emit(event());
        }
    }
}

/// The tick phases [`ServeRuntime::run_phase`] times, in the order a tick
/// runs them; each indexes its [`ServeRuntime::phase_nanos`] slot.
#[derive(Clone, Copy)]
enum Phase {
    Recovery,
    Admission,
    Drain,
    Defrag,
    Execution,
}

/// The phases [`ServeRuntime::step`] times: one slot per [`Phase`].
const TIMED_PHASES: usize = Phase::Execution as usize + 1;

/// What the phases of one tick share. [`ServeRuntime::step`] builds one,
/// hands it to every unit of [`TICK_PHASES`] in order, and returns its
/// `events`.
#[derive(Debug)]
struct TickCtx {
    tick: u64,
    events: TickEvents,
    /// [`Cluster::total_config_cycles`] when the tick's arrivals were
    /// stamped: the base each admission decision's incremental
    /// configuration-cycle stamp is read against.
    config_base: u64,
}

/// One unit of the tick: a phase body over the shared [`TickCtx`].
type PhaseFn = fn(&mut ServeRuntime, &mut TickCtx) -> Result<(), vnpu::VnpuError>;

/// The tick, as data: every phase in the order it runs. A unit listed
/// with a [`Phase`] is timed under it by [`ServeRuntime::run_phase`]; the
/// others are bookkeeping between them.
const TICK_PHASES: [(Option<Phase>, PhaseFn); 9] = [
    (None, ServeRuntime::departures),
    (Some(Phase::Recovery), ServeRuntime::recovery),
    (None, ServeRuntime::arrivals),
    (Some(Phase::Admission), ServeRuntime::admission),
    (Some(Phase::Drain), ServeRuntime::maintenance),
    (Some(Phase::Defrag), ServeRuntime::defrag),
    (None, ServeRuntime::sample),
    (Some(Phase::Execution), ServeRuntime::execution),
    (None, ServeRuntime::audit),
];

/// The serving runtime: a [`Cluster`] of chips — each a hypervisor and
/// the [`Machine`] it configures — driven through continuous churn.
#[derive(Debug)]
pub struct ServeRuntime {
    cfg: ServeConfig,
    cluster: Cluster,
    generator: ArrivalGenerator,
    /// Every live vNPU, with the tick its lifetime expires at.
    live: BTreeMap<ClusterVmId, u64>,
    /// Every request waiting in the cluster's admission queue, by
    /// admission ID: `(tenant lifetime in epochs, controller-cycle stamp
    /// of the submission)`. Invariant: an entry is inserted when the
    /// request is submitted and removed by the request's terminal
    /// admission event — the cluster emits exactly one per request — so
    /// the ID of an admission event is always present.
    queued: HashMap<RequestId, (u64, u64)>,
    controller_cycles: u64,
    accounted_config_cycles: u64,
    placement_cycles: Vec<u64>,
    /// Tick of the first completed admission — the anchor for
    /// [`ServeConfig::defrag_interval`] (`None` until something places).
    first_admission_tick: Option<u64>,
    fragmentation: Vec<FragSample>,
    /// The event channel every run counter and temporal property folds
    /// from; see [`TemporalSink`].
    temporal: TemporalSink,
    /// Per-chip wall-clock spent in machine epochs (nanos); stays 0
    /// unless [`ServeConfig::time_phases`] is on. Kept outside the
    /// event stream because wall-clock is nondeterministic.
    exec_nanos: Vec<u64>,
    /// Tenants detected as fault-affected and not yet recovered, each
    /// with the tick its outage was first detected. `BTreeMap` iteration
    /// order *is* the deterministic recovery order.
    pending_recovery: BTreeMap<ClusterVmId, u64>,
    tick: u64,
    /// Every finding the post-tick audits reported, in tick order.
    audit_findings: Vec<AuditFinding>,
    /// The post-tick audit, which keeps each chip's routing pass between
    /// ticks.
    auditor: FleetAuditor,
    /// Per-phase wall-clock (nanoseconds), indexed by [`Phase`] — all
    /// zero unless [`ServeConfig::time_phases`] is on, so timed and
    /// untimed runs differ only in these slots.
    phase_nanos: [u64; TIMED_PHASES],
    /// Per chip: the inputs of the last epoch it executed and the
    /// makespan that epoch produced.
    epoch_memo: Vec<EpochMemo>,
    /// Epochs answered from [`ServeRuntime::epoch_memo`] so far.
    epoch_memo_hits: u64,
    /// One chip's runnable residents in VM order — a buffer reused
    /// across chips and ticks.
    runnable: Vec<(VmId, TenantId)>,
}

/// One chip's last executed epoch. The simulator is deterministic and
/// [`Machine::finish_epoch`] rewinds every clock, so an epoch's makespan
/// is a pure function of what `key` spells out; while the next tick's key
/// is equal the epoch need not be bound or run again.
#[derive(Debug, Default)]
struct EpochMemo {
    /// The chip's topology generation (core scales, core and link faults,
    /// degraded mode), its pending migration pauses as `(tenant, cycles)`,
    /// a separator, then `(vm, tenant, deployment stamp)` per runnable
    /// resident in bind order. Empty until the chip first executes.
    key: Vec<u64>,
    /// The key of the tick being decided; swapped into `key` once its
    /// epoch has run.
    next_key: Vec<u64>,
    makespan: u64,
}

impl ServeRuntime {
    /// Builds the runtime (cluster and traffic stream).
    ///
    /// # Panics
    ///
    /// Panics when the config lists no chips.
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(!cfg.chips.is_empty(), "a serving runtime needs chips");
        let mut cluster = Cluster::with_chips(
            cfg.chips
                .iter()
                .map(|c| Hypervisor::with_hbm_bytes(c.soc.clone(), c.hbm_bytes))
                .collect(),
        );
        cluster.set_placement(Arc::clone(&cfg.placement));
        cluster.set_max_attempts(cfg.max_attempts);
        let generator = ArrivalGenerator::new(cfg.traffic.clone());
        let temporal = TemporalSink {
            fold: TraceFold::new(cfg.chips.len()),
            checker: cfg
                .temporal
                .then(|| TemporalChecker::standard(cfg.temporal_checker_config())),
            trace: cfg.record_trace.then(Vec::new),
        };
        let exec_nanos = vec![0; cfg.chips.len()];
        ServeRuntime {
            cluster,
            generator,
            live: BTreeMap::new(),
            queued: HashMap::new(),
            controller_cycles: 0,
            accounted_config_cycles: 0,
            placement_cycles: Vec::new(),
            first_admission_tick: None,
            fragmentation: Vec::new(),
            temporal,
            exec_nanos,
            pending_recovery: BTreeMap::new(),
            tick: 0,
            audit_findings: Vec::new(),
            auditor: FleetAuditor::new(),
            phase_nanos: [0; TIMED_PHASES],
            epoch_memo: cfg.chips.iter().map(|_| EpochMemo::default()).collect(),
            epoch_memo_hits: 0,
            runnable: Vec::new(),
            cfg,
        }
    }

    /// Chip epochs so far whose inputs equalled those of the chip's
    /// previous epoch and were therefore answered without binding or
    /// simulating. Purely diagnostic: reports and traces are the same
    /// whether an epoch ran or was reused.
    pub fn epoch_memo_hits(&self) -> u64 {
        self.epoch_memo_hits
    }

    /// Live virtual NPUs right now.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The next tick [`ServeRuntime::step`] will run.
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// The cluster (for inspection: per-chip hypervisors, queue state,
    /// shared-cache statistics).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Swaps the chip-placement policy — safe at any epoch boundary.
    pub fn set_placement(&mut self, placement: Arc<dyn ChipPlacement>) {
        self.cluster.set_placement(placement);
    }

    /// Takes a chip out of service for maintenance: from the next tick
    /// on, the maintenance phase runs one budgeted drain step per tick
    /// ([`ServeConfig::drain_budget`], cheapest tenants first) until the
    /// chip is empty, and no placement or fit hint ever names the chip
    /// while it drains.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::begin_drain`].
    pub fn begin_drain(&mut self, chip: usize) -> Result<(), vnpu::VnpuError> {
        self.cluster.begin_drain(chip)
    }

    /// Declares a drained chip's evacuation finished (it must be empty);
    /// the maintenance window stays open until
    /// [`ServeRuntime::undrain`].
    ///
    /// # Errors
    ///
    /// As for [`Cluster::complete_drain`].
    pub fn complete_drain(&mut self, chip: usize) -> Result<(), vnpu::VnpuError> {
        self.cluster.complete_drain(chip)
    }

    /// Hands a draining or drained chip back to the schedulers.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::undrain`].
    pub fn undrain(&mut self, chip: usize) -> Result<(), vnpu::VnpuError> {
        self.cluster.undrain(chip)
    }

    /// The chip's drain-lifecycle state.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::drain_state`].
    pub fn drain_state(&self, chip: usize) -> Result<ChipSchedState, vnpu::VnpuError> {
        self.cluster.drain_state(chip)
    }

    /// The fleet-wide fit hint right now (schedulable chips only) —
    /// probing fills only the score memo of the cluster's placement cache,
    /// never its entries or statistics.
    pub fn fleet_fit_hint(&mut self) -> Option<FitHint> {
        self.cluster.fit_hint()
    }

    /// Reconfigures a hybrid core (§7) on one chip between epochs; the
    /// next epoch runs on the new scales, and placements memoized against
    /// the old hardware expire instead of replaying.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::set_core_scales`].
    pub fn set_core_scales(
        &mut self,
        chip: usize,
        core: u32,
        matrix_pct: u32,
        vector_pct: u32,
    ) -> Result<(), vnpu::VnpuError> {
        self.cluster
            .set_core_scales(chip, core, matrix_pct, vector_pct)
    }

    /// Runs the configured number of epochs, drains all remaining
    /// tenants, and returns the report — the batch form of the
    /// step-driven API.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (deadlock, cycle limit) — these
    /// indicate a runtime bug, not load; placement failures are data.
    pub fn run(mut self) -> Result<ServeReport, vnpu::VnpuError> {
        while self.tick < self.cfg.epochs {
            self.step()?;
        }
        self.drain()?;
        Ok(self.report())
    }

    /// Advances one tick by running the ordered phase list over one shared
    /// tick context: departures, fault recovery, arrivals and one cluster
    /// admission pass, a maintenance phase (one budgeted drain step per
    /// draining chip), an optional defragmentation phase (when
    /// [`ServeConfig::defrag`] is set), a fragmentation sample, one
    /// machine epoch on every chip with runnable tenants (when enabled) —
    /// simulated where the chip's epoch inputs changed since its last
    /// one, reused where they did not — and the optional fleet audit.
    /// Steps past `cfg.epochs` keep working — the bound only applies to
    /// [`ServeRuntime::run`].
    ///
    /// # Errors
    ///
    /// Propagates simulator failures; placement failures are data.
    pub fn step(&mut self) -> Result<TickEvents, vnpu::VnpuError> {
        let mut ctx = TickCtx {
            tick: self.tick,
            events: TickEvents {
                tick: self.tick,
                ..TickEvents::default()
            },
            config_base: 0,
        };
        self.tick += 1;
        self.controller_cycles += TICK_CYCLES;
        let findings_before = self.temporal_findings().len();
        for (phase, run) in TICK_PHASES {
            self.run_phase(phase, run, &mut ctx)?;
        }
        ctx.events.temporal_findings = (self.temporal_findings().len() - findings_before) as u64;
        Ok(ctx.events)
    }

    /// The one wrapper every tick phase runs through, and the only place
    /// that times one: under [`ServeConfig::time_phases`] the stopwatch
    /// runs *around* the phase and its reading is added to the phase's
    /// [`ServeRuntime::phase_nanos`] slot. A unit without a [`Phase`] is
    /// not timed.
    fn run_phase(
        &mut self,
        phase: Option<Phase>,
        run: PhaseFn,
        ctx: &mut TickCtx,
    ) -> Result<(), vnpu::VnpuError> {
        let clock = phase
            .filter(|_| self.cfg.time_phases)
            .map(|p| (p, Instant::now()));
        let result = run(self, ctx);
        if let Some((phase, started)) = clock {
            self.phase_nanos[phase as usize] += started.elapsed().as_nanos() as u64;
        }
        result
    }

    /// Folds the configuration cycles the hypervisors spent since the
    /// last fold into the controller clock, and returns the cluster-wide
    /// counter they were read from.
    fn fold_config_cycles(&mut self) -> u64 {
        let now = self.cluster.total_config_cycles();
        self.controller_cycles += now - self.accounted_config_cycles;
        self.accounted_config_cycles = now;
        now
    }

    /// Tick phase: tenants whose lifetime expired leave first, freeing
    /// cores/HBM for this tick's admissions.
    fn departures(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        let expired: Vec<ClusterVmId> = (self.live.iter())
            .filter(|&(_, &expires)| expires <= ctx.tick)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.retire(id, ctx.tick)?;
            ctx.events.departed += 1;
        }
        Ok(())
    }

    /// Tick phase: the tick's arrivals enter the cluster admission queue.
    ///
    /// Departures and recovery may have spent configuration cycles
    /// (meta-table teardown, remaps); they are folded into the controller
    /// clock *before* the arrivals are stamped, so pre-admission work
    /// never inflates their measured placement latency. Nothing between
    /// here and the admission pass touches the hypervisors' config-cycle
    /// counters, so the folded counter is also the pass's starting point.
    fn arrivals(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        let tick = ctx.tick;
        ctx.config_base = self.fold_config_cycles();
        for arrival in self.generator.arrivals_for_tick(tick) {
            let id = self.cluster.submit(arrival.request);
            self.queued
                .insert(id, (arrival.lifetime_epochs, self.controller_cycles));
            self.temporal
                .detail(|| TraceEvent::Arrival { tick, id: id.0 });
            ctx.events.arrivals += 1;
        }
        Ok(())
    }

    /// Tick phase ([`Phase::Admission`]): one cluster admission pass.
    /// Configuration cycles are accounted incrementally: every decision
    /// carries the cluster-wide cumulative config-cycle counter at the
    /// moment it was made, so each placement is stamped with only the
    /// configuration work accrued up to *that* event.
    fn admission(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        let tick = ctx.tick;
        // Pass-start snapshot of the largest schedulable island: the
        // sound upper bound TEMP-HINT checks every fit hint against (free
        // regions only shrink during the pass). The pass below reads the
        // same memoized snapshots, so this costs no extra free-region
        // scan.
        self.temporal.detail(|| TraceEvent::AdmissionStart {
            tick,
            largest_island: (0..self.cluster.chip_count())
                .map(|chip| self.cluster.snapshot_cached(chip))
                .filter(|s| s.schedulable)
                .map(|s| s.frag.largest_free_component)
                .max()
                .unwrap_or(0) as u32,
        });
        for event in self.cluster.process_admissions() {
            let (lifetime, stamp) = self
                .queued
                .remove(&event.id)
                .expect("every admission event answers a queued request");
            let request = event.id.0;
            match event.outcome {
                ClusterAdmissionOutcome::Admitted(id) => {
                    self.temporal.emit(TraceEvent::Admitted {
                        tick,
                        id: request,
                        chip: id.chip,
                        vm: id.vm.0,
                    });
                    let decided_at =
                        self.controller_cycles + (event.config_cycles_total - ctx.config_base);
                    self.placement_cycles.push(decided_at.saturating_sub(stamp));
                    self.live.insert(id, tick + lifetime.max(1));
                    ctx.events.admitted.push(id);
                }
                ClusterAdmissionOutcome::Rejected(_) => {
                    self.temporal
                        .emit(TraceEvent::Rejected { tick, id: request });
                    if let Some(hint) = event.fit_hint {
                        self.temporal.detail(|| TraceEvent::HintEmitted {
                            tick,
                            id: request,
                            cores: hint.cores,
                        });
                    }
                    ctx.events.rejected.push((event.id, event.fit_hint));
                }
            }
        }
        ctx.events.queued = self.cluster.pending_count() as u64;
        if self.first_admission_tick.is_none() && !ctx.events.admitted.is_empty() {
            self.first_admission_tick = Some(tick);
        }
        Ok(())
    }

    /// Moves a live tenant's serving-loop identity after the cluster
    /// re-placed it on another chip (a drain evacuation, an emergency
    /// recovery): it keeps its lifetime. The cluster already moved its
    /// machine tenant, paused for the paid move.
    fn relocate(&mut self, from: ClusterVmId, to: ClusterVmId) {
        let expires = self.live.remove(&from).expect("relocated tenants are live");
        self.live.insert(to, expires);
    }

    /// Tick phase ([`Phase::Drain`]): every chip under an active drain
    /// gets one budgeted evacuation step — [`Cluster::drain_tick`] plans
    /// against the cluster's memoized snapshots and applies in chip order
    /// — and each moved tenant is [relocated](ServeRuntime::relocate).
    fn maintenance(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        let tick = ctx.tick;
        let steps = self.cluster.drain_tick(&self.cfg.drain_budget);
        for (chip, step) in steps {
            for m in &step.moved {
                self.relocate(m.from, m.to);
                self.temporal.emit(TraceEvent::DrainMove {
                    tick,
                    from_chip: m.from.chip,
                    from_vm: m.from.vm.0,
                    to_chip: m.to.chip,
                    to_vm: m.to.vm.0,
                    cost: m.cost,
                });
                ctx.events.drain_migrations += 1;
            }
            self.temporal.detail(|| TraceEvent::DrainStep {
                tick,
                chip,
                moved: step.moved.len() as u64,
                skipped: step.skipped as u64,
                remaining: step.remaining as u64,
            });
        }
        Ok(())
    }

    /// Tick phase ([`Phase::Defrag`]), optional: when a policy is
    /// configured and the interval is due, [`Cluster::defrag_pass`] plans
    /// per schedulable chip from the cluster's memoized snapshots and
    /// commits under the default per-chip budget, pausing each migrated
    /// tenant on its chip's machine for the next epoch. Committed passes
    /// book the recovered fragmentation against the before-picture read
    /// from the memo when the pass was due. The interval is anchored to
    /// the first completed admission tick: before any placement exists a
    /// pass can only waste work, and an anchor of tick 0 would skew
    /// `defrag_interval`-relative accounting for traffic that starts
    /// late.
    fn defrag(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        let tick = ctx.tick;
        let interval = self.cfg.defrag_interval;
        let due = interval > 0
            && self
                .first_admission_tick
                .is_some_and(|t0| tick >= t0 && (tick - t0) % interval == 0);
        let Some(defrag) = self.cfg.defrag.as_ref().filter(|_| due) else {
            return Ok(());
        };
        let before: Vec<FragmentationStats> = (0..self.cluster.chip_count())
            .map(|chip| self.cluster.snapshot_cached(chip).frag)
            .collect();
        let receipts = self.cluster.defrag_pass(defrag)?;
        for (chip, receipt) in receipts {
            if receipt.migrated.is_empty() {
                continue;
            }
            for (vm, cost) in &receipt.migrated {
                self.temporal.emit(TraceEvent::Migrated {
                    tick,
                    chip,
                    vm: vm.0,
                    cost: *cost,
                });
                ctx.events.migrations += 1;
            }
            let (before, after) = (&before[chip], self.cluster.snapshot_cached(chip).frag);
            let delta = before.hbm_external_fragmentation - after.hbm_external_fragmentation;
            self.temporal.emit(TraceEvent::DefragRecovered {
                tick,
                chip,
                window_cores: after
                    .largest_free_component
                    .saturating_sub(before.largest_free_component)
                    as u64,
                // Pre-clamped: only improvements are booked, and
                // folding `+= 0.0` preserves byte-identity for
                // the non-negative running sum.
                hbm_frag_delta: if delta > 0.0 { delta } else { 0.0 },
            });
        }
        Ok(())
    }

    /// Tick phase: folds the pass's configuration work (admissions,
    /// drain evacuations *and* defrag re-deployments) into the controller
    /// clock, then takes the fragmentation sample — after admissions,
    /// maintenance and defrag, before execution — folded chip by chip
    /// over the cluster's memoized snapshots, so only a chip changed
    /// since its last scan is scanned again.
    fn sample(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        self.fold_config_cycles();
        let chips = self.cluster.chip_count();
        let (mut free_cores, mut free_components) = (0u32, 0usize);
        let (mut weighted_conn, mut hbm_frag) = (0.0f64, 0.0f64);
        for chip in 0..chips {
            let frag = self.cluster.snapshot_cached(chip).frag;
            free_cores += frag.free_cores;
            free_components += frag.free_components;
            weighted_conn += frag.free_connectivity * f64::from(frag.free_cores);
            hbm_frag += frag.hbm_external_fragmentation;
        }
        self.fragmentation.push(FragSample {
            tick: ctx.tick,
            free_cores,
            free_components,
            free_connectivity: if free_cores == 0 {
                1.0
            } else {
                weighted_conn / f64::from(free_cores)
            },
            hbm_external_fragmentation: hbm_frag / chips as f64,
            live_vnpus: self.live.len(),
        });
        Ok(())
    }

    /// Tick phase ([`Phase::Execution`]): one machine epoch per chip with
    /// runnable tenants, paying only for what changed.
    ///
    /// Each chip's residents are its machine tenants
    /// ([`Cluster::tenants`]) less those stalled by a fault. A loaded
    /// chip's epoch inputs are spelled into its [`EpochMemo`] key
    /// straight from the hypervisor (on which deployment) and the machine
    /// (hardware generation, pending pauses). A chip whose key equals that of the epoch it last ran —
    /// and that owes no pause, which only a real epoch can charge and
    /// clear — is answered with that epoch's makespan. Every other chip
    /// binds its residents' ring programs and runs the simulator. Chips
    /// are decided, run and folded one after another in chip order, a
    /// reused epoch exactly like a run one: same trace event, same
    /// counters.
    fn execution(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        if !self.cfg.execute_epochs || self.live.is_empty() {
            return Ok(());
        }
        let tick = ctx.tick;
        // Per loaded chip, in chip order: reuse, or bind and run.
        for chip in 0..self.cluster.chip_count() {
            let degraded = self.cluster.machine(chip).has_active_faults();
            self.runnable.clear();
            for (&vm, &tenant) in self.cluster.tenants(chip) {
                // A tenant awaiting recovery is stalled: it still maps
                // dead hardware, so binding it would fault and its NoC
                // traffic could cross a dead link. It resumes the epoch
                // after its recovery (or never, if declared lost). A
                // tenant admitted *this* tick (after the recovery phase
                // ran) gets the same direct check — the next tick's sweep
                // will queue it for recovery.
                let id = ClusterVmId { chip, vm };
                if self.pending_recovery.contains_key(&id)
                    || (degraded && FaultDetector::tenant_affected(&self.cluster, id))
                {
                    continue;
                }
                self.runnable.push((vm, tenant));
            }
            if self.runnable.is_empty() {
                continue;
            }
            let residents = &self.runnable;
            let (machine, hv) = self.cluster.epoch_parts(chip);
            let memo = &mut self.epoch_memo[chip];
            memo.next_key.clear();
            memo.next_key.push(machine.topology_generation());
            for (tenant, pause) in machine.pending_migration_pauses() {
                memo.next_key.extend([u64::from(tenant), pause]);
            }
            let owes_pause = memo.next_key.len() > 1;
            // Tenant IDs are 32-bit, so this cannot be one.
            memo.next_key.push(u64::MAX);
            for &(vm, tenant) in residents {
                let stamp = hv.vnpu(vm)?.deployment_stamp();
                memo.next_key
                    .extend([u64::from(vm.0), u64::from(tenant), stamp]);
            }
            let reuse = !owes_pause && memo.next_key == memo.key;
            if !reuse || cfg!(debug_assertions) {
                for &(vm, tenant) in residents {
                    bind_ring_workload(machine, hv, vm, tenant)?;
                }
            }
            if reuse {
                // Debug builds re-run every reused epoch from scratch:
                // the differential oracle for the memo.
                #[cfg(debug_assertions)]
                assert_eq!(
                    machine.run_epoch_makespan()?,
                    memo.makespan,
                    "chip {chip}, tick {tick}: reused epoch diverges from a fresh run"
                );
                self.epoch_memo_hits += 1;
            } else {
                let clock = self.cfg.time_phases.then(Instant::now);
                memo.makespan = machine.run_epoch_makespan()?;
                if let Some(started) = clock {
                    self.exec_nanos[chip] += started.elapsed().as_nanos() as u64;
                }
            }
            std::mem::swap(&mut memo.key, &mut memo.next_key);
            self.temporal.emit(TraceEvent::Executed {
                tick,
                chip,
                machine_cycles: memo.makespan,
            });
            ctx.events.executed_chips += 1;
        }
        Ok(())
    }

    /// Tick phase: the optional post-tick fleet audit — every invariant
    /// the tick's phases were supposed to preserve, cross-checked
    /// read-only. Findings are data, not errors — callers (and the
    /// report) decide how hard to fail on them.
    fn audit(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        if self.cfg.audit {
            let findings = self.auditor.audit(&self.cluster);
            ctx.events.audit_findings = findings.len() as u64;
            self.audit_findings.extend(findings);
        }
        Ok(())
    }

    /// Tick phase ([`Phase::Recovery`]): the fault → detect → recover
    /// lifecycle. Runs before the arrivals phase folds the configuration
    /// cycles spent so far into the controller clock, so recovery's
    /// configuration work is accounted with the departures', never inside
    /// an admission latency stamp.
    ///
    /// Onsets and repairs scheduled for this tick land on the cluster,
    /// which applies each to the chip's machine, and a core fault also to
    /// its hypervisor's mask ([`Cluster::fault_core`] and friends), so
    /// placements memoized against the pre-fault chip expire by key.
    /// Once all of them have landed, every live tenant that touches a
    /// live fault ([`FaultDetector::tenant_affected`]) joins the
    /// pending-recovery queue, in [`ClusterVmId`] order; every pending
    /// tenant then gets one recovery attempt in the same deterministic
    /// order:
    /// remap-under-pin on its own chip under a similar-topology strategy
    /// (200 candidates), else an emergency cross-chip re-placement (chips
    /// in index order), else it stays pending until `MAX_RECOVERY_TICKS`
    /// (8) ticks after detection, when it is retired as lost. A pending
    /// tenant whose fault is repaired under it self-heals without moving.
    fn recovery(&mut self, ctx: &mut TickCtx) -> Result<(), vnpu::VnpuError> {
        if self.cfg.fault_plan.is_empty() && self.pending_recovery.is_empty() {
            return Ok(());
        }
        let tick = ctx.tick;
        let chip_count = self.cluster.chip_count();

        // Scheduled onsets land, then scheduled repairs.
        let plan = &self.cfg.fault_plan;
        let transitions: Vec<(FaultEvent, bool)> = (plan.onsets_at(tick).map(|ev| (*ev, true)))
            .chain(plan.repairs_at(tick).map(|ev| (*ev, false)))
            .collect();
        for (ev, faulted) in transitions {
            let chip = ev.chip;
            let changed = match (ev.kind, faulted) {
                (FaultKind::Core { core }, true) => self.cluster.fault_core(chip, core)?,
                (FaultKind::Core { core }, false) => self.cluster.repair_core(chip, core)?,
                (FaultKind::Link { a, b }, true) => self.cluster.fault_link(chip, a, b)?,
                (FaultKind::Link { a, b }, false) => self.cluster.repair_link(chip, a, b)?,
            };
            if !changed {
                continue; // duplicate transition: nothing new
            }
            if !faulted {
                self.temporal.emit(TraceEvent::FaultRepair { tick, chip });
                ctx.events.fault_repairs += 1;
                continue;
            }
            self.temporal.emit(TraceEvent::FaultOnset { tick, chip });
            ctx.events.fault_onsets += 1;
        }

        // Detection, once the tick's transitions have landed: every live
        // tenant on a chip with active faults goes through the detector.
        // This catches this tick's victims and also tenants that became
        // affected after an earlier onset — admission only masks faulted
        // cores, so a tenant placed while a link fault is active can
        // route across the dead link without owning any faulted resource.
        let swept: Vec<ClusterVmId> = self
            .live
            .keys()
            .copied()
            .filter(|id| {
                self.cluster.machine(id.chip).has_active_faults()
                    && FaultDetector::tenant_affected(&self.cluster, *id)
            })
            .collect();
        for id in swept {
            self.detect(id, tick);
        }

        // One recovery attempt per pending tenant, in ClusterVmId order.
        let pending: Vec<(ClusterVmId, u64)> = self
            .pending_recovery
            .iter()
            .map(|(&id, &since)| (id, since))
            .collect();
        for (id, since) in pending {
            // Evacuated by a drain while pending (a retirement drops the
            // entry): the tenant lives on under a new identity, which the
            // sweep re-detects if its new spot is affected too.
            if !self.live.contains_key(&id) {
                self.pending_recovery.remove(&id);
                continue;
            }
            let recovered = |kind| TraceEvent::Recovered {
                tick,
                chip: id.chip,
                vm: id.vm.0,
                kind,
                onset_tick: since,
            };
            // Fault repaired under the tenant: self-healed in place.
            if !FaultDetector::tenant_affected(&self.cluster, id) {
                self.pending_recovery.remove(&id);
                self.temporal.emit(recovered(RecoveryKind::SelfHealed));
                continue;
            }
            // (a) Remap-under-pin around the dead resource. The plan
            //     machinery never re-offers a faulted *core*, so a
            //     committed remap provably escapes core faults — but a
            //     link-affected tenant's cores are all healthy, and the
            //     remap may land right back on the dead link's
            //     endpoints. Re-check before declaring victory; a paid
            //     remap that failed to escape falls through to the
            //     emergency re-placement.
            if let Ok(cost) = self
                .cluster
                .recover_in_place(id, &recovery_remap_strategy())
            {
                // Paid even when the remap fails to escape a link fault
                // — the report books *paid* costs, so the emission is
                // tied to the commit, not to the success check below.
                self.temporal.emit(TraceEvent::RecoveryPaid {
                    tick,
                    chip: id.chip,
                    cost,
                });
                if !FaultDetector::tenant_affected(&self.cluster, id) {
                    self.pending_recovery.remove(&id);
                    self.temporal.emit(recovered(RecoveryKind::Remapped));
                    ctx.events.recoveries_remapped += 1;
                    continue;
                }
            }
            // (b) Emergency cross-chip re-placement, chips in index
            //     order (the unplanned, unbudgeted cousin of a drain
            //     evacuation).
            let landed = (0..chip_count)
                .filter(|&dest| dest != id.chip)
                .find_map(|dest| self.cluster.migrate_to_chip(id, dest).ok());
            if let Some((new_id, cost)) = landed {
                self.relocate(id, new_id);
                self.pending_recovery.remove(&id);
                self.temporal.emit(TraceEvent::RecoveryPaid {
                    tick,
                    chip: id.chip,
                    cost,
                });
                // Booked against the *old* identity — the outage being
                // resolved is the one detected on the source chip.
                self.temporal.emit(recovered(RecoveryKind::Replaced));
                ctx.events.recoveries_replaced += 1;
                continue;
            }
            // (c) Nowhere to go: lost after the deadline, else pending.
            if tick - since >= MAX_RECOVERY_TICKS {
                self.temporal.emit(TraceEvent::TenantLost {
                    tick,
                    chip: id.chip,
                    vm: id.vm.0,
                    onset_tick: since,
                });
                self.retire(id, tick)?;
                ctx.events.tenants_lost += 1;
            }
        }
        ctx.events.recoveries_pending = self.pending_recovery.len() as u64;

        // Degraded-mode accounting: a chip with any active fault at the
        // end of the phase serves this tick at the degraded router
        // penalty.
        for chip in 0..chip_count {
            if self.cluster.machine(chip).has_active_faults() {
                self.temporal.emit(TraceEvent::Degraded { tick, chip });
            }
        }
        Ok(())
    }

    /// Queues a fault-affected live tenant for recovery (once).
    fn detect(&mut self, id: ClusterVmId, tick: u64) {
        if self.pending_recovery.contains_key(&id) {
            return;
        }
        self.pending_recovery.insert(id, tick);
        self.temporal.emit(TraceEvent::RecoveryDetected {
            tick,
            chip: id.chip,
            vm: id.vm.0,
        });
    }

    /// Every finding the post-tick fleet audits have reported so far, in
    /// tick order (empty unless [`ServeConfig::audit`] is on — and empty
    /// on a healthy fleet even then).
    pub fn audit_findings(&self) -> &[AuditFinding] {
        &self.audit_findings
    }

    /// Every `TEMP-*` finding the streaming temporal checker has
    /// reported so far (empty unless [`ServeConfig::temporal`] is on —
    /// and empty on a healthy run even then). The deadline-bound
    /// obligations ([`vnpu_temporal::TempRule::Starvation`],
    /// [`vnpu_temporal::TempRule::FaultDeadline`]) are only fully
    /// settled after [`ServeRuntime::drain`] finalizes the checker.
    pub fn temporal_findings(&self) -> &[TemporalFinding] {
        self.temporal.checker.as_ref().map_or(&[], |c| c.findings())
    }

    /// The recorded event stream (`None` unless
    /// [`ServeConfig::record_trace`] is on). Feed it to
    /// [`vnpu_temporal::check_trace`] for offline verification, or
    /// corrupt a copy to prove the checker catches the corruption.
    pub fn trace(&self) -> Option<&[TraceEvent]> {
        self.temporal.trace.as_deref()
    }

    /// The recorded event stream with a final
    /// [`TraceEvent::ReportClaim`] appended, restating the run counters
    /// the fold accumulated. No rule reads the claim — it is the fold of
    /// the events before it — and the method stays because `benchmark/`
    /// calls it. `None` unless [`ServeConfig::record_trace`] is on.
    pub fn trace_with_claim(&self) -> Option<Vec<TraceEvent>> {
        let trace = self.temporal.trace.as_ref()?;
        let fold = &self.temporal.fold;
        let mut out = trace.clone();
        out.push(TraceEvent::ReportClaim {
            tick: self.tick,
            migrations: fold.migrations,
            drain_migrations: fold.drain_migrations,
            reconfig: fold.reconfig,
            drain_reconfig: fold.drain_reconfig,
            recovery_reconfig: fold.recovery_reconfig,
        });
        Some(out)
    }

    /// Retires every remaining tenant so leak accounting is meaningful
    /// (a correct run ends with pristine chips). Returns the number of
    /// tenants drained.
    ///
    /// # Errors
    ///
    /// Propagates teardown failures.
    pub fn drain(&mut self) -> Result<u64, vnpu::VnpuError> {
        let tick = self.tick;
        let remaining: Vec<ClusterVmId> = self.live.keys().copied().collect();
        let count = remaining.len() as u64;
        for id in remaining {
            self.retire(id, tick)?;
        }
        // End-of-run quiescence probe: after the final drain a correct
        // run holds no tenants, no occupied cores or HBM, and (absent
        // permanent faults) one free region per chip — TEMP-LEAK's
        // obligations.
        self.temporal.detail(|| {
            let chips = || self.cluster.chips();
            TraceEvent::Quiesced {
                tick,
                live_vnpus: self.live.len() as u64,
                leaked_cores: chips().map(|hv| u64::from(hv.leaked_core_count())).sum(),
                leaked_hbm_bytes: chips()
                    .map(|hv| hv.hbm_total_bytes() - hv.hbm_free_bytes())
                    .sum(),
                faulted_cores: chips().map(|hv| u64::from(hv.faulted_core_count())).sum(),
                free_components: chips()
                    .map(|hv| hv.fragmentation().free_components as u64)
                    .sum(),
                chips: self.cluster.chip_count() as u64,
            }
        });
        if let Some(checker) = self.temporal.checker.as_mut() {
            checker.finish();
        }
        Ok(count)
    }

    /// A snapshot report of the run so far. Leak accounting reflects the
    /// *current* occupancy — call [`ServeRuntime::drain`] first (as
    /// [`ServeRuntime::run`] does) for the end-of-run invariant that
    /// leaks must be zero.
    pub fn report(&self) -> ServeReport {
        let mut sorted = self.placement_cycles.clone();
        sorted.sort_unstable();
        // Every run counter below is read off the event fold — the same
        // stream the temporal checker consumes — so the report cannot
        // claim numbers the events don't support.
        let fold = &self.temporal.fold;
        let per_chip: Vec<ChipReport> = self
            .cluster
            .chips()
            .enumerate()
            .map(|(i, hv)| {
                let counters = &fold.per_chip[i];
                ChipReport {
                    chip: i,
                    mesh_width: hv.config().mesh_width,
                    mesh_height: hv.config().mesh_height,
                    accepted: counters.accepted,
                    departed: counters.departed,
                    migrations: counters.migrations,
                    drain_evacuated: counters.drain_evacuated,
                    drain_received: counters.drain_received,
                    sched: self
                        .cluster
                        .drain_state(i)
                        .unwrap_or(ChipSchedState::Schedulable),
                    residual_vnpus: hv.vnpu_count() as u64,
                    executed_epochs: counters.executed_epochs,
                    machine_cycles: counters.machine_cycles,
                    fault_onsets: counters.fault_onsets,
                    fault_repairs: counters.fault_repairs,
                    recoveries_remapped: counters.recoveries_remapped,
                    recoveries_replaced: counters.recoveries_replaced,
                    tenants_lost: counters.tenants_lost,
                    degraded_ticks: counters.degraded_ticks,
                    faulted_cores: u64::from(hv.faulted_core_count()),
                    // An unowned faulted core is dead hardware held out of
                    // the free region by the fault mask — not leaked
                    // tenant state.
                    leaked_cores: hv.leaked_core_count(),
                    leaked_hbm_bytes: hv.hbm_total_bytes() - hv.hbm_free_bytes(),
                    exec_nanos: self.exec_nanos[i],
                }
            })
            .collect();
        ServeReport {
            seed: self.cfg.traffic.seed,
            epochs: self.tick,
            submitted: self.generator.generated(),
            accepted: fold.accepted,
            rejected: fold.rejected,
            queued_at_end: self.cluster.pending_count() as u64,
            departed: fold.departed,
            p50_placement_cycles: percentile(&sorted, 50),
            p99_placement_cycles: percentile(&sorted, 99),
            max_placement_cycles: sorted.last().copied().unwrap_or(0),
            migrations: fold.migrations,
            drain_migrations: fold.drain_migrations,
            drain_reconfig: fold.drain_reconfig,
            reconfig: fold.reconfig,
            frag_windows_recovered: fold.frag_windows_recovered,
            hbm_frag_recovered: fold.hbm_frag_recovered,
            cache: self.cluster.cache_stats(),
            fragmentation: self.fragmentation.clone(),
            executed_epochs: fold.executed_epochs,
            machine_cycles: fold.machine_cycles,
            controller_cycles: self.controller_cycles,
            leaked_cores: per_chip.iter().map(|c| c.leaked_cores).sum(),
            leaked_hbm_bytes: per_chip.iter().map(|c| c.leaked_hbm_bytes).sum(),
            audit_findings: self.audit_findings.len() as u64,
            temporal_findings: self.temporal_findings().len() as u64,
            faults_injected: fold.faults_injected,
            faults_repaired: fold.faults_repaired,
            recoveries_remapped: fold.recoveries_remapped,
            recoveries_replaced: fold.recoveries_replaced,
            recoveries_self_healed: fold.recoveries_self_healed,
            tenants_lost: fold.tenants_lost,
            recoveries_pending: self.pending_recovery.len() as u64,
            recovery_reconfig: fold.recovery_reconfig,
            degraded_ticks: fold.degraded_ticks,
            mttr_total_ticks: fold.mttr_total_ticks,
            mttr_max_ticks: fold.mttr_max_ticks,
            workers: self.cfg.workers,
            recovery_nanos: self.phase_nanos[Phase::Recovery as usize],
            admission_nanos: self.phase_nanos[Phase::Admission as usize],
            drain_nanos: self.phase_nanos[Phase::Drain as usize],
            defrag_nanos: self.phase_nanos[Phase::Defrag as usize],
            execution_nanos: self.phase_nanos[Phase::Execution as usize],
            per_chip,
        }
    }

    /// Tears a live tenant down, dropping any recovery it was pending.
    fn retire(&mut self, id: ClusterVmId, tick: u64) -> Result<(), vnpu::VnpuError> {
        self.live.remove(&id).expect("retire() only on live vms");
        self.pending_recovery.remove(&id);
        self.cluster.destroy(id)?;
        self.temporal.emit(TraceEvent::Departed {
            tick,
            chip: id.chip,
            vm: id.vm.0,
        });
        Ok(())
    }
}

/// Binds one live vNPU's epoch workload: each virtual core computes and
/// forwards a small activation block around the virtual ring (vRouter +
/// vChunk services exercise the whole virtualization stack), single cores
/// just compute.
fn bind_ring_workload(
    machine: &mut Machine,
    hv: &Hypervisor,
    vm: VmId,
    tenant: TenantId,
) -> Result<(), vnpu::VnpuError> {
    let vnpu = hv.vnpu(vm)?;
    let n = vnpu.core_count();
    for v in 0..n {
        let phys = vnpu.phys_core(VirtCoreId(v))?;
        let services = hv.services(vm, VirtCoreId(v))?;
        let body = if n == 1 {
            vec![Instr::matmul(16, 16, 16)]
        } else {
            let next = (v + 1) % n;
            let prev = (v + n - 1) % n;
            vec![
                Instr::matmul(16, 16, 16),
                Instr::send(next, 1024, v),
                Instr::recv(prev, 1024, prev),
            ]
        };
        machine.bind_with(phys, tenant, v, Program::looped(vec![], body, 1), services)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Shape;
    use vnpu::cluster::LeastLoaded;

    fn quick_cfg(seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::standard(seed, 80);
        cfg.traffic.candidate_cap = 200;
        cfg
    }

    fn quick_cluster_cfg(seed: u64) -> ServeConfig {
        let small = SocConfig {
            mesh_width: 4,
            mesh_height: 4,
            ..SocConfig::sim()
        };
        let mut cfg = ServeConfig::cluster(seed, 80, vec![SocConfig::sim(), small]);
        cfg.traffic.candidate_cap = 200;
        cfg
    }

    /// A fleet that falls quiet: `chips` chips of `mesh` cores, offered
    /// only `shape` tenants that practically never leave, one request a
    /// tick, each tried once. As soon as no further `shape` fits, ticks
    /// stop changing anything.
    fn quiet_cfg(chips: usize, mesh: (u32, u32), shape: Shape) -> ServeConfig {
        let soc = SocConfig {
            mesh_width: mesh.0,
            mesh_height: mesh.1,
            ..SocConfig::sim()
        };
        let mut cfg = ServeConfig::cluster(5, 0, vec![soc; chips]);
        cfg.traffic.mix = vec![(1, shape)];
        cfg.traffic.mean_interarrival_ticks = 1;
        cfg.traffic.mean_lifetime_epochs = 1_000_000;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.max_attempts = Some(1);
        cfg
    }

    /// Steps once; returns `(chips executed, of which reused)`.
    fn step_reuse(rt: &mut ServeRuntime) -> (u32, u64) {
        let before = rt.epoch_memo_hits();
        let ev = rt.step().unwrap();
        (ev.executed_chips, rt.epoch_memo_hits() - before)
    }

    /// Steps a [`quiet_cfg`] fleet until `tenants` are resident and one
    /// more tick has run them (arrivals come in bursts, so the fill-up
    /// takes a seed-dependent handful of ticks).
    fn settle(rt: &mut ServeRuntime, tenants: usize) {
        while rt.live_count() < tenants {
            assert!(rt.tick_index() < 30, "the fleet fills within 30 ticks");
            rt.step().unwrap();
        }
        rt.step().unwrap();
    }

    #[test]
    fn steady_fleet_reuses_epochs_and_reports_them_as_executed() {
        // Two 4x2 chips, two 2x2 tenants each. Once all four are resident
        // every chip epoch is a reuse — and still one `Executed` event,
        // one executed epoch and one makespan's worth of machine cycles
        // per chip per tick. The pinned totals are what the
        // re-bind-and-run-every-tick loop produced for this run.
        let mut cfg = quiet_cfg(2, (4, 2), Shape::Mesh(2, 2));
        cfg.record_trace = true;
        let mut rt = ServeRuntime::new(cfg);
        settle(&mut rt, 4);
        let settled_at = rt.tick_index();
        while rt.tick_index() < 50 {
            assert_eq!(step_reuse(&mut rt), (2, 2), "tick {}", rt.tick_index() - 1);
        }
        let executed_events = |tick: u64| {
            rt.trace()
                .unwrap()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Executed { tick: t, .. } if *t == tick))
                .count()
        };
        assert!((settled_at..50).all(|t| executed_events(t) == 2));
        let r = rt.report();
        assert_eq!((r.executed_epochs, r.machine_cycles), (92, 43_276));
        let chip = |i: usize| (r.per_chip[i].executed_epochs, r.per_chip[i].machine_cycles);
        assert_eq!((chip(0), chip(1)), ((46, 21_666), (46, 21_610)));
        assert!(rt.epoch_memo_hits() >= 2 * (50 - settled_at));
    }

    #[test]
    fn an_epoch_is_reused_exactly_when_nothing_it_depends_on_changed() {
        // One chip under sparse churn: every tick either admits or
        // retires someone (the resident set differs: a fresh epoch) or
        // changes nothing (a reuse). Both kinds must occur, alone, many
        // times.
        let mut cfg = ServeConfig::standard(23, 0);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 5;
        cfg.traffic.mean_lifetime_epochs = 12;
        let mut rt = ServeRuntime::new(cfg);
        let (mut admits, mut retires, mut quiet) = (0, 0, 0);
        for _ in 0..400 {
            let before = rt.epoch_memo_hits();
            let ev = rt.step().unwrap();
            let reused = rt.epoch_memo_hits() - before;
            if ev.executed_chips == 0 {
                continue; // empty chip: nothing to run or reuse
            }
            let changed = !ev.admitted.is_empty() || ev.departed > 0;
            assert_eq!(reused, u64::from(!changed), "tick {}: {ev:?}", ev.tick);
            admits += u32::from(!ev.admitted.is_empty() && ev.departed == 0);
            retires += u32::from(ev.admitted.is_empty() && ev.departed > 0);
            quiet += u32::from(!changed);
        }
        assert!(admits > 10 && retires > 10 && quiet > 100);
    }

    #[test]
    fn pauses_and_hardware_changes_each_force_a_fresh_epoch() {
        let mut rt = ServeRuntime::new(quiet_cfg(1, (3, 3), Shape::Mesh(2, 2)));
        settle(&mut rt, 1); // a second 2x2 does not fit a 3x3 chip
        let tenant = *rt.cluster().tenants(0).values().next().unwrap();
        assert_eq!(step_reuse(&mut rt), (1, 1), "settled");
        let steady = rt.epoch_memo[0].makespan;

        // A migration pause: fresh on the tick it lands (the epoch runs
        // late by the pause), fresh again on the tick after (the pause is
        // spent), then steady at the old makespan.
        let (machine, _) = rt.cluster.epoch_parts(0);
        machine.migrate_tenant(tenant, 700).unwrap();
        assert_eq!(step_reuse(&mut rt), (1, 0));
        assert!(rt.epoch_memo[0].makespan > steady + 600);
        assert_eq!(step_reuse(&mut rt), (1, 0));
        assert_eq!(rt.epoch_memo[0].makespan, steady);
        assert_eq!(step_reuse(&mut rt), (1, 1));

        // A hybrid-core reconfiguration — and a re-set to the same
        // values, which moves the generation chain all the same.
        for _ in 0..2 {
            rt.set_core_scales(0, 0, 300, 100).unwrap();
            assert_eq!(step_reuse(&mut rt), (1, 0));
            assert!(rt.epoch_memo[0].makespan > steady, "a slower core 0");
            assert_eq!(step_reuse(&mut rt), (1, 1));
        }
    }

    #[test]
    fn fault_onset_repair_and_recovery_stalls_each_force_a_fresh_epoch() {
        // A 4x2 chip packed with two 2x2 tenants on {0,1,4,5} and
        // {2,3,6,7}. Core 7 fails at tick 40 and is repaired at tick 44:
        // its owner has nowhere to go, so it stalls (pending recovery)
        // until the repair heals it in place, while its neighbour keeps
        // executing on the degraded chip.
        let mut cfg = quiet_cfg(1, (4, 2), Shape::Mesh(2, 2));
        cfg.fault_plan = FaultPlan::new().core_fault(0, 7, 40, Some(44));
        let mut rt = ServeRuntime::new(cfg);
        settle(&mut rt, 2);
        let mut makespans = std::collections::BTreeMap::new();
        while rt.tick_index() < 50 {
            let tick = rt.tick_index();
            // Onset: the generation moves, the chip degrades and one
            // resident drops out of the runnable set. Repair: the
            // generation moves again and the stalled tenant is back.
            let fresh = tick == 40 || tick == 44;
            assert_eq!(step_reuse(&mut rt), (1, u64::from(!fresh)), "tick {tick}");
            assert_eq!(
                rt.pending_recovery.len(),
                usize::from((40..44).contains(&tick))
            );
            makespans.insert(tick, rt.epoch_memo[0].makespan);
        }
        assert_eq!(rt.live_count(), 2, "nobody was lost");
        assert_ne!(makespans[&40], makespans[&39], "one tenant, degraded");
        assert_eq!(makespans[&49], makespans[&39], "healed: the old epoch");

        // A fault on a core nobody owns stalls nobody, but the chip still
        // degrades — onset and repair are each a fresh epoch. (Placement
        // is deterministic: a dry run finds a core the tenant leaves free.)
        let cfg = quiet_cfg(1, (3, 3), Shape::Mesh(2, 2));
        let mut dry = ServeRuntime::new(cfg.clone());
        settle(&mut dry, 1);
        let hv = dry.cluster().chip(0);
        let free_core = (0..9u32)
            .find(|&c| hv.free_set().contains(vnpu_topo::NodeId(c)))
            .unwrap();
        let mut cfg = cfg;
        cfg.fault_plan = FaultPlan::new().core_fault(0, free_core, 40, Some(44));
        let mut rt = ServeRuntime::new(cfg);
        settle(&mut rt, 1);
        while rt.tick_index() < 50 {
            let tick = rt.tick_index();
            let fresh = tick == 40 || tick == 44;
            assert_eq!(step_reuse(&mut rt), (1, u64::from(!fresh)), "tick {tick}");
            assert!(rt.pending_recovery.is_empty());
        }
    }

    #[test]
    fn reports_and_digests_rerun_identical_with_epochs_reused() {
        // Long-lived tenants on three chips: most epochs are reuses, and
        // which ones are must repeat run after run — as must the report,
        // every tick's events and the recorded trace.
        let run = || {
            let mut cfg = quick_cluster_cfg(19);
            cfg.chips.push(cfg.chips[0].clone());
            cfg.epochs = 70;
            cfg.traffic.mean_interarrival_ticks = 3;
            cfg.traffic.mean_lifetime_epochs = 25;
            cfg.placement = Arc::new(LeastLoaded);
            cfg.record_trace = true;
            let mut rt = ServeRuntime::new(cfg);
            let events: Vec<TickEvents> = (0..70).map(|_| rt.step().unwrap()).collect();
            rt.drain().unwrap();
            (
                rt.report().to_json(usize::MAX),
                events,
                rt.trace().unwrap().to_vec(),
                rt.epoch_memo_hits(),
            )
        };
        let (json, events, trace, hits) = run();
        assert!(hits > 50, "the scenario must actually reuse epochs: {hits}");
        let (j, e, t, h) = run();
        assert_eq!(j, json);
        assert_eq!(e, events);
        assert_eq!(t, trace);
        assert_eq!(h, hits);
    }

    #[test]
    fn churn_run_is_deterministic_and_leak_free() {
        let a = ServeRuntime::new(quick_cfg(11)).run().unwrap();
        let b = ServeRuntime::new(quick_cfg(11)).run().unwrap();
        assert_eq!(a, b, "same seed must reproduce the whole report");
        assert_eq!(a.leaked_cores, 0);
        assert_eq!(a.leaked_hbm_bytes, 0);
        assert!(
            a.submitted > 20,
            "traffic must actually flow: {}",
            a.submitted
        );
        assert!(a.accepted > 0);
        assert_eq!(
            a.accepted + a.rejected + a.queued_at_end,
            a.submitted,
            "every request is accounted exactly once"
        );
        assert!(a.departed >= a.accepted.saturating_sub(36), "tenants churn");
        assert!(a.executed_epochs > 0);
        assert!(a.machine_cycles > 0);
        assert_eq!(a.per_chip.len(), 1);
        assert_eq!(a.per_chip[0].accepted, a.accepted);
    }

    #[test]
    fn cluster_churn_spreads_and_stays_leak_free() {
        let mut cfg = quick_cluster_cfg(17);
        cfg.placement = Arc::new(LeastLoaded);
        let r = ServeRuntime::new(cfg).run().unwrap();
        assert_eq!(r.leaked_cores, 0);
        assert_eq!(r.leaked_hbm_bytes, 0);
        assert_eq!(r.per_chip.len(), 2);
        assert!(
            r.per_chip.iter().all(|c| c.accepted > 0),
            "least-loaded must use both chips: {:?}",
            r.per_chip
        );
        assert_eq!(
            r.per_chip.iter().map(|c| c.accepted).sum::<u64>(),
            r.accepted
        );
        assert_eq!(
            r.per_chip.iter().map(|c| c.departed).sum::<u64>(),
            r.departed
        );
    }

    #[test]
    fn step_api_matches_batch_run() {
        // Driving the loop manually must reproduce run() exactly.
        let batch = ServeRuntime::new(quick_cfg(11)).run().unwrap();
        let mut rt = ServeRuntime::new(quick_cfg(11));
        let mut total_arrivals = 0;
        for _ in 0..80 {
            let ev = rt.step().unwrap();
            total_arrivals += ev.arrivals;
        }
        rt.drain().unwrap();
        let stepped = rt.report();
        assert_eq!(batch, stepped);
        assert_eq!(total_arrivals, stepped.submitted);
    }

    #[test]
    fn mid_run_policy_swap_keeps_running_and_queue() {
        let mut cfg = quick_cfg(7);
        cfg.placement = Arc::new(LeastLoaded);
        let mut rt = ServeRuntime::new(cfg);
        for _ in 0..40 {
            rt.step().unwrap();
        }
        rt.set_placement(Arc::new(FirstFit));
        for _ in 0..40 {
            rt.step().unwrap();
        }
        rt.drain().unwrap();
        let r = rt.report();
        assert_eq!(r.leaked_cores, 0);
        assert_eq!(r.leaked_hbm_bytes, 0);
        assert!(r.accepted > 0);
    }

    #[test]
    fn cache_hits_accumulate_under_churn() {
        let r = ServeRuntime::new(quick_cfg(5)).run().unwrap();
        assert!(
            r.cache.hits > 0,
            "popular shapes against recurring free regions must hit: {:?}",
            r.cache
        );
        assert!(r.cache_hit_rate() > 0.0);
    }

    #[test]
    fn placement_latency_percentiles_are_ordered() {
        let r = ServeRuntime::new(quick_cfg(9)).run().unwrap();
        assert!(r.p50_placement_cycles <= r.p99_placement_cycles);
        assert!(r.p99_placement_cycles <= r.max_placement_cycles);
        assert!(
            r.max_placement_cycles > 0,
            "placements cost controller cycles"
        );
    }

    #[test]
    fn fragmentation_trajectory_has_one_sample_per_tick() {
        let r = ServeRuntime::new(quick_cfg(3)).run().unwrap();
        assert_eq!(r.fragmentation.len(), r.epochs as usize);
        for s in &r.fragmentation {
            assert!(s.free_cores <= 36);
            assert!(s.free_connectivity >= 0.0 && s.free_connectivity <= 1.0);
            assert!(s.hbm_external_fragmentation >= 0.0 && s.hbm_external_fragmentation <= 1.0);
        }
        // Under real load the chip must not sit idle the whole run.
        assert!(r.fragmentation.iter().any(|s| s.live_vnpus > 0));
    }

    #[test]
    fn placement_only_mode_skips_execution() {
        let mut cfg = quick_cfg(2);
        cfg.execute_epochs = false;
        let r = ServeRuntime::new(cfg).run().unwrap();
        assert_eq!(r.executed_epochs, 0);
        assert_eq!(r.machine_cycles, 0);
        assert!(r.accepted > 0);
    }

    #[test]
    fn defrag_phase_pays_costed_migrations_and_recovers_fragmentation() {
        use vnpu::plan::{GreedyDefrag, ReconfigCost};
        let baseline = ServeRuntime::new(quick_cfg(13)).run().unwrap();
        assert_eq!(baseline.migrations, 0, "no defragmenter, no migrations");
        assert_eq!(baseline.reconfig, ReconfigCost::default());

        // Every pass is held to the default budget, which no config field
        // states: on this one-chip fleet no tick may book more migrations
        // than it admits. Returns the report and the most one tick booked.
        let cap = ReconfigBudget::default().max_migrations as u64;
        let run_capped = |cfg: &ServeConfig| {
            let mut rt = ServeRuntime::new(cfg.clone());
            let mut most = 0;
            for _ in 0..cfg.epochs {
                let ev = rt.step().unwrap();
                assert!(ev.migrations <= cap, "tick {}: {}", ev.tick, ev.migrations);
                most = most.max(ev.migrations);
            }
            rt.drain().unwrap();
            (rt.report(), most)
        };
        let mut cfg = quick_cfg(13);
        cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
        let (defragged, _) = run_capped(&cfg);
        let again = ServeRuntime::new(cfg.clone()).run().unwrap();
        assert_eq!(defragged, again, "defrag runs must stay deterministic");
        assert!(
            defragged.migrations > 0,
            "churn fragments the chip; the defragmenter must act"
        );
        // Every migration's cost is accounted: migrations imply paid
        // reconfiguration (meta-table cycles, moved bytes, pause time).
        assert!(defragged.reconfig.config_cycles() > 0);
        assert!(defragged.reconfig.data_move_bytes > 0);
        assert!(
            defragged.reconfig.paused_cycles >= defragged.reconfig.config_cycles(),
            "the pause covers at least the meta-table rewrites"
        );
        assert!(
            defragged.frag_windows_recovered > 0 || defragged.hbm_frag_recovered > 0.0,
            "committed passes must book recovered fragmentation"
        );
        assert_eq!(
            defragged.per_chip.iter().map(|c| c.migrations).sum::<u64>(),
            defragged.migrations,
            "per-chip sections cover every migration"
        );
        // Same arrival stream, same leak-freedom.
        assert_eq!(defragged.submitted, baseline.submitted);
        assert_eq!(defragged.leaked_cores, 0);
        assert_eq!(defragged.leaked_hbm_bytes, 0);

        // A policy that ignores the budget is held to it all the same, and
        // among thirty-odd single-core tenants of mixed HBM sizes the cap
        // binds.
        cfg.traffic.mix = vec![(1, Shape::Mesh(1, 1))];
        cfg.traffic.mem_choices = vec![16 << 20, 32 << 20, 64 << 20];
        cfg.traffic.mean_interarrival_ticks = 1;
        cfg.traffic.mean_lifetime_epochs = 30;
        cfg.defrag = Some(Arc::new(CompactEveryone));
        let (compacted, most) = run_capped(&cfg);
        assert_eq!(most, cap, "{}", compacted.to_json(8));
        assert_eq!(compacted.leaked_hbm_bytes, 0);
    }

    /// A defragmenter that ignores its budget: every pass proposes an HBM
    /// compaction of every live tenant.
    #[derive(Debug)]
    struct CompactEveryone;

    impl Defragmenter for CompactEveryone {
        fn plan(
            &self,
            hv: &Hypervisor,
            _stats: &vnpu::admission::FragmentationStats,
            _budget: &ReconfigBudget,
            _cache: &mut vnpu_topo::cache::MappingCache,
        ) -> Vec<vnpu::plan::PlanOp> {
            hv.vnpus()
                .map(|(&vm, _)| vnpu::plan::PlanOp::Migrate {
                    vm,
                    to: vnpu::plan::MigrationTarget::CompactMemory,
                })
                .collect()
        }
    }

    /// A defragmenter that proposes nothing but counts its invocations.
    #[derive(Debug, Default)]
    struct CountingDefrag(std::sync::atomic::AtomicU64);

    impl Defragmenter for CountingDefrag {
        fn plan(
            &self,
            _hv: &Hypervisor,
            _stats: &vnpu::admission::FragmentationStats,
            _budget: &ReconfigBudget,
            _cache: &mut vnpu_topo::cache::MappingCache,
        ) -> Vec<vnpu::plan::PlanOp> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Vec::new()
        }
    }

    #[test]
    fn defrag_interval_is_anchored_to_the_first_admission() {
        use std::sync::atomic::Ordering;
        // Regression: `tick % defrag_interval == 0` fired at tick 0,
        // before any placement existed — a wasted pass, and it skewed
        // interval-relative accounting for traffic that starts late.
        // With no traffic at all, the defragmenter must never run.
        let counting = Arc::new(CountingDefrag::default());
        let mut cfg = quick_cfg(11);
        cfg.traffic.mean_interarrival_ticks = 1_000_000; // silence
        cfg.defrag = Some(counting.clone());
        cfg.defrag_interval = 1;
        let mut rt = ServeRuntime::new(cfg);
        for _ in 0..20 {
            rt.step().unwrap();
        }
        assert_eq!(
            counting.0.load(Ordering::SeqCst),
            0,
            "no admission ever completed, so no defrag pass may run"
        );

        // With real traffic, the interval is anchored to the first
        // completed admission tick: passes run at t0, t0+k, t0+2k, ...
        let counting = Arc::new(CountingDefrag::default());
        let mut cfg = quick_cfg(11);
        cfg.defrag = Some(counting.clone());
        cfg.defrag_interval = 3;
        let mut rt = ServeRuntime::new(cfg);
        let mut t0: Option<u64> = None;
        let mut expected = 0u64;
        for _ in 0..30 {
            let ev = rt.step().unwrap();
            if t0.is_none() && !ev.admitted.is_empty() {
                t0 = Some(ev.tick);
            }
            if let Some(t0) = t0 {
                if ev.tick >= t0 && (ev.tick - t0) % 3 == 0 {
                    expected += 1; // one pass per chip; this run has one chip
                }
            }
        }
        assert!(t0.is_some(), "traffic must place something in 30 ticks");
        assert_eq!(
            counting.0.load(Ordering::SeqCst),
            expected,
            "defrag passes fire exactly on the anchored interval"
        );
    }

    #[test]
    fn maintenance_phase_evacuates_a_draining_chip() {
        use vnpu::drain::ChipSchedState;
        // Two identical chips under least-loaded placement; after a warm
        // phase, chip 0 goes into maintenance. The maintenance phase must
        // move its tenants off (budgeted per tick), serving must continue
        // on chip 1 only, and undrain must bring chip 0 back.
        let small_budget = ReconfigBudget {
            max_migrations: 2,
            ..ReconfigBudget::default()
        };
        let mut cfg = ServeConfig::cluster(19, 200, vec![SocConfig::sim(), SocConfig::sim()]);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 2;
        cfg.traffic.mean_lifetime_epochs = 10;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.drain_budget = small_budget;
        let mut rt = ServeRuntime::new(cfg);
        // Warm until chip 0 carries a real population (≥ 3 tenants), so
        // the budgeted evacuation below takes more than one step.
        let mut warm = 0;
        while rt.cluster().chip(0).vnpu_count() < 3 {
            rt.step().unwrap();
            warm += 1;
            assert!(warm < 200, "traffic must load chip 0");
        }
        rt.begin_drain(0).unwrap();
        let mut evacuated = 0u64;
        let mut ticks = 0u64;
        while rt.cluster().chip(0).vnpu_count() > 0 {
            let ev = rt.step().unwrap();
            assert!(
                ev.drain_migrations <= 2,
                "the per-epoch budget caps evacuations: {}",
                ev.drain_migrations
            );
            assert!(
                ev.admitted.iter().all(|id| id.chip != 0),
                "no request may be placed on the draining chip"
            );
            evacuated += ev.drain_migrations;
            ticks += 1;
            assert!(ticks < 100, "the drain must converge");
        }
        assert!(
            evacuated > 0,
            "the maintenance phase must actually move tenants"
        );
        assert_eq!(
            rt.report().per_chip[0].sched,
            ChipSchedState::Draining,
            "a mid-evacuation report names the draining state"
        );
        rt.complete_drain(0).unwrap();
        assert_eq!(rt.drain_state(0), Ok(ChipSchedState::Drained));
        assert_eq!(
            rt.report().per_chip[0].sched,
            ChipSchedState::Drained,
            "a maintenance-window report names the drained state"
        );
        for _ in 0..10 {
            let ev = rt.step().unwrap();
            assert!(ev.admitted.iter().all(|id| id.chip != 0));
        }
        rt.undrain(0).unwrap();
        let mut placed_on_zero = false;
        for _ in 0..40 {
            let ev = rt.step().unwrap();
            placed_on_zero |= ev.admitted.iter().any(|id| id.chip == 0);
        }
        assert!(placed_on_zero, "an undrained chip serves again");
        rt.drain().unwrap();
        let r = rt.report();
        assert_eq!(r.leaked_cores, 0);
        assert_eq!(r.leaked_hbm_bytes, 0);
        assert_eq!(r.drain_migrations, evacuated);
        assert!(
            r.drain_reconfig.data_move_bytes > 0,
            "evacuations are costed"
        );
        assert!(
            r.drain_reconfig.paused_cycles >= r.drain_reconfig.config_cycles(),
            "the pause covers the meta-table rewrites and the copy"
        );
        assert_eq!(
            r.per_chip[0].drain_evacuated, evacuated,
            "per-chip sections carry the drain progress"
        );
        assert_eq!(r.per_chip[1].drain_received, evacuated);
        assert_eq!(r.per_chip[0].residual_vnpus, 0);
        assert_eq!(r.per_chip[0].sched, ChipSchedState::Schedulable);
        assert!(r.per_chip[0].schedulable(), "undrained at report time");
    }

    #[test]
    fn audited_run_is_clean_and_byte_identical_to_unaudited() {
        use vnpu::plan::GreedyDefrag;
        // Heavy churn with defrag on, audited: the post-tick fleet audit
        // must find nothing, and because it is read-only the report must
        // be byte-identical to the unaudited run.
        let mut cfg = quick_cfg(13);
        cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
        let plain = ServeRuntime::new(cfg.clone()).run().unwrap();
        cfg.audit = true;
        let mut rt = ServeRuntime::new(cfg);
        for _ in 0..80 {
            let ev = rt.step().unwrap();
            assert_eq!(ev.audit_findings, 0, "tick {} dirty", ev.tick);
        }
        rt.drain().unwrap();
        assert!(rt.audit_findings().is_empty());
        let audited = rt.report();
        assert_eq!(audited, plain);
        assert_eq!(
            audited.to_json(usize::MAX),
            plain.to_json(usize::MAX),
            "auditing a healthy fleet must not perturb the run"
        );
    }

    #[test]
    fn temporal_run_is_clean_and_byte_identical_to_unchecked() {
        use vnpu::plan::GreedyDefrag;
        // Heavy churn with defrag on, temporally checked: the streaming
        // TEMP-* checker must find nothing, and because it only observes
        // the event stream the report must be byte-identical to the
        // unchecked run.
        let mut cfg = quick_cfg(13);
        cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
        let plain = ServeRuntime::new(cfg.clone()).run().unwrap();
        cfg.temporal = true;
        cfg.record_trace = true;
        let mut rt = ServeRuntime::new(cfg.clone());
        for _ in 0..80 {
            let ev = rt.step().unwrap();
            assert_eq!(ev.temporal_findings, 0, "tick {} dirty", ev.tick);
        }
        rt.drain().unwrap();
        assert!(rt.temporal_findings().is_empty(), "online checker clean");
        let checked = rt.report();
        assert_eq!(checked, plain);
        assert_eq!(
            checked.to_json(usize::MAX),
            plain.to_json(usize::MAX),
            "checking a healthy run must not perturb it"
        );
        // The recorded stream, claim appended, replays clean offline too.
        let trace = rt.trace_with_claim().expect("record_trace is on");
        let offline = vnpu_temporal::check_trace(&trace, cfg.temporal_checker_config());
        assert!(offline.is_empty(), "offline replay clean: {offline:?}");
    }

    #[test]
    fn per_tick_audit_counts_sum_to_the_kept_findings() {
        // A link fault under a resident tenant makes the audit report
        // FAULT-LINK warnings; every one a tick counts is kept, in tick
        // order, on the runtime and in the report.
        let mut cfg = quick_cfg(17);
        cfg.audit = true;
        cfg.fault_plan = FaultPlan::new().link_fault(0, 14, 15, 10, Some(30));
        let mut rt = ServeRuntime::new(cfg);
        let mut counted = 0;
        for _ in 0..40 {
            let ev = rt.step().unwrap();
            assert_eq!(
                rt.audit_findings().len() as u64,
                counted + ev.audit_findings,
                "tick {} appends exactly what it counts",
                ev.tick
            );
            counted += ev.audit_findings;
        }
        assert!(counted > 0, "the link fault must surface in the audit");
        rt.drain().unwrap();
        assert_eq!(rt.report().audit_findings, counted);
    }

    #[test]
    fn refused_link_event_is_an_error_not_a_panic() {
        use vnpu::VnpuError;
        use vnpu_sim::SimError;
        // Cores 0 and 2 are not neighbours: the machine, the only record
        // of a link fault, refuses the event, the tick returns its error
        // and the chip records no fault.
        let mut cfg = quick_cfg(5);
        cfg.fault_plan = FaultPlan::new().link_fault(0, 0, 2, 5, None);
        let mut rt = ServeRuntime::new(cfg);
        for _ in 0..5 {
            rt.step().unwrap();
        }
        assert!(matches!(
            rt.step(),
            Err(VnpuError::Sim(SimError::RouteFault { core: 0, dst: 2 }))
        ));
        assert!(!rt.cluster().machine(0).has_active_faults());
    }

    #[test]
    fn audit_runs_through_a_full_drain_cycle() {
        let mut cfg = ServeConfig::cluster(23, 60, vec![SocConfig::sim(), SocConfig::sim()]);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 2;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.audit = true;
        let mut rt = ServeRuntime::new(cfg);
        let mut warm = 0;
        while rt.cluster().chip(0).vnpu_count() == 0 {
            rt.step().unwrap();
            warm += 1;
            assert!(warm < 200, "traffic must load chip 0");
        }
        rt.begin_drain(0).unwrap();
        let mut ticks = 0;
        while rt.cluster().chip(0).vnpu_count() > 0 {
            rt.step().unwrap();
            ticks += 1;
            assert!(ticks < 200, "the drain must converge");
        }
        rt.complete_drain(0).unwrap();
        rt.step().unwrap();
        rt.undrain(0).unwrap();
        rt.step().unwrap();
        assert!(
            rt.audit_findings().is_empty(),
            "draining, drained and undrained fleets all audit clean: {:?}",
            rt.audit_findings()
        );
    }

    #[test]
    fn row_outage_recovers_affected_tenants_and_stays_leak_free() {
        // The headline fault scenario: chip 0 loses a whole mesh row
        // under load, with a twin chip holding spare capacity. Every
        // affected tenant must be recovered (remapped, replaced or
        // self-healed) or declared lost; the run must stay leak-free and
        // byte-identical across repeats.
        let mut cfg = ServeConfig::cluster(31, 120, vec![SocConfig::sim(), SocConfig::sim()]);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 2;
        cfg.traffic.mean_lifetime_epochs = 20;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.fault_plan = FaultPlan::new().row_outage(0, 6, 1, 40, Some(70));
        let mut rt = ServeRuntime::new(cfg.clone());
        let mut onsets = 0;
        let mut repairs = 0;
        let mut recovered = 0;
        let mut lost = 0;
        for _ in 0..120 {
            let ev = rt.step().unwrap();
            onsets += ev.fault_onsets;
            repairs += ev.fault_repairs;
            recovered += ev.recoveries_remapped + ev.recoveries_replaced;
            lost += ev.tenants_lost;
            if ev.tick > 70 {
                assert_eq!(
                    ev.recoveries_pending, 0,
                    "tick {}: recovery must have converged after the repair",
                    ev.tick
                );
            }
        }
        rt.drain().unwrap();
        let r = rt.report();
        assert_eq!(onsets, 6, "one onset per core of the row");
        assert_eq!(repairs, 6);
        assert_eq!(r.faults_injected, 6);
        assert_eq!(r.faults_repaired, 6);
        assert!(
            recovered > 0,
            "a loaded chip losing a row must displace someone"
        );
        assert_eq!(r.recoveries_remapped + r.recoveries_replaced, recovered);
        assert_eq!(r.tenants_lost, lost);
        assert_eq!(r.recoveries_pending, 0);
        assert_eq!(r.leaked_cores, 0);
        assert_eq!(r.leaked_hbm_bytes, 0);
        assert_eq!(
            r.per_chip[0].degraded_ticks, 30,
            "chip 0 is degraded exactly from onset to repair"
        );
        assert_eq!(r.per_chip[1].degraded_ticks, 0);
        assert!(
            r.mttr_max_ticks <= MAX_RECOVERY_TICKS,
            "the recovery deadline bounds MTTR: {}",
            r.mttr_max_ticks
        );
        assert!(
            r.recovery_reconfig.paused_cycles > 0,
            "recoveries are costed"
        );
        // The fleet audits clean once recovery has converged.
        assert!(vnpu_audit::audit_cluster(rt.cluster()).is_empty());
        // Same config, batch API: byte-identical report.
        let again = ServeRuntime::new(cfg).run().unwrap();
        assert_eq!(r, again);
        assert_eq!(r.to_json(usize::MAX), again.to_json(usize::MAX));
    }

    #[test]
    fn unplaceable_tenants_are_lost_at_the_deadline() {
        // A single chip packed with long-lived tenants loses a row
        // permanently: affected tenants have no remap window and no other
        // chip, so after MAX_RECOVERY_TICKS they are declared lost. Dead
        // cores are dead hardware, not leaks.
        let mut cfg = ServeConfig::standard(47, 80);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 1;
        cfg.traffic.mean_lifetime_epochs = 10_000;
        cfg.fault_plan = FaultPlan::new().row_outage(0, 6, 2, 30, None);
        let mut rt = ServeRuntime::new(cfg.clone());
        for _ in 0..80 {
            rt.step().unwrap();
        }
        rt.drain().unwrap();
        let r = rt.report();
        assert!(
            r.tenants_lost > 0,
            "a packed single chip must lose someone: {}",
            r.to_json(8)
        );
        assert_eq!(r.recoveries_pending, 0, "the deadline clears the queue");
        assert_eq!(r.per_chip[0].faulted_cores, 6, "the row stays dead");
        assert_eq!(
            r.leaked_cores, 0,
            "masked dead cores are not leaked tenant state"
        );
        assert_eq!(r.leaked_hbm_bytes, 0);
        assert!(r.degraded_ticks > 0);
        assert!(
            r.tenants_lost <= r.departed,
            "lost tenants are a subset of departures"
        );
        let again = ServeRuntime::new(cfg).run().unwrap();
        assert_eq!(r, again, "loss declarations are deterministic");
    }

    #[test]
    fn final_drain_clears_pending_recoveries() {
        // One 2x2 tenant fills a 2x2 chip and loses a core for good: it
        // has no remap window and no other chip, so it is still pending
        // when the run ends before its deadline. The final drain retires
        // it, and no recovery may stay pending behind it.
        let chip = SocConfig {
            mesh_width: 2,
            mesh_height: 2,
            ..SocConfig::sim()
        };
        let mut cfg = ServeConfig::cluster(5, 12, vec![chip]);
        cfg.traffic.mean_interarrival_ticks = 1;
        cfg.traffic.mean_lifetime_epochs = 10_000;
        cfg.traffic.mix = vec![(1, Shape::Mesh(2, 2))];
        cfg.fault_plan = FaultPlan::new().core_fault(0, 0, 10, None);
        let mut rt = ServeRuntime::new(cfg);
        let mut pending = 0;
        for _ in 0..12 {
            pending = rt.step().unwrap().recoveries_pending;
        }
        assert_eq!((rt.live_count(), pending), (1, 1), "stranded, not lost");
        rt.drain().unwrap();
        let r = rt.report();
        assert_eq!(rt.live_count(), 0);
        assert_eq!(r.recoveries_pending, 0, "{}", r.to_json(8));
        assert_eq!(r.tenants_lost, 0, "a retirement is not a loss");
    }

    #[test]
    fn fault_on_an_unowned_core_recovers_nobody() {
        // Core 35 (the far mesh corner) faults before first-fit churn
        // reaches it: nothing is affected, the chip just runs degraded
        // until the repair, and the report carries the fault accounting.
        let mut cfg = quick_cfg(3);
        cfg.fault_plan = FaultPlan::new().core_fault(0, 35, 2, Some(6));
        let r = ServeRuntime::new(cfg.clone()).run().unwrap();
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.faults_repaired, 1);
        assert_eq!(r.recovered_tenants(), 0);
        assert_eq!(r.tenants_lost, 0);
        assert_eq!(r.degraded_ticks, 4, "degraded from onset to repair");
        assert_eq!(r.leaked_cores, 0);
        assert_eq!(r.leaked_hbm_bytes, 0);
        // The baseline (no fault plan) differs only in fault accounting
        // when nothing was displaced... but the degraded router penalty
        // slows epochs, so machine cycles may legitimately differ.
        let baseline = ServeRuntime::new(quick_cfg(3)).run().unwrap();
        assert_eq!(r.submitted, baseline.submitted);
        assert_eq!(r.accepted, baseline.accepted);
    }

    #[test]
    fn recovery_phase_digests_are_recorded_per_touched_chip() {
        // The recovery phase's record is its trace events: a row outage
        // under load on chip 0 is detected and recovered there, and on no
        // other chip.
        let mut cfg = ServeConfig::cluster(31, 80, vec![SocConfig::sim(), SocConfig::sim()]);
        cfg.traffic.candidate_cap = 200;
        cfg.traffic.mean_interarrival_ticks = 2;
        cfg.traffic.mean_lifetime_epochs = 20;
        cfg.placement = Arc::new(LeastLoaded);
        cfg.fault_plan = FaultPlan::new().row_outage(0, 6, 1, 40, Some(70));
        cfg.record_trace = true;
        let run = || {
            let mut rt = ServeRuntime::new(cfg.clone());
            for _ in 0..80 {
                rt.step().unwrap();
            }
            rt.trace().unwrap().to_vec()
        };
        let trace = run();
        // `(chip, detected rather than recovered)` per recovery event.
        let recovery: Vec<(usize, bool)> = trace
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::RecoveryDetected { chip, .. } => Some((chip, true)),
                TraceEvent::Recovered { chip, .. } => Some((chip, false)),
                _ => None,
            })
            .collect();
        assert!(recovery.contains(&(0, true)), "chip 0's outage is detected");
        assert!(recovery.contains(&(0, false)), "and recovered");
        assert!(recovery.iter().all(|&(chip, _)| chip == 0), "{recovery:?}");
        assert_eq!(
            run(),
            trace,
            "recovery must be event-for-event deterministic run to run"
        );
    }

    #[test]
    fn the_phase_wrapper_times_only_on_request() {
        use vnpu::plan::GreedyDefrag;
        // Every timed phase has work: faults, a drain, defrag, execution.
        let busy_cfg = |time_phases: bool| {
            let mut cfg = ServeConfig::cluster(31, 0, vec![SocConfig::sim(), SocConfig::sim()]);
            cfg.traffic.candidate_cap = 200;
            cfg.traffic.mean_interarrival_ticks = 2;
            cfg.placement = Arc::new(LeastLoaded);
            cfg.defrag = Some(Arc::new(GreedyDefrag::default()));
            cfg.fault_plan = FaultPlan::new().row_outage(0, 6, 1, 20, Some(40));
            cfg.record_trace = true;
            cfg.time_phases = time_phases;
            cfg
        };
        let run = |time_phases: bool| {
            let mut rt = ServeRuntime::new(busy_cfg(time_phases));
            let mut events = Vec::new();
            let started = Instant::now();
            for tick in 0..60 {
                if tick == 30 {
                    rt.begin_drain(1).unwrap();
                }
                events.push(rt.step().unwrap());
            }
            (rt, events, started.elapsed().as_nanos() as u64)
        };
        let phase_nanos = |r: &ServeReport| {
            [
                r.recovery_nanos,
                r.admission_nanos,
                r.drain_nanos,
                r.defrag_nanos,
                r.execution_nanos,
            ]
        };

        let (untimed, untimed_events, _) = run(false);
        let report = untimed.report();
        assert_eq!(phase_nanos(&report), [0; 5], "timing is off by default");
        assert!(report.per_chip.iter().all(|c| c.exec_nanos == 0));
        // Every timed phase left events, and the admission pass one
        // `AdmissionStart` a tick, whatever happened.
        let trace = untimed.trace().unwrap();
        let worked: std::collections::BTreeSet<&str> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FaultOnset { .. } => Some("recovery"),
                TraceEvent::Admitted { .. } => Some("admission"),
                TraceEvent::DrainMove { .. } => Some("drain"),
                TraceEvent::Migrated { .. } => Some("defrag"),
                TraceEvent::Executed { .. } => Some("execution"),
                _ => None,
            })
            .collect();
        assert_eq!(worked.len(), 5, "{worked:?}");
        let passes = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::AdmissionStart { .. }));
        assert_eq!(passes.count(), 60);

        let (timed, timed_events, wall) = run(true);
        let report = timed.report();
        let nanos = phase_nanos(&report);
        assert!(nanos.iter().all(|&n| n > 0), "every phase timed: {nanos:?}");
        assert!(
            nanos.iter().sum::<u64>() <= wall,
            "phases are timed once each, inside step(): {nanos:?} vs {wall}"
        );
        // Timing observes; it changes nothing else.
        assert_eq!(timed_events, untimed_events);
        assert_eq!(timed.trace(), untimed.trace());
    }

    #[test]
    fn set_core_scales_syncs_machine_and_cache_generation() {
        // The serve-layer reconfig entry point must bump the chip's
        // mapping-cache generation in lockstep with the machine's scales,
        // so identical requests across the reconfig miss the cache.
        let mut rt = ServeRuntime::new(quick_cfg(4));
        assert_eq!(rt.cluster().chip(0).topology_generation(), 0);
        rt.set_core_scales(0, 3, 50, 200).unwrap();
        let generation = rt.cluster().chip(0).topology_generation();
        assert_ne!(generation, 0, "reconfig must change the generation");
        assert!(
            matches!(
                rt.set_core_scales(9, 0, 50, 200),
                Err(vnpu::VnpuError::UnknownChip { chip: 9, count: 1 })
            ),
            "bad chip index names the chip, not the core"
        );
        assert!(rt.set_core_scales(0, 999, 50, 200).is_err(), "bad core");
        assert_eq!(
            rt.cluster().chip(0).topology_generation(),
            generation,
            "failed reconfigs must not change the generation"
        );
    }
}
