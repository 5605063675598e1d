//! The structured trace: one [`TraceEvent`] per state transition of a
//! serving run, emitted by the serve loop as they happen.
//!
//! The trace is the single source of truth for a run's accounting: the
//! serve report folds its counters from these events via
//! [`crate::TraceFold`], and the temporal checker
//! ([`crate::TemporalChecker`]) evaluates its properties over the same
//! stream — so a counter and the property guarding it can never drift
//! apart (the "lossy counters" failure mode this crate replaces).
//!
//! Every variant carries the tick it happened on; [`TraceEvent::tick`]
//! gives uniform access. Events within one tick appear in phase order
//! (departures → recovery → arrivals → admission → drain → defrag →
//! execution), which the checker relies on only monotonically — a
//! corrupted trace with out-of-order ticks is handled without panicking.

use vnpu::plan::ReconfigCost;

/// How a fault-affected tenant was recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Remapped in place around the dead resource (remap-under-pin).
    Remapped,
    /// Emergency cross-chip re-placement.
    Replaced,
    /// The fault was repaired under the tenant before any recovery
    /// action landed — recovered without moving.
    SelfHealed,
}

/// One state transition of a serving run.
///
/// `chip` fields are cluster chip indices; `vm` fields are the raw
/// [`vnpu::VmId`] value on that chip; `id` fields are the raw
/// [`vnpu::admission::RequestId`] value of a queued request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A request arrived and was submitted to the admission queue.
    Arrival {
        /// Tick the request was submitted.
        tick: u64,
        /// The request's admission id.
        id: u64,
    },
    /// The tick's admission pass is about to run. `largest_island` is
    /// the largest connected free-core component over all *schedulable*
    /// chips at pass start — the sound upper bound for every
    /// [`TraceEvent::HintEmitted`] this tick (free regions only shrink
    /// during a pass; departures and recovery ran earlier).
    AdmissionStart {
        /// Tick of the pass.
        tick: u64,
        /// Largest schedulable free island at pass start (cores).
        largest_island: u32,
    },
    /// A queued request was placed.
    Admitted {
        /// Tick of the decision.
        tick: u64,
        /// The request's admission id.
        id: u64,
        /// Chip the vNPU landed on.
        chip: usize,
        /// VM id on that chip.
        vm: u32,
    },
    /// A queued request was terminally rejected.
    Rejected {
        /// Tick of the decision.
        tick: u64,
        /// The request's admission id.
        id: u64,
    },
    /// A terminal rejection carried a fit hint ("this shape *would*
    /// have placed").
    HintEmitted {
        /// Tick the hint was probed.
        tick: u64,
        /// The rejected request's admission id.
        id: u64,
        /// Cores of the hinted shape.
        cores: u32,
    },
    /// A tenant left the fleet (lifetime expiry, end-of-run drain, or
    /// retired as lost).
    Departed {
        /// Tick of the teardown.
        tick: u64,
        /// Chip the tenant lived on.
        chip: usize,
        /// Its VM id.
        vm: u32,
    },
    /// The defragmentation phase committed one live migration.
    Migrated {
        /// Tick of the commit.
        tick: u64,
        /// Chip the migration ran on.
        chip: usize,
        /// The migrated VM.
        vm: u32,
        /// The paid reconfiguration cost.
        cost: ReconfigCost,
    },
    /// A committed defrag pass's booked fragmentation recovery.
    DefragRecovered {
        /// Tick of the pass.
        tick: u64,
        /// Chip the pass compacted.
        chip: usize,
        /// Growth of the largest free window (cores; may be 0).
        window_cores: u64,
        /// Reduction of buddy external fragmentation (clamped at 0).
        hbm_frag_delta: f64,
    },
    /// The maintenance phase evacuated one tenant off a draining chip.
    DrainMove {
        /// Tick of the move.
        tick: u64,
        /// Source (draining) chip.
        from_chip: usize,
        /// VM id on the source chip.
        from_vm: u32,
        /// Destination chip.
        to_chip: usize,
        /// VM id on the destination chip.
        to_vm: u32,
        /// The paid reconfiguration cost.
        cost: ReconfigCost,
    },
    /// One budgeted drain step's progress accounting for one draining
    /// chip (emitted every tick the chip drains, even when nothing
    /// moved).
    DrainStep {
        /// Tick of the step.
        tick: u64,
        /// The draining chip.
        chip: usize,
        /// Tenants moved this step.
        moved: u64,
        /// Proposals skipped (budget-staled or unaffordable) — an
        /// *explicit* stall, distinct from a silent one.
        skipped: u64,
        /// Tenants still resident after the step.
        remaining: u64,
    },
    /// A scheduled hardware-fault onset landed (core or link).
    FaultOnset {
        /// Tick of the onset.
        tick: u64,
        /// The wounded chip.
        chip: usize,
    },
    /// A scheduled hardware repair landed.
    FaultRepair {
        /// Tick of the repair.
        tick: u64,
        /// The repaired chip.
        chip: usize,
    },
    /// A live tenant was detected as fault-affected and joined the
    /// pending-recovery queue. Opens the TEMP-FAULT obligation: the
    /// tenant must be recovered, lost, or departed within the recovery
    /// deadline.
    RecoveryDetected {
        /// Tick the outage was detected.
        tick: u64,
        /// The affected tenant's chip.
        chip: usize,
        /// Its VM id.
        vm: u32,
    },
    /// A recovery action paid reconfiguration cost (charged even when a
    /// committed remap fails to escape a link fault and the tenant
    /// stays pending).
    RecoveryPaid {
        /// Tick the cost was paid.
        tick: u64,
        /// The chip the action ran on.
        chip: usize,
        /// The paid cost.
        cost: ReconfigCost,
    },
    /// A pending tenant was recovered. `chip`/`vm` name the tenant's
    /// identity *at detection time* (an emergency re-placement gives it
    /// a new identity afterwards).
    Recovered {
        /// Tick of the recovery.
        tick: u64,
        /// The tenant's chip at detection time.
        chip: usize,
        /// Its VM id at detection time.
        vm: u32,
        /// How it recovered.
        kind: RecoveryKind,
        /// Tick its outage was detected (the obligation's start).
        onset_tick: u64,
    },
    /// A pending tenant was declared lost at the recovery deadline and
    /// retired (a matching [`TraceEvent::Departed`] follows).
    TenantLost {
        /// Tick of the loss declaration.
        tick: u64,
        /// The tenant's chip.
        chip: usize,
        /// Its VM id.
        vm: u32,
        /// Tick its outage was detected.
        onset_tick: u64,
    },
    /// One chip executed a machine epoch.
    Executed {
        /// Tick of the epoch.
        tick: u64,
        /// The chip.
        chip: usize,
        /// The epoch's makespan in machine cycles.
        machine_cycles: u64,
    },
    /// One chip served this tick in degraded mode (a core or link fault
    /// active at the end of the recovery phase).
    Degraded {
        /// The degraded tick.
        tick: u64,
        /// The degraded chip.
        chip: usize,
    },
    /// Cumulative mapping-cache counters at the end of a tick.
    CacheSample {
        /// The sampled tick.
        tick: u64,
        /// Cumulative cache hits.
        hits: u64,
        /// Cumulative cache misses.
        misses: u64,
    },
    /// The fleet reached quiescence (end-of-run drain): every tenant
    /// retired, so the free state must be fully coalesced and leak-free.
    Quiesced {
        /// Tick of the quiescence point.
        tick: u64,
        /// Live vNPUs across the fleet (0 at a true quiescence).
        live_vnpus: u64,
        /// Cores still marked used across chips.
        leaked_cores: u64,
        /// HBM bytes still allocated across chips.
        leaked_hbm_bytes: u64,
        /// Cores masked dead by the fault layer (dead hardware may
        /// legitimately split the free region).
        faulted_cores: u64,
        /// Connected free-region components summed over chips.
        free_components: u64,
        /// Chips in the fleet (an idle healthy chip is one component).
        chips: u64,
    },
    /// The run's claimed totals, appended after the last real event so
    /// the offline checker can verify conservation: Σ per-event paid
    /// costs must equal the claim, per dimension.
    ReportClaim {
        /// Tick the claim was taken.
        tick: u64,
        /// Claimed defrag migrations.
        migrations: u64,
        /// Claimed drain evacuations.
        drain_migrations: u64,
        /// Claimed summed defrag reconfiguration cost.
        reconfig: ReconfigCost,
        /// Claimed summed drain reconfiguration cost.
        drain_reconfig: ReconfigCost,
        /// Claimed summed recovery reconfiguration cost.
        recovery_reconfig: ReconfigCost,
    },
}

impl TraceEvent {
    /// The tick this event happened on.
    pub fn tick(&self) -> u64 {
        match *self {
            TraceEvent::Arrival { tick, .. }
            | TraceEvent::AdmissionStart { tick, .. }
            | TraceEvent::Admitted { tick, .. }
            | TraceEvent::Rejected { tick, .. }
            | TraceEvent::HintEmitted { tick, .. }
            | TraceEvent::Departed { tick, .. }
            | TraceEvent::Migrated { tick, .. }
            | TraceEvent::DefragRecovered { tick, .. }
            | TraceEvent::DrainMove { tick, .. }
            | TraceEvent::DrainStep { tick, .. }
            | TraceEvent::FaultOnset { tick, .. }
            | TraceEvent::FaultRepair { tick, .. }
            | TraceEvent::RecoveryDetected { tick, .. }
            | TraceEvent::RecoveryPaid { tick, .. }
            | TraceEvent::Recovered { tick, .. }
            | TraceEvent::TenantLost { tick, .. }
            | TraceEvent::Executed { tick, .. }
            | TraceEvent::Degraded { tick, .. }
            | TraceEvent::CacheSample { tick, .. }
            | TraceEvent::Quiesced { tick, .. }
            | TraceEvent::ReportClaim { tick, .. } => tick,
        }
    }
}
