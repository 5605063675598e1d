//! The machine: cores + NoC + HBM + controller under one deterministic
//! event loop.
//!
//! Programs are bound to physical cores per *tenant* (a virtual NPU, or
//! the single bare-metal tenant). More than one program may be bound to
//! the same physical core — that is the MIG baseline's time-division
//! multiplexing (§6.3.2): compute kernels of co-resident threads serialize
//! on the tile's compute unit with a context-switch penalty, while their
//! DMA and NoC activity interleaves freely (which is why TDM can hide the
//! imbalance of ResNet-style stages by pairing a hot virtual core with a
//! cold one).
//!
//! The machine is layered into *persistent chip state* (this module:
//! configuration, per-core hardware, NoC links, HBM channels, the tenant
//! registry) and *epoch state* ([`crate::epoch`]: thread bindings, the
//! event queue, flows/flags/barriers, traces). One machine can run many
//! successive workload batches — [`Machine::run_epoch`] executes the
//! current batch and resets only the epoch layer, so a serving runtime
//! interleaves tenant arrivals with execution without ever rebuilding the
//! chip model.

use crate::config::SocConfig;
use crate::epoch::{EpochState, Phase, ThreadState};
use crate::hbm::Hbm;
use crate::isa::{Instr, Program};
use crate::noc::{DorRouter, Noc, NocRouter, Route};
use crate::stats::Report;
use crate::{Result, SimError};
use std::collections::{BTreeMap, HashMap};
use vnpu_mem::counter::AccessCounter;
use vnpu_mem::translate::PhysicalTranslator;
use vnpu_mem::Translate;

/// Identifier of a tenant (one virtual NPU instance, or bare metal).
pub type TenantId = u32;

/// Per-core virtualization services: how this core resolves NoC
/// destinations and translates DMA addresses.
///
/// Bare-metal defaults are provided by [`CoreServices::bare_metal`]; the
/// `vnpu` crate constructs vRouter/vChunk-backed services.
pub struct CoreServices {
    /// NoC destination resolution and path selection.
    pub router: Box<dyn NocRouter>,
    /// DMA address translation (physical / page TLB / range TLB).
    pub translator: Box<dyn Translate + Send>,
    /// Optional per-virtual-NPU memory-bandwidth limiter.
    pub limiter: Option<AccessCounter>,
}

impl CoreServices {
    /// Identity routing (DOR on physical IDs) and identity translation.
    pub fn bare_metal(cfg: &SocConfig) -> Self {
        CoreServices {
            router: Box::new(DorRouter::new(cfg)),
            translator: Box::new(PhysicalTranslator::new()),
            limiter: None,
        }
    }
}

impl std::fmt::Debug for CoreServices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreServices")
            .field("router", &self.router.name())
            .field("translator", &self.translator.name())
            .field("limited", &self.limiter.is_some())
            .finish()
    }
}

/// One physical core's state. The hybrid-core scalings survive across
/// epochs (they model hardware); everything else is per-epoch occupancy
/// and is cleared by [`Machine::finish_epoch`].
#[derive(Debug)]
pub(crate) struct CoreState {
    pub(crate) compute_busy_until: u64,
    /// The send/receive engine is separate hardware: packets stream out
    /// asynchronously while the core computes (§6.2.3's "fully
    /// overlapped" broadcast). Outgoing packets serialize here.
    pub(crate) send_engine_busy_until: u64,
    pub(crate) last_owner: Option<usize>,
    pub(crate) thread_count: u32,
    /// Hybrid-core scaling (§7): matrix-kernel cycles are multiplied by
    /// `matrix_scale`/100 and vector kernels by `vector_scale`/100. 100 =
    /// a standard core.
    pub(crate) matrix_scale: u32,
    pub(crate) vector_scale: u32,
}

impl Default for CoreState {
    fn default() -> Self {
        CoreState {
            compute_busy_until: 0,
            send_engine_busy_until: 0,
            last_owner: None,
            thread_count: 0,
            matrix_scale: 100,
            vector_scale: 100,
        }
    }
}

impl CoreState {
    /// Clears per-epoch occupancy, keeping the hardware scalings.
    fn reset_epoch(&mut self) {
        self.compute_busy_until = 0;
        self.send_engine_busy_until = 0;
        self.last_owner = None;
        self.thread_count = 0;
    }
}

/// The simulated NPU machine.
pub struct Machine {
    cfg: SocConfig,
    cores: Vec<CoreState>,
    pub(crate) noc: Noc,
    /// The path of the `Send` being streamed, as link slots; one buffer
    /// for every `Send`.
    pub(crate) route: Route,
    pub(crate) hbm: Hbm,
    pub(crate) tenant_names: HashMap<TenantId, String>,
    next_tenant: TenantId,
    pub(crate) mem_trace_enabled: bool,
    pub(crate) recv_ack: u64,
    /// Per-thread virtualization services (parallel to the epoch's thread
    /// list).
    pub(crate) services: Vec<CoreServices>,
    pub(crate) epoch: EpochState,
    /// Pause debt from epoch-boundary live migrations
    /// ([`Machine::migrate_tenant`]): every thread the tenant binds in the
    /// *next* epoch starts this many cycles late (its cores were being
    /// drained, moved and re-deployed). Cleared by
    /// [`Machine::finish_epoch`]; a removed tenant's entry leaves with it.
    /// Ordered, so [`Machine::pending_migration_pauses`] is deterministic.
    pending_migration_pause: BTreeMap<TenantId, u64>,
    /// Hardware-reconfiguration fingerprint, evolved as a hash chain by
    /// [`Machine::set_core_scales`] and the fault-injection surface
    /// ([`Machine::fault_core`] and friends): virtualization layers fold
    /// this into their mapping-cache keys so strategies costed against
    /// the old hardware expire on reconfig *and* on fault onset/repair. A
    /// hash chain (not a bare counter) so two identically-modeled chips
    /// reconfigured *differently* can never collide on "same number of
    /// reconfigs" — only chips that applied the same reconfig sequence
    /// (and therefore have the same hardware state) share a value. 0 =
    /// pristine.
    topology_generation: u64,
    /// Faulted physical cores (injected hardware failures). Faults model
    /// hardware, so they survive epoch resets until explicitly repaired;
    /// binding a program onto a faulted core errors with
    /// [`SimError::CoreFaulted`].
    faulted_cores: Vec<bool>,
}

/// Extra per-hop NoC router cycles a chip pays while it has any active
/// fault (core or link): the routers fall back to slower fault-tolerant
/// arbitration until every fault is repaired. Charged automatically by
/// [`Machine::fault_core`] / [`Machine::fault_link`] and lifted by the
/// matching repairs.
pub const DEGRADED_ROUTER_PENALTY: u64 = 4;

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("threads", &self.epoch.threads.len())
            .field("now", &self.epoch.now)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Creates a machine for the given SoC configuration.
    pub fn new(cfg: SocConfig) -> Self {
        let n = cfg.core_count() as usize;
        Machine {
            noc: Noc::new(&cfg),
            route: Route::default(),
            hbm: Hbm::new(&cfg),
            cores: (0..n).map(|_| CoreState::default()).collect(),
            tenant_names: HashMap::new(),
            next_tenant: 0,
            mem_trace_enabled: false,
            recv_ack: 2,
            services: Vec::new(),
            epoch: EpochState::new(n),
            pending_migration_pause: BTreeMap::new(),
            topology_generation: 0,
            faulted_cores: vec![false; n],
            cfg,
        }
    }

    /// Hardware-reconfiguration fingerprint (0 until the first
    /// [`Machine::set_core_scales`]; afterwards a deterministic hash
    /// chain over the applied reconfig sequence). Mapping caches keyed on
    /// the chip's graph fingerprint alone cannot see reconfigs — pair
    /// this value with the fingerprint when memoizing cost-annotated
    /// placements. Equal values imply the same reconfig history (up to
    /// hash collision), so identically-reconfigured identical chips may
    /// soundly share cache entries while divergent ones cannot.
    pub fn topology_generation(&self) -> u64 {
        self.topology_generation
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    pub(crate) fn core(&self, i: usize) -> &CoreState {
        &self.cores[i]
    }

    pub(crate) fn core_mut(&mut self, i: usize) -> &mut CoreState {
        &mut self.cores[i]
    }

    pub(crate) fn core_scales(&self, i: usize) -> (u32, u32) {
        (self.cores[i].matrix_scale, self.cores[i].vector_scale)
    }

    /// Registers a tenant (one virtual NPU / workload instance). Tenants
    /// persist across epochs until removed.
    pub fn add_tenant(&mut self, name: &str) -> TenantId {
        let id = self.next_tenant;
        self.next_tenant += 1;
        self.tenant_names.insert(id, name.to_owned());
        id
    }

    /// Unregisters a tenant, e.g. when its virtual NPU is destroyed
    /// between epochs.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownTenant`] — never registered or already
    ///   removed.
    /// * [`SimError::TenantBusy`] — the tenant still has threads bound in
    ///   the current epoch; finish the epoch first.
    pub fn remove_tenant(&mut self, tenant: TenantId) -> Result<()> {
        if !self.tenant_names.contains_key(&tenant) {
            return Err(SimError::UnknownTenant(tenant));
        }
        if self.epoch.tenant_threads.get(&tenant).copied().unwrap_or(0) > 0 {
            return Err(SimError::TenantBusy(tenant));
        }
        self.tenant_names.remove(&tenant);
        // A pause owed by a tenant that no longer exists can never be
        // charged; left behind it would read as pending reconfiguration.
        self.pending_migration_pause.remove(&tenant);
        Ok(())
    }

    /// Registered tenant count.
    pub fn tenant_count(&self) -> usize {
        self.tenant_names.len()
    }

    /// Declares that `tenant` was live-migrated between epochs: its cores
    /// were drained, its state moved and its meta-tables re-deployed,
    /// which pauses the tenant for `pause_cycles`. Epoch boundaries are
    /// the only legal migration points — the event loop has no notion of
    /// moving a thread mid-flight — so the call is refused while the
    /// tenant has threads bound in the current epoch. The pause is
    /// charged to every thread the tenant binds in the next epoch (they
    /// all start late by `pause_cycles`, prepended as a prelude delay);
    /// repeated migrations before the next epoch accumulate.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownTenant`] — never registered or already
    ///   removed.
    /// * [`SimError::TenantBusy`] — threads are bound in the current
    ///   epoch; finish it first.
    pub fn migrate_tenant(&mut self, tenant: TenantId, pause_cycles: u64) -> Result<()> {
        if !self.tenant_names.contains_key(&tenant) {
            return Err(SimError::UnknownTenant(tenant));
        }
        if self.epoch.tenant_threads.get(&tenant).copied().unwrap_or(0) > 0 {
            return Err(SimError::TenantBusy(tenant));
        }
        *self.pending_migration_pause.entry(tenant).or_insert(0) += pause_cycles;
        Ok(())
    }

    /// Registers a tenant that was live-migrated *onto* this machine
    /// from another chip — a maintenance evacuation landing. The tenant
    /// begins its residency paused for `pause_cycles` (its state crossed
    /// the inter-chip fabric and its meta-tables were re-deployed):
    /// every thread it binds in its first epoch here starts that many
    /// cycles late, exactly as an intra-chip
    /// [`Machine::migrate_tenant`]'s pause lands at the next epoch
    /// boundary.
    pub fn adopt_tenant(&mut self, name: &str, pause_cycles: u64) -> TenantId {
        let tenant = self.add_tenant(name);
        // A fresh tenant has no bound threads, so the epoch-boundary
        // precondition of `migrate_tenant` holds by construction.
        *self.pending_migration_pause.entry(tenant).or_insert(0) += pause_cycles;
        tenant
    }

    /// The pauses the next epoch will charge, as `(tenant, cycles)` in
    /// tenant order — together with the bound programs and
    /// [`Machine::topology_generation`], everything that epoch's outcome
    /// depends on.
    pub fn pending_migration_pauses(&self) -> impl Iterator<Item = (TenantId, u64)> + '_ {
        self.pending_migration_pause.iter().map(|(&t, &p)| (t, p))
    }

    /// Enables per-chunk global-memory access tracing (Figure 6).
    pub fn enable_mem_trace(&mut self) {
        self.mem_trace_enabled = true;
    }

    /// Configures a hybrid core (§7): matrix kernels (matmul/conv) run at
    /// `matrix_pct`% of the standard cycle count and vector kernels at
    /// `vector_pct`% — e.g. `(50, 200)` is a matrix-optimized core with a
    /// double-size systolic array and a halved vector unit. The setting
    /// models hardware and therefore survives epoch resets.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] for bad core indices.
    pub fn set_core_scales(&mut self, core: u32, matrix_pct: u32, vector_pct: u32) -> Result<()> {
        let state = self
            .cores
            .get_mut(core as usize)
            .ok_or(SimError::CoreOutOfRange {
                core,
                count: self.cfg.core_count(),
            })?;
        state.matrix_scale = matrix_pct.max(1);
        state.vector_scale = vector_pct.max(1);
        // A reconfig expires the mapping-cache entries keyed on the old
        // generation, as a fault transition does. Chain
        // the reconfig parameters into the fingerprint — see the
        // `topology_generation` field docs for why this is a hash chain
        // rather than a counter. `| 1` keeps 0 reserved for "pristine".
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.topology_generation.hash(&mut h);
        (core, matrix_pct.max(1), vector_pct.max(1)).hash(&mut h);
        self.topology_generation = h.finish() | 1;
        Ok(())
    }

    /// Evolves the topology-generation hash chain with one fault event —
    /// the same chain [`Machine::set_core_scales`] uses, so every cached
    /// mapping (successes *and* exhaustion proofs) keyed on the old
    /// generation expires when the hardware changes health.
    fn chain_fault_event(&mut self, tag: u8, a: u32, b: u32, active: bool) {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.topology_generation.hash(&mut h);
        (tag, a, b, active).hash(&mut h);
        self.topology_generation = h.finish() | 1;
    }

    /// Re-derives the degraded-mode router penalty from the current fault
    /// state: any active fault forces [`DEGRADED_ROUTER_PENALTY`].
    fn refresh_degraded_mode(&mut self) {
        let penalty = if self.has_active_faults() {
            DEGRADED_ROUTER_PENALTY
        } else {
            0
        };
        self.noc.set_degraded_penalty(penalty);
    }

    /// Injects a hardware fault into a physical core. While faulted the
    /// core refuses bindings ([`SimError::CoreFaulted`]) and the whole
    /// chip runs degraded ([`DEGRADED_ROUTER_PENALTY`] extra cycles per
    /// NoC hop). Faults model hardware: they survive epoch resets until
    /// [`Machine::repair_core`]. Returns whether the state changed
    /// (`false` = already faulted; the generation chain does not move).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] for bad core indices.
    pub fn fault_core(&mut self, core: u32) -> Result<bool> {
        let count = self.cfg.core_count();
        let slot = self
            .faulted_cores
            .get_mut(core as usize)
            .ok_or(SimError::CoreOutOfRange { core, count })?;
        if *slot {
            return Ok(false);
        }
        *slot = true;
        self.chain_fault_event(0xFC, core, 0, true);
        self.refresh_degraded_mode();
        Ok(true)
    }

    /// Repairs a previously faulted core (the inverse of
    /// [`Machine::fault_core`]). Returns whether the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CoreOutOfRange`] for bad core indices.
    pub fn repair_core(&mut self, core: u32) -> Result<bool> {
        let count = self.cfg.core_count();
        let slot = self
            .faulted_cores
            .get_mut(core as usize)
            .ok_or(SimError::CoreOutOfRange { core, count })?;
        if !*slot {
            return Ok(false);
        }
        *slot = false;
        self.chain_fault_event(0xFC, core, 0, false);
        self.refresh_degraded_mode();
        Ok(true)
    }

    /// Injects a hardware fault into the undirected NoC link between `a`
    /// and `b`: packets routed across it (either direction) error with
    /// [`SimError::LinkFaulted`], and the chip runs degraded until the
    /// link is repaired. Returns whether the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when the cores are not adjacent.
    pub fn fault_link(&mut self, a: u32, b: u32) -> Result<bool> {
        let changed = self.noc.set_link_faulted(a, b, true)?;
        if changed {
            self.chain_fault_event(0xF1, a, b, true);
            self.refresh_degraded_mode();
        }
        Ok(changed)
    }

    /// Repairs a previously faulted link (the inverse of
    /// [`Machine::fault_link`]). Returns whether the state changed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RouteFault`] when the cores are not adjacent.
    pub fn repair_link(&mut self, a: u32, b: u32) -> Result<bool> {
        let changed = self.noc.set_link_faulted(a, b, false)?;
        if changed {
            self.chain_fault_event(0xF1, a, b, false);
            self.refresh_degraded_mode();
        }
        Ok(changed)
    }

    /// Whether a physical core is currently faulted (`false` for indices
    /// outside the mesh).
    pub fn core_faulted(&self, core: u32) -> bool {
        self.faulted_cores
            .get(core as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Whether any core or link fault is currently active.
    pub fn has_active_faults(&self) -> bool {
        self.faulted_cores.iter().any(|&f| f) || self.noc.faulted_link_count() > 0
    }

    /// Currently faulted undirected NoC links, each once as `(a, b)` with
    /// `a < b`, ascending.
    pub fn faulted_links(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.noc.faulted_links()
    }

    /// Whether the undirected NoC link `a`–`b` is currently faulted
    /// (`false` for cores that are not neighbours).
    pub fn link_faulted(&self, a: u32, b: u32) -> bool {
        self.noc.link_faulted(a, b)
    }

    /// Binds `program` as tenant `tenant`'s program-level core `prog_core`
    /// onto physical core `phys_core` with bare-metal services.
    ///
    /// # Errors
    ///
    /// See [`Machine::bind_with`].
    pub fn bind(
        &mut self,
        phys_core: u32,
        tenant: TenantId,
        prog_core: u32,
        program: Program,
    ) -> Result<()> {
        let services = CoreServices::bare_metal(&self.cfg);
        self.bind_with(phys_core, tenant, prog_core, program, services)
    }

    /// Binds a program with explicit virtualization services.
    ///
    /// Multiple threads may share a physical core (TDM). Each program's
    /// own footprint must fit the scratchpad; co-resident TDM contexts may
    /// *over-subscribe* it — the working-set swap this implies is charged
    /// through [`crate::config::SocConfig::tdm_switch_penalty`] (the paper
    /// §7 notes NPU context switches are costly yet still uses TDM as the
    /// MIG fallback).
    ///
    /// # Errors
    ///
    /// * [`SimError::CoreOutOfRange`] — bad physical core.
    /// * [`SimError::CoreFaulted`] — the physical core carries an
    ///   injected hardware fault.
    /// * [`SimError::UnknownTenant`] — unregistered tenant.
    /// * [`SimError::ScratchpadOverflow`] — a single program's footprint
    ///   exceeds the tile's scratchpad.
    pub fn bind_with(
        &mut self,
        phys_core: u32,
        tenant: TenantId,
        prog_core: u32,
        program: Program,
        services: CoreServices,
    ) -> Result<()> {
        let count = self.cfg.core_count();
        if phys_core >= count {
            return Err(SimError::CoreOutOfRange {
                core: phys_core,
                count,
            });
        }
        if self.faulted_cores[phys_core as usize] {
            return Err(SimError::CoreFaulted { core: phys_core });
        }
        if !self.tenant_names.contains_key(&tenant) {
            return Err(SimError::UnknownTenant(tenant));
        }
        // A tenant migrated since the last epoch starts every thread late:
        // its cores were drained and its state moved during the boundary.
        let mut program = program;
        if let Some(&pause) = self.pending_migration_pause.get(&tenant) {
            if pause > 0 {
                program.prelude.insert(0, Instr::Delay { cycles: pause });
            }
        }
        let core = &mut self.cores[phys_core as usize];
        if program.footprint_bytes > self.cfg.scratchpad_bytes {
            return Err(SimError::ScratchpadOverflow {
                core: phys_core,
                required: program.footprint_bytes,
                capacity: self.cfg.scratchpad_bytes,
            });
        }
        core.thread_count += 1;
        *self.epoch.tenant_threads.entry(tenant).or_insert(0) += 1;
        // Each instruction the program runs pushes at most one interval.
        let body = (program.body.len() as u64).saturating_mul(u64::from(program.iterations));
        let runs = body.saturating_add(program.prelude.len() as u64);
        self.epoch.traces[phys_core as usize].reserve(runs);
        let phase = if program.prelude.is_empty() {
            if program.body.is_empty() || program.iterations == 0 {
                Phase::Done
            } else {
                Phase::Body { iter: 0, pc: 0 }
            }
        } else {
            Phase::Prelude(0)
        };
        self.epoch.threads.push(ThreadState {
            tenant,
            prog_core,
            phys_core,
            program,
            phase,
            warmup_done: None,
            finished_at: None,
            body_started: None,
            compute_cycles: 0,
            macs: 0,
            consumed_flags: HashMap::new(),
            blocked: None,
        });
        self.services.push(services);
        Ok(())
    }

    /// Ends the current epoch: drops all thread bindings, flows, flags,
    /// barriers and traces (their buffers are kept for the next batch),
    /// and rewinds the chip's clocks (core/link/channel `busy_until`) to
    /// zero — while the chip structures (cores with their hybrid
    /// scalings, NoC link array, HBM channels) and the tenant registry
    /// survive. The machine is immediately bindable for the next batch.
    pub fn finish_epoch(&mut self) {
        self.epoch.reset(self.cfg.core_count() as usize);
        self.services.clear();
        // Migration pauses apply to exactly one epoch's bindings.
        self.pending_migration_pause.clear();
        for core in &mut self.cores {
            core.reset_epoch();
        }
        self.noc.reset_epoch();
        self.hbm.reset_epoch();
    }

    /// Runs the current batch to completion and finishes the epoch: the
    /// returned [`Report`] covers exactly this batch, and the machine is
    /// ready for the next round of [`Machine::bind_with`] calls.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`]. On error the epoch is *not* finished, so
    /// the failed state remains inspectable.
    pub fn run_epoch(&mut self) -> Result<Report> {
        let report = self.run()?;
        self.finish_epoch();
        Ok(report)
    }

    /// [`Machine::run_epoch`] for callers that need only the batch's
    /// makespan: the same event loop and epoch finish, without assembling
    /// a [`Report`] (which copies the configuration, the tenant names and
    /// every core's trace).
    ///
    /// # Errors
    ///
    /// As for [`Machine::run_epoch`].
    pub fn run_epoch_makespan(&mut self) -> Result<u64> {
        let makespan = self.run_events()?;
        self.finish_epoch();
        Ok(makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::kernel_cycles;
    use crate::isa::{Instr, Kernel};
    use vnpu_mem::VirtAddr;

    fn fpga() -> SocConfig {
        SocConfig::fpga()
    }

    #[test]
    fn empty_machine_runs() {
        let mut m = Machine::new(fpga());
        let r = m.run().unwrap();
        assert_eq!(r.makespan(), 0);
    }

    #[test]
    fn single_compute_duration() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        let r = m.run().unwrap();
        let expect = kernel_cycles(
            &fpga(),
            &Kernel::Matmul {
                m: 16,
                k: 16,
                n: 16,
            },
        );
        // Dispatch offset + kernel.
        assert!(r.makespan() >= expect);
        assert!(r.makespan() < expect + 100);
    }

    #[test]
    fn send_recv_pair_completes() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(0, t, 0, Program::once(vec![Instr::send(1, 4096, 7)]))
            .unwrap();
        m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 4096, 7)]))
            .unwrap();
        let r = m.run().unwrap();
        // 2 packets of 2048B: ≈ send_setup + 2*(128+13) + flight.
        assert!(r.makespan() > 250, "makespan {}", r.makespan());
        assert!(r.makespan() < 600, "makespan {}", r.makespan());
    }

    #[test]
    fn table3_send_costs() {
        // Reproduce the Table 3 calibration: Send of N packets ≈ 27 + 141·N.
        for (packets, paper) in [(2u64, 309u64), (10, 1430), (20, 2810), (30, 4236)] {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            let bytes = packets * 2048;
            m.bind(0, t, 0, Program::once(vec![Instr::send(1, bytes, 0)]))
                .unwrap();
            m.bind(1, t, 1, Program::once(vec![Instr::recv(0, bytes, 0)]))
                .unwrap();
            let r = m.run().unwrap();
            let send_end = r.tenant(t).unwrap().end;
            let ratio = send_end as f64 / paper as f64;
            assert!(
                (0.8..1.3).contains(&ratio),
                "{packets} packets: got {send_end}, paper {paper}"
            );
        }
    }

    #[test]
    fn recv_before_send_blocks_then_completes() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(
            0,
            t,
            0,
            Program::once(vec![
                Instr::Delay { cycles: 10_000 },
                Instr::send(1, 2048, 0),
            ]),
        )
        .unwrap();
        m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 2048, 0)]))
            .unwrap();
        let r = m.run().unwrap();
        assert!(r.makespan() > 10_000);
    }

    #[test]
    fn missing_sender_deadlocks() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 2048, 0)]))
            .unwrap();
        match m.run() {
            Err(SimError::Deadlock { detail }) => assert_eq!(
                detail,
                "thread 0 (tenant 0, core 1): recv from 0 tag 0: waiting for 2048 bytes"
            ),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_text_names_every_kind_of_wait() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        // Credit-stalled sender (nobody consumes), a reader of a flag
        // nobody writes, and a barrier the other two never reach.
        m.bind(
            0,
            t,
            0,
            Program::looped(vec![], vec![Instr::send(1, 48 * 1024, 5)], 2),
        )
        .unwrap();
        m.bind(
            1,
            t,
            1,
            Program::once(vec![Instr::GlobalRead {
                va: VirtAddr(0),
                bytes: 64,
                tag: 9,
            }]),
        )
        .unwrap();
        m.bind(2, t, 2, Program::once(vec![Instr::Barrier { id: 3 }]))
            .unwrap();
        let Err(SimError::Deadlock { detail }) = m.run() else {
            panic!("expected deadlock");
        };
        assert_eq!(
            detail,
            "thread 0 (tenant 0, core 0): send to 1 tag 5: flow-credit wait (49152 in flight); \
             thread 1 (tenant 0, core 1): global-read tag 9: waiting for 64 bytes (have 0); \
             thread 2 (tenant 0, core 2): barrier 3"
        );
    }

    #[test]
    fn dma_load_uses_bandwidth() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        // 64 KiB at 8 B/cyc per channel ≈ 8192 cycles minimum.
        m.bind(0, t, 0, Program::once(vec![Instr::dma_load(0, 64 * 1024)]))
            .unwrap();
        let r = m.run().unwrap();
        assert!(r.makespan() >= 8192, "makespan {}", r.makespan());
        assert!(r.makespan() < 12_000, "makespan {}", r.makespan());
    }

    #[test]
    fn hbm_contention_slows_same_channel_peers() {
        // Cores 0 and 1 share interface 0 (row 0); core 4 is on row 1.
        let solo = {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::once(vec![Instr::dma_load(0, 64 * 1024)]))
                .unwrap();
            m.run().unwrap().makespan()
        };
        let contended = {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::once(vec![Instr::dma_load(0, 64 * 1024)]))
                .unwrap();
            m.bind(
                1,
                t,
                1,
                Program::once(vec![Instr::dma_load(1 << 20, 64 * 1024)]),
            )
            .unwrap();
            m.run().unwrap().makespan()
        };
        assert!(
            contended as f64 > solo as f64 * 1.5,
            "contended {contended} vs solo {solo}"
        );
    }

    #[test]
    fn pipeline_iterations_overlap() {
        // Two-stage pipeline: with 4 iterations, the makespan must be far
        // below 4x the single-iteration latency (pipelining works).
        let body0 = vec![Instr::matmul(64, 64, 64), Instr::send(1, 2048, 0)];
        let body1 = vec![Instr::recv(0, 2048, 0), Instr::matmul(64, 64, 64)];
        let once = {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::looped(vec![], body0.clone(), 1))
                .unwrap();
            m.bind(1, t, 1, Program::looped(vec![], body1.clone(), 1))
                .unwrap();
            m.run().unwrap().makespan()
        };
        let four = {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::looped(vec![], body0, 4)).unwrap();
            m.bind(1, t, 1, Program::looped(vec![], body1, 4)).unwrap();
            m.run().unwrap().makespan()
        };
        assert!(
            four < once * 3,
            "4 iterations ({four}) should pipeline well below 3x single ({once})"
        );
    }

    #[test]
    fn tdm_serializes_compute() {
        let kernel = Instr::matmul(128, 128, 128);
        let solo = {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("a");
            m.bind(0, t, 0, Program::looped(vec![], vec![kernel], 8))
                .unwrap();
            m.run().unwrap().makespan()
        };
        let shared = {
            let mut m = Machine::new(fpga());
            let a = m.add_tenant("a");
            let b = m.add_tenant("b");
            m.bind(0, a, 0, Program::looped(vec![], vec![kernel], 8))
                .unwrap();
            m.bind(0, b, 0, Program::looped(vec![], vec![kernel], 8))
                .unwrap();
            m.run().unwrap().makespan()
        };
        assert!(
            shared as f64 > solo as f64 * 1.8,
            "TDM sharing must roughly double time: {shared} vs {solo}"
        );
    }

    #[test]
    fn tdm_pairing_hides_idle_thread() {
        // A busy thread paired with a mostly-idle one: much better than 2x.
        let busy = Instr::matmul(128, 128, 128);
        let mut m = Machine::new(fpga());
        let a = m.add_tenant("busy");
        let b = m.add_tenant("idle");
        m.bind(0, a, 0, Program::looped(vec![], vec![busy], 8))
            .unwrap();
        m.bind(0, b, 0, Program::once(vec![Instr::Delay { cycles: 100 }]))
            .unwrap();
        let shared = m.run().unwrap().makespan();
        let mut m2 = Machine::new(fpga());
        let a2 = m2.add_tenant("busy");
        m2.bind(0, a2, 0, Program::looped(vec![], vec![busy], 8))
            .unwrap();
        let solo = m2.run().unwrap().makespan();
        assert!(
            (shared as f64) < solo as f64 * 1.2,
            "idle partner must not cost 2x: {shared} vs {solo}"
        );
    }

    #[test]
    fn barrier_synchronizes_tenant() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(
            0,
            t,
            0,
            Program::once(vec![
                Instr::Delay { cycles: 5000 },
                Instr::Barrier { id: 1 },
            ]),
        )
        .unwrap();
        m.bind(1, t, 1, Program::once(vec![Instr::Barrier { id: 1 }]))
            .unwrap();
        let r = m.run().unwrap();
        assert!(r.makespan() >= 5000);
    }

    #[test]
    fn global_write_read_synchronize() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(
            0,
            t,
            0,
            Program::once(vec![Instr::GlobalWrite {
                va: VirtAddr(0),
                bytes: 4096,
                tag: 3,
            }]),
        )
        .unwrap();
        m.bind(
            1,
            t,
            1,
            Program::once(vec![Instr::GlobalRead {
                va: VirtAddr(0),
                bytes: 4096,
                tag: 3,
            }]),
        )
        .unwrap();
        let r = m.run().unwrap();
        // Write 4096 + flag, then read 4096, both through 8 B/cyc channels.
        assert!(r.makespan() > 1000, "makespan {}", r.makespan());
    }

    #[test]
    fn uvm_broadcast_costs_scale_with_readers() {
        // 1:1 vs 1:3 memory-synchronized broadcast — cost grows with
        // readers (each re-reads from HBM), unlike NoC forwarding.
        let run = |readers: u32| {
            let mut m = Machine::new(fpga());
            let t = m.add_tenant("t");
            m.bind(
                0,
                t,
                0,
                Program::once(vec![Instr::GlobalWrite {
                    va: VirtAddr(0),
                    bytes: 32 * 1024,
                    tag: 0,
                }]),
            )
            .unwrap();
            for rdr in 0..readers {
                m.bind(
                    rdr + 1,
                    t,
                    rdr + 1,
                    Program::once(vec![Instr::GlobalRead {
                        va: VirtAddr(0),
                        bytes: 32 * 1024,
                        tag: 0,
                    }]),
                )
                .unwrap();
            }
            m.run().unwrap().makespan()
        };
        let one = run(1);
        let three = run(3);
        assert!(
            three > one * 3 / 2,
            "1:3 ({three}) must cost more than 1:1 ({one})"
        );
    }

    #[test]
    fn scratchpad_overflow_rejected() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        let p = Program::once(vec![]).with_footprint(1 << 20); // 1 MB > 512 KB
        assert!(matches!(
            m.bind(0, t, 0, p),
            Err(SimError::ScratchpadOverflow { .. })
        ));
    }

    #[test]
    fn bind_errors() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        assert!(matches!(
            m.bind(99, t, 0, Program::once(vec![])),
            Err(SimError::CoreOutOfRange { .. })
        ));
        assert!(matches!(
            m.bind(0, 42, 0, Program::once(vec![])),
            Err(SimError::UnknownTenant(42))
        ));
    }

    #[test]
    fn determinism_same_seed_same_cycles() {
        let run = || {
            let mut m = Machine::new(fpga());
            let a = m.add_tenant("a");
            let b = m.add_tenant("b");
            for c in 0..4u32 {
                m.bind(
                    c,
                    a,
                    c,
                    Program::looped(
                        vec![Instr::dma_load(u64::from(c) << 20, 16 * 1024)],
                        vec![
                            Instr::matmul(64, 64, 64),
                            Instr::send((c + 1) % 4, 2048, c),
                            Instr::recv((c + 3) % 4, 2048, (c + 3) % 4),
                        ],
                        5,
                    ),
                )
                .unwrap();
            }
            m.bind(
                4,
                b,
                0,
                Program::looped(vec![], vec![Instr::matmul(32, 32, 32)], 7),
            )
            .unwrap();
            m.run().unwrap().makespan()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warmup_recorded_from_prelude() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(
            0,
            t,
            0,
            Program::looped(
                vec![Instr::dma_load(0, 32 * 1024)],
                vec![Instr::matmul(16, 16, 16)],
                2,
            ),
        )
        .unwrap();
        let r = m.run().unwrap();
        let ts = r.tenant(t).unwrap();
        assert!(ts.warmup_end > 3000, "warmup {}", ts.warmup_end);
        assert!(ts.end > ts.warmup_end);
    }

    #[test]
    fn mem_trace_capture() {
        let mut m = Machine::new(fpga());
        m.enable_mem_trace();
        let t = m.add_tenant("t");
        m.bind(0, t, 0, Program::once(vec![Instr::dma_load(0x1000, 8192)]))
            .unwrap();
        let r = m.run().unwrap();
        let trace = r.mem_trace();
        assert_eq!(trace.len(), 4); // 8192 / 2048 chunks
                                    // Monotonically increasing addresses (Pattern-2).
        for w in trace.windows(2) {
            assert!(w[1].2 > w[0].2);
        }
    }

    #[test]
    fn flow_credit_blocks_runaway_sender() {
        // Sender pushes 16 KiB per iteration; receiver consumes slowly.
        // With 64 KiB credit the sender cannot run more than ~4 iterations
        // ahead, so the makespan is dominated by the receiver.
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        m.bind(
            0,
            t,
            0,
            Program::looped(vec![], vec![Instr::send(1, 16 * 1024, 0)], 16),
        )
        .unwrap();
        m.bind(
            1,
            t,
            1,
            Program::looped(
                vec![],
                vec![
                    Instr::Delay { cycles: 20_000 },
                    Instr::recv(0, 16 * 1024, 0),
                ],
                16,
            ),
        )
        .unwrap();
        let r = m.run().unwrap();
        assert!(r.makespan() >= 16 * 20_000);
    }

    #[test]
    fn epochs_reuse_the_machine_deterministically() {
        // The same batch run in epoch 0 of a fresh machine and in epoch 3
        // of a reused one must report identical cycles: finish_epoch fully
        // rewinds the chip clocks.
        let bind_batch = |m: &mut Machine| {
            let t = m.add_tenant("batch");
            m.bind(
                0,
                t,
                0,
                Program::looped(
                    vec![Instr::dma_load(0, 16 * 1024)],
                    vec![Instr::matmul(64, 64, 64), Instr::send(1, 2048, 0)],
                    3,
                ),
            )
            .unwrap();
            m.bind(
                1,
                t,
                1,
                Program::looped(vec![], vec![Instr::recv(0, 2048, 0)], 3),
            )
            .unwrap();
        };
        let fresh = {
            let mut m = Machine::new(fpga());
            bind_batch(&mut m);
            m.run_epoch().unwrap().makespan()
        };
        let mut m = Machine::new(fpga());
        for round in 0..4 {
            bind_batch(&mut m);
            let reused = m.run_epoch().unwrap().makespan();
            assert_eq!(
                fresh, reused,
                "epoch reuse must not leak timing state ({round})"
            );
        }
    }

    #[test]
    fn tenants_persist_across_epochs_until_removed() {
        let mut m = Machine::new(fpga());
        let keep = m.add_tenant("keeper");
        let drop_me = m.add_tenant("transient");
        m.bind(0, keep, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        m.bind(
            1,
            drop_me,
            0,
            Program::once(vec![Instr::matmul(16, 16, 16)]),
        )
        .unwrap();
        // Mid-epoch removal is refused: bindings reference the tenant.
        assert!(matches!(
            m.remove_tenant(drop_me),
            Err(SimError::TenantBusy(_))
        ));
        m.run_epoch().unwrap();
        // Between epochs the tenant can leave; the other remains bindable.
        m.remove_tenant(drop_me).unwrap();
        assert_eq!(m.tenant_count(), 1);
        assert!(matches!(
            m.bind(0, drop_me, 0, Program::once(vec![])),
            Err(SimError::UnknownTenant(_))
        ));
        m.bind(0, keep, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        m.run_epoch().unwrap();
        assert!(matches!(
            m.remove_tenant(drop_me),
            Err(SimError::UnknownTenant(_))
        ));
    }

    #[test]
    fn set_core_scales_evolves_the_topology_generation() {
        let mut m = Machine::new(fpga());
        assert_eq!(m.topology_generation(), 0, "pristine machines are 0");
        m.set_core_scales(0, 50, 200).unwrap();
        let after_one = m.topology_generation();
        assert_ne!(after_one, 0);
        m.set_core_scales(1, 200, 50).unwrap();
        assert_ne!(m.topology_generation(), after_one);
        // A failed reconfig changes nothing.
        let before = m.topology_generation();
        assert!(m.set_core_scales(999, 50, 50).is_err());
        assert_eq!(m.topology_generation(), before);
        // Deterministic, sequence-sensitive: the same reconfig sequence
        // reproduces the same fingerprint; a different sequence (same
        // count) must not collide — that is what lets identical chips
        // share mapping-cache entries only when their hardware states
        // actually match.
        let mut twin = Machine::new(fpga());
        twin.set_core_scales(0, 50, 200).unwrap();
        assert_eq!(twin.topology_generation(), after_one);
        let mut other = Machine::new(fpga());
        other.set_core_scales(0, 200, 50).unwrap();
        assert_ne!(other.topology_generation(), after_one);
    }

    #[test]
    fn core_faults_reject_bindings_and_evolve_the_generation() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("t");
        assert!(!m.has_active_faults());
        assert!(m.fault_core(0).unwrap());
        assert!(!m.fault_core(0).unwrap(), "double fault is a no-op");
        let gen_after_fault = m.topology_generation();
        assert_ne!(gen_after_fault, 0, "faults evolve the generation chain");
        assert!(m.core_faulted(0));
        assert_eq!(
            m.faulted_cores,
            [true, false, false, false, false, false, false, false]
        );
        assert!(m.has_active_faults());
        assert!(matches!(
            m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)])),
            Err(SimError::CoreFaulted { core: 0 })
        ));
        // Healthy cores still bind; the epoch completes normally.
        m.bind(1, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        m.run_epoch().unwrap();
        assert!(m.core_faulted(0), "faults survive epoch resets");
        assert!(m.repair_core(0).unwrap());
        assert!(!m.repair_core(0).unwrap(), "double repair is a no-op");
        assert!(!m.has_active_faults());
        assert_ne!(
            m.topology_generation(),
            gen_after_fault,
            "repair evolves the chain again"
        );
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        m.run_epoch().unwrap();
        assert!(m.fault_core(999).is_err());
        assert!(m.repair_core(999).is_err());
    }

    #[test]
    fn link_faults_degrade_then_repair_restores_timing() {
        // Identical single-hop send on a healthy chip vs one with an
        // unrelated faulted link: the degraded chip is strictly slower,
        // and repair restores the healthy timing exactly.
        let send_epoch = |m: &mut Machine| {
            let t = m.add_tenant("s");
            m.bind(0, t, 0, Program::once(vec![Instr::send(1, 2048, 0)]))
                .unwrap();
            m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 2048, 0)]))
                .unwrap();
            let span = m.run_epoch().unwrap().makespan();
            m.remove_tenant(t).unwrap();
            span
        };
        let mut m = Machine::new(fpga());
        let healthy = send_epoch(&mut m);
        m.fault_link(2, 3).unwrap();
        assert_eq!(m.faulted_links().collect::<Vec<_>>(), vec![(2, 3)]);
        assert!(m.link_faulted(3, 2) && !m.link_faulted(2, 4));
        let degraded = send_epoch(&mut m);
        assert!(
            degraded > healthy,
            "degraded mode must slow the NoC: {degraded} vs {healthy}"
        );
        m.repair_link(2, 3).unwrap();
        assert_eq!(send_epoch(&mut m), healthy);
        // A send across the faulted link itself errors, never hangs.
        m.fault_link(0, 1).unwrap();
        let t = m.add_tenant("x");
        m.bind(0, t, 0, Program::once(vec![Instr::send(1, 2048, 0)]))
            .unwrap();
        m.bind(1, t, 1, Program::once(vec![Instr::recv(0, 2048, 0)]))
            .unwrap();
        assert!(matches!(
            m.run(),
            Err(SimError::LinkFaulted { .. } | SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn migrate_tenant_pauses_next_epoch_only() {
        let mut m = Machine::new(fpga());
        let t = m.add_tenant("mover");
        // Mid-epoch migration is refused: the tenant has bound threads.
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        assert!(matches!(
            m.migrate_tenant(t, 500),
            Err(SimError::TenantBusy(_))
        ));
        let baseline = m.run_epoch().unwrap().makespan();
        // At the epoch boundary the migration is legal and the pause is
        // charged to the next epoch's threads.
        m.migrate_tenant(t, 10_000).unwrap();
        assert_eq!(
            m.pending_migration_pauses().collect::<Vec<_>>(),
            vec![(t, 10_000)]
        );
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        let paused = m.run_epoch().unwrap().makespan();
        assert!(
            paused >= baseline + 10_000,
            "migration pause must delay the epoch: {paused} vs {baseline}"
        );
        // The pause is consumed: the epoch after runs at full speed.
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        assert_eq!(m.run_epoch().unwrap().makespan(), baseline);
        // Unknown tenants are rejected.
        assert!(matches!(
            m.migrate_tenant(999, 1),
            Err(SimError::UnknownTenant(999))
        ));
    }

    #[test]
    fn remove_tenant_drops_its_pending_pause() {
        // Remapped (paused) and then evacuated before the next epoch: the
        // pause must leave with the tenant instead of lingering until
        // some later epoch finishes on this machine.
        let mut m = Machine::new(fpga());
        let stays = m.add_tenant("stays");
        let leaves = m.add_tenant("leaves");
        m.migrate_tenant(stays, 700).unwrap();
        m.migrate_tenant(leaves, 900).unwrap();
        assert_eq!(
            m.pending_migration_pauses().collect::<Vec<_>>(),
            vec![(stays, 700), (leaves, 900)]
        );
        m.remove_tenant(leaves).unwrap();
        assert_eq!(
            m.pending_migration_pauses().collect::<Vec<_>>(),
            vec![(stays, 700)]
        );
        m.finish_epoch();
        assert_eq!(m.pending_migration_pauses().count(), 0);
    }

    #[test]
    fn run_epoch_makespan_matches_the_full_report() {
        let bind_batch = |m: &mut Machine, t: TenantId| {
            for c in 0..4u32 {
                m.bind(
                    c,
                    t,
                    c,
                    Program::looped(
                        vec![Instr::dma_load(u64::from(c) << 20, 8 * 1024)],
                        vec![
                            Instr::matmul(32, 32, 32),
                            Instr::send((c + 1) % 4, 2048, c),
                            Instr::recv((c + 3) % 4, 2048, (c + 3) % 4),
                        ],
                        3,
                    ),
                )
                .unwrap();
            }
        };
        let mut full = Machine::new(fpga());
        let t = full.add_tenant("t");
        bind_batch(&mut full, t);
        let expect = full.run_epoch().unwrap().makespan();

        let mut lean = Machine::new(fpga());
        let t = lean.add_tenant("t");
        for round in 0..3 {
            bind_batch(&mut lean, t);
            assert_eq!(lean.run_epoch_makespan().unwrap(), expect, "round {round}");
        }
        // Both flavours leave the machine equally reusable, in any order.
        bind_batch(&mut lean, t);
        assert_eq!(lean.run_epoch().unwrap().makespan(), expect);
        bind_batch(&mut lean, t);
        assert_eq!(lean.run_epoch_makespan().unwrap(), expect);
    }

    #[test]
    fn adopted_tenant_starts_its_first_epoch_paused() {
        // An evacuated tenant landing from another chip pays its
        // cross-chip pause on the threads of its *first* epoch here.
        let mut reference = Machine::new(fpga());
        let r = reference.add_tenant("local");
        reference
            .bind(0, r, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        let baseline = reference.run_epoch().unwrap().makespan();

        let mut m = Machine::new(fpga());
        let t = m.adopt_tenant("evacuee", 25_000);
        assert_eq!(
            m.pending_migration_pauses().collect::<Vec<_>>(),
            vec![(t, 25_000)],
            "an adoption owes its landing pause"
        );
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        let paused = m.run_epoch().unwrap().makespan();
        assert!(
            paused >= baseline + 25_000,
            "the landing pause must delay the first epoch: {paused} vs {baseline}"
        );
        // The pause is consumed; the second epoch runs at full speed.
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        assert_eq!(m.run_epoch().unwrap().makespan(), baseline);
    }

    #[test]
    fn hybrid_core_scalings_survive_epochs() {
        let mut m = Machine::new(fpga());
        m.set_core_scales(0, 50, 200).unwrap();
        let t = m.add_tenant("t");
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(64, 64, 64)]))
            .unwrap();
        let fast = m.run_epoch().unwrap().makespan();
        // Next epoch, same kernel: the hybrid scaling must still apply.
        m.bind(0, t, 0, Program::once(vec![Instr::matmul(64, 64, 64)]))
            .unwrap();
        let again = m.run_epoch().unwrap().makespan();
        assert_eq!(fast, again, "hardware scalings persist across epochs");
    }
}
