//! The per-epoch half of the machine: bound threads, in-flight events,
//! flow/flag/barrier bookkeeping, and the deterministic event loop.
//!
//! A [`crate::machine::Machine`] is split in two layers so a
//! serving runtime can interleave tenant arrivals with execution:
//!
//! * **persistent chip state** (`machine.rs`) — configuration, per-core
//!   hardware (hybrid-core scalings), the NoC link graph, HBM channels,
//!   and the tenant registry. Built once, reused for every batch.
//! * **epoch state** (this module) — everything one workload batch
//!   creates: thread bindings with their virtualization services, the
//!   event queue, flow credits, global-memory flags and barriers, and the
//!   per-core activity traces. [`Machine::finish_epoch`] empties this
//!   layer *in place* — every container keeps its capacity, so a machine
//!   driven through many epochs stops allocating once it has seen its
//!   largest batch — and resets the chip's *clocks* (link/channel
//!   `busy_until`), while the chip structures themselves are never rebuilt.
//!
//! The event loop itself also lives here: it is the part of the machine
//! that only ever touches one epoch.

use crate::compute::kernel_cycles;
use crate::controller;
use crate::isa::{Instr, Program};
use crate::machine::{Machine, TenantId};
use crate::stats::{Activity, CoreTrace, Report, TenantStats};
use crate::{Result, SimError};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use vnpu_mem::{Perm, VirtAddr};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Prelude(usize),
    Body { iter: u32, pc: usize },
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FlowKey {
    pub tenant: TenantId,
    pub src: u32,
    pub dst: u32,
    pub tag: u32,
}

#[derive(Debug, Default)]
pub(crate) struct FlowState {
    pub sent: u64,
    pub arrived: u64,
    pub consumed: u64,
    /// Blocked receiver: (thread, bytes needed beyond `consumed`, since).
    pub waiter: Option<(usize, u64, u64)>,
    /// Senders blocked on flow credit.
    pub credit_waiters: Vec<usize>,
}

#[derive(Debug)]
pub(crate) struct ThreadState {
    pub tenant: TenantId,
    pub prog_core: u32,
    pub phys_core: u32,
    pub program: Program,
    pub phase: Phase,
    pub warmup_done: Option<u64>,
    pub finished_at: Option<u64>,
    pub body_started: Option<u64>,
    pub compute_cycles: u64,
    pub macs: u64,
    pub consumed_flags: HashMap<u32, u64>,
    pub blocked: Option<Blocked>,
}

/// Why a thread is parked. Recorded on every blocking instruction but
/// read only when [`Machine::run`] ends in [`SimError::Deadlock`], so it
/// stays a plain value until the error text is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocked {
    /// `(dst, tag, bytes in flight)`
    SendCredit(u32, u32, u64),
    /// `(src, tag, bytes awaited)`
    Recv(u32, u32, u64),
    /// `(tag, bytes needed in total, bytes published)`
    GlobalRead(u32, u64, u64),
    /// `(barrier id)`
    Barrier(u32),
}

impl std::fmt::Display for Blocked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Blocked::SendCredit(dst, tag, in_flight) => write!(
                f,
                "send to {dst} tag {tag}: flow-credit wait ({in_flight} in flight)"
            ),
            Blocked::Recv(src, tag, bytes) => {
                write!(f, "recv from {src} tag {tag}: waiting for {bytes} bytes")
            }
            Blocked::GlobalRead(tag, needed, have) => write!(
                f,
                "global-read tag {tag}: waiting for {needed} bytes (have {have})"
            ),
            Blocked::Barrier(id) => write!(f, "barrier {id}"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    ThreadReady(usize),
    PacketArrive {
        flow_idx: usize,
        bytes: u64,
    },
    FlagWrite {
        tenant: TenantId,
        tag: u32,
        bytes: u64,
    },
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) struct QueuedEvent {
    pub time: u64,
    pub seq: u64,
    pub event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap via reverse comparison on (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything one workload batch puts on the machine. Emptied in place
/// (capacity kept) by [`Machine::finish_epoch`]; the chip state is not
/// touched.
#[derive(Debug)]
pub(crate) struct EpochState {
    pub threads: Vec<ThreadState>,
    pub queue: BinaryHeap<QueuedEvent>,
    pub seq: u64,
    pub now: u64,
    pub flow_index: HashMap<FlowKey, usize>,
    pub flows: Vec<FlowState>,
    pub flags: HashMap<(TenantId, u32), u64>,
    /// (thread, tag, needed_total, since)
    pub flag_waiters: Vec<(usize, u32, u64, u64)>,
    pub barriers: HashMap<(TenantId, u32), Vec<(usize, u64)>>,
    /// Threads bound per tenant *this epoch* (barrier quorum).
    pub tenant_threads: HashMap<TenantId, u32>,
    pub traces: Vec<CoreTrace>,
    pub mem_trace: Vec<(u64, u32, u64)>, // (time, core, va)
}

impl EpochState {
    pub(crate) fn new(core_count: usize) -> Self {
        EpochState {
            threads: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: 0,
            flow_index: HashMap::new(),
            flows: Vec::new(),
            flags: HashMap::new(),
            flag_waiters: Vec::new(),
            barriers: HashMap::new(),
            tenant_threads: HashMap::new(),
            traces: (0..core_count).map(|_| CoreTrace::default()).collect(),
            mem_trace: Vec::new(),
        }
    }

    /// Empties the epoch for the next batch without giving back memory.
    /// [`Machine::run`] moves the traces into its report; they are
    /// re-created here when it did.
    pub(crate) fn reset(&mut self, core_count: usize) {
        self.threads.clear();
        self.queue.clear();
        self.seq = 0;
        self.now = 0;
        self.flow_index.clear();
        self.flows.clear();
        self.flags.clear();
        self.flag_waiters.clear();
        self.barriers.clear();
        self.tenant_threads.clear();
        self.traces.iter_mut().for_each(CoreTrace::clear);
        self.traces.resize_with(core_count, CoreTrace::default);
        self.mem_trace.clear();
    }

    pub(crate) fn push_event(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.queue.push(QueuedEvent {
            time,
            seq: self.seq,
            event,
        });
    }

    /// A thread's final instruction completes without scheduling another
    /// event, so the true makespan is the max over completion stamps,
    /// not the last event time.
    pub(crate) fn makespan(&self) -> u64 {
        self.threads
            .iter()
            .filter_map(|th| th.finished_at)
            .max()
            .unwrap_or(0)
            .max(self.now)
    }
}

/// The event loop: the epoch-scoped half of [`Machine`]'s behaviour.
impl Machine {
    fn flow_idx(&mut self, key: FlowKey) -> usize {
        match self.epoch.flow_index.entry(key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let idx = self.epoch.flows.len();
                v.insert(idx);
                self.epoch.flows.push(FlowState::default());
                idx
            }
        }
    }

    /// Runs the current epoch's bound programs to completion.
    ///
    /// The machine stays in the finished-epoch state afterwards (reports
    /// drained); call [`Machine::finish_epoch`] — or use
    /// [`Machine::run_epoch`] — to make it bindable again.
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] — threads remain blocked with no pending
    ///   events (e.g. a `Recv` whose `Send` never happens).
    /// * [`SimError::CycleLimit`] — the configured cycle budget ran out.
    /// * [`SimError::MemFault`] / [`SimError::RouteFault`] — a program
    ///   performed an invalid access.
    pub fn run(&mut self) -> Result<Report> {
        self.run_events()?;
        Ok(self.build_report())
    }

    /// The event loop proper: drains the queue, then checks that every
    /// thread finished. Returns the epoch's makespan.
    pub(crate) fn run_events(&mut self) -> Result<u64> {
        // Kick off every thread at its controller-dispatch offset.
        for t in 0..self.epoch.threads.len() {
            let core = self.epoch.threads[t].phys_core;
            let offset = controller::dispatch_latency(
                self.config(),
                controller::DispatchPath::InstructionNoc,
                core,
            );
            self.epoch.push_event(offset, Event::ThreadReady(t));
        }
        while let Some(q) = self.epoch.queue.pop() {
            self.epoch.now = q.time;
            if self.epoch.now > self.config().max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config().max_cycles,
                });
            }
            match q.event {
                Event::ThreadReady(t) => self.step_thread(t)?,
                Event::PacketArrive { flow_idx, bytes } => self.packet_arrive(flow_idx, bytes),
                Event::FlagWrite { tenant, tag, bytes } => self.flag_write(tenant, tag, bytes),
            }
        }
        // Done or deadlocked.
        let blocked: Vec<String> = self
            .epoch
            .threads
            .iter()
            .enumerate()
            .filter(|(_, th)| th.phase != Phase::Done)
            .map(|(i, th)| {
                let why: &dyn std::fmt::Display = match &th.blocked {
                    Some(blocked) => blocked,
                    None => &"not started",
                };
                format!(
                    "thread {i} (tenant {}, core {}): {why}",
                    th.tenant, th.phys_core
                )
            })
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock {
                detail: blocked.join("; "),
            });
        }
        Ok(self.epoch.makespan())
    }

    fn current_instr(&self, t: usize) -> Option<Instr> {
        let th = &self.epoch.threads[t];
        match th.phase {
            Phase::Prelude(pc) => th.program.prelude.get(pc).copied(),
            Phase::Body { pc, .. } => th.program.body.get(pc).copied(),
            Phase::Done => None,
        }
    }

    /// Advances the phase state machine past the current instruction,
    /// recording warm-up / completion timestamps at boundaries.
    fn advance(&mut self, t: usize, at: u64) {
        let th = &mut self.epoch.threads[t];
        th.phase = match th.phase {
            Phase::Prelude(pc) => {
                if pc + 1 < th.program.prelude.len() {
                    Phase::Prelude(pc + 1)
                } else {
                    th.warmup_done = Some(at);
                    if th.program.body.is_empty() || th.program.iterations == 0 {
                        th.finished_at = Some(at);
                        Phase::Done
                    } else {
                        th.body_started = Some(at);
                        Phase::Body { iter: 0, pc: 0 }
                    }
                }
            }
            Phase::Body { iter, pc } => {
                if pc + 1 < th.program.body.len() {
                    Phase::Body { iter, pc: pc + 1 }
                } else if iter + 1 < th.program.iterations {
                    Phase::Body {
                        iter: iter + 1,
                        pc: 0,
                    }
                } else {
                    th.finished_at = Some(at);
                    Phase::Done
                }
            }
            Phase::Done => Phase::Done,
        };
    }

    fn finish_instr(&mut self, t: usize, at: u64) {
        self.advance(t, at);
        if self.epoch.threads[t].phase != Phase::Done {
            self.epoch.push_event(at, Event::ThreadReady(t));
        }
    }

    fn step_thread(&mut self, t: usize) -> Result<()> {
        self.epoch.threads[t].blocked = None;
        if self.epoch.threads[t].body_started.is_none() {
            if let Phase::Body { .. } = self.epoch.threads[t].phase {
                self.epoch.threads[t].body_started = Some(self.epoch.now);
                if self.epoch.threads[t].warmup_done.is_none() {
                    self.epoch.threads[t].warmup_done = Some(self.epoch.now);
                }
            }
        }
        let Some(instr) = self.current_instr(t) else {
            return Ok(());
        };
        match instr {
            Instr::Delay { cycles } => {
                let done = self.epoch.now + cycles;
                self.finish_instr(t, done);
            }
            Instr::Compute(kernel) => {
                let phys = self.epoch.threads[t].phys_core as usize;
                let (matrix_scale, vector_scale) = self.core_scales(phys);
                let scale = match kernel {
                    crate::isa::Kernel::Vector { .. } => vector_scale,
                    _ => matrix_scale,
                };
                let dur = (kernel_cycles(self.config(), &kernel) * u64::from(scale) / 100).max(1);
                let now = self.epoch.now;
                let tdm_penalty = self.config().tdm_switch_penalty;
                let core = self.core_mut(phys);
                let mut start = now.max(core.compute_busy_until);
                if core.thread_count > 1 && core.last_owner.is_some_and(|o| o != t) {
                    start += tdm_penalty;
                }
                core.compute_busy_until = start + dur;
                core.last_owner = Some(t);
                self.epoch.threads[t].compute_cycles += dur;
                self.epoch.threads[t].macs += kernel.macs();
                self.epoch.traces[phys].push(start, start + dur, Activity::Compute);
                self.finish_instr(t, start + dur);
            }
            Instr::DmaLoad { va, bytes } => self.do_dma(t, va, bytes, Perm::R)?,
            Instr::DmaStore { va, bytes } => self.do_dma(t, va, bytes, Perm::W)?,
            Instr::Send { dst, bytes, tag } => self.do_send(t, dst, bytes, tag)?,
            Instr::Recv { src, bytes, tag } => self.do_recv(t, src, bytes, tag),
            Instr::GlobalWrite { va, bytes, tag } => self.do_global_write(t, va, bytes, tag)?,
            Instr::GlobalRead { va, bytes, tag } => self.do_global_read(t, va, bytes, tag)?,
            Instr::Barrier { id } => self.do_barrier(t, id),
        }
        Ok(())
    }

    /// Streams a DMA transfer: chunked issue, translation stalls, optional
    /// bandwidth limiting, HBM channel contention.
    fn do_dma(&mut self, t: usize, va: VirtAddr, bytes: u64, perm: Perm) -> Result<()> {
        let phys = self.epoch.threads[t].phys_core;
        let channel = self.config().interface_of(phys);
        let burst = self.config().dma_burst_bytes.max(1);
        let issue_interval = self.config().dma_issue_interval;
        let mem_trace_enabled = self.mem_trace_enabled;
        let now = self.epoch.now;
        let services = self.services.get_mut(t).expect("every thread has services");
        let mut issue = now;
        let mut done = now;
        let mut off = 0u64;
        while off < bytes {
            let len = burst.min(bytes - off);
            let tr = services
                .translator
                .translate(va.offset(off), len, perm)
                .map_err(|err| SimError::MemFault { core: phys, err })?;
            if tr.hit {
                issue += tr.cycles;
            } else {
                // §4.2: "Any TLB misses can cause a stall in numerous
                // subsequent DMA requests" — the engine drains its
                // outstanding transfers, then walks, then resumes issuing.
                issue = done.max(issue) + tr.cycles;
            }
            if let Some(lim) = services.limiter.as_mut() {
                issue += lim.record(issue, len);
            }
            let _ = tr.pa; // physical address is modelled, not dereferenced
            let completion = self.hbm.access(channel, len, issue);
            done = done.max(completion);
            if mem_trace_enabled {
                self.epoch
                    .mem_trace
                    .push((issue, phys, va.offset(off).value()));
            }
            issue += issue_interval;
            off += len;
        }
        self.epoch.traces[phys as usize].push(now, done, Activity::Dma);
        self.finish_instr(t, done);
        Ok(())
    }

    fn do_send(&mut self, t: usize, dst: u32, bytes: u64, tag: u32) -> Result<()> {
        let th = &self.epoch.threads[t];
        let key = FlowKey {
            tenant: th.tenant,
            src: th.prog_core,
            dst,
            tag,
        };
        let phys = th.phys_core;
        let fidx = self.flow_idx(key);
        // Finite receive buffering: block while too many bytes are in
        // flight and unconsumed.
        let credit = self.config().flow_credit_bytes.max(bytes);
        let flow = &mut self.epoch.flows[fidx];
        if flow.sent - flow.consumed + bytes > credit {
            flow.credit_waiters.push(t);
            self.epoch.threads[t].blocked =
                Some(Blocked::SendCredit(dst, tag, flow.sent - flow.consumed));
            return Ok(());
        }
        flow.sent += bytes;
        let send_setup = self.config().send_setup;
        let packet_bytes = self.config().packet_bytes;
        let packet_overhead = self.config().packet_overhead;
        let now = self.epoch.now;
        let engine_busy_until = self.core(phys as usize).send_engine_busy_until;
        // The path borrows from the router for the whole streaming loop,
        // so from here on the machine is touched field by field.
        let router = &mut self
            .services
            .get_mut(t)
            .expect("every thread has services")
            .router;
        let (dst_phys, lookup) = router
            .resolve(dst)
            .map_err(|_| SimError::RouteFault { core: phys, dst })?;
        let per_packet = router.per_packet_overhead();
        let path = router.path(phys, dst_phys)?;
        // The thread only programs the engine; streaming is asynchronous.
        let engine_ready = now + send_setup + lookup;
        let mut depart = engine_ready.max(engine_busy_until);
        let send_started = depart;
        let mut off = 0u64;
        while off < bytes {
            let len = packet_bytes.min(bytes - off);
            let timing = self.noc.send_packet(path, len, depart + per_packet)?;
            depart = timing.injected_at + packet_overhead;
            self.epoch.push_event(
                timing.arrived_at + packet_overhead,
                Event::PacketArrive {
                    flow_idx: fidx,
                    bytes: len,
                },
            );
            off += len;
        }
        self.core_mut(phys as usize).send_engine_busy_until = depart;
        self.epoch.traces[phys as usize].push(send_started, depart, Activity::Send);
        self.finish_instr(t, engine_ready);
        Ok(())
    }

    fn do_recv(&mut self, t: usize, src: u32, bytes: u64, tag: u32) {
        let th = &self.epoch.threads[t];
        let key = FlowKey {
            tenant: th.tenant,
            src,
            dst: th.prog_core,
            tag,
        };
        let fidx = self.flow_idx(key);
        let flow = &mut self.epoch.flows[fidx];
        if flow.arrived - flow.consumed >= bytes {
            flow.consumed += bytes;
            let waiters = std::mem::take(&mut flow.credit_waiters);
            let now = self.epoch.now;
            for w in waiters {
                self.epoch.push_event(now, Event::ThreadReady(w));
            }
            let done = now + self.recv_ack;
            self.finish_instr(t, done);
        } else {
            debug_assert!(flow.waiter.is_none(), "one receiver per flow");
            flow.waiter = Some((t, bytes, self.epoch.now));
            self.epoch.threads[t].blocked = Some(Blocked::Recv(src, tag, bytes));
        }
    }

    fn packet_arrive(&mut self, fidx: usize, bytes: u64) {
        let flow = &mut self.epoch.flows[fidx];
        flow.arrived += bytes;
        if let Some((t, needed, since)) = flow.waiter {
            if flow.arrived - flow.consumed >= needed {
                flow.waiter = None;
                flow.consumed += needed;
                let waiters = std::mem::take(&mut flow.credit_waiters);
                let now = self.epoch.now;
                let phys = self.epoch.threads[t].phys_core as usize;
                self.epoch.traces[phys].push(since, now, Activity::RecvWait);
                for w in waiters {
                    self.epoch.push_event(now, Event::ThreadReady(w));
                }
                let done = now + self.recv_ack;
                self.finish_instr(t, done);
            }
        }
    }

    fn do_global_write(&mut self, t: usize, va: VirtAddr, bytes: u64, tag: u32) -> Result<()> {
        // Write the payload + a flag line through the HBM channel, at
        // load/store (cache-line) granularity.
        let tenant = self.epoch.threads[t].tenant;
        let phys = self.epoch.threads[t].phys_core;
        let channel = self.config().interface_of(phys);
        let burst = self.config().dma_burst_bytes.max(1);
        let (line, mlp) = (self.config().uvm_line_bytes, self.config().uvm_mlp);
        let issue_interval = self.config().dma_issue_interval;
        let send_setup = self.config().send_setup;
        let now = self.epoch.now;
        let services = self.services.get_mut(t).expect("every thread has services");
        let mut issue = now;
        let mut done = now;
        let mut off = 0u64;
        while off < bytes {
            let len = burst.min(bytes - off);
            let tr = services
                .translator
                .translate(va.offset(off), len, Perm::W)
                .map_err(|err| SimError::MemFault { core: phys, err })?;
            issue += tr.cycles;
            if let Some(lim) = services.limiter.as_mut() {
                issue += lim.record(issue, len);
            }
            done = done.max(self.hbm.access_uvm(channel, len, issue, line, mlp));
            issue += issue_interval;
            off += len;
        }
        // Flag publication: one extra cache-line write after the data.
        let flag_done = self.hbm.access_uvm(channel, 64, done, line, mlp);
        self.epoch.traces[phys as usize].push(now, flag_done, Activity::Send);
        self.epoch
            .push_event(flag_done, Event::FlagWrite { tenant, tag, bytes });
        // Stores drain through a write buffer: the producer core continues
        // after issuing (symmetric with the asynchronous send engine); the
        // channel occupancy above still serializes its later accesses.
        self.finish_instr(t, now + send_setup);
        Ok(())
    }

    fn do_global_read(&mut self, t: usize, va: VirtAddr, bytes: u64, tag: u32) -> Result<()> {
        let tenant = self.epoch.threads[t].tenant;
        let consumed = *self.epoch.threads[t].consumed_flags.get(&tag).unwrap_or(&0);
        let available = *self.epoch.flags.get(&(tenant, tag)).unwrap_or(&0);
        if available >= consumed + bytes {
            // Data is published: read it through HBM (contention!).
            self.epoch.threads[t]
                .consumed_flags
                .insert(tag, consumed + bytes);
            let phys = self.epoch.threads[t].phys_core;
            let channel = self.config().interface_of(phys);
            let burst = self.config().dma_burst_bytes.max(1);
            let (line, mlp) = (self.config().uvm_line_bytes, self.config().uvm_mlp);
            let issue_interval = self.config().dma_issue_interval;
            let now = self.epoch.now;
            let services = self.services.get_mut(t).expect("every thread has services");
            let mut issue = now;
            let mut done = now;
            let mut off = 0u64;
            while off < bytes {
                let len = burst.min(bytes - off);
                let tr = services
                    .translator
                    .translate(va.offset(off), len, Perm::R)
                    .map_err(|err| SimError::MemFault { core: phys, err })?;
                issue += tr.cycles;
                if let Some(lim) = services.limiter.as_mut() {
                    issue += lim.record(issue, len);
                }
                done = done.max(self.hbm.access_uvm(channel, len, issue, line, mlp));
                issue += issue_interval;
                off += len;
            }
            self.epoch.traces[phys as usize].push(now, done, Activity::RecvWait);
            self.finish_instr(t, done);
        } else {
            self.epoch
                .flag_waiters
                .push((t, tag, consumed + bytes, self.epoch.now));
            self.epoch.threads[t].blocked =
                Some(Blocked::GlobalRead(tag, consumed + bytes, available));
        }
        Ok(())
    }

    fn flag_write(&mut self, tenant: TenantId, tag: u32, bytes: u64) {
        *self.epoch.flags.entry((tenant, tag)).or_insert(0) += bytes;
        let available = self.epoch.flags[&(tenant, tag)];
        let mut still_waiting = Vec::new();
        let waiters = std::mem::take(&mut self.epoch.flag_waiters);
        let now = self.epoch.now;
        for (t, wtag, needed, since) in waiters {
            if wtag == tag && self.epoch.threads[t].tenant == tenant && available >= needed {
                self.epoch.push_event(now, Event::ThreadReady(t));
            } else {
                still_waiting.push((t, wtag, needed, since));
            }
        }
        self.epoch.flag_waiters = still_waiting;
    }

    fn do_barrier(&mut self, t: usize, id: u32) {
        let tenant = self.epoch.threads[t].tenant;
        let total = self.epoch.tenant_threads[&tenant];
        let now = self.epoch.now;
        let entry = self.epoch.barriers.entry((tenant, id)).or_default();
        entry.push((t, now));
        if entry.len() as u32 == total {
            let participants = std::mem::take(entry);
            for (p, _) in participants {
                self.advance(p, now);
                if self.epoch.threads[p].phase != Phase::Done {
                    self.epoch.push_event(now, Event::ThreadReady(p));
                }
            }
            // Re-check Done bookkeeping for completed threads handled in advance().
        } else {
            self.epoch.threads[t].blocked = Some(Blocked::Barrier(id));
        }
    }

    fn build_report(&mut self) -> Report {
        let makespan = self.epoch.makespan();
        let mut tenants: HashMap<TenantId, TenantStats> = HashMap::new();
        for th in &self.epoch.threads {
            let s = tenants.entry(th.tenant).or_insert_with(|| TenantStats {
                name: self.tenant_names[&th.tenant].clone(),
                warmup_end: 0,
                body_start: u64::MAX,
                end: 0,
                iterations: th.program.iterations,
                threads: 0,
                compute_cycles: 0,
                macs: 0,
            });
            s.threads += 1;
            s.warmup_end = s.warmup_end.max(th.warmup_done.unwrap_or(0));
            s.body_start = s.body_start.min(th.body_started.unwrap_or(u64::MAX));
            s.end = s.end.max(th.finished_at.unwrap_or(0));
            s.compute_cycles += th.compute_cycles;
            s.macs += th.macs;
            s.iterations = s.iterations.max(th.program.iterations);
        }
        let translator_stats = self
            .services
            .iter()
            .enumerate()
            .map(|(i, s)| (self.epoch.threads[i].phys_core, s.translator.stats()))
            .collect();
        Report::new(
            self.config().clone(),
            makespan,
            tenants,
            std::mem::take(&mut self.epoch.traces),
            self.noc.contention_cycles(),
            self.noc.packets_sent(),
            self.hbm.wait_cycles(),
            translator_stats,
            std::mem::take(&mut self.epoch.mem_trace),
        )
    }
}

/// A summary of one finished epoch, kept by the machine for trend
/// queries without retaining whole [`Report`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSummary {
    /// Zero-based index of the epoch.
    pub index: u64,
    /// Makespan of the epoch in cycles.
    pub makespan: u64,
    /// Threads that ran in the epoch.
    pub threads: usize,
    /// Tenants that had at least one thread bound.
    pub tenants: usize,
}
