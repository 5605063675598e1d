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
//!   event queue, flow credits and in-flight packets, global-memory flags
//!   and barriers, and the per-core activity traces.
//!   [`Machine::finish_epoch`] empties this layer *in place* — every
//!   container keeps its capacity (flows are recycled with their
//!   credit-waiter buffers, packets live in one arena), so a machine
//!   driven through many epochs stops allocating once it has seen its
//!   largest batch — and resets the chip's *clocks* (link/channel
//!   `busy_until`), while the chip structures themselves are never rebuilt.
//!
//! The event loop itself also lives here: it is the part of the machine
//! that only ever touches one epoch.
//!
//! # The event queue
//!
//! Events pop in `(time, seq)` order, `seq` drawn when the event is
//! queued, so of two events on one cycle the one queued first goes first.
//! Most events are a thread readying itself for its next instruction
//! (`finish_instr`), and that event is often the earliest pending one — a
//! thread computing kernel after kernel on its own core. So the queue
//! (`EventQueue`) keeps the event pushed last outside its binary heap. A
//! push moves the kept event into the heap. A pop returns the kept event
//! when nothing in the heap is earlier, without touching the heap, and
//! otherwise swaps it for the heap's top in one sift. Keys are unique (a
//! wake reuses the number of its packet, which no other event holds), so
//! the pop order is exactly the heap's.
//!
//! Booking a thread's run of computes in one step instead would not be
//! exact: the run would draw its successor's `seq` before the events that
//! other threads queue in between, and a same-cycle tie would flip. The
//! kept event captures the case in which a run is exact — the thread's next
//! event is the earliest one.
//!
//! # Packet arrivals are not events
//!
//! A packet's arrival time is known the moment `Send` streams it, and an
//! arrival does one thing: it adds to its flow's `arrived` count. So a
//! packet is not queued. `Send` still draws one sequence number per
//! packet — the place its arrival holds in the total `(time, seq)` order
//! — and records its packets on the flow as **run nodes** in one
//! epoch-level arena (`EpochState::arrivals`, freed nodes reused): a node
//! `(time, seq, bytes, count, stride)` stands for `count` packets of
//! `bytes`, the `i`-th arriving at `time + i·stride` under `seq + i`. A
//! packet sent alone is a run of one; a train (below) is one node.
//! Whoever reads `arrived` first folds in every packet ordered before the
//! event being handled, which is exactly the set of arrivals a queue
//! would have delivered by then: whole nodes, then the prefix of a run
//! that is due, in closed form. Only a receiver that must wait needs the
//! queue: it gets a single `Event::FlowWake` under the `(arrival, seq)`
//! of the packet that completes its need, found inside its run by one
//! division — queued by `Recv` when that packet is already in flight, by
//! the completing `Send` otherwise — so it wakes at the point in the
//! order, and its `ThreadReady` draws the sequence number, that a
//! per-packet event would have given it. Two threads bound under one
//! core ID may stream one flow over two paths; a run that lands before
//! the flow's last packet is filed packet by packet, splitting the run
//! each one lands in. The latest arrival feeds `EpochState::makespan` and
//! the cycle-limit check: a packet nobody receives counts as before.
//!
//! # Sends by packet trains
//!
//! A `Send` cuts its bytes into `packet_bytes` packets, and the modelled
//! engine injects each one a `stride = ser + packet_overhead +
//! per_packet` after the one before — `ser` the time a packet holds a
//! link. Nothing else touches the links while one `Send` streams. So once
//! a packet waited on no link of its path, it was the last packet on each
//! of them, the next full packet reaches each link `stride ≥ ser` later —
//! after it was freed — and waits on none either; by induction every
//! later full packet repeats its timing shifted by `stride`. `Send`
//! therefore walks packets one by one ([`crate::noc::Noc::send_on`]) only
//! while they wait, and books the full packets after the first clean one
//! as one train: [`crate::noc::Noc::send_train`] moves each path link's
//! clock and load in O(path), and one run node records their arrivals.
//! A self-send has no link: its train moves only the packet count. The
//! ragged last packet is still sent alone. A train's last arrival is
//! computed in checked arithmetic, and one past `max_cycles` ends the
//! `Send` in the [`SimError::CycleLimit`] the per-packet loop reaches at
//! one of its packets. A path that crosses one link twice, where a packet
//! could meet its own predecessor, goes packet by packet; so does every
//! `Send` under `EpochState::send_per_packet`, the schedule tests hold
//! trains to.
//!
//! # DMA streams by runs
//!
//! A DMA transfer is cut into `dma_burst_bytes` bursts, and the modelled
//! engine translates and issues each one. The model does not have to:
//! after a burst is translated, [`vnpu_mem::Translate::translate_run`]
//! books as TLB hits the following full bursts that the translation
//! entry just used serves whole — the whole address space under physical
//! addressing, the range at `RTT_CUR` under vChunk, the MRU page under
//! an IOTLB — leaving the translator as that many hits would. Those
//! bursts arrive at the channel one hit plus one issue interval apart,
//! so [`crate::hbm::Hbm::access_run`] serves them in closed form. A
//! transfer inside one range therefore costs the host one lookup, not
//! one per burst, which is Pattern-1 of §4.2 applied to the simulator.
//!
//! A miss drains the queue, and that is what lets a stream of misses go
//! by runs too. A miss issues at the drain point — the later of the last
//! completion and the next issue slot — plus its walk, and the channel
//! is free by then unless the miss opens the transfer. So when the miss
//! that opens a *period* (the miss and the hits after it, up to the next
//! miss) waited on nothing, the period's issue times, completions,
//! channel clock and waits are its drain point plus constants: a pure
//! function of where it starts. A next period with the same translation
//! costs starts its drain point `Δ` later and repeats it exactly, and so
//! does each one after. After such a period,
//! [`vnpu_mem::Translate::translate_miss_run`] books `m` more of them —
//! under an IOTLB, one page each, filled in LRU order — and
//! [`crate::hbm::Hbm::repeat`] shifts the channel by `m·Δ` and its wait
//! and byte totals by `m` periods' worth. A transfer streaming through
//! fresh pages costs the host one booking, not one walk per page.
//!
//! A ragged last burst is still translated on its own, and a transfer
//! under a bandwidth limiter or on a machine recording its memory trace
//! goes burst by burst, because both act on every burst — the schedule,
//! forced for every transfer (`EpochState::dma_per_burst`), that tests
//! hold the runs to. A run whose times overflow `u64`, like a transfer
//! whose completion passes `max_cycles`, ends the run in
//! [`SimError::CycleLimit`].

use crate::compute::kernel_cycles;
use crate::controller;
use crate::isa::{Instr, Program};
use crate::machine::{Machine, TenantId};
use crate::stats::{Activity, CoreTrace, Report, TenantStats};
use crate::{Result, SimError};
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use vnpu_mem::translate::last_byte;
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

/// Hashes a [`FlowKey`]'s four words by multiply and rotate, not SipHash:
/// `flow_index` is looked up on every `Send` and `Recv`. The map is never
/// iterated, so its order cannot reach an output, and a program picking
/// colliding tags slows only the simulation of itself.
#[derive(Default)]
pub(crate) struct FlowHasher(u64);

impl Hasher for FlowHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// End of an in-flight list / no free node.
const NO_ARRIVAL: u32 = u32::MAX;

/// A run of packets in flight: the `i`-th of `count` packets of `bytes`
/// arrives at `time + i·stride` under sequence number `seq + i`. A node of
/// its flow's arrival list, held in [`EpochState::arrivals`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    time: u64,
    seq: u64,
    bytes: u64,
    count: u64,
    stride: u64,
    /// Next run of the flow (or next free node) in the arena.
    next: u32,
}

impl Arrival {
    /// `(time, seq)` of the `i`-th packet.
    fn packet(&self, i: u64) -> (u64, u64) {
        (self.time + i * self.stride, self.seq + i)
    }

    fn last_time(&self) -> u64 {
        self.packet(self.count - 1).0
    }

    /// The packets from the `i`-th on.
    fn skip(&self, i: u64) -> Arrival {
        let (time, seq) = self.packet(i);
        Arrival {
            time,
            seq,
            count: self.count - i,
            ..*self
        }
    }
}

/// A receiver parked on a flow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowWaiter {
    thread: usize,
    /// Bytes needed beyond `consumed`.
    needed: u64,
    since: u64,
    /// Whether the [`Event::FlowWake`] that will satisfy it is queued.
    wake_queued: bool,
}

#[derive(Debug)]
pub(crate) struct FlowState {
    pub sent: u64,
    /// Bytes of the packets folded in so far (see the module docs).
    pub arrived: u64,
    pub consumed: u64,
    /// In-flight packets in `(time, seq)` order: first and last node.
    head: u32,
    tail: u32,
    pub waiter: Option<FlowWaiter>,
    /// Senders blocked on flow credit.
    pub credit_waiters: Vec<usize>,
}

impl Default for FlowState {
    fn default() -> Self {
        FlowState {
            sent: 0,
            arrived: 0,
            consumed: 0,
            head: NO_ARRIVAL,
            tail: NO_ARRIVAL,
            waiter: None,
            credit_waiters: Vec::new(),
        }
    }
}

impl FlowState {
    /// Back to [`FlowState::default`], keeping the waiter buffer.
    fn recycle(&mut self) {
        let mut credit_waiters = std::mem::take(&mut self.credit_waiters);
        credit_waiters.clear();
        *self = FlowState {
            credit_waiters,
            ..FlowState::default()
        };
    }
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
    /// The packet that completes a parked receiver's need has arrived on
    /// this flow; queued under that packet's own `(time, seq)`.
    FlowWake(usize),
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

/// The pending events: a heap, and the event pushed last held outside it
/// (see the module docs). Pops in the heap's `(time, seq)` order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    last: Option<QueuedEvent>,
}

impl EventQueue {
    fn push(&mut self, event: QueuedEvent) {
        if let Some(older) = self.last.replace(event) {
            self.heap.push(older);
        }
    }

    fn pop(&mut self) -> Option<QueuedEvent> {
        let Some(last) = self.last.take() else {
            return self.heap.pop();
        };
        match self.heap.peek_mut() {
            // The order is reversed: the greater event is the earlier.
            Some(mut top) if *top > last => Some(std::mem::replace(&mut *top, last)),
            _ => Some(last),
        }
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.last = None;
    }
}

/// Everything one workload batch puts on the machine. Emptied in place
/// (capacity kept) by [`Machine::finish_epoch`]; the chip state is not
/// touched.
#[derive(Debug)]
pub(crate) struct EpochState {
    pub threads: Vec<ThreadState>,
    pub queue: EventQueue,
    pub seq: u64,
    pub now: u64,
    /// Sequence number of the event being handled: with `now`, the point
    /// in the total order up to which arrivals have happened.
    cur_seq: u64,
    pub flow_index: HashMap<FlowKey, usize, BuildHasherDefault<FlowHasher>>,
    /// Flow slots; the first `flow_index.len()` are this epoch's, the
    /// rest are kept from earlier epochs for reuse.
    pub flows: Vec<FlowState>,
    /// Arena of in-flight packets, threaded into per-flow lists and one
    /// free list.
    arrivals: Vec<Arrival>,
    free_arrival: u32,
    /// Latest arrival time of any packet sent this epoch.
    last_arrival: u64,
    /// Queue an [`Event::FlowWake`] for every packet instead of one per
    /// parked receiver. Never set outside this module's tests, where it
    /// is the eager schedule the lazy one must be indistinguishable from.
    wake_per_packet: bool,
    /// Stream every DMA transfer burst by burst, as before runs. Never
    /// set outside this module's tests, where it is the per-burst
    /// schedule the run path must be indistinguishable from.
    dma_per_burst: bool,
    /// Send every packet on its own, as before trains. Never set outside
    /// this module's tests, where it is the per-packet schedule trains
    /// must be indistinguishable from.
    send_per_packet: bool,
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
            queue: EventQueue::default(),
            seq: 0,
            now: 0,
            cur_seq: 0,
            flow_index: HashMap::default(),
            flows: Vec::new(),
            arrivals: Vec::new(),
            free_arrival: NO_ARRIVAL,
            last_arrival: 0,
            wake_per_packet: false,
            dma_per_burst: false,
            send_per_packet: false,
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
        self.cur_seq = 0;
        let live_flows = self.flow_index.len();
        self.flows[..live_flows]
            .iter_mut()
            .for_each(FlowState::recycle);
        self.flow_index.clear();
        self.arrivals.clear();
        self.free_arrival = NO_ARRIVAL;
        self.last_arrival = 0;
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

    /// Records `count` packets of `fidx`, the `i`-th arriving at `time +
    /// i·stride`, under `count` sequence numbers of their own.
    fn record_run(&mut self, fidx: usize, time: u64, bytes: u64, count: u64, stride: u64) {
        let run = Arrival {
            time,
            seq: self.seq + 1,
            bytes,
            count,
            stride,
            next: NO_ARRIVAL,
        };
        self.seq += count;
        self.last_arrival = self.last_arrival.max(run.last_time());
        if self.wake_per_packet {
            for i in 0..count {
                let (time, seq) = run.packet(i);
                let event = Event::FlowWake(fidx);
                self.queue.push(QueuedEvent { time, seq, event });
            }
        }
        let flow = &mut self.flows[fidx];
        // The run's sequence numbers are the largest drawn so far, so
        // order is decided by time alone and ties go behind.
        if flow.tail == NO_ARRIVAL || self.arrivals[flow.tail as usize].last_time() <= time {
            let tail = flow.tail;
            let at = self.alloc(run);
            let flow = &mut self.flows[fidx];
            match tail {
                NO_ARRIVAL => flow.head = at,
                tail => self.arrivals[tail as usize].next = at,
            }
            flow.tail = at;
        } else {
            // Two threads bound under one core ID stream this flow over
            // two paths, and this run overtakes one in flight: file its
            // packets in order, and let a parked receiver look again — its
            // need may now be complete sooner.
            if let Some(waiter) = flow.waiter.as_mut() {
                waiter.wake_queued = false;
            }
            for i in 0..count {
                self.insert(fidx, run.skip(i));
            }
        }
    }

    /// Files the first packet of `run` into `fidx`'s list behind every
    /// packet that arrives no later, splitting the run it lands in.
    fn insert(&mut self, fidx: usize, run: Arrival) {
        let mut prev = NO_ARRIVAL;
        let mut cur = self.flows[fidx].head;
        while cur != NO_ARRIVAL && self.arrivals[cur as usize].time <= run.time {
            let node = self.arrivals[cur as usize];
            if node.last_time() > run.time {
                let kept = (run.time - node.time) / node.stride + 1;
                let rest = self.alloc(node.skip(kept));
                self.arrivals[cur as usize].count = kept;
                self.arrivals[cur as usize].next = rest;
                if self.flows[fidx].tail == cur {
                    self.flows[fidx].tail = rest;
                }
                (prev, cur) = (cur, rest);
                break;
            }
            (prev, cur) = (cur, node.next);
        }
        let (count, next) = (1, cur);
        let at = self.alloc(Arrival { count, next, ..run });
        let flow = &mut self.flows[fidx];
        match prev {
            NO_ARRIVAL => flow.head = at,
            prev => self.arrivals[prev as usize].next = at,
        }
        if cur == NO_ARRIVAL {
            flow.tail = at;
        }
    }

    /// Stores `node` in the arena, reusing a freed slot first.
    fn alloc(&mut self, node: Arrival) -> u32 {
        if self.free_arrival == NO_ARRIVAL {
            self.arrivals.push(node);
            (self.arrivals.len() - 1) as u32
        } else {
            let at = self.free_arrival;
            self.free_arrival = self.arrivals[at as usize].next;
            self.arrivals[at as usize] = node;
            at
        }
    }

    /// Folds into `arrived` every packet of `fidx` that has arrived by
    /// the event being handled, returning emptied nodes to the free list.
    fn fold_arrivals(&mut self, fidx: usize) {
        let (now, cur_seq) = (self.now, self.cur_seq);
        let flow = &mut self.flows[fidx];
        while flow.head != NO_ARRIVAL {
            let at = flow.head;
            let node = &mut self.arrivals[at as usize];
            if (node.time, node.seq) > (now, cur_seq) {
                return;
            }
            // Every packet landing before `now` has arrived; of those
            // landing at `now`, each drawn no later than the event.
            let (before, by_now) = match (node.stride, now - node.time) {
                (0, late) => (if late > 0 { node.count } else { 0 }, node.count),
                (stride, late) => (late.div_ceil(stride), late / stride + 1),
            };
            let n = ((cur_seq + 1).saturating_sub(node.seq))
                .clamp(before, by_now)
                .min(node.count);
            flow.arrived += n * node.bytes;
            if n < node.count {
                *node = node.skip(n);
                return;
            }
            flow.head = node.next;
            node.next = self.free_arrival;
            self.free_arrival = at;
        }
        flow.tail = NO_ARRIVAL;
    }

    /// Queues the wake of `fidx`'s parked receiver, unless it is queued
    /// already, under the in-flight packet that completes its need — if
    /// that packet has been sent.
    fn schedule_wake(&mut self, fidx: usize) {
        if self.wake_per_packet {
            return;
        }
        let flow = &mut self.flows[fidx];
        let Some(waiter) = flow.waiter.as_mut().filter(|w| !w.wake_queued) else {
            return;
        };
        let mut have = flow.arrived - flow.consumed;
        let mut at = flow.head;
        while at != NO_ARRIVAL {
            let node = self.arrivals[at as usize];
            if have + node.count * node.bytes >= waiter.needed {
                // The packets before the `i`-th leave the need unmet.
                let i = (waiter.needed.saturating_sub(have))
                    .div_ceil(node.bytes)
                    .saturating_sub(1);
                let (time, seq) = node.packet(i);
                waiter.wake_queued = true;
                let event = Event::FlowWake(fidx);
                self.queue.push(QueuedEvent { time, seq, event });
                return;
            }
            have += node.count * node.bytes;
            at = node.next;
        }
    }

    /// A thread's final instruction completes without scheduling another
    /// event, and a packet nobody waits for arrives without one, so the
    /// true makespan is the max over completion stamps, the last event
    /// and the last arrival.
    pub(crate) fn makespan(&self) -> u64 {
        self.threads
            .iter()
            .filter_map(|th| th.finished_at)
            .max()
            .unwrap_or(0)
            .max(self.now)
            .max(self.last_arrival)
    }
}

/// The event loop: the epoch-scoped half of [`Machine`]'s behaviour.
impl Machine {
    fn flow_idx(&mut self, key: FlowKey) -> usize {
        let next = self.epoch.flow_index.len();
        match self.epoch.flow_index.entry(key) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                v.insert(next);
                if next == self.epoch.flows.len() {
                    self.epoch.flows.push(FlowState::default());
                }
                next
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
        let limit = self.config().max_cycles;
        while let Some(q) = self.epoch.queue.pop() {
            self.epoch.now = q.time;
            self.epoch.cur_seq = q.seq;
            if self.epoch.now > limit {
                return Err(SimError::CycleLimit { limit });
            }
            match q.event {
                Event::ThreadReady(t) => self.step_thread(t)?,
                Event::FlowWake(fidx) => self.flow_wake(fidx),
                Event::FlagWrite { tenant, tag, bytes } => self.flag_write(tenant, tag, bytes),
            }
        }
        // A thread's last completion and an arrival nobody waits for
        // queue no event, but past the budget they are past it all the
        // same.
        let makespan = self.epoch.makespan();
        if makespan > limit {
            return Err(SimError::CycleLimit { limit });
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
        Ok(makespan)
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

    /// A program picks both numbers of a transfer. One that runs off the
    /// end of the address space faults before its first burst, so the
    /// burst loops can offset `va` freely.
    fn check_span(core: u32, va: VirtAddr, bytes: u64) -> Result<()> {
        last_byte(va, bytes)
            .map(drop)
            .map_err(|err| SimError::MemFault { core, err })
    }

    /// Streams a DMA transfer: chunked issue, translation stalls, optional
    /// bandwidth limiting, HBM channel contention — by runs of bursts
    /// where the translation allows (see the module docs).
    fn do_dma(&mut self, t: usize, va: VirtAddr, bytes: u64, perm: Perm) -> Result<()> {
        let phys = self.epoch.threads[t].phys_core;
        Self::check_span(phys, va, bytes)?;
        let channel = self.config().interface_of(phys);
        let burst = self.config().dma_burst_bytes.max(1);
        let issue_interval = self.config().dma_issue_interval;
        let limit = self.config().max_cycles;
        let over = || SimError::CycleLimit { limit };
        let mem_trace_enabled = self.mem_trace_enabled;
        let now = self.epoch.now;
        let services = self.services.get_mut(t).expect("every thread has services");
        // A limiter paces, and the trace records, every burst on its own.
        let runs = !mem_trace_enabled && services.limiter.is_none() && !self.epoch.dma_per_burst;
        // Full bursts not yet issued: all a run may book.
        let mut full = bytes / burst;
        let mut issue = now;
        let mut done = now;
        let mut off = 0u64;
        while off < bytes {
            let at = va.offset(off);
            let len = burst.min(bytes - off);
            let tr = services
                .translator
                .translate(at, len, perm)
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
            let (opened_at, waited) = (issue, self.hbm.wait_cycles());
            done = done.max(self.hbm.access(channel, len, issue));
            // A full burst that missed and waited on nothing opens a
            // period that later ones may repeat (see the module docs).
            let opens = runs && !tr.hit && len == burst && self.hbm.wait_cycles() == waited;
            if mem_trace_enabled {
                self.epoch.mem_trace.push((issue, phys, at.value()));
            }
            issue += issue_interval;
            off += len;
            full = full.saturating_sub(1);
            let (k, cycles) = if runs {
                services.translator.translate_run(at, len, full)
            } else {
                (0, 0)
            };
            if k > 0 {
                // Each booked hit is issued `cycles` after the interval
                // that closed the burst before it. `issue` stays within a
                // few intervals of `done`, which is within the budget; a
                // run of hostile length is what may overflow.
                let stride = cycles + issue_interval;
                let last = self.hbm.access_run(channel, len, issue + cycles, stride, k);
                done = done.max(last.ok_or_else(over)?);
                issue = (k.checked_mul(stride))
                    .and_then(|span| issue.checked_add(span))
                    .ok_or_else(over)?;
                off += k * len;
                full -= k;
            }
            let period = 1 + k;
            let m = if opens && full >= period {
                let (next, walk) = (va.offset(off), tr.cycles);
                (services.translator).translate_miss_run(
                    next,
                    len,
                    period,
                    walk,
                    perm,
                    full / period,
                )
            } else {
                0
            };
            if m > 0 {
                // The next period opens where this one drains, and so
                // does each booked one after it.
                let span = (done.max(issue).checked_add(tr.cycles)).ok_or_else(over)? - opened_at;
                let waits = self.hbm.wait_cycles() - waited;
                let shift = (self.hbm)
                    .repeat(channel, m, span, waits, period * len)
                    .ok_or_else(over)?;
                issue = issue.checked_add(shift).ok_or_else(over)?;
                done = done.checked_add(shift).ok_or_else(over)?;
                off += m * period * len;
                full -= m * period;
            }
            if done > limit {
                return Err(over());
            }
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
        let packet_bytes = self.config().packet_bytes.max(1);
        let packet_overhead = self.config().packet_overhead;
        let limit = self.config().max_cycles;
        let over = || SimError::CycleLimit { limit };
        let now = self.epoch.now;
        let engine_busy_until = self.core(phys as usize).send_engine_busy_until;
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
        // A program picks `bytes`, and one send never waits on credit.
        // Each packet departs at least `per_packet + packet_overhead`
        // after the one before, so a send whose last packet cannot land
        // within the budget stops here, and any other at the first packet
        // or train that lands past it — before the arrival arena outgrows
        // memory.
        let spacing = per_packet + packet_overhead;
        let packets = bytes.div_ceil(packet_bytes);
        if packets.saturating_sub(1).saturating_mul(spacing) > limit.saturating_sub(depart) {
            return Err(over());
        }
        // Every hop is checked before a packet is booked; an empty send
        // books none, so it crosses no link.
        if bytes > 0 {
            self.noc.route(path, &mut self.route)?;
        }
        let mut off = 0u64;
        while off < bytes {
            let len = packet_bytes.min(bytes - off);
            let timing = self.noc.send_on(&self.route, len, depart + per_packet);
            let mut next = timing.injected_at + packet_overhead;
            let arrival = timing.arrived_at + packet_overhead;
            if arrival > limit {
                return Err(over());
            }
            off += len;
            // Every full packet after one that waited on no link repeats
            // its timing `stride` later (see the module docs).
            let stride = next - depart;
            let full = (bytes - off) / packet_bytes;
            let train = if full == 0
                || timing.waited
                || self.epoch.send_per_packet
                || self.route.repeats_a_link()
            {
                0
            } else {
                full
            };
            if train > 0 {
                let span = train.checked_mul(stride).ok_or_else(over)?;
                if arrival.checked_add(span).is_none_or(|last| last > limit) {
                    return Err(over());
                }
                self.noc.send_train(&self.route, train, stride);
                next += span;
                off += train * len;
            }
            self.epoch.record_run(fidx, arrival, len, 1 + train, stride);
            depart = next;
        }
        // A receiver already parked here wakes on the packet that
        // completes its need: one of these, if none before them did.
        self.epoch.schedule_wake(fidx);
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
        self.epoch.fold_arrivals(fidx);
        let flow = &mut self.epoch.flows[fidx];
        if flow.arrived - flow.consumed >= bytes {
            flow.consumed += bytes;
            self.release_credit_waiters(fidx);
            let done = self.epoch.now + self.recv_ack;
            self.finish_instr(t, done);
        } else {
            debug_assert!(flow.waiter.is_none(), "one receiver per flow");
            flow.waiter = Some(FlowWaiter {
                thread: t,
                needed: bytes,
                since: self.epoch.now,
                wake_queued: false,
            });
            self.epoch.threads[t].blocked = Some(Blocked::Recv(src, tag, bytes));
            self.epoch.schedule_wake(fidx);
        }
    }

    /// Re-readies every sender parked on `fidx`'s credit, in the order
    /// they blocked.
    fn release_credit_waiters(&mut self, fidx: usize) {
        let mut waiters = std::mem::take(&mut self.epoch.flows[fidx].credit_waiters);
        let now = self.epoch.now;
        for w in waiters.drain(..) {
            self.epoch.push_event(now, Event::ThreadReady(w));
        }
        self.epoch.flows[fidx].credit_waiters = waiters;
    }

    /// What a packet's arrival does when a receiver is parked on its
    /// flow: completes the `Recv` once enough bytes are there.
    fn flow_wake(&mut self, fidx: usize) {
        self.epoch.fold_arrivals(fidx);
        let flow = &mut self.epoch.flows[fidx];
        let Some(waiter) = flow.waiter else {
            return;
        };
        if flow.arrived - flow.consumed < waiter.needed {
            return;
        }
        flow.waiter = None;
        flow.consumed += waiter.needed;
        let now = self.epoch.now;
        let phys = self.epoch.threads[waiter.thread].phys_core as usize;
        self.epoch.traces[phys].push(waiter.since, now, Activity::RecvWait);
        self.release_credit_waiters(fidx);
        let done = now + self.recv_ack;
        self.finish_instr(waiter.thread, done);
    }

    /// Streams `bytes` at `va` through the load/store path, one
    /// translated (and possibly limited) burst at a time, each holding
    /// the channel for its latency-bound UVM occupancy. Returns when the
    /// last burst completes, or [`SimError::CycleLimit`] as soon as one
    /// completes past `max_cycles`, since the instruction ends later
    /// still — a hostile size fails at the budget, not after the loop.
    fn uvm_stream(&mut self, t: usize, va: VirtAddr, bytes: u64, perm: Perm) -> Result<u64> {
        let phys = self.epoch.threads[t].phys_core;
        let channel = self.config().interface_of(phys);
        let burst = self.config().dma_burst_bytes.max(1);
        let (line, mlp) = (self.config().uvm_line_bytes, self.config().uvm_mlp);
        let issue_interval = self.config().dma_issue_interval;
        let limit = self.config().max_cycles;
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
            issue += tr.cycles;
            if let Some(lim) = services.limiter.as_mut() {
                issue += lim.record(issue, len);
            }
            done = done.max(self.hbm.access_uvm(channel, len, issue, line, mlp));
            if done > limit {
                return Err(SimError::CycleLimit { limit });
            }
            issue += issue_interval;
            off += len;
        }
        Ok(done)
    }

    fn do_global_write(&mut self, t: usize, va: VirtAddr, bytes: u64, tag: u32) -> Result<()> {
        // Write the payload + a flag line through the HBM channel, at
        // load/store (cache-line) granularity.
        let tenant = self.epoch.threads[t].tenant;
        let phys = self.epoch.threads[t].phys_core;
        Self::check_span(phys, va, bytes)?;
        let now = self.epoch.now;
        let done = self.uvm_stream(t, va, bytes, Perm::W)?;
        // Flag publication: one extra cache-line write after the data.
        let channel = self.config().interface_of(phys);
        let (line, mlp) = (self.config().uvm_line_bytes, self.config().uvm_mlp);
        let send_setup = self.config().send_setup;
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
        Self::check_span(self.epoch.threads[t].phys_core, va, bytes)?;
        let tenant = self.epoch.threads[t].tenant;
        let consumed = *self.epoch.threads[t].consumed_flags.get(&tag).unwrap_or(&0);
        let available = *self.epoch.flags.get(&(tenant, tag)).unwrap_or(&0);
        if available >= consumed + bytes {
            // Data is published: read it through HBM (contention!).
            self.epoch.threads[t]
                .consumed_flags
                .insert(tag, consumed + bytes);
            let phys = self.epoch.threads[t].phys_core;
            let now = self.epoch.now;
            let done = self.uvm_stream(t, va, bytes, Perm::R)?;
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
        let EpochState {
            flags,
            flag_waiters,
            threads,
            queue,
            seq,
            now,
            ..
        } = &mut self.epoch;
        let published = flags.entry((tenant, tag)).or_insert(0);
        *published += bytes;
        let available = *published;
        flag_waiters.retain(|&(t, wtag, needed, _)| {
            let ready = wtag == tag && threads[t].tenant == tenant && available >= needed;
            if ready {
                *seq += 1;
                queue.push(QueuedEvent {
                    time: *now,
                    seq: *seq,
                    event: Event::ThreadReady(t),
                });
            }
            !ready
        });
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

#[cfg(test)]
impl Machine {
    /// A machine that queues an [`Event::FlowWake`] for every packet it
    /// sends, under the packet's own `(arrival, seq)` — the schedule the
    /// per-packet arrival events used to make, driving the same handler.
    /// The lazy schedule (one wake per parked receiver) must be
    /// indistinguishable from it.
    fn with_eager_arrivals(cfg: crate::SocConfig) -> Machine {
        let mut machine = Machine::new(cfg);
        machine.epoch.wake_per_packet = true;
        machine
    }

    /// A machine that streams every DMA transfer burst by burst — one
    /// `translate` and one `Hbm::access` each, the loop before runs —
    /// the way it still streams one under a limiter or a memory trace.
    fn with_per_burst_dma(cfg: crate::SocConfig) -> Machine {
        let mut machine = Machine::new(cfg);
        machine.epoch.dma_per_burst = true;
        machine
    }

    /// A machine that sends every packet on its own — one
    /// `Noc::send_on` and one arrival node each, the loop before trains.
    fn with_per_packet_sends(cfg: crate::SocConfig) -> Machine {
        let mut machine = Machine::new(cfg);
        machine.epoch.send_per_packet = true;
        machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::CoreServices;
    use crate::noc::{DorRouter, NocRouter};
    use crate::SocConfig;
    use std::cell::Cell;
    use std::sync::{Arc, Mutex};
    use vnpu_mem::counter::AccessCounter;
    use vnpu_mem::page::{PageTable, PageTranslator};
    use vnpu_mem::proptest_lite::{check, range, vec_of};
    use vnpu_mem::rtt::{RangeTranslationTable, RangeTranslator, RttEntry};
    use vnpu_mem::translate::PhysicalTranslator;
    use vnpu_mem::{prop_assert, prop_assert_eq, MemError, PhysAddr, Translate, TranslationCosts};

    /// Everything a report holds, rendered.
    fn fingerprint(report: &Report) -> String {
        let traces: Vec<_> = (0..8)
            .map(|core| report.core_trace(core).unwrap().intervals())
            .collect();
        format!(
            "{} {:?} {traces:?} {} {} {} {:?}",
            report.makespan(),
            report.tenants(),
            report.noc_contention_cycles(),
            report.noc_packets(),
            report.hbm_wait_cycles(),
            report.translator_stats(),
        )
    }

    /// A run's report, or its error with the deadlock text.
    fn outcome(machine: &mut Machine) -> std::result::Result<String, String> {
        match machine.run() {
            Ok(report) => Ok(fingerprint(&report)),
            Err(error) => Err(format!("{error:?}")),
        }
    }

    /// How the 8 cores of the 4×2 mesh split into tenant rings, and the
    /// (scrambled) order rings take their cores in, so that different
    /// tenants' hops share links.
    const RINGS: [&[usize]; 5] = [&[8], &[4, 4], &[3, 5], &[2, 3, 3], &[2, 2, 4]];
    const CORE_ORDER: [u32; 8] = [0, 5, 1, 4, 2, 7, 3, 6];
    /// Bytes of each `Send` a core issues per iteration: whole packets,
    /// ragged tails, sub-packet sends.
    const SENDS: [&[u64]; 6] = [
        &[3000],
        &[2048, 952],
        &[100, 2900],
        &[5000, 1000, 3000],
        &[9000],
        &[700, 700, 700],
    ];

    /// The `Recv`s matching `total` sent bytes: in one piece or split
    /// unevenly; rarely (a ring of eight should usually complete) never,
    /// or one byte more than is ever sent.
    fn recvs(total: u64, split: usize) -> Vec<u64> {
        match split {
            24 => vec![],
            25 => vec![total + 1],
            _ => match split % 4 {
                0 => vec![total],
                1 => vec![total / 3, total - total / 3],
                2 => vec![1, total - 1],
                _ => vec![total - 1, 1],
            },
        }
    }

    /// Binds rings of the given sizes and the per-core `specs` `(delay,
    /// send pattern, recv split, order)`. Returns each ring's tenant and
    /// cores.
    fn bind_rings(
        machine: &mut Machine,
        rings: &[usize],
        iterations: u32,
        specs: &[(u64, usize, usize, usize)],
    ) -> Vec<(TenantId, &'static [u32])> {
        let mut bound = Vec::new();
        let mut next_core = 0;
        for &ring in rings {
            let tenant = machine.add_tenant("ring");
            let cores = &CORE_ORDER[next_core..next_core + ring];
            bound.push((tenant, cores));
            let ring_specs = &specs[next_core..next_core + ring];
            next_core += ring;
            for (i, (&core, &(delay, send, split, order))) in
                cores.iter().zip(ring_specs).enumerate()
            {
                let (to, from) = ((i + 1) % ring, (i + ring - 1) % ring);
                let sends: Vec<Instr> = SENDS[send]
                    .iter()
                    .map(|&bytes| Instr::send(cores[to], bytes, i as u32))
                    .collect();
                let inbound = SENDS[ring_specs[from].1].iter().sum();
                let recvs: Vec<Instr> = recvs(inbound, split)
                    .into_iter()
                    .map(|bytes| Instr::recv(cores[from], bytes, from as u32))
                    .collect();
                let body = match order % 4 {
                    // Receive first: only ring members after the first,
                    // or nobody ever sends.
                    0 if i > 0 => [recvs, sends].concat(),
                    0 | 1 => [sends, recvs].concat(),
                    2 => [sends, vec![Instr::matmul(32, 32, 32)], recvs].concat(),
                    _ => {
                        // Alternate, then whatever is left of the longer.
                        let mut body = Vec::new();
                        for k in 0..sends.len().max(recvs.len()) {
                            body.extend(sends.get(k));
                            body.extend(recvs.get(k));
                        }
                        body
                    }
                };
                let prelude = vec![Instr::Delay {
                    cycles: delay * 1500,
                }];
                machine
                    .bind(
                        core,
                        tenant,
                        core,
                        Program::looped(prelude, body, iterations),
                    )
                    .expect("bind");
            }
        }
        bound
    }

    #[test]
    fn lazy_arrivals_match_a_wake_per_packet() {
        const CREDITS: [u64; 4] = [2048, 8192, 16 * 1024, 64 * 1024];
        const PACKETS: [u64; 3] = [256, 1000, 2048];
        let (completed, deadlocked, waited) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        let globals = (
            range(0usize..RINGS.len()),
            range(0usize..CREDITS.len()),
            range(0usize..PACKETS.len()),
            range(1u32..4),
        );
        let core = (
            range(0u64..4),
            range(0usize..SENDS.len()),
            range(0usize..26),
            range(0usize..4),
        );
        check(
            "lazy_arrivals_match_a_wake_per_packet",
            600,
            (globals, vec_of(core, 8..9)),
            |((layout, credit, packet, iterations), specs)| {
                let cfg = SocConfig {
                    flow_credit_bytes: CREDITS[*credit],
                    packet_bytes: PACKETS[*packet],
                    ..SocConfig::fpga()
                };
                let mut lazy = Machine::new(cfg.clone());
                let mut eager = Machine::with_eager_arrivals(cfg);
                bind_rings(&mut lazy, RINGS[*layout], *iterations, specs);
                bind_rings(&mut eager, RINGS[*layout], *iterations, specs);
                let first = outcome(&mut lazy);
                prop_assert_eq!(first, outcome(&mut eager));
                match &first {
                    Ok(report) => {
                        completed.set(completed.get() + 1);
                        waited.set(waited.get() + u32::from(report.contains("RecvWait")));
                        // The next epoch on the recycled flows and arena
                        // is a first epoch again. Tenants are numbered
                        // on, so the same rings get fresh IDs.
                        lazy.finish_epoch();
                        let mut fresh = Machine::new(lazy.config().clone());
                        for _ in 0..RINGS[*layout].len() {
                            fresh.add_tenant("ring");
                        }
                        bind_rings(&mut lazy, RINGS[*layout], *iterations, specs);
                        bind_rings(&mut fresh, RINGS[*layout], *iterations, specs);
                        prop_assert_eq!(outcome(&mut lazy), outcome(&mut fresh));
                    }
                    Err(error) => {
                        deadlocked.set(deadlocked.get() + u32::from(error.contains("Deadlock")));
                    }
                }
                Ok(())
            },
        );
        assert!(
            completed.get() > 0 && deadlocked.get() > 0 && waited.get() > 0,
            "{completed:?} completed ({waited:?} with a parked receiver), {deadlocked:?} deadlocked"
        );
    }

    /// DOR routing that charges its second field in cycles a packet, as a
    /// vRouter's destination rewrite does.
    struct Muxed(DorRouter, u64);

    impl NocRouter for Muxed {
        fn resolve(&mut self, dst: u32) -> Result<(u32, u64)> {
            self.0.resolve(dst)
        }

        fn path(&mut self, src: u32, dst: u32) -> Result<&[u32]> {
            self.0.path(src, dst)
        }

        fn per_packet_overhead(&self) -> u64 {
            self.1
        }

        fn name(&self) -> String {
            "muxed".to_owned()
        }
    }

    /// Every live flow's `(sent, arrived, consumed)` and its packets in
    /// flight as `(time, seq, bytes)`, runs expanded, in list order.
    fn in_flight(epoch: &EpochState) -> String {
        let live = &epoch.flows[..epoch.flow_index.len()];
        let mut out = String::new();
        for flow in live {
            out += &format!("{}/{}/{}:", flow.sent, flow.arrived, flow.consumed);
            let mut at = flow.head;
            while at != NO_ARRIVAL {
                let node = epoch.arrivals[at as usize];
                for i in 0..node.count {
                    out += &format!(" {:?}", (node.packet(i), node.bytes));
                }
                at = node.next;
            }
            out += "\n";
        }
        out
    }

    #[test]
    fn send_trains_match_the_per_packet_reference() {
        // Rings of one core send to themselves.
        const LAYOUTS: [&[usize]; 5] = [&[8], &[1, 3, 4], &[2, 1, 5], &[4, 4], &[1, 1, 2, 4]];
        const CREDITS: [u64; 3] = [2048, 16 * 1024, 64 * 1024];
        const PACKETS: [u64; 3] = [256, 1000, 2048];
        // (packet_overhead, per-packet router cycles): the first two make
        // a train's stride its serialization time.
        const OVERHEADS: [(u64, u64); 4] = [(13, 0), (0, 0), (13, 1), (0, 3)];
        const BUDGETS: [u64; 4] = [u64::MAX, 30_000, 12_000, 5_000];
        const TWIN_BYTES: [u64; 4] = [2048, 6144, 9000, 700];
        let count = |c: &Cell<u32>, yes: bool| c.set(c.get() + u32::from(yes));
        let [completed, deadlocked, limited, mid_train, twinned] = [(); 5].map(|()| Cell::new(0));
        // Arena nodes the trains saved: a node holds several packets only
        // when a train was booked.
        let saved = Cell::new(0usize);
        let globals = (
            (range(0usize..LAYOUTS.len()), range(0usize..CREDITS.len())),
            (range(0usize..PACKETS.len()), range(0usize..OVERHEADS.len())),
            (range(0usize..BUDGETS.len()), range(1u32..4)),
            // Flags (wake per packet, degraded routers, a twin sender),
            // then the twin's send and delay.
            (range(0usize..8), range(0..TWIN_BYTES.len()), range(0..6000)),
        );
        let core = (
            range(0u64..4),
            range(0usize..SENDS.len()),
            range(0usize..26),
            range(0usize..4),
        );
        check(
            "send_trains_match_the_per_packet_reference",
            512,
            (globals, vec_of(core, 8..9)),
            |(((layout, credit), (packet, overhead), (budget, iterations), twin), specs)| {
                let (flags, twin_bytes, twin_delay) = *twin;
                let (packet_overhead, per_packet) = OVERHEADS[*overhead];
                let cfg = SocConfig {
                    flow_credit_bytes: CREDITS[*credit],
                    packet_bytes: PACKETS[*packet],
                    packet_overhead,
                    max_cycles: BUDGETS[*budget],
                    ..SocConfig::fpga()
                };
                // Trains and the per-packet reference under one wake
                // schedule, then the reference under a wake per packet: it
                // shares no run arithmetic with the trains.
                let mut sides = Vec::new();
                for (per_packet_sends, wake_per_packet) in [
                    (false, flags & 1 == 1),
                    (true, flags & 1 == 1),
                    (true, true),
                ] {
                    let mut machine = Machine::new(cfg.clone());
                    machine.epoch.send_per_packet = per_packet_sends;
                    machine.epoch.wake_per_packet = wake_per_packet;
                    if flags & 2 == 2 {
                        machine.noc.set_degraded_penalty(4);
                    }
                    let rings = bind_rings(&mut machine, LAYOUTS[*layout], *iterations, specs);
                    if flags & 4 == 4 {
                        // A second thread under the first ring's first core
                        // ID, on the mirrored core: its packets take another
                        // path into the same flow and may overtake a run.
                        let (tenant, cores) = rings[0];
                        let send = Instr::send(cores[1 % cores.len()], TWIN_BYTES[twin_bytes], 0);
                        let delay = vec![Instr::Delay { cycles: twin_delay }];
                        let program = Program::looped(delay, vec![send], *iterations);
                        machine
                            .bind(7 - cores[0], tenant, cores[0], program)
                            .unwrap();
                    }
                    for (thread, services) in machine.services.iter_mut().enumerate() {
                        let muxed = Muxed(DorRouter::new(&cfg), per_packet + thread as u64 % 2);
                        services.router = Box::new(muxed);
                    }
                    let outcome = outcome(&mut machine);
                    let state = format!("{:?} {}", machine.noc, in_flight(&machine.epoch));
                    sides.push((
                        outcome,
                        state,
                        machine.epoch.seq,
                        machine.epoch.arrivals.len(),
                    ));
                }
                let (eager, reference, trains) = (&sides[2], &sides[1], &sides[0]);
                prop_assert_eq!(&trains.0, &eager.0);
                prop_assert_eq!(&trains.0, &reference.0);
                let limit = matches!(&trains.0, Err(error) if error.contains("CycleLimit"));
                if !limit {
                    prop_assert_eq!(&trains.1, &reference.1, "links and packets in flight");
                    prop_assert_eq!(trains.2, reference.2, "sequence numbers drawn");
                }
                prop_assert!(trains.3 <= reference.3, "{} nodes", trains.3);
                saved.set(saved.get() + reference.3 - trains.3);
                count(&completed, trains.0.is_ok());
                count(&deadlocked, trains.0.is_err() && !limit);
                count(&limited, limit);
                count(&mid_train, limit && trains.2 < reference.2);
                count(&twinned, trains.0.is_ok() && flags & 4 == 4);
                Ok(())
            },
        );
        assert!(
            saved.get() > 0
                && [&completed, &deadlocked, &limited, &mid_train, &twinned]
                    .iter()
                    .all(|c| c.get() > 0),
            "{saved:?} arena nodes saved; {completed:?} completed ({twinned:?} with a twin), \
             {deadlocked:?} deadlocked, {limited:?} out of budget ({mid_train:?} mid-train)"
        );
    }

    #[test]
    fn event_queue_pops_in_heap_order() {
        // (kind, delay, how far back a reused sequence number reaches):
        // four kinds in six push, one in three of those under an older
        // sequence number, as a wake does under its packet's.
        let op = (range(0u32..6), range(0u64..40), range(1u64..30));
        let [from_slot, swapped, reused] = [(); 3].map(|()| Cell::new(0u32));
        let count = |c: &Cell<u32>| c.set(c.get() + 1);
        check(
            "event_queue_pops_in_heap_order",
            512,
            vec_of(op, 1..300),
            |ops| {
                let (mut queue, mut heap) = (EventQueue::default(), BinaryHeap::new());
                let (mut seq, popped, mut keys) = (0u64, Cell::new((0u64, 0u64)), Vec::new());
                let pop = |queue: &mut EventQueue, heap: &mut BinaryHeap<QueuedEvent>| {
                    let last = queue.last.as_ref().map(|e| (e.time, e.seq));
                    let event = queue.pop();
                    prop_assert_eq!(&event, &heap.pop());
                    let Some(event) = event else {
                        return Ok(false);
                    };
                    popped.set((event.time, event.seq));
                    match last {
                        Some(key) if key == popped.get() => count(&from_slot),
                        Some(_) => count(&swapped),
                        None => {}
                    }
                    Ok(true)
                };
                for &(kind, delay, back) in ops {
                    if kind >= 4 {
                        pop(&mut queue, &mut heap)?;
                        continue;
                    }
                    // Never earlier than the last pop: a fresh number is
                    // the largest yet, a reused one comes a cycle later.
                    let (key, event) = if kind == 3 && seq > back {
                        let key = (popped.get().0 + delay.max(1), seq - back);
                        (key, Event::FlowWake(back as usize))
                    } else {
                        seq += 1;
                        (
                            (popped.get().0 + delay, seq),
                            Event::ThreadReady(kind as usize),
                        )
                    };
                    if keys.contains(&key) {
                        continue;
                    }
                    keys.push(key);
                    if kind == 3 && key.1 < seq {
                        count(&reused);
                    }
                    let (time, seq) = key;
                    queue.push(QueuedEvent { time, seq, event });
                    heap.push(QueuedEvent { time, seq, event });
                }
                while pop(&mut queue, &mut heap)? {}
                Ok(())
            },
        );
        assert!(
            [&from_slot, &swapped, &reused].iter().all(|c| c.get() > 0),
            "{from_slot:?} pops from the slot, {swapped:?} swapped with the heap top, \
             {reused:?} pushes under an older sequence number"
        );
    }

    /// Runs the same bindings lazily and eagerly, asserting one outcome.
    fn both(cfg: &SocConfig, bind: impl Fn(&mut Machine)) -> Result<Report> {
        let mut lazy = Machine::new(cfg.clone());
        let mut eager = Machine::with_eager_arrivals(cfg.clone());
        bind(&mut lazy);
        bind(&mut eager);
        let result = lazy.run();
        assert_eq!(
            result.as_ref().map(fingerprint),
            eager.run().as_ref().map(fingerprint)
        );
        result
    }

    #[test]
    fn fold_takes_exactly_the_arrivals_ordered_before_the_current_event() {
        let mut epoch = EpochState::new(1);
        epoch.flows.push(FlowState::default());
        epoch.seq = 4;
        epoch.record_run(0, 100, 7, 1, 0); // (100, 5)
        epoch.record_run(0, 100, 11, 1, 0); // (100, 6)
        epoch.record_run(0, 130, 13, 1, 0); // (130, 7)
        let arrived_by = |epoch: &mut EpochState, now, seq| {
            (epoch.now, epoch.cur_seq) = (now, seq);
            epoch.fold_arrivals(0);
            epoch.flows[0].arrived
        };
        assert_eq!(arrived_by(&mut epoch, 99, 900), 0);
        // Same cycle: the sequence number decides.
        assert_eq!(arrived_by(&mut epoch, 100, 4), 0);
        assert_eq!(arrived_by(&mut epoch, 100, 5), 7);
        assert_eq!(arrived_by(&mut epoch, 100, 8), 18);
        assert_eq!(arrived_by(&mut epoch, 130, 6), 18);
        assert_eq!(arrived_by(&mut epoch, 131, 0), 31);
        // Folded nodes are reused before the arena grows, and a packet
        // that overtakes one in flight is filed ahead of it.
        epoch.record_run(0, 140, 1, 1, 0);
        epoch.record_run(0, 135, 2, 1, 0);
        assert_eq!(epoch.arrivals.len(), 3);
        assert_eq!(epoch.makespan(), 140);
        assert_eq!(arrived_by(&mut epoch, 135, 99), 33);
        // A run of four 5-byte packets at (200, 10), (210, 11), (220, 12),
        // (230, 13) folds a packet at a time, by time and then by seq; a
        // packet landing inside it splits it.
        epoch.record_run(0, 200, 5, 4, 10);
        assert_eq!(epoch.makespan(), 230);
        assert_eq!(arrived_by(&mut epoch, 150, 99), 34);
        assert_eq!(arrived_by(&mut epoch, 200, 9), 34);
        assert_eq!(arrived_by(&mut epoch, 210, 10), 39);
        assert_eq!(arrived_by(&mut epoch, 210, 11), 44);
        epoch.record_run(0, 220, 100, 1, 0); // (220, 14), behind (220, 12)
        assert_eq!(arrived_by(&mut epoch, 220, 13), 49);
        assert_eq!(arrived_by(&mut epoch, 220, 14), 149);
        assert_eq!(arrived_by(&mut epoch, 225, 0), 149);
        assert_eq!(arrived_by(&mut epoch, 230, 13), 154);
        // Eight packets on one cycle: the sequence number alone decides.
        epoch.record_run(0, 300, 1, 8, 0); // seq 15..=22
        assert_eq!(arrived_by(&mut epoch, 300, 17), 157);
        assert_eq!(arrived_by(&mut epoch, 301, 0), 162);
        assert_eq!(epoch.flows[0].head, NO_ARRIVAL);
    }

    #[test]
    fn unreceived_packet_still_sets_the_makespan() {
        let report = both(&SocConfig::fpga(), |m| {
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::once(vec![Instr::send(1, 4096, 0)]))
                .unwrap();
        })
        .unwrap();
        // The thread is done once the engine is programmed (dispatch 10 +
        // setup 27); the epoch lasts until its second packet lands.
        assert_eq!(report.tenant(0).unwrap().end, 37);
        assert_eq!(report.makespan(), 37 + 2 * (128 + 13) + 3);
    }

    #[test]
    fn arrival_past_the_cycle_limit_is_a_cycle_limit_not_a_deadlock() {
        // Every thread event happens by cycle 37; only the packet — which
        // nobody receives, landing at 322 — outlives the budget. The
        // parked receiver of another flow makes it a deadlock otherwise.
        let run = |max_cycles| {
            let cfg = SocConfig {
                max_cycles,
                ..SocConfig::fpga()
            };
            both(&cfg, |m| {
                let t = m.add_tenant("t");
                m.bind(0, t, 0, Program::once(vec![Instr::send(1, 4096, 0)]))
                    .unwrap();
                m.bind(2, t, 2, Program::once(vec![Instr::recv(3, 64, 0)]))
                    .unwrap();
            })
            .unwrap_err()
        };
        assert_eq!(run(321), SimError::CycleLimit { limit: 321 });
        assert!(matches!(run(322), SimError::Deadlock { .. }));
    }

    #[test]
    fn same_cycle_arrivals_wake_their_receivers_in_seq_order() {
        // Two one-hop flows, 1 → 2 (tenant 0) and 4 → 5 (tenant 1), from
        // cores one dispatch hop from the controller: both senders start
        // on one cycle, in binding order, and their single packets land
        // on one cycle. Both receivers share core 3's compute unit, so
        // the one woken first — the one whose packet drew the lower
        // sequence number, i.e. whose sender was bound first — computes
        // first and finishes first.
        let run = |swap: bool| {
            both(&SocConfig::fpga(), |m| {
                let tenants = [m.add_tenant("a"), m.add_tenant("b")];
                let mut flows = [(tenants[0], 1, 2), (tenants[1], 4, 5)];
                if swap {
                    flows.reverse();
                }
                for (tenant, src, dst) in flows {
                    m.bind(
                        src,
                        tenant,
                        src,
                        Program::once(vec![Instr::send(dst, 2048, 0)]),
                    )
                    .unwrap();
                }
                for (tenant, src, dst) in flows {
                    let body = vec![Instr::recv(src, 2048, 0), Instr::matmul(64, 64, 64)];
                    m.bind(3, tenant, dst, Program::once(body)).unwrap();
                }
            })
            .unwrap()
        };
        for swap in [false, true] {
            let report = run(swap);
            let waits: Vec<u64> = report
                .core_trace(3)
                .unwrap()
                .intervals()
                .iter()
                .filter(|(_, _, what)| *what == Activity::RecvWait)
                .map(|&(_, end, _)| end)
                .collect();
            assert_eq!(waits.len(), 2);
            assert_eq!(waits[0], waits[1], "both packets land together");
            let (a, b) = (report.tenant(0).unwrap().end, report.tenant(1).unwrap().end);
            assert_eq!(b < a, swap, "a ends at {a}, b at {b}");
        }
    }

    #[test]
    fn two_senders_on_one_flow_may_overtake_each_other() {
        // Two threads bound under one program-level core ID stream the
        // same flow over different paths, so a later packet can land
        // before an earlier one; the receiver still wakes on the arrival
        // that completes its need.
        for delay in (0..=900).step_by(75) {
            for split in [&[8192u64][..], &[100, 8092], &[5000, 3192], &[8191, 1]] {
                both(&SocConfig::fpga(), |m| {
                    let t = m.add_tenant("t");
                    m.bind(3, t, 0, Program::once(vec![Instr::send(1, 6144, 0)]))
                        .unwrap();
                    let prelude = vec![Instr::Delay { cycles: delay }];
                    let body = vec![Instr::send(1, 2048, 0)];
                    m.bind(0, t, 0, Program::looped(prelude, body, 1)).unwrap();
                    let recvs = split.iter().map(|&b| Instr::recv(0, b, 0)).collect();
                    m.bind(1, t, 1, Program::once(recvs)).unwrap();
                })
                .expect("the flow completes");
            }
        }
    }

    #[test]
    fn transfer_off_the_end_of_the_address_space_is_a_fault() {
        let va = VirtAddr(u64::MAX - 10);
        let hostile = [
            Instr::DmaLoad { va, bytes: 4096 },
            Instr::DmaStore { va, bytes: 64 },
            Instr::GlobalWrite {
                va,
                bytes: 64,
                tag: 0,
            },
            Instr::GlobalRead {
                va,
                bytes: 64,
                tag: 0,
            },
        ];
        for instr in hostile {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("guest");
            m.bind(5, t, 0, Program::once(vec![instr])).unwrap();
            let bytes = if matches!(instr, Instr::DmaLoad { .. }) {
                4096
            } else {
                64
            };
            assert_eq!(
                m.run().unwrap_err(),
                SimError::MemFault {
                    core: 5,
                    err: MemError::RangeOverrun { va, len: bytes },
                },
                "{instr:?}"
            );
        }
        // Up to the last byte is an ordinary transfer.
        let mut m = Machine::new(SocConfig::fpga());
        let t = m.add_tenant("guest");
        let last = Instr::DmaLoad { va, bytes: 11 };
        m.bind(5, t, 0, Program::once(vec![last])).unwrap();
        assert!(m.run().is_ok());
    }

    #[test]
    fn reset_recycles_flows_with_their_buffers() {
        let cfg = SocConfig {
            flow_credit_bytes: 2048,
            ..SocConfig::fpga()
        };
        let mut m = Machine::new(cfg);
        let t = m.add_tenant("t");
        let bind = |m: &mut Machine| {
            // The second send parks on credit until the first is consumed.
            let sends = vec![Instr::send(1, 2048, 0), Instr::send(1, 2048, 0)];
            let recvs = vec![Instr::recv(0, 2048, 0), Instr::recv(0, 2048, 0)];
            m.bind(0, t, 0, Program::once(sends)).unwrap();
            m.bind(1, t, 1, Program::once(recvs)).unwrap();
        };
        bind(&mut m);
        let first = m.run_epoch_makespan().unwrap();
        assert!(m.epoch.flow_index.is_empty());
        assert_eq!(m.epoch.flows.len(), 1, "the slot is kept");
        let flow = &m.epoch.flows[0];
        assert_eq!((flow.sent, flow.arrived, flow.consumed), (0, 0, 0));
        assert!(flow.waiter.is_none() && flow.head == NO_ARRIVAL);
        assert!(flow.credit_waiters.capacity() > 0, "and so is its buffer");
        let arena = m.epoch.arrivals.capacity();
        bind(&mut m);
        assert_eq!(m.run_epoch_makespan().unwrap(), first);
        assert_eq!(m.epoch.flows.len(), 1);
        assert_eq!(m.epoch.arrivals.capacity(), arena);
    }

    #[test]
    fn a_last_instruction_ending_past_the_cycle_limit_is_a_cycle_limit() {
        // A thread's final instruction queues no event, so only the
        // check after the loop sees where it ends.
        let run = |instr: Instr, max_cycles| {
            let mut m = Machine::new(SocConfig {
                max_cycles,
                ..SocConfig::fpga()
            });
            let t = m.add_tenant("t");
            m.bind(0, t, 0, Program::once(vec![instr])).unwrap();
            m.run().map(|report| report.makespan())
        };
        let last = [
            Instr::DmaLoad {
                va: VirtAddr(0),
                bytes: 1 << 20,
            },
            Instr::matmul(512, 512, 512),
            Instr::Delay { cycles: 200_000 },
        ];
        for instr in last {
            let makespan = run(instr, u64::MAX).unwrap();
            assert!(makespan > 100_000, "{instr:?} ends at {makespan}");
            assert_eq!(run(instr, makespan), Ok(makespan));
            assert_eq!(
                run(instr, makespan - 1),
                Err(SimError::CycleLimit {
                    limit: makespan - 1
                }),
                "{instr:?}"
            );
        }
        // The transfer that used to end at 2 147 483 698 and return `Ok`.
        let huge = Instr::DmaLoad {
            va: VirtAddr(0),
            bytes: 1 << 34,
        };
        let limit = SocConfig::fpga().max_cycles;
        assert_eq!(run(huge, limit), Err(SimError::CycleLimit { limit }));
    }

    #[test]
    fn hostile_transfer_sizes_stop_at_the_cycle_limit() {
        // 2^50 bytes on an untranslated core: half a billion bursts or
        // packets of 2 KiB. A DMA is one run; a load/store stream stops
        // once a burst completes past the budget, and a send before its
        // first packet, since its last cannot land within it.
        let bytes = 1 << 50;
        let va = VirtAddr(0);
        let hostile = [
            Instr::DmaLoad { va, bytes },
            Instr::DmaStore { va, bytes },
            Instr::GlobalWrite { va, bytes, tag: 0 },
            Instr::GlobalRead { va, bytes, tag: 0 },
            Instr::send(1, bytes, 0),
        ];
        let limit = SocConfig::fpga().max_cycles;
        for instr in hostile {
            let mut m = Machine::new(SocConfig::fpga());
            let t = m.add_tenant("guest");
            m.bind(5, t, 0, Program::once(vec![instr])).unwrap();
            // The reader finds its data published.
            m.epoch.flags.insert((t, 0), bytes);
            assert_eq!(
                m.run().unwrap_err(),
                SimError::CycleLimit { limit },
                "{instr:?}"
            );
        }
        // A send whose packets could all land in the budget at their
        // closest spacing stops at the first that lands past it: 1 MiB is
        // 512 packets, 141 cycles apart on this hop. Sent one by one, 70
        // are recorded first; as a train behind the first, none is.
        let limit = 10_000;
        let cfg = SocConfig {
            max_cycles: limit,
            ..SocConfig::fpga()
        };
        for (mut m, recorded) in [
            (Machine::with_per_packet_sends(cfg.clone()), 70),
            (Machine::new(cfg), 0),
        ] {
            let t = m.add_tenant("guest");
            m.bind(5, t, 0, Program::once(vec![Instr::send(1, 1 << 20, 0)]))
                .unwrap();
            assert_eq!(m.run().unwrap_err(), SimError::CycleLimit { limit });
            assert_eq!(m.epoch.arrivals.len(), recorded, "packets recorded");
        }
    }

    /// A translator the test keeps a handle on, so that its whole state
    /// — TLB contents, LRU ticks, `last_v` hints — can be read after the
    /// machine has run, with the bursts it booked as runs.
    trait Inspect: Translate + std::fmt::Debug + Send {}
    impl<T: Translate + std::fmt::Debug + Send> Inspect for T {}

    /// The translator, with the bursts it booked as hit runs and the
    /// periods it booked as miss runs.
    type Tallied = (Box<dyn Inspect>, u64, u64);

    #[derive(Clone)]
    struct Shared(Arc<Mutex<Tallied>>);

    impl Shared {
        fn new(translator: impl Inspect + 'static) -> Shared {
            let translator: Box<dyn Inspect> = Box::new(translator);
            Shared(Arc::new(Mutex::new((translator, 0, 0))))
        }

        fn state(&self) -> String {
            format!("{:?}", self.0.lock().unwrap().0)
        }

        fn booked(&self) -> (u64, u64) {
            let inner = self.0.lock().unwrap();
            (inner.1, inner.2)
        }
    }

    impl Translate for Shared {
        fn translate(
            &mut self,
            va: VirtAddr,
            len: u64,
            perm: Perm,
        ) -> vnpu_mem::Result<vnpu_mem::Translation> {
            self.0.lock().unwrap().0.translate(va, len, perm)
        }

        fn translate_run(&mut self, va: VirtAddr, len: u64, max: u64) -> (u64, u64) {
            let mut inner = self.0.lock().unwrap();
            let run = inner.0.translate_run(va, len, max);
            inner.1 += run.0;
            run
        }

        fn translate_miss_run(
            &mut self,
            va: VirtAddr,
            len: u64,
            period: u64,
            cycles: u64,
            perm: Perm,
            max: u64,
        ) -> u64 {
            let mut inner = self.0.lock().unwrap();
            let m = inner
                .0
                .translate_miss_run(va, len, period, cycles, perm, max);
            inner.2 += m;
            m
        }

        fn name(&self) -> String {
            self.0.lock().unwrap().0.name()
        }

        fn stats(&self) -> vnpu_mem::TranslateStats {
            self.0.lock().unwrap().0.stats()
        }

        fn reset_stats(&mut self) {
            self.0.lock().unwrap().0.reset_stats();
        }
    }

    /// Guest window every transfer of the DMA campaign stays in (or, when
    /// it means to fault, runs out of).
    const WINDOW: (u64, u64) = (0x10_0000, 64 * 1024);
    /// VA-contiguous ranges covering the window, sized so that no burst
    /// size divides them: bursts straddle every seam.
    const RANGES: [u64; 8] = [6144, 10752, 3136, 13312, 8192, 7616, 9000, 7384];
    /// Burst sizes: dividing the 4 KiB page, not dividing it, larger.
    const BURSTS: [u64; 9] = [2048, 1536, 3000, 4096, 64, 5000, 1000, 1024, 512];
    /// Cores of the campaign's threads: the first three share channel 0.
    const DMA_CORES: [u32; 4] = [0, 1, 4, 2];

    /// The campaign's translator `mode` (physical, range TLB 1 / 4, page
    /// TLB 4 / 32) over `table`: 0 maps the window as one RW range, 1 as
    /// [`RANGES`] with scattered frames, 2 like 1 with one read-only
    /// range (16 KiB run of pages) and nothing past the last-but-one.
    fn dma_translator(mode: usize, table: usize) -> Shared {
        let (base, window) = WINDOW;
        let costs = TranslationCosts::default();
        match mode {
            0 => Shared::new(PhysicalTranslator::new()),
            1 | 2 => {
                let sizes: &[u64] = match table {
                    0 => &[window],
                    1 => &RANGES,
                    _ => &RANGES[..7],
                };
                let mut va = base;
                let mut entries = Vec::new();
                for (i, &size) in sizes.iter().enumerate() {
                    let perm = if table == 2 && i == 3 {
                        Perm::R
                    } else {
                        Perm::RW
                    };
                    let pa = PhysAddr(0x100_0000 + (7 - i as u64) * 0x4000);
                    entries.push(RttEntry::new(VirtAddr(va), pa, size, perm));
                    va += size;
                }
                let rtt = RangeTranslationTable::new(entries).unwrap();
                Shared::new(RangeTranslator::new(rtt, [1, 4][mode - 1], costs))
            }
            _ => {
                let mut pages = PageTable::new(4096);
                let runs = if table == 0 { 1 } else { 4 - table as u64 / 2 };
                let run_bytes = window / [1, 4][usize::from(table > 0)];
                for i in 0..runs {
                    let perm = if table == 2 && i == 2 {
                        Perm::R
                    } else {
                        Perm::RW
                    };
                    let va = VirtAddr(base + i * run_bytes);
                    let pa = PhysAddr(0x100_0000 + (3 - i) * run_bytes);
                    pages.map_range(va, pa, run_bytes, perm).unwrap();
                }
                Shared::new(PageTranslator::new(pages, [4, 32][mode - 3], costs))
            }
        }
    }

    #[test]
    fn dma_runs_match_the_per_burst_reference() {
        let (base, window) = WINDOW;
        // Per mode: bursts booked as hit runs, pages booked as miss runs.
        let booked = Cell::new([(0u64, 0u64); 5]);
        let (completed, faulted, limited, traced) = (
            Cell::new(0u32),
            Cell::new(0u32),
            Cell::new(0u32),
            Cell::new(0u32),
        );
        let globals = (
            range(0usize..5),
            range(0usize..3),
            range(0usize..BURSTS.len()),
            range(0usize..8),
        );
        // (offset in 64 B steps, bytes, kind): loads, stores, a load
        // that may run out of the window, a delay. One offset in four is
        // snapped to its page, where a miss run opens on a page start.
        let op = (range(0u64..1024), range(1u64..30_000), range(0usize..8));
        check(
            "dma_runs_match_the_per_burst_reference",
            256,
            (globals, vec_of(vec_of(op, 1..6), 1..5)),
            |((mode, table, burst, flags), threads)| {
                // A 300-cycle issue interval outlasts the service of most
                // burst sizes, so queued bursts catch up with the stride.
                let cfg = SocConfig {
                    dma_burst_bytes: BURSTS[*burst],
                    dma_issue_interval: if flags & 4 == 4 { 300 } else { 4 },
                    ..SocConfig::fpga()
                };
                let (limiter, trace) = (flags & 1 == 1, flags & 2 == 2);
                let mut sides = Vec::new();
                for mut machine in [
                    Machine::new(cfg.clone()),
                    Machine::with_per_burst_dma(cfg.clone()),
                ] {
                    if trace {
                        machine.enable_mem_trace();
                    }
                    let tenant = machine.add_tenant("dma");
                    let mut handles = Vec::new();
                    for (i, ops) in threads.iter().enumerate() {
                        let program = ops
                            .iter()
                            .map(|&(step, bytes, kind)| {
                                let offset = match step % 4 {
                                    0 => step * 64 / 4096 * 4096,
                                    _ => step * 64,
                                };
                                let va = VirtAddr(base + offset);
                                let inside = bytes.min(window - offset);
                                match kind {
                                    0..=2 => Instr::DmaLoad { va, bytes: inside },
                                    3..=5 => Instr::DmaStore { va, bytes: inside },
                                    6 => Instr::DmaLoad { va, bytes },
                                    _ => Instr::Delay { cycles: bytes },
                                }
                            })
                            .collect();
                        let handle = dma_translator(*mode, *table);
                        let services = CoreServices {
                            router: Box::new(DorRouter::new(&cfg)),
                            translator: Box::new(handle.clone()),
                            limiter: limiter.then(|| AccessCounter::new(1000, Some(4096))),
                        };
                        let core = DMA_CORES[i];
                        machine
                            .bind_with(core, tenant, i as u32, Program::once(program), services)
                            .unwrap();
                        handles.push(handle);
                    }
                    let outcome = match machine.run() {
                        Ok(report) => {
                            Ok(format!("{} {:?}", fingerprint(&report), report.mem_trace()))
                        }
                        Err(error) => Err(format!("{error:?}")),
                    };
                    let states: Vec<String> = handles.iter().map(Shared::state).collect();
                    let runs = handles
                        .iter()
                        .map(Shared::booked)
                        .fold((0, 0), |sum, b| (sum.0 + b.0, sum.1 + b.1));
                    sides.push((outcome, format!("{:?}", machine.hbm), states, runs));
                }
                let (reference, by_runs) = (sides.pop().unwrap(), sides.pop().unwrap());
                prop_assert_eq!(reference.3, (0, 0));
                prop_assert_eq!(&by_runs.0, &reference.0);
                prop_assert_eq!(&by_runs.1, &reference.1, "channels");
                prop_assert_eq!(&by_runs.2, &reference.2, "translators");
                let mut tally = booked.get();
                tally[*mode].0 += by_runs.3 .0;
                tally[*mode].1 += by_runs.3 .1;
                booked.set(tally);
                let ok = by_runs.0.is_ok();
                let outcome = if ok { &completed } else { &faulted };
                outcome.set(outcome.get() + 1);
                limited.set(limited.get() + u32::from(ok && limiter));
                traced.set(traced.get() + u32::from(ok && trace));
                Ok(())
            },
        );
        let booked = booked.get();
        assert!(
            booked.iter().all(|&(hits, _)| hits > 0)
                && booked[3..].iter().all(|&(_, pages)| pages > 0)
                && [&completed, &faulted, &limited, &traced]
                    .iter()
                    .all(|c| c.get() > 0),
            "(bursts, pages) booked as hit / miss runs per mode {booked:?}; \
             {completed:?} completed ({limited:?} limited, {traced:?} traced), \
             {faulted:?} faulted"
        );
    }
}
