//! Simulation reports: makespans, warm-up times, per-core activity traces
//! (the Figure 18 core trace), contention counters and memory traces
//! (Figure 6).

use crate::config::SocConfig;
use std::collections::HashMap;
use vnpu_mem::TranslateStats;

/// What a core was doing during a trace interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activity {
    /// Systolic-array / vector-unit busy.
    Compute,
    /// Send engine streaming packets (or UVM publish).
    Send,
    /// Blocked waiting for inbound data (receive wait / UVM read).
    RecvWait,
    /// DMA engine streaming to/from global memory.
    Dma,
}

/// The most intervals a bound program reserves room for on its core's
/// trace (1.5 MiB): a longer one grows its trace by doubling.
const TRACE_RESERVE_CAP: u64 = 1 << 16;

/// Activity intervals of one physical core.
#[derive(Debug, Clone, Default)]
pub struct CoreTrace {
    intervals: Vec<(u64, u64, Activity)>,
}

impl CoreTrace {
    /// Appends an interval (no-op when empty).
    pub fn push(&mut self, start: u64, end: u64, what: Activity) {
        if end > start {
            self.intervals.push((start, end, what));
        }
    }

    /// Forgets every interval, keeping the buffer for the next epoch.
    pub(crate) fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Makes room for `intervals` more, up to [`TRACE_RESERVE_CAP`].
    pub(crate) fn reserve(&mut self, intervals: u64) {
        let room = intervals.min(TRACE_RESERVE_CAP) as usize;
        self.intervals.reserve(room);
    }

    /// All recorded intervals in insertion order.
    pub fn intervals(&self) -> &[(u64, u64, Activity)] {
        &self.intervals
    }

    /// Total cycles spent in `what`.
    pub fn cycles_in(&self, what: Activity) -> u64 {
        self.intervals
            .iter()
            .filter(|(_, _, a)| *a == what)
            .map(|(s, e, _)| e - s)
            .sum()
    }
}

/// Aggregate statistics of one tenant (virtual NPU instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant name as registered.
    pub name: String,
    /// Cycle at which the slowest thread finished its prelude — the
    /// warm-up time of §6.3.4.
    pub warmup_end: u64,
    /// Cycle at which the first thread entered its body loop.
    pub body_start: u64,
    /// Cycle at which the last thread finished.
    pub end: u64,
    /// Body iterations (max across threads).
    pub iterations: u32,
    /// Number of bound threads (virtual cores).
    pub threads: u32,
    /// Total compute-busy cycles across threads.
    pub compute_cycles: u64,
    /// Total MACs executed.
    pub macs: u64,
}

impl TenantStats {
    /// Steady-state cycles spent in the body loop.
    pub fn body_cycles(&self) -> u64 {
        self.end.saturating_sub(self.body_start.min(self.end))
    }
}

/// The full result of a [`crate::machine::Machine::run`].
#[derive(Debug, Clone)]
pub struct Report {
    cfg: SocConfig,
    makespan: u64,
    tenants: HashMap<u32, TenantStats>,
    traces: Vec<CoreTrace>,
    noc_contention: u64,
    noc_packets: u64,
    hbm_wait: u64,
    translator_stats: Vec<(u32, TranslateStats)>,
    mem_trace: Vec<(u64, u32, u64)>,
}

impl Report {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: SocConfig,
        makespan: u64,
        tenants: HashMap<u32, TenantStats>,
        traces: Vec<CoreTrace>,
        noc_contention: u64,
        noc_packets: u64,
        hbm_wait: u64,
        translator_stats: Vec<(u32, TranslateStats)>,
        mem_trace: Vec<(u64, u32, u64)>,
    ) -> Self {
        Report {
            cfg,
            makespan,
            tenants,
            traces,
            noc_contention,
            noc_packets,
            hbm_wait,
            translator_stats,
            mem_trace,
        }
    }

    /// Final simulation time in cycles.
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Statistics of one tenant.
    pub fn tenant(&self, id: u32) -> Option<&TenantStats> {
        self.tenants.get(&id)
    }

    /// All tenants, sorted by ID for deterministic iteration.
    pub fn tenants(&self) -> Vec<(u32, &TenantStats)> {
        let mut v: Vec<_> = self.tenants.iter().map(|(&k, s)| (k, s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Inference throughput (iterations/second) of a tenant, excluding
    /// warm-up.
    pub fn fps(&self, tenant: u32) -> f64 {
        let Some(t) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        let cycles = t.body_cycles();
        if cycles == 0 || t.iterations == 0 {
            return 0.0;
        }
        f64::from(t.iterations) * self.cfg.freq_hz as f64 / cycles as f64
    }

    /// Steady-state body cycles per iteration for a tenant.
    pub fn cycles_per_iteration(&self, tenant: u32) -> f64 {
        let Some(t) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        if t.iterations == 0 {
            return 0.0;
        }
        t.body_cycles() as f64 / f64::from(t.iterations)
    }

    /// Warm-up time of a tenant in cycles (prelude completion).
    pub fn warmup_cycles(&self, tenant: u32) -> u64 {
        self.tenants.get(&tenant).map_or(0, |t| t.warmup_end)
    }

    /// MAC utilization of a tenant: achieved MACs over peak MACs of its
    /// cores during its body window.
    pub fn tenant_utilization(&self, tenant: u32) -> f64 {
        let Some(t) = self.tenants.get(&tenant) else {
            return 0.0;
        };
        let cycles = t.body_cycles();
        if cycles == 0 {
            return 0.0;
        }
        let peak_per_core = u64::from(self.cfg.systolic_dim) * u64::from(self.cfg.systolic_dim);
        let peak = cycles as f64 * peak_per_core as f64 * f64::from(t.threads);
        t.macs as f64 / peak
    }

    /// Activity trace of a physical core, or `None` for a core the chip
    /// does not have.
    pub fn core_trace(&self, core: u32) -> Option<&CoreTrace> {
        self.traces.get(core as usize)
    }

    /// Cycles packets spent queued behind busy NoC links.
    pub fn noc_contention_cycles(&self) -> u64 {
        self.noc_contention
    }

    /// Total NoC packets injected.
    pub fn noc_packets(&self) -> u64 {
        self.noc_packets
    }

    /// Cycles DMA requests waited behind busy HBM channels.
    pub fn hbm_wait_cycles(&self) -> u64 {
        self.hbm_wait
    }

    /// Per-bound-thread translator statistics as `(phys_core, stats)`.
    pub fn translator_stats(&self) -> &[(u32, TranslateStats)] {
        &self.translator_stats
    }

    /// Sum of all translation stall cycles.
    pub fn translation_cycles(&self) -> u64 {
        self.translator_stats.iter().map(|(_, s)| s.cycles).sum()
    }

    /// Global-memory access trace `(cycle, core, va)` when enabled.
    pub fn mem_trace(&self) -> &[(u64, u32, u64)] {
        &self.mem_trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instr, Machine, Program, SimError};

    #[test]
    fn hostile_iteration_counts_reserve_bounded_traces() {
        // u32::MAX passes over 4 096 instructions would reserve more
        // intervals than memory holds: the reservation stops at the cap,
        // and the run at the cycle budget.
        let limit = 200_000;
        let mut m = Machine::new(SocConfig {
            max_cycles: limit,
            ..SocConfig::fpga()
        });
        let t = m.add_tenant("guest");
        let body = vec![Instr::matmul(16, 16, 16); 4096];
        m.bind(
            3,
            t,
            0,
            Program::looped(vec![Instr::matmul(8, 8, 8)], body, u32::MAX),
        )
        .unwrap();
        let reserved = m.epoch.traces[3].intervals.capacity() as u64;
        assert!((TRACE_RESERVE_CAP..2 * TRACE_RESERVE_CAP).contains(&reserved));
        assert_eq!(m.run().unwrap_err(), SimError::CycleLimit { limit });
    }

    #[test]
    fn a_core_off_the_chip_has_no_trace() {
        let mut m = Machine::new(SocConfig::fpga());
        let t = m.add_tenant("t");
        m.bind(7, t, 0, Program::once(vec![Instr::matmul(16, 16, 16)]))
            .unwrap();
        let report = m.run().unwrap();
        assert_eq!(report.core_trace(7).unwrap().intervals().len(), 1);
        assert!(report.core_trace(8).is_none() && report.core_trace(u32::MAX).is_none());
    }

    #[test]
    fn trace_accounting() {
        let mut t = CoreTrace::default();
        t.push(0, 100, Activity::Compute);
        t.push(100, 150, Activity::Send);
        t.push(150, 150, Activity::Dma); // empty, dropped
        t.push(150, 250, Activity::Compute);
        assert_eq!(t.cycles_in(Activity::Compute), 200);
        assert_eq!(t.cycles_in(Activity::Send), 50);
        assert_eq!(t.cycles_in(Activity::Dma), 0);
        assert_eq!(t.intervals().len(), 3);
    }

    #[test]
    fn tenant_body_cycles() {
        let t = TenantStats {
            name: "x".into(),
            warmup_end: 100,
            body_start: 100,
            end: 600,
            iterations: 5,
            threads: 2,
            compute_cycles: 0,
            macs: 0,
        };
        assert_eq!(t.body_cycles(), 500);
    }
}
