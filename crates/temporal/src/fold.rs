//! The single-source-of-truth fold: every counter the serve report
//! carries that describes *what happened over time* is derived here, by
//! folding the [`TraceEvent`] stream — never incremented inline in the
//! serve loop. The temporal checker evaluates its properties over the
//! same stream, so the report and the properties guarding it cannot
//! drift apart.

use crate::trace::{RecoveryKind, TraceEvent};
use vnpu::plan::ReconfigCost;

/// Per-chip slice of the fold (mirrors the per-chip report section).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChipFold {
    /// Requests placed onto this chip.
    pub accepted: u64,
    /// Tenants destroyed on this chip.
    pub departed: u64,
    /// Defrag migrations committed on this chip.
    pub migrations: u64,
    /// Tenants evacuated off this chip while it drained.
    pub drain_evacuated: u64,
    /// Tenants this chip received from other chips' drains.
    pub drain_received: u64,
    /// Machine epochs executed on this chip.
    pub executed_epochs: u64,
    /// Simulated machine cycles on this chip.
    pub machine_cycles: u64,
    /// Fault onsets that landed on this chip.
    pub fault_onsets: u64,
    /// Faults repaired on this chip.
    pub fault_repairs: u64,
    /// Tenants this chip recovered in place.
    pub recoveries_remapped: u64,
    /// Tenants evacuated off this chip by emergency re-placement.
    pub recoveries_replaced: u64,
    /// Tenants on this chip declared lost.
    pub tenants_lost: u64,
    /// Ticks this chip served in degraded mode.
    pub degraded_ticks: u64,
}

/// Aggregated run accounting, folded from the event stream.
///
/// All fields are cumulative over the events observed so far; the fold
/// never panics — events naming an out-of-range chip are counted in the
/// fleet totals and dropped from the per-chip slices.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFold {
    /// Requests placed.
    pub accepted: u64,
    /// Requests terminally rejected.
    pub rejected: u64,
    /// Tenants destroyed (departures, including lost tenants and the
    /// end-of-run drain).
    pub departed: u64,
    /// Defrag migrations committed.
    pub migrations: u64,
    /// Summed [`ReconfigCost`] paid by defrag migrations.
    pub reconfig: ReconfigCost,
    /// Tenants evacuated off draining chips.
    pub drain_migrations: u64,
    /// Summed [`ReconfigCost`] paid by drain evacuations.
    pub drain_reconfig: ReconfigCost,
    /// Cumulative growth of largest free windows booked by defrag.
    pub frag_windows_recovered: u64,
    /// Cumulative buddy external-fragmentation reduction booked by
    /// defrag.
    pub hbm_frag_recovered: f64,
    /// Hardware-fault onsets that landed.
    pub faults_injected: u64,
    /// Hardware faults repaired.
    pub faults_repaired: u64,
    /// Tenants recovered by an in-place remap.
    pub recoveries_remapped: u64,
    /// Tenants recovered by an emergency cross-chip re-placement.
    pub recoveries_replaced: u64,
    /// Tenants whose fault was repaired under them.
    pub recoveries_self_healed: u64,
    /// Tenants declared lost at the recovery deadline.
    pub tenants_lost: u64,
    /// Summed [`ReconfigCost`] paid by recovery actions (including
    /// committed remaps that failed to escape a link fault).
    pub recovery_reconfig: ReconfigCost,
    /// Chip-ticks served in degraded mode.
    pub degraded_ticks: u64,
    /// Summed ticks-to-recover over recovered tenants.
    pub mttr_total_ticks: u64,
    /// Worst observed ticks-to-recover.
    pub mttr_max_ticks: u64,
    /// Machine epochs executed, summed over chips.
    pub executed_epochs: u64,
    /// Simulated machine cycles, summed over chips.
    pub machine_cycles: u64,
    /// Per-chip slices, in chip order.
    pub per_chip: Vec<ChipFold>,
}

impl TraceFold {
    /// An empty fold over a fleet of `chips` chips.
    pub fn new(chips: usize) -> Self {
        TraceFold {
            accepted: 0,
            rejected: 0,
            departed: 0,
            migrations: 0,
            reconfig: ReconfigCost::default(),
            drain_migrations: 0,
            drain_reconfig: ReconfigCost::default(),
            frag_windows_recovered: 0,
            hbm_frag_recovered: 0.0,
            faults_injected: 0,
            faults_repaired: 0,
            recoveries_remapped: 0,
            recoveries_replaced: 0,
            recoveries_self_healed: 0,
            tenants_lost: 0,
            recovery_reconfig: ReconfigCost::default(),
            degraded_ticks: 0,
            mttr_total_ticks: 0,
            mttr_max_ticks: 0,
            executed_epochs: 0,
            machine_cycles: 0,
            per_chip: vec![ChipFold::default(); chips],
        }
    }

    fn chip_mut(&mut self, chip: usize) -> Option<&mut ChipFold> {
        self.per_chip.get_mut(chip)
    }

    /// Folds one event into the running totals.
    pub fn observe(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Admitted { chip, .. } => {
                self.accepted += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.accepted += 1;
                }
            }
            TraceEvent::Rejected { .. } => self.rejected += 1,
            TraceEvent::Departed { chip, .. } => {
                self.departed += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.departed += 1;
                }
            }
            TraceEvent::Migrated { chip, cost, .. } => {
                self.migrations += 1;
                self.reconfig = self.reconfig.plus(cost);
                if let Some(c) = self.chip_mut(chip) {
                    c.migrations += 1;
                }
            }
            TraceEvent::DefragRecovered {
                window_cores,
                hbm_frag_delta,
                ..
            } => {
                self.frag_windows_recovered += window_cores;
                self.hbm_frag_recovered += hbm_frag_delta;
            }
            TraceEvent::DrainMove {
                from_chip,
                to_chip,
                cost,
                ..
            } => {
                self.drain_migrations += 1;
                self.drain_reconfig = self.drain_reconfig.plus(cost);
                if let Some(c) = self.chip_mut(from_chip) {
                    c.drain_evacuated += 1;
                }
                if let Some(c) = self.chip_mut(to_chip) {
                    c.drain_received += 1;
                }
            }
            TraceEvent::FaultOnset { chip, .. } => {
                self.faults_injected += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.fault_onsets += 1;
                }
            }
            TraceEvent::FaultRepair { chip, .. } => {
                self.faults_repaired += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.fault_repairs += 1;
                }
            }
            TraceEvent::RecoveryPaid { cost, .. } => {
                self.recovery_reconfig = self.recovery_reconfig.plus(cost);
            }
            TraceEvent::Recovered {
                tick,
                chip,
                kind,
                onset_tick,
                ..
            } => {
                let dt = tick.saturating_sub(onset_tick);
                self.mttr_total_ticks += dt;
                self.mttr_max_ticks = self.mttr_max_ticks.max(dt);
                match kind {
                    RecoveryKind::Remapped => {
                        self.recoveries_remapped += 1;
                        if let Some(c) = self.chip_mut(chip) {
                            c.recoveries_remapped += 1;
                        }
                    }
                    RecoveryKind::Replaced => {
                        self.recoveries_replaced += 1;
                        if let Some(c) = self.chip_mut(chip) {
                            c.recoveries_replaced += 1;
                        }
                    }
                    RecoveryKind::SelfHealed => self.recoveries_self_healed += 1,
                }
            }
            TraceEvent::TenantLost { chip, .. } => {
                self.tenants_lost += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.tenants_lost += 1;
                }
            }
            TraceEvent::Executed {
                chip,
                machine_cycles,
                ..
            } => {
                self.executed_epochs += 1;
                self.machine_cycles += machine_cycles;
                if let Some(c) = self.chip_mut(chip) {
                    c.executed_epochs += 1;
                    c.machine_cycles += machine_cycles;
                }
            }
            TraceEvent::Degraded { chip, .. } => {
                self.degraded_ticks += 1;
                if let Some(c) = self.chip_mut(chip) {
                    c.degraded_ticks += 1;
                }
            }
            // Pure observation events carry no accounting.
            TraceEvent::Arrival { .. }
            | TraceEvent::AdmissionStart { .. }
            | TraceEvent::HintEmitted { .. }
            | TraceEvent::DrainStep { .. }
            | TraceEvent::RecoveryDetected { .. }
            | TraceEvent::Quiesced { .. }
            | TraceEvent::ReportClaim { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(routing: u64, rtt: u64, bytes: u64, paused: u64) -> ReconfigCost {
        ReconfigCost {
            routing_cycles: routing,
            rtt_cycles: rtt,
            data_move_bytes: bytes,
            paused_cycles: paused,
        }
    }

    #[test]
    fn fold_books_every_dimension() {
        let mut f = TraceFold::new(2);
        // Each cost kind is paid twice, at different costs, so every
        // reconfiguration total must be its own per-dimension sum.
        for ev in [
            TraceEvent::Arrival { tick: 0, id: 1 },
            TraceEvent::Admitted {
                tick: 0,
                id: 1,
                chip: 0,
                vm: 0,
            },
            TraceEvent::Rejected { tick: 1, id: 2 },
            TraceEvent::Migrated {
                tick: 2,
                chip: 0,
                vm: 0,
                cost: cost(10, 4, 256, 30),
            },
            TraceEvent::Migrated {
                tick: 2,
                chip: 0,
                vm: 0,
                cost: cost(1, 2, 64, 5),
            },
            TraceEvent::DrainMove {
                tick: 3,
                from_chip: 0,
                from_vm: 0,
                to_chip: 1,
                to_vm: 4,
                cost: cost(20, 8, 512, 60),
            },
            TraceEvent::DrainMove {
                tick: 3,
                from_chip: 0,
                from_vm: 1,
                to_chip: 1,
                to_vm: 5,
                cost: cost(3, 1, 128, 7),
            },
            TraceEvent::FaultOnset { tick: 4, chip: 1 },
            TraceEvent::RecoveryDetected {
                tick: 4,
                chip: 1,
                vm: 4,
            },
            TraceEvent::RecoveryPaid {
                tick: 5,
                chip: 1,
                cost: cost(5, 3, 32, 11),
            },
            TraceEvent::RecoveryPaid {
                tick: 5,
                chip: 1,
                cost: cost(2, 6, 16, 13),
            },
            TraceEvent::Recovered {
                tick: 5,
                chip: 1,
                vm: 4,
                kind: RecoveryKind::Remapped,
                onset_tick: 4,
            },
            TraceEvent::FaultRepair { tick: 6, chip: 1 },
            TraceEvent::Degraded { tick: 4, chip: 1 },
            TraceEvent::Executed {
                tick: 4,
                chip: 1,
                machine_cycles: 99,
            },
            TraceEvent::Departed {
                tick: 7,
                chip: 1,
                vm: 4,
            },
        ] {
            f.observe(&ev);
        }
        assert_eq!(f.accepted, 1);
        assert_eq!(f.rejected, 1);
        assert_eq!(f.departed, 1);
        assert_eq!(f.migrations, 2);
        assert_eq!(f.reconfig, cost(11, 6, 320, 35));
        assert_eq!(f.drain_migrations, 2);
        assert_eq!(f.drain_reconfig, cost(23, 9, 640, 67));
        assert_eq!(f.per_chip[0].drain_evacuated, 2);
        assert_eq!(f.per_chip[1].drain_received, 2);
        assert_eq!(f.faults_injected, 1);
        assert_eq!(f.faults_repaired, 1);
        assert_eq!(f.recoveries_remapped, 1);
        assert_eq!(f.per_chip[1].recoveries_remapped, 1);
        assert_eq!(f.recovery_reconfig, cost(7, 9, 48, 24));
        assert_eq!(f.mttr_total_ticks, 1);
        assert_eq!(f.mttr_max_ticks, 1);
        assert_eq!(f.degraded_ticks, 1);
        assert_eq!(f.executed_epochs, 1);
        assert_eq!(f.machine_cycles, 99);
    }

    #[test]
    fn out_of_range_chips_never_panic() {
        let mut f = TraceFold::new(1);
        f.observe(&TraceEvent::Departed {
            tick: 0,
            chip: 7,
            vm: 0,
        });
        f.observe(&TraceEvent::Degraded { tick: 0, chip: 7 });
        assert_eq!(f.departed, 1, "fleet totals still count");
        assert_eq!(f.per_chip.len(), 1);
    }
}
