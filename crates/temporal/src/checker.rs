//! The shipped rule catalogue: [`TemporalChecker::standard`] composes
//! the five `TEMP-*` rules from the combinators in [`crate::props`],
//! and [`check_trace`] runs them offline over a recorded trace.

use crate::props::{always, leads_to_within, Property};
use crate::trace::TraceEvent;
use crate::{Subject, TempRule, TemporalFinding};
use std::fmt;

/// Tuning knobs for the standard rule catalogue. Bounds are in ticks
/// and must match the policies of the run being checked — the checker
/// discovers violations, it does not guess policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerConfig {
    /// `TEMP-STARVE`: every arrival must be admitted or terminally
    /// rejected within this many ticks. `None` disables the rule (use
    /// when the run's admission gives no bound, e.g. no attempt budget).
    pub starve_bound_ticks: Option<u64>,
    /// `TEMP-DRAIN`: a draining chip may go at most this many ticks
    /// with *silent* steps (nothing moved, nothing explicitly skipped,
    /// residents remaining) before the drain counts as stalled.
    pub drain_stall_ticks: u64,
    /// `TEMP-FAULT`: a detected outage must resolve (recovered, lost,
    /// or departed) within this many ticks — mirror of the serve loop's
    /// recovery deadline.
    pub max_recovery_ticks: u64,
}

impl Default for CheckerConfig {
    /// Defaults mirror the serve defaults: drain stalls flagged after
    /// 16 silent ticks, recovery deadline 8 ticks, starvation disabled
    /// until the caller supplies the policy bound.
    fn default() -> Self {
        CheckerConfig {
            starve_bound_ticks: None,
            drain_stall_ticks: 16,
            max_recovery_ticks: 8,
        }
    }
}

/// Extracts the subject of a fault-recovery obligation: the tenant's
/// identity at detection time.
fn tenant(chip: usize, vm: u32) -> Subject {
    Subject::Tenant { chip, vm }
}

/// The streaming checker: feed it every [`TraceEvent`] in emission
/// order (online, inside the serve loop, or offline over a recording),
/// then [`TemporalChecker::finish`] once. Findings accumulate in
/// [`TemporalChecker::findings`] and are stable across replays of the
/// same trace.
pub struct TemporalChecker {
    props: Vec<Box<dyn Property>>,
    findings: Vec<TemporalFinding>,
    max_tick: u64,
    finished: bool,
}

impl fmt::Debug for TemporalChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemporalChecker")
            .field("props", &self.props.len())
            .field("findings", &self.findings)
            .field("max_tick", &self.max_tick)
            .field("finished", &self.finished)
            .finish()
    }
}

impl TemporalChecker {
    /// Builds the shipped five-rule catalogue.
    pub fn standard(config: CheckerConfig) -> Self {
        let mut props: Vec<Box<dyn Property>> = Vec::new();

        // TEMP-STARVE — liveness: arrival leads-to admit/terminal-reject
        // within the policy bound.
        if let Some(bound) = config.starve_bound_ticks {
            props.push(Box::new(leads_to_within(
                TempRule::Starvation,
                bound,
                "queued request must be admitted or terminally rejected",
                |ev| match ev {
                    TraceEvent::Arrival { id, .. } => Some(Subject::Request(*id)),
                    _ => None,
                },
                |ev| match ev {
                    TraceEvent::Admitted { id, .. } | TraceEvent::Rejected { id, .. } => {
                        Some(Subject::Request(*id))
                    }
                    _ => None,
                },
            )));
        }

        // TEMP-DRAIN — convergence: a silent drain step (no move, no
        // explicit skip, residents remaining) opens a stall window that
        // any progress step closes.
        props.push(Box::new(leads_to_within(
            TempRule::DrainConvergence,
            config.drain_stall_ticks,
            "silently stalled drain must make progress or finish",
            |ev| match ev {
                TraceEvent::DrainStep {
                    chip,
                    moved: 0,
                    skipped: 0,
                    remaining,
                    ..
                } if *remaining > 0 => Some(Subject::Chip(*chip)),
                _ => None,
            },
            |ev| match ev {
                TraceEvent::DrainStep {
                    chip,
                    moved,
                    skipped,
                    remaining,
                    ..
                } if *moved > 0 || *skipped > 0 || *remaining == 0 => Some(Subject::Chip(*chip)),
                _ => None,
            },
        )));

        // TEMP-FAULT — deadline: a detected outage resolves (recovered,
        // lost, or departed) by the recovery deadline...
        props.push(Box::new(leads_to_within(
            TempRule::FaultDeadline,
            config.max_recovery_ticks,
            "detected outage must be recovered, lost, or departed",
            |ev| match ev {
                TraceEvent::RecoveryDetected { chip, vm, .. } => Some(tenant(*chip, *vm)),
                _ => None,
            },
            |ev| match ev {
                TraceEvent::Recovered { chip, vm, .. }
                | TraceEvent::TenantLost { chip, vm, .. }
                | TraceEvent::Departed { chip, vm, .. } => Some(tenant(*chip, *vm)),
                _ => None,
            },
        )));
        // ...and the resolution events themselves must respect the
        // deadline: never recovered *after* it, never declared lost
        // *before* it. Catches traces where the obligation was closed
        // with a forged outcome.
        let deadline = config.max_recovery_ticks;
        props.push(Box::new(always(
            TempRule::FaultDeadline,
            move |ev| match *ev {
                TraceEvent::Recovered {
                    tick,
                    chip,
                    vm,
                    onset_tick,
                    ..
                } if tick.saturating_sub(onset_tick) > deadline => Some((
                    tenant(chip, vm),
                    format!(
                        "recovered {} ticks after detection (deadline {deadline})",
                        tick.saturating_sub(onset_tick)
                    ),
                )),
                TraceEvent::TenantLost {
                    tick,
                    chip,
                    vm,
                    onset_tick,
                } if tick.saturating_sub(onset_tick) < deadline => Some((
                    tenant(chip, vm),
                    format!(
                        "declared lost only {} ticks after detection (deadline {deadline})",
                        tick.saturating_sub(onset_tick)
                    ),
                )),
                _ => None,
            },
        )));

        // TEMP-LEAK — quiescence implies a fully coalesced, leak-free
        // free state. Coalescence is only provable on healthy hardware:
        // dead cores may legitimately split a chip's free region.
        props.push(Box::new(always(TempRule::QuiescenceLeak, |ev| {
            if let TraceEvent::Quiesced {
                live_vnpus,
                leaked_cores,
                leaked_hbm_bytes,
                faulted_cores,
                free_components,
                chips,
                ..
            } = *ev
            {
                if live_vnpus != 0 || leaked_cores != 0 || leaked_hbm_bytes != 0 {
                    return Some((
                        Subject::Fleet,
                        format!(
                            "quiescence leak: {live_vnpus} live vNPUs, \
                             {leaked_cores} cores and {leaked_hbm_bytes} HBM bytes still held"
                        ),
                    ));
                }
                if faulted_cores == 0 && free_components != chips {
                    return Some((
                        Subject::Fleet,
                        format!(
                            "quiescent free state not coalesced: {free_components} \
                             free components across {chips} healthy chips"
                        ),
                    ));
                }
            }
            None
        })));

        // TEMP-HINT — an emitted fit hint never exceeds the largest
        // schedulable free island at the start of its admission pass
        // (free regions only shrink during a pass, so the pass-start
        // island is a sound upper bound for every hint in the pass).
        let mut island: Option<(u64, u32)> = None;
        props.push(Box::new(always(
            TempRule::HintSoundness,
            move |ev| match *ev {
                TraceEvent::AdmissionStart {
                    tick,
                    largest_island,
                } => {
                    island = Some((tick, largest_island));
                    None
                }
                TraceEvent::HintEmitted { tick, id, cores } => match island {
                    Some((pass_tick, bound)) if pass_tick == tick && cores > bound => Some((
                        Subject::Request(id),
                        format!(
                            "hinted {cores} cores but the largest schedulable \
                             free island at pass start was {bound}"
                        ),
                    )),
                    _ => None,
                },
                _ => None,
            },
        )));

        TemporalChecker {
            props,
            findings: Vec::new(),
            max_tick: 0,
            finished: false,
        }
    }

    /// Feeds one event to every property.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.max_tick = self.max_tick.max(ev.tick());
        for prop in &mut self.props {
            prop.observe(ev, &mut self.findings);
        }
    }

    /// Closes the stream: obligations whose deadline already passed at
    /// the last observed tick are flagged; obligations still inside
    /// their window are not. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let max_tick = self.max_tick;
        for prop in &mut self.props {
            prop.finish(max_tick, &mut self.findings);
        }
    }

    /// The findings proven so far (all of them, after [`Self::finish`]).
    pub fn findings(&self) -> &[TemporalFinding] {
        &self.findings
    }

    /// Consumes the checker, returning its findings.
    pub fn into_findings(mut self) -> Vec<TemporalFinding> {
        self.finish();
        self.findings
    }
}

/// Runs the standard catalogue offline over a recorded trace.
pub fn check_trace(events: &[TraceEvent], config: CheckerConfig) -> Vec<TemporalFinding> {
    let mut checker = TemporalChecker::standard(config);
    for ev in events {
        checker.observe(ev);
    }
    checker.into_findings()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RecoveryKind;

    fn cfg() -> CheckerConfig {
        CheckerConfig {
            starve_bound_ticks: Some(8),
            ..CheckerConfig::default()
        }
    }

    #[test]
    fn empty_trace_is_clean() {
        assert!(check_trace(&[], cfg()).is_empty());
    }

    #[test]
    fn on_schedule_recovery_is_clean_and_late_recovery_fires() {
        let detect = TraceEvent::RecoveryDetected {
            tick: 10,
            chip: 0,
            vm: 3,
        };
        let on_time = TraceEvent::Recovered {
            tick: 18, // exactly at the 8-tick deadline
            chip: 0,
            vm: 3,
            kind: RecoveryKind::Remapped,
            onset_tick: 10,
        };
        assert!(check_trace(&[detect, on_time], cfg()).is_empty());

        let late = TraceEvent::Recovered {
            tick: 25,
            chip: 0,
            vm: 3,
            kind: RecoveryKind::Remapped,
            onset_tick: 10,
        };
        let findings = check_trace(&[detect, late], cfg());
        assert!(
            findings.iter().all(|f| f.rule == TempRule::FaultDeadline),
            "{findings:?}"
        );
        assert!(!findings.is_empty());
    }

    #[test]
    fn unresolved_outage_fires_at_finish() {
        let findings = check_trace(
            &[
                TraceEvent::RecoveryDetected {
                    tick: 0,
                    chip: 1,
                    vm: 9,
                },
                TraceEvent::Executed {
                    tick: 40,
                    chip: 1,
                    machine_cycles: 1,
                },
            ],
            cfg(),
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, TempRule::FaultDeadline);
        assert_eq!(findings[0].subject, Subject::Tenant { chip: 1, vm: 9 });
    }

    #[test]
    fn silent_drain_stall_fires_and_explicit_skips_do_not() {
        let silent = |tick| TraceEvent::DrainStep {
            tick,
            chip: 2,
            moved: 0,
            skipped: 0,
            remaining: 4,
        };
        let skipping = |tick| TraceEvent::DrainStep {
            tick,
            chip: 2,
            moved: 0,
            skipped: 1,
            remaining: 4,
        };
        let trace: Vec<TraceEvent> = (0..20).map(silent).collect();
        let findings = check_trace(&trace, cfg());
        assert_eq!(findings.len(), 1, "one stall window, one finding");
        assert_eq!(findings[0].rule, TempRule::DrainConvergence);
        assert_eq!(findings[0].subject, Subject::Chip(2));

        let trace: Vec<TraceEvent> = (0..40).map(skipping).collect();
        assert!(
            check_trace(&trace, cfg()).is_empty(),
            "explicit stall is not silent"
        );
    }

    #[test]
    fn hint_beyond_pass_start_island_fires() {
        let trace = [
            TraceEvent::AdmissionStart {
                tick: 5,
                largest_island: 8,
            },
            TraceEvent::HintEmitted {
                tick: 5,
                id: 7,
                cores: 9,
            },
        ];
        let findings = check_trace(&trace, cfg());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, TempRule::HintSoundness);
        assert_eq!(findings[0].subject, Subject::Request(7));
    }

    #[test]
    fn checker_debug_and_finish_are_idempotent() {
        let mut checker = TemporalChecker::standard(cfg());
        checker.observe(&TraceEvent::Arrival { tick: 0, id: 1 });
        checker.finish();
        checker.finish();
        let dbg = format!("{checker:?}");
        assert!(dbg.contains("TemporalChecker"), "{dbg}");
    }
}
