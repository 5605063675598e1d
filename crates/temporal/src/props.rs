//! The property-combinator DSL: small, streaming property machines
//! ([`always`], [`leads_to_within`]) that a checker composes into a
//! rule catalogue.
//!
//! Every combinator is *online*: it observes one [`TraceEvent`] at a
//! time, keeps O(1) state per tracked subject, and appends
//! [`TemporalFinding`]s as violations become provable — no combinator
//! ever buffers the trace. [`Property::finish`] closes the stream:
//! obligations already past their deadline at the final tick are
//! flagged; obligations still inside their window are not (a run may
//! legitimately end with work in flight).

use crate::trace::TraceEvent;
use crate::{Subject, TempRule, TemporalFinding};
use std::collections::{BTreeMap, BTreeSet};

/// A streaming temporal property.
///
/// Implementations must never panic, whatever the trace contains — a
/// corrupted trace is precisely the input a checker exists for.
pub trait Property {
    /// Observes one event, appending any findings it proves.
    fn observe(&mut self, ev: &TraceEvent, out: &mut Vec<TemporalFinding>);
    /// Closes the stream at `final_tick`, flagging obligations whose
    /// deadline already passed.
    fn finish(&mut self, final_tick: u64, out: &mut Vec<TemporalFinding>);
}

/// `always(P)`: every event must satisfy the predicate. The closure
/// returns `Some((subject, detail))` when the event *violates* the
/// property, `None` when it is fine (or irrelevant).
pub struct Always<F> {
    rule: TempRule,
    check: F,
}

/// Builds an [`Always`] property. The closure may carry mutable state
/// (e.g. the last observed context event), which keeps per-event work
/// O(1).
pub fn always<F>(rule: TempRule, check: F) -> Always<F>
where
    F: FnMut(&TraceEvent) -> Option<(Subject, String)>,
{
    Always { rule, check }
}

impl<F> Property for Always<F>
where
    F: FnMut(&TraceEvent) -> Option<(Subject, String)>,
{
    fn observe(&mut self, ev: &TraceEvent, out: &mut Vec<TemporalFinding>) {
        if let Some((subject, detail)) = (self.check)(ev) {
            out.push(TemporalFinding {
                rule: self.rule,
                first_tick: ev.tick(),
                last_tick: ev.tick(),
                subject,
                detail,
            });
        }
    }

    fn finish(&mut self, _final_tick: u64, _out: &mut Vec<TemporalFinding>) {}
}

/// `trigger leads_to resolve within n`: every subject the trigger
/// names must be named by the resolver within `bound` ticks, else the
/// obligation is overdue and a finding fires (once per obligation).
pub struct LeadsToWithin<T, R> {
    rule: TempRule,
    bound: u64,
    trigger: T,
    resolve: R,
    what: &'static str,
    /// Open obligations: subject → tick it opened.
    pending: BTreeMap<Subject, u64>,
    /// The same obligations ordered by open tick, so expiry pops from
    /// the front — amortized O(1) per event.
    by_open: BTreeSet<(u64, Subject)>,
}

/// Builds a [`LeadsToWithin`] property. `trigger` opens an obligation
/// for the subject it returns (no-op when one is already open);
/// `resolve` closes it. `what` names the obligation in finding details.
pub fn leads_to_within<T, R>(
    rule: TempRule,
    bound: u64,
    what: &'static str,
    trigger: T,
    resolve: R,
) -> LeadsToWithin<T, R>
where
    T: FnMut(&TraceEvent) -> Option<Subject>,
    R: FnMut(&TraceEvent) -> Option<Subject>,
{
    LeadsToWithin {
        rule,
        bound,
        trigger,
        resolve,
        what,
        pending: BTreeMap::new(),
        by_open: BTreeSet::new(),
    }
}

impl<T, R> LeadsToWithin<T, R> {
    /// Flags every obligation strictly older than `bound` ticks at
    /// `now` (an obligation resolving *at* its deadline is on time).
    fn expire(&mut self, now: u64, out: &mut Vec<TemporalFinding>) {
        while let Some(&(opened, subject)) = self.by_open.iter().next() {
            if opened.saturating_add(self.bound) >= now {
                break;
            }
            self.by_open.remove(&(opened, subject));
            self.pending.remove(&subject);
            out.push(TemporalFinding {
                rule: self.rule,
                first_tick: opened,
                last_tick: now,
                subject,
                detail: format!(
                    "{} within {} ticks (opened tick {}, still unresolved at tick {})",
                    self.what, self.bound, opened, now
                ),
            });
        }
    }
}

impl<T, R> Property for LeadsToWithin<T, R>
where
    T: FnMut(&TraceEvent) -> Option<Subject>,
    R: FnMut(&TraceEvent) -> Option<Subject>,
{
    fn observe(&mut self, ev: &TraceEvent, out: &mut Vec<TemporalFinding>) {
        self.expire(ev.tick(), out);
        if let Some(subject) = (self.resolve)(ev) {
            if let Some(opened) = self.pending.remove(&subject) {
                self.by_open.remove(&(opened, subject));
            }
        }
        if let Some(subject) = (self.trigger)(ev) {
            let opened = *self.pending.entry(subject).or_insert_with(|| ev.tick());
            self.by_open.insert((opened, subject));
        }
    }

    fn finish(&mut self, final_tick: u64, out: &mut Vec<TemporalFinding>) {
        self.expire(final_tick, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(tick: u64, id: u64) -> TraceEvent {
        TraceEvent::Arrival { tick, id }
    }

    fn admitted(tick: u64, id: u64) -> TraceEvent {
        TraceEvent::Admitted {
            tick,
            id,
            chip: 0,
            vm: 0,
        }
    }

    fn starve_prop() -> impl Property {
        leads_to_within(
            TempRule::Starvation,
            4,
            "request must resolve",
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
        )
    }

    #[test]
    fn leads_to_within_resolves_on_time() {
        let mut p = starve_prop();
        let mut out = Vec::new();
        p.observe(&arrival(0, 1), &mut out);
        p.observe(&admitted(4, 1), &mut out); // exactly at the deadline
        p.finish(20, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn leads_to_within_flags_overdue_once() {
        let mut p = starve_prop();
        let mut out = Vec::new();
        p.observe(&arrival(0, 1), &mut out);
        p.observe(&arrival(10, 2), &mut out); // tick advance exposes #1
        p.observe(&admitted(11, 2), &mut out);
        p.finish(100, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, TempRule::Starvation);
        assert_eq!(out[0].subject, Subject::Request(1));
        assert_eq!(out[0].first_tick, 0);
    }

    #[test]
    fn leads_to_within_keeps_inflight_work_at_finish() {
        let mut p = starve_prop();
        let mut out = Vec::new();
        p.observe(&arrival(10, 1), &mut out);
        p.finish(12, &mut out); // still inside the window
        assert!(out.is_empty(), "{out:?}");
    }
}
