//! Admission control for the online serving regime: queued virtual-NPU
//! requests, pluggable ordering policies, and the per-tick fragmentation
//! metrics the scheduler steers by.
//!
//! The paper evaluates *static* provisioning — every vNPU exists before
//! the workload runs. A serving deployment instead sees a stream of
//! create/destroy requests under fragmentation, where placement can fail
//! *now* and succeed *after the next departure*. This module holds the
//! queue and the policies of that lifecycle; the one admission path that
//! drives them is [`crate::cluster::Cluster`] — [`Cluster::submit`]
//! enqueues a request, and [`Cluster::process_admissions`] runs one
//! admission tick as a single loop under the configured
//! [`AdmissionPolicy`], acting on each failure's [`FailureAction`]; a
//! single chip is simply a 1-chip cluster. Every attempt remains
//! transactional (a failed placement changes nothing, exactly as a failed
//! [`Hypervisor::create_vnpu`] rolls back its partial allocations).
//!
//! [`AdmissionPolicy`] is an open, object-safe trait — NeuroVM-style
//! dynamic virtualization layers want pluggable allocation policies, not
//! a closed enum. Five implementations ship: [`Fifo`], [`SmallestFirst`],
//! [`RetryAfterFree`], [`Backfill`] (conservative backfilling past a
//! blocked head) and [`Aging`] (smallest-first with head-of-line
//! reservation for starved requests). The legacy closed
//! `AdmissionPolicyKind` enum and its deprecated
//! `Hypervisor::set_admission_policy` shim have been removed — construct
//! the trait objects directly.
//!
//! [`Cluster::submit`]: crate::cluster::Cluster::submit
//! [`Cluster::process_admissions`]: crate::cluster::Cluster::process_admissions
//! [`Hypervisor::create_vnpu`]: crate::Hypervisor::create_vnpu

use crate::vnpu::VnpuRequest;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of a queued admission request (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Read-only snapshot of one queued request, handed to
/// [`AdmissionPolicy`] implementations. `RequestId`s are assigned in
/// arrival order, so `id` doubles as the arrival rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingView {
    /// The request's queue identifier (arrival-ordered).
    pub id: RequestId,
    /// Cores the request asks for.
    pub cores: u32,
    /// Guest-memory bytes the request asks for.
    pub memory_bytes: u64,
    /// Whether the request accepts temporal sharing (§7): placement may
    /// widen onto busy cores, so core-availability filters must not
    /// assume `cores` free cores are required.
    pub temporal_sharing: bool,
    /// Failed placement attempts so far.
    pub attempts: u32,
    /// Value of the free-event counter at the last failed attempt
    /// (`None` until the first failure).
    pub last_failure_at_free_event: Option<u64>,
}

/// What the admission engine does after a queued request fails to place
/// (non-terminally) during a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureAction {
    /// Stop the tick — head-of-line blocking.
    Block,
    /// Keep attempting the remaining requests in order.
    Continue,
    /// Keep going, but only for requests strictly smaller (fewer cores)
    /// than the given bound — backfilling: small requests may slip past
    /// the blocked head. There is no capacity reservation, so backfilled
    /// requests *can* consume cores the head is waiting for and delay it;
    /// pair with an attempt budget or an aging policy when head
    /// starvation matters.
    BackfillBelow(u32),
}

/// How the admission queue orders and retries placement attempts.
///
/// Object-safe so deployments can ship their own policies; the queue
/// holds policies as `Arc<dyn AdmissionPolicy>` and never mutates them —
/// a policy's decisions must be pure functions of the queue snapshot, or
/// determinism (and report reproducibility) breaks.
pub trait AdmissionPolicy: fmt::Debug + Send + Sync {
    /// Short name for reports and debugging.
    fn name(&self) -> &'static str;

    /// The requests to attempt this tick, in order. `pending` is the
    /// queue in arrival order; `free_events` is the owner's monotone
    /// resource-freeing counter (drives retry-after-free style policies).
    /// IDs not currently queued are ignored by the engine.
    fn attempt_order(&self, pending: &[PendingView], free_events: u64) -> Vec<RequestId>;

    /// Called after `failed` (attempt count already updated) failed
    /// non-terminally; decides whether the tick continues.
    fn after_failure(&self, failed: &PendingView) -> FailureAction;
}

/// Strict arrival order with head-of-line blocking: a tick stops at the
/// first request that fails to place.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl AdmissionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn attempt_order(&self, pending: &[PendingView], _free_events: u64) -> Vec<RequestId> {
        pending.iter().map(|p| p.id).collect()
    }

    fn after_failure(&self, _failed: &PendingView) -> FailureAction {
        FailureAction::Block
    }
}

/// Attempt the smallest (fewest-core) request first each tick, skipping
/// over failures — trades head-of-line blocking for possible starvation
/// of large requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmallestFirst;

impl AdmissionPolicy for SmallestFirst {
    fn name(&self) -> &'static str {
        "smallest-first"
    }

    fn attempt_order(&self, pending: &[PendingView], _free_events: u64) -> Vec<RequestId> {
        let mut ids: Vec<(u32, RequestId)> = pending.iter().map(|p| (p.cores, p.id)).collect();
        // Stable under equal sizes: arrival order breaks ties because
        // `RequestId`s are assigned in arrival order.
        ids.sort();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    fn after_failure(&self, _failed: &PendingView) -> FailureAction {
        FailureAction::Continue
    }
}

/// Arrival order, but a request that has already failed is only
/// re-attempted after at least one resource-freeing event since its last
/// attempt (nothing was freed, so retrying would burn an enumeration for
/// the same answer — though the mapping cache would memoize it anyway).
#[derive(Debug, Clone, Copy, Default)]
pub struct RetryAfterFree;

impl AdmissionPolicy for RetryAfterFree {
    fn name(&self) -> &'static str {
        "retry-after-free"
    }

    fn attempt_order(&self, pending: &[PendingView], free_events: u64) -> Vec<RequestId> {
        pending
            .iter()
            .filter(|p| match p.last_failure_at_free_event {
                None => true,
                Some(at) => free_events > at,
            })
            .map(|p| p.id)
            .collect()
    }

    fn after_failure(&self, _failed: &PendingView) -> FailureAction {
        FailureAction::Block
    }
}

/// Backfilling: arrival order, and when a request fails the tick
/// continues only for *strictly smaller* requests — they slip into the
/// gaps the blocked head cannot use right now (same-or-larger requests
/// are held back). No capacity is *reserved* for the head, so a steady
/// stream of small arrivals can still delay or starve it; cap the
/// damage with [`AdmissionQueue::set_max_attempts`] or switch to
/// [`Aging`], whose reservation threshold exists for exactly this.
#[derive(Debug, Clone, Copy, Default)]
pub struct Backfill;

impl AdmissionPolicy for Backfill {
    fn name(&self) -> &'static str {
        "backfill"
    }

    fn attempt_order(&self, pending: &[PendingView], _free_events: u64) -> Vec<RequestId> {
        pending.iter().map(|p| p.id).collect()
    }

    fn after_failure(&self, failed: &PendingView) -> FailureAction {
        FailureAction::BackfillBelow(failed.cores)
    }
}

/// Smallest-first with aging: every failed attempt shrinks a request's
/// *effective* size by [`Aging::boost_per_attempt`], so a starved large
/// request eventually sorts ahead of fresh small ones; once it has
/// failed [`Aging::reserve_after_attempts`] times it additionally gains
/// head-of-line reservation (its failure blocks the tick, so younger
/// requests can no longer eat every departure ahead of it).
#[derive(Debug, Clone, Copy)]
pub struct Aging {
    /// Effective-size discount per failed attempt (cores).
    pub boost_per_attempt: u32,
    /// Failed attempts after which the request blocks the tick on
    /// failure, reserving freed capacity for itself.
    pub reserve_after_attempts: u32,
}

impl Default for Aging {
    fn default() -> Self {
        Aging {
            boost_per_attempt: 1,
            reserve_after_attempts: 8,
        }
    }
}

impl Aging {
    /// A request's discounted effective size, saturating at a floor of
    /// **1 core**: a pathological attempt count (or a huge
    /// `boost_per_attempt`) discounts any request at most down to the
    /// size of the smallest possible request, so an aged giant ties with
    /// — never underflows past — genuinely smaller queued requests (ties
    /// still break by arrival order).
    pub fn effective_cores(&self, p: &PendingView) -> u32 {
        p.cores
            .saturating_sub(p.attempts.saturating_mul(self.boost_per_attempt))
            .max(1)
    }
}

impl AdmissionPolicy for Aging {
    fn name(&self) -> &'static str {
        "aging"
    }

    fn attempt_order(&self, pending: &[PendingView], _free_events: u64) -> Vec<RequestId> {
        let mut ids: Vec<(u32, RequestId)> = pending
            .iter()
            .map(|p| (self.effective_cores(p), p.id))
            .collect();
        // Ties (equal effective size) break by arrival order via the ID.
        ids.sort();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    fn after_failure(&self, failed: &PendingView) -> FailureAction {
        if failed.attempts >= self.reserve_after_attempts {
            FailureAction::Block
        } else {
            FailureAction::Continue
        }
    }
}

/// The largest request shape that would place *right now*, attached to
/// terminal rejections so a tenant (or an auto-scaling client) can
/// resubmit something that fits instead of blindly retrying. Probed
/// through the mapping cache, so repeated rejections against an
/// unchanged free region reuse the memoized exhaustion proofs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FitHint {
    /// Cores of the fitting shape.
    pub cores: u32,
    /// Mesh width of the probed near-square shape.
    pub width: u32,
    /// Mesh height of the probed near-square shape (`width × height ≥
    /// cores`; the last row may be partial for awkward counts).
    pub height: u32,
}

#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub id: RequestId,
    pub req: VnpuRequest,
    pub attempts: u32,
    /// Value of the hypervisor's free-event counter at the last failed
    /// attempt (`None` until the first failure).
    pub last_failure_at_free_event: Option<u64>,
}

impl PendingRequest {
    pub(crate) fn view(&self) -> PendingView {
        PendingView {
            id: self.id,
            cores: self.req.core_count(),
            memory_bytes: self.req.memory_bytes(),
            temporal_sharing: self.req.wants_temporal_sharing(),
            attempts: self.attempts,
            last_failure_at_free_event: self.last_failure_at_free_event,
        }
    }
}

/// The pending-request queue with its policy and attempt budget.
#[derive(Debug)]
pub struct AdmissionQueue {
    pending: VecDeque<PendingRequest>,
    policy: Arc<dyn AdmissionPolicy>,
    max_attempts: Option<u32>,
    next_id: u64,
}

impl Default for AdmissionQueue {
    fn default() -> Self {
        Self::new(Arc::new(Fifo))
    }
}

impl AdmissionQueue {
    /// An empty queue under `policy` with an unlimited attempt budget.
    pub fn new(policy: Arc<dyn AdmissionPolicy>) -> Self {
        AdmissionQueue {
            pending: VecDeque::new(),
            policy,
            max_attempts: None,
            next_id: 0,
        }
    }

    /// Caps placement attempts per request; a request failing its
    /// `max_attempts`-th attempt is rejected. `None` retries forever.
    pub fn set_max_attempts(&mut self, max_attempts: Option<u32>) {
        self.max_attempts = max_attempts.map(|m| m.max(1));
    }

    /// The active ordering policy.
    pub fn policy(&self) -> &Arc<dyn AdmissionPolicy> {
        &self.policy
    }

    /// Replaces the ordering policy (queued requests are kept).
    pub fn set_policy(&mut self, policy: Arc<dyn AdmissionPolicy>) {
        self.policy = policy;
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Snapshots of the queued requests, in arrival order.
    pub fn views(&self) -> Vec<PendingView> {
        self.pending.iter().map(|p| p.view()).collect()
    }

    /// The attempt budget.
    pub fn max_attempts(&self) -> Option<u32> {
        self.max_attempts
    }

    pub(crate) fn push(&mut self, req: VnpuRequest) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(PendingRequest {
            id,
            req,
            attempts: 0,
            last_failure_at_free_event: None,
        });
        id
    }

    /// The IDs to attempt this tick, in policy order. `free_events` is
    /// the owner's monotone resource-freeing counter.
    pub(crate) fn attempt_order(&self, free_events: u64) -> Vec<RequestId> {
        self.policy.attempt_order(&self.views(), free_events)
    }

    /// The policy's verdict on continuing the tick after `id` failed
    /// non-terminally (call after [`AdmissionQueue::mark_failed`]).
    pub(crate) fn failure_action(&self, id: RequestId) -> FailureAction {
        match self.request(id) {
            Some(p) => self.policy.after_failure(&p.view()),
            None => FailureAction::Continue,
        }
    }

    pub(crate) fn request(&self, id: RequestId) -> Option<&PendingRequest> {
        self.pending.iter().find(|p| p.id == id)
    }

    pub(crate) fn remove(&mut self, id: RequestId) -> Option<PendingRequest> {
        let idx = self.pending.iter().position(|p| p.id == id)?;
        self.pending.remove(idx)
    }

    /// Records a failed attempt; returns `true` when the attempt budget is
    /// now spent (caller rejects the request).
    pub(crate) fn mark_failed(&mut self, id: RequestId, free_events: u64) -> bool {
        let Some(p) = self.pending.iter_mut().find(|p| p.id == id) else {
            return false;
        };
        p.attempts += 1;
        p.last_failure_at_free_event = Some(free_events);
        self.max_attempts.is_some_and(|m| p.attempts >= m)
    }
}

/// A point-in-time fragmentation picture of the hypervisor's resources,
/// exposed per admission tick so the serving layer can chart how close the
/// chip is to topology lock-in (§4.3) while traffic churns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragmentationStats {
    /// Free physical cores.
    pub free_cores: u32,
    /// Connected components of the free-core region (0 when none free).
    pub free_components: usize,
    /// Size of the largest connected free component.
    pub largest_free_component: usize,
    /// Largest free component over all free cores, in `[0, 1]`; 1.0 when
    /// the free region is a single island (or empty — nothing is
    /// stranded).
    pub free_connectivity: f64,
    /// Free HBM bytes.
    pub hbm_free_bytes: u64,
    /// Largest single free buddy block.
    pub hbm_largest_free_block: u64,
    /// Buddy external fragmentation: `1 − largest_free_block/free_bytes`
    /// (0.0 when no memory is free — nothing is fragmented).
    pub hbm_external_fragmentation: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(policy: Arc<dyn AdmissionPolicy>) -> AdmissionQueue {
        AdmissionQueue::new(policy)
    }

    #[test]
    fn fifo_orders_by_arrival_and_blocks() {
        let mut queue = q(Arc::new(Fifo));
        let a = queue.push(VnpuRequest::mesh(3, 3));
        let b = queue.push(VnpuRequest::mesh(1, 1));
        assert_eq!(queue.attempt_order(0), vec![a, b]);
        assert_eq!(queue.failure_action(a), FailureAction::Block);
    }

    #[test]
    fn smallest_first_orders_by_core_count_then_arrival() {
        let mut queue = q(Arc::new(SmallestFirst));
        let big = queue.push(VnpuRequest::mesh(3, 3));
        let small_a = queue.push(VnpuRequest::mesh(1, 2));
        let small_b = queue.push(VnpuRequest::mesh(2, 1));
        // 2-core requests first (arrival order between them), then 9-core.
        assert_eq!(queue.attempt_order(0), vec![small_a, small_b, big]);
        assert_eq!(queue.failure_action(small_a), FailureAction::Continue);
    }

    #[test]
    fn retry_after_free_skips_until_a_destroy() {
        let mut queue = q(Arc::new(RetryAfterFree));
        let a = queue.push(VnpuRequest::mesh(2, 2));
        assert_eq!(queue.attempt_order(0), vec![a]);
        assert!(!queue.mark_failed(a, 0));
        // No free event since the failure: not retried.
        assert!(queue.attempt_order(0).is_empty());
        // After a destroy the request is eligible again.
        assert_eq!(queue.attempt_order(1), vec![a]);
    }

    #[test]
    fn backfill_lets_only_smaller_requests_past_a_blocked_head() {
        let mut queue = q(Arc::new(Backfill));
        let big = queue.push(VnpuRequest::mesh(3, 3));
        let same = queue.push(VnpuRequest::mesh(3, 3));
        let small = queue.push(VnpuRequest::mesh(1, 2));
        assert_eq!(queue.attempt_order(0), vec![big, same, small]);
        queue.mark_failed(big, 0);
        // The engine narrows to requests strictly below the failed size.
        assert_eq!(queue.failure_action(big), FailureAction::BackfillBelow(9));
    }

    #[test]
    fn aging_promotes_starved_requests_and_eventually_reserves() {
        let aging = Aging {
            boost_per_attempt: 2,
            reserve_after_attempts: 3,
        };
        let mut queue = q(Arc::new(aging));
        let big = queue.push(VnpuRequest::mesh(2, 3)); // 6 cores
        let small = queue.push(VnpuRequest::mesh(2, 2)); // 4 cores
        assert_eq!(queue.attempt_order(0), vec![small, big]);
        // Two failures discount the big request to an effective 2 cores:
        // it now sorts ahead of the fresh 4-core request.
        queue.mark_failed(big, 0);
        queue.mark_failed(big, 0);
        assert_eq!(queue.attempt_order(0), vec![big, small]);
        assert_eq!(queue.failure_action(big), FailureAction::Continue);
        // A third failure reaches the reservation threshold.
        queue.mark_failed(big, 0);
        assert_eq!(queue.failure_action(big), FailureAction::Block);
    }

    #[test]
    fn aging_discount_floors_at_one_core() {
        // Regression: a pathological attempt count used to discount a
        // request's effective size to 0 cores, sorting an aged giant
        // strictly ahead of genuinely smaller (even 1-core) requests.
        // The discount now floors at 1 core, so the giant *ties* with the
        // smallest possible request and arrival order breaks the tie.
        let aging = Aging {
            boost_per_attempt: u32::MAX,
            reserve_after_attempts: 8,
        };
        let mut queue = q(Arc::new(aging));
        let tiny = queue.push(VnpuRequest::mesh(1, 1)); // 1 core, arrives first
        let giant = queue.push(VnpuRequest::mesh(3, 3)); // 9 cores

        // One attempt × u32::MAX boost saturates the discount. Effective
        // sizes: tiny = 1 (fresh), giant = max(1, 9 − sat) = 1 — equal,
        // so arrival order keeps tiny first.
        queue.mark_failed(giant, 0);
        assert_eq!(queue.attempt_order(0), vec![tiny, giant]);
        let view = queue.request(giant).unwrap().view();
        assert_eq!(aging.effective_cores(&view), 1, "floor, not underflow");
    }

    #[test]
    fn attempt_budget_trips_after_max() {
        let mut queue = q(Arc::new(Fifo));
        queue.set_max_attempts(Some(2));
        let a = queue.push(VnpuRequest::mesh(2, 2));
        assert!(!queue.mark_failed(a, 0));
        assert!(
            queue.mark_failed(a, 1),
            "second failure exhausts the budget"
        );
        queue.remove(a).unwrap();
        assert!(queue.is_empty());
    }
}
