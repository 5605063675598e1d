//! Admission control for the online serving regime: the queue of
//! virtual-NPU requests and the per-tick fragmentation metrics the
//! scheduler steers by.
//!
//! The paper evaluates *static* provisioning — every vNPU exists before
//! the workload runs. A serving deployment instead sees a stream of
//! create/destroy requests under fragmentation, where placement can fail
//! *now* and succeed *after the next departure*. This module holds the
//! queue of that lifecycle; the one admission path that drives it is
//! [`crate::cluster::Cluster`] — [`Cluster::submit`] enqueues a request,
//! and [`Cluster::process_admissions`] runs one admission tick: arrival
//! order with head-of-line blocking, a single chip being simply a 1-chip
//! cluster. Every attempt remains transactional (a failed placement
//! changes nothing, exactly as a failed [`Hypervisor::create_vnpu`] rolls
//! back its partial allocations).
//!
//! [`Cluster::submit`]: crate::cluster::Cluster::submit
//! [`Cluster::process_admissions`]: crate::cluster::Cluster::process_admissions
//! [`Hypervisor::create_vnpu`]: crate::Hypervisor::create_vnpu

use crate::vnpu::VnpuRequest;
use std::collections::VecDeque;
use std::fmt;

/// Identifier of a queued admission request (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Read-only snapshot of one queued request, handed to
/// [`crate::cluster::ChipPlacement`] implementations. `RequestId`s are
/// assigned in arrival order, so `id` doubles as the arrival rank.
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
}

impl PendingRequest {
    pub(crate) fn view(&self) -> PendingView {
        PendingView {
            id: self.id,
            cores: self.req.core_count(),
            memory_bytes: self.req.memory_bytes(),
            temporal_sharing: self.req.wants_temporal_sharing(),
        }
    }
}

/// The pending-request queue, in arrival order, with its attempt budget.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    pending: VecDeque<PendingRequest>,
    max_attempts: Option<u32>,
    next_id: u64,
}

impl AdmissionQueue {
    /// Caps placement attempts per request; a request failing its
    /// `max_attempts`-th attempt is rejected. `None` retries forever.
    pub fn set_max_attempts(&mut self, max_attempts: Option<u32>) {
        self.max_attempts = max_attempts.map(|m| m.max(1));
    }

    /// Queued request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    pub(crate) fn push(&mut self, req: VnpuRequest) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.push_back(PendingRequest {
            id,
            req,
            attempts: 0,
        });
        id
    }

    /// The oldest queued request, the one a tick attempts next.
    pub(crate) fn front(&self) -> Option<&PendingRequest> {
        self.pending.front()
    }

    pub(crate) fn pop_front(&mut self) -> Option<PendingRequest> {
        self.pending.pop_front()
    }

    /// Records a failed attempt of the head; returns `true` when its
    /// attempt budget is now spent (caller rejects the request).
    pub(crate) fn mark_front_failed(&mut self) -> bool {
        let Some(p) = self.pending.front_mut() else {
            return false;
        };
        p.attempts += 1;
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
    /// Buddy external fragmentation: `1 − largest_free_block/free_bytes`
    /// (0.0 when no memory is free — nothing is fragmented).
    pub hbm_external_fragmentation: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_orders_by_arrival_and_blocks() {
        let mut queue = AdmissionQueue::default();
        let a = queue.push(VnpuRequest::mesh(3, 3));
        let b = queue.push(VnpuRequest::mesh(1, 1));
        // A failed head stays the head: nothing behind it is offered.
        assert!(!queue.mark_front_failed());
        assert_eq!(queue.front().unwrap().id, a);
        assert_eq!(queue.pop_front().unwrap().id, a);
        assert_eq!(queue.front().unwrap().id, b);
    }

    #[test]
    fn attempt_budget_trips_after_max() {
        let mut queue = AdmissionQueue::default();
        queue.set_max_attempts(Some(2));
        let a = queue.push(VnpuRequest::mesh(2, 2));
        assert!(!queue.mark_front_failed());
        assert!(
            queue.mark_front_failed(),
            "second failure exhausts the budget"
        );
        assert_eq!(queue.pop_front().unwrap().id, a);
        assert!(queue.is_empty());
    }
}
