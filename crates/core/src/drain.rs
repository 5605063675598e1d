//! Drain-for-maintenance: whole-chip evacuation as a budgeted plan
//! pipeline.
//!
//! Datacenter accelerator fleets treat maintenance drains as routine —
//! firmware rollouts, cooling work, board swaps — and a dynamic
//! virtualization layer must make evacuate-and-restore a scheduler
//! primitive, not an operator script. This module composes the existing
//! machinery into exactly that:
//!
//! * each epoch, the draining chip's cheapest tenants leave first (by
//!   estimated [`ReconfigCost`], dominated by the cross-chip
//!   data-movement term), each onto the least-loaded schedulable
//!   destination that fits, within a per-epoch [`ReconfigBudget`];
//! * [`crate::cluster::Cluster::begin_drain`] marks the chip
//!   unschedulable (placement policies stop nominating it, the fleet
//!   [`crate::admission::FitHint`] stops advertising it) and stales its
//!   outstanding placement plans;
//! * [`crate::cluster::Cluster::drain_tick`] runs one budgeted
//!   evacuation step per draining chip through
//!   [`crate::cluster::Cluster::migrate_to_chip`]
//!   — create-before-destroy, so a failed move leaves the tenant on the
//!   source chip and a tenant can never exist on two chips;
//! * [`crate::cluster::Cluster::complete_drain`] validates the chip is
//!   empty (maintenance may start);
//!   [`crate::cluster::Cluster::undrain`] hands the chip back to the
//!   schedulers with byte-identical schedulability.

use crate::cluster::{ChipSnapshot, ClusterVmId};
use crate::hypervisor::Hypervisor;
use crate::ids::VmId;
use crate::plan::{ReconfigBudget, ReconfigCost};
use crate::vnpu::VirtualNpu;
use std::fmt;
use vnpu_mem::rtt::rtt_deploy_cycles;

/// Whether a chip may be nominated for placements, and where it is in
/// the drain lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipSchedState {
    /// In service: placement policies nominate it, fit hints advertise
    /// it.
    Schedulable,
    /// Being evacuated: no new placements, budgeted
    /// [`crate::cluster::Cluster::drain_tick`]s move its tenants off.
    Draining,
    /// Evacuated and under maintenance: empty, unschedulable, waiting
    /// for [`crate::cluster::Cluster::undrain`].
    Drained,
}

impl fmt::Display for ChipSchedState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipSchedState::Schedulable => write!(f, "schedulable"),
            ChipSchedState::Draining => write!(f, "draining"),
            ChipSchedState::Drained => write!(f, "drained"),
        }
    }
}

/// One tenant moved off a draining chip by a
/// [`crate::cluster::Cluster::drain_tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainMove {
    /// The tenant's identity on the draining chip (now stale).
    pub from: ClusterVmId,
    /// Its identity on the destination chip.
    pub to: ClusterVmId,
    /// The paid cross-chip migration cost.
    pub cost: ReconfigCost,
}

/// What one budgeted drain step did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainStep {
    /// Tenants moved this step, in migration order.
    pub moved: Vec<DrainMove>,
    /// Proposals that could not be applied this step (destination
    /// stopped fitting, tenant departed under the policy) — the tenants
    /// stay on the draining chip for a later step.
    pub skipped: usize,
    /// Tenants still resident on the draining chip after this step
    /// (the residual occupancy; 0 means the chip is ready for
    /// [`crate::cluster::Cluster::complete_drain`]).
    pub remaining: usize,
    /// The summed cost every move this step actually paid.
    pub total: ReconfigCost,
}

/// The bytes a cross-chip move of `vnpu` carries over the inter-chip
/// fabric: its entire guest HBM plus each core's scratchpad working set.
/// The single source of the data-movement formula — both the drain
/// estimate ([`estimated_move_cost`]) and the charge
/// [`crate::cluster::Cluster::migrate_to_chip`] actually pays call it,
/// so the budget can never admit moves priced by a stale formula.
pub(crate) fn cross_chip_data_bytes(hv: &Hypervisor, vnpu: &VirtualNpu) -> u64 {
    vnpu.mem_bytes() + u64::from(vnpu.core_count()) * hv.config().scratchpad_bytes
}

/// The estimated cross-chip move price of one live tenant: its routing
/// table and RTT re-deploy on the destination, and its data movement
/// ([`cross_chip_data_bytes`]). The data term — the dominant one — is
/// exactly what [`crate::cluster::Cluster::migrate_to_chip`] charges;
/// the meta-table terms are priced from the *source* tables and may
/// differ slightly on the landed copy (a tenant landing non-exact gets
/// a costlier table), so budget gating on this estimate bounds, rather
/// than exactly equals, the paid cost.
pub(crate) fn estimated_move_cost(hv: &Hypervisor, vnpu: &VirtualNpu) -> ReconfigCost {
    ReconfigCost::for_move(
        vnpu.routing_table().config_cycles(),
        rtt_deploy_cycles(vnpu.rtt_entries().len()),
        cross_chip_data_bytes(hv, vnpu),
    )
}

/// Proposes one drain step's evacuation set for the draining chip `hv`
/// as `(tenant, destination chip)` pairs, within `budget`, read-only.
/// `destinations` are the snapshots of every *schedulable* chip the
/// tenants may land on (the draining chip itself is never among them).
///
/// Cheapest tenant first: tenants are ordered by their estimated
/// cross-chip [`ReconfigCost`] ([`estimated_move_cost`] — ascending data
/// movement, then pause, then VM id for determinism) so each budgeted
/// epoch evacuates as many tenants as the budget allows and the expensive
/// movers go last, when departures may have emptied them for free. Each
/// tenant lands on the least-loaded destination that fits it (most free
/// cores, ties broken toward more free HBM then the lower chip index);
/// the working snapshots are debited as proposals accumulate so one
/// step's proposals never oversubscribe a destination. Tenants not
/// proposed stay for a later step.
pub(crate) fn plan_step(
    hv: &Hypervisor,
    destinations: &[ChipSnapshot],
    budget: &ReconfigBudget,
) -> Vec<(VmId, usize)> {
    let mut tenants: Vec<(u64, u64, u32, ReconfigCost)> = hv
        .vnpus()
        .map(|(vm, v)| {
            let cost = estimated_move_cost(hv, v);
            (cost.data_move_bytes, cost.paused_cycles, vm.0, cost)
        })
        .collect();
    tenants.sort_unstable_by_key(|&(data, paused, vm, _)| (data, paused, vm));
    let mut dests: Vec<ChipSnapshot> = destinations.to_vec();
    let mut proposals: Vec<(VmId, usize)> = Vec::new();
    let mut total = ReconfigCost::default();
    for (_, _, vm, cost) in tenants {
        let vm = VmId(vm);
        if proposals.len() >= budget.max_migrations {
            break;
        }
        // The sort is by data movement (the dominant term), but the
        // budget also caps paused cycles, which carry non-monotone
        // meta-table terms — so an unaffordable tenant is skipped,
        // not a stopping point: a later one may still fit.
        if !budget.admits(&total, proposals.len(), &cost) {
            continue;
        }
        let vnpu = hv.vnpu(vm).expect("listed vm is live");
        let cores = vnpu.core_count();
        let mem = vnpu.mem_bytes();
        let temporal = vnpu.request().wants_temporal_sharing();
        let Some(dest) = dests
            .iter_mut()
            .filter(|d| d.fits_raw(cores, mem, temporal))
            .min_by_key(|d| {
                (
                    std::cmp::Reverse(d.frag.free_cores),
                    std::cmp::Reverse(d.frag.hbm_free_bytes),
                    d.chip,
                )
            })
        else {
            // No destination fits right now; the tenant stays for a
            // later step (departures elsewhere may open room).
            continue;
        };
        dest.frag.free_cores = dest.frag.free_cores.saturating_sub(cores);
        dest.frag.hbm_free_bytes = dest.frag.hbm_free_bytes.saturating_sub(mem);
        let chip = dest.chip;
        total = total.plus(cost);
        proposals.push((vm, chip));
    }
    proposals
}
