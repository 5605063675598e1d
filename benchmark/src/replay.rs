//! The layer replay (traced runs only): one `Hypervisor` and one
//! `Machine` re-driven from the workload's own `ArrivalGenerator`
//! stream, with a span around every public call, so that `topo`, `core`
//! and `sim` get their own numbers on the same inputs the serve loop
//! saw. The serve loop itself only reports whole phases.
//!
//! A fleet workload's stream is thinned to the share one chip of the
//! fleet would receive, so the replayed chip carries the fleet's load
//! per chip. Faults, drains and defragmentation are not replayed; one
//! `plan` + `commit` of a single `Migrate` every few ticks stands in for
//! the reconfiguration path.

use crate::api::{
    ArrivalGenerator, Hypervisor, Instr, Machine, Mapper, MappingCache, MigrationTarget, PlanOp,
    Program, ServeConfig, Strategy, TenantId, VirtCoreId, VmId,
};
use crate::span::Recorder;
use std::hint::black_box;

/// Ticks between two replayed `plan` + `commit` migrations.
const PLAN_EVERY_TICKS: u64 = 8;

struct Live {
    vm: VmId,
    tenant: TenantId,
    expires_at: u64,
}

/// What the replay measured: one sample list per wrapped call, plus the
/// simulated counters of the epochs it ran.
#[derive(Debug, Default)]
pub struct Replay {
    /// `Mapper::map_in` on the live free set, per arrival.
    pub map_cold_ns: Vec<u64>,
    /// `Mapper::map_cached` answered from the cache, per arrival.
    pub map_hit_ns: Vec<u64>,
    /// `FreeSet::occupy_all` + `release_all` of one placement.
    pub freeset_ns: Vec<u64>,
    /// `Hypervisor::create_vnpu_in` with the mapping already cached.
    pub create_ns: Vec<u64>,
    /// `Hypervisor::destroy_vnpu`.
    pub destroy_ns: Vec<u64>,
    /// `Hypervisor::plan` + `commit` of one `Migrate`.
    pub plan_commit_ns: Vec<u64>,
    /// `Hypervisor::services`, per virtual core bound.
    pub services_ns: Vec<u64>,
    /// Successful creates and the simulated configuration cycles they
    /// cost.
    pub creates: u64,
    /// Σ configuration cycles of those creates.
    pub config_cycles: u64,
    /// Σ NoC packets.
    pub noc_packets: u64,
    /// Σ NoC contention cycles.
    pub noc_contention_cycles: u64,
    /// Σ HBM wait cycles.
    pub hbm_wait_cycles: u64,
    /// Σ translation cycles.
    pub translation_cycles: u64,
}

/// Replays `ticks` ticks of `cfg`'s request stream on its first chip.
///
/// # Errors
///
/// A failure of a call that must succeed on a consistent chip (destroy,
/// bind, epoch run), rendered.
pub fn replay(cfg: &ServeConfig, ticks: u64, rec: &mut Recorder) -> Result<Replay, String> {
    let chip = &cfg.chips[0];
    let fleet_cores: u32 = cfg.chips.iter().map(|c| c.soc.core_count()).sum();
    let thin = (f64::from(fleet_cores) / f64::from(chip.soc.core_count()))
        .round()
        .max(1.0) as u64;
    let mut hv = Hypervisor::with_hbm_bytes(chip.soc.clone(), chip.hbm_bytes);
    let mut machine = Machine::new(chip.soc.clone());
    let mut generator = ArrivalGenerator::new(cfg.traffic.clone());
    let mut cache = MappingCache::with_capacity(4096);
    let remap = Strategy::similar_topology().threads(1).candidate_cap(200);
    let mut live: Vec<Live> = Vec::new();
    let mut out = Replay::default();
    let mut offered = 0u64;

    for tick in 0..ticks {
        rec.next_op();
        let root = rec.enter("replay.tick");

        // Departures.
        let mut i = 0;
        while i < live.len() {
            if live[i].expires_at > tick {
                i += 1;
                continue;
            }
            let gone = live.swap_remove(i);
            let span = rec.enter("core.destroy");
            let destroyed = hv.destroy_vnpu(gone.vm);
            out.destroy_ns.push(rec.exit(span));
            destroyed.map_err(|e| format!("replay destroy: {e}"))?;
            machine
                .remove_tenant(gone.tenant)
                .map_err(|e| format!("replay remove_tenant: {e}"))?;
        }

        // Arrivals: search cold, look up hot, update a free set, create.
        for arrival in generator.arrivals_for_tick(tick) {
            offered += 1;
            if offered % thin != 0 {
                continue;
            }
            let req = arrival.request;
            let mapped = {
                let mapper = Mapper::with_phys_key(hv.topology(), hv.phys_key())
                    .at_generation(hv.topology_generation());
                let span = rec.enter("topo.map_cold");
                let cold = mapper.map_in(hv.free_set(), req.topology(), req.strategy_ref());
                out.map_cold_ns.push(rec.exit(span));
                // Seed the cache with the search's own result, so the
                // timed lookup and the create below are hits.
                let seeded = mapper.map_cached_with(
                    hv.free_set(),
                    req.topology(),
                    req.strategy_ref(),
                    &mut cache,
                    Some(cold),
                );
                let span = rec.enter("topo.map_hit");
                let hit = mapper.map_cached(
                    hv.free_set(),
                    req.topology(),
                    req.strategy_ref(),
                    &mut cache,
                );
                out.map_hit_ns.push(rec.exit(span));
                black_box(hit).ok();
                seeded
            };
            if let Ok(mapping) = &mapped {
                let mut free = hv.free_set().clone();
                let span = rec.enter("topo.freeset_update");
                free.occupy_all(mapping.phys_nodes());
                free.release_all(mapping.phys_nodes());
                out.freeset_ns.push(rec.exit(span));
                black_box(free);
            }
            let cycles_before = hv.total_config_cycles();
            let span = rec.enter("core.create");
            let created = hv.create_vnpu_in(req, &mut cache);
            let create_ns = rec.exit(span);
            // A chip too full for the request turns it away, as the
            // serve loop's chip would.
            if let Ok(vm) = created {
                out.create_ns.push(create_ns);
                out.creates += 1;
                out.config_cycles += hv.total_config_cycles() - cycles_before;
                live.push(Live {
                    vm,
                    tenant: machine.add_tenant("replay"),
                    expires_at: tick + arrival.lifetime_epochs.max(1),
                });
            }
        }

        // One planned migration, as defragmentation would issue it.
        if tick % PLAN_EVERY_TICKS == PLAN_EVERY_TICKS - 1 && !live.is_empty() {
            let pick = &live[(tick / PLAN_EVERY_TICKS) as usize % live.len()];
            let op = PlanOp::Migrate {
                vm: pick.vm,
                to: MigrationTarget::Remap(remap.clone()),
            };
            let span = rec.enter("core.plan_commit");
            let receipt = hv.plan(&[op]).and_then(|txn| hv.commit(&txn));
            out.plan_commit_ns.push(rec.exit(span));
            if let Ok(receipt) = receipt {
                for (_, cost) in &receipt.migrated {
                    machine
                        .migrate_tenant(pick.tenant, cost.paused_cycles)
                        .map_err(|e| format!("replay migrate_tenant: {e}"))?;
                }
            }
        }

        // Execution: bind every resident's ring program, run the epoch.
        if cfg.execute_epochs && !live.is_empty() {
            for l in &live {
                bind_ring(&mut machine, &hv, l, rec, &mut out.services_ns)?;
            }
            let span = rec.enter("sim.run_epoch");
            let epoch = machine.run_epoch();
            rec.exit(span);
            let report = epoch.map_err(|e| format!("replay run_epoch: {e}"))?;
            out.noc_packets += report.noc_packets();
            out.noc_contention_cycles += report.noc_contention_cycles();
            out.hbm_wait_cycles += report.hbm_wait_cycles();
            out.translation_cycles += report.translation_cycles();
        }
        rec.exit(root);
    }
    Ok(out)
}

/// The serve loop's per-tick workload: every virtual core computes and
/// forwards a small block around the virtual ring.
fn bind_ring(
    machine: &mut Machine,
    hv: &Hypervisor,
    live: &Live,
    rec: &mut Recorder,
    services_ns: &mut Vec<u64>,
) -> Result<(), String> {
    let vnpu = hv.vnpu(live.vm).map_err(|e| format!("replay vnpu: {e}"))?;
    let n = vnpu.core_count();
    for v in 0..n {
        let phys = vnpu
            .phys_core(VirtCoreId(v))
            .map_err(|e| format!("replay phys_core: {e}"))?;
        let span = rec.enter("core.services");
        let services = hv.services(live.vm, VirtCoreId(v));
        services_ns.push(rec.exit(span));
        let services = services.map_err(|e| format!("replay services: {e}"))?;
        let body = if n == 1 {
            vec![Instr::matmul(16, 16, 16)]
        } else {
            vec![
                Instr::matmul(16, 16, 16),
                Instr::send((v + 1) % n, 1024, v),
                Instr::recv((v + n - 1) % n, 1024, (v + n - 1) % n),
            ]
        };
        machine
            .bind_with(
                phys,
                live.tenant,
                v,
                Program::looped(vec![], body, 1),
                services,
            )
            .map_err(|e| format!("replay bind: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_load;

    #[test]
    fn replay_wraps_every_layer_call_and_keeps_the_chip_consistent() {
        let cfg = serve_load::by_name("churn_1chip").unwrap().config(11, 120);
        let mut rec = Recorder::with_capacity(4096);
        let r = replay(&cfg, 120, &mut rec).expect("replay");
        assert!(r.creates > 50 && r.creates as usize == r.create_ns.len());
        assert_eq!(r.map_cold_ns.len(), r.map_hit_ns.len());
        assert!(!r.destroy_ns.is_empty() && !r.plan_commit_ns.is_empty());
        assert!(!r.services_ns.is_empty());
        assert!(r.config_cycles > 0 && r.noc_packets > 0);
        let epochs = rec.spans().iter().filter(|s| s.name == "sim.run_epoch");
        assert!(epochs.count() > 100, "an epoch ran on nearly every tick");
        // The seeded cache makes the timed lookup a hit: far cheaper than
        // the search it memoizes.
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len() as f64;
        assert!(mean(&r.map_hit_ns) < mean(&r.map_cold_ns));
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 120, "one root span per replayed tick");
    }

    #[test]
    fn fleet_streams_are_thinned_to_one_chips_share() {
        let cfg = serve_load::by_name("place_hot").unwrap().config(11, 160);
        let mut rec = Recorder::with_capacity(4096);
        let r = replay(&cfg, 160, &mut rec).expect("replay");
        // ~1 arrival per tick over 16 chips: about a sixteenth reach one.
        assert!(
            (4..=20).contains(&r.map_cold_ns.len()),
            "{}",
            r.map_cold_ns.len()
        );
        assert!(r.services_ns.is_empty(), "placement-only workload");
    }
}
