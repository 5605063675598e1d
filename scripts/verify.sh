#!/usr/bin/env bash
# Tier-1 verification gate for the vnpu-repro workspace.
#
# Runs entirely offline: the workspace has only path dependencies and the
# property runner is `vnpu_mem::proptest_lite`, so no crates.io registry
# is ever touched. Wall-clock numbers are not its business: those come
# from `benchmark/` (see BENCHMARK.json). Every `==` section is closed by
# a `--` line with the seconds it took, and the run by its total.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Opens a `==` section, first closing the one before with its seconds.
section() {
  [ -z "${title:-}" ] || echo "-- $title: $((SECONDS - opened)) s"
  title=$1 opened=$SECONDS
  echo "== $title =="
}

section "cargo build --release"
cargo build --release

section "cargo test -q"
cargo test -q

section "serve output pin"
# One seeded 4-chip run with every reconfiguration layer on, compared
# against absolute constants (report JSON hash, trace length and a fold
# over every trace event's Debug text) taken from the run before the serve
# loop was restructured: a refactor of the loop must reproduce them bit
# for bit.
cargo test --test cluster -q serve_outputs_are_pinned_across_refactors

section "paper figures"
# Every figure, table and ablation runs at paper scale, asserts the
# paper's claims, and must print the committed ledger byte for byte: once
# under the test profile, once from the release binary built above.
cargo test --test figures -q
cargo run --release -q -p vnpu_bench --bin figs | cmp - FIGURES.txt
echo "paper figures: the release binary prints FIGURES.txt"

section "benchmark manifest"
# The benchmark package resolves against its committed lock file. A change
# that adds or drops a workspace crate's manifest edge would rewrite
# `benchmark/Cargo.lock` when the benchmark builds; here it fails instead.
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null
echo "benchmark manifest: resolves against benchmark/Cargo.lock unchanged"

section "scripts/loc.sh (non-test source size)"
# Printed in every run so "lines removed" is a number, not a claim — and
# ratcheted: `core + serve` and `topo` code lines may not grow past where
# the last simplification PR landed them. A PR that shrinks them lowers
# the bound. (`topo` stood at 1 988 after PR 16; PR 19's allocation-free
# search kernels, a claimed and measured gain, bought the 45 lines since;
# PR 25's `dor_confined` rewrite took 7 back.) The `workspace` row — every
# crate's `src/**` — is held the same way, at where deleting the figures'
# quick mode and their sixteen bench targets landed it (15 794), plus the
# 136 lines of DMA streams by translation runs (`Translate::translate_run`
# and its three implementations, `Hbm::access_run`, the run loop), which
# cut `paper_static`'s `op_iqm_us` by 40% in paired runs, plus the net 153
# lines of IOTLB miss runs (`Translate::translate_miss_run`, the page
# translator's booking and `PageTlb::fill_stream`, `Hbm::repeat`, the
# period booking in `do_dma`, and `do_send`'s budget stop, less the deleted
# `PageTlb::insert` / `flush`), which cut it by a further 58%, less the
# 312 lines of the phase digest chain (`vnpu_conc`'s 231 and the serve
# loop's 81), replaced by comparing recorded traces, plus the net 134 lines
# of NoC packet trains (`Route` and the hop check before any booking,
# `Noc::send_on` / `send_train`, run nodes in the arrival arena with their
# prefix fold, division wake and overtaking split, the train booking in
# `do_send`, and the multiply-rotate `FlowHasher`), which cut
# `paper_static`'s `op_iqm_us` by 47% in paired runs. `topo` and the
# workspace then took the net 146 lines of the mapper's score memo (the
# structural key, the two packed tables and their plumbing into the
# search, with the request edge-cost bound, the whole candidate cap in
# the cache key and the FIFO drained before it grows), which cut
# `churn_1chip`'s `op_tail10_us` by 37% in paired runs, and then the net 78
# lines of keying every visited candidate by its structure (the structure
# computed from the cells, the direct-mapped class table, the isomorphism
# table and the one lookup routine the hashed tables share, the packed
# canonical key, subgraphs built only on a miss, and the checked mesh
# size, less the subgraph-based score key and the eager window list),
# which cut it by a further 23%. The rule sweep then took 237 lines out
# of the workspace, 8 of them from `core + serve`: the four rules that
# could not fire (TEMP-COST, TEMP-CACHE, FAULT-FREE, ROUTE-SHARE), the
# `never`, `monotone` and `conserved` combinators, the `CacheSample`
# event and its emission, `audit_routing`'s `strict` knob and
# `TraceFold::recovered_tenants`. Making the cluster's snapshot memo the
# one per-chip picture took 86 lines out of `core + serve` and 152 out of
# the workspace: the serve tick's second copy of the snapshots and its
# hand refreshes, `process_admissions_with_snapshots`, the snapshot
# parameters of `drain_tick` and `defrag_pass`, `fit_hint_bounded`,
# `AdmissionTick` and `TickVerdict`, `AdmissionQueue::queued_ids`,
# `Cluster::fragmentation`, `ChipSnapshot`'s copied fragmentation fields
# and `fragmentation_stats`, `Hypervisor::has_faults` and `mmio_mut`, and
# the machine's test-only epoch history and lifetime counters. Moving each
# chip's `Machine` into its cluster slot took 20 lines out of `core +
# serve` (serve lost 86, core gained 66) and 44 out of the workspace:
# the serve loop's `machines` field, `LiveVnpu`, `tenant_name`, the
# machine half of `relocate`, `defrag`, `recovery` and `retire`, and its
# auditor field; `Hypervisor::bump_topology_generation`; and the
# FLEET-GEN rule with `FleetAuditor`'s generation history. Letting a
# `VirtualNpu` keep the `VnpuRequest` it was placed from took 56 lines out
# of `core + serve` and 85 out of the workspace: the six copied request
# fields and `mem_bytes` / `translation_costs`, the restated accessors
# (`bandwidth_cap_bytes`, `wants_temporal_sharing`, `mapping_strategy`,
# `has_noc_isolation`, `blocks`), `migrate_to_chip`'s field-by-field
# rebuild, the onset-time detection loop and `FaultDetector::
# affected_tenants`, `Hypervisor`'s unread `mmio`, `ChipSnapshot`'s
# `hbm_total_bytes` / `live_vnpus`, and three functions nothing called
# (`PageTranslator::table_mut`, `Hbm::channel_count`,
# `Partition::stage_weight_bytes`). Hard-wiring the settings only one
# value flowed through took 29 lines out of `core + serve` and 43 out of
# the workspace: the `DrainPolicy` trait and `CheapestFirstDrain` (their
# planning body kept as the crate-private `drain::plan_step`), the
# `ServeConfig` fields `tick_cycles`, `defrag_budget`, `drain_policy` and
# `recovery`, `defrag_pass`'s budget parameter, `Defragmenter::name`, and
# `vnpu_fault::RecoveryPolicy`. The workspace then took the net 36 lines
# of the simulator's event loop — the event queue that keeps the event
# pushed last outside its heap, bind-sized activity traces, and
# `Report::core_trace` returning `None` off the chip with its two figure
# callers — which raised `paper_static`'s `ops_per_s` by a median 39%
# over ten alternating pairs (per-pair ratio 1.27, 9 of 10 won). Making
# the chip's machine the one record of a dead link took 22 lines out of
# `core + serve` and 11 out of the workspace: the hypervisor's
# `faulted_links` set and its `set_link_faulted` / `link_faulted` /
# `faulted_links` methods and the detector's collected core list, less
# the machine's undirected listing and lookup, and `audit_chip`'s links
# parameter. Making the report JSON the one rendering of a serve run took
# 135 lines out of `core + serve` and 133 out of the workspace:
# `ServeReport::summary`, the hand-written second serializer of the
# report's fields, and `acceptance_rate` / `mean_free_connectivity`,
# which only it read, less `FaultPlan`'s overflow-free row and repair
# arithmetic. Hard-wiring the one admission order every workload ran
# (arrival order, head-of-line blocking) took 213 lines out of `core +
# serve` and of the workspace: the `AdmissionPolicy` trait,
# `FailureAction`, the five orders (`Fifo`, `SmallestFirst`,
# `RetryAfterFree`, `Backfill`, `Aging`), the queue's policy accessors and
# per-tick attempt order, the backfill-limit bookkeeping, every
# `set_admission_policy`, `ServeConfig::policy`, the `ChipPlacement` value
# `BestFitFragmentation`, and the hypervisor's retry-after-free counter.
# Making the routes deployed with a confined tenant's cores the one record
# its routers, the routing audit and the fault detector read took 27 lines
# out of `core + serve` and 18 out of the workspace: `InstRouter`,
# `VRouterNoc::precompute_paths`, `with_paths`, `policy`,
# `direction_entries` and `fallback_paths` (the two counts stay on the
# record), the router's on-the-fly `confined_or_dor` fallback, the
# `HashMap` of one `Vec` per pair and `Deployment`'s lazy memo of it, less
# the flat record's lookup and the detector's reading of it. `topo` and
# the workspace then took 116 lines: 112 of the stock-cost 2-opt kernel
# (`ged::StockRefiner`, which prices a swap from adjacency bitsets, its
# bit iterator, and its call in `Mapper::similar`) and 4 of the class
# table's four-way sets with LRU replacement in the same slots, which
# together cut `churn_1chip`'s `op_tail10_us` by 26% in ten alternating
# seed-29 pairs (10 of 10 won; an earlier set on a drifting host, 9 of 10).
# Deleting the public functions only tests called took 147 lines out of
# `core + serve`, 29 out of `topo` and 331 out of the workspace: the
# `vnpu::mmio` register model and `VnpuError::MmioDenied`,
# `RoutingTable::{lookup_phys, storage_bits}`, `MigAllocation::idle_cores`,
# `MigPartitioner::free_partitions`, `weight_zone_capacity`, `page_count`,
# `DrainStep::is_evacuated`, the address alignment helpers, `used_bytes`,
# `achieved_bandwidth`, `AccessCounter::unlimited`, `mapped_bytes`, the
# `reduce_noc` / `allreduce_ring` generators,
# `ModelGraph::is_chain`, `bottleneck_reduction`, the chip totals with
# `tile_ops_per_cycle`, three `Program` sums, the Figure 10 strategy
# presets, `Mapping::{is_distance_exact, phys_of}` with the flag behind the
# first, `canonical_form` and `Topology::mesh_node`. Those figures leave
# out 71 code lines that moved into test modules: `Hypervisor::
# release_cores`, `Noc::{send_packet, link_loads}`, `Hbm::channel_loads`,
# `kernel_utilization`, `MappingCache::score_stats`, `Topology::{from_edges,
# node_attr_mut}`, `ModelGraph::total_macs` and the partition bottleneck.
# The public items rustc found dead once narrowed (the section below) took
# 178 more: `AdmissionQueue::max_attempts`, `Cluster::admissions`,
# `Hypervisor::plan_generation`, `uvm::DEFAULT_IOTLB_ENTRIES`, the id
# types' `value` / `index`, `Partition::cores`, `RoutingTable::vmid`,
# `VirtualNpu::vm` with its field, `FragmentationStats::
# hbm_largest_free_block`, `FaultPlan::{events, len, horizon}`,
# `Perm::{NONE, RX, is_empty}`, `PageTable::is_empty`,
# `PageTranslator::table`, `RangeTranslationTable::{get, entries, find}`,
# `RangeTranslator::{rtt, rtt_cur, tlb_capacity}`,
# `AccessCounter::{total_bytes, budget_per_window}` with the byte total,
# `Shape::{core_count, label}`,
# `Arrival::{at_tick, shape}`, `CoreTrace::utilization`,
# `Hbm::bytes_per_cycle`, `Noc::degraded_penalty`,
# `Machine::faulted_cores`, the write-only `Link::bytes_carried` and
# `CoreState::footprint`, `MappingCache::len`, `FreeSet::is_empty`,
# `Strategy::kind`, `Mapper::{phys_key, generation}` and
# `CompiledWorkload::{partition, total_weight_bytes, residency}`; and
# `PageTable::{len, lookup}` and `Topology::ring` moved into test modules.
# The fleet auditor's routing memo (per-chip findings and per-tenant
# paths and turn dependencies, keyed on `phys_key` and deployment stamps)
# took 72 lines of the workspace; it cut `reconfig_storm`'s `op_iqm_us`
# by 15-25% in six sets of ten alternating pairs at seeds 29 and 53 (58
# of 60 pairs won; the medians are in CHANGES.md). The
# `ServeRuntime` field that holds it costs `serve` 2 lines, and a
# non-allocating `Hypervisor::faulted_cores` took 5 out. Folding the
# per-chip hint caches into the placement cache's score memo took 5 lines
# out of `core + serve` (`ChipSlot::hints` and its clear, less the
# fault-mask region helper `Chip::remap_region`). `topo` and the
# workspace then took the net 72 lines of the stock-cost bipartite kernel
# and its plumbing (`StockRefiner::{bipartite, price}`, the flat `i64`
# Hungarian, the search's `Candidate` with its kinds and neighbour rows
# built from the cells) and of `Mapper::map_scored`, less
# `FreeSet::with_released_except` and `MappingCache::{clear, is_empty}`,
# which lost their callers; together they cut `reconfig_storm`'s
# `op_tail10_us` in alternating pairs (the medians are in CHANGES.md).
# `topo` and the workspace then took the net 30 lines of the free-region
# kernel (`NeighborRows`, built once per chip — now gone, the flood fill
# being `FreeSet::free_regions` over the topology's own rows — and its
# word-mask flood fill, less `Topology::subset_components`, now the
# kernel's test-only reference), which `Hypervisor::fragmentation` and the defrag window
# checks run; with admission placing the queued request by reference it
# cut `place_hot`'s `op_iqm_us` in alternating pairs (the medians are in
# CHANGES.md), and `core + serve` lost a line. One edit-cost model then
# took 148 lines out of `topo` and 4 out of `core`: the kernels charge the
# paper's unit costs directly, and the `MatchCosts` seam, `HeteroCosts`,
# `Strategy::costs`, the uncacheable cache path and `mem_distance` with
# its annotation are gone. One edit-distance path then took 93 lines out
# of `topo` and of the workspace: the bitset kernels score and refine at
# every request size (rows of one word up to 64 nodes, three up to 192),
# a candidate's edge costs are never read, and `ged`, `ged_bipartite`,
# `mapping_cost`, `refine_mapping`, the `Pricer` and `insert_rest` moved
# into `ged`'s test-only reference, with `has_default_edge_costs`, the
# score memo's bypass for weighted chips and `canonical::are_isomorphic`
# (now a test helper) gone. Plans carrying migrations only then took 63
# lines out of `core + serve`: `PlanOp::{Create, Destroy}`, the planned
# create's no-widening switch and the plan and receipt totals are gone.
# One adjacency record then took 34 lines out of `topo` and of the
# workspace and 2 out of `core + serve`: `Topology` keeps each node's
# neighbours once, as a bit row, and `NeighborRows` (with the hypervisor's
# copy), `Topology::edge_table` and `Candidate::sub` are gone; the ESU
# walk grows its masks from those rows a word at a time. A placement-cache
# key naming each input once then took 31 lines out of `topo` and of the
# workspace: the key holds no canonical key (nor the memo of them) and the
# `Strategy` itself in place of a packed tag, and one word encoding of a
# topology serves `labeled_hash` and the score memo's request key.
# A completion bound on the ESU walk then added 1 line to `topo` and to
# the workspace: the bound takes 5 (`Esu::extend`'s joinable count, its
# decrement, the root loop's count) and cut `paper_static`'s `setup_s`
# from 17.9 to 3.5 ms (10 pairs); the root loop popping free roots off
# a mask takes 8 back, and the score memo's reusable request-key buffer
# adds 4. Cheaper search misses then added 35 lines to `topo` and to the
# workspace, and cut `churn_1chip`'s `op_tail10_us` from 127.9 to 112.5
# us (x0.88, 10 of 10 pairs): the canonical key reads a graph through one
# crate-private `Graph` trait, which `Topology` and a candidate's kinds
# and neighbour rows implement, so a walk's class-table miss builds no
# subgraph (27 in `canonical.rs`: the trait and its two impls, `key_of`
# beside `canonical_key`, a row-degree helper, `CanonicalKey::edges`;
# `wl_hash` is gone), and `mapping.rs` takes 8 for `cell_key`, the
# walk's reused row buffers and its request key computed on demand, net
# of exact-only searches now running through the `W`-typed search. The
# exact A*'s stop at its proof is line-neutral. Sharing bipartite
# assignments then added 28 lines to `topo` and to the workspace, and cut
# `churn_1chip`'s `op_tail10_us` from 112.3 to 98.9 us (x0.88, 10 of 10
# pairs): the score
# memo's fifth table, keyed by a candidate's kinds and degrees, with its
# lookup and debug re-check (`SearchMemo::assignment`) and a lookup
# routine whose kernel may look a part up in another table (22 in
# `cache.rs`), `StockRefiner::assignment` split from the pricing (7 in
# `ged.rs`) and the call in the scoring loop (1 in `mapping.rs`); the
# Hungarian solver's lazy potentials took 2 back. One candidate view then
# took 47 lines out of `topo` and of the workspace: a walk reads each
# candidate's kinds and neighbour rows once and packs its structure, keys
# it and checks its isomorphism from them, so `cell_key`, `cell_pairs`,
# the walk's subgraph closures, `find_isomorphism`'s invariant prefilter
# and `Topology::degree_sequence` are gone, and `induced_subgraph` and
# `edge_attr` are test-only helpers.
CORE_SERVE_CODE_MAX=3976
TOPO_CODE_MAX=2114
WORKSPACE_CODE_MAX=14577
loc=$(scripts/loc.sh)
echo "$loc"
core_serve_code=$(awk '/^core \+ serve/ { print $5 }' <<<"$loc")
if [ "$core_serve_code" -gt "$CORE_SERVE_CODE_MAX" ]; then
  echo "verify: FAIL (core + serve is $core_serve_code code lines, ratchet is $CORE_SERVE_CODE_MAX)"
  exit 1
fi
topo_code=$(awk '$1 == "topo" { print $3 }' <<<"$loc")
if [ "$topo_code" -gt "$TOPO_CODE_MAX" ]; then
  echo "verify: FAIL (topo is $topo_code code lines, ratchet is $TOPO_CODE_MAX)"
  exit 1
fi
workspace_code=$(awk '$1 == "workspace" { print $3 }' <<<"$loc")
if [ "$workspace_code" -gt "$WORKSPACE_CODE_MAX" ]; then
  echo "verify: FAIL (workspace is $workspace_code code lines, ratchet is $WORKSPACE_CODE_MAX)"
  exit 1
fi

section "test boundary"
# `scripts/loc.sh` counts everything from a file's first `#[cfg(test)]` on
# as test code, so that line must be where the production code ends: the
# first `#[cfg(test)]` of a file in `crates/*/src` or `src` starts its
# line, and every top-level item after it carries `#[cfg(test)]` among its
# attributes. An item without one would be production code the size
# ratchets above do not count.
boundary=$(find crates/*/src src -name '*.rs' -exec awk '
  FNR == 1 { in_tests = 0; tagged = 0 }
  !in_tests && /^[[:space:]]+#\[cfg\(test\)\]/ { print FILENAME ":" FNR ": an indented first #[cfg(test)]" }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  /^#\[cfg\(test\)\]/ { tagged = 1; next }
  !in_tests || /^([[:space:]]|\/\/|#!?\[|[})\]]|$)/ { next }
  !tagged { print FILENAME ":" FNR ": " $0 }
  { tagged = 0 }
' {} +)
if [ -n "$boundary" ]; then
  echo "$boundary"
  echo "verify: FAIL (an item after a file's first #[cfg(test)] is not test code)"
  exit 1
fi
echo "test boundary: every item after a file's first #[cfg(test)] is test code"

section "no test-only public functions"
# A public function, field or const that only tests reach is surface every
# reader pays for while no output depends on it: delete it with its tests,
# or move it into its file's test module when a test reads a production
# model through it. `scripts/dead_pub.sh` asks rustc which ones there are:
# on a copy of the tree it narrows each to crate visibility, widens again
# what another crate's non-test code needs, and prints what `dead_code`
# then flags, so two items of one name are told apart. A printed item must
# be on the allow-list below (`path name reason`) with the reason it
# stays. An entry that is no longer printed fails too, and the list may not
# grow past TEST_ONLY_PUB_FNS_MAX.
TEST_ONLY_PUB_FNS_MAX=52
allowed=$(cat <<'EOF'
crates/audit/src/routing.rs     find_cdg_cycle          the deadlock-free confined routes item is to call it where routes are built
crates/core/src/admission.rs    is_empty                beside a public len (clippy's len_without_is_empty)
crates/core/src/cluster.rs      chip_mut                the audit's and fault crate's tests corrupt a chip through it
crates/core/src/cluster.rs      create_on               placement on a named chip; the audit, fault and root cluster tests build fleets with it
crates/core/src/cluster.rs      free_cores              the root cluster and props tests count a fleet's free cores
crates/core/src/cluster.rs      live_count              the root props tests count a fleet's tenants
crates/core/src/cluster.rs      new                     the audit, fault and root cluster tests build a bare cluster
crates/core/src/cluster.rs      total_cores             the root cluster and props tests count a fleet's cores
crates/core/src/hypervisor.rs   cache_stats             mapping-cache counters; the work ledger reports them
crates/core/src/hypervisor.rs   free_cores              the root cluster tests read a chip's free cores
crates/core/src/hypervisor.rs   state_digest            the rollback oracle of the root props and failure-injection tests
crates/core/src/mig.rs          is_empty                beside a public len (clippy's len_without_is_empty)
crates/core/src/mig.rs          is_tdm                  MIG time-sharing flag; the vnpu_bench and root end-to-end tests assert Figure 16's fallback
crates/core/src/mig.rs          partition_index         the Figure 16 fleet item places tenants on MIG partitions through it
crates/core/src/mig.rs          partitions              the Figure 16 fleet item places tenants on MIG partitions through it
crates/core/src/mig.rs          release                 the Figure 16 fleet item frees MIG partitions through it
crates/core/src/mig.rs          shape                   the Figure 16 fleet item sizes MIG partitions through it
crates/core/src/vnpu.rs         bandwidth_cap           request builder; the root failure-injection tests cap bandwidth with it
crates/core/src/vnpu.rs         mem_mode                request builder; the served-models item gives requests a memory mode
crates/core/src/vnpu.rs         temporal_sharing        request builder; the audit's and root extension and props tests over-provision with it
crates/core/src/vrouter.rs      direction_entries       confined-route sizes; the work ledger reports them
crates/core/src/vrouter.rs      fallback_paths          confined-route sizes; the work ledger reports them
crates/mem/src/counter.rs       throttle_cycles         bandwidth-limiter counters; the work ledger reports them
crates/mem/src/counter.rs       throttle_events         bandwidth-limiter counters; the work ledger reports them
crates/mem/src/counter.rs       total_accesses          bandwidth-limiter counters; the work ledger reports them
crates/mem/src/proptest_lite.rs check                   the property runner of the simulator's and root props tests
crates/mem/src/proptest_lite.rs range                   the property runner of the simulator's and root props tests
crates/mem/src/proptest_lite.rs vec_of                  the property runner of the simulator's and root props tests
crates/mem/src/rtt.rs           is_empty                beside a public len (clippy's len_without_is_empty)
crates/serve/src/scheduler.rs   audit_findings          the root audit-mutation and scenario tests read a run's findings
crates/serve/src/scheduler.rs   drain_state             the root cluster and props tests read drain progress
crates/serve/src/scheduler.rs   epoch_memo_hits         epoch-memo counter; the root props tests read it and the work ledger reports it
crates/serve/src/scheduler.rs   fleet_fit_hint          the root cluster tests read the fleet-wide fit hint
crates/serve/src/scheduler.rs   set_core_scales         the hybrid-cores item is to drive it; the root props tests scale cores with it
crates/sim/src/isa.rs           dma_load                instruction constructor; core's and the root failure-injection tests build programs with it
crates/sim/src/isa.rs           is_empty                the workloads tests check idle programs
crates/sim/src/machine.rs       core_faulted            core's cluster tests hold each machine to its hypervisor
crates/sim/src/machine.rs       link_faulted            the audit's and core's cluster tests read a machine's dead links
crates/sim/src/machine.rs       tenant_count            core's cluster tests hold each machine to its hypervisor
crates/sim/src/stats.rs         tenants                 core's vrouter tests read a report's tenants
crates/topo/src/cache.rs        from_free_nodes         the audit's and root cluster and props tests build free sets
crates/topo/src/enumerate.rs    connected_candidates    candidate enumeration; the root props tests hold the mapper's walk to it
crates/topo/src/mapping.rs      exact_only              core's paper_lock_in_scenario_on_5x5 pins the paper's §4.3 lock-in with it
crates/topo/src/mapping.rs      map                     the root cluster and props tests map without a cache
crates/topo/src/mapping.rs      new                     the root cluster and props tests map without a cache
crates/topo/src/topology.rs     hop_distance            topology distance; the simulator's controller tests price configuration by it
crates/topo/src/topology.rs     is_connected            core's vnpu tests check request topologies
crates/topo/src/topology.rs     is_empty                beside a public len (clippy's len_without_is_empty)
crates/topo/src/topology.rs     torus2d                 torus topology; the audit's routing tests run on a torus
crates/workloads/src/graph.rs   is_empty                beside a public len (clippy's len_without_is_empty)
crates/workloads/src/models/mod.rs zoo                  the model zoo; the root end-to-end tests compile every model
crates/workloads/src/partition.rs is_empty              beside a public len (clippy's len_without_is_empty)
EOF
)
flagged=$(scripts/dead_pub.sh | awk '{ sub(/:[0-9]+$/, "", $1); print $1, $2 }' | sort)
listed=$(awk '{ print $1, $2 }' <<<"$allowed" | sort)
unlisted=$(comm -23 <(echo "$flagged") <(echo "$listed"))
stale=$(comm -13 <(echo "$flagged") <(echo "$listed"))
count=$(wc -l <<<"$listed")
echo "no test-only public functions: $count allowed (ratchet $TEST_ONLY_PUB_FNS_MAX)"
if [ -n "$unlisted" ]; then
  echo "$unlisted"
  echo "verify: FAIL (public items only tests reach: delete them, or move them into a test module)"
  exit 1
fi
if [ -n "$stale" ]; then
  echo "$stale"
  echo "verify: FAIL (allow-list entries that non-test code now reaches: take them off the list)"
  exit 1
fi
if [ "$count" -gt "$TEST_ONLY_PUB_FNS_MAX" ]; then
  echo "verify: FAIL (the test-only allow-list has $count entries, ratchet is $TEST_ONLY_PUB_FNS_MAX)"
  exit 1
fi
# rustc reads `x.f += n` as a use of `f`, so it never flags a counter
# nothing reads. This scan lists each struct field in `crates/*/src` that
# no non-test code reads: every `.f` in `crates/*/src`, `src`, `examples`
# and `benchmark/src` (each file up to its first column-0 `#[cfg(test)]`,
# minus items an indented one tags, comment lines left out) is the left
# side of `=`, `+=` or another assignment, and its other uses are
# struct-literal initialisers. Names are matched as words. A struct that
# derives `Hash` or `Ord` reads its fields in the derive, so they are left
# out. A flagged field must be on the allow-list below with its reason; a
# stale entry fails too.
write_only_allowed=$(cat <<'EOF'
crates/topo/src/cache.rs        insertions              CacheStats counter; the work ledger reports it
EOF
)
write_only=$(find crates/*/src src examples benchmark/src -name '*.rs' -exec awk '
  FNR == 1 { in_tests = 0; skip = 0; inside = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  skip {
    # The tagged item ends where its braces balance, or at a `;` or `,`
    # if it opens none.
    depth += gsub(/\{/, "{") - gsub(/\}/, "}")
    if (depth > 0) opened = 1
    if (depth <= 0 && (opened || /[;,]$/)) skip = 0
    next
  }
  /^[[:space:]]+#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
  inside && index($0, indent "}") == 1 { inside = 0; next }
  inside && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_][a-z0-9_]*:/) {
    name = substr($0, RSTART, RLENGTH - 1)
    sub(/.* /, "", name)
    if (FILENAME ~ /^crates\//) field[name] = field[name] FILENAME " " name "\n"
    next
  }
  /^[[:space:]]*#\[derive\(/ { keyed = /[( ](Hash|PartialOrd|Ord)[,)]/; next }
  match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z0-9_]+.*\{$/) {
    inside = !keyed
    indent = $0
    sub(/[^[:space:]].*/, "", indent)
    next
  }
  !/^[[:space:]]*#\[/ { keyed = 0 }
  {
    line = $0
    while (match(line, /\.[a-z_][a-z0-9_]*/)) {
      name = substr(line, RSTART + 1, RLENGTH - 1)
      line = substr(line, RSTART + RLENGTH)
      if (line !~ /^[[:space:]]*(([-+*\/%|&^]|<<|>>)?=[^=]|\(|::)/) read[name] = 1
    }
  }
  END { for (name in field) if (!(name in read)) printf "%s", field[name] }
' {} + | sort)
listed=$(awk '{ print $1, $2 }' <<<"$write_only_allowed" | sort)
unlisted=$(comm -23 <(echo "$write_only") <(echo "$listed"))
stale=$(comm -13 <(echo "$write_only") <(echo "$listed"))
echo "no test-only public functions: $(wc -l <<<"$listed") write-only fields allowed"
if [ -n "$unlisted" ]; then
  echo "$unlisted"
  echo "verify: FAIL (fields no non-test code reads: delete them with their writes)"
  exit 1
fi
if [ -n "$stale" ]; then
  echo "$stale"
  echo "verify: FAIL (write-only allow-list entries that non-test code now reads: take them off the list)"
  exit 1
fi

section "benchmark trajectory"
# Every `BENCH_*.json` at the root is a point of the trajectory: a full
# `benchmark/` suite (`run --seed 29`) from a committed revision. A smoke
# run, a file without the `git_rev` stamp or one at another seed fails
# here. The stamp's keys sit on lines of their own, and come before the
# results, so the first match of each is the stamp's.
stamp() { { grep -m1 -E "^[[:space:]]*\"$2\": " "$1" || true; } | sed -E 's/^[^:]*: //; s/,$//'; }
for bench in BENCH_*.json; do
  [ -e "$bench" ] || continue
  smoke=$(stamp "$bench" smoke) seed=$(stamp "$bench" seed) rev=$(stamp "$bench" git_rev)
  if [ "$smoke" != false ] || [ "$seed" != 29 ] || ! [[ "$rev" =~ ^\"[0-9a-f]{40}\"$ ]]; then
    echo "verify: FAIL ($bench: smoke ${smoke:-missing}, seed ${seed:-missing}, git_rev ${rev:-missing})"
    exit 1
  fi
  echo "benchmark trajectory: $bench is a full seed-29 run of $rev"
done

section "serve knobs"
# A new choice reaches the serve loop through a seam that already has a
# second user (chip placement, defragmenter, mapping strategy), not as a new `ServeConfig` field; a value no caller varies is
# a constant where it is used. Counts the `pub <name>:` lines inside
# `pub struct ServeConfig { ... }` and fails if they rise past where the
# last simplification landed them.
SERVE_CONFIG_FIELDS_MAX=15
serve_fields=$(awk '
  /^pub struct ServeConfig \{/ { inside = 1; next }
  inside && /^\}/ { inside = 0 }
  inside && /^    pub [a-z_0-9]+:/ { fields++ }
  END { print fields + 0 }
' crates/serve/src/scheduler.rs)
echo "serve knobs: ServeConfig has $serve_fields public fields (ratchet $SERVE_CONFIG_FIELDS_MAX)"
if [ "$serve_fields" -gt "$SERVE_CONFIG_FIELDS_MAX" ]; then
  echo "verify: FAIL (ServeConfig has $serve_fields public fields, ratchet is $SERVE_CONFIG_FIELDS_MAX)"
  exit 1
fi

section "no threads outside tests"
# The stack spawns no threads. A multi-threaded tick returns only through
# the ROADMAP's stated bar, not by accident: any `std::thread` before a
# file's first `#[cfg(test)]` fails the gate.
threads=$(find crates/*/src src -name '*.rs' -exec awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /std::thread/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$threads" ]; then
  echo "$threads"
  echo "verify: FAIL (std::thread in non-test code)"
  exit 1
fi

section "one chip of record"
# Each chip's `Machine` belongs to its cluster slot, and every cluster
# mutation updates it with the hypervisor. The serve loop only binds and
# runs epochs on it: a `Machine::new` or a tenant registration, removal
# or pause before a serve file's first `#[cfg(test)]` fails the gate.
mirrors=$(find crates/serve/src -name '*.rs' -exec awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /Machine::new|\.(add|adopt|remove|migrate)_tenant\(/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$mirrors" ]; then
  echo "$mirrors"
  echo "verify: FAIL (the serve loop mutates a machine's tenants)"
  exit 1
fi

section "core carries requests"
# A placed `VirtualNpu` keeps the `VnpuRequest` it was placed from, and a
# cross-chip move re-places a copy of it, so a new request attribute
# reaches migrated tenants with no further edits. Core never rebuilds a
# request: a `VnpuRequest::{custom,mesh,cores}(` on a non-comment line
# before a core file's first `#[cfg(test)]` fails the gate.
rebuilds=$(find crates/core/src -name '*.rs' -exec awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && !/^[[:space:]]*\/\// && /VnpuRequest::(custom|mesh|cores)\(/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$rebuilds" ]; then
  echo "$rebuilds"
  echo "verify: FAIL (core builds a VnpuRequest)"
  exit 1
fi

section "one fault record"
# A dead NoC link is recorded once, in the chip's machine (`vnpu_sim::Noc`);
# the hypervisor keeps what placement reads, the core fault mask. A
# `faulted_links` anywhere in `crates/core/src/hypervisor.rs` is a second
# record of the links and fails the gate.
if grep -n faulted_links crates/core/src/hypervisor.rs; then
  echo "verify: FAIL (the hypervisor keeps a link-fault record)"
  exit 1
fi
echo "one fault record: the machine is the only record of a dead link"

section "one rendering"
# A serve run reaches a reader through `ServeReport::to_json` alone: the
# serve pins hash it and the benchmark reads it. A `fn summary` in
# `crates/serve/src/report.rs` is a second serializer of the same fields
# and fails the gate.
if grep -n 'fn summary' crates/serve/src/report.rs; then
  echo "verify: FAIL (the serve report has a second rendering)"
  exit 1
fi
echo "one rendering: the report JSON is the only rendering of a serve run"

section "one admission order"
# The cluster admits in arrival order with head-of-line blocking,
# hard-wired in `Cluster::process_admissions`: no workload ran another
# order. A `trait AdmissionPolicy` anywhere in `crates/core/src` brings
# back the seam without a second user and fails the gate.
if grep -rn 'trait AdmissionPolicy' crates/core/src; then
  echo "verify: FAIL (admission order is a policy seam again)"
  exit 1
fi
echo "one admission order: arrival order with head-of-line blocking"

section "one route record"
# A confined tenant's routes are derived once, when its cores are deployed
# (`vrouter::ConfinedPaths::build`), and every reader takes them from that
# record: its routers, the routing audit and the fault detector. A
# `confined_path(` call on a non-comment line before the first
# `#[cfg(test)]` of any file but `crates/core/src/vrouter.rs` and
# `crates/topo/src/route.rs` derives them a second time and fails the gate.
derivations=$(find crates/*/src src examples -name '*.rs' \
  ! -path crates/core/src/vrouter.rs ! -path crates/topo/src/route.rs -exec awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && !/^[[:space:]]*\/\// && /confined_path\(/ { print FILENAME ":" FNR ": " $0 }
' {} +)
if [ -n "$derivations" ]; then
  echo "$derivations"
  echo "verify: FAIL (a confined route is derived outside the deployed record)"
  exit 1
fi
echo "one route record: confined routes are derived only by ConfinedPaths::build"

section "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

section "cargo fmt --check"
cargo fmt --check

section "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

section "determinism gate"
# Two same-seed runs of a 3-chip churn with defrag and the fleet audit on
# must record identical traces, tick events and report JSON; a mismatch
# names the first differing event, its tick and both events.
cargo test --test scenarios -q same_seed_reruns_record_identical_traces
echo "determinism gate: same-seed reruns record identical traces"

section "epoch-memo differential gate"
# The serve loop reuses a chip's last epoch while its inputs are
# unchanged. `cargo test` builds with debug assertions, where every reuse
# is also bound and simulated afresh and must give the same makespan; the
# campaign drives that oracle through admissions, retirements, defrag
# core and memory moves, drains, faults, repairs, recoveries and core
# rescales, and fails if no epoch was reused or a kind of event is absent.
cargo test --test props -q epoch_memo_matches_fresh_epochs_under_reconfiguration
echo "epoch-memo gate: reused epochs equal fresh ones under reconfiguration"

section "snapshot-memo differential gate"
# Every fleet-wide operation steers by the cluster's memoized per-chip
# snapshot. `cargo test` builds with debug assertions, where every memo
# hit is also re-scanned and must equal the fresh scan; the test drives
# that oracle, and an explicit comparison of every chip, through
# admissions, teardowns, a defrag pass, core and link faults and repairs,
# a core rescale, a recovery, same- and cross-chip migrations, an
# administrative core reservation, drain steps and the drain lifecycle.
cargo test -p vnpu -q snapshot_memo_matches_fresh_scans
# The same steps hold each chip's machine to its hypervisor: the same
# tenants, topology generation and fault mask, and exactly the migration
# pauses each step paid.
cargo test -p vnpu -q each_machine_matches_its_hypervisor
# A snapshot's free-region figures (`free_components`,
# `largest_free_component`) come from `FreeSet::free_regions`, a flood
# fill over word masks and the topology's neighbour bit rows. The campaign holds it to the breadth-first
# scan it replaced (test-only `reference` in `crates/topo/src/cache.rs`)
# on 1 200 seeded free sets of meshes from 1x1 to 12x12 and of tori,
# holed and faulted: the same component count and largest size. It fails
# unless it met empty, full, one-component, three-or-more-component and
# multi-word sets.
cargo test -p vnpu_topo -q bitset_components_match_the_bfs_reference -- --nocapture
echo "snapshot-memo gate: memoized snapshots equal fresh scans, the free-region kernel its reference, machines match hypervisors"

section "mapper differential gate"
# A mapper search is one walk of the candidate enumeration. The campaign
# holds it to the two-walk search it replaced (kept as a test-only
# reference in `mapping.rs`): identical `Result<Mapping>`s over 1 024
# seeded free regions x shipped request shapes x caps x both enumerating
# strategy kinds, and every outcome (exact hit, scored miss, NoCandidate,
# disconnected fallback) reached.
cargo test -p vnpu_topo -q one_walk_search_matches_the_two_walk_reference -- --nocapture
# A request of more than 64 nodes runs the bitset kernels at three words
# a row. The campaign holds one-walk `map_in` to the two-walk reference,
# which scores with the kernels' test-only references, and `map_cached`
# to `map_in`, on relabelled partial grids of 66-80 nodes on a 10x10 chip
# at small caps, and fails unless some search placed a connected set at
# a nonzero distance.
cargo test -p vnpu_topo -q requests_past_64_nodes_match_the_two_walk_reference -- --nocapture
# Every kernel above reads `Topology`'s one adjacency record: each node's
# neighbours as a bit row beside the edge-attribute map. The campaign
# builds 64 graphs of 1-200 nodes (one to four words a row) with
# `add_edge` and `add_edge_with`, duplicate edges, overwritten costs,
# refused self-loops and out-of-range ids among the calls, holds
# `edges()` to the last cost written and `neighbors` (ascending), `degree`
# and `has_edge` both ways to a partner list rebuilt from `edges()`. It
# fails unless every kind of call was met and rows of two and of four
# words were. (`induced_subgraph`, now a test-only helper that builds the
# subgraph a candidate's view is held to, is checked against an
# edge-by-edge rebuild in `topology.rs`'s own tests.)
cargo test --test props -q topology_rows_match_a_partner_list_from_edges -- --nocapture
# The kernels a search spends its time in (canonical key, ESU walk, exact
# A*, 2-opt refinement) each keep the implementation they replaced as a
# test-only `reference` module beside them, and a seeded campaign holds
# the two to identical results: the same key partition, the same visited
# sequence and count wherever the step budget does not end the reference
# walk (where it does, the ESU walk, which cuts branches that cannot
# reach `k` nodes and spends no step on them, visits a strict extension
# of the reference's sequence), the same `GedResult` mapping included
# (the A* stops at the first pop that reaches its incumbent, where the
# reference drains its heap), the same refined `(mapping, cost)` from
# total and partial starts. Beside the key campaign, a walk reads each
# candidate once into a view (its kinds and neighbour rows, no subgraph
# built) and keys it, checks its isomorphism and packs its structure from
# that view: on 1-12-cell candidates of a 6x6 with a column of another
# kind and of a 12x12, at one and three words a row, the key and the
# isomorphisms to a relabelled copy and to an unrelated request of the
# same size must equal the built subgraph's, and the structure one rebuilt
# from its kinds and `edges()`. The campaign fails unless mixed kinds,
# both chips, 9- and 10-cell candidates, one whose every WL colour is
# shared, matched and unmatched searches and a match on a candidate with
# more than one automorphism were met. Beside the ESU campaign, near-full regions (a 6x6
# and an 8x6 mesh less a 4x3 corner, an idle 5x4, `k` at or one below
# the free count) must visit every brute-force candidate in root order
# within their caps. The 2-opt campaign holds the bitset kernel every search runs
# (`ged::StockRefiner::refine`) to the full-recompute `refine_mapping` of
# `ged`'s test-only reference, on 1 200 starts of up to 12 nodes and on
# dressed requests of 64, 65, 128, 129 and 192 nodes (one and three words
# a row). The references read a candidate edge's cost, as the replaced
# kernels did, and the kernels never do, so a weighted candidate is held
# to the reference run on its unit-cost twin. It fails unless refinement
# improved total and partial starts, both sides were weighted, and every
# listed size was reached.
for campaign in \
  key_partition_matches_the_hashing_reference \
  candidate_keys_match_the_built_subgraph \
  bitmask_walk_matches_the_btreeset_reference \
  near_full_walks_visit_every_candidate \
  exact_search_matches_the_vec_cloning_reference \
  delta_refinement_matches_the_full_recompute_reference; do
  cargo test -p vnpu_topo -q "$campaign" -- --nocapture
done
# A search scores a candidate of more than 8 nodes with
# `ged::StockRefiner::bipartite`: `StockRefiner::assignment` fills the
# bipartite matrix from the candidate's kinds and neighbour bitsets and
# solves it, and the assignment's edit path is priced on them. The campaign holds it to the reference
# `ged_bipartite` (run on a weighted candidate's unit-cost twin) on 400
# seeded request/candidate pairs of 9-64 nodes (connected regions of an
# 8x8 mesh, relabelled) and 12 of 65-192 (of a 14x14 mesh): the same
# `GedResult`, mapping included. It fails unless it met weighted requests,
# candidates with node kinds, weighted candidates, pairs above 32 nodes,
# at 64, above 64, at 128, 129 and 192, and nonzero distances.
cargo test -p vnpu_topo -q bitset_bipartite_matches_the_edge_table_kernel -- --nocapture
# `hungarian::solve` takes a flat matrix, keeps `i64` potentials, settles
# them lazily once a phase (a step is one pass over the columns outside
# the tree) and allocates its scratch once a call. The campaign holds it
# to the replaced row-of-`Vec`s, `i128` solver with eager potentials
# (test-only `reference`) on 600 random square matrices of up to 128 rows
# with INF cells (one finite assignment kept) and few distinct values, and
# on 1 200 matrices shaped as `StockRefiner::assignment` builds them (up
# to 12 request nodes, equal and unequal sides, kind-and-degree
# substitutions, weighted deletions, the insertion diagonal and the zero
# block): the same assignment and total. It fails unless it met INF cells,
# tied row minima, more than 64 rows, 128, unequal sides and a tie for a
# step's minimum on a multi-step augmenting path.
cargo test -p vnpu_topo -q flat_i64_solver_matches_the_i128_reference -- --nocapture
# Behind a placement-cache miss, a search looks each candidate's edit
# distance and 2-opt results up in the cache's score memo, keyed by structure with
# edge costs left out. The campaign holds one long-lived cache's searches
# to memo-free `map_in` over 1 024 free regions of chips, one with a
# column of another core kind, and shipped and cost-annotated requests.
# It fails unless the edit-distance, refinement and assignment tables hit
# and none was cleared.
cargo test -p vnpu_topo -q score_memo_matches_fresh_scoring -- --nocapture
# On an edit-distance miss above 8 nodes, the bipartite assignment comes
# from the score memo's assignment table, keyed by the candidate's kinds
# and degrees node by node rather than its structure (debug builds solve
# again on every lookup and assert the same assignment). The campaign holds
# every memoised score of 9-12-node candidates (ESU walks over random free
# regions of the campaign chips and a 6x6 with kinds sprinkled; shipped,
# cost-annotated and kind-sprinkled requests) to a fresh
# `StockRefiner::bipartite`, and fails unless mixed kinds and weighted
# requests were met, the table was never cleared, and it hit for a
# candidate of another structure than the one that stored the entry.
cargo test -p vnpu_topo -q bipartite_assignments_are_shared_by_kind_and_degree -- --nocapture
# Every visited candidate is keyed by its structure (kinds and adjacency
# in sorted-cell order, computed from the cells), and its canonical key and
# isomorphism to the request come from the memo's class and iso tables.
# The campaign holds a long-lived cache's exact-only and similar-topology
# searches, and a fresh cache's, to memo-free `map_in` over 1 024 free
# regions. It fails unless the class table hit, some class hit joined
# candidates at different cells, and the iso table hit on the rectangle
# path and in a walk.
cargo test -p vnpu_topo -q structure_memo_matches_fresh_search -- --nocapture
# The kernels never read a candidate's edge costs, so the score memo's
# edit-distance tables serve every chip. The campaign holds each campaign
# chip's twin with links costing 1 to 4 (mesh shape kept) to the plain
# chip under `map_in`, `map_scored` and `map_cached`, for all three
# strategy kinds, over 384 free regions, and fails unless every kind
# placed, some search placed at a nonzero distance and the weighted chips
# looked candidates up in the GED and REFINE tables.
cargo test -p vnpu_topo -q a_candidates_edge_costs_move_no_score -- --nocapture
# Advisory probes (fit hints, defrag remap probes) search through the
# placement cache's score memo with `Mapper::map_scored`. The test
# interleaves probes and placements through one cache over 512 free
# regions, holds both to memo-free `map_in`, and fails unless the probes
# looked up and hit the memo while leaving the entries and `stats()` as
# they were.
cargo test -p vnpu_topo -q map_scored_shares_the_score_memo_and_leaves_the_entries_alone -- --nocapture

section "simulator miss-path gate"
# The paper cells' simulated counters (makespan, NoC packets and
# contention, HBM wait, translation cycles, per-core TranslateStats) are
# pinned absolutely, at values captured before the page table, the IOTLB
# and the packet-arrival path were rewritten (the Fig. 14 BERT-base rows,
# the longest DMA streams, before transfers went by translation runs; the
# AlexNet IOTLB rows, whose weight slices start mid-page, before streams of
# page misses were booked at once; the Fig. 15 block-64, Fig. 16 48-core and
# GoogLeNet physical rows, whose packets wait on links, before sends went
# by packet trains): a
# simulator change that moves any of them fails here, not only one that
# moves a frame rate.
cargo test --test baselines -q paper_cells_are_pinned
# Each replacement keeps what it replaced as a test-only reference and a
# seeded campaign holds the two together: the runs page table to the
# per-page `BTreeMap` (same `Ok`/`Err`, `len()` and lookups over
# unaligned, empty, adjacent and overlapping ranges), the one-scan IOTLB
# to the scan-everything LRU (same hits, same victim, capacities 1 / 4 /
# 32), and one wake per parked receiver to a wake per packet (identical
# reports and deadlock texts over multi-tenant rings with small flow
# credit, uneven splits and receivers posted before and after senders).
cargo test -p vnpu_mem -q runs_table_matches_the_btreemap_reference -- --nocapture
cargo test -p vnpu_mem -q tlb_matches_the_scan_everything_lru -- --nocapture
cargo test -p vnpu_sim -q lazy_arrivals_match_a_wake_per_packet -- --nocapture
# A DMA transfer streams by translation runs: one lookup, then one
# closed-form HBM service for the same-size bursts the entry serves. The
# closed form is held to `k` repeated `Hbm::access` calls (same
# completion, per-channel busy, wait and bytes) on idle and pre-busy
# channels, with service above, equal to and below the stride, k 1..4096.
cargo test -p vnpu_sim -q access_run_matches_repeated_access -- --nocapture
# Whole machines are held to the per-burst schedule runs replaced (one
# `translate` and one `access` per burst): physical, range TLB 1 / 4 over
# VA-contiguous entries that bursts straddle, page TLB 4 / 32, burst sizes
# that do not divide the page, ragged tails, limiter and memory trace on
# and off, faults — identical reports, channels, `TranslateStats` and
# whole translator state (resident TLB sets and LRU ticks). Page-aligned
# offsets and page-dividing bursts make streams of page misses, and the
# campaign fails unless both page TLB sizes booked some as miss runs.
cargo test -p vnpu_sim -q dma_runs_match_the_per_burst_reference -- --nocapture
# A stream of page misses is booked at once: `m` periods (a miss, then
# hits on the page it filled), the TLB's final slots, ticks and MRU
# written in O(capacity). The campaign holds a booking to translating
# its every burst — whole-translator equality, capacities 1 / 4 / 32
# from empty, partly filled and full TLBs, resident pages behind and
# ahead, aligned and straddling openings, bursts of 512 B to 4 KiB — and
# every refusal (wrong walk cost, non-MRU opening, run end, read-only run,
# a period that is not a page) to leaving the translator untouched.
cargo test -p vnpu_mem -q miss_run -- --nocapture
# A send walks its packets one by one only while they wait on a link, then
# books the rest of its full packets as one train (each path link's clock
# and load moved at once, one run node for their arrivals). The campaign
# holds trains to sending every packet on its own, over multi-tenant rings
# with foreign traffic on the path, self-sends, ragged tails and
# sub-packet sends, strides equal to the serialization time, small flow
# credit, degraded routers, a second thread under one core ID overtaking a
# run, and budgets that end mid-train: identical reports, deadlock and
# cycle-limit texts, every link's clock and load, the packets in flight
# and the sequence numbers drawn — and, against a wake per packet, the
# wake times. It fails unless trains were booked and every such case was
# reached.
cargo test -p vnpu_sim -q send_trains_match_the_per_packet_reference -- --nocapture
# The event queue keeps the event pushed last outside its heap and pops it
# without touching the heap when it is the earliest. The campaign drives
# the queue and a plain `BinaryHeap` through random pushes and pops, with
# unique keys never earlier than the last pop and some pushes under an
# older sequence number (as a wake is queued under its packet's): the two
# pop sequences must be identical, and it fails unless pops came from the
# kept event, swapped it with the heap top, and older numbers were pushed.
cargo test -p vnpu_sim -q event_queue_pops_in_heap_order -- --nocapture
# Routed sends, pinned: the test drives DOR-on-physical-ID rings and
# VRouterNoc rings (DOR and confined) through repeated and alternating
# destinations, empty sends and self-sends, two threads under one virtual
# core ID, a destination the tenant does not have and links faulted
# before the epoch, and holds every outcome and error text to absolute
# constants.
cargo test -p vnpu -q routed_ring_sends_are_pinned -- --nocapture

section "audit gate"
# The fleet audit runs after every audited tick over flat arrays: each
# tenant's paths in one buffer with end offsets, links as dense ids from
# the topology's sorted adjacency, the deadlock search as one DFS over
# those ids. It takes an isolated tenant's routes from the record
# deployed with its cores and derives none itself, so a stale record is
# flagged. `FleetAuditor`, the serve loop's auditor, keeps each chip's
# routing findings while its `phys_key` and `(vm, deployment stamp)` list
# are unchanged and re-walks only redeployed tenants; the accounting half
# runs fresh every audit. The pins hold its exact outputs (the ROUTE-CDG
# witness, a DOR fleet whose shared links are no finding, ROUTE-CONF +
# ROUTE-ISO findings with their order and text, a deployed route over a
# core outside the allocation) and an off-mesh core that used to panic
# `confined_path`. The campaigns hold the routing pass, the cycle search
# and `audit_chip` to the BTreeMap passes they replaced (test-only
# `reference` modules, which derive confined routes themselves), and the
# memoised `FleetAuditor` to that oracle on every step of churned,
# faulted, reserved, drained and redeployed (remapped, defragmented,
# migrated across chips) fleets; the fleet campaign fails unless the
# memo reused whole chips and kept tenants beside rebuilt ones. The
# warm-memo test holds a filled memo to an accounting corruption that
# moves no stamp, to a ROUTE-ISO leak a new tenant opens against a
# cached one, and to that leak closing when the same VM is remapped.
for test in \
  crafted_turn_cycle_is_a_deadlock_finding \
  dor_fleet_shares_links_without_default_findings \
  isolated_pair_and_wrap_escape_findings_are_pinned \
  stale_deployed_route_escaping_the_allocation_is_flagged \
  off_mesh_cores_are_skipped_not_a_panic \
  flat_routing_matches_the_btreemap_reference \
  flat_cycle_search_matches_the_btreemap_reference \
  flat_fleet_audit_matches_the_btreemap_reference \
  warm_memo_still_flags_accounting_drift_and_new_route_leaks; do
  cargo test -p vnpu_audit -q "$test" -- --nocapture
done
cargo test -p vnpu_topo -q nodes_outside_the_mesh_are_unroutable_not_a_panic

section "plan/commit agreement gate"
# A plan is the commit's op loop run on a copy, so there is no second
# planner to hold it to: the commit is the oracle. The campaign drives
# single and multi-op migration plans (remap + compaction of one VM, a
# budgeted prefix, with temporal-sharing residents on the chip) between
# direct creates and destroys, and fails if an un-intervened
# `commit(plan(ops))` fails, pays anything but the planned price op for
# op, or omits from its receipt anything but the zero-cost no-ops, if a
# commit staled by a direct create or destroy is not a byte-identical
# `StalePlan` — or if one of those plan shapes was never reached.
cargo test --test props -q placement_plan_churn_is_transactional_and_leak_free
# A remap-under-pin with no healthy window left is a refused plan: it
# returns the mapping error and changes neither the placement state nor
# the machine's pauses. Detection is one predicate, checked on a dead
# owned core, a dead link at an owned endpoint, a transit-only link, an
# unowned fault and a repair, and on a link only the DOR routes of a
# tenant cross, which does not affect it once it is confined.
cargo test -p vnpu -q recover_in_place_without_a_healthy_window_rolls_back
cargo test -p vnpu_fault -q tenant_affected_sees_cores_endpoints_and_transit_links
cargo test -p vnpu_fault -q confined_tenant_is_affected_only_by_links_its_deployed_routes_cross
echo "plan/commit gate: every un-intervened plan committed at its planned prices"

section "temporal verification gate"
# Mutation suite: every seeded trace corruption (dropped admission,
# stalled drain, overdue recovery, leaked quiescence, oversized hint)
# must be flagged
# under exactly its TEMP-* rule while the pristine scenario traces
# check clean online and offline.
cargo test --test temporal_mutations -q
# The report's pending-recovery count is 0 after the final drain: a
# retirement drops the tenant's pending entry, so no outage outlives it.
cargo test -p vnpu_serve -q final_drain_clears_pending_recoveries
# (The specificity half ran once already, under `cargo test -q`:
# `tests/scenarios.rs` drives the drain, fault and defrag lifecycles with
# the fleet audit, the online checker and trace recording on and again
# with all three off — no TEMP-* finding, a clean offline replay, tick
# events and report JSON identical between the two.)
echo "temporal gate: mutants flagged, pristine traces clean"

section "cargo run --release --example cluster_serving"
cargo run --release --example cluster_serving

section "cargo run --release --example defrag_serving"
cargo run --release --example defrag_serving

section "cargo run --release --example drain_serving"
cargo run --release --example drain_serving

section "cargo run --release --example fault_serving"
cargo run --release --example fault_serving

echo "-- $title: $((SECONDS - opened)) s"
echo "verify: $SECONDS s in total"
echo "verify: OK"
