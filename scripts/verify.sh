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
# `TraceFold::recovered_tenants`.
CORE_SERVE_CODE_MAX=4865
TOPO_CODE_MAX=2250
WORKSPACE_CODE_MAX=15892
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

section "mapper differential gate"
# A mapper search is one walk of the candidate enumeration. The campaign
# holds it to the two-walk search it replaced (kept as a test-only
# reference in `mapping.rs`): identical `Result<Mapping>`s over 1 024
# seeded free regions x shipped request shapes x caps x both enumerating
# strategy kinds, and every outcome (exact hit, scored miss, NoCandidate,
# disconnected fallback) reached.
cargo test -p vnpu_topo -q one_walk_search_matches_the_two_walk_reference -- --nocapture
# The kernels a search spends its time in (canonical key, ESU walk, exact
# A*, 2-opt refinement) each keep the implementation they replaced as a
# test-only `reference` module beside them, and a seeded campaign holds
# the two to identical results: the same key partition, the same visited
# sequence and count however the walk ends, the same `GedResult` mapping
# included, the same refined `(mapping, cost)` from total and partial
# starts under both cost models.
for campaign in \
  key_partition_matches_the_hashing_reference \
  bitmask_walk_matches_the_btreeset_reference \
  exact_search_matches_the_vec_cloning_reference \
  delta_refinement_matches_the_full_recompute_reference; do
  cargo test -p vnpu_topo -q "$campaign" -- --nocapture
done
# Behind a placement-cache miss, a search looks each candidate's `ged` and
# 2-opt results up in the cache's score memo, keyed by structure with
# `mem_distance` left out. The campaign holds one long-lived cache's
# searches to memo-free `map_in` over 1 024 free regions of chips
# annotated with memory distances, shipped and cost-annotated requests,
# and HeteroCosts strategies (which must bypass the memo). It fails unless
# both tables hit and some hit joined candidates whose `mem_distance`
# differ.
cargo test -p vnpu_topo -q score_memo_matches_fresh_scoring -- --nocapture
# Every visited candidate is keyed by its structure (kinds and adjacency
# in sorted-cell order, computed from the cells), and its canonical key and
# isomorphism to the request come from the memo's class and iso tables.
# The campaign holds a long-lived cache's exact-only and similar-topology
# searches, and a fresh cache's, to memo-free `map_in` over 1 024 free
# regions, with a fifth chip whose one costly edge bypasses the
# edit-distance tables but not these two. It fails unless the class table
# hit, some class hit joined candidates at different cells, and the iso
# table hit on the rectangle path and in a walk.
cargo test -p vnpu_topo -q structure_memo_matches_fresh_search -- --nocapture

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

section "audit gate"
# The fleet audit runs after every audited tick over flat arrays: paths
# in one buffer with end offsets, links as dense ids from the topology's
# sorted adjacency, the deadlock search as one DFS over those ids. The
# pins hold its exact outputs (the ROUTE-CDG witness, a DOR fleet whose
# shared links are no finding, ROUTE-CONF + ROUTE-ISO findings with their
# order and text) and an off-mesh core that used to panic `confined_path`; the
# campaigns hold the routing pass, the cycle search and `audit_chip` /
# `FleetAuditor::audit` to the BTreeMap passes they replaced (test-only
# `reference` modules): identical findings over random meshes, a torus
# with and without its mesh tag, hostile tenant sets and churned,
# faulted, reserved and drained fleets.
for test in \
  crafted_turn_cycle_is_a_deadlock_finding \
  dor_fleet_shares_links_without_default_findings \
  isolated_pair_and_wrap_escape_findings_are_pinned \
  off_mesh_cores_are_skipped_not_a_panic \
  flat_routing_matches_the_btreemap_reference \
  flat_cycle_search_matches_the_btreemap_reference \
  flat_fleet_audit_matches_the_btreemap_reference; do
  cargo test -p vnpu_audit -q "$test" -- --nocapture
done
cargo test -p vnpu_topo -q nodes_outside_the_mesh_are_unroutable_not_a_panic

section "plan/commit agreement gate"
# A plan is the commit's op loop run on a copy, so there is no second
# planner to hold it to: the commit is the oracle. The campaign drives
# single ops and multi-op mixed plans (destroy-then-create into the freed
# region, remap + compaction of one VM, a budgeted prefix, with
# temporal-sharing residents on the chip) and fails if an un-intervened
# `commit(plan(ops))` fails, pays anything but the planned price op for
# op, or omits from its receipt anything but the zero-cost no-ops — or if
# one of those plan shapes was never reached.
cargo test --test props -q placement_plan_churn_is_transactional_and_leak_free
echo "plan/commit gate: every un-intervened plan committed at its planned prices"

section "temporal verification gate"
# Mutation suite: every seeded trace corruption (dropped admission,
# stalled drain, overdue recovery, leaked quiescence, oversized hint)
# must be flagged
# under exactly its TEMP-* rule while the pristine scenario traces
# check clean online and offline.
cargo test --test temporal_mutations -q
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
