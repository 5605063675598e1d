//! One benchmark run: one workload, one seed, in this process. The
//! untraced run yields the end-to-end metrics; the traced run repeats the
//! workload with spans, phase timing and the counting allocator on, adds
//! the layer replay and the direct calls, and yields the per-layer
//! metrics. Both check that the program's outputs are correct.

use crate::host;
use crate::metrics::Measured;
use crate::micro;
use crate::paper::{self, FpsTable, Suite};
use crate::replay::{self, Replay};
use crate::serve_load::{self, Round, ServeWorkload, PASSES, SMOKE_DIVISOR};
use crate::span::{self, Recorder, Span};
use crate::stats::{
    highest_supported_percentile, interquartile_mean, median, percentile, tail_len, tail_mean,
    MIN_BEYOND, TAIL_SHARE,
};
use std::time::Instant;

/// Ticks of the layer replay.
const REPLAY_TICKS: u64 = 1_500;
/// Timed ticks of each side of the worker-pool probe.
const W2_PROBE_TICKS: u64 = 2_000;
/// Cell runs per second the seed commit reached on the reference host;
/// it turns `--seconds` into `paper_static`'s round count.
const PAPER_SEED_CELLS_PER_S: f64 = 77.0;
/// The share of the seconds asked for that `paper_static` times cells
/// for: its set-ups take the rest, and on a calm host it spreads 1–3%.
const PAPER_SECONDS_SHARE: f64 = 0.7;
/// Set-ups `paper_static` times (it reports their median).
const PAPER_SETUPS: usize = 3;
/// Rounds of each side of `paper_static`'s tracing-overhead comparison.
const PAPER_TRACE_ROUNDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds to measure for: fixes how many request streams (or rounds
    /// of cells) the run times, not when it stops.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// Smoke mode: one stream of a tenth the ticks (two rounds of cells).
    pub smoke: bool,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops timed.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Correctness-gate failures; the run is correct when empty.
    pub failures: Vec<String>,
    /// The metrics, by catalogue name.
    pub metrics: Measured,
    /// Hash of the untimed model outputs (report JSON, or the cells'
    /// frame rates): any drift of a simulated statistic changes it.
    pub model_digest: u64,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Free-form lines for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check passed and no op failed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// The seed of request stream `k` of a run seeded `seed`. A run plays
/// several streams so that it averages over them; splitmix64
/// keeps neighbouring seeds apart (the traffic generator ignores the
/// lowest bit).
fn stream_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `text`.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// Runs `args`; unknown workloads are a usage error for the caller.
pub fn run(args: &RunArgs) -> Option<Outcome> {
    let mut out = Outcome::default();
    if let Some(workload) = serve_load::by_name(&args.workload) {
        if args.trace {
            serve_traced(workload, args, &mut out);
        } else {
            serve_untraced(workload, args, &mut out);
        }
    } else if args.workload == "paper_static" {
        paper_run(args, &mut out);
    } else {
        return None;
    }
    Some(out)
}

/// The end-to-end metrics every workload reports, from the run's judged
/// op times: their count over their sum (`ops_per_s`), the typical op
/// (interquartile mean), the tail (mean of the slowest tenth), the median
/// set-up, and what the workload accepted of what it was offered.
fn end_to_end(out: &mut Outcome, op_ns: &mut [u64], setups: &[f64], (ok, offered): (u64, u64)) {
    let in_tail = tail_len(op_ns.len(), TAIL_SHARE);
    if in_tail < MIN_BEYOND {
        out.notes.push(format!(
            "{} ops: op_tail10_us rests on {in_tail} samples, fewer than {MIN_BEYOND}",
            op_ns.len()
        ));
    }
    op_ns.sort_unstable();
    let busy_s = op_ns.iter().sum::<u64>() as f64 / 1e9;
    out.notes.push(format!(
        "{} ops judged, {busy_s:.3} s of them; p99 {:.3} us",
        op_ns.len(),
        percentile(op_ns, 99.0) as f64 / 1e3
    ));
    out.metrics.insert("setup_s", median(setups));
    out.metrics.insert("ops_per_s", op_ns.len() as f64 / busy_s);
    out.metrics
        .insert("op_iqm_us", interquartile_mean(op_ns) / 1e3);
    out.metrics
        .insert("op_tail10_us", tail_mean(op_ns, TAIL_SHARE) / 1e3);
    out.metrics
        .insert("peak_rss_mib", host::peak_rss_mib().unwrap_or(0.0));
    out.metrics
        .insert("accept_ratio", ok as f64 / offered.max(1) as f64);
}

/// A failed round: counted as one failed op, with the error as a gate
/// failure.
fn round_or_fail<E: std::fmt::Display>(
    out: &mut Outcome,
    round: Result<Round, E>,
) -> Option<Round> {
    match round {
        Ok(mut round) => {
            out.failures.append(&mut round.failures);
            Some(round)
        }
        Err(e) => {
            out.failed += 1;
            out.failures.push(format!("a tick failed: {e}"));
            None
        }
    }
}

/// What the earlier passes over a request stream left for the next: each
/// tick's fastest time so far, and the report every pass must repeat.
struct FirstPass {
    op_ns: Vec<u64>,
    report_digest: u64,
}

fn serve_untraced(workload: &ServeWorkload, args: &RunArgs, out: &mut Outcome) {
    let ticks = workload.ticks(args.smoke);
    let streams = workload.streams(args.seconds, args.smoke);
    let mut first: Vec<FirstPass> = Vec::new();
    let mut setups = Vec::new();
    let (mut ok, mut offered, mut findings) = (0u64, 0u64, (0u64, 0u64));
    // Every stream once, then every stream again, and again: a stream's
    // passes lie a third of a run apart, so a busy spell of the host
    // rarely covers them all.
    for pass in 0..PASSES {
        for s in 0..streams {
            let round = serve_load::run_round(workload, stream_seed(args.seed, s), ticks, 1, None);
            let Some(round) = round_or_fail(out, round) else {
                return;
            };
            out.attempted += round.op_ns.len() as u64;
            setups.push(round.setup_s);
            let report_digest = digest(&round.report.to_json(usize::MAX));
            if pass == 0 {
                let (accepted, submitted) = round.accepted_of_submitted();
                ok += accepted;
                offered += submitted;
                findings.0 += round.report.audit_findings;
                findings.1 += round.report.temporal_findings;
                if workload.rolling_drain && s == 0 {
                    out.notes.push(format!(
                        "stream 0: drains begun/completed/handed back {:?}",
                        round.drains
                    ));
                }
                first.push(FirstPass {
                    op_ns: round.op_ns,
                    report_digest,
                });
                continue;
            }
            let before = &mut first[s as usize];
            if before.report_digest != report_digest {
                out.failures
                    .push("a same-seed rerun produced a different report".to_owned());
            }
            for (best, again) in before.op_ns.iter_mut().zip(&round.op_ns) {
                *best = (*best).min(*again);
            }
        }
    }
    out.model_digest = first
        .iter()
        .fold(0, |h, f| digest(&format!("{h:x} {:x}", f.report_digest)));
    let mut op_ns: Vec<u64> = first.into_iter().flat_map(|f| f.op_ns).collect();
    out.notes.push(format!(
        "{streams} streams of {ticks} ticks, {PASSES} passes each"
    ));
    if workload.rolling_drain {
        out.notes.push(format!(
            "online findings over the streams: {} audit, {} temporal",
            findings.0, findings.1
        ));
    }
    end_to_end(out, &mut op_ns, &setups, (ok, offered));
}

/// The traced report with its wall-clock fields cleared: what must equal
/// the untraced report of the same stream, byte for byte.
fn without_wall_clock(round: &Round) -> String {
    let mut r = round.report.clone();
    r.recovery_nanos = 0;
    r.admission_nanos = 0;
    r.drain_nanos = 0;
    r.defrag_nanos = 0;
    r.execution_nanos = 0;
    for chip in &mut r.per_chip {
        chip.exec_nanos = 0;
    }
    r.to_json(usize::MAX)
}

fn serve_traced(workload: &ServeWorkload, args: &RunArgs, out: &mut Outcome) {
    let ticks = workload.ticks(args.smoke);
    let replay_ticks = if args.smoke {
        REPLAY_TICKS / SMOKE_DIVISOR
    } else {
        REPLAY_TICKS
    };
    let stream = stream_seed(args.seed, 0);
    let mut rec = Recorder::with_capacity(4 * ticks as usize + 16 * replay_ticks as usize);

    let plain = serve_load::run_round(workload, stream, ticks, 1, None);
    let Some(plain) = round_or_fail(out, plain) else {
        return;
    };
    let traced = serve_load::run_round(workload, stream, ticks, 1, Some(&mut rec));
    let Some(traced) = round_or_fail(out, traced) else {
        return;
    };
    out.attempted = (plain.op_ns.len() + traced.op_ns.len()) as u64;
    let plain_json = plain.report.to_json(usize::MAX);
    out.model_digest = digest(&plain_json);
    if plain_json != without_wall_clock(&traced) {
        out.failures
            .push("tracing changed the report: observing must not perturb the model".to_owned());
    }

    // Only what this workload's configuration switches on is measured:
    // a phase, checker or layer that is off yields no row, not a 0.
    let cfg = workload.config(stream, replay_ticks);
    let faults = !cfg.fault_plan.is_empty();
    let m = &mut out.metrics;
    let info = traced
        .trace
        .as_ref()
        .expect("the traced round carries its trace");
    let per_tick = |ns: u64| ns as f64 / ticks as f64;
    let [recovery, admission, drain, defrag, execution] = info.phase_ns;
    let phases: u64 = info.phase_ns.iter().sum();
    let r = &traced.report;
    m.insert("serve.admission_ns_per_tick", per_tick(admission));
    if cfg.execute_epochs {
        m.insert("serve.execution_ns_per_tick", per_tick(execution));
        m.insert("sim.machine_cycles", r.machine_cycles as f64);
    }
    if cfg.defrag.is_some() {
        m.insert("serve.defrag_ns_per_tick", per_tick(defrag));
        m.insert("serve.migrations", r.migrations as f64);
    }
    if workload.rolling_drain {
        m.insert("serve.drain_ns_per_tick", per_tick(drain));
        m.insert("serve.drain_migrations", r.drain_migrations as f64);
    }
    if faults {
        m.insert("serve.recovery_ns_per_tick", per_tick(recovery));
        m.insert("fault.onsets", r.faults_injected as f64);
        m.insert("fault.recovered", r.recovered_tenants() as f64);
        m.insert("fault.lost", r.tenants_lost as f64);
        m.insert("fault.mttr_mean_ticks", r.mean_mttr_ticks());
    }
    m.insert(
        "serve.overhead_ns_per_tick",
        per_tick(info.step_ns.saturating_sub(phases)),
    );
    m.insert("serve.allocs_per_tick", per_tick(info.allocs));
    m.insert("serve.alloc_bytes_per_tick", per_tick(info.alloc_bytes));
    m.insert("serve.trace_events_per_tick", per_tick(info.trace_events));
    m.insert("serve.final_drain_ns", info.final_drain_ns as f64);
    m.insert("serve.report_ns", info.report_ns as f64);
    // The 99th percentile of the untraced round's ticks, when at least
    // ten samples lie beyond it (a single pass of one stream: noisier
    // than the end-to-end tail, and not bounded).
    if highest_supported_percentile(plain.op_ns.len()).is_some_and(|p| p >= 99.0) {
        m.insert(
            "op_p99_us",
            percentile(&sorted(&plain.op_ns), 99.0) as f64 / 1e3,
        );
    }
    m.insert("serve.submitted", r.submitted as f64);
    m.insert("serve.accepted", r.accepted as f64);
    m.insert("serve.rejected", r.rejected as f64);
    m.insert("serve.queued_at_end", r.queued_at_end as f64);
    m.insert("place_cycles_p50", r.p50_placement_cycles as f64);
    m.insert("place_cycles_p99", r.p99_placement_cycles as f64);
    let (ok, submitted) = traced.accepted_of_submitted();
    m.insert("fail_ratio", 1.0 - ok as f64 / submitted.max(1) as f64);
    m.insert("topo.cache_hits", r.cache.hits as f64);
    m.insert("topo.cache_misses", r.cache.misses as f64);
    m.insert("topo.cache_hit_ratio", r.cache_hit_rate());
    if info.executed_epochs > 0 {
        m.insert(
            "sim.run_epoch_ns",
            info.exec_ns as f64 / info.executed_epochs as f64,
        );
        m.insert(
            "sim.cycles_per_host_s",
            info.machine_cycles as f64 / (info.exec_ns as f64 / 1e9),
        );
    }
    m.insert("audit.tick_ns", info.audit_tick_ns);
    if cfg.audit {
        m.insert("audit.findings", r.audit_findings as f64);
    }
    let per_event = |ns: u64| ns as f64 / info.events.max(1) as f64;
    m.insert("temporal.fold_ns_per_event", per_event(info.fold_ns));
    m.insert("temporal.check_ns_per_event", per_event(info.check_ns));
    m.insert("temporal.findings", info.offline_findings as f64);
    m.insert(
        "trace_overhead_ratio",
        plain.ops_per_s() / traced.ops_per_s(),
    );
    m.insert(
        "trace_accounted_ratio",
        info.step_ns as f64 / traced.wall_ns as f64,
    );

    match replay::replay(&cfg, replay_ticks, &mut rec) {
        Ok(replayed) => replay_metrics(&replayed, cfg.execute_epochs, m),
        Err(e) => out.failures.push(e),
    }
    direct_calls(&mut rec, out);

    // The ROADMAP's keep-or-delete record for the worker pool: the same
    // fleet ticked by two workers against one. Never more threads than
    // the host has.
    if workload.name == "fleet16_exec" && !args.smoke {
        if host::available_parallelism() >= 2 {
            let ticks = W2_PROBE_TICKS;
            let one = serve_load::run_round(workload, stream, ticks, 1, None);
            let two = serve_load::run_round(workload, stream, ticks, 2, None);
            if let (Some(one), Some(two)) = (round_or_fail(out, one), round_or_fail(out, two)) {
                out.metrics
                    .insert("conc.fleet16_w2_ratio", two.ops_per_s() / one.ops_per_s());
            }
        } else {
            out.notes
                .push("conc.fleet16_w2_ratio skipped: the host offers one thread".to_owned());
        }
    }
    out.spans = rec.into_spans();
}

fn replay_metrics(r: &Replay, executed: bool, m: &mut Measured) {
    let cold = sorted(&r.map_cold_ns);
    m.insert("topo.map_cold_ns_p50", percentile(&cold, 50.0) as f64);
    m.insert("topo.map_cold_ns_p99", percentile(&cold, 99.0) as f64);
    m.insert("topo.map_hit_ns", mean(&r.map_hit_ns));
    m.insert("topo.freeset_update_ns", mean(&r.freeset_ns));
    // The create's mapping comes from the cache the replay seeded: what
    // remains after a hit's cost is the hypervisor's own work.
    m.insert(
        "core.create_ns",
        (mean(&r.create_ns) - mean(&r.map_hit_ns)).max(0.0),
    );
    m.insert("core.destroy_ns", mean(&r.destroy_ns));
    m.insert("core.plan_commit_ns", mean(&r.plan_commit_ns));
    m.insert(
        "core.config_cycles_per_create",
        r.config_cycles as f64 / r.creates.max(1) as f64,
    );
    if executed {
        m.insert("core.services_ns", mean(&r.services_ns));
        m.insert("sim.noc_packets", r.noc_packets as f64);
        m.insert("sim.noc_contention_cycles", r.noc_contention_cycles as f64);
        m.insert("sim.hbm_wait_cycles", r.hbm_wait_cycles as f64);
        m.insert("mem.translation_cycles", r.translation_cycles as f64);
    }
}

fn direct_calls(rec: &mut Recorder, out: &mut Outcome) {
    match micro::run(rec) {
        Ok(micro) => {
            let m = &mut out.metrics;
            m.insert("mem.range_translate_ns", micro.range_translate_ns);
            m.insert("mem.page_translate_ns", micro.page_translate_ns);
            m.insert("mem.buddy_alloc_free_ns", micro.buddy_alloc_free_ns);
            m.insert("topo.map_large_ns", micro.map_large_ns);
        }
        Err(e) => out.failures.push(e),
    }
}

/// The cell order of one round: a seeded shuffle, so the seed reaches
/// the program as generated input while every round runs every cell.
fn cell_order(cells: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cells).collect();
    for i in (1..cells).rev() {
        let j = stream_seed(seed ^ round.rotate_left(32), i as u64) % (i as u64 + 1);
        order.swap(i, j as usize);
    }
    order
}

/// One round over every cell; returns the frame-rate table (in cell
/// order) and per-cell reports when asked.
fn paper_round(
    suite: &Suite,
    order: &[usize],
    mut rec: Option<&mut Recorder>,
    op_ns: &mut Vec<u64>,
    out: &mut Outcome,
    mut reports: Option<&mut Vec<(usize, crate::api::Report)>>,
) -> (FpsTable, u64) {
    let mut table: FpsTable = vec![Vec::new(); suite.cells.len()];
    let start = Instant::now();
    for &i in order {
        let cell = &suite.cells[i];
        let t = Instant::now();
        let open = rec.as_deref_mut().map(|r| {
            r.next_op();
            r.enter("op")
        });
        let result = cell.run(rec.as_deref_mut());
        let ns = match (rec.as_deref_mut(), open) {
            (Some(r), Some(open)) => r.exit(open),
            _ => t.elapsed().as_nanos() as u64,
        };
        op_ns.push(ns);
        match result {
            Ok(run) => {
                table[i] = run.fps;
                if let Some(reports) = reports.as_deref_mut() {
                    reports.push((i, run.report));
                }
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
            }
        }
    }
    (table, start.elapsed().as_nanos() as u64)
}

fn fps_digest(suite: &Suite, table: &FpsTable) -> u64 {
    let text: String = suite
        .cells
        .iter()
        .zip(table)
        .map(|(cell, fps)| format!("{} {fps:?}\n", cell.name()))
        .collect();
    digest(&text)
}

/// Checks each round's frame rates: the first round's go through the
/// paper's gate and fix the digest, every later round must equal them.
#[derive(Default)]
struct PaperCheck {
    first: Option<FpsTable>,
}

impl PaperCheck {
    fn round(&mut self, suite: &Suite, table: FpsTable, out: &mut Outcome) {
        match &self.first {
            None => {
                out.model_digest = fps_digest(suite, &table);
                out.failures.extend(paper::gate(&suite.ratios(&table)));
                self.first = Some(table);
            }
            Some(first) if *first != table => out
                .failures
                .push("a rerun of the cells produced different frame rates".to_owned()),
            Some(_) => {}
        }
    }
}

fn paper_run(args: &RunArgs, out: &mut Outcome) {
    // Set-up, several times over: its median is `setup_s`.
    let mut setups = Vec::new();
    let mut suite = None;
    for _ in 0..if args.smoke { 1 } else { PAPER_SETUPS } {
        let t = Instant::now();
        match paper::build() {
            Ok(built) => suite = Some(built),
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
                return;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    let suite = suite.expect("at least one set-up ran");
    if args.trace {
        paper_traced(&suite, args, out);
    } else {
        paper_untraced(&suite, &setups, args, out);
    }
}

fn paper_untraced(suite: &Suite, setups: &[f64], args: &RunArgs, out: &mut Outcome) {
    let cells = suite.cells.len();
    // As many rounds as the seed commit ran in `--seconds` on the
    // reference host: a cell count, not the clock, ends the run.
    let rounds = if args.smoke {
        2
    } else {
        let cell_runs = args.seconds * PAPER_SECONDS_SHARE * PAPER_SEED_CELLS_PER_S;
        ((cell_runs / cells as f64).round() as usize).max(2)
    };
    let mut check = PaperCheck::default();
    // Op times by round, then by cell.
    let mut times: Vec<Vec<u64>> = Vec::new();
    for k in 0..rounds {
        let order = cell_order(cells, args.seed, k as u64);
        let mut in_order = Vec::new();
        let (table, _) = paper_round(suite, &order, None, &mut in_order, out, None);
        if out.failed > 0 {
            return;
        }
        check.round(suite, table, out);
        let mut by_cell = vec![0; cells];
        for (&cell, &ns) in order.iter().zip(&in_order) {
            by_cell[cell] = ns;
        }
        times.push(by_cell);
    }
    out.notes.push(format!("{rounds} rounds of {cells} cells"));
    out.attempted = (rounds * cells) as u64;
    // A cell simulates the same thing every round, so — as with a serve
    // stream's passes — each of its runs counts with the fastest of
    // itself and its runs one and two thirds of the rounds later.
    let apart = (rounds / PASSES as usize).max(1);
    let mut op_ns: Vec<u64> = (0..rounds)
        .flat_map(|r| {
            let times = &times;
            (0..cells).map(move |c| {
                (0..PASSES as usize)
                    .map(|k| times[(r + k * apart) % rounds][c])
                    .min()
                    .expect("at least one pass")
            })
        })
        .collect();
    end_to_end(out, &mut op_ns, setups, (out.attempted, out.attempted));
}

/// Plain rounds and rounds with spans around each call, turn and turn
/// about so both see the same host; the last traced round also keeps the
/// simulator's reports.
fn paper_traced(suite: &Suite, args: &RunArgs, out: &mut Outcome) {
    let cells = suite.cells.len();
    let mut check = PaperCheck::default();
    let rounds = if args.smoke { 1 } else { PAPER_TRACE_ROUNDS };
    let mut rec = Recorder::with_capacity(rounds * cells * 5 + 64);
    let mut op_ns = Vec::new();
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    for k in 0..2 * rounds {
        let traced = k % 2 == 1;
        let order = cell_order(cells, args.seed, (k / 2) as u64);
        let keep = (k == 2 * rounds - 1).then_some(&mut reports);
        let rec = traced.then_some(&mut rec);
        let (table, wall_ns) = paper_round(suite, &order, rec, &mut op_ns, out, keep);
        if out.failed > 0 {
            return;
        }
        check.round(suite, table, out);
        let rate = cells as f64 / (wall_ns as f64 / 1e9);
        if traced {
            traced_rates.push(rate);
        } else {
            plain_rates.push(rate);
        }
    }
    out.attempted = op_ns.len() as u64;

    let totals = span::totals_by_name(rec.spans());
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let traced_cells = (rounds * cells) as f64;
    let bound_cores: usize = suite.cells.iter().map(|c| c.bound_cores).sum();
    let ratios = suite.ratios(check.first.as_ref().expect("a round ran"));
    let sum =
        |f: &dyn Fn(&crate::api::Report) -> u64| reports.iter().map(|(_, r)| f(r)).sum::<u64>();
    let hit_ratio = |variant: &str| {
        let (mut hits, mut lookups) = (0u64, 0u64);
        for (i, report) in &reports {
            if suite.cells[*i].fig == 14 && suite.cells[*i].variant == variant {
                for (_, s) in report.translator_stats() {
                    hits += s.hits;
                    lookups += s.lookups;
                }
            }
        }
        hits as f64 / lookups.max(1) as f64
    };
    let makespans = sum(&|r| r.makespan());
    let create_cycles = sorted(&suite.create_cycles);

    let m = &mut out.metrics;
    m.insert("sim.run_ns_per_cell", total("sim.run") / traced_cells);
    m.insert(
        "core.services_ns",
        total("bench.bind") / (rounds * bound_cores) as f64,
    );
    m.insert(
        "sim.cycles_per_host_s",
        (rounds as u64 * makespans) as f64 / (total("sim.run") / 1e9),
    );
    m.insert("sim.machine_cycles", makespans as f64);
    m.insert("sim.noc_packets", sum(&|r| r.noc_packets()) as f64);
    m.insert(
        "sim.noc_contention_cycles",
        sum(&|r| r.noc_contention_cycles()) as f64,
    );
    m.insert("sim.hbm_wait_cycles", sum(&|r| r.hbm_wait_cycles()) as f64);
    m.insert(
        "mem.translation_cycles",
        sum(&|r| r.translation_cycles()) as f64,
    );
    m.insert("mem.rtt_hit_ratio", hit_ratio("range4"));
    m.insert("mem.iotlb_hit_ratio", hit_ratio("page32"));
    m.insert("workloads.compile_ns", mean(&suite.compile_ns));
    m.insert("place_cycles_p50", percentile(&create_cycles, 50.0) as f64);
    m.insert("place_cycles_p99", percentile(&create_cycles, 99.0) as f64);
    m.insert("core.config_cycles_per_create", mean(&suite.create_cycles));
    m.insert("fail_ratio", out.failed as f64 / op_ns.len() as f64);
    m.insert("vchunk_vs_phys", ratios.vchunk_vs_phys);
    m.insert("vnpu_vs_uvm", ratios.vnpu_vs_uvm);
    m.insert("vnpu_vs_mig", ratios.vnpu_vs_mig);
    m.insert(
        "trace_overhead_ratio",
        median(&plain_rates) / median(&traced_rates),
    );
    m.insert(
        "trace_accounted_ratio",
        (total("sim.new") + total("bench.bind") + total("sim.run") + total("sim.drop"))
            / total("op"),
    );
    out.notes.push(format!(
        "page32/page4 vs physical {:.4}/{:.4}, bare-metal overhead {:.5}",
        ratios.page32_vs_phys, ratios.page4_vs_phys, ratios.bare_metal_overhead
    ));
    direct_calls(&mut rec, out);
    out.spans = rec.into_spans();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_distinct_and_repeatable() {
        let seeds: std::collections::BTreeSet<u64> = (0..64)
            .flat_map(|s| (0..8).map(move |k| stream_seed(s, k) | 1))
            .collect();
        assert_eq!(seeds.len(), 64 * 8, "no two (seed, round) streams alias");
        assert_eq!(stream_seed(11, 3), stream_seed(11, 3));
    }

    #[test]
    fn cell_order_is_a_seeded_permutation() {
        let a = cell_order(34, 11, 0);
        let mut sorted_a = a.clone();
        sorted_a.sort_unstable();
        assert_eq!(sorted_a, (0..34).collect::<Vec<_>>());
        assert_eq!(a, cell_order(34, 11, 0));
        assert_ne!(a, cell_order(34, 12, 0));
        assert_ne!(a, cell_order(34, 11, 1));
    }

    #[test]
    fn smoke_runs_report_every_end_to_end_metric_and_pass_the_gate() {
        for workload in ["place_hot", "reconfig_storm"] {
            let out = run(&RunArgs {
                workload: workload.to_owned(),
                seed: 11,
                seconds: 0.0,
                trace: false,
                smoke: true,
            })
            .expect("a catalogued workload");
            assert_eq!(out.failures, Vec::<String>::new(), "{workload}");
            assert!(out.correct() && out.attempted > 0);
            for metric in &crate::metrics::END_TO_END {
                let v = *out.metrics.get(metric.name).expect(metric.name);
                assert!(v > 0.0 && v.is_finite(), "{workload} {} = {v}", metric.name);
            }
        }
        assert!(run(&RunArgs {
            workload: "nope".to_owned(),
            seed: 1,
            seconds: 0.0,
            trace: false,
            smoke: true,
        })
        .is_none());
    }
}
