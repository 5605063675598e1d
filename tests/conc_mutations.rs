//! Mutation testing for the determinism sanitizer (`vnpu_conc`): a fold
//! that takes per-job results in **completion** order must be flagged
//! under `CONC-DET` when two runs complete in different orders, while a
//! fold in **job** order stays clean — and the shipped serving runtime
//! records identical digest chains run after run, with a report
//! byte-identical to the run that records none.

use std::sync::Arc;
use vnpu::cluster::LeastLoaded;
use vnpu_conc::{compare_all, compare_chains, ConcRule, Digest, DigestChain, Phase};
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;

// ---------------------------------------------------------------------
// The mutant: a fold over per-job results taken in the order the jobs
// *completed*. Two runs that complete in different orders then record
// different digests and `CONC-DET` names the divergent phase; folding in
// job order is invariant under the completion order.
// ---------------------------------------------------------------------

/// Sixteen jobs `(job index, result)` as they completed: `rotate` jobs
/// late, so two different rotations are two different completion orders
/// of the same results.
fn completed(rotate: usize) -> Vec<(usize, u64)> {
    let mut jobs: Vec<(usize, u64)> = (0..16)
        .map(|i| (i, (i as u64 + 1).wrapping_mul(0x9E37_79B9)))
        .collect();
    jobs.rotate_left(rotate);
    jobs
}

/// Digests one batch into a one-entry chain. `fold_in_completion_order`
/// selects the mutant: folding `completed` as it stands instead of by
/// job index.
fn merge_digest(mut completed: Vec<(usize, u64)>, fold_in_completion_order: bool) -> DigestChain {
    if !fold_in_completion_order {
        completed.sort_by_key(|&(job, _)| job);
    }
    let mut digest = Digest::new();
    for (_, value) in completed {
        digest.write_u64(value);
    }
    let mut chain = DigestChain::new();
    chain.record(0, Phase::Execution, None, digest.finish());
    chain
}

#[test]
fn completion_order_merge_is_flagged_as_conc_det() {
    let natural = merge_digest(completed(0), true);
    let shuffled = merge_digest(completed(5), true);
    let finding = compare_chains("order=natural", &natural, "order=rotated", &shuffled)
        .expect("the completion-order merge must diverge across completion orders");
    assert_eq!(finding.rule.id(), "CONC-DET");
    assert!(
        finding.detail.contains("execution"),
        "the finding must name the divergent phase: {finding}"
    );
}

#[test]
fn job_order_merge_is_schedule_invariant() {
    let natural = merge_digest(completed(0), false);
    for rotate in [1usize, 7, 13] {
        let shuffled = merge_digest(completed(rotate), false);
        assert_eq!(
            compare_chains("order=natural", &natural, "order=rotated", &shuffled),
            None,
            "folding in job order must not see the completion order (rotation {rotate})"
        );
    }
}

// ---------------------------------------------------------------------
// The shipped code: the real serving runtime with digests on audits
// clean, its report is byte-identical to the uninstrumented run's, and
// a same-seed rerun records the identical digest chain.
// ---------------------------------------------------------------------

fn churn_config() -> ServeConfig {
    let small = SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    };
    let mut cfg = ServeConfig::cluster(
        0xC0_1D_CA_FE,
        40,
        vec![SocConfig::sim(), small, SocConfig::sim()],
    );
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.candidate_cap = 120;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.defrag = Some(Arc::new(vnpu::plan::GreedyDefrag::default()));
    cfg.defrag_interval = 7;
    cfg.audit = true;
    cfg
}

#[test]
fn shipped_runtime_audits_clean_and_reruns_digest_identical() {
    let baseline = ServeRuntime::new(churn_config())
        .run()
        .expect("uninstrumented run completes");
    assert_eq!(baseline.audit_findings, 0, "baseline audits clean");

    let mut chains: Vec<(String, DigestChain)> = Vec::new();
    for run in ["first", "second"] {
        let mut cfg = churn_config();
        let epochs = cfg.epochs;
        cfg.phase_digests = true;
        // `run()` consumes the runtime; drive the same loop by hand so
        // the digest chain is readable afterwards.
        let mut rt = ServeRuntime::new(cfg);
        while rt.tick_index() < epochs {
            rt.step().expect("instrumented tick completes");
        }
        rt.drain().expect("instrumented drain completes");
        let report = rt.report();
        assert_eq!(
            report.audit_findings, 0,
            "{run} run: instrumented run audits clean"
        );
        assert_eq!(
            report.to_json(usize::MAX),
            baseline.to_json(usize::MAX),
            "{run} run: recording digests must not perturb the report"
        );
        let chain = rt.digest_chain().expect("digests enabled").clone();
        assert!(!chain.is_empty(), "{run} run: phases must record digests");
        chains.push((run.to_owned(), chain));
    }
    assert_eq!(
        compare_all(&chains),
        Vec::new(),
        "phase digests must agree across same-seed runs"
    );
    assert_eq!(
        ConcRule::Determinism.id(),
        "CONC-DET",
        "rule ids are the stable contract the suites above assert on"
    );
}
