//! Fleet-level regressions for the audit layer (`vnpu_audit`): the
//! serving example's cluster, audited every tick, and a hand-churned
//! cluster, audited at every waypoint, both report no finding. The
//! mutants that prove each rule fires live beside the passes
//! (`crates/audit/src/routing.rs` and `fleet.rs`).

use std::sync::Arc;
use vnpu::cluster::{Cluster, LeastLoaded};
use vnpu::VnpuRequest;
use vnpu_audit::audit_cluster;
use vnpu_serve::{ServeConfig, ServeRuntime};
use vnpu_sim::SocConfig;

/// Fleet regression: the cluster-serving example's configuration —
/// heterogeneous chips, least-loaded placement and all — runs with the
/// per-tick auditor enabled and accumulates zero findings.
#[test]
fn serving_example_fleet_audits_clean() {
    let small = SocConfig {
        mesh_width: 4,
        mesh_height: 4,
        ..SocConfig::sim()
    };
    let mut cfg = ServeConfig::cluster(2026, 40, vec![SocConfig::sim(), small]);
    cfg.traffic.mean_interarrival_ticks = 1;
    cfg.traffic.mean_lifetime_epochs = 8;
    cfg.placement = Arc::new(LeastLoaded);
    cfg.audit = true;
    let mut rt = ServeRuntime::new(cfg);
    for _ in 0..40 {
        let ev = rt.step().expect("tick completes");
        assert_eq!(ev.audit_findings, 0, "every tick audits clean");
    }
    rt.drain().expect("drain completes");
    let report = rt.report();
    assert_eq!(report.audit_findings, 0);
    assert!(rt.audit_findings().is_empty());
    // Belt and braces: one more sweep over the drained fleet directly.
    assert!(audit_cluster(rt.cluster()).is_empty());
}

/// Fleet regression: a hand-churned cluster (creates, destroys, a full
/// drain cycle) audits clean at every waypoint.
#[test]
fn hand_churned_cluster_audits_clean_at_every_waypoint() {
    let mut cluster = Cluster::new(vec![SocConfig::sim(), SocConfig::sim()]);
    let mut live = Vec::new();
    for i in 0..6 {
        let id = cluster
            .create_on(i % 2, VnpuRequest::mesh(2, 2).mem_bytes(16 << 20))
            .expect("create");
        live.push(id);
    }
    assert!(audit_cluster(&cluster).is_empty(), "loaded fleet is clean");
    for id in live.drain(..3) {
        cluster.destroy(id).expect("destroy");
    }
    assert!(
        audit_cluster(&cluster).is_empty(),
        "post-churn fleet is clean"
    );
    cluster.begin_drain(0).expect("begin drain");
    assert!(
        audit_cluster(&cluster).is_empty(),
        "draining fleet is clean"
    );
}
