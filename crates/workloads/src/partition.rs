//! Pipeline partitioning: assign layers to virtual cores.
//!
//! The IPU programming model pins every layer to a core; for pipelined
//! inference the natural assignment is a *contiguous* partition of the
//! topologically-ordered layer list into `n` stages, minimizing the
//! heaviest stage (the pipeline bottleneck). We solve that exactly with
//! the classic linear-partition DP over per-layer cycle costs.

use crate::graph::{LayerId, ModelGraph};
use crate::{Result, WorkloadError};
use vnpu_sim::compute::kernel_cycles;
use vnpu_sim::SocConfig;

/// A pipeline partition: `stages[s]` lists the layers owned by virtual
/// core `s`, in topological order; every layer appears exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    stages: Vec<Vec<LayerId>>,
    stage_of: Vec<u32>,
}

impl Partition {
    /// Layers per stage.
    pub fn stages(&self) -> &[Vec<LayerId>] {
        &self.stages
    }

    /// Number of stages (= virtual cores used).
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether there are no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage owning a layer.
    pub fn stage_of(&self, layer: LayerId) -> u32 {
        self.stage_of[layer.index()]
    }
}

/// Partitions `graph` into at most `n_stages` contiguous stages minimizing
/// the bottleneck stage's compute cycles. When the graph has fewer layers
/// than stages, one layer per stage is produced (the extra cores stay
/// idle; callers may choose to request fewer cores).
///
/// # Errors
///
/// Returns [`WorkloadError::NoCores`] if `n_stages == 0`.
pub fn partition(graph: &ModelGraph, n_stages: u32, cfg: &SocConfig) -> Result<Partition> {
    if n_stages == 0 {
        return Err(WorkloadError::NoCores);
    }
    let costs: Vec<u64> = graph
        .layers()
        .iter()
        .map(|l| kernel_cycles(cfg, &l.kernel))
        .collect();
    let n = costs.len();
    let k = (n_stages as usize).min(n);
    // prefix[i] = sum of costs[0..i]
    let mut prefix = vec![0u64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + costs[i];
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a]; // cost of [a, b)

    // dp[j][i] = min over partitions of first i layers into j stages of the
    // max stage cost; cut[j][i] records the last stage's start.
    let inf = u64::MAX;
    let mut dp = vec![vec![inf; n + 1]; k + 1];
    let mut cut = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0;
    for j in 1..=k {
        for i in j..=n {
            // last stage = [c, i)
            for c in (j - 1)..i {
                if dp[j - 1][c] == inf {
                    continue;
                }
                let cand = dp[j - 1][c].max(seg(c, i));
                if cand < dp[j][i] {
                    dp[j][i] = cand;
                    cut[j][i] = c;
                }
            }
        }
    }
    // Recover cuts.
    let mut bounds = vec![n];
    let mut i = n;
    for j in (1..=k).rev() {
        i = cut[j][i];
        bounds.push(i);
    }
    bounds.reverse();
    debug_assert_eq!(bounds[0], 0);
    let mut stages = Vec::with_capacity(k);
    let mut stage_of = vec![0u32; n];
    for s in 0..k {
        let (a, b) = (bounds[s], bounds[s + 1]);
        let ids: Vec<LayerId> = (a..b).map(|l| LayerId(l as u32)).collect();
        for &l in &ids {
            stage_of[l.index()] = s as u32;
        }
        stages.push(ids);
    }
    Ok(Partition { stages, stage_of })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn cfg() -> SocConfig {
        SocConfig::sim()
    }

    /// The slowest stage's compute cycles: what `partition` minimizes.
    fn bottleneck(p: &Partition, graph: &ModelGraph, cfg: &SocConfig) -> u64 {
        p.stages()
            .iter()
            .map(|stage| {
                stage
                    .iter()
                    .map(|&l| kernel_cycles(cfg, &graph.layer(l).kernel))
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn every_layer_assigned_once() {
        let g = models::resnet18();
        let p = partition(&g, 9, &cfg()).unwrap();
        let mut seen = vec![false; g.len()];
        for stage in p.stages() {
            for l in stage {
                assert!(!seen[l.index()], "layer {l} assigned twice");
                seen[l.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(p.len(), 9);
    }

    #[test]
    fn stages_are_contiguous_and_ordered() {
        let g = models::gpt2_small();
        let p = partition(&g, 12, &cfg()).unwrap();
        let mut last = -1i64;
        for stage in p.stages() {
            for l in stage {
                assert_eq!(l.index() as i64, last + 1);
                last = l.index() as i64;
            }
        }
    }

    #[test]
    fn dp_balances_better_than_naive_chunks() {
        let g = models::resnet34();
        let c = cfg();
        let p = partition(&g, 8, &c).unwrap();
        // Naive equal-count chunking.
        let n = g.len();
        let chunk = n.div_ceil(8);
        let naive_max: u64 = (0..8)
            .map(|s| {
                (s * chunk..((s + 1) * chunk).min(n))
                    .map(|i| vnpu_sim::compute::kernel_cycles(&c, &g.layers()[i].kernel))
                    .sum()
            })
            .max()
            .unwrap();
        assert!(bottleneck(&p, &g, &c) <= naive_max);
    }

    #[test]
    fn more_stages_never_worse() {
        let g = models::resnet50();
        let c = cfg();
        let mut prev = u64::MAX;
        for n in [2u32, 4, 8, 16] {
            let p = partition(&g, n, &c).unwrap();
            let b = bottleneck(&p, &g, &c);
            assert!(b <= prev, "bottleneck must not grow with stages");
            prev = b;
        }
    }

    #[test]
    fn more_stages_than_layers_caps_at_layers() {
        let g = models::transformer_block(64, 16);
        let p = partition(&g, 64, &cfg()).unwrap();
        assert_eq!(p.len(), g.len());
        assert!(p.stages().iter().all(|s| s.len() == 1));
    }

    #[test]
    fn single_stage_takes_everything() {
        let g = models::yolo_lite();
        let p = partition(&g, 1, &cfg()).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.stages()[0].len(), g.len());
    }

    #[test]
    fn zero_stages_rejected() {
        let g = models::yolo_lite();
        assert!(matches!(
            partition(&g, 0, &cfg()),
            Err(WorkloadError::NoCores)
        ));
    }

    #[test]
    fn stage_of_consistent() {
        let g = models::alexnet();
        let p = partition(&g, 4, &cfg()).unwrap();
        for (s, stage) in p.stages().iter().enumerate() {
            for &l in stage {
                assert_eq!(p.stage_of(l), s as u32);
            }
        }
    }
}
