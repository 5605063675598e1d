//! The MIG-based virtual NPU baseline (§6.1, §6.3.2).
//!
//! "Similar to the MIG in GPU virtualization, the MIG NPU offers several
//! fixed partitions for the entire NPU chip, with each partition having a
//! predetermined sub-topology among the NPU cores." Cores inside one
//! partition keep their inter-core connections; isolation across
//! partitions is absolute. When a request needs more virtual cores than a
//! partition holds, physical cores are time-division multiplexed (TDM):
//! several virtual cores share one physical core round-robin — the paper's
//! Figure 16 upper-right scenario and the source of its up-to-1.92×
//! slowdown.

use crate::{Result, VnpuError};
use vnpu_sim::SocConfig;

/// One fixed MIG partition: a vertical slice of the mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    cores: Vec<u32>,
    width: u32,
    height: u32,
}

impl Partition {
    /// Number of physical cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the partition is empty (never true for built partitions).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Sub-mesh shape of the partition.
    pub fn shape(&self) -> (u32, u32) {
        (self.width, self.height)
    }
}

/// An allocation out of the MIG partitioner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigAllocation {
    partition_index: usize,
    /// Physical core for each virtual core (may repeat under TDM).
    assignment: Vec<u32>,
    /// Whether time-division multiplexing was required.
    tdm: bool,
}

impl MigAllocation {
    /// Index of the partition used.
    pub fn partition_index(&self) -> usize {
        self.partition_index
    }

    /// Physical core backing each virtual core (index = virtual core ID).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Whether multiple virtual cores share physical cores.
    pub fn is_tdm(&self) -> bool {
        self.tdm
    }
}

/// Fixed-partition allocator for the MIG baseline.
#[derive(Debug, Clone)]
pub struct MigPartitioner {
    partitions: Vec<Partition>,
    used: Vec<bool>,
}

impl MigPartitioner {
    /// Splits the chip into `count` equal vertical slices (the
    /// "predetermined sub-topologies"). 36-core chips split 2×18; 48-core
    /// chips split 2×24, matching the paper's "either 18 or 24 NPU cores"
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics if `count` does not divide the mesh width.
    pub fn vertical(cfg: &SocConfig, count: u32) -> Self {
        assert!(
            count > 0 && cfg.mesh_width % count == 0,
            "partition count must divide mesh width"
        );
        let slice_w = cfg.mesh_width / count;
        let partitions = (0..count)
            .map(|p| {
                let mut cores = Vec::new();
                for y in 0..cfg.mesh_height {
                    for x in 0..slice_w {
                        cores.push(y * cfg.mesh_width + p * slice_w + x);
                    }
                }
                Partition {
                    cores,
                    width: slice_w,
                    height: cfg.mesh_height,
                }
            })
            .collect();
        MigPartitioner {
            used: vec![false; count as usize],
            partitions,
        }
    }

    /// The paper's default: two halves.
    pub fn standard(cfg: &SocConfig) -> Self {
        Self::vertical(cfg, 2)
    }

    /// The fixed partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Allocates `vcores` virtual cores from the best-fitting free
    /// partition. If no partition is large enough, the largest free one is
    /// used with TDM (virtual cores round-robined onto physical cores).
    ///
    /// # Errors
    ///
    /// Returns [`VnpuError::NoPartition`] when every partition is taken.
    pub fn allocate(&mut self, vcores: u32) -> Result<MigAllocation> {
        // Best fit: smallest free partition with enough cores.
        let mut best: Option<usize> = None;
        for (i, p) in self.partitions.iter().enumerate() {
            if self.used[i] {
                continue;
            }
            if p.len() >= vcores as usize && best.is_none_or(|b| self.partitions[b].len() > p.len())
            {
                best = Some(i);
            }
        }
        // Fall back to the largest free partition (TDM).
        if best.is_none() {
            for (i, p) in self.partitions.iter().enumerate() {
                if !self.used[i] && best.is_none_or(|b| self.partitions[b].len() < p.len()) {
                    best = Some(i);
                }
            }
        }
        let Some(idx) = best else {
            return Err(VnpuError::NoPartition);
        };
        self.used[idx] = true;
        let part = &self.partitions[idx];
        let assignment: Vec<u32> = (0..vcores)
            .map(|v| part.cores[(v as usize) % part.len()])
            .collect();
        let tdm = (vcores as usize) > part.len();
        Ok(MigAllocation {
            partition_index: idx,
            assignment,
            tdm,
        })
    }

    /// Releases a partition.
    pub fn release(&mut self, partition_index: usize) {
        if let Some(u) = self.used.get_mut(partition_index) {
            *u = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_splits_36_into_18s() {
        let m = MigPartitioner::standard(&SocConfig::sim());
        assert_eq!(m.partitions().len(), 2);
        assert_eq!(m.partitions()[0].len(), 18);
        assert_eq!(m.partitions()[0].shape(), (3, 6));
        // Disjoint cover.
        let mut all: Vec<u32> = m
            .partitions()
            .iter()
            .flat_map(|p| p.cores.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..36).collect::<Vec<_>>());
    }

    #[test]
    fn standard_splits_48_into_24s() {
        let m = MigPartitioner::standard(&SocConfig::sim48());
        assert_eq!(m.partitions()[0].len(), 24);
        assert_eq!(m.partitions()[1].len(), 24);
    }

    #[test]
    fn small_request_wastes_cores() {
        // GPT2-small needs 12 cores; the 18-core partition idles 6 (33%),
        // the 24-core partition idles 12 (50%) — Figure 16's waste.
        let mut m = MigPartitioner::standard(&SocConfig::sim());
        let a = m.allocate(12).unwrap();
        assert!(!a.is_tdm());
        assert_eq!(
            m.partitions()[a.partition_index()].len() - a.assignment().len(),
            6
        );
    }

    #[test]
    fn oversized_request_goes_tdm() {
        // GPT2-large needs 36 cores on a 48-core chip: only 24 available.
        let mut m = MigPartitioner::standard(&SocConfig::sim48());
        let a = m.allocate(36).unwrap();
        assert!(a.is_tdm());
        assert_eq!(a.assignment().len(), 36);
        // 12 physical cores carry two virtual cores each.
        let mut counts = std::collections::HashMap::new();
        for &p in a.assignment() {
            *counts.entry(p).or_insert(0u32) += 1;
        }
        let doubled = counts.values().filter(|&&c| c == 2).count();
        assert_eq!(doubled, 12);
    }

    #[test]
    fn exhaustion() {
        let mut m = MigPartitioner::standard(&SocConfig::sim());
        m.allocate(4).unwrap();
        m.allocate(4).unwrap();
        assert!(matches!(m.allocate(4), Err(VnpuError::NoPartition)));
        m.release(0);
        m.allocate(4).unwrap();
    }

    #[test]
    fn assignment_stays_inside_partition() {
        let mut m = MigPartitioner::standard(&SocConfig::sim());
        let a = m.allocate(18).unwrap();
        let part = &m.partitions()[a.partition_index()];
        for &p in a.assignment() {
            assert!(part.cores.contains(&p));
        }
    }

    #[test]
    fn quarter_partitions() {
        let cfg = SocConfig::sim48(); // 8 wide
        let m = MigPartitioner::vertical(&cfg, 4);
        assert_eq!(m.partitions().len(), 4);
        assert!(m.partitions().iter().all(|p| p.len() == 12));
    }
}
