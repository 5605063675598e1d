//! Topology substrate for inter-core connected NPU virtualization.
//!
//! This crate provides the graph machinery behind the vNPU paper's
//! *best-effort topology mapping* (ISCA'25, §4.3):
//!
//! * [`Topology`] — an undirected graph with per-node attributes
//!   (heterogeneous core kinds) and per-edge attributes (criticality
//!   costs), each node's neighbours kept once as a bit row, plus 2D-mesh
//!   builders.
//! * [`enumerate`] — connected induced-subgraph enumeration (Algorithm 1,
//!   lines 20–29) with a rectangle fast-path for regular mesh requests.
//! * [`canonical`] — canonical forms for small graphs, used to deduplicate
//!   isomorphic candidate topologies (Algorithm 1, line 25).
//! * [`ged`] — topology edit distance over adjacency bitsets: an exact A*
//!   search for small graphs, and the Riesen–Bunke bipartite heuristic
//!   (backed by [`hungarian`]) and 2-opt refinement for larger ones, all
//!   charging the paper's unit edit costs.
//! * [`mapping`] — the allocation strategies evaluated in the paper:
//!   straightforward (zig-zag by core ID) and similar-topology (minimum
//!   topology edit distance), with optional disconnected "fragmentation"
//!   mode.
//! * [`route`] — dimension-order routing and confined (direction-override)
//!   path computation used by the NoC vRouter.
//! * [`cache`] — the online-serving hot path: an incrementally-maintained
//!   free-core set ([`FreeSet`], with its free-region flood fill) and a
//!   memo table for complete mapping results ([`MappingCache`]), so
//!   repeated requests under churn skip re-enumeration and re-scoring
//!   entirely.
//!
//! # Example
//!
//! Allocate a 2×2 virtual mesh out of a partially-occupied 4×4 physical
//! mesh:
//!
//! ```
//! use vnpu_topo::{Topology, NodeId, mapping::{Mapper, Strategy}};
//!
//! let phys = Topology::mesh2d(4, 4);
//! let req = Topology::mesh2d(2, 2);
//! let mut free: Vec<NodeId> = phys.nodes().collect();
//! free.retain(|n| n.index() != 0); // core 0 already allocated
//!
//! let mapper = Mapper::new(&phys);
//! let mapping = mapper.map(&free, &req, &Strategy::similar_topology()).unwrap();
//! assert_eq!(mapping.phys_nodes().len(), 4);
//! assert_eq!(mapping.edit_distance(), 0); // plenty of exact 2x2 windows left
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canonical;
pub mod enumerate;
pub mod ged;
pub mod hungarian;
pub mod mapping;
pub mod route;
mod topology;

pub use cache::{CacheStats, FreeSet, MappingCache};
pub use ged::GedResult;
pub use mapping::{Mapper, Mapping, Strategy};
pub use route::Direction;
pub use topology::{EdgeAttr, MeshShape, NodeAttr, NodeId, NodeKind, Topology};

use std::fmt;

/// Errors produced by topology construction and mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopoError {
    /// A node index was out of range for the topology.
    NodeOutOfRange {
        /// The offending node index.
        node: u32,
        /// Number of nodes in the topology.
        len: usize,
    },
    /// An edge referenced identical endpoints.
    SelfLoop(u32),
    /// A topology-mapping request asked for more nodes than are free.
    InsufficientNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes available.
        available: usize,
    },
    /// No candidate satisfying the constraints (e.g. connectivity) exists.
    NoCandidate,
    /// A free set sized for a different topology was supplied to a mapper.
    FreeSetMismatch {
        /// Nodes tracked by the free set.
        set: usize,
        /// Nodes in the physical topology.
        topology: usize,
    },
    /// A mapping request's edge costs sum past [`ged::EDGE_COST_BOUND`],
    /// beyond which edit-distance arithmetic could overflow.
    EdgeCostsTooLarge,
    /// A mapping request has more than [`ged::MAX_REQUEST_NODES`] nodes,
    /// past the widest adjacency row the edit-distance kernels take.
    RequestTooLarge {
        /// Nodes requested.
        nodes: usize,
    },
    /// The requested mesh dimensions were degenerate (zero-sized).
    EmptyMesh,
    /// The requested mesh has more than `u32::MAX` nodes.
    MeshTooLarge {
        /// Requested width.
        width: u32,
        /// Requested height.
        height: u32,
    },
    /// A routing path was requested between nodes that are not connected
    /// inside the allowed node set.
    Unroutable {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range for topology of {len} nodes")
            }
            TopoError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            TopoError::InsufficientNodes {
                requested,
                available,
            } => write!(
                f,
                "requested {requested} nodes but only {available} are free"
            ),
            TopoError::NoCandidate => write!(f, "no candidate topology satisfies the constraints"),
            TopoError::FreeSetMismatch { set, topology } => write!(
                f,
                "free set tracks {set} nodes but the topology has {topology}"
            ),
            TopoError::EdgeCostsTooLarge => {
                write!(f, "request edge costs sum past {}", ged::EDGE_COST_BOUND)
            }
            TopoError::RequestTooLarge { nodes } => write!(
                f,
                "a request of {nodes} nodes is past the {} a mapper takes",
                ged::MAX_REQUEST_NODES
            ),
            TopoError::EmptyMesh => write!(f, "mesh dimensions must be non-zero"),
            TopoError::MeshTooLarge { width, height } => {
                write!(f, "a {width} x {height} mesh has more than u32::MAX nodes")
            }
            TopoError::Unroutable { src, dst } => {
                write!(
                    f,
                    "no route from node {src} to node {dst} inside the allowed set"
                )
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, TopoError>;

#[cfg(test)]
pub(crate) mod testing {
    //! Seeded inputs shared by the kernels' differential campaigns.

    use crate::{NodeId, NodeKind, Topology};

    /// The campaigns' only source of randomness: splitmix64 over a counter.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn below(&mut self, n: usize) -> usize {
            self.0 += 1;
            (crate::cache::mix(self.0) % n as u64) as usize
        }
    }

    /// A connected `k`-node subset of connected `t`, sorted: grown from a
    /// random node by random picks among the nodes adjacent to it so far.
    pub(crate) fn connected_subset(t: &Topology, k: usize, rng: &mut Rng) -> Vec<NodeId> {
        let mut cells = vec![NodeId(rng.below(t.node_count()) as u32)];
        while cells.len() < k {
            let frontier: Vec<NodeId> = cells
                .iter()
                .flat_map(|&c| t.neighbors(c))
                .filter(|n| !cells.contains(n))
                .collect();
            cells.push(frontier[rng.below(frontier.len())]);
        }
        cells.sort_unstable();
        cells
    }

    /// Whether `a` and `b` are isomorphic (node kinds respected): exact for
    /// any size, exponential in the worst case.
    pub(crate) fn are_isomorphic(a: &Topology, b: &Topology) -> bool {
        crate::canonical::find_isomorphism(a, b).is_some()
    }

    /// Gives about a quarter of `t`'s nodes a random non-default kind.
    pub(crate) fn sprinkle_kinds(t: &mut Topology, rng: &mut Rng) {
        for node in t.nodes().collect::<Vec<_>>() {
            if rng.below(4) == 0 {
                t.node_attr_mut(node).kind =
                    [NodeKind::MatrixOptimized, NodeKind::VectorOptimized][rng.below(2)];
            }
        }
    }

    /// `t` under a random relabeling, node and edge attributes carried along.
    pub(crate) fn relabeled(t: &Topology, rng: &mut Rng) -> Topology {
        let n = t.node_count();
        let mut to: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            to.swap(i, rng.below(i + 1));
        }
        let mut out = Topology::empty(n);
        for node in t.nodes() {
            *out.node_attr_mut(NodeId(to[node.index()])) = *t.node_attr(node);
        }
        for (a, b, attr) in t.edges() {
            out.add_edge_with(NodeId(to[a.index()]), NodeId(to[b.index()]), attr)
                .expect("a permutation of valid endpoints");
        }
        out
    }
}
