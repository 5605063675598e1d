//! The core [`Topology`] graph type and its builders.

use crate::ged::bits;
use crate::{Result, TopoError};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifier of a node (an NPU core) inside a [`Topology`].
///
/// `NodeId` is an index into the topology that created it; it carries no
/// global meaning on its own. The `vnpu` crate layers `PhysCoreId` /
/// `VirtCoreId` newtypes on top of this for the machine-level distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node index as a `usize`, for indexing into slices.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The functional kind of a node, used by heterogeneous topology mapping
/// (paper §4.3, "heterogeneous topology mapping" and §7's hybrid cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum NodeKind {
    /// A standard NPU core with both a systolic array and a vector unit.
    #[default]
    Standard,
    /// A core specialized for matrix (systolic-array) operations.
    MatrixOptimized,
    /// A core specialized for vector operations.
    VectorOptimized,
}

/// Per-node attributes consulted by the `NodeMatch` function of
/// Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeAttr {
    /// Functional kind (the paper's `abbr` attribute).
    pub kind: NodeKind,
}

/// Per-edge attributes consulted by the customizable `EdgeMatch` function of
/// Algorithm 1 (critical all-reduce paths get a higher deletion cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeAttr {
    /// Cost charged when this edge must be deleted or substituted away.
    pub cost: u64,
}

impl Default for EdgeAttr {
    fn default() -> Self {
        EdgeAttr { cost: 1 }
    }
}

/// Shape metadata retained by mesh-constructed topologies, enabling the
/// compact (base + shape) routing-table representation of paper Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    /// Mesh width (number of columns).
    pub width: u32,
    /// Mesh height (number of rows).
    pub height: u32,
}

impl MeshShape {
    /// Total number of nodes in the mesh.
    pub fn len(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Whether the mesh is empty (zero-sized in either dimension).
    pub fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }
}

/// Node count of a `width × height` mesh or torus.
fn mesh_nodes(width: u32, height: u32) -> Result<usize> {
    if width == 0 || height == 0 {
        return Err(TopoError::EmptyMesh);
    }
    let n = width.checked_mul(height);
    Ok(n.ok_or(TopoError::MeshTooLarge { width, height })? as usize)
}

/// An undirected graph describing an NPU core topology.
///
/// Nodes are numbered `0..n` in row-major order for meshes. Each node's
/// neighbours are stored once, as a bit row of `⌈n/64⌉` words (for
/// traversal, degrees and edge tests), beside an attribute map of the
/// edges (for edge-match costs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Node `v`'s neighbours, one bit each, in words `v * w..(v + 1) * w`
    /// for `w = ⌈n/64⌉`.
    rows: Vec<u64>,
    edges: BTreeMap<(NodeId, NodeId), EdgeAttr>,
    nodes: Vec<NodeAttr>,
    mesh: Option<MeshShape>,
}

impl Topology {
    /// Creates a topology with `n` isolated nodes and default attributes.
    pub fn empty(n: usize) -> Self {
        Topology {
            rows: vec![0; n * n.div_ceil(64)],
            edges: BTreeMap::new(),
            nodes: vec![NodeAttr::default(); n],
            mesh: None,
        }
    }

    /// Builds a `width × height` 2D mesh (nodes in row-major order).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `width × height` overflows a
    /// `u32`; use [`Topology::try_mesh2d`] for a fallible variant.
    pub fn mesh2d(width: u32, height: u32) -> Self {
        Self::try_mesh2d(width, height).expect("mesh dimensions must be non-zero and fit a u32")
    }

    /// Fallible variant of [`Topology::mesh2d`].
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::EmptyMesh`] if either dimension is zero, and
    /// [`TopoError::MeshTooLarge`] if `width × height` overflows a `u32`.
    pub fn try_mesh2d(width: u32, height: u32) -> Result<Self> {
        let mut t = Topology::empty(mesh_nodes(width, height)?);
        for y in 0..height {
            for x in 0..width {
                let id = y * width + x;
                if x + 1 < width {
                    t.add_edge(NodeId(id), NodeId(id + 1))?;
                }
                if y + 1 < height {
                    t.add_edge(NodeId(id), NodeId(id + width))?;
                }
            }
        }
        t.mesh = Some(MeshShape { width, height });
        Ok(t)
    }

    /// Builds a 1×`n` line topology.
    pub fn line(n: u32) -> Self {
        Self::mesh2d(n.max(1), 1)
    }

    /// Builds a `width × height` 2D torus (mesh with wrap-around links).
    ///
    /// # Errors
    ///
    /// As for [`Topology::try_mesh2d`].
    pub fn torus2d(width: u32, height: u32) -> Result<Self> {
        let mut t = Topology::empty(mesh_nodes(width, height)?);
        for y in 0..height {
            for x in 0..width {
                let id = y * width + x;
                let right = y * width + (x + 1) % width;
                let down = ((y + 1) % height) * width + x;
                if right != id {
                    let _ = t.add_edge(NodeId(id), NodeId(right));
                }
                if down != id {
                    let _ = t.add_edge(NodeId(id), NodeId(down));
                }
            }
        }
        t.mesh = Some(MeshShape { width, height });
        Ok(t)
    }

    /// Adds an undirected edge with default attributes. Idempotent for
    /// duplicate edges.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or self-loops.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<()> {
        self.add_edge_with(a, b, EdgeAttr::default())
    }

    /// Adds an undirected edge with explicit attributes (overwrites the
    /// attribute of an existing edge).
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-range endpoints or self-loops.
    pub fn add_edge_with(&mut self, a: NodeId, b: NodeId, attr: EdgeAttr) -> Result<()> {
        let n = self.node_count();
        for id in [a, b] {
            if id.index() >= n {
                return Err(TopoError::NodeOutOfRange { node: id.0, len: n });
            }
        }
        if a == b {
            return Err(TopoError::SelfLoop(a.0));
        }
        let key = (a.min(b), a.max(b));
        if self.edges.insert(key, attr).is_none() {
            self.link(a, b);
        }
        self.mesh = None; // mutation invalidates mesh shape metadata
        Ok(())
    }

    /// Sets `a` and `b` in each other's row.
    fn link(&mut self, a: NodeId, b: NodeId) {
        let w = self.node_count().div_ceil(64);
        self.rows[a.index() * w + b.index() / 64] |= 1 << (b.index() % 64);
        self.rows[b.index() * w + a.index() / 64] |= 1 << (a.index() % 64);
    }

    /// The neighbour row of `node`: bit `v % 64` of word `v / 64` is set
    /// when `v` is a neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub(crate) fn row(&self, node: NodeId) -> &[u64] {
        let w = self.node_count().div_ceil(64);
        &self.rows[node.index() * w..(node.index() + 1) * w]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node IDs in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all undirected edges as `(low, high, attribute)`
    /// triples, ascending by `(low, high)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeAttr)> + '_ {
        self.edges.iter().map(|(&(a, b), &attr)| (a, b, attr))
    }

    /// The neighbours of `node`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        bits(self.row(node).iter().copied()).map(|v| NodeId(v as u32))
    }

    /// Degree of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.row(node).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether an edge exists between `a` and `b` (`false` when either is
    /// out of range).
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (n, i) = (self.node_count(), b.index());
        a.index() < n && i < n && self.row(a)[i / 64] >> (i % 64) & 1 == 1
    }

    /// Immutable attribute of `node`.
    pub fn node_attr(&self, node: NodeId) -> &NodeAttr {
        &self.nodes[node.index()]
    }

    /// Mesh shape metadata, if this topology was built as a mesh and not
    /// mutated since.
    pub fn mesh_shape(&self) -> Option<MeshShape> {
        self.mesh
    }

    /// Mesh coordinate `(x, y)` of a node (row-major), if this is a mesh.
    pub fn mesh_coord(&self, node: NodeId) -> Option<(u32, u32)> {
        self.mesh.map(|m| (node.0 % m.width, node.0 / m.width))
    }

    /// Manhattan distance between two mesh nodes, or BFS hop distance for
    /// irregular topologies (`None` if unreachable).
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if let (Some((ax, ay)), Some((bx, by))) = (self.mesh_coord(a), self.mesh_coord(b)) {
            return Some(ax.abs_diff(bx) + ay.abs_diff(by));
        }
        self.bfs_distance(a, b)
    }

    /// BFS hop distance between two nodes (`None` if unreachable).
    fn bfs_distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![u32::MAX; self.node_count()];
        dist[a.index()] = 0;
        let mut q = VecDeque::from([a]);
        while let Some(u) = q.pop_front() {
            for v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if v == b {
                        return Some(dist[v.index()]);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Whether the whole topology is connected (the empty topology counts as
    /// connected).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        let all: Vec<NodeId> = self.nodes().collect();
        self.is_connected_subset(&all)
    }

    /// Whether the induced subgraph on `subset` is connected (R-3 of the
    /// paper's mapping requirements). An empty subset counts as connected.
    pub fn is_connected_subset(&self, subset: &[NodeId]) -> bool {
        if subset.is_empty() {
            return true;
        }
        let mut in_set = vec![false; self.node_count()];
        for &n in subset {
            in_set[n.index()] = true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut q = VecDeque::from([subset[0]]);
        seen[subset[0].index()] = true;
        let mut count = 1;
        while let Some(u) = q.pop_front() {
            for v in self.neighbors(u) {
                if in_set[v.index()] && !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    q.push_back(v);
                }
            }
        }
        count == subset.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Production builds a topology from a mesh or a line and edits it edge
    // by edge; the tests also build rings and irregular ones from edge
    // lists, and set node kinds by hand, as `Mapper` sees them on a chip.
    impl Topology {
        /// Builds an `n`-node ring.
        ///
        /// # Panics
        ///
        /// Panics if `n < 3`.
        pub(crate) fn ring(n: u32) -> Self {
            assert!(n >= 3, "a ring needs at least 3 nodes");
            let mut t = Topology::empty(n as usize);
            for i in 0..n {
                t.add_edge(NodeId(i), NodeId((i + 1) % n)).unwrap();
            }
            t
        }

        /// Builds an arbitrary (possibly irregular) topology from an edge list.
        ///
        /// # Errors
        ///
        /// Returns an error if any endpoint is out of range or an edge is a
        /// self-loop.
        pub(crate) fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self> {
            let mut t = Topology::empty(n);
            for &(a, b) in edges {
                t.add_edge(NodeId(a), NodeId(b))?;
            }
            Ok(t)
        }

        /// Mutable attribute of `node`.
        pub(crate) fn node_attr_mut(&mut self, node: NodeId) -> &mut NodeAttr {
            &mut self.nodes[node.index()]
        }

        /// Attribute of the edge `(a, b)`, if present.
        pub(crate) fn edge_attr(&self, a: NodeId, b: NodeId) -> Option<EdgeAttr> {
            self.edges.get(&(a.min(b), a.max(b))).copied()
        }

        /// Induced subgraph on `subset`, plus the mapping from new node IDs
        /// (positions in `subset`) back to the original IDs: the built
        /// subgraph the mapper's row-read kernels are held to.
        ///
        /// Node and edge attributes are copied. The result is never a mesh
        /// (no shape metadata), even if the subset happens to form one.
        pub(crate) fn induced_subgraph(&self, subset: &[NodeId]) -> (Topology, Vec<NodeId>) {
            const ABSENT: u32 = u32::MAX;
            let mut index_of = vec![ABSENT; self.node_count()];
            for (i, &n) in subset.iter().enumerate() {
                index_of[n.index()] = i as u32;
            }
            let mut sub = Topology::empty(subset.len());
            for (i, &n) in subset.iter().enumerate() {
                sub.nodes[i] = self.nodes[n.index()];
                for nb in self.neighbors(n) {
                    let j = index_of[nb.index()];
                    if j != ABSENT && (i as u32) < j {
                        let (a, b) = (NodeId(i as u32), NodeId(j));
                        sub.edges
                            .insert((a, b), self.edge_attr(n, nb).unwrap_or_default());
                        sub.link(a, b);
                    }
                }
            }
            (sub, subset.to_vec())
        }

        /// A copy whose edge `(a, b)` costs `cost(a, b)`, the mesh shape
        /// kept (which `add_edge_with` drops): a chip's weighted twin.
        pub(crate) fn weighted(&self, mut cost: impl FnMut(NodeId, NodeId) -> u64) -> Self {
            let mut t = self.clone();
            for (&(a, b), attr) in &mut t.edges {
                attr.cost = cost(a, b);
            }
            t
        }
    }

    #[test]
    fn mesh_construction() {
        let t = Topology::mesh2d(5, 5);
        assert_eq!(t.node_count(), 25);
        // 2D mesh edges: w*(h-1) + h*(w-1)
        assert_eq!(t.edge_count(), 5 * 4 + 5 * 4);
        assert!(t.is_connected());
        assert_eq!(
            t.mesh_shape(),
            Some(MeshShape {
                width: 5,
                height: 5
            })
        );
    }

    #[test]
    fn mesh_coords_roundtrip() {
        let t = Topology::mesh2d(4, 3);
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(t.mesh_coord(NodeId(y * 4 + x)), Some((x, y)));
            }
        }
    }

    #[test]
    fn mesh_degrees() {
        let t = Topology::mesh2d(3, 3);
        // corners 2, edges 3, center 4
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(1)), 3);
        assert_eq!(t.degree(NodeId(4)), 4);
    }

    #[test]
    fn hop_distance_mesh_is_manhattan() {
        let t = Topology::mesh2d(5, 5);
        assert_eq!(t.hop_distance(NodeId(0), NodeId(24)), Some(8));
        assert_eq!(t.hop_distance(NodeId(0), NodeId(0)), Some(0));
        assert_eq!(t.hop_distance(NodeId(2), NodeId(7)), Some(1));
    }

    #[test]
    fn bfs_distance_irregular() {
        // path 0-1-2-3 plus isolated node 4
        let t = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(t.bfs_distance(NodeId(0), NodeId(3)), Some(3));
        assert_eq!(t.bfs_distance(NodeId(0), NodeId(4)), None);
        assert!(!t.is_connected());
    }

    #[test]
    fn connected_subset() {
        let t = Topology::mesh2d(3, 3);
        assert!(t.is_connected_subset(&[NodeId(0), NodeId(1), NodeId(2)]));
        // two opposite corners are not connected without intermediates
        assert!(!t.is_connected_subset(&[NodeId(0), NodeId(8)]));
        assert!(t.is_connected_subset(&[]));
    }

    #[test]
    fn induced_subgraph_preserves_edges_and_attrs() {
        let mut t = Topology::mesh2d(3, 3);
        t.node_attr_mut(NodeId(4)).kind = NodeKind::VectorOptimized;
        let (sub, back) = t.induced_subgraph(&[NodeId(3), NodeId(4), NodeId(5)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // a row of three
        assert_eq!(sub.node_attr(NodeId(1)).kind, NodeKind::VectorOptimized);
        assert_eq!(back, vec![NodeId(3), NodeId(4), NodeId(5)]);
    }

    #[test]
    fn induced_subgraph_matches_an_edge_by_edge_rebuild() {
        use crate::testing::Rng;
        // Graphs of 1-200 nodes (rows of one to four words), edges of
        // costs 1-5 added with duplicates, overwrites and refused
        // self-loops among them; three shuffled subsets of each.
        let mut rng = Rng(0x5EED_0071);
        for case in 0..64 {
            let n = (64 * (case % 4) + 1 + rng.below(64)).min(200);
            let mut t = Topology::empty(n);
            for _ in 0..rng.below(600) {
                let (a, b) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
                let attr = EdgeAttr {
                    cost: 1 + rng.below(5) as u64,
                };
                assert_eq!(t.add_edge_with(a, b, attr).is_err(), a == b);
            }
            for _ in 0..3 {
                let mut subset: Vec<NodeId> = t.nodes().collect();
                for i in (1..n).rev() {
                    subset.swap(i, rng.below(i + 1));
                }
                subset.truncate(1 + rng.below(n));
                let (sub, back) = t.induced_subgraph(&subset);
                let mut rebuilt = Topology::empty(subset.len());
                for (i, &a) in subset.iter().enumerate() {
                    for (j, &b) in subset.iter().enumerate().skip(i + 1) {
                        if let Some(attr) = t.edge_attr(a, b) {
                            let (i, j) = (NodeId(i as u32), NodeId(j as u32));
                            rebuilt.add_edge_with(i, j, attr).expect("in range");
                        }
                    }
                }
                assert_eq!(back, subset, "case {case}");
                assert!(sub == rebuilt, "case {case}: differs from its rebuild");
            }
        }
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::empty(2);
        assert_eq!(
            t.add_edge(NodeId(0), NodeId(0)),
            Err(TopoError::SelfLoop(0))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut t = Topology::empty(2);
        assert!(matches!(
            t.add_edge(NodeId(0), NodeId(5)),
            Err(TopoError::NodeOutOfRange { node: 5, len: 2 })
        ));
    }

    #[test]
    fn duplicate_edge_idempotent() {
        let mut t = Topology::empty(3);
        t.add_edge(NodeId(0), NodeId(1)).unwrap();
        t.add_edge(NodeId(1), NodeId(0)).unwrap();
        assert_eq!(t.edge_count(), 1);
        assert_eq!(t.degree(NodeId(0)), 1);
    }

    #[test]
    fn torus_wraps() {
        let t = Topology::torus2d(4, 4).unwrap();
        assert!(t.has_edge(NodeId(0), NodeId(3))); // row wrap
        assert!(t.has_edge(NodeId(0), NodeId(12))); // column wrap
        assert_eq!(t.degree(NodeId(0)), 4);
    }

    #[test]
    fn ring_and_line() {
        let r = Topology::ring(5);
        assert_eq!(r.edge_count(), 5);
        assert!(r.nodes().all(|n| r.degree(n) == 2));
        let l = Topology::line(4);
        assert_eq!(l.edge_count(), 3);
    }

    #[test]
    fn empty_mesh_rejected() {
        assert_eq!(Topology::try_mesh2d(0, 3), Err(TopoError::EmptyMesh));
    }

    #[test]
    fn oversized_meshes_are_an_error_not_a_wrap() {
        // 65 536 × 65 536 wraps a u32 to zero nodes.
        let too_large = Err(TopoError::MeshTooLarge {
            width: 1 << 16,
            height: 1 << 16,
        });
        assert_eq!(Topology::try_mesh2d(1 << 16, 1 << 16), too_large);
        assert_eq!(Topology::torus2d(1 << 16, 1 << 16), too_large);
        assert_eq!(Topology::torus2d(0, 4), Err(TopoError::EmptyMesh));
    }
}
