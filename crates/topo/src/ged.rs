//! Topology (graph) edit distance.
//!
//! The paper's mapping algorithm (§4.3, Algorithm 1) scores candidate
//! sub-topologies by the minimum number of edit operations — node/edge
//! insertion, deletion, substitution — needed to transform the candidate
//! into the requested topology. Every kernel here charges the paper's unit
//! costs: a node substitution costs 1 when the kinds differ, a node
//! insertion or deletion 1, an edge insertion or deletion the edge's
//! `cost` (critical edges cost more), and a substituted edge nothing.
//!
//! Determining the exact minimum is NP-hard; like the references the paper
//! cites ([51, 60, 61] — Riesen & Bunke), we provide:
//!
//! * [`ged_exact`] — an exact A\* search, practical up to
//!   [`EXACT_GED_LIMIT`] nodes;
//! * [`ged_bipartite`] — the bipartite (Hungarian-assignment) heuristic,
//!   which returns the cost of a *valid but possibly suboptimal* edit path,
//!   i.e. an upper bound on the true distance;
//! * [`ged`] — dispatches between the two on graph size.
//!
//! These run once per candidate of a mapper search (and a 2-opt
//! refinement a dozen times on top), all asking `edge_attr` of the same
//! two graphs in a loop, so each call builds the two dense `n × n` tables
//! of `Topology::edge_table` once and reads them from then on. Beyond
//! those it allocates what it returns plus, per call, the A\* heap
//! (whose states are `Copy` values, not owners of vectors) or the flat
//! assignment matrix. A mapper search on a chip whose edges all cost the
//! default (every served request's case) scores and refines with
//! `StockRefiner`, which reads a candidate as each node's kind and its
//! neighbours, one bit each, computed from the candidate's cells: it
//! builds the bipartite cost matrix from popcounts and prices an edit
//! path, or a 2-opt swap, in a few word operations, and no subgraph is
//! built. Requests of more than 64 nodes, and chips with weighted edges,
//! take [`ged_bipartite`] and [`refine_mapping`], which price a swap in
//! place from the O(n) terms it touches.
//! **Why results cannot move:** the tables answer exactly what the edge
//! map answered. The A\* pushes the same states in the same order, and
//! the heap's order is a function of `g` and `depth` alone, so it pops in
//! the same order and returns the same optimum *and* the same mapping.
//! The bitset bipartite fills the same matrix — on a default-cost candidate
//! a node's degree is its row's popcount and its insertion costs 1 per edge
//! — so the solver takes the same steps to the same assignment, and the
//! edit path is priced by the same sum. The solver's `i64` potentials
//! stay far from overflow on these matrices (see [`hungarian::solve`]), so
//! they compare exactly as `i128` ones did. The 2-opt loops visit the
//! same swaps in the same order and accept on the same strict `<` of the
//! same integer — the difference of the touched terms is the difference
//! of the full sums, and on a default-cost candidate each node's touched pair
//! terms are the costs of its request edges missing from the pulled-back
//! image row plus the popcount of the image edges missing from its
//! request row, the same sum over the bitsets' differences. The test-only
//! `reference` modules keep the replaced kernels and solver and hold these
//! to identical results under the unit costs, and hold `StockRefiner` to
//! [`ged_bipartite`] and [`refine_mapping`].

use crate::hungarian;
use crate::{EdgeAttr, NodeAttr, NodeId, NodeKind, Topology};
use std::collections::BinaryHeap;

/// Largest graph size (max of the two node counts) for which [`ged`] runs
/// the exact A\* search.
pub const EXACT_GED_LIMIT: usize = 8;

/// Largest sum of a request's edge costs a mapper search takes on
/// ([`crate::TopoError::EdgeCostsTooLarge`] above it). Every sum the
/// kernels form — a bipartite deletion row, an assignment total, the cost
/// of an edit path — is then at most twice this plus terms in the node and
/// candidate-edge counts: far below [`crate::hungarian::INF`], so no `u64`
/// addition overflows.
pub const EDGE_COST_BOUND: u64 = 1 << 48;

/// Algorithm 1's `NodeMatch` under the unit costs (see the module doc):
/// 1 when the kinds differ. With the edge terms it reproduces the paper's
/// Figure 9 example (two edge deletions + one edge insertion + one node
/// substitution = distance 4).
fn node_substitute(a: &NodeAttr, b: &NodeAttr) -> u64 {
    u64::from(a.kind != b.kind)
}

/// Algorithm 1's `EdgeMatch` under the unit costs, for the requested edge
/// `a` and its image `b` in the candidate: a deleted or inserted edge costs
/// its `cost` ("different edges are assigned varying penalty values based
/// on their importance"), a substituted one nothing.
fn edge_term(a: Option<EdgeAttr>, b: Option<EdgeAttr>) -> u64 {
    match (a, b) {
        (Some(_), Some(_)) | (None, None) => 0,
        (Some(e), None) | (None, Some(e)) => e.cost,
    }
}

/// Result of a graph-edit-distance computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GedResult {
    /// Total edit cost (exact for [`ged_exact`], an upper bound for
    /// [`ged_bipartite`]).
    pub cost: u64,
    /// For each node of the first ("requested") topology, the candidate
    /// node it was substituted with, or `None` if deleted.
    pub mapping: Vec<Option<NodeId>>,
    /// Whether the cost is exact (A\*) rather than heuristic.
    pub exact: bool,
}

/// Computes the edit distance from `g1` (requested topology) to `g2`
/// (candidate), choosing the exact algorithm for small graphs and the
/// bipartite heuristic otherwise.
pub fn ged(g1: &Topology, g2: &Topology) -> GedResult {
    if g1.node_count().max(g2.node_count()) <= EXACT_GED_LIMIT {
        ged_exact(g1, g2)
    } else {
        ged_bipartite(g1, g2)
    }
}

/// Exact graph edit distance via A\* over partial node mappings.
///
/// Nodes of `g1` are decided in index order; each is either substituted
/// with an unused `g2` node or deleted. Once all `g1` nodes are decided,
/// unmapped `g2` nodes (and their incident edges) are inserted. Edge costs
/// are charged when the *second* endpoint of an edge is decided, so every
/// edge is charged exactly once.
///
/// # Panics
///
/// Panics if either graph has more than [`EXACT_GED_LIMIT`] nodes: a
/// search state is a fixed-size value (use [`ged`], which dispatches).
pub fn ged_exact(g1: &Topology, g2: &Topology) -> GedResult {
    #[derive(Clone, Copy, PartialEq, Eq)]
    struct State {
        g: u64,
        depth: usize,
        /// mapping[i] = j for a substitution, DELETED for a deletion
        mapping: [u8; EXACT_GED_LIMIT],
        /// bit j set = `g2` node j is some decided node's image
        used: u8,
    }
    impl Ord for State {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Max-heap on Reverse(g), tie-break deeper first for faster goal.
            other
                .g
                .cmp(&self.g)
                .then_with(|| self.depth.cmp(&other.depth))
        }
    }
    impl PartialOrd for State {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    const DELETED: u8 = u8::MAX;
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    assert!(
        n1.max(n2) <= EXACT_GED_LIMIT,
        "exact edit distance is limited to {EXACT_GED_LIMIT} nodes"
    );
    let e1 = g1.edge_table();
    let e2 = g2.edge_table();

    let mut heap: BinaryHeap<State> = BinaryHeap::new();
    heap.push(State {
        g: 0,
        depth: 0,
        mapping: [DELETED; EXACT_GED_LIMIT],
        used: 0,
    });
    let mut best = u64::MAX;
    let mut best_mapping = [DELETED; EXACT_GED_LIMIT];

    while let Some(state) = heap.pop() {
        if state.g >= best {
            continue;
        }
        let is_used = |j: usize| state.used >> j & 1 == 1;
        if state.depth == n1 {
            // Close the path: insert all unused g2 nodes + their edges.
            let total = state.g + insert_rest(&e2, n2, is_used);
            if total < best {
                best = total;
                best_mapping = state.mapping;
            }
            continue;
        }
        let u = state.depth;
        let u_id = NodeId(u as u32);
        // Option A: substitute u with any unused j.
        for j in (0..n2).filter(|&j| !is_used(j)) {
            let mut g =
                state.g + node_substitute(g1.node_attr(u_id), g2.node_attr(NodeId(j as u32)));
            // Edge costs against previously decided g1 nodes.
            for w in 0..u {
                let m = state.mapping[w];
                let image = (m != DELETED).then(|| e2[j * n2 + m as usize]).flatten();
                g += edge_term(e1[u * n1 + w], image);
            }
            if g >= best {
                continue;
            }
            let mut next = State {
                g,
                depth: u + 1,
                used: state.used | 1 << j,
                ..state
            };
            next.mapping[u] = j as u8;
            heap.push(next);
        }
        // Option B: delete u (its edges to decided nodes are deleted too).
        let mut g = state.g + 1;
        for a in e1[u * n1..u * n1 + u].iter().flatten() {
            g += a.cost;
        }
        // Edges from u to not-yet-decided g1 nodes will be charged when those
        // nodes are decided (mapping against DELETED prices a deletion).
        if g < best {
            heap.push(State {
                g,
                depth: u + 1,
                ..state
            });
        }
    }

    let mapping = best_mapping[..n1]
        .iter()
        .map(|&m| (m != DELETED).then_some(NodeId(u32::from(m))))
        .collect();
    GedResult {
        cost: best,
        mapping,
        exact: true,
    }
}

/// Bipartite (Riesen–Bunke) heuristic: solve a node-assignment problem with
/// local edge-structure estimates, then return the *exact* cost of the edit
/// path induced by that assignment (an upper bound on the true GED).
pub fn ged_bipartite(g1: &Topology, g2: &Topology) -> GedResult {
    let n1 = g1.node_count();
    let n2 = g2.node_count();
    let n = n1 + n2;
    if n == 0 {
        return GedResult {
            cost: 0,
            mapping: Vec::new(),
            exact: true,
        };
    }
    let pricer = Pricer::new(g1, g2);
    let mut cost = vec![hungarian::INF; n * n];
    for i in 0..n1 {
        let i_id = NodeId(i as u32);
        let row = &mut cost[i * n..(i + 1) * n];
        for (j, cell) in row.iter_mut().enumerate().take(n2) {
            let j_id = NodeId(j as u32);
            let sub = node_substitute(g1.node_attr(i_id), g2.node_attr(j_id));
            // Local edge estimate: degree difference priced at the cheaper of
            // insert/delete over incident edges.
            let d1 = g1.degree(i_id) as u64;
            let d2 = g2.degree(j_id) as u64;
            let edge_est = d1.abs_diff(d2);
            *cell = sub + edge_est;
        }
        // Deletion of i: node + incident edges.
        let edges = pricer.e1[i * n1..(i + 1) * n1].iter().flatten();
        row[n2 + i] = 1 + edges.map(|e| e.cost).sum::<u64>();
    }
    for j in 0..n2 {
        let row = &mut cost[(n1 + j) * n..(n1 + j + 1) * n];
        let edges = pricer.e2[j * n2..(j + 1) * n2].iter().flatten();
        row[j] = 1 + edges.map(|e| e.cost).sum::<u64>();
        // Dummy-to-dummy cells are free.
        row[n2..].fill(0);
    }
    let (assign, _) = hungarian::solve(n, &cost);
    let mapping: Vec<Option<NodeId>> = assign[..n1]
        .iter()
        .map(|&col| (col < n2).then_some(NodeId(col as u32)))
        .collect();
    GedResult {
        cost: pricer.total(&mapping),
        mapping,
        exact: false,
    }
}

/// Exact edit cost of a *given* node mapping (`None` = deletion; `g2` nodes
/// absent from the image are insertions). Useful both to finalize the
/// bipartite heuristic and to audit any mapping.
pub fn mapping_cost(g1: &Topology, g2: &Topology, mapping: &[Option<NodeId>]) -> u64 {
    Pricer::new(g1, g2).total(mapping)
}

/// Prices node mappings `g1 → g2` against dense edge tables built once:
/// [`mapping_cost`] is one [`Pricer::total`], the bipartite heuristic
/// reads its rows, and [`refine_mapping`] re-prices only the terms a swap
/// touches. An edit path's cost is a sum of per-node terms
/// ([`Pricer::node`]), per-pair terms over `g1`'s node pairs
/// ([`Pricer::pair`]) and the insertion of whatever part of `g2` the
/// mapping's image leaves out.
struct Pricer<'a> {
    g1: &'a Topology,
    g2: &'a Topology,
    e1: Vec<Option<EdgeAttr>>,
    e2: Vec<Option<EdgeAttr>>,
}

impl<'a> Pricer<'a> {
    fn new(g1: &'a Topology, g2: &'a Topology) -> Self {
        Pricer {
            g1,
            g2,
            e1: g1.edge_table(),
            e2: g2.edge_table(),
        }
    }

    /// Substitution or deletion of `g1` node `i`.
    fn node(&self, mapping: &[Option<NodeId>], i: usize) -> u64 {
        mapping[i].map_or(1, |j| {
            node_substitute(self.g1.node_attr(NodeId(i as u32)), self.g2.node_attr(j))
        })
    }

    /// The edge term of `g1` nodes `p != q`: a requested edge is
    /// substituted if its image edge exists, else deleted; an image edge
    /// with no requested edge behind it is an insertion.
    fn pair(&self, mapping: &[Option<NodeId>], p: usize, q: usize) -> u64 {
        let image = match (mapping[p], mapping[q]) {
            (Some(mp), Some(mq)) => self.e2[mp.index() * self.g2.node_count() + mq.index()],
            _ => None,
        };
        edge_term(self.e1[p * self.g1.node_count() + q], image)
    }

    /// Exact cost of the edit path `mapping` induces.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not give every `g1` node an entry or uses
    /// a `g2` node twice.
    fn total(&self, mapping: &[Option<NodeId>]) -> u64 {
        let (n1, n2) = (self.g1.node_count(), self.g2.node_count());
        assert_eq!(mapping.len(), n1, "mapping length mismatch");
        let mut used = vec![false; n2];
        for j in mapping.iter().flatten() {
            assert!(!used[j.index()], "mapping must be injective");
            used[j.index()] = true;
        }
        let mut total = 0u64;
        for p in 0..n1 {
            total += self.node(mapping, p);
            total += (p + 1..n1).map(|q| self.pair(mapping, p, q)).sum::<u64>();
        }
        // Candidate edges inside the image are pair terms above.
        total + insert_rest(&self.e2, n2, |j| used[j])
    }
}

/// Cost of inserting the part of `g2` that a mapping's image leaves out:
/// every one of its `n2` nodes `is_used` rejects and every edge (of its
/// dense table `e2`) with such an endpoint.
fn insert_rest(e2: &[Option<EdgeAttr>], n2: usize, is_used: impl Fn(usize) -> bool) -> u64 {
    let mut total = 0;
    for a in 0..n2 {
        total += u64::from(!is_used(a));
        for b in (a + 1..n2).filter(|&b| !(is_used(a) && is_used(b))) {
            if let Some(e) = e2[a * n2 + b] {
                total += e.cost;
            }
        }
    }
    total
}

/// Refines a total node mapping by 2-opt swap hill climbing: repeatedly
/// swap two virtual nodes' images when that lowers the exact
/// [`mapping_cost`], until a fixed point or `max_passes`. This is the
/// standard post-processing for bipartite-GED assignments (whose local
/// node costs ignore global edge structure) and is what untangles a
/// pipeline chain into a snake through the candidate region.
///
/// A swap of the images of `i` and `j` leaves the image set alone, so it
/// moves only the node terms of `i` and `j` and their pair terms with
/// every other node: each swap is priced by that O(n) difference.
///
/// A mapper search runs this only for requests of more than 64 nodes and
/// on chips with weighted edges; otherwise it runs `StockRefiner`, which
/// returns the same result and which this is the oracle of.
///
/// Returns the refined mapping and its cost.
pub fn refine_mapping(
    g1: &Topology,
    g2: &Topology,
    mapping: &[Option<NodeId>],
    max_passes: usize,
) -> (Vec<Option<NodeId>>, u64) {
    let pricer = Pricer::new(g1, g2);
    let mut best = mapping.to_vec();
    let mut best_cost = pricer.total(&best);
    let n = best.len();
    let touching = |m: &[Option<NodeId>], i: usize, j: usize| {
        let others = (0..n).filter(|&q| q != i && q != j);
        pricer.node(m, i)
            + pricer.node(m, j)
            + others
                .map(|q| pricer.pair(m, i, q) + pricer.pair(m, j, q))
                .sum::<u64>()
    };
    for _ in 0..max_passes {
        let mut improved = false;
        for i in 0..n {
            for j in (i + 1)..n {
                let before = touching(&best, i, j);
                best.swap(i, j);
                let c = best_cost - before + touching(&best, i, j);
                if c < best_cost {
                    best_cost = c;
                    improved = true;
                } else {
                    best.swap(i, j);
                }
            }
        }
        if !improved {
            break;
        }
    }
    (best, best_cost)
}

/// The stock kernels — [`ged_bipartite`] and [`refine_mapping`] on a
/// candidate whose edges all cost the default — for a request of at most
/// 64 nodes, over adjacency bitsets. Built once per request (one per
/// search); a candidate comes as each node's kind and its neighbours, one
/// bit each (`rows`), so neither kernel builds a subgraph.
///
/// There a request edge missing from the image costs its own cost, an
/// image edge with no request edge behind it costs 1, a substituted edge
/// 0, and a node `kind != kind`, or 1 when deleted. So
/// with the pulled-back row `P[p]` — the virtual nodes whose images
/// neighbour `p`'s — the pair terms of `p` over a set of other nodes are
/// the costs over `adj[p] & !P[p]` plus the popcount of `P[p] & !adj[p]`
/// within that set; after a swap of `i` and `j`, `i` is priced against
/// `P[j]` and `j` against `P[i]`.
pub(crate) struct StockRefiner {
    /// Each virtual node's neighbours, one bit each.
    adj: Vec<u64>,
    /// The request's edge costs, row-major `n × n`, 0 off its edges.
    cost: Vec<u64>,
    kinds: Vec<NodeKind>,
}

impl StockRefiner {
    /// The request-side tables of `g1`, or `None` past 64 nodes.
    pub(crate) fn new(g1: &Topology) -> Option<Self> {
        let n = g1.node_count();
        if n > u64::BITS as usize {
            return None;
        }
        let (mut adj, mut cost) = (vec![0u64; n], vec![0; n * n]);
        for (a, b) in g1.edges() {
            let c = g1.edge_attr(a, b).unwrap_or_default().cost;
            let (a, b) = (a.index(), b.index());
            adj[a] |= 1 << b;
            adj[b] |= 1 << a;
            cost[a * n + b] = c;
            cost[b * n + a] = c;
        }
        let kinds = g1.nodes().map(|v| g1.node_attr(v).kind).collect();
        Some(StockRefiner { adj, cost, kinds })
    }

    /// The node term of virtual node `p` with image `m` among the
    /// candidate's `kinds`, plus its pair terms against the pulled-back
    /// row `row` over the nodes in `within`.
    fn terms(&self, kinds: &[NodeKind], p: usize, m: Option<NodeId>, row: u64, within: u64) -> u64 {
        let node = m.map_or(1, |a| u64::from(self.kinds[p] != kinds[a.index()]));
        let n = self.kinds.len();
        let deleted: u64 = bits(self.adj[p] & !row & within)
            .map(|q| self.cost[p * n + q])
            .sum();
        node + deleted + u64::from((row & !self.adj[p] & within).count_ones())
    }

    /// `P[p]` under `mapping` on a candidate of neighbour rows `rows`.
    fn pulled(rows: &[u64], mapping: &[Option<NodeId>], p: usize) -> u64 {
        let near = mapping[p].map_or(0, |a| rows[a.index()]);
        let images = mapping.iter().enumerate();
        images
            .filter(|(_, m)| m.is_some_and(|b| near >> b.index() & 1 == 1))
            .fold(0, |row, (q, _)| row | 1 << q)
    }

    /// Every `P[p]`, and the exact cost of the edit path `mapping` induces
    /// — [`mapping_cost`]: node and pair terms, each
    /// pair once, then the insertion of the candidate nodes and edges the
    /// image leaves out.
    ///
    /// # Panics
    ///
    /// As [`mapping_cost`] does, and past 64 candidate nodes.
    fn price(
        &self,
        kinds: &[NodeKind],
        rows: &[u64],
        mapping: &[Option<NodeId>],
    ) -> ([u64; 64], u64) {
        let n = self.kinds.len();
        assert_eq!(mapping.len(), n, "mapping length mismatch");
        assert!(rows.len() <= 64, "a candidate row is one word");
        let mut used = 0u64;
        for a in mapping.iter().flatten() {
            assert!(used >> a.index() & 1 == 0, "mapping must be injective");
            used |= 1 << a.index();
        }
        let mut pulled = [0u64; 64];
        for (p, row) in pulled.iter_mut().enumerate().take(n) {
            *row = Self::pulled(rows, mapping, p);
        }
        let terms = (0..n).map(|p| self.terms(kinds, p, mapping[p], pulled[p], u64::MAX << p << 1));
        let inside: u32 = pulled[..n].iter().map(|row| row.count_ones()).sum();
        let edges: u32 = rows.iter().map(|row| row.count_ones()).sum();
        let outside = rows.len() - used.count_ones() as usize;
        let cost = terms.sum::<u64>() + (outside + (edges - inside) as usize / 2) as u64;
        (pulled, cost)
    }

    /// [`ged_bipartite`]`(g1, g2)` for the `g1` this was
    /// built from and a candidate `g2` given by its `kinds` and `rows`: the
    /// same cost matrix — kind mismatch plus degree difference, deletion as
    /// 1 plus the request edges' costs, insertion as 1 plus the degree —
    /// the same solver, and the assignment's edit path priced as
    /// [`StockRefiner::price`] prices it. A pair of empty graphs is the one
    /// case that differs (`exact` is `false` here), and no search scores
    /// one.
    pub(crate) fn bipartite(&self, kinds: &[NodeKind], rows: &[u64]) -> GedResult {
        let (n1, n2) = (self.kinds.len(), rows.len());
        let n = n1 + n2;
        let mut cost = vec![hungarian::INF; n * n];
        for (i, row) in cost.chunks_exact_mut(n.max(1)).enumerate() {
            if let Some(j) = i.checked_sub(n1) {
                row[j] = 1 + u64::from(rows[j].count_ones());
                row[n2..].fill(0);
                continue;
            }
            let degree = self.adj[i].count_ones();
            for (j, cell) in row[..n2].iter_mut().enumerate() {
                let kind = u64::from(self.kinds[i] != kinds[j]);
                *cell = kind + u64::from(degree.abs_diff(rows[j].count_ones()));
            }
            let deleted: u64 = bits(self.adj[i]).map(|q| self.cost[i * n1 + q]).sum();
            row[n2 + i] = 1 + deleted;
        }
        let (assign, _) = hungarian::solve(n, &cost);
        let mapping: Vec<Option<NodeId>> = assign[..n1]
            .iter()
            .map(|&col| (col < n2).then_some(NodeId(col as u32)))
            .collect();
        GedResult {
            cost: self.price(kinds, rows, &mapping).1,
            mapping,
            exact: false,
        }
    }

    /// [`refine_mapping`]`(g1, g2, mapping, max_passes)` for
    /// the `g1` this was built from and a candidate `g2` given by its
    /// `kinds` and `rows`: the same swaps in the same order, accepted on the
    /// same strict `<` of the same integers.
    ///
    /// # Panics
    ///
    /// As [`refine_mapping`] does, and past 64 candidate nodes.
    pub(crate) fn refine(
        &self,
        kinds: &[NodeKind],
        rows: &[u64],
        mapping: &[Option<NodeId>],
        max_passes: usize,
    ) -> (Vec<Option<NodeId>>, u64) {
        let n = self.kinds.len();
        let mut best = mapping.to_vec();
        let (mut pulled, mut best_cost) = self.price(kinds, rows, &best);
        for _ in 0..max_passes {
            let mut improved = false;
            for i in 0..n {
                for j in (i + 1)..n {
                    let others = !(1u64 << i | 1 << j);
                    let (mi, mj) = (best[i], best[j]);
                    let before = self.terms(kinds, i, mi, pulled[i], others)
                        + self.terms(kinds, j, mj, pulled[j], others);
                    let after = self.terms(kinds, i, mj, pulled[j], others)
                        + self.terms(kinds, j, mi, pulled[i], others);
                    let c = best_cost - before + after;
                    if c < best_cost {
                        best_cost = c;
                        improved = true;
                        best.swap(i, j);
                        // Every other row trades bits `i` and `j`.
                        for row in &mut pulled[..n] {
                            let d = (*row >> i ^ *row >> j) & 1;
                            *row ^= d << i | d << j;
                        }
                        pulled[i] = Self::pulled(rows, &best, i);
                        pulled[j] = Self::pulled(rows, &best, j);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (best, best_cost)
    }
}

/// The indices of `mask`'s set bits, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        bit
    })
}

#[cfg(test)]
mod reference {
    //! The kernels this module replaced, kept verbatim as differential
    //! oracles: the A\* whose states own `Vec`s and ask the edge map, the
    //! edge-walking `mapping_cost`, and the 2-opt loop that re-prices the
    //! whole mapping for every swap, each over the cost trait they were
    //! written against, instantiated here with the unit costs. The
    //! campaigns hold the replacements to identical results — mappings
    //! included, not only costs.

    use super::*;
    use crate::testing::{connected_subset, relabeled, sprinkle_kinds, Rng};

    /// Customizable edit costs — the paper's `NodeMatch` / `EdgeMatch`
    /// procedures (Algorithm 1, lines 1–9).
    trait MatchCosts {
        /// Cost of substituting node `a` (in the requested topology) with
        /// node `b` (in the candidate). Zero means a perfect match.
        fn node_substitute(&self, a: &NodeAttr, b: &NodeAttr) -> u64;

        /// Cost of deleting a requested node (leaving it unmapped).
        fn node_delete(&self, a: &NodeAttr) -> u64;

        /// Cost of inserting a candidate node not present in the request.
        fn node_insert(&self, b: &NodeAttr) -> u64;

        /// Cost of deleting a requested edge absent from the candidate.
        fn edge_delete(&self, e: &EdgeAttr) -> u64;

        /// Cost of inserting a candidate edge absent from the request.
        fn edge_insert(&self, e: &EdgeAttr) -> u64;

        /// Cost of substituting one existing edge for another (both
        /// present); defaults to free.
        fn edge_substitute(&self, _a: &EdgeAttr, _b: &EdgeAttr) -> u64 {
            0
        }
    }

    /// Unit costs: every structural difference counts 1; node kinds must
    /// match exactly or cost 1.
    struct UniformCosts;

    impl MatchCosts for UniformCosts {
        fn node_substitute(&self, a: &NodeAttr, b: &NodeAttr) -> u64 {
            u64::from(a.kind != b.kind)
        }
        fn node_delete(&self, _a: &NodeAttr) -> u64 {
            1
        }
        fn node_insert(&self, _b: &NodeAttr) -> u64 {
            1
        }
        fn edge_delete(&self, e: &EdgeAttr) -> u64 {
            e.cost
        }
        fn edge_insert(&self, e: &EdgeAttr) -> u64 {
            e.cost
        }
    }

    fn ged_exact(g1: &Topology, g2: &Topology, costs: &dyn MatchCosts) -> GedResult {
        #[derive(PartialEq, Eq)]
        struct State {
            g: u64,
            depth: usize,
            /// mapping[i] = Some(j) substitution, Some(usize::MAX as u32) = deleted
            mapping: Vec<u32>,
            used: Vec<bool>,
        }
        impl Ord for State {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Max-heap on Reverse(g), tie-break deeper first for faster goal.
                other
                    .g
                    .cmp(&self.g)
                    .then_with(|| self.depth.cmp(&other.depth))
            }
        }
        impl PartialOrd for State {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        const DELETED: u32 = u32::MAX;
        let n1 = g1.node_count();
        let n2 = g2.node_count();

        let mut heap: BinaryHeap<State> = BinaryHeap::new();
        heap.push(State {
            g: 0,
            depth: 0,
            mapping: Vec::new(),
            used: vec![false; n2],
        });
        let mut best = u64::MAX;
        let mut best_mapping: Vec<u32> = Vec::new();

        while let Some(state) = heap.pop() {
            if state.g >= best {
                continue;
            }
            if state.depth == n1 {
                // Close the path: insert all unused g2 nodes + their edges.
                let mut total = state.g;
                for j in 0..n2 {
                    if !state.used[j] {
                        total += costs.node_insert(g2.node_attr(NodeId(j as u32)));
                    }
                }
                // Edges of g2 with at least one unused endpoint are inserted.
                for (a, b) in g2.edges() {
                    if !state.used[a.index()] || !state.used[b.index()] {
                        total += costs.edge_insert(&g2.edge_attr(a, b).unwrap_or_default());
                    }
                }
                if total < best {
                    best = total;
                    best_mapping = state.mapping.clone();
                }
                continue;
            }
            let u = state.depth;
            let u_id = NodeId(u as u32);
            // Option A: substitute u with any unused j.
            for j in 0..n2 {
                if state.used[j] {
                    continue;
                }
                let j_id = NodeId(j as u32);
                let mut g = state.g + costs.node_substitute(g1.node_attr(u_id), g2.node_attr(j_id));
                // Edge costs against previously decided g1 nodes.
                for w in 0..u {
                    let w_id = NodeId(w as u32);
                    let e1 = g1.edge_attr(u_id, w_id);
                    let m = state.mapping[w];
                    let e2 = if m == DELETED {
                        None
                    } else {
                        g2.edge_attr(j_id, NodeId(m))
                    };
                    g += match (e1, e2) {
                        (Some(a), Some(b)) => costs.edge_substitute(&a, &b),
                        (Some(a), None) => costs.edge_delete(&a),
                        (None, Some(b)) => costs.edge_insert(&b),
                        (None, None) => 0,
                    };
                }
                if g >= best {
                    continue;
                }
                let mut mapping = state.mapping.clone();
                mapping.push(j as u32);
                let mut used = state.used.clone();
                used[j] = true;
                heap.push(State {
                    g,
                    depth: u + 1,
                    mapping,
                    used,
                });
            }
            // Option B: delete u (its edges to decided nodes are deleted too).
            let mut g = state.g + costs.node_delete(g1.node_attr(u_id));
            for w in 0..u {
                if let Some(a) = g1.edge_attr(u_id, NodeId(w as u32)) {
                    g += costs.edge_delete(&a);
                }
            }
            // Edges from u to not-yet-decided g1 nodes will be charged when those
            // nodes are decided (mapping against DELETED yields edge_delete).
            if g < best {
                let mut mapping = state.mapping.clone();
                mapping.push(DELETED);
                heap.push(State {
                    g,
                    depth: u + 1,
                    mapping,
                    used: state.used,
                });
            }
        }

        let mapping = best_mapping
            .iter()
            .map(|&m| (m != DELETED).then_some(NodeId(m)))
            .collect();
        GedResult {
            cost: best,
            mapping,
            exact: true,
        }
    }

    fn mapping_cost(
        g1: &Topology,
        g2: &Topology,
        mapping: &[Option<NodeId>],
        costs: &dyn MatchCosts,
    ) -> u64 {
        assert_eq!(mapping.len(), g1.node_count(), "mapping length mismatch");
        let mut total = 0u64;
        let mut used = vec![false; g2.node_count()];
        for (i, m) in mapping.iter().enumerate() {
            let i_id = NodeId(i as u32);
            match m {
                Some(j) => {
                    assert!(!used[j.index()], "mapping must be injective");
                    used[j.index()] = true;
                    total += costs.node_substitute(g1.node_attr(i_id), g2.node_attr(*j));
                }
                None => total += costs.node_delete(g1.node_attr(i_id)),
            }
        }
        for (j, &u) in used.iter().enumerate() {
            if !u {
                total += costs.node_insert(g2.node_attr(NodeId(j as u32)));
            }
        }
        // Requested edges: substituted if image edge exists, else deleted.
        for (a, b) in g1.edges() {
            let attr = g1.edge_attr(a, b).unwrap_or_default();
            match (mapping[a.index()], mapping[b.index()]) {
                (Some(ma), Some(mb)) => match g2.edge_attr(ma, mb) {
                    Some(e2) => total += costs.edge_substitute(&attr, &e2),
                    None => total += costs.edge_delete(&attr),
                },
                _ => total += costs.edge_delete(&attr),
            }
        }
        // Candidate edges with no pre-image are insertions.
        let mut preimage = vec![None; g2.node_count()];
        for (i, m) in mapping.iter().enumerate() {
            if let Some(j) = m {
                preimage[j.index()] = Some(i);
            }
        }
        for (a, b) in g2.edges() {
            let covered = match (preimage[a.index()], preimage[b.index()]) {
                (Some(pa), Some(pb)) => g1.has_edge(NodeId(pa as u32), NodeId(pb as u32)),
                _ => false,
            };
            if !covered {
                total += costs.edge_insert(&g2.edge_attr(a, b).unwrap_or_default());
            }
        }
        total
    }

    fn refine_mapping(
        g1: &Topology,
        g2: &Topology,
        mapping: &[Option<NodeId>],
        costs: &dyn MatchCosts,
        max_passes: usize,
    ) -> (Vec<Option<NodeId>>, u64) {
        let mut best = mapping.to_vec();
        let mut best_cost = mapping_cost(g1, g2, &best, costs);
        let n = best.len();
        for _ in 0..max_passes {
            let mut improved = false;
            for i in 0..n {
                for j in (i + 1)..n {
                    best.swap(i, j);
                    let c = mapping_cost(g1, g2, &best, costs);
                    if c < best_cost {
                        best_cost = c;
                        improved = true;
                    } else {
                        best.swap(i, j);
                    }
                }
            }
            if !improved {
                break;
            }
        }
        (best, best_cost)
    }

    /// A connected region of a 6x6 mesh as a graph of its own, under
    /// random labels, and — `dressed` — random node kinds and edge costs.
    fn region(k: usize, dressed: bool, rng: &mut Rng) -> Topology {
        let mesh = Topology::mesh2d(6, 6);
        let mut t = relabeled(
            &mesh.induced_subgraph(&connected_subset(&mesh, k, rng)).0,
            rng,
        );
        if dressed {
            sprinkle_kinds(&mut t, rng);
            for (a, b) in t.edges().collect::<Vec<_>>() {
                let cost = 1 + rng.below(3) as u64;
                t.add_edge_with(a, b, EdgeAttr { cost }).unwrap();
            }
        }
        t
    }

    /// A candidate as the stock kernels read it: each node's kind and its
    /// neighbours, one bit each.
    fn stock_rows(g: &Topology) -> (Vec<NodeKind>, Vec<u64>) {
        let kinds = g.nodes().map(|v| g.node_attr(v).kind).collect();
        let rows = g
            .nodes()
            .map(|v| g.neighbors(v).iter().fold(0, |row, w| row | 1 << w.0));
        (kinds, rows.collect())
    }

    #[test]
    fn bitset_bipartite_matches_the_edge_table_kernel() {
        const CASES: usize = 400;
        let mut rng = Rng(0x5EED_6102);
        // Cases with a weighted request, with kinds on the candidate, of
        // more than 32 nodes, at 64 nodes, and at a nonzero distance.
        let mut reached = [0usize; 5];
        for case in 0..CASES {
            // Connected regions of an 8x8 mesh, as a search's candidates
            // are, under random labels; the request and the candidate have
            // the node count R-1 gives them.
            let n = if case == 0 { 64 } else { 9 + rng.below(56) };
            let mesh = Topology::mesh2d(8, 8);
            let mut pick = || {
                relabeled(
                    &mesh
                        .induced_subgraph(&connected_subset(&mesh, n, &mut rng))
                        .0,
                    &mut rng,
                )
            };
            let (mut g1, mut g2) = (pick(), pick());
            if case % 2 == 1 {
                sprinkle_kinds(&mut g1, &mut rng);
                for (a, b) in g1.edges().collect::<Vec<_>>() {
                    let cost = 1 + rng.below(4) as u64;
                    g1.add_edge_with(a, b, EdgeAttr { cost }).unwrap();
                }
            }
            if case % 4 >= 2 {
                sprinkle_kinds(&mut g2, &mut rng);
            }
            let want = super::ged_bipartite(&g1, &g2);
            let (kinds, rows) = stock_rows(&g2);
            let got = StockRefiner::new(&g1)
                .expect("at most 64 nodes")
                .bipartite(&kinds, &rows);
            assert_eq!(got, want, "case {case}: {n} nodes");
            let sprinkled = kinds.iter().any(|&k| k != NodeKind::default());
            for (i, hit) in [
                !g1.has_default_edge_costs(),
                sprinkled,
                n > 32,
                n == 64,
                want.cost > 0,
            ]
            .into_iter()
            .enumerate()
            {
                reached[i] += usize::from(hit);
            }
        }
        println!(
            "bitset-bipartite campaign: {CASES} request/candidate pairs of 9-64 nodes, identical \
             GedResults; {} weighted requests, {} candidates with kinds, {} above 32 nodes, \
             {} at 64, {} at a nonzero distance",
            reached[0], reached[1], reached[2], reached[3], reached[4]
        );
        assert!(
            reached.iter().all(|&n| n > 0),
            "a case was never reached: {reached:?}"
        );
    }

    #[test]
    fn exact_search_matches_the_vec_cloning_reference() {
        const PAIRS: usize = 600;
        let mut rng = Rng(0x5EED_1019);
        let mut nonzero = 0;
        for case in 0..PAIRS {
            let g1 = region(1 + rng.below(EXACT_GED_LIMIT), case % 2 == 1, &mut rng);
            let g2 = region(1 + rng.below(EXACT_GED_LIMIT), case % 4 >= 2, &mut rng);
            let got = super::ged_exact(&g1, &g2);
            assert_eq!(got, ged_exact(&g1, &g2, &UniformCosts), "case {case}");
            nonzero += usize::from(got.cost > 0);
        }
        println!(
            "exact-GED campaign: {PAIRS} pairs, identical results; {nonzero} at a nonzero distance"
        );
        assert!(
            nonzero > PAIRS / 2,
            "too few non-trivial distances: {nonzero}"
        );
    }

    #[test]
    fn delta_refinement_matches_the_full_recompute_reference() {
        const CASES: usize = 1_200;
        let mut rng = Rng(0x5EED_2019);
        // Starts that refinement improved: total, partial.
        let mut improved = [0usize; 2];
        // Bitset-kernel runs: total starts, partial starts, weighted requests.
        let mut stock = [0usize; 3];
        for case in 0..CASES {
            let n1 = 2 + rng.below(11);
            let g1 = region(n1, case % 2 == 1, &mut rng);
            let partial = case % 3 == 0;
            // A partial start leaves some requested nodes unmapped and
            // may leave candidate nodes over.
            let n2 = if partial { 1 + rng.below(n1 + 2) } else { n1 };
            let g2 = region(n2, case % 4 >= 2, &mut rng);
            let mut images: Vec<Option<NodeId>> = (0..n2 as u32).map(|j| Some(NodeId(j))).collect();
            images.resize(n1.max(n2), None);
            for i in (1..images.len()).rev() {
                images.swap(i, rng.below(i + 1));
            }
            images.truncate(n1);
            let start = mapping_cost(&g1, &g2, &images, &UniformCosts);
            assert_eq!(super::mapping_cost(&g1, &g2, &images), start);
            let got = super::refine_mapping(&g1, &g2, &images, 8);
            assert_eq!(
                got,
                refine_mapping(&g1, &g2, &images, &UniformCosts, 8),
                "case {case}"
            );
            improved[usize::from(partial)] += usize::from(got.1 < start);
            // A default-cost candidate: the bitset kernel returns what the
            // delta loop does.
            if g2.has_default_edge_costs() {
                let kernel = StockRefiner::new(&g1).expect("at most 12 nodes");
                let (kinds, rows) = stock_rows(&g2);
                let bitsets = kernel.refine(&kinds, &rows, &images, 8);
                assert_eq!(bitsets, got, "case {case}: bitsets");
                stock[usize::from(partial)] += 1;
                stock[2] += usize::from(!g1.has_default_edge_costs());
            }
        }
        // One 64-node request, dressed, from a scrambled start: every
        // row is a full word.
        let mut g1 = Topology::mesh2d(8, 8);
        sprinkle_kinds(&mut g1, &mut rng);
        for (a, b) in g1.edges().collect::<Vec<_>>() {
            let cost = 1 + rng.below(3) as u64;
            g1.add_edge_with(a, b, EdgeAttr { cost }).unwrap();
        }
        let mut g2 = relabeled(&Topology::mesh2d(8, 8), &mut rng);
        sprinkle_kinds(&mut g2, &mut rng);
        let mut images: Vec<Option<NodeId>> = (0..64).map(|j| Some(NodeId(j))).collect();
        for i in (1..images.len()).rev() {
            images.swap(i, rng.below(i + 1));
        }
        let kernel = StockRefiner::new(&g1).expect("64 nodes fit a word");
        let want = super::refine_mapping(&g1, &g2, &images, 8);
        assert!(want.1 < mapping_cost(&g1, &g2, &images, &UniformCosts));
        let (kinds, rows) = stock_rows(&g2);
        assert_eq!(kernel.refine(&kinds, &rows, &images, 8), want, "64 nodes");
        assert!(StockRefiner::new(&Topology::line(65)).is_none());
        println!(
            "2-opt campaign: {CASES} starts, identical (mapping, cost); \
             improved {} total and {} partial starts; the bitset kernel matched \
             {} total and {} partial starts, {} of weighted requests, and a 64-node one",
            improved[0], improved[1], stock[0], stock[1], stock[2]
        );
        assert!(improved.iter().all(|&n| n > 0), "refinement never ran");
        assert!(
            stock.iter().all(|&n| n > 0),
            "the bitset kernel missed a case"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeKind, Topology};

    #[test]
    fn identical_graphs_distance_zero() {
        let a = Topology::mesh2d(2, 2);
        let r = ged(&a, &a.clone());
        assert_eq!(r.cost, 0);
        assert!(r.exact);
    }

    #[test]
    fn isomorphic_graphs_distance_zero() {
        let a = Topology::mesh2d(2, 3);
        let b = Topology::mesh2d(3, 2);
        let r = ged(&a, &b);
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn single_edge_deletion() {
        let a = Topology::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap(); // triangle
        let b = Topology::from_edges(3, &[(0, 1), (1, 2)]).unwrap(); // path
        let r = ged_exact(&a, &b);
        assert_eq!(r.cost, 1);
    }

    #[test]
    fn figure9_style_example() {
        // T1: square 0-1-2-3-0 plus a pendant 4 attached to 0,
        // T2: path 0-1-2-3 with 4 attached to 1 and a different kind on one node.
        // We verify the *computed* exact distance equals the cost of the best
        // manual edit script we can find, rather than hard-coding the paper's 4
        // (their exact T1/T2 are drawn, not specified numerically).
        let t1 = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]).unwrap();
        let mut t2 = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 4)]).unwrap();
        t2.node_attr_mut(NodeId(4)).kind = NodeKind::VectorOptimized;
        let r = ged_exact(&t1, &t2);
        // Identity mapping: delete (3,0), delete (0,4), insert (1,4), sub node4 = 4.
        let identity: Vec<Option<NodeId>> = (0..5).map(|i| Some(NodeId(i))).collect();
        let manual = mapping_cost(&t1, &t2, &identity);
        assert!(r.cost <= manual);
        assert!(r.cost > 0);
    }

    #[test]
    fn size_mismatch_requires_insertions() {
        let a = Topology::line(2); // 2 nodes, 1 edge
        let b = Topology::line(4); // 4 nodes, 3 edges
        let r = ged_exact(&a, &b);
        // insert 2 nodes + 2 edges
        assert_eq!(r.cost, 4);
    }

    #[test]
    fn bipartite_upper_bounds_exact() {
        let graphs = [
            Topology::mesh2d(2, 3),
            Topology::line(6),
            Topology::ring(6),
            Topology::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap(), // star
        ];
        for a in &graphs {
            for b in &graphs {
                let exact = ged_exact(a, b);
                let approx = ged_bipartite(a, b);
                assert!(
                    approx.cost >= exact.cost,
                    "bipartite must upper-bound exact: {} < {}",
                    approx.cost,
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn bipartite_zero_on_identical() {
        let a = Topology::mesh2d(4, 4); // above exact limit
        let r = ged(&a, &a.clone());
        assert!(!r.exact);
        assert_eq!(r.cost, 0);
    }

    #[test]
    fn mapping_cost_of_perfect_mapping_is_zero() {
        let a = Topology::mesh2d(2, 2);
        let identity: Vec<Option<NodeId>> = (0..4).map(|i| Some(NodeId(i))).collect();
        assert_eq!(mapping_cost(&a, &a, &identity), 0);
    }

    #[test]
    fn critical_edge_penalty() {
        // Deleting a critical edge must cost more than a normal one.
        let mut a = Topology::empty(2);
        a.add_edge_with(NodeId(0), NodeId(1), EdgeAttr { cost: 10 })
            .unwrap();
        let b = Topology::empty(2);
        let r = ged_exact(&a, &b);
        assert_eq!(r.cost, 10);
    }

    #[test]
    fn symmetry_with_uniform_costs_small() {
        let a = Topology::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let b = Topology::ring(4);
        let ab = ged_exact(&a, &b);
        let ba = ged_exact(&b, &a);
        assert_eq!(ab.cost, ba.cost);
    }

    #[test]
    fn exact_mapping_is_injective_and_cost_consistent() {
        let a = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let b = Topology::ring(5);
        let r = ged_exact(&a, &b);
        let recomputed = mapping_cost(&a, &b, &r.mapping);
        assert_eq!(r.cost, recomputed);
    }

    #[test]
    fn refinement_never_worsens_and_untangles_chains() {
        // Map an 8-chain onto a 4x2 mesh starting from a scrambled
        // mapping; refinement must reach the snake (cost 1: the mesh has
        // 10 edges, the snake covers 7, leaving 3 insertions... with
        // uniform costs the mesh's extra edges count as insertions, so
        // the floor is edge_count(mesh) - 7 = 3).
        let chain = Topology::line(8);
        let mesh = Topology::mesh2d(4, 2);
        let scrambled: Vec<Option<NodeId>> = [3u32, 6, 1, 4, 7, 0, 5, 2]
            .iter()
            .map(|&i| Some(NodeId(i)))
            .collect();
        let start = mapping_cost(&chain, &mesh, &scrambled);
        let (refined, cost) = refine_mapping(&chain, &mesh, &scrambled, 16);
        assert_eq!(cost, mapping_cost(&chain, &mesh, &refined));
        // Hill climbing may stop in a local optimum (the global snake costs
        // 3); it must still improve substantially over the scramble.
        assert!(
            cost < start && cost <= 5,
            "refinement too weak: {start} -> {cost}"
        );
        // From the serpentine start (what the mapper seeds chain requests
        // with) the snake is already optimal: 0 deleted chain edges.
        let snake: Vec<Option<NodeId>> = [0u32, 1, 2, 3, 7, 6, 5, 4]
            .iter()
            .map(|&i| Some(NodeId(i)))
            .collect();
        let (_, s_cost) = refine_mapping(&chain, &mesh, &snake, 4);
        assert_eq!(s_cost, 3);
    }
}
