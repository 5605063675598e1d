//! Canonical forms for small graphs, used to deduplicate isomorphic
//! candidate topologies (Algorithm 1, line 25: "for the same topology, we
//! retain only one instance").
//!
//! A walk keys every enumerated candidate its score memo's class table
//! misses (every one, without a memo), so the key works on integers and
//! allocates nothing for graphs of at most [`EXACT_CANONICAL_LIMIT`] nodes
//! (one buffer above). It reads a graph through one crate-private trait,
//! `Graph` — each node's kind and neighbour bit row — which a [`Topology`]
//! gives ([`canonical_key`]) and so does a candidate's view, its kinds
//! and rows read from its cells with no subgraph built
//! (`mapping::neighbour_rows`): one code path, so a candidate's key
//! *value* is its built subgraph's. `find_isomorphism` reads the
//! candidate through the same trait.
//! Its two stages:
//!
//! * `wl_colors` — Weisfeiler–Lehman colour refinement over a colour
//!   array. A round folds each node's colour with the multiset of its
//!   neighbours' (a wrapping sum of mixed words, so no sorting) and the
//!   round number; refinement stops at the first round that splits no
//!   class, which two WL-equivalent graphs reach together, so their
//!   colours stay comparable. Sound for *distinguishing* graphs, but
//!   WL-equivalent non-isomorphic graphs collide; an order-free fold of
//!   the colours is the key above the limit.
//! * the exact canonical code — the smallest upper-triangle adjacency
//!   code (45 bits at ten nodes) over the node orders that respect the
//!   colour classes, found by a pruned search over stack arrays.
//!   Exponential in the worst case but cheap for the ≤10-node candidate
//!   topologies that dominate virtual-NPU requests.
//!
//! **Why results cannot move.** Key *values* are opaque (compared, hashed
//! in memory, never persisted or digested); what the mapper reads is the
//! partition they induce, and that is what any correct implementation
//! gives: isomorphism classes (node kinds respected) up to the limit,
//! WL-equivalence classes above it. The test-only `reference` module keeps
//! the hashing implementation this one replaced and holds the two to the
//! same partition, and `mapping`'s `candidate_keys_match_the_built_subgraph`
//! holds a candidate view's key and isomorphisms to its built subgraph's,
//! value for value. The one place a colour *value* used to decide something
//! — the order `find_isomorphism` settles the request's nodes in, and
//! with it which automorphic image an exact match lands on — keeps its
//! historical definition (`decision_order`).

use crate::cache::mix;
use crate::ged::{bits, Row};
use crate::{NodeId, NodeKind, Topology};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Largest node count for which [`canonical_key`] computes the exact
/// canonical form; larger graphs fall back to the WL hash.
pub const EXACT_CANONICAL_LIMIT: usize = 10;

/// A key identifying a topology up to isomorphism (exactly for graphs of at
/// most [`EXACT_CANONICAL_LIMIT`] nodes; heuristically via WL hashing
/// beyond).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalKey {
    nodes: usize,
    edges: usize,
    /// Node kinds by canonical position, two bits each (exact keys; the WL
    /// hash already carries them), so heterogeneous topologies with
    /// different core-kind distributions never collide.
    kinds: u64,
    code: u64,
}

impl CanonicalKey {
    /// The key in one word when it is of at most nine nodes (and so
    /// exact): the code in bits 0..36, the kinds in bits 36..54, the node
    /// count at bit 54 and the edge count at bit 58.
    pub(crate) fn pack(&self) -> Option<u64> {
        let (nodes, edges) = (self.nodes as u64, self.edges as u64);
        (nodes <= 9).then_some(self.code | self.kinds << 36 | nodes << 54 | edges << 58)
    }

    /// The key [`CanonicalKey::pack`] packed into `word`.
    pub(crate) fn unpack(word: u64) -> Self {
        CanonicalKey {
            nodes: (word >> 54 & 0xF) as usize,
            edges: (word >> 58) as usize,
            kinds: word >> 36 & 0x3_FFFF,
            code: word & 0xF_FFFF_FFFF,
        }
    }

    /// The keyed graph's edge count: keys of unequal counts differ.
    pub(crate) fn edges(&self) -> usize {
        self.edges
    }
}

/// A graph as a key reads it.
pub(crate) trait Graph {
    fn node_count(&self) -> usize;
    /// Node `i`'s kind and its neighbour row: bit `v % 64` of word
    /// `v / 64` is set for each neighbour `v`.
    fn node(&self, i: usize) -> (NodeKind, &[u64]);
}

impl Graph for Topology {
    fn node_count(&self) -> usize {
        Topology::node_count(self)
    }
    fn node(&self, i: usize) -> (NodeKind, &[u64]) {
        let node = NodeId(i as u32);
        (self.node_attr(node).kind, self.row(node))
    }
}

/// A candidate's view: its kinds and neighbour rows
/// (`mapping::neighbour_rows`).
impl<const W: usize> Graph for (Vec<NodeKind>, Vec<Row<W>>) {
    fn node_count(&self) -> usize {
        self.0.len()
    }
    fn node(&self, i: usize) -> (NodeKind, &[u64]) {
        (self.0[i], &self.1[i])
    }
}

/// Computes the dedup key for a topology.
pub fn canonical_key(t: &Topology) -> CanonicalKey {
    key_of(t)
}

/// [`canonical_key`] of any [`Graph`].
pub(crate) fn key_of(g: &impl Graph) -> CanonicalKey {
    let n = g.node_count();
    let (kinds, code) = if n <= EXACT_CANONICAL_LIMIT {
        let mut lanes = [0u64; 3 * EXACT_CANONICAL_LIMIT];
        wl_refine(g, &mut lanes[..3 * n]);
        exact_code(g, &lanes[..n])
    } else {
        let mut lanes = vec![0; 3 * n];
        wl_refine(g, &mut lanes);
        let colors = lanes[..n].iter();
        (0, colors.fold(0u64, |acc, &c| acc.wrapping_add(mix(c))))
    };
    CanonicalKey {
        nodes: n,
        edges: (0..n).map(|i| degree(g.node(i).1)).sum::<usize>() / 2,
        kinds,
        code,
    }
}

/// How many nodes `row` holds.
fn degree(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

/// Runs WL colour refinement to a fixed point and returns per-node colours.
pub(crate) fn wl_colors(g: &impl Graph) -> Vec<u64> {
    let n = g.node_count();
    let mut lanes = vec![0u64; 3 * n];
    wl_refine(g, &mut lanes);
    lanes.truncate(n);
    lanes
}

/// WL refinement over three `n`-word lanes of `lanes` (colours, the next
/// round, a sorted copy), leaving the final colours in the first. Returns
/// the number of rounds run: one more than the partition needed to settle
/// (refinement only ever splits classes, so a round that leaves their
/// number unchanged changed nothing), and never more than `n`.
fn wl_refine(g: &impl Graph, lanes: &mut [u64]) -> usize {
    let n = g.node_count();
    let (colors, rest) = lanes.split_at_mut(n);
    let (next, sorted) = rest.split_at_mut(n);
    let mut class_count = |colors: &[u64]| {
        sorted.copy_from_slice(colors);
        sorted.sort_unstable();
        1 + sorted.windows(2).filter(|w| w[0] != w[1]).count()
    };
    // Initial colour: (degree, node kind) so heterogeneous nodes differ.
    for (i, c) in colors.iter_mut().enumerate() {
        let (kind, row) = g.node(i);
        *c = mix((degree(row) as u64) << 8 | kind as u64);
    }
    let mut classes = class_count(colors);
    for round in 1..=n {
        for (i, slot) in next.iter_mut().enumerate() {
            // The round number keeps colours of different depths apart, so
            // graphs that settle after different rounds never share one.
            let own = mix(colors[i] ^ round as u64);
            let around = bits(g.node(i).1.iter().copied());
            *slot = mix(around.fold(own, |acc, v| acc.wrapping_add(mix(colors[v]))));
        }
        colors.copy_from_slice(next);
        let refined = class_count(colors);
        if refined == classes {
            return round;
        }
        classes = refined;
    }
    n
}

/// `(kinds, code)`, the exact canonical form of a graph of at most
/// [`EXACT_CANONICAL_LIMIT`] nodes given its WL colours: its node kinds by
/// canonical position, then the smallest adjacency code over all node
/// orders compatible with the colouring. Two such graphs are isomorphic
/// (respecting node kinds) iff their forms are equal.
/// Canonical position `k` may hold any node of the `k`-th smallest colour;
/// `code` lists, position by position, whether each earlier position is a
/// neighbour — the upper triangle of the reordered adjacency matrix, most
/// significant bit first.
fn exact_code(g: &impl Graph, colors: &[u64]) -> (u64, u64) {
    let n = colors.len();
    let mut search = CodeSearch {
        colors,
        order: [0; EXACT_CANONICAL_LIMIT],
        rows: [0; EXACT_CANONICAL_LIMIT],
        placed: [0; EXACT_CANONICAL_LIMIT],
        best: u64::MAX,
    };
    for i in 0..n {
        search.order[i] = i;
        // At most ten nodes: one word, of which ten bits.
        search.rows[i] = g.node(i).1[0] as u16;
    }
    search.order[..n].sort_unstable_by_key(|&i| (colors[i], i));
    let kinds = search.order[..n]
        .iter()
        .enumerate()
        .fold(0, |acc, (k, &i)| acc | (g.node(i).0 as u64) << (2 * k));
    search.place(0, 0, 0);
    (kinds, search.best)
}

/// Branch-and-bound state of [`exact_code`], all on the stack.
struct CodeSearch<'a> {
    colors: &'a [u64],
    /// Nodes by `(colour, index)`: position `k` takes a node coloured like
    /// `order[k]`.
    order: [usize; EXACT_CANONICAL_LIMIT],
    /// Adjacency bit rows by original node index.
    rows: [u16; EXACT_CANONICAL_LIMIT],
    /// Node at each canonical position decided so far.
    placed: [usize; EXACT_CANONICAL_LIMIT],
    best: u64,
}

impl CodeSearch<'_> {
    /// Tries every unused node of the right colour at position `pos`,
    /// abandoning a prefix as soon as it exceeds the best code's.
    fn place(&mut self, pos: usize, used: u16, code: u64) {
        let n = self.colors.len();
        if pos == n {
            self.best = code;
            return;
        }
        // Code bits that positions after `pos` will still append.
        let rest = n * (n - 1) / 2 - pos * (pos + 1) / 2;
        for k in 0..n {
            let v = self.order[k];
            if used >> v & 1 == 1 || self.colors[v] != self.colors[self.order[pos]] {
                continue;
            }
            let grown = self.placed[..pos]
                .iter()
                .fold(code, |acc, &p| acc << 1 | u64::from(self.rows[v] >> p & 1));
            if grown <= self.best >> rest {
                self.placed[pos] = v;
                self.place(pos + 1, used | 1 << v, grown);
            }
        }
    }
}

/// Finds an isomorphism `a → b` (respecting node kinds), returning for each
/// `a`-node the matching `b`-node, or `None` if the graphs are not
/// isomorphic. Equal sorted colours and a backtracking search that checks
/// every pair's edge decide it, so no cheaper invariant is compared first.
pub(crate) fn find_isomorphism(a: &Topology, b: &impl Graph) -> Option<Vec<NodeId>> {
    let n = a.node_count();
    if b.node_count() != n {
        return None;
    }
    let ca = wl_colors(a);
    let cb = wl_colors(b);
    let mut sa = ca.clone();
    let mut sb = cb.clone();
    sa.sort_unstable();
    sb.sort_unstable();
    if sa != sb {
        return None;
    }
    // Backtracking search mapping a-nodes to b-nodes of equal colour.
    let search = IsoSearch {
        a,
        b,
        ca: &ca,
        cb: &cb,
        order: &decision_order(a),
    };
    let mut mapping = vec![usize::MAX; n];
    let mut used = vec![false; n];
    search
        .backtrack(0, &mut mapping, &mut used)
        .then(|| mapping.into_iter().map(|m| NodeId(m as u32)).collect())
}

/// The order in which [`find_isomorphism`] settles `a`'s nodes: smallest
/// colour class first, classes of one size by colour *value*, nodes of a
/// class by index. When several isomorphisms exist, this order picks the
/// one returned — for the mapper, which automorphic image of the request
/// an exact match is placed on — so the values are part of every pinned
/// placement and stay what they always were: `n` rounds of SipHash
/// refinement over sorted neighbour colours. Runs once per verified match,
/// on the request only; the colours the search itself matches on are
/// [`wl_colors`].
fn decision_order(a: &Topology) -> Vec<usize> {
    let colors = siphash_colors(a);
    let class_size = |c: u64| colors.iter().filter(|&&x| x == c).count();
    let mut order: Vec<usize> = (0..colors.len()).collect();
    order.sort_by_key(|&i| (class_size(colors[i]), colors[i], i));
    order
}

/// Exactly `n` rounds of WL refinement with SipHash as the colour
/// function (see [`decision_order`] for why the values matter).
fn siphash_colors(t: &Topology) -> Vec<u64> {
    let n = t.node_count();
    let mut colors: Vec<u64> = t
        .nodes()
        .map(|node| hash_u64s(&[t.degree(node) as u64, t.node_attr(node).kind as u64]))
        .collect();
    for _ in 0..n {
        colors = (0..n)
            .map(|i| {
                let around = t.neighbors(NodeId(i as u32));
                let mut nb: Vec<u64> = around.map(|v| colors[v.index()]).collect();
                nb.sort_unstable();
                nb.insert(0, colors[i]);
                hash_u64s(&nb)
            })
            .collect();
    }
    colors
}

fn hash_u64s(vals: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    vals.hash(&mut h);
    h.finish()
}

/// The fixed inputs of [`find_isomorphism`]'s backtracking search.
struct IsoSearch<'a, G> {
    a: &'a Topology,
    b: &'a G,
    ca: &'a [u64],
    cb: &'a [u64],
    order: &'a [usize],
}

impl<G: Graph> IsoSearch<'_, G> {
    fn backtrack(&self, depth: usize, mapping: &mut [usize], used: &mut [bool]) -> bool {
        let n = self.order.len();
        if depth == n {
            return true;
        }
        let u = self.order[depth];
        let edge = |row: &[u64], q: usize| row[q / 64] >> (q % 64) & 1 == 1;
        for v in 0..n {
            if used[v] || self.ca[u] != self.cb[v] {
                continue;
            }
            // Edge consistency with already-mapped nodes, in both directions:
            // for every mapped node w, (u,w) is an edge in `a` iff (v, m(w)) is
            // an edge in `b`. Checking both directions keeps the partial mapping
            // an induced-subgraph isomorphism at every depth.
            let (row_u, row_v) = (self.a.row(NodeId(u as u32)), self.b.node(v).1);
            let ok = (0..n).all(|w| {
                let m = mapping[w];
                m == usize::MAX || edge(row_u, w) == edge(row_v, m)
            });
            if !ok {
                continue;
            }
            mapping[u] = v;
            used[v] = true;
            if self.backtrack(depth + 1, mapping, used) {
                return true;
            }
            mapping[u] = usize::MAX;
            used[v] = false;
        }
        false
    }
}

#[cfg(test)]
mod reference {
    //! The hashing implementation [`canonical_key`] replaced, kept verbatim
    //! as a differential oracle: SipHash refinement ([`siphash_colors`],
    //! always `n` rounds), a `Vec` encoding per class permutation, the hash
    //! of the smallest. The campaign holds the new keys to the partition
    //! these induce.

    use super::*;
    use crate::testing::{are_isomorphic, connected_subset, relabeled, sprinkle_kinds, Rng};

    /// `(nodes, edges, code)` of the replaced `CanonicalKey`.
    fn canonical_key(t: &Topology) -> (usize, usize, u64) {
        let code = if t.node_count() <= EXACT_CANONICAL_LIMIT {
            hash_u64s(&canonical_form(t))
        } else {
            let mut sorted = siphash_colors(t);
            sorted.sort_unstable();
            hash_u64s(&sorted)
        };
        (t.node_count(), t.edge_count(), code)
    }

    fn canonical_form(t: &Topology) -> Vec<u64> {
        let n = t.node_count();
        if n == 0 {
            return Vec::new();
        }
        // Group nodes by WL colour; only permute within groups ordered by colour.
        let colors = siphash_colors(t);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (colors[i], i));
        // Partition into colour classes.
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            match classes.last_mut() {
                Some(c) if colors[c[0]] == colors[i] => c.push(i),
                _ => classes.push(vec![i]),
            }
        }
        let mut best: Option<Vec<u64>> = None;
        let mut perm: Vec<usize> = Vec::with_capacity(n);
        permute_classes(t, &classes, 0, &mut perm, &mut best);
        best.unwrap_or_default()
    }

    fn permute_classes(
        t: &Topology,
        classes: &[Vec<usize>],
        class_idx: usize,
        perm: &mut Vec<usize>,
        best: &mut Option<Vec<u64>>,
    ) {
        if class_idx == classes.len() {
            let enc = encode(t, perm);
            if best.as_ref().is_none_or(|b| enc < *b) {
                *best = Some(enc);
            }
            return;
        }
        let class = &classes[class_idx];
        let mut items = class.clone();
        heap_permute(&mut items, &mut |p: &[usize]| {
            perm.extend_from_slice(p);
            permute_classes(t, classes, class_idx + 1, perm, best);
            perm.truncate(perm.len() - p.len());
        });
    }

    /// Heap's algorithm invoking `f` on every permutation of `items`.
    fn heap_permute(items: &mut [usize], f: &mut dyn FnMut(&[usize])) {
        let n = items.len();
        if n == 0 {
            f(&[]);
            return;
        }
        let mut c = vec![0usize; n];
        f(items);
        let mut i = 0;
        while i < n {
            if c[i] < i {
                if i % 2 == 0 {
                    items.swap(0, i);
                } else {
                    items.swap(c[i], i);
                }
                f(items);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }

    /// Encodes the graph under a permutation: `perm[k]` is the original node at
    /// canonical position `k`.
    fn encode(t: &Topology, perm: &[usize]) -> Vec<u64> {
        let n = perm.len();
        let mut pos = vec![0usize; t.node_count()];
        for (k, &orig) in perm.iter().enumerate() {
            pos[orig] = k;
        }
        let mut out = Vec::with_capacity(n * 3);
        for &orig in perm {
            out.push(t.node_attr(NodeId(orig as u32)).kind as u64);
            let mut nb: Vec<u64> = t
                .neighbors(NodeId(orig as u32))
                .map(|v| pos[v.index()] as u64)
                .collect();
            nb.sort_unstable();
            out.push(nb.len() as u64);
            out.extend(nb);
        }
        out
    }

    #[test]
    fn key_partition_matches_the_hashing_reference() {
        const PAIRS: usize = 2_400;
        let mesh = Topology::mesh2d(6, 6);
        let mut rng = Rng(0x5EED_0019);
        // Pairs with (equal, different) keys, at most ten nodes and above.
        let mut arms = [[0usize; 2]; 2];
        for case in 0..PAIRS {
            let k = 2 + case % 11;
            let mut a = mesh
                .induced_subgraph(&connected_subset(&mesh, k, &mut rng))
                .0;
            if case / 11 % 2 == 1 {
                sprinkle_kinds(&mut a, &mut rng);
            }
            let b = match case % 3 {
                // The same graph under other labels,
                0 => relabeled(&a, &mut rng),
                // the same with one node's kind changed,
                1 => {
                    let mut b = relabeled(&a, &mut rng);
                    let kind = &mut b.node_attr_mut(NodeId(rng.below(k) as u32)).kind;
                    *kind = match *kind {
                        crate::NodeKind::Standard => crate::NodeKind::VectorOptimized,
                        _ => crate::NodeKind::Standard,
                    };
                    b
                }
                // another region of the mesh.
                _ => {
                    let cells = connected_subset(&mesh, k, &mut rng);
                    relabeled(&mesh.induced_subgraph(&cells).0, &mut rng)
                }
            };
            let same = super::canonical_key(&a) == super::canonical_key(&b);
            assert_eq!(
                same,
                canonical_key(&a) == canonical_key(&b),
                "case {case}: {a:?} / {b:?}"
            );
            if k <= EXACT_CANONICAL_LIMIT {
                assert_eq!(same, are_isomorphic(&a, &b), "case {case}: {a:?} / {b:?}");
            }
            arms[usize::from(k > EXACT_CANONICAL_LIMIT)][usize::from(!same)] += 1;
        }
        println!(
            "canonical-key campaign: {PAIRS} pairs, same partition; up to \
             {EXACT_CANONICAL_LIMIT} nodes {} equal / {} different, above {} / {}",
            arms[0][0], arms[0][1], arms[1][0], arms[1][1]
        );
        assert!(
            arms.iter().flatten().all(|&n| n > 0),
            "an outcome was never reached: {arms:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::are_isomorphic;
    use crate::Topology;

    #[test]
    fn isomorphic_meshes_same_key() {
        // 2x3 and 3x2 meshes are isomorphic.
        let a = Topology::mesh2d(2, 3);
        let b = Topology::mesh2d(3, 2);
        assert_eq!(canonical_key(&a), canonical_key(&b));
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn non_isomorphic_different_key() {
        // a 6-line vs a 2x3 mesh: same node count, different edge counts.
        let a = Topology::line(6);
        let b = Topology::mesh2d(2, 3);
        assert_ne!(canonical_key(&a), canonical_key(&b));
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn same_degree_sequence_different_structure() {
        // C6 vs two C3s: both 2-regular with 6 nodes and 6 edges.
        let c6 = Topology::ring(6);
        let two_c3 =
            Topology::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert_ne!(canonical_key(&c6), canonical_key(&two_c3));
        assert!(!are_isomorphic(&c6, &two_c3));
    }

    #[test]
    fn relabeled_graph_is_isomorphic() {
        let a = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let b = Topology::from_edges(4, &[(2, 3), (3, 0), (0, 1), (1, 2)]).unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn node_kind_breaks_isomorphism() {
        use crate::{NodeId, NodeKind};
        let a = Topology::line(3);
        let mut b = Topology::line(3);
        b.node_attr_mut(NodeId(0)).kind = NodeKind::VectorOptimized;
        assert_ne!(canonical_key(&a), canonical_key(&b));
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn empty_graphs() {
        let a = Topology::empty(0);
        let b = Topology::empty(0);
        assert_eq!(canonical_key(&a), canonical_key(&b));
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn singleton_vs_pair() {
        let a = Topology::empty(1);
        let b = Topology::empty(2);
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn l_shape_not_isomorphic_to_line() {
        // L-tromino-ish: 0-1-2 with 1-3 branch vs a 4-line.
        let l = Topology::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let line = Topology::line(4);
        assert_ne!(canonical_key(&l), canonical_key(&line));
        assert!(!are_isomorphic(&l, &line));
    }

    #[test]
    fn canonical_form_stable_under_relabel() {
        let a = Topology::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        // relabel: 0->4,1->3,2->2,3->1,4->0
        let b = Topology::from_edges(5, &[(4, 3), (4, 2), (4, 1), (1, 0)]).unwrap();
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn keys_and_isomorphisms_ignore_edge_costs() {
        // The mapper's memo keys both by a candidate's kinds and adjacency
        // alone, so neither may read any other attribute.
        use crate::testing::{connected_subset, relabeled, sprinkle_kinds, Rng};
        let mesh = Topology::mesh2d(6, 6);
        let mut rng = Rng(0x5EED_0033);
        for case in 0..300 {
            let k = 2 + case % 11;
            let mut plain = mesh
                .induced_subgraph(&connected_subset(&mesh, k, &mut rng))
                .0;
            if case % 2 == 1 {
                sprinkle_kinds(&mut plain, &mut rng);
            }
            let mut scrambled = plain.clone();
            for (a, b, _) in plain.edges() {
                let cost = 1 + rng.below(9) as u64;
                scrambled
                    .add_edge_with(a, b, crate::EdgeAttr { cost })
                    .unwrap();
            }
            let key = canonical_key(&plain);
            assert_eq!(canonical_key(&scrambled), key, "case {case}");
            if k <= 9 {
                assert_eq!(CanonicalKey::unpack(key.pack().unwrap()), key);
            }
            let other = mesh
                .induced_subgraph(&connected_subset(&mesh, k, &mut rng))
                .0;
            for req in [relabeled(&plain, &mut rng), relabeled(&other, &mut rng)] {
                let iso = find_isomorphism(&req, &plain);
                assert_eq!(find_isomorphism(&req, &scrambled), iso, "case {case}");
            }
        }
    }

    #[test]
    fn large_graph_uses_wl() {
        // above the exact limit: two isomorphic 4x4 meshes still match keys
        let a = Topology::mesh2d(4, 4);
        let b = Topology::mesh2d(4, 4);
        assert_eq!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn refinement_stops_at_the_partition_fix_point() {
        // The replaced refinement compared re-hashed colours, which differ
        // every round, and so always ran n rounds.
        let edges = |t: &Topology| t.edges().map(|(a, b, _)| (a.0, b.0)).collect::<Vec<_>>();
        let path_and_ring = {
            let mut e = edges(&Topology::line(4));
            e.extend(
                edges(&Topology::ring(6))
                    .iter()
                    .map(|&(a, b)| (a + 4, b + 4)),
            );
            Topology::from_edges(10, &e).unwrap()
        };
        // Swapping two edges' endpoints keeps every degree.
        let switched = {
            let mut e = edges(&Topology::mesh2d(3, 3));
            e.retain(|&edge| edge != (0, 1) && edge != (7, 8));
            e.extend([(0, 7), (1, 8)]);
            Topology::from_edges(9, &e).unwrap()
        };
        let two_rings = |n: u32| {
            let mut e = edges(&Topology::ring(n));
            e.extend(
                edges(&Topology::ring(n))
                    .iter()
                    .map(|&(a, b)| (a + n, b + n)),
            );
            Topology::from_edges(2 * n as usize, &e).unwrap()
        };
        for (graph, twin) in [
            (Topology::line(10), path_and_ring),
            (Topology::mesh2d(3, 3), switched),
            (Topology::ring(10), two_rings(5)),
            (Topology::ring(12), two_rings(6)),
        ] {
            let n = graph.node_count();
            let rounds = wl_refine(&graph, &mut vec![0; 3 * n]);
            assert!(rounds < n, "{n} nodes took {rounds} rounds");
            let degrees = |t: &Topology| {
                let mut d: Vec<usize> = t.nodes().map(|v| t.degree(v)).collect();
                d.sort_unstable();
                d
            };
            assert_eq!(degrees(&graph), degrees(&twin));
            assert!(!are_isomorphic(&graph, &twin));
            // Exact keys tell the twins apart; above the limit two regular
            // graphs of one degree are WL-equivalent and share a key.
            assert_eq!(
                canonical_key(&graph) != canonical_key(&twin),
                n <= EXACT_CANONICAL_LIMIT
            );
        }
    }
}
