//! Connected induced-subgraph enumeration over the *free* nodes of a
//! physical topology — the candidate-generation step of Algorithm 1
//! (lines 20–29).
//!
//! The paper prunes candidates three ways; we implement all of them:
//!
//! 1. connectivity (R-3) — we enumerate *connected* subgraphs directly via
//!    the ESU ("enumerate subgraphs", Wernicke 2006) scheme, so disconnected
//!    node sets are never produced;
//! 2. isomorphism dedup — callers pair this module with
//!    [`crate::canonical::canonical_key`];
//! 3. exact-match early exit — [`enumerate_connected_in`] accepts a
//!    visitor that can stop enumeration as soon as a perfect candidate is
//!    seen.
//!
//! A rectangle fast-path ([`mesh_rectangles_in`]) answers `w × h` mesh
//! requests in O(free-mask scan) time without general enumeration. Its
//! windows come lazily, so the mapper, which tries only the first free
//! one, scans the mask up to it and allocates that one window.
//!
//! Both take the free region as a [`FreeSet`], whose occupancy mask is
//! used as-is — online serving maintains one incrementally, so no mask is
//! rebuilt per request.
//!
//! An enumeration allocates per *call*, never per step or per candidate:
//! the subgraph being grown, its sorted copy handed to the visitor, the
//! free nodes above the current root, and one pair of bit masks over the
//! physical node ids per recursion depth (`node_count().div_ceil(64)`
//! words each, so a chip of any size) — the extension set, popped lowest
//! bit first, and the subgraph's closed neighbourhood ("in the subgraph or
//! adjacent to it"). A node joining the subgraph adds its neighbour row to
//! the closed neighbourhood, and the part of it that is free, above the
//! root and outside the old closed neighbourhood to the extension set, a
//! word at a time.
//!
//! **The completion bound.** Only the extension set and the free nodes
//! above the root outside the closed neighbourhood can still join a
//! branch (the rest of the neighbourhood never does), so a branch with
//! fewer than `k` nodes among them and the subgraph is cut, and the root
//! loop stops at the first root with fewer than `k - 1` free nodes above
//! it. A cut branch holds no candidate and spends no step.
//!
//! **Why results cannot move:** a bit set popped lowest-first is the
//! ordered set it replaced, and the masked row is the set of neighbours
//! the edge-map scan admitted, so wherever the step budget does not end
//! the replaced walk, this one visits the same sequence and returns the
//! same count. Where the budget ends the replaced walk, this one, whose
//! budget counts only branches that can still complete, visits a strict
//! extension of that walk's sequence (or the same one). The test-only
//! `reference` module keeps the replaced walk and holds this one to it.

use crate::cache::{take_lowest, FreeSet};
use crate::{MeshShape, NodeId, Topology};

/// Upper bound on enumerated candidates, protecting against combinatorial
/// blow-up on large free regions (the NP-hard step of Algorithm 1).
pub const DEFAULT_CANDIDATE_CAP: usize = 2_000;

/// Recursion-step budget per candidate of the cap: bounds the total work
/// of the enumeration (including the worst-case-exponential *exhaustion
/// proof* when few candidates exist) to `cap × STEPS_PER_CANDIDATE`
/// steps. A step is one subgraph grown on a branch that can still reach
/// `k` nodes; cut branches are not counted.
pub const STEPS_PER_CANDIDATE: usize = 200;

/// Outcome of the enumeration visitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visit {
    /// Keep enumerating.
    Continue,
    /// Stop enumeration immediately (e.g. exact match found).
    Stop,
}

/// Enumerates every connected induced subgraph with exactly `k` nodes of
/// the subgraph of `topo` induced by the free nodes of `free`, invoking
/// `visit` once per candidate (as a sorted node list). Enumeration is
/// exhaustive and duplicate-free (ESU), but stops after `cap` candidates,
/// when the step budget (`cap ×` [`STEPS_PER_CANDIDATE`], at least
/// 10 000) runs out, or when the visitor returns [`Visit::Stop`] — so the
/// visited sequence is a pure function of `(topo, free, k, cap)` up to
/// the stop. The budget counts only steps on branches that can still
/// reach `k` nodes (see the module doc), so it binds on the search for
/// candidates, not on proving that a near-full region holds no more.
///
/// Returns the number of candidates visited.
///
/// # Panics
///
/// Panics when `free` tracks a different node count than `topo` — the
/// mask is indexed by physical node id, so a mismatched set is a caller
/// bug, not an enumerable state. [`crate::mapping::Mapper::map_in`]
/// surfaces the same condition gracefully as
/// [`crate::TopoError::FreeSetMismatch`].
pub fn enumerate_connected_in(
    topo: &Topology,
    free: &FreeSet,
    k: usize,
    cap: usize,
    visit: impl FnMut(&[NodeId]) -> Visit,
) -> usize {
    assert_eq!(
        free.capacity(),
        topo.node_count(),
        "free set sized for a different topology"
    );
    if k == 0 || free.free_count() < k {
        return 0;
    }
    let words = topo.node_count().div_ceil(64);
    // The free nodes above the current root: all of them before the first.
    let mut above = vec![0u64; words];
    for (i, _) in free.mask().iter().enumerate().filter(|(_, &f)| f) {
        above[i / 64] |= 1 << (i % 64);
    }
    let mut esu = Esu {
        topo,
        allowed: vec![0; words],
        k,
        cap,
        words,
        count: 0,
        steps: cap.saturating_mul(STEPS_PER_CANDIDATE).max(10_000),
        stopped: false,
        sub: Vec::with_capacity(k),
        sorted: Vec::with_capacity(k),
        visit,
    };
    // One (extension set, closed neighbourhood) mask pair per depth.
    let mut masks = vec![0u64; 2 * words * k];

    // ESU: for each root v (ascending), grow subgraphs using only nodes > v,
    // with an extension set of exclusive neighbors.
    while let Some(root) = take_lowest(&mut above).map(|i| NodeId(i as u32)) {
        // Too few free nodes above this root to reach `k`, and later roots
        // have fewer.
        let joinable: u32 = above.iter().map(|w| w.count_ones()).sum();
        if esu.done() || 1 + (joinable as usize) < k {
            break;
        }
        esu.allowed.copy_from_slice(&above);
        let (ext, closed) = masks[..2 * words].split_at_mut(words);
        let row = topo.row(root);
        for i in 0..words {
            ext[i] = row[i] & esu.allowed[i];
            closed[i] = row[i];
        }
        set(closed, root);
        esu.sub.clear();
        esu.sub.push(root);
        esu.extend(&mut masks);
    }
    esu.count
}

fn set(mask: &mut [u64], node: NodeId) {
    mask[node.index() / 64] |= 1 << (node.index() % 64);
}

/// State of one [`enumerate_connected_in`] call. Node sets are bit masks
/// over the physical node ids, `words` words each.
struct Esu<'a, V> {
    topo: &'a Topology,
    /// The free nodes above the current root: those that may join.
    allowed: Vec<u64>,
    k: usize,
    cap: usize,
    words: usize,
    count: usize,
    steps: usize,
    stopped: bool,
    /// The subgraph being grown, in the order its nodes joined.
    sub: Vec<NodeId>,
    /// `sub` sorted, as handed to the visitor.
    sorted: Vec<NodeId>,
    visit: V,
}

impl<V: FnMut(&[NodeId]) -> Visit> Esu<'_, V> {
    fn done(&self) -> bool {
        self.stopped || self.count >= self.cap || self.steps == 0
    }

    /// One recursion step. `masks` starts with this depth's pair: the
    /// extension set (nodes that may join `sub` next, taken lowest first)
    /// and `sub`'s closed neighbourhood (`sub` and everything adjacent to
    /// it); the deeper pairs follow.
    fn extend(&mut self, masks: &mut [u64]) {
        if self.done() {
            return;
        }
        self.steps -= 1;
        if self.sub.len() == self.k {
            self.count += 1;
            self.sorted.clear();
            self.sorted.extend_from_slice(&self.sub);
            self.sorted.sort_unstable();
            if (self.visit)(&self.sorted) == Visit::Stop {
                self.stopped = true;
            }
            return;
        }
        let (level, deeper) = masks.split_at_mut(2 * self.words);
        let (ext, closed) = level.split_at_mut(self.words);
        // The nodes that may still join this branch: the extension set and
        // the allowed nodes outside the closed neighbourhood (`ext` lies in
        // it, and the rest of it never joins). A pop takes one of them.
        let mut joinable: usize = (0..self.words)
            .map(|i| (ext[i] | (self.allowed[i] & !closed[i])).count_ones() as usize)
            .sum();
        while let Some(w) = take_lowest(ext).map(|i| NodeId(i as u32)) {
            if self.done() || self.sub.len() + joinable < self.k {
                return;
            }
            joinable -= 1;
            // New extension: ext ∪ {exclusive neighbors of w} (neighbors > root,
            // free, outside the closed neighbourhood of the subgraph before w
            // joined — which is what makes ESU duplicate-free). A child that
            // completes the subgraph reads neither mask.
            if self.sub.len() + 1 < self.k {
                let (next_ext, next_closed) = deeper[..2 * self.words].split_at_mut(self.words);
                let row = self.topo.row(w);
                for i in 0..self.words {
                    next_ext[i] = ext[i] | (row[i] & !closed[i] & self.allowed[i]);
                    next_closed[i] = closed[i] | row[i];
                }
            }
            self.sub.push(w);
            self.extend(deeper);
            self.sub.pop();
        }
    }
}

/// Collects (up to `cap`) connected candidates as vectors.
pub fn connected_candidates(
    topo: &Topology,
    free: &[NodeId],
    k: usize,
    cap: usize,
) -> Vec<Vec<NodeId>> {
    let set = FreeSet::from_free_nodes(topo.node_count(), free);
    let mut out = Vec::new();
    enumerate_connected_in(topo, &set, k, cap, |c| {
        out.push(c.to_vec());
        Visit::Continue
    });
    out
}

/// Fast path for regular mesh requests: the placements of a
/// `req_w × req_h` window (then of its transpose when not square) whose
/// cells are all free, as sorted node lists, found lazily — a caller
/// that takes the first scans only up to it. Returns `None` when `topo`
/// is not a mesh.
///
/// # Panics
///
/// As for [`enumerate_connected_in`]: `free` must be sized for `topo`.
pub fn mesh_rectangles_in<'a>(
    topo: &Topology,
    free: &'a FreeSet,
    req_w: u32,
    req_h: u32,
) -> Option<impl Iterator<Item = Vec<NodeId>> + 'a> {
    assert_eq!(
        free.capacity(),
        topo.node_count(),
        "free set sized for a different topology"
    );
    let MeshShape { width, height } = topo.mesh_shape()?;
    let shapes = [(req_w, req_h), (req_h, req_w)].into_iter();
    let corners = shapes
        .take(1 + usize::from(req_w != req_h))
        .filter(move |&(w, h)| w > 0 && h > 0 && w <= width && h <= height)
        .flat_map(move |(w, h)| {
            (0..=height - h).flat_map(move |y| (0..=width - w).map(move |x| (w, h, y * width + x)))
        });
    let is_free = free.mask();
    Some(corners.filter_map(move |(w, h, corner)| {
        // Row by row, so sorted.
        let cells = (0..h).flat_map(|dy| (0..w).map(move |dx| NodeId(corner + dy * width + dx)));
        cells
            .clone()
            .all(|n| is_free[n.index()])
            .then(|| cells.collect())
    }))
}

#[cfg(test)]
mod reference {
    //! The enumeration [`enumerate_connected_in`] replaced, kept verbatim
    //! as a differential oracle: extension sets as `BTreeSet`s cloned per
    //! step, "neighbour of the subgraph" asked of the edge map, no
    //! completion bound. The campaign holds the bit-mask walk to the same
    //! visited sequence and return value wherever the step budget does
    //! not end the reference, and to a strict extension of it where it
    //! does.

    use super::*;
    use crate::testing::Rng;
    use std::collections::BTreeSet;

    fn enumerate_connected_in(
        topo: &Topology,
        free: &FreeSet,
        k: usize,
        cap: usize,
        mut visit: impl FnMut(&[NodeId]) -> Visit,
    ) -> usize {
        assert_eq!(
            free.capacity(),
            topo.node_count(),
            "free set sized for a different topology"
        );
        if k == 0 || free.free_count() < k {
            return 0;
        }
        let is_free = free.mask();
        let mut count = 0usize;
        let mut steps = cap.saturating_mul(STEPS_PER_CANDIDATE).max(10_000);
        let mut stopped = false;

        // ESU: for each root v (ascending), grow subgraphs using only nodes > v,
        // with an extension set of exclusive neighbors.
        for root in (0..topo.node_count() as u32).map(NodeId) {
            if !is_free[root.index()] {
                continue;
            }
            if stopped || count >= cap || steps == 0 {
                break;
            }
            let mut sub = vec![root];
            let ext: BTreeSet<NodeId> = topo
                .neighbors(root)
                .filter(|&u| u > root && is_free[u.index()])
                .collect();
            extend(
                topo,
                is_free,
                root,
                &mut sub,
                ext,
                k,
                cap,
                &mut count,
                &mut steps,
                &mut stopped,
                &mut visit,
            );
        }
        count
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        topo: &Topology,
        is_free: &[bool],
        root: NodeId,
        sub: &mut Vec<NodeId>,
        ext: BTreeSet<NodeId>,
        k: usize,
        cap: usize,
        count: &mut usize,
        steps: &mut usize,
        stopped: &mut bool,
        visit: &mut impl FnMut(&[NodeId]) -> Visit,
    ) {
        if *stopped || *count >= cap || *steps == 0 {
            return;
        }
        *steps -= 1;
        if sub.len() == k {
            *count += 1;
            let mut sorted = sub.clone();
            sorted.sort_unstable();
            if visit(&sorted) == Visit::Stop {
                *stopped = true;
            }
            return;
        }
        let mut ext = ext;
        while let Some(&w) = ext.iter().next() {
            ext.remove(&w);
            if *stopped || *count >= cap || *steps == 0 {
                return;
            }
            // New extension: ext ∪ {exclusive neighbors of w} (neighbors > root,
            // free, not already in sub, not already in ext-before-this-level —
            // ESU guarantees uniqueness by only adding neighbors not adjacent to
            // the current subgraph before w joined).
            let mut next_ext = ext.clone();
            for u in topo.neighbors(w) {
                if u > root
                    && is_free[u.index()]
                    && !sub.contains(&u)
                    && !neighbor_of_sub(topo, sub, u)
                {
                    next_ext.insert(u);
                }
            }
            sub.push(w);
            extend(
                topo, is_free, root, sub, next_ext, k, cap, count, steps, stopped, visit,
            );
            sub.pop();
        }
    }

    fn neighbor_of_sub(topo: &Topology, sub: &[NodeId], u: NodeId) -> bool {
        sub.iter().any(|&s| topo.has_edge(s, u))
    }

    /// Runs `walk` to its end or to the `stop_at`-th candidate, returning
    /// the visited sequence and the walk's return value.
    fn record(
        stop_at: usize,
        walk: impl FnOnce(&mut dyn FnMut(&[NodeId]) -> Visit) -> usize,
    ) -> (Vec<Vec<NodeId>>, usize) {
        let mut seen = Vec::new();
        let count = walk(&mut |cells| {
            seen.push(cells.to_vec());
            if seen.len() == stop_at {
                Visit::Stop
            } else {
                Visit::Continue
            }
        });
        (seen, count)
    }

    #[test]
    fn bitmask_walk_matches_the_btreeset_reference() {
        // Chips of one mask word and of two.
        let physicals = [
            Topology::mesh2d(6, 6),
            Topology::mesh2d(8, 6),
            Topology::mesh2d(9, 8),
            Topology::torus2d(4, 4).unwrap(),
        ];
        const CASES: usize = 400;
        let mut rng = Rng(0x5EED_3019);
        // Walks ended by: exhaustion, the cap, the visitor.
        let mut ends = [0usize; 3];
        for case in 0..CASES {
            let phys = &physicals[case % physicals.len()];
            let n = phys.node_count();
            let mut free = FreeSet::all_free(n);
            let occupied = rng.below(n * 3 / 4);
            for _ in 0..occupied {
                free.occupy(NodeId(rng.below(n) as u32));
            }
            let k = 1 + rng.below(9);
            let cap = [1, 7, 60, 2_000][rng.below(4)];
            let stop_at = [usize::MAX, 1 + rng.below(40)][rng.below(2)];
            let got = record(stop_at, |v| {
                super::enumerate_connected_in(phys, &free, k, cap, v)
            });
            let want = record(stop_at, |v| enumerate_connected_in(phys, &free, k, cap, v));
            assert_eq!(
                got, want,
                "case {case}: k {k}, cap {cap}, stop at {stop_at}"
            );
            ends[match got.1 {
                c if c == stop_at => 2,
                c if c == cap => 1,
                _ => 0,
            }] += 1;
        }
        assert!(
            ends.iter().all(|&n| n > 0),
            "an ending was never reached: {ends:?}"
        );

        // The step budget binding: the 19-node candidates of an idle 5x4
        // mesh are few (20) and spread through a recursion far longer than
        // the 10 000 steps a cap of 50 buys. The reference spends them on
        // branches that cannot complete and visits a strict prefix of the
        // 20; the cut walk visits all 20, as the reference does unbudgeted.
        let phys = Topology::mesh2d(5, 4);
        let free = FreeSet::all_free(20);
        let got = record(usize::MAX, |v| {
            super::enumerate_connected_in(&phys, &free, 19, 50, v)
        });
        let unbudgeted = record(usize::MAX, |v| {
            enumerate_connected_in(&phys, &free, 19, usize::MAX, v)
        });
        assert_eq!(got, unbudgeted);
        let budgeted = record(usize::MAX, |v| {
            enumerate_connected_in(&phys, &free, 19, 50, v)
        });
        assert!(
            budgeted.1 < got.1 && got.0.starts_with(&budgeted.0),
            "budget-bound reference visited {} of {}",
            budgeted.1,
            got.1
        );

        // Near-full regions, `k` within two of the free count: a walk
        // equals the reference or, where the reference's budget bound,
        // visits a strict extension of its sequence.
        const NEAR: usize = 120;
        // Walks equal to the reference, and strictly extending it.
        let mut near = [0usize; 2];
        for case in 0..NEAR {
            let phys = &physicals[case % physicals.len()];
            let n = phys.node_count();
            let mut free = FreeSet::all_free(n);
            let occupied = rng.below(n / 4);
            for _ in 0..occupied {
                free.occupy(NodeId(rng.below(n) as u32));
            }
            let k = free.free_count() - rng.below(3);
            let cap = [1, 7, 60][rng.below(3)];
            let got = record(usize::MAX, |v| {
                super::enumerate_connected_in(phys, &free, k, cap, v)
            });
            let want = record(usize::MAX, |v| {
                enumerate_connected_in(phys, &free, k, cap, v)
            });
            let extends = got.1 > want.1 && got.0.starts_with(&want.0);
            assert!(
                got == want || extends,
                "near-full case {case}: k {k}, cap {cap}: visited {} against {}",
                got.1,
                want.1
            );
            near[usize::from(extends)] += 1;
        }
        assert!(
            near.iter().all(|&n| n > 0),
            "near-full walks equal / extending the reference: {near:?}"
        );
        println!(
            "ESU campaign: {CASES} walks, identical sequences; {} exhausted, {} capped, \
             {} stopped by the visitor; budget-bound reference visited {} of 20; \
             {NEAR} near-full walks, {} equal, {} strictly extending the reference",
            ends[0], ends[1], ends[2], budgeted.1, near[0], near[1]
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn all_free(t: &Topology) -> Vec<NodeId> {
        t.nodes().collect()
    }

    fn set_of(t: &Topology, free: &[NodeId]) -> FreeSet {
        FreeSet::from_free_nodes(t.node_count(), free)
    }

    #[test]
    fn counts_match_known_values_on_path() {
        // A path of 4 nodes has exactly 3 connected subgraphs of size 2
        // (its edges) and 2 of size 3.
        let t = Topology::line(4);
        let free = all_free(&t);
        assert_eq!(connected_candidates(&t, &free, 2, usize::MAX).len(), 3);
        assert_eq!(connected_candidates(&t, &free, 3, usize::MAX).len(), 2);
        assert_eq!(connected_candidates(&t, &free, 4, usize::MAX).len(), 1);
    }

    #[test]
    fn all_candidates_connected_and_unique() {
        let t = Topology::mesh2d(3, 3);
        let free = all_free(&t);
        let cands = connected_candidates(&t, &free, 4, usize::MAX);
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            assert_eq!(c.len(), 4);
            assert!(t.is_connected_subset(c), "candidate {c:?} not connected");
            assert!(seen.insert(c.clone()), "duplicate candidate {c:?}");
        }
        // Known count: connected induced 4-subgraphs of the 3x3 grid graph.
        // Brute-force check below validates the number.
        let brute = brute_force_connected(&t, &free, 4);
        assert_eq!(cands.len(), brute.len());
    }

    fn brute_force_connected(t: &Topology, free: &[NodeId], k: usize) -> Vec<Vec<NodeId>> {
        let mut out = Vec::new();
        let n = free.len();
        let mut idx: Vec<usize> = (0..k).collect();
        if k > n {
            return out;
        }
        loop {
            let subset: Vec<NodeId> = idx.iter().map(|&i| free[i]).collect();
            if t.is_connected_subset(&subset) {
                out.push(subset);
            }
            // next combination
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if idx[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    #[test]
    fn brute_force_agreement_sizes_2_to_5() {
        let t = Topology::mesh2d(3, 3);
        let free = all_free(&t);
        for k in 2..=5usize {
            let esu: std::collections::BTreeSet<Vec<NodeId>> =
                connected_candidates(&t, &free, k, usize::MAX)
                    .into_iter()
                    .collect();
            let brute: std::collections::BTreeSet<Vec<NodeId>> =
                brute_force_connected(&t, &free, k).into_iter().collect();
            assert_eq!(esu, brute, "mismatch at k={k}");
        }
    }

    #[test]
    fn near_full_walks_visit_every_candidate() {
        // A `w x h` mesh with its 4x3 top-left corner taken: an L of free
        // cores, which stays connected with any one core left out, so `k`
        // one below the free count has a candidate per free core. The
        // walk must not spend its step budget on branches that cannot
        // reach `k` nodes.
        let cornered = |w: u32, h: u32| {
            let t = Topology::mesh2d(w, h);
            let free: Vec<NodeId> = t.nodes().filter(|n| n.0 % w >= 4 || n.0 / w >= 3).collect();
            (t, free)
        };
        let (six, six_free) = cornered(6, 6);
        let (eight, eight_free) = cornered(8, 6);
        let idle = Topology::mesh2d(5, 4);
        let idle_free = all_free(&idle);
        for (t, free, k, cap, want) in [
            (&six, &six_free, 24, 50, 1),
            (&six, &six_free, 23, 50, 24),
            (&six, &six_free, 23, 2_000, 24),
            (&eight, &eight_free, 36, 2_000, 1),
            (&eight, &eight_free, 35, 2_000, 36),
            (&idle, &idle_free, 19, 50, 20),
        ] {
            let got = connected_candidates(t, free, k, cap);
            let brute = brute_force_connected(t, free, k);
            assert_eq!(brute.len(), want);
            // ESU order: roots ascending, so lowest nodes never fall.
            assert!(got.windows(2).all(|p| p[0][0] <= p[1][0]));
            let mut sorted = got.clone();
            sorted.sort();
            assert_eq!(sorted, brute, "k {k}, cap {cap}: visited {}", got.len());
        }
    }

    #[test]
    fn respects_free_mask() {
        let t = Topology::mesh2d(3, 3);
        // Only the top row free.
        let free = vec![NodeId(0), NodeId(1), NodeId(2)];
        let cands = connected_candidates(&t, &free, 2, usize::MAX);
        assert_eq!(cands.len(), 2); // (0,1) and (1,2)
        for c in cands {
            for n in c {
                assert!(n.0 < 3);
            }
        }
    }

    #[test]
    fn cap_limits_output() {
        let t = Topology::mesh2d(4, 4);
        let free = all_free(&t);
        let cands = connected_candidates(&t, &free, 5, 10);
        assert_eq!(cands.len(), 10);
    }

    #[test]
    fn early_stop_via_visitor() {
        let t = Topology::mesh2d(4, 4);
        let free = all_free(&t);
        let mut seen = 0;
        enumerate_connected_in(&t, &set_of(&t, &free), 3, usize::MAX, |_| {
            seen += 1;
            if seen == 5 {
                Visit::Stop
            } else {
                Visit::Continue
            }
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn k_larger_than_free_returns_nothing() {
        let t = Topology::mesh2d(2, 2);
        let free = all_free(&t);
        assert!(connected_candidates(&t, &free, 5, usize::MAX).is_empty());
    }

    #[test]
    fn rectangles_on_full_mesh() {
        let t = Topology::mesh2d(5, 5);
        let free = all_free(&t);
        let rects: Vec<_> = mesh_rectangles_in(&t, &set_of(&t, &free), 3, 3)
            .unwrap()
            .collect();
        assert_eq!(rects.len(), 9); // 3x3 windows in a 5x5
        for r in &rects {
            assert_eq!(r.len(), 9);
            assert!(t.is_connected_subset(r));
        }
    }

    #[test]
    fn rectangles_include_transpose() {
        let t = Topology::mesh2d(4, 4);
        let free = all_free(&t);
        let free = set_of(&t, &free);
        let rects = mesh_rectangles_in(&t, &free, 1, 4).unwrap();
        // vertical 1x4: 4 placements; horizontal 4x1: 4 placements
        assert_eq!(rects.count(), 8);
    }

    #[test]
    fn rectangles_respect_occupancy() {
        let t = Topology::mesh2d(5, 5);
        // Paper's topology lock-in example: after one 3x3 is placed at the
        // top-left, no second fully-free 3x3 window remains.
        let first: Vec<NodeId> = (0..3)
            .flat_map(|y| (0..3).map(move |x| NodeId(y * 5 + x)))
            .collect();
        let free: Vec<NodeId> = t.nodes().filter(|n| !first.contains(n)).collect();
        assert_eq!(free.len(), 16);
        let free = set_of(&t, &free);
        let mut rects = mesh_rectangles_in(&t, &free, 3, 3).unwrap();
        assert!(
            rects.next().is_none(),
            "the 5x5-minus-3x3 example must exhibit topology lock-in"
        );
    }

    #[test]
    fn non_mesh_returns_none() {
        let t = Topology::ring(6);
        let free = all_free(&t);
        assert!(mesh_rectangles_in(&t, &set_of(&t, &free), 2, 2).is_none());
    }
}
