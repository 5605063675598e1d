//! Virtual-NPU core allocation strategies — the paper's §4.3 and
//! Algorithm 1 (`minTopologyEditDistance`).
//!
//! Three strategies are provided, matching the paper's evaluation
//! (Figures 8, 17 and 18):
//!
//! * [`Strategy::straightforward`] — allocate the first `k` free cores in
//!   core-ID (zig-zag) order. Cheap, but the resulting shape can deviate
//!   badly from the request.
//! * [`Strategy::similar_topology`] — the paper's best-effort mapping:
//!   enumerate connected candidate sub-topologies of the free region,
//!   early-exit on an exact (isomorphic) match, deduplicate isomorphic
//!   candidates, score the rest by topology edit distance, and return the
//!   minimum.
//! * [`Strategy::exact_only`] — the rigid "topology lock-in" behaviour:
//!   succeed only on an exact match (what MIG-style partitioning provides).
//!
//! A search is **one walk** of the candidate enumeration, shared by the
//! last two strategies: each visited candidate gets one canonical key,
//! compared to the request's (stop on a verified isomorphism) and, for
//! similar-topology, reused to deduplicate. The mapper spawns no threads;
//! scoring is a plain loop.
//!
//! A visited candidate is read once, in one walk of its cells, into a
//! reused **view**: its kinds and neighbour bit rows in sorted-cell order
//! (`neighbour_rows`). Everything the walk asks of the candidate reads
//! that view — its structure (the score memo's key), its canonical key
//! and its isomorphism to the request — and no subgraph is built. A
//! collected candidate is scored by one kernel path, `ged::StockRefiner`
//! (at one word a row for requests of at most 64 nodes and three words
//! up to [`ged::MAX_REQUEST_NODES`]): the exact A\* up to 8 nodes, else
//! the bipartite heuristic, and the best six are refined by 2-opt swaps,
//! all reading the request's tables, built once a search, and the
//! candidate's view, read again on a miss. Its canonical key, its
//! isomorphism to the request, its edit distance and its 2-opt refinement
//! are pure functions of the request and the candidate's structure; the
//! kernels never read a candidate's edge costs. So a search behind a
//! [`MappingCache`] miss ([`Mapper::map_cached_with`]) looks all four up
//! in the cache's score memo by the structure, and shapes an earlier
//! search, or an earlier visit of this one, already met are not worked
//! out again. An advisory probe searches through the same memo
//! ([`Mapper::map_scored`]) without touching the cache's entries.
//! [`Mapper::map_in`] keeps no memo and is the reference the memo is held
//! to. Every search first checks that the request's edge costs sum to at
//! most [`ged::EDGE_COST_BOUND`], so the kernels' arithmetic cannot
//! overflow, and that it has at most [`ged::MAX_REQUEST_NODES`] nodes.
//!
//! All strategies honour R-1 (node count) by construction; R-3
//! (connectivity) is enforced unless fragmentation mode
//! ([`Strategy::allow_disconnected`]) is enabled.

use crate::cache::{FreeSet, MappingCache, ScoreMemo, SearchMemo, GED, REFINE};
use crate::canonical::{canonical_key, find_isomorphism, key_of, CanonicalKey};
use crate::enumerate::{self, Visit, DEFAULT_CANDIDATE_CAP};
use crate::ged::{self, GedResult, Row, StockRefiner};
use crate::{NodeId, NodeKind, Result, TopoError, Topology};
use std::cell::OnceCell;

/// Which allocation algorithm a [`Strategy`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// First-k free cores in ID order ("zig-zag").
    Straightforward,
    /// Minimum topology-edit-distance mapping (Algorithm 1).
    SimilarTopology,
    /// Exact isomorphic match or failure.
    ExactOnly,
}

/// Configuration for a mapping attempt.
///
/// Build with one of the constructors and refine with the chained setters:
///
/// ```
/// use vnpu_topo::mapping::Strategy;
/// let s = Strategy::similar_topology()
///     .candidate_cap(5_000)
///     .allow_disconnected(true);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Strategy {
    kind: StrategyKind,
    candidate_cap: usize,
    allow_disconnected: bool,
}

impl Strategy {
    /// Straightforward (zig-zag, by core ID) allocation.
    pub fn straightforward() -> Self {
        Strategy {
            kind: StrategyKind::Straightforward,
            candidate_cap: DEFAULT_CANDIDATE_CAP,
            allow_disconnected: false,
        }
    }

    /// Similar-topology (minimum edit distance) allocation.
    pub fn similar_topology() -> Self {
        Strategy {
            kind: StrategyKind::SimilarTopology,
            ..Strategy::straightforward()
        }
    }

    /// Exact-match-only allocation (fails rather than approximate).
    pub fn exact_only() -> Self {
        Strategy {
            kind: StrategyKind::ExactOnly,
            ..Strategy::straightforward()
        }
    }

    /// Limits the number of enumerated candidate sub-topologies, for
    /// similar-topology and exact-only searches alike.
    pub fn candidate_cap(mut self, cap: usize) -> Self {
        self.candidate_cap = cap.max(1);
        self
    }

    /// Permits disconnected allocations when no connected candidate exists
    /// (the paper's fragmentation trade-off, §4.3).
    pub fn allow_disconnected(mut self, allow: bool) -> Self {
        self.allow_disconnected = allow;
        self
    }

    /// Accepted and ignored: the mapper spawns no threads (candidates are
    /// scored in a plain loop). Kept only because `benchmark/`, which is
    /// edited in PRs of its own, still calls it; it goes once that call
    /// does.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }
}

/// A completed virtual-to-physical core mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    phys_nodes: Vec<NodeId>,
    edit_distance: u64,
    connected: bool,
}

impl Mapping {
    /// Physical node chosen for each virtual node (index = virtual node
    /// ID).
    pub fn phys_nodes(&self) -> &[NodeId] {
        &self.phys_nodes
    }

    /// Topology edit distance between the request and the allocated
    /// sub-topology (0 = exact match).
    pub fn edit_distance(&self) -> u64 {
        self.edit_distance
    }

    /// Whether the allocated physical node set is connected (R-3).
    pub fn is_connected(&self) -> bool {
        self.connected
    }
}

/// Maps virtual topologies onto the free region of a physical topology.
#[derive(Debug, Clone, Copy)]
pub struct Mapper<'a> {
    phys: &'a Topology,
    /// Label-sensitive fingerprint of `phys`, computed once so cached
    /// lookups can bind their keys to the chip without re-hashing the
    /// whole graph per request.
    phys_key: u64,
    /// The chip's reconfiguration generation, folded into every cache
    /// key: core scaling and fault transitions bump it, so entries cached
    /// before them expire.
    generation: u64,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over the given physical topology.
    pub fn new(phys: &'a Topology) -> Self {
        Self::with_phys_key(phys, crate::cache::labeled_hash(phys))
    }

    /// Creates a mapper with a precomputed physical-topology fingerprint,
    /// so long-lived callers admitting requests in a loop don't re-hash
    /// the whole chip (O(nodes + edges)) on every attempt just to consult
    /// the cache. `phys_key` must equal
    /// [`crate::cache::labeled_hash`]`(phys)` — a wrong key silently
    /// aliases cache entries across chips.
    pub fn with_phys_key(phys: &'a Topology, phys_key: u64) -> Self {
        Mapper {
            phys,
            phys_key,
            generation: 0,
        }
    }

    /// Binds the mapper to a reconfiguration generation: cached lookups
    /// from different generations never alias, so bumping the counter
    /// after core scaling or a fault transition expires every entry
    /// cached for this chip before it.
    pub fn at_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// Allocates physical nodes for the requested virtual topology `req`
    /// out of the free node set, per `strategy`.
    ///
    /// # Errors
    ///
    /// * [`TopoError::InsufficientNodes`] — fewer free nodes than requested
    ///   (violates R-1).
    /// * [`TopoError::NoCandidate`] — no allocation satisfying the
    ///   strategy's constraints (connectivity, exactness) exists.
    /// * [`TopoError::EdgeCostsTooLarge`] — the request's edge costs sum
    ///   past [`ged::EDGE_COST_BOUND`].
    /// * [`TopoError::RequestTooLarge`] — the request has more than
    ///   [`ged::MAX_REQUEST_NODES`] nodes.
    pub fn map(&self, free: &[NodeId], req: &Topology, strategy: &Strategy) -> Result<Mapping> {
        let set = FreeSet::from_free_nodes(self.phys.node_count(), free);
        self.map_in(&set, req, strategy)
    }

    /// [`Mapper::map`] over an incrementally-maintained [`FreeSet`] — the
    /// serving hot path: no occupancy mask is rebuilt per request.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map`], plus [`TopoError::FreeSetMismatch`] when
    /// `free` tracks a different node count than the physical topology
    /// (the candidate enumerators index the mask by physical node id, so
    /// an undersized set would otherwise panic).
    pub fn map_in(&self, free: &FreeSet, req: &Topology, strategy: &Strategy) -> Result<Mapping> {
        self.refuse_unsearchable(free, req)?;
        self.search(free, req, strategy, None)
    }

    /// The refusals no free region could lift, checked at every entry
    /// before a cache is touched or a search starts: a free set sized for
    /// another topology, edge costs summing past [`ged::EDGE_COST_BOUND`]
    /// (so no sum the kernels form overflows) and a request past
    /// [`ged::MAX_REQUEST_NODES`]. A refusal here is not memoized: the
    /// free-region fingerprint is capacity-independent, so a
    /// wrong-capacity set would alias the correctly-sized region with the
    /// same free membership, and an impossible request would only fill
    /// the cache with entries no placement reads.
    fn refuse_unsearchable(&self, free: &FreeSet, req: &Topology) -> Result<()> {
        if free.capacity() != self.phys.node_count() {
            return Err(TopoError::FreeSetMismatch {
                set: free.capacity(),
                topology: self.phys.node_count(),
            });
        }
        let mut attrs = req.edges();
        let cost_sum = attrs.try_fold(0u64, |sum, (_, _, e)| sum.checked_add(e.cost));
        if cost_sum.is_none_or(|sum| sum > ged::EDGE_COST_BOUND) {
            return Err(TopoError::EdgeCostsTooLarge);
        }
        let k = req.node_count();
        if k > ged::MAX_REQUEST_NODES {
            return Err(TopoError::RequestTooLarge { nodes: k });
        }
        Ok(())
    }

    /// [`Mapper::map_in`]'s body, for a request
    /// [`Mapper::refuse_unsearchable`] passed. An exact-only or
    /// similar-topology search looks its candidates up in `memo` when
    /// given one; the result is the same.
    fn search(
        &self,
        free: &FreeSet,
        req: &Topology,
        strategy: &Strategy,
        memo: Option<&mut ScoreMemo>,
    ) -> Result<Mapping> {
        let k = req.node_count();
        if free.free_count() < k {
            return Err(TopoError::InsufficientNodes {
                requested: k,
                available: free.free_count(),
            });
        }
        if k == 0 {
            return Ok(Mapping {
                phys_nodes: Vec::new(),
                edit_distance: 0,
                connected: true,
            });
        }
        let mut memo = SearchMemo::new(memo, req);
        match strategy.kind {
            StrategyKind::Straightforward => Ok(self.straightforward(free, req)),
            // The kernels' rows: one word up to 64 nodes, else three.
            _ if k <= 64 => self.similar::<1>(free, req, strategy, &mut memo),
            _ => self.similar::<3>(free, req, strategy, &mut memo),
        }
    }

    /// [`Mapper::map_in`] memoized through a [`MappingCache`]: a hit
    /// returns the stored result (success *or* failure) for this exact
    /// `(physical topology, request, strategy, free-region)` tuple; a miss
    /// computes and stores it, looking candidates up in the cache's score
    /// memo. One cache may safely be shared by mappers over different
    /// chips — the key carries the physical topology's fingerprint.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map_in`] (memoized errors replay identically).
    pub fn map_cached(
        &self,
        free: &FreeSet,
        req: &Topology,
        strategy: &Strategy,
        cache: &mut MappingCache,
    ) -> Result<Mapping> {
        self.map_cached_with(free, req, strategy, cache, None)
    }

    /// [`Mapper::map_in`] through `cache`'s score memo, as a placement-cache
    /// miss searches, with no entry looked up or stored and no
    /// [`MappingCache::stats`] counter moved: the path of advisory probes
    /// (fit hints, defrag remap probes), which so reuse what placements
    /// scored, and placements what they scored, while leaving nothing
    /// stored that could go stale.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map_in`].
    pub fn map_scored(
        &self,
        free: &FreeSet,
        req: &Topology,
        strategy: &Strategy,
        cache: &mut MappingCache,
    ) -> Result<Mapping> {
        self.refuse_unsearchable(free, req)?;
        self.search(free, req, strategy, Some(&mut cache.score))
    }

    /// [`Mapper::map_cached`] with an optional *precomputed* result to use
    /// in place of the inline [`Mapper::map_in`] call on a cache miss, so
    /// a caller that already holds the answer (the benchmark's replay
    /// seeds a cache this way) runs the same `get`/`insert` sequence, with
    /// the same statistics, as the plain path. `precomputed` must equal
    /// what `map_in(free, req, strategy)` would return — callers guarantee
    /// this by computing it with the same mapper, free set, request and
    /// strategy.
    ///
    /// # Errors
    ///
    /// As for [`Mapper::map_cached`].
    pub fn map_cached_with(
        &self,
        free: &FreeSet,
        req: &Topology,
        strategy: &Strategy,
        cache: &mut MappingCache,
        precomputed: Option<Result<Mapping>>,
    ) -> Result<Mapping> {
        self.refuse_unsearchable(free, req)?;
        let key = MappingCache::key_for(self.phys_key, self.generation, req, strategy, free);
        if let Some(result) = cache.get(&key, free) {
            return result;
        }
        let result =
            precomputed.unwrap_or_else(|| self.search(free, req, strategy, Some(&mut cache.score)));
        cache.insert(key, result.clone());
        result
    }

    /// First-k free nodes in ascending ID order; virtual node `i` gets the
    /// `i`-th of them (the zig-zag order of paper Figure 17/18), priced by
    /// the bitset kernel.
    fn straightforward(&self, free: &FreeSet, req: &Topology) -> Mapping {
        fn price<const W: usize>(phys: &Topology, req: &Topology, cells: &[NodeId]) -> u64 {
            let (kinds, rows) = neighbour_rows::<W>(phys, cells, Default::default());
            let identity: Vec<Option<NodeId>> =
                (0..cells.len() as u32).map(|i| Some(NodeId(i))).collect();
            StockRefiner::<W>::new(req)
                .price(&kinds, &rows, &identity)
                .1
        }
        let chosen: Vec<NodeId> = free.nodes().into_iter().take(req.node_count()).collect();
        let distance = if chosen.len() <= 64 {
            price::<1>(self.phys, req, &chosen)
        } else {
            price::<3>(self.phys, req, &chosen)
        };
        let connected = self.phys.is_connected_subset(&chosen);
        Mapping {
            phys_nodes: chosen,
            edit_distance: distance, // the cost of this mapping, not a minimum
            connected,
        }
    }

    /// The one candidate walk of a search. Tries the rectangle fast path,
    /// then enumerates connected `k`-node candidates up to `cap`, reading
    /// each one's view (its [`neighbour_rows`], `W` words each) once into
    /// a reused buffer; its structure, its canonical key on a `memo` miss
    /// and its isomorphism check all read that view. A candidate whose key
    /// equals the request's and that passes the isomorphism check ends the
    /// walk as [`Walk::Exact`]; every other one, when `collect` is set, is
    /// kept with its structure if its key is new (Algorithm 1's
    /// isomorphism dedup, lines 20–29).
    fn walk<const W: usize>(
        &self,
        free: &FreeSet,
        req: &Topology,
        cap: usize,
        collect: bool,
        memo: &mut SearchMemo,
    ) -> Walk {
        let exact = |iso: Vec<NodeId>, cells: &[NodeId]| Mapping {
            phys_nodes: iso.iter().map(|j| cells[j.index()]).collect(),
            edit_distance: 0,
            connected: true,
        };
        // Rectangle fast-path for mesh requests on mesh hardware: the first
        // free window. It is sorted and itself row-major, so an
        // isomorphism search gives the virtual -> physical layout.
        let shape = req.mesh_shape();
        let rects =
            shape.and_then(|s| enumerate::mesh_rectangles_in(self.phys, free, s.width, s.height));
        let mut view = Default::default();
        if let Some(cells) = rects.and_then(|mut windows| windows.next()) {
            view = neighbour_rows::<W>(self.phys, &cells, view);
            let structure = memo.structure(&view);
            if let Some(iso) = memo.iso(structure, || find_isomorphism(req, &view)) {
                return Walk::Exact(exact(iso, &cells));
            }
        }
        // General search: compare canonical keys, verify a match with an
        // isomorphism search. The cap bounds the (worst-case exponential)
        // exhaustion proof; the walk cuts branches that cannot reach the
        // request's size, so a near-full region's proof is short.
        // Only a key of the request's edge count can equal the request's,
        // so that is computed at the first such candidate.
        let req_key = OnceCell::new();
        let mut found = None;
        // Keys seen so far, sorted.
        let mut seen: Vec<CanonicalKey> = Vec::new();
        let mut candidates = Vec::new();
        enumerate::enumerate_connected_in(self.phys, free, req.node_count(), cap, |cells| {
            view = neighbour_rows(self.phys, cells, std::mem::take(&mut view));
            let structure = memo.structure(&view);
            let key = memo.class(structure, || key_of(&view));
            if key.edges() == req.edge_count() && key == *req_key.get_or_init(|| canonical_key(req))
            {
                if let Some(iso) = memo.iso(structure, || find_isomorphism(req, &view)) {
                    found = Some(exact(iso, cells));
                    return Visit::Stop;
                }
            }
            if collect {
                if let Err(at) = seen.binary_search(&key) {
                    seen.insert(at, key);
                    candidates.push((cells.to_vec(), structure));
                }
            }
            Visit::Continue
        });
        found.map_or(Walk::Candidates(candidates), Walk::Exact)
    }

    /// Algorithm 1: enumerate, early-exit, dedup, score, pick the
    /// minimum-edit-distance candidate, the kernels' rows `W` words wide.
    /// An exact-only strategy stops after the walk.
    fn similar<const W: usize>(
        &self,
        free: &FreeSet,
        req: &Topology,
        strategy: &Strategy,
        memo: &mut SearchMemo,
    ) -> Result<Mapping> {
        // Lines 20–29, with line 22's exact early exit.
        let collect = strategy.kind != StrategyKind::ExactOnly;
        let candidates = match self.walk::<W>(free, req, strategy.candidate_cap, collect, memo) {
            Walk::Exact(m) => return Ok(m),
            Walk::Candidates(_) if !collect => return Err(TopoError::NoCandidate),
            Walk::Candidates(candidates) => candidates,
        };
        // Lines 30–32: TED scoring, a candidate's rows built per memo miss.
        // Only the best few (lowest cost, earliest first) go on to
        // refinement, so only theirs are kept. The scoring and the 2-opt
        // swaps run on bitsets, the request's built once here.
        let kernel = StockRefiner::<W>::new(req);
        let mut top: Vec<(GedResult, Candidate<W>)> = Vec::new();
        for (cells, structure) in &candidates {
            let candidate = Candidate::new(cells, *structure);
            let scored = memo.score(GED, *structure, &[], |memo| {
                let (kinds, rows) = candidate.rows(self.phys);
                if cells.len() > ged::EXACT_GED_LIMIT {
                    let mapping = memo.assignment(kinds, rows, || kernel.assignment(kinds, rows));
                    kernel.bipartite(kinds, rows, mapping)
                } else {
                    kernel.exact(kinds, rows)
                }
            });
            let rank = top.partition_point(|(r, _)| r.cost <= scored.cost);
            if rank < REFINE_TOP_CANDIDATES {
                top.truncate(REFINE_TOP_CANDIDATES - 1);
                top.insert(rank, (scored, candidate));
            }
        }
        // Refine them with 2-opt swaps (the bipartite assignment ignores
        // global edge structure). Pipeline-style requests (virtual IDs in
        // dataflow order) additionally get a serpentine seed — a snake
        // through the candidate region — which is usually the natural
        // embedding for chains.
        let mut best: Option<(u64, Vec<NodeId>)> = None;
        for (scored, candidate) in &top {
            let cells = candidate.cells;
            let starts = [
                complete_option_mapping(&scored.mapping, cells.len()),
                self.serpentine_mapping(cells),
            ];
            for start in starts {
                let refined = memo.score(REFINE, candidate.structure, &start, |_| {
                    let (kinds, rows) = candidate.rows(self.phys);
                    let (mapping, cost) = kernel.refine(kinds, rows, &start, 8);
                    GedResult {
                        cost,
                        mapping,
                        exact: false,
                    }
                });
                if best.as_ref().is_none_or(|(c, _)| refined.cost < *c) {
                    let phys_nodes = refined
                        .mapping
                        .iter()
                        .map(|m| cells[m.expect("2-opt swaps keep a total mapping total").index()])
                        .collect();
                    best = Some((refined.cost, phys_nodes));
                }
            }
        }
        match best {
            Some((edit_distance, phys_nodes)) => Ok(Mapping {
                phys_nodes,
                edit_distance,
                connected: true,
            }),
            // No connected candidate. Fragmentation mode falls back to
            // zig-zag over whatever is free; the caller accepts inter-core
            // conflict overheads.
            None if strategy.allow_disconnected => Ok(self.straightforward(free, req)),
            None => Err(TopoError::NoCandidate),
        }
    }

    /// Virtual node `i` → the `i`-th candidate cell (of sorted `cells`) in
    /// serpentine order (row-major with alternating column direction on
    /// meshes; BFS order from the lowest cell otherwise, each cell's
    /// neighbours among the cells taken in ascending order).
    /// Candidate-local node IDs.
    fn serpentine_mapping(&self, cells: &[NodeId]) -> Vec<Option<NodeId>> {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        if self.phys.mesh_shape().is_some() {
            order.sort_by_key(|&j| {
                let (x, y) = self
                    .phys
                    .mesh_coord(cells[j])
                    .expect("candidate cells are nodes of the mesh `phys`");
                let xx = if y % 2 == 0 { x as i64 } else { -(x as i64) };
                (y, xx)
            });
        } else {
            // BFS order from the lowest cell keeps neighbors close.
            let mut seen = vec![false; cells.len()];
            let mut bfs = Vec::with_capacity(cells.len());
            let mut queue = std::collections::VecDeque::from([0usize]);
            seen[0] = true;
            while let Some(u) = queue.pop_front() {
                bfs.push(u);
                for v in self.phys.neighbors(cells[u]) {
                    if let Ok(v) = cells.binary_search(&v) {
                        if !seen[v] {
                            seen[v] = true;
                            queue.push_back(v);
                        }
                    }
                }
            }
            for (v, &s) in seen.iter().enumerate() {
                if !s {
                    bfs.push(v);
                }
            }
            order = bfs;
        }
        order.into_iter().map(|j| Some(NodeId(j as u32))).collect()
    }
}

/// What one candidate walk ([`Mapper::walk`]) found.
enum Walk {
    /// A candidate isomorphic to the request; the walk stopped at it.
    Exact(Mapping),
    /// No isomorphic candidate within the cap. Holds the candidates
    /// visited, one per isomorphism class in visit order, each as its
    /// sorted cells and its structure (`None` without a memo); empty when
    /// the caller did not ask to collect them.
    Candidates(Vec<(Vec<NodeId>, Option<u128>)>),
}

/// A collected candidate of a search: its sorted cells, its structure, and
/// what the kernels read of it, built on first use — each cell's kind and
/// its neighbours among the cells, one bit each in `W` words.
struct Candidate<'c, const W: usize> {
    cells: &'c [NodeId],
    structure: Option<u128>,
    rows: OnceCell<(Vec<NodeKind>, Vec<Row<W>>)>,
}

impl<'c, const W: usize> Candidate<'c, W> {
    fn new(cells: &'c [NodeId], structure: Option<u128>) -> Self {
        Candidate {
            cells,
            structure,
            rows: OnceCell::new(),
        }
    }

    /// [`neighbour_rows`] of the cells.
    fn rows(&self, phys: &Topology) -> (&[NodeKind], &[Row<W>]) {
        let built = || neighbour_rows(phys, self.cells, Default::default());
        let (kinds, rows) = self.rows.get_or_init(built);
        (kinds, rows)
    }
}

/// A candidate's view, read into the buffers passed in: the kinds of
/// `cells` (sorted, at most `64 * W`) and each one's neighbours among
/// them, one bit each, from one walk of the cells' neighbours.
fn neighbour_rows<const W: usize>(
    phys: &Topology,
    cells: &[NodeId],
    (mut kinds, mut rows): (Vec<NodeKind>, Vec<Row<W>>),
) -> (Vec<NodeKind>, Vec<Row<W>>) {
    rows.clear();
    rows.resize(cells.len(), [0; W]);
    for (i, &cell) in cells.iter().enumerate() {
        let later = &cells[i + 1..];
        for w in phys.neighbors(cell).filter(|&w| w > cell) {
            if let Ok(j) = later.binary_search(&w) {
                ged::insert(&mut rows[i], i + 1 + j);
                ged::insert(&mut rows[i + 1 + j], i);
            }
        }
    }
    kinds.clear();
    kinds.extend(cells.iter().map(|&c| phys.node_attr(c).kind));
    (kinds, rows)
}

/// How many of the lowest-TED candidates receive 2-opt refinement.
const REFINE_TOP_CANDIDATES: usize = 6;

/// Turns a (possibly partial) GED node mapping into a total mapping in
/// candidate-local node IDs: unmapped virtual nodes take the leftover
/// candidate cells in order.
fn complete_option_mapping(
    mapping: &[Option<NodeId>],
    candidate_len: usize,
) -> Vec<Option<NodeId>> {
    let mut used = vec![false; candidate_len];
    for m in mapping.iter().flatten() {
        used[m.index()] = true;
    }
    let mut leftovers = (0..candidate_len).filter(|&j| !used[j]);
    mapping
        .iter()
        .map(|m| match m {
            Some(j) => Some(*j),
            None => Some(NodeId(
                leftovers.next().expect("R-1: equal node counts") as u32
            )),
        })
        .collect()
}

#[cfg(test)]
mod reference {
    //! The two-walk search that [`Mapper::walk`] replaced, kept verbatim as
    //! a differential oracle: an exact-match walk to the cap, then — on a
    //! miss — a second walk of the same sequence to dedup and collect.
    //! The campaign below holds the one-walk search to identical
    //! `Result<Mapping>`s over random free regions.

    use super::*;
    use crate::testing::Rng;
    use std::collections::HashSet;

    impl Mapper<'_> {
        /// The reference search for the two enumerating strategy kinds;
        /// the exact-only arm is `try_exact` at the strategy's cap.
        fn map_reference(
            &self,
            free: &FreeSet,
            req: &Topology,
            strategy: &Strategy,
        ) -> Result<Mapping> {
            match strategy.kind {
                StrategyKind::ExactOnly => self
                    .try_exact(free, req, strategy.candidate_cap)
                    .ok_or(TopoError::NoCandidate),
                StrategyKind::SimilarTopology => self.similar_two_walks(free, req, strategy),
                StrategyKind::Straightforward => unreachable!("never enumerates candidates"),
            }
        }

        fn try_exact(&self, free: &FreeSet, req: &Topology, cap: usize) -> Option<Mapping> {
            // Rectangle fast-path for mesh requests on mesh hardware.
            if let Some(shape) = req.mesh_shape() {
                if let Some(mut rects) =
                    enumerate::mesh_rectangles_in(self.phys, free, shape.width, shape.height)
                {
                    if let Some(cells) = rects.next() {
                        // `cells` is sorted; the window is itself row-major, so an
                        // isomorphism search gives the virtual -> physical layout.
                        let (sub, back) = self.phys.induced_subgraph(&cells);
                        if let Some(iso) = find_isomorphism(req, &sub) {
                            let phys_nodes = iso.iter().map(|j| back[j.index()]).collect();
                            return Some(Mapping {
                                phys_nodes,
                                edit_distance: 0,
                                connected: true,
                            });
                        }
                    }
                }
            }
            // General exact search: enumerate connected candidates, compare
            // canonical keys, verify with an isomorphism search. The cap
            // bounds the (worst-case exponential) exhaustion proof, less
            // the branches the walk cuts for being unable to reach `k`.
            let req_key = canonical_key(req);
            let mut found: Option<Mapping> = None;
            enumerate::enumerate_connected_in(self.phys, free, req.node_count(), cap, |cells| {
                let (sub, back) = self.phys.induced_subgraph(cells);
                if canonical_key(&sub) == req_key {
                    if let Some(iso) = find_isomorphism(req, &sub) {
                        found = Some(Mapping {
                            phys_nodes: iso.iter().map(|j| back[j.index()]).collect(),
                            edit_distance: 0,
                            connected: true,
                        });
                        return Visit::Stop;
                    }
                }
                Visit::Continue
            });
            found
        }

        fn similar_two_walks(
            &self,
            free: &FreeSet,
            req: &Topology,
            strategy: &Strategy,
        ) -> Result<Mapping> {
            // Line 22: exact early exit.
            if let Some(m) = self.try_exact(free, req, strategy.candidate_cap) {
                return Ok(m);
            }
            // Lines 20–29: collect connected candidates, dedup by canonical key.
            let mut seen: HashSet<CanonicalKey> = HashSet::new();
            let mut candidates: Vec<Vec<NodeId>> = Vec::new();
            enumerate::enumerate_connected_in(
                self.phys,
                free,
                req.node_count(),
                strategy.candidate_cap,
                |cells| {
                    let (sub, _) = self.phys.induced_subgraph(cells);
                    if seen.insert(canonical_key(&sub)) {
                        candidates.push(cells.to_vec());
                    }
                    Visit::Continue
                },
            );
            if candidates.is_empty() {
                if strategy.allow_disconnected {
                    // Fragmentation mode: fall back to zig-zag over whatever is
                    // free; the caller accepts inter-core conflict overheads.
                    return Ok(self.straightforward(free, req));
                }
                return Err(TopoError::NoCandidate);
            }
            // Lines 30–32: TED scoring (the one-thread arm of the deleted
            // scoring fork), by the kernels' references.
            let results: Vec<GedResult> = candidates
                .iter()
                .map(|cells| {
                    let (sub, _) = self.phys.induced_subgraph(cells);
                    ged::reference::ged(req, &sub)
                })
                .collect();
            let mut order: Vec<usize> = (0..results.len()).collect();
            order.sort_by_key(|&i| results[i].cost);
            let mut best: Option<(u64, Vec<NodeId>)> = None;
            for &i in order.iter().take(REFINE_TOP_CANDIDATES) {
                let cells = &candidates[i];
                let (sub, back) = self.phys.induced_subgraph(cells);
                let mut starts: Vec<Vec<Option<NodeId>>> =
                    vec![complete_option_mapping(&results[i].mapping, cells.len())];
                starts.push(self.serpentine_mapping(cells));
                for start in starts {
                    let (refined, cost) = ged::reference::refine_mapping(req, &sub, &start, 8);
                    if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                        let phys_nodes = refined
                            .iter()
                            .map(|m| back[m.expect("total mapping").index()])
                            .collect();
                        best = Some((cost, phys_nodes));
                    }
                }
            }
            let (cost, phys_nodes) = best.expect("candidates is non-empty");
            Ok(Mapping {
                phys_nodes,
                edit_distance: cost,
                connected: true,
            })
        }
    }

    /// A free region of `phys` at 10–90% free: each node free
    /// independently, or — with `blobs` — connected tenant-like blobs
    /// occupied until the target is met. `faults` then masks up to three
    /// more nodes.
    pub(super) fn random_free_set(
        phys: &Topology,
        rng: &mut Rng,
        blobs: bool,
        faults: bool,
    ) -> FreeSet {
        let n = phys.node_count();
        let target_free = n * (10 + rng.below(81)) / 100;
        let mut free = FreeSet::all_free(n);
        if blobs {
            while free.free_count() > target_free {
                let nodes = free.nodes();
                let mut blob = vec![nodes[rng.below(nodes.len())]];
                let size = 1 + rng.below(6);
                let mut at = 0;
                while at < blob.len() && blob.len() < size {
                    for u in phys.neighbors(blob[at]) {
                        if free.contains(u) && !blob.contains(&u) && blob.len() < size {
                            blob.push(u);
                        }
                    }
                    at += 1;
                }
                free.occupy_all(&blob);
            }
        } else {
            for node in phys.nodes() {
                if rng.below(n) >= target_free {
                    free.occupy(node);
                }
            }
        }
        if faults {
            for _ in 0..1 + rng.below(3) {
                free.occupy(NodeId(rng.below(n) as u32));
            }
        }
        free
    }

    /// `near_mesh_topology` of the core crate for a count with no
    /// near-square factor pair: a `width`-wide grid whose last row is
    /// partial.
    fn partial_grid(n: u32, width: u32) -> Topology {
        let mut edges = Vec::new();
        for id in 0..n {
            if (id + 1) % width != 0 && id + 1 < n {
                edges.push((id, id + 1));
            }
            if id + width < n {
                edges.push((id, id + width));
            }
        }
        Topology::from_edges(n as usize, &edges).unwrap()
    }

    /// The mapper campaigns' chips: meshes and a 4x4 torus stripped of its
    /// mesh tag (no rectangle fast path, BFS serpentine seeds).
    pub(super) fn campaign_physicals() -> [Topology; 4] {
        let torus = Topology::torus2d(4, 4).unwrap();
        let torus_edges: Vec<(u32, u32)> = torus.edges().map(|(a, b, _)| (a.0, b.0)).collect();
        [
            Topology::mesh2d(4, 4),
            Topology::mesh2d(6, 6),
            Topology::mesh2d(8, 6),
            Topology::from_edges(16, &torus_edges).unwrap(),
        ]
    }

    /// The mapper campaigns' requests: the shipped shapes.
    pub(super) fn campaign_requests() -> Vec<Topology> {
        let mut requests: Vec<Topology> = (1..=4)
            .flat_map(|w| (1..=3).map(move |h| Topology::mesh2d(w, h)))
            .collect();
        requests.extend([3, 5, 6, 12].map(Topology::line));
        requests.push(Topology::ring(6));
        requests.push(Topology::from_edges(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]).unwrap());
        requests.extend([
            partial_grid(5, 3),
            partial_grid(7, 3),
            Topology::mesh2d(6, 4),
        ]);
        requests
    }

    /// The candidate caps the campaigns draw from.
    pub(super) const CAMPAIGN_CAPS: [usize; 5] = [1, 200, 300, 400, 2_000];

    #[test]
    fn one_walk_search_matches_the_two_walk_reference() {
        let physicals = campaign_physicals();
        let requests = campaign_requests();
        let caps = CAMPAIGN_CAPS;

        const FREE_SETS: usize = 1024;
        let mut rng = Rng(0x5EED_0016);
        // Cases that ended in: exact hit, scored miss, NoCandidate,
        // disconnected fallback.
        let mut arms = [0usize; 4];
        for case in 0..FREE_SETS {
            let phys = &physicals[case % physicals.len()];
            let mapper = Mapper::new(phys);
            let free = random_free_set(phys, &mut rng, case / 4 % 2 == 1, case / 8 % 2 == 1);
            let fitting: Vec<&Topology> = requests
                .iter()
                .filter(|r| r.node_count() <= free.free_count())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let req = fitting[rng.below(fitting.len())];
            let cap = caps[rng.below(caps.len())];
            let disconnected = rng.below(2) == 1;
            for strategy in [Strategy::exact_only(), Strategy::similar_topology()] {
                let strategy = strategy.candidate_cap(cap).allow_disconnected(disconnected);
                let got = mapper.map_in(&free, req, &strategy);
                let want = mapper.map_reference(&free, req, &strategy);
                assert_eq!(
                    got,
                    want,
                    "case {case}: {} free of {}, {}-node request, {strategy:?}",
                    free.free_count(),
                    phys.node_count(),
                    req.node_count(),
                );
                arms[match &got {
                    Ok(m) if m.edit_distance() == 0 => 0,
                    // Only the zig-zag fallback, taken when no connected
                    // candidate exists, places a disconnected set.
                    Ok(m) if !m.is_connected() => 3,
                    Ok(_) => 1,
                    Err(TopoError::NoCandidate) => 2,
                    Err(e) => panic!("case {case}: unexpected {e}"),
                }] += 1;
            }
        }
        println!(
            "mapper differential campaign: {FREE_SETS} free sets, 0 mismatches; \
             exact hit {}, scored miss {}, NoCandidate {}, disconnected fallback {}",
            arms[0], arms[1], arms[2], arms[3]
        );
        assert!(
            arms.iter().all(|&n| n > 0),
            "an outcome was never reached: {arms:?}"
        );
    }

    #[test]
    fn requests_past_64_nodes_match_the_two_walk_reference() {
        use crate::testing::relabeled;

        // A request of more than 64 nodes runs the bitset kernels at three
        // words a row, held here to the two-walk search, which scores with
        // the kernels' references: relabelled partial grids of 66-80 nodes,
        // which have no mesh shape, on a 10x10 chip with a few cores taken.
        let phys = Topology::mesh2d(10, 10);
        let mapper = Mapper::new(&phys);
        let mut rng = Rng(0x5EED_6301);
        let mut cache = MappingCache::default();
        // Searches that placed a connected set at a nonzero distance.
        let mut scored = 0;
        for case in 0..6 {
            let n = 66 + rng.below(15) as u32;
            let req = relabeled(&partial_grid(n, 9 + case % 2), &mut rng);
            assert!(req.node_count() > 64 && req.mesh_shape().is_none());
            let mut free = FreeSet::all_free(phys.node_count());
            for _ in 0..rng.below(100 - n as usize) {
                free.occupy(NodeId(rng.below(100) as u32));
            }
            let strategy = Strategy::similar_topology()
                .candidate_cap(1 + rng.below(12))
                .allow_disconnected(case % 3 == 0);
            let got = mapper.map_in(&free, &req, &strategy);
            let context = format!("case {case}: {n}-node request, {strategy:?}");
            assert_eq!(
                got,
                mapper.map_reference(&free, &req, &strategy),
                "{context}"
            );
            assert_eq!(
                mapper.map_cached(&free, &req, &strategy, &mut cache),
                got,
                "{context}, cached"
            );
            scored += usize::from(got.is_ok_and(|m| m.edit_distance() > 0 && m.is_connected()));
        }
        println!(
            "large-request campaign: 6 requests of 66-80 nodes on a 10x10 chip, identical to \
             the two-walk reference and through the placement cache; {scored} placed a \
             connected set at a nonzero distance"
        );
        assert!(scored > 0, "no search scored its candidates");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;
    use std::collections::HashSet;

    fn free_except(t: &Topology, taken: &[u32]) -> Vec<NodeId> {
        t.nodes().filter(|n| !taken.contains(&n.0)).collect()
    }

    #[test]
    fn mismatched_free_set_is_an_error_not_a_panic() {
        // The enumerators index the free mask by physical node id, so a
        // set sized for a different chip must be rejected up front.
        let phys = Topology::mesh2d(3, 3);
        let mapper = Mapper::new(&phys);
        let small = FreeSet::all_free(4);
        let err = mapper
            .map_in(&small, &Topology::line(2), &Strategy::similar_topology())
            .unwrap_err();
        assert!(matches!(
            err,
            TopoError::FreeSetMismatch {
                set: 4,
                topology: 9
            }
        ));
    }

    /// The mapper campaigns' chips, the 8x6 chip's east column of another
    /// core kind, which the memo's structures keep.
    fn annotated_physicals() -> [Topology; 4] {
        super::reference::campaign_physicals().map(|mut phys| {
            let column = |n: NodeId| phys.mesh_coord(n).map_or(n.0 % 4, |(x, _)| x);
            let east: Vec<NodeId> = phys.nodes().filter(|&n| column(n) == 7).collect();
            for n in east {
                phys.node_attr_mut(n).kind = crate::NodeKind::MatrixOptimized;
            }
            phys
        })
    }

    /// The shipped shapes, and each again with every other edge costing 3,
    /// as a compiled workload's traffic-scaled request does.
    fn annotated_requests() -> Vec<Topology> {
        let shipped = super::reference::campaign_requests();
        let annotated = shipped.iter().map(|r| {
            let mut t = r.clone();
            for (a, b, _) in r.edges().step_by(2) {
                t.add_edge_with(a, b, crate::EdgeAttr { cost: 3 }).unwrap();
            }
            t
        });
        shipped.iter().cloned().chain(annotated).collect()
    }

    #[test]
    fn score_memo_matches_fresh_scoring() {
        use super::reference::{random_free_set, CAMPAIGN_CAPS};
        use crate::testing::Rng;

        let (physicals, requests) = (annotated_physicals(), annotated_requests());

        // One memo for the whole campaign.
        let mut cache = MappingCache::default();
        let mut rng = Rng(0x5EED_0032);
        for case in 0..1024 {
            let phys = &physicals[case % physicals.len()];
            let mapper = Mapper::new(phys);
            let free = random_free_set(phys, &mut rng, case / 4 % 2 == 1, case / 8 % 2 == 1);
            let fitting: Vec<&Topology> = requests
                .iter()
                .filter(|r| r.node_count() <= free.free_count())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let req = fitting[rng.below(fitting.len())];
            let cap = CAMPAIGN_CAPS[rng.below(CAMPAIGN_CAPS.len())];
            let strategy = Strategy::similar_topology()
                .candidate_cap(cap)
                .allow_disconnected(rng.below(2) == 1);
            let got = mapper.map_cached(&free, req, &strategy, &mut cache);
            assert_eq!(
                got,
                mapper.map_in(&free, req, &strategy),
                "case {case}: {}-node request, {strategy:?}",
                req.node_count()
            );
        }
        let [ged, refine, _, assign, _] = cache.score_stats();
        println!(
            "score-memo campaign: 1024 free sets, 0 mismatches; ged {} hits / {} misses, \
             refine {} hits / {} misses, assignment {} hits / {} misses",
            ged.hits, ged.misses, refine.hits, refine.misses, assign.hits, assign.misses
        );
        let cleared = ged.evictions + refine.evictions + assign.evictions;
        assert_eq!(
            cleared, 0,
            "a table was cleared, so a repeat may have missed"
        );
        assert!(
            ged.hits > 0 && refine.hits > 0 && assign.hits > 0,
            "a kernel never hit"
        );
    }

    #[test]
    fn bipartite_assignments_are_shared_by_kind_and_degree() {
        use super::reference::random_free_set;
        use crate::cache::{SearchMemo, ASSIGN};
        use crate::testing::{sprinkle_kinds, Rng};
        use std::collections::HashMap;

        // A 9-12-node candidate's bipartite assignment comes from the score
        // memo's assignment table, keyed by its kinds and degrees node by
        // node, so candidates of different structure share one. Every
        // memoised score must equal a fresh `StockRefiner::bipartite`. The
        // chips: the campaign chips, one with a column of another kind, and
        // a 6x6 with kinds sprinkled; the requests: the shipped 9-12-node
        // shapes, cost-annotated and with kinds sprinkled.
        let mut rng = Rng(0x5EED_0070);
        let mut physicals = annotated_physicals().to_vec();
        let mut sprinkled = Topology::mesh2d(6, 6);
        sprinkle_kinds(&mut sprinkled, &mut rng);
        physicals.push(sprinkled);
        let mut requests: Vec<Topology> = annotated_requests()
            .into_iter()
            .filter(|r| (9..=12).contains(&r.node_count()))
            .collect();
        for r in requests.clone() {
            let mut kinded = r;
            sprinkle_kinds(&mut kinded, &mut rng);
            requests.push(kinded);
        }
        let mut cache = MappingCache::default();
        // The structures met per request and kind-and-degree sequence.
        let mut seen = HashMap::new();
        // Candidates scored, of them of mixed kinds, by weighted requests,
        // and table hits for a candidate of another structure.
        let (mut scored, mut mixed, mut weighted, mut shared) = (0, 0, 0, 0);
        for case in 0..64 {
            let phys = &physicals[case % physicals.len()];
            let free = random_free_set(phys, &mut rng, case % 2 == 1, false);
            let r = rng.below(requests.len());
            let req = &requests[r];
            let mut candidates = Vec::new();
            enumerate::enumerate_connected_in(phys, &free, req.node_count(), 40, |cells| {
                candidates.push(cells.to_vec());
                Visit::Continue
            });
            let kernel = StockRefiner::<1>::new(req);
            for cells in &candidates {
                let view = neighbour_rows::<1>(phys, cells, Default::default());
                let (kinds, rows) = &view;
                let fresh = kernel.bipartite(kinds, rows, kernel.assignment(kinds, rows));
                let hits = cache.score_stats()[ASSIGN].hits;
                let mut memo = SearchMemo::new(Some(&mut cache.score), req);
                let structure = memo.structure(&view).expect("a bound memo");
                let mapping = memo.assignment(kinds, rows, || kernel.assignment(kinds, rows));
                let got = kernel.bipartite(kinds, rows, mapping);
                assert_eq!(got, fresh, "case {case}: request {r}, cells {cells:?}");
                let sequence = kinds
                    .iter()
                    .zip(rows)
                    .map(|(&k, row)| (k, row[0].count_ones()));
                let met: &mut Vec<u128> =
                    seen.entry((r, sequence.collect::<Vec<_>>())).or_default();
                if cache.score_stats()[ASSIGN].hits > hits {
                    shared += usize::from(met.iter().any(|&s| s != structure));
                }
                if !met.contains(&structure) {
                    met.push(structure);
                }
                scored += 1;
                mixed += usize::from(kinds.iter().any(|&k| k != kinds[0]));
                weighted += usize::from(req.edges().any(|(_, _, attr)| attr.cost > 1));
            }
        }
        let stats = cache.score_stats()[ASSIGN];
        println!(
            "assignment-sharing campaign: {scored} candidates of 9-12 nodes, memoised scores \
             equal to fresh ones; {mixed} of mixed kinds, {weighted} for weighted requests; \
             assignment {} hits / {} misses, {shared} hits for a candidate of another \
             structure",
            stats.hits, stats.misses
        );
        assert_eq!(stats.evictions, 0, "the assignment table was cleared");
        assert!(
            mixed > 0 && weighted > 0,
            "no mixed-kind candidate or weighted request"
        );
        assert!(shared > 0, "no assignment was shared across structures");
    }

    #[test]
    fn structure_memo_matches_fresh_search() {
        use super::reference::{random_free_set, CAMPAIGN_CAPS};
        use crate::cache::{CLASS, ISO};
        use crate::testing::Rng;

        // The score-memo campaign's chips and requests.
        let (physicals, requests) = (annotated_physicals(), annotated_requests());

        // One long-lived memo, and per search a fresh one: ESU visits each
        // cell set once a walk, so a class hit within one walk joined
        // candidates at different cells.
        let mut cache = MappingCache::default();
        let (mut rect_hits, mut walk_hits, mut joined) = (0, 0, 0);
        let mut rng = Rng(0x5EED_0033);
        for case in 0..1024 {
            let phys = &physicals[case % physicals.len()];
            let mapper = Mapper::new(phys);
            let free = random_free_set(phys, &mut rng, case / 5 % 2 == 1, case / 10 % 2 == 1);
            let fitting: Vec<&Topology> = requests
                .iter()
                .filter(|r| r.node_count() <= free.free_count())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let req = fitting[rng.below(fitting.len())];
            let cap = CAMPAIGN_CAPS[rng.below(CAMPAIGN_CAPS.len())];
            let disconnected = rng.below(2) == 1;
            // The first free window, which the rectangle path looks up.
            let window = req
                .mesh_shape()
                .and_then(|s| enumerate::mesh_rectangles_in(phys, &free, s.width, s.height))
                .and_then(|mut windows| windows.next());
            for strategy in [Strategy::exact_only(), Strategy::similar_topology()] {
                let strategy = strategy.candidate_cap(cap).allow_disconnected(disconnected);
                let want = mapper.map_in(&free, req, &strategy);
                let context = format!(
                    "case {case}: {}-node request, {strategy:?}",
                    req.node_count()
                );
                let before = cache.score_stats();
                assert_eq!(
                    mapper.map_cached(&free, req, &strategy, &mut cache),
                    want,
                    "{context}"
                );
                let after = cache.score_stats();
                let mut fresh = MappingCache::default();
                let got = mapper.map_cached(&free, req, &strategy, &mut fresh);
                assert_eq!(got, want, "{context}, fresh memo");
                joined += fresh.score_stats()[CLASS].hits;
                // An isomorphism lookup is the rectangle path's when it
                // answered at the window, the walk's when there was none.
                let iso_hits = after[ISO].hits - before[ISO].hits;
                match &window {
                    None => walk_hits += iso_hits,
                    Some(cells) => {
                        let placed = want.as_ref().map(|m| {
                            let mut nodes = m.phys_nodes().to_vec();
                            nodes.sort_unstable();
                            nodes
                        });
                        if placed.as_ref() == Ok(cells) {
                            rect_hits += iso_hits;
                        }
                    }
                }
            }
        }
        let stats = cache.score_stats();
        println!(
            "structure-memo campaign: 1024 free sets x exact-only and similar-topology, \
             0 mismatches; class {} hits / {} misses / {} evictions, iso {} hits / {} misses \
             ({rect_hits} hits on the rectangle path, {walk_hits} in walks); {joined} class \
             hits within one walk joined candidates at different cells",
            stats[CLASS].hits,
            stats[CLASS].misses,
            stats[CLASS].evictions,
            stats[ISO].hits,
            stats[ISO].misses
        );
        assert!(stats[CLASS].hits > 0, "the class table never hit");
        assert!(rect_hits > 0, "the rectangle path never hit the iso table");
        assert!(walk_hits > 0, "a walk never hit the iso table");
        assert!(
            joined > 0,
            "no class hit joined candidates at different cells"
        );
    }

    #[test]
    fn candidate_keys_match_the_built_subgraph() {
        use crate::cache::SearchMemo;
        use crate::canonical::wl_colors;
        use crate::testing::{connected_subset, relabeled, Rng};

        // A walk reads each candidate into one view, its kinds and
        // neighbour rows, and keys a class-table miss, checks an
        // isomorphism and packs its structure from that view, so every
        // value must be the built subgraph's. The chips: a 6x6 whose third
        // column is of another kind, and a 12x12, whose own rows are three
        // words.
        let mut kinded = Topology::mesh2d(6, 6);
        for y in 0..6 {
            kinded.node_attr_mut(NodeId(y * 6 + 2)).kind = NodeKind::VectorOptimized;
        }
        let wide = Topology::mesh2d(12, 12);
        assert_eq!(wide.row(NodeId(0)).len(), 3);
        // Whether an automorphism of `t` moves a node: `t` with node `u`
        // marked by a kind neither chip has is isomorphic to `t` with
        // another node `v` marked.
        let automorphic = |t: &Topology| {
            let marked = |u: usize| {
                let mut m = t.clone();
                m.node_attr_mut(NodeId(u as u32)).kind = NodeKind::MatrixOptimized;
                m
            };
            let n = t.node_count();
            (0..n).any(|u| (u + 1..n).any(|v| find_isomorphism(&marked(u), &marked(v)).is_some()))
        };
        let mut rng = Rng(0x5EED_0069);
        let mut score = ScoreMemo::default();
        // Per chip, candidates by size; mixed-kind and symmetric ones;
        // isomorphism searches that matched, that did not, and matches on
        // a candidate with more than one automorphism.
        let (mut sizes, mut mixed, mut symmetric) = ([[0usize; 13]; 2], 0, 0);
        let (mut matched, mut unmatched, mut automorphic_matches) = (0, 0, 0);
        for (chip, phys) in [&kinded, &wide].into_iter().enumerate() {
            for case in 0..600 {
                let cells = connected_subset(phys, 1 + case % 12, &mut rng);
                let n = cells.len();
                let sub = phys.induced_subgraph(&cells).0;
                let one = neighbour_rows::<1>(phys, &cells, Default::default());
                let three = neighbour_rows::<3>(phys, &cells, Default::default());
                let key = canonical_key(&sub);
                assert_eq!(key_of(&one), key, "{cells:?}");
                assert_eq!(key_of(&three), key, "{cells:?}");
                let other = connected_subset(phys, n, &mut rng);
                let requests = [
                    relabeled(&sub, &mut rng),
                    relabeled(&phys.induced_subgraph(&other).0, &mut rng),
                ];
                for req in &requests {
                    let iso = find_isomorphism(req, &sub);
                    assert_eq!(find_isomorphism(req, &one), iso, "{cells:?}");
                    assert_eq!(find_isomorphism(req, &three), iso, "{cells:?}");
                    match iso {
                        Some(_) => matched += 1,
                        None => unmatched += 1,
                    }
                    if iso.is_some() && automorphic_matches == 0 && automorphic(&sub) {
                        automorphic_matches += 1;
                    }
                }
                // The structure, rebuilt from the subgraph's kinds and
                // `edges()`: a sentinel bit over two bits of kind a node
                // over one bit a pair, pairs row-major.
                let edges: HashSet<(usize, usize)> = sub
                    .edges()
                    .map(|(a, b, _)| (a.index(), b.index()))
                    .collect();
                let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
                let mut want = 0u128;
                for (bit, pair) in pairs.enumerate() {
                    want |= u128::from(edges.contains(&pair)) << bit;
                }
                let adjacency = n * (n - 1) / 2;
                for v in sub.nodes() {
                    want |= (sub.node_attr(v).kind as u128) << (adjacency + 2 * v.index());
                }
                want |= 1 << (adjacency + 2 * n);
                let memo = SearchMemo::new(Some(&mut score), &requests[0]);
                assert_eq!(memo.structure(&one), Some(want), "{cells:?}");
                sizes[chip][n] += 1;
                let kinds: HashSet<_> = cells.iter().map(|&c| phys.node_attr(c).kind).collect();
                mixed += usize::from(kinds.len() > 1);
                // Every WL colour held by several nodes.
                let colors = wl_colors(&sub);
                let shared = colors
                    .iter()
                    .all(|c| colors.iter().filter(|&d| d == c).count() > 1);
                symmetric += usize::from(n > 2 && shared);
            }
        }
        println!(
            "candidate-view campaign: 1 200 candidates of 1-12 cells, keys, isomorphisms and \
             structures equal to the built subgraph's at one and three words a row; {mixed} of \
             mixed kinds, {symmetric} symmetric; {matched} isomorphism searches matched, \
             {unmatched} did not"
        );
        assert!(mixed > 0, "no candidate mixed kinds");
        assert!(symmetric > 0, "no candidate shared every WL colour");
        assert!(
            sizes.iter().all(|s| s[9] > 0 && s[10] > 0),
            "a chip met no 9- or 10-cell candidate: {sizes:?}"
        );
        assert!(
            matched > 0 && unmatched > 0,
            "a search outcome was never met"
        );
        assert!(
            automorphic_matches > 0,
            "no match on a candidate with more than one automorphism"
        );
    }

    #[test]
    fn a_candidates_edge_costs_move_no_score() {
        use super::reference::{random_free_set, CAMPAIGN_CAPS};
        use crate::cache::labeled_hash;
        use crate::testing::Rng;

        // Each campaign chip beside a twin whose links cost 1 to 4, its
        // mesh shape kept. The kernels read a candidate's kinds and edges,
        // never its edge costs, so every search on the weighted twin
        // returns what the plain chip's does, and its edit-distance
        // lookups go through the score memo like any chip's.
        let mut rng = Rng(0x5EED_6402);
        let chips: Vec<(Topology, Topology)> = annotated_physicals()
            .into_iter()
            .map(|plain| {
                let weighted = plain.weighted(|_, _| 1 + rng.below(4) as u64);
                assert_ne!(labeled_hash(&plain), labeled_hash(&weighted));
                (plain, weighted)
            })
            .collect();
        let requests = annotated_requests();
        let mut cache = MappingCache::default();
        // Placements per strategy kind, similar-topology placements at a
        // nonzero distance, and the weighted chips' GED and REFINE lookups.
        let (mut placed, mut inexact, mut lookups) = ([0usize; 3], 0, 0);
        for case in 0..384 {
            let (plain, weighted) = &chips[case % chips.len()];
            let free = random_free_set(plain, &mut rng, case / 4 % 2 == 1, case / 8 % 2 == 1);
            let fitting: Vec<&Topology> = requests
                .iter()
                .filter(|r| r.node_count() <= free.free_count())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let req = fitting[rng.below(fitting.len())];
            let cap = CAMPAIGN_CAPS[rng.below(CAMPAIGN_CAPS.len())];
            let disconnected = rng.below(2) == 1;
            let (plain, weighted) = (Mapper::new(plain), Mapper::new(weighted));
            let strategies = [
                Strategy::straightforward(),
                Strategy::exact_only(),
                Strategy::similar_topology(),
            ];
            for (kind, strategy) in strategies.into_iter().enumerate() {
                let strategy = strategy.candidate_cap(cap).allow_disconnected(disconnected);
                let want = plain.map_in(&free, req, &strategy);
                let context = format!(
                    "case {case}: {}-node request, {strategy:?}",
                    req.node_count()
                );
                assert_eq!(weighted.map_in(&free, req, &strategy), want, "{context}");
                let before = cache.score_stats();
                let probed = weighted.map_scored(&free, req, &strategy, &mut cache);
                assert_eq!(probed, want, "{context}, map_scored");
                let cached = weighted.map_cached(&free, req, &strategy, &mut cache);
                assert_eq!(cached, want, "{context}, map_cached");
                let after = cache.score_stats();
                lookups += [GED, REFINE]
                    .map(|t| after[t].hits + after[t].misses - before[t].hits - before[t].misses)
                    .iter()
                    .sum::<u64>();
                placed[kind] += usize::from(want.is_ok());
                inexact += usize::from(kind == 2 && want.is_ok_and(|m| m.edit_distance() > 0));
            }
        }
        println!(
            "weighted-chip campaign: 384 free sets x three strategy kinds, weighted chips \
             identical to their plain twins under map_in, map_scored and map_cached; placed \
             {} straightforward, {} exact-only and {} similar-topology, {inexact} of those \
             at a nonzero distance; {lookups} GED and REFINE lookups on weighted chips",
            placed[0], placed[1], placed[2]
        );
        assert!(placed.iter().all(|&n| n > 0), "a kind never placed");
        assert!(inexact > 0, "no search scored its candidates");
        assert!(
            lookups > 0,
            "the weighted chips made no GED or REFINE lookup"
        );
    }

    #[test]
    fn map_scored_shares_the_score_memo_and_leaves_the_entries_alone() {
        use super::reference::{random_free_set, CAMPAIGN_CAPS};
        use crate::testing::Rng;

        // One cache, probed and placed through in turn, as a cluster's
        // advisory probes and placements share its placement cache.
        let (physicals, requests) = (annotated_physicals(), annotated_requests());
        let mut cache = MappingCache::default();
        // Probes that moved the score memo, and those that hit it.
        let (mut moved, mut hit) = (0, 0);
        let mut rng = Rng(0x5EED_6103);
        for case in 0..512 {
            let phys = &physicals[case % physicals.len()];
            let mapper = Mapper::new(phys);
            let free = random_free_set(phys, &mut rng, case / 4 % 2 == 1, case / 8 % 2 == 1);
            let fitting: Vec<&Topology> = requests
                .iter()
                .filter(|r| r.node_count() <= free.free_count())
                .collect();
            if fitting.is_empty() {
                continue;
            }
            let req = fitting[rng.below(fitting.len())];
            let cap = CAMPAIGN_CAPS[rng.below(CAMPAIGN_CAPS.len())];
            let strategy = Strategy::similar_topology().candidate_cap(cap);
            let want = mapper.map_in(&free, req, &strategy);
            let context = format!("case {case}: {}-node request", req.node_count());
            if case % 2 == 0 {
                let got = mapper.map_cached(&free, req, &strategy, &mut cache);
                assert_eq!(got, want, "{context}, placed");
                continue;
            }
            let (stats, entries, scores) = (cache.stats(), cache.len(), cache.score_stats());
            let got = mapper.map_scored(&free, req, &strategy, &mut cache);
            assert_eq!(got, want, "{context}, probed");
            assert_eq!(
                cache.stats(),
                stats,
                "{context}: a probe counted as a lookup"
            );
            assert_eq!(cache.len(), entries, "{context}: a probe stored an entry");
            let after = cache.score_stats();
            let lookups =
                |s: &[crate::CacheStats; 5]| s.iter().map(|t| t.hits + t.misses).sum::<u64>();
            moved += usize::from(lookups(&after) > lookups(&scores));
            hit += usize::from(after.iter().zip(&scores).any(|(a, b)| a.hits > b.hits));
        }
        println!(
            "map_scored sharing: 512 free sets, placements and probes in turn through one \
             cache, 0 mismatches; {moved} probes looked candidates up in the score memo, \
             {hit} of them hit it; {} entries, all stored by placements",
            cache.len()
        );
        assert!(moved > 0 && hit > 0, "the probes never used the score memo");
        assert_eq!(
            cache.len() as u64,
            cache.stats().insertions - cache.stats().evictions
        );
    }

    #[test]
    fn requests_past_192_nodes_are_refused_before_any_search() {
        // A 193-node request on an idle 14x14 chip fits its free cores,
        // but its kernel rows would take a fourth word. Every strategy
        // kind refuses it at entry: before the free count is read (a chip
        // with nothing free refuses it the same way), before a candidate
        // is enumerated or looked up in the score memo, and before a
        // placement-cache key is built, looked up or stored.
        let phys = Topology::mesh2d(14, 14);
        let mapper = Mapper::new(&phys);
        let (idle, req) = (FreeSet::all_free(196), Topology::line(193));
        let error = TopoError::RequestTooLarge { nodes: 193 };
        let refused = Err(error.clone());
        let mut cache = MappingCache::default();
        for strategy in [
            Strategy::straightforward(),
            Strategy::exact_only(),
            Strategy::similar_topology(),
        ] {
            assert_eq!(mapper.map_in(&idle, &req, &strategy), refused);
            assert_eq!(mapper.map(&[], &req, &strategy), refused);
            assert_eq!(
                mapper.map_scored(&idle, &req, &strategy, &mut cache),
                refused
            );
            assert_eq!(
                mapper.map_cached(&idle, &req, &strategy, &mut cache),
                refused
            );
        }
        assert_eq!(cache.score_stats(), [crate::CacheStats::default(); 5]);
        assert_eq!(cache.stats(), crate::CacheStats::default());
        assert_eq!(cache.len(), 0);
        assert_eq!(
            error.to_string(),
            "a request of 193 nodes is past the 192 a mapper takes"
        );
        // 192 nodes is the widest a search scores and refines.
        let widest = Topology::line(192);
        let strategy = Strategy::similar_topology().candidate_cap(2);
        let m = mapper.map_in(&idle, &widest, &strategy).unwrap();
        assert_eq!(m.phys_nodes().len(), 192);
        assert!(m.is_connected() && m.edit_distance() > 0);
        let zig_zag = mapper.map_in(&idle, &widest, &Strategy::straightforward());
        assert!(zig_zag.unwrap().edit_distance() >= m.edit_distance());
    }

    #[test]
    fn with_phys_key_matches_new() {
        let phys = Topology::mesh2d(3, 3);
        let from_new = Mapper::new(&phys);
        let precomputed = Mapper::with_phys_key(&phys, crate::cache::labeled_hash(&phys));
        assert_eq!(from_new.phys_key, precomputed.phys_key);
    }

    #[test]
    fn straightforward_takes_lowest_ids() {
        let phys = Topology::mesh2d(5, 5);
        let req = Topology::mesh2d(2, 2);
        let free = free_except(&phys, &[0, 1]);
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::straightforward())
            .unwrap();
        assert_eq!(
            m.phys_nodes(),
            &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)]
        );
    }

    #[test]
    fn exact_mesh_fast_path() {
        let phys = Topology::mesh2d(5, 5);
        let req = Topology::mesh2d(3, 3);
        let free: Vec<NodeId> = phys.nodes().collect();
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::exact_only())
            .unwrap();
        assert_eq!(m.edit_distance(), 0);
        assert!(m.is_connected());
        // mapping must be a valid isomorphism: adjacent virtual nodes map to
        // adjacent physical nodes
        for (a, b, _) in req.edges() {
            assert!(phys.has_edge(m.phys_nodes()[a.index()], m.phys_nodes()[b.index()]));
        }
    }

    #[test]
    fn topology_lock_in_reproduced() {
        // Paper §4.3: 5x5 mesh, two 3x3 requests. Exact-only can satisfy only
        // one; similar-topology satisfies both.
        let phys = Topology::mesh2d(5, 5);
        let req = Topology::mesh2d(3, 3);
        let all: Vec<NodeId> = phys.nodes().collect();
        let mapper = Mapper::new(&phys);

        let first = mapper.map(&all, &req, &Strategy::exact_only()).unwrap();
        let free: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|n| !first.phys_nodes().contains(n))
            .collect();
        assert_eq!(free.len(), 16);
        // Exact fails: lock-in.
        assert_eq!(
            mapper.map(&free, &req, &Strategy::exact_only()),
            Err(TopoError::NoCandidate)
        );
        // Similar topology succeeds with a small positive edit distance.
        let second = mapper
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        assert_eq!(second.phys_nodes().len(), 9);
        assert!(second.edit_distance() > 0);
        assert!(second.is_connected());
        // Its nodes must all be free ones.
        for n in second.phys_nodes() {
            assert!(free.contains(n));
        }
    }

    #[test]
    fn similar_prefers_exact_when_available() {
        let phys = Topology::mesh2d(4, 4);
        let req = Topology::mesh2d(2, 2);
        let free: Vec<NodeId> = phys.nodes().collect();
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        assert_eq!(m.edit_distance(), 0);
    }

    #[test]
    fn insufficient_nodes_error() {
        let phys = Topology::mesh2d(2, 2);
        let req = Topology::mesh2d(3, 3);
        let free: Vec<NodeId> = phys.nodes().collect();
        assert!(matches!(
            Mapper::new(&phys).map(&free, &req, &Strategy::similar_topology()),
            Err(TopoError::InsufficientNodes {
                requested: 9,
                available: 4
            })
        ));
    }

    #[test]
    fn mapping_is_injective() {
        let phys = Topology::mesh2d(5, 5);
        let req = Topology::line(6);
        let free = free_except(&phys, &[6, 7, 8, 11, 12, 13]);
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        let mut seen = HashSet::new();
        for n in m.phys_nodes() {
            assert!(seen.insert(*n), "physical node {n} assigned twice");
        }
    }

    #[test]
    fn disconnected_free_region_needs_fragmentation_mode() {
        // Free nodes form two islands of 2; request a 4-line.
        let phys = Topology::mesh2d(3, 3);
        let free = vec![NodeId(0), NodeId(1), NodeId(7), NodeId(8)];
        let req = Topology::line(4);
        let mapper = Mapper::new(&phys);
        assert_eq!(
            mapper.map(&free, &req, &Strategy::similar_topology()),
            Err(TopoError::NoCandidate)
        );
        let m = mapper
            .map(
                &free,
                &req,
                &Strategy::similar_topology().allow_disconnected(true),
            )
            .unwrap();
        assert!(!m.is_connected());
        assert_eq!(m.phys_nodes().len(), 4);
    }

    #[test]
    fn zero_node_request() {
        let phys = Topology::mesh2d(2, 2);
        let req = Topology::empty(0);
        let free: Vec<NodeId> = phys.nodes().collect();
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        assert!(m.phys_nodes().is_empty());
    }

    #[test]
    fn similar_beats_straightforward_on_distance() {
        // Occupy a snake so that low-ID free cells are badly shaped.
        let phys = Topology::mesh2d(5, 5);
        let taken = [0u32, 2, 4, 10, 12, 14, 20, 22, 24];
        let free = free_except(&phys, &taken);
        let req = Topology::mesh2d(2, 2);
        let mapper = Mapper::new(&phys);
        let s = mapper
            .map(&free, &req, &Strategy::straightforward())
            .unwrap();
        let t = mapper
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        assert!(
            t.edit_distance() <= s.edit_distance(),
            "similar ({}) must not lose to straightforward ({})",
            t.edit_distance(),
            s.edit_distance()
        );
    }

    #[test]
    fn policy_presets_match_figure10() {
        // Performance-first = exact or fail; utilization-first = always
        // place when nodes exist, even disconnected.
        let phys = Topology::mesh2d(3, 3);
        // Fragmented free set: the four corners.
        let free = vec![NodeId(0), NodeId(2), NodeId(6), NodeId(8)];
        let req = Topology::mesh2d(2, 2);
        let mapper = Mapper::new(&phys);
        assert!(mapper.map(&free, &req, &Strategy::exact_only()).is_err());
        let m = mapper
            .map(
                &free,
                &req,
                &Strategy::similar_topology().allow_disconnected(true),
            )
            .unwrap();
        assert_eq!(m.phys_nodes().len(), 4);
        assert!(!m.is_connected());
    }

    #[test]
    fn chain_requests_embed_as_snakes() {
        // A 12-chain onto an idle 4x3 mesh: the serpentine seed + 2-opt
        // must keep every chain edge on a mesh edge (edit distance =
        // only the mesh's surplus edges).
        let phys = Topology::mesh2d(4, 3);
        let req = Topology::line(12);
        let free: Vec<NodeId> = phys.nodes().collect();
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::similar_topology())
            .unwrap();
        // Every consecutive pair must be physically adjacent.
        for w in m.phys_nodes().windows(2) {
            assert!(
                phys.has_edge(w[0], w[1]),
                "chain neighbors {}-{} not adjacent",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn transposed_rectangle_found() {
        // Only a vertical 1x3 strip is free; request a horizontal 3x1.
        let phys = Topology::mesh2d(3, 3);
        let free = vec![NodeId(1), NodeId(4), NodeId(7)];
        let req = Topology::mesh2d(3, 1);
        let m = Mapper::new(&phys)
            .map(&free, &req, &Strategy::exact_only())
            .unwrap();
        assert_eq!(m.edit_distance(), 0);
    }

    #[test]
    fn exact_only_search_honours_the_candidate_cap() {
        // 3x2 mesh with node 2 taken: the only claw (centre 4, leaves 1, 3
        // and 5) is not the first candidate visited (that is the 4-cycle
        // {0, 1, 3, 4}), and a `from_edges` request has no mesh shape, so
        // the rectangle fast path is out of play.
        let phys = Topology::mesh2d(3, 2);
        let free = free_except(&phys, &[2]);
        let claw = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(claw.mesh_shape().is_none());
        let mapper = Mapper::new(&phys);
        let m = mapper.map(&free, &claw, &Strategy::exact_only()).unwrap();
        assert_eq!(m.edit_distance(), 0);
        assert_eq!(m.phys_nodes()[0], NodeId(4));
        assert_eq!(
            mapper.map(&free, &claw, &Strategy::exact_only().candidate_cap(1)),
            Err(TopoError::NoCandidate)
        );
    }
}
