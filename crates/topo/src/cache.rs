//! Incremental free-set tracking and mapping memoization for the online
//! serving regime.
//!
//! Under churn the hypervisor calls [`crate::mapping::Mapper::map`] for
//! every arriving virtual-NPU request, and the expensive steps — candidate
//! enumeration (Algorithm 1, lines 20–29) and GED scoring (lines 30–32) —
//! depend only on *(request topology, current free region)*. Serving
//! traffic repeats both: tenants ask for a handful of popular shapes, and
//! the free region revisits the same configurations as vNPUs come and go.
//! This module exploits that:
//!
//! * [`FreeSet`] — the free-core region as an incrementally-maintained
//!   membership mask with an O(delta) XOR fingerprint, so per-request
//!   mapping no longer rebuilds an O(cores) mask and the region's identity
//!   is a single `u64`; and [`FreeSet::free_regions`], the flood fill over
//!   the topology's neighbour bit rows that counts a free region's
//!   connected components and sizes the largest without allocating (the
//!   fragmentation picture admission and defragmentation read).
//! * [`MappingCache`] — a bounded memo table keyed by `(labeled chip
//!   hash, reconfig generation, labeled request hash, strategy, free-region
//!   fingerprint, free count)` holding complete mapping results (including
//!   `NoCandidate` failures, which are the *most* expensive outcome: they
//!   require an exhaustion proof over the candidate space).
//!
//! A hit returns a placement byte-identical to what the uncached strategy
//! would produce on the same free set — the key includes a *label- and
//! attribute-sensitive* request hash precisely so two isomorphic but
//! differently-numbered requests can never alias (their virtual→physical
//! assignments differ even when their canonical keys agree), and neither
//! can two structurally-identical requests whose node kinds or edge costs
//! (and therefore edit costs) differ, nor a mesh and its mesh-less twin
//! (the mapper reads mesh shapes). Each input is in the key once: the
//! strategy whole, and no canonical key, which the labeled hash already
//! decides. As a final guard, a hit is only
//! trusted after every physical node of the cached placement is
//! re-checked against the *current* free set, so a 64-bit fingerprint
//! collision degrades to a cache miss instead of a silently
//! double-allocated core.
//!
//! Each `MappingCache` also holds a second, finer memo — the **score
//! memo** — which a placement-cache miss, and an advisory probe
//! ([`crate::Mapper::map_scored`]), consults for every candidate its
//! search visits. Its five tables hold pure functions of a candidate's
//! view — its kinds and neighbour bit rows in sorted-cell order, which
//! the walk reads once from its cells (`mapping::neighbour_rows`):
//!
//! * [`CLASS`] — the view's canonical key (`canonical::key_of`), the
//!   walk's dedup key;
//! * [`ISO`] — `canonical::find_isomorphism(req, view)`, the exact-match
//!   check of the rectangle fast path and of the walk;
//! * [`GED`] — the edit distance from `req` to the view:
//!   `ged::StockRefiner::exact` up to 8 nodes, `ged::StockRefiner::bipartite`
//!   above;
//! * `ASSIGN` — on a [`GED`] miss above 8 nodes, the bipartite
//!   heuristic's Hungarian assignment (`ged::StockRefiner::assignment`),
//!   which the kernel then prices on the candidate's own rows;
//! * [`REFINE`] — `ged::StockRefiner::refine` of `start`, 8 passes.
//!
//! The assignment reads only each candidate node's kind and degree, so
//! `ASSIGN` is keyed by those, six bits a node under a sentinel bit, not
//! by the structure: candidates of different structure that agree on them
//! node by node share an entry (a seed-29 `churn_1chip` pass makes 2 070
//! bipartite runs over as many structures, but only 1 376 distinct
//! assignment inputs). The other four are keyed by the candidate's
//! **structure**: a `u128` of its node kinds and upper-triangle adjacency
//! under a sentinel bit that fixes the node count, packed from the view's
//! rows (`SearchMemo::structure`) for at most 12 nodes. The structure is
//! the whole view, so it is exact for what each table holds; it drops
//! edge costs, which the view never holds, so translates of a candidate
//! on the mesh share entries and the tables serve every chip (the
//! kernels read a candidate's kinds and edges, never its edge costs).
//! The request is interned by its `encoding` — node count, kinds and
//! edges with costs, the words [`labeled_hash`] hashes after the mesh
//! shape — compared for equality; its mesh shape, which no table's
//! kernel reads, is left out.
//!
//! The hashed tables (`ISO`, `GED`, `ASSIGN`, `REFINE`: 32 B an entry)
//! are bounded and cleared whole when full. The class table sees a lookup per visited
//! candidate — about 34 000 a 4 000-tick `churn_1chip` round, over about
//! 4 700 distinct structures — so it is a fixed array of
//! `[structure, packed class]` slots, 16 B each, **4-way
//! set-associative**: a structure of at most nine nodes (one word, as is
//! its exact class) goes to the front of the set of four slots its hash
//! picks, over the set's least recently used entry, and a hit moves its
//! slot to the front. Direct-mapped, the same slots missed 10 540 of a
//! seed-29 round's 34 226 lookups, 5 885 of them past a structure's first
//! (conflicts); four ways miss 7 195 times. A growing `HashMap` in its
//! place read `churn_1chip`'s `peak_rss_mib` +9.2% with only 136 KB more
//! live heap: glibc's dynamic mmap threshold turns small heap growth into
//! resident pages. A table of 4 096 slots from the first lookup read
//! +0.3% there but +5.1% on `reconfig_storm`, whose cluster then kept five
//! score memos: its placement cache's and a hint cache's per chip, two of
//! them 4x4 chips' that missed a few hundred times a round (advisory
//! probes now search the placement cache's memo). So a table starts at
//! 512 slots and is reallocated, empty, at 4 096 once it has missed 512
//! times; then `reconfig_storm` read +4.4% and `churn_1chip` +0.3%. Every
//! entry is exact, so a hit returns what the kernel would, and what a
//! table holds depends on nothing but the run's inputs.

use crate::canonical::CanonicalKey;
use crate::ged::{self, GedResult, Row};
use crate::mapping::{Mapping, Strategy};
use crate::{NodeId, NodeKind, Result, Topology};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Default bound on live [`MappingCache`] entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 4_096;

/// The free region of a physical topology, maintained incrementally.
///
/// `occupy`/`release` are O(1) per node; the fingerprint is the XOR of a
/// per-node mix, so it is order-independent and updates in O(delta) — the
/// "incremental free-set delta" interface the mapper consumes instead of
/// rebuilding its occupancy mask from a node list on every request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreeSet {
    is_free: Vec<bool>,
    free_count: usize,
    fingerprint: u64,
}

/// SplitMix64 finalizer: decorrelates node indices before XOR-folding.
pub(crate) fn mix(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FreeSet {
    /// A fully-free set over `n` nodes.
    pub fn all_free(n: usize) -> Self {
        let mut fingerprint = 0;
        for i in 0..n {
            fingerprint ^= mix(i as u64);
        }
        FreeSet {
            is_free: vec![true; n],
            free_count: n,
            fingerprint,
        }
    }

    /// A fully-occupied set over `n` nodes.
    pub fn all_occupied(n: usize) -> Self {
        FreeSet {
            is_free: vec![false; n],
            free_count: 0,
            fingerprint: 0,
        }
    }

    /// Builds a set over `n` nodes with exactly `free` free (duplicates
    /// ignored; out-of-range nodes ignored).
    pub fn from_free_nodes(n: usize, free: &[NodeId]) -> Self {
        let mut s = Self::all_occupied(n);
        for &f in free {
            s.release(f);
        }
        s
    }

    /// Number of tracked nodes (free or not).
    pub fn capacity(&self) -> usize {
        self.is_free.len()
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Whether `n` is currently free.
    pub fn contains(&self, n: NodeId) -> bool {
        self.is_free.get(n.index()).copied().unwrap_or(false)
    }

    /// Marks `n` occupied. Returns `false` (and changes nothing) when it
    /// already was, or is out of range.
    pub fn occupy(&mut self, n: NodeId) -> bool {
        match self.is_free.get_mut(n.index()) {
            Some(f) if *f => {
                *f = false;
                self.free_count -= 1;
                self.fingerprint ^= mix(n.0 as u64);
                true
            }
            _ => false,
        }
    }

    /// Marks `n` free. Returns `false` (and changes nothing) when it
    /// already was, or is out of range.
    pub fn release(&mut self, n: NodeId) -> bool {
        match self.is_free.get_mut(n.index()) {
            Some(f) if !*f => {
                *f = true;
                self.free_count += 1;
                self.fingerprint ^= mix(n.0 as u64);
                true
            }
            _ => false,
        }
    }

    /// A copy of this set with `nodes` additionally free — the
    /// *remap-under-pin* region: when re-placing a live tenant, its own
    /// current cores count as available (it vacates them by moving), so a
    /// migration planner maps the tenant's topology against
    /// `free.with_released(own_cores)`. Already-free nodes are ignored, so
    /// the widened set's fingerprint stays consistent with its membership.
    pub fn with_released(&self, nodes: &[NodeId]) -> FreeSet {
        let mut widened = self.clone();
        widened.release_all(nodes);
        widened
    }

    /// Occupies every node in `nodes` (already-occupied ones are ignored).
    pub fn occupy_all(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.occupy(n);
        }
    }

    /// Releases every node in `nodes` (already-free ones are ignored).
    pub fn release_all(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            self.release(n);
        }
    }

    /// The membership mask, indexed by node id.
    pub fn mask(&self) -> &[bool] {
        &self.is_free
    }

    /// Free nodes in ascending id order (allocates).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.is_free
            .iter()
            .enumerate()
            .filter_map(|(i, &f)| f.then_some(NodeId(i as u32)))
            .collect()
    }

    /// Order-independent identity of the free region. Two `FreeSet`s over
    /// the same topology with equal fingerprints and equal counts hold the
    /// same nodes (up to negligible 64-bit collision probability).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `(components, largest)`: the number of connected components of the
    /// subgraph of `topo` induced by the free nodes, and the node count of
    /// the largest (`(0, 0)` when nothing is free). A flood fill over a
    /// word mask of the nodes not yet reached: a component is seeded at the
    /// lowest such node, and each node taken from its frontier moves its
    /// unreached neighbours, a word of its neighbour row at a time, from
    /// the mask into the frontier. The two masks live on the stack for
    /// chips of at most 64 nodes; a larger chip allocates them once a call.
    ///
    /// # Panics
    ///
    /// Panics when this set tracks a different node count than `topo`.
    pub fn free_regions(&self, topo: &Topology) -> (usize, usize) {
        assert_eq!(
            self.capacity(),
            topo.node_count(),
            "free set sized for a different topology"
        );
        let w = topo.node_count().div_ceil(64);
        let mut inline = [0u64; 2];
        let mut spill = vec![0u64; if w > 1 { 2 * w } else { 0 }];
        let masks = if w > 1 {
            &mut spill[..]
        } else {
            &mut inline[..2 * w]
        };
        let (unreached, frontier) = masks.split_at_mut(w);
        for (i, _) in self.is_free.iter().enumerate().filter(|(_, &f)| f) {
            unreached[i / 64] |= 1 << (i % 64);
        }
        let (mut components, mut largest) = (0, 0);
        while let Some(seed) = take_lowest(unreached) {
            frontier[seed / 64] |= 1 << (seed % 64);
            let mut size = 0;
            while let Some(u) = take_lowest(frontier) {
                size += 1;
                let row = topo.row(NodeId(u as u32));
                for ((left, next), &adj) in unreached.iter_mut().zip(frontier.iter_mut()).zip(row) {
                    *next |= adj & *left;
                    *left &= !adj;
                }
            }
            components += 1;
            largest = largest.max(size);
        }
        (components, largest)
    }
}

/// Clears and returns the lowest set bit of `mask`.
pub(crate) fn take_lowest(mask: &mut [u64]) -> Option<usize> {
    let (i, word) = mask.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
    let bit = word.trailing_zeros() as usize;
    *word &= *word - 1;
    Some(i * 64 + bit)
}

/// Key of one memoized mapping attempt: each input the mapper reads,
/// once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`labeled_hash`] of the *physical* topology, so one cache shared
    /// across chips never aliases their entries.
    phys: u64,
    /// The chip's reconfiguration generation. Core scaling
    /// (`set_core_scales`) and fault transitions bump it, so every entry
    /// cached before them expires.
    generation: u64,
    /// [`labeled_hash`] of the request (mesh shape, kinds in node order,
    /// edges with costs ascending), so neither isomorphic-but-relabeled
    /// requests nor cost-only or mesh-only variants ever alias.
    labeled: u64,
    /// The strategy, every knob of it: kind, candidate cap and
    /// disconnected mode.
    strategy: Strategy,
    /// Free-region fingerprint.
    free: u64,
    /// Free-region count.
    free_count: usize,
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the full mapping pipeline.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over total cacheable lookups, in `[0, 1]`; 0 when idle.
    /// Saturating, so counters pinned at the `u64` ceiling still yield a
    /// rate in range.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded memo table for complete mapping results — the one cache
/// type in the workspace: a cluster's shared placement cache and a bare
/// hypervisor's own cache are plain, exclusively borrowed `MappingCache`s
/// (no lock, no shards; the serve tick is single-threaded). A cluster's
/// advisory probes search through its placement cache's score memo
/// ([`crate::Mapper::map_scored`]) and leave the entries and
/// [`MappingCache::stats`] alone, so a cluster keeps one score memo.
///
/// Both successful [`Mapping`]s and mapping errors (notably
/// [`crate::TopoError::NoCandidate`], whose exhaustion proof is the most
/// expensive outcome of Algorithm 1) are stored. Eviction is FIFO by
/// insertion order — under serving churn the working set is small and
/// recency tracking is not worth a per-hit write.
#[derive(Debug)]
pub struct MappingCache {
    entries: HashMap<CacheKey, Result<Mapping>>,
    order: std::collections::VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
    /// Kernel results of the searches this cache's misses ran (see the
    /// module doc).
    pub(crate) score: ScoreMemo,
}

impl Default for MappingCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl MappingCache {
    /// Creates a cache bounded to `capacity` entries (at least one).
    pub fn with_capacity(capacity: usize) -> Self {
        MappingCache {
            entries: HashMap::new(),
            order: std::collections::VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
            score: ScoreMemo::default(),
        }
    }

    /// The key of a `(physical chip, reconfig generation, request,
    /// strategy, free-region)` tuple. `phys_key` is the physical
    /// topology's [`labeled_hash`] — [`crate::Mapper`] precomputes it;
    /// `generation` is the chip's reconfiguration counter (see
    /// [`CacheKey`]). It reads no cache state and cannot fail.
    pub(crate) fn key_for(
        phys_key: u64,
        generation: u64,
        req: &Topology,
        strategy: &Strategy,
        free: &FreeSet,
    ) -> CacheKey {
        CacheKey {
            phys: phys_key,
            generation,
            labeled: labeled_hash(req),
            strategy: strategy.clone(),
            free: free.fingerprint(),
            free_count: free.free_count(),
        }
    }

    /// Looks up a memoized result, validating any cached *placement*
    /// against the current free set.
    ///
    /// The free-region fingerprint in the key is a 64-bit XOR fold: a
    /// collision is negligible per lookup but its failure mode — handing
    /// out a placement over cores that are actually occupied, which the
    /// hypervisor would then silently double-allocate — is state
    /// corruption, not just a wrong score. So a successful mapping is
    /// only returned when every one of its physical nodes is still free
    /// (O(k) bitmask probes); a mismatch is treated as a miss, and the
    /// recomputed result overwrites the colliding entry.
    pub(crate) fn get(&mut self, key: &CacheKey, free: &FreeSet) -> Option<Result<Mapping>> {
        match self.entries.get(key) {
            Some(Ok(m)) if !m.phys_nodes().iter().all(|&n| free.contains(n)) => {
                self.stats.misses += 1;
                None
            }
            Some(r) => {
                self.stats.hits += 1;
                Some(r.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes a result. Eviction is FIFO and *batched*: when a new key
    /// finds the table full, the oldest entries are drained in one pass so
    /// that the table, the new entry included, holds a low-water mark
    /// (`capacity - max(1, capacity/8)`), so the amortized per-insert
    /// eviction cost is O(1). Draining *before* the push keeps
    /// `len() <= capacity` throughout, so the FIFO never outgrows
    /// `capacity` keys.
    pub(crate) fn insert(&mut self, key: CacheKey, result: Result<Mapping>) {
        if let Some(slot) = self.entries.get_mut(&key) {
            *slot = result;
            return;
        }
        if self.entries.len() >= self.capacity {
            let low_water = (self.capacity - (self.capacity / 8).max(1)).max(1);
            while self.entries.len() >= low_water {
                let old = self.order.pop_front().expect("the FIFO holds every key");
                self.entries.remove(&old);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key.clone(), result);
        self.order.push_back(key);
        self.stats.insertions += 1;
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Bound on the entries of each score-memo table; reaching it clears the
/// table. 7/8 of 4 096 buckets, so a full table never regrows.
const SCORE_MEMO_CAPACITY: usize = 3_584;

/// Largest candidate a structure describes: 66 adjacency bits, 24 kind
/// bits and the sentinel at bit 90, under a request id at bit 96.
const STRUCTURE_MAX_NODES: usize = 12;

/// The class table's slots, 16 B each: 512 from the first lookup, then,
/// reallocated empty once 512 lookups have missed, 4 096 — so a cache
/// that searches little stays small.
const CLASS_SLOTS: [usize; 2] = [512, 4_096];

/// Slots per set of the class table, most recently used first.
const CLASS_WAYS: usize = 4;

/// The score-memo table of a candidate's edit distance
/// (`ged::StockRefiner::exact` or `ged::StockRefiner::bipartite`).
pub const GED: usize = 0;
/// The score-memo table of `ged::StockRefiner::refine(.., start, 8)`.
pub const REFINE: usize = 1;
/// The score-memo table of `canonical::find_isomorphism(req, view)`, a
/// candidate's view its kinds and neighbour rows.
pub const ISO: usize = 2;
/// The score-memo table of `ged::StockRefiner::assignment`, keyed by the
/// candidate's kinds and degrees, not its structure.
pub(crate) const ASSIGN: usize = 3;
/// The score-memo table of a candidate view's canonical key
/// (`canonical::key_of(view)`).
pub const CLASS: usize = 4;

/// The score memo of a [`MappingCache`] (see the module doc). A result is
/// one word ([`SearchMemo::score`], [`SearchMemo::iso`],
/// [`SearchMemo::assignment`]), so an entry of a hashed table is 32 B.
#[derive(Debug, Default)]
pub(crate) struct ScoreMemo {
    /// Request key (node count, kinds, edges with costs) → request id.
    requests: HashMap<Vec<u64>, u32>,
    /// The request key of the latest search, refilled in place.
    key: Vec<u64>,
    /// Tables [`GED`], [`REFINE`], [`ISO`] and [`ASSIGN`]: (request id
    /// and candidate key, packed start mapping) → result word.
    tables: [HashMap<[u64; 3], u64>; 4],
    /// The [`CLASS`] table: `[structure, packed class]` slots in sets of
    /// [`CLASS_WAYS`], a zero structure marking an empty one; none before
    /// the first lookup (see [`CLASS_SLOTS`]).
    class: Vec<[u64; 2]>,
    stats: [CacheStats; 5],
}

/// A [`ScoreMemo`] bound to one search's request — or unbound, when the
/// search has no memo to use, and then every call runs its kernel.
pub(crate) struct SearchMemo<'a> {
    /// The memo and the request's id in it.
    memo: Option<(&'a mut ScoreMemo, u32)>,
    /// The request's node count, which every candidate shares (R-1).
    n: usize,
}

impl<'a> SearchMemo<'a> {
    /// Binds `memo` to a search for `req`, interning the request; unbound
    /// without a memo or when `req` is too large for a structure.
    pub(crate) fn new(memo: Option<&'a mut ScoreMemo>, req: &Topology) -> Self {
        let n = req.node_count();
        let memo = memo.filter(|_| n <= STRUCTURE_MAX_NODES).map(|memo| {
            memo.key.clear();
            memo.key.extend(encoding(req));
            let known = memo.requests.get(memo.key.as_slice()).copied();
            if known.is_none() && memo.requests.len() >= SCORE_MEMO_CAPACITY {
                // Ids restart, so every entry keyed by an old id goes too.
                memo.requests.clear();
                memo.tables = Default::default();
            }
            let next = memo.requests.len() as u32;
            let id =
                known.unwrap_or_else(|| *memo.requests.entry(memo.key.clone()).or_insert(next));
            (memo, id)
        });
        SearchMemo { memo, n }
    }

    /// The structure of the candidate of view `(kinds, rows)`, or `None`
    /// when unbound: a sentinel bit over its kinds over its upper-triangle
    /// adjacency, row-major — everything the view holds.
    pub(crate) fn structure<const W: usize>(
        &self,
        (kinds, rows): &(Vec<NodeKind>, Vec<Row<W>>),
    ) -> Option<u128> {
        self.memo.as_ref()?;
        let n = rows.len();
        debug_assert!(n == self.n, "R-1");
        let pairs = n * n.saturating_sub(1) / 2;
        let mut structure = 1 << (pairs + 2 * n);
        for (i, (&kind, row)) in kinds.iter().zip(rows).enumerate() {
            structure |= (kind as u128) << (pairs + 2 * i);
            // Row i's pairs (i, j > i), row-major in the upper triangle.
            structure |= u128::from(row[0] >> (i + 1)) << (i * (2 * n - i - 1) / 2);
        }
        Some(structure)
    }

    /// The canonical key of the candidate of `structure`: the [`CLASS`]
    /// table's, or else what `key` returns, stored for a structure of at
    /// most nine nodes (one word) at the front of the set its hash picks,
    /// over the set's least recently used slot. A hit moves its slot to
    /// the front.
    pub(crate) fn class(
        &mut self,
        structure: Option<u128>,
        key: impl FnOnce() -> CanonicalKey,
    ) -> CanonicalKey {
        let structure = structure.and_then(|s| u64::try_from(s).ok());
        let (Some((memo, _)), Some(structure)) = (self.memo.as_mut(), structure) else {
            return key();
        };
        let slots = CLASS_SLOTS[usize::from(memo.stats[CLASS].misses >= CLASS_SLOTS[0] as u64)];
        if memo.class.len() < slots {
            memo.class = vec![[0; 2]; slots];
        }
        let set = mix(structure) as usize % (slots / CLASS_WAYS) * CLASS_WAYS;
        let set = &mut memo.class[set..set + CLASS_WAYS];
        let stats = &mut memo.stats[CLASS];
        if let Some(way) = set.iter().position(|slot| slot[0] == structure) {
            stats.hits += 1;
            set[..=way].rotate_right(1);
            return CanonicalKey::unpack(set[0][1]);
        }
        stats.misses += 1;
        let key = key();
        if let Some(class) = key.pack() {
            stats.evictions += u64::from(set[CLASS_WAYS - 1][0] != 0);
            stats.insertions += 1;
            set.rotate_right(1);
            set[0] = [structure, class];
        }
        key
    }

    /// `find_isomorphism(req, view)` for the candidate of `structure`: the
    /// [`ISO`] table's, or else what `find` returns, stored — a failed
    /// search as the all-deleted mapping, which no isomorphism is.
    pub(crate) fn iso(
        &mut self,
        structure: Option<u128>,
        find: impl FnOnce() -> Option<Vec<NodeId>>,
    ) -> Option<Vec<NodeId>> {
        let n = self.n;
        let encode = |iso: &Option<Vec<_>>| Some(pack((0..n).map(|i| iso.as_ref().map(|m| m[i]))));
        let decode = |word| unpack(word, n).collect();
        self.memoized(ISO, structure, 0, |_| find(), encode, decode)
    }

    /// Kernel `table`'s result for the candidate of `structure` from
    /// `start` (empty for [`GED`]): the stored one, or else what `kernel`
    /// returns, stored as one word — the packed mapping in bits 0..48, the
    /// exact flag at bit 48 and the cost above it. A cost past those 15
    /// bits is not stored.
    pub(crate) fn score(
        &mut self,
        table: usize,
        structure: Option<u128>,
        start: &[Option<NodeId>],
        kernel: impl FnOnce(&mut Self) -> GedResult,
    ) -> GedResult {
        let n = self.n;
        let encode = |r: &GedResult| {
            let mapping = pack(r.mapping.iter().copied());
            (r.cost < 1 << 15).then(|| mapping | u64::from(r.exact) << 48 | r.cost << 49)
        };
        let decode = |word: u64| GedResult {
            cost: word >> 49,
            mapping: unpack(word, n).collect(),
            exact: word >> 48 & 1 == 1,
        };
        // A structure means a bound memo, so a request of at most 12 nodes.
        let start = structure.map_or(0, |_| pack(start.iter().copied()));
        self.memoized(table, structure, start, kernel, encode, decode)
    }

    /// `ged::StockRefiner::assignment` for the candidate of `kinds` and
    /// neighbour `rows`: the [`ASSIGN`] table's, or else what `solve`
    /// returns, stored as a packed mapping. The assignment reads only each
    /// candidate node's kind and degree, so they are the key: a sentinel
    /// bit over six bits a node, the kind over the degree, at most 73 bits
    /// at 12 nodes — computed only for a bound memo, whose request, and so
    /// every candidate (R-1), has no more (a degree then fits its four
    /// bits). Debug builds solve again and assert the same assignment.
    pub(crate) fn assignment<const W: usize>(
        &mut self,
        kinds: &[NodeKind],
        rows: &[Row<W>],
        solve: impl Fn() -> Vec<Option<NodeId>>,
    ) -> Vec<Option<NodeId>> {
        let n = self.n;
        let fields = kinds.iter().zip(rows);
        let key = self.memo.is_some().then(|| {
            debug_assert!(rows.len() <= STRUCTURE_MAX_NODES, "a bound memo's request");
            fields.fold(1, |key, (&kind, row)| {
                key << 6 | (kind as u128) << 4 | u128::from(ged::ones(row))
            })
        });
        let encode = |mapping: &Vec<_>| Some(pack(mapping.iter().copied()));
        let decode = |word| unpack(word, n).collect();
        let mapping = self.memoized(ASSIGN, key, 0, |_| solve(), encode, decode);
        debug_assert!(key.is_none() || mapping == solve());
        mapping
    }

    /// Hashed table `table`'s result for the candidate of key `candidate`
    /// (its structure, or for [`ASSIGN`] its kinds and degrees) and
    /// `extra`: the stored word decoded, or else what `compute` returns,
    /// stored when it encodes to a word. A full table is cleared first.
    /// `compute` gets the memo, so a kernel may look a part up in another
    /// table.
    fn memoized<T>(
        &mut self,
        table: usize,
        candidate: Option<u128>,
        extra: u64,
        compute: impl FnOnce(&mut Self) -> T,
        encode: impl FnOnce(&T) -> Option<u64>,
        decode: impl FnOnce(u64) -> T,
    ) -> T {
        let (Some((memo, id)), Some(candidate)) = (self.memo.as_mut(), candidate) else {
            return compute(self);
        };
        let key = u128::from(*id) << 96 | candidate;
        let key = [(key >> 64) as u64, key as u64, extra];
        if let Some(&word) = memo.tables[table].get(&key) {
            memo.stats[table].hits += 1;
            return decode(word);
        }
        memo.stats[table].misses += 1;
        let result = compute(self);
        let (memo, _) = self.memo.as_mut().expect("bound above");
        let (stats, table) = (&mut memo.stats[table], &mut memo.tables[table]);
        if let Some(word) = encode(&result) {
            if table.len() >= SCORE_MEMO_CAPACITY {
                stats.evictions += table.len() as u64;
                table.clear();
            }
            stats.insertions += 1;
            table.insert(key, word);
        }
        result
    }
}

/// A mapping of at most [`STRUCTURE_MAX_NODES`] nodes, a nibble each
/// (`0xF` = deleted).
fn pack(mapping: impl Iterator<Item = Option<NodeId>>) -> u64 {
    mapping.enumerate().fold(0, |packed, (i, m)| {
        packed | u64::from(m.map_or(0xF, |j| j.0)) << (4 * i)
    })
}

/// The first `n` nibbles of a [`pack`]ed mapping.
fn unpack(word: u64, n: usize) -> impl Iterator<Item = Option<NodeId>> {
    (0..n).map(move |i| {
        let nibble = (word >> (4 * i) & 0xF) as u32;
        (nibble != 0xF).then_some(NodeId(nibble))
    })
}

/// The one word encoding of a topology, from one `edges()` pass: the node
/// count, each node's kind, then each edge as `low << 32 | high` and its
/// cost, ascending. The score memo interns a request by it and
/// [`labeled_hash`] hashes it.
fn encoding(t: &Topology) -> impl Iterator<Item = u64> + '_ {
    let kinds = t.nodes().map(|v| t.node_attr(v).kind as u64);
    let edges = t
        .edges()
        .flat_map(|(a, b, attr)| [u64::from(a.0) << 32 | u64::from(b.0), attr.cost]);
    std::iter::once(t.node_count() as u64)
        .chain(kinds)
        .chain(edges)
}

/// Label- and attribute-sensitive topology hash: the mesh shape, then the
/// topology's `encoding` (node count, kinds, edges with costs).
/// Distinguishes relabelings that `canonical_key` deliberately identifies
/// — and, just as importantly, attribute-only variants: the edit costs
/// charge `EdgeAttr.cost` on edge edits, so two requests differing only
/// in edge costs (e.g. the traffic-scaled costs of a compiled workload's
/// communication topology) produce different mappings and must never
/// share a cache entry. The mesh shape is in it because the mapper reads
/// it (the rectangle fast path, of request and chip, and the serpentine
/// order of a mesh chip), so a mesh and its mesh-less twin map apart.
pub fn labeled_hash(t: &Topology) -> u64 {
    let mut h = DefaultHasher::new();
    t.mesh_shape().hash(&mut h);
    encoding(t).for_each(|word| h.write_u64(word));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapper;

    // The score memo's counters, which the memo campaigns in `mapping.rs`
    // hold a search behind `Mapper::map_cached` to, and the entry count.
    impl MappingCache {
        /// Live placement entries.
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }

        /// The score memo's counters per table, [`GED`], [`REFINE`], [`ISO`],
        /// [`ASSIGN`] then [`CLASS`]: lookups answered (`hits`), kernel runs (`misses`),
        /// results stored (`insertions`) and dropped by a clear or, in the
        /// class table, by a later key taking the slot (`evictions`). The memo
        /// campaigns read them; no report carries them.
        pub(crate) fn score_stats(&self) -> [CacheStats; 5] {
            self.score.stats
        }
    }

    #[test]
    fn fingerprint_is_order_independent_and_incremental() {
        let mut a = FreeSet::all_free(16);
        let mut b = FreeSet::all_free(16);
        a.occupy(NodeId(3));
        a.occupy(NodeId(7));
        b.occupy(NodeId(7));
        b.occupy(NodeId(3));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.free_count(), 14);
        // Round trip restores the original fingerprint.
        let pristine = FreeSet::all_free(16);
        a.release(NodeId(3));
        a.release(NodeId(7));
        assert_eq!(a, pristine);
    }

    #[test]
    fn from_free_nodes_matches_incremental_path() {
        let mut inc = FreeSet::all_free(9);
        inc.occupy_all(&[NodeId(0), NodeId(4), NodeId(8)]);
        let built = FreeSet::from_free_nodes(9, &[1, 2, 3, 5, 6, 7].map(NodeId));
        assert_eq!(inc, built);
    }

    #[test]
    fn occupy_release_are_idempotent_and_range_checked() {
        let mut s = FreeSet::all_free(4);
        assert!(s.occupy(NodeId(2)));
        assert!(!s.occupy(NodeId(2)), "double occupy is a no-op");
        assert!(!s.occupy(NodeId(99)), "out of range is a no-op");
        let fp = s.fingerprint();
        s.occupy(NodeId(2));
        assert_eq!(s.fingerprint(), fp);
        assert!(s.release(NodeId(2)));
        assert!(!s.release(NodeId(2)));
    }

    #[test]
    fn different_regions_different_fingerprint() {
        let mut a = FreeSet::all_free(25);
        let mut b = FreeSet::all_free(25);
        a.occupy(NodeId(0));
        b.occupy(NodeId(1));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn cache_hit_returns_identical_mapping() {
        let phys = Topology::mesh2d(5, 5);
        let mapper = Mapper::new(&phys);
        let req = Topology::mesh2d(2, 3);
        let mut free = FreeSet::all_free(25);
        free.occupy_all(&[NodeId(0), NodeId(6), NodeId(12)]);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::default();
        let first = mapper
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        let second = mapper
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // And identical to the uncached result on the same free set.
        let uncached = mapper.map_in(&free, &req, &strategy).unwrap();
        assert_eq!(first, uncached);
    }

    #[test]
    fn requests_differing_only_in_edge_costs_do_not_alias() {
        // Same structure, same labels — only the edge costs differ (the
        // shape a compiled workload's comm_topology produces). The edit
        // distance depends on those costs, so the two requests must occupy
        // distinct cache entries and each must match its own uncached
        // result.
        let cheap = line_with_costs(&[1, 1]);
        let dear = line_with_costs(&[1, 5]);
        assert_ne!(labeled_hash(&cheap), labeled_hash(&dear));

        let phys = Topology::mesh2d(3, 3);
        let mapper = Mapper::new(&phys);
        let strategy = Strategy::similar_topology();
        let free = FreeSet::from_free_nodes(9, &[0, 1, 2, 3, 5].map(NodeId));
        let mut cache = MappingCache::default();
        let got_cheap = mapper
            .map_cached(&free, &cheap, &strategy, &mut cache)
            .unwrap();
        let got_dear = mapper
            .map_cached(&free, &dear, &strategy, &mut cache)
            .unwrap();
        assert_eq!(cache.stats().hits, 0, "cost variants must not alias");
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(got_cheap, mapper.map_in(&free, &cheap, &strategy).unwrap());
        assert_eq!(got_dear, mapper.map_in(&free, &dear, &strategy).unwrap());
    }

    #[test]
    fn requests_differing_only_in_node_attrs_do_not_alias() {
        let plain = Topology::line(3);
        let mut far = Topology::line(3);
        far.node_attr_mut(NodeId(2)).kind = crate::NodeKind::MatrixOptimized;
        assert_ne!(labeled_hash(&plain), labeled_hash(&far));
    }

    /// A 3-node line whose two edges carry the given deletion costs.
    fn line_with_costs(costs: &[u64; 2]) -> Topology {
        let mut t = Topology::empty(3);
        for (i, &cost) in costs.iter().enumerate() {
            t.add_edge_with(
                NodeId(i as u32),
                NodeId(i as u32 + 1),
                crate::EdgeAttr { cost },
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn labeled_hashes_are_pinned() {
        // Placement-cache keys and every chip's `phys_key` are these
        // values, so a change to how a topology stores its neighbours must
        // leave each one as it is: a chip, a relabelled 2x2 request, a
        // request of mixed edge costs and a line whose rows take two words.
        let relabeled = Topology::from_edges(4, &[(0, 3), (3, 1), (1, 2), (2, 0)]).unwrap();
        let mut mixed = Topology::mesh2d(3, 2);
        mixed
            .add_edge_with(NodeId(1), NodeId(4), crate::EdgeAttr { cost: 7 })
            .unwrap();
        mixed
            .add_edge_with(NodeId(0), NodeId(1), crate::EdgeAttr { cost: 3 })
            .unwrap();
        let pins = [
            (Topology::mesh2d(6, 6), 0x3356_3b27_9a69_602b),
            (relabeled, 0x4ec2_7cc5_fa0b_e2b1),
            (mixed, 0xf9b6_b3ff_e170_fd77),
            (Topology::line(70), 0x8ff0_da61_0ed2_f343),
        ];
        for (t, want) in pins {
            assert_eq!(labeled_hash(&t), want, "{} nodes", t.node_count());
        }
    }

    #[test]
    fn fingerprint_collision_reads_as_miss_not_stale_placement() {
        // A hit is only trusted after its placement is re-checked against
        // the live free set: simulate a 64-bit fingerprint collision by
        // presenting the cached key alongside a free set in which the
        // cached placement's cores are occupied.
        let phys = Topology::mesh2d(3, 3);
        let mapper = Mapper::new(&phys);
        let req = Topology::line(2);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::default();
        let free = FreeSet::all_free(9);
        let placed = mapper
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        let key = MappingCache::key_for(labeled_hash(&phys), 0, &req, &strategy, &free);
        assert!(
            cache.get(&key, &free).is_some(),
            "sanity: the entry hits against its own free set"
        );
        let mut collided = free.clone();
        collided.occupy_all(placed.phys_nodes());
        assert!(
            cache.get(&key, &collided).is_none(),
            "a placement over occupied cores must degrade to a miss"
        );
    }

    #[test]
    fn mismatched_free_set_does_not_poison_the_cache() {
        // The free-region fingerprint is capacity-independent, so a
        // 4-node all-free set aliases the 9-node region {0,1,2,3}. The
        // mismatch must error before the cache is touched — memoizing it
        // would permanently reject the valid region it aliases.
        let phys = Topology::mesh2d(3, 3);
        let mapper = Mapper::new(&phys);
        let req = Topology::line(2);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::default();
        let wrong = FreeSet::all_free(4);
        let valid = FreeSet::from_free_nodes(9, &[0, 1, 2, 3].map(NodeId));
        assert_eq!(wrong.fingerprint(), valid.fingerprint());
        assert!(matches!(
            mapper.map_cached(&wrong, &req, &strategy, &mut cache),
            Err(crate::TopoError::FreeSetMismatch {
                set: 4,
                topology: 9
            })
        ));
        assert!(
            cache.entries.is_empty(),
            "the mismatch must not be memoized"
        );
        let placed = mapper
            .map_cached(&valid, &req, &strategy, &mut cache)
            .unwrap();
        assert_eq!(placed, mapper.map_in(&valid, &req, &strategy).unwrap());
    }

    #[test]
    fn generations_do_not_alias() {
        // A reconfig (core scaling, a fault transition) bumps the
        // generation; identical (request, strategy, free region) tuples
        // from before and after must occupy distinct entries — the second
        // lookup is a miss, never a hit against a stale entry.
        let phys = Topology::mesh2d(3, 3);
        let req = Topology::mesh2d(2, 2);
        let strategy = Strategy::similar_topology();
        let free = FreeSet::all_free(9);
        let mut cache = MappingCache::default();
        let before = Mapper::new(&phys)
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        let after = Mapper::new(&phys)
            .at_generation(1)
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        assert_eq!(cache.stats().hits, 0, "reconfig must invalidate");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.entries.len(), 2);
        // Same hardware model here, so the recomputed result agrees.
        assert_eq!(before, after);
    }

    #[test]
    fn caps_far_apart_do_not_alias() {
        // Regression: the tag packed `cap << 3` into one word, so caps
        // 2^61 apart shared entries, `NoCandidate` proofs included. The
        // key holds the strategy itself, so every kind, disconnected mode
        // and cap is a key of its own.
        let req = Topology::mesh2d(2, 2);
        let free = FreeSet::all_free(9);
        let mut keys = Vec::new();
        for base in [
            Strategy::straightforward(),
            Strategy::similar_topology(),
            Strategy::exact_only(),
        ] {
            for disconnected in [false, true] {
                for cap in [400, (1 << 61) + 400] {
                    let strategy = base
                        .clone()
                        .allow_disconnected(disconnected)
                        .candidate_cap(cap);
                    keys.push(MappingCache::key_for(0, 0, &req, &strategy, &free));
                }
            }
        }
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // The placement cache holds thousands of keys, in its table and its
        // FIFO, so the key stays small.
        assert_eq!(std::mem::size_of::<CacheKey>(), 56);
    }

    #[test]
    fn mesh_less_twins_do_not_alias() {
        // The mapper reads the mesh shape of the request (the rectangle
        // fast path) and of the chip (the fast path and the serpentine
        // order), so a topology and its twin built edge by edge, with the
        // same nodes and edges but no mesh shape, are different inputs:
        // through one cache each lookup must equal its own `map_in`, and
        // the second must miss.
        fn twin(t: &Topology) -> Topology {
            let mut twin = Topology::empty(t.node_count());
            for (a, b, attr) in t.edges() {
                twin.add_edge_with(a, b, attr).unwrap();
            }
            assert!(twin.mesh_shape().is_none() && t.mesh_shape().is_some());
            twin
        }
        let strategy = Strategy::similar_topology();
        let phys = Topology::mesh2d(4, 4);
        let free = FreeSet::from_free_nodes(16, &[1, 3, 4, 5, 9, 10, 11, 12, 13].map(NodeId));
        let line = Topology::line(4);
        let mut cache = MappingCache::default();
        for req in [line.clone(), twin(&line)] {
            let mapper = Mapper::new(&phys);
            let got = mapper.map_cached(&free, &req, &strategy, &mut cache);
            assert_eq!(got, mapper.map_in(&free, &req, &strategy));
        }
        assert_eq!(
            cache.stats().misses,
            2,
            "a request and its twin must not alias"
        );
        let req = Topology::mesh2d(2, 3);
        let free = FreeSet::all_free(16);
        let mut cache = MappingCache::default();
        for chip in [phys.clone(), twin(&phys)] {
            let mapper = Mapper::new(&chip);
            let got = mapper.map_cached(&free, &req, &strategy, &mut cache);
            assert_eq!(got, mapper.map_in(&free, &req, &strategy));
        }
        assert_eq!(
            cache.stats().misses,
            2,
            "a chip and its twin must not alias"
        );
    }

    #[test]
    fn relabeled_isomorphic_requests_do_not_alias() {
        // mesh2d(2,3) and mesh2d(3,2) are isomorphic (same canonical key)
        // but number their virtual nodes differently; the cache must keep
        // them apart.
        let a = Topology::mesh2d(2, 3);
        let b = Topology::mesh2d(3, 2);
        assert_eq!(
            crate::canonical::canonical_key(&a),
            crate::canonical::canonical_key(&b)
        );
        assert_ne!(labeled_hash(&a), labeled_hash(&b));
    }

    #[test]
    fn failures_are_memoized() {
        let phys = Topology::mesh2d(3, 3);
        let mapper = Mapper::new(&phys);
        // Two free islands; a connected 4-line cannot be placed.
        let free = FreeSet::from_free_nodes(9, &[0, 1, 7, 8].map(NodeId));
        let req = Topology::line(4);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::default();
        assert!(mapper
            .map_cached(&free, &req, &strategy, &mut cache)
            .is_err());
        assert!(mapper
            .map_cached(&free, &req, &strategy, &mut cache)
            .is_err());
        assert_eq!(
            cache.stats().hits,
            1,
            "the NoCandidate proof must be memoized"
        );
    }

    #[test]
    fn shared_cache_across_chips_does_not_alias() {
        // Same node count, same all-free fingerprint, different link
        // structure: the physical-topology fingerprint in the key must
        // keep the two chips' entries apart.
        let mesh = Topology::mesh2d(3, 3);
        let ring = Topology::ring(9);
        let req = Topology::line(3);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::default();
        let free = FreeSet::all_free(9);
        let on_mesh = Mapper::new(&mesh)
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        let on_ring = Mapper::new(&ring)
            .map_cached(&free, &req, &strategy, &mut cache)
            .unwrap();
        assert_eq!(cache.stats().hits, 0, "different chips must not alias");
        assert_eq!(cache.entries.len(), 2);
        let mesh_direct = Mapper::new(&mesh).map_in(&free, &req, &strategy).unwrap();
        let ring_direct = Mapper::new(&ring).map_in(&free, &req, &strategy).unwrap();
        assert_eq!(on_mesh, mesh_direct);
        assert_eq!(on_ring, ring_direct);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let phys = Topology::mesh2d(4, 4);
        let mapper = Mapper::new(&phys);
        let req = Topology::mesh2d(2, 2);
        let strategy = Strategy::similar_topology();
        let mut cache = MappingCache::with_capacity(2);
        for i in 0..4u32 {
            let mut free = FreeSet::all_free(16);
            free.occupy(NodeId(i));
            mapper
                .map_cached(&free, &req, &strategy, &mut cache)
                .unwrap();
        }
        assert_eq!(cache.entries.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn batched_eviction_keeps_capacity_bound_and_stats_consistent() {
        // Regression for the O(1)-amortized batched drain: the capacity
        // bound must hold after *every* insert, the newest entry must
        // always survive, and the stats identity
        // `len == insertions - evictions` must hold throughout.
        for capacity in [1usize, 2, 3, 8, 16, 64] {
            let phys = Topology::mesh2d(8, 8);
            let mapper = Mapper::new(&phys);
            let req = Topology::mesh2d(2, 2);
            let strategy = Strategy::similar_topology();
            let mut cache = MappingCache::with_capacity(capacity);
            for i in 0..(3 * capacity as u32 + 5) {
                let mut free = FreeSet::all_free(64);
                free.occupy(NodeId(i % 60));
                free.occupy(NodeId((i / 60) % 60));
                let key = MappingCache::key_for(labeled_hash(&phys), 0, &req, &strategy, &free);
                if cache.get(&key, &free).is_none() {
                    cache.insert(key.clone(), mapper.map_in(&free, &req, &strategy));
                    assert!(
                        cache.get(&key, &free).is_some(),
                        "cap {capacity}: the just-inserted entry must survive eviction"
                    );
                }
                assert!(
                    cache.entries.len() <= capacity,
                    "cap {capacity}: bound violated, len {}",
                    cache.entries.len()
                );
                let s = cache.stats();
                assert_eq!(
                    cache.entries.len() as u64,
                    s.insertions - s.evictions,
                    "cap {capacity}: len must equal insertions - evictions"
                );
            }
            assert!(cache.stats().evictions > 0, "cap {capacity}: must evict");
        }
    }
}

#[cfg(test)]
mod reference {
    //! The free-region scan [`FreeSet::free_regions`] replaced,
    //! `Topology::subset_components` kept verbatim as a differential
    //! oracle: a `bool` mask of the subset, a breadth-first search with a
    //! `VecDeque` per component, and the component sizes sorted largest
    //! first. The campaign holds the kernel's `(components, largest)` to
    //! the list's length and head.

    use super::*;
    use crate::testing::Rng;
    use std::collections::VecDeque;

    fn subset_components(topo: &Topology, subset: &[NodeId]) -> Vec<usize> {
        let mut in_set = vec![false; topo.node_count()];
        for &n in subset {
            in_set[n.index()] = true;
        }
        let mut seen = vec![false; topo.node_count()];
        let mut sizes = Vec::new();
        for &start in subset {
            if seen[start.index()] {
                continue;
            }
            seen[start.index()] = true;
            let mut size = 1usize;
            let mut q = VecDeque::from([start]);
            while let Some(u) = q.pop_front() {
                for v in topo.neighbors(u) {
                    if in_set[v.index()] && !seen[v.index()] {
                        seen[v.index()] = true;
                        size += 1;
                        q.push_back(v);
                    }
                }
            }
            sizes.push(size);
        }
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    #[test]
    fn bitset_components_match_the_bfs_reference() {
        const CASES: usize = 1_200;
        let mut rng = Rng(0x5EED_4062);
        // Sets reached: empty, full, one component, three or more, and
        // one of more than one mask word.
        let mut reached = [0usize; 5];
        for case in 0..CASES {
            // Every mesh from 1x1 to 12x12, with the two-word 9x8 and the
            // three-word 12x12 drawn often, and a torus for wrap edges.
            let topo = match case % 6 {
                0 => Topology::mesh2d(9, 8),
                1 => Topology::mesh2d(12, 12),
                2 => Topology::torus2d(3 + rng.below(8) as u32, 3 + rng.below(8) as u32)
                    .expect("a torus of at least 3x3"),
                _ => Topology::mesh2d(1 + rng.below(12) as u32, 1 + rng.below(12) as u32),
            };
            let n = topo.node_count();
            let mut free = FreeSet::all_free(n);
            match rng.below(5) {
                0 => free = FreeSet::all_occupied(n),
                1 => {}
                // Holed: a few scattered cores taken.
                2 => {
                    for _ in 0..=rng.below(n / 8 + 1) {
                        free.occupy(NodeId(rng.below(n) as u32));
                    }
                }
                // Faulted: tenants' runs of consecutive cores placed, then
                // a few faulted cores held occupied among what is left.
                3 => {
                    for _ in 0..rng.below(6) {
                        let start = rng.below(n);
                        let len = 1 + rng.below(n / 4 + 1);
                        for c in start..(start + len).min(n) {
                            free.occupy(NodeId(c as u32));
                        }
                    }
                    for _ in 0..rng.below(4) {
                        free.occupy(NodeId(rng.below(n) as u32));
                    }
                }
                // Any density.
                _ => {
                    for _ in 0..rng.below(n + 1) {
                        free.occupy(NodeId(rng.below(n) as u32));
                    }
                }
            }
            let got = free.free_regions(&topo);
            let sizes = subset_components(&topo, &free.nodes());
            let want = (sizes.len(), sizes.first().copied().unwrap_or(0));
            assert_eq!(got, want, "case {case}: {n} nodes, free {:?}", free.nodes());
            reached[0] += usize::from(free.free_count() == 0);
            reached[1] += usize::from(free.free_count() == n);
            reached[2] += usize::from(got.0 == 1);
            reached[3] += usize::from(got.0 >= 3);
            reached[4] += usize::from(n > 64 && got.0 > 0);
        }
        assert!(
            reached.iter().all(|&r| r > 0),
            "a kind of free set was never reached \
             (empty, full, one component, >= 3, multi-word): {reached:?}"
        );
        println!(
            "free-region campaign: {CASES} sets, identical (components, largest); \
             {} empty, {} full, {} of one component, {} of three or more, \
             {} over more than one mask word",
            reached[0], reached[1], reached[2], reached[3], reached[4]
        );
    }
}
