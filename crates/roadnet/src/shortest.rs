//! Shortest paths on the road network.
//!
//! Provides the primitives used throughout the pipeline:
//!
//! * early-exit Dijkstra between nodes ([`node_dist`], [`node_path`]),
//! * bounded single-source sweeps ([`SsspPool::bounded_sssp_into`]) — the
//!   building block of FMM's upper-bounded origin-destination table,
//! * network distance between map-matched points ([`matched_dist`]) — the
//!   `d(a_i, â_i)` of the MAE/RMSE metric (Eq. 22),
//! * a concurrency-safe memo ([`DistCache`]) so metric evaluation and HMM
//!   transition probabilities do not recompute identical node pairs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Mutex, RwLock};

use crate::graph::{NodeId, RoadNetwork, SegmentId};

/// Which edge weight a search should minimise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weight {
    /// Segment length in metres.
    Length,
    /// Free-flow travel time in seconds.
    Time,
}

impl Weight {
    fn of(self, net: &RoadNetwork, seg: SegmentId) -> f64 {
        let s = net.segment(seg);
        match self {
            Weight::Length => s.length,
            Weight::Time => s.travel_time_s(),
        }
    }
}

#[derive(Debug, PartialEq)]
struct QueueItem {
    dist: f64,
    node: u32,
}

impl Eq for QueueItem {}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.partial_cmp(&self.dist).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest distance from `src` to `dst` under `weight`, early-exiting once
/// the target is settled. `max_cost` bounds the search radius; `None` is
/// returned when `dst` is unreachable within the bound.
#[must_use]
pub fn node_dist(
    net: &RoadNetwork,
    src: NodeId,
    dst: NodeId,
    weight: Weight,
    max_cost: f64,
) -> Option<f64> {
    if src == dst {
        return Some(0.0);
    }
    let mut dist: HashMap<u32, f64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src.0, 0.0);
    heap.push(QueueItem { dist: 0.0, node: src.0 });
    while let Some(QueueItem { dist: d, node }) = heap.pop() {
        if node == dst.0 {
            return Some(d);
        }
        if d > *dist.get(&node).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &seg in net.out_segments(NodeId(node)) {
            let nd = d + weight.of(net, seg);
            if nd > max_cost {
                continue;
            }
            let to = net.segment(seg).to.0;
            if nd < *dist.get(&to).unwrap_or(&f64::INFINITY) {
                dist.insert(to, nd);
                heap.push(QueueItem { dist: nd, node: to });
            }
        }
    }
    None
}

/// Shortest path from `src` to `dst` as a segment sequence, with its cost.
#[must_use]
pub fn node_path(
    net: &RoadNetwork,
    src: NodeId,
    dst: NodeId,
    weight: Weight,
    max_cost: f64,
) -> Option<(f64, Vec<SegmentId>)> {
    if src == dst {
        return Some((0.0, Vec::new()));
    }
    let mut dist: HashMap<u32, f64> = HashMap::new();
    let mut prev: HashMap<u32, SegmentId> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src.0, 0.0);
    heap.push(QueueItem { dist: 0.0, node: src.0 });
    while let Some(QueueItem { dist: d, node }) = heap.pop() {
        if node == dst.0 {
            let mut path = Vec::new();
            let mut cur = dst.0;
            while cur != src.0 {
                let seg = prev[&cur];
                path.push(seg);
                cur = net.segment(seg).from.0;
            }
            path.reverse();
            return Some((d, path));
        }
        if d > *dist.get(&node).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &seg in net.out_segments(NodeId(node)) {
            let nd = d + weight.of(net, seg);
            if nd > max_cost {
                continue;
            }
            let to = net.segment(seg).to.0;
            if nd < *dist.get(&to).unwrap_or(&f64::INFINITY) {
                dist.insert(to, nd);
                prev.insert(to, seg);
                heap.push(QueueItem { dist: nd, node: to });
            }
        }
    }
    None
}

/// Shortest path under an arbitrary per-segment cost function (must be
/// strictly positive). Used by the trajectory generator to diversify routes
/// by randomly perturbing free-flow travel times per trip.
#[must_use]
pub fn node_path_by(
    net: &RoadNetwork,
    src: NodeId,
    dst: NodeId,
    cost: impl Fn(SegmentId) -> f64,
) -> Option<(f64, Vec<SegmentId>)> {
    if src == dst {
        return Some((0.0, Vec::new()));
    }
    let mut dist: HashMap<u32, f64> = HashMap::new();
    let mut prev: HashMap<u32, SegmentId> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(src.0, 0.0);
    heap.push(QueueItem { dist: 0.0, node: src.0 });
    while let Some(QueueItem { dist: d, node }) = heap.pop() {
        if node == dst.0 {
            let mut path = Vec::new();
            let mut cur = dst.0;
            while cur != src.0 {
                let seg = prev[&cur];
                path.push(seg);
                cur = net.segment(seg).from.0;
            }
            path.reverse();
            return Some((d, path));
        }
        if d > *dist.get(&node).unwrap_or(&f64::INFINITY) {
            continue;
        }
        for &seg in net.out_segments(NodeId(node)) {
            let w = cost(seg);
            debug_assert!(w > 0.0, "costs must be positive");
            let nd = d + w;
            let to = net.segment(seg).to.0;
            if nd < *dist.get(&to).unwrap_or(&f64::INFINITY) {
                dist.insert(to, nd);
                prev.insert(to, seg);
                heap.push(QueueItem { dist: nd, node: to });
            }
        }
    }
    None
}

/// Work-attribution counters of an [`SsspPool`]; deltas of these flow into
/// [`CacheStats`] when searches run under a [`DistCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolWork {
    /// Dijkstra pops that were processed (non-stale heap entries).
    pub nodes_expanded: u64,
    /// Relaxations pushed onto a priority queue.
    pub heap_pushes: u64,
    /// Queries answered from a retained warm frontier without restarting.
    pub warm_hits: u64,
    /// Warm-state and buffer acquisitions served from recycled storage.
    pub allocs_avoided: u64,
}

impl PoolWork {
    /// Counter-wise `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &PoolWork) -> PoolWork {
        PoolWork {
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            heap_pushes: self.heap_pushes.saturating_sub(earlier.heap_pushes),
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            allocs_avoided: self.allocs_avoided.saturating_sub(earlier.allocs_avoided),
        }
    }
}

/// One retained bounded-Dijkstra execution: the tentative-distance map, the
/// live frontier, and how far the sweep has provably settled.
#[derive(Debug, Default)]
struct WarmState {
    dist: HashMap<u32, f64>,
    heap: BinaryHeap<QueueItem>,
    /// Largest key popped so far. With strictly positive edge weights every
    /// `dist` entry `<= settled` is final (see [`SsspPool::node_dist_warm`]).
    settled: f64,
    /// The heap drained: `dist` holds *all* nodes reachable within the
    /// pool's `max_cost`; absence now proves unreachability.
    exhausted: bool,
    /// LRU clock value of the last query through this state.
    stamp: u64,
}

impl WarmState {
    fn reset(&mut self, src: u32) {
        self.dist.clear();
        self.heap.clear();
        self.dist.insert(src, 0.0);
        self.heap.push(QueueItem { dist: 0.0, node: src });
        self.settled = f64::NEG_INFINITY;
        self.exhausted = false;
    }
}

/// The query context warm frontiers are valid for. Any change of network,
/// weight, or search radius invalidates every retained frontier: a resumed
/// sweep must be a bit-exact continuation of the sweep a cold query would
/// have run, and all three parameters shape that execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarmKey {
    net_uid: u64,
    weight: Weight,
    max_cost_bits: u64,
}

/// Retained warm frontiers per pool. Small on purpose: one HMM transition
/// layer touches `k_candidates` distinct sources (8 by default), so a
/// few dozen states cover consecutive GPS points with room for overlap
/// between layers, while keeping worst-case pool memory bounded.
const WARM_STATES_MAX: usize = 32;

/// Default per-query budget (nodes expanded) for a warm resume before the
/// query falls back to the plain cold search. A resume never expands more
/// nodes than the cold search would, so this is a stall guard, not a tuning
/// knob — see [`SsspPool::set_warm_budget`].
const WARM_BUDGET_DEFAULT: u64 = 50_000;

/// Reusable single-source shortest-path state: the tentative-distance map
/// and the priority queue of Dijkstra, kept allocated between searches —
/// plus a bounded number of *warm frontiers*, each a paused bounded
/// sweep keyed by its source node that later queries resume instead of
/// recomputing from scratch.
///
/// Transition lookups in a batch of trajectories run thousands of small
/// bounded sweeps over the same network; clearing a warm `HashMap` and
/// `BinaryHeap` is far cheaper than reallocating them per query, and
/// resuming a paused sweep is cheaper still — an HMM transition layer
/// queries every previous-layer candidate (the same handful of sources)
/// against every current-layer candidate, so all but the first lookup per
/// source land inside an already-settled frontier. [`DistCache`] runs
/// its searches through a pool, so only cache *misses* pay for a sweep at
/// all — and even those usually just grow a retained frontier by a few
/// pops.
#[derive(Debug)]
pub struct SsspPool {
    dist: HashMap<u32, f64>,
    heap: BinaryHeap<QueueItem>,
    warm: HashMap<u32, WarmState>,
    spare: Vec<WarmState>,
    key: Option<WarmKey>,
    clock: u64,
    budget: u64,
    work: PoolWork,
}

impl Default for SsspPool {
    fn default() -> Self {
        Self {
            dist: HashMap::new(),
            heap: BinaryHeap::new(),
            warm: HashMap::new(),
            spare: Vec::new(),
            key: None,
            clock: 0,
            budget: WARM_BUDGET_DEFAULT,
            work: PoolWork::default(),
        }
    }
}

impl SsspPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.dist.clear();
        self.heap.clear();
    }

    /// Cumulative work counters over the pool's lifetime.
    #[must_use]
    pub fn work(&self) -> PoolWork {
        self.work
    }

    /// Caps the nodes a single warm resume or prefetch may expand before
    /// the query falls back to the plain cold search. Any value (including
    /// 0, which disables warm resumes entirely) returns bitwise-identical
    /// answers; the budget only bounds per-query latency.
    pub fn set_warm_budget(&mut self, budget: u64) {
        self.budget = budget;
    }

    /// Drops every retained warm frontier (their buffers are recycled).
    fn invalidate_warm(&mut self) {
        let states: Vec<u32> = self.warm.keys().copied().collect();
        for src in states {
            if let Some(st) = self.warm.remove(&src) {
                self.spare.push(st);
            }
        }
        self.key = None;
    }

    /// Invalidates warm state if `(net, weight, max_cost)` differs from the
    /// context the current frontiers were built under.
    fn ensure_key(&mut self, net: &RoadNetwork, weight: Weight, max_cost: f64) {
        let key = WarmKey { net_uid: net.uid(), weight, max_cost_bits: max_cost.to_bits() };
        if self.key != Some(key) {
            self.invalidate_warm();
            self.key = Some(key);
        }
    }

    /// Ensures a warm state for `src` exists (creating and LRU-evicting as
    /// needed) and bumps its LRU stamp. Must be called with the key already
    /// ensured; the state is then reachable via `self.warm[&src]`.
    fn touch_warm(&mut self, src: u32) {
        self.clock += 1;
        let clock = self.clock;
        if !self.warm.contains_key(&src) {
            if self.warm.len() >= WARM_STATES_MAX {
                // Evict the least-recently-used frontier into the spare list.
                if let Some(&lru) =
                    self.warm.iter().min_by_key(|(_, st)| st.stamp).map(|(node, _)| node)
                {
                    if let Some(st) = self.warm.remove(&lru) {
                        self.spare.push(st);
                    }
                }
            }
            let mut st = if let Some(st) = self.spare.pop() {
                self.work.allocs_avoided += 1;
                st
            } else {
                WarmState::default()
            };
            st.reset(src);
            self.work.heap_pushes += 1;
            self.warm.insert(src, st);
        }
        let st = self.warm.get_mut(&src).expect("state was just ensured");
        st.stamp = clock;
    }

    /// Pops and expands frontier entries of `st` until `stop` says to halt
    /// or the heap drains. Bit-exact continuation of the cold Dijkstra loop:
    /// same stale-entry skip, same relaxation order, same `max_cost` gate.
    /// Returns the popped node that satisfied `stop`, if any.
    fn advance_frontier(
        st: &mut WarmState,
        work: &mut PoolWork,
        net: &RoadNetwork,
        weight: Weight,
        max_cost: f64,
        mut stop: impl FnMut(u32, f64, u64) -> bool,
    ) -> Option<(u32, f64)> {
        let mut spent = 0u64;
        while let Some(QueueItem { dist: d, node }) = st.heap.pop() {
            if d > *st.dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue; // stale entry superseded by a later relaxation
            }
            work.nodes_expanded += 1;
            spent += 1;
            for &seg in net.out_segments(NodeId(node)) {
                let nd = d + weight.of(net, seg);
                if nd > max_cost {
                    continue;
                }
                let to = net.segment(seg).to.0;
                if nd < *st.dist.get(&to).unwrap_or(&f64::INFINITY) {
                    st.dist.insert(to, nd);
                    st.heap.push(QueueItem { dist: nd, node: to });
                    work.heap_pushes += 1;
                }
            }
            st.settled = d;
            if stop(node, d, spent) {
                return Some((node, d));
            }
        }
        st.exhausted = true;
        st.settled = f64::INFINITY;
        None
    }

    /// Early-exit Dijkstra from `src` to `dst` that resumes a retained warm
    /// frontier for `src` when one exists, growing its settled radius just
    /// far enough to answer — and starts (then retains) one otherwise.
    ///
    /// Answers are bitwise-identical to [`SsspPool::node_dist`] for every
    /// `(net, src, dst, weight, max_cost, budget)`:
    ///
    /// * A retained frontier is a paused execution of the *same* loop the
    ///   cold search runs (same stale-entry skip, same relaxation order,
    ///   same bound), so resuming it pops nodes in exactly the order one
    ///   uninterrupted sweep would. The only divergence from the cold
    ///   early-exit is that the target's out-edges are relaxed before
    ///   returning — which is precisely what the uninterrupted sweep does,
    ///   and relaxations never change already-popped keys.
    /// * Edge weights are strictly positive, so every tentative distance
    ///   `<= settled` (the largest popped key) is final: any shorter path
    ///   would leave through a node with a strictly smaller final distance,
    ///   which has already been popped and relaxed. Settled map entries are
    ///   therefore served without any expansion at all.
    /// * If the resume exceeds the pool's work budget, the query abandons
    ///   the warm path and runs the ordinary cold search — status-quo cost,
    ///   same answer; the paused frontier stays valid for later queries.
    #[must_use]
    pub fn node_dist_warm(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        weight: Weight,
        max_cost: f64,
    ) -> Option<f64> {
        if src == dst {
            return Some(0.0);
        }
        self.ensure_key(net, weight, max_cost);
        self.touch_warm(src.0);
        let budget = self.budget;
        let Self { warm, work, .. } = self;
        let st = warm.get_mut(&src.0).expect("touch_warm ensured the state");
        // Already inside the settled radius: the value is final.
        if let Some(&d) = st.dist.get(&dst.0) {
            if d <= st.settled {
                work.warm_hits += 1;
                return Some(d);
            }
        }
        if st.exhausted {
            // The sweep ran to its bound; absence proves unreachability.
            work.warm_hits += 1;
            return st.dist.get(&dst.0).copied();
        }
        if budget == 0 {
            return self.node_dist(net, src, dst, weight, max_cost);
        }
        let found = Self::advance_frontier(st, work, net, weight, max_cost, |node, _, spent| {
            node == dst.0 || spent >= budget
        });
        let exhausted = st.exhausted;
        match found {
            Some((node, d)) if node == dst.0 => Some(d),
            Some(_) => {
                // Budget exhausted before reaching `dst`: leave the paused
                // frontier as-is and answer through the cold path.
                self.node_dist(net, src, dst, weight, max_cost)
            }
            None => {
                debug_assert!(exhausted);
                None
            }
        }
    }

    /// Speculatively grows the warm frontier of `src` by up to `extra`
    /// expansions, so that near-future lookups from `src` land inside the
    /// settled radius. Purely additive — it only advances the paused sweep
    /// further along the exact execution it would take anyway, so answers
    /// of later queries are unchanged. Called by [`DistCache`] when the
    /// observed miss rate says the frontier keeps coming up short.
    pub fn prefetch(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        weight: Weight,
        max_cost: f64,
        extra: u64,
    ) {
        if extra == 0 {
            return;
        }
        self.ensure_key(net, weight, max_cost);
        self.touch_warm(src.0);
        let Self { warm, work, .. } = self;
        let st = warm.get_mut(&src.0).expect("touch_warm ensured the state");
        if !st.exhausted {
            let _ = Self::advance_frontier(st, work, net, weight, max_cost, |_, _, spent| {
                spent >= extra
            });
        }
    }

    /// Early-exit Dijkstra from `src` to `dst` reusing the pool's buffers.
    /// Same contract as [`node_dist`].
    #[must_use]
    pub fn node_dist(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        weight: Weight,
        max_cost: f64,
    ) -> Option<f64> {
        if src == dst {
            return Some(0.0);
        }
        self.clear();
        self.dist.insert(src.0, 0.0);
        self.heap.push(QueueItem { dist: 0.0, node: src.0 });
        self.work.heap_pushes += 1;
        while let Some(QueueItem { dist: d, node }) = self.heap.pop() {
            if node == dst.0 {
                return Some(d);
            }
            if d > *self.dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            self.work.nodes_expanded += 1;
            for &seg in net.out_segments(NodeId(node)) {
                let nd = d + weight.of(net, seg);
                if nd > max_cost {
                    continue;
                }
                let to = net.segment(seg).to.0;
                if nd < *self.dist.get(&to).unwrap_or(&f64::INFINITY) {
                    self.dist.insert(to, nd);
                    self.heap.push(QueueItem { dist: nd, node: to });
                    self.work.heap_pushes += 1;
                }
            }
        }
        None
    }

    /// Bounded sweep from `src`: every node reachable within `delta`
    /// (inclusive) with its distance, written as `(node, dist)` pairs
    /// sorted by node id into `out` (cleared first). The kernel of FMM's
    /// UBODT precomputation.
    pub fn bounded_sssp_into(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        weight: Weight,
        delta: f64,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        self.clear();
        self.dist.insert(src.0, 0.0);
        self.heap.push(QueueItem { dist: 0.0, node: src.0 });
        self.work.heap_pushes += 1;
        while let Some(QueueItem { dist: d, node }) = self.heap.pop() {
            if d > *self.dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            self.work.nodes_expanded += 1;
            for &seg in net.out_segments(NodeId(node)) {
                let nd = d + weight.of(net, seg);
                if nd > delta {
                    continue;
                }
                let to = net.segment(seg).to.0;
                if nd < *self.dist.get(&to).unwrap_or(&f64::INFINITY) {
                    self.dist.insert(to, nd);
                    self.heap.push(QueueItem { dist: nd, node: to });
                    self.work.heap_pushes += 1;
                }
            }
        }
        out.clear();
        out.extend(self.dist.iter().map(|(&n, &d)| (NodeId(n), d)));
        out.sort_by_key(|e| e.0);
    }

    /// Bounded sweep from `src` restricted to the subgraph induced by the
    /// nodes where `allow` holds: edges into disallowed nodes are never
    /// relaxed, so the result is exactly [`SsspPool::bounded_sssp_into`]
    /// run on that induced subgraph. `src` is always reported (distance 0)
    /// even if `allow(src)` is false. The shard builder uses this to
    /// compute intra-shard distance tables without materializing per-shard
    /// subgraph copies.
    pub fn bounded_sssp_filtered_into(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        weight: Weight,
        delta: f64,
        allow: impl Fn(NodeId) -> bool,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        self.clear();
        self.dist.insert(src.0, 0.0);
        self.heap.push(QueueItem { dist: 0.0, node: src.0 });
        self.work.heap_pushes += 1;
        while let Some(QueueItem { dist: d, node }) = self.heap.pop() {
            if d > *self.dist.get(&node).unwrap_or(&f64::INFINITY) {
                continue;
            }
            self.work.nodes_expanded += 1;
            for &seg in net.out_segments(NodeId(node)) {
                let nd = d + weight.of(net, seg);
                if nd > delta {
                    continue;
                }
                let to = net.segment(seg).to.0;
                if !allow(NodeId(to)) {
                    continue;
                }
                if nd < *self.dist.get(&to).unwrap_or(&f64::INFINITY) {
                    self.dist.insert(to, nd);
                    self.heap.push(QueueItem { dist: nd, node: to });
                    self.work.heap_pushes += 1;
                }
            }
        }
        out.clear();
        out.extend(self.dist.iter().map(|(&n, &d)| (NodeId(n), d)));
        out.sort_by_key(|e| e.0);
    }

    /// Whether the pool currently retains a warm frontier for `src`.
    /// [`DistCache`] eviction consults this to avoid discarding pairs whose
    /// source still has live settled state.
    fn has_warm_frontier(&self, src: NodeId) -> bool {
        self.warm.contains_key(&src.0)
    }
}

/// A position on the network: segment plus position ratio (Definition 5,
/// without the timestamp).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetPos {
    /// The segment the position lies on.
    pub seg: SegmentId,
    /// Position ratio in `[0, 1)` from the segment entrance.
    pub ratio: f64,
}

impl NetPos {
    /// Creates a position, clamping the ratio into `[0, 1]`.
    #[must_use]
    pub fn new(seg: SegmentId, ratio: f64) -> Self {
        Self { seg, ratio: ratio.clamp(0.0, 1.0) }
    }
}

/// Directed network distance from `a` to `b` in metres: remaining length of
/// `a`'s segment, plus the shortest node path, plus the offset into `b`'s
/// segment. Same-segment forward moves are handled directly.
#[must_use]
pub fn matched_dist_directed(
    net: &RoadNetwork,
    a: NetPos,
    b: NetPos,
    max_cost: f64,
    cache: Option<&DistCache>,
) -> Option<f64> {
    let sa = net.segment(a.seg);
    let sb = net.segment(b.seg);
    if a.seg == b.seg && b.ratio >= a.ratio {
        return Some((b.ratio - a.ratio) * sa.length);
    }
    let head = (1.0 - a.ratio) * sa.length;
    let tail = b.ratio * sb.length;
    let mid = match cache {
        Some(c) => c.node_dist(net, sa.to, sb.from, max_cost)?,
        None => node_dist(net, sa.to, sb.from, Weight::Length, max_cost)?,
    };
    Some(head + mid + tail)
}

/// Symmetric network distance between two map-matched positions: the smaller
/// of the two directed distances, falling back to straight-line distance when
/// neither direction is reachable within `max_cost` (disconnected pairs are
/// penalised by geometry rather than dropped, matching how evaluation code
/// treats them).
#[must_use]
pub fn matched_dist(
    net: &RoadNetwork,
    a: NetPos,
    b: NetPos,
    max_cost: f64,
    cache: Option<&DistCache>,
) -> f64 {
    let fwd = matched_dist_directed(net, a, b, max_cost, cache);
    let bwd = matched_dist_directed(net, b, a, max_cost, cache);
    match (fwd, bwd) {
        (Some(x), Some(y)) => x.min(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => {
            let pa = net.segment(a.seg).line.point_at(a.ratio);
            let pb = net.segment(b.seg).line.point_at(b.ratio);
            pa.dist(pb)
        }
    }
}

/// Default entry cap of a [`DistCache`]: 1M pairs ≈ 24 MB of table. Far
/// above what any committed workload fills, so eviction only engages under
/// adversarial streams — exactly the case it exists for.
pub const DIST_CACHE_DEFAULT_CAP: usize = 1 << 20;

/// Frontier expansions a stats-driven prefetch may add after a miss; see
/// [`DistCache::node_dist_pooled`].
const PREFETCH_EXPANSIONS: u64 = 64;

/// A thread-safe memo of node-to-node shortest distances.
///
/// Both metric evaluation (Eq. 22 is computed for every recovered point) and
/// HMM transition probabilities hammer the same node pairs; the cache turns
/// repeated Dijkstra runs into hash lookups. Misses within `max_cost` are
/// cached as `+∞` so unreachable pairs are not retried.
///
/// Misses run through a caller-supplied [`SsspPool`]
/// ([`DistCache::node_dist_pooled`] — one pool per batch worker), or through
/// an internal pool behind a mutex for callers without their own
/// ([`DistCache::node_dist`]). Either way the miss resumes the pool's warm
/// frontier for the source node ([`SsspPool::node_dist_warm`]) instead of
/// sweeping from scratch, and hits touch nothing but the read lock.
///
/// The memo is bounded: once [`DistCache::capacity`] pairs are resident,
/// recording a miss evicts a resident pair first — preferring one whose
/// source has no live warm frontier in the miss's [`SsspPool`], so the
/// settled state the prefetcher paid for keeps earning hits. Distances are
/// a pure function of the network, so an evicted pair simply recomputes to
/// the identical value on its next miss — eviction affects cost, never
/// answers.
#[derive(Debug)]
pub struct DistCache {
    map: RwLock<HashMap<(u32, u32), f64>>,
    pool: Mutex<SsspPool>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warm_hits: AtomicU64,
    nodes_expanded: AtomicU64,
    heap_pushes: AtomicU64,
    allocs_avoided: AtomicU64,
}

impl Default for DistCache {
    fn default() -> Self {
        Self::with_capacity(DIST_CACHE_DEFAULT_CAP)
    }
}

/// Work and hit/miss counters of a [`DistCache`]; see [`DistCache::stats`].
///
/// Beyond the original hit/miss pair, the counters attribute where miss
/// work actually went, so a tail regression is diagnosable from a committed
/// bench artifact alone: `warm_hits` says how many misses never ran a
/// sweep, `nodes_expanded`/`heap_pushes` say how big the sweeps that did
/// run were, and `evictions` says whether the memo is thrashing its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that went to a Dijkstra pool.
    pub misses: u64,
    /// Misses answered from an already-settled warm frontier.
    pub warm_hits: u64,
    /// Dijkstra nodes expanded by misses (cold sweeps + warm resumes +
    /// prefetch).
    pub nodes_expanded: u64,
    /// Priority-queue pushes performed by misses.
    pub heap_pushes: u64,
    /// Warm-state acquisitions served from recycled buffers.
    pub allocs_avoided: u64,
    /// Pairs evicted to keep the memo within its capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

impl DistCache {
    /// Creates an empty cache with the default entry cap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `cap` pairs (min 1).
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            pool: Mutex::new(SsspPool::new()),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            nodes_expanded: AtomicU64::new(0),
            heap_pushes: AtomicU64::new(0),
            allocs_avoided: AtomicU64::new(0),
        }
    }

    /// The entry cap; [`DistCache::len`] never exceeds it.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Cached shortest length-weighted distance between nodes.
    #[must_use]
    pub fn node_dist(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
    ) -> Option<f64> {
        if let Some(&d) = self.map.read().expect("dist cache poisoned").get(&(src.0, dst.0)) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return if d.is_finite() { Some(d) } else { None };
        }
        let mut pool = self.pool.lock().expect("sssp pool poisoned");
        let d = self.miss_via(net, src, dst, max_cost, &mut pool);
        self.record_miss(src, dst, d, &pool);
        d
    }

    /// Cached shortest length-weighted distance between nodes, running any
    /// miss through the caller's own [`SsspPool`] instead of the cache's
    /// internal (mutex-guarded) one.
    ///
    /// This is the batch-engine read-through: workers share one cache but
    /// each owns a pool, so concurrent misses run concurrent sweeps instead
    /// of serialising on the internal pool's lock. Distances are a pure
    /// function of the network, so racing misses on the same pair insert
    /// the same value — answers never depend on interleaving.
    ///
    /// When the cache's lifetime miss rate is high (a cold stream, or a
    /// session moving into unmapped territory), a miss additionally
    /// prefetches: it grows the warm frontier of `src` by a bounded number
    /// of expansions so the next lookups from the same source settle
    /// without any sweep. Prefetching only advances the exact execution a
    /// later query would run anyway, so answers never change.
    #[must_use]
    pub fn node_dist_pooled(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
        pool: &mut SsspPool,
    ) -> Option<f64> {
        if let Some(&d) = self.map.read().expect("dist cache poisoned").get(&(src.0, dst.0)) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return if d.is_finite() { Some(d) } else { None };
        }
        let d = self.miss_via(net, src, dst, max_cost, pool);
        self.record_miss(src, dst, d, pool);
        d
    }

    /// Runs a miss through `pool`'s warm path, folding the pool's work
    /// delta into the cache counters and prefetching when miss-heavy.
    fn miss_via(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
        pool: &mut SsspPool,
    ) -> Option<f64> {
        let before = pool.work();
        let d = pool.node_dist_warm(net, src, dst, Weight::Length, max_cost);
        // Stats-driven prefetch: while misses dominate lookups the settled
        // radius keeps coming up short, so buy the *next* lookup from this
        // source with a few more expansions now. As hits take over, the
        // ratio flips and the speculation stops.
        let hits = self.hits.load(AtomicOrdering::Relaxed);
        let misses = self.misses.load(AtomicOrdering::Relaxed);
        if misses >= hits {
            pool.prefetch(net, src, Weight::Length, max_cost, PREFETCH_EXPANSIONS);
        }
        let delta = pool.work().since(&before);
        self.warm_hits.fetch_add(delta.warm_hits, AtomicOrdering::Relaxed);
        self.nodes_expanded.fetch_add(delta.nodes_expanded, AtomicOrdering::Relaxed);
        self.heap_pushes.fetch_add(delta.heap_pushes, AtomicOrdering::Relaxed);
        self.allocs_avoided.fetch_add(delta.allocs_avoided, AtomicOrdering::Relaxed);
        d
    }

    /// Probes per eviction when searching for a victim whose source has no
    /// live warm frontier. Bounded so a cache full of warm-source pairs
    /// degrades to arbitrary eviction instead of an O(cap) scan per miss.
    const EVICTION_PROBES: usize = 64;

    fn record_miss(&self, src: NodeId, dst: NodeId, d: Option<f64>, pool: &SsspPool) {
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let mut map = self.map.write().expect("dist cache poisoned");
        if !map.contains_key(&(src.0, dst.0)) && map.len() >= self.cap {
            // Any victim is sound: a re-miss recomputes the identical value
            // (distances are a pure function of the network), so the policy
            // only shapes cost. Prefer a victim whose source has no live
            // warm frontier in the missing pool — evicting a warm-source
            // pair discards exactly the lookup its retained frontier (which
            // the prefetcher may just have paid to grow) would answer for
            // free on the re-miss.
            let victim = map
                .keys()
                .take(Self::EVICTION_PROBES)
                .find(|&&(s, _)| !pool.has_warm_frontier(NodeId(s)))
                .or_else(|| map.keys().next())
                .copied();
            if let Some(victim) = victim {
                map.remove(&victim);
                self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        map.insert((src.0, dst.0), d.unwrap_or(f64::INFINITY));
    }

    /// Counters so far. `hits + misses` equals the number of lookups;
    /// racing misses on one pair may each count as a miss, so `misses` can
    /// exceed the number of distinct pairs but never undercounts it.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            warm_hits: self.warm_hits.load(AtomicOrdering::Relaxed),
            nodes_expanded: self.nodes_expanded.load(AtomicOrdering::Relaxed),
            heap_pushes: self.heap_pushes.load(AtomicOrdering::Relaxed),
            allocs_avoided: self.allocs_avoided.load(AtomicOrdering::Relaxed),
            evictions: self.evictions.load(AtomicOrdering::Relaxed),
        }
    }

    /// Number of cached pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.read().expect("dist cache poisoned").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.read().expect("dist cache poisoned").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadClass;
    use trmma_geom::Vec2;

    /// A 3x1 bidirectional line: 0 -100m- 1 -100m- 2.
    fn line3() -> RoadNetwork {
        let pos = vec![Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0), Vec2::new(200.0, 0.0)];
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2)] {
            edges.push((NodeId(a), NodeId(b), RoadClass::Local));
            edges.push((NodeId(b), NodeId(a), RoadClass::Local));
        }
        RoadNetwork::new(pos, edges)
    }

    fn seg(net: &RoadNetwork, from: u32, to: u32) -> SegmentId {
        net.segment_ids()
            .find(|&i| net.segment(i).from == NodeId(from) && net.segment(i).to == NodeId(to))
            .unwrap()
    }

    #[test]
    fn node_dist_on_line() {
        let net = line3();
        assert_eq!(node_dist(&net, NodeId(0), NodeId(0), Weight::Length, 1e9), Some(0.0));
        let d = node_dist(&net, NodeId(0), NodeId(2), Weight::Length, 1e9).unwrap();
        assert!((d - 200.0).abs() < 1e-9);
    }

    #[test]
    fn node_dist_respects_bound() {
        let net = line3();
        assert_eq!(node_dist(&net, NodeId(0), NodeId(2), Weight::Length, 150.0), None);
        assert!(node_dist(&net, NodeId(0), NodeId(2), Weight::Length, 200.0).is_some());
    }

    #[test]
    fn node_path_reconstructs_segments() {
        let net = line3();
        let (d, path) = node_path(&net, NodeId(0), NodeId(2), Weight::Length, 1e9).unwrap();
        assert!((d - 200.0).abs() < 1e-9);
        assert_eq!(path, vec![seg(&net, 0, 1), seg(&net, 1, 2)]);
        assert!(net.is_path(&path));
    }

    /// A bounded length sweep through a fresh pool.
    fn fresh_sweep(net: &RoadNetwork, src: NodeId, delta: f64) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        SsspPool::new().bounded_sssp_into(net, src, Weight::Length, delta, &mut out);
        out
    }

    #[test]
    fn bounded_sssp_collects_reachable() {
        let net = line3();
        let within_150 = fresh_sweep(&net, NodeId(0), 150.0);
        let nodes: Vec<u32> = within_150.iter().map(|(n, _)| n.0).collect();
        assert_eq!(nodes, vec![0, 1]);
        let all = fresh_sweep(&net, NodeId(0), 1e9);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn matched_dist_same_segment() {
        let net = line3();
        let e = seg(&net, 0, 1);
        let a = NetPos::new(e, 0.2);
        let b = NetPos::new(e, 0.7);
        let d = matched_dist(&net, a, b, 1e9, None);
        assert!((d - 50.0).abs() < 1e-9);
        // Symmetric.
        assert!((matched_dist(&net, b, a, 1e9, None) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn matched_dist_across_segments() {
        let net = line3();
        let e01 = seg(&net, 0, 1);
        let e12 = seg(&net, 1, 2);
        let a = NetPos::new(e01, 0.5); // 50 m before node 1
        let b = NetPos::new(e12, 0.25); // 25 m after node 1
        let d = matched_dist(&net, a, b, 1e9, None);
        assert!((d - 75.0).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn matched_dist_uses_twin_direction() {
        // From a point on 1->0 to a point on 0->1: the directed distance must
        // route through a node; the symmetric min picks the cheap direction.
        let net = line3();
        let e01 = seg(&net, 0, 1);
        let e10 = seg(&net, 1, 0);
        let a = NetPos::new(e10, 0.5);
        let b = NetPos::new(e01, 0.5);
        let d = matched_dist(&net, a, b, 1e9, None);
        // a is at x=50 heading west, b at x=50 heading east; the best directed
        // route is 50 m to a shared node plus 50 m back.
        assert!((d - 100.0).abs() < 1e-9, "d = {d}");
    }

    #[test]
    fn sssp_pool_matches_fresh_searches() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(7, 7, 12));
        let m = net.num_nodes() as u32;
        let mut pool = SsspPool::new();
        for (s, d) in [(0u32, 30u32), (5, 11), (40, 2), (3, 3), (17, 44)] {
            let (src, dst) = (NodeId(s % m), NodeId(d % m));
            let fresh = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            let pooled = pool.node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            assert_eq!(fresh, pooled, "{src:?}->{dst:?}");
        }
        // Bounded sweeps through the reused pool agree with a fresh one.
        let mut out = Vec::new();
        for src in [NodeId(0), NodeId(9), NodeId(20)] {
            pool.bounded_sssp_into(&net, src, Weight::Length, 700.0, &mut out);
            assert_eq!(out, fresh_sweep(&net, src, 700.0));
        }
    }

    #[test]
    fn dist_cache_pooled_misses_agree_with_plain_dijkstra() {
        // DistCache misses run through its internal pool; answers must match
        // fresh searches across many consecutive misses (warm-buffer reuse).
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(6, 6, 8));
        let cache = DistCache::new();
        let m = net.num_nodes() as u32;
        for (s, d) in [(0u32, 20u32), (3, 14), (7, 7), (11, 2), (5, 33)] {
            let (src, dst) = (NodeId(s % m), NodeId(d % m));
            let pooled = cache.node_dist(&net, src, dst, f64::INFINITY);
            let fresh = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            assert_eq!(pooled, fresh, "{src:?}->{dst:?}");
        }
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn dist_cache_hits() {
        let net = line3();
        let cache = DistCache::new();
        let d1 = cache.node_dist(&net, NodeId(0), NodeId(2), 1e9).unwrap();
        let d2 = cache.node_dist(&net, NodeId(0), NodeId(2), 1e9).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.nodes_expanded > 0, "a miss must account its sweep");
        // Unreachable-within-bound is cached as a miss, not retried forever.
        assert!(cache.node_dist(&net, NodeId(2), NodeId(0), 0.0).is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().total(), 3);
    }

    #[test]
    fn dist_cache_pooled_shares_entries_with_internal_path() {
        let net = line3();
        let cache = DistCache::new();
        let mut pool = SsspPool::new();
        let miss = cache.node_dist_pooled(&net, NodeId(0), NodeId(2), 1e9, &mut pool);
        assert_eq!(miss, node_dist(&net, NodeId(0), NodeId(2), Weight::Length, 1e9));
        // The entry is visible to the internal-pool path and vice versa.
        assert_eq!(cache.node_dist(&net, NodeId(0), NodeId(2), 1e9), miss);
        let d = cache.node_dist(&net, NodeId(1), NodeId(2), 1e9);
        assert_eq!(cache.node_dist_pooled(&net, NodeId(1), NodeId(2), 1e9, &mut pool), d);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
    }

    #[test]
    fn warm_node_dist_bitwise_identical_to_cold() {
        // Resumed frontiers, settled-map hits, exhausted sweeps, repeated and
        // interleaved sources: every answer must be bit-for-bit the cold one.
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(9, 9, 21));
        let m = net.num_nodes() as u32;
        let mut pool = SsspPool::new();
        for max_cost in [250.0, 900.0, f64::INFINITY] {
            for q in 0..120u32 {
                // A few sources, many targets — the transition-layer shape.
                let src = NodeId((q / 10) * 7 % m);
                let dst = NodeId((q * 13 + 5) % m);
                let warm = pool.node_dist_warm(&net, src, dst, Weight::Length, max_cost);
                let cold = node_dist(&net, src, dst, Weight::Length, max_cost);
                assert_eq!(
                    warm.map(f64::to_bits),
                    cold.map(f64::to_bits),
                    "{src:?}->{dst:?} bound {max_cost}"
                );
            }
        }
        let w = pool.work();
        assert!(w.warm_hits > 0, "repeated sources must hit the warm frontier");
    }

    #[test]
    fn warm_budget_zero_and_tiny_still_identical() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(8, 8, 5));
        let m = net.num_nodes() as u32;
        for budget in [0u64, 1, 3, 1_000_000] {
            let mut pool = SsspPool::new();
            pool.set_warm_budget(budget);
            for q in 0..60u32 {
                let src = NodeId((q / 6) % m);
                let dst = NodeId((q * 11 + 2) % m);
                let warm = pool.node_dist_warm(&net, src, dst, Weight::Length, f64::INFINITY);
                let cold = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
                assert_eq!(warm.map(f64::to_bits), cold.map(f64::to_bits), "budget {budget}");
            }
        }
    }

    #[test]
    fn prefetch_never_changes_answers() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(7, 7, 9));
        let m = net.num_nodes() as u32;
        let mut pool = SsspPool::new();
        for q in 0..40u32 {
            let src = NodeId((q % 5) * 3 % m);
            pool.prefetch(&net, src, Weight::Length, f64::INFINITY, (q % 7 + 1) as u64 * 4);
            let dst = NodeId((q * 17 + 1) % m);
            let warm = pool.node_dist_warm(&net, src, dst, Weight::Length, f64::INFINITY);
            let cold = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            assert_eq!(warm.map(f64::to_bits), cold.map(f64::to_bits));
        }
    }

    #[test]
    fn warm_state_is_invalidated_across_networks_and_bounds() {
        // Same node ids, different graphs/bounds: retained frontiers must
        // never leak across. Network A is the 3-node line, network B a city.
        let a = line3();
        let b = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(6, 6, 3));
        let mut pool = SsspPool::new();
        for _ in 0..3 {
            let wa = pool.node_dist_warm(&a, NodeId(0), NodeId(2), Weight::Length, 1e9);
            assert_eq!(wa, node_dist(&a, NodeId(0), NodeId(2), Weight::Length, 1e9));
            let wb = pool.node_dist_warm(&b, NodeId(0), NodeId(2), Weight::Length, 1e9);
            assert_eq!(wb, node_dist(&b, NodeId(0), NodeId(2), Weight::Length, 1e9));
            // Changing only the bound also invalidates (bounds shape sweeps).
            let tight = pool.node_dist_warm(&a, NodeId(0), NodeId(2), Weight::Length, 150.0);
            assert_eq!(tight, None);
        }
    }

    #[test]
    fn eviction_skips_entries_with_live_warm_frontiers() {
        // Regression for the arbitrary-victim eviction: a cap-triggered
        // eviction storm must not discard pairs whose source still has a
        // retained (possibly prefetch-grown) frontier in the pool.
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(8, 8, 77));
        let m = net.num_nodes() as u32;
        assert!(m > 40, "test network too small for the warm-LRU aging loop");
        let cache = DistCache::with_capacity(2);
        let mut pool = SsspPool::new();
        let (s, x) = (NodeId(0), NodeId(1));
        let (a, b) = (NodeId(2), NodeId(3));
        let inf = f64::INFINITY;
        // Resident pair 1: source S, whose miss leaves a warm frontier;
        // exhaust it so every later S lookup is a pure warm hit.
        let _ = cache.node_dist_pooled(&net, s, a, inf, &mut pool);
        pool.prefetch(&net, s, Weight::Length, inf, 1_000_000);
        // Resident pair 2: source X. The cache is now at capacity.
        let _ = cache.node_dist_pooled(&net, x, b, inf, &mut pool);
        // Age X out of the bounded warm LRU with filler sources, then
        // re-touch S so it is the one resident source with a live frontier.
        let (mut filler, mut aged) = (3u32, 0);
        while aged < 33 {
            filler += 1;
            let f = NodeId(filler % m);
            let _ = pool.node_dist_warm(&net, f, s, Weight::Length, inf);
            aged += 1;
        }
        pool.prefetch(&net, s, Weight::Length, inf, 1_000_000);
        assert!(pool.has_warm_frontier(s));
        assert!(!pool.has_warm_frontier(x), "X should have aged out of the warm LRU");
        // The storm: a miss on the full cache must evict — and must pick
        // X's pair, never S's, because S's frontier is live.
        let before = cache.stats();
        let _ = cache.node_dist_pooled(&net, NodeId(4), NodeId(5), inf, &mut pool);
        let evicted = cache.stats();
        assert_eq!(evicted.evictions, before.evictions + 1);
        // S's pair survived: the re-query is a map hit, not a new miss.
        let _ = cache.node_dist_pooled(&net, s, a, inf, &mut pool);
        let after = cache.stats();
        assert_eq!(after.hits, evicted.hits + 1, "warm-source pair was evicted");
        assert_eq!(after.misses, evicted.misses);
        // And S's frontier still answers fresh S lookups without a sweep:
        // warm_hits must not regress across the eviction storm.
        let _ = cache.node_dist_pooled(&net, s, NodeId(6), inf, &mut pool);
        assert!(
            cache.stats().warm_hits > after.warm_hits,
            "warm_hits regressed after the eviction storm"
        );
    }

    #[test]
    fn filtered_sssp_equals_sweep_on_induced_subgraph() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(7, 7, 5));
        let m = net.num_nodes() as u32;
        let allow = |n: NodeId| n.0 % 3 != 1;
        let mut pool = SsspPool::new();
        let mut got = Vec::new();
        pool.bounded_sssp_filtered_into(&net, NodeId(0), Weight::Length, 900.0, allow, &mut got);
        // Reference: the plain sweep on a network with the disallowed
        // nodes' incident edges removed.
        let pos: Vec<_> = (0..m).map(|i| net.node_pos(NodeId(i))).collect();
        let edges: Vec<_> = net
            .segments()
            .iter()
            .filter(|sg| allow(sg.from) && allow(sg.to))
            .map(|sg| (sg.from, sg.to, sg.class))
            .collect();
        let sub = RoadNetwork::new(pos, edges);
        let want = fresh_sweep(&sub, NodeId(0), 900.0);
        assert_eq!(got.len(), want.len());
        for ((gn, gd), (wn, wd)) in got.iter().zip(&want) {
            assert_eq!(gn, wn);
            assert_eq!(gd.to_bits(), wd.to_bits());
        }
    }

    #[test]
    fn dist_cache_len_never_exceeds_capacity() {
        // Adversarial stream: every lookup a distinct pair, far more pairs
        // than the cap. The memo must stay bounded and keep answering
        // identically to fresh searches.
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(8, 8, 77));
        let m = net.num_nodes() as u32;
        let cap = 16;
        let cache = DistCache::with_capacity(cap);
        assert_eq!(cache.capacity(), cap);
        let mut pool = SsspPool::new();
        for q in 0..200u32 {
            let src = NodeId((q * 31 + 7) % m);
            let dst = NodeId((q * 57 + 11) % m);
            let got = cache.node_dist_pooled(&net, src, dst, f64::INFINITY, &mut pool);
            let fresh = node_dist(&net, src, dst, Weight::Length, f64::INFINITY);
            assert_eq!(got.map(f64::to_bits), fresh.map(f64::to_bits));
            assert!(cache.len() <= cap, "cache grew past its bound: {}", cache.len());
        }
        assert!(cache.stats().evictions > 0, "the adversarial stream must evict");
        // Evicted pairs re-miss to the identical value.
        let d0 =
            cache.node_dist_pooled(&net, NodeId(7 % m), NodeId(11 % m), f64::INFINITY, &mut pool);
        assert_eq!(
            d0,
            node_dist(&net, NodeId(7 % m), NodeId(11 % m), Weight::Length, f64::INFINITY)
        );
        assert_eq!(cache.capacity(), cap);
    }
}
