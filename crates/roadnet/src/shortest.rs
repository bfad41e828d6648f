//! Shortest paths on the road network.
//!
//! Provides the primitives used throughout the pipeline:
//!
//! * early-exit Dijkstra between nodes ([`node_dist`], [`node_path`]),
//! * one reusable, dense Dijkstra sweep ([`SsspPool`]) that answers many
//!   targets from one source at once ([`SsspPool::node_dists_into`] — the
//!   HMM lattice step) or everything within a bound
//!   ([`SsspPool::bounded_sssp_into`] — FMM's upper-bounded
//!   origin-destination table),
//! * network distance between map-matched points ([`matched_dist`]) — the
//!   `d(a_i, â_i)` of the MAE/RMSE metric (Eq. 22),
//! * a concurrency-safe memo ([`DistCache`]) so metric evaluation does not
//!   recompute identical node pairs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock, RwLock};

use trmma_geom::Vec2;

use crate::graph::{NodeId, RoadNetwork, Segment, SegmentId};

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
        self.of_segment(net.segment(seg))
    }

    fn of_segment(self, s: &Segment) -> f64 {
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
    /// Dijkstra pops that were expanded (settled nodes whose out-edges
    /// were relaxed).
    pub nodes_expanded: u64,
    /// Entries pushed onto the priority queue, the source's included.
    pub heap_pushes: u64,
}

impl PoolWork {
    /// Counter-wise `self - earlier`, saturating at zero.
    #[must_use]
    pub fn since(&self, earlier: &PoolWork) -> PoolWork {
        PoolWork {
            nodes_expanded: self.nodes_expanded.saturating_sub(earlier.nodes_expanded),
            heap_pushes: self.heap_pushes.saturating_sub(earlier.heap_pushes),
        }
    }
}

/// Panics unless `max_cost` is a search bound: `>= 0`, `+∞` included. A
/// NaN bound would silently admit every path (`nd > NaN` never holds) and a
/// negative one none but the source.
pub(crate) fn assert_bound(max_cost: f64) {
    assert!(max_cost >= 0.0, "search bound must be >= 0 (+inf allowed), got {max_cost}");
}

/// The margin a goal-directed sweep adds to its straight-line reach, or
/// `None` when the sweep may not prune by straight-line distance: only a
/// [`Weight::Length`] sweep has segment chords as lower bounds, and only a
/// finite bound limits its reach.
///
/// A node `v` reached at `nd` may reach a goal `t` within `max_cost` only if
/// `|v − t| ≤ max_cost − nd`: [`RoadNetwork::new`] makes every length its
/// chord, and a chain of chords is never shorter than the line between its
/// ends. Rounding (unit `u = 2^-53`) is what separates the computed test
/// from that fact, and the margin absorbs all of it:
/// * a computed length is within `3u` (relative) of its exact chord;
/// * folding the `k` lengths of the rest of the path onto `nd` errs by at
///   most `u` times a partial sum `≤ max_cost` per addition, `k·u·max_cost`
///   in all;
/// * `max_cost − nd`, adding the margin, squaring it and the squared
///   distance add a few `u · max_cost` more.
///
/// A shortest path visits a node once, so `k < 2^32` (node ids are `u32`)
/// and the total stays below `(2^32 + 16)·u·max_cost < 4.8e-7 · max_cost`:
/// `1e-6 · max_cost` covers it twice. The `1e-9` m covers underflow, where
/// squares of distances below `1.5e-154` m lose their relative precision.
fn goal_margin(weight: Weight, max_cost: f64) -> Option<f64> {
    (weight == Weight::Length && max_cost.is_finite()).then_some(1e-6 * max_cost + 1e-9)
}

/// Whether `a` and `b` lie farther than `reach` apart in a straight line.
/// Compares squares, so no square root runs; a NaN on either side never
/// answers `true`.
fn beyond(a: Vec2, b: Vec2, reach: f64) -> bool {
    a.dist_sq(b) > reach * reach
}

/// One node's entry in an [`SsspPool`]: its tentative distance, valid for
/// the sweep whose generation equals `stamp`, and `target == stamp` while
/// that sweep still has to settle the node for a caller.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    dist: f64,
    stamp: u32,
    target: u32,
}

/// Reusable single-source shortest-path state: one dense slot per node and
/// the priority queue of Dijkstra, kept allocated between sweeps.
///
/// A sweep claims a fresh *generation* instead of clearing its slots: a
/// slot stamped by an earlier sweep reads as unvisited, so a sweep costs
/// what it touches, not what the network holds. Slots are sized from
/// `net.num_nodes()` on first use and only ever grow, and a stamp from
/// another network's sweep is just as stale, so one pool may alternate
/// between networks and bounds freely. When the generation counter wraps,
/// every slot is reset once.
///
/// Every query is one sweep: [`SsspPool::node_dists_into`] settles a set
/// of targets from one source and stops once the last one is settled
/// ([`SsspPool::node_dist`] is its one-target case), and
/// [`SsspPool::bounded_sssp_into`] settles everything within a bound.
/// None of them depends on what the pool answered before: with edge
/// weights `>= 0` a Dijkstra distance is the least fixpoint of
/// `D(v) = min over (u, v) of fl(D(u) + w)` under the bound, whatever the
/// pop order, tie order, early exit or target set (DESIGN.md §16).
#[derive(Debug, Default)]
pub struct SsspPool {
    slots: Vec<Slot>,
    gen: u32,
    heap: BinaryHeap<QueueItem>,
    /// The targets the current sweep has still to settle, with their
    /// positions; empty in a bounded sweep.
    goals: Vec<(u32, Vec2)>,
    work: PoolWork,
}

impl SsspPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative work counters over the pool's lifetime.
    #[must_use]
    pub fn work(&self) -> PoolWork {
        self.work
    }

    /// Claims a fresh generation over `n` nodes and seeds `src` at
    /// distance 0: no other slot carries the generation, the heap holds
    /// `src` alone and no goal is pending.
    fn begin(&mut self, n: usize, src: NodeId) -> u32 {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stamps written 2^32 sweeps ago would read as live.
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
        self.heap.clear();
        self.goals.clear();
        self.slots[src.idx()] = Slot { dist: 0.0, stamp: self.gen, target: 0 };
        self.heap.push(QueueItem { dist: 0.0, node: src.0 });
        self.work.heap_pushes += 1;
        self.gen
    }

    /// The Dijkstra loop of the sweep [`SsspPool::begin`] seeded: pops in
    /// key order, skips stale entries, and relaxes out-edges into nodes
    /// `allow` admits while the new distance stays within `max_cost`.
    /// `settle` sees every settled node once, in pop order, before it is
    /// expanded.
    ///
    /// With goals pending, settling the last one ends the sweep, and a
    /// goal-directed sweep ([`goal_margin`]) does not push a node at `nd`
    /// that lies farther than `max_cost − nd` (plus the margin) in a
    /// straight line from every pending goal: no within-bound path to a
    /// goal runs through it, so every goal settles to the value it would
    /// without the gate.
    fn run(
        &mut self,
        net: &RoadNetwork,
        weight: Weight,
        max_cost: f64,
        allow: impl Fn(NodeId) -> bool,
        mut settle: impl FnMut(u32, f64),
    ) {
        let Self { slots, gen, heap, goals, work } = self;
        let gen = *gen;
        let margin = goal_margin(weight, max_cost).filter(|_| !goals.is_empty());
        while let Some(QueueItem { dist: d, node }) = heap.pop() {
            // Everything popped was pushed, hence stamped, by this sweep.
            let slot = &mut slots[node as usize];
            if d > slot.dist {
                continue; // stale entry superseded by a later relaxation
            }
            if slot.target == gen {
                slot.target = 0;
                let i = goals.iter().position(|g| g.0 == node).expect("a target is a goal");
                goals.swap_remove(i);
                if goals.is_empty() {
                    return;
                }
            }
            settle(node, d);
            work.nodes_expanded += 1;
            for &seg in net.out_segments(NodeId(node)) {
                let s = net.segment(seg);
                let nd = d + weight.of_segment(s);
                if nd > max_cost || !allow(s.to) {
                    continue;
                }
                let slot = &mut slots[s.to.idx()];
                let known = if slot.stamp == gen { slot.dist } else { f64::INFINITY };
                if nd < known {
                    // `line.b` is the position of `s.to`.
                    let reach = margin.map(|m| max_cost - nd + m);
                    if reach.is_some_and(|r| goals.iter().all(|&(_, g)| beyond(g, s.line.b, r))) {
                        continue;
                    }
                    slot.dist = nd;
                    slot.stamp = gen;
                    heap.push(QueueItem { dist: nd, node: s.to.0 });
                    work.heap_pushes += 1;
                }
            }
        }
    }

    /// Shortest distances from `src` to every node of `targets` in one
    /// sweep: `out[i]` becomes [`node_dist`]`(net, src, targets[i], weight,
    /// max_cost)`, bit for bit. Duplicate targets and `src` itself are
    /// allowed; the sweep stops as soon as every distinct target is
    /// settled. A length sweep under a finite bound is goal-directed: a
    /// target farther than the bound from `src` in a straight line is
    /// answered `None` without a search, and the sweep expands only nodes
    /// from which a pending target may still lie within the bound, so an
    /// unreachable target costs a sweep toward it, not to the bound in
    /// every direction. No targets, no sweep. Node ids must name nodes of
    /// `net`.
    ///
    /// # Panics
    /// Panics if `out.len() != targets.len()`, or if `max_cost` is NaN or
    /// negative.
    pub fn node_dists_into(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        targets: &[NodeId],
        weight: Weight,
        max_cost: f64,
        out: &mut [Option<f64>],
    ) {
        assert_eq!(out.len(), targets.len(), "one answer per target");
        assert_bound(max_cost);
        let gen = self.begin(net.num_nodes(), src);
        let margin = goal_margin(weight, max_cost);
        let from = net.node_pos(src);
        for &t in targets {
            let slot = &mut self.slots[t.idx()];
            let pos = net.node_pos(t);
            if slot.target != gen && !margin.is_some_and(|m| beyond(from, pos, max_cost + m)) {
                slot.target = gen;
                self.goals.push((t.0, pos));
            }
        }
        if !self.goals.is_empty() {
            self.run(net, weight, max_cost, |_| true, |_, _| {});
        }
        // Every target is settled, or the heap drained and every stamped
        // node with it: a stamp of this sweep is a final distance. A target
        // out of straight-line reach is on no within-bound path, so nothing
        // stamped it.
        for (o, &t) in out.iter_mut().zip(targets) {
            let slot = self.slots[t.idx()];
            *o = (slot.stamp == gen).then_some(slot.dist);
        }
    }

    /// Early-exit Dijkstra from `src` to `dst` on the pool's slots: the
    /// one-target case of [`SsspPool::node_dists_into`]. Same contract and
    /// bits as [`node_dist`].
    ///
    /// # Panics
    /// Panics if `max_cost` is NaN or negative.
    #[must_use]
    pub fn node_dist(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        weight: Weight,
        max_cost: f64,
    ) -> Option<f64> {
        let mut out = [None];
        self.node_dists_into(net, src, &[dst], weight, max_cost, &mut out);
        out[0]
    }

    /// Bounded sweep from `src`: every node reachable within `delta`
    /// (inclusive) with its distance, written as `(node, dist)` pairs
    /// sorted by node id into `out` (cleared first). The kernel of FMM's
    /// UBODT precomputation.
    ///
    /// # Panics
    /// Panics if `delta` is NaN or negative.
    pub fn bounded_sssp_into(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        weight: Weight,
        delta: f64,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        self.bounded_sssp_filtered_into(net, src, weight, delta, |_| true, out);
    }

    /// Bounded sweep from `src` restricted to the subgraph induced by the
    /// nodes where `allow` holds: edges into disallowed nodes are never
    /// relaxed, so the result is exactly [`SsspPool::bounded_sssp_into`]
    /// run on that induced subgraph. `src` is always reported (distance 0)
    /// even if `allow(src)` is false. The shard builder uses this to
    /// compute intra-shard distance tables without materializing per-shard
    /// subgraph copies.
    ///
    /// # Panics
    /// Panics if `delta` is NaN or negative.
    pub fn bounded_sssp_filtered_into(
        &mut self,
        net: &RoadNetwork,
        src: NodeId,
        weight: Weight,
        delta: f64,
        allow: impl Fn(NodeId) -> bool,
        out: &mut Vec<(NodeId, f64)>,
    ) {
        assert_bound(delta);
        out.clear();
        self.begin(net.num_nodes(), src);
        self.run(net, weight, delta, allow, |node, dist| out.push((NodeId(node), dist)));
        out.sort_by_key(|e| e.0);
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

/// A thread-safe memo of node-to-node shortest distances.
///
/// Metric evaluation (Eq. 22 is computed for every recovered point) and the
/// per-pair [`crate::TransitionProvider::route_dist`] hammer the same node
/// pairs; the cache turns repeated Dijkstra runs into hash lookups. Misses
/// within `max_cost` are cached as `+∞` so unreachable pairs are not
/// retried. The HMM lattice step does not come here: it asks
/// [`crate::TransitionProvider::route_dist_matrix`] for a whole step at
/// once.
///
/// A memo keyed by node pair answers for one network and one bound: the
/// first lookup fixes both, and a lookup under another network or another
/// `max_cost` panics naming the two.
///
/// Misses run through a caller-supplied [`SsspPool`]
/// ([`DistCache::node_dist_pooled`] — one pool per batch worker), or through
/// an internal pool behind a mutex for callers without their own
/// ([`DistCache::node_dist`]); hits touch nothing but the read lock.
///
/// The memo is bounded: once [`DistCache::capacity`] pairs are resident,
/// recording a miss evicts an arbitrary resident pair first. Distances are
/// a pure function of the network, so an evicted pair simply recomputes to
/// the identical value on its next miss — eviction affects cost, never
/// answers.
#[derive(Debug)]
pub struct DistCache {
    map: RwLock<HashMap<(u32, u32), f64>>,
    pool: Mutex<SsspPool>,
    /// `(net.uid(), max_cost.to_bits())` of the first lookup.
    key: OnceLock<(u64, u64)>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    nodes_expanded: AtomicU64,
    heap_pushes: AtomicU64,
}

impl Default for DistCache {
    fn default() -> Self {
        Self::with_capacity(DIST_CACHE_DEFAULT_CAP)
    }
}

/// Work and hit/miss counters of a [`DistCache`]; see [`DistCache::stats`].
///
/// Beyond the hit/miss pair, the counters attribute where miss work went:
/// `nodes_expanded`/`heap_pushes` say how big the sweeps were, and
/// `evictions` says whether the memo is thrashing its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that went to a Dijkstra pool.
    pub misses: u64,
    /// Always 0: misses answered from a retained warm frontier, a mechanism
    /// since removed (DESIGN.md §10). Kept for readers of the counter.
    pub warm_hits: u64,
    /// Dijkstra nodes expanded by misses.
    pub nodes_expanded: u64,
    /// Priority-queue pushes performed by misses.
    pub heap_pushes: u64,
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
            key: OnceLock::new(),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            nodes_expanded: AtomicU64::new(0),
            heap_pushes: AtomicU64::new(0),
        }
    }

    /// The entry cap; [`DistCache::len`] never exceeds it.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Fixes the cache's network and bound on the first lookup and holds
    /// every later one to them: a pair memoised under one cannot answer
    /// for another.
    fn check_key(&self, net: &RoadNetwork, max_cost: f64) {
        let asked = (net.uid(), max_cost.to_bits());
        let held = *self.key.get_or_init(|| asked);
        assert!(
            held == asked,
            "DistCache holds network {} under bound {} but was asked about network {} under \
             bound {max_cost}",
            held.0,
            f64::from_bits(held.1),
            asked.0,
        );
    }

    /// Cached shortest length-weighted distance between nodes.
    ///
    /// # Panics
    /// Panics if an earlier lookup used another network or `max_cost`.
    #[must_use]
    pub fn node_dist(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
    ) -> Option<f64> {
        self.check_key(net, max_cost);
        if let Some(d) = self.hit(src, dst) {
            return d;
        }
        let mut pool = self.pool.lock().expect("sssp pool poisoned");
        self.miss_via(net, src, dst, max_cost, &mut pool)
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
    /// # Panics
    /// Panics if an earlier lookup used another network or `max_cost`.
    #[must_use]
    pub fn node_dist_pooled(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
        pool: &mut SsspPool,
    ) -> Option<f64> {
        self.check_key(net, max_cost);
        if let Some(d) = self.hit(src, dst) {
            return d;
        }
        self.miss_via(net, src, dst, max_cost, pool)
    }

    /// The memoised answer for `src → dst`, counted as a hit, if resident.
    fn hit(&self, src: NodeId, dst: NodeId) -> Option<Option<f64>> {
        let d = *self.map.read().expect("dist cache poisoned").get(&(src.0, dst.0))?;
        self.hits.fetch_add(1, AtomicOrdering::Relaxed);
        Some(d.is_finite().then_some(d))
    }

    /// Runs a miss through `pool`, folds the pool's work delta into the
    /// cache counters and memoises the answer.
    fn miss_via(
        &self,
        net: &RoadNetwork,
        src: NodeId,
        dst: NodeId,
        max_cost: f64,
        pool: &mut SsspPool,
    ) -> Option<f64> {
        let before = pool.work();
        let d = pool.node_dist(net, src, dst, Weight::Length, max_cost);
        let delta = pool.work().since(&before);
        self.nodes_expanded.fetch_add(delta.nodes_expanded, AtomicOrdering::Relaxed);
        self.heap_pushes.fetch_add(delta.heap_pushes, AtomicOrdering::Relaxed);
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let mut map = self.map.write().expect("dist cache poisoned");
        if !map.contains_key(&(src.0, dst.0)) && map.len() >= self.cap {
            // Any victim is sound: a re-miss recomputes the identical value.
            if let Some(victim) = map.keys().next().copied() {
                map.remove(&victim);
                self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
            }
        }
        map.insert((src.0, dst.0), d.unwrap_or(f64::INFINITY));
        d
    }

    /// Counters so far. `hits + misses` equals the number of lookups;
    /// racing misses on one pair may each count as a miss, so `misses` can
    /// exceed the number of distinct pairs but never undercounts it.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            warm_hits: 0,
            nodes_expanded: self.nodes_expanded.load(AtomicOrdering::Relaxed),
            heap_pushes: self.heap_pushes.load(AtomicOrdering::Relaxed),
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
        let d1 = cache.node_dist(&net, NodeId(0), NodeId(1), 150.0).unwrap();
        let d2 = cache.node_dist(&net, NodeId(0), NodeId(1), 150.0).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.nodes_expanded > 0, "a miss must account its sweep");
        // Unreachable-within-bound is cached as a miss, not retried forever.
        assert!(cache.node_dist(&net, NodeId(0), NodeId(2), 150.0).is_none());
        assert!(cache.node_dist(&net, NodeId(0), NodeId(2), 150.0).is_none());
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.stats().hits, cache.stats().total()), (2, 4));
    }

    /// A 6×6 city. Node 0 → 20 is `None` within 10 m and ≈ 842 m
    /// unbounded on seed 3, ≈ 1 057 m on seed 4.
    fn city(seed: u64) -> RoadNetwork {
        crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(6, 6, seed))
    }

    #[test]
    #[should_panic(expected = "under bound 10 but was asked about network")]
    fn dist_cache_refuses_a_second_bound() {
        let net = city(3);
        let cache = DistCache::new();
        assert_eq!(cache.node_dist(&net, NodeId(0), NodeId(20), 10.0), None);
        assert!(node_dist(&net, NodeId(0), NodeId(20), Weight::Length, 1e9).is_some());
        // The memoised `None` must not answer for the wider bound.
        let _ = cache.node_dist(&net, NodeId(0), NodeId(20), 1e9);
    }

    #[test]
    #[should_panic(expected = "DistCache holds network")]
    fn dist_cache_refuses_a_second_network() {
        let (a, b) = (city(3), city(4));
        let cache = DistCache::new();
        let mut pool = SsspPool::new();
        let on_a = cache.node_dist_pooled(&a, NodeId(0), NodeId(20), 1e9, &mut pool);
        assert_ne!(on_a, node_dist(&b, NodeId(0), NodeId(20), Weight::Length, 1e9));
        // Network `a`'s pair must not answer for network `b`.
        let _ = cache.node_dist_pooled(&b, NodeId(0), NodeId(20), 1e9, &mut pool);
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
    fn generation_wrap_leaks_no_stale_stamp() {
        // The first sweep (generation 1) settles node 0 at distance 0; the
        // next two touch nothing but their own source (bound 0). The fourth
        // runs as generation 1 again and asks for node 0 from the far
        // corner: were the first sweep's stamps still readable, node 0
        // would already hold 0, nothing could relax into it, and the answer
        // would be `Some(0.0)`.
        let net = city(3);
        let far = NodeId(net.num_nodes() as u32 - 1);
        let inf = f64::INFINITY;
        let queries =
            [(NodeId(0), far, inf), (NodeId(1), NodeId(2), 0.0), (NodeId(2), NodeId(1), 0.0)];
        let last = (far, NodeId(0), inf);
        let mut pool = SsspPool::new();
        let check = |pool: &mut SsspPool, (s, d, bound): (NodeId, NodeId, f64)| {
            let got = pool.node_dist(&net, s, d, Weight::Length, bound);
            let want = node_dist(&net, s, d, Weight::Length, bound);
            assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{s:?}->{d:?} ≤ {bound}");
        };
        check(&mut pool, queries[0]);
        check(&mut pool, queries[1]);
        // Jump to the brink: the last two sweeps run as u32::MAX and 1.
        pool.gen = u32::MAX - 1;
        check(&mut pool, queries[2]);
        check(&mut pool, last);
        assert_eq!(pool.gen, 1);
        assert!(node_dist(&net, far, NodeId(0), Weight::Length, inf).is_some_and(|d| d > 0.0));
    }

    /// A target within straight-line reach of the bound but not within
    /// the bound by road: an unpruned sweep drains every node within the
    /// bound, the goal-directed one only those toward the target.
    #[test]
    fn a_draining_sweep_expands_fewer_nodes_than_the_bound_holds() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(8, 8, 77));
        let (src, bound) = (NodeId(0), 900.0);
        let from = net.node_pos(src);
        let t = (0..net.num_nodes() as u32)
            .map(NodeId)
            .find(|&t| {
                from.dist(net.node_pos(t)) <= bound
                    && node_dist(&net, src, t, Weight::Length, bound).is_none()
            })
            .expect("a target in straight-line reach but not by road");
        let mut pool = SsspPool::new();
        let before = pool.work();
        let mut all = Vec::new();
        pool.bounded_sssp_into(&net, src, Weight::Length, bound, &mut all);
        let unpruned = pool.work().since(&before).nodes_expanded;
        assert_eq!(unpruned, all.len() as u64, "a bounded sweep expands all it settles");
        let before = pool.work();
        assert_eq!(pool.node_dist(&net, src, t, Weight::Length, bound), None);
        let pruned = pool.work().since(&before).nodes_expanded;
        assert!(pruned < unpruned, "goal-directed sweep expanded {pruned} of {unpruned}");
        // Under travel time nothing is pruned: a 1e-9 s bound still
        // expands the source.
        let before = pool.work();
        let _ = pool.node_dist(&net, src, t, Weight::Time, 1e-9);
        assert_eq!(pool.work().since(&before).nodes_expanded, 1);
    }

    #[test]
    fn a_target_beyond_the_bound_in_a_straight_line_costs_no_expansion() {
        let net = line3();
        let mut pool = SsspPool::new();
        let before = pool.work();
        let mut out = [Some(1.0), Some(1.0)];
        pool.node_dists_into(&net, NodeId(0), &[NodeId(2); 2], Weight::Length, 199.0, &mut out);
        assert_eq!(out, [None, None]);
        assert_eq!(pool.work().since(&before).nodes_expanded, 0);
        // Unbounded, the same target is a search away.
        assert!(pool.node_dist(&net, NodeId(0), NodeId(2), Weight::Length, 1e9).is_some());
    }

    /// A near-collinear chain (found by searching 3- and 4-node chains with
    /// decimetre steps and ±1e-7 m offsets) whose computed path length is
    /// exactly the bound while its straight line computes no shorter: the
    /// middle node at 37 m reads `10.5² + 1e-14` squared metres from the
    /// target, one ulp above the `10.5²` a margin-free prune allows.
    #[test]
    fn a_target_at_exactly_the_bound_stays_reachable_through_rounding() {
        let pos = vec![Vec2::new(0.0, 0.0), Vec2::new(37.0, -1e-7), Vec2::new(47.5, 0.0)];
        let edges = vec![
            (NodeId(0), NodeId(1), RoadClass::Local),
            (NodeId(1), NodeId(2), RoadClass::Local),
        ];
        let net = RoadNetwork::new(pos, edges);
        let (src, dst) = (NodeId(0), NodeId(2));
        let len = node_dist(&net, src, dst, Weight::Length, f64::INFINITY).unwrap();
        assert_eq!(len, 47.5);
        assert!(net.node_pos(src).dist(net.node_pos(dst)) >= len);
        assert!(net.node_pos(NodeId(1)).dist_sq(net.node_pos(dst)) > (len - 37.0).powi(2));
        let got = SsspPool::new().node_dist(&net, src, dst, Weight::Length, len);
        assert_eq!(got.map(f64::to_bits), Some(len.to_bits()));
        assert_eq!(got, node_dist(&net, src, dst, Weight::Length, len));
    }

    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got NaN")]
    fn a_nan_bound_is_refused_by_the_multi_target_sweep() {
        let mut out = [None];
        SsspPool::new().node_dists_into(
            &line3(),
            NodeId(0),
            &[NodeId(2)],
            Weight::Length,
            f64::NAN,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got -1")]
    fn a_negative_bound_is_refused_by_the_bounded_sweep() {
        SsspPool::new().bounded_sssp_into(
            &line3(),
            NodeId(0),
            Weight::Length,
            -1.0,
            &mut Vec::new(),
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
