//! Pooled point-to-point transition costs for HMM-family matchers.
//!
//! Every probabilistic matcher in the repository evaluates the same hot
//! expression for each candidate transition: the network route distance
//! between two on-segment positions. This module centralises that lookup
//! behind [`TransitionProvider`], which asks for node-to-node distances
//! from (in order):
//!
//! 1. a **precomputed bounded all-pairs table** ([`DistTable`] — FMM's
//!    UBODT), when one is attached: a binary search over its sorted
//!    records, no graph search at all;
//! 2. a **sharded network** ([`crate::shard::ShardedNetwork`]), when one
//!    is attached: the distance decomposes into intra-shard table hops
//!    plus a boundary-overlay lookup — still pure lookups, no search;
//! 3. otherwise **Dijkstra on the caller's [`SsspPool`]**.
//!
//! The HMM lattice step asks one question per step,
//! [`TransitionProvider::route_dist_matrix`]: the whole previous-layer ×
//! current-layer matrix. It deduplicates the rows' exit nodes and the
//! columns' entry nodes — candidates of one GPS point share them — fills
//! that small node × node block in one pass of the backend (one dense
//! multi-target sweep per distinct exit node on the Dijkstra backend), and
//! assembles every cell with [`TransitionProvider::route_dist`]'s
//! expressions. Other callers ask per pair through
//! [`TransitionProvider::route_dist`], whose Dijkstra backend reads through
//! a shared [`DistCache`].
//!
//! The provider itself is immutable and `Send + Sync`; all mutable search
//! state lives in the per-worker pool the caller passes in. Answers are a
//! pure function of the network, so output is bitwise-identical no matter
//! how many workers share one provider, how queries interleave, or whether
//! a pair was asked alone or inside a matrix (property-tested in
//! `tests/props_baselines.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::graph::{NodeId, RoadNetwork, SegmentId};
use crate::shard::ShardedNetwork;
use crate::shortest::{assert_bound, CacheStats, DistCache, NetPos, SsspPool, Weight};

/// Why a byte image could not be adopted as a [`DistTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistImageError {
    /// The declared record range does not fit inside the slab.
    OutOfBounds,
    /// Record keys are not strictly increasing — binary search over the
    /// image would silently answer wrong, so the image is rejected.
    Unsorted,
    /// The distance bound is NaN or negative: no distance could be within
    /// it, and every `≤ δ` test downstream would answer `false`.
    BadDelta,
    /// A record's distance is NaN, negative or above the bound, breaking
    /// the `Some`-iff-within-δ contract table users rely on.
    BadDistance,
}

impl std::fmt::Display for DistImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfBounds => write!(f, "dist-table image exceeds its byte slab"),
            Self::Unsorted => write!(f, "dist-table image records are not sorted"),
            Self::BadDelta => write!(f, "dist-table bound is NaN or negative"),
            Self::BadDistance => write!(f, "dist-table record distance outside [0, delta]"),
        }
    }
}

impl std::error::Error for DistImageError {}

/// Why a transition query could not be answered at all (as opposed to the
/// pair being unreachable, which is the `Ok(None)` answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionError {
    /// A query position names a segment the network does not have. Segment
    /// ids that arrive from outside the network's own indexes (wire input,
    /// restored snapshots, artifacts) must be range-checked, not unwound
    /// through a worker thread.
    SegmentOutOfRange {
        /// The offending segment id.
        seg: SegmentId,
        /// The network's segment count at query time.
        num_segments: usize,
    },
}

impl std::fmt::Display for TransitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SegmentOutOfRange { seg, num_segments } => {
                write!(f, "segment id {} out of range (network has {num_segments})", seg.0)
            }
        }
    }
}

impl std::error::Error for TransitionError {}

/// Bytes per packed `(src u32, dst u32, dist f64-bits)` record of a
/// [`DistTable`] (all little-endian).
pub const DIST_RECORD_BYTES: usize = 16;

/// Bounded all-pairs shortest-distance table: for every node pair within
/// length `delta`, the exact network distance — FMM's UBODT, and the
/// intra-shard and overlay tables of a [`ShardedNetwork`].
///
/// A table *is* its byte image: `DIST_RECORD_BYTES`-wide records (`src u32
/// | dst u32 | dist f64-bits`, little-endian) strictly sorted by
/// `(src, dst)` and binary-searched in place. A built table owns its slab;
/// one adopted from an artifact ([`DistTable::from_image`]) shares the
/// artifact's, so a process fleet serving the same image shares one
/// page-cached copy instead of each re-running the Dijkstra sweeps.
#[derive(Debug)]
pub struct DistTable {
    delta: f64,
    slab: Arc<Vec<u8>>,
    /// Byte offset of the first record within `slab`.
    off: usize,
    /// Number of records.
    count: usize,
}

impl DistTable {
    /// Builds the table by sweeping every node with a bounded Dijkstra,
    /// reusing one pool's buffers across all sources.
    ///
    /// # Panics
    /// Panics if `delta` is NaN or negative; `+∞` builds all pairs.
    #[must_use]
    pub fn build(net: &RoadNetwork, delta: f64) -> Self {
        assert_bound(delta);
        let mut pool = SsspPool::new();
        Self::from_sweeps((0..net.num_nodes() as u32).map(NodeId), delta, |src, reach| {
            pool.bounded_sssp_into(net, src, Weight::Length, delta, reach);
        })
    }

    /// Packs one bounded sweep per source into a table with bound `delta`:
    /// `sweep(src, reach)` fills `reach` with the `(dst, dist)` pairs kept
    /// for `src`, sorted by `dst` as [`SsspPool::bounded_sssp_into`] returns
    /// them. Sources must come strictly ascending, so records are written
    /// in key order and never sorted. [`DistTable::build`] and the shard
    /// builder fill every table this way.
    pub(crate) fn from_sweeps(
        sources: impl IntoIterator<Item = NodeId>,
        delta: f64,
        mut sweep: impl FnMut(NodeId, &mut Vec<(NodeId, f64)>),
    ) -> Self {
        let mut records = Vec::new();
        let mut reach = Vec::new();
        for src in sources {
            sweep(src, &mut reach);
            for &(dst, dist) in &reach {
                records.extend_from_slice(&src.0.to_le_bytes());
                records.extend_from_slice(&dst.0.to_le_bytes());
                records.extend_from_slice(&dist.to_bits().to_le_bytes());
            }
        }
        let count = records.len() / DIST_RECORD_BYTES;
        let table = Self { delta, slab: Arc::new(records), off: 0, count };
        debug_assert_eq!(table.validate(), Ok(()));
        table
    }

    /// Resident bytes of the table's records: exactly `len() ×
    /// DIST_RECORD_BYTES`. A table adopted from an artifact counts only
    /// its own record range of the shared slab — its marginal cost.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.count * DIST_RECORD_BYTES
    }

    /// Adopts `count` packed records starting at byte `off` of `slab` as a
    /// table with bound `delta`, without copying them — the bytes
    /// [`DistTable::records`] returns and the artifact writer stores.
    ///
    /// # Errors
    /// [`DistImageError::OutOfBounds`] when the range escapes the slab;
    /// [`DistImageError::BadDelta`] when `delta` is NaN or negative;
    /// [`DistImageError::Unsorted`] when keys are not strictly increasing;
    /// [`DistImageError::BadDistance`] when a distance is NaN, negative or
    /// above `delta`. CRCs cannot stop a crafted image, so a hand-built
    /// table must not be able to mis-answer either.
    pub fn from_image(
        slab: Arc<Vec<u8>>,
        off: usize,
        count: usize,
        delta: f64,
    ) -> Result<Self, DistImageError> {
        let bytes = count.checked_mul(DIST_RECORD_BYTES).ok_or(DistImageError::OutOfBounds)?;
        let end = off.checked_add(bytes).ok_or(DistImageError::OutOfBounds)?;
        if end > slab.len() {
            return Err(DistImageError::OutOfBounds);
        }
        let table = Self { delta, slab, off, count };
        table.validate()?;
        Ok(table)
    }

    /// The invariants queries rely on, checked in one pass: a bound that is
    /// neither NaN nor negative, strictly increasing keys, and every
    /// distance within `[0, delta]`.
    fn validate(&self) -> Result<(), DistImageError> {
        if self.delta.is_nan() || self.delta < 0.0 {
            return Err(DistImageError::BadDelta);
        }
        let mut prev = None;
        for i in 0..self.count {
            let key = self.key(i);
            if prev.is_some_and(|p| p >= key) {
                return Err(DistImageError::Unsorted);
            }
            prev = Some(key);
            if !(0.0..=self.delta).contains(&self.dist(i)) {
                return Err(DistImageError::BadDistance);
            }
        }
        Ok(())
    }

    /// The `(src, dst)` key of record `i`, packed high/low for
    /// lexicographic comparison.
    fn key(&self, i: usize) -> u64 {
        let p = self.off + i * DIST_RECORD_BYTES;
        let src = u32::from_le_bytes(self.slab[p..p + 4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(self.slab[p + 4..p + 8].try_into().expect("4 bytes"));
        (u64::from(src)) << 32 | u64::from(dst)
    }

    /// The distance bits of record `i`.
    fn dist(&self, i: usize) -> f64 {
        let p = self.off + i * DIST_RECORD_BYTES + 8;
        f64::from_bits(u64::from_le_bytes(self.slab[p..p + 8].try_into().expect("8 bytes")))
    }

    /// The packed records in key order — exactly the bytes
    /// [`DistTable::from_image`] adopts, which the artifact writer copies
    /// verbatim.
    #[must_use]
    pub fn records(&self) -> &[u8] {
        &self.slab[self.off..self.off + self.count * DIST_RECORD_BYTES]
    }

    /// The distance bound the table was built with.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of stored pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Shortest distance `src → dst` if within `delta`.
    #[must_use]
    pub fn query(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let key = (u64::from(src.0)) << 32 | u64::from(dst.0);
        let (mut lo, mut hi) = (0usize, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(self.dist(mid)),
            }
        }
        None
    }
}

/// Shared, read-only oracle for route distances between on-segment
/// positions; see module docs for the lookup order and sharing model.
#[derive(Debug, Clone)]
pub struct TransitionProvider {
    cache: Arc<DistCache>,
    table: Option<Arc<DistTable>>,
    /// Sharded backend: node distances decompose into intra-shard tables
    /// plus the boundary overlay (see [`ShardedNetwork`]). Pure table
    /// lookups, like `table`, and counted by the same probes.
    sharded: Option<Arc<ShardedNetwork>>,
    /// Table-probe counters (hits = pair in table, misses = beyond delta),
    /// shared across clones like the cache's own counters. Unused without a
    /// table — the Dijkstra backend's per-pair lookups count inside
    /// [`DistCache`].
    table_hits: Arc<AtomicU64>,
    table_misses: Arc<AtomicU64>,
    max_route_m: f64,
}

impl TransitionProvider {
    fn with_backend(
        table: Option<Arc<DistTable>>,
        sharded: Option<Arc<ShardedNetwork>>,
        max_route_m: f64,
    ) -> Self {
        Self {
            cache: Arc::new(DistCache::new()),
            table,
            sharded,
            table_hits: Arc::new(AtomicU64::new(0)),
            table_misses: Arc::new(AtomicU64::new(0)),
            max_route_m,
        }
    }

    /// A Dijkstra-backed provider with its own fresh cache; searches are
    /// bounded by `max_route_m`.
    ///
    /// # Panics
    /// Panics if `max_route_m` is NaN or negative; `+∞` leaves searches
    /// unbounded.
    #[must_use]
    pub fn dijkstra(max_route_m: f64) -> Self {
        assert_bound(max_route_m);
        Self::with_backend(None, None, max_route_m)
    }

    /// A table-backed provider: every mid-route distance comes from the
    /// precomputed `table` (pairs beyond its delta are unreachable, exactly
    /// FMM's contract), so no query ever runs a search.
    #[must_use]
    pub fn with_table(table: Arc<DistTable>) -> Self {
        let max_route_m = table.delta();
        Self::with_backend(Some(table), None, max_route_m)
    }

    /// A shard-backed provider: mid-route distances decompose into
    /// intra-shard table hops plus the boundary overlay
    /// ([`ShardedNetwork::node_dist`]) — pure lookups over the per-shard
    /// tables, no search at query time, same `Some`-iff-within-delta
    /// contract as a whole-graph [`DistTable`].
    #[must_use]
    pub fn with_sharded(sharded: Arc<ShardedNetwork>) -> Self {
        let max_route_m = sharded.delta();
        Self::with_backend(None, Some(sharded), max_route_m)
    }

    /// The attached precomputed table, if any.
    #[must_use]
    pub fn table(&self) -> Option<&Arc<DistTable>> {
        self.table.as_ref()
    }

    /// The attached sharded network, if any.
    #[must_use]
    pub fn sharded(&self) -> Option<&Arc<ShardedNetwork>> {
        self.sharded.as_ref()
    }

    /// The shared read-through cache of the per-pair
    /// [`TransitionProvider::route_dist`] (unused while a table is
    /// attached, and never read by [`TransitionProvider::route_dist_matrix`]).
    #[must_use]
    pub fn cache(&self) -> &Arc<DistCache> {
        &self.cache
    }

    /// The search bound in metres.
    #[must_use]
    pub fn max_route_m(&self) -> f64 {
        self.max_route_m
    }

    /// Lookup counters of the oracle's mid-route stage, for tracking cache
    /// efficacy across runs (the benchmark's `roadnet.shortest.*` and
    /// `roadnet.transition.*`). Table-backed providers count node-pair
    /// probes, per pair or per matrix block (hit = pair within delta);
    /// Dijkstra-backed providers report the shared [`DistCache`]'s counters
    /// (hit = memoised, miss = a sweep ran), which only the per-pair
    /// [`TransitionProvider::route_dist`] feeds — and which include every
    /// other user of that cache when it is shared. Same-segment forward
    /// moves are answered directly and never counted.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        if self.table.is_some() || self.sharded.is_some() {
            CacheStats {
                hits: self.table_hits.load(Ordering::Relaxed),
                misses: self.table_misses.load(Ordering::Relaxed),
                ..CacheStats::default()
            }
        } else {
            self.cache.stats()
        }
    }

    /// Counts one table or overlay probe and passes its answer through.
    fn counted(&self, got: Option<f64>) -> Option<f64> {
        let counter = if got.is_some() { &self.table_hits } else { &self.table_misses };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Directed route distance from `a` to `b` in metres: remaining length
    /// of `a`'s segment, plus the shortest node path, plus the offset into
    /// `b`'s segment; same-segment forward moves are measured directly.
    /// `Ok(None)` when the node path is unreachable within the bound;
    /// `Err` when a position names a segment outside the network — the
    /// provider runs on worker threads, so bad ids must surface as values,
    /// never as panics.
    ///
    /// Mutable search state lives entirely in `pool` — one per worker.
    ///
    /// # Errors
    /// [`TransitionError::SegmentOutOfRange`] when `a.seg` or `b.seg` is not
    /// a segment of `net`.
    pub fn route_dist(
        &self,
        net: &RoadNetwork,
        pool: &mut SsspPool,
        a: NetPos,
        b: NetPos,
    ) -> Result<Option<f64>, TransitionError> {
        let out_of_range =
            |seg| TransitionError::SegmentOutOfRange { seg, num_segments: net.num_segments() };
        let sa = net.try_segment(a.seg).ok_or_else(|| out_of_range(a.seg))?;
        let sb = net.try_segment(b.seg).ok_or_else(|| out_of_range(b.seg))?;
        if a.seg == b.seg && b.ratio >= a.ratio {
            return Ok(Some((b.ratio - a.ratio) * sa.length));
        }
        let mid = match (&self.table, &self.sharded) {
            (Some(t), _) => self.counted(t.query(sa.to, sb.from)),
            (None, Some(sh)) => self.counted(sh.node_dist(sa.to, sb.from)),
            (None, None) => {
                self.cache.node_dist_pooled(net, sa.to, sb.from, self.max_route_m, pool)
            }
        };
        Ok(mid.map(|mid| (1.0 - a.ratio) * sa.length + mid + b.ratio * sb.length))
    }

    /// Fills `out` with the directed route distance from every row
    /// position to every column position: `out.get(k, j)` is
    /// [`TransitionProvider::route_dist`]`(net, pool, rows[k], cols[j])`
    /// bit for bit, with `Err` and `Ok(None)` both read as `None`. Rows
    /// `live` rejects are not computed and read `None`.
    ///
    /// The rows' exit nodes and the columns' entry nodes are deduplicated
    /// first, the node × node block between them is filled in one pass of
    /// the backend — table or overlay probes, or one
    /// [`SsspPool::node_dists_into`] sweep per distinct exit node, which
    /// never reads or fills the [`DistCache`] — and every cell is then
    /// assembled with `route_dist`'s expressions. A node distance does not
    /// depend on which sweep settled it (DESIGN.md §16), so neither does a
    /// cell.
    pub fn route_dist_matrix(
        &self,
        net: &RoadNetwork,
        pool: &mut SsspPool,
        rows: &[NetPos],
        cols: &[NetPos],
        live: impl Fn(usize) -> bool,
        out: &mut RouteMatrix,
    ) {
        let RouteMatrix { cells, width, srcs, row_src, dsts, col_dst, block } = out;
        srcs.clear();
        dsts.clear();
        row_src.clear();
        row_src.extend(rows.iter().enumerate().map(|(k, a)| match net.try_segment(a.seg) {
            Some(sa) if live(k) => index_of(srcs, sa.to),
            _ => NO_NODE,
        }));
        col_dst.clear();
        col_dst.extend(
            cols.iter()
                .map(|b| net.try_segment(b.seg).map_or(NO_NODE, |sb| index_of(dsts, sb.from))),
        );

        block.clear();
        block.resize(srcs.len() * dsts.len(), None);
        if !dsts.is_empty() {
            for (&src, row) in srcs.iter().zip(block.chunks_mut(dsts.len())) {
                match (&self.table, &self.sharded) {
                    (Some(t), _) => {
                        for (cell, &dst) in row.iter_mut().zip(dsts.iter()) {
                            *cell = self.counted(t.query(src, dst));
                        }
                    }
                    (None, Some(sh)) => {
                        for (cell, &dst) in row.iter_mut().zip(dsts.iter()) {
                            *cell = self.counted(sh.node_dist(src, dst));
                        }
                    }
                    (None, None) => {
                        pool.node_dists_into(net, src, dsts, Weight::Length, self.max_route_m, row);
                    }
                }
            }
        }

        *width = cols.len();
        cells.clear();
        cells.resize(rows.len() * cols.len(), None);
        for (k, a) in rows.iter().enumerate() {
            if row_src[k] == NO_NODE {
                continue;
            }
            let sa = net.segment(a.seg);
            let mids = &block[row_src[k] * dsts.len()..];
            for (j, b) in cols.iter().enumerate() {
                if col_dst[j] == NO_NODE {
                    continue;
                }
                cells[k * cols.len() + j] = if a.seg == b.seg && b.ratio >= a.ratio {
                    Some((b.ratio - a.ratio) * sa.length)
                } else {
                    let sb = net.segment(b.seg);
                    mids[col_dst[j]]
                        .map(|mid| (1.0 - a.ratio) * sa.length + mid + b.ratio * sb.length)
                };
            }
        }
    }
}

/// A row or column without a node in a [`RouteMatrix`] block: a dead row or
/// a segment outside the network.
const NO_NODE: usize = usize::MAX;

/// Index of `node` in `nodes`, appending it if absent. A lattice step has a
/// handful of distinct nodes per side, so a linear scan beats hashing.
fn index_of(nodes: &mut Vec<NodeId>, node: NodeId) -> usize {
    nodes.iter().position(|&n| n == node).unwrap_or_else(|| {
        nodes.push(node);
        nodes.len() - 1
    })
}

/// The route-distance matrix of one lattice step, filled by
/// [`TransitionProvider::route_dist_matrix`], together with the buffers
/// that fill it — one per worker, reused every step.
#[derive(Debug, Default)]
pub struct RouteMatrix {
    /// `cells[k * width + j]`: route distance row `k` → column `j`.
    cells: Vec<Option<f64>>,
    width: usize,
    /// Distinct exit nodes of the live rows, and each row's index into
    /// them ([`NO_NODE`]: none).
    srcs: Vec<NodeId>,
    row_src: Vec<usize>,
    /// Distinct entry nodes of the columns, and each column's index.
    dsts: Vec<NodeId>,
    col_dst: Vec<usize>,
    /// `block[s * dsts.len() + d]`: node distance `srcs[s] → dsts[d]`.
    block: Vec<Option<f64>>,
}

impl RouteMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Route distance from row `k` to column `j` of the last fill: `None`
    /// when unreachable within the bound, when either position names a
    /// segment outside the network, or when row `k` was not live.
    ///
    /// # Panics
    /// Panics if `(k, j)` lies outside the last fill's rows × columns.
    #[must_use]
    pub fn get(&self, k: usize, j: usize) -> Option<f64> {
        assert!(j < self.width, "column {j} of {}", self.width);
        self.cells[k * self.width + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_city, NetworkConfig};
    use crate::graph::{RoadClass, SegmentId};
    use crate::shortest::{matched_dist_directed, node_dist};
    use trmma_geom::Vec2;

    /// A hand-computable one-way chain: 0 →100m→ 1 →100m→ 2 →100m→ 3 →100m→ 4.
    fn chain5() -> RoadNetwork {
        let pos = (0..5).map(|i| Vec2::new(100.0 * f64::from(i), 0.0)).collect();
        let edges =
            (0..4).map(|i| (NodeId(i), NodeId(i + 1), RoadClass::Local)).collect::<Vec<_>>();
        RoadNetwork::new(pos, edges)
    }

    #[test]
    fn dist_table_size_pinned_on_hand_computed_chain() {
        // Within delta = 250 m each source reaches itself plus up to two
        // successors: {0,1,2}, {1,2,3}, {2,3,4}, {3,4}, {4} → 12 pairs.
        let net = chain5();
        let table = DistTable::build(&net, 250.0);
        assert_eq!(table.len(), 12);
        assert_eq!(table.delta(), 250.0);
        assert_eq!(table.query(NodeId(0), NodeId(2)), Some(200.0));
        assert_eq!(table.query(NodeId(0), NodeId(3)), None, "300 m exceeds delta");
        assert_eq!(table.query(NodeId(1), NodeId(0)), None, "one-way chain");
        for v in 0..5 {
            assert_eq!(table.query(NodeId(v), NodeId(v)), Some(0.0));
        }
    }

    #[test]
    fn dist_table_matches_bounded_dijkstra_on_city() {
        // Every pair, bit for bit: a node distance does not depend on which
        // sweep settled it (DESIGN.md §16).
        let net = generate_city(&NetworkConfig::with_size(6, 6, 29));
        let delta = 600.0;
        let table = DistTable::build(&net, delta);
        let n = net.num_nodes() as u32;
        for src in 0..n {
            for dst in 0..n {
                let exact = node_dist(&net, NodeId(src), NodeId(dst), Weight::Length, delta);
                assert_eq!(
                    table.query(NodeId(src), NodeId(dst)).map(f64::to_bits),
                    exact.map(f64::to_bits),
                    "{src}->{dst}"
                );
            }
            assert_eq!(table.query(NodeId(src), NodeId(src)), Some(0.0));
        }
        assert_eq!(table.resident_bytes(), table.len() * DIST_RECORD_BYTES);
        // The table grows with its bound.
        assert!(DistTable::build(&net, 200.0).len() < table.len());
        assert!(DistTable::build(&net, 1_200.0).len() > table.len());
        // A built table is a valid image of itself.
        let image = Arc::new(table.records().to_vec());
        let adopted = DistTable::from_image(image, 0, table.len(), delta).unwrap();
        assert_eq!(adopted.records(), table.records());
    }

    #[test]
    fn provider_dijkstra_agrees_with_matched_dist_directed() {
        let net = generate_city(&NetworkConfig::with_size(6, 6, 30));
        let provider = TransitionProvider::dijkstra(5_000.0);
        let mut pool = SsspPool::new();
        let m = net.num_segments() as u32;
        for (s, r1, d, r2) in [(0u32, 0.3, 17u32, 0.6), (5, 0.9, 5, 0.1), (40, 0.0, 3, 0.99)] {
            let a = NetPos::new(SegmentId(s % m), r1);
            let b = NetPos::new(SegmentId(d % m), r2);
            let got = provider.route_dist(&net, &mut pool, a, b).unwrap();
            let want = matched_dist_directed(&net, a, b, 5_000.0, None);
            match (got, want) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{a:?}->{b:?}"),
                (None, None) => {}
                other => panic!("reachability mismatch {a:?}->{b:?}: {other:?}"),
            }
        }
        assert!(provider.cache().stats().misses > 0);
    }

    /// A NaN bound used to admit every path: an all-pairs table whose own
    /// `validate` refuses its delta.
    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got NaN")]
    fn dist_table_build_refuses_a_nan_bound() {
        let _ = DistTable::build(&chain5(), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got -0.5")]
    fn dist_table_build_refuses_a_negative_bound() {
        let _ = DistTable::build(&RoadNetwork::new(Vec::new(), Vec::new()), -0.5);
    }

    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got NaN")]
    fn dijkstra_provider_refuses_a_nan_bound() {
        let _ = TransitionProvider::dijkstra(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "search bound must be >= 0 (+inf allowed), got -inf")]
    fn dijkstra_provider_refuses_a_negative_bound() {
        let _ = TransitionProvider::dijkstra(f64::NEG_INFINITY);
    }

    #[test]
    fn an_infinite_bound_builds_all_reachable_pairs() {
        // The one-way chain reaches 5 + 4 + 3 + 2 + 1 pairs.
        let table = DistTable::build(&chain5(), f64::INFINITY);
        assert_eq!(table.len(), 15);
        assert_eq!(table.query(NodeId(0), NodeId(4)), Some(400.0));
        assert_eq!(TransitionProvider::dijkstra(f64::INFINITY).max_route_m(), f64::INFINITY);
    }

    #[test]
    fn provider_table_and_dijkstra_agree_within_delta() {
        let net = generate_city(&NetworkConfig::with_size(6, 6, 31));
        let delta = 5_000.0;
        let dij = TransitionProvider::dijkstra(delta);
        let tab = TransitionProvider::with_table(Arc::new(DistTable::build(&net, delta)));
        assert_eq!(tab.max_route_m(), delta);
        let mut pool = SsspPool::new();
        let m = net.num_segments() as u32;
        for (s, d) in [(0u32, 9u32), (12, 44), (7, 7), (31, 2)] {
            let a = NetPos::new(SegmentId(s % m), 0.25);
            let b = NetPos::new(SegmentId(d % m), 0.75);
            let x = dij.route_dist(&net, &mut pool, a, b).unwrap();
            let y = tab.route_dist(&net, &mut pool, a, b).unwrap();
            match (x, y) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9),
                (None, None) => {}
                other => panic!("oracle mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn provider_stats_count_table_probes_and_cache_lookups() {
        let net = chain5();
        let mut pool = SsspPool::new();
        // Table-backed: a within-delta pair counts a hit, a beyond-delta
        // pair counts a miss.
        let tab = TransitionProvider::with_table(Arc::new(DistTable::build(&net, 150.0)));
        let near = (NetPos::new(SegmentId(0), 0.5), NetPos::new(SegmentId(1), 0.5));
        let far = (NetPos::new(SegmentId(0), 0.5), NetPos::new(SegmentId(3), 0.5));
        assert!(tab.route_dist(&net, &mut pool, near.0, near.1).unwrap().is_some());
        assert!(tab.route_dist(&net, &mut pool, far.0, far.1).unwrap().is_none());
        assert_eq!(tab.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
        // Clones share the counters (one oracle, many handles).
        let clone = tab.clone();
        assert!(clone.route_dist(&net, &mut pool, near.0, near.1).unwrap().is_some());
        assert_eq!(tab.stats(), CacheStats { hits: 2, misses: 1, ..CacheStats::default() });
        // Dijkstra-backed: stats delegate to the shared DistCache.
        let dij = TransitionProvider::dijkstra(5_000.0);
        assert!(dij.route_dist(&net, &mut pool, near.0, near.1).unwrap().is_some());
        assert!(dij.route_dist(&net, &mut pool, near.0, near.1).unwrap().is_some());
        assert_eq!(dij.stats(), dij.cache().stats());
        let stats = dij.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn route_matrix_probes_each_distinct_node_pair_once() {
        // Rows on segments 0 and 1 (exit nodes 1, 2), twice each; columns
        // on segments 1, 2 and 3 (entry nodes 1, 2, 3) plus segment 1
        // again: 4 × 4 cells, a 2 × 3 node block.
        let net = chain5();
        let tab = TransitionProvider::with_table(Arc::new(DistTable::build(&net, 150.0)));
        let mut pool = SsspPool::new();
        let p = |s: u32, r: f64| NetPos::new(SegmentId(s), r);
        let rows = [p(0, 0.5), p(1, 0.5), p(0, 0.25), p(1, 0.75)];
        let cols = [p(1, 0.5), p(2, 0.5), p(3, 0.5), p(1, 0.9)];
        let mut m = RouteMatrix::new();
        tab.route_dist_matrix(&net, &mut pool, &rows, &cols, |_| true, &mut m);
        assert_eq!(tab.stats().total(), 6, "one probe per distinct node pair");
        let mut pair_pool = SsspPool::new();
        for (k, &a) in rows.iter().enumerate() {
            for (j, &b) in cols.iter().enumerate() {
                let want = tab.route_dist(&net, &mut pair_pool, a, b).unwrap();
                assert_eq!(m.get(k, j).map(f64::to_bits), want.map(f64::to_bits), "{k},{j}");
            }
        }
        // Hand-computed: 50 m to node 1, then 50 m into segment 1; the
        // same-segment forward move 1@0.5 → 1@0.9 is 40 m; 1@0.75 →
        // 1@0.5 goes backward, round the one-way chain: unreachable.
        assert_eq!((m.get(0, 0), m.get(1, 3), m.get(3, 0)), (Some(100.0), Some(40.0), None));
        // Dead rows cost nothing and read `None`.
        let before = tab.stats().total();
        tab.route_dist_matrix(&net, &mut pool, &rows, &cols, |k| k == 1, &mut m);
        assert_eq!(tab.stats().total() - before, 3, "one exit node left");
        assert_eq!((m.get(0, 0), m.get(1, 3)), (None, Some(40.0)));
    }

    #[test]
    fn provider_same_segment_forward_is_direct() {
        let net = chain5();
        let provider = TransitionProvider::dijkstra(1e9);
        let mut pool = SsspPool::new();
        let seg = SegmentId(0);
        let d = provider
            .route_dist(&net, &mut pool, NetPos::new(seg, 0.2), NetPos::new(seg, 0.7))
            .unwrap()
            .unwrap();
        assert!((d - 50.0).abs() < 1e-9);
        // Direct answers never touch the cache.
        assert_eq!(provider.cache().stats().total(), 0);
    }

    #[test]
    fn provider_rejects_out_of_range_segment_instead_of_panicking() {
        // Regression: a segment id from outside the network's own indexes
        // (wire input, snapshot, artifact) used to panic the worker via a
        // direct index; it must surface as a typed error on both endpoints.
        let net = chain5();
        let provider = TransitionProvider::dijkstra(1e9);
        let mut pool = SsspPool::new();
        let bogus = SegmentId(net.num_segments() as u32 + 7);
        let ok = NetPos::new(SegmentId(0), 0.5);
        for (a, b) in [(NetPos::new(bogus, 0.5), ok), (ok, NetPos::new(bogus, 0.5))] {
            assert_eq!(
                provider.route_dist(&net, &mut pool, a, b),
                Err(TransitionError::SegmentOutOfRange {
                    seg: bogus,
                    num_segments: net.num_segments()
                })
            );
        }
        // And the error formats without panicking.
        let msg = provider.route_dist(&net, &mut pool, NetPos::new(bogus, 0.5), ok).unwrap_err();
        assert!(msg.to_string().contains("out of range"));
    }

    #[test]
    fn image_backed_table_answers_identically_to_built() {
        let net = generate_city(&NetworkConfig::with_size(6, 6, 33));
        let built = DistTable::build(&net, 700.0);
        // Adopted from a record range inside a larger slab, as an artifact
        // section is.
        let mut slab = vec![0xAB; 24];
        slab.extend_from_slice(built.records());
        slab.extend_from_slice(&[0xCD; 8]);
        let loaded = DistTable::from_image(Arc::new(slab), 24, built.len(), built.delta()).unwrap();
        assert_eq!(loaded.len(), built.len());
        assert_eq!(loaded.delta(), built.delta());
        assert_eq!(loaded.records(), built.records());
        assert_eq!(loaded.resident_bytes(), built.resident_bytes());
        for src in 0..net.num_nodes() as u32 {
            for dst in 0..net.num_nodes() as u32 {
                let (b, l) =
                    (built.query(NodeId(src), NodeId(dst)), loaded.query(NodeId(src), NodeId(dst)));
                assert_eq!(b.map(f64::to_bits), l.map(f64::to_bits), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn image_rejects_unsorted_and_out_of_bounds() {
        let net = chain5();
        let built = DistTable::build(&net, 250.0);
        let image = built.records().to_vec();
        let n = built.len();
        // Swapping two records breaks strict ordering.
        let mut bad = image.clone();
        bad.copy_within(0..DIST_RECORD_BYTES, DIST_RECORD_BYTES);
        assert_eq!(
            DistTable::from_image(Arc::new(bad), 0, n, 250.0).unwrap_err(),
            DistImageError::Unsorted
        );
        // A duplicated key (non-strict) is also rejected.
        let mut dup = image.clone();
        let (first, rest) = dup.split_at_mut(DIST_RECORD_BYTES);
        rest[..DIST_RECORD_BYTES].copy_from_slice(first);
        assert_eq!(
            DistTable::from_image(Arc::new(dup), 0, n, 250.0).unwrap_err(),
            DistImageError::Unsorted
        );
        // Count overrunning the slab is rejected, as is a bad offset.
        let slab = Arc::new(image);
        assert_eq!(
            DistTable::from_image(Arc::clone(&slab), 0, n + 1, 250.0).unwrap_err(),
            DistImageError::OutOfBounds
        );
        assert_eq!(
            DistTable::from_image(Arc::clone(&slab), 8, n, 250.0).unwrap_err(),
            DistImageError::OutOfBounds
        );
        assert_eq!(
            DistTable::from_image(Arc::clone(&slab), usize::MAX, 1, 250.0).unwrap_err(),
            DistImageError::OutOfBounds
        );
        // A NaN or negative bound is rejected, and so is any distance a
        // bound check downstream would mis-answer.
        for delta in [f64::NAN, -1.0] {
            assert_eq!(
                DistTable::from_image(Arc::clone(&slab), 0, n, delta).unwrap_err(),
                DistImageError::BadDelta
            );
        }
        assert_eq!(
            DistTable::from_image(Arc::clone(&slab), 0, n, 150.0).unwrap_err(),
            DistImageError::BadDistance,
            "a 200 m record exceeds a 150 m bound"
        );
        for dist in [f64::NAN, -1.0, 250.5] {
            let mut bad = (*slab).clone();
            bad[n * DIST_RECORD_BYTES - 8..].copy_from_slice(&dist.to_bits().to_le_bytes());
            assert_eq!(
                DistTable::from_image(Arc::new(bad), 0, n, 250.0).unwrap_err(),
                DistImageError::BadDistance,
                "{dist}"
            );
        }
        // The pristine image still loads, also at an infinite bound.
        assert!(DistTable::from_image(Arc::clone(&slab), 0, n, f64::INFINITY).is_ok());
        assert!(DistTable::from_image(slab, 0, n, 250.0).is_ok());
    }
}
