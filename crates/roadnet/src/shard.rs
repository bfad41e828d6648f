//! Grid-tiled road-network shards with a boundary-node overlay.
//!
//! Everything upstream of this module assumes one in-memory
//! [`RoadNetwork`] small enough to own per process. For continent-scale
//! maps the graph must be **partitioned**: a [`ShardPlan`] (produced by a
//! pluggable [`CutStrategy`]) assigns every node to a tile, and
//! [`ShardedNetwork`] gives each tile its own R-tree and its own bounded
//! intra-shard [`DistTable`] — while cross-shard route distances are
//! stitched through a **boundary-node overlay**:
//!
//! * a *cross edge* is a segment whose endpoints live in different shards;
//! * the **exit borders** of shard `s` are its nodes with an outgoing
//!   cross edge; the **entry borders** are nodes with an incoming one;
//! * the overlay stores the full-graph bounded distance from every exit
//!   border to every entry border (computed with the same machinery as
//!   [`DistTable::build`], one bounded sweep per exit border).
//!
//! A distance query `u → v` then decomposes, minimising over border
//! pairs:
//!
//! ```text
//! d(u, v) = min( intra_s(u, v)                       [same shard only],
//!                min over x ∈ exit(s), y ∈ entry(t) of
//!                    intra_s(u, x) + overlay(x, y) + intra_t(y, v) )
//! ```
//!
//! **Exactness.** Any optimal path within the bound either stays in `s`
//! (covered by `intra_s`, which is the bounded Dijkstra on the subgraph
//! induced by `s`) or crosses a shard boundary. In the latter case let
//! `x` be the tail of its *first* cross edge and `y` the head of its
//! *last*: the prefix `u → x` uses only nodes of `s` (every earlier edge
//! is intra-shard), the suffix `y → v` only nodes of `t`, and the middle
//! `x → y` is a full-graph path — so `intra_s(u,x) + overlay(x,y) +
//! intra_t(y,v)` is at most the path's length, while every candidate sum
//! is at least the true distance by the triangle inequality. The minimum
//! therefore *equals* the whole-graph distance, and each leg of an
//! optimal `≤ δ` path is itself `≤ δ`, so all three lookups land inside
//! the δ-bounded tables. Note the border-pair term also covers same-shard
//! queries whose optimal path *leaves and re-enters* the shard: the
//! overlay is a full-graph distance, so `x, y` may belong to the same
//! shard. Floating-point caveat: the decomposed sum associates
//! differently from the monolithic Dijkstra's running sum, so bitwise
//! identity holds exactly when edge lengths are FP-exact (e.g. integer
//! metres — see `tests/props_shard.rs`); on arbitrary geometry the two
//! agree to within ulps.
//!
//! Candidate search works per shard too: each shard's R-tree indexes the
//! segments it owns (a segment belongs to the shard of its `from` node),
//! and `trmma_traj::CandidateFinder` merges per-shard ties-inclusive
//! top-k results into the same canonical candidate set a whole-network
//! tree produces.

use std::sync::Arc;

use trmma_rtree::{IndexedSegment, RTree};

use crate::graph::{NodeId, RoadNetwork, SegmentId};
use crate::shortest::{SsspPool, Weight};
use crate::transition::DistTable;

/// Produces a node-to-shard assignment for a network. Implementations
/// must be deterministic: the same strategy on the same network yields
/// the same cut (plans travel through artifacts and must reconstruct
/// identically).
pub trait CutStrategy {
    /// `(num_shards, assignment)` where `assignment[i]` is the shard of
    /// node `i` and every label is `< num_shards`. Shards may be empty.
    fn cut(&self, net: &RoadNetwork) -> (usize, Vec<u32>);
}

/// Axis-aligned grid cut: the network bbox is divided into
/// `tiles_x × tiles_y` cells and every node is assigned the cell that
/// contains it. `seed` jitters the cut lines by a deterministic fraction
/// of a cell, so property tests exercise many distinct boundaries on one
/// network without losing spatial contiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCut {
    /// Number of tile columns (min 1).
    pub tiles_x: usize,
    /// Number of tile rows (min 1).
    pub tiles_y: usize,
    /// Deterministic jitter applied to the cut lines.
    pub seed: u64,
}

/// SplitMix64 step — a cheap deterministic hash for cut jitter and the
/// [`HashCut`] assignment.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl GridCut {
    /// A grid cut with `tiles_x * tiles_y == n` tiles, picking the factor
    /// pair closest to square (falling back to `1 × n` for primes) — the
    /// shape behind `trmma-artifacts build --shards N`.
    #[must_use]
    pub fn square(n: usize, seed: u64) -> Self {
        let n = n.max(1);
        let mut best = (1usize, n);
        let mut a = 1usize;
        while a * a <= n {
            if n.is_multiple_of(a) {
                best = (a, n / a);
            }
            a += 1;
        }
        Self { tiles_x: best.1, tiles_y: best.0, seed }
    }
}

impl CutStrategy for GridCut {
    fn cut(&self, net: &RoadNetwork) -> (usize, Vec<u32>) {
        let (tx, ty) = (self.tiles_x.max(1), self.tiles_y.max(1));
        let num = tx * ty;
        let bbox = net.bbox();
        let w = (bbox.max.x - bbox.min.x).max(1e-9);
        let h = (bbox.max.y - bbox.min.y).max(1e-9);
        // Jitter each cut axis by up to half a cell, derived from the seed.
        let jx = (splitmix64(self.seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let jy = (splitmix64(self.seed ^ 0xdead_beef) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let assign = (0..net.num_nodes() as u32)
            .map(|i| {
                let p = net.node_pos(NodeId(i));
                let fx = (p.x - bbox.min.x) / w * tx as f64 + jx;
                let fy = (p.y - bbox.min.y) / h * ty as f64 + jy;
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let cx = (fx.floor().max(0.0) as usize).min(tx - 1);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let cy = (fy.floor().max(0.0) as usize).min(ty - 1);
                (cy * tx + cx) as u32
            })
            .collect();
        (num, assign)
    }
}

/// Adversarial cut: every node hashed independently to a shard, so almost
/// every edge is a cross edge. Useless for locality, invaluable for
/// correctness tests — the overlay must carry essentially all traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashCut {
    /// Number of shards (min 1).
    pub num_shards: usize,
    /// Hash seed.
    pub seed: u64,
}

impl CutStrategy for HashCut {
    fn cut(&self, net: &RoadNetwork) -> (usize, Vec<u32>) {
        let n = self.num_shards.max(1);
        let assign = (0..net.num_nodes() as u64)
            .map(|i| {
                #[allow(clippy::cast_possible_truncation)]
                let s = (splitmix64(i ^ self.seed.rotate_left(17)) % n as u64) as u32;
                s
            })
            .collect();
        (n, assign)
    }
}

/// A validated node-to-shard assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    num_shards: usize,
    shard_of: Vec<u32>,
}

impl ShardPlan {
    /// Runs `strategy` over `net` and validates the assignment.
    ///
    /// # Panics
    /// Panics if the strategy emits a label `>= num_shards` or the wrong
    /// number of labels — both are implementation bugs of the strategy,
    /// not data errors.
    #[must_use]
    pub fn new(net: &RoadNetwork, strategy: &dyn CutStrategy) -> Self {
        let (num_shards, shard_of) = strategy.cut(net);
        Self::from_assignment(num_shards, shard_of, net.num_nodes())
    }

    /// Adopts a precomputed assignment (e.g. deserialized from an
    /// artifact).
    ///
    /// # Panics
    /// Panics if `shard_of.len() != num_nodes`, `num_shards == 0`, or any
    /// label is out of range.
    #[must_use]
    pub fn from_assignment(num_shards: usize, shard_of: Vec<u32>, num_nodes: usize) -> Self {
        assert!(num_shards >= 1, "a plan needs at least one shard");
        assert_eq!(shard_of.len(), num_nodes, "one shard label per node");
        assert!(shard_of.iter().all(|&s| (s as usize) < num_shards), "shard label out of range");
        Self { num_shards, shard_of }
    }

    /// Number of shards (some may own no nodes).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The shard owning node `n`.
    ///
    /// # Panics
    /// Panics if `n` is not a node of the planned network.
    #[must_use]
    pub fn shard_of(&self, n: NodeId) -> u32 {
        self.shard_of[n.idx()]
    }

    /// The raw per-node assignment, indexed by node id.
    #[must_use]
    pub fn assignment(&self) -> &[u32] {
        &self.shard_of
    }
}

/// One tile of a [`ShardedNetwork`]: the segments and nodes it owns, its
/// R-tree over those segments, its border nodes and its bounded
/// intra-shard distance table.
#[derive(Debug)]
pub struct Shard {
    /// Global ids of the nodes assigned to this shard, ascending.
    nodes: Vec<NodeId>,
    /// Global ids of the segments owned by this shard (a segment belongs
    /// to the shard of its `from` node), ascending.
    segments: Vec<SegmentId>,
    /// R-tree over the owned segments; `IndexedSegment::id` is the
    /// *global* segment id.
    tree: RTree<IndexedSegment>,
    /// Nodes of this shard with an outgoing cross edge, ascending.
    exit_borders: Vec<NodeId>,
    /// Nodes of this shard with an incoming cross edge, ascending.
    entry_borders: Vec<NodeId>,
    /// Bounded all-pairs distances on the subgraph induced by `nodes`
    /// (keys are global node ids).
    intra: DistTable,
}

impl Shard {
    /// Global node ids assigned to this shard, ascending.
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Global segment ids owned by this shard, ascending.
    #[must_use]
    pub fn segments(&self) -> &[SegmentId] {
        &self.segments
    }

    /// The shard's R-tree; item ids are global segment ids.
    #[must_use]
    pub fn tree(&self) -> &RTree<IndexedSegment> {
        &self.tree
    }

    /// Exit borders: shard nodes with an outgoing cross edge.
    #[must_use]
    pub fn exit_borders(&self) -> &[NodeId] {
        &self.exit_borders
    }

    /// Entry borders: shard nodes with an incoming cross edge.
    #[must_use]
    pub fn entry_borders(&self) -> &[NodeId] {
        &self.entry_borders
    }

    /// The bounded intra-shard distance table (global node ids).
    #[must_use]
    pub fn intra(&self) -> &DistTable {
        &self.intra
    }
}

/// Derives every shard of `plan` over `net` — owned nodes and segments,
/// exit and entry borders (all ascending) and the R-tree — and asks
/// `intra(s, nodes)` for shard `s`'s table. The one partition pass behind
/// both [`ShardedNetwork::build`] and [`ShardedNetwork::from_parts`].
fn derive_shards(
    net: &RoadNetwork,
    plan: &ShardPlan,
    mut intra: impl FnMut(usize, &[NodeId]) -> DistTable,
) -> Vec<Shard> {
    assert_eq!(plan.assignment().len(), net.num_nodes(), "plan is for another network");
    let num = plan.num_shards();
    let mut nodes: Vec<Vec<NodeId>> = vec![Vec::new(); num];
    let mut segments: Vec<Vec<SegmentId>> = vec![Vec::new(); num];
    let mut is_exit = vec![false; net.num_nodes()];
    let mut is_entry = vec![false; net.num_nodes()];
    for i in 0..net.num_nodes() as u32 {
        nodes[plan.shard_of(NodeId(i)) as usize].push(NodeId(i));
    }
    for seg_id in net.segment_ids() {
        let seg = net.segment(seg_id);
        let sf = plan.shard_of(seg.from);
        segments[sf as usize].push(seg_id);
        if sf != plan.shard_of(seg.to) {
            is_exit[seg.from.idx()] = true;
            is_entry[seg.to.idx()] = true;
        }
    }
    nodes
        .into_iter()
        .zip(segments)
        .enumerate()
        .map(|(s, (nodes, segments))| {
            let tree = RTree::bulk_load(
                segments
                    .iter()
                    .map(|&id| IndexedSegment { id: id.0, line: net.segment(id).line })
                    .collect(),
            );
            let borders = |mark: &[bool]| nodes.iter().copied().filter(|n| mark[n.idx()]).collect();
            Shard {
                exit_borders: borders(&is_exit),
                entry_borders: borders(&is_entry),
                intra: intra(s, &nodes),
                tree,
                nodes,
                segments,
            }
        })
        .collect()
}

/// A road network partitioned into shards with a boundary-node overlay;
/// see the module docs for the decomposition and its exactness argument.
#[derive(Debug)]
pub struct ShardedNetwork {
    net: Arc<RoadNetwork>,
    plan: ShardPlan,
    delta: f64,
    shards: Vec<Shard>,
    /// Full-graph bounded distances from every exit border to every entry
    /// border (global node ids).
    overlay: DistTable,
}

impl ShardedNetwork {
    /// Partitions `net` under `plan` and precomputes every shard's intra
    /// table plus the border overlay, all bounded by `delta` — the same
    /// bound a monolithic [`DistTable::build`] would use.
    #[must_use]
    pub fn build(net: Arc<RoadNetwork>, plan: ShardPlan, delta: f64) -> Self {
        let mut pool = SsspPool::new();
        // Intra tables: bounded Dijkstra restricted to the shard's own node
        // set, one sweep per owned node.
        let shards = derive_shards(&net, &plan, |s, nodes| {
            DistTable::from_sweeps(nodes.iter().copied(), delta, |src, reach| {
                let own = |n| plan.shard_of(n) as usize == s;
                pool.bounded_sssp_filtered_into(&net, src, Weight::Length, delta, own, reach);
            })
        });
        // Overlay: a *full-graph* bounded sweep per exit border, kept to the
        // entry borders of every shard (a same-shard path may leave and
        // re-enter). Each exit border belongs to one shard, so the sorted
        // union is a strictly ascending source list.
        let mut is_entry = vec![false; net.num_nodes()];
        for y in shards.iter().flat_map(Shard::entry_borders) {
            is_entry[y.idx()] = true;
        }
        let mut exits: Vec<NodeId> = shards.iter().flat_map(Shard::exit_borders).copied().collect();
        exits.sort_unstable();
        let overlay = DistTable::from_sweeps(exits, delta, |x, reach| {
            pool.bounded_sssp_into(&net, x, Weight::Length, delta, reach);
            reach.retain(|&(y, _)| is_entry[y.idx()]);
        });
        Self { net, plan, delta, shards, overlay }
    }

    /// Reassembles a sharded network from precomputed tables (the artifact
    /// load path): borders, segment lists and R-trees are derived from
    /// `net` + `plan` by the same pass [`ShardedNetwork::build`] runs,
    /// while the intra tables and overlay are adopted as-is (typically
    /// zero-copy from an image). Answers are bitwise-identical to a fresh
    /// build when the tables came from one.
    ///
    /// # Panics
    /// Panics if `intra.len() != plan.num_shards()` or a table's delta
    /// disagrees with `delta`.
    #[must_use]
    pub fn from_parts(
        net: Arc<RoadNetwork>,
        plan: ShardPlan,
        delta: f64,
        intra: Vec<DistTable>,
        overlay: DistTable,
    ) -> Self {
        assert_eq!(intra.len(), plan.num_shards(), "one intra table per shard");
        assert!(
            intra.iter().chain(std::iter::once(&overlay)).all(|t| t.delta() == delta),
            "table delta mismatch"
        );
        let mut intra = intra.into_iter();
        let shards = derive_shards(&net, &plan, |_, _| intra.next().expect("counted above"));
        Self { net, plan, delta, shards, overlay }
    }

    /// The underlying whole network (geometry and adjacency are shared,
    /// not copied, so decoders keep reading segments through it).
    #[must_use]
    pub fn net(&self) -> &Arc<RoadNetwork> {
        &self.net
    }

    /// The node-to-shard assignment.
    #[must_use]
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The distance bound every table was built with.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in id order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The border-to-border overlay table (global node ids).
    #[must_use]
    pub fn overlay(&self) -> &DistTable {
        &self.overlay
    }

    /// Bounded shortest distance `src → dst`, decomposed over shards:
    /// intra-shard hop + overlay lookup + intra-shard hop, minimised over
    /// border pairs (plus the direct intra table when both endpoints share
    /// a shard). `Some` iff the whole-graph distance is within `delta` —
    /// the same contract as querying a monolithic
    /// [`DistTable::build`]`(net, delta)` table.
    #[must_use]
    pub fn node_dist(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let s = &self.shards[self.plan.shard_of(src) as usize];
        let t = &self.shards[self.plan.shard_of(dst) as usize];
        let mut best = f64::INFINITY;
        if std::ptr::eq(s, t) {
            if let Some(d) = s.intra.query(src, dst) {
                best = d;
            }
        }
        for &x in &s.exit_borders {
            let Some(head) = s.intra.query(src, x) else { continue };
            for &y in &t.entry_borders {
                let Some(mid) = self.overlay.query(x, y) else { continue };
                let Some(tail) = t.intra.query(y, dst) else { continue };
                let cand = head + mid + tail;
                if cand < best {
                    best = cand;
                }
            }
        }
        if best <= self.delta {
            Some(best)
        } else {
            None
        }
    }

    /// Total resident bytes: every shard's table records, R-tree items and
    /// node-id lists, plus the overlay's records.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| {
                sh.intra.resident_bytes()
                    + sh.segments.len() * std::mem::size_of::<IndexedSegment>()
                    + (sh.nodes.len() + sh.exit_borders.len() + sh.entry_borders.len()) * 4
            })
            .sum::<usize>()
            + self.overlay.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_city, NetworkConfig};
    use crate::graph::RoadClass;
    use trmma_geom::Vec2;

    /// The transition-module chain: 0 →100m→ 1 →100m→ 2 →100m→ 3 →100m→ 4,
    /// cut into two shards {0,1,2} | {3,4}. One cross edge 2→3, so shard 0
    /// has exit border {2}, shard 1 entry border {3}.
    fn chain5_two_shards() -> (Arc<RoadNetwork>, ShardedNetwork) {
        let pos = (0..5).map(|i| Vec2::new(100.0 * f64::from(i), 0.0)).collect();
        let edges =
            (0..4).map(|i| (NodeId(i), NodeId(i + 1), RoadClass::Local)).collect::<Vec<_>>();
        let net = Arc::new(RoadNetwork::new(pos, edges));
        let plan = ShardPlan::from_assignment(2, vec![0, 0, 0, 1, 1], 5);
        let sharded = ShardedNetwork::build(Arc::clone(&net), plan, 250.0);
        (net, sharded)
    }

    #[test]
    fn pinned_two_shard_chain_decomposes_by_hand() {
        let (_, sh) = chain5_two_shards();
        assert_eq!(sh.num_shards(), 2);
        assert_eq!(sh.shards()[0].exit_borders(), &[NodeId(2)]);
        assert_eq!(sh.shards()[0].entry_borders(), &[] as &[NodeId]);
        assert_eq!(sh.shards()[1].exit_borders(), &[] as &[NodeId]);
        assert_eq!(sh.shards()[1].entry_borders(), &[NodeId(3)]);
        // Intra shard 0 within 250 m: {0,1,2} one-way → 0→1, 0→2, 1→2 + selves.
        assert_eq!(sh.shards()[0].intra().len(), 6);
        // Intra shard 1: {3,4} → 3→4 + selves.
        assert_eq!(sh.shards()[1].intra().len(), 3);
        // Overlay: exit 2 reaches entry 3 at exactly 100 m.
        assert_eq!(sh.overlay().len(), 1);
        assert_eq!(sh.overlay().query(NodeId(2), NodeId(3)), Some(100.0));
        // Cross-shard: 2 → 4 = intra(2,2)=0 + overlay(2,3)=100 + intra(3,4)=100.
        assert_eq!(sh.node_dist(NodeId(2), NodeId(4)), Some(200.0));
        assert_eq!(sh.node_dist(NodeId(1), NodeId(4)), None, "300 m exceeds delta");
        assert_eq!(sh.node_dist(NodeId(1), NodeId(3)), Some(200.0));
        // Same-shard answers come from the intra table.
        assert_eq!(sh.node_dist(NodeId(0), NodeId(2)), Some(200.0));
        assert_eq!(sh.node_dist(NodeId(3), NodeId(4)), Some(100.0));
        // One-way chain: nothing goes backwards.
        assert_eq!(sh.node_dist(NodeId(4), NodeId(0)), None);
        // The whole-graph table agrees pair-for-pair.
        let mono = DistTable::build(sh.net(), 250.0);
        for s in 0..5u32 {
            for d in 0..5u32 {
                assert_eq!(
                    sh.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    mono.query(NodeId(s), NodeId(d)).map(f64::to_bits),
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn sharded_dist_matches_monolithic_table_on_city() {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(6, 6, 29)));
        let delta = 600.0;
        let mono = DistTable::build(&net, delta);
        for (cut, label) in [
            (Box::new(GridCut { tiles_x: 2, tiles_y: 2, seed: 9 }) as Box<dyn CutStrategy>, "grid"),
            (Box::new(HashCut { num_shards: 5, seed: 3 }) as Box<dyn CutStrategy>, "hash"),
        ] {
            let plan = ShardPlan::new(&net, cut.as_ref());
            let sh = ShardedNetwork::build(Arc::clone(&net), plan, delta);
            for src in 0..net.num_nodes() as u32 {
                for dst in 0..net.num_nodes() as u32 {
                    let got = sh.node_dist(NodeId(src), NodeId(dst));
                    let want = mono.query(NodeId(src), NodeId(dst));
                    match (got, want) {
                        (Some(g), Some(w)) => {
                            assert!((g - w).abs() < 1e-9, "{label} {src}->{dst}: {g} vs {w}");
                        }
                        (None, None) => {}
                        other => panic!("{label} {src}->{dst} reachability: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn every_segment_and_node_is_owned_exactly_once() {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(5, 5, 11)));
        let plan = ShardPlan::new(&net, &GridCut { tiles_x: 3, tiles_y: 2, seed: 4 });
        let sh = ShardedNetwork::build(Arc::clone(&net), plan, 500.0);
        let mut node_owned = vec![0usize; net.num_nodes()];
        let mut seg_owned = vec![0usize; net.num_segments()];
        for shard in sh.shards() {
            for n in shard.nodes() {
                node_owned[n.idx()] += 1;
            }
            for s in shard.segments() {
                seg_owned[s.idx()] += 1;
            }
            assert_eq!(shard.tree().len(), shard.segments().len());
        }
        assert!(node_owned.iter().all(|&c| c == 1));
        assert!(seg_owned.iter().all(|&c| c == 1));
        assert_eq!(sh.shards().len(), sh.num_shards());
        // Tables count 16 bytes a record, trees one `IndexedSegment` per
        // segment, id lists 4 bytes an id.
        let borders: usize =
            sh.shards().iter().map(|s| s.exit_borders().len() + s.entry_borders().len()).sum();
        let records: usize =
            sh.overlay().len() + sh.shards().iter().map(|s| s.intra().len()).sum::<usize>();
        assert_eq!(
            sh.resident_bytes(),
            records * 16
                + net.num_segments() * std::mem::size_of::<IndexedSegment>()
                + (net.num_nodes() + borders) * 4
        );
    }

    #[test]
    fn from_parts_reconstructs_identically() {
        let net = Arc::new(generate_city(&NetworkConfig::with_size(5, 5, 21)));
        let delta = 550.0;
        let plan = ShardPlan::new(&net, &GridCut { tiles_x: 2, tiles_y: 2, seed: 1 });
        let built = ShardedNetwork::build(Arc::clone(&net), plan.clone(), delta);
        // Round-trip the tables through copies of their record bytes, as
        // the artifact path does.
        let copy = |t: &DistTable| {
            DistTable::from_image(Arc::new(t.records().to_vec()), 0, t.len(), delta).unwrap()
        };
        let intra = built.shards().iter().map(|s| copy(s.intra())).collect();
        let re =
            ShardedNetwork::from_parts(Arc::clone(&net), plan, delta, intra, copy(built.overlay()));
        for s in (0..net.num_nodes() as u32).step_by(3) {
            for d in (0..net.num_nodes() as u32).step_by(2) {
                assert_eq!(
                    built.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    re.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits)
                );
            }
        }
        for (a, b) in built.shards().iter().zip(re.shards()) {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.segments(), b.segments());
            assert_eq!(a.exit_borders(), b.exit_borders());
            assert_eq!(a.entry_borders(), b.entry_borders());
        }
    }

    #[test]
    fn grid_cut_square_factors_and_plan_validation() {
        assert_eq!(GridCut::square(4, 0), GridCut { tiles_x: 2, tiles_y: 2, seed: 0 });
        assert_eq!(GridCut::square(6, 0), GridCut { tiles_x: 3, tiles_y: 2, seed: 0 });
        assert_eq!(GridCut::square(7, 0), GridCut { tiles_x: 7, tiles_y: 1, seed: 0 });
        assert_eq!(GridCut::square(1, 0), GridCut { tiles_x: 1, tiles_y: 1, seed: 0 });
        let net = generate_city(&NetworkConfig::with_size(4, 4, 2));
        let plan = ShardPlan::new(&net, &GridCut::square(4, 5));
        assert_eq!(plan.num_shards(), 4);
        assert_eq!(plan.assignment().len(), net.num_nodes());
        // A single-shard plan degenerates to the monolithic table.
        let one = ShardPlan::new(&net, &GridCut::square(1, 0));
        let sh = ShardedNetwork::build(Arc::new(net.clone()), one, 400.0);
        assert!(sh.shards()[0].exit_borders().is_empty());
        assert!(sh.overlay().is_empty());
        let mono = DistTable::build(&net, 400.0);
        for s in (0..net.num_nodes() as u32).step_by(4) {
            for d in (0..net.num_nodes() as u32).step_by(5) {
                assert_eq!(
                    sh.node_dist(NodeId(s), NodeId(d)).map(f64::to_bits),
                    mono.query(NodeId(s), NodeId(d)).map(f64::to_bits)
                );
            }
        }
    }
}
