//! The directed road-network graph.

use trmma_geom::{BBox, SegLine, Vec2};
use trmma_rtree::{IndexedSegment, RTree};

/// Identifier of an intersection / road end (index into the node arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of a directed road segment (index into the segment arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

impl NodeId {
    /// The arena index as `usize`.
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl SegmentId {
    /// The arena index as `usize`.
    #[must_use]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Functional class of a road, determining its free-flow speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Arterial / trunk roads.
    Arterial,
    /// Collector / secondary roads.
    Collector,
    /// Local / residential streets.
    Local,
}

impl RoadClass {
    /// Free-flow speed in metres per second.
    #[must_use]
    pub fn speed_mps(self) -> f64 {
        match self {
            RoadClass::Arterial => 16.7,  // ~60 km/h
            RoadClass::Collector => 11.1, // ~40 km/h
            RoadClass::Local => 8.3,      // ~30 km/h
        }
    }
}

/// A directed road segment `e = (u, v)` with geometry.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Entrance node `u`.
    pub from: NodeId,
    /// Exit node `v`.
    pub to: NodeId,
    /// Straight-line geometry from entrance to exit.
    pub line: SegLine,
    /// Length in metres: exactly `from`'s position `.dist(to's)` — the
    /// chord, bit for bit, as [`RoadNetwork::new`] sets it. Goal-directed
    /// sweeps ([`SsspPool`](crate::shortest::SsspPool)) rest on it: no path
    /// is shorter than the straight line between its ends.
    pub length: f64,
    /// Functional class.
    pub class: RoadClass,
}

impl Segment {
    /// Free-flow traversal time in seconds.
    #[must_use]
    pub fn travel_time_s(&self) -> f64 {
        self.length / self.class.speed_mps()
    }
}

/// The road network `G = (V, E)` (Definition 1).
///
/// Storage is arena-based (`Vec` indexed by the id newtypes); adjacency is
/// precomputed in both directions. `n = |E|` is
/// [`RoadNetwork::num_segments`], `m = |V|` is [`RoadNetwork::num_nodes`].
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    node_pos: Vec<Vec2>,
    segments: Vec<Segment>,
    /// Per node: segments leaving it.
    out_segs: Vec<Vec<SegmentId>>,
    /// Per node: segments entering it.
    in_segs: Vec<Vec<SegmentId>>,
    /// For each segment, the opposite-direction twin if the road is two-way.
    reverse_twin: Vec<Option<SegmentId>>,
    /// Process-unique identity token; see [`RoadNetwork::uid`].
    uid: u64,
}

/// Source of [`RoadNetwork::uid`] tokens. Starts at 1 so 0 can mean "no
/// network" in caches keyed by uid.
static NEXT_NET_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl RoadNetwork {
    /// Builds a network from node positions and `(from, to, class)` edges.
    ///
    /// Geometry and length are derived from the node positions: a
    /// segment's length is the chord `node_pos[from].dist(node_pos[to])`,
    /// bit for bit. This is the only constructor (artifact decode comes
    /// through it too), so every network keeps that invariant. Duplicate
    /// edges and self-loops are dropped (they carry no information for map
    /// matching and break route planning invariants).
    ///
    /// # Panics
    /// Panics if an edge references a node out of range.
    #[must_use]
    pub fn new(node_pos: Vec<Vec2>, edges: Vec<(NodeId, NodeId, RoadClass)>) -> Self {
        let n_nodes = node_pos.len();
        let mut seen = std::collections::HashSet::new();
        let mut segments = Vec::with_capacity(edges.len());
        for (from, to, class) in edges {
            assert!(from.idx() < n_nodes, "edge from-node out of range");
            assert!(to.idx() < n_nodes, "edge to-node out of range");
            if from == to || !seen.insert((from, to)) {
                continue;
            }
            let line = SegLine::new(node_pos[from.idx()], node_pos[to.idx()]);
            let length = line.length();
            segments.push(Segment { from, to, line, length, class });
        }

        let mut out_segs = vec![Vec::new(); n_nodes];
        let mut in_segs = vec![Vec::new(); n_nodes];
        for (i, seg) in segments.iter().enumerate() {
            out_segs[seg.from.idx()].push(SegmentId(i as u32));
            in_segs[seg.to.idx()].push(SegmentId(i as u32));
        }

        let index: std::collections::HashMap<(NodeId, NodeId), SegmentId> = segments
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.from, s.to), SegmentId(i as u32)))
            .collect();
        let reverse_twin = segments.iter().map(|s| index.get(&(s.to, s.from)).copied()).collect();

        let uid = NEXT_NET_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self { node_pos, segments, out_segs, in_segs, reverse_twin, uid }
    }

    /// A process-unique token identifying this network's contents.
    ///
    /// Every [`RoadNetwork::new`] call mints a fresh token; clones share
    /// their original's token, which is sound because a network is immutable
    /// after construction — equal tokens imply equal graphs. Warm search
    /// state ([`SsspPool`](crate::shortest::SsspPool)) is keyed on it so
    /// state from one network can never answer queries about another.
    #[must_use]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Number of intersections `m = |V|`.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_pos.len()
    }

    /// Number of road segments `n = |E|`.
    #[must_use]
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Position of a node.
    #[must_use]
    pub fn node_pos(&self, id: NodeId) -> Vec2 {
        self.node_pos[id.idx()]
    }

    /// A segment by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range; use [`RoadNetwork::try_segment`] for
    /// ids from untrusted input.
    #[must_use]
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.idx()]
    }

    /// A segment by id, or `None` when the id is out of range — the
    /// non-panicking lookup for ids that arrive from outside the network's
    /// own indexes (wire input, snapshots, artifacts).
    #[must_use]
    pub fn try_segment(&self, id: SegmentId) -> Option<&Segment> {
        self.segments.get(id.idx())
    }

    /// All segments in arena order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterator over all segment ids.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Segments leaving `node`.
    #[must_use]
    pub fn out_segments(&self, node: NodeId) -> &[SegmentId] {
        &self.out_segs[node.idx()]
    }

    /// Segments entering `node`.
    #[must_use]
    pub fn in_segments(&self, node: NodeId) -> &[SegmentId] {
        &self.in_segs[node.idx()]
    }

    /// Segments that can follow `seg` on a route (those leaving its exit).
    #[must_use]
    pub fn successors(&self, seg: SegmentId) -> &[SegmentId] {
        self.out_segments(self.segment(seg).to)
    }

    /// Segments that can precede `seg` on a route.
    #[must_use]
    pub fn predecessors(&self, seg: SegmentId) -> &[SegmentId] {
        self.in_segments(self.segment(seg).from)
    }

    /// The opposite-direction twin of `seg`, when the road is two-way.
    #[must_use]
    pub fn reverse_twin(&self, seg: SegmentId) -> Option<SegmentId> {
        self.reverse_twin[seg.idx()]
    }

    /// Maximum out-degree over nodes (the `~deg` of the complexity analysis).
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        self.out_segs.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Bounding box of the whole network.
    #[must_use]
    pub fn bbox(&self) -> BBox {
        BBox::of_points(&self.node_pos)
    }

    /// Total length of all segments in metres.
    #[must_use]
    pub fn total_length_m(&self) -> f64 {
        self.segments.iter().map(|s| s.length).sum()
    }

    /// Builds the STR R-tree over segment geometry used for candidate
    /// queries (Definition 8).
    #[must_use]
    pub fn build_rtree(&self) -> RTree<IndexedSegment> {
        let items: Vec<IndexedSegment> = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, s)| IndexedSegment { id: i as u32, line: s.line })
            .collect();
        RTree::bulk_load(items)
    }

    /// Whether a sequence of segments forms a path on `G` (each consecutive
    /// pair connected head-to-tail) — the invariant of Definition 3.
    #[must_use]
    pub fn is_path(&self, segs: &[SegmentId]) -> bool {
        segs.windows(2).all(|w| self.segment(w[0]).to == self.segment(w[1]).from)
    }

    /// Restricts the network to its largest strongly connected component,
    /// remapping ids. Returns the new network plus the old→new segment-id
    /// mapping (useful for tests; generation uses it to guarantee every OD
    /// pair is routable).
    #[must_use]
    pub fn largest_scc(&self) -> (RoadNetwork, Vec<Option<SegmentId>>) {
        let comp = self.scc_labels();
        // Find the label with the most nodes.
        let mut counts = std::collections::HashMap::new();
        for &c in &comp {
            *counts.entry(c).or_insert(0usize) += 1;
        }
        let Some((&best, _)) = counts.iter().max_by_key(|(_, &c)| c) else {
            return (RoadNetwork::new(Vec::new(), Vec::new()), Vec::new());
        };

        let mut node_map = vec![None; self.num_nodes()];
        let mut new_pos = Vec::new();
        for (i, &c) in comp.iter().enumerate() {
            if c == best {
                node_map[i] = Some(NodeId(new_pos.len() as u32));
                new_pos.push(self.node_pos[i]);
            }
        }
        let mut edges = Vec::new();
        let mut kept = Vec::new();
        for (i, s) in self.segments.iter().enumerate() {
            if let (Some(f), Some(t)) = (node_map[s.from.idx()], node_map[s.to.idx()]) {
                kept.push(SegmentId(i as u32));
                edges.push((f, t, s.class));
            }
        }
        let net = RoadNetwork::new(new_pos, edges);
        let mut seg_map = vec![None; self.num_segments()];
        for (new_idx, old) in kept.iter().enumerate() {
            seg_map[old.idx()] = Some(SegmentId(new_idx as u32));
        }
        (net, seg_map)
    }

    /// Tarjan's strongly connected components; returns a component label per
    /// node.
    fn scc_labels(&self) -> Vec<u32> {
        // Iterative Tarjan to avoid stack overflow on large grids.
        let n = self.num_nodes();
        let mut index = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut next_comp = 0u32;

        // Call frames: (node, iterator position over out segments).
        let mut frames: Vec<(u32, usize)> = Vec::new();
        for start in 0..n as u32 {
            if index[start as usize] != u32::MAX {
                continue;
            }
            frames.push((start, 0));
            index[start as usize] = next_index;
            low[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(&mut (v, ref mut child_pos)) = frames.last_mut() {
                let outs = &self.out_segs[v as usize];
                if *child_pos < outs.len() {
                    let w = self.segments[outs[*child_pos].idx()].to.0;
                    *child_pos += 1;
                    if index[w as usize] == u32::MAX {
                        index[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        frames.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        low[parent as usize] = low[parent as usize].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp[w as usize] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2x2 bidirectional square: 4 nodes, 8 segments.
    fn square() -> RoadNetwork {
        let pos = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(0.0, 100.0),
        ];
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            edges.push((NodeId(a), NodeId(b), RoadClass::Local));
            edges.push((NodeId(b), NodeId(a), RoadClass::Local));
        }
        RoadNetwork::new(pos, edges)
    }

    #[test]
    fn counts_and_lengths() {
        let net = square();
        assert_eq!(net.num_nodes(), 4);
        assert_eq!(net.num_segments(), 8);
        assert!((net.total_length_m() - 800.0).abs() < 1e-9);
        for id in net.segment_ids() {
            assert!((net.segment(id).length - 100.0).abs() < 1e-9);
        }
    }

    /// The invariant goal-directed sweeps rest on (`shortest::goal_margin`).
    #[test]
    fn every_length_is_its_chord_bit_for_bit() {
        let net = crate::gen::generate_city(&crate::gen::NetworkConfig::with_size(8, 8, 77));
        assert!(net.num_segments() > 100);
        for s in net.segments() {
            let chord = net.node_pos(s.from).dist(net.node_pos(s.to));
            assert_eq!(s.length.to_bits(), chord.to_bits(), "{:?} -> {:?}", s.from, s.to);
        }
    }

    #[test]
    fn adjacency_is_consistent() {
        let net = square();
        for id in net.segment_ids() {
            let seg = net.segment(id);
            assert!(net.out_segments(seg.from).contains(&id));
            assert!(net.in_segments(seg.to).contains(&id));
            for &succ in net.successors(id) {
                assert_eq!(net.segment(succ).from, seg.to);
            }
            for &pred in net.predecessors(id) {
                assert_eq!(net.segment(pred).to, seg.from);
            }
        }
    }

    #[test]
    fn reverse_twins_found() {
        let net = square();
        for id in net.segment_ids() {
            let twin = net.reverse_twin(id).expect("two-way square");
            let (s, t) = (net.segment(id), net.segment(twin));
            assert_eq!(s.from, t.to);
            assert_eq!(s.to, t.from);
        }
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let pos = vec![Vec2::new(0.0, 0.0), Vec2::new(10.0, 0.0)];
        let edges = vec![
            (NodeId(0), NodeId(0), RoadClass::Local), // self loop
            (NodeId(0), NodeId(1), RoadClass::Local),
            (NodeId(0), NodeId(1), RoadClass::Local), // duplicate
        ];
        let net = RoadNetwork::new(pos, edges);
        assert_eq!(net.num_segments(), 1);
    }

    #[test]
    fn is_path_checks_connectivity() {
        let net = square();
        // Find segment 0->1 and 1->2.
        let s01 = net
            .segment_ids()
            .find(|&i| net.segment(i).from == NodeId(0) && net.segment(i).to == NodeId(1))
            .unwrap();
        let s12 = net
            .segment_ids()
            .find(|&i| net.segment(i).from == NodeId(1) && net.segment(i).to == NodeId(2))
            .unwrap();
        let s30 = net
            .segment_ids()
            .find(|&i| net.segment(i).from == NodeId(3) && net.segment(i).to == NodeId(0))
            .unwrap();
        assert!(net.is_path(&[s01, s12]));
        assert!(!net.is_path(&[s01, s30]));
        assert!(net.is_path(&[s01])); // single segment is trivially a path
    }

    #[test]
    fn scc_keeps_cycle_drops_appendix() {
        // Square plus a dangling one-way spur into node 4.
        let pos = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(100.0, 100.0),
            Vec2::new(0.0, 100.0),
            Vec2::new(200.0, 0.0),
        ];
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            edges.push((NodeId(a), NodeId(b), RoadClass::Local));
        }
        edges.push((NodeId(1), NodeId(4), RoadClass::Local)); // dead end
        let net = RoadNetwork::new(pos, edges);
        let (core, seg_map) = net.largest_scc();
        assert_eq!(core.num_nodes(), 4);
        assert_eq!(core.num_segments(), 4);
        // The spur has no image in the core network.
        let spur = net.segment_ids().find(|&i| net.segment(i).to == NodeId(4)).unwrap();
        assert!(seg_map[spur.idx()].is_none());
    }

    #[test]
    fn rtree_indexes_every_segment() {
        let net = square();
        let tree = net.build_rtree();
        assert_eq!(tree.len(), net.num_segments());
        // Querying at a node returns segments incident to it first.
        let res = tree.knn(Vec2::new(0.0, 0.0), 4);
        assert_eq!(res.len(), 4);
        assert!(res[0].dist < 1e-9);
    }
}
