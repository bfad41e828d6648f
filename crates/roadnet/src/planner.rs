//! Statistical route planning between matched segments.
//!
//! MMA maps each GPS point to a segment; consecutive matched segments are
//! usually *not* adjacent, so Algorithm 1 (lines 10–13) fills the gaps with a
//! route-planning routine. The paper uses "the same DA-based method from ref.\[2\]
//! that relies on basic statistical counts" for its methods *and* all
//! baselines. [`RoutePlanner`] reproduces that contract:
//!
//! * transition counts `#(e → e')` are accumulated from historical routes
//!   ([`RoutePlanner::fit`]);
//! * planning from `e_src` to `e_dst` is a Dijkstra over the segment graph
//!   with edge weight `−ln P(e'|e)` (Laplace-smoothed), i.e. the
//!   maximum-likelihood historical route;
//! * a free-flow fastest-path fallback handles pairs never seen in training
//!   (the paper reports such failures are rare — 0.06 % on PT — and resolves
//!   them with the fastest route, as we do).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

use crate::graph::{RoadNetwork, SegmentId};
use crate::shortest::{node_path, Weight};

/// Laplace smoothing constant for transition probabilities.
const SMOOTHING: f64 = 0.5;

/// Default cap on settled states per plan; keeps worst-case latency bounded
/// on large networks (the paper bounds route length by `l'` similarly).
const DEFAULT_MAX_SETTLED: usize = 50_000;

/// Historical-count route planner (see module docs).
#[derive(Debug, Clone)]
pub struct RoutePlanner {
    /// `counts[(e, e')]` = number of observed transitions. The fit-time
    /// store: searches read [`EdgeWeights`] instead.
    counts: HashMap<(u32, u32), f64>,
    /// Total outgoing observations per segment.
    out_total: Vec<f64>,
    /// Cap on settled Dijkstra states before falling back.
    max_settled: usize,
    /// Search weights derived from the two tables above: built by the first
    /// search after the last [`RoutePlanner::observe`], which empties it.
    weights: OnceLock<EdgeWeights>,
}

/// The search's edge weights `−ln P(e'|e)`, one per successor slot, in CSR
/// form aligned with [`RoadNetwork::successors`].
#[derive(Debug, Clone)]
struct EdgeWeights {
    /// Slots `off[e]..off[e + 1]` of `w` belong to segment `e`, in
    /// `net.successors(e)` order.
    off: Vec<u32>,
    /// `f64::INFINITY` on a forbidden U-turn: `cost + ∞` never beats a
    /// tentative distance, so the relax test itself skips the slot.
    w: Vec<f64>,
}

impl EdgeWeights {
    fn build(planner: &RoutePlanner, net: &RoadNetwork) -> Self {
        let mut off = Vec::with_capacity(net.num_segments() + 1);
        let mut w = Vec::new();
        off.push(0);
        for seg in net.segment_ids() {
            let succ = net.successors(seg);
            let twin = net.reverse_twin(seg);
            for &next in succ {
                // Forbid immediate U-turns unless the segment dead-ends:
                // historical trajectories essentially never bounce back.
                w.push(if Some(next) == twin && succ.len() > 1 {
                    f64::INFINITY
                } else {
                    -planner.transition_prob(net, seg, next).ln()
                });
            }
            off.push(u32::try_from(w.len()).expect("successor slots fit u32"));
        }
        Self { off, w }
    }

    fn of(&self, seg: u32) -> &[f64] {
        &self.w[self.off[seg as usize] as usize..self.off[seg as usize + 1] as usize]
    }
}

#[derive(Debug, PartialEq)]
struct Item {
    cost: f64,
    seg: u32,
}
impl Eq for Item {}
impl Ord for Item {
    // Equal-cost pop order *is* output. On a grid with smoothed counts most
    // states tie, and which tied state `BinaryHeap` pops first — a function
    // of its internal layout, hence of the exact push/pop sequence — picks
    // the route every matcher returns. Do not "fix" this with a
    // `(cost, seg)` tie-break, `total_cmp` or another heap: routes move and
    // `seg_f1` with them (`golden_routes_on_the_untrained_grid` and
    // `tests/props_planner.rs` pin it).
    fn cmp(&self, other: &Self) -> Ordering {
        other.cost.partial_cmp(&self.cost).unwrap_or(Ordering::Equal)
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Tentative distance and predecessor of one segment, valid for the search
/// whose generation equals `stamp`.
#[derive(Clone, Copy, Default)]
struct Slot {
    dist: f64,
    prev: u32,
    stamp: u32,
}

/// Per-thread search state, reused by every gap the thread stitches: a
/// search claims a fresh generation instead of clearing `slots`.
struct Search {
    slots: Vec<Slot>,
    gen: u32,
    heap: BinaryHeap<Item>,
}

thread_local! {
    static SEARCH: RefCell<Search> =
        const { RefCell::new(Search { slots: Vec::new(), gen: 0, heap: BinaryHeap::new() }) };
}

impl Search {
    /// Starts a search over `n` segments and returns its generation: no
    /// slot carries it yet and the heap is empty.
    fn begin(&mut self, n: usize) -> u32 {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Wrapped: stamps written 2^32 searches ago would read as live.
            self.slots.fill(Slot::default());
            self.gen = 1;
        }
        self.heap.clear();
        self.gen
    }
}

impl RoutePlanner {
    /// An untrained planner: all transitions fall back to smoothing, so
    /// planning reduces to a most-plausible-topology search; useful before
    /// any data is seen and as a degenerate baseline.
    #[must_use]
    pub fn untrained(net: &RoadNetwork) -> Self {
        Self {
            counts: HashMap::new(),
            out_total: vec![0.0; net.num_segments()],
            max_settled: DEFAULT_MAX_SETTLED,
            weights: OnceLock::new(),
        }
    }

    /// Fits transition counts from historical routes (each a path on `G`).
    #[must_use]
    pub fn fit<'a>(net: &RoadNetwork, routes: impl IntoIterator<Item = &'a [SegmentId]>) -> Self {
        let mut planner = Self::untrained(net);
        for route in routes {
            planner.observe(route);
        }
        planner
    }

    /// Adds one historical route's transitions to the statistics.
    ///
    /// # Panics
    /// Panics, before recording anything, if a segment with an outgoing
    /// transition is not in the network the planner was created for.
    pub fn observe(&mut self, route: &[SegmentId]) {
        let n = self.out_total.len();
        if let Some(bad) = route.windows(2).map(|w| w[0]).find(|s| s.idx() >= n) {
            panic!("observed route leaves segment {}, but the planner's network has {n}", bad.0);
        }
        self.weights.take();
        for w in route.windows(2) {
            *self.counts.entry((w[0].0, w[1].0)).or_insert(0.0) += 1.0;
            self.out_total[w[0].idx()] += 1.0;
        }
    }

    /// Overrides the settled-state cap (`l'`-style bound).
    pub fn set_max_settled(&mut self, cap: usize) {
        self.max_settled = cap.max(1);
    }

    /// Smoothed transition probability `P(to | from)`.
    #[must_use]
    pub fn transition_prob(&self, net: &RoadNetwork, from: SegmentId, to: SegmentId) -> f64 {
        let succ = net.successors(from).len().max(1) as f64;
        let c = self.counts.get(&(from.0, to.0)).copied().unwrap_or(0.0);
        (c + SMOOTHING) / (self.out_total[from.idx()] + SMOOTHING * succ)
    }

    /// Plans a route from `src` to `dst` inclusive of both endpoints.
    ///
    /// Returns the maximum-likelihood historical route when the statistical
    /// search reaches `dst` within the state cap, otherwise the free-flow
    /// fastest route, otherwise `None` (disconnected pair).
    #[must_use]
    pub fn plan(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
    ) -> Option<Vec<SegmentId>> {
        let mut path = vec![src];
        (src == dst || self.extend(net, src, dst, &mut path)).then_some(path)
    }

    /// Appends the planned route from `src` (already `route`'s last
    /// element, `≠ dst`) through `dst`. `false`: disconnected pair, `route`
    /// untouched.
    fn extend(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
        route: &mut Vec<SegmentId>,
    ) -> bool {
        self.extend_statistical(net, src, dst, route) || self.extend_fastest(net, src, dst, route)
    }

    fn extend_statistical(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
        route: &mut Vec<SegmentId>,
    ) -> bool {
        // A planner answers for the network it was created for; handed
        // another it would read the wrong rows of both tables.
        debug_assert_eq!(self.out_total.len(), net.num_segments(), "planner of another net");
        let weights = self.weights.get_or_init(|| EdgeWeights::build(self, net));
        debug_assert_eq!(weights.off.len(), net.num_segments() + 1, "weights of another net");
        SEARCH.with_borrow_mut(|search| {
            let gen = search.begin(net.num_segments());
            let Search { slots, heap, .. } = search;
            slots[src.idx()] = Slot { dist: 0.0, prev: src.0, stamp: gen };
            heap.push(Item { cost: 0.0, seg: src.0 });
            let mut settled = 0usize;
            while let Some(Item { cost, seg }) = heap.pop() {
                if seg == dst.0 {
                    let start = route.len();
                    let mut cur = dst.0;
                    while cur != src.0 {
                        route.push(SegmentId(cur));
                        cur = slots[cur as usize].prev;
                    }
                    route[start..].reverse();
                    return true;
                }
                // Everything popped was pushed, hence stamped, by this search.
                if cost > slots[seg as usize].dist {
                    continue;
                }
                settled += 1;
                if settled > self.max_settled {
                    return false;
                }
                for (&next, &w) in net.successors(SegmentId(seg)).iter().zip(weights.of(seg)) {
                    let nc = cost + w;
                    let slot = &mut slots[next.idx()];
                    let known = if slot.stamp == gen { slot.dist } else { f64::INFINITY };
                    if nc < known {
                        *slot = Slot { dist: nc, prev: seg, stamp: gen };
                        heap.push(Item { cost: nc, seg: next.0 });
                    }
                }
            }
            false
        })
    }

    fn extend_fastest(
        &self,
        net: &RoadNetwork,
        src: SegmentId,
        dst: SegmentId,
        route: &mut Vec<SegmentId>,
    ) -> bool {
        let Some((_, mid)) =
            node_path(net, net.segment(src).to, net.segment(dst).from, Weight::Time, f64::INFINITY)
        else {
            return false;
        };
        route.extend(mid);
        route.push(dst);
        true
    }

    /// Stitches a sequence of matched segments into a route (Algorithm 1,
    /// lines 10–13): consecutive duplicates collapse, adjacent segments
    /// append directly, gaps are filled by [`RoutePlanner::plan`].
    ///
    /// Returns `None` only if some gap is truly unroutable.
    #[must_use]
    pub fn connect(&self, net: &RoadNetwork, matched: &[SegmentId]) -> Option<Vec<SegmentId>> {
        let mut route: Vec<SegmentId> = Vec::with_capacity(matched.len());
        for &seg in matched {
            match route.last() {
                None => route.push(seg),
                Some(&last) if last == seg => {}
                Some(&last) if net.segment(last).to == net.segment(seg).from => route.push(seg),
                Some(&last) => {
                    if !self.extend(net, last, seg, &mut route) {
                        return None;
                    }
                }
            }
        }
        Some(route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_city, NetworkConfig};
    use crate::graph::{NodeId, RoadClass};
    use trmma_geom::Vec2;

    fn grid() -> RoadNetwork {
        generate_city(&NetworkConfig { nx: 6, ny: 6, seed: 7, ..NetworkConfig::default() })
    }

    #[test]
    fn plan_same_segment_is_identity() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let e = SegmentId(0);
        assert_eq!(planner.plan(&net, e, e), Some(vec![e]));
    }

    #[test]
    fn plan_returns_connected_path_with_endpoints() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let src = SegmentId(0);
        let dst = SegmentId((net.num_segments() - 1) as u32);
        let path = planner.plan(&net, src, dst).expect("SCC network is routable");
        assert_eq!(*path.first().unwrap(), src);
        assert_eq!(*path.last().unwrap(), dst);
        assert!(net.is_path(&path), "planned route must be a path on G");
    }

    #[test]
    fn observed_transitions_get_higher_probability() {
        let net = grid();
        let e = SegmentId(0);
        let succs = net.successors(e);
        assert!(succs.len() >= 2, "test grid should branch");
        let (a, b) = (succs[0], succs[1]);
        let route = vec![e, a];
        let planner = RoutePlanner::fit(&net, [route.as_slice()]);
        assert!(planner.transition_prob(&net, e, a) > planner.transition_prob(&net, e, b));
    }

    #[test]
    fn training_biases_plans_towards_historical_route() {
        let net = grid();
        // Take the untrained plan between two far segments, then train heavily
        // on an alternative and check the planner reproduces the trained path.
        let untrained = RoutePlanner::untrained(&net);
        let src = SegmentId(0);
        let dst = SegmentId((net.num_segments() / 2) as u32);
        let base = untrained.plan(&net, src, dst).unwrap();
        let mut planner = RoutePlanner::untrained(&net);
        for _ in 0..50 {
            planner.observe(&base);
        }
        let trained = planner.plan(&net, src, dst).unwrap();
        assert_eq!(trained, base);
    }

    #[test]
    fn connect_collapses_duplicates_and_fills_gaps() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let src = SegmentId(3);
        let dst = SegmentId((net.num_segments() - 2) as u32);
        let route = planner.connect(&net, &[src, src, dst]).unwrap();
        assert!(net.is_path(&route));
        assert_eq!(*route.first().unwrap(), src);
        assert_eq!(*route.last().unwrap(), dst);
        // Duplicate collapsed: src appears exactly once at the head.
        assert_eq!(route.iter().filter(|&&s| s == src).count(), 1);
    }

    #[test]
    fn connect_keeps_adjacent_pairs_verbatim() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let e = SegmentId(0);
        let next = net.successors(e)[0];
        let route = planner.connect(&net, &[e, next]).unwrap();
        assert_eq!(route, vec![e, next]);
    }

    #[test]
    fn fastest_fallback_on_tiny_cap() {
        let net = grid();
        let mut planner = RoutePlanner::untrained(&net);
        planner.set_max_settled(1); // statistical search can never finish
        let src = SegmentId(0);
        let dst = SegmentId((net.num_segments() - 1) as u32);
        let path = planner.plan(&net, src, dst).expect("fastest fallback");
        assert!(net.is_path(&path));
        assert_eq!(*path.first().unwrap(), src);
        assert_eq!(*path.last().unwrap(), dst);
    }

    /// Routes the parent of the dense-state rewrite returned, whose
    /// equal-cost ties `BinaryHeap`'s pop order decided (see `Item::cmp`).
    #[test]
    fn golden_routes_on_the_untrained_grid() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let golden: [&[u32]; 3] = [
            &[0, 4, 10, 35, 51, 71, 76, 91, 95, 105],
            &[105, 103, 101, 99, 98, 82, 62, 43, 24, 3, 0],
            &[3, 0, 4, 10, 35, 51, 71, 76, 93, 104],
        ];
        for want in golden {
            let want: Vec<SegmentId> = want.iter().map(|&s| SegmentId(s)).collect();
            let got = planner.plan(&net, want[0], *want.last().unwrap());
            assert_eq!(got, Some(want));
        }
    }

    #[test]
    fn generation_wrap_leaks_no_stale_stamp() {
        let net = grid();
        let planner = RoutePlanner::untrained(&net);
        let n = net.num_segments() as u32;
        // The fourth search (run as generation 1 again) ends where the first
        // began, on a slot whose stale distance is 0 and which the two-hop
        // searches in between never touch: were that stamp still readable,
        // nothing could relax into it and the fallback route, a different
        // one, would come back.
        let pairs = [(n - 1, 0), (0, 10), (0, 10), (0, n - 1), (0, 10)];
        let plan = |&(s, d): &(u32, u32)| planner.plan(&net, SegmentId(s), SegmentId(d));
        // A fresh thread has untouched search state.
        let want: Vec<_> =
            std::thread::scope(|s| s.spawn(|| pairs.iter().map(plan).collect()).join().unwrap());
        // Stamp slots under generations 1 and 2, then jump to the brink: the
        // last three searches run as u32::MAX, 1 (wrapped) and 2.
        assert_eq!(pairs[..2].iter().map(plan).collect::<Vec<_>>(), want[..2]);
        SEARCH.with_borrow_mut(|search| search.gen = u32::MAX - 1);
        assert_eq!(pairs[2..].iter().map(plan).collect::<Vec<_>>(), want[2..]);
        assert_eq!(SEARCH.with_borrow(|search| search.gen), 2);
    }

    #[test]
    fn observe_rejects_an_out_of_range_segment_before_recording() {
        let net = grid();
        let e = SegmentId(0);
        let next = net.successors(e)[0];
        let mut planner = RoutePlanner::untrained(&net);
        let before = planner.transition_prob(&net, e, next);
        let bad = [e, next, SegmentId(4000), e];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            planner.observe(&bad);
        }))
        .expect_err("segment 4000 is not on the grid");
        let msg = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(msg.contains("segment 4000"), "{msg}");
        assert_eq!(planner.transition_prob(&net, e, next), before);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "planner of another net")]
    fn planning_on_another_network_is_caught_in_debug_builds() {
        let planner = RoutePlanner::untrained(&grid());
        let other =
            generate_city(&NetworkConfig { nx: 5, ny: 5, seed: 7, ..NetworkConfig::default() });
        let _ = planner.plan(&other, SegmentId(0), SegmentId(1));
    }

    #[test]
    fn uturn_avoided_when_alternatives_exist() {
        // Straight two-way line of 3 nodes plus a branch so successors > 1.
        let pos = vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(100.0, 0.0),
            Vec2::new(200.0, 0.0),
            Vec2::new(100.0, 100.0),
        ];
        let mut edges = Vec::new();
        for (a, b) in [(0, 1), (1, 2), (1, 3)] {
            edges.push((NodeId(a), NodeId(b), RoadClass::Local));
            edges.push((NodeId(b), NodeId(a), RoadClass::Local));
        }
        let net = RoadNetwork::new(pos, edges);
        let planner = RoutePlanner::untrained(&net);
        let e01 = net
            .segment_ids()
            .find(|&i| net.segment(i).from == NodeId(0) && net.segment(i).to == NodeId(1))
            .unwrap();
        let e12 = net
            .segment_ids()
            .find(|&i| net.segment(i).from == NodeId(1) && net.segment(i).to == NodeId(2))
            .unwrap();
        let path = planner.plan(&net, e01, e12).unwrap();
        assert_eq!(path, vec![e01, e12], "no U-turn detour");
    }
}
