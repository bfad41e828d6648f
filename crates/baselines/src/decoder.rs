//! The HMM-family Viterbi decoder as an explicit, resumable state machine.
//!
//! The whole-trajectory `viterbi` loops of [`HmmMatcher`] / `FMM` / `LHMM`
//! used to be closed: candidate search, the per-layer transition/emission
//! update and the backtrack were fused into one pass over a complete
//! trajectory. [`ViterbiState`] pulls the per-step update out: it holds the
//! beam of survivors (per-layer scores), the backpointers and the pushed
//! points, and is advanced one GPS point at a time by [`ViterbiState::
//! advance`]. The offline decode is now literally a replay — push every
//! point, then [`ViterbiState::decode`] — so the batch path and the
//! streaming path share one decoder and cannot drift.
//!
//! **Stabilized prefix (watermark).** In online decoding the newest match is
//! provisional, but prefixes *converge*: once every surviving candidate's
//! backpointer chain passes through a single candidate at layer `i`, the
//! decode of layers `0..=i` can never change again, no matter what arrives
//! later (future layers only connect through the current survivors, and an
//! HMM break restarts from an argmax over already-frozen scores).
//! [`ViterbiState::refresh_watermark`] computes that convergence point; the
//! watermark is monotone and `tests/props_streaming.rs` property-tests that
//! finalized output never contradicts it.
//!
//! [`HmmMatcher`]: crate::hmm::HmmMatcher

use trmma_traj::api::Candidate;
use trmma_traj::snapshot::{self, Reader, SnapshotError};
use trmma_traj::types::{GpsPoint, MatchedPoint};

/// Index of the maximum score (first wins ties), mirroring the historical
/// backtrack tie-breaking exactly.
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Rows a [`LatticeArena`] keeps per pool before letting recycled rows
/// drop. Bounds arena memory to the longest trajectory a scratch has seen,
/// capped; beyond this, recycling degrades gracefully to plain allocation.
const ARENA_ROWS_MAX: usize = 4096;

/// Recycled row storage for Viterbi lattices.
///
/// A lattice grows one candidate row, one score row and one backpointer row
/// per GPS point, and drops them all when the trajectory is decoded. The
/// arena closes that loop: a finished state is [`LatticeArena::recycle`]d
/// back into per-type row pools, and the next trajectory's
/// [`ViterbiState::advance_in`] calls take rows (with their capacity) from
/// the pools instead of the allocator. In steady state — any batch or
/// stream past its first trajectory — the per-point advance path performs
/// zero heap allocation. Purely a storage strategy: taken rows are cleared
/// and refilled by exactly the code that previously filled fresh `Vec`s, so
/// decoded output is bitwise-unchanged (`tests/props_tail.rs`).
#[derive(Debug, Default)]
pub struct LatticeArena {
    cand_rows: Vec<Vec<Candidate>>,
    f64_rows: Vec<Vec<f64>>,
    usize_rows: Vec<Vec<usize>>,
    /// The step's transition matrix ([`ViterbiState::advance_matrix_in`]),
    /// kept apart from the row pools: a pooled row ends up as a lattice
    /// row that lives as long as its session, and a matrix-sized one
    /// would hold `|C_{t−1}|` times the memory a score row needs.
    transitions: Vec<f64>,
    reused: u64,
}

impl LatticeArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows served from recycled storage instead of the allocator so far.
    #[must_use]
    pub fn allocs_avoided(&self) -> u64 {
        self.reused
    }

    /// An empty candidate row, recycled when available.
    pub fn take_cand_row(&mut self) -> Vec<Candidate> {
        match self.cand_rows.pop() {
            Some(mut row) => {
                row.clear();
                self.reused += 1;
                row
            }
            None => Vec::new(),
        }
    }

    fn take_f64_row(&mut self) -> Vec<f64> {
        match self.f64_rows.pop() {
            Some(mut row) => {
                row.clear();
                self.reused += 1;
                row
            }
            None => Vec::new(),
        }
    }

    fn take_usize_row(&mut self) -> Vec<usize> {
        match self.usize_rows.pop() {
            Some(mut row) => {
                row.clear();
                self.reused += 1;
                row
            }
            None => Vec::new(),
        }
    }

    fn give_cand_row(&mut self, row: Vec<Candidate>) {
        if self.cand_rows.len() < ARENA_ROWS_MAX {
            self.cand_rows.push(row);
        }
    }

    fn give_f64_row(&mut self, row: Vec<f64>) {
        if self.f64_rows.len() < ARENA_ROWS_MAX {
            self.f64_rows.push(row);
        }
    }

    /// Returns every row of a finished lattice to the pools. Call when a
    /// trajectory is decoded (offline) or a session finalized (online); the
    /// next state built from this arena then advances allocation-free.
    pub fn recycle(&mut self, state: ViterbiState) {
        let ViterbiState { cand_sets, score, back, .. } = state;
        for row in cand_sets {
            self.give_cand_row(row);
        }
        for row in score {
            if self.f64_rows.len() < ARENA_ROWS_MAX {
                self.f64_rows.push(row);
            }
        }
        for row in back {
            if self.usize_rows.len() < ARENA_ROWS_MAX {
                self.usize_rows.push(row);
            }
        }
    }
}

/// Resumable Viterbi decoder state: pushed points, per-layer candidate sets,
/// the beam of survivor scores and the backpointer lattice. See module docs.
#[derive(Debug, Clone, Default)]
pub struct ViterbiState {
    points: Vec<GpsPoint>,
    cand_sets: Vec<Vec<Candidate>>,
    /// `score[i][j]`: best log-prob of any path ending at candidate `j` of
    /// point `i` (`−∞` for dead candidates).
    score: Vec<Vec<f64>>,
    /// `back[i][j]`: predecessor candidate index at layer `i − 1`, or
    /// `usize::MAX` at layer 0 and chain restarts (HMM breaks).
    back: Vec<Vec<usize>>,
    watermark: usize,
    /// Reusable buffers of [`ViterbiState::refresh_watermark`]; never
    /// semantically meaningful between calls, never serialized.
    wm_alive: Vec<usize>,
    wm_parents: Vec<usize>,
}

impl ViterbiState {
    /// An empty decoder (no points pushed).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of points pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether any point has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The current stabilized-prefix watermark (see
    /// [`ViterbiState::refresh_watermark`]).
    #[must_use]
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Advances the decoder by one GPS point: `cands` is the candidate set
    /// of `p` (closest first), `emission` scores a candidate against `p`,
    /// and `transition` scores a candidate pair given the straight-line
    /// displacement from the previous point. This is the per-step
    /// transition/emission update shared verbatim by the offline and
    /// online paths.
    pub fn advance(
        &mut self,
        p: GpsPoint,
        cands: Vec<Candidate>,
        emission: impl Fn(&Candidate) -> f64,
        transition: impl FnMut(&Candidate, &Candidate, f64) -> f64,
    ) {
        // A throwaway arena: three empty pools, no heap behind them. Rows
        // fall through to plain allocation — the historical behaviour.
        self.advance_in(&mut LatticeArena::new(), p, cands, emission, transition);
    }

    /// [`ViterbiState::advance`] drawing its new lattice rows from `arena`
    /// instead of the allocator. Scores, backpointers and decoded output
    /// are bitwise-identical either way — recycled rows are cleared and
    /// refilled by the same update — so callers opt in purely for the
    /// steady-state zero-allocation property (see [`LatticeArena`]).
    pub fn advance_in(
        &mut self,
        arena: &mut LatticeArena,
        p: GpsPoint,
        cands: Vec<Candidate>,
        emission: impl Fn(&Candidate) -> f64,
        transition: impl FnMut(&Candidate, &Candidate, f64) -> f64,
    ) {
        let mut em = arena.take_f64_row();
        em.extend(cands.iter().map(&emission));
        self.advance_scored_in(arena, p, cands, &em, transition);
        arena.give_f64_row(em);
    }

    /// The per-step update with emissions already computed: `emissions[j]`
    /// scores `cands[j]` against `p`, and `transition` scores a candidate
    /// pair given the straight-line displacement from the previous point.
    /// [`ViterbiState::advance`] / [`ViterbiState::advance_in`] evaluate an
    /// emission closure per candidate and delegate here. The closure fills
    /// the transition matrix of [`ViterbiState::advance_matrix_in`] — the
    /// one update all entry points share — candidate `j` outer, previous
    /// candidate `k` inner, skipping dead `k`, so it sees exactly the calls
    /// a pair-by-pair update would make. Emissions are a pure
    /// per-candidate function either way, so every entry point produces a
    /// bitwise-identical lattice.
    ///
    /// # Panics
    /// Panics if `emissions.len() != cands.len()`.
    pub fn advance_scored_in(
        &mut self,
        arena: &mut LatticeArena,
        p: GpsPoint,
        cands: Vec<Candidate>,
        emissions: &[f64],
        mut transition: impl FnMut(&Candidate, &Candidate, f64) -> f64,
    ) {
        self.advance_matrix_in(
            arena,
            p,
            cands,
            emissions,
            |prev, prev_score, cands, straight, tr| {
                for (j, cj) in cands.iter().enumerate() {
                    for (k, ck) in prev.iter().enumerate() {
                        if prev_score[k] != f64::NEG_INFINITY {
                            tr[k * cands.len() + j] = transition(ck, cj, straight);
                        }
                    }
                }
            },
        );
    }

    /// The per-step update fed a transition matrix. `emissions[j]` scores
    /// `cands[j]` against `p`. From the second point on, `fill(prev,
    /// prev_score, cands, straight_m, tr)` is handed the previous layer's
    /// candidates and scores, this layer's candidates, the straight-line
    /// distance between the two GPS points and the `prev.len() ×
    /// cands.len()` matrix `tr`, row-major and all `−∞`. It writes
    /// `tr[k * cands.len() + j]`, the log transition score `prev[k] →
    /// cands[j]`, for every row it wants considered. Rows whose previous
    /// score is `−∞` are never read, so `fill` may skip them; a cell left
    /// at `−∞` is an impossible transition. When no transition is
    /// feasible the chain restarts at `p` on its emissions.
    ///
    /// # Panics
    /// Panics if `emissions.len() != cands.len()`.
    pub fn advance_matrix_in(
        &mut self,
        arena: &mut LatticeArena,
        p: GpsPoint,
        cands: Vec<Candidate>,
        emissions: &[f64],
        fill: impl FnOnce(&[Candidate], &[f64], &[Candidate], f64, &mut [f64]),
    ) {
        assert_eq!(emissions.len(), cands.len(), "one emission per candidate");
        if self.points.is_empty() {
            let mut s0 = arena.take_f64_row();
            s0.extend_from_slice(emissions);
            let mut b0 = arena.take_usize_row();
            b0.resize(cands.len(), usize::MAX);
            self.score.push(s0);
            self.back.push(b0);
        } else {
            let i = self.points.len();
            let straight = p.pos.dist(self.points[i - 1].pos);
            let prev_score = &self.score[i - 1];
            let m = cands.len();
            let mut tr = std::mem::take(&mut arena.transitions);
            tr.clear();
            tr.resize(prev_score.len() * m, f64::NEG_INFINITY);
            fill(&self.cand_sets[i - 1], prev_score, &cands, straight, &mut tr);
            let mut s_i = arena.take_f64_row();
            s_i.resize(m, f64::NEG_INFINITY);
            let mut b_i = arena.take_usize_row();
            b_i.resize(m, usize::MAX);
            for (j, &em) in emissions.iter().enumerate() {
                for (k, &prev) in prev_score.iter().enumerate() {
                    if prev == f64::NEG_INFINITY {
                        continue;
                    }
                    let t = tr[k * m + j];
                    if t == f64::NEG_INFINITY {
                        continue;
                    }
                    let cand_score = prev + t + em;
                    if cand_score > s_i[j] {
                        s_i[j] = cand_score;
                        b_i[j] = k;
                    }
                }
            }
            arena.transitions = tr;
            // HMM break: no feasible transition — restart the chain here.
            if s_i.iter().all(|&s| s == f64::NEG_INFINITY) {
                s_i.clear();
                s_i.extend_from_slice(emissions);
                b_i.clear();
                b_i.resize(cands.len(), usize::MAX);
            }
            self.score.push(s_i);
            self.back.push(b_i);
        }
        self.points.push(p);
        self.cand_sets.push(cands);
    }

    /// The provisional match of the newest point: the candidate the final
    /// backtrack would pick if the stream ended now.
    #[must_use]
    pub fn provisional(&self) -> Option<MatchedPoint> {
        let last = self.points.len().checked_sub(1)?;
        let j = argmax(&self.score[last]);
        let c = self.cand_sets[last].get(j)?;
        Some(MatchedPoint::new(c.seg, c.ratio, self.points[last].t))
    }

    /// Recomputes the stabilized-prefix watermark and returns it.
    ///
    /// Walks the backpointer lattice down from the newest layer, carrying
    /// the set of candidates any future decode could pass through: the
    /// survivors (finite score) at the top, their backpointer images below,
    /// a single argmax candidate across a chain restart. The first layer
    /// where that set collapses to one candidate pins the decode of
    /// everything at and below it. Monotone: never returns less than a
    /// previous call. `O(depth × beam)` in the worst case, but the walk
    /// stops at the previous watermark.
    pub fn refresh_watermark(&mut self) -> usize {
        // Split borrows: the walk reads `score`/`back` while refilling the
        // two reusable index buffers (no per-call allocation on this path —
        // it runs once per streamed point).
        let Self { points, score, back, watermark, wm_alive, wm_parents, .. } = self;
        let Some(mut layer) = points.len().checked_sub(1) else {
            return *watermark;
        };
        wm_alive.clear();
        wm_alive.extend((0..score[layer].len()).filter(|&j| score[layer][j] != f64::NEG_INFINITY));
        loop {
            if wm_alive.len() == 1 {
                // One candidate pins this layer; below it the backpointers
                // (and break-time argmaxes over frozen scores) are fixed.
                *watermark = (*watermark).max(layer + 1);
                return *watermark;
            }
            if wm_alive.is_empty() || layer == 0 || layer <= *watermark {
                // No survivors to converge, or no room to beat the current
                // watermark: collapsing at `layer - 1` would only re-derive
                // a prefix already stabilized.
                return *watermark;
            }
            if back[layer][wm_alive[0]] == usize::MAX {
                // Chain restart: the backtrack below this layer starts from
                // argmax over layer − 1's (now frozen) scores.
                wm_alive.clear();
                wm_alive.push(argmax(&score[layer - 1]));
            } else {
                wm_parents.clear();
                wm_parents.extend(wm_alive.iter().map(|&j| back[layer][j]));
                wm_parents.sort_unstable();
                wm_parents.dedup();
                std::mem::swap(wm_alive, wm_parents);
            }
            layer -= 1;
        }
    }

    /// Serializes the full lattice — points, candidate sets, survivor
    /// scores, backpointers, watermark — with every `f64` as its exact bit
    /// pattern, so [`ViterbiState::decode_snapshot`] rebuilds a state whose
    /// every future `advance`/`decode` is bitwise-identical to this one's.
    pub fn encode_snapshot(&self, out: &mut Vec<u8>) {
        snapshot::put_trajectory(
            out,
            &trmma_traj::types::Trajectory { points: self.points.clone() },
        );
        snapshot::put_cand_sets(out, &self.cand_sets);
        for row in &self.score {
            for &s in row {
                snapshot::put_f64(out, s);
            }
        }
        for row in &self.back {
            for &b in row {
                snapshot::put_usize(out, b);
            }
        }
        snapshot::put_usize(out, self.watermark);
    }

    /// Rebuilds a lattice serialized by [`ViterbiState::encode_snapshot`]
    /// for a network of `num_segments` segments. The score/backpointer rows
    /// reuse the candidate-set lengths as their dimensions, and every index
    /// a later [`ViterbiState::decode`], [`ViterbiState::refresh_watermark`]
    /// or route stitch reads is checked here: a layer has a candidate, a
    /// candidate names a segment of the network, layer 0's backpointers are
    /// all restarts, a later layer's restart or name a live (score not
    /// `−∞`) candidate of the layer below, and its own live entries restart
    /// all together or not at all — the invariants
    /// [`ViterbiState::advance_matrix_in`] keeps. Structural inconsistency
    /// surfaces as
    /// [`SnapshotError::Truncated`]/[`SnapshotError::Malformed`], never as
    /// a panic or an out-of-bounds lattice.
    pub fn decode_snapshot(r: &mut Reader<'_>, num_segments: usize) -> Result<Self, SnapshotError> {
        let points = snapshot::read_trajectory(r)?.points;
        let cand_sets = snapshot::read_cand_sets(r)?;
        if cand_sets.len() != points.len() {
            return Err(SnapshotError::Malformed("candidate layers != points"));
        }
        for layer in &cand_sets {
            if layer.is_empty() {
                return Err(SnapshotError::Malformed("empty candidate layer"));
            }
            if layer.iter().any(|c| c.seg.idx() >= num_segments) {
                return Err(SnapshotError::Malformed("candidate segment out of range"));
            }
        }
        let mut score = Vec::with_capacity(cand_sets.len());
        for set in &cand_sets {
            let mut row = Vec::with_capacity(set.len());
            for _ in 0..set.len() {
                row.push(r.f64()?);
            }
            score.push(row);
        }
        let mut back = Vec::with_capacity(cand_sets.len());
        for set in &cand_sets {
            let mut row = Vec::with_capacity(set.len());
            for _ in 0..set.len() {
                row.push(r.usize()?);
            }
            back.push(row);
        }
        if back.first().is_some_and(|row| row.iter().any(|&b| b != usize::MAX)) {
            return Err(SnapshotError::Malformed("first-layer back-pointer is not a restart"));
        }
        for (below, (row, scores)) in score.iter().zip(back.iter().zip(&score).skip(1)) {
            let steps = || row.iter().copied().filter(|&b| b != usize::MAX);
            if steps().any(|b| b >= below.len()) {
                return Err(SnapshotError::Malformed("back-pointer out of range"));
            }
            if steps().any(|b| below[b] == f64::NEG_INFINITY) {
                return Err(SnapshotError::Malformed("back-pointer to a dead candidate"));
            }
            let mut live = row.iter().zip(scores).filter(|&(_, &s)| s != f64::NEG_INFINITY);
            if let Some((&first, _)) = live.next() {
                if live.any(|(&b, _)| (b == usize::MAX) != (first == usize::MAX)) {
                    return Err(SnapshotError::Malformed(
                        "live back-pointers mix restart and step",
                    ));
                }
            }
        }
        let watermark = r.usize()?;
        if watermark > points.len() {
            return Err(SnapshotError::Malformed("watermark beyond stream length"));
        }
        Ok(Self { points, cand_sets, score, back, watermark, ..Self::default() })
    }

    /// The final decode: backtracks through the lattice (chain restarts
    /// resume from per-layer argmaxes) and returns one matched point per
    /// pushed point. Pure — the state can keep accepting points afterwards.
    #[must_use]
    pub fn decode(&self) -> Vec<MatchedPoint> {
        let n = self.points.len();
        if n == 0 {
            return Vec::new();
        }
        let mut picks = vec![0usize; n];
        let last = n - 1;
        picks[last] = argmax(&self.score[last]);
        for i in (0..last).rev() {
            let bp = self.back[i + 1][picks[i + 1]];
            picks[i] = if bp == usize::MAX { argmax(&self.score[i]) } else { bp };
        }
        picks
            .into_iter()
            .enumerate()
            .map(|(i, j)| {
                let c = &self.cand_sets[i][j];
                MatchedPoint::new(c.seg, c.ratio, self.points[i].t)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_geom::Vec2;
    use trmma_roadnet::SegmentId;

    fn gp(x: f64, t: f64) -> GpsPoint {
        GpsPoint { pos: Vec2::new(x, 0.0), t }
    }

    fn cand(seg: u32, ratio: f64, dist: f64) -> Candidate {
        Candidate { seg: SegmentId(seg), dist_m: dist, ratio }
    }

    /// Hand-computable two-layer lattice: emission prefers candidate 0, but
    /// the transition only allows 1 → 1, so the survivor path flips.
    #[test]
    fn advance_and_decode_follow_feasible_transitions() {
        let mut st = ViterbiState::new();
        let em = |c: &Candidate| -c.dist_m;
        st.advance(gp(0.0, 0.0), vec![cand(0, 0.1, 1.0), cand(1, 0.2, 2.0)], em, |_, _, _| 0.0);
        st.advance(gp(10.0, 1.0), vec![cand(2, 0.5, 1.0), cand(3, 0.5, 5.0)], em, |from, to, _| {
            if from.seg == SegmentId(1) && to.seg == SegmentId(3) {
                0.0
            } else {
                f64::NEG_INFINITY
            }
        });
        let picks = st.decode();
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0].seg, SegmentId(1), "only 1 → 3 was feasible");
        assert_eq!(picks[1].seg, SegmentId(3));
        // A single feasible survivor means the whole prefix is stable.
        assert_eq!(st.refresh_watermark(), 2);
        assert_eq!(st.watermark(), st.len(), "every pushed point is pinned");
    }

    #[test]
    fn break_restarts_chain_and_stabilizes_prefix() {
        let mut st = ViterbiState::new();
        let em = |c: &Candidate| -c.dist_m;
        st.advance(gp(0.0, 0.0), vec![cand(0, 0.1, 1.0), cand(1, 0.2, 2.0)], em, |_, _, _| 0.0);
        // No transition feasible at all: break, chain restarts on emissions.
        st.advance(gp(10.0, 1.0), vec![cand(2, 0.5, 3.0), cand(3, 0.5, 1.0)], em, |_, _, _| {
            f64::NEG_INFINITY
        });
        let picks = st.decode();
        assert_eq!(picks[0].seg, SegmentId(0), "pre-break layer decodes by argmax");
        assert_eq!(picks[1].seg, SegmentId(3), "post-break layer decodes by emission");
        // The break froze layer 0; layer 1 still has two survivors.
        assert_eq!(st.refresh_watermark(), 1);
        assert!(st.watermark() < st.len(), "two survivors at the top: not fully converged");
    }

    #[test]
    fn watermark_is_monotone_and_bounded() {
        let mut st = ViterbiState::new();
        let em = |_: &Candidate| 0.0;
        let mut prev = 0;
        for i in 0..6 {
            st.advance(
                gp(f64::from(i), f64::from(i)),
                vec![cand(0, 0.1, 1.0), cand(1, 0.2, 2.0)],
                em,
                |_, _, _| 0.0,
            );
            let w = st.refresh_watermark();
            assert!(w >= prev, "watermark regressed: {w} < {prev}");
            assert!(w <= st.len());
            prev = w;
        }
    }

    /// The state through its snapshot bytes, for a network of 8 segments.
    fn restored(st: &ViterbiState) -> Result<ViterbiState, SnapshotError> {
        let mut bytes = Vec::new();
        st.encode_snapshot(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = ViterbiState::decode_snapshot(&mut r, 8)?;
        r.expect_end()?;
        Ok(back)
    }

    #[test]
    fn restore_rejects_lattices_the_decoder_cannot_index() {
        // Three layers of two; nothing reaches segment 3, so layer 1's
        // candidate 1 is dead and both of layer 2's point at candidate 0.
        let mut st = ViterbiState::new();
        let em = |c: &Candidate| -c.dist_m;
        let to_3 = |_: &Candidate, to: &Candidate, _| {
            if to.seg == SegmentId(3) {
                f64::NEG_INFINITY
            } else {
                0.0
            }
        };
        for (i, segs) in [[0, 1], [2, 3], [4, 5]].into_iter().enumerate() {
            let cands = segs.iter().map(|&s| cand(s, 0.5, f64::from(s))).collect();
            st.advance(gp(10.0 * i as f64, i as f64), cands, em, to_3);
        }
        assert_eq!((st.score[1][1], st.back[2].as_slice()), (f64::NEG_INFINITY, &[0, 0][..]));
        // Layer 1's dead entry restarts beside a live step: only live
        // entries must agree.
        assert_eq!(st.back[1], [0, usize::MAX]);

        // A genuine lattice round-trips to the bit.
        let back = restored(&st).expect("a genuine lattice restores");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        st.encode_snapshot(&mut a);
        back.encode_snapshot(&mut b);
        assert_eq!(a, b);
        assert_eq!(back.decode(), st.decode());

        let refused = |edit: &dyn Fn(&mut ViterbiState)| {
            let mut bad = st.clone();
            edit(&mut bad);
            match restored(&bad) {
                Err(SnapshotError::Malformed(what)) => what,
                other => panic!("hostile lattice not refused: {other:?}"),
            }
        };
        let empty = |s: &mut ViterbiState| {
            s.cand_sets[1].clear();
            s.score[1].clear();
            s.back[1].clear();
        };
        assert_eq!(refused(&empty), "empty candidate layer");
        assert_eq!(
            refused(&|s| s.cand_sets[2][1].seg = SegmentId(8 + 7)),
            "candidate segment out of range"
        );
        assert_eq!(refused(&|s| s.back[0][1] = 0), "first-layer back-pointer is not a restart");
        assert_eq!(refused(&|s| s.back[2][0] = 5), "back-pointer out of range");
        assert_eq!(refused(&|s| s.back[2][1] = 1), "back-pointer to a dead candidate");
        assert_eq!(
            refused(&|s| s.back[2][1] = usize::MAX),
            "live back-pointers mix restart and step"
        );
    }

    #[test]
    fn empty_state_is_well_behaved() {
        let mut st = ViterbiState::new();
        assert!(st.is_empty());
        assert_eq!(st.len(), 0);
        assert!(st.decode().is_empty());
        assert!(st.provisional().is_none());
        assert_eq!(st.refresh_watermark(), 0);
    }
}
