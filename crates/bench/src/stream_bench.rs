//! The interleaved point stream the socket workloads of `benchmark/`
//! replay: many sessions' points mixed into one seeded arrival order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trmma_core::SessionId;
use trmma_traj::types::{GpsPoint, Trajectory};

/// Interleaves the points of `sessions` into one stream: at every step a
/// seeded RNG picks one unfinished session and emits its next point, so
/// arrivals from different devices are arbitrarily mixed while each
/// session's own points stay in order (the shape the engine promises to
/// handle). `ids[i]` is the stream id carried by session `i`'s points.
#[must_use]
pub fn interleave_ids(
    sessions: &[Trajectory],
    ids: &[SessionId],
    seed: u64,
) -> Vec<(SessionId, GpsPoint)> {
    assert_eq!(sessions.len(), ids.len(), "one id per session");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cursors = vec![0usize; sessions.len()];
    let mut open: Vec<usize> = (0..sessions.len()).filter(|&i| !sessions[i].is_empty()).collect();
    let total: usize = sessions.iter().map(Trajectory::len).sum();
    let mut out = Vec::with_capacity(total);
    while !open.is_empty() {
        let pick = rng.gen_range(0..open.len());
        let sid = open[pick];
        out.push((ids[sid], sessions[sid].points[cursors[sid]]));
        cursors[sid] += 1;
        if cursors[sid] == sessions[sid].len() {
            open.swap_remove(pick);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_traj::dataset::{build_dataset, DatasetConfig, Split};

    #[test]
    fn interleave_preserves_per_session_order_and_total() {
        let ds = build_dataset(&DatasetConfig::tiny());
        let sessions: Vec<Trajectory> =
            ds.samples(Split::Test, 0.2, 30).into_iter().map(|s| s.sparse).collect();
        let ids: Vec<SessionId> = (0..sessions.len() as u64).map(|i| 3 * i + 1).collect();
        let events = interleave_ids(&sessions, &ids, 99);

        let total: usize = sessions.iter().map(Trajectory::len).sum();
        assert_eq!(events.len(), total);
        let mut cursors = vec![0usize; sessions.len()];
        for &(id, p) in &events {
            let s = ids.iter().position(|&i| i == id).expect("an id that was passed in");
            assert_eq!(p, sessions[s].points[cursors[s]], "session {s} out of order");
            cursors[s] += 1;
        }
        // Different seeds interleave differently (overwhelmingly likely).
        assert_ne!(events, interleave_ids(&sessions, &ids, 100));

        // Golden, printed from the commit before this file was cut down to
        // one function: the order is what `socket_paced` and
        // `socket_saturated` replay, so a drift here moves their numbers.
        // The fold covers `(id, t)` of every event, which fixes the order;
        // the loop above has already tied each position to its session.
        let head: Vec<(SessionId, f64)> =
            events.iter().take(12).map(|&(id, p)| (id, p.t)).collect();
        assert_eq!(
            head,
            [
                (13, 0.0),
                (19, 0.0),
                (10, 0.0),
                (13, 60.0),
                (25, 0.0),
                (13, 75.0),
                (25, 60.0),
                (16, 0.0),
                (34, 0.0),
                (28, 0.0),
                (22, 0.0),
                (7, 0.0),
            ]
        );
        let fold = events.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &(id, p)| {
            [id, p.t.to_bits()].iter().fold(h, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
        });
        assert_eq!((events.len(), fold), (59, 0x3121_38aa_7eda_333f));
    }
}
