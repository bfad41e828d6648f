//! Property tests for the tail-latency machinery: every fast path on the
//! hot inference loop must be *bitwise-identical* to the slow path it
//! replaces.
//!
//! * the dense multi-target sweep: `SsspPool::node_dists_into` after an
//!   arbitrary history of sweeps of every kind, under other bounds and on
//!   another network, equals the cold allocating Dijkstra on every target;
//! * bounded `DistCache`: a capacity-capped cache answers every lookup
//!   identically to the uncapped cache and the cold search, while never
//!   holding more than `cap` pairs;
//! * arena-backed Viterbi: `advance_scored_in` through a dirty recycled
//!   [`LatticeArena`] decodes identically to the fresh-allocation
//!   `advance` path;
//! * vectorized kernels: the chunked emission kernel, the zero-skipping
//!   matvec, `argmax` and the row kernels of the tape-free TRMMA decode
//!   (`vecmat_skip_zero`, `add_rows_in_order`) reproduce their scalar
//!   references bit for bit — `vecmat_skip_zero`, whose register blocks and
//!   compacted skip list every learned-model forward now runs through, also
//!   over every block split × coefficient count × zero pattern.

use proptest::prelude::*;

use trmma::baselines::decoder::{LatticeArena, ViterbiState};
use trmma::geom::Vec2;
use trmma::nn::kernels::{
    add_rows_in_order, argmax, gather_rows_into, gaussian_log_emission_into, matvec_skip_zero,
    vecmat_skip_zero,
};
use trmma::roadnet::shortest::{node_dist, DistCache, SsspPool, Weight};
use trmma::roadnet::{generate_city, NetworkConfig, NodeId, SegmentId};
use trmma::traj::types::GpsPoint;
use trmma::traj::Candidate;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pool's multi-target sweep after an arbitrary history — sweeps of
    /// every kind, under other bounds, alternating between two networks of
    /// different sizes — answers every target exactly like the cold
    /// allocating Dijkstra: duplicate targets, the source among them, no
    /// targets at all, targets beyond the bound. No stamp may leak.
    #[test]
    fn multi_target_sweep_identical_to_cold_after_any_history(
        net_seeds in (0u64..1_000, 0u64..1_000),
        sweeps in prop::collection::vec(
            (0u8..6, 0u32..10_000, prop::collection::vec(0u32..10_000, 0usize..7), 0usize..4),
            1usize..16,
        ),
    ) {
        let nets = [
            generate_city(&NetworkConfig::with_size(6, 6, net_seeds.0)),
            generate_city(&NetworkConfig::with_size(8, 8, net_seeds.1)),
        ];
        let bounds = [0.0, 250.0, 900.0, f64::INFINITY];
        let mut pool = SsspPool::new();
        let mut reach = Vec::new();
        for (i, (mode, s, ts, b)) in sweeps.iter().enumerate() {
            let (net, kind) = (&nets[usize::from(mode % 2)], mode / 2);
            let m = net.num_nodes() as u32;
            let (src, bound) = (NodeId(s % m), bounds[*b]);
            let mut targets: Vec<NodeId> = ts.iter().map(|t| NodeId(t % m)).collect();
            match kind {
                // Salted: a duplicate target and the source itself.
                1 => {
                    targets.extend(targets.first().copied());
                    targets.push(src);
                }
                // History of the other kind: a whole bounded sweep.
                2 => pool.bounded_sssp_into(net, src, Weight::Length, bound, &mut reach),
                _ => {}
            }
            let mut got = vec![Some(f64::NAN); targets.len()];
            pool.node_dists_into(net, src, &targets, Weight::Length, bound, &mut got);
            for (&t, g) in targets.iter().zip(&got) {
                let cold = node_dist(net, src, t, Weight::Length, bound);
                prop_assert_eq!(
                    g.map(f64::to_bits), cold.map(f64::to_bits),
                    "sweep {} {:?}->{:?} within {}: {:?} vs {:?}", i, src, t, bound, g, cold
                );
            }
            if let Some(&t) = targets.last() {
                let one = pool.node_dist(net, src, t, Weight::Length, bound);
                prop_assert_eq!(one, *got.last().unwrap(), "one-target case of sweep {}", i);
            }
        }
    }

    /// A capacity-capped cache under eviction pressure stays bounded and
    /// answers bitwise like both an uncapped cache and the cold search.
    #[test]
    fn bounded_cache_identical_and_bounded(
        net_seed in 0u64..1_000,
        queries in prop::collection::vec((0u32..10_000, 0u32..10_000), 1usize..40),
        cap in 1usize..12,
        bound in 150.0f64..4_000.0,
    ) {
        let net = generate_city(&NetworkConfig::with_size(6, 6, net_seed));
        let m = net.num_nodes() as u32;
        let capped = DistCache::with_capacity(cap);
        let unbounded = DistCache::new();
        for &(s, d) in &queries {
            let (src, dst) = (NodeId(s % m), NodeId(d % m));
            let a = capped.node_dist(&net, src, dst, bound);
            let b = unbounded.node_dist(&net, src, dst, bound);
            let cold = node_dist(&net, src, dst, Weight::Length, bound);
            prop_assert_eq!(a.map(f64::to_bits), cold.map(f64::to_bits));
            prop_assert_eq!(b.map(f64::to_bits), cold.map(f64::to_bits));
            prop_assert!(capped.len() <= cap, "cache grew past its cap: {} > {}", capped.len(), cap);
        }
        let stats = capped.stats();
        prop_assert_eq!(stats.total(), queries.len() as u64, "every lookup counted once");
    }

    /// The arena-backed scored advance (recycled rows, precomputed
    /// emissions) decodes identically to the historical fresh-allocation
    /// `advance` path, even when the arena is dirty from a previous
    /// decoded-and-recycled lattice.
    #[test]
    fn arena_viterbi_identical_to_fresh(
        layers in prop::collection::vec(
            prop::collection::vec((0u32..50, 0.0f64..80.0, 0.0f64..1.0), 1usize..6),
            1usize..8,
        ),
        warmup_layers in 0usize..4,
        sigma in 1.0f64..30.0,
    ) {
        let point = |i: usize| GpsPoint { pos: Vec2::new(i as f64 * 35.0, (i % 3) as f64 * 20.0), t: i as f64 };
        let cand_row = |layer: &[(u32, f64, f64)]| -> Vec<Candidate> {
            layer.iter().map(|&(seg, dist_m, ratio)| Candidate { seg: SegmentId(seg), dist_m, ratio }).collect()
        };
        // Deterministic scores shared by both paths.
        let emission = |c: &Candidate| -> f64 { let z = c.dist_m / sigma; -0.5 * z * z };
        let transition = |from: &Candidate, to: &Candidate, straight: f64| -> f64 {
            -((from.seg.0 as f64 - to.seg.0 as f64).abs() + (straight - 10.0).abs() * 0.01)
        };

        // Fresh path: closure emissions, throwaway arenas.
        let mut fresh = ViterbiState::new();
        for (i, layer) in layers.iter().enumerate() {
            fresh.advance(point(i), cand_row(layer), emission, transition);
        }

        // Arena path: dirty the arena with a decoded-and-recycled warmup
        // lattice first, then feed kernel-style precomputed emission rows.
        let mut arena = LatticeArena::new();
        let mut warmup = ViterbiState::new();
        for i in 0..warmup_layers {
            let layer = &layers[i % layers.len()];
            warmup.advance_in(&mut arena, point(i), cand_row(layer), emission, transition);
        }
        let _ = warmup.decode();
        arena.recycle(warmup);

        let mut pooled = ViterbiState::new();
        for (i, layer) in layers.iter().enumerate() {
            let cands = cand_row(layer);
            let em: Vec<f64> = cands.iter().map(emission).collect();
            pooled.advance_scored_in(&mut arena, point(i), cands, &em, transition);
        }

        prop_assert_eq!(fresh.decode(), pooled.decode(), "arena path changed the decode");
        prop_assert_eq!(fresh.len(), pooled.len());
        if warmup_layers > 0 {
            prop_assert!(arena.allocs_avoided() > 0, "dirty arena served nothing from its pools");
        }
    }

    /// The chunked Gaussian log-emission kernel is bit-identical to its
    /// scalar definition for every length (covering all remainder shapes).
    #[test]
    fn emission_kernel_bitwise_matches_scalar(
        dists in prop::collection::vec(0.0f64..500.0, 0usize..33),
        sigma in 0.5f64..50.0,
    ) {
        let mut out = Vec::new();
        gaussian_log_emission_into(&dists, sigma, &mut out);
        prop_assert_eq!(out.len(), dists.len());
        for (i, (&d, &got)) in dists.iter().zip(&out).enumerate() {
            let z = d / sigma;
            let want = -0.5 * z * z;
            prop_assert_eq!(got.to_bits(), want.to_bits(), "lane {} diverged", i);
        }
    }

    /// The zero-skipping matvec reproduces the generic inner-product loop
    /// bit for bit (same op order, same skip rule), and `argmax` picks the
    /// first strict maximum like the scalar scan it replaced.
    #[test]
    fn matvec_and_argmax_bitwise_match_reference(
        rows in 1usize..8,
        cols in 1usize..8,
        seed_cells in prop::collection::vec(-4.0f64..4.0, 64),
        zero_mask in prop::collection::vec(0u32..2, 64),
        xs in prop::collection::vec(-3.0f64..3.0, 1usize..12),
    ) {
        let lhs: Vec<f64> = (0..rows * cols)
            .map(|i| if zero_mask[i % zero_mask.len()] == 1 { 0.0 } else { seed_cells[i % seed_cells.len()] })
            .collect();
        let x: Vec<f64> = (0..cols).map(|j| seed_cells[(j * 7 + 3) % seed_cells.len()]).collect();
        let mut got = vec![0.0f64; rows];
        matvec_skip_zero(&lhs, &x, &mut got);
        for i in 0..rows {
            // The kernel's contract: accumulate onto the existing output,
            // skipping exact-zero lhs entries, in column order.
            let mut want = 0.0f64;
            for (a, b) in lhs[i * cols..(i + 1) * cols].iter().zip(&x) {
                if *a == 0.0 {
                    continue;
                }
                want += a * b;
            }
            prop_assert_eq!(got[i].to_bits(), want.to_bits(), "row {} diverged", i);
        }

        let mut best = 0usize;
        for (j, &v) in xs.iter().enumerate() {
            if v > xs[best] {
                best = j;
            }
        }
        prop_assert_eq!(argmax(&xs), best);
    }

    /// The row kernels of the tape-free TRMMA decode against scalar i-k-j
    /// loops written out here, at every output width 1–65 (every split into
    /// eight-wide blocks and a tail) and any number of coefficients /
    /// stacked rows, none included. Inputs are salted with `0.0` and `-0.0`
    /// and the accumulators start from salted values too: `-0.0 + 0.0` is
    /// `+0.0`, so a skip dropped from `vecmat_skip_zero` — or one added to
    /// `add_rows_in_order`, which has none — flips a sign bit.
    #[test]
    fn row_kernels_bitwise_match_scalar_references(
        k in 0usize..12,
        rows in 0usize..5,
        cells in prop::collection::vec(-4.0f64..4.0, 97),
        salt in prop::collection::vec(0u32..5, 89),
    ) {
        let salted = |i: usize| match salt[i % salt.len()] {
            0 => 0.0,
            1 => -0.0,
            _ => cells[i % cells.len()],
        };
        for n in 1usize..=65 {
            let x: Vec<f64> = (0..k).map(|i| salted(i + n)).collect();
            let w: Vec<f64> = (0..k * n).map(|i| salted(i + 17)).collect();
            let start: Vec<f64> = (0..n).map(|j| salted(j + 5)).collect();

            let mut got = start.clone();
            vecmat_skip_zero(&x, &w, &mut got);
            for j in 0..n {
                let mut want = start[j];
                for (kk, &a) in x.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    want += a * w[kk * n + j];
                }
                prop_assert_eq!(got[j].to_bits(), want.to_bits(), "vecmat column {} of {}", j, n);
            }

            let init: Vec<f64> = (0..rows * n).map(|i| salted(i + 29)).collect();
            let mut got = vec![f64::NAN; rows * n];
            add_rows_in_order(&init, &w, n, &mut got);
            for i in 0..rows {
                for j in 0..n {
                    let mut want = init[i * n + j];
                    for r in 0..k {
                        want += w[r * n + j];
                    }
                    prop_assert_eq!(
                        got[i * n + j].to_bits(), want.to_bits(),
                        "add_rows cell ({}, {}) of width {}", i, j, n
                    );
                }
            }
        }
    }

    /// Row gathering through the kernel equals per-row slicing for every
    /// (rows, cols, ids) shape, including repeated and out-of-order ids.
    #[test]
    fn gather_kernel_matches_slicing(
        rows in 1usize..7,
        cols in 0usize..6,
        cells in prop::collection::vec(-9.0f64..9.0, 42),
        ids in prop::collection::vec(0usize..7, 0usize..9),
    ) {
        let src: Vec<f64> = (0..rows * cols).map(|i| cells[i % cells.len()]).collect();
        let ids: Vec<usize> = ids.into_iter().map(|i| i % rows).collect();
        let mut out = Vec::new();
        gather_rows_into(&src, rows, cols, &ids, &mut out);
        let mut want = Vec::new();
        for &ix in &ids {
            want.extend_from_slice(&src[ix * cols..(ix + 1) * cols]);
        }
        let got_bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got_bits, want_bits);
    }
}

/// `vecmat_skip_zero` against the scalar i-k-j loop written out here, over
/// every output width 1–65 (each split into 16 / 8 / 4-wide blocks and a
/// tail) × 0–70 coefficients (across the compaction chunk) × no / some / all
/// coefficients zero. Zeros come in both signs and NaN coefficients are not
/// zeros; every weight row under a zero coefficient is `+inf`, so taking the
/// branch-free loop on a row that has a zero turns the sum into NaN; the
/// cells span six decades, so a compaction that reorders the terms changes
/// low bits; and the sums start from a non-zero `out` with `-0.0` cells, so
/// a block that starts from `0.0` is caught (and `-0.0 + 0.0 · b` would flip
/// a sign). The 70-coefficient case is also carried as a prefix split at
/// every `k`.
#[test]
fn vecmat_blocks_and_skip_list_match_the_scalar_loop() {
    fn reference(x: &[f64], w: &[f64], out: &mut [f64]) {
        let n = out.len();
        for (k, &a) in x.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for j in 0..n {
                out[j] += a * w[k * n + j];
            }
        }
    }
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let cell = |i: usize| {
        let mantissa = ((i * 2_654_435_761) % 2_003) as f64 / 1_001.0 - 1.0;
        mantissa * [1e-3, 1.0, 37.0, 1e3][i % 4]
    };
    for n in 1usize..=65 {
        for count in 0usize..=70 {
            for zeros in ["none", "some", "all"] {
                let x: Vec<f64> = (0..count)
                    .map(|k| match (zeros, (k * 7 + n) % 9) {
                        ("all", m) if m % 2 == 0 => 0.0,
                        ("all", _) | ("some", 0 | 4) => -0.0,
                        ("some", 2 | 5 | 8) => 0.0,
                        (_, 6) if n % 13 == 0 => f64::NAN,
                        _ => cell(k + 3 * n),
                    })
                    .collect();
                let w: Vec<f64> = (0..count * n)
                    .map(|i| if x[i / n] == 0.0 { f64::INFINITY } else { cell(i + count) })
                    .collect();
                let start: Vec<f64> = (0..n)
                    .map(|j| if (j + count) % 5 == 0 { -0.0 } else { cell(j + 11) })
                    .collect();

                let mut want = start.clone();
                reference(&x, &w, &mut want);
                let mut got = start.clone();
                vecmat_skip_zero(&x, &w, &mut got);
                assert_eq!(bits(&got), bits(&want), "n {n}, {count} coefficients, {zeros} zero");
                assert!(zeros == "all" || n % 13 == 0 || got.iter().all(|v| v.is_finite()));

                if count == 70 {
                    for split in 0..=count {
                        let mut carried = start.clone();
                        vecmat_skip_zero(&x[..split], &w[..split * n], &mut carried);
                        vecmat_skip_zero(&x[split..], &w[split * n..], &mut carried);
                        assert_eq!(bits(&carried), bits(&want), "n {n}, split at {split}");
                    }
                }
            }
        }
    }
}
