//! Flat-slice compute kernels for the inference hot path.
//!
//! Everything here operates on plain `&[f64]` buffers with the bounds
//! checks hoisted out of the inner loops (length asserts up front, then
//! exact-size iterators the optimizer can vectorize). Each kernel is a
//! drop-in replacement for a scalar loop elsewhere in the workspace and is
//! **bitwise-identical** to it: either the elements are independent (so
//! chunking cannot reassociate anything), or the kernel replays the exact
//! accumulation order of the loop it replaces. `tests/props_tail.rs` pins
//! the equivalences down property-style.

/// Gathers `ids`-selected rows of a row-major `rows × cols` table into
/// `out` (cleared first). Replaces the per-row `extend_from_slice` loops in
/// [`crate::Graph::embed_param`] / [`crate::Graph::gather_rows`]: indices
/// are validated in one pass up front, then each row is a straight memcpy.
///
/// # Panics
/// Panics if `src.len() != rows * cols` or any id is out of range.
pub fn gather_rows_into(src: &[f64], rows: usize, cols: usize, ids: &[usize], out: &mut Vec<f64>) {
    assert_eq!(src.len(), rows * cols, "src is not rows × cols");
    assert!(ids.iter().all(|&ix| ix < rows), "gather index out of range");
    out.clear();
    out.reserve(ids.len() * cols);
    for &ix in ids {
        out.extend_from_slice(&src[ix * cols..(ix + 1) * cols]);
    }
}

/// Writes the log Gaussian emission `-0.5 · (d / sigma)²` of every distance
/// into `out` (cleared first), unrolled four lanes wide. Elements are
/// independent, so the chunking changes nothing about the result — each
/// output is exactly the scalar expression the HMM emission closure
/// computes.
pub fn gaussian_log_emission_into(dist_m: &[f64], sigma: f64, out: &mut Vec<f64>) {
    out.clear();
    out.reserve(dist_m.len());
    let mut chunks = dist_m.chunks_exact(4);
    for c in &mut chunks {
        let z0 = c[0] / sigma;
        let z1 = c[1] / sigma;
        let z2 = c[2] / sigma;
        let z3 = c[3] / sigma;
        out.extend_from_slice(&[-0.5 * z0 * z0, -0.5 * z1 * z1, -0.5 * z2 * z2, -0.5 * z3 * z3]);
    }
    for &d in chunks.remainder() {
        let z = d / sigma;
        out.push(-0.5 * z * z);
    }
}

/// Matrix–vector product `out[i] += row_i(lhs) · x` over a row-major
/// `out.len() × x.len()` left-hand side, skipping zero coefficients.
///
/// This is [`crate::Matrix::matmul_into`]'s inner loop specialised to a
/// single output column: same zero-skip, same add order per output element,
/// with the accumulator held in a register instead of re-reading `out[i]`
/// per term — bitwise-identical by construction, measurably faster on the
/// `kc × d2 · d2 × 1` logit products that dominate MMA scoring.
///
/// # Panics
/// Panics if `lhs.len() != out.len() * x.len()`.
pub fn matvec_skip_zero(lhs: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(lhs.len(), out.len() * x.len(), "matvec shape mismatch");
    for (o, row) in out.iter_mut().zip(lhs.chunks_exact(x.len())) {
        let mut acc = *o;
        for (&a, &b) in row.iter().zip(x.iter()) {
            if a == 0.0 {
                continue;
            }
            acc += a * b;
        }
        *o = acc;
    }
}

/// Row-vector–matrix product `out[j] += Σ_k x[k] · w[k][j]` over a
/// row-major `x.len() × out.len()` right-hand side, skipping zero
/// coefficients.
///
/// This is one left-hand row of [`crate::Matrix::matmul_into`]'s i-k-j
/// loop: ascending `k`, `x[k] == 0.0` skipped, each product added onto the
/// running `out[j]`. Because it accumulates, a sum the tape forms over a
/// column-concatenated input can be carried across calls — one call per
/// concatenated part, in order, against the matching rows of `w` — and
/// stays bitwise what the single product would have been.
///
/// Columns are independent and only the order *within* a column is fixed,
/// so the running sums of 16 / 8 / 4 / 1 columns at a time are held in
/// registers across all `k` instead of re-loaded and re-stored per term.
/// The skip is decided before the block loops, never inside them (on ReLU
/// outputs it is a coin-flip branch): a run of coefficients with no zero
/// goes through a branch-free loop, one with zeros has its non-zero
/// indices compacted first, in ascending order.
///
/// # Panics
/// Panics if `w.len() != x.len() * out.len()`.
pub fn vecmat_skip_zero(x: &[f64], w: &[f64], out: &mut [f64]) {
    assert_eq!(w.len(), x.len() * out.len(), "vecmat shape mismatch");
    let n = out.len();
    if n == 0 {
        return;
    }
    // `!=` keeps NaN coefficients, as the `== 0.0` skip does.
    if x.iter().all(|&a| a != 0.0) {
        column_blocks(x.iter().copied().zip(w.chunks_exact(n)), out);
        return;
    }
    for (x, w) in x.chunks(COEF_CHUNK).zip(w.chunks(COEF_CHUNK * n)) {
        let mut live = [0u8; COEF_CHUNK];
        let mut used = 0;
        for (k, &a) in x.iter().enumerate() {
            live[used] = k as u8;
            used += usize::from(a != 0.0);
        }
        let terms = live[..used].iter().map(|&k| {
            let k = usize::from(k);
            (x[k], &w[k * n..(k + 1) * n])
        });
        column_blocks(terms, out);
    }
}

/// Coefficients [`vecmat_skip_zero`] compacts at a time: the index list
/// lives on the stack, as bytes.
const COEF_CHUNK: usize = 64;

/// `out[j] += Σ a · row[j]` over `terms` in order, all of them taken, in
/// column blocks of 16, 8, 4 and 1.
#[inline(always)]
fn column_blocks<'a>(terms: impl Iterator<Item = (f64, &'a [f64])> + Clone, out: &mut [f64]) {
    let n = out.len();
    let mut j = 0;
    while j + 16 <= n {
        column_block::<16>(terms.clone(), j, out);
        j += 16;
    }
    if j + 8 <= n {
        column_block::<8>(terms.clone(), j, out);
        j += 8;
    }
    if j + 4 <= n {
        column_block::<4>(terms.clone(), j, out);
        j += 4;
    }
    while j < n {
        column_block::<1>(terms.clone(), j, out);
        j += 1;
    }
}

/// Columns `j .. j + B` of [`column_blocks`]: the running sums start from
/// `out` and stay in registers across every term.
#[inline(always)]
fn column_block<'a, const B: usize>(
    terms: impl Iterator<Item = (f64, &'a [f64])>,
    j: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0; B];
    acc.copy_from_slice(&out[j..j + B]);
    for (a, row) in terms {
        for (s, &b) in acc.iter_mut().zip(&row[j..j + B]) {
            *s += a * b;
        }
    }
    out[j..j + B].copy_from_slice(&acc);
}

/// Column-block width of [`add_rows_in_order`]: eight `f64` accumulators
/// fit the baseline x86-64 register file with room for the loads.
const ROW_BLOCK: usize = 8;

/// `out[i][j] = init[i][j] + rows[0][j] + rows[1][j] + …`: the same ordered
/// stack of `n`-wide `rows` added, top to bottom, onto every `n`-wide row
/// of `init`.
///
/// The additions of one output element happen in `rows` order starting from
/// its `init` value — the order an i-k-j matmul adds the terms of a
/// left-hand part that is one row repeated — so columns are independent and
/// are processed eight at a time with the accumulators held in registers
/// across the whole stack, then a narrower tail.
///
/// # Panics
/// Panics if `n == 0`, `init.len() != out.len()`, or either `init` or
/// `rows` is not a whole number of `n`-wide rows.
pub fn add_rows_in_order(init: &[f64], rows: &[f64], n: usize, out: &mut [f64]) {
    assert!(n > 0, "rows must have a width");
    assert_eq!(init.len(), out.len(), "init and out differ in shape");
    assert_eq!(init.len() % n, 0, "init is not … × n");
    assert_eq!(rows.len() % n, 0, "rows is not … × n");
    let tail = n - n % ROW_BLOCK;
    for (o_row, i_row) in out.chunks_exact_mut(n).zip(init.chunks_exact(n)) {
        for j in (0..tail).step_by(ROW_BLOCK) {
            let mut acc = [0.0; ROW_BLOCK];
            acc.copy_from_slice(&i_row[j..j + ROW_BLOCK]);
            for r in rows.chunks_exact(n) {
                for (a, &t) in acc.iter_mut().zip(&r[j..j + ROW_BLOCK]) {
                    *a += t;
                }
            }
            o_row[j..j + ROW_BLOCK].copy_from_slice(&acc);
        }
        let acc = &mut o_row[tail..];
        acc.copy_from_slice(&i_row[tail..]);
        for r in rows.chunks_exact(n) {
            for (a, &t) in acc.iter_mut().zip(&r[tail..]) {
                *a += t;
            }
        }
    }
}

/// `Graph::relu` in place.
pub fn relu_in_place(xs: &mut [f64]) {
    for x in xs {
        *x = x.max(0.0);
    }
}

/// `Graph::softmax_rows` on one row, in place: max-fold, `(x − max).exp()`
/// with the running sum in index order, then the division.
pub fn softmax_in_place(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in row.iter_mut() {
        *x /= sum;
    }
}

/// Index of the maximum element, first occurrence winning ties via strict
/// `>` — the tie-breaking every decoder in this workspace relies on.
/// Returns 0 for an empty slice.
#[must_use]
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_rows_matches_manual_copy() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut out = vec![99.0]; // cleared by the kernel
        gather_rows_into(&src, 3, 2, &[2, 0, 2], &mut out);
        assert_eq!(out, vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "gather index out of range")]
    fn gather_rows_validates_ids() {
        let mut out = Vec::new();
        gather_rows_into(&[1.0, 2.0], 2, 1, &[2], &mut out);
    }

    #[test]
    fn gaussian_emission_matches_scalar_for_all_lengths() {
        let sigma = 4.07;
        for n in 0..13 {
            let dists: Vec<f64> = (0..n).map(|i| i as f64 * 1.37 - 3.0).collect();
            let mut out = Vec::new();
            gaussian_log_emission_into(&dists, sigma, &mut out);
            let want: Vec<f64> = dists
                .iter()
                .map(|&d| {
                    let z = d / sigma;
                    -0.5 * z * z
                })
                .collect();
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn matvec_matches_naive_accumulation() {
        let lhs = [1.0, 0.0, -2.5, 0.3, 7.0, 0.0];
        let x = [0.1, 0.2, 0.3];
        let mut out = [0.0, 0.0];
        matvec_skip_zero(&lhs, &x, &mut out);
        // Naive replay of matmul_into's order.
        let mut want = [0.0, 0.0];
        for i in 0..2 {
            for k in 0..3 {
                let a = lhs[i * 3 + k];
                if a == 0.0 {
                    continue;
                }
                want[i] += a * x[k];
            }
        }
        assert_eq!(out[0].to_bits(), want[0].to_bits());
        assert_eq!(out[1].to_bits(), want[1].to_bits());
    }

    #[test]
    fn vecmat_matches_matmul_into_row_and_carries_a_prefix() {
        // One lhs row against a 5 × 3 rhs, zeros of both signs among the
        // coefficients and a non-finite rhs row only a taken skip hides.
        let x = [0.7, 0.0, -1.3, -0.0, 2.0];
        let mut w: Vec<f64> = (0..15).map(|i| (i as f64 - 6.5) * 0.37).collect();
        w[3..6].fill(f64::INFINITY);
        let lhs = crate::Matrix::from_vec(1, 5, x.to_vec());
        let rhs = crate::Matrix::from_vec(5, 3, w.clone());
        let mut want = crate::Matrix::zeros(1, 3);
        lhs.matmul_into(&rhs, &mut want);
        let mut got = [0.0; 3];
        vecmat_skip_zero(&x, &w, &mut got);
        assert_eq!(got.map(f64::to_bits), [0, 1, 2].map(|j| want.get(0, j).to_bits()));
        // Split after two coefficients: the second call continues the sum.
        let mut split = [0.0; 3];
        vecmat_skip_zero(&x[..2], &w[..6], &mut split);
        vecmat_skip_zero(&x[2..], &w[6..], &mut split);
        assert_eq!(split.map(f64::to_bits), got.map(f64::to_bits));
        // A skipped term leaves `-0.0` alone; an added `0.0 · b` would not.
        let mut neg_zero = [-0.0];
        vecmat_skip_zero(&[0.0], &[5.0], &mut neg_zero);
        assert_eq!(neg_zero[0].to_bits(), (-0.0f64).to_bits());
        vecmat_skip_zero(&[], &[], &mut neg_zero);
        vecmat_skip_zero(&[1.0], &[], &mut []);
    }

    #[test]
    fn add_rows_matches_repeated_row_matmul_for_every_width() {
        // `[A | h repeated]` through matmul_into equals the prefix `A · W_a`
        // plus the product rows `h[k] · W_h[k]` (zero `h[k]` skipped) added
        // in order — for every block/tail split of the output width.
        let (rows, ka) = (3, 4);
        let h = [0.9, 0.0, -1.7, 2.6, -0.0, 0.35];
        for n in 1..=19 {
            let cell = |i: usize, m: usize| ((i * 7 % m) as f64 - 5.0) * 0.31;
            let a: Vec<f64> = (0..rows * ka).map(|i| cell(i, 13)).collect();
            let w: Vec<f64> = (0..(ka + h.len()) * n).map(|i| cell(i, 11)).collect();
            let (w_a, w_h) = w.split_at(ka * n);

            let cat: Vec<f64> =
                a.chunks_exact(ka).flat_map(|r| r.iter().chain(&h).copied()).collect();
            let lhs = crate::Matrix::from_vec(rows, ka + h.len(), cat);
            let mut want = crate::Matrix::zeros(rows, n);
            lhs.matmul_into(&crate::Matrix::from_vec(ka + h.len(), n, w.clone()), &mut want);

            let mut init = vec![0.0; rows * n];
            for (p, r) in init.chunks_exact_mut(n).zip(a.chunks_exact(ka)) {
                vecmat_skip_zero(r, w_a, p);
            }
            let products: Vec<f64> = h
                .iter()
                .zip(w_h.chunks_exact(n))
                .filter(|(&c, _)| c != 0.0)
                .flat_map(|(&c, r)| r.iter().map(move |&b| c * b))
                .collect();
            let mut got = vec![f64::NAN; rows * n];
            add_rows_in_order(&init, &products, n, &mut got);
            assert_eq!(
                got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "n = {n}"
            );
            // No rows to add: a copy. No init rows: nothing written.
            add_rows_in_order(&init, &[], n, &mut got);
            assert_eq!(got, init);
            add_rows_in_order(&[], &products, n, &mut []);
        }
    }

    #[test]
    #[should_panic(expected = "rows is not")]
    fn add_rows_validates_shapes() {
        add_rows_in_order(&[0.0; 4], &[0.0; 3], 2, &mut [0.0; 4]);
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[]), 0);
        assert_eq!(argmax(&[1.0]), 0);
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[f64::NEG_INFINITY, f64::NEG_INFINITY]), 0);
    }
}
