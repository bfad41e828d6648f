//! The TNN1 weight blob: a parameter collection as bytes, so trained MMA
//! and TRMMA models are written once (into an artifact's params section,
//! [`crate::artifact`]) and reloaded without retraining.
//!
//! ```text
//! "TNN1" | version u32 | count u32 | { rows u32 | cols u32 | f64-bits × rows·cols }*
//! ```
//!
//! Loading checks the magic, version, parameter count, every shape and
//! that no byte follows the last value before touching any parameter, so
//! a failed load never leaves the model half-written. Unlike the framed
//! formats ([`crate::snapshot::seal`]) a blob carries a `u32` version and
//! no CRC of its own; an artifact's section CRC covers it.

use trmma_nn::{Matrix, Param};
use trmma_traj::snapshot::{self, Reader, SnapshotError};

const MAGIC: [u8; 4] = *b"TNN1";
const VERSION: u32 = 1;

/// Serialises the parameter collection to a TNN1 blob.
///
/// # Panics
/// Panics if the parameter count or any shape dimension exceeds `u32::MAX`
/// — the format's fixed-width fields cannot represent it, and silently
/// truncating the cast would produce a blob that *loads* into a
/// differently-shaped model. No real model comes within orders of
/// magnitude of this.
#[must_use]
pub(crate) fn save_params(params: &[Param]) -> Vec<u8> {
    let field = |n: usize, what: &str| -> u32 {
        snapshot::check_u32_len(n).unwrap_or_else(|_| panic!("{what} {n} exceeds the u32 field"))
    };
    let total: usize = params.iter().map(Param::num_weights).sum();
    let mut out = Vec::with_capacity(12 + params.len() * 8 + total * 8);
    out.extend_from_slice(&MAGIC);
    snapshot::put_u32(&mut out, VERSION);
    snapshot::put_u32(&mut out, field(params.len(), "parameter count"));
    for p in params {
        let v = p.value();
        snapshot::put_u32(&mut out, field(v.rows(), "row count"));
        snapshot::put_u32(&mut out, field(v.cols(), "column count"));
        for &x in v.data() {
            snapshot::put_f64(&mut out, x);
        }
    }
    out
}

/// Loads a blob produced by [`save_params`] into `params`; all validation
/// happens before any parameter is modified.
///
/// # Errors
/// [`SnapshotError::Truncated`] / [`SnapshotError::BadMagic`] /
/// [`SnapshotError::BadVersion`] (a version past `u16::MAX` reads as
/// `u16::MAX`) / [`SnapshotError::CountMismatch`] /
/// [`SnapshotError::ShapeMismatch`], or [`SnapshotError::Malformed`] when
/// bytes follow the last value.
pub(crate) fn load_params(params: &[Param], blob: &[u8]) -> Result<(), SnapshotError> {
    let mut r = Reader::new(blob);
    r.magic(MAGIC)?;
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(u16::try_from(version).unwrap_or(u16::MAX)));
    }
    let found = r.u32()? as usize;
    if found != params.len() {
        return Err(SnapshotError::CountMismatch { expected: params.len(), found });
    }
    let mut loaded = Vec::with_capacity(found);
    for (index, p) in params.iter().enumerate() {
        let shape = (r.u32()? as usize, r.u32()? as usize);
        if shape != p.shape() {
            return Err(SnapshotError::ShapeMismatch { index, expected: p.shape(), found: shape });
        }
        // The shape is the model's, so the length is in range; check it
        // against the blob before allocating for it.
        let n = shape.0 * shape.1;
        if r.remaining() < n * 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f64()?);
        }
        loaded.push(Matrix::from_vec(shape.0, shape.1, data));
    }
    r.expect_end()?;
    for (p, m) in params.iter().zip(loaded) {
        p.set_value(m);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use trmma_nn::Init;

    fn params() -> Vec<Param> {
        let mut rng = StdRng::seed_from_u64(5);
        vec![
            Param::new(3, 4, Init::Xavier, &mut rng),
            Param::new(1, 7, Init::Uniform(0.3), &mut rng),
            Param::new(2, 2, Init::Zeros, &mut rng),
        ]
    }

    #[test]
    fn save_load_round_trips() {
        let src = params();
        let blob = save_params(&src);
        let dst = params(); // same shapes, same init seed
                            // Perturb destination so the load visibly changes it.
        dst[0].set_value(Matrix::zeros(3, 4));
        load_params(&dst, &blob).unwrap();
        for (a, b) in src.iter().zip(&dst) {
            assert_eq!(a.value().data(), b.value().data());
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let ps = params();
        assert_eq!(load_params(&ps, b"nope"), Err(SnapshotError::BadMagic));
        assert_eq!(load_params(&ps, b"TN"), Err(SnapshotError::Truncated));
        let blob = save_params(&ps);
        let cut = &blob[..blob.len() / 2];
        assert!(matches!(
            load_params(&ps, cut),
            Err(SnapshotError::Truncated) | Err(SnapshotError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_trailing_bytes_without_writing() {
        let ps = params();
        let mut blob = save_params(&ps);
        blob.push(0);
        let dst = params();
        dst[0].set_value(Matrix::zeros(3, 4));
        assert_eq!(load_params(&dst, &blob), Err(SnapshotError::Malformed("trailing bytes")));
        assert!(dst[0].value().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn rejects_shape_and_count_mismatch() {
        let ps = params();
        let blob = save_params(&ps);
        let fewer = &ps[..2];
        assert_eq!(
            load_params(fewer, &blob),
            Err(SnapshotError::CountMismatch { expected: 2, found: 3 })
        );
        let mut rng = StdRng::seed_from_u64(9);
        let wrong_shape = vec![
            Param::new(4, 3, Init::Zeros, &mut rng), // transposed shape
            Param::new(1, 7, Init::Zeros, &mut rng),
            Param::new(2, 2, Init::Zeros, &mut rng),
        ];
        assert_eq!(
            load_params(&wrong_shape, &blob),
            Err(SnapshotError::ShapeMismatch { index: 0, expected: (4, 3), found: (3, 4) })
        );
        // Failed load must not have modified anything.
        assert!(wrong_shape[1].value().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn error_display_strings() {
        let e = SnapshotError::ShapeMismatch { index: 3, expected: (1, 2), found: (2, 1) };
        assert!(e.to_string().contains('3'));
        assert!(SnapshotError::BadMagic.to_string().contains("magic"));
    }
}
