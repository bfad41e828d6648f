//! Weight persistence: snapshot, save and load parameter collections.
//!
//! Two layers:
//!
//! * `snapshot` / `restore` — in-memory copies of parameter values,
//!   used by [`crate::train::fit`]'s early stopping (keep the best epoch);
//! * [`save_params`] / [`load_params`] — a versioned little-endian binary
//!   format so trained MMA/TRMMA models can be written to disk and reloaded
//!   without retraining.
//!
//! The format is `MAGIC (4) | version (u32) | count (u32) | {rows (u32),
//! cols (u32), values (f64 × rows·cols)}*`. Loading validates the magic,
//! version, parameter count and every shape before touching any value, so
//! a failed load never leaves the model half-written.

use crate::matrix::Matrix;
use crate::param::Param;

/// Little-endian cursor over a byte slice (local stand-in for `bytes::Buf`).
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        head
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

const MAGIC: &[u8; 4] = b"TNN1";
const VERSION: u32 = 1;

/// Errors raised by [`load_params`].
#[derive(Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Not a weight file (bad magic) or truncated header.
    BadHeader,
    /// File version newer than this library understands.
    UnsupportedVersion(u32),
    /// Parameter count in the file differs from the model's.
    CountMismatch {
        /// Parameters expected by the model.
        expected: usize,
        /// Parameters present in the file.
        found: usize,
    },
    /// A parameter's shape differs from the model's.
    ShapeMismatch {
        /// Index of the offending parameter.
        index: usize,
    },
    /// The buffer ended before all declared values were read.
    Truncated,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadHeader => write!(f, "not a trmma-nn weight blob"),
            LoadError::UnsupportedVersion(v) => write!(f, "unsupported weight version {v}"),
            LoadError::CountMismatch { expected, found } => {
                write!(f, "parameter count mismatch: model has {expected}, file has {found}")
            }
            LoadError::ShapeMismatch { index } => {
                write!(f, "shape mismatch at parameter {index}")
            }
            LoadError::Truncated => write!(f, "weight blob truncated"),
        }
    }
}

impl std::error::Error for LoadError {}

/// In-memory copies of the parameter values (cheap early-stopping state).
#[must_use]
pub(crate) fn snapshot(params: &[Param]) -> Vec<Matrix> {
    params.iter().map(Param::value).collect()
}

/// Restores values captured by `snapshot`.
///
/// # Panics
/// Panics on count or shape mismatch — snapshots are only valid for the
/// parameter collection they were taken from.
pub(crate) fn restore(params: &[Param], saved: &[Matrix]) {
    assert_eq!(params.len(), saved.len(), "snapshot/param count mismatch");
    for (p, m) in params.iter().zip(saved) {
        p.set_value(m.clone());
    }
}

/// Serialises the parameter collection to a portable binary blob.
///
/// # Panics
/// Panics if the parameter count or any shape dimension exceeds `u32::MAX`
/// — the format's fixed-width fields cannot represent it, and silently
/// truncating the cast would produce a blob that *loads* into a
/// differently-shaped model. No real model comes within orders of
/// magnitude of this.
#[must_use]
pub fn save_params(params: &[Param]) -> Vec<u8> {
    let field = |n: usize, what: &str| -> u32 {
        u32::try_from(n).unwrap_or_else(|_| panic!("{what} {n} exceeds the u32 field"))
    };
    let total: usize = params.iter().map(Param::num_weights).sum();
    let mut buf = Vec::with_capacity(12 + params.len() * 8 + total * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&field(params.len(), "parameter count").to_le_bytes());
    for p in params {
        let v = p.value();
        buf.extend_from_slice(&field(v.rows(), "row count").to_le_bytes());
        buf.extend_from_slice(&field(v.cols(), "column count").to_le_bytes());
        for &x in v.data() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    buf
}

/// Loads a blob produced by [`save_params`] into `params`.
///
/// All validation happens before any parameter is modified.
///
/// # Errors
/// See [`LoadError`].
pub fn load_params(params: &[Param], blob: &[u8]) -> Result<(), LoadError> {
    let mut buf = Reader { buf: blob };
    if buf.remaining() < 12 {
        return Err(LoadError::BadHeader);
    }
    if buf.take(4) != MAGIC {
        return Err(LoadError::BadHeader);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(LoadError::UnsupportedVersion(version));
    }
    let count = buf.get_u32_le() as usize;
    if count != params.len() {
        return Err(LoadError::CountMismatch { expected: params.len(), found: count });
    }
    // First pass: parse everything into matrices, validating shapes.
    let mut loaded = Vec::with_capacity(count);
    for (i, p) in params.iter().enumerate() {
        if buf.remaining() < 8 {
            return Err(LoadError::Truncated);
        }
        let rows = buf.get_u32_le() as usize;
        let cols = buf.get_u32_le() as usize;
        if (rows, cols) != p.shape() {
            return Err(LoadError::ShapeMismatch { index: i });
        }
        if buf.remaining() < rows * cols * 8 {
            return Err(LoadError::Truncated);
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(buf.get_f64_le());
        }
        loaded.push(Matrix::from_vec(rows, cols, data));
    }
    // Second pass: commit.
    for (p, m) in params.iter().zip(loaded) {
        p.set_value(m);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn snapshot_restore_round_trips() {
        let ps = params();
        let saved = snapshot(&ps);
        ps[1].set_value(Matrix::full(1, 7, 9.0));
        restore(&ps, &saved);
        assert_ne!(ps[1].value().data(), Matrix::full(1, 7, 9.0).data());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let ps = params();
        assert_eq!(load_params(&ps, b"nope"), Err(LoadError::BadHeader));
        let blob = save_params(&ps);
        let cut = &blob[..blob.len() / 2];
        assert!(matches!(
            load_params(&ps, cut),
            Err(LoadError::Truncated) | Err(LoadError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_shape_and_count_mismatch() {
        let ps = params();
        let blob = save_params(&ps);
        let fewer = &ps[..2];
        assert_eq!(
            load_params(fewer, &blob),
            Err(LoadError::CountMismatch { expected: 2, found: 3 })
        );
        let mut rng = StdRng::seed_from_u64(9);
        let wrong_shape = vec![
            Param::new(4, 3, Init::Zeros, &mut rng), // transposed shape
            Param::new(1, 7, Init::Zeros, &mut rng),
            Param::new(2, 2, Init::Zeros, &mut rng),
        ];
        assert_eq!(load_params(&wrong_shape, &blob), Err(LoadError::ShapeMismatch { index: 0 }));
        // Failed load must not have modified anything.
        assert!(wrong_shape[1].value().data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn error_display_strings() {
        assert!(LoadError::BadHeader.to_string().contains("weight blob"));
        assert!(LoadError::ShapeMismatch { index: 3 }.to_string().contains('3'));
    }
}
