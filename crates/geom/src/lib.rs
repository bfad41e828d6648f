//! Geometry primitives for road-network trajectory processing.
//!
//! Everything downstream (the R-tree, the road network, map matching, the
//! trajectory generator) works in a **local planar frame** measured in
//! metres: a [`Vec2`] is an `(x, y)` position. The synthetic city generator
//! emits this frame directly; the paper's city-scale extents (≤ 30 km,
//! Table II) are where a planar frame's error stays far below GPS noise
//! (≈ 5–30 m).
//!
//! The crate provides:
//!
//! * [`Vec2`] — planar vector algebra (dot, norm, cosine similarity — the
//!   direction features of MMA §IV-B);
//! * [`SegLine`] — a directed straight segment with point projection,
//!   perpendicular distance and position-ratio computation (Definition 5);
//! * [`BBox`] — axis-aligned bounding boxes used by the STR R-tree.
//!
//! # Example
//!
//! Project a noisy GPS position onto a road segment — the core geometric
//! step of every matcher in the workspace:
//!
//! ```
//! use trmma_geom::{SegLine, Vec2};
//!
//! let road = SegLine::new(Vec2::new(0.0, 0.0), Vec2::new(100.0, 0.0));
//! let gps = Vec2::new(40.0, 3.0); // 3 m of lateral noise
//! assert!((road.distance_to(gps) - 3.0).abs() < 1e-12);
//! assert!((road.project_ratio(gps) - 0.4).abs() < 1e-12);
//! assert_eq!(road.closest_point(gps), Vec2::new(40.0, 0.0));
//! ```

mod bbox;
mod point;
mod segline;

pub use bbox::BBox;
pub use point::Vec2;
pub use segline::SegLine;

/// Cosine similarity between two planar vectors.
///
/// Returns 0 when either vector is (numerically) zero, which is the neutral
/// value for the direction features of MMA: a stationary GPS pair carries no
/// directional information.
#[must_use]
pub fn cosine_similarity(a: Vec2, b: Vec2) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na <= f64::EPSILON || nb <= f64::EPSILON {
        return 0.0;
    }
    (a.dot(b) / (na * nb)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(6.0, 8.0);
        assert!((cosine_similarity(a, b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_antiparallel_vectors_is_minus_one() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(-2.0, 0.0);
        assert!((cosine_similarity(a, b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 5.0);
        assert!(cosine_similarity(a, b).abs() < 1e-12);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(1.0, 1.0);
        assert_eq!(cosine_similarity(a, b), 0.0);
        assert_eq!(cosine_similarity(b, a), 0.0);
    }
}
