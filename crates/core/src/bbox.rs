//! Axis-aligned bounding boxes.
//!
//! Bounding boxes are the geometric primitive behind both tree indices: a
//! quadtree node covers a square region and an R-tree node covers the minimum
//! bounding rectangle of its children. The pruning rules of the paper
//! (Observation 1, Lemma 2) are phrased in terms of the minimum and maximum
//! distance from a query point to such a region, which is what
//! [`BoundingBox::min_dist`] and [`BoundingBox::max_dist`] provide.

use crate::point::Point;

/// A closed axis-aligned rectangle `[min_x, max_x] × [min_y, max_y]`.
///
/// The *empty* box is represented with inverted bounds
/// (`min = +∞`, `max = −∞`) so that it behaves as the identity for
/// [`BoundingBox::union`] and contains nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BoundingBox {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl BoundingBox {
    /// The empty bounding box (identity element of [`union`](Self::union)).
    pub const EMPTY: BoundingBox = BoundingBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    /// Creates a bounding box from explicit bounds.
    ///
    /// # Panics
    /// Panics if `min_x > max_x` or `min_y > max_y` (use [`BoundingBox::EMPTY`]
    /// for an empty box).
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(
            min_x <= max_x && min_y <= max_y,
            "BoundingBox::new: inverted bounds ({min_x},{min_y})-({max_x},{max_y})"
        );
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// The degenerate box containing exactly one point.
    pub fn from_point(p: Point) -> Self {
        BoundingBox {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// The tight bounding box of a set of points (empty box for no points).
    pub fn from_points(points: &[Point]) -> Self {
        points
            .iter()
            .fold(BoundingBox::EMPTY, |bb, p| bb.extended(*p))
    }

    /// Minimum x bound.
    #[inline]
    pub fn min_x(&self) -> f64 {
        self.min_x
    }

    /// Minimum y bound.
    #[inline]
    pub fn min_y(&self) -> f64 {
        self.min_y
    }

    /// Maximum x bound.
    #[inline]
    pub fn max_x(&self) -> f64 {
        self.max_x
    }

    /// Maximum y bound.
    #[inline]
    pub fn max_y(&self) -> f64 {
        self.max_y
    }

    /// Whether the box contains no points at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Width of the box along x (0 for the empty box).
    #[inline]
    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height of the box along y (0 for the empty box).
    #[inline]
    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    /// Length of the diagonal (0 for the empty box).
    pub fn diagonal(&self) -> f64 {
        let w = self.width();
        let h = self.height();
        (w * w + h * h).sqrt()
    }

    /// Area of the box (0 for the empty box).
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre of the box.
    ///
    /// # Panics
    /// Panics if the box is empty.
    pub fn center(&self) -> Point {
        assert!(!self.is_empty(), "BoundingBox::center on empty box");
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the box contains the given point (boundary inclusive).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether this box fully contains `other` (empty boxes are contained in
    /// everything).
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Whether the two boxes overlap (boundary touching counts as overlap).
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Returns this box grown to also cover `p`.
    pub fn extended(&self, p: Point) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(p.x),
            min_y: self.min_y.min(p.y),
            max_x: self.max_x.max(p.x),
            max_y: self.max_y.max(p.y),
        }
    }

    /// Smallest box covering both operands.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Minimum Euclidean distance from `p` to any point of the box.
    ///
    /// This is the `dmin(p, node)` function of the paper: it is `0` when `p`
    /// lies inside the box. Returns `+∞` for the empty box so that empty
    /// regions are always pruned.
    pub fn min_dist(&self, p: Point) -> f64 {
        self.min_dist_squared(p).sqrt()
    }

    /// Squared minimum Euclidean distance from `p` to any point of the box.
    ///
    /// The sqrt-free variant of [`min_dist`](Self::min_dist), used by the
    /// ρ-query hot loop which compares against a precomputed `dc²` instead of
    /// paying a square root per node (safe: squaring is monotone on
    /// non-negative distances, see the discussion in
    /// [`crate::metric`]). Returns `+∞` for the empty box.
    #[inline]
    pub fn min_dist_squared(&self, p: Point) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        // Branch-free: at most one of the two gaps is positive.
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        dx * dx + dy * dy
    }

    /// Maximum Euclidean distance from `p` to any point of the box.
    ///
    /// This is the `dmax(p, node)` function of the paper, used to detect that
    /// a node is *fully contained* in the query circle. Returns `0` for the
    /// empty box (an empty region can always be counted as fully contained —
    /// it contributes nothing).
    pub fn max_dist(&self, p: Point) -> f64 {
        self.max_dist_squared(p).sqrt()
    }

    /// Squared maximum Euclidean distance from `p` to any point of the box.
    ///
    /// The sqrt-free variant of [`max_dist`](Self::max_dist); see
    /// [`min_dist_squared`](Self::min_dist_squared). Returns `0` for the
    /// empty box.
    #[inline]
    pub fn max_dist_squared(&self, p: Point) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let dx = (p.x - self.min_x).abs().max((p.x - self.max_x).abs());
        let dy = (p.y - self.min_y).abs().max((p.y - self.max_y).abs());
        dx * dx + dy * dy
    }

    /// A lower bound on [`min_dist_squared`](Self::min_dist_squared) from
    /// any point of `other`: the squared gap between the two boxes (`0` when
    /// they touch or overlap, `+∞` when either is empty).
    ///
    /// The bound holds in floating point, not only over the reals: for a
    /// point `p` of `other`, each of `p`'s axis gaps is a difference
    /// `fl(a − b)` that only shrinks as `p` moves towards this box, and
    /// rounded subtraction, squaring and addition are all monotone. So
    /// `other.min_dist_squared_to(self) <= self.min_dist_squared(p)` exactly,
    /// and a leaf-wide `>= dc²` test discards the box only where the
    /// per-point test would discard it for every point of `other`.
    #[inline]
    pub fn min_dist_squared_to(&self, other: &BoundingBox) -> f64 {
        if self.is_empty() || other.is_empty() {
            return f64::INFINITY;
        }
        let dx = (self.min_x - other.max_x)
            .max(other.min_x - self.max_x)
            .max(0.0);
        let dy = (self.min_y - other.max_y)
            .max(other.min_y - self.max_y)
            .max(0.0);
        dx * dx + dy * dy
    }

    /// An upper bound on [`max_dist_squared`](Self::max_dist_squared) from
    /// any point of `other`: the squared distance between the two farthest
    /// corners (`0` when either box is empty, which holds vacuously).
    ///
    /// Exact in floating point for the reason given at
    /// [`min_dist_squared_to`](Self::min_dist_squared_to): every axis term
    /// of the per-point bound is a rounded difference that the far-corner
    /// difference dominates. A leaf-wide `< dc²` test therefore counts the
    /// box wholesale only where the per-point test would for every point of
    /// `other`.
    #[inline]
    pub fn max_dist_squared_to(&self, other: &BoundingBox) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let dx = (self.max_x - other.min_x)
            .abs()
            .max((other.max_x - self.min_x).abs());
        let dy = (self.max_y - other.min_y)
            .abs()
            .max((other.max_y - self.min_y).abs());
        dx * dx + dy * dy
    }

    /// Splits the box into four equal quadrants: `[SW, SE, NW, NE]`.
    ///
    /// Used by the quadtree. The quadrants share their boundaries; the
    /// quadtree resolves boundary membership with half-open comparisons
    /// against the centre.
    ///
    /// # Panics
    /// Panics if the box is empty.
    pub fn quadrants(&self) -> [BoundingBox; 4] {
        let c = self.center();
        [
            BoundingBox::new(self.min_x, self.min_y, c.x, c.y), // SW
            BoundingBox::new(c.x, self.min_y, self.max_x, c.y), // SE
            BoundingBox::new(self.min_x, c.y, c.x, self.max_y), // NW
            BoundingBox::new(c.x, c.y, self.max_x, self.max_y), // NE
        ]
    }

    /// Returns this box expanded by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> BoundingBox {
        if self.is_empty() {
            return *self;
        }
        BoundingBox {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }
}

impl Default for BoundingBox {
    fn default() -> Self {
        BoundingBox::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_properties() {
        let e = BoundingBox::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.height(), 0.0);
        assert_eq!(e.area(), 0.0);
        assert!(!e.contains(Point::origin()));
        assert_eq!(e.min_dist(Point::origin()), f64::INFINITY);
        assert_eq!(e.max_dist(Point::origin()), 0.0);
    }

    #[test]
    fn from_points_is_tight() {
        let pts = vec![
            Point::new(1.0, 2.0),
            Point::new(-3.0, 5.0),
            Point::new(0.0, 0.0),
        ];
        let bb = BoundingBox::from_points(&pts);
        assert_eq!(bb, BoundingBox::new(-3.0, 0.0, 1.0, 5.0));
        for p in &pts {
            assert!(bb.contains(*p));
        }
    }

    #[test]
    fn union_with_empty_is_identity() {
        let bb = BoundingBox::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(bb.union(&BoundingBox::EMPTY), bb);
        assert_eq!(BoundingBox::EMPTY.union(&bb), bb);
    }

    #[test]
    fn union_covers_both() {
        let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        let b = BoundingBox::new(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_box(&a));
        assert!(u.contains_box(&b));
        assert_eq!(u, BoundingBox::new(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn squared_distances_are_squares_of_the_true_ones() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        for p in [
            Point::new(5.0, 5.0),
            Point::new(13.0, 5.0),
            Point::new(-2.0, -3.0),
            Point::new(11.0, 14.0),
        ] {
            assert_eq!(bb.min_dist(p), bb.min_dist_squared(p).sqrt());
            assert_eq!(bb.max_dist(p), bb.max_dist_squared(p).sqrt());
        }
        let e = BoundingBox::EMPTY;
        assert_eq!(e.min_dist_squared(Point::origin()), f64::INFINITY);
        assert_eq!(e.max_dist_squared(Point::origin()), 0.0);
    }

    #[test]
    fn box_to_box_bounds_bracket_every_point_pair() {
        // xorshift64*, so the sweep is deterministic without a dependency.
        fn next(state: &mut u64) -> f64 {
            *state ^= *state >> 12;
            *state ^= *state << 25;
            *state ^= *state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        // Coordinates at several magnitudes, with offsets that cross zero, so
        // the rounded differences really round.
        let coord = |state: &mut u64, scale: f64| (next(state) - 0.5) * scale + 0.1;
        for round in 0..4_000 {
            let scale = [1e-3, 1.0, 7.3e4, 1e12][round % 4];
            let mut make = || {
                let (x0, x1) = (coord(&mut state, scale), coord(&mut state, scale));
                let (y0, y1) = (coord(&mut state, scale), coord(&mut state, scale));
                BoundingBox::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
            };
            let (a, b) = (make(), make());
            let (lo, hi) = (a.min_dist_squared_to(&b), a.max_dist_squared_to(&b));
            assert_eq!(lo, b.min_dist_squared_to(&a), "min is symmetric");
            assert_eq!(hi, b.max_dist_squared_to(&a), "max is symmetric");
            let pts = |bb: &BoundingBox, t: [f64; 4]| {
                let lerp = |lo: f64, hi: f64, t: f64| (lo + (hi - lo) * t).clamp(lo, hi);
                let mut out = vec![
                    Point::new(bb.min_x, bb.min_y),
                    Point::new(bb.max_x, bb.max_y),
                    Point::new(bb.min_x, bb.max_y),
                    Point::new(bb.max_x, bb.min_y),
                ];
                for w in t.chunks(2) {
                    out.push(Point::new(
                        lerp(bb.min_x, bb.max_x, w[0]),
                        lerp(bb.min_y, bb.max_y, w[1]),
                    ));
                }
                out
            };
            let mut t = || [0; 4].map(|_| next(&mut state));
            let (ta, tb) = (t(), t());
            for p in pts(&a, ta) {
                // The per-point box distances the tree queries test.
                assert!(lo <= b.min_dist_squared(p), "{a:?} {b:?} {p:?}");
                assert!(hi >= b.max_dist_squared(p), "{a:?} {b:?} {p:?}");
                for q in pts(&b, tb) {
                    let d2 = p.distance_squared(&q);
                    assert!(lo <= d2 && d2 <= hi, "{a:?} {b:?} {p:?} {q:?}");
                }
            }
        }
        let unit = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(unit.min_dist_squared_to(&unit), 0.0);
        assert_eq!(unit.max_dist_squared_to(&unit), 2.0);
        let far = BoundingBox::new(4.0, 5.0, 6.0, 9.0);
        assert_eq!(unit.min_dist_squared_to(&far), 9.0 + 16.0);
        assert_eq!(unit.max_dist_squared_to(&far), 36.0 + 81.0);
        assert_eq!(unit.min_dist_squared_to(&BoundingBox::EMPTY), f64::INFINITY);
        assert_eq!(BoundingBox::EMPTY.max_dist_squared_to(&unit), 0.0);
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(bb.min_dist(Point::new(5.0, 5.0)), 0.0);
        assert_eq!(bb.min_dist(Point::new(0.0, 0.0)), 0.0); // boundary
    }

    #[test]
    fn min_dist_outside_axis_aligned() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(bb.min_dist(Point::new(13.0, 5.0)), 3.0);
        assert_eq!(bb.min_dist(Point::new(5.0, -4.0)), 4.0);
    }

    #[test]
    fn min_dist_outside_corner() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        assert_eq!(bb.min_dist(Point::new(13.0, 14.0)), 5.0);
    }

    #[test]
    fn max_dist_is_to_farthest_corner() {
        let bb = BoundingBox::new(0.0, 0.0, 10.0, 10.0);
        let d = bb.max_dist(Point::new(1.0, 1.0));
        let expected = Point::new(1.0, 1.0).distance(&Point::new(10.0, 10.0));
        assert!((d - expected).abs() < 1e-12);
    }

    #[test]
    fn max_dist_bounds_all_contained_points() {
        let bb = BoundingBox::new(-2.0, -2.0, 7.0, 3.0);
        let q = Point::new(1.0, 1.0);
        let dmax = bb.max_dist(q);
        for &p in &[
            Point::new(-2.0, -2.0),
            Point::new(7.0, 3.0),
            Point::new(0.0, 0.0),
            Point::new(7.0, -2.0),
        ] {
            assert!(q.distance(&p) <= dmax + 1e-12);
        }
    }

    #[test]
    fn min_dist_never_exceeds_max_dist() {
        let bb = BoundingBox::new(0.0, 0.0, 4.0, 2.0);
        for &q in &[
            Point::new(-3.0, 5.0),
            Point::new(2.0, 1.0),
            Point::new(10.0, -10.0),
        ] {
            assert!(bb.min_dist(q) <= bb.max_dist(q));
        }
    }

    #[test]
    fn quadrants_partition_area() {
        let bb = BoundingBox::new(0.0, 0.0, 8.0, 4.0);
        let qs = bb.quadrants();
        let total: f64 = qs.iter().map(|q| q.area()).sum();
        assert!((total - bb.area()).abs() < 1e-12);
        for q in &qs {
            assert!(bb.contains_box(q));
        }
    }

    #[test]
    fn intersects_and_contains_box() {
        let a = BoundingBox::new(0.0, 0.0, 4.0, 4.0);
        let b = BoundingBox::new(2.0, 2.0, 6.0, 6.0);
        let c = BoundingBox::new(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(a.contains_box(&BoundingBox::new(1.0, 1.0, 2.0, 2.0)));
        assert!(!a.contains_box(&b));
    }

    #[test]
    fn inflated_grows_every_side() {
        let bb = BoundingBox::new(0.0, 0.0, 1.0, 1.0).inflated(0.5);
        assert_eq!(bb, BoundingBox::new(-0.5, -0.5, 1.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn new_rejects_inverted_bounds() {
        BoundingBox::new(1.0, 0.0, 0.0, 2.0);
    }
}
