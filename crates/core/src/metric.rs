//! Distances: squared versus true.
//!
//! The paper (and the original DPC algorithm) uses the Euclidean distance on
//! 2-D spatial data, and so does every index in the workspace
//! ([`Point::distance`](crate::Point::distance)).
//!
//! ## Where squared distances are safe — and where they are not
//!
//! The hot loops of the workspace avoid square roots wherever the comparison
//! allows it, and this is the one place that documents the rule:
//!
//! * **Safe, with the right threshold: the ρ test.** `ρ` counts points
//!   whose correctly rounded distance is below `dc`. `fl(√·)` is monotone,
//!   so that holds exactly when `d² < t` for the one squared threshold
//!   [`dc_sq_threshold`] (the smallest `t` with `fl(√t) ≥ dc`), which can
//!   differ from `fl(dc²)` by an ulp ([`validate_dc`](crate::index::validate_dc)
//!   rejects degenerate cut-offs whose square would underflow f64). The
//!   baselines and the tree traversals therefore compare
//!   [`Point::distance_squared`](crate::Point::distance_squared) (and
//!   [`BoundingBox::min_dist_squared`](crate::BoundingBox::min_dist_squared) /
//!   [`BoundingBox::max_dist_squared`](crate::BoundingBox::max_dist_squared))
//!   against that precomputed threshold and never take a root.
//! * **Not enough on its own: a `(distance, id)` argmin.** The δ/µ rule
//!   minimises the *rounded* distance and breaks ties towards the smaller
//!   id. Two squared distances one ulp apart can share a square root, so an
//!   argmin over squared distances may pick the larger id where the rounded
//!   distances tie. Such loops compare squared distances only as a
//!   **prefilter** — skip `d²` above [`sq_prefilter_bound`] of the best
//!   distance so far, and take the root of the survivors to decide.
//! * **A prefilter too: Lemma 2's node test.** Lemma 2 of the paper prunes
//!   a node `N` because `dmin(p, N) ≤ dist(p, q)` for every `q ∈ N`, and
//!   that bound also holds between the rounded squares
//!   ([`BoundingBox::min_dist_squared`](crate::BoundingBox::min_dist_squared)
//!   never exceeds a member's `d²`). So the best-first δ-search orders its
//!   heap by `dmin²` and prunes a node only when `dmin²` exceeds
//!   [`sq_prefilter_bound`] of the best candidate δ — a node that could
//!   hold a tie always survives, and the `(distance, id)` rule still
//!   decides on true distances.
//! * **Unsafe: anything built on the triangle inequality.** Downstream
//!   consumers of δ (the decision graph, the RN-List threshold reasoning of
//!   §3.3, halo boundaries) combine distances *additively*. Squared
//!   "distance" is not a metric: it violates the triangle inequality
//!   (`d²(a,c) ≰ d²(a,b) + d²(b,c)`), so any bound that offsets, sums or
//!   subtracts distances breaks after squaring. δ itself is therefore always
//!   a true metric distance.

/// A squared-distance bound for prefiltering a `(distance, id)` argmin: every
/// `d2` above `sq_prefilter_bound(best)` has `d2.sqrt() > best`, so such a
/// candidate can be skipped without taking its root.
///
/// `best * best` is off by at most half an ulp, and a root rounds down to
/// `best` from up to `best · ulp(best)` above `best²`; together that is under
/// three ulps of `best²`. The factor `1 + 2⁻⁴⁸` pads by at least fifteen.
/// Where `best²` is subnormal the padding vanishes, but then the rounding
/// slack is far below one subnormal step, so `fl(best²)` alone is safe. An
/// overflowing `best²` gives `+∞` and skips nothing.
#[inline]
pub fn sq_prefilter_bound(best: f64) -> f64 {
    best * best * (1.0 + 16.0 * f64::EPSILON)
}

/// The squared ρ threshold of a cut-off distance: the smallest `t` with
/// `fl(√t) ≥ dc`, so that for every squared distance `d2`
///
/// ```text
/// d2 < dc_sq_threshold(dc)   ⟺   fl(√d2) < dc
/// ```
///
/// The ρ definition counts a pair when its correctly rounded distance is
/// below `dc`, and the list indexes and `NaiveReferenceIndex` test exactly
/// that. `dc * dc` alone is not the matching squared threshold: it is
/// rounded too, and where `dc` is itself the rounded distance of a pair,
/// `fl(dc²)` can exceed that pair's `d2`, so `d2 < fl(dc²)` counts a pair
/// whose rounded distance equals `dc`. Every sqrt-free ρ, weighted-ρ and
/// ε-neighbourhood test compares against this threshold instead.
///
/// `fl(√·)` is monotone and `fl(dc²)` lies within an ulp or two of the
/// threshold, so the result is found by stepping `fl(dc²)` a few ulps. A
/// `dc` whose square is not a positive finite number (rejected by
/// [`validate_dc`](crate::index::validate_dc)) returns `dc * dc` unchanged.
///
/// ```
/// use dpc_core::dc_sq_threshold;
///
/// // The pair's rounded distance is dc itself, yet fl(dc²) > d².
/// let (dx, dy) = (2.0f64 - -19.5, -18.5f64 - 13.0);
/// let d2 = dx * dx + dy * dy;
/// let dc = d2.sqrt();
/// assert!(d2 < dc * dc);
/// assert!(!(d2 < dc_sq_threshold(dc)));
/// ```
pub fn dc_sq_threshold(dc: f64) -> f64 {
    let sq = dc * dc;
    if !(sq.is_finite() && sq > 0.0) {
        return sq;
    }
    // Positive finite f64s order like their bit patterns, so ±1 on the bits
    // steps one ulp.
    let down = |t: f64| f64::from_bits(t.to_bits() - 1);
    let up = |t: f64| f64::from_bits(t.to_bits() + 1);
    let mut t = sq;
    while down(t) > 0.0 && down(t).sqrt() >= dc {
        t = down(t);
    }
    while t.sqrt() < dc {
        t = up(t);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_sq_threshold_agrees_with_the_rounded_distance_test() {
        // Walk d² across the threshold one ulp at a time: the squared test
        // must match fl(√d²) < dc on every step.
        let pair_dc = (21.5f64 * 21.5 + 31.5 * 31.5).sqrt();
        for dc in [
            1.0,
            0.1,
            pair_dc,
            std::f64::consts::SQRT_2,
            3.7e-150,
            1e150,
            38.137_907_651_049_765,
        ] {
            let t = dc_sq_threshold(dc);
            assert!(t.sqrt() >= dc, "dc = {dc:e}");
            let mut d2 = f64::from_bits((dc * dc).to_bits() - 8);
            for _ in 0..16 {
                assert_eq!(d2 < t, d2.sqrt() < dc, "dc = {dc:e}, d2 = {d2:e}");
                d2 = f64::from_bits(d2.to_bits() + 1);
            }
        }
        // The reproduction pair: fl(dc²) overshoots d² by one ulp.
        assert!(21.5f64 * 21.5 + 31.5 * 31.5 < pair_dc * pair_dc);
        assert_eq!(dc_sq_threshold(pair_dc), 21.5f64 * 21.5 + 31.5 * 31.5);
        assert_eq!(dc_sq_threshold(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn sq_prefilter_bound_never_rejects_a_root_that_ties_or_beats_best() {
        // Walk up from best² one ulp at a time: every d2 whose root still
        // rounds to at most `best` must sit at or below the bound.
        for best in [
            1.0,
            1.0 + f64::EPSILON,
            2.0 - f64::EPSILON,
            std::f64::consts::SQRT_2,
            0.1,
            3.7e-160,
            1e-200,
            f64::MIN_POSITIVE,
            1e150,
            1.340_780_792_994_259_6e154, // √f64::MAX: the padded bound overflows
        ] {
            let bound = sq_prefilter_bound(best);
            let mut d2 = best * best;
            for _ in 0..64 {
                if !d2.is_finite() {
                    break;
                }
                if d2.sqrt() <= best {
                    assert!(d2 <= bound, "best = {best:e}, d2 = {d2:e}");
                }
                d2 = f64::from_bits(d2.to_bits() + 1);
            }
        }
        assert_eq!(sq_prefilter_bound(f64::INFINITY), f64::INFINITY);
        assert_eq!(sq_prefilter_bound(1e200), f64::INFINITY);
    }
}
