//! The δ/µ maintenance kernel of the streaming engine.
//!
//! After an insert or delete, the engine splits δ/µ repair into two passes,
//! both parallelised over the chunked executor of [`dpc_core::exec`] (so
//! results are bit-identical at every thread count):
//!
//! * a **recompute** of the bounded *invalidation set* `F` — points whose set
//!   of denser neighbours may have *shrunk* (their own ρ changed, their µ was
//!   removed or demoted, the global peak) — through the index's own
//!   per-target δ-query,
//!   [`UpdatableIndex::delta_targets`](dpc_core::UpdatableIndex::delta_targets).
//!   The grid, k-d tree and R-tree answer it with the pruned best-first
//!   search of Algorithm 6 on their own nodes; the naive and lean engines
//!   run the brute-force scan
//!   [`delta_point_scan`](dpc_core::index::delta_point_scan) per target;
//! * a **candidate fold** over everything else ([`candidate_pass`]): for
//!   points outside `F` the denser set can only have *gained* members (the
//!   inserted point, neighbours whose ρ rose, a point renamed to a smaller
//!   id), so the existing `(δ, µ)` stays a valid minimum and only the
//!   handful of candidate entrants need to be folded in. The candidates are
//!   bucketed into groups with tight boxes first, and a point skips every
//!   group whose box lies beyond its current δ — one box test instead of a
//!   distance per candidate.
//!
//! When `F` is too large the engine skips both and runs the index's own
//! δ-query over the whole window instead
//! ([`DpcIndex::delta_query`](dpc_core::DpcIndex::delta_query)).
//!
//! ## Tie-breaking
//!
//! Everything here minimises the lexicographic pair `(δ, id)`: the
//! correctly rounded *true* distance first, the smaller id on equal
//! distances — the workspace-wide convention (the tree δ-query in
//! `dpc-tree-index`, the brute-force kernels in `dpc-baseline`,
//! `NaiveReferenceIndex`). Minimising *squared* distances instead is not
//! equivalent: two squared distances one ulp apart can share a square root,
//! and the id must then decide. Squared distances serve only as a prefilter
//! ([`sq_prefilter_bound`]) that skips the root of candidates, and the box
//! of whole groups, that cannot tie.

use std::ops::Range;

use dpc_core::{
    exec, sq_prefilter_bound, BoundingBox, Dataset, DeltaResult, DensityOrder, ExecPolicy, PointId,
};

/// Side of the square cells that group the candidate entrants of
/// [`candidate_pass`], as a multiple of `dc`.
///
/// Nearly every candidate is an inserted point or a point within `dc` of an
/// update, so the candidates of one update lie in a disk of diameter `2·dc`:
/// at this side they fall into at most four groups, whose tight boxes are
/// no larger than that disk's square. A larger side merges the disks of
/// far-apart updates into loose boxes; a smaller one splits each disk into
/// more boxes to test per point.
pub const CANDIDATE_GROUP_SIDE_DC: f64 = 2.0;

/// Candidates falling into one grouping cell, with their tight box.
struct CandidateGroup {
    bbox: BoundingBox,
    /// The members' range in the key-sorted candidate list.
    members: Range<usize>,
}

/// Folds a small set of *candidate entrants* into the δ/µ of every point
/// outside the invalidation set, and returns the number of squared
/// distances it computed.
///
/// For a point `p` with `skip[p] == false`, the existing `(δ(p), µ(p))` is
/// the valid lexicographic minimum over `p`'s previous denser set, and
/// `candidates` is a superset of the points that may have *entered* that set
/// (an entrant that was already denser folds in as a no-op: it can never
/// beat a minimum that already accounted for it; repeated ids are folded
/// once). Each candidate `c` that is denser than `p` under the *new* order is
/// min-folded with the workspace tie rule: strictly smaller distance wins,
/// equal distance goes to the smaller id.
///
/// The comparison is on the correctly rounded **true** distances, like
/// [`delta_point_scan`](dpc_core::index::delta_point_scan) and the batch
/// kernels: two squared distances one ulp apart can round to the same
/// square root, and the batch run then lets the smaller id win where a
/// squared comparison would see a strict inequality. The incumbent is the
/// stored `δ(p)`, which is exactly the rounded distance to `µ(p)`;
/// candidates whose squared distance lies above [`sq_prefilter_bound`] of it
/// are skipped without a root.
///
/// The candidates are first bucketed by cells of side
/// [`CANDIDATE_GROUP_SIDE_DC`]` · dc`, each group with the tight box of its
/// members. A point skips a whole group when the box's
/// [`BoundingBox::min_dist_squared`] exceeds the same padded bound. That is
/// exact: the box distance never exceeds a member's squared distance, so a
/// skipped member could neither beat nor tie δ(p), and the lexicographic
/// minimum does not depend on the order the survivors are folded in.
///
/// A point whose `µ` is `None` (the global peak, carrying the max-distance
/// sentinel rather than a minimum) must be masked out via `skip`; the engine
/// always recomputes peaks from scratch.
pub fn candidate_pass(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    candidates: &[PointId],
    skip: &[bool],
    dc: f64,
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
) -> u64 {
    if candidates.is_empty() {
        return 0;
    }
    let pts = dataset.points();
    let side = CANDIDATE_GROUP_SIDE_DC * dc;
    let mut keyed: Vec<((i64, i64), PointId)> = candidates
        .iter()
        .map(|&c| {
            let (x, y) = (pts[c].x, pts[c].y);
            (((x / side).floor() as i64, (y / side).floor() as i64), c)
        })
        .collect();
    keyed.sort_unstable();
    keyed.dedup();
    let mut groups: Vec<CandidateGroup> = Vec::new();
    for (i, &(key, c)) in keyed.iter().enumerate() {
        match groups.last_mut() {
            Some(g) if keyed[g.members.start].0 == key => {
                g.bbox = g.bbox.extended(pts[c]);
                g.members.end = i + 1;
            }
            _ => groups.push(CandidateGroup {
                bbox: BoundingBox::from_point(pts[c]),
                members: i..i + 1,
            }),
        }
    }
    let evals = exec::fill_slice_pair(
        &mut deltas.delta,
        &mut deltas.mu,
        policy,
        || 0u64,
        |p, delta_slot, mu_slot, evals| {
            if skip[p] {
                return;
            }
            let at = pts[p];
            let mut bound = sq_prefilter_bound(*delta_slot);
            for g in &groups {
                if g.bbox.min_dist_squared(at) > bound {
                    continue;
                }
                for &(_, c) in &keyed[g.members.clone()] {
                    if !order.is_denser(c, p) {
                        continue;
                    }
                    *evals += 1;
                    let d2 = pts[c].distance_squared(&at);
                    if d2 > bound {
                        continue;
                    }
                    let d = d2.sqrt();
                    let wins = match *mu_slot {
                        Some(b) => d < *delta_slot || (d == *delta_slot && c < b),
                        // Unset (δ = ∞): any denser candidate wins. Peaks
                        // carry a sentinel δ instead and must be masked (see
                        // above).
                        None => true,
                    };
                    if wins {
                        *delta_slot = d;
                        *mu_slot = Some(c);
                        bound = sq_prefilter_bound(d);
                    }
                }
            }
        },
    );
    evals.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{DpcIndex, Rho};
    use dpc_datasets::SplitMix64;

    /// The fold as it ran before grouping: every candidate, in list order,
    /// against every unmasked point.
    fn ungrouped_fold(
        dataset: &Dataset,
        order: &DensityOrder<'_>,
        candidates: &[PointId],
        skip: &[bool],
        deltas: &mut DeltaResult,
    ) {
        let pts = dataset.points();
        for p in 0..dataset.len() {
            if skip[p] {
                continue;
            }
            let mut bound = sq_prefilter_bound(deltas.delta[p]);
            for &c in candidates {
                if !order.is_denser(c, p) {
                    continue;
                }
                let d2 = pts[c].distance_squared(&pts[p]);
                if d2 > bound {
                    continue;
                }
                let d = d2.sqrt();
                let wins = match deltas.mu[p] {
                    Some(b) => d < deltas.delta[p] || (d == deltas.delta[p] && c < b),
                    None => true,
                };
                if wins {
                    deltas.delta[p] = d;
                    deltas.mu[p] = Some(c);
                    bound = sq_prefilter_bound(d);
                }
            }
        }
    }

    #[test]
    fn grouped_fold_equals_the_ungrouped_fold_and_the_reference() {
        let dc = 0.3;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            // A lattice-ish cloud (coincident points and equal distances),
            // plus two far-away points at the end.
            let mut coords: Vec<(f64, f64)> = (0..300)
                .map(|_| {
                    let x = (rng.uniform(0.0, 40.0)).floor() * 0.25;
                    let y = (rng.uniform(0.0, 40.0)).floor() * 0.25;
                    (x, y)
                })
                .collect();
            coords.push((1000.0, 1000.0));
            coords.push((1001.0, 1000.0));
            let n = coords.len();
            let (far, far_dependent) = (n - 2, n - 1);
            let data = Dataset::from_coords(coords);
            let mut rho_old: Vec<Rho> = (0..n).map(|_| (rng.next_u64() % 5) as Rho).collect();
            rho_old[far] = 0.0;
            rho_old[far_dependent] = 2.0;
            let naive = NaiveReferenceIndex::build(&data);
            let old = naive.delta(dc, &rho_old).unwrap();
            // Candidates scattered over the cloud (some twice), plus the far
            // point: their ranks rise, so every other point's denser set only
            // gains members. The far point overtakes its neighbour, whose
            // dependent neighbour sits ~1400 away in another group.
            let mut candidates: Vec<PointId> =
                (0..12).map(|_| (rng.next_u64() % 300) as PointId).collect();
            candidates.push(candidates[0]);
            candidates.push(far);
            let mut rho_new = rho_old.clone();
            for &c in &candidates {
                rho_new[c] = rho_old[c] + 3.0;
            }
            let order = DensityOrder::new(&rho_new);
            let peak = order.global_peak().unwrap();
            let mut skip = vec![false; n];
            for &c in &candidates {
                skip[c] = true;
            }
            for (p, masked) in skip.iter_mut().enumerate() {
                *masked |= old.mu[p].is_none() || p == peak;
            }
            assert!(!skip[far_dependent], "seed {seed}");

            let mut expected = old.clone();
            ungrouped_fold(&data, &order, &candidates, &skip, &mut expected);
            let exact = naive.delta(dc, &rho_new).unwrap();
            for p in (0..n).filter(|&p| !skip[p]) {
                assert_eq!(expected.mu[p], exact.mu[p], "seed {seed}, point {p}");
                assert_eq!(expected.delta[p].to_bits(), exact.delta[p].to_bits());
            }
            assert_eq!(expected.mu[far_dependent], Some(far), "seed {seed}");
            for threads in [1usize, 2, 7] {
                let mut got = old.clone();
                let evals = candidate_pass(
                    &data,
                    &order,
                    &candidates,
                    &skip,
                    dc,
                    &mut got,
                    ExecPolicy::Threads(threads),
                );
                assert_eq!(got, expected, "seed {seed}, threads {threads}");
                assert!(evals > 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn grouped_fold_skips_far_groups_without_a_distance() {
        // Two candidates, each in a group of its own far from the point
        // whose δ is already small: the box tests skip both groups.
        let data = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (50.0, 0.0), (0.0, 50.0)]);
        let rho = vec![1.0, 0.0, 5.0, 5.0];
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(4);
        deltas.delta[1] = 0.1;
        deltas.mu[1] = Some(0);
        let skip = [true, false, true, true];
        let evals = candidate_pass(
            &data,
            &order,
            &[2, 3],
            &skip,
            1.0,
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(evals, 0);
        assert_eq!(deltas.mu[1], Some(0));
    }

    #[test]
    fn candidate_pass_breaks_square_root_ties_by_id() {
        // Seen from the origin (point 2), point 0 lies at squared distance
        // 1 + 2⁻⁵² and point 1 at exactly 1: one ulp apart, yet both roots
        // round to 1.0, so the smaller id (0) is the dependent neighbour.
        // Point 0's group box is the point itself, so the box test sees the
        // same 1 + 2⁻⁵² and must not skip it against δ = 1.
        let data = Dataset::from_coords(vec![(1.0, 2f64.powi(-26)), (1.0, 0.0), (0.0, 0.0)]);
        let rho = vec![5.0, 5.0, 0.0];
        let order = DensityOrder::new(&rho);
        let expected = NaiveReferenceIndex::build(&data).delta(0.5, &rho).unwrap();
        assert_eq!(expected.mu[2], Some(0));
        // Point 1 already holds the minimum; folding point 0 must take over.
        let mut deltas = expected.clone();
        deltas.delta[2] = 1.0;
        deltas.mu[2] = Some(1);
        candidate_pass(
            &data,
            &order,
            &[0],
            &[true, true, false],
            0.5,
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas, expected);
    }

    #[test]
    fn candidate_pass_prefers_smaller_id_on_exact_distance_ties() {
        // p at the origin; candidates 0 and 1 are coincident and both denser.
        let data = Dataset::from_coords(vec![(1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]);
        let rho = vec![5.0, 5.0, 0.0];
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(3);
        deltas.delta[2] = f64::INFINITY;
        // Feed the larger id first: the smaller id must still win the tie.
        candidate_pass(
            &data,
            &order,
            &[1, 0],
            &[true, true, false],
            1.0,
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.delta[2], 1.0);
        assert_eq!(deltas.mu[2], Some(0));
    }

    #[test]
    fn candidate_pass_skips_masked_points_and_non_denser_candidates() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0)]);
        let rho = vec![3.0, 1.0];
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(2);
        // Candidate 1 is sparser than point 0: no update. Point 1 is masked.
        let evals = candidate_pass(
            &data,
            &order,
            &[1],
            &[false, true],
            1.0,
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(evals, 0);
        assert_eq!(deltas.mu[0], None);
        assert_eq!(deltas.mu[1], None);

        // Candidate 0 *is* denser than point 1 and must fold in.
        let evals = candidate_pass(
            &data,
            &order,
            &[0],
            &[true, false],
            1.0,
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(evals, 1);
        assert_eq!(deltas.mu[1], Some(0));
        assert_eq!(deltas.delta[1], 1.0);
    }
}
