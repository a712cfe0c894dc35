//! The δ/µ maintenance kernels of the streaming engine.
//!
//! After an insert or delete, the engine splits δ/µ repair into two passes,
//! both parallelised over the chunked executor of [`dpc_core::exec`] (so
//! results are bit-identical at every thread count):
//!
//! * a **full recomputation** of the bounded *invalidation set* `F` — points
//!   whose set of denser neighbours may have *shrunk* (their own ρ changed,
//!   their µ was removed or demoted, the global peak) — each recomputed from
//!   scratch by the canonical brute-force scan [`delta_point_scan`];
//! * a **candidate min-update pass** over everything else: for points
//!   outside `F` the denser set can only have *gained* members (the inserted
//!   point, neighbours whose ρ rose, a point renamed to a smaller id), so
//!   the existing `(δ, µ)` stays a valid minimum and only the handful of
//!   candidate entrants need to be folded in ([`candidate_pass`]).
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
//! ([`sq_prefilter_bound`]) that skips the root of candidates that cannot
//! tie.

use dpc_core::index::delta_point_scan;
use dpc_core::{exec, sq_prefilter_bound, Dataset, DeltaResult, DensityOrder, ExecPolicy, PointId};

/// Recomputes δ/µ from scratch for every point in `targets`, in parallel,
/// and scatters the results into `deltas`.
pub fn recompute_targets(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    targets: &[PointId],
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
) {
    let mut out: Vec<(f64, Option<PointId>)> = vec![(0.0, None); targets.len()];
    exec::fill_slice(
        &mut out,
        policy,
        || (),
        |k, ()| delta_point_scan(dataset, order, targets[k]),
    );
    for (k, &p) in targets.iter().enumerate() {
        deltas.delta[p] = out[k].0;
        deltas.mu[p] = out[k].1;
    }
}

/// Folds a small set of *candidate entrants* into the δ/µ of every point
/// outside the invalidation set.
///
/// For a point `p` with `skip[p] == false`, the existing `(δ(p), µ(p))` is
/// the valid lexicographic minimum over `p`'s previous denser set, and
/// `candidates` is a superset of the points that may have *entered* that set
/// (an entrant that was already denser folds in as a no-op: it can never
/// beat a minimum that already accounted for it). Each candidate `c` that is
/// denser than `p` under the *new* order is min-folded with the workspace
/// tie rule: strictly smaller distance wins, equal distance goes to the
/// smaller id.
///
/// The comparison is on the correctly rounded **true** distances, like
/// [`delta_point_scan`] and the batch kernels: two squared distances one ulp
/// apart can round to the same square root, and the batch run then lets the
/// smaller id win where a squared comparison would see a strict inequality.
/// The incumbent is the stored `δ(p)`, which is exactly the rounded distance
/// to `µ(p)`; candidates whose squared distance lies above
/// [`sq_prefilter_bound`] of it are skipped without a root. A point whose
/// `µ` is `None` (the global peak, carrying the max-distance sentinel rather
/// than a minimum) must be masked out via `skip`; the engine always
/// recomputes peaks from scratch.
pub fn candidate_pass(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    candidates: &[PointId],
    skip: &[bool],
    deltas: &mut DeltaResult,
    policy: ExecPolicy,
) {
    if candidates.is_empty() {
        return;
    }
    let pts = dataset.points();
    exec::fill_slice_pair(
        &mut deltas.delta,
        &mut deltas.mu,
        policy,
        || (),
        |p, delta_slot, mu_slot, ()| {
            if skip[p] {
                return;
            }
            let mut bound = sq_prefilter_bound(*delta_slot);
            for &c in candidates {
                if !order.is_denser(c, p) {
                    continue;
                }
                let d2 = pts[c].distance_squared(&pts[p]);
                if d2 > bound {
                    continue;
                }
                let d = d2.sqrt();
                let wins = match *mu_slot {
                    Some(b) => d < *delta_slot || (d == *delta_slot && c < b),
                    // Unset (δ = ∞): any denser candidate wins. Peaks carry
                    // a sentinel δ instead and must be masked (see above).
                    None => true,
                };
                if wins {
                    *delta_slot = d;
                    *mu_slot = Some(c);
                    bound = sq_prefilter_bound(d);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::DpcIndex;

    fn dataset() -> Dataset {
        Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (5.0, 5.0),
            (5.1, 5.0),
            (2.5, 2.5),
        ])
    }

    #[test]
    fn recompute_targets_matches_reference_at_several_thread_counts() {
        let data = dataset();
        let (rho, expected) = NaiveReferenceIndex::build(&data).rho_delta(0.3).unwrap();
        let order = DensityOrder::new(&rho);
        let all: Vec<PointId> = (0..data.len()).collect();
        for threads in [1usize, 3, 8] {
            let mut deltas = DeltaResult::unset(data.len());
            recompute_targets(
                &data,
                &order,
                &all,
                &mut deltas,
                ExecPolicy::Threads(threads),
            );
            assert_eq!(deltas, expected, "threads = {threads}");
        }
    }

    #[test]
    fn candidate_pass_breaks_square_root_ties_by_id() {
        // Seen from the origin (point 2), point 0 lies at squared distance
        // 1 + 2⁻⁵² and point 1 at exactly 1: one ulp apart, yet both roots
        // round to 1.0, so the smaller id (0) is the dependent neighbour.
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
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas, expected);
    }

    #[test]
    fn recompute_targets_only_touches_targets() {
        let data = dataset();
        let (rho, expected) = NaiveReferenceIndex::build(&data).rho_delta(0.3).unwrap();
        let order = DensityOrder::new(&rho);
        let mut deltas = DeltaResult::unset(data.len());
        recompute_targets(&data, &order, &[1, 4], &mut deltas, ExecPolicy::Sequential);
        assert_eq!(deltas.delta[1], expected.delta[1]);
        assert_eq!(deltas.mu[4], expected.mu[4]);
        // Non-targets keep their previous (here: unset) state.
        assert_eq!(deltas.delta[0], f64::INFINITY);
        assert_eq!(deltas.mu[0], None);
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
        candidate_pass(
            &data,
            &order,
            &[1],
            &[false, true],
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.mu[0], None);
        assert_eq!(deltas.mu[1], None);

        // Candidate 0 *is* denser than point 1 and must fold in.
        candidate_pass(
            &data,
            &order,
            &[0],
            &[true, false],
            &mut deltas,
            ExecPolicy::Sequential,
        );
        assert_eq!(deltas.mu[1], Some(0));
        assert_eq!(deltas.delta[1], 1.0);
    }
}
