//! A deliberately simple O(n²) reference implementation of the ρ- and
//! δ-queries.
//!
//! This is *not* the paper's baseline (that lives in the `dpc-baseline`
//! crate, with matrix-based, memory-lean and parallel variants); it is the
//! smallest possible implementation of [`DpcIndex`], used as ground truth in
//! unit tests, doctests and property tests throughout the workspace, and as
//! the default index for tiny datasets in examples.

use std::time::Duration;

use crate::delta::{DeltaResult, DensityOrder, TieBreak};
use crate::density::Rho;
use crate::error::Result;
use crate::index::{
    eps_neighbors_scan, validate_dc, validate_rho_len, weighted_rho_scan, DpcIndex, IndexStats,
    Query, UpdatableIndex,
};
use crate::point::{Dataset, Point, PointId};
use crate::stats::Timer;

/// The reference index: stores only a clone of the dataset and answers every
/// query by scanning all pairs.
#[derive(Debug, Clone)]
pub struct NaiveReferenceIndex {
    dataset: Dataset,
    tie: TieBreak,
    stats: IndexStats,
}

impl NaiveReferenceIndex {
    /// "Builds" the reference index (just clones the dataset).
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_tie_break(dataset, TieBreak::default())
    }

    /// Builds the reference index with an explicit tie-break rule.
    pub fn build_with_tie_break(dataset: &Dataset, tie: TieBreak) -> Self {
        let timer = Timer::start();
        let dataset = dataset.clone();
        let memory = dataset.memory_bytes();
        let stats = IndexStats::new(timer.elapsed(), memory);
        NaiveReferenceIndex {
            dataset,
            tie,
            stats,
        }
    }
}

impl DpcIndex for NaiveReferenceIndex {
    fn name(&self) -> &'static str {
        "naive-reference"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn len(&self) -> usize {
        self.dataset.len()
    }

    fn rho_query(&self, q: &Query<'_>) -> Result<Vec<Rho>> {
        if !q.kernel.is_cutoff() {
            return weighted_rho_scan(&self.dataset, q.dc, q.kernel, q.exec);
        }
        let dc = q.dc;
        validate_dc(dc)?;
        let pts = self.dataset.points();
        let n = pts.len();
        let mut rho = vec![0.0 as Rho; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if pts[i].distance(&pts[j]) < dc {
                    rho[i] += 1.0;
                    rho[j] += 1.0;
                }
            }
        }
        Ok(rho)
    }

    fn delta_query(&self, q: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        validate_dc(q.dc)?;
        validate_rho_len(rho, self.dataset.len())?;
        let pts = self.dataset.points();
        let n = pts.len();
        let order = DensityOrder::with_tie_break(rho, self.tie);
        let mut result = DeltaResult::unset(n);
        for p in 0..n {
            let mut best = f64::INFINITY;
            let mut best_q = None;
            let mut max_dist = 0.0f64;
            for q in 0..n {
                if q == p {
                    continue;
                }
                let d = pts[p].distance(&pts[q]);
                max_dist = max_dist.max(d);
                if order.is_denser(q, p) && d < best {
                    best = d;
                    best_q = Some(q);
                }
            }
            if best_q.is_some() {
                result.delta[p] = best;
                result.mu[p] = best_q;
            } else {
                // Global peak: δ is the maximum distance to any other point.
                result.delta[p] = max_dist;
                result.mu[p] = None;
            }
        }
        Ok(result)
    }

    fn memory_bytes(&self) -> usize {
        self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            construction_time: self.stats.construction_time.max(Duration::ZERO),
            memory_bytes: self.memory_bytes(),
            counters: self.stats.counters.clone(),
        }
    }

    fn tie_break(&self) -> TieBreak {
        self.tie
    }
}

/// The reference index is trivially updatable: it holds nothing but the
/// dataset, so the mutations delegate straight to [`Dataset`] and the
/// ε-query is a linear scan. This makes it the ground truth for the
/// streaming engine exactly as it is for the batch queries.
impl UpdatableIndex for NaiveReferenceIndex {
    fn insert(&mut self, p: Point) -> Result<PointId> {
        self.dataset.push(p)
    }

    fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
        self.dataset.swap_remove(id)
    }

    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>> {
        eps_neighbors_scan(&self.dataset, center, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn two_blobs() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.0, 0.1),
            Point::new(5.0, 5.0),
            Point::new(5.1, 5.0),
        ])
    }

    #[test]
    fn rho_counts_strictly_within_dc() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let idx = NaiveReferenceIndex::build(&data);
        // dc exactly equal to a pairwise distance must NOT count it.
        let rho = idx.rho(1.0).unwrap();
        assert_eq!(rho, vec![0.0, 0.0, 0.0]);
        let rho = idx.rho(1.0001).unwrap();
        assert_eq!(rho, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn rho_never_counts_self() {
        let data = Dataset::new(vec![Point::new(0.0, 0.0), Point::new(0.0, 0.0)]);
        let idx = NaiveReferenceIndex::build(&data);
        // Coincident points: each sees the other but not itself.
        assert_eq!(idx.rho(0.5).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn delta_of_global_peak_is_max_distance() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (rho, dres) = idx.rho_delta(0.2).unwrap();
        let order = DensityOrder::new(&rho);
        let peak = order.global_peak().unwrap();
        assert_eq!(dres.mu(peak), None);
        let expected: f64 = (0..data.len())
            .filter(|&q| q != peak)
            .map(|q| data.distance(peak, q))
            .fold(0.0, f64::max);
        assert!((dres.delta(peak) - expected).abs() < 1e-12);
    }

    #[test]
    fn delta_points_to_strictly_denser_neighbours() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (rho, dres) = idx.rho_delta(0.2).unwrap();
        let order = DensityOrder::new(&rho);
        dres.validate(&order).unwrap();
    }

    #[test]
    fn delta_is_distance_to_mu() {
        let data = two_blobs();
        let idx = NaiveReferenceIndex::build(&data);
        let (_, dres) = idx.rho_delta(0.2).unwrap();
        for p in 0..data.len() {
            if let Some(q) = dres.mu(p) {
                assert!((dres.delta(p) - data.distance(p, q)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn queries_reject_invalid_dc() {
        let idx = NaiveReferenceIndex::build(&two_blobs());
        assert!(idx.rho(0.0).is_err());
        assert!(idx.rho(-2.0).is_err());
        assert!(idx.rho(f64::NAN).is_err());
        assert!(idx.delta(0.0, &[0.0; 5]).is_err());
    }

    #[test]
    fn delta_rejects_wrong_rho_length() {
        let idx = NaiveReferenceIndex::build(&two_blobs());
        assert!(idx.delta(0.5, &[0.0; 3]).is_err());
    }

    #[test]
    fn empty_dataset_yields_empty_results() {
        let idx = NaiveReferenceIndex::build(&Dataset::new(vec![]));
        let (rho, dres) = idx.rho_delta(1.0).unwrap();
        assert!(rho.is_empty());
        assert!(dres.is_empty());
    }

    #[test]
    fn single_point_is_its_own_peak_with_zero_delta() {
        let idx = NaiveReferenceIndex::build(&Dataset::new(vec![Point::new(1.0, 1.0)]));
        let (rho, dres) = idx.rho_delta(1.0).unwrap();
        assert_eq!(rho, vec![0.0]);
        assert_eq!(dres.mu(0), None);
        assert_eq!(dres.delta(0), 0.0);
    }

    #[test]
    fn updatable_impl_matches_a_fresh_build_after_mutations() {
        let mut idx = NaiveReferenceIndex::build(&two_blobs());
        let x = idx.insert(Point::new(0.05, 0.05)).unwrap();
        assert_eq!(x, 5);
        // Removing id 1 renames the last point (5) to 1.
        assert_eq!(idx.remove(1).unwrap(), Some(5));
        let fresh = NaiveReferenceIndex::build(idx.dataset());
        let (r1, d1) = idx.rho_delta(0.2).unwrap();
        let (r2, d2) = fresh.rho_delta(0.2).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn eps_neighbors_is_strict_and_sorted() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(0.5, 0.0),
        ]);
        let idx = NaiveReferenceIndex::build(&data);
        // Strictly-within: the point at distance exactly 1.0 is excluded.
        assert_eq!(
            idx.eps_neighbors(Point::new(0.0, 0.0), 1.0).unwrap(),
            vec![0, 3]
        );
        assert_eq!(
            idx.eps_neighbors(Point::new(0.0, 0.0), 1.5).unwrap(),
            vec![0, 1, 3]
        );
        assert!(idx.eps_neighbors(Point::origin(), 0.0).is_err());
    }

    #[test]
    fn tie_break_changes_global_peak_for_symmetric_data() {
        // Two coincident pairs: all rho equal, so the peak is decided by ties.
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
        ]);
        let small = NaiveReferenceIndex::build_with_tie_break(&data, TieBreak::SmallerIdDenser);
        let large = NaiveReferenceIndex::build_with_tie_break(&data, TieBreak::LargerIdDenser);
        let (_, d_small) = small.rho_delta(0.5).unwrap();
        let (_, d_large) = large.rho_delta(0.5).unwrap();
        assert_eq!(d_small.mu(0), None);
        assert_eq!(d_large.mu(3), None);
    }
}
