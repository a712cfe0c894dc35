//! Memory-lean baseline: recomputes every pairwise distance on the fly.
//!
//! This is what the paper actually measures as "DPC" — `Θ(n²)` time per
//! query and only `O(n)` working memory, so it runs (slowly) even where the
//! distance matrix would not fit.

use std::time::Duration;

use dpc_core::index::{eps_neighbors_scan, validate_dc, validate_rho_len, weighted_rho_scan};
use dpc_core::{
    dc_sq_threshold, Dataset, DeltaResult, DensityOrder, DpcIndex, IndexStats, Point, PointId,
    Query, Result, Rho, TieBreak, Timer, UpdatableIndex,
};

/// The memory-lean O(n²)-time baseline.
#[derive(Debug, Clone)]
pub struct LeanDpc {
    dataset: Dataset,
    tie: TieBreak,
    construction_time: Duration,
}

impl LeanDpc {
    /// Builds the baseline (only clones the dataset).
    pub fn build(dataset: &Dataset) -> Self {
        Self::build_with_tie_break(dataset, TieBreak::default())
    }

    /// Builds the baseline with an explicit tie-break rule.
    pub fn build_with_tie_break(dataset: &Dataset, tie: TieBreak) -> Self {
        let timer = Timer::start();
        LeanDpc {
            dataset: dataset.clone(),
            tie,
            construction_time: timer.elapsed(),
        }
    }
}

impl DpcIndex for LeanDpc {
    fn name(&self) -> &'static str {
        "dpc-lean"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho_query(&self, q: &Query<'_>) -> Result<Vec<Rho>> {
        if !q.kernel.is_cutoff() {
            return weighted_rho_scan(&self.dataset, q.dc, q.kernel, q.exec);
        }
        validate_dc(q.dc)?;
        // The sequential path keeps the symmetric i < j pair loop (half the
        // distance computations); the parallel path runs the per-point scan
        // kernel. Both produce identical integer counts.
        if q.exec.workers(self.dataset.len()) > 1 {
            return Ok(crate::brute::rho_scan(&self.dataset, q.dc, q.exec));
        }
        let pts = self.dataset.points();
        let n = pts.len();
        let dc2 = dc_sq_threshold(q.dc);
        let mut rho = vec![0.0 as Rho; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if pts[i].distance_squared(&pts[j]) < dc2 {
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
        let order = DensityOrder::with_tie_break(rho, self.tie);
        Ok(crate::brute::delta_scan(&self.dataset, &order, q.exec))
    }

    fn memory_bytes(&self) -> usize {
        self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
    }

    fn tie_break(&self) -> TieBreak {
        self.tie
    }
}

/// The lean baseline keeps no derived structure at all, so it is the
/// always-correct reference [`UpdatableIndex`] for the streaming engine:
/// mutations delegate to the owned [`Dataset`] and the ε-query streams over
/// the structure-of-arrays coordinate slices.
impl UpdatableIndex for LeanDpc {
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
    use crate::matrix::MatrixDpc;
    use dpc_core::Point;
    use dpc_datasets::generators::s1;

    #[test]
    fn parallel_policy_is_bit_identical_to_sequential() {
        let data = s1(13, 0.05).into_dataset(); // 250 points
        let lean = LeanDpc::build(&data);
        let dc = 40_000.0;
        let (seq_rho, seq_delta) = lean.rho_delta(dc).unwrap();
        // 400 threads exceed the 250 points: workers are clamped to n.
        for threads in [1usize, 2, 3, 7, 400] {
            let q = Query {
                exec: dpc_core::ExecPolicy::Threads(threads),
                ..Query::new(dc)
            };
            let rho = lean.rho_query(&q).unwrap();
            let delta = lean.delta_query(&q, &rho).unwrap();
            assert_eq!(rho, seq_rho, "threads = {threads}");
            assert_eq!(delta.delta, seq_delta.delta, "threads = {threads}");
            assert_eq!(delta.mu, seq_delta.mu, "threads = {threads}");
        }
        let empty = LeanDpc::build(&Dataset::new(vec![]));
        let q = Query {
            exec: dpc_core::ExecPolicy::Threads(4),
            ..Query::new(1.0)
        };
        assert!(empty.rho_query(&q).unwrap().is_empty());
        assert!(empty.delta_query(&q, &[]).unwrap().is_empty());
    }

    #[test]
    fn matches_matrix_baseline_on_synthetic_data() {
        let data = s1(11, 0.04).into_dataset(); // 200 points
        let lean = LeanDpc::build(&data);
        let matrix = MatrixDpc::build(&data);
        for dc in [10_000.0, 50_000.0, 200_000.0] {
            let (r1, d1) = lean.rho_delta(dc).unwrap();
            let (r2, d2) = matrix.rho_delta(dc).unwrap();
            assert_eq!(r1, r2, "dc = {dc}");
            assert_eq!(d1.mu, d2.mu, "dc = {dc}");
            for p in 0..data.len() {
                assert!(
                    (d1.delta(p) - d2.delta(p)).abs() < 1e-9,
                    "dc = {dc}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn memory_is_linear_not_quadratic() {
        let data = s1(11, 0.1).into_dataset(); // 500 points
        let lean = LeanDpc::build(&data);
        let matrix = MatrixDpc::build(&data);
        assert!(lean.memory_bytes() < matrix.memory_bytes() / 10);
    }

    #[test]
    fn strict_inequality_on_dc_boundary() {
        let data = Dataset::new(vec![Point::new(0.0, 0.0), Point::new(2.0, 0.0)]);
        let lean = LeanDpc::build(&data);
        assert_eq!(lean.rho(2.0).unwrap(), vec![0.0, 0.0]);
        assert_eq!(lean.rho(2.0000001).unwrap(), vec![1.0, 1.0]);
    }

    #[test]
    fn updates_match_a_fresh_build() {
        let data = s1(29, 0.02).into_dataset(); // 100 points
        let mut lean = LeanDpc::build(&data);
        let c = data.bounding_box();
        lean.insert(Point::new(c.min_x(), c.min_y())).unwrap();
        lean.remove(3).unwrap();
        lean.remove(lean.len() - 1).unwrap();
        let fresh = LeanDpc::build(lean.dataset());
        let dc = 60_000.0;
        let (r1, d1) = lean.rho_delta(dc).unwrap();
        let (r2, d2) = fresh.rho_delta(dc).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn eps_neighbors_matches_definition() {
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ]);
        let lean = LeanDpc::build(&data);
        // Strict inequality: the point at distance exactly 1.0 is excluded.
        assert_eq!(
            lean.eps_neighbors(Point::new(0.0, 0.0), 1.0).unwrap(),
            vec![0, 1]
        );
        assert_eq!(
            lean.eps_neighbors(Point::new(2.0, 0.0), 1.5).unwrap(),
            vec![2, 3]
        );
        assert!(lean.eps_neighbors(Point::origin(), -1.0).is_err());
    }

    #[test]
    fn rejects_invalid_inputs() {
        let data = Dataset::new(vec![Point::origin()]);
        let lean = LeanDpc::build(&data);
        assert!(lean.rho(-1.0).is_err());
        assert!(lean.delta(1.0, &[]).is_err());
    }
}
