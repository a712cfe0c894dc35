//! Decision graph and cluster-centre selection.
//!
//! In DPC, once `ρ` and `δ` have been computed the user looks at the
//! *decision graph* (a scatter plot of `δ` against `ρ`) and picks as cluster
//! centres the points that have both high density and anomalously large
//! dependent distance; points with very low density but large `δ` are
//! outliers. The third step of the original algorithm is manual, so this
//! module provides a faithful representation of the graph plus several
//! automatic selection strategies that are commonly used in practice
//! (`ρ·δ` ranking and the largest-gap heuristic).

use crate::delta::DeltaResult;
use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::point::PointId;

/// The decision graph: per-point `(ρ, δ)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionGraph {
    rho: Vec<Rho>,
    delta: Vec<f64>,
}

impl DecisionGraph {
    /// Builds the graph from a density vector and a δ-query result.
    ///
    /// The sentinel `δ = +∞` (which approximate indices may report for
    /// points whose neighbour lies beyond the truncation radius) is clipped
    /// to the largest finite `δ` so that ranking remains well defined.
    pub fn new(rho: Vec<Rho>, delta_result: &DeltaResult) -> Result<Self> {
        if rho.len() != delta_result.len() {
            return Err(DpcError::LengthMismatch {
                expected: rho.len(),
                actual: delta_result.len(),
                what: "decision graph delta",
            });
        }
        let clip = delta_result.max_finite_delta();
        let delta = delta_result
            .delta
            .iter()
            .map(|&d| if d.is_finite() { d } else { clip })
            .collect();
        Ok(DecisionGraph { rho, delta })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.rho.len()
    }

    /// True when the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.rho.is_empty()
    }

    /// Density of one point.
    pub fn rho(&self, p: PointId) -> Rho {
        self.rho[p]
    }

    /// Dependent distance of one point (clipped, never infinite).
    pub fn delta(&self, p: PointId) -> f64 {
        self.delta[p]
    }

    /// All densities.
    pub fn rho_values(&self) -> &[Rho] {
        &self.rho
    }

    /// All dependent distances.
    pub fn delta_values(&self) -> &[f64] {
        &self.delta
    }

    /// The γ score of a point: normalised `ρ` times normalised `δ`.
    ///
    /// Normalisation divides by the maximum of each quantity so that γ lies
    /// in `[0, 1]`; this is the standard way of ranking centre candidates
    /// when the decision graph is not inspected manually.
    pub fn gamma(&self) -> Vec<f64> {
        self.gamma_scores().collect()
    }

    /// The γ of every point, in id order, without materialising a vector.
    fn gamma_scores(&self) -> impl Iterator<Item = f64> + '_ {
        let max_rho = self.rho.iter().copied().fold(0.0, f64::max).max(1.0);
        let max_delta = self
            .delta
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        self.rho
            .iter()
            .zip(&self.delta)
            .map(move |(&r, &d)| (r / max_rho) * (d / max_delta))
    }

    /// The `k` point ids with the largest γ, in decreasing γ (equal γ: the
    /// smaller id first). `k` is clamped to the number of points.
    pub fn top_gamma(&self, k: usize) -> Vec<PointId> {
        self.top_gamma_scored(k)
            .into_iter()
            .map(|(_, p)| p)
            .collect()
    }

    /// [`top_gamma`](Self::top_gamma) with each id's γ alongside.
    ///
    /// A partial selection moves the top `k` `(γ, id)` pairs to the front in
    /// linear time; only that prefix is then sorted, so the cost is
    /// `O(n + k log k)` rather than the `O(n log n)` of ranking every point.
    fn top_gamma_scored(&self, k: usize) -> Vec<(f64, PointId)> {
        let by_gamma = |a: &(f64, PointId), b: &(f64, PointId)| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        };
        let k = k.min(self.len());
        if k == 0 {
            return Vec::new();
        }
        let mut ranked: Vec<(f64, PointId)> = self.gamma_scores().zip(0..).collect();
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k - 1, by_gamma);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(by_gamma);
        ranked
    }

    /// Selects cluster centres according to a strategy. The returned ids are
    /// sorted in increasing order.
    pub fn select_centers(&self, selection: &CenterSelection) -> Result<Vec<PointId>> {
        if self.is_empty() {
            return Err(DpcError::EmptyDataset);
        }
        let mut centers = match selection {
            CenterSelection::Threshold { rho_min, delta_min } => (0..self.len())
                .filter(|&p| self.rho[p] >= *rho_min && self.delta[p] >= *delta_min)
                .collect::<Vec<_>>(),
            CenterSelection::TopKGamma { k } => {
                if *k == 0 {
                    return Err(DpcError::invalid_parameter(
                        "k",
                        "must select at least one centre",
                    ));
                }
                if *k > self.len() {
                    return Err(DpcError::TooManyCenters {
                        requested: *k,
                        available: self.len(),
                    });
                }
                self.top_gamma(*k)
            }
            CenterSelection::GammaGap { max_centers } => {
                let cap = (*max_centers).min(self.len()).max(1);
                let ranking = self.top_gamma_scored(cap + 1);
                // Find the largest *relative* drop between consecutive γ
                // values within the first `cap + 1` candidates; the centres
                // are everything before the drop. A relative (ratio) gap is
                // used rather than an absolute one because the global peak's
                // γ is 1 by construction and would otherwise always dominate
                // the gap search, collapsing every selection to one cluster.
                let mut best_cut = 1;
                let mut best_ratio = 0.0f64;
                for i in 0..cap.min(ranking.len().saturating_sub(1)) {
                    let (hi, lo) = (ranking[i].0, ranking[i + 1].0);
                    let ratio = hi / lo.max(1e-12);
                    if ratio > best_ratio {
                        best_ratio = ratio;
                        best_cut = i + 1;
                    }
                }
                ranking[..best_cut].iter().map(|&(_, p)| p).collect()
            }
            CenterSelection::Explicit { centers } => {
                for &c in centers {
                    if c >= self.len() {
                        return Err(DpcError::invalid_parameter(
                            "centers",
                            format!("explicit centre {c} is out of range (n = {})", self.len()),
                        ));
                    }
                }
                centers.clone()
            }
        };
        centers.sort_unstable();
        centers.dedup();
        if centers.is_empty() {
            return Err(DpcError::invalid_parameter(
                "selection",
                "no point satisfies the centre-selection criterion",
            ));
        }
        Ok(centers)
    }

    /// Points that the decision graph flags as outliers: density at or below
    /// `rho_max` yet dependent distance at least `delta_min` (the top-left
    /// corner of the graph).
    pub fn outliers(&self, rho_max: Rho, delta_min: f64) -> Vec<PointId> {
        (0..self.len())
            .filter(|&p| self.rho[p] <= rho_max && self.delta[p] >= delta_min)
            .collect()
    }
}

/// Strategy for picking cluster centres from the decision graph.
#[derive(Debug, Clone, PartialEq)]
pub enum CenterSelection {
    /// All points with `ρ ≥ rho_min` and `δ ≥ delta_min` — the rectangle a
    /// user would draw on the decision graph.
    Threshold {
        /// Minimum density.
        rho_min: Rho,
        /// Minimum dependent distance.
        delta_min: f64,
    },
    /// The `k` points with the largest γ = ρ̂·δ̂ score.
    TopKGamma {
        /// Number of centres (= number of clusters).
        k: usize,
    },
    /// Automatic selection: rank by γ and cut at the largest *relative* drop
    /// among the first `max_centers` candidates.
    GammaGap {
        /// Upper bound on the number of centres considered.
        max_centers: usize,
    },
    /// Explicitly provided centre ids (e.g. from a previous manual
    /// inspection of the decision graph).
    Explicit {
        /// The centre point ids.
        centers: Vec<PointId>,
    },
}

impl Default for CenterSelection {
    fn default() -> Self {
        CenterSelection::GammaGap { max_centers: 32 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaResult;

    /// Small synthetic decision graph: points 0 and 5 are obvious centres.
    fn graph() -> DecisionGraph {
        let rho = vec![10.0, 8.0, 7.0, 6.0, 1.0, 9.0];
        let delta = DeltaResult::new(
            vec![5.0, 0.2, 0.3, 0.1, 0.2, 4.0],
            vec![None, Some(0), Some(0), Some(1), Some(3), Some(0)],
        );
        DecisionGraph::new(rho, &delta).unwrap()
    }

    #[test]
    fn gamma_is_normalised_product() {
        let g = graph();
        let gamma = g.gamma();
        assert_eq!(gamma.len(), 6);
        // Point 0 has max rho and max delta -> gamma exactly 1.
        assert!((gamma[0] - 1.0).abs() < 1e-12);
        for &v in &gamma {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn top_k_gamma_selects_the_two_peaks() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::TopKGamma { k: 2 })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn gamma_gap_detects_two_centres() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::GammaGap { max_centers: 6 })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn threshold_selection_matches_rectangle() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::Threshold {
                rho_min: 7.0,
                delta_min: 1.0,
            })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
    }

    #[test]
    fn threshold_with_nothing_selected_is_an_error() {
        let g = graph();
        assert!(g
            .select_centers(&CenterSelection::Threshold {
                rho_min: 100.0,
                delta_min: 100.0
            })
            .is_err());
    }

    #[test]
    fn explicit_selection_is_validated_and_sorted() {
        let g = graph();
        let centers = g
            .select_centers(&CenterSelection::Explicit {
                centers: vec![5, 0, 5],
            })
            .unwrap();
        assert_eq!(centers, vec![0, 5]);
        assert!(g
            .select_centers(&CenterSelection::Explicit { centers: vec![99] })
            .is_err());
    }

    #[test]
    fn top_k_rejects_zero_and_too_many() {
        let g = graph();
        assert!(g
            .select_centers(&CenterSelection::TopKGamma { k: 0 })
            .is_err());
        assert!(g
            .select_centers(&CenterSelection::TopKGamma { k: 7 })
            .is_err());
    }

    #[test]
    fn outliers_are_low_rho_high_delta() {
        let rho = vec![10.0, 1.0, 9.0];
        let delta = DeltaResult::new(vec![3.0, 2.5, 0.1], vec![None, Some(0), Some(0)]);
        let g = DecisionGraph::new(rho, &delta).unwrap();
        assert_eq!(g.outliers(2.0, 1.0), vec![1]);
    }

    #[test]
    fn infinite_delta_is_clipped() {
        let rho = vec![5.0, 4.0];
        let delta = DeltaResult::new(vec![f64::INFINITY, 2.0], vec![None, Some(0)]);
        let g = DecisionGraph::new(rho, &delta).unwrap();
        assert_eq!(g.delta(0), 2.0);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let delta = DeltaResult::unset(3);
        assert!(DecisionGraph::new(vec![1.0, 2.0], &delta).is_err());
    }

    /// Deterministic SplitMix64 stream for the randomised tests.
    fn splitmix(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        }
    }

    /// Every id ranked by a full sort: decreasing γ, equal γ by id.
    fn full_ranking(gamma: &[f64]) -> Vec<PointId> {
        let mut ids: Vec<PointId> = (0..gamma.len()).collect();
        ids.sort_by(|&a, &b| {
            gamma[b]
                .partial_cmp(&gamma[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids
    }

    /// The γ-gap rule evaluated over the full ranking.
    fn gap_cut_over_full_ranking(g: &DecisionGraph, max_centers: usize) -> Vec<PointId> {
        let gamma = g.gamma();
        let ranking = full_ranking(&gamma);
        let cap = max_centers.min(g.len()).max(1);
        let (mut best_cut, mut best_ratio) = (1, 0.0f64);
        for i in 0..cap.min(ranking.len().saturating_sub(1)) {
            let ratio = gamma[ranking[i]] / gamma[ranking[i + 1]].max(1e-12);
            if ratio > best_ratio {
                best_ratio = ratio;
                best_cut = i + 1;
            }
        }
        let mut centers = ranking[..best_cut].to_vec();
        centers.sort_unstable();
        centers
    }

    #[test]
    fn partial_gamma_selection_matches_the_full_ranking_prefix() {
        let mut rng = splitmix(0x6a3a);
        for _ in 0..300 {
            let n = 1 + rng(150) as usize;
            // Integer ρ (zero included) and δ drawn from four values make
            // exact γ ties the rule, not the exception.
            let rho: Vec<Rho> = (0..n).map(|_| rng(6) as f64).collect();
            let delta: Vec<f64> = (0..n)
                .map(|_| [0.25, 1.0, 1.5, 4.0][rng(4) as usize])
                .collect();
            let g = DecisionGraph::new(rho, &DeltaResult::new(delta, vec![None; n])).unwrap();
            let full = full_ranking(&g.gamma());
            assert_eq!(g.top_gamma(n + 3), full);
            for k in [1, 2, n - 1, n] {
                if k == 0 || k > n {
                    continue;
                }
                assert_eq!(g.top_gamma(k), full[..k], "n = {n}, k = {k}");
                let mut expected = full[..k].to_vec();
                expected.sort_unstable();
                let centers = g.select_centers(&CenterSelection::TopKGamma { k }).unwrap();
                assert_eq!(centers, expected, "n = {n}, k = {k}");
            }
            for max_centers in [1, 64, n, n + 5] {
                let centers = g
                    .select_centers(&CenterSelection::GammaGap { max_centers })
                    .unwrap();
                assert_eq!(
                    centers,
                    gap_cut_over_full_ranking(&g, max_centers),
                    "n = {n}, cap = {max_centers}"
                );
            }
        }
    }

    #[test]
    fn empty_graph_select_errors() {
        let g = DecisionGraph::new(vec![], &DeltaResult::unset(0)).unwrap();
        assert!(g.select_centers(&CenterSelection::default()).is_err());
    }
}
