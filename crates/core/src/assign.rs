//! Step 4 of DPC: assigning every point to the cluster of its dependent
//! neighbour, plus the optional halo (border-noise) computation of the
//! original DPC paper.
//!
//! Once the centres are chosen, a centre starts its own cluster and every
//! other point inherits the label of its dependent neighbour `µ`. The labels
//! are resolved by walking `µ` chains in id order and labelling each chain
//! once, on the way back, so no density sort is needed: this is the `O(n)`
//! fourth step of the original algorithm and is reused unchanged by every
//! index-based variant in the paper.

use crate::cluster::Clustering;
use crate::delta::{DeltaResult, DensityOrder};
use crate::error::{DpcError, Result};
use crate::point::{Dataset, PointId};

/// Options controlling the assignment step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentOptions {
    /// When `true`, compute the cluster halos: for every cluster the *border
    /// density* is the highest density among its points that lie within `dc`
    /// of a point of another cluster; members with density below the border
    /// density are flagged as halo (potential noise). This follows the
    /// original DPC paper. The computation is `O(n²)` in the worst case and
    /// is therefore opt-in.
    pub compute_halo: bool,
}

impl AssignmentOptions {
    /// Options with halo computation enabled.
    pub fn with_halo() -> Self {
        AssignmentOptions { compute_halo: true }
    }
}

/// Assigns every point to a cluster.
///
/// * `dataset` — the points (needed for the nearest-centre fallback and the
///   halo computation);
/// * `order` — the density total order (provides `ρ` and tie-breaking);
/// * `deltas` — the δ/µ query result;
/// * `centers` — the chosen cluster centres, sorted ascending;
/// * `dc` — the cut-off distance (used only for the halo computation);
/// * `options` — see [`AssignmentOptions`].
///
/// A non-centre point `p` takes the label of `q = µ(p)` when `q` is denser
/// than `p` or is a centre. Every other point — `µ` unknown (the global peak
/// when it is not itself a centre, or points truncated by an approximate
/// index) or `µ` pointing at a sparser non-centre (an inconsistent chain of
/// an approximate index) — falls back to the nearest centre by Euclidean
/// distance, which keeps the assignment total.
///
/// Each followed `µ` step either climbs the density order or ends at a
/// centre, so chains are acyclic; every point is labelled once and the
/// whole pass is `O(n)` plus the nearest-centre fallbacks.
pub fn assign_clusters(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    deltas: &DeltaResult,
    centers: &[PointId],
    dc: f64,
    options: &AssignmentOptions,
) -> Result<Clustering> {
    let n = dataset.len();
    if n == 0 {
        return Ok(Clustering::new(vec![], vec![], vec![]));
    }
    if centers.is_empty() {
        return Err(DpcError::invalid_parameter(
            "centers",
            "at least one cluster centre is required",
        ));
    }
    if order.len() != n || deltas.len() != n {
        return Err(DpcError::LengthMismatch {
            expected: n,
            actual: order.len().min(deltas.len()),
            what: "assignment inputs",
        });
    }
    for &c in centers {
        if c >= n {
            return Err(DpcError::invalid_parameter(
                "centers",
                format!("centre {c} is out of range (n = {n})"),
            ));
        }
    }

    const UNASSIGNED: usize = usize::MAX;
    let mut labels = vec![UNASSIGNED; n];
    // Centres are their own clusters; cluster id = rank of centre in the
    // (sorted) centre list.
    for (cluster_id, &c) in centers.iter().enumerate() {
        labels[c] = cluster_id;
    }

    // Follow each unlabelled point's µ chain up to the first labelled point
    // or fallback point, then label the whole chain on the way back. A point
    // is a centre exactly when the cluster its label names is centred on it.
    let is_center = |labels: &[usize], q: PointId| centers.get(labels[q]) == Some(&q);
    let mut chain = Vec::new();
    for start in 0..n {
        let mut p = start;
        let label = loop {
            if labels[p] != UNASSIGNED {
                break labels[p];
            }
            match deltas.mu(p) {
                Some(q) if order.is_denser(q, p) || is_center(&labels, q) => {
                    chain.push(p);
                    p = q;
                }
                _ => {
                    let label = nearest_center(dataset, p, centers);
                    labels[p] = label;
                    break label;
                }
            }
        };
        for q in chain.drain(..) {
            labels[q] = label;
        }
    }

    let halo = if options.compute_halo {
        compute_halo(dataset, order, &labels, centers.len(), dc)
    } else {
        vec![false; n]
    };

    Ok(Clustering::new(labels, centers.to_vec(), halo))
}

/// Index (cluster id) of the centre nearest to `p`.
fn nearest_center(dataset: &Dataset, p: PointId, centers: &[PointId]) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (cluster_id, &c) in centers.iter().enumerate() {
        let d = dataset.distance(p, c);
        if d < best_d {
            best_d = d;
            best = cluster_id;
        }
    }
    best
}

/// Computes the halo flags following the original DPC paper: for every
/// cluster, the border density is the maximum density of a member lying
/// within `dc` of a member of a different cluster; members with strictly
/// lower density than the border density are halo points.
fn compute_halo(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    labels: &[usize],
    num_clusters: usize,
    dc: f64,
) -> Vec<bool> {
    let n = dataset.len();
    let rho = order.rho();
    let mut border_density = vec![0.0f64; num_clusters];
    for i in 0..n {
        for j in (i + 1)..n {
            if labels[i] != labels[j] && dataset.distance(i, j) < dc {
                border_density[labels[i]] = border_density[labels[i]].max(rho[i]);
                border_density[labels[j]] = border_density[labels[j]].max(rho[j]);
            }
        }
    }
    (0..n).map(|p| rho[p] < border_density[labels[p]]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DpcIndex;
    use crate::naive_reference::NaiveReferenceIndex;
    use crate::point::Point;

    /// Two tight blobs plus one isolated point halfway between them.
    fn dataset() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.0, 0.1),
            Point::new(0.1, 0.1),
            Point::new(10.0, 10.0),
            Point::new(10.1, 10.0),
            Point::new(10.0, 10.1),
            Point::new(5.0, 5.0),
        ])
    }

    fn rho_delta(data: &Dataset, dc: f64) -> (Vec<crate::density::Rho>, DeltaResult) {
        NaiveReferenceIndex::build(data).rho_delta(dc).unwrap()
    }

    #[test]
    fn assignment_follows_mu_chain() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let clustering = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(clustering.num_clusters(), 2);
        // Blob around origin.
        for p in 0..4 {
            assert_eq!(clustering.label(p), clustering.label(0), "point {p}");
        }
        // Blob around (10, 10).
        for p in 4..7 {
            assert_eq!(clustering.label(p), clustering.label(4), "point {p}");
        }
        // The two blobs are distinct clusters.
        assert_ne!(clustering.label(0), clustering.label(4));
    }

    #[test]
    fn centres_label_themselves() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(c.label(0), 0);
        assert_eq!(c.label(4), 1);
    }

    #[test]
    fn isolated_point_is_assigned_somewhere() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let centers = vec![0, 4];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        // Point 7 sits exactly between the blobs; it must still receive one
        // of the two labels (DPC assigns every point).
        assert!(c.label(7) < 2);
    }

    #[test]
    fn global_peak_not_a_centre_falls_back_to_nearest_centre() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let peak = order.global_peak().unwrap();
        // Pick centres that deliberately exclude the global peak.
        let centers: Vec<PointId> = vec![4, 7];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        // The peak is in the origin blob, nearest centre is 7 (at 5,5) vs 4 (10,10).
        assert_eq!(c.label(peak), 1);
    }

    #[test]
    fn no_centres_is_an_error() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        assert!(assign_clusters(
            &data,
            &order,
            &deltas,
            &[],
            0.3,
            &AssignmentOptions::default()
        )
        .is_err());
    }

    #[test]
    fn out_of_range_centre_is_an_error() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        assert!(assign_clusters(
            &data,
            &order,
            &deltas,
            &[999],
            0.3,
            &AssignmentOptions::default()
        )
        .is_err());
    }

    #[test]
    fn halo_disabled_by_default() {
        let data = dataset();
        let (rho, deltas) = rho_delta(&data, 0.3);
        let order = DensityOrder::new(&rho);
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &[0, 4],
            0.3,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert_eq!(c.halo_count(), 0);
    }

    #[test]
    fn halo_flags_border_points_between_touching_clusters() {
        // Two 7x7 grid clusters whose facing edges lie within dc of each
        // other. The sparse edge/corner points must be flagged as halo while
        // the dense cluster cores must not.
        let mut pts = Vec::new();
        for x0 in [0.0, 1.6] {
            for i in 0..7 {
                for j in 0..7 {
                    pts.push(Point::new(x0 + i as f64 * 0.2, j as f64 * 0.2));
                }
            }
        }
        let data = Dataset::new(pts);
        let dc = 0.5;
        let (rho, deltas) = rho_delta(&data, dc);
        let order = DensityOrder::new(&rho);
        // Densest point of each half as centres.
        let peak_a = (0..49).max_by_key(|&p| order.key(p)).unwrap();
        let peak_b = (49..98).max_by_key(|&p| order.key(p)).unwrap();
        let centers = vec![peak_a, peak_b];
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &centers,
            dc,
            &AssignmentOptions::with_halo(),
        )
        .unwrap();
        assert!(c.halo_count() > 0, "facing edges must produce halo points");
        assert!(!c.is_halo(peak_a), "cluster core must not be halo");
        assert!(!c.is_halo(peak_b), "cluster core must not be halo");
        // The facing corner of the first grid (i=6, j=0 -> id 42) is sparse
        // and adjacent to the other cluster, so it must be halo.
        assert!(c.is_halo(42));
    }

    /// Regression pin for centre/assignment determinism when two candidate
    /// peaks are *exactly* tied: equal ρ, equal δ (hence equal γ).
    ///
    /// Two coincident pairs, far apart: every point has ρ = 1, and both pair
    /// leaders (ids 0 and 2) end up with δ = 10 — the decision graph cannot
    /// separate them on (ρ, δ) alone. The pinned behaviour is the workspace
    /// convention used everywhere else: ties resolve towards the smaller id
    /// (γ ranking is stable by id, the density order uses
    /// `TieBreak::SmallerIdDenser`, equidistant µ candidates pick the
    /// smaller id). The streaming engine re-runs this selection + assignment
    /// every epoch, so any drift here would make incremental and batch runs
    /// diverge.
    #[test]
    fn equal_rho_equal_delta_peaks_assign_deterministically() {
        use crate::decision::{CenterSelection, DecisionGraph};
        let data = Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 0.0),
        ]);
        let dc = 1.0;
        let (rho, deltas) = rho_delta(&data, dc);
        // Both pair leaders are exact ties on the decision graph.
        assert_eq!(rho, vec![1.0, 1.0, 1.0, 1.0]);
        assert_eq!(deltas.delta, vec![10.0, 0.0, 10.0, 0.0]);

        let run_once = || {
            let graph = DecisionGraph::new(rho.clone(), &deltas).unwrap();
            let centers = graph
                .select_centers(&CenterSelection::TopKGamma { k: 2 })
                .unwrap();
            let order = DensityOrder::new(&rho);
            let clustering = assign_clusters(
                &data,
                &order,
                &deltas,
                &centers,
                dc,
                &AssignmentOptions::default(),
            )
            .unwrap();
            (centers, clustering)
        };

        let (centers, clustering) = run_once();
        // Tie resolves to the smaller ids: the two pair leaders.
        assert_eq!(centers, vec![0, 2]);
        assert_eq!(clustering.labels(), &[0, 0, 1, 1]);
        // Re-running the selection + assignment is bit-identical (the
        // streaming engine does this every epoch).
        let (centers2, clustering2) = run_once();
        assert_eq!(centers, centers2);
        assert_eq!(clustering, clustering2);
    }

    /// The densest-first loop the µ-chain walk replaced: ids sorted from
    /// densest to sparsest, each point copying the label of its already
    /// labelled µ, else taking the nearest centre.
    fn densest_first_labels(
        dataset: &Dataset,
        order: &DensityOrder<'_>,
        deltas: &DeltaResult,
        centers: &[PointId],
    ) -> Vec<usize> {
        let mut labels = vec![usize::MAX; dataset.len()];
        for (cluster_id, &c) in centers.iter().enumerate() {
            labels[c] = cluster_id;
        }
        for p in order.rank_descending() {
            if labels[p] != usize::MAX {
                continue;
            }
            labels[p] = match deltas.mu(p) {
                Some(q) if labels[q] != usize::MAX => labels[q],
                _ => nearest_center(dataset, p, centers),
            };
        }
        labels
    }

    #[test]
    fn mu_chain_walk_matches_the_densest_first_loop() {
        use crate::delta::TieBreak;
        let mut state = 0xa551_u64;
        let mut rng = move |bound: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % bound
        };
        // How often each shape of µ the walk must handle was generated.
        let (mut centre_with_mu, mut none_off_peak, mut to_sparser, mut to_sparser_centre) =
            (0, 0, 0, 0);
        for case in 0..400 {
            let n = 1 + rng(60) as usize;
            let data = Dataset::new(
                (0..n)
                    .map(|_| Point::new(rng(8) as f64, rng(8) as f64))
                    .collect(),
            );
            // Integer ρ: most comparisons are decided by the tie-break.
            let rho: Vec<crate::density::Rho> = (0..n).map(|_| rng(4) as f64).collect();
            let tie = if case % 2 == 0 {
                TieBreak::SmallerIdDenser
            } else {
                TieBreak::LargerIdDenser
            };
            let order = DensityOrder::with_tie_break(&rho, tie);
            let peak = order.global_peak().unwrap();
            let mut centers: Vec<PointId> =
                (0..1 + rng(4)).map(|_| rng(n as u64) as usize).collect();
            centers.sort_unstable();
            centers.dedup();
            // µ as exact and approximate indexes report it: mostly a denser
            // point, sometimes unknown (a truncated RN-List), sometimes an
            // arbitrary point of an inconsistent chain (possibly sparser).
            let mu: Vec<Option<PointId>> = (0..n)
                .map(|p| {
                    let denser: Vec<PointId> = (0..n).filter(|&q| order.is_denser(q, p)).collect();
                    match rng(10) {
                        0 => None,
                        1 => Some(rng(n as u64) as usize),
                        _ if denser.is_empty() => None,
                        _ => Some(denser[rng(denser.len() as u64) as usize]),
                    }
                })
                .collect();
            for (p, &mu_p) in mu.iter().enumerate() {
                let is_centre = centers.contains(&p);
                match mu_p {
                    Some(_) if is_centre => centre_with_mu += 1,
                    None if p != peak => none_off_peak += 1,
                    Some(q) if !order.is_denser(q, p) => {
                        if centers.contains(&q) {
                            to_sparser_centre += 1;
                        } else {
                            to_sparser += 1;
                        }
                    }
                    _ => {}
                }
            }
            let deltas = DeltaResult::new(vec![1.0; n], mu);
            let clustering = assign_clusters(
                &data,
                &order,
                &deltas,
                &centers,
                1.0,
                &AssignmentOptions::default(),
            )
            .unwrap();
            assert_eq!(
                clustering.labels(),
                densest_first_labels(&data, &order, &deltas, &centers),
                "case {case}"
            );
        }
        for (what, count) in [
            ("centres with a µ", centre_with_mu),
            ("µ = None off the peak", none_off_peak),
            ("µ at a sparser non-centre", to_sparser),
            ("µ at a sparser centre", to_sparser_centre),
        ] {
            assert!(count > 20, "too few cases of {what}: {count}");
        }
    }

    #[test]
    fn empty_dataset_gives_empty_clustering() {
        let data = Dataset::new(vec![]);
        let rho: Vec<crate::density::Rho> = vec![];
        let order = DensityOrder::new(&rho);
        let deltas = DeltaResult::unset(0);
        let c = assign_clusters(
            &data,
            &order,
            &deltas,
            &[],
            1.0,
            &AssignmentOptions::default(),
        )
        .unwrap();
        assert!(c.is_empty());
    }
}
