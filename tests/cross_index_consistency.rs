//! Property-based cross-index consistency: every *exact* index must produce
//! exactly the same ρ, δ and µ as the naive baseline, for arbitrary point
//! sets and arbitrary cut-off distances.
//!
//! This is the central correctness claim of the reproduction: the paper's
//! indices are pure accelerations, not approximations (Theorem 3).

use density_peaks::core::{ExecPolicy, Query};
use density_peaks::prelude::*;
use dpc_baseline::MatrixDpc;
use proptest::prelude::*;

/// Strategy: between 2 and 60 points with coordinates in [-100, 100].
fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 2..60)
}

/// Strategy: a cut-off distance spanning tiny to "covers everything".
fn dc_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![0.01f64..1.0, 1.0f64..50.0, 50.0f64..400.0]
}

fn all_exact_indices(data: &Dataset) -> Vec<(&'static str, Box<dyn DpcIndex>)> {
    vec![
        ("list", Box::new(ListIndex::build(data))),
        ("ch", Box::new(ChIndex::build(data, 7.5))),
        ("ch-fine", Box::new(ChIndex::build(data, 0.5))),
        ("quadtree", Box::new(Quadtree::build(data))),
        ("rtree", Box::new(RTree::build(data))),
        ("kdtree", Box::new(KdTree::build(data))),
        ("grid", Box::new(GridIndex::build(data))),
        ("matrix", Box::new(MatrixDpc::build(data))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_exact_index_matches_the_baseline(points in points_strategy(), dc in dc_strategy()) {
        let data = Dataset::from_coords(points);
        let baseline = LeanDpc::build(&data);
        let (ref_rho, ref_delta) = baseline.rho_delta(dc).unwrap();

        for (name, index) in all_exact_indices(&data) {
            let (rho, delta) = index.rho_delta(dc).unwrap();
            prop_assert_eq!(&rho, &ref_rho, "rho mismatch for {}", name);
            prop_assert_eq!(&delta.mu, &ref_delta.mu, "mu mismatch for {}", name);
            for p in 0..data.len() {
                prop_assert!(
                    (delta.delta(p) - ref_delta.delta(p)).abs() < 1e-9,
                    "delta mismatch for {} at point {}", name, p
                );
            }
        }
    }

    #[test]
    fn parallel_queries_are_bit_identical_to_sequential_for_every_index(
        points in points_strategy(),
        dc in dc_strategy()
    ) {
        // The parallel query engine partitions work over threads but runs
        // exactly the same per-point code, so ρ, δ and µ must be
        // bit-identical to the sequential query for every index and any
        // thread count — including more threads than points (n is 2..60
        // here, so threads = 7 regularly exceeds n).
        let data = Dataset::from_coords(points);
        let mut indexes = all_exact_indices(&data);
        indexes.push(("lean", Box::new(LeanDpc::build(&data))));
        for (name, index) in indexes {
            let (seq_rho, seq_delta) = index.rho_delta(dc).unwrap();
            for threads in [1usize, 2, 3, 4, 7] {
                let q = Query { exec: ExecPolicy::Threads(threads), ..Query::new(dc) };
                let rho = index.rho_query(&q).unwrap();
                let delta = index.delta_query(&q, &rho).unwrap();
                prop_assert_eq!(&rho, &seq_rho, "rho differs for {} at {} threads", name, threads);
                prop_assert_eq!(
                    &delta.delta, &seq_delta.delta,
                    "delta differs for {} at {} threads", name, threads
                );
                prop_assert_eq!(
                    &delta.mu, &seq_delta.mu,
                    "mu differs for {} at {} threads", name, threads
                );
            }
        }
    }

    #[test]
    fn rho_is_symmetric_in_pair_membership(points in points_strategy(), dc in dc_strategy()) {
        // The sum of all densities equals twice the number of close pairs —
        // an invariant that catches double counting or self counting.
        let data = Dataset::from_coords(points);
        let rho = ListIndex::build(&data).rho(dc).unwrap();
        let mut close_pairs = 0u64;
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                if data.distance(i, j) < dc {
                    close_pairs += 1;
                }
            }
        }
        let total: u64 = rho.iter().map(|&r| r as u64).sum();
        prop_assert_eq!(total, 2 * close_pairs);
    }

    #[test]
    fn delta_points_to_a_denser_point_at_that_exact_distance(
        points in points_strategy(),
        dc in dc_strategy()
    ) {
        let data = Dataset::from_coords(points);
        let index = RTree::build(&data);
        let (rho, delta) = index.rho_delta(dc).unwrap();
        let order = density_peaks::core::DensityOrder::new(&rho);
        delta.validate(&order).unwrap();
        for p in 0..data.len() {
            if let Some(q) = delta.mu(p) {
                prop_assert!((delta.delta(p) - data.distance(p, q)).abs() < 1e-9);
                // No denser point may be strictly closer than mu.
                for r in 0..data.len() {
                    if r != p && order.is_denser(r, p) {
                        prop_assert!(data.distance(p, r) >= delta.delta(p) - 1e-9);
                    }
                }
            }
        }
    }

    #[test]
    fn clusterings_from_different_indices_are_identical(
        points in points_strategy(),
        dc in 1.0f64..60.0,
        k in 1usize..4
    ) {
        let data = Dataset::from_coords(points);
        let k = k.min(data.len());
        let params = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k });
        let reference = cluster_with_index(&LeanDpc::build(&data), &params).unwrap();
        let from_ch = cluster_with_index(&ChIndex::build(&data, 3.0), &params).unwrap();
        let from_quadtree = cluster_with_index(&Quadtree::build(&data), &params).unwrap();
        let from_rtree = cluster_with_index(&RTree::build(&data), &params).unwrap();
        prop_assert_eq!(reference.labels(), from_ch.labels());
        prop_assert_eq!(reference.labels(), from_quadtree.labels());
        prop_assert_eq!(reference.labels(), from_rtree.labels());
        prop_assert_eq!(reference.centers(), from_rtree.centers());
    }
}

#[test]
fn duplicate_and_collinear_points_are_handled_by_every_index() {
    // Degenerate layouts that stress tie-breaking and zero-area boxes.
    let layouts: Vec<Vec<(f64, f64)>> = vec![
        vec![(1.0, 1.0); 12],                       // all identical
        (0..20).map(|i| (i as f64, 0.0)).collect(), // collinear on x
        (0..20).map(|i| (0.0, i as f64)).collect(), // collinear on y
        vec![(0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 2.0)], // duplicates
    ];
    for points in layouts {
        let data = Dataset::from_coords(points);
        let baseline = LeanDpc::build(&data);
        for dc in [0.5, 1.5, 100.0] {
            let (ref_rho, ref_delta) = baseline.rho_delta(dc).unwrap();
            for (name, index) in all_exact_indices(&data) {
                let (rho, delta) = index.rho_delta(dc).unwrap();
                assert_eq!(rho, ref_rho, "{name} at dc = {dc}");
                assert_eq!(delta.mu, ref_delta.mu, "{name} at dc = {dc}");
            }
        }
    }
}
