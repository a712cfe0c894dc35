//! The `Query` contract, checked for every `DpcIndex` implementation.
//!
//! Each index dispatches the density kernel, the execution policy and the
//! recorder of a [`Query`] itself, so a missed branch in one of them would
//! silently return cut-off counts for a weighted kernel, or change a result
//! under threads or recording. Over random datasets, every index must:
//!
//! * answer a weighted ρ-query bit for bit like `weighted_rho_scan`, at
//!   `Sequential` and at `Threads(4)`;
//! * answer the δ-query exactly like `NaiveReferenceIndex` on the same ρ;
//! * return bit-identical results with a `MetricsRecorder` attached;
//! * and, for the tree indexes, publish their traversal counters and
//!   per-worker chunk spans to that recorder.

use density_peaks::core::index::weighted_rho_scan;
use density_peaks::core::naive_reference::NaiveReferenceIndex;
use density_peaks::core::{DeltaResult, ExecPolicy, Kernel, Query, Rho};
use density_peaks::prelude::*;
use dpc_obs::MetricsRecorder;
use proptest::prelude::*;

/// Every `DpcIndex` implementation, and whether it is a tree index.
fn every_index(data: &Dataset) -> Vec<(&'static str, bool, Box<dyn DpcIndex>)> {
    vec![
        ("naive", false, Box::new(NaiveReferenceIndex::build(data))),
        ("lean", false, Box::new(LeanDpc::build(data))),
        ("matrix", false, Box::new(MatrixDpc::build(data))),
        ("list", false, Box::new(ListIndex::build(data))),
        ("ch", false, Box::new(ChIndex::build(data, 3.0))),
        ("quadtree", true, Box::new(Quadtree::build(data))),
        ("rtree", true, Box::new(RTree::build(data))),
        ("kdtree", true, Box::new(KdTree::build(data))),
        ("grid", true, Box::new(GridIndex::build(data))),
    ]
}

/// Between 2 and 80 points on a coarse lattice, so coincident points and
/// equal distances (ρ and δ ties) are common.
fn points_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0u32..80, 0u32..80), 2..80).prop_map(|pts| {
        pts.into_iter()
            .map(|(x, y)| (f64::from(x) * 0.5 - 20.0, f64::from(y) * 0.5 - 20.0))
            .collect()
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn same_deltas(a: &DeltaResult, b: &DeltaResult) -> bool {
    a.mu == b.mu && bits(&a.delta) == bits(&b.delta)
}

fn policies() -> [ExecPolicy; 2] {
    [ExecPolicy::Sequential, ExecPolicy::Threads(4)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn weighted_rho_matches_the_canonical_scan_bit_for_bit(
        points in points_strategy(),
        dc in 0.3f64..25.0
    ) {
        let data = Dataset::from_coords(points);
        for kernel in [Kernel::gaussian(dc), Kernel::exponential(dc / 2.0)] {
            let expected = weighted_rho_scan(&data, dc, kernel, ExecPolicy::Sequential).unwrap();
            for (name, _, index) in every_index(&data) {
                for exec in policies() {
                    let q = Query { kernel, exec, ..Query::new(dc) };
                    let rho = index.rho_query(&q).unwrap();
                    prop_assert_eq!(
                        bits(&rho), bits(&expected),
                        "{} {} {:?}", name, kernel.name(), exec
                    );
                }
            }
        }
    }

    #[test]
    fn delta_matches_the_naive_reference_on_the_same_rho(
        points in points_strategy(),
        dc in 0.3f64..25.0
    ) {
        let data = Dataset::from_coords(points);
        let naive = NaiveReferenceIndex::build(&data);
        let weighted = Query { kernel: Kernel::gaussian(dc), ..Query::new(dc) };
        // Integer cut-off densities (many ties) and weighted ones.
        let densities: [Vec<Rho>; 2] = [
            naive.rho(dc).unwrap(),
            naive.rho_query(&weighted).unwrap(),
        ];
        for rho in &densities {
            let expected = naive.delta(dc, rho).unwrap();
            for (name, _, index) in every_index(&data) {
                for exec in policies() {
                    let q = Query { exec, ..Query::new(dc) };
                    let got = index.delta_query(&q, rho).unwrap();
                    prop_assert!(same_deltas(&got, &expected), "{} {:?}", name, exec);
                }
            }
        }
    }

    #[test]
    fn a_recorder_never_changes_a_result(
        points in points_strategy(),
        dc in 0.3f64..25.0
    ) {
        let data = Dataset::from_coords(points);
        for (name, is_tree, index) in every_index(&data) {
            for kernel in [Kernel::Cutoff, Kernel::gaussian(dc)] {
                for exec in policies() {
                    let plain = Query { kernel, exec, ..Query::new(dc) };
                    let metrics = MetricsRecorder::new();
                    let recorded = Query { rec: &metrics, ..plain };
                    let rho = index.rho_query(&plain).unwrap();
                    let rho_rec = index.rho_query(&recorded).unwrap();
                    prop_assert_eq!(bits(&rho_rec), bits(&rho), "{} {:?}", name, exec);
                    let deltas = index.delta_query(&plain, &rho).unwrap();
                    let deltas_rec = index.delta_query(&recorded, &rho).unwrap();
                    prop_assert!(same_deltas(&deltas_rec, &deltas), "{} {:?}", name, exec);

                    if is_tree {
                        let snap = metrics.snapshot();
                        let visited = snap.counter("query.rho.nodes_visited").unwrap_or(0);
                        prop_assert!(visited > 0, "{} publishes no ρ traversal", name);
                        let workers = exec.workers(data.len()) as u64;
                        for label in ["query.rho.chunk", "query.delta.chunk"] {
                            // One span per chunk: at least one, at most one per worker.
                            let spans = snap.histogram(&format!("{label}_us")).map_or(0, |h| h.count());
                            prop_assert!((1..=workers).contains(&spans), "{} {}", name, label);
                            let items = snap.histogram(&format!("{label}.items")).map(|h| h.sum());
                            prop_assert_eq!(items, Some(data.len() as u64), "{} {}", name, label);
                        }
                    }
                }
            }
        }
    }
}
