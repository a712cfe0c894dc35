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
//!
//! The leaf-local tree queries get a battery of their own: every tree index,
//! with default and with tiny leaves, on inputs full of duplicate points,
//! at a tiny, a mid, the bounding-box diameter and a beyond-the-diameter
//! `dc`, and the R-tree and k-d tree again after deletions.
//!
//! Every index and every streaming engine must also agree on the ρ
//! threshold where `dc` is itself the rounded distance of a pair. Cut-off ρ and δ/µ must equal
//! `NaiveReferenceIndex` bit for bit at threads {1, 2, 7}, and the
//! traversal counters must not depend on the thread count.

use density_peaks::core::index::weighted_rho_scan;
use density_peaks::core::naive_reference::NaiveReferenceIndex;
use density_peaks::core::{DeltaResult, DensityOrder, ExecPolicy, Kernel, Query, Rho};
use density_peaks::prelude::*;
use density_peaks::tree_index::query::subtree_max_density;
use density_peaks::tree_index::{
    delta_query_recorded, rho_query_recorded, DeltaQueryConfig, GridConfig, KdTreeConfig,
    QuadtreeConfig, QueryStats, RTreeConfig, SpatialPartition,
};
use dpc_obs::{MetricsRecorder, NoopRecorder};
use proptest::prelude::*;
use proptest::TestCaseResult;

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

/// The ρ- and δ-query traversal counters at one `dc` and thread count.
type Work = (QueryStats, QueryStats);

/// Checks one tree index's cut-off ρ and δ/µ against `NaiveReferenceIndex`
/// on the index's own dataset, at threads {1, 2, 7}, and that the traversal
/// counters do not depend on the thread count.
fn check_leaf_local_queries<T: SpatialPartition + DpcIndex + Sync>(
    name: &str,
    tree: &T,
    dcs: &[f64],
) -> TestCaseResult {
    let data = tree.dataset();
    let naive = NaiveReferenceIndex::build(data);
    for &dc in dcs {
        let expected_rho = naive.rho(dc).unwrap();
        let expected = naive.delta(dc, &expected_rho).unwrap();
        let order = DensityOrder::with_tie_break(&expected_rho, tree.tie_break());
        let maxrho = subtree_max_density(tree, &expected_rho);
        let config = DeltaQueryConfig::default();
        let mut work: Option<Work> = None;
        for threads in [1, 2, 7] {
            let exec = ExecPolicy::Threads(threads);
            let (rho, rho_stats) = rho_query_recorded(tree, data, dc, exec, &NoopRecorder);
            prop_assert_eq!(
                bits(&rho),
                bits(&expected_rho),
                "{} ρ, dc = {}, threads = {}",
                name,
                dc,
                threads
            );
            let (deltas, delta_stats) =
                delta_query_recorded(tree, data, &order, &maxrho, &config, exec, &NoopRecorder);
            prop_assert!(
                same_deltas(&deltas, &expected),
                "{} δ/µ, dc = {}, threads = {}",
                name,
                dc,
                threads
            );
            match work {
                None => work = Some((rho_stats, delta_stats)),
                Some(w) => prop_assert_eq!(
                    w,
                    (rho_stats, delta_stats),
                    "{} counters, dc = {}, threads = {}",
                    name,
                    dc,
                    threads
                ),
            }
        }
    }
    Ok(())
}

/// A lattice point set with every third point repeated, so coincident
/// points (δ = 0 ties broken by id) sit in every leaf size.
fn with_duplicates(points: Vec<(f64, f64)>) -> Dataset {
    let repeats: Vec<(f64, f64)> = points.iter().step_by(3).copied().collect();
    Dataset::from_coords(points.into_iter().chain(repeats))
}

/// `dc` tiny (almost every ρ is 0, so the tie-break decides µ), the drawn
/// mid value, the bounding-box diameter and twice it (every node fits the
/// query circle of every point).
///
/// The diameter is the rounded distance of the two corner points whenever
/// both are in the data, so the squared ρ tests must not count that pair:
/// its rounded distance equals `dc`, not below it.
fn dc_sweep(data: &Dataset, mid: f64) -> [f64; 4] {
    let diameter = data.bbox_diameter().max(1e-3);
    [1e-3, mid, diameter, diameter * 2.0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leaf_local_tree_queries_match_the_naive_reference_at_every_thread_count(
        points in points_strategy(),
        mid in 0.3f64..25.0
    ) {
        let data = with_duplicates(points);
        let dcs = dc_sweep(&data, mid);
        // Default leaves, and leaves of a few points so even small inputs
        // spread over several levels.
        check_leaf_local_queries("quadtree", &Quadtree::build(&data), &dcs)?;
        check_leaf_local_queries("rtree", &RTree::build(&data), &dcs)?;
        check_leaf_local_queries("kdtree", &KdTree::build(&data), &dcs)?;
        check_leaf_local_queries("grid", &GridIndex::build(&data), &dcs)?;
        let quad = QuadtreeConfig { node_capacity: 2, ..QuadtreeConfig::default() };
        check_leaf_local_queries("quadtree/2", &Quadtree::with_config(&data, &quad), &dcs)?;
        let rtree = RTreeConfig { node_capacity: 3, ..RTreeConfig::default() };
        check_leaf_local_queries("rtree/3", &RTree::with_config(&data, &rtree), &dcs)?;
        let kd = KdTreeConfig { leaf_capacity: 2, ..KdTreeConfig::default() };
        check_leaf_local_queries("kdtree/2", &KdTree::with_config(&data, &kd), &dcs)?;
        let grid = GridConfig { target_points_per_cell: 2, ..GridConfig::default() };
        check_leaf_local_queries("grid/2", &GridIndex::with_config(&data, &grid), &dcs)?;
    }

    #[test]
    fn leaf_local_tree_queries_survive_deletions(
        points in points_strategy(),
        mid in 0.3f64..25.0
    ) {
        let data = with_duplicates(points);
        // Small nodes and no rebuilds: deletions leave stale boxes and
        // emptied nodes behind (the R-tree also dissolves underfull leaves
        // and reinserts their survivors).
        let rtree = RTreeConfig { node_capacity: 3, ..RTreeConfig::default() };
        let kd = KdTreeConfig {
            leaf_capacity: 2,
            rebuild_imbalance: 1.0,
            rebuild_dead_fraction: f64::INFINITY,
            ..KdTreeConfig::default()
        };
        let mut rtree = RTree::with_config(&data, &rtree);
        let mut kdtree = KdTree::with_config(&data, &kd);
        // Every third point from the top, so some leaves empty out.
        let doomed: Vec<usize> = (0..data.len()).rev().step_by(3).collect();
        for &id in &doomed {
            rtree.remove(id).unwrap();
            kdtree.remove(id).unwrap();
        }
        prop_assert_eq!(rtree.dataset(), kdtree.dataset());
        let dcs = dc_sweep(rtree.dataset(), mid);
        check_leaf_local_queries("rtree after deletions", &rtree, &dcs)?;
        check_leaf_local_queries("kdtree after deletions", &kdtree, &dcs)?;
    }
}

/// Two points whose squared distance is exactly 1454.5: its rounded root is
/// `dc` below, yet `fl(dc²)` exceeds 1454.5, so a plain `d² < dc·dc` test
/// would count the pair while the rounded distance equals `dc`.
fn threshold_pair() -> (Dataset, f64) {
    let data = Dataset::from_coords(vec![(-19.5, 13.0), (2.0, -18.5)]);
    let dc = data.distance(0, 1);
    assert_eq!(dc, 38.137_907_651_049_765);
    assert!(1454.5 < dc * dc);
    (data, dc)
}

#[test]
fn a_pair_at_exactly_dc_is_outside_for_every_index() {
    let (data, dc) = threshold_pair();
    let above = f64::from_bits(dc.to_bits() + 1);
    for (name, _, index) in every_index(&data) {
        for exec in policies() {
            for kernel in [Kernel::Cutoff, Kernel::gaussian(dc)] {
                let q = Query {
                    kernel,
                    exec,
                    ..Query::new(dc)
                };
                let rho = index.rho_query(&q).unwrap();
                assert_eq!(rho, vec![0.0, 0.0], "{name} {} {exec:?}", kernel.name());
            }
            let q = Query {
                exec,
                ..Query::new(above)
            };
            assert_eq!(
                index.rho_query(&q).unwrap(),
                vec![1.0, 1.0],
                "{name} {exec:?}"
            );
        }
    }
    let updatable: Vec<(&str, Box<dyn UpdatableIndex>)> = vec![
        ("naive", Box::new(NaiveReferenceIndex::build(&data))),
        ("lean", Box::new(LeanDpc::build(&data))),
        ("grid", Box::new(GridIndex::build(&data))),
        ("kdtree", Box::new(KdTree::build(&data))),
        ("rtree", Box::new(RTree::build(&data))),
    ];
    for (name, index) in &updatable {
        let got = index.eps_neighbors(data.point(0), dc).unwrap();
        assert_eq!(got, vec![0], "{name}");
        let got = index.eps_neighbors(data.point(0), above).unwrap();
        assert_eq!(got, vec![0, 1], "{name}");
    }
}

#[test]
fn a_pair_at_exactly_dc_is_outside_for_every_streaming_engine() {
    let (data, dc) = threshold_pair();
    let first = Dataset::new(vec![data.point(0)]);
    fn replay<I: UpdatableIndex>(name: &str, seeded: I, pair: I, data: &Dataset, dc: f64) {
        // Seeded with both points, and grown to both by an insert (the
        // incremental ε-query path); then the first point slides out.
        let mut full = StreamingDpc::new(pair, StreamParams::new(dc)).unwrap();
        assert_eq!(full.rho(), &[0.0, 0.0], "{name} seeded");
        let mut grown = StreamingDpc::new(seeded, StreamParams::new(dc)).unwrap();
        grown.insert(data.point(1)).unwrap();
        assert_eq!(grown.rho(), &[0.0, 0.0], "{name} grown");
        let oldest = grown.oldest().unwrap();
        grown.remove(oldest).unwrap();
        assert_eq!(grown.rho(), &[0.0], "{name} slid");
        full.insert(data.point(0)).unwrap();
        assert_eq!(full.rho(), &[1.0, 0.0, 1.0], "{name} coincident insert");
    }
    replay(
        "naive",
        NaiveReferenceIndex::build(&first),
        NaiveReferenceIndex::build(&data),
        &data,
        dc,
    );
    replay(
        "lean",
        LeanDpc::build(&first),
        LeanDpc::build(&data),
        &data,
        dc,
    );
    replay(
        "grid",
        GridIndex::build(&first),
        GridIndex::build(&data),
        &data,
        dc,
    );
    replay(
        "kdtree",
        KdTree::build(&first),
        KdTree::build(&data),
        &data,
        dc,
    );
    replay(
        "rtree",
        RTree::build(&first),
        RTree::build(&data),
        &data,
        dc,
    );
}
