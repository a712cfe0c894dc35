//! `UpdatableIndex::delta_targets`, checked for every updatable index.
//!
//! The streaming engine recomputes its invalidation set through this one
//! entry once per epoch: the tree indexes answer it with a pruned best-first
//! search on their own nodes, the naive and lean engines with the
//! brute-force `delta_point_scan` per target. Every answer must equal
//! `delta_point_scan` bit for bit — δ and µ — on:
//!
//! * random insert/delete histories (stale boxes, emptied nodes, renamed
//!   ids), with default and with tiny leaves;
//! * lattice inputs full of coincident points and equal distances, with
//!   integer densities full of ties, under both tie-break rules;
//! * a √-tie, where two squared distances one ulp apart share a root and
//!   the smaller id must win;
//! * every point as a target, so the global peak (max-distance sentinel)
//!   is always among them;
//!
//! at threads {1, 2, 7}, with the distance count independent of the thread
//! count.

use density_peaks::core::index::delta_point_scan;
use density_peaks::core::naive_reference::NaiveReferenceIndex;
use density_peaks::core::{BatchOp, DensityOrder, ExecPolicy, PointId, Rho};
use density_peaks::datasets::SplitMix64;
use density_peaks::prelude::*;
use density_peaks::tree_index::{GridConfig, KdTreeConfig, RTreeConfig};

/// Every updatable index over `data`, with default and with tiny leaves, and
/// a k-d tree that never rebuilds (deletions leave stale boxes behind).
fn engines(data: &Dataset, tie_break: TieBreak) -> Vec<(&'static str, Box<dyn UpdatableIndex>)> {
    let grid = |target| GridConfig {
        target_points_per_cell: target,
        tie_break,
        ..GridConfig::default()
    };
    let kd = |leaf| KdTreeConfig {
        leaf_capacity: leaf,
        tie_break,
        ..KdTreeConfig::default()
    };
    let rtree = |cap| RTreeConfig {
        node_capacity: cap,
        tie_break,
        ..RTreeConfig::default()
    };
    let frozen_kd = KdTreeConfig {
        leaf_capacity: 2,
        rebuild_imbalance: 1.0,
        rebuild_dead_fraction: f64::INFINITY,
        tie_break,
        ..KdTreeConfig::default()
    };
    vec![
        (
            "naive",
            Box::new(NaiveReferenceIndex::build_with_tie_break(data, tie_break)),
        ),
        (
            "lean",
            Box::new(LeanDpc::build_with_tie_break(data, tie_break)),
        ),
        ("grid", Box::new(GridIndex::with_config(data, &grid(32)))),
        ("grid/1", Box::new(GridIndex::with_config(data, &grid(1)))),
        ("kdtree", Box::new(KdTree::with_config(data, &kd(16)))),
        ("kdtree/1", Box::new(KdTree::with_config(data, &kd(1)))),
        (
            "kdtree/frozen",
            Box::new(KdTree::with_config(data, &frozen_kd)),
        ),
        ("rtree", Box::new(RTree::with_config(data, &rtree(16)))),
        ("rtree/2", Box::new(RTree::with_config(data, &rtree(2)))),
    ]
}

/// Checks every target of `targets` against `delta_point_scan` at threads
/// {1, 2, 7}.
fn check(name: &str, index: &dyn UpdatableIndex, rho: &[Rho], targets: &[PointId], ctx: &str) {
    let data = index.dataset();
    let order = DensityOrder::with_tie_break(rho, index.tie_break());
    let expected: Vec<(f64, Option<PointId>)> = targets
        .iter()
        .map(|&p| delta_point_scan(data, &order, p))
        .collect();
    let mut evals = None;
    for threads in [1usize, 2, 7] {
        let q = Query {
            exec: ExecPolicy::Threads(threads),
            ..Query::new(1.0)
        };
        let got = index.delta_targets(&q, rho, targets).unwrap();
        assert_eq!(got.deltas.len(), targets.len(), "{name} {ctx}");
        for (k, (&(d, mu), &(ed, emu))) in got.deltas.iter().zip(&expected).enumerate() {
            assert_eq!(
                (d.to_bits(), mu),
                (ed.to_bits(), emu),
                "{name} {ctx} target {} at threads {threads}",
                targets[k]
            );
        }
        match evals {
            None => evals = Some(got.dist_evals),
            Some(e) => assert_eq!(got.dist_evals, e, "{name} {ctx} threads {threads}"),
        }
    }
    if matches!(name, "naive" | "lean") {
        let full = targets.len() as u64 * (data.len() as u64 - 1);
        assert_eq!(evals, Some(full), "{name} {ctx}");
    }
}

/// A point on a coarse lattice, so coincident points and equal distances
/// are common.
fn lattice_point(rng: &mut SplitMix64) -> Point {
    let x = (rng.next_u64() % 24) as f64 * 0.5;
    let y = (rng.next_u64() % 24) as f64 * 0.5;
    Point::new(x, y)
}

#[test]
fn delta_targets_match_the_point_scan_over_random_histories() {
    for seed in 0..12u64 {
        let mut rng = SplitMix64::new(seed);
        let tie_break = if seed % 3 == 2 {
            TieBreak::LargerIdDenser
        } else {
            TieBreak::SmallerIdDenser
        };
        let n0 = 20 + (rng.next_u64() % 60) as usize;
        let data = Dataset::new((0..n0).map(|_| lattice_point(&mut rng)).collect());
        let mut engines = engines(&data, tie_break);
        for step in 0..6 {
            // A batch of random inserts and swap-removes, applied to every
            // index alike.
            let mut n = engines[0].1.len();
            let mut ops = Vec::new();
            for _ in 0..(1 + rng.next_u64() % 12) {
                if n > 2 && rng.next_u64().is_multiple_of(2) {
                    ops.push(BatchOp::Remove((rng.next_u64() % n as u64) as PointId));
                    n -= 1;
                } else {
                    ops.push(BatchOp::Insert(lattice_point(&mut rng)));
                    n += 1;
                }
            }
            for (name, index) in engines.iter_mut() {
                index.apply_batch(&ops).unwrap();
                assert_eq!(index.len(), n, "{name}");
            }
            // Integer densities in a narrow range: ties everywhere.
            let rho: Vec<Rho> = (0..n).map(|_| (rng.next_u64() % 4) as Rho).collect();
            let all: Vec<PointId> = (0..n).collect();
            let some: Vec<PointId> = (0..n / 3)
                .map(|_| (rng.next_u64() % n as u64) as PointId)
                .collect();
            for (name, index) in &engines {
                assert_eq!(index.dataset(), engines[0].1.dataset(), "{name}");
                let ctx = format!("seed {seed} step {step}");
                check(name, index.as_ref(), &rho, &all, &ctx);
                check(name, index.as_ref(), &rho, &some, &ctx);
            }
        }
    }
}

#[test]
fn delta_targets_break_square_root_ties_by_id_and_keep_the_peak_sentinel() {
    // From the origin (point 2), point 0 sits at squared distance 1 + 2⁻⁵²
    // and point 1 at exactly 1: both roots are 1.0, so the smaller id wins.
    // Coincident points (5, 6) tie at δ = 0; point 7 is the global peak.
    let data = Dataset::from_coords(vec![
        (1.0, 2f64.powi(-26)),
        (1.0, 0.0),
        (0.0, 0.0),
        (3.0, 3.0),
        (-3.0, 3.0),
        (2.0, -1.0),
        (2.0, -1.0),
        (-4.0, -4.0),
    ]);
    let rho: Vec<Rho> = vec![5.0, 5.0, 1.0, 0.0, 0.0, 2.0, 2.0, 9.0];
    let order = DensityOrder::new(&rho);
    assert_eq!(delta_point_scan(&data, &order, 2), (1.0, Some(0)));
    let all: Vec<PointId> = (0..data.len()).collect();
    for (name, index) in engines(&data, TieBreak::SmallerIdDenser) {
        check(name, index.as_ref(), &rho, &all, "sqrt tie");
        let got = index.delta_targets(&Query::new(1.0), &rho, &[7]).unwrap();
        assert_eq!(got.deltas[0].1, None, "{name}: the peak has no µ");
    }
}

#[test]
fn delta_targets_reject_bad_arguments() {
    let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 0.0)]);
    let rho: Vec<Rho> = vec![1.0, 0.0];
    for (name, index) in engines(&data, TieBreak::SmallerIdDenser) {
        let q = Query::new(1.0);
        assert!(index.delta_targets(&q, &rho, &[2]).is_err(), "{name}");
        assert!(index.delta_targets(&q, &rho[..1], &[0]).is_err(), "{name}");
        assert!(
            index.delta_targets(&Query::new(0.0), &rho, &[0]).is_err(),
            "{name}"
        );
        let none = index.delta_targets(&q, &rho, &[]).unwrap();
        assert!(none.deltas.is_empty() && none.dist_evals == 0, "{name}");
    }
}
