//! The correctness anchor of the streaming engine: after **every** prefix of
//! a random insert/delete sequence, the incremental state `(ρ, δ, µ, labels,
//! centres)` must be **bit-identical** to a cold batch run (fresh index of
//! the same kind + full pipeline) over the surviving points — for every
//! [`UpdatableIndex`] implementation, at threads 1 and 4, on the
//! incremental path and on both full-query fallbacks (δ alone, and ρ with δ).
//!
//! ## The generic harness
//!
//! [`check_equivalence`] replays one operation sequence against one index
//! family; the [`for_each_updatable_index!`] macro instantiates a check for
//! every family in the registry, so adding an index to the whole suite is
//! one line in the macro. Besides the state comparison, the harness asserts
//! after every single step that
//!
//! * the index's own structural invariants hold
//!   ([`UpdatableIndex::check_invariants`] — bbox containment, subtree
//!   counts, id bookkeeping), so a rebuild bug fails loudly at the step that
//!   corrupted the structure rather than as a distant label diff, and
//! * the index's ε-query agrees with a brute-force scan of its dataset at
//!   the mutated location — a deleted point that a tombstone keeps visible
//!   (or a live point a stale box hides) fails here immediately.
//!
//! Random points come from a coarse integer lattice
//! ([`dpc_datasets::testsupport::lattice_point`]) so that coincident points
//! and exact ρ/δ/γ ties — the cases where only a consistent tie-break rule
//! keeps incremental and batch in agreement — occur constantly rather than
//! never. The adversarial scenarios (deletion-heavy, drift-heavy) instead
//! draw from the shared clustered/skewed distributions and additionally
//! assert that the trees' amortised rebuild triggers actually fire
//! ([`UpdatableIndex::maintenance_counters`]).

use dpc_baseline::LeanDpc;
use dpc_core::index::eps_neighbors_scan;
use dpc_core::naive_reference::NaiveReferenceIndex;
use dpc_core::{CenterSelection, Dataset, DpcIndex, DpcParams, DpcPipeline, Point, UpdatableIndex};
use dpc_datasets::rng::SplitMix64;
use dpc_datasets::testsupport::{lattice_point, test_points, TestDistribution};
use dpc_stream::{EpochMode, StreamParams, StreamingDpc};
use dpc_tree_index::{GridConfig, GridIndex, KdTree, KdTreeConfig, RTree, RTreeConfig};
use proptest::prelude::*;

/// One streamed operation. `insert` chooses between inserting `point` and
/// evicting the live handle selected by `sel` (an eviction on an empty
/// window becomes the insert, so every prefix is executable).
#[derive(Debug, Clone, Copy)]
struct Op {
    insert: bool,
    point: Point,
    sel: u64,
}

/// The raw proptest encoding of an [`Op`] on the coarse lattice.
type RawOp = (bool, u32, u32, u64);

fn lattice_ops(raw: &[RawOp]) -> Vec<Op> {
    raw.iter()
        .map(|&(insert, ix, iy, sel)| Op {
            insert,
            point: lattice_point(ix, iy),
            sel,
        })
        .collect()
}

fn lattice_seed(seed: &[(u32, u32)]) -> Vec<Point> {
    seed.iter().map(|&(x, y)| lattice_point(x, y)).collect()
}

fn seed_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..10, 0u32..10), 0..16)
}

fn ops_strategy() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((any::<bool>(), 0u32..10, 0u32..10, 0u64..10_000), 1..18)
}

/// Small-node builders for the tree indexes: the lattice windows hold a few
/// dozen points, and a default 32-entry node would degenerate to a single
/// leaf — these configs make the suite exercise real tree structure
/// (splits, reinsertions, rebuilds) at window sizes the batch replay can
/// afford.
fn kd_build(data: &Dataset) -> KdTree {
    KdTree::with_config(
        data,
        &KdTreeConfig {
            leaf_capacity: 3,
            ..Default::default()
        },
    )
}

fn rt_build(data: &Dataset) -> RTree {
    RTree::with_config(
        data,
        &RTreeConfig {
            node_capacity: 3,
            ..Default::default()
        },
    )
}

/// Drift-sensitive grid builder: a one-point cell target and a low
/// re-bucket skew threshold, so the few consecutive drift points that land
/// in the same frozen cell already count as pathological occupancy. This is
/// the regression gate for the frozen-geometry bug where the streaming grid
/// kept its build-time origin and cell size forever and degenerated to
/// scans as the window drifted.
fn grid_drift_build(data: &Dataset) -> GridIndex {
    GridIndex::with_config(
        data,
        &GridConfig {
            target_points_per_cell: 1,
            rebucket_skew: 2.0,
            ..Default::default()
        },
    )
}

/// Instantiates `$body` once per updatable index family, with `$name` bound
/// to the family's label and `$build` to its `fn(&Dataset) -> impl
/// UpdatableIndex` builder. **Adding an index to the entire equivalence
/// suite is one line here.**
macro_rules! for_each_updatable_index {
    (|$name:ident, $build:ident| $body:expr) => {{
        {
            let $name = "naive";
            let $build = NaiveReferenceIndex::build;
            $body
        }
        {
            let $name = "lean";
            let $build = LeanDpc::build;
            $body
        }
        {
            let $name = "grid";
            let $build = GridIndex::build;
            $body
        }
        {
            let $name = "kdtree";
            let $build = kd_build;
            $body
        }
        {
            let $name = "rtree";
            let $build = rt_build;
            $body
        }
    }};
}

/// Replays `ops` through a [`StreamingDpc`] over `build`'s index kind and
/// checks, after every single step: structural invariants, ε-query vs
/// brute-force scan at the mutated location, and bit-identity of the whole
/// engine state against a cold batch run. Returns the final index's
/// maintenance counters so scenario tests can assert rebuild triggers fired.
fn check_equivalence<I, F>(
    label: &str,
    build: F,
    dc: f64,
    seed_points: &[Point],
    ops: &[Op],
    threads: usize,
    max_affected_fraction: f64,
) -> Result<Vec<(&'static str, u64)>, TestCaseError>
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_threads(threads);
    let params = StreamParams::new(dc)
        .with_dpc(dpc.clone())
        .with_max_affected_fraction(max_affected_fraction);
    let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params)
        .map_err(|e| TestCaseError::fail(format!("[{label}] seeding failed: {e}")))?;

    for (step, op) in ops.iter().enumerate() {
        // The mutated location: where the insert lands, or where the evicted
        // point lived. The ε-query must agree with a brute-force scan there
        // after the update — the spot a tombstone or stale box would corrupt.
        let location;
        if op.insert || engine.is_empty() {
            location = op.point;
            engine.insert(op.point).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: insert failed: {e}"))
            })?;
        } else {
            let live: Vec<_> = engine.live_handles().collect();
            let victim = live[op.sel as usize % live.len()];
            location = engine.point_of(victim).expect("live handle has a point");
            engine.remove(victim).map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: remove failed: {e}"))
            })?;
        }

        engine.index().check_invariants();
        let scan = eps_neighbors_scan(engine.index().dataset(), location, dc)
            .expect("scan accepts a valid dc");
        let indexed = engine.index().eps_neighbors(location, dc).map_err(|e| {
            TestCaseError::fail(format!("[{label}] step {step}: eps query failed: {e}"))
        })?;
        prop_assert_eq!(
            indexed,
            scan,
            "[{}] eps-query diverged from the scan at step {}",
            label,
            step
        );

        if engine.is_empty() {
            prop_assert_eq!(engine.clustering().num_clusters(), 0);
            continue;
        }
        let batch_index = build(engine.index().dataset());
        let run = DpcPipeline::new(dpc.clone())
            .run(&batch_index)
            .map_err(|e| {
                TestCaseError::fail(format!("[{label}] step {step}: batch run failed: {e}"))
            })?;
        prop_assert_eq!(
            engine.rho(),
            &run.rho[..],
            "[{}] rho diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            &engine.deltas().delta,
            &run.deltas.delta,
            "[{}] delta diverged at step {} (must be bit-identical)",
            label,
            step
        );
        prop_assert_eq!(
            &engine.deltas().mu,
            &run.deltas.mu,
            "[{}] mu diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            engine.clustering().centers(),
            run.clustering.centers(),
            "[{}] centres diverged at step {}",
            label,
            step
        );
        prop_assert_eq!(
            engine.clustering().labels(),
            run.clustering.labels(),
            "[{}] labels diverged at step {}",
            label,
            step
        );
    }
    Ok(engine.index().maintenance_counters())
}

/// Sliding-window `advance` (batched eviction + insertion in one epoch) for
/// one index family. After **every epoch** the batched engine must be
/// bit-identical to two independent oracles:
///
/// * a **per-update replay** — a second engine applying the same evictions
///   and insertions one `remove`/`insert` epoch at a time (the pre-batching
///   maintenance path), and
/// * a **cold batch run** — a fresh index of the same kind + the full
///   pipeline over the surviving points.
///
/// Only the batched engine runs at fallback threshold
/// `max_affected_fraction`; the replay oracle always keeps the default, so
/// a forced or disabled fallback is checked against independent maintenance.
fn check_advance<I, F>(
    label: &str,
    build: F,
    seed_points: &[Point],
    ops: &[Op],
    batch_size: usize,
    max_affected_fraction: f64,
    threads: usize,
) -> Result<(), TestCaseError>
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let dc = 0.8;
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_threads(threads);
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut batched = StreamingDpc::new(
        build(&Dataset::new(seed_points.to_vec())),
        params
            .clone()
            .with_max_affected_fraction(max_affected_fraction),
    )
    .map_err(|e| TestCaseError::fail(format!("[{label}] seeding failed: {e}")))?;
    let mut replay = StreamingDpc::new(build(&Dataset::new(seed_points.to_vec())), params)
        .map_err(|e| TestCaseError::fail(format!("[{label}] replay seeding failed: {e}")))?;

    for (chunk_idx, chunk) in ops.chunks(batch_size).enumerate() {
        let batch: Vec<Point> = chunk.iter().map(|op| op.point).collect();
        // Evict as many as we insert once the window is warm.
        let evict = if batched.len() > 8 { batch.len() } else { 0 };
        let (handles, _) = batched
            .advance(&batch, evict)
            .map_err(|e| TestCaseError::fail(format!("[{label}] advance failed: {e}")))?;
        prop_assert_eq!(handles.len(), batch.len());
        batched.index().check_invariants();

        // Oracle 1: per-update replay of the identical epoch — evictions
        // first (oldest each time, like `advance`), then the insertions.
        for _ in 0..evict.min(replay.len()) {
            let oldest = replay.oldest().expect("replay window is non-empty");
            replay.remove(oldest).map_err(|e| {
                TestCaseError::fail(format!("[{label}] per-update remove failed: {e}"))
            })?;
        }
        for &p in &batch {
            replay.insert(p).map_err(|e| {
                TestCaseError::fail(format!("[{label}] per-update insert failed: {e}"))
            })?;
        }
        prop_assert_eq!(
            batched.rho(),
            replay.rho(),
            "[{}] batched rho diverged from per-update replay @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(
            &batched.deltas().delta,
            &replay.deltas().delta,
            "[{}] batched delta diverged from per-update replay @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(&batched.deltas().mu, &replay.deltas().mu);
        prop_assert_eq!(
            batched.clustering().centers(),
            replay.clustering().centers()
        );
        prop_assert_eq!(batched.clustering().labels(), replay.clustering().labels());

        // Oracle 2: cold batch run over the surviving points.
        let batch_index = build(batched.index().dataset());
        let run = DpcPipeline::new(dpc.clone())
            .run(&batch_index)
            .map_err(|e| TestCaseError::fail(format!("[{label}] batch run failed: {e}")))?;
        prop_assert_eq!(
            batched.rho(),
            &run.rho[..],
            "[{}] rho @ chunk {}",
            label,
            chunk_idx
        );
        prop_assert_eq!(&batched.deltas().delta, &run.deltas.delta);
        prop_assert_eq!(&batched.deltas().mu, &run.deltas.mu);
        prop_assert_eq!(batched.clustering().labels(), run.clustering.labels());
    }
    Ok(())
}

/// Looks up a maintenance counter by name (0 when the index does not report
/// it).
fn counter(counters: &[(&'static str, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, v)| v)
        .unwrap_or(0)
}

/// Deletion-heavy adversarial sequence: delete 90% of a clustered window,
/// then refill it. This is the workload that accumulates tombstone
/// structure — the k-d tree's dead-fraction full rebuild and the R-tree's
/// underflow dissolution must both fire.
fn deletion_heavy_ops(n: usize, seed: u64) -> (Vec<Point>, Vec<Op>) {
    let seed_points = test_points(TestDistribution::Clustered, n, seed);
    let mut rng = SplitMix64::new(seed ^ 0x00DE_1E7E);
    let mut ops = Vec::new();
    for _ in 0..(n * 9 / 10) {
        ops.push(Op {
            insert: false,
            point: lattice_point(0, 0), // unused fallback for an empty window
            sel: rng.next_u64(),
        });
    }
    for p in test_points(TestDistribution::Clustered, n / 2, seed ^ 0xF111) {
        ops.push(Op {
            insert: true,
            point: p,
            sel: 0,
        });
    }
    (seed_points, ops)
}

/// Drift-heavy adversarial sequence: a sliding window whose points
/// random-walk away from the seed bounding box — every insert lands farther
/// out while the oldest point expires. One-sided growth is the worst case
/// for a frozen split structure (k-d scapegoat rebuilds) and keeps the
/// R-tree shedding emptied nodes behind the moving window.
fn drift_heavy_ops(n: usize, steps: usize, seed: u64) -> (Vec<Point>, Vec<Op>) {
    let seed_points = test_points(TestDistribution::Clustered, n, seed);
    let mut rng = SplitMix64::new(seed ^ 0x000D_21F7);
    let bb = Dataset::new(seed_points.clone()).bounding_box();
    let (mut x, mut y) = (bb.max_x(), bb.max_y());
    let step = (bb.width() + bb.height()).max(1.0) * 0.05;
    let mut ops = Vec::new();
    for _ in 0..steps {
        // Biased random walk: strictly outward on average.
        x += rng.uniform(0.2, 1.0) * step;
        y += rng.uniform(-0.5, 1.0) * step;
        ops.push(Op {
            insert: true,
            point: Point::new(x, y),
            sel: 0,
        });
        // Evict the oldest live point (sel 0 picks the smallest handle).
        ops.push(Op {
            insert: false,
            point: lattice_point(0, 0),
            sel: 0,
        });
    }
    (seed_points, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental path (default fallback threshold), sequential and 4-way
    /// parallel, for all five updatable index kinds.
    #[test]
    fn incremental_matches_batch_for_every_index_and_thread_count(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for &threads in &[1usize, 4] {
            for_each_updatable_index!(|name, build| {
                check_equivalence(name, build, 0.8, &seed_points, &ops, threads, 0.25)?;
            });
        }
    }

    /// The fallback threshold must not change results, only work: with the
    /// fallback forced on every update (fraction 0) and fully disabled
    /// (fraction 1) the state must be identical to batch all the same.
    #[test]
    fn fallback_extremes_match_batch(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for_each_updatable_index!(|name, build| {
            check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 0.0)?;
            check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 1.0)?;
        });
    }

    /// Sliding-window `advance` (batched eviction + insertion in one epoch)
    /// lands on state bit-identical to both a per-update replay and a cold
    /// batch run at every epoch, for every index, at the documented batch
    /// sizes {1, 7, 64} (1 = per-update epochs, 7 = several epochs per
    /// sequence, 64 = the whole sequence as one epoch).
    #[test]
    fn advance_matches_per_update_replay_and_batch(
        seed in seed_strategy(),
        ops in ops_strategy()
    ) {
        let seed_points = lattice_seed(&seed);
        let ops = lattice_ops(&ops);
        for &batch_size in &[1usize, 7, 64] {
            for_each_updatable_index!(|name, build| {
                check_advance(
                    name,
                    build,
                    &seed_points,
                    &ops,
                    batch_size,
                    DEFAULT_FRACTION,
                    4,
                )?;
            });
        }
    }

    /// Deletion-heavy adversarial scenario: delete 90% of the window, then
    /// refill. Equivalence holds at every step, no tombstone is visible to
    /// the ε-query (both asserted inside the harness), and the trees'
    /// amortised maintenance actually fires: the k-d tree's dead-fraction
    /// full rebuild and the R-tree's underflow dissolution.
    #[test]
    fn deletion_heavy_stresses_rebuild_triggers(seed in any::<u64>()) {
        let (seed_points, ops) = deletion_heavy_ops(60, seed);
        let kd = check_equivalence("kdtree", kd_build, 40.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&kd, "full_rebuilds") >= 1,
            "k-d dead-fraction rebuild never fired: {:?}", kd
        );
        let rt = check_equivalence("rtree", rt_build, 40.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&rt, "nodes_dissolved") >= 1,
            "R-tree underflow dissolution never fired: {:?}", rt
        );
    }

    /// Drift-heavy adversarial scenario: the window random-walks away from
    /// the seed bounding box. Equivalence and invariants hold at every step
    /// while the k-d tree rebuilds its drifting flank and the R-tree keeps
    /// dissolving the nodes the window left behind (bbox shrinking is
    /// asserted per-step by `check_invariants`: every entry inside its
    /// node's box, counts exact).
    #[test]
    fn drift_heavy_stresses_rebalancing(seed in any::<u64>()) {
        let (seed_points, ops) = drift_heavy_ops(40, 40, seed);
        let kd = check_equivalence("kdtree", kd_build, 60.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&kd, "subtree_rebuilds") + counter(&kd, "full_rebuilds") >= 1,
            "k-d never rebuilt under drift: {:?}", kd
        );
        let rt = check_equivalence("rtree", rt_build, 60.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&rt, "nodes_dissolved") >= 1,
            "R-tree never dissolved a node under drift: {:?}", rt
        );
        // The grid must re-anchor its origin/cell size as the window walks
        // away from the seed bounding box — and stay bit-identical to the
        // cold batch at every step while doing so (check_equivalence asserts
        // that per step; this gate asserts the re-anchor actually fired).
        let grid = check_equivalence("grid", grid_drift_build, 60.0, &seed_points, &ops, 1, 0.25)?;
        prop_assert!(
            counter(&grid, "rebuckets") >= 1,
            "grid never re-bucketed under drift: {:?}", grid
        );
    }

    /// The stable handle ↔ dense id mapping stays consistent through any
    /// operation sequence: every live handle resolves to a dense id that
    /// resolves back, and coordinates follow the handle, not the id.
    #[test]
    fn handles_stay_consistent(seed in seed_strategy(), ops in ops_strategy()) {
        let seed_points = lattice_seed(&seed);
        let mut engine = StreamingDpc::new(
            NaiveReferenceIndex::build(&Dataset::new(seed_points)),
            StreamParams::new(0.8),
        )
        .map_err(|e| TestCaseError::fail(format!("seeding failed: {e}")))?;
        let mut expected: Vec<(dpc_stream::Handle, Point)> = engine
            .live_handles()
            .map(|h| (h, engine.point_of(h).unwrap()))
            .collect();

        for op in lattice_ops(&ops) {
            if op.insert || engine.is_empty() {
                let (h, _) = engine
                    .insert(op.point)
                    .map_err(|e| TestCaseError::fail(format!("insert failed: {e}")))?;
                expected.push((h, op.point));
            } else {
                let live: Vec<_> = engine.live_handles().collect();
                let victim = live[op.sel as usize % live.len()];
                engine
                    .remove(victim)
                    .map_err(|e| TestCaseError::fail(format!("remove failed: {e}")))?;
                expected.retain(|&(h, _)| h != victim);
            }
            prop_assert_eq!(engine.len(), expected.len());
            for &(h, p) in &expected {
                let dense = engine.dense_of(h);
                prop_assert!(dense.is_some(), "live handle {} lost its id", h);
                prop_assert_eq!(engine.point_of(h), Some(p), "handle {} moved", h);
                prop_assert_eq!(engine.handle_at(dense.unwrap()), h);
            }
        }
    }
}

/// Asserts one engine's maintained state is bit-identical to a cold batch
/// run (fresh index of the same kind + full pipeline) over its dataset.
fn assert_cold_batch<I, F>(label: &str, build: &F, engine: &StreamingDpc<I>, dpc: &DpcParams)
where
    I: UpdatableIndex,
    F: Fn(&Dataset) -> I,
{
    let run = DpcPipeline::new(dpc.clone())
        .run(&build(engine.index().dataset()))
        .expect("cold batch run must succeed");
    assert_eq!(engine.rho(), &run.rho[..], "[{label}] rho");
    assert_eq!(&engine.deltas().delta, &run.deltas.delta, "[{label}] delta");
    assert_eq!(&engine.deltas().mu, &run.deltas.mu, "[{label}] mu");
    assert_eq!(
        engine.clustering().centers(),
        run.clustering.centers(),
        "[{label}] centres"
    );
    assert_eq!(
        engine.clustering().labels(),
        run.clustering.labels(),
        "[{label}] labels"
    );
}

/// Large epochs: a 150-op clustered workload at batch 64 (several dozen
/// mutations per epoch) for every engine, checked against the per-update
/// replay and the cold batch run at every epoch. The proptest above covers
/// the same batch sizes on short sequences; this pins genuinely large
/// epochs, where the union/invalidation machinery and the trees' deferred
/// triggers actually amortise.
#[test]
fn large_epochs_match_per_update_replay_across_engines() {
    let seed_points = test_points(TestDistribution::Clustered, 40, 99);
    let mut rng = SplitMix64::new(77);
    let extra = test_points(TestDistribution::Clustered, 150, 100);
    let ops: Vec<Op> = extra
        .into_iter()
        .map(|p| Op {
            insert: true,
            point: p,
            sel: rng.next_u64(),
        })
        .collect();
    for_each_updatable_index!(|name, build| {
        check_advance(name, build, &seed_points, &ops, 64, DEFAULT_FRACTION, 4).unwrap();
    });
}

/// Every fallback threshold must land on state bit-identical to both
/// oracles (per-update replay at the default threshold and cold batch run)
/// at every epoch, for every engine, at batch sizes {1, 7, 64} and threads
/// {1, 4}: the default, 0 (every epoch recomputes ρ and δ with the batch
/// queries) and 1 (no fallback at all).
#[test]
fn fallback_thresholds_match_oracles_across_engines() {
    let seed_points = test_points(TestDistribution::Clustered, 40, 99);
    let mut rng = SplitMix64::new(78);
    let extra = test_points(TestDistribution::Clustered, 150, 101);
    let ops: Vec<Op> = extra
        .into_iter()
        .map(|p| Op {
            insert: true,
            point: p,
            sel: rng.next_u64(),
        })
        .collect();
    for &fraction in &[DEFAULT_FRACTION, 0.0, 1.0] {
        for &threads in &[1usize, 4] {
            for &batch in &[1usize, 7, 64] {
                for_each_updatable_index!(|name, build| {
                    check_advance(name, build, &seed_points, &ops, batch, fraction, threads)
                        .unwrap();
                });
            }
        }
    }
}

/// One stream that visits every commit mode: a batch-1 epoch far from the
/// dense blob repairs incrementally, a batch-1 epoch inside the blob
/// invalidates the whole blob (more than the threshold of the window) with
/// one ε-query and recomputes δ alone, and a sliding batch whose ε-queries
/// pass the threshold recomputes ρ and δ with the batch queries. After every
/// epoch the mode is asserted and ρ/δ/µ/labels must equal a cold batch run,
/// for all five engines.
#[test]
fn every_commit_mode_matches_batch_at_every_epoch() {
    let dpc = DpcParams::new(1.0).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    for_each_updatable_index!(|name, build| {
        let mut engine = StreamingDpc::new(
            build(&mode_tour_seed()),
            StreamParams::new(1.0).with_dpc(dpc.clone()),
        )
        .unwrap();
        for (epoch, (arrivals, evict, mode)) in mode_tour_epochs().into_iter().enumerate() {
            engine.advance(&arrivals, evict).unwrap();
            engine.index().check_invariants();
            assert_eq!(
                engine.stats().last_epoch_mode,
                Some(mode),
                "[{name}] epoch {epoch}"
            );
            assert_cold_batch(&format!("{name} epoch {epoch}"), &build, &engine, &dpc);
        }
        let stats = engine.stats();
        assert_eq!(
            (
                stats.incremental_epochs,
                stats.fallback_epochs,
                stats.rebuild_epochs
            ),
            (1, 1, 1),
            "[{name}]"
        );
    });
}

/// The threshold every test that does not sweep it runs at.
const DEFAULT_FRACTION: f64 = 0.25;

/// The seed window of the commit-mode tour (`dc` = 1): a blob of 12 points
/// all within `dc` of each other, then 28 isolated points 3 apart.
fn mode_tour_seed() -> Dataset {
    let blob = (0..12).map(|i| Point::new(0.1 * (i % 4) as f64, 0.1 * (i / 4) as f64));
    let sparse =
        (0..28).map(|i| Point::new(10.0 + 3.0 * (i % 7) as f64, 10.0 + 3.0 * (i / 7) as f64));
    Dataset::new(blob.chain(sparse).collect())
}

/// The epochs of the commit-mode tour: `(arrivals, evictions, mode)`.
fn mode_tour_epochs() -> Vec<(Vec<Point>, usize, EpochMode)> {
    vec![
        // Touches one isolated point: a handful of points to recompute.
        (vec![Point::new(10.2, 10.0)], 0, EpochMode::Incremental),
        // One ε-query, but every blob point's ρ changes: |F| ≥ 13 > 10.25.
        (vec![Point::new(0.15, 0.15)], 0, EpochMode::Fallback),
        // Six evictions and six arrivals: 12 ε-queries > 0.25 · 42.
        (
            (0..6)
                .map(|i| Point::new(40.0 + 0.5 * i as f64, 40.0))
                .collect(),
            6,
            EpochMode::Full,
        ),
    ]
}

/// Epoch edge case: a batch that deletes the current global peak (whose δ is
/// the max-distance sentinel and whose removal re-anchors every point's
/// candidate peak) together with further mutations, for every engine.
#[test]
fn batch_deleting_the_global_peak_matches_batch() {
    let dc = 60.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    for_each_updatable_index!(|name, build| {
        let seed = Dataset::new(test_points(TestDistribution::Clustered, 30, 5));
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
        let peak =
            dpc_core::DensityOrder::with_tie_break(engine.rho(), engine.params().dpc.tie_break)
                .global_peak()
                .expect("non-empty window has a peak");
        let peak_handle = engine.handle_at(peak);

        let mut plan = dpc_stream::EpochPlan::new();
        plan.remove(peak_handle);
        for p in test_points(TestDistribution::Clustered, 3, 6) {
            plan.insert(p);
        }
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(handles.len(), 3, "[{name}]");
        assert_eq!(delta.evictions(), 1, "[{name}]");
        assert_eq!(engine.dense_of(peak_handle), None, "[{name}]");
        engine.index().check_invariants();
        assert_cold_batch(name, &build, &engine, &dpc);
    });
}

/// Epoch edge case: points inserted and expired within the same batch
/// (ephemeral points) interleaved with surviving mutations, for every
/// engine. The committed state must be as if the ephemeral points never
/// existed — and bit-identical to the cold batch run.
#[test]
fn ephemeral_points_in_a_plan_match_batch() {
    let dc = 60.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    for_each_updatable_index!(|name, build| {
        let seed = Dataset::new(test_points(TestDistribution::Clustered, 20, 11));
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
        let oldest = engine.oldest().unwrap();

        let mut plan = dpc_stream::EpochPlan::new();
        let keep = plan.insert(test_points(TestDistribution::Clustered, 1, 12)[0]);
        let flash = plan.insert(test_points(TestDistribution::Skewed, 1, 13)[0]);
        plan.remove(oldest); // a real eviction between the ephemeral's ops
        plan.remove_planned(flash);
        let (handles, delta) = engine.commit(&plan).unwrap();

        assert_eq!(engine.len(), 20, "[{name}]"); // +2 -1 -1
        assert!(
            engine.dense_of(handles[keep.ordinal()]).is_some(),
            "[{name}]"
        );
        assert_eq!(delta.insertions(), 1, "[{name}]"); // the ephemeral is invisible
        assert_eq!(delta.evictions(), 1, "[{name}]");
        engine.index().check_invariants();
        assert_cold_batch(name, &build, &engine, &dpc);
    });
}

/// Regression (caught in review): under `TieBreak::LargerIdDenser` a
/// swap-remove rename *lowers* the renamed point's tie rank, so a stored µ
/// can fall out of its dependent's denser set without any ρ change — the
/// µ scan must invalidate on the rename itself, not only on `visited[µ]`.
/// Replays tie-heavy lattice sequences (per-update and batched) under the
/// non-default tie-break and demands cold-batch bit-identity every epoch.
#[test]
fn larger_id_denser_tie_break_matches_batch() {
    let dc = 0.8;
    let dpc = DpcParams::new(dc)
        .with_centers(CenterSelection::GammaGap { max_centers: 8 })
        .with_tie_break(dpc_core::TieBreak::LargerIdDenser);
    let build = |data: &Dataset| {
        NaiveReferenceIndex::build_with_tie_break(data, dpc_core::TieBreak::LargerIdDenser)
    };
    let mut rng = SplitMix64::new(4242);
    for trial in 0..20 {
        let seed_points: Vec<Point> = (0..12)
            .map(|_| lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32))
            .collect();
        let params = StreamParams::new(dc).with_dpc(dpc.clone());
        let mut engine = StreamingDpc::new(build(&Dataset::new(seed_points)), params).unwrap();
        for step in 0..25 {
            if rng.next_u64().is_multiple_of(2) && engine.len() > 2 {
                let live: Vec<_> = engine.live_handles().collect();
                let victim = live[(rng.next_u64() as usize) % live.len()];
                engine.remove(victim).unwrap();
            } else {
                let p = lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32);
                engine.insert(p).unwrap();
            }
            let run = DpcPipeline::new(dpc.clone())
                .run(&build(engine.index().dataset()))
                .unwrap();
            assert_eq!(engine.rho(), &run.rho[..], "trial {trial} step {step}: rho");
            assert_eq!(
                &engine.deltas().delta,
                &run.deltas.delta,
                "trial {trial} step {step}: delta"
            );
            assert_eq!(
                &engine.deltas().mu,
                &run.deltas.mu,
                "trial {trial} step {step}: mu"
            );
        }
        // One batched epoch over the same window kind, same oracle.
        let batch: Vec<Point> = (0..6)
            .map(|_| lattice_point((rng.next_u64() % 5) as u32, (rng.next_u64() % 5) as u32))
            .collect();
        engine.advance(&batch, 4).unwrap();
        assert_cold_batch("naive/larger-id", &build, &engine, &dpc);
    }
}

/// Regression: two denser neighbours whose squared distances from a point
/// differ by one ulp but whose correctly rounded roots are equal. The batch
/// δ-queries take the smaller id on the rounded tie; the streamed δ must do
/// the same, whether the point is recomputed from scratch (an insert), folds
/// the pair in as candidate entrants (a rank rise), or the epoch takes the
/// full-recompute fallback.
#[test]
fn square_root_ties_match_batch() {
    let dc = 0.5;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::TopKGamma { k: 1 });
    // From the origin, 1 + 2⁻⁵² and 1 share the root 1.0.
    let tiny = 2f64.powi(-26);
    for fraction in [0.0, 1.0] {
        for_each_updatable_index!(|name, build| {
            let label = format!("{name}, max_affected_fraction {fraction}");
            let params = StreamParams::new(dc)
                .with_dpc(dpc.clone())
                .with_max_affected_fraction(fraction);

            // The inserted point's δ is computed from scratch.
            let seed = Dataset::from_coords(vec![(1.0, tiny), (1.0, 0.0)]);
            let mut engine = StreamingDpc::new(build(&seed), params.clone()).unwrap();
            engine.insert(Point::new(0.0, 0.0)).unwrap();
            assert_eq!(
                engine.deltas().mu,
                vec![None, Some(0), Some(0)],
                "[{label}]"
            );
            assert_cold_batch(&label, &build, &engine, &dpc);

            // Points 1 and 2 turn denser than point 0 when each gains a
            // neighbour; point 0 itself is untouched and folds them in.
            let seed = Dataset::from_coords(vec![
                (0.0, 0.0),
                (tiny, 1.0),
                (1.0, 0.0),
                (10.0, 10.0),
                (10.0, 10.1),
            ]);
            let mut engine = StreamingDpc::new(build(&seed), params).unwrap();
            assert_eq!(engine.deltas().mu[0], Some(3), "[{label}]");
            engine
                .advance(&[Point::new(0.0, 1.3), Point::new(1.3, 0.0)], 0)
                .unwrap();
            assert_eq!(engine.deltas().mu[0], Some(1), "[{label}]");
            assert_cold_batch(&label, &build, &engine, &dpc);
        });
    }
}

/// The trees' amortised triggers are *deferred* inside a batched epoch: the
/// R-tree's forced-reinsertion round is shared by the whole batch (at most
/// one per epoch — later overflows split), and the k-d tree settles its
/// scapegoat/dead-fraction violations in one end-of-batch sweep (which must
/// still fire under a workload that overflows its tiny leaves). An R-tree
/// batch of an eighth of the tree or more repacks it instead.
#[test]
fn deferred_triggers_fire_once_per_epoch() {
    let dc = 120.0;
    let dpc = DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 8 });
    let arrivals = test_points(TestDistribution::Clustered, 60, 21);

    let seed = Dataset::new(test_points(TestDistribution::Clustered, 10, 20));
    let params = StreamParams::new(dc).with_dpc(dpc.clone());
    let mut kd_engine = StreamingDpc::new(kd_build(&seed), params.clone()).unwrap();
    kd_engine.advance(&arrivals, 0).unwrap();
    kd_engine.index().check_invariants();
    let kd = kd_engine.index().maintenance_counters();
    assert!(
        counter(&kd, "subtree_rebuilds") + counter(&kd, "full_rebuilds") >= 1,
        "k-d deferred sweep never rebuilt after a 60-insert epoch: {kd:?}"
    );
    assert_cold_batch("kdtree", &kd_build, &kd_engine, &dpc);

    // 60 inserts into 600 points stay below an eighth: one descent per op.
    let rt_seed = Dataset::new(test_points(TestDistribution::Clustered, 600, 20));
    let mut rt_engine = StreamingDpc::new(rt_build(&rt_seed), params).unwrap();
    rt_engine.advance(&arrivals, 0).unwrap();
    rt_engine.index().check_invariants();
    let rt = rt_engine.index().maintenance_counters();
    assert!(
        counter(&rt, "forced_reinserts") <= 1,
        "R-tree spent more than one reinsertion round in a single epoch: {rt:?}"
    );
    assert!(
        counter(&rt, "node_splits") >= 1,
        "60 inserts into 3-entry nodes must split: {rt:?}"
    );
    assert_eq!(counter(&rt, "repacks"), 0, "{rt:?}");
    assert_cold_batch("rtree", &rt_build, &rt_engine, &dpc);
    // 90 more inserts into 660 points pass an eighth: one repack.
    let more = test_points(TestDistribution::Clustered, 90, 22);
    rt_engine.advance(&more, 0).unwrap();
    rt_engine.index().check_invariants();
    let rt = rt_engine.index().maintenance_counters();
    assert_eq!(counter(&rt, "repacks"), 1, "{rt:?}");
    assert_cold_batch("rtree", &rt_build, &rt_engine, &dpc);
}

/// Emits one wall-clock line per engine for a fixed replay. CI runs this
/// test with `--nocapture` and uploads the lines as a job artifact, so a
/// slow regression in any engine's maintenance path is visible in the PR
/// (the equivalence checks above assert correctness, this pins cost).
#[test]
fn per_engine_timing_summary() {
    let mut rng = SplitMix64::new(2024);
    let seed_points: Vec<Point> = (0..24)
        .map(|_| lattice_point((rng.next_u64() % 10) as u32, (rng.next_u64() % 10) as u32))
        .collect();
    let ops: Vec<Op> = (0..120)
        .map(|_| Op {
            insert: rng.next_u64().is_multiple_of(2),
            point: lattice_point((rng.next_u64() % 10) as u32, (rng.next_u64() % 10) as u32),
            sel: rng.next_u64(),
        })
        .collect();
    for_each_updatable_index!(|name, build| {
        let start = std::time::Instant::now();
        check_equivalence(name, build, 0.8, &seed_points, &ops, 1, 0.25).unwrap();
        println!(
            "timing engine={name} steps={} elapsed_ms={:.1}",
            ops.len(),
            start.elapsed().as_secs_f64() * 1e3
        );
    });
}
