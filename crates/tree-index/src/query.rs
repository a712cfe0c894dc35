//! The generic ρ- and δ-query algorithms shared by all tree indices.
//!
//! These are Algorithms 5 and 6 of the paper, written once against
//! [`SpatialPartition`]:
//!
//! * **ρ-query** (Algorithm 5): depth-first traversal that classifies every
//!   node against the query circle `(p, dc)` — *fully contained* nodes
//!   contribute their point count `nc` wholesale, *discarded* nodes
//!   contribute nothing, and only *intersecting* nodes are descended into
//!   (Observation 1). The traversal is sqrt-free: every comparison is made
//!   between squared distances and a precomputed `dc²` (see the safety
//!   discussion in [`dpc_core::metric`]).
//! * **δ-query** (Algorithm 6): best-first search over nodes ordered by
//!   `dmin(p, node)`, with **density pruning** (Lemma 1: a node whose
//!   `maxrho` is below `ρ(p)` cannot contain the dependent neighbour) and
//!   **distance pruning** (Lemma 2: a node farther than the best candidate δ
//!   cannot improve it). The δ path deliberately keeps *true* metric
//!   distances — Lemma 2 and everything downstream of δ combine distances
//!   additively, which squared distances (no triangle inequality) do not
//!   support.
//!
//! Both queries run per point with no data dependency between points, so
//! they parallelise over the chunked engine of [`dpc_core::exec`]: under an
//! [`ExecPolicy`] each worker thread gets its own [`QueryScratch`] — a
//! reusable node stack, best-first heap and [`QueryStats`] — merged
//! deterministically after the join. Results are bit-identical at every
//! thread count.
//!
//! There is one whole-dataset function per query shape —
//! [`rho_query_recorded`], [`weighted_rho_query_recorded`] and
//! [`delta_query_recorded`] — each returning its [`QueryStats`] and
//! reporting per-worker chunk spans and the statistics to a recorder (pass
//! [`dpc_obs::NoopRecorder`] for none). Every tree index's [`DpcIndex`]
//! queries wrap them, so a [`dpc_core::Query`]'s recorder receives the
//! traversal statistics and chunk spans.
//!
//! Both pruning rules can be disabled individually through
//! [`DeltaQueryConfig`] — that is what the pruning-ablation benchmark
//! measures.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dpc_core::index::{validate_dc, validate_rho_len};
use dpc_core::{
    exec, sq_prefilter_bound, Dataset, DeltaResult, DensityOrder, DpcIndex, ExecPolicy, Kernel,
    Point, PointId, Query, Result, Rho,
};

use crate::common::{NodeId, SpatialPartition};

/// Counters describing how much work a query did. Used by the ablation
/// benchmarks and by tests asserting that pruning actually prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes popped/descended into.
    pub nodes_visited: u64,
    /// Nodes skipped because they lie entirely outside the query circle
    /// (ρ-query only).
    pub nodes_discarded: u64,
    /// Nodes counted wholesale because they lie entirely inside the query
    /// circle (ρ-query only).
    pub nodes_fully_contained: u64,
    /// Nodes skipped by density pruning (δ-query only).
    pub nodes_density_pruned: u64,
    /// Nodes skipped by distance pruning (δ-query only).
    pub nodes_distance_pruned: u64,
    /// Individual points compared against the query point.
    pub points_scanned: u64,
}

impl QueryStats {
    /// Adds another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.nodes_visited += other.nodes_visited;
        self.nodes_discarded += other.nodes_discarded;
        self.nodes_fully_contained += other.nodes_fully_contained;
        self.nodes_density_pruned += other.nodes_density_pruned;
        self.nodes_distance_pruned += other.nodes_distance_pruned;
        self.points_scanned += other.points_scanned;
    }

    /// Emits every counter into `rec` as `<prefix>.<counter>` metrics, so
    /// traversal statistics show up next to phase timings in a snapshot.
    ///
    /// Does nothing (and allocates nothing) when the recorder is disabled.
    pub fn publish(&self, rec: &dyn dpc_obs::Recorder, prefix: &str) {
        if !rec.enabled() {
            return;
        }
        rec.counter(&format!("{prefix}.nodes_visited"), self.nodes_visited);
        rec.counter(&format!("{prefix}.nodes_discarded"), self.nodes_discarded);
        rec.counter(
            &format!("{prefix}.nodes_fully_contained"),
            self.nodes_fully_contained,
        );
        rec.counter(
            &format!("{prefix}.nodes_density_pruned"),
            self.nodes_density_pruned,
        );
        rec.counter(
            &format!("{prefix}.nodes_distance_pruned"),
            self.nodes_distance_pruned,
        );
        rec.counter(&format!("{prefix}.points_scanned"), self.points_scanned);
    }
}

/// Per-worker reusable traversal state: the depth-first stack of the ρ-query,
/// the best-first heap of the δ-query, and the traversal counters.
///
/// One scratch lives per worker thread (or one for the whole query when
/// sequential) and is reused across every point of that worker's chunk, so
/// the per-point hot loops allocate nothing.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Counters accumulated over every query this scratch served.
    pub stats: QueryStats,
    stack: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(OrdF64, NodeId)>>,
    pairs: Vec<(PointId, f64)>,
}

impl QueryScratch {
    /// A fresh scratch with empty stack, heap and zeroed counters.
    pub fn new() -> Self {
        QueryScratch::default()
    }
}

/// Configuration of the δ-query; both pruning rules default to enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaQueryConfig {
    /// Lemma 1: skip subtrees whose maximum density is below the query
    /// point's density.
    pub density_pruning: bool,
    /// Lemma 2: skip subtrees whose minimum distance exceeds the best
    /// candidate δ found so far.
    pub distance_pruning: bool,
}

impl Default for DeltaQueryConfig {
    fn default() -> Self {
        DeltaQueryConfig {
            density_pruning: true,
            distance_pruning: true,
        }
    }
}

impl DeltaQueryConfig {
    /// Configuration with every pruning rule disabled (exhaustive best-first
    /// search); the ablation baseline.
    pub fn no_pruning() -> Self {
        DeltaQueryConfig {
            density_pruning: false,
            distance_pruning: false,
        }
    }
}

/// Computes the cut-off ρ of every point under an execution policy,
/// reporting one `query.rho.chunk` span per worker plus the aggregated
/// [`QueryStats`] counters under the `query.rho` prefix to `rec`.
///
/// The per-point queries are partitioned across worker threads, each with
/// its own [`QueryScratch`], and the per-worker statistics are merged in
/// chunk order after the join. Results are bit-identical at every thread
/// count and with or without a recorder.
pub fn rho_query_recorded<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    dc: f64,
    policy: ExecPolicy,
    rec: &dyn dpc_obs::Recorder,
) -> (Vec<Rho>, QueryStats) {
    let mut rho = vec![0 as Rho; dataset.len()];
    let scratches = exec::fill_slice_recorded(
        &mut rho,
        policy,
        rec,
        "query.rho.chunk",
        QueryScratch::new,
        |p, scratch| rho_one(tree, dataset, p, dc, scratch),
    );
    (rho, merged_stats(&scratches, rec, "query.rho"))
}

/// Merges the per-worker statistics in chunk order and publishes the total
/// under `prefix`.
fn merged_stats(
    scratches: &[QueryScratch],
    rec: &dyn dpc_obs::Recorder,
    prefix: &str,
) -> QueryStats {
    let mut stats = QueryStats::default();
    for s in scratches {
        stats.merge(&s.stats);
    }
    stats.publish(rec, prefix);
    stats
}

/// ρ of a single point: counts points strictly within `dc`, excluding the
/// point itself. Sqrt-free: all comparisons are against `dc²`.
pub fn rho_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    p: PointId,
    dc: f64,
    scratch: &mut QueryScratch,
) -> Rho {
    let Some(root) = tree.root() else { return 0.0 };
    let query = dataset.point(p);
    let pts = dataset.points();
    let dc2 = dc * dc;
    let stats = &mut scratch.stats;
    // Count all points (including p itself, which is trivially within dc of
    // itself) and subtract 1 at the end; this lets fully-contained nodes be
    // added wholesale without worrying about which node holds p.
    let mut count = 0usize;
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        let bbox = tree.bbox(node);
        if bbox.min_dist_squared(query) >= dc2 {
            stats.nodes_discarded += 1;
            continue;
        }
        if bbox.max_dist_squared(query) < dc2 {
            stats.nodes_fully_contained += 1;
            count += tree.point_count(node);
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                stats.points_scanned += 1;
                if pts[q as usize].distance_squared(&query) < dc2 {
                    count += 1;
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    // `count` includes p itself (distance 0 < dc always holds for dc > 0).
    (count.saturating_sub(1)) as Rho
}

/// Computes kernel-weighted ρ for every point under an execution policy —
/// the tree-accelerated weighted branch of every tree index's
/// [`DpcIndex::rho_query`] — reporting to `rec` like [`rho_query_recorded`].
///
/// Bit-identical to [`dpc_core::index::weighted_rho_scan`] at every thread
/// count: each point's mass is summed in ascending neighbour-id order with
/// the same `dx² + dy²` distance arithmetic, so the traversal only changes
/// *which* pairs are examined, never the value produced.
pub fn weighted_rho_query_recorded<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    dc: f64,
    kernel: Kernel,
    policy: ExecPolicy,
    rec: &dyn dpc_obs::Recorder,
) -> (Vec<Rho>, QueryStats) {
    let mut rho = vec![0.0 as Rho; dataset.len()];
    let scratches = exec::fill_slice_recorded(
        &mut rho,
        policy,
        rec,
        "query.rho.chunk",
        QueryScratch::new,
        |p, scratch| weighted_rho_one(tree, dataset, p, dc, kernel, scratch),
    );
    (rho, merged_stats(&scratches, rec, "query.rho"))
}

/// Kernel-weighted ρ of a single point: sums `w(d)` over all points strictly
/// within `dc`, excluding the point itself.
///
/// Unlike [`rho_one`] there is no fully-contained shortcut — every in-range
/// neighbour's distance feeds the kernel — so the traversal mirrors
/// [`eps_query`]: prune nodes entirely outside the circle (and nodes emptied
/// by deletions), scan surviving leaves. Collected `(id, d²)` pairs are
/// sorted by id and summed ascending, the canonical order of
/// [`dpc_core::index::weighted_rho_scan`], so the result is bit-identical to
/// the brute-force scan.
pub fn weighted_rho_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    p: PointId,
    dc: f64,
    kernel: Kernel,
    scratch: &mut QueryScratch,
) -> Rho {
    let Some(root) = tree.root() else { return 0.0 };
    let query = dataset.point(p);
    let pts = dataset.points();
    let dc2 = dc * dc;
    let stats = &mut scratch.stats;
    let pairs = &mut scratch.pairs;
    pairs.clear();
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        if tree.point_count(node) == 0 || tree.bbox(node).min_dist_squared(query) >= dc2 {
            stats.nodes_discarded += 1;
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                let q = q as PointId;
                if q == p {
                    continue;
                }
                stats.points_scanned += 1;
                let d2 = pts[q].distance_squared(&query);
                if d2 < dc2 {
                    pairs.push((q, d2));
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    pairs.sort_unstable_by_key(|&(q, _)| q);
    let mut mass = 0.0f64;
    for &(_, d2) in pairs.iter() {
        mass += kernel.weight_from_sq(d2);
    }
    mass
}

/// Ids of all points strictly within `eps` of `center`, ascending — the
/// ε-range query behind [`dpc_core::UpdatableIndex::eps_neighbors`], written
/// once against [`SpatialPartition`] so every tree index answers it through
/// its own structure.
///
/// The traversal mirrors the ρ-query's pruning (skip nodes entirely outside
/// the query circle, sqrt-free comparisons against `eps²`) but must visit
/// every surviving leaf to collect ids, so there is no fully-contained
/// shortcut. Nodes with a zero point count (emptied by deletions but not yet
/// compacted) are skipped outright, which is what keeps deleted points
/// invisible regardless of how conservative the node's stale bounding box is.
pub fn eps_query<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    center: Point,
    eps: f64,
) -> Vec<PointId> {
    let mut out = Vec::new();
    let Some(root) = tree.root() else {
        return out;
    };
    let pts = dataset.points();
    let eps2 = eps * eps;
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        if tree.point_count(node) == 0 || tree.bbox(node).min_dist_squared(center) >= eps2 {
            continue;
        }
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                if pts[q as usize].distance_squared(&center) < eps2 {
                    out.push(q as PointId);
                }
            }
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    out.sort_unstable();
    out
}

/// Computes, for every node, the maximum density of any point stored in its
/// subtree (the `maxrho` annotation of Lemma 1). Returned as a vector indexed
/// by [`NodeId`]; nodes with no points get 0.
pub fn subtree_max_density<T: SpatialPartition + ?Sized>(tree: &T, rho: &[Rho]) -> Vec<Rho> {
    let mut maxrho = vec![0 as Rho; tree.num_nodes()];
    let Some(root) = tree.root() else {
        return maxrho;
    };
    // Iterative post-order: process children before parents.
    let mut order: Vec<NodeId> = Vec::with_capacity(tree.num_nodes());
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        order.push(node);
        stack.extend_from_slice(tree.children(node));
    }
    for &node in order.iter().rev() {
        let mut best = 0 as Rho;
        for &q in tree.points(node) {
            best = best.max(rho[q as usize]);
        }
        for &c in tree.children(node) {
            best = best.max(maxrho[c]);
        }
        maxrho[node] = best;
    }
    maxrho
}

/// Computes δ and µ of every point under an execution policy, reporting
/// one `query.delta.chunk` span per worker plus the aggregated
/// [`QueryStats`] counters under the `query.delta` prefix to `rec`; see
/// [`rho_query_recorded`] for the parallel contract.
///
/// `maxrho` must come from [`subtree_max_density`] for the same `rho` the
/// `order` was built from.
pub fn delta_query_recorded<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    maxrho: &[Rho],
    config: &DeltaQueryConfig,
    policy: ExecPolicy,
    rec: &dyn dpc_obs::Recorder,
) -> (DeltaResult, QueryStats) {
    let n = dataset.len();
    debug_assert_eq!(order.len(), n);
    let mut result = DeltaResult::unset(n);
    let scratches = exec::fill_slice_pair_recorded(
        &mut result.delta,
        &mut result.mu,
        policy,
        rec,
        "query.delta.chunk",
        QueryScratch::new,
        |p, delta_slot, mu_slot, scratch| {
            (*delta_slot, *mu_slot) = delta_one(tree, dataset, order, maxrho, p, config, scratch);
        },
    );
    (result, merged_stats(&scratches, rec, "query.delta"))
}

/// A tree index's [`DpcIndex::rho_query`] with its traversal statistics:
/// the pruned cut-off traversal, or the weighted one for other kernels,
/// under `q.exec` and reporting to `q.rec`.
pub(crate) fn tree_rho_query<T: SpatialPartition + DpcIndex + Sync + ?Sized>(
    tree: &T,
    q: &Query<'_>,
) -> Result<(Vec<Rho>, QueryStats)> {
    validate_dc(q.dc)?;
    if q.kernel.is_cutoff() {
        return Ok(rho_query_recorded(
            tree,
            tree.dataset(),
            q.dc,
            q.exec,
            q.rec,
        ));
    }
    q.kernel.validate()?;
    Ok(weighted_rho_query_recorded(
        tree,
        tree.dataset(),
        q.dc,
        q.kernel,
        q.exec,
        q.rec,
    ))
}

/// A tree index's [`DpcIndex::delta_query`] under the pruning `config`,
/// with its traversal statistics: density order, `maxrho` annotation and
/// the best-first δ traversal under `q.exec`, reporting to `q.rec`.
pub(crate) fn tree_delta_query<T: SpatialPartition + DpcIndex + Sync + ?Sized>(
    tree: &T,
    q: &Query<'_>,
    rho: &[Rho],
    config: &DeltaQueryConfig,
) -> Result<(DeltaResult, QueryStats)> {
    validate_dc(q.dc)?;
    validate_rho_len(rho, tree.len())?;
    let order = DensityOrder::with_tie_break(rho, tree.tie_break());
    let maxrho = subtree_max_density(tree, rho);
    Ok(delta_query_recorded(
        tree,
        tree.dataset(),
        &order,
        &maxrho,
        config,
        q.exec,
        q.rec,
    ))
}

/// Ordered f64 wrapper so `BinaryHeap` can prioritise by `dmin`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// δ and µ of a single point — the best-first search of Algorithm 6.
///
/// All node comparisons and the final point comparison use *true* Euclidean
/// distances: the candidate δ is consumed by triangle-inequality-based
/// reasoning downstream, which squared distances cannot serve (see
/// [`dpc_core::metric`]). The leaf scan only *prefilters* on squared
/// distances ([`sq_prefilter_bound`]), so a point whose root could still tie
/// the candidate always reaches the `(distance, id)` comparison.
pub fn delta_one<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    maxrho: &[Rho],
    p: PointId,
    config: &DeltaQueryConfig,
    scratch: &mut QueryScratch,
) -> (f64, Option<PointId>) {
    let Some(root) = tree.root() else {
        return (0.0, None);
    };
    let query = dataset.point(p);
    let pts = dataset.points();
    let rho_p = order.rho()[p];
    let stats = &mut scratch.stats;

    let mut best_d = f64::INFINITY;
    let mut best_q: Option<PointId> = None;
    // Squared-distance prefilter for the leaf scan: a point with
    // `d2 > best_sq` has a root above `best_d`, so it can neither beat nor
    // tie the candidate and is skipped before the density test and the root.
    let mut best_sq = f64::INFINITY;

    // Min-heap on dmin: the node most likely to contain the dependent
    // neighbour is explored first, so the candidate δ shrinks quickly and
    // distance pruning bites early. The heap is per-worker scratch — cleared
    // (it may hold leftovers from an early-terminated previous query) but
    // never re-allocated.
    let heap = &mut scratch.heap;
    heap.clear();
    heap.push(Reverse((OrdF64(tree.bbox(root).min_dist(query)), root)));

    while let Some(Reverse((OrdF64(dmin), node))) = heap.pop() {
        if config.distance_pruning && dmin > best_d {
            // The heap is ordered by dmin, so every remaining node is at
            // least this far: nothing can improve the candidate any more.
            stats.nodes_distance_pruned += heap.len() as u64 + 1;
            break;
        }
        stats.nodes_visited += 1;
        if tree.is_leaf(node) {
            for &q in tree.points(node) {
                let q = q as PointId;
                stats.points_scanned += 1;
                let d2 = pts[q].distance_squared(&query);
                if d2 > best_sq || q == p || !order.is_denser(q, p) {
                    continue;
                }
                let d = d2.sqrt();
                // Lexicographic (distance, id) comparison keeps µ identical
                // to the list-based indices and the baseline when several
                // denser neighbours are equidistant.
                if d < best_d || (d == best_d && best_q.is_none_or(|b| q < b)) {
                    best_d = d;
                    best_q = Some(q);
                    best_sq = sq_prefilter_bound(d);
                }
            }
        } else {
            for &c in tree.children(node) {
                if config.density_pruning && maxrho[c] < rho_p {
                    stats.nodes_density_pruned += 1;
                    continue;
                }
                let child_dmin = tree.bbox(c).min_dist(query);
                if config.distance_pruning && child_dmin > best_d {
                    stats.nodes_distance_pruned += 1;
                    continue;
                }
                heap.push(Reverse((OrdF64(child_dmin), c)));
            }
        }
    }

    match best_q {
        Some(q) => (best_d, Some(q)),
        None => {
            // No denser point exists: p is the global peak. Its δ is the
            // maximum distance to any other point (original DPC convention).
            // Maximising the squared distance and taking one root at the end
            // gives exactly the same value (sqrt is monotone) without a root
            // per point.
            let max_sq = pts
                .iter()
                .map(|q| q.distance_squared(&query))
                .fold(0.0f64, f64::max);
            (max_sq.sqrt(), None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_partition_invariants;
    use crate::testutil::FlatPartition;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::DpcIndex;
    use dpc_datasets::generators::{query as query_dataset, s1};
    use dpc_obs::NoopRecorder;

    /// Sequential, unrecorded ρ-query over a bare partition.
    fn rho_seq(part: &FlatPartition, data: &Dataset, dc: f64) -> (Vec<Rho>, QueryStats) {
        rho_query_recorded(part, data, dc, ExecPolicy::Sequential, &NoopRecorder)
    }

    /// Sequential, unrecorded δ-query over a bare partition.
    fn delta_seq(
        part: &FlatPartition,
        data: &Dataset,
        order: &DensityOrder<'_>,
        maxrho: &[Rho],
        config: &DeltaQueryConfig,
    ) -> (DeltaResult, QueryStats) {
        let seq = ExecPolicy::Sequential;
        delta_query_recorded(part, data, order, maxrho, config, seq, &NoopRecorder)
    }

    fn reference(data: &Dataset, dc: f64) -> (Vec<Rho>, DeltaResult) {
        NaiveReferenceIndex::build(data).rho_delta(dc).unwrap()
    }

    #[test]
    fn generic_queries_match_reference_on_flat_partition() {
        let data = s1(7, 0.04).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 120_000.0);
        check_partition_invariants(&part, &data);
        for dc in [10_000.0, 60_000.0, 400_000.0] {
            let (ref_rho, ref_delta) = reference(&data, dc);
            let (rho, _) = rho_seq(&part, &data, dc);
            assert_eq!(rho, ref_rho, "dc = {dc}");
            let order = DensityOrder::new(&rho);
            let maxrho = subtree_max_density(&part, &rho);
            let (deltas, _) =
                delta_seq(&part, &data, &order, &maxrho, &DeltaQueryConfig::default());
            assert_eq!(deltas.mu, ref_delta.mu, "dc = {dc}");
            for p in 0..data.len() {
                assert!((deltas.delta(p) - ref_delta.delta(p)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn parallel_queries_are_bit_identical_to_sequential() {
        let data = query_dataset(3, 0.004).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 0.05);
        let dc = 0.02;
        let (seq_rho, seq_rho_stats) = rho_seq(&part, &data, dc);
        let order = DensityOrder::new(&seq_rho);
        let maxrho = subtree_max_density(&part, &seq_rho);
        let config = DeltaQueryConfig::default();
        let (seq_delta, seq_delta_stats) = delta_seq(&part, &data, &order, &maxrho, &config);
        for threads in [1usize, 2, 3, 7, 64] {
            let policy = ExecPolicy::Threads(threads);
            let (rho, rho_stats) = rho_query_recorded(&part, &data, dc, policy, &NoopRecorder);
            assert_eq!(rho, seq_rho, "threads = {threads}");
            assert_eq!(rho_stats, seq_rho_stats, "threads = {threads}");
            let (delta, delta_stats) = delta_query_recorded(
                &part,
                &data,
                &order,
                &maxrho,
                &config,
                policy,
                &NoopRecorder,
            );
            assert_eq!(delta.delta, seq_delta.delta, "threads = {threads}");
            assert_eq!(delta.mu, seq_delta.mu, "threads = {threads}");
            // Distance pruning's "rest of the heap" counter depends on how
            // many nodes are still queued at the early exit, which is
            // per-point state — identical regardless of the partitioning.
            assert_eq!(delta_stats, seq_delta_stats, "threads = {threads}");
        }
    }

    #[test]
    fn disabling_pruning_gives_identical_results_but_more_work() {
        let data = query_dataset(13, 0.006).into_dataset(); // 300 points
        let part = FlatPartition::strips(&data, 0.07);
        let dc = 0.02;
        let (rho, _) = rho_seq(&part, &data, dc);
        let order = DensityOrder::new(&rho);
        let maxrho = subtree_max_density(&part, &rho);

        let (with_pruning, stats_pruned) =
            delta_seq(&part, &data, &order, &maxrho, &DeltaQueryConfig::default());
        let (without_pruning, stats_full) = delta_seq(
            &part,
            &data,
            &order,
            &maxrho,
            &DeltaQueryConfig::no_pruning(),
        );

        assert_eq!(with_pruning.mu, without_pruning.mu);
        assert!(
            stats_pruned.points_scanned < stats_full.points_scanned,
            "pruning must reduce the number of points scanned ({} vs {})",
            stats_pruned.points_scanned,
            stats_full.points_scanned
        );
    }

    /// Every tree index over `coords`, each with tiny leaves so that even a
    /// handful of points spreads over several nodes.
    fn small_leaf_indices(data: &Dataset) -> Vec<Box<dyn DpcIndex>> {
        use crate::{GridConfig, GridIndex, KdTree, KdTreeConfig};
        use crate::{Quadtree, QuadtreeConfig, RTree, RTreeConfig};
        let grid = GridConfig {
            target_points_per_cell: 1,
            ..GridConfig::default()
        };
        let kd = KdTreeConfig {
            leaf_capacity: 1,
            ..KdTreeConfig::default()
        };
        let rtree = RTreeConfig {
            node_capacity: 2,
            ..RTreeConfig::default()
        };
        let quad = QuadtreeConfig {
            node_capacity: 1,
            ..QuadtreeConfig::default()
        };
        vec![
            Box::new(GridIndex::with_config(data, &grid)),
            Box::new(KdTree::with_config(data, &kd)),
            Box::new(RTree::with_config(data, &rtree)),
            Box::new(Quadtree::with_config(data, &quad)),
        ]
    }

    #[test]
    fn leaf_prefilter_keeps_delta_identical_to_the_reference_on_edge_cases() {
        let r = 1.340_780_792_994_259_6e154; // √f64::MAX, rounded down
        type Case = (&'static str, Vec<(f64, f64)>, Vec<Rho>);
        let cases: Vec<Case> = vec![
            // 1 + 2⁻⁵² rounds to a root of exactly 1: points 0 and 1 tie at
            // δ = 1 from the query (point 2) although point 0's squared
            // distance is one ulp larger, and the smaller id must win. Both
            // orientations, so one of them puts the larger-d² point in the
            // leaf scanned second.
            (
                "sqrt tie, x-major",
                vec![
                    (1.0, 2f64.powi(-26)),
                    (1.0, 0.0),
                    (0.0, 0.0),
                    (3.0, 3.0),
                    (-3.0, 3.0),
                ],
                vec![5.0, 5.0, 1.0, 0.0, 0.0],
            ),
            (
                "sqrt tie, y-major",
                vec![
                    (2f64.powi(-26), 1.0),
                    (0.0, 1.0),
                    (0.0, 0.0),
                    (3.0, -3.0),
                    (-3.0, -3.0),
                ],
                vec![5.0, 5.0, 1.0, 0.0, 0.0],
            ),
            (
                "sqrt tie, far apart",
                vec![
                    (2f64.powi(-26), 1.0),
                    (1.0, 0.0),
                    (0.0, 0.0),
                    (-1.0, 0.0),
                    (0.0, -1.0),
                ],
                vec![5.0, 5.0, 1.0, 0.0, 0.0],
            ),
            // Squared differences that are subnormal or underflow to zero.
            (
                "subnormal differences",
                vec![
                    (0.0, 0.0),
                    (3e-161, 4e-161),
                    (5e-161, 0.0),
                    (1e-162, 2e-162),
                    (1e-163, 0.0),
                    (-4e-161, 3e-161),
                    (2f64.powi(-537), 0.0),
                ],
                vec![1.0, 5.0, 5.0, 2.0, 2.0, 7.0, 3.0],
            ),
            // The best candidate sits at √f64::MAX, so the padded bound
            // overflows to +∞; a denser point at infinite distance (its
            // squared distance overflows too) is seen first by some trees.
            (
                "near overflow",
                vec![
                    (0.0, 0.0),
                    (r, 0.0),
                    (r - r * 0.75f64.sqrt(), 0.5 * r),
                    (r, 1.0),
                    (-r, 0.0),
                    (0.0, -r),
                ],
                vec![9.0, 1.0, 5.0, 0.0, 0.0, 4.0],
            ),
            // Coincident points: δ = 0 ties resolved by id.
            (
                "coincident",
                vec![
                    (1.0, 1.0),
                    (1.0, 1.0),
                    (1.0, 1.0),
                    (1.0, 1.0),
                    (2.0, 1.0),
                    (1.0, 1.0),
                ],
                vec![1.0, 3.0, 3.0, 5.0, 9.0, 3.0],
            ),
        ];
        assert_eq!(
            (1.0f64 + f64::EPSILON).sqrt(),
            1.0,
            "the tie cases need a √-tie"
        );
        assert!(dpc_core::sq_prefilter_bound(r).is_infinite());
        for (name, coords, rho) in cases {
            let data = Dataset::from_coords(coords);
            let expected = NaiveReferenceIndex::build(&data).delta(1.0, &rho).unwrap();
            if name.starts_with("sqrt tie") {
                assert_eq!(expected.mu[2], Some(0), "{name}");
            }
            for index in small_leaf_indices(&data) {
                let got = index.delta(1.0, &rho).unwrap();
                assert_eq!(got.mu, expected.mu, "{name}: {}", index.name());
                let bits =
                    |d: &DeltaResult| d.delta.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "{name}: {}", index.name());
            }
        }
    }

    #[test]
    fn weighted_rho_query_matches_scan_and_is_thread_invariant() {
        let data = query_dataset(5, 0.004).into_dataset(); // 200 points
        let part = FlatPartition::strips(&data, 0.05);
        let dc = 0.02;
        for kernel in [Kernel::gaussian(0.01), Kernel::exponential(0.02)] {
            let expected =
                dpc_core::index::weighted_rho_scan(&data, dc, kernel, ExecPolicy::Sequential)
                    .unwrap();
            let seq_policy = ExecPolicy::Sequential;
            let (seq, stats) =
                weighted_rho_query_recorded(&part, &data, dc, kernel, seq_policy, &NoopRecorder);
            assert_eq!(seq, expected, "{}", kernel.name());
            assert!(stats.nodes_discarded > 0, "traversal must prune");
            for threads in [2usize, 7] {
                let (par, _) = weighted_rho_query_recorded(
                    &part,
                    &data,
                    dc,
                    kernel,
                    ExecPolicy::Threads(threads),
                    &NoopRecorder,
                );
                assert_eq!(par, seq, "{} threads = {threads}", kernel.name());
            }
        }
    }

    #[test]
    fn rho_query_prunes_disjoint_and_contained_nodes() {
        let data = s1(19, 0.04).into_dataset();
        let part = FlatPartition::strips(&data, 100_000.0);
        let (_, stats_small) = rho_seq(&part, &data, 5_000.0);
        assert!(stats_small.nodes_discarded > 0);
        let diameter = data.bbox_diameter() * 1.01;
        let (rho_l, stats_large) = rho_seq(&part, &data, diameter);
        assert!(stats_large.nodes_fully_contained > 0);
        assert!(rho_l.iter().all(|&r| r as usize == data.len() - 1));
    }

    #[test]
    fn subtree_max_density_is_max_over_members() {
        let data = s1(23, 0.02).into_dataset();
        let part = FlatPartition::strips(&data, 150_000.0);
        let (rho, _) = rho_seq(&part, &data, 40_000.0);
        let maxrho = subtree_max_density(&part, &rho);
        let root = part.root().unwrap();
        assert_eq!(maxrho[root], rho.iter().copied().fold(0.0f64, f64::max));
        for (node, &got) in maxrho.iter().enumerate().skip(1) {
            let expected = part
                .points(node)
                .iter()
                .map(|&q| rho[q as usize])
                .fold(0.0f64, f64::max);
            assert_eq!(got, expected, "node {node}");
        }
    }

    #[test]
    fn eps_query_matches_linear_scan() {
        let data = s1(29, 0.05).into_dataset(); // 250 points
        let part = FlatPartition::strips(&data, 130_000.0);
        for (center, eps) in [
            (data.point(3), 40_000.0),
            (data.point(100), 250_000.0),
            (dpc_core::Point::new(0.0, 0.0), 90_000.0),
        ] {
            let got = eps_query(&part, &data, center, eps);
            let expected = dpc_core::index::eps_neighbors_scan(&data, center, eps).unwrap();
            assert_eq!(got, expected, "eps = {eps}");
        }
    }

    #[test]
    fn empty_tree_queries_are_empty() {
        let data = Dataset::new(vec![]);
        let part = FlatPartition::strips(&data, 1.0);
        assert!(rho_seq(&part, &data, 1.0).0.is_empty());
        let rho: Vec<Rho> = vec![];
        let order = DensityOrder::new(&rho);
        let maxrho = subtree_max_density(&part, &rho);
        let (deltas, _) = delta_seq(&part, &data, &order, &maxrho, &DeltaQueryConfig::default());
        assert!(deltas.is_empty());
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = QueryStats {
            nodes_visited: 1,
            points_scanned: 5,
            ..Default::default()
        };
        let b = QueryStats {
            nodes_visited: 2,
            nodes_discarded: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.nodes_visited, 3);
        assert_eq!(a.nodes_discarded, 3);
        assert_eq!(a.points_scanned, 5);
    }
}
