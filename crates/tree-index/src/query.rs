//! The generic ρ- and δ-query algorithms shared by all tree indices.
//!
//! These are Algorithms 5 and 6 of the paper, written once against
//! [`SpatialPartition`] and run *leaf-local*: the points of one leaf share
//! whatever the leaf as a whole already decides, so no point restarts a
//! traversal at the root with nothing known.
//!
//! Both whole-dataset queries start with one O(n) walk of the tree. It copies
//! every leaf's points into contiguous per-query storage, with the tight box
//! of each leaf and the *home leaf* of each point. The copy lives only for
//! the query, so an index's `memory_bytes()` does not include it.
//!
//! * **ρ-query** (Algorithm 5) runs in two passes.
//!   1. *Per leaf* `L`: one depth-first traversal classifies every node
//!      against `L`'s box with the box-to-box bounds
//!      [`BoundingBox::min_dist_squared_to`] and
//!      [`BoundingBox::max_dist_squared_to`]. A node within `dc` of every
//!      point of `L` is counted wholesale (its `nc`), a node beyond `dc` of
//!      all of `L` is dropped, and of the rest only the leaves are kept, as
//!      `L`'s *candidates*.
//!   2. *Per point* `p`: `ρ(p)` is its home leaf's wholesale count plus `p`'s
//!      own classification of each candidate leaf — discarded, *fully
//!      contained* (counted wholesale) or scanned (Observation 1).
//!
//!   Both box-to-box bounds hold exactly in floating point, so every count
//!   equals the per-point traversal's. The query is sqrt-free: it compares
//!   squared distances against the precomputed threshold
//!   [`dc_sq_threshold`] (see the safety discussion in [`dpc_core::metric`]).
//! * **δ-query** (Algorithm 6) sorts each leaf's copy densest-first. For a
//!   point `p` it
//!   1. scans `p`'s home leaf first, which seeds the candidate δ before any
//!      node is opened;
//!   2. runs the best-first search over the other nodes, ordered by
//!      `dmin²(p, node)`, with **density pruning** (Lemma 1: a node whose
//!      `maxrho` is below `ρ(p)` cannot contain the dependent neighbour) and
//!      **distance pruning** (Lemma 2: a node with `dmin²` above the padded
//!      bound [`sq_prefilter_bound`] of the candidate δ can neither beat nor
//!      tie it);
//!   3. stops every leaf scan at the first entry that is not denser than `p`
//!      — Lemma 1 inside a leaf, since every later entry is sparser still.
//! * **per-target δ-query** ([`delta_targets_query`]) answers δ/µ for a
//!   short list of points — the streaming engine's per-epoch recompute of
//!   its invalidation set. It makes no leaf copy, whose sort would cost more
//!   than a few dozen searches: each target runs the same best-first search
//!   from the root on the tree's own nodes and unsorted point lists, and a
//!   leaf scan tests each entry's squared distance before its density.
//!
//! In both δ-queries squared distances only order the search and prune it.
//! A point that survives the prefilter is decided on its rounded true
//! distance by the `(distance, id)` rule, so µ on √-ties matches the list
//! indices and the baseline. δ itself stays a true metric distance:
//! downstream consumers combine it additively, which squared distances (no
//! triangle inequality) do not support.
//!
//! # Work counters
//!
//! Each query returns a [`QueryStats`]:
//!
//! * ρ-query: `nodes_visited` counts the nodes the per-leaf traversals open
//!   plus the candidate leaves the points test; `nodes_discarded` and
//!   `nodes_fully_contained` count those of them dropped and counted
//!   wholesale, by a leaf's plan or by a point. `points_scanned` counts the
//!   point pairs whose distance is computed.
//! * δ-query: `nodes_visited` counts the home-leaf scans plus the nodes
//!   popped from the heap. `nodes_density_pruned` and
//!   `nodes_distance_pruned` count the children skipped by Lemma 1 and
//!   Lemma 2; the distance count also takes in the nodes still queued at
//!   Lemma 2's early exit. `points_scanned` counts the leaf entries whose
//!   distance is computed: the denser prefix of each scanned leaf, or the
//!   whole leaf with density pruning off.
//! * per-target δ-query: as the δ-query without the home-leaf scans, except
//!   that `points_scanned` counts every entry of every scanned leaf (the
//!   lists are unsorted, so there is no early stop), plus `n` for a target
//!   that is the global peak. It is exactly the number of squared distances
//!   computed.
//!
//! The counters depend only on the tree, the data and the query, never on
//! the thread count.
//!
//! # Threads, recorder and ablation
//!
//! The per-leaf and per-point passes have no data dependency between items,
//! so they parallelise over the chunked engine of [`dpc_core::exec`]: under
//! an [`ExecPolicy`] each worker thread gets its own [`QueryScratch`] — a
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

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

use dpc_core::index::{validate_dc, validate_rho_len, validate_targets};
use dpc_core::{
    dc_sq_threshold, exec, sq_prefilter_bound, BoundingBox, Dataset, DeltaResult, DensityOrder,
    DpcIndex, ExecPolicy, Kernel, Point, PointId, Query, Result, Rho, TargetDeltas, TieBreak,
};

use crate::common::{NodeId, SpatialPartition};

/// Counters describing how much work a query did (see the module docs for
/// what each counts in the ρ- and δ-query). Used by the ablation benchmarks
/// and by tests asserting that pruning actually prunes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nodes opened or tested.
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

/// Per-worker reusable traversal state: the depth-first stack of the ρ-query
/// plans and the weighted ρ-query, the best-first heap of the δ-query, and
/// the traversal counters.
///
/// One scratch lives per worker thread (or one for the whole query when
/// sequential) and is reused across every item of that worker's chunk, so
/// the per-item hot loops allocate nothing beyond their outputs.
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
    /// point's density, and stop each densest-first leaf scan at the first
    /// point that is not denser than the query point.
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
    /// search that scans every point of every leaf); the ablation baseline.
    pub fn no_pruning() -> Self {
        DeltaQueryConfig {
            density_pruning: false,
            distance_pruning: false,
        }
    }
}

/// Marks a node that is not a leaf in [`Leaves::of_node`].
const NOT_A_LEAF: u32 = u32::MAX;

/// A per-query copy of a partition's leaves: each leaf's points stored
/// contiguously, leaf after leaf, with every node's box and the home leaf of
/// each point.
struct Leaves {
    /// Leaf index → its node.
    nodes: Vec<NodeId>,
    /// `start[i]..start[i + 1]` are leaf `i`'s entries.
    start: Vec<usize>,
    /// Node id → box: the tight box of a leaf's points (empty for a leaf
    /// emptied by deletions), the tree's own (possibly stale, always
    /// covering) box for any other node.
    boxes: Vec<BoundingBox>,
    /// Entry coordinates.
    pts: Vec<Point>,
    /// Entry point ids.
    ids: Vec<u32>,
    /// Entry densities (δ-query only), with `-0.0` stored as `+0.0`.
    rho: Vec<Rho>,
    /// Point id → index of its home leaf.
    home: Vec<u32>,
    /// Node id → leaf index, or [`NOT_A_LEAF`].
    of_node: Vec<u32>,
}

impl Leaves {
    /// One walk of `tree`. With an `order`, each leaf's entries are sorted
    /// densest-first under it and carry their densities.
    fn collect<T: SpatialPartition + ?Sized>(
        tree: &T,
        dataset: &Dataset,
        order: Option<&DensityOrder<'_>>,
    ) -> Leaves {
        let n = dataset.len();
        let mut leaves = Leaves {
            nodes: Vec::new(),
            start: vec![0],
            boxes: (0..tree.num_nodes()).map(|node| tree.bbox(node)).collect(),
            pts: Vec::with_capacity(n),
            ids: Vec::with_capacity(n),
            rho: Vec::with_capacity(if order.is_some() { n } else { 0 }),
            home: vec![0; n],
            of_node: vec![NOT_A_LEAF; tree.num_nodes()],
        };
        let Some(root) = tree.root() else {
            return leaves;
        };
        let points = dataset.points();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            if !tree.is_leaf(node) {
                stack.extend_from_slice(tree.children(node));
                continue;
            }
            let leaf = leaves.nodes.len() as u32;
            leaves.nodes.push(node);
            leaves.of_node[node] = leaf;
            let first = leaves.ids.len();
            leaves.ids.extend_from_slice(tree.points(node));
            let entries = &mut leaves.ids[first..];
            if let Some(order) = order {
                entries.sort_unstable_by(|&a, &b| density_cmp(order, b as PointId, a as PointId));
                // `-0.0 + 0.0` is `+0.0`: the two zeros sort as equals.
                let rho = order.rho();
                leaves
                    .rho
                    .extend(entries.iter().map(|&q| rho[q as usize] + 0.0));
            }
            let mut bbox = BoundingBox::EMPTY;
            for &q in entries.iter() {
                let pt = points[q as usize];
                bbox = bbox.extended(pt);
                leaves.pts.push(pt);
                leaves.home[q as usize] = leaf;
            }
            leaves.boxes[node] = bbox;
            leaves.start.push(leaves.ids.len());
        }
        leaves
    }

    /// Number of leaves.
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The tight box of leaf `leaf`'s points.
    #[inline]
    fn leaf_box(&self, leaf: u32) -> BoundingBox {
        self.boxes[self.nodes[leaf as usize]]
    }

    /// The entries of leaf `leaf`.
    #[inline]
    fn range(&self, leaf: u32) -> Range<usize> {
        self.start[leaf as usize]..self.start[leaf as usize + 1]
    }
}

/// [`DensityOrder::is_denser`] as a comparator: `Greater` when `q` is denser
/// than `p`. The two zeros compare equal, as they do there.
fn density_cmp(order: &DensityOrder<'_>, q: PointId, p: PointId) -> Ordering {
    let rho = order.rho();
    (rho[q] + 0.0)
        .total_cmp(&(rho[p] + 0.0))
        .then_with(|| match order.tie_break() {
            TieBreak::SmallerIdDenser => p.cmp(&q),
            TieBreak::LargerIdDenser => q.cmp(&p),
        })
}

/// Computes the cut-off ρ of every point under an execution policy,
/// reporting one `query.rho.plan.chunk` span per worker of the per-leaf
/// pass, one `query.rho.chunk` span per worker of the per-point pass, and
/// the aggregated [`QueryStats`] counters under the `query.rho` prefix to
/// `rec`.
///
/// Each pass partitions its items across worker threads, each with its own
/// [`QueryScratch`], and the per-worker statistics are merged in chunk order
/// after the join. Results are bit-identical at every thread count and with
/// or without a recorder.
pub fn rho_query_recorded<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    dc: f64,
    policy: ExecPolicy,
    rec: &dyn dpc_obs::Recorder,
) -> (Vec<Rho>, QueryStats) {
    let leaves = Leaves::collect(tree, dataset, None);
    let dc2 = dc_sq_threshold(dc);
    let mut plans: Vec<LeafPlan> = (0..leaves.len()).map(|_| LeafPlan::default()).collect();
    let mut scratches = exec::fill_slice_recorded(
        &mut plans,
        policy,
        rec,
        "query.rho.plan.chunk",
        QueryScratch::new,
        |leaf, scratch| leaf_plan(tree, &leaves, leaf as u32, dc2, scratch),
    );
    let mut rho = vec![0 as Rho; dataset.len()];
    scratches.extend(exec::fill_slice_recorded(
        &mut rho,
        policy,
        rec,
        "query.rho.chunk",
        QueryScratch::new,
        |p, scratch| {
            let plan = &plans[leaves.home[p] as usize];
            rho_one(&leaves, plan, dataset.point(p), dc2, &mut scratch.stats)
        },
    ));
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

/// What one leaf's traversal decides for every point in it.
#[derive(Debug, Default)]
struct LeafPlan {
    /// Points in the nodes lying within `dc` of the whole leaf.
    wholesale: usize,
    /// The leaves that may hold points within `dc` of some point of the leaf.
    candidates: Vec<u32>,
}

/// The ρ plan of leaf `leaf`: one depth-first traversal classifying nodes
/// against the leaf's box. A node emptied by deletions is dropped whatever
/// its stale box says.
fn leaf_plan<T: SpatialPartition + ?Sized>(
    tree: &T,
    leaves: &Leaves,
    leaf: u32,
    dc2: f64,
    scratch: &mut QueryScratch,
) -> LeafPlan {
    let mut plan = LeafPlan::default();
    let own = leaves.leaf_box(leaf);
    // An emptied leaf is home to no point and needs no plan.
    let (Some(root), false) = (tree.root(), own.is_empty()) else {
        return plan;
    };
    let stats = &mut scratch.stats;
    let stack = &mut scratch.stack;
    stack.clear();
    stack.push(root);
    while let Some(node) = stack.pop() {
        stats.nodes_visited += 1;
        let bbox = leaves.boxes[node];
        if tree.point_count(node) == 0 || own.min_dist_squared_to(&bbox) >= dc2 {
            stats.nodes_discarded += 1;
        } else if own.max_dist_squared_to(&bbox) < dc2 {
            stats.nodes_fully_contained += 1;
            plan.wholesale += tree.point_count(node);
        } else if leaves.of_node[node] != NOT_A_LEAF {
            plan.candidates.push(leaves.of_node[node]);
        } else {
            stack.extend_from_slice(tree.children(node));
        }
    }
    plan
}

/// ρ of the point at `query` from its home leaf's `plan`: counts points
/// strictly within `dc`, excluding the point itself. Sqrt-free: all
/// comparisons are against `dc²`.
fn rho_one(
    leaves: &Leaves,
    plan: &LeafPlan,
    query: Point,
    dc2: f64,
    stats: &mut QueryStats,
) -> Rho {
    // The count includes the point itself (distance 0 < dc always holds for
    // dc > 0): its home leaf is either inside the plan's wholesale count or
    // one of its candidates, which the point can neither discard nor miss.
    let mut count = plan.wholesale;
    for &c in &plan.candidates {
        stats.nodes_visited += 1;
        let bbox = leaves.leaf_box(c);
        if bbox.min_dist_squared(query) >= dc2 {
            stats.nodes_discarded += 1;
            continue;
        }
        let range = leaves.range(c);
        if bbox.max_dist_squared(query) < dc2 {
            stats.nodes_fully_contained += 1;
            count += range.len();
            continue;
        }
        stats.points_scanned += range.len() as u64;
        count += leaves.pts[range]
            .iter()
            .filter(|q| q.distance_squared(&query) < dc2)
            .count();
    }
    count.saturating_sub(1) as Rho
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
/// Unlike the cut-off [`rho_query_recorded`] there is no fully-contained
/// shortcut — every in-range neighbour's distance feeds the kernel — so the
/// traversal mirrors [`eps_query`]: prune nodes entirely outside the circle
/// (and nodes emptied by deletions), scan surviving leaves. Collected
/// `(id, d²)` pairs are sorted by id and summed ascending, the canonical
/// order of
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
    let dc2 = dc_sq_threshold(dc);
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
    let eps2 = dc_sq_threshold(eps);
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
    let leaves = Leaves::collect(tree, dataset, Some(order));
    let search = DeltaSearch {
        tree,
        leaves: &leaves,
        dataset,
        order,
        maxrho,
        config,
    };
    let mut result = DeltaResult::unset(n);
    let scratches = exec::fill_slice_pair_recorded(
        &mut result.delta,
        &mut result.mu,
        policy,
        rec,
        "query.delta.chunk",
        QueryScratch::new,
        |p, delta_slot, mu_slot, scratch| {
            (*delta_slot, *mu_slot) = search.delta_one(p, scratch);
        },
    );
    (result, merged_stats(&scratches, rec, "query.delta"))
}

/// Everything one δ-query shares across its points.
struct DeltaSearch<'a, T: ?Sized> {
    tree: &'a T,
    /// The leaves, each sorted densest-first.
    leaves: &'a Leaves,
    dataset: &'a Dataset,
    order: &'a DensityOrder<'a>,
    maxrho: &'a [Rho],
    config: &'a DeltaQueryConfig,
}

/// The best `(δ, µ)` candidate of one point's δ-query so far.
struct Candidate {
    d: f64,
    /// [`sq_prefilter_bound`] of `d`: squared distances above it can neither
    /// beat nor tie the candidate.
    sq: f64,
    q: Option<PointId>,
}

impl Candidate {
    /// Offers the denser point `q` at squared distance `d2`. A point above
    /// the squared-distance prefilter is skipped without a root; the others
    /// are decided on their rounded true distance by the lexicographic
    /// `(distance, id)` rule, which keeps µ identical to the list-based
    /// indices and the baseline when several denser neighbours are
    /// equidistant.
    #[inline]
    fn offer(&mut self, q: PointId, d2: f64) {
        if d2 > self.sq {
            return;
        }
        let d = d2.sqrt();
        if d < self.d || (d == self.d && self.q.is_none_or(|b| q < b)) {
            self.d = d;
            self.q = Some(q);
            self.sq = sq_prefilter_bound(d);
        }
    }
}

impl<T: SpatialPartition + ?Sized> DeltaSearch<'_, T> {
    /// δ and µ of point `p` — the best-first search of Algorithm 6, seeded
    /// from `p`'s home leaf (see the module docs).
    fn delta_one(&self, p: PointId, scratch: &mut QueryScratch) -> (f64, Option<PointId>) {
        let Some(root) = self.tree.root() else {
            return (0.0, None);
        };
        let (tree, leaves, config) = (self.tree, self.leaves, self.config);
        let query = self.dataset.point(p);
        let rho_p = self.order.rho()[p];
        let stats = &mut scratch.stats;
        let mut best = Candidate {
            d: f64::INFINITY,
            sq: f64::INFINITY,
            q: None,
        };

        // The home leaf holds p's nearest neighbours more often than any
        // other node, so scanning it first gives distance pruning a finite
        // bound before the first node is opened.
        let home = leaves.home[p];
        let home_node = leaves.nodes[home as usize];
        stats.nodes_visited += 1;
        self.scan_leaf(home, p, &mut best, stats);

        // Min-heap on dmin²: the node most likely to contain the dependent
        // neighbour is explored first, so the candidate δ shrinks quickly and
        // distance pruning bites early. The heap is per-worker scratch —
        // cleared (it may hold leftovers from an early-terminated previous
        // query) but never re-allocated.
        let heap = &mut scratch.heap;
        heap.clear();
        if root != home_node {
            heap.push(Reverse((
                OrdF64(leaves.boxes[root].min_dist_squared(query)),
                root,
            )));
        }
        while let Some(Reverse((OrdF64(dmin2), node))) = heap.pop() {
            // Squaring is monotone and `best.sq` pads `best.d²`, so a node
            // holding a point that could tie the candidate always passes.
            if config.distance_pruning && dmin2 > best.sq {
                // The heap is ordered by dmin², so every remaining node is at
                // least this far: nothing can improve the candidate any more.
                stats.nodes_distance_pruned += heap.len() as u64 + 1;
                break;
            }
            stats.nodes_visited += 1;
            let leaf = leaves.of_node[node];
            if leaf != NOT_A_LEAF {
                self.scan_leaf(leaf, p, &mut best, stats);
                continue;
            }
            for &c in tree.children(node) {
                if c == home_node {
                    continue;
                }
                if config.density_pruning && self.maxrho[c] < rho_p {
                    stats.nodes_density_pruned += 1;
                    continue;
                }
                let child_dmin2 = leaves.boxes[c].min_dist_squared(query);
                if config.distance_pruning && child_dmin2 > best.sq {
                    stats.nodes_distance_pruned += 1;
                    continue;
                }
                heap.push(Reverse((OrdF64(child_dmin2), c)));
            }
        }

        match best.q {
            Some(q) => (best.d, Some(q)),
            None => {
                // No denser point exists: p is the global peak. Its δ is the
                // maximum distance to any other point (original DPC
                // convention). Maximising the squared distance and taking one
                // root at the end gives exactly the same value (sqrt is
                // monotone) without a root per point.
                let max_sq = self
                    .dataset
                    .points()
                    .iter()
                    .map(|q| q.distance_squared(&query))
                    .fold(0.0f64, f64::max);
                (max_sq.sqrt(), None)
            }
        }
    }

    /// Offers `p` every denser entry of leaf `leaf`. The entries are sorted
    /// densest-first, so with density pruning the scan stops at the first
    /// one that is not denser than `p` (`p` itself, in its home leaf).
    #[inline]
    fn scan_leaf(&self, leaf: u32, p: PointId, best: &mut Candidate, stats: &mut QueryStats) {
        let leaves = self.leaves;
        let range = leaves.range(leaf);
        let query = self.dataset.point(p);
        let rho_p = self.order.rho()[p];
        let tie = self.order.tie_break();
        let entries = leaves.pts[range.clone()]
            .iter()
            .zip(&leaves.ids[range.clone()])
            .zip(&leaves.rho[range]);
        for ((pt, &q), &rho_q) in entries {
            let q = q as PointId;
            // `DensityOrder::is_denser` on the density the entry carries.
            let denser = rho_q > rho_p
                || (rho_q == rho_p
                    && match tie {
                        TieBreak::SmallerIdDenser => q < p,
                        TieBreak::LargerIdDenser => q > p,
                    });
            if !denser && self.config.density_pruning {
                break;
            }
            stats.points_scanned += 1;
            let d2 = pt.distance_squared(&query);
            if denser {
                best.offer(q, d2);
            }
        }
    }
}

/// δ and µ of each point in `targets` — the per-target δ-query behind every
/// updatable tree index's [`dpc_core::UpdatableIndex::delta_targets`], which the
/// streaming engine runs on its invalidation set once per epoch.
///
/// The whole-dataset [`delta_query_recorded`] first copies every leaf
/// densest-first, an `O(n log n)` sort that a few dozen targets never pay
/// back. This search therefore runs on the tree's own nodes and point
/// lists: for each target `p`, a best-first search from the root ordered by
/// `dmin²(p, node)`, pruning children by Lemma 1 (`maxrho < ρ(p)`) and by
/// Lemma 2 (`dmin²` above [`sq_prefilter_bound`] of the candidate δ), under
/// `config`. A leaf scan rejects an entry on its squared distance before it
/// looks up the entry's density, which most entries never need. The
/// `(distance, id)` rule and the global-peak convention are the δ-query's,
/// so every answer equals [`dpc_core::index::delta_point_scan`]'s.
///
/// `maxrho` must come from [`subtree_max_density`] for the same `rho` the
/// `order` was built from. The targets are spread over `policy`'s workers,
/// one [`QueryScratch`] each; results and the merged [`QueryStats`] are
/// identical at every thread count. `points_scanned` counts every squared
/// distance computed, the global peak's max-distance scan included.
pub fn delta_targets_query<T: SpatialPartition + Sync + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    maxrho: &[Rho],
    config: &DeltaQueryConfig,
    targets: &[PointId],
    policy: ExecPolicy,
) -> (Vec<(f64, Option<PointId>)>, QueryStats) {
    let mut out = vec![(0.0, None); targets.len()];
    let scratches = exec::fill_slice(&mut out, policy, QueryScratch::new, |k, scratch| {
        target_delta(tree, dataset, order, maxrho, config, targets[k], scratch)
    });
    let mut stats = QueryStats::default();
    for s in &scratches {
        stats.merge(&s.stats);
    }
    (out, stats)
}

/// δ and µ of one target `p` by best-first search from the root (see
/// [`delta_targets_query`]).
fn target_delta<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    maxrho: &[Rho],
    config: &DeltaQueryConfig,
    p: PointId,
    scratch: &mut QueryScratch,
) -> (f64, Option<PointId>) {
    let Some(root) = tree.root() else {
        return (0.0, None);
    };
    let pts = dataset.points();
    let query = pts[p];
    let rho_p = order.rho()[p];
    let stats = &mut scratch.stats;
    let mut best = Candidate {
        d: f64::INFINITY,
        sq: f64::INFINITY,
        q: None,
    };
    let heap = &mut scratch.heap;
    heap.clear();
    heap.push(Reverse((
        OrdF64(tree.bbox(root).min_dist_squared(query)),
        root,
    )));
    while let Some(Reverse((OrdF64(dmin2), node))) = heap.pop() {
        if config.distance_pruning && dmin2 > best.sq {
            stats.nodes_distance_pruned += heap.len() as u64 + 1;
            break;
        }
        stats.nodes_visited += 1;
        if tree.is_leaf(node) {
            let members = tree.points(node);
            stats.points_scanned += members.len() as u64;
            for &q in members {
                let q = q as PointId;
                let d2 = pts[q].distance_squared(&query);
                // The distance test first: it rejects most entries without
                // touching their density.
                if d2 <= best.sq && order.is_denser(q, p) {
                    best.offer(q, d2);
                }
            }
            continue;
        }
        for &c in tree.children(node) {
            // A node emptied by deletions keeps a stale box; skip it outright.
            if tree.point_count(c) == 0 {
                continue;
            }
            if config.density_pruning && maxrho[c] < rho_p {
                stats.nodes_density_pruned += 1;
                continue;
            }
            let child_dmin2 = tree.bbox(c).min_dist_squared(query);
            if config.distance_pruning && child_dmin2 > best.sq {
                stats.nodes_distance_pruned += 1;
                continue;
            }
            heap.push(Reverse((OrdF64(child_dmin2), c)));
        }
    }
    match best.q {
        Some(q) => (best.d, Some(q)),
        None => {
            // The global peak: the maximum distance to any point, rooted once
            // (sqrt is monotone).
            stats.points_scanned += pts.len() as u64;
            let max_sq = pts
                .iter()
                .map(|q| q.distance_squared(&query))
                .fold(0.0f64, f64::max);
            (max_sq.sqrt(), None)
        }
    }
}

/// A tree index's [`dpc_core::UpdatableIndex::delta_targets`] under the pruning
/// `config`: the `maxrho` annotation, built once per call, and
/// [`delta_targets_query`] under `q.exec`.
pub(crate) fn tree_delta_targets<T: SpatialPartition + DpcIndex + Sync + ?Sized>(
    tree: &T,
    q: &Query<'_>,
    rho: &[Rho],
    targets: &[PointId],
    config: &DeltaQueryConfig,
) -> Result<TargetDeltas> {
    validate_targets(q.dc, rho, targets, tree.len())?;
    let order = DensityOrder::with_tie_break(rho, tree.tie_break());
    let maxrho = subtree_max_density(tree, rho);
    let (deltas, stats) = delta_targets_query(
        tree,
        tree.dataset(),
        &order,
        &maxrho,
        config,
        targets,
        q.exec,
    );
    Ok(TargetDeltas {
        deltas,
        dist_evals: stats.points_scanned,
    })
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

/// Ordered f64 wrapper so `BinaryHeap` can prioritise by `dmin²`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
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
        // No pruning is the exhaustive baseline: every point opens every
        // node and scans every point of every leaf — the densest-first early
        // stop is density pruning too, so it is off as well.
        let n = data.len() as u64;
        assert_eq!(stats_full.points_scanned, n * n);
        assert_eq!(stats_full.nodes_visited, n * part.num_nodes() as u64);
        assert_eq!(stats_full.nodes_density_pruned, 0);
        assert_eq!(stats_full.nodes_distance_pruned, 0);

        // Density pruning alone off: the results still agree, and the leaf
        // scans still run to the end of each leaf.
        let distance_only = DeltaQueryConfig {
            density_pruning: false,
            distance_pruning: true,
        };
        let (distance_pruned, stats_distance) =
            delta_seq(&part, &data, &order, &maxrho, &distance_only);
        assert_eq!(distance_pruned.mu, with_pruning.mu);
        assert_eq!(distance_pruned.delta, with_pruning.delta);
        assert_eq!(stats_distance.nodes_density_pruned, 0);
        assert!(stats_distance.points_scanned > stats_pruned.points_scanned);
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
    fn delta_targets_query_prunes_and_matches_the_point_scan() {
        let data = query_dataset(13, 0.006).into_dataset(); // 300 points
        let part = FlatPartition::strips(&data, 0.07);
        let (rho, _) = rho_seq(&part, &data, 0.02);
        let order = DensityOrder::new(&rho);
        let maxrho = subtree_max_density(&part, &rho);
        let targets: Vec<PointId> = (0..data.len()).step_by(7).collect();
        let expected: Vec<(f64, Option<PointId>)> = targets
            .iter()
            .map(|&p| dpc_core::index::delta_point_scan(&data, &order, p))
            .collect();
        let run = |config: &DeltaQueryConfig, policy| {
            delta_targets_query(&part, &data, &order, &maxrho, config, &targets, policy)
        };
        let seq = ExecPolicy::Sequential;
        let (pruned, stats) = run(&DeltaQueryConfig::default(), seq);
        assert_eq!(pruned, expected);
        assert!(stats.nodes_density_pruned > 0, "Lemma 1 must prune");
        assert!(stats.nodes_distance_pruned > 0, "Lemma 2 must prune");
        for threads in [2usize, 7] {
            let par = run(&DeltaQueryConfig::default(), ExecPolicy::Threads(threads));
            assert_eq!(par, (pruned.clone(), stats), "threads = {threads}");
        }
        // Without pruning every target opens every node and computes every
        // distance (its own included); the answers stay the same.
        let (full, full_stats) = run(&DeltaQueryConfig::no_pruning(), seq);
        assert_eq!(full, expected);
        let n = data.len() as u64;
        assert_eq!(full_stats.points_scanned, targets.len() as u64 * n);
        assert!(stats.points_scanned < full_stats.points_scanned);
        // Each rule alone prunes less than both together.
        for (density_pruning, distance_pruning) in [(true, false), (false, true)] {
            let config = DeltaQueryConfig {
                density_pruning,
                distance_pruning,
            };
            let (one, one_stats) = run(&config, seq);
            assert_eq!(one, expected, "{config:?}");
            assert!(
                one_stats.points_scanned >= stats.points_scanned,
                "{config:?}"
            );
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
