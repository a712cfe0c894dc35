//! The [`SpatialPartition`] abstraction shared by every tree index.
//!
//! All four index structures in this crate (quadtree, R-tree, k-d tree,
//! uniform grid) are hierarchies of nodes, each covering an axis-aligned
//! region that bounds the points stored beneath it. The two DPC query
//! algorithms only need that much structure, so they are written once against
//! this trait (see [`crate::query`]) and each index only implements
//! construction plus these accessors.

use dpc_core::{BatchOp, BoundingBox, Dataset, PointId, Result};

/// Identifier of a node inside a [`SpatialPartition`] (an index into the
/// implementation's node arena).
pub type NodeId = usize;

/// An [`apply_batch`](dpc_core::UpdatableIndex::apply_batch) of more than one
/// op and at least `1 / BULK_BATCH_SHARE` of the index's points is applied
/// to the dataset alone, and the grid and the R-tree then rebuild their
/// structure over the result in one bulk pass: `O(n log n)` at most, so
/// amortised `O(log n)` per op of such a batch, where per-op maintenance
/// pays a descent or a crowded-cell scan per op and leaves looser boxes.
const BULK_BATCH_SHARE: usize = 8;

/// Applies `ops` to `dataset` alone when they form a bulk batch (see
/// [`BULK_BATCH_SHARE`]) and returns `Some` with the outcome: an op that
/// fails stops the batch, and the ops before it stay applied. The caller
/// then rebuilds its structure over the dataset. `None`: not a bulk batch,
/// nothing applied.
pub(crate) fn apply_bulk_batch(dataset: &mut Dataset, ops: &[BatchOp]) -> Option<Result<()>> {
    (ops.len() > 1 && ops.len().saturating_mul(BULK_BATCH_SHARE) >= dataset.len()).then(|| {
        ops.iter().try_for_each(|op| match *op {
            BatchOp::Insert(p) => dataset.push(p).map(drop),
            BatchOp::Remove(id) => dataset.swap_remove(id).map(drop),
        })
    })
}

/// A hierarchical partition of 2-D space over a dataset.
///
/// Invariants every implementation must uphold (they are checked by the
/// `partition_invariants` test helper in this module and exercised by each
/// index's tests):
///
/// * every node's [`bbox`](SpatialPartition::bbox) contains the points of all
///   leaves below it;
/// * [`point_count`](SpatialPartition::point_count) of a node equals the
///   number of dataset points stored in the leaves of its subtree (`nc` in
///   the paper);
/// * a node is either a leaf (no children, possibly some points) or an
///   internal node (children, no directly stored points);
/// * every dataset point appears in exactly one leaf.
pub trait SpatialPartition {
    /// The root node, or `None` for an empty index.
    fn root(&self) -> Option<NodeId>;

    /// The region covered by a node.
    fn bbox(&self, node: NodeId) -> BoundingBox;

    /// Number of dataset points stored in the subtree of `node` (`nc`).
    fn point_count(&self, node: NodeId) -> usize;

    /// Child nodes (empty slice for a leaf).
    fn children(&self, node: NodeId) -> &[NodeId];

    /// Point ids stored directly in `node` (non-empty only for leaves).
    fn points(&self, node: NodeId) -> &[u32];

    /// Whether the node is a leaf.
    fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// Total number of nodes in the index.
    fn num_nodes(&self) -> usize;

    /// Height of the tree (number of levels; 0 for an empty index). The
    /// default implementation walks the structure.
    fn height(&self) -> usize {
        fn depth<T: SpatialPartition + ?Sized>(tree: &T, node: NodeId) -> usize {
            1 + tree
                .children(node)
                .iter()
                .map(|&c| depth(tree, c))
                .max()
                .unwrap_or(0)
        }
        self.root().map_or(0, |r| depth(self, r))
    }
}

/// Checks the structural invariants of a partition against its dataset.
/// Intended for tests; panics with a descriptive message on violation.
pub fn check_partition_invariants<T: SpatialPartition + ?Sized>(
    tree: &T,
    dataset: &dpc_core::Dataset,
) {
    let Some(root) = tree.root() else {
        assert_eq!(dataset.len(), 0, "non-empty dataset but empty partition");
        return;
    };
    let mut seen = vec![false; dataset.len()];
    let mut stack = vec![root];
    let mut reachable_nodes = 0usize;
    while let Some(node) = stack.pop() {
        reachable_nodes += 1;
        let bbox = tree.bbox(node);
        let children = tree.children(node);
        let points = tree.points(node);
        if !children.is_empty() {
            assert!(
                points.is_empty(),
                "internal node {node} stores points directly"
            );
            let child_count: usize = children.iter().map(|&c| tree.point_count(c)).sum();
            assert_eq!(
                child_count,
                tree.point_count(node),
                "node {node}: nc does not equal the sum of its children's nc"
            );
            for &c in children {
                assert!(
                    bbox.contains_box(&tree.bbox(c)) || tree.point_count(c) == 0,
                    "child {c} of node {node} is not contained in its parent's bbox"
                );
                stack.push(c);
            }
        } else {
            assert_eq!(
                points.len(),
                tree.point_count(node),
                "leaf {node}: nc does not match the stored point count"
            );
            for &p in points {
                let p = p as PointId;
                assert!(!seen[p], "point {p} appears in more than one leaf");
                seen[p] = true;
                assert!(
                    bbox.contains(dataset.point(p)),
                    "point {p} lies outside the bbox of its leaf {node}"
                );
            }
        }
    }
    assert!(
        seen.iter().all(|&s| s),
        "some dataset points are not stored in any leaf"
    );
    assert!(
        reachable_nodes <= tree.num_nodes(),
        "more reachable nodes than num_nodes() reports"
    );
    let root_count = tree.point_count(root);
    assert_eq!(
        root_count,
        dataset.len(),
        "root nc must equal the dataset size"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::FlatPartition;
    use dpc_core::{Dataset, Point};

    fn sample() -> Dataset {
        Dataset::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.5, 0.5),
            Point::new(4.0, 2.0),
            Point::new(4.5, 0.1),
        ])
    }

    #[test]
    fn flat_partition_satisfies_invariants() {
        let data = sample();
        let part = FlatPartition::strips(&data, 1.5);
        check_partition_invariants(&part, &data);
        assert!(part.height() == 2);
        assert!(part.num_nodes() >= 2);
    }

    #[test]
    fn empty_partition_is_consistent() {
        let data = Dataset::new(vec![]);
        let part = FlatPartition::strips(&data, 1.0);
        check_partition_invariants(&part, &data);
        assert_eq!(part.height(), 0);
    }

    #[test]
    #[should_panic(expected = "nc does not equal")]
    fn invariant_checker_detects_wrong_counts() {
        let data = sample();
        let mut part = FlatPartition::strips(&data, 1.5);
        part.total = 99; // corrupt the root count
        check_partition_invariants(&part, &data);
    }
}
