//! A uniform grid index (extension; related-work style ablation).
//!
//! The related work the paper cites (\[22\], \[24\]) accelerates DPC with grid
//! structures. This module provides a flat uniform grid exposed as a
//! two-level [`SpatialPartition`] (a root whose children are the non-empty
//! cells), so the same pruned query algorithms apply. It serves as an
//! ablation point between "no index" and the hierarchical indices: cheap to
//! build, but with far weaker pruning on skewed data.

use std::collections::HashMap;
use std::time::Duration;

use dpc_core::index::validate_dc;
use dpc_core::{
    dc_sq_threshold, BatchOp, BoundingBox, Dataset, DeltaResult, DpcIndex, IndexStats, Point,
    PointId, Query, Result, Rho, TargetDeltas, TieBreak, Timer, UpdatableIndex,
};

use crate::common::{apply_bulk_batch, check_partition_invariants, NodeId, SpatialPartition};
use crate::query::{
    tree_delta_query, tree_delta_targets, tree_rho_query, DeltaQueryConfig, QueryStats,
};

/// Configuration of a [`GridIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Side length of a grid cell. `None` chooses a size targeting
    /// [`GridConfig::target_points_per_cell`] points per cell on average.
    pub cell_size: Option<f64>,
    /// Average cell occupancy targeted when `cell_size` is `None`.
    pub target_points_per_cell: usize,
    /// Occupancy-skew factor that triggers an amortised re-bucket when the
    /// cell size is auto-chosen: an insert that leaves its cell holding more
    /// than `rebucket_skew * target_points_per_cell` points re-derives the
    /// grid geometry (origin and cell size) from the *current* window.
    /// Without this, a long-lived stream that drifts off the build-time
    /// region degrades to a few huge cells. `f64::INFINITY` disables
    /// re-bucketing; explicit `cell_size` grids never re-bucket (a fixed
    /// geometry cannot adapt). Must be greater than 1.
    pub rebucket_skew: f64,
    /// Tie-break rule of the density order.
    pub tie_break: TieBreak,
    /// Pruning configuration used by the δ-query of the [`DpcIndex`] impl.
    pub delta: DeltaQueryConfig,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            cell_size: None,
            target_points_per_cell: 32,
            rebucket_skew: 8.0,
            tie_break: TieBreak::default(),
            delta: DeltaQueryConfig::default(),
        }
    }
}

/// The uniform grid index.
///
/// Besides the batch queries of [`DpcIndex`], the grid supports online
/// updates ([`UpdatableIndex`]): a point insert/delete touches exactly one
/// cell (found in O(1) through the key map), which makes the grid the
/// natural index for the streaming engine in `dpc-stream`. The grid geometry
/// (origin and cell size) is anchored at build time; points inserted outside
/// the original bounding box simply land in new cells with negative or
/// larger keys. When the auto-sized geometry stops fitting the data — a
/// drifting stream piles points into one build-time cell — an insert that
/// pushes a cell past [`GridConfig::rebucket_skew`] times the target
/// occupancy re-anchors the grid from the current window (an amortised
/// re-bucket, counted in [`UpdatableIndex::maintenance_counters`]). An
/// [`UpdatableIndex::apply_batch`] that replaces a large share of the window
/// is applied to the dataset first and the partition rebuilt once for the
/// new window, without counting a re-bucket. The
/// partition only affects pruning, so re-bucketing never changes query
/// results. After deletions, cell bounding boxes are *conservative* (they
/// may be larger than tight) — query results are unaffected, only pruning is
/// marginally weaker.
#[derive(Debug, Clone)]
pub struct GridIndex {
    dataset: Dataset,
    /// Bounding box of each cell (index 0 is the root). Tight after
    /// construction and insertion, conservative after removals.
    boxes: Vec<BoundingBox>,
    /// Point ids of each cell (index 0, the root, stays empty).
    members: Vec<Vec<u32>>,
    /// Children of the root: ids 1..num_nodes. Cells emptied by removals
    /// stay listed (with a zero point count).
    root_children: Vec<NodeId>,
    /// Cell key (integer grid coordinates relative to `origin`) → node id.
    cell_of: HashMap<(i64, i64), NodeId>,
    /// Anchor of the cell key computation, frozen at build time.
    origin: (f64, f64),
    cell_size: f64,
    config: GridConfig,
    construction_time: Duration,
    /// Number of occupancy-triggered re-anchors performed so far.
    rebuckets: u64,
    /// Dataset version at the last re-anchor (or build). A re-bucket is
    /// allowed only after at least a threshold's worth of mutations, so the
    /// O(n) rebuild amortises against the inserts that overfilled the cell
    /// (degenerate data — e.g. thousands of coincident points — cannot force
    /// a rebuild per insert).
    last_rebucket_version: u64,
}

impl GridIndex {
    /// Builds a grid index with the default configuration.
    pub fn build(dataset: &Dataset) -> Self {
        Self::with_config(dataset, &GridConfig::default())
    }

    /// Builds a grid index with an explicit configuration.
    ///
    /// # Panics
    /// Panics if an explicit `cell_size` is not positive and finite, if
    /// `target_points_per_cell` is 0, or if `rebucket_skew` is not greater
    /// than 1.
    pub fn with_config(dataset: &Dataset, config: &GridConfig) -> Self {
        assert!(
            config.target_points_per_cell > 0,
            "GridIndex: target points per cell must be positive"
        );
        assert!(
            config.rebucket_skew > 1.0,
            "GridIndex: rebucket skew must be greater than 1, got {}",
            config.rebucket_skew
        );
        if let Some(s) = config.cell_size {
            assert!(
                s.is_finite() && s > 0.0,
                "GridIndex: cell size must be positive, got {s}"
            );
        }
        let timer = Timer::start();
        let n = dataset.len();
        let bb = dataset.bounding_box();
        let mut cell_size = config.cell_size.unwrap_or_else(|| {
            // Aim for ~target_points_per_cell points per cell on average,
            // assuming a uniform spread over the bounding box.
            let cells = (n as f64 / config.target_points_per_cell as f64).max(1.0);
            let per_axis = cells.sqrt().ceil().max(1.0);
            let extent = bb.width().max(bb.height()).max(f64::MIN_POSITIVE);
            extent / per_axis
        });
        if !(cell_size.is_finite() && cell_size > 0.0) {
            // Empty dataset: the bounding box is the inverted EMPTY box and
            // the auto formula degenerates. Any positive size works — the
            // grid has no cells yet and later inserts key off `origin`.
            cell_size = 1.0;
        }
        // Freeze the key anchor; an empty dataset anchors at the origin so
        // the grid stays updatable.
        let origin = if bb.is_empty() {
            (0.0, 0.0)
        } else {
            (bb.min_x(), bb.min_y())
        };

        let mut cells: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (id, p) in dataset.iter() {
            cells
                .entry(cell_key(p, origin, cell_size))
                .or_default()
                .push(id as u32);
        }
        // Deterministic node order regardless of hash iteration order.
        let mut keys: Vec<(i64, i64)> = cells.keys().copied().collect();
        keys.sort_unstable();

        let mut boxes = vec![bb];
        let mut members: Vec<Vec<u32>> = vec![Vec::new()];
        let mut cell_of = HashMap::with_capacity(keys.len());
        for key in keys {
            let ids = cells.remove(&key).expect("cell key must exist");
            let tight = ids.iter().fold(BoundingBox::EMPTY, |acc, &id| {
                acc.extended(dataset.point(id as PointId))
            });
            cell_of.insert(key, boxes.len());
            boxes.push(tight);
            members.push(ids);
        }
        let root_children: Vec<NodeId> = (1..boxes.len()).collect();

        GridIndex {
            dataset: dataset.clone(),
            boxes,
            members,
            root_children,
            cell_of,
            origin,
            cell_size,
            config: *config,
            construction_time: timer.elapsed(),
            rebuckets: 0,
            last_rebucket_version: dataset.version(),
        }
    }

    /// Re-derives the grid geometry (origin, cell size, partition) from the
    /// current window, preserving the dataset and the re-bucket count.
    fn rebuild(&mut self) {
        let rebuckets = self.rebuckets;
        let config = self.config;
        let dataset = std::mem::replace(&mut self.dataset, Dataset::new(Vec::new()));
        *self = GridIndex::with_config(&dataset, &config);
        self.rebuckets = rebuckets;
    }

    /// [`rebuild`](Self::rebuild), counted as a re-bucket. Called when
    /// occupancy skew shows the anchored geometry no longer fits.
    fn rebucket(&mut self) {
        self.rebuild();
        self.rebuckets += 1;
    }

    /// The insert-time occupancy threshold above which a re-bucket fires,
    /// or `None` when re-bucketing is disabled (explicit cell size or an
    /// infinite skew).
    fn rebucket_threshold(&self) -> Option<usize> {
        if self.config.cell_size.is_some() || !self.config.rebucket_skew.is_finite() {
            return None;
        }
        let raw = self.config.rebucket_skew * self.config.target_points_per_cell as f64;
        Some(raw.ceil() as usize)
    }

    /// The side length of a grid cell.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The integer cell key of a location.
    fn key_of(&self, p: Point) -> (i64, i64) {
        cell_key(p, self.origin, self.cell_size)
    }

    /// The node id of the cell holding `p`'s location, if that cell exists.
    fn cell_node(&self, p: Point) -> Option<NodeId> {
        self.cell_of.get(&self.key_of(p)).copied()
    }

    /// Number of materialised cells. Every cell was non-empty when created
    /// (at build time or by an insert), but cells whose points were all
    /// removed stay listed with a zero point count, so after deletions this
    /// is an upper bound on the number of occupied cells.
    pub fn cell_count(&self) -> usize {
        self.root_children.len()
    }

    /// ρ-query that also reports traversal statistics.
    pub fn rho_with_stats(&self, dc: f64) -> Result<(Vec<Rho>, QueryStats)> {
        tree_rho_query(self, &Query::new(dc))
    }

    /// Checks the grid's structural bookkeeping: the generic partition
    /// invariants plus the cell-key map (every listed point keys to the cell
    /// listing it).
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violation.
    pub fn check_structure(&self) {
        check_partition_invariants(self, &self.dataset);
        for (&key, &node) in &self.cell_of {
            for &q in &self.members[node] {
                assert_eq!(
                    self.key_of(self.dataset.point(q as PointId)),
                    key,
                    "point {q} is listed in cell {key:?} but keys elsewhere"
                );
            }
        }
    }

    /// δ-query with an explicit pruning configuration, reporting traversal
    /// statistics.
    pub fn delta_with_config(
        &self,
        dc: f64,
        rho: &[Rho],
        config: &DeltaQueryConfig,
    ) -> Result<(DeltaResult, QueryStats)> {
        tree_delta_query(self, &Query::new(dc), rho, config)
    }
}

/// Integer grid coordinates of a point relative to `origin`. The f64→i64
/// cast saturates, so degenerate geometries (e.g. a subnormal cell size)
/// deterministically collapse far-away points into boundary cells instead of
/// overflowing.
fn cell_key(p: Point, origin: (f64, f64), cell_size: f64) -> (i64, i64) {
    (
        ((p.x - origin.0) / cell_size).floor() as i64,
        ((p.y - origin.1) / cell_size).floor() as i64,
    )
}

impl UpdatableIndex for GridIndex {
    fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
        // A bulk batch re-derives the partition once, with a cell size
        // fitted to the new window.
        if let Some(result) = apply_bulk_batch(&mut self.dataset, ops) {
            self.rebuild();
            return result;
        }
        for op in ops {
            match *op {
                BatchOp::Insert(p) => {
                    self.insert(p)?;
                }
                BatchOp::Remove(id) => {
                    self.remove(id)?;
                }
            }
        }
        Ok(())
    }

    fn insert(&mut self, p: Point) -> Result<PointId> {
        let id = self.dataset.push(p)?;
        match self.cell_node(p) {
            Some(node) => {
                self.members[node].push(id as u32);
                self.boxes[node] = self.boxes[node].extended(p);
            }
            None => {
                let node = self.boxes.len();
                self.cell_of.insert(self.key_of(p), node);
                self.boxes.push(BoundingBox::from_point(p));
                self.members.push(vec![id as u32]);
                self.root_children.push(node);
            }
        }
        // The root box must keep covering every point (inserts may fall
        // outside the build-time bounding box).
        self.boxes[0] = self.boxes[0].extended(p);
        if let Some(threshold) = self.rebucket_threshold() {
            let node = self.cell_node(p).expect("inserted point must have a cell");
            if self.members[node].len() > threshold
                && self.dataset.version() >= self.last_rebucket_version + threshold as u64
            {
                self.rebucket();
            }
        }
        Ok(id)
    }

    fn remove(&mut self, id: PointId) -> Result<Option<PointId>> {
        let n = self.dataset.len();
        if id >= n {
            return Err(dpc_core::DpcError::invalid_parameter(
                "id",
                format!("GridIndex::remove: point id {id} is out of range (n = {n})"),
            ));
        }
        let removed_pt = self.dataset.point(id);
        let moved_pt = self.dataset.point(n - 1);
        let moved = self.dataset.swap_remove(id)?;

        let node = self
            .cell_node(removed_pt)
            .expect("GridIndex: removed point must have a cell");
        let pos = self.members[node]
            .iter()
            .position(|&q| q as PointId == id)
            .expect("GridIndex: removed point must be listed in its cell");
        self.members[node].swap_remove(pos);

        if let Some(m) = moved {
            // The dataset renamed its last point to `id`; mirror that in the
            // moved point's cell.
            let mnode = self
                .cell_node(moved_pt)
                .expect("GridIndex: moved point must have a cell");
            let mpos = self.members[mnode]
                .iter()
                .position(|&q| q as PointId == m)
                .expect("GridIndex: moved point must be listed in its cell");
            self.members[mnode][mpos] = id as u32;
        }
        // Cell and root boxes are left as-is: conservative (possibly larger
        // than tight) boxes only weaken pruning, never correctness.
        Ok(moved)
    }

    fn delta_targets(
        &self,
        q: &Query<'_>,
        rho: &[Rho],
        targets: &[PointId],
    ) -> Result<TargetDeltas> {
        tree_delta_targets(self, q, rho, targets, &self.config.delta)
    }

    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>> {
        validate_dc(eps)?;
        let mut out = Vec::new();
        if self.dataset.is_empty() {
            return Ok(out);
        }
        let eps2 = dc_sq_threshold(eps);
        // The rectangle bounds are computed in rounded f64 arithmetic:
        // fl(center - eps) can round *up* across a cell boundary and
        // fl(center + eps) can round *down*, either of which would exclude
        // the cell of a point strictly within eps. Widening by one cell on
        // every side makes the rectangle a guaranteed superset; the exact
        // strict `< eps²` test below keeps the result tight.
        let (kx0, ky0) = self.key_of(Point::new(center.x - eps, center.y - eps));
        let (kx1, ky1) = self.key_of(Point::new(center.x + eps, center.y + eps));
        let (kx0, ky0) = (kx0.saturating_sub(1), ky0.saturating_sub(1));
        let (kx1, ky1) = (kx1.saturating_add(1), ky1.saturating_add(1));
        let scan_cell = |node: NodeId, out: &mut Vec<PointId>| {
            for &q in &self.members[node] {
                let q = q as PointId;
                if self.dataset.point(q).distance_squared(&center) < eps2 {
                    out.push(q);
                }
            }
        };
        // Enumerate the key rectangle when it is small; a huge eps relative
        // to the cell size would make that rectangle astronomically large,
        // in which case walking the existing cells is cheaper.
        let span = ((kx1 as i128 - kx0 as i128 + 1) as u128)
            .saturating_mul((ky1 as i128 - ky0 as i128 + 1) as u128);
        if span <= self.cell_of.len() as u128 {
            for kx in kx0..=kx1 {
                for ky in ky0..=ky1 {
                    if let Some(&node) = self.cell_of.get(&(kx, ky)) {
                        scan_cell(node, &mut out);
                    }
                }
            }
        } else {
            for (&(kx, ky), &node) in &self.cell_of {
                if (kx0..=kx1).contains(&kx) && (ky0..=ky1).contains(&ky) {
                    scan_cell(node, &mut out);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn maintenance_counters(&self) -> Vec<(&'static str, u64)> {
        vec![("rebuckets", self.rebuckets)]
    }

    fn check_invariants(&self) {
        self.check_structure();
    }
}

impl SpatialPartition for GridIndex {
    fn root(&self) -> Option<NodeId> {
        if self.dataset.is_empty() {
            None
        } else {
            Some(0)
        }
    }

    fn bbox(&self, node: NodeId) -> BoundingBox {
        self.boxes[node]
    }

    fn point_count(&self, node: NodeId) -> usize {
        if node == 0 {
            self.dataset.len()
        } else {
            self.members[node].len()
        }
    }

    fn children(&self, node: NodeId) -> &[NodeId] {
        if node == 0 {
            &self.root_children
        } else {
            &[]
        }
    }

    fn points(&self, node: NodeId) -> &[u32] {
        if node == 0 {
            &[]
        } else {
            &self.members[node]
        }
    }

    fn num_nodes(&self) -> usize {
        self.boxes.len()
    }
}

impl DpcIndex for GridIndex {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    fn rho_query(&self, q: &Query<'_>) -> Result<Vec<Rho>> {
        tree_rho_query(self, q).map(|(rho, _)| rho)
    }

    fn delta_query(&self, q: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult> {
        tree_delta_query(self, q, rho, &self.config.delta).map(|(result, _)| result)
    }

    fn memory_bytes(&self) -> usize {
        let cells: usize = self
            .members
            .iter()
            .map(|m| m.capacity() * std::mem::size_of::<u32>())
            .sum();
        let boxes = self.boxes.capacity() * std::mem::size_of::<BoundingBox>();
        let keys = self.cell_of.len()
            * (std::mem::size_of::<(i64, i64)>() + std::mem::size_of::<NodeId>());
        cells + boxes + keys + self.dataset.memory_bytes()
    }

    fn stats(&self) -> IndexStats {
        IndexStats::new(self.construction_time, self.memory_bytes())
            .with_counter("cells", self.cell_count() as u64)
            .with_counter("rebuckets", self.rebuckets)
    }

    fn tie_break(&self) -> TieBreak {
        self.config.tie_break
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::check_partition_invariants;
    use dpc_baseline::LeanDpc;
    use dpc_datasets::generators::{checkins, s1, CheckinConfig};

    fn assert_matches_baseline(data: &Dataset, grid: &GridIndex, dc: f64) {
        let baseline = LeanDpc::build(data);
        let (r1, d1) = grid.rho_delta(dc).unwrap();
        let (r2, d2) = baseline.rho_delta(dc).unwrap();
        assert_eq!(r1, r2, "rho mismatch at dc = {dc}");
        assert_eq!(d1.mu, d2.mu, "mu mismatch at dc = {dc}");
        for p in 0..data.len() {
            assert!((d1.delta(p) - d2.delta(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn structure_invariants_hold() {
        let data = s1(301, 0.1).into_dataset();
        let grid = GridIndex::build(&data);
        check_partition_invariants(&grid, &data);
        assert!(grid.cell_count() > 1);
        assert_eq!(grid.height(), 2);
    }

    #[test]
    fn matches_baseline_with_auto_and_explicit_cell_size() {
        let data = s1(307, 0.05).into_dataset();
        let auto = GridIndex::build(&data);
        let explicit = GridIndex::with_config(
            &data,
            &GridConfig {
                cell_size: Some(75_000.0),
                ..Default::default()
            },
        );
        for dc in [10_000.0, 120_000.0] {
            assert_matches_baseline(&data, &auto, dc);
            assert_matches_baseline(&data, &explicit, dc);
        }
        assert_eq!(explicit.cell_size(), 75_000.0);
    }

    #[test]
    fn matches_baseline_on_skewed_data() {
        let data = checkins(300, &CheckinConfig::gowalla(), 17).into_dataset();
        let grid = GridIndex::build(&data);
        check_partition_invariants(&grid, &data);
        for dc in [0.01, 0.3] {
            assert_matches_baseline(&data, &grid, dc);
        }
    }

    #[test]
    fn single_cell_degenerate_grid_is_correct() {
        let data = s1(311, 0.02).into_dataset();
        let grid = GridIndex::with_config(
            &data,
            &GridConfig {
                cell_size: Some(1.0e7),
                ..Default::default()
            },
        );
        assert_eq!(grid.cell_count(), 1);
        assert_matches_baseline(&data, &grid, 40_000.0);
    }

    #[test]
    fn coincident_points_land_in_one_cell() {
        let data = Dataset::new(vec![dpc_core::Point::new(5.0, 5.0); 20]);
        let grid = GridIndex::build(&data);
        check_partition_invariants(&grid, &data);
        assert_eq!(grid.cell_count(), 1);
        assert!(grid.rho(1.0).unwrap().iter().all(|&r| r == 19.0));
    }

    #[test]
    fn empty_dataset() {
        let grid = GridIndex::build(&Dataset::new(vec![]));
        assert_eq!(grid.root(), None);
        assert!(grid.rho(1.0).unwrap().is_empty());
    }

    #[test]
    fn updates_match_a_fresh_build_and_the_baseline() {
        let data = checkins(200, &CheckinConfig::gowalla(), 23).into_dataset();
        let mut grid = GridIndex::build(&data);
        // Mixed workload: inserts inside and far outside the build-time
        // bounding box (new cells, root box growth), removals in the middle
        // (rename path) and at the end (no rename).
        let bb = data.bounding_box();
        grid.insert(dpc_core::Point::new(bb.max_x() + 5.0, bb.max_y() + 5.0))
            .unwrap();
        grid.insert(dpc_core::Point::new(bb.min_x() - 3.0, bb.min_y()))
            .unwrap();
        let inside = data.point(7);
        grid.insert(inside).unwrap();
        assert_eq!(grid.remove(3).unwrap(), Some(grid.len()));
        assert_eq!(grid.remove(grid.len() - 1).unwrap(), None);
        check_partition_invariants(&grid, grid.dataset());
        for dc in [0.05, 0.4, 20.0] {
            assert_matches_baseline(grid.dataset(), &grid, dc);
            let fresh = GridIndex::build(grid.dataset());
            let (r1, d1) = grid.rho_delta(dc).unwrap();
            let (r2, d2) = fresh.rho_delta(dc).unwrap();
            assert_eq!(r1, r2, "rho vs fresh build at dc = {dc}");
            assert_eq!(d1, d2, "delta vs fresh build at dc = {dc}");
        }
    }

    #[test]
    fn grid_grown_from_empty_matches_baseline() {
        let mut grid = GridIndex::build(&Dataset::new(vec![]));
        let pts = s1(41, 0.02).into_dataset();
        for (_, p) in pts.iter() {
            grid.insert(p).unwrap();
        }
        check_partition_invariants(&grid, grid.dataset());
        assert_matches_baseline(grid.dataset(), &grid, 40_000.0);
        // Drain back down to empty.
        while grid.len() > 1 {
            grid.remove(grid.len() / 2).unwrap();
        }
        assert_matches_baseline(grid.dataset(), &grid, 40_000.0);
        grid.remove(0).unwrap();
        assert!(grid.rho(1.0).unwrap().is_empty());
    }

    #[test]
    fn eps_neighbors_matches_linear_scan() {
        let data = checkins(300, &CheckinConfig::gowalla(), 5).into_dataset();
        let grid = GridIndex::build(&data);
        for (center, eps) in [
            (data.point(17), 0.2),
            (data.point(100), 1.5),
            (dpc_core::Point::new(0.0, 0.0), 0.7),
            // eps much larger than the dataset: exercises the cell-walk path.
            (data.point(0), 1.0e6),
        ] {
            let got = grid.eps_neighbors(center, eps).unwrap();
            let expected: Vec<usize> = data
                .iter()
                .filter(|(_, p)| p.distance(&center) < eps)
                .map(|(id, _)| id)
                .collect();
            assert_eq!(got, expected, "eps = {eps}");
        }
        assert!(grid.eps_neighbors(data.point(0), f64::NAN).is_err());
    }

    fn rebuckets(grid: &GridIndex) -> u64 {
        grid.maintenance_counters()
            .iter()
            .find(|(name, _)| *name == "rebuckets")
            .map(|&(_, v)| v)
            .expect("grid must expose a rebuckets counter")
    }

    #[test]
    fn drift_triggers_rebucket_and_results_stay_exact() {
        // Tight config so the trigger is reachable in a small test:
        // threshold = ceil(2.0 * 4) = 8 points in one cell.
        let config = GridConfig {
            target_points_per_cell: 4,
            rebucket_skew: 2.0,
            ..Default::default()
        };
        let seed = s1(59, 0.01).into_dataset();
        let mut grid = GridIndex::with_config(&seed, &config);
        let built_cell_size = grid.cell_size();
        assert_eq!(rebuckets(&grid), 0);
        // Drift: a new hotspot far outside the build-time box. Under the
        // frozen geometry all of it lands in one huge off-grid cell.
        let bb = seed.bounding_box();
        for i in 0..30 {
            let p = dpc_core::Point::new(
                bb.max_x() + 1.0e7 + 50.0 * (i as f64),
                bb.max_y() + 1.0e7 + 35.0 * (i % 7) as f64,
            );
            grid.insert(p).unwrap();
            grid.check_structure();
        }
        assert!(
            rebuckets(&grid) >= 1,
            "drift past the build-time region must re-anchor the grid"
        );
        assert_ne!(
            grid.cell_size(),
            built_cell_size,
            "re-anchor must re-derive the cell size for the drifted window"
        );
        // The partition only affects pruning: results stay exact.
        assert_matches_baseline(grid.dataset(), &grid, 60_000.0);
    }

    #[test]
    fn bulk_batches_rebuild_the_partition_for_the_new_window() {
        use dpc_core::BatchOp;
        let seed = s1(59, 0.01).into_dataset();
        let mut grid = GridIndex::build(&seed);
        let built_cell_size = grid.cell_size();
        // Replace the whole window with a hotspot far outside it: one bulk
        // batch, so one partition fitted to the hotspot.
        let bb = seed.bounding_box();
        let mut ops: Vec<BatchOp> = (0..seed.len()).map(|_| BatchOp::Remove(0)).collect();
        ops.extend((0..seed.len()).map(|i| {
            BatchOp::Insert(dpc_core::Point::new(
                bb.max_x() + 1.0e7 + 50.0 * (i % 17) as f64,
                bb.max_y() + 1.0e7 + 35.0 * (i / 17) as f64,
            ))
        }));
        grid.apply_batch(&ops).unwrap();
        grid.check_structure();
        assert_eq!(rebuckets(&grid), 0);
        assert_ne!(grid.cell_size(), built_cell_size);
        let fresh = GridIndex::build(grid.dataset());
        assert_eq!(grid.cell_size(), fresh.cell_size());
        assert_eq!(grid.dataset().version(), seed.version() + ops.len() as u64);
        assert_matches_baseline(grid.dataset(), &grid, 60_000.0);
    }

    #[test]
    fn explicit_cell_size_never_rebuckets() {
        let mut grid = GridIndex::with_config(
            &s1(61, 0.01).into_dataset(),
            &GridConfig {
                cell_size: Some(1.0e7),
                target_points_per_cell: 2,
                rebucket_skew: 1.5,
                ..Default::default()
            },
        );
        for i in 0..40 {
            grid.insert(dpc_core::Point::new(5.0e8 + i as f64, 5.0e8))
                .unwrap();
        }
        assert_eq!(rebuckets(&grid), 0);
    }

    #[test]
    #[should_panic(expected = "rebucket skew must be greater than 1")]
    fn invalid_rebucket_skew_panics() {
        GridIndex::with_config(
            &Dataset::new(vec![]),
            &GridConfig {
                rebucket_skew: 1.0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn remove_rejects_out_of_range_ids() {
        let mut grid = GridIndex::build(&s1(43, 0.01).into_dataset());
        let n = grid.len();
        assert!(grid.remove(n).is_err());
        assert_eq!(grid.len(), n);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn invalid_cell_size_panics() {
        GridIndex::with_config(
            &Dataset::new(vec![]),
            &GridConfig {
                cell_size: Some(-1.0),
                ..Default::default()
            },
        );
    }
}
