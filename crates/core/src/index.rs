//! The [`DpcIndex`] trait — the seam between the clustering pipeline and the
//! concrete index structures.
//!
//! An index is built once over a dataset and can then answer, for *any*
//! cut-off distance `dc`, the two expensive DPC queries:
//!
//! * the **ρ-query**: local density of every point,
//! * the **δ-query**: dependent distance and dependent neighbour of every
//!   point (given the densities).
//!
//! The motivation in the paper is exactly this split: the user typically runs
//! DPC for many `dc` values while searching for a satisfactory clustering, so
//! the index is amortised across runs.

use std::time::Duration;

use crate::delta::{DeltaResult, DensityOrder, TieBreak};
use crate::density::Rho;
use crate::error::{DpcError, Result};
use crate::exec::ExecPolicy;
use crate::kernel::Kernel;
use crate::metric::{dc_sq_threshold, sq_prefilter_bound};
use crate::point::{Dataset, Point, PointId};
use dpc_obs::{NoopRecorder, Recorder};

/// Construction-time statistics of an index, reported by every
/// implementation and consumed by the experiment harness (Tables 3–4 of the
/// paper).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexStats {
    /// Wall-clock time spent building the index.
    pub construction_time: Duration,
    /// Analytic heap footprint of the index in bytes.
    pub memory_bytes: usize,
    /// Implementation-specific counters (number of tree nodes, bins per
    /// object, truncated list length, …).
    pub counters: Vec<(&'static str, u64)>,
}

impl IndexStats {
    /// Creates stats with the given construction time and memory footprint.
    pub fn new(construction_time: Duration, memory_bytes: usize) -> Self {
        IndexStats {
            construction_time,
            memory_bytes,
            counters: Vec::new(),
        }
    }

    /// Adds an implementation-specific counter (builder style).
    pub fn with_counter(mut self, name: &'static str, value: u64) -> Self {
        self.counters.push((name, value));
        self
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// One DPC query: the cut-off distance plus how to answer it — the density
/// kernel, the execution policy and where to report telemetry.
///
/// [`DpcIndex`] takes every query through this one parameter, so a new
/// dimension of the query never multiplies the trait's methods. Only `dc`
/// and `kernel` may change a result: parallelism and recording are pure
/// side channels, and every index returns bit-identical answers under every
/// [`ExecPolicy`] and recorder.
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, DpcIndex, ExecPolicy, Kernel, Query};
///
/// let data = Dataset::from_coords(vec![(0.0, 0.0), (0.5, 0.0), (4.0, 4.0)]);
/// let index = NaiveReferenceIndex::build(&data);
/// let q = Query {
///     kernel: Kernel::gaussian(1.0),
///     exec: ExecPolicy::Threads(2),
///     ..Query::new(1.0)
/// };
/// let rho = index.rho_query(&q).unwrap();
/// assert_eq!(rho[2], 0.0);
/// let deltas = index.delta_query(&q, &rho).unwrap();
/// assert_eq!(deltas.mu[1], Some(0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Query<'r> {
    /// The cut-off distance.
    pub dc: f64,
    /// The density kernel of the ρ-query (the δ-query ignores it).
    pub kernel: Kernel,
    /// How per-point work is spread over worker threads.
    pub exec: ExecPolicy,
    /// Where instrumented indexes report per-worker chunk spans and
    /// traversal counters.
    pub rec: &'r dyn Recorder,
}

impl Query<'static> {
    /// The paper's query: cut-off kernel, sequential, unrecorded.
    pub fn new(dc: f64) -> Self {
        Query {
            dc,
            kernel: Kernel::Cutoff,
            exec: ExecPolicy::Sequential,
            rec: &NoopRecorder,
        }
    }
}

/// An index over a dataset that can answer the DPC ρ- and δ-queries for any
/// cut-off distance.
///
/// Implementations must agree on the exact semantics defined in
/// [`crate::density`] and [`crate::delta`]:
///
/// * `ρ(p)` counts *other* points strictly within `dc`;
/// * "denser" is the total order of [`DensityOrder`]
///   with the index's [`tie_break`](DpcIndex::tie_break) rule;
/// * the global peak gets `µ = None` and `δ` = max distance to any point.
///
/// Exact indices (List, CH, Quadtree, R-tree) return results identical to the
/// naive baseline. Approximate indices (RN-List with threshold `τ`) may
/// return a clipped `δ` for points whose dependent neighbour is farther than
/// `τ`; see `dpc-list-index` for details.
pub trait DpcIndex {
    /// Short, stable name used in reports and plots (e.g. `"list"`,
    /// `"ch"`, `"quadtree"`, `"rtree"`).
    fn name(&self) -> &'static str;

    /// The dataset the index was built over.
    ///
    /// The clustering pipeline needs the raw points for the assignment step
    /// (nearest-centre fallback, halo computation), so every index keeps a
    /// copy of — or a handle to — its dataset. Relative to the index payload
    /// this is negligible.
    fn dataset(&self) -> &Dataset;

    /// Number of indexed points.
    fn len(&self) -> usize {
        self.dataset().len()
    }

    /// True when the index covers no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ρ-query: the local density of every point under `q.kernel`.
    ///
    /// For [`Kernel::Cutoff`], `ρ(p)` counts the other points strictly
    /// within `q.dc`. For weighted kernels it sums their weights in
    /// ascending id order and must reproduce [`weighted_rho_scan`] bit for
    /// bit; an index that cannot enumerate the `dc`-neighbourhood runs that
    /// scan itself. Results are identical under every [`Query::exec`] and
    /// with or without [`Query::rec`].
    ///
    /// Returns [`DpcError::InvalidParameter`] when `q.dc` is not a positive
    /// finite number or the kernel is invalid.
    fn rho_query(&self, q: &Query<'_>) -> Result<Vec<Rho>>;

    /// The δ-query: `δ` and `µ` of every point, given per-point densities
    /// previously obtained from [`rho_query`](DpcIndex::rho_query).
    ///
    /// The δ-query is kernel-agnostic: it only consumes the densities
    /// through the total order. `q.dc` is passed through because
    /// approximate indices need it to decide whether a truncated
    /// neighbourhood is sufficient.
    fn delta_query(&self, q: &Query<'_>, rho: &[Rho]) -> Result<DeltaResult>;

    /// Cut-off ρ-query for `dc`, run sequentially: shorthand for
    /// [`rho_query`](DpcIndex::rho_query) with [`Query::new`].
    fn rho(&self, dc: f64) -> Result<Vec<Rho>> {
        self.rho_query(&Query::new(dc))
    }

    /// Sequential δ-query for `dc`: shorthand for
    /// [`delta_query`](DpcIndex::delta_query) with [`Query::new`].
    fn delta(&self, dc: f64, rho: &[Rho]) -> Result<DeltaResult> {
        self.delta_query(&Query::new(dc), rho)
    }

    /// Runs the cut-off ρ-query and the δ-query back to back, sequentially.
    fn rho_delta(&self, dc: f64) -> Result<(Vec<Rho>, DeltaResult)> {
        let q = Query::new(dc);
        let rho = self.rho_query(&q)?;
        let delta = self.delta_query(&q, &rho)?;
        Ok((rho, delta))
    }

    /// [`rho_query`](DpcIndex::rho_query) under `kernel` and `policy`,
    /// unrecorded. Kept as a forward only because the repository benchmark
    /// (`dpcbench`), whose sources are frozen, calls it.
    fn rho_kernel_with_policy(
        &self,
        dc: f64,
        kernel: Kernel,
        policy: ExecPolicy,
    ) -> Result<Vec<Rho>> {
        self.rho_query(&Query {
            kernel,
            exec: policy,
            ..Query::new(dc)
        })
    }

    /// [`delta_query`](DpcIndex::delta_query) under `policy`, unrecorded.
    /// Kept as a forward only because the repository benchmark
    /// (`dpcbench`), whose sources are frozen, calls it.
    fn delta_with_policy(&self, dc: f64, rho: &[Rho], policy: ExecPolicy) -> Result<DeltaResult> {
        let q = Query {
            exec: policy,
            ..Query::new(dc)
        };
        self.delta_query(&q, rho)
    }

    /// Analytic heap footprint of the index in bytes.
    fn memory_bytes(&self) -> usize;

    /// Construction statistics recorded while building the index.
    fn stats(&self) -> IndexStats;

    /// The tie-break rule this index uses for the density order.
    fn tie_break(&self) -> TieBreak {
        TieBreak::SmallerIdDenser
    }

    /// Whether the index guarantees results identical to the naive baseline
    /// (`true`) or may trade accuracy for memory (`false`).
    fn is_exact(&self) -> bool {
        true
    }
}

/// One mutation of an epoch batch, consumed by
/// [`UpdatableIndex::apply_batch`].
///
/// A batch is an ordered sequence of these: the streaming engine translates
/// a whole epoch of inserts and expiries into `BatchOp`s (resolving handles
/// to the dense ids they hold *at execution time*) and hands them to the
/// index in one call, so the index can amortise its internal maintenance
/// triggers over the epoch instead of paying them per update.
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{BatchOp, Dataset, DpcIndex, Point, UpdatableIndex};
///
/// let data = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 1.0)]);
/// let mut index = NaiveReferenceIndex::build(&data);
/// // Insert two points, then swap-remove the point at dense id 0: the
/// // default implementation replays the ops through insert()/remove().
/// index
///     .apply_batch(&[
///         BatchOp::Insert(Point::new(2.0, 2.0)),
///         BatchOp::Insert(Point::new(3.0, 3.0)),
///         BatchOp::Remove(0),
///     ])
///     .unwrap();
/// assert_eq!(index.len(), 3);
/// // Swap-remove semantics: the last point (3,3) was renamed to id 0.
/// assert_eq!(index.dataset().point(0), Point::new(3.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchOp {
    /// Append a point (its id becomes the dataset length before the op).
    Insert(Point),
    /// Swap-remove the point at this dense id (resolved against the dataset
    /// state at the moment the op executes, mid-batch).
    Remove(PointId),
}

/// An index that supports online point insertion and deletion, plus the
/// ε-range query the streaming engine uses to find the *affected set* of an
/// update.
///
/// This is the seam behind `dpc-stream`'s incremental clustering: inserting
/// or deleting a point `p` only changes `ρ` for points within `dc` of `p`
/// (the locality property the paper's indexes already exploit for batch
/// queries), so an updatable index lets `ρ` be *maintained* instead of
/// recomputed — the same insight as the parallel-exact and k-d-tree DPC
/// follow-ups ("Faster Parallel Exact Density Peaks Clustering", Huang, Yu &
/// Shun 2023; Shan et al. 2022).
///
/// ## Contract
///
/// * The index's [`dataset`](DpcIndex::dataset) mirrors the mutations:
///   [`insert`](UpdatableIndex::insert) appends (new id = old `len()`),
///   [`remove`](UpdatableIndex::remove) uses *swap-remove* semantics exactly
///   like [`Dataset::swap_remove`] — the last point is renamed to the removed
///   id, and the old id of the moved point is returned so callers can fix up
///   external references.
/// * After any sequence of updates, every [`DpcIndex`] query must return
///   exactly what a freshly built index over the same dataset would return.
///   (Internal bookkeeping such as node bounding boxes may be *conservative*
///   after deletions — correct but less tight — as long as query results are
///   unchanged.)
/// * [`eps_neighbors`](UpdatableIndex::eps_neighbors) takes a *location*, not
///   an id, so it can be asked about a point before it is inserted or after
///   it is removed. It returns ids in ascending order.
pub trait UpdatableIndex: DpcIndex {
    /// Inserts a point, returning its id (the previous `len()`).
    ///
    /// Returns [`DpcError::InvalidPoint`] for non-finite coordinates.
    fn insert(&mut self, p: Point) -> Result<PointId>;

    /// Removes the point with the given id via swap-remove.
    ///
    /// Returns the old id of the point that was moved into the hole
    /// (`Some(len - 1)`), or `None` when the last point was removed. Errors
    /// when `id` is out of range.
    fn remove(&mut self, id: PointId) -> Result<Option<PointId>>;

    /// Applies a whole epoch of mutations in order.
    ///
    /// Semantically this is exactly a loop over [`insert`](Self::insert) and
    /// [`remove`](Self::remove) — the default implementation *is* that loop,
    /// and every override must leave the dataset in the identical state
    /// (same points at the same dense ids; the id effects of each op are
    /// deterministic: an insert lands at the current length, a remove renames
    /// the last point into the hole). What an override **may** change is the
    /// *internal* structural maintenance: amortised triggers such as the k-d
    /// tree's scapegoat/dead-fraction rebuilds or the R-tree's forced
    /// reinsertion round are allowed to fire **once per batch** instead of
    /// once per op, as long as every [`DpcIndex`] query still returns exactly
    /// what a freshly built index over the final dataset would return.
    ///
    /// # Errors and partial progress
    ///
    /// An op that fails (non-finite point, out-of-range id) aborts the batch
    /// at that op; ops already applied **stay applied**, mirroring the
    /// per-update contract. Callers that need atomicity must validate the
    /// batch first (the streaming engine does).
    fn apply_batch(&mut self, ops: &[BatchOp]) -> Result<()> {
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

    /// δ and µ of every point in `targets` under the density order of `rho`
    /// (this index's [`tie_break`](DpcIndex::tie_break)), each exactly what
    /// [`delta_query`](DpcIndex::delta_query) would return for it, plus the
    /// number of squared distances computed on the way.
    ///
    /// This is the streaming engine's per-epoch recompute of its invalidation
    /// set: a few dozen points out of the whole window. The default runs
    /// [`delta_point_scan`] per target, `n − 1` distances each; the tree
    /// indexes override it with the pruned best-first search of their
    /// δ-query. Targets are spread over `q.exec`'s workers, and results are
    /// bit-identical at every thread count.
    ///
    /// Returns [`DpcError::InvalidParameter`] for an invalid `q.dc` or a
    /// target out of range, and [`DpcError::LengthMismatch`] when `rho` does
    /// not cover the dataset.
    fn delta_targets(
        &self,
        q: &Query<'_>,
        rho: &[Rho],
        targets: &[PointId],
    ) -> Result<TargetDeltas> {
        validate_targets(q.dc, rho, targets, self.len())?;
        let dataset = self.dataset();
        let order = DensityOrder::with_tie_break(rho, self.tie_break());
        let mut deltas = vec![(0.0, None); targets.len()];
        crate::exec::fill_slice(
            &mut deltas,
            q.exec,
            || (),
            |k, ()| delta_point_scan(dataset, &order, targets[k]),
        );
        Ok(TargetDeltas {
            deltas,
            dist_evals: targets.len() as u64 * self.len().saturating_sub(1) as u64,
        })
    }

    /// Ids of all points strictly within `eps` of `center`, ascending.
    ///
    /// Strictness matches the ρ definition (`dist < eps`), so
    /// `eps_neighbors(point(p), dc)` returns exactly the points whose ρ a
    /// mutation of `p` touches (including `p` itself when it is indexed —
    /// its distance to its own location is 0). `eps` is validated like a
    /// cut-off distance ([`validate_dc`]).
    fn eps_neighbors(&self, center: Point, eps: f64) -> Result<Vec<PointId>>;

    /// Counters describing the amortised structural maintenance the index
    /// has performed so far (subtree rebuilds, forced reinsertions, node
    /// merges, …).
    ///
    /// Indexes that keep themselves healthy through occasional restructuring
    /// expose their triggers here so the test harness can assert they
    /// actually fire under adversarial workloads (a rebuild threshold that
    /// never trips is dead code, and a rebuild bug should fail as a counter
    /// assertion, not as a distant label diff). Indexes with no amortised
    /// maintenance return an empty list.
    fn maintenance_counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    /// Checks the index's internal structural invariants (bounding-box
    /// containment, subtree counts, id bookkeeping), panicking with a
    /// descriptive message on the first violation.
    ///
    /// This is a test/debug hook: the generic streaming equivalence harness
    /// calls it after every mutation so a broken rebuild fails loudly at the
    /// step that corrupted the structure. The default does nothing (the
    /// brute-force baselines have no structure to check).
    fn check_invariants(&self) {}
}

/// The answer of [`UpdatableIndex::delta_targets`].
#[derive(Debug, Clone, PartialEq)]
pub struct TargetDeltas {
    /// `(δ, µ)` of each target, in the order the targets were given.
    pub deltas: Vec<(f64, Option<PointId>)>,
    /// Squared point-to-point distances computed to answer the query.
    /// Depends only on the index, the data and the targets, never on the
    /// thread count.
    pub dist_evals: u64,
}

/// Validates the arguments of [`UpdatableIndex::delta_targets`] against an
/// index of `n` points.
pub fn validate_targets(dc: f64, rho: &[Rho], targets: &[PointId], n: usize) -> Result<()> {
    validate_dc(dc)?;
    validate_rho_len(rho, n)?;
    match targets.iter().find(|&&p| p >= n) {
        Some(p) => Err(DpcError::invalid_parameter(
            "targets",
            format!("target point id {p} is out of range (n = {n})"),
        )),
        None => Ok(()),
    }
}

/// Brute-force ε-range scan over the structure-of-arrays coordinate slices:
/// ids of all points strictly within `eps` of `center`, ascending.
///
/// This is the shared reference implementation of
/// [`UpdatableIndex::eps_neighbors`] used by the index-free baselines
/// (`NaiveReferenceIndex`, `LeanDpc`); real indexes answer the same query
/// through their structure. Keeping one copy pins the contract — strict
/// `dist < eps`, same validation as a cut-off distance — in one place.
pub fn eps_neighbors_scan(dataset: &Dataset, center: Point, eps: f64) -> Result<Vec<PointId>> {
    validate_dc(eps)?;
    let (xs, ys) = dataset.coord_slices();
    let eps2 = dc_sq_threshold(eps);
    Ok((0..dataset.len())
        .filter(|&q| {
            let (dx, dy) = (xs[q] - center.x, ys[q] - center.y);
            dx * dx + dy * dy < eps2
        })
        .collect())
}

/// Canonical brute-force δ and µ of one point under the given density
/// order: the lexicographic `(distance, id)` minimum over all denser points
/// — the correctly rounded distance first, the smaller id on equal
/// distances — or the global-peak convention (max distance to any point,
/// `µ = None`) when no denser point exists.
///
/// This is the shared kernel of `LeanDpc`'s δ scan and of the streaming
/// engine's per-point δ repair. It
/// compares squared distances only as a prefilter ([`sq_prefilter_bound`])
/// and takes the root of every candidate that could tie, so µ is identical
/// to the tree δ-query's and `NaiveReferenceIndex`'s even where two squared
/// distances one ulp apart share a root.
pub fn delta_point_scan(
    dataset: &Dataset,
    order: &DensityOrder<'_>,
    p: PointId,
) -> (f64, Option<PointId>) {
    let (xs, ys) = dataset.coord_slices();
    let (xp, yp) = (xs[p], ys[p]);
    let mut best_d = f64::INFINITY;
    let mut best_sq = f64::INFINITY;
    let mut best_q = None;
    let mut max_sq = 0.0f64;
    for q in 0..dataset.len() {
        if q == p {
            continue;
        }
        let (dx, dy) = (xs[q] - xp, ys[q] - yp);
        let d2 = dx * dx + dy * dy;
        max_sq = max_sq.max(d2);
        if d2 > best_sq || !order.is_denser(q, p) {
            continue;
        }
        // Ascending scan: a tie on the rounded distance keeps the smaller
        // id already held, so only a strict improvement replaces it.
        let d = d2.sqrt();
        if d < best_d || best_q.is_none() {
            best_d = d;
            best_sq = sq_prefilter_bound(d);
            best_q = Some(q);
        }
    }
    match best_q {
        Some(q) => (best_d, Some(q)),
        // Global peak: sqrt is monotone, so rooting the max squared distance
        // is exact.
        None => (max_sq.sqrt(), None),
    }
}

/// Canonical kernel-weighted ρ scan: for every point `p`, the sum of
/// `kernel` weights over the *other* points strictly within `dc`, accumulated
/// in **ascending neighbour-id order** (the workspace-wide canonical
/// summation order for weighted densities; see [`crate::kernel`]).
///
/// This is the reference implementation every accelerated weighted traversal
/// must match bit-for-bit, and the weighted branch of
/// [`DpcIndex::rho_query`] for indexes without one. Parallelism partitions the *output*
/// points across workers; each point's sum is still accumulated in ascending
/// id order, so results are bit-identical at every thread count.
pub fn weighted_rho_scan(
    dataset: &Dataset,
    dc: f64,
    kernel: Kernel,
    policy: ExecPolicy,
) -> Result<Vec<Rho>> {
    validate_dc(dc)?;
    kernel.validate()?;
    let n = dataset.len();
    let (xs, ys) = dataset.coord_slices();
    let dc2 = dc_sq_threshold(dc);
    let mut rho = vec![0.0 as Rho; n];
    crate::exec::fill_slice(
        &mut rho,
        policy,
        || (),
        |i, ()| {
            let (xi, yi) = (xs[i], ys[i]);
            let mut mass = 0.0f64;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let (dx, dy) = (xs[j] - xi, ys[j] - yi);
                let d2 = dx * dx + dy * dy;
                if d2 < dc2 {
                    mass += kernel.weight_from_sq(d2);
                }
            }
            mass
        },
    );
    Ok(rho)
}

/// Validates a cut-off distance, shared by all index implementations.
///
/// Besides rejecting non-positive and non-finite values, this rejects
/// cut-offs whose square leaves the finite f64 range: the sqrt-free hot
/// loops compare squared distances against `dc²` (see [`crate::metric`]),
/// so an *underflowed* square (`dc` ≲ 1.5e-154, `dc²` rounding to 0) would
/// silently classify every point — including coincident ones — as outside
/// the neighbourhood, and an *overflowed* square (`dc` ≳ 1.3e154, `dc²`
/// rounding to +∞) would make the comparison against equally-overflowed
/// pairwise distances undercount. No meaningful dataset has a cut-off within
/// 150 orders of magnitude of either limit.
pub fn validate_dc(dc: f64) -> Result<()> {
    if !(dc.is_finite() && dc > 0.0) {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance must be a positive finite number \
                 (valid range: approx. 1.5e-154 to 1.3e154), got {dc}"
            ),
        ));
    }
    if dc * dc < f64::MIN_POSITIVE {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance {dc:e} is below the minimum of approx. 1.5e-154 \
                 (valid range: approx. 1.5e-154 to 1.3e154): its square underflows \
                 f64, which would break the squared-distance comparisons"
            ),
        ));
    }
    if !(dc * dc).is_finite() {
        return Err(DpcError::invalid_parameter(
            "dc",
            format!(
                "cut-off distance {dc:e} is above the maximum of approx. 1.3e154 \
                 (valid range: approx. 1.5e-154 to 1.3e154): its square overflows \
                 f64, which would break the squared-distance comparisons"
            ),
        ));
    }
    Ok(())
}

/// Validates that a `rho` slice covers the whole dataset, shared by all index
/// implementations.
pub fn validate_rho_len(rho: &[Rho], expected: usize) -> Result<()> {
    if rho.len() != expected {
        return Err(DpcError::LengthMismatch {
            expected,
            actual: rho.len(),
            what: "rho slice passed to delta query",
        });
    }
    Ok(())
}

/// Convenience used by index constructors that want to fail early on invalid
/// datasets (currently only emptiness is rejected lazily, at query time).
pub fn dataset_len(dataset: &Dataset) -> usize {
    dataset.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_point_scan_peak_sentinel_is_max_distance() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (3.0, 4.0)]);
        let rho = vec![1.0, 1.0];
        let order = DensityOrder::new(&rho);
        assert_eq!(delta_point_scan(&data, &order, 0), (5.0, None));
        assert_eq!(delta_point_scan(&data, &order, 1), (5.0, Some(0)));
    }

    #[test]
    fn delta_point_scan_breaks_square_root_ties_by_id() {
        // From the origin (point 2), point 0 sits at squared distance
        // 1 + 2⁻⁵² and point 1 at exactly 1; both roots round to 1.0, so
        // the smaller id wins although its squared distance is larger.
        let data = Dataset::from_coords(vec![(1.0, 2f64.powi(-26)), (1.0, 0.0), (0.0, 0.0)]);
        let rho = vec![5.0, 5.0, 0.0];
        let order = DensityOrder::new(&rho);
        assert_eq!(delta_point_scan(&data, &order, 2), (1.0, Some(0)));
    }

    #[test]
    fn validate_dc_accepts_positive_finite() {
        assert!(validate_dc(0.1).is_ok());
        assert!(validate_dc(1e9).is_ok());
    }

    #[test]
    fn validate_dc_rejects_bad_values() {
        assert!(validate_dc(0.0).is_err());
        assert!(validate_dc(-1.0).is_err());
        assert!(validate_dc(f64::NAN).is_err());
        assert!(validate_dc(f64::INFINITY).is_err());
    }

    #[test]
    fn validate_dc_rejects_cutoffs_whose_square_underflows() {
        // 1e-170 is positive and finite but (1e-170)² == 0.0 in f64.
        assert!(validate_dc(1e-170).is_err());
        assert!(validate_dc(1e-160).is_err());
        // Just above the underflow limit is fine.
        assert!(validate_dc(1e-150).is_ok());
    }

    #[test]
    fn validate_dc_rejects_cutoffs_whose_square_overflows() {
        // 1e200 is positive and finite but (1e200)² == +inf in f64.
        assert!(validate_dc(1e200).is_err());
        assert!(validate_dc(f64::MAX).is_err());
        let msg = validate_dc(1e200).unwrap_err().to_string();
        assert!(msg.contains("1e200"), "value missing in: {msg}");
        assert!(msg.contains("1.3e154"), "range missing in: {msg}");
        // Just below the overflow limit is fine.
        assert!(validate_dc(1e150).is_ok());
    }

    #[test]
    fn validate_dc_errors_name_the_value_and_the_valid_range() {
        // Out-of-domain values: the message must quote the offending value
        // and state the valid range.
        for bad in [-3.25f64, 0.0, f64::NAN, f64::NEG_INFINITY] {
            let msg = validate_dc(bad).unwrap_err().to_string();
            assert!(msg.contains(&format!("{bad}")), "value missing in: {msg}");
            assert!(msg.contains("1.5e-154"), "range missing in: {msg}");
        }
        // Underflowing values: same requirements through the other branch.
        let msg = validate_dc(1e-170).unwrap_err().to_string();
        assert!(msg.contains("1e-170"), "value missing in: {msg}");
        assert!(msg.contains("1.5e-154"), "range missing in: {msg}");
    }

    #[test]
    fn validate_rho_len_checks_length() {
        assert!(validate_rho_len(&[1.0, 2.0, 3.0], 3).is_ok());
        assert!(validate_rho_len(&[1.0, 2.0], 3).is_err());
    }

    #[test]
    fn weighted_rho_scan_cutoff_matches_integer_counts() {
        let data = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.5, 0.0),
            (0.0, 0.5),
            (5.0, 5.0),
            (5.2, 5.0),
        ]);
        let rho = weighted_rho_scan(
            &data,
            1.0,
            crate::kernel::Kernel::Cutoff,
            ExecPolicy::Sequential,
        )
        .unwrap();
        assert_eq!(rho, vec![2.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn weighted_rho_scan_gaussian_weights_and_truncates() {
        let data = Dataset::from_coords(vec![(0.0, 0.0), (0.5, 0.0), (2.0, 0.0)]);
        let k = crate::kernel::Kernel::gaussian(1.0);
        let rho = weighted_rho_scan(&data, 1.0, k, ExecPolicy::Sequential).unwrap();
        let w = k.weight(0.5);
        // Point 2 is outside everyone's dc: weight truncates to exactly 0.
        assert_eq!(rho[2], 0.0);
        assert_eq!(rho[0], w);
        assert_eq!(rho[1], w);
        // Parallel partitioning is bit-identical.
        let rho_par = weighted_rho_scan(&data, 1.0, k, ExecPolicy::Threads(4)).unwrap();
        assert_eq!(rho, rho_par);
    }

    #[test]
    fn weighted_rho_scan_validates_dc_and_kernel() {
        let data = Dataset::from_coords(vec![(0.0, 0.0)]);
        let k = crate::kernel::Kernel::gaussian(1.0);
        assert!(weighted_rho_scan(&data, 0.0, k, ExecPolicy::Sequential).is_err());
        let bad = crate::kernel::Kernel::gaussian(-1.0);
        assert!(weighted_rho_scan(&data, 1.0, bad, ExecPolicy::Sequential).is_err());
    }

    #[test]
    fn index_stats_counters() {
        let s = IndexStats::new(Duration::from_millis(5), 1024)
            .with_counter("nodes", 17)
            .with_counter("height", 3);
        assert_eq!(s.counter("nodes"), Some(17));
        assert_eq!(s.counter("height"), Some(3));
        assert_eq!(s.counter("missing"), None);
        assert_eq!(s.memory_bytes, 1024);
    }
}
