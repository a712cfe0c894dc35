//! The streaming DPC engine: [`StreamingDpc`].
//!
//! ## The epoch-batched maintenance pipeline
//!
//! Every mutation of the window — a single [`insert`](StreamingDpc::insert),
//! a single [`remove`](StreamingDpc::remove), a sliding-window
//! [`advance`](StreamingDpc::advance), or an arbitrary
//! [`EpochPlan`] — runs through one pipeline,
//! [`commit`](StreamingDpc::commit), which pays the expensive maintenance
//! **once per epoch** rather than once per update:
//!
//! 1. **Validate** the whole batch up front (finite coordinates, live
//!    handles, no duplicates) so a rejected plan leaves the engine untouched.
//! 2. **Mutate the index** in one [`UpdatableIndex::apply_batch`] call —
//!    ops execute in submission order with the exact per-update id semantics
//!    (inserts append, removals swap-remove), but the index may defer its
//!    internal amortised triggers (k-d scapegoat rebuilds, R-tree forced
//!    reinsertion) to the end of the batch. The engine mirrors every op in
//!    its handle map and per-point arrays, tracking the provenance of each
//!    final slot (survivor of old id `o` / inserted this epoch).
//! 3. **Repair ρ** with one ε-query per *net* mutation, all against the
//!    final index: each expired pre-epoch location subtracts its (aged)
//!    pair weight `λᵃᵍᵉ·w(d)` from the surviving neighbours it used to
//!    count, each surviving insert gets a fresh weighted sum and adds
//!    `w(d)` to its surviving neighbours — under the default
//!    [`Kernel::Cutoff`](dpc_core::Kernel) without decay every weight is
//!    exactly 1.0 and this is the classic integer ±1 repair, bit for bit. A
//!    visited bitmap deduplicates the touched survivors into the epoch's
//!    **affected union** `U`. Points both inserted and expired within the
//!    batch are *ephemeral* and contribute nothing.
//! 4. **Repair δ/µ once**: the invalidation set `F` — the union `U`, the
//!    inserted points, survivors renamed to a smaller id by a swap-remove,
//!    points whose µ expired, was renamed, or sits in `U` (found by a single
//!    µ scan that also renames surviving µ ids), and the old and new global
//!    peaks — is recomputed from scratch by the index's per-target δ-query
//!    ([`UpdatableIndex::delta_targets`]); everyone else min-folds the
//!    candidate entrants (`U` ∪ inserted ∪ renamed), grouped under tight
//!    boxes so a point skips every group beyond its δ. When `|F|` exceeds
//!    [`StreamParams::max_affected_fraction`] of the window the engine falls
//!    back to one full δ/µ recomputation for the epoch: the index's own
//!    δ-query, the one the cold batch pipeline runs.
//! 5. **Re-cluster once** (centre selection + assignment on the maintained
//!    `(ρ, δ, µ)`) and emit one [`ClusterDelta`] for the whole batch.
//!
//! Why each piece of `F` is sufficient, and why everyone else only needs the
//! candidate fold, is derived step by step in `docs/STREAMING.md`.
//!
//! Steps 3 and 4 each have a full-query twin, under one threshold,
//! [`StreamParams::max_affected_fraction`] of the window. When the epoch
//! needs more ε-queries than that (one per expired survivor and one per
//! surviving insert), ρ is recomputed by the index's own ρ-query and δ/µ by
//! its δ-query — the two queries the cold batch pipeline runs — and no
//! affected or invalidation set is built ([`EpochMode::Full`]). When only
//! `|F|` passes the threshold, the ρ repair stands and δ/µ alone are
//! recomputed ([`EpochMode::Fallback`]). With decay enabled ρ depends on the
//! window's history, so a decayed epoch never takes the ρ twin.
//!
//! The correctness anchor (enforced by the equivalence property suite at
//! batch sizes 1, 7 and 64) is: after **every** epoch, the engine's `(ρ, δ,
//! µ, labels, centres)` are bit-identical both to a per-update replay of the
//! same ops and to a cold batch run over the surviving points, for every
//! [`UpdatableIndex`] implementation, at every thread count.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use dpc_core::{
    assign_clusters, BatchOp, Clustering, DecisionGraph, DeltaResult, DensityOrder, DpcError,
    DpcParams, Kernel, Point, PointId, Query, Result, Rho, StateSnapshot, UpdatableIndex,
};
use dpc_obs::{span, SharedRecorder};

use crate::epoch::{EpochPlan, PlanOp};
use crate::handle::{Handle, HandleMap};
use crate::maintenance::candidate_pass;
use crate::report::{ClusterDelta, LabelChange};
use crate::snapshot::{EpochSnapshot, SnapshotSink};

/// Parameters of a streaming run: the batch DPC parameters plus the
/// incremental-maintenance knobs.
///
/// ```
/// use dpc_stream::StreamParams;
///
/// let params = StreamParams::new(0.5).with_max_affected_fraction(0.4);
/// assert_eq!(params.dpc.dc, 0.5);
/// assert!(params.validate().is_ok());
/// assert!(StreamParams::new(0.5)
///     .with_max_affected_fraction(f64::NAN)
///     .validate()
///     .is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParams {
    /// The clustering parameters (`dc`, centre selection, tie-break,
    /// assignment options, execution policy). The execution policy is used
    /// for the parallel maintenance passes as well as the seeding batch
    /// queries.
    pub dpc: DpcParams,
    /// The one threshold of both full-query fallbacks, as a fraction of the
    /// window. When an epoch needs more ε-queries than this, ρ and δ/µ are
    /// recomputed by the index's batch queries ([`EpochMode::Full`]); when
    /// only its invalidation set exceeds it, δ/µ alone are
    /// ([`EpochMode::Fallback`]). 1.0 (or anything ≥ 1.0) effectively
    /// disables both; 0.0 forces a fallback on every epoch (useful for
    /// testing).
    pub max_affected_fraction: f64,
    /// Per-epoch time-decay factor λ ∈ (0, 1] of the weighted densities:
    /// every committed epoch (and every [`StreamingDpc::tick`]) multiplies
    /// each pair's density contribution by λ, so a contribution aged `k`
    /// epochs weighs `λᵏ·w(d)`. The default 1.0 disables decay — densities
    /// then depend only on the current window, never on its history.
    ///
    /// Decay never changes *which* points interact (the kernel support stays
    /// strictly within `dc`), so the affected-set machinery is untouched; it
    /// only rescales the weights. A decayed epoch always re-ranks δ/µ in
    /// full and never recomputes ρ from a batch query: decayed ρ is
    /// history-dependent, so it is always repaired.
    pub decay: f64,
}

impl StreamParams {
    /// Streaming parameters with the given cut-off and defaults for
    /// everything else (fallback threshold 0.25, no decay).
    pub fn new(dc: f64) -> Self {
        StreamParams {
            dpc: DpcParams::new(dc),
            max_affected_fraction: 0.25,
            decay: 1.0,
        }
    }

    /// Replaces the embedded batch parameters.
    pub fn with_dpc(mut self, dpc: DpcParams) -> Self {
        self.dpc = dpc;
        self
    }

    /// Sets the fallback threshold.
    pub fn with_max_affected_fraction(mut self, fraction: f64) -> Self {
        self.max_affected_fraction = fraction;
        self
    }

    /// Sets the per-epoch time-decay factor λ (1.0 disables decay).
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<()> {
        self.dpc.validate()?;
        if !(self.max_affected_fraction.is_finite() && self.max_affected_fraction >= 0.0) {
            return Err(DpcError::invalid_parameter(
                "max_affected_fraction",
                format!(
                    "must be a finite non-negative fraction, got {}",
                    self.max_affected_fraction
                ),
            ));
        }
        if !(self.decay.is_finite() && self.decay > 0.0 && self.decay <= 1.0) {
            return Err(DpcError::invalid_parameter(
                "decay",
                format!(
                    "per-epoch decay factor must be a positive finite number \
                     (valid range: 0 < decay <= 1), got {}",
                    self.decay
                ),
            ));
        }
        Ok(())
    }
}

/// What one committed epoch actually did, recorded in
/// [`StreamStats::last_epoch_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Affected-set repair: ρ repair, candidate fold and bounded δ/µ
    /// recompute.
    Incremental,
    /// ρ repaired, but the invalidation set exceeded
    /// [`StreamParams::max_affected_fraction`] and δ/µ were recomputed for
    /// every point by the index's δ-query.
    Fallback,
    /// The epoch needed more ε-queries than
    /// [`StreamParams::max_affected_fraction`] of the window: ρ and δ/µ were
    /// recomputed by the index's ρ- and δ-queries, with no affected or
    /// invalidation set built. Never taken with decay enabled.
    Full,
    /// A pure decay tick ([`StreamingDpc::tick`]): no window mutation, one
    /// scalar ρ aging pass plus a full δ/µ re-rank, zero ε-queries.
    Decay,
}

impl EpochMode {
    /// The mode's stable name (log lines and report fields).
    pub fn name(self) -> &'static str {
        match self {
            EpochMode::Incremental => "incremental",
            EpochMode::Fallback => "fallback",
            EpochMode::Full => "full",
            EpochMode::Decay => "decay",
        }
    }
}

/// Cumulative counters describing how much incremental work the engine did.
///
/// An *epoch* is one clustering step (one `insert`, `remove`, `advance` or
/// committed [`EpochPlan`]); an *update* is one point mutation inside it.
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, Point};
/// use dpc_stream::{EpochMode, StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (4.0, 4.0), (4.1, 4.0)]);
/// let mut engine =
///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
/// // One advance = one epoch, however many points it slides.
/// engine.advance(&[Point::new(0.05, 0.0), Point::new(4.05, 4.0)], 2).unwrap();
/// let stats = engine.stats();
/// assert_eq!(stats.epochs, 1);
/// assert_eq!(stats.updates, 4); // 2 evictions + 2 insertions
/// // Four ε-queries in a window of four pass the default threshold (0.25 of
/// // the window), so the index's batch queries recomputed ρ and δ/µ.
/// assert_eq!(stats.last_epoch_mode, Some(EpochMode::Full));
/// assert_eq!(stats.rebuild_epochs, 1);
/// assert_eq!(stats.eps_queries, 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Clustering epochs emitted (committed plans; an empty plan is not an
    /// epoch). The seeding pass is epoch 0 and is not counted.
    pub epochs: u64,
    /// Individual point updates applied (an `advance` counts each insertion
    /// and eviction separately; an ephemeral point counts both its insert
    /// and its expiry).
    pub updates: u64,
    /// Epochs repaired incrementally (candidate fold + bounded recompute).
    pub incremental_epochs: u64,
    /// Epochs that fell back to a full δ/µ recomputation.
    pub fallback_epochs: u64,
    /// Epochs that recomputed ρ and δ/µ with the index's batch queries
    /// ([`EpochMode::Full`]). The name is kept for the frozen benchmark
    /// harness, which reads this field. Every plan-committing epoch lands in
    /// exactly one of the three mode counters; pure decay ticks land in
    /// [`decay_epochs`](Self::decay_epochs) instead.
    pub rebuild_epochs: u64,
    /// Pure decay epochs ([`StreamingDpc::tick`]): scalar ρ aging plus a
    /// full δ/µ re-rank, no window mutation. Effective ticks only — with
    /// decay disabled a tick is a no-op and is not counted.
    pub decay_epochs: u64,
    /// ε-range queries issued by the incremental ρ repair (one per expired
    /// survivor location and one per surviving insert). Decay ticks and
    /// [`EpochMode::Full`] epochs issue none.
    pub eps_queries: u64,
    /// Sum over epochs of the affected-union size |U| (distinct surviving
    /// points whose ρ was touched by the epoch's ε-neighbourhoods).
    pub affected_points: u64,
    /// Sum over epochs of the invalidation-set size |F| (points fully
    /// recomputed when on the incremental path).
    pub invalidated_points: u64,
    /// Wall-clock µs the *last* epoch spent in density maintenance (plan
    /// application through δ/µ repair; excludes re-clustering).
    pub last_epoch_micros: u64,
    /// What the last committed epoch did (`None` before the first epoch).
    pub last_epoch_mode: Option<EpochMode>,
}

/// Provenance of a dense slot while an epoch is being applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Survivor: held pre-epoch dense id `o`.
    Old(PointId),
    /// Inserted by this epoch (payload: the plan's insert ordinal).
    New(usize),
}

/// Reusable per-epoch working memory of [`StreamingDpc::commit`]. Every
/// buffer is cleared (not shrunk) at the start of the phase that fills it,
/// so a steady-state stream commits epochs without allocating.
#[derive(Debug, Clone, Default)]
struct CommitScratch {
    /// Provenance of each dense slot while the plan is applied.
    owner: Vec<Origin>,
    /// The plan translated to resolved-id index ops.
    batch_ops: Vec<BatchOp>,
    /// Pre-epoch coordinates of every expired survivor.
    removed_old_locs: Vec<Point>,
    /// Birth epoch of every expired survivor, parallel to
    /// `removed_old_locs` — the ρ repair needs it to subtract each expiring
    /// pair at its current decayed weight.
    removed_old_births: Vec<u64>,
    /// Final dense ids of the points inserted this epoch.
    inserted_final: Vec<PointId>,
    /// Pre-epoch id → final id (`None` = expired).
    final_of_old: Vec<Option<PointId>>,
    /// Dedup bitmap behind the affected union U.
    visited: Vec<bool>,
    /// The affected union U (distinct survivors whose ρ changed).
    union: Vec<PointId>,
    /// The invalidation set F (recompute targets).
    invalidated: Vec<PointId>,
    /// Survivors renamed to a smaller id by a swap-remove.
    renamed: Vec<PointId>,
    /// Membership bitmap of F for the candidate fold.
    skip: Vec<bool>,
    /// Candidate entrants (U ∪ inserted ∪ renamed) for the min-fold.
    candidates: Vec<PointId>,
}

/// What one committed epoch's maintenance did, handed from
/// [`StreamingDpc::commit_incremental`] back to [`StreamingDpc::commit`] for
/// timing and stats.
struct EpochOutcome {
    /// One handle per planned insert, in plan order.
    planned_handles: Vec<Handle>,
    /// Which path the epoch actually took.
    mode: EpochMode,
    /// |F| on the incremental/fallback path (0 for a full epoch, which never
    /// materialises an invalidation set).
    invalidated: usize,
}

/// An online Density Peak Clustering engine over a mutable window of points.
///
/// See the [module docs](self) for the maintenance pipeline and
/// `docs/STREAMING.md` for the full internals contract. Typical use:
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{CenterSelection, Dataset, Point};
/// use dpc_stream::{StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
/// let index = NaiveReferenceIndex::build(&seed);
/// let params = StreamParams::new(0.5)
///     .with_dpc(dpc_core::DpcParams::new(0.5)
///         .with_centers(CenterSelection::TopKGamma { k: 2 }));
/// let mut engine = StreamingDpc::new(index, params).unwrap();
/// assert_eq!(engine.clustering().num_clusters(), 2);
///
/// // Points arrive and expire without ever rebuilding the index.
/// let (handle, delta) = engine.insert(Point::new(0.05, 0.05)).unwrap();
/// assert_eq!(delta.insertions(), 1);
/// let delta = engine.remove(handle).unwrap();
/// assert_eq!(delta.evictions(), 1);
/// ```
///
/// The sliding-window loop most stream consumers want — batches arrive, the
/// same number of oldest points expire, one clustering epoch per batch:
///
/// ```
/// use dpc_core::naive_reference::NaiveReferenceIndex;
/// use dpc_core::{Dataset, Point};
/// use dpc_stream::{StreamParams, StreamingDpc};
///
/// let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.1), (4.0, 4.0), (4.1, 4.1)]);
/// let mut engine =
///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
/// let arrivals = vec![
///     vec![Point::new(4.05, 4.0), Point::new(0.05, 0.0)],
///     vec![Point::new(0.0, 0.05), Point::new(4.0, 4.05)],
/// ];
/// for batch in &arrivals {
///     let (handles, delta) = engine.advance(batch, batch.len()).unwrap();
///     assert_eq!(handles.len(), 2);
///     assert_eq!(delta.insertions(), 2);
///     assert_eq!(delta.evictions(), 2);
/// }
/// assert_eq!(engine.len(), 4); // the window size never drifted
/// assert_eq!(engine.epoch(), 2); // one epoch per batch, not per point
/// ```
#[derive(Debug, Clone)]
pub struct StreamingDpc<I: UpdatableIndex> {
    index: I,
    params: StreamParams,
    rho: Vec<Rho>,
    deltas: DeltaResult,
    /// Birth epoch of each dense slot, on the [`age_epoch`](Self::age_epoch)
    /// clock: a pair's decay exponent is `age_epoch − max(birth_p, birth_q)`.
    /// Maintained through the same push/swap-remove choreography as `rho`;
    /// inert (but still tracked) when decay is disabled.
    births: Vec<u64>,
    handles: HandleMap,
    /// Dense id of the global peak (`None` for an empty window).
    peak: Option<PointId>,
    clustering: Clustering,
    /// Stable view of the previous epoch: `(point handle, centre handle)`
    /// pairs in ascending point-handle order.
    assignment: Vec<(Handle, Handle)>,
    epoch: u64,
    /// The decay clock: how many aging passes (committed epochs + effective
    /// ticks) have run. Decoupled from [`epoch`](Self::epoch) so a
    /// clustering-stage error — which leaves the density state exact but the
    /// epoch counter unbumped — cannot skew the decay exponents.
    age_epoch: u64,
    stats: StreamStats,
    /// Reusable per-epoch working memory (taken out for the duration of a
    /// commit, put back afterwards).
    scratch: CommitScratch,
    /// Observability sink for phase spans, query telemetry and maintenance
    /// gauges. Defaults to the shared no-op recorder, which keeps every
    /// instrumented site down to a predictable branch; see
    /// [`set_recorder`](Self::set_recorder).
    recorder: SharedRecorder,
    /// Publication sink for epoch snapshots (`None` by default). When set,
    /// every successfully committed non-empty epoch freezes an
    /// [`EpochSnapshot`] after re-clustering and hands it to the sink; see
    /// [`set_snapshot_sink`](Self::set_snapshot_sink).
    sink: Option<Arc<dyn SnapshotSink>>,
}

impl<I: UpdatableIndex> StreamingDpc<I> {
    /// Seeds the engine with an index (and the dataset it owns), running one
    /// batch ρ/δ query plus an initial clustering epoch.
    ///
    /// Errors when the parameters are invalid, when the index's tie-break
    /// rule disagrees with the parameters, when the index is approximate
    /// (incremental maintenance needs exact δ/µ), or when the initial centre
    /// selection fails.
    pub fn new(index: I, params: StreamParams) -> Result<Self> {
        params.validate()?;
        if index.tie_break() != params.dpc.tie_break {
            return Err(DpcError::invalid_parameter(
                "tie_break",
                "the index and the stream parameters must agree on the density tie-break rule",
            ));
        }
        if !index.is_exact() {
            return Err(DpcError::invalid_parameter(
                "index",
                "streaming maintenance requires an exact index (approximate \
                 δ clipping cannot be repaired incrementally)",
            ));
        }
        let n = index.len();
        let (rho, deltas) = if n == 0 {
            (Vec::new(), DeltaResult::unset(0))
        } else {
            let q = params.dpc.query();
            let rho = index.rho_query(&q)?;
            let deltas = index.delta_query(&q, &rho)?;
            (rho, deltas)
        };
        let peak = DensityOrder::with_tie_break(&rho, params.dpc.tie_break).global_peak();
        let mut engine = StreamingDpc {
            index,
            params,
            rho,
            deltas,
            births: vec![0; n],
            handles: HandleMap::with_dense_len(n),
            peak,
            clustering: Clustering::new(vec![], vec![], vec![]),
            assignment: Vec::new(),
            epoch: 0,
            age_epoch: 0,
            stats: StreamStats::default(),
            scratch: CommitScratch::default(),
            recorder: dpc_obs::noop(),
            sink: None,
        };
        // The seeding pass is epoch 0, not a streamed delta.
        engine.recluster()?;
        engine.epoch = 0;
        engine.stats.epochs = 0;
        Ok(engine)
    }

    /// Number of points currently in the window.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// The current clustering epoch (0 right after seeding).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The mutation version of the underlying dataset: monotonically
    /// increasing, bumped by every applied point mutation and by nothing
    /// else — committing an empty [`EpochPlan`] (or `advance(&[], 0)`)
    /// leaves it unchanged.
    ///
    /// ```
    /// use dpc_core::naive_reference::NaiveReferenceIndex;
    /// use dpc_core::{Dataset, Point};
    /// use dpc_stream::{StreamParams, StreamingDpc};
    ///
    /// let seed = Dataset::from_coords(vec![(0.0, 0.0), (1.0, 1.0)]);
    /// let mut engine =
    ///     StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
    /// let v0 = engine.version();
    /// engine.advance(&[], 0).unwrap(); // empty epoch: a no-op
    /// assert_eq!(engine.version(), v0);
    /// engine.insert(Point::new(2.0, 2.0)).unwrap();
    /// assert!(engine.version() > v0);
    /// ```
    pub fn version(&self) -> u64 {
        self.index.dataset().version()
    }

    /// The underlying index (and through it the current dataset).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// The streaming parameters.
    pub fn params(&self) -> &StreamParams {
        &self.params
    }

    /// Maintained local densities, indexed by dense [`PointId`].
    pub fn rho(&self) -> &[Rho] {
        &self.rho
    }

    /// Maintained δ/µ, indexed by dense [`PointId`].
    pub fn deltas(&self) -> &DeltaResult {
        &self.deltas
    }

    /// The clustering of the current epoch.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Cumulative maintenance counters.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// The engine's observability sink (the shared no-op recorder by
    /// default).
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// Attaches an observability sink, effective from the next committed
    /// epoch. Every epoch then emits phase spans (`stream.phase.*` nested
    /// under `stream.epoch`), maintenance counters/histograms and per-query
    /// telemetry.
    ///
    /// Recording never changes results: ρ, δ, µ and labels are bit-identical
    /// whatever the recorder (the equivalence proptests pin this down).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Builder-style [`set_recorder`](Self::set_recorder).
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// Attaches a snapshot publication sink, effective from the next
    /// committed epoch: every successfully committed non-empty epoch then
    /// freezes an [`EpochSnapshot`] (after re-clustering, under a
    /// `stream.phase.publish` span) and hands it to the sink. Committing an
    /// empty plan publishes nothing — the state did not change. The sink
    /// never affects results; it only observes them.
    pub fn set_snapshot_sink(&mut self, sink: Arc<dyn SnapshotSink>) {
        self.sink = Some(sink);
    }

    /// Detaches the snapshot sink, if any.
    pub fn clear_snapshot_sink(&mut self) {
        self.sink = None;
    }

    /// Freezes the engine's *current* state as an [`EpochSnapshot`] with an
    /// empty delta — the form a serving layer publishes at attach time,
    /// before any epoch has been committed through the sink.
    pub fn snapshot(&self) -> EpochSnapshot {
        self.snapshot_with_delta(ClusterDelta {
            epoch: self.epoch,
            num_clusters: self.clustering.num_clusters(),
            births: Vec::new(),
            deaths: Vec::new(),
            recentred: Vec::new(),
            changed: Vec::new(),
        })
    }

    /// Freezes the engine's current state, attaching `delta` as the epoch's
    /// advancing delta.
    fn snapshot_with_delta(&self, delta: ClusterDelta) -> EpochSnapshot {
        let state = StateSnapshot::capture(
            self.index.dataset(),
            &self.rho,
            &self.deltas,
            &self.clustering,
        );
        let handles: Vec<Handle> = (0..self.rho.len())
            .map(|p| self.handles.handle_at(p))
            .collect();
        EpochSnapshot::new(self.epoch, state, handles, delta)
    }

    /// The stable handle of the point at dense id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn handle_at(&self, id: PointId) -> Handle {
        self.handles.handle_at(id)
    }

    /// The dense id currently behind a handle (`None` once evicted).
    pub fn dense_of(&self, handle: Handle) -> Option<PointId> {
        self.handles.dense_of(handle)
    }

    /// The coordinates behind a handle (`None` once evicted).
    pub fn point_of(&self, handle: Handle) -> Option<Point> {
        self.dense_of(handle)
            .map(|id| self.index.dataset().point(id))
    }

    /// The oldest live handle (the next sliding-window eviction victim).
    pub fn oldest(&self) -> Option<Handle> {
        self.handles.oldest()
    }

    /// All live handles in ascending (arrival) order.
    pub fn live_handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.handles.live()
    }

    /// Inserts a point — an epoch of one update. Maintains ρ/δ/µ,
    /// re-clusters, and reports what changed.
    ///
    /// # Errors and partial progress
    ///
    /// The window mutation and the density maintenance happen *before* the
    /// clustering stage, so an error from centre selection or assignment
    /// (possible with non-adaptive rules like
    /// [`TopKGamma`](dpc_core::CenterSelection::TopKGamma) when `k` exceeds
    /// the window, or a `Threshold` no point satisfies) leaves the point
    /// **inserted** and ρ/δ/µ exact — only [`clustering`](Self::clustering)
    /// still describes the previous epoch. The new point's handle is then
    /// reachable via [`live_handles`](Self::live_handles) (it is the
    /// largest). Do not retry the mutation after such an error; fix the
    /// selection rule instead (the adaptive default,
    /// [`GammaGap`](dpc_core::CenterSelection::GammaGap), cannot fail on a
    /// non-empty window).
    pub fn insert(&mut self, p: Point) -> Result<(Handle, ClusterDelta)> {
        let mut plan = EpochPlan::new();
        plan.insert(p);
        let (handles, delta) = self.commit(&plan)?;
        Ok((handles[0], delta))
    }

    /// Evicts a point by handle — an epoch of one update. Maintains ρ/δ/µ,
    /// re-clusters, and reports what changed.
    ///
    /// # Errors and partial progress
    ///
    /// Same contract as [`insert`](Self::insert): if the clustering stage
    /// fails, the point **has been evicted** and the density state is exact;
    /// only the stored clustering is stale. Do not retry the eviction.
    pub fn remove(&mut self, handle: Handle) -> Result<ClusterDelta> {
        let mut plan = EpochPlan::new();
        plan.remove(handle);
        let (_, delta) = self.commit(&plan)?;
        Ok(delta)
    }

    /// Slides the window: evicts the `evict_count` oldest points (clamped to
    /// the window size), inserts `batch_in`, then runs **one** clustering
    /// epoch covering the whole batch. Returns the handles of the inserted
    /// points and the epoch's delta.
    ///
    /// An empty advance (`batch_in` empty, `evict_count` 0) is a complete
    /// no-op: no epoch is counted, [`version`](Self::version) is unchanged,
    /// and the returned delta is empty.
    ///
    /// # Errors and partial progress
    ///
    /// The batch is validated before anything is applied, so an invalid
    /// point (NaN/∞ coordinates) rejects the whole advance with the window
    /// untouched. If the *clustering* stage fails, the contract of
    /// [`insert`](Self::insert) applies: every update has been applied and
    /// ρ/δ/µ are exact, only the stored clustering is stale.
    pub fn advance(
        &mut self,
        batch_in: &[Point],
        evict_count: usize,
    ) -> Result<(Vec<Handle>, ClusterDelta)> {
        let mut plan = EpochPlan::new();
        for victim in self.handles.live().take(evict_count.min(self.len())) {
            plan.remove(victim);
        }
        for &p in batch_in {
            plan.insert(p);
        }
        self.commit(&plan)
    }

    /// Advances time without moving the window: one **pure decay epoch**.
    ///
    /// Every pair's density contribution ages by one factor of λ
    /// ([`StreamParams::decay`]), δ/µ are re-ranked in full — λ-scaling can
    /// collapse two neighbouring f64 densities onto the same float and flip
    /// an id tie-break, so the whole order is re-derived — and one
    /// clustering epoch runs. The window itself is untouched: **no
    /// ε-queries are issued** ([`StreamStats::eps_queries`] is unchanged;
    /// the regression suite pins this down) and [`version`](Self::version)
    /// does not move.
    ///
    /// With decay disabled (λ = 1.0) or an empty window a tick is a
    /// complete no-op: no epoch is counted and the returned delta is empty.
    ///
    /// # Errors and partial progress
    ///
    /// Same contract as [`insert`](Self::insert): only the clustering stage
    /// can fail, leaving the aged density state exact and the stored
    /// clustering stale.
    pub fn tick(&mut self) -> Result<ClusterDelta> {
        let lambda = self.params.decay;
        if lambda == 1.0 || self.is_empty() {
            return Ok(ClusterDelta {
                epoch: self.epoch,
                num_clusters: self.clustering.num_clusters(),
                births: Vec::new(),
                deaths: Vec::new(),
                recentred: Vec::new(),
                changed: Vec::new(),
            });
        }
        let rec = self.recorder.clone();
        let _epoch_span = span(&rec, "stream.epoch");
        let started = Instant::now();
        {
            let _decay_span = span(&rec, "stream.phase.decay");
            self.age_epoch += 1;
            for r in &mut self.rho {
                *r *= lambda;
            }
            let q = Query {
                rec: &*rec,
                ..self.params.dpc.query()
            };
            self.deltas = self.index.delta_query(&q, &self.rho)?;
            self.peak =
                DensityOrder::with_tie_break(&self.rho, self.params.dpc.tie_break).global_peak();
        }
        let micros = started.elapsed().as_micros() as u64;
        self.stats.decay_epochs += 1;
        self.stats.last_epoch_micros = micros;
        self.stats.last_epoch_mode = Some(EpochMode::Decay);
        if rec.enabled() {
            rec.counter("stream.epochs", 1);
            rec.counter("stream.epochs.decay", 1);
            rec.record("stream.decay.rerank_points", self.rho.len() as u64);
            rec.record("stream.epoch.maintenance_us", micros);
        }
        let delta = {
            let _recluster_span = span(&rec, "stream.phase.recluster");
            self.recluster()?
        };
        if let Some(sink) = self.sink.clone() {
            let _publish_span = span(&rec, "stream.phase.publish");
            sink.publish(Arc::new(self.snapshot_with_delta(delta.clone())));
        }
        Ok(delta)
    }

    /// Applies a whole [`EpochPlan`] as **one** clustering epoch — the
    /// engine's single maintenance pipeline (see the [module docs](self);
    /// `insert`, `remove` and `advance` are thin wrappers over it).
    ///
    /// Returns one [`Handle`] per planned insert, in plan order (handles of
    /// ephemeral points — inserted and expired by the same plan — are
    /// already dead), and the epoch's [`ClusterDelta`]. Committing an empty
    /// plan is a no-op: no mutation, no epoch, an empty delta.
    ///
    /// # Errors and partial progress
    ///
    /// The plan is validated *before* any mutation (finite coordinates, live
    /// un-duplicated handles, tokens belonging to this plan), so a rejected
    /// plan leaves the engine untouched. After validation the only failable
    /// stage is clustering; see [`insert`](Self::insert) for that contract.
    pub fn commit(&mut self, plan: &EpochPlan) -> Result<(Vec<Handle>, ClusterDelta)> {
        if plan.is_empty() {
            let delta = ClusterDelta {
                epoch: self.epoch,
                num_clusters: self.clustering.num_clusters(),
                births: Vec::new(),
                deaths: Vec::new(),
                recentred: Vec::new(),
                changed: Vec::new(),
            };
            return Ok((Vec::new(), delta));
        }
        // One guard for the whole epoch: created before the phase spans and
        // dropped after re-clustering, so phases nest under it in a trace.
        let rec = self.recorder.clone();
        let _epoch_span = span(&rec, "stream.epoch");
        {
            let _validate_span = span(&rec, "stream.phase.validate");
            self.validate_plan(plan)?;
        }

        // The scratch buffers move out for the duration of the epoch so the
        // maintenance can borrow them field-by-field alongside `self`; they
        // are put back (grown, never shrunk) whatever the outcome.
        let updates = plan.ops.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        let started = Instant::now();
        let outcome = self.commit_incremental(plan, &mut scratch);
        self.scratch = scratch;
        let outcome = outcome?;
        let micros = started.elapsed().as_micros() as u64;

        match outcome.mode {
            EpochMode::Incremental => {
                self.stats.incremental_epochs += 1;
                self.stats.invalidated_points += outcome.invalidated as u64;
            }
            EpochMode::Fallback => self.stats.fallback_epochs += 1,
            EpochMode::Full => self.stats.rebuild_epochs += 1,
            EpochMode::Decay => unreachable!("decay epochs come from tick(), not commit()"),
        }
        self.stats.last_epoch_micros = micros;
        self.stats.last_epoch_mode = Some(outcome.mode);

        if rec.enabled() {
            rec.counter("stream.epochs", 1);
            rec.counter("stream.updates", updates as u64);
            rec.counter(
                match outcome.mode {
                    EpochMode::Incremental => "stream.epochs.incremental",
                    EpochMode::Fallback => "stream.epochs.fallback",
                    EpochMode::Full => "stream.epochs.full",
                    EpochMode::Decay => "stream.epochs.decay",
                },
                1,
            );
            rec.record("stream.invalidated", outcome.invalidated as u64);
            rec.record("stream.epoch.maintenance_us", micros);
            // Index maintenance triggers (scapegoat/dead-fraction rebuilds,
            // reinsertion rounds, …) as gauges: cumulative values, plottable
            // as counter tracks.
            let index_name = self.index.name();
            for (counter, value) in self.index.maintenance_counters() {
                rec.gauge(&format!("index.{index_name}.{counter}"), value as f64);
            }
        }

        // Phase 5 — one clustering epoch for the whole batch.
        let delta = {
            let _recluster_span = span(&rec, "stream.phase.recluster");
            self.recluster()?
        };
        // Phase 6 (optional) — freeze and publish the epoch snapshot. This
        // is the single-writer half of the serving layer: the snapshot is
        // immutable from here on, so readers need no coordination with the
        // next epoch's maintenance.
        if let Some(sink) = self.sink.clone() {
            let _publish_span = span(&rec, "stream.phase.publish");
            sink.publish(Arc::new(self.snapshot_with_delta(delta.clone())));
        }
        Ok((outcome.planned_handles, delta))
    }

    /// Phase 1 — translates the plan into resolved-id index ops, mirroring
    /// every op in the handle map and the per-point arrays so handle → id
    /// resolution tracks the mid-batch state. `scratch.owner` records, for
    /// each dense slot, whether it holds a survivor (and its pre-epoch id)
    /// or a point inserted this epoch. The dataset itself is not mutated
    /// yet.
    fn apply_plan(&mut self, plan: &EpochPlan, scratch: &mut CommitScratch) -> Vec<Handle> {
        let n_old = self.rho.len();
        scratch.owner.clear();
        scratch.owner.extend((0..n_old).map(Origin::Old));
        scratch.batch_ops.clear();
        scratch.removed_old_locs.clear();
        scratch.removed_old_births.clear();
        let mut planned_handles: Vec<Handle> = Vec::with_capacity(plan.insert_count());
        for op in &plan.ops {
            let handle = match *op {
                PlanOp::Insert(p, _) => {
                    scratch.batch_ops.push(BatchOp::Insert(p));
                    planned_handles.push(self.handles.push());
                    scratch.owner.push(Origin::New(planned_handles.len() - 1));
                    self.rho.push(0.0);
                    self.births.push(self.age_epoch);
                    self.deltas.delta.push(f64::INFINITY);
                    self.deltas.mu.push(None);
                    continue;
                }
                PlanOp::Remove(h) => h,
                PlanOp::RemovePlanned(k) => planned_handles[k],
            };
            let id = self
                .handles
                .dense_of(handle)
                .expect("validated: handle is live at this op");
            if let Origin::Old(old_id) = scratch.owner[id] {
                // The dataset is still unmutated here, so the pre-epoch id
                // addresses the expiring coordinates.
                scratch
                    .removed_old_locs
                    .push(self.index.dataset().point(old_id));
                scratch.removed_old_births.push(self.births[id]);
            }
            scratch.batch_ops.push(BatchOp::Remove(id));
            self.handles.swap_remove(id);
            scratch.owner.swap_remove(id);
            self.rho.swap_remove(id);
            self.births.swap_remove(id);
            self.deltas.delta.swap_remove(id);
            self.deltas.mu.swap_remove(id);
        }
        planned_handles
    }

    /// The engine's one commit path: phases 2–4 of the pipeline (batch index
    /// mutation, ρ repair, bounded δ/µ repair), each repair with its
    /// full-query fallback. Re-clustering and the stats bookkeeping happen
    /// in [`commit`](Self::commit).
    fn commit_incremental(
        &mut self,
        plan: &EpochPlan,
        scratch: &mut CommitScratch,
    ) -> Result<EpochOutcome> {
        let rec = self.recorder.clone();
        let apply_span = span(&rec, "stream.phase.apply");
        let n_old = self.rho.len();
        // One tick of the decay clock per committed epoch: points inserted
        // below are born on it, and every surviving pair ages by one λ in
        // the pre-pass of the ρ repair.
        self.age_epoch += 1;
        let planned_handles = self.apply_plan(plan, scratch);

        // Phase 2 — one index call for the whole epoch; amortised triggers
        // (scapegoat rebuilds, forced reinsertion) fire at most once here.
        // Validation guarantees the ops themselves cannot fail.
        self.index.apply_batch(&scratch.batch_ops)?;
        debug_assert_eq!(self.index.len(), self.rho.len());
        debug_assert_eq!(self.handles.len(), self.rho.len());
        self.stats.updates += scratch.batch_ops.len() as u64;
        drop(apply_span);

        let n = self.rho.len();
        if n == 0 {
            self.peak = None;
            return Ok(EpochOutcome {
                planned_handles,
                mode: EpochMode::Incremental,
                invalidated: 0,
            });
        }

        // Phase 3 — ρ repair against the final index. `final_of_old` maps a
        // pre-epoch id to its final slot (None = expired); `visited` is the
        // dedup bitmap building the affected union U.
        let rho_span = span(&rec, "stream.phase.rho_repair");
        let dc = self.params.dpc.dc;
        let lambda = self.params.decay;
        scratch.inserted_final.clear();
        scratch.final_of_old.clear();
        scratch.final_of_old.resize(n_old, None);
        for (i, origin) in scratch.owner.iter().enumerate() {
            match *origin {
                Origin::Old(o) => scratch.final_of_old[o] = Some(i),
                Origin::New(_) => scratch.inserted_final.push(i),
            }
        }
        // The ρ twin of the δ fallback: an epoch needing more ε-queries than
        // the threshold recomputes ρ with the index's own ρ-query and δ/µ
        // with its δ-query — the cold pipeline's two queries — and builds no
        // U or F. Decayed ρ is history-dependent, so it is always repaired.
        let eps_queries = scratch.removed_old_locs.len() + scratch.inserted_final.len();
        if lambda == 1.0 && self.past_threshold(eps_queries, n) {
            let q = Query {
                rec: &*rec,
                ..self.params.dpc.query()
            };
            self.rho = self.index.rho_query(&q)?;
            drop(rho_span);
            let _delta_span = span(&rec, "stream.phase.delta_repair");
            self.deltas = self.index.delta_query(&q, &self.rho)?;
            self.peak =
                DensityOrder::with_tie_break(&self.rho, self.params.dpc.tie_break).global_peak();
            return Ok(EpochOutcome {
                planned_handles,
                mode: EpochMode::Full,
                invalidated: 0,
            });
        }
        scratch.visited.clear();
        scratch.visited.resize(n, false);
        scratch.union.clear();
        let touch = |q: PointId, visited: &mut Vec<bool>, union: &mut Vec<PointId>| {
            if !visited[q] {
                visited[q] = true;
                union.push(q);
            }
        };
        let kernel = self.params.dpc.kernel;
        // Decay pre-pass: every surviving pair ages by one λ before the
        // epoch's own mutations land. Inserted placeholders are zero and
        // unaffected; their fresh weights enter undecayed below. With decay
        // disabled the pass is skipped — ×1.0 would be a bit-exact no-op,
        // but an O(n) one.
        if lambda != 1.0 {
            for r in &mut self.rho {
                *r *= lambda;
            }
        }
        // Each expired pre-epoch location stops contributing to the ρ of
        // the survivors around it: the pair (r, q) entered at weight w(d)
        // when its younger member was born and has aged by λ every epoch
        // since — including this one's pre-pass — so the subtraction is the
        // aged weight λ^(age_epoch − max(birth_r, birth_q))·w(d). With the
        // cutoff kernel and no decay that is exactly 1.0, the pre-PR
        // integer decrement. Inserted points are skipped: their ρ is summed
        // fresh below, against the final window.
        for (&loc, &birth) in scratch
            .removed_old_locs
            .iter()
            .zip(&scratch.removed_old_births)
        {
            self.stats.eps_queries += 1;
            for q in self.index.eps_neighbors(loc, dc)? {
                if matches!(scratch.owner[q], Origin::Old(_)) {
                    let d2 = self.index.dataset().point(q).distance_squared(&loc);
                    let age = self.age_epoch - birth.max(self.births[q]);
                    self.rho[q] -= aged_weight(kernel, d2, lambda, age);
                    touch(q, &mut scratch.visited, &mut scratch.union);
                }
            }
        }
        // Each surviving insert sums its final neighbourhood's kernel
        // weights in ascending id order — the canonical summation order of
        // `weighted_rho_scan` (the ε-query returns ascending ids and
        // includes the point itself at distance 0, skipped here) — and
        // raises the ρ of the survivors in it by the same fresh, undecayed
        // pair weight; inserted neighbours are covered by their own fresh
        // sums.
        for &x in &scratch.inserted_final {
            let center = self.index.dataset().point(x);
            let neighborhood = self.index.eps_neighbors(center, dc)?;
            self.stats.eps_queries += 1;
            let mut mass = 0.0f64;
            for q in neighborhood {
                if q == x {
                    continue;
                }
                let w =
                    kernel.weight_from_sq(self.index.dataset().point(q).distance_squared(&center));
                mass += w;
                if matches!(scratch.owner[q], Origin::Old(_)) {
                    self.rho[q] += w;
                    touch(q, &mut scratch.visited, &mut scratch.union);
                }
            }
            self.rho[x] = mass;
        }
        self.stats.affected_points += scratch.union.len() as u64;
        rec.record("stream.affected_union", scratch.union.len() as u64);
        rec.counter("stream.kernel.eps_queries", eps_queries as u64);
        drop(rho_span);

        // Phase 4 — build the invalidation set F and the candidate entrants,
        // then repair δ/µ once for the whole epoch.
        let delta_span = span(&rec, "stream.phase.delta_repair");
        let tie = self.params.dpc.tie_break;
        let new_peak = DensityOrder::with_tie_break(&self.rho, tie).global_peak();
        let old_peak = self.peak.and_then(|pk| scratch.final_of_old[pk]);

        scratch.invalidated.clear();
        scratch.invalidated.extend_from_slice(&scratch.union);
        scratch
            .invalidated
            .extend_from_slice(&scratch.inserted_final);
        scratch.renamed.clear();
        for (o, slot) in scratch.final_of_old.iter().enumerate() {
            if let Some(i) = *slot {
                if i != o {
                    // A swap-remove renamed this survivor to a smaller id,
                    // which moves its position in the density order (either
                    // direction, depending on the tie-break rule): its own
                    // denser set may have shrunk (recompute) and it may
                    // enter other points' minima (candidate).
                    scratch.renamed.push(i);
                }
            }
        }
        scratch.invalidated.extend_from_slice(&scratch.renamed);
        // One µ scan: rename surviving µ ids into the final id space,
        // invalidate points whose µ expired or whose µ's rank may have
        // changed — because its ρ was touched (`visited`), or because the
        // swap-remove renamed it (`m != mu_old`): under `LargerIdDenser` a
        // smaller id *lowers* the µ's tie rank, so it can fall out of the
        // dependent's denser set without any ρ change.
        for (p, origin) in scratch.owner.iter().enumerate() {
            if matches!(origin, Origin::New(_)) {
                continue; // placeholder µ; already invalidated above
            }
            if let Some(mu_old) = self.deltas.mu[p] {
                match scratch.final_of_old[mu_old] {
                    None => {
                        self.deltas.mu[p] = None;
                        scratch.invalidated.push(p);
                    }
                    Some(m) => {
                        self.deltas.mu[p] = Some(m);
                        if scratch.visited[m] || m != mu_old {
                            scratch.invalidated.push(p);
                        }
                    }
                }
            }
        }
        scratch.invalidated.extend(old_peak);
        scratch.invalidated.extend(new_peak);
        scratch.invalidated.sort_unstable();
        scratch.invalidated.dedup();

        // A decayed epoch rescaled *every* density in the pre-pass: λ-scaling
        // is order-preserving in exact arithmetic, but two neighbouring f64
        // densities can collapse onto the same float and hand the comparison
        // to the id tie-break — so no point's (δ, µ) minimum is trustworthy
        // and the epoch always re-ranks in full. The full re-rank is the
        // index's own δ-query, the one the cold batch pipeline runs.
        let mode = if lambda != 1.0 || self.past_threshold(scratch.invalidated.len(), n) {
            let q = Query {
                rec: &*rec,
                ..self.params.dpc.query()
            };
            self.deltas = self.index.delta_query(&q, &self.rho)?;
            EpochMode::Fallback
        } else {
            let recompute_span = span(&rec, "stream.phase.delta_repair.recompute");
            let recomputed = self.index.delta_targets(
                &self.params.dpc.query(),
                &self.rho,
                &scratch.invalidated,
            )?;
            for (&p, &(d, mu)) in scratch.invalidated.iter().zip(&recomputed.deltas) {
                self.deltas.delta[p] = d;
                self.deltas.mu[p] = mu;
            }
            drop(recompute_span);
            let candidates_span = span(&rec, "stream.phase.delta_repair.candidates");
            scratch.skip.clear();
            scratch.skip.resize(n, false);
            for &f in &scratch.invalidated {
                scratch.skip[f] = true;
            }
            scratch.candidates.clear();
            scratch.candidates.extend_from_slice(&scratch.union);
            scratch
                .candidates
                .extend_from_slice(&scratch.inserted_final);
            scratch.candidates.extend_from_slice(&scratch.renamed);
            let folded = candidate_pass(
                self.index.dataset(),
                &DensityOrder::with_tie_break(&self.rho, tie),
                &scratch.candidates,
                &scratch.skip,
                dc,
                &mut self.deltas,
                self.params.dpc.exec,
            );
            drop(candidates_span);
            rec.counter(
                "stream.delta_repair.dist_evals",
                recomputed.dist_evals + folded,
            );
            EpochMode::Incremental
        };
        drop(delta_span);
        self.peak = new_peak;
        Ok(EpochOutcome {
            planned_handles,
            mode,
            invalidated: scratch.invalidated.len(),
        })
    }

    /// Rejects a plan that could fail mid-application: non-finite insert
    /// coordinates, dead/duplicated handles, or tokens from another plan.
    /// Runs before any mutation, so a rejected plan changes nothing.
    fn validate_plan(&self, plan: &EpochPlan) -> Result<()> {
        let mut removed: std::collections::HashSet<Handle> = std::collections::HashSet::new();
        let mut inserts_seen = 0usize;
        let mut planned_removed = vec![false; plan.insert_count()];
        for (k, op) in plan.ops.iter().enumerate() {
            match *op {
                PlanOp::Insert(p, _) => {
                    if !(p.x.is_finite() && p.y.is_finite()) {
                        return Err(DpcError::InvalidPoint {
                            id: k,
                            x: p.x,
                            y: p.y,
                        });
                    }
                    inserts_seen += 1;
                }
                PlanOp::Remove(handle) => {
                    if self.handles.dense_of(handle).is_none() {
                        return Err(DpcError::invalid_parameter(
                            "handle",
                            format!("point {handle} is not (or no longer) in the window"),
                        ));
                    }
                    if !removed.insert(handle) {
                        return Err(DpcError::invalid_parameter(
                            "handle",
                            format!("point {handle} is removed twice by the same plan"),
                        ));
                    }
                }
                PlanOp::RemovePlanned(i) => {
                    if i >= inserts_seen {
                        return Err(DpcError::invalid_parameter(
                            "token",
                            format!(
                                "planned-insert token {i} does not name an earlier \
                                 insert of this plan (did it come from another plan?)"
                            ),
                        ));
                    }
                    if planned_removed[i] {
                        return Err(DpcError::invalid_parameter(
                            "token",
                            format!("planned insert {i} is removed twice by the same plan"),
                        ));
                    }
                    planned_removed[i] = true;
                }
            }
        }
        Ok(())
    }

    /// Whether `count` (an epoch's ε-queries or its invalidation set, out of
    /// a window of `n`) passes the threshold of the full-query fallbacks.
    fn past_threshold(&self, count: usize, n: usize) -> bool {
        count as f64 > self.params.max_affected_fraction * n as f64
    }

    /// Re-runs centre selection + assignment on the maintained `(ρ, δ, µ)`
    /// and diffs the stable labelling against the previous epoch.
    ///
    /// On error (e.g. a centre-selection rule that no point satisfies this
    /// epoch) the density state remains exact, but the stored clustering
    /// still describes the previous epoch.
    fn recluster(&mut self) -> Result<ClusterDelta> {
        let rec = self.recorder.clone();
        let n = self.len();
        let (clustering, new_assignment) = if n == 0 {
            (Clustering::new(vec![], vec![], vec![]), Vec::new())
        } else {
            let centers = {
                let _select_span = span(&rec, "stream.phase.recluster.select");
                DecisionGraph::new(self.rho.clone(), &self.deltas)?
                    .select_centers(&self.params.dpc.centers)?
            };
            let _assign_span = span(&rec, "stream.phase.recluster.assign");
            let order = DensityOrder::with_tie_break(&self.rho, self.params.dpc.tie_break);
            let clustering = assign_clusters(
                self.index.dataset(),
                &order,
                &self.deltas,
                &centers,
                self.params.dpc.dc,
                &self.params.dpc.assignment,
            )?;
            // Walking the handle map in handle order yields the stable view
            // already sorted, with no per-point map insertion.
            let center_handles: Vec<Handle> = clustering
                .centers()
                .iter()
                .map(|&c| self.handles.handle_at(c))
                .collect();
            let assignment = self
                .handles
                .iter()
                .map(|(h, p)| (h, center_handles[clustering.label(p)]))
                .collect();
            (clustering, assignment)
        };

        self.epoch += 1;
        self.stats.epochs += 1;
        let delta = {
            let _diff_span = span(&rec, "stream.phase.recluster.diff");
            diff_assignments(self.epoch, &self.assignment, &new_assignment)
        };
        self.assignment = new_assignment;
        self.clustering = clustering;
        Ok(delta)
    }
}

/// `λ^age` with the exact no-decay fast path: with `lambda == 1.0` (or age
/// 0) the factor is *exactly* 1.0, so multiplying by it never perturbs a
/// weight — this is what keeps the cutoff/no-decay path bit-identical to
/// the pre-weighted integer counting.
pub fn decay_factor(lambda: f64, age: u64) -> f64 {
    if lambda == 1.0 || age == 0 {
        1.0
    } else {
        lambda.powi(age.min(i32::MAX as u64) as i32)
    }
}

/// The current contribution of a pair at squared distance `d2` whose weight
/// entered `age` epochs ago under per-epoch decay `lambda`:
/// `w(d²) · λ^age`.
///
/// This is the engine's **only** aging arithmetic — the replay oracle of
/// the kernel-equivalence suite calls the same function, so engine and
/// oracle round identically and can be compared for bit equality.
pub fn aged_weight(kernel: Kernel, d2: f64, lambda: f64, age: u64) -> f64 {
    kernel.weight_from_sq(d2) * decay_factor(lambda, age)
}

/// Diffs two stable assignments, each a list of `(point handle, centre
/// handle)` pairs in ascending point-handle order.
///
/// A centre handle that leaves the centre set does not necessarily mean its
/// cluster died: when the centre *point* expires but the population
/// persists, the next epoch elects a new centre among the survivors. Dying
/// and newborn centres whose member sets overlap with Jaccard similarity of
/// at least [`ClusterDelta::JACCARD_THRESHOLD`] are therefore matched
/// greedily (best overlap first, deterministic handle-order tie-break) and
/// reported as `recentred` survivors instead of a death + birth pair.
///
/// One merge of the two sorted lists finds every changed label and every
/// (dying, newborn) overlap, so the diff is linear in the window size.
fn diff_assignments(
    epoch: u64,
    old: &[(Handle, Handle)],
    new: &[(Handle, Handle)],
) -> ClusterDelta {
    let old_sizes = cluster_sizes(old);
    let new_sizes = cluster_sizes(new);
    let size_of = |sizes: &[(Handle, usize)], c: Handle| {
        sizes
            .binary_search_by_key(&c, |&(h, _)| h)
            .map(|i| sizes[i].1)
            .ok()
    };
    let mut births: Vec<Handle> = new_sizes
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| size_of(&old_sizes, c).is_none())
        .collect();
    let mut deaths: Vec<Handle> = old_sizes
        .iter()
        .map(|&(c, _)| c)
        .filter(|&c| size_of(&new_sizes, c).is_none())
        .collect();

    // Both lists ascend by point handle; a classic merge collects every
    // handle present in either, and counts the points that moved from a
    // dying to a newborn centre.
    let mut changed = Vec::new();
    let mut overlap: BTreeMap<(Handle, Handle), usize> = BTreeMap::new();
    let (mut i, mut j) = (0, 0);
    loop {
        let step = match (old.get(i), new.get(j)) {
            (Some(&(ho, _)), Some(&(hn, _))) => ho.cmp(&hn),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        match step {
            Ordering::Less => {
                let (handle, co) = old[i];
                changed.push(LabelChange {
                    handle,
                    old: Some(co),
                    new: None,
                });
                i += 1;
            }
            Ordering::Greater => {
                let (handle, cn) = new[j];
                changed.push(LabelChange {
                    handle,
                    old: None,
                    new: Some(cn),
                });
                j += 1;
            }
            Ordering::Equal => {
                let ((handle, co), (_, cn)) = (old[i], new[j]);
                if co != cn {
                    changed.push(LabelChange {
                        handle,
                        old: Some(co),
                        new: Some(cn),
                    });
                    if deaths.binary_search(&co).is_ok() && births.binary_search(&cn).is_ok() {
                        *overlap.entry((co, cn)).or_default() += 1;
                    }
                }
                i += 1;
                j += 1;
            }
        }
    }

    // Identity matching: pair each dying centre with the newborn centre
    // whose membership overlaps it the most, if the overlap clears the
    // Jaccard threshold. Clusters whose centre survived keep their identity
    // trivially and never take part.
    let mut candidates: Vec<(f64, Handle, Handle)> = overlap
        .iter()
        .map(|(&(co, cn), &inter)| {
            let old_size = size_of(&old_sizes, co).expect("a dying centre labels old points");
            let new_size = size_of(&new_sizes, cn).expect("a newborn centre labels new points");
            let union = old_size + new_size - inter;
            (inter as f64 / union as f64, co, cn)
        })
        .filter(|&(jaccard, _, _)| jaccard >= ClusterDelta::JACCARD_THRESHOLD)
        .collect();
    candidates.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    let mut recentred: Vec<(Handle, Handle)> = Vec::new();
    for (_, co, cn) in candidates {
        if recentred.iter().all(|&(mo, mn)| mo != co && mn != cn) {
            recentred.push((co, cn));
        }
    }
    if !recentred.is_empty() {
        recentred.sort_unstable();
        births.retain(|&c| recentred.iter().all(|&(_, mn)| mn != c));
        deaths.retain(|&c| recentred.iter().all(|&(mo, _)| mo != c));
    }

    ClusterDelta {
        epoch,
        num_clusters: new_sizes.len(),
        births,
        deaths,
        recentred,
        changed,
    }
}

/// The distinct centre handles of an assignment with their member counts,
/// in ascending centre-handle order.
fn cluster_sizes(assignment: &[(Handle, Handle)]) -> Vec<(Handle, usize)> {
    let mut sizes: HashMap<Handle, usize, BuildHasherDefault<HandleHasher>> = HashMap::default();
    for &(_, c) in assignment {
        *sizes.entry(c).or_default() += 1;
    }
    let mut sizes: Vec<(Handle, usize)> = sizes.into_iter().collect();
    sizes.sort_unstable();
    sizes
}

/// A one-multiply hash for [`Handle`] keys. Handles are engine-issued
/// tickets, not attacker-chosen input, so SipHash's flooding resistance
/// buys nothing and its cost would dominate [`cluster_sizes`].
#[derive(Default)]
struct HandleHasher(u64);

impl Hasher for HandleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        // Fibonacci hashing: the golden-ratio multiplier spreads
        // consecutive handles over both the low and the high bits.
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::naive_reference::NaiveReferenceIndex;
    use dpc_core::{CenterSelection, Dataset, DpcIndex};

    fn two_blob_engine() -> StreamingDpc<NaiveReferenceIndex> {
        let seed = Dataset::from_coords(vec![
            (0.0, 0.0),
            (0.1, 0.0),
            (0.0, 0.1),
            (5.0, 5.0),
            (5.1, 5.0),
            (5.0, 5.1),
        ]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 }));
        StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap()
    }

    /// The engine's density state must equal a cold batch run over its own
    /// surviving dataset.
    fn assert_matches_cold_batch(engine: &StreamingDpc<NaiveReferenceIndex>) {
        let batch = NaiveReferenceIndex::build(engine.index().dataset());
        let (rho, deltas) = batch.rho_delta(engine.params().dpc.dc).unwrap();
        assert_eq!(engine.rho(), &rho[..]);
        assert_eq!(engine.deltas(), &deltas);
    }

    #[test]
    fn seeding_matches_the_batch_pipeline() {
        let engine = two_blob_engine();
        assert_eq!(engine.len(), 6);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.clustering().num_clusters(), 2);
        assert_eq!(engine.clustering().label(0), engine.clustering().label(1));
        assert_ne!(engine.clustering().label(0), engine.clustering().label(3));
    }

    #[test]
    fn insert_emits_a_delta_with_the_new_point() {
        let mut engine = two_blob_engine();
        let (h, delta) = engine.insert(Point::new(0.05, 0.05)).unwrap();
        assert_eq!(engine.len(), 7);
        assert_eq!(delta.insertions(), 1);
        assert_eq!(delta.epoch, 1);
        assert_eq!(engine.point_of(h), Some(Point::new(0.05, 0.05)));
        // The new point joined the origin blob.
        let id = engine.dense_of(h).unwrap();
        assert_eq!(engine.clustering().label(id), engine.clustering().label(0));
    }

    #[test]
    fn remove_emits_a_delta_and_invalidates_the_handle() {
        let mut engine = two_blob_engine();
        let victim = engine.handle_at(1);
        let delta = engine.remove(victim).unwrap();
        assert_eq!(engine.len(), 5);
        assert_eq!(delta.evictions(), 1);
        assert_eq!(engine.dense_of(victim), None);
        assert!(engine.remove(victim).is_err());
    }

    #[test]
    fn centre_expiry_with_survivors_is_recentred_not_death_and_birth() {
        let mut engine = two_blob_engine();
        let far_centre_id = engine
            .clustering()
            .centers()
            .iter()
            .copied()
            .find(|&c| engine.index().dataset().point(c).x > 1.0)
            .expect("one centre per blob");
        let old_centre = engine.handle_at(far_centre_id);
        let delta = engine.remove(old_centre).unwrap();
        // Regression: before overlap matching this epoch reported the far
        // blob as one death plus one birth even though two of its three
        // points survive under a freshly elected centre.
        assert!(delta.births.is_empty(), "births: {:?}", delta.births);
        assert!(delta.deaths.is_empty(), "deaths: {:?}", delta.deaths);
        assert_eq!(delta.recentred.len(), 1);
        let (dead, reborn) = delta.recentred[0];
        assert_eq!(dead, old_centre);
        let new_id = engine.dense_of(reborn).expect("new centre must be live");
        assert!(engine.index().dataset().point(new_id).x > 1.0);
        assert_eq!(delta.num_clusters, 2);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn whole_cluster_eviction_is_still_a_death() {
        let mut engine = two_blob_engine();
        let far_centre_id = engine
            .clustering()
            .centers()
            .iter()
            .copied()
            .find(|&c| engine.index().dataset().point(c).x > 1.0)
            .unwrap();
        let far_centre = engine.handle_at(far_centre_id);
        let far: Vec<Handle> = (0..engine.len())
            .filter(|&p| engine.index().dataset().point(p).x > 1.0)
            .map(|p| engine.handle_at(p))
            .collect();
        let mut plan = EpochPlan::new();
        for &h in &far {
            plan.remove(h);
        }
        let (_, delta) = engine.commit(&plan).unwrap();
        // No surviving population: overlap matching must not resurrect it.
        assert!(delta.deaths.contains(&far_centre));
        assert!(delta.recentred.is_empty());
    }

    #[test]
    fn diff_matches_identity_only_above_the_jaccard_threshold() {
        let map = |pairs: &[(u64, u64)]| -> Vec<(Handle, Handle)> {
            pairs.iter().map(|&(h, c)| (Handle(h), Handle(c))).collect()
        };
        // Centre #0 expires, survivors {1, 2} re-centre at #1:
        // Jaccard 2/3 ≥ 0.5 → matched.
        let old = map(&[(0, 0), (1, 0), (2, 0)]);
        let new = map(&[(1, 1), (2, 1)]);
        let d = diff_assignments(1, &old, &new);
        assert_eq!(d.recentred, vec![(Handle(0), Handle(1))]);
        assert!(d.births.is_empty() && d.deaths.is_empty());

        // Only one of four old members flows into the newborn cluster:
        // Jaccard 1/8 < 0.5 → the naive death + birth stands.
        let old = map(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let new = map(&[(3, 7), (7, 7), (8, 7), (9, 7), (10, 7)]);
        let d = diff_assignments(2, &old, &new);
        assert!(d.recentred.is_empty());
        assert_eq!(d.births, vec![Handle(7)]);
        assert_eq!(d.deaths, vec![Handle(0)]);

        // A merge: two dying clusters pour into one newborn; only the
        // dominant contributor (Jaccard 3/5) keeps the identity, the minor
        // one (2/5) dies.
        let old = map(&[(0, 0), (1, 0), (2, 0), (10, 5), (11, 5)]);
        let new = map(&[(0, 1), (1, 1), (2, 1), (10, 1), (11, 1)]);
        let d = diff_assignments(3, &old, &new);
        assert_eq!(d.recentred, vec![(Handle(0), Handle(1))]);
        assert!(d.births.is_empty());
        assert_eq!(d.deaths, vec![Handle(5)]);
    }

    /// The (point handle → centre handle) diff over ordered maps that the
    /// handle-sorted merge replaced, kept as the reference it must match.
    fn btree_diff(
        epoch: u64,
        old: &BTreeMap<Handle, Handle>,
        new: &BTreeMap<Handle, Handle>,
    ) -> ClusterDelta {
        use std::collections::BTreeSet;
        let old_centers: BTreeSet<Handle> = old.values().copied().collect();
        let new_centers: BTreeSet<Handle> = new.values().copied().collect();
        let mut births: Vec<Handle> = new_centers.difference(&old_centers).copied().collect();
        let mut deaths: Vec<Handle> = old_centers.difference(&new_centers).copied().collect();

        // Identity matching: pair each dying centre with the newborn centre
        // whose membership overlaps it the most, if the overlap clears the
        // Jaccard threshold. Clusters whose centre survived keep their identity
        // trivially and never take part.
        let mut recentred: Vec<(Handle, Handle)> = Vec::new();
        if !births.is_empty() && !deaths.is_empty() {
            let mut old_size: BTreeMap<Handle, usize> = BTreeMap::new();
            let mut new_size: BTreeMap<Handle, usize> = BTreeMap::new();
            for &c in old.values() {
                *old_size.entry(c).or_default() += 1;
            }
            for &c in new.values() {
                *new_size.entry(c).or_default() += 1;
            }
            let dead: BTreeSet<Handle> = deaths.iter().copied().collect();
            let born: BTreeSet<Handle> = births.iter().copied().collect();
            // Overlap counts over the points present in both epochs, restricted
            // to (dying, newborn) cluster pairs.
            let mut overlap: BTreeMap<(Handle, Handle), usize> = BTreeMap::new();
            for (h, &co) in old {
                if let Some(&cn) = new.get(h) {
                    if dead.contains(&co) && born.contains(&cn) {
                        *overlap.entry((co, cn)).or_default() += 1;
                    }
                }
            }
            let mut candidates: Vec<(f64, Handle, Handle)> = overlap
                .iter()
                .map(|(&(co, cn), &inter)| {
                    let union = old_size[&co] + new_size[&cn] - inter;
                    (inter as f64 / union as f64, co, cn)
                })
                .filter(|&(jaccard, _, _)| jaccard >= ClusterDelta::JACCARD_THRESHOLD)
                .collect();
            candidates.sort_by(|a, b| {
                b.0.total_cmp(&a.0)
                    .then_with(|| a.1.cmp(&b.1))
                    .then_with(|| a.2.cmp(&b.2))
            });
            let mut matched_old: BTreeSet<Handle> = BTreeSet::new();
            let mut matched_new: BTreeSet<Handle> = BTreeSet::new();
            for (_, co, cn) in candidates {
                if !matched_old.contains(&co) && !matched_new.contains(&cn) {
                    matched_old.insert(co);
                    matched_new.insert(cn);
                    recentred.push((co, cn));
                }
            }
            if !recentred.is_empty() {
                recentred.sort_unstable();
                births.retain(|c| !matched_new.contains(c));
                deaths.retain(|c| !matched_old.contains(c));
            }
        }

        let mut changed = Vec::new();
        // Both maps iterate in ascending handle order; a classic merge collects
        // every handle present in either.
        let mut old_iter = old.iter().peekable();
        let mut new_iter = new.iter().peekable();
        loop {
            match (old_iter.peek(), new_iter.peek()) {
                (Some(&(&ho, &co)), Some(&(&hn, &cn))) => {
                    if ho < hn {
                        changed.push(LabelChange {
                            handle: ho,
                            old: Some(co),
                            new: None,
                        });
                        old_iter.next();
                    } else if hn < ho {
                        changed.push(LabelChange {
                            handle: hn,
                            old: None,
                            new: Some(cn),
                        });
                        new_iter.next();
                    } else {
                        if co != cn {
                            changed.push(LabelChange {
                                handle: ho,
                                old: Some(co),
                                new: Some(cn),
                            });
                        }
                        old_iter.next();
                        new_iter.next();
                    }
                }
                (Some(&(&ho, &co)), None) => {
                    changed.push(LabelChange {
                        handle: ho,
                        old: Some(co),
                        new: None,
                    });
                    old_iter.next();
                }
                (None, Some(&(&hn, &cn))) => {
                    changed.push(LabelChange {
                        handle: hn,
                        old: None,
                        new: Some(cn),
                    });
                    new_iter.next();
                }
                (None, None) => break,
            }
        }

        ClusterDelta {
            epoch,
            num_clusters: new_centers.len(),
            births,
            deaths,
            recentred,
            changed,
        }
    }

    /// The engine's current labelling as an ordered map, derived from its
    /// public state rather than from the stored assignment.
    fn assignment_map<I: UpdatableIndex>(engine: &StreamingDpc<I>) -> BTreeMap<Handle, Handle> {
        let clustering = engine.clustering();
        (0..engine.len())
            .map(|p| {
                let centre = clustering.centers()[clustering.label(p)];
                (engine.handle_at(p), engine.handle_at(centre))
            })
            .collect()
    }

    #[test]
    fn sorted_diff_matches_the_ordered_map_diff_over_a_sliding_window() {
        use dpc_datasets::testsupport::{test_points, TestDistribution};
        use dpc_tree_index::GridIndex;
        let window = 240;
        let dc = 40.0;
        for batch in [1, 64] {
            let points = test_points(TestDistribution::Skewed, window + 1_600, 7);
            let params = StreamParams::new(dc).with_dpc(
                DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 64 }),
            );
            let seed = Dataset::new(points[..window].to_vec());
            let mut engine = StreamingDpc::new(GridIndex::build(&seed), params).unwrap();
            let mut before = assignment_map(&engine);
            let (mut recentred, mut births, mut deaths) = (0, 0, 0);
            for chunk in points[window..].chunks(batch) {
                let (_, delta) = engine.advance(chunk, chunk.len()).unwrap();
                let after = assignment_map(&engine);
                assert_eq!(
                    delta,
                    btree_diff(delta.epoch, &before, &after),
                    "batch {batch}"
                );
                recentred += usize::from(!delta.recentred.is_empty());
                births += usize::from(!delta.births.is_empty());
                deaths += usize::from(!delta.deaths.is_empty());
                before = after;
            }
            assert!(
                recentred > 0 && births > 0 && deaths > 0,
                "batch {batch}: {recentred} recentred, {births} birth, {deaths} death epochs"
            );
        }
    }

    #[test]
    fn advance_slides_the_window_in_one_epoch() {
        let mut engine = two_blob_engine();
        let (hs, delta) = engine
            .advance(&[Point::new(5.05, 5.05), Point::new(0.05, 0.0)], 2)
            .unwrap();
        assert_eq!(hs.len(), 2);
        assert_eq!(engine.len(), 6);
        assert_eq!(delta.insertions(), 2);
        assert_eq!(delta.evictions(), 2);
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.stats().updates, 4);
        assert_eq!(engine.stats().epochs, 1);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn empty_advance_is_a_complete_noop() {
        let mut engine = two_blob_engine();
        let before_version = engine.version();
        let before_stats = engine.stats();
        let (hs, delta) = engine.advance(&[], 0).unwrap();
        assert!(hs.is_empty());
        assert!(delta.is_empty());
        assert_eq!(delta.epoch, 0);
        assert_eq!(delta.num_clusters, 2);
        assert_eq!(engine.version(), before_version);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.stats(), before_stats);
    }

    #[test]
    fn commit_applies_interleaved_ops_in_submission_order() {
        let mut engine = two_blob_engine();
        let oldest = engine.oldest().unwrap();
        let mut plan = EpochPlan::new();
        let kept = plan.insert(Point::new(0.05, 0.0));
        plan.remove(oldest);
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(engine.len(), 6);
        assert_eq!(delta.insertions(), 1);
        assert_eq!(delta.evictions(), 1);
        assert_eq!(engine.dense_of(oldest), None);
        assert!(engine.dense_of(handles[kept.0]).is_some());
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn ephemeral_point_leaves_no_trace() {
        let mut engine = two_blob_engine();
        let before: Vec<Point> = engine.index().dataset().points().to_vec();
        let before_rho = engine.rho().to_vec();
        let mut plan = EpochPlan::new();
        // Inserted on top of the origin blob, expired within the same epoch:
        // the committed state must be as if it never existed.
        let flash = plan.insert(Point::new(0.05, 0.05));
        plan.remove_planned(flash);
        let (handles, delta) = engine.commit(&plan).unwrap();
        assert_eq!(engine.dense_of(handles[0]), None);
        assert_eq!(engine.index().dataset().points(), &before[..]);
        assert_eq!(engine.rho(), &before_rho[..]);
        assert_eq!(delta.insertions(), 0);
        assert_eq!(delta.evictions(), 0);
        assert_eq!(engine.stats().updates, 2); // but both mutations count
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn invalid_plans_are_rejected_before_any_mutation() {
        let mut engine = two_blob_engine();
        let v0 = engine.version();
        let oldest = engine.oldest().unwrap();

        // A non-finite point anywhere in the batch rejects the whole plan.
        let mut plan = EpochPlan::new();
        plan.insert(Point::new(1.0, 1.0));
        plan.insert(Point::new(f64::NAN, 0.0));
        assert!(engine.commit(&plan).is_err());

        // Removing the same handle twice.
        let mut plan = EpochPlan::new();
        plan.remove(oldest);
        plan.remove(oldest);
        assert!(engine.commit(&plan).is_err());

        // A token from another plan.
        let mut other = EpochPlan::new();
        let foreign = other.insert(Point::new(1.0, 1.0));
        let mut plan = EpochPlan::new();
        plan.remove_planned(foreign);
        assert!(engine.commit(&plan).is_err());

        // Removing the same planned insert twice.
        let mut plan = EpochPlan::new();
        let t = plan.insert(Point::new(1.0, 1.0));
        plan.remove_planned(t);
        plan.remove_planned(t);
        assert!(engine.commit(&plan).is_err());

        // Nothing was applied by any of the rejected plans.
        assert_eq!(engine.version(), v0);
        assert_eq!(engine.len(), 6);
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn draining_the_window_to_empty_and_refilling_works() {
        // The automatic γ-gap selection adapts to any window size; a fixed
        // top-k would (correctly) error once fewer than k points remain.
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let mut engine =
            StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
        while let Some(h) = engine.oldest() {
            engine.remove(h).unwrap();
        }
        assert!(engine.is_empty());
        assert_eq!(engine.clustering().num_clusters(), 0);
        let (_, delta) = engine.insert(Point::new(1.0, 1.0)).unwrap();
        assert_eq!(delta.births.len(), 1);
        assert_eq!(engine.clustering().num_clusters(), 1);
    }

    #[test]
    fn draining_in_one_epoch_works() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let mut engine =
            StreamingDpc::new(NaiveReferenceIndex::build(&seed), StreamParams::new(0.5)).unwrap();
        let (_, delta) = engine.advance(&[], 4).unwrap();
        assert!(engine.is_empty());
        assert_eq!(delta.evictions(), 4);
        assert_eq!(engine.clustering().num_clusters(), 0);
        assert_eq!(engine.stats().epochs, 1);
    }

    #[test]
    fn forced_full_epochs_still_produce_exact_state() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.0), (5.0, 5.0), (5.1, 5.0)]);
        let params = StreamParams::new(0.5)
            .with_dpc(DpcParams::new(0.5).with_centers(CenterSelection::TopKGamma { k: 2 }))
            .with_max_affected_fraction(0.0);
        let mut engine = StreamingDpc::new(NaiveReferenceIndex::build(&seed), params).unwrap();
        engine.insert(Point::new(0.05, 0.0)).unwrap();
        engine.remove(engine.handle_at(0)).unwrap();
        assert_eq!(engine.stats().rebuild_epochs, 2);
        assert_eq!(engine.stats().incremental_epochs, 0);
        assert_eq!(engine.stats().fallback_epochs, 0);
        assert_eq!(engine.stats().eps_queries, 0);
        assert_matches_cold_batch(&engine);
    }

    #[test]
    fn mismatched_tie_break_is_rejected() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0)]);
        let index =
            NaiveReferenceIndex::build_with_tie_break(&seed, dpc_core::TieBreak::LargerIdDenser);
        assert!(StreamingDpc::new(index, StreamParams::new(0.5)).is_err());
    }

    #[test]
    fn invalid_params_are_rejected() {
        let seed = Dataset::from_coords(vec![(0.0, 0.0)]);
        let index = NaiveReferenceIndex::build(&seed);
        assert!(StreamingDpc::new(index.clone(), StreamParams::new(-1.0)).is_err());
        assert!(StreamingDpc::new(
            index,
            StreamParams::new(1.0).with_max_affected_fraction(f64::NAN)
        )
        .is_err());
    }

    #[test]
    fn stats_accumulate_over_epochs() {
        let mut engine = two_blob_engine();
        engine.insert(Point::new(0.05, 0.0)).unwrap();
        engine.insert(Point::new(5.05, 5.0)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.epochs, 2);
        assert_eq!(stats.updates, 2);
        assert_eq!(stats.incremental_epochs + stats.fallback_epochs, 2);
        assert!(stats.affected_points >= 2);
    }
}
