//! # dpc-stream
//!
//! **Streaming Density Peak Clustering**: an online engine that keeps an
//! exact DPC clustering over a mutable window of points — inserts, evictions
//! and sliding-window advances — without ever rebuilding the index, and
//! re-running the full ρ/δ queries only for epochs that touch a large share
//! of the window.
//!
//! The batch pipeline of this workspace computes, for every point, the local
//! density `ρ` (neighbours within `dc`) and the dependent distance `δ`
//! (distance to the nearest denser point), then selects peaks and assigns
//! clusters. The paper's indexes make those queries fast *once*; this crate
//! makes them cheap *per epoch* by exploiting the same locality the indexes
//! use for pruning:
//!
//! * an epoch of inserts and expiries changes `ρ` only inside the **union**
//!   of the mutations' ε-neighbourhoods — each neighbourhood found with the
//!   index's own range query
//!   ([`dpc_core::UpdatableIndex::eps_neighbors`]), deduplicated through a
//!   visited bitmap, and adjusted by ±w(d) per mutation (±1 under the
//!   default cutoff kernel; any truncated [`dpc_core::Kernel`] works,
//!   because kernel support never leaves the `dc`-ball the index prunes
//!   by);
//! * `δ`/`µ` need full recomputation only for a bounded *invalidation set*
//!   (points whose own rank changed, whose dependent neighbour was touched,
//!   and the global peak), repaired **once per epoch**; every other point
//!   folds the few candidate entrants into its existing minimum with one
//!   distance comparison each.
//!
//! Batching changes the cost, never the semantics: committing a batch is
//! **bit-identical** to applying its updates one at a time, and both are
//! bit-identical to a cold batch run over the surviving points — that is not
//! an aspiration but the invariant enforced by this crate's property suite,
//! for every updatable index, at batch sizes {1, 7, 64}, at multiple thread
//! counts (the maintenance passes run on the chunked parallel executor of
//! [`dpc_core::exec`]).
//!
//! ```
//! use dpc_core::naive_reference::NaiveReferenceIndex;
//! use dpc_core::{Dataset, Point};
//! use dpc_stream::{StreamParams, StreamingDpc};
//!
//! let seed = Dataset::from_coords(vec![(0.0, 0.0), (0.1, 0.1), (4.0, 4.0), (4.1, 4.1)]);
//! let index = NaiveReferenceIndex::build(&seed);
//! let mut engine = StreamingDpc::new(index, StreamParams::new(0.5)).unwrap();
//!
//! // Slide the window: two check-ins arrive, the two oldest expire — one
//! // epoch, one ρ repair pass, one δ repair pass, one clustering.
//! let (handles, delta) = engine
//!     .advance(&[Point::new(4.05, 4.0), Point::new(0.05, 0.0)], 2)
//!     .unwrap();
//! assert_eq!(handles.len(), 2);
//! assert_eq!(delta.insertions(), 2);
//! assert_eq!(delta.evictions(), 2);
//! ```
//!
//! Incremental repair is not always the cheapest way to commit an epoch:
//! an epoch that touches a large share of the window pays more in
//! ε-queries and candidate folds than the index's own batch queries would.
//! Past one threshold ([`StreamParams::max_affected_fraction`]) the engine
//! recomputes ρ and δ/µ with those queries, the cold pipeline's own, instead
//! — results never change, only the work done ([`EpochMode`]).
//!
//! See [`engine`] for the epoch pipeline, [`epoch`] for the [`EpochPlan`]
//! batch accumulator, [`handle`] for the stable point handles that survive
//! the dataset's swap-remove id churn, and [`report`] for the per-epoch
//! [`ClusterDelta`]. The full internals contract — affected sets, the δ
//! invalidation taxonomy, swap-remove semantics, a worked epoch example —
//! lives in `docs/STREAMING.md` at the repository root.
//!
//! For concurrent serving, [`snapshot`] freezes each committed epoch as an
//! immutable [`EpochSnapshot`] and publishes it through a [`SnapshotSink`]
//! attached with [`StreamingDpc::set_snapshot_sink`]; the `dpc-serve` crate
//! builds the single-writer/many-reader layer on top (see
//! `docs/SERVING.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod epoch;
pub mod handle;
pub mod maintenance;
pub mod report;
pub mod snapshot;

pub use engine::{aged_weight, decay_factor, EpochMode, StreamParams, StreamStats, StreamingDpc};
pub use epoch::{EpochPlan, PlannedInsert};
pub use handle::{Handle, HandleMap};
pub use report::{ClusterDelta, LabelChange};
pub use snapshot::{EpochSnapshot, SnapshotSink};
