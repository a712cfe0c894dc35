//! # dpc-metrics
//!
//! Clustering-quality metrics and reporting helpers for the DPC experiments.
//!
//! The paper's quality experiment (Figure 10, §5.4) measures the clustering
//! produced by an approximate index against the clustering produced by the
//! exact DPC algorithm using **pair-counting Precision, Recall and F1**
//! (Equations 3–5). Those metrics, plus the Adjusted Rand Index and
//! Normalised Mutual Information as extensions, are implemented here on top
//! of a shared [`ContingencyTable`] so they run in `O(n + k₁·k₂)` rather than
//! enumerating all `O(n²)` pairs.
//!
//! The [`report`] module contains the small text/CSV table writer used by the
//! bench harness to print paper-style tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contingency;
pub mod nmi;
pub mod pair_counting;
pub mod rand_index;
pub mod report;

pub use contingency::ContingencyTable;
pub use nmi::normalized_mutual_information;
pub use pair_counting::{pair_counting_scores, pair_counting_scores_for, PairCounts, PairScores};
pub use rand_index::adjusted_rand_index;
pub use report::ResultTable;
