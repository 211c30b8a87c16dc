//! # tripoll-analysis — analysis utilities for TriPoll experiments
//!
//! Post-processing and validation tools around the TriPoll reproduction:
//!
//! * [`reference`](mod@reference) — a serial oracle triangle enumerator (validates every
//!   distributed engine; computes `|T|` for Table 1).
//! * [`hist`] — `ceil(log2(·))` histograms and joint distributions
//!   (Fig. 6's closure-time plots, Fig. 9's degree triples).
//! * [`louvain`](mod@louvain) — Louvain community detection (the ordering used in
//!   Fig. 8's FQDN co-occurrence plot).
//! * [`ktruss`] — truss decomposition from per-edge triangle supports
//!   (the §1 application of local counting).
//! * [`table`] — aligned text/CSV tables for the experiment harness.

#![warn(missing_docs)]

pub mod hist;
pub mod ktruss;
pub mod louvain;
pub mod reference;
pub mod table;

pub use hist::{ceil_log2, Histogram, JointHistogram};
pub use ktruss::{truss_decomposition, TrussDecomposition};
pub use louvain::{louvain, louvain_labeled, LouvainResult};
pub use reference::{enumerate_triangles, triangle_count};
pub use table::Table;
