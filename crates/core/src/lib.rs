//! # tripoll-core — TriPoll's triangle-survey engines
//!
//! The primary contribution of *"TriPoll: Computing Surveys of Triangles
//! in Massive-Scale Temporal Graphs with Metadata"* (SC'21,
//! arXiv:2107.12330): distributed identification of **every** triangle in
//! a metadata-decorated graph, executing a **user callback** on the six
//! metadata values of each triangle as it is discovered. The survey has
//! no return value of its own — callbacks produce the output, whether
//! that is a counter, a distributed counting set, or a file.
//!
//! Two engines implement the identification:
//!
//! * [`push_only::survey_push_only`] — Alg. 1: wedge batches are always
//!   pushed to the middle vertex's rank (§4.3).
//! * [`push_pull::survey_push_pull`] — §4.4: a dry-run pass lets each
//!   (source rank, target vertex) pair choose between pushing wedge
//!   batches and pulling the target's adjacency once, cutting
//!   communication by up to an order of magnitude on hub-heavy graphs.
//!
//! [`surveys`] packages the paper's published callbacks (counting,
//! max-edge-label, Reddit closure times, degree triples, FQDN tuples).
//!
//! ## Example
//!
//! ```
//! use tripoll_ygm::World;
//! use tripoll_graph::{build_dist_graph, EdgeList, Partition};
//! use tripoll_core::{surveys::count::triangle_count, EngineMode};
//!
//! let edges = EdgeList::from_vec(vec![
//!     (0u64, 1u64, ()), (1, 2, ()), (2, 0, ()), (2, 3, ()),
//! ]);
//! let counts = World::new(2).run(|comm| {
//!     let local = edges.stride_for_rank(comm.rank(), comm.nranks());
//!     let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
//!     triangle_count(comm, &g, EngineMode::PushPull).0
//! });
//! assert_eq!(counts, vec![1, 1]);
//! ```

#![deny(missing_docs)]

pub mod delta;
pub mod engine;
pub mod meta;
mod push_common;
pub mod push_only;
pub mod push_pull;
pub mod service;
pub mod surveys;

pub use delta::survey_delta_push;
pub use engine::{
    decode_key_column, intersect_indices, intersect_slices, kernel_stats, kernel_stats_take,
    merge_path, EngineMode, FrameDecoder, IntersectKernel, KernelStats, KeyIndex, PhaseReport,
    SurveyConfig, SurveyReport,
};
pub use meta::{SurveyCallback, TriangleMeta};
pub use push_only::{survey_push_only, survey_push_only_with};
pub use push_pull::{survey_push_pull, survey_push_pull_with, ResumePlan};
pub use service::{IngestDelta, QueryOutcome, ResidentGraph, ResidentQuery, StaleDeltaError};
pub use surveys::delta::{SurveyDelta, SurveyDeltaSink, TriangleSample};
pub use surveys::survey;
