//! # TriPoll — surveys of triangles in massive-scale temporal graphs
//! # with metadata
//!
//! A from-scratch Rust reproduction of *"TriPoll: Computing Surveys of
//! Triangles in Massive-Scale Temporal Graphs with Metadata"* (Steil,
//! Reza, Iwabuchi, Priest, Sanders, Pearce — SC 2021,
//! [arXiv:2107.12330](https://arxiv.org/abs/2107.12330)).
//!
//! TriPoll identifies **every triangle** of a distributed graph whose
//! vertices and edges carry metadata, and runs a **user callback** on the
//! six metadata values of each triangle as it is found — triangle
//! counting, temporal closure analysis, and string-metadata surveys are
//! all the same engine with different callbacks.
//!
//! This crate is a facade over the workspace:
//!
//! * [`ygm`] — the asynchronous active-message runtime
//!   (YGM's role): wire serialization, message buffering, quiescence
//!   barriers, distributed containers, exact traffic accounting.
//! * [`graph`] — edge-list ingest and the distributed
//!   degree-ordered directed graph (DODGr) with metadata-augmented
//!   adjacency.
//! * [`core`] — the Push-Only and Push-Pull survey engines
//!   plus the paper's published surveys.
//! * [`gen`] — deterministic dataset stand-ins (R-MAT,
//!   social, web-with-FQDNs, temporal Reddit).
//! * [`baselines`] — the Table 2 comparison systems.
//! * [`analysis`] — serial oracle, histograms, Louvain,
//!   table rendering.
//!
//! ## Quickstart
//!
//! ```
//! use tripoll::prelude::*;
//!
//! // An R-MAT graph, surveyed on four simulated ranks.
//! let cfg = RmatConfig::graph500(8, 42);
//! let edges = EdgeList::from_vec(
//!     rmat_edges(&cfg).into_iter().map(|(u, v)| (u, v, ())).collect(),
//! )
//! .canonicalize();
//!
//! let counts = World::new(4).run(|comm| {
//!     let local = edges.stride_for_rank(comm.rank(), comm.nranks());
//!     let graph = build_dist_graph(comm, local, |_| (), Partition::Hashed);
//!     triangle_count(comm, &graph, EngineMode::PushPull).0
//! });
//! assert!(counts[0] > 0);
//! assert!(counts.iter().all(|&c| c == counts[0]));
//! ```
//!
//! See `examples/` for the paper's flagship analyses (Reddit closure
//! times, the FQDN survey) and `tests/paper_tables.rs` for the paper's
//! communication tables, pinned as exact counts.

pub use tripoll_analysis as analysis;
pub use tripoll_baselines as baselines;
pub use tripoll_core as core;
pub use tripoll_gen as gen;
pub use tripoll_graph as graph;
pub use tripoll_ygm as ygm;

/// One-stop imports for applications.
pub mod prelude {
    pub use tripoll_analysis::{ceil_log2, louvain_labeled, Histogram, JointHistogram, Table};
    pub use tripoll_core::surveys::closure_times::closure_time_survey;
    pub use tripoll_core::surveys::count::triangle_count;
    pub use tripoll_core::surveys::degree_triples::degree_triple_survey;
    pub use tripoll_core::surveys::fqdn_tuples::fqdn_tuple_survey;
    pub use tripoll_core::surveys::local_counts::{
        clustering_coefficients, edge_triangle_counts, vertex_triangle_counts,
    };
    pub use tripoll_core::surveys::max_edge_label::max_edge_label_distribution;
    pub use tripoll_core::{
        survey, survey_delta_push, survey_push_only, survey_push_only_with, survey_push_pull,
        survey_push_pull_with, EngineMode, IngestDelta, QueryOutcome, ResidentGraph, ResidentQuery,
        StaleDeltaError, SurveyConfig, SurveyDelta, SurveyDeltaSink, SurveyReport, TriangleMeta,
        TriangleSample,
    };
    pub use tripoll_gen::{rmat_edges, web_graph, RedditConfig, RmatConfig, WebGraphConfig};
    pub use tripoll_graph::{
        build_dist_graph, from_directed_edges, load_snapshot, save_snapshot, DistGraph, EdgeList,
        GraphError, Partition, Provenance, SnapshotError,
    };
    pub use tripoll_ygm::prelude::*;
}
