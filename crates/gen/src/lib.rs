//! # tripoll-gen — workload generators for the TriPoll experiments
//!
//! Deterministic synthetic graphs standing in for the paper's datasets
//! (§5.2, Table 1):
//!
//! * [`rmat`] — R-MAT graphs for the weak-scaling studies (§5.5, §5.9).
//! * [`social`] — heavy-tail social graphs (Chung-Lu and a triangle-rich
//!   community model) for the LiveJournal / Friendster / Twitter
//!   stand-ins.
//! * [`webgraph`] — domain-structured web graphs with FQDN string
//!   metadata for the uk-2007 / web-cc12 / Web Data Commons stand-ins
//!   and the Fig. 8 survey.
//! * [`reddit`] — a bursty temporal comment graph with timestamps for
//!   the closure-time survey (§5.7, Fig. 6).
//! * [`datasets`] — named stand-ins plus the suites used by each
//!   table/figure of the evaluation.
//! * [`stream`] — random edge lists pre-cut into ingest batches for the
//!   incremental-survey property tests.

#![warn(missing_docs)]

pub mod datasets;
pub mod reddit;
pub mod rmat;
pub mod social;
pub mod stream;
pub mod webgraph;

pub use datasets::{
    friendster_like, livejournal_like, reddit_like, table2_suite, table4_suite, twitter_like,
    uk2007_like, wdc_like, webcc12_like, TopoDataset,
};
pub use reddit::{reddit_comments, reddit_edges, RedditConfig, REDDIT_EPOCH};
pub use rmat::{rmat_edges, RmatConfig};
pub use social::{
    chung_lu_edges, community_social_edges, ChungLuConfig, CommunityConfig, CrossModel,
};
pub use stream::{edge_batches, EdgeBatches, EdgeBatchesStrategy};
pub use webgraph::{web_graph, WebGraph, WebGraphConfig, PLANTED_DOMAINS};
