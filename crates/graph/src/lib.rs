//! # tripoll-graph — graph substrate for TriPoll
//!
//! Storage and preprocessing for metadata-decorated graphs, reproducing
//! §3 and §4.2 of the TriPoll paper (SC'21, arXiv:2107.12330):
//!
//! * [`edge_list`] — ingest: symmetrization, self-loop removal, duplicate
//!   collapse (with a configurable "keep chronologically first" policy for
//!   temporal multigraphs).
//! * [`order`] — the degree ordering `<+` with deterministic hash
//!   tie-break.
//! * [`partition`] — cyclic and hashed (`random`) vertex-to-rank maps.
//! * [`dodgr`] — the distributed degree-ordered directed graph with the
//!   metadata-augmented adjacency `Adjm+`, built in two asynchronous
//!   communication rounds.
//! * [`csr`] — the serial CSR view used for reference computations and
//!   post-processing.
//! * [`directed`] — directed-input support: collapse arcs to undirected
//!   edges tagged with their original directionality (§4's "additional
//!   two bits of storage").
//! * [`ingest`] — incremental edge-batch ingestion: append a batch to
//!   existing DODGr storage bit-identically to a from-scratch build,
//!   and derive the delta-wedge plan for incremental surveys.
//! * [`io`] — SNAP-style edge-list file readers/writers.
//! * [`radix`] — the stable LSD radix sort that groups records by id in
//!   the build, in canonicalization and in the Push-Pull resume plan.
//! * [`snapshot`] — versioned binary snapshots of DODGr storage for
//!   O(read) restart of a resident graph.
//! * [`error`] — structured errors for graph construction from
//!   untrusted input.

#![warn(missing_docs)]

pub mod csr;
pub mod directed;
pub mod dodgr;
pub mod edge_list;
pub mod error;
pub mod ingest;
pub mod io;
pub mod order;
pub mod partition;
pub mod radix;
pub mod snapshot;

pub use csr::Csr;
pub use directed::{from_directed_edges, Provenance};
pub use dodgr::{build_dist_graph, AdjEntry, DistGraph, GraphStats, LocalShard, LocalVertex};
pub use edge_list::EdgeList;
pub use error::GraphError;
pub use ingest::{apply_edge_batch, apply_edge_batch_with, ApexDelta, BatchDelta, ReverseIndex};
pub use order::OrderKey;
pub use partition::Partition;
pub use radix::radix_sort_by_key;
pub use snapshot::{
    decode_snapshot, encode_snapshot, load_snapshot, save_snapshot, SnapshotError, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
