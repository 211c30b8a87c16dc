//! # tripoll-ygm — asynchronous active-message runtime
//!
//! A Rust reproduction of **YGM** ("You've Got Mail"), the asynchronous
//! communication library underneath LLNL's TriPoll system (SC'21,
//! arXiv:2107.12330, §4.1). On a cluster YGM sits on MPI; here a *world*
//! of simulated ranks runs as threads inside one process, communicating
//! exclusively through serialized, buffered active messages — the same
//! programming model, with exact accounting of every byte that would have
//! crossed the network.
//!
//! ## The model
//!
//! * [`World::run`] launches an SPMD program: the same closure on every
//!   rank, differentiated only by [`Comm::rank`].
//! * [`Comm::register`] + [`Comm::send`] provide fire-and-forget RPC: a
//!   registered handler executes on the destination rank with the decoded
//!   payload. Handlers may send further messages.
//! * [`Comm::barrier`] is a quiescence barrier: it completes when all
//!   ranks arrived *and* no sent record anywhere remains unprocessed.
//! * [`wire::Wire`] is the serialization layer (the `cereal` stand-in):
//!   varint-packed, length-prefixed, allocation-checked decoding, with
//!   borrowed mirrors on both ends — [`wire::WireEncode`] for
//!   encode-once sends, in-place decoding off the receive buffer via
//!   [`Comm::register_borrowed`] — and a columnar (SoA) batch frame
//!   ([`wire::ColBatch`] / [`wire::ColSuffixes`] /
//!   [`wire::ColCursor`]) whose key columns are walked during
//!   intersection while metadata decodes on match only.
//! * [`container`] offers the distributed counting set that TriPoll's
//!   surveys tally metadata categories with.
//! * [`stats`] + [`cost`] expose per-rank traffic counters and an α-β-γ
//!   model that converts them into modeled cluster runtimes.
//!
//! ## Example
//!
//! ```
//! use tripoll_ygm::prelude::*;
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! // Four ranks; every rank greets every other rank.
//! let greetings: Vec<u64> = World::new(4).run(|comm| {
//!     let seen = Rc::new(Cell::new(0u64));
//!     let seen2 = seen.clone();
//!     let hello = comm.register::<String, _>(move |_c, _msg| {
//!         seen2.set(seen2.get() + 1);
//!     });
//!     for dest in 0..comm.nranks() {
//!         if dest != comm.rank() {
//!             comm.send(dest, &hello, &format!("hi from {}", comm.rank()));
//!         }
//!     }
//!     comm.barrier();
//!     seen.get()
//! });
//! assert_eq!(greetings, vec![3, 3, 3, 3]);
//! ```

#![deny(missing_docs)]

pub mod buffer;
pub mod collective;
pub mod comm;
pub mod container;
pub mod cost;
pub mod hash;
pub mod quiesce;
pub mod stats;
pub mod wire;
pub mod world;

pub use comm::{Comm, CommConfig, Handler, Rank};
pub use cost::CostModel;
pub use stats::CommStats;
pub use world::{World, WorldOutput};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::comm::{Comm, CommConfig, Handler, Rank};
    pub use crate::container::DistCountingSet;
    pub use crate::cost::CostModel;
    pub use crate::hash::{hash64, FastMap, FastSet};
    pub use crate::stats::CommStats;
    pub use crate::wire::{ColBatch, ColCursor, Wire, WireEncode, WireError, WireReader};
    pub use crate::world::{World, WorldOutput};
}
