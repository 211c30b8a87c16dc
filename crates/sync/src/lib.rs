//! `tripoll-sync` — the synchronization facade the TriPoll runtime
//! crates import instead of `std::sync` / `std::thread`.
//!
//! In a normal build every item here is a re-export of the std item of
//! the same name, so the facade is zero-cost: call sites monomorphize
//! to exactly the code they had before. Under `--cfg tripoll_model`
//! (injected via `RUSTFLAGS` by the model-test CI job; see
//! `docs/CONCURRENCY.md`) the same paths resolve to the instrumented
//! types from `tripoll-modelcheck`, so the runtime's real atomics and
//! spin-loop yields become schedule points of the bounded-exhaustive
//! model checker — the code under test is the shipping code, not a
//! transliteration.
//!
//! The facade carries exactly what the quiescence protocol
//! (`tripoll_ygm::quiesce`) uses. Deliberately **not** switched: `Arc`
//! and `OnceLock` (no scheduling decisions worth exploring), plus
//! everything in crates that never runs inside a model closure.

#![deny(missing_docs)]

/// Atomic types and `Ordering`: std's in normal builds, instrumented
/// under `--cfg tripoll_model`.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(tripoll_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};

    #[cfg(tripoll_model)]
    pub use tripoll_modelcheck::sync::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize};
}

/// Spin-loop yielding: std's in normal builds, the model scheduler's
/// under `--cfg tripoll_model`.
pub mod thread {
    #[cfg(not(tripoll_model))]
    pub use std::thread::yield_now;

    #[cfg(tripoll_model)]
    pub use tripoll_modelcheck::thread::yield_now;
}
