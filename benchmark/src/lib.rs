//! End-to-end benchmark of the TriPoll pipeline. See `README.md`.

pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
