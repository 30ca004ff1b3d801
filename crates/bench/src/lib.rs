#![allow(clippy::type_complexity)]
//! Experiment harness: one function per table/figure of the paper.
//!
//! Every entry in the paper's evaluation (§VI) has a generator here that
//! runs the full simulation stack and returns the same rows/series the
//! paper reports. The `experiments` binary pretty-prints them; the
//! benches in `benches/` time isolated components and collections
//! (end-to-end host throughput is the repository benchmark's job,
//! `benchmark/`).
//!
//! Absolute numbers differ from the paper's hardware testbed (this is a
//! simulator), but the comparisons — who wins, by roughly what factor,
//! where the crossovers fall — are the reproduction target. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

pub mod experiments;
pub mod format;
pub mod gate;
pub mod lab;

pub use experiments::Scale;
