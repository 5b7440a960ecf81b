//! `cned-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! One command generates a workload from a seed, drives it through the
//! program's public surfaces, checks every answer against a brute-force
//! oracle, and prints its metrics; see `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod exec;
pub mod gen;
pub mod measure;
pub mod oracle;
pub mod run;
pub mod trace;
pub mod workload;
