//! Shared plumbing for the reproduction harness: the benchmark
//! [`harness`] behind `cargo bench -p repro-bench` and the `study`
//! binary.
//!
//! Every table and headline claim of the paper is a row of
//! [`aging_cache::presets::PRESETS`]; run any of them with `cargo run
//! --release -p repro-bench --bin study -- preset <name> [--format
//! text|md|csv|json]`. The `study` binary also runs arbitrary scenario
//! grids from the command line.

pub mod harness;
