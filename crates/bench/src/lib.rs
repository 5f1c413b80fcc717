//! # batterylab-bench
//!
//! Benchmark harness for the BatteryLab reproduction. The `eval` binary
//! regenerates every table and figure of the paper (see `eval --help`);
//! the Criterion benches (`cargo bench`) time the same pipelines at
//! reduced scale plus microbenches of the platform's hot paths (ADB
//! framing, Monsoon sampling, relay switching, device-trace building,
//! WAL CRC and append).

#![warn(missing_docs)]
