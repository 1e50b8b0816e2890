//! # buscode
//!
//! A low-power address-bus encoding toolkit reproducing
//! *Benini, De Micheli, Macii, Sciuto, Silvano — "Address Bus Encoding
//! Techniques for System-Level Power Optimization", DATE 1998*, together
//! with every substrate the paper's evaluation depends on.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`buscode_core`] (`core`) — the encoding schemes (binary, Gray,
//!   bus-invert, T0, T0_BI, dual T0, dual T0_BI, plus extensions),
//!   transition metrics, and the paper's analytical models;
//! - [`buscode_trace`] (`trace`) — address-stream model, synthetic generators,
//!   and the calibrated per-benchmark profiles of the paper's Tables 2-7;
//! - [`buscode_cpu`] (`cpu`) — a from-scratch MIPS-like RISC simulator with
//!   assembler and bus probes, for mechanistically realistic traces;
//! - [`buscode_logic`] (`logic`) — a gate-level netlist substrate with cycle
//!   simulation and switching-activity accounting, hosting the paper's
//!   encoder/decoder architectures;
//! - [`buscode_power`] (`power`) — system-level power models for on-chip and
//!   off-chip buses (the paper's Tables 8-9);
//! - [`buscode_lint`] (`lint`) — static verification: graph-level netlist
//!   lints (the `buslint` tool) and the exhaustive encoder/decoder
//!   protocol model checker;
//! - [`buscode_fault`] (`fault`) — fault models, seeded Monte Carlo
//!   fault-injection campaigns (the `faultrun` tool), and gate-level
//!   stuck-at/SEU injection, measuring the resilience side of the
//!   power-vs-reliability trade-off of the `Protected` codec wrapper;
//! - [`buscode_pipeline`] (`pipeline`) — the supervised streaming runtime
//!   (the `pipeline` tool): bounded-memory chunked codec driving with
//!   recovery policies, graceful degradation to binary, watchdog
//!   deadlines, and checkpoint/restore;
//! - [`buscode_engine`] (`engine`) — the batch execution layer: the
//!   sharded [`SweepEngine`](buscode_engine::SweepEngine) with
//!   deterministic result ordering, the unified CLI surface shared by
//!   every workspace binary, and the throughput harness behind
//!   `BENCH_engine.json`;
//! - [`buscode_serve`] (`serve`) — the concurrent encoding service
//!   (`busserved`) and closed/open-loop load generator (`busload`): a
//!   length-prefixed CRC-16 wire protocol over pluggable transports,
//!   sessions coded on their reader threads under a bounded number of
//!   permits, typed RETRY-AFTER load shedding, and a zero-loss graceful
//!   drain;
//! - [`buscode_telemetry`] (`telemetry`) — the observability core: typed
//!   counters, gauges, log-bucketed histograms and span timers, lock-free
//!   shard registries merged deterministically, and the versioned metric
//!   snapshot every CLI's `--metrics {text,json,csv}` flag renders.
//!
//! ## Quick start
//!
//! ```
//! use buscode::prelude::*;
//!
//! # fn main() -> Result<(), buscode::core::CodecError> {
//! // Encode a short instruction run with the T0 code and measure savings.
//! let stream: Vec<Access> = (0..64u64).map(|i| Access::instruction(0x400 + 4 * i)).collect();
//! let width = BusWidth::MIPS;
//! let mut t0 = T0Encoder::new(width, Stride::WORD)?;
//! let coded = count_transitions(&mut t0, stream.iter().copied());
//! let binary = binary_reference(width, stream.iter().copied());
//! assert!(coded.savings_vs(&binary) > 90.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harness that regenerates every table of the paper.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub use buscode_core as core;
pub use buscode_cpu as cpu;
pub use buscode_engine as engine;
pub use buscode_fault as fault;
pub use buscode_link as link;
pub use buscode_lint as lint;
pub use buscode_logic as logic;
pub use buscode_pipeline as pipeline;
pub use buscode_power as power;
pub use buscode_serve as serve;
pub use buscode_telemetry as telemetry;
pub use buscode_trace as trace;

/// Commonly used items from every subsystem, for `use buscode::prelude::*`.
pub mod prelude {
    pub use buscode_core::codes::{
        BinaryEncoder, BusInvertDecoder, BusInvertEncoder, DualT0BiDecoder, DualT0BiEncoder,
        DualT0Decoder, DualT0Encoder, GrayDecoder, GrayEncoder, Hardened, T0BiDecoder, T0BiEncoder,
        T0Decoder, T0Encoder,
    };
    pub use buscode_core::metrics::{
        binary_reference, compare_codes, count_transitions, verify_round_trip,
    };
    pub use buscode_core::{
        Access, AccessKind, BusState, BusWidth, CodeKind, CodeParams, CodecError, Decoder, Encoder,
        Stride, TransitionStats,
    };
    pub use buscode_engine::SweepEngine;
}
