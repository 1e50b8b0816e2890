//! # buscode-pipeline
//!
//! A supervised streaming runtime for the DATE'98 bus codecs.
//!
//! The codecs in `buscode-core` are *mechanisms*: they encode and decode
//! one word at a time, and the stateful ones (T0 and its descendants)
//! silently desynchronize when a fault corrupts their shared reference
//! state. The [`Protected`][buscode_core::codes::Protected] wrapper adds
//! detection (parity) or in-flight correction (SEC-DED) and a bounded
//! resync at the codec level — this crate adds the *policy* layer a
//! production service needs above it:
//!
//! - **Bounded-memory chunked driving** ([`Pipeline::run`]): arbitrarily
//!   long access streams are processed through a fixed-size chunk buffer,
//!   so peak memory is independent of stream length.
//! - **A supervisor around every word** ([`Pipeline::process`]): decode
//!   errors are classified with the
//!   [`RecoveryClass`][buscode_core::RecoveryClass] taxonomy and handled
//!   by configurable [`RecoveryPolicy`] actions — retransmission with
//!   capped exponential backoff for transient faults (the decoder is
//!   rolled back via its [`Snapshot`][buscode_core::Snapshot] before each
//!   retry), a forced resync through a plain-word refresh for desyncs,
//!   and a clean abort for fatal errors.
//! - **Graceful degradation** ([`DegradePolicy`]): when the error rate in
//!   a sliding window crosses a threshold, the runtime demotes the
//!   configured code to plain binary (cheap, stateless, nothing left to
//!   desynchronize) and re-promotes it after a stable window of clean
//!   words. `buscode-power`'s `degradation_cost` prices the milliwatts
//!   the demotion forfeits.
//! - **A watchdog** ([`Clock`], [`PipelineConfig::deadline_micros`]):
//!   each chunk gets a deadline; a chunk that overruns is cut short and
//!   the remainder re-chunked, so a wedged stage can never stall the
//!   stream.
//! - **Adaptive redundancy** ([`RedundancyPolicy`]): a windowed
//!   fault-rate estimator ([`RedundancyManager`]) walks the bus up and
//!   down the bare → parity → ECC protection ladder — escalating
//!   immediately when faults cluster, de-escalating only after a long
//!   clean run — and the runtime rebuilds the codec pair at the new tier
//!   from reset, so every tier switch doubles as a resync. The estimator
//!   counts the flips the ECC tier corrected silently (via
//!   [`Decoder::corrected_count`][buscode_core::Decoder::corrected_count])
//!   as faults, so a fully-corrected noisy bus never reads as clean.
//!   `buscode-power`'s `ecc_cost` prices each rung in milliwatts.
//! - **Checkpoint/restore** ([`Pipeline::checkpoint`],
//!   [`Pipeline::from_checkpoint`]): the full runtime state — both codec
//!   snapshots, the degradation machine, the redundancy manager, and the
//!   statistics — serializes to a text [`Checkpoint`] whose integrity is
//!   sealed by a CRC-32 footer, enabling crash recovery and mid-stream
//!   migration with corruption and truncation detected at parse time.
//!
//! The `pipeline` binary drives all of it from the command line; its
//! `--soak` mode replays a seeded fault campaign (via `buscode-fault`'s
//! models) over a million-word stream and exits nonzero unless every
//! desync was recovered within the refresh bound and the degradation
//! machine demonstrably demoted and re-promoted.
//!
//! ## Example
//!
//! ```
//! use buscode_core::{Access, CodeKind, CodeParams};
//! use buscode_pipeline::{clean_channel, Pipeline, PipelineConfig};
//!
//! # fn main() -> Result<(), buscode_pipeline::PipelineError> {
//! let config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
//! let mut pipe = Pipeline::new(config)?;
//! let stream = (0..10_000u64).map(|i| Access::instruction(0x400 + 4 * i));
//! let stats = pipe.run(stream, &mut clean_channel())?;
//! assert_eq!(stats.words, 10_000);
//! assert_eq!(stats.unrecovered, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod checkpoint;
mod clock;
mod policy;
mod redundancy;
mod runtime;
pub mod soak;

pub use buscode_core::Tier;
pub use checkpoint::Checkpoint;
pub use clock::{Clock, ManualClock, SystemClock};
pub use policy::{DegradePolicy, DegradeSnapshot, Mode, RecoveryPolicy};
pub use redundancy::{RedundancyManager, RedundancyPolicy, RedundancySnapshot, TierShift};
pub use runtime::{
    clean_channel, Channel, ChunkReport, Pipeline, PipelineConfig, PipelineError, PipelineMetrics,
};
