//! # buscode-core
//!
//! Low-power address-bus encoding schemes, reproducing
//! *Benini, De Micheli, Macii, Sciuto, Silvano — "Address Bus Encoding
//! Techniques for System-Level Power Optimization", DATE 1998*.
//!
//! System-level buses drive capacitances up to three orders of magnitude
//! larger than internal nodes, so the number of bus-line *transitions* per
//! clock dominates a chip's I/O power. This crate implements every code the
//! paper discusses — the binary reference, the Gray code, Stan & Burleson's
//! bus-invert, the authors' T0 code, and the paper's three novel mixed
//! codes (T0_BI, dual T0, dual T0_BI) — plus four extension codes from the
//! follow-on literature, behind a uniform [`Encoder`] / [`Decoder`]
//! interface, together with transition metrics and the paper's analytical
//! models.
//!
//! ## Quick start
//!
//! ```
//! use buscode_core::codes::{DualT0BiDecoder, DualT0BiEncoder};
//! use buscode_core::metrics::{binary_reference, verify_round_trip};
//! use buscode_core::{Access, BusWidth, Stride};
//!
//! # fn main() -> Result<(), buscode_core::CodecError> {
//! // A toy multiplexed stream: a loop of instruction fetches with an
//! // interleaved data access.
//! let mut stream = Vec::new();
//! for i in 0..64u64 {
//!     stream.push(Access::instruction(0x400 + 4 * i));
//!     if i % 4 == 3 {
//!         stream.push(Access::data(0x1_0000 + 16 * i));
//!     }
//! }
//!
//! let width = BusWidth::MIPS;
//! let mut enc = DualT0BiEncoder::new(width, Stride::WORD)?;
//! let mut dec = DualT0BiDecoder::new(width, Stride::WORD)?;
//! let coded = verify_round_trip(&mut enc, &mut dec, stream.iter().copied())?;
//! let binary = binary_reference(width, stream.iter().copied());
//! assert!(coded.total() < binary.total()); // fewer transitions than binary
//! # Ok(())
//! # }
//! ```
//!
//! ## Module map
//!
//! - [`codes`] — the encoding schemes themselves;
//! - [`metrics`] — transition counting, savings, round-trip verification;
//! - [`analysis`] — the closed-form models of the paper's Table 1;
//! - [`crc`] — the table-driven CRCs behind link frames, the wire
//!   protocol and checkpoints;
//! - the crate root — bus vocabulary types ([`BusWidth`], [`Stride`],
//!   [`Access`], [`BusState`]) and the [`Encoder`] / [`Decoder`] traits.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod analysis;
mod bus;
pub mod check;
pub mod codes;
pub mod crc;
mod error;
mod kernels;
pub mod metrics;
pub mod rng;
pub mod snapshot;
pub mod stream;
pub mod sym;
mod tier;
mod traits;

pub use bus::{hamming, Access, AccessKind, BusState, BusWidth, Stride};
pub use error::{CodecError, RecoveryClass};
pub use metrics::TransitionStats;
pub use snapshot::{Snapshot, SnapshotDecoder, SnapshotEncoder, StateImage};
pub use stream::{DecoderExt, EncoderExt};
pub use tier::Tier;
pub use traits::{CodeKind, CodeParams, Decoder, Encoder};
