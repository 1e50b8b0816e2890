//! # buscode-link
//!
//! The reliable link layer for the DATE'98 bus codes: a framed
//! go-back-N ARQ protocol that carries any of the twelve codes across a
//! seeded Gilbert–Elliott bursty channel, with energy accounting fine
//! enough to answer the system-level question the paper leaves open —
//! *when does paying for retransmissions beat paying for check lines?*
//!
//! The crate is three layers:
//!
//! - [`frame`] — wire frames: 8-bit sequence numbers, beacon/tier CTRL
//!   bits, and a table-driven CRC-16-CCITT over the encoded word, packed
//!   as extra aux lines the channel corrupts like any other;
//! - [`arq`] — the [`LinkSession`] state machine: windowed go-back-N
//!   with cumulative ACKs, NAK/timeout rewinds under capped exponential
//!   [`Backoff`][buscode_engine::Backoff], periodic beacon resyncs
//!   (reusing the `Protected` wrapper's refresh contract), and
//!   redundancy-ladder escalation hints when the bad state persists;
//! - [`campaign`] — seeded sweeps of codes × stream models × channel
//!   profiles behind the `linkrun` CLI, sharded byte-identically over a
//!   [`SweepEngine`][buscode_engine::SweepEngine], with
//!   ARQ-vs-ECC pricing from `buscode_power::retransmission_cost`.
//!
//! ## Example
//!
//! ```
//! use buscode_core::{Access, CodeKind};
//! use buscode_fault::GilbertElliott;
//! use buscode_link::{LinkConfig, LinkSession};
//!
//! let stream: Vec<Access> = (0..128).map(|i| Access::instruction(i * 4)).collect();
//! let profile = GilbertElliott::named("bursty").unwrap();
//! let outcome = LinkSession::new(LinkConfig::new(CodeKind::DualT0Bi), profile, 11)?
//!     .run(&stream)?;
//! assert_eq!(outcome.stats.delivered_words, 128); // exactly-once, in order
//! assert_eq!(outcome.stats.corrupted_delivered, 0); // no silent corruption
//! # Ok::<(), buscode_core::CodecError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod arq;
pub mod campaign;
pub mod frame;

pub use arq::{LinkConfig, LinkMetrics, LinkSession, SessionOutcome};
pub use campaign::{
    run_link_campaign, run_link_campaign_with, LinkCampaignConfig, LinkCampaignReport,
    LinkCampaignRow,
};
pub use frame::{crc16, Crc16, Frame, CRC_LINES, CTRL_LINES, OVERHEAD_LINES, SEQ_LINES};
