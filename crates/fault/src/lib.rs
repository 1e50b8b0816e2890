//! # buscode-fault
//!
//! Fault injection and resilience measurement for the bus codecs.
//!
//! The DATE'98 codes trade redundancy for power, and the stateful ones
//! (T0 and its mixed descendants) additionally trade *fault containment*:
//! a single in-transit bit flip can desynchronize the decoder for an
//! unbounded number of cycles. This crate makes that hazard measurable
//! and checks the fix:
//!
//! - [`models`] — behavioral fault models on the encoded word stream:
//!   transient flips, stuck-at lines, bursts, dropped/duplicated cycles —
//!   plus the seeded two-state [`GilbertElliott`] bursty channel
//!   ([`GeChannel`]) whose state-dependent flip/erase/drop perils the
//!   link layer (`buscode-link`) retransmits through;
//! - [`campaign`] — seeded Monte Carlo campaigns over every code × stream
//!   kind, bare and under the parity kind of the
//!   [`Protected`][buscode_core::codes::Protected] wrapper, reporting
//!   silent-data-corruption rate, detection rate, and cycles-to-resync —
//!   plus the parity-vs-ECC comparison grid
//!   ([`campaign::run_comparison`]) that additionally sweeps the same
//!   wrapper's SEC-DED kind and counts in-flight corrections;
//! - [`gate`] — the same idea at gate level: stuck-at and flip-flop SEU
//!   injection inside the synthesized codec netlists via
//!   [`Simulator`][buscode_logic::Simulator]'s fault hooks.
//!
//! The `faultrun` binary drives all of it from the command line and is
//! the CI smoke gate for the hardening guarantees.
//!
//! ## Example
//!
//! ```
//! use buscode_fault::campaign::{run_campaign, CampaignConfig};
//! use buscode_fault::models::FaultKind;
//!
//! let config = CampaignConfig {
//!     trials: 4,
//!     stream_len: 64,
//!     faults: vec![FaultKind::TransientFlip],
//!     ..CampaignConfig::default()
//! };
//! let report = run_campaign(&config).unwrap();
//! // Hardened codecs never let a transient flip slip past the refresh
//! // bound.
//! assert!(report
//!     .rows
//!     .iter()
//!     .filter(|r| r.hardened)
//!     .all(|r| r.stats.beyond_bound_cycles == 0));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod campaign;
pub mod gate;
pub mod models;

pub use buscode_core::Tier;
pub use campaign::{
    is_stateful, run_campaign, run_comparison, run_ge_campaign, CampaignConfig, CampaignReport,
    CampaignRow, ComparisonReport, ComparisonRow, FaultMetrics, GeCampaignConfig, GeCampaignReport,
    GeCampaignRow, GeMetrics,
};
pub use gate::{run_gate_campaign, GateCampaignConfig, GateCellStats, GateFault};
pub use models::{
    apply_ge_channel, corrupt_words, BusGeometry, FaultKind, FaultSite, GeChannel, GeChannelStats,
    GeEvent, GilbertElliott,
};
