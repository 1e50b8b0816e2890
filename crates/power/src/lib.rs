//! # buscode-power
//!
//! System-level bus power models for the DATE'98 experiments: the I/O pad
//! model, the on-chip and off-chip codec power sweeps behind the paper's
//! Tables 8 and 9 (including the crossover analysis of which code is the
//! net winner at which load), and per-code bus power estimates for every
//! behavioural code.
//!
//! ## Example
//!
//! ```
//! use buscode_core::{BusWidth, Stride};
//! use buscode_logic::Technology;
//! use buscode_power::{offchip_table, PadModel};
//! use buscode_trace::MuxedModel;
//!
//! let stream = MuxedModel::with_targets(0.63, 0.11, 0.576).generate(2000, 1);
//! let table = offchip_table(
//!     &stream,
//!     &[20.0, 100.0],
//!     BusWidth::MIPS,
//!     Stride::WORD,
//!     Technology::date98(),
//!     PadModel::date98(),
//! )?;
//! assert_eq!(table.rows.len(), 2);
//! # Ok::<(), buscode_logic::LogicError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod codec_power;
mod pads;
mod soc;
mod system;

pub use codec_power::{
    offchip_table, offchip_table_for, onchip_table, onchip_table_for, CodecPower, CodecPowerTable,
    LoadRow, ALL_CODECS, TABLE_CODECS,
};
pub use pads::PadModel;
pub use soc::{evaluate_soc, LevelEstimate, SocConfig, SocReport};
pub use system::{
    bus_power, degradation_cost, ecc_cost, hardening_cost, rank_codes, retransmission_cost,
    tier_bus_power, BusPowerEstimate, DegradationCost, EccCost, HardeningCost, RetransmissionCost,
};
