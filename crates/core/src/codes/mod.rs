//! The bus encoding schemes.
//!
//! The seven codes of the DATE'98 paper:
//!
//! | Code | Redundant lines | Targets | Module |
//! |---|---|---|---|
//! | binary | none | reference | [`binary`] |
//! | Gray | none | in-sequence streams | [`gray`] |
//! | bus-invert | `INV` | random (data) streams | [`bus_invert`] |
//! | T0 | `INC` | in-sequence streams | [`t0`] |
//! | T0_BI | `INC`, `INV` | unified (single) buses | [`t0_bi`] |
//! | dual T0 | `INC` | multiplexed buses | [`dual_t0`] |
//! | dual T0_BI | `INCV` | multiplexed buses (paper's best) | [`dual_t0_bi`] |
//!
//! Extension codes from the follow-on literature, used for ablations:
//! [`t0_xor`], [`offset`], [`working_zone`], [`beach`], and
//! [`self_organizing`].
//!
//! The [`protected`] module wraps any of the above with check lines and
//! a periodic plain-word refresh, bounding the damage a transient bus
//! fault can do to the stateful codes: one parity line detects a single
//! flip ([`Hardened`]), SEC-DED Hamming lines correct it in-flight
//! instead of paying a resync window ([`EccHardened`]).

pub mod beach;
pub mod binary;
pub mod bus_invert;
pub mod dual_t0;
pub mod dual_t0_bi;
pub mod gray;
pub mod offset;
pub mod protected;
pub mod self_organizing;
pub mod t0;
pub mod t0_bi;
pub mod t0_xor;
pub mod working_zone;

pub use beach::{BeachCode, BeachDecoder, BeachEncoder};
pub use binary::{BinaryDecoder, BinaryEncoder};
pub use bus_invert::{BusInvertDecoder, BusInvertEncoder};
pub use dual_t0::{DualT0Decoder, DualT0Encoder};
pub use dual_t0_bi::{DualT0BiDecoder, DualT0BiEncoder};
pub use gray::{gray_decode, gray_encode, GrayDecoder, GrayEncoder};
pub use offset::{OffsetDecoder, OffsetEncoder};
pub use protected::{
    ecc_check_bits, EccHardened, Hardened, LineCheck, Parity, Protected, SecDed, Verified,
};
pub use self_organizing::{SelfOrganizingDecoder, SelfOrganizingEncoder};
pub use t0::{T0Decoder, T0Encoder};
pub use t0_bi::{T0BiDecoder, T0BiEncoder};
pub use t0_xor::{T0XorDecoder, T0XorEncoder};
pub use working_zone::{WorkingZoneDecoder, WorkingZoneEncoder};
