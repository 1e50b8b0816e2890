//! The unified bare → parity → ECC protection ladder, and the codec
//! factory that builds any code at any rung.
//!
//! Every runtime layer prices the same redundancy trade-off: run the
//! inner code alone ([`Tier::Bare`]), or wrap it in the one protection
//! wrapper, [`Protected`][crate::codes::Protected], whose check kind the
//! tier picks — aux-parity detection with periodic refresh
//! ([`Tier::Parity`], kind [`Parity`][crate::codes::Parity]) or SEC-DED
//! in-flight correction with the same refresh ([`Tier::Ecc`], kind
//! [`SecDed`][crate::codes::SecDed]). The fault campaigns, the streaming
//! pipeline, and the link layer all walk this one ladder;
//! [`CodeKind::tier_snapshot_encoder`] and
//! [`CodeKind::tier_snapshot_decoder`] are the single construction path
//! they share, and [`CodeKind::build_codec`] is the same pair behind the
//! plain [`Encoder`]/[`Decoder`] bounds.

use crate::codes::{EccHardened, Hardened};
use crate::snapshot::{SnapshotDecoder, SnapshotEncoder};
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};
use crate::CodecError;

/// A protection level on the bare → parity → ECC redundancy ladder.
///
/// Ordered by redundancy, so `tier as usize` indexes the ladder and
/// comparisons express "at least this protected".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// The inner code alone — no detection, no correction.
    Bare,
    /// Aux-parity detection plus periodic refresh
    /// ([`Hardened`][crate::codes::Hardened]: the
    /// [`Parity`][crate::codes::Parity] kind of
    /// [`Protected`][crate::codes::Protected]).
    Parity,
    /// SEC-DED in-flight correction plus overall parity and periodic
    /// refresh ([`EccHardened`][crate::codes::EccHardened]: the
    /// [`SecDed`][crate::codes::SecDed] kind).
    Ecc,
}

impl Tier {
    /// Every tier, bottom of the ladder first.
    #[must_use]
    pub fn all() -> &'static [Tier] {
        &[Tier::Bare, Tier::Parity, Tier::Ecc]
    }

    /// A short stable identifier for reports and checkpoints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Bare => "bare",
            Tier::Parity => "parity",
            Tier::Ecc => "ecc",
        }
    }

    /// Parses a [`Tier::name`] back into the tier.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Tier> {
        Tier::all().iter().copied().find(|t| t.name() == name)
    }

    /// The next tier up, or `None` at the top of the ladder.
    #[must_use]
    pub fn up(self) -> Option<Tier> {
        match self {
            Tier::Bare => Some(Tier::Parity),
            Tier::Parity => Some(Tier::Ecc),
            Tier::Ecc => None,
        }
    }

    /// The next tier down, or `None` at the bottom of the ladder.
    #[must_use]
    pub fn down(self) -> Option<Tier> {
        match self {
            Tier::Bare => None,
            Tier::Parity => Some(Tier::Bare),
            Tier::Ecc => Some(Tier::Parity),
        }
    }
}

impl core::fmt::Display for Tier {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

impl CodeKind {
    /// Builds this code's encoder at the given protection tier, behind
    /// the checkpointable [`SnapshotEncoder`] bound: the codec of
    /// [`CodeKind::snapshot_encoder`], wrapped for [`Tier::Parity`] and
    /// [`Tier::Ecc`] in the [`Protected`][crate::codes::Protected]
    /// wrapper of the tier's check kind.
    ///
    /// `refresh` is the protection refresh interval; [`Tier::Bare`]
    /// ignores it.
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn tier_snapshot_encoder(
        self,
        params: CodeParams,
        tier: Tier,
        refresh: u64,
    ) -> Result<Box<dyn SnapshotEncoder>, CodecError> {
        let inner = self.snapshot_encoder(params)?;
        Ok(match tier {
            Tier::Bare => inner,
            Tier::Parity => Box::new(Hardened::encoder(inner, refresh)?),
            Tier::Ecc => Box::new(EccHardened::encoder(inner, refresh)?),
        })
    }

    /// Builds the decoder paired with
    /// [`CodeKind::tier_snapshot_encoder`].
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    pub fn tier_snapshot_decoder(
        self,
        params: CodeParams,
        tier: Tier,
        refresh: u64,
    ) -> Result<Box<dyn SnapshotDecoder>, CodecError> {
        let inner = self.snapshot_decoder(params)?;
        Ok(match tier {
            Tier::Bare => inner,
            Tier::Parity => Box::new(Hardened::with_aux_lines(
                inner,
                refresh,
                self.aux_line_count(params)?,
            )?),
            Tier::Ecc => Box::new(EccHardened::with_aux_lines(
                inner,
                refresh,
                self.aux_line_count(params)?,
            )?),
        })
    }

    /// Builds the matched encoder/decoder pair for this code at the
    /// given tier — the one construction path the fault campaigns, the
    /// pipeline, and the link layer share. The pair of
    /// [`CodeKind::build_snapshot_codec`] behind the plain bounds.
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    #[allow(clippy::type_complexity)]
    pub fn build_codec(
        self,
        params: CodeParams,
        tier: Tier,
        refresh: u64,
    ) -> Result<(Box<dyn Encoder>, Box<dyn Decoder>), CodecError> {
        let (enc, dec) = self.build_snapshot_codec(params, tier, refresh)?;
        Ok((enc, dec))
    }

    /// The matched encoder/decoder pair behind the checkpointable
    /// snapshot bounds.
    ///
    /// # Errors
    ///
    /// Propagates constructor and wrapper validation errors.
    #[allow(clippy::type_complexity)]
    pub fn build_snapshot_codec(
        self,
        params: CodeParams,
        tier: Tier,
        refresh: u64,
    ) -> Result<(Box<dyn SnapshotEncoder>, Box<dyn SnapshotDecoder>), CodecError> {
        Ok((
            self.tier_snapshot_encoder(params, tier, refresh)?,
            self.tier_snapshot_decoder(params, tier, refresh)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Access;

    #[test]
    fn ladder_walks_up_and_down() {
        assert_eq!(Tier::Bare.up(), Some(Tier::Parity));
        assert_eq!(Tier::Parity.up(), Some(Tier::Ecc));
        assert_eq!(Tier::Ecc.up(), None);
        assert_eq!(Tier::Ecc.down(), Some(Tier::Parity));
        assert_eq!(Tier::Bare.down(), None);
        for &tier in Tier::all() {
            assert_eq!(Tier::from_name(tier.name()), Some(tier));
            assert_eq!(format!("{tier}"), tier.name());
        }
        assert_eq!(Tier::from_name("steel"), None);
    }

    #[test]
    fn build_codec_round_trips_every_code_and_tier() {
        let params = CodeParams::default();
        let stream: Vec<Access> = (0..32u64)
            .map(|i| Access::instruction(0x400 + 4 * i))
            .collect();
        for kind in CodeKind::all() {
            for &tier in Tier::all() {
                let (mut enc, mut dec) = kind.build_codec(params, tier, 16).expect("valid params");
                for access in &stream {
                    let word = enc.encode(*access);
                    let back = dec.decode(word, access.kind).expect("conforming stream");
                    assert_eq!(back, access.address, "{kind} at {tier}");
                }
            }
        }
    }
}
