//! Extension: simplified working-zone encoding (WZE).
//!
//! Working-zone encoding (Musoll, Lang and Cortadella) observes that
//! applications favour a few small *working zones* of their address space
//! (stack, current array, code region). The encoder keeps `K` zone base
//! registers; when an address falls inside a zone it transmits only the
//! word-offset within the zone, *one-hot encoded* — so consecutive nearby
//! references toggle at most two payload lines — plus the zone index on a
//! handful of redundant lines.
//!
//! This implementation is a documented simplification of the original:
//!
//! - a zone covers `N` stride-aligned offsets starting at its base (a
//!   one-hot offset per payload line);
//! - zone bases are set on a miss and replaced round-robin, with the
//!   replacement counter mirrored in the decoder so no victim index needs
//!   to be transmitted;
//! - on a miss the address is sent in plain binary with the `HIT` line low
//!   and the zone-index lines frozen.
//!
//! Redundant lines (`aux`, LSB-first): bit 0 is `HIT`; bits `1..` carry the
//! zone index (`ceil(log2 K)` lines).

use crate::bus::{Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

fn zone_index_bits(zones: u32) -> u32 {
    32 - (zones - 1).leading_zeros().min(32)
}

fn validate_zones(zones: u32) -> Result<(), CodecError> {
    if zones == 0 || zones > 64 {
        return Err(CodecError::InvalidParameter {
            name: "zones",
            reason: format!("must be in 1..=64, got {zones}"),
        });
    }
    Ok(())
}

/// Shared zone bookkeeping for encoder and decoder.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ZoneTable {
    width: BusWidth,
    stride: Stride,
    bases: Vec<Option<u64>>,
    victim: usize,
}

impl ZoneTable {
    fn new(width: BusWidth, stride: Stride, zones: u32) -> Self {
        ZoneTable {
            width,
            stride,
            bases: vec![None; zones as usize],
            victim: 0,
        }
    }

    /// Looks up the zone containing `address`; returns `(zone, offset)`.
    fn lookup(&self, address: u64) -> Option<(usize, u32)> {
        let span = u64::from(self.width.bits()) * self.stride.get();
        for (i, base) in self.bases.iter().enumerate() {
            let Some(base) = *base else { continue };
            let delta = address.wrapping_sub(base) & self.width.mask();
            if delta < span && delta.is_multiple_of(self.stride.get()) {
                return Some((i, (delta / self.stride.get()) as u32));
            }
        }
        None
    }

    /// Installs `address` as the base of the round-robin victim zone.
    fn replace(&mut self, address: u64) {
        self.bases[self.victim] = Some(address);
        self.victim = (self.victim + 1) % self.bases.len();
    }

    fn reset(&mut self) {
        self.bases.fill(None);
        self.victim = 0;
    }
}

/// The simplified working-zone encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::WorkingZoneEncoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = WorkingZoneEncoder::new(BusWidth::MIPS, Stride::WORD, 4)?;
/// enc.encode(Access::data(0x1000)); // miss: installs a zone
/// let word = enc.encode(Access::data(0x1008)); // hit at offset 2
/// assert_eq!(word.payload, 0b100); // one-hot offset
/// assert_eq!(word.aux & 1, 1); // HIT line
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WorkingZoneEncoder {
    zones: ZoneTable,
    zone_bits: u32,
    prev_zone_field: u64,
}

impl WorkingZoneEncoder {
    /// Creates a working-zone encoder with `zones` zone registers.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `zones` is zero or
    /// greater than 64.
    pub fn new(width: BusWidth, stride: Stride, zones: u32) -> Result<Self, CodecError> {
        validate_zones(zones)?;
        Ok(WorkingZoneEncoder {
            zones: ZoneTable::new(width, stride, zones),
            zone_bits: zone_index_bits(zones),
            prev_zone_field: 0,
        })
    }
}

impl Encoder for WorkingZoneEncoder {
    fn name(&self) -> &'static str {
        "working-zone"
    }

    fn width(&self) -> BusWidth {
        self.zones.width
    }

    fn aux_line_count(&self) -> u32 {
        1 + self.zone_bits
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.zones.width.mask();
        if let Some((zone, offset)) = self.zones.lookup(b) {
            self.prev_zone_field = zone as u64;
            BusState::new(1u64 << offset, 1 | ((zone as u64) << 1))
        } else {
            self.zones.replace(b);
            // HIT low; zone-index lines frozen to avoid gratuitous toggles.
            BusState::new(b, self.prev_zone_field << 1)
        }
    }

    fn reset(&mut self) {
        self.zones.reset();
        self.prev_zone_field = 0;
    }
}

/// The decoder paired with [`WorkingZoneEncoder`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WorkingZoneDecoder {
    zones: ZoneTable,
    zone_bits: u32,
}

impl WorkingZoneDecoder {
    /// Creates a working-zone decoder with `zones` zone registers.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `zones` is zero or
    /// greater than 64.
    pub fn new(width: BusWidth, stride: Stride, zones: u32) -> Result<Self, CodecError> {
        validate_zones(zones)?;
        Ok(WorkingZoneDecoder {
            zones: ZoneTable::new(width, stride, zones),
            zone_bits: zone_index_bits(zones),
        })
    }
}

impl Decoder for WorkingZoneDecoder {
    fn name(&self) -> &'static str {
        "working-zone"
    }

    fn width(&self) -> BusWidth {
        self.zones.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        if word.aux & 1 == 1 {
            if word.payload == 0 || !word.payload.is_power_of_two() {
                return Err(CodecError::ProtocolViolation {
                    code: "working-zone",
                    reason: "hit payload is not one-hot",
                });
            }
            let zone = ((word.aux >> 1) & ((1u64 << self.zone_bits) - 1)) as usize;
            let base = self.zones.bases.get(zone).copied().flatten().ok_or(
                CodecError::ProtocolViolation {
                    code: "working-zone",
                    reason: "hit on an uninitialized zone",
                },
            )?;
            let offset = u64::from(word.payload.trailing_zeros());
            Ok(self
                .zones
                .width
                .wrapping_add(base, offset * self.zones.stride.get()))
        } else {
            let address = word.payload & self.zones.width.mask();
            self.zones.replace(address);
            Ok(address)
        }
    }

    fn reset(&mut self) {
        self.zones.reset();
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{push_opt, ImageReader, ImageView, Snapshot, StateImage};

impl ZoneTable {
    fn snapshot_words(&self, words: &mut Vec<u64>) {
        for base in &self.bases {
            push_opt(words, *base);
        }
        words.push(self.victim as u64);
    }

    /// Reads and validates a table state without mutating `self`. The
    /// bases are yielded from the image's words, for [`ZoneTable::install`].
    fn read_words<'a>(
        &self,
        r: &mut ImageReader<'a>,
    ) -> Result<(impl Iterator<Item = Option<u64>> + 'a, usize), CodecError> {
        let bases = r.opts_at_most(self.bases.len(), self.width.mask())?;
        let victim = r.word_at_most(self.bases.len() as u64 - 1)? as usize;
        Ok((bases, victim))
    }

    /// Installs a state [`ZoneTable::read_words`] validated, refilling the
    /// base registers in place.
    fn install(&mut self, bases: impl Iterator<Item = Option<u64>>, victim: usize) {
        for (slot, base) in self.bases.iter_mut().zip(bases) {
            *slot = base;
        }
        self.victim = victim;
    }
}

impl Snapshot for WorkingZoneEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        let words = image.refill("working-zone");
        self.zones.snapshot_words(words);
        words.push(self.prev_zone_field);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "working-zone")?;
        let (bases, victim) = self.zones.read_words(&mut r)?;
        let prev_zone_field = r.word_at_most(self.zones.bases.len() as u64 - 1)?;
        r.finish()?;
        self.zones.install(bases, victim);
        self.prev_zone_field = prev_zone_field;
        Ok(())
    }
}

impl Snapshot for WorkingZoneDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        self.zones.snapshot_words(image.refill("working-zone"));
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "working-zone")?;
        let (bases, victim) = self.zones.read_words(&mut r)?;
        r.finish()?;
        self.zones.install(bases, victim);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn codec(zones: u32) -> (WorkingZoneEncoder, WorkingZoneDecoder) {
        (
            WorkingZoneEncoder::new(BusWidth::MIPS, Stride::WORD, zones).unwrap(),
            WorkingZoneDecoder::new(BusWidth::MIPS, Stride::WORD, zones).unwrap(),
        )
    }

    #[test]
    fn zone_index_bit_budget() {
        assert_eq!(zone_index_bits(1), 0);
        assert_eq!(zone_index_bits(2), 1);
        assert_eq!(zone_index_bits(4), 2);
        assert_eq!(zone_index_bits(5), 3);
        assert_eq!(zone_index_bits(64), 6);
    }

    #[test]
    fn miss_then_hit_within_zone() {
        let (mut enc, _) = codec(4);
        let miss = enc.encode(Access::data(0x2000));
        assert_eq!(miss.aux & 1, 0);
        assert_eq!(miss.payload, 0x2000);
        let hit = enc.encode(Access::data(0x2004));
        assert_eq!(hit.aux & 1, 1);
        assert_eq!(hit.payload, 0b10);
    }

    #[test]
    fn nearby_hits_toggle_at_most_two_payload_lines() {
        let (mut enc, _) = codec(4);
        enc.encode(Access::data(0x2000));
        let mut prev = enc.encode(Access::data(0x2004));
        for off in [2u64, 3, 2, 4, 5, 4] {
            let w = enc.encode(Access::data(0x2000 + 4 * off));
            assert!(w.payload.is_power_of_two());
            assert!((w.payload ^ prev.payload).count_ones() <= 2);
            prev = w;
        }
    }

    #[test]
    fn unaligned_offset_is_a_miss() {
        let (mut enc, _) = codec(4);
        enc.encode(Access::data(0x2000));
        let w = enc.encode(Access::data(0x2002)); // not stride-aligned
        assert_eq!(w.aux & 1, 0);
    }

    #[test]
    fn far_address_is_a_miss() {
        let (mut enc, _) = codec(4);
        enc.encode(Access::data(0x2000));
        let span = 32 * 4; // N offsets * stride
        let w = enc.encode(Access::data(0x2000 + span));
        assert_eq!(w.aux & 1, 0);
    }

    #[test]
    fn round_trip_zoned_workload() {
        let (mut enc, mut dec) = codec(4);
        let mut rng = Rng64::seed_from_u64(67);
        let zones = [0x1000u64, 0x8000, 0x4_0000, 0xffff_0000];
        for _ in 0..5000 {
            let zone = zones[rng.gen_range(0..zones.len())];
            let addr = if rng.gen_bool(0.8) {
                zone + 4 * rng.gen_range(0..32u64)
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn round_trip_single_zone() {
        let (mut enc, mut dec) = codec(1);
        for addr in [0x100u64, 0x104, 0x108, 0x9000, 0x9004, 0x100] {
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn decoder_rejects_non_one_hot_hit() {
        let (_, mut dec) = codec(4);
        let err = dec
            .decode(BusState::new(0b101, 1), AccessKind::Data)
            .unwrap_err();
        assert!(matches!(err, CodecError::ProtocolViolation { .. }));
    }

    #[test]
    fn decoder_rejects_hit_on_empty_zone() {
        let (_, mut dec) = codec(4);
        let err = dec
            .decode(BusState::new(1, 1), AccessKind::Data)
            .unwrap_err();
        assert!(matches!(err, CodecError::ProtocolViolation { .. }));
    }

    #[test]
    fn invalid_zone_counts_rejected() {
        assert!(WorkingZoneEncoder::new(BusWidth::MIPS, Stride::WORD, 0).is_err());
        assert!(WorkingZoneEncoder::new(BusWidth::MIPS, Stride::WORD, 65).is_err());
        assert!(WorkingZoneDecoder::new(BusWidth::MIPS, Stride::WORD, 0).is_err());
    }
}
