//! Extension: adaptive encoding with a self-organizing list.
//!
//! A follow-on family to this paper (Mamidipaka, Hirschberg and Dutt,
//! TVLSI 2003) keeps the *high-order* address bits — the working-zone
//! identity — in a move-to-front list replicated on both sides of the
//! bus. A hit transmits only the one-hot list position on the high lines
//! (at most two transitions between hot zones) plus the low offset bits
//! in binary; a miss transmits the plain address. Because the list is
//! updated deterministically from what crosses the bus, encoder and
//! decoder never need to exchange bookkeeping.
//!
//! This implementation is a documented simplification of the original
//! (pure move-to-front, one `HIT` line, one-hot position field); see the
//! tests for the synchronization invariant.

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// Shared geometry and list state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct SolState {
    width: BusWidth,
    /// Number of low-order offset bits transmitted in binary.
    low_bits: u32,
    /// Most-recently-used high parts, front first.
    list: Vec<u64>,
    /// Maximum list length (bounded by the available one-hot lines).
    capacity: usize,
}

impl SolState {
    fn new(width: BusWidth, low_bits: u32, entries: u32) -> Result<Self, CodecError> {
        if low_bits >= width.bits() {
            return Err(CodecError::InvalidParameter {
                name: "low_bits",
                reason: format!(
                    "must be smaller than the bus width, got {low_bits} on a {}-bit bus",
                    width.bits()
                ),
            });
        }
        let high_lines = width.bits() - low_bits;
        if entries == 0 || entries > high_lines {
            return Err(CodecError::InvalidParameter {
                name: "entries",
                reason: format!(
                    "must be in 1..=width-low_bits (one-hot lines), got {entries} with {high_lines} lines available"
                ),
            });
        }
        Ok(SolState {
            width,
            low_bits,
            list: Vec::with_capacity(entries as usize),
            capacity: entries as usize,
        })
    }

    fn split(&self, address: u64) -> (u64, u64) {
        let masked = address & self.width.mask();
        (masked >> self.low_bits, masked & self.low_mask())
    }

    fn low_mask(&self) -> u64 {
        if self.low_bits == 0 {
            0
        } else {
            (1u64 << self.low_bits) - 1
        }
    }

    /// Finds a high part; on hit moves it to the front.
    fn lookup_and_promote(&mut self, high: u64) -> Option<usize> {
        let position = self.list.iter().position(|&h| h == high)?;
        let entry = self.list.remove(position);
        self.list.insert(0, entry);
        Some(position)
    }

    /// Inserts a missed high part at the front, evicting the tail.
    fn insert_front(&mut self, high: u64) {
        self.list.insert(0, high);
        self.list.truncate(self.capacity);
    }

    fn reset(&mut self) {
        self.list.clear();
    }
}

/// The self-organizing-list encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::SelfOrganizingEncoder;
/// use buscode_core::{Access, BusWidth, Encoder};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = SelfOrganizingEncoder::new(BusWidth::MIPS, 8, 16)?;
/// enc.encode(Access::data(0x1234_5600)); // miss installs the zone
/// let word = enc.encode(Access::data(0x1234_5604)); // same zone: hit
/// assert_eq!(word.aux, 1); // HIT line
/// assert_eq!(word.payload, 0x0000_0104); // one-hot position 0 | low bits
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SelfOrganizingEncoder {
    state: SolState,
}

impl SelfOrganizingEncoder {
    /// Creates an encoder transmitting `low_bits` offset bits in binary
    /// and tracking up to `entries` working zones.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] when `low_bits` is not
    /// smaller than the width or `entries` exceeds the one-hot lines
    /// available above the offset field.
    pub fn new(width: BusWidth, low_bits: u32, entries: u32) -> Result<Self, CodecError> {
        Ok(SelfOrganizingEncoder {
            state: SolState::new(width, low_bits, entries)?,
        })
    }
}

impl Encoder for SelfOrganizingEncoder {
    fn name(&self) -> &'static str {
        "self-org"
    }

    fn width(&self) -> BusWidth {
        self.state.width
    }

    fn aux_line_count(&self) -> u32 {
        1
    }

    fn encode(&mut self, access: Access) -> BusState {
        let (high, low) = self.state.split(access.address);
        if let Some(position) = self.state.lookup_and_promote(high) {
            let one_hot = 1u64 << (self.state.low_bits + position as u32);
            BusState::new(one_hot | low, 1)
        } else {
            self.state.insert_front(high);
            BusState::new(access.address & self.state.width.mask(), 0)
        }
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

/// The decoder paired with [`SelfOrganizingEncoder`]; maintains the same
/// move-to-front list from the decoded traffic alone.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SelfOrganizingDecoder {
    state: SolState,
}

impl SelfOrganizingDecoder {
    /// Creates the decoder; parameters must match the encoder's.
    ///
    /// # Errors
    ///
    /// As [`SelfOrganizingEncoder::new`].
    pub fn new(width: BusWidth, low_bits: u32, entries: u32) -> Result<Self, CodecError> {
        Ok(SelfOrganizingDecoder {
            state: SolState::new(width, low_bits, entries)?,
        })
    }
}

impl Decoder for SelfOrganizingDecoder {
    fn name(&self) -> &'static str {
        "self-org"
    }

    fn width(&self) -> BusWidth {
        self.state.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        if word.aux & 1 == 1 {
            let position_field = word.payload >> self.state.low_bits;
            if position_field == 0 || !position_field.is_power_of_two() {
                return Err(CodecError::ProtocolViolation {
                    code: "self-org",
                    reason: "hit position field is not one-hot",
                });
            }
            let position = position_field.trailing_zeros() as usize;
            if position >= self.state.list.len() {
                return Err(CodecError::ProtocolViolation {
                    code: "self-org",
                    reason: "hit position beyond the current list",
                });
            }
            let high = self.state.list[position];
            self.state.lookup_and_promote(high);
            Ok((high << self.state.low_bits) | (word.payload & self.state.low_mask()))
        } else {
            let address = word.payload & self.state.width.mask();
            let (high, _) = self.state.split(address);
            self.state.insert_front(high);
            Ok(address)
        }
    }

    fn reset(&mut self) {
        self.state.reset();
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl SolState {
    fn snapshot_words(&self, words: &mut Vec<u64>) {
        words.push(self.list.len() as u64);
        words.extend_from_slice(&self.list);
    }

    /// Reads and validates a list state without mutating `self`; the
    /// entries are borrowed from the image's words.
    fn read_words<'a>(&self, r: &mut ImageReader<'a>) -> Result<&'a [u64], CodecError> {
        let len = r.word_at_most(self.capacity as u64)? as usize;
        r.words_at_most(len, self.width.mask() >> self.low_bits)
    }

    /// Installs a list [`SolState::read_words`] validated, refilling the
    /// list's buffer in place.
    fn install(&mut self, list: &[u64]) {
        self.list.clear();
        self.list.extend_from_slice(list);
    }
}

impl Snapshot for SelfOrganizingEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        self.state.snapshot_words(image.refill("self-org"));
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "self-org")?;
        let list = self.state.read_words(&mut r)?;
        r.finish()?;
        self.state.install(list);
        Ok(())
    }
}

impl Snapshot for SelfOrganizingDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        self.state.snapshot_words(image.refill("self-org"));
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "self-org")?;
        let list = self.state.read_words(&mut r)?;
        r.finish()?;
        self.state.install(list);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn codec() -> (SelfOrganizingEncoder, SelfOrganizingDecoder) {
        (
            SelfOrganizingEncoder::new(BusWidth::MIPS, 8, 16).unwrap(),
            SelfOrganizingDecoder::new(BusWidth::MIPS, 8, 16).unwrap(),
        )
    }

    #[test]
    fn miss_then_hit() {
        let (mut enc, _) = codec();
        let miss = enc.encode(Access::data(0xaaaa_0010));
        assert_eq!(miss.aux, 0);
        assert_eq!(miss.payload, 0xaaaa_0010);
        let hit = enc.encode(Access::data(0xaaaa_0044));
        assert_eq!(hit.aux, 1);
        assert_eq!(hit.payload, (1 << 8) | 0x44);
    }

    #[test]
    fn move_to_front_promotes_hot_zones() {
        let (mut enc, _) = codec();
        enc.encode(Access::data(0x1111_0000)); // zone A (front)
        enc.encode(Access::data(0x2222_0000)); // zone B (front, A second)
                                               // Hit zone A at position 1; it moves to front.
        let w = enc.encode(Access::data(0x1111_0004));
        assert_eq!(w.payload >> 8, 0b10);
        // Next hit on A is at position 0.
        let w = enc.encode(Access::data(0x1111_0008));
        assert_eq!(w.payload >> 8, 0b01);
    }

    #[test]
    fn eviction_bounds_the_list() {
        let (mut enc, _) = codec();
        for zone in 0..20u64 {
            enc.encode(Access::data(0x100_0000 + (zone << 8)));
        }
        // The first zone was evicted (capacity 16): accessing it misses.
        let w = enc.encode(Access::data(0x100_0000));
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn hot_zone_alternation_beats_binary() {
        // Two hot zones whose identities differ in many bits: binary pays
        // the full Hamming distance on every alternation, the list code
        // only swings the one-hot position field.
        let stream: Vec<Access> = (0..400u64)
            .map(|i| {
                let zone = if i % 2 == 0 { 0x5555_aa00 } else { 0x2aaa_5500 };
                Access::data(zone + 4 * (i / 2 % 8))
            })
            .collect();
        let (mut enc, _) = codec();
        let sol = crate::metrics::count_transitions(&mut enc, stream.iter().copied());
        let binary = crate::metrics::binary_reference(BusWidth::MIPS, stream.iter().copied());
        assert!(
            sol.total() * 2 < binary.total(),
            "sol {} vs binary {}",
            sol.total(),
            binary.total()
        );
    }

    #[test]
    fn round_trip_zoned_workload() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(91);
        let zones: Vec<u64> = (0..24).map(|i| 0x4000_0000 + (i << 17)).collect();
        for _ in 0..5000 {
            let addr = if rng.gen_bool(0.9) {
                zones[rng.gen_range(0..zones.len())] + rng.gen_range(0..256u64)
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn decoder_rejects_malformed_hits() {
        let (_, mut dec) = codec();
        // Non-one-hot position field.
        assert!(dec
            .decode(BusState::new(0b11 << 8, 1), AccessKind::Data)
            .is_err());
        // Position beyond the (empty) list.
        assert!(dec
            .decode(BusState::new(1 << 8, 1), AccessKind::Data)
            .is_err());
    }

    #[test]
    fn parameters_validated() {
        assert!(SelfOrganizingEncoder::new(BusWidth::MIPS, 32, 4).is_err());
        assert!(SelfOrganizingEncoder::new(BusWidth::MIPS, 8, 0).is_err());
        assert!(SelfOrganizingEncoder::new(BusWidth::MIPS, 8, 25).is_err());
        assert!(SelfOrganizingEncoder::new(BusWidth::MIPS, 8, 24).is_ok());
        assert!(SelfOrganizingDecoder::new(BusWidth::MIPS, 8, 25).is_err());
    }

    #[test]
    fn zero_low_bits_supported() {
        let mut enc = SelfOrganizingEncoder::new(BusWidth::new(8).unwrap(), 0, 4).unwrap();
        let mut dec = SelfOrganizingDecoder::new(BusWidth::new(8).unwrap(), 0, 4).unwrap();
        for addr in [5u64, 9, 5, 9, 200, 5] {
            let w = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(w, AccessKind::Data).unwrap(), addr);
        }
    }
}
