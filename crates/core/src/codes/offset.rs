//! Extension: offset (difference) encoding.
//!
//! The offset code transmits the arithmetic difference between consecutive
//! addresses, modulo the bus address space:
//!
//! ```text
//! B(t) = b(t) - b(t-1)   (mod 2^N)
//! ```
//!
//! An in-sequence run puts the constant value `S` on the bus — zero
//! transitions after the first word of the run, with no redundant line. The
//! code exploits that address *jumps* are usually short (branches to nearby
//! targets), which keeps the transmitted difference in the low-order lines.
//! Like T0-XOR it belongs to the decorrelation family seeded by the paper's
//! future-work section.

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// The offset encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::OffsetEncoder;
/// use buscode_core::{Access, BusWidth, Encoder};
///
/// let mut enc = OffsetEncoder::new(BusWidth::MIPS);
/// enc.encode(Access::instruction(0x100));
/// let word = enc.encode(Access::instruction(0x104));
/// assert_eq!(word.payload, 4); // the difference rides the bus
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OffsetEncoder {
    width: BusWidth,
    prev_address: u64,
}

impl OffsetEncoder {
    /// Creates an offset encoder for the given bus width.
    pub fn new(width: BusWidth) -> Self {
        OffsetEncoder {
            width,
            prev_address: 0,
        }
    }
}

impl Encoder for OffsetEncoder {
    fn name(&self) -> &'static str {
        "offset"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        0
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let diff = b.wrapping_sub(self.prev_address) & self.width.mask();
        self.prev_address = b;
        BusState::new(diff, 0)
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        let mask = self.width.mask();
        let mut prev = self.prev_address;
        out.extend(accesses.iter().map(|a| {
            let b = a.address & mask;
            let diff = b.wrapping_sub(prev) & mask;
            prev = b;
            BusState::new(diff, 0)
        }));
        self.prev_address = prev;
    }

    fn reset(&mut self) {
        self.prev_address = 0;
    }
}

/// The decoder paired with [`OffsetEncoder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OffsetDecoder {
    width: BusWidth,
    prev_address: u64,
}

impl OffsetDecoder {
    /// Creates an offset decoder for the given bus width.
    pub fn new(width: BusWidth) -> Self {
        OffsetDecoder {
            width,
            prev_address: 0,
        }
    }
}

impl Decoder for OffsetDecoder {
    fn name(&self) -> &'static str {
        "offset"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let address = self.width.wrapping_add(self.prev_address, word.payload);
        self.prev_address = address;
        Ok(address)
    }

    fn decode_block(
        &mut self,
        words: &[BusState],
        _kinds: &[AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        let width = self.width;
        let mut prev = self.prev_address;
        out.extend(words.iter().map(|w| {
            prev = width.wrapping_add(prev, w.payload);
            prev
        }));
        self.prev_address = prev;
        Ok(())
    }

    fn reset(&mut self) {
        self.prev_address = 0;
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for OffsetEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("offset").push(self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "offset")?;
        let prev_address = r.word_at_most(self.width.mask())?;
        r.finish()?;
        self.prev_address = prev_address;
        Ok(())
    }
}

impl Snapshot for OffsetDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("offset").push(self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "offset")?;
        let prev_address = r.word_at_most(self.width.mask())?;
        r.finish()?;
        self.prev_address = prev_address;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn sequential_run_is_constant_on_bus() {
        let mut enc = OffsetEncoder::new(BusWidth::MIPS);
        enc.encode(Access::instruction(0x100));
        let mut prev = enc.encode(Access::instruction(0x104));
        for i in 2..50u64 {
            let w = enc.encode(Access::instruction(0x100 + 4 * i));
            assert_eq!(w.payload, 4);
            assert_eq!(w.transitions_from(prev), 0);
            prev = w;
        }
    }

    #[test]
    fn backwards_jump_wraps() {
        let mut enc = OffsetEncoder::new(BusWidth::new(8).unwrap());
        enc.encode(Access::instruction(0x10));
        let w = enc.encode(Access::instruction(0x08));
        assert_eq!(w.payload, 0xf8); // -8 mod 256
    }

    #[test]
    fn round_trip_random_stream() {
        let mut enc = OffsetEncoder::new(BusWidth::MIPS);
        let mut dec = OffsetDecoder::new(BusWidth::MIPS);
        let mut rng = Rng64::seed_from_u64(61);
        for _ in 0..5000 {
            let addr = rng.gen::<u64>() & BusWidth::MIPS.mask();
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn round_trip_full_width() {
        let mut enc = OffsetEncoder::new(BusWidth::WIDE);
        let mut dec = OffsetDecoder::new(BusWidth::WIDE);
        for addr in [u64::MAX, 0, 1 << 63, 42] {
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn short_jumps_stay_in_low_lines() {
        let mut enc = OffsetEncoder::new(BusWidth::MIPS);
        enc.encode(Access::instruction(0x8000_0000));
        let w = enc.encode(Access::instruction(0x8000_0040)); // +64
        assert!(w.payload < 0x100);
    }
}
