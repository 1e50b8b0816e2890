//! Extension: the T0-XOR decorrelation code.
//!
//! T0-XOR is an *irredundant* relative of T0 from the follow-on literature
//! the paper seeds (Benini et al., "Architectures and synthesis algorithms
//! for power-efficient bus interfaces"). Instead of freezing the bus behind
//! a redundant `INC` line, the encoder transmits the XOR of the current
//! address with the *predicted* address:
//!
//! ```text
//! B(t) = b(t) XOR (b(t-1) + S)
//! ```
//!
//! When the stream is in-sequence the prediction is exact and the bus
//! carries the all-zero word: after the first cycle of a run, zero
//! transitions per address, like T0 — but without any extra line. The cost
//! is that out-of-sequence patterns are decorrelated (roughly random), so
//! the code behaves like binary on random traffic.
//!
//! The very first transmitted word uses prediction `0 + S`, a convention
//! shared by encoder and decoder.

use crate::bus::{Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// The T0-XOR encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::T0XorEncoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = T0XorEncoder::new(BusWidth::MIPS, Stride::WORD)?;
/// enc.encode(Access::instruction(0x100));
/// let word = enc.encode(Access::instruction(0x104)); // predicted exactly
/// assert_eq!(word.payload, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0XorEncoder {
    width: BusWidth,
    stride: Stride,
    prev_address: u64,
}

impl T0XorEncoder {
    /// Creates a T0-XOR encoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0XorEncoder {
            width,
            stride,
            prev_address: 0,
        })
    }
}

impl Encoder for T0XorEncoder {
    fn name(&self) -> &'static str {
        "t0-xor"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        0
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let predicted = self
            .width
            .wrapping_add(self.prev_address, self.stride.get());
        self.prev_address = b;
        BusState::new(b ^ predicted, 0)
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        let width = self.width;
        let stride = self.stride.get();
        let mask = width.mask();
        let mut prev = self.prev_address;
        out.extend(accesses.iter().map(|a| {
            let b = a.address & mask;
            let predicted = width.wrapping_add(prev, stride);
            prev = b;
            BusState::new(b ^ predicted, 0)
        }));
        self.prev_address = prev;
    }

    fn reset(&mut self) {
        self.prev_address = 0;
    }
}

/// The decoder paired with [`T0XorEncoder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0XorDecoder {
    width: BusWidth,
    stride: Stride,
    prev_address: u64,
}

impl T0XorDecoder {
    /// Creates a T0-XOR decoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0XorDecoder {
            width,
            stride,
            prev_address: 0,
        })
    }
}

impl Decoder for T0XorDecoder {
    fn name(&self) -> &'static str {
        "t0-xor"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let predicted = self
            .width
            .wrapping_add(self.prev_address, self.stride.get());
        let address = (word.payload ^ predicted) & self.width.mask();
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
        let stride = self.stride.get();
        let mask = width.mask();
        let mut prev = self.prev_address;
        out.extend(words.iter().map(|w| {
            let predicted = width.wrapping_add(prev, stride);
            prev = (w.payload ^ predicted) & mask;
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

impl Snapshot for T0XorEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("t0-xor").push(self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0-xor")?;
        let prev_address = r.word_at_most(self.width.mask())?;
        r.finish()?;
        self.prev_address = prev_address;
        Ok(())
    }
}

impl Snapshot for T0XorDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("t0-xor").push(self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0-xor")?;
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

    fn codec() -> (T0XorEncoder, T0XorDecoder) {
        (
            T0XorEncoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
            T0XorDecoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
        )
    }

    #[test]
    fn sequential_run_holds_bus_at_zero() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        for i in 1..100u64 {
            let w = enc.encode(Access::instruction(0x100 + 4 * i));
            assert_eq!(w.payload, 0);
            assert_eq!(w.aux, 0);
        }
    }

    #[test]
    fn no_redundant_lines() {
        let (enc, _) = codec();
        assert_eq!(enc.aux_line_count(), 0);
    }

    #[test]
    fn round_trip_random_stream() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(53);
        for _ in 0..5000 {
            let addr = rng.gen::<u64>() & BusWidth::MIPS.mask();
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn round_trip_narrow_bus_with_wraparound() {
        let width = BusWidth::new(6).unwrap();
        let stride = Stride::new(2, width).unwrap();
        let mut enc = T0XorEncoder::new(width, stride).unwrap();
        let mut dec = T0XorDecoder::new(width, stride).unwrap();
        for step in 0..200u64 {
            let addr = (step * 7) & width.mask();
            let word = enc.encode(Access::instruction(addr));
            assert_eq!(dec.decode(word, AccessKind::Instruction).unwrap(), addr);
        }
    }

    #[test]
    fn first_word_uses_stride_prediction_convention() {
        let (mut enc, mut dec) = codec();
        let w = enc.encode(Access::instruction(0x104));
        assert_eq!(w.payload, 0x104 ^ 4);
        assert_eq!(dec.decode(w, AccessKind::Instruction).unwrap(), 0x104);
    }
}
