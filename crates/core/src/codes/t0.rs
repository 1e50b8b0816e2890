//! The T0 asymptotic-zero-transition code (paper Section 2.2, ref \[6\]).
//!
//! T0 adds one redundant line, `INC`, that tells the receiver the current
//! address is the previous address plus the stride `S`. When `INC` is
//! asserted the payload lines are *frozen* at their previous value — no line
//! switches — and the receiver computes the address itself:
//!
//! ```text
//! (B(t), INC(t)) = (B(t-1), 1)  if b(t) = b(t-1) + S
//!                  (b(t),   0)  otherwise
//! ```
//!
//! On an unlimited stream of consecutive addresses the bus never switches at
//! all — zero transitions per emitted address, beating the Gray code's
//! irredundant optimum of one. On the paper's instruction address streams T0
//! saves 35.52% of transitions on average versus binary (Table 2).

use crate::bus::{Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// The T0 encoder.
///
/// # Examples
///
/// A run of consecutive addresses freezes the bus:
///
/// ```
/// use buscode_core::codes::T0Encoder;
/// use buscode_core::{Access, BusState, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD)?;
/// let mut prev = enc.encode(Access::instruction(0x100));
/// for addr in [0x104u64, 0x108, 0x10c] {
///     let word = enc.encode(Access::instruction(addr));
///     assert_eq!(word.transitions_from(prev), if prev.aux == 0 { 1 } else { 0 });
///     prev = word;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0Encoder {
    width: BusWidth,
    stride: Stride,
    prev_address: Option<u64>,
    prev_bus: BusState,
}

impl T0Encoder {
    /// Creates a T0 encoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0Encoder {
            width,
            stride,
            prev_address: None,
            prev_bus: BusState::reset(),
        })
    }

    /// The configured stride.
    pub fn stride(&self) -> Stride {
        self.stride
    }
}

impl Encoder for T0Encoder {
    fn name(&self) -> &'static str {
        "t0"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        1
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let sequential = self
            .prev_address
            .is_some_and(|prev| b == self.width.wrapping_add(prev, self.stride.get()));
        let out = if sequential {
            BusState::new(self.prev_bus.payload, 1)
        } else {
            BusState::new(b, 0)
        };
        self.prev_address = Some(b);
        self.prev_bus = out;
        out
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        let width = self.width;
        let stride = self.stride.get();
        let mut prev_address = self.prev_address;
        let mut prev_bus = self.prev_bus;
        out.extend(accesses.iter().map(|a| {
            let b = a.address & width.mask();
            let sequential = prev_address.is_some_and(|prev| b == width.wrapping_add(prev, stride));
            let word = if sequential {
                BusState::new(prev_bus.payload, 1)
            } else {
                BusState::new(b, 0)
            };
            prev_address = Some(b);
            prev_bus = word;
            word
        }));
        self.prev_address = prev_address;
        self.prev_bus = prev_bus;
    }

    fn reset(&mut self) {
        self.prev_address = None;
        self.prev_bus = BusState::reset();
    }
}

/// The decoder paired with [`T0Encoder`].
///
/// Tracks the last decoded address; an asserted `INC` line reproduces
/// `previous + S` locally without reading the frozen payload lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0Decoder {
    width: BusWidth,
    stride: Stride,
    prev_address: Option<u64>,
}

impl T0Decoder {
    /// Creates a T0 decoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0Decoder {
            width,
            stride,
            prev_address: None,
        })
    }
}

impl Decoder for T0Decoder {
    fn name(&self) -> &'static str {
        "t0"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let address = if word.aux & 1 == 1 {
            let prev = self.prev_address.ok_or(CodecError::ProtocolViolation {
                code: "t0",
                reason: "inc asserted before any reference address",
            })?;
            self.width.wrapping_add(prev, self.stride.get())
        } else {
            word.payload & self.width.mask()
        };
        self.prev_address = Some(address);
        Ok(address)
    }

    fn decode_block(
        &mut self,
        words: &[BusState],
        _kinds: &[AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        out.reserve(words.len());
        let width = self.width;
        let stride = self.stride.get();
        for &word in words {
            let address = if word.aux & 1 == 1 {
                let Some(prev) = self.prev_address else {
                    return Err(CodecError::ProtocolViolation {
                        code: "t0",
                        reason: "inc asserted before any reference address",
                    });
                };
                width.wrapping_add(prev, stride)
            } else {
                word.payload & width.mask()
            };
            self.prev_address = Some(address);
            out.push(address);
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.prev_address = None;
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{push_opt, ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for T0Encoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        let words = image.refill("t0");
        push_opt(words, self.prev_address);
        words.push(self.prev_bus.payload);
        words.push(self.prev_bus.aux);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0")?;
        let prev_address = r.opt_at_most(self.width.mask())?;
        let payload = r.word_at_most(self.width.mask())?;
        let aux = r.word_at_most(1)?; // INC line only
        r.finish()?;
        self.prev_address = prev_address;
        self.prev_bus = BusState::new(payload, aux);
        Ok(())
    }
}

impl Snapshot for T0Decoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        push_opt(image.refill("t0"), self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0")?;
        let prev_address = r.opt_at_most(self.width.mask())?;
        r.finish()?;
        self.prev_address = prev_address;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn codec() -> (T0Encoder, T0Decoder) {
        (
            T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
            T0Decoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
        )
    }

    #[test]
    fn first_cycle_is_binary_with_inc_low() {
        let (mut enc, _) = codec();
        let w = enc.encode(Access::instruction(0x42f0));
        assert_eq!(w.payload, 0x42f0);
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn sequential_addresses_freeze_the_bus() {
        let (mut enc, _) = codec();
        let w0 = enc.encode(Access::instruction(0x100));
        let w1 = enc.encode(Access::instruction(0x104));
        assert_eq!(w1.payload, w0.payload);
        assert_eq!(w1.aux, 1);
        // Only the INC line toggles on entry into the run; inside the run
        // nothing toggles at all.
        let w2 = enc.encode(Access::instruction(0x108));
        assert_eq!(w2.transitions_from(w1), 0);
    }

    #[test]
    fn jump_releases_the_bus() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        enc.encode(Access::instruction(0x104));
        let w = enc.encode(Access::instruction(0x8000));
        assert_eq!(w.payload, 0x8000);
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn repeated_address_is_not_sequential() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        let w = enc.encode(Access::instruction(0x100));
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn zero_transitions_on_unlimited_consecutive_stream() {
        // The paper's asymptotic claim: zero transitions per emitted
        // consecutive address.
        let (mut enc, _) = codec();
        let mut prev = enc.encode(Access::instruction(0));
        let mut transitions = 0;
        for i in 1..10_000u64 {
            let w = enc.encode(Access::instruction(4 * i));
            transitions += w.transitions_from(prev);
            prev = w;
        }
        assert_eq!(transitions, 1); // the single 0->1 INC transition
    }

    #[test]
    fn round_trip_mixed_stream() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(11);
        let mut addr = 0x1000u64;
        for _ in 0..5000 {
            if rng.gen_bool(0.7) {
                addr = BusWidth::MIPS.wrapping_add(addr, 4);
            } else {
                addr = rng.gen::<u64>() & BusWidth::MIPS.mask();
            }
            let word = enc.encode(Access::instruction(addr));
            assert_eq!(dec.decode(word, AccessKind::Instruction).unwrap(), addr);
        }
    }

    #[test]
    fn sequentiality_wraps_at_address_space_end() {
        let width = BusWidth::new(8).unwrap();
        let stride = Stride::new(4, width).unwrap();
        let mut enc = T0Encoder::new(width, stride).unwrap();
        let mut dec = T0Decoder::new(width, stride).unwrap();
        let w0 = enc.encode(Access::instruction(0xfc));
        assert_eq!(dec.decode(w0, AccessKind::Instruction).unwrap(), 0xfc);
        let w1 = enc.encode(Access::instruction(0x00)); // 0xfc + 4 wraps to 0
        assert_eq!(w1.aux, 1, "wrap-around counts as sequential");
        assert_eq!(dec.decode(w1, AccessKind::Instruction).unwrap(), 0x00);
    }

    #[test]
    fn decoder_rejects_inc_on_first_cycle() {
        let (_, mut dec) = codec();
        let err = dec
            .decode(BusState::new(0, 1), AccessKind::Instruction)
            .unwrap_err();
        assert!(matches!(
            err,
            CodecError::ProtocolViolation { code: "t0", .. }
        ));
    }

    #[test]
    fn stride_one_variant() {
        let width = BusWidth::MIPS;
        let stride = Stride::UNIT;
        let mut enc = T0Encoder::new(width, stride).unwrap();
        enc.encode(Access::instruction(10));
        let w = enc.encode(Access::instruction(11));
        assert_eq!(w.aux, 1);
        let w = enc.encode(Access::instruction(15));
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn reset_clears_reference() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        enc.reset();
        let w = enc.encode(Access::instruction(0x104));
        assert_eq!(w.aux, 0, "no reference after reset");
    }
}
