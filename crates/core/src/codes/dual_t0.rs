//! The dual T0 code (paper Section 3.2): `SEL`-gated T0 for multiplexed
//! address buses.
//!
//! On a multiplexed bus two streams with very different behaviour share the
//! wires: stream alpha (instruction addresses, `SEL = 1`) is highly
//! sequential, stream beta (data addresses, `SEL = 0`) almost never is.
//! Plain T0 loses most of its opportunities because interleaved data
//! accesses break the arithmetic chains between instruction fetches.
//!
//! Dual T0 keeps a dedicated reference register that is updated *only when
//! `SEL` is asserted*, so instruction-stream sequentiality survives data
//! interruptions (paper Eq. 8-9):
//!
//! ```text
//! (B(t), INC(t)) = (B(t-1), 1)  if SEL = 1 and b(t) = r(t-1) + S
//!                  (b(t),   0)  otherwise
//! r(t) = b(t) if SEL = 1, else r(t-1)
//! ```
//!
//! The `SEL` signal already exists on the standard bus interface to
//! de-multiplex the streams at the receiver, so the code spends only the
//! `INC` line. On pure instruction streams dual T0 matches plain T0
//! (35.52% savings, Table 5); on pure data streams it degenerates to binary
//! (0.00%, Table 6); on the muxed MIPS bus it saves 12.15% (Table 7).

use crate::bus::{Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// The dual T0 encoder.
///
/// # Examples
///
/// Instruction sequentiality survives a data interruption:
///
/// ```
/// use buscode_core::codes::DualT0Encoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = DualT0Encoder::new(BusWidth::MIPS, Stride::WORD)?;
/// enc.encode(Access::instruction(0x100));
/// enc.encode(Access::data(0xdead_0000)); // interleaved data access
/// let word = enc.encode(Access::instruction(0x104)); // still sequential!
/// assert_eq!(word.aux, 1); // INC asserted
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DualT0Encoder {
    width: BusWidth,
    stride: Stride,
    /// Last address transmitted while `SEL` was asserted (paper's `~b`).
    reference: Option<u64>,
    prev_bus: BusState,
}

impl DualT0Encoder {
    /// Creates a dual T0 encoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(DualT0Encoder {
            width,
            stride,
            reference: None,
            prev_bus: BusState::reset(),
        })
    }
}

impl Encoder for DualT0Encoder {
    fn name(&self) -> &'static str {
        "dual-t0"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        1
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let sel = access.kind.sel();
        let sequential = sel
            && self
                .reference
                .is_some_and(|r| b == self.width.wrapping_add(r, self.stride.get()));
        let out = if sequential {
            BusState::new(self.prev_bus.payload, 1)
        } else {
            BusState::new(b, 0)
        };
        if sel {
            self.reference = Some(b);
        }
        self.prev_bus = out;
        out
    }

    fn reset(&mut self) {
        self.reference = None;
        self.prev_bus = BusState::reset();
    }
}

/// The decoder paired with [`DualT0Encoder`] (paper Eq. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DualT0Decoder {
    width: BusWidth,
    stride: Stride,
    /// Last decoded address whose `SEL` was asserted.
    reference: Option<u64>,
}

impl DualT0Decoder {
    /// Creates a dual T0 decoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(DualT0Decoder {
            width,
            stride,
            reference: None,
        })
    }
}

impl Decoder for DualT0Decoder {
    fn name(&self) -> &'static str {
        "dual-t0"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, kind: AccessKind) -> Result<u64, CodecError> {
        let sel = kind.sel();
        let address = if word.aux & 1 == 1 {
            if !sel {
                return Err(CodecError::ProtocolViolation {
                    code: "dual-t0",
                    reason: "inc asserted while sel is low",
                });
            }
            let reference = self.reference.ok_or(CodecError::ProtocolViolation {
                code: "dual-t0",
                reason: "inc asserted before any sel-high reference address",
            })?;
            self.width.wrapping_add(reference, self.stride.get())
        } else {
            word.payload & self.width.mask()
        };
        if sel {
            self.reference = Some(address);
        }
        Ok(address)
    }

    fn reset(&mut self) {
        self.reference = None;
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{push_opt, ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for DualT0Encoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        let words = image.refill("dual-t0");
        push_opt(words, self.reference);
        words.push(self.prev_bus.payload);
        words.push(self.prev_bus.aux);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "dual-t0")?;
        let reference = r.opt_at_most(self.width.mask())?;
        let payload = r.word_at_most(self.width.mask())?;
        let aux = r.word_at_most(1)?; // INC line only
        r.finish()?;
        self.reference = reference;
        self.prev_bus = BusState::new(payload, aux);
        Ok(())
    }
}

impl Snapshot for DualT0Decoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        push_opt(image.refill("dual-t0"), self.reference);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "dual-t0")?;
        let reference = r.opt_at_most(self.width.mask())?;
        r.finish()?;
        self.reference = reference;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn codec() -> (DualT0Encoder, DualT0Decoder) {
        (
            DualT0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
            DualT0Decoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
        )
    }

    #[test]
    fn behaves_like_t0_on_pure_instruction_stream() {
        use crate::codes::T0Encoder;
        let (mut dual, _) = codec();
        let mut t0 = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let mut rng = Rng64::seed_from_u64(23);
        let mut addr = 0x400u64;
        for _ in 0..2000 {
            addr = if rng.gen_bool(0.8) {
                BusWidth::MIPS.wrapping_add(addr, 4)
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            let a = dual.encode(Access::instruction(addr));
            let b = t0.encode(Access::instruction(addr));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn degenerates_to_binary_on_pure_data_stream() {
        let (mut enc, _) = codec();
        let mut rng = Rng64::seed_from_u64(29);
        let mut addr = 0u64;
        for _ in 0..2000 {
            addr = if rng.gen_bool(0.5) {
                BusWidth::MIPS.wrapping_add(addr, 4) // even sequential data...
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            let w = enc.encode(Access::data(addr));
            assert_eq!(w.aux, 0, "...never asserts INC when SEL is low");
            assert_eq!(w.payload, addr);
        }
    }

    #[test]
    fn reference_survives_data_interruptions() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        enc.encode(Access::data(0x9999_0000));
        enc.encode(Access::data(0x1234_5678));
        let w = enc.encode(Access::instruction(0x104));
        assert_eq!(w.aux, 1);
    }

    #[test]
    fn frozen_payload_is_last_bus_value_not_last_instruction() {
        // After a data access, a sequential instruction freezes the bus at
        // the *data* value; the receiver computes the address itself.
        let (mut enc, mut dec) = codec();
        let i0 = enc.encode(Access::instruction(0x100));
        assert_eq!(dec.decode(i0, AccessKind::Instruction).unwrap(), 0x100);
        let d = enc.encode(Access::data(0xabcd_0000));
        assert_eq!(dec.decode(d, AccessKind::Data).unwrap(), 0xabcd_0000);
        let i1 = enc.encode(Access::instruction(0x104));
        assert_eq!(i1.payload, 0xabcd_0000, "payload frozen at data value");
        assert_eq!(i1.aux, 1);
        assert_eq!(dec.decode(i1, AccessKind::Instruction).unwrap(), 0x104);
    }

    #[test]
    fn round_trip_muxed_stream() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(31);
        let mut iaddr = 0x1000u64;
        for _ in 0..5000 {
            let access = if rng.gen_bool(0.7) {
                iaddr = if rng.gen_bool(0.8) {
                    BusWidth::MIPS.wrapping_add(iaddr, 4)
                } else {
                    rng.gen::<u64>() & BusWidth::MIPS.mask()
                };
                Access::instruction(iaddr)
            } else {
                Access::data(rng.gen::<u64>() & BusWidth::MIPS.mask())
            };
            let word = enc.encode(access);
            assert_eq!(dec.decode(word, access.kind).unwrap(), access.address);
        }
    }

    #[test]
    fn decoder_rejects_inc_with_sel_low() {
        let (_, mut dec) = codec();
        let err = dec
            .decode(BusState::new(0, 1), AccessKind::Data)
            .unwrap_err();
        assert!(matches!(err, CodecError::ProtocolViolation { .. }));
    }

    #[test]
    fn decoder_rejects_inc_before_reference() {
        let (_, mut dec) = codec();
        assert!(dec
            .decode(BusState::new(0, 1), AccessKind::Instruction)
            .is_err());
    }

    #[test]
    fn data_address_equal_to_expected_next_instruction_does_not_freeze() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x100));
        // A *data* access to 0x104 must not assert INC even though the
        // value matches reference + stride: the condition requires SEL = 1.
        let w = enc.encode(Access::data(0x104));
        assert_eq!(w.aux, 0);
    }
}
