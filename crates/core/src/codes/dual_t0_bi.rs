//! The dual T0_BI code (paper Section 3.3): the paper's best code for
//! multiplexed address buses.
//!
//! Dual T0_BI applies T0 to the instruction stream (`SEL = 1`) and
//! bus-invert to the data stream (`SEL = 0`), sharing a *single* redundant
//! line `INCV` whose meaning is disambiguated by `SEL` (paper Eq. 11):
//!
//! ```text
//! (B(t), INCV(t)) =
//!     (B(t-1), 1)  if SEL = 1 and b(t) = r(t-1) + S     (T0 freeze)
//!     (!b(t),  1)  if SEL = 0 and H(t) > N/2            (bus-invert)
//!     (b(t),   0)  otherwise                            (plain binary)
//! ```
//!
//! with `H(t) = Ham(B(t-1) | INCV(t-1), b(t) | 0)` and the instruction
//! reference register `r` updated only when `SEL = 1`, exactly as in
//! [dual T0](crate::codes::dual_t0).
//!
//! On the muxed MIPS bus dual T0_BI achieves the paper's headline result:
//! 22.25% average savings over binary, against 19.56% for T0_BI, 12.15% for
//! dual T0 and 10.25% for plain T0 (Table 7).

use crate::bus::{hamming, Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// The dual T0_BI encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::DualT0BiEncoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = DualT0BiEncoder::new(BusWidth::MIPS, Stride::WORD)?;
/// enc.encode(Access::instruction(0x100));
/// assert_eq!(enc.encode(Access::instruction(0x104)).aux, 1); // T0 freeze
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DualT0BiEncoder {
    width: BusWidth,
    stride: Stride,
    /// Last address transmitted while `SEL` was asserted (paper's `~b`).
    reference: Option<u64>,
    prev_bus: BusState,
}

impl DualT0BiEncoder {
    /// Creates a dual T0_BI encoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(DualT0BiEncoder {
            width,
            stride,
            reference: None,
            prev_bus: BusState::reset(),
        })
    }
}

impl Encoder for DualT0BiEncoder {
    fn name(&self) -> &'static str {
        "dual-t0-bi"
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
        let out = if sel {
            let sequential = self
                .reference
                .is_some_and(|r| b == self.width.wrapping_add(r, self.stride.get()));
            if sequential {
                BusState::new(self.prev_bus.payload, 1)
            } else {
                BusState::new(b, 0)
            }
        } else {
            // Bus-invert branch: H over the N payload lines plus INCV,
            // against the candidate plain transmission (INCV candidate 0).
            let h = hamming(self.prev_bus.payload, b) + (self.prev_bus.aux & 1) as u32;
            if h > self.width.bits() / 2 {
                BusState::new(self.width.invert(b), 1)
            } else {
                BusState::new(b, 0)
            }
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

/// The decoder paired with [`DualT0BiEncoder`] (paper Eq. 12).
///
/// `SEL` disambiguates the shared `INCV` line: asserted with `SEL = 1` it
/// means "previous instruction address plus stride", asserted with
/// `SEL = 0` it means "payload is inverted".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DualT0BiDecoder {
    width: BusWidth,
    stride: Stride,
    /// Last decoded address whose `SEL` was asserted.
    reference: Option<u64>,
}

impl DualT0BiDecoder {
    /// Creates a dual T0_BI decoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(DualT0BiDecoder {
            width,
            stride,
            reference: None,
        })
    }
}

impl Decoder for DualT0BiDecoder {
    fn name(&self) -> &'static str {
        "dual-t0-bi"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, kind: AccessKind) -> Result<u64, CodecError> {
        let sel = kind.sel();
        let incv = word.aux & 1 == 1;
        let address = match (incv, sel) {
            (true, true) => {
                let reference = self.reference.ok_or(CodecError::ProtocolViolation {
                    code: "dual-t0-bi",
                    reason: "incv asserted with sel high before any reference address",
                })?;
                self.width.wrapping_add(reference, self.stride.get())
            }
            (true, false) => self.width.invert(word.payload & self.width.mask()),
            (false, _) => word.payload & self.width.mask(),
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

impl Snapshot for DualT0BiEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        let words = image.refill("dual-t0-bi");
        push_opt(words, self.reference);
        words.push(self.prev_bus.payload);
        words.push(self.prev_bus.aux);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "dual-t0-bi")?;
        let reference = r.opt_at_most(self.width.mask())?;
        let payload = r.word_at_most(self.width.mask())?;
        let aux = r.word_at_most(1)?; // shared INCV line
        r.finish()?;
        self.reference = reference;
        self.prev_bus = BusState::new(payload, aux);
        Ok(())
    }
}

impl Snapshot for DualT0BiDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        push_opt(image.refill("dual-t0-bi"), self.reference);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "dual-t0-bi")?;
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

    fn codec() -> (DualT0BiEncoder, DualT0BiDecoder) {
        (
            DualT0BiEncoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
            DualT0BiDecoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
        )
    }

    #[test]
    fn instruction_branch_behaves_like_dual_t0() {
        use crate::codes::DualT0Encoder;
        let (mut enc, _) = codec();
        let mut dual = DualT0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let mut rng = Rng64::seed_from_u64(41);
        let mut addr = 0x100u64;
        for _ in 0..1000 {
            addr = if rng.gen_bool(0.8) {
                BusWidth::MIPS.wrapping_add(addr, 4)
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            assert_eq!(
                enc.encode(Access::instruction(addr)),
                dual.encode(Access::instruction(addr))
            );
        }
    }

    #[test]
    fn data_branch_inverts_far_patterns() {
        let width = BusWidth::new(8).unwrap();
        let stride = Stride::new(4, width).unwrap();
        let mut enc = DualT0BiEncoder::new(width, stride).unwrap();
        enc.encode(Access::data(0x00));
        let w = enc.encode(Access::data(0xf8)); // H = 5 > 4
        assert_eq!(w.aux, 1);
        assert_eq!(w.payload, 0x07);
    }

    #[test]
    fn data_branch_ties_do_not_invert() {
        let width = BusWidth::new(8).unwrap();
        let stride = Stride::new(4, width).unwrap();
        let mut enc = DualT0BiEncoder::new(width, stride).unwrap();
        enc.encode(Access::data(0x00));
        let w = enc.encode(Access::data(0x0f)); // H = 4 == N/2
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn incv_is_disambiguated_by_sel() {
        // The same INCV=1 word decodes differently depending on SEL.
        let (mut enc, mut dec) = codec();
        let i0 = enc.encode(Access::instruction(0x100));
        dec.decode(i0, AccessKind::Instruction).unwrap();
        let i1 = enc.encode(Access::instruction(0x104));
        assert_eq!(i1.aux, 1);
        assert_eq!(dec.decode(i1, AccessKind::Instruction).unwrap(), 0x104);
        // Now a data word with INCV=1 is an inversion, not a freeze.
        let d = enc.encode(Access::data(0xffff_0000));
        if d.aux == 1 {
            assert_eq!(dec.decode(d, AccessKind::Data).unwrap(), 0xffff_0000);
        }
    }

    #[test]
    fn instruction_sequentiality_survives_data_traffic() {
        let (mut enc, mut dec) = codec();
        let mut stream = vec![Access::instruction(0x100)];
        stream.push(Access::data(0xdead_beec));
        stream.push(Access::data(0x0000_00ff));
        stream.push(Access::instruction(0x104)); // sequential after 2 data
        for access in stream {
            let word = enc.encode(access);
            assert_eq!(dec.decode(word, access.kind).unwrap(), access.address);
        }
        // the final instruction froze the bus
        let w = enc.encode(Access::instruction(0x108));
        assert_eq!(w.aux, 1);
    }

    #[test]
    fn round_trip_muxed_stream() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(43);
        let mut iaddr = 0x4000u64;
        let mut daddr = 0x8000_0000u64;
        for _ in 0..10_000 {
            let access = if rng.gen_bool(0.6) {
                iaddr = if rng.gen_bool(0.85) {
                    BusWidth::MIPS.wrapping_add(iaddr, 4)
                } else {
                    rng.gen::<u64>() & BusWidth::MIPS.mask()
                };
                Access::instruction(iaddr)
            } else {
                daddr = if rng.gen_bool(0.2) {
                    BusWidth::MIPS.wrapping_add(daddr, 4)
                } else {
                    rng.gen::<u64>() & BusWidth::MIPS.mask()
                };
                Access::data(daddr)
            };
            let word = enc.encode(access);
            assert_eq!(dec.decode(word, access.kind).unwrap(), access.address);
        }
    }

    #[test]
    fn decoder_rejects_incv_sel_high_before_reference() {
        let (_, mut dec) = codec();
        let err = dec
            .decode(BusState::new(0, 1), AccessKind::Instruction)
            .unwrap_err();
        assert!(matches!(err, CodecError::ProtocolViolation { .. }));
    }

    #[test]
    fn incv_sel_low_on_first_cycle_is_legal_inversion() {
        // Unlike the freeze, an inverted data word needs no prior state.
        let (_, mut dec) = codec();
        let addr = dec.decode(BusState::new(0, 1), AccessKind::Data).unwrap();
        assert_eq!(addr, BusWidth::MIPS.mask());
    }

    #[test]
    fn single_redundant_line() {
        let (enc, _) = codec();
        assert_eq!(enc.aux_line_count(), 1);
    }
}
