//! The T0_BI code (paper Section 3.1): T0 combined with bus-invert.
//!
//! T0_BI targets architectures with a single *unified* address bus (for
//! example an external unified second-level cache) where both highly
//! sequential instruction addresses and nearly random data addresses
//! travel. It spends two redundant lines, `INC` and `INV`, and selects
//! per cycle among freeze / plain / inverted transmission (paper Eq. 6):
//!
//! ```text
//! (B(t), INC(t), INV(t)) =
//!     (B(t-1), 1, 0)   if b(t) = b(t-1) + S
//!     (b(t),   0, 0)   if b(t) != b(t-1) + S  and  H(t) <= (N+2)/2
//!     (!b(t),  0, 1)   if b(t) != b(t-1) + S  and  H(t) >  (N+2)/2
//! ```
//!
//! where `H(t)` is the Hamming distance between the previous encoded lines
//! `B(t-1) | INC(t-1) | INV(t-1)` and the candidate `b(t) | 0 | 0` — i.e. it
//! is evaluated over all `N + 2` lines. In the paper's experiments T0_BI is
//! the most effective code for *data* address streams (12.82% average
//! savings, Table 6).

use crate::bus::{hamming, Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// Redundant-line map for T0_BI: `aux` bit 0 is `INC`, bit 1 is `INV`.
pub const INC_LINE: u64 = 0b01;
/// See [`INC_LINE`].
pub const INV_LINE: u64 = 0b10;

/// The T0_BI encoder.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::T0BiEncoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = T0BiEncoder::new(BusWidth::MIPS, Stride::WORD)?;
/// enc.encode(Access::instruction(0x100));
/// let word = enc.encode(Access::instruction(0x104)); // sequential
/// assert_eq!(word.aux, 0b01); // INC asserted, INV clear
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0BiEncoder {
    width: BusWidth,
    stride: Stride,
    prev_address: Option<u64>,
    prev_bus: BusState,
}

impl T0BiEncoder {
    /// Creates a T0_BI encoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0BiEncoder {
            width,
            stride,
            prev_address: None,
            prev_bus: BusState::reset(),
        })
    }
}

impl Encoder for T0BiEncoder {
    fn name(&self) -> &'static str {
        "t0-bi"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        2
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let sequential = self
            .prev_address
            .is_some_and(|prev| b == self.width.wrapping_add(prev, self.stride.get()));
        let out = if sequential {
            BusState::new(self.prev_bus.payload, INC_LINE)
        } else {
            // H over the N payload lines plus both redundant lines, against
            // the candidate plain transmission (both candidates 0).
            let h = hamming(self.prev_bus.payload, b) + self.prev_bus.aux.count_ones();
            if h <= (self.width.bits() + 2) / 2 {
                BusState::new(b, 0)
            } else {
                BusState::new(self.width.invert(b), INV_LINE)
            }
        };
        self.prev_address = Some(b);
        self.prev_bus = out;
        out
    }

    fn reset(&mut self) {
        self.prev_address = None;
        self.prev_bus = BusState::reset();
    }
}

/// The decoder paired with [`T0BiEncoder`] (paper Eq. 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct T0BiDecoder {
    width: BusWidth,
    stride: Stride,
    prev_address: Option<u64>,
}

impl T0BiDecoder {
    /// Creates a T0_BI decoder with the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(T0BiDecoder {
            width,
            stride,
            prev_address: None,
        })
    }
}

impl Decoder for T0BiDecoder {
    fn name(&self) -> &'static str {
        "t0-bi"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let inc = word.aux & INC_LINE != 0;
        let inv = word.aux & INV_LINE != 0;
        let address = match (inc, inv) {
            (true, true) => {
                return Err(CodecError::ProtocolViolation {
                    code: "t0-bi",
                    reason: "inc and inv asserted simultaneously",
                })
            }
            (true, false) => {
                let prev = self.prev_address.ok_or(CodecError::ProtocolViolation {
                    code: "t0-bi",
                    reason: "inc asserted before any reference address",
                })?;
                self.width.wrapping_add(prev, self.stride.get())
            }
            (false, true) => self.width.invert(word.payload & self.width.mask()),
            (false, false) => word.payload & self.width.mask(),
        };
        self.prev_address = Some(address);
        Ok(address)
    }

    fn reset(&mut self) {
        self.prev_address = None;
    }
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{push_opt, ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for T0BiEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        let words = image.refill("t0-bi");
        push_opt(words, self.prev_address);
        words.push(self.prev_bus.payload);
        words.push(self.prev_bus.aux);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0-bi")?;
        let prev_address = r.opt_at_most(self.width.mask())?;
        let payload = r.word_at_most(self.width.mask())?;
        let aux = r.word_at_most(0b11)?; // INC and INV lines
        r.finish()?;
        self.prev_address = prev_address;
        self.prev_bus = BusState::new(payload, aux);
        Ok(())
    }
}

impl Snapshot for T0BiDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        push_opt(image.refill("t0-bi"), self.prev_address);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "t0-bi")?;
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

    fn codec() -> (T0BiEncoder, T0BiDecoder) {
        (
            T0BiEncoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
            T0BiDecoder::new(BusWidth::MIPS, Stride::WORD).unwrap(),
        )
    }

    #[test]
    fn sequential_freezes_with_inc() {
        let (mut enc, _) = codec();
        let w0 = enc.encode(Access::instruction(0x200));
        let w1 = enc.encode(Access::instruction(0x204));
        assert_eq!(w1.payload, w0.payload);
        assert_eq!(w1.aux, INC_LINE);
    }

    #[test]
    fn near_jump_is_plain_binary() {
        let (mut enc, _) = codec();
        enc.encode(Access::instruction(0x200));
        let w = enc.encode(Access::instruction(0x208)); // skip, H small
        assert_eq!(w.payload, 0x208);
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn far_jump_is_inverted() {
        let width = BusWidth::new(8).unwrap();
        let mut enc = T0BiEncoder::new(width, Stride::new(4, width).unwrap()).unwrap();
        enc.encode(Access::data(0x00));
        // H = 7 > (8+2)/2 = 5 -> inverted transmission.
        let w = enc.encode(Access::data(0xfe));
        assert_eq!(w.aux, INV_LINE);
        assert_eq!(w.payload, 0x01);
    }

    #[test]
    fn threshold_uses_n_plus_two_lines() {
        let width = BusWidth::new(8).unwrap();
        let mut enc = T0BiEncoder::new(width, Stride::new(4, width).unwrap()).unwrap();
        enc.encode(Access::data(0x00));
        // H = 5 == (8+2)/2: not strictly greater, so plain transmission.
        let w = enc.encode(Access::data(0x1f));
        assert_eq!(w.aux, 0);
        assert_eq!(w.payload, 0x1f);
    }

    #[test]
    fn previous_redundant_lines_count_toward_distance() {
        let width = BusWidth::new(8).unwrap();
        let stride = Stride::new(4, width).unwrap();
        let mut enc = T0BiEncoder::new(width, stride).unwrap();
        enc.encode(Access::data(0x00));
        enc.encode(Access::data(0x04)); // sequential -> INC=1, bus frozen 0x00
                                        // Candidate 0x0f: payload H vs frozen 0x00 is 4, INC line 1->0 adds
                                        // 1, total 5 == threshold -> plain. Candidate 0x1f would be 6 > 5.
        let w = enc.encode(Access::data(0x1f));
        assert_eq!(w.aux, INV_LINE);
    }

    #[test]
    fn round_trip_mixed_stream() {
        let (mut enc, mut dec) = codec();
        let mut rng = Rng64::seed_from_u64(5);
        let mut addr = 0u64;
        for _ in 0..5000 {
            addr = if rng.gen_bool(0.5) {
                BusWidth::MIPS.wrapping_add(addr, 4)
            } else {
                rng.gen::<u64>() & BusWidth::MIPS.mask()
            };
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn decoder_rejects_both_lines_asserted() {
        let (_, mut dec) = codec();
        let err = dec
            .decode(BusState::new(0, 0b11), AccessKind::Data)
            .unwrap_err();
        assert!(matches!(err, CodecError::ProtocolViolation { .. }));
    }

    #[test]
    fn decoder_rejects_inc_on_first_cycle() {
        let (_, mut dec) = codec();
        assert!(dec
            .decode(BusState::new(0, INC_LINE), AccessKind::Data)
            .is_err());
    }

    #[test]
    fn per_cycle_transitions_bounded() {
        // Whenever T0_BI falls back to bus-invert behaviour, the transition
        // bound (N+2)/2 holds; freezes cost at most 2 (the aux lines).
        let width = BusWidth::new(16).unwrap();
        let stride = Stride::new(4, width).unwrap();
        let mut enc = T0BiEncoder::new(width, stride).unwrap();
        let mut rng = Rng64::seed_from_u64(17);
        let mut prev = BusState::reset();
        for _ in 0..5000 {
            let word = enc.encode(Access::data(rng.gen::<u64>() & width.mask()));
            assert!(word.transitions_from(prev) <= (width.bits() + 2) / 2 + 1);
            prev = word;
        }
    }
}
