//! Binary-reflected Gray code, stride-aware.
//!
//! Su, Tsui and Despain proposed Gray-coding instruction addresses because a
//! Gray counter toggles exactly one line per unit increment — the optimum
//! among *irredundant* codes (paper Section 1, ref \[4\]). Mehta, Owens and
//! Irwin (ref \[5\]) observed that byte-addressable machines step by a
//! power-of-two stride `S`, and the one-transition property must be
//! preserved for stride-`S` sequences.
//!
//! This implementation keeps the `log2(S)` low-order address bits in plain
//! binary (they are constant along an in-sequence run) and Gray-codes the
//! remaining high-order bits of `address / S`, which increments by exactly 1
//! along the run — so a stride-`S` sequence costs one transition per
//! address, as required.

use crate::bus::{Access, AccessKind, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::metrics::{LineActivity, TransitionStats};
use crate::traits::{Decoder, Encoder};

/// Converts a binary value to binary-reflected Gray code.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::gray_encode;
///
/// assert_eq!(gray_encode(0), 0);
/// assert_eq!(gray_encode(1), 1);
/// assert_eq!(gray_encode(2), 3);
/// assert_eq!(gray_encode(3), 2);
/// ```
#[inline]
pub fn gray_encode(value: u64) -> u64 {
    value ^ (value >> 1)
}

/// Converts a binary-reflected Gray value back to binary.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::{gray_decode, gray_encode};
///
/// for v in 0..256u64 {
///     assert_eq!(gray_decode(gray_encode(v)), v);
/// }
/// ```
#[inline]
pub fn gray_decode(mut gray: u64) -> u64 {
    let mut shift = 32;
    while shift > 0 {
        gray ^= gray >> shift;
        shift >>= 1;
    }
    gray
}

/// The stride-aware Gray encoder.
///
/// # Examples
///
/// A stride-4 instruction run costs exactly one transition per address:
///
/// ```
/// use buscode_core::codes::GrayEncoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = GrayEncoder::new(BusWidth::MIPS, Stride::WORD)?;
/// let mut prev = enc.encode(Access::instruction(0x1000));
/// for i in 1..16u64 {
///     let word = enc.encode(Access::instruction(0x1000 + 4 * i));
///     assert_eq!(word.transitions_from(prev), 1);
///     prev = word;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GrayEncoder {
    width: BusWidth,
    stride: Stride,
}

impl GrayEncoder {
    /// Creates a Gray encoder for the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(GrayEncoder { width, stride })
    }

    fn split(&self, address: u64) -> (u64, u64) {
        let k = self.stride.log2();
        let low_mask = self.stride.get() - 1;
        ((address & self.width.mask()) >> k, address & low_mask)
    }
}

impl Encoder for GrayEncoder {
    fn name(&self) -> &'static str {
        "gray"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        0
    }

    fn encode(&mut self, access: Access) -> BusState {
        let (high, low) = self.split(access.address);
        let k = self.stride.log2();
        BusState::new((gray_encode(high) << k) | low, 0)
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        let mask = self.width.mask();
        let low_mask = self.stride.get() - 1;
        let k = self.stride.log2();
        out.extend(accesses.iter().map(|a| {
            let high = (a.address & mask) >> k;
            BusState::new((gray_encode(high) << k) | (a.address & low_mask), 0)
        }));
    }

    fn count_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        stats: &mut TransitionStats,
    ) {
        if accesses.is_empty() {
            return;
        }
        let mask = self.width.mask();
        let low_mask = self.stride.get() - 1;
        let k = self.stride.log2();
        let (payload, last) = if mask <= u64::from(u32::MAX) {
            // Packed carry-save kernel (see `crate::kernels`). The
            // stride-aware Gray word of a masked address `x` is exactly
            // `x ^ ((x >> 1) & gxm)` — an XOR-linear transform, so it
            // commutes with the diff and applies to packed diff pairs.
            // The kernel works in the binary domain: un-Gray the previous
            // bus word on entry, re-Gray the final word on exit.
            let gxm = (mask >> 1) & !low_mask;
            let p = prev.payload;
            let prev_bin = (gray_decode((p & mask) >> k) << k) | (p & low_mask);
            let (payload, last_bin) = crate::kernels::packed_diff_transitions(
                accesses,
                |a| a.address,
                mask,
                gxm,
                prev_bin,
            );
            let last_gray = (gray_encode(last_bin >> k) << k) | (last_bin & low_mask);
            (payload, last_gray)
        } else {
            // Wide buses: fused Gray-encode-XOR-popcount chain, no
            // bus-word buffer.
            let mut last = prev.payload;
            let mut payload = 0u64;
            for a in accesses {
                let high = (a.address & mask) >> k;
                let word = (gray_encode(high) << k) | (a.address & low_mask);
                payload += u64::from((word ^ last).count_ones());
                last = word;
            }
            (payload, last)
        };
        stats.cycles += accesses.len() as u64;
        stats.payload_transitions += payload;
        // Gray drives no aux lines: whatever `prev` held falls low on the
        // first cycle and stays there.
        stats.aux_transitions += u64::from(prev.aux.count_ones());
        *prev = BusState::new(last, 0);
    }

    fn activity_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        activity: &mut LineActivity,
    ) {
        if accesses.is_empty() {
            return;
        }
        let mask = self.width.mask();
        let low_mask = self.stride.get() - 1;
        let k = self.stride.log2();
        if mask <= u64::from(u32::MAX) {
            // Positional carry-save kernel, same binary-domain bridging as
            // `count_block`: un-Gray the previous word on entry, re-Gray
            // the final word on exit.
            let gxm = (mask >> 1) & !low_mask;
            let p = prev.payload;
            let prev_bin = (gray_decode((p & mask) >> k) << k) | (p & low_mask);
            let mut counts = [0u64; 32];
            let last_bin = crate::kernels::packed_line_transitions(
                accesses,
                |a| a.address,
                mask,
                gxm,
                prev_bin,
                &mut counts,
            );
            for (slot, &c) in activity.payload.iter_mut().zip(counts.iter()) {
                *slot += c;
            }
            activity.cycles += accesses.len() as u64;
            let last_gray = (gray_encode(last_bin >> k) << k) | (last_bin & low_mask);
            // Gray drives no aux lines, and `activity.aux` is empty.
            *prev = BusState::new(last_gray, 0);
        } else {
            let mut words = Vec::with_capacity(accesses.len());
            self.encode_block(accesses, &mut words);
            activity.accumulate_block(&words, prev);
        }
    }

    fn reset(&mut self) {}
}

/// The decoder paired with [`GrayEncoder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GrayDecoder {
    width: BusWidth,
    stride: Stride,
}

impl GrayDecoder {
    /// Creates a Gray decoder for the given bus width and stride.
    ///
    /// # Errors
    ///
    /// Currently infallible for valid [`BusWidth`]/[`Stride`] pairs, but
    /// returns `Result` for uniformity with the other codes' constructors.
    pub fn new(width: BusWidth, stride: Stride) -> Result<Self, CodecError> {
        Ok(GrayDecoder { width, stride })
    }
}

impl Decoder for GrayDecoder {
    fn name(&self) -> &'static str {
        "gray"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let k = self.stride.log2();
        let low_mask = self.stride.get() - 1;
        let payload = word.payload & self.width.mask();
        Ok((gray_decode(payload >> k) << k) | (payload & low_mask))
    }

    fn decode_block(
        &mut self,
        words: &[BusState],
        _kinds: &[AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        let mask = self.width.mask();
        let low_mask = self.stride.get() - 1;
        let k = self.stride.log2();
        out.extend(words.iter().map(|w| {
            let payload = w.payload & mask;
            (gray_decode(payload >> k) << k) | (payload & low_mask)
        }));
        Ok(())
    }

    fn reset(&mut self) {}
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for GrayEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("gray");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "gray")?.finish()
    }
}

impl Snapshot for GrayDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("gray");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "gray")?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray_adjacent_values_differ_in_one_bit() {
        for v in 0..1024u64 {
            let d = gray_encode(v) ^ gray_encode(v + 1);
            assert_eq!(d.count_ones(), 1, "v = {v}");
        }
    }

    #[test]
    fn gray_decode_inverts_encode_on_wide_values() {
        for v in [
            0u64,
            1,
            u64::MAX,
            0x8000_0000_0000_0000,
            0xdead_beef_cafe_f00d,
        ] {
            assert_eq!(gray_decode(gray_encode(v)), v);
        }
    }

    #[test]
    fn stride_run_costs_one_transition() {
        for stride in [1u64, 2, 4, 8] {
            let w = BusWidth::MIPS;
            let s = Stride::new(stride, w).unwrap();
            let mut enc = GrayEncoder::new(w, s).unwrap();
            let mut prev = enc.encode(Access::instruction(0x4000));
            for i in 1..64 {
                let word = enc.encode(Access::instruction(0x4000 + stride * i));
                assert_eq!(word.transitions_from(prev), 1, "stride {stride}, step {i}");
                prev = word;
            }
        }
    }

    #[test]
    fn round_trip_random_addresses() {
        use crate::rng::Rng64;
        let w = BusWidth::MIPS;
        let s = Stride::WORD;
        let mut enc = GrayEncoder::new(w, s).unwrap();
        let mut dec = GrayDecoder::new(w, s).unwrap();
        let mut rng = Rng64::seed_from_u64(7);
        for _ in 0..1000 {
            let addr: u64 = rng.gen::<u64>() & w.mask();
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn unaligned_low_bits_survive_round_trip() {
        // Stride 4 leaves the two low bits in plain binary; they must pass
        // through even for unaligned addresses.
        let w = BusWidth::MIPS;
        let mut enc = GrayEncoder::new(w, Stride::WORD).unwrap();
        let mut dec = GrayDecoder::new(w, Stride::WORD).unwrap();
        for addr in [0x1001u64, 0x1002, 0x1003, 0x1007] {
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn full_width_bus_round_trip() {
        let w = BusWidth::WIDE;
        let s = Stride::new(8, w).unwrap();
        let mut enc = GrayEncoder::new(w, s).unwrap();
        let mut dec = GrayDecoder::new(w, s).unwrap();
        for addr in [u64::MAX, u64::MAX - 8, 0, 1 << 63] {
            let word = enc.encode(Access::instruction(addr));
            assert_eq!(dec.decode(word, AccessKind::Instruction).unwrap(), addr);
        }
    }
}
