//! Plain binary transmission: the paper's reference encoding.
//!
//! Binary is irredundant and stateless; every other code's "savings" in the
//! paper's tables are measured against the transition count of this code.
//! Its main practical virtue, noted in Section 2.4, is that it needs no
//! encoding or decoding circuitry at all, which makes it a reasonable choice
//! for low-correlation data address streams.

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::metrics::{LineActivity, TransitionStats};
use crate::traits::{Decoder, Encoder};

/// The identity encoder: drives the address onto the bus unchanged.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::BinaryEncoder;
/// use buscode_core::{Access, BusWidth, Encoder};
///
/// let mut enc = BinaryEncoder::new(BusWidth::MIPS);
/// let word = enc.encode(Access::instruction(0xbeef));
/// assert_eq!(word.payload, 0xbeef);
/// assert_eq!(word.aux, 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BinaryEncoder {
    width: BusWidth,
}

impl BinaryEncoder {
    /// Creates a binary encoder for the given bus width.
    pub fn new(width: BusWidth) -> Self {
        BinaryEncoder { width }
    }
}

impl Encoder for BinaryEncoder {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        0
    }

    fn encode(&mut self, access: Access) -> BusState {
        BusState::new(access.address & self.width.mask(), 0)
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        let mask = self.width.mask();
        out.extend(accesses.iter().map(|a| BusState::new(a.address & mask, 0)));
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
        let (payload, last) = if mask <= u64::from(u32::MAX) {
            // Packed carry-save kernel: two diffs per u64, one popcount
            // per 32 cycles (see `crate::kernels`).
            crate::kernels::packed_diff_transitions(accesses, |a| a.address, mask, 0, prev.payload)
        } else {
            // Wide buses: fused mask-XOR-popcount chain, no bus-word
            // buffer.
            let mut last = prev.payload;
            let mut payload = 0u64;
            for a in accesses {
                let word = a.address & mask;
                payload += u64::from((word ^ last).count_ones());
                last = word;
            }
            (payload, last)
        };
        stats.cycles += accesses.len() as u64;
        stats.payload_transitions += payload;
        // Binary drives no aux lines: whatever `prev` held falls low on
        // the first cycle and stays there.
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
        if mask <= u64::from(u32::MAX) {
            // Positional carry-save kernel (see `crate::kernels`): exact
            // per-line counts at nearly the total-count kernel's rate.
            let mut counts = [0u64; 32];
            let last = crate::kernels::packed_line_transitions(
                accesses,
                |a| a.address,
                mask,
                0,
                prev.payload,
                &mut counts,
            );
            for (slot, &c) in activity.payload.iter_mut().zip(counts.iter()) {
                *slot += c;
            }
            activity.cycles += accesses.len() as u64;
            // Binary drives no aux lines, and `activity.aux` is empty.
            *prev = BusState::new(last, 0);
        } else {
            let mut words = Vec::with_capacity(accesses.len());
            self.encode_block(accesses, &mut words);
            activity.accumulate_block(&words, prev);
        }
    }

    fn reset(&mut self) {}
}

/// The identity decoder paired with [`BinaryEncoder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BinaryDecoder {
    width: BusWidth,
}

impl BinaryDecoder {
    /// Creates a binary decoder for the given bus width.
    pub fn new(width: BusWidth) -> Self {
        BinaryDecoder { width }
    }
}

impl Decoder for BinaryDecoder {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        Ok(word.payload & self.width.mask())
    }

    fn decode_block(
        &mut self,
        words: &[BusState],
        _kinds: &[AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        let mask = self.width.mask();
        out.extend(words.iter().map(|w| w.payload & mask));
        Ok(())
    }

    fn reset(&mut self) {}
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for BinaryEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("binary");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "binary")?.finish()
    }
}

impl Snapshot for BinaryDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("binary");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "binary")?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Access;

    #[test]
    fn encode_is_identity_within_width() {
        let mut enc = BinaryEncoder::new(BusWidth::new(16).unwrap());
        assert_eq!(enc.encode(Access::data(0x1234)).payload, 0x1234);
        // Addresses are masked to the bus width.
        assert_eq!(enc.encode(Access::data(0xf_0001)).payload, 0x0001);
    }

    #[test]
    fn no_aux_lines() {
        let enc = BinaryEncoder::new(BusWidth::MIPS);
        assert_eq!(enc.aux_line_count(), 0);
    }

    #[test]
    fn round_trip() {
        let w = BusWidth::MIPS;
        let mut enc = BinaryEncoder::new(w);
        let mut dec = BinaryDecoder::new(w);
        for addr in [0u64, 1, 0xffff_ffff, 0xdead_beef] {
            let word = enc.encode(Access::instruction(addr));
            assert_eq!(dec.decode(word, AccessKind::Instruction).unwrap(), addr);
        }
    }

    #[test]
    fn sequential_stream_costs_about_two_transitions_per_cycle() {
        // A counting stream toggles ~2 lines per increment on average.
        let w = BusWidth::MIPS;
        let mut enc = BinaryEncoder::new(w);
        let mut prev = BusState::reset();
        let mut transitions = 0;
        let n = 4096u64;
        for i in 0..n {
            let word = enc.encode(Access::instruction(i));
            transitions += word.transitions_from(prev);
            prev = word;
        }
        let avg = f64::from(transitions) / n as f64;
        assert!((avg - 2.0).abs() < 0.1, "avg {avg}");
    }
}
