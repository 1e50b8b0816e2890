//! The bus-invert code of Stan and Burleson (paper Section 2.1, ref \[2\]).
//!
//! One redundant line, `INV`, signals the polarity of the payload. Each
//! cycle the encoder computes the Hamming distance `H` between the previous
//! *encoded* bus lines (including the previous `INV` value) and the
//! candidate plain transmission `b | 0`:
//!
//! ```text
//! (B(t), INV(t)) = (b(t), 0)   if H(t) <= N/2
//!                  (!b(t), 1)  if H(t) >  N/2
//! ```
//!
//! so no cycle ever toggles more than `floor(N/2) + 1` lines. Bus-invert
//! performs well on temporally-uncorrelated patterns — the paper finds it
//! the best existing redundant code for *data* address streams (10.78%
//! average savings, Table 3) while being useless on highly sequential
//! instruction streams (0.03%, Table 2).
//!
//! [`BusInvertEncoder::with_partitions`] provides the partitioned variant
//! (independent `INV` per slice of the bus) Stan and Burleson describe for
//! wide buses; it is used here for ablation experiments.

use crate::bus::{hamming, Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// Per-partition geometry: payload bit range and its `INV` line index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Partition {
    /// Mask selecting this partition's payload lines.
    mask: u64,
    /// Number of payload lines in the partition.
    bits: u32,
}

fn partition_masks(width: BusWidth, partitions: u32) -> Vec<Partition> {
    let n = width.bits();
    let base = n / partitions;
    let extra = n % partitions;
    let mut out = Vec::with_capacity(partitions as usize);
    let mut lo = 0u32;
    for p in 0..partitions {
        let bits = base + u32::from(p < extra);
        let mask = if bits == 64 {
            u64::MAX
        } else {
            ((1u64 << bits) - 1) << lo
        };
        out.push(Partition { mask, bits });
        lo += bits;
    }
    out
}

/// The bus-invert encoder.
///
/// # Examples
///
/// A pattern far from the previous bus state is sent inverted:
///
/// ```
/// use buscode_core::codes::BusInvertEncoder;
/// use buscode_core::{Access, BusWidth, Encoder};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = BusInvertEncoder::new(BusWidth::new(8)?);
/// enc.encode(Access::data(0x00));
/// let word = enc.encode(Access::data(0xff)); // Hamming distance 8 > 4
/// assert_eq!(word.payload, 0x00); // transmitted inverted
/// assert_eq!(word.aux, 1); // INV asserted
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BusInvertEncoder {
    width: BusWidth,
    partitions: Vec<Partition>,
    /// Previous encoded payload lines.
    prev_payload: u64,
    /// Previous INV lines, one bit per partition, LSB-first.
    prev_inv: u64,
}

impl BusInvertEncoder {
    /// Creates a single-partition (classic) bus-invert encoder.
    pub fn new(width: BusWidth) -> Self {
        Self::with_partitions(width, 1).expect("one partition is always valid")
    }

    /// Creates a partitioned bus-invert encoder: the payload is split into
    /// `partitions` contiguous slices, each with an independent `INV` line.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `partitions` is zero or
    /// exceeds the number of payload lines.
    pub fn with_partitions(width: BusWidth, partitions: u32) -> Result<Self, CodecError> {
        if partitions == 0 || partitions > width.bits() {
            return Err(CodecError::InvalidParameter {
                name: "partitions",
                reason: format!(
                    "must be in 1..=width, got {partitions} on a {}-bit bus",
                    width.bits()
                ),
            });
        }
        Ok(BusInvertEncoder {
            width,
            partitions: partition_masks(width, partitions),
            prev_payload: 0,
            prev_inv: 0,
        })
    }

    /// The number of partitions (and `INV` lines).
    pub fn partitions(&self) -> u32 {
        self.partitions.len() as u32
    }
}

impl Encoder for BusInvertEncoder {
    fn name(&self) -> &'static str {
        "bus-invert"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        self.partitions.len() as u32
    }

    fn encode(&mut self, access: Access) -> BusState {
        let b = access.address & self.width.mask();
        let mut payload = 0u64;
        let mut inv = 0u64;
        for (i, part) in self.partitions.iter().enumerate() {
            // H over this partition's payload lines plus its own INV line,
            // against the candidate plain transmission (INV candidate = 0).
            let prev_inv_bit = (self.prev_inv >> i) & 1;
            let h = hamming(self.prev_payload & part.mask, b & part.mask) + prev_inv_bit as u32;
            if h > part.bits / 2 {
                payload |= !b & part.mask;
                inv |= 1 << i;
            } else {
                payload |= b & part.mask;
            }
        }
        self.prev_payload = payload;
        self.prev_inv = inv;
        BusState::new(payload, inv)
    }

    fn reset(&mut self) {
        self.prev_payload = 0;
        self.prev_inv = 0;
    }
}

/// The decoder paired with [`BusInvertEncoder`].
///
/// Decoding is stateless: each partition's payload is conditionally
/// complemented according to its `INV` line (paper Eq. 2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BusInvertDecoder {
    width: BusWidth,
    partitions: Vec<Partition>,
}

impl BusInvertDecoder {
    /// Creates a single-partition (classic) bus-invert decoder.
    pub fn new(width: BusWidth) -> Self {
        Self::with_partitions(width, 1).expect("one partition is always valid")
    }

    /// Creates the decoder for a partitioned bus-invert bus.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] under the same conditions as
    /// [`BusInvertEncoder::with_partitions`].
    pub fn with_partitions(width: BusWidth, partitions: u32) -> Result<Self, CodecError> {
        if partitions == 0 || partitions > width.bits() {
            return Err(CodecError::InvalidParameter {
                name: "partitions",
                reason: format!(
                    "must be in 1..=width, got {partitions} on a {}-bit bus",
                    width.bits()
                ),
            });
        }
        Ok(BusInvertDecoder {
            width,
            partitions: partition_masks(width, partitions),
        })
    }
}

impl Decoder for BusInvertDecoder {
    fn name(&self) -> &'static str {
        "bus-invert"
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        let mut address = 0u64;
        for (i, part) in self.partitions.iter().enumerate() {
            let slice = word.payload & part.mask;
            if (word.aux >> i) & 1 == 1 {
                address |= !slice & part.mask;
            } else {
                address |= slice;
            }
        }
        Ok(address & self.width.mask())
    }

    fn reset(&mut self) {}
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for BusInvertEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image
            .refill("bus-invert")
            .extend([self.prev_payload, self.prev_inv]);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mut r = ImageReader::open(image, "bus-invert")?;
        let prev_payload = r.word_at_most(self.width.mask())?;
        let inv_mask = if self.partitions.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.partitions.len()) - 1
        };
        let prev_inv = r.word_at_most(inv_mask)?;
        r.finish()?;
        self.prev_payload = prev_payload;
        self.prev_inv = prev_inv;
        Ok(())
    }
}

impl Snapshot for BusInvertDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("bus-invert");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "bus-invert")?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn no_inversion_when_close() {
        let mut enc = BusInvertEncoder::new(BusWidth::new(8).unwrap());
        enc.encode(Access::data(0b0000_0000));
        let w = enc.encode(Access::data(0b0000_0111)); // H = 3 <= 4
        assert_eq!(w.payload, 0b0000_0111);
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn inversion_when_far() {
        let mut enc = BusInvertEncoder::new(BusWidth::new(8).unwrap());
        enc.encode(Access::data(0b0000_0000));
        let w = enc.encode(Access::data(0b0001_1111)); // H = 5 > 4
        assert_eq!(w.payload, 0b1110_0000);
        assert_eq!(w.aux, 1);
    }

    #[test]
    fn tie_does_not_invert() {
        let mut enc = BusInvertEncoder::new(BusWidth::new(8).unwrap());
        enc.encode(Access::data(0));
        let w = enc.encode(Access::data(0b0000_1111)); // H = 4 == N/2
        assert_eq!(w.aux, 0);
    }

    #[test]
    fn previous_inv_counts_toward_distance() {
        // Paper Eq. 1: H includes the previous INV line vs candidate 0.
        let n = BusWidth::new(8).unwrap();
        let mut enc = BusInvertEncoder::new(n);
        enc.encode(Access::data(0x00)); // bus 0x00, INV 0
        enc.encode(Access::data(0xff)); // H=8 -> invert, bus 0x00, INV 1
                                        // Candidate 0x0f: payload distance from bus 0x00 is 4, plus INV 1->0
                                        // costs 1, so H = 5 > 4 and the encoder must invert again.
        let w = enc.encode(Access::data(0x0f));
        assert_eq!(w.aux, 1);
        assert_eq!(w.payload, 0xf0);
    }

    #[test]
    fn per_cycle_transitions_bounded_by_half_plus_one() {
        let width = BusWidth::new(16).unwrap();
        let mut enc = BusInvertEncoder::new(width);
        let mut rng = Rng64::seed_from_u64(99);
        let mut prev = BusState::reset();
        for _ in 0..5000 {
            let word = enc.encode(Access::data(rng.gen::<u64>() & width.mask()));
            assert!(word.transitions_from(prev) <= width.bits() / 2 + 1);
            prev = word;
        }
    }

    #[test]
    fn round_trip_random() {
        let width = BusWidth::MIPS;
        let mut enc = BusInvertEncoder::new(width);
        let mut dec = BusInvertDecoder::new(width);
        let mut rng = Rng64::seed_from_u64(3);
        for _ in 0..2000 {
            let addr = rng.gen::<u64>() & width.mask();
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn partitioned_round_trip() {
        let width = BusWidth::MIPS;
        for parts in [2u32, 3, 4, 8] {
            let mut enc = BusInvertEncoder::with_partitions(width, parts).unwrap();
            let mut dec = BusInvertDecoder::with_partitions(width, parts).unwrap();
            let mut rng = Rng64::seed_from_u64(u64::from(parts));
            for _ in 0..500 {
                let addr = rng.gen::<u64>() & width.mask();
                let word = enc.encode(Access::data(addr));
                assert_eq!(
                    dec.decode(word, AccessKind::Data).unwrap(),
                    addr,
                    "parts {parts}"
                );
            }
        }
    }

    #[test]
    fn partition_geometry_covers_bus_exactly() {
        for parts in [1u32, 2, 3, 5, 32] {
            let masks = partition_masks(BusWidth::MIPS, parts);
            let mut union = 0u64;
            let mut total_bits = 0u32;
            for p in &masks {
                assert_eq!(union & p.mask, 0, "partitions overlap");
                union |= p.mask;
                total_bits += p.bits;
            }
            assert_eq!(union, BusWidth::MIPS.mask());
            assert_eq!(total_bits, 32);
        }
    }

    #[test]
    fn invalid_partition_counts_rejected() {
        assert!(BusInvertEncoder::with_partitions(BusWidth::new(8).unwrap(), 0).is_err());
        assert!(BusInvertEncoder::with_partitions(BusWidth::new(8).unwrap(), 9).is_err());
        assert!(BusInvertDecoder::with_partitions(BusWidth::new(8).unwrap(), 0).is_err());
    }

    #[test]
    fn reset_restores_reference_state() {
        let mut enc = BusInvertEncoder::new(BusWidth::new(8).unwrap());
        enc.encode(Access::data(0xff));
        enc.reset();
        // After reset the reference is all-low again, so 0x07 is close.
        let w = enc.encode(Access::data(0x07));
        assert_eq!(w.aux, 0);
        assert_eq!(w.payload, 0x07);
    }

    #[test]
    fn sequential_stream_sees_no_benefit() {
        // The paper's Table 2 observation: bus-invert never triggers on
        // small-increment instruction streams, so it matches binary.
        let width = BusWidth::MIPS;
        let mut enc = BusInvertEncoder::new(width);
        let mut prev = BusState::reset();
        let mut inversions = 0;
        for i in 0..1000u64 {
            let word = enc.encode(Access::instruction(0x1000 + 4 * i));
            inversions += word.aux & 1;
            prev = word;
        }
        let _ = prev;
        assert_eq!(inversions, 0);
    }
}
