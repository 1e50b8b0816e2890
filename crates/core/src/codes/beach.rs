//! Extension: a simplified, self-trained Beach code (paper ref \[7\]).
//!
//! The Beach code (Benini et al., ISLPED'97) targets special-purpose
//! systems where a processor repeatedly executes the same embedded code:
//! the address stream is profiled offline and a stream-specific, invertible
//! re-encoding of the bus lines is synthesized that exploits *block
//! correlations* between lines — temporal correlations other than
//! arithmetic sequentiality.
//!
//! This implementation is a documented simplification that keeps the
//! essential structure (profile → invertible line transform → static
//! codec):
//!
//! - the transform is a unit lower-triangular XOR network: output line `i`
//!   carries `in[i] ^ in[partner(i)]` for a chosen `partner(i) < i`, or
//!   `in[i]` unmodified;
//! - training counts, for every line pair, how often the two lines toggle
//!   *together*; a partner is chosen greedily when XOR-ing the pair is
//!   expected to toggle less often than the line alone.
//!
//! The transform is stateless and irredundant, and decoding solves the
//! triangular system line by line.
//!
//! Encoding and decoding touch only the combined lines: a transform keeps
//! the `(line, partner)` pairs of its combined lines in line order, so the
//! untrained (identity) transform the code factories build costs a mask,
//! as binary does, and a trained one costs one shift-and-XOR per combined
//! line.

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// A trained (or identity) Beach line transform, from which encoder and
/// decoder are derived.
///
/// # Examples
///
/// Train on a profiled stream, then encode with the learned transform:
///
/// ```
/// use buscode_core::codes::BeachCode;
/// use buscode_core::{Access, BusWidth, Encoder};
///
/// let profile: Vec<u64> = (0..256).map(|i| 0x8000 + 8 * (i % 32)).collect();
/// let code = BeachCode::train(BusWidth::MIPS, profile.iter().copied());
/// let mut enc = code.clone().into_encoder();
/// let word = enc.encode(Access::data(0x8000));
/// # let _ = word;
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BeachCode {
    width: BusWidth,
    /// `partner[i] == i` means line `i` passes through unmodified;
    /// otherwise `partner[i] < i` and line `i` carries `in[i] ^ in[partner]`.
    partner: Vec<u32>,
    /// The `(line, partner)` pairs of the combined lines, in ascending
    /// line order. Derived from `partner` at construction, so it adds
    /// nothing to the transform's identity.
    combined: Vec<(u32, u32)>,
}

impl BeachCode {
    /// The identity transform: behaves exactly like binary encoding.
    pub fn identity(width: BusWidth) -> Self {
        Self::from_partners(width, (0..width.bits()).collect())
    }

    /// Builds a transform from its partner map, recording the combined
    /// lines. Every `partner[i]` must be `i` or a lower line.
    fn from_partners(width: BusWidth, partner: Vec<u32>) -> Self {
        debug_assert!(partner.iter().enumerate().all(|(i, &p)| p as usize <= i));
        let combined = partner
            .iter()
            .enumerate()
            .filter(|&(i, &p)| p as usize != i)
            .map(|(i, &p)| (i as u32, p))
            .collect();
        BeachCode {
            width,
            partner,
            combined,
        }
    }

    /// Profiles `stream` and learns a line transform minimizing the
    /// expected toggle count.
    ///
    /// Training is a two-pass statistic: for every pair of lines `(i, j)`
    /// it counts cycles in which exactly one of the two toggles (the toggle
    /// count of the XOR-ed line). A pair is adopted when it beats the
    /// line's own toggle count.
    pub fn train<I: IntoIterator<Item = u64>>(width: BusWidth, stream: I) -> Self {
        let n = width.bits() as usize;
        // toggles[i]: how often line i flips; xor_toggles[i][j]: how often
        // the XOR of lines i and j flips (exactly one of the two flips).
        let mut toggles = vec![0u64; n];
        let mut xor_toggles = vec![vec![0u64; n]; n];
        let mut prev: Option<u64> = None;
        for address in stream {
            let address = address & width.mask();
            if let Some(prev) = prev {
                let flips = prev ^ address;
                for (i, row) in xor_toggles.iter_mut().enumerate() {
                    let fi = (flips >> i) & 1;
                    toggles[i] += fi;
                    for (j, cell) in row.iter_mut().enumerate().take(i) {
                        let fj = (flips >> j) & 1;
                        *cell += fi ^ fj;
                    }
                }
            }
            prev = Some(address);
        }
        let partner = (0..n as u32)
            .map(|i| {
                let iu = i as usize;
                let mut best = i;
                let mut best_cost = toggles[iu];
                for (j, &cost) in xor_toggles[iu].iter().enumerate().take(iu) {
                    if cost < best_cost {
                        best_cost = cost;
                        best = j as u32;
                    }
                }
                best
            })
            .collect();
        Self::from_partners(width, partner)
    }

    /// The bus width of this transform.
    pub fn width(&self) -> BusWidth {
        self.width
    }

    /// How many lines are XOR-combined (non-passthrough).
    pub fn combined_lines(&self) -> u32 {
        self.combined.len() as u32
    }

    /// Encodes a masked address: each combined line absorbs its partner's
    /// input bit; every other line passes through.
    fn apply(&self, address: u64) -> u64 {
        let mut out = address;
        for &(line, partner) in &self.combined {
            out ^= (address >> partner & 1) << line;
        }
        out
    }

    /// Decodes a masked bus word by solving the unit lower-triangular
    /// system. The combined lines are visited in ascending order, and
    /// every partner is a lower line — a passthrough line, or a combined
    /// one already solved — so `address` holds its input bit by then.
    fn unapply(&self, encoded: u64) -> u64 {
        let mut address = encoded;
        for &(line, partner) in &self.combined {
            address ^= (address >> partner & 1) << line;
        }
        address
    }

    /// Consumes the transform into its encoder half.
    pub fn into_encoder(self) -> BeachEncoder {
        BeachEncoder { code: self }
    }

    /// Consumes the transform into its decoder half.
    pub fn into_decoder(self) -> BeachDecoder {
        BeachDecoder { code: self }
    }
}

/// The stateless Beach encoder wrapping a [`BeachCode`] transform.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BeachEncoder {
    code: BeachCode,
}

impl Encoder for BeachEncoder {
    fn name(&self) -> &'static str {
        "beach"
    }

    fn width(&self) -> BusWidth {
        self.code.width
    }

    fn aux_line_count(&self) -> u32 {
        0
    }

    fn encode(&mut self, access: Access) -> BusState {
        BusState::new(self.code.apply(access.address & self.code.width.mask()), 0)
    }

    fn reset(&mut self) {}
}

/// The stateless Beach decoder wrapping a [`BeachCode`] transform.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BeachDecoder {
    code: BeachCode,
}

impl Decoder for BeachDecoder {
    fn name(&self) -> &'static str {
        "beach"
    }

    fn width(&self) -> BusWidth {
        self.code.width
    }

    fn decode(&mut self, word: BusState, _kind: AccessKind) -> Result<u64, CodecError> {
        Ok(self.code.unapply(word.payload & self.code.width.mask()))
    }

    fn reset(&mut self) {}
}

// --- Snapshot support ------------------------------------------------------

use crate::snapshot::{ImageReader, ImageView, Snapshot, StateImage};

impl Snapshot for BeachEncoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("beach");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "beach")?.finish()
    }
}

impl Snapshot for BeachDecoder {
    fn snapshot_into(&self, image: &mut StateImage) {
        image.refill("beach");
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        ImageReader::open(image, "beach")?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Reference encoder: builds the output line by line over the whole
    /// partner map.
    fn apply_per_line(code: &BeachCode, address: u64) -> u64 {
        let mut out = 0u64;
        for (i, &p) in code.partner.iter().enumerate() {
            let bit = (address >> i) & 1;
            let mixed = if p as usize == i {
                bit
            } else {
                bit ^ ((address >> p) & 1)
            };
            out |= mixed << i;
        }
        out
    }

    /// Reference decoder: solves the triangular system line by line over
    /// the whole partner map.
    fn unapply_per_line(code: &BeachCode, encoded: u64) -> u64 {
        let mut address = 0u64;
        for (i, &p) in code.partner.iter().enumerate() {
            let out_bit = (encoded >> i) & 1;
            let bit = if p as usize == i {
                out_bit
            } else {
                out_bit ^ ((address >> p) & 1)
            };
            address |= bit << i;
        }
        address
    }

    #[test]
    fn identity_transform_is_binary() {
        let code = BeachCode::identity(BusWidth::MIPS);
        assert_eq!(code.combined_lines(), 0);
        let mut enc = code.into_encoder();
        assert_eq!(enc.encode(Access::data(0xcafe)).payload, 0xcafe);
    }

    #[test]
    fn transform_is_invertible_for_any_partner_choice() {
        // Random partner maps at every width class, plus transforms
        // trained on random strided streams; both directions must match
        // the per-line reference bit for bit.
        let mut rng = Rng64::seed_from_u64(71);
        let mut codes = Vec::new();
        for n in [1u32, 8, 16, 32, 33, 64] {
            let width = BusWidth::new(n).unwrap();
            for _ in 0..20 {
                let partner: Vec<u32> = (0..n).map(|i| rng.gen_range(0..=i)).collect();
                codes.push(BeachCode::from_partners(width, partner));
            }
            for _ in 0..3 {
                let base = rng.gen::<u64>();
                let stride = 1u64 << rng.gen_range(0..4u32);
                let profile: Vec<u64> = (0..500)
                    .map(|_| base.wrapping_add(stride * rng.gen_range(0..64u64)))
                    .collect();
                codes.push(BeachCode::train(width, profile.iter().copied()));
            }
        }
        assert!(codes.iter().any(|c| c.combined_lines() > 0));
        for code in &codes {
            for _ in 0..200 {
                let v = rng.gen::<u64>() & code.width.mask();
                let encoded = code.apply(v);
                assert_eq!(encoded, apply_per_line(code, v), "{code:?}");
                assert_eq!(code.unapply(v), unapply_per_line(code, v), "{code:?}");
                assert_eq!(code.unapply(encoded), v, "{code:?}");
            }
        }
    }

    #[test]
    fn trained_code_round_trips() {
        let profile: Vec<u64> = (0..1000u64).map(|i| 0x4000 + 12 * (i % 64)).collect();
        let code = BeachCode::train(BusWidth::MIPS, profile.iter().copied());
        let mut enc = code.clone().into_encoder();
        let mut dec = code.into_decoder();
        let mut rng = Rng64::seed_from_u64(73);
        for _ in 0..1000 {
            let addr = rng.gen::<u64>() & BusWidth::MIPS.mask();
            let word = enc.encode(Access::data(addr));
            assert_eq!(dec.decode(word, AccessKind::Data).unwrap(), addr);
        }
    }

    #[test]
    fn training_reduces_transitions_on_correlated_stream() {
        // Two lines that always toggle together: XOR-ing them silences one.
        let stream: Vec<u64> = (0..2000u64)
            .map(|i| if i % 2 == 0 { 0b11 } else { 0 })
            .collect();
        let width = BusWidth::new(8).unwrap();
        let code = BeachCode::train(width, stream.iter().copied());
        assert!(code.combined_lines() >= 1);

        let count = |enc: &mut dyn Encoder| {
            let mut prev = BusState::reset();
            let mut t = 0u64;
            for &a in &stream {
                let w = enc.encode(Access::data(a));
                t += u64::from(w.transitions_from(prev));
                prev = w;
            }
            t
        };
        let mut beach = code.into_encoder();
        let mut binary = crate::codes::BinaryEncoder::new(width);
        assert!(count(&mut beach) < count(&mut binary));
    }

    #[test]
    fn training_on_empty_stream_is_identity_like() {
        let code = BeachCode::train(BusWidth::MIPS, std::iter::empty());
        assert_eq!(code.combined_lines(), 0);
    }

    #[test]
    fn training_never_increases_expected_toggles_on_the_profile() {
        let mut rng = Rng64::seed_from_u64(79);
        let width = BusWidth::new(16).unwrap();
        let profile: Vec<u64> = (0..3000)
            .map(|_| {
                let base = 0x1200u64;
                base + 2 * rng.gen_range(0..32u64)
            })
            .collect();
        let code = BeachCode::train(width, profile.iter().copied());
        let count = |enc: &mut dyn Encoder| {
            let mut prev: Option<BusState> = None;
            let mut t = 0u64;
            for &a in &profile {
                let w = enc.encode(Access::data(a));
                if let Some(p) = prev {
                    t += u64::from(w.transitions_from(p));
                }
                prev = Some(w);
            }
            t
        };
        let mut beach = code.into_encoder();
        let mut binary = crate::codes::BinaryEncoder::new(width);
        assert!(count(&mut beach) <= count(&mut binary));
    }
}
