//! The `Protected` wrapper codec: check lines plus a periodic plain-word
//! refresh around any code, in two kinds — parity detection
//! ([`Hardened`]) and SEC-DED correction ([`EccHardened`]).
//!
//! The stateful codes (T0, T0_BI, dual T0, dual T0_BI, and most of the
//! extensions) buy their power savings with shared encoder/decoder state:
//! the decoder reconstructs addresses from references it accumulated in
//! earlier cycles. A single in-transit bit flip (SEU, crosstalk) therefore
//! desynchronizes the decoder for an *unbounded* number of cycles — the
//! corrupted reference silently poisons every later relative decode.
//!
//! [`Protected`] wraps any [`Encoder`]/[`Decoder`] pair without touching
//! the inner code. The paper's codes already drive redundant lines next to
//! the payload (T0's `INC`, bus-invert's `INV`, dual T0_BI's `INCV`); the
//! wrapper adds more, computed from every transmitted line, and a
//! refresh schedule:
//!
//! 1. **Check lines.** The check kind `K` ([`LineCheck`]) decides what
//!    they buy. [`Parity`] adds one line carrying the parity of every
//!    transmitted line: any *single* line flip — payload, redundant, or
//!    the parity line itself — is detected at the cycle it happens and
//!    [`Decoder::decode`] reports a [`CodecError::ProtocolViolation`]
//!    instead of a silently wrong address. [`SecDed`] adds a Hamming
//!    SEC-DED code instead: a single flip is *corrected* in-flight — the
//!    decoder recovers the exact address and lands in the exact state a
//!    clean transmission would have produced — and a double flip is
//!    detected, never silently decoded.
//! 2. **Periodic plain-word refresh (bounded resync).** Every `R` cycles
//!    (the *refresh interval*) both wrapper halves reset their inner codec
//!    before processing the cycle. A freshly reset encoder emits a
//!    self-contained plain word, and a freshly reset decoder decodes it
//!    without any accumulated state — so whatever damage a detected fault
//!    did to the decoder's references is discarded at the next refresh
//!    boundary. Recovery takes at most `R` cycles.
//!
//! The resync bound rests on two facts the model checker
//! ([`crate::check::check_hardened`], [`crate::check::check_ecc`])
//! verifies exhaustively at small widths: `reset()` restores the inner
//! codec's construction state from *every* reachable state, and the
//! refresh schedule is driven by a cycle counter — advanced once per
//! encode/decode call, never by bus data — so faults cannot desynchronize
//! the schedule itself. Dropped or duplicated *bus cycles* shift the two
//! counters relative to each other and are outside the
//! single-transient-fault guarantee (the campaign runner in
//! `buscode-fault` measures what happens then).
//!
//! # Line layout
//!
//! For a `w`-bit payload and an inner code with `k` redundant lines:
//!
//! ```text
//! aux bit:   0 .. k-1        k ..
//!            inner code's    the check kind's lines:
//!            own lines       Parity: one parity line
//!                            SecDed: r Hamming check lines, then one
//!                                    overall-parity line
//! ```
//!
//! SEC-DED protects the `n = w + k` transmitted data bits with the minimal
//! `r` satisfying `2^r >= n + r + 1` ([`ecc_check_bits`]). Codeword
//! positions are numbered `1..=n+r`, power-of-two positions carry the
//! check bits, and the XOR of the positions of all set bits is zero. On
//! receive, that XOR (the *syndrome*) is the position of a single flipped
//! line; combined with the overall parity it separates the cases:
//!
//! | syndrome | overall parity | meaning            | action            |
//! |---|---|---|---|
//! | 0        | even           | clean              | decode            |
//! | 0        | odd            | parity line flip   | correct (data intact) |
//! | `p`      | odd            | single flip at `p` | correct, decode   |
//! | nonzero  | even           | double flip        | detect, resync    |
//!
//! Check bit `j` is the parity of the data bits whose position has bit
//! `j` set. [`SecDed`] computes those `r` position masks once, when it is
//! laid out, so encoding and verifying a word cost `r` masked parities.
//!
//! The price is power: the check lines toggle, and the refresh forces a
//! full plain word onto lines the inner code had frozen.
//! `buscode-power::tier_bus_power` prices the three tiers (bare, parity,
//! ECC), and the adaptive redundancy manager in `buscode-pipeline` weighs
//! them against fault pressure.
//!
//! # Examples
//!
//! The same in-transit flip under both kinds: parity detects it and the
//! decoder is exact again from the next refresh boundary on; SEC-DED
//! corrects it at the faulted cycle, with no error and no resync window.
//!
//! ```
//! use buscode_core::codes::{EccHardened, Hardened, T0Decoder, T0Encoder};
//! use buscode_core::{Access, AccessKind, BusWidth, Decoder, Encoder, Stride};
//!
//! # fn main() -> Result<(), buscode_core::CodecError> {
//! let (w, s) = (BusWidth::MIPS, Stride::WORD);
//! let mut enc = Hardened::encoder(T0Encoder::new(w, s)?, 4)?;
//! let mut dec = Hardened::with_aux_lines(T0Decoder::new(w, s)?, 4, 1)?;
//! let mut ecc_enc = EccHardened::encoder(T0Encoder::new(w, s)?, 4)?;
//! let mut ecc_dec = EccHardened::with_aux_lines(T0Decoder::new(w, s)?, 4, 1)?;
//!
//! for i in 0..8u64 {
//!     let access = Access::instruction(0x100 + 4 * i);
//!     let (mut word, mut ecc_word) = (enc.encode(access), ecc_enc.encode(access));
//!     if i == 1 {
//!         word.payload ^= 1 << 7; // in-transit flips
//!         ecc_word.payload ^= 1 << 7;
//!     }
//!     let decoded = dec.decode(word, AccessKind::Instruction);
//!     match i {
//!         1 => assert!(decoded.is_err(), "parity detects the flip"),
//!         4.. => assert_eq!(decoded?, access.address, "exact after refresh"),
//!         _ => {} // within the bound the decoder may drift
//!     }
//!     assert_eq!(ecc_dec.decode(ecc_word, AccessKind::Instruction)?, access.address);
//! }
//! assert_eq!(ecc_dec.corrected_count(), 1);
//! # Ok(())
//! # }
//! ```

use core::fmt::Debug;
use core::hash::{Hash, Hasher};

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::error::CodecError;
use crate::snapshot::{ImageView, Snapshot, StateImage};
use crate::tier::Tier;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

pub(crate) mod sealed {
    /// Keeps [`LineCheck`][super::LineCheck] implementable only inside
    /// this crate.
    pub trait Sealed {}
}

/// What a [`Protected`] wrapper's extra lines compute and verify: the
/// check kind, [`Parity`] or [`SecDed`].
///
/// A kind is chosen by type — the tier factories pick it from the
/// [`Tier`] once, at construction — so the per-word path never branches
/// on it. It sees only the transmitted data (payload plus the inner
/// code's lines); the wrapper owns the line layout, the refresh schedule,
/// and the snapshot.
pub trait LineCheck: sealed::Sealed + Clone + Debug + Eq + Hash + Send {
    /// The wrapper's [`Encoder::name`] and snapshot-image prefix.
    const NAME: &'static str;
    /// The `code` of the [`CodecError::ProtocolViolation`] a detected
    /// fault reports — a failure that leaves the inner decoder untouched,
    /// so [`CodecError::recovery_class`] treats it as transient.
    const FAULT_CODE: &'static str;
    /// The protection tier this kind implements.
    const TIER: Tier;

    /// Lays the check out over `payload_bits` payload lines plus
    /// `inner_aux` inner redundant lines (`inner_aux < 64`).
    fn new(payload_bits: u32, inner_aux: u32) -> Self;

    /// How many lines the check adds above the inner code's.
    fn lines(&self) -> u32;

    /// The check lines, LSB-first, for one word's payload and inner lines.
    fn check(&self, payload: u64, inner: u64) -> u64;

    /// Verifies a received word against its check lines (`lines` may
    /// carry garbage above [`LineCheck::lines`]).
    fn verify(&self, payload: u64, inner: u64, lines: u64) -> Verified;
}

/// What [`LineCheck::verify`] found: `Ok(None)` for a clean word,
/// `Ok(Some((payload, inner)))` with the repaired data after a
/// correction, and the violation reason for a detected, uncorrectable
/// fault.
pub type Verified = Result<Option<(u64, u64)>, &'static str>;

/// One line carrying the parity of every transmitted line: detects any
/// single flip. The [`Tier::Parity`] kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parity;

/// Parity of every transmitted line: payload bits plus the inner code's
/// redundant lines.
fn line_parity(payload: u64, inner: u64) -> u64 {
    u64::from((payload.count_ones() + inner.count_ones()) & 1)
}

impl sealed::Sealed for Parity {}

impl LineCheck for Parity {
    const NAME: &'static str = "hardened";
    const FAULT_CODE: &'static str = "hardened";
    const TIER: Tier = Tier::Parity;

    fn new(_: u32, _: u32) -> Self {
        Parity
    }

    fn lines(&self) -> u32 {
        1
    }

    fn check(&self, payload: u64, inner: u64) -> u64 {
        line_parity(payload, inner)
    }

    fn verify(&self, payload: u64, inner: u64, lines: u64) -> Verified {
        if lines & 1 != line_parity(payload, inner) {
            return Err("aux parity mismatch");
        }
        Ok(None)
    }
}

/// The minimal number of Hamming check bits `r` protecting `data_bits`
/// data bits: the smallest `r` with `2^r >= data_bits + r + 1`.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::ecc_check_bits;
///
/// assert_eq!(ecc_check_bits(4), 3); // 2^3 = 8 >= 4 + 3 + 1
/// assert_eq!(ecc_check_bits(11), 4); // 2^4 = 16 >= 11 + 4 + 1
/// assert_eq!(ecc_check_bits(57), 6); // 2^6 = 64 >= 57 + 6 + 1
/// ```
pub fn ecc_check_bits(data_bits: u32) -> u32 {
    let mut r = 0u32;
    while (1u128 << r) < u128::from(data_bits) + u128::from(r) + 1 {
        r += 1;
    }
    r
}

/// The 0-based data-bit index stored at codeword position `pos`, or
/// `None` when `pos` is a power of two (a check-bit position).
fn data_index_of_position(pos: u64, n: u32) -> Option<u32> {
    if pos.is_power_of_two() {
        return None;
    }
    // The data index is the position count minus the check positions
    // (powers of two) below it, minus the 1-indexing offset.
    let checks_below = pos.ilog2() + 1;
    let index = (pos - 1 - u64::from(checks_below)) as u32;
    (index < n).then_some(index)
}

fn parity128(v: u128) -> u64 {
    u64::from(v.count_ones() & 1)
}

/// The most Hamming check lines any layout needs: 64 payload plus 63
/// inner lines make `n = 127` data bits, and `2^8 >= 127 + 8 + 1`.
const MAX_CHECK_BITS: usize = 8;

/// Hamming SEC-DED over every transmitted line: `r` check lines plus one
/// overall-parity line correct any single flip and detect any double.
/// The [`Tier::Ecc`] kind; see the [module docs](self) for the layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SecDed {
    /// Payload width `w`.
    payload_bits: u32,
    /// Protected data bits `n = w + k`.
    data_bits: u32,
    /// Hamming check lines `r`.
    check_bits: u32,
    /// `masks[j]` selects the data bits whose codeword position has bit
    /// `j` set, so check bit `c_j` is the parity of `data & masks[j]`.
    /// Computed once, at construction; derived from the fields above.
    masks: [u128; MAX_CHECK_BITS],
}

impl SecDed {
    /// Packs payload and inner lines into the protected data vector.
    fn data(&self, payload: u64, inner: u64) -> u128 {
        u128::from(payload) | (u128::from(inner) << self.payload_bits)
    }

    /// XOR of the 1-indexed codeword positions of all set data bits: one
    /// parity per check line.
    ///
    /// Data bits occupy the non-power-of-two positions of `1..=n+r` in
    /// order. Bit `j` of the result is the parity of the data bits whose
    /// position has bit `j` set — exactly check bit `c_j`, by Hamming's
    /// defining property that each check bit zeroes the XOR over its
    /// position group.
    fn position_xor(&self, data: u128) -> u64 {
        self.masks[..self.check_bits as usize]
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &mask)| acc | parity128(data & mask) << j)
    }
}

impl sealed::Sealed for SecDed {}

impl LineCheck for SecDed {
    const NAME: &'static str = "ecc-hardened";
    const FAULT_CODE: &'static str = "ecc";
    const TIER: Tier = Tier::Ecc;

    fn new(payload_bits: u32, inner_aux: u32) -> Self {
        let data_bits = payload_bits + inner_aux;
        let mut masks = [0u128; MAX_CHECK_BITS];
        let positions = (1u64..).filter(|pos| !pos.is_power_of_two());
        for (i, pos) in (0..data_bits).zip(positions) {
            for (j, mask) in masks.iter_mut().enumerate() {
                *mask |= u128::from(pos >> j & 1) << i;
            }
        }
        SecDed {
            payload_bits,
            data_bits,
            check_bits: ecc_check_bits(data_bits),
            masks,
        }
    }

    fn lines(&self) -> u32 {
        self.check_bits + 1
    }

    fn check(&self, payload: u64, inner: u64) -> u64 {
        let data = self.data(payload, inner);
        let checks = self.position_xor(data);
        let overall = parity128(data) ^ parity128(u128::from(checks));
        checks | (overall << self.check_bits)
    }

    fn verify(&self, payload: u64, inner: u64, lines: u64) -> Verified {
        let (n, r) = (self.data_bits, self.check_bits);
        let checks = lines & ((1u64 << r) - 1);
        let parity_rx = (lines >> r) & 1;
        let mut data = self.data(payload, inner);
        // Syndrome: XOR of the positions of all flipped codeword lines.
        let syndrome = self.position_xor(data) ^ checks;
        let overall_odd = parity128(data) ^ parity128(u128::from(checks)) ^ parity_rx;
        match (syndrome, overall_odd) {
            (0, 0) => Ok(None),
            // The overall-parity line itself flipped; data is intact.
            (0, _) => Ok(Some((payload, inner))),
            (pos, 1) => {
                // A single flip at codeword position `pos`. A syndrome
                // beyond the codeword means at least three flips — out of
                // the correction radius, report it like a double.
                if pos > u64::from(n + r) {
                    return Err("uncorrectable multi-line error detected");
                }
                // Flips at check positions leave the data intact.
                if let Some(i) = data_index_of_position(pos, n) {
                    data ^= 1u128 << i;
                }
                let payload_mask = (1u128 << self.payload_bits) - 1;
                Ok(Some((
                    (data & payload_mask) as u64,
                    (data >> self.payload_bits) as u64,
                )))
            }
            // Even flip count with a nonzero syndrome: a double error.
            // Detected, not correctable — the refresh bounds the resync.
            _ => Err("double-line error detected"),
        }
    }
}

/// Wraps an inner encoder or decoder with the check lines of kind `K`
/// and a periodic plain-word refresh; see the [module docs](self) for
/// the guarantees.
///
/// The same generic struct wraps both halves: `Protected<E, K>`
/// implements [`Encoder`] when `E` does, and `Protected<D, K>` implements
/// [`Decoder`] when `D` does. Both halves must be built with the same
/// kind and refresh interval (and the decoder with the encoder's
/// redundant line count) or they will not track each other.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Protected<C, K> {
    inner: C,
    /// The check kind, laid out for this payload and inner line count.
    check: K,
    /// Payload width, fixed at construction.
    width: BusWidth,
    /// How many redundant lines the *inner* code uses; the check lines
    /// sit immediately above them.
    inner_aux: u32,
    /// Refresh interval `R` in cycles: the inner codec is reset before
    /// cycles `0, R, 2R, ...`.
    refresh: u64,
    /// Cycle counter modulo `refresh`, advanced once per call. Keeping it
    /// reduced makes the wrapper a finite Mealy machine, which the model
    /// checker relies on.
    cycle: u64,
    /// How many words this half has corrected in-flight.
    corrected: Corrections,
}

/// The correction counter behind [`Decoder::corrected_count`]: telemetry
/// about the channel, not codec state, so it is left out of snapshots and
/// every value compares equal and hashes alike. Equality and hashing are
/// how the model checker identifies product states, and a correction
/// restores the clean state by construction: two decoders differing only
/// in how many faults they absorbed are behaviourally identical.
#[derive(Clone, Copy, Debug, Default)]
struct Corrections(u64);

impl PartialEq for Corrections {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for Corrections {}

impl Hash for Corrections {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

/// [`Protected`] with one parity line: detection plus refresh.
pub type Hardened<C> = Protected<C, Parity>;

/// [`Protected`] with SEC-DED lines: in-flight correction plus refresh.
pub type EccHardened<C> = Protected<C, SecDed>;

impl<C, K: LineCheck> Protected<C, K> {
    fn build(inner: C, width: BusWidth, refresh: u64, inner_aux: u32) -> Result<Self, CodecError> {
        if refresh == 0 {
            return Err(CodecError::InvalidParameter {
                name: "refresh",
                reason: "refresh interval must be at least 1 cycle".to_string(),
            });
        }
        let check = (inner_aux < 64)
            .then(|| K::new(width.bits(), inner_aux))
            .filter(|check| inner_aux + check.lines() <= 64)
            .ok_or_else(|| CodecError::InvalidParameter {
                name: "inner_aux",
                reason: format!(
                    "{} lines must fit within 64 redundant lines, got {inner_aux} inner lines",
                    K::NAME
                ),
            })?;
        Ok(Protected {
            inner,
            check,
            width,
            inner_aux,
            refresh,
            cycle: 0,
            corrected: Corrections::default(),
        })
    }

    /// True when the *next* encode/decode call starts a refresh period
    /// (the inner codec will be reset before processing it).
    pub fn at_refresh_boundary(&self) -> bool {
        self.cycle == 0
    }

    /// Mask selecting the inner code's redundant lines within `aux`.
    fn inner_aux_mask(&self) -> u64 {
        (1u64 << self.inner_aux) - 1
    }

    /// Advances the refresh schedule, returning whether this cycle is a
    /// refresh cycle.
    fn tick(&mut self) -> bool {
        let refresh_now = self.cycle == 0;
        self.cycle = (self.cycle + 1) % self.refresh;
        refresh_now
    }
}

impl<C> Protected<C, SecDed> {
    /// Number of Hamming check lines `r` (excluding the overall-parity
    /// line and the inner code's own lines).
    pub fn check_line_count(&self) -> u32 {
        self.check.check_bits
    }
}

impl<E: Encoder, K: LineCheck> Protected<E, K> {
    /// Wraps an encoder, reading the width and redundant-line count off
    /// `inner`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] if `refresh` is zero or
    /// the check lines would not fit in the 64 `aux` bits.
    pub fn encoder(inner: E, refresh: u64) -> Result<Self, CodecError> {
        let (width, inner_aux) = (inner.width(), inner.aux_line_count());
        Protected::build(inner, width, refresh, inner_aux)
    }
}

impl<D: Decoder, K: LineCheck> Protected<D, K> {
    /// Wraps a decoder with an explicit inner redundant-line count (the
    /// decoder trait does not expose it; pass the paired encoder's
    /// [`Encoder::aux_line_count`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Protected::encoder`].
    pub fn with_aux_lines(inner: D, refresh: u64, inner_aux: u32) -> Result<Self, CodecError> {
        let width = inner.width();
        Protected::build(inner, width, refresh, inner_aux)
    }
}

impl<E: Encoder, K: LineCheck> Encoder for Protected<E, K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn aux_line_count(&self) -> u32 {
        self.inner_aux + self.check.lines()
    }

    fn encode(&mut self, access: Access) -> BusState {
        if self.tick() {
            // Refresh: a reset inner encoder has no reference to freeze
            // against, so this cycle's word is plain and self-contained.
            self.inner.reset();
        }
        let word = self.inner.encode(access);
        let inner = word.aux & self.inner_aux_mask();
        let check = self.check.check(word.payload, inner);
        BusState::new(word.payload, inner | (check << self.inner_aux))
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }
}

impl<D: Decoder, K: LineCheck> Decoder for Protected<D, K> {
    fn name(&self) -> &'static str {
        K::NAME
    }

    fn width(&self) -> BusWidth {
        self.width
    }

    fn decode(&mut self, word: BusState, kind: AccessKind) -> Result<u64, CodecError> {
        // The schedule advances on every call — it is driven by the cycle
        // count alone, so a corrupted word cannot shift it.
        if self.tick() {
            self.inner.reset();
        }
        let payload = word.payload & self.width.mask();
        let inner = word.aux & self.inner_aux_mask();
        let (payload, inner) = match self
            .check
            .verify(payload, inner, word.aux >> self.inner_aux)
        {
            Ok(None) => (payload, inner),
            Ok(Some(repaired)) => {
                self.corrected.0 += 1;
                repaired
            }
            // Detected corruption: report it and leave the inner state
            // untouched (the word is untrustworthy either way; the next
            // refresh discards whatever drift the gap causes).
            Err(reason) => {
                return Err(CodecError::ProtocolViolation {
                    code: K::FAULT_CODE,
                    reason,
                })
            }
        };
        self.inner.decode(BusState::new(payload, inner), kind)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.cycle = 0;
    }

    /// Survives [`Decoder::reset`] — it is telemetry about the channel,
    /// not codec state.
    fn corrected_count(&self) -> u64 {
        self.corrected.0
    }
}

impl<C: Snapshot, K: LineCheck> Snapshot for Protected<C, K> {
    /// The image is the inner codec's image with the refresh-cycle
    /// counter appended, under a [`LineCheck::NAME`]-prefixed code name
    /// (`hardened:t0`, `ecc-hardened:t0`). The correction counter is not
    /// codec state and is not captured.
    fn snapshot_into(&self, image: &mut StateImage) {
        self.inner.snapshot_into(image);
        image.wrap(K::NAME, self.cycle);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        let mismatch = |reason| CodecError::SnapshotMismatch {
            code: K::NAME,
            reason,
        };
        let inner_code = image
            .code()
            .strip_prefix(K::NAME)
            .and_then(|rest| rest.strip_prefix(':'))
            .ok_or(mismatch("image is not a snapshot of this wrapper"))?;
        let (&cycle, inner_words) = image
            .words()
            .split_last()
            .ok_or(mismatch("missing refresh-cycle counter"))?;
        if cycle >= self.refresh {
            return Err(mismatch("cycle counter outside the refresh interval"));
        }
        // Restore the inner codec first, from a view of the inner part of
        // this image: it validates before mutating, so a bad inner image
        // leaves the whole wrapper unchanged.
        self.inner
            .restore_from(ImageView::new(inner_code, inner_words))?;
        self.cycle = cycle;
        Ok(())
    }
}

impl CodeKind {
    /// The number of redundant lines this code's encoder adds.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn aux_line_count(self, params: CodeParams) -> Result<u32, CodecError> {
        Ok(self.snapshot_encoder(params)?.aux_line_count())
    }

    /// The number of redundant lines [`EccHardened`] adds on top of this
    /// code's own: `r + 1` for the minimal `r` with `2^r >= w + k + r + 1`.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn ecc_overhead_lines(self, params: CodeParams) -> Result<u32, CodecError> {
        let inner_aux = self.aux_line_count(params)?;
        Ok(SecDed::new(params.width.bits(), inner_aux).lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::flip_line;
    use crate::codes::{T0Decoder, T0Encoder};
    use crate::{BusWidth, RecoveryClass, Stride};

    fn t0_pair<K: LineCheck>(refresh: u64) -> (Protected<T0Encoder, K>, Protected<T0Decoder, K>) {
        let (w, s) = (BusWidth::MIPS, Stride::WORD);
        (
            Protected::encoder(T0Encoder::new(w, s).unwrap(), refresh).unwrap(),
            Protected::with_aux_lines(T0Decoder::new(w, s).unwrap(), refresh, 1).unwrap(),
        )
    }

    #[test]
    fn construction_checks_refresh_and_the_line_budget() {
        let enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        assert!(matches!(
            Hardened::encoder(enc, 0),
            Err(CodecError::InvalidParameter {
                name: "refresh",
                ..
            })
        ));
        assert!(EccHardened::encoder(enc, 0).is_err());
        let dec = T0Decoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        assert!(Hardened::with_aux_lines(dec, 8, 63).is_ok());
        assert!(matches!(
            Hardened::with_aux_lines(dec, 8, 64),
            Err(CodecError::InvalidParameter {
                name: "inner_aux",
                ..
            })
        ));
        assert!(EccHardened::with_aux_lines(dec, 8, 60).is_err());
        // Parity adds one line on top of the inner code's own.
        assert_eq!(Hardened::encoder(enc, 8).unwrap().aux_line_count(), 2);
        let params = CodeParams::default();
        assert_eq!(CodeKind::T0Bi.aux_line_count(params).unwrap(), 2);
        let t0bi = CodeKind::T0Bi.tier_snapshot_encoder(params, Tier::Parity, 16);
        assert_eq!(t0bi.unwrap().aux_line_count(), 3);
    }

    #[test]
    fn check_bit_arithmetic_matches_the_textbook_points() {
        // (data bits, minimal r): the classic Hamming table.
        for (n, r) in [(1, 2), (4, 3), (11, 4), (26, 5), (57, 6)] {
            assert_eq!(ecc_check_bits(n), r, "n = {n}");
            // Minimality: r - 1 must not satisfy the inequality.
            assert!((1u64 << (r - 1)) < u64::from(n) + u64::from(r - 1) + 1);
        }
    }

    /// The per-bit position walk the check masks replace: the reference.
    fn data_position_xor(data: u128, n: u32) -> u64 {
        let mut acc: u64 = 0;
        let mut pos: u64 = 1;
        for i in 0..n {
            while pos.is_power_of_two() {
                pos += 1;
            }
            if (data >> i) & 1 == 1 {
                acc ^= pos;
            }
            pos += 1;
        }
        acc
    }

    /// [`SecDed::check`] over the position walk: the reference.
    fn walk_check(ecc: &SecDed, payload: u64, inner: u64) -> u64 {
        let data = ecc.data(payload, inner);
        let checks = data_position_xor(data, ecc.data_bits);
        let overall = parity128(data) ^ parity128(u128::from(checks));
        checks | (overall << ecc.check_bits)
    }

    /// [`SecDed::verify`] over the position walk: the reference.
    fn walk_verify(ecc: &SecDed, payload: u64, inner: u64, lines: u64) -> Verified {
        let (n, r) = (ecc.data_bits, ecc.check_bits);
        let checks = lines & ((1u64 << r) - 1);
        let parity_rx = (lines >> r) & 1;
        let mut data = ecc.data(payload, inner);
        let syndrome = data_position_xor(data, n) ^ checks;
        let overall_odd = parity128(data) ^ parity128(u128::from(checks)) ^ parity_rx;
        match (syndrome, overall_odd) {
            (0, 0) => Ok(None),
            (0, _) => Ok(Some((payload, inner))),
            (pos, 1) => {
                if pos > u64::from(n + r) {
                    return Err("uncorrectable multi-line error detected");
                }
                if let Some(i) = data_index_of_position(pos, n) {
                    data ^= 1u128 << i;
                }
                let payload_mask = (1u128 << ecc.payload_bits) - 1;
                Ok(Some((
                    (data & payload_mask) as u64,
                    (data >> ecc.payload_bits) as u64,
                )))
            }
            _ => Err("double-line error detected"),
        }
    }

    fn low_bits(v: u64, bits: u32) -> u64 {
        if bits == 64 {
            v
        } else {
            v & ((1u64 << bits) - 1)
        }
    }

    #[test]
    fn masks_match_the_position_walk_for_every_admitted_layout() {
        let mut rng = crate::rng::Rng64::seed_from_u64(0x5ec_ded);
        for payload_bits in 1..=64u32 {
            for inner_aux in
                (0..64u32).take_while(|&k| k + SecDed::new(payload_bits, k).lines() <= 64)
            {
                let ecc = SecDed::new(payload_bits, inner_aux);
                for _ in 0..32 {
                    let payload = low_bits(rng.next_u64(), payload_bits);
                    let inner = low_bits(rng.next_u64(), inner_aux);
                    let check = ecc.check(payload, inner);
                    assert_eq!(check, walk_check(&ecc, payload, inner));
                    assert_eq!(ecc.verify(payload, inner, check), Ok(None));
                    // Arbitrary received check lines reach every branch.
                    let lines = rng.next_u64();
                    assert_eq!(
                        ecc.verify(payload, inner, lines),
                        walk_verify(&ecc, payload, inner, lines),
                        "w {payload_bits} k {inner_aux} lines {lines:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn masks_match_the_position_walk_on_every_single_and_double_flip() {
        let mut rng = crate::rng::Rng64::seed_from_u64(0xf11e_5eed);
        for payload_bits in [1u32, 8, 32, 64] {
            for inner_aux in 0..=2u32 {
                let ecc = SecDed::new(payload_bits, inner_aux);
                let lines = payload_bits + inner_aux + ecc.lines();
                // Flips line `l` of the codeword (payload, inner, check).
                let flip = |(p, i, c): (u64, u64, u64), l: u32| {
                    if l < payload_bits {
                        (p ^ 1 << l, i, c)
                    } else if l < payload_bits + inner_aux {
                        (p, i ^ 1 << (l - payload_bits), c)
                    } else {
                        (p, i, c ^ 1 << (l - payload_bits - inner_aux))
                    }
                };
                for _ in 0..8 {
                    let payload = low_bits(rng.next_u64(), payload_bits);
                    let inner = low_bits(rng.next_u64(), inner_aux);
                    let word = (payload, inner, ecc.check(payload, inner));
                    for a in 0..lines {
                        for b in a..lines {
                            // b == a is the single flip.
                            let (p, i, c) = if b == a {
                                flip(word, a)
                            } else {
                                flip(flip(word, a), b)
                            };
                            let got = ecc.verify(p, i, c);
                            assert_eq!(got, walk_verify(&ecc, p, i, c), "lines {a},{b}");
                            if b == a {
                                assert!(matches!(got, Ok(Some(_))), "single flip {a}");
                            } else {
                                assert!(got.is_err(), "double flip {a},{b}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Probes every single and double line flip of a T0 stream from the
    /// decoder's exact pre-word state: parity must detect each single
    /// flip; SEC-DED must correct it into the clean post state and detect
    /// each double.
    fn flip_contract<K: LineCheck>() {
        let (mut enc, mut dec) = t0_pair::<K>(16);
        let lines = 32 + enc.aux_line_count();
        for i in 0..64u64 {
            let addr = 0x400 + 4 * i;
            let word = enc.encode(Access::instruction(addr));
            let mut clean = dec.clone();
            clean.decode(word, AccessKind::Instruction).unwrap();
            let probe = |word| {
                let mut probe = dec.clone();
                (probe.decode(word, AccessKind::Instruction), probe)
            };
            for a in 0..lines {
                let (decoded, probed) = probe(flip_line(word, a, 32));
                if K::TIER == Tier::Parity {
                    assert!(decoded.is_err(), "cycle {i} line {a} slipped through");
                    continue;
                }
                assert_eq!(decoded, Ok(addr), "cycle {i} line {a} not corrected");
                assert_eq!(probed.corrected_count(), dec.corrected_count() + 1);
                // Equality ignores the correction counter.
                assert_eq!(probed, clean, "cycle {i} line {a} state drifted");
                for b in (a + 1)..lines {
                    let doubled = flip_line(flip_line(word, a, 32), b, 32);
                    assert!(
                        probe(doubled).0.is_err(),
                        "cycle {i} lines {a},{b} slipped through"
                    );
                }
            }
            dec = clean;
        }
        assert_eq!(dec.corrected_count(), 0, "clean words count no corrections");
    }

    #[test]
    fn parity_detects_and_secded_corrects_every_single_flip() {
        flip_contract::<Parity>();
        flip_contract::<SecDed>();
    }

    /// A fault the kind cannot repair is reported at its cycle, and the
    /// decoder is exact again from the next refresh boundary on.
    fn resync_is_bounded<K: LineCheck>(fault: fn(&mut BusState)) {
        let refresh = 8u64;
        let (mut enc, mut dec) = t0_pair::<K>(refresh);
        let mut words: Vec<BusState> = (0..64u64)
            .map(|i| enc.encode(Access::instruction(0x100 + 4 * i)))
            .collect();
        let fault_cycle = 10usize;
        fault(&mut words[fault_cycle]);
        let next_refresh = (fault_cycle as u64 / refresh + 1) * refresh;
        for (i, word) in words.iter().enumerate() {
            let decoded = dec.decode(*word, AccessKind::Instruction);
            if i == fault_cycle {
                assert!(decoded.is_err(), "{}: fault must be detected", K::NAME);
            } else if (i as u64) >= next_refresh || i < fault_cycle {
                assert_eq!(decoded.unwrap(), 0x100 + 4 * i as u64, "cycle {i}");
            }
        }
    }

    #[test]
    fn detected_faults_resync_within_the_refresh_interval() {
        resync_is_bounded::<Parity>(|w| w.aux ^= 1); // the INC line
        resync_is_bounded::<SecDed>(|w| w.payload ^= 0b101); // two payload lines
    }

    /// Decodes `word` as the first cycle of a fresh 8-bit T0 decoder
    /// under kind `K`.
    fn first_decode<K: LineCheck>(word: BusState) -> Result<u64, CodecError> {
        let (w, s) = (BusWidth::new(8).unwrap(), Stride::WORD);
        let mut dec: Protected<T0Decoder, K> =
            Protected::with_aux_lines(T0Decoder::new(w, s).unwrap(), 16, 1).unwrap();
        dec.decode(word, AccessKind::Instruction)
    }

    /// An 8-bit T0 word whose check lines are right for its lines.
    fn checked_word<K: LineCheck>(payload: u64, inc: u64) -> BusState {
        BusState::new(payload, inc | (K::new(8, 1).check(payload, inc) << 1))
    }

    #[test]
    fn real_decoder_failures_classify_by_their_kind() {
        let parity = first_decode::<Parity>(flip_line(checked_word::<Parity>(0x5a, 0), 3, 8));
        let clean = checked_word::<SecDed>(0x5a, 0);
        let double = first_decode::<SecDed>(flip_line(flip_line(clean, 0, 8), 6, 8));
        // Three flips among the 13 codeword lines whose syndrome points
        // past the codeword (positions 14 and 15 do not exist).
        let beyond = (0..13u32)
            .flat_map(|a| (a + 1..13).flat_map(move |b| (b + 1..13).map(move |c| [a, b, c])))
            .map(|lines| {
                first_decode::<SecDed>(lines.into_iter().fold(clean, |w, l| flip_line(w, l, 8)))
            })
            .find(|r| {
                matches!(r, Err(CodecError::ProtocolViolation { reason, .. })
                    if *reason == "uncorrectable multi-line error detected")
            })
            .expect("some triple flip lands past the codeword");
        for (outcome, code) in [
            (parity, Parity::FAULT_CODE),
            (double, SecDed::FAULT_CODE),
            (beyond, SecDed::FAULT_CODE),
        ] {
            let err = outcome.unwrap_err();
            assert!(
                matches!(err, CodecError::ProtocolViolation { code: c, .. } if c == code),
                "{err}"
            );
            assert_eq!(err.recovery_class(), RecoveryClass::Transient, "{err}");
        }
        // The check lines vouch for the word, but the inner code rejects
        // it (INC before any reference): its state is suspect.
        for outcome in [
            first_decode::<Parity>(checked_word::<Parity>(0, 1)),
            first_decode::<SecDed>(checked_word::<SecDed>(0, 1)),
        ] {
            let err = outcome.unwrap_err();
            assert!(
                matches!(err, CodecError::ProtocolViolation { code: "t0", .. }),
                "{err}"
            );
            assert_eq!(err.recovery_class(), RecoveryClass::Desync, "{err}");
        }
    }

    #[test]
    fn reset_restores_the_boundary_schedule() {
        let (mut enc, _) = t0_pair::<Parity>(4);
        enc.encode(Access::instruction(0x100));
        enc.encode(Access::instruction(0x104));
        assert!(!enc.at_refresh_boundary());
        enc.reset();
        assert!(enc.at_refresh_boundary());
    }

    #[test]
    fn refresh_one_degenerates_to_plain_words() {
        // R = 1 resets every cycle: the inner code never freezes, every
        // word is self-contained binary plus parity.
        let (mut enc, mut dec) = t0_pair::<Parity>(1);
        for i in 0..32u64 {
            let word = enc.encode(Access::instruction(0x100 + 4 * i));
            assert_eq!(word.aux & 1, 0, "INC never asserted at R=1");
            assert_eq!(
                dec.decode(word, AccessKind::Instruction).unwrap(),
                0x100 + 4 * i
            );
        }
    }

    #[test]
    fn snapshot_round_trips_under_its_own_prefix_only() {
        let params = CodeParams::default();
        for tier in [Tier::Parity, Tier::Ecc] {
            let mut enc = CodeKind::T0
                .tier_snapshot_encoder(params, tier, 16)
                .unwrap();
            for i in 0..5u64 {
                enc.encode(Access::instruction(0x100 + 4 * i));
            }
            let image = enc.snapshot();
            assert!(image.code().ends_with(":t0"), "{}", image.code());
            let mut resumed = CodeKind::T0
                .tier_snapshot_encoder(params, tier, 16)
                .unwrap();
            resumed.restore(&image).unwrap();
            assert_eq!(
                resumed.encode(Access::instruction(0x114)),
                enc.encode(Access::instruction(0x114)),
            );
        }
        // Wrong prefixes and out-of-domain cycle counters are rejected.
        let mut fresh = CodeKind::T0
            .tier_snapshot_encoder(params, Tier::Ecc, 16)
            .unwrap();
        for code in ["hardened:t0", "ecc-hardenedt0", "t0"] {
            assert!(fresh.restore(&StateImage::new(code, vec![0, 0])).is_err());
        }
        assert!(fresh
            .restore(&StateImage::new("ecc-hardened:t0", vec![1, 0x100, 99]))
            .is_err());
    }
}
