//! The [`Encoder`] / [`Decoder`] traits every bus code implements, and the
//! [`CodeKind`] factory used by experiment harnesses to sweep over codes.

use crate::bus::{Access, BusState, BusWidth, Stride};
use crate::error::CodecError;
use crate::metrics::{LineActivity, TransitionStats};

/// A stateful address-bus encoder.
///
/// An encoder sits inside the processor, immediately before the bus drivers.
/// Each clock cycle it receives the address the core wants to transmit and
/// produces the [`BusState`] actually driven onto the wires. Implementations
/// start from the hardware-reset bus state ([`BusState::reset`], all lines
/// low) and may keep arbitrary internal registers.
///
/// Encoding is infallible: parameters are validated at construction, and
/// addresses are masked to the configured [`BusWidth`] (the core cannot emit
/// a wider address than its own bus).
///
/// # Examples
///
/// ```
/// use buscode_core::codes::T0Encoder;
/// use buscode_core::{Access, BusWidth, Encoder, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD)?;
/// let first = enc.encode(Access::instruction(0x100));
/// let second = enc.encode(Access::instruction(0x104)); // sequential: frozen
/// assert_eq!(second.payload, first.payload);
/// assert_eq!(second.aux, 1); // INC asserted
/// # Ok(())
/// # }
/// ```
pub trait Encoder {
    /// A short stable identifier for the code (for reports and tables).
    fn name(&self) -> &'static str;

    /// The payload width of the bus this encoder drives.
    fn width(&self) -> BusWidth;

    /// How many redundant lines this code adds to the bus (0 for
    /// irredundant codes such as binary or Gray).
    fn aux_line_count(&self) -> u32;

    /// Encodes one bus transaction, advancing the internal state.
    ///
    /// The address is masked to [`Encoder::width`] before encoding.
    fn encode(&mut self, access: Access) -> BusState;

    /// Encodes a whole block of transactions, appending one [`BusState`]
    /// per access to `out`.
    ///
    /// This is the bulk entry point the sweep engine and the transition
    /// kernels drive. The contract is exact cycle equivalence with the
    /// per-word path: state is carried across block boundaries, so any
    /// partitioning of a stream into blocks (including empty and
    /// single-word blocks) produces the same bus words as calling
    /// [`Encoder::encode`] once per access.
    ///
    /// The default implementation loops over [`Encoder::encode`]; because
    /// default trait methods are monomorphized per implementing type, the
    /// loop is statically dispatched even when called through
    /// `dyn Encoder` — one virtual call per block, not per word. Cheap
    /// codes additionally override this with fused loops.
    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        out.reserve(accesses.len());
        for &access in accesses {
            out.push(self.encode(access));
        }
    }

    /// Encodes a block and accumulates its line transitions in one pass,
    /// without materializing the bus words for the caller.
    ///
    /// `prev` is the last bus word before the block ([`BusState::reset`]
    /// at stream start) and is left at the block's final word; `stats`
    /// receives the block's cycle count and payload/aux transitions.
    /// Exactly equivalent to [`Encoder::encode_block`] followed by
    /// [`TransitionStats::accumulate_block`] — this is the packed kernel
    /// behind [`count_transitions`][crate::metrics::count_transitions].
    ///
    /// The default implementation encodes through a scratch buffer. On a
    /// bus of at most 32 lines it counts the payload lines and the aux
    /// lines with one pass each of the packed carry-save kernel (see
    /// `crate::kernels`); wider buses take
    /// [`TransitionStats::accumulate_block`]. The
    /// irredundant stateless codes (binary, Gray) override it with fused
    /// loops that keep the whole encode-XOR-popcount chain in registers,
    /// never touching a bus-word buffer at all.
    fn count_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        stats: &mut TransitionStats,
    ) {
        let mut words = Vec::with_capacity(accesses.len());
        self.encode_block(accesses, &mut words);
        stats.accumulate_lines(&words, prev, self.width(), self.aux_line_count());
    }

    /// Encodes a block and accumulates *per-line* transition counts in one
    /// pass — the profile counterpart of [`Encoder::count_block`].
    ///
    /// `activity` must be shaped for this encoder
    /// ([`LineActivity::for_encoder`]): `payload` holds one counter per
    /// payload line (LSB-first) and `aux` one per redundant line. `prev`
    /// carries the last bus word across block boundaries exactly as in
    /// [`Encoder::count_block`], so any partitioning of a stream yields
    /// identical counts.
    ///
    /// The default implementation encodes through a scratch buffer and
    /// hands the words to [`LineActivity::accumulate_block`], which runs
    /// the payload lines of a bus of at most 32 lines through the
    /// positional carry-save kernel and walks the set bits of the aux
    /// lines. Binary and Gray override it to run the same kernel on the
    /// addresses, never materializing a bus word.
    fn activity_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        activity: &mut LineActivity,
    ) {
        let mut words = Vec::with_capacity(accesses.len());
        self.encode_block(accesses, &mut words);
        activity.accumulate_block(&words, prev);
    }

    /// Returns the encoder to its hardware-reset state (all registers and
    /// the modelled bus lines low).
    fn reset(&mut self);
}

impl<E: Encoder + ?Sized> Encoder for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn width(&self) -> BusWidth {
        (**self).width()
    }

    fn aux_line_count(&self) -> u32 {
        (**self).aux_line_count()
    }

    fn encode(&mut self, access: Access) -> BusState {
        (**self).encode(access)
    }

    fn encode_block(&mut self, accesses: &[Access], out: &mut Vec<BusState>) {
        (**self).encode_block(accesses, out)
    }

    fn count_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        stats: &mut TransitionStats,
    ) {
        (**self).count_block(accesses, prev, stats)
    }

    fn activity_block(
        &mut self,
        accesses: &[Access],
        prev: &mut BusState,
        activity: &mut LineActivity,
    ) {
        (**self).activity_block(accesses, prev, activity)
    }

    fn reset(&mut self) {
        (**self).reset()
    }
}

/// A stateful address-bus decoder.
///
/// The decoder sits inside the memory or I/O controller at the receiving end
/// of the bus and reconstructs the original address stream from the encoded
/// line values (plus the standard `SEL` signal carried in
/// [`Access::kind`][crate::Access], which multiplexed-bus codes consume).
///
/// # Errors
///
/// [`Decoder::decode`] reports [`CodecError::ProtocolViolation`] when the
/// observed lines cannot have been produced by a conforming encoder (for
/// example, an asserted `INC` line before any reference address has been
/// established). A decoder paired with the matching encoder of this crate
/// never returns an error.
pub trait Decoder {
    /// A short stable identifier matching the paired encoder's
    /// [`Encoder::name`].
    fn name(&self) -> &'static str;

    /// The payload width of the bus this decoder listens to.
    fn width(&self) -> BusWidth;

    /// Decodes one cycle's bus lines back into an address.
    ///
    /// `kind` carries the `SEL` control signal, which is part of the
    /// standard bus interface (it exists with or without encoding).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::ProtocolViolation`] if the lines are
    /// inconsistent with the code's protocol in the current state.
    fn decode(&mut self, word: BusState, kind: crate::AccessKind) -> Result<u64, CodecError>;

    /// Decodes a whole block of bus words, appending one address per word
    /// to `out`. `kinds` carries the per-cycle `SEL` values and must be at
    /// least as long as `words`; extra elements are ignored.
    ///
    /// Cycle-for-cycle equivalent to calling [`Decoder::decode`] once per
    /// word, with state carried across block boundaries. On the first
    /// protocol error decoding stops: `out` keeps the successfully decoded
    /// prefix (so the failing cycle's offset within the block is the
    /// number of addresses this call appended) and the decoder is left in
    /// the state the failing [`Decoder::decode`] call produced.
    ///
    /// # Errors
    ///
    /// Returns the first [`CodecError::ProtocolViolation`] encountered, as
    /// the per-word path would.
    fn decode_block(
        &mut self,
        words: &[BusState],
        kinds: &[crate::AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        out.reserve(words.len());
        for (&word, &kind) in words.iter().zip(kinds) {
            out.push(self.decode(word, kind)?);
        }
        Ok(())
    }

    /// Returns the decoder to its hardware-reset state.
    fn reset(&mut self);

    /// How many transmitted words this decoder has repaired in-flight
    /// since construction (forward error correction telemetry).
    ///
    /// Only correcting decoders — the
    /// [`Protected`][crate::codes::Protected] wrapper's SEC-DED kind,
    /// [`EccHardened`][crate::codes::EccHardened] — report a nonzero
    /// count; the default is 0. Supervisors use the delta across
    /// a decode call to observe faults that correction would otherwise
    /// hide from the error path.
    fn corrected_count(&self) -> u64 {
        0
    }
}

impl<D: Decoder + ?Sized> Decoder for Box<D> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn width(&self) -> BusWidth {
        (**self).width()
    }

    fn decode(&mut self, word: BusState, kind: crate::AccessKind) -> Result<u64, CodecError> {
        (**self).decode(word, kind)
    }

    fn decode_block(
        &mut self,
        words: &[BusState],
        kinds: &[crate::AccessKind],
        out: &mut Vec<u64>,
    ) -> Result<(), CodecError> {
        (**self).decode_block(words, kinds, out)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn corrected_count(&self) -> u64 {
        (**self).corrected_count()
    }
}

/// Construction parameters shared by every code.
///
/// Codes that do not use a stride (binary, bus-invert, Beach) simply ignore
/// it.
///
/// # Examples
///
/// ```
/// use buscode_core::{BusWidth, CodeParams, Stride};
///
/// let params = CodeParams::default(); // 32-bit bus, stride 4 (MIPS)
/// assert_eq!(params.width, BusWidth::MIPS);
/// assert_eq!(params.stride, Stride::WORD);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CodeParams {
    /// The payload bus width.
    pub width: BusWidth,
    /// The in-sequence increment used by sequential codes.
    pub stride: Stride,
}

impl CodeParams {
    /// Creates parameters from raw values.
    ///
    /// # Errors
    ///
    /// Returns an error if the width or stride is invalid (see
    /// [`BusWidth::new`] and [`Stride::new`]).
    pub fn new(width_bits: u32, stride: u64) -> Result<Self, CodecError> {
        let width = BusWidth::new(width_bits)?;
        let stride = Stride::new(stride, width)?;
        Ok(CodeParams { width, stride })
    }
}

/// Every bus code in this crate, as a value.
///
/// `CodeKind` lets experiment harnesses sweep codes uniformly through boxed
/// [`Encoder`] / [`Decoder`] pairs; see [`CodeKind::encoder`].
///
/// The first seven variants are the codes of the DATE'98 paper (Sections 2
/// and 3); the remainder are extensions from the follow-on literature the
/// paper seeds, kept here for ablation experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum CodeKind {
    /// Plain binary transmission (the paper's reference encoding).
    Binary,
    /// Binary-reflected Gray code, stride-aware (paper Section 1, refs 4-5).
    Gray,
    /// Bus-invert code of Stan and Burleson (paper Section 2.1).
    BusInvert,
    /// The asymptotic-zero-transition T0 code (paper Section 2.2).
    T0,
    /// The combined T0 + bus-invert code with `INC` and `INV` lines
    /// (paper Section 3.1).
    T0Bi,
    /// T0 gated by the `SEL` signal for multiplexed buses
    /// (paper Section 3.2).
    DualT0,
    /// The single-redundant-line `INCV` combination of dual T0 and
    /// bus-invert (paper Section 3.3) — the paper's best code for muxed buses.
    DualT0Bi,
    /// Extension: T0-XOR decorrelation (irredundant T0 variant).
    T0Xor,
    /// Extension: offset (difference) encoding.
    Offset,
    /// Extension: simplified working-zone encoding.
    WorkingZone,
    /// Extension: simplified self-trained Beach code (paper ref 7).
    Beach,
    /// Extension: adaptive self-organizing-list encoding.
    SelfOrganizing,
}

impl CodeKind {
    /// The codes evaluated in the paper, in table order.
    pub fn paper_codes() -> &'static [CodeKind] {
        &[
            CodeKind::Binary,
            CodeKind::Gray,
            CodeKind::BusInvert,
            CodeKind::T0,
            CodeKind::T0Bi,
            CodeKind::DualT0,
            CodeKind::DualT0Bi,
        ]
    }

    /// The extension codes implemented beyond the paper.
    pub fn extension_codes() -> &'static [CodeKind] {
        &[
            CodeKind::T0Xor,
            CodeKind::Offset,
            CodeKind::WorkingZone,
            CodeKind::Beach,
            CodeKind::SelfOrganizing,
        ]
    }

    /// All codes, paper codes first.
    pub fn all() -> Vec<CodeKind> {
        let mut v = Self::paper_codes().to_vec();
        v.extend_from_slice(Self::extension_codes());
        v
    }

    /// The short name used in reports; matches [`Encoder::name`].
    pub fn name(self) -> &'static str {
        match self {
            CodeKind::Binary => "binary",
            CodeKind::Gray => "gray",
            CodeKind::BusInvert => "bus-invert",
            CodeKind::T0 => "t0",
            CodeKind::T0Bi => "t0-bi",
            CodeKind::DualT0 => "dual-t0",
            CodeKind::DualT0Bi => "dual-t0-bi",
            CodeKind::T0Xor => "t0-xor",
            CodeKind::Offset => "offset",
            CodeKind::WorkingZone => "working-zone",
            CodeKind::Beach => "beach",
            CodeKind::SelfOrganizing => "self-org",
        }
    }

    /// Builds the encoder for this code: the codec of
    /// [`CodeKind::snapshot_encoder`] behind the plain [`Encoder`] bound.
    ///
    /// The Beach code is stream-trained; this factory returns an untrained
    /// (identity-mapped) instance — use
    /// [`BeachCode::train`][crate::codes::BeachCode::train] for a trained one.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn encoder(self, params: CodeParams) -> Result<Box<dyn Encoder>, CodecError> {
        Ok(self.snapshot_encoder(params)?)
    }

    /// Builds the decoder paired with [`CodeKind::encoder`].
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn decoder(self, params: CodeParams) -> Result<Box<dyn Decoder>, CodecError> {
        Ok(self.snapshot_decoder(params)?)
    }
}

impl core::fmt::Display for CodeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_codes_lead_all() {
        let all = CodeKind::all();
        assert_eq!(&all[..7], CodeKind::paper_codes());
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CodeKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CodeKind::all().len());
    }

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(32, 4).is_ok());
        assert!(CodeParams::new(0, 4).is_err());
        assert!(CodeParams::new(32, 3).is_err());
    }
}
