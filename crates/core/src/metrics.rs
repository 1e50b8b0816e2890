//! Transition counting and round-trip evaluation of bus codes.
//!
//! The paper's figure of merit is the number of bus-line transitions needed
//! to transmit an address stream — a direct proxy for I/O power since
//! `P = 0.5 * C * Vdd^2 * f * E(transitions)` for a line of capacitance
//! `C`. These helpers run an encoder over a stream, count transitions over
//! *all* lines (payload plus redundant), and optionally verify the paired
//! decoder reproduces the stream exactly.

use crate::bus::{Access, BusState};
use crate::error::CodecError;
use crate::traits::{Decoder, Encoder};

/// Transition statistics of one encoder over one stream.
///
/// Counting starts from the hardware-reset bus state (all lines low), the
/// same state encoders initialize their internal reference to, so the
/// per-cycle bound invariants of bounded codes (for example bus-invert)
/// hold exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransitionStats {
    /// Number of bus cycles (stream length).
    pub cycles: u64,
    /// Transitions observed on the payload lines.
    pub payload_transitions: u64,
    /// Transitions observed on the redundant lines.
    pub aux_transitions: u64,
}

impl TransitionStats {
    /// Total transitions over all lines.
    #[inline]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.payload_transitions + self.aux_transitions
    }

    /// Average transitions per clock cycle (the paper's Table 1 metric).
    ///
    /// Returns 0 for an empty stream.
    #[must_use]
    pub fn per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.total() as f64 / self.cycles as f64
        }
    }

    /// Percentage of transitions saved relative to `reference`
    /// (the paper's "Savings" columns, reference = binary).
    ///
    /// Returns 0 when the reference saw no transitions.
    #[must_use]
    pub fn savings_vs(&self, reference: &TransitionStats) -> f64 {
        if reference.total() == 0 {
            0.0
        } else {
            100.0 * (1.0 - self.total() as f64 / reference.total() as f64)
        }
    }

    fn record(&mut self, word: BusState, prev: BusState) {
        self.cycles += 1;
        self.payload_transitions += u64::from((word.payload ^ prev.payload).count_ones());
        self.aux_transitions += u64::from((word.aux ^ prev.aux).count_ones());
    }

    /// Accumulates the transitions of a whole block of bus words in one
    /// packed pass: each cycle is a u64 XOR against the previous word plus
    /// a `count_ones`, with no per-word dispatch.
    ///
    /// `prev` is the last word before the block (the hardware-reset state
    /// for the first block) and is left at the block's final word, so
    /// consecutive blocks chain exactly like the per-word path.
    pub fn accumulate_block(&mut self, words: &[BusState], prev: &mut BusState) {
        let mut last = *prev;
        let mut payload = 0u64;
        let mut aux = 0u64;
        for &word in words {
            payload += u64::from((word.payload ^ last.payload).count_ones());
            aux += u64::from((word.aux ^ last.aux).count_ones());
            last = word;
        }
        self.cycles += words.len() as u64;
        self.payload_transitions += payload;
        self.aux_transitions += aux;
        *prev = last;
    }

    /// [`TransitionStats::accumulate_block`] for the words of an encoder
    /// driving `width` payload lines and `aux_lines` redundant lines. With
    /// at most 32 of each, the payload and the aux lines are each counted
    /// by one pass of the packed carry-save kernel (see `crate::kernels`);
    /// an encoder drives no line beyond those, so the kernel's masks drop
    /// nothing. Wider buses take [`TransitionStats::accumulate_block`].
    pub(crate) fn accumulate_lines(
        &mut self,
        words: &[BusState],
        prev: &mut BusState,
        width: crate::BusWidth,
        aux_lines: u32,
    ) {
        let Some(&last) = words.last() else {
            return;
        };
        if width.bits() > 32 || aux_lines > 32 {
            return self.accumulate_block(words, prev);
        }
        let (payload, _) = crate::kernels::packed_diff_transitions(
            words,
            |w| w.payload,
            width.mask(),
            0,
            prev.payload,
        );
        // With no aux lines every word's are low: only what `prev` held
        // falls, on the first cycle.
        let aux = if aux_lines == 0 {
            u64::from(prev.aux.count_ones())
        } else {
            let all = u64::from(u32::MAX);
            crate::kernels::packed_diff_transitions(words, |w| w.aux, all, 0, prev.aux).0
        };
        self.cycles += words.len() as u64;
        self.payload_transitions += payload;
        self.aux_transitions += aux;
        *prev = last;
    }
}

impl core::fmt::Display for TransitionStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} transitions over {} cycles ({:.3}/cycle)",
            self.total(),
            self.cycles,
            self.per_cycle()
        )
    }
}

/// Runs `encoder` over `stream` and counts line transitions.
///
/// The encoder is **not** reset first; callers sweeping several streams
/// through one encoder should call [`Encoder::reset`] between streams.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::T0Encoder;
/// use buscode_core::metrics::count_transitions;
/// use buscode_core::{Access, BusWidth, Stride};
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD)?;
/// let run = (0..100u64).map(|i| Access::instruction(0x100 + 4 * i));
/// let stats = count_transitions(&mut enc, run);
/// assert!(stats.per_cycle() < 0.2); // near-zero on a consecutive run
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn count_transitions<I>(encoder: &mut dyn Encoder, stream: I) -> TransitionStats
where
    I: IntoIterator<Item = Access>,
{
    // Chunk the stream through the block path: one virtual dispatch and
    // one packed encode-XOR-popcount kernel per block instead of per
    // cycle (see [`Encoder::count_block`]).
    let mut stats = TransitionStats::default();
    let mut prev = BusState::reset();
    let mut accesses: Vec<Access> = Vec::with_capacity(METRICS_BLOCK);
    let mut stream = stream.into_iter();
    loop {
        accesses.clear();
        accesses.extend(stream.by_ref().take(METRICS_BLOCK));
        if accesses.is_empty() {
            return stats;
        }
        encoder.count_block(&accesses, &mut prev, &mut stats);
    }
}

/// Block size used when chunking iterator streams through the block API:
/// large enough to amortize dispatch, small enough that the access and
/// bus-word buffers stay cache-resident.
const METRICS_BLOCK: usize = 8 * 1024;

/// Slice fast path of [`count_transitions`]: the accesses are already in
/// memory, so sub-slices feed [`Encoder::count_block`] directly with no
/// staging buffer. This is the fastest way to count transitions of a
/// buffered stream — for the codes with packed `count_block` kernels
/// (binary, Gray) it runs at the kernel's full rate.
///
/// Semantically identical to `count_transitions(encoder,
/// accesses.iter().copied())`.
#[must_use]
pub fn count_transitions_slice(encoder: &mut dyn Encoder, accesses: &[Access]) -> TransitionStats {
    let mut stats = TransitionStats::default();
    let mut prev = BusState::reset();
    // Still chunked, so codes relying on the default buffering
    // `count_block` keep their scratch allocation bounded.
    for block in accesses.chunks(METRICS_BLOCK) {
        encoder.count_block(block, &mut prev, &mut stats);
    }
    stats
}

/// The original cycle-at-a-time transition counter: one virtual
/// [`Encoder::encode`] call and one stats update per bus cycle.
///
/// Semantically identical to [`count_transitions`]; kept as the reference
/// for equivalence tests and as the baseline the engine throughput
/// harness measures the block kernels against.
#[doc(hidden)]
pub fn count_transitions_per_word<I>(encoder: &mut dyn Encoder, stream: I) -> TransitionStats
where
    I: IntoIterator<Item = Access>,
{
    let mut stats = TransitionStats::default();
    let mut prev = BusState::reset();
    for access in stream {
        let word = encoder.encode(access);
        stats.record(word, prev);
        prev = word;
    }
    stats
}

/// Runs `encoder` and `decoder` back to back over `stream`, counting
/// transitions and verifying the decoded address matches at every cycle.
///
/// # Errors
///
/// Returns [`CodecError::RoundTripMismatch`] at the first differing cycle,
/// or any protocol error the decoder reports.
pub fn verify_round_trip<I>(
    encoder: &mut dyn Encoder,
    decoder: &mut dyn Decoder,
    stream: I,
) -> Result<TransitionStats, CodecError>
where
    I: IntoIterator<Item = Access>,
{
    let width_mask = encoder.width().mask();
    let mut stats = TransitionStats::default();
    let mut prev = BusState::reset();
    let mut accesses: Vec<Access> = Vec::with_capacity(METRICS_BLOCK);
    let mut kinds = Vec::with_capacity(METRICS_BLOCK);
    let mut words: Vec<BusState> = Vec::with_capacity(METRICS_BLOCK);
    let mut decoded: Vec<u64> = Vec::with_capacity(METRICS_BLOCK);
    let mut stream = stream.into_iter();
    let mut base = 0u64;
    loop {
        accesses.clear();
        accesses.extend(stream.by_ref().take(METRICS_BLOCK));
        if accesses.is_empty() {
            return Ok(stats);
        }
        kinds.clear();
        kinds.extend(accesses.iter().map(|a| a.kind));
        words.clear();
        encoder.encode_block(&accesses, &mut words);
        decoded.clear();
        let decode_result = decoder.decode_block(&words, &kinds, &mut decoded);
        // Check the decoded prefix first: a mismatch earlier in the block
        // outranks a protocol error later in it, exactly as the per-word
        // path would report them.
        for (i, (&got, access)) in decoded.iter().zip(&accesses).enumerate() {
            let expected = access.address & width_mask;
            if got != expected {
                return Err(CodecError::RoundTripMismatch {
                    cycle: base + i as u64,
                    expected,
                    decoded: got,
                });
            }
        }
        decode_result?;
        stats.accumulate_block(&words, &mut prev);
        base += accesses.len() as u64;
    }
}

/// Per-line switching activity of an encoder over a stream.
///
/// Bus lines are physically different wires: the low-order lines of a
/// sequential stream toggle constantly while the high-order lines are
/// almost static. Per-line activities drive non-uniform capacitance
/// models (outer pad rows, longer routes) and expose *where* a code's
/// savings land.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LineActivity {
    /// Transition count per payload line, LSB-first.
    pub payload: Vec<u64>,
    /// Transition count per redundant line, LSB-first.
    pub aux: Vec<u64>,
    /// Number of cycles observed.
    pub cycles: u64,
}

impl LineActivity {
    /// Creates a zeroed activity record shaped for `encoder`: one payload
    /// counter per bus line and one aux counter per redundant line.
    #[must_use]
    pub fn for_encoder(encoder: &dyn Encoder) -> LineActivity {
        LineActivity {
            payload: vec![0; encoder.width().bits() as usize],
            aux: vec![0; encoder.aux_line_count() as usize],
            cycles: 0,
        }
    }

    /// Accumulates the per-line transitions of a whole block of bus words.
    ///
    /// With 1 to 32 payload counters, the payload lines run through the
    /// positional carry-save kernel that binary and Gray use on addresses
    /// (see `crate::kernels`): two diffs pack into one `u64`, and the
    /// per-line counts are read off the bit-planes once per block. The aux
    /// lines (0–2 on a bare code), and the payload lines of a wider
    /// record, take a sparse walk: each cycle XORs against the previous
    /// word and visits only the set bits.
    ///
    /// `prev` is the last word before the block ([`BusState::reset`] at
    /// stream start) and is left at the block's final word. Flips on lines
    /// beyond the `payload`/`aux` vector lengths are ignored.
    pub fn accumulate_block(&mut self, words: &[BusState], prev: &mut BusState) {
        let Some(&last) = words.last() else {
            return;
        };
        let lines = self.payload.len();
        if (1..=32).contains(&lines) {
            let mut counts = [0u64; 32];
            crate::kernels::packed_line_transitions(
                words,
                |w| w.payload,
                (1u64 << lines) - 1,
                0,
                prev.payload,
                &mut counts,
            );
            for (slot, &c) in self.payload.iter_mut().zip(counts.iter()) {
                *slot += c;
            }
        } else {
            walk_flips(
                words.iter().map(|w| w.payload),
                prev.payload,
                &mut self.payload,
            );
        }
        walk_flips(words.iter().map(|w| w.aux), prev.aux, &mut self.aux);
        self.cycles += words.len() as u64;
        *prev = last;
    }

    /// Per-payload-line activity in transitions per cycle.
    #[must_use]
    pub fn payload_activity(&self) -> Vec<f64> {
        self.payload
            .iter()
            .map(|&t| {
                if self.cycles == 0 {
                    0.0
                } else {
                    t as f64 / self.cycles as f64
                }
            })
            .collect()
    }

    /// Total transitions over all lines.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.payload.iter().chain(&self.aux).sum()
    }
}

/// Adds one to `counts[i]` for every cycle in which line `i` of `values`
/// flips, starting from `last`. Most cycles flip a handful of lines, so
/// visiting only the set bits of each XOR beats scanning every line.
/// Flips on lines at or beyond `counts.len()` are ignored.
fn walk_flips(values: impl Iterator<Item = u64>, mut last: u64, counts: &mut [u64]) {
    if counts.is_empty() {
        return;
    }
    for value in values {
        let mut flips = value ^ last;
        while flips != 0 {
            if let Some(slot) = counts.get_mut(flips.trailing_zeros() as usize) {
                *slot += 1;
            }
            flips &= flips - 1;
        }
        last = value;
    }
}

/// Measures per-line transition counts of `encoder` over `stream`.
///
/// # Examples
///
/// ```
/// use buscode_core::codes::BinaryEncoder;
/// use buscode_core::metrics::line_activity;
/// use buscode_core::{Access, BusWidth};
///
/// let mut enc = BinaryEncoder::new(BusWidth::MIPS);
/// let stream = (0..256u64).map(Access::instruction);
/// let lines = line_activity(&mut enc, stream);
/// let act = lines.payload_activity();
/// assert!(act[0] > act[7]); // low-order lines toggle more while counting
/// ```
#[must_use]
pub fn line_activity<I>(encoder: &mut dyn Encoder, stream: I) -> LineActivity
where
    I: IntoIterator<Item = Access>,
{
    let mut activity = LineActivity::for_encoder(encoder);
    let mut prev = BusState::reset();
    let mut accesses: Vec<Access> = Vec::with_capacity(METRICS_BLOCK);
    let mut stream = stream.into_iter();
    loop {
        accesses.clear();
        accesses.extend(stream.by_ref().take(METRICS_BLOCK));
        if accesses.is_empty() {
            return activity;
        }
        encoder.activity_block(&accesses, &mut prev, &mut activity);
    }
}

/// Slice fast path of [`line_activity`]: sub-slices feed
/// [`Encoder::activity_block`] directly with no staging buffer — for the
/// codes with packed positional kernels (binary, Gray) this computes the
/// full per-line profile at nearly the total-count kernel's rate.
///
/// Semantically identical to `line_activity(encoder,
/// accesses.iter().copied())`.
#[must_use]
pub fn line_activity_slice(encoder: &mut dyn Encoder, accesses: &[Access]) -> LineActivity {
    let mut activity = LineActivity::for_encoder(encoder);
    let mut prev = BusState::reset();
    for block in accesses.chunks(METRICS_BLOCK) {
        encoder.activity_block(block, &mut prev, &mut activity);
    }
    activity
}

/// The original cycle-at-a-time line-activity profiler: one virtual
/// [`Encoder::encode`] call per bus cycle, then a dense scan of every
/// line's flip bit.
///
/// Semantically identical to [`line_activity`]; kept as the reference for
/// equivalence tests and as the baseline the engine throughput harness
/// measures the positional block kernels against.
#[doc(hidden)]
pub fn line_activity_per_word<I>(encoder: &mut dyn Encoder, stream: I) -> LineActivity
where
    I: IntoIterator<Item = Access>,
{
    let mut activity = LineActivity::for_encoder(encoder);
    let mut prev = BusState::reset();
    for access in stream {
        let word = encoder.encode(access);
        let payload_flips = word.payload ^ prev.payload;
        let aux_flips = word.aux ^ prev.aux;
        for (i, slot) in activity.payload.iter_mut().enumerate() {
            *slot += (payload_flips >> i) & 1;
        }
        for (i, slot) in activity.aux.iter_mut().enumerate() {
            *slot += (aux_flips >> i) & 1;
        }
        activity.cycles += 1;
        prev = word;
    }
    activity
}

/// Convenience: the binary (reference) transition count of a stream.
///
/// Every "Savings" column of the paper's tables is computed against this.
#[must_use]
pub fn binary_reference<I>(width: crate::BusWidth, stream: I) -> TransitionStats
where
    I: IntoIterator<Item = Access>,
{
    let mut enc = crate::codes::BinaryEncoder::new(width);
    count_transitions(&mut enc, stream)
}

/// One row of a paper-style comparison: a code's transitions and its
/// savings against binary on the same stream.
#[derive(Clone, Debug, PartialEq)]
pub struct CodeReport {
    /// The code's short name.
    pub code: &'static str,
    /// The code's transition statistics.
    pub stats: TransitionStats,
    /// Percent savings versus binary on the same stream.
    pub savings_percent: f64,
}

/// Evaluates several codes on one stream against the binary reference.
///
/// Encoders are reset before evaluation. The stream is buffered internally
/// so it can be replayed per code.
#[must_use]
pub fn compare_codes(encoders: &mut [Box<dyn Encoder>], stream: &[Access]) -> Vec<CodeReport> {
    let reference = if let Some(first) = encoders.first() {
        binary_reference(first.width(), stream.iter().copied())
    } else {
        TransitionStats::default()
    };
    encoders
        .iter_mut()
        .map(|enc| {
            enc.reset();
            let stats = count_transitions(enc.as_mut(), stream.iter().copied());
            CodeReport {
                code: enc.name(),
                stats,
                savings_percent: stats.savings_vs(&reference),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::{BinaryEncoder, T0Decoder, T0Encoder};
    use crate::{BusWidth, Stride};

    fn seq_stream(n: u64) -> Vec<Access> {
        (0..n)
            .map(|i| Access::instruction(0x1000 + 4 * i))
            .collect()
    }

    #[test]
    fn empty_stream_yields_zero_stats() {
        let mut enc = BinaryEncoder::new(BusWidth::MIPS);
        let stats = count_transitions(&mut enc, std::iter::empty());
        assert_eq!(stats, TransitionStats::default());
        assert_eq!(stats.per_cycle(), 0.0);
    }

    #[test]
    fn counting_includes_first_word_from_reset() {
        let mut enc = BinaryEncoder::new(BusWidth::MIPS);
        let stats = count_transitions(&mut enc, [Access::instruction(0b111)]);
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.cycles, 1);
    }

    #[test]
    fn aux_and_payload_counted_separately() {
        let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let stats = count_transitions(&mut enc, seq_stream(100));
        // After the first word, the whole run is frozen: only the initial
        // payload drive and one INC assertion.
        assert_eq!(stats.aux_transitions, 1);
        assert_eq!(stats.payload_transitions, 0x1000u64.count_ones() as u64);
    }

    #[test]
    fn round_trip_passes_for_matched_pair() {
        let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let mut dec = T0Decoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let stats = verify_round_trip(&mut enc, &mut dec, seq_stream(500)).unwrap();
        assert_eq!(stats.cycles, 500);
    }

    #[test]
    fn round_trip_detects_mismatched_stride() {
        let w = BusWidth::MIPS;
        let mut enc = T0Encoder::new(w, Stride::WORD).unwrap();
        let mut dec = T0Decoder::new(w, Stride::new(8, w).unwrap()).unwrap();
        let err = verify_round_trip(&mut enc, &mut dec, seq_stream(10)).unwrap_err();
        assert!(matches!(err, CodecError::RoundTripMismatch { .. }));
    }

    #[test]
    fn savings_formula() {
        let reference = TransitionStats {
            cycles: 10,
            payload_transitions: 100,
            aux_transitions: 0,
        };
        let coded = TransitionStats {
            cycles: 10,
            payload_transitions: 60,
            aux_transitions: 5,
        };
        assert!((coded.savings_vs(&reference) - 35.0).abs() < 1e-9);
        assert_eq!(coded.savings_vs(&TransitionStats::default()), 0.0);
    }

    #[test]
    fn compare_codes_reports_against_binary() {
        use crate::{CodeKind, CodeParams};
        let params = CodeParams::default();
        let mut encoders: Vec<Box<dyn Encoder>> = vec![
            CodeKind::Binary.encoder(params).unwrap(),
            CodeKind::T0.encoder(params).unwrap(),
        ];
        let stream = seq_stream(1000);
        let reports = compare_codes(&mut encoders, &stream);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].savings_percent.abs() < 1e-9); // binary vs itself
        assert!(reports[1].savings_percent > 90.0); // T0 on a pure run
    }

    #[test]
    fn line_activity_totals_match_stream_stats() {
        let mut enc = T0Encoder::new(BusWidth::MIPS, Stride::WORD).unwrap();
        let lines = line_activity(&mut enc, seq_stream(500));
        enc.reset();
        let stats = count_transitions(&mut enc, seq_stream(500));
        assert_eq!(lines.total(), stats.total());
        assert_eq!(lines.cycles, stats.cycles);
        assert_eq!(lines.aux.len(), 1);
    }

    #[test]
    fn line_activity_shape_on_counting_stream() {
        let mut enc = BinaryEncoder::new(BusWidth::new(8).unwrap());
        let stream: Vec<Access> = (0..256u64).map(Access::data).collect();
        let lines = line_activity(&mut enc, stream);
        // A counter from 0 to 255: line i toggles floor(255 / 2^i) times
        // (the first word leaves the reset state without any flips).
        for i in 0..8usize {
            assert_eq!(lines.payload[i], 255 >> i, "line {i}");
        }
    }

    #[test]
    fn line_activity_empty_stream() {
        let mut enc = BinaryEncoder::new(BusWidth::MIPS);
        let lines = line_activity(&mut enc, std::iter::empty());
        assert_eq!(lines.total(), 0);
        assert!(lines.payload_activity().iter().all(|&a| a == 0.0));
    }

    #[test]
    fn display_is_informative() {
        let stats = TransitionStats {
            cycles: 2,
            payload_transitions: 3,
            aux_transitions: 1,
        };
        let s = stats.to_string();
        assert!(s.contains('4') && s.contains('2'));
    }
}
