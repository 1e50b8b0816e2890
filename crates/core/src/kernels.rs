//! Packed popcount kernels behind every code's transition totals and
//! per-line activity.
//!
//! Transition counting reduces to "popcount the XOR of consecutive bus
//! words". Each kernel takes the line value it diffs as a closure over
//! its input elements, and serves two kinds of caller:
//!
//! * **addresses**, for the XOR-linear codes (binary, Gray), whose
//!   [`Encoder::count_block`] and [`Encoder::activity_block`] overrides
//!   fold the encoding into the diff and never materialize a bus word;
//! * **bus words**, for every other code on a bus of at most 32 lines:
//!   the default [`Encoder::count_block`] encodes a block and counts its
//!   payload lines and its aux lines with one total-count pass each, and
//!   the default [`Encoder::activity_block`] hands the block to
//!   [`LineActivity::accumulate_block`], which runs the payload lines
//!   through the positional kernel.
//!
//! [`Encoder::count_block`]: crate::Encoder::count_block
//! [`Encoder::activity_block`]: crate::Encoder::activity_block
//! [`LineActivity::accumulate_block`]: crate::metrics::LineActivity::accumulate_block
//!
//! Two structural facts let the kernels go far beyond a word-at-a-time
//! loop:
//!
//! 1. **Packing.** For buses up to 32 lines wide, the XOR diff of two
//!    consecutive words fits in 32 bits, so two diffs pack into one `u64`
//!    and a single `count_ones` covers two bus cycles.
//! 2. **Carry-save accumulation (Harley–Seal).** A tree of carry-save
//!    adders compresses 32 packed words into running `ones`/`twos`/
//!    `fours`/`eights`/`sixteens` bit-planes plus one weight-32 output,
//!    so only one `count_ones` is paid per 32 packed words (64 bus
//!    cycles); the bit-planes are popcounted once at the end with their
//!    weights.
//!
//! On the baseline `x86-64` target (no native `popcnt`), where
//! `count_ones` compiles to a ~12-op bit-twiddling sequence, this is
//! worth ~4-5x over the per-word path. Everything here is safe scalar
//! Rust; no SIMD intrinsics or feature detection.
//!
//! Two measured codegen lessons shaped the implementation:
//!
//! * Packed diffs are fed **straight into the carry-save tree** as they
//!   are formed. An earlier version staged them through a `[u64; 32]`
//!   buffer; the store/reload round-trip cost ~2 extra ops per pair.
//!   Within a 64-word block the pairs are addressed with *constant*
//!   indices (via `pk!`), which LLVM proves in-bounds against the
//!   `chunks_exact(64)` slice — run-time index arithmetic here left
//!   bounds checks in the hot loop and cost ~25% of the kernel's
//!   throughput.
//! * The mask/Gray variants are specialized with const generics so the
//!   plain-binary path does not pay the 3-op Gray transform just to XOR
//!   with a zero mask at run time.

/// One carry-save adder step: compresses three addends of equal weight
/// into a same-weight sum and a double-weight carry.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (u ^ c, (a & b) | (u & c))
}

/// The carry-save bit-planes threaded across 64-word blocks.
///
/// Because a carry-save adder works each bit lane independently, bit `i`
/// of `ones`/`twos`/`fours`/`eights`/`sixteens` is the partial count (in
/// carry-save binary, mod 32) of set diff bits *at position `i`* — the
/// planes are positional, which is what lets one kernel serve both the
/// total count and the per-line activity profile.
#[derive(Default)]
struct Planes {
    ones: u64,
    twos: u64,
    fours: u64,
    eights: u64,
    sixteens: u64,
}

impl Planes {
    /// Folds the bit-planes into a total transition count.
    #[inline(always)]
    fn total(&self) -> u64 {
        16 * u64::from(self.sixteens.count_ones())
            + 8 * u64::from(self.eights.count_ones())
            + 4 * u64::from(self.fours.count_ones())
            + 2 * u64::from(self.twos.count_ones())
            + u64::from(self.ones.count_ones())
    }

    /// Folds the bit-planes into per-position counts. Positions `i` and
    /// `i + 32` of a packed word carry the same bus line, so both halves
    /// fold onto line `i & 31`.
    fn fold_lines(&self, counts: &mut [u64; 32]) {
        for i in 0..64 {
            let u = (self.ones >> i & 1)
                + 2 * (self.twos >> i & 1)
                + 4 * (self.fours >> i & 1)
                + 8 * (self.eights >> i & 1)
                + 16 * (self.sixteens >> i & 1);
            counts[i & 31] += u;
        }
    }
}

/// Consumer of the weight-32 carry words the tree emits once per
/// 64-word block — the only point where positional information would
/// otherwise be lost.
trait Sink32 {
    fn push32(&mut self, s32: u64);
}

/// Total-count sink: a weight-32 carry contributes 32 transitions per
/// set bit, position-blind.
#[derive(Default)]
struct TotalSink {
    count32: u64,
}

impl Sink32 for TotalSink {
    #[inline(always)]
    fn push32(&mut self, s32: u64) {
        self.count32 += u64::from(s32.count_ones());
    }
}

/// Positional sink: accumulates weight-32 carry words into a second
/// level of carry-save planes (each unit worth 32 transitions) and
/// harvests them into per-line counters before they can overflow —
/// every 31 pushes, i.e. every 1984 words. Amortized cost is well
/// under one op per word.
#[derive(Default)]
struct PosSink {
    planes: Planes,
    pushed: u32,
    /// Per-position units of weight 32, folded to `i & 31` lines.
    units: [u64; 32],
}

impl PosSink {
    fn harvest(&mut self) {
        self.planes.fold_lines(&mut self.units);
        self.planes = Planes::default();
        self.pushed = 0;
    }
}

impl Sink32 for PosSink {
    #[inline(always)]
    fn push32(&mut self, s32: u64) {
        if self.pushed == 31 {
            self.harvest();
        }
        // Ripple-add one word into the five planes; with at most 31
        // units per position the carry dies inside `sixteens`.
        let mut carry = s32;
        let c = self.planes.ones & carry;
        self.planes.ones ^= carry;
        carry = c;
        let c = self.planes.twos & carry;
        self.planes.twos ^= carry;
        carry = c;
        let c = self.planes.fours & carry;
        self.planes.fours ^= carry;
        carry = c;
        let c = self.planes.eights & carry;
        self.planes.eights ^= carry;
        carry = c;
        let c = self.planes.sixteens & carry;
        self.planes.sixteens ^= carry;
        debug_assert_eq!(c, 0);
        self.pushed += 1;
    }
}

/// Packs and accumulates one 64-word block. `blk` must be exactly 64
/// words (a `chunks_exact(64)` slice), and `line` reads the value diffed
/// from each. Returns the raw (unmasked) line value of the last word, to
/// seed the next block.
///
/// `FULL` marks a full 32-bit bus mask, where `<< 32` self-masks the
/// high diff; `GRAY` enables the XOR-shift Gray transform on packed
/// diffs.
#[inline(always)]
fn block64<const FULL: bool, const GRAY: bool, S: Sink32, W, L: Fn(&W) -> u64 + Copy>(
    blk: &[W],
    line: L,
    mask: u64,
    gxm2: u64,
    prev_in: u64,
    pl: &mut Planes,
    sink: &mut S,
) -> u64 {
    let mut prev = prev_in;
    let mut ones = pl.ones;
    let mut twos = pl.twos;
    let mut fours = pl.fours;
    let mut eights = pl.eights;
    // Packs diff pair `j` (words 2j and 2j+1). `$j` is always a
    // constant expression, so the indexing folds to check-free loads.
    macro_rules! pk {
        ($j:expr) => {{
            let r0 = line(&blk[2 * ($j)]);
            let r1 = line(&blk[2 * ($j) + 1]);
            let hi = if FULL {
                (r1 ^ r0) << 32
            } else {
                ((r1 ^ r0) & mask) << 32
            };
            let mut d = ((r0 ^ prev) & mask) | hi;
            if GRAY {
                d ^= (d >> 1) & gxm2;
            }
            prev = r1;
            d
        }};
    }
    // Compresses packed pairs `$b .. $b + 16` into the running planes
    // and one weight-16 carry word.
    macro_rules! tree16 {
        ($b:expr) => {{
            let (o, t1) = csa(ones, pk!($b), pk!($b + 1));
            let (o, t2) = csa(o, pk!($b + 2), pk!($b + 3));
            let (t2s, f1) = csa(twos, t1, t2);
            let (o, t1) = csa(o, pk!($b + 4), pk!($b + 5));
            let (o, t2) = csa(o, pk!($b + 6), pk!($b + 7));
            let (t2s, f2) = csa(t2s, t1, t2);
            let (f, e1) = csa(fours, f1, f2);
            let (o, t1) = csa(o, pk!($b + 8), pk!($b + 9));
            let (o, t2) = csa(o, pk!($b + 10), pk!($b + 11));
            let (t2s, f1) = csa(t2s, t1, t2);
            let (o, t1) = csa(o, pk!($b + 12), pk!($b + 13));
            let (o, t2) = csa(o, pk!($b + 14), pk!($b + 15));
            let (t2s, f2) = csa(t2s, t1, t2);
            let (f, e2) = csa(f, f1, f2);
            let (e, s16) = csa(eights, e1, e2);
            ones = o;
            twos = t2s;
            fours = f;
            eights = e;
            s16
        }};
    }
    let lo16 = tree16!(0);
    let hi16 = tree16!(16);
    let (s16, s32) = csa(pl.sixteens, lo16, hi16);
    pl.ones = ones;
    pl.twos = twos;
    pl.fours = fours;
    pl.eights = eights;
    pl.sixteens = s16;
    sink.push32(s32);
    prev
}

/// Drives [`block64`] over the exact-64 chunks of `words`, dispatching
/// once on the mask/Gray shape, and returns the `chunks_exact` iterator
/// (for its remainder) and the raw last line value.
#[inline(always)]
fn run_blocks<'a, S: Sink32, W, L: Fn(&W) -> u64 + Copy>(
    words: &'a [W],
    line: L,
    mask: u64,
    gxm: u64,
    start: u64,
    pl: &mut Planes,
    sink: &mut S,
) -> (core::slice::ChunksExact<'a, W>, u64) {
    let gxm2 = gxm | (gxm << 32);
    let mut last = start;
    let mut chunks = words.chunks_exact(64);
    match (mask == u64::from(u32::MAX), gxm != 0) {
        (true, false) => {
            for blk in &mut chunks {
                last = block64::<true, false, S, W, L>(blk, line, mask, gxm2, last, pl, sink);
            }
        }
        (true, true) => {
            for blk in &mut chunks {
                last = block64::<true, true, S, W, L>(blk, line, mask, gxm2, last, pl, sink);
            }
        }
        (false, false) => {
            for blk in &mut chunks {
                last = block64::<false, false, S, W, L>(blk, line, mask, gxm2, last, pl, sink);
            }
        }
        (false, true) => {
            for blk in &mut chunks {
                last = block64::<false, true, S, W, L>(blk, line, mask, gxm2, last, pl, sink);
            }
        }
    }
    (chunks, last)
}

/// Counts the transitions of the masked lines of a stream under an
/// XOR-linear encoding, for bus widths of at most 32 lines. `line` reads
/// the value diffed from each element of `words`: an access's address,
/// or a bus word's payload or aux lines.
///
/// The encoding is described by `gxm`, the *Gray xor-shift mask*: the
/// encoded bus word of a masked value `x` is `x ^ ((x >> 1) & gxm)`.
/// `gxm = 0` is plain binary — and the only choice when `line` reads
/// bus words; `(mask >> 1) & !low_mask` is the stride-aware Gray
/// code (each bit above the stride boundary absorbs its next-higher
/// neighbour, which is exactly `g ^ (g >> 1)` on the high field).
/// Because the transform is XOR-linear, it commutes with the diff:
/// `enc(a) ^ enc(b) = enc(a ^ b)`, so it is applied to packed diffs
/// rather than to each word.
///
/// `start` is the *binary-domain* value of the previous word (the
/// all-low reset state for a fresh stream); only its masked lines count.
/// Returns the transition count and the masked binary-domain value of the
/// last word, for chaining across blocks.
#[inline(always)]
pub(crate) fn packed_diff_transitions<W>(
    words: &[W],
    line: impl Fn(&W) -> u64 + Copy,
    mask: u64,
    gxm: u64,
    start: u64,
) -> (u64, u64) {
    debug_assert!(mask <= u64::from(u32::MAX));
    debug_assert!(gxm & !(mask >> 1) == 0);
    let mut pl = Planes::default();
    let mut sink = TotalSink::default();
    // `last` stays raw (unmasked) between blocks — every diff re-masks
    // after the XOR, so one final mask at the end suffices.
    let (chunks, mut last) = run_blocks(words, line, mask, gxm, start, &mut pl, &mut sink);
    let mut total = 32 * sink.count32 + pl.total();
    for w in chunks.remainder() {
        let d = (line(w) ^ last) & mask;
        total += u64::from((d ^ ((d >> 1) & gxm)).count_ones());
        last = line(w);
    }
    (total, last & mask)
}

/// Per-line variant of [`packed_diff_transitions`]: same packed
/// carry-save pass, but the planes are harvested positionally, so
/// `counts[i]` receives the exact transition count of bus line `i`
/// (lines at and above the bus width stay untouched — their diff bits
/// are masked off). Returns the masked binary-domain last word.
///
/// Runs within a few percent of the total-count kernel: the only extra
/// work is one five-step ripple add per 64 words plus two cold harvests
/// per 1984.
pub(crate) fn packed_line_transitions<W>(
    words: &[W],
    line: impl Fn(&W) -> u64 + Copy,
    mask: u64,
    gxm: u64,
    start: u64,
    counts: &mut [u64; 32],
) -> u64 {
    debug_assert!(mask <= u64::from(u32::MAX));
    debug_assert!(gxm & !(mask >> 1) == 0);
    let mut pl = Planes::default();
    let mut sink = PosSink::default();
    let (chunks, mut last) = run_blocks(words, line, mask, gxm, start, &mut pl, &mut sink);
    sink.harvest();
    for (c, &u) in counts.iter_mut().zip(sink.units.iter()) {
        *c += 32 * u;
    }
    pl.fold_lines(counts);
    for w in chunks.remainder() {
        let d = (line(w) ^ last) & mask;
        let mut flips = d ^ ((d >> 1) & gxm);
        while flips != 0 {
            counts[flips.trailing_zeros() as usize] += 1;
            flips &= flips - 1;
        }
        last = line(w);
    }
    last & mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Access;
    use crate::rng::Rng64;

    #[test]
    fn packed_diffs_match_scalar_loop_at_all_lengths() {
        let mut rng = Rng64::seed_from_u64(11);
        for (mask, gxm) in [
            (0xffff_ffffu64, 0u64),
            (0xffff_ffff, 0x3fff_fffc),
            (0xffff, 0),
            (0xffff, 0x3ffc),
            (0xf, 0x6),
        ] {
            let accesses: Vec<Access> = (0..193).map(|_| Access::data(rng.gen())).collect();
            for len in [0usize, 1, 31, 32, 63, 64, 65, 128, 193] {
                let s = &accesses[..len];
                let (total, last) =
                    packed_diff_transitions(s, |a: &Access| a.address, mask, gxm, 0);
                let mut expect = 0u64;
                let mut prev = 0u64;
                for a in s {
                    let w = a.address & mask;
                    let d = w ^ prev;
                    expect += u64::from((d ^ ((d >> 1) & gxm)).count_ones());
                    prev = w;
                }
                assert_eq!(total, expect, "mask {mask:#x} gxm {gxm:#x} len {len}");
                assert_eq!(last, prev, "mask {mask:#x} gxm {gxm:#x} len {len}");
            }
        }
    }

    #[test]
    fn chained_blocks_match_one_shot() {
        let mut rng = Rng64::seed_from_u64(17);
        let accesses: Vec<Access> = (0..500).map(|_| Access::data(rng.gen())).collect();
        for (mask, gxm) in [(0xffff_ffffu64, 0u64), (0xffff_ffff, 0x3fff_fffc)] {
            let (expect, expect_last) =
                packed_diff_transitions(&accesses, |a: &Access| a.address, mask, gxm, 0);
            let mut total = 0u64;
            let mut last = 0u64;
            for blk in accesses.chunks(130) {
                let (t, l) = packed_diff_transitions(blk, |a: &Access| a.address, mask, gxm, last);
                total += t;
                last = l;
            }
            assert_eq!(total, expect, "mask {mask:#x} gxm {gxm:#x}");
            assert_eq!(last, expect_last, "mask {mask:#x} gxm {gxm:#x}");
        }
    }

    #[test]
    fn line_counts_match_dense_reference_and_total() {
        let mut rng = Rng64::seed_from_u64(23);
        // 2500 accesses crosses the positional sink's 1984-access harvest
        // boundary, so mid-stream harvesting is exercised, plus a ragged
        // remainder.
        let accesses: Vec<Access> = (0..2500).map(|_| Access::data(rng.gen())).collect();
        for (mask, gxm) in [
            (0xffff_ffffu64, 0u64),
            (0xffff_ffff, 0x3fff_fffc),
            (0xffff, 0x3ffc),
            (0xf, 0),
        ] {
            for len in [0usize, 1, 63, 64, 65, 1984, 1985, 2047, 2500] {
                let s = &accesses[..len];
                let mut counts = [0u64; 32];
                let last =
                    packed_line_transitions(s, |a: &Access| a.address, mask, gxm, 0, &mut counts);
                let mut expect = [0u64; 32];
                let mut prev = 0u64;
                for a in s {
                    let w = a.address & mask;
                    let d = w ^ prev;
                    let flips = d ^ ((d >> 1) & gxm);
                    for (i, slot) in expect.iter_mut().enumerate() {
                        *slot += flips >> i & 1;
                    }
                    prev = w;
                }
                assert_eq!(counts, expect, "mask {mask:#x} gxm {gxm:#x} len {len}");
                assert_eq!(last, prev, "mask {mask:#x} gxm {gxm:#x} len {len}");
                let (total, _) = packed_diff_transitions(s, |a: &Access| a.address, mask, gxm, 0);
                assert_eq!(counts.iter().sum::<u64>(), total);
            }
        }
    }

    #[test]
    fn line_counts_chain_across_blocks() {
        let mut rng = Rng64::seed_from_u64(29);
        let accesses: Vec<Access> = (0..3000).map(|_| Access::data(rng.gen())).collect();
        let (mask, gxm) = (0xffff_ffffu64, 0x3fff_fffcu64);
        let mut expect = [0u64; 32];
        let expect_last =
            packed_line_transitions(&accesses, |a: &Access| a.address, mask, gxm, 0, &mut expect);
        let mut counts = [0u64; 32];
        let mut last = 0u64;
        for blk in accesses.chunks(700) {
            last =
                packed_line_transitions(blk, |a: &Access| a.address, mask, gxm, last, &mut counts);
        }
        assert_eq!(counts, expect);
        assert_eq!(last, expect_last);
    }

    #[test]
    fn gray_xor_mask_commutes_with_diff() {
        // enc(x) = x ^ ((x >> 1) & gxm) must reproduce the stride-aware
        // Gray word, and its diffs must match diffs of encoded words.
        use crate::codes::gray_encode;
        let mask = 0xffffu64;
        let k = 2u32; // stride 4
        let low_mask = 0x3u64;
        let gxm = (mask >> 1) & !low_mask;
        let mut rng = Rng64::seed_from_u64(13);
        let mut prev_word = 0u64;
        let mut prev_bin = 0u64;
        for _ in 0..1000 {
            let x = rng.gen::<u64>() & mask;
            let word = (gray_encode(x >> k) << k) | (x & low_mask);
            assert_eq!(word, x ^ ((x >> 1) & gxm), "x {x:#x}");
            let d = x ^ prev_bin;
            assert_eq!(word ^ prev_word, d ^ ((d >> 1) & gxm));
            prev_word = word;
            prev_bin = x;
        }
    }
}
