//! Block-API ↔ per-word equivalence properties.
//!
//! The block API's contract is exact cycle equivalence: for ANY
//! partitioning of a stream into blocks (including empty and single-word
//! blocks), `encode_block` / `count_block` / `activity_block` /
//! `decode_block` must produce the same bus words, transition counts,
//! per-line profiles and decoded addresses as the word-at-a-time path.
//! These properties are exercised for every code at every protection tier
//! (bare, parity, ECC), on narrow, 32-line and wider buses, with randomized
//! block boundaries. The transition counts and line profiles are also
//! checked on a long stream cut into blocks of up to 3048 words, which
//! reach the packed kernels' full 64-word chunks and their positional
//! harvest every 1984 words.

use buscode_core::metrics::{
    count_transitions_per_word, count_transitions_slice, line_activity_per_word,
    line_activity_slice, LineActivity, TransitionStats,
};
use buscode_core::rng::Rng64;
use buscode_core::{Access, AccessKind, BusState, CodeKind, CodeParams, Decoder, Encoder, Tier};

const CASES: usize = 3;
const STREAM_LEN: u64 = 400;
/// The long stream of the count and activity properties.
const LONG_STREAM_LEN: u64 = 4500;

/// (width bits, stride) pairs: tiny buses exercise masking edge cases,
/// 32 is the paper's MIPS bus with the packed kernels, 31 the widest
/// masked kernel shape, and 33 and 64 run past the packed kernels.
const SHAPES: &[(u32, u64)] = &[(4, 2), (8, 4), (31, 4), (32, 4), (33, 4), (64, 4)];

fn mixed_stream(rng: &mut Rng64, params: CodeParams, n: u64) -> Vec<Access> {
    let mask = params.width.mask();
    let stride = params.stride.get();
    let mut addr = 0x40u64 & mask;
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.6) {
                addr = params.width.wrapping_add(addr, stride);
                Access::instruction(addr)
            } else {
                addr = rng.gen::<u64>() & mask;
                Access::data(addr)
            }
        })
        .collect()
}

/// Cuts `s` into random blocks of up to 69 words, deliberately including
/// empty ones. With `long`, every second block is 2049–3048 words
/// instead.
fn random_blocks<'a>(rng: &mut Rng64, s: &'a [Access], long: bool) -> Vec<&'a [Access]> {
    let mut blocks = Vec::new();
    let mut at = 0usize;
    while at < s.len() {
        let len = if long && blocks.len() % 2 == 1 {
            2049 + (rng.gen::<u64>() % 1000) as usize
        } else {
            (rng.gen::<u64>() % 70) as usize
        };
        let end = (at + len).min(s.len());
        blocks.push(&s[at..end]);
        at = end;
    }
    blocks.push(&s[s.len()..]); // trailing empty block
    blocks
}

fn for_each_codec(mut f: impl FnMut(CodeKind, CodeParams, Tier)) {
    for &(bits, stride) in SHAPES {
        let params = CodeParams::new(bits, stride).expect("valid shape");
        for kind in CodeKind::all() {
            for &tier in Tier::all() {
                f(kind, params, tier);
            }
        }
    }
}

/// The tier factory's pair, refreshing every 16 cycles when protected.
fn codec(kind: CodeKind, params: CodeParams, tier: Tier) -> (Box<dyn Encoder>, Box<dyn Decoder>) {
    kind.build_codec(params, tier, 16).unwrap()
}

#[test]
fn encode_block_matches_per_word_at_random_boundaries() {
    let mut rng = Rng64::seed_from_u64(0xb10c_0001);
    for_each_codec(|kind, params, tier| {
        for case in 0..CASES {
            let stream = mixed_stream(&mut rng, params, STREAM_LEN);
            let ctx = format!("{kind} {tier} {params:?} case {case}");
            let (mut enc, _) = codec(kind, params, tier);
            let reference: Vec<BusState> = stream.iter().map(|&a| enc.encode(a)).collect();
            enc.reset();
            let mut blocked = Vec::new();
            for blk in random_blocks(&mut rng, &stream, false) {
                enc.encode_block(blk, &mut blocked);
            }
            assert_eq!(reference, blocked, "{ctx}");
        }
    });
}

/// The count and activity cases: `CASES` short streams cut into short
/// blocks, then one long stream cut with long blocks among them.
fn cases() -> impl Iterator<Item = (u64, bool)> {
    (0..CASES)
        .map(|_| (STREAM_LEN, false))
        .chain([(LONG_STREAM_LEN, true)])
}

#[test]
fn count_block_matches_per_word_at_random_boundaries() {
    let mut rng = Rng64::seed_from_u64(0xb10c_0002);
    for_each_codec(|kind, params, tier| {
        for (case, (len, long)) in cases().enumerate() {
            let stream = mixed_stream(&mut rng, params, len);
            let ctx = format!("{kind} {tier} {params:?} case {case}");
            let (mut enc, _) = codec(kind, params, tier);
            let reference = count_transitions_per_word(enc.as_mut(), stream.iter().copied());
            enc.reset();
            let mut stats = TransitionStats::default();
            let mut prev = BusState::reset();
            for blk in random_blocks(&mut rng, &stream, long) {
                enc.count_block(blk, &mut prev, &mut stats);
            }
            assert_eq!(reference, stats, "{ctx}");
            enc.reset();
            assert_eq!(
                reference,
                count_transitions_slice(enc.as_mut(), &stream),
                "{ctx} (slice)"
            );
        }
    });
}

#[test]
fn activity_block_matches_per_word_at_random_boundaries() {
    let mut rng = Rng64::seed_from_u64(0xb10c_0003);
    for_each_codec(|kind, params, tier| {
        for (case, (len, long)) in cases().enumerate() {
            let stream = mixed_stream(&mut rng, params, len);
            let ctx = format!("{kind} {tier} {params:?} case {case}");
            let (mut enc, _) = codec(kind, params, tier);
            let reference = line_activity_per_word(enc.as_mut(), stream.iter().copied());
            enc.reset();
            let mut activity = LineActivity::for_encoder(enc.as_ref());
            let mut prev = BusState::reset();
            for blk in random_blocks(&mut rng, &stream, long) {
                enc.activity_block(blk, &mut prev, &mut activity);
            }
            assert_eq!(reference, activity, "{ctx}");
            enc.reset();
            assert_eq!(
                reference,
                line_activity_slice(enc.as_mut(), &stream),
                "{ctx} (slice)"
            );
            // The profile's totals must agree with the transition counter.
            enc.reset();
            let stats = count_transitions_slice(enc.as_mut(), &stream);
            assert_eq!(reference.total(), stats.total(), "{ctx} (total)");
            assert_eq!(reference.cycles, stats.cycles, "{ctx} (cycles)");
        }
    });
}

#[test]
fn decode_block_round_trips_at_random_boundaries() {
    let mut rng = Rng64::seed_from_u64(0xb10c_0004);
    for_each_codec(|kind, params, tier| {
        let stream = mixed_stream(&mut rng, params, STREAM_LEN);
        let ctx = format!("{kind} {tier} {params:?}");
        let mask = params.width.mask();
        let (mut enc, mut dec) = codec(kind, params, tier);
        let mut words = Vec::new();
        enc.encode_block(&stream, &mut words);
        let mut decoded = Vec::new();
        let mut at = 0usize;
        for blk in random_blocks(&mut rng, &stream, false) {
            let kinds: Vec<AccessKind> = blk.iter().map(|a| a.kind).collect();
            dec.decode_block(&words[at..at + blk.len()], &kinds, &mut decoded)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            at += blk.len();
        }
        assert_eq!(words.len(), decoded.len(), "{ctx}");
        for (i, (&got, access)) in decoded.iter().zip(&stream).enumerate() {
            assert_eq!(got, access.address & mask, "{ctx}, cycle {i}");
        }
    });
}
