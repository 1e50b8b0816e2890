//! Tier-1 property: the block API is observationally identical to the
//! per-word API.
//!
//! Every code (at every protection tier — bare, parity, ECC — and widths
//! 4 and 8)
//! is driven twice over the same mixed stream: once word-by-word through
//! `encode`/`decode`, once through `encode_block`/`decode_block` with
//! randomized block boundaries — including empty and single-word blocks,
//! since block size must never leak into codec state. The sharded sweep
//! engine is held to the same standard: a `--jobs 8` run must reproduce a
//! serial run bit for bit.

use buscode::core::metrics::count_transitions;
use buscode::core::{
    Access, AccessKind, BusState, BusWidth, CodeKind, CodeParams, Decoder, Encoder, Stride, Tier,
};
use buscode::engine::SweepEngine;
use buscode_core::rng::Rng64;

/// A stream mixing in-sequence runs, strided jumps, repeats, and random
/// addresses over both access kinds — every branch a codec has.
fn mixed_stream(width: BusWidth, stride: Stride, len: usize, seed: u64) -> Vec<Access> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mask = width.mask();
    let mut addr = 0x11u64 & mask;
    (0..len)
        .map(|_| {
            addr = match rng.gen_range(0..10u8) {
                0..=5 => width.wrapping_add(addr, stride.get()),
                6..=7 => width.wrapping_add(addr, stride.get() * rng.gen_range(0..16u64)),
                8 => addr,
                _ => rng.gen::<u64>() & mask,
            };
            if rng.gen_bool(0.3) {
                Access::data(addr)
            } else {
                Access::instruction(addr)
            }
        })
        .collect()
}

fn codec_pair(
    kind: CodeKind,
    params: CodeParams,
    tier: Tier,
) -> (Box<dyn Encoder>, Box<dyn Decoder>) {
    kind.build_codec(params, tier, 16).expect("codec pair")
}

/// Splits `len` items into randomized chunk lengths, deliberately
/// including empty chunks (which must be no-ops).
fn random_chunks(len: usize, rng: &mut Rng64) -> Vec<usize> {
    const SIZES: [usize; 8] = [0, 1, 1, 2, 3, 5, 8, 21];
    let mut chunks = Vec::new();
    let mut consumed = 0;
    let mut zero_ok = true;
    while consumed < len {
        let mut size = SIZES[rng.gen_range(0..SIZES.len() as u64) as usize];
        if size == 0 && !zero_ok {
            size = 1;
        }
        zero_ok = size != 0;
        let size = size.min(len - consumed);
        chunks.push(size);
        consumed += size;
    }
    chunks
}

fn check_block_equivalence(kind: CodeKind, params: CodeParams, tier: Tier, seed: u64) {
    let stream = mixed_stream(params.width, params.stride, 400, seed);
    let label = format!("{kind} width {} tier {tier}", params.width.bits());

    // Encode: word-by-word reference vs randomized blocks.
    let (mut enc_ref, mut dec_ref) = codec_pair(kind, params, tier);
    let (mut enc_blk, mut dec_blk) = codec_pair(kind, params, tier);
    let words_ref: Vec<BusState> = stream.iter().map(|&a| enc_ref.encode(a)).collect();
    let mut words_blk = Vec::new();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xb10c);
    let mut start = 0;
    for size in random_chunks(stream.len(), &mut rng) {
        enc_blk.encode_block(&stream[start..start + size], &mut words_blk);
        start += size;
    }
    assert_eq!(words_ref, words_blk, "{label}: encode_block diverged");

    // Decode: word-by-word reference vs randomized blocks.
    let kinds: Vec<AccessKind> = stream.iter().map(|a| a.kind).collect();
    let addrs_ref: Vec<u64> = words_ref
        .iter()
        .zip(&kinds)
        .map(|(&w, &k)| dec_ref.decode(w, k).expect("clean-channel decode"))
        .collect();
    let mut addrs_blk = Vec::new();
    let mut start = 0;
    for size in random_chunks(stream.len(), &mut rng) {
        dec_blk
            .decode_block(
                &words_blk[start..start + size],
                &kinds[start..start + size],
                &mut addrs_blk,
            )
            .expect("clean-channel block decode");
        start += size;
    }
    assert_eq!(addrs_ref, addrs_blk, "{label}: decode_block diverged");

    // And the round trip still lands on the original addresses.
    let mask = params.width.mask();
    for (access, decoded) in stream.iter().zip(&addrs_blk) {
        assert_eq!(access.address & mask, *decoded, "{label}: round trip broke");
    }
}

#[test]
fn block_api_matches_per_word_for_every_code() {
    for bits in [4u32, 8] {
        let width = BusWidth::new(bits).expect("valid width");
        let stride = Stride::new(4, width).expect("valid stride");
        let params = CodeParams { width, stride };
        for kind in CodeKind::all() {
            for &tier in Tier::all() {
                let seed = 0x5eed ^ (u64::from(bits) << 8) ^ tier as u64;
                check_block_equivalence(kind, params, tier, seed);
            }
        }
    }
}

#[test]
fn zero_and_one_word_blocks_are_exact() {
    let width = BusWidth::new(8).expect("valid width");
    let params = CodeParams {
        width,
        stride: Stride::new(4, width).expect("valid stride"),
    };
    let stream = mixed_stream(params.width, params.stride, 3, 7);
    let kinds: Vec<AccessKind> = stream.iter().map(|a| a.kind).collect();
    for kind in CodeKind::all() {
        for &tier in Tier::all() {
            let (mut enc_ref, mut dec_ref) = codec_pair(kind, params, tier);
            let (mut enc_blk, mut dec_blk) = codec_pair(kind, params, tier);
            let words: Vec<BusState> = stream.iter().map(|&a| enc_ref.encode(a)).collect();

            // Empty blocks are no-ops; one-word blocks equal `encode`.
            let mut out = Vec::new();
            enc_blk.encode_block(&[], &mut out);
            assert!(out.is_empty(), "{kind}: empty encode_block emitted words");
            for (i, &access) in stream.iter().enumerate() {
                enc_blk.encode_block(&[access], &mut out);
                assert_eq!(out.len(), i + 1);
                assert_eq!(out[i], words[i], "{kind}: 1-word encode_block diverged");
            }

            let mut decoded = Vec::new();
            dec_blk
                .decode_block(&[], &[], &mut decoded)
                .expect("empty block decodes");
            assert!(decoded.is_empty());
            for (i, (&word, &k)) in words.iter().zip(&kinds).enumerate() {
                dec_blk
                    .decode_block(&[word], &[k], &mut decoded)
                    .expect("1-word block decodes");
                let reference = dec_ref.decode(word, k).expect("per-word decode");
                assert_eq!(
                    decoded[i], reference,
                    "{kind}: 1-word decode_block diverged"
                );
            }
        }
    }
}

/// The engine's determinism contract: sharded runs return results in
/// input order, so any `--jobs` count reproduces the serial run exactly.
#[test]
fn sweep_engine_is_bit_identical_across_job_counts() {
    let width = BusWidth::MIPS;
    let params = CodeParams {
        width,
        stride: Stride::new(4, width).expect("valid stride"),
    };
    let stream = mixed_stream(width, params.stride, 4000, 99);
    let count = |kind: CodeKind| {
        let mut enc = kind.encoder(params).expect("encoder");
        let stats = count_transitions(enc.as_mut(), stream.iter().copied());
        (kind.name(), stats.cycles, stats.total())
    };
    let serial = SweepEngine::serial().run(CodeKind::all().to_vec(), count);
    let parallel = SweepEngine::new(8).run(CodeKind::all().to_vec(), count);
    assert_eq!(serial, parallel);
    assert_eq!(serial.len(), CodeKind::all().len());
}
