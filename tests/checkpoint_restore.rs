//! Resume-equals-straight-through: the [`Snapshot`] contract, swept over
//! every code.
//!
//! For all 12 codes × widths {4, 8} × every tier: encode/decode a
//! prefix of a stream, snapshot both halves of the codec, round-trip the
//! images through their text form, restore them into freshly constructed
//! codecs, and require the resumed pair to emit exactly the words and
//! addresses a never-interrupted pair produces. This is the property the
//! `buscode-pipeline` checkpoint/restore path (and its `pipeline --resume`
//! CLI flag) relies on. One image refilled in place by every decoder in
//! turn must match a fresh snapshot each time, as the pipeline's and the
//! link receiver's rollback images rely on.

use buscode::core::rng::Rng64;
use buscode::core::snapshot::{Snapshot, SnapshotDecoder, SnapshotEncoder, StateImage};
use buscode::core::{Access, CodeKind, CodeParams, Tier};
use buscode::pipeline::{clean_channel, Pipeline, PipelineConfig};

const WIDTHS: [u32; 2] = [4, 8];
const REFRESH: u64 = 8;
const STREAM_LEN: usize = 400;
const SPLITS: [usize; 3] = [1, 57, 200];

/// A `len`-word mixed instruction/data stream in the code's address
/// range, seeded per (code, width) so every cell sees different data.
fn stream(params: CodeParams, seed: u64, len: usize) -> Vec<Access> {
    let mut rng = Rng64::seed_from_u64(seed);
    let mask = params.width.mask();
    let mut addr = 0u64;
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.7) {
                addr = if rng.gen_bool(0.6) {
                    params.width.wrapping_add(addr, params.stride.get())
                } else {
                    rng.gen::<u64>() & mask
                };
                Access::instruction(addr)
            } else {
                Access::data(rng.gen::<u64>() & mask)
            }
        })
        .collect()
}

fn build_pair(
    kind: CodeKind,
    params: CodeParams,
    tier: Tier,
) -> (Box<dyn SnapshotEncoder>, Box<dyn SnapshotDecoder>) {
    (
        kind.tier_snapshot_encoder(params, tier, REFRESH).unwrap(),
        kind.tier_snapshot_decoder(params, tier, REFRESH).unwrap(),
    )
}

/// Serializes an image to its text line and back, so the sweep also
/// proves the portable form is lossless for every code's state shape.
fn through_text(image: &StateImage) -> StateImage {
    StateImage::parse_line(&image.to_line()).unwrap()
}

fn check_cell(kind: CodeKind, bits: u32, tier: Tier, split: usize) {
    let params = CodeParams::new(bits, 1).unwrap();
    let label = format!("{} width {bits} {tier} split {split}", kind.name());
    let accesses = stream(
        params,
        0xc4ec_4001 ^ (bits as u64) ^ (split as u64) << 8,
        STREAM_LEN,
    );

    // Straight-through reference.
    let (mut ref_enc, mut ref_dec) = build_pair(kind, params, tier);
    // Interrupted run: encode/decode `split` words, snapshot, restore
    // into fresh codecs, continue.
    let (mut enc, mut dec) = build_pair(kind, params, tier);

    for access in &accesses[..split] {
        let word = enc.encode(*access);
        assert_eq!(word, ref_enc.encode(*access), "{label}: prefix diverged");
        let addr = dec.decode(word, access.kind).unwrap();
        assert_eq!(addr, ref_dec.decode(word, access.kind).unwrap());
    }

    let (enc_image, dec_image) = (through_text(&enc.snapshot()), through_text(&dec.snapshot()));
    let (mut enc, mut dec) = build_pair(kind, params, tier);
    enc.restore(&enc_image)
        .unwrap_or_else(|e| panic!("{label}: encoder restore: {e}"));
    dec.restore(&dec_image)
        .unwrap_or_else(|e| panic!("{label}: decoder restore: {e}"));

    for (i, access) in accesses[split..].iter().enumerate() {
        let word = enc.encode(*access);
        let reference = ref_enc.encode(*access);
        assert_eq!(word, reference, "{label}: word {i} after resume");
        let addr = dec.decode(word, access.kind).unwrap();
        let ref_addr = ref_dec.decode(reference, access.kind).unwrap();
        assert_eq!(addr, ref_addr, "{label}: address {i} after resume");
        assert_eq!(addr, access.address, "{label}: decode {i} wrong");
    }
}

#[test]
fn resume_equals_straight_through_for_every_code() {
    for kind in CodeKind::all() {
        for bits in WIDTHS {
            for &tier in Tier::all() {
                for split in SPLITS {
                    check_cell(kind, bits, tier, split);
                }
            }
        }
    }
}

/// One image refilled by every code × tier decoder in turn, as the
/// pipeline's rollback image is across demotions and tier switches: the
/// buffers are reused across different names and word counts. After every
/// word the refilled image must equal a fresh snapshot, and a twin decoder
/// restored from it must carry on in lock-step.
#[test]
fn one_image_refills_through_every_decoder() {
    let params = CodeParams::new(32, 4).unwrap();
    let mut image = StateImage::default();
    for kind in CodeKind::all() {
        for &tier in Tier::all() {
            let label = format!("{} {tier}", kind.name());
            let (mut enc, mut dec) = build_pair(kind, params, tier);
            let (_, mut twin) = build_pair(kind, params, tier);
            for (i, access) in stream(params, 0x1a6e ^ kind as u64, 1000)
                .into_iter()
                .enumerate()
            {
                let word = enc.encode(access);
                let addr = dec.decode(word, access.kind).unwrap();
                assert_eq!(
                    addr,
                    twin.decode(word, access.kind).unwrap(),
                    "{label}: {i}"
                );
                dec.snapshot_into(&mut image);
                assert_eq!(image, dec.snapshot(), "{label}: word {i}");
                twin.restore(&image)
                    .unwrap_or_else(|e| panic!("{label}: word {i}: {e}"));
                assert_eq!(twin.snapshot(), image, "{label}: word {i}");
            }
        }
    }
}

#[test]
fn snapshots_refuse_other_codes_images() {
    let params = CodeParams::new(8, 1).unwrap();
    for kind in CodeKind::all() {
        let donor = if kind == CodeKind::T0 {
            CodeKind::Gray
        } else {
            CodeKind::T0
        };
        let image = donor.snapshot_encoder(params).unwrap().snapshot();
        let mut enc = kind.snapshot_encoder(params).unwrap();
        assert!(
            enc.restore(&image).is_err(),
            "{} accepted a {} image",
            kind.name(),
            donor.name()
        );
    }
}

/// The same property one level up: a `Pipeline` restored from its
/// checkpoint continues with the same statistics as an uninterrupted one.
#[test]
fn pipeline_checkpoint_resume_matches_straight_through() {
    for kind in [CodeKind::DualT0Bi, CodeKind::WorkingZone, CodeKind::Beach] {
        let mut config = PipelineConfig::new(kind, CodeParams::new(8, 1).unwrap());
        config.chunk_words = 64;
        let accesses = stream(config.params, 0x9e37_79b9, STREAM_LEN);

        let mut straight = Pipeline::new(config).unwrap();
        straight
            .run(accesses.iter().copied(), &mut clean_channel())
            .expect("clean run");

        let mut first = Pipeline::new(config).unwrap();
        first
            .run(accesses[..150].iter().copied(), &mut clean_channel())
            .expect("clean run");
        let checkpoint = first.checkpoint();
        let text = checkpoint.to_text();
        let parsed = buscode::pipeline::Checkpoint::parse(&text).unwrap();
        let mut resumed = Pipeline::from_checkpoint(config, &parsed).unwrap();
        resumed
            .run(accesses[150..].iter().copied(), &mut clean_channel())
            .expect("clean run");

        assert_eq!(
            resumed.stats(),
            straight.stats(),
            "{}: stats diverged after resume",
            kind.name()
        );
        assert_eq!(resumed.position(), straight.position());
    }
}
