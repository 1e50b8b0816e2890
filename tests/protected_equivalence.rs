//! Pins the parity and SEC-DED protection tiers bit for bit.
//!
//! Every constant in this file was captured from the two-wrapper
//! implementation and must never be edited to make a refactor pass: the
//! digest covers the bus words, the snapshot images, and the decoder's
//! reaction to single and double line flips for all 12 codes × {parity,
//! ECC} × widths {8, 32}; the verdict table pins the model checker's
//! state counts; and the two checkpoint texts must still restore and
//! resume, so checkpoints written before a change keep loading after it.
//!
//! The fault-path digest pins the supervised pipeline under injected
//! faults (retries with rollback restores, forced resyncs, demotions, ECC
//! corrections) for all 12 codes × 3 tiers × widths {8, 32}, together with
//! the bytes every CRC in the stack produces: wire frames, link-frame
//! CRCs, and checkpoint footers.

use buscode::core::check::{check_ecc_all, check_hardened_all, CheckConfig};
use buscode::core::rng::Rng64;
use buscode::core::snapshot::{Snapshot, SnapshotDecoder};
use buscode::core::{Access, AccessKind, BusState, CodeKind, CodeParams, Tier};
use buscode::link::crc16;
use buscode::pipeline::soak::{SoakChannel, SoakConfig};
use buscode::pipeline::{clean_channel, Checkpoint, Pipeline, PipelineConfig, PipelineMetrics};
use buscode::serve::Message;
use buscode::trace::MuxedModel;

const REFRESH: u64 = 16;
const STREAM_LEN: usize = 4096;
/// Both halves' image lines are folded in before every `IMAGE_STRIDE`th word.
const IMAGE_STRIDE: usize = 97;
/// Every `FLIP_STRIDE`th word is decoded under every single-line flip.
const FLIP_STRIDE: usize = 61;
/// Seeded double flips decoded on each flip-sampled word.
const DOUBLE_FLIPS: usize = 12;

const DIGEST: u64 = 0x0671_c42d_7cb0_101f;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

fn flip(mut word: BusState, line: u32, payload_bits: u32) -> BusState {
    if line < payload_bits {
        word.payload ^= 1 << line;
    } else {
        word.aux ^= 1 << (line - payload_bits);
    }
    word
}

/// Decodes `word` from `state` in a scratch decoder and folds the outcome,
/// its recovery class, and the correction-counter delta into `digest`.
fn probe(
    digest: &mut Fnv,
    scratch: &mut dyn SnapshotDecoder,
    state: &buscode::core::StateImage,
    word: BusState,
    access: Access,
) {
    scratch.restore(state).expect("own image restores");
    let before = scratch.corrected_count();
    let outcome = scratch.decode(word, access.kind);
    digest.text(&format!("{outcome:?}"));
    if let Err(e) = &outcome {
        digest.text(&format!("{:?}", e.recovery_class()));
    }
    digest.word(scratch.corrected_count() - before);
}

fn fold_cell(digest: &mut Fnv, kind: CodeKind, tier: Tier, bits: u32) {
    let params = CodeParams::new(bits, 4).unwrap();
    let mask = params.width.mask();
    let mut enc = kind.tier_snapshot_encoder(params, tier, REFRESH).unwrap();
    let mut dec = kind.tier_snapshot_decoder(params, tier, REFRESH).unwrap();
    let mut scratch = kind.tier_snapshot_decoder(params, tier, REFRESH).unwrap();
    digest.text(&format!("{kind} {tier} {bits}"));
    digest.text(enc.name());
    digest.text(dec.name());
    let lines = bits + enc.aux_line_count();
    digest.word(u64::from(lines));

    let seed = 0x9a0_7ec7 ^ (u64::from(bits) << 8) ^ (tier as u64);
    let stream = MuxedModel::with_targets(0.6304, 0.1139, 0.5762).generate(STREAM_LEN, seed);
    let mut rng = Rng64::seed_from_u64(seed ^ 0xd0b1e);
    for (i, &access) in stream.iter().enumerate() {
        if i % IMAGE_STRIDE == 0 {
            digest.text(&enc.snapshot().to_line());
            digest.text(&dec.snapshot().to_line());
        }
        let word = enc.encode(access);
        digest.word(word.payload);
        digest.word(word.aux);
        if i % FLIP_STRIDE == 0 {
            let state = dec.snapshot();
            for line in 0..lines {
                probe(
                    digest,
                    scratch.as_mut(),
                    &state,
                    flip(word, line, bits),
                    access,
                );
            }
            for _ in 0..DOUBLE_FLIPS {
                let a = rng.gen_range(0..u64::from(lines)) as u32;
                let b = (a + 1 + rng.gen_range(0..u64::from(lines - 1)) as u32) % lines;
                let doubled = flip(flip(word, a, bits), b, bits);
                probe(digest, scratch.as_mut(), &state, doubled, access);
            }
        }
        let decoded = dec.decode(word, access.kind);
        assert_eq!(
            decoded,
            Ok(access.address & mask),
            "{kind} {tier} width {bits} word {i}"
        );
    }
    digest.text(&enc.snapshot().to_line());
    digest.text(&dec.snapshot().to_line());
}

#[test]
fn protected_tiers_match_the_pinned_digest() {
    let mut digest = Fnv::new();
    for kind in CodeKind::all() {
        for tier in [Tier::Parity, Tier::Ecc] {
            for bits in [8, 32] {
                fold_cell(&mut digest, kind, tier, bits);
            }
        }
    }
    assert_eq!(digest.0, DIGEST, "digest {:#018x}", digest.0);
}

/// `check_hardened_all` then `check_ecc_all` at width 4, refresh 2.
const VERDICTS: &[&str] = &[
    "binary: proven (32 states, 1024 transitions)",
    "gray: proven (32 states, 1024 transitions)",
    "bus-invert: proven (47 states, 1504 transitions)",
    "t0: proven (49 states, 1568 transitions)",
    "t0-bi: proven (64 states, 2048 transitions)",
    "dual-t0: proven (320 states, 10240 transitions)",
    "dual-t0-bi: proven (327 states, 10464 transitions)",
    "t0-xor: proven (272 states, 8704 transitions)",
    "offset: proven (272 states, 8704 transitions)",
    "working-zone: proven (273 states, 8736 transitions)",
    "beach: proven (32 states, 1024 transitions)",
    "self-org: proven (49 states, 1568 transitions)",
    "binary: proven (32 states, 1024 transitions)",
    "gray: proven (32 states, 1024 transitions)",
    "bus-invert: proven (47 states, 1504 transitions)",
    "t0: proven (49 states, 1568 transitions)",
    "t0-bi: proven (64 states, 2048 transitions)",
    "dual-t0: proven (320 states, 10240 transitions)",
    "dual-t0-bi: proven (327 states, 10464 transitions)",
    "t0-xor: proven (272 states, 8704 transitions)",
    "offset: proven (272 states, 8704 transitions)",
    "working-zone: proven (273 states, 8736 transitions)",
    "beach: proven (32 states, 1024 transitions)",
    "self-org: proven (49 states, 1568 transitions)",
];

#[test]
fn checker_verdicts_match_the_pinned_counts() {
    let params = CodeParams::new(4, 4).unwrap();
    let config = CheckConfig::default();
    let hardened = check_hardened_all(params, 2, &config).unwrap();
    let ecc = check_ecc_all(params, 2, &config).unwrap();
    let got: Vec<String> = hardened
        .iter()
        .chain(&ecc)
        .map(|(kind, verdict)| format!("{kind}: {verdict}"))
        .collect();
    assert_eq!(got, VERDICTS, "{got:#?}");
}

const PARITY_CHECKPOINT: &str = "buscode-pipeline-checkpoint v1
code=dual-t0-bi
width=8
stride=4
refresh=16
position=300
mode=normal
window_start=256
window_errors=0
clean_run=0
tier=parity
tier_window_start=0
tier_faults=0
tier_clean_run=0
stats=300 300 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
encoder=hardened:dual-t0-bi 1 20 ff 1 c
decoder=hardened:dual-t0-bi 1 20 c
crc32=7d587377
";

const ECC_CHECKPOINT: &str = "buscode-pipeline-checkpoint v1
code=t0
width=8
stride=4
refresh=16
position=300
mode=normal
window_start=256
window_errors=0
clean_run=0
tier=ecc
tier_window_start=256
tier_faults=0
tier_clean_run=300
stats=300 300 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 300
encoder=ecc-hardened:t0 1 20 10 1 c
decoder=ecc-hardened:t0 1 20 c
crc32=1dc2b73d
";

/// A seeded `len`-word muxed stream masked to a `bits`-wide bus.
fn pipeline_stream(len: usize, bits: u32, seed: u64) -> Vec<Access> {
    let mask = CodeParams::new(bits, 4).unwrap().width.mask();
    MuxedModel::with_targets(0.6304, 0.1139, 0.5762)
        .generate(len, seed)
        .into_iter()
        .map(|a| Access {
            address: a.address & mask,
            ..a
        })
        .collect()
}

fn pipeline_configs() -> [(PipelineConfig, &'static str); 2] {
    let params = CodeParams::new(8, 4).unwrap();
    [
        (
            PipelineConfig::new(CodeKind::DualT0Bi, params),
            PARITY_CHECKPOINT,
        ),
        (
            PipelineConfig::fixed_tier(CodeKind::T0, params, Tier::Ecc, REFRESH),
            ECC_CHECKPOINT,
        ),
    ]
}

#[test]
fn pinned_checkpoints_restore_and_resume() {
    let stream = pipeline_stream(600, 8, 0xc4ec);
    for (config, text) in pipeline_configs() {
        let mut straight = Pipeline::new(config).unwrap();
        straight
            .run(stream.iter().copied(), &mut clean_channel())
            .unwrap();

        let parsed = Checkpoint::parse(text).unwrap();
        assert_eq!(parsed.to_text(), text);
        let mut resumed = Pipeline::from_checkpoint(config, &parsed).unwrap();
        let at = resumed.position() as usize;
        resumed
            .run(stream[at..].iter().copied(), &mut clean_channel())
            .unwrap();
        assert_eq!(resumed.stats(), straight.stats(), "{}", config.kind);
        assert_eq!(
            resumed.checkpoint().to_text(),
            straight.checkpoint().to_text()
        );
    }
}

const FAULT_PATH_DIGEST: u64 = 0xf4dc_b10f_118c_91fd;

/// One code × tier × width through `Pipeline::process` under a soak
/// channel: every decoded word, both halves' images every
/// `IMAGE_STRIDE` words, the final metrics and the final checkpoint text.
fn fold_fault_cell(digest: &mut Fnv, kind: CodeKind, tier: Tier, bits: u32) -> PipelineMetrics {
    let params = CodeParams::new(bits, 4).unwrap();
    let config = PipelineConfig::fixed_tier(kind, params, tier, REFRESH);
    let mut pipe = Pipeline::new(config).unwrap();
    let seed = 0x00fa_0175 ^ (u64::from(bits) << 8) ^ (tier as u64);
    let mut channel = SoakChannel::new(SoakConfig::new(seed, STREAM_LEN as u64), bits);
    digest.text(&format!("{kind} {tier} {bits}"));
    for (i, access) in pipeline_stream(STREAM_LEN, bits, seed)
        .into_iter()
        .enumerate()
    {
        if i % IMAGE_STRIDE == 0 {
            let checkpoint = pipe.checkpoint();
            digest.text(&checkpoint.encoder.to_line());
            digest.text(&checkpoint.decoder.to_line());
        }
        digest.word(pipe.process(access, &mut channel).unwrap());
    }
    let stats = pipe.stats();
    digest.text(&format!("{stats:?}"));
    digest.text(&pipe.checkpoint().to_text());
    stats
}

/// One seeded message of each of the 11 wire types.
fn seeded_messages(rng: &mut Rng64) -> Vec<Message> {
    let codes = CodeKind::all();
    let accesses = (0..rng.gen_range(1..64u64))
        .map(|_| Access {
            address: rng.next_u64(),
            kind: if rng.gen_bool(0.5) {
                AccessKind::Instruction
            } else {
                AccessKind::Data
            },
        })
        .collect();
    let addresses = (0..rng.gen_range(1..64u64))
        .map(|_| rng.next_u64())
        .collect();
    vec![
        Message::Hello {
            code: codes[rng.gen_range(0..codes.len() as u64) as usize],
            width: rng.gen_range(1..65u64) as u8,
            stride: rng.gen_range(1..9u64),
            tier: [Tier::Bare, Tier::Parity, Tier::Ecc][rng.gen_range(0..3u64) as usize],
            refresh: rng.gen_range(0..1024u64) as u32,
        },
        Message::Data {
            seq: rng.next_u64() as u32,
            accesses,
        },
        Message::Close,
        Message::Shutdown,
        Message::HelloOk {
            session: rng.next_u64(),
        },
        Message::Reject {
            code: rng.gen_range(1..4u64) as u8,
            reason: format!("rejected {:x}", rng.next_u64()),
        },
        Message::Decoded {
            seq: rng.next_u64() as u32,
            addresses,
        },
        Message::RetryAfter {
            seq: rng.next_u64() as u32,
            hint_micros: rng.next_u64() as u32,
        },
        Message::Closed {
            words: rng.next_u64(),
            shed: rng.next_u64(),
        },
        Message::ShutdownOk,
        Message::Error {
            code: rng.gen_range(1..101u64) as u8,
            detail: format!("error {:x}", rng.next_u64()),
        },
    ]
}

#[test]
fn fault_path_matches_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut total = PipelineMetrics::default();
    for kind in CodeKind::all() {
        for tier in [Tier::Bare, Tier::Parity, Tier::Ecc] {
            for bits in [8, 32] {
                let stats = fold_fault_cell(&mut digest, kind, tier, bits);
                assert_eq!(stats.unrecovered, 0, "{kind} {tier} width {bits}");
                total.retries += stats.retries;
                total.forced_resyncs += stats.forced_resyncs;
                total.demotions += stats.demotions;
                total.corrected_faults += stats.corrected_faults;
            }
        }
    }
    // Every recovery path ran somewhere: a retry restores the rollback
    // image, a resync resets both halves, a demotion swaps in the plain
    // pair, and the ECC tier corrects in flight.
    assert!(total.retries > 0, "{total:?}");
    assert!(total.forced_resyncs > 0, "{total:?}");
    assert!(total.demotions > 0, "{total:?}");
    assert!(total.corrected_faults > 0, "{total:?}");

    let mut rng = Rng64::seed_from_u64(0xc2cf_7a3e);
    let messages = seeded_messages(&mut rng);
    assert_eq!(messages.len(), 11);
    for message in &messages {
        digest.bytes(&message.encode());
    }
    for _ in 0..4096 {
        let word = BusState::new(rng.next_u64(), rng.next_u64());
        let word = flip(word, rng.gen_range(0..128u64) as u32, 64);
        let crc = crc16(rng.next_u64() as u8, rng.gen_range(0..16u64) as u8, word);
        digest.word(u64::from(crc));
    }
    assert_eq!(digest.0, FAULT_PATH_DIGEST, "digest {:#018x}", digest.0);
}
