//! Tier-1 property: bounded resynchronization under [`Hardened`].
//!
//! The bare stateful codes (T0 and its descendants) can stay
//! desynchronized for an unbounded number of cycles after a single
//! in-transit bit flip. The `Hardened` wrapper's contract is that the
//! damage is (a) *detected* — the aux parity line catches any single-line
//! flip on the cycle it happens — and (b) *bounded* — the periodic plain-
//! word refresh restores exact decoding no later than the first refresh
//! boundary after the fault. This seeded sweep checks both halves of the
//! contract for every stateful code, every refresh interval tested, and a
//! spread of random fault placements.
//!
//! [`Hardened`]: buscode::core::codes::Hardened

use buscode::core::{CodeKind, CodeParams, CodecError, Tier};
use buscode::fault::models::apply_fault;
use buscode::fault::{is_stateful, BusGeometry, FaultKind, FaultSite};
use buscode_core::rng::Rng64;
use buscode_trace::MuxedModel;

const STREAM_LEN: usize = 192;
const TRIALS: u64 = 12;

#[test]
fn hardened_stateful_codes_resync_within_the_refresh_interval() {
    let params = CodeParams::default();
    let mut rng = Rng64::seed_from_u64(0x4e51);
    for kind in CodeKind::all().into_iter().filter(|&k| is_stateful(k)) {
        for refresh in [4u64, 16] {
            for trial in 0..TRIALS {
                check_one_trial(kind, params, refresh, trial, &mut rng);
            }
        }
    }
}

fn check_one_trial(kind: CodeKind, params: CodeParams, refresh: u64, trial: u64, rng: &mut Rng64) {
    let stream =
        MuxedModel::with_targets(0.6304, 0.1139, 0.5762).generate(STREAM_LEN, 1_000 + trial);
    let (mut enc, mut dec) = kind
        .build_codec(params, Tier::Parity, refresh)
        .expect("valid params");
    let geometry = BusGeometry::new(params.width.bits(), enc.aux_line_count());
    let words: Vec<_> = stream.iter().map(|&a| enc.encode(a)).collect();

    let site = FaultSite::draw(FaultKind::TransientFlip, words.len(), geometry, rng);
    let faulted = apply_fault(&words, &stream, geometry, site);

    // The first refresh boundary at or after the cycle *after* the fault:
    // by then the decoder must be exact again.
    let bound = (site.cycle as u64 / refresh + 1) * refresh;
    for (i, ((word, sel), expected)) in faulted.observed.iter().zip(&faulted.expected).enumerate() {
        let decoded = dec.decode(*word, *sel);
        if i == site.cycle {
            // Contract (a): the parity line detects every single-line flip
            // on the cycle it happens.
            assert!(
                matches!(decoded, Err(CodecError::ProtocolViolation { .. })),
                "{kind} refresh {refresh} trial {trial}: flip on line {} at cycle {} \
                 was not detected (got {decoded:?})",
                site.line,
                site.cycle
            );
        } else if i as u64 >= bound {
            // Contract (b): past the refresh boundary the decoder is exact.
            assert_eq!(
                decoded.as_ref().ok(),
                Some(expected),
                "{kind} refresh {refresh} trial {trial}: cycle {i} is past the \
                 resync bound {bound} (fault at {}) but still wrong",
                site.cycle
            );
        }
        // Between the fault and the bound anything but a panic goes.
    }
}
