//! Tier-1 proofs: SEC-DED correction under `EccHardened`.
//!
//! The `check_ecc` product-automaton family verifies, for every reachable
//! encoder/decoder state and every input: single line flips are corrected
//! *in-flight* (exact address, exact post-cycle decoder state — no resync
//! window at all), and double line flips are *detected*, falling back to
//! the bounded refresh-resync. This file pins those guarantees for all 12
//! codes at widths 4 and 8, plus the aux-line arithmetic the wrapper's
//! geometry rests on across the full 2..=64 width sweep.

use buscode::core::check::{check_ecc_all, CheckConfig};
use buscode::core::codes::{ecc_check_bits, EccHardened};
use buscode::core::CodeKind;
use buscode::core::{CodeParams, Decoder, Encoder};
use buscode::logic::Netlist;

#[test]
fn check_ecc_all_proves_every_code_at_width_4() {
    let params = CodeParams::new(4, 4).unwrap();
    for (kind, verdict) in check_ecc_all(params, 2, &CheckConfig::default()).unwrap() {
        assert!(verdict.holds(), "{kind}: {verdict}");
        assert!(verdict.is_proven(), "{kind}: {verdict}");
    }
}

#[test]
fn check_ecc_all_holds_for_every_code_at_width_8() {
    // The per-transition cost is quadratic in the line count (every pair
    // of flips is probed), so width 8 runs under a tighter budget: every
    // explored transition is checked exhaustively, heavyweight codes
    // stop at the budget instead of running away.
    let params = CodeParams::new(8, 4).unwrap();
    let config = CheckConfig {
        max_states: 1 << 12,
        max_transitions: 20_000,
    };
    for (kind, verdict) in check_ecc_all(params, 3, &config).unwrap() {
        assert!(verdict.holds(), "{kind}: {verdict}");
    }
}

#[test]
fn ecc_picks_minimal_check_bits_across_the_width_sweep() {
    for bits in 2..=64u32 {
        let stride = if bits > 2 { 4 } else { 1 };
        let params = CodeParams::new(bits, stride).unwrap();
        for kind in CodeKind::all() {
            let inner_aux = kind.aux_line_count(params).unwrap();
            let enc = EccHardened::encoder(kind.encoder(params).unwrap(), 16).unwrap();
            let n = bits + inner_aux;
            let r = enc.check_line_count();
            assert_eq!(r, ecc_check_bits(n), "{kind} width {bits}");
            // The SEC-DED inequality holds at r…
            assert!(
                1u128 << r >= u128::from(n + r + 1),
                "{kind} width {bits}: r = {r} violates 2^r >= {n} + r + 1"
            );
            // …and r is minimal: r - 1 must not satisfy it.
            assert!(
                r >= 1 && (1u128 << (r - 1)) < u128::from(n + r),
                "{kind} width {bits}: r = {r} is not minimal for n = {n}"
            );
            // Line accounting: inner lines, then checks, then parity.
            assert_eq!(
                enc.aux_line_count(),
                inner_aux + r + 1,
                "{kind} width {bits}"
            );
            assert_eq!(
                kind.ecc_overhead_lines(params).unwrap(),
                r + 1,
                "{kind} width {bits}"
            );
            // The decoder half agrees on the geometry.
            let dec =
                EccHardened::with_aux_lines(kind.decoder(params).unwrap(), 16, inner_aux).unwrap();
            assert_eq!(dec.check_line_count(), r, "{kind} width {bits}");
            assert_eq!(dec.width().bits(), bits, "{kind} width {bits}");
        }
    }
}

/// Regression guard on the numeric `output_names` ordering: bus bits
/// named `base[index]` must sort on the numeric index (`out[2]` before
/// `out[10]`), not lexicographically — wide ECC aux buses (10+ lines)
/// would interleave under plain string order.
#[test]
fn netlist_output_names_stay_numerically_ordered() {
    let mut n = Netlist::new();
    let word = n.input_word(12);
    n.mark_output_word("line", &word);
    let ready = n.constant(true);
    n.mark_output("valid", ready);
    let names: Vec<String> = n.output_names().into_iter().map(|(k, _)| k).collect();
    let mut expected: Vec<String> = (0..12).map(|i| format!("line[{i}]")).collect();
    expected.push("valid".to_owned());
    assert_eq!(names, expected);
}
