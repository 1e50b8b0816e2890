//! A clean word allocates nothing in `Pipeline::process`, at every tier:
//! the rollback image is refilled in place, and nothing on the per-word
//! path builds a name, a word vector or an error. A detected fault
//! allocates nothing either: the decoder is restored from a view of the
//! rollback image into its existing registers and tables.
//!
//! A global allocator that forwards to the system allocator counts the
//! allocations each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use buscode_core::{BusState, CodeKind, CodeParams, Tier};
use buscode_fault::campaign::stream_for;
use buscode_pipeline::{clean_channel, Channel, Pipeline, PipelineConfig};
use buscode_trace::StreamKind;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn clean_words_allocate_nothing_at_any_tier() {
    let params = CodeParams::new(32, 4).unwrap();
    let stream = stream_for(StreamKind::Muxed, 2048, 0xa110c);
    for kind in CodeKind::all() {
        for tier in [Tier::Bare, Tier::Parity, Tier::Ecc] {
            let config = PipelineConfig::fixed_tier(kind, params, tier, 16);
            let mut pipe = Pipeline::new(config).unwrap();
            let mut channel = clean_channel();
            // The first pass grows the rollback image's buffers to the
            // largest state the stream reaches (the self-organizing list
            // fills up as it goes); the second pass reuses them.
            for pass in 0..2 {
                let before = allocations();
                for &access in &stream {
                    pipe.process(access, &mut channel).unwrap();
                }
                if pass == 1 {
                    assert_eq!(allocations() - before, 0, "{kind} {tier}");
                }
            }
            assert_eq!(pipe.stats().clean_words, 2 * stream.len() as u64);
        }
    }
}

/// A channel that corrupts the first transmission of every 100th word
/// with `flips` payload-line flips: a fault the tier detects without
/// correcting it, so the supervisor restores the decoder from its
/// rollback image and retransmits, and the retry arrives clean.
fn every_100th_word_faulted(flips: u32) -> impl Channel {
    let mut faulted = None;
    move |index: u64, word: BusState| {
        if index % 100 == 99 && faulted != Some(index) {
            faulted = Some(index);
            BusState::new(word.payload ^ ((1 << flips) - 1), word.aux)
        } else {
            word
        }
    }
}

#[test]
fn detected_faults_roll_back_without_allocating() {
    let params = CodeParams::new(32, 4).unwrap();
    let stream = stream_for(StreamKind::Muxed, 2048, 0xa110c);
    // T0 restores fixed registers; working-zone and self-org restore
    // tables. Parity detects one flip, SEC-DED two.
    for kind in [
        CodeKind::T0,
        CodeKind::WorkingZone,
        CodeKind::SelfOrganizing,
    ] {
        for (tier, flips) in [(Tier::Parity, 1), (Tier::Ecc, 2)] {
            let config = PipelineConfig::fixed_tier(kind, params, tier, 16);
            let mut pipe = Pipeline::new(config).unwrap();
            let mut channel = every_100th_word_faulted(flips);
            for pass in 0..2 {
                let before = allocations();
                for &access in &stream {
                    pipe.process(access, &mut channel).unwrap();
                }
                if pass == 1 {
                    assert_eq!(allocations() - before, 0, "{kind} {tier}");
                }
            }
            let stats = pipe.stats();
            assert_eq!(
                stats.faulted_words,
                2 * stream.len() as u64 / 100,
                "{kind} {tier}"
            );
            assert_eq!(stats.retries, stats.faulted_words, "{kind} {tier}");
            assert_eq!(stats.unrecovered, 0, "{kind} {tier}");
        }
    }
}
