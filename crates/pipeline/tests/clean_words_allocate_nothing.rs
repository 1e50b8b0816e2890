//! A clean word allocates nothing in `Pipeline::process`, at every tier:
//! the rollback image is refilled in place, and nothing on the per-word
//! path builds a name, a word vector or an error.
//!
//! A global allocator that forwards to the system allocator counts the
//! allocations each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use buscode_core::{CodeKind, CodeParams, Tier};
use buscode_fault::campaign::stream_for;
use buscode_pipeline::{clean_channel, Pipeline, PipelineConfig};
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
