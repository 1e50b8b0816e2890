//! `paper_sweep`: all 12 codes, bare, over the instruction, data and
//! muxed streams of the `trace` models. Each code × stream cell counts
//! the paper's transition totals (`count_block`) and per-line activity
//! (`activity_block`) and makes a verified `encode_block` →
//! `decode_block` round trip. Cells are sharded through `SweepEngine`
//! with two jobs; one request is one whole sweep over the 36 cells.
//!
//! This workload is kernels and the engine only: it bypasses `pipeline`
//! and `serve` entirely.

use std::time::{Duration, Instant};

use buscode_core::metrics::{
    count_transitions_per_word, count_transitions_slice, line_activity_per_word,
    line_activity_slice, LineActivity,
};
use buscode_core::{Access, AccessKind, BusState, CodeKind, CodeParams, TransitionStats};
use buscode_engine::SweepEngine;
use buscode_fault::campaign::stream_for;
use buscode_trace::StreamKind;

use crate::report::{self, Check, Outcome, Recorder, Tamper};
use crate::{mix, Args};

/// Words of each stream.
const WORDS: usize = 8192;
/// Sweep shards: one per core of the reference host.
pub const JOBS: usize = 2;
const STREAMS: [StreamKind; 3] = [StreamKind::Instruction, StreamKind::Data, StreamKind::Muxed];

pub fn generate(seed: u64) -> Vec<Vec<Access>> {
    STREAMS
        .iter()
        .enumerate()
        .map(|(i, &kind)| stream_for(kind, WORDS, mix(seed, 0x5a, i as u64)))
        .collect()
}

/// What one cell computes.
pub struct CellResult {
    pub stats: TransitionStats,
    pub activity: LineActivity,
    /// Round-trip words that decoded wrong.
    pub wrong: u64,
    /// Time the cell spent on its shard.
    pub busy: Duration,
}

/// Analyses one code over one stream: transition totals, per-line
/// activity and a checked block round trip. `corrupt` seeds the
/// deliberate corruption of the decoded words.
pub fn analyse(
    code: CodeKind,
    stream: &[Access],
    kinds: &[AccessKind],
    corrupt: Option<u64>,
) -> Result<CellResult, String> {
    let started = Instant::now();
    let params = CodeParams::default();
    let mut enc = code.encoder(params).map_err(|e| format!("{code}: {e}"))?;
    let mut dec = code.decoder(params).map_err(|e| format!("{code}: {e}"))?;
    let stats = count_transitions_slice(enc.as_mut(), stream);
    enc.reset();
    let activity = line_activity_slice(enc.as_mut(), stream);
    enc.reset();
    let mut bus: Vec<BusState> = Vec::with_capacity(stream.len());
    enc.encode_block(stream, &mut bus);
    let mut decoded = Vec::with_capacity(stream.len());
    dec.decode_block(&bus, kinds, &mut decoded)
        .map_err(|e| format!("{code}: decode failed: {e}"))?;
    if let Some(seed) = corrupt {
        Tamper::new(true, seed).apply(&mut decoded);
    }
    let mask = params.width.mask();
    let wrong = decoded
        .iter()
        .zip(stream)
        .filter(|(got, want)| **got != want.address & mask)
        .count()
        + decoded.len().abs_diff(stream.len());
    Ok(CellResult {
        stats,
        activity,
        wrong: wrong as u64,
        busy: started.elapsed(),
    })
}

/// The generated streams with their `SEL` columns and the cell list.
pub struct Sweep {
    pub streams: Vec<Vec<Access>>,
    pub kinds: Vec<Vec<AccessKind>>,
    /// `(code, stream index)` for every cell.
    pub cells: Vec<(CodeKind, usize)>,
}

impl Sweep {
    pub fn new(streams: Vec<Vec<Access>>) -> Self {
        let kinds = streams
            .iter()
            .map(|s| s.iter().map(|a| a.kind).collect())
            .collect();
        let cells = CodeKind::all()
            .into_iter()
            .flat_map(|code| (0..streams.len()).map(move |si| (code, si)))
            .collect();
        Sweep {
            streams,
            kinds,
            cells,
        }
    }

    /// One round over every cell on `engine`; `corrupt` seeds the
    /// deliberate corruption per cell.
    pub fn round(
        &self,
        engine: &SweepEngine,
        corrupt: Option<u64>,
    ) -> Vec<Result<CellResult, String>> {
        let inputs: Vec<(usize, (CodeKind, usize))> =
            self.cells.iter().copied().enumerate().collect();
        engine.run(inputs, |(i, (code, si))| {
            analyse(
                code,
                &self.streams[si],
                &self.kinds[si],
                corrupt.map(|seed| mix(seed, 0xce, i as u64)),
            )
        })
    }
}

/// The serial reference every sharded round must reproduce.
struct Reference {
    sweep: Sweep,
    expected: Vec<(TransitionStats, LineActivity)>,
}

/// Generates the streams, runs the serial reference round (which also
/// warms up) and checks block against per-word kernels on one sampled
/// cell.
fn setup(seed: u64, check: &mut Check) -> Result<Reference, String> {
    let sweep = Sweep::new(generate(seed));
    let mut expected = Vec::with_capacity(sweep.cells.len());
    for result in sweep.round(&SweepEngine::serial(), None) {
        let cell = result?;
        check.attempted += WORDS as u64;
        if cell.wrong > 0 {
            check.fail(
                cell.wrong,
                "serial round trip decoded wrong words".to_string(),
            );
        }
        expected.push((cell.stats, cell.activity));
    }
    let sampled = (seed % sweep.cells.len() as u64) as usize;
    let (code, si) = sweep.cells[sampled];
    let mut enc = code
        .encoder(CodeParams::default())
        .map_err(|e| e.to_string())?;
    let stream = sweep.streams[si].iter().copied();
    let per_word = count_transitions_per_word(enc.as_mut(), stream.clone());
    enc.reset();
    let per_word_activity = line_activity_per_word(enc.as_mut(), stream);
    check.attempted += WORDS as u64;
    if (per_word, &per_word_activity) != (expected[sampled].0, &expected[sampled].1) {
        check.fail(
            WORDS as u64,
            format!("{code} on stream {si}: block kernels disagree with the per-word path"),
        );
    }
    Ok(Reference { sweep, expected })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut check = Check::default();
    let (reference, setup_s) = report::repeat_setup(|| setup(args.seed, &mut check), |_| Ok(()))?;
    let engine = SweepEngine::new(JOBS);

    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut rec = Recorder::new(start, args.seconds);
    let mut round = 0u64;
    let words = reference.sweep.cells.len() * WORDS;
    while Instant::now() < deadline {
        let corrupt = args.corrupt.then(|| mix(args.seed, 0x7a, round));
        let sent = Instant::now();
        let results = reference.sweep.round(&engine, corrupt);
        rec.request(sent, words);
        for (result, (stats, activity)) in results.into_iter().zip(&reference.expected) {
            let cell = result?;
            check.attempted += WORDS as u64;
            if cell.wrong > 0 {
                check.fail(cell.wrong, "round trip decoded wrong words".to_string());
            }
            if cell.stats != *stats || cell.activity != *activity {
                check.fail(
                    WORDS as u64,
                    format!("jobs {JOBS} totals differ from jobs 1 in round {round}"),
                );
            }
        }
        round += 1;
    }
    let timing = report::summarize(rec)?;
    let mut outcome = report::end_to_end(setup_s, &timing, check)?;
    outcome.notes.push(format!(
        "paper_sweep: {round} rounds of {} cells, jobs {JOBS}",
        reference.sweep.cells.len()
    ));
    Ok(outcome)
}
