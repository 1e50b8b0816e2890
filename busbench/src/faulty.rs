//! `faulty_channel`: the 12 code × tier cells with no server. Each cell
//! streams a muxed trace through the pipeline's per-word supervisor
//! (`Pipeline::process`, which `Pipeline::run` loops over) under a seeded
//! `SoakChannel` (the `SoakConfig::new` shape: 300 ppm single flips,
//! 150 ppm double flips, a burst over an eighth of the stream at 5%),
//! then the start of it through `LinkSession::run` over the bursty
//! Gilbert–Elliott profile. A request is 256 words through the pipeline
//! or one cell's whole link transfer; the cells run in turn, pass after
//! pass.
//!
//! Many words here take the pipeline's retry, restore and resync path
//! rather than the clean path, and this is the only workload that runs
//! the `link` and `fault` layers.

use std::time::Instant;

use buscode_core::{Access, CodeKind, CodeParams, Tier};
use buscode_fault::campaign::stream_for;
use buscode_fault::GilbertElliott;
use buscode_link::{LinkConfig, LinkMetrics, LinkSession};
use buscode_pipeline::soak::{SoakChannel, SoakConfig};
use buscode_pipeline::{Channel, Pipeline, PipelineConfig, PipelineMetrics};
use buscode_trace::StreamKind;

use crate::report::{self, Check, Outcome, Recorder, Tamper};
use crate::{cells, mix, Args, REFRESH};

/// Words each cell streams through the pipeline.
const WORDS: usize = 4096;
/// Words of the same stream each cell sends over the link.
pub const LINK_WORDS: usize = 2048;

/// One muxed stream per cell.
pub fn generate(seed: u64) -> Vec<Vec<Access>> {
    (0..cells().len())
        .map(|i| stream_for(StreamKind::Muxed, WORDS, mix(seed, 0xfa, i as u64)))
        .collect()
}

/// A link configuration pinned at `tier`, so each rung runs directly.
fn pinned_link(code: CodeKind, tier: Tier) -> LinkConfig {
    let mut config = LinkConfig::new(code);
    config.refresh = REFRESH;
    config.redundancy.enabled = false;
    config.redundancy.start = tier;
    config.max_cycles_per_word = 512;
    config
}

/// The soak channel for a stream of `words` words: the standard soak
/// shape, seeded with `seed`, with the burst placed by the seed instead
/// of a quarter of the way in. Over many passes the burst then covers
/// the whole stream, so the costliest requests do not hinge on the few
/// words under one fixed burst window.
pub fn soak_channel(words: usize, seed: u64) -> SoakChannel {
    let mut config = SoakConfig::new(seed, words as u64);
    config.burst_start = mix(seed, 0xb5, 0) % (config.words - config.burst_words + 1);
    SoakChannel::new(config, CodeParams::default().width.bits())
}

/// Words of one pipeline request. Requests this small number in the
/// tens of thousands a second, so the request percentiles follow the
/// work rather than the few stalls the host puts into a run.
const CHUNK: usize = 256;

/// Streams `stream` through a fresh pipeline over `channel`, word by word
/// through `Pipeline::process` (the call `Pipeline::run` makes for every
/// word), `CHUNK` words to a request, and checks every decoded word
/// against the offered one and that none ended unrecovered. Each request
/// goes to `rec` with the words that came back right. Returns the
/// pipeline's counters.
pub fn pipeline_pass(
    code: CodeKind,
    tier: Tier,
    stream: &[Access],
    channel: &mut dyn Channel,
    tamper: &mut Tamper,
    check: &mut Check,
    mut rec: Option<&mut Recorder>,
) -> Result<PipelineMetrics, String> {
    let params = CodeParams::default();
    let mask = params.width.mask();
    let mut pipe = Pipeline::new(PipelineConfig::fixed_tier(code, params, tier, REFRESH))
        .map_err(|e| format!("{code} at {tier}: {e}"))?;
    let mut decoded = Vec::with_capacity(CHUNK);
    for chunk in stream.chunks(CHUNK) {
        let sent = Instant::now();
        let unrecovered = pipe.stats().unrecovered;
        decoded.clear();
        for access in chunk {
            decoded.push(
                pipe.process(*access, channel)
                    .map_err(|e| format!("{code} at {tier}: {e}"))?,
            );
        }
        let done = Instant::now();
        tamper.apply(&mut decoded);
        check.attempted += chunk.len() as u64;
        let before = check.failed;
        check.compare(
            &decoded,
            chunk.iter().map(|a| a.address & mask),
            &format!("pipeline {code} at {tier}"),
        );
        // An unrecovered word is decoded as the offered word, so only the
        // pipeline's own counter shows it.
        let lost = pipe.stats().unrecovered - unrecovered;
        if lost > 0 {
            check.fail(
                lost,
                format!("pipeline {code} at {tier}: {lost} words unrecovered"),
            );
        }
        if let Some(rec) = rec.as_deref_mut() {
            rec.record(
                done,
                done - sent,
                right_words(chunk.len(), check.failed - before),
            );
        }
    }
    Ok(pipe.stats())
}

/// Sends `stream` over a link pinned at `tier` through bursty weather
/// and checks exactly-once, in-order, uncorrupted delivery. The whole
/// transfer is one request to `rec`, with the words delivered right.
/// Returns the link's counters.
pub fn link_pass(
    code: CodeKind,
    tier: Tier,
    stream: &[Access],
    link_seed: u64,
    tamper: &mut Tamper,
    check: &mut Check,
    rec: Option<&mut Recorder>,
) -> Result<LinkMetrics, String> {
    let sent = Instant::now();
    let session = LinkSession::new(pinned_link(code, tier), GilbertElliott::gate(), link_seed)
        .map_err(|e| format!("link {code} at {tier}: {e}"))?;
    let outcome = session
        .run(stream)
        .map_err(|e| format!("link {code} at {tier}: {e}"))?;
    let done = Instant::now();
    let mut delivered = outcome.delivered;
    tamper.apply(&mut delivered);
    let mask = CodeParams::default().width.mask();
    check.attempted += stream.len() as u64;
    let before = check.failed;
    check.compare(
        &delivered,
        stream.iter().map(|a| a.address & mask),
        &format!("link {code} at {tier} delivery"),
    );
    let stats = outcome.stats;
    if check.failed == before && (stats.corrupted_delivered > 0 || stats.lost_words > 0) {
        check.fail(
            stats.corrupted_delivered + stats.lost_words,
            format!(
                "link {code} at {tier}: {} corrupted, {} lost",
                stats.corrupted_delivered, stats.lost_words
            ),
        );
    }
    if let Some(rec) = rec {
        rec.record(
            done,
            done - sent,
            right_words(stream.len(), check.failed - before),
        );
    }
    Ok(stats)
}

/// Words of a `len`-word request that came back right when `failed` of
/// them were counted as failed.
fn right_words(len: usize, failed: u64) -> usize {
    len.saturating_sub(failed as usize)
}

/// The soak-channel seed of pass `pass` over cell `cell`. Every pass
/// draws fresh faults, so the figures average over many fault patterns
/// rather than hinge on the few of one seed.
pub fn channel_seed(seed: u64, cell: usize, pass: u64) -> u64 {
    mix(seed, 0xc4, pass << 8 | cell as u64)
}

/// The link-channel seed of cell `cell`, draw `draw`.
fn link_seed(seed: u64, cell: usize, draw: u64) -> u64 {
    mix(seed, 0x11, draw << 8 | cell as u64)
}

/// Link weathers drawn for one cell before its run fails.
const LINK_DRAWS: u64 = 4;

/// Picks the link weather cell `cell` replays on every pass, and checks
/// it. The link weather is not drawn afresh each pass: CRC-16 lets a
/// corrupted frame through bursty weather about once in ten million
/// delivered words (about one seed in 360 has a cell whose first weather
/// hits it), so fresh weather would fail most runs. A weather that
/// delivers a wrong or lost word is set aside and the next one drawn;
/// only when [`LINK_DRAWS`] in a row fail, which a working link does not
/// do, do their failures count into `check`. Returns the weather's seed
/// and the number of weathers set aside.
pub fn link_weather(
    seed: u64,
    cell: usize,
    (code, tier): (CodeKind, Tier),
    stream: &[Access],
    check: &mut Check,
) -> Result<(u64, u64), String> {
    let mut tamper = Tamper::new(false, 0);
    let mut last = Check::default();
    for draw in 0..LINK_DRAWS {
        let link_seed = link_seed(seed, cell, draw);
        let mut trial = Check::default();
        link_pass(code, tier, stream, link_seed, &mut tamper, &mut trial, None)?;
        if trial.passed() {
            check.absorb(trial);
            return Ok((link_seed, draw));
        }
        last = trial;
    }
    check.absorb(last);
    Ok((link_seed(seed, cell, 0), LINK_DRAWS))
}

/// What set-up hands the timed window: the streams, each cell's link
/// weather, and how many weathers were set aside.
struct Prepared {
    streams: Vec<Vec<Access>>,
    link_seeds: Vec<u64>,
    set_aside: u64,
}

/// Generates the streams, runs one untimed, checked warm-up pass of every
/// cell through the pipeline, and picks and checks each cell's link
/// weather.
fn setup(seed: u64, check: &mut Check) -> Result<Prepared, String> {
    let streams = generate(seed);
    let mut tamper = Tamper::new(false, 0);
    let mut link_seeds = Vec::with_capacity(streams.len());
    let mut set_aside = 0;
    for (i, (cell, stream)) in cells().into_iter().zip(&streams).enumerate() {
        let mut channel = soak_channel(stream.len(), channel_seed(seed, i, 0));
        pipeline_pass(cell.0, cell.1, stream, &mut channel, &mut tamper, check, None)?;
        let (link_seed, draws) = link_weather(seed, i, cell, &stream[..LINK_WORDS], check)?;
        link_seeds.push(link_seed);
        set_aside += draws;
    }
    Ok(Prepared {
        streams,
        link_seeds,
        set_aside,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut check = Check::default();
    let mut tamper = Tamper::new(args.corrupt, mix(args.seed, 0x7a, 0));
    let (prepared, setup_s) =
        report::repeat_setup(|| setup(args.seed, &mut check), |_| Ok(()))?;
    let Prepared {
        streams,
        link_seeds,
        set_aside,
    } = prepared;

    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut rec = Recorder::new(start, args.seconds);
    let cells = cells();
    let mut pass = 0;
    while Instant::now() < deadline {
        pass += 1;
        for (i, (&(code, tier), stream)) in cells.iter().zip(&streams).enumerate() {
            let mut channel = soak_channel(stream.len(), channel_seed(args.seed, i, pass));
            let (tamper, check) = (&mut tamper, &mut check);
            pipeline_pass(
                code,
                tier,
                stream,
                &mut channel,
                tamper,
                check,
                Some(&mut rec),
            )?;
            link_pass(
                code,
                tier,
                &stream[..LINK_WORDS],
                link_seeds[i],
                tamper,
                check,
                Some(&mut rec),
            )?;
        }
    }
    let timing = report::summarize(rec)?;
    let mut outcome = report::end_to_end(setup_s, &timing, check)?;
    outcome
        .notes
        .push(format!("link weathers set aside in set-up: {set_aside}"));
    Ok(outcome)
}
