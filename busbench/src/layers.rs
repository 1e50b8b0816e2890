//! The traced run: the workload's generated inputs replayed through each
//! layer's public API on its own, from the packed kernels up to the
//! in-memory server round trip. Nothing inside the program is
//! instrumented; every span is a call the benchmark makes and times.
//!
//! A layer's self time is its own time minus the time of the layer it
//! calls; on the serve path that is
//! `serve.self = round trip − wire − 2 × transport − pipeline`, and a
//! negative one (the layers adding up to more than the round trip) fails
//! the run. Ratios between adjacent layers come from the same run, so
//! drift of the host's speed cancels in them.

use std::hint::black_box;
use std::time::{Duration, Instant};

use buscode_core::metrics::{
    count_transitions_per_word, count_transitions_slice, line_activity_slice,
};
use buscode_core::{Access, AccessKind, BusState, CodeKind, CodeParams};
use buscode_engine::SweepEngine;
use buscode_pipeline::{clean_channel, Channel, Pipeline, PipelineConfig, PipelineMetrics};
use buscode_serve::{
    memory_listener, memory_pair, BatchReply, ClientConfig, ClientSession, Message, Server,
    ServerConfig, Transport,
};

use crate::report::{median, Check, Metric, Outcome, Tamper};
use crate::serve::BATCH;
use crate::sweep::{Sweep, JOBS};
use crate::{cells, faulty, mix, Args, CELL_CODES, CELL_TIERS, REFRESH};

/// Words of the stream the stack and fault layers replay.
const TRACE_WORDS: usize = 16_384;
/// Words the per-code kernel layers replay.
const KERNEL_WORDS: usize = 3 * 16_384;
/// Frames per timed call of the transport ping-pong.
const PINGS: usize = 256;
/// Timed measurements in one traced run; each gets an equal share of
/// `--seconds`.
const MEASUREMENTS: u32 = 150;

/// Median wall time of one call of `f`, in nanoseconds, over at least
/// three calls and about `unit` of calls, after one untimed warm-up call.
fn per_call_ns(unit: Duration, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    f()?;
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() < 3 || started.elapsed() < unit {
        let t = Instant::now();
        f()?;
        times.push(t.elapsed().as_nanos() as f64);
    }
    Ok(median(&mut times))
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The first `words` words of `streams`, stream by stream.
fn take_words(streams: &[Vec<Access>], words: usize) -> Vec<Vec<Access>> {
    let mut left = words;
    let mut out = Vec::new();
    for s in streams {
        if left == 0 {
            break;
        }
        let n = s.len().min(left);
        out.push(s[..n].to_vec());
        left -= n;
    }
    out
}

struct Waterfall {
    unit: Duration,
    seed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    check: Check,
    tamper: Tamper,
}

impl Waterfall {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Core codecs → tier wrappers → pipeline → wire → transport →
    /// server, each on the same stream, for the 12 code × tier cells.
    fn stack(&mut self, trace: &[Access]) -> Result<(), String> {
        let params = CodeParams::default();
        let mask = params.width.mask();
        let n = trace.len() as f64;
        let kinds: Vec<AccessKind> = trace.iter().map(|a| a.kind).collect();
        let expected: Vec<u64> = trace.iter().map(|a| a.address & mask).collect();
        let unit = self.unit;

        let (mut count, mut block, mut dynamic) = (Vec::new(), Vec::new(), Vec::new());
        for code in CELL_CODES {
            let mut enc = code.encoder(params).map_err(|e| e.to_string())?;
            let mut dec = code.decoder(params).map_err(|e| e.to_string())?;
            count.push(
                per_call_ns(unit, || {
                    enc.reset();
                    black_box(count_transitions_slice(enc.as_mut(), black_box(trace)));
                    Ok(())
                })? / n,
            );
            let mut bus = Vec::with_capacity(trace.len());
            let mut out = Vec::with_capacity(trace.len());
            block.push(
                per_call_ns(unit, || {
                    enc.reset();
                    dec.reset();
                    bus.clear();
                    out.clear();
                    enc.encode_block(trace, &mut bus);
                    dec.decode_block(&bus, &kinds, &mut out)
                        .map_err(|e| format!("{code}: {e}"))
                })? / n,
            );
            self.tamper.apply(&mut out);
            self.check.attempted += trace.len() as u64;
            self.check.compare(
                &out,
                expected.iter().copied(),
                &format!("{code} block round trip"),
            );
            dynamic.push(
                per_call_ns(unit, || {
                    enc.reset();
                    dec.reset();
                    round_trip(
                        enc.as_mut(),
                        dec.as_mut(),
                        trace,
                        &expected,
                        &mut self.check,
                    )
                })? / n,
            );
        }

        let mut tier = Vec::new();
        let mut pipeline = Vec::new();
        for t in CELL_TIERS {
            let (mut tier_ns, mut pipe_ns) = (Vec::new(), Vec::new());
            for code in CELL_CODES {
                let (mut enc, mut dec) = code
                    .build_snapshot_codec(params, t, REFRESH)
                    .map_err(|e| e.to_string())?;
                tier_ns.push(
                    per_call_ns(unit, || {
                        enc.reset();
                        dec.reset();
                        round_trip(
                            enc.as_mut(),
                            dec.as_mut(),
                            trace,
                            &expected,
                            &mut self.check,
                        )
                    })? / n,
                );
                let mut pipe = Pipeline::new(PipelineConfig::fixed_tier(code, params, t, REFRESH))
                    .map_err(|e| e.to_string())?;
                let mut channel = clean_channel();
                pipe_ns.push(
                    per_call_ns(unit, || {
                        let mut wrong = 0u64;
                        for (access, want) in trace.iter().zip(&expected) {
                            let got = pipe
                                .process(*access, &mut channel)
                                .map_err(|e| e.to_string())?;
                            wrong += u64::from(got != *want);
                        }
                        self.check.attempted += trace.len() as u64;
                        if wrong > 0 {
                            self.check
                                .fail(wrong, format!("pipeline {code} at {t} decoded wrong"));
                        }
                        Ok(())
                    })? / n,
                );
            }
            self.push(format!("core.tier_ns_per_word.{t}"), mean(&tier_ns), "ns");
            self.push(
                format!("pipeline.process_ns_per_word.{t}"),
                mean(&pipe_ns),
                "ns",
            );
            tier.push(mean(&tier_ns));
            pipeline.push(mean(&pipe_ns));
        }
        let (count, block, dynamic) = (mean(&count), mean(&block), mean(&dynamic));
        let (tier, pipeline) = (mean(&tier), mean(&pipeline));
        self.push("core.dyn_ns_per_word", dynamic, "ns");
        self.push("core.block_ns_per_word", block, "ns");
        self.push("core.count_ns_per_word", count, "ns");

        let wire = self.wire(trace, &expected)? / n;
        let transport = self.transport(trace)?;
        let serve = self.serve(trace, &expected)?;
        let self_ns = serve - wire - 2.0 * transport / BATCH as f64 - pipeline;
        self.push("wire.codec_ns_per_word", wire, "ns");
        self.push("transport.memory_ns_per_frame", transport, "ns");
        self.push("serve.round_trip_ns_per_word", serve, "ns");
        self.push("serve.self_ns_per_word", self_ns, "ns");
        self.notes.push(format!(
            "serve waterfall per word: round trip {serve:.1} ns = wire {wire:.1} + transport {:.1} + pipeline {pipeline:.1} + serve self {self_ns:.1}",
            2.0 * transport / BATCH as f64
        ));
        self.check.attempted += 1;
        if self_ns < 0.0 {
            self.check.fail(
                1,
                "serve self time is negative: the layer times add up to more than the round trip"
                    .to_string(),
            );
        }
        self.push("ratio.serve_over_pipeline", serve / pipeline, "ratio");
        self.push("ratio.pipeline_over_tier", pipeline / tier, "ratio");
        self.push("ratio.tier_over_dyn", tier / dynamic, "ratio");
        self.push("ratio.dyn_over_block", dynamic / block, "ratio");
        self.push("ratio.block_over_count", block / count, "ratio");
        Ok(())
    }

    /// `Message::Data` and `Message::Decoded` encode + decode per 64-word
    /// batch; nanoseconds per pass over `trace`.
    fn wire(&mut self, trace: &[Access], expected: &[u64]) -> Result<f64, String> {
        let batches: Vec<(&[Access], &[u64])> =
            trace.chunks(BATCH).zip(expected.chunks(BATCH)).collect();
        let pass = |verify: bool| -> Result<u64, String> {
            let mut wrong = 0u64;
            for (seq, (accesses, addresses)) in batches.iter().enumerate() {
                let seq = seq as u32;
                let frame = Message::Data {
                    seq,
                    accesses: accesses.to_vec(),
                }
                .encode();
                let data = Message::decode(&frame).map_err(|e| e.to_string())?;
                let frame = Message::Decoded {
                    seq,
                    addresses: addresses.to_vec(),
                }
                .encode();
                let decoded = Message::decode(&frame).map_err(|e| e.to_string())?;
                if verify {
                    let data_ok =
                        matches!(&data, Message::Data { accesses: a, .. } if a == accesses);
                    let decoded_ok =
                        matches!(&decoded, Message::Decoded { addresses: a, .. } if a == addresses);
                    wrong += u64::from(!data_ok || !decoded_ok) * accesses.len() as u64;
                } else {
                    black_box((data, decoded));
                }
            }
            Ok(wrong)
        };
        let ns = per_call_ns(self.unit, || pass(false).map(|_| ()))?;
        let wrong = pass(true)?;
        self.check.attempted += trace.len() as u64;
        if wrong > 0 {
            self.check
                .fail(wrong, "wire frames did not round trip".to_string());
        }
        Ok(ns)
    }

    /// One in-memory transport hop with a 64-word DATA frame, timed as
    /// half a ping-pong between two threads, so the cross-thread wake-up
    /// the server path pays is included.
    fn transport(&mut self, trace: &[Access]) -> Result<f64, String> {
        let (near, far) = memory_pair();
        let (mut rx, mut tx) = (Box::new(near) as Box<dyn Transport>).split();
        let (mut echo_rx, mut echo_tx) = (Box::new(far) as Box<dyn Transport>).split();
        let frame = Message::Data {
            seq: 0,
            accesses: trace[..BATCH].to_vec(),
        }
        .encode();
        let unit = self.unit;
        let ns = std::thread::scope(|scope| {
            let echo = scope.spawn(move || {
                while let Ok(Some(frame)) = echo_rx.recv() {
                    if echo_tx.send(&frame).is_err() {
                        break;
                    }
                }
            });
            let timed = per_call_ns(unit, || {
                for _ in 0..PINGS {
                    tx.send(&frame).map_err(|e| e.to_string())?;
                    match rx.recv() {
                        Ok(Some(back)) if back == frame => {}
                        Ok(Some(_)) => return Err("transport echo changed the frame".to_string()),
                        _ => return Err("transport echo closed".to_string()),
                    }
                }
                Ok(())
            });
            tx.close();
            let joined = echo.join().map_err(|_| "echo thread panicked".to_string());
            joined.and(timed)
        })?;
        self.check.attempted += 1;
        Ok(ns / (2 * PINGS) as f64)
    }

    /// The in-memory server round trip: one worker, one closed-loop
    /// session per cell, 64-word requests; nanoseconds per word. Also
    /// reports the server's own counters.
    fn serve(&mut self, trace: &[Access], expected: &[u64]) -> Result<f64, String> {
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(Box::new(listener)));
        let unit = self.unit;
        let check = &mut self.check;
        let mut retries = 0u64;
        let mut replay = || -> Result<(f64, u64), String> {
            let mut sessions = Vec::new();
            for (code, tier) in cells() {
                let transport = connector.connect().map_err(|e| e.to_string())?;
                let config = ClientConfig {
                    code,
                    tier,
                    ..ClientConfig::default()
                };
                let session =
                    ClientSession::open(Box::new(transport), &config).map_err(|e| e.to_string())?;
                sessions.push(session);
            }
            let mut delivered = vec![0u64; sessions.len()];
            let ns = per_call_ns(unit, || {
                for (session, count) in sessions.iter_mut().zip(&mut delivered) {
                    for (accesses, want) in trace.chunks(BATCH).zip(expected.chunks(BATCH)) {
                        loop {
                            match session.request(accesses).map_err(|e| e.to_string())? {
                                BatchReply::Delivered(got) => {
                                    *count += got.len() as u64;
                                    check.attempted += accesses.len() as u64;
                                    check.compare(&got, want.iter().copied(), "serve reply");
                                    break;
                                }
                                BatchReply::Shed { hint_micros } => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_micros(
                                        u64::from(hint_micros).min(10_000),
                                    ));
                                }
                            }
                        }
                    }
                }
                Ok(())
            })?;
            let mut total = 0;
            for (session, count) in sessions.into_iter().zip(&delivered) {
                let (words, _shed) = session.close().map_err(|e| e.to_string())?;
                if words != *count {
                    check.fail(
                        words.abs_diff(*count),
                        format!("server delivered {words} words, client received {count}"),
                    );
                }
                total += count;
            }
            Ok((ns / (trace.len() * cells().len()) as f64, total))
        };
        let replayed = replay();
        handle.shutdown();
        let metrics = thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        let (ns, delivered) = replayed?;
        let answered = metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames;
        if metrics.requests != answered || metrics.delivered_words != delivered {
            self.check.fail(
                1,
                format!(
                    "server accounting: {} requests, {answered} answered, {} words counted, {delivered} received",
                    metrics.requests, metrics.delivered_words
                ),
            );
        }
        self.push("serve.requests", metrics.requests as f64, "count");
        self.push("serve.shed_frames", metrics.shed_frames as f64, "count");
        self.push(
            "serve.expired_frames",
            metrics.expired_frames as f64,
            "count",
        );
        self.push(
            "serve.delivered_words",
            metrics.delivered_words as f64,
            "count",
        );
        self.push("load.retries", retries as f64, "count");
        Ok(ns)
    }

    /// The pipeline under the soak channel against a clean one, the soak
    /// channel alone, and the link over bursty weather, for every cell.
    fn faults(&mut self, trace: &[Access]) -> Result<(), String> {
        let params = CodeParams::default();
        let n = trace.len() as f64;
        let unit = self.unit;
        let link_stream = &trace[..faulty::LINK_WORDS];
        let (mut clean, mut faulted, mut channel_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut counts = PipelineMetrics::default();
        let (mut link_ns, mut link_delivered, mut retransmissions, mut frames, mut corrupted) =
            (0.0, 0u64, 0u64, 0u64, 0u64);
        for (i, (code, tier)) in cells().into_iter().enumerate() {
            let channel_seed = faulty::channel_seed(self.seed, i, 0);
            let check = &mut self.check;
            let tamper = &mut self.tamper;
            clean.push(
                per_call_ns(unit, || {
                    let mut channel = clean_channel();
                    faulty::pipeline_pass(code, tier, trace, &mut channel, tamper, check, None)
                        .map(|_| ())
                })? / n,
            );
            let mut last = PipelineMetrics::default();
            faulted.push(
                per_call_ns(unit, || {
                    let mut channel = faulty::soak_channel(trace.len(), channel_seed);
                    last = faulty::pipeline_pass(
                        code,
                        tier,
                        trace,
                        &mut channel,
                        tamper,
                        check,
                        None,
                    )?;
                    Ok(())
                })? / n,
            );
            counts.faulted_words += last.faulted_words;
            counts.retries += last.retries;
            counts.forced_resyncs += last.forced_resyncs;
            counts.unrecovered += last.unrecovered;
            counts.escalations += last.escalations;
            counts.demotions += last.demotions;

            let mut enc = code
                .tier_snapshot_encoder(params, tier, REFRESH)
                .map_err(|e| e.to_string())?;
            let bus: Vec<BusState> = trace.iter().map(|a| enc.encode(*a)).collect();
            channel_ns.push(
                per_call_ns(unit, || {
                    let mut channel = faulty::soak_channel(trace.len(), channel_seed);
                    for (at, word) in bus.iter().enumerate() {
                        black_box(channel.transmit(at as u64, *word));
                    }
                    Ok(())
                })? / n,
            );

            let (link_seed, _) =
                faulty::link_weather(self.seed, i, (code, tier), link_stream, check)?;
            let mut stats = None;
            link_ns += per_call_ns(unit, || {
                stats = Some(faulty::link_pass(
                    code,
                    tier,
                    link_stream,
                    link_seed,
                    tamper,
                    check,
                    None,
                )?);
                Ok(())
            })?;
            let stats = stats.ok_or("link pass never ran")?;
            link_delivered += stats.delivered_words;
            retransmissions += stats.retransmissions;
            frames += stats.frames_sent;
            corrupted += stats.corrupted_delivered;
        }
        let (clean, faulted) = (mean(&clean), mean(&faulted));
        self.push("pipeline.faulted_ns_per_word", faulted, "ns");
        self.push("pipeline.clean_ns_per_word", clean, "ns");
        self.push("ratio.faulted_over_clean", faulted / clean, "ratio");
        self.push("fault.channel_ns_per_word", mean(&channel_ns), "ns");
        self.push(
            "pipeline.faulted_words",
            counts.faulted_words as f64,
            "count",
        );
        self.push("pipeline.retries", counts.retries as f64, "count");
        self.push(
            "pipeline.forced_resyncs",
            counts.forced_resyncs as f64,
            "count",
        );
        self.push("pipeline.unrecovered", counts.unrecovered as f64, "count");
        self.push("pipeline.escalations", counts.escalations as f64, "count");
        self.push("pipeline.demotions", counts.demotions as f64, "count");
        self.push(
            "link.ns_per_delivered_word",
            link_ns / link_delivered.max(1) as f64,
            "ns",
        );
        self.push("link.retransmissions", retransmissions as f64, "count");
        self.push(
            "link.goodput_ratio",
            link_delivered as f64 / frames.max(1) as f64,
            "ratio",
        );
        self.push("link.corrupted_delivered", corrupted as f64, "count");
        Ok(())
    }

    /// Per-code kernel rates over `streams`, and the sweep engine's
    /// sharding against the serial engine.
    fn kernels(&mut self, streams: &[Vec<Access>]) -> Result<(), String> {
        let params = CodeParams::default();
        let mask = params.width.mask();
        let unit = self.unit;
        let words: usize = streams.iter().map(Vec::len).sum();
        let rate = |ns: f64| words as f64 / ns * 1e9;
        let kinds: Vec<Vec<AccessKind>> = streams
            .iter()
            .map(|s| s.iter().map(|a| a.kind).collect())
            .collect();
        let (mut activity_ns, mut decode_ns, mut per_word_ns) = (0.0, 0.0, 0.0);
        let codes = CodeKind::all();
        for &code in &codes {
            let mut enc = code.encoder(params).map_err(|e| e.to_string())?;
            let mut dec = code.decoder(params).map_err(|e| e.to_string())?;
            let ns = per_call_ns(unit, || {
                for s in streams {
                    enc.reset();
                    black_box(count_transitions_slice(enc.as_mut(), black_box(s)));
                }
                Ok(())
            })?;
            self.push(
                format!("core.count_block_words_per_s.{code}"),
                rate(ns),
                "words/s",
            );
            let mut bus = Vec::with_capacity(KERNEL_WORDS);
            let ns = per_call_ns(unit, || {
                for s in streams {
                    enc.reset();
                    bus.clear();
                    enc.encode_block(black_box(s), &mut bus);
                    black_box(&bus);
                }
                Ok(())
            })?;
            self.push(
                format!("core.encode_block_words_per_s.{code}"),
                rate(ns),
                "words/s",
            );
            activity_ns += per_call_ns(unit, || {
                for s in streams {
                    enc.reset();
                    black_box(line_activity_slice(enc.as_mut(), black_box(s)));
                }
                Ok(())
            })?;
            let encoded: Vec<Vec<BusState>> = streams
                .iter()
                .map(|s| {
                    enc.reset();
                    let mut bus = Vec::with_capacity(s.len());
                    enc.encode_block(s, &mut bus);
                    bus
                })
                .collect();
            let mut out = Vec::with_capacity(KERNEL_WORDS);
            decode_ns += per_call_ns(unit, || {
                out.clear();
                for (bus, k) in encoded.iter().zip(&kinds) {
                    dec.reset();
                    dec.decode_block(bus, k, &mut out)
                        .map_err(|e| format!("{code}: {e}"))?;
                }
                Ok(())
            })?;
            self.check.attempted += words as u64;
            self.check.compare(
                &out,
                streams.iter().flatten().map(|a| a.address & mask),
                &format!("{code} decode_block"),
            );
            per_word_ns += per_call_ns(unit, || {
                for s in streams {
                    enc.reset();
                    black_box(count_transitions_per_word(
                        enc.as_mut(),
                        black_box(s).iter().copied(),
                    ));
                }
                Ok(())
            })?;
        }
        let all = codes.len() as f64;
        self.push(
            "core.activity_block_words_per_s",
            all * rate(activity_ns),
            "words/s",
        );
        self.push(
            "core.decode_block_words_per_s",
            all * rate(decode_ns),
            "words/s",
        );
        self.push(
            "core.per_word_words_per_s",
            all * rate(per_word_ns),
            "words/s",
        );

        let sweep = Sweep::new(streams.to_vec());
        let sharded = SweepEngine::new(JOBS);
        let (mut efficiency, mut speedup) = (Vec::new(), Vec::new());
        let started = Instant::now();
        while efficiency.len() < 3 || started.elapsed() < 4 * unit {
            let t = Instant::now();
            let serial = sweep.round(&SweepEngine::serial(), None);
            let serial_wall = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let parallel = sweep.round(&sharded, None);
            let wall = t.elapsed().as_secs_f64();
            let mut busy = 0.0;
            for (s, p) in serial.into_iter().zip(parallel) {
                let (s, p) = (s?, p?);
                busy += p.busy.as_secs_f64();
                self.check.attempted += 1;
                if s.stats != p.stats || s.activity != p.activity || s.wrong + p.wrong > 0 {
                    self.check
                        .fail(1, "sharded sweep cell differs from serial".to_string());
                }
            }
            efficiency.push(busy / (JOBS as f64 * wall));
            speedup.push(serial_wall / wall);
        }
        self.push("engine.shard_efficiency", median(&mut efficiency), "ratio");
        self.push("engine.serial_over_sharded", median(&mut speedup), "ratio");
        Ok(())
    }
}

/// Per-word encode → decode of `trace` through boxed codecs, checked
/// against `expected`.
fn round_trip<E, D>(
    enc: &mut E,
    dec: &mut D,
    trace: &[Access],
    expected: &[u64],
    check: &mut Check,
) -> Result<(), String>
where
    E: buscode_core::Encoder + ?Sized,
    D: buscode_core::Decoder + ?Sized,
{
    let mut wrong = 0u64;
    for (access, want) in trace.iter().zip(expected) {
        let word = enc.encode(*access);
        let got = dec.decode(word, access.kind).map_err(|e| e.to_string())?;
        wrong += u64::from(got != *want);
    }
    check.attempted += trace.len() as u64;
    if wrong > 0 {
        check.fail(
            wrong,
            format!("{} per-word round trip decoded wrong", enc.name()),
        );
    }
    Ok(())
}

/// The traced run of a workload whose inputs `generate` makes.
pub fn run(args: &Args, generate: fn(u64) -> Vec<Vec<Access>>) -> Result<Outcome, String> {
    let started = Instant::now();
    let streams = generate(args.seed);
    let generate_ns = started.elapsed().as_nanos() as f64;
    let generated: usize = streams.iter().map(Vec::len).sum();
    let trace: Vec<Access> = streams
        .iter()
        .flatten()
        .copied()
        .take(TRACE_WORDS)
        .collect();
    if trace.len() < TRACE_WORDS {
        return Err(format!("the workload generates only {} words", trace.len()));
    }
    let mut w = Waterfall {
        unit: args.seconds / MEASUREMENTS,
        seed: args.seed,
        metrics: Vec::new(),
        notes: Vec::new(),
        check: Check::default(),
        tamper: Tamper::new(args.corrupt, mix(args.seed, 0x7a, 0x7e)),
    };
    w.stack(&trace)?;
    w.faults(&trace)?;
    w.kernels(&take_words(&streams, KERNEL_WORDS))?;
    w.push(
        "trace.generate_ns_per_word",
        generate_ns / generated as f64,
        "ns",
    );
    let failed_fraction = w.check.failed_fraction();
    w.push("failed_fraction", failed_fraction, "ratio");
    Ok(Outcome {
        check: w.check,
        metrics: w.metrics,
        notes: w.notes,
    })
}
