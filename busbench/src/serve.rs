//! `serve_closed`: an in-memory `Server` with one worker, driven closed
//! loop by two load threads. Each thread holds one `ClientSession` per
//! code × tier cell and cycles through the cells, sending 64-word batches
//! of the muxed `session_workload` stream and waiting for each reply.
//!
//! Small batches make the per-request and per-word supervision cost
//! dominate: wire framing and CRC, the transport hops, the server's
//! shared metrics lock, reply vectors and the pipeline's per-word
//! snapshot.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use buscode_core::{Access, CodeParams};
use buscode_serve::{
    memory_listener, session_workload, BatchReply, ClientConfig, ClientSession, ServeMetrics,
    Server, ServerConfig, ServerHandle, WireError,
};

use crate::report::{self, Check, Outcome, Recorder, Tamper};
use crate::{cells, mix, Args};

/// Closed-loop load threads, each with one session per cell.
const SESSIONS: usize = 2;
/// Words per DATA request.
pub const BATCH: usize = 64;
/// Words of each session's stream; the stream is replayed in a cycle.
const STREAM_WORDS: usize = 64 * BATCH;
/// Requests each session sends during set-up, untimed.
const WARMUP_BATCHES: usize = 16;
/// Retries of a shed batch before it is abandoned (and failed).
const MAX_RETRIES: u32 = 32;

/// The streams of every session, lane-major: `SESSIONS × 12` streams of
/// `STREAM_WORDS` words.
pub fn generate(seed: u64) -> Vec<Vec<Access>> {
    let cells = cells().len();
    (0..SESSIONS * cells)
        .map(|i| session_workload(STREAM_WORDS, mix(seed, 0x5e, i as u64)))
        .collect()
}

/// One load thread's sessions, their streams and its tallies.
struct Lane {
    sessions: Vec<ClientSession>,
    streams: Vec<Vec<Access>>,
    /// Words delivered to each session, to compare with the server's
    /// own count when the session closes.
    delivered: Vec<u64>,
    retries: u64,
    check: Check,
    tamper: Tamper,
}

impl Lane {
    /// Sends one batch on session `cell` and checks the reply, retrying
    /// a shed batch after the server's hint.
    fn request(
        &mut self,
        cell: usize,
        chunk: &[Access],
        rec: Option<&mut Recorder>,
    ) -> Result<(), String> {
        let mask = CodeParams::default().width.mask();
        let mut attempt = 0u32;
        loop {
            let sent = Instant::now();
            match self.sessions[cell].request(chunk) {
                Ok(BatchReply::Delivered(mut addresses)) => {
                    if let Some(rec) = rec {
                        rec.request(sent, chunk.len());
                    }
                    self.tamper.apply(&mut addresses);
                    self.delivered[cell] += addresses.len() as u64;
                    self.check.attempted += chunk.len() as u64;
                    self.check.compare(
                        &addresses,
                        chunk.iter().map(|a| a.address & mask),
                        "serve reply",
                    );
                    return Ok(());
                }
                Ok(BatchReply::Shed { hint_micros }) => {
                    self.retries += 1;
                    if attempt >= MAX_RETRIES {
                        self.check.attempted += chunk.len() as u64;
                        self.check.fail(
                            chunk.len() as u64,
                            "batch abandoned after retries".to_string(),
                        );
                        return Ok(());
                    }
                    std::thread::sleep(Duration::from_micros(u64::from(hint_micros).min(10_000)));
                    attempt += 1;
                }
                Err(err) => return Err(format!("session request failed: {err}")),
            }
        }
    }

    /// Sends the first few batches of every cell's stream, untimed.
    fn warm_up(&mut self) -> Result<(), String> {
        for cell in 0..self.sessions.len() {
            let stream = std::mem::take(&mut self.streams[cell]);
            let result = stream
                .chunks(BATCH)
                .take(WARMUP_BATCHES)
                .try_for_each(|chunk| self.request(cell, chunk, None));
            self.streams[cell] = stream;
            result?;
        }
        Ok(())
    }

    /// Cycles through the cells, batch by batch, until `deadline`.
    fn drive(&mut self, deadline: Instant, rec: &mut Recorder) -> Result<(), String> {
        loop {
            for cell in 0..self.sessions.len() {
                let stream = std::mem::take(&mut self.streams[cell]);
                let mut result = Ok(());
                for chunk in stream.chunks(BATCH) {
                    if Instant::now() >= deadline {
                        break;
                    }
                    result = self.request(cell, chunk, Some(rec));
                    if result.is_err() {
                        break;
                    }
                }
                self.streams[cell] = stream;
                result?;
                if Instant::now() >= deadline {
                    return Ok(());
                }
            }
        }
    }
}

/// A running server with every session open.
pub struct Rig {
    lanes: Vec<Lane>,
    handle: ServerHandle,
    server: Option<JoinHandle<Result<ServeMetrics, WireError>>>,
}

impl Rig {
    /// Generates the streams, starts the server, opens every session and
    /// sends a few untimed warm-up batches on each.
    fn setup(seed: u64, corrupt: bool) -> Result<Rig, String> {
        let mut streams = generate(seed).into_iter();
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(Box::new(listener)));
        let mut rig = Rig {
            lanes: Vec::new(),
            handle,
            server: Some(thread),
        };
        for lane in 0..SESSIONS {
            let mut sessions = Vec::new();
            for (code, tier) in cells() {
                let transport = connector
                    .connect()
                    .map_err(|e| format!("cannot connect: {e}"))?;
                let config = ClientConfig {
                    code,
                    tier,
                    ..ClientConfig::default()
                };
                let session = ClientSession::open(Box::new(transport), &config)
                    .map_err(|e| format!("cannot open {code} at {tier}: {e}"))?;
                sessions.push(session);
            }
            let n = sessions.len();
            rig.lanes.push(Lane {
                sessions,
                streams: streams.by_ref().take(n).collect(),
                delivered: vec![0; n],
                retries: 0,
                check: Check::default(),
                tamper: Tamper::new(corrupt, mix(seed, 0x7a, lane as u64)),
            });
        }
        // The lanes warm up concurrently, as they run in the timed window.
        std::thread::scope(|scope| {
            let threads: Vec<_> = rig
                .lanes
                .iter_mut()
                .map(|lane| scope.spawn(move || lane.warm_up()))
                .collect();
            threads.into_iter().try_for_each(|t| {
                t.join()
                    .map_err(|_| "warm-up thread panicked".to_string())?
            })
        })?;
        Ok(rig)
    }

    /// Closes every session, checking the server's per-session word
    /// count against the client's, drains the server and checks its
    /// accounting: every request answered once, every word delivered
    /// once.
    fn finish(mut self) -> Result<(Check, u64, ServeMetrics), String> {
        let mut check = Check::default();
        let mut retries = 0;
        let mut delivered_total = 0;
        for mut lane in std::mem::take(&mut self.lanes) {
            for (session, delivered) in lane.sessions.drain(..).zip(&lane.delivered) {
                let (words, _shed) = session
                    .close()
                    .map_err(|e| format!("cannot close session: {e}"))?;
                if words != *delivered {
                    check.fail(
                        words.abs_diff(*delivered),
                        format!("server delivered {words} words, client received {delivered}"),
                    );
                }
                delivered_total += delivered;
            }
            retries += lane.retries;
            check.absorb(lane.check);
        }
        self.handle.shutdown();
        let metrics = self
            .server
            .take()
            .ok_or("server already stopped")?
            .join()
            .map_err(|_| "server thread panicked")?
            .map_err(|e| format!("server failed: {e}"))?;
        let answered = metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames;
        if metrics.requests != answered {
            check.fail(
                metrics.requests.abs_diff(answered),
                format!(
                    "requests {} != delivered {} + shed {} + expired {}",
                    metrics.requests,
                    metrics.delivered_frames,
                    metrics.shed_frames,
                    metrics.expired_frames
                ),
            );
        }
        if metrics.delivered_words != delivered_total {
            check.fail(
                metrics.delivered_words.abs_diff(delivered_total),
                format!(
                    "server counted {} delivered words, clients {delivered_total}",
                    metrics.delivered_words
                ),
            );
        }
        Ok((check, retries, metrics))
    }
}

impl Drop for Rig {
    /// Stops the server on every path, including early errors: dropping
    /// the sessions ends their streams, and the drain joins every thread.
    fn drop(&mut self) {
        self.lanes.clear();
        self.handle.shutdown();
        if let Some(thread) = self.server.take() {
            let _ = thread.join();
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut check = Check::default();
    let (mut rig, setup_s) = report::repeat_setup(
        || Rig::setup(args.seed, args.corrupt),
        |old| {
            let (c, _, _) = old.finish()?;
            check.absorb(c);
            Ok(())
        },
    )?;

    let start = Instant::now();
    let deadline = start + args.seconds;
    let mut lanes = std::mem::take(&mut rig.lanes);
    let recorders = std::thread::scope(|scope| {
        let threads: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(start, args.seconds);
                    lane.drive(deadline, &mut rec).map(|()| rec)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().map_err(|_| "load thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    rig.lanes = lanes;
    let mut rec = Recorder::new(start, args.seconds);
    for r in recorders {
        rec.absorb(r);
    }
    let timing = report::summarize(rec)?;
    let (c, retries, metrics) = rig.finish()?;
    check.absorb(c);
    let mut outcome = report::end_to_end(setup_s, &timing, check)?;
    outcome.notes.push(format!(
        "serve_closed: {} sessions x {} cells, 1 worker, {BATCH}-word batches; server saw {} requests, {} shed, {} expired; {retries} client retries",
        SESSIONS,
        cells().len(),
        metrics.requests,
        metrics.shed_frames,
        metrics.expired_frames
    ));
    Ok(outcome)
}
