//! `busserved`'s runtime: per-session encoding pipelines, run to
//! completion by the threads that read their frames, under a bounded
//! number of permits.
//!
//! Each accepted connection gets a dedicated reader thread that parses
//! frames and enqueues work onto the session's *bounded* queue, then
//! schedules the session. While one of the [`ServerConfig::workers`]
//! permits is free, the scheduling thread streams the queued batches
//! through the session's pinned [`Pipeline`] itself, so a request is
//! usually coded on the thread that read it, with no hand-off. A session
//! scheduled while every permit is held waits in a ready list, and the
//! permit holder runs it before letting its permit go.
//!
//! A session's queue fills while the session waits for a permit or is
//! run by another thread; a DATA frame that finds it full is shed with
//! a typed [`Message::RetryAfter`] reply instead of being buffered
//! unboundedly, and a batch that waits past the configured deadline is
//! expired with the same typed reply — the queue-age watchdog mirrors
//! the pipeline's own chunk watchdog contract. A reader that is coding
//! its own session reads no frames meanwhile, so its peer is pushed
//! back through the transport instead.
//!
//! Graceful drain (an admin [`Message::Shutdown`] frame or
//! [`ServerHandle::shutdown`]): the listener stops accepting, every
//! session's inbound direction is half-closed so buffered frames still
//! drain, every reader flushes what it queued before it returns, and
//! [`Server::run`] returns the final [`ServeMetrics`] — zero in-flight
//! words lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use buscode_core::{BusWidth, CodeParams, Stride, Tier};
use buscode_pipeline::{clean_channel, Pipeline, PipelineConfig, PipelineError};
use buscode_telemetry::MetricSet;

use crate::transport::{Listener, SendHalf, Transport};
use crate::wire::{
    Message, WireError, INTERNAL_ERROR, REJECT_BAD_PARAMS, REJECT_DRAINING, REJECT_FULL,
};

/// Tunables for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Permits: how many sessions are coded at once (at least 1). A
    /// reader codes its own session inline while a permit is free.
    pub workers: usize,
    /// Per-session queue depth; a full queue sheds with RETRY-AFTER.
    pub queue_depth: usize,
    /// Queue-age deadline per batch, in microseconds; `None` disables
    /// the watchdog.
    pub deadline_micros: Option<u64>,
    /// The backoff hint carried in RETRY-AFTER replies, in microseconds.
    pub retry_after_micros: u32,
    /// Concurrent session cap; beyond it new HELLOs are rejected.
    pub max_sessions: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_depth: 4,
            deadline_micros: None,
            retry_after_micros: 500,
            max_sessions: 256,
        }
    }
}

/// The server's lifetime counters, rendered under the `serve.` prefix.
///
/// Invariant: `requests == delivered_frames + shed_frames +
/// expired_frames` — every DATA frame is answered exactly once, either
/// with its decoded words or with a typed shed reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Sessions accepted (HELLO → HELLO-OK).
    pub sessions_opened: u64,
    /// Sessions fully closed and flushed.
    pub sessions_closed: u64,
    /// HELLOs refused (draining, table full, bad parameters).
    pub sessions_rejected: u64,
    /// DATA frames received.
    pub requests: u64,
    /// DATA frames answered with DECODED.
    pub delivered_frames: u64,
    /// Words delivered inside DECODED replies.
    pub delivered_words: u64,
    /// DATA frames shed at enqueue (queue full).
    pub shed_frames: u64,
    /// DATA frames expired by the queue-age watchdog.
    pub expired_frames: u64,
    /// Frames that failed to parse or arrived out of protocol.
    pub protocol_errors: u64,
    /// Admin SHUTDOWN frames honoured.
    pub shutdowns: u64,
    /// Sessions flushed by the drain path (still open at shutdown).
    pub drained_sessions: u64,
    /// Pipeline fatal errors surfaced as ERROR replies.
    pub internal_errors: u64,
    /// Pipeline chunk-watchdog fires aggregated across closed sessions.
    pub watchdog_fires: u64,
}

impl ServeMetrics {
    /// Collapses the counters onto a telemetry snapshot.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.add_counter("serve.sessions_opened", self.sessions_opened);
        set.add_counter("serve.sessions_closed", self.sessions_closed);
        set.add_counter("serve.sessions_rejected", self.sessions_rejected);
        set.add_counter("serve.requests", self.requests);
        set.add_counter("serve.delivered_frames", self.delivered_frames);
        set.add_counter("serve.delivered_words", self.delivered_words);
        set.add_counter("serve.shed_frames", self.shed_frames);
        set.add_counter("serve.expired_frames", self.expired_frames);
        set.add_counter("serve.protocol_errors", self.protocol_errors);
        set.add_counter("serve.shutdowns", self.shutdowns);
        set.add_counter("serve.drained_sessions", self.drained_sessions);
        set.add_counter("serve.internal_errors", self.internal_errors);
        set.add_counter("serve.watchdog_fires", self.watchdog_fires);
        set
    }
}

enum Work {
    Data {
        seq: u32,
        accesses: Vec<buscode_core::Access>,
        enqueued: Instant,
    },
    Close,
}

struct SessionCore {
    pipeline: Pipeline,
    words: u64,
}

struct Session {
    id: u64,
    queue: Mutex<VecDeque<Work>>,
    scheduled: AtomicBool,
    core: Mutex<SessionCore>,
    shed: AtomicU64,
    sender: Mutex<Box<dyn SendHalf>>,
    closed: AtomicBool,
}

impl Session {
    fn send(&self, message: &Message) {
        let frame = message.encode();
        let mut sender = lock(&self.sender);
        let _ = sender.send(&frame);
    }
}

struct Shared {
    config: ServerConfig,
    metrics: Mutex<ServeMetrics>,
    /// Free permits, out of `config.workers`.
    permits: Mutex<usize>,
    /// Scheduled sessions waiting for a permit.
    ready: Mutex<VecDeque<Arc<Session>>>,
    sessions: Mutex<Vec<Arc<Session>>>,
    next_session: AtomicU64,
    draining: AtomicBool,
    close_listener: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        if let Some(closer) = lock(&self.close_listener).take() {
            closer();
        }
    }

    /// Marks `session` ready and, while a permit is free, runs ready
    /// sessions on the calling thread. A thread that finds no permit
    /// leaves the session in `ready`; the holder re-checks `ready` after
    /// returning its permit, so the session is never stranded.
    fn schedule(&self, session: &Arc<Session>) {
        if session.scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        lock(&self.ready).push_back(Arc::clone(session));
        loop {
            {
                let mut permits = lock(&self.permits);
                if *permits == 0 {
                    return;
                }
                *permits -= 1;
            }
            loop {
                let Some(session) = lock(&self.ready).pop_front() else {
                    break;
                };
                process_session(self, &session);
                session.scheduled.store(false, Ordering::Release);
                // A reader may have enqueued after the queue ran dry
                // but before the flag reset; re-queue so no work is
                // stranded.
                if !lock(&session.queue).is_empty()
                    && !session.scheduled.swap(true, Ordering::AcqRel)
                {
                    lock(&self.ready).push_back(session);
                }
            }
            *lock(&self.permits) += 1;
            if lock(&self.ready).is_empty() {
                return;
            }
        }
    }
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begins the graceful drain: stop accepting, flush every in-flight
    /// session, make [`Server::run`] return.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }
}

/// The concurrent encoding service.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Creates a server with the given tunables.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        Server {
            shared: Arc::new(Shared {
                config,
                metrics: Mutex::new(ServeMetrics::default()),
                permits: Mutex::new(config.workers.max(1)),
                ready: Mutex::new(VecDeque::new()),
                sessions: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(1),
                draining: AtomicBool::new(false),
                close_listener: Mutex::new(None),
            }),
        }
    }

    /// A handle usable from other threads to trigger the drain.
    #[must_use]
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves connections from `listener` until drained, then returns
    /// the final counters.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] only for listener-level failures; session
    /// faults are answered in-protocol and counted instead.
    pub fn run(self, mut listener: Box<dyn Listener>) -> Result<ServeMetrics, WireError> {
        *lock(&self.shared.close_listener) = Some(listener.closer());
        if self.shared.draining.load(Ordering::Acquire) {
            // A shutdown raced server start-up: close immediately.
            if let Some(closer) = lock(&self.shared.close_listener).take() {
                closer();
            }
        }

        let mut readers: Vec<JoinHandle<()>> = Vec::new();
        loop {
            match listener.accept() {
                Ok(Some(transport)) => {
                    // Release the readers that have returned: an exited
                    // thread keeps its stack mapped until its handle is
                    // joined or dropped, and drain discards the result.
                    readers.retain(|reader| !reader.is_finished());
                    let shared = Arc::clone(&self.shared);
                    readers.push(std::thread::spawn(move || {
                        reader_loop(&shared, transport);
                    }));
                }
                Ok(None) => break,
                Err(err) => {
                    // The listener died; drain what we have and report.
                    self.shared.begin_drain();
                    drain(&self.shared, readers);
                    return Err(err);
                }
            }
        }

        self.shared.begin_drain();
        drain(&self.shared, readers);
        let metrics = *lock(&self.shared.metrics);
        Ok(metrics)
    }
}

fn drain(shared: &Shared, readers: Vec<JoinHandle<()>>) {
    // Half-close every live session's inbound direction: peers can no
    // longer submit, but frames already buffered still reach the
    // readers, which enqueue them and then a CLOSE at EOF.
    let live: Vec<Arc<Session>> = lock(&shared.sessions).clone();
    for session in &live {
        lock(&session.sender).shutdown_read();
    }
    {
        let mut metrics = lock(&shared.metrics);
        metrics.drained_sessions += live.len() as u64;
    }
    // A reader with a session returns only after scheduling its CLOSE,
    // and a permit holder empties `ready` before it returns, so once
    // every reader has returned every queue is flushed.
    for reader in readers {
        let _ = reader.join();
    }
}

fn reader_loop(shared: &Arc<Shared>, transport: Box<dyn Transport>) {
    let (mut recv, send) = transport.split();

    // The first frame must negotiate a session (or be an admin drain).
    let hello = match recv.recv() {
        Ok(Some(frame)) => match Message::decode(&frame) {
            Ok(message) => message,
            Err(err) => {
                let mut send = send;
                let _ = send.send(
                    &Message::Error {
                        code: err.code(),
                        detail: err.to_string(),
                    }
                    .encode(),
                );
                send.close();
                lock(&shared.metrics).protocol_errors += 1;
                return;
            }
        },
        _ => return,
    };

    let (code, width, stride, tier, refresh) = match hello {
        Message::Hello {
            code,
            width,
            stride,
            tier,
            refresh,
        } => (code, width, stride, tier, refresh),
        Message::Shutdown => {
            let mut send = send;
            let _ = send.send(&Message::ShutdownOk.encode());
            send.close();
            lock(&shared.metrics).shutdowns += 1;
            shared.begin_drain();
            return;
        }
        _ => {
            let mut send = send;
            let _ = send.send(
                &Message::Error {
                    code: WireError::Malformed {
                        what: "expected HELLO",
                    }
                    .code(),
                    detail: "first frame must be HELLO".to_string(),
                }
                .encode(),
            );
            send.close();
            lock(&shared.metrics).protocol_errors += 1;
            return;
        }
    };

    let reject = |mut send: Box<dyn SendHalf>, code: u8, reason: &str| {
        let _ = send.send(
            &Message::Reject {
                code,
                reason: reason.to_string(),
            }
            .encode(),
        );
        send.close();
        lock(&shared.metrics).sessions_rejected += 1;
    };

    if shared.draining.load(Ordering::Acquire) {
        reject(send, REJECT_DRAINING, "server is draining");
        return;
    }
    if lock(&shared.sessions).len() >= shared.config.max_sessions {
        reject(send, REJECT_FULL, "session table is full");
        return;
    }

    let pipeline = match build_pipeline(shared, code, width, stride, tier, refresh) {
        Ok(pipeline) => pipeline,
        Err(reason) => {
            reject(send, REJECT_BAD_PARAMS, &reason);
            return;
        }
    };

    let session = Arc::new(Session {
        id: shared.next_session.fetch_add(1, Ordering::Relaxed),
        queue: Mutex::new(VecDeque::new()),
        scheduled: AtomicBool::new(false),
        core: Mutex::new(SessionCore { pipeline, words: 0 }),
        shed: AtomicU64::new(0),
        sender: Mutex::new(send),
        closed: AtomicBool::new(false),
    });
    lock(&shared.sessions).push(Arc::clone(&session));
    {
        let mut metrics = lock(&shared.metrics);
        metrics.sessions_opened += 1;
    }
    session.send(&Message::HelloOk {
        session: session.id,
    });

    // Steady state: parse frames, enqueue work, shed when full.
    loop {
        let frame = match recv.recv() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                enqueue_close(shared, &session);
                return;
            }
            Err(err) => {
                session.send(&Message::Error {
                    code: err.code(),
                    detail: err.to_string(),
                });
                lock(&shared.metrics).protocol_errors += 1;
                enqueue_close(shared, &session);
                return;
            }
        };
        match Message::decode(&frame) {
            Ok(Message::Data { seq, accesses }) => {
                lock(&shared.metrics).requests += 1;
                let full = {
                    let mut queue = lock(&session.queue);
                    if queue.len() >= shared.config.queue_depth {
                        true
                    } else {
                        queue.push_back(Work::Data {
                            seq,
                            accesses,
                            enqueued: Instant::now(),
                        });
                        false
                    }
                };
                if full {
                    session.shed.fetch_add(1, Ordering::Relaxed);
                    lock(&shared.metrics).shed_frames += 1;
                    session.send(&Message::RetryAfter {
                        seq,
                        hint_micros: shared.config.retry_after_micros,
                    });
                } else {
                    shared.schedule(&session);
                }
            }
            Ok(Message::Close) => {
                enqueue_close(shared, &session);
                return;
            }
            Ok(Message::Shutdown) => {
                session.send(&Message::ShutdownOk);
                lock(&shared.metrics).shutdowns += 1;
                shared.begin_drain();
                enqueue_close(shared, &session);
                return;
            }
            Ok(_) => {
                session.send(&Message::Error {
                    code: WireError::Malformed {
                        what: "unexpected message in session",
                    }
                    .code(),
                    detail: "only DATA, CLOSE, SHUTDOWN are valid in a session".to_string(),
                });
                lock(&shared.metrics).protocol_errors += 1;
                enqueue_close(shared, &session);
                return;
            }
            Err(err) => {
                session.send(&Message::Error {
                    code: err.code(),
                    detail: err.to_string(),
                });
                lock(&shared.metrics).protocol_errors += 1;
                enqueue_close(shared, &session);
                return;
            }
        }
    }
}

fn build_pipeline(
    shared: &Shared,
    code: buscode_core::CodeKind,
    width: u8,
    stride: u64,
    tier: Tier,
    refresh: u32,
) -> Result<Pipeline, String> {
    let bus_width = BusWidth::new(u32::from(width)).map_err(|e| e.to_string())?;
    let stride = Stride::new(stride, bus_width).map_err(|e| e.to_string())?;
    let params = CodeParams {
        width: bus_width,
        stride,
    };
    let refresh = if refresh == 0 { 64 } else { u64::from(refresh) };
    let mut config = PipelineConfig::fixed_tier(code, params, tier, refresh);
    config.deadline_micros = shared.config.deadline_micros;
    Pipeline::new(config).map_err(|e| e.to_string())
}

fn enqueue_close(shared: &Arc<Shared>, session: &Arc<Session>) {
    lock(&session.queue).push_back(Work::Close);
    shared.schedule(session);
}

fn process_session(shared: &Shared, session: &Session) {
    loop {
        let work = match lock(&session.queue).pop_front() {
            Some(work) => work,
            None => return,
        };
        if session.closed.load(Ordering::Acquire) {
            // The session died (fatal pipeline error); late frames are
            // shed so the exactly-once accounting still balances.
            if matches!(work, Work::Data { .. }) {
                session.shed.fetch_add(1, Ordering::Relaxed);
                lock(&shared.metrics).shed_frames += 1;
            }
            continue;
        }
        match work {
            Work::Data {
                seq,
                accesses,
                enqueued,
            } => {
                if let Some(deadline) = shared.config.deadline_micros {
                    if enqueued.elapsed().as_micros() as u64 > deadline {
                        // Queue-age watchdog: the batch waited too long;
                        // expire it with the typed shed reply rather
                        // than deliver stale work.
                        session.shed.fetch_add(1, Ordering::Relaxed);
                        lock(&shared.metrics).expired_frames += 1;
                        session.send(&Message::RetryAfter {
                            seq,
                            hint_micros: shared.config.retry_after_micros,
                        });
                        continue;
                    }
                }
                let mut core = lock(&session.core);
                let mut channel = clean_channel();
                let mut addresses = Vec::with_capacity(accesses.len());
                let mut fatal = None;
                for access in &accesses {
                    match core.pipeline.process(*access, &mut channel) {
                        Ok(decoded) => addresses.push(decoded),
                        Err(PipelineError::Fatal { word, error }) => {
                            fatal = Some(format!("fatal codec error at word {word}: {error}"));
                            break;
                        }
                        Err(other) => {
                            fatal = Some(other.to_string());
                            break;
                        }
                    }
                }
                core.words += addresses.len() as u64;
                drop(core);
                if let Some(detail) = fatal {
                    lock(&shared.metrics).internal_errors += 1;
                    session.send(&Message::Error {
                        code: INTERNAL_ERROR,
                        detail,
                    });
                    close_session(shared, session);
                    return;
                }
                {
                    let mut metrics = lock(&shared.metrics);
                    metrics.delivered_frames += 1;
                    metrics.delivered_words += addresses.len() as u64;
                }
                session.send(&Message::Decoded { seq, addresses });
            }
            Work::Close => {
                close_session(shared, session);
                return;
            }
        }
    }
}

fn close_session(shared: &Shared, session: &Session) {
    if session.closed.swap(true, Ordering::AcqRel) {
        return;
    }
    let (words, pipeline_watchdogs) = {
        let core = lock(&session.core);
        (core.words, core.pipeline.stats().watchdog_fires)
    };
    session.send(&Message::Closed {
        words,
        shed: session.shed.load(Ordering::Relaxed),
    });
    lock(&session.sender).close();
    {
        let mut metrics = lock(&shared.metrics);
        metrics.sessions_closed += 1;
        metrics.watchdog_fires += pipeline_watchdogs;
    }
    lock(&shared.sessions).retain(|s| s.id != session.id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{BatchReply, ClientConfig, ClientSession};
    use crate::load::session_workload;
    use crate::transport::{memory_listener, RecvHalf};
    use buscode_core::{Access, CodeKind};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// Runs `body` on its own thread and fails, instead of hanging, if
    /// it has not finished within `secs` seconds.
    fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = done.send(body());
        });
        match finished.recv_timeout(Duration::from_secs(secs)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => {
                panic!("stalled for {secs} s: lost wake-up or stranded session")
            }
            Err(RecvTimeoutError::Disconnected) => match thread.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the body returned without sending"),
            },
        }
    }

    /// 32 concurrent closed-loop sessions spread over every code × tier,
    /// at 1, 2 and 4 permits, so sessions queue for permits and are run
    /// by other readers' threads.
    #[test]
    fn sessions_sharing_permits_deliver_every_word_once() {
        const LANES: usize = 32;
        const BATCH: usize = 8;
        const WORDS: usize = 96;
        let cells: Vec<(CodeKind, Tier)> = CodeKind::all()
            .into_iter()
            .flat_map(|code| Tier::all().iter().map(move |&tier| (code, tier)))
            .collect();
        for workers in [1, 2, 4] {
            let cells = cells.clone();
            within(120, move || {
                let (listener, connector) = memory_listener();
                let server = Server::new(ServerConfig {
                    workers,
                    ..ServerConfig::default()
                });
                let handle = server.handle();
                let run = std::thread::spawn(move || server.run(Box::new(listener)));
                let delivered: u64 = std::thread::scope(|scope| {
                    let lanes: Vec<_> = (0..LANES)
                        .map(|lane| {
                            let (cells, connector) = (&cells, &connector);
                            scope.spawn(move || {
                                // Lane `lane` opens cells lane, lane + 32, …
                                let mut words = 0;
                                for (i, &(code, tier)) in
                                    cells.iter().enumerate().skip(lane).step_by(LANES)
                                {
                                    let transport = Box::new(connector.connect().unwrap());
                                    let config = ClientConfig {
                                        code,
                                        tier,
                                        ..ClientConfig::default()
                                    };
                                    let mut session =
                                        ClientSession::open(transport, &config).unwrap();
                                    let stream = session_workload(WORDS, i as u64);
                                    for chunk in stream.chunks(BATCH) {
                                        let want: Vec<u64> =
                                            chunk.iter().map(|a| a.address).collect();
                                        match session.request(chunk).unwrap() {
                                            BatchReply::Delivered(got) => {
                                                assert_eq!(got, want, "{code} at {tier}");
                                            }
                                            BatchReply::Shed { .. } => {
                                                panic!("a closed loop never fills a queue")
                                            }
                                        }
                                    }
                                    let (server_words, shed) = session.close().unwrap();
                                    assert_eq!((server_words, shed), (WORDS as u64, 0));
                                    words += WORDS as u64;
                                }
                                words
                            })
                        })
                        .collect();
                    lanes.into_iter().map(|lane| lane.join().unwrap()).sum()
                });
                handle.shutdown();
                let metrics = run.join().unwrap().unwrap();
                assert_eq!(delivered, (cells.len() * WORDS) as u64);
                assert_eq!(metrics.delivered_words, delivered);
                assert_eq!(metrics.requests, (cells.len() * WORDS / BATCH) as u64);
                assert_eq!(
                    metrics.requests,
                    metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames
                );
                assert_eq!(metrics.sessions_closed, cells.len() as u64);
                assert_eq!(*lock(&handle.shared.permits), workers, "permits returned");
                assert!(lock(&handle.shared.ready).is_empty(), "nothing left ready");
            });
        }
    }

    fn open_session(
        connector: &crate::transport::MemoryConnector,
        tier: Tier,
    ) -> (Box<dyn RecvHalf>, Box<dyn SendHalf>) {
        let transport = connector.connect().unwrap();
        let (mut recv, mut send) = (Box::new(transport) as Box<dyn Transport>).split();
        send.send(
            &Message::Hello {
                code: CodeKind::Gray,
                width: 32,
                stride: 4,
                tier,
                refresh: 8,
            }
            .encode(),
        )
        .unwrap();
        let frame = recv.recv().unwrap().unwrap();
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Message::HelloOk { .. }
        ));
        (recv, send)
    }

    #[test]
    fn delivers_a_batch_and_accounts_for_it() {
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig::default());
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run(Box::new(listener)).unwrap());

        let (mut recv, mut send) = open_session(&connector, Tier::Bare);
        let accesses: Vec<Access> = (0..16).map(|i| Access::instruction(i * 4)).collect();
        send.send(
            &Message::Data {
                seq: 1,
                accesses: accesses.clone(),
            }
            .encode(),
        )
        .unwrap();
        let reply = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        match reply {
            Message::Decoded { seq, addresses } => {
                assert_eq!(seq, 1);
                let expected: Vec<u64> = accesses.iter().map(|a| a.address).collect();
                assert_eq!(addresses, expected);
            }
            other => panic!("expected DECODED, got {other:?}"),
        }
        send.send(&Message::Close.encode()).unwrap();
        let closed = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        assert_eq!(closed, Message::Closed { words: 16, shed: 0 });

        handle.shutdown();
        let metrics = run.join().unwrap();
        assert_eq!(metrics.requests, 1);
        assert_eq!(metrics.delivered_frames, 1);
        assert_eq!(metrics.delivered_words, 16);
        assert_eq!(metrics.shed_frames, 0);
        assert_eq!(metrics.sessions_opened, 1);
        assert_eq!(metrics.sessions_closed, 1);
    }

    #[test]
    fn zero_depth_queue_sheds_every_request_with_typed_reply() {
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig {
            queue_depth: 0,
            ..ServerConfig::default()
        });
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run(Box::new(listener)).unwrap());

        let (mut recv, mut send) = open_session(&connector, Tier::Parity);
        for seq in 0..5u32 {
            send.send(
                &Message::Data {
                    seq,
                    accesses: vec![Access::instruction(0x100)],
                }
                .encode(),
            )
            .unwrap();
            let reply = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
            assert_eq!(
                reply,
                Message::RetryAfter {
                    seq,
                    hint_micros: 500
                }
            );
        }
        send.send(&Message::Close.encode()).unwrap();
        let closed = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        assert_eq!(closed, Message::Closed { words: 0, shed: 5 });

        handle.shutdown();
        let metrics = run.join().unwrap();
        assert_eq!(metrics.requests, 5);
        assert_eq!(metrics.shed_frames, 5);
        assert_eq!(metrics.delivered_frames, 0);
        assert_eq!(
            metrics.requests,
            metrics.delivered_frames + metrics.shed_frames + metrics.expired_frames
        );
    }

    #[test]
    fn shutdown_frame_drains_and_returns() {
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig::default());
        let run = std::thread::spawn(move || server.run(Box::new(listener)).unwrap());

        let transport = connector.connect().unwrap();
        let (mut recv, mut send) = (Box::new(transport) as Box<dyn Transport>).split();
        send.send(&Message::Shutdown.encode()).unwrap();
        let reply = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        assert_eq!(reply, Message::ShutdownOk);

        let metrics = run.join().unwrap();
        assert_eq!(metrics.shutdowns, 1);
        // New connections are refused once draining.
        assert!(connector.connect().is_err());
    }

    #[test]
    fn bad_params_and_garbage_first_frames_are_typed() {
        let (listener, connector) = memory_listener();
        let server = Server::new(ServerConfig::default());
        let handle = server.handle();
        let run = std::thread::spawn(move || server.run(Box::new(listener)).unwrap());

        // Width 0 is invalid → REJECT with BAD_PARAMS.
        let transport = connector.connect().unwrap();
        let (mut recv, mut send) = (Box::new(transport) as Box<dyn Transport>).split();
        send.send(
            &Message::Hello {
                code: CodeKind::Binary,
                width: 0,
                stride: 4,
                tier: Tier::Bare,
                refresh: 0,
            }
            .encode(),
        )
        .unwrap();
        let reply = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        assert!(matches!(
            reply,
            Message::Reject {
                code: REJECT_BAD_PARAMS,
                ..
            }
        ));
        assert_eq!(recv.recv().unwrap(), None);

        // A garbage first frame → typed ERROR, clean close, server alive.
        let transport = connector.connect().unwrap();
        let (mut recv, mut send) = (Box::new(transport) as Box<dyn Transport>).split();
        send.send(&[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        let reply = Message::decode(&recv.recv().unwrap().unwrap()).unwrap();
        assert!(matches!(reply, Message::Error { .. }));
        assert_eq!(recv.recv().unwrap(), None);

        // The server still serves after both faults.
        let (mut recv, mut send) = open_session(&connector, Tier::Ecc);
        send.send(&Message::Close.encode()).unwrap();
        assert!(matches!(
            Message::decode(&recv.recv().unwrap().unwrap()).unwrap(),
            Message::Closed { .. }
        ));

        handle.shutdown();
        let metrics = run.join().unwrap();
        assert_eq!(metrics.sessions_rejected, 1);
        assert_eq!(metrics.protocol_errors, 1);
        assert_eq!(metrics.sessions_opened, 1);
    }
}
