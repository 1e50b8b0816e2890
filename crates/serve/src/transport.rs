//! Frame transports: the seam that makes the whole service stack
//! testable without sockets.
//!
//! [`Transport`] moves whole frames (the byte vectors produced by
//! [`Message::encode`](crate::wire::Message::encode)) between a client
//! and the server. Two implementations ship:
//!
//! - [`memory_pair`] — a cross-wired in-memory duplex built on bounded
//!   channel primitives. Deterministic, allocation-only, and the
//!   backbone of the tier-1 delivery tests.
//! - [`TcpTransport`] — length-aware framing over a [`TcpStream`],
//!   validating the header (magic, length cap) *before* allocating the
//!   payload.
//!
//! Both honour the same half-close contract: `shutdown_read` stops new
//! inbound frames while letting already-buffered frames drain, which is
//! what lets the server's graceful drain lose zero in-flight words.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use buscode_engine::Backoff;

use crate::wire::{WireError, HEADER_BYTES, MAGIC, MAX_PAYLOAD_BYTES, TRAILER_BYTES};

/// A blocking MPMC queue with close semantics: `pop_blocking` drains
/// buffered items even after close, then reports `None`.
pub(crate) struct Chan<T> {
    state: Mutex<ChanState<T>>,
    cv: Condvar,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    closed: bool,
    /// Receivers blocked in `pop_blocking`. It changes only under the
    /// lock that guards `queue`, so a receiver that parks has already
    /// seen the queue empty, and every later push sees it counted.
    parked: usize,
}

impl<T> Chan<T> {
    pub(crate) fn new() -> Self {
        Chan {
            state: Mutex::new(ChanState {
                queue: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Pushes an item; returns `false` if the channel is closed.
    ///
    /// The wake-up goes out after the lock is released, so the woken
    /// receiver does not contend for it, and only when a receiver is
    /// parked, so a push to a busy receiver makes no wake syscall.
    pub(crate) fn push(&self, item: T) -> bool {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if state.closed {
            return false;
        }
        state.queue.push_back(item);
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.cv.notify_one();
        }
        true
    }

    /// Blocks until an item is available or the channel is closed and
    /// empty.
    pub(crate) fn pop_blocking(&self) -> Option<T> {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            state = match self.cv.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            state.parked -= 1;
        }
    }

    /// Closes the channel; buffered items remain poppable.
    pub(crate) fn close(&self) {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.closed = true;
        self.cv.notify_all();
    }
}

/// The receive half of a split transport.
pub trait RecvHalf: Send {
    /// Blocks for the next whole frame. `Ok(None)` is a clean EOF.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`] when the stream dies mid-frame or
    /// the framing header is invalid.
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError>;
}

/// The send half of a split transport.
pub trait SendHalf: Send {
    /// Sends one whole frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Closed`] when the peer is gone, or
    /// [`WireError::Io`] on a transport fault.
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError>;

    /// Half-closes the *inbound* direction: the peer's sends start
    /// failing, but frames already in flight still drain through
    /// `recv`.
    fn shutdown_read(&mut self);

    /// Closes both directions.
    fn close(&mut self);
}

/// A duplex frame pipe that can be split into independent halves.
pub trait Transport: Send {
    /// Splits into receive and send halves that may live on different
    /// threads.
    fn split(self: Box<Self>) -> (Box<dyn RecvHalf>, Box<dyn SendHalf>);
}

/// A source of inbound connections for [`Server::run`](crate::Server::run).
pub trait Listener: Send {
    /// Blocks for the next connection. `Ok(None)` means the listener
    /// was closed and the server should drain.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the listener itself fails.
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, WireError>;

    /// Returns a closure that unblocks `accept` with `Ok(None)`; used
    /// by the admin shutdown path.
    fn closer(&self) -> Box<dyn Fn() + Send + Sync>;
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

/// One direction of an in-memory duplex.
type FramePipe = Arc<Chan<Vec<u8>>>;

/// An in-memory [`Transport`] endpoint.
pub struct MemoryTransport {
    incoming: FramePipe,
    outgoing: FramePipe,
}

/// Creates a connected pair of in-memory transports: frames sent on one
/// arrive on the other, in order.
#[must_use]
pub fn memory_pair() -> (MemoryTransport, MemoryTransport) {
    let a_to_b: FramePipe = Arc::new(Chan::new());
    let b_to_a: FramePipe = Arc::new(Chan::new());
    (
        MemoryTransport {
            incoming: Arc::clone(&b_to_a),
            outgoing: Arc::clone(&a_to_b),
        },
        MemoryTransport {
            incoming: a_to_b,
            outgoing: b_to_a,
        },
    )
}

impl Transport for MemoryTransport {
    fn split(self: Box<Self>) -> (Box<dyn RecvHalf>, Box<dyn SendHalf>) {
        let recv = MemoryRecv {
            incoming: Arc::clone(&self.incoming),
        };
        let send = MemorySend {
            incoming: self.incoming,
            outgoing: self.outgoing,
        };
        (Box::new(recv), Box::new(send))
    }
}

struct MemoryRecv {
    incoming: FramePipe,
}

impl RecvHalf for MemoryRecv {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        Ok(self.incoming.pop_blocking())
    }
}

struct MemorySend {
    incoming: FramePipe,
    outgoing: FramePipe,
}

impl SendHalf for MemorySend {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        if self.outgoing.push(frame.to_vec()) {
            Ok(())
        } else {
            Err(WireError::Closed)
        }
    }

    fn shutdown_read(&mut self) {
        self.incoming.close();
    }

    fn close(&mut self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

impl Drop for MemorySend {
    fn drop(&mut self) {
        self.outgoing.close();
    }
}

/// The connector side of an in-memory listener: each `connect` yields a
/// fresh transport whose peer lands in the listener's accept queue.
#[derive(Clone)]
pub struct MemoryConnector {
    inbox: Arc<Chan<MemoryTransport>>,
}

impl MemoryConnector {
    /// Opens a new connection; returns the client-side transport.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Closed`] once the listener has shut down.
    pub fn connect(&self) -> Result<MemoryTransport, WireError> {
        let (client, server) = memory_pair();
        if self.inbox.push(server) {
            Ok(client)
        } else {
            Err(WireError::Closed)
        }
    }
}

/// The accept side of an in-memory listener.
pub struct MemoryListener {
    inbox: Arc<Chan<MemoryTransport>>,
}

/// Creates a connected in-memory listener/connector pair.
#[must_use]
pub fn memory_listener() -> (MemoryListener, MemoryConnector) {
    let inbox = Arc::new(Chan::new());
    (
        MemoryListener {
            inbox: Arc::clone(&inbox),
        },
        MemoryConnector { inbox },
    )
}

impl Listener for MemoryListener {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, WireError> {
        Ok(self
            .inbox
            .pop_blocking()
            .map(|t| Box::new(t) as Box<dyn Transport>))
    }

    fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
        let inbox = Arc::clone(&self.inbox);
        Box::new(move || inbox.close())
    }
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// A frame transport over a [`TcpStream`].
pub struct TcpTransport {
    read: TcpStream,
    write: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream, cloning the handle so the halves can
    /// live on different threads.
    ///
    /// # Errors
    ///
    /// Propagates the `try_clone` failure.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        let write = stream.try_clone()?;
        Ok(TcpTransport {
            read: stream,
            write,
        })
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn RecvHalf>, Box<dyn SendHalf>) {
        (
            Box::new(TcpRecv { stream: self.read }),
            Box::new(TcpSend { stream: self.write }),
        )
    }
}

struct TcpRecv {
    stream: TcpStream,
}

fn read_exact_or_eof(stream: &mut TcpStream, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Ok(filled),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(WireError::Io {
                    detail: e.to_string(),
                })
            }
        }
    }
    Ok(filled)
}

impl RecvHalf for TcpRecv {
    fn recv(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let mut header = [0u8; HEADER_BYTES];
        let got = read_exact_or_eof(&mut self.stream, &mut header)?;
        if got == 0 {
            return Ok(None);
        }
        if got < HEADER_BYTES {
            return Err(WireError::Truncated {
                expected: HEADER_BYTES,
                got,
            });
        }
        if header[0..2] != MAGIC {
            return Err(WireError::BadMagic {
                got: [header[0], header[1]],
            });
        }
        let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return Err(WireError::Oversized { len });
        }
        let total = HEADER_BYTES + len + TRAILER_BYTES;
        let mut frame = vec![0u8; total];
        frame[..HEADER_BYTES].copy_from_slice(&header);
        let got = read_exact_or_eof(&mut self.stream, &mut frame[HEADER_BYTES..])?;
        if got < total - HEADER_BYTES {
            return Err(WireError::Truncated {
                expected: total,
                got: HEADER_BYTES + got,
            });
        }
        Ok(Some(frame))
    }
}

struct TcpSend {
    stream: TcpStream,
}

impl SendHalf for TcpSend {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.stream
            .write_all(frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| match e.kind() {
                ErrorKind::BrokenPipe | ErrorKind::ConnectionReset => WireError::Closed,
                _ => WireError::Io {
                    detail: e.to_string(),
                },
            })
    }

    fn shutdown_read(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A [`Listener`] over a bound [`std::net::TcpListener`], pollable so
/// the admin shutdown path can unblock `accept`.
pub struct TcpListenerAdapter {
    listener: std::net::TcpListener,
    stop: Arc<AtomicBool>,
    backoff: Backoff,
    attempt: u32,
}

impl TcpListenerAdapter {
    /// Binds to `addr` in non-blocking mode.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the bind fails.
    pub fn bind(addr: &str) -> Result<Self, WireError> {
        let listener = std::net::TcpListener::bind(addr).map_err(|e| WireError::Io {
            detail: format!("bind {addr}: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| WireError::Io {
            detail: e.to_string(),
        })?;
        Ok(TcpListenerAdapter {
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            backoff: Backoff::new(1, 100),
            attempt: 0,
        })
    }

    /// The address the listener actually bound (useful with port 0).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] when the socket address is unavailable.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, WireError> {
        self.listener.local_addr().map_err(|e| WireError::Io {
            detail: e.to_string(),
        })
    }
}

impl Listener for TcpListenerAdapter {
    fn accept(&mut self) -> Result<Option<Box<dyn Transport>>, WireError> {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return Ok(None);
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.attempt = 0;
                    stream.set_nonblocking(false).map_err(|e| WireError::Io {
                        detail: e.to_string(),
                    })?;
                    let transport = TcpTransport::new(stream).map_err(|e| WireError::Io {
                        detail: e.to_string(),
                    })?;
                    return Ok(Some(Box::new(transport)));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE, ECONNABORTED)
                    // back off instead of spinning or dying.
                    self.attempt += 1;
                    if self.attempt > 16 {
                        return Err(WireError::Io {
                            detail: e.to_string(),
                        });
                    }
                    std::thread::sleep(Duration::from_millis(self.backoff.delay(self.attempt)));
                }
            }
        }
    }

    fn closer(&self) -> Box<dyn Fn() + Send + Sync> {
        let stop = Arc::clone(&self.stop);
        Box::new(move || stop.store(true, Ordering::Release))
    }
}

/// Dials `addr`, retrying with the engine's capped exponential backoff —
/// the load generator uses this to ride out server start-up races.
///
/// # Errors
///
/// Returns [`WireError::Io`] when every attempt fails.
pub fn connect_with_retry(addr: &str, attempts: u32) -> Result<TcpTransport, WireError> {
    let backoff = Backoff::new(10, 500);
    let mut last = String::new();
    for attempt in 0..attempts.max(1) {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                return TcpTransport::new(stream).map_err(|e| WireError::Io {
                    detail: e.to_string(),
                })
            }
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(backoff.delay(attempt)));
            }
        }
    }
    Err(WireError::Io {
        detail: format!("connect {addr}: {last}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};

    #[test]
    fn memory_pair_moves_frames_both_ways() {
        let (a, b) = memory_pair();
        let (mut a_recv, mut a_send) = Box::new(a).split();
        let (mut b_recv, mut b_send) = Box::new(b).split();
        a_send.send(&[1, 2, 3]).unwrap();
        b_send.send(&[9]).unwrap();
        assert_eq!(b_recv.recv().unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(a_recv.recv().unwrap(), Some(vec![9]));
    }

    #[test]
    fn shutdown_read_drains_buffered_frames_then_eof() {
        let (a, b) = memory_pair();
        let (_a_recv, mut a_send) = Box::new(a).split();
        let (mut b_recv, mut b_send) = Box::new(b).split();
        a_send.send(&[1]).unwrap();
        a_send.send(&[2]).unwrap();
        // Server-side half-close of its inbound direction.
        b_send.shutdown_read();
        // Peer sends now fail...
        assert_eq!(a_send.send(&[3]), Err(WireError::Closed));
        // ...but in-flight frames still drain, then clean EOF.
        assert_eq!(b_recv.recv().unwrap(), Some(vec![1]));
        assert_eq!(b_recv.recv().unwrap(), Some(vec![2]));
        assert_eq!(b_recv.recv().unwrap(), None);
    }

    /// Every hop of a ping-pong parks its receiver, so a lost wake-up
    /// stalls it for good; the watchdog turns that into a failure
    /// instead of a hung test.
    #[test]
    fn ping_pong_loses_no_wake_up() {
        const FRAMES: u32 = 100_000;
        let (a, b) = memory_pair();
        let (mut a_recv, mut a_send) = Box::new(a).split();
        let (mut b_recv, mut b_send) = Box::new(b).split();
        let echo = std::thread::spawn(move || {
            while let Ok(Some(frame)) = b_recv.recv() {
                if b_send.send(&frame).is_err() {
                    break;
                }
            }
        });
        let (done, finished) = mpsc::channel();
        let pinger = std::thread::spawn(move || {
            for i in 0..FRAMES {
                let frame = i.to_le_bytes();
                a_send.send(&frame).unwrap();
                assert_eq!(a_recv.recv().unwrap().as_deref(), Some(&frame[..]));
            }
            a_send.close();
            done.send(()).unwrap();
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(120)) {
            panic!("ping-pong stalled: a wake-up was lost");
        }
        pinger.join().unwrap();
        echo.join().unwrap();
    }

    #[test]
    fn parked_receiver_is_released_by_shutdown_read_and_close() {
        for full_close in [false, true] {
            let (a, b) = memory_pair();
            // The peer's send half stays alive: dropping it would close
            // the pipe on its own.
            let (_a_recv, _a_send) = Box::new(a).split();
            let pipe = Arc::clone(&b.incoming);
            let (mut b_recv, mut b_send) = Box::new(b).split();
            let (tx, rx) = mpsc::channel();
            let receiver = std::thread::spawn(move || tx.send(b_recv.recv()).unwrap());
            while pipe.state.lock().unwrap().parked == 0 {
                std::thread::yield_now();
            }
            if full_close {
                b_send.close();
            } else {
                b_send.shutdown_read();
            }
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the parked receiver was not released");
            assert_eq!(got, Ok(None), "full close: {full_close}");
            receiver.join().unwrap();
        }
    }

    #[test]
    fn listener_close_unblocks_accept() {
        let (listener, connector) = memory_listener();
        let closer = listener.closer();
        let handle = std::thread::spawn(move || {
            let mut listener = listener;
            let first = listener.accept().unwrap();
            assert!(first.is_some());
            let second = listener.accept().unwrap();
            assert!(second.is_none());
        });
        connector.connect().unwrap();
        // Give the accept loop a moment to take the first connection.
        std::thread::sleep(Duration::from_millis(10));
        closer();
        handle.join().unwrap();
        assert!(connector.connect().is_err());
    }

    #[test]
    fn tcp_round_trip_and_header_validation() {
        let adapter = TcpListenerAdapter::bind("127.0.0.1:0").unwrap();
        let addr = adapter.local_addr().unwrap().to_string();
        let mut adapter = adapter;
        let server = std::thread::spawn(move || {
            let transport = adapter.accept().unwrap().unwrap();
            let (mut recv, mut send) = transport.split();
            let frame = recv.recv().unwrap().unwrap();
            send.send(&frame).unwrap();
            // Garbage header → typed error on the client side after we
            // write raw non-magic bytes.
            send.send(&frame).unwrap();
        });
        let transport = connect_with_retry(&addr, 10).unwrap();
        let frame = crate::wire::Message::Close.encode();
        let (mut recv, mut send) = (Box::new(transport) as Box<dyn Transport>).split();
        send.send(&frame).unwrap();
        assert_eq!(recv.recv().unwrap(), Some(frame));
        server.join().unwrap();
    }
}
