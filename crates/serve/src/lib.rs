//! Concurrent bus-encoding as a network service.
//!
//! The paper's encoders live on a memory bus; this crate puts them
//! behind a socket so many clients can stream address traces through
//! pinned [`Pipeline`](buscode_pipeline::Pipeline)s concurrently and
//! the saturation behaviour of the encoding stack can be measured
//! end to end:
//!
//! - [`wire`] — the length-prefixed frame protocol, CRC-16 protected
//!   with the link layer's table-driven [`Crc16`](buscode_link::Crc16);
//!   every malformed input is a typed [`WireError`], never a panic.
//! - [`transport`] — the [`Transport`] seam:
//!   a deterministic in-memory duplex for tests and a TCP binding for
//!   deployment, both honouring the half-close contract the graceful
//!   drain depends on.
//! - [`server`] — `busserved`'s runtime: readers that code their own
//!   sessions under a bounded number of permits, bounded per-session
//!   queues, typed RETRY-AFTER load shedding, queue-age deadline
//!   watchdogs, and a zero-loss drain path.
//! - [`client`] — session negotiation and typed request/reply.
//! - [`load`] — `busload`'s closed/open-loop generator replaying the
//!   synthetic trace models, with log₂ latency histograms from
//!   [`buscode_telemetry`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::{shutdown_server, BatchReply, ClientConfig, ClientError, ClientSession};
pub use load::{run_load, session_workload, LoadConfig, LoadMode, LoadReport};
pub use server::{ServeMetrics, Server, ServerConfig, ServerHandle};
pub use transport::{
    connect_with_retry, memory_listener, memory_pair, Listener, MemoryConnector, MemoryListener,
    MemoryTransport, RecvHalf, SendHalf, TcpListenerAdapter, TcpTransport, Transport,
};
pub use wire::{Message, WireError};
