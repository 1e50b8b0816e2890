//! The client side of the wire protocol: session negotiation, request
//! dispatch, and the typed replies `busload` consumes.

use buscode_core::{Access, CodeKind, Tier};

use crate::transport::{RecvHalf, SendHalf, Transport};
use crate::wire::{encode_data, Message, WireError};

/// Session parameters offered in the HELLO frame.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// The bus code to run.
    pub code: CodeKind,
    /// Bus width in bits.
    pub width: u8,
    /// Address stride.
    pub stride: u64,
    /// The protection tier to pin.
    pub tier: Tier,
    /// Hardening refresh interval (`0` = server default).
    pub refresh: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            code: CodeKind::Binary,
            width: 32,
            stride: 4,
            tier: Tier::Bare,
            refresh: 0,
        }
    }
}

/// Why a client operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// A transport or framing fault.
    Wire(WireError),
    /// The server refused the session.
    Rejected {
        /// The `REJECT_*` code.
        code: u8,
        /// The server's reason.
        reason: String,
    },
    /// The server answered out of protocol.
    Protocol(String),
    /// The server reported a typed error and closed the session.
    ServerError {
        /// The error code.
        code: u8,
        /// The server's detail string.
        detail: String,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Wire(err) => write!(f, "{err}"),
            ClientError::Rejected { code, reason } => {
                write!(f, "session rejected (code {code}): {reason}")
            }
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::ServerError { code, detail } => {
                write!(f, "server error (code {code}): {detail}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(err: WireError) -> Self {
        ClientError::Wire(err)
    }
}

/// The answer to one DATA request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    /// The batch was delivered; decoded addresses in offer order.
    Delivered(Vec<u64>),
    /// The batch was shed; retry after the hint.
    Shed {
        /// Suggested backoff before retrying, in microseconds.
        hint_micros: u32,
    },
}

/// An open session against a `busserved` instance.
pub struct ClientSession {
    recv: Box<dyn RecvHalf>,
    send: Box<dyn SendHalf>,
    session: u64,
    next_seq: u32,
}

impl ClientSession {
    /// Negotiates a session over `transport`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the server refuses,
    /// [`ClientError::Wire`] on transport faults, and
    /// [`ClientError::Protocol`] on out-of-protocol replies.
    pub fn open(transport: Box<dyn Transport>, config: &ClientConfig) -> Result<Self, ClientError> {
        let (mut recv, mut send) = transport.split();
        send.send(
            &Message::Hello {
                code: config.code,
                width: config.width,
                stride: config.stride,
                tier: config.tier,
                refresh: config.refresh,
            }
            .encode(),
        )?;
        match recv_message(&mut recv)? {
            Message::HelloOk { session } => Ok(ClientSession {
                recv,
                send,
                session,
                next_seq: 0,
            }),
            Message::Reject { code, reason } => Err(ClientError::Rejected { code, reason }),
            Message::Error { code, detail } => Err(ClientError::ServerError { code, detail }),
            other => Err(ClientError::Protocol(format!(
                "expected HELLO-OK, got {other:?}"
            ))),
        }
    }

    /// The server-assigned session id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.session
    }

    /// Sends one batch and blocks for its typed reply.
    ///
    /// # Errors
    ///
    /// Propagates wire faults and server errors; a shed batch is *not*
    /// an error — it returns [`BatchReply::Shed`].
    pub fn request(&mut self, accesses: &[Access]) -> Result<BatchReply, ClientError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.send.send(&encode_data(seq, accesses))?;
        match recv_message(&mut self.recv)? {
            Message::Decoded {
                seq: reply_seq,
                addresses,
            } if reply_seq == seq => Ok(BatchReply::Delivered(addresses)),
            Message::RetryAfter {
                seq: reply_seq,
                hint_micros,
            } if reply_seq == seq => Ok(BatchReply::Shed { hint_micros }),
            Message::Error { code, detail } => Err(ClientError::ServerError { code, detail }),
            other => Err(ClientError::Protocol(format!(
                "reply out of sequence: {other:?}"
            ))),
        }
    }

    /// Sends a DATA frame without waiting for the reply (open-loop and
    /// drain-test use). Returns the sequence number used.
    ///
    /// # Errors
    ///
    /// Propagates transport faults.
    pub fn send_data(&mut self, accesses: &[Access]) -> Result<u32, ClientError> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        self.send.send(&encode_data(seq, accesses))?;
        Ok(seq)
    }

    /// Blocks for the next server message (open-loop receive path).
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] (wrapped) at EOF, otherwise transport and
    /// decode faults.
    pub fn recv_reply(&mut self) -> Result<Message, ClientError> {
        recv_message(&mut self.recv)
    }

    /// Closes the session and returns the server's final accounting
    /// `(words, shed)`.
    ///
    /// # Errors
    ///
    /// Propagates wire faults and protocol violations.
    pub fn close(mut self) -> Result<(u64, u64), ClientError> {
        self.send.send(&Message::Close.encode())?;
        loop {
            match recv_message(&mut self.recv)? {
                Message::Closed { words, shed } => return Ok((words, shed)),
                // Replies still in flight ahead of the CLOSED frame are
                // skipped; close() is for sessions with no outstanding
                // requests, but the drain path may interleave.
                Message::Decoded { .. } | Message::RetryAfter { .. } => {}
                Message::Error { code, detail } => {
                    return Err(ClientError::ServerError { code, detail })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected CLOSED, got {other:?}"
                    )))
                }
            }
        }
    }
}

fn recv_message(recv: &mut Box<dyn RecvHalf>) -> Result<Message, ClientError> {
    match recv.recv()? {
        Some(frame) => Ok(Message::decode(&frame)?),
        None => Err(ClientError::Wire(WireError::Closed)),
    }
}

/// Sends the admin SHUTDOWN frame over a fresh connection and waits for
/// the acknowledgement.
///
/// # Errors
///
/// Propagates wire faults; [`ClientError::Protocol`] if the server
/// answers with anything but SHUTDOWN-OK.
pub fn shutdown_server(transport: Box<dyn Transport>) -> Result<(), ClientError> {
    let (mut recv, mut send) = transport.split();
    send.send(&Message::Shutdown.encode())?;
    match recv_message(&mut recv)? {
        Message::ShutdownOk => Ok(()),
        other => Err(ClientError::Protocol(format!(
            "expected SHUTDOWN-OK, got {other:?}"
        ))),
    }
}
