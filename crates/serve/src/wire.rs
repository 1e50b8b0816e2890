//! The length-prefixed wire protocol `busserved` speaks.
//!
//! Every message travels as one frame:
//!
//! ```text
//! magic(2) │ version(1) │ type(1) │ length(4, LE) │ payload │ crc(2, LE)
//! ```
//!
//! The CRC is the link layer's table-driven CRC-16-CCITT
//! ([`buscode_link::Crc16`], slice-by-8) over everything between the
//! magic and the trailer — version, type, length, and payload — so a
//! receiver rejects corrupted frames with a typed error before any
//! session state is risked, exactly like the ARQ frames reject corrupted
//! bus words.
//!
//! The length field is validated against [`MAX_PAYLOAD_BYTES`] *before*
//! any payload allocation, so an adversarial length can never balloon
//! memory. Every decode failure is a typed [`WireError`]; nothing in
//! this module panics on wire input.

use buscode_core::{Access, AccessKind, CodeKind, Tier};
use buscode_link::Crc16;

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = [0xB5, 0xC0];
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Fixed header bytes before the payload (magic, version, type, length).
pub const HEADER_BYTES: usize = 8;
/// Trailer bytes after the payload (the CRC).
pub const TRAILER_BYTES: usize = 2;
/// Hard cap on a frame's payload length, enforced before allocation.
pub const MAX_PAYLOAD_BYTES: usize = 64 * 1024;
/// Hard cap on the words one DATA frame may carry.
pub const MAX_BATCH_WORDS: usize = 4096;

/// Why a frame (or a transport read) was rejected. Every variant maps to
/// a stable [`WireError::code`] carried in ERROR replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame.
    Truncated {
        /// Bytes the frame needed.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes observed.
        got: [u8; 2],
    },
    /// An unsupported protocol version.
    Version {
        /// The version byte observed.
        got: u8,
    },
    /// The length field exceeds [`MAX_PAYLOAD_BYTES`].
    Oversized {
        /// The declared payload length.
        len: usize,
    },
    /// The trailer CRC does not match the frame contents.
    Crc {
        /// The CRC recomputed over the observed bytes.
        expected: u16,
        /// The CRC carried in the trailer.
        got: u16,
    },
    /// An unknown message type byte.
    UnknownType {
        /// The type byte observed.
        got: u8,
    },
    /// The payload does not parse as its type's structure.
    Malformed {
        /// Which structural rule was violated.
        what: &'static str,
    },
    /// The connection closed where a frame was required.
    Closed,
    /// A transport-level I/O failure.
    Io {
        /// The underlying error, stringified.
        detail: String,
    },
}

impl WireError {
    /// The stable error code carried inside ERROR frames.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            WireError::Truncated { .. } => 1,
            WireError::BadMagic { .. } => 2,
            WireError::Version { .. } => 3,
            WireError::Oversized { .. } => 4,
            WireError::Crc { .. } => 5,
            WireError::UnknownType { .. } => 6,
            WireError::Malformed { .. } => 7,
            WireError::Closed => 8,
            WireError::Io { .. } => 9,
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: needed {expected} bytes, got {got}")
            }
            WireError::BadMagic { got } => {
                write!(f, "bad magic {:02x}{:02x}", got[0], got[1])
            }
            WireError::Version { got } => write!(f, "unsupported protocol version {got}"),
            WireError::Oversized { len } => {
                write!(f, "payload length {len} exceeds cap {MAX_PAYLOAD_BYTES}")
            }
            WireError::Crc { expected, got } => {
                write!(
                    f,
                    "crc mismatch: computed {expected:04x}, carried {got:04x}"
                )
            }
            WireError::UnknownType { got } => write!(f, "unknown message type {got:#04x}"),
            WireError::Malformed { what } => write!(f, "malformed payload: {what}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Io { detail } => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Message type bytes. Client-to-server types sit below `0x80`,
/// server-to-client replies above.
mod ty {
    pub const HELLO: u8 = 0x01;
    pub const DATA: u8 = 0x02;
    pub const CLOSE: u8 = 0x03;
    pub const SHUTDOWN: u8 = 0x04;
    pub const HELLO_OK: u8 = 0x81;
    pub const REJECT: u8 = 0x82;
    pub const DECODED: u8 = 0x83;
    pub const RETRY_AFTER: u8 = 0x84;
    pub const CLOSED: u8 = 0x85;
    pub const SHUTDOWN_OK: u8 = 0x86;
    pub const ERROR: u8 = 0x87;
}

/// One protocol message, either direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Session open: negotiates code × width × tier (client → server).
    Hello {
        /// The bus code to run, by [`CodeKind::name`].
        code: CodeKind,
        /// Bus width in bits.
        width: u8,
        /// Address stride for stride-aware codes.
        stride: u64,
        /// The protection tier to pin the session's pipeline at.
        tier: Tier,
        /// Hardening refresh interval for parity/ECC tiers (`0` = server
        /// default).
        refresh: u32,
    },
    /// One batch of addresses to stream through the session pipeline.
    Data {
        /// Client-chosen request sequence number, echoed in the reply.
        seq: u32,
        /// The batch, at most [`MAX_BATCH_WORDS`] accesses.
        accesses: Vec<Access>,
    },
    /// Orderly end of session (client → server).
    Close,
    /// Admin drain request: stop accepting, flush every in-flight
    /// session, exit 0 (client → server).
    Shutdown,
    /// Session accepted (server → client).
    HelloOk {
        /// The server-assigned session id.
        session: u64,
    },
    /// Session refused (server → client); see the `REJECT_*` codes.
    Reject {
        /// Why, as a stable code.
        code: u8,
        /// Human-readable detail.
        reason: String,
    },
    /// A delivered batch: the decoded addresses, in order.
    Decoded {
        /// The DATA sequence number this answers.
        seq: u32,
        /// Decoded addresses, one per offered access.
        addresses: Vec<u64>,
    },
    /// The typed load-shed reply: the batch was *not* enqueued; retry
    /// after the hint.
    RetryAfter {
        /// The DATA sequence number this answers.
        seq: u32,
        /// Suggested client backoff before retrying, in microseconds.
        hint_micros: u32,
    },
    /// Final session accounting (server → client, answers CLOSE).
    Closed {
        /// Words delivered over the session's lifetime.
        words: u64,
        /// Frames shed (queue-full plus deadline-expired).
        shed: u64,
    },
    /// The drain was accepted (server → client, answers SHUTDOWN).
    ShutdownOk,
    /// A typed protocol error; the server closes the session after
    /// sending it.
    Error {
        /// A [`WireError::code`], or [`INTERNAL_ERROR`].
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

/// Session rejected because the server is draining.
pub const REJECT_DRAINING: u8 = 1;
/// Session rejected because the session table is full.
pub const REJECT_FULL: u8 = 2;
/// Session rejected because the negotiated parameters are invalid.
pub const REJECT_BAD_PARAMS: u8 = 3;
/// ERROR code for a server-side failure that is not a wire fault.
pub const INTERNAL_ERROR: u8 = 100;

impl Message {
    /// Encodes the message as one complete wire frame.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Message::Hello {
                code,
                width,
                stride,
                tier,
                refresh,
            } => {
                let name = code.name().as_bytes();
                frame(ty::HELLO, 1 + name.len() + 14, |p| {
                    p.push(name.len() as u8);
                    p.extend_from_slice(name);
                    p.push(*width);
                    p.extend_from_slice(&stride.to_le_bytes());
                    p.push(tier_code(*tier));
                    p.extend_from_slice(&refresh.to_le_bytes());
                })
            }
            Message::Data { seq, accesses } => encode_data(*seq, accesses),
            Message::Close => frame(ty::CLOSE, 0, |_| {}),
            Message::Shutdown => frame(ty::SHUTDOWN, 0, |_| {}),
            Message::HelloOk { session } => frame(ty::HELLO_OK, 8, |p| {
                p.extend_from_slice(&session.to_le_bytes());
            }),
            Message::Reject { code, reason } => coded_string_frame(ty::REJECT, *code, reason),
            Message::Decoded { seq, addresses } => {
                frame(ty::DECODED, 6 + addresses.len() * 8, |p| {
                    p.extend_from_slice(&seq.to_le_bytes());
                    p.extend_from_slice(&(addresses.len() as u16).to_le_bytes());
                    for addr in addresses {
                        p.extend_from_slice(&addr.to_le_bytes());
                    }
                })
            }
            Message::RetryAfter { seq, hint_micros } => frame(ty::RETRY_AFTER, 8, |p| {
                p.extend_from_slice(&seq.to_le_bytes());
                p.extend_from_slice(&hint_micros.to_le_bytes());
            }),
            Message::Closed { words, shed } => frame(ty::CLOSED, 16, |p| {
                p.extend_from_slice(&words.to_le_bytes());
                p.extend_from_slice(&shed.to_le_bytes());
            }),
            Message::ShutdownOk => frame(ty::SHUTDOWN_OK, 0, |_| {}),
            Message::Error { code, detail } => coded_string_frame(ty::ERROR, *code, detail),
        }
    }

    /// Decodes one complete frame.
    ///
    /// # Errors
    ///
    /// Returns a typed [`WireError`] for truncation, bad magic, an
    /// unsupported version, an oversized length, a CRC mismatch, an
    /// unknown type, or a payload that violates its type's structure.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(WireError::Truncated {
                expected: HEADER_BYTES + TRAILER_BYTES,
                got: bytes.len(),
            });
        }
        if bytes[0..2] != MAGIC {
            return Err(WireError::BadMagic {
                got: [bytes[0], bytes[1]],
            });
        }
        if bytes[2] != VERSION {
            return Err(WireError::Version { got: bytes[2] });
        }
        let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        if len > MAX_PAYLOAD_BYTES {
            return Err(WireError::Oversized { len });
        }
        let total = HEADER_BYTES + len + TRAILER_BYTES;
        if bytes.len() < total {
            return Err(WireError::Truncated {
                expected: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(WireError::Malformed {
                what: "trailing bytes after frame",
            });
        }
        let carried = u16::from_le_bytes([bytes[total - 2], bytes[total - 1]]);
        let computed = Crc16::checksum(&bytes[2..total - 2]);
        if carried != computed {
            return Err(WireError::Crc {
                expected: computed,
                got: carried,
            });
        }
        let mut cursor = Cursor::new(&bytes[HEADER_BYTES..HEADER_BYTES + len]);
        let message = match bytes[3] {
            ty::HELLO => {
                let name_len = cursor.u8()? as usize;
                let name = cursor.bytes(name_len)?;
                let name = core::str::from_utf8(name).map_err(|_| WireError::Malformed {
                    what: "code name is not UTF-8",
                })?;
                let code = CodeKind::all()
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or(WireError::Malformed {
                        what: "unknown code name",
                    })?;
                let width = cursor.u8()?;
                let stride = cursor.u64()?;
                let tier = tier_from_code(cursor.u8()?)?;
                let refresh = cursor.u32()?;
                Message::Hello {
                    code,
                    width,
                    stride,
                    tier,
                    refresh,
                }
            }
            ty::DATA => {
                let seq = cursor.u32()?;
                let count = cursor.u16()? as usize;
                if count > MAX_BATCH_WORDS {
                    return Err(WireError::Malformed {
                        what: "batch exceeds the word cap",
                    });
                }
                let mut accesses = Vec::with_capacity(count);
                for _ in 0..count {
                    let kind = match cursor.u8()? {
                        0 => AccessKind::Instruction,
                        1 => AccessKind::Data,
                        _ => {
                            return Err(WireError::Malformed {
                                what: "unknown access kind",
                            })
                        }
                    };
                    let address = cursor.u64()?;
                    accesses.push(Access { address, kind });
                }
                Message::Data { seq, accesses }
            }
            ty::CLOSE => Message::Close,
            ty::SHUTDOWN => Message::Shutdown,
            ty::HELLO_OK => Message::HelloOk {
                session: cursor.u64()?,
            },
            ty::REJECT => {
                let (code, reason) = decode_coded_string(&mut cursor)?;
                Message::Reject { code, reason }
            }
            ty::DECODED => {
                let seq = cursor.u32()?;
                let count = cursor.u16()? as usize;
                if count > MAX_BATCH_WORDS {
                    return Err(WireError::Malformed {
                        what: "batch exceeds the word cap",
                    });
                }
                let mut addresses = Vec::with_capacity(count);
                for _ in 0..count {
                    addresses.push(cursor.u64()?);
                }
                Message::Decoded { seq, addresses }
            }
            ty::RETRY_AFTER => Message::RetryAfter {
                seq: cursor.u32()?,
                hint_micros: cursor.u32()?,
            },
            ty::CLOSED => Message::Closed {
                words: cursor.u64()?,
                shed: cursor.u64()?,
            },
            ty::SHUTDOWN_OK => Message::ShutdownOk,
            ty::ERROR => {
                let (code, detail) = decode_coded_string(&mut cursor)?;
                Message::Error { code, detail }
            }
            other => return Err(WireError::UnknownType { got: other }),
        };
        cursor.expect_empty()?;
        Ok(message)
    }
}

fn tier_code(tier: Tier) -> u8 {
    match tier {
        Tier::Bare => 0,
        Tier::Parity => 1,
        Tier::Ecc => 2,
    }
}

fn tier_from_code(code: u8) -> Result<Tier, WireError> {
    match code {
        0 => Ok(Tier::Bare),
        1 => Ok(Tier::Parity),
        2 => Ok(Tier::Ecc),
        _ => Err(WireError::Malformed {
            what: "unknown tier code",
        }),
    }
}

/// Builds one frame in a single buffer: the header with a placeholder
/// length, the payload `write` appends straight after it (`payload_len`
/// bytes are reserved), then the patched length and the CRC.
fn frame(ty: u8, payload_len: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload_len + TRAILER_BYTES);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(ty);
    out.extend_from_slice(&[0; 4]);
    write(&mut out);
    let len = (out.len() - HEADER_BYTES) as u32;
    out[4..HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    let crc = Crc16::checksum(&out[2..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Encodes a DATA frame from a borrowed batch. [`Message::encode`] uses
/// it for [`Message::Data`], and a client calls it directly so it need
/// not copy the batch into a message first.
pub(crate) fn encode_data(seq: u32, accesses: &[Access]) -> Vec<u8> {
    frame(ty::DATA, 6 + accesses.len() * 9, |p| {
        p.extend_from_slice(&seq.to_le_bytes());
        p.extend_from_slice(&(accesses.len() as u16).to_le_bytes());
        for access in accesses {
            p.push(match access.kind {
                AccessKind::Instruction => 0,
                AccessKind::Data => 1,
            });
            p.extend_from_slice(&access.address.to_le_bytes());
        }
    })
}

fn coded_string_frame(ty: u8, code: u8, text: &str) -> Vec<u8> {
    let bytes = text.as_bytes();
    let len = bytes.len().min(u16::MAX as usize);
    frame(ty, 3 + len, |p| {
        p.push(code);
        p.extend_from_slice(&(len as u16).to_le_bytes());
        p.extend_from_slice(&bytes[..len]);
    })
}

fn decode_coded_string(cursor: &mut Cursor<'_>) -> Result<(u8, String), WireError> {
    let code = cursor.u8()?;
    let len = cursor.u16()? as usize;
    let bytes = cursor.bytes(len)?;
    let text = core::str::from_utf8(bytes).map_err(|_| WireError::Malformed {
        what: "string payload is not UTF-8",
    })?;
    Ok((code, text.to_string()))
}

/// A bounds-checked little-endian payload reader.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() - self.pos < n {
            return Err(WireError::Malformed {
                what: "payload shorter than its structure",
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn expect_empty(&self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Malformed {
                what: "trailing bytes in payload",
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                code: CodeKind::DualT0Bi,
                width: 32,
                stride: 4,
                tier: Tier::Ecc,
                refresh: 16,
            },
            Message::Data {
                seq: 7,
                accesses: vec![
                    Access::instruction(0x400),
                    Access::data(0x2_0000),
                    Access::instruction(0x404),
                ],
            },
            Message::Close,
            Message::Shutdown,
            Message::HelloOk { session: 42 },
            Message::Reject {
                code: REJECT_BAD_PARAMS,
                reason: "width 0 is invalid".to_string(),
            },
            Message::Decoded {
                seq: 7,
                addresses: vec![0x400, 0x2_0000, 0x404],
            },
            Message::RetryAfter {
                seq: 9,
                hint_micros: 500,
            },
            Message::Closed {
                words: 4096,
                shed: 3,
            },
            Message::ShutdownOk,
            Message::Error {
                code: 5,
                detail: "crc mismatch".to_string(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            assert_eq!(&bytes[0..2], &MAGIC, "{msg:?}");
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_code_and_tier_negotiates() {
        for kind in CodeKind::all() {
            for &tier in Tier::all() {
                let msg = Message::Hello {
                    code: kind,
                    width: 32,
                    stride: 4,
                    tier,
                    refresh: 8,
                };
                assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
            }
        }
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = Message::Close.encode();
        for cut in 0..bytes.len() {
            let err = Message::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn single_bit_rot_never_decodes_silently() {
        let msg = Message::Data {
            seq: 3,
            accesses: vec![Access::instruction(0x1234_5678)],
        };
        let bytes = msg.encode();
        for bit in 0..bytes.len() * 8 {
            let mut hit = bytes.clone();
            hit[bit / 8] ^= 1 << (bit % 8);
            // Any typed error is acceptable — a shrunk length field
            // lands on Malformed, a grown one on Truncated — but a
            // silent successful decode means the CRC failed its job.
            if let Ok(decoded) = Message::decode(&hit) {
                panic!("bit {bit} flipped silently into {decoded:?}");
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = Message::Close.encode();
        bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn wrong_version_and_unknown_type_are_typed() {
        let mut v = Message::Close.encode();
        v[2] = 9;
        assert_eq!(Message::decode(&v), Err(WireError::Version { got: 9 }));

        let mut t = Message::Close.encode();
        t[3] = 0x7F;
        // Recompute the CRC so the type byte is the only fault.
        let total = t.len();
        let crc = Crc16::checksum(&t[2..total - 2]);
        t[total - 2..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Message::decode(&t),
            Err(WireError::UnknownType { got: 0x7F })
        );
    }

    #[test]
    fn malformed_payload_structure_is_typed() {
        // A DATA frame whose count promises more accesses than present.
        let msg = Message::Data {
            seq: 1,
            accesses: vec![Access::instruction(0)],
        };
        let mut bytes = msg.encode();
        let count_at = HEADER_BYTES + 4;
        bytes[count_at..count_at + 2].copy_from_slice(&9u16.to_le_bytes());
        let total = bytes.len();
        let crc = Crc16::checksum(&bytes[2..total - 2]);
        bytes[total - 2..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Message::decode(&bytes),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(
            WireError::Truncated {
                expected: 1,
                got: 0
            }
            .code(),
            1
        );
        assert_eq!(
            WireError::Crc {
                expected: 0,
                got: 1
            }
            .code(),
            5
        );
        assert_eq!(WireError::Closed.code(), 8);
    }
}
