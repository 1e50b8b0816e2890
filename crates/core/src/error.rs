//! Error types for the bus-encoding toolkit.

use core::fmt;

use crate::codes::{LineCheck, Parity, SecDed};

/// Errors produced when constructing or operating a bus codec.
///
/// All fallible public functions in this crate return this type. The
/// `Display` representation is a lowercase sentence without trailing
/// punctuation, suitable for wrapping into higher-level errors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The requested bus width is outside the supported `1..=64` range.
    InvalidWidth {
        /// The rejected width, in bus lines.
        bits: u32,
    },
    /// The stride is not a power of two, is zero, or does not fit the bus.
    InvalidStride {
        /// The rejected stride, in address units.
        stride: u64,
        /// The bus width the stride was checked against.
        width: u32,
    },
    /// An address does not fit on the configured bus width.
    AddressOutOfRange {
        /// The rejected address.
        address: u64,
        /// The bus width the address was checked against.
        width: u32,
    },
    /// A decoder received a word that no conforming encoder can emit in the
    /// current state (for example an asserted `INC` line on the very first
    /// cycle, when no reference address exists yet).
    ProtocolViolation {
        /// The name of the code whose protocol was violated.
        code: &'static str,
        /// A short description of the violated rule.
        reason: &'static str,
    },
    /// A decoded stream did not match the original stream during round-trip
    /// verification.
    RoundTripMismatch {
        /// Zero-based cycle index of the first mismatch.
        cycle: u64,
        /// The address fed to the encoder.
        expected: u64,
        /// The address produced by the decoder.
        decoded: u64,
    },
    /// A configuration parameter outside the codec's documented domain.
    InvalidParameter {
        /// The parameter name.
        name: &'static str,
        /// A short description of the constraint that failed, including
        /// the offending value where the caller knows it.
        reason: String,
    },
    /// A [`StateImage`][crate::snapshot::StateImage] could not be restored
    /// into this codec (wrong code, wrong word count, or out-of-domain
    /// state words).
    SnapshotMismatch {
        /// The code the restoring codec implements.
        code: &'static str,
        /// A short description of the mismatch.
        reason: &'static str,
    },
}

/// How a [`CodecError`] observed mid-stream should be recovered from.
///
/// This is the taxonomy the `buscode-pipeline` supervisor drives its
/// policies off: each class maps to one recovery action (retry, forced
/// resync, abort). The classification is conservative — when in doubt an
/// error is promoted to the more severe class, never demoted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryClass {
    /// A single-word fault with the codec state still valid: the failed
    /// word can simply be retried (retransmitted). The hardened wrapper's
    /// aux-parity detection is the canonical example — it reports the
    /// corruption at the cycle it happens and leaves the inner decoder
    /// state untouched.
    Transient,
    /// Encoder and decoder state have (or may have) diverged: retrying the
    /// same word cannot help, and every later relative decode is suspect.
    /// Recovery requires a forced resync — resetting both halves so the
    /// next word is a self-contained plain transmission.
    Desync,
    /// A construction or configuration error: no amount of retrying or
    /// resyncing produces a working codec. The stream must abort.
    Fatal,
}

impl fmt::Display for RecoveryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecoveryClass::Transient => "transient",
            RecoveryClass::Desync => "desync",
            RecoveryClass::Fatal => "fatal",
        })
    }
}

impl CodecError {
    /// Classifies this error for stream-level recovery.
    ///
    /// - [`Transient`][RecoveryClass::Transient]: a fault detected by the
    ///   [`Protected`][crate::codes::Protected] wrapper's check lines
    ///   (`ProtocolViolation` carrying a check kind's
    ///   [`FAULT_CODE`][crate::codes::LineCheck::FAULT_CODE], which by
    ///   construction leaves the inner decoder untouched) and
    ///   out-of-range input addresses;
    /// - [`Desync`][RecoveryClass::Desync]: every other protocol
    ///   violation and round-trip mismatches — the decoder's references
    ///   can no longer be trusted;
    /// - [`Fatal`][RecoveryClass::Fatal]: parameter, width, stride, and
    ///   snapshot-restore errors.
    pub fn recovery_class(&self) -> RecoveryClass {
        match self {
            CodecError::ProtocolViolation { code, .. }
                if *code == Parity::FAULT_CODE || *code == SecDed::FAULT_CODE =>
            {
                RecoveryClass::Transient
            }
            CodecError::AddressOutOfRange { .. } => RecoveryClass::Transient,
            CodecError::ProtocolViolation { .. } | CodecError::RoundTripMismatch { .. } => {
                RecoveryClass::Desync
            }
            CodecError::InvalidWidth { .. }
            | CodecError::InvalidStride { .. }
            | CodecError::InvalidParameter { .. }
            | CodecError::SnapshotMismatch { .. } => RecoveryClass::Fatal,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidWidth { bits } => {
                write!(f, "bus width {bits} is outside the supported range 1..=64")
            }
            CodecError::InvalidStride { stride, width } => write!(
                f,
                "stride {stride} is not a nonzero power of two fitting a {width}-bit bus"
            ),
            CodecError::AddressOutOfRange { address, width } => {
                write!(f, "address {address:#x} does not fit on a {width}-bit bus")
            }
            CodecError::ProtocolViolation { code, reason } => {
                write!(f, "{code} protocol violation: {reason}")
            }
            CodecError::RoundTripMismatch {
                cycle,
                expected,
                decoded,
            } => write!(
                f,
                "round-trip mismatch at cycle {cycle}: expected {expected:#x}, decoded {decoded:#x}"
            ),
            CodecError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter {name}: {reason}")
            }
            CodecError::SnapshotMismatch { code, reason } => {
                write!(f, "{code} snapshot mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_trailing_punctuation() {
        let cases: Vec<CodecError> = vec![
            CodecError::InvalidWidth { bits: 65 },
            CodecError::InvalidStride {
                stride: 3,
                width: 32,
            },
            CodecError::AddressOutOfRange {
                address: 0x1_0000_0000,
                width: 32,
            },
            CodecError::ProtocolViolation {
                code: "t0",
                reason: "inc asserted on first cycle",
            },
            CodecError::RoundTripMismatch {
                cycle: 7,
                expected: 1,
                decoded: 2,
            },
            CodecError::InvalidParameter {
                name: "zones",
                reason: "must be nonzero".to_string(),
            },
            CodecError::SnapshotMismatch {
                code: "t0",
                reason: "expected 4 state words",
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase(), "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CodecError>();
    }

    #[test]
    fn recovery_classes_cover_the_taxonomy() {
        // Parity detection is retryable: the wrapper documents that the
        // inner decoder state is untouched on a parity error.
        assert_eq!(
            CodecError::ProtocolViolation {
                code: Parity::FAULT_CODE,
                reason: "aux parity mismatch",
            }
            .recovery_class(),
            RecoveryClass::Transient
        );
        assert_eq!(
            CodecError::AddressOutOfRange {
                address: 0x1_0000_0000,
                width: 32,
            }
            .recovery_class(),
            RecoveryClass::Transient
        );
        // Any inner-code protocol violation means the decoder state is
        // suspect.
        assert_eq!(
            CodecError::ProtocolViolation {
                code: "t0",
                reason: "inc asserted on first cycle",
            }
            .recovery_class(),
            RecoveryClass::Desync
        );
        assert_eq!(
            CodecError::RoundTripMismatch {
                cycle: 3,
                expected: 1,
                decoded: 2,
            }
            .recovery_class(),
            RecoveryClass::Desync
        );
        for fatal in [
            CodecError::InvalidWidth { bits: 65 },
            CodecError::InvalidStride {
                stride: 3,
                width: 32,
            },
            CodecError::InvalidParameter {
                name: "refresh",
                reason: "must be nonzero".to_string(),
            },
            CodecError::SnapshotMismatch {
                code: "t0",
                reason: "wrong code",
            },
        ] {
            assert_eq!(fatal.recovery_class(), RecoveryClass::Fatal, "{fatal}");
        }
    }

    /// Exhaustive classification coverage: every variant is matched
    /// explicitly, with no wildcard arm, against the class
    /// `recovery_class` assigns. Adding a `CodecError` variant without
    /// deciding its recovery class breaks this match at compile time —
    /// the taxonomy can never silently lag the error type.
    #[test]
    fn every_variant_has_a_deliberate_recovery_class() {
        let cases: Vec<CodecError> = vec![
            CodecError::InvalidWidth { bits: 65 },
            CodecError::InvalidStride {
                stride: 3,
                width: 32,
            },
            CodecError::AddressOutOfRange {
                address: 0x10,
                width: 4,
            },
            CodecError::ProtocolViolation {
                code: Parity::FAULT_CODE,
                reason: "aux parity mismatch",
            },
            CodecError::ProtocolViolation {
                code: SecDed::FAULT_CODE,
                reason: "double-line error detected",
            },
            CodecError::ProtocolViolation {
                code: "t0",
                reason: "inc asserted on first cycle",
            },
            CodecError::RoundTripMismatch {
                cycle: 3,
                expected: 1,
                decoded: 2,
            },
            CodecError::InvalidParameter {
                name: "refresh",
                reason: "must be nonzero".to_string(),
            },
            CodecError::SnapshotMismatch {
                code: "t0",
                reason: "wrong code",
            },
        ];
        for err in cases {
            let expected = match &err {
                CodecError::InvalidWidth { .. } => RecoveryClass::Fatal,
                CodecError::InvalidStride { .. } => RecoveryClass::Fatal,
                CodecError::AddressOutOfRange { .. } => RecoveryClass::Transient,
                CodecError::ProtocolViolation { code, .. } => {
                    if *code == Parity::FAULT_CODE || *code == SecDed::FAULT_CODE {
                        RecoveryClass::Transient
                    } else {
                        RecoveryClass::Desync
                    }
                }
                CodecError::RoundTripMismatch { .. } => RecoveryClass::Desync,
                CodecError::InvalidParameter { .. } => RecoveryClass::Fatal,
                CodecError::SnapshotMismatch { .. } => RecoveryClass::Fatal,
            };
            assert_eq!(err.recovery_class(), expected, "{err}");
        }
    }

    #[test]
    fn recovery_class_orders_by_severity() {
        assert!(RecoveryClass::Transient < RecoveryClass::Desync);
        assert!(RecoveryClass::Desync < RecoveryClass::Fatal);
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            CodecError::InvalidWidth { bits: 0 },
            CodecError::InvalidWidth { bits: 0 }
        );
        assert_ne!(
            CodecError::InvalidWidth { bits: 0 },
            CodecError::InvalidWidth { bits: 65 }
        );
    }
}
