//! Wire frames: what one ARQ-protected bus cycle actually carries.
//!
//! A frame wraps one encoded bus word with the link-layer overhead lines,
//! packed above the codec's own aux lines:
//!
//! ```text
//! payload lines │ codec aux lines │ SEQ(8) │ CTRL(4) │ CRC(16)
//! ```
//!
//! - **SEQ** — the word index modulo 256. The go-back-N window is far
//!   smaller than 128, so an 8-bit sequence number disambiguates every
//!   in-flight frame;
//! - **CTRL** — bit 0 is the *beacon* flag (the encoder was reset before
//!   encoding this word, following the `Hardened` refresh contract: the
//!   receiver must reset its decoder before decoding), bits 1–2 carry the
//!   redundancy tier the sender encoded at (bare/parity/ECC), bit 3 is
//!   reserved and must be zero;
//! - **CRC** — a CRC-16-CCITT over SEQ, CTRL, and the encoded word (the
//!   table-driven [`Crc16`] from `buscode_core::crc`), so the receiver can
//!   reject corrupted frames *before* feeding them to a stateful decoder.
//!
//! The overhead lines ride the same physical channel as the codec lines:
//! the Gilbert–Elliott weather flips them too, and their transitions are
//! charged to the ARQ energy bill (`buscode-power::retransmission_cost`).

use buscode_core::BusState;

/// The streaming CRC-16-CCITT behind link frames and the `buscode-serve`
/// wire protocol, re-exported from the core crate's one CRC module.
pub use buscode_core::crc::Crc16;

/// Sequence-number lines per frame.
pub const SEQ_LINES: u32 = 8;
/// Control lines per frame (beacon flag + 2 tier bits + 1 reserved).
pub const CTRL_LINES: u32 = 4;
/// CRC lines per frame.
pub const CRC_LINES: u32 = 16;
/// Total link-layer overhead lines added to every frame.
pub const OVERHEAD_LINES: u32 = SEQ_LINES + CTRL_LINES + CRC_LINES;

/// CRC-16-CCITT over the frame header and the encoded bus word.
pub fn crc16(seq: u8, ctrl: u8, word: BusState) -> u16 {
    let mut crc = Crc16::new();
    crc.update(seq);
    crc.update(ctrl);
    crc.update_bytes(&word.payload.to_le_bytes());
    crc.update_bytes(&word.aux.to_le_bytes());
    crc.finish()
}

/// One link-layer frame: the encoded bus word plus the overhead fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Word index modulo 256.
    pub seq: u8,
    /// The raw CTRL nibble as carried on the wire (beacon flag, tier
    /// bits, reserved bit — kept verbatim so a flipped reserved bit
    /// still fails the CRC gate).
    pub ctrl: u8,
    /// The encoded bus word (codec payload + codec aux lines).
    pub word: BusState,
    /// The CRC as carried on the wire (equal to the recomputed CRC only
    /// if the frame arrived intact).
    pub crc: u16,
}

impl Frame {
    /// Builds a frame around an encoded word, computing its CRC.
    pub fn new(seq: u8, beacon: bool, tier_code: u8, word: BusState) -> Frame {
        let ctrl = Frame::pack_ctrl(beacon, tier_code);
        Frame {
            seq,
            ctrl,
            word,
            crc: crc16(seq, ctrl, word),
        }
    }

    fn pack_ctrl(beacon: bool, tier_code: u8) -> u8 {
        u8::from(beacon) | (tier_code & 0b11) << 1
    }

    /// The beacon flag: the encoder was reset immediately before
    /// encoding this word, and the receiver must reset its decoder
    /// before decoding it.
    pub fn beacon(&self) -> bool {
        self.ctrl & 1 != 0
    }

    /// The redundancy tier the sender encoded at (0 = bare, 1 = parity,
    /// 2 = ECC) — the receiver rebuilds its decoder when this changes.
    pub fn tier_code(&self) -> u8 {
        self.ctrl >> 1 & 0b11
    }

    /// True when the carried CRC matches the frame's contents — the
    /// receiver's first gate, checked before any decoder state is risked.
    pub fn crc_ok(&self) -> bool {
        self.crc == crc16(self.seq, self.ctrl, self.word)
    }

    /// Packs the frame onto the wire: the overhead fields become extra
    /// aux lines immediately above the codec's `aux_lines` own lines, so
    /// the channel corrupts codec lines and overhead lines alike.
    ///
    /// `aux_lines + OVERHEAD_LINES` must fit in the 64 aux-line budget —
    /// true for every code in the workspace (the widest ECC wrapper uses
    /// ~10 aux lines).
    pub fn to_wire(&self, aux_lines: u32) -> BusState {
        debug_assert!(aux_lines + OVERHEAD_LINES <= 64);
        let overhead = u64::from(self.seq)
            | u64::from(self.ctrl) << SEQ_LINES
            | u64::from(self.crc) << (SEQ_LINES + CTRL_LINES);
        BusState {
            payload: self.word.payload,
            aux: self.word.aux | overhead << aux_lines,
        }
    }

    /// Unpacks a (possibly corrupted) wire word back into a frame. Every
    /// field is taken as observed; [`Frame::crc_ok`] then tells whether
    /// the observation is self-consistent.
    pub fn from_wire(wire: BusState, aux_lines: u32) -> Frame {
        let overhead = wire.aux >> aux_lines;
        let seq = (overhead & 0xff) as u8;
        let ctrl = (overhead >> SEQ_LINES & 0xf) as u8;
        let crc = (overhead >> (SEQ_LINES + CTRL_LINES) & 0xffff) as u16;
        let aux_mask = if aux_lines == 0 {
            0
        } else {
            u64::MAX >> (64 - aux_lines)
        };
        Frame {
            seq,
            ctrl,
            word: BusState {
                payload: wire.payload,
                aux: wire.aux & aux_mask,
            },
            crc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_matches_the_ccitt_check_value() {
        // The classic CCITT-FALSE check: "123456789" -> 0x29B1, and the
        // frame CRC is that checksum over SEQ, CTRL, payload and aux bytes.
        assert_eq!(Crc16::checksum(b"123456789"), 0x29B1);
        let word = BusState::new(0x0123_4567_89AB_CDEF, 0x1FF);
        let mut bytes = vec![42, 5];
        bytes.extend_from_slice(&word.payload.to_le_bytes());
        bytes.extend_from_slice(&word.aux.to_le_bytes());
        assert_eq!(crc16(42, 5, word), Crc16::checksum(&bytes));
    }

    #[test]
    fn wire_round_trip_preserves_every_field() {
        for aux_lines in [0u32, 1, 2, 9, 12] {
            for seq in [0u8, 1, 127, 255] {
                for tier in 0..3u8 {
                    for beacon in [false, true] {
                        let word = BusState::new(
                            0xDEAD_BEEF_u64.rotate_left(u32::from(seq)),
                            u64::from(seq)
                                & ((1 << aux_lines.max(1)) - 1)
                                & if aux_lines == 0 { 0 } else { u64::MAX },
                        );
                        let frame = Frame::new(seq, beacon, tier, word);
                        assert!(frame.crc_ok());
                        let back = Frame::from_wire(frame.to_wire(aux_lines), aux_lines);
                        assert_eq!(back, frame);
                        assert!(back.crc_ok());
                    }
                }
            }
        }
    }

    #[test]
    fn any_single_line_flip_is_caught() {
        // CRC-16 detects all single-bit errors by construction; walk
        // every line of a full-width frame and check none slips through.
        let word = BusState::new(0x0123_4567_89AB_CDEF, 0x1FF);
        let frame = Frame::new(42, true, 2, word);
        let aux_lines = 9;
        let wire = frame.to_wire(aux_lines);
        for line in 0..(64 + aux_lines + OVERHEAD_LINES) {
            let mut hit = wire;
            if line < 64 {
                hit.payload ^= 1 << line;
            } else {
                hit.aux ^= 1 << (line - 64);
            }
            let observed = Frame::from_wire(hit, aux_lines);
            assert!(
                !observed.crc_ok(),
                "a flip on line {line} slipped past the CRC"
            );
        }
    }

    #[test]
    fn burst_corruption_is_overwhelmingly_caught() {
        // CRC-16 misses 2^-16 of random corruption, so 10k random hits
        // expect ~0.15 misses; anything above a couple means the gate
        // is broken, not unlucky.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let word = BusState::new(0xCAFE_F00D, 0x15);
        let frame = Frame::new(7, false, 1, word);
        let wire = frame.to_wire(9);
        let mut missed = 0;
        for _ in 0..10_000 {
            let mut hit = wire;
            hit.payload ^= rng();
            hit.aux ^= rng() & 0x1F_FFFF_FFFF; // 9 aux + 28 overhead lines
            if hit == wire {
                continue;
            }
            if Frame::from_wire(hit, 9).crc_ok() {
                missed += 1;
            }
        }
        assert!(missed <= 2, "CRC missed {missed} of 10k random bursts");
    }

    #[test]
    fn beacon_and_tier_ride_the_ctrl_lines() {
        let frame = Frame::new(3, true, 2, BusState::new(0x55, 0));
        assert_eq!(frame.ctrl, 0b101);
        let decoded = Frame::from_wire(frame.to_wire(0), 0);
        assert!(decoded.beacon());
        assert_eq!(decoded.tier_code(), 2);
    }
}
