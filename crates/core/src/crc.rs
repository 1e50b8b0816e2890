//! Table-driven CRCs: the one implementation behind every integrity check
//! in the stack.
//!
//! - [`Crc16`] — CRC-16-CCITT-FALSE (polynomial `0x1021`, preset
//!   `0xFFFF`, MSB-first, no final XOR), computed eight bytes per step
//!   ("slice-by-8"). It guards the link layer's frames
//!   (`buscode_link::crc16`) and the `buscode-serve` wire protocol.
//! - [`crc32`] — CRC-32 (IEEE 802.3: reflected polynomial `0xEDB88320`,
//!   preset and final XOR all-ones), a byte at a time. It seals pipeline
//!   checkpoints, which are written rarely, so one table is enough.
//!
//! Every table is computed at compile time by a `const fn` from the
//! generator polynomial, in safe Rust with no dependency. Another
//! reflected 32-bit CRC (CRC-32C, say) is one more `reflected_table32`
//! table built from its polynomial.
//!
//! # Examples
//!
//! ```
//! use buscode_core::crc::{crc32, Crc16};
//!
//! // The catalogue check values of both CRCs.
//! assert_eq!(Crc16::checksum(b"123456789"), 0x29B1);
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//!
//! // Streaming in pieces gives the one-shot answer.
//! let mut crc = Crc16::new();
//! crc.update(b'1');
//! crc.update_bytes(b"23456789");
//! assert_eq!(crc.finish(), 0x29B1);
//! ```

/// The slice-by-8 tables of an MSB-first 16-bit CRC with generator
/// `poly`: `tables[k][b]` is the register after byte `b` followed by `k`
/// zero bytes, starting from a zero register. By linearity, eight message
/// bytes then advance the register in one step: XOR the register into the
/// first two bytes and XOR together one lookup per byte.
const fn msb_tables16(poly: u16) -> [[u16; 256]; 8] {
    let mut tables = [[0u16; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = (byte as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ poly
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// The byte table of a reflected (LSB-first) 32-bit CRC with reflected
/// generator `poly`: entry `b` is the register after byte `b` from a zero
/// register.
const fn reflected_table32(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ poly
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
}

/// CRC-16-CCITT's slice-by-8 tables (generator x^16 + x^12 + x^5 + 1).
static CCITT: [[u16; 256]; 8] = msb_tables16(0x1021);

/// CRC-32 (IEEE 802.3)'s byte table.
static IEEE: [u32; 256] = reflected_table32(0xEDB8_8320);

/// A streaming CRC-16-CCITT-FALSE: polynomial `0x1021`, preset `0xFFFF`,
/// MSB-first, no final XOR. See the [module docs](self).
///
/// Any split of a message across [`Crc16::update`] and
/// [`Crc16::update_bytes`] calls gives the same answer as one
/// [`Crc16::checksum`] over the whole message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc16(u16);

impl Default for Crc16 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc16 {
    /// A fresh accumulator at the all-ones preset.
    #[must_use]
    pub const fn new() -> Self {
        Crc16(0xFFFF)
    }

    /// Feeds one byte.
    pub fn update(&mut self, byte: u8) {
        self.0 = step(self.0, byte);
    }

    /// Feeds a byte slice in order, eight bytes per table step.
    pub fn update_bytes(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            crc = CCITT[7][usize::from(b[0] ^ (crc >> 8) as u8)]
                ^ CCITT[6][usize::from(b[1] ^ crc as u8)]
                ^ CCITT[5][usize::from(b[2])]
                ^ CCITT[4][usize::from(b[3])]
                ^ CCITT[3][usize::from(b[4])]
                ^ CCITT[2][usize::from(b[5])]
                ^ CCITT[1][usize::from(b[6])]
                ^ CCITT[0][usize::from(b[7])];
        }
        for &byte in blocks.remainder() {
            crc = step(crc, byte);
        }
        self.0 = crc;
    }

    /// The CRC over everything fed so far.
    #[must_use]
    pub const fn finish(self) -> u16 {
        self.0
    }

    /// One-shot convenience over a byte slice.
    #[must_use]
    pub fn checksum(bytes: &[u8]) -> u16 {
        let mut crc = Crc16::new();
        crc.update_bytes(bytes);
        crc.finish()
    }
}

/// One byte through the CRC-16 register.
fn step(crc: u16, byte: u8) -> u16 {
    (crc << 8) ^ CCITT[0][usize::from((crc >> 8) as u8 ^ byte)]
}

/// CRC-32 (IEEE 802.3) of `bytes`. See the [module docs](self).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &byte| {
        (crc >> 8) ^ IEEE[usize::from(crc as u8 ^ byte)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// The bit-serial CRC-16-CCITT the tables replace: the reference.
    fn crc16_bitwise(bytes: &[u8]) -> u16 {
        let mut crc = 0xFFFFu16;
        for &byte in bytes {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    /// The bitwise CRC-32 (IEEE 802.3) the table replaces: the reference.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn check_values_match_the_catalogue() {
        assert_eq!(crc16_bitwise(b"123456789"), 0x29B1);
        assert_eq!(Crc16::checksum(b"123456789"), 0x29B1);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!((Crc16::checksum(b""), crc32(b"")), (0xFFFF, 0));
    }

    #[test]
    fn tables_match_the_bitwise_references_at_every_length() {
        let buf = seeded_bytes(1024, 0x5eed_0c4c);
        for len in 0..=buf.len() {
            let bytes = &buf[..len];
            assert_eq!(Crc16::checksum(bytes), crc16_bitwise(bytes), "len {len}");
            assert_eq!(crc32(bytes), crc32_bitwise(bytes), "len {len}");
        }
    }

    #[test]
    fn every_split_between_slices_and_single_bytes_agrees() {
        let buf = seeded_bytes(64, 0x5711_7ed0);
        let whole = crc16_bitwise(&buf);
        for i in 0..=buf.len() {
            for j in i..=buf.len() {
                let mut crc = Crc16::default();
                crc.update_bytes(&buf[..i]);
                for &byte in &buf[i..j] {
                    crc.update(byte);
                }
                crc.update_bytes(&buf[j..]);
                assert_eq!(crc.finish(), whole, "split at {i}..{j}");
            }
        }
    }
}
