//! Checkpointable codec state: the [`Snapshot`] trait and its portable
//! [`StateImage`] representation.
//!
//! The stateful codes buy their savings with registers shared between
//! encoder and decoder (T0's reference address, the working-zone bases,
//! the self-organizing list). A long-running stream runtime therefore
//! needs to *capture* and *restore* that state — for crash recovery, for
//! migrating a stream between processes, and for the supervisor's
//! retry-after-restore policy in `buscode-pipeline`.
//!
//! Every encoder and decoder in this crate implements [`Snapshot`]:
//!
//! - [`Snapshot::snapshot_into`] serializes the codec's *dynamic* state
//!   (not its construction parameters) into a [`StateImage`] the caller
//!   owns — a code name plus a flat vector of `u64` state words —
//!   reusing the image's buffers, so a caller that keeps one image and
//!   refills it allocates nothing once the buffers have grown;
//!   [`Snapshot::snapshot`] is the same into a fresh image;
//! - [`Snapshot::restore_from`] validates a borrowed [`ImageView`] — a
//!   code name and its state words — against the codec's code name,
//!   expected word count, and per-word domains, then installs it into the
//!   codec's existing buffers. On error the codec is left unchanged.
//!   [`Snapshot::restore`] is the same from a [`StateImage`]; a wrapper
//!   codec hands its inner codec a view of the inner part of its own
//!   image, so a rollback allocates nothing.
//!
//! The supervised pipeline in `buscode-pipeline` and the link receiver
//! in `buscode-link` each keep one rollback image and refill it before
//! every decode, restoring from it only when the decoder flags a word.
//!
//! Restoring assumes the receiving codec was constructed with the same
//! parameters (width, stride, zone count…) as the one that produced the
//! image; the image deliberately carries only the mutable registers, the
//! way a hardware scan chain would.
//!
//! The resume-equals-straight-through guarantee — encode/decode `k`
//! words, snapshot, restore into a freshly constructed codec, continue,
//! and observe exactly the words a never-interrupted codec produces — is
//! property-tested over all 12 codes in the repository's
//! `tests/checkpoint_restore.rs`.
//!
//! # Examples
//!
//! ```
//! use buscode_core::snapshot::Snapshot;
//! use buscode_core::{Access, CodeKind, CodeParams, Encoder};
//!
//! # fn main() -> Result<(), buscode_core::CodecError> {
//! let params = CodeParams::default();
//! let mut enc = CodeKind::T0.snapshot_encoder(params)?;
//! enc.encode(Access::instruction(0x100));
//! let image = enc.snapshot();
//!
//! // A fresh encoder restored from the image continues identically.
//! let mut resumed = CodeKind::T0.snapshot_encoder(params)?;
//! resumed.restore(&image)?;
//! assert_eq!(
//!     resumed.encode(Access::instruction(0x104)),
//!     enc.encode(Access::instruction(0x104)),
//! );
//! # Ok(())
//! # }
//! ```

use crate::bus::BusWidth;
use crate::error::CodecError;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

/// A serialized codec state: the code's name plus its dynamic registers
/// flattened into `u64` words.
///
/// Images are portable between processes via the text form
/// ([`StateImage::to_line`] / [`StateImage::parse_line`]): the code name
/// followed by the state words in hexadecimal, space-separated, on one
/// line.
///
/// [`StateImage::default`] is an empty image: no code name, no words —
/// the starting point of a rollback image that
/// [`Snapshot::snapshot_into`] refills.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct StateImage {
    code: String,
    words: Vec<u64>,
}

impl StateImage {
    /// Creates an image for `code` from its raw state words.
    pub fn new(code: impl Into<String>, words: Vec<u64>) -> Self {
        StateImage {
            code: code.into(),
            words,
        }
    }

    /// The name of the code that produced this image.
    pub fn code(&self) -> &str {
        &self.code
    }

    /// The raw state words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Borrows the image as an [`ImageView`].
    pub fn view(&self) -> ImageView<'_> {
        ImageView::new(&self.code, &self.words)
    }

    /// Empties the image, names it `code`, and returns its word buffer
    /// for the state words — the first step of every
    /// [`Snapshot::snapshot_into`]. Both buffers keep their capacity.
    pub fn refill(&mut self, code: &str) -> &mut Vec<u64> {
        self.code.clear();
        self.code.push_str(code);
        self.words.clear();
        &mut self.words
    }

    /// Renames the image `{prefix}:{code}` and appends `word`: how a
    /// wrapper codec layers its own register over its inner codec's image.
    pub(crate) fn wrap(&mut self, prefix: &str, word: u64) {
        self.code.insert(0, ':');
        self.code.insert_str(0, prefix);
        self.words.push(word);
    }

    /// Renders the image as a single text line: the code name followed by
    /// the state words in hexadecimal.
    pub fn to_line(&self) -> String {
        let mut line = self.code.clone();
        for w in &self.words {
            line.push(' ');
            line.push_str(&format!("{w:x}"));
        }
        line
    }

    /// Parses a line produced by [`StateImage::to_line`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::SnapshotMismatch`] on an empty line or a
    /// word that is not valid hexadecimal `u64`.
    pub fn parse_line(line: &str) -> Result<Self, CodecError> {
        let mut tokens = line.split_whitespace();
        let code = tokens.next().ok_or(CodecError::SnapshotMismatch {
            code: "state-image",
            reason: "empty state line",
        })?;
        let mut words = Vec::new();
        for tok in tokens {
            let w = u64::from_str_radix(tok, 16).map_err(|_| CodecError::SnapshotMismatch {
                code: "state-image",
                reason: "state word is not hexadecimal",
            })?;
            words.push(w);
        }
        Ok(StateImage::new(code, words))
    }
}

/// A borrowed codec state: a code name and its state words, wherever they
/// live — what [`Snapshot::restore_from`] reads.
#[derive(Clone, Copy, Debug)]
pub struct ImageView<'a> {
    code: &'a str,
    words: &'a [u64],
}

impl<'a> ImageView<'a> {
    /// Views `words` as a state of `code`.
    pub fn new(code: &'a str, words: &'a [u64]) -> Self {
        ImageView { code, words }
    }

    /// The name of the code that produced this state.
    pub fn code(&self) -> &'a str {
        self.code
    }

    /// The raw state words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }
}

/// Appends an `Option<u64>` to a state-word vector as a presence flag
/// followed by the value (0 when absent).
pub(crate) fn push_opt(words: &mut Vec<u64>, value: Option<u64>) {
    words.push(u64::from(value.is_some()));
    words.push(value.unwrap_or(0));
}

/// A validating cursor over an [`ImageView`]'s words.
///
/// Restore implementations open the image against their code name, pull
/// the expected words in order, and call [`ImageReader::finish`] to
/// reject trailing words — so a wrong-code or wrong-shape image is always
/// reported as [`CodecError::SnapshotMismatch`] before any state is
/// mutated. Runs of words come back borrowed from the image, already
/// validated, for the codec to copy into its own buffers.
pub(crate) struct ImageReader<'a> {
    code: &'static str,
    words: &'a [u64],
}

impl<'a> ImageReader<'a> {
    /// Opens `image`, checking it was produced by `code`.
    pub(crate) fn open(
        image: ImageView<'a>,
        code: &'static str,
    ) -> Result<ImageReader<'a>, CodecError> {
        if image.code() != code {
            return Err(CodecError::SnapshotMismatch {
                code,
                reason: "image was produced by a different code",
            });
        }
        Ok(ImageReader {
            code,
            words: image.words(),
        })
    }

    fn mismatch(&self, reason: &'static str) -> CodecError {
        CodecError::SnapshotMismatch {
            code: self.code,
            reason,
        }
    }

    /// Pulls the next `n` state words.
    fn take(&mut self, n: usize) -> Result<&'a [u64], CodecError> {
        if self.words.len() < n {
            return Err(self.mismatch("image has too few state words"));
        }
        let (head, rest) = self.words.split_at(n);
        self.words = rest;
        Ok(head)
    }

    /// Pulls a word and checks it does not exceed `max`.
    pub(crate) fn word_at_most(&mut self, max: u64) -> Result<u64, CodecError> {
        Ok(self.words_at_most(1, max)?[0])
    }

    /// Pulls `n` words and checks none exceeds `max`.
    pub(crate) fn words_at_most(&mut self, n: usize, max: u64) -> Result<&'a [u64], CodecError> {
        let words = self.take(n)?;
        if words.iter().any(|&w| w > max) {
            return Err(self.mismatch("state word outside its domain"));
        }
        Ok(words)
    }

    /// Pulls an `Option<u64>` written by [`push_opt`], masking the value
    /// against `max`.
    pub(crate) fn opt_at_most(&mut self, max: u64) -> Result<Option<u64>, CodecError> {
        Ok(self.opts_at_most(1, max)?.next().flatten())
    }

    /// Pulls `n` `Option<u64>`s written by [`push_opt`], checking every
    /// flag is 0 or 1 and every value does not exceed `max`, and yields
    /// them from the image's words.
    pub(crate) fn opts_at_most(
        &mut self,
        n: usize,
        max: u64,
    ) -> Result<impl Iterator<Item = Option<u64>> + 'a, CodecError> {
        let pairs = self.take(2 * n)?.chunks_exact(2);
        if pairs.clone().any(|pair| pair[0] > 1 || pair[1] > max) {
            return Err(self.mismatch("state word outside its domain"));
        }
        Ok(pairs.map(|pair| (pair[0] == 1).then_some(pair[1])))
    }

    /// Checks every word was consumed.
    pub(crate) fn finish(self) -> Result<(), CodecError> {
        if !self.words.is_empty() {
            return Err(self.mismatch("image has too many state words"));
        }
        Ok(())
    }
}

/// Capture and restore of a codec's dynamic state; see the
/// [module docs](self).
pub trait Snapshot {
    /// Serializes the codec's dynamic state into `image`, replacing what it
    /// held and reusing its buffers (see [`StateImage::refill`]).
    fn snapshot_into(&self, image: &mut StateImage);

    /// Serializes the codec's dynamic state into a fresh image.
    fn snapshot(&self) -> StateImage {
        let mut image = StateImage::default();
        self.snapshot_into(&mut image);
        image
    }

    /// Installs a state previously captured by [`Snapshot::snapshot`]
    /// from a codec constructed with the same parameters, reading it from
    /// borrowed words and refilling the codec's existing buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::SnapshotMismatch`] if the image was produced
    /// by a different code, has the wrong number of state words, or
    /// contains a word outside its domain. The codec is unchanged on
    /// error.
    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError>;

    /// Installs a state from `image`; see [`Snapshot::restore_from`].
    ///
    /// # Errors
    ///
    /// As [`Snapshot::restore_from`]. The codec is unchanged on error.
    fn restore(&mut self, image: &StateImage) -> Result<(), CodecError> {
        self.restore_from(image.view())
    }
}

impl<S: Snapshot + ?Sized> Snapshot for Box<S> {
    fn snapshot_into(&self, image: &mut StateImage) {
        (**self).snapshot_into(image);
    }

    fn restore_from(&mut self, image: ImageView<'_>) -> Result<(), CodecError> {
        (**self).restore_from(image)
    }
}

/// An [`Encoder`] whose state can be checkpointed — the object-safe
/// bound the streaming runtime stores codecs behind. `Send` is part of
/// the bound so a pipeline can live inside a server session that hops
/// worker threads; every concrete codec is plain owned data.
pub trait SnapshotEncoder: Encoder + Snapshot + Send {}
impl<T: Encoder + Snapshot + Send + ?Sized> SnapshotEncoder for T {}

/// A [`Decoder`] whose state can be checkpointed.
pub trait SnapshotDecoder: Decoder + Snapshot + Send {}
impl<T: Decoder + Snapshot + Send + ?Sized> SnapshotDecoder for T {}

/// The self-organizing code's `(low_bits, entries)` geometry scaled to
/// the bus: 8 offset bits and 16 list entries on wide buses, shrinking
/// gracefully on narrow ones.
pub(crate) fn self_org_geometry(width: BusWidth) -> (u32, u32) {
    let low_bits = 8.min(width.bits() - 1);
    (low_bits, 16.min(width.bits() - low_bits))
}

impl CodeKind {
    /// Builds this code's encoder behind the checkpointable
    /// [`SnapshotEncoder`] bound — the one per-code construction ladder;
    /// [`CodeKind::encoder`] and the tier factories build on it.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn snapshot_encoder(
        self,
        params: CodeParams,
    ) -> Result<Box<dyn SnapshotEncoder>, CodecError> {
        use crate::codes::*;
        Ok(match self {
            CodeKind::Binary => Box::new(BinaryEncoder::new(params.width)),
            CodeKind::Gray => Box::new(GrayEncoder::new(params.width, params.stride)?),
            CodeKind::BusInvert => Box::new(BusInvertEncoder::new(params.width)),
            CodeKind::T0 => Box::new(T0Encoder::new(params.width, params.stride)?),
            CodeKind::T0Bi => Box::new(T0BiEncoder::new(params.width, params.stride)?),
            CodeKind::DualT0 => Box::new(DualT0Encoder::new(params.width, params.stride)?),
            CodeKind::DualT0Bi => Box::new(DualT0BiEncoder::new(params.width, params.stride)?),
            CodeKind::T0Xor => Box::new(T0XorEncoder::new(params.width, params.stride)?),
            CodeKind::Offset => Box::new(OffsetEncoder::new(params.width)),
            CodeKind::WorkingZone => {
                Box::new(WorkingZoneEncoder::new(params.width, params.stride, 4)?)
            }
            CodeKind::Beach => Box::new(BeachCode::identity(params.width).into_encoder()),
            CodeKind::SelfOrganizing => {
                let (low_bits, entries) = self_org_geometry(params.width);
                Box::new(SelfOrganizingEncoder::new(params.width, low_bits, entries)?)
            }
        })
    }

    /// Builds the decoder paired with [`CodeKind::snapshot_encoder`].
    ///
    /// # Errors
    ///
    /// Propagates parameter validation errors from the code's constructor.
    pub fn snapshot_decoder(
        self,
        params: CodeParams,
    ) -> Result<Box<dyn SnapshotDecoder>, CodecError> {
        use crate::codes::*;
        Ok(match self {
            CodeKind::Binary => Box::new(BinaryDecoder::new(params.width)),
            CodeKind::Gray => Box::new(GrayDecoder::new(params.width, params.stride)?),
            CodeKind::BusInvert => Box::new(BusInvertDecoder::new(params.width)),
            CodeKind::T0 => Box::new(T0Decoder::new(params.width, params.stride)?),
            CodeKind::T0Bi => Box::new(T0BiDecoder::new(params.width, params.stride)?),
            CodeKind::DualT0 => Box::new(DualT0Decoder::new(params.width, params.stride)?),
            CodeKind::DualT0Bi => Box::new(DualT0BiDecoder::new(params.width, params.stride)?),
            CodeKind::T0Xor => Box::new(T0XorDecoder::new(params.width, params.stride)?),
            CodeKind::Offset => Box::new(OffsetDecoder::new(params.width)),
            CodeKind::WorkingZone => {
                Box::new(WorkingZoneDecoder::new(params.width, params.stride, 4)?)
            }
            CodeKind::Beach => Box::new(BeachCode::identity(params.width).into_decoder()),
            CodeKind::SelfOrganizing => {
                let (low_bits, entries) = self_org_geometry(params.width);
                Box::new(SelfOrganizingDecoder::new(params.width, low_bits, entries)?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_round_trip() {
        let image = StateImage::new("t0", vec![1, 0x104, 0xdead_beef, 0]);
        let line = image.to_line();
        assert_eq!(line, "t0 1 104 deadbeef 0");
        assert_eq!(StateImage::parse_line(&line).unwrap(), image);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(StateImage::parse_line("").is_err());
        assert!(StateImage::parse_line("   ").is_err());
        assert!(StateImage::parse_line("t0 zz").is_err());
        // Overflowing hex word.
        assert!(StateImage::parse_line("t0 1ffffffffffffffff").is_err());
    }

    #[test]
    fn reader_rejects_wrong_code_and_shape() {
        let image = StateImage::new("t0", vec![1, 2]);
        assert!(ImageReader::open(image.view(), "gray").is_err());
        let mut r = ImageReader::open(image.view(), "t0").unwrap();
        assert_eq!(r.word_at_most(u64::MAX).unwrap(), 1);
        // Finish with one word left over.
        assert!(r.finish().is_err());

        let mut r = ImageReader::open(image.view(), "t0").unwrap();
        r.word_at_most(u64::MAX).unwrap();
        r.word_at_most(u64::MAX).unwrap();
        assert!(r.word_at_most(u64::MAX).is_err());
    }

    #[test]
    fn reader_enforces_domains() {
        let image = StateImage::new("t0", vec![2, 7]);
        let mut r = ImageReader::open(image.view(), "t0").unwrap();
        assert!(r.word_at_most(1).is_err());
        let image = StateImage::new("t0", vec![1, 0x1_0000]);
        let mut r = ImageReader::open(image.view(), "t0").unwrap();
        assert!(r.opt_at_most(0xffff).is_err());
    }

    #[test]
    fn factories_build_every_code() {
        let params = CodeParams::default();
        for kind in CodeKind::all() {
            let enc = kind.snapshot_encoder(params).unwrap();
            let dec = kind.snapshot_decoder(params).unwrap();
            assert_eq!((enc.name(), dec.name()), (kind.name(), kind.name()));
            assert_eq!(enc.width(), params.width);
            assert_eq!(enc.snapshot().code(), kind.name());
            assert_eq!(dec.snapshot().code(), kind.name());
            let henc = kind
                .tier_snapshot_encoder(params, crate::Tier::Parity, 16)
                .unwrap();
            assert!(henc.snapshot().code().starts_with("hardened:"));
        }
    }
}
