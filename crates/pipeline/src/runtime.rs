//! The supervised streaming pipeline itself.

use buscode_core::{
    Access, BusState, CodeKind, CodeParams, CodecError, RecoveryClass, Snapshot, SnapshotDecoder,
    SnapshotEncoder, StateImage, Tier,
};
use buscode_telemetry::MetricSet;

use crate::clock::{Clock, SystemClock};
use crate::policy::{DegradeMachine, DegradePolicy, Mode, RecoveryPolicy, Transition};
use crate::redundancy::{RedundancyManager, RedundancyPolicy, TierShift};

/// Errors that abort the pipeline (everything recoverable is handled by
/// policy and reported through [`PipelineMetrics`] instead).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// A codec could not be constructed from the configuration.
    Config(CodecError),
    /// A fatal (non-recoverable) codec error surfaced at stream position
    /// `word`.
    Fatal {
        /// Zero-based index of the word being processed.
        word: u64,
        /// The underlying codec error.
        error: CodecError,
    },
    /// A checkpoint could not be parsed or does not match the
    /// configuration it is being restored under.
    Checkpoint {
        /// What went wrong.
        reason: String,
    },
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Config(e) => write!(f, "pipeline configuration error: {e}"),
            PipelineError::Fatal { word, error } => {
                write!(f, "fatal codec error at word {word}: {error}")
            }
            PipelineError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<CodecError> for PipelineError {
    fn from(e: CodecError) -> Self {
        PipelineError::Config(e)
    }
}

/// The bus between encoder and decoder: given the absolute word index
/// and the word the encoder drove, returns the word the decoder sees.
///
/// An identity channel models a clean bus; the soak harness injects
/// faults here. Retransmissions call the channel again for the same word
/// index, drawing fresh faults — exactly like a real retried bus cycle.
pub trait Channel {
    /// Transmits one word.
    fn transmit(&mut self, word_index: u64, word: BusState) -> BusState;
}

impl<F: FnMut(u64, BusState) -> BusState> Channel for F {
    fn transmit(&mut self, word_index: u64, word: BusState) -> BusState {
        self(word_index, word)
    }
}

/// A clean (identity) channel.
pub fn clean_channel() -> impl Channel {
    |_: u64, word: BusState| word
}

/// Counters the supervisor accumulates over a run; the observable outcome
/// of every policy decision.
///
/// [`PipelineMetrics::metrics`] projects these counters onto the shared
/// `buscode-metrics/1` schema, so every tool reports pipeline health
/// through the same names.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Words fully processed (each input access counts once).
    pub words: u64,
    /// Words that decoded correctly on the first transmission.
    pub clean_words: u64,
    /// Words that saw at least one fault (any class).
    pub faulted_words: u64,
    /// Transient-class decode errors observed.
    pub transient_faults: u64,
    /// Retransmissions performed for transient faults.
    pub retries: u64,
    /// Total backoff charged across all retries, in bus cycles.
    pub backoff_cycles: u64,
    /// Desync events (inner protocol violations, verify mismatches, and
    /// transient retries that exhausted their budget).
    pub desyncs: u64,
    /// Forced plain-word resyncs performed.
    pub forced_resyncs: u64,
    /// Largest number of transmissions any single desync needed before
    /// the stream decoded correctly again.
    pub max_resync_gap: u64,
    /// Words abandoned with no correct decode (zero on a healthy run).
    pub unrecovered: u64,
    /// Demotions to plain binary.
    pub demotions: u64,
    /// Re-promotions back to the configured code.
    pub repromotions: u64,
    /// Words processed while demoted.
    pub degraded_words: u64,
    /// Chunks cut short by the watchdog.
    pub watchdog_fires: u64,
    /// Single-line flips the ECC tier corrected in-flight (no retry, no
    /// resync — observable only through this counter).
    pub corrected_faults: u64,
    /// Redundancy-tier escalations (one rung up the ladder each).
    pub escalations: u64,
    /// Redundancy-tier de-escalations (one rung down each).
    pub deescalations: u64,
    /// Words processed while the redundancy tier was ECC.
    pub ecc_words: u64,
}

impl PipelineMetrics {
    /// Projects every counter onto the shared telemetry schema under the
    /// `pipeline.` prefix. All values are deterministic counters, so the
    /// snapshot is byte-identical across `--jobs` settings.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.add_counter("pipeline.words", self.words);
        set.add_counter("pipeline.clean_words", self.clean_words);
        set.add_counter("pipeline.faulted_words", self.faulted_words);
        set.add_counter("pipeline.transient_faults", self.transient_faults);
        set.add_counter("pipeline.retries", self.retries);
        set.add_counter("pipeline.backoff_cycles", self.backoff_cycles);
        set.add_counter("pipeline.desyncs", self.desyncs);
        set.add_counter("pipeline.forced_resyncs", self.forced_resyncs);
        set.set_gauge("pipeline.max_resync_gap", self.max_resync_gap);
        set.add_counter("pipeline.unrecovered", self.unrecovered);
        set.add_counter("pipeline.demotions", self.demotions);
        set.add_counter("pipeline.repromotions", self.repromotions);
        set.add_counter("pipeline.degraded_words", self.degraded_words);
        set.add_counter("pipeline.watchdog_fires", self.watchdog_fires);
        set.add_counter("pipeline.corrected_faults", self.corrected_faults);
        set.add_counter("pipeline.escalations", self.escalations);
        set.add_counter("pipeline.deescalations", self.deescalations);
        set.add_counter("pipeline.ecc_words", self.ecc_words);
        set
    }
}

/// Configuration of a [`Pipeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// The configured (primary) code.
    pub kind: CodeKind,
    /// Bus width and stride.
    pub params: CodeParams,
    /// `Some(r)`: run the code under the `Hardened` wrapper with refresh
    /// interval `r`; `None`: run it bare.
    pub refresh: Option<u64>,
    /// Words per chunk (the bounded-memory unit of work).
    pub chunk_words: usize,
    /// Recovery policy.
    pub policy: RecoveryPolicy,
    /// Degradation policy.
    pub degrade: DegradePolicy,
    /// Adaptive-redundancy policy (disabled by default: the tier is
    /// pinned by [`PipelineConfig::refresh`]).
    pub redundancy: RedundancyPolicy,
    /// Per-chunk watchdog deadline in microseconds (`None`: no deadline).
    pub deadline_micros: Option<u64>,
}

impl PipelineConfig {
    /// A default configuration for `kind`: hardened with refresh 16,
    /// 4096-word chunks, default policies, no deadline.
    pub fn new(kind: CodeKind, params: CodeParams) -> Self {
        PipelineConfig {
            kind,
            params,
            refresh: Some(16),
            chunk_words: 4096,
            policy: RecoveryPolicy::default(),
            degrade: DegradePolicy::default(),
            redundancy: RedundancyPolicy::default(),
            deadline_micros: None,
        }
    }

    /// A configuration pinned to one protection tier — what a network
    /// session negotiates at open: bare runs the code alone, parity runs
    /// it hardened with refresh interval `refresh`, and ECC pins the
    /// redundancy ladder at its top rung (the manager never escalates
    /// above or de-escalates below it).
    pub fn fixed_tier(kind: CodeKind, params: CodeParams, tier: Tier, refresh: u64) -> Self {
        let mut config = PipelineConfig::new(kind, params);
        match tier {
            Tier::Bare => config.refresh = None,
            Tier::Parity => config.refresh = Some(refresh.max(1)),
            Tier::Ecc => {
                config.refresh = Some(refresh.max(1));
                config.redundancy = RedundancyPolicy {
                    enabled: true,
                    start: Tier::Ecc,
                    floor: Tier::Ecc,
                    stable_window: u64::MAX,
                    ..RedundancyPolicy::default()
                };
            }
        }
        config
    }

    /// The redundancy tier the pipeline starts at: the policy's start
    /// tier when adaptive, otherwise pinned by [`PipelineConfig::refresh`]
    /// (`None` → bare, `Some(_)` → parity).
    pub fn initial_tier(&self) -> Tier {
        if self.redundancy.enabled {
            self.redundancy.start
        } else if self.refresh.is_some() {
            Tier::Parity
        } else {
            Tier::Bare
        }
    }
}

/// The outcome of one [`Pipeline::run_chunk`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkReport {
    /// Words processed before the chunk ended.
    pub processed: usize,
    /// True when the watchdog cut the chunk short.
    pub truncated: bool,
}

/// The supervised streaming runtime; see the [crate docs](crate).
pub struct Pipeline {
    config: PipelineConfig,
    enc: Box<dyn SnapshotEncoder>,
    dec: Box<dyn SnapshotDecoder>,
    plain_enc: Box<dyn SnapshotEncoder>,
    plain_dec: Box<dyn SnapshotDecoder>,
    degrade: DegradeMachine,
    redundancy: RedundancyManager,
    stats: PipelineMetrics,
    position: u64,
    clock: Box<dyn Clock>,
    /// The active decoder's state before the current word's first decode,
    /// refilled in place on every word: a transient fault restores it.
    rollback: StateImage,
}

type CodecPair = (Box<dyn SnapshotEncoder>, Box<dyn SnapshotDecoder>);

/// Refresh interval used for the parity and ECC tiers when the
/// configuration runs bare (`refresh: None`) but the adaptive manager
/// escalates anyway.
const DEFAULT_TIER_REFRESH: u64 = 16;

fn build_tier_pair(config: &PipelineConfig, tier: Tier) -> Result<CodecPair, CodecError> {
    let refresh = config.refresh.unwrap_or(DEFAULT_TIER_REFRESH);
    config
        .kind
        .build_snapshot_codec(config.params, tier, refresh)
}

impl Pipeline {
    /// Builds a pipeline with the real system clock.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] when the codec construction
    /// rejects the parameters.
    pub fn new(config: PipelineConfig) -> Result<Self, PipelineError> {
        Self::with_clock(config, Box::new(SystemClock::new()))
    }

    /// Builds a pipeline with an explicit clock (tests use
    /// [`ManualClock`][crate::ManualClock]).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Config`] when the codec construction
    /// rejects the parameters.
    pub fn with_clock(
        config: PipelineConfig,
        clock: Box<dyn Clock>,
    ) -> Result<Self, PipelineError> {
        let tier = config.initial_tier();
        let (enc, dec) = build_tier_pair(&config, tier)?;
        let plain = CodeParams {
            width: config.params.width,
            stride: config.params.stride,
        };
        // Seed the manager at the effective tier so fixed-mode pipelines
        // report the tier they actually run at.
        let policy = RedundancyPolicy {
            start: tier,
            ..config.redundancy
        };
        Ok(Pipeline {
            enc,
            dec,
            plain_enc: CodeKind::Binary.snapshot_encoder(plain)?,
            plain_dec: CodeKind::Binary.snapshot_decoder(plain)?,
            degrade: DegradeMachine::new(config.degrade),
            redundancy: RedundancyManager::new(policy),
            stats: PipelineMetrics::default(),
            position: 0,
            clock,
            config,
            rollback: StateImage::default(),
        })
    }

    /// The configuration this pipeline runs.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> PipelineMetrics {
        self.stats
    }

    /// Words fully processed so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Whether the runtime is currently demoted to plain binary.
    pub fn mode(&self) -> Mode {
        self.degrade.mode()
    }

    /// The redundancy tier the primary codec pair currently runs at.
    pub fn tier(&self) -> Tier {
        self.redundancy.tier()
    }

    /// Drives one access through encode → channel → decode under the
    /// supervisor, applying the recovery and degradation policies.
    ///
    /// Returns the decoded address (equal to the masked input address on
    /// every recovered word).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Fatal`] only for
    /// [`RecoveryClass::Fatal`] codec errors; everything else is handled
    /// by policy and recorded in the statistics.
    pub fn process(
        &mut self,
        access: Access,
        channel: &mut dyn Channel,
    ) -> Result<u64, PipelineError> {
        let expected = access.address & self.config.params.width.mask();
        let position = self.position;
        let recovery = self.config.policy;
        let mut had_error = false;
        // In-flight ECC corrections are invisible to the decode result;
        // the counter delta is the only trace they leave.
        let corrected_before = self.dec.corrected_count();

        let (enc, dec) = match self.degrade.mode() {
            Mode::Normal => (&mut self.enc, &mut self.dec),
            Mode::Degraded => (&mut self.plain_enc, &mut self.plain_dec),
        };
        let wire_word = enc.encode(access);
        dec.snapshot_into(&mut self.rollback);
        let mut outcome = decode_once(dec.as_mut(), channel, position, wire_word, access, expected);

        // Transient faults: roll the decoder back and retransmit, with
        // capped exponential backoff (the shared schedule the link-layer
        // ARQ timers also run on), until the retry budget runs out.
        if recovery.enabled {
            let backoff = recovery.backoff();
            let mut attempt = 0u32;
            while let DecodeOutcome::Transient = outcome {
                had_error = true;
                self.stats.transient_faults += 1;
                if attempt >= recovery.max_retries {
                    // Escalate: treat the word as a desync.
                    outcome = DecodeOutcome::Desync;
                    break;
                }
                self.stats.retries += 1;
                self.stats.backoff_cycles += backoff.delay(attempt);
                attempt += 1;
                dec.restore(&self.rollback)
                    .map_err(|error| PipelineError::Fatal {
                        word: position,
                        error,
                    })?;
                outcome = decode_once(dec.as_mut(), channel, position, wire_word, access, expected);
            }
        } else if !matches!(outcome, DecodeOutcome::Ok(_)) {
            had_error = true;
        }

        // Desync (or verify mismatch, or exhausted retries): force a
        // plain-word resync — reset both halves so the freshly reset
        // encoder emits a self-contained word — bounded by the policy's
        // resync budget.
        let decoded = match outcome {
            DecodeOutcome::Ok(addr) => {
                if had_error {
                    // Recovered through retries alone: gap of one word.
                    self.stats.max_resync_gap = self.stats.max_resync_gap.max(1);
                }
                addr
            }
            DecodeOutcome::Fatal(error) => {
                return Err(PipelineError::Fatal {
                    word: position,
                    error,
                });
            }
            DecodeOutcome::Transient | DecodeOutcome::Desync => {
                had_error = true;
                if recovery.enabled {
                    self.stats.desyncs += 1;
                    let mut recovered = None;
                    let mut gap = 0u64;
                    for _ in 0..recovery.resync_bound.max(1) {
                        gap += 1;
                        self.stats.forced_resyncs += 1;
                        enc.reset();
                        dec.reset();
                        let plain_word = enc.encode(access);
                        match decode_once(
                            dec.as_mut(),
                            channel,
                            position,
                            plain_word,
                            access,
                            expected,
                        ) {
                            DecodeOutcome::Ok(addr) => {
                                recovered = Some(addr);
                                break;
                            }
                            DecodeOutcome::Fatal(error) => {
                                return Err(PipelineError::Fatal {
                                    word: position,
                                    error,
                                });
                            }
                            // Faulted again: resync once more.
                            DecodeOutcome::Transient | DecodeOutcome::Desync => {}
                        }
                    }
                    self.stats.max_resync_gap = self.stats.max_resync_gap.max(gap);
                    match recovered {
                        Some(addr) => addr,
                        None => {
                            self.stats.unrecovered += 1;
                            expected // the word is lost; carry on with the stream
                        }
                    }
                } else {
                    self.stats.unrecovered += 1;
                    expected
                }
            }
        };

        let corrected_delta = self.dec.corrected_count().saturating_sub(corrected_before);
        self.stats.corrected_faults += corrected_delta;
        self.stats.words += 1;
        if had_error {
            self.stats.faulted_words += 1;
        } else {
            self.stats.clean_words += 1;
        }
        if self.degrade.mode() == Mode::Degraded {
            self.stats.degraded_words += 1;
        }
        if self.redundancy.tier() == Tier::Ecc {
            self.stats.ecc_words += 1;
        }
        match self.degrade.on_word(position, had_error) {
            Some(Transition::Demote) => {
                self.stats.demotions += 1;
                // The plain pair starts from reset: stateless and synced.
                self.plain_enc.reset();
                self.plain_dec.reset();
            }
            Some(Transition::Repromote) => {
                self.stats.repromotions += 1;
                // Re-promote through a reset: both halves re-enter the
                // configured code from its self-contained initial state.
                self.enc.reset();
                self.dec.reset();
            }
            None => {}
        }
        // The redundancy estimator must see the faults the current tier
        // absorbed silently, or a fully-correcting ECC rung would look
        // clean and flap straight back into the noise.
        let had_fault = had_error || corrected_delta > 0;
        if let Some(shift) = self.redundancy.on_word(position, had_fault) {
            match shift {
                TierShift::Escalate => self.stats.escalations += 1,
                TierShift::Deescalate => self.stats.deescalations += 1,
            }
            // Rebuild both primary halves at the new tier from reset:
            // the freshly reset encoder's next word is self-contained,
            // so the tier switch doubles as a resync.
            let (enc, dec) =
                build_tier_pair(&self.config, self.redundancy.tier()).map_err(|error| {
                    PipelineError::Fatal {
                        word: position,
                        error,
                    }
                })?;
            self.enc = enc;
            self.dec = dec;
        }
        self.position += 1;
        Ok(decoded)
    }

    /// Processes up to one chunk of accesses, stopping early when the
    /// watchdog deadline expires.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError::Fatal`] from [`Pipeline::process`].
    pub fn run_chunk(
        &mut self,
        accesses: &[Access],
        channel: &mut dyn Channel,
    ) -> Result<ChunkReport, PipelineError> {
        let start = self.clock.now_micros();
        let mut processed = 0usize;
        for &access in accesses {
            if let Some(deadline) = self.config.deadline_micros {
                if self.clock.now_micros().saturating_sub(start) > deadline {
                    self.stats.watchdog_fires += 1;
                    return Ok(ChunkReport {
                        processed,
                        truncated: true,
                    });
                }
            }
            self.process(access, channel)?;
            processed += 1;
        }
        Ok(ChunkReport {
            processed,
            truncated: false,
        })
    }

    /// Runs an entire access stream through fixed-size chunks: memory use
    /// is bounded by [`PipelineConfig::chunk_words`] regardless of stream
    /// length. Chunks the watchdog cuts short are re-chunked and resumed,
    /// so every word is eventually processed.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError::Fatal`] from [`Pipeline::process`].
    pub fn run(
        &mut self,
        accesses: impl IntoIterator<Item = Access>,
        channel: &mut dyn Channel,
    ) -> Result<PipelineMetrics, PipelineError> {
        let chunk = self.config.chunk_words.max(1);
        let mut buf: Vec<Access> = Vec::with_capacity(chunk);
        for access in accesses {
            buf.push(access);
            if buf.len() == chunk {
                self.drain(&buf, channel)?;
                buf.clear();
            }
        }
        self.drain(&buf, channel)?;
        Ok(self.stats)
    }

    fn drain(
        &mut self,
        accesses: &[Access],
        channel: &mut dyn Channel,
    ) -> Result<(), PipelineError> {
        let mut rest = accesses;
        while !rest.is_empty() {
            let report = self.run_chunk(rest, channel)?;
            rest = &rest[report.processed..];
            if report.truncated && report.processed == 0 {
                // Deadline shorter than a single word: process one word
                // unconditionally so the stream always makes progress.
                if let Some((&first, tail)) = rest.split_first() {
                    self.process(first, channel)?;
                    rest = tail;
                }
            }
        }
        Ok(())
    }

    /// Captures the full runtime state — both primary codec snapshots,
    /// the degradation machine, the redundancy manager, the statistics,
    /// and the stream position.
    pub fn checkpoint(&self) -> crate::Checkpoint {
        crate::Checkpoint {
            code: self.config.kind,
            params: self.config.params,
            refresh: self.config.refresh,
            position: self.position,
            encoder: self.enc.snapshot(),
            decoder: self.dec.snapshot(),
            degrade: self.degrade.snapshot(),
            redundancy: self.redundancy.snapshot(),
            stats: self.stats,
        }
    }

    /// Rebuilds a pipeline from a checkpoint, resuming exactly where
    /// [`Pipeline::checkpoint`] captured it (with the real system clock).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Checkpoint`] when the checkpoint's codec
    /// header does not match `config` or a state image fails validation,
    /// and [`PipelineError::Config`] when the codecs cannot be built.
    pub fn from_checkpoint(
        config: PipelineConfig,
        checkpoint: &crate::Checkpoint,
    ) -> Result<Self, PipelineError> {
        Self::from_checkpoint_with_clock(config, checkpoint, Box::new(SystemClock::new()))
    }

    /// [`Pipeline::from_checkpoint`] with an explicit clock.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Pipeline::from_checkpoint`].
    pub fn from_checkpoint_with_clock(
        config: PipelineConfig,
        checkpoint: &crate::Checkpoint,
        clock: Box<dyn Clock>,
    ) -> Result<Self, PipelineError> {
        if checkpoint.code != config.kind
            || checkpoint.params != config.params
            || checkpoint.refresh != config.refresh
        {
            return Err(PipelineError::Checkpoint {
                reason: format!(
                    "checkpoint was taken for {} (width {}, refresh {:?}), not the configured codec",
                    checkpoint.code,
                    checkpoint.params.width.bits(),
                    checkpoint.refresh
                ),
            });
        }
        let mut pipe = Self::with_clock(config, clock)?;
        if checkpoint.redundancy.tier != pipe.redundancy.tier() {
            if !config.redundancy.enabled {
                return Err(PipelineError::Checkpoint {
                    reason: format!(
                        "checkpoint was taken at redundancy tier '{}' but the pipeline runs a fixed '{}' tier",
                        checkpoint.redundancy.tier,
                        pipe.redundancy.tier()
                    ),
                });
            }
            // An adaptive run may checkpoint anywhere on the ladder:
            // rebuild the primary pair at the checkpointed tier before
            // restoring the state images into it.
            let (enc, dec) = build_tier_pair(&config, checkpoint.redundancy.tier)
                .map_err(PipelineError::Config)?;
            pipe.enc = enc;
            pipe.dec = dec;
        }
        pipe.redundancy.restore(checkpoint.redundancy);
        pipe.enc
            .restore(&checkpoint.encoder)
            .map_err(|e| PipelineError::Checkpoint {
                reason: format!("encoder state: {e}"),
            })?;
        pipe.dec
            .restore(&checkpoint.decoder)
            .map_err(|e| PipelineError::Checkpoint {
                reason: format!("decoder state: {e}"),
            })?;
        pipe.degrade.restore(checkpoint.degrade);
        pipe.stats = checkpoint.stats;
        pipe.position = checkpoint.position;
        Ok(pipe)
    }
}

/// What one transmission attempt produced, after end-to-end verification.
enum DecodeOutcome {
    /// Decoded and matched the transmitted address.
    Ok(u64),
    /// A transient-class decode error (retryable).
    Transient,
    /// A desync-class error or a verified wrong address.
    Desync,
    /// A fatal-class error.
    Fatal(CodecError),
}

fn decode_once(
    dec: &mut dyn SnapshotDecoder,
    channel: &mut dyn Channel,
    position: u64,
    word: BusState,
    access: Access,
    expected: u64,
) -> DecodeOutcome {
    let received = channel.transmit(position, word);
    match dec.decode(received, access.kind) {
        Ok(addr) if addr == expected => DecodeOutcome::Ok(addr),
        // The word decoded but to the wrong address: a silent corruption
        // caught by end-to-end verification — decoder state is suspect.
        Ok(_) => DecodeOutcome::Desync,
        Err(e) => match e.recovery_class() {
            RecoveryClass::Transient => DecodeOutcome::Transient,
            RecoveryClass::Desync => DecodeOutcome::Desync,
            RecoveryClass::Fatal => DecodeOutcome::Fatal(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use buscode_core::rng::Rng64;
    use buscode_fault::models::{flip_line, BusGeometry};

    fn stream(n: u64) -> impl Iterator<Item = Access> {
        (0..n).map(|i| {
            if i % 5 == 4 {
                Access::data(0x2_0000 + 16 * (i % 64))
            } else {
                Access::instruction(0x400 + 4 * i)
            }
        })
    }

    #[test]
    fn clean_run_over_every_code() {
        for kind in CodeKind::all() {
            for refresh in [None, Some(8)] {
                let mut config = PipelineConfig::new(kind, CodeParams::default());
                config.refresh = refresh;
                config.chunk_words = 64;
                let mut pipe = Pipeline::new(config).unwrap();
                let stats = pipe.run(stream(1000), &mut clean_channel()).unwrap();
                assert_eq!(stats.words, 1000, "{kind}");
                assert_eq!(stats.clean_words, 1000, "{kind}");
                assert_eq!(stats.unrecovered, 0, "{kind}");
                assert_eq!(stats.desyncs, 0, "{kind}");
            }
        }
    }

    #[test]
    fn decoded_addresses_match_inputs() {
        let config = PipelineConfig::new(CodeKind::DualT0Bi, CodeParams::default());
        let mut pipe = Pipeline::new(config).unwrap();
        let mut channel = clean_channel();
        for access in stream(500) {
            let decoded = pipe.process(access, &mut channel).unwrap();
            assert_eq!(decoded, access.address);
        }
    }

    #[test]
    fn transient_flip_is_retried_and_recovered() {
        // Hardened T0: a single flipped line is caught by parity
        // (transient) and the retransmission succeeds.
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.degrade.enabled = false;
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 2);
        let mut hits = 0u64;
        let mut channel = |i: u64, mut w: BusState| {
            if i == 100 && hits == 0 {
                hits += 1;
                flip_line(&mut w, geometry, 7);
            }
            w
        };
        let stats = pipe.run(stream(300), &mut channel).unwrap();
        assert_eq!(stats.words, 300);
        assert_eq!(stats.transient_faults, 1);
        assert_eq!(stats.retries, 1);
        assert!(stats.backoff_cycles >= 1);
        assert_eq!(stats.unrecovered, 0);
        assert_eq!(stats.desyncs, 0);
    }

    #[test]
    fn silent_corruption_forces_a_resync() {
        // Bare T0 has no parity: a double flip decodes to a wrong
        // address, which verification catches as a desync.
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.refresh = None;
        config.degrade.enabled = false;
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 1);
        let mut hits = 0u64;
        let mut channel = |i: u64, mut w: BusState| {
            if i == 50 && hits == 0 {
                hits += 1;
                flip_line(&mut w, geometry, 3);
            }
            w
        };
        let stats = pipe.run(stream(200), &mut channel).unwrap();
        assert_eq!(stats.words, 200);
        assert!(stats.desyncs >= 1);
        assert!(stats.forced_resyncs >= 1);
        assert!(stats.max_resync_gap >= 1);
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn recovery_disabled_leaves_corruption_unrecovered() {
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.refresh = None;
        config.policy.enabled = false;
        config.degrade.enabled = false;
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 1);
        let mut channel = |i: u64, mut w: BusState| {
            if i == 50 {
                flip_line(&mut w, geometry, 3);
            }
            w
        };
        let stats = pipe.run(stream(200), &mut channel).unwrap();
        assert!(stats.unrecovered >= 1);
    }

    #[test]
    fn burst_demotes_then_repromotes() {
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.degrade = DegradePolicy {
            enabled: true,
            window: 64,
            demote_errors: 4,
            stable_window: 64,
        };
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 2);
        let mut rng = Rng64::seed_from_u64(7);
        let mut channel = move |i: u64, mut w: BusState| {
            // Heavy fault burst between words 200 and 280.
            if (200..280).contains(&i) && rng.gen_bool(0.5) {
                let line = rng.gen_range(0..34u32);
                flip_line(&mut w, geometry, line);
            }
            w
        };
        let stats = pipe.run(stream(1000), &mut channel).unwrap();
        assert!(stats.demotions >= 1, "{stats:?}");
        assert!(stats.repromotions >= 1, "{stats:?}");
        assert!(stats.degraded_words > 0);
        assert_eq!(stats.unrecovered, 0, "{stats:?}");
        assert_eq!(pipe.mode(), Mode::Normal);
    }

    #[test]
    fn adaptive_redundancy_walks_up_and_back_down() {
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.degrade.enabled = false;
        config.redundancy = RedundancyPolicy {
            enabled: true,
            window: 64,
            escalate_faults: 4,
            stable_window: 256,
            start: Tier::Bare,
            floor: Tier::Bare,
        };
        let mut pipe = Pipeline::new(config).unwrap();
        assert_eq!(pipe.tier(), Tier::Bare);
        let geometry = BusGeometry::new(32, 0);
        let mut rng = Rng64::seed_from_u64(11);
        let mut channel = move |i: u64, mut w: BusState| {
            // A noisy stretch between words 100 and 400, payload lines
            // only so every tier sees the same fault surface.
            if (100..400).contains(&i) && rng.gen_bool(0.3) {
                let line = rng.gen_range(0..32u32);
                flip_line(&mut w, geometry, line);
            }
            w
        };
        let stats = pipe.run(stream(2000), &mut channel).unwrap();
        assert!(stats.escalations >= 2, "{stats:?}");
        assert!(stats.deescalations >= 1, "{stats:?}");
        assert!(stats.corrected_faults > 0, "{stats:?}");
        assert!(stats.ecc_words > 0, "{stats:?}");
        assert_eq!(stats.unrecovered, 0, "{stats:?}");
        assert_eq!(pipe.tier(), Tier::Bare, "{stats:?}");
    }

    #[test]
    fn fixed_tier_pins_every_rung() {
        let params = CodeParams::default();
        for &tier in Tier::all() {
            let config = PipelineConfig::fixed_tier(CodeKind::T0, params, tier, 16);
            assert_eq!(config.initial_tier(), tier);
            let mut pipe = Pipeline::new(config).unwrap();
            assert_eq!(pipe.tier(), tier);
            let stats = pipe.run(stream(300), &mut clean_channel()).unwrap();
            assert_eq!(stats.words, 300, "{tier}");
            assert_eq!(stats.unrecovered, 0, "{tier}");
            assert_eq!(stats.escalations, 0, "{tier}");
            assert_eq!(stats.deescalations, 0, "{tier}");
            assert_eq!(pipe.tier(), tier);
        }
        // The ECC rung stays pinned even under sustained faults.
        let config = PipelineConfig::fixed_tier(CodeKind::T0, params, Tier::Ecc, 16);
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 0);
        let mut channel = move |_: u64, mut w: BusState| {
            flip_line(&mut w, geometry, 4);
            w
        };
        let stats = pipe.run(stream(200), &mut channel).unwrap();
        assert_eq!(stats.corrected_faults, 200);
        assert_eq!(pipe.tier(), Tier::Ecc);
    }

    #[test]
    fn fixed_mode_pins_the_tier() {
        let mut config = PipelineConfig::new(CodeKind::Gray, CodeParams::default());
        config.refresh = Some(8);
        assert_eq!(config.initial_tier(), Tier::Parity);
        let pipe = Pipeline::new(config).unwrap();
        assert_eq!(pipe.tier(), Tier::Parity);
        config.refresh = None;
        let mut pipe = Pipeline::new(config).unwrap();
        assert_eq!(pipe.tier(), Tier::Bare);
        // Faults never move a fixed-mode pipeline off its tier.
        let geometry = BusGeometry::new(32, 0);
        let mut channel = move |i: u64, mut w: BusState| {
            if i.is_multiple_of(3) {
                flip_line(&mut w, geometry, 2);
            }
            w
        };
        let stats = pipe.run(stream(500), &mut channel).unwrap();
        assert_eq!(stats.escalations, 0);
        assert_eq!(stats.ecc_words, 0);
        assert_eq!(pipe.tier(), Tier::Bare);
    }

    #[test]
    fn silent_corrections_hold_the_ecc_tier() {
        // Every word arrives with one flipped line; ECC corrects them all
        // in-flight, so no decode ever errors — yet the estimator must
        // not read the stream as clean and de-escalate into the noise.
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.degrade.enabled = false;
        config.redundancy = RedundancyPolicy {
            enabled: true,
            window: 32,
            escalate_faults: 4,
            stable_window: 16,
            start: Tier::Ecc,
            floor: Tier::Bare,
        };
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 0);
        let mut channel = move |_: u64, mut w: BusState| {
            flip_line(&mut w, geometry, 5);
            w
        };
        let stats = pipe.run(stream(200), &mut channel).unwrap();
        assert_eq!(stats.corrected_faults, 200, "{stats:?}");
        assert_eq!(stats.clean_words, 200, "{stats:?}");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.deescalations, 0, "{stats:?}");
        assert_eq!(pipe.tier(), Tier::Ecc);
    }

    #[test]
    fn checkpoint_restores_an_escalated_tier() {
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.degrade.enabled = false;
        config.redundancy = RedundancyPolicy {
            enabled: true,
            window: 64,
            escalate_faults: 2,
            stable_window: u64::MAX,
            start: Tier::Bare,
            floor: Tier::Bare,
        };
        let mut pipe = Pipeline::new(config).unwrap();
        let geometry = BusGeometry::new(32, 0);
        let mut channel = move |i: u64, mut w: BusState| {
            if i < 8 {
                flip_line(&mut w, geometry, (i % 32) as u32);
            }
            w
        };
        let accesses: Vec<Access> = stream(300).collect();
        for &a in &accesses[..150] {
            pipe.process(a, &mut channel).unwrap();
        }
        assert_eq!(pipe.tier(), Tier::Ecc);
        let checkpoint = pipe.checkpoint();
        let mut resumed = Pipeline::from_checkpoint(config, &checkpoint).unwrap();
        assert_eq!(resumed.tier(), Tier::Ecc);
        for &a in &accesses[150..] {
            let x = pipe.process(a, &mut clean_channel()).unwrap();
            let y = resumed.process(a, &mut clean_channel()).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(pipe.stats(), resumed.stats());
        assert_eq!(pipe.checkpoint().encoder, resumed.checkpoint().encoder);
    }

    #[test]
    fn fixed_mode_rejects_a_checkpoint_from_another_tier() {
        let mut adaptive = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        adaptive.degrade.enabled = false;
        adaptive.redundancy = RedundancyPolicy {
            enabled: true,
            window: 64,
            escalate_faults: 2,
            stable_window: u64::MAX,
            start: Tier::Ecc,
            floor: Tier::Bare,
        };
        let pipe = Pipeline::new(adaptive).unwrap();
        let checkpoint = pipe.checkpoint();
        let mut fixed = adaptive;
        fixed.redundancy = RedundancyPolicy::default();
        match Pipeline::from_checkpoint(fixed, &checkpoint) {
            Err(PipelineError::Checkpoint { reason }) => {
                assert!(reason.contains("fixed"), "{reason}");
            }
            Err(other) => panic!("expected a checkpoint error, got {other:?}"),
            Ok(_) => panic!("a fixed-tier pipeline accepted a mismatched-tier checkpoint"),
        }
    }

    #[test]
    fn watchdog_cuts_chunks_short_but_the_stream_completes() {
        let mut config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        config.chunk_words = 100;
        config.deadline_micros = Some(50);
        // Each clock read advances 10us: ~5 words fit in a deadline.
        let clock = ManualClock::advancing(10);
        let mut pipe = Pipeline::with_clock(config, Box::new(clock)).unwrap();
        let stats = pipe.run(stream(500), &mut clean_channel()).unwrap();
        assert_eq!(stats.words, 500);
        assert!(stats.watchdog_fires > 0);
        assert_eq!(stats.unrecovered, 0);
    }

    #[test]
    fn fatal_errors_abort() {
        let config = PipelineConfig::new(CodeKind::T0, CodeParams::default());
        let mut pipe = Pipeline::new(config).unwrap();
        // Corrupt the decoder image on purpose to force a Fatal error
        // path through restore during a retry: simplest is a direct
        // restore with a wrong image.
        let bad = buscode_core::StateImage::new("gray", vec![]);
        assert!(pipe.dec.restore(&bad).is_err());
    }
}
