//! The go-back-N ARQ session: sender, receiver, and the bursty channel
//! between them, advanced one bus cycle at a time.
//!
//! One [`LinkSession`] moves one address stream across one seeded
//! [`GeChannel`]. The sender encodes words in order through any of the
//! twelve codes, wraps each in a [`Frame`] (sequence number + CRC-16),
//! and keeps up to `window` frames in flight. The receiver CRC-checks
//! every arrival *before* the word touches its stateful decoder, accepts
//! only the next in-sequence frame, and answers with cumulative ACKs or
//! a NAK for the word it actually wants. NAKs and timeouts drive a
//! go-back-N rewind with capped exponential [`Backoff`]; repeated
//! failure rounds escalate the [`RedundancyManager`] ladder and, at the
//! top of the ladder, force a beacon resync (encoder reset, per the
//! `Hardened` refresh contract) so a desynchronised decoder can always
//! recover.
//!
//! The feedback path (ACK/NAK) is modelled as a reliable out-of-band
//! control channel with a fixed delay — the DATE'98 power question is
//! about the forward address bus, so only forward-line transitions are
//! metered ([`LinkMetrics::link_transitions`] for codec lines,
//! [`LinkMetrics::overhead_transitions`] for the 28 frame-overhead lines).

use std::collections::VecDeque;

use buscode_core::{
    Access, BusState, CodeKind, CodeParams, CodecError, SnapshotDecoder, SnapshotEncoder,
    StateImage, Tier,
};
use buscode_engine::Backoff;
use buscode_fault::{BusGeometry, GeChannel, GeChannelStats, GeEvent, GilbertElliott};
use buscode_pipeline::{RedundancyManager, RedundancyPolicy, TierShift};
use buscode_telemetry::MetricSet;

use crate::frame::{Frame, OVERHEAD_LINES};

/// Everything a [`LinkSession`] needs to know besides the stream and the
/// channel weather.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// The bus code protecting the payload lines.
    pub kind: CodeKind,
    /// Width and stride for the code.
    pub params: CodeParams,
    /// Refresh period handed to the `Protected` wrapper at the parity
    /// and ECC tiers.
    pub refresh: u64,
    /// Go-back-N window: frames in flight before the sender stalls.
    /// Must stay below 128 so 8-bit sequence numbers stay unambiguous.
    pub window: usize,
    /// Cycles an ACK/NAK spends on the return path.
    pub feedback_delay: u64,
    /// Cycles without forward progress before the sender times out and
    /// rewinds to the oldest unacknowledged word.
    pub timeout: u64,
    /// Backoff schedule charged (in idle bus cycles) per failure round.
    pub backoff: Backoff,
    /// A beacon frame (encoder reset before encoding) is sent every this
    /// many words, bounding how long a desynchronised decoder can drift.
    pub beacon_interval: u64,
    /// Failure rounds on the same word before the sender asks the
    /// redundancy ladder for an escalation (and forces a beacon resync).
    pub escalate_attempts: u32,
    /// The adaptive-redundancy policy driving tier shifts.
    pub redundancy: RedundancyPolicy,
    /// Hard cap on session length, in cycles per stream word — the
    /// give-up point after which undelivered words count as lost.
    pub max_cycles_per_word: u64,
}

impl LinkConfig {
    /// Defaults tuned for the workspace campaigns: window 4, 2-cycle
    /// feedback, 16-cycle timeout, beacons every 32 words, adaptive
    /// redundancy from bare.
    pub fn new(kind: CodeKind) -> LinkConfig {
        LinkConfig {
            kind,
            params: CodeParams::default(),
            refresh: 32,
            window: 4,
            feedback_delay: 2,
            timeout: 16,
            backoff: Backoff::default(),
            beacon_interval: 32,
            escalate_attempts: 4,
            redundancy: RedundancyPolicy::adaptive(),
            max_cycles_per_word: 64,
        }
    }

    /// Checks the configuration is self-consistent.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::InvalidParameter`] when a field is outside
    /// its documented domain.
    pub fn validate(&self) -> Result<(), CodecError> {
        if self.window == 0 || self.window > 120 {
            return Err(CodecError::InvalidParameter {
                name: "window",
                reason: format!("go-back-N window must be 1..=120, got {}", self.window),
            });
        }
        if self.feedback_delay == 0 {
            return Err(CodecError::InvalidParameter {
                name: "feedback_delay",
                reason: "feedback delay must be at least one cycle".to_string(),
            });
        }
        if self.timeout <= self.feedback_delay {
            return Err(CodecError::InvalidParameter {
                name: "timeout",
                reason: format!(
                    "timeout ({}) must exceed the feedback delay ({})",
                    self.timeout, self.feedback_delay
                ),
            });
        }
        if self.beacon_interval == 0 {
            return Err(CodecError::InvalidParameter {
                name: "beacon_interval",
                reason: "beacon interval must be at least one word".to_string(),
            });
        }
        if self.escalate_attempts == 0 {
            return Err(CodecError::InvalidParameter {
                name: "escalate_attempts",
                reason: "escalation threshold must be at least one round".to_string(),
            });
        }
        if self.max_cycles_per_word < 2 {
            return Err(CodecError::InvalidParameter {
                name: "max_cycles_per_word",
                reason: "sessions need at least two cycles per word".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::new(CodeKind::Binary)
    }
}

/// Counters one ARQ session accumulates — the link layer's ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkMetrics {
    /// Words in the offered stream.
    pub words: u64,
    /// Words delivered to the receiver, in order, exactly once.
    pub delivered_words: u64,
    /// Delivered words whose decoded address did not match the stream
    /// (residual errors that slipped the CRC *and* the decoder).
    pub corrupted_delivered: u64,
    /// Words never delivered before the cycle budget ran out.
    pub lost_words: u64,
    /// Frames put on the wire (first transmissions + retransmissions).
    pub frames_sent: u64,
    /// Frames sent for a word that had already been sent at least once.
    pub retransmissions: u64,
    /// NAKs processed by the sender.
    pub naks: u64,
    /// Progress timeouts that triggered a go-back rewind.
    pub timeouts: u64,
    /// Frames the receiver rejected on CRC before decoding.
    pub crc_rejections: u64,
    /// Frames that passed CRC but whose decode was rejected (decoder
    /// state rolled back via snapshot, NAK sent).
    pub decode_rejections: u64,
    /// In-window duplicate frames the receiver re-ACKed without decoding.
    pub duplicates: u64,
    /// Beacon frames encoded (periodic + forced resyncs).
    pub beacons: u64,
    /// Beacon resyncs forced by retry exhaustion rather than the
    /// periodic schedule.
    pub forced_resyncs: u64,
    /// Tier escalations applied (hinted by retry exhaustion or by the
    /// manager's windowed fault rate).
    pub tier_escalations: u64,
    /// Tier de-escalations applied after sustained clean delivery.
    pub tier_deescalations: u64,
    /// Line errors corrected inside ECC-tier decoders.
    pub corrected: u64,
    /// Idle cycles charged by the backoff schedule.
    pub backoff_cycles: u64,
    /// Total bus cycles the session ran.
    pub cycles: u64,
    /// Forward transitions on the codec lines (payload + codec aux).
    pub link_transitions: u64,
    /// Forward transitions on the 28 frame-overhead lines.
    pub overhead_transitions: u64,
    /// Portion of the forward transitions spent on retransmitted frames.
    pub retransmit_transitions: u64,
    /// The channel's own weather report.
    pub channel: GeChannelStats,
    /// The redundancy tier the sender finished at.
    pub final_tier: Tier,
}

impl Default for LinkMetrics {
    fn default() -> Self {
        LinkMetrics {
            words: 0,
            delivered_words: 0,
            corrupted_delivered: 0,
            lost_words: 0,
            frames_sent: 0,
            retransmissions: 0,
            naks: 0,
            timeouts: 0,
            crc_rejections: 0,
            decode_rejections: 0,
            duplicates: 0,
            beacons: 0,
            forced_resyncs: 0,
            tier_escalations: 0,
            tier_deescalations: 0,
            corrected: 0,
            backoff_cycles: 0,
            cycles: 0,
            link_transitions: 0,
            overhead_transitions: 0,
            retransmit_transitions: 0,
            channel: GeChannelStats::default(),
            final_tier: Tier::Bare,
        }
    }
}

impl LinkMetrics {
    /// Fraction of offered words delivered (1.0 = everything arrived).
    pub fn delivery_rate(&self) -> f64 {
        if self.words == 0 {
            1.0
        } else {
            self.delivered_words as f64 / self.words as f64
        }
    }

    /// Forward transitions on all metered lines.
    pub fn total_transitions(&self) -> u64 {
        self.link_transitions + self.overhead_transitions
    }

    /// Forward transitions paid per delivered word — the quantity
    /// [`buscode_power::retransmission_cost`] prices.
    ///
    /// [`buscode_power::retransmission_cost`]: https://docs.rs/buscode-power
    pub fn transitions_per_delivered(&self) -> f64 {
        if self.delivered_words == 0 {
            0.0
        } else {
            self.total_transitions() as f64 / self.delivered_words as f64
        }
    }

    /// Folds another session's counters into this one (campaign
    /// aggregation across trials). Dwell maxima take the max; the final
    /// tier keeps the higher rung.
    pub fn accumulate(&mut self, other: &LinkMetrics) {
        self.words += other.words;
        self.delivered_words += other.delivered_words;
        self.corrupted_delivered += other.corrupted_delivered;
        self.lost_words += other.lost_words;
        self.frames_sent += other.frames_sent;
        self.retransmissions += other.retransmissions;
        self.naks += other.naks;
        self.timeouts += other.timeouts;
        self.crc_rejections += other.crc_rejections;
        self.decode_rejections += other.decode_rejections;
        self.duplicates += other.duplicates;
        self.beacons += other.beacons;
        self.forced_resyncs += other.forced_resyncs;
        self.tier_escalations += other.tier_escalations;
        self.tier_deescalations += other.tier_deescalations;
        self.corrected += other.corrected;
        self.backoff_cycles += other.backoff_cycles;
        self.cycles += other.cycles;
        self.link_transitions += other.link_transitions;
        self.overhead_transitions += other.overhead_transitions;
        self.retransmit_transitions += other.retransmit_transitions;
        self.channel.cycles += other.channel.cycles;
        self.channel.bad_cycles += other.channel.bad_cycles;
        self.channel.bad_dwell = self.channel.bad_dwell.max(other.channel.bad_dwell);
        self.channel.max_bad_dwell = self.channel.max_bad_dwell.max(other.channel.max_bad_dwell);
        self.channel.bursts += other.channel.bursts;
        self.channel.flipped_lines += other.channel.flipped_lines;
        self.channel.flipped_words += other.channel.flipped_words;
        self.channel.erasures += other.channel.erasures;
        self.channel.drops += other.channel.drops;
        if tier_rank(other.final_tier) > tier_rank(self.final_tier) {
            self.final_tier = other.final_tier;
        }
    }

    /// Projects the ledger onto the shared telemetry schema under the
    /// `link.` prefix. Every value is a deterministic counter or a
    /// max-merged gauge, so snapshots are byte-identical across `--jobs`
    /// settings.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        let mut set = MetricSet::new();
        set.add_counter("link.words", self.words);
        set.add_counter("link.delivered_words", self.delivered_words);
        set.add_counter("link.corrupted_delivered", self.corrupted_delivered);
        set.add_counter("link.lost_words", self.lost_words);
        set.add_counter("link.frames_sent", self.frames_sent);
        set.add_counter("link.retransmissions", self.retransmissions);
        set.add_counter("link.naks", self.naks);
        set.add_counter("link.timeouts", self.timeouts);
        set.add_counter("link.crc_rejections", self.crc_rejections);
        set.add_counter("link.decode_rejections", self.decode_rejections);
        set.add_counter("link.duplicates", self.duplicates);
        set.add_counter("link.beacons", self.beacons);
        set.add_counter("link.forced_resyncs", self.forced_resyncs);
        set.add_counter("link.tier_escalations", self.tier_escalations);
        set.add_counter("link.tier_deescalations", self.tier_deescalations);
        set.add_counter("link.corrected", self.corrected);
        set.add_counter("link.backoff_cycles", self.backoff_cycles);
        set.add_counter("link.cycles", self.cycles);
        set.add_counter("link.link_transitions", self.link_transitions);
        set.add_counter("link.overhead_transitions", self.overhead_transitions);
        set.add_counter("link.retransmit_transitions", self.retransmit_transitions);
        set.add_counter("link.channel.bad_cycles", self.channel.bad_cycles);
        set.set_gauge("link.channel.max_bad_dwell", self.channel.max_bad_dwell);
        set.add_counter("link.channel.flipped_lines", self.channel.flipped_lines);
        set.add_counter("link.channel.erasures", self.channel.erasures);
        set.add_counter("link.channel.drops", self.channel.drops);
        set.set_gauge("link.final_tier", u64::from(tier_rank(self.final_tier)));
        set
    }
}

/// What one finished session hands back: the ledger plus the addresses
/// the receiver actually delivered, in order.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// The session's counters.
    pub stats: LinkMetrics,
    /// Decoded addresses in delivery order (property tests compare this
    /// against the offered stream word for word).
    pub delivered: Vec<u64>,
}

/// ACK/NAK riding the reliable out-of-band feedback path. Both carry
/// the receiver's cumulative progress: `Ack(n)` / `Nak(n)` mean "I have
/// accepted every word below `n`".
#[derive(Clone, Copy, Debug)]
enum Feedback {
    Ack(usize),
    Nak(usize),
}

fn tier_rank(tier: Tier) -> u8 {
    match tier {
        Tier::Bare => 0,
        Tier::Parity => 1,
        Tier::Ecc => 2,
    }
}

/// The two CTRL tier bits for a ladder rung.
pub fn tier_code(tier: Tier) -> u8 {
    tier_rank(tier)
}

/// Splits one wire transition count into codec lines vs overhead lines.
fn wire_transitions(prev: BusState, cur: BusState, aux_lines: u32) -> (u64, u64) {
    let payload = (prev.payload ^ cur.payload).count_ones();
    let aux_diff = prev.aux ^ cur.aux;
    let mask = if aux_lines == 0 {
        0
    } else {
        u64::MAX >> (64 - aux_lines)
    };
    let link = u64::from(payload) + u64::from((aux_diff & mask).count_ones());
    let overhead = u64::from((aux_diff >> aux_lines).count_ones());
    (link, overhead)
}

/// One reliable-delivery session: stream in, [`SessionOutcome`] out.
///
/// # Examples
///
/// ```
/// use buscode_core::{Access, CodeKind};
/// use buscode_fault::GilbertElliott;
/// use buscode_link::{LinkConfig, LinkSession};
///
/// let stream: Vec<Access> = (0..64).map(|i| Access::instruction(i * 4)).collect();
/// let session = LinkSession::new(LinkConfig::new(CodeKind::T0), GilbertElliott::gate(), 7)?;
/// let outcome = session.run(&stream)?;
/// assert_eq!(outcome.stats.delivered_words, 64);
/// assert_eq!(outcome.stats.corrupted_delivered, 0);
/// for (got, want) in outcome.delivered.iter().zip(&stream) {
///     assert_eq!(*got, want.address);
/// }
/// # Ok::<(), buscode_core::CodecError>(())
/// ```
pub struct LinkSession {
    config: LinkConfig,
    channel: GeChannel,
    manager: RedundancyManager,
    enc: Box<dyn SnapshotEncoder>,
    dec: Box<dyn SnapshotDecoder>,
    sender_tier: Tier,
    receiver_tier: Tier,
    /// Codec aux line counts per ladder rung, indexed by [`tier_rank`] —
    /// the receiver scans these to re-align after a tier change.
    aux_by_tier: [u32; 3],
    /// The receiver's decoder state before the current frame's decode,
    /// refilled in place on every frame: a flagged word restores it.
    rollback: StateImage,
}

impl LinkSession {
    /// Builds a session over a freshly seeded channel.
    ///
    /// # Errors
    ///
    /// Returns configuration or codec construction errors.
    pub fn new(
        config: LinkConfig,
        profile: GilbertElliott,
        channel_seed: u64,
    ) -> Result<LinkSession, CodecError> {
        config.validate()?;
        let start = config.redundancy.start;
        let mut aux_by_tier = [0u32; 3];
        for tier in [Tier::Bare, Tier::Parity, Tier::Ecc] {
            let probe = config
                .kind
                .tier_snapshot_encoder(config.params, tier, config.refresh)?;
            aux_by_tier[tier_rank(tier) as usize] = probe.aux_line_count();
        }
        let (enc, dec) = config
            .kind
            .build_snapshot_codec(config.params, start, config.refresh)?;
        let geometry = BusGeometry::new(
            config.params.width.bits(),
            enc.aux_line_count() + OVERHEAD_LINES,
        );
        let channel = GeChannel::new(profile, geometry, channel_seed);
        let manager = RedundancyManager::new(config.redundancy);
        Ok(LinkSession {
            config,
            channel,
            manager,
            enc,
            dec,
            sender_tier: start,
            receiver_tier: start,
            aux_by_tier,
            rollback: StateImage::default(),
        })
    }

    /// The channel's live weather (exposed for embedding the session in
    /// larger runtimes).
    pub fn channel_stats(&self) -> GeChannelStats {
        self.channel.stats()
    }

    /// Rebuilds the sender's encoder at `tier` and schedules a beacon so
    /// the receiver can re-align; every unacknowledged word re-encodes.
    fn retier(
        &mut self,
        tier: Tier,
        encoded: &mut [Option<Frame>],
        base: usize,
        force_beacon: &mut bool,
    ) -> Result<(), CodecError> {
        let c = &self.config;
        self.enc = c.kind.tier_snapshot_encoder(c.params, tier, c.refresh)?;
        self.sender_tier = tier;
        for slot in encoded[base..].iter_mut() {
            *slot = None;
        }
        *force_beacon = true;
        self.channel.set_geometry(BusGeometry::new(
            self.config.params.width.bits(),
            self.enc.aux_line_count() + OVERHEAD_LINES,
        ));
        Ok(())
    }

    /// Runs the session to completion (or to the cycle budget) and
    /// returns the ledger plus the delivered addresses.
    ///
    /// # Errors
    ///
    /// Returns codec construction or snapshot-restore errors; channel
    /// corruption never surfaces as an error, only as counters.
    pub fn run(mut self, stream: &[Access]) -> Result<SessionOutcome, CodecError> {
        let total = stream.len();
        let mut stats = LinkMetrics {
            words: total as u64,
            ..LinkMetrics::default()
        };
        let mut delivered: Vec<u64> = Vec::with_capacity(total);

        // Sender state.
        let mut encoded: Vec<Option<Frame>> = vec![None; total];
        let mut retransmitted: Vec<bool> = vec![false; total];
        let mut base = 0usize; // oldest unacknowledged word
        let mut next = 0usize; // next word to put on the wire
        let mut high_water = 0usize; // one past the furthest word ever sent
        let mut attempts = 0u32; // failure rounds on the current base
        let mut backoff_until = 0u64;
        let mut last_progress = 0u64;
        let mut force_beacon = false;
        let mut prev_wire = BusState::reset();
        // Damps NAK storms: one rewind per (word, round trip).
        let mut nak_guard_n = usize::MAX;
        let mut nak_guard_until = 0u64;

        // Receiver state.
        let mut expected = 0usize; // next word the receiver will accept

        // The reliable feedback path: (arrival_cycle, message).
        let mut feedback: VecDeque<(u64, Feedback)> = VecDeque::new();

        let round_trip = self.config.feedback_delay + self.config.window as u64 + 2;
        let max_cycles = self
            .config
            .max_cycles_per_word
            .saturating_mul(total as u64)
            .max(1024);
        let mut cycle = 0u64;

        while base < total && cycle < max_cycles {
            cycle += 1;

            // 1. Feedback arriving this cycle.
            let mut pending_retier: Option<Tier> = None;
            let mut failure_round = false;
            while let Some(&(arrival, message)) = feedback.front() {
                if arrival > cycle {
                    break;
                }
                feedback.pop_front();
                let progress = match message {
                    Feedback::Ack(n) | Feedback::Nak(n) => n,
                };
                if progress > base {
                    // Cumulative acknowledgement: every word below
                    // `progress` arrived. Feed the ladder before
                    // advancing the window.
                    for (word, &resent) in
                        retransmitted.iter().enumerate().take(progress).skip(base)
                    {
                        if let Some(shift) = self.manager.on_word(word as u64, resent) {
                            match shift {
                                TierShift::Escalate => stats.tier_escalations += 1,
                                TierShift::Deescalate => stats.tier_deescalations += 1,
                            }
                            pending_retier = Some(self.manager.tier());
                        }
                    }
                    base = progress;
                    attempts = 0;
                    last_progress = cycle;
                    if next < base {
                        next = base;
                    }
                }
                if let Feedback::Nak(n) = message {
                    stats.naks += 1;
                    if n >= base && (n != nak_guard_n || cycle >= nak_guard_until) {
                        nak_guard_n = n;
                        nak_guard_until = cycle + round_trip;
                        failure_round = true;
                    }
                }
            }

            // 2. Progress timeout: frames outstanding, nothing moving.
            if !failure_round
                && base < next
                && cycle >= backoff_until
                && cycle.saturating_sub(last_progress) > self.config.timeout
            {
                stats.timeouts += 1;
                last_progress = cycle;
                failure_round = true;
            }

            if failure_round {
                next = base;
                attempts += 1;
                let delay = self.config.backoff.delay(attempts.saturating_sub(1));
                backoff_until = cycle + delay;
                stats.backoff_cycles += delay;
                if attempts >= self.config.escalate_attempts {
                    attempts = 0;
                    if self.manager.hint_escalate(base as u64).is_some() {
                        stats.tier_escalations += 1;
                        pending_retier = Some(self.manager.tier());
                    } else {
                        // Top of the ladder (or adaptive off): force a
                        // beacon resync so a desynchronised decoder
                        // always has a way home.
                        stats.forced_resyncs += 1;
                        for slot in encoded[base..].iter_mut() {
                            *slot = None;
                        }
                        force_beacon = true;
                    }
                }
            }

            if let Some(tier) = pending_retier {
                if tier != self.sender_tier {
                    self.retier(tier, &mut encoded, base, &mut force_beacon)?;
                }
            }

            // 3. Backoff: the sender holds the bus quiet.
            if cycle < backoff_until {
                self.channel.idle();
                continue;
            }

            // 4. Transmit the next window frame, or idle.
            if next < total && next - base < self.config.window {
                let word_index = next;
                let frame = if let Some(cached) = encoded[word_index] {
                    cached
                } else {
                    let beacon = force_beacon
                        || (word_index as u64).is_multiple_of(self.config.beacon_interval);
                    if beacon {
                        self.enc.reset();
                        stats.beacons += 1;
                    }
                    force_beacon = false;
                    let word = self.enc.encode(stream[word_index]);
                    let fresh = Frame::new(
                        (word_index % 256) as u8,
                        beacon,
                        tier_code(self.sender_tier),
                        word,
                    );
                    encoded[word_index] = Some(fresh);
                    fresh
                };

                let aux_lines = self.enc.aux_line_count();
                let wire = frame.to_wire(aux_lines);
                let (link_t, overhead_t) = wire_transitions(prev_wire, wire, aux_lines);
                stats.link_transitions += link_t;
                stats.overhead_transitions += overhead_t;
                stats.frames_sent += 1;
                if word_index < high_water {
                    stats.retransmissions += 1;
                    stats.retransmit_transitions += link_t + overhead_t;
                    retransmitted[word_index] = true;
                } else {
                    high_water = word_index + 1;
                }

                let (observed, event) = self.channel.transmit(wire);
                prev_wire = wire;
                next += 1;

                if !matches!(event, GeEvent::Dropped) {
                    self.receive(
                        observed,
                        stream,
                        cycle,
                        &mut expected,
                        &mut delivered,
                        &mut stats,
                        &mut feedback,
                    )?;
                }
            } else {
                self.channel.idle();
            }
        }

        stats.lost_words = (total - expected) as u64;
        stats.cycles = cycle;
        stats.corrected += self.dec.corrected_count();
        stats.channel = self.channel.stats();
        stats.final_tier = self.sender_tier;
        Ok(SessionOutcome { stats, delivered })
    }

    /// The receiver's half of one cycle: CRC gate, sequence check,
    /// tier re-alignment, decode with snapshot rollback.
    #[allow(clippy::too_many_arguments)]
    fn receive(
        &mut self,
        observed: BusState,
        stream: &[Access],
        cycle: u64,
        expected: &mut usize,
        delivered: &mut Vec<u64>,
        stats: &mut LinkMetrics,
        feedback: &mut VecDeque<(u64, Feedback)>,
    ) -> Result<(), CodecError> {
        let arrival = cycle + self.config.feedback_delay;
        let rx_aux = self.aux_by_tier[tier_rank(self.receiver_tier) as usize];
        let mut frame = Frame::from_wire(observed, rx_aux);
        let mut switch_to: Option<Tier> = None;

        if !frame.crc_ok() {
            // The sender may have changed tier under us, which moves the
            // overhead lines. A beacon frame is self-describing: scan
            // the other rungs' alignments for one whose CRC checks out
            // and whose CTRL tier bits agree with the alignment used.
            for tier in [Tier::Bare, Tier::Parity, Tier::Ecc] {
                if tier == self.receiver_tier {
                    continue;
                }
                let aligned =
                    Frame::from_wire(observed, self.aux_by_tier[tier_rank(tier) as usize]);
                if aligned.crc_ok() && aligned.beacon() && aligned.tier_code() == tier_code(tier) {
                    frame = aligned;
                    switch_to = Some(tier);
                    break;
                }
            }
            if switch_to.is_none() {
                stats.crc_rejections += 1;
                feedback.push_back((arrival, Feedback::Nak(*expected)));
                return Ok(());
            }
        }

        let expected_seq = (*expected % 256) as u8;
        if frame.seq != expected_seq {
            if frame.seq.wrapping_sub(expected_seq) < 128 {
                // A gap: something before this frame never arrived.
                feedback.push_back((arrival, Feedback::Nak(*expected)));
            } else {
                // A duplicate from a go-back overshoot: re-ACK.
                stats.duplicates += 1;
                feedback.push_back((arrival, Feedback::Ack(*expected)));
            }
            return Ok(());
        }

        if let Some(tier) = switch_to {
            // Harvest the retiring decoder's correction count before
            // rebuilding at the new rung.
            stats.corrected += self.dec.corrected_count();
            let c = &self.config;
            self.dec = c.kind.tier_snapshot_decoder(c.params, tier, c.refresh)?;
            self.receiver_tier = tier;
        }
        if frame.beacon() {
            self.dec.reset();
        }

        self.dec.snapshot_into(&mut self.rollback);
        let access = stream[*expected];
        match self.dec.decode(frame.word, access.kind) {
            Ok(address) => {
                delivered.push(address);
                if address != access.address {
                    stats.corrupted_delivered += 1;
                }
                *expected += 1;
                stats.delivered_words += 1;
                feedback.push_back((arrival, Feedback::Ack(*expected)));
            }
            Err(_) => {
                // The decoder flagged the word; roll its state back and
                // ask for the frame again.
                self.dec.restore(&self.rollback)?;
                stats.decode_rejections += 1;
                feedback.push_back((arrival, Feedback::Nak(*expected)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize) -> Vec<Access> {
        (0..len)
            .map(|i| Access::instruction((i as u64) * 4))
            .collect()
    }

    fn quiet() -> GilbertElliott {
        GilbertElliott::named("quiet").expect("profile")
    }

    fn harsh() -> GilbertElliott {
        GilbertElliott::named("harsh").expect("profile")
    }

    #[test]
    fn clean_channel_delivers_everything_first_try() {
        // A channel that never turns bad: no retransmissions, no NAKs,
        // exactly one frame per word.
        let profile = GilbertElliott {
            p_good_to_bad: 0.0,
            flip_good: 0.0,
            erase_good: 0.0,
            drop_good: 0.0,
            ..quiet()
        };
        let stream = ramp(128);
        let session = LinkSession::new(LinkConfig::new(CodeKind::Gray), profile, 1).expect("build");
        let outcome = session.run(&stream).expect("run");
        assert_eq!(outcome.stats.delivered_words, 128);
        assert_eq!(outcome.stats.lost_words, 0);
        assert_eq!(outcome.stats.retransmissions, 0);
        assert_eq!(outcome.stats.corrupted_delivered, 0);
        assert_eq!(outcome.stats.frames_sent, 128);
        let addresses: Vec<u64> = stream.iter().map(|a| a.address).collect();
        assert_eq!(outcome.delivered, addresses);
    }

    #[test]
    fn bursty_weather_forces_retransmissions_but_not_loss() {
        let stream = ramp(256);
        let session =
            LinkSession::new(LinkConfig::new(CodeKind::T0Bi), harsh(), 99).expect("build");
        let outcome = session.run(&stream).expect("run");
        assert_eq!(outcome.stats.delivered_words, 256, "{:?}", outcome.stats);
        assert_eq!(outcome.stats.lost_words, 0);
        assert_eq!(outcome.stats.corrupted_delivered, 0);
        assert!(outcome.stats.retransmissions > 0, "harsh weather must bite");
        assert!(outcome.stats.crc_rejections > 0);
        assert!(outcome.stats.frames_sent > 256);
        let addresses: Vec<u64> = stream.iter().map(|a| a.address).collect();
        assert_eq!(outcome.delivered, addresses);
    }

    #[test]
    fn sessions_are_deterministic() {
        let stream = ramp(200);
        let run = || {
            LinkSession::new(LinkConfig::new(CodeKind::BusInvert), harsh(), 7)
                .expect("build")
                .run(&stream)
                .expect("run")
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn persistent_bad_weather_climbs_the_ladder() {
        // A channel that is essentially always bad and very flippy:
        // retry exhaustion must hint the manager up to ECC, and the
        // receiver must follow via the beacon alignment scan.
        let storm = GilbertElliott {
            p_good_to_bad: 0.9,
            p_bad_to_good: 0.01,
            flip_good: 0.02,
            flip_bad: 0.08,
            erase_good: 0.0,
            erase_bad: 0.01,
            drop_good: 0.0,
            drop_bad: 0.01,
        };
        let mut config = LinkConfig::new(CodeKind::Binary);
        config.escalate_attempts = 2;
        config.max_cycles_per_word = 256;
        let stream = ramp(96);
        let outcome = LinkSession::new(config, storm, 3)
            .expect("build")
            .run(&stream)
            .expect("run");
        assert!(
            outcome.stats.tier_escalations > 0,
            "storm must escalate: {:?}",
            outcome.stats
        );
        assert_eq!(outcome.stats.corrupted_delivered, 0);
        // Whatever was delivered is a prefix, in order.
        for (i, got) in outcome.delivered.iter().enumerate() {
            assert_eq!(*got, stream[i].address);
        }
    }

    #[test]
    fn cycle_budget_bounds_hopeless_sessions() {
        // A channel that drops everything: nothing can be delivered and
        // the session must still terminate, reporting every word lost.
        let void = GilbertElliott {
            p_good_to_bad: 1.0,
            p_bad_to_good: 0.0,
            drop_good: 1.0,
            drop_bad: 1.0,
            ..quiet()
        };
        let mut config = LinkConfig::new(CodeKind::Offset);
        config.max_cycles_per_word = 8;
        let stream = ramp(200);
        let outcome = LinkSession::new(config, void, 5)
            .expect("build")
            .run(&stream)
            .expect("run");
        assert_eq!(outcome.stats.delivered_words, 0);
        assert_eq!(outcome.stats.lost_words, 200);
        assert!(outcome.stats.cycles <= 8 * 200);
        assert!(outcome.stats.timeouts > 0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut config = LinkConfig::new(CodeKind::Binary);
        config.window = 0;
        assert!(config.validate().is_err());
        let mut config = LinkConfig::new(CodeKind::Binary);
        config.window = 121;
        assert!(config.validate().is_err());
        let mut config = LinkConfig::new(CodeKind::Binary);
        config.timeout = config.feedback_delay;
        assert!(config.validate().is_err());
        let mut config = LinkConfig::new(CodeKind::Binary);
        config.beacon_interval = 0;
        assert!(config.validate().is_err());
        assert!(LinkConfig::new(CodeKind::Binary).validate().is_ok());
    }

    #[test]
    fn stats_accumulate_sums_counters_and_keeps_maxima() {
        let mut a = LinkMetrics {
            words: 10,
            delivered_words: 10,
            link_transitions: 100,
            final_tier: Tier::Parity,
            ..LinkMetrics::default()
        };
        a.channel.max_bad_dwell = 5;
        let mut b = LinkMetrics {
            words: 20,
            delivered_words: 19,
            lost_words: 1,
            link_transitions: 50,
            final_tier: Tier::Bare,
            ..LinkMetrics::default()
        };
        b.channel.max_bad_dwell = 9;
        a.accumulate(&b);
        assert_eq!(a.words, 30);
        assert_eq!(a.delivered_words, 29);
        assert_eq!(a.lost_words, 1);
        assert_eq!(a.link_transitions, 150);
        assert_eq!(a.channel.max_bad_dwell, 9);
        assert_eq!(a.final_tier, Tier::Parity);
    }
}
