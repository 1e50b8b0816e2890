//! Whole-pipeline checkpoints: a text-serializable capture of codec
//! state, degradation state, redundancy-tier state, statistics, and
//! stream position, sealed with a CRC-32 footer.
//!
//! Durability is two-layered: the `pipeline` binary writes checkpoints
//! atomically (temp file + rename, so a crash never leaves a partial
//! file under the final name), and the text itself carries a CRC-32
//! (IEEE 802.3, [`buscode_core::crc::crc32`]) over every preceding byte,
//! so a truncated or bit-rotted checkpoint is rejected at parse time with
//! a precise reason instead of restoring silently-wrong state.

use buscode_core::crc::crc32;
use buscode_core::{CodeKind, CodeParams, StateImage, Tier};

use crate::policy::{DegradeSnapshot, Mode};
use crate::redundancy::RedundancySnapshot;
use crate::runtime::{PipelineError, PipelineMetrics};

/// A complete pipeline state, produced by
/// [`Pipeline::checkpoint`][crate::Pipeline::checkpoint] and consumed by
/// [`Pipeline::from_checkpoint`][crate::Pipeline::from_checkpoint].
///
/// The text form ([`Checkpoint::to_text`] / [`Checkpoint::parse`]) is a
/// small line-oriented `key=value` format with the two codec state
/// images on their own lines and a `crc32=` integrity footer —
/// human-inspectable and free of any serialization dependency.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// The configured code.
    pub code: CodeKind,
    /// Bus width and stride the pipeline ran with.
    pub params: CodeParams,
    /// Hardened refresh interval (`None` when the code ran bare).
    pub refresh: Option<u64>,
    /// Words fully processed when the checkpoint was taken.
    pub position: u64,
    /// Primary encoder state.
    pub encoder: StateImage,
    /// Primary decoder state.
    pub decoder: StateImage,
    /// Degradation machine registers.
    pub degrade: DegradeSnapshot,
    /// Redundancy manager registers (which tier the primary pair ran at).
    pub redundancy: RedundancySnapshot,
    /// Statistics accumulated up to the checkpoint.
    pub stats: PipelineMetrics,
}

const HEADER: &str = "buscode-pipeline-checkpoint v1";

impl Checkpoint {
    /// Renders the checkpoint as text.
    pub fn to_text(&self) -> String {
        let s = &self.stats;
        let d = &self.degrade;
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        out.push_str(&format!("code={}\n", self.code.name()));
        out.push_str(&format!("width={}\n", self.params.width.bits()));
        out.push_str(&format!("stride={}\n", self.params.stride.get()));
        out.push_str(&format!(
            "refresh={}\n",
            self.refresh.unwrap_or(0) // 0 is an invalid interval: means bare
        ));
        out.push_str(&format!("position={}\n", self.position));
        out.push_str(&format!("mode={}\n", d.mode));
        out.push_str(&format!("window_start={}\n", d.window_start));
        out.push_str(&format!("window_errors={}\n", d.window_errors));
        out.push_str(&format!("clean_run={}\n", d.clean_run));
        let r = &self.redundancy;
        out.push_str(&format!("tier={}\n", r.tier.name()));
        out.push_str(&format!("tier_window_start={}\n", r.window_start));
        out.push_str(&format!("tier_faults={}\n", r.window_faults));
        out.push_str(&format!("tier_clean_run={}\n", r.clean_run));
        out.push_str(&format!(
            "stats={} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
            s.words,
            s.clean_words,
            s.faulted_words,
            s.transient_faults,
            s.retries,
            s.backoff_cycles,
            s.desyncs,
            s.forced_resyncs,
            s.max_resync_gap,
            s.unrecovered,
            s.demotions,
            s.repromotions,
            s.degraded_words,
            s.watchdog_fires,
            s.corrected_faults,
            s.escalations,
            s.deescalations,
            s.ecc_words,
        ));
        out.push_str(&format!("encoder={}\n", self.encoder.to_line()));
        out.push_str(&format!("decoder={}\n", self.decoder.to_line()));
        out.push_str(&format!("crc32={:08x}\n", crc32(out.as_bytes())));
        out
    }

    /// Parses text produced by [`Checkpoint::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Checkpoint`] on a missing header, a
    /// missing or mismatching `crc32=` footer (truncation or bit rot),
    /// an unknown code name, a malformed field, or a missing key.
    pub fn parse(text: &str) -> Result<Self, PipelineError> {
        let bad = |reason: String| PipelineError::Checkpoint { reason };

        // Verify the integrity footer before trusting any field: the
        // last non-empty line must be `crc32=` over every byte of the
        // preceding lines (each terminated by a single `\n`).
        let all_lines: Vec<&str> = text.lines().collect();
        let crc_index = all_lines
            .iter()
            .rposition(|l| !l.trim().is_empty())
            .ok_or_else(|| bad(format!("missing header line `{HEADER}`")))?;
        let crc_line = all_lines[crc_index].trim();
        let Some(stored_hex) = crc_line.strip_prefix("crc32=") else {
            return Err(bad(
                "missing `crc32=` integrity footer (checkpoint truncated?)".to_string(),
            ));
        };
        let stored = u32::from_str_radix(stored_hex, 16)
            .map_err(|_| bad("field `crc32` is not hexadecimal".to_string()))?;
        let body: String = all_lines[..crc_index]
            .iter()
            .map(|l| format!("{l}\n"))
            .collect();
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(bad(format!(
                "crc32 mismatch: footer says {stored:08x}, body hashes to {computed:08x} \
                 (checkpoint truncated or corrupted)"
            )));
        }

        let mut lines = body.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return Err(bad(format!("missing header line `{HEADER}`")));
        }
        let mut fields = std::collections::BTreeMap::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("malformed line `{line}`")))?;
            fields.insert(key.to_string(), value.to_string());
        }
        let get = |key: &str| -> Result<String, PipelineError> {
            fields
                .get(key)
                .cloned()
                .ok_or_else(|| bad(format!("missing field `{key}`")))
        };
        let int = |key: &str| -> Result<u64, PipelineError> {
            get(key)?
                .parse::<u64>()
                .map_err(|_| bad(format!("field `{key}` is not an integer")))
        };

        let code_name = get("code")?;
        let code = CodeKind::all()
            .into_iter()
            .find(|k| k.name() == code_name)
            .ok_or_else(|| bad(format!("unknown code `{code_name}`")))?;
        let width = u32::try_from(int("width")?)
            .map_err(|_| bad("field `width` out of range".to_string()))?;
        let params = CodeParams::new(width, int("stride")?)
            .map_err(|e| bad(format!("invalid bus parameters: {e}")))?;
        let refresh = match int("refresh")? {
            0 => None,
            r => Some(r),
        };
        let mode = match get("mode")?.as_str() {
            "normal" => Mode::Normal,
            "degraded" => Mode::Degraded,
            other => return Err(bad(format!("unknown mode `{other}`"))),
        };
        let degrade = DegradeSnapshot {
            mode,
            window_start: int("window_start")?,
            window_errors: u32::try_from(int("window_errors")?)
                .map_err(|_| bad("field `window_errors` out of range".to_string()))?,
            clean_run: int("clean_run")?,
        };

        let tier_name = get("tier")?;
        let tier = Tier::from_name(&tier_name)
            .ok_or_else(|| bad(format!("unknown redundancy tier `{tier_name}`")))?;
        let redundancy = RedundancySnapshot {
            tier,
            window_start: int("tier_window_start")?,
            window_faults: u32::try_from(int("tier_faults")?)
                .map_err(|_| bad("field `tier_faults` out of range".to_string()))?,
            clean_run: int("tier_clean_run")?,
        };

        let stats_line = get("stats")?;
        let nums: Vec<u64> = stats_line
            .split_whitespace()
            .map(|t| t.parse::<u64>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad("field `stats` contains a non-integer".to_string()))?;
        let [words, clean_words, faulted_words, transient_faults, retries, backoff_cycles, desyncs, forced_resyncs, max_resync_gap, unrecovered, demotions, repromotions, degraded_words, watchdog_fires, corrected_faults, escalations, deescalations, ecc_words] =
            nums[..]
        else {
            return Err(bad(format!(
                "field `stats` must have 18 counters, found {}",
                nums.len()
            )));
        };
        let stats = PipelineMetrics {
            words,
            clean_words,
            faulted_words,
            transient_faults,
            retries,
            backoff_cycles,
            desyncs,
            forced_resyncs,
            max_resync_gap,
            unrecovered,
            demotions,
            repromotions,
            degraded_words,
            watchdog_fires,
            corrected_faults,
            escalations,
            deescalations,
            ecc_words,
        };

        let encoder = StateImage::parse_line(&get("encoder")?)
            .map_err(|e| bad(format!("encoder image: {e}")))?;
        let decoder = StateImage::parse_line(&get("decoder")?)
            .map_err(|e| bad(format!("decoder image: {e}")))?;

        Ok(Checkpoint {
            code,
            params,
            refresh,
            position: int("position")?,
            encoder,
            decoder,
            degrade,
            redundancy,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buscode_core::Snapshot;

    fn sample() -> Checkpoint {
        let params = CodeParams::default();
        let (enc, dec) = CodeKind::T0
            .build_snapshot_codec(params, Tier::Parity, 16)
            .unwrap();
        Checkpoint {
            code: CodeKind::T0,
            params,
            refresh: Some(16),
            position: 12345,
            encoder: enc.snapshot(),
            decoder: dec.snapshot(),
            degrade: DegradeSnapshot {
                mode: Mode::Degraded,
                window_start: 12000,
                window_errors: 3,
                clean_run: 17,
            },
            redundancy: RedundancySnapshot {
                tier: Tier::Ecc,
                window_start: 12100,
                window_faults: 2,
                clean_run: 45,
            },
            stats: PipelineMetrics {
                words: 12345,
                clean_words: 12000,
                faulted_words: 345,
                transient_faults: 200,
                retries: 210,
                backoff_cycles: 500,
                desyncs: 20,
                forced_resyncs: 22,
                max_resync_gap: 2,
                unrecovered: 0,
                demotions: 1,
                repromotions: 0,
                degraded_words: 40,
                watchdog_fires: 3,
                corrected_faults: 120,
                escalations: 2,
                deescalations: 1,
                ecc_words: 800,
            },
        }
    }

    /// Recomputes the CRC footer after a deliberate field tamper, so the
    /// tamper tests exercise field validation rather than the CRC.
    fn restamp(text: &str) -> String {
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("crc32="))
            .map(|l| format!("{l}\n"))
            .collect();
        format!("{body}crc32={:08x}\n", crc32(body.as_bytes()))
    }

    #[test]
    fn text_round_trip() {
        let cp = sample();
        let text = cp.to_text();
        let parsed = Checkpoint::parse(&text).unwrap();
        assert_eq!(parsed, cp);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Checkpoint::parse("").is_err());
        assert!(Checkpoint::parse("not a checkpoint").is_err());
        let cp = sample();
        let text = cp.to_text();
        // Drop the decoder line.
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("decoder="))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Checkpoint::parse(&restamp(&truncated)).is_err());
        // Corrupt the stats line.
        let garbled = restamp(&text.replace("stats=", "stats=zzz "));
        assert!(Checkpoint::parse(&garbled).is_err());
        // Unknown code.
        let unknown = restamp(&text.replace("code=t0", "code=nonesuch"));
        assert!(Checkpoint::parse(&unknown).is_err());
        // Unknown redundancy tier.
        let bad_tier = restamp(&text.replace("tier=ecc", "tier=quintuple"));
        assert!(Checkpoint::parse(&bad_tier).is_err());
    }

    #[test]
    fn crc_footer_rejects_truncation() {
        let text = sample().to_text();
        // Cut the file anywhere: the footer (or the body it covers) is
        // damaged and the parse must say so precisely.
        for cut in [text.len() - 2, text.len() - 12, text.len() / 2, 10] {
            let err = Checkpoint::parse(&text[..cut]).unwrap_err();
            let PipelineError::Checkpoint { reason } = &err else {
                panic!("expected a checkpoint error, got {err:?}");
            };
            assert!(
                reason.contains("crc32") || reason.contains("truncated"),
                "cut at {cut}: {reason}"
            );
        }
    }

    #[test]
    fn crc_footer_rejects_bit_rot() {
        let text = sample().to_text();
        // Flip one digit in the position field without restamping.
        let rotted = text.replace("position=12345", "position=12346");
        assert_ne!(rotted, text);
        let err = Checkpoint::parse(&rotted).unwrap_err();
        let PipelineError::Checkpoint { reason } = &err else {
            panic!("expected a checkpoint error, got {err:?}");
        };
        assert!(reason.contains("crc32 mismatch"), "{reason}");
    }

    #[test]
    fn bare_refresh_round_trips_as_zero() {
        let mut cp = sample();
        cp.refresh = None;
        cp.encoder = StateImage::new("t0", vec![0, 0, 0, 0]);
        cp.decoder = StateImage::new("t0", vec![0, 0]);
        let parsed = Checkpoint::parse(&cp.to_text()).unwrap();
        assert_eq!(parsed.refresh, None);
    }
}
