//! System-level bus power: the end-to-end quantity the paper optimizes.
//!
//! For any behavioural code from `buscode-core`, this module combines the
//! code's measured bus-line transition counts with a line-capacitance
//! model — `P_bus = 1/2 Vdd^2 f * (transitions/cycle averaged in switched
//! capacitance)` — so every code (not just the three with gate-level
//! circuits) can be placed on the power axis of the trade-off the paper
//! explores.

use buscode_core::metrics::count_transitions;
use buscode_core::{Access, CodeKind, CodeParams, CodecError, Tier, TransitionStats};
use buscode_logic::{milliwatts, Technology};

/// A bus power estimate for one code on one stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BusPowerEstimate {
    /// The code.
    pub code: CodeKind,
    /// The transition statistics the estimate derives from.
    pub stats: TransitionStats,
    /// Average switched bus capacitance per cycle, farads.
    pub switched_cap_per_cycle: f64,
    /// Average bus power, milliwatts.
    pub bus_mw: f64,
}

/// Estimates the bus power of `code` driving `line_cap_pf` picofarads per
/// line on the given stream.
///
/// # Errors
///
/// Propagates construction errors from the code's encoder factory.
///
/// # Examples
///
/// ```
/// use buscode_core::{Access, CodeKind, CodeParams};
/// use buscode_logic::Technology;
/// use buscode_power::bus_power;
///
/// # fn main() -> Result<(), buscode_core::CodecError> {
/// let stream: Vec<Access> = (0..512u64).map(|i| Access::instruction(4 * i)).collect();
/// let params = CodeParams::default();
/// let tech = Technology::date98();
/// let t0 = bus_power(CodeKind::T0, params, &stream, 50.0, tech)?;
/// let binary = bus_power(CodeKind::Binary, params, &stream, 50.0, tech)?;
/// assert!(t0.bus_mw < binary.bus_mw);
/// # Ok(())
/// # }
/// ```
pub fn bus_power(
    code: CodeKind,
    params: CodeParams,
    stream: &[Access],
    line_cap_pf: f64,
    tech: Technology,
) -> Result<BusPowerEstimate, CodecError> {
    tier_bus_power(code, params, Tier::Bare, 1, stream, line_cap_pf, tech)
}

/// Estimates the bus power of `code` at a protection tier: the same
/// transition-count model as [`bus_power`], but above [`Tier::Bare`] the
/// counted lines include the
/// [`Protected`][buscode_core::codes::Protected] wrapper's check lines
/// (one parity line, or the SEC-DED check and overall-parity lines) and
/// the refresh cycles' forced plain words. This is the power side of the
/// power-vs-reliability trade-off the fault campaigns quantify the
/// reliability side of.
///
/// `refresh` is the protection refresh interval; [`Tier::Bare`] ignores
/// it.
///
/// # Errors
///
/// Propagates construction errors from the code's encoder factory and the
/// wrapper (`refresh == 0`).
pub fn tier_bus_power(
    code: CodeKind,
    params: CodeParams,
    tier: Tier,
    refresh: u64,
    stream: &[Access],
    line_cap_pf: f64,
    tech: Technology,
) -> Result<BusPowerEstimate, CodecError> {
    let mut encoder = code.tier_snapshot_encoder(params, tier, refresh)?;
    let stats = count_transitions(encoder.as_mut(), stream.iter().copied());
    let line_cap = line_cap_pf * 1e-12;
    let switched_cap_per_cycle = stats.per_cycle() * line_cap;
    let bus_w = 0.5 * tech.vdd * tech.vdd * tech.frequency * switched_cap_per_cycle;
    Ok(BusPowerEstimate {
        code,
        stats,
        switched_cap_per_cycle,
        bus_mw: milliwatts(bus_w),
    })
}

/// A power-vs-reliability point: the same code bare and at
/// [`Tier::Parity`] ([`Hardened`][buscode_core::codes::Hardened]), with
/// the overhead the parity line and refresh words cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HardeningCost {
    /// The code.
    pub code: CodeKind,
    /// The refresh interval the hardened estimate used.
    pub refresh: u64,
    /// Bus power of the bare codec, milliwatts.
    pub bare_mw: f64,
    /// Bus power under the hardened wrapper, milliwatts.
    pub hardened_mw: f64,
}

impl HardeningCost {
    /// Power overhead of hardening, in percent of the bare power.
    pub fn overhead_percent(&self) -> f64 {
        if self.bare_mw == 0.0 {
            0.0
        } else {
            100.0 * (self.hardened_mw - self.bare_mw) / self.bare_mw
        }
    }
}

/// The bare-vs-hardened cost point for one code on one stream.
///
/// # Errors
///
/// Propagates [`tier_bus_power`] errors.
pub fn hardening_cost(
    code: CodeKind,
    params: CodeParams,
    refresh: u64,
    stream: &[Access],
    line_cap_pf: f64,
    tech: Technology,
) -> Result<HardeningCost, CodecError> {
    let mw = |tier| {
        tier_bus_power(code, params, tier, refresh, stream, line_cap_pf, tech).map(|e| e.bus_mw)
    };
    Ok(HardeningCost {
        code,
        refresh,
        bare_mw: mw(Tier::Bare)?,
        hardened_mw: mw(Tier::Parity)?,
    })
}

/// The full redundancy ladder priced on one stream: the same code at
/// every [`Tier`] — bare, under parity detection, and under SEC-DED
/// correction. This is the table the adaptive redundancy manager
/// consults when deciding what a tier escalation costs in milliwatts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EccCost {
    /// The code.
    pub code: CodeKind,
    /// The refresh interval both hardened estimates used.
    pub refresh: u64,
    /// Bus power of the bare codec, milliwatts.
    pub bare_mw: f64,
    /// Bus power under parity detection, milliwatts.
    pub parity_mw: f64,
    /// Bus power under SEC-DED correction, milliwatts.
    pub ecc_mw: f64,
}

impl EccCost {
    /// Power overhead of parity detection, in percent of the bare power.
    pub fn parity_overhead_percent(&self) -> f64 {
        if self.bare_mw == 0.0 {
            0.0
        } else {
            100.0 * (self.parity_mw - self.bare_mw) / self.bare_mw
        }
    }

    /// Power overhead of SEC-DED correction, in percent of the bare power.
    pub fn ecc_overhead_percent(&self) -> f64 {
        if self.bare_mw == 0.0 {
            0.0
        } else {
            100.0 * (self.ecc_mw - self.bare_mw) / self.bare_mw
        }
    }

    /// What stepping up from parity to ECC costs, milliwatts.
    pub fn escalation_mw(&self) -> f64 {
        self.ecc_mw - self.parity_mw
    }
}

/// Prices the bare/parity/ECC redundancy ladder for one code on one
/// stream.
///
/// # Errors
///
/// Propagates [`tier_bus_power`] errors.
pub fn ecc_cost(
    code: CodeKind,
    params: CodeParams,
    refresh: u64,
    stream: &[Access],
    line_cap_pf: f64,
    tech: Technology,
) -> Result<EccCost, CodecError> {
    let mw = |tier| {
        tier_bus_power(code, params, tier, refresh, stream, line_cap_pf, tech).map(|e| e.bus_mw)
    };
    Ok(EccCost {
        code,
        refresh,
        bare_mw: mw(Tier::Bare)?,
        parity_mw: mw(Tier::Parity)?,
        ecc_mw: mw(Tier::Ecc)?,
    })
}

/// What running demoted costs: the power savings of the configured code
/// that a degraded streaming pipeline forfeits while it drives plain
/// binary instead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradationCost {
    /// The configured code.
    pub code: CodeKind,
    /// Bus power of the configured code, milliwatts.
    pub code_mw: f64,
    /// Bus power of plain binary (the demotion target), milliwatts.
    pub binary_mw: f64,
    /// Fraction of words spent demoted, in `[0, 1]`.
    pub degraded_fraction: f64,
    /// Average milliwatts lost to demotion over the whole run:
    /// `degraded_fraction * (binary_mw - code_mw)`.
    pub penalty_mw: f64,
}

impl DegradationCost {
    /// The effective average bus power of the mixed run, milliwatts.
    pub fn effective_mw(&self) -> f64 {
        self.code_mw + self.penalty_mw
    }
}

/// Prices a streaming runtime's graceful degradation: estimates the bus
/// power of `code` and of plain binary on the same stream, then charges
/// the difference for the fraction of words the runtime spent demoted
/// (`buscode-pipeline` reports that fraction as `degraded_words / words`).
///
/// The penalty is zero when the code never demoted, and grows linearly to
/// the code's full savings over binary when it ran demoted throughout.
///
/// # Errors
///
/// Propagates [`bus_power`] errors; returns
/// [`CodecError::InvalidParameter`] when `degraded_fraction` is not a
/// proportion in `[0, 1]`.
pub fn degradation_cost(
    code: CodeKind,
    params: CodeParams,
    stream: &[Access],
    degraded_fraction: f64,
    line_cap_pf: f64,
    tech: Technology,
) -> Result<DegradationCost, CodecError> {
    if !(0.0..=1.0).contains(&degraded_fraction) {
        return Err(CodecError::InvalidParameter {
            name: "degraded_fraction",
            reason: format!("must be a proportion in [0, 1], got {degraded_fraction}"),
        });
    }
    let code_est = bus_power(code, params, stream, line_cap_pf, tech)?;
    let binary_est = bus_power(CodeKind::Binary, params, stream, line_cap_pf, tech)?;
    Ok(DegradationCost {
        code,
        code_mw: code_est.bus_mw,
        binary_mw: binary_est.bus_mw,
        degraded_fraction,
        penalty_mw: degraded_fraction * (binary_est.bus_mw - code_est.bus_mw),
    })
}

/// ARQ-vs-ECC energy per *delivered* word: what a retransmitting link
/// layer actually pays, next to what the always-on SEC-DED tier pays.
///
/// The two reliability strategies spend energy in opposite places. ARQ
/// keeps the steady-state bus lean (no check lines) but pays again for
/// every retransmitted frame plus the per-frame seq/CRC overhead lines;
/// ECC pays a fixed per-word premium for the check lines and never
/// retransmits a single flip. Which is cheaper depends on the channel:
/// below some loss rate ARQ wins, above it ECC wins — the crossover
/// EXPERIMENTS.md reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetransmissionCost {
    /// The code.
    pub code: CodeKind,
    /// The refresh interval the ECC estimate used.
    pub refresh: u64,
    /// Words the ARQ session delivered (the energy denominator).
    pub delivered_words: u64,
    /// Bus power of the bare codec on the clean stream, milliwatts — the
    /// floor both strategies pay their premium over.
    pub bare_mw: f64,
    /// Effective ARQ link power per delivered word, milliwatts:
    /// every transmitted frame's payload/aux transitions (retransmissions
    /// included) plus the seq/ctrl/CRC overhead-line transitions, divided
    /// by the words that actually got through.
    pub arq_mw: f64,
    /// Bus power of the SEC-DED tier per delivered word, milliwatts
    /// (every ECC cycle delivers, so per-cycle == per-delivered-word).
    pub ecc_mw: f64,
}

impl RetransmissionCost {
    /// ARQ premium over the bare bus, in percent.
    pub fn arq_overhead_percent(&self) -> f64 {
        if self.bare_mw == 0.0 {
            0.0
        } else {
            100.0 * (self.arq_mw - self.bare_mw) / self.bare_mw
        }
    }

    /// Positive when the ECC tier delivers words cheaper than the ARQ
    /// link does, milliwatts per delivered word.
    pub fn ecc_advantage_mw(&self) -> f64 {
        self.arq_mw - self.ecc_mw
    }

    /// True past the crossover: the channel is lossy enough that paying
    /// for check lines beats paying for retransmissions.
    pub fn ecc_wins(&self) -> bool {
        self.ecc_mw < self.arq_mw
    }
}

/// Prices an ARQ session against the ECC tier, per delivered word.
///
/// The ARQ side is measured, not modeled: `link_transitions` is the
/// payload+aux transition count over every frame the link actually drove
/// (retransmissions included) and `overhead_transitions` the transitions
/// on the frame-overhead lines (sequence, control, CRC) — both straight
/// from `buscode-link`'s session stats. The ECC side reuses
/// [`tier_bus_power`] at [`Tier::Ecc`] on the clean stream: SEC-DED
/// absorbs single flips in-flight, so its per-cycle power *is* its
/// per-delivered-word power.
///
/// # Errors
///
/// Propagates codec construction errors; returns
/// [`CodecError::InvalidParameter`] when `delivered_words` is zero.
#[allow(clippy::too_many_arguments)]
pub fn retransmission_cost(
    code: CodeKind,
    params: CodeParams,
    refresh: u64,
    stream: &[Access],
    delivered_words: u64,
    link_transitions: u64,
    overhead_transitions: u64,
    line_cap_pf: f64,
    tech: Technology,
) -> Result<RetransmissionCost, CodecError> {
    if delivered_words == 0 {
        return Err(CodecError::InvalidParameter {
            name: "delivered_words",
            reason: "an ARQ session that delivered nothing has no per-word cost".to_string(),
        });
    }
    let bare = bus_power(code, params, stream, line_cap_pf, tech)?;
    let ecc = tier_bus_power(code, params, Tier::Ecc, refresh, stream, line_cap_pf, tech)?;
    let line_cap = line_cap_pf * 1e-12;
    let per_delivered = (link_transitions + overhead_transitions) as f64 / delivered_words as f64;
    let arq_w = 0.5 * tech.vdd * tech.vdd * tech.frequency * per_delivered * line_cap;
    Ok(RetransmissionCost {
        code,
        refresh,
        delivered_words,
        bare_mw: bare.bus_mw,
        arq_mw: milliwatts(arq_w),
        ecc_mw: ecc.bus_mw,
    })
}

/// Ranks every paper code by bus power on one stream (ascending).
///
/// # Errors
///
/// Propagates construction errors from any code's encoder factory.
pub fn rank_codes(
    params: CodeParams,
    stream: &[Access],
    line_cap_pf: f64,
    tech: Technology,
) -> Result<Vec<BusPowerEstimate>, CodecError> {
    let mut out = Vec::new();
    for &code in CodeKind::paper_codes() {
        out.push(bus_power(code, params, stream, line_cap_pf, tech)?);
    }
    out.sort_by(|a, b| a.bus_mw.total_cmp(&b.bus_mw));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use buscode_trace::{InstructionModel, MuxedModel};

    #[test]
    fn power_is_proportional_to_line_cap() {
        let stream: Vec<Access> = (0..256u64).map(|i| Access::instruction(4 * i)).collect();
        let params = CodeParams::default();
        let tech = Technology::date98();
        let a = bus_power(CodeKind::Binary, params, &stream, 10.0, tech).unwrap();
        let b = bus_power(CodeKind::Binary, params, &stream, 20.0, tech).unwrap();
        assert!((b.bus_mw - 2.0 * a.bus_mw).abs() / b.bus_mw < 1e-9);
    }

    #[test]
    fn t0_minimizes_power_on_instruction_streams() {
        let stream = InstructionModel::new(0.63).generate(20_000, 5);
        let ranking =
            rank_codes(CodeParams::default(), &stream, 50.0, Technology::date98()).unwrap();
        let first = ranking.first().unwrap().code;
        assert!(
            matches!(
                first,
                CodeKind::T0 | CodeKind::DualT0 | CodeKind::T0Bi | CodeKind::DualT0Bi
            ),
            "{first:?}"
        );
        // Binary is never the best code on a sequential stream.
        assert_ne!(first, CodeKind::Binary);
    }

    #[test]
    fn dual_t0bi_wins_on_muxed_streams() {
        // The paper's headline: dual T0_BI is the best code for the
        // multiplexed MIPS bus.
        let stream = MuxedModel::with_targets(0.6304, 0.1139, 0.5762).generate(40_000, 9);
        let ranking =
            rank_codes(CodeParams::default(), &stream, 50.0, Technology::date98()).unwrap();
        let names: Vec<&str> = ranking.iter().map(|e| e.code.name()).collect();
        let pos = |n: &str| names.iter().position(|&x| x == n).unwrap();
        assert!(pos("dual-t0-bi") < pos("t0"), "{names:?}");
        assert!(pos("dual-t0-bi") < pos("bus-invert"), "{names:?}");
        assert!(pos("dual-t0-bi") < pos("binary"), "{names:?}");
    }

    #[test]
    fn hardening_costs_power_and_shrinks_with_refresh() {
        let stream = InstructionModel::new(0.63).generate(8_000, 11);
        let params = CodeParams::default();
        let tech = Technology::date98();
        let tight = hardening_cost(CodeKind::T0, params, 8, &stream, 50.0, tech).unwrap();
        let loose = hardening_cost(CodeKind::T0, params, 128, &stream, 50.0, tech).unwrap();
        // The parity line and refresh words always cost something…
        assert!(tight.hardened_mw > tight.bare_mw);
        assert!(tight.overhead_percent() > 0.0);
        // …and refreshing less often costs less.
        assert!(loose.hardened_mw < tight.hardened_mw);
        assert_eq!(tight.bare_mw, loose.bare_mw);
    }

    #[test]
    fn the_redundancy_ladder_prices_monotonically() {
        let stream = InstructionModel::new(0.63).generate(8_000, 11);
        let params = CodeParams::default();
        let tech = Technology::date98();
        let ladder = ecc_cost(CodeKind::T0, params, 32, &stream, 50.0, tech).unwrap();
        // More redundant lines always switch more: bare < parity < ecc.
        assert!(ladder.parity_mw > ladder.bare_mw, "{ladder:?}");
        assert!(ladder.ecc_mw > ladder.parity_mw, "{ladder:?}");
        assert!(ladder.ecc_overhead_percent() > ladder.parity_overhead_percent());
        assert!(ladder.escalation_mw() > 0.0);
        // The bare and parity legs agree with the existing estimators.
        let parity = hardening_cost(CodeKind::T0, params, 32, &stream, 50.0, tech).unwrap();
        assert_eq!(ladder.bare_mw, parity.bare_mw);
        assert_eq!(ladder.parity_mw, parity.hardened_mw);
    }

    #[test]
    fn degradation_penalty_scales_with_demoted_fraction() {
        let stream = InstructionModel::new(0.63).generate(10_000, 3);
        let params = CodeParams::default();
        let tech = Technology::date98();
        let never = degradation_cost(CodeKind::T0, params, &stream, 0.0, 50.0, tech).unwrap();
        let half = degradation_cost(CodeKind::T0, params, &stream, 0.5, 50.0, tech).unwrap();
        let always = degradation_cost(CodeKind::T0, params, &stream, 1.0, 50.0, tech).unwrap();
        assert_eq!(never.penalty_mw, 0.0);
        // T0 beats binary on sequential streams, so demotion costs power…
        assert!(half.penalty_mw > 0.0);
        // …linearly in the time spent demoted.
        assert!((always.penalty_mw - 2.0 * half.penalty_mw).abs() < 1e-12);
        assert!((half.effective_mw() - (half.code_mw + half.penalty_mw)).abs() < 1e-12);
        // Fully demoted, the effective power is binary's.
        assert!((always.effective_mw() - always.binary_mw).abs() < 1e-9);
        // Out-of-domain fractions are rejected.
        assert!(degradation_cost(CodeKind::T0, params, &stream, 1.5, 50.0, tech).is_err());
    }

    #[test]
    fn retransmission_cost_prices_measured_transitions_per_delivered_word() {
        let stream = InstructionModel::new(0.63).generate(4_000, 17);
        let params = CodeParams::default();
        let tech = Technology::date98();
        // A clean link: transitions equal the bare stream's, everything
        // delivered, no overhead — the ARQ power must equal bare power.
        let bare = bus_power(CodeKind::T0, params, &stream, 50.0, tech).unwrap();
        let clean = retransmission_cost(
            CodeKind::T0,
            params,
            32,
            &stream,
            bare.stats.cycles,
            bare.stats.total(),
            0,
            50.0,
            tech,
        )
        .unwrap();
        assert!((clean.arq_mw - clean.bare_mw).abs() < 1e-12);
        assert!((clean.arq_overhead_percent()).abs() < 1e-9);
        // The ECC leg agrees with the direct estimator.
        let ecc = tier_bus_power(CodeKind::T0, params, Tier::Ecc, 32, &stream, 50.0, tech).unwrap();
        assert_eq!(clean.ecc_mw, ecc.bus_mw);
        // A clean channel is ARQ territory: no retransmissions, so ECC's
        // always-on check lines lose.
        assert!(!clean.ecc_wins());
        assert!(clean.ecc_advantage_mw() < 0.0);

        // Doubling the measured transitions doubles the per-word power;
        // past some point the crossover flips to ECC.
        let lossy = retransmission_cost(
            CodeKind::T0,
            params,
            32,
            &stream,
            bare.stats.cycles,
            4 * bare.stats.total(),
            bare.stats.total(),
            50.0,
            tech,
        )
        .unwrap();
        assert!((lossy.arq_mw - 5.0 * clean.arq_mw).abs() / lossy.arq_mw < 1e-9);
        assert!(lossy.ecc_wins());

        // A session that delivered nothing has no per-word cost.
        assert!(
            retransmission_cost(CodeKind::T0, params, 32, &stream, 0, 100, 0, 50.0, tech).is_err()
        );
    }

    #[test]
    fn stats_are_carried_through() {
        let stream: Vec<Access> = (0..64u64).map(|i| Access::instruction(4 * i)).collect();
        let est = bus_power(
            CodeKind::T0,
            CodeParams::default(),
            &stream,
            10.0,
            Technology::date98(),
        )
        .unwrap();
        assert_eq!(est.stats.cycles, 64);
        assert!(est.switched_cap_per_cycle >= 0.0);
    }
}
