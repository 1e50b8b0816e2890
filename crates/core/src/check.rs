//! Exhaustive protocol model checker for encoder/decoder pairs.
//!
//! The dynamic tests in this crate sample traces; this module *proves*
//! codec correctness for small buses by exhaustive product-automaton
//! exploration. Both halves of a codec are deterministic Mealy machines,
//! so the pair `(Encoder, Decoder)` — together with the previous bus word,
//! which the paper's invariants refer to — forms a finite product
//! automaton whose input alphabet is every address on the bus crossed with
//! both `SEL` values (instruction and data). A breadth-first search from
//! the reset state visits every reachable product state and checks, on
//! every transition:
//!
//! - **Round-trip**: `decode(encode(a)) == a` — the code is a lossless
//!   protocol (paper Sections 2–3 require every code to be invertible on
//!   the receiver side);
//! - **T0 freeze** (T0, T0_BI, dual T0, dual T0_BI): an asserted
//!   `INC`/`INCV` line on an instruction cycle means the payload lines are
//!   frozen at their previous value (paper Eq. 4/7/10/11);
//! - **Bus-invert bound** (bus-invert, and the data branch of dual
//!   T0_BI): the Hamming distance between consecutive bus words, counting
//!   the redundant line, never exceeds `⌊W/2⌋ + 1` (Stan & Burleson's
//!   defining property, paper Section 2.1).
//!
//! The search is budgeted ([`CheckConfig`]); codes whose reachable state
//! space exceeds the budget (the working-zone table on wide buses) get a
//! [`Verdict::Bounded`] — every explored transition was checked, nothing
//! failed, but exhaustiveness was not reached. When a check fails the
//! verdict carries a minimal [`Counterexample`] input trace replayed from
//! reset.
//!
//! # Examples
//!
//! ```
//! use buscode_core::check::{check_code, CheckConfig, Verdict};
//! use buscode_core::{CodeKind, CodeParams};
//!
//! let params = CodeParams::new(4, 4).unwrap();
//! let verdict = check_code(CodeKind::T0, params, &CheckConfig::default()).unwrap();
//! assert!(matches!(verdict, Verdict::Proven { .. }));
//! ```

use core::fmt;
use core::marker::PhantomData;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hash;

use crate::bus::{Access, AccessKind, BusState, BusWidth};
use crate::codes::{
    BeachCode, BinaryDecoder, BinaryEncoder, BusInvertDecoder, BusInvertEncoder, DualT0BiDecoder,
    DualT0BiEncoder, DualT0Decoder, DualT0Encoder, GrayDecoder, GrayEncoder, LineCheck,
    OffsetDecoder, OffsetEncoder, Parity, Protected, SecDed, SelfOrganizingDecoder,
    SelfOrganizingEncoder, T0BiDecoder, T0BiEncoder, T0Decoder, T0Encoder, T0XorDecoder,
    T0XorEncoder, WorkingZoneDecoder, WorkingZoneEncoder,
};
use crate::error::CodecError;
use crate::snapshot::self_org_geometry;
use crate::tier::Tier;
use crate::traits::{CodeKind, CodeParams, Decoder, Encoder};

/// Exploration budgets for [`check_code`].
///
/// The product automaton of a `W`-bit code has at most
/// `|enc states| × |dec states| × 2^(W+aux)` states and `2^(W+1)` outgoing
/// transitions per state; budgets keep pathological state spaces (the
/// working-zone table) from running away while leaving every paper code
/// fully provable at small widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckConfig {
    /// Stop exploring after this many distinct product states.
    pub max_states: usize,
    /// Stop exploring after this many checked transitions.
    pub max_transitions: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_states: 1 << 21,
            max_transitions: 16_000_000,
        }
    }
}

/// One input/output step of a counterexample trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// The address/`SEL` pair fed to the encoder.
    pub access: Access,
    /// The word the encoder drove onto the bus.
    pub word: BusState,
    /// What the decoder recovered from that word.
    pub decoded: Result<u64, CodecError>,
}

impl fmt::Display for TraceStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.access.kind {
            AccessKind::Instruction => "instr",
            AccessKind::Data => "data ",
        };
        write!(
            f,
            "{kind} {:#06x} -> payload={:#06x} aux={:#04b} -> ",
            self.access.address, self.word.payload, self.word.aux
        )?;
        match &self.decoded {
            Ok(addr) => write!(f, "{addr:#06x}"),
            Err(e) => write!(f, "error: {e}"),
        }
    }
}

/// A minimal failing input trace, replayable from reset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counterexample {
    /// The code that failed.
    pub kind: CodeKind,
    /// Which check failed (`"round-trip"`, `"t0-freeze"`, ...).
    pub invariant: &'static str,
    /// Human-readable description of the violation on the final step.
    pub detail: String,
    /// The input trace from reset; the last step is the violating one.
    pub trace: Vec<TraceStep>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} violates {} after {} step(s): {}",
            self.kind,
            self.invariant,
            self.trace.len(),
            self.detail
        )?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  step {i}: {step}")?;
        }
        Ok(())
    }
}

/// Outcome of a model-checking run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable product state was explored and every transition
    /// passed: the properties hold for *all* input sequences at this width.
    Proven {
        /// Number of distinct reachable product states.
        states: usize,
        /// Number of transitions checked.
        transitions: u64,
    },
    /// The budget ran out first. Every explored transition passed, but
    /// unexplored states may remain.
    Bounded {
        /// Number of distinct product states explored before stopping.
        states: usize,
        /// Number of transitions checked before stopping.
        transitions: u64,
    },
    /// A check failed; the counterexample replays the failure from reset.
    Failed(Box<Counterexample>),
}

impl Verdict {
    /// True when no violation was found (proven or budget-bounded).
    pub fn holds(&self) -> bool {
        !matches!(self, Verdict::Failed(_))
    }

    /// True only for full exhaustive proofs.
    pub fn is_proven(&self) -> bool {
        matches!(self, Verdict::Proven { .. })
    }

    /// The counterexample, if one was found.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            Verdict::Failed(ce) => Some(ce),
            _ => None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proven {
                states,
                transitions,
            } => write!(f, "proven ({states} states, {transitions} transitions)"),
            Verdict::Bounded {
                states,
                transitions,
            } => write!(
                f,
                "no violation within budget ({states} states, {transitions} transitions)"
            ),
            Verdict::Failed(ce) => write!(f, "FAILED: {ce}"),
        }
    }
}

/// A failed check: the property's name and what went wrong.
type Violation = Option<(&'static str, String)>;

/// The per-transition invariant check: given the previous bus word, the
/// word just driven, and the access that produced it, return a violation
/// description or `None`.
type Invariant = fn(BusState, BusState, Access, BusWidth) -> Violation;

/// T0 / T0_BI: `INC` asserted means the payload lines are frozen.
fn t0_freeze(prev: BusState, word: BusState, _: Access, _: BusWidth) -> Violation {
    if word.aux & 1 == 1 && word.payload != prev.payload {
        return Some((
            "t0-freeze",
            format!(
                "INC asserted but payload changed {:#x} -> {:#x}",
                prev.payload, word.payload
            ),
        ));
    }
    None
}

/// Dual T0: the freeze only applies on instruction (`SEL = 1`) cycles —
/// and the encoder never asserts `INC` on data cycles at all.
fn dual_t0_freeze(prev: BusState, word: BusState, access: Access, _: BusWidth) -> Violation {
    if word.aux & 1 == 1 {
        if access.kind == AccessKind::Data {
            return Some((
                "dual-t0-sel-gating",
                "INC asserted on a data (SEL=0) cycle".to_string(),
            ));
        }
        if word.payload != prev.payload {
            return Some((
                "t0-freeze",
                format!(
                    "INC asserted but payload changed {:#x} -> {:#x}",
                    prev.payload, word.payload
                ),
            ));
        }
    }
    None
}

/// Bus-invert: consecutive bus words (payload plus the `INV` line) differ
/// in at most `⌊W/2⌋ + 1` positions.
fn bus_invert_bound(prev: BusState, word: BusState, _: Access, width: BusWidth) -> Violation {
    let bound = width.bits() / 2 + 1;
    let got = word.transitions_from(prev);
    if got > bound {
        return Some((
            "bus-invert-bound",
            format!("{got} line transitions exceed the bound {bound}"),
        ));
    }
    None
}

/// Dual T0_BI: the single shared `INCV` line is a T0 freeze when `SEL = 1`
/// and a bus-invert flag when `SEL = 0`; the data branch also inherits the
/// bus-invert transition bound.
fn dual_t0_bi_invariant(
    prev: BusState,
    word: BusState,
    access: Access,
    width: BusWidth,
) -> Violation {
    match access.kind {
        AccessKind::Instruction => {
            if word.aux & 1 == 1 && word.payload != prev.payload {
                return Some((
                    "t0-freeze",
                    format!(
                        "INCV asserted with SEL=1 but payload changed {:#x} -> {:#x}",
                        prev.payload, word.payload
                    ),
                ));
            }
        }
        AccessKind::Data => {
            if word.aux & 1 == 1 && word.payload != width.invert(access.address & width.mask()) {
                return Some((
                    "incv-inversion",
                    format!(
                        "INCV asserted with SEL=0 but payload {:#x} is not the inverted address",
                        word.payload
                    ),
                ));
            }
            return bus_invert_bound(prev, word, access, width);
        }
    }
    None
}

/// T0_BI: `INC` freeze plus a (looser) transition bound on non-frozen
/// cycles — the encoder minimizes over plain/inverted against two
/// redundant lines, so the bound is `⌊W/2⌋ + 2`.
fn t0_bi_invariant(prev: BusState, word: BusState, access: Access, width: BusWidth) -> Violation {
    if let Some(v) = t0_freeze(prev, word, access, width) {
        return Some(v);
    }
    if word.aux & 1 == 0 {
        let bound = width.bits() / 2 + 2;
        let got = word.transitions_from(prev);
        if got > bound {
            return Some((
                "t0-bi-bound",
                format!("{got} line transitions exceed the bound {bound}"),
            ));
        }
    }
    None
}

/// The code-specific invariant [`check_code`] verifies for `kind`.
fn invariant_of(kind: CodeKind) -> Invariant {
    match kind {
        CodeKind::BusInvert => bus_invert_bound,
        CodeKind::T0 => t0_freeze,
        CodeKind::T0Bi => t0_bi_invariant,
        CodeKind::DualT0 => dual_t0_freeze,
        CodeKind::DualT0Bi => dual_t0_bi_invariant,
        _ => |_, _, _, _| None,
    }
}

/// Product-automaton state: both codec halves plus the last bus word (the
/// invariants are relations between consecutive words).
type State<E, D> = (E, D, BusState);

struct Exploration<E, D> {
    states: Vec<State<E, D>>,
    /// `(parent state index, input)` for every state except the root.
    parents: Vec<(usize, Access)>,
    transitions: u64,
}

/// One explored transition, as a property hook sees it.
struct Step<'a, E, D> {
    /// The pre-transition state.
    pre: &'a State<E, D>,
    access: Access,
    /// The word the encoder drove onto the bus.
    word: BusState,
    /// The post-transition encoder and decoder.
    enc: &'a E,
    dec: &'a D,
    /// True when the post-transition state has not been reached before.
    fresh: bool,
    width: BusWidth,
}

impl<E, D> Step<'_, E, D> {
    /// The address a correct decode recovers.
    fn expected(&self) -> u64 {
        self.access.address & self.width.mask()
    }
}

/// Breadth-first exhaustive exploration of one codec pair.
///
/// Every transition is checked for round-trip, then handed to `property`
/// — the code's invariants, or a protection wrapper's fault contract —
/// whose first violation fails the search with a replayable trace.
fn explore<E, D>(
    kind: CodeKind,
    width: BusWidth,
    encoder: E,
    decoder: D,
    config: &CheckConfig,
    property: impl Fn(&Step<'_, E, D>) -> Violation,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
{
    let mask = width.mask();
    let alphabet: Vec<Access> = (0..=mask)
        .flat_map(|a| [Access::instruction(a), Access::data(a)])
        .collect();

    let root: State<E, D> = (encoder.clone(), decoder.clone(), BusState::reset());
    let mut exploration = Exploration {
        states: vec![root.clone()],
        parents: vec![(usize::MAX, Access::instruction(0))],
        transitions: 0,
    };
    let mut seen: HashMap<State<E, D>, usize> = HashMap::new();
    seen.insert(root, 0);
    let mut frontier: VecDeque<usize> = VecDeque::from([0]);

    while let Some(index) = frontier.pop_front() {
        for &access in &alphabet {
            if exploration.transitions >= config.max_transitions
                || exploration.states.len() >= config.max_states
            {
                return Verdict::Bounded {
                    states: exploration.states.len(),
                    transitions: exploration.transitions,
                };
            }
            exploration.transitions += 1;
            let pre = &exploration.states[index];
            let (mut enc, mut dec) = (pre.0.clone(), pre.1.clone());
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            let next: State<E, D> = (enc, dec, word);
            let fresh = !seen.contains_key(&next);
            let step = Step {
                pre,
                access,
                word,
                enc: &next.0,
                dec: &next.1,
                fresh,
                width,
            };
            let violation = match &decoded {
                Ok(addr) if *addr == step.expected() => property(&step),
                Ok(addr) => Some((
                    "round-trip",
                    format!("decoded {addr:#x}, expected {:#x}", step.expected()),
                )),
                Err(e) => Some((
                    "round-trip",
                    format!("decoder rejected a conforming word: {e}"),
                )),
            };
            if let Some((invariant, detail)) = violation {
                return fail(
                    kind,
                    invariant,
                    detail,
                    &exploration,
                    index,
                    access,
                    &encoder,
                    &decoder,
                );
            }
            if fresh {
                let id = exploration.states.len();
                seen.insert(next.clone(), id);
                exploration.states.push(next);
                exploration.parents.push((index, access));
                frontier.push_back(id);
            }
        }
    }
    Verdict::Proven {
        states: exploration.states.len(),
        transitions: exploration.transitions,
    }
}

/// Builds the counterexample for a violation on `access` out of state
/// `index` by walking the BFS parent chain back to reset, then replaying
/// the inputs through fresh codec halves.
#[allow(clippy::too_many_arguments)]
fn fail<E, D>(
    kind: CodeKind,
    invariant: &'static str,
    detail: String,
    exploration: &Exploration<E, D>,
    index: usize,
    access: Access,
    encoder: &E,
    decoder: &D,
) -> Verdict
where
    E: Encoder + Clone,
    D: Decoder + Clone,
{
    let mut inputs = vec![access];
    let mut at = index;
    while at != 0 {
        let (parent, input) = exploration.parents[at];
        inputs.push(input);
        at = parent;
    }
    inputs.reverse();
    let mut enc = encoder.clone();
    let mut dec = decoder.clone();
    let trace = inputs
        .into_iter()
        .map(|access| {
            let word = enc.encode(access);
            let decoded = dec.decode(word, access.kind);
            TraceStep {
                access,
                word,
                decoded,
            }
        })
        .collect();
    Verdict::Failed(Box::new(Counterexample {
        kind,
        invariant,
        detail,
        trace,
    }))
}

/// Flips line `line` (payload lines first, then aux lines) of `word`.
pub(crate) fn flip_line(mut word: BusState, line: u32, payload_bits: u32) -> BusState {
    if line < payload_bits {
        word.payload ^= 1 << line;
    } else {
        word.aux ^= 1 << (line - payload_bits);
    }
    word
}

/// Breadth-first exhaustive exploration of a [`Protected`] codec pair,
/// checking the wrapper's fault contract on every transition.
///
/// On top of the plain round-trip property this verifies, for every
/// reachable product state and every input:
///
/// - **schedule-sync**: both wrapper halves agree on whether the cycle is
///   a refresh cycle (the schedules are call-count driven, so this is the
///   lockstep the resync argument relies on);
/// - the check kind's flip contract, probed against the decoder in its
///   exact pre-transition state. Under [`Parity`],
///   **single-flip-detection**: flipping any *one* of the `W + aux`
///   transmitted lines makes the decoder report an error instead of a
///   silently wrong address. Under [`SecDed`],
///   **single-flip-correction**: any one flipped line still decodes —
///   with no error — to the exact address and leaves the decoder in
///   *exactly* the clean decode's post-cycle state (the fault costs
///   nothing, not even a resync window); and **double-flip-detection**:
///   flipping any *two* distinct lines is reported as an error, falling
///   back to the bounded refresh-resync below, never to silent
///   corruption;
/// - **refresh-resync**: on every refresh cycle the word is
///   self-contained — a decoder restarted from its reset state decodes it
///   to the correct address *and* lands in exactly the product decoder's
///   post-cycle state. Together with **reset-to-root** (resetting any
///   reachable codec state restores the initial state), this proves the
///   post-refresh product state is independent of the pre-refresh state:
///   whatever a transient fault did to the decoder is fully discarded at
///   the next refresh boundary, so resync takes at most `R` cycles.
///
/// The code-specific transition-count invariants (T0 freeze, bus-invert
/// bound) are deliberately *not* rechecked here: the check lines and the
/// refresh both add transitions by design — that cost is what
/// `buscode-power`'s tier accounting measures.
fn explore_protected<E, D, K>(
    kind: CodeKind,
    width: BusWidth,
    encoder: Protected<E, K>,
    decoder: Protected<D, K>,
    config: &CheckConfig,
) -> Verdict
where
    E: Encoder + Clone + Eq + Hash,
    D: Decoder + Clone + Eq + Hash,
    K: LineCheck,
{
    // Reset is the fixed point the refresh argument collapses to; reset
    // copies of both halves serve as the reference for reset-to-root.
    let (root_enc, root_dec) = {
        let (mut e, mut d) = (encoder.clone(), decoder.clone());
        e.reset();
        d.reset();
        (e, d)
    };
    let lines = width.bits() + encoder.aux_line_count();
    explore(kind, width, encoder, decoder, config, |step| {
        let (pre_enc, pre_dec, _) = step.pre;
        if pre_enc.at_refresh_boundary() != pre_dec.at_refresh_boundary() {
            return Some((
                "schedule-sync",
                "encoder and decoder disagree on the refresh boundary".to_string(),
            ));
        }
        let probe = |word: BusState| {
            let mut probe = pre_dec.clone();
            let decoded = probe.decode(word, step.access.kind);
            (decoded, probe)
        };
        let flipped = |line| flip_line(step.word, line, width.bits());
        if K::TIER == Tier::Ecc {
            for line in 0..lines {
                let (decoded, probe) = probe(flipped(line));
                let drifted = probe != *step.dec;
                let detail = match decoded {
                    Ok(addr) if drifted => {
                        format!("flip of line {line} decoded {addr:#x} but the state drifted")
                    }
                    Ok(addr) if addr == step.expected() => continue,
                    Ok(addr) => format!("flip of line {line} decoded {addr:#x}"),
                    Err(e) => format!("flip of line {line} was not corrected: {e}"),
                };
                return Some(("single-flip-correction", detail));
            }
            for a in 0..lines {
                for b in (a + 1)..lines {
                    let doubled = flip_line(flipped(a), b, width.bits());
                    if probe(doubled).0.is_ok() {
                        return Some((
                            "double-flip-detection",
                            format!("flips of lines {a} and {b} decoded without an error"),
                        ));
                    }
                }
            }
        } else if let Some(line) = (0..lines).find(|&line| probe(flipped(line)).0.is_ok()) {
            return Some((
                "single-flip-detection",
                format!("flip of line {line} decoded without an error"),
            ));
        }
        if pre_enc.at_refresh_boundary() {
            let mut fresh = root_dec.clone();
            let resynced = fresh
                .decode(step.word, step.access.kind)
                .is_ok_and(|a| a == step.expected())
                && fresh == *step.dec;
            if !resynced {
                return Some((
                    "refresh-resync",
                    "refresh-cycle word does not resynchronize a reset decoder".to_string(),
                ));
            }
        }
        if step.fresh {
            let (mut e, mut d) = (step.enc.clone(), step.dec.clone());
            e.reset();
            d.reset();
            if e != root_enc || d != root_dec {
                return Some((
                    "reset-to-root",
                    "reset from a reachable state does not restore the initial state".to_string(),
                ));
            }
        }
        None
    })
}

/// Something to do with one code's concrete (unboxed) encoder/decoder
/// pair: the model checker hashes and compares codec states, which the
/// boxed factories cannot offer.
trait PairVisitor {
    type Output;

    fn visit<E, D>(self, encoder: E, decoder: D) -> Self::Output
    where
        E: Encoder + Clone + Eq + Hash,
        D: Decoder + Clone + Eq + Hash;
}

/// Builds `kind`'s concrete pair — the codecs of
/// [`CodeKind::snapshot_encoder`] / [`CodeKind::snapshot_decoder`] — and
/// hands it to `v`.
///
/// # Errors
///
/// Propagates constructor errors.
fn visit_pair<V: PairVisitor>(
    kind: CodeKind,
    params: CodeParams,
    v: V,
) -> Result<V::Output, CodecError> {
    let (w, s) = (params.width, params.stride);
    Ok(match kind {
        CodeKind::Binary => v.visit(BinaryEncoder::new(w), BinaryDecoder::new(w)),
        CodeKind::Gray => v.visit(GrayEncoder::new(w, s)?, GrayDecoder::new(w, s)?),
        CodeKind::BusInvert => v.visit(BusInvertEncoder::new(w), BusInvertDecoder::new(w)),
        CodeKind::T0 => v.visit(T0Encoder::new(w, s)?, T0Decoder::new(w, s)?),
        CodeKind::T0Bi => v.visit(T0BiEncoder::new(w, s)?, T0BiDecoder::new(w, s)?),
        CodeKind::DualT0 => v.visit(DualT0Encoder::new(w, s)?, DualT0Decoder::new(w, s)?),
        CodeKind::DualT0Bi => v.visit(DualT0BiEncoder::new(w, s)?, DualT0BiDecoder::new(w, s)?),
        CodeKind::T0Xor => v.visit(T0XorEncoder::new(w, s)?, T0XorDecoder::new(w, s)?),
        CodeKind::Offset => v.visit(OffsetEncoder::new(w), OffsetDecoder::new(w)),
        CodeKind::WorkingZone => v.visit(
            WorkingZoneEncoder::new(w, s, 4)?,
            WorkingZoneDecoder::new(w, s, 4)?,
        ),
        CodeKind::Beach => v.visit(
            BeachCode::identity(w).into_encoder(),
            BeachCode::identity(w).into_decoder(),
        ),
        CodeKind::SelfOrganizing => {
            let (low_bits, entries) = self_org_geometry(w);
            v.visit(
                SelfOrganizingEncoder::new(w, low_bits, entries)?,
                SelfOrganizingDecoder::new(w, low_bits, entries)?,
            )
        }
    })
}

/// Explores a bare pair against its code's invariants.
struct Bare<'a> {
    kind: CodeKind,
    width: BusWidth,
    config: &'a CheckConfig,
}

impl PairVisitor for Bare<'_> {
    type Output = Verdict;

    fn visit<E, D>(self, encoder: E, decoder: D) -> Verdict
    where
        E: Encoder + Clone + Eq + Hash,
        D: Decoder + Clone + Eq + Hash,
    {
        let (width, invariant) = (self.width, invariant_of(self.kind));
        explore(self.kind, width, encoder, decoder, self.config, |step| {
            invariant(step.pre.2, step.word, step.access, width)
        })
    }
}

/// Wraps a pair in [`Protected`] of kind `K` and explores its fault
/// contract.
struct Wrapped<'a, K> {
    kind: CodeKind,
    width: BusWidth,
    refresh: u64,
    config: &'a CheckConfig,
    check: PhantomData<K>,
}

impl<K: LineCheck> PairVisitor for Wrapped<'_, K> {
    type Output = Result<Verdict, CodecError>;

    fn visit<E, D>(self, encoder: E, decoder: D) -> Self::Output
    where
        E: Encoder + Clone + Eq + Hash,
        D: Decoder + Clone + Eq + Hash,
    {
        // The decoder half reads the redundant line count off the encoder.
        let inner_aux = encoder.aux_line_count();
        Ok(explore_protected(
            self.kind,
            self.width,
            Protected::<E, K>::encoder(encoder, self.refresh)?,
            Protected::<D, K>::with_aux_lines(decoder, self.refresh, inner_aux)?,
            self.config,
        ))
    }
}

/// Runs `check` on every [`CodeKind`], stopping at the first error.
fn every_code(
    check: impl Fn(CodeKind) -> Result<Verdict, CodecError>,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    CodeKind::all()
        .into_iter()
        .map(|kind| Ok((kind, check(kind)?)))
        .collect()
}

/// Rejects buses too wide to explore exhaustively.
fn check_width(params: CodeParams) -> Result<(), CodecError> {
    if params.width.bits() > 16 {
        return Err(CodecError::InvalidParameter {
            name: "width",
            reason: format!(
                "exhaustive checking requires width <= 16 bits, got {}",
                params.width.bits()
            ),
        });
    }
    Ok(())
}

/// Model-checks one code at the given parameters.
///
/// Builds the same encoder/decoder pair as [`CodeKind::encoder`] /
/// [`CodeKind::decoder`] and explores the full product automaton (within
/// `config`'s budgets), checking the round-trip property on every
/// transition plus the code's own invariants (see the module docs).
///
/// # Errors
///
/// Returns [`CodecError::InvalidParameter`] for widths above 16 bits (the
/// state space is exponential in the width; the round-trip property and
/// the paper invariants are checked exhaustively at width ≤ 16 — for
/// wider buses use the symbolic `busverify` engine) and propagates
/// constructor errors.
pub fn check_code(
    kind: CodeKind,
    params: CodeParams,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    check_width(params)?;
    let width = params.width;
    visit_pair(
        kind,
        params,
        Bare {
            kind,
            width,
            config,
        },
    )
}

/// Model-checks every [`CodeKind`] at the given parameters.
///
/// # Errors
///
/// Propagates the first [`check_code`] error (invalid parameters).
pub fn check_all(
    params: CodeParams,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    every_code(|kind| check_code(kind, params, config))
}

/// Model-checks one code wrapped in [`Protected`] of kind `K`.
fn check_protected<K: LineCheck>(
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    check_width(params)?;
    let wrapped = Wrapped::<K> {
        kind,
        width: params.width,
        refresh,
        config,
        check: PhantomData,
    };
    visit_pair(kind, params, wrapped)?
}

/// Model-checks one code wrapped in [`Hardened`][crate::codes::Hardened]
/// (parity) with the given refresh interval.
///
/// Beyond the round-trip property this verifies the wrapper's
/// fault-tolerance contract exhaustively (within budget): every single
/// line flip is detected, and every refresh cycle collapses the decoder
/// to a state reachable from reset — the bounded-resync guarantee (see
/// `explore_protected`'s soundness argument in the source). Failures
/// carry a replayable [`Counterexample`] like [`check_code`].
///
/// # Errors
///
/// Same width limit as [`check_code`] (≤ 16 bits, with the offending
/// width reported), plus the wrapper's constructor errors
/// (`refresh == 0`).
pub fn check_hardened(
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    check_protected::<Parity>(kind, params, refresh, config)
}

/// Model-checks every [`CodeKind`] under
/// [`Hardened`][crate::codes::Hardened] at the given refresh interval.
///
/// # Errors
///
/// Propagates the first [`check_hardened`] error.
pub fn check_hardened_all(
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    every_code(|kind| check_hardened(kind, params, refresh, config))
}

/// Model-checks one code wrapped in
/// [`EccHardened`][crate::codes::EccHardened] (SEC-DED) with the given
/// refresh interval.
///
/// Beyond the round-trip property this verifies the SEC-DED contract
/// exhaustively (within budget): every single line flip is *corrected*
/// in-flight — exact address, exact post-cycle decoder state, no resync —
/// and every double line flip is *detected*, falling back to the bounded
/// refresh-resync (see `explore_protected`'s soundness argument in the
/// source). Failures carry a replayable [`Counterexample`] like
/// [`check_code`].
///
/// Note the per-transition cost is quadratic in the line count (every
/// pair of flips is probed); prefer tighter budgets than
/// [`check_code`]'s at width 8 and above.
///
/// # Errors
///
/// Same width limit as [`check_code`] (≤ 16 bits, with the offending
/// width reported), plus the wrapper's constructor errors
/// (`refresh == 0`).
pub fn check_ecc(
    kind: CodeKind,
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Verdict, CodecError> {
    check_protected::<SecDed>(kind, params, refresh, config)
}

/// Model-checks every [`CodeKind`] under
/// [`EccHardened`][crate::codes::EccHardened] at the given refresh
/// interval.
///
/// # Errors
///
/// Propagates the first [`check_ecc`] error.
pub fn check_ecc_all(
    params: CodeParams,
    refresh: u64,
    config: &CheckConfig,
) -> Result<Vec<(CodeKind, Verdict)>, CodecError> {
    every_code(|kind| check_ecc(kind, params, refresh, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::protected::sealed::Sealed;
    use crate::codes::Verified;

    fn params(bits: u32) -> CodeParams {
        CodeParams::new(bits, 4.min(1 << (bits - 1))).unwrap()
    }

    #[test]
    fn every_code_proven_at_width_3() {
        let p = CodeParams::new(3, 2).unwrap();
        for (kind, verdict) in check_all(p, &CheckConfig::default()).unwrap() {
            assert!(verdict.holds(), "{kind}: {verdict}");
            assert!(verdict.is_proven(), "{kind}: {verdict}");
        }
    }

    #[test]
    fn t0_proven_at_width_4() {
        let verdict = check_code(CodeKind::T0, params(4), &CheckConfig::default()).unwrap();
        match verdict {
            Verdict::Proven {
                states,
                transitions,
            } => {
                assert!(states > 1);
                assert!(transitions >= states as u64);
            }
            other => panic!("expected proven, got {other}"),
        }
    }

    #[test]
    fn budget_yields_bounded_not_failure() {
        let tight = CheckConfig {
            max_states: 4,
            max_transitions: 100,
        };
        let verdict = check_code(CodeKind::T0, params(8), &tight).unwrap();
        assert!(matches!(verdict, Verdict::Bounded { .. }), "{verdict}");
        assert!(verdict.holds());
    }

    #[test]
    fn wide_buses_are_rejected() {
        let err = check_code(
            CodeKind::Binary,
            CodeParams::new(32, 4).unwrap(),
            &CheckConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CodecError::InvalidParameter { .. }));
    }

    /// A deliberately broken encoder must produce a counterexample whose
    /// replayed trace reproduces the violation — exercised through the
    /// generic explorer directly.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LyingEncoder {
        width: BusWidth,
        count: u8,
    }

    impl Encoder for LyingEncoder {
        fn name(&self) -> &'static str {
            "lying"
        }
        fn width(&self) -> BusWidth {
            self.width
        }
        fn aux_line_count(&self) -> u32 {
            0
        }
        fn encode(&mut self, access: Access) -> BusState {
            self.count = self.count.wrapping_add(1);
            // Corrupt the third word.
            let payload = if self.count == 3 {
                (access.address ^ 1) & self.width.mask()
            } else {
                access.address & self.width.mask()
            };
            BusState::new(payload, 0)
        }
        fn reset(&mut self) {
            self.count = 0;
        }
    }

    #[test]
    fn counterexample_replays_from_reset() {
        let p = CodeParams::new(3, 1).unwrap();
        let verdict = explore(
            CodeKind::Binary,
            p.width,
            LyingEncoder {
                width: p.width,
                count: 0,
            },
            BinaryDecoder::new(p.width),
            &CheckConfig::default(),
            |_| None,
        );
        let ce = verdict.counterexample().expect("must fail");
        assert_eq!(ce.invariant, "round-trip");
        assert_eq!(ce.trace.len(), 3);
        let last = ce.trace.last().unwrap();
        assert_ne!(
            last.decoded.as_ref().copied().unwrap(),
            last.access.address & p.width.mask()
        );
        // The display form mentions the failing code and step count.
        let text = ce.to_string();
        assert!(text.contains("round-trip"));
        assert!(text.contains("step 2"));
    }

    #[test]
    fn every_protected_code_proven_at_width_3() {
        let p = CodeParams::new(3, 2).unwrap();
        let config = CheckConfig::default();
        let hardened = check_hardened_all(p, 2, &config).unwrap();
        for (kind, verdict) in hardened
            .iter()
            .chain(&check_ecc_all(p, 2, &config).unwrap())
        {
            assert!(verdict.holds(), "{kind}: {verdict}");
            assert!(verdict.is_proven(), "{kind}: {verdict}");
        }
    }

    #[test]
    fn protected_refresh_zero_and_wide_buses_are_rejected() {
        let config = CheckConfig::default();
        let wide = CodeParams::new(32, 4).unwrap();
        for check in [check_hardened, check_ecc] {
            let err = check(CodeKind::T0, params(4), 0, &config).unwrap_err();
            assert!(matches!(
                err,
                CodecError::InvalidParameter {
                    name: "refresh",
                    ..
                }
            ));
            let err = check(CodeKind::Binary, wide, 2, &config).unwrap_err();
            assert!(matches!(
                err,
                CodecError::InvalidParameter { name: "width", .. }
            ));
        }
    }

    /// Explores T0 at width 3 with halves built apart, and returns the
    /// refuted property after checking the trace replays.
    fn refute_pair<K: LineCheck>(
        enc_refresh: u64,
        dec_refresh: u64,
        dec_inner_aux: u32,
    ) -> &'static str {
        let p = CodeParams::new(3, 1).unwrap();
        let (w, s) = (p.width, p.stride);
        let verdict = explore_protected(
            CodeKind::T0,
            w,
            Protected::<_, K>::encoder(T0Encoder::new(w, s).unwrap(), enc_refresh).unwrap(),
            Protected::<_, K>::with_aux_lines(
                T0Decoder::new(w, s).unwrap(),
                dec_refresh,
                dec_inner_aux,
            )
            .unwrap(),
            &CheckConfig::default(),
        );
        let ce = verdict
            .counterexample()
            .expect("mismatched halves must fail");
        assert!(!ce.trace.is_empty());
        ce.invariant
    }

    #[test]
    fn mismatched_halves_are_refuted() {
        // Refreshing at 2 and 3 desynchronizes the schedules.
        let invariant = refute_pair::<Parity>(2, 3, 1);
        assert!(
            invariant == "schedule-sync" || invariant == "round-trip",
            "unexpected invariant {invariant}"
        );
        // A decoder built with the wrong inner-aux count reads the check
        // lines at the wrong offsets.
        refute_pair::<SecDed>(2, 2, 0);
    }

    /// A check kind with one deliberate defect: [`BLIND_PARITY`] is a
    /// parity over the payload alone, blind to the inner lines;
    /// [`DETECT_ONLY`] is a SEC-DED that reports every fault instead of
    /// correcting it; [`NO_OVERALL_PARITY`] is a SEC-DED without its
    /// overall-parity line, so it must read every nonzero syndrome as one
    /// correctable flip.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Defective<const D: u8>(SecDed);

    const BLIND_PARITY: u8 = 0;
    const DETECT_ONLY: u8 = 1;
    const NO_OVERALL_PARITY: u8 = 2;

    impl<const D: u8> Sealed for Defective<D> {}

    impl<const D: u8> LineCheck for Defective<D> {
        const NAME: &'static str = "defective";
        const FAULT_CODE: &'static str = "defective";
        const TIER: Tier = if D == BLIND_PARITY {
            Tier::Parity
        } else {
            Tier::Ecc
        };

        fn new(payload_bits: u32, inner_aux: u32) -> Self {
            Defective(SecDed::new(payload_bits, inner_aux))
        }

        fn lines(&self) -> u32 {
            match D {
                BLIND_PARITY => 1,
                NO_OVERALL_PARITY => self.0.lines() - 1,
                _ => self.0.lines(),
            }
        }

        fn check(&self, payload: u64, inner: u64) -> u64 {
            match D {
                BLIND_PARITY => Parity.check(payload, 0),
                _ => self.0.check(payload, inner) & ((1 << self.lines()) - 1),
            }
        }

        fn verify(&self, payload: u64, inner: u64, lines: u64) -> Verified {
            match D {
                BLIND_PARITY => Parity.verify(payload, 0, lines),
                DETECT_ONLY => match self.0.verify(payload, inner, lines)? {
                    None => Ok(None),
                    Some(_) => Err("correctable error reported"),
                },
                _ => {
                    // Forge the missing line as the one that makes the
                    // overall parity odd exactly when the syndrome is
                    // nonzero.
                    let (r, mask) = (self.lines(), (1 << self.lines()) - 1);
                    let clean = self.0.check(payload, inner);
                    let syndrome = (clean ^ lines) & mask;
                    let overall = (clean >> r)
                        ^ u64::from(syndrome.count_ones() & 1)
                        ^ u64::from(syndrome != 0);
                    self.0
                        .verify(payload, inner, (lines & mask) | (overall << r))
                }
            }
        }
    }

    /// Runs T0 at width 3 under defect `D` and requires a refutation of
    /// `property` whose replayed trace round-trips every step.
    fn refuted_under<const D: u8>(property: &str) {
        let p = CodeParams::new(3, 1).unwrap();
        let config = CheckConfig::default();
        let verdict = check_protected::<Defective<D>>(CodeKind::T0, p, 2, &config).unwrap();
        let ce = verdict
            .counterexample()
            .unwrap_or_else(|| panic!("defect {D} must be refuted, got {verdict}"));
        assert_eq!(ce.invariant, property, "defect {D}: {ce}");
        assert!(!ce.trace.is_empty());
        for step in &ce.trace {
            let expected = Ok(step.access.address & p.width.mask());
            assert_eq!(step.decoded, expected, "defect {D}: {ce}");
        }
    }

    #[test]
    fn parity_blind_to_inner_lines_fails_single_flip_detection() {
        refuted_under::<BLIND_PARITY>("single-flip-detection");
    }

    #[test]
    fn detect_only_secded_fails_single_flip_correction() {
        refuted_under::<DETECT_ONLY>("single-flip-correction");
    }

    #[test]
    fn secded_without_overall_parity_fails_double_flip_detection() {
        refuted_under::<NO_OVERALL_PARITY>("double-flip-detection");
    }

    #[test]
    fn bus_invert_bound_is_tight_at_width_8() {
        // The checker must accept the real encoder (bound floor(W/2)+1)…
        let verdict = check_code(CodeKind::BusInvert, params(8), &CheckConfig::default()).unwrap();
        assert!(verdict.is_proven(), "{verdict}");
        // …and the invariant itself must reject a distance above the bound.
        let w = BusWidth::new(8).unwrap();
        let prev = BusState::new(0x00, 0);
        let far = BusState::new(0xff, 1);
        assert!(bus_invert_bound(prev, far, Access::data(0xff), w).is_some());
    }
}
