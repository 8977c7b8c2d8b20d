//! Feasibility of link sets and validation of schedules.
//!
//! A set `L` of links is *feasible* under a power assignment if every
//! link's SINR constraint (Eqn 1) holds when all senders of `L` transmit
//! simultaneously — equivalently `a_{S(L)}(ℓ) ≤ 1` for every `ℓ ∈ L`
//! (§5). On top of the SINR constraint we enforce the physical rules the
//! paper uses implicitly:
//!
//! - **half-duplex** — a node cannot transmit and receive in one slot;
//! - **single transmission** — a node cannot be the sender of two links
//!   in one slot (it has one radio).

use std::sync::{Arc, Mutex, PoisonError};

use sinr_geom::{Instance, NodeId, Point};
use sinr_links::{Link, LinkSet, Schedule};

use crate::affectance::AffectanceCalc;
use crate::channel::FadeKernel;
use crate::field::GUARD;
use crate::{PhyError, PowerAssignment, SinrParams};

/// Why a link failed within its slot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ViolationKind {
    /// The achieved SINR is below `β`.
    LowSinr,
    /// The link's receiver is also a sender in the same slot.
    HalfDuplex,
    /// The link's sender also sends another link in the same slot.
    DuplicateSender,
    /// The assigned power cannot overcome ambient noise at this length.
    BelowNoiseFloor,
    /// The power assignment has no entry for this link.
    MissingPower,
}

/// A single feasibility violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Violation {
    /// The offending link.
    pub link: Link,
    /// The achieved SINR (0 when not computable).
    pub sinr: f64,
    /// The category of failure.
    pub kind: ViolationKind,
}

/// Result of checking one link set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FeasibilityReport {
    /// All violations found (empty ⇔ feasible).
    pub violations: Vec<Violation>,
    /// Number of links checked.
    pub checked: usize,
    /// Minimum SINR across links whose SINR was computable.
    pub min_sinr: Option<f64>,
}

impl FeasibilityReport {
    /// Whether the set was feasible.
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks whether `links` is feasible under `power` when all of its
/// senders transmit simultaneously.
///
/// Never panics and never returns early: the report lists *all*
/// violations, which the experiment harness uses for diagnostics.
///
/// # Example
///
/// ```
/// use sinr_geom::{Instance, Point};
/// use sinr_links::{Link, LinkSet};
/// use sinr_phy::{feasibility, PowerAssignment, SinrParams};
///
/// let params = SinrParams::default();
/// let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0),
///                               Point::new(2.0, 0.0)])?;
/// // 0→1 and 2→1 collide at the shared receiver: infeasible.
/// let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 1)])?;
/// let power = PowerAssignment::uniform_with_margin(&params, inst.delta());
/// assert!(!feasibility::check(&params, &inst, &links, &power).is_feasible());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
) -> FeasibilityReport {
    let calc = AffectanceCalc::new(params, instance);
    let mut report = FeasibilityReport {
        checked: links.len(),
        ..Default::default()
    };

    let mut senders: Vec<NodeId> = Vec::with_capacity(links.len());
    let mut tx: Vec<(NodeId, f64)> = Vec::with_capacity(links.len());
    let mut power_errors = Vec::new();
    for l in links.iter() {
        match power.power_of(l, instance, params) {
            Ok(p) => {
                senders.push(l.sender);
                tx.push((l.sender, p));
            }
            Err(PhyError::MissingPower { link }) => {
                power_errors.push(Violation {
                    link,
                    sinr: 0.0,
                    kind: ViolationKind::MissingPower,
                });
            }
            Err(_) => unreachable!("power_of only fails with MissingPower"),
        }
    }
    report.violations.extend(power_errors.iter().copied());
    if !power_errors.is_empty() {
        // Without a complete transmitter set the SINR of the remaining
        // links is not well-defined; stop at the structural failure.
        return report;
    }

    for (i, l) in links.iter().enumerate() {
        let p_l = tx[i].1;

        if senders.contains(&l.receiver) {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::HalfDuplex,
            });
            continue;
        }
        if senders.iter().filter(|&&s| s == l.sender).count() > 1 {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::DuplicateSender,
            });
            continue;
        }
        if p_l <= params.noise_floor_power(l.length(instance), l.sender, l.receiver) {
            report.violations.push(Violation {
                link: l,
                sinr: 0.0,
                kind: ViolationKind::BelowNoiseFloor,
            });
            continue;
        }

        let sinr = calc.sinr(l, p_l, &tx);
        report.min_sinr = Some(report.min_sinr.map_or(sinr, |m: f64| m.min(sinr)));
        if sinr < params.beta() * (1.0 - 1e-12) {
            report.violations.push(Violation {
                link: l,
                sinr,
                kind: ViolationKind::LowSinr,
            });
        }
    }
    report
}

/// Shorthand for `check(..).is_feasible()`.
pub fn is_feasible(
    params: &SinrParams,
    instance: &Instance,
    links: &LinkSet,
    power: &PowerAssignment,
) -> bool {
    check(params, instance, links, power).is_feasible()
}

/// Validates that every slot of `schedule` is feasible under `power`.
///
/// # Errors
///
/// Returns [`PhyError::InfeasibleSlot`] for the first offending slot.
pub fn validate_schedule(
    params: &SinrParams,
    instance: &Instance,
    schedule: &Schedule,
    power: &PowerAssignment,
) -> Result<(), PhyError> {
    for (slot, links) in schedule.slots().iter().enumerate() {
        let report = check(params, instance, links, power);
        if let Some(v) = report.violations.first() {
            return Err(PhyError::InfeasibleSlot {
                slot,
                link: v.link,
                sinr: v.sinr,
            });
        }
    }
    Ok(())
}

/// Relative bucket width of the gain table: `d²` is bucketed by its
/// exponent and its top `TABLE_MANTISSA_BITS` mantissa bits, so one
/// bucket spans a factor `1 + 2⁻⁴` in `d²` and `(17/16)^{α/2}` in gain
/// (≈ 1.095 at `α = 3`).
const TABLE_MANTISSA_BITS: u32 = 4;
const TABLE_SHIFT: u32 = 52 - TABLE_MANTISSA_BITS;
/// Key of the first bucket: `d² = 2⁻⁶⁴`. Anything closer is bounded
/// above by `+∞` only, which sends it to the exact path.
const TABLE_FIRST_KEY: u64 = (1023 - 64) << TABLE_MANTISSA_BITS;
/// 192 binades of `d²`, up to `2¹²⁸`; anything farther is bounded by
/// the last edge.
const TABLE_BUCKETS: usize = 192 << TABLE_MANTISSA_BITS;
/// How many distinct `α` tables the process keeps.
const TABLE_CACHE: usize = 4;

/// Path gains at the bucket edges of `d²`: the source of the auditor's
/// `powf`-free term bounds. A pure function of `α`, so one table is
/// shared by every auditor of the process under the same `α`.
struct GainTable {
    alpha: f64,
    /// `edges[j]` is `path_gain` at the lower `d²` edge of bucket `j`.
    edges: Box<[f64]>,
}

impl GainTable {
    /// The table for `α`, built on first use and cached.
    fn shared(alpha: f64) -> Arc<GainTable> {
        static CACHE: Mutex<Vec<Arc<GainTable>>> = Mutex::new(Vec::new());
        // Every update below leaves the list valid, so a panic elsewhere
        // while it was held cannot have left it half-written.
        let mut cache = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(table) = cache.iter().find(|t| t.alpha.to_bits() == alpha.to_bits()) {
            return Arc::clone(table);
        }
        let edges = (0..=TABLE_BUCKETS as u64)
            .map(|j| {
                let d2 = f64::from_bits((TABLE_FIRST_KEY + j) << TABLE_SHIFT);
                d2.sqrt().powf(-alpha)
            })
            .collect();
        let table = Arc::new(GainTable { alpha, edges });
        if cache.len() == TABLE_CACHE {
            cache.remove(0);
        }
        cache.push(Arc::clone(&table));
        table
    }

    /// `(lo, hi)` around the path gain at squared distance `d2`, up to
    /// float rounding (which the certificates' guard absorbs).
    #[inline]
    fn bounds(&self, d2: f64) -> (f64, f64) {
        match (d2.to_bits() >> TABLE_SHIFT).checked_sub(TABLE_FIRST_KEY) {
            None => (self.edges[0], f64::INFINITY),
            Some(j) if (j as usize) < TABLE_BUCKETS => {
                (self.edges[j as usize + 1], self.edges[j as usize])
            }
            Some(_) => (0.0, self.edges[TABLE_BUCKETS]),
        }
    }
}

impl std::fmt::Debug for GainTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GainTable")
            .field("alpha", &self.alpha)
            .field("buckets", &TABLE_BUCKETS)
            .finish()
    }
}

/// How a [`SlotAuditor`]'s probes were decided: plain counters, always
/// on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// [`SlotAuditor::try_push`] calls.
    pub probes: u64,
    /// Probes accepted without evaluating one exact interference term.
    pub certified_passes: u64,
    /// Probes rejected by a certificate, before any exact term.
    pub certified_rejects: u64,
    /// Exact interference terms evaluated, on any path: the cost of the
    /// fallback.
    pub exact_terms: u64,
}

/// Per-link state of a slot resident.
#[derive(Clone, Copy, Debug)]
struct Resident {
    /// Sender and receiver positions.
    tx: Point,
    rx: Point,
    power: f64,
    /// Received signal `P·gain(len)`.
    signal: f64,
    /// Noise floor of the link.
    floor: f64,
    /// Total interference at or below `pass_cap` certifies the SINR
    /// test; above `fail_cap` it certifies its failure.
    pass_cap: f64,
    fail_cap: f64,
    /// The canonical interference sum over residents `0..folded`.
    exact: f64,
    folded: u32,
    /// Upper bound on the terms of residents `folded..` not yet folded.
    bound: f64,
}

/// A journal entry: resident `index`'s fold state before a fold or an
/// exact append, restored when the push it is filed under is popped.
#[derive(Clone, Copy, Debug)]
struct Fold {
    index: u32,
    folded: u32,
    exact: f64,
    bound: f64,
}

impl Fold {
    fn of(index: usize, r: &Resident) -> Fold {
        Fold {
            index: index as u32,
            folded: r.folded,
            exact: r.exact,
            bound: r.bound,
        }
    }
}

/// Whether `check`'s SINR comparison flags a violation at
/// interference `i`.
#[inline]
fn sinr_fails(signal: f64, noise: f64, i: f64, threshold: f64) -> bool {
    signal / (noise + i) < threshold
}

/// An incremental per-slot feasibility auditor: the engine behind the
/// packers ([`crate::packing`]) and the incremental and distributed
/// re-packers.
///
/// [`try_push`](Self::try_push) answers "does the slot stay feasible
/// with this link added?" with the decision [`check`] returns on the
/// grown set, without evaluating most interference terms. It follows
/// the certify-then-fall-back pattern of the interference field
/// (DESIGN.md §7.4):
///
/// - every resident keeps an **exact prefix** — the canonical
///   insertion-order interference sum over the residents before
///   `folded`, skipping its own sender as [`AffectanceCalc::sinr`] does
///   inside [`check`] — and an **upper bound** on the terms of the
///   residents it has not folded in;
/// - a probe bounds every new term from a table of path gains indexed
///   by the bits of `d²` (no `powf`), widened by the channel's fade
///   range. A certificate that clears the threshold by a guard factor
///   decides; only an inconclusive one folds the missing terms in
///   exactly, in insertion order, and decides on the canonical sum;
/// - [`pop`](Self::pop) restores folded residents from a per-push
///   journal. Bounds only grow, and a stale upper bound is still one.
///
/// A probe costs `O(k)` table lookups for a slot of `k` links plus the
/// exact terms of inconclusive certificates ([`stats`](Self::stats)).
///
/// **Determinism contract** (DESIGN.md §7): every decision is
/// bit-identical to `check(..).is_feasible()` on the same link
/// sequence — enforced by `auditor_matches_check_to_the_bit` below and
/// the phy proptests.
#[derive(Clone, Debug)]
pub struct SlotAuditor<'a> {
    params: &'a SinrParams,
    instance: &'a Instance,
    table: Arc<GainTable>,
    /// The channel's fade range, widening every table bound.
    fade_lo: f64,
    fade_hi: f64,
    /// `check`'s SINR threshold `β·(1 − 1e-12)`.
    threshold: f64,
    links: Vec<Link>,
    residents: Vec<Resident>,
    /// Fold states to restore on [`pop`](Self::pop); `marks[i]` is the
    /// journal length when link `i` was pushed, so the entries past the
    /// last mark belong to the last push.
    journal: Vec<Fold>,
    marks: Vec<usize>,
    /// Whether the resident set is feasible, when known.
    feasible: Option<bool>,
    /// Per-probe scratch: each resident's bound on the probe's term,
    /// and the residents that took the exact path with their exact term.
    probe_hi: Vec<f64>,
    deferred: Vec<(usize, f64)>,
    stats: AuditStats,
}

impl<'a> SlotAuditor<'a> {
    /// Creates an empty auditor for one slot.
    pub fn new(params: &'a SinrParams, instance: &'a Instance) -> Self {
        let (fade_lo, fade_hi) = params.channel().fade_bounds();
        SlotAuditor {
            params,
            instance,
            table: GainTable::shared(params.alpha()),
            fade_lo,
            fade_hi,
            threshold: params.beta() * (1.0 - 1e-12),
            links: Vec::new(),
            residents: Vec::new(),
            journal: Vec::new(),
            marks: Vec::new(),
            feasible: Some(true),
            probe_hi: Vec::new(),
            deferred: Vec::new(),
            stats: AuditStats::default(),
        }
    }

    /// An auditor pre-seeded with a slot's resident links, pushed in
    /// iteration order — the constructor the incremental re-packer
    /// (`sinr-connectivity::repack`) uses to rebuild a surviving slot's
    /// probe state without replaying the original packing run. The
    /// residents are *pushed*, not assumed feasible: a subsequent
    /// [`is_feasible`](Self::is_feasible) reports on exactly the seeded
    /// set, and [`try_push`](Self::try_push) probes against it with the
    /// same bit-exact decisions as an auditor grown link by link.
    pub fn with_residents<I: IntoIterator<Item = (Link, f64)>>(
        params: &'a SinrParams,
        instance: &'a Instance,
        residents: I,
    ) -> Self {
        let mut auditor = SlotAuditor::new(params, instance);
        for (link, power) in residents {
            auditor.push(link, power);
        }
        auditor
    }

    /// Number of links currently in the slot.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the slot is empty.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The resident links, in insertion order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// How the probes so far were decided.
    pub fn stats(&self) -> AuditStats {
        self.stats
    }

    /// A resident for `link` with no interference folded in yet.
    fn resident(&self, link: Link, power: f64) -> Resident {
        let len = link.length(self.instance);
        let channel = self.params.channel();
        let signal = power * self.params.path_gain(len) * channel.fade(link.sender, link.receiver);
        let noise = self.params.noise();
        let q = signal / self.threshold;
        let margin = GUARD * (q + noise);
        Resident {
            tx: self.instance.position(link.sender),
            rx: self.instance.position(link.receiver),
            power,
            signal,
            floor: self
                .params
                .noise_floor_power(len, link.sender, link.receiver),
            pass_cap: (q - noise) - margin,
            fail_cap: (q - noise) + margin,
            exact: 0.0,
            folded: 0,
            bound: 0.0,
        }
    }

    /// Appends `link` as the newest resident.
    fn admit(&mut self, link: Link, resident: Resident) {
        self.links.push(link);
        self.residents.push(resident);
        self.marks.push(self.journal.len());
    }

    /// Adds `link` transmitting with `power` to the slot without
    /// deciding anything: `O(len)` table lookups raise every bound.
    pub fn push(&mut self, link: Link, power: f64) {
        let mut new = self.resident(link, power);
        let p_hi = power * self.fade_hi;
        let mut own_hi = 0.0;
        for (l, r) in self.links.iter().zip(&mut self.residents) {
            if l.sender != link.sender {
                r.bound += p_hi * self.table.bounds(new.tx.distance_sq(r.rx)).1;
                own_hi += r.power * self.table.bounds(r.tx.distance_sq(new.rx)).1;
            }
        }
        new.bound = own_hi * self.fade_hi;
        self.admit(link, new);
        // A grown infeasible set stays infeasible (interference only
        // rises, conflicts persist); a feasible one needs a recheck.
        if self.feasible == Some(true) {
            self.feasible = None;
        }
    }

    /// Removes the most recently pushed link, restoring every resident
    /// it folded to its pre-push state.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty.
    pub fn pop(&mut self) {
        let mark = self.marks.pop().expect("pop on empty SlotAuditor");
        for f in self.journal.drain(mark..).rev() {
            let r = &mut self.residents[f.index as usize];
            r.exact = f.exact;
            r.folded = f.folded;
            r.bound = f.bound;
        }
        self.links.pop();
        self.residents.pop();
        // A subset of a feasible set is feasible; anything else is
        // unknown until the next recheck.
        if self.feasible == Some(false) {
            self.feasible = None;
        }
    }

    /// Whether the resident set is feasible — bit-identical to
    /// `check(params, instance, &set, power).is_feasible()` for the
    /// same links in the same order under the same powers. Cached:
    /// only a set grown by [`push`](Self::push) or shrunk from an
    /// infeasible state is rechecked.
    pub fn is_feasible(&mut self) -> bool {
        let channel = self.params.channel();
        self.recheck(&|u, v| channel.fade(u, v))
    }

    /// Probe: whether the slot stays feasible with `link` added at
    /// `power`. On `true` the link stays resident; on `false` the
    /// resident set is unchanged.
    pub fn try_push(&mut self, link: Link, power: f64) -> bool {
        struct Probe<'s, 'a> {
            auditor: &'s mut SlotAuditor<'a>,
            link: Link,
            power: f64,
        }
        impl FadeKernel for Probe<'_, '_> {
            type Output = bool;
            fn run(self, fade: impl Fn(NodeId, NodeId) -> f64) -> bool {
                self.auditor.probe(self.link, self.power, &fade)
            }
        }
        let channel = self.params.channel();
        channel.with_fade(Probe {
            auditor: self,
            link,
            power,
        })
    }

    /// [`try_push`](Self::try_push) with the channel's fade as a static
    /// closure.
    fn probe(&mut self, link: Link, power: f64, fade: &impl Fn(NodeId, NodeId) -> f64) -> bool {
        self.stats.probes += 1;
        if !self.recheck(fade) {
            return false;
        }
        // `check`'s structural rules against the residents: half-duplex
        // either way round, and one transmission per sender.
        if self.links.iter().any(|l| {
            l.sender == link.sender || l.sender == link.receiver || l.receiver == link.sender
        }) {
            return false;
        }
        let mut new = self.resident(link, power);
        if power <= new.floor {
            return false;
        }
        let terms_before = self.stats.exact_terms;
        let noise = self.params.noise();
        let (p_lo, p_hi) = (power * self.fade_lo, power * self.fade_hi);
        let (mut own_lo, mut own_hi) = (0.0, 0.0);
        self.probe_hi.clear();
        self.deferred.clear();
        for (j, r) in self.residents.iter().enumerate() {
            let (g_lo, g_hi) = self.table.bounds(r.tx.distance_sq(new.rx));
            own_lo += r.power * g_lo;
            own_hi += r.power * g_hi;
            let (t_lo, t_hi) = self.table.bounds(new.tx.distance_sq(r.rx));
            let hi = p_hi * t_hi;
            self.probe_hi.push(hi);
            if r.exact + r.bound + hi <= r.pass_cap {
                continue;
            }
            // The exact prefix is a lower bound on the canonical sum.
            if r.exact + p_lo * t_lo > r.fail_cap {
                self.stats.certified_rejects += 1;
                return false;
            }
            self.deferred.push((j, 0.0));
        }
        let (own_lo, own_hi) = (own_lo * self.fade_lo, own_hi * self.fade_hi);
        if own_lo > new.fail_cap {
            self.stats.certified_rejects += 1;
            return false;
        }
        // Inconclusive residents: fold exactly, then append the probe's
        // term last — its canonical position.
        for d in 0..self.deferred.len() {
            let j = self.deferred[d].0;
            self.fold(j, fade);
            let r = &self.residents[j];
            let t = power
                * self.params.path_gain(new.tx.distance(r.rx))
                * fade(link.sender, self.links[j].receiver);
            self.stats.exact_terms += 1;
            if sinr_fails(r.signal, noise, r.exact + t, self.threshold) {
                return false;
            }
            self.deferred[d].1 = t;
            self.probe_hi[j] = 0.0;
        }
        let k = self.links.len();
        if own_hi <= new.pass_cap {
            new.bound = own_hi;
        } else {
            let mut acc = 0.0;
            for (l, r) in self.links.iter().zip(&self.residents) {
                acc += r.power
                    * self.params.path_gain(r.tx.distance(new.rx))
                    * fade(l.sender, link.receiver);
            }
            self.stats.exact_terms += k as u64;
            if sinr_fails(new.signal, noise, acc, self.threshold) {
                return false;
            }
            new.exact = acc;
            new.folded = k as u32;
        }
        // Accepted: commit the bounds and the exact appends.
        if self.stats.exact_terms == terms_before {
            self.stats.certified_passes += 1;
        }
        for (r, &hi) in self.residents.iter_mut().zip(&self.probe_hi) {
            r.bound += hi;
        }
        self.admit(link, new);
        for &(j, t) in &self.deferred {
            let r = &mut self.residents[j];
            self.journal.push(Fold::of(j, r));
            r.exact += t;
            r.folded += 1;
        }
        self.feasible = Some(true);
        true
    }

    /// Folds resident `i`'s missing terms in exactly, in insertion
    /// order, journaling its previous state under the last push.
    fn fold(&mut self, i: usize, fade: &impl Fn(NodeId, NodeId) -> f64) {
        let k = self.links.len();
        let r = self.residents[i];
        if r.folded as usize == k {
            return;
        }
        self.journal.push(Fold::of(i, &r));
        let own = self.links[i];
        let mut acc = r.exact;
        for (l, s) in self.links[r.folded as usize..]
            .iter()
            .zip(&self.residents[r.folded as usize..])
        {
            if l.sender != own.sender {
                acc += s.power
                    * self.params.path_gain(s.tx.distance(r.rx))
                    * fade(l.sender, own.receiver);
                self.stats.exact_terms += 1;
            }
        }
        let r = &mut self.residents[i];
        r.exact = acc;
        r.folded = k as u32;
        r.bound = 0.0;
    }

    /// Decides the resident set from scratch: `check`'s structural
    /// rules, then each resident's certificate, folding where it is
    /// inconclusive. Caches the answer.
    fn recheck(&mut self, fade: &impl Fn(NodeId, NodeId) -> f64) -> bool {
        if let Some(known) = self.feasible {
            return known;
        }
        let mut senders: Vec<NodeId> = self.links.iter().map(|l| l.sender).collect();
        senders.sort_unstable();
        let mut feasible = !senders.windows(2).any(|w| w[0] == w[1])
            && !self
                .links
                .iter()
                .any(|l| senders.binary_search(&l.receiver).is_ok())
            && !self.residents.iter().any(|r| r.power <= r.floor);
        let noise = self.params.noise();
        for i in 0..self.residents.len() {
            if !feasible {
                break;
            }
            let r = self.residents[i];
            if r.exact + r.bound <= r.pass_cap {
                continue;
            }
            if r.exact > r.fail_cap {
                feasible = false;
                break;
            }
            self.fold(i, fade);
            let r = &self.residents[i];
            feasible = !sinr_fails(r.signal, noise, r.exact, self.threshold);
        }
        self.feasible = Some(feasible);
        feasible
    }
}

/// Probes `link` into a slot audited in both schedule directions
/// (Definition 1): `fwd` holds the slot's links, `dual` their duals,
/// and the link is admitted only if both stay feasible. On `true` the
/// link is resident in both; on `false` neither changed.
pub fn try_push_bidirectional(
    fwd: &mut SlotAuditor<'_>,
    dual: &mut SlotAuditor<'_>,
    link: Link,
    (pw_fwd, pw_dual): (f64, f64),
) -> bool {
    if fwd.try_push(link, pw_fwd) {
        if dual.try_push(link.dual(), pw_dual) {
            return true;
        }
        fwd.pop();
    }
    false
}

/// The *measured* affectance a receiver observes for a successful
/// reception: the total thresholded affectance of the other transmitters
/// on the link. This implements the measurement assumption of §8.2
/// ("receivers can measure the SINR of a successful link").
///
/// Returns `None` when the link power cannot overcome noise (the
/// measurement is undefined because the link cannot succeed at all).
pub fn measured_affectance(
    params: &SinrParams,
    instance: &Instance,
    link: Link,
    link_power: f64,
    transmitters: &[(NodeId, f64)],
) -> Option<f64> {
    AffectanceCalc::new(params, instance)
        .sum_on(transmitters, link, link_power)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelModel;

    fn params() -> SinrParams {
        SinrParams::default()
    }

    fn line_instance(xs: &[f64]) -> Instance {
        Instance::new(xs.iter().map(|&x| Point::new(x, 0.0)).collect()).unwrap()
    }

    #[test]
    fn single_strong_link_is_feasible() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        let report = check(&p, &inst, &links, &power);
        assert!(report.is_feasible(), "{report:?}");
        assert!(report.min_sinr.unwrap() >= p.beta());
    }

    #[test]
    fn below_noise_floor_is_flagged() {
        let p = params();
        let inst = line_instance(&[0.0, 4.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1)]).unwrap();
        let power = PowerAssignment::uniform(p.noise_floor_power(4.0, 0, 1) * 0.5);
        let report = check(&p, &inst, &links, &power);
        assert_eq!(report.violations[0].kind, ViolationKind::BelowNoiseFloor);
    }

    #[test]
    fn half_duplex_violation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        // 0 → 1 while 1 → 2: node 1 transmits and receives.
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(1, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let report = check(&p, &inst, &links, &power);
        assert!(report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::HalfDuplex && v.link == Link::new(0, 1)));
    }

    #[test]
    fn duplicate_sender_violation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(0, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let report = check(&p, &inst, &links, &power);
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::DuplicateSender));
        assert_eq!(report.violations.len(), 2);
    }

    #[test]
    fn near_links_collide_far_links_coexist() {
        let p = params();
        // Two parallel unit-ish links: close together (interferer at
        // distance 1.5 from each receiver) → infeasible with uniform
        // power; far apart → feasible.
        let near = line_instance(&[0.0, 1.0, 1.5, 2.5]);
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        assert!(!is_feasible(&p, &near, &links, &power));

        let far = line_instance(&[0.0, 1.0, 100.0, 101.0]);
        let links_far = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        assert!(is_feasible(&p, &far, &links_far, &power));
    }

    #[test]
    fn missing_power_short_circuits() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 50.0, 51.0]);
        let mut map = std::collections::HashMap::new();
        map.insert(Link::new(0, 1), 100.0);
        let power = PowerAssignment::explicit(map).unwrap();
        let links = LinkSet::from_links(vec![Link::new(0, 1), Link::new(2, 3)]).unwrap();
        let report = check(&p, &inst, &links, &power);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, ViolationKind::MissingPower);
    }

    #[test]
    fn schedule_validation() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 1.5, 2.5]);
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        // Conflicting links in different slots: fine.
        let good = Schedule::from_pairs(vec![(Link::new(0, 1), 0), (Link::new(3, 2), 1)]).unwrap();
        assert!(validate_schedule(&p, &inst, &good, &power).is_ok());
        // Same slot: infeasible.
        let bad = Schedule::from_pairs(vec![(Link::new(0, 1), 0), (Link::new(3, 2), 0)]).unwrap();
        let err = validate_schedule(&p, &inst, &bad, &power).unwrap_err();
        assert!(matches!(err, PhyError::InfeasibleSlot { slot: 0, .. }));
    }

    #[test]
    fn feasibility_is_monotone_under_subset() {
        // Removing links cannot break feasibility (interference only
        // decreases). Spot-check on a feasible pair.
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 100.0, 101.0]);
        let both = LinkSet::from_links(vec![Link::new(0, 1), Link::new(3, 2)]).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        assert!(is_feasible(&p, &inst, &both, &power));
        for l in both.iter() {
            let single = LinkSet::from_links(vec![l]).unwrap();
            assert!(is_feasible(&p, &inst, &single, &power));
        }
    }

    /// The auditor's decision equals `check(..).is_feasible()` on the
    /// same link sequence, for probe and pop sequences over random
    /// geometry under both channels — the packers rely on this being
    /// exact. The same run must take every decision path: certified
    /// passes, certified rejects and the exact fallback.
    #[test]
    fn auditor_matches_check_to_the_bit() {
        use sinr_geom::gen;
        let mut totals = AuditStats::default();
        for channel in [
            ChannelModel::Geometric,
            ChannelModel::shadowed(0x5AD, 6.0).unwrap(),
        ] {
            let p = params().with_channel(channel);
            for seed in 0..6u64 {
                let inst = gen::uniform_square(40, 1.5, seed).unwrap();
                let power = PowerAssignment::mean_with_margin(&p, inst.delta());
                // Candidate links: everyone's nearest-neighbor uplink.
                let candidates: Vec<Link> = (0..inst.len())
                    .map(|u| {
                        let v = (0..inst.len())
                            .filter(|&v| v != u)
                            .min_by(|&a, &b| {
                                inst.distance(a, u)
                                    .partial_cmp(&inst.distance(b, u))
                                    .unwrap()
                            })
                            .unwrap();
                        Link::new(u, v)
                    })
                    .collect();

                let mut auditor = SlotAuditor::new(&p, &inst);
                let mut resident: Vec<Link> = Vec::new();
                for &link in &candidates {
                    let pw = power.power_of(link, &inst, &p).unwrap();
                    // Reference decision on the would-be set, in identical order.
                    let mut probe = resident.clone();
                    probe.push(link);
                    let set = LinkSet::from_links(probe).unwrap();
                    let naive = check(&p, &inst, &set, &power).is_feasible();
                    assert_eq!(
                        auditor.try_push(link, pw),
                        naive,
                        "{channel:?} seed {seed}: auditor diverged from check on {link:?}"
                    );
                    if naive {
                        resident.push(link);
                    }
                }
                assert_eq!(auditor.links(), resident.as_slice());
                assert!(!auditor.is_empty(), "seed {seed}: nothing ever packed");
                let stats = auditor.stats();
                assert_eq!(stats.probes, candidates.len() as u64);
                totals.certified_passes += stats.certified_passes;
                totals.certified_rejects += stats.certified_rejects;
                totals.exact_terms += stats.exact_terms;

                // Pop everything; each prefix must still agree with check.
                while !auditor.is_empty() {
                    auditor.pop();
                    let set = LinkSet::from_links(auditor.links().to_vec()).unwrap();
                    assert_eq!(
                        auditor.is_feasible(),
                        set.is_empty() || check(&p, &inst, &set, &power).is_feasible()
                    );
                }
            }
        }
        assert!(totals.certified_passes > 0, "{totals:?}");
        assert!(totals.certified_rejects > 0, "{totals:?}");
        assert!(totals.exact_terms > 0, "{totals:?}");
    }

    /// Two unit links on a line plus a probe whose term at the first
    /// receiver lands within `10⁻⁶` of the threshold: no certificate
    /// can settle it (the guard alone is `10⁻⁷`, the gain table's
    /// buckets ~10%), so the decision comes from the exact fold — and
    /// the exact fold depends on a resident that is then popped. The
    /// pop must restore the folded state, or the second probe decides
    /// on a sum that still holds the popped term.
    #[test]
    fn near_threshold_probes_fold_exactly_and_pop_restores() {
        let p = params();
        // 0→1 (resident), 2→3 far away (its term at 1 is 1e-4), 4→5
        // (the probe, 3 from receiver 1).
        let inst = line_instance(&[0.0, 1.0, 101.0, 102.0, 4.0, 5.0]);
        let (a, far, probe) = (Link::new(0, 1), Link::new(2, 3), Link::new(4, 5));
        // SINR(a) = 100 / (1 + I) passes iff I ≤ 49 + 5e-11: the far
        // term plus the probe's land 5e-5 above, the probe alone 5e-5
        // below.
        let pw_probe = 27.0 * (49.0 - 0.5e-4);
        let mut map = std::collections::HashMap::new();
        map.insert(a, 100.0);
        map.insert(far, 100.0);
        map.insert(probe, pw_probe);
        let power = PowerAssignment::explicit(map).unwrap();
        let check_says = |links: &[Link]| {
            let set = LinkSet::from_links(links.to_vec()).unwrap();
            check(&p, &inst, &set, &power).is_feasible()
        };

        let mut auditor = SlotAuditor::new(&p, &inst);
        assert!(auditor.try_push(a, 100.0));
        assert!(auditor.try_push(far, 100.0));
        assert_eq!(auditor.stats().certified_passes, 2);
        assert_eq!(auditor.stats().exact_terms, 0);

        // Rejected by the exact fold of resident `a`, which now holds
        // the far term.
        assert!(!check_says(&[a, far, probe]));
        assert!(!auditor.try_push(probe, pw_probe));
        let folded = auditor.stats().exact_terms;
        assert!(folded > 0, "{:?}", auditor.stats());
        assert_eq!(auditor.links(), [a, far]);
        assert!(auditor.is_feasible());

        // Without the far link the same probe fits — on the exact path
        // again, from the restored (unfolded) state of `a`.
        auditor.pop();
        assert!(auditor.is_feasible());
        assert!(check_says(&[a, probe]));
        assert!(auditor.try_push(probe, pw_probe));
        assert!(auditor.stats().exact_terms > folded);
        assert_eq!(auditor.links(), [a, probe]);

        // And the far link no longer fits beside both.
        assert!(!check_says(&[a, probe, far]));
        assert!(!auditor.try_push(far, 100.0));
        assert_eq!(auditor.stats().probes, 5);
    }

    /// Probes within the guard `G` of the threshold with bounds that are
    /// exact (`d² = 4` sits on a table edge, and the gain there is
    /// `2⁻³` exactly): only the guard keeps the certificates from
    /// deciding them, on both sides.
    #[test]
    fn guard_sends_threshold_grazers_to_the_exact_path() {
        let p = params();
        // SINR(a) = 100 / (1 + I) passes iff I ≤ 49 + 5e-11; the guard
        // is G·(q + N) ≈ 5.1e-6 of interference.
        let inst = line_instance(&[0.0, 1.0, 3.0, 4.0, 1001.0, 1002.0]);
        let (a, c, d) = (Link::new(0, 1), Link::new(2, 3), Link::new(4, 5));
        let mut map = std::collections::HashMap::new();
        map.insert(a, 100.0);
        map.insert(d, 100.0);
        for (offset, fits) in [(2e-6, false), (-2e-6, true)] {
            let pw_c = 8.0 * (49.0 + offset);
            map.insert(c, pw_c);
            let power = PowerAssignment::explicit(map.clone()).unwrap();
            let check_says = |links: &[Link]| {
                let set = LinkSet::from_links(links.to_vec()).unwrap();
                check(&p, &inst, &set, &power).is_feasible()
            };
            let mut auditor = SlotAuditor::new(&p, &inst);
            assert!(auditor.try_push(a, 100.0));
            // `c`'s term at receiver 1 is `pw_c / 8`, 2e-6 off the
            // threshold: inside the guard on either side.
            assert_eq!(check_says(&[a, c]), fits);
            assert_eq!(auditor.try_push(c, pw_c), fits, "offset {offset}");
            if fits {
                // `a` now holds its exact sum 2e-6 under the threshold;
                // `d` adds 1e-7 at receiver 1 and still fits.
                assert!(check_says(&[a, c, d]));
                assert!(auditor.try_push(d, 100.0));
            }
            let stats = auditor.stats();
            assert_eq!(stats.certified_passes, 1, "offset {offset}: {stats:?}");
            assert_eq!(stats.certified_rejects, 0, "offset {offset}: {stats:?}");
        }
    }

    /// An auditor seeded with an infeasible set reports it, rejects
    /// every probe (feasibility is monotone), and recovers once the
    /// offending resident is popped — each step equal to `check`.
    #[test]
    fn seeded_infeasible_set_rejects_until_popped() {
        let p = params();
        let xy = [
            (0.0, 0.0),
            (1.0, 0.0),
            (1.5, 0.0),
            (2.5, 0.0),
            (50.0, 0.0),
            (51.0, 0.0),
            (100.0, 0.0),
            (101.0, 0.0),
            (0.0, 1.0),
        ];
        let inst = Instance::new(xy.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap();
        let power = PowerAssignment::uniform_with_margin(&p, 1.0);
        let pw = |l: Link| power.power_of(l, &inst, &p).unwrap();
        let check_says = |links: &[Link]| {
            let set = LinkSet::from_links(links.to_vec()).unwrap();
            check(&p, &inst, &set, &power).is_feasible()
        };
        let kept = [Link::new(4, 5), Link::new(0, 1)];
        let probe = Link::new(6, 7);
        // Low SINR at both receivers, half-duplex, duplicate sender.
        for bad in [Link::new(3, 2), Link::new(1, 0), Link::new(0, 8)] {
            let seeded = [kept[0], kept[1], bad];
            let mut auditor =
                SlotAuditor::with_residents(&p, &inst, seeded.iter().map(|&l| (l, pw(l))));
            assert!(!check_says(&seeded), "{bad:?}");
            assert!(!auditor.is_feasible(), "{bad:?}");
            assert!(!check_says(&[kept[0], kept[1], bad, probe]));
            assert!(!auditor.try_push(probe, pw(probe)));
            assert_eq!(auditor.links(), seeded);

            auditor.pop();
            assert!(check_says(&kept));
            assert!(auditor.is_feasible());
            assert!(check_says(&[kept[0], kept[1], probe]));
            assert!(auditor.try_push(probe, pw(probe)));
        }
    }

    /// A seeded auditor is indistinguishable from one grown push by
    /// push: same resident list, same feasibility bits, same probe
    /// decisions.
    #[test]
    fn seeded_auditor_matches_incremental_growth() {
        use sinr_geom::gen;
        let p = params();
        let inst = gen::uniform_square(30, 1.5, 4).unwrap();
        let power = PowerAssignment::mean_with_margin(&p, inst.delta());
        let residents: Vec<(Link, f64)> = [(0, 5), (7, 12), (20, 23)]
            .iter()
            .map(|&(u, v)| {
                let l = Link::new(u, v);
                (l, power.power_of(l, &inst, &p).unwrap())
            })
            .collect();
        let mut grown = SlotAuditor::new(&p, &inst);
        for &(l, pw) in &residents {
            grown.push(l, pw);
        }
        let mut seeded = SlotAuditor::with_residents(&p, &inst, residents.iter().copied());
        assert_eq!(grown.links(), seeded.links());
        assert_eq!(grown.is_feasible(), seeded.is_feasible());
        let probe = Link::new(15, 16);
        let pw = power.power_of(probe, &inst, &p).unwrap();
        assert_eq!(grown.try_push(probe, pw), seeded.try_push(probe, pw));
        assert_eq!(grown.links(), seeded.links());
    }

    #[test]
    fn auditor_rejects_structural_violations() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 2.0]);
        let power = PowerAssignment::uniform_with_margin(&p, inst.delta());
        let pw = |l: Link| power.power_of(l, &inst, &p).unwrap();

        // Half-duplex: 0→1 with 1→2.
        let mut a = SlotAuditor::new(&p, &inst);
        assert!(a.try_push(Link::new(0, 1), pw(Link::new(0, 1))));
        assert!(!a.try_push(Link::new(1, 2), pw(Link::new(1, 2))));
        assert_eq!(a.len(), 1);

        // Duplicate sender: 0→1 with 0→2.
        let mut b = SlotAuditor::new(&p, &inst);
        assert!(b.try_push(Link::new(0, 1), pw(Link::new(0, 1))));
        assert!(!b.try_push(Link::new(0, 2), pw(Link::new(0, 2))));

        // Below the noise floor.
        let mut c = SlotAuditor::new(&p, &inst);
        assert!(!c.try_push(Link::new(0, 2), p.noise_floor_power(2.0, 0, 2) * 0.5));
    }

    #[test]
    fn measured_affectance_matches_success() {
        let p = params();
        let inst = line_instance(&[0.0, 1.0, 6.0, 7.0]);
        let l = Link::new(0, 1);
        let pw = p.min_power_for_length(1.0) * 2.0;
        let tx = [(0, pw), (3, pw)];
        let a = measured_affectance(&p, &inst, l, pw, &tx).unwrap();
        let calc = AffectanceCalc::new(&p, &inst);
        let sinr = calc.sinr(l, pw, &tx);
        // Equivalence: affectance ≤ 1 iff SINR ≥ β (unclipped terms).
        assert_eq!(a <= 1.0, sinr >= p.beta() * (1.0 - 1e-12));
    }
}
