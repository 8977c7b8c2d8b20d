//! The channel model: who attenuates a transmission, and by how much.
//!
//! A [`ChannelModel`] is part of [`SinrParams`]: every gain the
//! physical layer computes is `path_gain(d) · fade(u, v)`, read through
//! [`SinrParams::gain`]. The paper's clean geometric SINR model is the
//! [`ChannelModel::Geometric`] member, whose fade is exactly `1.0` (and
//! whose fade range is `(1.0, 1.0)`), so IEEE-754 `x · 1.0 = x` keeps
//! every geometric output bit-identical to the pure power law.
//! [`ChannelModel::Shadowed`] layers a deterministic per-link
//! log-normal fade (truncated at `±clamp_db`) on top of the power law,
//! the "log-normal shadowing" extension of Mao–Anderson.
//!
//! # Determinism
//!
//! The fade of a link is a **closed-form function** of `(fade seed,
//! min(u, v), max(u, v))`: two rounds of the same SplitMix64
//! finalizer-based stream splitting the ensemble driver and the fault
//! planner use (`sinr_bench::ensemble::stream_seed`, pinned against the
//! same golden value below), feeding one Box–Muller normal draw. No
//! sequential RNG state exists, so
//!
//! - adding or removing links never shifts any other link's fade,
//! - every engine backend and thread count computes the identical fade
//!   bit-for-bit, and
//! - the fade is symmetric (`fade(u, v) = fade(v, u)`): a link and its
//!   dual see the same shadowing, as common obstacles would cause.
//!
//! # Certification
//!
//! Truncating the fade at `±clamp_db` gives the **global gain range**
//! `[fade_lo, fade_hi]` that [`SinrParams::gain_bounds`] exposes; the
//! interference field's far-field certificates multiply their
//! distance-only bounds by `fade_hi`, widening only the certificate —
//! never an exact fallback value (DESIGN.md §15).

use sinr_geom::NodeId;

#[cfg(doc)]
use crate::SinrParams;
use crate::{PhyError, Result};

/// SplitMix64 finalizer-based stream splitting — the exact mixer
/// `sinr_bench::ensemble::stream_seed` and `sinr_sim::faults` use,
/// duplicated here (phy sits below both in the dependency order) and
/// pinned against the same golden value so the three can never drift.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a mixed 64-bit word to a uniform f64 in `[0, 1)` (top 53 bits).
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain-separation tag: the per-pair fade stream can never collide
/// with the fault planner's or the ensemble driver's streams.
const TAG_FADE: u64 = 0x5AD0_0001;

/// Truncated log-normal shadowing: per-link fades drawn from
/// hierarchically split SplitMix64 streams.
///
/// `fade(u, v) = 10^{clamp(σ·z(u,v), ±clamp_db) / 10}` where `z(u, v)`
/// is a standard normal computed in closed form from `(seed, u, v)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shadowing {
    /// Root of the per-pair fade streams.
    pub seed: u64,
    /// Shadowing standard deviation in dB (typically 3–8 dB).
    pub sigma_db: f64,
    /// Truncation of the fade magnitude in dB. Finite truncation is
    /// what gives the certified field a finite per-link gain range.
    pub clamp_db: f64,
}

impl Shadowing {
    /// A validated shadowing model with the conventional `±3σ`
    /// truncation (covers 99.7% of the untruncated mass).
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `σ > 0` (finite).
    pub fn new(seed: u64, sigma_db: f64) -> Result<Self> {
        Self::with_clamp(seed, sigma_db, 3.0 * sigma_db)
    }

    /// A validated shadowing model with an explicit truncation depth.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `σ > 0` and
    /// `clamp_db ≥ σ`, all finite.
    pub fn with_clamp(seed: u64, sigma_db: f64, clamp_db: f64) -> Result<Self> {
        if !(sigma_db.is_finite() && sigma_db > 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "sigma_db",
                reason: "shadowing deviation must be finite and positive",
            });
        }
        if !(clamp_db.is_finite() && clamp_db >= sigma_db) {
            return Err(PhyError::InvalidParameter {
                name: "clamp_db",
                reason: "fade truncation must be finite and at least sigma_db",
            });
        }
        Ok(Shadowing {
            seed,
            sigma_db,
            clamp_db,
        })
    }

    /// The fade multiplier of the unordered pair `{u, v}`.
    pub fn fade(&self, u: NodeId, v: NodeId) -> f64 {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let pair = stream_seed(stream_seed(self.seed ^ TAG_FADE, a as u64), b as u64);
        // Box–Muller from two split words; `max` keeps `ln` finite so
        // the product below can never be `inf · 0 = NaN`.
        let u1 = unit_f64(stream_seed(pair, 0)).max(f64::MIN_POSITIVE);
        let u2 = unit_f64(stream_seed(pair, 1));
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let fade_db = (self.sigma_db * z).clamp(-self.clamp_db, self.clamp_db);
        10f64.powf(fade_db / 10.0)
    }

    /// The global fade range `[10^{-clamp/10}, 10^{clamp/10}]` every
    /// per-pair fade lies in (the truncation made it finite).
    pub fn fade_bounds(&self) -> (f64, f64) {
        (
            10f64.powf(-self.clamp_db / 10.0),
            10f64.powf(self.clamp_db / 10.0),
        )
    }
}

/// The channel model of a [`SinrParams`]: the per-link fade every gain
/// is multiplied by.
///
/// An enum, not a trait object: the determinism contract (DESIGN.md §9)
/// forbids dynamic dispatch whose vtable order could vary. This module
/// is the only place that matches on it; everything else reads
/// [`fade`](Self::fade) and [`fade_bounds`](Self::fade_bounds).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ChannelModel {
    /// The paper's clean model: gain is the pure distance power law
    /// `d^{-α}` ([`SinrParams::path_gain`]); every fade is `1.0`.
    #[default]
    Geometric,
    /// Power law times a deterministic per-link log-normal fade.
    Shadowed(Shadowing),
}

impl ChannelModel {
    /// A shadowed model with the `±3σ` default truncation.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] for a non-positive `σ`.
    pub fn shadowed(seed: u64, sigma_db: f64) -> Result<Self> {
        Ok(ChannelModel::Shadowed(Shadowing::new(seed, sigma_db)?))
    }

    /// Whether this is the clean geometric model.
    #[inline]
    pub fn is_geometric(&self) -> bool {
        matches!(self, ChannelModel::Geometric)
    }

    /// The fade multiplier of the unordered pair `{u, v}` (exactly 1
    /// under [`Geometric`](ChannelModel::Geometric)).
    #[inline]
    pub fn fade(&self, u: NodeId, v: NodeId) -> f64 {
        match self {
            ChannelModel::Geometric => 1.0,
            ChannelModel::Shadowed(s) => s.fade(u, v),
        }
    }

    /// The global fade range `[lo, hi]` containing every per-pair fade
    /// (exactly `(1, 1)` under [`Geometric`](ChannelModel::Geometric)).
    #[inline]
    pub fn fade_bounds(&self) -> (f64, f64) {
        match self {
            ChannelModel::Geometric => (1.0, 1.0),
            ChannelModel::Shadowed(s) => s.fade_bounds(),
        }
    }

    /// Runs `kernel` with this channel's fade as a statically
    /// dispatched closure — `|_, _| 1.0` under
    /// [`Geometric`](ChannelModel::Geometric), where the compiler folds
    /// the `× 1.0` away and the loop is the bare power law. Hot loops
    /// keep one source body and get one compiled copy per member.
    #[inline]
    pub(crate) fn with_fade<K: FadeKernel>(&self, kernel: K) -> K::Output {
        match self {
            ChannelModel::Geometric => kernel.run(|_, _| 1.0),
            ChannelModel::Shadowed(s) => kernel.run(|u, v| s.fade(u, v)),
        }
    }

    /// Short label for tables and CLI reports.
    pub fn label(&self) -> String {
        match self {
            ChannelModel::Geometric => "geometric".into(),
            ChannelModel::Shadowed(s) => format!("shadowed σ={}dB", s.sigma_db),
        }
    }
}

/// A hot loop generic over the per-link fade; see
/// [`ChannelModel::with_fade`].
pub(crate) trait FadeKernel {
    /// What the kernel returns.
    type Output;
    /// Runs the kernel with `fade(u, v)` as the fade of the pair.
    fn run(self, fade: impl Fn(NodeId, NodeId) -> f64) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SinrParams;

    /// The golden pin shared with `sinr_bench::ensemble::stream_seed`
    /// and `sinr_sim::faults::stream_seed`.
    #[test]
    fn stream_seed_matches_the_ensemble_golden_value() {
        assert_eq!(stream_seed(0, 0), 0xe220_a839_7b1d_cdaf);
        assert_ne!(stream_seed(0, 1), stream_seed(0, 2));
        assert_ne!(stream_seed(1, 0), stream_seed(2, 0));
    }

    #[test]
    fn fade_is_pure_symmetric_and_bounded() {
        let s = Shadowing::new(7, 6.0).unwrap();
        let (lo, hi) = s.fade_bounds();
        assert!(lo < 1.0 && hi > 1.0);
        for u in 0..40usize {
            for v in (u + 1)..40usize {
                let f = s.fade(u, v);
                assert_eq!(f.to_bits(), s.fade(u, v).to_bits(), "pure");
                assert_eq!(f.to_bits(), s.fade(v, u).to_bits(), "symmetric");
                assert!(f >= lo && f <= hi, "fade {f} outside [{lo}, {hi}]");
            }
        }
    }

    /// Closed-form draws: the fade of a pair is independent of every
    /// other pair, so growing the link set can never shift a draw.
    #[test]
    fn fades_vary_across_pairs_and_seeds() {
        let a = Shadowing::new(1, 6.0).unwrap();
        let b = Shadowing::new(2, 6.0).unwrap();
        assert_ne!(a.fade(0, 1).to_bits(), b.fade(0, 1).to_bits());
        let fades: Vec<u64> = (1..30).map(|v| a.fade(0, v).to_bits()).collect();
        let mut uniq = fades.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 25, "fades should almost never collide");
    }

    #[test]
    fn geometric_fades_are_exactly_one() {
        let m = ChannelModel::Geometric;
        assert_eq!(m.fade(0, 1).to_bits(), 1f64.to_bits());
        assert_eq!(m.fade_bounds(), (1.0, 1.0));
        assert!(m.is_geometric());
        assert!(!ChannelModel::shadowed(0, 3.0).unwrap().is_geometric());
    }

    #[test]
    fn gain_bounds_contain_every_gain_in_the_distance_range() {
        for model in [
            ChannelModel::Geometric,
            ChannelModel::shadowed(3, 6.0).unwrap(),
        ] {
            let p = SinrParams::default().with_channel(model);
            let (d_lo, d_hi) = (2.0, 9.0);
            let (g_lo, g_hi) = p.gain_bounds(d_lo, d_hi);
            for i in 0..50usize {
                let d = d_lo + (d_hi - d_lo) * (i as f64) / 49.0;
                for (u, v) in [(0, 1), (5, 17), (30, 2)] {
                    let g = p.gain(d, u, v);
                    assert!(
                        g >= g_lo && g <= g_hi,
                        "{model:?}: gain {g} ∉ [{g_lo}, {g_hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn shadowed_min_power_clears_the_deepest_fade() {
        let p = SinrParams::default().with_channel(ChannelModel::shadowed(9, 6.0).unwrap());
        for len in [1.0, 4.0, 32.0] {
            let power = p.min_power_for_length(len);
            // Even at the deepest fade the noise factor stays ≤ 2β:
            // P · g ≥ 2βN for every pair.
            for (u, v) in [(0, 1), (7, 8), (100, 3)] {
                assert!(power * p.gain(len, u, v) >= 2.0 * p.beta() * p.noise() * 0.999_999);
            }
        }
    }

    #[test]
    fn validation_rejects_bad_shadowing() {
        assert!(Shadowing::new(0, 0.0).is_err());
        assert!(Shadowing::new(0, -1.0).is_err());
        assert!(Shadowing::new(0, f64::NAN).is_err());
        assert!(Shadowing::with_clamp(0, 6.0, 3.0).is_err());
        assert!(ChannelModel::shadowed(0, 3.0).is_ok());
    }

    #[test]
    fn labels() {
        assert_eq!(ChannelModel::Geometric.label(), "geometric");
        assert!(ChannelModel::shadowed(0, 3.0)
            .unwrap()
            .label()
            .contains("3"));
        assert_eq!(ChannelModel::default(), ChannelModel::Geometric);
    }
}
