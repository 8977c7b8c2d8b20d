//! SINR model parameters.

use sinr_geom::NodeId;

use crate::{ChannelModel, PhyError, Result};

/// The constants of the SINR model (Eqn 1 of the paper).
///
/// A transmission from `u` to `v` succeeds iff
///
/// ```text
/// (P_u / d(u,v)^α) / (N + Σ_w P_w / d(w,v)^α) ≥ β
/// ```
///
/// - `alpha` — path-loss exponent, `α > 2` (the analysis needs the
///   Riemann-zeta style sums to converge);
/// - `beta` — required SINR threshold; we require `β ≥ 1` so at most one
///   message is decodable per receiver per slot (the paper implicitly
///   assumes this for its acknowledgment protocol);
/// - `noise` — ambient noise `N ≥ 0`;
/// - `epsilon` — the clip constant of thresholded affectance (§5),
///   "some arbitrary fixed constant (say 0.1)";
/// - `channel` — the [`ChannelModel`] that turns distance into gain:
///   the paper's pure power law ([`ChannelModel::Geometric`], the
///   default) or power law times a per-link log-normal fade. Every
///   physical-layer computation reads it from here, so the channel is
///   set in exactly one place.
///
/// # Example
///
/// ```
/// use sinr_phy::{ChannelModel, SinrParams};
///
/// let params = SinrParams::new(3.0, 2.0, 1.0, 0.1)?;
/// assert_eq!(params.alpha(), 3.0);
/// let faded = params.with_channel(ChannelModel::shadowed(7, 6.0)?);
/// assert!(!faded.channel().is_geometric());
/// # Ok::<(), sinr_phy::PhyError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
// Serde support lives in `crate::serde_impls` (feature `serde`):
// `(α, β, N, ε)` for the geometric channel, `(α, β, N, ε, seed, σ_dB,
// clamp_dB)` for a shadowed one; deserialization re-validates both.
pub struct SinrParams {
    alpha: f64,
    beta: f64,
    noise: f64,
    epsilon: f64,
    channel: ChannelModel,
}

impl SinrParams {
    /// Creates and validates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] unless `α > 2`, `β ≥ 1`,
    /// `N ≥ 0` and `ε > 0`, all finite.
    pub fn new(alpha: f64, beta: f64, noise: f64, epsilon: f64) -> Result<Self> {
        if !(alpha.is_finite() && alpha > 2.0) {
            return Err(PhyError::InvalidParameter {
                name: "alpha",
                reason: "path-loss exponent must be finite and exceed 2",
            });
        }
        if !(beta.is_finite() && beta >= 1.0) {
            return Err(PhyError::InvalidParameter {
                name: "beta",
                reason: "SINR threshold must be finite and at least 1",
            });
        }
        if !(noise.is_finite() && noise >= 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "noise",
                reason: "ambient noise must be finite and non-negative",
            });
        }
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(PhyError::InvalidParameter {
                name: "epsilon",
                reason: "affectance clip must be finite and positive",
            });
        }
        Ok(SinrParams {
            alpha,
            beta,
            noise,
            epsilon,
            channel: ChannelModel::Geometric,
        })
    }

    /// These parameters under `channel` instead of the current model.
    #[must_use]
    pub fn with_channel(self, channel: ChannelModel) -> Self {
        SinrParams { channel, ..self }
    }

    /// The channel model every gain is computed under.
    #[inline]
    pub fn channel(&self) -> ChannelModel {
        self.channel
    }

    /// Path-loss exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// SINR threshold `β`.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Ambient noise `N`.
    #[inline]
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Affectance clip constant `ε`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Distance attenuation `d^{-α}` (∞ at `d = 0`): the power-law
    /// part of every gain, before the channel's per-link fade.
    #[inline]
    pub fn path_gain(&self, d: f64) -> f64 {
        d.powf(-self.alpha)
    }

    /// The gain of the link `u → v` over distance `d`:
    /// `path_gain(d) · fade(u, v)`. Under the geometric channel the
    /// fade is exactly `1.0`, so this is `path_gain(d)` to the bit.
    #[inline]
    pub fn gain(&self, d: f64, u: NodeId, v: NodeId) -> f64 {
        self.path_gain(d) * self.channel.fade(u, v)
    }

    /// The range `[lo, hi]` containing the gain of **any** link whose
    /// distance lies in `[d_lo, d_hi]` — the certified-field interface:
    /// far-field bounds consume `hi`, never a per-link value.
    pub fn gain_bounds(&self, d_lo: f64, d_hi: f64) -> (f64, f64) {
        let (f_lo, f_hi) = self.channel.fade_bounds();
        (self.path_gain(d_hi) * f_lo, self.path_gain(d_lo) * f_hi)
    }

    /// The minimum power that keeps the noise factor within the paper's
    /// requirement `c(u, v) ≤ 2β` for a link of length `len`:
    /// `P = 2βN·len^α` (§5/§6: "Setting the power to 2βN·2^{rα}
    /// suffices"), divided by the channel's deepest fade so the
    /// requirement holds for every realization.
    ///
    /// With zero noise any positive power works; we return `len^α`
    /// (over the deepest fade) so the value stays usable as a
    /// uniform-power default.
    pub fn min_power_for_length(&self, len: f64) -> f64 {
        let base = len.powf(self.alpha);
        let power = if self.noise == 0.0 {
            base
        } else {
            2.0 * self.beta * self.noise * base
        };
        power / self.channel.fade_bounds().0
    }

    /// The hard noise floor below which the link `u → v` of length
    /// `len` cannot succeed even alone: `βN / gain`, i.e.
    /// `βN·len^α / fade(u, v)` (exclusive bound).
    pub fn noise_floor_power(&self, len: f64, u: NodeId, v: NodeId) -> f64 {
        self.beta * self.noise * len.powf(self.alpha) / self.channel.fade(u, v)
    }
}

impl Default for SinrParams {
    /// The workspace defaults: `α = 3`, `β = 2`, `N = 1`, `ε = 0.1`,
    /// geometric channel.
    fn default() -> Self {
        SinrParams {
            alpha: 3.0,
            beta: 2.0,
            noise: 1.0,
            epsilon: 0.1,
            channel: ChannelModel::Geometric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let d = SinrParams::default();
        assert!(SinrParams::new(d.alpha(), d.beta(), d.noise(), d.epsilon()).is_ok());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SinrParams::new(2.0, 2.0, 1.0, 0.1).is_err()); // α ≤ 2
        assert!(SinrParams::new(3.0, 0.5, 1.0, 0.1).is_err()); // β < 1
        assert!(SinrParams::new(3.0, 2.0, -1.0, 0.1).is_err()); // N < 0
        assert!(SinrParams::new(3.0, 2.0, 1.0, 0.0).is_err()); // ε ≤ 0
        assert!(SinrParams::new(f64::NAN, 2.0, 1.0, 0.1).is_err());
    }

    #[test]
    fn min_power_dominates_noise_floor() {
        let p = SinrParams::default();
        for len in [1.0, 2.0, 16.0, 100.0] {
            assert!(p.min_power_for_length(len) > p.noise_floor_power(len, 0, 1));
        }
    }

    #[test]
    fn zero_noise_min_power_positive() {
        let p = SinrParams::new(3.0, 2.0, 0.0, 0.1).unwrap();
        assert!(p.min_power_for_length(4.0) > 0.0);
        assert_eq!(p.noise_floor_power(4.0, 0, 1), 0.0);
    }

    #[test]
    fn path_gain_decreases() {
        let p = SinrParams::default();
        assert!(p.path_gain(1.0) > p.path_gain(2.0));
        assert_eq!(p.path_gain(1.0), 1.0);
    }
}
