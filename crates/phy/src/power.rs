//! Power assignments (§3 of the paper).

use std::collections::HashMap;
use std::fmt;

use sinr_geom::Instance;
use sinr_links::Link;

use crate::{PhyError, Result, SinrParams};

/// A power assignment: how much power the sender of each link uses.
///
/// The paper distinguishes *oblivious* assignments — the power is a
/// simple function `scale · ℓ^{τα}` of the link length ℓ — from
/// *arbitrary* assignments chosen per link. The oblivious family is
/// parameterized by the exponent fraction `τ`:
///
/// | τ   | name            | power              |
/// |-----|-----------------|--------------------|
/// | 0   | uniform `U`     | `scale`            |
/// | 1/2 | mean `M`        | `scale · ℓ^{α/2}`  |
/// | 1   | linear `L`      | `scale · ℓ^{α}`    |
///
/// # Example
///
/// ```
/// use sinr_geom::{Instance, Point};
/// use sinr_links::Link;
/// use sinr_phy::{PowerAssignment, SinrParams};
///
/// let params = SinrParams::default();
/// let inst = Instance::new(vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)])?;
/// let mean = PowerAssignment::mean_with_margin(&params, inst.delta());
/// let p = mean.power_of(Link::new(0, 1), &inst, &params)?;
/// assert!(p > params.noise_floor_power(4.0, 0, 1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct PowerAssignment {
    inner: Inner,
}

#[derive(Clone, PartialEq)]
enum Inner {
    /// `power(ℓ) = scale · len(ℓ)^{tau · α}`.
    Oblivious { tau: f64, scale: f64 },
    /// Explicit per-link powers.
    Explicit(HashMap<Link, f64>),
}

impl PowerAssignment {
    /// Uniform power `U`: every sender uses `power`.
    pub fn uniform(power: f64) -> Self {
        assert!(
            power > 0.0 && power.is_finite(),
            "power must be positive, got {power}"
        );
        PowerAssignment {
            inner: Inner::Oblivious {
                tau: 0.0,
                scale: power,
            },
        }
    }

    /// Mean power `M`: `scale · ℓ^{α/2}`.
    pub fn mean(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive, got {scale}"
        );
        PowerAssignment {
            inner: Inner::Oblivious { tau: 0.5, scale },
        }
    }

    /// Linear power `L`: `scale · ℓ^α`.
    pub fn linear(scale: f64) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive, got {scale}"
        );
        PowerAssignment {
            inner: Inner::Oblivious { tau: 1.0, scale },
        }
    }

    /// General oblivious power `scale · ℓ^{τα}` with `τ ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `tau ∉ [0, 1]` or `scale` is not positive and finite.
    pub fn oblivious(tau: f64, scale: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&tau),
            "tau must lie in [0, 1], got {tau}"
        );
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive, got {scale}"
        );
        PowerAssignment {
            inner: Inner::Oblivious { tau, scale },
        }
    }

    /// Uniform power sized so every link up to length `max_len`
    /// comfortably overcomes noise (`c ≤ 2β`; §6 sets `2βN·2^{rα}`),
    /// on every link of the params' channel
    /// ([`SinrParams::min_power_for_length`]).
    pub fn uniform_with_margin(params: &SinrParams, max_len: f64) -> Self {
        PowerAssignment::uniform(params.min_power_for_length(max_len).max(f64::MIN_POSITIVE))
    }

    /// Mean power with the scale chosen so all links up to `max_len`
    /// satisfy `c ≤ 2β`: `scale = 2βN·max_len^{α/2}` (so
    /// `P(ℓ) = 2βN·max_len^{α/2}·ℓ^{α/2} ≥ 2βN·ℓ^α` for `ℓ ≤ max_len`),
    /// widened by the channel's deepest fade.
    pub fn mean_with_margin(params: &SinrParams, max_len: f64) -> Self {
        let (fade_lo, _) = params.channel().fade_bounds();
        let scale = (2.0 * params.beta() * params.noise() * max_len.powf(params.alpha() / 2.0)
            / fade_lo)
            .max(f64::MIN_POSITIVE);
        PowerAssignment::mean(scale)
    }

    /// Linear power with the noise-margin scale `2βN` (length-independent
    /// because the exponent already matches the path loss), widened by
    /// the channel's deepest fade.
    pub fn linear_with_margin(params: &SinrParams) -> Self {
        let (fade_lo, _) = params.channel().fade_bounds();
        let scale = (2.0 * params.beta() * params.noise() / fade_lo).max(f64::MIN_POSITIVE);
        PowerAssignment::linear(scale)
    }

    /// An explicit per-link assignment (the paper's "arbitrary power").
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidParameter`] if any power is not
    /// positive and finite.
    pub fn explicit(powers: HashMap<Link, f64>) -> Result<Self> {
        for &p in powers.values() {
            if !(p.is_finite() && p > 0.0) {
                return Err(PhyError::InvalidParameter {
                    name: "powers",
                    reason: "every explicit power must be positive and finite",
                });
            }
        }
        Ok(PowerAssignment {
            inner: Inner::Explicit(powers),
        })
    }

    /// Whether this is an oblivious (length-function) assignment.
    pub fn is_oblivious(&self) -> bool {
        matches!(self.inner, Inner::Oblivious { .. })
    }

    /// The power the sender of `link` uses.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::MissingPower`] if an explicit assignment has
    /// no entry for `link`.
    pub fn power_of(&self, link: Link, instance: &Instance, params: &SinrParams) -> Result<f64> {
        match &self.inner {
            Inner::Oblivious { tau, scale } => {
                Ok(scale * link.length(instance).powf(tau * params.alpha()))
            }
            Inner::Explicit(map) => map
                .get(&link)
                .copied()
                .ok_or(PhyError::MissingPower { link }),
        }
    }

    /// The explicit power table, if this is an explicit assignment.
    pub fn as_explicit(&self) -> Option<&HashMap<Link, f64>> {
        match &self.inner {
            Inner::Explicit(map) => Some(map),
            Inner::Oblivious { .. } => None,
        }
    }
}

impl fmt::Debug for PowerAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Inner::Oblivious { tau, scale } => {
                write!(f, "PowerAssignment::Oblivious(tau={tau}, scale={scale})")
            }
            Inner::Explicit(map) => {
                write!(f, "PowerAssignment::Explicit({} links)", map.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sinr_geom::Point;

    fn inst() -> Instance {
        Instance::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(4.0, 0.0),
        ])
        .unwrap()
    }

    #[test]
    fn oblivious_family_exponents() {
        let params = SinrParams::default(); // α = 3
        let i = inst();
        let long = Link::new(0, 2); // length 4
        let uniform = PowerAssignment::uniform(5.0);
        let mean = PowerAssignment::mean(1.0);
        let linear = PowerAssignment::linear(1.0);
        assert_eq!(uniform.power_of(long, &i, &params).unwrap(), 5.0);
        assert!((mean.power_of(long, &i, &params).unwrap() - 8.0).abs() < 1e-9); // 4^1.5
        assert!((linear.power_of(long, &i, &params).unwrap() - 64.0).abs() < 1e-9);
        // 4^3
    }

    #[test]
    fn margin_constructors_beat_noise_floor() {
        let i = inst();
        let long = Link::new(0, 2);
        let short = Link::new(0, 1);
        for channel in [
            crate::ChannelModel::Geometric,
            crate::ChannelModel::shadowed(4, 6.0).unwrap(),
        ] {
            let params = SinrParams::default().with_channel(channel);
            for pa in [
                PowerAssignment::uniform_with_margin(&params, i.delta()),
                PowerAssignment::mean_with_margin(&params, i.delta()),
                PowerAssignment::linear_with_margin(&params),
            ] {
                for l in [long, short] {
                    let p = pa.power_of(l, &i, &params).unwrap();
                    let floor = params.noise_floor_power(l.length(&i), l.sender, l.receiver);
                    assert!(
                        p >= 2.0 * floor * (1.0 - 1e-12),
                        "{channel:?}: {pa:?} gave {p} for {l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_lookup_and_missing() {
        let params = SinrParams::default();
        let i = inst();
        let mut map = HashMap::new();
        map.insert(Link::new(0, 1), 7.0);
        let pa = PowerAssignment::explicit(map).unwrap();
        assert!(!pa.is_oblivious());
        assert_eq!(pa.power_of(Link::new(0, 1), &i, &params).unwrap(), 7.0);
        assert_eq!(
            pa.power_of(Link::new(0, 2), &i, &params),
            Err(PhyError::MissingPower {
                link: Link::new(0, 2)
            })
        );
    }

    #[test]
    fn explicit_rejects_nonpositive() {
        let mut map = HashMap::new();
        map.insert(Link::new(0, 1), 0.0);
        assert!(PowerAssignment::explicit(map).is_err());
    }

    #[test]
    #[should_panic(expected = "tau must lie in [0, 1]")]
    fn oblivious_rejects_bad_tau() {
        let _ = PowerAssignment::oblivious(1.5, 1.0);
    }

    #[test]
    fn mean_is_geometric_mean_of_uniform_and_linear() {
        // P_M(ℓ)² = P_U · P_L(ℓ) when all scales are 1.
        let params = SinrParams::default();
        let i = inst();
        let l = Link::new(0, 2);
        let u = PowerAssignment::uniform(1.0)
            .power_of(l, &i, &params)
            .unwrap();
        let m = PowerAssignment::mean(1.0).power_of(l, &i, &params).unwrap();
        let lin = PowerAssignment::linear(1.0)
            .power_of(l, &i, &params)
            .unwrap();
        assert!((m * m - u * lin).abs() < 1e-9);
    }
}
