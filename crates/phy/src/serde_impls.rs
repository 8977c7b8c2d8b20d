//! Serde support for the physical-layer types (feature `serde`).
//!
//! Explicit impls rather than derives (the offline serde shim has no
//! proc macro). `SinrParams` serializes as the `(α, β, N, ε)` tuple
//! under the geometric channel and as `(α, β, N, ε, seed, σ_dB,
//! clamp_dB)` under a shadowed one, so no channel is lost on the way
//! through. Deserialization re-validates the parameter domains (`α > 2`,
//! `β ≥ 1`, `N ≥ 0`, `ε > 0`) through [`SinrParams::new`] and the fade
//! parameters through [`Shadowing::with_clamp`].

use serde::{Deserialize, Error, Serialize, Value};

use crate::{ChannelModel, Shadowing, SinrParams};

impl Serialize for SinrParams {
    fn to_value(&self) -> Value {
        let (a, b, n, e) = (self.alpha(), self.beta(), self.noise(), self.epsilon());
        match self.channel() {
            ChannelModel::Geometric => (a, b, n, e).to_value(),
            ChannelModel::Shadowed(s) => (a, b, n, e, s.seed, s.sigma_db, s.clamp_db).to_value(),
        }
    }
}

impl Deserialize for SinrParams {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let (a, b, n, e, channel) = match value {
            Value::Seq(items) if items.len() == 7 => {
                let (a, b, n, e, seed, sigma_db, clamp_db) =
                    <(f64, f64, f64, f64, u64, f64, f64)>::from_value(value)?;
                let fade =
                    Shadowing::with_clamp(seed, sigma_db, clamp_db).map_err(Error::custom)?;
                (a, b, n, e, ChannelModel::Shadowed(fade))
            }
            _ => {
                let (a, b, n, e) = <(f64, f64, f64, f64)>::from_value(value)?;
                (a, b, n, e, ChannelModel::Geometric)
            }
        };
        Ok(SinrParams::new(a, b, n, e)
            .map_err(Error::custom)?
            .with_channel(channel))
    }
}
