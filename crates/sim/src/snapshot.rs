//! Engine state snapshots (feature `serde`).
//!
//! A running [`Engine`](crate::Engine) is fully determined by four
//! pieces of mutable state: the next slot index, the cumulative
//! statistics, the per-node protocol states, and the per-node RNG
//! streams (the instance, parameters and backend are immutable inputs
//! the caller re-supplies). [`EngineSnapshot`] captures exactly those
//! four through the serde shim's [`Value`] data model, so any trial can
//! be paused at slot *t* and later resumed — on the same or a different
//! process — with a bit-identical tail: the restored RNGs continue the
//! same streams, and every float the resumed run computes matches the
//! uninterrupted run's.

use serde::{Deserialize, Error, Serialize, Value};

use crate::trace::Fnv1a;
use crate::EngineStats;

/// The complete mutable state of an [`Engine`](crate::Engine) at a slot
/// boundary, with protocol and RNG state erased into [`Value`]s.
///
/// Produced by [`Engine::snapshot`](crate::Engine::snapshot); consumed
/// by [`Engine::restore`](crate::Engine::restore) together with the
/// immutable run inputs (parameters, instance, backend).
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// The next slot index the engine would execute.
    pub slot: u64,
    /// Cumulative statistics at the snapshot point.
    pub stats: EngineStats,
    /// Per-node protocol states, in node order.
    pub nodes: Vec<Value>,
    /// Per-node RNG streams, in node order.
    pub rngs: Vec<Value>,
}

fn field<'v>(entries: &'v [(String, Value)], name: &str) -> Result<&'v Value, Error> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

fn as_map(value: &Value, what: &str) -> Result<Vec<(String, Value)>, Error> {
    match value {
        Value::Map(entries) => Ok(entries.clone()),
        other => Err(Error::custom(format!("expected {what} map, got {other:?}"))),
    }
}

impl Serialize for EngineStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("slots".into(), Value::U64(self.slots)),
            ("transmissions".into(), Value::U64(self.transmissions)),
            ("receptions".into(), Value::U64(self.receptions)),
        ])
    }
}

impl Deserialize for EngineStats {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = as_map(value, "EngineStats")?;
        Ok(EngineStats {
            slots: u64::from_value(field(&entries, "slots")?)?,
            transmissions: u64::from_value(field(&entries, "transmissions")?)?,
            receptions: u64::from_value(field(&entries, "receptions")?)?,
        })
    }
}

impl Serialize for EngineSnapshot {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("slot".into(), Value::U64(self.slot)),
            ("stats".into(), self.stats.to_value()),
            ("nodes".into(), Value::Seq(self.nodes.clone())),
            ("rngs".into(), Value::Seq(self.rngs.clone())),
        ])
    }
}

impl Deserialize for EngineSnapshot {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = as_map(value, "EngineSnapshot")?;
        let seq = |name: &str| -> Result<Vec<Value>, Error> {
            match field(&entries, name)? {
                Value::Seq(items) => Ok(items.clone()),
                other => Err(Error::custom(format!(
                    "expected `{name}` sequence, got {other:?}"
                ))),
            }
        };
        let snapshot = EngineSnapshot {
            slot: u64::from_value(field(&entries, "slot")?)?,
            stats: EngineStats::from_value(field(&entries, "stats")?)?,
            nodes: seq("nodes")?,
            rngs: seq("rngs")?,
        };
        if snapshot.nodes.len() != snapshot.rngs.len() {
            return Err(Error::custom(format!(
                "snapshot has {} nodes but {} RNG streams",
                snapshot.nodes.len(),
                snapshot.rngs.len()
            )));
        }
        Ok(snapshot)
    }
}

/// Canonical FNV-1a digest of a [`Value`] tree: every variant is
/// tagged, every float hashed by its IEEE-754 bits, every aggregate
/// length-prefixed — so two values hash equal iff they would serialize
/// identically. This is what makes snapshot *tail fingerprints*
/// comparable bit-for-bit across a replayed and an original run.
pub fn hash_value(value: &Value) -> u64 {
    let mut h = Fnv1a::default();
    absorb(&mut h, value);
    h.finish()
}

fn absorb(h: &mut Fnv1a, value: &Value) {
    match value {
        Value::Unit => h.write_u64(0),
        Value::Bool(b) => {
            h.write_u64(1);
            h.write_u64(u64::from(*b));
        }
        Value::U64(x) => {
            h.write_u64(2);
            h.write_u64(*x);
        }
        Value::I64(x) => {
            h.write_u64(3);
            h.write_u64(*x as u64);
        }
        Value::F64(x) => {
            h.write_u64(4);
            h.write_u64(x.to_bits());
        }
        Value::Str(s) => {
            h.write_u64(5);
            h.write_u64(s.len() as u64);
            h.write_bytes(s.as_bytes());
        }
        Value::None => h.write_u64(6),
        Value::Some(inner) => {
            h.write_u64(7);
            absorb(h, inner);
        }
        Value::Seq(items) => {
            h.write_u64(8);
            h.write_u64(items.len() as u64);
            for item in items {
                absorb(h, item);
            }
        }
        Value::Map(entries) => {
            h.write_u64(9);
            h.write_u64(entries.len() as u64);
            for (key, item) in entries {
                h.write_u64(key.len() as u64);
                h.write_bytes(key.as_bytes());
                absorb(h, item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_roundtrip() {
        let stats = EngineStats {
            slots: 7,
            transmissions: 21,
            receptions: 13,
        };
        assert_eq!(EngineStats::from_value(&stats.to_value()), Ok(stats));
        assert!(EngineStats::from_value(&Value::U64(0)).is_err());
        assert!(
            EngineStats::from_value(&Value::Map(vec![("slots".into(), Value::U64(1))])).is_err()
        );
    }

    #[test]
    fn snapshot_roundtrip_and_shape_checks() {
        let snap = EngineSnapshot {
            slot: 5,
            stats: EngineStats {
                slots: 5,
                transmissions: 2,
                receptions: 1,
            },
            nodes: vec![Value::U64(1), Value::U64(2)],
            rngs: vec![Value::Seq(vec![]), Value::Seq(vec![])],
        };
        assert_eq!(
            EngineSnapshot::from_value(&snap.to_value()).as_ref(),
            Ok(&snap)
        );

        // Mismatched node/rng counts are rejected at the shape level.
        let bad = EngineSnapshot {
            rngs: vec![Value::Seq(vec![])],
            ..snap
        };
        assert!(EngineSnapshot::from_value(&bad.to_value()).is_err());
    }

    #[test]
    fn hash_value_separates_shapes_and_bits() {
        let a = Value::Seq(vec![Value::U64(1), Value::U64(2)]);
        let b = Value::Seq(vec![Value::U64(2), Value::U64(1)]);
        assert_ne!(hash_value(&a), hash_value(&b));

        // Tag separation: U64(0) vs I64(0) vs F64(0.0) all differ.
        assert_ne!(hash_value(&Value::U64(0)), hash_value(&Value::I64(0)));
        assert_ne!(hash_value(&Value::U64(0)), hash_value(&Value::F64(0.0)));

        // Floats hash by bits: -0.0 != +0.0, NaN is stable.
        assert_ne!(hash_value(&Value::F64(0.0)), hash_value(&Value::F64(-0.0)));
        assert_eq!(
            hash_value(&Value::F64(f64::NAN)),
            hash_value(&Value::F64(f64::NAN))
        );

        // Length prefixes prevent concatenation ambiguity.
        let ab = Value::Map(vec![("ab".into(), Value::Unit)]);
        let a_b = Value::Map(vec![("a".into(), Value::Str("b".into()))]);
        assert_ne!(hash_value(&ab), hash_value(&a_b));
    }
}
