//! Offline API-subset shim of the [`serde`](https://serde.rs) traits
//! for the `sinr-connect` workspace.
//!
//! The build environment has no registry access, so this crate provides
//! the two capabilities the workspace's optional `serde` features rely
//! on, without proc macros:
//!
//! - the trait names downstream code writes bounds against —
//!   [`Serialize`], [`Deserialize`] and [`de::DeserializeOwned`];
//! - a self-describing in-memory data model, [`Value`], through which
//!   implementations round-trip (`T → Value → T`).
//!
//! Instead of `#[derive(Serialize, Deserialize)]`, the data-structure
//! crates write small manual impls (feature-gated `serde_impls`
//! modules) that reuse the same `TryFrom`/`Into` conversions upstream
//! serde would have used via `#[serde(try_from = ..., into = ...)]`.
//! Swapping in real serde means restoring the derive attributes and
//! flipping one line in the workspace `Cargo.toml`; the trait-bound
//! surface (`T: Serialize + DeserializeOwned`) is identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;
use std::fmt;

/// The self-describing data model values serialize into — the shim's
/// analogue of `serde_json::Value`.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// An absent optional.
    None,
    /// A present optional.
    Some(Box<Value>),
    /// A sequence (lists, tuples).
    Seq(Vec<Value>),
    /// A string-keyed map (structs).
    Map(Vec<(String, Value)>),
}

/// Errors produced when a [`Value`] cannot be deserialized into the
/// requested type.
#[derive(Clone, Debug, PartialEq)]
pub struct Error(String);

impl Error {
    /// A custom deserialization error.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    fn type_mismatch(expected: &str, got: &Value) -> Self {
        Error(format!("expected {expected}, got {got:?}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde shim error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be converted into the [`Value`] data model.
pub trait Serialize {
    /// Serializes `self` into a [`Value`].
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Deserializes a value of this type out of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] when `value` has the wrong shape or violates
    /// the type's invariants.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Deserialization-side namespace, mirroring `serde::de`.
pub mod de {
    /// Owned deserialization. In real serde this is a lifetime-erasing
    /// supertrait of `Deserialize<'de>`; in the shim, where no
    /// borrowing deserializer exists, it is the same trait under the
    /// upstream bound name.
    pub use crate::Deserialize as DeserializeOwned;
    pub use crate::Error;
}

/// Serialization-side namespace, mirroring `serde::ser`.
pub mod ser {
    pub use crate::{Error, Serialize};
}

macro_rules! impl_serde_int {
    ($($t:ty => $variant:ident as $wide:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::$variant(*self as $wide)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::$variant(x) => <$t>::try_from(*x)
                        .map_err(|_| Error::custom(concat!("out of range for ", stringify!($t)))),
                    other => Err(Error::type_mismatch(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_serde_int!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64,
    u64 => U64 as u64, usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64
);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::F64(x) => Ok(*x),
            Value::U64(x) => Ok(*x as f64),
            Value::I64(x) => Ok(*x as f64),
            other => Err(Error::type_mismatch("f64", other)),
        }
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::type_mismatch("bool", other)),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::type_mismatch("string", other)),
        }
    }
}

impl Serialize for () {
    fn to_value(&self) -> Value {
        Value::Unit
    }
}

impl Deserialize for () {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Unit => Ok(()),
            other => Err(Error::type_mismatch("unit", other)),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::None,
            Some(x) => Value::Some(Box::new(x.to_value())),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::None => Ok(None),
            Value::Some(inner) => Ok(Some(T::from_value(inner)?)),
            other => Err(Error::type_mismatch("option", other)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::type_mismatch("sequence", other)),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.iter()
                .map(|(k, v)| Value::Seq(vec![k.to_value(), v.to_value()]))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(<(K, V)>::from_value).collect(),
            other => Err(Error::type_mismatch("map entries", other)),
        }
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+ ; $len:literal)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Seq(items) if items.len() == $len => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    other => Err(Error::type_mismatch(
                        concat!("tuple of length ", stringify!($len)), other)),
                }
            }
        }
    )+};
}

impl_serde_tuple!(
    (A:0 ; 1),
    (A:0, B:1 ; 2),
    (A:0, B:1, C:2 ; 3),
    (A:0, B:1, C:2, D:3 ; 4),
    (A:0, B:1, C:2, D:3, E:4, F:5, G:6 ; 7),
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Serialize + Deserialize + PartialEq + fmt::Debug>(x: T) {
        assert_eq!(T::from_value(&x.to_value()).unwrap(), x);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(42u64);
        roundtrip(7usize);
        roundtrip(-3i32);
        roundtrip(1.5f64);
        roundtrip(true);
        roundtrip(String::from("hello"));
        roundtrip(());
    }

    #[test]
    fn composites_roundtrip() {
        roundtrip(vec![Some(1u32), None, Some(3)]);
        roundtrip((1u64, 2.5f64, String::from("x")));
        roundtrip(BTreeMap::from([(1u64, vec![2.0f64]), (3, vec![])]));
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(u64::from_value(&Value::Str("no".into())).is_err());
        assert!(u8::from_value(&Value::U64(300)).is_err());
        assert!(<(u64, u64)>::from_value(&Value::Seq(vec![Value::U64(1)])).is_err());
        let e = Error::custom("boom");
        assert!(format!("{e}").contains("boom"));
    }
}
