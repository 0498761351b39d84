//! SSA values: constants, function parameters, and instruction results.

use crate::function::ParamId;
use crate::inst::InstId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A compile-time constant.
///
/// Constants are immediate operands rather than instructions; this mirrors
/// LLVM, keeps basic blocks small, and means constants never carry taint —
/// exactly the property the taint propagation rules rely on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Const {
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Const {
    /// The type of the constant.
    pub fn ty(self) -> crate::Type {
        match self {
            Const::Int(_) => crate::Type::I64,
            Const::Float(_) => crate::Type::F64,
            Const::Bool(_) => crate::Type::Bool,
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Const::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Immediate constant.
    Const(Const),
    /// The `i`-th formal parameter of the enclosing function.
    Param(ParamId),
    /// The result of an instruction in the enclosing function.
    Inst(InstId),
}

impl Value {
    /// Integer constant shorthand.
    #[inline]
    pub fn int(v: i64) -> Value {
        Value::Const(Const::Int(v))
    }

    /// Float constant shorthand.
    #[inline]
    pub fn float(v: f64) -> Value {
        Value::Const(Const::Float(v))
    }

    /// Boolean constant shorthand.
    #[inline]
    pub fn bool(v: bool) -> Value {
        Value::Const(Const::Bool(v))
    }

    /// Returns the integer constant if this operand is an immediate integer.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Const(Const::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns the defining instruction, if any.
    #[inline]
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Value::Inst(id) => Some(id),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<InstId> for Value {
    fn from(id: InstId) -> Self {
        Value::Inst(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_types() {
        assert_eq!(Const::Int(3).ty(), crate::Type::I64);
        assert_eq!(Const::Float(1.5).ty(), crate::Type::F64);
        assert_eq!(Const::Bool(true).ty(), crate::Type::Bool);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::int(7).as_int(), Some(7));
        assert_eq!(Value::float(1.0).as_int(), None);
        assert!(Value::int(7).as_inst().is_none());
        let v: Value = 42i64.into();
        assert_eq!(v.as_int(), Some(42));
    }

    #[test]
    fn const_display() {
        assert_eq!(Const::Int(-3).to_string(), "-3");
        assert_eq!(Const::Float(2.0).to_string(), "2.0");
        assert_eq!(Const::Float(2.5).to_string(), "2.5");
        assert_eq!(Const::Bool(true).to_string(), "true");
    }
}
