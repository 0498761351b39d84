//! Shared machinery for building the mini-applications.
//!
//! Both mini-apps follow the same conventions:
//!
//! * a single "domain" memory block whose header holds scalar state and the
//!   base addresses of dynamically sized field arrays (pointer indirection
//!   through memory — exactly the abstraction pattern §3.1 of the paper
//!   argues defeats static analysis);
//! * marked parameters read through `pt_param_i64` (the paper's
//!   `register_variable` idiom) and the implicit `p` obtained from
//!   `MPI_Comm_size`;
//! * work charged through `pt_work_flops` (compute-bound) and
//!   `pt_work_mem` (memory-bound; subject to the §C1 contention model).

use pt_ir::{FunctionBuilder, FunctionId, Module, Type, Value};

/// A parameter of an application.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    pub name: String,
    /// Value used during the dynamic taint run (small, representative —
    /// §6: "size 5 and 8 MPI ranks" for LULESH).
    pub taint_run_value: i64,
    /// Default value for measurement sweeps when the parameter is not
    /// being varied.
    pub default: i64,
}

impl ParamSpec {
    pub fn new(name: &str, taint_run_value: i64, default: i64) -> ParamSpec {
        ParamSpec {
            name: name.into(),
            taint_run_value,
            default,
        }
    }
}

/// A fully built application.
pub struct AppSpec {
    pub name: String,
    pub module: Module,
    pub entry: String,
    /// All marked parameters, in registration (taint-index) order. The
    /// implicit `p` must be included so parameter indices are stable.
    pub params: Vec<ParamSpec>,
    /// The parameters used as modeling axes (a typical study: `p`, `size`).
    pub model_params: Vec<String>,
}

impl AppSpec {
    /// `(name, value)` pairs for the taint run.
    pub fn taint_run_params(&self) -> Vec<(String, i64)> {
        self.params
            .iter()
            .map(|p| (p.name.clone(), p.taint_run_value))
            .collect()
    }

    /// `(name, value)` pairs with defaults, overridden by `overrides`.
    pub fn sweep_params(&self, overrides: &[(&str, i64)]) -> Vec<(String, i64)> {
        self.params
            .iter()
            .map(|p| {
                let v = overrides
                    .iter()
                    .find(|(n, _)| *n == p.name)
                    .map(|(_, v)| *v)
                    .unwrap_or(p.default);
                (p.name.clone(), v)
            })
            .collect()
    }

    /// Index of a parameter in taint order.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }
}

/// Emit the canonical field getter `name(d: ptr, i: i64) -> f64`:
/// `return *(d[slot] + i)` — base pointer loaded from the header.
pub fn add_field_getter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![("d".into(), Type::Ptr), ("i".into(), Type::I64)],
        Type::F64,
    );
    let base_slot = b.gep(b.param(0), Value::int(slot), 1);
    let base = b.load(base_slot, Type::Ptr);
    let addr = b.gep(base, b.param(1), 1);
    let v = b.load(addr, Type::F64);
    b.ret(Some(v));
    module.add_function(b.finish())
}

/// Emit the canonical field setter `name(d: ptr, i: i64, v: f64)`.
pub fn add_field_setter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![
            ("d".into(), Type::Ptr),
            ("i".into(), Type::I64),
            ("v".into(), Type::F64),
        ],
        Type::Void,
    );
    let base_slot = b.gep(b.param(0), Value::int(slot), 1);
    let base = b.load(base_slot, Type::Ptr);
    let addr = b.gep(base, b.param(1), 1);
    b.store(addr, b.param(2));
    b.ret(None);
    module.add_function(b.finish())
}

/// Emit a field accumulator `name(d, i, v)`: `field[i] += v`.
pub fn add_field_accumulator(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![
            ("d".into(), Type::Ptr),
            ("i".into(), Type::I64),
            ("v".into(), Type::F64),
        ],
        Type::Void,
    );
    let base_slot = b.gep(b.param(0), Value::int(slot), 1);
    let base = b.load(base_slot, Type::Ptr);
    let addr = b.gep(base, b.param(1), 1);
    let old = b.load(addr, Type::F64);
    let new = b.add(old, b.param(2));
    b.store(addr, new);
    b.ret(None);
    module.add_function(b.finish())
}

/// Emit a scalar header getter `name(d: ptr) -> i64`.
pub fn add_scalar_getter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(name, vec![("d".into(), Type::Ptr)], Type::I64);
    let addr = b.gep(b.param(0), Value::int(slot), 1);
    let v = b.load(addr, Type::I64);
    b.ret(Some(v));
    module.add_function(b.finish())
}

/// Emit a scalar header setter `name(d: ptr, v: i64)`.
pub fn add_scalar_setter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![("d".into(), Type::Ptr), ("v".into(), Type::I64)],
        Type::Void,
    );
    let addr = b.gep(b.param(0), Value::int(slot), 1);
    b.store(addr, b.param(1));
    b.ret(None);
    module.add_function(b.finish())
}

/// Emit a small pure element-math helper with a fixed-trip loop (statically
/// constant cost — the kind of function the static analysis prunes, §5.1).
/// `trips` iterations charging `flops_per_trip` each; returns a float.
pub fn add_elem_math(
    module: &mut Module,
    name: &str,
    trips: i64,
    flops_per_trip: i64,
) -> FunctionId {
    let mut b = FunctionBuilder::new(name, vec![("x".into(), Type::F64)], Type::F64);
    let acc = b.alloca(1i64);
    b.store(acc, b.param(0));
    b.for_loop(0i64, trips, 1i64, |b, iv| {
        let cur = b.load(acc, Type::F64);
        let ivf = b.un(pt_ir::UnOp::IntToFloat, iv);
        let nxt = b.add(cur, ivf);
        b.store(acc, nxt);
        b.call_external(
            "pt_work_flops",
            vec![Value::int(flops_per_trip)],
            Type::Void,
        );
    });
    let out = b.load(acc, Type::F64);
    b.ret(Some(out));
    module.add_function(b.finish())
}

/// Emit a trivial loop-free helper (constant; padding families mirroring
/// the accessor-heavy structure of real C++ codes).
pub fn add_tiny_helper(module: &mut Module, name: &str, flops: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(name, vec![("x".into(), Type::F64)], Type::F64);
    let y = b.mul(b.param(0), Value::float(1.0000001));
    let z = b.add(y, Value::float(0.5));
    if flops > 0 {
        b.call_external("pt_work_flops", vec![Value::int(flops)], Type::Void);
    }
    b.ret(Some(z));
    module.add_function(b.finish())
}

/// Emit an *uncalled* function with a parametric-looking loop: the static
/// analysis cannot prune it (unknown trip count), but the taint run never
/// executes it — "pruned dynamically" in Table 2.
pub fn add_dead_parametric(module: &mut Module, name: &str) -> FunctionId {
    let mut b = FunctionBuilder::new(name, vec![("n".into(), Type::I64)], Type::Void);
    b.for_loop(0i64, b.param(0), 1i64, |b, _| {
        b.call_external("pt_work_flops", vec![Value::int(10)], Type::Void);
    });
    b.ret(None);
    module.add_function(b.finish())
}

/// Emit an integer-array getter `name(d: ptr, i: i64) -> i64` (e.g.
/// `regElemSize` / `regNumList` in LULESH).
pub fn add_iarray_getter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![("d".into(), Type::Ptr), ("i".into(), Type::I64)],
        Type::I64,
    );
    let base_slot = b.gep(b.param(0), Value::int(slot), 1);
    let base = b.load(base_slot, Type::Ptr);
    let addr = b.gep(base, b.param(1), 1);
    let v = b.load(addr, Type::I64);
    b.ret(Some(v));
    module.add_function(b.finish())
}

/// Emit an integer-array setter `name(d: ptr, i: i64, v: i64)`.
pub fn add_iarray_setter(module: &mut Module, name: &str, slot: i64) -> FunctionId {
    let mut b = FunctionBuilder::new(
        name,
        vec![
            ("d".into(), Type::Ptr),
            ("i".into(), Type::I64),
            ("v".into(), Type::I64),
        ],
        Type::Void,
    );
    let base_slot = b.gep(b.param(0), Value::int(slot), 1);
    let base = b.load(base_slot, Type::Ptr);
    let addr = b.gep(base, b.param(1), 1);
    b.store(addr, b.param(2));
    b.ret(None);
    module.add_function(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_verify() {
        let mut m = Module::new("t");
        add_field_getter(&mut m, "Domain_x", 16);
        add_field_setter(&mut m, "Domain_set_x", 16);
        add_field_accumulator(&mut m, "Domain_add_x", 16);
        add_scalar_getter(&mut m, "Domain_numElem", 0);
        add_scalar_setter(&mut m, "Domain_set_numElem", 0);
        add_elem_math(&mut m, "CalcElemVolume", 8, 12);
        add_tiny_helper(&mut m, "CBRT", 2);
        add_dead_parametric(&mut m, "VerifyAndWriteFinalOutput");
        assert!(pt_ir::verify_module(&m).is_ok());
        assert_eq!(m.functions.len(), 8);
    }

    #[test]
    fn param_spec_overrides() {
        let spec = AppSpec {
            name: "t".into(),
            module: Module::new("t"),
            entry: "main".into(),
            params: vec![ParamSpec::new("size", 5, 30), ParamSpec::new("p", 8, 8)],
            model_params: vec!["p".into(), "size".into()],
        };
        assert_eq!(
            spec.taint_run_params(),
            vec![("size".to_string(), 5), ("p".to_string(), 8)]
        );
        let sweep = spec.sweep_params(&[("size", 40)]);
        assert_eq!(sweep[0], ("size".to_string(), 40));
        assert_eq!(sweep[1], ("p".to_string(), 8));
        assert_eq!(spec.param_index("p"), Some(1));
        assert_eq!(spec.param_index("nope"), None);
    }
}
