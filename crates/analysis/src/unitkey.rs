//! Content-addressed keys for per-function static-stage units.
//!
//! The static stage's unit memo caches one unit per function (loop facts
//! and decoded+optimized bytecode). A cached unit is valid exactly when
//! *everything that influenced it* is unchanged, so each function's key
//! must close over:
//!
//! * the **environment**: the module's function-name table (which binds
//!   `@name` call sites to numeric ids) and its external-symbol table
//!   (which binds library calls and host primitives to slots);
//! * its **own body**: a structural digest of the function's IR with
//!   callees named, not numbered ([`pt_ir::fingerprint::function_digest`]);
//! * its **strongly connected component**: any recursive cycle through a
//!   function lies entirely inside its SCC, so all members share a joint
//!   digest over their bodies in member order — an edit to any member
//!   invalidates the whole component;
//! * the **keys of its out-of-component callees**, in call-site order —
//!   this transitively reaches everything interprocedural (leaf-call
//!   inline specs).
//!
//! Keys are computed bottom-up over the call-graph condensation (Tarjan
//! emits SCCs callees-first), so callee keys always exist when a component
//! is processed. Editing one function therefore invalidates exactly that
//! function, its SCC co-members, and its transitive callers — everything
//! else keeps its key and its cached unit.

use crate::callgraph::CallGraph;
use pt_ir::fingerprint::{function_digest, Digest, DigestHasher};
use pt_ir::Module;

/// Per-function unit keys for one module (index = function index).
#[derive(Debug, Clone)]
pub struct UnitKeys {
    /// Environment digest shared by every key (function names in order,
    /// external symbols).
    pub env: Digest,
    /// Unit key per function.
    pub keys: Vec<Digest>,
}

/// Compute the per-function unit keys of `module`. Nothing outside the
/// module goes into a key: a unit depends on no configuration.
pub fn unit_keys(module: &Module, cg: &CallGraph) -> UnitKeys {
    let n = module.functions.len();
    let bodies: Vec<Digest> = module
        .function_ids()
        .map(|fid| function_digest(module, fid))
        .collect();

    let mut h = DigestHasher::new();
    h.str("env");
    h.len(n);
    for f in &module.functions {
        h.str(&f.name);
    }
    let externals = module.used_externals();
    h.len(externals.len());
    for name in externals {
        h.str(name);
    }
    let env = h.finish();

    let mut keys = vec![Digest(0); n];
    // Tarjan emits SCCs in reverse topological order: every out-of-component
    // callee's key is already computed when its caller's SCC is reached.
    for (si, scc) in cg.sccs.iter().enumerate() {
        let mut h = DigestHasher::new();
        h.str("scc");
        h.digest(env);
        h.len(scc.len());
        for &m in scc {
            h.digest(bodies[m.index()]);
        }
        for &m in scc {
            for &c in &cg.callees[m.index()] {
                if cg.scc_of[c.index()] != si {
                    h.digest(keys[c.index()]);
                }
            }
        }
        // Callee keys are whole words after the fixed-length bodies, so
        // their number needs no prefix of its own.
        let joint = h.finish();
        for (pos, &m) in scc.iter().enumerate() {
            let mut h = DigestHasher::new();
            h.str("unit");
            h.digest(joint);
            h.len(pos);
            keys[m.index()] = h.finish();
        }
    }
    UnitKeys { env, keys }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, FunctionId, Type};

    /// kernel(n) loops; wrapper calls kernel; free stands alone.
    fn module(kernel_bound: i64) -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(kernel_bound, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("wrapper", vec![("n".into(), Type::I64)], Type::Void);
        b.call(kernel, vec![b.param(0)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("free", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn keys(m: &Module) -> Vec<Digest> {
        unit_keys(m, &CallGraph::build(m)).keys
    }

    #[test]
    fn editing_a_callee_invalidates_its_callers_only() {
        let before = keys(&module(0));
        let after = keys(&module(1));
        assert_ne!(before[0], after[0], "edited kernel must re-key");
        assert_ne!(before[1], after[1], "caller of edited kernel must re-key");
        assert_eq!(before[2], after[2], "unrelated function keeps its key");
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let a = keys(&module(0));
        let b = keys(&module(0));
        assert_eq!(a, b);
        assert_eq!(a.iter().collect::<std::collections::HashSet<_>>().len(), 3);
    }

    /// A function added at the end changes only the symbol environment
    /// for the three functions already there, and re-keys all of them.
    #[test]
    fn environment_change_invalidates_everything() {
        let before = keys(&module(0));
        let mut m = module(0);
        let mut b = FunctionBuilder::new("extra", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let after = keys(&m);
        for i in 0..3 {
            assert_ne!(before[i], after[i]);
        }
    }

    #[test]
    fn scc_members_share_fate() {
        // mutually recursive pair: ping <-> pong
        let mk = |ret_const: i64| {
            let mut m = Module::new("m");
            let pong_id = FunctionId(1);
            let mut b = FunctionBuilder::new("ping", vec![("n".into(), Type::I64)], Type::Void);
            b.call(pong_id, vec![b.param(0)], Type::Void);
            b.ret(None);
            let ping = m.add_function(b.finish());
            let mut b = FunctionBuilder::new("pong", vec![("n".into(), Type::I64)], Type::Void);
            let v = b.add(b.param(0), ret_const);
            b.call(ping, vec![v], Type::Void);
            b.ret(None);
            m.add_function(b.finish());
            m
        };
        let before = keys(&mk(1));
        let after = keys(&mk(2));
        // Editing pong must re-key ping too (same SCC).
        assert_ne!(before[0], after[0]);
        assert_ne!(before[1], after[1]);
        // And within one module the two members still have distinct keys.
        assert_ne!(before[0], before[1]);
    }
}
