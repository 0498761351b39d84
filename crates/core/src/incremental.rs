//! The unit memo sessions share ([`crate::SessionBuilder::units`]): a
//! content-addressed per-function store that makes re-analyzing an
//! *edited* module cheap.
//!
//! The static stage has one entry point, [`pt_taint::PreparedModule::build`]:
//! it walks the call graph bottom-up and produces one
//! [`pt_taint::unit::FunctionUnit`] (loop facts plus optimized bytecode)
//! per function. Each unit is a pure function of a content key
//! ([`pt_analysis::unitkey`]): the structural digest of the function's
//! body ([`pt_ir::fingerprint`]), its strongly connected component, its
//! out-of-component callees' keys and the module symbol environment. No
//! unit reads the taint policy, so no key names one: sessions under every
//! policy share one memo's units.
//!
//! [`FunctionArtifactCache`] is the memo `build` consults. It keeps
//! one unit per key in memory, so re-analyzing a module after editing one
//! function recomputes exactly that function, its SCC co-members, and its
//! transitive callers; everything else comes from the memo, shared by
//! `Arc` with every stage that already holds it rather than copied. The §5.1
//! classification is not memoized: [`crate::Session::static_analysis`]
//! recomputes it from the assembled loop facts every time, which costs a
//! fraction of the stage. The tests below check that a memoized stage
//! equals a memo-less one.
//!
//! The memo lives only as long as its process. Units are not persisted:
//! recomputing a whole module's units from IR is cheaper than parsing them
//! back from a serialized form, so a restarted process simply recomputes.
//!
//! [`ReuseStats`] is the accounting that proves it: every
//! [`crate::StaticArtifacts`] reports how many units were reused from
//! memory or recomputed.

use pt_ir::fingerprint::Digest;
use pt_taint::unit::{FunctionUnit, UnitMemo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a static stage was obtained, unit by unit: the reuse ledger every
/// [`crate::StaticArtifacts`] carries. `total` counts the module's
/// functions; the two buckets partition it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    pub total: usize,
    /// Units served from the in-process memo.
    pub reused_memory: usize,
    /// Units computed from scratch this time.
    pub recomputed: usize,
}

/// The content-addressed per-function unit memo. Long-running services
/// share one across all submissions, so an edited module reuses every
/// untouched function's unit no matter which session computed it first.
#[derive(Default)]
pub struct FunctionArtifactCache {
    units: Mutex<HashMap<Digest, Arc<FunctionUnit>>>,
    // Cumulative process-lifetime counters (served via `pt-serve` stats).
    total: AtomicU64,
    reused_memory: AtomicU64,
    recomputed: AtomicU64,
}

impl FunctionArtifactCache {
    pub fn new() -> FunctionArtifactCache {
        FunctionArtifactCache::default()
    }

    /// Cumulative reuse accounting over every lookup this memo served.
    pub fn cumulative(&self) -> ReuseStats {
        ReuseStats {
            total: self.total.load(Ordering::Relaxed) as usize,
            reused_memory: self.reused_memory.load(Ordering::Relaxed) as usize,
            recomputed: self.recomputed.load(Ordering::Relaxed) as usize,
        }
    }
}

impl UnitMemo for FunctionArtifactCache {
    fn get(&self, key: Digest) -> Option<Arc<FunctionUnit>> {
        let hit = self.units.lock().unwrap().get(&key).cloned();
        self.total.fetch_add(1, Ordering::Relaxed);
        let bucket = if hit.is_some() {
            &self.reused_memory
        } else {
            &self.recomputed
        };
        bucket.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn put(&self, key: Digest, unit: Arc<FunctionUnit>) {
        self.units.lock().unwrap().insert(key, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionBuilder, StaticArtifacts};
    use pt_ir::{FunctionBuilder, FunctionId, Module, Type, Value as IrValue};
    use pt_taint::policy::PolicyKind;
    use pt_taint::InterpConfig;

    /// leaf (inlinable) ← kernel (parametric loop) ← main; ping ↔ pong
    /// mutual recursion; `konst` parameterizes the leaf body so tests can
    /// "edit" one function.
    fn app(konst: i64) -> Module {
        let mut m = Module::new("app");
        let mut b = FunctionBuilder::new("leaf", vec![("x".into(), Type::I64)], Type::I64);
        let v = b.add(b.param(0), konst);
        b.ret(Some(v));
        let leaf = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("kernel", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
            b.call_external("pt_work_flops", vec![IrValue::int(2)], Type::Void);
            b.call(leaf, vec![iv], Type::I64);
        });
        b.ret(None);
        let kernel = m.add_function(b.finish());
        let pong_id = FunctionId(3);
        let mut b = FunctionBuilder::new("ping", vec![("n".into(), Type::I64)], Type::Void);
        b.call(pong_id, vec![b.param(0)], Type::Void);
        b.ret(None);
        let ping = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("pong", vec![("n".into(), Type::I64)], Type::Void);
        b.call(ping, vec![b.param(0)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
        b.call(kernel, vec![n], Type::Void);
        b.call(ping, vec![n], Type::Void);
        b.call_external("MPI_Barrier", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    /// The static stage of `m` under `config`, run against `cache` (or
    /// with no memo at all).
    fn stage(
        m: &Module,
        config: &InterpConfig,
        cache: Option<&Arc<FunctionArtifactCache>>,
    ) -> Arc<StaticArtifacts> {
        let mut builder = SessionBuilder::new(m, "main").interp(config.clone());
        if let Some(cache) = cache {
            builder = builder.units(cache.clone());
        }
        builder.build().static_analysis()
    }

    fn config(policy: PolicyKind) -> InterpConfig {
        InterpConfig {
            taint: Some(policy),
            ..InterpConfig::default()
        }
    }

    /// A memoized stage must equal the memo-less stage, byte for byte.
    fn assert_statics_identical(warm: &StaticArtifacts, module: &Module, config: &InterpConfig) {
        let cold = stage(module, config, None);
        assert_eq!(
            format!("{:?}", warm.classification),
            format!("{:?}", cold.classification),
            "classification must be bit-identical to a memo-less run"
        );
        assert_eq!(warm.prepared.pass_stats, cold.prepared.pass_stats);
        assert_eq!(
            format!("{:?}", warm.prepared.decoded.functions),
            format!("{:?}", cold.prepared.decoded.functions),
            "decoded bytecode must be bit-identical to a memo-less run"
        );
    }

    #[test]
    fn editing_one_function_recomputes_only_its_cone() {
        let cache = Arc::new(FunctionArtifactCache::new());
        let cfg = config(PolicyKind::default());
        let before = app(3);
        let first = stage(&before, &cfg, Some(&cache));
        assert_eq!(first.reuse.recomputed, 5);
        assert_statics_identical(&first, &before, &cfg);

        // Resubmit unchanged: everything comes from memory.
        let again = stage(&before, &cfg, Some(&cache));
        assert_eq!(again.reuse.reused_memory, 5);
        assert_eq!(again.reuse.recomputed, 0);
        assert_statics_identical(&again, &before, &cfg);

        // Edit the leaf: leaf + kernel + main recompute; ping/pong reuse.
        let edited = app(4);
        let warm = stage(&edited, &cfg, Some(&cache));
        assert_eq!(warm.reuse.recomputed, 3, "leaf, kernel, main");
        assert_eq!(warm.reuse.reused_memory, 2, "ping and pong");
        assert_statics_identical(&warm, &edited, &cfg);
        assert_eq!(cache.cumulative().total, 15);
    }

    /// The static stage reads no taint policy, so a session under another
    /// policy is served every unit from the memo, and its stage equals a
    /// memo-less one under that policy.
    #[test]
    fn policy_change_reuses_every_unit() {
        let cache = Arc::new(FunctionArtifactCache::new());
        let m = app(3);
        let cold = stage(&m, &config(PolicyKind::ParamSet), Some(&cache));
        assert_eq!(cold.reuse.recomputed, 5);
        let security = config(PolicyKind::Security);
        let other = stage(&m, &security, Some(&cache));
        assert_eq!(other.reuse.reused_memory, 5, "no unit key names the policy");
        assert_eq!(other.reuse.recomputed, 0);
        assert_statics_identical(&other, &m, &security);
        let mut measure = config(PolicyKind::ParamSet);
        measure.taint = None;
        let warm = stage(&m, &measure, Some(&cache));
        assert_eq!(warm.reuse.reused_memory, 5, "measurement mode too");
        assert_eq!(cache.cumulative().recomputed, 5);
    }
}
