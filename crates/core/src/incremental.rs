//! The incremental static stage: a content-addressed per-function artifact
//! cache making repeated analysis of *edited* modules near-constant-time.
//!
//! [`crate::Session::static_analysis`] normally runs the whole §5.1 static
//! stage — classification, loop facts, decode, the pass pipeline — module
//! at a time. All of that decomposes per function
//! ([`pt_taint::unit::compute_unit`] packages the per-function slice, and
//! [`pt_analysis::classify::classify_function_local`] /
//! [`pt_analysis::classify::resolve_class`] split the classification the
//! same way), and every per-function result is a pure function of a
//! content key ([`pt_analysis::unitkey`]): the function's printed body,
//! its strongly connected component, its out-of-component callees'
//! keys, the module symbol environment, and the configuration salt.
//!
//! [`FunctionArtifactCache`] exploits that: it memoizes one
//! [`FunctionArtifact`] per key in memory, so re-analyzing a module after
//! editing one function recomputes exactly that function, its SCC
//! co-members, and its transitive callers. Everything else is assembled
//! from the cache, *bit-identically* to a cold recompute (the differential
//! tests below and the `incremental_static_stage` integration suite assert
//! this).
//!
//! The cache lives only as long as its process. Units are not persisted:
//! recomputing a whole module's units from IR is cheaper than parsing them
//! back from a serialized form, so a restarted process simply recomputes.
//!
//! [`ReuseStats`] is the accounting that proves it: every
//! [`crate::StaticArtifacts`] reports how many units were reused from
//! memory or recomputed.

use crate::session::StaticArtifacts;
use pt_analysis::classify::{
    classify_function_local, resolve_class, FunctionClass, LoopStats, StaticClassification,
};
use pt_analysis::unitkey::unit_keys;
use pt_analysis::CallGraph;
use pt_ir::fingerprint::digest_parts;
use pt_ir::Module;
use pt_taint::decode::passes::InlineSpec;
use pt_taint::decode::DecodeEnv;
use pt_taint::policy::PolicyKind;
use pt_taint::unit::{assemble, compute_unit, FunctionUnit};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a static stage was obtained, unit by unit: the reuse ledger every
/// [`StaticArtifacts`] carries. `total` counts the module's functions;
/// the two buckets partition it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    pub total: usize,
    /// Units served from the in-process artifact cache.
    pub reused_memory: usize,
    /// Units computed from scratch this time.
    pub recomputed: usize,
}

impl ReuseStats {
    /// The ledger of a plain (non-incremental) static stage.
    pub fn all_recomputed(total: usize) -> ReuseStats {
        ReuseStats {
            total,
            recomputed: total,
            ..ReuseStats::default()
        }
    }
}

/// Everything the static stage produces for one function: the
/// decode-stage unit plus this function's slice of the §5.1
/// classification. A cached artifact is valid exactly as long as its
/// content key is — see [`pt_analysis::unitkey`] for what the key closes
/// over.
#[derive(Debug, Clone)]
pub struct FunctionArtifact {
    pub unit: FunctionUnit,
    pub class: FunctionClass,
    pub loop_stats: LoopStats,
    /// Participates in recursion (feeds the module's recursion warnings).
    pub recursive: bool,
    /// Contains irreducible control flow (feeds the module's warnings).
    pub irreducible: bool,
}

/// The content-addressed per-function artifact cache. One of these lives
/// in every [`crate::SessionCache`]; long-running services share one
/// across all submissions, so an edited module reuses every untouched
/// function's artifact no matter which session computed it first.
#[derive(Default)]
pub struct FunctionArtifactCache {
    mem: Mutex<HashMap<String, Arc<FunctionArtifact>>>,
    // Cumulative process-lifetime counters (served via `pt-serve` stats).
    total: AtomicU64,
    reused_memory: AtomicU64,
    recomputed: AtomicU64,
}

impl FunctionArtifactCache {
    pub fn new() -> FunctionArtifactCache {
        FunctionArtifactCache::default()
    }

    /// Cumulative reuse accounting over every `compute` this cache served.
    pub fn cumulative(&self) -> ReuseStats {
        ReuseStats {
            total: self.total.load(Ordering::Relaxed) as usize,
            reused_memory: self.reused_memory.load(Ordering::Relaxed) as usize,
            recomputed: self.recomputed.load(Ordering::Relaxed) as usize,
        }
    }

    /// Run the static stage for `module` against the cache: bottom-up over
    /// the call graph, each function's artifact is taken from memory or
    /// recomputed — then the whole is assembled bit-identically
    /// to a cold [`pt_taint::PreparedModule::compute`] +
    /// [`pt_analysis::classify::classify_module`].
    ///
    /// `policy` is the taint policy the session will run under; it salts
    /// every artifact key (two policies must never share cached units —
    /// the decoded program is policy-independent today, but the key
    /// contract is "everything the result could depend on").
    pub fn compute(
        &self,
        module: &Module,
        relevant: &HashSet<String>,
        policy: PolicyKind,
    ) -> StaticArtifacts {
        let _span = pt_util::trace::span("taint", "decode");
        let t0 = std::time::Instant::now();
        let cg = CallGraph::build(module);
        let keys = unit_keys(module, &cg, &config_salt(relevant, policy));
        let env = DecodeEnv::of(module);
        let n = module.functions.len();

        let mut artifacts: Vec<Option<Arc<FunctionArtifact>>> = vec![None; n];
        let mut reuse = ReuseStats {
            total: n,
            ..ReuseStats::default()
        };
        // Bottom-up: callees before callers, so recomputation always has
        // resolved callee classes and inline specs at hand — and cache hits
        // observe the same order, keeping classification bit-identical.
        for fid in cg.bottom_up_order() {
            let key = &keys.keys[fid.index()];
            let memory_hit = self.mem.lock().unwrap().get(key).cloned();
            let artifact = if let Some(hit) = memory_hit {
                reuse.reused_memory += 1;
                pt_util::trace::event_with("unit", || {
                    format!("hit_memory:{}", module.function(fid).name)
                });
                hit
            } else {
                reuse.recomputed += 1;
                let _unit_span = pt_util::trace::span_with("unit", || {
                    format!("compute:{}", module.function(fid).name)
                });
                let specs: Vec<Option<&InlineSpec>> = artifacts
                    .iter()
                    .map(|a| a.as_ref().and_then(|a| a.unit.inline_spec.as_ref()))
                    .collect();
                let unit = compute_unit(module, fid, &env, &specs);
                // The per-function slice of the §5.1 classification: same
                // "classify" label as the module-wide `classify_module`,
                // so traces show the classify stage under either
                // static-stage path.
                let classify_span = pt_util::trace::span("analysis", "classify");
                let local = classify_function_local(
                    module.function(fid),
                    &unit.prepared.forest,
                    &unit.prepared.trip_counts,
                    cg.is_recursive(fid),
                    relevant,
                );
                // Resolved non-self callees in call-site order — exactly
                // the visibility `classify_module`'s bottom-up pass has
                // (in-SCC members later in the order are still `None`).
                let resolved: Vec<(&str, bool)> = cg.callees[fid.index()]
                    .iter()
                    .filter(|&&callee| callee != fid)
                    .filter_map(|&callee| {
                        artifacts[callee.index()].as_ref().map(|a| {
                            (
                                module.function(callee).name.as_str(),
                                matches!(a.class, FunctionClass::PotentiallyParametric(_)),
                            )
                        })
                    })
                    .collect();
                let class = resolve_class(&local.reasons, resolved.into_iter());
                drop(classify_span);
                let artifact = Arc::new(FunctionArtifact {
                    recursive: local.recursive(),
                    irreducible: local.irreducible(),
                    loop_stats: local.loop_stats,
                    class,
                    unit,
                });
                self.mem
                    .lock()
                    .unwrap()
                    .insert(key.clone(), artifact.clone());
                artifact
            };
            artifacts[fid.index()] = Some(artifact);
        }

        self.total.fetch_add(reuse.total as u64, Ordering::Relaxed);
        self.reused_memory
            .fetch_add(reuse.reused_memory as u64, Ordering::Relaxed);
        self.recomputed
            .fetch_add(reuse.recomputed as u64, Ordering::Relaxed);

        let artifacts: Vec<Arc<FunctionArtifact>> =
            artifacts.into_iter().map(|a| a.unwrap()).collect();
        let units: Vec<&FunctionUnit> = artifacts.iter().map(|a| &a.unit).collect();
        let prepared = assemble(&env, &units, t0.elapsed().as_secs_f64());

        let mut recursion_warnings = Vec::new();
        let mut irreducible_warnings = Vec::new();
        for fid in module.function_ids() {
            let a = &artifacts[fid.index()];
            if a.irreducible {
                irreducible_warnings.push(fid);
            }
            if a.recursive {
                recursion_warnings.push(fid);
            }
        }
        let classification = StaticClassification {
            classes: artifacts.iter().map(|a| a.class.clone()).collect(),
            loop_stats: artifacts.iter().map(|a| a.loop_stats).collect(),
            recursion_warnings,
            irreducible_warnings,
        };

        StaticArtifacts {
            classification,
            prepared,
            reuse,
        }
    }
}

/// The configuration salt folded into every artifact key: the
/// taint-policy identity and the relevant-externals set, sorted (the only
/// configuration the static stage reads).
fn config_salt(relevant: &HashSet<String>, policy: PolicyKind) -> String {
    let mut names: Vec<&str> = relevant.iter().map(String::as_str).collect();
    names.sort_unstable();
    let mut parts: Vec<&str> = vec!["statics-config", policy.name()];
    parts.extend(names);
    digest_parts(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_analysis::classify::classify_module;
    use pt_ir::{FunctionBuilder, FunctionId, Type, Value as IrValue};
    use pt_taint::prepared::PreparedModule;

    fn relevant() -> HashSet<String> {
        [
            "MPI_Allreduce",
            "MPI_Barrier",
            "pt_work_flops",
            "pt_work_mem",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

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

    fn assert_statics_identical(warm: &StaticArtifacts, module: &Module) {
        let cold_class = classify_module(module, &relevant());
        let cold_prep = PreparedModule::compute(module);
        assert_eq!(
            format!("{:?}", warm.classification),
            format!("{cold_class:?}"),
            "classification must be bit-identical to a cold run"
        );
        assert_eq!(warm.prepared.pass_stats, cold_prep.pass_stats);
        assert_eq!(
            format!("{:?}", warm.prepared.decoded.functions),
            format!("{:?}", cold_prep.decoded.functions),
            "decoded bytecode must be bit-identical to a cold run"
        );
    }

    #[test]
    fn cold_compute_matches_plain_static_stage() {
        let m = app(3);
        let cache = FunctionArtifactCache::new();
        let warm = cache.compute(&m, &relevant(), PolicyKind::default());
        assert_eq!(warm.reuse, ReuseStats::all_recomputed(5));
        assert_statics_identical(&warm, &m);
    }

    #[test]
    fn editing_one_function_recomputes_only_its_cone() {
        let cache = FunctionArtifactCache::new();
        let before = app(3);
        let first = cache.compute(&before, &relevant(), PolicyKind::default());
        assert_eq!(first.reuse.recomputed, 5);

        // Resubmit unchanged: everything comes from memory.
        let again = cache.compute(&before, &relevant(), PolicyKind::default());
        assert_eq!(again.reuse.reused_memory, 5);
        assert_eq!(again.reuse.recomputed, 0);
        assert_statics_identical(&again, &before);

        // Edit the leaf: leaf + kernel + main recompute; ping/pong reuse.
        let edited = app(4);
        let warm = cache.compute(&edited, &relevant(), PolicyKind::default());
        assert_eq!(warm.reuse.recomputed, 3, "leaf, kernel, main");
        assert_eq!(warm.reuse.reused_memory, 2, "ping and pong");
        assert_statics_identical(&warm, &edited);
        assert_eq!(cache.cumulative().total, 15);
    }

    #[test]
    fn config_change_invalidates_everything() {
        let cache = FunctionArtifactCache::new();
        let m = app(3);
        cache.compute(&m, &relevant(), PolicyKind::default());
        let fewer: HashSet<String> = ["MPI_Barrier"].iter().map(|s| s.to_string()).collect();
        let warm = cache.compute(&m, &fewer, PolicyKind::default());
        assert_eq!(warm.reuse.recomputed, 5, "salt covers the relevant set");
    }

    #[test]
    fn policy_change_invalidates_everything() {
        let cache = FunctionArtifactCache::new();
        let m = app(3);
        let cold = cache.compute(&m, &relevant(), PolicyKind::ParamSet);
        assert_eq!(cold.reuse.recomputed, 5);
        let other = cache.compute(&m, &relevant(), PolicyKind::Security);
        assert_eq!(other.reuse.recomputed, 5, "salt covers the taint policy");
        // Artifacts under either policy stay cached independently.
        let warm = cache.compute(&m, &relevant(), PolicyKind::ParamSet);
        assert_eq!(warm.reuse.reused_memory, 5);
    }
}
