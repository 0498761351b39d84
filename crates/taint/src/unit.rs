//! The static stage, one per-function unit at a time, bottom-up.
//!
//! Every piece of the static stage decomposes per function:
//!
//! * [`PreparedFunction::compute`] is purely function-local (it shares the
//!   function's dominator tree with the SSA check);
//! * decoding needs only the module *symbol environment*
//!   ([`DecodeEnv`]: function-name table, external table, prim table),
//!   never another function's body;
//! * of the passes, fusion is function-local, and leaf-call inlining
//!   needs exactly the direct callees' [`InlineSpec`]s — captured after
//!   fusion, and `None` for any function whose body contains calls (so
//!   members of a call-graph cycle never have one).
//!
//! [`PreparedModule::build`] therefore walks the call graph bottom-up
//! (callees before callers, so every spec a caller inlines is final) and
//! produces one [`FunctionUnit`] per function. With a [`UnitMemo`] it
//! looks each unit up by its content key ([`pt_analysis::unitkey`]) and
//! computes only the misses; that is what makes an edited module cheap to
//! re-analyze. Without one it computes no keys. Either way the result
//! holds each unit's facts and bytecode by `Arc`, so a memo hit costs a
//! lookup and a pointer copy, never a deep clone.
//! [`PreparedModule::compute`] is the memo-less call.

use crate::decode::passes::{fuse, inline_calls_in, inline_spec_of, InlineSpec, PassStats};
use crate::decode::{decode_function, DecodeEnv, DecodedFunction, DecodedModule};
use crate::prepared::{PreparedFunction, PreparedModule};
use pt_analysis::dom::DomTree;
use pt_analysis::ssa_verify::verify_ssa;
use pt_analysis::unitkey::unit_keys;
use pt_analysis::CallGraph;
use pt_ir::fingerprint::Digest;
use pt_ir::{Function, Module};
use std::sync::Arc;

/// Everything the static stage produces for one function: the prepared
/// facts, the fully optimized bytecode, the inline spec callers need, and
/// the per-function slice of the pass statistics. The facts and the
/// bytecode sit behind `Arc`s so every [`PreparedModule`] assembled from a
/// memoized unit shares them instead of copying them.
#[derive(Debug)]
pub struct FunctionUnit {
    pub prepared: Arc<PreparedFunction>,
    /// Decoded, fused and (callee-)inlined bytecode.
    pub decoded: Arc<DecodedFunction>,
    /// This function's own spec, for *its* callers — captured after fusion
    /// and before inlining into it.
    pub inline_spec: Option<Arc<InlineSpec>>,
    /// Per-function pass statistics; a module's [`PassStats`] is their
    /// field-wise sum.
    pub stats: PassStats,
}

/// A content-addressed store of finished units that
/// [`PreparedModule::build`] consults before computing one. A unit is
/// valid exactly as long as its key is; see [`pt_analysis::unitkey`] for
/// what a key closes over.
pub trait UnitMemo {
    /// The unit stored under `key`, if any.
    fn get(&self, key: Digest) -> Option<Arc<FunctionUnit>>;
    /// Keep a freshly computed unit under `key`.
    fn put(&self, key: Digest, unit: Arc<FunctionUnit>);
}

/// Run the static stage for one function. `specs[i]` holds function `i`'s
/// [`InlineSpec`] once its unit is finished (bottom-up order finishes all
/// out-of-SCC callees first; in-SCC callees may still be `None`, but their
/// bodies contain calls, so they never have a spec anyway).
fn compute_unit(
    func: &Function,
    env: &DecodeEnv,
    specs: &[Option<Arc<InlineSpec>>],
) -> FunctionUnit {
    let dominators = DomTree::dominators(func);
    let prepared = PreparedFunction::compute(func, &dominators);
    let mut decoded = decode_function(func, &prepared, env);
    decoded.ssa_clean = verify_ssa(func, &dominators).is_ok();

    let _passes_span = pt_util::trace::span("taint", "passes");
    let mut stats = PassStats::default();
    (stats.fused_cmp_br, stats.fused_loads, stats.fused_stores) = fuse(&mut decoded);
    let inline_spec = inline_spec_of(&decoded).map(Arc::new);
    stats.inlined_calls = inline_calls_in(&mut decoded, specs);

    FunctionUnit {
        prepared: Arc::new(prepared),
        decoded: Arc::new(decoded),
        inline_spec,
        stats,
    }
}

impl PreparedModule {
    /// Run the static stage for `module`, one [`FunctionUnit`] per
    /// function, bottom-up over the call graph.
    ///
    /// With a unit store `memo`, each unit is looked up by its key and
    /// only misses are computed (and stored); without one, no key is
    /// computed.
    /// Returns the module and how many of its units came from the memo.
    pub fn build(module: &Module, memo: Option<&dyn UnitMemo>) -> (PreparedModule, usize) {
        let env = DecodeEnv::of(module);
        let cg = CallGraph::build(module);
        let memo = memo.map(|store| (store, unit_keys(module, &cg).keys));
        let n = module.functions.len();
        let mut units: Vec<Option<Arc<FunctionUnit>>> = vec![None; n];
        let mut specs: Vec<Option<Arc<InlineSpec>>> = vec![None; n];
        let mut hits = 0;
        for fid in cg.bottom_up_order() {
            let func = module.function(fid);
            let hit = memo
                .as_ref()
                .and_then(|(store, keys)| store.get(keys[fid.index()]));
            let unit = if let Some(unit) = hit {
                hits += 1;
                pt_util::trace::event_with("unit", || format!("hit_memory:{}", func.name));
                unit
            } else {
                let _span = pt_util::trace::span_with("unit", || format!("compute:{}", func.name));
                let unit = Arc::new(compute_unit(func, &env, &specs));
                if let Some((store, keys)) = &memo {
                    store.put(keys[fid.index()], unit.clone());
                }
                unit
            };
            specs[fid.index()] = unit.inline_spec.clone();
            units[fid.index()] = Some(unit);
        }

        let mut functions = Vec::with_capacity(n);
        let mut decoded = Vec::with_capacity(n);
        let mut pass_stats = PassStats::default();
        for unit in units {
            let unit = unit.expect("bottom-up order visits every function");
            pass_stats += unit.stats;
            functions.push(unit.prepared.clone());
            decoded.push(unit.decoded.clone());
        }
        let prepared = PreparedModule {
            functions,
            decoded: DecodedModule {
                functions: decoded,
                extern_names: env.extern_names,
                host_prim_names: env.host_prim_names,
            },
            pass_stats,
        };
        (prepared, hits)
    }
}
