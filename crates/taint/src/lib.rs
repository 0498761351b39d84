//! # pt-taint — dynamic taint analysis for performance modeling
//!
//! The dynamic half of Perf-Taint (PPoPP'21, §3–§5): a DataFlowSanitizer-
//! style taint runtime driving an interpreter over [`pt_ir`] programs.
//!
//! * [`label`] — 16-bit taint labels organized as a deduplicated union tree
//!   (the DFSan design described in §5.2), with memoized parameter sets.
//! * [`memory`] — word-granular memory with a 1:1 shadow label per word.
//! * [`path`] — calling-context interning (context-aware records, §5.2).
//! * [`prepared`] — precomputed per-function facts (loops, postdominators,
//!   back edges, trip counts) plus the decoded program.
//! * [`mod@unit`] — the static stage's one entry point,
//!   [`PreparedModule::build`]: one unit (facts plus optimized bytecode)
//!   per function, bottom-up over the call graph, with an optional
//!   content-keyed memo.
//! * [`decode`] — the decode stage: each function compiled once into a
//!   flat bytecode (pre-resolved operands, folded types, pre-bound
//!   callees, per-edge phi move lists, inlined branch metadata), then
//!   rewritten by the [`decode::passes`] pipeline (superinstruction
//!   fusion of `cmp+condbr` and `gep+load`/`gep+store`, then leaf-call
//!   inlining).
//! * [`ops`] — scalar semantics shared by both engines (shift behavior),
//!   defined once so the engines cannot diverge on them.
//! * [`host`] — the external-call interface; `pt-mpisim` plugs in here with
//!   the MPI library database of §5.3.
//! * [`interp`] — the execution engine: a dense dispatch loop over the
//!   decoded bytecode implementing data-flow propagation, the control-flow
//!   tainting extension, loop-exit sinks, branch coverage, simulated-time
//!   accounting, and call-path profiling.
//! * [`reference`](mod@reference) — the legacy tree-walking interpreter, kept as the
//!   reference implementation for differential testing.
//! * [`differential`] — the bit-identity contract between the two engines
//!   and the comparison helpers that enforce it.
//! * [`records`] / [`profile`] — run artifacts consumed by the `perf-taint`
//!   pipeline and by `pt-measure`.
//!
//! See `crates/taint/README.md` for the decode pipeline and bytecode
//! layout.
//!
//! ## Example
//!
//! ```
//! use pt_ir::{FunctionBuilder, Module, Type, Value};
//! use pt_taint::prepared::PreparedModule;
//! use pt_taint::interp::{Interpreter, InterpConfig};
//! use pt_taint::host::WorkOnlyHandler;
//!
//! // for (i = 0; i < n; i++) work(1);   -- n is the marked parameter
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Type::Void);
//! let n = b.call_external("pt_param_i64", vec![Value::int(0)], Type::I64);
//! b.for_loop(0i64, n, 1i64, |b, _| {
//!     b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
//! });
//! b.ret(None);
//! m.add_function(b.finish());
//!
//! let prepared = PreparedModule::compute(&m);
//! let interp = Interpreter::new(
//!     &m, &prepared, WorkOnlyHandler::default(),
//!     vec![("n".into(), 10)], InterpConfig::default(),
//! );
//! let out = interp.run_named("main", &[]).unwrap();
//! // The loop's exit condition was tainted by parameter 0 ("n") and the
//! // loop iterated 10 times.
//! let loops = out.records.loops_by_function();
//! let rec = loops.values().next().unwrap();
//! assert!(rec.params.contains(0));
//! assert_eq!(rec.iterations, 10);
//! ```

pub mod decode;
pub mod differential;
pub mod host;
pub mod interp;
pub mod label;
pub mod memory;
pub mod ops;
pub mod path;
pub mod policy;
pub mod prepared;
pub mod profile;
pub mod records;
pub mod reference;
pub mod unit;

pub use decode::passes::PassStats;
pub use decode::{DecodedFunction, DecodedModule};
pub use host::{work_cost, ExternResult, ExternalHandler, HostCtx, NullHandler, WorkOnlyHandler};
pub use interp::{
    CtlFlowPolicy, InterpConfig, InterpError, Interpreter, RunOutput, INST_COST, MAX_CALL_DEPTH,
};
pub use label::{Label, LabelTable, ParamSet};
pub use memory::{MemError, Memory, TVal};
pub use path::{CallPathTable, PathId};
pub use policy::{Measure, ParamPolicy, PolicyKind, PolicyMode, SecurityPolicy};
pub use prepared::{PreparedFunction, PreparedModule};
pub use profile::{Profile, ProfileEntry};
pub use records::{BranchRecord, LoopKey, LoopRecord, SinkRecord, TaintRecords};
pub use reference::ReferenceInterpreter;
