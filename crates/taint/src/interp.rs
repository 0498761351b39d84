//! The taint-propagating IR interpreter — a decode-once execution engine.
//!
//! This is the dynamic half of Perf-Taint (§5.2): where the original
//! instruments LLVM IR with DataFlowSanitizer and runs the native binary, we
//! interpret `pt-ir` and apply the same propagation rules per instruction:
//!
//! * **data flow** — every instruction result's label is the union of its
//!   operands' labels; loads union in the pointer's label (DFSan's
//!   `combine-pointer-labels-on-load`, on by default);
//! * **control flow** — the paper's DataFlowSanitizer extension: when a
//!   branch condition is tainted, a control scope is pushed that lasts until
//!   the branch block's immediate postdominator; values produced (policy
//!   [`CtlFlowPolicy::All`]) or stored (policy [`CtlFlowPolicy::StoresOnly`])
//!   inside the scope are joined with the scope's label. This captures the
//!   LULESH `regElemSize` histogram dependence shown in §5.2;
//! * **sinks** — every loop-exit branch condition (§4.1); records accumulate
//!   per *calling context*, so the modeler can build context-aware models;
//! * **sources** — the `pt_param_i64` / `pt_register_param` intrinsics (the
//!   paper's `register_variable`), plus whatever the external handler marks
//!   (the MPI library database writes the implicit parameter `p`).
//!
//! The interpreter simultaneously plays the role of the measurement
//! infrastructure: it maintains a simulated clock (per-instruction cost,
//! handler-returned costs for externals, per-function probe costs when
//! instrumented) and produces a call-path [`Profile`].
//!
//! ## Execution engine
//!
//! Unlike the original tree-walker (preserved as
//! [`crate::reference::ReferenceInterpreter`] for differential testing),
//! this engine never touches the [`pt_ir`] instruction tree at run time.
//! [`crate::prepared::PreparedModule`] carries a [`DecodedModule`] — a flat
//! bytecode with operands pre-resolved to register indices or inline
//! immediates, float-ness and result types folded into opcodes, callees
//! pre-bound, per-edge phi move lists, and loop/postdominator metadata
//! inlined into terminators (see [`crate::decode`]). The hot loop below is
//! a dense dispatch over that program, operating on a pooled flat register
//! file of [`TVal`]s, with consecutive back-edge bumps of the same loop
//! record buffered to avoid a map lookup per iteration. The contract with
//! the reference engine — bit-identical [`RunOutput`]s — is stated and
//! checked by [`crate::differential`].

use crate::decode::{DInst, DOp, DTerm, DecodedFunction, Edge, Intrinsic, Opnd};
use crate::host::{ExternalHandler, HostCtx};
use crate::label::{Label, LabelTable, ParamSet};
use crate::memory::{MemError, Memory, TVal};
use crate::path::PathId;
use crate::policy::{Measure, ParamPolicy, PolicyKind, PolicyMode, SecurityPolicy};
use crate::prepared::PreparedModule;
use crate::profile::Profile;
use crate::records::{LoopKey, TaintRecords};
use pt_ir::{BinOp, BlockId, FunctionId, Module};

/// How control-flow taint is applied (ablation knob; the paper's extension
/// corresponds to `All`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CtlFlowPolicy {
    /// Pure data-flow DFSan: no control scopes.
    Off,
    /// Join the scope label only into stored values.
    StoresOnly,
    /// Join the scope label into every value produced in the scope.
    #[default]
    All,
}

/// Interpreter configuration for one run.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    pub policy: CtlFlowPolicy,
    /// Simulated seconds per executed IR instruction.
    pub inst_cost: f64,
    /// Per-function probe cost in seconds (indexed by [`FunctionId`],
    /// including pseudo-ids for externals); empty slice = no instrumentation.
    pub probe_cost: Vec<f64>,
    /// Maximum number of instructions to execute.
    pub fuel: u64,
    /// Propagate taint and record sinks (the *taint run*). Measurement
    /// sweeps disable this for speed.
    pub taint: bool,
    /// Which label policy a taint run propagates ([`crate::policy`]);
    /// ignored when `taint` is false. Defaults read the `PT_POLICY`
    /// environment variable so the whole test matrix can run under the
    /// security policy with no call-site changes.
    pub taint_policy: PolicyKind,
    /// Record branch coverage and visited blocks.
    pub coverage: bool,
    /// DFSan's combine-pointer-labels-on-load (default true).
    pub combine_ptr_labels: bool,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            policy: CtlFlowPolicy::All,
            inst_cost: 1e-9,
            probe_cost: Vec::new(),
            fuel: u64::MAX,
            taint: true,
            taint_policy: PolicyKind::from_env(),
            coverage: true,
            combine_ptr_labels: true,
            max_depth: 256,
        }
    }
}

/// Failures during interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    Mem(MemError),
    DivisionByZero {
        func: String,
    },
    UnknownExternal(String),
    ExternalFailed {
        name: String,
        message: String,
    },
    OutOfFuel,
    CallDepthExceeded,
    Trap(String),
    UnknownFunction(String),
    /// A function was entered with fewer arguments than parameters. Both
    /// engines check at frame setup, so a missing argument is a defined
    /// error rather than a read of garbage (or a panic).
    ArityMismatch {
        func: String,
        expected: usize,
        got: usize,
    },
    /// The label table ran out of capacity: more than 64 base labels, or
    /// 2^16 union nodes. A defined error (never a panic across the wire);
    /// the message is deterministic so both engines report it identically.
    LabelCapacity(String),
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Mem(e) => write!(f, "memory error: {e}"),
            InterpError::DivisionByZero { func } => write!(f, "division by zero in {func}"),
            InterpError::UnknownExternal(n) => write!(f, "unknown external {n}"),
            InterpError::ExternalFailed { name, message } => {
                write!(f, "external {name} failed: {message}")
            }
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::CallDepthExceeded => write!(f, "call depth exceeded"),
            InterpError::Trap(m) => write!(f, "trap: {m}"),
            InterpError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            InterpError::ArityMismatch {
                func,
                expected,
                got,
            } => {
                write!(
                    f,
                    "call to {func} with {got} arguments, expected {expected}"
                )
            }
            InterpError::LabelCapacity(m) => write!(f, "label capacity: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<MemError> for InterpError {
    fn from(e: MemError) -> Self {
        InterpError::Mem(e)
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    pub ret: Option<TVal>,
    /// Final simulated clock (seconds).
    pub time: f64,
    /// Instructions executed.
    pub insts: u64,
    pub records: TaintRecords,
    pub profile: Profile,
    pub labels: LabelTable,
}

/// One pushed control-flow taint scope.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CtlScope {
    /// Scope closes when this block is entered (`None`: at function return).
    pub(crate) join: Option<BlockId>,
    /// Accumulated label (already unioned with the enclosing scope).
    pub(crate) label: Label,
}

/// The settings a straight-line run of instructions executes under: the
/// frame's configuration plus the control context, which is constant
/// between block entries (scopes only push at conditional branches and
/// pop at block entries).
#[derive(Clone, Copy)]
struct StepEnv {
    inst_cost: f64,
    /// DFSan's combine-pointer-labels-on-load, live in taint runs only.
    combine_ptr: bool,
    /// Stored values join the control context (`StoresOnly` and `All`).
    store_ctx: bool,
    /// Every result joins the control context (`All`, inside a scope).
    apply_all: bool,
    ctx: Label,
}

/// Slots in the direct-mapped call-path intern cache (power of two).
const PATH_CACHE_SLOTS: usize = 64;

/// Stack-buffer capacity for call arguments; larger arities (none exist in
/// the corpus) fall back to a heap vector.
const ARG_BUF: usize = 8;

/// Resolve a pre-decoded operand against the frame's register file.
#[inline(always)]
fn resolve(op: Opnd, regs: &[TVal]) -> TVal {
    match op {
        Opnd::Reg(r) => regs[r as usize],
        Opnd::Imm(bits) => TVal {
            bits,
            label: Label::EMPTY,
        },
    }
}

/// Resolve a decoded argument list into `$argv: &[TVal]` — a stack
/// buffer for the arities real call sites have, a heap vector beyond
/// [`ARG_BUF`]. A macro because the buffer must live in the match arm's
/// scope while several call kinds share the logic.
macro_rules! resolve_argv {
    ($args:expr, $regs:expr, $argv:ident) => {
        // Arity-specialized buffers: most host/work primitives take
        // 0–2 arguments, and fully initializing the 8-slot buffer
        // per call was a measurable memset on the hot path.
        let b1: [TVal; 1];
        let b2: [TVal; 2];
        let b8: [TVal; ARG_BUF];
        let big: Vec<TVal>;
        let $argv: &[TVal] = match $args.len() {
            0 => &[],
            1 => {
                b1 = [resolve($args[0], $regs)];
                &b1
            }
            2 => {
                b2 = [resolve($args[0], $regs), resolve($args[1], $regs)];
                &b2
            }
            n if n <= ARG_BUF => {
                b8 = std::array::from_fn(|i| {
                    if i < n {
                        resolve($args[i], $regs)
                    } else {
                        TVal::UNTAINTED_ZERO
                    }
                });
                &b8[..n]
            }
            _ => {
                big = $args.iter().map(|&a| resolve(a, $regs)).collect();
                &big
            }
        };
    };
}

/// The interpreter. Holds per-run mutable state; construct one per run.
pub struct Interpreter<'m, H: ExternalHandler> {
    module: &'m Module,
    prepared: &'m PreparedModule,
    handler: H,
    config: InterpConfig,
    params: Vec<(String, i64)>,
    labels: LabelTable,
    mem: Memory,
    records: TaintRecords,
    profile: Profile,
    clock: f64,
    insts: u64,
    depth: usize,
    /// Frame pools: returned register files / scope stacks / argument
    /// vectors are reused across calls so the many small accessor calls of
    /// real programs do not allocate per frame.
    reg_pool: Vec<Vec<TVal>>,
    ctl_pool: Vec<Vec<CtlScope>>,
    /// Staging buffer for phi parallel copies (read-all-then-write).
    phi_stage: Vec<(u32, TVal)>,
    /// Direct-mapped memo over `records.paths.intern` (pure memoization:
    /// the table's answer for a `(parent, callee)` pair never changes), so
    /// repeated calls to the same callee skip the hash lookup.
    path_cache: Vec<Option<(Option<PathId>, FunctionId, PathId)>>,
    /// Consecutive back-edge bumps of one loop record, buffered so the hot
    /// loop pays one map lookup per *run* of iterations, not per iteration.
    iter_buf: Option<(LoopKey, u64)>,
    /// Last sink update applied: loop-exit conditions re-union the same
    /// parameter set every iteration, and the union is idempotent — a
    /// repeat of the previous `(key, set)` pair can be skipped outright.
    sink_memo: Option<(LoopKey, ParamSet)>,
    /// Consecutive coverage updates of one tainted branch, buffered like
    /// `iter_buf` (a loop's exit branch is hit once per iteration).
    branch_buf: Option<((FunctionId, BlockId), crate::records::BranchRecord)>,
    /// Handler dispatch tokens for host primitives, indexed by
    /// [`crate::decode::DecodedModule::host_prim_names`] — resolved once
    /// per run so the hot path never string-matches a symbol.
    prim_tokens: Vec<Option<u32>>,
    /// Same, for library externals (indexed by extern index).
    lib_tokens: Vec<Option<u32>>,
    /// Last extern-argument record applied, keyed by `(caller, symbol)`
    /// (symbol = prim/extern index, kind-tagged in the low bit). Work
    /// calls inside loops re-union the same parameter set every
    /// iteration and the union is idempotent, so a repeat skips the
    /// string-keyed map entirely.
    extern_arg_memo: Option<((FunctionId, u32), ParamSet)>,
}

impl<'m, H: ExternalHandler> Interpreter<'m, H> {
    pub fn new(
        module: &'m Module,
        prepared: &'m PreparedModule,
        handler: H,
        params: Vec<(String, i64)>,
        config: InterpConfig,
    ) -> Self {
        let mut labels = LabelTable::new();
        // Pre-intern the marked parameters so parameter index == position.
        for (name, _) in &params {
            labels.base_label(name);
        }
        let nexterns = prepared.decoded.extern_names.len();
        let nfuncs = module.functions.len() + nexterns;
        let blocks_per_func: Vec<usize> = module
            .functions
            .iter()
            .map(|f| f.blocks.len())
            .chain(std::iter::repeat_n(0, nexterns))
            .collect();
        let prim_tokens = prepared
            .decoded
            .host_prim_names
            .iter()
            .map(|n| handler.resolve(n))
            .collect();
        let lib_tokens = prepared
            .decoded
            .extern_names
            .iter()
            .map(|n| handler.resolve(n))
            .collect();
        Interpreter {
            module,
            prepared,
            handler,
            config,
            params,
            labels,
            mem: Memory::new(),
            records: TaintRecords::new(nfuncs, &blocks_per_func),
            profile: Profile::new(),
            clock: 0.0,
            insts: 0,
            depth: 0,
            reg_pool: Vec::new(),
            ctl_pool: Vec::new(),
            phi_stage: Vec::new(),
            path_cache: vec![None; PATH_CACHE_SLOTS],
            iter_buf: None,
            sink_memo: None,
            branch_buf: None,
            prim_tokens,
            lib_tokens,
            extern_arg_memo: None,
        }
    }

    /// The pseudo [`FunctionId`] of external `name`, if it is called anywhere.
    pub fn extern_id(&self, name: &str) -> Option<FunctionId> {
        self.prepared
            .decoded
            .extern_names
            .iter()
            .position(|n| n == name)
            .map(|i| FunctionId((self.module.functions.len() + i) as u32))
    }

    /// Resolve a [`FunctionId`] (internal or pseudo-external) to its name.
    pub fn id_name(&self, id: FunctionId) -> String {
        let n = self.module.functions.len();
        if id.index() < n {
            self.module.function(id).name.clone()
        } else {
            self.prepared.decoded.extern_names[id.index() - n].clone()
        }
    }

    /// Run `entry` with the given (untainted) integer arguments.
    ///
    /// Dispatches to one of the policy-monomorphized engines: the paper's
    /// parameter-label policy, the security policy, or the measurement
    /// mode (`taint: false`) in which label propagation, shadow-label
    /// combining, control scopes, and record taint-merging compile out
    /// of the hot loop entirely ([`crate::policy`]).
    pub fn run(mut self, entry: FunctionId, args: &[i64]) -> Result<RunOutput, InterpError> {
        let argv: Vec<TVal> = args.iter().map(|&a| TVal::from_i64(a)).collect();
        let (ret, _incl) = match (self.config.taint, self.config.taint_policy) {
            (false, _) => self.exec_function::<Measure>(entry, &argv, None, Label::EMPTY)?,
            (true, PolicyKind::ParamSet) => {
                self.exec_function::<ParamPolicy>(entry, &argv, None, Label::EMPTY)?
            }
            (true, PolicyKind::Security) => {
                self.exec_function::<SecurityPolicy>(entry, &argv, None, Label::EMPTY)?
            }
        };
        self.flush_iterations();
        self.flush_branches();
        // Label-capacity overflow is a defined error, not a panic: base
        // labels introduced through infallible paths (host handlers, the
        // constructor's pre-intern) and exhausted union allocations latch
        // the table's capacity flag; both engines surface it identically.
        if let Some(msg) = self.labels.capacity_error() {
            return Err(InterpError::LabelCapacity(msg.to_string()));
        }
        Ok(RunOutput {
            ret,
            time: self.clock,
            insts: self.insts,
            records: self.records,
            profile: self.profile,
            labels: self.labels,
        })
    }

    /// Run the function named `entry`.
    pub fn run_named(self, entry: &str, args: &[i64]) -> Result<RunOutput, InterpError> {
        let fid = self
            .module
            .function_by_name(entry)
            .ok_or_else(|| InterpError::UnknownFunction(entry.to_string()))?;
        self.run(fid, args)
    }

    /// Label union, compiled out of the measurement-mode engine: with
    /// `P::TAINT == false` every call collapses to `Label::EMPTY` at
    /// monomorphization time and the label table is never touched.
    #[inline(always)]
    fn union_t<P: PolicyMode>(&mut self, a: Label, b: Label) -> Label {
        if !P::TAINT {
            return Label::EMPTY;
        }
        self.labels.union(a, b)
    }

    #[inline]
    fn bump_iterations(&mut self, key: LoopKey) {
        match &mut self.iter_buf {
            Some((k, n)) if *k == key => *n += 1,
            _ => {
                self.flush_iterations();
                self.iter_buf = Some((key, 1));
            }
        }
    }

    fn flush_iterations(&mut self) {
        if let Some((key, n)) = self.iter_buf.take() {
            self.records.loops.entry(key).or_default().iterations += n;
        }
    }

    /// Union `pset` into the sink record for `key`, skipping the map
    /// lookup when the previous sink update was the identical (idempotent)
    /// pair.
    #[inline]
    fn record_sink(&mut self, key: LoopKey, pset: ParamSet) {
        if self.sink_memo == Some((key, pset)) {
            return;
        }
        let rec = self.records.loops.entry(key).or_default();
        rec.params = rec.params.union(pset);
        self.sink_memo = Some((key, pset));
    }

    /// Accumulate coverage of one tainted branch, buffered across
    /// consecutive hits of the same branch.
    #[inline]
    fn record_branch(&mut self, key: (FunctionId, BlockId), pset: ParamSet, taken: bool) {
        match &mut self.branch_buf {
            Some((k, rec)) if *k == key => {
                rec.params = rec.params.union(pset);
                if taken {
                    rec.taken_true += 1;
                } else {
                    rec.taken_false += 1;
                }
            }
            _ => {
                self.flush_branches();
                let mut rec = crate::records::BranchRecord {
                    params: pset,
                    ..Default::default()
                };
                if taken {
                    rec.taken_true = 1;
                } else {
                    rec.taken_false = 1;
                }
                self.branch_buf = Some((key, rec));
            }
        }
    }

    fn flush_branches(&mut self) {
        if let Some((key, buf)) = self.branch_buf.take() {
            let rec = self.records.branches.entry(key).or_default();
            rec.params = rec.params.union(buf.params);
            rec.taken_true += buf.taken_true;
            rec.taken_false += buf.taken_false;
        }
    }

    /// `records.paths.intern` behind a direct-mapped cache keyed by the
    /// callee id's low bits.
    #[inline]
    fn intern_path(&mut self, parent: Option<PathId>, fid: FunctionId) -> PathId {
        let slot = fid.0 as usize & (PATH_CACHE_SLOTS - 1);
        if let Some((p, f, path)) = self.path_cache[slot] {
            if p == parent && f == fid {
                return path;
            }
        }
        let path = self.records.paths.intern(parent, fid);
        self.path_cache[slot] = Some((parent, fid, path));
        path
    }

    fn exec_function<P: PolicyMode>(
        &mut self,
        fid: FunctionId,
        args: &[TVal],
        parent: Option<PathId>,
        inherited_ctx: Label,
    ) -> Result<(Option<TVal>, f64), InterpError> {
        debug_assert_eq!(P::TAINT, self.config.taint);
        // An error aborts the whole run (`run` consumes the interpreter),
        // so the depth is only unwound on a normal return.
        self.depth += 1;
        if self.depth > self.config.max_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        // Reborrow through the `'m` reference so the decoded program can be
        // held across `&mut self` calls.
        let prepared: &'m PreparedModule = self.prepared;
        let dfunc: &'m DecodedFunction = prepared.decoded.func(fid);
        // A missing argument is a defined error in both engines (shared
        // differential behavior; previously the engines diverged here).
        if args.len() < dfunc.nparams {
            return Err(InterpError::ArityMismatch {
                func: dfunc.name.clone(),
                expected: dfunc.nparams,
                got: args.len(),
            });
        }
        let path = self.intern_path(parent, fid);
        self.records.executed[fid.index()] = true;

        // Hot per-instruction state lives in locals, synced with `self`
        // around calls, so the dispatch loop keeps it in registers. The
        // f64 additions happen in exactly the reference engine's order —
        // only the storage location differs — so the clock stays
        // bit-identical.
        let inst_cost = self.config.inst_cost;
        let fuel = self.config.fuel;
        let policy = self.config.policy;
        let coverage = self.config.coverage;
        let combine_ptr = P::TAINT && self.config.combine_ptr_labels;
        let store_ctx = P::TAINT && policy != CtlFlowPolicy::Off;
        let mut insts = self.insts;
        let mut clock = self.clock;

        let t_enter = clock;
        // Probe cost: charged to this function's exclusive time when the
        // measurement filter instruments it.
        if let Some(&probe) = self.config.probe_cost.get(fid.index()) {
            clock += probe;
        }
        let mut child_time = 0.0f64;

        let frame_mark = self.mem.mark();
        let mut frame_buf = self.reg_pool.pop().unwrap_or_default();
        if dfunc.ssa_clean {
            // Definitions dominate uses (verified at decode time), so no
            // register is ever read before this frame writes it: stale
            // pooled contents are unobservable and the per-call frame
            // clear is skipped.
            frame_buf.resize(dfunc.nregs, TVal::UNTAINTED_ZERO);
        } else {
            frame_buf.clear();
            frame_buf.resize(dfunc.nregs, TVal::UNTAINTED_ZERO);
        }
        // The loop works on a slice of the pooled buffer, never on the
        // `Vec` itself, so the frame's base and length stay in machine
        // registers instead of being reloaded around every call.
        let regs: &mut [TVal] = &mut frame_buf;
        // Arity was checked on entry; register allocation pins parameters
        // to the first `nparams` frame slots, so this stays one memcpy.
        regs[..dfunc.nparams].copy_from_slice(&args[..dfunc.nparams]);

        // Control-flow taint scopes. The inherited scope (from tainted
        // control in the caller) never pops within this frame.
        let mut ctl = self.ctl_pool.pop().unwrap_or_default();
        ctl.clear();
        let base_ctx = if policy == CtlFlowPolicy::Off {
            Label::EMPTY
        } else {
            inherited_ctx
        };

        let mut block = dfunc.entry;
        let ret_val: Option<TVal>;
        // Base of this function's flat visit flags, hoisted so the
        // per-block mark is one bounds check and one store.
        let vb_base = self.records.visited_blocks.offset(fid);

        'blocks: loop {
            if coverage {
                self.records.visited_blocks.set(vb_base + block.index());
            }
            // The phi moves of the edge just taken already ran (at the
            // branch site, under the pre-pop scope stack — the value choice
            // is the control-dependent act); now scopes joining here close.
            if insts > fuel {
                return Err(InterpError::OutOfFuel);
            }
            while matches!(ctl.last(), Some(s) if s.join == Some(block)) {
                ctl.pop();
            }

            // The control context is constant across a straight-line run:
            // scopes only push at conditional branches and pop at block
            // entries.
            let ctx = if store_ctx {
                ctl.last().map_or(base_ctx, |s| s.label)
            } else {
                Label::EMPTY
            };
            let apply_all = P::TAINT && policy == CtlFlowPolicy::All && !ctx.is_empty();
            let env = StepEnv {
                inst_cost,
                combine_ptr,
                store_ctx,
                apply_all,
                ctx,
            };

            let dblock = &dfunc.blocks[block.index()];
            for di in dblock.insts.iter() {
                insts += 1;
                clock += inst_cost;
                // `step` runs every op an inlined body may also contain;
                // the frame-level ops (calls, `alloca`) run here.
                let out =
                    match self.step::<P>(&di.op, regs, fid, path, env, &mut insts, &mut clock)? {
                        Some(out) => out,
                        None => match &di.op {
                            DOp::Alloca { words } => {
                                let n = resolve(*words, regs).as_i64();
                                if n < 0 {
                                    return Err(InterpError::Trap(format!(
                                        "negative alloca in {}",
                                        dfunc.name
                                    )));
                                }
                                let addr = self.mem.alloc(n as usize);
                                TVal::from_i64(addr as i64)
                            }
                            DOp::CallInternal { callee, args } => {
                                resolve_argv!(args, regs, argv);
                                self.insts = insts;
                                self.clock = clock;
                                let (ret, incl) =
                                    self.exec_function::<P>(*callee, argv, Some(path), ctx)?;
                                insts = self.insts;
                                clock = self.clock;
                                child_time += incl;
                                ret.unwrap_or(TVal::UNTAINTED_ZERO)
                            }
                            DOp::CallInlined {
                                callee,
                                entry,
                                body,
                                ret,
                            } => self.exec_inlined::<P>(
                                *callee,
                                *entry,
                                body,
                                *ret,
                                regs,
                                &mut insts,
                                &mut clock,
                                &mut child_time,
                                path,
                                env,
                            )?,
                            DOp::CallIntrinsic { which, args } => {
                                // Intrinsics never touch the clock or instruction
                                // count — no counter sync needed.
                                resolve_argv!(args, regs, argv);
                                self.exec_intrinsic::<P>(*which, argv)?
                            }
                            DOp::CallLibrary { name, ext_id, args } => {
                                resolve_argv!(args, regs, argv);
                                let ext_index = ext_id.index() - self.module.functions.len();
                                let token = self.lib_tokens[ext_index];
                                self.exec_host_call(
                                    name,
                                    token,
                                    (ext_index as u32) << 1 | 1,
                                    argv,
                                    fid,
                                    path,
                                    &mut clock,
                                    Some((*ext_id, &mut child_time)),
                                )?
                            }
                            _ => unreachable!("step runs every in-place op"),
                        },
                    };
                regs[di.dst as usize] = self.join_ctx::<P>(out, env);
            }
            if insts > fuel {
                return Err(InterpError::OutOfFuel);
            }
            match &dblock.term {
                DTerm::Br(edge) => {
                    self.take_edge::<P>(
                        edge, fid, path, regs, &ctl, base_ctx, &mut insts, &mut clock,
                    );
                    block = edge.target;
                }
                DTerm::CondBr {
                    cond,
                    then_edge,
                    else_edge,
                    exiting,
                    join,
                } => {
                    let cv = resolve(*cond, regs);
                    if P::TAINT {
                        // Sinks: loop-exit conditions (§4.1).
                        for &lid in exiting.iter() {
                            let pset = self.labels.params_of(cv.label);
                            self.record_sink(
                                LoopKey {
                                    func: fid,
                                    loop_id: lid,
                                    path,
                                },
                                pset,
                            );
                        }
                        // Branch coverage for tainted conditions (§4.4, §C2).
                        if coverage && !cv.label.is_empty() {
                            let pset = self.labels.params_of(cv.label);
                            self.record_branch((fid, block), pset, cv.as_bool());
                        }
                        // Open a control scope for tainted branches.
                        if policy != CtlFlowPolicy::Off && !cv.label.is_empty() {
                            let enclosing = ctl.last().map_or(base_ctx, |s| s.label);
                            let label = self.union_t::<P>(cv.label, enclosing);
                            ctl.push(CtlScope { join: *join, label });
                        }
                    }
                    let edge = if cv.as_bool() { then_edge } else { else_edge };
                    self.take_edge::<P>(
                        edge, fid, path, regs, &ctl, base_ctx, &mut insts, &mut clock,
                    );
                    block = edge.target;
                }
                DTerm::CondBrCmp {
                    pred,
                    float,
                    a,
                    b,
                    then_edge,
                    else_edge,
                    exiting,
                    join,
                } => {
                    // Fused cmp+condbr. The comparison half retires here —
                    // count, clock, and label unions in exactly the order
                    // the standalone cmp produced them — then the fuel
                    // boundary that used to sit between the cmp and the
                    // branch is re-checked before any branch effect.
                    insts += 1;
                    clock += inst_cost;
                    let av = resolve(*a, regs);
                    let bv = resolve(*b, regs);
                    let mut cond_label = self.union_t::<P>(av.label, bv.label);
                    let taken = if *float {
                        pred.eval(av.as_f64(), bv.as_f64())
                    } else {
                        pred.eval(av.as_i64(), bv.as_i64())
                    };
                    if apply_all {
                        cond_label = self.union_t::<P>(cond_label, ctx);
                    }
                    if insts > fuel {
                        return Err(InterpError::OutOfFuel);
                    }
                    if P::TAINT {
                        for &lid in exiting.iter() {
                            let pset = self.labels.params_of(cond_label);
                            self.record_sink(
                                LoopKey {
                                    func: fid,
                                    loop_id: lid,
                                    path,
                                },
                                pset,
                            );
                        }
                        if coverage && !cond_label.is_empty() {
                            let pset = self.labels.params_of(cond_label);
                            self.record_branch((fid, block), pset, taken);
                        }
                        if policy != CtlFlowPolicy::Off && !cond_label.is_empty() {
                            let enclosing = ctl.last().map_or(base_ctx, |s| s.label);
                            let label = self.union_t::<P>(cond_label, enclosing);
                            ctl.push(CtlScope { join: *join, label });
                        }
                    }
                    let edge = if taken { then_edge } else { else_edge };
                    self.take_edge::<P>(
                        edge, fid, path, regs, &ctl, base_ctx, &mut insts, &mut clock,
                    );
                    block = edge.target;
                }
                DTerm::Ret(v) => {
                    ret_val = (*v).map(|op| resolve(op, regs));
                    break 'blocks;
                }
                DTerm::Unreachable => {
                    return Err(InterpError::Trap(format!(
                        "reached unreachable in {}",
                        dfunc.name
                    )));
                }
            }
        }

        self.mem.release_to(frame_mark);
        self.insts = insts;
        self.clock = clock;
        let inclusive = clock - t_enter;
        let exclusive = inclusive - child_time;
        self.profile.record_call(path, fid, inclusive, exclusive);
        // Returned frames keep their (stale) contents: SSA-clean callees
        // never read a register before writing it, and unclean callees
        // clear explicitly at frame setup.
        self.reg_pool.push(frame_buf);
        ctl.clear();
        self.ctl_pool.push(ctl);
        self.depth -= 1;
        Ok((ret_val, inclusive))
    }

    /// Take a decoded CFG edge: loop bookkeeping, then the target's phi
    /// parallel copy for this predecessor. Sources are all read before the
    /// first write (staged), so swap / lost-copy cycles behave like the
    /// reference engine's simultaneous assignment.
    ///
    /// Always inlined: as an out-of-line call it would force the frame
    /// loop's instruction counter and clock out of machine registers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn take_edge<P: PolicyMode>(
        &mut self,
        edge: &Edge,
        fid: FunctionId,
        path: PathId,
        regs: &mut [TVal],
        ctl: &[CtlScope],
        base_ctx: Label,
        insts: &mut u64,
        clock: &mut f64,
    ) {
        if P::TAINT {
            if let Some(lid) = edge.back_edge {
                self.bump_iterations(LoopKey {
                    func: fid,
                    loop_id: lid,
                    path,
                });
            } else if let Some(lid) = edge.enters {
                let rec = self
                    .records
                    .loops
                    .entry(LoopKey {
                        func: fid,
                        loop_id: lid,
                        path,
                    })
                    .or_default();
                rec.entries += 1;
            }
        }
        if edge.moves.is_empty() {
            return;
        }
        // Phis evaluate under the scope that closes at the target (it pops
        // only after the copy) — including a scope this very branch pushed.
        let apply = P::TAINT && self.config.policy == CtlFlowPolicy::All;
        let ctx = ctl.last().map_or(base_ctx, |s| s.label);
        let inst_cost = self.config.inst_cost;
        if let [mv] = edge.moves.as_ref() {
            // Single-phi edges (every builder loop's induction variable)
            // need no staging: one move cannot hazard with itself reading
            // its own register.
            *insts += 1;
            *clock += inst_cost;
            let mut tv = resolve(mv.src, regs);
            if apply {
                tv.label = self.union_t::<P>(tv.label, ctx);
            }
            regs[mv.dst as usize] = tv;
            return;
        }
        let mut stage = std::mem::take(&mut self.phi_stage);
        stage.clear();
        for mv in edge.moves.iter() {
            *insts += 1;
            *clock += inst_cost;
            let mut tv = resolve(mv.src, regs);
            if apply {
                tv.label = self.union_t::<P>(tv.label, ctx);
            }
            stage.push((mv.dst, tv));
        }
        for (dst, tv) in stage.drain(..) {
            regs[dst as usize] = tv;
        }
        self.phi_stage = stage;
    }

    /// Execute a [`DOp::CallInlined`] superinstruction: an entire leaf
    /// call — depth and fuel boundaries, path interning, executed/visited
    /// marks, probe cost, body, per-call profile entry — replayed inline
    /// over the caller's frame. The caller's loop charged the call
    /// instruction itself; the callee's control context equals the
    /// caller's at the call site (a single-block callee can neither push
    /// nor pop scopes), so `env` carries over unchanged.
    #[allow(clippy::too_many_arguments)]
    fn exec_inlined<P: PolicyMode>(
        &mut self,
        callee: FunctionId,
        entry: BlockId,
        body: &[DInst],
        ret: Option<Opnd>,
        regs: &mut [TVal],
        insts: &mut u64,
        clock: &mut f64,
        child_time: &mut f64,
        path: PathId,
        env: StepEnv,
    ) -> Result<TVal, InterpError> {
        self.depth += 1;
        if self.depth > self.config.max_depth {
            return Err(InterpError::CallDepthExceeded);
        }
        let ipath = self.intern_path(Some(path), callee);
        self.records.executed[callee.index()] = true;
        let t_enter = *clock;
        if let Some(&probe) = self.config.probe_cost.get(callee.index()) {
            *clock += probe;
        }
        if self.config.coverage {
            self.records.visited_blocks.mark(callee, entry);
        }
        // The fuel boundaries the reference engine checks at the callee's
        // block entry and after its straight-line body.
        let fuel = self.config.fuel;
        if *insts > fuel {
            return Err(InterpError::OutOfFuel);
        }
        // The inlining pass admits only ops `step` implements.
        for di in body {
            *insts += 1;
            *clock += env.inst_cost;
            let out = self
                .step::<P>(&di.op, regs, callee, ipath, env, insts, clock)?
                .expect("the inlining pass admits only in-place ops");
            regs[di.dst as usize] = self.join_ctx::<P>(out, env);
        }
        if *insts > fuel {
            return Err(InterpError::OutOfFuel);
        }
        self.depth -= 1;
        let rv = ret.map_or(TVal::UNTAINTED_ZERO, |o| resolve(o, regs));
        // No children and no alloca: exclusive == inclusive, and the
        // memory watermark is untouched.
        let inclusive = *clock - t_enter;
        self.profile
            .record_call(ipath, callee, inclusive, inclusive);
        *child_time += inclusive;
        Ok(rv)
    }

    /// The `All`-policy control join: inside a tainted scope every
    /// instruction result also carries the scope's label.
    #[inline(always)]
    fn join_ctx<P: PolicyMode>(&mut self, v: TVal, env: StepEnv) -> TVal {
        if env.apply_all {
            v.with_label(self.union_t::<P>(v.label, env.ctx))
        } else {
            v
        }
    }

    /// One instruction's value and taint semantics, for every op that
    /// executes in place: scalar, memory and fused-index ops,
    /// host-primitive calls and traps. The frame loop and inlined leaf
    /// bodies both dispatch here, so each rule is written once in this
    /// engine (and once in the reference engine the differential suites
    /// hold it to). `fid`/`path` are the function whose body the op
    /// belongs to — for an inlined body the callee, not the caller — and
    /// take division-by-zero errors and extern-argument records. The
    /// caller charged the instruction; the fused-index ops charge their
    /// second half here. The result is returned before [`Self::join_ctx`].
    ///
    /// `None` marks a frame-level op (calls, intrinsics, `alloca`) that
    /// only the frame loop runs. Matching those here too, rather than in
    /// the frame loop ahead of this call, keeps the hot path to a single
    /// dispatch.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn step<P: PolicyMode>(
        &mut self,
        op: &DOp,
        regs: &[TVal],
        fid: FunctionId,
        path: PathId,
        env: StepEnv,
        insts: &mut u64,
        clock: &mut f64,
    ) -> Result<Option<TVal>, InterpError> {
        let prepared: &'m PreparedModule = self.prepared;
        let div_by_zero = || InterpError::DivisionByZero {
            func: prepared.decoded.func(fid).name.clone(),
        };
        Ok(Some(match op {
            DOp::Const { bits } => {
                // Folded constant: the original op's operands were all
                // immediates, so its label was the union of empty labels —
                // empty, with no table mutation (the union early-outs).
                // `join_ctx` still joins the control context, exactly like
                // the unfolded op.
                TVal {
                    bits: *bits,
                    label: Label::EMPTY,
                }
            }
            DOp::BinI { op, a, b } => {
                let a = resolve(*a, regs);
                let b = resolve(*b, regs);
                let label = self.union_t::<P>(a.label, b.label);
                let (x, y) = (a.as_i64(), b.as_i64());
                let r = match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(div_by_zero());
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(div_by_zero());
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                    BinOp::Shl => crate::ops::shl_i64(x, y),
                    BinOp::Shr => crate::ops::shr_i64(x, y),
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                };
                TVal {
                    bits: r as u64,
                    label,
                }
            }
            DOp::BinF { op, a, b } => {
                let a = resolve(*a, regs);
                let b = resolve(*b, regs);
                let label = self.union_t::<P>(a.label, b.label);
                let (x, y) = (a.as_f64(), b.as_f64());
                let r = match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!("bitwise float ops decode to Trap"),
                };
                TVal {
                    bits: r.to_bits(),
                    label,
                }
            }
            DOp::NegI { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: a.as_i64().wrapping_neg() as u64,
                    label: a.label,
                }
            }
            DOp::NegF { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: (-a.as_f64()).to_bits(),
                    label: a.label,
                }
            }
            DOp::NotBool { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: (a.bits == 0) as u64,
                    label: a.label,
                }
            }
            DOp::NotInt { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: !a.as_i64() as u64,
                    label: a.label,
                }
            }
            DOp::IntToFloat { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: (a.as_i64() as f64).to_bits(),
                    label: a.label,
                }
            }
            DOp::FloatToInt { a } => {
                let a = resolve(*a, regs);
                let f = a.as_f64();
                let clamped = if f.is_nan() {
                    0
                } else {
                    f.clamp(i64::MIN as f64, i64::MAX as f64) as i64
                };
                TVal {
                    bits: clamped as u64,
                    label: a.label,
                }
            }
            DOp::Sqrt { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: a.as_f64().max(0.0).sqrt().to_bits(),
                    label: a.label,
                }
            }
            DOp::AbsI { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: a.as_i64().wrapping_abs() as u64,
                    label: a.label,
                }
            }
            DOp::AbsF { a } => {
                let a = resolve(*a, regs);
                TVal {
                    bits: a.as_f64().abs().to_bits(),
                    label: a.label,
                }
            }
            DOp::CmpI { pred, a, b } => {
                let a = resolve(*a, regs);
                let b = resolve(*b, regs);
                let label = self.union_t::<P>(a.label, b.label);
                TVal {
                    bits: pred.eval(a.as_i64(), b.as_i64()) as u64,
                    label,
                }
            }
            DOp::CmpF { pred, a, b } => {
                let a = resolve(*a, regs);
                let b = resolve(*b, regs);
                let label = self.union_t::<P>(a.label, b.label);
                TVal {
                    bits: pred.eval(a.as_f64(), b.as_f64()) as u64,
                    label,
                }
            }
            DOp::Select { c, t, e } => {
                let c = resolve(*c, regs);
                let chosen = if c.as_bool() {
                    resolve(*t, regs)
                } else {
                    resolve(*e, regs)
                };
                let label = self.union_t::<P>(c.label, chosen.label);
                chosen.with_label(label)
            }
            DOp::Load { addr } => {
                let a = resolve(*addr, regs);
                let mut v = self.mem.load(a.as_addr())?;
                if env.combine_ptr {
                    v.label = self.union_t::<P>(v.label, a.label);
                }
                v
            }
            DOp::Store { addr, value } => {
                let a = resolve(*addr, regs);
                let mut v = resolve(*value, regs);
                if env.store_ctx {
                    // StoresOnly and All both taint stored values with the
                    // control context.
                    v.label = self.union_t::<P>(v.label, env.ctx);
                }
                self.mem.store(a.as_addr(), v)?;
                TVal::UNTAINTED_ZERO
            }
            DOp::Gep {
                base,
                index,
                stride,
            } => {
                let b = resolve(*base, regs);
                let i = resolve(*index, regs);
                let label = self.union_t::<P>(b.label, i.label);
                let addr = b.as_i64().wrapping_add(i.as_i64().wrapping_mul(*stride));
                TVal {
                    bits: addr as u64,
                    label,
                }
            }
            DOp::LoadIdx {
                base,
                index,
                stride,
            } => {
                // Fused gep+load: this dispatch retires both. The caller
                // charged the gep; its label unions run here in the
                // original order, then the load half charges itself before
                // touching memory.
                let b = resolve(*base, regs);
                let i = resolve(*index, regs);
                let mut la = self.union_t::<P>(b.label, i.label);
                if env.apply_all {
                    la = self.union_t::<P>(la, env.ctx);
                }
                let addr = b.as_i64().wrapping_add(i.as_i64().wrapping_mul(*stride));
                *insts += 1;
                *clock += env.inst_cost;
                let mut v = self.mem.load(addr as u64 as usize)?;
                if env.combine_ptr {
                    v.label = self.union_t::<P>(v.label, la);
                }
                v
            }
            DOp::StoreIdx {
                base,
                index,
                stride,
                value,
            } => {
                // Fused gep+store, charged like the fused load.
                let b = resolve(*base, regs);
                let i = resolve(*index, regs);
                let gep_label = self.union_t::<P>(b.label, i.label);
                if env.apply_all {
                    // The fused-away gep result would have carried the
                    // control context; the union must still happen so the
                    // label table stays identical.
                    let _ = self.union_t::<P>(gep_label, env.ctx);
                }
                let addr = b.as_i64().wrapping_add(i.as_i64().wrapping_mul(*stride));
                *insts += 1;
                *clock += env.inst_cost;
                let mut v = resolve(*value, regs);
                if env.store_ctx {
                    v.label = self.union_t::<P>(v.label, env.ctx);
                }
                self.mem.store(addr as u64 as usize, v)?;
                TVal::UNTAINTED_ZERO
            }
            DOp::CallHostPrim { name, prim, args } => {
                // Host calls never touch the instruction counter, and the
                // clock rides along by reference. A primitive charges the
                // clock only, never child time, which is what keeps an
                // inlined frame's exclusive == inclusive.
                resolve_argv!(args, regs, argv);
                let token = self.prim_tokens[*prim as usize];
                self.exec_host_call(name, token, *prim << 1, argv, fid, path, clock, None)?
            }
            DOp::Trap { message } => return Err(InterpError::Trap(message.to_string())),
            DOp::Alloca { .. }
            | DOp::CallInternal { .. }
            | DOp::CallIntrinsic { .. }
            | DOp::CallLibrary { .. }
            | DOp::CallInlined { .. } => return Ok(None),
        }))
    }

    /// Interpreter-resolved taint intrinsics (parameter sources, the
    /// security policy's source/sanitize/sink-check triple, and test
    /// assertions). Generic over the policy: every call site sits inside
    /// a policy-monomorphized loop, so the `P::TAINT` / `P::SECURITY`
    /// branches here fold away like the loop's own.
    fn exec_intrinsic<P: PolicyMode>(
        &mut self,
        which: Intrinsic,
        argv: &[TVal],
    ) -> Result<TVal, InterpError> {
        match which {
            Intrinsic::ParamI64 => {
                let idx = argv[0].as_i64() as usize;
                let (name, value) =
                    self.params.get(idx).cloned().ok_or_else(|| {
                        InterpError::Trap(format!("pt_param_i64: no param {idx}"))
                    })?;
                let label = if P::TAINT {
                    self.labels
                        .try_base_label(&name)
                        .map_err(InterpError::LabelCapacity)?
                } else {
                    Label::EMPTY
                };
                Ok(TVal::from_i64(value).with_label(label))
            }
            Intrinsic::RegisterParam => {
                let addr = argv[0].as_addr();
                let idx = argv[1].as_i64() as usize;
                let (name, _) = self.params.get(idx).cloned().ok_or_else(|| {
                    InterpError::Trap(format!("pt_register_param: no param {idx}"))
                })?;
                if P::TAINT {
                    let label = self
                        .labels
                        .try_base_label(&name)
                        .map_err(InterpError::LabelCapacity)?;
                    self.mem.set_label(addr, label)?;
                }
                Ok(TVal::UNTAINTED_ZERO)
            }
            Intrinsic::TaintSource => {
                // Pass-through of the value; under the security policy the
                // source base `src#id` is joined into its label (may-taint:
                // the incoming label is kept, never replaced).
                let v = argv[0];
                if P::SECURITY {
                    let id = argv[1].as_i64();
                    let base = self
                        .labels
                        .try_base_label(&crate::policy::source_base_name(id))
                        .map_err(InterpError::LabelCapacity)?;
                    let label = self.labels.union(v.label, base);
                    Ok(v.with_label(label))
                } else {
                    Ok(v)
                }
            }
            Intrinsic::Sanitize => {
                // Under the security policy, clear the label to bottom;
                // otherwise identity (value *and* label survive, so the
                // paper policy is observably unchanged by sanitize calls).
                let v = argv[0];
                if P::SECURITY {
                    Ok(v.with_label(Label::EMPTY))
                } else {
                    Ok(v)
                }
            }
            Intrinsic::SinkCheck => {
                let v = argv[0];
                if P::SECURITY {
                    let id = argv[1].as_i64();
                    let pset = self.labels.params_of(v.label);
                    let rec = self.records.sink_checks.entry(id).or_default();
                    rec.checks += 1;
                    if !v.label.is_empty() {
                        rec.violations += 1;
                        rec.params = rec.params.union(pset);
                    }
                }
                Ok(v)
            }
            Intrinsic::AssertHasParam => {
                if P::TAINT {
                    let idx = argv[1].as_i64() as usize;
                    if !self.labels.params_of(argv[0].label).contains(idx) {
                        return Err(InterpError::Trap(format!(
                            "taint assertion failed: value lacks parameter #{idx} (has {:?})",
                            self.labels.params_of(argv[0].label)
                        )));
                    }
                }
                Ok(TVal::UNTAINTED_ZERO)
            }
            Intrinsic::AssertNotParam => {
                if P::TAINT {
                    let idx = argv[1].as_i64() as usize;
                    if self.labels.params_of(argv[0].label).contains(idx) {
                        return Err(InterpError::Trap(format!(
                            "taint assertion failed: value unexpectedly carries parameter #{idx}"
                        )));
                    }
                }
                Ok(TVal::UNTAINTED_ZERO)
            }
            Intrinsic::LabelParams => {
                let set = self.labels.params_of(argv[0].label);
                Ok(TVal::from_i64(set.0 as i64))
            }
        }
    }

    /// Dispatch a non-intrinsic external to the handler. `lib` is `None`
    /// for `pt_*` work primitives (cost charged inline to the caller's
    /// clock) and, for library routines, the pre-bound pseudo id plus the
    /// caller's child time (they get their own profile entries, §B1). `token` is the handler dispatch
    /// token pre-resolved at construction; symbols the handler does not
    /// resolve fall back to by-name dispatch.
    #[allow(clippy::too_many_arguments)]
    fn exec_host_call(
        &mut self,
        name: &str,
        token: Option<u32>,
        sym: u32,
        argv: &[TVal],
        caller: FunctionId,
        path: PathId,
        clock: &mut f64,
        lib: Option<(FunctionId, &mut f64)>,
    ) -> Result<TVal, InterpError> {
        // Record the parameters tainting the call's arguments — the library
        // database turns these into parametric dependencies of the caller
        // (the count-argument mechanism of §5.3). Unions are idempotent,
        // so a repeat of the previous `(caller, symbol, set)` triple skips
        // the string-keyed map (and its key allocation) outright.
        if self.config.taint {
            let mut pset = ParamSet::EMPTY;
            for a in argv {
                pset = pset.union(self.labels.params_of(a.label));
            }
            if !pset.is_empty() && self.extern_arg_memo != Some(((caller, sym), pset)) {
                let e = self
                    .records
                    .extern_args
                    .entry((caller, name.to_string()))
                    .or_default();
                *e = e.union(pset);
                self.extern_arg_memo = Some(((caller, sym), pset));
            }
        }

        let mut ctx = HostCtx {
            mem: &mut self.mem,
            labels: &mut self.labels,
            params: &self.params,
            taint: self.config.taint,
        };
        let called = match token {
            Some(t) => self.handler.call_token(t, argv, &mut ctx),
            None => self.handler.call(name, argv, &mut ctx),
        };
        let (ret, cost) = called.map_err(|message| InterpError::ExternalFailed {
            name: name.to_string(),
            message,
        })?;
        match lib {
            None => {
                *clock += cost;
                Ok(ret)
            }
            Some((ext_id, child_time)) => {
                let probe = self
                    .config
                    .probe_cost
                    .get(ext_id.index())
                    .copied()
                    .unwrap_or(0.0);
                let total = cost + probe;
                *clock += total;
                *child_time += total;
                self.records.executed[ext_id.index()] = true;
                let ext_path = self.records.paths.intern(Some(path), ext_id);
                self.profile.record_call(ext_path, ext_id, total, total);
                Ok(ret)
            }
        }
    }
}
