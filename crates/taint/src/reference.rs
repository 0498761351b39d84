//! The legacy tree-walking interpreter, kept as the reference
//! implementation for differential testing.
//!
//! This is the original §5.2 engine: it re-walks the [`pt_ir::InstKind`]
//! tree per executed instruction, resolving [`Value`] operands by enum
//! match, scanning block prefixes for phis, and looking loop back edges up
//! in a `HashMap` per branch. The production engine ([`crate::interp`])
//! executes the pre-decoded bytecode of [`crate::decode`] instead; this
//! module exists so the differential suite (and the `taint_throughput`
//! bench scenario) can prove the two produce **bit-identical**
//! [`RunOutput`]s — see [`crate::differential`] for the contract.
//!
//! Semantics are documented on [`crate::interp`]; this file intentionally
//! mirrors the historical implementation rather than sharing code with the
//! fast path, so a bug in one cannot hide in both.

use crate::host::{ExternalHandler, HostCtx};
use crate::interp::{CtlFlowPolicy, CtlScope, InterpConfig, InterpError, RunOutput};
use crate::label::{Label, LabelTable};
use crate::memory::{Memory, TVal};
use crate::path::PathId;
use crate::prepared::PreparedModule;
use crate::profile::Profile;
use crate::records::{LoopKey, TaintRecords};
use pt_ir::{BinOp, BlockId, Callee, FunctionId, InstKind, Module, Terminator, Type, UnOp, Value};

/// The reference interpreter. Holds per-run mutable state; construct one
/// per run.
pub struct ReferenceInterpreter<'m, H: ExternalHandler> {
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
    /// Pseudo function ids for externals: `module.functions.len() + i` for
    /// external name `i` in `extern_names`.
    extern_names: Vec<String>,
}

impl<'m, H: ExternalHandler> ReferenceInterpreter<'m, H> {
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
        let extern_names: Vec<String> = module
            .used_externals()
            .into_iter()
            .map(String::from)
            .collect();
        let nfuncs = module.functions.len() + extern_names.len();
        let blocks_per_func: Vec<usize> = module
            .functions
            .iter()
            .map(|f| f.blocks.len())
            .chain(std::iter::repeat_n(0, extern_names.len()))
            .collect();
        ReferenceInterpreter {
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
            extern_names,
        }
    }

    /// The pseudo [`FunctionId`] of external `name`, if it is called anywhere.
    pub fn extern_id(&self, name: &str) -> Option<FunctionId> {
        self.extern_names
            .iter()
            .position(|n| n == name)
            .map(|i| FunctionId((self.module.functions.len() + i) as u32))
    }

    /// Run `entry` with the given (untainted) integer arguments.
    pub fn run(mut self, entry: FunctionId, args: &[i64]) -> Result<RunOutput, InterpError> {
        let argv: Vec<TVal> = args.iter().map(|&a| TVal::from_i64(a)).collect();
        let (ret, _incl) = self.exec_function(entry, argv, None, Label::EMPTY)?;
        // Mirror of the decoded engine's run-end capacity check: both
        // engines allocate labels in identical order, so an overflow
        // surfaces as the identical defined error in both.
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

    #[inline]
    fn union(&mut self, a: Label, b: Label) -> Label {
        if !self.config.taint {
            return Label::EMPTY;
        }
        self.labels.union(a, b)
    }

    /// Whether the security policy's source/sink/sanitizer intrinsics are
    /// live (the reference engine checks the policy at run time — it is
    /// the slow mirror of the decoded engine's monomorphized `P::SECURITY`).
    #[inline]
    fn security(&self) -> bool {
        self.config.taint && self.config.taint_policy == crate::policy::PolicyKind::Security
    }

    fn exec_function(
        &mut self,
        fid: FunctionId,
        args: Vec<TVal>,
        parent: Option<PathId>,
        inherited_ctx: Label,
    ) -> Result<(Option<TVal>, f64), InterpError> {
        self.depth += 1;
        if self.depth > self.config.max_depth {
            self.depth -= 1;
            return Err(InterpError::CallDepthExceeded);
        }
        let result = self.exec_function_inner(fid, args, parent, inherited_ctx);
        self.depth -= 1;
        result
    }

    fn exec_function_inner(
        &mut self,
        fid: FunctionId,
        args: Vec<TVal>,
        parent: Option<PathId>,
        inherited_ctx: Label,
    ) -> Result<(Option<TVal>, f64), InterpError> {
        let func = self.module.function(fid);
        // A missing argument is a defined error, checked at frame setup in
        // both engines (historically this engine panicked when the missing
        // parameter was *read*; the decoded engine read an untainted zero —
        // the differential contract now covers the case instead).
        if args.len() < func.params.len() {
            return Err(InterpError::ArityMismatch {
                func: func.name.clone(),
                expected: func.params.len(),
                got: args.len(),
            });
        }
        let prep = self.prepared.func(fid);
        let path = self.records.paths.intern(parent, fid);
        self.records.executed[fid.index()] = true;

        let t_enter = self.clock;
        // Probe cost: charged to this function's exclusive time when the
        // measurement filter instruments it.
        if let Some(&probe) = self.config.probe_cost.get(fid.index()) {
            self.clock += probe;
        }
        let mut child_time = 0.0f64;

        let frame_mark = self.mem.mark();
        let mut locals: Vec<TVal> = vec![TVal::UNTAINTED_ZERO; func.insts.len()];
        // Control-flow taint scopes. The inherited scope (from tainted
        // control in the caller) never pops within this frame.
        let mut ctl: Vec<CtlScope> = Vec::new();
        let base_ctx = if self.config.policy == CtlFlowPolicy::Off {
            Label::EMPTY
        } else {
            inherited_ctx
        };

        let mut block = func.entry;
        let mut prev_block: Option<BlockId> = None;
        let ret_val: Option<TVal>;

        'blocks: loop {
            if self.config.coverage {
                self.records.visited_blocks.mark(fid, block);
            }
            let cur_ctx = |ctl: &[CtlScope]| ctl.last().map_or(base_ctx, |s| s.label);

            // Phi nodes execute first, in parallel, *under the closing
            // scope* (the value choice is the control-dependent act), then
            // scopes joining at this block pop.
            let insts = &func.block(block).insts;
            let mut phi_end = 0;
            while phi_end < insts.len() {
                let iid = insts[phi_end];
                if !matches!(func.inst(iid).kind, InstKind::Phi { .. }) {
                    break;
                }
                phi_end += 1;
            }
            if phi_end > 0 {
                let pb = prev_block.expect("phi in entry block");
                let mut staged: Vec<(usize, TVal)> = Vec::with_capacity(phi_end);
                for &iid in &insts[..phi_end] {
                    self.insts += 1;
                    self.clock += self.config.inst_cost;
                    if let InstKind::Phi { incomings, .. } = &func.inst(iid).kind {
                        let (_, v) = incomings
                            .iter()
                            .find(|(b, _)| *b == pb)
                            .unwrap_or_else(|| panic!("phi %{} missing incoming for {pb}", iid.0));
                        let mut tv = self.eval(*v, &locals, &args);
                        if self.config.taint && self.config.policy == CtlFlowPolicy::All {
                            let ctx = cur_ctx(&ctl);
                            tv.label = self.union(tv.label, ctx);
                        }
                        staged.push((iid.index(), tv));
                    }
                }
                for (idx, tv) in staged {
                    locals[idx] = tv;
                }
            }
            if self.insts > self.config.fuel {
                return Err(InterpError::OutOfFuel);
            }
            // Close scopes that join here.
            while matches!(ctl.last(), Some(s) if s.join == Some(block)) {
                ctl.pop();
            }

            // Straight-line instructions.
            for &iid in &insts[phi_end..] {
                self.insts += 1;
                self.clock += self.config.inst_cost;
                let ctx = if self.config.taint && self.config.policy != CtlFlowPolicy::Off {
                    cur_ctx(&ctl)
                } else {
                    Label::EMPTY
                };
                let out = self.exec_inst(
                    fid,
                    iid,
                    func,
                    prep,
                    &args,
                    &mut locals,
                    ctx,
                    path,
                    &mut child_time,
                )?;
                locals[iid.index()] = out;
            }
            if self.insts > self.config.fuel {
                return Err(InterpError::OutOfFuel);
            }

            // Terminator.
            match func.block(block).term.as_ref().expect("verified IR") {
                Terminator::Br(t) => {
                    self.note_edge(fid, path, block, *t, prep);
                    prev_block = Some(block);
                    block = *t;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let cv = self.eval(*cond, &locals, &args);
                    if self.config.taint {
                        // Sinks: loop-exit conditions (§4.1).
                        for &lid in &prep.exiting_loops[block.index()] {
                            let pset = self.labels.params_of(cv.label);
                            let rec = self
                                .records
                                .loops
                                .entry(LoopKey {
                                    func: fid,
                                    loop_id: lid,
                                    path,
                                })
                                .or_default();
                            rec.params = rec.params.union(pset);
                        }
                        // Branch coverage for tainted conditions (§4.4, §C2).
                        if self.config.coverage && !cv.label.is_empty() {
                            let pset = self.labels.params_of(cv.label);
                            let rec = self.records.branches.entry((fid, block)).or_default();
                            rec.params = rec.params.union(pset);
                            if cv.as_bool() {
                                rec.taken_true += 1;
                            } else {
                                rec.taken_false += 1;
                            }
                        }
                        // Open a control scope for tainted branches.
                        if self.config.policy != CtlFlowPolicy::Off && !cv.label.is_empty() {
                            let enclosing = ctl.last().map_or(base_ctx, |s| s.label);
                            let label = self.union(cv.label, enclosing);
                            ctl.push(CtlScope {
                                join: prep.ipostdom[block.index()],
                                label,
                            });
                        }
                    }
                    let target = if cv.as_bool() { *then_bb } else { *else_bb };
                    self.note_edge(fid, path, block, target, prep);
                    prev_block = Some(block);
                    block = target;
                }
                Terminator::Ret(v) => {
                    ret_val = v.as_ref().map(|val| self.eval(*val, &locals, &args));
                    break 'blocks;
                }
                Terminator::Unreachable => {
                    return Err(InterpError::Trap(format!(
                        "reached unreachable in {}",
                        func.name
                    )));
                }
            }
        }

        self.mem.release_to(frame_mark);
        let inclusive = self.clock - t_enter;
        let exclusive = inclusive - child_time;
        self.profile.record_call(path, fid, inclusive, exclusive);
        Ok((ret_val, inclusive))
    }

    /// Track loop entries and iterations on a CFG edge.
    #[inline]
    fn note_edge(
        &mut self,
        fid: FunctionId,
        path: PathId,
        from: BlockId,
        to: BlockId,
        prep: &crate::prepared::PreparedFunction,
    ) {
        if !self.config.taint {
            return;
        }
        if let Some(&lid) = prep.back_edges.get(&(from, to)) {
            let rec = self
                .records
                .loops
                .entry(LoopKey {
                    func: fid,
                    loop_id: lid,
                    path,
                })
                .or_default();
            rec.iterations += 1;
        } else if let Some(lid) = prep.header_of[to.index()] {
            // Entering a header not via a back edge = a fresh loop entry.
            if !prep.forest.get(lid).contains(from) {
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
    }

    #[inline]
    fn eval(&self, v: Value, locals: &[TVal], args: &[TVal]) -> TVal {
        match v {
            Value::Const(c) => match c {
                pt_ir::Const::Int(i) => TVal::from_i64(i),
                pt_ir::Const::Float(f) => TVal::from_f64(f),
                pt_ir::Const::Bool(b) => TVal::from_bool(b),
            },
            Value::Param(p) => args[p.index()],
            Value::Inst(i) => locals[i.index()],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_inst(
        &mut self,
        fid: FunctionId,
        iid: pt_ir::InstId,
        func: &pt_ir::Function,
        prep: &crate::prepared::PreparedFunction,
        args: &[TVal],
        locals: &mut [TVal],
        ctx: Label,
        path: PathId,
        child_time: &mut f64,
    ) -> Result<TVal, InterpError> {
        let is_float = prep.operand_float[iid.index()];
        let apply_ctx = |me: &mut Self, mut t: TVal| -> TVal {
            if me.config.taint && me.config.policy == CtlFlowPolicy::All && !ctx.is_empty() {
                t.label = me.union(t.label, ctx);
            }
            t
        };
        let kind = &func.inst(iid).kind;
        let out = match kind {
            InstKind::Bin { op, lhs, rhs } => {
                let a = self.eval(*lhs, locals, args);
                let b = self.eval(*rhs, locals, args);
                let label = self.union(a.label, b.label);
                let bits = if is_float {
                    let (x, y) = (a.as_f64(), b.as_f64());
                    let r = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Rem => x % y,
                        BinOp::Min => x.min(y),
                        BinOp::Max => x.max(y),
                        _ => {
                            return Err(InterpError::Trap(format!(
                                "float {op:?} unsupported in {}",
                                func.name
                            )))
                        }
                    };
                    r.to_bits()
                } else {
                    let (x, y) = (a.as_i64(), b.as_i64());
                    let r = match op {
                        BinOp::Add => x.wrapping_add(y),
                        BinOp::Sub => x.wrapping_sub(y),
                        BinOp::Mul => x.wrapping_mul(y),
                        BinOp::Div => {
                            if y == 0 {
                                return Err(InterpError::DivisionByZero {
                                    func: func.name.clone(),
                                });
                            }
                            x.wrapping_div(y)
                        }
                        BinOp::Rem => {
                            if y == 0 {
                                return Err(InterpError::DivisionByZero {
                                    func: func.name.clone(),
                                });
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
                    r as u64
                };
                TVal { bits, label }
            }
            InstKind::Un { op, operand } => {
                let a = self.eval(*operand, locals, args);
                let bits = match op {
                    UnOp::Neg => {
                        if is_float {
                            (-a.as_f64()).to_bits()
                        } else {
                            (a.as_i64().wrapping_neg()) as u64
                        }
                    }
                    UnOp::Not => {
                        if prep.result_tys[iid.index()] == Type::Bool {
                            (a.bits == 0) as u64
                        } else {
                            !a.as_i64() as u64
                        }
                    }
                    UnOp::IntToFloat => (a.as_i64() as f64).to_bits(),
                    UnOp::FloatToInt => {
                        let f = a.as_f64();
                        let clamped = if f.is_nan() {
                            0
                        } else {
                            f.clamp(i64::MIN as f64, i64::MAX as f64) as i64
                        };
                        clamped as u64
                    }
                    UnOp::Sqrt => a.as_f64().max(0.0).sqrt().to_bits(),
                    UnOp::Abs => {
                        if is_float {
                            a.as_f64().abs().to_bits()
                        } else {
                            a.as_i64().wrapping_abs() as u64
                        }
                    }
                };
                TVal {
                    bits,
                    label: a.label,
                }
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                let a = self.eval(*lhs, locals, args);
                let b = self.eval(*rhs, locals, args);
                let label = self.union(a.label, b.label);
                let r = if is_float {
                    pred.eval(a.as_f64(), b.as_f64())
                } else {
                    pred.eval(a.as_i64(), b.as_i64())
                };
                TVal {
                    bits: r as u64,
                    label,
                }
            }
            InstKind::Select {
                cond,
                then_v,
                else_v,
            } => {
                let c = self.eval(*cond, locals, args);
                let chosen = if c.as_bool() {
                    self.eval(*then_v, locals, args)
                } else {
                    self.eval(*else_v, locals, args)
                };
                let label = self.union(c.label, chosen.label);
                TVal {
                    bits: chosen.bits,
                    label,
                }
            }
            InstKind::Alloca { words } => {
                let n = self.eval(*words, locals, args).as_i64();
                if n < 0 {
                    return Err(InterpError::Trap(format!(
                        "negative alloca in {}",
                        func.name
                    )));
                }
                let addr = self.mem.alloc(n as usize);
                TVal::from_i64(addr as i64)
            }
            InstKind::Load { addr, .. } => {
                let a = self.eval(*addr, locals, args);
                let mut v = self.mem.load(a.as_addr())?;
                if self.config.taint && self.config.combine_ptr_labels {
                    v.label = self.union(v.label, a.label);
                }
                v
            }
            InstKind::Store { addr, value } => {
                let a = self.eval(*addr, locals, args);
                let mut v = self.eval(*value, locals, args);
                if self.config.taint && self.config.policy != CtlFlowPolicy::Off {
                    // StoresOnly and All both taint stored values with the
                    // control context.
                    v.label = self.union(v.label, ctx);
                }
                self.mem.store(a.as_addr(), v)?;
                TVal::UNTAINTED_ZERO
            }
            InstKind::Gep {
                base,
                index,
                stride,
            } => {
                let b = self.eval(*base, locals, args);
                let i = self.eval(*index, locals, args);
                let label = self.union(b.label, i.label);
                let addr = b
                    .as_i64()
                    .wrapping_add(i.as_i64().wrapping_mul(*stride as i64));
                TVal {
                    bits: addr as u64,
                    label,
                }
            }
            InstKind::Call {
                callee,
                args: call_args,
                ..
            } => {
                let argv: Vec<TVal> = call_args
                    .iter()
                    .map(|a| self.eval(*a, locals, args))
                    .collect();
                match callee {
                    Callee::Internal(callee_id) => {
                        let (ret, incl) = self.exec_function(*callee_id, argv, Some(path), ctx)?;
                        *child_time += incl;
                        ret.unwrap_or(TVal::UNTAINTED_ZERO)
                    }
                    Callee::External(name) => {
                        self.exec_external(name, &argv, fid, path, child_time)?
                    }
                }
            }
            InstKind::Phi { .. } => unreachable!("phis handled at block entry"),
        };
        Ok(apply_ctx(self, out))
    }

    fn exec_external(
        &mut self,
        name: &str,
        argv: &[TVal],
        caller: FunctionId,
        path: PathId,
        child_time: &mut f64,
    ) -> Result<TVal, InterpError> {
        // Intrinsics resolved by the interpreter itself.
        match name {
            "pt_param_i64" => {
                let idx = argv[0].as_i64() as usize;
                let (name, value) =
                    self.params.get(idx).cloned().ok_or_else(|| {
                        InterpError::Trap(format!("pt_param_i64: no param {idx}"))
                    })?;
                let label = if self.config.taint {
                    self.labels
                        .try_base_label(&name)
                        .map_err(InterpError::LabelCapacity)?
                } else {
                    Label::EMPTY
                };
                return Ok(TVal::from_i64(value).with_label(label));
            }
            "pt_register_param" => {
                let addr = argv[0].as_addr();
                let idx = argv[1].as_i64() as usize;
                let (name, _) = self.params.get(idx).cloned().ok_or_else(|| {
                    InterpError::Trap(format!("pt_register_param: no param {idx}"))
                })?;
                if self.config.taint {
                    let label = self
                        .labels
                        .try_base_label(&name)
                        .map_err(InterpError::LabelCapacity)?;
                    self.mem.set_label(addr, label)?;
                }
                return Ok(TVal::UNTAINTED_ZERO);
            }
            "pt_taint_source" => {
                // Security policy: join source base `src#id` into the
                // value's label (may-taint); otherwise identity. Mirrors
                // `Intrinsic::TaintSource` in the decoded engine exactly.
                let v = argv[0];
                if self.security() {
                    let id = argv[1].as_i64();
                    let base = self
                        .labels
                        .try_base_label(&crate::policy::source_base_name(id))
                        .map_err(InterpError::LabelCapacity)?;
                    let label = self.labels.union(v.label, base);
                    return Ok(v.with_label(label));
                }
                return Ok(v);
            }
            "pt_sanitize" => {
                let v = argv[0];
                if self.security() {
                    return Ok(v.with_label(Label::EMPTY));
                }
                return Ok(v);
            }
            "pt_sink_check" => {
                let v = argv[0];
                if self.security() {
                    let id = argv[1].as_i64();
                    let pset = self.labels.params_of(v.label);
                    let rec = self.records.sink_checks.entry(id).or_default();
                    rec.checks += 1;
                    if !v.label.is_empty() {
                        rec.violations += 1;
                        rec.params = rec.params.union(pset);
                    }
                }
                return Ok(v);
            }
            "pt_assert_has_param" => {
                if self.config.taint {
                    let idx = argv[1].as_i64() as usize;
                    if !self.labels.params_of(argv[0].label).contains(idx) {
                        return Err(InterpError::Trap(format!(
                            "taint assertion failed: value lacks parameter #{idx} (has {:?})",
                            self.labels.params_of(argv[0].label)
                        )));
                    }
                }
                return Ok(TVal::UNTAINTED_ZERO);
            }
            "pt_assert_not_param" => {
                if self.config.taint {
                    let idx = argv[1].as_i64() as usize;
                    if self.labels.params_of(argv[0].label).contains(idx) {
                        return Err(InterpError::Trap(format!(
                            "taint assertion failed: value unexpectedly carries parameter #{idx}"
                        )));
                    }
                }
                return Ok(TVal::UNTAINTED_ZERO);
            }
            "pt_label_params" => {
                let set = self.labels.params_of(argv[0].label);
                return Ok(TVal::from_i64(set.0 as i64));
            }
            _ => {}
        }

        // Record the parameters tainting the call's arguments — the library
        // database turns these into parametric dependencies of the caller
        // (the count-argument mechanism of §5.3).
        if self.config.taint {
            let mut pset = crate::label::ParamSet::EMPTY;
            for a in argv {
                pset = pset.union(self.labels.params_of(a.label));
            }
            if !pset.is_empty() {
                let e = self
                    .records
                    .extern_args
                    .entry((caller, name.to_string()))
                    .or_default();
                *e = e.union(pset);
            }
        }

        // Externals go to the handler. Work primitives (`pt_*`) are inlined
        // work of the *calling* function: their cost lands in the caller's
        // exclusive time and they never appear as own profile entries.
        // Library routines (MPI) get pseudo entries so they receive their
        // own models (§B1).
        let mut ctx = HostCtx {
            mem: &mut self.mem,
            labels: &mut self.labels,
            params: &self.params,
            taint: self.config.taint,
        };
        let (ret, cost) = self.handler.call(name, argv, &mut ctx).map_err(|message| {
            InterpError::ExternalFailed {
                name: name.to_string(),
                message,
            }
        })?;
        if name.starts_with("pt_") {
            self.clock += cost;
            return Ok(ret);
        }
        let ext_id = self
            .extern_id(name)
            .ok_or_else(|| InterpError::UnknownExternal(name.to_string()))?;
        let probe = self
            .config
            .probe_cost
            .get(ext_id.index())
            .copied()
            .unwrap_or(0.0);
        let total = cost + probe;
        self.clock += total;
        *child_time += total;
        self.records.executed[ext_id.index()] = true;
        let ext_path = self.records.paths.intern(Some(path), ext_id);
        self.profile.record_call(ext_path, ext_id, total, total);
        Ok(ret)
    }
}
