//! Stable content fingerprints of IR structure.
//!
//! The incremental static stage keys every per-function artifact by a
//! content hash of the function's body, not by name or index: two
//! identical functions hash identically no matter where they sit in the
//! module, and any edit — however small — changes the hash. The hasher
//! walks the IR itself rather than a printed rendering of it, feeding
//! every field as a tagged, length-prefixed record. Callees are hashed by
//! *name*, never by [`FunctionId`], so a function's digest pins down its
//! outgoing call names while staying independent of the callees' numeric
//! ids (binding names to ids is the job of the unit key's environment
//! digest, not this one).
//!
//! **No false hits.** The encoding is injective over everything the
//! printed form ([`crate::printer`]) shows, so two functions (or modules)
//! with equal digests print identically, barring a hash collision. It is
//! finer only where the text is lossy (NaN payloads; the ids of
//! instructions without a result; an internal and an external callee of
//! the same name; the entry block). A memo keyed by
//! these digests therefore never serves a unit computed for different IR.
//!
//! **Process-local.** The digests key in-memory memos only; nothing
//! persists them, so the encoding may change between releases. Durable
//! keys (the server store, protocol module keys) hash submitted *text*
//! through [`digest_parts`].
//!
//! The hash is 128-bit FNV-1a rendered as 32 hex digits — the same
//! construction as the server store's content keys. FNV is not
//! cryptographic; the cache only needs collision resistance against
//! *accidental* collisions, and 128 bits of FNV over kilobyte inputs is far
//! beyond what a build farm can collide by chance.

use crate::function::{BasicBlock, Function};
use crate::inst::{Callee, InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::{Const, Value};
use crate::FunctionId;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Streaming 128-bit FNV-1a.
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Fnv128 {
        Fnv128(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u128).wrapping_mul(FNV_PRIME);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length prefix for a variable-length run of fields.
    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A length-prefixed byte string.
    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    fn ty(&mut self, t: Type) {
        self.u8(t as u8);
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Const(Const::Int(i)) => {
                self.u8(0);
                self.u64(i as u64);
            }
            Value::Const(Const::Float(f)) => {
                self.u8(1);
                self.u64(f.to_bits());
            }
            Value::Const(Const::Bool(b)) => {
                self.u8(2);
                self.u8(b as u8);
            }
            Value::Param(p) => {
                self.u8(3);
                self.u32(p.0);
            }
            Value::Inst(i) => {
                self.u8(4);
                self.u32(i.0);
            }
        }
    }

    fn callee(&mut self, c: &Callee, module: &Module) {
        match c {
            Callee::Internal(fid) => {
                self.u8(0);
                self.str(&module.function(*fid).name);
            }
            Callee::External(name) => {
                self.u8(1);
                self.str(name);
            }
        }
    }

    fn inst_kind(&mut self, kind: &InstKind, module: &Module) {
        match kind {
            InstKind::Bin { op, lhs, rhs } => {
                self.u8(0);
                self.u8(*op as u8);
                self.value(*lhs);
                self.value(*rhs);
            }
            InstKind::Un { op, operand } => {
                self.u8(1);
                self.u8(*op as u8);
                self.value(*operand);
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                self.u8(2);
                self.u8(*pred as u8);
                self.value(*lhs);
                self.value(*rhs);
            }
            InstKind::Select {
                cond,
                then_v,
                else_v,
            } => {
                self.u8(3);
                self.value(*cond);
                self.value(*then_v);
                self.value(*else_v);
            }
            InstKind::Alloca { words } => {
                self.u8(4);
                self.value(*words);
            }
            InstKind::Load { addr, ty } => {
                self.u8(5);
                self.ty(*ty);
                self.value(*addr);
            }
            InstKind::Store { addr, value } => {
                self.u8(6);
                self.value(*addr);
                self.value(*value);
            }
            InstKind::Gep {
                base,
                index,
                stride,
            } => {
                self.u8(7);
                self.value(*base);
                self.value(*index);
                self.u32(*stride);
            }
            InstKind::Call {
                callee,
                args,
                ret_ty,
            } => {
                self.u8(8);
                self.callee(callee, module);
                self.ty(*ret_ty);
                self.len(args.len());
                for a in args {
                    self.value(*a);
                }
            }
            InstKind::Phi { ty, incomings } => {
                self.u8(9);
                self.ty(*ty);
                self.len(incomings.len());
                for (b, v) in incomings {
                    self.u32(b.0);
                    self.value(*v);
                }
            }
        }
    }

    fn terminator(&mut self, t: Option<&Terminator>) {
        match t {
            None => self.u8(0),
            Some(Terminator::Br(b)) => {
                self.u8(1);
                self.u32(b.0);
            }
            Some(Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            }) => {
                self.u8(2);
                self.value(*cond);
                self.u32(then_bb.0);
                self.u32(else_bb.0);
            }
            Some(Terminator::Ret(None)) => self.u8(3),
            Some(Terminator::Ret(Some(v))) => {
                self.u8(4);
                self.value(*v);
            }
            Some(Terminator::Unreachable) => self.u8(5),
        }
    }

    fn block(&mut self, block: &BasicBlock, func: &Function, module: &Module) {
        match &block.name {
            None => self.u8(0),
            Some(label) => {
                self.u8(1);
                self.str(label);
            }
        }
        self.len(block.insts.len());
        for &iid in &block.insts {
            self.u32(iid.0);
            self.inst_kind(&func.inst(iid).kind, module);
        }
        self.terminator(block.term.as_ref());
    }

    fn function(&mut self, func: &Function, module: &Module) {
        self.str("fn");
        self.str(&func.name);
        self.len(func.params.len());
        for (name, ty) in &func.params {
            self.str(name);
            self.ty(*ty);
        }
        self.ty(func.ret_ty);
        self.u32(func.entry.0);
        self.len(func.blocks.len());
        for block in &func.blocks {
            self.block(block, func, module);
        }
    }

    fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// 128-bit FNV-1a over length-prefixed parts, as 32 lowercase hex digits.
///
/// Length prefixes make the encoding injective: `["ab", "c"]` and
/// `["a", "bc"]` hash differently.
pub fn digest_parts(parts: &[&str]) -> String {
    let mut h = Fnv128::new();
    for part in parts {
        h.str(part);
    }
    h.hex()
}

fn function_hash(module: &Module, fid: FunctionId) -> Fnv128 {
    let mut h = Fnv128::new();
    h.function(module.function(fid), module);
    h
}

/// Content digest of one function's body: header, blocks, instructions
/// and terminators, with internal callees resolved to their names in
/// `module`.
pub fn function_digest(module: &Module, fid: FunctionId) -> String {
    function_hash(module, fid).hex()
}

/// Content digest of a whole module — its name, its external
/// declarations and every function's digest, in order. Long-lived
/// in-process caches key shared artifacts by it, where two different
/// submissions may legitimately carry the same module *name*.
pub fn module_digest(module: &Module) -> String {
    let mut h = Fnv128::new();
    h.str("module");
    h.str(&module.name);
    h.len(module.externals.len());
    for e in &module.externals {
        h.str(&e.name);
        h.len(e.arity);
        h.ty(e.ret_ty);
    }
    h.len(module.functions.len());
    for fid in module.function_ids() {
        h.bytes(&function_hash(module, fid).0.to_le_bytes());
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, CmpPred, Inst, UnOp};
    use crate::{BlockId, FunctionBuilder, InstId, ParamId};

    fn two_fn_module(konst: i64) -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("a", vec![("n".into(), Type::I64)], Type::I64);
        let v = b.add(b.param(0), konst);
        b.ret(Some(v));
        m.add_function(b.finish());
        let mut b = FunctionBuilder::new("b", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn digest_is_stable_and_edit_sensitive() {
        let m1 = two_fn_module(1);
        let m2 = two_fn_module(1);
        let m3 = two_fn_module(2);
        let d = |m: &Module, i: u32| function_digest(m, FunctionId(i));
        assert_eq!(d(&m1, 0), d(&m2, 0));
        assert_eq!(d(&m1, 1), d(&m2, 1));
        assert_ne!(d(&m1, 0), d(&m3, 0), "body edit must change the digest");
        assert_eq!(d(&m1, 1), d(&m3, 1), "untouched function digest survives");
        assert_ne!(d(&m1, 0), d(&m1, 1));
    }

    #[test]
    fn length_prefix_is_injective() {
        assert_ne!(digest_parts(&["ab", "c"]), digest_parts(&["a", "bc"]));
        assert_ne!(digest_parts(&[""]), digest_parts(&[]));
    }

    /// A module with a callee `leaf` at index 0 and the function under
    /// test `f` at index 1, plus one external. `f` has every `InstKind`:
    /// the non-phi ones in its entry block, which branches to a body block
    /// and to an exit block holding a phi and the return.
    fn every_kind() -> Module {
        let mut m = Module::new("m");
        m.declare_external("pt_work_flops", 1, Type::Void);
        let mut b = FunctionBuilder::new("leaf", vec![], Type::I64);
        b.ret(Some(Value::int(0)));
        let leaf = m.add_function(b.finish());

        let mut f = Function::new(
            "f",
            vec![("n".into(), Type::I64), ("x".into(), Type::F64)],
            Type::I64,
        );
        let n = Value::Param(ParamId(0));
        let x = Value::Param(ParamId(1));
        let kinds = vec![
            InstKind::Bin {
                op: BinOp::Add,
                lhs: n,
                rhs: Value::int(1),
            },
            InstKind::Un {
                op: UnOp::Neg,
                operand: x,
            },
            InstKind::Cmp {
                pred: CmpPred::Lt,
                lhs: n,
                rhs: Value::int(4),
            },
            InstKind::Select {
                cond: Value::Inst(InstId(2)),
                then_v: n,
                else_v: Value::int(0),
            },
            InstKind::Alloca {
                words: Value::int(8),
            },
            InstKind::Gep {
                base: Value::Inst(InstId(4)),
                index: n,
                stride: 2,
            },
            InstKind::Load {
                addr: Value::Inst(InstId(5)),
                ty: Type::I64,
            },
            InstKind::Store {
                addr: Value::Inst(InstId(5)),
                value: n,
            },
            InstKind::Call {
                callee: Callee::Internal(leaf),
                args: vec![],
                ret_ty: Type::I64,
            },
            InstKind::Call {
                callee: Callee::External("pt_work_flops".into()),
                args: vec![Value::int(3)],
                ret_ty: Type::Void,
            },
        ];
        let mut entry = BasicBlock::new();
        entry.name = Some("entry".into());
        for kind in kinds {
            entry.insts.push(InstId(f.insts.len() as u32));
            f.insts.push(Inst {
                kind,
                block: BlockId(0),
            });
        }
        entry.term = Some(Terminator::CondBr {
            cond: Value::Inst(InstId(2)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        });
        let mut body = BasicBlock::new();
        body.term = Some(Terminator::Br(BlockId(2)));
        let mut exit = BasicBlock::new();
        exit.insts.push(InstId(f.insts.len() as u32));
        f.insts.push(Inst {
            kind: InstKind::Phi {
                ty: Type::I64,
                incomings: vec![(BlockId(0), n), (BlockId(1), Value::int(7))],
            },
            block: BlockId(2),
        });
        exit.term = Some(Terminator::Ret(Some(Value::Inst(InstId(10)))));
        f.blocks = vec![entry, body, exit];
        m.add_function(f);
        m
    }

    const F: FunctionId = FunctionId(1);

    /// Apply `edit` to function `f` of [`every_kind`] and assert that both
    /// its digest and the module digest move.
    fn assert_sensitive(what: &str, edit: impl FnOnce(&mut Function)) {
        let base = every_kind();
        let mut edited = every_kind();
        edit(edited.function_mut(F));
        assert_ne!(
            function_digest(&base, F),
            function_digest(&edited, F),
            "{what} must change the function digest"
        );
        assert_ne!(
            module_digest(&base),
            module_digest(&edited),
            "{what} must change the module digest"
        );
    }

    fn kind(f: &mut Function, i: u32) -> &mut InstKind {
        &mut f.inst_mut(InstId(i)).kind
    }

    /// Every operand slot of `f`: instruction operands, then terminator
    /// operands.
    fn operands(f: &mut Function) -> Vec<&mut Value> {
        let mut out = Vec::new();
        for inst in &mut f.insts {
            match &mut inst.kind {
                InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                    out.extend([lhs, rhs])
                }
                InstKind::Un { operand, .. } => out.push(operand),
                InstKind::Select {
                    cond,
                    then_v,
                    else_v,
                } => out.extend([cond, then_v, else_v]),
                InstKind::Alloca { words } => out.push(words),
                InstKind::Load { addr, .. } => out.push(addr),
                InstKind::Store { addr, value } => out.extend([addr, value]),
                InstKind::Gep { base, index, .. } => out.extend([base, index]),
                InstKind::Call { args, .. } => out.extend(args.iter_mut()),
                InstKind::Phi { incomings, .. } => out.extend(incomings.iter_mut().map(|(_, v)| v)),
            }
        }
        for block in &mut f.blocks {
            match &mut block.term {
                Some(Terminator::CondBr { cond, .. }) => out.push(cond),
                Some(Terminator::Ret(Some(v))) => out.push(v),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn the_fixture_is_deterministic() {
        assert_eq!(
            function_digest(&every_kind(), F),
            function_digest(&every_kind(), F)
        );
        assert_eq!(module_digest(&every_kind()), module_digest(&every_kind()));
    }

    #[test]
    fn every_instruction_field_is_hashed() {
        // Operation, predicate and types.
        assert_sensitive("bin op", |f| {
            if let InstKind::Bin { op, .. } = kind(f, 0) {
                *op = BinOp::Sub;
            }
        });
        assert_sensitive("un op", |f| {
            if let InstKind::Un { op, .. } = kind(f, 1) {
                *op = UnOp::Abs;
            }
        });
        assert_sensitive("cmp predicate", |f| {
            if let InstKind::Cmp { pred, .. } = kind(f, 2) {
                *pred = CmpPred::Le;
            }
        });
        assert_sensitive("load type", |f| {
            if let InstKind::Load { ty, .. } = kind(f, 6) {
                *ty = Type::F64;
            }
        });
        assert_sensitive("call return type", |f| {
            if let InstKind::Call { ret_ty, .. } = kind(f, 8) {
                *ret_ty = Type::Void;
            }
        });
        assert_sensitive("phi type", |f| {
            if let InstKind::Phi { ty, .. } = kind(f, 10) {
                *ty = Type::F64;
            }
        });
        assert_sensitive("gep stride", |f| {
            if let InstKind::Gep { stride, .. } = kind(f, 5) {
                *stride = 3;
            }
        });
        // Every operand slot, set to every operand kind.
        let slots = operands(every_kind().function_mut(F)).len();
        assert_eq!(slots, 19);
        let replacements = [
            Value::int(99),
            Value::float(99.5),
            Value::bool(true),
            Value::Param(ParamId(1)),
            Value::Inst(InstId(9)),
        ];
        for slot in 0..slots {
            for r in replacements {
                if *operands(every_kind().function_mut(F))[slot] == r {
                    continue;
                }
                assert_sensitive(&format!("operand {slot} := {r:?}"), |f| {
                    *operands(f)[slot] = r;
                });
            }
        }
        // Integer vs float spellings of the same number.
        assert_sensitive("1 vs 1.0", |f| {
            if let InstKind::Bin { rhs, .. } = kind(f, 0) {
                *rhs = Value::float(1.0);
            }
        });
        // An operand's kind alone, with the same index.
        assert_sensitive("param 0 vs inst 0", |f| {
            if let InstKind::Bin { lhs, .. } = kind(f, 0) {
                *lhs = Value::Inst(InstId(0));
            }
        });
        // Call arity.
        assert_sensitive("extra call argument", |f| {
            if let InstKind::Call { args, .. } = kind(f, 9) {
                args.push(Value::int(0));
            }
        });
    }

    #[test]
    fn callees_are_hashed_by_name() {
        assert_sensitive("external callee name", |f| {
            if let InstKind::Call { callee, .. } = kind(f, 8) {
                *callee = Callee::External("other".into());
            }
        });
        // Renaming the callee changes its caller (the call site names it).
        let base = every_kind();
        let mut renamed = every_kind();
        renamed.function_mut(FunctionId(0)).name = "leaf2".into();
        renamed.rebuild_index();
        assert_ne!(function_digest(&base, F), function_digest(&renamed, F));
    }

    #[test]
    fn phi_terminator_and_block_fields_are_hashed() {
        assert_sensitive("phi incoming block", |f| {
            if let InstKind::Phi { incomings, .. } = kind(f, 10) {
                incomings[1].0 = BlockId(0);
            }
        });
        assert_sensitive("cond_br then target", |f| {
            if let Some(Terminator::CondBr { then_bb, .. }) = &mut f.blocks[0].term {
                *then_bb = BlockId(2);
            }
        });
        assert_sensitive("cond_br else target", |f| {
            if let Some(Terminator::CondBr { else_bb, .. }) = &mut f.blocks[0].term {
                *else_bb = BlockId(1);
            }
        });
        assert_sensitive("br target", |f| {
            f.blocks[1].term = Some(Terminator::Br(BlockId(0)))
        });
        assert_sensitive("terminator kind", |f| {
            f.blocks[1].term = Some(Terminator::Unreachable)
        });
        assert_sensitive("ret value", |f| {
            f.blocks[2].term = Some(Terminator::Ret(Some(Value::int(0))))
        });
        assert_sensitive("ret vs ret void", |f| {
            f.blocks[2].term = Some(Terminator::Ret(None))
        });
        assert_sensitive("block label text", |f| {
            f.blocks[0].name = Some("top".into())
        });
        assert_sensitive("block label presence", |f| f.blocks[0].name = None);
        assert_sensitive("added label", |f| f.blocks[1].name = Some("body".into()));
        assert_sensitive("instruction order", |f| f.blocks[0].insts.swap(0, 1));
    }

    #[test]
    fn header_fields_are_hashed() {
        assert_sensitive("function name", |f| f.name = "g".into());
        assert_sensitive("param name", |f| f.params[0].0 = "m".into());
        assert_sensitive("param type", |f| f.params[1].1 = Type::I64);
        assert_sensitive("param count", |f| f.params.push(("y".into(), Type::Ptr)));
        assert_sensitive("return type", |f| f.ret_ty = Type::F64);
    }

    #[test]
    fn module_name_and_externals_are_hashed() {
        let base = module_digest(&every_kind());
        let mut m = every_kind();
        m.name = "other".into();
        assert_ne!(base, module_digest(&m), "module name");
        let mut m = every_kind();
        m.externals[0].arity = 2;
        assert_ne!(base, module_digest(&m), "external arity");
        let mut m = every_kind();
        m.externals[0].ret_ty = Type::I64;
        assert_ne!(base, module_digest(&m), "external return type");
        let mut m = every_kind();
        m.externals[0].name = "pt_work_mem".into();
        assert_ne!(base, module_digest(&m), "external name");
        let mut m = every_kind();
        m.declare_external("MPI_Barrier", 0, Type::Void);
        assert_ne!(base, module_digest(&m), "added external");
    }

    #[test]
    fn shifted_function_ids_keep_the_caller_digest() {
        let base = every_kind();
        let caller = function_digest(&base, F);
        // Same module with an unrelated function inserted ahead of the
        // callee: `leaf` moves from id 0 to id 1 and `f` from 1 to 2.
        let mut shifted = Module::new("m");
        shifted.declare_external("pt_work_flops", 1, Type::Void);
        let mut b = FunctionBuilder::new("unrelated", vec![], Type::Void);
        b.ret(None);
        shifted.add_function(b.finish());
        shifted.add_function(base.function(FunctionId(0)).clone());
        let mut f = base.function(F).clone();
        for inst in &mut f.insts {
            if let InstKind::Call {
                callee: Callee::Internal(fid),
                ..
            } = &mut inst.kind
            {
                *fid = FunctionId(fid.0 + 1);
            }
        }
        let moved = shifted.add_function(f);
        assert_eq!(moved, FunctionId(2));
        assert_eq!(function_digest(&shifted, moved), caller);
        assert_eq!(
            function_digest(&shifted, FunctionId(1)),
            function_digest(&base, FunctionId(0))
        );
        assert_ne!(module_digest(&shifted), module_digest(&base));
    }
}
