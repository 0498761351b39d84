//! Stable content fingerprints of IR structure.
//!
//! The incremental static stage keys every per-function artifact by a
//! content hash of the function's body, not by name or index: two
//! identical functions hash identically no matter where they sit in the
//! module, and any edit — however small — changes the hash. The hasher
//! walks the IR itself rather than a printed rendering of it. Callees are
//! hashed by *name*, never by [`FunctionId`], so a function's digest pins
//! down its outgoing call names while staying independent of the callees'
//! numeric ids (binding names to ids is the job of the unit key's
//! environment digest, not this one).
//!
//! # The hasher
//!
//! [`DigestHasher`] is SipHash-1-3 with 128-bit output under a fixed key:
//! one compression round per 64-bit message word and three finalization
//! rounds. It is fed one little-endian 64-bit word per field: a tag, an
//! opcode, an operand index or a constant's bits each take a word, and a
//! string is a length word followed by its bytes in 8-byte chunks (the
//! last zero-padded). A digest is SipHash-1-3-128 of the concatenated
//! words. Tags fix the schema and every variable-length run carries its
//! length, so the encoding is injective. SipHash is a keyed PRF, not a
//! collision-resistant hash against an adversary who knows the key; the
//! caches only need 128 bits of protection from *accidental* collisions.
//! The implementation is checked against the reference SipHash-2-4-128
//! test vectors (the same code with two compression and four
//! finalization rounds).
//!
//! **No false hits.** The encoding is injective over everything the
//! printed form ([`crate::printer`]) shows, so two functions (or modules)
//! with equal digests print identically, barring a hash collision. It is
//! finer only where the text is lossy (NaN payloads; the ids of
//! instructions without a result; an internal and an external callee of
//! the same name; the entry block). A memo keyed by
//! these digests therefore never serves a unit computed for different IR.
//!
//! # Digests are values
//!
//! [`function_digest`], [`module_digest`] and [`digest_parts`] return a
//! [`Digest`], a `Copy` 128-bit value that memos key by and that other
//! digests take in as two words. Hex appears only at the boundaries that
//! need text: the server store's file names and the protocol's module
//! keys, which render a digest as 32 lowercase hex digits
//! ([`Digest::hex`]) and read one back with [`Digest::from_hex`].
//!
//! **Process-local.** Structural digests key in-memory memos only;
//! nothing persists them, so their encoding may change between releases.
//! Durable keys (the server store, protocol module keys) hash submitted
//! *text* through [`digest_parts`].

use crate::function::{BasicBlock, Function};
use crate::inst::{Callee, InstKind, Terminator};
use crate::module::Module;
use crate::types::Type;
use crate::value::{Const, Value};
use crate::FunctionId;
use std::fmt;

/// A 128-bit content digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u128);

impl Digest {
    /// The digest as 32 lowercase hex digits, most significant first (its
    /// `Display` form).
    pub fn hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Read back what [`Digest::hex`] wrote: exactly 32 lowercase hex
    /// digits, or `None`.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        let mut v: u128 = 0;
        for b in s.bytes() {
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                _ => return None,
            };
            v = v << 4 | d as u128;
        }
        Some(Digest(v))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({self})")
    }
}

/// SipHash with `C` compression rounds and `D` finalization rounds, 128-bit
/// output.
struct Sip<const C: usize, const D: usize> {
    v: [u64; 4],
    /// Message bytes compressed so far.
    len: u64,
}

impl<const C: usize, const D: usize> Sip<C, D> {
    fn new(k0: u64, k1: u64) -> Self {
        Sip {
            v: [
                k0 ^ 0x736f6d6570736575,
                k1 ^ 0x646f72616e646f6d ^ 0xee,
                k0 ^ 0x6c7967656e657261,
                k1 ^ 0x7465646279746573,
            ],
            len: 0,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Absorb one 8-byte message block.
    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        for _ in 0..C {
            self.round();
        }
        self.v[0] ^= m;
        self.len = self.len.wrapping_add(8);
    }

    /// Absorb the final block (`tail` holds the last `tail_len` < 8 message
    /// bytes) and return the 128-bit output, its first eight bytes in the
    /// low half.
    fn finish(mut self, tail: u64, tail_len: u64) -> u128 {
        let b = (self.len.wrapping_add(tail_len) & 0xff) << 56 | tail;
        self.v[3] ^= b;
        for _ in 0..C {
            self.round();
        }
        self.v[0] ^= b;
        self.v[2] ^= 0xee;
        for _ in 0..D {
            self.round();
        }
        let lo = self.v.iter().fold(0, |a, &x| a ^ x);
        self.v[1] ^= 0xdd;
        for _ in 0..D {
            self.round();
        }
        let hi = self.v.iter().fold(0, |a, &x| a ^ x);
        (hi as u128) << 64 | lo as u128
    }
}

/// The fixed SipHash key: the ASCII of `pt-taint` and `digest/1`.
const KEY: (u64, u64) = (
    u64::from_le_bytes(*b"pt-taint"),
    u64::from_le_bytes(*b"digest/1"),
);

/// Streaming SipHash-1-3-128, fed one little-endian 64-bit word per field
/// (see the module docs).
pub struct DigestHasher(Sip<1, 3>);

impl Default for DigestHasher {
    fn default() -> Self {
        DigestHasher::new()
    }
}

impl DigestHasher {
    pub fn new() -> DigestHasher {
        DigestHasher(Sip::new(KEY.0, KEY.1))
    }

    /// One field.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0.compress(w);
    }

    /// A length prefix for a variable-length run of fields.
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    /// A length word, then the bytes in 8-byte little-endian chunks, the
    /// last one zero-padded.
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.len(bytes.len());
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    /// Another digest, as two words (low half first).
    #[inline]
    pub fn digest(&mut self, d: Digest) {
        self.word(d.0 as u64);
        self.word((d.0 >> 64) as u64);
    }

    pub fn finish(self) -> Digest {
        Digest(self.0.finish(0, 0))
    }

    fn ty(&mut self, t: Type) {
        self.word(t as u64);
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Const(Const::Int(i)) => {
                self.word(0);
                self.word(i as u64);
            }
            Value::Const(Const::Float(f)) => {
                self.word(1);
                self.word(f.to_bits());
            }
            Value::Const(Const::Bool(b)) => {
                self.word(2);
                self.word(b as u64);
            }
            Value::Param(p) => {
                self.word(3);
                self.word(p.0 as u64);
            }
            Value::Inst(i) => {
                self.word(4);
                self.word(i.0 as u64);
            }
        }
    }

    fn callee(&mut self, c: &Callee, module: &Module) {
        match c {
            Callee::Internal(fid) => {
                self.word(0);
                self.str(&module.function(*fid).name);
            }
            Callee::External(name) => {
                self.word(1);
                self.str(name);
            }
        }
    }

    fn inst_kind(&mut self, kind: &InstKind, module: &Module) {
        match kind {
            InstKind::Bin { op, lhs, rhs } => {
                self.word(0);
                self.word(*op as u64);
                self.value(*lhs);
                self.value(*rhs);
            }
            InstKind::Un { op, operand } => {
                self.word(1);
                self.word(*op as u64);
                self.value(*operand);
            }
            InstKind::Cmp { pred, lhs, rhs } => {
                self.word(2);
                self.word(*pred as u64);
                self.value(*lhs);
                self.value(*rhs);
            }
            InstKind::Select {
                cond,
                then_v,
                else_v,
            } => {
                self.word(3);
                self.value(*cond);
                self.value(*then_v);
                self.value(*else_v);
            }
            InstKind::Alloca { words } => {
                self.word(4);
                self.value(*words);
            }
            InstKind::Load { addr, ty } => {
                self.word(5);
                self.ty(*ty);
                self.value(*addr);
            }
            InstKind::Store { addr, value } => {
                self.word(6);
                self.value(*addr);
                self.value(*value);
            }
            InstKind::Gep {
                base,
                index,
                stride,
            } => {
                self.word(7);
                self.value(*base);
                self.value(*index);
                self.word(*stride as u64);
            }
            InstKind::Call {
                callee,
                args,
                ret_ty,
            } => {
                self.word(8);
                self.callee(callee, module);
                self.ty(*ret_ty);
                self.len(args.len());
                for a in args {
                    self.value(*a);
                }
            }
            InstKind::Phi { ty, incomings } => {
                self.word(9);
                self.ty(*ty);
                self.len(incomings.len());
                for (b, v) in incomings {
                    self.word(b.0 as u64);
                    self.value(*v);
                }
            }
        }
    }

    fn terminator(&mut self, t: Option<&Terminator>) {
        match t {
            None => self.word(0),
            Some(Terminator::Br(b)) => {
                self.word(1);
                self.word(b.0 as u64);
            }
            Some(Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            }) => {
                self.word(2);
                self.value(*cond);
                self.word(then_bb.0 as u64);
                self.word(else_bb.0 as u64);
            }
            Some(Terminator::Ret(None)) => self.word(3),
            Some(Terminator::Ret(Some(v))) => {
                self.word(4);
                self.value(*v);
            }
            Some(Terminator::Unreachable) => self.word(5),
        }
    }

    fn block(&mut self, block: &BasicBlock, func: &Function, module: &Module) {
        match &block.name {
            None => self.word(0),
            Some(label) => {
                self.word(1);
                self.str(label);
            }
        }
        self.len(block.insts.len());
        for &iid in &block.insts {
            self.word(iid.0 as u64);
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
        self.word(func.entry.0 as u64);
        self.len(func.blocks.len());
        for block in &func.blocks {
            self.block(block, func, module);
        }
    }
}

/// The digest of a list of strings, each hashed as a length word and its
/// bytes, so `["ab", "c"]` and `["a", "bc"]` differ.
pub fn digest_parts(parts: &[&str]) -> Digest {
    let mut h = DigestHasher::new();
    for part in parts {
        h.str(part);
    }
    h.finish()
}

/// Content digest of one function's body: header, blocks, instructions
/// and terminators, with internal callees resolved to their names in
/// `module`.
pub fn function_digest(module: &Module, fid: FunctionId) -> Digest {
    let mut h = DigestHasher::new();
    h.function(module.function(fid), module);
    h.finish()
}

/// Content digest of a whole module — its name, its external
/// declarations and every function's digest, in order. Long-lived
/// in-process caches key shared artifacts by it, where two different
/// submissions may legitimately carry the same module *name*.
pub fn module_digest(module: &Module) -> Digest {
    let mut h = DigestHasher::new();
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
        h.digest(function_digest(module, fid));
    }
    h.finish()
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
        // A string's zero padding is not confused with a zero byte.
        assert_ne!(digest_parts(&["a"]), digest_parts(&["a\0"]));
    }

    fn le_word(bytes: &[u8]) -> u64 {
        let mut word = [0u8; 8];
        word[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(word)
    }

    /// SipHash-`C`-`D`-128 of a byte message through the hasher's core.
    fn sip128<const C: usize, const D: usize>(k0: u64, k1: u64, msg: &[u8]) -> [u8; 16] {
        let mut sip = Sip::<C, D>::new(k0, k1);
        let mut chunks = msg.chunks_exact(8);
        for chunk in &mut chunks {
            sip.compress(le_word(chunk));
        }
        let rest = chunks.remainder();
        sip.finish(le_word(rest), rest.len() as u64).to_le_bytes()
    }

    /// Key `00 01 .. 0f`, the reference vectors' key.
    const REF_KEY: (u64, u64) = (0x0706050403020100, 0x0f0e0d0c0b0a0908);

    #[test]
    fn the_core_matches_the_siphash_2_4_128_reference_vectors() {
        // The first eight `vectors_sip128` of the SipHash reference
        // implementation (every tail length): the message of length i is
        // the bytes 00, 01, .., i-1. Full blocks are covered against std
        // below.
        const VECTORS: [[u8; 16]; 8] = [
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93,
            ],
            [
                0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
                0xfc, 0x45,
            ],
            [
                0x81, 0x77, 0x22, 0x8d, 0xa4, 0xa4, 0x5d, 0xc7, 0xfc, 0xa3, 0x8b, 0xde, 0xf6, 0x0a,
                0xff, 0xe4,
            ],
            [
                0x9c, 0x70, 0xb6, 0x0c, 0x52, 0x67, 0xa9, 0x4e, 0x5f, 0x33, 0xb6, 0xb0, 0x29, 0x85,
                0xed, 0x51,
            ],
            [
                0xf8, 0x81, 0x64, 0xc1, 0x2d, 0x9c, 0x8f, 0xaf, 0x7d, 0x0f, 0x6e, 0x7c, 0x7b, 0xcd,
                0x55, 0x79,
            ],
            [
                0x13, 0x68, 0x87, 0x59, 0x80, 0x77, 0x6f, 0x88, 0x54, 0x52, 0x7a, 0x07, 0x69, 0x0e,
                0x96, 0x27,
            ],
            [
                0x14, 0xee, 0xca, 0x33, 0x8b, 0x20, 0x86, 0x13, 0x48, 0x5e, 0xa0, 0x30, 0x8f, 0xd7,
                0xa1, 0x5e,
            ],
            [
                0xa1, 0xf1, 0xeb, 0xbe, 0xd8, 0xdb, 0xc1, 0x53, 0xc0, 0xb8, 0x4a, 0xa6, 0x1f, 0xf0,
                0x82, 0x39,
            ],
        ];
        let msg: Vec<u8> = (0..VECTORS.len() as u8).collect();
        for (len, want) in VECTORS.iter().enumerate() {
            assert_eq!(
                &sip128::<2, 4>(REF_KEY.0, REF_KEY.1, &msg[..len]),
                want,
                "message length {len}"
            );
        }
    }

    #[test]
    fn the_core_rounds_match_std_siphash_2_4() {
        // The 64-bit variant differs from the 128-bit one only in its
        // constants; `std::hash::SipHasher` is SipHash-2-4-64.
        #[allow(deprecated)]
        use std::hash::{Hasher, SipHasher};
        let msg: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..msg.len() {
            let mut sip = Sip::<2, 4>::new(REF_KEY.0, REF_KEY.1);
            sip.v[1] ^= 0xee;
            let mut chunks = msg[..len].chunks_exact(8);
            for chunk in &mut chunks {
                sip.compress(le_word(chunk));
            }
            let b = (len as u64 & 0xff) << 56 | le_word(chunks.remainder());
            sip.v[3] ^= b;
            sip.round();
            sip.round();
            sip.v[0] ^= b;
            sip.v[2] ^= 0xff;
            for _ in 0..4 {
                sip.round();
            }
            let ours = sip.v.iter().fold(0, |a, &x| a ^ x);
            #[allow(deprecated)]
            let mut std = SipHasher::new_with_keys(REF_KEY.0, REF_KEY.1);
            std.write(&msg[..len]);
            assert_eq!(ours, std.finish(), "message length {len}");
        }
    }

    #[test]
    fn a_digest_is_siphash_1_3_128_of_its_words() {
        let mut h = DigestHasher::new();
        h.word(7);
        h.str("hello, digest");
        h.digest(Digest(u128::MAX / 3));
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend(13u64.to_le_bytes());
        bytes.extend(b"hello, digest\0\0\0");
        bytes.extend((u128::MAX / 3).to_le_bytes());
        let want = u128::from_le_bytes(sip128::<1, 3>(KEY.0, KEY.1, &bytes));
        assert_eq!(h.finish(), Digest(want));
    }

    #[test]
    fn hex_round_trips_and_rejects_other_shapes() {
        for d in [
            Digest(0),
            Digest(u128::MAX),
            digest_parts(&["module", "text"]),
        ] {
            let hex = d.hex();
            assert_eq!(hex, format!("{d}"));
            assert_eq!(hex.len(), 32);
            assert_eq!(Digest::from_hex(&hex), Some(d));
        }
        assert_eq!(Digest(0x1f).hex(), format!("{:030}1f", 0));
        for bad in [
            "",
            "0",
            &"0".repeat(31),
            &"0".repeat(33),
            &"A".repeat(32),
            &"g".repeat(32),
        ] {
            assert_eq!(Digest::from_hex(bad), None, "{bad}");
        }
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
