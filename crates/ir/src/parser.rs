//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! The grammar is line-oriented; see the printer docs for examples. The
//! parser is used by tests (round-trip properties) and by the quickstart
//! example, which builds a program from embedded IR text.

use crate::function::{BasicBlock, BlockId, Function, ParamId};
use crate::inst::{BinOp, Callee, CmpPred, Inst, InstId, InstKind, Terminator, UnOp};
use crate::module::Module;
use crate::types::Type;
use crate::value::{Const, Value};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parse a whole module.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        let raw = lines[i];
        // The printer emits the module name as a `; module NAME` header.
        if let Some(name) = raw.trim().strip_prefix("; module ") {
            module.name = name.trim().to_string();
            i += 1;
            continue;
        }
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            i += 1;
            continue;
        }
        if let Some(rest) = line.strip_prefix("extern @") {
            // extern @name(arity) -> ty
            let (name, rest) = rest.split_once('(').ok_or_else(|| ParseError {
                line: i + 1,
                message: "malformed extern".into(),
            })?;
            let (arity_s, rest) = rest.split_once(')').ok_or_else(|| ParseError {
                line: i + 1,
                message: "malformed extern".into(),
            })?;
            let arity: usize = arity_s.trim().parse().map_err(|_| ParseError {
                line: i + 1,
                message: "bad extern arity".into(),
            })?;
            let ty_s = rest.trim().strip_prefix("->").ok_or_else(|| ParseError {
                line: i + 1,
                message: "extern missing ->".into(),
            })?;
            let ret_ty = Type::from_mnemonic(ty_s.trim()).ok_or_else(|| ParseError {
                line: i + 1,
                message: format!("unknown type {ty_s}"),
            })?;
            module.declare_external(name.trim(), arity, ret_ty);
            i += 1;
        } else if line.starts_with("func @") {
            let (func, consumed) = parse_function(&lines, i)?;
            // `add_function` asserts unique names; untrusted text gets an
            // error instead.
            if module.function_by_name(&func.name).is_some() {
                return err(i + 1, format!("duplicate function @{}", func.name));
            }
            module.add_function(func);
            i = consumed;
        } else {
            return err(i + 1, format!("unexpected line: {line}"));
        }
    }
    resolve_callees(&mut module);
    Ok(module)
}

/// Parse a single function (convenience for tests).
pub fn parse_function_text(text: &str) -> Result<Function, ParseError> {
    let lines: Vec<&str> = text.lines().collect();
    let mut start = 0;
    while start < lines.len() && strip_comment(lines[start]).trim().is_empty() {
        start += 1;
    }
    let (f, _) = parse_function(&lines, start)?;
    Ok(f)
}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// One not-yet-resolved instruction occurrence.
struct PendingInst {
    printed_id: Option<u32>,
    kind_text: String,
    block: BlockId,
    line: usize,
}

enum PendingTermKind {
    Br(BlockId),
    CondBr {
        cond: String,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    Ret(Option<String>),
    Unreachable,
}

struct PendingTerm {
    kind: PendingTermKind,
    block: BlockId,
    line: usize,
}

fn parse_function(lines: &[&str], start: usize) -> Result<(Function, usize), ParseError> {
    let header = strip_comment(lines[start]).trim();
    let rest = header.strip_prefix("func @").ok_or_else(|| ParseError {
        line: start + 1,
        message: "expected func".into(),
    })?;
    let (name, rest) = rest.split_once('(').ok_or_else(|| ParseError {
        line: start + 1,
        message: "func missing (".into(),
    })?;
    let (params_s, rest) = rest.rsplit_once(')').ok_or_else(|| ParseError {
        line: start + 1,
        message: "func missing )".into(),
    })?;
    let mut params = Vec::new();
    for p in params_s.split(',') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        let p = p.strip_prefix('%').ok_or_else(|| ParseError {
            line: start + 1,
            message: format!("param missing %: {p}"),
        })?;
        let (pname, pty) = p.split_once(':').ok_or_else(|| ParseError {
            line: start + 1,
            message: format!("param missing type: {p}"),
        })?;
        let ty = Type::from_mnemonic(pty.trim()).ok_or_else(|| ParseError {
            line: start + 1,
            message: format!("unknown type {pty}"),
        })?;
        params.push((pname.trim().to_string(), ty));
    }
    let rest = rest.trim();
    let ret_s = rest
        .strip_prefix("->")
        .ok_or_else(|| ParseError {
            line: start + 1,
            message: "func missing ->".into(),
        })?
        .trim()
        .trim_end_matches('{')
        .trim();
    let ret_ty = Type::from_mnemonic(ret_s).ok_or_else(|| ParseError {
        line: start + 1,
        message: format!("unknown return type {ret_s}"),
    })?;

    let mut func = Function::new(name.trim(), params, ret_ty);
    let mut pending: Vec<PendingInst> = Vec::new();
    let mut terms: Vec<PendingTerm> = Vec::new();
    let mut current: Option<BlockId> = None;
    let mut max_block: i64 = -1;

    let mut i = start + 1;
    loop {
        if i >= lines.len() {
            return err(start + 1, "unterminated function body");
        }
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            break;
        }
        if let Some(label) = line.strip_suffix(':') {
            let bid = parse_block_label(label.trim(), lineno)?;
            while func.blocks.len() <= bid.index() {
                func.blocks.push(BasicBlock::new());
            }
            max_block = max_block.max(bid.0 as i64);
            current = Some(bid);
            continue;
        }
        let block = current.ok_or_else(|| ParseError {
            line: lineno,
            message: "instruction before first block label".into(),
        })?;

        // Terminators.
        if let Some(t) = line.strip_prefix("br ") {
            let target = parse_block_label(t.trim(), lineno)?;
            max_block = max_block.max(target.0 as i64);
            terms.push(PendingTerm {
                kind: PendingTermKind::Br(target),
                block,
                line: lineno,
            });
            continue;
        }
        if let Some(t) = line.strip_prefix("cond_br ") {
            let parts: Vec<&str> = t.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return err(lineno, "cond_br expects cond, then, else");
            }
            let then_bb = parse_block_label(parts[1], lineno)?;
            let else_bb = parse_block_label(parts[2], lineno)?;
            max_block = max_block.max(then_bb.0.max(else_bb.0) as i64);
            terms.push(PendingTerm {
                kind: PendingTermKind::CondBr {
                    cond: parts[0].to_string(),
                    then_bb,
                    else_bb,
                },
                block,
                line: lineno,
            });
            continue;
        }
        if line == "ret" {
            terms.push(PendingTerm {
                kind: PendingTermKind::Ret(None),
                block,
                line: lineno,
            });
            continue;
        }
        if let Some(v) = line.strip_prefix("ret ") {
            terms.push(PendingTerm {
                kind: PendingTermKind::Ret(Some(v.trim().to_string())),
                block,
                line: lineno,
            });
            continue;
        }
        if line == "unreachable" {
            terms.push(PendingTerm {
                kind: PendingTermKind::Unreachable,
                block,
                line: lineno,
            });
            continue;
        }

        // Instructions, possibly with result assignment.
        let (printed_id, kind_text) = match line.split_once('=') {
            Some((lhs, rhs)) if lhs.trim().starts_with('%') => {
                let id_s = lhs.trim().trim_start_matches('%');
                let id: u32 = id_s.parse().map_err(|_| ParseError {
                    line: lineno,
                    message: format!("bad result id %{id_s}"),
                })?;
                (Some(id), rhs.trim().to_string())
            }
            _ => (None, line),
        };
        pending.push(PendingInst {
            printed_id,
            kind_text,
            block,
            line: lineno,
        });
    }

    while func.blocks.len() <= max_block as usize {
        func.blocks.push(BasicBlock::new());
    }

    // Map printed ids to arena ids (text order defines the new arena order).
    let mut id_map: HashMap<u32, InstId> = HashMap::new();
    for (idx, p) in pending.iter().enumerate() {
        if let Some(pid) = p.printed_id {
            id_map.insert(pid, InstId(idx as u32));
        }
    }
    let param_index: HashMap<String, ParamId> = func
        .params
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.clone(), ParamId(i as u32)))
        .collect();

    let parse_value = |tok: &str, lineno: usize| -> Result<Value, ParseError> {
        parse_value_token(tok, &id_map, &param_index, lineno)
    };

    for p in &pending {
        let kind = parse_inst_kind(&p.kind_text, p.line, &parse_value)?;
        let iid = InstId(func.insts.len() as u32);
        func.insts.push(Inst {
            kind,
            block: p.block,
        });
        func.blocks[p.block.index()].insts.push(iid);
    }
    for t in terms {
        let term = match t.kind {
            PendingTermKind::Br(b) => Terminator::Br(b),
            PendingTermKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } => Terminator::CondBr {
                cond: parse_value(&cond, t.line)?,
                then_bb,
                else_bb,
            },
            PendingTermKind::Ret(None) => Terminator::Ret(None),
            PendingTermKind::Ret(Some(v)) => Terminator::Ret(Some(parse_value(&v, t.line)?)),
            PendingTermKind::Unreachable => Terminator::Unreachable,
        };
        let blk = func.block_mut(t.block);
        if blk.term.is_some() {
            return err(t.line, format!("block {} terminated twice", t.block));
        }
        blk.term = Some(term);
    }
    Ok((func, i))
}

fn parse_block_label(s: &str, line: usize) -> Result<BlockId, ParseError> {
    let n = s.strip_prefix("bb").ok_or_else(|| ParseError {
        line,
        message: format!("expected block label, got {s}"),
    })?;
    let id: u32 = n.parse().map_err(|_| ParseError {
        line,
        message: format!("bad block id {s}"),
    })?;
    Ok(BlockId(id))
}

fn parse_value_token(
    tok: &str,
    id_map: &HashMap<u32, InstId>,
    params: &HashMap<String, ParamId>,
    line: usize,
) -> Result<Value, ParseError> {
    let tok = tok.trim();
    if tok == "true" {
        return Ok(Value::bool(true));
    }
    if tok == "false" {
        return Ok(Value::bool(false));
    }
    if let Some(name) = tok.strip_prefix('%') {
        if let Ok(pid) = name.parse::<u32>() {
            return id_map
                .get(&pid)
                .copied()
                .map(Value::Inst)
                .ok_or_else(|| ParseError {
                    line,
                    message: format!("undefined value %{pid}"),
                });
        }
        return params
            .get(name)
            .copied()
            .map(Value::Param)
            .ok_or_else(|| ParseError {
                line,
                message: format!("unknown parameter %{name}"),
            });
    }
    if tok.contains('.') || tok.contains('e') || tok.contains("inf") || tok.contains("nan") {
        if let Ok(f) = tok.parse::<f64>() {
            return Ok(Value::Const(Const::Float(f)));
        }
    }
    tok.parse::<i64>()
        .map(|v| Value::Const(Const::Int(v)))
        .map_err(|_| ParseError {
            line,
            message: format!("bad value token: {tok}"),
        })
}

fn parse_inst_kind(
    text: &str,
    line: usize,
    parse_value: &impl Fn(&str, usize) -> Result<Value, ParseError>,
) -> Result<InstKind, ParseError> {
    let (op, rest) = text
        .split_once(' ')
        .map(|(a, b)| (a, b.trim()))
        .unwrap_or((text, ""));
    if let Some(bop) = BinOp::from_mnemonic(op) {
        let (a, b) = split2(rest, line)?;
        return Ok(InstKind::Bin {
            op: bop,
            lhs: parse_value(a, line)?,
            rhs: parse_value(b, line)?,
        });
    }
    if let Some(uop) = UnOp::from_mnemonic(op) {
        return Ok(InstKind::Un {
            op: uop,
            operand: parse_value(rest, line)?,
        });
    }
    match op {
        "cmp" => {
            let (pred_s, rest) = rest.split_once(' ').ok_or_else(|| ParseError {
                line,
                message: "cmp missing predicate".into(),
            })?;
            let pred = CmpPred::from_mnemonic(pred_s).ok_or_else(|| ParseError {
                line,
                message: format!("unknown predicate {pred_s}"),
            })?;
            let (a, b) = split2(rest.trim(), line)?;
            Ok(InstKind::Cmp {
                pred,
                lhs: parse_value(a, line)?,
                rhs: parse_value(b, line)?,
            })
        }
        "select" => {
            let parts: Vec<&str> = rest.split(',').map(str::trim).collect();
            if parts.len() != 3 {
                return err(line, "select expects 3 operands");
            }
            Ok(InstKind::Select {
                cond: parse_value(parts[0], line)?,
                then_v: parse_value(parts[1], line)?,
                else_v: parse_value(parts[2], line)?,
            })
        }
        "alloca" => Ok(InstKind::Alloca {
            words: parse_value(rest, line)?,
        }),
        "load" => {
            let (ty_s, addr_s) = rest.split_once(',').ok_or_else(|| ParseError {
                line,
                message: "load expects type, addr".into(),
            })?;
            let ty = Type::from_mnemonic(ty_s.trim()).ok_or_else(|| ParseError {
                line,
                message: format!("unknown type {ty_s}"),
            })?;
            Ok(InstKind::Load {
                addr: parse_value(addr_s.trim(), line)?,
                ty,
            })
        }
        "store" => {
            let (v, addr) = split2(rest, line)?;
            Ok(InstKind::Store {
                addr: parse_value(addr, line)?,
                value: parse_value(v, line)?,
            })
        }
        "gep" => {
            // gep base[index * stride]
            let (base_s, rest) = rest.split_once('[').ok_or_else(|| ParseError {
                line,
                message: "gep missing [".into(),
            })?;
            let inner = rest.trim_end_matches(']');
            let (idx_s, stride_s) = inner.split_once('*').ok_or_else(|| ParseError {
                line,
                message: "gep missing stride".into(),
            })?;
            let stride: u32 = stride_s.trim().parse().map_err(|_| ParseError {
                line,
                message: "bad gep stride".into(),
            })?;
            Ok(InstKind::Gep {
                base: parse_value(base_s.trim(), line)?,
                index: parse_value(idx_s.trim(), line)?,
                stride,
            })
        }
        "call" => {
            // call ty @name(args)
            let (ty_s, rest) = rest.split_once(' ').ok_or_else(|| ParseError {
                line,
                message: "call missing type".into(),
            })?;
            let ret_ty = Type::from_mnemonic(ty_s.trim()).ok_or_else(|| ParseError {
                line,
                message: format!("unknown type {ty_s}"),
            })?;
            let rest = rest.trim();
            let name = rest.strip_prefix('@').ok_or_else(|| ParseError {
                line,
                message: "call missing @callee".into(),
            })?;
            let (name, args_s) = name.split_once('(').ok_or_else(|| ParseError {
                line,
                message: "call missing (".into(),
            })?;
            let args_s = args_s.trim_end_matches(')');
            let mut args = Vec::new();
            for a in args_s.split(',') {
                let a = a.trim();
                if a.is_empty() {
                    continue;
                }
                args.push(parse_value(a, line)?);
            }
            // All callees parse as external; `resolve_callees` rewrites
            // references to functions defined in the module.
            Ok(InstKind::Call {
                callee: Callee::External(name.trim().to_string()),
                args,
                ret_ty,
            })
        }
        "phi" => {
            // phi ty [bbA -> v, bbB -> v]
            let (ty_s, rest) = rest.split_once(' ').ok_or_else(|| ParseError {
                line,
                message: "phi missing type".into(),
            })?;
            let ty = Type::from_mnemonic(ty_s.trim()).ok_or_else(|| ParseError {
                line,
                message: format!("unknown type {ty_s}"),
            })?;
            let inner = rest.trim().trim_start_matches('[').trim_end_matches(']');
            let mut incomings = Vec::new();
            for part in inner.split(',') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let (b, v) = part.split_once("->").ok_or_else(|| ParseError {
                    line,
                    message: "phi incoming missing ->".into(),
                })?;
                incomings.push((
                    parse_block_label(b.trim(), line)?,
                    parse_value(v.trim(), line)?,
                ));
            }
            Ok(InstKind::Phi { ty, incomings })
        }
        other => err(line, format!("unknown instruction {other}")),
    }
}

fn split2(s: &str, line: usize) -> Result<(&str, &str), ParseError> {
    s.split_once(',')
        .map(|(a, b)| (a.trim(), b.trim()))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected two operands: {s}"),
        })
}

/// Rewrite `Callee::External(name)` to `Callee::Internal` where the module
/// defines a function of that name.
fn resolve_callees(module: &mut Module) {
    let names: HashMap<String, crate::function::FunctionId> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), crate::function::FunctionId(i as u32)))
        .collect();
    for f in &mut module.functions {
        for inst in &mut f.insts {
            if let InstKind::Call { callee, .. } = &mut inst.kind {
                if let Callee::External(name) = callee {
                    if let Some(&fid) = names.get(name.as_str()) {
                        *callee = Callee::Internal(fid);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::printer::{print_function, print_module};

    #[test]
    fn round_trip_simple() {
        let mut b = FunctionBuilder::new(
            "f",
            vec![("a".into(), Type::I64), ("b".into(), Type::I64)],
            Type::I64,
        );
        let s = b.add(b.param(0), b.param(1));
        let t = b.mul(s, 3i64);
        b.ret(Some(t));
        let f = b.finish();
        let text = print_function(&f, None);
        let parsed = parse_function_text(&text).unwrap();
        assert_eq!(print_function(&parsed, None), text);
    }

    #[test]
    fn round_trip_loop_with_memory() {
        let mut b = FunctionBuilder::new("sum", vec![("n".into(), Type::I64)], Type::I64);
        let buf = b.alloca(b.param(0));
        b.for_loop(0i64, b.param(0), 1i64, |b, iv| {
            let slot = b.gep(buf, iv, 1);
            b.store(slot, iv);
        });
        let first = b.load(buf, Type::I64);
        b.ret(Some(first));
        let f = b.finish();
        let text = print_function(&f, None);
        let parsed = parse_function_text(&text).unwrap();
        crate::verify::verify_function(&parsed).unwrap();
        assert_eq!(print_function(&parsed, None), text);
    }

    #[test]
    fn round_trip_module_calls() {
        let mut m = Module::new("m");
        m.declare_external("pt_work_flops", 1, Type::Void);
        let mut b = FunctionBuilder::new("leaf", vec![("x".into(), Type::I64)], Type::I64);
        let d = b.mul(b.param(0), b.param(0));
        b.ret(Some(d));
        let leaf = m.add_function(b.finish());
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        let r = b.call(leaf, vec![Value::int(4)], Type::I64);
        b.call_external("pt_work_flops", vec![r], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let text = print_module(&m);
        let parsed = parse_module(&text).unwrap();
        crate::verify::verify_module(&parsed).unwrap();
        // Call to `leaf` must resolve to an internal function again.
        let main = parsed.function_by_name("main").unwrap();
        let callees = parsed.callees(main);
        assert_eq!(callees.len(), 1);
        assert_eq!(parsed.function(callees[0]).name, "leaf");
        assert_eq!(print_module(&parsed), text);
    }

    #[test]
    fn parse_errors_are_located() {
        let text = "func @f() -> void {\nbb0:\n  bogus %1, %2\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown instruction"));
    }

    #[test]
    fn duplicate_function_is_a_located_error() {
        let text = "func @f() -> void {\nbb0:\n  ret\n}\n\nfunc @f() -> void {\nbb0:\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 6, "names the second definition");
        assert!(e.message.contains("duplicate function @f"), "{e}");
    }

    #[test]
    fn parse_if_then_else() {
        let mut b = FunctionBuilder::new("sel", vec![("a".into(), Type::I64)], Type::I64);
        let slot = b.alloca(1i64);
        let c = b.cmp(CmpPred::Lt, b.param(0), 10i64);
        b.if_then_else(
            c,
            |b| b.store(slot, Value::int(1)),
            |b| b.store(slot, Value::int(2)),
        );
        let v = b.load(slot, Type::I64);
        b.ret(Some(v));
        let f = b.finish();
        let text = print_function(&f, None);
        let parsed = parse_function_text(&text).unwrap();
        crate::verify::verify_function(&parsed).unwrap();
        assert_eq!(print_function(&parsed, None), text);
    }

    #[test]
    fn float_and_bool_constants() {
        let text = "func @g() -> f64 {\nbb0:\n  %0 = select true, 1.5, 2.5\n  ret %0\n}\n";
        let f = parse_function_text(text).unwrap();
        crate::verify::verify_function(&f).unwrap();
    }
}
