//! Parser for the textual IR format produced by [`crate::printer`].
//!
//! # Grammar
//!
//! The format is line-oriented. On every line, `;` starts a comment that
//! runs to the end of the line. Space, tab, CR and form feed at either end
//! of a line and around `,`, `=`, `[`, `(`, `*` and `->` are ignored, so
//! CRLF line endings parse like LF; a mnemonic, a `cmp` predicate and the
//! type after `call` or `phi` end at a space. Blank and comment-only lines
//! are skipped. At the top level a line is one of:
//!
//! ```text
//! ; module NAME                      the module's name (the last one wins)
//! extern @NAME(ARITY) -> TYPE        an external symbol
//! func @NAME(%P: TYPE, ...) -> TYPE {
//!   ...body...
//! }
//! ```
//!
//! A body line is a block label `bbK:`, a terminator (`br bbK`,
//! `cond_br V, bbK, bbL`, `ret`, `ret V`, `unreachable`) or an
//! instruction, optionally bound to a result as `%N = ...`:
//!
//! ```text
//! add|sub|mul|div|rem|and|or|xor|shl|shr|min|max V, V
//! neg|not|itof|ftoi|sqrt|abs V
//! cmp eq|ne|lt|le|gt|ge V, V
//! select V, V, V
//! alloca V
//! load TYPE, V
//! store VALUE, ADDR
//! gep BASE[INDEX * STRIDE]
//! call TYPE @NAME(V, ...)
//! phi TYPE [bbK -> V, ...]
//! ```
//!
//! A value `V` is `true`/`false`, an integer (`i64`), a float (a token
//! with `.`, `e`, `inf`, `nan` or `NaN` that parses as `f64`), a parameter
//! `%NAME` or an instruction result `%N`. Results may be used before the
//! line that defines them (phi back-edges); the last definition of an
//! `%N` wins. Instructions are renumbered in text order. A call names a
//! function of the module if one has that name, and an external symbol
//! otherwise.
//!
//! # Limits
//!
//! Nothing the parser allocates is sized by a number in the text:
//!
//! * **Labels are dense.** A function with `L` label lines may name only
//!   `bb0` to `bb{L-1}`, as label, branch target or phi predecessor; any
//!   other label is a [`ParseError`] on the line that names it. A module
//!   that verifies has each of `bb0..bbL-1` defined exactly once, so this
//!   rejects no module that [`crate::verify_module`] would accept.
//! * **Result ids are bounded.** The table from printed `%N` to
//!   instruction is as long as the function has instruction lines; the
//!   rare larger `%N` is looked up in a sorted side list.
//!
//! Whitespace is ASCII only: a line padded with other Unicode spaces is
//! malformed.
//!
//! # Re-parsing an edit
//!
//! [`parse_module`] is one walk over the text's top-level items: the
//! `; module` header, `extern` lines and function spans (a `func` line
//! through the next `}` line), read with the line reader every body line
//! goes through. [`reparse_module`] is the same walk given a [`Base`]:
//! an earlier text, the module parsed from it and where that parse found
//! each function ([`Reparsed::spans`]). When the new text keeps the
//! base's *skeleton* (everything outside function bodies) byte for byte,
//! a function whose span is byte-identical to the base's is shared with
//! the base module (an [`Arc`] clone: a pointer copy, see "Sharing" in
//! [`crate::module`]), and only the others are parsed, against the same
//! name table, which is shared with the base too. The result then equals
//! a full parse of the new text, and
//! [`Reparsed::parsed`] names the functions that were parsed, so a caller
//! can verify just those (see [`crate::verify_functions`]). Any other
//! text, and any error, falls back to the full parse, so errors and their
//! lines are a full parse's. A text that leaves the skeleton costs, on
//! top of the full parse, the walk up to where it leaves it: byte
//! comparisons, plus parsing any changed function before that point. The
//! base's text is not re-read and nothing is shared.

use crate::function::{BasicBlock, BlockId, Function, FunctionId, ParamId};
use crate::inst::{BinOp, Callee, CmpPred, Inst, InstId, InstKind, Terminator, UnOp};
use crate::module::Module;
use crate::types::Type;
use crate::value::{Const, Value};
use std::fmt;
use std::sync::Arc;

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
    walk(text, None).map(|r| r.module)
}

/// A module parsed by [`reparse_module`].
#[derive(Debug)]
pub struct Reparsed {
    pub module: Module,
    /// The functions parsed from the text, in order. The rest are shared
    /// with the base's module; with no usable base, this is every
    /// function.
    pub parsed: Vec<FunctionId>,
    /// Where the text's functions sit: with the text and the module, what
    /// a later [`reparse_module`] needs to use this parse as its [`Base`].
    pub spans: Spans,
}

/// Where each function of a parsed text sits in it. It comes from a
/// [`Reparsed`] and goes into a later [`Base`], so the base text is not
/// read again.
#[derive(Clone, Debug, Default)]
pub struct Spans(Vec<Span>);

/// An earlier parse for [`reparse_module`] to reuse: its text, the module
/// parsed from it and the [`Reparsed::spans`] of that parse. The three
/// must come from one parse; parts of different parses make an
/// unspecified module, but never a panic.
#[derive(Clone, Copy)]
pub struct Base<'b> {
    pub text: &'b str,
    pub module: &'b Module,
    pub spans: &'b Spans,
}

impl Base<'_> {
    /// Whether `part` of the new text is there and equals the base's text
    /// at `from..to`.
    fn has(&self, part: Option<&str>, from: usize, to: usize) -> bool {
        part.is_some() && part == self.text.get(from..to)
    }
}

/// Parse a module, reusing an earlier parse. If `text` keeps the base's
/// skeleton (the `; module` header, the `extern` lines, each `func @...{`
/// and `}` line and the gaps between them) byte for byte, every function
/// whose span is unchanged is shared with the base module and only the
/// others are parsed; the result equals a full parse of `text`. On any
/// other input, on any error, and without a base, this is a full parse
/// (see "Re-parsing an edit" in the module docs).
pub fn reparse_module(text: &str, base: Option<Base>) -> Result<Reparsed, ParseError> {
    if let Some(base) = base.filter(|b| b.spans.0.len() == b.module.functions.len()) {
        if let Ok(reparsed) = walk(text, Some(&base)) {
            return Ok(reparsed);
        }
    }
    walk(text, None)
}

/// Where a function sits in its text, as byte offsets.
#[derive(Clone, Copy, Debug)]
struct Span {
    /// The start of the gap before the function: the end of the previous
    /// span, or 0.
    gap: usize,
    /// The start of the `func` line.
    start: usize,
    /// The start of the line after it.
    body: usize,
    /// The start of the `}` line.
    close: usize,
    /// The end of the `}` line, past its newline.
    end: usize,
    /// The lines from the `func` line through the `}` line.
    lines: usize,
}

/// The error [`walk`] stops with where `text` leaves the base's skeleton;
/// [`reparse_module`] then parses the text in full.
fn off_base<T>(line: usize) -> Result<T, ParseError> {
    err(line, "the skeleton differs from the base")
}

/// The one walk over a text's top-level items. With a base, a function
/// whose span equals the base's is reused and the skeleton is checked
/// against the base's as the walk goes; the module is assembled only once
/// the whole text is known to keep the skeleton, so a text that leaves it
/// shares nothing.
fn walk(text: &str, base: Option<&Base>) -> Result<Reparsed, ParseError> {
    let mut lines = Lines::new(text);
    let mut module = Module::new("parsed");
    let mut scratch = Scratch::default();
    let mut parsed = Vec::new();
    let mut spans = Vec::new();
    // With a base, the parsed functions, in the order of `parsed`.
    let mut funcs = Vec::new();
    // Where the gap before the next function starts.
    let mut gap = 0;
    while let Some(line) = lines.next_line() {
        if line.code.is_empty() {
            // The printer emits the module name as a `; module NAME` header.
            let header = line.comment.map(str::trim_ascii_end);
            if let Some(name) = header.and_then(|c| c.strip_prefix(" module ")) {
                module.name = name.trim_ascii().to_string();
            }
            continue;
        }
        if let Some(rest) = line.code.strip_prefix("extern @") {
            parse_extern(&mut module, rest, lines.line)?;
            continue;
        } else if !line.code.starts_with("func @") {
            return err(lines.line, format!("unexpected line: {}", line.code));
        }
        let (first, start, body) = (lines.line, lines.start, lines.end());
        let fid = FunctionId(spans.len() as u32);
        let func = match base {
            None => parse_function(&mut lines, line.code, &mut scratch)?,
            Some(base) => {
                let Some(&was) = base.spans.0.get(spans.len()) else {
                    return off_base(first);
                };
                if !base.has(text.get(gap..start), was.gap, was.start) {
                    return off_base(first);
                }
                let end = start + (was.end - was.start);
                if base.has(text.get(start..end), was.start, was.end)
                    && (text.as_bytes()[end - 1] == b'\n' || end == text.len())
                {
                    lines.skip(end, was.lines - 1);
                    spans.push(Span {
                        gap,
                        start,
                        body: start + (was.body - was.start),
                        close: start + (was.close - was.start),
                        end,
                        lines: was.lines,
                    });
                    gap = end;
                    continue;
                }
                if !base.has(text.get(start..body), was.start, was.body) {
                    return off_base(first);
                }
                let func = parse_function(&mut lines, line.code, &mut scratch)?;
                if !base.has(text.get(lines.start..lines.end()), was.close, was.end) {
                    return off_base(lines.line);
                }
                func
            }
        };
        spans.push(Span {
            gap,
            start,
            body,
            close: lines.start,
            end: lines.end(),
            lines: lines.line + 1 - first,
        });
        gap = lines.end();
        if base.is_some() {
            funcs.push(func);
        } else if let Err(func) = module.try_add_function(func) {
            return err(first, format!("duplicate function @{}", func.name));
        }
        parsed.push(fid);
        scratch
            .calls
            .extend(scratch.fn_calls.drain(..).map(|(i, name)| (fid.0, i, name)));
    }
    if let Some(base) = base {
        let last = base.spans.0.last().map_or(0, |span| span.end);
        if spans.len() != base.spans.0.len() || !base.has(text.get(gap..), last, base.text.len()) {
            return off_base(lines.line);
        }
        // The `func` lines are the base's, so every function has the name
        // and position it has in the base, and the base's name index holds.
        let mut funcs = parsed.iter().zip(funcs).peekable();
        module.functions.reserve_exact(base.module.functions.len());
        for (index, was) in base.module.functions.iter().enumerate() {
            let func = match funcs.next_if(|(fid, _)| fid.index() == index) {
                Some((_, func)) => Arc::new(func),
                None => Arc::clone(was),
            };
            module.functions.push(func);
        }
        module.share_index_of(base.module);
    }
    // Calls name functions that may be defined further down, so callees
    // resolve once the whole module is known. Consecutive calls often name
    // the same callee, so the last lookup is reused.
    let mut last: Option<(&str, Option<FunctionId>)> = None;
    for &(fid, inst, name) in &scratch.calls {
        let target = match last {
            Some((prev, target)) if prev == name => target,
            _ => module.function_by_name(name),
        };
        last = Some((name, target));
        let callee = match target {
            Some(target) => Callee::Internal(target),
            None => Callee::External(name.to_string()),
        };
        // Only parsed functions make calls to resolve, and those are not
        // shared yet, so this copies nothing.
        let func = module.function_mut(FunctionId(fid));
        if let InstKind::Call { callee: slot, .. } = &mut func.insts[inst as usize].kind {
            *slot = callee;
        }
    }
    Ok(Reparsed {
        module,
        parsed,
        spans: Spans(spans),
    })
}

/// Parse a single function (convenience for tests). Every callee stays
/// [`Callee::External`], since there is no module to resolve it against.
pub fn parse_function_text(text: &str) -> Result<Function, ParseError> {
    let mut lines = Lines::new(text);
    let mut scratch = Scratch::default();
    loop {
        let Some(line) = lines.next_line() else {
            return err(lines.line + 1, "expected func");
        };
        if line.code.is_empty() {
            continue;
        }
        let mut func = parse_function(&mut lines, line.code, &mut scratch)?;
        for (inst, name) in scratch.fn_calls.drain(..) {
            if let InstKind::Call { callee, .. } = &mut func.insts[inst as usize].kind {
                *callee = Callee::External(name.to_string());
            }
        }
        return Ok(func);
    }
}

/// One line of input, split at its first `;`.
struct Line<'a> {
    /// The text before the comment, trimmed.
    code: &'a str,
    /// The text after the `;`, if the line has one.
    comment: Option<&'a str>,
}

/// A forward-only reader over the input's lines (split like
/// [`str::lines`]: at `\n`, with a trailing `\r` left to trimming).
struct Lines<'a> {
    text: &'a str,
    /// Where the next line starts (one past the text's end after a last
    /// line without a newline).
    pos: usize,
    /// Where the line [`Lines::next_line`] returned last starts.
    start: usize,
    /// 1-based number of the line [`Lines::next_line`] returned last.
    line: usize,
}

impl<'a> Lines<'a> {
    fn new(text: &'a str) -> Self {
        Lines {
            text,
            pos: 0,
            start: 0,
            line: 0,
        }
    }

    /// Where the line returned last ends, past its newline.
    fn end(&self) -> usize {
        self.pos.min(self.text.len())
    }

    /// Continue at byte `pos`, `lines` lines further on.
    fn skip(&mut self, pos: usize, lines: usize) {
        self.pos = pos;
        self.line += lines;
    }

    fn next_line(&mut self) -> Option<Line<'a>> {
        let bytes = self.text.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        let start = self.pos;
        self.start = start;
        let stop = find(bytes, start, b'\n', b';');
        let code = self.text[start..stop].trim_ascii();
        let mut end = stop;
        let mut comment = None;
        if bytes.get(stop) == Some(&b';') {
            end = find(bytes, stop + 1, b'\n', b'\n');
            comment = Some(&self.text[stop + 1..end]);
        }
        self.pos = end + 1;
        self.line += 1;
        Some(Line { code, comment })
    }
}

/// The index of the first `a` or `b` byte at or after `from`, or
/// `bytes.len()`. Eight bytes at a time: in `w ^ a·0x0101..`, a byte of
/// `w` equal to `a` becomes zero, and the classic zero-byte test marks
/// the lowest zero byte exactly.
fn find(bytes: &[u8], from: usize, a: u8, b: u8) -> usize {
    const LO: u64 = u64::from_le_bytes([1; 8]);
    const HI: u64 = LO << 7;
    let (pa, pb) = (LO * a as u64, LO * b as u64);
    let mut i = from;
    while let Some(chunk) = bytes.get(i..i + 8) {
        let w = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        let (x, y) = (w ^ pa, w ^ pb);
        let hits = (x.wrapping_sub(LO) & !x | y.wrapping_sub(LO) & !y) & HI;
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    while i < bytes.len() && bytes[i] != a && bytes[i] != b {
        i += 1;
    }
    i
}

/// Per-function working storage, kept across the functions of a module so
/// its vectors are allocated once.
#[derive(Default)]
struct Scratch<'a> {
    /// Instructions in text order. Their `Value::Inst` operands still hold
    /// the printed `%N` until [`Scratch::finish`] resolves them.
    insts: Vec<Inst>,
    /// Per instruction: its printed result id, if any, and its line.
    printed: Vec<(Option<u32>, u32)>,
    /// Terminators as `(block, terminator, line)`, operands unresolved.
    terms: Vec<(BlockId, Terminator, u32)>,
    /// Label lines as `(label, line)`.
    labels: Vec<(u32, u32)>,
    /// Printed id → instruction index, for ids below the instruction count.
    ids: Vec<u32>,
    /// `(printed id, instruction index)` for larger ids, sorted.
    big_ids: Vec<(u32, u32)>,
    /// Instructions per block.
    block_lens: Vec<u32>,
    /// Operands of the call or phi being parsed.
    args: Vec<Value>,
    incomings: Vec<(BlockId, Value)>,
    /// This function's calls as `(instruction index, callee name)`.
    fn_calls: Vec<(u32, &'a str)>,
    /// The module's calls as `(function index, instruction index, name)`.
    calls: Vec<(u32, u32, &'a str)>,
}

const NO_ID: u32 = u32::MAX;

/// Parse the function whose header is `header` (the line just read) and
/// whose body follows in `lines`.
fn parse_function<'a>(
    lines: &mut Lines<'a>,
    header: &'a str,
    s: &mut Scratch<'a>,
) -> Result<Function, ParseError> {
    let start = lines.line;
    let mut func = parse_header(header, start)?;
    let mut current: Option<BlockId> = None;
    loop {
        let Some(line) = lines.next_line() else {
            return err(start, "unterminated function body");
        };
        let (code, lineno) = (line.code, lines.line);
        match code.as_bytes() {
            [] => continue,
            b"}" => break,
            [label @ .., b':'] => {
                let bid = parse_block_label(code[..label.len()].trim_ascii(), lineno)?;
                s.labels.push((bid.0, lineno as u32));
                current = Some(bid);
                continue;
            }
            _ => {}
        }
        let Some(block) = current else {
            return err(lineno, "instruction before first block label");
        };
        let mut printed = None;
        let mut text = code;
        if code.starts_with('%') {
            if let Some((lhs, rhs)) = split1(code, b'=') {
                let id_s = strip_start(lhs, b'%');
                printed = Some(parse_u32(id_s).ok_or_else(|| ParseError {
                    line: lineno,
                    message: format!("bad result id %{id_s}"),
                })?);
                text = rhs;
            }
        }
        match parse_body_line(text, printed.is_none(), lineno, &func.params, s)? {
            BodyLine::Inst(kind) => {
                s.insts.push(Inst { kind, block });
                s.printed.push((printed, lineno as u32));
            }
            BodyLine::Term(term) => s.terms.push((block, term, lineno as u32)),
        }
    }
    s.finish(&mut func)?;
    Ok(func)
}

impl Scratch<'_> {
    /// Check the body's labels, resolve its `%N` operands and move the
    /// body into `func`, leaving the scratch empty for the next function.
    fn finish(&mut self, func: &mut Function) -> Result<(), ParseError> {
        let result = self.build(func);
        self.insts.clear();
        self.printed.clear();
        self.terms.clear();
        self.labels.clear();
        result
    }

    fn build(&mut self, func: &mut Function) -> Result<(), ParseError> {
        let nlabels = self.labels.len() as u32;
        let in_range = |b: BlockId, line: u32| {
            if b.0 < nlabels {
                Ok(b)
            } else {
                err(
                    line as usize,
                    format!("block {b} out of range: the function has {nlabels} label(s)"),
                )
            }
        };
        // Blocks run up to the highest label defined or branched to.
        let mut nblocks = 0;
        for &(label, line) in &self.labels {
            nblocks = nblocks.max(in_range(BlockId(label), line)?.0 + 1);
        }
        for (_, term, line) in &self.terms {
            for target in term.successors() {
                nblocks = nblocks.max(in_range(target, *line)?.0 + 1);
            }
        }

        let n = self.insts.len();
        self.ids.clear();
        self.ids.resize(n, NO_ID);
        self.big_ids.clear();
        for (idx, &(printed, _)) in self.printed.iter().enumerate() {
            let Some(printed) = printed else { continue };
            match self.ids.get_mut(printed as usize) {
                Some(slot) => *slot = idx as u32,
                None => self.big_ids.push((printed, idx as u32)),
            }
        }
        // Text order breaks ties, so the last definition of an id wins.
        self.big_ids.sort_unstable();
        let (ids, big_ids) = (&self.ids, &self.big_ids);
        let resolve = |v: &mut Value, line: u32| -> Result<(), ParseError> {
            if let Value::Inst(printed) = *v {
                let idx = match ids.get(printed.index()) {
                    Some(&idx) => idx,
                    None => {
                        let end = big_ids.partition_point(|&(p, _)| p <= printed.0);
                        match end.checked_sub(1).map(|i| big_ids[i]) {
                            Some((p, idx)) if p == printed.0 => idx,
                            _ => NO_ID,
                        }
                    }
                };
                if idx == NO_ID {
                    return err(line as usize, format!("undefined value %{}", printed.0));
                }
                *v = Value::Inst(InstId(idx));
            }
            Ok(())
        };

        self.block_lens.clear();
        self.block_lens.resize(nblocks as usize, 0);
        for inst in &self.insts {
            self.block_lens[inst.block.index()] += 1;
        }
        func.blocks = self
            .block_lens
            .iter()
            .map(|&len| BasicBlock {
                insts: Vec::with_capacity(len as usize),
                term: None,
                name: None,
            })
            .collect();
        for (idx, (inst, &(_, line))) in self.insts.iter_mut().zip(&self.printed).enumerate() {
            match &mut inst.kind {
                InstKind::Bin { lhs, rhs, .. } | InstKind::Cmp { lhs, rhs, .. } => {
                    resolve(lhs, line)?;
                    resolve(rhs, line)?;
                }
                InstKind::Un { operand: v, .. }
                | InstKind::Alloca { words: v }
                | InstKind::Load { addr: v, .. } => resolve(v, line)?,
                InstKind::Select {
                    cond,
                    then_v,
                    else_v,
                } => {
                    resolve(cond, line)?;
                    resolve(then_v, line)?;
                    resolve(else_v, line)?;
                }
                InstKind::Store { addr, value } => {
                    resolve(addr, line)?;
                    resolve(value, line)?;
                }
                InstKind::Gep { base, index, .. } => {
                    resolve(base, line)?;
                    resolve(index, line)?;
                }
                InstKind::Call { args, .. } => {
                    for a in args {
                        resolve(a, line)?;
                    }
                }
                InstKind::Phi { incomings, .. } => {
                    for (b, v) in incomings {
                        in_range(*b, line)?;
                        resolve(v, line)?;
                    }
                }
            }
            func.blocks[inst.block.index()]
                .insts
                .push(InstId(idx as u32));
        }
        func.insts = self.insts.drain(..).collect();

        for (block, mut term, line) in self.terms.drain(..) {
            match &mut term {
                Terminator::CondBr { cond: v, .. } | Terminator::Ret(Some(v)) => resolve(v, line)?,
                Terminator::Br(_) | Terminator::Ret(None) | Terminator::Unreachable => {}
            }
            let blk = &mut func.blocks[block.index()];
            if blk.term.is_some() {
                return err(line as usize, format!("block {block} terminated twice"));
            }
            blk.term = Some(term);
        }
        Ok(())
    }
}

/// `func @NAME(%P: TYPE, ...) -> TYPE {` (the brace is optional).
fn parse_header(header: &str, line: usize) -> Result<Function, ParseError> {
    let malformed = |message: String| ParseError { line, message };
    let rest = header
        .strip_prefix("func @")
        .ok_or_else(|| malformed("expected func".into()))?;
    let (name, rest) = split1(rest, b'(').ok_or_else(|| malformed("func missing (".into()))?;
    let close = rest
        .bytes()
        .rposition(|b| b == b')')
        .ok_or_else(|| malformed("func missing )".into()))?;
    let params_s = &rest[..close];
    let mut params = Vec::with_capacity(params_s.bytes().filter(|&b| b == b',').count() + 1);
    for p in Fields::new(params_s, b',') {
        if p.is_empty() {
            continue;
        }
        let p = p
            .strip_prefix('%')
            .ok_or_else(|| malformed(format!("param missing %: {p}")))?;
        let (pname, pty) =
            split1(p, b':').ok_or_else(|| malformed(format!("param missing type: {p}")))?;
        let ty =
            Type::from_mnemonic(pty).ok_or_else(|| malformed(format!("unknown type {pty}")))?;
        params.push((pname.trim_ascii().to_string(), ty));
    }
    let ret_s = rest[close + 1..]
        .trim_ascii()
        .strip_prefix("->")
        .ok_or_else(|| malformed("func missing ->".into()))?;
    let ret_s = strip_end(ret_s, b'{').trim_ascii();
    let ret_ty = Type::from_mnemonic(ret_s)
        .ok_or_else(|| malformed(format!("unknown return type {ret_s}")))?;
    Ok(Function::new(name.trim_ascii(), params, ret_ty))
}

/// `extern @NAME(ARITY) -> TYPE`, given the text after `extern @`.
fn parse_extern(module: &mut Module, rest: &str, line: usize) -> Result<(), ParseError> {
    let malformed = || ParseError {
        line,
        message: "malformed extern".into(),
    };
    let (name, rest) = rest.split_once('(').ok_or_else(malformed)?;
    let (arity_s, rest) = rest.split_once(')').ok_or_else(malformed)?;
    let arity: usize = arity_s.trim_ascii().parse().map_err(|_| ParseError {
        line,
        message: "bad extern arity".into(),
    })?;
    let ty_s = rest
        .trim_ascii()
        .strip_prefix("->")
        .ok_or_else(|| ParseError {
            line,
            message: "extern missing ->".into(),
        })?
        .trim_ascii();
    let ret_ty = Type::from_mnemonic(ty_s).ok_or_else(|| ParseError {
        line,
        message: format!("unknown type {ty_s}"),
    })?;
    module.declare_external(name.trim_ascii(), arity, ret_ty);
    Ok(())
}

/// What a body line holds, besides a label.
enum BodyLine {
    Inst(InstKind),
    Term(Terminator),
}

/// One instruction or terminator. A line bound to a result (`%N = ...`)
/// holds an instruction, so `terminators` is false for it.
fn parse_body_line<'a>(
    text: &'a str,
    terminators: bool,
    line: usize,
    params: &[(String, Type)],
    s: &mut Scratch<'a>,
) -> Result<BodyLine, ParseError> {
    let (op, rest) = match split1(text, b' ') {
        Some((op, rest)) => (op, Some(rest)),
        None => (text, None),
    };
    if terminators {
        if let Some(term) = parse_terminator(op, rest, line, params)? {
            return Ok(BodyLine::Term(term));
        }
    }
    parse_inst_kind(op, rest.unwrap_or(""), line, params, s).map(BodyLine::Inst)
}

/// `br bbK`, `cond_br V, bbK, bbL`, `ret`, `ret V` or `unreachable`;
/// `None` for any other `op`.
fn parse_terminator(
    op: &str,
    rest: Option<&str>,
    line: usize,
    params: &[(String, Type)],
) -> Result<Option<Terminator>, ParseError> {
    let value = |tok: &str| parse_value(tok, params, line);
    Ok(Some(match (op, rest) {
        ("br", Some(target)) => Terminator::Br(parse_block_label(target, line)?),
        ("cond_br", Some(rest)) => {
            let [cond, then_bb, else_bb] = split3(rest).ok_or_else(|| ParseError {
                line,
                message: "cond_br expects cond, then, else".into(),
            })?;
            let then_bb = parse_block_label(then_bb, line)?;
            let else_bb = parse_block_label(else_bb, line)?;
            Terminator::CondBr {
                cond: value(cond)?,
                then_bb,
                else_bb,
            }
        }
        ("ret", v) => Terminator::Ret(v.map(value).transpose()?),
        ("unreachable", None) => Terminator::Unreachable,
        _ => return Ok(None),
    }))
}

/// The instruction `op rest`.
fn parse_inst_kind<'a>(
    op: &str,
    rest: &'a str,
    line: usize,
    params: &[(String, Type)],
    s: &mut Scratch<'a>,
) -> Result<InstKind, ParseError> {
    let value = |tok: &str| parse_value(tok, params, line);
    let ty = |tok: &str| {
        Type::from_mnemonic(tok).ok_or_else(|| ParseError {
            line,
            message: format!("unknown type {tok}"),
        })
    };
    let missing = |what: &str| ParseError {
        line,
        message: what.into(),
    };
    if let Some(op) = BinOp::from_mnemonic(op) {
        let (a, b) = split2(rest, line)?;
        return Ok(InstKind::Bin {
            op,
            lhs: value(a)?,
            rhs: value(b)?,
        });
    }
    if let Some(op) = UnOp::from_mnemonic(op) {
        return Ok(InstKind::Un {
            op,
            operand: value(rest)?,
        });
    }
    Ok(match op {
        "cmp" => {
            let (pred_s, rest) =
                split1(rest, b' ').ok_or_else(|| missing("cmp missing predicate"))?;
            let pred = CmpPred::from_mnemonic(pred_s).ok_or_else(|| ParseError {
                line,
                message: format!("unknown predicate {pred_s}"),
            })?;
            let (a, b) = split2(rest, line)?;
            InstKind::Cmp {
                pred,
                lhs: value(a)?,
                rhs: value(b)?,
            }
        }
        "select" => {
            let [c, t, e] = split3(rest).ok_or_else(|| missing("select expects 3 operands"))?;
            InstKind::Select {
                cond: value(c)?,
                then_v: value(t)?,
                else_v: value(e)?,
            }
        }
        "alloca" => InstKind::Alloca {
            words: value(rest)?,
        },
        "load" => {
            let (ty_s, addr) =
                split1(rest, b',').ok_or_else(|| missing("load expects type, addr"))?;
            InstKind::Load {
                ty: ty(ty_s)?,
                addr: value(addr)?,
            }
        }
        "store" => {
            let (v, addr) = split2(rest, line)?;
            InstKind::Store {
                addr: value(addr)?,
                value: value(v)?,
            }
        }
        "gep" => {
            // gep base[index * stride]
            let (base, rest) = split1(rest, b'[').ok_or_else(|| missing("gep missing ["))?;
            let (index, stride) =
                split1(strip_end(rest, b']'), b'*').ok_or_else(|| missing("gep missing stride"))?;
            let stride =
                parse_u32(stride.trim_ascii_end()).ok_or_else(|| missing("bad gep stride"))?;
            InstKind::Gep {
                base: value(base)?,
                index: value(index)?,
                stride,
            }
        }
        "call" => {
            // call ty @name(args)
            let (ty_s, rest) = split1(rest, b' ').ok_or_else(|| missing("call missing type"))?;
            let ret_ty = ty(ty_s)?;
            let name = rest
                .strip_prefix('@')
                .ok_or_else(|| missing("call missing @callee"))?;
            let (name, args) = split1(name, b'(').ok_or_else(|| missing("call missing ("))?;
            s.args.clear();
            for a in Fields::new(strip_end(args, b')'), b',') {
                if !a.is_empty() {
                    s.args.push(value(a)?);
                }
            }
            // The callee resolves once the module is complete.
            s.fn_calls.push((s.insts.len() as u32, name.trim_ascii()));
            InstKind::Call {
                callee: Callee::External(String::new()),
                args: s.args.as_slice().to_vec(),
                ret_ty,
            }
        }
        "phi" => {
            // phi ty [bbA -> v, bbB -> v]
            let (ty_s, rest) = split1(rest, b' ').ok_or_else(|| missing("phi missing type"))?;
            let ty = ty(ty_s)?;
            s.incomings.clear();
            let inner = strip_end(strip_start(rest, b'[').trim_ascii_start(), b']');
            for part in Fields::new(inner, b',') {
                if part.is_empty() {
                    continue;
                }
                let b = part.as_bytes();
                let arrow = (1..b.len())
                    .find(|&i| b[i - 1] == b'-' && b[i] == b'>')
                    .ok_or_else(|| missing("phi incoming missing ->"))?;
                s.incomings.push((
                    parse_block_label(part[..arrow - 1].trim_ascii(), line)?,
                    value(part[arrow + 1..].trim_ascii_start())?,
                ));
            }
            InstKind::Phi {
                ty,
                incomings: s.incomings.as_slice().to_vec(),
            }
        }
        _ => return err(line, format!("unknown instruction {op}")),
    })
}

/// `bbK`.
fn parse_block_label(s: &str, line: usize) -> Result<BlockId, ParseError> {
    if !s.as_bytes().starts_with(b"bb") {
        return err(line, format!("expected block label, got {s}"));
    }
    parse_u32(&s[2..]).map(BlockId).ok_or_else(|| ParseError {
        line,
        message: format!("bad block id {s}"),
    })
}

/// One operand token, trimmed. A `%N` operand comes back as
/// `Value::Inst(InstId(N))`, the printed id, for [`Scratch::build`] to
/// resolve.
fn parse_value(tok: &str, params: &[(String, Type)], line: usize) -> Result<Value, ParseError> {
    match tok {
        "true" => return Ok(Value::bool(true)),
        "false" => return Ok(Value::bool(false)),
        _ => {}
    }
    if let Some(name) = tok.strip_prefix('%') {
        if let Some(id) = parse_u32(name) {
            return Ok(Value::Inst(InstId(id)));
        }
        return match params.iter().position(|(n, _)| n == name) {
            Some(i) => Ok(Value::Param(ParamId(i as u32))),
            None => err(line, format!("unknown parameter %{name}")),
        };
    }
    // The printer writes a NaN constant as `NaN`.
    let b = tok.as_bytes();
    let floaty = (0..b.len()).any(|i| {
        matches!(b[i], b'.' | b'e')
            || b[i..].starts_with(b"inf")
            || b[i..].starts_with(b"nan")
            || b[i..].starts_with(b"NaN")
    });
    if floaty {
        if let Ok(f) = tok.parse::<f64>() {
            return Ok(Value::Const(Const::Float(f)));
        }
    }
    match parse_i64(b) {
        Some(v) => Ok(Value::Const(Const::Int(v))),
        None => err(line, format!("bad value token: {tok}")),
    }
}

/// `s` split at the first `delim`, without the whitespace around the
/// delimiter. `s` starts with no whitespace, and so do both parts.
fn split1(s: &str, delim: u8) -> Option<(&str, &str)> {
    let at = s.bytes().position(|b| b == delim)?;
    Some((s[..at].trim_ascii_end(), s[at + 1..].trim_ascii_start()))
}

/// `a, b`: split at the first comma.
fn split2(s: &str, line: usize) -> Result<(&str, &str), ParseError> {
    split1(s, b',').ok_or_else(|| ParseError {
        line,
        message: format!("expected two operands: {s}"),
    })
}

/// `a, b, c`: exactly three comma-separated parts.
fn split3(s: &str) -> Option<[&str; 3]> {
    let mut parts = Fields::new(s, b',');
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(a), Some(b), Some(c), None) => Some([a, b, c]),
        _ => None,
    }
}

/// The fields of `s` between `delim` bytes, trimmed (like `str::split`:
/// an empty `s` is one empty field).
struct Fields<'a> {
    rest: Option<&'a str>,
    delim: u8,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str, delim: u8) -> Self {
        Fields {
            rest: Some(s),
            delim,
        }
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let s = self.rest?;
        Some(match split1(s, self.delim) {
            Some((field, rest)) => {
                self.rest = Some(rest);
                field
            }
            None => {
                self.rest = None;
                s.trim_ascii()
            }
        })
    }
}

/// `s` without any leading `b` bytes.
fn strip_start(s: &str, b: u8) -> &str {
    &s[s.bytes().take_while(|&c| c == b).count()..]
}

/// `s` without any trailing `b` bytes.
fn strip_end(s: &str, b: u8) -> &str {
    &s[..s.len() - s.bytes().rev().take_while(|&c| c == b).count()]
}

/// Decimal digits after an optional `+`, like `str::parse::<u32>`.
fn parse_u32(s: &str) -> Option<u32> {
    let b = s.as_bytes();
    let digits = match b.first() {
        Some(b'+') => &b[1..],
        _ => b,
    };
    u32::try_from(parse_digits(digits)?).ok()
}

/// A nonempty run of decimal digits.
fn parse_digits(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() {
        return None;
    }
    let mut n: u64 = 0;
    for &d in digits {
        let d = d.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(d as u64)?;
    }
    Some(n)
}

/// Decimal digits after an optional sign, like `str::parse::<i64>`.
fn parse_i64(b: &[u8]) -> Option<i64> {
    match b.first() {
        Some(b'-') => 0i64.checked_sub_unsigned(parse_digits(&b[1..])?),
        Some(b'+') => i64::try_from(parse_digits(&b[1..])?).ok(),
        _ => i64::try_from(parse_digits(b)?).ok(),
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
    fn special_float_constants_round_trip() {
        let text =
            "; module m\nfunc @g() -> f64 {\nbb0:\n  %0 = add NaN, 1.0\n  %1 = add inf, -inf\n  \
                    %2 = add -0.0, 5e-324\n  %3 = add %0, -1e-310\n  ret %3\n}\n";
        let m = parse_module(text).unwrap();
        let printed = print_module(&m);
        assert_eq!(print_module(&parse_module(&printed).unwrap()), printed);
        let consts: Vec<f64> = m.functions[0]
            .insts
            .iter()
            .flat_map(|inst| match inst.kind {
                InstKind::Bin { lhs, rhs, .. } => [lhs, rhs],
                _ => unreachable!(),
            })
            .filter_map(|v| match v {
                Value::Const(Const::Float(f)) => Some(f),
                _ => None,
            })
            .collect();
        let [nan, one, inf, neg_inf, neg_zero, tiny, sub] = consts[..] else {
            panic!("{consts:?}");
        };
        assert!(nan.is_nan());
        assert_eq!((one, inf, neg_inf), (1.0, f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert_eq!(tiny.to_bits(), 1, "the smallest subnormal");
        assert!(sub.is_subnormal() && sub < 0.0);
        // The printed forms parse back to the same bits.
        let again = parse_module(&printed).unwrap();
        assert_eq!(
            format!("{:?}", again.functions[0].insts),
            format!("{:?}", m.functions[0].insts)
        );
    }

    #[test]
    fn float_and_bool_constants() {
        let text = "func @g() -> f64 {\nbb0:\n  %0 = select true, 1.5, 2.5\n  ret %0\n}\n";
        let f = parse_function_text(text).unwrap();
        crate::verify::verify_function(&f).unwrap();
    }
}
