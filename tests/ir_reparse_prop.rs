//! An incremental re-parse equals a full parse. Printed app, synth and
//! 32-kernel edit texts get seeded mutations — edits inside one function
//! body, constant changes, header edits, byte flips, and deleted or
//! duplicated lines — and `perf_taint::reparse_module` against the
//! unmutated text must return what `perf_taint::parse_module` returns:
//! on success the same printed text, module digest and functions, with
//! every function it did not re-parse shared (`Arc::ptr_eq`) with the
//! base's; on error the identical `PtError`.

use perf_taint::{parse_module, reparse_module, PtError};
use proptest::prelude::*;
use pt_apps::synth::{generate, SynthConfig};
use pt_ir::fingerprint::module_digest;
use pt_ir::parser::{Base, Reparsed};
use pt_ir::printer::print_module;
use pt_ir::{FunctionId, Module};
use std::sync::{Arc, OnceLock};

/// SplitMix64 for the mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// `KERNELS` loop kernels called from `main`; kernel `edit.0` does
/// `edit.1` units of work.
const KERNELS: usize = 32;

fn edit_module(edit: Option<(usize, i64)>) -> String {
    use pt_ir::{FunctionBuilder, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    m.declare_external("pt_work_flops", 1, Type::Void);
    let mut ids = Vec::new();
    for i in 0..KERNELS {
        let flops = match edit {
            Some((k, v)) if k == i => v,
            _ => 3 + (i as i64 % 7),
        };
        let mut b = FunctionBuilder::new(
            format!("work_{i:03}"),
            vec![("n".into(), Type::I64)],
            Type::Void,
        );
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(flops)], Type::Void);
        });
        b.ret(None);
        ids.push(m.add_function(b.finish()));
    }
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    for &f in &ids {
        b.call(f, vec![n], Type::Void);
    }
    b.ret(None);
    m.add_function(b.finish());
    print_module(&m)
}

/// The printed apps and the edit module, each with its parse.
fn bases() -> &'static [(String, Reparsed)] {
    static BASES: OnceLock<Vec<(String, Reparsed)>> = OnceLock::new();
    BASES.get_or_init(|| {
        [
            print_module(&pt_apps::lulesh::build().module),
            print_module(&pt_apps::milc::build().module),
            print_module(&pt_apps::security::build().module),
            edit_module(None),
        ]
        .into_iter()
        .map(|text| {
            let parsed = reparse_module(&text, None).expect("printed apps parse");
            (text, parsed)
        })
        .collect()
    })
}

fn synth_text(seed: u64) -> String {
    let cfg = SynthConfig {
        seed,
        num_params: 3,
        num_kernels: 4,
        max_depth: 3,
        param_values: vec![2, 3, 4],
    };
    print_module(&generate(&cfg).app.module)
}

/// Bytes that steer a flip toward the grammar's own tokens.
const TOKEN_BYTES: &[u8] = b"0123456789%@,:;[]()*-> =.{}\n\tbefinr";

/// Byte ranges of the function bodies of `text` (the lines between a
/// `func` line and the next `}` line), found naively.
fn bodies(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut open = None;
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        let code = line.trim();
        if code.starts_with("func @") {
            open = Some(at + line.len());
        } else if code == "}" {
            if let Some(start) = open.take() {
                out.push((start, at));
            }
        }
        at += line.len();
    }
    out
}

/// Apply 1–2 seeded mutations.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(2) {
        let current = String::from_utf8_lossy(&bytes).into_owned();
        let spans = bodies(&current);
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .filter(|&i| i < bytes.len())
            .collect();
        let line_at = |rng: &mut Rng| {
            let i = rng.below(line_starts.len());
            let start = line_starts[i];
            let end = line_starts.get(i + 1).copied().unwrap_or(bytes.len());
            (start, end)
        };
        match rng.below(10) {
            // One byte inside one function body.
            0 | 1 if !spans.is_empty() => {
                let (start, end) = spans[rng.below(spans.len())];
                if end > start {
                    let at = start + rng.below(end - start);
                    bytes[at] = TOKEN_BYTES[rng.below(TOKEN_BYTES.len())];
                }
            }
            // One digit inside one function body: mostly a valid edit.
            2 | 3 if !spans.is_empty() => {
                let (start, end) = spans[rng.below(spans.len())];
                let digits: Vec<usize> = (start..end)
                    .filter(|&i| bytes[i].is_ascii_digit())
                    .collect();
                if !digits.is_empty() {
                    bytes[digits[rng.below(digits.len())]] = b'0' + rng.below(10) as u8;
                }
            }
            // A work constant: a valid edit of one function.
            4 | 5 => {
                const CALL: &str = "@pt_work_flops(";
                let calls: Vec<usize> = current
                    .match_indices(CALL)
                    .map(|(i, _)| i + CALL.len())
                    .collect();
                let digits = |at: usize| {
                    bytes[at..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count()
                };
                if let Some(&at) = calls.get(rng.below(calls.len())) {
                    let n = digits(at);
                    if n > 0 && bytes.get(at + n) == Some(&b')') {
                        let value = (rng.below(100_000) as u64).to_string().into_bytes();
                        bytes.splice(at..at + n, value);
                    }
                }
            }
            // One byte of a skeleton line: a `func`, `}`, `extern` or
            // comment line.
            6 => {
                let skeleton: Vec<usize> = line_starts
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let rest = &bytes[i..];
                        [&b"func @"[..], b"}", b"extern", b";"]
                            .iter()
                            .any(|p| rest.starts_with(p))
                    })
                    .collect();
                if !skeleton.is_empty() {
                    let start = skeleton[rng.below(skeleton.len())];
                    let len = bytes[start..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .unwrap_or(bytes.len() - start);
                    let at = start + rng.below(len.max(1));
                    if at < bytes.len() {
                        bytes[at] = TOKEN_BYTES[rng.below(TOKEN_BYTES.len())];
                    }
                }
            }
            // Any byte, to any value.
            7 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
            // Delete a line.
            8 if !line_starts.is_empty() => {
                let (start, end) = line_at(rng);
                bytes.drain(start..end);
            }
            // Duplicate a line somewhere.
            _ if !line_starts.is_empty() => {
                let (start, end) = line_at(rng);
                let mut line = bytes[start..end].to_vec();
                if line.last() != Some(&b'\n') {
                    line.push(b'\n');
                }
                let to = line_starts[rng.below(line_starts.len())];
                bytes.splice(to..to, line);
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Everything a parsed module holds, as text: its printed form and the
/// `Debug` of its parts (which, unlike `==`, equates NaN constants).
fn fingerprint(m: &Module) -> (String, String, String, String) {
    (
        print_module(m),
        m.name.clone(),
        format!("{:?}", m.externals),
        format!("{:?}", m.functions),
    )
}

/// `base` as a [`Base`] for re-parsing edits of `text`.
fn base_of<'b>(text: &'b str, parsed: &'b Reparsed) -> Base<'b> {
    Base {
        text,
        module: &parsed.module,
        spans: &parsed.spans,
    }
}

/// `text` re-parsed against `base` must equal its full parse; returns the
/// re-parse, whose spans the next edit in a chain is parsed against.
fn check(text: &str, base: Base, what: &str) -> Result<Reparsed, PtError> {
    let full = parse_module(text);
    let incremental = reparse_module(text, Some(base));
    match (&full, &incremental) {
        (
            Ok(want),
            Ok(Reparsed {
                module: got,
                parsed,
                ..
            }),
        ) => {
            assert_eq!(fingerprint(got), fingerprint(want), "{what}");
            assert_eq!(module_digest(got), module_digest(want), "{what}");
            for (i, f) in got.functions.iter().enumerate() {
                assert_eq!(
                    got.function_by_name(&f.name),
                    Some(FunctionId(i as u32)),
                    "{what}: name table"
                );
                let shared = base
                    .module
                    .functions
                    .get(i)
                    .is_some_and(|was| Arc::ptr_eq(f, was));
                assert_eq!(
                    shared,
                    !parsed.contains(&FunctionId(i as u32)),
                    "{what}: function {i} is shared with the base exactly when not re-parsed"
                );
            }
        }
        _ => assert_eq!(incremental.as_ref().err(), full.as_ref().err(), "{what}"),
    }
    incremental
}

/// Mutate `text` twice in a chain: the first mutant against the base, the
/// second against the first when it parsed.
fn check_chain(text: &str, parsed: &Reparsed, rng: &mut Rng, what: &str) {
    let first = mutate(text, rng);
    if let Ok(reparsed) = check(&first, base_of(text, parsed), what) {
        let second = mutate(&first, rng);
        let _ = check(
            &second,
            base_of(&first, &reparsed),
            &format!("{what}, second mutant"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reparsed_app_and_edit_texts_equal_a_full_parse(base in 0usize..4, mutation in 0u64..u64::MAX) {
        let (text, parsed) = &bases()[base];
        check_chain(text, parsed, &mut Rng(mutation), &format!("base {base}, mutation {mutation}"));
    }

    #[test]
    fn reparsed_synth_texts_equal_a_full_parse(seed in 0u64..10_000, mutation in 0u64..u64::MAX) {
        let text = synth_text(seed);
        let parsed = reparse_module(&text, None).expect("synth text parses");
        check_chain(&text, &parsed, &mut Rng(mutation), &format!("synth seed {seed}, mutation {mutation}"));
    }
}

/// `text` re-parsed by `pt_ir::parser::reparse_module` against the edit
/// module.
fn reparse_against_edit_base(text: &str) -> Reparsed {
    let (base, parsed) = &bases()[3];
    pt_ir::parser::reparse_module(text, Some(base_of(base, parsed))).expect("parses")
}

#[test]
fn a_body_edit_parses_only_the_edited_function() {
    let edited = edit_module(Some((17, 1000)));
    let reparsed = reparse_against_edit_base(&edited);
    assert_eq!(reparsed.parsed, [FunctionId(17)]);
    // Every other function is the base's own allocation.
    let (base, parsed) = &bases()[3];
    let shared = |i: usize| Arc::ptr_eq(&reparsed.module.functions[i], &parsed.module.functions[i]);
    assert!((0..=KERNELS).all(|i| shared(i) == (i != 17)));
    assert!(
        reparse_against_edit_base(base).parsed.is_empty(),
        "an unchanged text"
    );
    // Two bodies at once.
    let both = edited.replacen("@pt_work_flops(3)", "@pt_work_flops(4)", 1);
    assert_eq!(
        reparse_against_edit_base(&both).parsed,
        [FunctionId(0), FunctionId(17)]
    );
    // A re-parse's spans serve as the next base, as the server keeps them:
    // against the first edit, the second parses only what it changed.
    let (base, parsed) = &bases()[3];
    let first = pt_ir::parser::reparse_module(&edited, Some(base_of(base, parsed))).unwrap();
    let second = pt_ir::parser::reparse_module(&both, Some(base_of(&edited, &first))).unwrap();
    assert_eq!(second.parsed, [FunctionId(0)]);
}

#[test]
fn a_skeleton_edit_parses_every_function() {
    let (base, _) = &bases()[3];
    for edited in [
        base.replacen(
            "func @work_004(%n: i64) ->",
            "func @work_004(%n: i64)  ->",
            1,
        ),
        base.replacen("; module edit_app", "; module renamed", 1),
        base.replacen("extern @pt_work_flops(1)", "extern @pt_work_flops(2)", 1),
        format!("{base}func @extra() -> void {{\nbb0:\n  ret\n}}\n"),
        format!("; a comment\n{base}"),
        base.replacen("\n}\n", "\n} ; end\n", 1),
    ] {
        assert_ne!(&edited, base);
        let reparsed = reparse_against_edit_base(&edited);
        let all: Vec<FunctionId> = reparsed.module.function_ids().collect();
        assert_eq!(reparsed.parsed, all, "{edited}");
    }
}

#[test]
fn a_failing_edit_reports_the_full_parse_error() {
    let (base, parsed) = &bases()[3];
    let bad = base.replacen("  %3 = add %0, 1\n", "  %3 = bogus %0, 1\n", 2);
    let want = parse_module(&bad).unwrap_err();
    assert!(matches!(want, PtError::Parse(_)), "{want:?}");
    assert_eq!(
        reparse_module(&bad, Some(base_of(base, parsed))).unwrap_err(),
        want
    );
    // Parses, but a call's arity no longer matches: the error counts the
    // issues of every function, as a full verify does.
    let bad = base.replacen("call void @work_010(%0)", "call void @work_010()", 1);
    let want = parse_module(&bad).unwrap_err();
    assert!(matches!(want, PtError::Config(_)), "{want:?}");
    assert_eq!(
        reparse_module(&bad, Some(base_of(base, parsed))).unwrap_err(),
        want
    );
}
