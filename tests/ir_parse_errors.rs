//! The IR text language at its edges: a table of malformed inputs with the
//! exact `(line, message)` each one reports, the layouts that must parse
//! like the printer's own output (CRLF, comments, blank lines, tabs), and
//! block labels far past the ones a function defines.

use pt_ir::parser::{parse_function_text, parse_module, ParseError};
use pt_ir::printer::print_module;

/// One malformed input per error the parser names, with where it says the
/// problem is.
const MALFORMED: &[(&str, &str, usize, &str)] = &[
    (
        "unknown instruction",
        "func @f() -> void {\nbb0:\n  bogus %1, %2\n  ret\n}\n",
        3,
        "unknown instruction bogus",
    ),
    (
        "duplicate function",
        "func @f() -> void {\nbb0:\n  ret\n}\n\nfunc @f() -> void {\nbb0:\n  ret\n}\n",
        6,
        "duplicate function @f",
    ),
    (
        "undefined value",
        "func @f() -> i64 {\nbb0:\n  %0 = add %7, 1\n  ret %0\n}\n",
        3,
        "undefined value %7",
    ),
    (
        "unknown parameter",
        "func @f(%n: i64) -> i64 {\nbb0:\n  %0 = add %m, 1\n  ret %0\n}\n",
        3,
        "unknown parameter %m",
    ),
    (
        "bad value token",
        "func @f() -> i64 {\nbb0:\n  %0 = add 1x, 1\n  ret %0\n}\n",
        3,
        "bad value token: 1x",
    ),
    (
        "unterminated body",
        "func @f() -> void {\nbb0:\n  ret\n",
        1,
        "unterminated function body",
    ),
    (
        "instruction before the first label",
        "func @f() -> void {\n  ret\n}\n",
        2,
        "instruction before first block label",
    ),
    (
        "block terminated twice",
        "func @f() -> void {\nbb0:\n  ret\n  ret\n}\n",
        4,
        "block bb0 terminated twice",
    ),
    (
        "wrong cond_br arity",
        "func @f() -> void {\nbb0:\n  cond_br true, bb0\n}\n",
        3,
        "cond_br expects cond, then, else",
    ),
    (
        "malformed extern",
        "extern @foo -> void\n",
        1,
        "malformed extern",
    ),
];

#[test]
fn malformed_inputs_name_their_line_and_problem() {
    for &(case, text, line, message) in MALFORMED {
        let got = parse_module(text).expect_err(case);
        assert_eq!(
            got,
            ParseError {
                line,
                message: message.to_string()
            },
            "{case}"
        );
    }
}

/// A module in the printer's layout.
const PRINTED: &str = "; module m
extern @g(1) -> void

func @f(%n: i64, %x: f64) -> i64 {
bb0:
  %0 = add %n, 1
  call void @g(%0)
  %2 = cmp lt %0, 10
  cond_br %2, bb1, bb2
bb1:
  br bb2
bb2:
  %3 = phi i64 [bb0 -> %0, bb1 -> -3]
  ret %3
}

";

/// The same module with CRLF line endings, comments, blank lines and tabs.
const UNTIDY: &str = "; module m\r
; a comment line\r
\textern @g(1) -> void ; trailing comment\r
\r
\r
func @f(%n: i64, %x: f64) -> i64 { ; header comment\r
bb0: ; entry\r
\t%0 = add %n,\t1\r
\r
\tcall void @g(%0)   \r
  %2 = cmp lt %0, 10\t; compare\r
\tcond_br %2,\tbb1,\tbb2\r
bb1:\r
\t; nothing here\r
\tbr bb2\r
\tbb2:\r
\t%4 = phi i64 [bb0 -> %0,\tbb1 -> -3]\r
\tret %4\r
}\r
";

#[test]
fn crlf_comments_blank_lines_and_tabs_parse_like_the_printed_layout() {
    let printed = parse_module(PRINTED).expect("printed layout parses");
    pt_ir::verify_module(&printed).expect("printed layout verifies");
    assert_eq!(
        print_module(&printed),
        PRINTED,
        "printed layout round-trips"
    );
    let untidy = parse_module(UNTIDY).expect("untidy layout parses");
    pt_ir::verify_module(&untidy).expect("untidy layout verifies");
    assert_eq!(print_module(&untidy), PRINTED);
}

#[test]
fn a_single_function_parses_after_leading_comments() {
    let text = "\n; leading comment\n\nfunc @f() -> void {\nbb0:\n  ret\n}\n";
    let f = parse_function_text(text).expect("parses");
    assert_eq!(f.name, "f");
    assert_eq!(f.blocks.len(), 1);
}

/// A label past the ones a function defines is an error on the line that
/// names it, before anything is sized by it.
#[test]
fn labels_past_the_defined_ones_are_located_errors() {
    let as_label = "func @f() -> void {\nbb4294967295:\n  ret\n}\n";
    let e = parse_module(as_label).expect_err("label out of range");
    assert_eq!(e.line, 2, "{e}");
    assert!(e.message.contains("bb4294967295 out of range"), "{e}");

    let as_target = "func @f() -> void {\nbb0:\n  br bb4294967295\n}\n";
    let e = parse_module(as_target).expect_err("target out of range");
    assert_eq!(e.line, 3, "{e}");
    assert!(e.message.contains("bb4294967295 out of range"), "{e}");

    let cond_target =
        "func @f() -> void {\nbb0:\n  cond_br true, bb0, bb4294967295\nbb1:\n  ret\n}\n";
    let e = parse_module(cond_target).expect_err("target out of range");
    assert_eq!(e.line, 3, "{e}");

    let phi_pred = "func @f() -> i64 {\nbb0:\n  %0 = phi i64 [bb7 -> 1]\n  ret %0\n}\n";
    let e = parse_module(phi_pred).expect_err("phi predecessor out of range");
    assert_eq!(e.line, 3, "{e}");
}

/// Result ids need not be dense: a large `%N` resolves like a small one.
#[test]
fn large_result_ids_resolve() {
    let text = "func @f() -> i64 {\nbb0:\n  %4294967295 = add 1, 2\n  %9 = add %4294967295, 3\n  \
                %4000000000 = add %9, %4294967295\n  ret %4000000000\n}\n";
    let f = parse_function_text(text).expect("parses");
    pt_ir::verify_function(&f).expect("verifies");
    let again = "func @f() -> i64 {\nbb0:\n  %0 = add 1, 2\n  %1 = add %0, 3\n  \
                 %2 = add %1, %0\n  ret %2\n}\n";
    assert_eq!(f, parse_function_text(again).unwrap());
}

/// Bodies that used to exhaust memory or spin forever are plain errors: a
/// function with no labels (the parser once grew its blocks toward
/// `usize::MAX`) and a result typed by itself (the verifier's type
/// inference never returned).
#[test]
fn a_bodiless_function_and_a_self_typed_result_are_errors() {
    let bodiless = "func @f() -> void {\n}\n";
    let f = parse_module(bodiless).expect("parses");
    assert!(f.functions[0].blocks.is_empty());
    let e = perf_taint::parse_module(bodiless).expect_err("does not verify");
    assert!(e.to_string().contains("function has no blocks"), "{e}");

    let cyclic = "func @f() -> i64 {\nbb0:\n  %0 = add %0, 1\n  ret %0\n}\n";
    let e = perf_taint::parse_module(cyclic).expect_err("does not verify");
    assert!(
        e.to_string().contains("the type of %0 depends on itself"),
        "{e}"
    );
}
