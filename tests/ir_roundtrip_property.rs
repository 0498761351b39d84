//! Property-based round-trip tests of the IR text format: printing a
//! generated module and parsing it back must preserve structure exactly
//! (print∘parse∘print is a fixed point), and the parsed module must pass
//! both the structural verifier and SSA dominance checking.

use proptest::prelude::*;
use pt_apps::synth::{generate, SynthConfig};
use pt_ir::printer::print_module;

/// Parsing renumbers instructions into textual (block) order, so the first
/// `print∘parse` normalizes the module; from then on the text must be a
/// fixed point, and every intermediate module must verify (structurally and
/// SSA-wise).
fn round_trip(seed: u64) {
    let cfg = SynthConfig {
        seed,
        num_params: 3,
        num_kernels: 3,
        max_depth: 3,
        param_values: vec![2, 3, 4],
    };
    let synth = generate(&cfg);
    let text = print_module(&synth.app.module);
    let parsed = pt_ir::parser::parse_module(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{text}"));
    pt_ir::verify_module(&parsed)
        .unwrap_or_else(|e| panic!("seed {seed}: verifier rejected round-trip: {e:?}"));
    for f in &parsed.functions {
        pt_analysis::ssa_verify::verify_ssa(f, &pt_analysis::dom::DomTree::dominators(f))
            .unwrap_or_else(|e| panic!("seed {seed}: SSA violation after round-trip: {e:?}"));
    }
    assert_eq!(
        parsed.functions.len(),
        synth.app.module.functions.len(),
        "seed {seed}"
    );
    // Normalized text is a fixed point.
    let normalized = print_module(&parsed);
    let reparsed = pt_ir::parser::parse_module(&normalized)
        .unwrap_or_else(|e| panic!("seed {seed}: re-parse failed: {e}"));
    pt_ir::verify_module(&reparsed).unwrap();
    assert_eq!(
        print_module(&reparsed),
        normalized,
        "seed {seed}: normalized text not a fixed point"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn print_parse_fixed_point(seed in 0u64..10_000) {
        round_trip(seed);
    }
}

#[test]
fn lulesh_module_round_trips() {
    let app = pt_apps::lulesh::build();
    let text = print_module(&app.module);
    let parsed = pt_ir::parser::parse_module(&text).expect("parse mini-lulesh");
    assert_eq!(parsed.functions.len(), app.module.functions.len());
    pt_ir::verify_module(&parsed).expect("round-tripped mini-lulesh verifies");
    let normalized = print_module(&parsed);
    let reparsed = pt_ir::parser::parse_module(&normalized).unwrap();
    assert_eq!(print_module(&reparsed), normalized);
}

#[test]
fn milc_module_round_trips() {
    let app = pt_apps::milc::build();
    let text = print_module(&app.module);
    let parsed = pt_ir::parser::parse_module(&text).expect("parse mini-milc");
    assert_eq!(parsed.functions.len(), app.module.functions.len());
    pt_ir::verify_module(&parsed).expect("round-tripped mini-milc verifies");
    let normalized = print_module(&parsed);
    let reparsed = pt_ir::parser::parse_module(&normalized).unwrap();
    assert_eq!(print_module(&reparsed), normalized);
}
