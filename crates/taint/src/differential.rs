//! The differential-testing contract between the two execution engines.
//!
//! The decode-once engine ([`crate::interp::Interpreter`]) must be
//! **observably indistinguishable** from the legacy tree-walker
//! ([`crate::reference::ReferenceInterpreter`]): given the same module,
//! prepared facts, handler, parameters, and configuration, the two must
//! produce bit-identical [`RunOutput`]s — same return value (bits *and*
//! label id), same simulated clock (exact `f64` bits: both engines perform
//! the identical sequence of floating-point additions), same instruction
//! count, identical [`TaintRecords`](crate::records::TaintRecords) (loop sinks, branch coverage, extern
//! argument sets, executed/visited maps, interned call paths), identical
//! call-path [`crate::profile::Profile`], and an identical label table
//! (same node count, same parameter set per label id — the engines must
//! even perform their label *unions in the same order*). Errors must match
//! exactly too.
//!
//! The contract has **no carve-outs**: malformed inputs are covered too.
//! A function entered with fewer arguments than parameters is a defined
//! [`InterpError::ArityMismatch`] in both engines (checked at frame
//! setup), functions that fail SSA verification execute with the naive
//! zero-initialized frame in the decoded engine (matching the reference's
//! zeroed locals), and the post-decode pass pipeline (superinstruction
//! fusion, leaf-call inlining, register allocation) is constructed to be
//! observably invisible — fused pairs retire the same instruction counts,
//! clock additions, and label unions in the same order.
//!
//! [`compare_outputs`] / [`compare_results`] check that contract and
//! return a human-readable description of the first divergence. The
//! differential suites (`crates/taint/tests/differential.rs` for IR-level
//! edge cases and phi parallel-copy hazards, `differential_prop.rs` for
//! property-generated programs, `tests/engine_differential.rs` for the
//! full evaluation apps) and the `taint_throughput` bench scenario are
//! built on them.

use crate::interp::{InterpError, RunOutput};

/// Compare two run results (success or failure) for bit-identity.
pub fn compare_results(
    a: &Result<RunOutput, InterpError>,
    b: &Result<RunOutput, InterpError>,
) -> Result<(), String> {
    match (a, b) {
        (Ok(a), Ok(b)) => compare_outputs(a, b),
        (Err(a), Err(b)) => {
            if a == b {
                Ok(())
            } else {
                Err(format!("errors differ: {a:?} vs {b:?}"))
            }
        }
        (Ok(_), Err(e)) => Err(format!("first succeeded, second failed: {e}")),
        (Err(e), Ok(_)) => Err(format!("first failed ({e}), second succeeded")),
    }
}

/// Compare two successful runs for bit-identity (see the module docs for
/// the exact contract). Returns the first divergence found.
pub fn compare_outputs(a: &RunOutput, b: &RunOutput) -> Result<(), String> {
    if a.ret != b.ret {
        return Err(format!("return values differ: {:?} vs {:?}", a.ret, b.ret));
    }
    if a.time.to_bits() != b.time.to_bits() {
        return Err(format!(
            "simulated clocks differ: {:.17e} vs {:.17e}",
            a.time, b.time
        ));
    }
    if a.insts != b.insts {
        return Err(format!(
            "instruction counts differ: {} vs {}",
            a.insts, b.insts
        ));
    }

    // Records: the maps are ordered (BTreeMap), so element-wise comparison
    // is deterministic.
    if a.records.loops != b.records.loops {
        return Err(first_map_divergence(
            "loop records",
            &a.records.loops,
            &b.records.loops,
        ));
    }
    if a.records.branches != b.records.branches {
        return Err(first_map_divergence(
            "branch records",
            &a.records.branches,
            &b.records.branches,
        ));
    }
    if a.records.extern_args != b.records.extern_args {
        return Err(first_map_divergence(
            "extern-arg records",
            &a.records.extern_args,
            &b.records.extern_args,
        ));
    }
    if a.records.sink_checks != b.records.sink_checks {
        return Err(first_map_divergence(
            "sink-check records",
            &a.records.sink_checks,
            &b.records.sink_checks,
        ));
    }
    if a.records.executed != b.records.executed {
        return Err("executed-function maps differ".to_string());
    }
    if a.records.visited_blocks != b.records.visited_blocks {
        return Err("visited-block maps differ".to_string());
    }

    // Call paths: same interning order ⇒ same table.
    if a.records.paths.len() != b.records.paths.len() {
        return Err(format!(
            "path tables differ in size: {} vs {}",
            a.records.paths.len(),
            b.records.paths.len()
        ));
    }
    for p in a.records.paths.iter() {
        if a.records.paths.func_of(p) != b.records.paths.func_of(p)
            || a.records.paths.parent_of(p) != b.records.paths.parent_of(p)
        {
            return Err(format!("path {} interned differently", p.0));
        }
    }

    // Profile: entries keyed by (now comparable) path ids; timing must be
    // exactly equal.
    let pa: Vec<_> = a.profile.iter().collect();
    let pb: Vec<_> = b.profile.iter().collect();
    if pa.len() != pb.len() {
        return Err(format!(
            "profiles differ in size: {} vs {}",
            pa.len(),
            pb.len()
        ));
    }
    for ((ka, ea), (kb, eb)) in pa.iter().zip(&pb) {
        if ka != kb || ea != eb {
            return Err(format!(
                "profile entry differs at path {}: {ea:?} vs {eb:?}",
                ka.0
            ));
        }
    }

    // Label table: same union order ⇒ same node ids and parameter sets.
    if a.labels.len() != b.labels.len() {
        return Err(format!(
            "label tables differ in size: {} vs {}",
            a.labels.len(),
            b.labels.len()
        ));
    }
    if a.labels.param_names() != b.labels.param_names() {
        return Err("label tables registered different parameters".to_string());
    }
    for i in 0..a.labels.len() {
        let l = crate::label::Label(i as u16);
        if a.labels.params_of(l) != b.labels.params_of(l) {
            return Err(format!("label {i} covers different parameter sets"));
        }
    }
    Ok(())
}

fn first_map_divergence<K: std::fmt::Debug + Ord, V: std::fmt::Debug + PartialEq>(
    what: &str,
    a: &std::collections::BTreeMap<K, V>,
    b: &std::collections::BTreeMap<K, V>,
) -> String {
    for (k, va) in a {
        match b.get(k) {
            None => return format!("{what}: key {k:?} only in first"),
            Some(vb) if va != vb => {
                return format!("{what}: {k:?} differs: {va:?} vs {vb:?}");
            }
            _ => {}
        }
    }
    for k in b.keys() {
        if !a.contains_key(k) {
            return format!("{what}: key {k:?} only in second");
        }
    }
    format!("{what} differ (no element divergence found)")
}
