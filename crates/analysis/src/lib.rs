//! # pt-analysis — static analyses over `pt-ir`
//!
//! This crate supplies the compile-time half of Perf-Taint (§5.1 of the
//! paper): the structural facts the dynamic taint analysis and the hybrid
//! modeler need about a program *before* it runs.
//!
//! * [`cfg`](mod@cfg) — reverse postorder and reachability over a function's CFG.
//! * [`dom`] — dominator and postdominator trees (Cooper-Harvey-Kennedy).
//!   Postdominators drive the control-flow taint scope in `pt-taint`: a
//!   tainted branch taints everything up to its immediate postdominator.
//! * [`loops`] — natural-loop detection and the loop-nesting forest
//!   (§4.1: the analysis targets natural loops; irreducible control flow is
//!   detected and reported, not silently mishandled).
//! * [`scev`] — a small scalar-evolution analysis that recognizes the
//!   canonical `phi/add/icmp` induction pattern and computes compile-time
//!   constant trip counts, enabling the static pruning of functions whose
//!   cost cannot depend on any parameter (§5.1).
//! * [`callgraph`] — call graph construction, Tarjan SCCs (recursion
//!   detection; the paper's analysis warns on recursion), topological order.
//! * [`classify`] — the interprocedural static classification: a function is
//!   *statically constant* if it contains no loops (or only constant-trip
//!   loops), calls no performance-relevant externals, and all its callees are
//!   statically constant.
//! * [`ssa_verify`] — semantic SSA checking (definitions dominate uses),
//!   complementing the structural verifier in `pt-ir`.

pub mod callgraph;
pub mod cfg;
pub mod classify;
pub mod dom;
pub mod loops;
pub mod scev;
pub mod ssa_verify;
pub mod unitkey;

pub use callgraph::CallGraph;
pub use classify::{classify_module, FunctionClass, StaticClassification};
pub use dom::DomTree;
pub use loops::{LoopForest, LoopId, LoopInfo};
pub use scev::{loop_trip_count, TripCount};
