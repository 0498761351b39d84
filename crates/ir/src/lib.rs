//! # pt-ir — a compact SSA-style compiler IR
//!
//! This crate provides the intermediate representation that the rest of
//! perf-taint-rs analyzes and executes. It plays the role LLVM IR plays in the
//! original Perf-Taint system (PPoPP'21): programs are expressed as modules of
//! functions built from basic blocks; the dynamic taint analysis
//! ([`pt-taint`](https://docs.rs/pt-taint)) interprets this IR while
//! propagating taint labels exactly the way DataFlowSanitizer instruments
//! LLVM IR.
//!
//! The IR is deliberately minimal but complete enough to express realistic
//! HPC mini-applications:
//!
//! * integer/float scalar arithmetic and comparisons,
//! * stack allocation (`alloca`), word-granular `load`/`store`, and pointer
//!   arithmetic (`gep`),
//! * direct calls to other functions in the module and to *external* symbols
//!   (the MPI simulator and the measurement runtime resolve those),
//! * `phi` nodes, conditional and unconditional branches, and returns.
//!
//! Structured construction is done through [`builder::FunctionBuilder`], which
//! offers loop helpers that emit the canonical `phi`/`add`/`icmp`/`br`
//! induction pattern recognized by the scalar-evolution analysis in
//! `pt-analysis`.
//!
//! A textual [printer] and [parser] round-trip the IR, and a
//! structural [verifier](verify) checks well-formedness (every block
//! terminated, operands in range, phi arity consistent with predecessors).
//! Full SSA dominance verification lives in `pt-analysis`, which owns the
//! dominator tree.

pub mod builder;
pub mod fingerprint;
pub mod function;
pub mod inst;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verify;

pub use builder::FunctionBuilder;
pub use function::{BasicBlock, BlockId, Function, FunctionId, ParamId};
pub use inst::{BinOp, Callee, CmpPred, Inst, InstId, InstKind, Terminator, UnOp};
pub use module::Module;
pub use types::Type;
pub use value::{Const, Value};
pub use verify::{verify_function, verify_module, VerifyError};
