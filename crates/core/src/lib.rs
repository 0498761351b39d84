//! # perf-taint — hybrid taint-based performance modeling
//!
//! A from-scratch Rust reproduction of *"Extracting Clean Performance
//! Models from Tainted Programs"* (Copik et al., PPoPP 2021): dynamic taint
//! analysis discovers which program parameters can influence every loop's
//! trip count; the resulting **compute-volume dependency structures** act as
//! a white-box prior for a black-box empirical modeler, improving its
//! **cost** (fewer, cheaper experiments — §A), **quality** (no noise-induced
//! false dependencies — §B), and **validity** (detection of contention and
//! experiment-design defects — §C).
//!
//! ## Pipeline (Fig. 2 of the paper)
//!
//! ```text
//! annotate parameters → static analysis (prune constant functions, §5.1)
//!   → dynamic taint run (loop-exit sinks, control-flow taint, §5.2)
//!   → dependency extraction (volume composition §4.2–4.3 + library DB §5.3)
//!   → reduced experiment design (§A2) + selective instrumentation (§A3)
//!   → measurements → hybrid PMNF modeling (restricted search space, §4.5)
//!   → validation (contention §C1, qualitative changes §C2)
//! ```
//!
//! ## The staged session API
//!
//! The pipeline's stages have different costs and different inputs: the
//! static stage depends only on the module, while every taint run also
//! depends on parameter values. [`Session`] (built by [`SessionBuilder`])
//! owns that split — it memoizes the static artifacts and shares them
//! across any number of [`Session::taint_run`] calls or a parallel
//! [`Session::analyze_batch`] fan-out:
//!
//! ```text
//! let session = SessionBuilder::new(&module, "main").build();
//! let statics = session.static_analysis();          // stage 1, memoized
//! let a = session.taint_run(params_a)?;             // stages 2–3
//! let results = session.analyze_batch(&param_sets); // parallel stages 2–3
//! ```
//!
//! One-shot use is just a throwaway session (`SessionBuilder::new(&m,
//! entry).build().taint_run(params)`). Long-lived callers keep a
//! [`StaticSlot`] beside each module they hold, so every session over it
//! (under any taint policy) shares one static stage, and share across
//! module *edits* through the per-function unit memo of [`incremental`]
//! ([`SessionBuilder::statics`], [`SessionBuilder::units`]). Every
//! fallible API returns the unified
//! [`PtError`]; substrate error types (`InterpError`, `ParseError`) never
//! leak.
//!
//! ## Crate map
//!
//! * [`session`] — [`Session`] / [`SessionBuilder`]: memoized static stage
//!   ([`StaticArtifacts`], shareable through a [`StaticSlot`]), staged
//!   taint runs, parallel batching, and the [`Analysis`] artifact they
//!   produce.
//! * [`incremental`] — the content-addressed per-function unit memo
//!   ([`FunctionArtifactCache`], [`ReuseStats`]) behind in-process edit
//!   loops.
//! * [`error`] — [`PtError`], the workspace-wide error enum.
//! * [`volume`] — [`volume::DepStructure`], the parameter monomial sets
//!   that compute volumes (Claims 1–2, Theorem 1) project to.
//! * [`deps`] — from taint records to per-function dependency structures.
//! * [`census`] — function/loop censuses (Tables 2 and 3).
//! * [`design`] — experiment-design reduction (§A2).
//! * [`hybrid`] — the restricted PMNF modeler and black-box comparison (§B1).
//! * [`validate`] — contention (§C1) and segmentation (§C2) detection.
//! * [`report`] — text rendering of every artifact.
//!
//! The substrates live in sibling crates: `pt-ir` (the compiler IR),
//! `pt-analysis` (dominators/loops/SCEV), `pt-taint` (the DFSan-style
//! runtime + interpreter), `pt-extrap` (the Extra-P reimplementation),
//! `pt-mpisim` (the simulated MPI machine), and `pt-measure` (the Score-P
//! stand-in).

pub mod census;
pub mod deps;
pub mod design;
pub mod error;
pub mod hybrid;
pub mod incremental;
pub mod report;
pub mod session;
pub mod validate;
pub mod volume;

pub use census::{FuncKind, Table2, Table3};
pub use design::{design_experiments, DesignReport};
pub use error::PtError;
pub use hybrid::{compare_against_truth, model_functions, FunctionModel, ModelComparison};
pub use incremental::{FunctionArtifactCache, ReuseStats};
pub use report::{
    analysis_summary, static_summary, BenchReport, RunStatus, ScenarioRecord, BENCH_SCHEMA_VERSION,
};
pub use session::{
    parse_module, reparse_module, Analysis, Session, SessionBuilder, StaticArtifacts, StaticSlot,
};
pub use validate::{
    detect_contention, detect_segmentation, BranchObservations, BranchSide, ContentionFinding,
    SegmentationWarning,
};
pub use volume::DepStructure;
// The taint-policy selector is part of the session-facing API (it picks
// the policy a session's taint runs execute under; the static stage does
// not read it), so re-export it here.
pub use pt_taint::PolicyKind;
