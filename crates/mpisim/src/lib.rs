//! # pt-mpisim — the simulated MPI substrate
//!
//! Stands in for the real clusters of the paper's evaluation (Piz Daint /
//! Skylake, Table 1). Four pieces:
//!
//! * [`config`] — the machine model: rank layout (`p`, ranks-per-node `r`),
//!   latency/bandwidth, per-flop and per-word costs, and the §C1 memory-
//!   contention model (`1 + a·log₂r + b·log₂²r` on memory-bound work).
//! * [`comm`] — analytical communication cost models (Hockney point-to-point,
//!   logarithmic-tree collectives per Thakur et al.), the source of the
//!   `log₂ p` shapes the modeler recovers.
//! * [`libdb`] — the §5.3 library database, one static table of routines:
//!   each row's cost model, whether its cost depends on the implicit
//!   parameter `p`, whether it takes a message count, and whether it is a
//!   taint source (the communicator-size query writes a `p`-labeled value).
//! * [`handler`] — the [`pt_taint::ExternalHandler`] gluing it all to the
//!   interpreter. We simulate SPMD execution by running one representative
//!   rank and charging communication analytically; this preserves exactly
//!   the scaling shapes the evaluation studies.

pub mod comm;
pub mod config;
pub mod handler;
pub mod libdb;

pub use config::{ContentionModel, MachineConfig};
pub use handler::MpiHandler;
pub use libdb::{CostModel, Routine, MPI_ROUTINES};
