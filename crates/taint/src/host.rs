//! External-call handling.
//!
//! The IR calls external symbols for everything the "machine" provides: MPI
//! routines, work-charging primitives, I/O. The interpreter resolves a small
//! set of taint intrinsics itself (parameter sources and test assertions);
//! everything else is dispatched to an [`ExternalHandler`] — `pt-mpisim`
//! provides the production handler with the MPI library database of §5.3.
//!
//! ## Pure-work primitives
//!
//! Most host calls a measurement sweep makes only charge time:
//! `pt_work_flops(n)` and `pt_work_mem(n)`. A handler may declare such a
//! resolved `pt_*` primitive *pure work* through
//! [`ExternalHandler::work_rate`]. The declaration is a promise about
//! `call_token` for that token, for the whole run:
//!
//! * it returns [`TVal::UNTAINTED_ZERO`] and never fails;
//! * it touches neither memory, the label table nor the handler's own
//!   state;
//! * it costs exactly [`work_cost`]`(args, rate)` seconds: the first
//!   argument clamped at 0 (a missing one reads as 0), times the rate, as
//!   one `f64` product.
//!
//! The decode-once engine reads every rate once per run and charges those
//! calls in place, with no handler call. It still records the arguments'
//! parameter sets under a taint policy, exactly like any other host call.
//! The reference engine keeps calling [`ExternalHandler::call`] by name
//! for every symbol, so the differential suites hold the in-place charge
//! to the handler's own answer bit for bit. Library routines (`MPI_*`)
//! are never pure work: each call gets its own profile entry.

use crate::label::LabelTable;
use crate::memory::{Memory, TVal};

/// Mutable interpreter state an external handler may touch: memory (e.g.
/// `MPI_Comm_size` writes the communicator size through a pointer) and the
/// label table (library-database taint sources attach implicit-parameter
/// labels, §5.3).
pub struct HostCtx<'a> {
    pub mem: &'a mut Memory,
    pub labels: &'a mut LabelTable,
    /// Marked run parameters: `(name, value)` in registration order.
    pub params: &'a [(String, i64)],
    /// Whether taint propagation is enabled for this run.
    pub taint: bool,
}

/// Outcome of an external call: the returned value and the simulated cost
/// in seconds charged to the calling context.
pub type ExternResult = Result<(TVal, f64), String>;

/// Resolver for external symbols.
///
/// Handlers that dispatch on the symbol name per call should also
/// implement [`ExternalHandler::resolve`] / [`ExternalHandler::call_token`]:
/// the decode-once engine resolves every external symbol **once per run**
/// and then calls through the dense token, skipping the per-call string
/// match entirely (the reference engine keeps calling [`ExternalHandler::call`]
/// by name, which pins the two dispatch paths against each other in the
/// differential suites).
pub trait ExternalHandler {
    fn call(&mut self, name: &str, args: &[TVal], ctx: &mut HostCtx<'_>) -> ExternResult;

    /// Pre-resolve `name` to a dense dispatch token. `None` (the default)
    /// means the engine falls back to by-name [`ExternalHandler::call`]
    /// for that symbol.
    fn resolve(&self, _name: &str) -> Option<u32> {
        None
    }

    /// Call a primitive previously resolved by [`ExternalHandler::resolve`].
    /// Must be observably identical to `call` with the resolving name.
    fn call_token(&mut self, _token: u32, _args: &[TVal], _ctx: &mut HostCtx<'_>) -> ExternResult {
        unreachable!("call_token requires resolve() to have returned Some")
    }

    /// The per-unit rate of a resolved primitive that is pure work (see
    /// the [module docs](self)), or `None` (the default) if `call_token`
    /// must run. Asked once per run, for `pt_*` primitives only.
    fn work_rate(&self, _token: u32) -> Option<f64> {
        None
    }
}

/// The cost in seconds of a pure-work call: the first argument clamped at
/// 0 (0 when absent), times `rate`. The one definition both the handlers'
/// `call_token` arms and the engine's in-place charge use.
#[inline]
pub fn work_cost(args: &[TVal], rate: f64) -> f64 {
    args.first().map_or(0, |a| a.as_i64().max(0)) as f64 * rate
}

/// A handler that rejects every call — for pure compute tests.
pub struct NullHandler;

impl ExternalHandler for NullHandler {
    fn call(&mut self, name: &str, _args: &[TVal], _ctx: &mut HostCtx<'_>) -> ExternResult {
        Err(format!("unresolved external symbol {name}"))
    }
}

/// A minimal handler for tests and examples without MPI: charges time for
/// `pt_work_flops` / `pt_work_mem` and swallows `pt_print_i64`.
pub struct WorkOnlyHandler {
    /// Seconds per flop charged by `pt_work_flops`.
    pub flop_cost: f64,
    /// Seconds per word charged by `pt_work_mem`.
    pub mem_cost: f64,
    /// Values printed via `pt_print_i64` (inspectable by tests).
    pub printed: Vec<i64>,
}

impl Default for WorkOnlyHandler {
    fn default() -> Self {
        WorkOnlyHandler {
            flop_cost: 1e-9,
            mem_cost: 4e-9,
            printed: Vec::new(),
        }
    }
}

/// Token values for [`WorkOnlyHandler`]'s primitives.
const WO_FLOPS: u32 = 0;
const WO_MEM: u32 = 1;
const WO_PRINT: u32 = 2;

impl ExternalHandler for WorkOnlyHandler {
    fn call(&mut self, name: &str, args: &[TVal], ctx: &mut HostCtx<'_>) -> ExternResult {
        match self.resolve(name) {
            Some(token) => self.call_token(token, args, ctx),
            None => Err(format!("WorkOnlyHandler: unknown external {name}")),
        }
    }

    fn resolve(&self, name: &str) -> Option<u32> {
        Some(match name {
            "pt_work_flops" => WO_FLOPS,
            "pt_work_mem" => WO_MEM,
            "pt_print_i64" => WO_PRINT,
            _ => return None,
        })
    }

    fn call_token(&mut self, token: u32, args: &[TVal], _ctx: &mut HostCtx<'_>) -> ExternResult {
        match token {
            WO_FLOPS => Ok((TVal::UNTAINTED_ZERO, work_cost(args, self.flop_cost))),
            WO_MEM => Ok((TVal::UNTAINTED_ZERO, work_cost(args, self.mem_cost))),
            WO_PRINT => {
                if let Some(a) = args.first() {
                    self.printed.push(a.as_i64());
                }
                Ok((TVal::UNTAINTED_ZERO, 0.0))
            }
            _ => unreachable!("token not produced by resolve()"),
        }
    }

    fn work_rate(&self, token: u32) -> Option<f64> {
        match token {
            WO_FLOPS => Some(self.flop_cost),
            WO_MEM => Some(self.mem_cost),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_handler_charges_time() {
        let mut h = WorkOnlyHandler::default();
        let mut mem = Memory::new();
        let mut labels = LabelTable::new();
        let params = vec![];
        let mut ctx = HostCtx {
            mem: &mut mem,
            labels: &mut labels,
            params: &params,
            taint: true,
        };
        let (_, cost) = h
            .call("pt_work_flops", &[TVal::from_i64(1000)], &mut ctx)
            .unwrap();
        assert!((cost - 1000.0 * h.flop_cost).abs() < 1e-15);
        let (_, c2) = h
            .call("pt_work_mem", &[TVal::from_i64(10)], &mut ctx)
            .unwrap();
        assert!((c2 - 10.0 * h.mem_cost).abs() < 1e-15);
        h.call("pt_print_i64", &[TVal::from_i64(7)], &mut ctx)
            .unwrap();
        assert_eq!(h.printed, vec![7]);
        assert!(h.call("MPI_Barrier", &[], &mut ctx).is_err());
    }

    #[test]
    fn null_handler_rejects() {
        let mut h = NullHandler;
        let mut mem = Memory::new();
        let mut labels = LabelTable::new();
        let params = vec![];
        let mut ctx = HostCtx {
            mem: &mut mem,
            labels: &mut labels,
            params: &params,
            taint: true,
        };
        assert!(h.call("anything", &[], &mut ctx).is_err());
    }
}
