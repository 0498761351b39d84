//! The production [`ExternalHandler`]: resolves MPI routines against the
//! analytical cost models and the library database, and charges work
//! primitives against the machine model (including memory contention, §C1).
//!
//! Message counts are in 8-byte words (the IR's word size).

use crate::comm;
use crate::config::MachineConfig;
use crate::libdb::{LibraryDb, TaintEffect};
use pt_taint::{work_cost, ExternResult, ExternalHandler, HostCtx, TVal};

/// MPI + work-primitive handler over a simulated machine.
pub struct MpiHandler {
    pub config: MachineConfig,
    pub db: LibraryDb,
    /// Values printed via `pt_print_i64` (inspectable by tests).
    pub printed: Vec<i64>,
}

impl MpiHandler {
    pub fn new(config: MachineConfig) -> MpiHandler {
        MpiHandler {
            config,
            db: LibraryDb::mpi_default(),
            printed: Vec::new(),
        }
    }

    fn bytes(words: i64) -> usize {
        (words.max(0) as usize) * 8
    }
}

/// Dense dispatch tokens ([`ExternalHandler::resolve`] /
/// [`ExternalHandler::call_token`]): the decode-once engine resolves each
/// symbol once per run, so the hot path never string-matches a name.
mod token {
    pub const WORK_FLOPS: u32 = 0;
    pub const WORK_MEM: u32 = 1;
    pub const PRINT_I64: u32 = 2;
    pub const COMM_SIZE: u32 = 3;
    pub const COMM_RANK: u32 = 4;
    pub const P2P: u32 = 5;
    pub const WAITALL: u32 = 6;
    pub const BARRIER: u32 = 7;
    pub const ALLREDUCE: u32 = 8;
    pub const REDUCE: u32 = 9;
    pub const BCAST: u32 = 10;
    pub const ALLGATHER: u32 = 11;
    pub const GATHER: u32 = 12;
}

impl ExternalHandler for MpiHandler {
    fn call(&mut self, name: &str, args: &[TVal], ctx: &mut HostCtx<'_>) -> ExternResult {
        match self.resolve(name) {
            Some(t) => self.call_token(t, args, ctx),
            None => Err(format!("MpiHandler: unknown external {name}")),
        }
    }

    fn resolve(&self, name: &str) -> Option<u32> {
        Some(match name {
            "pt_work_flops" => token::WORK_FLOPS,
            "pt_work_mem" => token::WORK_MEM,
            "pt_print_i64" => token::PRINT_I64,
            "MPI_Comm_size" => token::COMM_SIZE,
            "MPI_Comm_rank" => token::COMM_RANK,
            // The four point-to-point routines share one cost model.
            "MPI_Send" | "MPI_Recv" | "MPI_Isend" | "MPI_Irecv" => token::P2P,
            "MPI_Waitall" => token::WAITALL,
            "MPI_Barrier" => token::BARRIER,
            "MPI_Allreduce" => token::ALLREDUCE,
            "MPI_Reduce" => token::REDUCE,
            "MPI_Bcast" => token::BCAST,
            "MPI_Allgather" => token::ALLGATHER,
            "MPI_Gather" => token::GATHER,
            _ => return None,
        })
    }

    fn call_token(&mut self, tok: u32, args: &[TVal], ctx: &mut HostCtx<'_>) -> ExternResult {
        let cfg = &self.config;
        let arg_i64 = |i: usize| args.get(i).map(|a| a.as_i64()).unwrap_or(0);
        match tok {
            // ---- work primitives --------------------------------------
            token::WORK_FLOPS => Ok((TVal::UNTAINTED_ZERO, work_cost(args, cfg.flop_time))),
            token::WORK_MEM => {
                // Memory-bound work experiences node-level contention.
                let rate = cfg.contended_mem_word_time();
                Ok((TVal::UNTAINTED_ZERO, work_cost(args, rate)))
            }
            token::PRINT_I64 => {
                self.printed.push(arg_i64(0));
                Ok((TVal::UNTAINTED_ZERO, 0.0))
            }

            // ---- MPI environment ---------------------------------------
            token::COMM_SIZE => {
                let addr = args
                    .first()
                    .ok_or("MPI_Comm_size needs a pointer argument")?
                    .as_addr();
                let mut val = TVal::from_i64(cfg.ranks as i64);
                // Library database: this routine is a source of the implicit
                // parameter `p` (§5.3).
                if ctx.taint {
                    if let Some(entry) = self.db.get("MPI_Comm_size") {
                        if let TaintEffect::WritesImplicitParam { arg: 0 } = entry.effect {
                            let label = ctx.labels.base_label("p");
                            val = val.with_label(label);
                        }
                    }
                }
                ctx.mem.store(addr, val).map_err(|e| e.to_string())?;
                Ok((TVal::UNTAINTED_ZERO, 50e-9))
            }
            token::COMM_RANK => {
                let addr = args
                    .first()
                    .ok_or("MPI_Comm_rank needs a pointer argument")?
                    .as_addr();
                ctx.mem
                    .store(addr, TVal::from_i64(cfg.rank as i64))
                    .map_err(|e| e.to_string())?;
                Ok((TVal::UNTAINTED_ZERO, 50e-9))
            }

            // ---- point-to-point ----------------------------------------
            token::P2P => {
                let t = if cfg.ranks <= 1 {
                    0.0
                } else {
                    comm::p2p(cfg, Self::bytes(arg_i64(0)))
                };
                Ok((TVal::UNTAINTED_ZERO, t))
            }
            token::WAITALL => Ok((TVal::UNTAINTED_ZERO, 100e-9)),

            // ---- collectives -------------------------------------------
            token::BARRIER => Ok((TVal::UNTAINTED_ZERO, comm::barrier(cfg))),
            token::ALLREDUCE => Ok((
                TVal::UNTAINTED_ZERO,
                comm::allreduce(cfg, Self::bytes(arg_i64(0))),
            )),
            token::REDUCE => Ok((
                TVal::UNTAINTED_ZERO,
                comm::reduce(cfg, Self::bytes(arg_i64(0))),
            )),
            token::BCAST => Ok((
                TVal::UNTAINTED_ZERO,
                comm::bcast(cfg, Self::bytes(arg_i64(0))),
            )),
            token::ALLGATHER => Ok((
                TVal::UNTAINTED_ZERO,
                comm::allgather(cfg, Self::bytes(arg_i64(0))),
            )),
            token::GATHER => Ok((
                TVal::UNTAINTED_ZERO,
                comm::gather(cfg, Self::bytes(arg_i64(0))),
            )),

            _ => unreachable!("token not produced by resolve()"),
        }
    }

    /// Both work primitives are pure work; the engine then evaluates the
    /// contention factor once per run instead of once per call.
    fn work_rate(&self, tok: u32) -> Option<f64> {
        match tok {
            token::WORK_FLOPS => Some(self.config.flop_time),
            token::WORK_MEM => Some(self.config.contended_mem_word_time()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Module, Type, Value};
    use pt_taint::{InterpConfig, Interpreter, PreparedModule};

    /// Build a program: read p via MPI_Comm_size, loop p times over a
    /// ring send, then allreduce.
    fn mpi_program() -> Module {
        let mut m = Module::new("mpi-test");
        let mut b = FunctionBuilder::new("main", vec![], Type::I64);
        let slot = b.alloca(1i64);
        b.call_external("MPI_Comm_size", vec![slot], Type::Void);
        let p = b.load(slot, Type::I64);
        b.for_loop(0i64, p, 1i64, |b, _| {
            b.call_external("MPI_Send", vec![Value::int(128)], Type::Void);
        });
        b.call_external("MPI_Allreduce", vec![Value::int(1)], Type::Void);
        b.ret(Some(p));
        m.add_function(b.finish());
        m
    }

    fn run(p: u32, params: Vec<(String, i64)>) -> pt_taint::RunOutput {
        let m = mpi_program();
        let prepared = PreparedModule::compute(&m);
        let handler = MpiHandler::new(MachineConfig::default().with_ranks(p));
        Interpreter::new(&m, &prepared, handler, params, InterpConfig::default())
            .run_named("main", &[])
            .expect("run")
    }

    #[test]
    fn comm_size_returns_p_with_implicit_label() {
        let out = run(16, vec![("p".into(), 16)]);
        assert_eq!(out.ret.unwrap().as_i64(), 16);
        // The loop over p must be recorded with the implicit parameter.
        let loops = out.records.loops_by_function();
        assert_eq!(loops.len(), 1);
        let rec = loops.values().next().unwrap();
        assert_eq!(rec.iterations, 16);
        let idx = out.labels.param_index("p").expect("p interned");
        assert!(rec.params.contains(idx), "loop depends on implicit p");
    }

    #[test]
    fn implicit_param_created_even_if_not_preregistered() {
        // "p" not in the params list: the handler still interns a base label.
        let out = run(4, vec![]);
        assert!(out.labels.param_index("p").is_some());
    }

    #[test]
    fn communication_time_scales_with_p() {
        let t8 = run(8, vec![]).time;
        let t64 = run(64, vec![]).time;
        assert!(t64 > t8, "more ranks, more ring sends and deeper trees");
    }

    #[test]
    fn contention_raises_memory_cost_only() {
        let mut m = Module::new("memtest");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call_external("pt_work_mem", vec![Value::int(1_000_000)], Type::Void);
        b.call_external("pt_work_flops", vec![Value::int(1_000_000)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let prepared = PreparedModule::compute(&m);
        let time_at = |r: u32| {
            let cfg = MachineConfig::default()
                .with_ranks(64)
                .with_ranks_per_node(r)
                .with_contention(crate::config::ContentionModel::CALIBRATED);
            let h = MpiHandler::new(cfg);
            Interpreter::new(&m, &prepared, h, vec![], InterpConfig::default())
                .run_named("main", &[])
                .unwrap()
                .time
        };
        let t2 = time_at(2);
        let t18 = time_at(18);
        assert!(t18 > t2 * 1.1, "contention slows memory work: {t2} → {t18}");
    }

    /// The engine charges a pure-work primitive as `work_rate` times the
    /// shared helper; that must be `call_token`'s own answer, bit for bit,
    /// including under contention (where the rate carries a `log2` factor).
    #[test]
    fn work_rate_matches_call_token_bit_for_bit() {
        let contended = MachineConfig::default()
            .with_ranks(64)
            .with_ranks_per_node(18)
            .with_contention(crate::config::ContentionModel::CALIBRATED);
        assert_ne!(contended.contended_mem_word_time(), contended.mem_word_time);
        for cfg in [MachineConfig::default(), contended] {
            let mut h = MpiHandler::new(cfg);
            let mut mem = pt_taint::Memory::new();
            let mut labels = pt_taint::LabelTable::new();
            for name in ["pt_work_flops", "pt_work_mem"] {
                let tok = h.resolve(name).unwrap();
                let rate = h.work_rate(tok).expect("work primitives are pure work");
                for n in [-5i64, 0, 1, 7, 1 << 40] {
                    let args = [TVal::from_i64(n)];
                    let mut ctx = HostCtx {
                        mem: &mut mem,
                        labels: &mut labels,
                        params: &[],
                        taint: true,
                    };
                    let (ret, cost) = h.call_token(tok, &args, &mut ctx).unwrap();
                    assert_eq!(ret, TVal::UNTAINTED_ZERO);
                    assert_eq!(
                        cost.to_bits(),
                        work_cost(&args, rate).to_bits(),
                        "{name}({n})"
                    );
                }
            }
            assert_eq!(h.work_rate(h.resolve("pt_print_i64").unwrap()), None);
            assert_eq!(h.work_rate(h.resolve("MPI_Send").unwrap()), None);
        }
    }

    #[test]
    fn mpi_calls_appear_in_profile() {
        let out = run(8, vec![]);
        let by_fn = out.profile.by_function();
        // Pseudo-ids for externals are beyond the module's function count.
        let has_extern_entries = by_fn.keys().any(|id| id.index() >= 1);
        assert!(has_extern_entries, "externals profiled as own entries");
    }

    #[test]
    fn unknown_symbol_rejected() {
        let mut m = Module::new("bad");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call_external("MPI_Alltoallw", vec![], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let prepared = PreparedModule::compute(&m);
        let h = MpiHandler::new(MachineConfig::default());
        let r = Interpreter::new(&m, &prepared, h, vec![], InterpConfig::default())
            .run_named("main", &[]);
        assert!(r.is_err());
    }
}
