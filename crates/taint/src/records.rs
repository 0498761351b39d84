//! Artifacts of a dynamic taint run: loop sink records, branch coverage,
//! visited code, and the calling-context table.
//!
//! The record maps are `BTreeMap`s on purpose: summaries and report JSON
//! are built by iterating them, and ordered maps make that iteration —
//! and therefore every rendered report — independent of hasher state.

use crate::label::ParamSet;
use crate::path::{CallPathTable, PathId};
use pt_analysis::loops::LoopId;
use pt_ir::{BlockId, FunctionId};
use std::collections::BTreeMap;

/// Key of a loop record: one loop observed under one calling context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopKey {
    pub func: FunctionId,
    pub loop_id: LoopId,
    pub path: PathId,
}

/// What the taint sinks observed for one loop (per calling context).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopRecord {
    /// Union of the parameter sets of all exit-condition labels observed.
    pub params: ParamSet,
    /// Total iterations (back-edge traversals) across all entries.
    pub iterations: u64,
    /// Number of times the loop was entered.
    pub entries: u64,
}

/// Coverage of one conditional branch whose condition was tainted (§4.4:
/// detection of parameter-driven algorithm selection and never-taken paths).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchRecord {
    pub params: ParamSet,
    pub taken_true: u64,
    pub taken_false: u64,
}

impl BranchRecord {
    /// Whether only one direction was ever taken in this run.
    pub fn one_sided(&self) -> bool {
        (self.taken_true == 0) != (self.taken_false == 0)
    }
}

/// What one `pt_sink_check(v, id)` site observed over a run (security
/// policy only; the paper policy never populates these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkRecord {
    /// Union of the parameter/source sets of all checked values.
    pub params: ParamSet,
    /// Total checks executed.
    pub checks: u64,
    /// Checks whose value carried a non-empty label (taint reached the
    /// sink unsanitized).
    pub violations: u64,
}

/// Per-function, per-block visit flags, stored as one flat vector with a
/// per-function offset table. The interpreter marks a block on every
/// entry — the hottest record write of a run — so the layout is one
/// bounds check and one store, with the function's base offset hoisted
/// out of the block loop ([`BlockCoverage::offset`] + [`BlockCoverage::set`]).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BlockCoverage {
    flags: Vec<bool>,
    /// `offsets[f]..offsets[f + 1]` is function `f`'s slice of `flags`.
    offsets: Vec<u32>,
}

impl BlockCoverage {
    pub fn new(blocks_per_func: &[usize]) -> BlockCoverage {
        let mut offsets = Vec::with_capacity(blocks_per_func.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &n in blocks_per_func {
            total += n as u32;
            offsets.push(total);
        }
        BlockCoverage {
            flags: vec![false; total as usize],
            offsets,
        }
    }

    /// Base index of `func`'s flags (hoist out of hot loops, then [`Self::set`]).
    #[inline]
    pub fn offset(&self, func: FunctionId) -> usize {
        self.offsets[func.index()] as usize
    }

    /// Mark the flat index `offset(func) + block.index()` visited.
    #[inline]
    pub fn set(&mut self, flat: usize) {
        self.flags[flat] = true;
    }

    /// Mark `block` of `func` visited (cold-path convenience).
    #[inline]
    pub fn mark(&mut self, func: FunctionId, block: BlockId) {
        let base = self.offset(func);
        self.set(base + block.index());
    }

    /// The visit flags of `func`, indexed by block.
    pub fn func(&self, func: FunctionId) -> &[bool] {
        &self.flags[self.offsets[func.index()] as usize..self.offsets[func.index() + 1] as usize]
    }
}

/// All records produced by a taint run.
#[derive(Debug, Default)]
pub struct TaintRecords {
    pub loops: BTreeMap<LoopKey, LoopRecord>,
    pub branches: BTreeMap<(FunctionId, BlockId), BranchRecord>,
    /// Per (calling function, external symbol): union of the parameter sets
    /// of all argument labels observed — feeds the library database's
    /// count-argument dependencies (§5.3).
    pub extern_args: BTreeMap<(FunctionId, String), ParamSet>,
    /// Per function: whether it was executed at all (dynamic pruning in
    /// Table 2: "Pruned Dynamically").
    pub executed: Vec<bool>,
    /// Per function, per block: executed? (never-visited code, §4.4).
    pub visited_blocks: BlockCoverage,
    /// Per sink id: the security policy's check/violation ledger.
    pub sink_checks: BTreeMap<i64, SinkRecord>,
    pub paths: CallPathTable,
}

impl TaintRecords {
    pub fn new(nfuncs: usize, blocks_per_func: &[usize]) -> TaintRecords {
        debug_assert_eq!(nfuncs, blocks_per_func.len());
        TaintRecords {
            loops: BTreeMap::new(),
            branches: BTreeMap::new(),
            extern_args: BTreeMap::new(),
            executed: vec![false; nfuncs],
            visited_blocks: BlockCoverage::new(blocks_per_func),
            sink_checks: BTreeMap::new(),
            paths: CallPathTable::new(),
        }
    }

    /// Aggregate loop records per (function, loop), merging calling contexts.
    pub fn loops_by_function(&self) -> BTreeMap<(FunctionId, LoopId), LoopRecord> {
        let mut out: BTreeMap<(FunctionId, LoopId), LoopRecord> = BTreeMap::new();
        for (k, r) in &self.loops {
            let e = out.entry((k.func, k.loop_id)).or_default();
            e.params = e.params.union(r.params);
            e.iterations += r.iterations;
            e.entries += r.entries;
        }
        out
    }

    /// Union of parameters observed in any loop of `func` (any context).
    pub fn function_params(&self, func: FunctionId) -> ParamSet {
        self.loops
            .iter()
            .filter(|(k, _)| k.func == func)
            .fold(ParamSet::EMPTY, |acc, (_, r)| acc.union(r.params))
    }

    /// Functions never executed during the taint run.
    pub fn never_executed(&self) -> Vec<FunctionId> {
        self.executed
            .iter()
            .enumerate()
            .filter(|(_, e)| !**e)
            .map(|(i, _)| FunctionId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_aggregation_merges_paths() {
        let mut r = TaintRecords::new(2, &[1, 1]);
        let p1 = r.paths.intern(None, FunctionId(0));
        let p2 = r.paths.intern(Some(p1), FunctionId(1));
        let p3 = r.paths.intern(None, FunctionId(1));
        let lid = LoopId(0);
        r.loops.insert(
            LoopKey {
                func: FunctionId(1),
                loop_id: lid,
                path: p2,
            },
            LoopRecord {
                params: ParamSet::single(0),
                iterations: 10,
                entries: 1,
            },
        );
        r.loops.insert(
            LoopKey {
                func: FunctionId(1),
                loop_id: lid,
                path: p3,
            },
            LoopRecord {
                params: ParamSet::single(1),
                iterations: 5,
                entries: 2,
            },
        );
        let agg = r.loops_by_function();
        let rec = agg[&(FunctionId(1), lid)];
        assert_eq!(rec.iterations, 15);
        assert_eq!(rec.entries, 3);
        assert!(rec.params.contains(0) && rec.params.contains(1));
        assert_eq!(r.function_params(FunctionId(1)).len(), 2);
        assert_eq!(r.function_params(FunctionId(0)), ParamSet::EMPTY);
    }

    #[test]
    fn never_executed_lists_unvisited() {
        let mut r = TaintRecords::new(3, &[1, 1, 1]);
        r.executed[1] = true;
        assert_eq!(r.never_executed(), vec![FunctionId(0), FunctionId(2)]);
    }

    #[test]
    fn branch_sidedness() {
        let one = BranchRecord {
            params: ParamSet::single(0),
            taken_true: 4,
            taken_false: 0,
        };
        let two = BranchRecord {
            params: ParamSet::single(0),
            taken_true: 4,
            taken_false: 1,
        };
        assert!(one.one_sided());
        assert!(!two.one_sided());
    }
}
