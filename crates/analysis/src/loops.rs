//! Natural-loop detection and the loop-nesting forest.
//!
//! A *natural loop* (Aho/Sethi/Ullman) is defined by a back edge
//! `latch → header` where `header` dominates `latch`; its body is every block
//! that reaches the latch without passing through the header. Loops sharing a
//! header are merged. The paper's analysis is defined on natural loops
//! (§4.1); retreating edges whose target does *not* dominate their source
//! indicate irreducible control flow and are reported via
//! [`LoopForest::irreducible`] so callers can warn (the paper cites node
//! splitting as the standard remedy and otherwise excludes such loops).

use crate::cfg;
use crate::dom::DomTree;
use pt_ir::{BlockId, Function};
use serde::{Deserialize, Serialize};

/// Index of a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LoopId(pub u32);

impl LoopId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    pub id: LoopId,
    pub header: BlockId,
    /// Sources of back edges into the header.
    pub latches: Vec<BlockId>,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
    /// Immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Blocks inside the loop with at least one successor outside.
    pub exiting: Vec<BlockId>,
    /// Blocks outside the loop targeted from inside.
    pub exits: Vec<BlockId>,
    /// Nesting depth; top-level loops have depth 1.
    pub depth: u32,
}

impl LoopInfo {
    #[inline]
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of a function, organized as a forest.
#[derive(Debug, Clone)]
pub struct LoopForest {
    pub loops: Vec<LoopInfo>,
    /// Innermost loop containing each block (index = block index).
    block_loop: Vec<Option<LoopId>>,
    /// Retreating edges that are not back edges (irreducible control flow).
    pub irreducible: Vec<(BlockId, BlockId)>,
}

impl LoopForest {
    /// Compute the loop forest; `dt` must be the dominator tree of `func`.
    pub fn compute(func: &Function, dt: &DomTree) -> LoopForest {
        let rpo = cfg::reverse_postorder(func);
        let pos = cfg::rpo_positions(func, &rpo);
        let nblocks = func.blocks.len();

        // Find back edges and irreducible retreating edges.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new(); // (latch, header)
        let mut irreducible = Vec::new();
        for b in func.block_ids() {
            if pos[b.index()] == usize::MAX {
                continue; // unreachable
            }
            for s in func.successors(b) {
                if pos[s.index()] == usize::MAX {
                    continue;
                }
                if pos[s.index()] <= pos[b.index()] {
                    // Retreating edge.
                    if dt.dominates(s, b) {
                        back_edges.push((b, s));
                    } else {
                        irreducible.push((b, s));
                    }
                }
            }
        }

        // Group back edges by header, merge bodies.
        let mut headers: Vec<BlockId> = back_edges.iter().map(|&(_, h)| h).collect();
        headers.sort();
        headers.dedup();
        // Sort headers by dominator depth so outer loops come before inner
        // ones; ties broken by block id for determinism.
        headers.sort_by_key(|h| (dt.depth_of(*h), h.0));

        let preds = func.predecessors();
        let mut loops: Vec<LoopInfo> = Vec::with_capacity(headers.len());
        for (i, &header) in headers.iter().enumerate() {
            let id = LoopId(i as u32);
            let latches: Vec<BlockId> = back_edges
                .iter()
                .filter(|&&(_, h)| h == header)
                .map(|&(l, _)| l)
                .collect();
            // Body: reverse flood fill from the latches, stopping at header.
            let mut in_loop = vec![false; nblocks];
            in_loop[header.index()] = true;
            let mut stack: Vec<BlockId> = latches.clone();
            while let Some(b) = stack.pop() {
                if in_loop[b.index()] {
                    continue;
                }
                in_loop[b.index()] = true;
                for &p in &preds[b.index()] {
                    if pos[p.index()] != usize::MAX && !in_loop[p.index()] {
                        stack.push(p);
                    }
                }
            }
            let blocks: Vec<BlockId> = (0..nblocks as u32)
                .map(BlockId)
                .filter(|b| in_loop[b.index()])
                .collect();
            let mut exiting = Vec::new();
            let mut exits = Vec::new();
            for &b in &blocks {
                for s in func.successors(b) {
                    if !in_loop[s.index()] {
                        if !exiting.contains(&b) {
                            exiting.push(b);
                        }
                        if !exits.contains(&s) {
                            exits.push(s);
                        }
                    }
                }
            }
            loops.push(LoopInfo {
                id,
                header,
                latches,
                blocks,
                parent: None,
                children: Vec::new(),
                exiting,
                exits,
                depth: 0,
            });
        }

        // Nesting: the parent of loop L is the smallest loop with a distinct
        // header that contains L's header. Headers were sorted outer-first,
        // so scanning earlier loops and keeping the smallest works.
        for i in 0..loops.len() {
            let header = loops[i].header;
            let mut best: Option<(usize, usize)> = None; // (index, size)
            for (j, cand) in loops.iter().enumerate() {
                if j == i || cand.header == header {
                    continue;
                }
                if cand.contains(header) && cand.blocks.len() > loops[i].blocks.len() {
                    let size = cand.blocks.len();
                    if best.is_none_or(|(_, s)| size < s) {
                        best = Some((j, size));
                    }
                }
            }
            if let Some((j, _)) = best {
                loops[i].parent = Some(LoopId(j as u32));
            }
        }
        for i in 0..loops.len() {
            if let Some(p) = loops[i].parent {
                let id = loops[i].id;
                loops[p.index()].children.push(id);
            }
        }
        // Depths.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[i].depth = d;
        }

        // Innermost loop per block.
        let mut block_loop: Vec<Option<LoopId>> = vec![None; nblocks];
        for l in &loops {
            for &b in &l.blocks {
                match block_loop[b.index()] {
                    None => block_loop[b.index()] = Some(l.id),
                    Some(cur) => {
                        if l.blocks.len() < loops[cur.index()].blocks.len() {
                            block_loop[b.index()] = Some(l.id);
                        }
                    }
                }
            }
        }

        LoopForest {
            loops,
            block_loop,
            irreducible,
        }
    }

    /// The innermost loop containing `b`, if any.
    pub fn loop_of(&self, b: BlockId) -> Option<LoopId> {
        self.block_loop.get(b.index()).copied().flatten()
    }

    /// Top-level loops (no parent).
    pub fn top_level(&self) -> impl Iterator<Item = &LoopInfo> {
        self.loops.iter().filter(|l| l.parent.is_none())
    }

    #[inline]
    pub fn get(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    pub fn len(&self) -> usize {
        self.loops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{FunctionBuilder, Type, Value};

    fn forest_of(f: &Function) -> LoopForest {
        let dt = DomTree::dominators(f);
        LoopForest::compute(f, &dt)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = FunctionBuilder::new("s", vec![], Type::Void);
        b.ret(None);
        let f = b.finish();
        assert!(forest_of(&f).is_empty());
    }

    #[test]
    fn single_loop_detected() {
        let mut b = FunctionBuilder::new("l", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 1);
        let l = &forest.loops[0];
        assert_eq!(l.header, BlockId(1));
        assert_eq!(l.latches, vec![BlockId(2)]);
        assert_eq!(l.blocks, vec![BlockId(1), BlockId(2)]);
        assert_eq!(l.exiting, vec![BlockId(1)]);
        assert_eq!(l.exits, vec![BlockId(3)]);
        assert_eq!(l.depth, 1);
        assert!(forest.irreducible.is_empty());
    }

    #[test]
    fn nested_loops_forest() {
        let mut b = FunctionBuilder::new("n2", vec![("n".into(), Type::I64)], Type::Void);
        let n = b.param(0);
        b.for_loop(0i64, n, 1i64, |b, _| {
            b.for_loop(0i64, n, 1i64, |b, _| {
                b.call_external("pt_work_flops", vec![Value::int(1)], Type::Void);
            });
        });
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 2);
        let outer = forest
            .loops
            .iter()
            .find(|l| l.parent.is_none())
            .expect("outer loop");
        let inner = forest
            .loops
            .iter()
            .find(|l| l.parent.is_some())
            .expect("inner loop");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.children, vec![inner.id]);
        assert_eq!(outer.depth, 1);
        assert_eq!(inner.depth, 2);
        assert!(inner.blocks.len() < outer.blocks.len());
        // Inner header belongs to the inner loop, not the outer.
        assert_eq!(forest.loop_of(inner.header), Some(inner.id));
    }

    #[test]
    fn sequential_loops_are_siblings() {
        let mut b = FunctionBuilder::new("seq", vec![("n".into(), Type::I64)], Type::Void);
        let n = b.param(0);
        b.for_loop(0i64, n, 1i64, |_, _| {});
        b.for_loop(0i64, n, 1i64, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 2);
        assert!(forest.loops.iter().all(|l| l.parent.is_none()));
        assert_eq!(forest.top_level().count(), 2);
    }

    #[test]
    fn triple_nesting_depths() {
        let mut b = FunctionBuilder::new("n3", vec![("n".into(), Type::I64)], Type::Void);
        let n = b.param(0);
        b.for_loop(0i64, n, 1i64, |b, _| {
            b.for_loop(0i64, n, 1i64, |b, _| {
                b.for_loop(0i64, n, 1i64, |_, _| {});
            });
        });
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert_eq!(forest.len(), 3);
        let mut depths: Vec<u32> = forest.loops.iter().map(|l| l.depth).collect();
        depths.sort();
        assert_eq!(depths, vec![1, 2, 3]);
    }

    #[test]
    fn irreducible_edge_reported() {
        // Build a CFG with a jump into the middle of a cycle:
        //   bb0 -> bb1, bb2 ; bb1 -> bb2 ; bb2 -> bb1, bb3
        // The cycle {bb1, bb2} has two entries — irreducible.
        use pt_ir::CmpPred;
        let mut b = FunctionBuilder::new("irr", vec![("a".into(), Type::I64)], Type::Void);
        let bb1 = b.new_block();
        let bb2 = b.new_block();
        let bb3 = b.new_block();
        let c = b.cmp(CmpPred::Lt, b.param(0), Value::int(0));
        b.cond_br(c, bb1, bb2);
        b.switch_to(bb1);
        b.br(bb2);
        b.switch_to(bb2);
        let c2 = b.cmp(CmpPred::Gt, b.param(0), Value::int(10));
        b.cond_br(c2, bb1, bb3);
        b.switch_to(bb3);
        b.ret(None);
        let f = b.finish();
        let forest = forest_of(&f);
        assert!(
            !forest.irreducible.is_empty(),
            "two-entry cycle must be flagged irreducible"
        );
    }
}
