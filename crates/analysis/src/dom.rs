//! Dominator and postdominator trees.
//!
//! Implementation of Cooper, Harvey & Kennedy, *A Simple, Fast Dominance
//! Algorithm* — the same algorithm LLVM used for years. It runs on an
//! abstract graph so the forward CFG (dominators) and the reversed CFG with
//! a virtual exit (postdominators) share the code.

use crate::cfg;
use pt_ir::{BlockId, Function, Terminator};

/// A dominator tree over the blocks of one function.
///
/// Unreachable blocks have no entry (`idom` = `None`, and `dominates`
/// returns `false` for them except against themselves).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block index; entry maps to itself.
    idom: Vec<Option<BlockId>>,
    /// Depth in the tree (entry = 0).
    depth: Vec<u32>,
    root: BlockId,
}

impl DomTree {
    /// Dominator tree of `func`'s CFG.
    pub fn dominators(func: &Function) -> DomTree {
        let rpo = cfg::reverse_postorder(func);
        let preds = func.predecessors();
        let preds_fn = |b: BlockId| -> Vec<BlockId> { preds[b.index()].clone() };
        Self::compute(func.blocks.len(), func.entry, &rpo, preds_fn)
    }

    /// Postdominator tree. Multiple exits are handled through a virtual exit
    /// node appended after the real blocks; blocks whose immediate
    /// postdominator is the virtual exit report `None` from
    /// [`PostDomTree::ipostdom_of`] wrappers below.
    pub fn postdominators(func: &Function) -> PostDomTree {
        let n = func.blocks.len();
        let virtual_exit = BlockId(n as u32);
        // Successors in the reversed graph = predecessors in the original,
        // with exit blocks gaining an edge to the virtual exit.
        let mut rev_succs: Vec<Vec<BlockId>> = vec![Vec::new(); n + 1];
        let mut rev_preds: Vec<Vec<BlockId>> = vec![Vec::new(); n + 1];
        for b in func.block_ids() {
            for s in func.successors(b) {
                // Original edge b -> s; reversed edge s -> b.
                rev_succs[s.index()].push(b);
                rev_preds[b.index()].push(s);
            }
            let is_exit = matches!(
                func.block(b).term,
                Some(Terminator::Ret(_)) | Some(Terminator::Unreachable)
            );
            if is_exit {
                rev_succs[virtual_exit.index()].push(b);
                rev_preds[b.index()].push(virtual_exit);
            }
        }
        // RPO over the reversed graph starting at the virtual exit.
        let mut state = vec![0u8; n + 1];
        let mut post = Vec::with_capacity(n + 1);
        let mut stack: Vec<(BlockId, usize)> = vec![(virtual_exit, 0)];
        state[virtual_exit.index()] = 1;
        while let Some((b, cursor)) = stack.pop() {
            let succs = &rev_succs[b.index()];
            if cursor < succs.len() {
                stack.push((b, cursor + 1));
                let s = succs[cursor];
                if state[s.index()] == 0 {
                    state[s.index()] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b.index()] = 2;
                post.push(b);
            }
        }
        post.reverse();
        let preds_fn = |b: BlockId| -> Vec<BlockId> { rev_preds[b.index()].clone() };
        let tree = Self::compute(n + 1, virtual_exit, &post, preds_fn);
        PostDomTree { tree, virtual_exit }
    }

    fn compute(
        nblocks: usize,
        entry: BlockId,
        rpo: &[BlockId],
        preds: impl Fn(BlockId) -> Vec<BlockId>,
    ) -> DomTree {
        let mut pos = vec![usize::MAX; nblocks];
        for (i, b) in rpo.iter().enumerate() {
            pos[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; nblocks];
        idom[entry.index()] = Some(entry);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while pos[a.index()] > pos[b.index()] {
                    a = idom[a.index()].expect("intersect: unprocessed node");
                }
                while pos[b.index()] > pos[a.index()] {
                    b = idom[b.index()].expect("intersect: unprocessed node");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for p in preds(b) {
                    if pos[p.index()] == usize::MAX {
                        continue; // unreachable predecessor
                    }
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Depths.
        let mut depth = vec![0u32; nblocks];
        for &b in rpo {
            if b == entry {
                continue;
            }
            if let Some(p) = idom[b.index()] {
                depth[b.index()] = depth[p.index()] + 1;
            }
        }
        DomTree {
            idom,
            depth,
            root: entry,
        }
    }

    /// Immediate dominator of `b` (`None` for the root and unreachable blocks).
    pub fn idom_of(&self, b: BlockId) -> Option<BlockId> {
        if b == self.root {
            return None;
        }
        self.idom[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        let mut cur = b;
        loop {
            match self.idom_of(cur) {
                Some(p) => {
                    if p == a {
                        return true;
                    }
                    cur = p;
                }
                None => return false,
            }
        }
    }

    /// Whether `b` is reachable (has a tree entry).
    pub fn is_reachable(&self, b: BlockId) -> bool {
        b == self.root || self.idom[b.index()].is_some()
    }

    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    pub fn root(&self) -> BlockId {
        self.root
    }
}

/// Postdominator tree wrapper hiding the virtual exit node.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    tree: DomTree,
    virtual_exit: BlockId,
}

impl PostDomTree {
    /// Immediate postdominator of `b`, or `None` if it is the virtual exit
    /// (i.e. control can leave the function without passing a unique block).
    pub fn ipostdom_of(&self, b: BlockId) -> Option<BlockId> {
        match self.tree.idom_of(b) {
            Some(p) if p != self.virtual_exit => Some(p),
            _ => None,
        }
    }

    /// Whether `a` postdominates `b` (reflexive).
    pub fn postdominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.dominates(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_ir::{CmpPred, FunctionBuilder, Type, Value};

    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d", vec![("a".into(), Type::I64)], Type::Void);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.cmp(CmpPred::Lt, b.param(0), Value::int(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn diamond_dominators() {
        let f = diamond();
        let dt = DomTree::dominators(&f);
        assert_eq!(dt.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom_of(BlockId(2)), Some(BlockId(0)));
        assert_eq!(dt.idom_of(BlockId(3)), Some(BlockId(0)));
        assert!(dt.dominates(BlockId(0), BlockId(3)));
        assert!(!dt.dominates(BlockId(1), BlockId(3)));
        assert!(dt.dominates(BlockId(3), BlockId(3)));
    }

    #[test]
    fn diamond_postdominators() {
        let f = diamond();
        let pdt = DomTree::postdominators(&f);
        // The join block postdominates the branch block.
        assert_eq!(pdt.ipostdom_of(BlockId(0)), Some(BlockId(3)));
        assert_eq!(pdt.ipostdom_of(BlockId(1)), Some(BlockId(3)));
        assert!(pdt.postdominates(BlockId(3), BlockId(0)));
        assert!(!pdt.postdominates(BlockId(1), BlockId(0)));
        // The exit block's ipostdom is the virtual exit → None.
        assert_eq!(pdt.ipostdom_of(BlockId(3)), None);
    }

    #[test]
    fn loop_dominators() {
        let mut b = FunctionBuilder::new("l", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let dt = DomTree::dominators(&f);
        // entry=bb0, header=bb1, body=bb2, exit=bb3
        assert_eq!(dt.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dt.idom_of(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dt.idom_of(BlockId(3)), Some(BlockId(1)));
        assert!(dt.dominates(BlockId(1), BlockId(2)));
        assert_eq!(dt.depth_of(BlockId(2)), 2);
    }

    #[test]
    fn loop_postdominators_branch_scope() {
        // The loop header's branch is "closed" at the loop exit: the exit
        // block postdominates the header.
        let mut b = FunctionBuilder::new("l", vec![("n".into(), Type::I64)], Type::Void);
        b.for_loop(0i64, b.param(0), 1i64, |_, _| {});
        b.ret(None);
        let f = b.finish();
        let pdt = DomTree::postdominators(&f);
        assert_eq!(pdt.ipostdom_of(BlockId(1)), Some(BlockId(3)));
        assert_eq!(pdt.ipostdom_of(BlockId(2)), Some(BlockId(1)));
    }

    #[test]
    fn unreachable_blocks_not_dominated() {
        let mut b = FunctionBuilder::new("u", vec![], Type::Void);
        let dead = b.new_block();
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        let f = b.finish();
        let dt = DomTree::dominators(&f);
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(BlockId(0), dead));
    }
}
