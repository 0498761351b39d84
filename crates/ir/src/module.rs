//! Modules: collections of functions plus external symbol declarations.
//!
//! # Sharing
//!
//! A [`Module`] holds its functions, and the index from name to
//! [`FunctionId`], by [`Arc`]. Cloning a module copies pointers, and two
//! modules may share any of their function bodies: a re-parse of an
//! edited text ([`crate::parser::reparse_module`]) shares every function
//! the edit left alone with the module it was parsed against, and the
//! name index as well.
//!
//! Sharing is invisible to readers. A writer goes through
//! [`Module::function_mut`], which is copy-on-write
//! ([`Arc::make_mut`]): a body that another module also holds is copied
//! first, so the change never shows in that other module. Adding a
//! function copies a shared name index the same way. Since [`Arc`] has no
//! `DerefMut`, no code can change a shared body in place: a write to
//! `functions` goes through [`Arc::make_mut`] or [`Arc::get_mut`], which
//! copy or refuse a body another module holds.

use crate::function::{Function, FunctionId};
use crate::inst::{Callee, InstKind};
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Declaration of an external runtime symbol (MPI routine, taint intrinsic,
/// work-charging primitive). The interpreter host resolves these by name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternalDecl {
    pub name: String,
    pub arity: usize,
    pub ret_ty: Type,
}

/// A translation unit. Its functions and name index are shared by
/// [`Arc`], so a clone is shallow (see "Sharing" in the module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub functions: Vec<Arc<Function>>,
    pub externals: Vec<ExternalDecl>,
    #[serde(skip)]
    name_index: Arc<HashMap<String, FunctionId>>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            externals: Vec::new(),
            name_index: Arc::default(),
        }
    }

    /// Share `like`'s name index in place of this module's own. The caller
    /// guarantees that the two modules' functions have the same names in
    /// the same order.
    pub(crate) fn share_index_of(&mut self, like: &Module) {
        self.name_index = Arc::clone(&like.name_index);
    }

    /// Add a function, returning its id. Function names must be unique.
    pub fn add_function(&mut self, f: Function) -> FunctionId {
        self.try_add_function(f)
            .unwrap_or_else(|f| panic!("duplicate function name: {}", f.name))
    }

    /// Add a function unless the module already has one of that name, in
    /// which case the function comes back unadded.
    pub fn try_add_function(&mut self, f: Function) -> Result<FunctionId, Function> {
        self.try_add_shared(Arc::new(f))
            .map_err(Arc::unwrap_or_clone)
    }

    /// Add a function that other modules may also hold, unless the module
    /// already has one of that name, in which case it comes back unadded.
    pub fn try_add_shared(&mut self, f: Arc<Function>) -> Result<FunctionId, Arc<Function>> {
        let id = FunctionId(self.functions.len() as u32);
        match Arc::make_mut(&mut self.name_index).entry(f.name.clone()) {
            Entry::Occupied(_) => Err(f),
            Entry::Vacant(slot) => {
                slot.insert(id);
                self.functions.push(f);
                Ok(id)
            }
        }
    }

    /// Declare an external symbol (idempotent).
    pub fn declare_external(&mut self, name: impl Into<String>, arity: usize, ret_ty: Type) {
        let name = name.into();
        if !self.externals.iter().any(|e| e.name == name) {
            self.externals.push(ExternalDecl {
                name,
                arity,
                ret_ty,
            });
        }
    }

    #[inline]
    pub fn function(&self, id: FunctionId) -> &Function {
        &self.functions[id.index()]
    }

    /// The function `id`, to change. Copy-on-write: a body this module
    /// shares with another is copied first, so the other never sees the
    /// change.
    #[inline]
    pub fn function_mut(&mut self, id: FunctionId) -> &mut Function {
        Arc::make_mut(&mut self.functions[id.index()])
    }

    /// Look a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FunctionId> {
        if let Some(&id) = self.name_index.get(name) {
            return Some(id);
        }
        // Fallback for modules deserialized without the index.
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FunctionId(i as u32))
    }

    /// Rebuild the name index (after deserialization).
    pub fn rebuild_index(&mut self) {
        self.name_index = Arc::new(
            self.functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), FunctionId(i as u32)))
                .collect(),
        );
    }

    pub fn function_ids(&self) -> impl Iterator<Item = FunctionId> {
        (0..self.functions.len() as u32).map(FunctionId)
    }

    /// Names of all external symbols actually called anywhere in the module.
    pub fn used_externals(&self) -> Vec<&str> {
        let mut seen = std::collections::BTreeSet::new();
        for f in &self.functions {
            for inst in &f.insts {
                if let InstKind::Call {
                    callee: Callee::External(name),
                    ..
                } = &inst.kind
                {
                    seen.insert(name.as_str());
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Direct callees (internal only) of `id`.
    pub fn callees(&self, id: FunctionId) -> Vec<FunctionId> {
        let mut out = Vec::new();
        for inst in &self.function(id).insts {
            if let InstKind::Call {
                callee: Callee::Internal(fid),
                ..
            } = &inst.kind
            {
                if !out.contains(fid) {
                    out.push(*fid);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::value::Value;

    fn tiny(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name, vec![], Type::I64);
        b.ret(Some(Value::int(0)));
        b.finish()
    }

    #[test]
    fn add_and_lookup() {
        let mut m = Module::new("test");
        let a = m.add_function(tiny("a"));
        let b = m.add_function(tiny("b"));
        assert_eq!(m.function_by_name("a"), Some(a));
        assert_eq!(m.function_by_name("b"), Some(b));
        assert_eq!(m.function_by_name("c"), None);
        assert_eq!(m.function(a).name, "a");
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_rejected() {
        let mut m = Module::new("test");
        m.add_function(tiny("a"));
        m.add_function(tiny("a"));
    }

    #[test]
    fn externals_deduplicated() {
        let mut m = Module::new("test");
        m.declare_external("MPI_Barrier", 1, Type::Void);
        m.declare_external("MPI_Barrier", 1, Type::Void);
        assert_eq!(m.externals.len(), 1);
    }

    #[test]
    fn used_externals_collected() {
        let mut m = Module::new("test");
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        b.call_external("pt_work_flops", vec![Value::int(10)], Type::Void);
        b.call_external("MPI_Barrier", vec![Value::int(0)], Type::Void);
        b.ret(None);
        m.add_function(b.finish());
        let used = m.used_externals();
        assert_eq!(used, vec!["MPI_Barrier", "pt_work_flops"]);
    }

    #[test]
    fn clones_share_and_writes_copy() {
        let mut m = Module::new("test");
        let a = m.add_function(tiny("a"));
        m.add_function(tiny("b"));
        let mut c = m.clone();
        assert!(m
            .functions
            .iter()
            .zip(&c.functions)
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        assert!(Arc::ptr_eq(&m.name_index, &c.name_index));

        c.function_mut(a).ret_ty = Type::Void;
        assert_eq!(m.function(a).ret_ty, Type::I64, "the original is untouched");
        assert!(!Arc::ptr_eq(&m.functions[0], &c.functions[0]));
        assert!(Arc::ptr_eq(&m.functions[1], &c.functions[1]));

        let z = c.add_function(tiny("z"));
        assert_eq!(c.function_by_name("z"), Some(z));
        assert_eq!(
            m.function_by_name("z"),
            None,
            "the original index is untouched"
        );
        assert!(!Arc::ptr_eq(&m.name_index, &c.name_index));
    }

    #[test]
    fn shared_functions_are_added_once() {
        let mut m = Module::new("test");
        let a = Arc::new(tiny("a"));
        let id = m.try_add_shared(Arc::clone(&a)).unwrap();
        assert!(Arc::ptr_eq(&m.functions[id.index()], &a));
        let back = m.try_add_shared(Arc::new(tiny("a"))).unwrap_err();
        assert_eq!(back.name, "a");
        assert_eq!(m.try_add_function(tiny("a")).unwrap_err().name, "a");
        assert_eq!(m.functions.len(), 1);
    }

    /// A re-parse shares every function its edit left alone, and the name
    /// index, with the base; writing to the re-parse leaves the base as it
    /// was.
    #[test]
    fn a_reparse_shares_what_the_edit_left_alone() {
        use crate::parser::{reparse_module, Base};
        use crate::printer::{print_function, print_module};
        let mut m = Module::new("m");
        m.declare_external("pt_work_flops", 1, Type::Void);
        let mut ids = Vec::new();
        for name in ["k0", "k1", "k2"] {
            let mut b = FunctionBuilder::new(name, vec![], Type::Void);
            b.call_external("pt_work_flops", vec![Value::int(7)], Type::Void);
            b.ret(None);
            ids.push(m.add_function(b.finish()));
        }
        let mut b = FunctionBuilder::new("main", vec![], Type::Void);
        for &k in &ids {
            b.call(k, vec![], Type::Void);
        }
        b.ret(None);
        m.add_function(b.finish());
        let text = print_module(&m);
        let base = reparse_module(&text, None).unwrap();
        let edited = text.replacen("@pt_work_flops(7)", "@pt_work_flops(8)", 2);
        let base_of = Base {
            text: &text,
            module: &base.module,
            spans: &base.spans,
        };
        let mut re = reparse_module(&edited, Some(base_of)).unwrap();
        assert_eq!(re.parsed, [FunctionId(0), FunctionId(1)]);
        assert_eq!(print_module(&re.module), edited);
        let shared: Vec<bool> = (re.module.functions.iter().zip(&base.module.functions))
            .map(|(x, y)| Arc::ptr_eq(x, y))
            .collect();
        assert_eq!(shared, [false, false, true, true]);
        assert!(Arc::ptr_eq(&re.module.name_index, &base.module.name_index));
        assert_eq!(re.module.function_by_name("k2"), Some(FunctionId(2)));

        let main = FunctionId(3);
        let before = print_function(base.module.function(main), None);
        re.module.function_mut(main).insts.clear();
        assert_eq!(print_function(base.module.function(main), None), before);
        assert!(!Arc::ptr_eq(
            &re.module.functions[3],
            &base.module.functions[3]
        ));
    }

    #[test]
    fn callees_deduplicated() {
        let mut m = Module::new("test");
        let callee = m.add_function(tiny("leaf"));
        let mut b = FunctionBuilder::new("root", vec![], Type::Void);
        b.call(callee, vec![], Type::I64);
        b.call(callee, vec![], Type::I64);
        b.ret(None);
        let root = m.add_function(b.finish());
        assert_eq!(m.callees(root), vec![callee]);
    }
}
