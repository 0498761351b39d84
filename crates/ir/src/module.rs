//! Modules: collections of functions plus external symbol declarations.

use crate::function::{Function, FunctionId};
use crate::inst::{Callee, InstKind};
use crate::types::Type;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Declaration of an external runtime symbol (MPI routine, taint intrinsic,
/// work-charging primitive). The interpreter host resolves these by name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExternalDecl {
    pub name: String,
    pub arity: usize,
    pub ret_ty: Type,
}

/// A translation unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub functions: Vec<Function>,
    pub externals: Vec<ExternalDecl>,
    #[serde(skip)]
    name_index: HashMap<String, FunctionId>,
}

impl Module {
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            externals: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    /// Add a function, returning its id. Function names must be unique.
    pub fn add_function(&mut self, f: Function) -> FunctionId {
        self.try_add_function(f)
            .unwrap_or_else(|f| panic!("duplicate function name: {}", f.name))
    }

    /// Add a function unless the module already has one of that name, in
    /// which case the function comes back unadded.
    pub fn try_add_function(&mut self, f: Function) -> Result<FunctionId, Function> {
        let id = FunctionId(self.functions.len() as u32);
        match self.name_index.entry(f.name.clone()) {
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

    #[inline]
    pub fn function_mut(&mut self, id: FunctionId) -> &mut Function {
        &mut self.functions[id.index()]
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
        self.name_index = self
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FunctionId(i as u32)))
            .collect();
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

    /// Total instruction count across all functions.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().map(|f| f.insts.len()).sum()
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
