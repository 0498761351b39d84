//! Dependency structures (§4.2–§4.3).
//!
//! The taint analysis gives, per loop, a *class* of symbolic functions
//! `g(p₁,…,pₙ)` — the parameters that may drive its trip count (Claim 1).
//! Volumes compose: sequencing adds, nesting multiplies (§4.2), and the
//! interprocedural accumulation over a recursion-free call tree yields the
//! asymptotic compute volume of the whole program (Theorem 1). The
//! pipeline never builds the volume expression itself: a nested loop's
//! exit condition carries its enclosing loops' parameters through the
//! control-context label, so the taint run already reports each loop's
//! product term ([`crate::deps`]).
//!
//! For the hybrid modeler the salient projection of a volume expression is
//! its **dependency structure**: the set of parameter *monomials* — maximal
//! parameter sets that can be multiplied together in one term. `{p}+{s}`
//! (additive) and `{p·s}` (multiplicative) drive both the experiment-design
//! reduction (§A2) and the search-space restriction (§4.5).

use pt_taint::ParamSet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dedup and drop monomials subsumed by a superset monomial (a term in
/// `p·s` already covers the lone `p` factor for restriction purposes — but
/// *not* for experiment design, so subsumed entries are only removed when
/// identical).
pub fn normalize_monomials(mut ms: Vec<ParamSet>) -> Vec<ParamSet> {
    ms.retain(|m| !m.is_empty());
    ms.sort();
    ms.dedup();
    ms
}

/// The dependency structure of one function: the parameter monomials its
/// (exclusive) cost may contain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepStructure {
    pub monomials: Vec<ParamSet>,
}

impl DepStructure {
    pub fn constant() -> DepStructure {
        DepStructure {
            monomials: Vec::new(),
        }
    }

    pub fn from_monomials(ms: Vec<ParamSet>) -> DepStructure {
        DepStructure {
            monomials: normalize_monomials(ms),
        }
    }

    pub fn is_constant(&self) -> bool {
        self.monomials.is_empty()
    }

    /// Union of all parameters.
    pub fn params(&self) -> ParamSet {
        self.monomials
            .iter()
            .fold(ParamSet::EMPTY, |a, m| a.union(*m))
    }

    /// Does any monomial multiply ≥ 2 parameters together?
    pub fn has_multiplicative(&self) -> bool {
        self.monomials.iter().any(|m| m.len() >= 2)
    }

    pub fn depends_on(&self, param: usize) -> bool {
        self.params().contains(param)
    }

    /// Project onto a subset of parameters (the modeling axes): parameters
    /// outside `keep` are fixed in the sweep and drop out of the monomials.
    pub fn project(&self, keep: &[usize]) -> DepStructure {
        let keep_mask = keep
            .iter()
            .fold(ParamSet::EMPTY, |a, &k| a.union(ParamSet::single(k)));
        DepStructure::from_monomials(
            self.monomials
                .iter()
                .map(|m| m.intersect(keep_mask))
                .collect(),
        )
    }

    /// Remap parameter indices (app-parameter index → model-axis index).
    /// Parameters not present in `mapping` are dropped.
    pub fn remap(&self, mapping: &[(usize, usize)]) -> DepStructure {
        let ms = self
            .monomials
            .iter()
            .map(|m| {
                let mut out = ParamSet::EMPTY;
                for &(from, to) in mapping {
                    if m.contains(from) {
                        out = out.union(ParamSet::single(to));
                    }
                }
                out
            })
            .collect();
        DepStructure::from_monomials(ms)
    }

    /// Convert into the extrap search-space restriction.
    pub fn to_restriction(&self) -> pt_extrap::Restriction {
        pt_extrap::Restriction::from_monomials(self.monomials.iter().map(|m| m.0).collect())
    }

    /// Merge another structure (e.g. library-database dependencies).
    pub fn merge(&mut self, other: &DepStructure) {
        self.monomials.extend(other.monomials.iter().copied());
        self.monomials = normalize_monomials(std::mem::take(&mut self.monomials));
    }

    pub fn render(&self, names: &[String]) -> String {
        if self.is_constant() {
            return "constant".into();
        }
        self.monomials
            .iter()
            .map(|m| format!("{}", m.display(names)))
            .collect::<Vec<_>>()
            .join(" + ")
    }
}

impl fmt::Display for DepStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(&[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(bits: u64) -> ParamSet {
        ParamSet(bits)
    }

    #[test]
    fn projection_drops_fixed_params() {
        let d = DepStructure::from_monomials(vec![ps(0b101), ps(0b010)]);
        let proj = d.project(&[0]);
        assert_eq!(proj.monomials, vec![ps(0b001)]);
        // Projecting away everything → constant.
        let none = d.project(&[5]);
        assert!(none.is_constant());
    }

    #[test]
    fn remapping_to_model_axes() {
        // App params: size=0, iters=4, p=5. Model axes: p→0, size→1.
        let d = DepStructure::from_monomials(vec![
            ps(1 << 0 | 1 << 4), // {size, iters}
            ps(1 << 5),          // {p}
            ps(1 << 4),          // {iters} alone
        ]);
        let remapped = d.remap(&[(5, 0), (0, 1)]);
        assert_eq!(remapped.monomials, vec![ps(0b01), ps(0b10)]);
    }

    #[test]
    fn restriction_round_trip() {
        let d = DepStructure::from_monomials(vec![ps(0b01), ps(0b10)]);
        let r = d.to_restriction();
        assert!(r.allows_mask(0b01));
        assert!(r.allows_mask(0b10));
        assert!(!r.allows_mask(0b11), "additive structure forbids p·s");
        let m = DepStructure::from_monomials(vec![ps(0b11)]);
        assert!(m.to_restriction().allows_mask(0b11));
    }

    #[test]
    fn merge_and_render() {
        let mut d = DepStructure::from_monomials(vec![ps(0b01)]);
        d.merge(&DepStructure::from_monomials(vec![ps(0b10), ps(0b01)]));
        assert_eq!(d.monomials.len(), 2);
        let names = vec!["p".to_string(), "s".to_string()];
        assert_eq!(d.render(&names), "{p} + {s}");
        assert_eq!(DepStructure::constant().render(&names), "constant");
    }
}
