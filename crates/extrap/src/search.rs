//! The PMNF model search: single-parameter hypotheses over `I × J`, the
//! multi-parameter heuristic of Calotoiu et al. (reused by the paper, §4.5),
//! leave-one-out cross-validated selection, and the white-box *search-space
//! restriction* that Perf-Taint derives from the taint analysis.
//!
//! The restriction is the heart of the hybrid modeler (§4.5 "Hybrid
//! modeler"): a set of *monomials* — parameter combinations proven possible
//! by the loop-nest composition — filters the candidate terms. A function
//! whose taint shows only `{p} + {size}` (additive) never receives a
//! `p·size` cross term; a function with no tainted loops is forced to a
//! constant model. This is what removes the false dependencies that noise
//! induces in black-box Extra-P (§B1).

use crate::linalg::{least_squares, r_squared, smape};
use crate::measurement::MeasurementSet;
use crate::term::{Model, Term};
use serde::{Deserialize, Serialize};

/// The hypothesis search space (defaults follow §4.5 of the paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Polynomial exponents `I` (0 is implied via pure-log terms).
    pub i_exps: Vec<f64>,
    /// Logarithm exponents `J`.
    pub j_exps: Vec<u32>,
    /// Maximum number of non-constant terms per hypothesis (`n` in PMNF).
    pub max_terms: usize,
    /// How many best single-parameter terms feed the multi-parameter
    /// heuristic per parameter.
    pub per_param_candidates: usize,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            // The paper's I set: {0/4 .. 12/4} ∪ thirds.
            i_exps: vec![
                0.0,
                1.0 / 4.0,
                1.0 / 3.0,
                2.0 / 4.0,
                2.0 / 3.0,
                3.0 / 4.0,
                1.0,
                5.0 / 4.0,
                4.0 / 3.0,
                6.0 / 4.0,
                5.0 / 3.0,
                7.0 / 4.0,
                2.0,
                9.0 / 4.0,
                10.0 / 4.0,
                8.0 / 3.0,
                11.0 / 4.0,
                3.0,
            ],
            j_exps: vec![0, 1, 2],
            max_terms: 2,
            per_param_candidates: 3,
        }
    }
}

impl SearchSpace {
    /// A smaller space for unit tests (faster, still expressive).
    pub fn small() -> SearchSpace {
        SearchSpace {
            i_exps: vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            j_exps: vec![0, 1, 2],
            max_terms: 2,
            per_param_candidates: 3,
        }
    }

    /// All single-parameter candidate terms for parameter `param`.
    pub fn single_param_terms(&self, param: usize) -> Vec<Term> {
        let mut out = Vec::new();
        for &i in &self.i_exps {
            for &j in &self.j_exps {
                if i == 0.0 && j == 0 {
                    continue; // the constant is handled separately
                }
                out.push(Term::single(param, i, j));
            }
        }
        out
    }
}

/// White-box restriction derived from the taint analysis: the set of
/// parameter-combination monomials a function's compute volume can contain.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Restriction {
    /// Each entry is a bitmask of parameter indices that may appear
    /// *multiplied together* in one term.
    pub monomials: Vec<u64>,
}

impl Restriction {
    /// A restriction that forbids every parameter (constant function).
    pub fn constant() -> Restriction {
        Restriction {
            monomials: Vec::new(),
        }
    }

    pub fn from_monomials(monomials: Vec<u64>) -> Restriction {
        Restriction { monomials }
    }

    /// May a term using exactly `mask` appear in the model?
    pub fn allows_mask(&self, mask: u64) -> bool {
        mask == 0 || self.monomials.iter().any(|m| m & mask == mask)
    }

    /// Union of all allowed parameters.
    pub fn allowed_params(&self) -> u64 {
        self.monomials.iter().fold(0, |a, m| a | m)
    }

    pub fn forbids_everything(&self) -> bool {
        self.allowed_params() == 0
    }
}

/// Fit quality of a selected model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Quality {
    /// Leave-one-out cross-validated SMAPE (selection criterion).
    pub cv_smape: f64,
    /// SMAPE of the final fit on all points.
    pub smape: f64,
    pub r2: f64,
    pub rss: f64,
    /// Number of hypotheses evaluated.
    pub hypotheses: usize,
}

/// A selected model plus its quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedModel {
    pub model: Model,
    pub quality: Quality,
}

/// Evaluate candidate terms into a design matrix: `[1, t1(x), t2(x), ...]`.
fn design_matrix(terms: &[&Term], coords: &[Vec<f64>]) -> Vec<Vec<f64>> {
    coords
        .iter()
        .map(|c| {
            let mut row = Vec::with_capacity(terms.len() + 1);
            row.push(1.0);
            for t in terms {
                row.push(t.eval(c));
            }
            row
        })
        .collect()
}

/// Leave-one-out cross-validated SMAPE of a hypothesis. Returns `None` when
/// a fold is unfittable (singular design).
fn loo_cv_smape(design: &[Vec<f64>], ys: &[f64]) -> Option<f64> {
    let n = ys.len();
    let ncoef = design.first().map(|r| r.len()).unwrap_or(1);
    if n <= ncoef {
        // Not enough points to cross-validate; fall back to the training
        // error (slightly optimistic, but keeps tiny sweeps usable).
        let coef = least_squares(design, ys)?;
        let pred: Vec<f64> = design
            .iter()
            .map(|r| r.iter().zip(&coef).map(|(d, c)| d * c).sum())
            .collect();
        return Some(smape(&pred, ys));
    }
    let mut held_pred = Vec::with_capacity(n);
    let mut held_act = Vec::with_capacity(n);
    for k in 0..n {
        let mut d: Vec<Vec<f64>> = Vec::with_capacity(n - 1);
        let mut y: Vec<f64> = Vec::with_capacity(n - 1);
        for i in 0..n {
            if i != k {
                d.push(design[i].clone());
                y.push(ys[i]);
            }
        }
        let coef = least_squares(&d, &y)?;
        let pred: f64 = design[k].iter().zip(&coef).map(|(d, c)| d * c).sum();
        held_pred.push(pred);
        held_act.push(ys[k]);
    }
    Some(smape(&held_pred, &held_act))
}

/// Fit one hypothesis (set of terms) and score it.
fn fit_hypothesis(terms: &[&Term], coords: &[Vec<f64>], ys: &[f64]) -> Option<(Model, f64)> {
    let design = design_matrix(terms, coords);
    let cv = loo_cv_smape(&design, ys)?;
    let coef = least_squares(&design, ys)?;
    let model = Model {
        constant: coef[0],
        terms: terms
            .iter()
            .zip(coef.iter().skip(1))
            .map(|(t, &c)| (c, (*t).clone()))
            .collect(),
    };
    Some((model, cv))
}

fn finalize(
    model: Model,
    cv: f64,
    coords: &[Vec<f64>],
    ys: &[f64],
    hypotheses: usize,
) -> FittedModel {
    let pred: Vec<f64> = coords.iter().map(|c| model.eval(c)).collect();
    let quality = Quality {
        cv_smape: cv,
        smape: smape(&pred, ys),
        r2: r_squared(&pred, ys),
        rss: pred.iter().zip(ys).map(|(p, a)| (p - a) * (p - a)).sum(),
        hypotheses,
    };
    FittedModel { model, quality }
}

/// Complexity of a hypothesis (tie-breaking: prefer simpler models).
fn hypothesis_complexity(model: &Model) -> f64 {
    model.terms.len() as f64 * 10.0 + model.terms.iter().map(|(_, t)| t.complexity()).sum::<f64>()
}

/// Search the best single-parameter model for data `(xs, ys)`, where `xs`
/// are values of parameter `param`.
pub fn fit_single_param(xs: &[f64], ys: &[f64], param: usize, space: &SearchSpace) -> FittedModel {
    let coords: Vec<Vec<f64>> = xs
        .iter()
        .map(|&x| {
            let mut c = vec![1.0; param + 1];
            c[param] = x;
            c
        })
        .collect();
    let mut best: Option<(Model, f64)> = None;
    let mut count = 0usize;

    // Constant hypothesis.
    if let Some((m, cv)) = fit_hypothesis(&[], &coords, ys) {
        best = Some((m, cv));
        count += 1;
    }
    for term in space.single_param_terms(param) {
        count += 1;
        if let Some((m, cv)) = fit_hypothesis(&[&term], &coords, ys) {
            let better = match &best {
                None => true,
                Some((bm, bcv)) => {
                    cv < *bcv - 1e-12
                        || (cv < *bcv + 1e-12
                            && hypothesis_complexity(&m) < hypothesis_complexity(bm))
                }
            };
            if better {
                best = Some((m, cv));
            }
        }
    }
    let (model, cv) = best.unwrap_or((Model::constant(0.0), 0.0));
    finalize(model, cv, &coords, ys, count)
}

/// Ranked single-parameter terms (best CV first) — feeds the
/// multi-parameter heuristic.
fn rank_single_terms(
    xs: &[f64],
    ys: &[f64],
    param: usize,
    space: &SearchSpace,
) -> Vec<(Term, f64)> {
    let coords: Vec<Vec<f64>> = xs
        .iter()
        .map(|&x| {
            let mut c = vec![1.0; param + 1];
            c[param] = x;
            c
        })
        .collect();
    let mut ranked: Vec<(Term, f64)> = Vec::new();
    for term in space.single_param_terms(param) {
        if let Some((_, cv)) = fit_hypothesis(&[&term], &coords, ys) {
            ranked.push((term, cv));
        }
    }
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked.truncate(space.per_param_candidates);
    ranked
}

/// Search the best multi-parameter model over a measurement set.
///
/// `restriction` is the taint-derived prior: `None` reproduces black-box
/// Extra-P; `Some` prunes parameters and term structures (§4.5). The
/// heuristic mirrors Extra-P's fast multi-parameter modeling: best
/// single-parameter sub-models are combined additively and multiplicatively
/// instead of searching the full cross-product space.
pub fn fit_multi_param(
    ms: &MeasurementSet,
    space: &SearchSpace,
    restriction: Option<&Restriction>,
) -> FittedModel {
    let _span = pt_util::trace::span("extrap", "fit");
    let nparams = ms.num_params();
    let coords: Vec<Vec<f64>> = ms.points.iter().map(|p| p.coords.clone()).collect();
    let ys = ms.means();
    if coords.is_empty() {
        return FittedModel {
            model: Model::constant(0.0),
            quality: Quality::default(),
        };
    }

    // Forced-constant shortcut: nothing is allowed to vary.
    if matches!(restriction, Some(r) if r.forbids_everything()) {
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let (model, cv) = fit_hypothesis(&[], &coords, &ys).unwrap_or((Model::constant(mean), 0.0));
        return finalize(model, cv, &coords, &ys, 1);
    }

    let allowed = |mask: u64| -> bool {
        match restriction {
            None => true,
            Some(r) => r.allows_mask(mask),
        }
    };

    // Step 1: best single-parameter terms per allowed parameter.
    let mut per_param: Vec<Vec<Term>> = Vec::with_capacity(nparams);
    for k in 0..nparams {
        if !allowed(1u64 << k) {
            per_param.push(Vec::new());
            continue;
        }
        let slice = ms.slice_along(k);
        if slice.len() < 2 {
            per_param.push(Vec::new());
            continue;
        }
        let xs: Vec<f64> = slice.iter().map(|(x, _)| *x).collect();
        let vals: Vec<f64> = slice.iter().map(|(_, v)| *v).collect();
        per_param.push(
            rank_single_terms(&xs, &vals, k, space)
                .into_iter()
                .map(|(t, _)| t)
                .collect(),
        );
    }

    // Step 2: candidate term pool — singles plus cross-parameter products.
    let mut pool: Vec<Term> = Vec::new();
    for terms in &per_param {
        for t in terms {
            if allowed(t.param_mask()) {
                pool.push(t.clone());
            }
        }
    }
    // Products over every subset of parameters of size ≥ 2.
    let param_ids: Vec<usize> = (0..nparams).filter(|k| !per_param[*k].is_empty()).collect();
    let nsubsets = 1usize << param_ids.len();
    for subset in 1..nsubsets {
        let members: Vec<usize> = param_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| subset >> i & 1 == 1)
            .map(|(_, &k)| k)
            .collect();
        if members.len() < 2 {
            continue;
        }
        let mask = members.iter().fold(0u64, |m, &k| m | 1u64 << k);
        if !allowed(mask) {
            continue;
        }
        // All combinations of one candidate term per member parameter.
        let mut combos: Vec<Term> = vec![Term::default()];
        for &k in &members {
            let mut next = Vec::new();
            for c in &combos {
                for t in &per_param[k] {
                    next.push(c.product(t));
                }
            }
            combos = next;
        }
        pool.extend(combos);
    }
    pool.dedup();

    // Step 3: hypotheses = constant + subsets of the pool of size ≤ max_terms.
    let mut best: Option<(Model, f64)> = None;
    let mut count = 0usize;
    let consider = |m: Model, cv: f64, best: &mut Option<(Model, f64)>| {
        let better = match best {
            None => true,
            Some((bm, bcv)) => {
                cv < *bcv - 1e-12
                    || (cv < *bcv + 1e-12 && hypothesis_complexity(&m) < hypothesis_complexity(bm))
            }
        };
        if better {
            *best = Some((m, cv));
        }
    };
    if let Some((m, cv)) = fit_hypothesis(&[], &coords, &ys) {
        count += 1;
        consider(m, cv, &mut best);
    }
    for (i, t1) in pool.iter().enumerate() {
        count += 1;
        if let Some((m, cv)) = fit_hypothesis(&[t1], &coords, &ys) {
            consider(m, cv, &mut best);
        }
        if space.max_terms >= 2 {
            for t2 in pool.iter().skip(i + 1) {
                count += 1;
                if let Some((m, cv)) = fit_hypothesis(&[t1, t2], &coords, &ys) {
                    consider(m, cv, &mut best);
                }
            }
        }
    }
    let (model, cv) = best.unwrap_or((Model::constant(0.0), 0.0));
    finalize(model, cv, &coords, &ys, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set1(xs: &[f64], f: impl Fn(f64) -> f64) -> (Vec<f64>, Vec<f64>) {
        (xs.to_vec(), xs.iter().map(|&x| f(x)).collect())
    }

    #[test]
    fn recovers_quadratic() {
        let (xs, ys) = set1(&[4.0, 8.0, 16.0, 32.0, 64.0], |x| 3.0 + 0.5 * x * x);
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::default());
        assert!(fit.quality.smape < 1.0, "smape={}", fit.quality.smape);
        let m = &fit.model;
        assert!(m.uses_param(0));
        // The chosen exponent must be exactly 2 with no log factor.
        assert_eq!(m.terms.len(), 1);
        assert!((m.terms[0].1.factors[0].exp - 2.0).abs() < 1e-9);
        assert_eq!(m.terms[0].1.factors[0].log_exp, 0);
        assert!((m.terms[0].0 - 0.5).abs() < 0.01);
        assert!((m.constant - 3.0).abs() < 0.5);
    }

    #[test]
    fn recovers_log_model() {
        let (xs, ys) = set1(&[4.0, 8.0, 16.0, 32.0, 64.0], |x| 10.0 + 2.0 * x.log2());
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::default());
        assert!(fit.quality.smape < 0.5);
        assert_eq!(fit.model.terms.len(), 1);
        let t = &fit.model.terms[0].1.factors[0];
        assert_eq!((t.exp, t.log_exp), (0.0, 1));
    }

    #[test]
    fn recovers_n_log_n() {
        let (xs, ys) = set1(&[8.0, 16.0, 32.0, 64.0, 128.0], |x| 1e-3 * x * x.log2());
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::default());
        assert!(fit.quality.smape < 0.5, "smape={}", fit.quality.smape);
        let t = &fit.model.terms[0].1.factors[0];
        assert_eq!((t.exp, t.log_exp), (1.0, 1));
    }

    #[test]
    fn constant_data_gives_constant_model() {
        let (xs, ys) = set1(&[4.0, 8.0, 16.0, 32.0, 64.0], |_| 7.5);
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::default());
        assert!(fit.model.is_constant(), "model: {}", fit.model);
        assert!((fit.model.constant - 7.5).abs() < 1e-9);
    }

    #[test]
    fn sqrt_exponent_found() {
        let (xs, ys) = set1(&[4.0, 16.0, 64.0, 256.0, 1024.0], |x| 2.0 * x.sqrt());
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::default());
        let t = &fit.model.terms[0].1.factors[0];
        assert!((t.exp - 0.5).abs() < 1e-9);
    }

    fn grid2(xs: &[f64], ys: &[f64], f: impl Fn(f64, f64) -> f64) -> MeasurementSet {
        let mut s = MeasurementSet::new(vec!["p".into(), "size".into()]);
        for &x in xs {
            for &y in ys {
                s.push(vec![x, y], vec![f(x, y)]);
            }
        }
        s
    }

    #[test]
    fn multi_param_additive_recovered() {
        let ms = grid2(
            &[4.0, 8.0, 16.0, 32.0, 64.0],
            &[25.0, 30.0, 35.0, 40.0, 45.0],
            |p, s| 1.0 + 0.1 * p + 1e-4 * s * s * s,
        );
        let fit = fit_multi_param(&ms, &SearchSpace::default(), None);
        assert!(fit.quality.smape < 2.0, "smape={}", fit.quality.smape);
        assert!(fit.model.uses_param(0));
        assert!(fit.model.uses_param(1));
        assert!(!fit.model.has_multiplicative_term(), "model: {}", fit.model);
    }

    #[test]
    fn multi_param_multiplicative_recovered() {
        // The paper's CalcQForElems ground truth: c · p^0.25 · size^3 (§B2).
        let ms = grid2(
            &[4.0, 8.0, 16.0, 32.0, 64.0],
            &[25.0, 30.0, 35.0, 40.0, 45.0],
            |p, s| 2.4e-8 * p.powf(0.25) * s * s * s,
        );
        let fit = fit_multi_param(&ms, &SearchSpace::default(), None);
        assert!(fit.quality.smape < 2.0, "smape={}", fit.quality.smape);
        assert!(fit.model.has_multiplicative_term(), "model: {}", fit.model);
    }

    #[test]
    fn restriction_forces_constant() {
        let ms = grid2(&[4.0, 8.0, 16.0], &[1.0, 2.0, 3.0], |p, _| 5.0 + 0.01 * p);
        let fit = fit_multi_param(&ms, &SearchSpace::default(), Some(&Restriction::constant()));
        assert!(fit.model.is_constant());
    }

    #[test]
    fn restriction_prunes_parameter() {
        // Data has a slight correlation with p by construction (noise), but
        // the restriction only allows size.
        let ms = grid2(
            &[4.0, 8.0, 16.0, 32.0, 64.0],
            &[25.0, 30.0, 35.0, 40.0, 45.0],
            |p, s| 1e-4 * s * s + 1e-6 * p,
        );
        let r = Restriction::from_monomials(vec![0b10]); // size only
        let fit = fit_multi_param(&ms, &SearchSpace::default(), Some(&r));
        assert!(!fit.model.uses_param(0), "p pruned: {}", fit.model);
        assert!(fit.model.uses_param(1));
    }

    #[test]
    fn restriction_forbids_cross_terms() {
        // Truly multiplicative data, but the taint says additive-only:
        // the model must not contain a p·size term.
        let ms = grid2(
            &[4.0, 8.0, 16.0, 32.0],
            &[16.0, 32.0, 64.0, 128.0],
            |p, s| 1e-3 * p * s,
        );
        let r = Restriction::from_monomials(vec![0b01, 0b10]);
        let fit = fit_multi_param(&ms, &SearchSpace::default(), Some(&r));
        assert!(!fit.model.has_multiplicative_term(), "model: {}", fit.model);
    }

    #[test]
    fn quality_reports_hypothesis_count() {
        let (xs, ys) = set1(&[4.0, 8.0, 16.0, 32.0], |x| x);
        let fit = fit_single_param(&xs, &ys, 0, &SearchSpace::small());
        assert!(fit.quality.hypotheses > 10);
        assert!(fit.quality.r2 > 0.99);
    }
}
