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
//!
//! Hypotheses are scored on shared *design columns*: each candidate term
//! is evaluated at every measurement point once per fit, and a hypothesis
//! is the constant column plus at most [`MAX_TERMS`] borrowed term
//! columns. Every leave-one-out fold solves the normal equations of those
//! columns with its held-out row skipped ([`least_squares`]), so scoring
//! copies no design. One rule selects among all hypotheses.

use crate::linalg::{least_squares, r_squared, smape};
use crate::measurement::MeasurementSet;
use crate::term::{Model, Term};
use serde::{Deserialize, Serialize};

/// Most non-constant terms per hypothesis (`n` in PMNF): a hypothesis is
/// the constant plus one or two candidate terms.
pub const MAX_TERMS: usize = 2;

/// How many best single-parameter terms per parameter feed the
/// multi-parameter heuristic.
pub const PER_PARAM_CANDIDATES: usize = 3;

/// The hypothesis search space: the exponent sets (defaults follow §4.5 of
/// the paper). The hypothesis shape is fixed by [`MAX_TERMS`] and
/// [`PER_PARAM_CANDIDATES`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Polynomial exponents `I` (0 is implied via pure-log terms).
    pub i_exps: Vec<f64>,
    /// Logarithm exponents `J`.
    pub j_exps: Vec<u32>,
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
        }
    }
}

impl SearchSpace {
    /// A smaller space for unit tests (faster, still expressive).
    pub fn small() -> SearchSpace {
        SearchSpace {
            i_exps: vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
            j_exps: vec![0, 1, 2],
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
    /// Number of hypotheses evaluated.
    pub hypotheses: usize,
}

/// A selected model plus its quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedModel {
    pub model: Model,
    pub quality: Quality,
}

/// Leave-one-out cross-validated SMAPE of the hypothesis with design
/// columns `cols` (the constant column first). Fold `k` solves the normal
/// equations of `cols` with row `k` skipped and predicts row `k`. Returns
/// `None` when a fold is unfittable (singular design).
fn loo_cv_smape<const N: usize>(cols: [&[f64]; N], ys: &[f64]) -> Option<f64> {
    // With no more points than unknowns nothing can be held out: score the
    // training error instead (slightly optimistic, but keeps tiny sweeps
    // usable).
    let hold_out = ys.len() > N;
    let mut pred = Vec::with_capacity(ys.len());
    for k in 0..ys.len() {
        let coef = least_squares(cols, ys, hold_out.then_some(k))?;
        pred.push(cols.iter().zip(&coef).map(|(col, c)| col[k] * c).sum());
    }
    Some(smape(&pred, ys))
}

/// Fit one hypothesis and score it: its coefficients on all points and its
/// leave-one-out CV. `None` when either is unfittable.
fn fit<const N: usize>(cols: [&[f64]; N], ys: &[f64]) -> Option<([f64; N], f64)> {
    const { assert!(N <= MAX_TERMS + 1) };
    let cv = loo_cv_smape(cols, ys)?;
    Some((least_squares(cols, ys, None)?, cv))
}

/// Complexity of a hypothesis (tie-breaking: prefer simpler models).
fn complexity<'a>(terms: impl ExactSizeIterator<Item = &'a Term>) -> f64 {
    terms.len() as f64 * 10.0 + terms.map(Term::complexity).sum::<f64>()
}

/// The selection rule. The hypothesis `terms`, fitted as `coef` (the
/// constant first) with CV `cv`, replaces the incumbent `best` when its CV
/// is lower by more than 1e-12, or equal within 1e-12 and it is simpler.
fn consider(best: &mut Option<(Model, f64)>, terms: &[&Term], coef: &[f64], cv: f64) {
    let better = match best {
        None => true,
        Some((bm, bcv)) => {
            cv < *bcv - 1e-12
                || (cv < *bcv + 1e-12
                    && complexity(terms.iter().copied())
                        < complexity(bm.terms.iter().map(|(_, t)| t)))
        }
    };
    if better {
        let model = Model {
            constant: coef[0],
            terms: terms
                .iter()
                .zip(&coef[1..])
                .map(|(t, &c)| (c, (*t).clone()))
                .collect(),
        };
        *best = Some((model, cv));
    }
}

fn finalize(
    best: Option<(Model, f64)>,
    pred: impl FnOnce(&Model) -> Vec<f64>,
    ys: &[f64],
    hypotheses: usize,
) -> FittedModel {
    let (model, cv) = best.unwrap_or((Model::constant(0.0), 0.0));
    let pred = pred(&model);
    let quality = Quality {
        cv_smape: cv,
        smape: smape(&pred, ys),
        r2: r_squared(&pred, ys),
        hypotheses,
    };
    FittedModel { model, quality }
}

/// The single-term scan shared by [`fit_single_param`] and the
/// multi-parameter pool: the constant plus each one of `terms`
/// (single-parameter terms), fitted to `(xs, ys)`. Returns `(index into
/// terms, coefficients, CV)` for every term that fits, in `terms` order.
fn scan_single_terms(terms: &[Term], xs: &[f64], ys: &[f64]) -> Vec<(usize, [f64; 2], f64)> {
    let ones = vec![1.0; xs.len()];
    let mut col = vec![0.0; xs.len()];
    let mut fits = Vec::with_capacity(terms.len());
    for (i, term) in terms.iter().enumerate() {
        for (c, &x) in col.iter_mut().zip(xs) {
            *c = term.factors[0].eval(x);
        }
        if let Some((coef, cv)) = fit([&ones, &col], ys) {
            fits.push((i, coef, cv));
        }
    }
    fits
}

/// Search the best single-parameter model for data `(xs, ys)`, where `xs`
/// are values of parameter `param`.
pub fn fit_single_param(xs: &[f64], ys: &[f64], param: usize, space: &SearchSpace) -> FittedModel {
    let terms = space.single_param_terms(param);
    let mut best = None;
    let constant = fit([&vec![1.0; xs.len()]], ys);
    if let Some((coef, cv)) = constant {
        consider(&mut best, &[], &coef, cv);
    }
    for (i, coef, cv) in scan_single_terms(&terms, xs, ys) {
        consider(&mut best, &[&terms[i]], &coef, cv);
    }
    let mut at = vec![1.0; param + 1];
    let pred = |m: &Model| {
        xs.iter()
            .map(|&x| {
                at[param] = x;
                m.eval(&at)
            })
            .collect()
    };
    finalize(
        best,
        pred,
        ys,
        usize::from(constant.is_some()) + terms.len(),
    )
}

/// Search the best multi-parameter model over a measurement set.
///
/// `restriction` is the taint-derived prior: `None` reproduces black-box
/// Extra-P; `Some` prunes parameters and term structures (§4.5), and one
/// that forbids every parameter leaves only the constant hypothesis. The
/// heuristic mirrors Extra-P's fast multi-parameter modeling: the
/// [`PER_PARAM_CANDIDATES`] best single-parameter terms of each parameter
/// are combined additively and multiplicatively instead of searching the
/// full cross-product space.
pub fn fit_multi_param(
    ms: &MeasurementSet,
    space: &SearchSpace,
    restriction: Option<&Restriction>,
) -> FittedModel {
    let _span = pt_util::trace::span("extrap", "fit");
    let ys = ms.means();
    if ys.is_empty() {
        return FittedModel {
            model: Model::constant(0.0),
            quality: Quality::default(),
        };
    }
    let allowed = |mask: u64| restriction.is_none_or(|r| r.allows_mask(mask));

    // Step 1: best single-parameter terms per allowed parameter.
    let per_param: Vec<Vec<Term>> = (0..ms.num_params())
        .map(|k| {
            if !allowed(1u64 << k) {
                return Vec::new();
            }
            let slice = ms.slice_along(k);
            if slice.len() < 2 {
                return Vec::new();
            }
            let (xs, vals): (Vec<f64>, Vec<f64>) = slice.into_iter().unzip();
            let terms = space.single_param_terms(k);
            let mut fits = scan_single_terms(&terms, &xs, &vals);
            fits.sort_by(|a, b| a.2.total_cmp(&b.2));
            fits.iter()
                .take(PER_PARAM_CANDIDATES)
                .map(|&(i, ..)| terms[i].clone())
                .collect()
        })
        .collect();

    // Step 2: candidate term pool — singles plus cross-parameter products.
    let mut pool: Vec<Term> = per_param.iter().flatten().cloned().collect();
    // Products over every subset of parameters of size ≥ 2.
    let param_ids: Vec<usize> = (0..per_param.len())
        .filter(|k| !per_param[*k].is_empty())
        .collect();
    for subset in 1usize..1 << param_ids.len() {
        let members: Vec<usize> = param_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| subset >> i & 1 == 1)
            .map(|(_, &k)| k)
            .collect();
        let mask = members.iter().fold(0u64, |m, &k| m | 1u64 << k);
        if members.len() < 2 || !allowed(mask) {
            continue;
        }
        // All combinations of one candidate term per member parameter.
        let mut combos: Vec<Term> = vec![Term::default()];
        for &k in &members {
            combos = combos
                .iter()
                .flat_map(|c| per_param[k].iter().map(|t| c.product(t)))
                .collect();
        }
        pool.extend(combos);
    }
    pool.dedup();

    // Step 3: hypotheses = the constant, every pool term, every pool pair.
    let ones = vec![1.0; ys.len()];
    let cols: Vec<Vec<f64>> = pool
        .iter()
        .map(|t| ms.points.iter().map(|p| t.eval(&p.coords)).collect())
        .collect();
    let mut best = None;
    let mut hypotheses = 0usize;
    if let Some((coef, cv)) = fit([&ones], &ys) {
        hypotheses += 1;
        consider(&mut best, &[], &coef, cv);
    }
    for (i, t1) in pool.iter().enumerate() {
        hypotheses += 1;
        if let Some((coef, cv)) = fit([&ones, &cols[i]], &ys) {
            consider(&mut best, &[t1], &coef, cv);
        }
        for (j, t2) in pool.iter().enumerate().skip(i + 1) {
            hypotheses += 1;
            if let Some((coef, cv)) = fit([&ones, &cols[i], &cols[j]], &ys) {
                consider(&mut best, &[t1, t2], &coef, cv);
            }
        }
    }
    let pred = |m: &Model| ms.points.iter().map(|p| m.eval(&p.coords)).collect();
    finalize(best, pred, &ys, hypotheses)
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

    /// The leave-one-out scoring the column form replaced, kept as the
    /// reference: every fold copies the design's other rows into a fresh
    /// matrix and solves it with a row-based OLS.
    #[allow(clippy::needless_range_loop)]
    mod reference {
        use crate::linalg::smape;

        fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
            let n = b.len();
            for col in 0..n {
                let pivot =
                    (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
                if a[pivot][col].abs() < 1e-12 {
                    return None;
                }
                a.swap(col, pivot);
                b.swap(col, pivot);
                let d = a[col][col];
                for row in 0..n {
                    if row == col {
                        continue;
                    }
                    let f = a[row][col] / d;
                    if f == 0.0 {
                        continue;
                    }
                    for k in col..n {
                        a[row][k] -= f * a[col][k];
                    }
                    b[row] -= f * b[col];
                }
            }
            Some((0..n).map(|i| b[i] / a[i][i]).collect())
        }

        fn least_squares(design: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
            let rows = design.len();
            if rows == 0 {
                return None;
            }
            let cols = design[0].len();
            if rows < cols {
                return None;
            }
            let mut ata = vec![vec![0.0; cols]; cols];
            let mut atb = vec![0.0; cols];
            for (r, row) in design.iter().enumerate() {
                for i in 0..cols {
                    atb[i] += row[i] * y[r];
                    for j in i..cols {
                        ata[i][j] += row[i] * row[j];
                    }
                }
            }
            for i in 0..cols {
                for j in 0..i {
                    ata[i][j] = ata[j][i];
                }
            }
            for (i, row) in ata.iter_mut().enumerate() {
                row[i] += 1e-12;
            }
            solve(ata, atb)
        }

        pub fn loo_cv_smape(design: &[Vec<f64>], ys: &[f64]) -> Option<f64> {
            let n = ys.len();
            let ncoef = design.first().map(|r| r.len()).unwrap_or(1);
            if n <= ncoef {
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
    }

    /// SplitMix64: a deterministic stream of uniform draws in `[0, 1)`.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The column-form CV of `cols` against the reference on the same
    /// design, bit for bit (or both unfittable). Returns whether it fit.
    fn cv_matches_reference<const N: usize>(cols: [&[f64]; N], ys: &[f64]) -> bool {
        let rows: Vec<Vec<f64>> = (0..ys.len())
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect();
        let got = loo_cv_smape(cols, ys);
        let want = reference::loo_cv_smape(&rows, ys);
        assert_eq!(
            got.map(f64::to_bits),
            want.map(f64::to_bits),
            "cols {cols:?}, ys {ys:?}: {got:?} vs {want:?}"
        );
        got.is_some()
    }

    #[test]
    fn loo_cv_matches_the_clone_per_fold_reference_bit_for_bit() {
        let mut draw = Draws(34);
        let (mut fitted, mut singular, mut fallback) = (0, 0, 0);
        for round in 0..600 {
            // 1..=9 points: n ≤ ncoef (the training-error fallback) for the
            // smallest, real leave-one-out folds for the rest.
            let n = 1 + round % 9;
            let ones = vec![1.0; n];
            let x: Vec<f64> = (0..n).map(|_| 1.0 + 100.0 * draw.next()).collect();
            let scale = [1e-6, 1.0, 1e6][round % 3];
            let ys: Vec<f64> = x
                .iter()
                .map(|&x| scale * (2.0 + x.sqrt() * (1.0 + 0.1 * draw.next())))
                .collect();
            // The second term column is independent, nearly collinear with
            // the first (relative jitter down to 1e-15), or an exact copy.
            let jitter = [0.5, 1e-6, 1e-10, 1e-15, 0.0][round % 5];
            let z: Vec<f64> = x
                .iter()
                .map(|&v| v * v * (1.0 + jitter * (draw.next() - 0.5)))
                .collect();
            let near: Vec<f64> = x
                .iter()
                .map(|&v| v * (1.0 + jitter * (draw.next() - 0.5)))
                .collect();
            for ok in [
                cv_matches_reference([&ones], &ys),
                cv_matches_reference([&ones, &x], &ys),
                cv_matches_reference([&ones, &x, &z], &ys),
                cv_matches_reference([&ones, &x, &near], &ys),
            ] {
                if ok {
                    fitted += 1;
                } else {
                    singular += 1;
                }
            }
            fallback += usize::from(n <= 3);
        }
        // Both outcomes and the fallback were exercised.
        assert!(
            fitted > 1000 && singular > 50 && fallback > 100,
            "{fitted} {singular} {fallback}"
        );
    }
}
