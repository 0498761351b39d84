//! Minimal dense linear algebra: ordinary least squares via normal
//! equations and Gaussian elimination with partial pivoting.
//!
//! PMNF hypotheses are linear in their coefficients (the nonlinearity lives
//! in the fixed exponents), so fitting a hypothesis is a tiny OLS problem —
//! at most `1 + MAX_TERMS = 3` unknowns (§4.5). The design is given as
//! borrowed columns, one per unknown, and the system size is a const
//! generic, so a fit allocates nothing.

// In-place elimination and symmetric fill-in read clearest with explicit
// indices.
#![allow(clippy::needless_range_loop)]

/// Solve `A x = b` in place for a small dense system. Returns `None` when
/// the matrix is (numerically) singular.
pub fn solve<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Option<[f64; N]> {
    for col in 0..N {
        // Partial pivoting.
        let pivot = (col..N).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let d = a[col][col];
        for row in 0..N {
            if row == col {
                continue;
            }
            let f = a[row][col] / d;
            if f == 0.0 {
                continue;
            }
            for k in col..N {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    Some(std::array::from_fn(|i| b[i] / a[i][i]))
}

/// Ordinary least squares over the design whose columns are `cols`: find
/// `c` minimizing `Σ_r (Σ_i c_i·cols[i][r] − y[r])²` over every row `r`
/// but `skip` (a leave-one-out fold's held-out row). The normal equations
/// are accumulated straight from the columns, row by row. Returns `None`
/// if there are fewer rows than unknowns or the normal equations are
/// singular (e.g. collinear columns).
pub fn least_squares<const N: usize>(
    cols: [&[f64]; N],
    y: &[f64],
    skip: Option<usize>,
) -> Option<[f64; N]> {
    let rows = y.len() - usize::from(skip.is_some_and(|k| k < y.len()));
    if rows == 0 || rows < N {
        return None;
    }
    // Normal equations: (Dᵀ D) c = Dᵀ y.
    let mut ata = [[0.0; N]; N];
    let mut atb = [0.0; N];
    for r in (0..y.len()).filter(|&r| Some(r) != skip) {
        for i in 0..N {
            atb[i] += cols[i][r] * y[r];
            for j in i..N {
                ata[i][j] += cols[i][r] * cols[j][r];
            }
        }
    }
    for i in 0..N {
        for j in 0..i {
            ata[i][j] = ata[j][i];
        }
    }
    // Tikhonov nudge for near-singular systems keeps the search robust when
    // two candidate terms are nearly collinear on the sampled grid.
    for i in 0..N {
        ata[i][i] += 1e-12;
    }
    solve(ata, atb)
}

/// Symmetric mean absolute percentage error (in percent), the robust score
/// Extra-P uses for model selection across magnitudes.
pub fn smape(pred: &[f64], actual: &[f64]) -> f64 {
    debug_assert_eq!(pred.len(), actual.len());
    if pred.is_empty() {
        return 0.0;
    }
    let total: f64 = pred
        .iter()
        .zip(actual)
        .map(|(&p, &a)| {
            let denom = p.abs() + a.abs();
            if denom < 1e-300 {
                0.0
            } else {
                2.0 * (p - a).abs() / denom
            }
        })
        .sum();
    100.0 * total / pred.len() as f64
}

/// Coefficient of determination R².
pub fn r_squared(pred: &[f64], actual: &[f64]) -> f64 {
    let n = actual.len() as f64;
    if actual.is_empty() {
        return 1.0;
    }
    let mean = actual.iter().sum::<f64>() / n;
    let ss_tot: f64 = actual.iter().map(|a| (a - mean) * (a - mean)).sum();
    let ss_res: f64 = pred
        .iter()
        .zip(actual)
        .map(|(p, a)| (p - a) * (p - a))
        .sum();
    if ss_tot < 1e-300 {
        if ss_res < 1e-300 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Residual sum of squares of `coef` on the line `y = c0 + c1·x`.
    fn rss(xs: &[f64], y: &[f64], coef: [f64; 2]) -> f64 {
        xs.iter()
            .zip(y)
            .map(|(x, yi)| (coef[0] + coef[1] * x - yi).powi(2))
            .sum()
    }

    #[test]
    fn solve_identity() {
        let a = [[1.0, 0.0], [0.0, 1.0]];
        let x = solve(a, [3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_general_3x3() {
        let a = [[2.0, 1.0, -1.0], [-3.0, -1.0, 2.0], [-2.0, 1.0, 2.0]];
        let x = solve(a, [8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
        assert!((x[2] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = [[1.0, 2.0], [2.0, 4.0]];
        assert!(solve(a, [1.0, 2.0]).is_none());
    }

    #[test]
    fn ols_recovers_exact_line() {
        // y = 3 + 2x sampled exactly.
        let ones = [1.0; 5];
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        let y: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let c = least_squares([&ones, &xs], &y, None).unwrap();
        assert!((c[0] - 3.0).abs() < 1e-6);
        assert!((c[1] - 2.0).abs() < 1e-6);
        assert!(rss(&xs, &y, c) < 1e-9);
    }

    #[test]
    fn ols_minimizes_noisy_fit() {
        let ones = [1.0; 10];
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let y: Vec<f64> = (1..=10)
            .map(|x| 1.0 + 0.5 * x as f64 + if x % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let c = least_squares([&ones, &xs], &y, None).unwrap();
        // Perturbing the coefficients must not reduce the RSS.
        let base = rss(&xs, &y, c);
        for delta in [-0.05, 0.05] {
            let worse = rss(&xs, &y, [c[0] + delta, c[1]]);
            assert!(worse >= base - 1e-12);
            let worse = rss(&xs, &y, [c[0], c[1] + delta]);
            assert!(worse >= base - 1e-12);
        }
    }

    #[test]
    fn skipping_a_row_fits_the_remaining_rows_bit_for_bit() {
        let ones = [1.0; 6];
        let xs = [1.0, 2.5, 4.0, 7.0, 11.0, 16.0];
        let y = [2.0, 3.1, 5.2, 7.9, 12.5, 16.1];
        for k in 0..xs.len() {
            let rest = |v: &[f64]| -> Vec<f64> {
                v.iter()
                    .enumerate()
                    .filter(|&(r, _)| r != k)
                    .map(|(_, &x)| x)
                    .collect()
            };
            let skipped = least_squares([&ones, &xs], &y, Some(k)).unwrap();
            let removed = least_squares([&ones[1..], &rest(&xs)], &rest(&y), None).unwrap();
            assert_eq!(skipped.map(f64::to_bits), removed.map(f64::to_bits));
        }
        // A skipped row still counts against the rows-vs-unknowns check.
        assert!(least_squares([&ones[..2], &xs[..2]], &y[..2], Some(0)).is_none());
    }

    #[test]
    fn smape_basics() {
        assert_eq!(smape(&[], &[]), 0.0);
        assert!((smape(&[1.0], &[1.0])).abs() < 1e-12);
        // 100% off: |2-1|*2/(3) = 2/3 -> ~66.7%
        assert!((smape(&[2.0], &[1.0]) - 200.0 / 3.0).abs() < 1e-9);
        // Symmetric.
        assert!((smape(&[1.0], &[2.0]) - smape(&[2.0], &[1.0])).abs() < 1e-12);
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        let actual = vec![1.0, 2.0, 3.0];
        assert!((r_squared(&actual, &actual) - 1.0).abs() < 1e-12);
        let mean = vec![2.0, 2.0, 2.0];
        assert!(r_squared(&mean, &actual).abs() < 1e-12);
    }
}
