//! Scaling-law fits: how well does a measured series match `c·f(n)`?
//!
//! The paper's claims are asymptotic shapes (`Θ(log log n)` rounds,
//! `Θ(√log n)`, `Θ(log n)`, `Θ(1)`). For a measured series
//! `(n_i, y_i)` and a candidate law `f`, we fit the single constant
//! `c = Σ y·f / Σ f²` (least squares through the origin) and report the
//! coefficient of determination `R²`. Comparing `R²` across candidate
//! laws is how the experiment tables decide "who scales like what".

use serde::Serialize;

/// A candidate scaling law `f(n)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ScalingLaw {
    /// `f(n) = 1` — constant.
    Constant,
    /// `f(n) = log₂ log₂ n`.
    LogLog,
    /// `f(n) = √(log₂ n)`.
    SqrtLog,
    /// `f(n) = log₂ n`.
    Log,
    /// `f(n) = log₂² n`.
    LogSquared,
    /// `f(n) = n`.
    Linear,
}

impl ScalingLaw {
    /// Evaluates the law at `n`.
    #[must_use]
    pub fn eval(self, n: f64) -> f64 {
        let l = n.max(2.0).log2().max(1.0);
        match self {
            ScalingLaw::Constant => 1.0,
            ScalingLaw::LogLog => l.log2().max(1.0),
            ScalingLaw::SqrtLog => l.sqrt(),
            ScalingLaw::Log => l,
            ScalingLaw::LogSquared => l * l,
            ScalingLaw::Linear => n,
        }
    }

    /// All candidate laws, for model selection.
    #[must_use]
    pub fn all() -> [ScalingLaw; 6] {
        [
            ScalingLaw::Constant,
            ScalingLaw::LogLog,
            ScalingLaw::SqrtLog,
            ScalingLaw::Log,
            ScalingLaw::LogSquared,
            ScalingLaw::Linear,
        ]
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScalingLaw::Constant => "1",
            ScalingLaw::LogLog => "loglog n",
            ScalingLaw::SqrtLog => "sqrt(log n)",
            ScalingLaw::Log => "log n",
            ScalingLaw::LogSquared => "log^2 n",
            ScalingLaw::Linear => "n",
        }
    }
}

impl From<gossip_core::algo::Law> for ScalingLaw {
    /// Maps an algorithm's complexity label onto the nearest fittable
    /// `f(n)` candidate. The `Δ`-parameterized labels (`log n / log Δ`,
    /// `⌈log_Δ n⌉`) fix `Δ` only at run time; at fixed `Δ` both are
    /// `Θ(log n)` in `n`, which is the shape the fitter can test.
    fn from(law: gossip_core::algo::Law) -> ScalingLaw {
        use gossip_core::algo::Law;
        match law {
            Law::LogLog => ScalingLaw::LogLog,
            Law::SqrtLog => ScalingLaw::SqrtLog,
            Law::Log | Law::LogOverLogDelta | Law::TreeDepth => ScalingLaw::Log,
            Law::LogSquared => ScalingLaw::LogSquared,
        }
    }
}

/// A fitted law: `y ≈ c·f(n)` with goodness `r2`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct ScalingFit {
    /// The law fitted.
    pub law: ScalingLaw,
    /// Fitted constant `c`.
    pub c: f64,
    /// Coefficient of determination (1 = perfect).
    pub r2: f64,
}

/// Fits `y ≈ c·f(n)` by least squares through the origin.
///
/// A single point always fits exactly and has no goodness of fit, so its
/// `r2` is NaN (and [`best_fits`] ranks it last); `c` is still fitted.
///
/// # Panics
///
/// Panics if the series is empty or lengths differ.
#[must_use]
pub fn fit_ratio(ns: &[f64], ys: &[f64], law: ScalingLaw) -> ScalingFit {
    assert_eq!(ns.len(), ys.len(), "series lengths must match");
    assert!(!ns.is_empty(), "cannot fit an empty series");
    let fs: Vec<f64> = ns.iter().map(|&n| law.eval(n)).collect();
    let num: f64 = fs.iter().zip(ys).map(|(f, y)| f * y).sum();
    let den: f64 = fs.iter().map(|f| f * f).sum();
    let c = if den > 0.0 { num / den } else { 0.0 };
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|y| (y - mean_y).powi(2)).sum();
    let ss_res: f64 = fs.iter().zip(ys).map(|(f, y)| (y - c * f).powi(2)).sum();
    let r2 = if ys.len() < 2 {
        f64::NAN
    } else if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        f64::from(u8::from(ss_res == 0.0))
    };
    ScalingFit { law, c, r2 }
}

/// Fits every candidate law and returns them sorted by descending `R²`.
#[must_use]
pub fn best_fits(ns: &[f64], ys: &[f64]) -> Vec<ScalingFit> {
    let mut fits: Vec<ScalingFit> = ScalingLaw::all()
        .into_iter()
        .map(|law| fit_ratio(ns, ys, law))
        .collect();
    // Total order, matching the `Summary::from_samples` NaN policy: a
    // NaN R² (of either sign) sorts to the back instead of panicking
    // mid-sweep.
    fits.sort_by(|a, b| {
        a.r2.is_nan()
            .cmp(&b.r2.is_nan())
            .then(b.r2.total_cmp(&a.r2))
    });
    fits
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Vec<f64> {
        (8..=20).map(|e| (1u64 << e) as f64).collect()
    }

    #[test]
    fn log_series_is_recognized() {
        let xs = ns();
        let ys: Vec<f64> = xs.iter().map(|&n| 3.0 * n.log2() + 0.5).collect();
        let best = best_fits(&xs, &ys);
        assert_eq!(best[0].law, ScalingLaw::Log, "fits: {best:?}");
        assert!((best[0].c - 3.0).abs() < 0.2);
        assert!(best[0].r2 > 0.99);
    }

    #[test]
    fn loglog_series_is_recognized() {
        let xs = ns();
        let ys: Vec<f64> = xs.iter().map(|&n| 5.0 * n.log2().log2()).collect();
        let best = best_fits(&xs, &ys);
        assert_eq!(best[0].law, ScalingLaw::LogLog);
        assert!(best[0].r2 > 0.999);
    }

    #[test]
    fn sqrt_log_beats_log_for_sqrt_series() {
        let xs = ns();
        let ys: Vec<f64> = xs.iter().map(|&n| 2.0 * n.log2().sqrt()).collect();
        let sqrt_fit = fit_ratio(&xs, &ys, ScalingLaw::SqrtLog);
        let log_fit = fit_ratio(&xs, &ys, ScalingLaw::Log);
        assert!(sqrt_fit.r2 > log_fit.r2);
    }

    #[test]
    fn constant_series() {
        let xs = ns();
        let ys = vec![4.0; xs.len()];
        let f = fit_ratio(&xs, &ys, ScalingLaw::Constant);
        assert!((f.c - 4.0).abs() < 1e-12);
        assert!(f.r2 >= 1.0 - 1e-12);
    }

    #[test]
    fn one_point_has_no_r2() {
        // Every law fits one point exactly, so float rounding alone used
        // to decide between R² 1 and 0 and with it the "best" law.
        for law in ScalingLaw::all() {
            let f = fit_ratio(&[256.0], &[12.0], law);
            assert!(f.r2.is_nan(), "{law:?}: r2 {}", f.r2);
            assert!(
                (f.c * law.eval(256.0) - 12.0).abs() < 1e-9,
                "{law:?}: c still fits"
            );
        }
        let fits = best_fits(&[256.0], &[12.0]);
        assert!(fits.iter().all(|f| f.r2.is_nan()));
        // Two points are enough for an R².
        let f = fit_ratio(&[256.0, 1024.0], &[8.0, 10.0], ScalingLaw::Log);
        assert!(f.r2.is_finite());
    }

    #[test]
    fn nan_poisoned_series_ranks_without_panicking() {
        // Regression: a NaN sample makes every law's R² NaN-adjacent;
        // best_fits used to panic through partial_cmp().expect("finite
        // r2"). Post-fix it returns all six fits, finite R² first.
        let xs = ns();
        let mut ys: Vec<f64> = xs.iter().map(|&n| 3.0 * n.log2()).collect();
        ys[4] = f64::NAN;
        let fits = best_fits(&xs, &ys);
        assert_eq!(fits.len(), 6, "every law still reported");
        // With a poisoned y the residuals are NaN everywhere; the point
        // is ordering stability, not the exact values.
        let all_nan = fits.iter().all(|f| f.r2.is_nan());
        let finite_prefix = fits
            .iter()
            .position(|f| f.r2.is_nan())
            .is_none_or(|i| fits[i..].iter().all(|f| f.r2.is_nan()));
        assert!(all_nan || finite_prefix, "NaN R² sorts after finite R²");
    }

    #[test]
    fn law_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            ScalingLaw::all().iter().map(|l| l.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
