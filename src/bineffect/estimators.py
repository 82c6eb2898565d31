"""Point estimates and standard errors: regression, IPW, AIPW and TMLE."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, Sequence

import numpy as np
from scipy.special import expit, logit

from .core import (
    ConvergenceError,
    DegenerateArmError,
    EstimandSpec,
    EstimateReport,
    ObservationSet,
    SeparationError,
    SingularDesignError,
    ValidationError,
    positivity_diagnostic,
    z_quantile,
)
from .nuisance import (
    OutcomeModel,
    PropensityModel,
    RegressionFit,
    cell_moments,
    cell_rows,
    fit_logistic,
    fit_ols_interacted,
    logistic_cells,
    refit_logistic,
)

_TMLE_BOUND = 5e-4   # keeps logit of scaled predictions finite
_TMLE_TOL = 1e-10
_TMLE_MAX_ITER = 100

_RESAMPLE_ERRORS = (DegenerateArmError, SeparationError, SingularDesignError)
_BLOCK_ELEMENTS = 2**17  # bootstrap indices per block: caps the (m, n) working set


@dataclass(frozen=True)
class BootstrapConfig:
    """Nonparametric bootstrap settings; results are deterministic given `seed`.

    `seed` is anything np.random.default_rng accepts, or an existing
    Generator, which the resampling then advances.
    """

    replicates: int = 1000
    seed: int | np.random.Generator = 0
    ci_method: Literal["normal", "percentile"] = "normal"

    def __post_init__(self) -> None:
        if self.replicates < 2:
            raise ValidationError(f"bootstrap needs at least 2 replicates, got {self.replicates}")
        if self.ci_method not in ("normal", "percentile"):
            raise ValidationError(f"ci_method must be 'normal' or 'percentile', got {self.ci_method!r}")
        if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
            raise ValidationError(f"bootstrap seed must be non-negative, got {self.seed}")


class Nuisances:
    """Nuisance fits for one sample, shared by every estimator and estimand.

    The outcome regression and the propensity are fitted on first use, each
    at most once, unless a prefit model is injected. The predictions `pscore`,
    `m1` and `m0` and the positivity diagnostics are computed once; the
    predictions hold one value per (t, w) cell of `cell_rows(data)`, which a
    unit reads at its cell index. A fit that raises is not cached, so the
    next estimator that needs it raises too.
    """

    def __init__(
        self,
        data: ObservationSet,
        outcome: OutcomeModel | None = None,
        propensity: PropensityModel | None = None,
    ) -> None:
        self.data = data
        self.propensity_injected = propensity is not None
        if outcome is not None:
            self.outcome = outcome
        if propensity is not None:
            self.propensity = propensity

    @cached_property
    def regression(self) -> RegressionFit:
        """Interacted OLS fit; `reg` always uses this one."""
        return fit_ols_interacted(self.data)

    @cached_property
    def outcome(self) -> OutcomeModel:
        return self.regression

    @cached_property
    def propensity(self) -> PropensityModel:
        return fit_logistic(self.data)

    @cached_property
    def pscore(self) -> np.ndarray:
        return np.asarray(self.propensity.predict_proba(cell_rows(self.data)[0]), dtype=float)

    @cached_property
    def m1(self) -> np.ndarray:
        return np.asarray(self.outcome.predict(1.0, cell_rows(self.data)[0]), dtype=float)

    @cached_property
    def m0(self) -> np.ndarray:
        return np.asarray(self.outcome.predict(0.0, cell_rows(self.data)[0]), dtype=float)

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        return tuple(positivity_diagnostic(self.pscore[cell_rows(self.data)[2]]))


def _per_contrast(theta: np.ndarray, a: list, b: list, contrasts: np.ndarray) -> list[tuple]:
    """(point, a, b) per row of `contrasts` from the arm triple `theta` and
    the cell means `a` and slopes in y `b` of each arm's influence values."""
    return [(theta @ c, *(sum(cj * v for cj, v in zip(c, arms) if cj) for arms in (a, b))) for c in contrasts]


def _unit_influence(data: ObservationSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-unit influence values a_c + b_c (y_i - ybar_c), c the unit's cell."""
    cell, means = cell_rows(data)[2], cell_moments(data)[2]
    return a[cell] + b[cell] * (data.y - means[cell])


def _reg_fits(data: ObservationSet, nuis: Nuisances, contrasts: np.ndarray) -> list[tuple]:
    """Regression (point, a, b) per row of `contrasts`: a and b are the
    means and the slopes in y of the influence values in each cell.

    The interacted OLS is one least-squares line per arm in wc = w - w_mean,
    so mu1 = beta0 + beta_t and mu0 = beta0 are the arms' intercepts: each a
    sum of its arm's outcomes times implied weights fixed by the covariates
    (Chattopadhyay & Zubizarreta 2023). Arm a's influence values
    are 1(t_i = a) omega_i r_i, with omega_i = n/n_a - n m_a' S_a^-1 (wc_i -
    m_a) for the arm's mean m_a and scatter S_a of wc. E[Y] is ybar, with
    influence values y_i - ybar - wc_i . beta_w. These are the stacked
    M-estimator's influence values (Stefanski & Boos 2002) with the
    covariate mean used to center w held fixed. Both arms' scatters are
    solved as one stack. Every sum over the cells is an elementwise
    product's `.sum()`, so none runs through BLAS.
    """
    fit = nuis.regression
    w, t, _ = cell_rows(data)
    sizes, sums, means, _ = cell_moments(data)
    n, p = data.n, data.p
    wc = [column - center for column, center in zip(w.T, fit.w_mean)]
    arms, n_arms, centres, scatters = (t, 1.0 - t), [], [], []
    for arm in arms:
        counts = sizes * arm  # each cell's units in the arm
        n_arms.append(counts.sum())
        centres.append([(counts * col).sum() / n_arms[-1] for col in wc])
        dev = [col - m for col, m in zip(wc, centres[-1])]
        scatters.append([(counts * dj * dk).sum() for dj in dev for dk in dev])
    tilts = np.linalg.solve(np.reshape(scatters, (2, p, p)), np.reshape(centres, (2, p, 1)))[..., 0]
    # omega = n/n_a - n tilt . (wc - m_a), with the arm mean m_a taken out of the sum over columns
    slopes = [
        arm * (n / n_arm + n * (tilt @ centre) - n * sum(s * col for s, col in zip(tilt, wc)))
        for arm, n_arm, tilt, centre in zip(arms, n_arms, tilts, np.reshape(centres, (2, p)))
    ]
    residuals = means - fit.predict(t, w)
    y_bar = sums.sum() / n
    a = [slope * residuals for slope in slopes]
    a.append(means - y_bar - sum(beta * col for beta, col in zip(fit.beta_w, wc)))
    return _per_contrast(np.array([fit.beta0 + fit.beta_t, fit.beta0, y_bar]), a, slopes + [1.0], contrasts)


def _ipw_arms(t: np.ndarray, y_sums: np.ndarray, pscore: np.ndarray, n: int) -> np.ndarray:
    """Horvitz-Thompson arm triple (mu1, mu0, E[Y]) of a sample of n units,
    from the treatment `t` of each cell, the sum of y over the units in that
    cell and the cell's propensity. An (m, k) `y_sums` and `pscore` give one
    triple per resample."""
    sums = [
        np.sum((t * y_sums) / pscore, axis=-1),
        np.sum(((1.0 - t) * y_sums) / (1.0 - pscore), axis=-1),
        np.sum(y_sums, axis=-1),
    ]
    return np.stack(sums, axis=-1) / n


def _bootstrap_many(
    data: ObservationSet,
    statistic: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    k: int,
    boot: BootstrapConfig,
    ci_level: float,
) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Resample rows with replacement; returns (ses, percentile cis, redraw note).

    A block of m resamples is one `rng.integers(0, n, size=(m, n))` draw; it
    gives the same indices, and leaves the generator in the same state, as m
    successive size-n draws. `statistic` takes the (m, n) block of index rows
    and returns their (m, k) estimates and an (m,) mask of the resamples it
    could evaluate. The others (a degenerate arm, separation, a singular
    design) are redrawn and counted, so the accepted resamples are the first
    `replicates` good draws of the stream. A block holds at most
    `_BLOCK_ELEMENTS` indices. The note is None unless more than 1% of
    resamples were redrawn.
    """
    z_quantile(ci_level)  # raises ValidationError for a level outside (0, 1)
    n = data.n
    rng = np.random.default_rng(boot.seed)
    block = max(1, _BLOCK_ELEMENTS // n)
    estimates = np.empty((boot.replicates, k))
    redraws = 0
    max_redraws = max(1000, 100 * boot.replicates)
    b = 0
    while b < boot.replicates:
        m = min(block, boot.replicates - b)
        values, ok = statistic(rng.integers(0, n, size=(m, n)))
        good = int(np.count_nonzero(ok))
        estimates[b : b + good] = values[ok]
        b += good
        redraws += m - good
        if redraws > max_redraws:
            raise ConvergenceError(
                f"bootstrap gave up after {redraws} redraws of degenerate resamples"
            )
    ses = estimates.std(axis=0, ddof=1)
    alpha = (1.0 - ci_level) / 2.0
    cis = np.quantile(estimates, [alpha, 1.0 - alpha], axis=0).T
    note = None
    if redraws > 0.01 * boot.replicates:
        note = (
            f"bootstrap redrew {redraws} degenerate resamples "
            f"({100.0 * redraws / boot.replicates:.1f}% of {boot.replicates})"
        )
    return ses, cis, note


def bootstrap_se(
    data: ObservationSet,
    estimator_fn: Callable[[ObservationSet], float],
    boot: BootstrapConfig,
    ci_level: float = 0.95,
) -> tuple[float, tuple[float, float]]:
    """Nonparametric bootstrap SE and percentile CI of a scalar estimator.

    `estimator_fn` maps an ObservationSet to a float and is re-run (all
    nuisances refit) on each resample. Deterministic for a fixed seed. Warns
    when more than 1% of resamples had to be redrawn.
    """

    def statistic(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.empty((idx.shape[0], 1))
        ok = np.ones(idx.shape[0], dtype=bool)
        for i, rows in enumerate(idx):
            try:
                values[i] = estimator_fn(data.subset(rows))
            except _RESAMPLE_ERRORS:
                ok[i] = False
        return values, ok

    ses, cis, note = _bootstrap_many(data, statistic, 1, boot, ci_level)
    if note is not None:
        warnings.warn(note, stacklevel=2)
    return float(ses[0]), (float(cis[0, 0]), float(cis[0, 1]))


def _ipw(
    data: ObservationSet,
    nuis: Nuisances,
    contrasts: np.ndarray,
    boot: BootstrapConfig,
    ci_level: float,
) -> tuple[list[tuple], str | None]:
    """IPW (point, bootstrap SE, percentile CI or None) per row of
    `contrasts`, and the bootstrap's redraw note.

    All estimands share one set of resamples. The sample and each resample
    are seen as their counts and y sums per `logistic_cells` cell; with
    continuous covariates each unit is its own cell. The propensity is
    refitted on a whole block of resamples at once, warm-started from the
    full-sample fit; an injected propensity is read once per cell and not
    refitted.
    """
    n, y = data.n, data.y
    x, t, cell = logistic_cells(data)
    k = t.shape[0]
    y_cells = cell_moments(data)[1]
    pscore_cells = nuis.pscore
    if not nuis.propensity_injected:
        start = np.concatenate([[nuis.propensity.intercept], nuis.propensity.coef])

    def statistic(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = idx.shape[0]
        offsets = (cell[idx] + k * np.arange(m)[:, None]).ravel()
        counts = np.bincount(offsets, minlength=m * k).reshape(m, k).astype(float)
        if nuis.propensity_injected:
            pscore, ok = pscore_cells, np.ones(m, dtype=bool)
        else:
            pscore, ok = refit_logistic(x, t, counts, start)
        y_sums = np.bincount(offsets, weights=y[idx].ravel(), minlength=m * k).reshape(m, k)
        return _ipw_arms(t, y_sums, pscore, n) @ contrasts.T, ok

    ses, cis, note = _bootstrap_many(data, statistic, len(contrasts), boot, ci_level)
    percentile = boot.ci_method == "percentile"
    rows = zip(contrasts @ _ipw_arms(t, y_cells, pscore_cells, n), ses, cis)
    return [(point, se, ci if percentile else None) for point, se, ci in rows], note


def _aipw_fits(data: ObservationSet, nuis: Nuisances, contrasts: np.ndarray) -> list[tuple]:
    """AIPW (point, a, b) per row of `contrasts`, a and b the means and the
    slopes in y of the influence values in each cell. The arm triple is the
    mean of the augmented terms t/pscore (y - m1) + m1, (1-t)/(1-pscore)
    (y - m0) + m0 and y, whose slopes are t/pscore, (1-t)/(1-pscore) and 1."""
    t, pscore, m1, m0 = cell_rows(data)[1], nuis.pscore, nuis.m1, nuis.m0
    sizes, _, means, _ = cell_moments(data)
    b = [t / pscore, (1.0 - t) / (1.0 - pscore), 1.0]
    z = [b[0] * (means - m1) + m1, b[1] * (means - m0) + m0, means]
    theta = np.array([(sizes * v).sum() for v in z]) / data.n
    return _per_contrast(theta, [v - mu for v, mu in zip(z, theta)], b, contrasts)


@dataclass(frozen=True)
class TmleFit:
    """Targeted estimate for one estimand: point, fluctuation coefficient and
    per-unit influence values."""

    point: float
    fluctuation: float
    influence: np.ndarray


def _fluctuate(ys_sums: np.ndarray, sizes: np.ndarray, offset: np.ndarray, h: np.ndarray) -> float:
    """One-dimensional logistic fluctuation: ys ~ expit(offset + beta * h).

    The units come grouped into cells that share their offset and h: row c
    holds the sum of ys over its `sizes[c]` units, and their offset and h.
    Newton iteration with step halving on the quasi-binomial log likelihood,
    whose sums over the cells are elementwise products' `.sum()`: numpy's
    pairwise sum, which does not depend on the BLAS thread count.
    Each coefficient tried is evaluated once: the accepted one's
    probabilities serve the next Newton step.
    """
    def evaluate(beta: float) -> tuple[np.ndarray, float]:
        """(probabilities, log likelihood) at beta."""
        probs = expit(offset + beta * h)
        clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
        loglik = (ys_sums * np.log(clipped)).sum() + ((sizes - ys_sums) * np.log(1.0 - clipped)).sum()
        return probs, float(loglik)

    beta = 0.0
    probs, current = evaluate(beta)
    for _ in range(_TMLE_MAX_ITER):
        score = float((h * (ys_sums - sizes * probs)).sum())
        curvature = float((h * h * (sizes * (probs * (1.0 - probs)))).sum())
        if curvature <= 0.0:
            break  # flat likelihood: nothing left to update
        step = score / curvature
        for _ in range(40):
            candidate = evaluate(beta + step)
            if candidate[1] >= current - 1e-12:
                break
            step /= 2.0
        else:  # every halving failed: the final step is taken all the same
            candidate = evaluate(beta + step)
        beta += step
        probs, current = candidate
        if abs(step) < _TMLE_TOL:
            return beta
    raise ConvergenceError(
        f"targeting fluctuation did not converge in {_TMLE_MAX_ITER} iterations"
    )


def _tmle_fits(data: ObservationSet, nuis: Nuisances, contrasts: np.ndarray) -> list[tuple]:
    """Targeted fit per (c1, c0, c_y) row of `contrasts`: its point, the cell
    means and slopes in y of its influence values, and its fluctuation
    coefficient. All rows share one untargeted start: y scaled to [0, 1] and
    the logits of the bounded initial fit.

    The offset, the clever covariate and the targeted predictions depend on
    a unit only through its (t, w), so everything runs on the sample's
    cells; the fluctuation takes each cell's size and sum of scaled y."""
    t, pscore, m1, m0 = cell_rows(data)[1], nuis.pscore, nuis.m1, nuis.m0
    sizes, _, means, _ = cell_moments(data)
    lo = float(data.y.min())
    span = float(data.y.max()) - lo
    if span == 0.0:
        zeros = np.zeros(t.shape[0])
        return [(0.0, zeros, zeros, 0.0) for _ in contrasts]

    ys_sums = sizes * ((means - lo) / span)
    logit_q1 = logit(np.clip((m1 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND))
    logit_q0 = logit(np.clip((m0 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND))
    logit_q_obs = np.where(t == 1.0, logit_q1, logit_q0)

    fits = []
    for c1, c0, c_y in contrasts:
        # clever covariate c1 t/pscore + c0 (1-t)/(1-pscore) + c_y, at each
        # fixed arm and on the observed one
        h_arm1 = c1 / pscore + c_y
        h_arm0 = c0 / (1.0 - pscore) + c_y
        h_obs = np.where(t == 1.0, h_arm1, h_arm0)

        beta = _fluctuate(ys_sums, sizes, logit_q_obs, h_obs)
        y1 = lo + span * expit(logit_q1 + beta * h_arm1)
        y0 = lo + span * expit(logit_q0 + beta * h_arm0)
        y_obs_pred = np.where(t == 1.0, y1, y0)

        # influence value H (y - Q) + plug-in - point; mean zero once targeted
        plug_in = c1 * y1 + c0 * y0 + c_y * y_obs_pred
        point = float((sizes * plug_in).sum() / data.n)
        fits.append((point, h_obs * (means - y_obs_pred) + plug_in - point, h_obs, float(beta)))
    return fits


ESTIMATOR_NAMES = ("reg", "ipw", "aipw", "tmle")

_CELL_FITS = {"reg": _reg_fits, "aipw": _aipw_fits, "tmle": _tmle_fits}


def check_estimate_args(estimators: Sequence[str], ci_level: float) -> None:
    """Raise ValidationError for an unknown estimator name or a level outside (0, 1)."""
    z_quantile(ci_level)
    for name in estimators:
        if name not in ESTIMATOR_NAMES:
            raise ValidationError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")


def estimate_many(
    data: ObservationSet,
    estimators: Sequence[str],
    estimands: Sequence[EstimandSpec],
    nuisances: Nuisances | None = None,
    boot: BootstrapConfig | None = None,
    ci_level: float = 0.95,
    seed: int | None = None,
) -> list[EstimateReport]:
    """One report per (estimator, estimand), estimators in the outer order.

    All estimators draw on one `Nuisances` (fresh for `data` unless given),
    so each nuisance model is fitted at most once. `boot` (default
    `BootstrapConfig()`) applies to ipw, whose estimands share one set of
    resamples. `seed` is recorded in every report. The arguments are checked
    before anything is fitted.

    Every estimand is a contrast of the policy means (mu1, mu0, E[Y]). reg
    and aipw estimate that triple and its influence values once, and each
    estimand's point and SE follow from its contrast. tmle scales its initial
    fit once and targets each estimand separately. Within a (t, w) cell each
    influence value of reg, aipw and tmle is affine in y, so their points and
    SEs are computed on the cells, from each cell's size, mean of y and
    centred second moment of y.
    """
    check_estimate_args(estimators, ci_level)
    nuis = nuisances if nuisances is not None else Nuisances(data)
    if nuis.data is not data:
        raise ValidationError("nuisances were built for a different ObservationSet")
    contrasts = np.reshape([e.contrast for e in estimands], (-1, 3))
    sizes, _, _, m2 = cell_moments(data)
    reports: list[EstimateReport] = []
    for name in estimators:
        note = None
        if name == "ipw":
            rows, note = _ipw(data, nuis, contrasts, boot or BootstrapConfig(), ci_level)
        else:  # SE sqrt(sum_c n_c a_c^2 + b_c^2 M2_c) / n, i.e. sqrt(mean(phi^2) / n)
            rows = [
                (point, np.sqrt((sizes * a * a + b * b * m2).sum()) / data.n, None)
                for point, a, b, *_ in _CELL_FITS[name](data, nuis, contrasts)
            ]
        diagnostics = () if name == "reg" else nuis.diagnostics + ((note,) if note else ())
        reports += [
            EstimateReport(
                e, name, point, se, data.n,
                ci_level=ci_level, diagnostics=diagnostics, seed=seed, ci=ci,
            )
            for e, (point, se, ci) in zip(estimands, rows)
        ]
    return reports


def aipw_influence(
    data: ObservationSet,
    estimand: EstimandSpec,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> np.ndarray:
    """Estimated efficient influence values at the AIPW solution, one per
    unit (mean zero); the AIPW SE is sqrt(mean(phi**2) / n)."""
    [(_, a, b)] = _aipw_fits(data, Nuisances(data, outcome, propensity), [estimand.contrast])
    return _unit_influence(data, a, b)


def tmle_update(
    data: ObservationSet,
    estimand: EstimandSpec,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> TmleFit:
    """Targeted maximum likelihood update and plug-in estimate.

    The outcome is min-max scaled to [0, 1]; initial predictions are bounded
    away from 0/1, fluctuated on the logit scale with the clever covariate as
    the single regressor and the initial logit as a fixed offset, and the
    updated predictions are mapped back to the original scale. Point
    estimates and influence values are invariant to affine rescaling of y.
    """
    [(point, a, b, beta)] = _tmle_fits(data, Nuisances(data, outcome, propensity), [estimand.contrast])
    return TmleFit(point, beta, _unit_influence(data, a, b))
