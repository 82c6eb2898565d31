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
    cell_sums,
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


def _influence_se(phi: np.ndarray) -> float:
    """Estimator SE from influence values: sqrt of (mean of phi^2) / n."""
    return float(np.sqrt(np.mean(phi**2) / phi.shape[0]))


class Nuisances:
    """Nuisance fits for one sample, shared by every estimator and estimand.

    The outcome regression and the propensity are fitted on first use, each
    at most once, unless a prefit model is injected. The predictions `pscore`,
    `m1` and `m0` and the positivity diagnostics are computed once. A fit
    that raises is not cached, so the next estimator that needs it raises too.
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
        return np.asarray(self.propensity.predict_proba(self.data.w), dtype=float)

    @cached_property
    def m1(self) -> np.ndarray:
        return np.asarray(self.outcome.predict(1.0, self.data.w), dtype=float)

    @cached_property
    def m0(self) -> np.ndarray:
        return np.asarray(self.outcome.predict(0.0, self.data.w), dtype=float)

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        return tuple(positivity_diagnostic(self.pscore))


def _reg_arms(data: ObservationSet, nuis: Nuisances) -> tuple[np.ndarray, np.ndarray]:
    """Regression arm triple (mu1, mu0, E[Y]) and its per-unit influence values.

    The interacted OLS is one least-squares line per arm in wc = w - w_mean,
    so mu1 = beta0 + beta_t and mu0 = beta0 are the arms' intercepts: each a
    sum of its arm's outcomes times implied weights fixed by the covariates
    (Chattopadhyay & Zubizarreta 2023). Arm a's influence values
    are 1(t_i = a) omega_i r_i, with omega_i = n/n_a - n m_a' S_a^-1 (wc_i -
    m_a) for the arm's mean m_a and scatter S_a of wc. E[Y] is ybar, with
    influence values y_i - ybar - wc_i . beta_w. These are the stacked
    M-estimator's influence values (Stefanski & Boos 2002) with the
    covariate mean used to center w held fixed. Every sum over the units is
    an elementwise product's `.sum()`, so none runs through BLAS.
    """
    fit = nuis.regression
    t, y, n = data.t, data.y, data.n
    wc = [column - center for column, center in zip(data.w.T, fit.w_mean)]
    residuals = y - fit.predict(t, data.w)
    influence = []
    for arm in (t, 1.0 - t):
        n_arm = arm.sum()
        mean = np.array([(arm * c).sum() for c in wc]) / n_arm
        dev = [c - m for c, m in zip(wc, mean)]
        scatter = np.array([[(arm * dj * dk).sum() for dk in dev] for dj in dev]).reshape(data.p, data.p)
        tilt = np.linalg.solve(scatter, mean)
        omega = n / n_arm - n * sum(s * d for s, d in zip(tilt, dev))
        influence.append(arm * omega * residuals)
    y_bar = y.mean()
    influence.append(y - y_bar - sum(b * c for b, c in zip(fit.beta_w, wc)))
    return np.array([fit.beta0 + fit.beta_t, fit.beta0, y_bar]), np.column_stack(influence)


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
    full-sample fit; an injected propensity is read once per cell, at one of
    its units, and not refitted.
    """
    n, y = data.n, data.y
    x, t, cell = logistic_cells(data)
    k = t.shape[0]
    units, _, y_cells = cell_sums(data, y)
    pscore_cells = nuis.pscore[units]
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


def _aipw_arms(data: ObservationSet, nuis: Nuisances) -> tuple[np.ndarray, np.ndarray]:
    """AIPW arm triple and its influence values (mean zero): the means of the
    per-unit augmented terms t/pscore (y - m1) + m1, (1-t)/(1-pscore) (y - m0)
    + m0 and y, and their deviations from those means."""
    t, y, pscore, m1, m0 = data.t, data.y, nuis.pscore, nuis.m1, nuis.m0
    z = np.column_stack(
        [(t / pscore) * (y - m1) + m1, ((1.0 - t) / (1.0 - pscore)) * (y - m0) + m0, y]
    )
    theta = z.mean(axis=0)
    return theta, z - theta


@dataclass(frozen=True)
class TmleFit:
    """Targeted estimate for one estimand: point, fluctuation coefficient and
    influence values."""

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


def _tmle_fits(data: ObservationSet, nuis: Nuisances, contrasts: np.ndarray) -> list[TmleFit]:
    """Targeted fit per (c1, c0, c_y) row of `contrasts`, all from one untargeted
    start: y scaled to [0, 1] and the logits of the bounded initial fit.

    The offset and the clever covariate depend on a unit only through its
    (t, w), so the fluctuation runs on the sample's distinct (t, w) cells,
    read at one unit per cell; points and influence values are per unit."""
    t, y = data.t, data.y
    pscore, m1, m0 = nuis.pscore, nuis.m1, nuis.m0
    lo = float(y.min())
    span = float(y.max()) - lo
    if span == 0.0:
        return [TmleFit(0.0, 0.0, np.zeros(data.n)) for _ in contrasts]

    ys = (y - lo) / span
    logit_q1 = logit(np.clip((m1 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND))
    logit_q0 = logit(np.clip((m0 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND))
    logit_q_obs = np.where(t == 1.0, logit_q1, logit_q0)
    units, sizes, ys_sums = cell_sums(data, ys)

    fits = []
    for c1, c0, c_y in contrasts:
        # clever covariate c1 t/pscore + c0 (1-t)/(1-pscore) + c_y, at each
        # fixed arm and on the observed one
        h_arm1 = c1 / pscore + c_y
        h_arm0 = c0 / (1.0 - pscore) + c_y
        h_obs = np.where(t == 1.0, h_arm1, h_arm0)

        beta = _fluctuate(ys_sums, sizes, logit_q_obs[units], h_obs[units])
        q1_new = expit(logit_q1 + beta * h_arm1)
        q0_new = expit(logit_q0 + beta * h_arm0)
        q_obs_new = np.where(t == 1.0, q1_new, q0_new)

        y1 = lo + span * q1_new
        y0 = lo + span * q0_new
        y_obs_pred = lo + span * q_obs_new

        # influence value H (y - Q) + plug-in - point; mean zero once targeted
        plug_in = c1 * y1 + c0 * y0 + c_y * y_obs_pred
        point = float(np.mean(plug_in))
        phi = h_obs * (y - y_obs_pred) + plug_in - point
        fits.append(TmleFit(point, float(beta), phi))
    return fits


ESTIMATOR_NAMES = ("reg", "ipw", "aipw", "tmle")

_ARMS = {"reg": _reg_arms, "aipw": _aipw_arms}


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
    fit once and targets each estimand separately.
    """
    check_estimate_args(estimators, ci_level)
    nuis = nuisances if nuisances is not None else Nuisances(data)
    if nuis.data is not data:
        raise ValidationError("nuisances were built for a different ObservationSet")
    contrasts = np.reshape([e.contrast for e in estimands], (-1, 3))
    reports: list[EstimateReport] = []
    for name in estimators:
        note = None
        if name == "ipw":
            rows, note = _ipw(data, nuis, contrasts, boot or BootstrapConfig(), ci_level)
        elif name == "tmle":
            rows = [(f.point, _influence_se(f.influence), None) for f in _tmle_fits(data, nuis, contrasts)]
        else:
            theta, phi = _ARMS[name](data, nuis)
            rows = [(theta @ c, _influence_se(phi @ c), None) for c in contrasts]
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
    _, phi = _aipw_arms(data, Nuisances(data, outcome, propensity))
    return phi @ estimand.contrast


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
    return _tmle_fits(data, Nuisances(data, outcome, propensity), np.array([estimand.contrast]))[0]
