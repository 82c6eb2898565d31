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
    fit_logistic,
    fit_ols_interacted,
    interacted_design,
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


@dataclass(frozen=True)
class InfluenceRecord:
    """Estimated influence values, one per unit; mean zero for AIPW."""

    phi: np.ndarray
    estimand: EstimandSpec

    @property
    def se(self) -> float:
        return _influence_se(self.phi)


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
        return tuple(positivity_diagnostic(self.propensity, self.data))


def _reg_arms(data: ObservationSet, nuis: Nuisances) -> tuple[np.ndarray, np.ndarray]:
    """Regression arm triple (mu1, mu0, E[Y]) and its per-unit influence values.

    mu1 = beta0 + beta_t, mu0 = beta0 and E[Y] = beta0 + t_bar * beta_t +
    tw_bar . beta_interact. The influence values are those of the stacked
    M-estimator of (t_bar, tw_bar, OLS coefficients): the rows of
    x_i r_i (X'X/n)^-1 for the coefficients and the deviations t_i - t_bar and
    t_i wc_i - tw_bar for the two means, with the covariate mean used to
    center w held fixed. mean(phi^2) / n of a contrast is then the stacked
    sandwich variance with the delta method applied (Stefanski & Boos 2002).
    """
    fit = nuis.regression
    t, p = data.t, data.p
    wc = data.w - fit.w_mean
    x = interacted_design(t, wc)
    try:
        bread_inv = np.linalg.inv(x.T @ x / data.n)
    except np.linalg.LinAlgError:
        raise SingularDesignError("singular bread matrix X'X/n; the design is rank deficient") from None
    coef = (x * fit.residuals[:, None]) @ bread_inv
    beta0, beta_t, beta_interact = coef[:, 0], coef[:, 1], coef[:, 2 + p :]
    e_y = (
        beta0
        + fit.t_bar * beta_t
        + beta_interact @ fit.tw_bar
        + fit.beta_t * (t - fit.t_bar)
        + (t[:, None] * wc - fit.tw_bar) @ fit.beta_interact
    )
    theta = np.array(
        [
            fit.beta0 + fit.beta_t,
            fit.beta0,
            fit.beta0 + fit.t_bar * fit.beta_t + float(fit.tw_bar @ fit.beta_interact),
        ]
    )
    return theta, np.column_stack([beta0 + beta_t, beta0, e_y])


def _ipw_arms(t: np.ndarray, y_sums: np.ndarray, pscore: np.ndarray, n: int) -> np.ndarray:
    """Horvitz-Thompson arm triple (mu1, mu0, E[Y]) of a sample of n units,
    from the treatment `t` of each row (a unit or a cell), the sum of y over
    the units in that row and the row's propensity. An (m, k) `y_sums` and
    `pscore` give one triple per resample."""
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

    All estimands share one set of resamples. Each resample is seen as counts
    and y sums per row: per `logistic_cells` cell when units share cells, as
    with discrete covariates, else per unit. The propensity is refitted on a
    whole block of resamples at once, warm-started from the full-sample fit;
    an injected propensity is evaluated per unit without refitting.
    """
    n, y = data.n, data.y
    if nuis.propensity_injected:
        x, t, cell = None, data.t, None
    else:
        x, t, cell = logistic_cells(data)
        start = np.concatenate([[nuis.propensity.intercept], nuis.propensity.coef])
    k = t.shape[0]

    def statistic(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = idx.shape[0]
        drawn = idx if cell is None else cell[idx]
        offsets = (drawn + k * np.arange(m)[:, None]).ravel()
        counts = np.bincount(offsets, minlength=m * k).reshape(m, k).astype(float)
        if x is None:
            pscore, ok = nuis.pscore, np.ones(m, dtype=bool)
        else:
            pscore, ok = refit_logistic(x, t, counts, start)
        if cell is None:  # one unit per row: its y sum is its count times its y
            y_sums = counts * y
        else:
            y_sums = np.bincount(offsets, weights=y[idx].ravel(), minlength=m * k).reshape(m, k)
        return _ipw_arms(t, y_sums, pscore, n) @ contrasts.T, ok

    ses, cis, note = _bootstrap_many(data, statistic, len(contrasts), boot, ci_level)
    percentile = boot.ci_method == "percentile"
    rows = zip(contrasts @ _ipw_arms(data.t, y, nuis.pscore, n), ses, cis)
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
    """Targeted update of the outcome predictions for one estimand."""

    point: float
    fluctuation: float
    influence: np.ndarray
    q1: np.ndarray
    q0: np.ndarray
    q_obs: np.ndarray


def _fluctuate(ys: np.ndarray, offset: np.ndarray, h: np.ndarray) -> float:
    """One-dimensional logistic fluctuation: ys ~ expit(offset + beta * h).

    Newton iteration with step halving on the quasi-binomial log likelihood.
    """
    def loglik(beta: float) -> float:
        probs = np.clip(expit(offset + beta * h), 1e-12, 1.0 - 1e-12)
        return float(ys @ np.log(probs) + (1.0 - ys) @ np.log(1.0 - probs))

    beta = 0.0
    current = loglik(beta)
    for _ in range(_TMLE_MAX_ITER):
        probs = expit(offset + beta * h)
        score = float(h @ (ys - probs))
        curvature = float((h * h) @ (probs * (1.0 - probs)))
        if curvature <= 0.0:
            break  # flat likelihood: nothing left to update
        step = score / curvature
        for _ in range(40):
            candidate = loglik(beta + step)
            if candidate >= current - 1e-12:
                break
            step /= 2.0
        beta += step
        current = loglik(beta)
        if abs(step) < _TMLE_TOL:
            return beta
    raise ConvergenceError(
        f"targeting fluctuation did not converge in {_TMLE_MAX_ITER} iterations"
    )


def _tmle_fit(data: ObservationSet, nuis: Nuisances, estimand: EstimandSpec) -> TmleFit:
    c1, c0, c_y = estimand.contrast
    t, y = data.t, data.y
    pscore, m1, m0 = nuis.pscore, nuis.m1, nuis.m0
    lo, hi = float(y.min()), float(y.max())
    span = hi - lo
    if span == 0.0:
        zero = np.zeros(data.n)
        return TmleFit(0.0, 0.0, zero, m1, m0, np.where(t == 1.0, m1, m0))

    ys = (y - lo) / span
    q1 = np.clip((m1 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND)
    q0 = np.clip((m0 - lo) / span, _TMLE_BOUND, 1.0 - _TMLE_BOUND)
    q_obs = np.where(t == 1.0, q1, q0)

    # clever covariate c1 t/pscore + c0 (1-t)/(1-pscore) + c_y, at each fixed
    # arm and on the observed one
    h_arm1 = c1 / pscore + c_y
    h_arm0 = c0 / (1.0 - pscore) + c_y
    h_obs = np.where(t == 1.0, h_arm1, h_arm0)

    beta = _fluctuate(ys, logit(q_obs), h_obs)
    q1_new = expit(logit(q1) + beta * h_arm1)
    q0_new = expit(logit(q0) + beta * h_arm0)
    q_obs_new = np.where(t == 1.0, q1_new, q0_new)

    y1 = lo + span * q1_new
    y0 = lo + span * q0_new
    y_obs_pred = lo + span * q_obs_new

    # influence value H (y - Q) + plug-in - point; mean zero once targeted
    plug_in = c1 * y1 + c0 * y0 + c_y * y_obs_pred
    point = float(np.mean(plug_in))
    phi = h_obs * (y - y_obs_pred) + plug_in - point

    return TmleFit(point, float(beta), phi, y1, y0, y_obs_pred)


def _tmle(data: ObservationSet, nuis: Nuisances, estimand: EstimandSpec) -> tuple[float, float]:
    """TMLE point and its influence-curve SE."""
    fit = _tmle_fit(data, nuis, estimand)
    return fit.point, _influence_se(fit.influence)


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
    estimand's point and SE follow from its contrast; tmle targets once per
    estimand.
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
            rows = [(*_tmle(data, nuis, e), None) for e in estimands]
        else:
            theta, phi = _ARMS[name](data, nuis)
            rows = [(theta @ c, _influence_se(phi @ c), None) for c in contrasts]
        diagnostics = () if name == "reg" else nuis.diagnostics + ((note,) if note else ())
        reports += [
            EstimateReport.from_point_se(
                e, name, point, se, data.n,
                ci_level=ci_level, diagnostics=diagnostics, seed=seed, ci=ci,
            )
            for e, (point, se, ci) in zip(estimands, rows)
        ]
    return reports


def estimate_reg(
    data: ObservationSet,
    estimand: EstimandSpec,
    ci_level: float = 0.95,
    seed: int | None = None,
) -> EstimateReport:
    """Regression estimator with M-estimation influence-value SE."""
    return estimate_many(data, ["reg"], [estimand], ci_level=ci_level, seed=seed)[0]


def estimate_ipw(
    data: ObservationSet,
    estimand: EstimandSpec,
    boot: BootstrapConfig | None = None,
    ci_level: float = 0.95,
    propensity: PropensityModel | None = None,
) -> EstimateReport:
    """Horvitz-Thompson style weighting estimator with bootstrap SE.

    The propensity model is refit inside every bootstrap resample, starting
    from the full-sample fit, unless a prefit `propensity` is injected, in
    which case that fixed model is used throughout.
    """
    boot = boot or BootstrapConfig()
    nuis = Nuisances(data, propensity=propensity)
    return estimate_many(data, ["ipw"], [estimand], nuis, boot, ci_level, seed=boot.seed)[0]


def estimate_aipw(
    data: ObservationSet,
    estimand: EstimandSpec,
    ci_level: float = 0.95,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
    seed: int | None = None,
) -> EstimateReport:
    """Augmented IPW (doubly robust) estimator with influence-curve SE."""
    nuis = Nuisances(data, outcome, propensity)
    return estimate_many(data, ["aipw"], [estimand], nuis, ci_level=ci_level, seed=seed)[0]


def estimate_tmle(
    data: ObservationSet,
    estimand: EstimandSpec,
    ci_level: float = 0.95,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
    seed: int | None = None,
) -> EstimateReport:
    """Targeted maximum likelihood estimator with influence-curve SE."""
    nuis = Nuisances(data, outcome, propensity)
    return estimate_many(data, ["tmle"], [estimand], nuis, ci_level=ci_level, seed=seed)[0]


def aipw_influence(
    data: ObservationSet,
    estimand: EstimandSpec,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> InfluenceRecord:
    """Estimated efficient influence values at the AIPW solution (mean zero)."""
    _, phi = _aipw_arms(data, Nuisances(data, outcome, propensity))
    return InfluenceRecord(phi=phi @ estimand.contrast, estimand=estimand)


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
    return _tmle_fit(data, Nuisances(data, outcome, propensity), estimand)
