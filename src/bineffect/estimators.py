"""Point estimates and standard errors: regression, IPW, AIPW and TMLE."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
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
    CellBatch,
    OutcomeModel,
    PropensityModel,
    RegressionFit,
    cell_moments,
    cell_rows,
    fit_logistic,
    fit_ols_interacted,
    logistic_cells,
    logistic_fits,
    ols_fits,
    outcome_at_cells,
    pscore_at_cells,
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
    """(point, a, b) per row of `contrasts` from the (R, 3) arm triples
    `theta` and the cell means `a` and slopes in y `b` of each arm's
    influence values. Each sample's point is its own dot product."""
    return [
        ((theta[:, None, :] @ c)[:, 0], *(sum(cj * v for cj, v in zip(c, arms) if cj) for arms in (a, b)))
        for c in contrasts
    ]


def _unit_influence(data: ObservationSet, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-unit influence values a_c + b_c (y_i - ybar_c), c the unit's cell."""
    cell, means = cell_rows(data)[2], cell_moments(data)[2]
    return a[cell] + b[cell] * (data.y - means[cell])


def _reg_fits(cells: CellBatch, fits: RegressionFit, contrasts: np.ndarray) -> list[tuple]:
    """Regression (point, a, b) per row of `contrasts`, from the `ols_fits`
    batch `fits` of the samples: a and b are the means and the slopes in y
    of the influence values in each cell.

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
    product's `.sum(axis=-1)`, so none runs through BLAS.
    """
    w, t, sizes, means, n = cells.w, cells.t, cells.sizes, cells.means, cells.n[:, None]
    r, p = sizes.shape[0], w.shape[1]
    wc = [column - center[:, None] for column, center in zip(w.T, fits.w_mean.T)]
    arms, n_arms, centres, scatters = (t, 1.0 - t), [], [], []
    for arm in arms:
        counts = sizes * arm  # each cell's units in the arm
        n_arms.append(counts.sum(axis=-1, keepdims=True))
        centres += [(counts * col).sum(axis=-1, keepdims=True) / n_arms[-1] for col in wc]
        dev = [col - m for col, m in zip(wc, centres[len(centres) - p :])]
        scatters += [(counts * dj * dk).sum(axis=-1, keepdims=True) for dj in dev for dk in dev]
    centres = np.ascontiguousarray(np.reshape(centres, (2, p, r)).transpose(2, 0, 1))  # (R, 2, p)
    tilts = np.linalg.solve(np.reshape(scatters, (2, p, p, r)).transpose(3, 0, 1, 2), centres[..., None])
    # omega = n/n_a - n tilt . (wc - m_a), with the arm mean m_a taken out of the sum over columns
    slopes = [
        arm * (n / n_arms[j] + n * (centres[:, j, None, :] @ tilts[:, j])[:, 0]
               - n * sum(s[:, None] * col for s, col in zip(tilts[:, j, :, 0].T, wc)))
        for j, arm in enumerate(arms)
    ]
    residuals = means - outcome_at_cells(fits, w, t)
    y_bar = cells.sums.sum(axis=-1, keepdims=True) / n
    a = [slope * residuals for slope in slopes]
    a.append(means - y_bar - sum(beta[:, None] * col for beta, col in zip(fits.beta_w.T, wc)))
    theta = np.concatenate([fits.beta0 + fits.beta_t, fits.beta0, y_bar], axis=-1)
    return _per_contrast(theta, a, slopes + [1.0], contrasts)


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
    percentile: bool,
) -> tuple[np.ndarray, np.ndarray | None, str | None]:
    """Resample rows with replacement; returns (ses, percentile cis or None
    unless `percentile`, redraw note).

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
    cis = np.quantile(estimates, [alpha, 1.0 - alpha], axis=0).T if percentile else None
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

    ses, cis, note = _bootstrap_many(data, statistic, 1, boot, ci_level, percentile=True)
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

    percentile = boot.ci_method == "percentile"
    ses, cis, note = _bootstrap_many(data, statistic, len(contrasts), boot, ci_level, percentile)
    rows = zip(contrasts @ _ipw_arms(t, y_cells, pscore_cells, n), ses, cis if percentile else [None] * len(ses))
    return list(rows), note


def _aipw_fits(cells: CellBatch, pscore: np.ndarray, m1: np.ndarray, m0: np.ndarray, contrasts) -> list:
    """AIPW (point, a, b) per row of `contrasts`, a and b the means and the
    slopes in y of the influence values in each cell, from the (R, k)
    propensities and outcome predictions at the cells. The arm triple is the
    mean of the augmented terms t/pscore (y - m1) + m1, (1-t)/(1-pscore)
    (y - m0) + m0 and y, whose slopes are t/pscore, (1-t)/(1-pscore) and 1."""
    t, sizes, means = cells.t, cells.sizes, cells.means
    b = [t / pscore, (1.0 - t) / (1.0 - pscore), 1.0]
    z = [b[0] * (means - m1) + m1, b[1] * (means - m0) + m0, means]
    theta = np.concatenate([(sizes * v).sum(axis=-1, keepdims=True) for v in z], axis=-1) / cells.n[:, None]
    return _per_contrast(theta, [v - theta[:, j, None] for j, v in enumerate(z)], b, contrasts)


@dataclass(frozen=True)
class TmleFit:
    """Targeted estimate for one estimand: point, fluctuation coefficient and
    per-unit influence values."""

    point: float
    fluctuation: float
    influence: np.ndarray


def _fluctuate(ys_sums: np.ndarray, sizes: np.ndarray, offset: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One-dimensional logistic fluctuation ys ~ expit(offset + beta * h) of
    each of R samples, on their cells: in row r of each (R, k) argument,
    cell c holds the sum of ys over its `sizes[r, c]` units, and their
    offset and h. Newton iteration with step halving on the quasi-binomial
    log likelihood, whose sums over the cells are elementwise products'
    `.sum(axis=-1)`, which do not depend on the BLAS thread count. The
    samples iterate together, each on its own arithmetic, and each
    coefficient tried is evaluated once. Returns the (R, 1) coefficients,
    NaN where the iteration did not converge (a flat likelihood included).
    """
    def evaluate(parts: list, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, log likelihood) at beta of the samples whose
        (ys_sums, sizes, offset, h) rows are `parts`."""
        ys, n_c, off, hh = parts
        probs = expit(off + beta * hh)
        clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
        loglik = (ys * np.log(clipped)).sum(axis=-1, keepdims=True) + (
            (n_c - ys) * np.log(1.0 - clipped)
        ).sum(axis=-1, keepdims=True)
        return probs, loglik

    out = np.full((h.shape[0], 1), np.nan)
    # the samples still iterating: their indices, coefficients, probabilities, log likelihoods and rows
    active, parts = np.arange(h.shape[0]), [ys_sums, sizes, offset, h]
    beta = np.zeros((active.size, 1))
    probs, current = evaluate(parts, beta)
    for _ in range(_TMLE_MAX_ITER):
        if not active.size:
            break
        ys, n_c, _, hh = parts
        score = (hh * (ys - n_c * probs)).sum(axis=-1, keepdims=True)
        curvature = (hh * hh * (n_c * (probs * (1.0 - probs)))).sum(axis=-1, keepdims=True)
        live = ~(curvature[:, 0] <= 0.0)  # a flat likelihood stops the sample unconverged
        if not live.all():
            active, beta, probs, current, score, curvature, *parts = (
                v[live] for v in (active, beta, probs, current, score, curvature, *parts)
            )
        step = score / curvature
        cand_probs, cand = evaluate(parts, beta + step)
        for _ in range(40):
            worse = ~(cand[:, 0] >= current[:, 0] - 1e-12)
            if not worse.any():
                break
            step[worse] /= 2.0
            rows = parts if worse.all() else [v[worse] for v in parts]
            cand_probs[worse], cand[worse] = evaluate(rows, beta[worse] + step[worse])
        # after 40 halvings the final step is taken all the same
        beta = beta + step
        probs, current = cand_probs, cand
        done = np.abs(step[:, 0]) < _TMLE_TOL
        out[active[done]] = beta[done]
        if done.any():
            active, beta, probs, current, *parts = (v[~done] for v in (active, beta, probs, current, *parts))
    return out


def _tmle_fits(cells: CellBatch, pscore: np.ndarray, m1: np.ndarray, m0: np.ndarray, contrasts) -> list:
    """Targeted fit per (c1, c0, c_y) row of `contrasts`, from the (R, k)
    propensities and outcome predictions at the cells: its point, the cell
    means and slopes in y of its influence values, and its fluctuation
    coefficient (NaN where it did not converge). All rows share one
    untargeted start: y scaled to [0, 1] and the logits of the bounded
    initial fit. The offset, the clever covariate and the targeted
    predictions depend on a unit only through its (t, w), so everything runs
    on the cells. A constant outcome gives 0 throughout."""
    flat = cells.y_max == cells.y_min
    if flat.any():
        (r, k), rows = cells.sizes.shape, np.flatnonzero(~flat)
        fits = [(np.zeros(r), np.zeros((r, k)), np.zeros((r, k)), np.zeros(r)) for _ in contrasts]
        for fit, part in zip(fits, _tmle_fits(cells.take(rows), pscore[rows], m1[rows], m0[rows], contrasts)):
            for whole, values in zip(fit, part):
                whole[rows] = values
        return fits
    t, sizes, means = cells.t, cells.sizes, cells.means
    lo = cells.y_min[:, None]
    span = cells.y_max[:, None] - lo
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
        point = (sizes * plug_in).sum(axis=-1, keepdims=True) / cells.n[:, None]
        fits.append((point[:, 0], h_obs * (means - y_obs_pred) + plug_in - point, h_obs, beta[:, 0]))
    return fits


ESTIMATOR_NAMES = ("reg", "ipw", "aipw", "tmle")

_CELL_FITS = {"reg": _reg_fits, "aipw": _aipw_fits, "tmle": _tmle_fits}
_NOT_TARGETED = f"targeting fluctuation did not converge in {_TMLE_MAX_ITER} iterations"


def _cell_estimates(name: str, cells: CellBatch, contrasts: np.ndarray, nuisances) -> tuple[np.ndarray, ...]:
    """reg, aipw or tmle on the R samples of `cells`, from their `ols_fits`
    batch (reg) or their (pscore, m1, m0) at the cells (aipw, tmle): the
    (R, E) points and SEs, and the (R,) mask of the samples whose tmle
    fluctuation did not converge. The SE is sqrt(sum_c n_c a_c^2 + b_c^2
    M2_c) / n, i.e. sqrt(mean(phi^2) / n)."""
    fits = _CELL_FITS[name](cells, *nuisances, contrasts)
    shape = (len(fits), cells.n.size)
    points = np.reshape([fit[0] for fit in fits], shape).T
    ses = np.reshape([np.sqrt((cells.sizes * a * a + b * b * cells.m2).sum(axis=-1)) for _, a, b, *_ in fits],
                     shape)
    failed = np.zeros(shape[1], dtype=bool)
    if name == "tmle":
        failed = np.isnan(np.reshape([fit[3] for fit in fits], shape)).any(axis=0)
    return points, ses.T / cells.n[:, None], failed


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
    cells = CellBatch.of(data)
    reports: list[EstimateReport] = []
    for name in estimators:
        note = None
        if name == "ipw":
            rows, note = _ipw(data, nuis, contrasts, boot or BootstrapConfig(), ci_level)
        else:
            if name == "reg":  # the sample's fit as a batch of one
                fit = nuis.regression
                nuisances = [RegressionFit(*(np.reshape(getattr(fit, f.name), (1, -1)) for f in fields(fit)))]
            else:
                nuisances = _predictions(nuis)
            points, ses, failed = _cell_estimates(name, cells, contrasts, nuisances)
            if failed[0]:
                raise ConvergenceError(_NOT_TARGETED)
            rows = [(point, se, None) for point, se in zip(points[0], ses[0])]
        diagnostics = () if name == "reg" else nuis.diagnostics + ((note,) if note else ())
        reports += [
            EstimateReport(
                e, name, point, se, data.n,
                ci_level=ci_level, diagnostics=diagnostics, seed=seed, ci=ci,
            )
            for e, (point, se, ci) in zip(estimands, rows)
        ]
    return reports


def _predictions(nuis: Nuisances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The propensity and outcome predictions at the cells of one sample,
    each as a batch of one."""
    return nuis.pscore[None], nuis.m1[None], nuis.m0[None]


def estimate_cells(cells: CellBatch, estimators: Sequence[str], contrasts: np.ndarray) -> dict:
    """reg, aipw and tmle on the R samples of `cells`: per estimator, the
    (R, E) points and SEs per row of `contrasts`, and per sample None or the
    EstimationError class that stopped it.

    The OLS (`ols_fits`) and, for aipw and tmle, the propensity
    (`logistic_fits`) are fitted once for the batch. As in `estimate_many`,
    every estimator fails on a one-arm sample, reg where the OLS fails, aipw
    and tmle where the propensity and then the OLS fail, and tmle where a
    fluctuation does not converge. Each other sample is estimated on its own
    arithmetic, so its numbers equal `estimate_many` on it; an SE that is
    not finite and >= 0 raises ValidationError, as its report would.
    """
    r, e = cells.n.size, len(contrasts)
    out = {name: (np.full((r, e), np.nan), np.full((r, e), np.nan), [DegenerateArmError] * r)
           for name in estimators}
    if np.all(cells.t == cells.t[0]):
        return out
    ols_failures, failures, predictions = [None] * r, [None] * r, None
    if any(name != "reg" for name in estimators):
        models, failures = logistic_fits(cells)
    if "reg" in estimators or None in failures:  # some sample reaches the OLS
        fits, ols_failures = ols_fits(cells)
    failures = [p or o for p, o in zip(failures, ols_failures)]
    for name in estimators:
        points, ses, stops = out[name]
        stops[:] = ols_failures if name == "reg" else failures
        rows = np.flatnonzero([stop is None for stop in stops])
        if not rows.size:
            continue
        if name == "reg":
            nuisances = [RegressionFit(*(getattr(fits, f.name)[rows] for f in fields(fits)))]
        else:
            if predictions is None:
                predictions = [pscore_at_cells(models, cells.w)]
                predictions += [outcome_at_cells(fits, cells.w, t) for t in (1.0, 0.0)]
            nuisances = [v[rows] for v in predictions]
        points[rows], ses[rows], failed = _cell_estimates(name, cells.take(rows), contrasts, nuisances)
        for i in rows[failed]:
            stops[i] = ConvergenceError
        delivered = ses[rows[~failed]]
        bad = delivered[~(np.isfinite(delivered) & (delivered >= 0.0))]
        if bad.size:
            raise ValidationError(f"se must be finite and >= 0, got {bad[0]}")
    return out


def aipw_influence(
    data: ObservationSet,
    estimand: EstimandSpec,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> np.ndarray:
    """Estimated efficient influence values at the AIPW solution, one per
    unit (mean zero); the AIPW SE is sqrt(mean(phi**2) / n)."""
    nuis = Nuisances(data, outcome, propensity)
    [(_, a, b)] = _aipw_fits(CellBatch.of(data), *_predictions(nuis), [estimand.contrast])
    return _unit_influence(data, a[0], b[0])


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
    nuis = Nuisances(data, outcome, propensity)
    [(point, a, b, beta)] = _tmle_fits(CellBatch.of(data), *_predictions(nuis), [estimand.contrast])
    if np.isnan(beta[0]):
        raise ConvergenceError(_NOT_TARGETED)
    return TmleFit(float(point[0]), float(beta[0]), _unit_influence(data, a[0], b[0]))
