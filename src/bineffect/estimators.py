"""Point estimates and standard errors: regression, IPW, AIPW and TMLE."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Literal, Sequence

import numpy as np

from ._special import expit, logit
from .core import (
    CellBatch,
    ConvergenceError,
    EstimandSpec,
    EstimateReport,
    ObservationSet,
    ValidationError,
    check_integer,
    positivity_diagnostic,
    seeded_rng,
    z_quantile,
)
from .nuisance import (
    OutcomeModel,
    PropensityModel,
    RegressionFit,
    logistic_design,
    logistic_fits,
    ols_fits,
    refit_logistic,
)

_TMLE_BOUND = 5e-4   # keeps logit of scaled predictions finite
_TMLE_TOL = 1e-10
_TMLE_MAX_ITER = 100

_BLOCK_ELEMENTS = 2**17  # resamples x cells per pass of a sample
# Bootstrap indices drawn and reduced at once. mc_paper batches (2 cores, one BLAS thread, median
# of 40 batches) in a fresh process: 2^12 7.7 ms, 2^13 7.1, 2^14 6.8, 2^15 8.1 and 2^16 8.9 ms.
# From 2^15 on, a chunk's int64 arrays pass glibc's 128 KiB mmap threshold and are mapped afresh
# for each chunk (2 356 page faults per batch at 2^15, none at 2^14); once larger arrays have
# raised that threshold, as between the benchmark's batches, 2^14 to 2^16 read alike (6.9-7.0 ms).
_DRAW_ELEMENTS = 2**14


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
        check_integer("bootstrap replicates", self.replicates)
        if self.replicates < 2:
            raise ValidationError(f"bootstrap needs at least 2 replicates, got {self.replicates}")
        if self.ci_method not in ("normal", "percentile"):
            raise ValidationError(f"ci_method must be 'normal' or 'percentile', got {self.ci_method!r}")
        seeded_rng("bootstrap seed", self.seed)


def _per_sample(cells: CellBatch, prediction) -> np.ndarray:
    """A model's `prediction` at the cell rows of `cells` as (R, k): the (k,)
    prediction of one model serves every sample. Raises ValidationError for
    the models of another number of samples or a prediction of another
    number of cells."""
    prediction = np.asarray(prediction, dtype=float)
    samples = prediction.shape[0] if prediction.ndim == 2 else 1
    if samples not in (1, cells.n.size):
        raise ValidationError(f"a prefit model is a batch of {samples} samples, but the data hold {cells.n.size}")
    if prediction.ndim and prediction.shape[-1] != cells.t.size:
        raise ValidationError(f"a prefit model predicts {prediction.shape[-1]} cells, but the data hold {cells.t.size}")
    return np.broadcast_to(prediction, cells.sizes.shape)


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
    cells, cell = data.cells
    return a[cell] + b[cell] * (data.y - cells.means[0][cell])


def _reg_fits(cells: CellBatch, fits: RegressionFit, implied: np.ndarray, contrasts: np.ndarray) -> list[tuple]:
    """Regression (point, a, b) per row of `contrasts`, from the `ols_fits`
    batch of the samples, `fits` and the cells' implied weights `implied`: a
    and b are the means and the slopes in y of the influence values in each
    cell. Arm a's intercept (mu1 = beta0 + beta_t, mu0 = beta0) has influence
    values 1(t_i = a) omega_c r_i, and E[Y] = ybar has y_i - ybar - wc_i .
    beta_w: the stacked M-estimator's influence values (Stefanski & Boos
    2002) with the covariate mean used to center w held fixed.
    """
    w, t, means, n = cells.w, cells.t, cells.means, cells.n[:, None]
    wc = [column - center[:, None] for column, center in zip(w.T, cells.w_mean.T)]
    slopes = [t * implied, (1.0 - t) * implied]
    residuals = means - fits.predict(t, w)
    y_bar = cells.sums.sum(axis=-1, keepdims=True) / n
    a = [slope * residuals for slope in slopes]
    a.append(means - y_bar - sum(beta[:, None] * col for beta, col in zip(fits.beta_w.T, wc)))
    theta = np.concatenate([fits.beta0 + fits.beta_t, fits.beta0, y_bar], axis=-1)
    return _per_contrast(theta, a, slopes + [1.0], contrasts)


def _ipw_arms(t: np.ndarray, y_sums: np.ndarray, pscore: np.ndarray, n: float) -> np.ndarray:
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


def _resample_cells(
    rng: np.random.Generator, cell: np.ndarray, y: np.ndarray, k: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """m bootstrap resamples of the n units with cell indices `cell` (among
    k) and outcomes `y`, each as its (m, k) counts and y sums per cell. The
    indices are m successive size-n draws, drawn in pieces of at most
    `_DRAW_ELEMENTS` (whole rows when a row fits) and reduced at once, so
    no (m, n) array is held. Each cell's y sum runs over its draws in order,
    as one `np.bincount` of the whole (m, n) block would sum it."""
    n = y.size
    counts, y_sums = np.zeros(m * k), np.zeros(m * k)
    rows, width = max(1, _DRAW_ELEMENTS // n), min(n, _DRAW_ELEMENTS)
    # each draw's resample in a chunk of several rows, as an offset into the chunk's cells
    shift = np.repeat(k * np.arange(rows), width) if rows > 1 else None
    for b in range(0, m, rows):
        r = min(rows, m - b)
        for j in range(0, n, width):
            idx = rng.integers(0, n, size=r * min(width, n - j))  # the rows of the chunk, one after another
            offsets = np.take(cell, idx)
            if shift is not None:
                offsets += shift[: idx.size]
            counts[b * k : (b + r) * k] += np.bincount(offsets, minlength=r * k)
            np.add.at(y_sums[b * k : (b + r) * k], offsets, np.take(y, idx))  # continues the rows' sums
    return counts.reshape(m, k), y_sums.reshape(m, k)


def _bootstrap_many(
    x: np.ndarray, t: np.ndarray, units: Sequence[tuple[np.ndarray, np.ndarray, BootstrapConfig]],
    pscore: np.ndarray, start: np.ndarray | None, contrasts: np.ndarray, ci_level: float,
) -> list:
    """IPW bootstraps of R samples that share their cells' logistic design
    rows `x` and treatments `t`, one sample after another: per sample, (SEs
    per row of `contrasts`, percentile CIs or None unless its ci_method is
    percentile, redraw note) or the ConvergenceError that stopped it. `units`
    holds each sample's units' cell indices and outcomes and its
    BootstrapConfig, `pscore` (R, k) the propensities at the cells.

    All estimands share one set of resamples, each drawn with replacement
    from the sample's own generator and seen as its counts and y sums per
    cell (`_resample_cells`). So a pass of a sample takes m = min(need,
    max(1, `_BLOCK_ELEMENTS` // k)) resamples, which give the same indices,
    and leave the generator in the same state, as m passes of one. Each pass
    refits the propensity once (`refit_logistic`), from its sample's
    full-sample coefficients in `start` (R, d); with `start` None, `pscore`
    is held fixed. A refit that does not converge stops its sample, with the
    error of the first such resample of the pass. The resamples it flags (a
    degenerate arm, separation, a singular design) are redrawn and counted,
    so each sample's accepted resamples are the first `replicates` good draws
    of its stream. A redraw count past max(1000, 100 * replicates) stops its
    sample too. The note is None unless more than 1% of resamples were
    redrawn.
    """
    k, alpha, out = t.size, (1.0 - ci_level) / 2.0, []
    for i, (cell, y, boot) in enumerate(units):
        rng, estimates = seeded_rng("bootstrap seed", boot.seed), np.empty((boot.replicates, len(contrasts)))
        done, redraws, stop = 0, 0, None
        while stop is None and done < boot.replicates:
            m = min(max(1, _BLOCK_ELEMENTS // k), boot.replicates - done)
            counts, y_sums = _resample_cells(rng, cell, y, k, m)
            if start is None:
                probs, ok, stalled = np.broadcast_to(pscore[i], counts.shape), np.ones(m, dtype=bool), {}
            else:
                probs, ok, stalled = refit_logistic(x, t, counts, start[i])
            stop = stalled[min(stalled)] if stalled else None
            good = int(np.count_nonzero(ok))
            estimates[done : done + good] = (_ipw_arms(t, y_sums, probs, float(y.size)) @ contrasts.T)[ok]
            done, redraws = done + good, redraws + m - good
            if stop is None and redraws > max(1000, 100 * boot.replicates):
                stop = ConvergenceError(f"bootstrap gave up after {redraws} redraws of degenerate resamples")
        if stop is not None:
            out.append(stop)
            continue
        cis = np.quantile(estimates, [alpha, 1.0 - alpha], axis=0).T if boot.ci_method == "percentile" else None
        share = f"({100.0 * redraws / boot.replicates:.1f}% of {boot.replicates})"
        note = f"bootstrap redrew {redraws} degenerate resamples {share}" if redraws > 0.01 * boot.replicates else None
        out.append((estimates.std(axis=0, ddof=1), cis, note))
    return out


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


def _fluctuate(ys_sums: np.ndarray, sizes: np.ndarray, offset: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One-dimensional logistic fluctuation ys ~ expit(offset + beta * h) of
    each of R samples, on their cells: in row r of each (R, k) argument,
    cell c holds the sum of ys over its `sizes[r, c]` units, and their
    offset and h. Newton iteration on the quasi-binomial log likelihood,
    whose sums over the cells are elementwise products' `.sum(axis=-1)`,
    which do not depend on the BLAS thread count, halving a step while it
    lowers the likelihood by more than 1e-12 of its magnitude (at least
    1e-12), well above its rounding at any n. The samples iterate together
    on whole arrays, each on its own arithmetic: a sample that converges or
    finds its likelihood flat leaves `live` and takes zero steps from then
    on. Each coefficient tried is evaluated once only for a lone sample.
    Returns the (R, 1) coefficients, NaN where the iteration did not
    converge (a flat likelihood included)."""
    def evaluate(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probabilities, log likelihood) of every sample at its coefficient in `beta`."""
        probs = expit(offset + beta * h)
        clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
        return probs, (ys_sums * np.log(clipped)).sum(axis=-1, keepdims=True) + (
            (sizes - ys_sums) * np.log(1.0 - clipped)).sum(axis=-1, keepdims=True)

    beta, live = np.zeros((h.shape[0], 1)), np.ones((h.shape[0], 1), dtype=bool)
    probs, current = evaluate(beta)
    for _ in range(_TMLE_MAX_ITER):
        score = (h * (ys_sums - sizes * probs)).sum(axis=-1, keepdims=True)
        curvature = (h * h * (sizes * (probs * (1.0 - probs)))).sum(axis=-1, keepdims=True)
        flat = live & (curvature <= 0.0)  # a flat likelihood stops the sample unconverged
        beta[flat], live[flat] = np.nan, False
        step = np.divide(score, curvature, out=np.zeros_like(score), where=live)
        cand_probs, cand = evaluate(beta + step)
        floor = current - 1e-12 * np.maximum(1.0, np.abs(current))  # rounding of the sums is not a loss
        for _ in range(40):
            worse = live & ~(cand >= floor)
            if not worse.any():
                break
            step[worse] /= 2.0
            cand_probs, cand = evaluate(beta + step)
        # after 40 halvings the final step is taken all the same
        beta, probs, current = beta + step, cand_probs, cand
        live &= ~(np.abs(step) < _TMLE_TOL)  # a converged sample keeps its coefficient
        if not live.any():
            break
    return np.where(live, np.nan, beta)


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


def _cell_estimates(name: str, cells: CellBatch, contrasts: np.ndarray, nuisances) -> tuple:
    """reg, aipw or tmle on the R samples of `cells`, from their `ols_fits`
    batch (reg) or their (pscore, m1, m0) at the cells (aipw, tmle): the
    (R, E) points and SEs, the (R,) mask of the samples whose tmle
    fluctuation did not converge, and the cell terms (a, b) per row of
    `contrasts`. The SE is sqrt(sum_c n_c a_c^2 + b_c^2 M2_c) / n, i.e.
    sqrt(mean(phi^2) / n)."""
    fits = _CELL_FITS[name](cells, *nuisances, contrasts)
    shape = (len(fits), cells.n.size)
    points = np.reshape([fit[0] for fit in fits], shape).T
    ses = np.reshape([np.sqrt((cells.sizes * a * a + b * b * cells.m2).sum(axis=-1)) for _, a, b, *_ in fits],
                     shape)
    failed = np.zeros(shape[1], dtype=bool)
    if name == "tmle":
        failed = np.isnan(np.reshape([fit[3] for fit in fits], shape)).any(axis=0)
    return points, ses.T / cells.n[:, None], failed, [fit[1:3] for fit in fits]


def check_estimate_args(estimators: Sequence[str], estimands: Sequence[EstimandSpec], ci_level: float) -> np.ndarray:
    """The (E, 3) contrasts of `estimands`, one (c1, c0, c_y) row each; raise
    ValidationError for an unknown or repeated estimator name, a repeated
    estimand or a level outside (0, 1)."""
    z_quantile(ci_level)
    for i, name in enumerate(estimators):
        if name not in ESTIMATOR_NAMES:
            raise ValidationError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
        if name in estimators[:i]:
            raise ValidationError(f"estimator {name!r} is named more than once")
    for i, estimand in enumerate(estimands):
        if estimand in estimands[:i]:
            raise ValidationError(f"estimand {estimand.key!r} is named more than once")
    return np.reshape([e.contrast for e in estimands], (-1, 3))


def estimate_many(
    data: ObservationSet,
    estimators: Sequence[str],
    estimands: Sequence[EstimandSpec],
    boot: BootstrapConfig | None = None,
    ci_level: float = 0.95,
    seed: int | None = None,
    *,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> list[EstimateReport]:
    """One report per (estimator, estimand), estimators in the outer order:
    `estimate_cells` on the sample as a batch of one, which raises the error
    that stopped the first failing estimator.

    Each nuisance model is fitted at most once. A prefit `outcome` or
    `propensity` is never refitted. `boot` (default `BootstrapConfig()`)
    applies to ipw, whose estimands share one set of resamples. `seed` is
    recorded in every report. The arguments and the prefit models are
    checked before anything is fitted or drawn. Every estimand is a
    contrast of the policy means (mu1, mu0, E[Y]); tmle targets each
    estimand separately from one initial fit.
    """
    contrasts = check_estimate_args(estimators, estimands, ci_level)
    cells, cell = data.cells
    units = [(cell, data.y, boot or BootstrapConfig())]
    results, pscore = estimate_cells(cells, estimators, contrasts, units, ci_level,
                                     outcome=outcome, propensity=propensity)
    reports: list[EstimateReport] = []
    positivity = None
    for name in estimators:
        points, ses, [stop], [cis], [note], _ = results[name]
        if stop is not None:
            raise stop
        diagnostics = ()
        if name != "reg":
            positivity = tuple(positivity_diagnostic(pscore[0][cell])) if positivity is None else positivity
            diagnostics = positivity + ((note,) if note else ())
        rows = zip(estimands, points[0], ses[0], [None] * len(estimands) if cis is None else cis)
        reports += [
            EstimateReport(e, name, point, se, data.n, ci_level=ci_level, diagnostics=diagnostics, seed=seed, ci=ci)
            for e, point, se, ci in rows
        ]
    return reports


def estimate_cells(
    cells: CellBatch, estimators: Sequence[str], contrasts: np.ndarray,
    units: Sequence[tuple[np.ndarray, np.ndarray, BootstrapConfig]] = (), ci_level: float = 0.95,
    *, outcome: OutcomeModel | None = None, propensity: PropensityModel | None = None,
) -> tuple[dict, np.ndarray | None]:
    """Every estimator on the R samples of `cells`: per estimator, the (R, E)
    points and SEs per row of `contrasts`; per sample, None or the error that
    stopped it, ipw's percentile intervals and ipw's redraw note; and per
    row of `contrasts`, the (R, k) cell terms (a, b) of the influence values
    (`_unit_influence`), NaN for a sample that stopped before the estimator
    ran, or None for ipw and where every sample did. Also the (R, k)
    propensities at the cells, None if no estimator reads them.

    ipw needs `units`: per sample, its units' cell indices, their y and its
    BootstrapConfig. A prefit `outcome` or `propensity` model replaces its
    fit: one model serves every sample, and a model whose fields carry the
    sample axis serves one sample per row. Both are evaluated at the cell
    rows first, so a model that does not fit them raises before anything is
    fitted or drawn, and a prefit propensity is not refitted. Else
    `logistic_fits` and `ols_fits` each run once, the OLS only if a sample
    reads it. A sample stops where a fit it reads stops (aipw and tmle: the
    propensity first), where ipw's bootstrap or tmle's fluctuation fails, or
    with a ValidationError for an SE that is not finite and >= 0. Each sample
    runs on its own arithmetic, so its numbers do not depend on the others.
    """
    r, e = cells.n.size, len(contrasts)
    pscore = None if propensity is None else _per_sample(cells, propensity.predict_proba(cells.w))
    arms = None if outcome is None else [_per_sample(cells, outcome.predict(t, cells.w)) for t in (1.0, 0.0)]
    p_stops, o_stops, start = [None] * r, None, None
    if propensity is None and any(name != "reg" for name in estimators):
        propensity, p_stops = logistic_fits(cells)
        start = np.hstack([propensity.intercept, propensity.coef])
        pscore = propensity.predict_proba(cells.w)
    joint = p_stops  # the stops of aipw and tmle before their fluctuation
    fit_outcome = arms is None and None in p_stops and any(name in ("aipw", "tmle") for name in estimators)
    if "reg" in estimators or fit_outcome:
        fits, o_stops, implied = ols_fits(cells)
    if fit_outcome:
        joint = [p or o for p, o in zip(p_stops, o_stops)]
        arms = [fits.predict(t, cells.w) for t in (1.0, 0.0)]
    out = {}
    for name in estimators:
        stops = list(o_stops if name == "reg" else p_stops if name == "ipw" else joint)
        points, ses, cis, notes = np.full((r, e), np.nan), np.full((r, e), np.nan), [None] * r, [None] * r
        terms = None
        rows = np.flatnonzero([stop is None for stop in stops])
        if name == "ipw" and rows.size:
            bootstraps = _bootstrap_many(logistic_design(cells.w), cells.t, [units[i] for i in rows], pscore[rows],
                                         None if start is None else start[rows], contrasts, ci_level)
            points[rows] = _ipw_arms(cells.t, cells.sums[rows], pscore[rows], cells.n[rows, None]) @ contrasts.T
            for i, result in zip(rows, bootstraps):
                if isinstance(result, ConvergenceError):
                    stops[i], points[i] = result, np.nan
                else:
                    ses[i], cis[i], notes[i] = result
        elif rows.size:
            live = slice(None) if rows.size == r else rows  # views, not copies, when every sample is live
            if name == "reg":
                nuisances = [RegressionFit(*(getattr(fits, f.name)[live] for f in fields(fits))), implied[live]]
            else:
                nuisances = [v[live] for v in (pscore, *arms)]
            points[live], ses[live], failed, terms = _cell_estimates(name, cells.take(live), contrasts, nuisances)
            if rows.size < r:  # NaN terms for the samples that stopped before the estimator ran
                full = np.full((e, 2) + cells.sizes.shape, np.nan)
                for j, (a, b) in enumerate(terms):
                    full[j, 0, rows], full[j, 1, rows] = a, b
                terms = full
            for i in rows[failed]:
                stops[i] = ConvergenceError(_NOT_TARGETED)
        good = np.isfinite(ses) & (ses >= 0.0)
        for i in np.flatnonzero([stop is None for stop in stops] & ~good.all(axis=1)):
            stops[i] = ValidationError(f"se must be finite and >= 0, got {ses[i][~good[i]][0]}")
        out[name] = points, ses, stops, cis, notes, terms
    return out, pscore


def influence_values(
    data: ObservationSet,
    estimators: Sequence[str],
    estimands: Sequence[EstimandSpec],
    *,
    outcome: OutcomeModel | None = None,
    propensity: PropensityModel | None = None,
) -> list[np.ndarray]:
    """Per-unit influence values phi, one (n,) array per (estimator,
    estimand) in the order of `estimate_many`'s reports: the cell terms of
    `estimate_cells` on the sample, with the same models and first stop.
    Each report's SE is sqrt(mean(phi^2) / n). reg's values hold the
    covariate mean that centers w fixed, as its SE does. ipw, whose SE is a
    bootstrap, is a ValidationError raised before anything is fitted."""
    contrasts = check_estimate_args(estimators, estimands, 0.95)
    if "ipw" in estimators:
        raise ValidationError("ipw has no influence values: its SE is a bootstrap")
    results, _ = estimate_cells(data.cells[0], estimators, contrasts, outcome=outcome, propensity=propensity)
    values = []
    for name in estimators:
        _, _, [stop], _, _, terms = results[name]
        if stop is not None:
            raise stop
        values += [_unit_influence(data, a[0], b[0]) for a, b in terms]
    return values
