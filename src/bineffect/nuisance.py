"""Nuisance fits: interacted outcome regression (OLS) and propensity (IRLS logistic)."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields, replace
from typing import Protocol, Sequence

import numpy as np
from scipy.special import expit

from .core import (
    ConvergenceError,
    DegenerateArmError,
    ObservationSet,
    SeparationError,
    SingularDesignError,
    ValidationError,
    block_cells,
)

_RANK_TOL = 1e-10          # singular values below tol * largest are treated as zero
_IRLS_TOL = 1e-10          # max coefficient change at convergence
_IRLS_MAX_ITER = 100
_SEPARATION_BOUND = 30.0   # |coef| beyond this is read as (quasi-)separation
_PROB_FLOOR = 1e-15        # keeps predicted probabilities strictly inside (0, 1)


def design_labels(p: int) -> list[str]:
    return ["intercept", "t"] + [f"w{j + 1}" for j in range(p)] + [f"t:w{j + 1}" for j in range(p)]


def _collinear_columns(x: np.ndarray, labels: list[str]) -> list[str]:
    """Columns that lie in the span of the others (hence removable)."""
    sv = np.linalg.svd(x, compute_uv=False)
    tol = _RANK_TOL * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > tol))
    out = []
    for j in range(x.shape[1]):
        reduced = np.delete(x, j, axis=1)
        if np.linalg.matrix_rank(reduced, tol=tol) == rank:
            out.append(labels[j])
    return out


def _rows(w, p: int) -> np.ndarray:
    """`w` as a float array whose last axis holds the p covariates."""
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (p,):
        raise ValidationError(f"covariates of shape {w.shape} do not end in p={p} entries")
    return w


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of y on [1, t, demeaned w, t x demeaned w], with the
    demeaning center `w_mean`. The fits of R samples (`ols_fits`) hold the
    samples on the first axis of each field."""

    beta0: float
    beta_t: float
    beta_w: np.ndarray
    beta_interact: np.ndarray
    w_mean: np.ndarray

    def predict(self, t, w):
        """Evaluate m(t, w) for a scalar or length-n t and a (p,) or (n, p) w."""
        wc = _rows(w, self.w_mean.shape[0]) - self.w_mean
        return self.beta0 + t * self.beta_t + wc @ self.beta_w + t * (wc @ self.beta_interact)


class OutcomeModel(Protocol):
    """Anything that can evaluate E[Y | T=t, W=w]."""

    def predict(self, t, w): ...


def interacted_design(t: np.ndarray, w_centered: np.ndarray) -> np.ndarray:
    """Rows [1, t, wc, t * wc]; a leading axis of `w_centered` stacks designs."""
    t = np.broadcast_to(t[:, None], w_centered.shape[:-1] + (1,))
    return np.concatenate([np.ones_like(t), t, w_centered, t * w_centered], axis=-1)


def fit_ols_interacted(data: ObservationSet) -> RegressionFit:
    """Least squares for the fully interacted, covariate-demeaned design:
    `ols_fits` on the sample's cells. Rank deficiency raises
    SingularDesignError naming the collinear columns of the unit design, and
    a single-arm sample raises DegenerateArmError.
    """
    t, w = data.t, data.w
    if np.all(t == t[0] if t.size else True):
        raise DegenerateArmError(
            f"cannot fit the outcome regression: every unit has t={t[0]:.0f}"
            if t.size else "cannot fit the outcome regression: empty sample"
        )
    fits, [error] = ols_fits(CellBatch.of(data))
    if error is not None:
        cols = _collinear_columns(interacted_design(t, w - fits.w_mean[0]), design_labels(data.p))
        raise SingularDesignError(f"singular design matrix; collinear columns: {', '.join(cols)}")
    return RegressionFit(
        float(fits.beta0[0, 0]), float(fits.beta_t[0, 0]), fits.beta_w[0].copy(),
        fits.beta_interact[0].copy(), fits.w_mean[0],
    )


def ols_fits(cells: CellBatch) -> tuple[RegressionFit, list]:
    """The interacted OLS of each sample of `cells` (both arms present): a
    RegressionFit with the samples on the first axis of its fields (beta0
    and beta_t (R, 1)), and per sample None or SingularDesignError, the
    error `fit_ols_interacted` raises for a rank-deficient design. Raises
    ValidationError for n <= 2 + 2p.

    The units' sum of squares is, per cell, the cell size times the squared
    residual of the cell's mean y plus a constant, so each fit is solved by
    SVD (np.linalg.lstsq, one sample at a time) on the cell rows scaled by
    the square roots of their sizes.
    """
    r, p = cells.sizes.shape[0], cells.w.shape[1]
    d = 2 + 2 * p
    if np.any(cells.n <= d):
        raise ValidationError(f"need n > {d} rows to fit {d} coefficients, got n={int(cells.n.min())}")
    root = np.sqrt(cells.sizes)
    x = interacted_design(cells.t, cells.w - cells.w_mean[:, None, :])
    x *= root[..., None]
    y = cells.means * root
    beta, errors = np.empty((r, d)), []
    for i in range(r):
        beta[i], _, rank, _ = np.linalg.lstsq(x[i], y[i], rcond=_RANK_TOL)
        errors.append(None if rank == d else SingularDesignError)
    fits = RegressionFit(beta[:, :1], beta[:, 1:2], beta[:, 2 : 2 + p], beta[:, 2 + p :], cells.w_mean)
    return fits, errors


def outcome_at_cells(fits: RegressionFit, w: np.ndarray, t) -> np.ndarray:
    """`RegressionFit.predict(t, w)` of each fit of an `ols_fits` batch,
    (R, k): each fit's products are its own matrix-vector calls, as alone."""
    wc = w - fits.w_mean[:, None, :]
    linear = [(wc @ beta[..., None])[..., 0] for beta in (fits.beta_w, fits.beta_interact)]
    return fits.beta0 + t * fits.beta_t + linear[0] + t * linear[1]


@dataclass(frozen=True)
class PropensityModel:
    """Logistic model for Pr(T=1 | W=w). The models of R samples
    (`logistic_fits`) hold the samples on the first axis of each field."""

    intercept: float
    coef: np.ndarray

    @property
    def p(self) -> int:
        return self.coef.shape[0]

    def predict_proba(self, w):
        """Pr(T=1 | w) strictly inside (0, 1): a number for a (p,) w, an (n,)
        array for an (n, p) w."""
        probs = expit(self.intercept + _rows(w, self.p) @ self.coef)
        return np.clip(probs, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def _solve_each(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps one problem at a time; a singular Hessian gives a zero
    step and is flagged."""
    step = np.zeros_like(grad)
    singular = np.zeros(grad.shape[0], dtype=bool)
    for i in range(grad.shape[0]):
        try:
            step[i] = np.linalg.solve(hess[i], grad[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return step, singular


def _irls(
    x: np.ndarray,
    t: np.ndarray,
    counts: np.ndarray,
    start: np.ndarray | None = None,
    max_iter: int = _IRLS_MAX_ITER,
    pooled: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Raphson logistic MLE of t on x for m frequency-weighted copies
    of one sample.

    Row b of the (m, n) `counts` weights row i of `x` by how often it
    appears in problem b. All problems iterate together, each from `start`,
    and a problem stops moving once its largest step drops below `_IRLS_TOL`.
    Each problem's products are its own matrix calls, as a lone problem's,
    so its iterates do not depend on the others; with `pooled`, the
    Hessians of all moving problems are one (m, n) @ (n, d*d) product,
    faster for many problems. Returns the (m, d) coefficients and an (m,)
    mask of the problems that converged. A problem whose coefficients pass
    the separation bound or whose weighted Hessian is singular is flagged
    instead; its coefficients are those of the step that flagged it
    (unchanged by a singular Hessian). A problem still moving after
    `max_iter` iterations raises ConvergenceError.
    """
    m, d = counts.shape[0], x.shape[1]
    beta = np.zeros((m, d)) if start is None else np.tile(np.asarray(start, dtype=float), (m, 1))
    ok = np.ones(m, dtype=bool)
    active, b, c = np.arange(m), beta.copy(), counts  # the moving problems, their coefficients and counts
    # row-wise x_i x_i', so the Hessians of k problems are one (k, n) @ (n, d*d) product
    outer = (x[:, :, None] * x[:, None, :]).reshape(-1, d * d) if pooled and m > 1 else None
    t_col = t[:, None]
    steps = []
    for _ in range(max_iter):
        if outer is not None and active.size > 1:  # problems in columns: (n, k)
            probs, weights = expit(x @ b.T), c.T
        else:  # one product per problem: (k, n, 1)
            probs, weights = expit(x @ b[:, :, None]), c[:, :, None]
        cw = probs * (1.0 - probs)
        cw *= weights
        resid = t_col - probs
        resid *= weights
        if probs.ndim == 2:
            hess = (cw.T @ outer).reshape(-1, d, d)
            grad = (x.T @ resid).T
        else:
            hess = np.swapaxes(x * cw, -1, -2) @ x
            grad = (x.T @ resid)[..., 0]
        try:
            step = np.linalg.solve(hess, grad[..., None])[..., 0]
            singular = None
        except np.linalg.LinAlgError:
            step, singular = _solve_each(hess, grad)
        b += step
        size = np.max(np.abs(step), axis=1)
        failed = np.max(np.abs(b), axis=1) > _SEPARATION_BOUND
        if singular is not None:
            failed |= singular
        moving = ~(failed | (size < _IRLS_TOL))  # a NaN step keeps moving, into ConvergenceError
        steps.append((size, moving))
        if not moving.all():
            beta[active] = b
            ok[active[failed]] = False
            if not moving.any():
                return beta, ok
            active, b, c = active[moving], b[moving], c[moving]
    trace = ", ".join(f"{size[moving].max():.3g}" for size, moving in steps[-5:])
    raise ConvergenceError(
        f"IRLS did not converge in {max_iter} iterations; last step sizes: {trace}"
    )


def _logistic_design(w: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((w.shape[0], 1)), w])


def fit_logistic(data: ObservationSet, start: np.ndarray | None = None) -> PropensityModel:
    """Maximum-likelihood logistic regression of t on [1, w] via IRLS:
    `logistic_fits` on the sample's cells.

    The likelihood is summed over the `logistic_cells` of `data`, each
    weighted by its number of units. Converges when the largest coefficient
    change drops below 1e-10 (at most 100 iterations). No ridge is applied:
    separation raises SeparationError rather than being silently regularized
    away.
    """
    t = data.t
    if t.size == 0 or np.all(t == t[0]):
        raise DegenerateArmError(
            "cannot fit the propensity model: both treatment arms must be present"
        )
    model, [error] = logistic_fits(CellBatch.of(data), start)
    intercept, coef = float(model.intercept[0, 0]), model.coef[0].copy()
    if error is None:
        return PropensityModel(intercept, coef)
    if error is SeparationError:
        raise SeparationError(
            f"logistic coefficients exceeded {_SEPARATION_BOUND:g} in magnitude; "
            "the treatment arms appear (quasi-)separated"
            if max(abs(intercept), *np.abs(coef)) > _SEPARATION_BOUND else
            "logistic fit diverged (singular weighted Hessian at large "
            "coefficients); the treatment arms appear separated"
        )
    labels = ["intercept"] + [f"w{j + 1}" for j in range(data.p)]
    cols = _collinear_columns(_logistic_design(data.w), labels)
    raise SingularDesignError(f"singular logistic design; collinear columns: {', '.join(cols)}")


def logistic_fits(cells: CellBatch, start: np.ndarray | None = None) -> tuple[PropensityModel, list]:
    """The logistic fit of each sample of `cells` (both arms present): a
    PropensityModel with the samples on the first axis of its fields
    (intercept (R, 1)), and per sample None or the EstimationError class
    `fit_logistic` raises for it. A fit that does not converge is found by
    refitting the samples one at a time, as each iterates alone in `_irls`;
    a lone sample raises its ConvergenceError.
    """
    r, x = cells.sizes.shape[0], _logistic_design(cells.w)
    try:
        beta, ok = _irls(x, cells.t, counts=cells.sizes, start=start)
    except ConvergenceError:
        if r == 1:
            raise
        beta, errors = np.full((r, x.shape[1]), np.nan), [ConvergenceError] * r
        for i in range(r):
            with contextlib.suppress(ConvergenceError):
                model, (errors[i],) = logistic_fits(cells.take([i]), start)
                beta[i] = np.hstack([model.intercept[0], model.coef[0]])
        return PropensityModel(beta[:, :1], beta[:, 1:]), errors
    separated = np.max(np.abs(beta), axis=1) > _SEPARATION_BOUND / 2
    errors = [None if good else SeparationError if far else SingularDesignError
              for good, far in zip(ok, separated)]
    return PropensityModel(beta[:, :1], beta[:, 1:]), errors


def pscore_at_cells(models: PropensityModel, w: np.ndarray) -> np.ndarray:
    """`PropensityModel.predict_proba(w)` of each model of a `logistic_fits`
    batch, (R, k): each model's products are its own matrix-vector calls."""
    probs = expit(models.intercept + (w @ models.coef[..., None])[..., 0])
    return np.clip(probs, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def logistic_cells(data: ObservationSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct (logistic design row, t) pairs of `data`: the cells of the
    grouped-binomial form of the propensity likelihood (McCullagh & Nelder
    1989, section 4.4).

    Returns the (k, d) cell design rows, their (k,) treatments and each
    unit's (n,) cell index. A frequency-weighted likelihood or sum over the
    units depends on the weights only through their totals per cell. When no
    two units share a cell, as with continuous covariates, each unit is its
    own cell, in sample order (k = n). The grouping is computed once per
    sample and kept on it.
    """
    w, t, cell = cell_rows(data)
    return _logistic_design(w), t, cell


def cell_rows(data: ObservationSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (k, p) covariates and (k,) treatments of the `logistic_cells`
    cells, read at one unit of each, and each unit's (n,) cell index."""
    return data._cells[:3]


def cell_moments(data: ObservationSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per `logistic_cells` cell: the number of units, the sum and the mean
    of y over them, and their centred second moment sum((y - mean)**2).

    Every estimate and SE of reg, aipw and tmle depends on y only through
    these (Wong et al. 2021, arXiv:2102.11297). They are computed once per
    sample and kept on it. With continuous covariates each unit is its own
    cell, with count 1, sum and mean y and second moment 0.
    """
    return data._cells[3:7]


def refit_logistic(
    x: np.ndarray, t: np.ndarray, counts: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Refit the propensity on m frequency-weighted resamples at once.

    `x` (k, d) and `t` (k,) are logistic design rows and treatments, such as
    the `logistic_cells` of a sample. Row b of the (m, k) `counts` holds how
    often each row appears in resample b: the frequency-weight view of the
    nonparametric bootstrap (Efron & Tibshirani 1993). Every refit starts from `start` (intercept, then coefficients) and
    all of them run as one batched IRLS. Returns each refit's probabilities
    for every row, (m, k) and clipped like `predict_proba`, and an (m,) mask
    of the refits that succeeded; a resample on which `fit_logistic` would
    raise DegenerateArmError, SeparationError or SingularDesignError is
    flagged instead. A refit that does not converge raises ConvergenceError.
    """
    treated = counts @ t
    ok = (treated > 0.0) & (treated < counts.sum(axis=1))  # both arms present
    beta = np.tile(np.asarray(start, dtype=float), (counts.shape[0], 1))
    both = np.flatnonzero(ok)
    if both.size:
        beta[both], ok[both] = _irls(x, t, start=start, counts=counts[both], pooled=True)
    probs = np.clip(expit(beta @ x.T), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return probs, ok


@dataclass(frozen=True)
class CellBatch:
    """R samples that share their (t, w) cell rows `w` (k, p) and `t` (k,),
    each kept as its (R, k) `cell_moments` and the unit-level values the
    fits read besides them: the covariate mean `w_mean` (R, p), the range of
    y `y_min` and `y_max` and the size `n` (R,). Summing these from the
    cells would change their bits."""

    w: np.ndarray
    t: np.ndarray
    sizes: np.ndarray
    sums: np.ndarray
    means: np.ndarray
    m2: np.ndarray
    w_mean: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray
    n: np.ndarray

    @classmethod
    def of(cls, data: ObservationSet) -> CellBatch:
        """One sample as a batch of one."""
        w, t, _, *moments, w_mean, y_min, y_max = data._cells
        unit_level = np.array([[y_min], [y_max], [data.n]], dtype=float)
        return cls(w, t, *(v[None] for v in moments), w_mean[None], *unit_level)

    @classmethod
    def groups(cls, t: np.ndarray, w: np.ndarray, y: np.ndarray) -> dict[bytes, tuple[list[int], CellBatch]]:
        """R samples, `t` (R, n), `w` (R, n, p) and `y` (R, n), by their cell
        rows (`block_cells`): per distinct rows, in order of first sample, the
        sample indices and a batch whose fields are byte-equal to `stack` of
        `of` of those samples."""
        _, n, p = w.shape
        units, _, first, *moments, w_mean, y_min, y_max = block_cells(t, w, y)
        w_rows, t_rows = w.reshape(-1, p)[units], t.ravel()[units]
        groups: dict = {}
        for i, (lo, hi) in enumerate(zip(first[:-1], first[1:])):
            groups.setdefault(w_rows[lo:hi].tobytes() + t_rows[lo:hi].tobytes(), []).append(i)
        for key, members in groups.items():
            lo, hi = first[members[0]], first[members[0] + 1]
            cells = first[members][:, None] + np.arange(hi - lo)
            per_sample = (w_mean[members], y_min[members], y_max[members], np.full(len(members), float(n)))
            groups[key] = members, cls(w_rows[lo:hi], t_rows[lo:hi], *(v[cells] for v in moments), *per_sample)
        return groups

    @classmethod
    def stack(cls, batches: Sequence[CellBatch]) -> CellBatch:
        """One batch of batches whose cell rows are byte-equal, in order."""
        per_sample = [f.name for f in fields(cls)][2:]
        return replace(batches[0], **{f: np.concatenate([getattr(b, f) for b in batches]) for f in per_sample})

    def take(self, rows: np.ndarray) -> CellBatch:
        """The samples at `rows`, in that order."""
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)[2:]})
