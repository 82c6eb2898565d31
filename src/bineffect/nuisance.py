"""Nuisance fits: interacted outcome regression (OLS) and propensity (IRLS logistic)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy.special import expit

from .core import (
    ConvergenceError,
    DegenerateArmError,
    ObservationSet,
    SeparationError,
    SingularDesignError,
    ValidationError,
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
    demeaning center `w_mean`."""

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
    return np.hstack([np.ones((t.shape[0], 1)), t[:, None], w_centered, t[:, None] * w_centered])


def fit_ols_interacted(data: ObservationSet) -> RegressionFit:
    """Least squares for the fully interacted, covariate-demeaned design.

    Solved by SVD (np.linalg.lstsq); rank deficiency raises
    SingularDesignError naming the collinear columns, and a single-arm
    sample raises DegenerateArmError.
    """
    t, y, w = data.t, data.y, data.w
    if np.all(t == t[0] if t.size else True):
        raise DegenerateArmError(
            f"cannot fit the outcome regression: every unit has t={t[0]:.0f}"
            if t.size else "cannot fit the outcome regression: empty sample"
        )
    p = data.p
    d = 2 + 2 * p
    if data.n <= d:
        raise ValidationError(f"need n > {d} rows to fit {d} coefficients, got n={data.n}")
    w_mean = w.mean(axis=0)
    wc = w - w_mean
    x = interacted_design(t, wc)
    beta, _, rank, _ = np.linalg.lstsq(x, y, rcond=_RANK_TOL)
    if rank < d:
        cols = _collinear_columns(x, design_labels(p))
        raise SingularDesignError(f"singular design matrix; collinear columns: {', '.join(cols)}")
    return RegressionFit(
        beta0=float(beta[0]),
        beta_t=float(beta[1]),
        beta_w=beta[2 : 2 + p].copy(),
        beta_interact=beta[2 + p :].copy(),
        w_mean=w_mean,
    )


@dataclass(frozen=True)
class PropensityModel:
    """Logistic model for Pr(T=1 | W=w)."""

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
) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Raphson logistic MLE of t on x for m frequency-weighted copies
    of one sample.

    Row b of the (m, n) `counts` weights row i of `x` by how often it
    appears in problem b. All problems iterate together, each from `start`,
    and a problem stops moving once its largest step drops below `_IRLS_TOL`.
    Returns the (m, d) coefficients and an (m,) mask of the problems that
    converged. A problem whose coefficients pass the separation bound or
    whose weighted Hessian is singular is flagged instead; its coefficients
    are those of the step that flagged it (unchanged by a singular
    Hessian). A problem still moving after `max_iter` iterations raises
    ConvergenceError.
    """
    ct = np.ascontiguousarray(counts.T)  # (n, k): problems in columns
    m, d = counts.shape[0], x.shape[1]
    beta = np.zeros((m, d)) if start is None else np.tile(np.asarray(start, dtype=float), (m, 1))
    ok = np.ones(m, dtype=bool)
    active, b = np.arange(m), beta.copy()  # the problems still moving, and their coefficients
    # row-wise x_i x_i', so the Hessians of k problems are one (k, n) @ (n, d*d) product
    outer = (x[:, :, None] * x[:, None, :]).reshape(-1, d * d) if m > 1 else None
    t_col = t[:, None]
    steps = []
    for _ in range(max_iter):
        probs = expit(x @ b.T)
        cw = probs * (1.0 - probs)
        cw *= ct
        resid = t_col - probs
        resid *= ct
        if active.size == 1:  # a plain product: a lone problem keeps its exact arithmetic
            hess = ((x * cw).T @ x)[None]
        else:
            hess = (cw.T @ outer).reshape(-1, d, d)
        grad = (x.T @ resid).T
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
            active, b, ct = active[moving], b[moving], ct[:, moving]
    trace = ", ".join(f"{size[moving].max():.3g}" for size, moving in steps[-5:])
    raise ConvergenceError(
        f"IRLS did not converge in {max_iter} iterations; last step sizes: {trace}"
    )


def _logistic_design(w: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((w.shape[0], 1)), w])


def fit_logistic(data: ObservationSet, start: np.ndarray | None = None) -> PropensityModel:
    """Maximum-likelihood logistic regression of t on [1, w] via IRLS.

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
    x, t, _ = logistic_cells(data)
    beta, ok = _irls(x, t, start=start, counts=data._cells[2][None])
    if ok[0]:
        return PropensityModel(intercept=float(beta[0, 0]), coef=beta[0, 1:].copy())
    size = np.max(np.abs(beta))
    if size > _SEPARATION_BOUND:
        raise SeparationError(
            f"logistic coefficients exceeded {_SEPARATION_BOUND:g} in magnitude; "
            "the treatment arms appear (quasi-)separated"
        )
    if size > _SEPARATION_BOUND / 2:
        raise SeparationError(
            "logistic fit diverged (singular weighted Hessian at large "
            "coefficients); the treatment arms appear separated"
        )
    labels = ["intercept"] + [f"w{j + 1}" for j in range(data.p)]
    cols = _collinear_columns(_logistic_design(data.w), labels)
    raise SingularDesignError(f"singular logistic design; collinear columns: {', '.join(cols)}")


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
    units, cell, _ = data._cells
    return _logistic_design(data.w[units]), data.t[units], cell


def cell_sums(data: ObservationSet, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One unit of each `logistic_cells` cell, the number of units in each
    cell and the sum of the (n,) `values` over each."""
    units, cell, sizes = data._cells
    return units, sizes, np.bincount(cell, weights=values, minlength=units.size)


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
        beta[both], ok[both] = _irls(x, t, start=start, counts=counts[both])
    probs = np.clip(expit(beta @ x.T), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return probs, ok
