"""Nuisance fits: interacted outcome regression (OLS) and propensity (IRLS logistic)."""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ._special import expit
from .core import (
    CellBatch,
    ConvergenceError,
    DegenerateArmError,
    EstimationError,
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


def _collinear_columns(rows: np.ndarray, sizes: np.ndarray, labels: list[str]) -> list[str]:
    """Columns of a unit design, each of the cells' design `rows` repeated
    once per unit of the cell, that lie in the span of the others (hence
    removable)."""
    x = np.repeat(rows, sizes.astype(np.intp), axis=0)
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


def _linear(w: np.ndarray, coef) -> np.ndarray:
    """w . coef per row of `w`, one matrix-vector product per sample of a
    batch: (n, p) rows and (R, p) coefficients give (R, n)."""
    return (w @ np.asarray(coef, dtype=float)[..., None])[..., 0]


@dataclass(frozen=True)
class RegressionFit:
    """OLS fit of y on [1, t, wc, t x wc], wc = w - `w_mean`: arm 0's line is
    beta0 + wc . beta_w, and arm 1's adds beta_t + wc . beta_interact. The
    fits of R samples (`ols_fits`) hold the samples on the first axis of
    each field: beta0 and beta_t (R, 1), beta_w and beta_interact (R, p),
    w_mean (R, 1, p)."""

    beta0: float
    beta_t: float
    beta_w: np.ndarray
    beta_interact: np.ndarray
    w_mean: np.ndarray

    def predict(self, t, w):
        """Evaluate m(t, w) for a scalar or length-n t and a (p,) or (n, p) w:
        a number, an (n,) array, or (R, n) for the fits of R samples."""
        wc = _rows(w, np.shape(self.w_mean)[-1]) - self.w_mean
        return self.beta0 + t * self.beta_t + _linear(wc, self.beta_w) + t * _linear(wc, self.beta_interact)


class OutcomeModel(Protocol):
    """Anything that can evaluate E[Y | T=t, W=w]."""

    def predict(self, t, w): ...


def interacted_design(t: np.ndarray, w_centered: np.ndarray) -> np.ndarray:
    """Rows [1, t, wc, t * wc]; a leading axis of `w_centered` stacks designs."""
    t = np.broadcast_to(t[:, None], w_centered.shape[:-1] + (1,))
    return np.concatenate([np.ones_like(t), t, w_centered, t * w_centered], axis=-1)


def fit_ols_interacted(data: ObservationSet) -> RegressionFit:
    """Least squares for the fully interacted, covariate-demeaned design:
    `ols_fits` on the sample's cells, raising the error that stops it."""
    fits, [stop], _ = ols_fits(data.cells[0])
    if stop is not None:
        raise stop
    return RegressionFit(
        float(fits.beta0[0, 0]), float(fits.beta_t[0, 0]), fits.beta_w[0].copy(),
        fits.beta_interact[0].copy(), fits.w_mean[0, 0],
    )


def ols_fits(cells: CellBatch) -> tuple[RegressionFit, list, np.ndarray]:
    """The interacted OLS of each sample of `cells`: a RegressionFit with the
    samples on the first axis of its fields (beta0 and beta_t (R, 1)), per
    sample None or the error that stops it (DegenerateArmError for one arm
    or none, ValidationError for n <= 2 + 2p, SingularDesignError naming the
    collinear columns of the unit design), and the (R, k) implied weight of
    each cell. Fits and weights are NaN where a sample stops.

    The design fits one line per arm, y on [1, wc], whose intercepts are mu1
    = beta0 + beta_t and mu0 = beta0. Per cell, the units' sum of squares is
    n_c times the squared residual of ybar_c plus a constant, so arm a's
    cell rows X_a, scaled by sqrt(n_c), are one np.linalg.svd of the (R,
    k_a, p + 1) stack: X_a = U S V'. It gives the coefficients V S^-1 U'y,
    the rank (singular values above 1e-10 of the larger arm's top one) and
    each cell's implied weight omega_c = n e1' V S^-2 V' [1, wc_c]: the
    arm's intercept is sum_c n_c omega_c ybar_c / n over its cells
    (Chattopadhyay & Zubizarreta 2023).
    """
    r, p = cells.sizes.shape[0], cells.w.shape[1]
    d = 2 + 2 * p
    arm_beta, implied, stops = np.full((2, r, p + 1), np.nan), np.full(cells.sizes.shape, np.nan), [None] * r
    if not 0.0 < cells.t.sum() < cells.t.size:  # one arm or none
        stop = (f"cannot fit the outcome regression: every unit has t={cells.t[0]:.0f}"
                if cells.t.size else "cannot fit the outcome regression: empty sample")
        stops = [DegenerateArmError(stop) for _ in range(r)]
    else:
        x = np.concatenate([np.ones(cells.sizes.shape + (1,)), cells.w - cells.w_mean[:, None, :]], axis=-1)
        root = np.sqrt(cells.sizes)
        arms = [np.flatnonzero(cells.t == a) for a in (1.0, 0.0)]
        svds = [np.linalg.svd(x[:, c] * root[:, c, None], full_matrices=False) for c in arms]
        tol = _RANK_TOL * np.maximum(*(s[:, 0] for _, s, _ in svds))[:, None]
        full = np.all([(s.shape[1] == p + 1) & (s > tol).all(axis=1) for _, s, _ in svds], axis=0)
        for j, (c, (u, s, vt)) in enumerate(zip(arms, svds)):
            inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tol)
            v = np.swapaxes(vt, -1, -2)
            uy = (np.swapaxes(u, -1, -2) @ (cells.means[:, c] * root[:, c])[..., None])[..., 0]
            arm_beta[j] = (v @ (inv * uy)[..., None])[..., 0]
            e1 = v @ (inv * inv * vt[..., 0])[..., None]  # (X_a'X_a)^-1 e1
            implied[:, c] = cells.n[:, None] * (x[:, c] @ e1)[..., 0]
        for i, n in enumerate(cells.n):
            if n <= d:
                stops[i] = ValidationError(f"need n > {d} rows to fit {d} coefficients, got n={int(n)}")
            elif not full[i]:
                unscaled = interacted_design(cells.t, cells.w - cells.w_mean[i])
                cols = _collinear_columns(unscaled, cells.sizes[i], design_labels(p))
                stops[i] = SingularDesignError(f"singular design matrix; collinear columns: {', '.join(cols)}")
        stopped = np.array([stop is not None for stop in stops])
        arm_beta[:, stopped], implied[stopped] = np.nan, np.nan
    b1, b0 = arm_beta
    fits = RegressionFit(b0[:, :1], b1[:, :1] - b0[:, :1], b0[:, 1:], b1[:, 1:] - b0[:, 1:], cells.w_mean[:, None])
    return fits, stops, implied


@dataclass(frozen=True)
class PropensityModel:
    """Logistic model for Pr(T=1 | W=w). The models of R samples
    (`logistic_fits`) hold the samples on the first axis of each field:
    intercept (R, 1) and coef (R, p)."""

    intercept: float
    coef: np.ndarray

    @property
    def p(self) -> int:
        return np.shape(self.coef)[-1]

    def predict_proba(self, w):
        """Pr(T=1 | w) strictly inside (0, 1): a number for a (p,) w, an (n,)
        array for an (n, p) w, or (R, n) for the models of R samples."""
        probs = expit(self.intercept + _linear(_rows(w, self.p), self.coef))
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
) -> tuple[np.ndarray, np.ndarray, dict[int, ConvergenceError]]:
    """Newton-Raphson logistic MLE of t on x for m frequency-weighted copies
    of one sample.

    Row b of the (m, n) `counts` weights row i of `x` by how often it
    appears in problem b. All problems iterate together, each from `start`,
    and a problem stops moving once its largest step drops below `_IRLS_TOL`.
    Each problem's products are its own matrix calls, as a lone problem's,
    so its iterates do not depend on the others; with `pooled`, the
    Hessians of all moving problems are one (m, n) @ (n, d*d) product,
    faster for many problems. Returns the (m, d) coefficients, an (m,) mask
    of the problems that converged, and the problems still moving after
    `max_iter` iterations, by index, each with a ConvergenceError naming its
    own last five step sizes; they keep their last iterate. A problem whose
    coefficients pass the separation bound or whose weighted Hessian is
    singular is flagged instead; its coefficients are those of the step
    that flagged it (unchanged by a singular Hessian).
    """
    m, d = counts.shape[0], x.shape[1]
    beta = np.zeros((m, d)) if start is None else np.tile(np.asarray(start, dtype=float), (m, 1))
    ok = np.ones(m, dtype=bool)
    active, b, c = np.arange(m), beta.copy(), counts  # the moving problems, their coefficients and counts
    # row-wise x_i x_i', so the Hessians of k problems are one (k, n) @ (n, d*d) product
    outer = (x[:, :, None] * x[:, None, :]).reshape(-1, d * d) if pooled and m > 1 else None
    t_col = t[:, None]
    recent = collections.deque(maxlen=5)  # the moving problems and their step sizes, per iteration
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
        recent.append((active, size))
        if not moving.all():
            beta[active] = b
            ok[active[failed]] = False
            if not moving.any():
                return beta, ok, {}
            active, b, c = active[moving], b[moving], c[moving]
    beta[active], ok[active], stalled = b, False, {}
    for i in active:
        trace = ", ".join(f"{size[ids.searchsorted(i)]:.3g}" for ids, size in recent)
        stalled[int(i)] = ConvergenceError(f"IRLS did not converge in {max_iter} iterations; last step sizes: {trace}")
    return beta, ok, stalled


def logistic_design(w: np.ndarray) -> np.ndarray:
    """The logistic design rows [1, w] of the (k, p) covariate rows `w`."""
    return np.hstack([np.ones((w.shape[0], 1)), w])


def fit_logistic(data: ObservationSet) -> PropensityModel:
    """Maximum-likelihood logistic regression of t on [1, w] via IRLS:
    `logistic_fits` on the sample's cells, raising the error that stops it.

    The likelihood is summed over the (t, w) cells of `data.cells`, each
    weighted by its number of units (the grouped-binomial form, McCullagh &
    Nelder 1989, section 4.4). Converges when the largest coefficient
    change drops below 1e-10 (at most 100 iterations). No ridge is applied:
    separation raises SeparationError rather than being silently regularized
    away.
    """
    model, [stop] = logistic_fits(data.cells[0])
    if stop is not None:
        raise stop
    return PropensityModel(float(model.intercept[0, 0]), model.coef[0].copy())


def logistic_fits(cells: CellBatch) -> tuple[PropensityModel, list]:
    """The logistic fit of each sample of `cells`: a PropensityModel with the
    samples on the first axis of its fields (intercept (R, 1)), and per
    sample None or the EstimationError that stops it (`_logistic_stop`,
    DegenerateArmError for one arm or none, or the ConvergenceError that
    `_irls` reports). Each sample iterates on its own arithmetic, as alone,
    from zeros.
    """
    r, x = cells.sizes.shape[0], logistic_design(cells.w)
    if not 0.0 < cells.t.sum() < cells.t.size:  # one arm or none
        stop = "cannot fit the propensity model: both treatment arms must be present"
        beta, stops = np.full((r, x.shape[1]), np.nan), [DegenerateArmError(stop) for _ in range(r)]
    else:
        beta, ok, stalled = _irls(x, cells.t, counts=cells.sizes)
        stops = [None if good else stalled.get(i) or _logistic_stop(x, sizes, b)
                 for i, (good, sizes, b) in enumerate(zip(ok, cells.sizes, beta))]
    return PropensityModel(beta[:, :1], beta[:, 1:]), stops


def _logistic_stop(x: np.ndarray, sizes: np.ndarray, beta: np.ndarray) -> EstimationError:
    """The error of a logistic fit that `_irls` flagged at coefficients
    `beta`, on the cells' design rows `x` with `sizes` units: SeparationError
    past the separation bound, or at a singular Hessian past half of it, and
    else SingularDesignError naming the collinear columns of the unit design."""
    far = np.max(np.abs(beta))
    if far > _SEPARATION_BOUND:
        return SeparationError(f"logistic coefficients exceeded {_SEPARATION_BOUND:g} in magnitude; "
                               "the treatment arms appear (quasi-)separated")
    if far > _SEPARATION_BOUND / 2:
        return SeparationError("logistic fit diverged (singular weighted Hessian at large coefficients); "
                               "the treatment arms appear separated")
    labels = ["intercept"] + [f"w{j + 1}" for j in range(x.shape[1] - 1)]
    cols = _collinear_columns(x, sizes, labels)
    return SingularDesignError(f"singular logistic design; collinear columns: {', '.join(cols)}")


def refit_logistic(
    x: np.ndarray, t: np.ndarray, counts: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict[int, ConvergenceError]]:
    """Refit the propensity on m frequency-weighted resamples at once.

    `x` (k, d) and `t` (k,) are logistic design rows and treatments, such as
    `logistic_design(cells.w)` and `cells.t` of a sample's `data.cells[0]`.
    Row b of the (m, k) `counts` holds how often each row appears in
    resample b: the frequency-weight view of the nonparametric bootstrap
    (Efron & Tibshirani 1993). `start` (d,) is the intercept, then the
    coefficients, that every refit starts from. Returns each refit's
    probabilities for every row, (m, k) and clipped like `predict_proba`, an
    (m,) mask of the refits that succeeded, and the refits that did not
    converge, by row, each with its ConvergenceError. A resample on which
    `fit_logistic` would raise DegenerateArmError, SeparationError or
    SingularDesignError is flagged instead.

    On a saturated design (`saturated_patterns`) a resample's MLE exists
    exactly when every covariate pattern holds both arms (Albert & Anderson
    1984), and it gives each pattern its treated share (McCullagh & Nelder
    1989, section 4.4). There each refit is its patterns' shares, from exact
    integer sums of its counts, and no IRLS runs; a resample without both
    arms in every pattern is flagged (its probabilities are 0 or 1, clipped,
    in a pattern with one arm and NaN in an empty one). Elsewhere the
    resamples with both arms are one pooled IRLS (`_irls`) from `start`.
    """
    m, patterns = counts.shape[0], saturated_patterns(x)
    if patterns is not None:
        member, index = patterns
        units, cases = counts @ member, counts @ (member * t[:, None])  # per pattern, (m, d): exact integer sums
        with np.errstate(invalid="ignore"):  # 0 / 0 in an empty pattern
            shares = cases / units
        ok = ((cases > 0.0) & (cases < units)).all(axis=1)
        return np.clip(shares[:, index], _PROB_FLOOR, 1.0 - _PROB_FLOOR), ok, {}
    treated = counts @ t
    ok = (treated > 0.0) & (treated < counts.sum(axis=1))  # both arms present
    beta, both, stalled = np.tile(np.asarray(start, dtype=float), (m, 1)), np.flatnonzero(ok), {}
    if both.size:
        beta[both], ok[both], stuck = _irls(x, t, start=start, counts=counts[both], pooled=True)
        stalled = {int(both[j]): err for j, err in stuck.items()}
    return np.clip(expit(beta @ x.T), _PROB_FLOOR, 1.0 - _PROB_FLOOR), ok, stalled


def saturated_patterns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """For k logistic design rows `x` (k, d) that hold exactly d distinct
    rows forming a nonsingular matrix (a saturated model): the (k, d) 0/1
    indicator of each row's pattern, the patterns in order of first
    appearance, and each row's (k,) pattern index. Else None, at once for
    k > 2d, since a pattern holds at most two cells (t = 0 and 1). Computed
    once per distinct design."""
    k, d = x.shape
    return None if k > 2 * d else _patterns(np.ascontiguousarray(x, dtype=float).tobytes(), d)


@functools.lru_cache(maxsize=64)
def _patterns(rows: bytes, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    x = np.frombuffer(rows).reshape(-1, d)
    same = (x[:, None, :] == x[None, :, :]).all(axis=-1)
    first = np.flatnonzero(same.argmax(axis=1) == np.arange(x.shape[0]))
    if first.size != d:
        return None
    sv = np.linalg.svd(x[first], compute_uv=False)
    if not sv[-1] > _RANK_TOL * sv[0]:
        return None
    member = same[:, first]
    out = member.astype(float), member.argmax(axis=1)
    for v in out:
        v.flags.writeable = False
    return out
