"""Nuisance fits: interacted outcome regression (OLS) and propensity (IRLS logistic)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace
from typing import Protocol, Sequence

import numpy as np
from scipy.special import expit

from .core import (
    ConvergenceError,
    DegenerateArmError,
    EstimationError,
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
    `ols_fits` on the sample's cells, raising the error that stops it."""
    fits, [stop] = ols_fits(CellBatch.of(data))
    if stop is not None:
        raise stop
    return RegressionFit(
        float(fits.beta0[0, 0]), float(fits.beta_t[0, 0]), fits.beta_w[0].copy(),
        fits.beta_interact[0].copy(), fits.w_mean[0],
    )


def ols_fits(cells: CellBatch) -> tuple[RegressionFit, list]:
    """The interacted OLS of each sample of `cells`: a RegressionFit with the
    samples on the first axis of its fields (beta0 and beta_t (R, 1), NaN
    where it stops), and per sample None or the error that stops it:
    DegenerateArmError for a sample with one arm or none, ValidationError
    for n <= 2 + 2p, and SingularDesignError naming the collinear columns of
    the unit design for a rank-deficient one.

    The units' sum of squares is, per cell, the cell size times the squared
    residual of the cell's mean y plus a constant, so each fit is solved by
    SVD (np.linalg.lstsq, one sample at a time) on the cell rows scaled by
    the square roots of their sizes.
    """
    r, p = cells.sizes.shape[0], cells.w.shape[1]
    d = 2 + 2 * p
    root = np.sqrt(cells.sizes)
    x = interacted_design(cells.t, cells.w - cells.w_mean[:, None, :])
    x *= root[..., None]
    y = cells.means * root
    beta, stops, one_arm = np.full((r, d), np.nan), [None] * r, not 0.0 < cells.t.sum() < cells.t.size
    for i, n in enumerate(cells.n):
        if one_arm:
            stops[i] = DegenerateArmError(
                f"cannot fit the outcome regression: every unit has t={cells.t[0]:.0f}"
                if cells.t.size else "cannot fit the outcome regression: empty sample"
            )
        elif n <= d:
            stops[i] = ValidationError(f"need n > {d} rows to fit {d} coefficients, got n={int(n)}")
        else:
            beta[i], _, rank, _ = np.linalg.lstsq(x[i], y[i], rcond=_RANK_TOL)
            if rank < d:
                unscaled = interacted_design(cells.t, cells.w - cells.w_mean[i])
                cols = _collinear_columns(unscaled, cells.sizes[i], design_labels(p))
                stops[i] = SingularDesignError(f"singular design matrix; collinear columns: {', '.join(cols)}")
    fits = RegressionFit(beta[:, :1], beta[:, 1:2], beta[:, 2 : 2 + p], beta[:, 2 + p :], cells.w_mean)
    return fits, stops


def outcome_at_cells(fits: RegressionFit, w: np.ndarray, ts: Sequence) -> list[np.ndarray]:
    """`RegressionFit.predict(t, w)` of each fit of an `ols_fits` batch, (R,
    k), for each t of `ts`: each fit's products are its own matrix-vector
    calls, as alone, made once for all of `ts`."""
    wc = w - fits.w_mean[:, None, :]
    linear = [(wc @ beta[..., None])[..., 0] for beta in (fits.beta_w, fits.beta_interact)]
    return [fits.beta0 + t * fits.beta_t + linear[0] + t * linear[1] for t in ts]


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


def logistic_design(w: np.ndarray) -> np.ndarray:
    """The logistic design rows [1, w] of the (k, p) covariate rows `w`."""
    return np.hstack([np.ones((w.shape[0], 1)), w])


def fit_logistic(data: ObservationSet, start: np.ndarray | None = None) -> PropensityModel:
    """Maximum-likelihood logistic regression of t on [1, w] via IRLS:
    `logistic_fits` on the sample's cells, raising the error that stops it.

    The likelihood is summed over the `logistic_cells` of `data`, each
    weighted by its number of units. Converges when the largest coefficient
    change drops below 1e-10 (at most 100 iterations). No ridge is applied:
    separation raises SeparationError rather than being silently regularized
    away.
    """
    model, [stop] = logistic_fits(CellBatch.of(data), start)
    if stop is not None:
        raise stop
    return PropensityModel(float(model.intercept[0, 0]), model.coef[0].copy())


def logistic_fits(cells: CellBatch, start: np.ndarray | None = None) -> tuple[PropensityModel, list]:
    """The logistic fit of each sample of `cells`: a PropensityModel with the
    samples on the first axis of its fields (intercept (R, 1)), and per
    sample None or the EstimationError that stops it (`_logistic_stop`,
    DegenerateArmError for one arm or none, or ConvergenceError, found by
    refitting the samples one at a time, as each iterates alone in `_irls`).
    """
    r, x = cells.sizes.shape[0], logistic_design(cells.w)
    if not 0.0 < cells.t.sum() < cells.t.size:  # one arm or none
        stop = "cannot fit the propensity model: both treatment arms must be present"
        beta, stops = np.full((r, x.shape[1]), np.nan), [DegenerateArmError(stop) for _ in range(r)]
    else:
        try:
            beta, ok = _irls(x, cells.t, counts=cells.sizes, start=start)
            stops = [None if good else _logistic_stop(x, sizes, b) for good, sizes, b in zip(ok, cells.sizes, beta)]
        except ConvergenceError as err:
            beta, stops = np.full((r, x.shape[1]), np.nan), [err]
            if r > 1:
                alone = [logistic_fits(cells.take([i]), start) for i in range(r)]
                beta = np.vstack([np.hstack([model.intercept[0], model.coef[0]]) for model, _ in alone])
                stops = [stop for _, [stop] in alone]
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
    return logistic_design(w), t, cell


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
    nonparametric bootstrap (Efron & Tibshirani 1993). Every refit starts
    from `start` (intercept, then coefficients) and all of them run as one
    batched IRLS. Returns each refit's probabilities for every row, (m, k)
    and clipped like `predict_proba`, and an (m,) mask of the refits that
    succeeded; a resample on which `fit_logistic` would raise
    DegenerateArmError, SeparationError or SingularDesignError is flagged
    instead. A refit that does not converge raises ConvergenceError.

    On a saturated design (`saturated_patterns`), the MLE gives each
    covariate pattern its treated share (McCullagh & Nelder 1989, section
    4.4). A resample with both arms in every pattern, on which IRLS would
    converge (`_newton_converges`), gets those shares, from exact integer
    sums of its counts, and runs no IRLS.
    """
    treated = counts @ t
    ok = (treated > 0.0) & (treated < counts.sum(axis=1))  # both arms present
    beta = np.tile(np.asarray(start, dtype=float), (counts.shape[0], 1))
    newton, patterns = ok, saturated_patterns(x)
    if patterns is not None:
        member, rows, inverse = patterns
        units, cases = counts @ member, counts @ (member * t[:, None])  # per pattern, (m, d): exact integer sums
        closed = np.flatnonzero(ok & ((cases > 0.0) & (cases < units)).all(axis=1))
        closed = closed[_newton_converges(rows, inverse, units[closed], cases[closed], start)]
        newton = ok.copy()
        newton[closed] = False
    both = np.flatnonzero(newton)
    if both.size:
        beta[both], ok[both] = _irls(x, t, start=start, counts=counts[both], pooled=True)
    probs = np.clip(expit(beta @ x.T), _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    if patterns is not None:  # each cell its pattern's share
        probs[closed] = np.clip((cases[closed] / units[closed]) @ member.T, _PROB_FLOOR, 1.0 - _PROB_FLOOR)
    return probs, ok


def saturated_patterns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """For k logistic design rows `x` (k, d) that hold exactly d distinct
    rows forming a nonsingular matrix (a saturated model): the (k, d) 0/1
    indicator of each row's pattern, the (d, d) matrix of the patterns, in
    order of first appearance, and its inverse. Else None, at once for k >
    2d, since a pattern holds at most two cells (t = 0 and 1). Computed once
    per distinct design."""
    k, d = x.shape
    return None if k > 2 * d else _patterns(np.ascontiguousarray(x, dtype=float).tobytes(), d)


@functools.lru_cache(maxsize=64)
def _patterns(rows: bytes, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    x = np.frombuffer(rows).reshape(-1, d)
    same = (x[:, None, :] == x[None, :, :]).all(axis=-1)
    first = np.flatnonzero(same.argmax(axis=1) == np.arange(x.shape[0]))
    if first.size != d:
        return None
    sv = np.linalg.svd(x[first], compute_uv=False)
    if not sv[-1] > _RANK_TOL * sv[0]:
        return None
    out = same[:, first].astype(float), x[first], np.linalg.inv(x[first])
    for v in out:
        v.flags.writeable = False
    return out


def _newton_converges(
    rows: np.ndarray, inverse: np.ndarray, units: np.ndarray, cases: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Mask of the refits of a saturated design, with (m, d) `units` and
    treated `cases` per pattern `rows` (d, d) and both arms in each, on which
    `_irls` from `start` converges with every iterate inside half the
    separation bound.

    In the pattern logits eta = rows @ beta the likelihood is a sum over the
    patterns, and Newton's method is invariant under that invertible map, so
    each IRLS step moves each pattern's logit by its own scalar Newton step
    toward its target logit(cases / units). From a logit within 1/2 of
    its target the steps contract toward it, and from one between 0 and its
    target they approach it monotonically (the score expit(eta) - share is
    convex below 0 and concave above: Fourier's condition). Either way the
    iterates stay within the logit's distance of the target, which bounds
    the coefficients. Until every pattern of a refit is so placed, its steps
    are taken here; a refit that leaves the bound first is left to `_irls`.
    """
    target = np.log(cases / (units - cases))
    eta, centre, spread = rows @ start, np.abs(target @ inverse.T), np.abs(inverse).T
    sure, inside = np.zeros(target.shape[0], dtype=bool), np.ones(target.shape[0], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a vanishing weight fails the bound
        for _ in range(_IRLS_MAX_ITER):
            miss = np.abs(eta - target)
            placed = (miss <= 0.5) | ((eta * target >= 0.0) & (np.abs(eta) <= np.abs(target)))
            placed &= centre + miss @ spread <= _SEPARATION_BOUND / 2  # each |coefficient| within reach
            sure |= inside & placed.all(axis=1)
            if (sure | ~inside).all():
                break
            probs = expit(eta)
            eta = eta + (cases - units * probs) / (units * probs * (1.0 - probs))
            inside &= (np.abs(eta @ inverse.T) <= _SEPARATION_BOUND / 2).all(axis=1)
    return sure


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
    def groups(cls, t: np.ndarray, w: np.ndarray, y: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
        """R samples, `t` (R, n), `w` (R, n, p) and `y` (R, n), by their cell
        rows (`block_cells`): per distinct rows, in order of first sample, the
        sample indices and a batch whose fields are byte-equal to `stack` of
        `of` of those samples. Also returns the (R, n) row of each unit in the
        block and the first row of each sample: unit j of sample i is in cell
        `rows[i, j] - first[i]` of its batch."""
        r, n, p = w.shape
        units, cell, first, *moments, w_mean, y_min, y_max = block_cells(t, w, y)
        w_rows, t_rows = w.reshape(-1, p)[units], t.ravel()[units]
        groups: dict = {}
        for i, (lo, hi) in enumerate(zip(first[:-1], first[1:])):
            groups.setdefault(w_rows[lo:hi].tobytes() + t_rows[lo:hi].tobytes(), []).append(i)
        for key, members in groups.items():
            lo, hi = first[members[0]], first[members[0] + 1]
            cells = first[members][:, None] + np.arange(hi - lo)
            per_sample = (w_mean[members], y_min[members], y_max[members], np.full(len(members), float(n)))
            groups[key] = members, cls(w_rows[lo:hi], t_rows[lo:hi], *(v[cells] for v in moments), *per_sample)
        return groups, cell.reshape(r, n), first

    @classmethod
    def stack(cls, batches: Sequence[CellBatch]) -> CellBatch:
        """One batch of batches whose cell rows are byte-equal, in order."""
        per_sample = [f.name for f in fields(cls)][2:]
        return replace(batches[0], **{f: np.concatenate([getattr(b, f) for b in batches]) for f in per_sample})

    def take(self, rows: np.ndarray) -> CellBatch:
        """The samples at `rows`, in that order."""
        return replace(self, **{f.name: getattr(self, f.name)[rows] for f in fields(self)[2:]})
