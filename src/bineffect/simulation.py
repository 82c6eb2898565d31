"""Synthetic data generation, exact truth values, density curves and Monte Carlo runs."""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Hashable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ._special import ndtr
from .core import (
    BinarizationRule,
    CellBatch,
    Direction,
    EstimandSpec,
    EstimationError,
    ObservationSet,
    QuadratureError,
    ValidationError,
    binarize,
    check_integer,
    csv_text,
    seeded_rng,
)
from .estimators import BootstrapConfig, check_estimate_args, estimate_cells

_QUAD_TARGET = 1e-4     # required absolute accuracy of the truth values
_QUAD_GOAL = 1e-10      # integration tolerance relative to max(1, |integral|), capped at _QUAD_TARGET
_MAX_PANELS = 200       # the most panels an integral is split into, as quad's limit=200
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(15)  # on [-1, 1]
_TAIL_SDS = 10.0        # integration range; mass beyond is < 1e-20
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_BLOCK_UNITS = 2**15    # units a Monte Carlo chunk draws and groups at once; caps its working set


def cubic_sine_outcome(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Default conditional mean of the outcome: a^3 + sin(a) + 100 w."""
    return a**3 + np.sin(a) + 100.0 * w


@dataclass(frozen=True)
class DgpSpec:
    """Generating process: binary covariate, conditionally normal treatment.

    w ~ Bernoulli(w_prob); a | w ~ Normal(a_mean_base + a_mean_slope * w,
    a_sd); y = outcome_fn(a, w) + Normal(0, noise_sd); t = 1(a >= cutoff).
    `outcome_fn` acts unit by unit and gives a scalar or one value per
    unit: it is called on an array of points by the truth oracle and on a
    block of samples' units at once by the draws.
    """

    w_prob: float = 0.5
    a_mean_base: float = 5.0
    a_mean_slope: float = 2.0
    a_sd: float = 1.0
    outcome_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] = cubic_sine_outcome
    noise_sd: float = 1.0
    cutoff: float = 6.0

    def __post_init__(self) -> None:
        if not 0.0 < self.w_prob < 1.0:
            raise ValidationError(f"w_prob must be in (0, 1), got {self.w_prob}")
        for name in ("a_mean_base", "a_mean_slope", "a_sd", "noise_sd", "cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.a_sd <= 0.0:
            raise ValidationError(f"a_sd must be positive, got {self.a_sd}")
        if self.noise_sd < 0.0:
            raise ValidationError(f"noise_sd must be >= 0, got {self.noise_sd}")

    @functools.cached_property
    def rule(self) -> BinarizationRule:
        return BinarizationRule(self.cutoff, Direction.GEQ)

    def a_mean(self, w: float) -> float:
        return self.a_mean_base + self.a_mean_slope * w

    def propensity(self, w: float) -> float:
        """Population Pr(A >= cutoff | W = w), from the normal survival function."""
        return ndtr(-((self.cutoff - self.a_mean(w)) / self.a_sd))


@dataclass(frozen=True)
class TruthReport:
    """Exact estimand values for a DgpSpec, with the quadrature error bound."""

    psi_bate: float
    psi_peb1: float
    psi_peb0: float
    e_y: float
    quadrature_error_bound: float

    def value(self, estimand: EstimandSpec) -> float:
        return getattr(self, f"psi_{estimand.key}")

    def to_dict(self) -> dict:
        return asdict(self)


def sample_dgp(spec: DgpSpec, n: int, seed) -> ObservationSet:
    """Draw n i.i.d. units; `seed` is anything np.random.default_rng accepts,
    or an existing Generator."""
    check_integer("n", n)
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    w, a, t, y = _draw(spec, n, [seeded_rng("seed", seed)])
    return ObservationSet(w=w[0], t=t[0], y=y[0], a=a[0], rule=spec.rule)


def _draw(spec: DgpSpec, n: int, rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, ...]:
    """The w (R, n, 1), a, t and y (R, n) of R samples of n units, sample i
    drawn from `rngs[i]`: the only draws from a generator, so that
    `sample_dgp` (R = 1) and the Monte Carlo chunks see the same samples.

    Each generator fills its sample's rows with `random`, then two
    `standard_normal`s, the calls of one sample drawn alone, so its stream
    and its final state do not depend on the block. Each normal is
    loc + sd * z, the formula of `Generator.normal`, bit for bit. The rest
    runs once on the block's R * n units, `outcome_fn` (which acts unit by
    unit) included. When the outcome does not hold one finite value per
    unit, the samples are checked one by one as `sample_dgp` checks its
    sample, and the first invalid one raises its error.
    """
    r, total = len(rngs), len(rngs) * n
    w, a, noise = np.empty((3, r, n))
    for i, rng in enumerate(rngs):
        rng.random(out=w[i])
        rng.standard_normal(out=a[i])
        rng.standard_normal(out=noise[i])
    np.less(w, spec.w_prob, out=w)
    a *= spec.a_sd
    a += spec.a_mean_base + spec.a_mean_slope * w
    noise *= spec.noise_sd
    noise += 0.0  # keeps a zero sd's -0.0 draws at +0.0
    mean = np.asarray(spec.outcome_fn(a.reshape(total), w.reshape(total)), dtype=float)
    y = (mean + noise.reshape(total)).reshape(r, n) if mean.shape in ((), (total,)) else np.full((r, n), np.nan)
    if not (np.isfinite(a).all() and np.isfinite(y).all()):
        for i in range(r):  # sample_dgp's checks, which also catch an outcome of another shape
            y_i = np.asarray(spec.outcome_fn(a[i], w[i]), dtype=float) + noise[i]
            y[i] = ObservationSet(w=w[i], t=binarize(a[i], spec.rule), y=y_i, a=a[i], rule=spec.rule).y
    return w[..., None], a, binarize(a.reshape(total), spec.rule).reshape(r, n), y


def _normal_density(spec: DgpSpec, w: float, a: np.ndarray) -> np.ndarray:
    """The N(a_mean(w), a_sd) density at `a`, as scipy.stats.norm.pdf computes it."""
    z = (a - spec.a_mean(w)) / spec.a_sd
    return np.exp(-z**2 / 2.0) / _SQRT_2PI / spec.a_sd


def _gauss_legendre(f: Callable[[np.ndarray], np.ndarray], left: float, right: float) -> tuple[float, float]:
    """The integral of `f` over [left, right] and its error estimate, by
    adaptive 15-point Gauss-Legendre panels; `f` maps an array of points to
    their values and is called once per round.

    A panel's value is the rule on its two halves and its error estimate
    is |rule on the panel - rule on the left half - rule on the right half|;
    the integral and its estimate are the sums over the panels. While the
    estimate exceeds its goal (`_QUAD_GOAL` times max(1, |integral|), at most
    `_QUAD_TARGET`), every panel whose estimate exceeds its share of the
    goal, in proportion to its width, is bisected, and the worst one always
    is. Raises QuadratureError naming the interval for a non-finite value or
    estimate, or when the goal would need more than `_MAX_PANELS` panels.
    """
    lo = hi = values = errors = np.empty(0)
    new_lo, new_hi = np.array([left]), np.array([right])
    while True:
        mid = 0.5 * (new_lo + new_hi)
        starts, ends = np.concatenate([new_lo, new_lo, mid]), np.concatenate([new_hi, mid, new_hi])
        radii = 0.5 * (ends - starts)
        points = (0.5 * (starts + ends))[:, None] + radii[:, None] * _GAUSS_NODES
        whole, first, second = (radii * (f(points.ravel()).reshape(points.shape) @ _GAUSS_WEIGHTS)).reshape(3, -1)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        values = np.concatenate([values, first + second])
        errors = np.concatenate([errors, np.abs(whole - first - second)])
        total, total_err = float(values.sum()), float(errors.sum())
        if not (math.isfinite(total) and math.isfinite(total_err)):
            raise QuadratureError(f"non-finite integrand or estimate over [{left:g}, {right:g}]")
        goal = min(_QUAD_TARGET, _QUAD_GOAL * max(1.0, abs(total)))
        if total_err <= goal:
            return total, total_err
        split = errors > goal * (hi - lo) / (right - left)
        split[errors.argmax()] = True  # progress even when rounding leaves every panel within its share
        if lo.size + split.sum() > _MAX_PANELS:
            raise QuadratureError(
                f"quadrature error estimate {total_err:.3g} over [{left:g}, {right:g}] is above "
                f"its {goal:.3g} goal at the {_MAX_PANELS}-panel cap"
            )
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        lo, hi, values, errors = lo[~split], hi[~split], values[~split], errors[~split]


def truth_oracle(spec: DgpSpec) -> TruthReport:
    """Estimand values by adaptive Gauss-Legendre quadrature over each
    covariate stratum.

    For each w, the conditional mean outcome is integrated against the
    treatment density over the cutoff region (renormalized by the region
    probability) and over the full line, each piece to an error estimate
    of at most 1e-4. The reported bound sums the pieces' estimates, each
    scaled by its stratum's weight over the smaller region probability.
    """
    e_y = e_mu1 = e_mu0 = 0.0
    err = 0.0
    for w in (0.0, 1.0):
        weight = spec.w_prob if w == 1.0 else 1.0 - spec.w_prob
        m, sd = spec.a_mean(w), spec.a_sd
        pi1 = spec.propensity(w)
        if pi1 < 1e-12 or pi1 > 1.0 - 1e-12:
            raise ValidationError(
                f"positivity fails at w={w:g}: Pr(A >= {spec.cutoff:g} | w) = {pi1:.3g}"
            )

        def integrand(a: np.ndarray, _w: float = w) -> np.ndarray:
            mean = np.asarray(spec.outcome_fn(a, np.full_like(a, _w)), dtype=float)
            if mean.shape not in ((), a.shape):
                raise ValidationError(
                    f"outcome_fn must give a scalar or one value per point, got shape {mean.shape} "
                    f"for {a.size} points"
                )
            return mean * _normal_density(spec, _w, a)

        lo, hi = m - _TAIL_SDS * sd, m + _TAIL_SDS * sd
        pieces = {}
        for name, (left, right) in {
            "upper": (max(spec.cutoff, lo), hi),
            "lower": (lo, min(spec.cutoff, hi)),
        }.items():
            val, abserr = _gauss_legendre(integrand, left, right) if left < right else (0.0, 0.0)
            pieces[name] = val
            err += abserr * weight / min(pi1, 1.0 - pi1)
        e_y += weight * (pieces["upper"] + pieces["lower"])
        e_mu1 += weight * pieces["upper"] / pi1
        e_mu0 += weight * pieces["lower"] / (1.0 - pi1)
    return TruthReport(
        psi_bate=e_mu1 - e_mu0,
        psi_peb1=e_mu1 - e_y,
        psi_peb0=e_mu0 - e_y,
        e_y=e_y,
        quadrature_error_bound=err,
    )


@functools.lru_cache(maxsize=16)
def _truth(spec: DgpSpec) -> TruthReport:
    """`truth_oracle(spec)`, computed once per spec (which is frozen) for
    `run_monte_carlo`, whose callers repeat one spec over many calls."""
    return truth_oracle(spec)


DENSITY_ARMS = ("status_quo", "tilde1", "tilde0")


def density_curve(spec: DgpSpec, arm: str, w: int, grid: np.ndarray) -> np.ndarray:
    """Treatment density under the status quo or a cutoff-restricted policy.

    The policy densities are the status-quo normal density truncated to the
    arm's region and renormalized, so density ratios inside the region match
    the status quo exactly. Returns an array of (a, density) rows.
    """
    if arm not in DENSITY_ARMS:
        raise ValidationError(f"arm must be one of {DENSITY_ARMS}, got {arm!r}")
    if w not in (0, 1):
        raise ValidationError(f"w must be 0 or 1, got {w}")
    grid = np.asarray(grid, dtype=float)
    if grid.size and not np.isfinite(grid).all():
        raise ValidationError("grid must be finite")
    base = _normal_density(spec, w, grid)
    treated_region = binarize(grid, spec.rule).astype(bool)
    pi1 = spec.propensity(w)
    if arm == "status_quo":
        dens = base
    elif arm == "tilde1":
        dens = np.where(treated_region, base / pi1, 0.0)
    else:
        dens = np.where(~treated_region, base / (1.0 - pi1), 0.0)
    return np.column_stack([grid, dens])


@dataclass(frozen=True)
class McRow:
    """Summary for one (estimator, estimand) cell of a Monte Carlo run.

    `failures` names the cause of each failed replicate: (exception class
    name, count) pairs, sorted by name, whose counts sum to `n_failed`.
    """

    estimator: str
    estimand: EstimandSpec
    mean_estimate: float
    bias: float
    mean_est_se: float
    sim_se: float
    n_failed: int
    failures: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        return {**asdict(self), "estimand": self.estimand.key}


@dataclass(frozen=True)
class McResult:
    """All cells for one sample size."""

    n: int
    replicates: int
    seed: int
    rows: tuple[McRow, ...]

    def row(self, estimator: str, estimand: EstimandSpec) -> McRow:
        for r in self.rows:
            if r.estimator == estimator and r.estimand.key == estimand.key:
                return r
        raise KeyError(f"no cell for {estimator}/{estimand.key}")

    def to_dict(self) -> dict:
        return {**asdict(self), "rows": [r.to_dict() for r in self.rows]}


def _chunk_worker(task) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The Monte Carlo replicates `reps` of one sample size; returns per
    estimator the (reps, E) points and SEs per row of `contrasts`, NaN where
    the estimator stopped, and per replicate the name of the EstimationError
    class that stopped it, or "".

    Replicate `rep` draws from default_rng([seed, n, rep]), as `sample_dgp`
    does, and its ipw bootstrap continues that stream. The samples are drawn
    and grouped into cells in blocks of at most `_BLOCK_UNITS` units
    (`CellBatch.groups`), and every estimator runs once per group of
    replicates whose cell rows are byte-equal (`estimate_cells`): per group
    of the chunk, or of the block when a bootstrap needs the replicates'
    units, so that the units held stay within one block. So a replicate's
    numbers equal `estimate_many` on its sample, whatever chunk or block it
    is in.
    """
    spec, n, estimators, contrasts, boot, seed, reps = task
    shape = (len(reps), len(contrasts))
    out = {name: (np.full(shape, np.nan), np.full(shape, np.nan), np.full(len(reps), "", dtype=object))
           for name in estimators}
    groups: dict = {}
    per_block = max(1, _BLOCK_UNITS // n)
    for lo in range(0, len(reps), per_block):
        rngs = [np.random.default_rng([seed, n, rep]) for rep in reps[lo : lo + per_block]]
        w, _, t, y = _draw(spec, n, rngs)
        block, rows, first = CellBatch.groups(t, w, y)
        for key, (members, batch) in block.items():
            group = groups.setdefault(key, ([], [], []))
            group[0].extend(lo + i for i in members)
            group[1].append(batch)
            if boot is not None:  # the bootstrap indices continue the replicate's stream after its sample
                group[2].extend((rows[i] - first[i], y[i], replace(boot, seed=rngs[i])) for i in members)
        del rows  # frees the block's unit rows before the next block is grouped
        if boot is None and lo + per_block < len(reps):  # no units held: merge the groups over the blocks
            continue
        for members, batches, units in groups.values():
            results, _ = estimate_cells(CellBatch.stack(batches), estimators, contrasts, units)
            for est, (points, ses, stops, *_) in results.items():
                for stop in stops:
                    if stop is not None and not isinstance(stop, EstimationError):
                        raise stop
                stopped = np.array([stop is not None for stop in stops])
                points[stopped] = ses[stopped] = np.nan
                out[est][0][members], out[est][1][members] = points, ses
                out[est][2][members] = [type(stop).__name__ if stop else "" for stop in stops]
        groups.clear()
    return out


def run_monte_carlo(
    spec: DgpSpec,
    n_list: Sequence[int],
    replicates: int,
    estimators: Sequence[str],
    seed: int,
    estimands: Sequence[EstimandSpec] = (EstimandSpec("bate"), EstimandSpec("peb1")),
    boot_replicates: int = 200,
    threads: int = 1,
) -> list[McResult]:
    """Repeated-sampling study of the requested estimators.

    Per (n, estimator, estimand) cell: mean estimate, bias against the
    quadrature truth, mean estimated SE and the SD of the estimates across
    replicates. Replicates whose estimator fails (degenerate arm, separation)
    are excluded and counted by cause. The replicates of each sample size
    are split into contiguous `_chunk_worker` chunks, eight per worker
    process when `threads` > 1 (at most one process per replicate), and one
    pool runs the chunks of every sample size. Deterministic for a fixed
    seed regardless of `threads`. Every argument is checked before any work,
    the estimator names, bootstrap size and repeated sample sizes included.
    """
    for name, value in [("replicates", replicates), ("seed", seed), ("threads", threads), *(("n", n) for n in n_list)]:
        check_integer(name, value)
    if replicates < 2:
        raise ValidationError(f"replicates must be >= 2, got {replicates}")
    seeded_rng("seed", seed)
    if any(n < 1 for n in n_list):
        raise ValidationError(f"every sample size must be >= 1, got {list(n_list)}")
    for i, n in enumerate(n_list):
        if n in n_list[:i]:  # its replicates would be the same draws, run twice
            raise ValidationError(f"sample size {n} is named more than once")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    contrasts = check_estimate_args(estimators, estimands, 0.95)  # the level estimate_many reports at
    boot = BootstrapConfig(boot_replicates) if "ipw" in estimators else None
    truth = _truth(spec) if isinstance(spec.outcome_fn, Hashable) else truth_oracle(spec)
    threads = min(threads, replicates)  # a pool starts all its workers at the first task

    chunks = 1 if threads == 1 else min(replicates, 8 * threads)  # several per worker, for balance
    bounds = [replicates * i // chunks for i in range(chunks + 1)]
    tasks = [
        (spec, int(n), estimators, contrasts, boot, int(seed), range(lo, hi))
        for n in n_list
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outputs = list(pool.map(_chunk_worker, tasks))
    else:
        outputs = [_chunk_worker(task) for task in tasks]

    results = []
    for i, n in enumerate(n_list):
        rows = []
        for est in estimators:
            points, ses, stops = map(np.concatenate, zip(*(o[est] for o in outputs[i * chunks : (i + 1) * chunks])))
            kept = stops == ""
            n_failed = replicates - int(kept.sum())
            failures = tuple(sorted(Counter(stops[~kept]).items()))
            for j, e in enumerate(estimands):
                p, s = points[kept, j], ses[kept, j]
                if p.size >= 2:
                    stats = p.mean(), p.mean() - truth.value(e), s.mean(), p.std(ddof=1)
                else:  # fewer than two replicates delivered by this estimator
                    stats = (np.nan,) * 4
                rows.append(McRow(est, e, *map(float, stats), n_failed, failures))
        results.append(McResult(n=int(n), replicates=replicates, seed=int(seed), rows=tuple(rows)))
    return results


def mc_table(
    results: Sequence[McResult], estimators: Sequence[str], estimands: Sequence[EstimandSpec]
) -> tuple[list[str], list[list]]:
    """Header and rows of the Monte Carlo table: one row per (estimand, n), then
    the mean estimate, bias, mean est SE and sim SE of each estimator."""
    header = ["estimand", "n"]
    for est in estimators:
        header += [f"{est}_estimate", f"{est}_bias", f"{est}_est_se", f"{est}_sim_se"]
    rows = []
    for e in estimands:
        for res in results:
            row = [e.key, res.n]
            for est in estimators:
                cell = res.row(est, e)
                row += [cell.mean_estimate, cell.bias, cell.mean_est_se, cell.sim_se]
            rows.append(row)
    return header, rows


def mc_results_to_csv(
    results: Sequence[McResult],
    estimators: Sequence[str],
    estimands: Sequence[EstimandSpec] = (EstimandSpec("bate"), EstimandSpec("peb1")),
) -> str:
    """`mc_table` as CSV text, floats at full precision."""
    return csv_text(*mc_table(results, estimators, estimands))
