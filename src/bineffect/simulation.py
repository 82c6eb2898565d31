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
from scipy import special

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
    `outcome_fn` acts unit by unit: it is called on scalars by the truth
    oracle and on a block of samples' units at once by the draws.
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
        return float(special.ndtr(-((self.cutoff - self.a_mean(w)) / self.a_sd)))


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


def truth_oracle(spec: DgpSpec) -> TruthReport:
    """Estimand values by adaptive quadrature over each covariate stratum.

    For each w, the conditional mean outcome is integrated against the
    treatment density over the cutoff region (renormalized by the region
    probability) and over the full line. Target absolute error 1e-4.
    """
    from scipy import integrate  # imported here so that `import bineffect` does not load it

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

        def integrand(a: float, _w: float = w) -> float:
            z = (a - m) / sd  # the normal density as scipy.stats.norm.pdf computes it
            density = math.exp(-z * z / 2.0) / _SQRT_2PI / sd
            return float(spec.outcome_fn(np.float64(a), np.float64(_w))) * density

        lo, hi = m - _TAIL_SDS * sd, m + _TAIL_SDS * sd
        pieces = {}
        for name, (left, right) in {
            "upper": (max(spec.cutoff, lo), hi),
            "lower": (lo, min(spec.cutoff, hi)),
        }.items():
            if left < right:
                val, abserr = integrate.quad(integrand, left, right, limit=200)
            else:
                val, abserr = 0.0, 0.0
            if abserr > _QUAD_TARGET:
                raise QuadratureError(
                    f"quadrature error {abserr:.3g} over [{left:g}, {right:g}] (w={w:g}) "
                    f"exceeds the {_QUAD_TARGET:g} target"
                )
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
    z = (grid - spec.a_mean(w)) / spec.a_sd  # the normal density as scipy.stats.norm.pdf computes it
    base = np.exp(-z**2 / 2.0) / _SQRT_2PI / spec.a_sd
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


def _chunk_worker(task) -> list[dict]:
    """The Monte Carlo replicates `reps` of one sample size; returns per
    replicate {(estimator, estimand key): (point, se), or the name of the
    EstimationError class that stopped the estimator}.

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
    spec, n, estimators, estimands, boot, seed, reps = task
    contrasts = np.reshape([e.contrast for e in estimands], (-1, 3))
    outcomes: list[dict] = [{} for _ in reps]
    groups: dict = {}
    per_block = max(1, _BLOCK_UNITS // n)
    for lo in range(0, len(reps), per_block):
        rngs = [np.random.default_rng([seed, n, rep]) for rep in reps[lo : lo + per_block]]
        w, _, t, y = _draw(spec, n, rngs)
        block, rows, first = CellBatch.groups(t, w, y)
        for key, (members, batch) in block.items():
            group = groups.setdefault(key, ([], [], []))
            group[0].extend(outcomes[lo + i] for i in members)
            group[1].append(batch)
            if boot is not None:  # the bootstrap indices continue the replicate's stream after its sample
                group[2].extend((rows[i] - first[i], y[i], replace(boot, seed=rngs[i])) for i in members)
        del rows  # frees the block's unit rows before the next block is grouped
        if boot is None and lo + per_block < len(reps):  # no units held: merge the groups over the blocks
            continue
        for members, batches, units in groups.values():
            results, _ = estimate_cells(CellBatch.stack(batches), estimators, contrasts, units)
            for est, (points, ses, stops, *_) in results.items():
                for out, row_points, row_ses, stop in zip(members, points, ses, stops):
                    if stop is not None and not isinstance(stop, EstimationError):
                        raise stop
                    for e, point, se in zip(estimands, row_points, row_ses):
                        out[(est, e.key)] = type(stop).__name__ if stop else (float(point), float(se))
        groups.clear()
    return outcomes


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
    process when `threads` > 1 (at most one process per replicate).
    Deterministic for a fixed seed regardless of `threads`. Every argument
    is checked before any work, the estimator names and bootstrap size
    included.
    """
    for name, value in [("replicates", replicates), ("seed", seed), ("threads", threads), *(("n", n) for n in n_list)]:
        check_integer(name, value)
    if replicates < 2:
        raise ValidationError(f"replicates must be >= 2, got {replicates}")
    seeded_rng("seed", seed)
    if any(n < 1 for n in n_list):
        raise ValidationError(f"every sample size must be >= 1, got {list(n_list)}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    check_estimate_args(estimators, estimands, 0.95)  # the level estimate_many reports at
    boot = BootstrapConfig(boot_replicates) if "ipw" in estimators else None
    truth = _truth(spec) if isinstance(spec.outcome_fn, Hashable) else truth_oracle(spec)
    threads = min(threads, replicates)  # a pool starts all its workers at the first task

    results = []
    for n in n_list:
        chunks = 1 if threads == 1 else min(replicates, 8 * threads)  # several per worker, for balance
        bounds = [replicates * i // chunks for i in range(chunks + 1)]
        tasks = [
            (spec, int(n), estimators, estimands, boot, int(seed), range(lo, hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                outcomes = [o for chunk in pool.map(_chunk_worker, tasks) for o in chunk]
        else:
            outcomes = _chunk_worker(tasks[0])

        rows = []
        for est in estimators:
            for e in estimands:
                values = [o[(est, e.key)] for o in outcomes]
                cells = [v for v in values if not isinstance(v, str)]
                n_failed = replicates - len(cells)
                failures = tuple(sorted(Counter(v for v in values if isinstance(v, str)).items()))
                points = np.array([c[0] for c in cells])
                ses = np.array([c[1] for c in cells])
                if len(cells) >= 2:
                    mean_est = float(points.mean())
                    row = McRow(
                        estimator=est,
                        estimand=e,
                        mean_estimate=mean_est,
                        bias=float(mean_est - truth.value(e)),
                        mean_est_se=float(ses.mean()),
                        sim_se=float(points.std(ddof=1)),
                        n_failed=n_failed,
                        failures=failures,
                    )
                else:  # every replicate failed for this estimator
                    nan = float("nan")
                    row = McRow(est, e, nan, nan, nan, nan, n_failed, failures)
                rows.append(row)
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
