"""Synthetic data generation, exact truth values, density curves and Monte Carlo runs."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .core import (
    BinarizationRule,
    Direction,
    EstimandSpec,
    EstimationError,
    ObservationSet,
    QuadratureError,
    ValidationError,
    binarize,
    csv_text,
)
from .estimators import BootstrapConfig, Nuisances, check_estimate_args, estimate_many

_QUAD_TARGET = 1e-4     # required absolute accuracy of the truth values
_TAIL_SDS = 10.0        # integration range; mass beyond is < 1e-20
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def cubic_sine_outcome(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Default conditional mean of the outcome: a^3 + sin(a) + 100 w."""
    return a**3 + np.sin(a) + 100.0 * w


@dataclass(frozen=True)
class DgpSpec:
    """Generating process: binary covariate, conditionally normal treatment.

    w ~ Bernoulli(w_prob); a | w ~ Normal(a_mean_base + a_mean_slope * w,
    a_sd); y = outcome_fn(a, w) + Normal(0, noise_sd); t = 1(a >= cutoff).
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

    @property
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
        return {"bate": self.psi_bate, "peb1": self.psi_peb1, "peb0": self.psi_peb0}[
            estimand.key
        ]

    def to_dict(self) -> dict:
        return asdict(self)


def sample_dgp(spec: DgpSpec, n: int, seed) -> ObservationSet:
    """Draw n i.i.d. units; `seed` is anything np.random.default_rng accepts,
    or an existing Generator."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = (rng.random(n) < spec.w_prob).astype(float)
    a = rng.normal(spec.a_mean_base + spec.a_mean_slope * w, spec.a_sd)
    y = np.asarray(spec.outcome_fn(a, w), dtype=float) + rng.normal(0.0, spec.noise_sd, n)
    t = binarize(a, spec.rule)
    return ObservationSet(w=w[:, None], t=t, y=y, a=a, rule=spec.rule)


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
    """Summary for one (estimator, estimand) cell of a Monte Carlo run."""

    estimator: str
    estimand: EstimandSpec
    mean_estimate: float
    bias: float
    mean_est_se: float
    sim_se: float
    n_failed: int

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "estimand": self.estimand.key,
            "mean_estimate": self.mean_estimate,
            "bias": self.bias,
            "mean_est_se": self.mean_est_se,
            "sim_se": self.sim_se,
            "n_failed": self.n_failed,
        }


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
        return {
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "rows": [r.to_dict() for r in self.rows],
        }


def _replicate_worker(task) -> dict:
    """One Monte Carlo replicate; returns {(estimator, estimand key): (point, se)}.

    One Nuisances object serves every estimator and estimand of the
    replicate, and the IPW bootstrap reuses one set of resamples for all
    estimands. A failing estimator gives None for its cells and leaves the
    others untouched. The RNG stream is derived from (seed, n, replicate), so
    results do not depend on scheduling.
    """
    spec, n, estimators, estimands, boot, seed, rep = task
    rng = np.random.default_rng([seed, n, rep])
    data = sample_dgp(spec, n, rng)
    nuisances = Nuisances(data)
    # bootstrap indices continue the replicate's stream after the sample
    boot = None if boot is None else replace(boot, seed=rng)
    out: dict = {}
    for est in estimators:
        try:
            reports = estimate_many(data, [est], estimands, nuisances, boot)
        except EstimationError:
            reports = [None] * len(estimands)
        for e, r in zip(estimands, reports):
            out[(est, e.key)] = None if r is None else (r.point, r.se)
    return out


def run_monte_carlo(
    spec: DgpSpec,
    n_list: Sequence[int],
    replicates: int,
    estimators: Sequence[str],
    seed: int,
    estimands: Sequence[EstimandSpec] = (EstimandSpec.bate(), EstimandSpec.peb(1)),
    boot_replicates: int = 200,
    threads: int = 1,
) -> list[McResult]:
    """Repeated-sampling study of the requested estimators.

    Per (n, estimator, estimand) cell: mean estimate, bias against the
    quadrature truth, mean estimated SE and the SD of the estimates across
    replicates. Replicates whose estimator fails (degenerate arm, separation)
    are excluded and counted. `threads` worker processes share the
    replicates of each sample size, at most one process per replicate.
    Deterministic for a fixed seed regardless of `threads`. Every argument is
    checked before any work, the estimator names and bootstrap size included.
    """
    if replicates < 2:
        raise ValidationError(f"replicates must be >= 2, got {replicates}")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if any(n < 1 for n in n_list):
        raise ValidationError(f"every sample size must be >= 1, got {list(n_list)}")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    check_estimate_args(estimators, 0.95)  # the level estimate_many reports at
    boot = BootstrapConfig(boot_replicates) if "ipw" in estimators else None
    truth = truth_oracle(spec)
    threads = min(threads, replicates)  # a pool starts all its workers at the first task

    results = []
    for n in n_list:
        tasks = [
            (spec, int(n), estimators, estimands, boot, int(seed), rep)
            for rep in range(replicates)
        ]
        if threads > 1:
            chunk = max(1, replicates // (threads * 8))
            with ProcessPoolExecutor(max_workers=threads) as pool:
                outcomes = list(pool.map(_replicate_worker, tasks, chunksize=chunk))
        else:
            outcomes = [_replicate_worker(t) for t in tasks]

        rows = []
        for est in estimators:
            for e in estimands:
                cells = [o[(est, e.key)] for o in outcomes if o.get((est, e.key)) is not None]
                n_failed = replicates - len(cells)
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
                    )
                else:  # every replicate failed for this estimator
                    row = McRow(est, e, float("nan"), float("nan"), float("nan"), float("nan"), n_failed)
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
    estimands: Sequence[EstimandSpec] = (EstimandSpec.bate(), EstimandSpec.peb(1)),
) -> str:
    """`mc_table` as CSV text, floats at full precision."""
    return csv_text(*mc_table(results, estimators, estimands))
