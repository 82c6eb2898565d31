"""The benchmark's workloads: set-up, one timed batch, and the output checks.

A batch is a fixed amount of work: one `run_monte_carlo` call for the Monte
Carlo workloads, and one `bate` plus one `peb --arm 1` CLI call for
`csv_overlap`. Each timed call into the package is an `Op`; checks run after
the clock stops. A cell is one (estimator, estimand) result; it fails when
the package reports it failed or when it fails a check here.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bineffect import DgpSpec, EstimandSpec, cli, mc_results_to_csv, save_csv, simulation

BIAS_SDS = 5.0    # |pooled bias| must stay within this many Monte Carlo SEs
Z_LIMIT = 5.0     # |point - truth| / se limit for single CSV estimates
AGREE_RTOL = 1e-8  # saturated binary-w identity: all four points coincide


def batch_seed(seed: int, i: int) -> int:
    """Seed of batch `i`, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Op:
    """One timed call into the package."""

    cells: int
    failed: int
    seconds: float


@dataclass
class Batch:
    ops: list[Op]
    output_bytes: int = 0


class MonteCarlo:
    """`run_monte_carlo` with threads=1 on the paper's generating process."""

    def __init__(self, seed, n_list, reps, estimators, estimands, boot_reps):
        self.spec = DgpSpec()
        self.seed = seed
        self.n_list = n_list
        self.reps = reps
        self.estimators = estimators
        self.estimands = estimands
        self.boot_reps = boot_reps
        self.bootstrap_resamples = boot_reps if "ipw" in estimators else 0
        self.cells = reps * len(n_list) * len(estimators) * len(estimands)
        self.errors: list[str] = []
        self.table_digest = None
        self._reference_csv = None
        self._pooled: dict[tuple, list[float]] = {}  # cell -> [count, mean, M2]

    def setup(self) -> None:
        self.truth = simulation.truth_oracle(self.spec)
        self._check(0, self._call(0)[0], pool=False)  # untimed warm-up

    def _call(self, i: int):
        start = time.perf_counter()
        results = simulation.run_monte_carlo(
            self.spec,
            self.n_list,
            self.reps,
            self.estimators,
            batch_seed(self.seed, i),
            estimands=self.estimands,
            boot_replicates=self.boot_reps,
            threads=1,
        )
        return results, time.perf_counter() - start

    def run_batch(self, i: int) -> Batch:
        results, seconds = self._call(i)
        return Batch([Op(self.cells, self._check(i, results), seconds)])

    def _check(self, i: int, results, pool: bool = True) -> int:
        if i == 0:  # batch 0 repeats the warm-up seed: the table must not change
            text = mc_results_to_csv(results, self.estimators, self.estimands)
            if self._reference_csv is None:
                self._reference_csv = text
                self.table_digest = hashlib.sha256(text.encode()).hexdigest()
            elif text != self._reference_csv:
                self.errors.append("Monte Carlo CSV differs between runs of one seed")
                return self.cells
        failed = 0
        for res in results:
            for row in res.rows:
                delivered = res.replicates - row.n_failed
                failed += row.n_failed
                values = (row.mean_estimate, row.mean_est_se, row.sim_se)
                if not all(math.isfinite(v) for v in values):
                    self.errors.append(f"n={res.n} {row.estimator}/{row.estimand.key}: non-finite cell")
                    failed += delivered
                elif pool and delivered >= 2:
                    self._pool((res.n, row.estimator, row.estimand.key), delivered, row)
        return failed

    def _pool(self, key, count, row) -> None:
        """Merge one batch's mean and SD into the running totals (Chan et al.)."""
        m2 = row.sim_se**2 * (count - 1)
        acc = self._pooled.setdefault(key, [0, 0.0, 0.0])
        total = acc[0] + count
        delta = row.mean_estimate - acc[1]
        acc[1] += delta * count / total
        acc[2] += m2 + delta**2 * acc[0] * count / total
        acc[0] = total

    def finish(self) -> int:
        """Bias check on the replicates pooled over all batches; returns failed cells."""
        failed = 0
        for (n, est, key), (count, mean, m2) in self._pooled.items():
            sd = math.sqrt(m2 / (count - 1))
            bias = mean - self.truth.value(EstimandSpec.from_key(key))
            if abs(bias) > BIAS_SDS * sd / math.sqrt(count):
                self.errors.append(
                    f"n={n} {est}/{key}: bias {bias:.4g} exceeds {BIAS_SDS:g} MC SEs "
                    f"(sd {sd:.4g}, {count:.0f} replicates)"
                )
                failed += int(count)
        return failed


class CsvOverlap:
    """In-process `bineffect estimate` on a 1e5-row CSV with weak overlap."""

    rows = 100_000
    estimators = ("reg", "ipw", "aipw", "tmle")
    bootstrap_resamples = 20
    calls = {"bate": [], "peb1": ["--estimand", "peb", "--arm", "1"]}

    def __init__(self, seed: int, workdir: Path):
        self.spec = DgpSpec(a_mean_slope=4.0)
        self.data_seed = batch_seed(seed, 0)
        self.boot_seed = batch_seed(seed, 1)
        self.input = workdir / "input.csv"
        self.output = workdir / "report.json"
        self.errors: list[str] = []
        self._verified: dict[str, str] = {}  # estimand -> digest of a checked report

    def setup(self) -> None:
        save_csv(simulation.sample_dgp(self.spec, self.rows, self.data_seed), self.input)
        self.truth = simulation.truth_oracle(self.spec)
        self._call("bate")  # untimed warm-up

    def run_batch(self, i: int) -> Batch:
        ops, size = [], 0
        for key in self.calls:
            op, nbytes = self._call(key)
            ops.append(op)
            size += nbytes
        return Batch(ops, size)

    def _call(self, key: str) -> tuple[Op, int]:
        argv = [
            "estimate", "--input", str(self.input), "--cutoff", str(self.spec.cutoff),
            "--estimator", ",".join(self.estimators), "--boot-reps", str(self.bootstrap_resamples),
            "--seed", str(self.boot_seed), "--output", str(self.output), *self.calls[key],
        ]
        self.output.unlink(missing_ok=True)
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        body = self.output.read_bytes() if code == 0 and self.output.exists() else b""
        return Op(len(self.estimators), self._check(key, code, body), seconds), len(body)

    def _check(self, key: str, code: int, body: bytes) -> int:
        cells = len(self.estimators)
        if code != 0 or not body:
            self.errors.append(f"{key}: exit code {code}, {len(body)} bytes of output")
            return cells
        digest = hashlib.sha256(body).hexdigest()
        if key in self._verified:
            if digest == self._verified[key]:
                return 0
            self.errors.append(f"{key}: output differs between identical invocations")
            return cells
        reports = json.loads(body)
        if [r["estimator"] for r in reports] != list(self.estimators):
            self.errors.append(f"{key}: expected reports for {self.estimators}")
            return cells
        truth = self.truth.value(EstimandSpec.from_key(key))
        ref = reports[0]["point"]
        failed = 0
        for r in reports:
            point, se = r["point"], r["se"]
            problem = None
            if not (math.isfinite(point) and math.isfinite(se) and se > 0.0):
                problem = f"point {point}, se {se}"
            elif abs(point - ref) > AGREE_RTOL * abs(ref):
                problem = f"point {point!r} differs from reg's {ref!r}"
            elif abs(point - truth) > Z_LIMIT * se:
                problem = f"point {point:.6g} is {abs(point - truth) / se:.2f} SE from truth {truth:.6g}"
            if problem:
                self.errors.append(f"{key}/{r['estimator']}: {problem}")
                failed += 1
        if not failed:
            self._verified[key] = digest
        return failed

    def finish(self) -> int:
        return 0


def make(name: str, seed: int, workdir: Path):
    if name == "mc_paper":
        estimands = (EstimandSpec.bate(), EstimandSpec.peb(1))
        return MonteCarlo(seed, (150, 300, 500), 4, ("reg", "ipw"), estimands, 200)
    if name == "mc_analytic":
        estimands = (EstimandSpec.bate(), EstimandSpec.peb(1), EstimandSpec.peb(0))
        return MonteCarlo(seed, (500, 2000), 60, ("reg", "aipw", "tmle"), estimands, 200)
    if name == "csv_overlap":
        return CsvOverlap(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

