#!/usr/bin/env python3
"""Benchmark of bineffect: Monte Carlo tables and CSV estimation.

Run from the repository root:

    python3 bench/run.py --workload mc_paper --seed 1 --seconds 20 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced batches and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
carry provenance and detail. Workloads, metrics and the layer map are
described in bench/README.md.
"""

import os

# one BLAS thread, set before numpy is imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LayerTotals, Tracer, summarize  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "bineffect"
SETUP_REPS = 3
# Time of reference_kernel_s() on the 2-core Xeon host of bench/baseline.json;
# host speed drifts by up to 2x there, so throughput is reported per
# reference second.
REFERENCE_S = 0.040
IMPORT_PROBE = "import time; t = time.perf_counter(); import bineffect; print(time.perf_counter() - t)"

END_TO_END = {"cells_per_ref_s": "1/ref_s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "core.load_csv.self_s": "s",
    "core.load_csv.rows_per_s": "1/s",
    "core.subset.calls": "count",
    "core.subset.self_s": "s",
    "core.positivity_diagnostic.self_s": "s",
    "core.positivity_diagnostic.flagged": "count",
    "nuisance.fit_logistic.calls": "count",
    "nuisance.fit_logistic.self_s": "s",
    "nuisance.fit_logistic.us_per_call": "us",
    "nuisance.fit_logistic.failed": "count",
    "nuisance.fit_ols_interacted.self_s": "s",
    "estimators.sandwich_variance.self_s": "s",
    "estimators.bootstrap.self_s": "s",
    "estimators.bootstrap.useful_ratio": "ratio",
    "estimators.estimate_aipw.self_s": "s",
    "estimators.estimate_tmle.self_s": "s",
    "estimators.tmle_update.self_s": "s",
    "simulation.sample_dgp.self_s": "s",
    "simulation.truth_oracle.self_s": "s",
    "simulation.glue.self_s": "s",
    "simulation.replicate_ms_p50": "ms",
    "simulation.replicate_ms_p90": "ms",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "frac",
    "trace.batches": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["mc_paper", "mc_analytic", "csv_overlap"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed pass runs")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def git_sha():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def import_seconds():
    """Time `import bineffect` in a child interpreter (this process has numpy loaded)."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def provenance(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "mc_threads": 1,
        "git_sha": git_sha(),
    }


def upper_percentile(values):
    """(q, value) for the highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    q = int(100 * (1 - 10 / len(values)))
    return q, statistics.quantiles(values, n=100)[q - 1]


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def reference_kernel_s():
    """Time a fixed computation outside bineffect, to gauge the host's current
    speed. Its three parts take about equal time and stand for the package's
    kinds of work: small least-squares solves as in IRLS, vector maths on
    1e5-scale arrays, and interpreted number formatting and parsing."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, y = rng.random((300, 2)), rng.random(300)
    u, v = rng.random(200_000), rng.random(200_000)
    start = time.perf_counter()
    for _ in range(500):
        np.linalg.solve(x.T @ (x * y[:, None]), x.T @ y)
    for _ in range(8):
        float((np.exp(u) * v).sum())
    for i in range(20_000):
        float(f"{i * 0.37:.6g}")
    return time.perf_counter() - start


def measure(workload, seconds, tracer=None):
    """Run batches until `seconds` pass; the reference kernel runs between
    batches. Returns the untraced batches, each with the mean of the two
    reference times around it, and the traced ones as (batch, per-span
    totals, sample_dgp intervals); with a tracer, odd batches are traced."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    ref_before = reference_kernel_s()
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() < deadline:
        if tracer is not None and i % 2:
            with tracer.installed():
                batch = workload.run_batch(i)
            traced.append((batch, *summarize(tracer.spans)))
        else:
            batch = workload.run_batch(i)
            ref_after = reference_kernel_s()
            untraced.append((batch, (ref_before + ref_after) / 2))
            ref_before = ref_after
        i += 1
    return untraced, traced


def batch_rate(batch):
    return sum(op.cells - op.failed for op in batch.ops) / sum(op.seconds for op in batch.ops)


def layer_values(workload, batch, totals):
    """Per-layer metrics of one traced batch."""
    def t(name):
        return totals.get(name, LayerTotals())

    load, subset, logit, boot = t("core.load_csv"), t("core.subset"), t("nuisance.fit_logistic"), t("estimators.bootstrap")
    accepted = (boot.calls - boot.failed) * workload.bootstrap_resamples
    return {
        "core.load_csv.self_s": load.self_s,
        "core.load_csv.rows_per_s": load.count / load.dur_s if load.dur_s else 0.0,
        "core.subset.calls": subset.calls,
        "core.subset.self_s": subset.self_s,
        "core.positivity_diagnostic.self_s": t("core.positivity_diagnostic").self_s,
        "core.positivity_diagnostic.flagged": t("core.positivity_diagnostic").count,
        "nuisance.fit_logistic.calls": logit.calls,
        "nuisance.fit_logistic.self_s": logit.self_s,
        "nuisance.fit_logistic.us_per_call": 1e6 * logit.dur_s / logit.calls if logit.calls else 0.0,
        "nuisance.fit_logistic.failed": logit.failed,
        "nuisance.fit_ols_interacted.self_s": t("nuisance.fit_ols_interacted").self_s,
        "estimators.sandwich_variance.self_s": t("estimators.sandwich_variance").self_s,
        "estimators.bootstrap.self_s": boot.self_s,
        "estimators.bootstrap.useful_ratio": accepted / subset.calls if subset.calls else 0.0,
        "estimators.estimate_aipw.self_s": t("estimators.estimate_aipw").self_s,
        "estimators.estimate_tmle.self_s": t("estimators.estimate_tmle").self_s,
        "estimators.tmle_update.self_s": t("estimators.tmle_update").self_s,
        "simulation.sample_dgp.self_s": t("simulation.sample_dgp").self_s,
        "simulation.truth_oracle.self_s": t("simulation.truth_oracle").self_s,
        "simulation.glue.self_s": t("simulation.run_monte_carlo").self_s,
        "cli.main.self_s": t("cli.main").self_s,
        "cli.output_bytes": batch.output_bytes,
    }


def per_layer_metrics(workload, untraced, traced):
    """Median over traced batches of each layer value, plus the pooled
    replicate intervals and the tracing overhead."""
    rows = [layer_values(workload, batch, totals) for batch, totals, _ in traced]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    intervals = [ms for _, _, iv in traced for ms in iv]
    metrics["simulation.replicate_ms_p50"] = statistics.median(intervals) if intervals else 0.0
    metrics["simulation.replicate_ms_p90"] = (
        statistics.quantiles(intervals, n=10)[8] if len(intervals) >= 2 else 0.0
    )
    traced_rate = statistics.median(batch_rate(b) for b, _, _ in traced)
    metrics["trace.overhead_frac"] = 1.0 - traced_rate / statistics.median(batch_rate(b) for b, _ in untraced)
    metrics["trace.batches"] = len(traced)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: the bineffect sources are missing ({PACKAGE})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    start = time.perf_counter()
    import bineffect

    import_s = [time.perf_counter() - start]
    if Path(bineffect.__file__).resolve().parent != PACKAGE:
        print(f"bench: imported bineffect from {bineffect.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import workloads

    workdir = BENCH / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        setup_reps = SETUP_REPS if args.trace == 0 else 1
        setup_s = []
        for _ in range(setup_reps):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if args.trace == 0:
            import_s += [import_seconds() for _ in range(SETUP_REPS - 1)]
        untraced, traced = measure(workload, args.seconds, Tracer() if args.trace else None)
        late_failures = workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    batches = [b for b, _ in untraced] + [b for b, _, _ in traced]
    attempted = sum(op.cells for b in batches for op in b.ops)
    failed = sum(op.failed for b in batches for op in b.ops) + late_failures
    if args.trace:
        values = per_layer_metrics(workload, untraced, traced)
        units = PER_LAYER
    else:
        ops = [op for b, _ in untraced for op in b.ops]
        op_seconds = [op.seconds for op in ops]
        delivered = sum(op.cells - op.failed for op in ops)
        ref_scaled_s = sum(sum(op.seconds for op in b.ops) * REFERENCE_S / ref for b, ref in untraced)
        detail = {
            "cells_per_s": delivered / sum(op_seconds),
            "failed_frac": failed / attempted,
            "ops": len(ops),
            "op_s_quartiles": quartiles(op_seconds),
            "op_s_upper_percentile": upper_percentile(op_seconds),
            "cells_per_s_quartiles": quartiles([(op.cells - op.failed) / op.seconds for op in ops]),
            "reference_kernel_s_quartiles": quartiles([ref for _, ref in untraced]),
            "import_s": import_s,
            "setup_rest_s": setup_s,
        }
        values = {
            "cells_per_ref_s": delivered / ref_scaled_s,
            "setup_s": statistics.median(import_s) + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        print(json.dumps({"detail": detail}))
    prov = provenance(args)
    prov["mc_table_sha256"] = getattr(workload, "table_digest", None)
    print(json.dumps({"provenance": prov}))
    for message in workload.errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not workload.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
