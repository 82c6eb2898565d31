"""Command line front end: estimate, simulate, truth and densities subcommands."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import (
    BinarizationRule,
    Direction,
    EstimandSpec,
    EstimationError,
    ValidationError,
    csv_text,
    load_csv,
)
from .estimators import BootstrapConfig, check_estimate_args, estimate_many
from .simulation import (
    DgpSpec,
    density_curve,
    mc_results_to_csv,
    mc_table,
    run_monte_carlo,
    truth_oracle,
)

SEED_ENV_VAR = "BINEFFECT_SEED"

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ESTIMATION = 2


class _Parser(argparse.ArgumentParser):
    # flag mistakes are validation errors, exit code 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _seed(args: argparse.Namespace) -> int:
    """--seed, else the BINEFFECT_SEED environment variable, else 0."""
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValidationError(f"--seed (or {SEED_ENV_VAR}) must be non-negative, got {seed}")
    return seed


# one --flag per numeric DgpSpec field, with the field's default
_DGP_FIELDS = [f for f in fields(DgpSpec) if f.name != "outcome_fn"]


def _dgp_from_args(args: argparse.Namespace) -> DgpSpec:
    return DgpSpec(**{f.name: getattr(args, f.name) for f in _DGP_FIELDS})


def _add_dgp_flags(sub: argparse.ArgumentParser) -> None:
    for f in _DGP_FIELDS:
        sub.add_argument("--" + f.name.replace("_", "-"), type=float, default=f.default)


def _check_output_path(path: str | None) -> None:
    """Fail before any work when --output cannot be written as a file."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ValidationError(f"--output {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ValidationError(f"--output {path}: directory {Path(path).parent} does not exist")


def _json_text(payload) -> str:
    """Indented JSON with null for every non-finite float, since RFC 8259
    has no NaN or Infinity token."""

    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    table = [header, *rows]
    widths = [max(len(r[j]) for r in table) for j in range(len(header))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(r, widths)) for r in table]
    return "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> str:
    if args.estimand == "peb" and args.arm is None:
        raise ValidationError("--estimand peb requires --arm 0 or --arm 1")
    if args.estimand == "bate" and args.arm is not None:
        raise ValidationError("--arm applies only to --estimand peb")
    seed = _seed(args)
    estimators = args.estimator.split(",")
    rule = None
    if args.cutoff is not None:
        rule = BinarizationRule(args.cutoff, Direction(args.direction))
    boot = None
    if "ipw" in estimators:
        boot = BootstrapConfig(replicates=args.boot_reps, seed=seed, ci_method=args.boot_ci)
    estimand = EstimandSpec("bate" if args.estimand == "bate" else f"peb{args.arm}")
    check_estimate_args(estimators, [estimand], args.ci_level)  # every argument is checked before the file is read
    data = load_csv(args.input, rule)
    reports = estimate_many(data, estimators, [estimand], boot=boot, ci_level=args.ci_level, seed=seed)

    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        return _json_text(payload[0] if len(payload) == 1 else payload)
    if args.format == "csv":
        header = "estimand,arm,estimator,point,se,ci_low,ci_high,ci_level,n,seed,warnings".split(",")
        rows = [
            [r.estimand.kind, r.estimand.arm, r.estimator, r.point, r.se, *r.ci,
             r.ci_level, r.n, r.seed, ";".join(r.diagnostics)]
            for r in reports
        ]
        return csv_text(header, rows)
    header = ["estimand", "estimator", "point", "se", "ci_low", "ci_high", "n"]
    rows = [
        [r.estimand.key, r.estimator, _sig6(r.point), _sig6(r.se), _sig6(r.ci[0]), _sig6(r.ci[1]), str(r.n)]
        for r in reports
    ]
    notes = [f"note ({r.estimator}): {note}\n" for r in reports for note in r.diagnostics]
    return _text_table(header, rows) + "".join(notes)


def cmd_truth(args: argparse.Namespace) -> str:
    truth = truth_oracle(_dgp_from_args(args)).to_dict()
    if args.format == "json":
        return _json_text(truth)
    if args.format == "csv":
        return csv_text(list(truth), [list(truth.values())])
    return _text_table(["quantity", "value"], [[k, _sig6(v)] for k, v in truth.items()])


def cmd_simulate(args: argparse.Namespace) -> str:
    spec = _dgp_from_args(args)
    sizes = args.n.split(",")
    if not all(v.strip().isdecimal() and int(v) > 0 for v in sizes):
        raise ValidationError(f"--n must be comma separated positive integers, got {args.n!r}")
    n_list = [int(v) for v in sizes]
    estimators = args.estimators.split(",")
    estimands = [EstimandSpec(k) for k in args.estimands.split(",")]
    seed = _seed(args)
    results = run_monte_carlo(
        spec,
        n_list,
        args.reps,
        estimators,
        seed,
        estimands=estimands,
        boot_replicates=args.boot_reps,
        threads=args.threads,
    )
    if args.format == "json":
        return _json_text([r.to_dict() for r in results])
    if args.format == "csv":
        return mc_results_to_csv(results, estimators, estimands)
    truth = truth_oracle(spec)
    header, rows = mc_table(results, estimators, estimands)
    blocks = []
    for e in estimands:
        cells = [[str(n), *map(_sig6, values)] for key, n, *values in rows if key == e.key]
        blocks.append(f"estimand: {e.key} (truth {_sig6(truth.value(e))})\n" + _text_table(header[1:], cells))
    return "\n".join(blocks)


def cmd_densities(args: argparse.Namespace) -> str:
    spec = _dgp_from_args(args)
    try:
        start, stop, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        raise ValidationError(
            f"--grid must look like start:stop:step, got {args.grid!r}"
        ) from None
    if not np.isfinite([start, stop, step]).all():
        raise ValidationError(f"--grid start, stop and step must be finite, got {args.grid!r}")
    if step <= 0:
        raise ValidationError("--grid step must be positive")
    try:
        grid = np.arange(start, stop + step / 2.0, step)
    except (ValueError, MemoryError):
        raise ValidationError(f"--grid {args.grid!r} has too many points") from None
    curve = density_curve(spec, args.arm, args.w, grid)
    if args.format == "json":
        points = [[a, d] for a, d in curve]
        return _json_text({"arm": args.arm, "w": args.w, "points": points})
    return csv_text(["a", "density"], curve.tolist())


def build_parser() -> _Parser:
    parser = _Parser(prog="bineffect", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    est = sub.add_parser("estimate", help="estimate from a CSV file")
    est.add_argument("--input", required=True, help="CSV with columns y, t or a, w1..wp")
    est.add_argument("--cutoff", type=float, default=None, help="cutoff for a continuous 'a' column")
    est.add_argument("--direction", choices=["geq", "lt"], default="geq")
    est.add_argument("--estimator", default="aipw", help="comma separated subset of reg,ipw,aipw,tmle")
    est.add_argument("--estimand", choices=["bate", "peb"], default="bate")
    est.add_argument("--arm", type=int, choices=[0, 1], default=None)
    est.add_argument("--ci-level", type=float, default=0.95)
    est.add_argument("--boot-reps", type=int, default=1000)
    est.add_argument("--boot-ci", choices=["normal", "percentile"], default="normal")
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--output", default=None)
    est.add_argument("--format", choices=["json", "csv", "text-table"], default="json")

    tru = sub.add_parser("truth", help="print exact estimand values for the generating process")
    _add_dgp_flags(tru)
    tru.add_argument("--output", default=None)
    tru.add_argument("--format", choices=["json", "csv", "text-table"], default="json")

    sim = sub.add_parser("simulate", help="repeated-sampling study over the generating process")
    _add_dgp_flags(sim)
    sim.add_argument("--n", default="150,300,500", help="comma separated sample sizes")
    sim.add_argument("--reps", type=int, default=2000)
    sim.add_argument("--estimators", default="reg,ipw")
    sim.add_argument("--estimands", default="bate,peb1", help="subset of bate,peb1,peb0")
    sim.add_argument("--boot-reps", type=int, default=200, help="bootstrap size inside each replicate")
    sim.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--output", default=None)
    sim.add_argument("--format", choices=["json", "csv", "text-table"], default="csv")

    den = sub.add_parser("densities", help="treatment density curves for external plotting")
    _add_dgp_flags(den)
    den.add_argument("--arm", default="tilde1", help="status_quo, tilde1 or tilde0")
    den.add_argument("--w", type=int, choices=[0, 1], required=True)
    den.add_argument("--grid", default="0:14:0.01", help="start:stop:step")
    den.add_argument("--output", default=None)
    den.add_argument("--format", choices=["json", "csv"], default="csv")

    return parser


_COMMANDS = {
    "estimate": cmd_estimate,
    "truth": cmd_truth,
    "simulate": cmd_simulate,
    "densities": cmd_densities,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output_path(args.output)
        text = _COMMANDS[args.subcommand](args)
        if args.output is None:
            sys.stdout.write(text)
        else:
            Path(args.output).write_text(text, encoding="utf-8", newline="\n")
        return EXIT_OK
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
