"""Command line front end: estimate, simulate, truth and densities subcommands."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    BinarizationRule,
    CsvSchema,
    Direction,
    EstimandSpec,
    EstimationError,
    ValidationError,
    load_csv,
)
from .estimators import BootstrapConfig, check_estimate_args, estimate_many
from .simulation import (
    DgpSpec,
    density_curve,
    mc_results_to_csv,
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


def _dgp_from_args(args: argparse.Namespace) -> DgpSpec:
    return DgpSpec(
        w_prob=args.w_prob,
        a_mean_base=args.a_mean_base,
        a_mean_slope=args.a_mean_slope,
        a_sd=args.a_sd,
        noise_sd=args.noise_sd,
        cutoff=args.cutoff,
    )


def _add_dgp_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cutoff", type=float, default=6.0, help="binarization cutoff")
    sub.add_argument("--w-prob", type=float, default=0.5)
    sub.add_argument("--a-mean-base", type=float, default=5.0)
    sub.add_argument("--a-mean-slope", type=float, default=2.0)
    sub.add_argument("--a-sd", type=float, default=1.0)
    sub.add_argument("--noise-sd", type=float, default=1.0)


def _check_output_path(path: str | None) -> None:
    """Fail before any work when --output cannot be written as a file."""
    if path is None:
        return
    if Path(path).is_dir():
        raise ValidationError(f"--output {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ValidationError(f"--output {path}: directory {Path(path).parent} does not exist")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header line; floats written as their repr, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    return buf.getvalue()


def _sig6(x: float) -> str:
    return f"{x:.6g}"


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[j]) for r in rows)) if rows else len(h) for j, h in enumerate(header)]
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(header))]
    for r in rows:
        lines.append("  ".join(r[j].ljust(widths[j]) for j in range(len(header))))
    return "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.estimand == "peb" and args.arm is None:
        raise ValidationError("--estimand peb requires --arm 0 or --arm 1")
    seed = _seed(args)
    estimators = args.estimator.split(",")
    rule = None
    if args.cutoff is not None:
        rule = BinarizationRule(args.cutoff, Direction(args.direction))
    boot = None
    if "ipw" in estimators:
        boot = BootstrapConfig(replicates=args.boot_reps, seed=seed, ci_method=args.boot_ci)
    check_estimate_args(estimators, args.ci_level)  # every argument is checked before the file is read
    estimand = (
        EstimandSpec.bate() if args.estimand == "bate" else EstimandSpec.peb(args.arm)
    )
    data = load_csv(args.input, CsvSchema(rule=rule))
    reports = estimate_many(data, estimators, [estimand], boot=boot, ci_level=args.ci_level, seed=seed)

    if args.format == "json":
        payload = [r.to_dict() for r in reports]
        text = json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n"
    elif args.format == "csv":
        header = "estimand,arm,estimator,point,se,ci_low,ci_high,ci_level,n,seed,warnings".split(",")
        rows = [
            [r.estimand.kind.value, r.estimand.arm, r.estimator, r.point, r.se, *r.ci,
             r.ci_level, r.n, r.seed, ";".join(r.diagnostics)]
            for r in reports
        ]
        text = _csv_text(header, rows)
    else:
        header = ["estimand", "estimator", "point", "se", "ci_low", "ci_high", "n"]
        rows = [
            [r.estimand.key, r.estimator, _sig6(r.point), _sig6(r.se), _sig6(r.ci[0]), _sig6(r.ci[1]), str(r.n)]
            for r in reports
        ]
        text = _text_table(header, rows)
        for r in reports:
            for note in r.diagnostics:
                text += f"note ({r.estimator}): {note}\n"
    _write_output(text, args.output)
    return EXIT_OK


def cmd_truth(args: argparse.Namespace) -> int:
    report = truth_oracle(_dgp_from_args(args))
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif args.format == "csv":
        d = report.to_dict()
        text = _csv_text(list(d), [list(d.values())])
    else:
        rows = [[k, _sig6(v)] for k, v in report.to_dict().items()]
        text = _text_table(["quantity", "value"], rows)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _dgp_from_args(args)
    sizes = args.n.split(",")
    if not all(v.strip().isdecimal() and int(v) > 0 for v in sizes):
        raise ValidationError(f"--n must be comma separated positive integers, got {args.n!r}")
    n_list = [int(v) for v in sizes]
    estimators = args.estimators.split(",")
    estimands = [EstimandSpec.from_key(k) for k in args.estimands.split(",")]
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
        text = json.dumps([r.to_dict() for r in results], indent=2) + "\n"
    elif args.format == "text-table":
        truth = truth_oracle(spec)
        blocks = []
        for e in estimands:
            header = ["n"]
            for est in estimators:
                header += [f"{est}_estimate", f"{est}_bias", f"{est}_est_se", f"{est}_sim_se"]
            rows = []
            for res in results:
                row = [str(res.n)]
                for est in estimators:
                    cell = res.row(est, e)
                    row += [_sig6(cell.mean_estimate), _sig6(cell.bias), _sig6(cell.mean_est_se), _sig6(cell.sim_se)]
                rows.append(row)
            blocks.append(
                f"estimand: {e.key} (truth {_sig6(truth.value(e))})\n" + _text_table(header, rows)
            )
        text = "\n".join(blocks)
    else:
        text = mc_results_to_csv(results, estimators, estimands)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_densities(args: argparse.Namespace) -> int:
    spec = _dgp_from_args(args)
    try:
        start, stop, step = (float(v) for v in args.grid.split(":"))
    except ValueError:
        raise ValidationError(
            f"--grid must look like start:stop:step, got {args.grid!r}"
        ) from None
    if step <= 0:
        raise ValidationError("--grid step must be positive")
    grid = np.arange(start, stop + step / 2.0, step)
    curve = density_curve(spec, args.arm, args.w, grid)
    if args.format == "json":
        text = json.dumps(
            {"arm": args.arm, "w": args.w, "points": [[a, d] for a, d in curve]}, indent=2
        ) + "\n"
    else:
        text = _csv_text(["a", "density"], curve.tolist())
    _write_output(text, args.output)
    return EXIT_OK


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
        return _COMMANDS[args.subcommand](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
