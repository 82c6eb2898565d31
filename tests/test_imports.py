"""Module boundaries inside the package."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bineffect
from bineffect import estimators

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bineffect"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_another_modules_private_names(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("bineffect"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{module} imports private names {private}"


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in PACKAGE.glob("*.py") if p.name not in ("core.py", "__init__.py", "cli.py")),
)
def test_estimand_kind_is_mapped_only_in_core(module):
    """Estimators see an estimand only through `EstimandSpec.contrast`; its
    `kind` and `arm` are for reports and the CLI's CSV."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    reads = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("kind", "arm")
    ]
    assert reads == [], f"{module} reads {reads}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "core.py"))
def test_cells_are_built_only_in_core(module):
    """A sample's (t, w) cells are grouped (`block_cells`) and put in a
    `CellBatch` only in `core.py`; other modules read them through
    `ObservationSet.cells` and `CellBatch.groups`, so the two constructors
    stay side by side."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    names = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "block_cells")
        or (isinstance(node, ast.Attribute) and node.attr == "block_cells")
        or (isinstance(node, ast.alias) and node.name == "block_cells")
    ]
    built = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == "CellBatch")
             or (isinstance(node.func, ast.Attribute) and node.func.attr == "CellBatch"))
    ]
    assert names == [] and built == [], f"{module} names block_cells at {names}, builds a CellBatch at {built}"


def test_one_function_of_simulation_draws_from_a_generator():
    """`sample_dgp` and the Monte Carlo chunks draw their samples through one
    function, so the two cannot drift apart."""
    tree = ast.parse((PACKAGE / "simulation.py").read_text(encoding="utf-8"))

    def draws(node):
        return [
            call for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("random", "normal", "standard_normal")
        ]

    drawing = {node.name: len(draws(node)) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and draws(node)}
    assert len(drawing) == 1 and sum(drawing.values()) == len(draws(tree)), drawing


def test_one_function_of_estimators_draws_resamples():
    """Every bootstrap resample is drawn in `_resample_cells`, so there is
    one bootstrap: ipw's, through `estimate_cells`."""
    tree = ast.parse((PACKAGE / "estimators.py").read_text(encoding="utf-8"))

    def draws(node):
        return [
            call for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "integers"
        ]

    drawing = {node.name: len(draws(node)) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and draws(node)}
    assert list(drawing) == ["_resample_cells"] and sum(drawing.values()) == len(draws(tree)), drawing


def test_estimators_solves_no_linear_system():
    """The regression's algebra stays in `nuisance`: `ols_fits` returns the
    implied weights that reg's influence values read, so no function of
    `estimators.py` reaches for np.linalg."""
    tree = ast.parse((PACKAGE / "estimators.py").read_text(encoding="utf-8"))
    named = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "linalg")
        or (isinstance(node, ast.alias) and "linalg" in node.name.split("."))
    ]
    assert named == [], f"estimators.py names linalg at {named}"


def test_the_monte_carlo_engine_calls_only_the_batched_path():
    """The chunks run every estimator through `estimate_cells`; the
    one-sample entry point `estimate_many` is its batch of one."""
    tree = ast.parse((PACKAGE / "simulation.py").read_text(encoding="utf-8"))
    names = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "estimate_many")
        or (isinstance(node, ast.Attribute) and node.attr == "estimate_many")
        or (isinstance(node, ast.alias) and node.name == "estimate_many")
    ]
    assert names == [], f"simulation.py names estimate_many at {names}"


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "nuisance.py"))
def test_interacted_design_is_named_only_in_nuisance(module):
    """The interacted design's column layout stays in `nuisance.py`; other
    modules read the fit through `RegressionFit`'s named coefficients."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    names = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "interacted_design")
        or (isinstance(node, ast.Attribute) and node.attr == "interacted_design")
        or (isinstance(node, ast.alias) and node.name == "interacted_design")
    ]
    assert names == [], f"{module} names interacted_design at {names}"


def test_fitted_models_are_evaluated_only_by_their_own_methods():
    """A fitted model, one sample's or a batch's, is evaluated by its
    `predict_proba` or `predict`: no module defines or names a second
    evaluator ending in `_at_cells`."""
    named = [
        f"{path.name} line {node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if any(isinstance(name, str) and name.endswith("_at_cells")
               for name in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)))
    ]
    assert named == [], f"named at {named}"


def test_estimate_cells_takes_models_as_estimate_many_does():
    """Prefit models enter every entry point as the same keyword-only
    `outcome=` and `propensity=`."""
    def keyword_only(function):
        return [name for name, p in inspect.signature(function).parameters.items() if p.kind is p.KEYWORD_ONLY]

    assert keyword_only(estimators.estimate_cells) == keyword_only(estimators.estimate_many) == keyword_only(
        estimators.influence_values) == ["outcome", "propensity"]


def test_estimators_fits_nuisances_only_through_the_batched_fits():
    """Nuisance models are fitted in one place: `estimate_cells` calls
    `logistic_fits` and `ols_fits`, and `estimators.py` never names the
    one-sample wrappers `fit_logistic` or `fit_ols_interacted`."""
    tree = ast.parse((PACKAGE / "estimators.py").read_text(encoding="utf-8"))
    named = [
        f"line {node.lineno}: {name}"
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        if name in ("fit_logistic", "fit_ols_interacted")
    ]
    assert named == [], f"estimators.py names {named}"


def test_every_public_name_resolves():
    """`from bineffect import *` needs every name in `__all__` on the package."""
    missing = [name for name in bineffect.__all__ if not hasattr(bineffect, name)]
    assert missing == []


def test_import_loads_neither_scipy_stats_nor_integrate():
    """`scipy.stats` and `scipy.integrate` take most of a bare import; the
    package needs only `scipy.special`, also to compute a truth, run a Monte
    Carlo study or print the `truth` command."""
    probe = "; ".join([
        "import sys, bineffect",
        "from bineffect import cli, simulation",
        "bare = [m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules]",
        "simulation.truth_oracle(simulation.DgpSpec())",
        "simulation.run_monte_carlo(simulation.DgpSpec(), [50], 2, ['reg'], seed=1)",
        "assert cli.main(['truth']) == 0",
        "print(bare, [m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])",
    ])
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[] []"


def test_no_entry_point_loads_scipy(tmp_path):
    """The package computes its special functions itself: neither an import
    nor an `estimate` with every estimator, the `truth` command or a Monte
    Carlo study with every estimator loads any part of scipy."""
    from bineffect import DgpSpec, sample_dgp, save_csv

    save_csv(sample_dgp(DgpSpec(), 200, seed=5), tmp_path / "obs.csv")
    probe = "; ".join([
        "import sys, bineffect",
        "from bineffect import cli",
        "assert cli.main(['estimate', '--input', 'obs.csv', '--cutoff', '6', '--estimator', 'reg,ipw,aipw,tmle',"
        " '--boot-reps', '20', '--output', 'estimate.json']) == 0",
        "assert cli.main(['truth']) == 0",
        "assert cli.main(['simulate', '--n', '100', '--reps', '4', '--estimators', 'reg,ipw,aipw,tmle',"
        " '--boot-reps', '20', '--threads', '1', '--seed', '3', '--output', 'mc.json']) == 0",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
