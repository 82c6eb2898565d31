"""Shared data model: observation sets, binarization rules, reports, CSV I/O."""

from __future__ import annotations

import csv
import enum
import functools
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats


class ValidationError(ValueError):
    """Input data or configuration violates a documented contract."""


class EstimationError(RuntimeError):
    """Base class for failures raised while fitting or estimating."""


class DegenerateArmError(EstimationError):
    """Every unit falls in the same treatment arm."""


class SeparationError(EstimationError):
    """Logistic fit diverged because the arms are (quasi-)separated."""


class SingularDesignError(EstimationError):
    """Design matrix is rank deficient."""


class ConvergenceError(EstimationError):
    """An iterative fit did not converge within its iteration budget."""


class QuadratureError(EstimationError):
    """Numerical integration failed to reach the requested accuracy."""


@functools.lru_cache(maxsize=None)
def z_quantile(ci_level: float) -> float:
    """Two-sided normal critical value for a confidence level (1.959964 at 0.95)."""
    if not 0.0 < ci_level < 1.0:
        raise ValidationError(f"ci_level must be in (0, 1), got {ci_level}")
    return float(stats.norm.ppf(0.5 + ci_level / 2.0))


class Direction(enum.Enum):
    """Which side of the cutoff maps to the treated arm."""

    GEQ = "geq"  # T = 1 when A >= cutoff
    LT = "lt"    # T = 1 when A < cutoff


@dataclass(frozen=True)
class BinarizationRule:
    """Half-line region of the continuous treatment that defines T = 1.

    Ties at the cutoff go to the treated arm under GEQ and to the control
    arm under LT.
    """

    cutoff: float
    direction: Direction = Direction.GEQ

    def __post_init__(self) -> None:
        if not np.isfinite(self.cutoff):
            raise ValidationError(f"cutoff must be finite, got {self.cutoff}")
        if not isinstance(self.direction, Direction):
            raise ValidationError(f"direction must be a Direction, got {self.direction!r}")

    def apply(self, a: np.ndarray | float) -> np.ndarray | float:
        """Map treatment values to {0, 1}; total on finite reals."""
        arr = np.asarray(a, dtype=float)
        if arr.size and not np.isfinite(arr).all():
            raise ValidationError("treatment values must be finite")
        if self.direction is Direction.GEQ:
            out = (arr >= self.cutoff).astype(float)
        else:
            out = (arr < self.cutoff).astype(float)
        return float(out) if np.ndim(a) == 0 else out


def binarize(a: np.ndarray, rule: BinarizationRule) -> np.ndarray:
    """Binarize a vector of continuous treatments with `rule`.

    Returns a float vector with values in {0.0, 1.0}; empty input yields an
    empty vector. Non-finite input raises ValidationError.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d treatment vector, got shape {arr.shape}")
    return np.asarray(rule.apply(arr), dtype=float)


class EstimandKind(enum.Enum):
    BATE = "bate"
    PEB = "peb"


@dataclass(frozen=True)
class EstimandSpec:
    """Target quantity: the binarized ATE, or the policy effect for one arm."""

    kind: EstimandKind
    arm: int | None = None

    def __post_init__(self) -> None:
        if self.kind is EstimandKind.PEB:
            if self.arm not in (0, 1):
                raise ValidationError("PEB requires arm in {0, 1}")
        elif self.arm is not None:
            object.__setattr__(self, "arm", None)  # arm is ignored for BATE

    @classmethod
    def bate(cls) -> "EstimandSpec":
        return cls(EstimandKind.BATE)

    @classmethod
    def peb(cls, arm: int) -> "EstimandSpec":
        return cls(EstimandKind.PEB, arm)

    @property
    def key(self) -> str:
        """Short machine name: 'bate', 'peb1' or 'peb0'."""
        if self.kind is EstimandKind.BATE:
            return "bate"
        return f"peb{self.arm}"

    @property
    def contrast(self) -> tuple[float, float, float]:
        """Weights on the policy means (mu1, mu0, E[Y]) that give this estimand.

        BATE = mu1 - mu0 and PEB compares one policy with the status quo.
        This is the only place that maps `kind` and `arm` to arithmetic.
        """
        return {"bate": (1.0, -1.0, 0.0), "peb1": (1.0, 0.0, -1.0), "peb0": (0.0, 1.0, -1.0)}[self.key]

    @classmethod
    def from_key(cls, key: str) -> "EstimandSpec":
        table = {"bate": cls.bate(), "peb1": cls.peb(1), "peb0": cls.peb(0)}
        if key not in table:
            raise ValidationError(f"unknown estimand {key!r}; expected one of {sorted(table)}")
        return table[key]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ObservationSet:
    """Immutable sample of (w, optional a, t, y) rows.

    `w` is the n x p covariate matrix, `t` the binary treatment, `y` the
    outcome, and `a` the optional continuous treatment the binary one was
    derived from. When both `a` and a rule are present, `t` must equal
    `rule.apply(a)` exactly. All values must be finite.
    """

    w: np.ndarray
    t: np.ndarray
    y: np.ndarray
    a: np.ndarray | None = None
    rule: BinarizationRule | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim == 1:
            w = w[:, None]
        if w.ndim != 2:
            raise ValidationError(f"w must be an n x p matrix, got shape {w.shape}")
        t = np.asarray(self.t, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        n = t.shape[0]
        if y.shape[0] != n or w.shape[0] != n:
            raise ValidationError(
                f"column lengths disagree: t has {n}, y has {y.shape[0]}, w has {w.shape[0]} rows"
            )
        for name, col in (("w", w), ("t", t), ("y", y)):
            if col.size and not np.isfinite(col).all():
                bad = int(np.argwhere(~np.isfinite(col))[0][0])
                raise ValidationError(f"non-finite value in column '{name}' at row {bad}")
        if t.size and not np.isin(t, (0.0, 1.0)).all():
            bad = int(np.argwhere(~np.isin(t, (0.0, 1.0)))[0][0])
            raise ValidationError(f"t must contain only 0 or 1; row {bad} has {t[bad]}")
        a = self.a
        if a is not None:
            a = np.asarray(a, dtype=float).ravel()
            if a.shape[0] != n:
                raise ValidationError(f"a has {a.shape[0]} rows, expected {n}")
            if a.size and not np.isfinite(a).all():
                bad = int(np.argwhere(~np.isfinite(a))[0][0])
                raise ValidationError(f"non-finite value in column 'a' at row {bad}")
            if self.rule is not None:
                derived = self.rule.apply(a)
                if not np.array_equal(derived, t):
                    bad = int(np.argwhere(derived != t)[0][0])
                    raise ValidationError(
                        f"t disagrees with the binarization rule at row {bad}: "
                        f"a={a[bad]} maps to {derived[bad]:.0f} but t={t[bad]:.0f}"
                    )
        object.__setattr__(self, "w", _readonly(w))
        object.__setattr__(self, "t", _readonly(t))
        object.__setattr__(self, "y", _readonly(y))
        object.__setattr__(self, "a", None if a is None else _readonly(a))

    @property
    def n(self) -> int:
        return self.t.shape[0]

    @property
    def p(self) -> int:
        return self.w.shape[1]

    def with_rule(self, rule: BinarizationRule) -> "ObservationSet":
        """Re-derive t from a under `rule`; idempotent for the attached rule."""
        if self.a is None:
            raise ValidationError("cannot apply a binarization rule: no continuous treatment stored")
        return ObservationSet(w=self.w, t=binarize(self.a, rule), y=self.y, a=self.a, rule=rule)

    def subset(self, idx: np.ndarray) -> "ObservationSet":
        """Row-select (used by resampling and permutation checks).

        Skips revalidation: row selection preserves every invariant of an
        already-validated set.
        """
        out = object.__new__(ObservationSet)
        for name, col in (("w", self.w[idx]), ("t", self.t[idx]), ("y", self.y[idx])):
            col.flags.writeable = False
            object.__setattr__(out, name, col)
        a = None
        if self.a is not None:
            a = self.a[idx]
            a.flags.writeable = False
        object.__setattr__(out, "a", a)
        object.__setattr__(out, "rule", self.rule)
        return out


@dataclass(frozen=True)
class EstimateReport:
    """One estimate with its standard error, normal confidence interval and notes."""

    estimand: EstimandSpec
    estimator: str
    point: float
    se: float
    ci_level: float
    ci: tuple[float, float]
    n: int
    diagnostics: tuple[str, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.se < 0 or not np.isfinite(self.se):
            raise ValidationError(f"se must be finite and >= 0, got {self.se}")
        if not 0.0 < self.ci_level < 1.0:
            raise ValidationError(f"ci_level must be in (0, 1), got {self.ci_level}")

    @classmethod
    def from_point_se(
        cls,
        estimand: EstimandSpec,
        estimator: str,
        point: float,
        se: float,
        n: int,
        ci_level: float = 0.95,
        diagnostics: tuple[str, ...] = (),
        seed: int | None = None,
        ci: tuple[float, float] | None = None,
    ) -> "EstimateReport":
        """Build a report; `ci` defaults to the normal interval point +- z*se."""
        if ci is None:
            half = z_quantile(ci_level) * se
            ci = (point - half, point + half)
        return cls(
            estimand=estimand,
            estimator=estimator,
            point=float(point),
            se=float(se),
            ci_level=float(ci_level),
            ci=(float(ci[0]), float(ci[1])),
            n=int(n),
            diagnostics=tuple(diagnostics),
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand.kind.value,
            "arm": self.estimand.arm,
            "estimator": self.estimator,
            "point": self.point,
            "se": self.se,
            "ci": [self.ci[0], self.ci[1]],
            "ci_level": self.ci_level,
            "n": self.n,
            "warnings": list(self.diagnostics),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class CsvSchema:
    """Column naming for CSV ingestion.

    With the defaults the loader expects a `y` column, a binary `t` column
    and/or a continuous `a` column, and treats every other column as a
    covariate in header order. A continuous treatment requires `rule`.
    """

    outcome: str = "y"
    treatment: str | None = None
    covariates: tuple[str, ...] | None = None
    rule: BinarizationRule | None = None


def load_csv(path: str | Path, schema: CsvSchema | None = None) -> ObservationSet:
    """Read a comma-separated, UTF-8, headered file into an ObservationSet.

    Numbers are parsed as 64-bit floats. A leading byte order mark and blank
    lines are ignored. A record may not have more fields than the header.
    Errors name the offending line of the file (the header is line 1) and
    column.

    The numbers of the whole file are read in one `np.loadtxt` pass when the
    header is unquoted, every record holds one float per header field and
    `t`, if read, is 0/1. Any other file (quoted fields, short or long
    records, text, a header with no records) is read again from the start by
    the `csv.reader` row loop, which raises every error; both paths give the
    same values.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        cols = _read_table(path, fh, schema)
        if cols is None:
            fh.seek(0)
            cols = _read_rows(path, fh, schema)
    y, t, a, w = cols
    if t is None:
        t = binarize(a, schema.rule)
    return ObservationSet(w=w, t=t, y=y, a=a, rule=schema.rule)


def _column_indices(path: Path, header: list[str], schema: CsvSchema):
    """Header positions of y, t (or None), a (or None) and the covariates."""

    def col_index(name: str) -> int:
        try:
            return header.index(name)
        except ValueError:
            raise ValidationError(f"{path}: missing required column '{name}'") from None

    y_idx = col_index(schema.outcome)
    t_idx = a_idx = None
    if schema.treatment is not None:
        if schema.rule is not None:
            a_idx = col_index(schema.treatment)
        else:
            t_idx = col_index(schema.treatment)
    else:
        if "t" in header:
            t_idx = header.index("t")
        if "a" in header:
            a_idx = header.index("a")
        if t_idx is None and a_idx is None:
            raise ValidationError(f"{path}: expected a treatment column named 't' or 'a'")
    if t_idx is None and schema.rule is None:
        raise ValidationError(
            f"{path}: continuous treatment column "
            f"'{schema.treatment or 'a'}' requires a binarization rule (--cutoff/--direction)"
        )

    reserved = {y_idx, t_idx, a_idx} - {None}
    if schema.covariates is not None:
        w_idx = [col_index(c) for c in schema.covariates]
    else:
        w_idx = [j for j in range(len(header)) if j not in reserved]
    return y_idx, t_idx, a_idx, w_idx


def _read_table(path: Path, fh, schema: CsvSchema):
    """(y, t, a, w) from one `np.loadtxt` pass, or None for the row loop.

    Accepts only what the row loop reads to the same values: an unquoted
    header, then records of exactly one float per header field (no quotes,
    text or empty fields), at least one of them, and a 0/1 `t`.
    """
    first = fh.readline()
    if '"' in first:
        return None
    header = [h.strip() for h in next(csv.reader([first]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file with no records
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float)
        except (ValueError, UserWarning):
            return None
    if table.shape[1] != len(header):
        return None
    y_idx, t_idx, a_idx, w_idx = _column_indices(path, header, schema)
    t = None if t_idx is None else table[:, t_idx]
    if t is not None and not np.isin(t, (0.0, 1.0)).all():
        return None
    a = None if a_idx is None else table[:, a_idx]
    return table[:, y_idx], t, a, table[:, w_idx]


def _read_rows(path: Path, fh, schema: CsvSchema):
    """(y, t, a, w) from a `csv.reader` row loop that names the line of each error."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: file is empty, expected a header row") from None
    header = [h.strip() for h in header]
    rows, linenos = [], array("l")  # file line of each non-blank record
    for row in reader:
        if row:
            rows.append(row)
            linenos.append(reader.line_num)
    if not rows:
        raise ValidationError(f"{path}: no data rows after the header")
    y_idx, t_idx, a_idx, w_idx = _column_indices(path, header, schema)

    def parse(row: list[str], lineno: int, j: int) -> float:
        if j >= len(row):
            raise ValidationError(f"{path}: line {lineno}: missing column '{header[j]}'")
        cell = row[j].strip()
        try:
            return float(cell)
        except ValueError:
            raise ValidationError(
                f"{path}: line {lineno}: column '{header[j]}': "
                f"could not parse {cell!r} as a number"
            ) from None

    n = len(rows)
    y = np.empty(n)
    t = np.empty(n) if t_idx is not None else None
    a = np.empty(n) if a_idx is not None else None
    w = np.empty((n, len(w_idx)))
    for i, (lineno, row) in enumerate(zip(linenos, rows)):
        if len(row) > len(header):
            raise ValidationError(
                f"{path}: line {lineno}: expected {len(header)} fields as in the header, "
                f"got {len(row)}"
            )
        y[i] = parse(row, lineno, y_idx)
        if a is not None:
            a[i] = parse(row, lineno, a_idx)
        if t is not None:
            t[i] = parse(row, lineno, t_idx)
            if t[i] not in (0.0, 1.0):
                raise ValidationError(
                    f"{path}: line {lineno}: column '{header[t_idx]}' must be 0 or 1, "
                    f"got {row[t_idx].strip()!r}; continuous treatments need a "
                    "binarization rule (--cutoff/--direction)"
                )
        for k, j in enumerate(w_idx):
            w[i, k] = parse(row, lineno, j)
    return y, t, a, w


def save_csv(data: ObservationSet, path: str | Path) -> None:
    """Write an ObservationSet so that load_csv reads back identical values."""
    path = Path(path)
    cols: list[tuple[str, np.ndarray]] = [("y", data.y)]
    if data.a is not None:
        cols.append(("a", data.a))
    cols.append(("t", data.t))
    for j in range(data.p):
        cols.append((f"w{j + 1}", data.w[:, j]))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in cols])
        for i in range(data.n):
            writer.writerow([repr(float(col[i])) for _, col in cols])


def positivity_diagnostic(fit, data: ObservationSet, eps: float = 0.01) -> list[str]:
    """Flag units whose estimated propensity is within `eps` of 0 or 1.

    `fit` is any object with a predict_proba(w) method. Returns warning
    strings (one per flagged unit) and never raises on extreme values.
    """
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps}")
    probs = np.asarray(fit.predict_proba(data.w), dtype=float).ravel()
    out = []
    for i in np.flatnonzero((probs < eps) | (probs > 1.0 - eps)):
        out.append(
            f"unit {int(i)}: propensity {probs[i]:.6g} outside [{eps:g}, {1.0 - eps:g}]"
        )
    return out
