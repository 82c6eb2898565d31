"""Shared data model: observation sets, binarization rules, reports, CSV I/O."""

from __future__ import annotations

import csv
import enum
import functools
import io
import warnings
from array import array
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ._special import ndtri


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
    return ndtri(0.5 + ci_level / 2.0)


def check_integer(name: str, value) -> None:
    """Raise ValidationError unless `value` is an int or a numpy integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def seeded_rng(name: str, seed) -> np.random.Generator:
    """`seed` if it is a Generator, else np.random.default_rng(seed), whose errors raise ValidationError."""
    try:
        return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        kind = "non-negative" if isinstance(exc, ValueError) else "an integer or a sequence of integers"
        raise ValidationError(f"{name} must be {kind}, got {seed}") from None


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


def binarize(a: np.ndarray, rule: BinarizationRule) -> np.ndarray:
    """Binarize a vector of continuous treatments with `rule`.

    Returns a float vector with values in {0.0, 1.0}; empty input yields an
    empty vector. Non-finite input raises ValidationError.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"expected a 1-d treatment vector, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError("treatment values must be finite")
    treated = arr >= rule.cutoff if rule.direction is Direction.GEQ else arr < rule.cutoff
    return treated.astype(float)


# estimand key -> its weights on the policy means (mu1, mu0, E[Y])
_CONTRASTS = {"bate": (1.0, -1.0, 0.0), "peb1": (1.0, 0.0, -1.0), "peb0": (0.0, 1.0, -1.0)}


@dataclass(frozen=True)
class EstimandSpec:
    """Target quantity, named by its key: the binarized ATE ('bate'), or the
    policy effect of binarization for arm 1 ('peb1') or arm 0 ('peb0')."""

    key: str

    def __post_init__(self) -> None:
        if self.key not in _CONTRASTS:
            raise ValidationError(f"unknown estimand {self.key!r}; expected one of {sorted(_CONTRASTS)}")

    @classmethod
    def bate(cls) -> "EstimandSpec":
        return cls("bate")

    @classmethod
    def peb(cls, arm: int) -> "EstimandSpec":
        return cls(f"peb{arm}")

    @classmethod
    def from_key(cls, key: str) -> "EstimandSpec":
        return cls(key)

    @property
    def kind(self) -> str:
        """'bate' or 'peb'."""
        return "bate" if self.key == "bate" else "peb"

    @property
    def arm(self) -> int | None:
        """The restricted policy a PEB compares with the status quo; None for BATE."""
        return None if self.key == "bate" else int(self.key[-1])

    @property
    def contrast(self) -> tuple[float, float, float]:
        """Weights on the policy means (mu1, mu0, E[Y]) that give this estimand.

        BATE = mu1 - mu0 and PEB compares one policy with the status quo.
        """
        return _CONTRASTS[self.key]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only, C-contiguous float copy: BLAS sums an F-ordered matrix in
    another order, so the layout would otherwise change the estimates."""
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.flags.writeable = False
    return out


# A column with at most this many distinct values is ranked by comparisons with
# each value, a wider one by `np.searchsorted`. On a 2^15-unit column in random
# order (2-core AMD EPYC, numpy 2.4.6) comparisons took 0.012 against 0.11 ms
# for 2 values, 0.075 against 0.35 ms for 8 and 0.16 against 0.50 ms for 16.
# On a sorted column `searchsorted` took 0.062 ms for 8 values and 0.079 ms
# for 16, so past 8 the comparisons would lose on sorted input.
_RANK_BY_COMPARISON = 8


def _rank(col: np.ndarray, values: np.ndarray) -> np.ndarray:
    """`np.searchsorted(values, col)` for a column whose values are all among
    the sorted distinct `values`: by comparisons with each value when there
    are at most `_RANK_BY_COMPARISON` of them."""
    if values.size > _RANK_BY_COMPARISON:
        return np.searchsorted(values, col)
    rank = np.zeros(col.size, dtype=np.intp)
    for value in values[1:]:
        rank += col >= value
    return rank


def _group_rows(t: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct (t, w) rows of R samples of n units, `t` (R, n) and `w`
    (R, n, p): sample after sample, each ordered as `np.lexsort((t, *w.T))`
    orders its rows. Returns the index of one unit per row (of the R * n),
    each unit's row, each sample's first row (R + 1, the last the number of
    rows) and the units per row (floats). A sample with no shared row keeps
    each unit as its own row, in sample order; a covariate column with no
    repeated value settles that for the block at the cost of one sort.
    Otherwise each column's values are ranked among its sorted distinct
    values (`_rank`), and the ranks are added in place into one integer key
    per unit, `t` its lowest digit, the sample its highest.
    """
    r, n, p = w.shape
    total = r * n
    digits = []
    for col in w.reshape(total, p).T:
        values = np.sort(col)
        distinct = np.concatenate(([True], values[1:] != values[:-1]))
        if distinct.all():
            break
        values = values[distinct]
        digits.append((_rank(col, values).reshape(r, n), values.size))
    if n < 2 or len(digits) < p:  # no two units of a sample share a row
        return np.arange(total), np.arange(total), np.arange(r + 1) * n, np.ones(total)
    key, size = t.astype(np.intp), 2
    for rank, count in [*digits, (np.arange(r)[:, None], r)]:
        rank *= size
        key += rank
        size *= count
        if size > total:  # renumber the rows seen so far; keeps the key below total**2
            key = np.unique(key, return_inverse=True)[1].reshape(r, n)
            size = int(key.max()) + 1
    key = key.reshape(total)
    sizes = np.bincount(key, minlength=size)
    present = sizes > 0
    cell = key if present.all() else (np.cumsum(present) - 1)[key]
    by_sample = cell.reshape(r, n)
    first = by_sample.min(axis=1)
    alone = by_sample.max(axis=1) - first == n - 1  # n rows: each unit its own, in sample order
    by_sample[alone] = first[alone, None] + np.arange(n)
    units = np.empty(int(np.count_nonzero(present)), dtype=np.intp)
    units[cell] = np.arange(total)
    return units, cell, np.append(first, units.size), sizes[present].astype(float)


def block_cells(t: np.ndarray, w: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_group_rows` of R samples, then the moments of `y` (R, n): per row the
    sum and the mean of y and the centred second moment sum((y - mean)**2),
    per sample the covariate mean (R, p) and the minimum and maximum of y.
    Each sum runs over a row's units in sample order and each mean over one
    sample, so a sample's values do not depend on the rest of the block.
    """
    units, cell, first, sizes = _group_rows(t, w)
    y = y.ravel()
    sums = np.bincount(cell, weights=y, minlength=sizes.size)
    means = sums / sizes
    dev = y - means[cell]
    # the corrected two-pass algorithm (Chan, Golub & LeVeque 1983) takes out the means' rounding
    shift = np.bincount(cell, weights=dev, minlength=sizes.size) / sizes
    means += shift
    m2 = np.bincount(cell, weights=np.square(dev, out=dev), minlength=sizes.size) - sizes * shift * shift
    r, n, p = w.shape
    unit_level = (np.full((r, p), np.nan), np.full(r, np.nan), np.full(r, np.nan))  # NaN for an empty sample
    if n:  # each sample's covariate sum / n, the arithmetic of its (n, p) `.mean(axis=0)`
        y = y.reshape(r, n)
        unit_level = (np.add.reduce(w, axis=1) / n, y.min(axis=1), y.max(axis=1))
    return units, cell, first, sizes, sums, means, m2, *unit_level


@dataclass(frozen=True)
class CellBatch:
    """R samples that share their (t, w) cell rows `w` (k, p) and `t` (k,),
    each kept as its (R, k) `block_cells` moments of y (`sizes`, `sums`,
    `means`, `m2`) and the unit-level values the fits read besides them: the
    covariate mean `w_mean` (R, p), the range of y `y_min` and `y_max` and
    the size `n` (R,). Summing these from the cells would change their bits.
    With continuous covariates each unit is its own cell (k = n)."""

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
    def groups(cls, t: np.ndarray, w: np.ndarray, y: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
        """R samples, `t` (R, n), `w` (R, n, p) and `y` (R, n), by their cell
        rows (`block_cells`): per distinct rows, in order of first sample, the
        sample indices and a batch whose fields are byte-equal to `stack` of
        those samples' `ObservationSet.cells` batches. Also returns the (R, n)
        row of each unit in the block and the first row of each sample: unit j
        of sample i is in cell `rows[i, j] - first[i]` of its batch."""
        r, n, p = w.shape
        units, cell, first, *moments, w_mean, y_min, y_max = block_cells(t, w, y)
        w_rows, t_rows = np.take(w.reshape(-1, p), units, axis=0), t.ravel()[units]
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


@dataclass(frozen=True)
class ObservationSet:
    """Immutable sample of (w, optional a, t, y) rows.

    `w` is the n x p covariate matrix, `t` the binary treatment, `y` the
    outcome, and `a` the optional continuous treatment the binary one was
    derived from. When both `a` and a rule are present, `t` must equal
    `binarize(a, rule)` exactly. All values must be finite.
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
                derived = binarize(a, self.rule)
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

    @functools.cached_property
    def cells(self) -> tuple[CellBatch, np.ndarray]:
        """This sample's `block_cells`, computed on first use: the sample as
        a `CellBatch` of one and each unit's (n,) cell index. Every fit and
        estimate on the sample depends on a unit only through its cell and on
        y only through the cells' moments and its range."""
        units, cell, _, *moments, w_mean, y_min, y_max = block_cells(self.t[None], self.w[None], self.y[None])
        w, t = np.take(self.w, units, axis=0), self.t[units]
        return CellBatch(w, t, *(v[None] for v in moments), w_mean, y_min, y_max, np.array([float(self.n)])), cell

    def with_rule(self, rule: BinarizationRule) -> "ObservationSet":
        """Re-derive t from a under `rule`; idempotent for the attached rule."""
        if self.a is None:
            raise ValidationError("cannot apply a binarization rule: no continuous treatment stored")
        return ObservationSet(w=self.w, t=binarize(self.a, rule), y=self.y, a=self.a, rule=rule)


@dataclass(frozen=True)
class EstimateReport:
    """One estimate with its standard error, confidence interval and notes.

    `ci` defaults to the normal interval point +- z * se at `ci_level`.
    """

    estimand: EstimandSpec
    estimator: str
    point: float
    se: float
    n: int
    ci_level: float = 0.95
    diagnostics: tuple[str, ...] = ()
    seed: int | None = None
    ci: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        point, se = float(self.point), float(self.se)
        if se < 0 or not np.isfinite(se):
            raise ValidationError(f"se must be finite and >= 0, got {se}")
        half = z_quantile(self.ci_level) * se  # raises ValidationError for a level outside (0, 1)
        ci = (point - half, point + half) if self.ci is None else self.ci
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "se", se)
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "ci_level", float(self.ci_level))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        object.__setattr__(self, "ci", (float(ci[0]), float(ci[1])))

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand.kind,
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


def load_csv(path: str | Path, rule: BinarizationRule | None = None) -> ObservationSet:
    """Read a comma-separated, UTF-8, headered file into an ObservationSet.

    `y` is the outcome, `t` and/or `a` the treatment and every other column a
    covariate, in header order; an `a` without `t` needs `rule` to derive t,
    and a `rule` needs an `a` to apply to.
    Numbers are parsed as 64-bit floats. A leading byte order mark and blank
    lines are ignored. A record may not have more fields than the header.
    Errors name the offending line of the file (the header is line 1) and
    column, or the path of a directory or of a file that is not UTF-8. The
    header's own errors (a missing `y` or treatment, a repeated name, a
    `rule` with no `a`) are raised before any record is read.

    The numbers of the whole file are read in one `np.loadtxt` pass when the
    header is unquoted, every record holds one float per header field and
    `t`, if present, is 0/1. Any other file (quoted fields, short or long
    records, text, a header with no records) is read again from the start by
    the `csv.reader` row loop, which raises every error; both paths give the
    same values. A file that cannot seek, such as a pipe, is read into
    memory first, so that the row loop can read it again.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            text = fh if fh.seekable() else io.StringIO(fh.read(), newline="")
            cols = _read_table(path, text, rule)
            if cols is None:
                text.seek(0)
                cols = _read_rows(path, text, rule)
    except IsADirectoryError:
        raise ValidationError(f"{path}: is a directory, expected a CSV file") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    y, t, a, w = cols
    if t is None:
        t = binarize(a, rule)
    return ObservationSet(w=w, t=t, y=y, a=a, rule=rule)


def _column_indices(path: Path, header: list[str], rule: BinarizationRule | None):
    """Header positions of y, t (or None), a (or None) and the covariates."""
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValidationError(f"{path}: column '{name}' appears more than once in the header")
    if "y" not in header:
        raise ValidationError(f"{path}: missing required column 'y'")
    y_idx = header.index("y")
    t_idx = header.index("t") if "t" in header else None
    a_idx = header.index("a") if "a" in header else None
    if t_idx is None and a_idx is None:
        raise ValidationError(f"{path}: expected a treatment column named 't' or 'a'")
    if t_idx is None and rule is None:
        raise ValidationError(
            f"{path}: continuous treatment column 'a' requires a binarization rule "
            "(--cutoff/--direction)"
        )
    if a_idx is None and rule is not None:
        raise ValidationError(f"{path}: a binarization rule (--cutoff/--direction) needs a continuous "
                              "treatment column 'a', and the header has none")
    w_idx = [j for j in range(len(header)) if j not in (y_idx, t_idx, a_idx)]
    return y_idx, t_idx, a_idx, w_idx


def _read_table(path: Path, fh, rule: BinarizationRule | None):
    """(y, t, a, w) from one `np.loadtxt` pass, or None for the row loop.

    Accepts only what the row loop reads to the same values: an unquoted
    header, then records of exactly one float per header field (no quotes,
    text or empty fields), at least one of them, and a 0/1 `t`. An unquoted
    header is checked, and its errors raised, before any record is read.
    """
    first = fh.readline()
    if not first or '"' in first:  # an empty file is named by the row loop
        return None
    header = [h.strip() for h in next(csv.reader([first]))]
    y_idx, t_idx, a_idx, w_idx = _column_indices(path, header, rule)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # loadtxt warns on a file with no records
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=float)
        except (ValueError, UserWarning):
            return None
    if table.shape[1] != len(header):
        return None
    t = None if t_idx is None else table[:, t_idx]
    if t is not None and not np.isin(t, (0.0, 1.0)).all():
        return None
    a = None if a_idx is None else table[:, a_idx]
    return table[:, y_idx], t, a, table[:, w_idx]


def _read_rows(path: Path, fh, rule: BinarizationRule | None):
    """(y, t, a, w) from a `csv.reader` row loop that names the line of each error."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: file is empty, expected a header row") from None
    header = [h.strip() for h in header]
    y_idx, t_idx, a_idx, w_idx = _column_indices(path, header, rule)
    rows, linenos = [], array("l")  # file line of each non-blank record
    for row in reader:
        if row:
            rows.append(row)
            linenos.append(reader.line_num)
    if not rows:
        raise ValidationError(f"{path}: no data rows after the header")

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


def csv_text(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row; floats are written
    as their repr and None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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


def positivity_diagnostic(pscore: np.ndarray, eps: float = 0.01) -> list[str]:
    """Summarise the units whose estimated propensity is within `eps` of 0 or 1.

    `pscore` holds one fitted propensity per unit, such as
    `fit_logistic(data).predict_proba(data.w)`. A unit is flagged when its
    propensity is strictly below `eps` or strictly above 1 - eps. Returns []
    when no unit is flagged, otherwise one warning string with the band, the
    number flagged of n, the count on each side, and the minimum and maximum
    propensity over all units; it never raises on extreme values. The flagged indices themselves are
    `np.flatnonzero((pscore < eps) | (pscore > 1 - eps))`.
    """
    if not 0.0 < eps < 0.5:
        raise ValidationError(f"eps must be in (0, 0.5), got {eps}")
    probs = np.asarray(pscore, dtype=float).ravel()
    below = int(np.count_nonzero(probs < eps))
    above = int(np.count_nonzero(probs > 1.0 - eps))
    if below + above == 0:
        return []
    return [
        f"propensity outside [{eps:g}, {1.0 - eps:g}] for {below + above} of {probs.size} units "
        f"({below} below, {above} above; min {probs.min():.6g}, max {probs.max():.6g})"
    ]
