import csv
import os
import re
import tempfile
import threading
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bineffect import (
    BinarizationRule,
    Direction,
    EstimandSpec,
    EstimateReport,
    Nuisances,
    ObservationSet,
    PropensityModel,
    ValidationError,
    binarize,
    core,
    load_csv,
    positivity_diagnostic,
    save_csv,
    z_quantile,
)
from bineffect.simulation import DgpSpec, sample_dgp
from conftest import forbid

GEQ6 = BinarizationRule(6.0, Direction.GEQ)


class TestBinarize:
    def test_geq_cutoff(self):
        assert binarize(np.array([5.9, 6.0, 7.2]), GEQ6).tolist() == [0.0, 1.0, 1.0]

    def test_empty(self):
        assert binarize(np.array([]), GEQ6).shape == (0,)

    def test_lt_boundary(self):
        rule = BinarizationRule(6.0, Direction.LT)
        assert binarize(np.array([6.0, 6.0, 6.0]), rule).tolist() == [0.0, 0.0, 0.0]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            binarize(np.array([1.0, np.nan]), GEQ6)
        with pytest.raises(ValidationError):
            BinarizationRule(np.inf)

    @given(
        a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        cutoff=st.floats(-1e6, 1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_region_frequency(self, a, cutoff):
        arr = np.array(a)
        out = binarize(arr, BinarizationRule(cutoff))
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert out.mean() == np.mean(arr >= cutoff)


class TestObservationSet:
    def test_basic_shape(self, dataset):
        assert dataset.n == 40
        assert dataset.p == 2

    def test_rejects_nonbinary_t(self):
        with pytest.raises(ValidationError, match="t must contain only 0 or 1"):
            ObservationSet(w=np.zeros((3, 1)), t=[0, 1, 2], y=[1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ObservationSet(w=np.zeros((2, 1)), t=[0, 1], y=[1.0, np.inf])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="lengths disagree"):
            ObservationSet(w=np.zeros((3, 1)), t=[0, 1], y=[1.0, 2.0])

    def test_rejects_rule_inconsistency(self):
        with pytest.raises(ValidationError, match="disagrees with the binarization rule"):
            ObservationSet(w=np.zeros((2, 1)), t=[1, 1], y=[0.0, 0.0], a=[5.0, 7.0], rule=GEQ6)

    def test_immutable(self, dataset):
        with pytest.raises(ValueError):
            dataset.y[0] = 99.0

    def test_with_rule_idempotent(self):
        a = np.array([4.0, 6.5, 7.0, 5.0])
        data = ObservationSet(w=np.zeros((4, 1)), t=binarize(a, GEQ6), y=np.ones(4), a=a, rule=GEQ6)
        twice = data.with_rule(GEQ6).with_rule(GEQ6)
        assert np.array_equal(twice.t, data.t)

    def test_mean_t_is_region_frequency(self):
        rng = np.random.default_rng(5)
        a = rng.normal(6.0, 2.0, size=200)
        data = ObservationSet(
            w=np.zeros((200, 1)), t=binarize(a, GEQ6), y=np.zeros(200), a=a, rule=GEQ6
        )
        assert data.t.mean() == np.mean(a >= 6.0)

    def test_subset_preserves_fields(self, dataset):
        sub = dataset.subset(np.array([3, 1, 1]))
        assert sub.n == 3
        assert sub.y[1] == sub.y[2] == dataset.y[1]


class TestCsv:
    def test_load_with_rule_derives_t(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,w1\n1.5,5.0,0.1\n2.5,6.0,0.2\n3.5,7.5,0.3\n")
        data = load_csv(path, GEQ6)
        assert data.n == 3
        assert data.t.tolist() == [0.0, 1.0, 1.0]
        assert data.a is not None and data.a.tolist() == [5.0, 6.0, 7.5]

    def test_nonbinary_t_without_rule_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,w1\n1.0,0,0.1\n2.0,2,0.2\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,w1\n0,0.1\n")
        with pytest.raises(ValidationError, match="missing required column 'y'"):
            load_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,w1\n1.0,0,0.1\nfoo,1,0.2\n")
        with pytest.raises(ValidationError, match="line 3: column 'y'"):
            load_csv(path)

    def test_continuous_without_rule(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,w1\n1.0,5.0,0.1\n")
        with pytest.raises(ValidationError, match="binarization rule"):
            load_csv(path)

    def test_utf8_byte_order_mark(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("\ufeffy,t,w1\n1.0,0,0.1\n2.0,1,0.2\n".encode("utf-8"))
        data = load_csv(path)
        assert data.y.tolist() == [1.0, 2.0]
        assert data.p == 1

    def test_blank_lines_skipped_with_file_line_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,t,w1\n1.0,0,0.1\n2.0,1,0.2\n\n")
        assert load_csv(path).n == 2
        path.write_text("y,t,w1\n\n1.0,0,0.1\nfoo,1,0.2\n")
        with pytest.raises(ValidationError, match="line 4: column 'y'"):
            load_csv(path)

    def test_header_only_names_the_file(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("y,t,w1\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="header_only.csv: no data rows"):
                load_csv(path)
        assert [str(w.message) for w in caught] == []  # numpy's empty-input warning stays inside

    def test_directory_is_a_validation_error_naming_it(self, tmp_path):
        with pytest.raises(ValidationError, match=f"^{re.escape(str(tmp_path))}: is a directory"):
            load_csv(tmp_path)

    @pytest.mark.parametrize("raw", [b"y,t,w1\n1.5,0,2\n2.5,1,\xe93\n", b"y,t,w\xe9\n1.5,0,2\n"])
    def test_non_utf8_file_is_a_validation_error_naming_it(self, tmp_path, raw):
        path = tmp_path / "latin1.csv"
        path.write_bytes(raw)
        with pytest.raises(ValidationError, match="latin1.csv: not UTF-8 text"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text, name, row_loop",
        [
            ("y,t,y,w1\n1.5,0,2,3\n2.5,1,4,5\n", "y", False),
            ('"y","t","y","w1"\n1.5,0,2,3\n2.5,1,4,5\n', "y", True),
            ("y,t,t,w1\n1.5,0,1,3\n2.5,1,0,5\n", "t", False),
            ('y,"t",t,w1\n1.5,0,1,3\n2.5,1,0,5\n', "t", True),
        ],
    )
    def test_repeated_header_column_is_rejected_on_both_paths(self, text, name, row_loop):
        chosen, rows_only, row_loop_ran = _both_paths(text)
        assert chosen == rows_only
        assert chosen[0] is ValidationError
        assert f"column '{name}' appears more than once in the header" in chosen[1]
        assert row_loop_ran == row_loop

    @pytest.mark.parametrize("records", [0, 1000])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("y,t,y,w1", "column 'y' appears more than once"),
            ('"y","t","y","w1"', "column 'y' appears more than once"),
            ("t,w1,w2,w3", "missing required column 'y'"),
            ('"y","w1","w2","w3"', "expected a treatment column"),
        ],
    )
    def test_bad_header_is_reported_before_any_record_is_read(
        self, tmp_path, monkeypatch, header, message, records
    ):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n" + "1.5,0,2,3\n" * records)
        parsed = []  # every row a csv.reader in core yields
        real_reader = csv.reader

        class CountingReader:
            def __init__(self, lines):
                self._reader = real_reader(lines)

            def __iter__(self):
                return self

            def __next__(self):
                parsed.append(next(self._reader))
                return parsed[-1]

            @property
            def line_num(self):
                return self._reader.line_num

        forbid(monkeypatch, np, "loadtxt")
        monkeypatch.setattr(core, "csv", SimpleNamespace(reader=CountingReader))
        with pytest.raises(ValidationError, match=message):
            load_csv(path)
        assert len(parsed) == 1  # the header

    @pytest.mark.parametrize("record", ["1.5,1,0,9", "1.5,1,0,", "1,234,1,0"])
    def test_record_longer_than_header_names_line_and_counts(self, tmp_path, record):
        path = tmp_path / "d.csv"
        path.write_text(f"y,t,w1\n2.5,0,1\n{record}\n")
        with pytest.raises(ValidationError, match="line 3: expected 3 fields as in the header, got 4"):
            load_csv(path)

    def test_quoted_numbers_are_read(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"y","t","w1"\n"1.5","0"," 2 "\n2.5,1,"3e1"\n')
        data = load_csv(path)
        assert data.y.tolist() == [1.5, 2.5]
        assert data.w[:, 0].tolist() == [2.0, 30.0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_unquoted_numeric_file_skips_the_row_loop(self, tmp_path, monkeypatch, seed):
        data = sample_dgp(DgpSpec(), 2000, seed)
        path = tmp_path / "d.csv"
        save_csv(data, path)

        def no_row_loop(*args, **kwargs):
            raise AssertionError("the row loop read a file the np.loadtxt pass accepts")

        monkeypatch.setattr(core, "_read_rows", no_row_loop)
        back = load_csv(path, data.rule)
        for name in ("y", "t", "a", "w"):
            assert np.array_equal(getattr(back, name), getattr(data, name)), name

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("n", [20, 2000])  # inside, then far beyond, one read buffer
    def test_pipe_reads_as_the_file(self, tmp_path, n):
        """A pipe can be read only once: load_csv reads it through one handle
        to the same arrays as the regular file."""
        data = sample_dgp(DgpSpec(), n, 1)
        path = tmp_path / "d.csv"
        save_csv(data, path)
        assert _load_through_pipe(tmp_path, path.read_bytes(), data.rule) == _load_outcome(path, data.rule)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("n", [3, 2000])
    def test_quoted_file_through_a_pipe_reads_as_the_file(self, tmp_path, n):
        """A quoted field sends the file to the row loop, which reads the
        pipe's text again from the start."""
        rows = "".join(f'"{i * 0.5}",{i % 2},{i % 3}\n' for i in range(n))
        path = tmp_path / "d.csv"
        path.write_text("y,t,w1\n" + rows)
        got = _load_through_pipe(tmp_path, path.read_bytes(), None)
        assert got == _load_outcome(path, None)
        assert got[1] == (n, 1)  # arrays, not an error

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_bad_record_through_a_pipe_names_its_line(self, tmp_path):
        content = b"y,t,w1\n1.5,0,2\n2.5,1,x\n"
        got = _load_through_pipe(tmp_path, content, None)
        fifo = tmp_path / "d.fifo"
        assert got == (ValidationError, f"{fifo}: line 3: column 'w1': could not parse 'x' as a number")

    @given(
        n=st.integers(1, 12),
        p=st.integers(0, 3),
        with_a=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip_identity(self, n, p, with_a, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(6.0, 2.0, size=n) if with_a else None
        t = binarize(a, GEQ6) if with_a else (rng.random(n) < 0.5).astype(float)
        data = ObservationSet(
            w=rng.normal(size=(n, p)),
            t=t,
            y=rng.normal(size=n) * 10.0,
            a=a,
            rule=GEQ6 if with_a else None,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "round.csv"
            save_csv(data, path)
            back = load_csv(path, data.rule)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.t, data.t)
        assert np.array_equal(back.w, data.w)
        if with_a:
            assert np.array_equal(back.a, data.a)


def _load_through_pipe(tmp_path, content, rule):
    """`_load_outcome` of a named pipe that another thread writes `content` into."""
    fifo = tmp_path / "d.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,), daemon=True)
    writer.start()
    out = {}
    reader = threading.Thread(target=lambda: out.update(got=_load_outcome(fifo, rule)), daemon=True)
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():  # blocked opening the pipe again after its writer closed
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    writer.join(timeout=30)
    assert not reader.is_alive() and not writer.is_alive()
    return out["got"]


def _load_outcome(path, rule):
    """load_csv's arrays, or the type and message of what it raised."""
    try:
        data = load_csv(path, rule)
    except Exception as exc:  # compared between the two paths, not handled
        return type(exc), str(exc)
    return tuple(None if v is None else v.tobytes() for v in (data.y, data.t, data.a, data.w)), data.w.shape


def _both_paths(text, rule=None):
    """Outcome of load_csv as it is and with the row loop alone, and whether the
    row loop ran in the first."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(core, "_read_rows", wraps=core._read_rows) as row_loop:
            chosen = _load_outcome(path, rule)
        with mock.patch.object(core, "_read_table", return_value=None):
            rows_only = _load_outcome(path, rule)
    return chosen, rows_only, row_loop.called


_CLEAN = ["0", "1", "1.5", "-2.25", " 3 ", "1e3", "7"]
_ODD = ['"1"', "", "x", "1_5", "#1", "nan", "inf", "2", " ", "1,5", "0.5", "\t1\t"]


@st.composite
def _csv_texts(draw):
    header = draw(st.sampled_from(["y,t,w1", "y,t", " y , t ,w1,w2", '"y",t,w1', "y,a,w1", "t,w1"]))
    k = header.count(",") + 1
    t_col = [h.strip() for h in header.split(",")].index("t") if "t" in header else None
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        fields = [draw(st.sampled_from(_CLEAN)) for _ in range(k)]
        if t_col is not None:
            fields[t_col] = draw(st.sampled_from(["0", "1"]))
        lines.append(",".join(fields))
    if lines and draw(st.booleans()):  # one defect in an otherwise clean file
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        kind = draw(st.sampled_from(["field", "short", "long", "comma", "blank", "spaces"]))
        if kind == "field":
            fields[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_ODD))
        elif kind == "short":
            fields.pop()
        elif kind == "long":
            fields.append(draw(st.sampled_from(_CLEAN)))
        elif kind == "comma":
            fields.append("")
        lines[i] = {"blank": "", "spaces": "  "}.get(kind, ",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([header, *lines]) + (eol if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.booleans()) else "") + text


class TestCsvFastPathMatchesRowLoop:
    """The np.loadtxt pass returns what the row loop returns, or leaves the file to it."""

    @given(text=_csv_texts())
    @settings(max_examples=150, deadline=None)
    def test_generated_files(self, text):
        rule = GEQ6 if ",a," in text else None
        chosen, rows_only, _ = _both_paths(text, rule)
        assert chosen == rows_only

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("\ufeffy,t,w1\n1.5,0,2\n2.5,1,3\n", True),
            ("y,t,w1\r\n1.5,0,2\r\n2.5,1,3\r\n", True),
            ("y,t,w1\r1.5,0,2\r2.5,1,3\r", True),
            ("y,t,w1\n\n1.5,0,2\n\r\n2.5,1,3\n\n", True),
            ("y,t,w1\n1.5,0,2\n   \n2.5,1,3\n", False),
            ("y,t,w1\n 1.5 ,\t0, 2\n2.5 ,1 ,3\xa0\n", True),
            ('y,t,w1\n"1.5",0,2\n2.5,1,"3"\n', False),
            ('"y","t","w1"\n1.5,0,2\n', False),
            ("y,t,w1\n1.5,0\n", False),
            ("y,t,w1\n1.5,0,2,9\n", False),
            ("y,t,w1\n1.5,0,2,\n", False),
            ("y,t,w1\n1,234,0,2\n2.5,1,3\n", False),
            ("y,t,w1\n#1.5,0,2\n", False),
            ("y,t,w1\n1_5,0,2\n", False),
            ("y,t,w1\nnan,0,2\n", True),
            ("y,t,w1\n1.5,0,inf\n", True),
            ("y,t,w1\n1.5,0,2\n2.5,2,3\n", False),
            ("y,t,w1\n1.5,nan,2\n", False),
            ("y,a,w1\n1.5,5.5,2\n2.5,6,3\n", True),
            ("t,w1\n0,2\n", True),
            ("y,t,w1\n", False),
            ("y,t,w1\n\n\n", False),
            ("", False),
        ],
    )
    def test_fixed_files(self, text, fast):
        rule = GEQ6 if text.startswith("y,a") else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chosen, rows_only, row_loop_ran = _both_paths(text, rule)
        assert [str(w.message) for w in caught] == []  # e.g. numpy's empty-input warning
        assert chosen == rows_only
        assert row_loop_ran is not fast


def _column(kind, rng, size):
    """`size` units of one covariate: `kind` (an int) distinct values,
    negative ones among them; -0.0 mixed with 0.0; a rounded normal (many
    values, with ties); or a normal with no ties."""
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, -2.5, 1.5], size)
    if kind == "rounded":
        return np.round(rng.normal(size=size), 1)
    if kind == "continuous":
        return rng.normal(size=size)
    return np.linspace(-3.5, 4.0, kind)[rng.integers(0, kind, size)] if kind > 1 else np.full(size, -1.25)


CROSSOVER = core._RANK_BY_COMPARISON
RANK_COLUMNS = [(1,), (2,), (3,), (CROSSOVER - 1,), (CROSSOVER,), (CROSSOVER + 1,), (50,), ("signed_zero",),
                ("rounded",), (2, "continuous"), (3, "rounded"), ("signed_zero", CROSSOVER)]


class TestBlockRanks:
    @pytest.mark.parametrize("columns", RANK_COLUMNS, ids=str)
    def test_ranks_equal_searchsorted(self, columns):
        rng = np.random.default_rng(7)
        for kind in columns:
            col = _column(kind, rng, 3000)
            values = np.sort(col)
            values = values[np.r_[True, values[1:] != values[:-1]]]
            rank = core._rank(col, values)
            expected = np.searchsorted(values, col)
            assert (rank.dtype, rank.tobytes()) == (expected.dtype, expected.tobytes())

    @pytest.mark.parametrize("columns", RANK_COLUMNS, ids=str)
    @pytest.mark.parametrize("r, n", [(1, 40), (6, 40), (5, 3)])
    def test_block_cells_equal_the_searchsorted_grouping(self, columns, r, n, monkeypatch):
        """Ranking a few-valued column by comparisons gives the bytes of
        ranking every column by `np.searchsorted`."""
        rng = np.random.default_rng([r, n])
        w = np.stack([_column(kind, rng, r * n) for kind in columns], axis=-1).reshape(r, n, len(columns))
        t = (rng.random((r, n)) < 0.5).astype(float)
        y = rng.normal(size=(r, n))
        got = core.block_cells(t, w, y)
        monkeypatch.setattr(core, "_RANK_BY_COMPARISON", 0)
        expected = core.block_cells(t, w, y)
        for a, b in zip(got, expected):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("r, n", [(1, 1), (1, 7), (4, 150), (60, 500), (1, 100_000)])
    def test_covariate_means_are_each_samples_own_sum(self, p, r, n):
        """The block's covariate means have the bytes of summing each
        sample's (n, p) covariates alone, over its units in order."""
        rng = np.random.default_rng([p, r, n])
        w = rng.normal(size=(r, n, p)) * 10.0 ** rng.integers(-3, 4, size=(r, n, p))
        t = (rng.random((r, n)) < 0.5).astype(float)
        w_mean = core.block_cells(t, w, rng.normal(size=(r, n)))[7]
        expected = np.array([np.add.reduce(sample) for sample in w]) / n
        assert (w_mean.dtype, w_mean.shape, w_mean.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def _lone_sample(n, w):
    rng = np.random.default_rng(n)
    return ObservationSet(w=w, t=(rng.random(n) < 0.5).astype(float), y=rng.normal(size=n))


LONE_SAMPLES = {
    "continuous_p3": lambda: _lone_sample(300, np.random.default_rng(1).normal(size=(300, 3))),
    "rounded_p2": lambda: _lone_sample(300, np.round(np.random.default_rng(2).normal(size=(300, 2)), 1)),
    "f_ordered": lambda: _lone_sample(300, np.asfortranarray(np.random.default_rng(3).normal(size=(300, 3)))),
    "n0": lambda: _lone_sample(0, np.empty((0, 2))),
    "n1": lambda: _lone_sample(1, np.array([[0.5, -1.0]])),
}


@pytest.mark.parametrize("make", LONE_SAMPLES.values(), ids=LONE_SAMPLES.keys())
def test_a_lone_sample_groups_into_its_own_cells(make):
    """`CellBatch.groups` of one sample gives one batch, and each unit's
    cell, with the dtype, shape and bytes of `ObservationSet.cells`."""
    data = make()
    groups, rows, first = core.CellBatch.groups(data.t[None], data.w[None], data.y[None])
    [(members, batch)] = groups.values()
    cells, cell = data.cells
    assert members == [0]
    pairs = [(getattr(batch, f.name), getattr(cells, f.name)) for f in fields(core.CellBatch)]
    for a, b in [*pairs, (rows[0] - first[0], cell)]:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestPositivity:
    def test_all_half_is_clean(self, dataset):
        model = PropensityModel(intercept=0.0, coef=np.zeros(dataset.p))
        assert positivity_diagnostic(model.predict_proba(dataset.w), eps=0.01) == []

    def test_flags_extreme_unit(self):
        probs = np.full(40, 0.5)
        probs[7] = 0.001
        assert positivity_diagnostic(probs, eps=0.01) == [
            "propensity outside [0.01, 0.99] for 1 of 40 units (1 below, 0 above; min 0.001, max 0.5)"
        ]

    def test_propensities_at_the_band_edges_are_not_flagged(self):
        probs = np.full(40, 0.5)
        probs[:2] = [0.01, 0.99]
        assert positivity_diagnostic(probs, eps=0.01) == []
        probs[2:4] = [np.nextafter(0.01, 0.0), np.nextafter(0.99, 1.0)]
        (warning,) = positivity_diagnostic(probs, eps=0.01)
        assert "for 2 of 40 units (1 below, 1 above;" in warning

    def test_many_flagged_units_give_one_string(self):
        n = 100_000
        probs = np.linspace(0.0, 1.0, n)
        below, above = int((probs < 0.05).sum()), int((probs > 0.95).sum())
        assert positivity_diagnostic(probs, eps=0.05) == [
            f"propensity outside [0.05, 0.95] for {below + above} of {n} units "
            f"({below} below, {above} above; min 0, max 1)"
        ]

    def test_dgp_fit_is_clean_at_default_eps(self, dgp):
        data = sample_dgp(dgp, 500, seed=11)
        # population propensities are 1 - Phi(1) and Phi(1), far from 0/1
        assert positivity_diagnostic(Nuisances(data).pscore, eps=0.01) == []


def test_z_quantile_matches_scipy_stats():
    levels = np.random.default_rng(5).uniform(1e-6, 1.0 - 1e-6, 2000)
    expected = stats.norm.ppf(0.5 + levels / 2.0)
    assert np.array_equal([z_quantile(float(level)) for level in levels], expected)


@pytest.mark.parametrize("seed", [3, [3, 4], np.random.SeedSequence(3)], ids=["int", "sequence", "seed_sequence"])
def test_seeded_rng_builds_default_rng_and_passes_a_generator_through(seed, monkeypatch):
    drawn = core.seeded_rng("seed", seed).integers(2**62, size=4)
    assert np.array_equal(drawn, np.random.default_rng(seed).integers(2**62, size=4))
    rng = np.random.default_rng(seed)
    forbid(monkeypatch, np.random, "default_rng")  # a Generator costs only an isinstance check
    assert core.seeded_rng("seed", rng) is rng


class TestReportTypes:
    def test_estimand_validation(self):
        with pytest.raises(ValidationError):
            EstimandSpec.peb(2)
        assert EstimandSpec.bate().arm is None
        assert EstimandSpec.peb(0).key == "peb0"
        assert EstimandSpec.from_key("peb1") == EstimandSpec.peb(1)

    def test_normal_ci_identity(self):
        report = EstimateReport(EstimandSpec("bate"), "reg", point=2.0, se=1.5, n=10, ci_level=0.95)
        half = z_quantile(0.95) * 1.5
        assert report.ci == (2.0 - half, 2.0 + half)
        assert abs(z_quantile(0.95) - 1.959964) < 1e-6

    def test_bad_level_raises_on_every_call(self):
        for _ in range(2):  # the memoised quantile must not remember a failure
            with pytest.raises(ValidationError):
                z_quantile(1.5)

    def test_negative_se_rejected(self):
        with pytest.raises(ValidationError):
            EstimateReport(EstimandSpec("bate"), "reg", 1.0, -0.1, 10)

    def test_to_dict_keys(self):
        d = EstimateReport(EstimandSpec("peb1"), "aipw", 1.0, 0.5, 20, seed=3).to_dict()
        assert set(d) == {
            "estimand", "arm", "estimator", "point", "se", "ci", "ci_level", "n", "warnings", "seed",
        }
        assert d["estimand"] == "peb" and d["arm"] == 1 and d["seed"] == 3
