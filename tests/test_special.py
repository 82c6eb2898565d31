"""The package's expit, logit, ndtr and ndtri against scipy.special, whose
formulas (expit, logit) and Cephes routines (ndtr, ndtri) they follow."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from bineffect._special import expit, logit, ndtr, ndtri

TMLE_CLIP = (5e-4, 1.0 - 5e-4)
EXP_M2 = 0.13533528323661269189  # ndtri's branch point exp(-2)


def with_neighbours(points):
    """Each point with the float64 just below and just above it."""
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


def expit_grid():
    rng = np.random.default_rng(0)
    edges = with_neighbours([0.0, 1e-300, 36.7, 37.0, 709.78, 745.0, 746.0, 800.0])
    return np.concatenate([
        edges, -edges, [np.inf, -np.inf, np.nan],
        np.linspace(-60.0, 60.0, 24_001), rng.uniform(-800.0, 800.0, 20_000), rng.normal(0.0, 5.0, 20_000),
    ])


def logit_grid():
    rng = np.random.default_rng(1)
    edges = with_neighbours([0.3, 0.65, 0.5, *TMLE_CLIP, 5e-324, 1e-300, 1e-16, 1.0 - 1e-16])
    return np.concatenate([
        edges, [0.0, 1.0, -0.5, 1.5, np.inf, -np.inf, np.nan],
        np.linspace(0.0, 1.0, 20_001), rng.uniform(0.28, 0.67, 20_000),
        np.exp(-rng.uniform(0.0, 745.0, 10_000)), -np.expm1(-rng.uniform(0.0, 37.0, 10_000)),
    ])


def ulps(got, want):
    """Units in the last place between two float64 arrays, elementwise: 0 where
    they are equal or both NaN, the int64 maximum where they differ in sign or
    where one is not finite."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    comparable = np.isfinite(got) & np.isfinite(want) & (np.signbit(got) == np.signbit(want))
    distance = np.abs(got.view(np.int64) - want.view(np.int64))
    return np.where(same, 0, np.where(comparable, distance, np.iinfo(np.int64).max))


@pytest.mark.parametrize("f, reference, grid, bound", [
    (expit, special.expit, expit_grid, 4),
    (logit, special.logit, logit_grid, 2),
], ids=["expit", "logit"])
def test_within_a_few_ulp_of_scipy(f, reference, grid, bound):
    """numpy's SIMD exp, log and log1p can differ from scipy's libm in the last
    bits; the bounds are the largest differences measured on AVX512F."""
    x = grid()
    assert ulps(f(x), reference(x)).max() <= bound


@pytest.mark.parametrize("f", [expit, logit], ids=["expit", "logit"])
def test_float64_out_and_no_floating_point_warnings(f):
    """On both grids, so `logit` also sees values outside [0, 1]."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = [f(expit_grid()), f(logit_grid()), f(logit_grid().astype(np.float32)), f(0.25), f(np.float64(0.25)),
                   f(1), f([0.25, 0.5])]
    assert all(np.asarray(out).dtype == np.float64 for out in outputs)
    assert all(type(out) is np.float64 for out in outputs[3:6])


@pytest.mark.parametrize("f, grid", [(expit, expit_grid), (logit, logit_grid)], ids=["expit", "logit"])
def test_each_value_is_the_same_bits_in_any_batch(f, grid):
    """A value's result does not depend on what it is computed with: alone as a
    0-d array or a Python float, in a 2-D batch, in a strided view, or at any
    offset of a 17-element window (two SIMD vectors of 8 and a tail of 1)."""
    x = np.concatenate([grid()[:40], np.random.default_rng(2).permutation(grid())[:1960]])
    batch = f(x).view(np.int64)
    alone = [(f(np.array(v)).view(np.int64), f(float(v)).view(np.int64)) for v in x]
    assert all(a == b == want for (a, b), want in zip(alone, batch))
    assert np.array_equal(f(x.reshape(40, 50)).view(np.int64).ravel(), batch)
    strided = np.repeat(x, 3)[1::3]
    assert not strided.flags.contiguous
    assert np.array_equal(f(strided).view(np.int64), batch)
    assert np.array_equal(f(x[::-1]).view(np.int64)[::-1], batch)
    window = np.resize(x[::-1], 17)
    for offset in range(17):
        for v, want in zip(x[:300], batch):
            probe = window.copy()
            probe[offset] = v
            assert f(probe).view(np.int64)[offset] == want


def bits(value):
    return np.float64(value).view(np.int64)


NDTRI_EDGES = with_neighbours([
    EXP_M2, 1.0 - EXP_M2,         # the central rational form's interval
    math.exp(-32.0), 1e-15,      # z = sqrt(-2 log y) = 8: from P1/Q1 to P2/Q2
    1e-100, 1e-300,
    2.2250738585072014e-308,     # the smallest normal, and subnormals below it
    1e-310, 5e-324,
    0.5, 0.975, 1.0 - 1e-16,
])


@pytest.mark.parametrize("y", [0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan, *NDTRI_EDGES])
def test_ndtri_is_scipys_at_each_branch_edge(y):
    assert type(ndtri(y)) is float
    assert bits(ndtri(y)) == bits(special.ndtri(y)) or (math.isnan(ndtri(y)) and np.isnan(special.ndtri(y)))


NDTR_EDGES = with_neighbours([
    1.0 / math.sqrt(2.0), 1.0,   # |a| / sqrt(2) = 1 / sqrt(2): the erf/erfc switch
    math.sqrt(2.0),              # erfc's argument 1: from erf to its P/Q table
    8.0 * math.sqrt(2.0),        # erfc's argument 8: from P/Q to R/S
    math.sqrt(2.0 * 7.09782712893383996843e2),  # exp(-z^2) underflows beyond
    38.5, 40.0, 1e300,
])


@pytest.mark.parametrize("a", [0.0, -0.0, np.inf, -np.inf, np.nan, *NDTR_EDGES, *-NDTR_EDGES])
def test_ndtr_is_scipys_at_each_branch_edge(a):
    assert type(ndtr(a)) is float
    assert bits(ndtr(a)) == bits(special.ndtr(a)) or (math.isnan(ndtr(a)) and np.isnan(special.ndtr(a)))


def test_ndtr_and_ndtri_are_scipys_on_a_grid():
    rng = np.random.default_rng(3)
    a = np.concatenate([rng.normal(0.0, 3.0, 4000), rng.uniform(-40.0, 40.0, 4000), rng.uniform(-1.5, 1.5, 2000)])
    y = np.concatenate([rng.random(4000), np.exp(-rng.uniform(0.0, 40.0, 3000)),
                        np.exp(-rng.uniform(0.0, 740.0, 1000)), -np.expm1(-rng.uniform(0.0, 37.0, 2000))])
    assert np.array_equal(np.array([ndtr(v) for v in a]).view(np.int64), special.ndtr(a).view(np.int64))
    assert np.array_equal(np.array([ndtri(v) for v in y]).view(np.int64), special.ndtri(y).view(np.int64))
