import numpy as np
import pytest

from bineffect import DgpSpec, ObservationSet


def make_dataset(n=40, p=2, seed=0, y_scale=1.0):
    """Generic random sample with both arms present and a mild t-w link."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, p))
    logits = 0.3 * w.sum(axis=1)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    if t.min() == t.max():  # force both arms
        t[0], t[1] = 0.0, 1.0
    y = y_scale * (1.0 + 2.0 * t + w @ rng.normal(size=p) + rng.normal(size=n))
    return ObservationSet(w=w, t=t, y=y)


def make_binary_w_dataset(n=60, seed=0, y_scale=1.0):
    """p=1 binary covariate: the saturated case where estimators coincide."""
    rng = np.random.default_rng(seed)
    w = (rng.random(n) < 0.5).astype(float)
    probs = np.where(w == 1.0, 0.7, 0.3)
    t = (rng.random(n) < probs).astype(float)
    # make sure every (t, w) cell is populated
    t[:4] = [0.0, 1.0, 0.0, 1.0]
    w[:4] = [0.0, 0.0, 1.0, 1.0]
    y = y_scale * (rng.normal(size=n) + t + 0.5 * w)
    return ObservationSet(w=w[:, None], t=t, y=y)


def two_binary_covariates(n=30, seed=0):
    """Two binary covariates (4 patterns, 8 cells with the arm): at n=30 some
    resamples lose an arm within a pattern and separate."""
    rng = np.random.default_rng(seed)
    w = (rng.random((n, 2)) < 0.5).astype(float)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(w[:, 1] - w[:, 0]))).astype(float)
    return ObservationSet(w=w, t=t, y=t + w.sum(axis=1) + rng.normal(size=n))


def forbid(monkeypatch, module, *names):
    """Make each named function of `module` fail the test if it is called."""

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in names:
        monkeypatch.setattr(module, name, no_work)


@pytest.fixture
def dataset():
    return make_dataset()


@pytest.fixture(scope="session")
def dgp():
    return DgpSpec()
