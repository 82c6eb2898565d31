import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from bineffect import (
    ESTIMATOR_NAMES,
    BinarizationRule,
    BootstrapConfig,
    ConvergenceError,
    DegenerateArmError,
    DgpSpec,
    Direction,
    EstimandSpec,
    ObservationSet,
    PropensityModel,
    RegressionFit,
    SeparationError,
    SingularDesignError,
    ValidationError,
    aipw_influence,
    cli,
    core,
    estimate_many,
    estimators,
    fit_logistic,
    fit_ols_interacted,
    nuisance,
    save_csv,
    tmle_update,
)
from bineffect.nuisance import CellBatch, interacted_design
from bineffect.simulation import sample_dgp
from conftest import make_binary_w_dataset, make_dataset, two_binary_covariates

BATE = EstimandSpec("bate")
PEB1 = EstimandSpec("peb1")
PEB0 = EstimandSpec("peb0")


def ehw_robust_se(data, coef_index):
    """Independent Eicker-Huber-White route: (X'X)^-1 X'diag(r^2)X (X'X)^-1."""
    w_mean = data.w.mean(axis=0)
    x = interacted_design(data.t, data.w - w_mean)
    beta = np.linalg.solve(x.T @ x, x.T @ data.y)
    r = data.y - x @ beta
    bread = np.linalg.inv(x.T @ x)
    cov = bread @ (x * (r**2)[:, None]).T @ x @ bread
    return float(np.sqrt(cov[coef_index, coef_index]))


def gauss_jordan_inverse(a):
    """Inverse by Gauss-Jordan elimination with partial pivoting, in the dtype
    of `a` (np.linalg computes in float64 at most)."""
    d = a.shape[0]
    aug = np.hstack([a, np.eye(d, dtype=a.dtype)])
    for j in range(d):
        pivot = j + int(np.argmax(np.abs(aug[j:, j])))
        aug[[j, pivot]] = aug[[pivot, j]]
        aug[j] /= aug[j, j]
        others = np.arange(d) != j
        aug[others] -= aug[others, j, None] * aug[j]
    return aug[:, d:]


def stacked_reg_se(data, contrasts, dtype=np.float64):
    """Independent route for reg's SEs: the stacked M-estimator of (t_bar,
    tw_bar, interacted OLS coefficients) with the covariate mean that centers
    w held fixed, and the delta method to mu1 = beta0 + beta_t, mu0 = beta0
    and E[Y] = beta0 + t_bar beta_t + tw_bar . beta_interact (Stefanski & Boos
    2002). The influence values are the rows of x_i r_i (X'X/n)^-1 and the
    deviations t_i - t_bar and t_i wc_i - tw_bar. Everything, the OLS fit
    included, is evaluated in `dtype`. Returns one SE per row of `contrasts`."""
    t, y, w = (np.asarray(v, dtype=dtype) for v in (data.t, data.y, data.w))
    n, p = data.n, data.p
    wc = w - w.mean(axis=0)
    x = np.hstack([np.ones((n, 1), dtype=dtype), t[:, None], wc, t[:, None] * wc])
    bread_inv = gauss_jordan_inverse(x.T @ x / n)
    beta = bread_inv @ (x.T @ y / n)
    coef = (x * (y - x @ beta)[:, None]) @ bread_inv
    beta0, beta_t, beta_interact = coef[:, 0], coef[:, 1], coef[:, 2 + p :]
    t_bar, tw_bar = t.mean(), (t[:, None] * wc).mean(axis=0)
    e_y = (
        beta0 + t_bar * beta_t + beta_interact @ tw_bar
        + beta[1] * (t - t_bar) + (t[:, None] * wc - tw_bar) @ beta[2 + p :]
    )
    phi = np.column_stack([beta0 + beta_t, beta0, e_y]) @ np.asarray(contrasts, dtype=dtype).T
    return np.sqrt((phi**2).mean(axis=0) / n)


def ipw_sandwich_se(data, contrasts):
    """Independent route for the ipw SE: the stacked M-estimator sandwich of
    (logistic coefficients, mu1, mu0, E[Y]) (Lunceford & Davidian 2004;
    Stefanski & Boos 2002). The influence value of mu1 is t y / e - mu1 +
    H1' I^-1 x (t - e), with H1 = mean(-t y (1 - e) / e x) and I = mean(e (1 -
    e) x x'); mu0 uses H0 = mean((1 - t) y e / (1 - e) x), and E[Y] is y - ybar.
    Returns one SE per row of `contrasts`."""
    t, y = data.t, data.y
    x = np.hstack([np.ones((data.n, 1)), data.w])
    e = fit_logistic(data).predict_proba(data.w)
    info = (x * (e * (1.0 - e))[:, None]).T @ x / data.n
    coef = np.linalg.solve(info, (x * (t - e)[:, None]).T).T  # rows I^-1 x_i (t_i - e_i)
    h1 = -(x * (t * y * (1.0 - e) / e)[:, None]).mean(axis=0)
    h0 = (x * ((1.0 - t) * y * e / (1.0 - e))[:, None]).mean(axis=0)
    z1, z0 = t * y / e, (1.0 - t) * y / (1.0 - e)
    phi = np.column_stack([z1 - z1.mean() + coef @ h1, z0 - z0.mean() + coef @ h0, y - y.mean()])
    return np.sqrt(np.mean((phi @ contrasts.T) ** 2, axis=0) / data.n)


def stratified_plug_in_bate(data):
    """Brute-force nonparametric estimate for p=1 binary w."""
    w = data.w[:, 0]
    total = 0.0
    for value in (0.0, 1.0):
        mask = w == value
        y1 = data.y[mask & (data.t == 1.0)].mean()
        y0 = data.y[mask & (data.t == 0.0)].mean()
        total += mask.mean() * (y1 - y0)
    return total


def cell_nuisances(data):
    """(pscore, m1, m0) of the fitted propensity and outcome model at the
    (t, w) cells of `data.cells`, each a (1, k) row."""
    propensity, outcome = fit_logistic(data), fit_ols_interacted(data)
    w = data.cells[0].w
    return propensity.predict_proba(w)[None], outcome.predict(1.0, w)[None], outcome.predict(0.0, w)[None]


class TestRegression:
    def test_no_covariates_difference_of_means(self):
        t = np.array([1.0] * 5 + [0.0] * 5)
        y = np.where(t == 1.0, 10.0, 4.0)
        [report] = estimate_many(ObservationSet(w=np.empty((10, 0)), t=t, y=y), ["reg"], [BATE])
        assert report.point == pytest.approx(6.0, abs=1e-10)

    def test_peb_identity(self, dataset):
        bate, peb1, peb0 = (r.point for r in estimate_many(dataset, ["reg"], [BATE, PEB1, PEB0]))
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)

    def test_report_fields(self, dataset):
        [report] = estimate_many(dataset, ["reg"], [PEB1], ci_level=0.9)
        assert report.estimator == "reg"
        assert report.n == dataset.n
        assert report.ci[0] < report.point < report.ci[1]


class TestSandwich:
    @pytest.mark.parametrize("seed,p", [(0, 1), (1, 2), (5, 3)])
    def test_bate_se_equals_ehw(self, seed, p):
        data = make_dataset(n=50, p=p, seed=seed)
        [report] = estimate_many(data, ["reg"], [BATE])
        assert report.se == pytest.approx(ehw_robust_se(data, 1), rel=1e-8)

    def test_row_duplication_scaling(self, dataset):
        idx = np.concatenate([np.arange(dataset.n)] * 2)
        doubled = ObservationSet(w=dataset.w[idx], t=dataset.t[idx], y=dataset.y[idx])
        once = estimate_many(dataset, ["reg"], [BATE, PEB1])
        twice = estimate_many(doubled, ["reg"], [BATE, PEB1])
        for r1, r2 in zip(once, twice):
            assert r2.se**2 == pytest.approx(r1.se**2 / 2.0, rel=1e-8)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_dgp(DgpSpec(), 500, seed=3),
            lambda: sample_dgp(DgpSpec(), 500, seed=11),
            lambda: make_dataset(n=200, p=1, seed=2),
            lambda: make_dataset(n=200, p=2, seed=3),
            lambda: make_dataset(n=500, p=3, seed=4),
            lambda: sample_dgp(DgpSpec(a_mean_slope=4.0), 2000, seed=7),
        ],
        ids=["paper500_s3", "paper500_s11", "p1", "p2", "p3", "weak_overlap"],
    )
    def test_every_estimand_se_matches_the_stacked_m_estimator(self, make):
        """reg's implied-weight influence values give the stacked sandwich's
        SE for all three estimands, not only for BATE."""
        data = make()
        estimands = (BATE, PEB1, PEB0)
        reports = estimate_many(data, ["reg"], estimands)
        expected = stacked_reg_se(data, np.array([e.contrast for e in estimands]))
        assert [r.se for r in reports] == pytest.approx(list(expected), rel=1e-9)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="np.longdouble is no wider than float64 here",
    )
    def test_se_within_1e_13_of_an_extended_precision_evaluation(self):
        data = sample_dgp(DgpSpec(a_mean_slope=4.0), 100_000, seed=12345)
        estimands = (BATE, PEB1, PEB0)
        reports = estimate_many(data, ["reg"], estimands)
        exact = stacked_reg_se(data, np.array([e.contrast for e in estimands]), dtype=np.longdouble)
        errors = [abs(r.se - float(e)) / float(e) for r, e in zip(reports, exact)]
        assert max(errors) <= 1e-13, errors

    def test_peb_se_close_to_bootstrap(self):
        data = make_dataset(n=300, p=1, seed=21)
        [report] = estimate_many(data, ["reg"], [PEB1])
        rng, points = np.random.default_rng(77), []
        for _ in range(500):
            idx = rng.integers(0, data.n, size=data.n)
            resample = ObservationSet(w=data.w[idx], t=data.t[idx], y=data.y[idx])
            points.append(estimate_many(resample, ["reg"], [PEB1])[0].point)
        assert report.se == pytest.approx(np.std(points, ddof=1), rel=0.15)


class TestIpw:
    def test_hand_computed_horvitz_thompson(self):
        data = ObservationSet(w=np.zeros((2, 1)), t=[1.0, 0.0], y=[3.0, 1.0])
        model = PropensityModel(intercept=0.0, coef=np.zeros(1))
        [report] = estimate_many(data, ["ipw"], [BATE], BootstrapConfig(replicates=30, seed=1), propensity=model)
        assert report.point == pytest.approx(2.0, abs=1e-12)
        assert report.se >= 0.0

    @pytest.mark.parametrize(
        "make, injected",
        [
            (lambda: sample_dgp(DgpSpec(), 500, seed=3), False),
            (lambda: make_dataset(n=300, p=2, seed=6), False),
            (lambda: sample_dgp(DgpSpec(), 500, seed=3), True),
        ],
        ids=["discrete", "continuous", "injected"],
    )
    def test_point_matches_a_per_unit_exact_sum(self, make, injected):
        """The point summed over the (t, w) cells against the Horvitz-Thompson
        sums over the units, each rounded once (math.fsum)."""
        data = make()
        model = PropensityModel(intercept=0.3, coef=np.full(data.p, -0.4)) if injected else None
        estimands = (BATE, PEB1, PEB0)
        reports = estimate_many(data, ["ipw"], estimands, BootstrapConfig(20, seed=0), propensity=model)
        e = (model or fit_logistic(data)).predict_proba(data.w)
        t, y = data.t, data.y
        arms = [math.fsum(v) / data.n for v in (t * y / e, (1 - t) * y / (1 - e), y)]
        for report, estimand in zip(reports, estimands):
            expected = math.fsum(c * arm for c, arm in zip(estimand.contrast, arms))
            assert report.point == pytest.approx(expected, rel=1e-12)

    def test_peb_identity(self):
        data = make_binary_w_dataset(n=80, seed=2)
        boot = BootstrapConfig(replicates=20, seed=0)
        bate, peb1, peb0 = (
            r.point for r in estimate_many(data, ["ipw"], [BATE, PEB1, PEB0], boot=boot)
        )
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)

    def test_seed_determinism(self):
        data = make_binary_w_dataset(n=60, seed=4)
        boot = BootstrapConfig(replicates=50, seed=123)
        [first] = estimate_many(data, ["ipw"], [BATE], boot=boot)
        [second] = estimate_many(data, ["ipw"], [BATE], boot=boot)
        assert first.se == second.se
        assert first.ci == second.ci

    def test_percentile_ci(self):
        data = make_binary_w_dataset(n=80, seed=5)
        boot = BootstrapConfig(replicates=200, seed=8, ci_method="percentile")
        [report] = estimate_many(data, ["ipw"], [BATE], boot=boot)
        assert report.ci[0] < report.ci[1]


def three_normal_covariates(n, seed):
    """w ~ N(0, I_3), a ~ N(5 + w1, 1.5), t = 1(a >= 6), y = a^3/10 + w.(1, 2, 3) + N(0, 1)."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, 3))
    a = rng.normal(5.0 + w[:, 0], 1.5)
    y = a**3 / 10.0 + w @ np.array([1.0, 2.0, 3.0]) + rng.normal(size=n)
    return ObservationSet(w=w, t=(a >= 6.0).astype(float), y=y)


IPW_GATE_B = 400
# the bootstrap SE's relative error is about 1/sqrt(2B); the band is four of those
IPW_GATE_BAND = 4.0 / np.sqrt(2 * IPW_GATE_B)
IPW_GATE_DESIGNS = {
    "paper_n500": lambda: sample_dgp(DgpSpec(), 500, seed=1),
    "paper_n2000": lambda: sample_dgp(DgpSpec(), 2000, seed=1),
    "overlap_1e5": lambda: sample_dgp(DgpSpec(a_mean_slope=4.0), 100_000, seed=7),
    "three_covariates_2e4": lambda: three_normal_covariates(20_000, seed=1),
}


class TestIpwSandwichGate:
    """The ipw bootstrap SE against the stacked M-estimator sandwich, for
    every estimand, with the band fixed from B alone."""

    @pytest.mark.parametrize("design", list(IPW_GATE_DESIGNS))
    def test_bootstrap_se_within_band_of_sandwich(self, design):
        data = IPW_GATE_DESIGNS[design]()
        estimands = (BATE, PEB1, PEB0)
        reports = estimate_many(data, ["ipw"], estimands, boot=BootstrapConfig(IPW_GATE_B, seed=0))
        sandwich = ipw_sandwich_se(data, np.array([e.contrast for e in estimands]))
        ratios = np.array([r.se for r in reports]) / sandwich
        assert np.all(np.abs(ratios - 1.0) <= IPW_GATE_BAND), f"bootstrap/sandwich ratios {ratios}"


IPW_AIPW_B = 4000
# Set before the refit rule it checks; these samples read 0.976-1.070. A propensity held fixed
# instead of refitted per resample reads 2.5-11.
IPW_AIPW_BAND = (0.95, 1.10)


class TestIpwBootstrapAgainstAipw:
    """On the saturated paper design ipw's point equals aipw's, so aipw's
    influence SE estimates the variance that ipw's bootstrap SE estimates
    (Hirano, Imbens & Ridder 2003): a reference at small n, where some
    resamples lose an arm in a covariate pattern and are redrawn."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [50, 150])
    def test_se_ratio_within_band(self, n, seed):
        data = sample_dgp(DgpSpec(), n, seed=seed)
        estimands = (BATE, PEB1, PEB0)
        ipw = estimate_many(data, ["ipw"], estimands, boot=BootstrapConfig(IPW_AIPW_B, seed=seed))
        aipw = estimate_many(data, ["aipw"], estimands)
        assert [r.point for r in ipw] == pytest.approx([r.point for r in aipw], rel=1e-10)
        ratios = np.array([i.se / a.se for i, a in zip(ipw, aipw)])
        low, high = IPW_AIPW_BAND
        assert np.all((low <= ratios) & (ratios <= high)), f"ipw/aipw SE ratios {ratios}"


class TestAipw:
    def test_reduces_to_plug_in_when_outcome_model_is_exact(self):
        rng = np.random.default_rng(6)
        n = 50
        w = rng.normal(size=(n, 1))
        t = (rng.random(n) < 0.5).astype(float)
        t[:2] = [0.0, 1.0]
        wc = w - w.mean(axis=0)
        y = 1.0 + 2.0 * t + 0.7 * wc[:, 0] + 0.3 * t * wc[:, 0]  # zero residuals
        data = ObservationSet(w=w, t=t, y=y)
        aipw, reg = estimate_many(data, ["aipw", "reg"], [BATE])
        assert aipw.point == pytest.approx(reg.point, abs=1e-8)

    def test_influence_mean_zero_and_se(self, dataset):
        for estimand in (BATE, PEB1, PEB0):
            phi = aipw_influence(dataset, estimand)
            assert abs(phi.mean()) < 1e-8
            [report] = estimate_many(dataset, ["aipw"], [estimand])
            assert report.se == pytest.approx(np.sqrt(np.mean(phi**2) / dataset.n), rel=1e-12)

    def test_peb_identity(self, dataset):
        bate, peb1, peb0 = (r.point for r in estimate_many(dataset, ["aipw"], [BATE, PEB1, PEB0]))
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)


class TestTmle:
    def test_saturated_case_has_zero_fluctuation(self):
        data = make_binary_w_dataset(n=60, seed=9)
        for estimand in (BATE, PEB1):
            fit = tmle_update(data, estimand)
            assert fit.fluctuation == pytest.approx(0.0, abs=1e-8)
        reg, tmle = estimate_many(data, ["reg", "tmle"], [BATE])
        assert tmle.point == pytest.approx(reg.point, abs=1e-8)

    def test_influence_mean_zero_after_update(self, dgp):
        data = sample_dgp(dgp, 400, seed=3)
        for estimand in (BATE, PEB1, PEB0):
            fit = tmle_update(data, estimand)
            scale = max(1.0, np.abs(fit.influence).max())
            assert abs(fit.influence.mean()) / scale < 1e-8

    def test_affine_rescaling_invariance(self):
        data = make_dataset(n=80, p=2, seed=13, y_scale=3.0)
        scaled = ObservationSet(w=data.w, t=data.t, y=4.5 * data.y - 11.0)
        bases = estimate_many(data, ["tmle"], [BATE, PEB1])
        for base, rescaled in zip(bases, estimate_many(scaled, ["tmle"], [BATE, PEB1])):
            assert rescaled.point / 4.5 == pytest.approx(base.point, rel=1e-6)

    def test_agrees_with_aipw_on_dgp(self, dgp):
        diffs = []
        for rep in range(20):
            data = sample_dgp(dgp, 500, seed=[100, rep])
            tmle, aipw = estimate_many(data, ["tmle", "aipw"], [BATE])
            diffs.append(abs(tmle.point - aipw.point))
        assert np.mean(diffs) < 0.5


def constant_outcome(n=60, seed=2):
    """make_dataset's covariates and arms with y constant: the TMLE scaling has span 0."""
    data = make_dataset(n=n, p=1, seed=seed)
    return ObservationSet(w=data.w, t=data.t, y=np.full(n, 3.5))


TMLE_DESIGNS = {
    "paper": lambda: sample_dgp(DgpSpec(), 500, seed=3),
    "p3": lambda: make_dataset(n=200, p=3, seed=4),
    "weak_overlap": lambda: sample_dgp(DgpSpec(a_mean_slope=4.0), 2000, seed=7),
    "constant_y": constant_outcome,
}


class TestTmleSharedStart:
    """One tmle call for several estimands shares the untargeted start and
    gives exactly what one call per estimand gives."""

    @pytest.mark.parametrize("design", list(TMLE_DESIGNS))
    def test_joint_call_equals_one_call_per_estimand(self, design):
        data = TMLE_DESIGNS[design]()
        estimands = (BATE, PEB1, PEB0)
        joint = estimate_many(data, ["tmle"], estimands)
        contrasts = np.array([e.contrast for e in estimands])
        fits = estimators._tmle_fits(data.cells[0], *cell_nuisances(data), contrasts)
        for e, report, (point, a, b, beta) in zip(estimands, joint, fits):
            [single] = estimate_many(data, ["tmle"], [e])
            update = tmle_update(data, e)
            assert report == single
            assert report.point == update.point == point[0]
            assert report.se == pytest.approx(np.sqrt(np.mean(update.influence**2) / data.n), rel=1e-12)
            assert update.fluctuation == beta[0]
            assert np.array_equal(update.influence, estimators._unit_influence(data, a[0], b[0]))

    def test_start_is_scaled_once_per_call(self, monkeypatch):
        """The untargeted start is scaled once per call, the fluctuation
        evaluates `expit` once per coefficient it tries, and every `expit` and
        `logit` runs on the k = 4 cells, not on the units."""
        data = sample_dgp(DgpSpec(), 500, seed=3)
        logits = count_calls(monkeypatch, "logit")
        expit_args = []
        expit = estimators.expit
        monkeypatch.setattr(estimators, "expit", lambda x: expit_args.append(x) or expit(x))
        estimate_many(data, ["tmle"], [BATE])
        one = len(logits)
        per_estimand = []
        for e in (BATE, PEB1, PEB0):
            expit_args.clear()
            estimate_many(data, ["tmle"], [e])
            # a repeated argument is a coefficient evaluated twice
            assert not any(np.array_equal(a, b) for i, a in enumerate(expit_args) for b in expit_args[:i])
            per_estimand.append(len(expit_args))
        logits.clear()
        expit_args.clear()
        estimate_many(data, ["tmle"], [BATE, PEB1, PEB0])
        assert one > 0 and len(logits) == one
        assert len(expit_args) == sum(per_estimand)
        assert max(np.size(call[0]) for call in logits) <= 4
        assert max(np.size(x) for x in expit_args) <= 4


def unit_tmle(data, estimand):
    """(fluctuation, point) of TMLE with the fluctuation fitted on the units,
    one row each: the reference for the fluctuation on cells. Newton steps
    with halving, written out from the estimator's definition, with every
    sum over the units an elementwise product's `.sum()` as in the estimator."""
    cell = data.cells[1]
    pscore, m1, m0 = (v[0, cell] for v in cell_nuisances(data))  # one value per unit
    t, y = data.t, data.y
    lo = float(y.min())
    span = float(y.max()) - lo
    ys = (y - lo) / span
    logit_q1, logit_q0 = (logit(np.clip((m - lo) / span, 5e-4, 1.0 - 5e-4)) for m in (m1, m0))
    c1, c0, c_y = estimand.contrast
    h1, h0 = c1 / pscore + c_y, c0 / (1.0 - pscore) + c_y
    offset, h = np.where(t == 1.0, logit_q1, logit_q0), np.where(t == 1.0, h1, h0)

    def loglik(beta):
        probs = np.clip(expit(offset + beta * h), 1e-12, 1.0 - 1e-12)
        return float((ys * np.log(probs)).sum() + ((1.0 - ys) * np.log(1.0 - probs)).sum())

    beta, current = 0.0, loglik(0.0)
    for _ in range(100):
        probs = expit(offset + beta * h)
        curvature = float((h * h * (probs * (1.0 - probs))).sum())
        if curvature <= 0.0:
            break
        step = float((h * (ys - probs)).sum()) / curvature
        for _ in range(40):
            candidate = loglik(beta + step)
            if candidate >= current - 1e-12:
                break
            step /= 2.0
        else:
            candidate = loglik(beta + step)
        beta, current = beta + step, candidate
        if abs(step) < 1e-10:
            break
    q1, q0 = expit(logit_q1 + beta * h1), expit(logit_q0 + beta * h0)
    y1, y0 = lo + span * q1, lo + span * q0
    plug_in = c1 * y1 + c0 * y0 + c_y * (lo + span * np.where(t == 1.0, q1, q0))
    return beta, float(np.mean(plug_in))


class TestTmleOnCells:
    """The targeting step fitted on the (t, w) cells against the units."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_dgp(DgpSpec(), 500, seed=7),
            lambda: two_binary_covariates(200, seed=1),
            lambda: sample_dgp(DgpSpec(a_mean_slope=4.0), 100_000, seed=3),
        ],
        ids=["paper500", "two_binary", "overlap1e5"],
    )
    @pytest.mark.parametrize("estimand", [BATE, PEB1, PEB0], ids=lambda e: e.key)
    def test_matches_the_units_on_discrete_designs(self, make, estimand):
        data = make()
        assert data.cells[0].t.size < data.n
        fit = tmle_update(data, estimand)
        beta, point = unit_tmle(data, estimand)
        assert fit.fluctuation == pytest.approx(beta, abs=1e-10)
        assert fit.point == pytest.approx(point, abs=1e-10)

    @pytest.mark.parametrize("n, p, seed", [(90, 2, 8), (2000, 3, 1)])
    @pytest.mark.parametrize("estimand", [BATE, PEB1, PEB0], ids=lambda e: e.key)
    def test_bit_identical_on_continuous_designs(self, n, p, seed, estimand):
        data = make_dataset(n=n, p=p, seed=seed)
        fit = tmle_update(data, estimand)
        assert (fit.fluctuation, fit.point) == unit_tmle(data, estimand)


def extended_reference(data, name, estimands):
    """(point, SE) per estimand of reg, aipw or tmle from per-unit influence
    values evaluated in np.longdouble: the reference for the sums over the
    cells. Built from the estimator's own nuisances (the fits, their
    predictions read at each unit's cell, and tmle's fluctuation); every
    point and sum of squares is then one sum over the n units."""
    L = np.longdouble
    cell = data.cells[1]
    n, t, y = data.n, data.t.astype(L), data.y.astype(L)
    e, m1, m0 = (v[0, cell].astype(L) for v in cell_nuisances(data))
    out = []
    for estimand in estimands:
        c1, c0, c_y = (L(c) for c in estimand.contrast)
        if name == "reg":
            fit = fit_ols_interacted(data)
            wc = data.w.astype(L) - fit.w_mean.astype(L)
            beta_w, beta_interact = fit.beta_w.astype(L), fit.beta_interact.astype(L)
            fitted = L(fit.beta0) + t * L(fit.beta_t) + wc @ beta_w + t * (wc @ beta_interact)
            phi = c_y * (y - y.mean() - wc @ beta_w)
            for c, arm in ((c1, t), (c0, 1 - t)):
                centre = (arm[:, None] * wc).sum(axis=0) / arm.sum()
                dev = wc - centre
                tilt = gauss_jordan_inverse((arm[:, None] * dev).T @ dev) @ centre
                phi = phi + c * arm * (n / arm.sum() - n * (dev @ tilt)) * (y - fitted)
            point = c1 * (L(fit.beta0) + L(fit.beta_t)) + c0 * L(fit.beta0) + c_y * y.mean()
        elif name == "aipw":
            z = c1 * (t / e * (y - m1) + m1) + c0 * ((1 - t) / (1 - e) * (y - m0) + m0) + c_y * y
            point = z.mean()
            phi = z - point
        else:
            beta = L(tmle_update(data, estimand).fluctuation)
            lo, span = y.min(), y.max() - y.min()
            q1, q0 = (logit(np.clip((m - lo) / span, L(5e-4), 1 - L(5e-4))) for m in (m1, m0))
            h1, h0 = c1 / e + c_y, c0 / (1 - e) + c_y
            y1, y0 = lo + span * expit(q1 + beta * h1), lo + span * expit(q0 + beta * h0)
            plug_in = c1 * y1 + c0 * y0 + c_y * np.where(t == 1, y1, y0)
            point = plug_in.mean()
            phi = np.where(t == 1, h1, h0) * (y - np.where(t == 1, y1, y0)) + plug_in - point
        out.append((point, np.sqrt((phi * phi).sum()) / n))
    return out


EXACT_DESIGNS = {
    "paper500_s1": lambda: sample_dgp(DgpSpec(), 500, seed=1),
    "paper500_s2": lambda: sample_dgp(DgpSpec(), 500, seed=2),
    "p1": lambda: make_dataset(n=300, p=1, seed=5),
    "p2": lambda: make_dataset(n=300, p=2, seed=6),
    "p3": lambda: make_dataset(n=300, p=3, seed=7),
    "two_binary": lambda: two_binary_covariates(400, seed=3),
    "overlap1e5": lambda: sample_dgp(DgpSpec(a_mean_slope=4.0), 100_000, seed=12345),
}


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
class TestCellSumsAgainstExtendedPrecision:
    """reg, aipw and tmle points and SEs, summed over the (t, w) cells from
    each cell's size, mean and centred second moment of y, against per-unit
    sums in extended precision: points within 1e-9 SE, SEs within 1e-9
    relative."""

    @staticmethod
    def errors(data, name):
        estimands = (BATE, PEB1, PEB0)
        reports = estimate_many(data, [name], estimands)
        exact = extended_reference(data, name, estimands)
        return [
            (float(abs(np.longdouble(r.point) - point) / se), float(abs(np.longdouble(r.se) - se) / se))
            for r, (point, se) in zip(reports, exact)
        ]

    @pytest.mark.parametrize("design", list(EXACT_DESIGNS))
    @pytest.mark.parametrize("name", ["reg", "aipw", "tmle"])
    def test_points_and_ses(self, design, name):
        errors = self.errors(EXACT_DESIGNS[design](), name)
        assert max(max(pair) for pair in errors) <= 1e-9, errors

    def test_centred_moments_survive_a_large_mean(self):
        """y + 1e6 on the weak-overlap sample: a second moment taken as the
        raw sum of y^2 less n ybar^2 loses the SE to cancellation."""
        base = EXACT_DESIGNS["overlap1e5"]()
        data = ObservationSet(w=base.w, t=base.t, y=base.y + 1e6)
        errors = self.errors(data, "aipw")
        assert max(se for _, se in errors) <= 1e-9, errors


class TestBootstrapConfig:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            BootstrapConfig(replicates=20, seed=-1)
        BootstrapConfig(replicates=20, seed=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "seed, message",
        [(-1, "non-negative, got -1"), (np.int64(-2), "non-negative, got -2"), ([3, -1], "non-negative, got [3, -1]"),
         (1.5, "an integer or a sequence of integers, got 1.5"),
         ([1.5], "an integer or a sequence of integers, got [1.5]")],
        ids=["negative", "numpy_negative", "negative_in_sequence", "float", "float_in_sequence"],
    )
    def test_a_bad_seed_is_a_validation_error(self, seed, message):
        with pytest.raises(ValidationError, match=f"^bootstrap seed must be {re.escape(message)}$"):
            BootstrapConfig(replicates=20, seed=seed)

    @pytest.mark.parametrize(
        "seed", [7, np.uint32(7), [7, 2], np.random.SeedSequence(7)],
        ids=["int", "numpy_int", "sequence", "seed_sequence"],
    )
    def test_a_seed_resamples_as_its_generator_does(self, seed):
        """ipw's bootstrap draws from default_rng(seed), or from a Generator
        itself, which it advances."""
        data = make_dataset(n=50, p=1, seed=2)
        rng = np.random.default_rng(seed)
        by_seed, by_rng = (
            estimate_many(data, ["ipw"], [BATE, PEB1], BootstrapConfig(30, s, ci_method="percentile"))
            for s in (seed, rng)
        )
        assert by_seed == by_rng
        assert rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state

    def test_bad_level_rejected_before_resampling(self):
        data = make_dataset(n=100, p=1, seed=2)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="ci_level"):
            estimate_many(data, ["ipw"], [BATE], BootstrapConfig(replicates=20, seed=rng), ci_level=1.5)
        assert rng.bit_generator.state == state

    def test_empty_sample_rejected_before_resampling(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateArmError, match="both treatment arms must be present"):
            estimate_many(ObservationSet(w=np.empty((0, 1)), t=[], y=[]), ["ipw"], [BATE], BootstrapConfig(10, rng))
        assert rng.bit_generator.state == state


class TestEstimatorProperties:
    @given(seed=st.integers(0, 2**31), p=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_peb_decomposition_holds_everywhere(self, seed, p):
        data = make_dataset(n=45, p=p, seed=seed)
        for name in ("reg", "aipw"):
            bate, peb1, peb0 = (r.point for r in estimate_many(data, [name], [BATE, PEB1, PEB0]))
            assert peb1 - peb0 == pytest.approx(bate, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 50.0), shift=st.floats(-100.0, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_tmle_affine_equivariance(self, seed, scale, shift):
        data = make_dataset(n=60, p=1, seed=seed)
        rescaled = ObservationSet(w=data.w, t=data.t, y=scale * data.y + shift)
        [base] = estimate_many(data, ["tmle"], [BATE])
        [report] = estimate_many(rescaled, ["tmle"], [BATE])
        assert report.point == pytest.approx(
            scale * base.point, rel=1e-6, abs=1e-6 * max(1.0, scale)
        )


class TestCrossEstimatorEquivalences:
    def test_all_four_match_stratified_plug_in(self):
        data = make_binary_w_dataset(n=70, seed=1)
        brute = stratified_plug_in_bate(data)
        reports = estimate_many(
            data, ESTIMATOR_NAMES, [BATE], boot=BootstrapConfig(replicates=10, seed=0)
        )
        for report in reports:
            assert report.point == pytest.approx(brute, abs=1e-8)

    def test_permutation_invariance(self, dataset):
        perm = np.random.default_rng(33).permutation(dataset.n)
        shuffled = ObservationSet(w=dataset.w[perm], t=dataset.t[perm], y=dataset.y[perm])
        boot = BootstrapConfig(replicates=10, seed=0)
        moved = estimate_many(shuffled, ESTIMATOR_NAMES, [BATE], boot=boot)
        for m, base in zip(moved, estimate_many(dataset, ESTIMATOR_NAMES, [BATE], boot=boot)):
            assert m.point == pytest.approx(base.point, rel=1e-9)


def mirrored_reports(spec, n, seed):
    """Every estimator x estimand under GEQ and under LT at the same cutoff.

    LT relabels the arms (t -> 1 - t on tie-free data), which swaps mu1 and
    mu0 and leaves E[Y] alone: BATE changes sign and PEB1 and PEB0 trade places.
    """
    geq = sample_dgp(spec, n, seed=seed)
    lt = geq.with_rule(BinarizationRule(spec.cutoff, Direction.LT))
    boot = BootstrapConfig(replicates=20, seed=7)
    by_key = []
    for data in (geq, lt):
        reports = estimate_many(data, ESTIMATOR_NAMES, (BATE, PEB1, PEB0), boot=boot)
        by_key.append({(r.estimator, r.estimand.key): r for r in reports})
    return by_key


MIRROR = {"bate": ("bate", -1.0), "peb1": ("peb0", 1.0), "peb0": ("peb1", 1.0)}


class TestMirrorIdentity:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=8, deadline=None)
    def test_relabelled_arms_mirror_points_and_ses(self, dgp, seed):
        geq, lt = mirrored_reports(dgp, 500, seed)
        for (name, key), report in lt.items():
            mirror_key, sign = MIRROR[key]
            mirror = geq[(name, mirror_key)]
            assert report.point == pytest.approx(sign * mirror.point, rel=1e-10)
            if name != "reg" or key == "bate":
                assert report.se == pytest.approx(mirror.se, rel=1e-10)

    @pytest.mark.xfail(
        strict=True,
        reason="reg's stacked sandwich holds the covariate mean fixed, which drops "
        "beta_interact . (w_i - w_bar) from the BATE and PEB1 influence values",
    )
    @pytest.mark.parametrize("key", ["peb1", "peb0"])
    def test_reg_peb_se_symmetric_under_relabelling(self, dgp, key):
        geq, lt = mirrored_reports(dgp, 500, 11)
        assert lt[("reg", key)].se == pytest.approx(geq[("reg", MIRROR[key][0])].se, rel=1e-6)


def count_calls(monkeypatch, name, module=estimators):
    """Replace module.<name> with a wrapper; returns the list of its calls'
    arguments, keyword ones by name and positional ones by position."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append({**dict(enumerate(args)), **kwargs})
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestEstimateMany:
    def test_matches_separate_calls_with_each_nuisance_fitted_once(self, monkeypatch):
        data = make_dataset(n=90, p=2, seed=8)
        estimands = (BATE, PEB1, PEB0)
        boot = BootstrapConfig(replicates=25, seed=3)
        separate = [
            report
            for name in ESTIMATOR_NAMES
            for e in estimands
            for report in estimate_many(data, [name], [e], boot=boot, seed=3)
        ]
        ols = count_calls(monkeypatch, "ols_fits")
        logistic = count_calls(monkeypatch, "logistic_fits")
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        positivity = count_calls(monkeypatch, "positivity_diagnostic")
        joint = estimate_many(data, ESTIMATOR_NAMES, estimands, boot=boot, seed=3)
        # the joint bootstrap reduces a wider array, so its SD may differ in the last bit
        assert [replace(r, se=0.0, ci=(0.0, 0.0)) for r in joint] == [
            replace(r, se=0.0, ci=(0.0, 0.0)) for r in separate
        ]
        for j, s in zip(joint, separate):
            assert j.se == pytest.approx(s.se, rel=1e-12)
            assert j.ci == pytest.approx(s.ci, rel=1e-12)
        assert len(ols) == 1
        assert len(positivity) == 1
        # one cold full-sample fit and no per-resample fits: with no redraws the
        # resamples form one block, refitted by a single batched IRLS call
        assert [kw.get("start") is None for kw in logistic] == [True]
        assert not any("redrew" in note for r in joint for note in r.diagnostics)
        shapes = [kw["counts"].shape for kw in irls]
        assert shapes == [(1, data.n), (boot.replicates, data.n)]

    def test_predictions_run_on_the_cell_rows(self, monkeypatch):
        """reg, aipw and tmle evaluate the propensity and the outcome model
        on the 4 (t, w) cell rows of the paper design, never on the units."""
        data = sample_dgp(DgpSpec(), 2000, seed=1)
        propensity = count_calls(monkeypatch, "predict_proba", module=PropensityModel)
        outcome = count_calls(monkeypatch, "predict", module=RegressionFit)
        estimate_many(data, ["reg", "aipw", "tmle"], (BATE, PEB1, PEB0))
        assert propensity and outcome
        assert {np.shape(call[1]) for call in propensity} == {(4, 1)}  # call[0] is the model
        assert {np.shape(call[2]) for call in outcome} == {(4, 1)}  # call[1] is t

    def test_injected_propensity_is_never_refit(self, monkeypatch):
        data = make_binary_w_dataset(n=60, seed=3)
        model = PropensityModel(intercept=0.1, coef=np.array([0.2]))
        logistic = count_calls(monkeypatch, "logistic_fits")
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        reports = estimate_many(data, ["ipw", "aipw"], [BATE], BootstrapConfig(replicates=10, seed=0), propensity=model)
        assert [r.estimator for r in reports] == ["ipw", "aipw"]
        assert logistic == []
        assert irls == []

    def test_estimates_do_not_depend_on_the_layout_of_w(self):
        """An F-ordered covariate matrix gives the same bytes as a C-ordered one."""
        data = make_dataset(n=200, p=3, seed=4)
        flipped = ObservationSet(w=np.asfortranarray(data.w), t=data.t, y=data.y)
        boot = BootstrapConfig(50, seed=0)
        reports = [
            [(r.point, r.se, r.ci) for r in estimate_many(d, ESTIMATOR_NAMES, (BATE, PEB1, PEB0), boot=boot)]
            for d in (data, flipped)
        ]
        assert reports[0] == reports[1]

    def test_one_grouping_per_sample(self, monkeypatch):
        data = sample_dgp(DgpSpec(), 300, seed=2)
        groupings = count_calls(monkeypatch, "_group_rows", module=core)
        estimate_many(data, ESTIMATOR_NAMES, (BATE, PEB1, PEB0), boot=BootstrapConfig(50, seed=0))
        assert len(groupings) == 1

    def test_rejects_bad_arguments_before_fitting(self, monkeypatch):
        data = make_dataset(n=40, seed=1)
        ols = count_calls(monkeypatch, "ols_fits")
        with pytest.raises(ValidationError, match="ci_level"):
            estimate_many(data, ["reg"], [BATE], ci_level=0.0)
        with pytest.raises(ValidationError, match="unknown estimator"):
            estimate_many(data, ["reg", "magic"], [BATE])
        assert ols == []

    @pytest.mark.parametrize(
        "names, estimands, repeated",
        [
            (["ipw", "ipw"], [BATE], "estimator 'ipw'"),
            (["reg", "ipw", "aipw", "reg"], [BATE], "estimator 'reg'"),
            (["ipw"], [BATE, PEB1, BATE], "estimand 'bate'"),
            (["reg", "tmle"], [PEB0, PEB0], "estimand 'peb0'"),
        ],
        ids=["ipw_twice", "reg_twice", "bate_twice", "peb0_twice"],
    )
    def test_a_repeated_estimator_is_rejected_before_any_fit_or_draw(self, monkeypatch, names, estimands, repeated):
        data = make_dataset(n=40, seed=1)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        fits = [count_calls(monkeypatch, name) for name in ("ols_fits", "logistic_fits", "_resample_cells")]
        with pytest.raises(ValidationError, match=f"^{repeated} is named more than once$"):
            estimate_many(data, names, estimands, BootstrapConfig(20, seed=rng))
        assert fits == [[], [], []]
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "injected",
        [{"outcome": RegressionFit(0.0, 0.0, np.zeros(2), np.zeros(2), np.zeros(2))},
         {"propensity": PropensityModel(0.0, np.zeros(2))}],
        ids=["outcome", "propensity"],
    )
    def test_injected_models_are_checked_before_any_fit_or_draw(self, monkeypatch, injected):
        """A model for p = 2 on a p = 1 sample is rejected before ipw, named
        first, fits or draws anything."""
        data = make_dataset(n=60, p=1, seed=4)
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        fits = [count_calls(monkeypatch, name) for name in ("ols_fits", "logistic_fits", "_resample_cells")]
        with pytest.raises(ValidationError, match="do not end in p=2 entries"):
            estimate_many(data, ["ipw", "aipw"], [BATE], boot=BootstrapConfig(10, seed=rng), **injected)
        assert fits == [[], [], []]
        assert rng.bit_generator.state == state


INJECTED_DESIGNS = {
    "paper": lambda: sample_dgp(DgpSpec(), 500, seed=3),
    "normal_p3": lambda: three_normal_covariates(300, seed=6),
}


class TestInjectedModels:
    """A prefit outcome model, propensity or both give `aipw_influence` and
    `tmle_update` the numbers `estimate_many` reports with the same models."""

    @pytest.mark.parametrize("case", ["outcome", "propensity", "both"])
    @pytest.mark.parametrize("design", list(INJECTED_DESIGNS))
    def test_entry_points_agree_on_injected_models(self, design, case):
        data = INJECTED_DESIGNS[design]()
        other = ObservationSet(w=data.w[::-1], t=data.t, y=data.y)  # the covariates of other units
        models = {
            "outcome": fit_ols_interacted(other) if case in ("outcome", "both") else None,
            "propensity": fit_logistic(other) if case in ("propensity", "both") else None,
        }
        estimands = (BATE, PEB1, PEB0)
        aipw = estimate_many(data, ["aipw"], estimands, **models)
        tmle = estimate_many(data, ["tmle"], estimands, **models)
        fitted = estimate_many(data, ["tmle"], estimands)
        for e, aipw_report, tmle_report, fitted_report in zip(estimands, aipw, tmle, fitted):
            phi = aipw_influence(data, e, **models)
            assert aipw_report.se == pytest.approx(np.sqrt(np.mean(phi**2) / data.n), rel=1e-12)
            update = tmle_update(data, e, **models)
            assert tmle_report.point == pytest.approx(update.point, rel=1e-12)
            assert tmle_report.se == pytest.approx(np.sqrt(np.mean(update.influence**2) / data.n), rel=1e-12)
            assert tmle_report != fitted_report  # the injected models were used


def one_arm_sample():
    return ObservationSet(w=np.arange(8.0), t=np.ones(8), y=np.arange(8.0))


def collinear_sample():
    """w2 = 2 w1: both the interacted OLS and the logistic design are singular."""
    rng = np.random.default_rng(4)
    t = (rng.random(30) < 0.5).astype(float)
    t[:2] = [0.0, 1.0]
    w1 = rng.normal(size=30)
    return ObservationSet(w=np.column_stack([w1, 2.0 * w1]), t=t, y=rng.normal(size=30))


def one_minority_unit_per_category():
    """16 categories of 8 units, each with one unit in the other arm: a
    resample keeps all 16 about once in 1 500 draws."""
    w = np.zeros((128, 15))
    for c in range(1, 16):
        w[8 * c : 8 * c + 8, c - 1] = 1.0
    t = np.tile(np.r_[0.0, np.ones(7)], 16)
    odd = np.arange(128) // 8 % 2 == 1
    t[odd] = 1.0 - t[odd]
    return ObservationSet(w=w, t=t, y=np.arange(128.0))


SEPARATED = "the treatment arms appear (quasi-)separated"
FAILURES = {
    "one_arm_reg": (one_arm_sample, ["reg"], DegenerateArmError,
                    "cannot fit the outcome regression: every unit has t=1"),
    "one_arm_propensity": (one_arm_sample, ["aipw", "reg"], DegenerateArmError,
                           "cannot fit the propensity model: both treatment arms must be present"),
    "separated": (
        lambda: ObservationSet(w=[2.5, 1.0, -3.9, 2.7, 1.3, -1.6, 1.7], t=[1, 0, 0, 1, 0, 0, 1], y=np.arange(7.0)),
        ["ipw"], SeparationError, f"logistic coefficients exceeded 30 in magnitude; {SEPARATED}",
    ),
    "diverged": (
        lambda: ObservationSet(w=[1.8, 4.1, -2.2, -5.0, 0.7, -4.0], t=[1, 1, 0, 0, 1, 0], y=np.arange(6.0)),
        ["tmle"], SeparationError,
        "logistic fit diverged (singular weighted Hessian at large coefficients); the treatment arms appear separated",
    ),
    "collinear_ols": (collinear_sample, ["reg", "ipw"], SingularDesignError,
                      "singular design matrix; collinear columns: w1, w2, t:w1, t:w2"),
    "collinear_logistic": (collinear_sample, ["ipw", "reg"], SingularDesignError,
                           "singular logistic design; collinear columns: w1, w2"),
    "n4_propensity_first": (lambda: sample_dgp(DgpSpec(), 4, 0), ["ipw", "reg"], SeparationError,
                            f"logistic coefficients exceeded 30 in magnitude; {SEPARATED}"),
    "n4_ols_first": (lambda: sample_dgp(DgpSpec(), 4, 0), ["reg", "ipw"], ValidationError,
                     "need n > 4 rows to fit 4 coefficients, got n=4"),
    "bootstrap_gives_up": (one_minority_unit_per_category, ["ipw"], ConvergenceError,
                           "bootstrap gave up after 1002 redraws of degenerate resamples"),
    "irls": (
        lambda: ObservationSet(w=[0.5, 0.8, 2.0, -5.0, -4.3, -4.3], t=[1, 1, 1, 0, 0, 0], y=np.arange(6.0)),
        ["aipw"], ConvergenceError, "IRLS did not converge in 100 iterations; last step sizes: 1, 1, 1, 1, 1",
    ),
    "untargeted_tmle": (
        lambda: ObservationSet(
            w=[-1.42, 0.95, 0.66, -1.53, -0.27, -0.2, -1.31, -1.11, -0.87, -1.86, -0.5],
            t=[0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0], y=[0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0],
        ),
        ["tmle"], ConvergenceError, "targeting fluctuation did not converge in 100 iterations",
    ),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failures_keep_their_class_and_message(case, tmp_path, capsys):
    """estimate_many raises the first failing estimator's error, class and
    full message, and `estimate` prints it with its exit code."""
    make, names, error, message = FAILURES[case]
    data = make()
    with pytest.raises(error) as info:
        estimate_many(data, names, [BATE], boot=BootstrapConfig(2, seed=0))
    assert type(info.value) is error and str(info.value) == message
    save_csv(data, tmp_path / "data.csv")
    code = cli.main(["estimate", "--input", str(tmp_path / "data.csv"), "--estimator", ",".join(names),
                     "--boot-reps", "2", "--seed", "0"])
    prefix = "error" if error is ValidationError else "estimation error"
    assert (code, capsys.readouterr().err) == (1 if error is ValidationError else 2, f"{prefix}: {message}\n")


def three_binary_covariates(n, seed):
    """Three binary covariates: 16 (t, w) cells, enough for numpy's pairwise
    sum over the cells to reorder terms in a non-contiguous reduction."""
    rng = np.random.default_rng(seed)
    w = (rng.random((n, 3)) < 0.5).astype(float)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(w[:, 2] - w[:, 0]))).astype(float)
    return ObservationSet(w=w, t=t, y=t + w.sum(axis=1) + rng.normal(size=n))


def test_a_batch_of_samples_gives_each_the_numbers_it_gets_alone():
    """estimate_cells on samples that share their cell rows gives each one
    exactly what estimate_many gives it alone."""
    samples = [three_binary_covariates(400, seed) for seed in range(5)]
    cells = [d.cells[0] for d in samples]
    assert len({(c.w.tobytes(), c.t.tobytes()) for c in cells}) == 1 and cells[0].t.size == 16
    estimands = (BATE, PEB1, PEB0)
    contrasts = np.array([e.contrast for e in estimands])
    batch, _ = estimators.estimate_cells(CellBatch.stack(cells), ["reg", "aipw", "tmle"], contrasts)
    for name, (points, ses, failures, *_) in batch.items():
        assert failures == [None] * len(samples)
        for data, row_points, row_ses in zip(samples, points, ses):
            reports = estimate_many(data, [name], estimands)
            assert list(row_points) == [r.point for r in reports]
            assert list(row_ses) == [r.se for r in reports]


def fluctuation_batch(seed, r=40, k=7):
    """(ys_sums, sizes, offset, h) of r samples on k cells, and each row's
    kind (row % 4): random; flat (h = 0); ys = 0 with h > 0, whose
    likelihood rises without bound; and an offset far above ys, where the
    first Newton step may overshoot and be halved."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 30, (r, k)).astype(float)
    ys, offset, h = sizes * rng.random((r, k)), rng.normal(0.0, 3.0, (r, k)), rng.normal(0.0, 20.0, (r, k))
    kind = np.arange(r) % 4
    h[kind == 1] = 0.0
    ys[kind == 2], h[kind == 2] = 0.0, np.abs(h[kind == 2]) + 1.0
    ys[kind == 3], offset[kind == 3], h[kind == 3] = 0.2 * sizes[kind == 3], 3.0, rng.uniform(0.5, 2.0, (r // 4, k))
    return (ys, sizes, offset, h), kind


def first_step_overshoots(ys, sizes, offset, h):
    """Whether the full first Newton step of one sample's fluctuation lowers its log likelihood."""
    def loglik(beta):
        probs = np.clip(expit(offset + beta * h), 1e-12, 1.0 - 1e-12)
        return (ys * np.log(probs) + (sizes - ys) * np.log(1.0 - probs)).sum()

    probs = expit(offset)
    step = (h * (ys - sizes * probs)).sum() / (h * h * sizes * probs * (1.0 - probs)).sum()
    return loglik(step) < loglik(0.0) - 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_fluctuated_sample_gets_the_bytes_it_gets_alone(seed, monkeypatch):
    """`_fluctuate` on a batch gives each row the coefficient that row gets
    fluctuated alone, byte for byte: flat rows (NaN), rows whose step is
    halved and rows that do not converge in 100 iterations (NaN) included."""
    args, kind = fluctuation_batch(seed)
    batch = estimators._fluctuate(*args)
    tried = count_calls(monkeypatch, "expit")  # one call per coefficient a lone sample tries
    for i in range(kind.size):
        tried.clear()
        alone = estimators._fluctuate(*(v[i : i + 1] for v in args))
        assert alone.tobytes() == batch[i].tobytes()
        if kind[i] == 2:
            assert len(tried) == estimators._TMLE_MAX_ITER + 1
    assert np.isnan(batch[kind == 1]).all() and np.isnan(batch[kind == 2]).all()
    assert np.isfinite(batch[kind == 3]).all()
    assert any(first_step_overshoots(*(v[i] for v in args)) for i in np.flatnonzero(kind == 3))


@pytest.mark.parametrize("seed", [0, 1])
def test_a_large_fluctuation_stops_only_once_its_score_equation_is_solved(seed):
    """Sixteen samples of 50 000 one-unit cells, whose log likelihood (about
    -3e4) is spaced wider than 1e-12: a late Newton step that raises it by
    less than that spacing is taken, not halved away, so every row that
    converges is left with a Newton step below the tolerance."""
    rng = np.random.default_rng(seed)
    r, k = 16, 50_000
    pscore = rng.uniform(0.2, 0.8, (r, k))
    h = np.where(rng.random((r, k)) < pscore, 1.0 / pscore, 0.0)
    offset = rng.normal(0.0, 1.0, (r, k))
    ys, sizes = expit(offset + 0.05 * h + rng.normal(0.0, 0.3, (r, k))), np.ones((r, k))
    beta = estimators._fluctuate(ys, sizes, offset, h)
    assert np.isfinite(beta).all()
    probs = expit(offset + beta * h)
    score = (h * (ys - sizes * probs)).sum(axis=-1)
    curvature = (h * h * sizes * probs * (1.0 - probs)).sum(axis=-1)
    assert np.abs(score / curvature).max() < estimators._TMLE_TOL


def per_resample_bootstrap(data, contrasts, replicates, rng, ci_level=0.95, propensity=None):
    """The bootstrap as a loop over resamples: select the rows, refit the
    propensity by IRLS warm-started from the full-sample fit, and redraw a
    resample whose refit fails as `fit_logistic` would (one arm, separation
    or a singular design). A fixed `propensity` is evaluated on each
    resample instead, without a refit. Returns (ses, percentile cis, redraw
    count)."""
    if propensity is None:
        full = fit_logistic(data)
        start = np.concatenate([[full.intercept], full.coef])
    estimates, redraws = [], 0
    while len(estimates) < replicates:
        idx = rng.integers(0, data.n, size=data.n)
        d = ObservationSet(w=data.w[idx], t=data.t[idx], y=data.y[idx])
        try:
            model = propensity
            if propensity is None:
                cells = d.cells[0]
                if not 0.0 < cells.t.sum() < cells.t.size:
                    raise DegenerateArmError("one arm")
                x = nuisance.logistic_design(cells.w)
                beta, [ok], stalled = nuisance._irls(x, cells.t, cells.sizes, start)
                if not ok:
                    raise stalled.get(0) or nuisance._logistic_stop(x, cells.sizes[0], beta[0])
                model = PropensityModel(float(beta[0, 0]), beta[0, 1:])
            pscore = model.predict_proba(d.w)
        except (DegenerateArmError, SeparationError, SingularDesignError):
            redraws += 1
            continue
        arms = [np.sum(d.t * d.y / pscore), np.sum((1 - d.t) * d.y / (1 - pscore)), np.sum(d.y)]
        estimates.append(contrasts @ np.array(arms) / d.n)
    alpha = (1.0 - ci_level) / 2.0
    estimates = np.array(estimates)
    cis = np.quantile(estimates, [alpha, 1.0 - alpha], axis=0).T
    return estimates.std(axis=0, ddof=1), cis, redraws


def tiny_sample():
    """Six units, two treated: resamples often lose an arm, separate or
    leave the covariate constant."""
    w = np.array([[0.0], [0.0], [1.0], [1.0], [0.0], [1.0]])
    return ObservationSet(w=w, t=[1.0, 0.0, 1.0, 0.0, 0.0, 0.0], y=np.arange(6.0))


class TestBatchedBootstrap:
    """The batched frequency-weight refit against the per-resample loop."""

    @pytest.mark.parametrize(
        "make, replicates, must_redraw",
        [
            (lambda: sample_dgp(DgpSpec(), 150, seed=4), 200, False),
            (tiny_sample, 100, True),
            (lambda: sample_dgp(DgpSpec(a_mean_slope=3.0), 100, seed=1), 200, True),
            (lambda: make_dataset(n=120, p=2, seed=5), 200, False),
            (two_binary_covariates, 200, True),
        ],
        ids=["n150", "tiny", "near_separated", "continuous", "two_binary"],
    )
    def test_same_resamples_ses_and_redraws_as_the_loop(self, make, replicates, must_redraw):
        data = make()
        estimands = (BATE, PEB1, PEB0)
        contrasts = np.array([e.contrast for e in estimands])
        loop_rng, batch_rng = np.random.default_rng(17), np.random.default_rng(17)
        ses, cis, redraws = per_resample_bootstrap(data, contrasts, replicates, loop_rng)
        boot = BootstrapConfig(replicates, seed=batch_rng, ci_method="percentile")
        reports = estimate_many(data, ["ipw"], estimands, boot=boot)
        assert redraws > 0 or not must_redraw
        for report, se, ci in zip(reports, ses, cis):
            assert report.se == pytest.approx(se, rel=1e-12)
            assert report.ci == pytest.approx(tuple(ci), rel=1e-12)
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
        notes = [d for d in reports[0].diagnostics if d.startswith("bootstrap redrew")]
        expected = f"bootstrap redrew {redraws} degenerate resamples ({100.0 * redraws / replicates:.1f}% of {replicates})"
        assert notes == ([expected] if redraws > 0.01 * replicates else [])

    @pytest.mark.parametrize(
        "make",
        [lambda: sample_dgp(DgpSpec(), 150, seed=4), lambda: make_dataset(n=120, p=2, seed=5)],
        ids=["n150", "continuous"],
    )
    def test_injected_propensity_matches_the_loop(self, make):
        data = make()
        model = PropensityModel(intercept=0.1, coef=np.full(data.p, 0.2))
        estimands = (BATE, PEB1, PEB0)
        contrasts = np.array([e.contrast for e in estimands])
        loop_rng, batch_rng = np.random.default_rng(17), np.random.default_rng(17)
        ses, cis, redraws = per_resample_bootstrap(data, contrasts, 200, loop_rng, propensity=model)
        boot = BootstrapConfig(200, seed=batch_rng, ci_method="percentile")
        reports = estimate_many(data, ["ipw"], estimands, boot, propensity=model)
        assert redraws == 0
        for report, se, ci in zip(reports, ses, cis):
            assert report.se == pytest.approx(se, rel=1e-12)
            assert report.ci == pytest.approx(tuple(ci), rel=1e-12)
        assert batch_rng.bit_generator.state == loop_rng.bit_generator.state

    def test_percentiles_are_computed_only_for_percentile_intervals(self, monkeypatch):
        data = sample_dgp(DgpSpec(), 150, seed=4)
        quantiles = count_calls(monkeypatch, "quantile", module=estimators.np)
        estimate_many(data, ["ipw"], [BATE, PEB1], boot=BootstrapConfig(50, seed=0))
        assert quantiles == []
        estimate_many(data, ["ipw"], [BATE, PEB1], boot=BootstrapConfig(50, seed=0, ci_method="percentile"))
        assert len(quantiles) == 1

    def test_refit_runs_on_cells_not_units_when_not_saturated(self, monkeypatch):
        """Every resample of a design with 4 covariate patterns and 2
        coefficients is refitted by IRLS, on its cells."""
        data = two_binary_covariates(200, seed=1)
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        estimate_many(data, ["ipw"], [BATE, PEB1], boot=BootstrapConfig(200, seed=0))
        blocks = [kw["counts"].shape for kw in irls if kw.get("start") is not None]
        assert sum(rows for rows, _ in blocks) >= 200
        assert all(cols == data.cells[0].t.size < data.n for _, cols in blocks)

    def test_resample_that_does_not_converge_raises_when_not_saturated(self, monkeypatch):
        original = nuisance._irls

        def one_step_refits(*args, **kwargs):
            if kwargs.get("start") is not None:
                kwargs["max_iter"] = 1
            return original(*args, **kwargs)

        monkeypatch.setattr(nuisance, "_irls", one_step_refits)
        data = two_binary_covariates(200, seed=1)
        with pytest.raises(ConvergenceError, match="did not converge"):
            estimate_many(data, ["ipw"], [BATE], boot=BootstrapConfig(20, seed=0))

    def test_saturated_refits_with_both_arms_in_every_pattern_run_no_irls(self, monkeypatch):
        """At n = 2000 every resample of the paper design has both arms in
        both covariate patterns: each refit is the patterns' treated shares,
        and only the full-sample fit runs IRLS."""
        data = sample_dgp(DgpSpec(), 2000, seed=4)
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        [report] = estimate_many(data, ["ipw"], [BATE], boot=BootstrapConfig(200, seed=0))
        assert [kw.get("start") for kw in irls] == [None]
        assert np.isfinite(report.se) and report.se > 0.0


def sharing_cell_rows(make, count):
    """The first `count` samples `make(seed)` with a propensity fit whose
    cell rows equal the first one's, so that they batch as one ipw group."""
    samples, key = [], None
    for seed in range(1000):
        data = make(seed)
        try:
            fit_logistic(data)
        except SeparationError:
            continue
        cells = data.cells[0]
        if key is None:
            key = (cells.w.tobytes(), cells.t.tobytes())
        if (cells.w.tobytes(), cells.t.tobytes()) == key:
            samples.append(data)
        if len(samples) == count:
            return samples
    raise AssertionError("too few samples share their cell rows")


def one_minority_unit_per_category_but(minority):
    """`one_minority_unit_per_category` with `minority` units of the other
    arm in each category: the same cells, and a resample that keeps every
    cell is common enough for the bootstrap to finish."""
    data = one_minority_unit_per_category()
    t = np.tile(np.r_[np.zeros(minority), np.ones(8 - minority)], 16)
    odd = np.arange(128) // 8 % 2 == 1
    t[odd] = 1.0 - t[odd]
    return ObservationSet(w=data.w, t=t, y=data.y)


def group_against_alone(samples, replicates):
    """ipw's bootstrap of `samples` as one `estimate_cells` group, each
    from its own generator, against `estimate_many` on each sample alone
    from a generator with the same seed: the same points, SEs, percentile
    intervals and redraw note, or the same ConvergenceError, and the same
    final generator state. Returns each sample's note or error message."""
    estimands = (BATE, PEB1, PEB0)
    contrasts = np.array([e.contrast for e in estimands])
    boots = [BootstrapConfig(replicates, seed=np.random.default_rng([7, i]), ci_method="percentile")
             for i in range(len(samples))]
    units = [(data.cells[1], data.y, boot) for data, boot in zip(samples, boots)]
    results, _ = estimators.estimate_cells(CellBatch.stack([d.cells[0] for d in samples]), ["ipw"],
                                           contrasts, units)
    points, ses, stops, cis, notes = results["ipw"]
    outcomes = []
    for i, data in enumerate(samples):
        alone = BootstrapConfig(replicates, seed=np.random.default_rng([7, i]), ci_method="percentile")
        try:
            reports = estimate_many(data, ["ipw"], estimands, boot=alone)
        except ConvergenceError as err:
            assert (type(stops[i]), str(stops[i])) == (ConvergenceError, str(err))
            outcomes.append(str(err))
        else:
            assert stops[i] is None
            assert list(points[i]) == [r.point for r in reports] and list(ses[i]) == [r.se for r in reports]
            assert [tuple(ci) for ci in cis[i]] == [r.ci for r in reports]
            assert [d for d in reports[0].diagnostics if d.startswith("bootstrap")] == [notes[i]] * bool(notes[i])
            outcomes.append(notes[i])
        assert boots[i].seed.bit_generator.state == alone.seed.bit_generator.state
    return outcomes


class TestGroupBootstrap:
    """The ipw bootstraps of a group's samples run one after another, each
    sample drawing from its own generator: each gets what it gets alone."""

    def test_paper_design_with_redraws(self, monkeypatch):
        """n = 20: resamples that lose an arm in a covariate pattern are
        redrawn. The first sample appears twice. Every refit gets one start
        row, its sample's full-sample fit, and at most one pass of that
        sample, and each sample's passes run before the next sample's."""
        refits = count_calls(monkeypatch, "refit_logistic")
        samples = sharing_cell_rows(lambda seed: sample_dgp(DgpSpec(), 20, seed), 6)
        group = [samples[0], *samples]
        outcomes = group_against_alone(group, 200)
        assert any(note is not None and note.startswith("bootstrap redrew") for note in outcomes)
        assert all(call[3].shape == (2,) and call[2].shape[0] <= 200 for call in refits)
        fits = [np.r_[model.intercept, model.coef].tobytes() for model in map(fit_logistic, group)]
        fits = [fit for fit, _ in itertools.groupby(fits)]
        starts = [start for start, _ in itertools.groupby(call[3].tobytes() for call in refits)]
        assert starts == fits * 2  # the group's refits, then each sample's alone

    def test_a_design_that_is_not_saturated(self, monkeypatch):
        """Two binary covariates: every resample with both arms is refitted
        by IRLS, and each `_irls` call refits the resamples of one sample."""
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        samples = sharing_cell_rows(lambda seed: two_binary_covariates(24, seed), 4)
        outcomes = group_against_alone(samples, 100)
        starts = [kw["start"].tobytes() for kw in irls if kw.get("start") is not None]
        assert len(starts) >= len(samples) and len(set(starts)) == len(samples)
        assert any(outcomes)

    def test_a_sample_that_gives_up_stops_alone(self):
        samples = [one_minority_unit_per_category_but(3), one_minority_unit_per_category(),
                   one_minority_unit_per_category_but(2)]
        outcomes = group_against_alone(samples, 2)
        assert outcomes[1].startswith("bootstrap gave up after") and outcomes[0] != outcomes[1] != outcomes[2]

    def test_a_refit_that_does_not_converge_stops_only_its_sample(self, monkeypatch):
        """A refit reported as stalled stops its sample, with the message it
        gets alone; the others are delivered."""
        original = estimators.refit_logistic
        samples = sharing_cell_rows(lambda seed: sample_dgp(DgpSpec(), 150, seed), 3)
        full = fit_logistic(samples[1])
        bad_start = np.concatenate([[full.intercept], full.coef]).tobytes()

        def stalls_for_one_start(x, t, counts, start):
            probs, ok, stalled = original(x, t, counts, start)
            if start.tobytes() == bad_start:
                stalled[0] = ConvergenceError("IRLS did not converge in 100 iterations; last step sizes: 1")
            return probs, ok, stalled

        monkeypatch.setattr(estimators, "refit_logistic", stalls_for_one_start)
        outcomes = group_against_alone(samples, 50)
        assert outcomes[1] == "IRLS did not converge in 100 iterations; last step sizes: 1"
        assert outcomes[0] is None and outcomes[2] is None

    def test_a_pass_takes_resamples_by_cells_not_units(self, monkeypatch):
        """A resample of the paper design is its 4 cells' counts, however
        large n is, so at n = 2^17 + 1 all 20 resamples are one pass and
        one refit call."""
        data = sample_dgp(DgpSpec(), 2**17 + 1, seed=3)
        refits = count_calls(monkeypatch, "refit_logistic")
        estimate_many(data, ["ipw"], [BATE], boot=BootstrapConfig(20, seed=0))
        assert [call[2].shape for call in refits] == [(20, 4)]

    @pytest.mark.parametrize("n", [500, 2**17 + 1])
    def test_no_reduction_sees_more_than_a_draw_chunk(self, monkeypatch, n):
        data = sample_dgp(DgpSpec(), n, seed=3)
        data.cells  # the sample's grouping, before the count starts
        counts = count_calls(monkeypatch, "bincount", module=estimators.np)
        estimate_many(data, ["ipw"], [BATE], boot=BootstrapConfig(3 if n > 500 else 200, seed=0))
        sizes = [len(call[0]) for call in counts]
        assert sizes and max(sizes) <= estimators._DRAW_ELEMENTS

    @pytest.mark.parametrize("n, k, m, cap", [(7, 2, 5, 2**14), (500, 4, 200, 2**14), (500, 500, 30, 2**14),
                                              (300, 4, 9, 64), (1000, 3, 4, 300), (1000, 1000, 2, 333)])
    def test_draw_chunks_reduce_as_one_block(self, monkeypatch, n, k, m, cap):
        """Counts and y sums drawn in chunks of at most `cap` indices, rows
        split when a row does not fit, have the bytes of one (m, n) draw
        reduced by `np.bincount`, and leave the generator in its state."""
        monkeypatch.setattr(estimators, "_DRAW_ELEMENTS", cap)
        rng = np.random.default_rng(11)
        cell = rng.integers(0, k, n) if k < n else rng.permutation(n)
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        chunked, whole = np.random.default_rng([3, n]), np.random.default_rng([3, n])
        counts, y_sums = estimators._resample_cells(chunked, cell, y, k, m)
        idx = whole.integers(0, n, size=(m, n))
        offsets = (cell[idx] + k * np.arange(m)[:, None]).ravel()
        expected_counts = np.bincount(offsets, minlength=m * k).reshape(m, k).astype(float)
        expected_sums = np.bincount(offsets, weights=y[idx].ravel(), minlength=m * k).reshape(m, k)
        assert counts.tobytes() == expected_counts.tobytes() and y_sums.tobytes() == expected_sums.tobytes()
        assert chunked.bit_generator.state == whole.bit_generator.state
