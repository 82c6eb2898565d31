from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bineffect import (
    ESTIMATOR_NAMES,
    BinarizationRule,
    BootstrapConfig,
    ConvergenceError,
    DegenerateArmError,
    DgpSpec,
    Direction,
    EstimandSpec,
    Nuisances,
    ObservationSet,
    PropensityModel,
    SeparationError,
    SingularDesignError,
    ValidationError,
    aipw_influence,
    bootstrap_se,
    estimate_aipw,
    estimate_ipw,
    estimate_many,
    estimate_reg,
    estimate_tmle,
    estimators,
    fit_logistic,
    nuisance,
    tmle_update,
)
from bineffect.nuisance import interacted_design
from bineffect.simulation import sample_dgp
from conftest import make_binary_w_dataset, make_dataset

BATE = EstimandSpec.bate()
PEB1 = EstimandSpec.peb(1)
PEB0 = EstimandSpec.peb(0)


def ehw_robust_se(data, coef_index):
    """Independent Eicker-Huber-White route: (X'X)^-1 X'diag(r^2)X (X'X)^-1."""
    w_mean = data.w.mean(axis=0)
    x = interacted_design(data.t, data.w - w_mean)
    beta = np.linalg.solve(x.T @ x, x.T @ data.y)
    r = data.y - x @ beta
    bread = np.linalg.inv(x.T @ x)
    cov = bread @ (x * (r**2)[:, None]).T @ x @ bread
    return float(np.sqrt(cov[coef_index, coef_index]))


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


class TestRegression:
    def test_no_covariates_difference_of_means(self):
        t = np.array([1.0] * 5 + [0.0] * 5)
        y = np.where(t == 1.0, 10.0, 4.0)
        report = estimate_reg(ObservationSet(w=np.empty((10, 0)), t=t, y=y), BATE)
        assert report.point == pytest.approx(6.0, abs=1e-10)

    def test_peb_identity(self, dataset):
        bate = estimate_reg(dataset, BATE).point
        peb1 = estimate_reg(dataset, PEB1).point
        peb0 = estimate_reg(dataset, PEB0).point
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)

    def test_report_fields(self, dataset):
        report = estimate_reg(dataset, PEB1, ci_level=0.9)
        assert report.estimator == "reg"
        assert report.n == dataset.n
        assert report.ci[0] < report.point < report.ci[1]


class TestSandwich:
    @pytest.mark.parametrize("seed,p", [(0, 1), (1, 2), (5, 3)])
    def test_bate_se_equals_ehw(self, seed, p):
        data = make_dataset(n=50, p=p, seed=seed)
        se = estimate_reg(data, BATE).se
        assert se == pytest.approx(ehw_robust_se(data, 1), rel=1e-8)

    def test_row_duplication_scaling(self, dataset):
        doubled = dataset.subset(np.concatenate([np.arange(dataset.n)] * 2))
        for estimand in (BATE, PEB1):
            se1 = estimate_reg(dataset, estimand).se
            se2 = estimate_reg(doubled, estimand).se
            assert se2**2 == pytest.approx(se1**2 / 2.0, rel=1e-8)

    def test_peb_se_close_to_bootstrap(self):
        data = make_dataset(n=300, p=1, seed=21)
        delta_se = estimate_reg(data, PEB1).se
        boot_se, _ = bootstrap_se(
            data,
            lambda d: estimate_reg(d, PEB1).point,
            BootstrapConfig(replicates=500, seed=77),
        )
        assert delta_se == pytest.approx(boot_se, rel=0.15)


class TestIpw:
    def test_hand_computed_horvitz_thompson(self):
        data = ObservationSet(w=np.zeros((2, 1)), t=[1.0, 0.0], y=[3.0, 1.0])
        model = PropensityModel(intercept=0.0, coef=np.zeros(1))
        report = estimate_ipw(
            data, BATE, BootstrapConfig(replicates=30, seed=1), propensity=model
        )
        assert report.point == pytest.approx(2.0, abs=1e-12)
        assert report.se >= 0.0

    def test_peb_identity(self):
        data = make_binary_w_dataset(n=80, seed=2)
        boot = BootstrapConfig(replicates=20, seed=0)
        bate = estimate_ipw(data, BATE, boot).point
        peb1 = estimate_ipw(data, PEB1, boot).point
        peb0 = estimate_ipw(data, PEB0, boot).point
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)

    def test_seed_determinism(self):
        data = make_binary_w_dataset(n=60, seed=4)
        boot = BootstrapConfig(replicates=50, seed=123)
        first = estimate_ipw(data, BATE, boot)
        second = estimate_ipw(data, BATE, boot)
        assert first.se == second.se
        assert first.ci == second.ci

    def test_percentile_ci(self):
        data = make_binary_w_dataset(n=80, seed=5)
        report = estimate_ipw(
            data, BATE, BootstrapConfig(replicates=200, seed=8, ci_method="percentile")
        )
        assert report.ci[0] < report.ci[1]


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
        aipw = estimate_aipw(data, BATE).point
        reg = estimate_reg(data, BATE).point
        assert aipw == pytest.approx(reg, abs=1e-8)

    def test_influence_mean_zero_and_se(self, dataset):
        for estimand in (BATE, PEB1, PEB0):
            record = aipw_influence(dataset, estimand)
            assert abs(record.phi.mean()) < 1e-8
            report = estimate_aipw(dataset, estimand)
            assert report.se == pytest.approx(record.se, rel=1e-12)

    def test_peb_identity(self, dataset):
        bate = estimate_aipw(dataset, BATE).point
        peb1 = estimate_aipw(dataset, PEB1).point
        peb0 = estimate_aipw(dataset, PEB0).point
        assert peb1 - peb0 == pytest.approx(bate, rel=1e-10)


class TestTmle:
    def test_saturated_case_has_zero_fluctuation(self):
        data = make_binary_w_dataset(n=60, seed=9)
        for estimand in (BATE, PEB1):
            fit = tmle_update(data, estimand)
            assert fit.fluctuation == pytest.approx(0.0, abs=1e-8)
        reg = estimate_reg(data, BATE).point
        assert estimate_tmle(data, BATE).point == pytest.approx(reg, abs=1e-8)

    def test_influence_mean_zero_after_update(self, dgp):
        data = sample_dgp(dgp, 400, seed=3)
        for estimand in (BATE, PEB1, PEB0):
            fit = tmle_update(data, estimand)
            scale = max(1.0, np.abs(fit.influence).max())
            assert abs(fit.influence.mean()) / scale < 1e-8

    def test_affine_rescaling_invariance(self):
        data = make_dataset(n=80, p=2, seed=13, y_scale=3.0)
        scaled = ObservationSet(w=data.w, t=data.t, y=4.5 * data.y - 11.0)
        for estimand in (BATE, PEB1):
            base = estimate_tmle(data, estimand).point
            rescaled = estimate_tmle(scaled, estimand).point
            assert rescaled / 4.5 == pytest.approx(base, rel=1e-6)

    def test_agrees_with_aipw_on_dgp(self, dgp):
        diffs = []
        for rep in range(20):
            data = sample_dgp(dgp, 500, seed=[100, rep])
            diffs.append(
                abs(estimate_tmle(data, BATE).point - estimate_aipw(data, BATE).point)
            )
        assert np.mean(diffs) < 0.5


class TestBootstrapSe:
    def test_matches_analytic_se_for_sample_mean(self):
        rng = np.random.default_rng(15)
        y = rng.normal(5.0, 2.0, size=200)
        data = ObservationSet(w=np.empty((200, 0)), t=[0.0, 1.0] * 100, y=y)
        se, _ = bootstrap_se(
            data, lambda d: float(d.y.mean()), BootstrapConfig(replicates=800, seed=4)
        )
        assert se == pytest.approx(y.std(ddof=1) / np.sqrt(200), rel=0.10)

    def test_bitwise_determinism(self):
        data = make_dataset(n=50, p=1, seed=2)
        cfg = BootstrapConfig(replicates=100, seed=99)
        fn = lambda d: estimate_reg(d, BATE).point
        assert bootstrap_se(data, fn, cfg) == bootstrap_se(data, fn, cfg)

    def test_degenerate_resamples_redrawn(self):
        # tiny sample: resamples frequently contain one arm only
        data = ObservationSet(w=np.zeros((4, 1)), t=[1.0, 0.0, 1.0, 0.0], y=[3.0, 1.0, 2.5, 0.5])
        with pytest.warns(UserWarning, match="redrew"):
            se, ci = bootstrap_se(
                data,
                lambda d: estimate_reg(
                    ObservationSet(w=np.empty((d.n, 0)), t=d.t, y=d.y), BATE
                ).point,
                BootstrapConfig(replicates=25, seed=0),
            )
        assert np.isfinite(se) and ci[0] <= ci[1]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            BootstrapConfig(replicates=20, seed=-1)
        BootstrapConfig(replicates=20, seed=np.random.default_rng(0))

    def test_bad_level_rejected_before_resampling(self):
        data = make_dataset(n=100, p=1, seed=2)
        calls = []

        def statistic(d):
            calls.append(d.n)
            return float(d.y.mean())

        with pytest.raises(ValidationError, match="ci_level"):
            bootstrap_se(data, statistic, BootstrapConfig(replicates=20, seed=0), ci_level=1.5)
        assert calls == []


class TestEstimatorProperties:
    @given(seed=st.integers(0, 2**31), p=st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_peb_decomposition_holds_everywhere(self, seed, p):
        data = make_dataset(n=45, p=p, seed=seed)
        for fn in (estimate_reg, estimate_aipw):
            bate = fn(data, BATE).point
            gap = fn(data, PEB1).point - fn(data, PEB0).point
            assert gap == pytest.approx(bate, rel=1e-9, abs=1e-9)

    @given(seed=st.integers(0, 2**31), scale=st.floats(0.1, 50.0), shift=st.floats(-100.0, 100.0))
    @settings(max_examples=15, deadline=None)
    def test_tmle_affine_equivariance(self, seed, scale, shift):
        data = make_dataset(n=60, p=1, seed=seed)
        rescaled = ObservationSet(w=data.w, t=data.t, y=scale * data.y + shift)
        base = estimate_tmle(data, BATE).point
        assert estimate_tmle(rescaled, BATE).point == pytest.approx(
            scale * base, rel=1e-6, abs=1e-6 * max(1.0, scale)
        )


class TestCrossEstimatorEquivalences:
    def test_all_four_match_stratified_plug_in(self):
        data = make_binary_w_dataset(n=70, seed=1)
        brute = stratified_plug_in_bate(data)
        assert estimate_reg(data, BATE).point == pytest.approx(brute, abs=1e-8)
        ipw = estimate_ipw(data, BATE, BootstrapConfig(replicates=10, seed=0))
        assert ipw.point == pytest.approx(brute, abs=1e-8)
        assert estimate_aipw(data, BATE).point == pytest.approx(brute, abs=1e-8)
        assert estimate_tmle(data, BATE).point == pytest.approx(brute, abs=1e-8)

    def test_permutation_invariance(self, dataset):
        perm = np.random.default_rng(33).permutation(dataset.n)
        shuffled = dataset.subset(perm)
        for fn in (estimate_reg, estimate_aipw, estimate_tmle):
            assert fn(shuffled, BATE).point == pytest.approx(fn(dataset, BATE).point, rel=1e-9)
        boot = BootstrapConfig(replicates=10, seed=0)
        assert estimate_ipw(shuffled, BATE, boot).point == pytest.approx(
            estimate_ipw(dataset, BATE, boot).point, rel=1e-9
        )


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
    """Replace module.<name> with a wrapper; returns the list of its calls' kwargs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
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
            for fn in (
                lambda e: estimate_reg(data, e, seed=3),
                lambda e: estimate_ipw(data, e, boot),
                lambda e: estimate_aipw(data, e, seed=3),
                lambda e: estimate_tmle(data, e, seed=3),
            )
            for report in map(fn, estimands)
        ]
        ols = count_calls(monkeypatch, "fit_ols_interacted")
        logistic = count_calls(monkeypatch, "fit_logistic")
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
        shapes = [None if kw.get("counts") is None else kw["counts"].shape for kw in irls]
        assert shapes == [None, (boot.replicates, data.n)]

    def test_injected_propensity_is_never_refit(self, monkeypatch):
        data = make_binary_w_dataset(n=60, seed=3)
        model = PropensityModel(intercept=0.1, coef=np.array([0.2]))
        logistic = count_calls(monkeypatch, "fit_logistic")
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        reports = estimate_many(
            data, ["ipw", "aipw"], [BATE], Nuisances(data, propensity=model),
            boot=BootstrapConfig(replicates=10, seed=0),
        )
        assert [r.estimator for r in reports] == ["ipw", "aipw"]
        assert logistic == []
        assert irls == []

    def test_nuisances_must_belong_to_the_sample(self):
        data = make_dataset(n=40, seed=1)
        other = make_dataset(n=40, seed=2)
        with pytest.raises(ValidationError, match="different"):
            estimate_many(data, ["reg"], [BATE], Nuisances(other))

    def test_rejects_bad_arguments_before_fitting(self, monkeypatch):
        data = make_dataset(n=40, seed=1)
        ols = count_calls(monkeypatch, "fit_ols_interacted")
        with pytest.raises(ValidationError, match="ci_level"):
            estimate_many(data, ["reg"], [BATE], ci_level=0.0)
        with pytest.raises(ValidationError, match="unknown estimator"):
            estimate_many(data, ["reg", "magic"], [BATE])
        assert ols == []


def per_resample_bootstrap(data, contrasts, replicates, rng, ci_level=0.95):
    """The bootstrap as a loop over resamples: subset the rows, refit the
    propensity warm-started from the full-sample fit, and redraw a resample
    whose refit fails. Returns (ses, percentile cis, redraw count)."""
    full = fit_logistic(data)
    start = np.concatenate([[full.intercept], full.coef])
    estimates, redraws = [], 0
    while len(estimates) < replicates:
        d = data.subset(rng.integers(0, data.n, size=data.n))
        try:
            pscore = fit_logistic(d, start=start).predict_proba(d.w)
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


def two_binary_covariates(n=30, seed=0):
    """Two binary covariates (4 patterns, 8 cells with the arm): at n=30 some
    resamples lose an arm within a pattern and separate."""
    rng = np.random.default_rng(seed)
    w = (rng.random((n, 2)) < 0.5).astype(float)
    t = (rng.random(n) < 1.0 / (1.0 + np.exp(w[:, 1] - w[:, 0]))).astype(float)
    return ObservationSet(w=w, t=t, y=t + w.sum(axis=1) + rng.normal(size=n))


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

    def test_refit_runs_on_cells_not_units(self, monkeypatch):
        data = sample_dgp(DgpSpec(), 150, seed=4)
        irls = count_calls(monkeypatch, "_irls", module=nuisance)
        estimate_many(data, ["ipw"], [BATE, PEB1], boot=BootstrapConfig(200, seed=0))
        blocks = [kw["counts"].shape for kw in irls if kw.get("counts") is not None]
        assert blocks and all(cols <= 4 for _, cols in blocks)

    def test_resample_that_does_not_converge_raises(self, monkeypatch):
        original = nuisance._irls

        def one_step_refits(*args, **kwargs):
            if kwargs.get("counts") is not None:
                kwargs["max_iter"] = 1
            return original(*args, **kwargs)

        monkeypatch.setattr(nuisance, "_irls", one_step_refits)
        data = sample_dgp(DgpSpec(), 150, seed=4)
        with pytest.raises(ConvergenceError, match="did not converge"):
            estimate_many(data, ["ipw"], [BATE], boot=BootstrapConfig(20, seed=0))
