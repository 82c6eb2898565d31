import re

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from bineffect import (
    BinarizationRule,
    ConvergenceError,
    DegenerateArmError,
    Direction,
    ObservationSet,
    SeparationError,
    SingularDesignError,
    ValidationError,
    fit_logistic,
    fit_ols_interacted,
)
from bineffect import nuisance
from bineffect.nuisance import (
    _irls,
    interacted_design,
    logistic_design,
    refit_logistic,
    saturated_patterns,
)
from bineffect.simulation import DgpSpec, sample_dgp
from conftest import make_dataset, two_binary_covariates

PI_W0 = float(stats.norm.sf(1.0))   # Pr(A >= 6 | w=0) = 1 - Phi(1)
PI_W1 = float(stats.norm.cdf(1.0))  # Pr(A >= 6 | w=1)


class TestOlsInteracted:
    def test_noiseless_treatment_shift(self):
        rng = np.random.default_rng(0)
        n = 30
        t = (rng.random(n) < 0.5).astype(float)
        t[:2] = [0.0, 1.0]
        w = rng.normal(size=(n, 1))
        y = 2.0 + 3.0 * t
        fit = fit_ols_interacted(ObservationSet(w=w, t=t, y=y))
        assert fit.beta0 == pytest.approx(2.0, abs=1e-8)
        assert fit.beta_t == pytest.approx(3.0, abs=1e-8)
        assert fit.beta_w[0] == pytest.approx(0.0, abs=1e-8)
        assert fit.beta_interact[0] == pytest.approx(0.0, abs=1e-8)

    def test_constant_outcome(self):
        data = make_dataset(n=25, p=1, seed=3)
        data = ObservationSet(w=data.w, t=data.t, y=np.full(25, 4.25))
        fit = fit_ols_interacted(data)
        assert fit.beta0 == pytest.approx(4.25, abs=1e-10)
        for coef in (fit.beta_t, fit.beta_w[0], fit.beta_interact[0]):
            assert coef == pytest.approx(0.0, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        data = make_dataset(n=20, p=2, seed=7)
        fit = fit_ols_interacted(data)
        # independent least squares route: explicit normal equations
        wc = data.w - data.w.mean(axis=0)
        x = np.hstack([np.ones((20, 1)), data.t[:, None], wc, data.t[:, None] * wc])
        beta = np.linalg.solve(x.T @ x, x.T @ data.y)
        packed = np.concatenate([[fit.beta0, fit.beta_t], fit.beta_w, fit.beta_interact])
        np.testing.assert_allclose(packed, beta, atol=1e-8)

    def test_demeaning_center_is_sample_mean(self, dataset):
        fit = fit_ols_interacted(dataset)
        assert np.max(np.abs((dataset.w - fit.w_mean).mean(axis=0))) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residuals_orthogonal_to_design(self, seed):
        data = make_dataset(n=35, p=3, seed=seed)
        fit = fit_ols_interacted(data)
        x = interacted_design(data.t, data.w - fit.w_mean)
        residuals = data.y - fit.predict(data.t, data.w)
        assert np.max(np.abs(x.T @ residuals)) / data.n < 1e-8

    def test_degenerate_arm(self):
        data = make_dataset(n=20, p=1, seed=0)
        with pytest.raises(DegenerateArmError):
            fit_ols_interacted(ObservationSet(w=data.w, t=np.ones(20), y=data.y))

    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        data = ObservationSet(w=rng.normal(size=(6, 2)), t=[0, 1, 0, 1, 0, 1], y=rng.normal(size=6))
        with pytest.raises(ValidationError, match="need n >"):
            fit_ols_interacted(data)

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(4)
        n = 30
        t = (rng.random(n) < 0.5).astype(float)
        t[:2] = [0.0, 1.0]
        w1 = rng.normal(size=n)
        data = ObservationSet(w=np.column_stack([w1, 2.0 * w1]), t=t, y=rng.normal(size=n))
        with pytest.raises(SingularDesignError, match="w2"):
            fit_ols_interacted(data)

    def test_permutation_invariance(self, dataset):
        fit = fit_ols_interacted(dataset)
        perm = np.random.default_rng(9).permutation(dataset.n)
        fit2 = fit_ols_interacted(ObservationSet(w=dataset.w[perm], t=dataset.t[perm], y=dataset.y[perm]))
        assert fit2.beta_t == pytest.approx(fit.beta_t, rel=1e-9)
        np.testing.assert_allclose(fit2.beta_w, fit.beta_w, rtol=1e-9, atol=1e-12)


IMPLIED_DESIGNS = {
    "paper_geq": lambda: sample_dgp(DgpSpec(), 500, seed=3),
    "paper_lt": lambda: sample_dgp(DgpSpec(), 500, seed=3).with_rule(BinarizationRule(6.0, Direction.LT)),
    "normal_p3": lambda: make_dataset(n=300, p=3, seed=6),
}


class TestOlsImpliedWeights:
    @pytest.mark.parametrize("design", sorted(IMPLIED_DESIGNS))
    def test_each_arm_weights_its_cells_to_its_intercept(self, design):
        """Per arm, the implied weights of its units average to 1 and weight
        the outcomes to the arm's intercept (Chattopadhyay & Zubizarreta 2023)."""
        cells = IMPLIED_DESIGNS[design]().cells[0]
        fits, [stop], implied = nuisance.ols_fits(cells)
        assert stop is None
        n = cells.n[0]
        for arm, intercept in ((cells.t, fits.beta0 + fits.beta_t), (1.0 - cells.t, fits.beta0)):
            weighted = cells.sizes * arm * implied
            assert weighted.sum() / n == pytest.approx(1.0, rel=1e-12)
            assert (weighted * cells.means).sum() / n == pytest.approx(intercept[0, 0], rel=1e-12)

    def test_a_stack_gives_each_sample_the_bytes_of_its_own_call(self):
        samples = [sample_dgp(DgpSpec(), 200, seed=seed) for seed in range(5)]
        samples.append(ObservationSet(w=[[0.0], [0.0], [1.0], [1.0]], t=[0, 1, 0, 1], y=[1.0, 2.0, 3.0, 5.0]))
        cells = [d.cells[0] for d in samples]
        assert len({(c.w.tobytes(), c.t.tobytes()) for c in cells}) == 1
        fits, stops, implied = nuisance.ols_fits(nuisance.CellBatch.stack(cells))
        assert isinstance(stops[-1], ValidationError) and stops[:-1] == [None] * 5
        for i, c in enumerate(cells):
            alone, [stop], weights = nuisance.ols_fits(c)
            for name in ("beta0", "beta_t", "beta_w", "beta_interact", "w_mean"):
                assert getattr(alone, name).tobytes() == getattr(fits, name)[i : i + 1].tobytes()
            assert weights.tobytes() == implied[i : i + 1].tobytes()
            assert type(stop) is type(stops[i]) and str(stop) == str(stops[i])


def shared_cell_samples(design):
    """Samples whose (t, w) cell rows are byte-equal, so they stack: paper
    draws of one size, or one p = 3 normal design with four outcomes."""
    if design == "paper":
        return [sample_dgp(DgpSpec(), 200, seed=seed) for seed in range(4)]
    base = make_dataset(n=150, p=3, seed=2)
    return [ObservationSet(w=base.w, t=base.t, y=base.y + np.random.default_rng(s).normal(size=base.n))
            for s in range(4)]


@pytest.mark.parametrize("design", ["paper", "normal_p3"])
def test_a_batch_model_predicts_each_samples_bytes_alone(design):
    """The `logistic_fits` and `ols_fits` batches predict, at the cell rows,
    (R, k) arrays whose row i has the bytes of sample i's `fit_logistic` and
    `fit_ols_interacted` models alone; a lone model's (p,) row gives a
    numpy float."""
    samples = shared_cell_samples(design)
    cells = nuisance.CellBatch.stack([d.cells[0] for d in samples])
    (models, p_stops), (fits, o_stops, _) = nuisance.logistic_fits(cells), nuisance.ols_fits(cells)
    assert p_stops == o_stops == [None] * len(samples)
    ts = (1.0, 0.0, cells.t)
    probs, arms = models.predict_proba(cells.w), [fits.predict(t, cells.w) for t in ts]
    assert {probs.shape, *(arm.shape for arm in arms)} == {cells.sizes.shape}
    for i, data in enumerate(samples):
        model, fit = fit_logistic(data), fit_ols_interacted(data)
        assert probs[i].tobytes() == model.predict_proba(cells.w).tobytes()
        assert [arm[i].tobytes() for arm in arms] == [fit.predict(t, cells.w).tobytes() for t in ts]
        row = cells.w[-1]
        alone = model.predict_proba(row), fit.predict(1.0, row)
        assert [type(v) for v in alone] == [np.float64, np.float64]
        assert alone == pytest.approx((probs[i, -1], arms[0][i, -1]), rel=1e-14)


class TestLogistic:
    def test_balanced_independent_gives_zero(self):
        data = ObservationSet(w=np.array([0.0, 0.0, 1.0, 1.0]), t=[0, 1, 0, 1], y=np.zeros(4))
        model = fit_logistic(data)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)
        assert model.coef[0] == pytest.approx(0.0, abs=1e-12)

    def test_recovers_dgp_propensities(self, dgp):
        data = sample_dgp(dgp, 200_000, seed=2)
        model = fit_logistic(data)
        assert model.predict_proba(np.array([0.0])) == pytest.approx(PI_W0, abs=0.005)
        assert model.predict_proba(np.array([1.0])) == pytest.approx(PI_W1, abs=0.005)

    def test_beats_grid_search_oracle(self):
        data = make_dataset(n=30, p=1, seed=12)
        model = fit_logistic(data)
        x = np.hstack([np.ones((30, 1)), data.w])

        def loglik(b0, b1):
            eta = b0 + b1 * data.w[:, 0]
            return np.sum(data.t * eta - np.log1p(np.exp(eta)))

        fitted = loglik(model.intercept, model.coef[0])
        grid = np.linspace(-8.0, 8.0, 200)
        best = max(loglik(b0, b1) for b0 in grid for b1 in grid)
        assert fitted >= best - 1e-9

    def test_score_equations_hold(self, dataset):
        model = fit_logistic(dataset)
        probs = model.predict_proba(dataset.w)
        x = np.hstack([np.ones((dataset.n, 1)), dataset.w])
        assert np.max(np.abs(x.T @ (dataset.t - probs))) / dataset.n < 1e-8

    def test_degenerate_arm(self):
        with pytest.raises(DegenerateArmError):
            fit_logistic(ObservationSet(w=np.zeros((5, 1)), t=np.ones(5), y=np.zeros(5)))

    def test_separation_detected(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=40)
        data = ObservationSet(w=w, t=(w > 0).astype(float), y=np.zeros(40))
        with pytest.raises(SeparationError):
            fit_logistic(data)

    def test_intercept_only(self):
        rng = np.random.default_rng(1)
        t = (rng.random(50) < 0.3).astype(float)
        t[:2] = [0.0, 1.0]
        data = ObservationSet(w=np.empty((50, 0)), t=t, y=np.zeros(50))
        model = fit_logistic(data)
        assert expit(model.intercept) == pytest.approx(t.mean(), abs=1e-10)

    def test_permutation_invariance(self, dataset):
        model = fit_logistic(dataset)
        perm = np.random.default_rng(10).permutation(dataset.n)
        model2 = fit_logistic(ObservationSet(w=dataset.w[perm], t=dataset.t[perm], y=dataset.y[perm]))
        assert model2.intercept == pytest.approx(model.intercept, rel=1e-9, abs=1e-12)
        np.testing.assert_allclose(model2.coef, model.coef, rtol=1e-9, atol=1e-12)

    def test_nonconvergence_reports_step_trace(self, dataset):
        x = np.hstack([np.ones((dataset.n, 1)), dataset.w])
        _, ok, stalled = _irls(x, dataset.t, counts=np.ones((1, dataset.n)), max_iter=1)
        assert not ok[0] and list(stalled) == [0] and isinstance(stalled[0], ConvergenceError)
        assert re.fullmatch(r"IRLS did not converge in 1 iterations; last step sizes: [0-9.e+-]+", str(stalled[0]))

    @pytest.mark.parametrize("pooled", [False, True])
    def test_each_problem_reports_its_own_stop(self, dataset, pooled):
        """The problems still moving after max_iter are reported one by one,
        each with the coefficients and the message naming its own last step
        sizes that it gets alone; the others converge as alone."""
        x = np.hstack([np.ones((dataset.n, 1)), dataset.w])
        idx = np.random.default_rng(3).integers(0, dataset.n, size=(3, dataset.n))
        counts = np.vstack([[np.bincount(row, minlength=dataset.n) for row in idx], np.ones(dataset.n)])
        reported = []
        for max_iter in (3, 5, 6, 8):
            beta, ok, stalled = _irls(x, dataset.t, counts=counts, max_iter=max_iter, pooled=pooled)
            reported.append(sorted(stalled))
            for i in range(4):
                b, good, alone = _irls(x, dataset.t, counts=counts[i : i + 1], max_iter=max_iter)
                assert ok[i] == good[0] and str(stalled.get(i)) == str(alone.get(0))
                np.testing.assert_allclose(beta[i], b[0], rtol=1e-12)
        assert reported == [[0, 1, 2, 3], [0, 2, 3], [2], []]

    def test_probabilities_strictly_inside_unit_interval(self, dataset):
        model = fit_logistic(dataset)
        probs = model.predict_proba(np.array([[1e6] * dataset.p, [-1e6] * dataset.p]))
        assert np.all(probs > 0.0) and np.all(probs < 1.0)


def cell_design(data):
    """The logistic design rows and treatments of the sample's cells, and each unit's cell."""
    cells, cell = data.cells
    return logistic_design(cells.w), cells.t, cell


class TestLogisticCells:
    def test_binary_covariate_gives_at_most_four_cells(self):
        data = sample_dgp(DgpSpec(), 150, seed=4)
        x, t, cell = cell_design(data)
        assert len(t) <= 4
        np.testing.assert_array_equal(x[cell], np.hstack([np.ones((data.n, 1)), data.w]))
        np.testing.assert_array_equal(t[cell], data.t)

    def test_no_shared_cell_keeps_the_units(self, dataset):
        x, t, cell = cell_design(dataset)
        np.testing.assert_array_equal(cell, np.arange(dataset.n))
        np.testing.assert_array_equal(x, np.hstack([np.ones((dataset.n, 1)), dataset.w]))
        np.testing.assert_array_equal(t, dataset.t)

    def test_one_repeated_unit_is_grouped(self, dataset):
        rows = np.r_[np.arange(dataset.n), 0]
        data = ObservationSet(w=dataset.w[rows], t=dataset.t[rows], y=dataset.y[rows])
        x, t, cell = cell_design(data)
        assert len(t) == data.n - 1 and cell[0] == cell[-1]
        np.testing.assert_array_equal(x[cell], np.hstack([np.ones((data.n, 1)), data.w]))
        np.testing.assert_array_equal(t[cell], data.t)

    def test_a_column_without_ties_gives_the_identity_cells(self):
        rng = np.random.default_rng(2)
        w = np.column_stack([(rng.random(50) < 0.5), rng.normal(size=50)])
        data = ObservationSet(w=w, t=(rng.random(50) < 0.5), y=np.zeros(50))
        np.testing.assert_array_equal(data.cells[1], np.arange(50))

    def test_rows_distinct_only_jointly_give_the_identity_cells(self):
        rng = np.random.default_rng(0)
        w = np.round(rng.normal(size=(200, 2)), 2)
        for col in w.T:  # each column has ties ...
            assert np.unique(col).size < 200
        assert np.unique(w, axis=0).shape[0] == 200  # ... but no two rows are equal
        data = ObservationSet(w=w, t=(rng.random(200) < 0.5), y=np.zeros(200))
        x, t, cell = cell_design(data)
        np.testing.assert_array_equal(cell, np.arange(200))
        np.testing.assert_array_equal(x, np.hstack([np.ones((200, 1)), w]))

    def test_t_splits_a_shared_covariate_pattern(self):
        data = ObservationSet(w=np.array([[1.0, 2.0]] * 3), t=[1.0, 0.0, 1.0], y=np.zeros(3))
        x, t, cell = cell_design(data)
        np.testing.assert_array_equal(x, [[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
        np.testing.assert_array_equal(t, [0.0, 1.0])
        np.testing.assert_array_equal(cell, [1, 0, 1])

    def test_cell_sums_total_each_cell(self):
        data = sample_dgp(DgpSpec(), 150, seed=4)
        x, t, cell = cell_design(data)
        cells = data.cells[0]
        sizes, sums, means, m2 = cells.sizes[0], cells.sums[0], cells.means[0], cells.m2[0]
        groups = [data.y[cell == c] for c in range(len(t))]
        np.testing.assert_array_equal(sizes, np.bincount(cell))
        np.testing.assert_allclose(sums, [g.sum() for g in groups], rtol=1e-12)
        np.testing.assert_allclose(means, [g.mean() for g in groups], rtol=1e-12)
        np.testing.assert_allclose(m2, [((g - g.mean()) ** 2).sum() for g in groups], rtol=1e-10)

    def test_cell_sums_of_distinct_rows_are_the_units(self, dataset):
        cells = dataset.cells[0]
        sizes, sums, means, m2 = cells.sizes[0], cells.sums[0], cells.means[0], cells.m2[0]
        np.testing.assert_array_equal(sizes, np.ones(dataset.n))
        assert sums.tobytes() == means.tobytes() == dataset.y.tobytes()
        assert not m2.any()

    @pytest.mark.parametrize("levels", [(), (2,), (3, 2), (12, 12, 2), (40,)])
    def test_cells_are_the_lexsort_groups(self, levels):
        """Few and many values per column, and keys renumbered on the way,
        give the cells that a lexsort of (t, w) finds, in its order."""
        rng = np.random.default_rng(len(levels))
        n = 60
        w = np.column_stack([rng.integers(0, k, size=n) * 0.5 - 1.0 for k in levels]) if levels else np.empty((n, 0))
        t = (rng.random(n) < 0.5).astype(float)
        data = ObservationSet(w=w, t=t, y=np.zeros(n))
        order = np.lexsort((t, *w.T))
        keys = np.column_stack([t, w])[order]
        first = np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)]
        expected = np.empty(n, dtype=np.intp)
        expected[order] = np.cumsum(first) - 1
        x, t_cells, cell = cell_design(data)
        np.testing.assert_array_equal(cell, expected)
        np.testing.assert_array_equal(x[:, 1:], keys[first][:, 1:])
        np.testing.assert_array_equal(t_cells, keys[first][:, 0])


def unit_rows_fit(data):
    """The propensity IRLS on the units, one row each: the reference for the grouped fit."""
    beta, ok, _ = _irls(np.hstack([np.ones((data.n, 1)), data.w]), data.t, np.ones((1, data.n)))
    assert ok[0]
    return beta[0]


def coefficients(model):
    return np.concatenate([[model.intercept], model.coef])


def intercept_only():
    rng = np.random.default_rng(1)
    t = (rng.random(50) < 0.3).astype(float)
    return ObservationSet(w=np.empty((50, 0)), t=t, y=np.zeros(50))


class TestGroupedFit:
    """The full-sample fit runs on the cells, weighted by their unit counts."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_dgp(DgpSpec(), 150, seed=4),
            lambda: sample_dgp(DgpSpec(), 100_000, seed=5),
            lambda: two_binary_covariates(200, seed=1),
            intercept_only,
        ],
        ids=["paper150", "paper1e5", "two_binary", "intercept_only"],
    )
    def test_matches_the_unit_rows(self, make):
        data = make()
        assert data.cells[0].t.size < data.n
        np.testing.assert_allclose(coefficients(fit_logistic(data)), unit_rows_fit(data), rtol=1e-12)

    @pytest.mark.parametrize("n, p, seed", [(90, 2, 8), (2000, 3, 1), (30, 1, 12)])
    def test_bit_identical_on_continuous_designs(self, n, p, seed):
        data = make_dataset(n=n, p=p, seed=seed)
        assert coefficients(fit_logistic(data)).tobytes() == unit_rows_fit(data).tobytes()

    @pytest.mark.parametrize(
        "columns, treat, error, message",
        [
            (
                lambda wb, r: [wb], lambda wb, r: wb, SeparationError,
                "logistic coefficients exceeded 30 in magnitude; the treatment arms appear (quasi-)separated",
            ),
            (
                lambda wb, r: [wb, r < 0.5], lambda wb, r: np.where(wb == 1.0, 1.0, r < 0.3),
                SeparationError,
                "logistic coefficients exceeded 30 in magnitude; the treatment arms appear (quasi-)separated",
            ),
            (
                lambda wb, r: [wb, wb], lambda wb, r: r < 0.5, SingularDesignError,
                "singular logistic design; collinear columns: w1, w2",
            ),
            (
                lambda wb, r: [wb, np.full(60, 3.0)], lambda wb, r: r < 0.5, SingularDesignError,
                "singular logistic design; collinear columns: intercept, w2",
            ),
            (
                lambda wb, r: [wb, 1.0 - wb], lambda wb, r: r < 0.5, SingularDesignError,
                "singular logistic design; collinear columns: intercept, w1, w2",
            ),
            (
                lambda wb, r: [wb], lambda wb, r: np.ones(60), DegenerateArmError,
                "cannot fit the propensity model: both treatment arms must be present",
            ),
        ],
        ids=["separated", "quasi_separated", "repeated_column", "constant_column", "complement", "one_arm"],
    )
    def test_errors_and_messages_on_grouped_designs(self, columns, treat, error, message):
        rng = np.random.default_rng(0)
        wb = (rng.random(60) < 0.5).astype(float)
        wb[:2] = [0.0, 1.0]
        r = rng.random(60)
        data = ObservationSet(w=np.column_stack(columns(wb, r)), t=treat(wb, r), y=np.zeros(60))
        assert data.cells[0].t.size < data.n
        with pytest.raises(error) as info:
            fit_logistic(data)
        assert str(info.value) == message


def both_arms(counts, t):
    treated = counts @ t
    return (treated > 0.0) & (treated < counts.sum(axis=1))


def irls_refit(x, t, counts, start):
    """Every resample with both arms refitted by one batched IRLS from
    `start`, and the mask of those on which it converges: the reference for
    the saturated closed form."""
    ok = both_arms(counts, t)
    beta = np.tile(start, (counts.shape[0], 1))
    both = np.flatnonzero(ok)
    if both.size:
        beta[both], ok[both], _ = _irls(x, t, counts=counts[both], start=start, pooled=True)
    return np.clip(expit(beta @ x.T), 1e-15, 1.0 - 1e-15), ok


def patterned_sample(levels, n, seed):
    """n units on the covariate rows `levels`, each row with both arms."""
    rng = np.random.default_rng(seed)
    levels = np.asarray(levels, dtype=float)
    w = levels[np.r_[np.repeat(np.arange(len(levels)), 2), rng.integers(0, len(levels), n - 2 * len(levels))]]
    t = (rng.random(n) < expit(w.sum(axis=1) - 0.5)).astype(float)
    t[: 2 * len(levels)] = np.tile([0.0, 1.0], len(levels))
    return ObservationSet(w=w, t=t, y=np.zeros(n))


def resample_counts(data, m, seed):
    """The sample's cell rows, treatments and full-sample coefficients, and
    the (m, k) cell counts of m bootstrap resamples."""
    x, t, cell = cell_design(data)
    idx = np.random.default_rng(seed).integers(0, data.n, size=(m, data.n))
    counts = np.stack([np.bincount(cell[row], minlength=t.size) for row in idx]).astype(float)
    return x, t, coefficients(fit_logistic(data)), counts


def irls_problems(monkeypatch):
    """Record the number of problems of each `_irls` call."""
    problems, original = [], nuisance._irls

    def counted(*args, **kwargs):
        problems.append(kwargs["counts"].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(nuisance, "_irls", counted)
    return problems


def far_levels_sample(treated_low, treated_high):
    """Six units at w = -3 and six at w = 5, the first `treated_low` and
    `treated_high` of each untreated: far from 0, so a pattern that loses
    an arm can drive the weighted Hessian singular before the coefficients
    reach the separation bound."""
    w = np.repeat([-3.0, 5.0], 6)[:, None]
    t = np.r_[np.arange(6) >= treated_low, np.arange(6) >= treated_high].astype(float)
    return ObservationSet(w=w, t=t, y=np.arange(12.0))


class TestSaturatedRefit:
    """On a saturated design a resample's MLE exists exactly when every
    covariate pattern holds both arms, and then it is each pattern's treated
    share: the refit accepts exactly those resamples, gives them their
    shares without IRLS, and must agree with IRLS from the full-sample fit
    wherever that converges."""

    @pytest.mark.parametrize(
        "levels",
        [[[0.0], [1.0]], [[0.0], [0.2]], [[1.0], [2.0]], [[-1.0], [0.5]], [[0, 0], [1, 0], [1, 1]], [[]]],
        ids=["binary", "close_levels", "shifted_levels", "signed_levels", "three_patterns", "intercept_only"],
    )
    @pytest.mark.parametrize("n, seed", [(8, 0), (12, 1), (30, 2), (400, 3)])
    def test_same_mask_and_probabilities_as_irls(self, monkeypatch, levels, n, seed):
        x, t, start, counts = resample_counts(patterned_sample(levels, n, seed), 300, seed)
        patterns = saturated_patterns(x)
        assert patterns is not None
        member = patterns[0]
        # a resample with one arm, one with an empty pattern and one with a one-arm pattern
        one_arm, empty, one_arm_pattern = counts[:3].copy()
        one_arm[t == 1.0] = 0.0
        empty[member[:, 0] == 1.0] = 0.0
        one_arm_pattern[(member[:, 0] == 1.0) & (t == 1.0)] = 0.0
        counts = np.vstack([counts, one_arm, empty, one_arm_pattern])
        reference, converged = irls_refit(x, t, counts, start)
        refits = irls_problems(monkeypatch)
        probs, ok, stalled = refit_logistic(x, t, counts, start)
        units, cases = counts @ member, counts @ (member * t[:, None])
        np.testing.assert_array_equal(ok, ((cases > 0.0) & (cases < units)).all(axis=1))
        assert not ok[-3:].any() and not stalled and refits == []
        both = converged & ok  # IRLS can also stop on a resample whose MLE does not exist
        assert both.any()
        np.testing.assert_allclose(probs[both], reference[both], rtol=1e-12)

    def test_a_resample_on_which_irls_overshoots_takes_its_shares(self, monkeypatch):
        """n = 20 on the paper design: the resample with cell counts [16, 1,
        2, 1] holds both arms in both patterns, so its MLE exists, but IRLS
        from the full-sample fit overshoots past the separation bound. The
        refit accepts it with its patterns' treated shares, 1/17 and 1/3."""
        data = sample_dgp(DgpSpec(), 20, seed=16)
        x, t, _ = cell_design(data)
        np.testing.assert_array_equal(x[:, 1], [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(t, [0.0, 1.0, 0.0, 1.0])
        start, counts = coefficients(fit_logistic(data)), np.array([[16.0, 1.0, 2.0, 1.0]])
        _, converged, stalled = _irls(x, t, counts=counts, start=start, pooled=True)
        assert not converged[0] and not stalled  # flagged as separated
        refits = irls_problems(monkeypatch)
        probs, ok, stalled = refit_logistic(x, t, counts, start)
        assert ok[0] and not stalled and refits == []
        assert probs[0].tobytes() == np.array([1 / 17, 1 / 17, 1 / 3, 1 / 3]).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 5, 17, 50, 300])
    def test_a_refit_is_flagged_alike_in_every_block(self, monkeypatch, block):
        """The resample with counts [3, 0, 2, 7] on w in {-3, 5}, whose
        pattern w = -3 holds one arm, is flagged with the same bytes in
        every block of its own sample's resamples, and between other
        resamples, with no IRLS. IRLS from the full-sample fit does not
        converge on it."""
        data = far_levels_sample(3, 3)
        x, t, cell = cell_design(data)
        idx = np.random.default_rng(0).integers(0, data.n, size=(block - 1, data.n))
        own = np.vstack([[3.0, 0.0, 2.0, 7.0], *(np.bincount(cell[row], minlength=4) for row in idx)])
        start = coefficients(fit_logistic(data))
        assert list(_irls(x, t, counts=own[:1], start=start, pooled=True)[2]) == [0]
        neighbours = np.array([[3.0, 3.0, 2.0, 4.0], [1.0, 5.0, 4.0, 2.0], [6.0, 0.0, 1.0, 5.0]])
        refits = irls_problems(monkeypatch)
        expected = np.clip([0.0, 0.0, 7 / 9, 7 / 9], 1e-15, 1.0 - 1e-15).tobytes()
        for counts, row in [(own, 0), (np.vstack([neighbours, own, neighbours]), 3)]:
            probs, ok, stalled = refit_logistic(x, t, counts, start)
            assert not ok[row] and not stalled and probs[row].tobytes() == expected
        assert refits == []

    def test_non_saturated_design_runs_irls_unchanged(self, monkeypatch):
        x, t, start, counts = resample_counts(two_binary_covariates(200, seed=1), 200, 0)
        assert saturated_patterns(x) is None
        reference, expected = irls_refit(x, t, counts, start)
        refits = irls_problems(monkeypatch)
        probs, ok, stalled = refit_logistic(x, t, counts, start)
        assert refits == [both_arms(counts, t).sum()] and not stalled
        assert ok.tobytes() == expected.tobytes() and probs.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 2.0]], [[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]],
         [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 2.0, 2.0]],
         np.hstack([np.ones((5, 1)), np.arange(5.0)[:, None]])],
        ids=["three_levels", "two_rows_of_three", "one_row_of_two", "collinear_rows", "continuous"],
    )
    def test_other_designs_are_not_saturated(self, rows):
        assert saturated_patterns(np.asarray(rows)) is None


class TestPredictOutcome:
    def test_treatment_shift_prediction(self):
        rng = np.random.default_rng(0)
        n = 30
        t = (rng.random(n) < 0.5).astype(float)
        t[:2] = [0.0, 1.0]
        data = ObservationSet(w=rng.normal(size=(n, 1)), t=t, y=2.0 + 3.0 * t)
        fit = fit_ols_interacted(data)
        assert fit.predict(1.0, np.array([123.0])) == pytest.approx(5.0, abs=1e-7)

    def test_at_demeaning_center_gives_intercept(self, dataset):
        fit = fit_ols_interacted(dataset)
        assert fit.predict(0.0, fit.w_mean) == pytest.approx(fit.beta0, abs=1e-12)

    def test_matches_manual_dot_product(self, dataset):
        fit = fit_ols_interacted(dataset)
        rng = np.random.default_rng(42)
        for _ in range(5):
            w = rng.normal(size=dataset.p)
            t = float(rng.integers(0, 2))
            wc = w - fit.w_mean
            manual = fit.beta0 + t * fit.beta_t + wc @ fit.beta_w + t * (wc @ fit.beta_interact)
            assert fit.predict(t, w) == pytest.approx(manual, abs=1e-12)

    def test_vectorized_matches_scalar(self, dataset):
        fit = fit_ols_interacted(dataset)
        batch = fit.predict(dataset.t, dataset.w)
        singles = [fit.predict(float(dataset.t[i]), dataset.w[i]) for i in range(5)]
        np.testing.assert_allclose(batch[:5], singles, rtol=1e-12)

    @pytest.mark.parametrize(
        "bad_w", [lambda p: np.zeros(p + 1), lambda p: np.zeros((3, p + 1)), lambda p: 1.0],
        ids=["vector", "matrix", "scalar"],
    )
    def test_covariate_width_must_match(self, dataset, bad_w):
        w = bad_w(dataset.p)
        with pytest.raises(ValidationError):
            fit_ols_interacted(dataset).predict(1.0, w)
        with pytest.raises(ValidationError):
            fit_logistic(dataset).predict_proba(w)
