import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from bineffect import (
    EstimandSpec,
    QuadratureError,
    ValidationError,
    estimate_aipw,
    estimate_reg,
    estimate_tmle,
    estimators,
)
from bineffect.simulation import (
    DgpSpec,
    density_curve,
    mc_results_to_csv,
    run_monte_carlo,
    sample_dgp,
    truth_oracle,
)

BATE = EstimandSpec.bate()
PEB1 = EstimandSpec.peb(1)
PEB0 = EstimandSpec.peb(0)

# Values computed independently: closed-form truncated-normal moments for the
# polynomial part (E[Z^3 1(Z>c)] = (c^2+2) phi(c) etc.) plus quadrature for
# the sine part, cross-checked against a fixed-grid trapezoid rule.
TRUE_BATE = 202.298501
TRUE_PEB1 = 89.958529
TRUE_PEB0 = -112.339972
TRUE_EY = 301.908433


def trapezoid_truth(spec):
    """Independent non-adaptive route to the same integrals.

    Fixed fine grids split exactly at the cutoff, so the region indicator
    never lands mid-interval.
    """
    e_y = e_mu1 = e_mu0 = 0.0
    for w in (0.0, 1.0):
        weight = spec.w_prob if w == 1.0 else 1.0 - spec.w_prob
        m = spec.a_mean(w)

        def piece(left, right):
            grid = np.linspace(left, right, 120_001)
            fx = spec.outcome_fn(grid, np.full_like(grid, w)) * stats.norm.pdf(
                grid, loc=m, scale=spec.a_sd
            )
            return float(np.trapezoid(fx, grid))

        upper = piece(spec.cutoff, m + 9.0 * spec.a_sd)
        lower = piece(m - 9.0 * spec.a_sd, spec.cutoff)
        pi1 = spec.propensity(w)
        e_y += weight * (upper + lower)
        e_mu1 += weight * upper / pi1
        e_mu0 += weight * lower / (1.0 - pi1)
    return e_mu1 - e_mu0, e_mu1 - e_y, e_mu0 - e_y, e_y


def scipy_density_truth(spec):
    """The oracle's quadrature with the density from scipy.stats.norm.pdf:
    (psi_bate, psi_peb1, psi_peb0, e_y, quadrature_error_bound)."""
    e_y = e_mu1 = e_mu0 = err = 0.0
    for w in (0.0, 1.0):
        weight = spec.w_prob if w == 1.0 else 1.0 - spec.w_prob
        m, sd, pi1 = spec.a_mean(w), spec.a_sd, spec.propensity(w)

        def integrand(a, w=w, m=m, sd=sd):
            outcome = float(spec.outcome_fn(np.float64(a), np.float64(w)))
            return outcome * float(stats.norm.pdf(a, loc=m, scale=sd))

        lo, hi = m - 10.0 * sd, m + 10.0 * sd
        pieces = []
        for left, right in ((max(spec.cutoff, lo), hi), (lo, min(spec.cutoff, hi))):
            val, abserr = integrate.quad(integrand, left, right, limit=200) if left < right else (0.0, 0.0)
            pieces.append(val)
            err += abserr * weight / min(pi1, 1.0 - pi1)
        e_y += weight * (pieces[0] + pieces[1])
        e_mu1 += weight * pieces[0] / pi1
        e_mu0 += weight * pieces[1] / (1.0 - pi1)
    return e_mu1 - e_mu0, e_mu1 - e_y, e_mu0 - e_y, e_y, err


class TestSampleDgp:
    def test_conditional_treatment_means(self, dgp):
        data = sample_dgp(dgp, 100_000, seed=0)
        w = data.w[:, 0]
        assert data.a[w == 0.0].mean() == pytest.approx(5.0, abs=0.02)
        assert data.a[w == 1.0].mean() == pytest.approx(7.0, abs=0.02)

    def test_arm_frequencies_match_normal_tail(self, dgp):
        data = sample_dgp(dgp, 100_000, seed=1)
        w = data.w[:, 0]
        assert data.t[w == 0.0].mean() == pytest.approx(float(stats.norm.sf(1.0)), abs=0.005)
        assert data.t[w == 1.0].mean() == pytest.approx(float(stats.norm.cdf(1.0)), abs=0.005)

    def test_seed_determinism(self, dgp):
        first = sample_dgp(dgp, 500, seed=42)
        second = sample_dgp(dgp, 500, seed=42)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.a, second.a)

    def test_rule_attached_and_consistent(self, dgp):
        data = sample_dgp(dgp, 100, seed=3)
        assert data.rule == dgp.rule
        assert np.array_equal(data.t, (data.a >= 6.0).astype(float))

    def test_rejects_bad_sizes(self, dgp):
        with pytest.raises(ValidationError):
            sample_dgp(dgp, 0, seed=0)


class TestTruthOracle:
    def test_matches_independent_quadrature(self, dgp):
        report = truth_oracle(dgp)
        bate, peb1, peb0, e_y = trapezoid_truth(dgp)
        assert report.psi_bate == pytest.approx(bate, abs=1e-4)
        assert report.psi_peb1 == pytest.approx(peb1, abs=1e-4)
        assert report.psi_peb0 == pytest.approx(peb0, abs=1e-4)
        assert report.e_y == pytest.approx(e_y, abs=1e-4)

    def test_frozen_reference_values(self, dgp):
        report = truth_oracle(dgp)
        assert report.psi_bate == pytest.approx(TRUE_BATE, abs=1e-3)
        assert report.psi_peb1 == pytest.approx(TRUE_PEB1, abs=1e-3)
        assert report.psi_peb0 == pytest.approx(TRUE_PEB0, abs=1e-3)
        assert report.e_y == pytest.approx(TRUE_EY, abs=1e-3)
        assert report.quadrature_error_bound < 1e-4

    def test_peb_difference_identity(self, dgp):
        report = truth_oracle(dgp)
        assert report.psi_peb1 - report.psi_peb0 == pytest.approx(
            report.psi_bate, abs=2 * report.quadrature_error_bound + 1e-9
        )

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"a_mean_slope": 4.0},
            {"a_sd": 2.0, "cutoff": 5.0},
            {"w_prob": 0.3},
            {"outcome_fn": lambda a, w: 2.0 * a + 3.0 * w},
            {"noise_sd": 0.0},
        ],
        ids=["default", "slope4", "sd2_cutoff5", "w_prob", "linear", "noiseless"],
    )
    def test_closed_form_density_matches_scipy(self, changes):
        spec = DgpSpec(**changes)
        report = truth_oracle(spec)
        values = (report.psi_bate, report.psi_peb1, report.psi_peb0, report.e_y,
                  report.quadrature_error_bound)
        assert values == pytest.approx(scipy_density_truth(spec), rel=1e-12)

    def test_constant_outcome(self):
        spec = DgpSpec(outcome_fn=lambda a, w: np.full_like(np.asarray(a, dtype=float), 7.5))
        report = truth_oracle(spec)
        assert report.psi_bate == pytest.approx(0.0, abs=1e-6)
        assert report.psi_peb1 == pytest.approx(0.0, abs=1e-6)
        assert report.e_y == pytest.approx(7.5, abs=1e-6)

    def test_positivity_guard(self):
        with pytest.raises(ValidationError, match="positivity"):
            truth_oracle(DgpSpec(cutoff=100.0))

    def test_quadrature_failure_names_interval(self):
        spec = DgpSpec(outcome_fn=lambda a, w: np.sin(1e7 * a) * np.exp(np.minimum(a, 30.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad's own accuracy warning
            with pytest.raises(QuadratureError, match=r"over \["):
                truth_oracle(spec)

    def test_stable_under_refinement(self, dgp):
        # deterministic, and already converged well past the accuracy target
        first, second = truth_oracle(dgp), truth_oracle(dgp)
        assert first == second
        bate_fine = trapezoid_truth(dgp)[0]
        assert first.psi_bate == pytest.approx(bate_fine, abs=1e-4)


class TestDensityCurve:
    def test_zero_outside_region(self, dgp):
        curve = density_curve(dgp, "tilde1", 0, np.array([5.99]))
        assert curve[0, 1] == 0.0
        curve0 = density_curve(dgp, "tilde0", 1, np.array([6.0, 8.0]))
        assert np.all(curve0[:, 1] == 0.0)

    @pytest.mark.parametrize("w", [0, 1])
    def test_self_selection_ratio_preserved(self, dgp, w):
        grid = np.array([6.0, 6.5, 7.0, 8.5, 10.0])
        tilde1 = density_curve(dgp, "tilde1", w, grid)[:, 1]
        status = density_curve(dgp, "status_quo", w, grid)[:, 1]
        ratios = (tilde1[1:] / tilde1[0]) / (status[1:] / status[0])
        np.testing.assert_allclose(ratios, 1.0, rtol=1e-10)

    @pytest.mark.parametrize("w", [0, 1])
    def test_normalization(self, dgp, w):
        grid = np.arange(6.0, 15.0 + 0.0005, 0.001)
        dens = density_curve(dgp, "tilde1", w, grid)[:, 1]
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_arguments(self, dgp):
        with pytest.raises(ValidationError):
            density_curve(dgp, "tilde2", 0, np.array([1.0]))
        with pytest.raises(ValidationError):
            density_curve(dgp, "tilde1", 2, np.array([1.0]))
        with pytest.raises(ValidationError):
            density_curve(dgp, "tilde1", 0, np.array([np.nan]))


class TestMonteCarlo:
    def test_minimal_run_is_well_formed(self, dgp):
        results = run_monte_carlo(dgp, [80], 2, ["reg", "aipw"], seed=5, boot_replicates=10)
        assert len(results) == 1
        result = results[0]
        assert result.replicates == 2
        for row in result.rows:
            assert np.isfinite(row.mean_estimate)
            assert np.isfinite(row.sim_se)
            assert row.n_failed == 0

    def test_cells_are_means_of_library_estimates(self, dgp):
        n, reps, seed = 120, 4, 13
        estimands = (BATE, PEB1, PEB0)
        library = {"reg": estimate_reg, "aipw": estimate_aipw, "tmle": estimate_tmle}
        result = run_monte_carlo(dgp, [n], reps, list(library), seed, estimands=estimands)[0]
        datasets = [sample_dgp(dgp, n, np.random.default_rng([seed, n, r])) for r in range(reps)]
        for name, fn in library.items():
            for e in estimands:
                reports = [fn(d, e) for d in datasets]
                row = result.row(name, e)
                assert row.n_failed == 0
                assert row.mean_estimate == np.mean([r.point for r in reports])
                assert row.mean_est_se == np.mean([r.se for r in reports])

    def test_reg_only_run_fits_no_propensity(self, dgp, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("propensity fitted for a reg-only run")

        monkeypatch.setattr(estimators, "fit_logistic", no_fit)
        results = run_monte_carlo(dgp, [60], 2, ["reg"], seed=4, boot_replicates=0)
        assert all(row.n_failed == 0 for row in results[0].rows)

    def test_deterministic_and_thread_invariant(self, dgp):
        kwargs = dict(estimands=(BATE,), boot_replicates=10)
        serial = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=1, **kwargs)
        again = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=1, **kwargs)
        threaded = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=2, **kwargs)
        assert serial[0] == again[0]
        assert serial[0] == threaded[0]

    def test_bias_is_against_oracle(self, dgp):
        results = run_monte_carlo(dgp, [100], 3, ["reg"], seed=2, estimands=(BATE,))
        row = results[0].row("reg", BATE)
        truth = truth_oracle(dgp).psi_bate
        assert row.bias == pytest.approx(row.mean_estimate - truth, abs=1e-12)

    def test_csv_layout(self, dgp):
        results = run_monte_carlo(
            dgp, [60, 90], 2, ["reg"], seed=1, estimands=(BATE, PEB1), boot_replicates=10
        )
        text = mc_results_to_csv(results, ["reg"], (BATE, PEB1))
        lines = text.strip().split("\n")
        assert lines[0] == "estimand,n,reg_estimate,reg_bias,reg_est_se,reg_sim_se"
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["bate", "60"], ["bate", "90"], ["peb1", "60"], ["peb1", "90"],
        ]

    def test_unknown_estimator_rejected(self, dgp):
        with pytest.raises(ValidationError):
            run_monte_carlo(dgp, [50], 2, ["magic"], seed=0)

    @pytest.mark.parametrize("n_list, seed", [([50], -1), ([50, -5], 0), ([0], 0)])
    def test_negative_seed_or_size_rejected(self, dgp, n_list, seed):
        with pytest.raises(ValidationError):
            run_monte_carlo(dgp, n_list, 2, ["reg"], seed=seed)


class TestLargeSampleConsistency:
    def test_regression_estimate_approaches_oracle(self, dgp):
        # the conditional mean given (t, w) is exactly linear for binary w,
        # so the interacted fit is consistent; check at a single large n
        data = sample_dgp(dgp, 1_000_000, seed=77)
        report = estimate_reg(data, BATE)
        truth = truth_oracle(dgp).psi_bate
        assert abs(report.point - truth) < 3.0 * report.se
