import pickle
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from bineffect import (
    BootstrapConfig,
    ConvergenceError,
    EstimandSpec,
    EstimationError,
    QuadratureError,
    ValidationError,
    estimate_many,
    estimators,
    simulation,
)
from bineffect.simulation import (
    DgpSpec,
    density_curve,
    mc_results_to_csv,
    run_monte_carlo,
    sample_dgp,
    truth_oracle,
)
from bineffect.nuisance import CellBatch
from conftest import forbid

BATE = EstimandSpec("bate")
PEB1 = EstimandSpec("peb1")
PEB0 = EstimandSpec("peb0")

# Values computed independently: closed-form truncated-normal moments for the
# polynomial part (E[Z^3 1(Z>c)] = (c^2+2) phi(c) etc.) plus quadrature for
# the sine part, cross-checked against a fixed-grid trapezoid rule.
TRUE_BATE = 202.298501
TRUE_PEB1 = 89.958529
TRUE_PEB0 = -112.339972
TRUE_EY = 301.908433


def signed_zero_outcome(a, w):
    """-0.0 at every unit, so y keeps the sign of a zero noise draw."""
    return -0.0 * a


def constant_outcome(a, w):
    """A scalar, which broadcasts against the noise."""
    return 7.5


def column_outcome(a, w):
    """An (n, 1) column, which broadcasts against the (n,) noise to (n, n)."""
    return (a + w)[:, None]


COLUMN_OUTCOME_ERROR = "column lengths disagree: t has 50, y has 2500, w has 50 rows"
COLUMN_OUTCOME_TRUTH_ERROR = r"^outcome_fn must give a scalar or one value per point, got shape \((\d+), 1\) for \1 points$"


def outcome_nan_in_the_far_tail(a, w):
    """The default outcome, NaN at a unit with a > 9.5 (about 1 in 160 at w = 1)."""
    return np.where(a > 9.5, np.nan, a**3 + np.sin(a) + 100.0 * w)


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


@pytest.mark.parametrize(
    "field, value",
    [
        *[(name, bad) for name in ("a_mean_base", "a_mean_slope", "a_sd", "noise_sd", "cutoff")
          for bad in (float("nan"), float("inf"), float("-inf"))],
        ("a_sd", 0.0), ("a_sd", -1.0), ("noise_sd", -0.5), ("w_prob", float("nan")), ("w_prob", 1.0),
    ],
)
def test_dgp_spec_rejects_a_bad_parameter_by_name(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        DgpSpec(**{field: value})


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

    def test_rule_is_built_once_per_spec(self):
        spec = DgpSpec(cutoff=5.5)
        assert spec.rule is spec.rule and spec.rule.cutoff == 5.5
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec and copy.rule == spec.rule
        assert replace(spec, cutoff=6.5).rule.cutoff == 6.5

    def test_rejects_bad_sizes(self, dgp):
        with pytest.raises(ValidationError):
            sample_dgp(dgp, 0, seed=0)

    @pytest.mark.parametrize(
        "n, seed, message",
        [(150.7, 1, "n must be an integer, got 150.7"), (True, 1, "n must be an integer, got True"),
         (150, 1.5, "seed must be an integer or a sequence of integers, got 1.5"),
         (150, "7", "seed must be an integer or a sequence of integers, got 7"),
         (150, -1, "seed must be non-negative, got -1"), (150, [4, -2], "seed must be non-negative, got [4, -2]")],
        ids=["float_n", "bool_n", "float_seed", "str_seed", "negative_seed", "negative_in_sequence"],
    )
    def test_a_bad_size_or_seed_is_a_validation_error(self, dgp, n, seed, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sample_dgp(dgp, n, seed)

    @pytest.mark.parametrize(
        "spec",
        [DgpSpec(), DgpSpec(a_sd=1.7), DgpSpec(noise_sd=0.0, outcome_fn=signed_zero_outcome),
         DgpSpec(a_mean_slope=4.0), DgpSpec(w_prob=0.05)],
        ids=["paper", "a_sd", "zero_noise", "slope4", "rare_w"],
    )
    @pytest.mark.parametrize("n", [1, 500, 2000, 100_000])
    def test_draws_equal_generator_normal(self, spec, n):
        """The normals are drawn as loc + sd * standard_normal, the formula
        `Generator.normal` evaluates: the same bits, zero noise's +0.0
        included, and the same final generator state."""
        rng, ref = np.random.default_rng([8, n]), np.random.default_rng([8, n])
        data = sample_dgp(spec, n, rng)
        w = (ref.random(n) < spec.w_prob).astype(float)
        a = ref.normal(spec.a_mean_base + spec.a_mean_slope * w, spec.a_sd)
        y = np.asarray(spec.outcome_fn(a, w), dtype=float) + ref.normal(0.0, spec.noise_sd, n)
        for got, expected in ((data.w[:, 0], w), (data.a, a), (data.y, y)):
            assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize(
        "spec",
        [DgpSpec(), DgpSpec(noise_sd=0.0, outcome_fn=signed_zero_outcome), DgpSpec(w_prob=0.02),
         DgpSpec(w_prob=0.98)],
        ids=["paper", "zero_noise", "w_rare", "w_common"],
    )
    @pytest.mark.parametrize("r, n", [(1, 7), (5, 1), (9, 37), (16, 2000)])
    def test_a_block_equals_its_samples_drawn_one_at_a_time(self, spec, r, n):
        """Row i of a block has the bytes of sample i drawn alone from its
        generator, and each generator is left where a lone draw leaves it:
        the ipw bootstrap continues from there."""
        rngs = [np.random.default_rng([4, n, i]) for i in range(r)]
        w, a, t, y = simulation._draw(spec, n, rngs)
        assert w.shape == (r, n, 1) and a.shape == t.shape == y.shape == (r, n)
        for i in range(r):
            ref = np.random.default_rng([4, n, i])
            w_i = (ref.random(n) < spec.w_prob).astype(float)
            a_i = ref.normal(spec.a_mean_base + spec.a_mean_slope * w_i, spec.a_sd)
            y_i = np.asarray(spec.outcome_fn(a_i, w_i), dtype=float) + ref.normal(0.0, spec.noise_sd, n)
            t_i = (a_i >= spec.cutoff).astype(float)
            for got, expected in ((w[i, :, 0], w_i), (a[i], a_i), (t[i], t_i), (y[i], y_i)):
                assert got.tobytes() == expected.tobytes()
            assert rngs[i].integers(2**62) == ref.integers(2**62)

    def test_a_scalar_outcome_broadcasts_against_the_noise(self):
        data = sample_dgp(DgpSpec(outcome_fn=constant_outcome), 50, seed=9)
        ref = np.random.default_rng(9)
        ref.random(50)  # w
        ref.standard_normal(50)  # a
        assert data.y.tobytes() == (7.5 + ref.normal(0.0, 1.0, 50)).tobytes()

    def test_an_outcome_column_is_rejected(self):
        with pytest.raises(ValidationError, match=f"^{re.escape(COLUMN_OUTCOME_ERROR)}$"):
            sample_dgp(DgpSpec(outcome_fn=column_outcome), 50, seed=0)


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
        """The four values agree with quad on scipy.stats' density, each
        within the two error bounds; the oracle's bound is finite and within
        the 1e-4 target."""
        spec = DgpSpec(**changes)
        report = truth_oracle(spec)
        values = (report.psi_bate, report.psi_peb1, report.psi_peb0, report.e_y)
        *reference, reference_bound = scipy_density_truth(spec)
        assert values == pytest.approx(tuple(reference), rel=1e-12)
        bound = report.quadrature_error_bound
        assert np.isfinite(bound) and bound <= 1e-4
        assert all(abs(v - r) <= bound + reference_bound for v, r in zip(values, reference))

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
        with pytest.raises(QuadratureError, match=r"over \["):
            truth_oracle(spec)

    def test_reaching_the_panel_cap_raises(self, dgp, monkeypatch):
        """The default process needs two panels on some piece, so a cap of
        one panel stops the oracle, naming the piece's interval."""
        monkeypatch.setattr(simulation, "_MAX_PANELS", 1)
        with pytest.raises(QuadratureError, match=r"^quadrature error estimate \S+ over \[-?\d+, \d+\] is above "
                                                  r"its \S+ goal at the 1-panel cap$"):
            truth_oracle(dgp)

    def test_a_non_finite_integrand_raises(self):
        """log(a - 6) is NaN below the cutoff, which once gave NaN truth values."""
        with np.errstate(invalid="ignore"):
            with pytest.raises(QuadratureError, match=r"^non-finite integrand or estimate over \[-5, 6\]$"):
                truth_oracle(DgpSpec(outcome_fn=lambda a, w: np.log(a - 6.0)))

    def test_an_outcome_of_another_shape_is_rejected(self):
        with pytest.raises(ValidationError, match=COLUMN_OUTCOME_TRUTH_ERROR):
            truth_oracle(DgpSpec(outcome_fn=column_outcome))

    def test_a_scalar_outcome_serves_every_point(self):
        report = truth_oracle(DgpSpec(outcome_fn=constant_outcome))
        assert report.e_y == pytest.approx(7.5, rel=1e-12)
        assert report.psi_bate == pytest.approx(0.0, abs=1e-9)

    def test_stable_under_refinement(self, dgp):
        # deterministic, and already converged well past the accuracy target
        first, second = truth_oracle(dgp), truth_oracle(dgp)
        assert first == second
        bate_fine = trapezoid_truth(dgp)[0]
        assert first.psi_bate == pytest.approx(bate_fine, abs=1e-4)


def test_propensity_and_density_match_scipy_stats():
    rng = np.random.default_rng(8)
    for _ in range(200):
        spec = DgpSpec(
            a_mean_base=rng.normal(5.0, 3.0), a_mean_slope=rng.normal(0.0, 4.0),
            a_sd=rng.uniform(0.05, 5.0), cutoff=rng.normal(6.0, 5.0),
        )
        grid = rng.normal(spec.cutoff, 4.0 * spec.a_sd, 100)
        for w in (0, 1):
            loc = spec.a_mean(w)
            assert spec.propensity(w) == float(stats.norm.sf(spec.cutoff, loc=loc, scale=spec.a_sd))
            status_quo = density_curve(spec, "status_quo", w, grid)[:, 1]
            assert np.array_equal(status_quo, stats.norm.pdf(grid, loc=loc, scale=spec.a_sd))


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
        names = ["reg", "aipw", "tmle"]
        result = run_monte_carlo(dgp, [n], reps, names, seed, estimands=estimands)[0]
        datasets = [sample_dgp(dgp, n, np.random.default_rng([seed, n, r])) for r in range(reps)]
        for name in names:
            for e in estimands:
                reports = [estimate_many(d, [name], [e])[0] for d in datasets]
                row = result.row(name, e)
                assert row.n_failed == 0
                assert row.mean_estimate == np.mean([r.point for r in reports])
                assert row.mean_est_se == np.mean([r.se for r in reports])

    def test_reg_only_run_fits_no_propensity(self, dgp, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("propensity fitted for a reg-only run")

        monkeypatch.setattr(estimators, "logistic_fits", no_fit)
        results = run_monte_carlo(dgp, [60], 2, ["reg"], seed=4, boot_replicates=0)
        assert all(row.n_failed == 0 for row in results[0].rows)

    def test_deterministic_and_thread_invariant(self, dgp):
        kwargs = dict(estimands=(BATE,), boot_replicates=10)
        serial = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=1, **kwargs)
        again = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=1, **kwargs)
        threaded = run_monte_carlo(dgp, [60], 4, ["reg", "ipw"], seed=9, threads=2, **kwargs)
        assert serial[0] == again[0]
        assert serial[0] == threaded[0]
        names, estimands = ["reg", "aipw", "tmle"], (BATE, PEB1, PEB0)
        serial = run_monte_carlo(dgp, [20, 120], 9, names, seed=9, estimands=estimands, threads=1)
        threaded = run_monte_carlo(dgp, [20, 120], 9, names, seed=9, estimands=estimands, threads=2)
        assert serial == threaded
        assert serial[0].row("reg", BATE).n_failed > 0  # n = 20 has failing replicates

    @pytest.mark.parametrize("n", [120, 20])
    def test_chunks_give_each_replicate_the_numbers_of_its_sample(self, dgp, n):
        """A replicate's points, SEs and failures do not depend on the chunk
        it is batched in, and equal estimate_many on its sample, ipw's
        bootstrap continuing the replicate's generator."""
        reps, seed, estimands = 24, 3, (BATE, PEB1, PEB0)
        names, boot = ["reg", "ipw", "aipw", "tmle"], BootstrapConfig(30)

        def chunk(lo, hi):
            return simulation._chunk_worker((dgp, n, names, estimands, boot, seed, range(lo, hi)))

        whole = chunk(0, reps)
        assert chunk(0, 7) + chunk(7, reps) == whole
        assert [o for r in range(reps) for o in chunk(r, r + 1)] == whole
        for rep, outcome in enumerate(whole):
            rng = np.random.default_rng([seed, n, rep])
            data = sample_dgp(dgp, n, rng)
            for name in names:
                try:
                    reports = estimate_many(data, [name], estimands, boot=BootstrapConfig(30, seed=rng))
                    expected = [(r.point, r.se) for r in reports]
                except EstimationError as err:
                    expected = [type(err).__name__] * len(estimands)
                assert [outcome[(name, e.key)] for e in estimands] == expected
        # at n = 20 some replicates miss a cell and fail, in groups of their own
        assert (n == 20) == any(isinstance(v, str) for outcome in whole for v in outcome.values())

    def test_failures_match_a_loop_over_the_replicates(self, dgp):
        """Each cell's failure count and causes, and the means of the
        delivered replicates, equal a per-replicate estimate_many loop."""
        n, reps, seed, estimands = 20, 40, 3, (BATE, PEB1, PEB0)
        names = ["reg", "ipw", "aipw", "tmle"]
        result = run_monte_carlo(dgp, [n], reps, names, seed, estimands=estimands, boot_replicates=20)[0]
        loop = {(name, e.key): [] for name in names for e in estimands}
        for rep in range(reps):
            rng = np.random.default_rng([seed, n, rep])
            data = sample_dgp(dgp, n, rng)
            for name in names:
                boot = BootstrapConfig(20, seed=rng) if name == "ipw" else None
                try:
                    values = [(r.point, r.se) for r in estimate_many(data, [name], estimands, boot=boot)]
                except EstimationError as err:
                    values = [type(err).__name__] * len(estimands)
                for e, value in zip(estimands, values):
                    loop[(name, e.key)].append(value)
        causes = set()
        for name in names:
            for e in estimands:
                row, values = result.row(name, e), loop[(name, e.key)]
                delivered = [v for v in values if not isinstance(v, str)]
                failures = Counter(v for v in values if isinstance(v, str))
                assert row.n_failed == reps - len(delivered) > 0
                assert row.failures == tuple(sorted(failures.items()))
                assert sum(count for _, count in row.failures) == row.n_failed
                assert row.mean_estimate == np.mean([v[0] for v in delivered])
                assert row.mean_est_se == np.mean([v[1] for v in delivered])
                causes |= set(failures)
        assert {"SeparationError", "SingularDesignError"} <= causes

    def test_a_sample_too_small_for_the_ols_raises_only_where_the_ols_runs(self, dgp):
        """At n = 4 every propensity separates or sees one arm, so aipw and
        tmle fail before their outcome fit, while reg reaches the OLS and
        raises, as a loop over the replicates would."""
        kwargs = dict(estimands=(BATE,), boot_replicates=10)
        [result] = run_monte_carlo(dgp, [4], 6, ["aipw", "tmle"], seed=1, **kwargs)
        causes = (("DegenerateArmError", 1), ("SeparationError", 5))
        assert all(row.n_failed == 6 and row.failures == causes for row in result.rows)
        with pytest.raises(ValidationError, match="need n > 4"):
            run_monte_carlo(dgp, [4], 6, ["aipw", "reg"], seed=1, **kwargs)

    def test_ipw_alone_fits_no_outcome_regression(self, dgp, monkeypatch):
        """ipw reads only the propensity, so at n = 4, too small for the
        OLS, it fails by separation and never asks for more rows."""
        forbid(monkeypatch, estimators, "ols_fits")
        kwargs = dict(estimands=(BATE,), boot_replicates=10)
        small, large = run_monte_carlo(dgp, [4, 150], 6, ["ipw"], seed=1, **kwargs)
        assert small.rows[0].failures == (("DegenerateArmError", 1), ("SeparationError", 5))
        assert large.rows[0].n_failed == 0
        with pytest.raises(EstimationError, match="separated"):
            estimate_many(sample_dgp(dgp, 4, 0), ["ipw"], [BATE], boot=BootstrapConfig(10))

    def test_only_a_bootstrap_keeps_the_units(self, dgp, monkeypatch):
        """A chunk hands each replicate's units to estimate_cells only when
        ipw's bootstrap needs them, and then block by block, so that it holds
        at most one block's units; otherwise a group spans the blocks."""
        calls = []
        original = simulation.estimate_cells

        def spy(cells, names, contrasts, units):
            calls.append(len(units))
            return original(cells, names, contrasts, units)

        monkeypatch.setattr(simulation, "estimate_cells", spy)
        run_monte_carlo(dgp, [2000], 20, ["reg", "aipw", "tmle"], seed=2)
        assert calls == [0]
        calls.clear()
        run_monte_carlo(dgp, [2000], 20, ["reg", "ipw"], seed=2, boot_replicates=10)
        assert sum(calls) == 20 and max(calls) == simulation._BLOCK_UNITS // 2000

    def test_a_bootstrap_that_fails_stops_only_its_estimator(self, dgp, monkeypatch):
        """A ConvergenceError in ipw's bootstrap is the replicate's ipw
        failure, counted by class; reg on the same replicates is delivered."""
        original = estimators.refit_logistic

        def no_convergence(x, t, counts, start):
            probs, ok, _ = original(x, t, counts, start)
            stall = ConvergenceError("IRLS did not converge in 100 iterations; last step sizes: 1")
            return probs, ok, {row: stall for row in range(counts.shape[0])}

        monkeypatch.setattr(estimators, "refit_logistic", no_convergence)
        [result] = run_monte_carlo(dgp, [150], 4, ["reg", "ipw"], seed=3, boot_replicates=10)
        assert result.row("ipw", BATE).failures == (("ConvergenceError", 4),)
        assert result.row("reg", BATE).n_failed == 0

    def test_ipw_cells_do_not_depend_on_the_other_estimators(self, dgp):
        """ipw fits its own propensity and refits it per resample, whatever
        else runs; a propensity handed in would not be refitted."""
        kwargs = dict(estimands=(BATE, PEB1, PEB0), boot_replicates=30)
        alone = run_monte_carlo(dgp, [20, 150], 12, ["ipw"], seed=5, **kwargs)
        joint = run_monte_carlo(dgp, [20, 150], 12, ["ipw", "aipw"], seed=5, **kwargs)
        for a, j in zip(alone, joint):
            assert a.rows == j.rows[: len(a.rows)]

    @pytest.mark.parametrize(
        "spec, n, reps",
        [*[(DgpSpec(), n, 24) for n in (1, 2, 3, 5, 20, 150)], (DgpSpec(), 2000, 20),
         (DgpSpec(w_prob=0.02), 20, 40), (DgpSpec(w_prob=0.98), 20, 40), (DgpSpec(w_prob=0.02), 150, 12),
         (DgpSpec(a_mean_slope=4.0), 150, 12), (DgpSpec(noise_sd=0.0), 150, 12)],
        ids=[*(f"n{n}" for n in (1, 2, 3, 5, 20, 150, 2000)), "w_rare20", "w_common20", "w_rare150",
             "slope4", "no_noise"],
    )
    def test_block_cells_equal_each_sample_grouped_alone(self, spec, n, reps, monkeypatch):
        """Every field of the CellBatch the chunk's block path fits for a
        replicate is byte-equal to the CellBatch of its sample_dgp sample;
        n = 2000 spans two blocks."""
        seen = []

        def capture(cells, names, contrasts, units):  # tags each replicate with its batch and row
            seen.append(cells)
            rows = np.arange(cells.sizes.shape[0])
            return {"reg": (np.full((rows.size, 1), len(seen) - 1.0), rows[:, None] + 0.0, [None] * rows.size)}, None

        monkeypatch.setattr(simulation, "estimate_cells", capture)
        outcomes = simulation._chunk_worker((spec, n, ["reg"], (BATE,), None, 6, range(reps)))
        for rep, outcome in enumerate(outcomes):
            batch, row = outcome[("reg", "bate")]
            got = seen[int(batch)].take([int(row)])
            expected = sample_dgp(spec, n, np.random.default_rng([6, n, rep])).cells[0]
            for name in CellBatch.__dataclass_fields__:
                a, b = getattr(got, name), getattr(expected, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        if n >= 5 and spec.w_prob != 0.5:  # a replicate with one covariate value or one arm
            assert any(batch.t.size < 4 for batch in seen)

    def test_a_chunk_across_blocks_equals_its_replicates_one_at_a_time(self, dgp):
        n, estimands = 2000, (BATE, PEB1, PEB0)
        per_block = simulation._BLOCK_UNITS // n
        reps = range(per_block - 3, per_block + 4)
        for names, boot in ((["reg", "aipw", "tmle"], None), (["reg", "ipw", "aipw", "tmle"], BootstrapConfig(20))):

            def chunk(reps):
                return simulation._chunk_worker((dgp, n, names, estimands, boot, 2, reps))

            assert chunk(reps) == [o for r in reps for o in chunk(range(r, r + 1))]

    @pytest.mark.parametrize("names", [["reg", "tmle"], ["ipw", "reg"]])
    def test_a_non_finite_outcome_raises_the_error_of_its_sample(self, names):
        """The chunk stops at the first replicate whose outcome is not
        finite, with the ValidationError sample_dgp raises for it."""
        spec, n, seed = DgpSpec(outcome_fn=outcome_nan_in_the_far_tail), 20, 1
        for rep in range(100):
            try:
                sample_dgp(spec, n, np.random.default_rng([seed, n, rep]))
            except ValidationError as err:
                message = str(err)
                break
        assert rep > 0 and message.startswith("non-finite value in column 'y'")
        task = (spec, n, names, (BATE,), BootstrapConfig(10), seed, range(100))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            simulation._chunk_worker(task)

    def test_a_scalar_outcome_gives_each_replicate_the_numbers_of_its_sample(self):
        spec, n, seed, names = DgpSpec(outcome_fn=constant_outcome), 50, 2, ["reg", "aipw"]
        outcomes = simulation._chunk_worker((spec, n, names, (BATE, PEB1), None, seed, range(12)))
        for rep, outcome in enumerate(outcomes):
            data = sample_dgp(spec, n, np.random.default_rng([seed, n, rep]))
            for name in names:
                reports = estimate_many(data, [name], (BATE, PEB1))
                assert [outcome[(name, r.estimand.key)] for r in reports] == [(r.point, r.se) for r in reports]
        [result] = run_monte_carlo(spec, [n], 12, names, seed=seed)
        assert result.row("reg", BATE).n_failed == 0

    def test_an_outcome_column_stops_the_run_with_the_error_of_its_sample(self):
        """The run stops at the truth, before any draw; a chunk, which draws a
        block of samples, stops with the error of its first sample."""
        spec = DgpSpec(outcome_fn=column_outcome)
        with pytest.raises(ValidationError, match=COLUMN_OUTCOME_TRUTH_ERROR):
            run_monte_carlo(spec, [50], 12, ["reg"], seed=1)
        with pytest.raises(ValidationError, match=f"^{re.escape(COLUMN_OUTCOME_ERROR)}$"):
            simulation._chunk_worker((spec, 50, ["reg"], (BATE,), None, 1, range(12)))

    def test_pool_is_capped_at_the_replicate_count(self, dgp, monkeypatch):
        pools = []

        class RecordingPool:  # starts no process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingPool)
        run_monte_carlo(dgp, [60, 80], 3, ["reg"], seed=0, threads=64)
        assert pools == [3, 3]

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

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected_before_any_replicate(self, dgp, monkeypatch, threads):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp")
        with pytest.raises(ValidationError, match="threads must be >= 1"):
            run_monte_carlo(dgp, [60], 2, ["reg"], seed=0, threads=threads)

    def test_unknown_estimator_rejected(self, dgp, monkeypatch):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp", "ProcessPoolExecutor")
        with pytest.raises(ValidationError, match="unknown estimator 'magic'"):
            run_monte_carlo(dgp, [50], 2, ["reg", "magic"], seed=0, threads=2)

    def test_repeated_estimator_rejected(self, dgp, monkeypatch):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp", "ProcessPoolExecutor")
        with pytest.raises(ValidationError, match="^estimator 'ipw' is named more than once$"):
            run_monte_carlo(dgp, [50], 2, ["ipw", "reg", "ipw"], seed=0, threads=2)
        peb1 = EstimandSpec("peb1")
        with pytest.raises(ValidationError, match="^estimand 'peb1' is named more than once$"):
            run_monte_carlo(dgp, [50], 2, ["reg"], seed=0, estimands=(peb1, EstimandSpec("bate"), peb1), threads=2)

    def test_bootstrap_size_rejected_before_any_replicate(self, dgp, monkeypatch):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp", "ProcessPoolExecutor")
        with pytest.raises(ValidationError, match="at least 2 replicates"):
            run_monte_carlo(dgp, [50], 2, ["ipw"], seed=0, boot_replicates=1, threads=2)
        monkeypatch.undo()
        run_monte_carlo(dgp, [50], 2, ["reg"], seed=0, boot_replicates=1)  # no ipw, no bootstrap

    @pytest.mark.parametrize("n_list, seed", [([50], -1), ([50, -5], 0), ([0], 0)])
    def test_negative_seed_or_size_rejected(self, dgp, n_list, seed):
        with pytest.raises(ValidationError):
            run_monte_carlo(dgp, n_list, 2, ["reg"], seed=seed)

    @pytest.mark.parametrize(
        "kwargs, name",
        [(dict(boot_replicates=2.5), "bootstrap replicates"), (dict(replicates=2.5), "replicates"),
         (dict(threads=1.5), "threads"), (dict(n_list=[50, 150.7]), "n"), (dict(seed=1.5), "seed"),
         (dict(replicates=True), "replicates")],
        ids=["boot_replicates", "replicates", "threads", "n", "seed", "bool"],
    )
    def test_a_count_that_is_not_an_integer_is_rejected_before_any_replicate(self, dgp, monkeypatch, kwargs, name):
        forbid(monkeypatch, simulation, "truth_oracle", "sample_dgp", "ProcessPoolExecutor")
        args = {"n_list": [50], "replicates": 2, "estimators": ["ipw"], "seed": 0, "threads": 2, **kwargs}
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            run_monte_carlo(dgp, **args)

    def test_numpy_integer_counts_are_accepted(self, dgp):
        i = np.int64
        assert BootstrapConfig(i(20)).replicates == 20
        numpy = run_monte_carlo(dgp, [i(60)], i(2), ["reg", "ipw"], seed=i(1), boot_replicates=i(10), threads=i(1))
        assert numpy == run_monte_carlo(dgp, [60], 2, ["reg", "ipw"], seed=1, boot_replicates=10)


class TestLargeSampleConsistency:
    def test_regression_estimate_approaches_oracle(self, dgp):
        # the conditional mean given (t, w) is exactly linear for binary w,
        # so the interacted fit is consistent; check at a single large n
        data = sample_dgp(dgp, 1_000_000, seed=77)
        [report] = estimate_many(data, ["reg"], [BATE])
        truth = truth_oracle(dgp).psi_bate
        assert abs(report.point - truth) < 3.0 * report.se
