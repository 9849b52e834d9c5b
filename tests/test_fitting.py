"""Likelihood values, maximization, Hessian intervals and pooling."""

import json
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize

from skewsurge import fitting
from skewsurge.fitting import (
    FitConfig,
    PooledSpec,
    ShapePrior,
    fit_grid,
    fit_pooled,
    fit_tail,
    neg_loglik,
    param_names,
    params_to_values,
    values_to_params,
    wald_intervals,
)
from skewsurge.data import GmtSeries, attach_covariates
from skewsurge.simulate import SimSpec, simulate_series
from skewsurge.tail import (
    RATE_FAMILIES,
    SCALE_FAMILIES,
    RateParams,
    ScaleParams,
    TailParams,
    rate_at,
    scale_at,
)

from conftest import FROZEN_HARMONICS, columns_series, flat_thresholds


def _flat_params(lam=0.05, sigma=0.1, xi=0.0):
    return TailParams(
        rate=RateParams(family="R0", lam=lam),
        scale=ScaleParams(family="S0", alpha=sigma, beta=0.0, phi=0.0,
                          gamma=0.0),
        xi=xi,
    )


def _tiny_series(surges):
    months = np.resize(np.arange(1, 13), len(surges))
    tides = 3.0 + 0.1 * np.arange(len(surges))
    return attach_covariates(columns_series(months, tides, surges))


class TestNegLoglik:
    def test_single_nonexceedance_bernoulli_term(self):
        # Appending one more cycle below the threshold must cost exactly
        # -log(1 - lambda); with a flat rate the two-cycle value is twice
        # the one-cycle closed form -log(0.95) = 0.05129.
        thr = flat_thresholds(0.5)
        two = _tiny_series([0.1, 0.2])
        three = _tiny_series([0.1, 0.2, 0.15])
        params = _flat_params()
        nll2 = neg_loglik(params, two, thr)
        nll3 = neg_loglik(params, three, thr)
        npt.assert_allclose(nll2, -2.0 * math.log(0.95), rtol=1e-12)
        npt.assert_allclose(nll3 - nll2, -math.log(0.95), rtol=1e-12)

    def test_exceedance_term_closed_form(self):
        thr = flat_thresholds(0.5)
        base = _tiny_series([0.1, 0.2])
        with_exc = _tiny_series([0.1, 0.2, 0.6])  # excess 0.1
        params = _flat_params(lam=0.05, sigma=0.1, xi=0.0)
        diff = neg_loglik(params, with_exc, thr) - neg_loglik(
            params, base, thr
        )
        # -log(0.05) - log(10 e^{-1}) = 2.9957 - 1.3026 = 1.6931
        npt.assert_allclose(diff, -math.log(0.05) - (math.log(10.0) - 1.0),
                            rtol=1e-12)
        npt.assert_allclose(diff, 1.6931, atol=5e-5)

    def test_record_order_invariance(self, sim_r0):
        series, params, thr = sim_r0
        rng = np.random.default_rng(0)
        shuffled = attach_covariates(
            series.subset(rng.permutation(len(series)))
        )
        a = neg_loglik(params, series, thr)
        b = neg_loglik(params, shuffled, thr)
        npt.assert_allclose(a, b, rtol=1e-12)

    def test_invalid_proposals_are_infinite(self, sim_r0):
        series, params, thr = sim_r0
        from dataclasses import replace

        bad_scale = replace(
            params,
            scale=ScaleParams(family="S0", alpha=0.02, beta=0.05, phi=0.0),
        )  # beta above alpha violates the scale constraint
        assert neg_loglik(bad_scale, series, thr) == np.inf

        bad_xi = replace(params, xi=1.2)
        assert neg_loglik(bad_xi, series, thr) == np.inf

        neg_sigma = replace(
            params,
            scale=ScaleParams(family="S0", alpha=0.05, beta=0.0, phi=0.0,
                              gamma=-0.05),
        )
        assert neg_loglik(neg_sigma, series, thr) == np.inf

    def test_shape_prior_adds_its_log_density(self, sim_r0):
        series, params, thr = sim_r0
        prior = ShapePrior()
        plain = neg_loglik(params, series, thr)
        penalized = neg_loglik(params, series, thr, shape_prior=prior)
        npt.assert_allclose(penalized - plain,
                            prior.neg_log_density(params.xi), rtol=1e-12)


@pytest.fixture(scope="module")
def fit_r0(sim_r0):
    series, _, thr = sim_r0
    cfg = FitConfig(rate_family="R0", scale_family="S0",
                    frozen=dict(FROZEN_HARMONICS))
    return fit_tail(series, cfg, thresholds=thr)


class TestFitTail:
    def test_recovers_truth_on_simulated_data(self, sim_r0, fit_r0):
        _, truth, _ = sim_r0
        fit = fit_r0
        assert fit.converged and fit.hessian_ok
        assert fit.max_scaled_gradient < 1e-3
        true_vals = {
            "lam": truth.rate.lam,
            "alpha_sigma": truth.scale.alpha,
            "beta_sigma": truth.scale.beta,
            "phi_sigma": truth.scale.phi,
            "gamma_sigma": truth.scale.gamma,
            "xi": truth.xi,
        }
        for name, true in true_vals.items():
            se = fit.std_errors[name]
            assert abs(fit.estimates[name] - true) < 4.0 * se, name

    def test_score_formulas_hold(self, fit_r0):
        k, ll, n = fit_r0.n_params, fit_r0.loglik, fit_r0.n_obs
        npt.assert_allclose(fit_r0.aic, 2 * k - 2 * ll, rtol=1e-12)
        npt.assert_allclose(fit_r0.bic, k * math.log(n) - 2 * ll,
                            rtol=1e-12)

    def test_ci_midpoint_is_estimate(self, fit_r0):
        for name, (lo, hi) in fit_r0.conf_intervals.items():
            npt.assert_allclose(0.5 * (lo + hi), fit_r0.estimates[name],
                                rtol=1e-9, atol=1e-12)

    def test_result_serializes_to_json(self, fit_r0):
        blob = json.dumps(fit_r0.to_dict())
        assert "loglik" in blob

    def test_frozen_delta_matches_smaller_family(self, sim_r0, fit_r0):
        series, _, thr = sim_r0
        cfg = FitConfig(
            rate_family="R1", scale_family="S0",
            frozen={**FROZEN_HARMONICS, "delta_rate": 0.0},
        )
        pinned = fit_tail(series, cfg, thresholds=thr)
        npt.assert_allclose(pinned.loglik, fit_r0.loglik, atol=1e-9)

    def test_nested_families_never_lose_likelihood(self, sim_r0, fit_r0):
        series, _, thr = sim_r0
        for rf, sf in (("R1", "S0"), ("R0", "S1")):
            cfg = FitConfig(rate_family=rf, scale_family=sf,
                            frozen=dict(FROZEN_HARMONICS))
            bigger = fit_tail(series, cfg, thresholds=thr)
            assert bigger.loglik >= fit_r0.loglik - 1e-6, (rf, sf)

    def test_too_few_exceedances_rejected(self):
        surges = np.full(400, 0.1)
        surges[:10] = 0.6  # only 10 exceedances of 0.5
        series = _tiny_series(surges)
        cfg = FitConfig(rate_family="R0", scale_family="S0")
        with pytest.raises(ValueError, match="50"):
            fit_tail(series, cfg, thresholds=flat_thresholds(0.5))

    def test_everything_frozen_rejected(self, sim_r0):
        series, _, thr = sim_r0
        frozen = {n: 0.1 for n in param_names("R0", "S0")}
        cfg = FitConfig(rate_family="R0", scale_family="S0", frozen=frozen)
        with pytest.raises(ValueError, match="frozen"):
            fit_tail(series, cfg, thresholds=thr)

    def test_unknown_frozen_name_rejected(self):
        with pytest.raises(ValueError, match="frozen"):
            FitConfig(rate_family="R0", scale_family="S0",
                      frozen={"delta_rate": 0.0})

    def test_lone_frozen_amplitude_rejected(self):
        with pytest.raises(ValueError, match="phi_day"):
            FitConfig(rate_family="R0", scale_family="S0",
                      frozen={"beta_day": 0.0})

    def test_separated_exceedances_rejected(self):
        # Exactly the 60 highest-tide cycles of 400 exceed the threshold,
        # so peak tide separates them and the logistic likelihood has no
        # finite maximum.
        n = 400
        surges = np.where(np.arange(n) >= n - 60, 0.6, 0.1)
        series = attach_covariates(columns_series(
            np.resize(np.arange(1, 13), n), 3.0 + 0.01 * np.arange(n),
            surges, site_id="SEP"))
        with pytest.raises(ValueError, match="SEP.*R0.*separates"):
            fit_tail(series, FitConfig(rate_family="R0", scale_family="S0"),
                     thresholds=flat_thresholds(0.5))

    def test_exponential_truth_fits_with_finite_errors(self):
        # xi = 0 exactly: the GPD derivatives must take their xi -> 0 limit.
        spec = SimSpec(params=TailParams(
            rate=RateParams(family="R0", lam=0.05),
            scale=ScaleParams(family="S0", alpha=0.12, beta=0.04,
                              phi=91.25, gamma=0.01),
            xi=0.0), thresholds=0.3, n_cycles=8000)
        series, _ = simulate_series(spec, seed=5)
        free = fit_tail(series, FitConfig(frozen=dict(FROZEN_HARMONICS)),
                        thresholds=spec.thresholds)
        pinned = fit_tail(series,
                          FitConfig(frozen={**FROZEN_HARMONICS, "xi": 0.0}),
                          thresholds=spec.thresholds)
        for fit in (free, pinned):
            assert fit.converged and fit.hessian_ok, fit.message
            assert all(np.isfinite(se) and se > 0
                       for se in fit.std_errors.values())
        assert abs(free.estimates["xi"]) < 4.0 * free.std_errors["xi"]
        assert pinned.loglik <= free.loglik + 1e-9

    def test_shape_held_on_its_box_is_not_converged(self):
        # A short tail (xi = -0.8) puts the likelihood's maximum below the
        # shape box's lower end of -0.49.
        spec = SimSpec(params=TailParams(
            rate=RateParams(family="R0", lam=0.05),
            scale=ScaleParams(family="S0", alpha=0.12, beta=0.0, phi=0.0,
                              gamma=0.0),
            xi=-0.8), thresholds=0.3, n_cycles=8000)
        series, _ = simulate_series(spec, seed=6)
        fit = fit_tail(series, FitConfig(frozen=dict(FROZEN_HARMONICS)),
                       thresholds=spec.thresholds)
        assert not fit.converged
        assert fit.estimates["xi"] == -0.49
        assert "xi box" in fit.message

    def test_shape_prior_pulls_shape_toward_prior_mean(self):
        spec = SimSpec(
            params=TailParams(
                rate=RateParams(family="R0", lam=0.05),
                scale=ScaleParams(family="S0", alpha=0.12, beta=0.0,
                                  phi=0.0, gamma=0.0),
                xi=0.25,
            ),
            thresholds=0.3,
            n_cycles=4000,  # roughly 200 exceedances: noisy shape
        )
        series, _ = simulate_series(spec, seed=14)
        base = dict(rate_family="R0", scale_family="S0",
                    frozen={**FROZEN_HARMONICS, "beta_sigma": 0.0,
                            "phi_sigma": 0.0, "gamma_sigma": 0.0})
        plain = fit_tail(series, FitConfig(**base),
                         thresholds=spec.thresholds)
        shrunk = fit_tail(series, FitConfig(shape_prior=ShapePrior(),
                                            **base),
                          thresholds=spec.thresholds)
        prior_mean = 0.0119
        assert abs(shrunk.estimates["xi"] - prior_mean) <= abs(
            plain.estimates["xi"] - prior_mean
        ) + 1e-12


class TestHessianIntervals:
    def test_quadratic_oracle(self):
        # nll(theta) = (theta-2)^2 / (2 * 0.25): curvature 4, se 0.5.
        x = np.array([2.0])
        se, ci, ok = wald_intervals(np.array([[4.0]]), x)
        assert ok
        npt.assert_allclose(se[0], 0.5, rtol=1e-6)
        npt.assert_allclose(ci[0], [1.02, 2.98], rtol=1e-6)

    def test_not_positive_definite_reported(self):
        hess = np.array([[1.0, 0.0], [0.0, -2.0]])
        se, ci, ok = wald_intervals(hess, np.zeros(2))
        assert not ok and se is None and ci is None


ALL_COVARIATES_TRUTH = TailParams(
    rate=RateParams(family="R3", lam=0.05, beta_day=0.03, phi_day=40.0,
                    alpha_tide=0.3, beta_tide=0.2, phi_tide=120.0, delta=0.3),
    scale=ScaleParams(family="S3", alpha=0.12, beta=0.04, phi=91.25,
                      gamma=0.01, delta=0.01),
    xi=0.05,
)


@pytest.fixture(scope="module")
def sim_all_covariates():
    """A GMT-trend record with every harmonic active (17 years)."""
    gmt = GmtSeries(years=np.arange(1950, 1975),
                    anomalies=np.linspace(-0.6, 0.9, 25))
    spec = SimSpec(params=ALL_COVARIATES_TRUTH, thresholds=0.3,
                   n_cycles=12000, gmt=gmt)
    series, _ = simulate_series(spec, seed=31)
    return series, spec.thresholds


def _objective_of(fit, series, thr):
    """neg_loglik as a function of the fit's free parameter vector."""
    names = list(fit.estimates)
    base = params_to_values(fit.params)

    def f(x):
        values = dict(base, **dict(zip(names, x)))
        return neg_loglik(values_to_params(values, fit.rate_family,
                                           fit.scale_family, fit.params.rate),
                          series, thr)

    return f, np.array([fit.estimates[n] for n in names]), names


def _fd_hessian(f, x, h):
    k = x.size
    hess = np.empty((k, k))
    e = np.diag(h)
    for i in range(k):
        for j in range(i, k):
            hess[i, j] = hess[j, i] = (
                f(x + e[i] + e[j]) - f(x + e[i] - e[j])
                - f(x - e[i] + e[j]) + f(x - e[i] - e[j])
            ) / (4.0 * h[i] * h[j])
    return hess


DIAGONAL_PAIRS = [("R0", "S0"), ("R1", "S1"), ("R2", "S2"), ("R3", "S3"),
                  ("R4", "S4")]


def _public_neg_loglik(params, series, thr):
    """The likelihood written out from the public rate and scale functions
    and the GPD density's closed form, cycle by cycle."""
    u = thr.for_month(series.month)
    exceed = series.skew_surge > u
    covariates = dict(year_std=series.year_std, gmt=series.gmt)
    lam = rate_at(params.rate, series.day_of_year, series.day_of_month,
                  series.month, series.peak_tide, **covariates)
    sigma = scale_at(params.scale, series.day_of_year, series.peak_tide,
                     **covariates)[exceed]
    z = (series.skew_surge[exceed] - u[exceed]) / sigma
    xi = params.xi
    return (
        -np.log1p(-lam[~exceed]).sum()
        - np.log(lam[exceed]).sum()
        + np.log(sigma).sum()
        + (1.0 + xi) * (np.log1p(xi * z) / xi).sum()
    )


@pytest.mark.parametrize("rf,sf", DIAGONAL_PAIRS)
def test_likelihood_uses_the_cdf_predictors(sim_all_covariates, rf, sf):
    series, thr = sim_all_covariates
    params = fit_tail(series, FitConfig(rate_family=rf, scale_family=sf),
                      thresholds=thr).params
    npt.assert_allclose(neg_loglik(params, series, thr),
                        _public_neg_loglik(params, series, thr), rtol=1e-9)


def test_likelihood_of_other_records_uses_the_fitted_standardizers():
    # The first 6,000 cycles have their own tide mean and sd and monthly
    # mean days; scoring them must use the fitted record's, as the CDF does.
    gmt = GmtSeries(years=np.arange(1950, 2000),
                    anomalies=np.linspace(-0.6, 0.9, 50))
    spec = SimSpec(params=ALL_COVARIATES_TRUTH, thresholds=0.3,
                   n_cycles=35_000, gmt=gmt)
    series, _ = simulate_series(spec, seed=31)
    thr = spec.thresholds
    params = fit_tail(series, FitConfig(rate_family="R3", scale_family="S3"),
                      thresholds=thr).params
    head = attach_covariates(series.subset(np.arange(len(series)) < 6000),
                             gmt=gmt)
    npt.assert_allclose(neg_loglik(params, head, thr),
                        _public_neg_loglik(params, head, thr), rtol=1e-9)


@pytest.mark.parametrize("rf,sf", DIAGONAL_PAIRS)
def test_fit_is_the_maximum_of_the_objective(sim_all_covariates, rf, sf):
    series, thr = sim_all_covariates
    fit = fit_tail(series, FitConfig(rate_family=rf, scale_family=sf),
                   thresholds=thr)
    assert fit.converged and fit.hessian_ok, fit.message
    assert fit.n_iter >= 1
    f, x, names = _objective_of(fit, series, thr)
    npt.assert_allclose(-f(x), fit.loglik, rtol=0, atol=1e-9)
    se = np.array([fit.std_errors[n] for n in names])

    h = 1e-3 * se
    grad = np.array([(f(x + hi) - f(x - hi)) / (2.0 * h[i])
                     for i, hi in enumerate(np.diag(h))])
    assert np.max(np.abs(grad) * se) < 1e-3

    search = minimize(f, x, method="Nelder-Mead",
                      options={"maxfev": 1000, "xatol": 1e-10, "fatol": 1e-12})
    assert search.fun >= f(x) - 1e-6

    fd_se = np.sqrt(np.diag(np.linalg.inv(_fd_hessian(f, x, 0.02 * se))))
    npt.assert_allclose(se, fd_se, rtol=1e-3)

    prior = ShapePrior()
    penalized = fit_tail(series, FitConfig(rate_family=rf, scale_family=sf,
                                           shape_prior=prior), thresholds=thr)
    npt.assert_allclose(-neg_loglik(penalized.params, series, thr, prior),
                        penalized.loglik, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def sim_curved_gmt():
    """A GMT-trend record whose anomaly is not linear in the year, so the
    year and GMT families differ."""
    years = np.arange(1950, 1975)
    gmt = GmtSeries(years=years,
                    anomalies=-0.6 + 0.003 * (years - 1950) ** 2
                    + 0.05 * np.sin(years))
    spec = SimSpec(params=ALL_COVARIATES_TRUTH, thresholds=0.3,
                   n_cycles=12000, gmt=gmt)
    series, _ = simulate_series(spec, seed=32)
    return series, spec.thresholds


@pytest.mark.parametrize("prior", [None, ShapePrior()], ids=["plain", "prior"])
def test_grid_solves_each_half_once(sim_curved_gmt, monkeypatch, prior):
    series, thr = sim_curved_gmt
    solves = []
    newton = fitting._newton
    monkeypatch.setattr(fitting, "_newton",
                        lambda *args: solves.append(1) or newton(*args))
    grid = fit_grid(series, FitConfig(shape_prior=prior), RATE_FAMILIES,
                    SCALE_FAMILIES, thresholds=thr)
    assert len(solves) == len(RATE_FAMILIES) + len(SCALE_FAMILIES)
    assert list(grid) == [(rf, sf) for rf in RATE_FAMILIES
                          for sf in SCALE_FAMILIES]
    for (rf, sf), fit in grid.items():
        alone = fit_tail(series, FitConfig(rate_family=rf, scale_family=sf,
                                           shape_prior=prior),
                         thresholds=thr)
        assert (fit.n_params, fit.converged, fit.hessian_ok, fit.message) \
            == (alone.n_params, alone.converged, alone.hessian_ok,
                alone.message), (rf, sf)
        assert list(fit.estimates) == list(alone.estimates)
        npt.assert_allclose([fit.estimates[n] for n in fit.estimates],
                            [alone.estimates[n] for n in fit.estimates],
                            rtol=1e-9, atol=1e-12)
        npt.assert_allclose([fit.loglik, fit.aic, fit.bic],
                            [alone.loglik, alone.aic, alone.bic], rtol=1e-9)


def test_grid_checks_each_pair(sim_curved_gmt):
    # delta_rate is a parameter of R1 but not of R0
    series, thr = sim_curved_gmt
    with pytest.raises(ValueError, match="delta_rate"):
        fit_grid(series, FitConfig(rate_family="R1",
                                   frozen={"delta_rate": 0.0}),
                 ["R1", "R0"], ["S0"], thresholds=thr)


@pytest.fixture(scope="module")
def sim_r1_pool():
    params = TailParams(
        rate=RateParams(family="R1", lam=0.05, delta=0.2),
        scale=ScaleParams(family="S0", alpha=0.12, beta=0.04, phi=91.25,
                          gamma=0.01),
        xi=0.05,
    )
    spec = SimSpec(params=params, thresholds=0.3, n_cycles=12000)
    series, _ = simulate_series(spec, seed=21)
    return series, spec.thresholds


class TestPooling:
    CFG = dict(rate_family="R1", scale_family="S0",
               frozen=dict(FROZEN_HARMONICS))

    def test_single_site_matches_fit_tail(self, sim_r1_pool):
        series, thr = sim_r1_pool
        cfg = FitConfig(**self.CFG)
        single = fit_tail(series, cfg, thresholds=thr)
        pooled = fit_pooled(
            PooledSpec(datasets=[(series, thr)], shared=["xi"]), cfg
        )
        npt.assert_allclose(pooled.loglik, single.loglik, atol=1e-6)
        npt.assert_allclose(pooled.shared_estimates["xi"],
                            single.estimates["xi"], atol=1e-4)
        assert pooled.n_obs == single.n_obs

    def test_duplicated_site_halves_shared_variance(self, sim_r1_pool):
        series, thr = sim_r1_pool
        cfg = FitConfig(**self.CFG)
        single = fit_tail(series, cfg, thresholds=thr)
        pooled = fit_pooled(
            PooledSpec(datasets=[(series, thr), (series, thr)],
                       shared=["delta_rate"]),
            cfg,
        )
        assert pooled.converged and pooled.hessian_ok
        assert all(r.n_iter == pooled.site_results[0].n_iter >= 1
                   for r in pooled.site_results)
        npt.assert_allclose(pooled.shared_estimates["delta_rate"],
                            single.estimates["delta_rate"], atol=5e-3)
        ratio = single.std_errors["delta_rate"] \
            / pooled.shared_std_errors["delta_rate"]
        # information doubles, so the se shrinks by about sqrt(2)
        assert math.sqrt(2.0) * 0.8 < ratio < math.sqrt(2.0) * 1.2

    def test_pooled_loglik_is_sum_of_site_logliks(self, sim_r1_pool):
        series, thr = sim_r1_pool
        pooled = fit_pooled(
            PooledSpec(datasets=[(series, thr), (series, thr)],
                       shared=["delta_rate", "xi"]),
            FitConfig(**self.CFG),
        )
        total = sum(r.loglik for r in pooled.site_results)
        npt.assert_allclose(pooled.loglik, total, atol=1e-8)
        assert pooled.n_obs == 2 * len(series)

    def test_site_logliks_are_the_likelihood_at_their_params(
            self, sim_r1_pool):
        # A second record of the same model, so the sites' shapes differ;
        # each site's shape carries its own penalty.
        series, thr = sim_r1_pool
        other, _ = simulate_series(SimSpec(
            params=TailParams(
                rate=RateParams(family="R1", lam=0.05, delta=0.2),
                scale=ScaleParams(family="S0", alpha=0.12, beta=0.04,
                                  phi=91.25, gamma=0.01),
                xi=0.05),
            thresholds=thr, n_cycles=12000), seed=22)
        prior = ShapePrior()
        pooled = fit_pooled(
            PooledSpec(datasets=[(series, thr), (other, thr)],
                       shared=["delta_rate"]),
            FitConfig(shape_prior=prior, **self.CFG),
        )
        assert pooled.converged and pooled.hessian_ok
        for record, result in zip((series, other), pooled.site_results):
            npt.assert_allclose(-neg_loglik(result.params, record, thr),
                                result.loglik, rtol=1e-9)
        penalty = sum(prior.neg_log_density(r.params.xi)
                      for r in pooled.site_results)
        npt.assert_allclose(
            pooled.loglik,
            sum(r.loglik for r in pooled.site_results) - penalty, rtol=1e-12)

    def test_shared_name_must_exist_in_family(self, sim_r1_pool):
        series, thr = sim_r1_pool
        cfg = FitConfig(rate_family="R0", scale_family="S0",
                        frozen=dict(FROZEN_HARMONICS))
        with pytest.raises(ValueError, match="delta_rate"):
            fit_pooled(
                PooledSpec(datasets=[(series, thr)],
                           shared=["delta_rate"]),
                cfg,
            )

    def test_shared_harmonic_needs_its_phase(self, sim_r1_pool):
        series, thr = sim_r1_pool
        with pytest.raises(ValueError, match="phi_sigma"):
            fit_pooled(PooledSpec(datasets=[(series, thr), (series, thr)],
                                  shared=["beta_sigma"]),
                       FitConfig(**self.CFG))

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError, match="datasets"):
            fit_pooled(PooledSpec(datasets=[], shared=[]),
                       FitConfig(**self.CFG))


def _fd_gradient(f, x, h):
    return np.array([(f(x + hi) - f(x - hi)) / (2.0 * h[i])
                     for i, hi in enumerate(np.diag(h))])


class TestNewtonKernels:
    """Each half's kernel: its value, and its gradient and Hessian against
    central differences of the value, all from one pass."""

    @staticmethod
    def _half(sim_r0, family, **config):
        series, _, thr = sim_r0
        return fitting._half([fitting._site_data(series, thr)], family,
                             FitConfig(**config))

    @staticmethod
    def _value(half):
        return lambda v: fitting._kernel(half, v)[0]

    @staticmethod
    def _derivs(half):
        return lambda v: fitting._kernel(half, v)[1:3]

    @staticmethod
    def _check_derivs(value, derivs, x, h_grad, h_hess):
        """Each entry to 1e-5 relative, or to within 100 times the
        rounding error of its central difference."""
        grad, hess = derivs(x)
        noise = 100 * np.finfo(float).eps * abs(value(x))
        npt.assert_allclose(grad, _fd_gradient(value, x, np.full(x.size, h_grad)),
                            rtol=1e-5, atol=noise / h_grad)
        npt.assert_allclose(hess, _fd_hessian(value, x, np.full(x.size, h_hess)),
                            rtol=1e-5, atol=noise / h_hess ** 2)

    def test_bernoulli_value_is_logaddexp(self, sim_r0):
        half = self._half(sim_r0, "R0")
        b = half.blocks[0]
        for local in ([-3.0, 0.1, -0.2, 0.5, 0.3, 0.0],
                      [0.0, 0.0, 0.0, 40.0, 0.0, 0.0]):
            g = b.offset + b.X @ np.array(local)
            reference = np.logaddexp(0.0, b.data.bern_sign * g).sum()
            npt.assert_allclose(self._value(half)(np.array(local)), reference,
                                rtol=1e-13, atol=0)

    @pytest.mark.parametrize("slope", [0.5, 40.0], ids=["moderate", "beyond-30"])
    def test_rate_derivatives(self, sim_r0, slope):
        half = self._half(sim_r0, "R0")
        b = half.blocks[0]
        # columns: intercept, the day harmonic's two, tide, the tide
        # harmonic's two; a steep tide slope sends logits beyond +-30
        x = np.array([-3.0, 0.1, -0.2, slope, 0.3, -0.1])
        logits = np.abs(b.offset + b.X @ x)
        assert (logits.max() > 30.0) == (slope > 30.0)
        self._check_derivs(self._value(half), self._derivs(half),
                           x, 1e-5, 1e-4)

    @pytest.mark.parametrize("xi", [0.0, 1e-9, -1e-9, 2e-3, -0.1, 0.3])
    @pytest.mark.parametrize("prior", [None, ShapePrior()], ids=["plain", "prior"])
    def test_gpd_derivatives(self, sim_r0, xi, prior):
        half = self._half(sim_r0, "S0", shape_prior=prior)
        b = half.blocks[0]
        x = np.array([0.12, 0.02, 0.03, 0.01, xi])  # alpha, b1, b2, gamma, xi
        sigma = b.offset + b.X @ x[:4]
        z = b.data.excess / sigma[b.data.exc_idx]
        near = np.abs(xi * z) < 1e-4
        if xi == 2e-3:  # the series and the closed form, side by side
            assert 0 < near.sum() < near.size
        value = self._value(half)
        if abs(xi) < 1e-6:
            h = z * (1 - xi * z / 2 + (xi * z) ** 2 / 3)
        else:
            h = np.log1p(xi * z) / xi
        nll = np.log(sigma[b.data.exc_idx]).sum() + (1 + xi) * h.sum()
        reference = nll + (prior.neg_log_density(xi) if prior else 0.0)
        npt.assert_allclose(value(x), reference, rtol=1e-13, atol=0)
        npt.assert_allclose(fitting._kernel(half, x)[3], [nll],
                            rtol=1e-13, atol=0)
        self._check_derivs(value, self._derivs(half), x, 1e-6, 1e-5)

    def test_gpd_value_is_continuous_through_zero_shape(self, sim_r0):
        half = self._half(sim_r0, "S0")
        at = lambda xi: self._value(half)(np.array([0.12, 0.02, 0.03, 0.01, xi]))
        slope = (at(1e-6) - at(-1e-6)) / 2e-6
        for xi in (1e-12, -1e-12, 1e-9, -1e-9):
            npt.assert_allclose(at(xi), at(0.0) + slope * xi, rtol=1e-14)

    @pytest.mark.parametrize("family", ["R0", "S0"])
    def test_a_solve_evaluates_its_kernel_once_per_point(self, sim_r0,
                                                         monkeypatch, family):
        # once at the start and once per trial point, none of them twice,
        # and none after the solve: the Wald block and the site values
        # are the solve's last evaluation
        half = self._half(sim_r0, family, shape_prior=ShapePrior())
        kernel, newton = fitting._kernel, fitting._newton
        evaluations, solves, solving = [], [], [False]

        def counted_kernel(h, x):
            assert solving[0], "kernel evaluated outside the solve"
            evaluations.append((x.copy(), kernel(h, x)))
            return evaluations[-1][1]

        def watched_newton(fun, x, lo, hi):
            solving[0] = True
            solves.append((x.copy(), newton(fun, x, lo, hi)))
            solving[0] = False
            return solves[-1][1]

        monkeypatch.setattr(fitting, "_kernel", counted_kernel)
        monkeypatch.setattr(fitting, "_newton", watched_newton)
        fit = fitting._fit_half(half)
        [(start, (x, n_iter, last))] = solves
        points = [p.tobytes() for p, _ in evaluations]
        assert points[0] == start.tobytes()
        assert len(set(points)) == len(points)
        assert n_iter == fit.n_iter and len(points) >= n_iter
        assert evaluations[points.index(x.tobytes())][1] is last
        assert fit.nll is last[3]

    def test_intercept_only_rate_converges_in_one_iteration(self, sim_r0):
        frozen = {"beta_day": 0.0, "phi_day": 0.0, "alpha_tide": 0.0,
                  "beta_tide": 0.0, "phi_tide": 0.0}
        half = self._half(sim_r0, "R0", frozen=frozen)
        rate = fitting._fit_half(half)
        data = half.blocks[0].data
        assert rate.n_iter == 1
        npt.assert_allclose(rate.values[0]["lam"], data.n_exceed / data.n,
                            rtol=1e-12)
