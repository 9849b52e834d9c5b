"""Rate model, scale model, GPD tail pieces and the combined CDF."""

import math
from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from skewsurge.body import build_empirical, cell_cdf, eval_body_cdf
from skewsurge.tail import (
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    delta_lambda,
    eval_cdf,
    gpd_excess_logpdf,
    gpd_tail_prob,
    inv_logit,
    logit,
    mean_excess,
    rate_at,
    rate_logit,
    scale_at,
)


class TestLogit:
    def test_half_maps_to_zero(self):
        assert logit(0.5) == 0.0

    def test_known_value(self):
        npt.assert_allclose(logit(0.05), -2.9444389791664403, rtol=1e-15)

    @given(st.floats(1e-6, 1 - 1e-6))
    def test_round_trip(self, p):
        assert abs(inv_logit(logit(p)) - p) < 1e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                logit(bad)

    def test_inv_logit_stable_for_large_args(self):
        assert inv_logit(-800.0) == 0.0
        npt.assert_allclose(inv_logit(800.0), 1.0)


class TestScaleAt:
    def test_sine_zero_at_phase(self):
        sp = ScaleParams(family="S0", alpha=0.1, beta=0.05, phi=40.0,
                         gamma=0.0)
        npt.assert_allclose(scale_at(sp, 40.0, 3.0), 0.1, atol=1e-15)

    def test_sine_peak_quarter_period_later(self):
        sp = ScaleParams(family="S0", alpha=0.1, beta=0.05, phi=40.0,
                         gamma=0.0)
        npt.assert_allclose(scale_at(sp, 40.0 + 91.25, 3.0), 0.15)

    def test_tide_term(self):
        sp = ScaleParams(family="S0", alpha=0.1, beta=0.0, phi=0.0,
                         gamma=0.02)
        npt.assert_allclose(scale_at(sp, 10.0, 3.0), 0.1 + 0.06)

    def test_year_trend_additive(self):
        s0 = ScaleParams(family="S0", alpha=0.1, beta=0.05, phi=40.0)
        s1 = ScaleParams(family="S1", alpha=0.1, beta=0.05, phi=40.0,
                         delta=0.001)
        base = scale_at(s0, 200.0, 3.0)
        npt.assert_allclose(scale_at(s1, 200.0, 3.0, year_std=1.0),
                            base + 0.001)
        npt.assert_allclose(scale_at(s1, 200.0, 3.0, year_std=0.0), base)

    def test_seasonal_trend_nests_uniform(self):
        common = dict(alpha=0.1, beta=0.05, phi=40.0, gamma=0.01)
        s1 = ScaleParams(family="S1", delta=0.002, **common)
        s2 = ScaleParams(family="S2", delta=[0.002] * 4, **common)
        d = np.arange(1.0, 366.0)
        npt.assert_allclose(
            scale_at(s2, d, 3.0, year_std=0.7),
            scale_at(s1, d, 3.0, year_std=0.7),
        )

    def test_gmt_variant(self):
        s3 = ScaleParams(family="S3", alpha=0.1, beta=0.0, phi=0.0,
                         delta=0.01)
        npt.assert_allclose(scale_at(s3, 1.0, 3.0, gmt=0.5), 0.1 + 0.005)
        with pytest.raises(ValueError, match="gmt"):
            scale_at(s3, 1.0, 3.0)


class TestRateAt:
    def test_identity_when_coefficients_zero(self):
        rp = RateParams(family="R0", lam=0.07)
        npt.assert_allclose(rate_at(rp, 123.0, 17.0, 5, 4.2), 0.07)

    def test_tide_term_vanishes_at_mean_tide(self):
        rp = RateParams(family="R0", lam=0.05, alpha_tide=2.0,
                        beta_tide=1.5, phi_tide=80.0, tide_mean=3.0,
                        tide_sd=0.5)
        npt.assert_allclose(rate_at(rp, 200.0, 10.0, 7, 3.0), 0.05)

    def test_gmt_trend_worked_example(self):
        rp = RateParams(family="R3", lam=0.05, delta=0.336)
        lam = rate_at(rp, 1.0, 15.5, 1, 0.0, gmt=1.0)
        npt.assert_allclose(lam, 0.0686, atol=5e-5)
        npt.assert_allclose(lam, inv_logit(logit(0.05) + 0.336), rtol=1e-14)

    def test_trend_models_nest_stationary(self):
        base = dict(lam=0.04, beta_day=0.01, phi_day=30.0, alpha_tide=0.2,
                    beta_tide=0.1, phi_tide=60.0, tide_mean=3.0,
                    tide_sd=0.8)
        r0 = RateParams(family="R0", **base)
        r1 = RateParams(family="R1", delta=0.5, **base)
        r3 = RateParams(family="R3", delta=0.5, **base)
        d, dj, j, x = 140.0, 20.0, 5, 3.6
        lam0 = rate_at(r0, d, dj, j, x)
        npt.assert_allclose(rate_at(r1, d, dj, j, x, year_std=0.0), lam0)
        npt.assert_allclose(rate_at(r3, d, dj, j, x, gmt=0.0), lam0)

    def test_day_term_centered_on_month_mean(self):
        mmd = np.full(12, 15.5)
        rp = RateParams(family="R0", lam=0.05, beta_day=0.3, phi_day=0.0,
                        month_mean_day=mmd)
        npt.assert_allclose(rate_at(rp, 100.0, 15.5, 4, 0.0), 0.05)
        assert rate_at(rp, 100.0, 25.0, 4, 0.0) != 0.05

    def test_zero_tide_sd_errors(self):
        rp = RateParams(family="R0", tide_sd=0.0)
        with pytest.raises(ValueError, match="tide_sd"):
            rate_at(rp, 1.0, 1.0, 1, 3.0)

    def test_seasonal_deltas_follow_season_of_day(self):
        rp = RateParams(family="R2", lam=0.05,
                        delta=[0.4, -0.2, 0.0, 0.1])
        # day 15 is January (winter), day 196 is mid July (summer)
        winter = rate_at(rp, 15.0, 15.5, 1, 0.0, year_std=1.0)
        summer = rate_at(rp, 196.0, 15.5, 7, 0.0, year_std=1.0)
        npt.assert_allclose(winter, inv_logit(logit(0.05) + 0.4))
        npt.assert_allclose(summer, 0.05)


_SEASON_OF_MONTH = np.array([-1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0])


def _phase_harmonic(d, phi):
    return np.sin(2.0 * np.pi * (d - phi) / 365.0)


def _phase_trend(family, delta, month, year_std, gmt):
    if family.endswith("0"):
        return 0.0
    cov = year_std if family[1] in "12" else gmt
    if family[1] in "24":
        return np.asarray(delta)[_SEASON_OF_MONTH[month]] * cov
    return delta * cov


def _phase_rate_logit(rp, d, d_j, j, x, year_std, gmt):
    """The rate logit in phase form, each harmonic beta*sin(w(d - phi))."""
    return (math.log(rp.lam / (1.0 - rp.lam))
            + (d_j - rp.month_mean_day[j - 1]) * rp.beta_day
            * _phase_harmonic(d, rp.phi_day)
            + (x - rp.tide_mean) / rp.tide_sd
            * (rp.alpha_tide + rp.beta_tide * _phase_harmonic(d, rp.phi_tide))
            + _phase_trend(rp.family, rp.delta, j, year_std, gmt))


def _phase_scale(sp, d, j, x, year_std, gmt):
    return (sp.alpha + sp.beta * _phase_harmonic(d, sp.phi) + sp.gamma * x
            + _phase_trend(sp.family, sp.delta, j, year_std, gmt))


_unit = st.floats(-1.0, 1.0)
_phase = st.floats(0.0, 365.0)


@settings(deadline=None)
@given(rf=st.sampled_from(["R0", "R1", "R2", "R3", "R4"]),
       sf=st.sampled_from(["S0", "S1", "S2", "S3", "S4"]),
       lam=st.floats(0.001, 0.5), rate=st.lists(_unit, min_size=3, max_size=3),
       rate_phases=st.lists(_phase, min_size=2, max_size=2),
       scale=st.lists(_unit, min_size=3, max_size=3), scale_phase=_phase,
       deltas=st.lists(_unit, min_size=8, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_predictors_match_the_phase_form(rf, sf, lam, rate, rate_phases,
                                         scale, scale_phase, deltas, seed):
    rng = np.random.default_rng(seed)
    n = 64
    doy = rng.integers(1, 366, n)
    dates = [date(2001, 1, 1) + timedelta(days=int(k) - 1) for k in doy]
    month = np.array([t.month for t in dates])
    dom = np.array([t.day for t in dates], dtype=float)
    tide = 3.0 + rng.normal(0.0, 0.8, n)
    year_std, gmt = rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 1.5, n)

    def delta(family, values):
        return {"0": None, "1": values[0], "3": values[0]}.get(
            family[1], values[:4])

    rp = RateParams(family=rf, lam=lam, beta_day=rate[0],
                    phi_day=rate_phases[0], alpha_tide=rate[1],
                    beta_tide=rate[2], phi_tide=rate_phases[1],
                    tide_mean=3.1, tide_sd=0.7,
                    month_mean_day=rng.uniform(14.0, 17.0, 12),
                    delta=delta(rf, deltas[:4]))
    sp = ScaleParams(family=sf, alpha=scale[0], beta=scale[1],
                     phi=scale_phase, gamma=scale[2],
                     delta=delta(sf, deltas[4:]))
    npt.assert_allclose(
        rate_logit(rp, doy, dom, month, tide, year_std, gmt),
        _phase_rate_logit(rp, doy, dom, month, tide, year_std, gmt),
        rtol=1e-12, atol=1e-12)
    npt.assert_allclose(
        scale_at(sp, doy, tide, year_std, gmt),
        _phase_scale(sp, doy, month, tide, year_std, gmt),
        rtol=1e-12, atol=1e-12)


class TestGpdTail:
    def test_boundary_returns_rate(self):
        npt.assert_allclose(gpd_tail_prob(1.0, 1.0, 0.05, 0.1, 0.2), 0.05)

    def test_exponential_limit(self):
        npt.assert_allclose(gpd_tail_prob(1.1, 1.0, 1.0, 0.1, 0.0),
                            math.exp(-1.0), rtol=1e-15)

    def test_negative_shape_upper_endpoint(self):
        # sigma/|xi| = 0.5, so y = u + 0.5 sits exactly on the endpoint
        # (all quantities exactly representable in binary).
        assert gpd_tail_prob(1.5, 1.0, 1.0, 0.25, -0.5) == 0.0
        assert gpd_tail_prob(5.0, 1.0, 1.0, 0.25, -0.5) == 0.0

    def test_continuous_in_shape_at_zero(self):
        y, u, lam, sig = 1.23, 1.0, 0.7, 0.15
        ref = gpd_tail_prob(y, u, lam, sig, 0.0)
        for xi in (1e-9, -1e-9):
            assert abs(gpd_tail_prob(y, u, lam, sig, xi) - ref) < 1e-9
        for xi in (1e-7, -1e-7):
            assert abs(gpd_tail_prob(y, u, lam, sig, xi) - ref) < 1e-6

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            gpd_tail_prob(1.1, 1.0, 0.05, 0.0, 0.1)
        with pytest.raises(ValueError, match="y > u"):
            gpd_tail_prob(0.9, 1.0, 0.05, 0.1, 0.1)

    def test_excess_logpdf_exponential_case(self):
        # density (1/sigma) e^{-e/sigma} with sigma=0.1, e=0.1
        npt.assert_allclose(gpd_excess_logpdf(0.1, 0.1, 0.0),
                            math.log(10.0) - 1.0, rtol=1e-15)

    def test_excess_logpdf_outside_support(self):
        assert gpd_excess_logpdf(0.3, 0.1, -0.5) == -np.inf

    def test_excess_logpdf_matches_scipy(self):
        from scipy.stats import genpareto
        e = np.array([0.01, 0.05, 0.2, 0.7])
        for xi in (-0.2, 0.1, 0.4):
            npt.assert_allclose(
                gpd_excess_logpdf(e, 0.12, xi),
                genpareto.logpdf(e, c=xi, scale=0.12),
                rtol=1e-12,
            )


class TestMeanExcess:
    def test_formula(self):
        npt.assert_allclose(mean_excess(0.1, 0.2), 0.125)

    def test_exponential_case(self):
        assert mean_excess(0.37, 0.0) == 0.37

    def test_near_unit_shape(self):
        npt.assert_allclose(mean_excess(0.1, 0.99), 10.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            mean_excess(0.1, 1.0)
        with pytest.raises(ValueError):
            mean_excess(-0.1, 0.2)


@pytest.fixture(scope="module")
def model(sim_r0):
    series, params, thresholds = sim_r0
    body = build_empirical(series, thresholds)
    return SkewSurgeModel(body=body, params=params,
                          thresholds=thresholds), series


def _cdf(m, y, d, d_j, j, x):
    return eval_cdf(y, d, d_j, j, x, body=m.body, params=m.params,
                    thresholds=m.thresholds)


class TestEvalCdf:
    def test_tail_boundary(self, model):
        m, series = model
        i = 40
        u = m.thresholds.for_month(series.month[i])
        val = _cdf(m, u + 1e-12, series.day_of_year[i],
                   series.day_of_month[i], series.month[i],
                   series.peak_tide[i])
        lam = 0.05  # R0 truth has no covariate terms beyond standardizers
        npt.assert_allclose(val, 1.0 - lam, atol=1e-6)

    def test_body_branch_delegates(self, model):
        m, series = model
        y = np.linspace(-0.2, 0.29, 40)
        got = _cdf(m, y, 50.0, 19.0, 2, 3.1)
        expect = eval_body_cdf(m.body, y, 2, 3.1)
        npt.assert_array_equal(got, expect)

    @pytest.mark.parametrize("level", ["none", "some", "all"])
    def test_body_searched_below_the_threshold_as_in_a_full_search(
            self, model, level):
        m, series = model
        records = (series.day_of_year, series.day_of_month, series.month,
                   series.peak_tide)
        u = m.thresholds.for_month(series.month)
        step = {"none": 0.01, "all": -0.01,
                "some": np.where(np.arange(u.size) % 3, 0.01, -0.01)}[level]
        y = u + step
        below = y <= u
        assert {"none": not below.any(), "all": below.all(),
                "some": 0 < below.sum() < below.size}[level]
        got = m.conditional(*records)(y)
        full = cell_cdf(m.body, series.month, series.peak_tide)(y)
        assert got.tobytes() == np.where(below, full, got).tobytes()

    def test_limit_at_infinity(self, model):
        m, _ = model
        npt.assert_allclose(_cdf(m, 50.0, 1.0, 1.0, 1, 3.0), 1.0, atol=1e-12)

    def test_nondecreasing_and_bounded(self, model):
        m, _ = model
        y = np.linspace(-0.3, 2.0, 500)
        vals = _cdf(m, y, 120.0, 10.0, 5, 2.8)
        assert (np.diff(vals) >= -1e-15).all()
        assert vals.min() >= 0.0 and vals.max() <= 1.0


    @pytest.mark.parametrize("offset", [0.2, -0.05], ids=["tail", "body"])
    def test_scalar_surge_gives_a_float(self, model, offset):
        m, _ = model
        y = m.thresholds.for_month(2) + offset
        got = _cdf(m, y, 50.0, 19.0, 2, 3.1)
        assert type(got) is float
        assert got == _cdf(m, np.array([y, 0.0]), 50.0, 19.0, 2, 3.1)[0]

    def test_beyond_the_upper_endpoint_is_one(self, model):
        m, _ = model
        bounded = SkewSurgeModel(
            body=m.body, thresholds=m.thresholds,
            params=TailParams(rate=m.params.rate, scale=m.params.scale,
                              xi=-0.5))
        u = m.thresholds.for_month(5)
        sigma = scale_at(m.params.scale, 120.0, 2.8)
        end = u + sigma / 0.5
        y = np.array([u + 0.5 * sigma, end - 1e-3, end, end + 1e-9, 50.0,
                      np.inf])
        got = _cdf(bounded, y, 120.0, 10.0, 5, 2.8)
        assert (got[:2] < 1.0).all()
        npt.assert_array_equal(got[2:], 1.0)

    @pytest.mark.parametrize("xi", [0.0, 5e-9, -5e-9])
    def test_shape_inside_the_zero_tolerance_is_the_exponential(self, model,
                                                                xi):
        m, _ = model
        near = SkewSurgeModel(
            body=m.body, thresholds=m.thresholds,
            params=TailParams(rate=m.params.rate, scale=m.params.scale,
                              xi=xi))
        u = m.thresholds.for_month(5)
        lam = rate_at(m.params.rate, 120.0, 10.0, 5, 2.8)
        sigma = scale_at(m.params.scale, 120.0, 2.8)
        y = u + np.array([1e-9, 0.1, 0.5, 2.0])
        got = _cdf(near, y, 120.0, 10.0, 5, 2.8)
        npt.assert_allclose(got, 1.0 - lam * np.exp(-(y - u) / sigma),
                            rtol=1e-15)


class TestDeltaLambda:
    def test_zero_delta(self):
        rp = RateParams(family="R1", lam=0.05, delta=0.0)
        assert delta_lambda(rp, 1.0, 1.0, 1, 0.0, "year_std", -0.9, 1.0) == 0.0

    def test_worked_century_change(self):
        # Base rate 0.035, trend 0.215 per standardized-year unit,
        # endpoints -0.91 and 1: the probability rises by about 0.0141.
        rp = RateParams(family="R1", lam=0.035, delta=0.215)
        d = delta_lambda(rp, 1.0, 15.5, 1, 0.0, "year_std", -0.91, 1.0)
        npt.assert_allclose(d, 0.0141, atol=5e-5)
        exact = inv_logit(logit(0.035) + 0.215) - inv_logit(
            logit(0.035) - 0.215 * 0.91
        )
        npt.assert_allclose(d, exact, rtol=1e-14)

    def test_positive_delta_positive_change_everywhere(self):
        rp = RateParams(family="R1", lam=0.05, beta_day=0.05, phi_day=10.0,
                        alpha_tide=0.3, beta_tide=0.2, phi_tide=200.0,
                        tide_mean=3.0, tide_sd=0.7, delta=0.2)
        d = np.arange(1.0, 366.0, 7.0)
        for x in (2.0, 3.0, 4.5):
            out = delta_lambda(rp, d, 12.0, 6, x, "year_std", -0.91, 1.0)
            assert (np.asarray(out) > 0).all()

    def test_wrong_covariate_errors(self):
        r1 = RateParams(family="R1", lam=0.05, delta=0.2)
        r3 = RateParams(family="R3", lam=0.05, delta=0.2)
        with pytest.raises(ValueError):
            delta_lambda(r1, 1.0, 1.0, 1, 0.0, "gmt", 0.0, 1.0)
        with pytest.raises(ValueError):
            delta_lambda(r3, 1.0, 1.0, 1, 0.0, "year_std", 0.0, 1.0)
        with pytest.raises(ValueError):
            delta_lambda(r1, 1.0, 1.0, 1, 0.0, "nao", 0.0, 1.0)


def test_params_serialization_round_trip():
    tp = TailParams(
        rate=RateParams(family="R2", lam=0.04, beta_day=0.02, phi_day=12.0,
                        alpha_tide=0.3, beta_tide=0.1, phi_tide=300.0,
                        tide_mean=3.2, tide_sd=0.6,
                        month_mean_day=np.linspace(15, 16, 12),
                        delta=[0.1, 0.2, -0.1, 0.0]),
        scale=ScaleParams(family="S3", alpha=0.11, beta=0.03, phi=77.0,
                          gamma=0.015, delta=0.004),
        xi=0.07,
    )
    back = TailParams.from_dict(tp.to_dict())
    assert back.rate.family == "R2" and back.scale.family == "S3"
    npt.assert_array_equal(back.rate.delta, tp.rate.delta)
    npt.assert_array_equal(back.rate.month_mean_day, tp.rate.month_mean_day)
    assert back.scale.delta == tp.scale.delta
    assert back.xi == tp.xi


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        RateParams(family="R9")
    with pytest.raises(ValueError):
        ScaleParams(family="X0")
