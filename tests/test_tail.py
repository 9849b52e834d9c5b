"""Rate model, scale model, GPD tail pieces and the combined CDF."""

import itertools
import json
import math
from datetime import date, timedelta

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from skewsurge import tail
from skewsurge.body import build_empirical, cell_cdf, eval_body_cdf
from skewsurge.data import calendar_columns
from skewsurge.tail import (
    RATE_FAMILIES,
    SCALE_FAMILIES,
    SEASONAL_FAMILIES,
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    _gpd_h,
    _gpd_quantile,
    delta_lambda,
    eval_cdf,
    inv_logit,
    linear_predictor,
    logit,
    mean_excess,
    param_names,
    params_to_values,
    rate_at,
    rate_terms,
    scale_at,
    scale_terms,
    seasonal_basis,
    values_to_params,
)

from conftest import flat_thresholds


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


def _direct_basis(d):
    w = tail._TWO_PI_OVER_F * np.asarray(d, dtype=float)
    return np.sin(w), np.cos(w)


class TestSeasonalBasis:
    """Integer days 0..366 are gathered from a table; the bits are those
    of the formula."""

    # a 35,000-record calendar, as a tables site has
    _RECORD = calendar_columns(np.datetime64("1950-01-01T00:00")
                               + np.timedelta64(745, "m") * np.arange(35_000))[3]

    @pytest.mark.parametrize("d", [
        np.arange(367), _RECORD, np.broadcast_to(_RECORD[:400, None], (400, 7)),
        40, np.int32(366), np.arange(367, dtype=np.uint16)],
        ids=["every_day", "record", "broadcast", "int", "int32", "uint16"])
    def test_table_equals_the_formula_to_the_bit(self, d):
        for got, want in zip(seasonal_basis(d), _direct_basis(d)):
            assert np.array_equal(got, want)
            assert np.shape(got) == np.shape(d)
            assert type(got) is type(want)

    @pytest.mark.parametrize("d", [
        40.0, 40.5, np.arange(367.0), np.array([0, 367]), -1, 400,
        np.array([], dtype=int), True])
    def test_other_days_take_the_formula(self, d, monkeypatch):
        # with the tables spoiled, only the formula gives these values
        for name in ("_DAY_SIN", "_DAY_COS"):
            monkeypatch.setattr(tail, name, np.full(367, np.nan))
        for got, want in zip(seasonal_basis(d), _direct_basis(d)):
            assert np.array_equal(got, want)
        assert np.isnan(seasonal_basis(np.arange(367))).all()


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
        linear_predictor(rate_terms(rf, seasonal_basis(doy), doy, dom, month,
                                    tide, rp, year_std, gmt), rp.values()),
        _phase_rate_logit(rp, doy, dom, month, tide, year_std, gmt),
        rtol=1e-12, atol=1e-12)
    npt.assert_allclose(
        scale_at(sp, doy, tide, year_std, gmt),
        _phase_scale(sp, doy, month, tide, year_std, gmt),
        rtol=1e-12, atol=1e-12)


def _series_h(z, xi):
    """h(z; xi) = log1p(xi z)/xi as its power series in xi z."""
    a = xi * z
    return z * sum((-a) ** k / (k + 1) for k in range(12))


def _gpd_logpdf(excess, sigma, xi):
    return -(np.log(sigma) + (1.0 + xi) * _gpd_h(excess / sigma, xi))


@pytest.fixture(scope="module")
def one_record(sim_r0):
    """F(y) of one record (day 120, 10 May, tide 2.8) under a flat
    threshold u = 1, with its body built there, a constant rate lam and a
    constant scale alpha."""
    thresholds = flat_thresholds(1.0)
    body = build_empirical(sim_r0[0], thresholds)

    def cdf(y, xi, lam=0.05, alpha=0.1):
        params = TailParams(rate=RateParams(lam=lam),
                            scale=ScaleParams(alpha=alpha, beta=0.0), xi=xi)
        near = SkewSurgeModel(body=body, params=params, thresholds=thresholds)
        return near.conditional(120.0, 10.0, 5, 2.8)(y)

    return cdf


class TestGpdTail:
    def test_boundary_returns_rate(self, one_record):
        y = np.nextafter(1.0, 2.0)
        npt.assert_allclose(1.0 - one_record(y, 0.2), 0.05, rtol=1e-14)

    def test_exponential_limit(self, one_record):
        npt.assert_allclose(one_record(1.1, 0.0, lam=0.5),
                            1.0 - 0.5 * math.exp(-1.0), rtol=1e-15)

    def test_negative_shape_upper_endpoint(self, one_record):
        # sigma/|xi| = 0.5, so y = u + 0.5 sits exactly on the endpoint
        # (all quantities exactly representable in binary).
        assert one_record(1.5, -0.5, alpha=0.25) == 1.0
        assert one_record(5.0, -0.5, alpha=0.25) == 1.0

    def test_continuous_in_shape_at_zero(self, one_record):
        y, lam, sig = 1.23, 0.7, 0.15
        z = (y - 1.0) / sig
        for xi in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7):
            npt.assert_allclose(
                1.0 - one_record(y, xi, lam=lam, alpha=sig),
                lam * math.exp(-_series_h(z, xi)), rtol=1e-12)

    def test_invalid_inputs(self, one_record):
        for alpha in (0.0, -0.1):
            with pytest.raises(ValueError, match="positive"):
                one_record(1.1, 0.1, alpha=alpha)

    def test_excess_logpdf_exponential_case(self):
        # density (1/sigma) e^{-e/sigma} with sigma=0.1, e=0.1
        npt.assert_allclose(_gpd_logpdf(np.array([0.1]), 0.1, 0.0),
                            math.log(10.0) - 1.0, rtol=1e-15)

    def test_excess_logpdf_outside_support(self):
        assert _gpd_logpdf(np.array([0.3]), 0.1, -0.5)[0] == -np.inf

    def test_excess_logpdf_matches_scipy(self):
        from scipy.stats import genpareto
        e = np.array([0.01, 0.05, 0.2, 0.7])
        for xi in (-0.2, 0.1, 0.4):
            npt.assert_allclose(
                _gpd_logpdf(e, 0.12, xi),
                genpareto.logpdf(e, c=xi, scale=0.12),
                rtol=1e-12,
            )


class TestGpdKernel:
    @pytest.mark.parametrize("xi", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_matches_the_series_near_zero(self, xi):
        z = np.geomspace(1e-6, 50.0, 200)
        npt.assert_allclose(_gpd_h(z, xi), _series_h(z, xi), rtol=1e-12)

    def test_subnormal_shape_is_the_exponential(self):
        z = np.geomspace(1e-6, 50.0, 20)
        for xi in (0.0, 1e-310, -5e-324):
            assert _gpd_h(z, xi).tobytes() == z.tobytes()

    @pytest.mark.parametrize("xi", [-0.4, -1e-9, 0.0, 1e-9, 0.05, 0.9])
    def test_quantile_inverts_the_kernel(self, xi):
        w = np.geomspace(1e-6, 10.0, 200)
        npt.assert_allclose(_gpd_h(_gpd_quantile(w, xi, 1.0), xi), w,
                            rtol=1e-14)
        npt.assert_allclose(_gpd_quantile(w, xi, 0.12),
                            0.12 * _gpd_quantile(w, xi, 1.0), rtol=1e-15)


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


def _full_search(m, series, y):
    """The body CDF of every record at y, searched whatever y is."""
    return cell_cdf(m.body, series.month, series.peak_tide)(
        y, np.empty(y.shape), np.ones(y.shape, dtype=bool))


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
        below_mass = 1.0 - rate_at(m.params.rate, 50.0, 19.0, 2, 3.1)
        expect = below_mass * eval_body_cdf(m.body, y, 2, 3.1)
        npt.assert_array_equal(got, expect)

    def test_a_body_built_at_other_thresholds_is_refused(self, model):
        # the tail would start 0.05 m below where the body stops, so F
        # would not read 1 - lambda at u_j
        m, _ = model
        lower = flat_thresholds(m.thresholds.values[0] - 0.05)
        match = "^the body was built at other thresholds than the model's$"
        with pytest.raises(ValueError, match=match):
            SkewSurgeModel(body=m.body, params=m.params, thresholds=lower)
        with pytest.raises(ValueError, match=match):
            eval_cdf(0.1, 50.0, 19.0, 2, 3.1, body=m.body, params=m.params,
                     thresholds=lower)

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
        full = (1.0 - rate_at(m.params.rate, *records)) * _full_search(
            m, series, y)
        assert got.tobytes() == np.where(below, full, got).tobytes()

    def test_nonpositive_scale_is_an_error_only_above_the_threshold(
            self, model):
        m, series = model
        records = (series.day_of_year, series.day_of_month, series.month,
                   series.peak_tide)
        # sigma = 0.1 - 0.04 tide is nonpositive from a 2.5 m tide up
        steep = TailParams(rate=m.params.rate,
                           scale=ScaleParams(alpha=0.1, beta=0.0,
                                             gamma=-0.04),
                           xi=m.params.xi)
        cdf = SkewSurgeModel(body=m.body, params=steep,
                             thresholds=m.thresholds).conditional(*records)
        positive = scale_at(steep.scale, series.day_of_year,
                            series.peak_tide) > 0.0
        assert 0 < positive.sum() < positive.size
        u = m.thresholds.for_month(series.month)
        y = np.where(positive, u + 0.05, u)
        got = cdf(y)
        full = (1.0 - rate_at(steep.rate, *records)) * _full_search(
            m, series, y)
        assert got[~positive].tobytes() == full[~positive].tobytes()
        assert np.all((got[positive] > 0.9) & (got[positive] <= 1.0))
        y[np.flatnonzero(~positive)[0]] += 1e-9
        with pytest.raises(ValueError, match="sigma must be positive"):
            cdf(y)

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

    def _near_zero(self, model, xi):
        """F of one record under shape xi, and its lambda and z."""
        m, _ = model
        near = SkewSurgeModel(
            body=m.body, thresholds=m.thresholds,
            params=TailParams(rate=m.params.rate, scale=m.params.scale,
                              xi=xi))
        u = m.thresholds.for_month(5)
        lam = rate_at(m.params.rate, 120.0, 10.0, 5, 2.8)
        sigma = scale_at(m.params.scale, 120.0, 2.8)
        y = u + np.array([1e-9, 0.1, 0.5, 2.0])
        return _cdf(near, y, 120.0, 10.0, 5, 2.8), lam, (y - u) / sigma

    @pytest.mark.parametrize("xi", [0.0])
    def test_shape_inside_the_zero_tolerance_is_the_exponential(self, model,
                                                                xi):
        got, lam, z = self._near_zero(model, xi)
        npt.assert_allclose(got, 1.0 - lam * np.exp(-z), rtol=1e-15)

    @pytest.mark.parametrize("xi", [5e-9, -5e-9])
    def test_shape_near_zero_is_the_closed_form(self, model, xi):
        got, lam, z = self._near_zero(model, xi)
        npt.assert_allclose(got, 1.0 - lam * np.exp(-np.log1p(xi * z) / xi),
                            rtol=1e-15)


# The junction is probed 1e-9 m either side of u_j; the very next double
# above it, on every cycle, by
# test_no_cycle_dips_below_one_minus_lambda_just_above_the_threshold.
_OFFSETS = (-2.0, -0.1, -1e-9, 0.0, 1e-9, 0.1, 1.0, 50.0)


@settings(deadline=None)
@given(rf=st.sampled_from(RATE_FAMILIES), sf=st.sampled_from(SCALE_FAMILIES),
       lam=st.floats(0.001, 0.5),
       rate=st.lists(_unit, min_size=3, max_size=3),
       rate_phases=st.lists(_phase, min_size=2, max_size=2),
       alpha=st.floats(0.02, 0.5), scale=st.lists(_unit, min_size=3, max_size=3),
       scale_phase=_phase, deltas=st.lists(_unit, min_size=8, max_size=8),
       xi=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)))
def test_conditional_is_a_cdf_per_cycle(model, rf, sf, lam, rate, rate_phases,
                                        alpha, scale, scale_phase, deltas, xi):
    # Every family on records with both trend covariates: per cycle, F is
    # in [0, 1], non-decreasing across u_j and 1 - lambda at u_j exactly.
    # Each scale term moves sigma by at most alpha / 4, so sigma > 0.
    m, series = model
    pick = slice(None, None, 40)
    records = (series.day_of_year[pick], series.day_of_month[pick],
               series.month[pick], series.peak_tide[pick])
    n = records[0].size
    covariates = {"year_std": np.linspace(-1.0, 1.0, n),
                  "gmt": np.linspace(-0.5, 1.5, n)}

    def delta(family, values):
        return {"0": None, "1": values[0], "3": values[0]}.get(
            family[1], np.asarray(values[:4]))

    std = m.params.rate
    rp = RateParams(family=rf, lam=lam, beta_day=rate[0],
                    phi_day=rate_phases[0], alpha_tide=rate[1],
                    beta_tide=rate[2], phi_tide=rate_phases[1],
                    tide_mean=std.tide_mean, tide_sd=std.tide_sd,
                    month_mean_day=std.month_mean_day,
                    delta=delta(rf, deltas[:4]))
    quarter = alpha / 4.0
    sp = ScaleParams(family=sf, alpha=alpha, beta=quarter * abs(scale[0]),
                     phi=scale_phase,
                     gamma=quarter * scale[1] / np.abs(records[3]).max(),
                     delta=delta(sf, np.multiply(deltas[4:], quarter / 1.5)))
    cdf = SkewSurgeModel(body=m.body, params=TailParams(rp, sp, xi),
                         thresholds=m.thresholds).conditional(
        *records, **covariates)
    u = m.thresholds.for_month(records[2])
    f = np.array([cdf(u + offset) for offset in _OFFSETS])
    assert np.all((f >= 0.0) & (f <= 1.0))
    assert np.all(np.diff(f, axis=0) >= 0.0)
    at_u = f[_OFFSETS.index(0.0)]
    assert at_u.tobytes() == (1.0 - rate_at(rp, *records,
                                            **covariates)).tobytes()


@pytest.mark.parametrize("rf,sf", list(itertools.product(RATE_FAMILIES,
                                                         SCALE_FAMILIES)))
def test_no_cycle_dips_below_one_minus_lambda_just_above_the_threshold(
        model, rf, sf):
    # S = lambda exp(-h) with h >= 0 cannot round above lambda, so at the
    # very next double above u_j no cycle's F is below F(u_j) = 1 - lambda
    m, series = model
    records = (series.day_of_year, series.day_of_month, series.month,
               series.peak_tide)
    n = records[0].size
    covariates = {"year_std": np.linspace(-1.0, 1.0, n),
                  "gmt": np.linspace(-0.5, 1.5, n)}
    params = _params_of(rf, sf)
    cdf = SkewSurgeModel(body=m.body, params=params,
                         thresholds=m.thresholds).conditional(
        *records, **covariates)
    u = m.thresholds.for_month(series.month)
    at_u = cdf(u)
    assert at_u.tobytes() == (1.0 - rate_at(params.rate, *records,
                                            **covariates)).tobytes()
    assert np.all(cdf(np.nextafter(u, np.inf)) >= at_u)


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


def _params_of(rf, sf):
    """TailParams of a family pair with every value distinct and nonzero."""
    def delta(family, values):
        if family in SEASONAL_FAMILIES:
            return values
        return None if family in ("R0", "S0") else values[1]
    return TailParams(
        rate=RateParams(family=rf, lam=0.04, beta_day=0.02, phi_day=12.0,
                        alpha_tide=0.3, beta_tide=0.1, phi_tide=300.0,
                        tide_mean=3.2, tide_sd=0.6,
                        month_mean_day=np.linspace(15, 16, 12),
                        delta=delta(rf, [0.15, 0.25, -0.1, 0.05])),
        scale=ScaleParams(family=sf, alpha=0.11, beta=0.03, phi=77.0,
                          gamma=0.015, delta=delta(sf, [0.004, -0.002,
                                                        0.003, 0.001])),
        xi=0.07,
    )


@pytest.mark.parametrize("rf,sf", list(itertools.product(RATE_FAMILIES,
                                                         SCALE_FAMILIES)))
def test_params_serialization_round_trip(rf, sf):
    tp = _params_of(rf, sf)
    # the name table and the predictor kernel agree, in order
    terms = (rate_terms(rf, seasonal_basis(40.0), 40.0, 9, 2, 3.5, tp.rate,
                        0.5, 0.2)
             + scale_terms(sf, seasonal_basis(40.0), 40.0, 3.5, 0.5, 0.2))
    names = param_names(rf, sf)
    assert [n for term in terms for n in term[0]] + ["xi"] == names
    values = params_to_values(tp)
    assert list(values) == names and len(set(values.values())) == len(names)
    flat = values_to_params(values, rf, sf, tp.rate)
    back = TailParams.from_dict(json.loads(json.dumps(tp.to_dict())))
    for got in (flat, back):
        assert got.rate.family == rf and got.scale.family == sf
        assert params_to_values(got) == values
        assert got.to_dict() == tp.to_dict()
        npt.assert_array_equal(got.rate.month_mean_day,
                               tp.rate.month_mean_day)
        for half, want in ((got.rate, tp.rate), (got.scale, tp.scale)):
            if want.delta is None:
                assert half.delta is None
            else:  # a seasonal delta keeps its winter-first order
                npt.assert_array_equal(half.delta, want.delta)
    assert back.xi == tp.xi


@pytest.mark.parametrize("family,delta,count", [
    *[(family, delta, 4) for family in ("R2", "S2")
      for delta in ([0.1] * 5, [0.1, 0.2], 0.2)],
    ("R1", [0.1, 0.2], 1), ("S1", [0.1, 0.2], 1)])
def test_trend_delta_of_the_wrong_shape_is_rejected(family, delta, count):
    cls = RateParams if family in RATE_FAMILIES else ScaleParams
    with pytest.raises(ValueError,
                       match=f"family {family} takes {count} trend delta"):
        cls(family=family, delta=delta)
    unset = cls(family=family)  # allowed, and refused only where it is used
    with pytest.raises(ValueError, match="has no trend delta set"):
        unset.values()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        RateParams(family="R9")
    with pytest.raises(ValueError):
        ScaleParams(family="X0")
