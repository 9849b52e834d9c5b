"""Runs declustering and the exponential-in-level extremal-index curve."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import least_squares

from skewsurge.exi import (
    ExiModel,
    eval_exi,
    fit_exi_curve,
    fit_exi_to_estimates,
    runs_estimate,
)


class TestRunsEstimate:
    def test_hand_enumerated_clusters(self):
        # Exceedance pattern (1,0,0,1,1,0,0,0,1) with run length 2:
        # positions 1 and {4,5} are split by a gap of 2, {4,5} and 9 by a
        # gap of 3, so there are 3 clusters over 4 exceedances.
        values = np.array([1, 0, 0, 1, 1, 0, 0, 0, 1], dtype=float)
        assert runs_estimate(values, 0.5, 2) == 0.75

    def test_isolated_exceedances_give_one(self):
        values = np.zeros(50)
        values[[5, 20, 35, 49]] = 1.0
        assert runs_estimate(values, 0.5, 4) == 1.0

    def test_single_block_gives_reciprocal_length(self):
        values = np.zeros(30)
        values[10:15] = 1.0
        assert runs_estimate(values, 0.5, 3) == 1 / 5

    def test_run_length_beyond_series_gives_one_cluster(self):
        values = np.zeros(40)
        values[[3, 17, 31]] = 1.0
        assert runs_estimate(values, 0.5, 1000) == 1 / 3

    def test_monotone_nonincreasing_in_run_length(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(2000)
        level = np.quantile(values, 0.95)
        prev = 2.0
        for r in (1, 2, 4, 8, 16, 64):
            est = runs_estimate(values, level, r)
            assert est <= prev + 1e-12
            prev = est

    def test_no_exceedances_errors(self):
        with pytest.raises(ValueError, match="no exceedances"):
            runs_estimate(np.zeros(10), 0.5, 2)
        with pytest.raises(ValueError):
            runs_estimate(np.ones(10), 0.5, 0)


def _curve(levels, v, theta, theta_v, psi):
    return theta - (theta - theta_v) * np.exp(-(levels - v) / psi)


class TestCurveFit:
    def test_recovers_exact_synthetic_parameters(self):
        v, theta, theta_v, psi = 1.0, 0.9, 0.55, 0.35
        levels = np.linspace(1.02, 2.5, 25)
        theta_fit, psi_fit = fit_exi_to_estimates(
            levels, _curve(levels, v, theta, theta_v, psi), v, theta_v
        )
        npt.assert_allclose(theta_fit, theta, atol=1e-6)
        npt.assert_allclose(psi_fit, psi, atol=1e-6)

    def test_theta_v_one_pins_curve_at_one(self):
        levels = np.linspace(1.1, 2.0, 10)
        theta, _psi = fit_exi_to_estimates(
            levels, np.ones(10), 1.0, theta_v=1.0
        )
        assert theta == 1.0
        model = ExiModel(v=1.0, psi=1.0, theta=theta, theta_v=1.0,
                         run_length=4, levels=levels,
                         runs_theta=np.ones(10))
        npt.assert_array_equal(eval_exi(model, [1.0, 1.5, 4.0]), 1.0)

    @pytest.mark.parametrize("theta,theta_v,noise", [
        (1.08, 0.6, 0.01),   # best unclipped theta above 1
        (0.85, 0.6, 0.01),   # interior
        (0.5, 0.6, 0.0),     # every estimate below theta_v
    ])
    def test_matches_bounded_least_squares(self, theta, theta_v, noise):
        v = 1.0
        levels = np.linspace(1.02, 2.5, 25)
        rng = np.random.default_rng(4)
        est = (_curve(levels, v, theta, theta_v, 0.35)
               + noise * rng.standard_normal(levels.size))

        def resid(p):
            return _curve(levels, v, p[0], theta_v, p[1]) - est

        ref = least_squares(
            resid, [0.5 * (theta_v + 1.0), 0.75],
            bounds=([theta_v, 1e-9], [1.0, np.inf]),
            xtol=1e-14, ftol=1e-14, gtol=1e-14,
        ).x
        fit = fit_exi_to_estimates(levels, est, v, theta_v)
        npt.assert_allclose(fit[0], ref[0], rtol=0, atol=1e-8)
        if fit[0] > theta_v:  # at theta_v the curve is flat in psi
            npt.assert_allclose(fit[1], ref[1], rtol=1e-6)
        sse, sse_ref = (np.sum(resid(p) ** 2) for p in (fit, ref))
        assert sse <= sse_ref * (1.0 + 1e-12)

    def test_too_few_levels(self):
        with pytest.raises(ValueError, match="3"):
            fit_exi_to_estimates([1.1, 1.2], [0.8, 0.9], 1.0, 0.7)

    def test_fit_from_series(self):
        # AR-like clustered series: exceedances arrive in short storms.
        rng = np.random.default_rng(12)
        z = np.empty(60000)
        z[0] = 0.0
        for i in range(1, len(z)):
            z[i] = 0.6 * z[i - 1] + rng.standard_normal()
        model = fit_exi_curve(
            z, float(np.quantile(z, 0.99)),
            np.linspace(*np.quantile(z, (0.95, 0.999)), 30), run_length=4)
        assert 0.0 < model.theta_v <= model.theta <= 1.0
        assert model.psi > 0
        assert model.run_length == 4

    def test_v_above_maximum_errors(self):
        with pytest.raises(ValueError, match="maximum"):
            fit_exi_curve(np.linspace(0, 1, 100), 2.0, np.linspace(0, 1, 30))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_that_are_not_finite_are_refused(self, bad):
        values = np.linspace(0, 1, 100)
        values[40] = bad
        with pytest.raises(ValueError, match="^values must be finite$"):
            fit_exi_curve(values, 0.5, np.linspace(0.55, 0.95, 9))

    def test_too_few_usable_levels_above_v(self):
        # 1.5 has no exceedances and is dropped, leaving two above v
        with pytest.raises(ValueError,
                           match="fewer than 3 usable grid levels above v"):
            fit_exi_curve(np.linspace(0, 1, 100), 0.5,
                          [0.3, 0.4, 0.6, 0.7, 1.5])


class TestEvalExi:
    @pytest.fixture()
    def model(self):
        levels = np.concatenate([
            np.linspace(0.8, 0.99, 6),           # empirical below v
            np.linspace(1.05, 2.2, 12),          # curve region
        ])
        runs = np.concatenate([
            np.linspace(0.42, 0.5, 6),
            _curve(np.linspace(1.05, 2.2, 12), 1.0, 1.0, 0.5, 0.4),
        ])
        return ExiModel(v=1.0, psi=0.4, theta=1.0, theta_v=0.5,
                        run_length=4, levels=levels, runs_theta=runs)

    def test_curve_value_at_half_life(self, model):
        # theta=1, theta_v=0.5: one half-life above v the curve reads 0.75.
        npt.assert_allclose(
            eval_exi(model, 1.0 + 0.4 * np.log(2.0)), 0.75, rtol=1e-12
        )

    def test_limit_is_theta(self, model):
        npt.assert_allclose(eval_exi(model, 100.0), model.theta)

    def test_branches_agree_at_v(self, model):
        npt.assert_allclose(eval_exi(model, 1.0), model.theta_v)
        npt.assert_allclose(eval_exi(model, 1.0 - 1e-12), model.theta_v,
                            atol=1e-9)

    def test_below_v_interpolates_runs_estimates(self, model):
        npt.assert_allclose(eval_exi(model, 0.8), 0.42)
        mid = eval_exi(model, (0.8 + 0.99 / 6 * 0) + 0.01)
        assert 0.42 <= mid <= 0.5

    def test_output_in_unit_interval_and_monotone_above_v(self, model):
        y = np.linspace(1.0, 5.0, 200)
        vals = eval_exi(model, y)
        assert (vals > 0).all() and (vals <= 1.0).all()
        assert (np.diff(vals) >= 0).all()

    @pytest.mark.parametrize("y", [
        np.linspace(1.0 + 1e-9, 4.0, 50),   # all above v
        np.r_[-1e3, np.linspace(0.5, 1.0, 50)],  # all at or below v
        np.linspace(0.5, 3.0, 101),         # straddling v
    ], ids=["above", "below", "straddling"])
    def test_matches_the_per_element_reference(self, model, y):
        xp = np.append(model.levels[model.levels < model.v], model.v)
        fp = np.append(model.runs_theta[model.levels < model.v],
                       model.theta_v)
        expected = [
            float(np.interp(v, xp, fp)) if v <= model.v
            else model.theta - (model.theta - model.theta_v) * math.exp(
                -(v - model.v) / model.psi)
            for v in y]
        npt.assert_allclose(eval_exi(model, y), np.clip(expected, 0.0, 1.0),
                            rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("y", [0.9, 1.0, 1.7])
    def test_scalar_level_gives_a_float(self, model, y):
        got = eval_exi(model, y)
        assert type(got) is float
        assert got == eval_exi(model, np.array([y, 2.0]))[0]
        assert got == eval_exi(model, np.array(y))


def test_theta_v_of_a_simulated_record(sim_r0):
    # 400 cycles above v in 323 runs: a fixed value, which a reordered
    # record (now refused) would change
    x = sim_r0[0].skew_surge
    v = np.quantile(x, 0.95)
    model = fit_exi_curve(sim_r0[0], v, np.quantile(x, np.linspace(0.95, 0.999, 30)))
    assert model.theta_v == 323 / 400
    assert model.theta == 1.0
    npt.assert_allclose(model.psi, 0.20169307730270572, rtol=1e-12)


def test_exi_serialization_round_trip():
    levels = np.linspace(1.0, 2.0, 8)
    model = ExiModel(v=1.1, psi=0.3, theta=0.95, theta_v=0.6, run_length=4,
                     levels=levels, runs_theta=np.linspace(0.6, 0.9, 8))
    back = ExiModel.from_dict(model.to_dict())
    y = np.linspace(0.9, 3.0, 40)
    npt.assert_array_equal(eval_exi(back, y), eval_exi(model, y))


_TINY = math.ulp(0.0)  # the least positive float, the low end of (0, 1]
_VALID = {"v": 1.1, "psi": 0.3, "theta": 0.95, "theta_v": 0.6,
          "run_length": 4, "levels": [1.0, 1.2, 1.4],
          "runs_theta": [0.5, 0.7, 0.9]}


@pytest.mark.parametrize("field,value,message", [
    ("theta", 1.3, r"^theta must lie in \(0, 1\], not 1.3$"),
    ("theta", -0.1, r"^theta must lie in \(0, 1\]"),
    ("theta", math.nan, r"^theta must lie in \(0, 1\]"),
    ("theta_v", 1.0 + 1e-12, r"^theta_v must lie in \(0, 1\]"),
    ("theta_v", -1e-300, r"^theta_v must lie in \(0, 1\]"),
    ("runs_theta", [0.5, 1.2, 0.9], r"^runs estimates must lie in \(0, 1\]$"),
    ("runs_theta", [0.5, math.nan, 0.9], r"^runs estimates must lie"),
    ("runs_theta", [-0.1, 0.7, 0.9], r"^runs estimates must lie"),
    ("psi", 0.0, r"^psi must be positive and finite, not 0.0$"),
    ("psi", -0.3, r"^psi must be positive and finite"),
    ("psi", math.inf, r"^psi must be positive and finite"),
    ("psi", math.nan, r"^psi must be positive and finite"),
    ("levels", [1.0, 1.2], r"^levels and runs estimates must have equal"),
    ("runs_theta", [0.5, 0.7], r"^levels and runs estimates must have equal"),
    # 0 is refused, and so are levels out of order
    ("theta", 0.0, r"^theta must lie in \(0, 1\], not 0.0$"),
    ("theta_v", 0.0, r"^theta_v must lie in \(0, 1\]"),
    ("runs_theta", [0.0, 0.7, 0.9], r"^runs estimates must lie"),
    ("levels", [1.4, 1.2, 1.0], r"^levels must be ascending$"),
    ("levels", [1.0, math.nan, 1.4], r"^levels must be ascending$"),
])
@pytest.mark.parametrize("build", ["init", "from_dict"])
def test_out_of_range_model_is_refused(build, field, value, message):
    d = {**_VALID, field: value}
    with pytest.raises(ValueError, match=message):
        ExiModel.from_dict(d) if build == "from_dict" else ExiModel(**d)


@pytest.mark.parametrize("theta,theta_v", [(_TINY, _TINY), (1.0, 1.0),
                                           (_TINY, 1.0), (1.0, _TINY)])
def test_unit_interval_ends_are_accepted(theta, theta_v):
    model = ExiModel(**{**_VALID, "theta": theta, "theta_v": theta_v,
                        "runs_theta": [_TINY, 0.5, 1.0]})
    y = np.linspace(0.9, 5.0, 60)
    vals = eval_exi(model, y)
    assert np.all((vals > 0.0) & (vals <= 1.0))


def test_equal_levels_are_accepted():
    # a quantile grid of tied surges repeats a level
    ExiModel(**{**_VALID, "levels": [1.0, 1.2, 1.2]})
