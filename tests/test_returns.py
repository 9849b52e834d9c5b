"""Annual-maximum distribution, return levels and tide calendars."""

import itertools
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from skewsurge import SimSpec, simulate_series
from skewsurge import returns
from skewsurge.body import TideBandedEmpirical, build_empirical, eval_body_cdf
from skewsurge.data import standardize_year
from skewsurge.exi import ExiModel, eval_exi, fit_exi_curve
from skewsurge.returns import (
    ReturnCurve,
    Scenario,
    TideSampleCalendar,
    annual_max_cdf,
    return_curve,
    return_level,
)
from skewsurge.tail import (
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    rate_at,
    scale_at,
)

from conftest import columns_series, flat_thresholds


def _step_model(jump, below, above):
    """A model whose conditional CDF ignores every covariate: 0 for surges
    below 0, ``below`` (to 1/1000 of ``above``) from 0 to ``jump`` and
    ``above`` past ``jump``, for below <= above. Past ``jump`` F is
    1 - lambda, lambda = 1 - ``above``, under a scale of 2**1000, whose h
    is 0 to the last digit; or 1 past the endpoint of a scale of 2**-1000
    with xi = -1, lambda then 1 - ``below``. Below ``jump`` it is 1 - lambda
    times the body, 1000 samples per cell: a fraction ``below`` / (1 -
    lambda) of them at 0 and the rest at ``jump``. A power of two keeps
    the engine's scaled excess z/sigma - (tide + u_j)/sigma exact, so the
    jump sits at one level to the last bit."""
    if above == 1.0:
        lam, sigma, xi = 1.0 - below, 2.0 ** -1000, -1.0
    else:
        lam, sigma, xi = 1.0 - above, 2.0 ** 1000, 0.0
    n = 1000
    at_zero = round(below / (1.0 - lam) * n)
    cell = np.repeat([0.0, float(jump)], [at_zero, n - at_zero])
    body = TideBandedEmpirical(
        tide_breaks=np.zeros((12, 2)), samples=[[cell] * 3] * 12,
        thresholds=np.full(12, float(jump)))
    params = TailParams(rate=RateParams(lam=lam),
                        scale=ScaleParams(alpha=sigma, beta=0.0), xi=xi)
    return SkewSurgeModel(body=body, params=params,
                          thresholds=flat_thresholds(jump))


def _const_model(value):
    """F = value for every surge above 0.8 m (see :func:`_step_model`)."""
    return _step_model(0.8, value, value)


def _one_dead_cycle(n_cycles):
    """A 3 m tide calendar whose first cycle has a 10 m tide: at z = 5 m
    its surge is -5 m, where the CDF of :func:`_step_model` is 0."""
    cal = _one_year_calendar(n_cycles)
    cal.tide[0] = 10.0
    return cal


def _one_year_calendar(n_cycles=705, tide=3.0, year=2000):
    reps = n_cycles // 12
    month = np.resize(np.repeat(np.arange(1, 13), reps), n_cycles)
    month[-(n_cycles - 12 * reps) or 1:] = 12
    return TideSampleCalendar(
        years=np.array([year]),
        month=month,
        day_of_month=np.resize(np.arange(1, 29), n_cycles),
        day_of_year=np.linspace(1, 365, n_cycles).astype(int),
        tide=np.full(n_cycles, float(tide)),
        year_index=np.zeros(n_cycles, dtype=int),
    )


class TestAnnualMaxCdf:
    def test_constant_factor_single_year_product(self):
        cal = _one_year_calendar(705)
        got = annual_max_cdf(5.0, _const_model(0.999), cal)
        assert abs(got - 0.999 ** 705) <= 1e-9

    def test_duplicated_years_average_to_same_value(self):
        cal1 = _one_year_calendar(705)
        k = 3
        calk = TideSampleCalendar(
            years=np.array([2000, 2001, 2002]),
            month=np.tile(cal1.month, k),
            day_of_month=np.tile(cal1.day_of_month, k),
            day_of_year=np.tile(cal1.day_of_year, k),
            tide=np.tile(cal1.tide, k),
            year_index=np.repeat(np.arange(k), len(cal1.tide)),
        )
        a = annual_max_cdf(5.0, _const_model(0.999), cal1)
        b = annual_max_cdf(5.0, _const_model(0.999), calk)
        npt.assert_allclose(a, b, rtol=1e-14)

    def test_one_dead_cycle_kills_its_year(self):
        cal = _one_dead_cycle(100)
        assert annual_max_cdf(5.0, _const_model(0.999), cal) == 0.0

    def test_dead_cycle_under_the_least_extremal_index(self):
        # ExiModel refuses theta = 0; at the least positive theta every
        # other factor F^theta rounds to 1 while the dead cycle's log F =
        # -inf stays -inf, with no warning for theta * log(0).
        tiny = math.ulp(0.0)
        cal, dead = _one_year_calendar(100), _one_dead_cycle(100)
        least = ExiModel(v=0.5, psi=0.3, theta=tiny, theta_v=tiny,
                         run_length=4, levels=np.array([0.3, 0.4, 0.6]),
                         runs_theta=np.full(3, tiny))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert annual_max_cdf(5.0, _const_model(0.5), cal, least) == 1.0
            assert annual_max_cdf(5.0, _const_model(0.5), dead, least) == 0.0
            # a nan model stays nan
            nan_xi = _with_xi(_const_model(0.5), math.nan)
            assert math.isnan(annual_max_cdf(5.0, nan_xi, dead, least))

    def test_unit_extremal_index_curve_changes_nothing(self, surge_model):
        model, cal = surge_model
        flat = ExiModel(v=0.5, psi=0.3, theta=1.0, theta_v=1.0,
                        run_length=4, levels=np.array([0.5, 0.6, 0.7]),
                        runs_theta=np.ones(3))
        for z in (4.2, 4.5, 5.0):
            plain = annual_max_cdf(z, model, cal)
            withexi = annual_max_cdf(z, model, cal, exi_model=flat)
            npt.assert_allclose(withexi, plain, rtol=1e-12)

    def test_limits_and_monotonicity(self, surge_model):
        model, cal = surge_model
        assert annual_max_cdf(cal.tide.min() - 0.5, model, cal) == 0.0
        assert annual_max_cdf(60.0, model, cal) > 1.0 - 1e-9
        grid = np.linspace(4.0, 6.0, 9)
        vals = [annual_max_cdf(z, model, cal) for z in grid]
        assert np.all(np.diff(vals) >= 0.0)

    def test_sub_unit_extremal_index_raises_cdf(self, surge_model):
        # Discounting within-cluster dependence shrinks the effective
        # number of independent cycles, so the maximum looks smaller.
        model, cal = surge_model
        damped = ExiModel(v=0.3, psi=0.3, theta=0.6, theta_v=0.6,
                          run_length=4, levels=np.array([0.3, 0.5, 0.7]),
                          runs_theta=np.full(3, 0.6))
        z = 4.4
        assert annual_max_cdf(z, model, cal, exi_model=damped) \
            > annual_max_cdf(z, model, cal)


@pytest.fixture(scope="module")
def surge_model(sim_r0):
    series, params, thresholds = sim_r0
    body = build_empirical(series, thresholds)
    model = SkewSurgeModel(body=body, params=params, thresholds=thresholds)
    return model, TideSampleCalendar.from_series(series)


class TestReturnLevel:
    def test_round_trips_through_the_cdf(self, surge_model):
        model, cal = surge_model
        for p in (0.1, 0.01, 1e-3, 1e-4):
            z = return_level(p, model, cal)
            got = annual_max_cdf(z, model, cal)
            assert abs(got - (1.0 - p)) < 1e-6, p

    def test_rarer_events_sit_higher(self, surge_model):
        model, cal = surge_model
        z = [return_level(p, model, cal) for p in (0.2, 0.05, 0.01, 1e-3)]
        assert np.all(np.diff(z) > 0.0)

    def test_probability_domain_enforced(self, surge_model):
        model, cal = surge_model
        for p in (0.6, 5e-7, 0.0, -0.1):
            with pytest.raises(ValueError, match="probability"):
                return_level(p, model, cal)

    def test_trend_scenario_shifts_levels(self, sim_r0, surge_model):
        _, params, _ = sim_r0
        model, cal = surge_model
        trended = SkewSurgeModel(
            body=model.body,
            params=TailParams(
                rate=RateParams(
                    family="R1", lam=params.rate.lam, delta=0.3,
                    beta_day=0.0, phi_day=0.0, alpha_tide=0.0,
                    beta_tide=0.0, phi_tide=0.0,
                ),
                scale=params.scale,
                xi=params.xi,
            ),
            thresholds=model.thresholds,
        )
        late = Scenario(year_std=1.0)
        early = Scenario(year_std=-1.0)
        z = 4.5  # high enough that every cycle evaluates in the tail
        assert annual_max_cdf(z, trended, cal, scenario=late) \
            < annual_max_cdf(z, trended, cal, scenario=early)
        assert return_level(0.01, trended, cal, scenario=late) \
            > return_level(0.01, trended, cal, scenario=early)


class _Counted:
    """Counts the annual-maximum evaluations made inside a ``with`` block,
    and keeps their levels, by wrapping the engine each return curve
    builds; the wrapper carries the engine's ``top_edge``."""

    def __enter__(self):
        self.evals, self.levels, engine = 0, [], returns._annual_max

        def counting(*args):
            f = engine(*args)

            def counted(z):
                self.evals += 1
                self.levels.append(z)
                return f(z)
            counted.top_edge = f.top_edge
            return counted

        self.engine, returns._annual_max = engine, counting
        return self

    def __exit__(self, *exc):
        returns._annual_max = self.engine


def _staircase(z):
    """An exceedance that falls 3% at every 5 cm, with its step at 4.25 m
    from 0.10039 to 0.09998."""
    k = math.floor((z - 4.25) / 0.05)
    return 0.10039 * 0.97 ** (k + 1) if k < 0 else 0.09998 * 0.97 ** k


def _bisections(p, f, lo, hi):
    """The evaluations that plain bisection on f(z) > p takes to narrow
    [lo, hi] to one ulp."""
    n = 0
    while hi > np.nextafter(lo, np.inf):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > p else (lo, mid)
        n += 1
    return n


def _counted_invert(p, f, lo, hi, solved):
    """(evaluations, (z, f(z))) of one level solved on [lo, hi]."""
    calls = []

    def counted(z):
        calls.append(z)
        return f(z)
    level = returns._invert(p, counted, (lo, f(lo)), (hi, f(hi)), solved)
    return len(calls), level


class TestSolver:
    def test_relative_accuracy_at_small_probabilities(self, surge_model):
        # An absolute stop |F - (1 - p)| < 1e-6 is 1% of p at 1e-4 and
        # meaningless at 1e-6; the level must meet the target relative to p.
        model, cal = surge_model
        for p in (1e-4, 1e-5, 1e-6):
            z = return_level(p, model, cal)
            gap = math.log1p(-annual_max_cdf(z, model, cal)) - math.log(p)
            assert abs(gap) < 1e-8, p

    def test_shuffled_grid_gives_the_permuted_levels(self, surge_model):
        model, cal = surge_model
        grid = np.geomspace(1e-4, 0.2, 9)
        perm = np.random.default_rng(3).permutation(grid.size)
        sorted_z = return_curve(grid, model, cal).z
        shuffled = return_curve(grid[perm], model, cal)
        npt.assert_array_equal(shuffled.p, grid[perm])
        npt.assert_array_equal(shuffled.z, sorted_z[perm])

    def test_curve_costs_at_most_eight_evaluations_per_level(self,
                                                               surge_model):
        model, cal = surge_model
        grid = np.geomspace(1e-4, 1e-1, 20)
        with _Counted() as counted:
            curve = return_curve(grid, model, cal)
        npt.assert_array_equal(curve.z, return_curve(grid, model, cal).z)
        assert counted.evals <= 8 * grid.size, counted.evals

    def test_curve_averages_at_most_five_evaluations_per_level(self,
                                                               surge_model):
        # inverse interpolation through the solved levels: 52 here
        model, cal = surge_model
        grid = np.geomspace(1e-4, 1e-1, 20)
        with _Counted() as counted:
            return_curve(grid, model, cal)
        assert counted.evals <= 5 * grid.size, counted.evals

    @pytest.mark.parametrize("below,above", [(0.999, 0.99999), (0.999, 1.0)])
    def test_step_function_returns_the_jump(self, below, above):
        # F jumps at surge 0.8, so at z = 3.8 m over a constant 3 m tide;
        # 1 - p lies inside the jump and the solver can only narrow the
        # bracket around it until its ends are one ulp apart.
        cal = _one_year_calendar(705, tide=3.0)
        model = _step_model(0.8, below, above)
        low, high = (annual_max_cdf(z, model, cal) for z in (3.5, 4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = return_level(0.1, model, cal)
            curve = return_curve(np.array([0.3, 0.1, 0.01]), model, cal)
        assert low < 1.0 - 0.3 and high > 1.0 - 0.01
        # the final bracket is one ulp wide, across the jump
        assert annual_max_cdf(z, model, cal) == high
        assert annual_max_cdf(np.nextafter(z, -np.inf), model, cal) == low
        assert abs(z - 3.8) < 1e-12
        npt.assert_array_equal(curve.z, z)

    def test_bracket_past_the_upper_endpoint(self, surge_model):
        # xi < 0: every cycle is past its upper endpoint at the bracket's
        # top, so F = 1 there exactly, h = -inf, and the first steps
        # bisect.
        model, cal = surge_model
        bounded = SkewSurgeModel(
            body=model.body, thresholds=model.thresholds,
            params=TailParams(rate=model.params.rate,
                              scale=model.params.scale, xi=-0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert annual_max_cdf(float(cal.tide.max()) + 10.0, bounded,
                                  cal) == 1.0
            for p in (0.1, 1e-3):
                z = return_level(p, bounded, cal)
                gap = math.log1p(-annual_max_cdf(z, bounded, cal)) \
                    - math.log(p)
                assert abs(gap) < 1e-8, p
        assert return_level(1e-3, bounded, cal) \
            < return_level(1e-3, model, cal)

    def test_target_beyond_the_bracket_is_an_error(self):
        # sigma = 0.5 and xi = 0.5: ten metres above the highest tide, a
        # year's maximum still exceeds the level with probability 0.23,
        # so no bracket holds p = 1e-6 and the message names it.
        truth = TailParams(rate=RateParams(),
                           scale=ScaleParams(alpha=0.5, beta=0.0), xi=0.5)
        model, cal, _ = _simulated(truth, seed=0, n_cycles=17500)
        with pytest.raises(ValueError,
                           match=r"^no bracket for p=1e-06: exceedance "):
            return_curve([1e-6, 0.01], model, cal)

    def test_curve_takes_three_and_a_half_evaluations_per_level(self,
                                                                  surge_model):
        # A bracket above the body, then from the third level a start
        # predicted from the levels solved before: no evaluation reaches
        # max(tide + u_j), where the body search runs.
        model, cal = surge_model
        grid = np.geomspace(1e-4, 1e-1, 20)
        with _Counted() as counted:
            return_curve(grid, model, cal)
        assert counted.evals <= 3.5 * grid.size, counted.evals
        top_edge = float(np.max(cal.tide + model.thresholds.for_month(
            cal.month)))
        assert min(counted.levels) > top_edge

    def test_bracket_below_the_body_when_the_top_edge_is_too_rare(
            self, surge_model):
        # lambda = 1e-4: the exceedance just above max(tide + u_j) is
        # below 0.1, so that level falls back on [min tide - 1, ...], where
        # the empirical body makes the exceedance a staircase in z.
        model, cal = surge_model
        rare = SkewSurgeModel(
            body=model.body, thresholds=model.thresholds,
            params=TailParams(rate=RateParams(lam=1e-4),
                              scale=model.params.scale, xi=model.params.xi))
        grid = np.array([0.1, 1e-3, 1e-4])
        with _Counted() as counted:
            curve = return_curve(grid, rare, cal)
        # the first level ends once no float is left between its bracket's
        # ends, not on the cap of 200: 70 evaluations for the curve, not 216
        assert counted.evals <= 100, counted.evals
        top_edge = float(np.max(cal.tide + model.thresholds.for_month(
            cal.month)))
        assert 1.0 - annual_max_cdf(np.nextafter(top_edge, np.inf), rare,
                                    cal) < grid.max()
        assert min(counted.levels) == float(cal.tide.min()) - 1.0
        assert curve.z[0] <= top_edge < curve.z[1]
        exceedance = returns._annual_max(rare, cal, None, None)
        z = curve.z[0]  # the step that crosses 0.1, one ulp wide
        assert exceedance(z) <= 0.1 < exceedance(np.nextafter(z, -np.inf))
        for p, z in zip(grid[1:], curve.z[1:]):
            assert abs(math.log(exceedance(z) / p)) < 1e-8, p

    def test_curve_takes_at_most_55_evaluations(self, surge_model):
        # Each probe interpolates z in log f through the last five levels
        # and this level's probes: from about the eighth level on, a level
        # ends in two evaluations (52 for the curve, 66 with a quadratic
        # start and a Newton step), and none reaches max(tide + u_j).
        model, cal = surge_model
        with _Counted() as counted:
            return_curve(np.geomspace(1e-4, 1e-1, 20), model, cal)
        assert counted.evals <= 55, counted.evals
        top_edge = float(np.max(cal.tide + model.thresholds.for_month(
            cal.month)))
        assert min(counted.levels) > top_edge

    def test_staircase_level_costs_at_most_four_above_bisection(
            self, surge_model):
        # The rare-rate model's p = 0.1 level, on the body's staircase over
        # the curve's bracket [min tide - 1, max tide + 10]: 56 evaluations
        # against bisection's 54, and 68 with no bound on the probes.
        model, cal = surge_model
        rare = SkewSurgeModel(
            body=model.body, thresholds=model.thresholds,
            params=TailParams(rate=RateParams(lam=1e-4),
                              scale=model.params.scale, xi=model.params.xi))
        f = returns._annual_max(rare, cal, None, None)
        lo, hi = float(cal.tide.min()) - 1.0, float(cal.tide.max()) + 10.0
        evals, (z, q) = _counted_invert(0.1, f, lo, hi, [])
        assert q <= 0.1 < f(np.nextafter(z, -np.inf))
        assert evals <= _bisections(0.1, f, lo, hi) + 4, evals

    @pytest.mark.parametrize("solved", [
        [], [(math.log(0.3), 1.5), (math.log(0.2), 2.5),
             (math.log(0.15), 3.2)]])
    def test_narrow_jump_costs_at_most_four_above_bisection(self, solved):
        # A step that straddles p = 0.1 as narrowly as f = 0.10039 against
        # 0.09998, found with and without predicted probes.
        lo, hi = 1.0, 14.0
        evals, (z, q) = _counted_invert(0.1, _staircase, lo, hi, solved)
        assert (q, _staircase(np.nextafter(z, -np.inf))) == (0.09998,
                                                             0.10039)
        assert z == 4.25
        assert evals <= _bisections(0.1, _staircase, lo, hi) + 4, evals

    def test_iteration_cap_is_an_error_naming_the_bracket(self):
        # A jump at z = 0: halving [-1, 1] down to a one-ulp bracket takes
        # about 1,075 probes through the subnormals, beyond the cap of 200.
        def jump(z):
            return 0.2 if z < 0.0 else 0.05
        with pytest.raises(ValueError, match=(
                r"^no return level for p=0\.1 in 200 probes: exceedance "
                r"0\.2 at z = -[0-9.e-]+, 0\.05 at z = [0-9.e-]+$")):
            returns._invert(0.1, jump, (-1.0, 0.2), (1.0, 0.05), [])

    @pytest.mark.parametrize("xi", [0.0, 5e-324])
    def test_exponential_tail_meets_its_closed_form(self, xi):
        # Constant lambda and sigma over n cycles at one tide: above every
        # threshold the annual exceedance is 1 - (1 - lambda e^{-e/sigma})^n,
        # e the level's excess, so z = x + u + sigma log(lambda / q) with
        # q = -expm1(log1p(-p)/n). A subnormal shape is the exponential.
        n, tide, u, lam, sigma = 705, 3.0, 0.8, 0.05, 0.3
        model = _step_model(u, 0.5, 0.5)
        model.params = TailParams(rate=RateParams(lam=lam),
                                  scale=ScaleParams(alpha=sigma, beta=0.0),
                                  xi=xi)
        grid = np.geomspace(1e-4, 0.2, 12)
        with _Counted() as counted:
            z = return_curve(grid, model, _one_year_calendar(n, tide)).z
        assert min(counted.levels) > tide + u
        q = -np.expm1(np.log1p(-grid) / n)
        npt.assert_allclose(z, tide + u + sigma * np.log(lam / q),
                            rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape,rate", [(math.nan, 0.05),
                                            (0.05, math.nan)])
    def test_nan_model_raises_rather_than_giving_levels(self, surge_model,
                                                        shape, rate):
        model, cal = surge_model
        broken = SkewSurgeModel(
            body=model.body, thresholds=model.thresholds,
            params=TailParams(rate=RateParams(lam=rate),
                              scale=model.params.scale, xi=shape))
        assert math.isnan(annual_max_cdf(float(cal.tide.max()) + 1.0,
                                         broken, cal))
        with pytest.raises(ValueError, match="exceedance is nan at z = "):
            return_curve(np.geomspace(1e-4, 1e-1, 5), broken, cal)
        with pytest.raises(ValueError, match="exceedance is nan"):
            return_level(0.01, broken, cal)


class TestReturnCurve:
    def test_levels_decrease_with_probability(self, surge_model):
        model, cal = surge_model
        curve = return_curve(np.array([0.2, 0.02, 1e-3]), model, cal)
        rows = curve.rows()
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert rows[0][2] >= rows[1][2] >= rows[2][2]
        npt.assert_allclose(rows[0][1], 1.0 / rows[0][0], rtol=1e-15)

    def test_singleton_grid(self, surge_model):
        model, cal = surge_model
        curve = return_curve(np.array([0.05]), model, cal)
        assert curve.z.shape == (1,)

    def test_empty_grid_rejected(self, surge_model):
        model, cal = surge_model
        with pytest.raises(ValueError, match="grid"):
            return_curve(np.array([]), model, cal)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            ReturnCurve(p=np.array([0.1, 0.2]), z=np.array([1.0]))


def _simulated(truth, seed, n_cycles=8000):
    """(model with the simulator's truth, calendar, series) of one record."""
    spec = SimSpec(params=truth, thresholds=0.3, n_cycles=n_cycles)
    series, params = simulate_series(spec, seed=seed)
    model = SkewSurgeModel(body=build_empirical(series, spec.thresholds),
                           params=params, thresholds=spec.thresholds)
    return model, TideSampleCalendar.from_series(series), series


def _pinned_exi(series):
    """The extremal-index curve the pinned values were computed with: v
    the 0.99 quantile, 30 levels equally spaced in level between the 0.95
    and 0.999 quantiles."""
    x = series.skew_surge
    return fit_exi_curve(series, float(np.quantile(x, 0.99)),
                         np.linspace(*np.quantile(x, (0.95, 0.999)), 30),
                         run_length=4)


# Return levels of the R1/S0 truth below from a plain bisection of
# F(z) < 1 - p run until the bracket was narrower than 1e-12 m. The solver
# must land on these roots, whatever its iteration.
PINNED_LEVELS = {
    1950: [
        6.920471491793672, 6.80338146990913, 6.688550951511903,
        6.575945844904602, 6.465532910019009, 6.357279618303252,
        6.251153941213934, 6.147124035792656, 6.045157782507324,
        5.9452221114688015, 5.84728202544971, 5.751299187454409,
        5.6572298796629905, 5.565022046754738, 5.474610987301327,
        5.385913009131919, 5.29881593233433, 5.213164525358835,
        5.128737386290213, 5.045208438278614,
    ],
    2100: [
        7.095603993342452, 6.975148002494743, 6.857001863207778,
        6.741129613756312, 6.627496070804041, 6.5160666761571395,
        6.406807269457337, 6.29968375437541, 6.194661612136855,
        6.091705196451533, 5.9907767152154925, 5.891834762073332,
        5.794832197485723, 5.699713081024925, 5.606408200699031,
        5.514828485947085, 5.424855138884981, 5.336324483444612,
        5.249003886620287, 5.162551610999854,
    ],
}


def test_return_curves_are_pinned():
    truth = TailParams(
        rate=RateParams(family="R1", lam=0.05, delta=0.2),
        scale=ScaleParams(family="S0", alpha=0.12, beta=0.04, phi=91.25,
                          gamma=0.01),
        xi=0.05,
    )
    model, cal, series = _simulated(truth, seed=5)
    exi_model = _pinned_exi(series)
    grid = np.geomspace(1e-4, 1e-1, 20)
    for year, levels in PINNED_LEVELS.items():
        scenario = Scenario(year_std=float(standardize_year(year)))
        curve = return_curve(grid, model, cal, exi_model, scenario)
        npt.assert_allclose(curve.z, levels, rtol=0, atol=1e-6)


@pytest.fixture(scope="module")
def seasonal_model():
    truth = TailParams(
        rate=RateParams(family="R2", lam=0.05, beta_day=0.03, phi_day=40.0,
                        alpha_tide=0.3, beta_tide=0.2, phi_tide=120.0,
                        delta=[0.3, -0.1, 0.2, 0.0]),
        scale=ScaleParams(family="S2", alpha=0.12, beta=0.04, phi=91.25,
                          gamma=0.01, delta=[0.01, 0.0, -0.02, 0.005]),
        xi=0.05,
    )
    return _simulated(truth, seed=7)


def _reference_exceedance(z, model, cal, exi_model, scenario):
    """(annual exceedance probability, per-cycle F, per-cycle log F) at
    level z from the public body, rate, scale and extremal-index
    functions: the GPD survival S in closed form (0 past a negative
    shape's endpoint), each cycle's theta log1p(-S), or theta log F in
    the body, F there the body's value times 1 - lambda, summed per year
    with ``math.fsum`` and the years' 1 - A taken as -expm1."""
    y = z - cal.tide
    u = model.thresholds.for_month(cal.month)
    below = y <= u
    cdf = np.empty(y.shape)
    log_f = np.empty(y.shape)
    lam = rate_at(model.params.rate, cal.day_of_year, cal.day_of_month,
                  cal.month, cal.tide, year_std=scenario.year_std)
    cdf[below] = (1.0 - lam[below]) * eval_body_cdf(
        model.body, y[below], cal.month[below], cal.tide[below])
    with np.errstate(divide="ignore"):
        log_f[below] = np.log(cdf[below])
    above = ~below
    lam = lam[above]
    record = (cal.day_of_year[above], cal.day_of_month[above],
              cal.month[above], cal.tide[above])
    sigma = scale_at(model.params.scale, record[0], record[3],
                     year_std=scenario.year_std)
    xi = model.params.xi
    excess = (y[above] - u[above]) / sigma
    if xi == 0.0:
        s = lam * np.exp(-excess)
    else:
        inside = xi * excess > -1.0
        s = np.zeros_like(excess)
        s[inside] = lam[inside] * np.exp(
            -np.log1p(xi * excess[inside]) / xi)
    cdf[above] = 1.0 - s
    log_f[above] = np.log1p(-s)
    theta = np.ones_like(y) if exi_model is None else eval_exi(exi_model, y)
    weighted = theta * log_f  # theta > 0: a zero factor stays zero
    years = [-math.expm1(math.fsum(weighted[cal.year_index == k]))
             for k in range(cal.n_years)]
    return math.fsum(years) / cal.n_years, cdf, log_f


def _with_xi(model, xi):
    return SkewSurgeModel(
        body=model.body, thresholds=model.thresholds,
        params=TailParams(rate=model.params.rate, scale=model.params.scale,
                          xi=xi))


def _exi(theta, psi):
    return ExiModel(v=0.45, psi=psi, theta=theta, theta_v=0.6,
                    run_length=4, levels=np.array([0.2, 0.3, 0.4]),
                    runs_theta=np.array([0.4, 0.5, 0.55]))


def test_engine_matches_the_per_cycle_reference(seasonal_model):
    fitted, cal, series = seasonal_model
    # theta > 1 is refused, so the engine has nothing to clip
    with pytest.raises(ValueError, match=r"^theta must lie in \(0, 1\]"):
        _exi(1.3, 0.1)
    exi_models = {
        "fitted-like": _exi(0.9, 0.1),
        # exp(-(z - max tide - v)/psi) overflows below max tide + v
        "tiny psi": _exi(0.9, 1e-6),
        "none": None,
    }
    scenario = Scenario(year_std=0.5)
    u = fitted.thresholds.for_month(cal.month)
    top, top_edge = float(np.max(cal.tide)), float(np.max(cal.tide + u))
    levels = {
        "body only": float(np.min(cal.tide + u)) - 0.05,
        "mixed": float(np.median(cal.tide)) + 0.3,
        "mixed, nonzero": float(np.max(cal.tide)) - 0.2,
        "many body cycles, A > 1e-3": top_edge - 0.05,
        "below max(tide + u)": top_edge - 0.01,
        "above max(tide + u)": top_edge + 0.01,
        "tail only": top_edge + 0.05,
        "below max tide + v": top + 0.45 - 0.01,
        "above max tide + v": top + 0.45 + 0.01,
        "far tail": float(np.max(cal.tide)) + 1.5,
    }
    assert top_edge < top + 0.45  # the levels cross both in turn
    year_starts = np.searchsorted(cal.year_index, np.arange(cal.n_years))
    for xi, exi_name in itertools.product([0.05, 0.0, -0.2], exi_models):
        model, exi_model = _with_xi(fitted, xi), exi_models[exi_name]
        conditional = model.conditional(
            cal.day_of_year, cal.day_of_month, cal.month, cal.tide,
            year_std=scenario.year_std)
        log_cdf = model._evaluator(
            cal.day_of_year, cal.day_of_month, cal.month, cal.tide,
            scenario.year_std, None, level=True)
        exceedance = returns._annual_max(model, cal, exi_model, scenario)
        for name, z in levels.items():
            expected, cycle_cdf, cycle_log_cdf = _reference_exceedance(
                z, model, cal, exi_model, scenario)
            err_msg = f"xi={xi}, {exi_name}, {name}"
            npt.assert_allclose(conditional(z - cal.tide), cycle_cdf,
                                rtol=1e-12, err_msg=err_msg)
            # the engine's log F per year, where body cycles weigh whatever
            # the exceedance (per cycle, a tail S near a negative shape's
            # endpoint carries the affine excess's rounding times 1/|xi|)
            npt.assert_allclose(
                np.add.reduceat(log_cdf(z), year_starts),
                [math.fsum(cycle_log_cdf[cal.year_index == k])
                 for k in range(cal.n_years)], rtol=1e-12, err_msg=err_msg)
            npt.assert_allclose(exceedance(z), expected, rtol=1e-12,
                                err_msg=err_msg)
            assert annual_max_cdf(z, model, cal, exi_model, scenario) \
                == 1.0 - exceedance(z)
    # the levels above cover both branches and mixed years whose product
    # A is far from 0 and 1, so the exceedance weighs each body cycle
    z = levels["many body cycles, A > 1e-3"]
    assert np.sum(z <= cal.tide + u) > 100
    assert 1e-3 < annual_max_cdf(z, fitted, cal, exi_models["fitted-like"],
                                 scenario) < 0.5


def test_annual_exceedance_meets_the_fsum_reference(seasonal_model):
    # log1p(-S) per cycle and -expm1 per year: the exceedance is never
    # formed as 1 - F, so it keeps its relative precision at p = 1e-6.
    model, cal, series = seasonal_model
    exi_model = _pinned_exi(series)
    scenario = Scenario(year_std=0.5)
    exceedance = returns._annual_max(model, cal, exi_model, scenario)
    for p in (1e-2, 1e-4, 1e-6):
        z = return_level(p, model, cal, exi_model, scenario)
        expected, _, _ = _reference_exceedance(z, model, cal, exi_model,
                                               scenario)
        npt.assert_allclose(exceedance(z), expected, rtol=1e-12, err_msg=p)
        npt.assert_allclose(expected, p, rtol=1e-8, err_msg=p)


def test_nonpositive_scale_in_the_tail_is_an_error(sim_r0, surge_model):
    _, params, _ = sim_r0
    model, cal = surge_model
    # sigma = 0.01 - 0.01 * tide is negative for every tide above 1 m
    bad = SkewSurgeModel(
        body=model.body,
        params=TailParams(rate=params.rate,
                          scale=ScaleParams(family="S0", alpha=0.01, beta=0.0,
                                            phi=0.0, gamma=-0.01),
                          xi=params.xi),
        thresholds=model.thresholds,
    )
    u = model.thresholds.for_month(cal.month)
    body_only = float(np.min(cal.tide + u)) - 0.05
    assert annual_max_cdf(body_only, bad, cal) == annual_max_cdf(
        body_only, model, cal)
    with pytest.raises(ValueError, match="sigma must be positive"):
        annual_max_cdf(float(np.max(cal.tide)) + 1.0, bad, cal)
    with pytest.raises(ValueError, match="sigma must be positive"):
        return_level(0.01, bad, cal)


@pytest.mark.parametrize("sigma", [0.0, -0.02])
def test_zero_or_negative_scale_only_matters_in_the_tail(surge_model, sigma):
    model, _ = surge_model
    flat = SkewSurgeModel(
        body=model.body, thresholds=model.thresholds,
        params=TailParams(rate=model.params.rate,
                          scale=ScaleParams(family="S0", alpha=sigma,
                                            beta=0.0, phi=0.0, gamma=0.0),
                          xi=model.params.xi))
    # zero tides, so every cycle sits exactly at y = u_j = 0.3, the
    # highest body-only level, where (y - u_j) / sigma is 0 / 0
    cal = _one_year_calendar(705, tide=0.0)
    at_threshold = 0.3
    assert np.all(model.thresholds.for_month(cal.month) == at_threshold)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert annual_max_cdf(at_threshold, flat, cal) == annual_max_cdf(
            at_threshold, model, cal)
    with pytest.raises(ValueError, match="sigma must be positive"):
        annual_max_cdf(np.nextafter(at_threshold, np.inf), flat, cal)


class TestTideSampleCalendar:
    def test_keeps_complete_years_only(self, sim_r0):
        series, _, _ = sim_r0
        cal = TideSampleCalendar.from_series(series)
        assert set(cal.years) < set(np.unique(series.year))
        counts = np.bincount(cal.year_index)
        assert counts.min() >= 700 and counts.max() <= 712
        # a common year has 365*24*60/745 = 705.5 tidal cycles
        assert abs(counts.mean() - 705.5) < 2.0

    def test_all_years_partial_is_an_error(self):
        series = columns_series(np.full(40, 5), np.linspace(2, 4, 40),
                                np.full(40, 0.1))
        with pytest.raises(ValueError, match="twelve"):
            TideSampleCalendar.from_series(series)

    def test_flat_arrays_align_with_year_index(self, sim_r0):
        series, _, _ = sim_r0
        cal = TideSampleCalendar.from_series(series)
        assert cal.tide.shape == cal.year_index.shape
        assert cal.year_index.max() == cal.n_years - 1
        first_year = cal.years[0]
        sel = cal.year_index == 0
        assert np.all(np.isin(cal.month[sel], np.arange(1, 13)))
        assert np.unique(cal.month[sel]).size == 12
        assert first_year in series.year

    @pytest.mark.parametrize("layout", ["out of order", "missing year",
                                        "starts above 0", "short column"])
    def test_layout_other_than_year_major_is_rejected(self, layout):
        cal = _one_year_calendar(24)
        columns = {
            "years": np.array([2000, 2001, 2002]),
            "month": np.tile(cal.month, 3),
            "day_of_month": np.tile(cal.day_of_month, 3),
            "day_of_year": np.tile(cal.day_of_year, 3),
            "tide": np.tile(cal.tide, 3),
            "year_index": np.repeat(np.arange(3), 24),
        }
        TideSampleCalendar(**columns)  # year-major, every year present
        index = columns["year_index"]
        if layout == "out of order":
            columns["year_index"] = np.tile(np.arange(3), 24)
        elif layout == "missing year":
            columns["year_index"] = np.where(index == 1, 2, index)
        elif layout == "starts above 0":
            columns["year_index"] = np.minimum(index + 1, 2)
        else:
            columns["tide"] = columns["tide"][:-1]
        with pytest.raises(ValueError, match="calendar"):
            TideSampleCalendar(**columns)
