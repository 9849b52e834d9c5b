"""Annual-maximum distribution, return levels and tide calendars."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from skewsurge import SimSpec, simulate_series
from skewsurge.body import build_empirical, eval_body_cdf
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
    gpd_tail_prob,
    rate_at,
    scale_at,
)

from conftest import columns_series


class _ConstCdf:
    """Stand-in model whose conditional CDF ignores every covariate."""

    def __init__(self, value):
        self.value = value

    def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
        return lambda y: np.full(np.shape(y), self.value, dtype=float)


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
        got = annual_max_cdf(5.0, _ConstCdf(0.999), cal)
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
        a = annual_max_cdf(5.0, _ConstCdf(0.999), cal1)
        b = annual_max_cdf(5.0, _ConstCdf(0.999), calk)
        npt.assert_allclose(a, b, rtol=1e-14)

    def test_one_dead_cycle_kills_its_year(self):
        cal = _one_year_calendar(100)

        class _OneZero(_ConstCdf):
            def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
                def cdf(y):
                    out = np.full(np.shape(y), self.value, dtype=float)
                    out[0] = 0.0
                    return out
                return cdf

        assert annual_max_cdf(5.0, _OneZero(0.999), cal) == 0.0

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
    """Wraps a model and counts the evaluations of its conditional CDF."""

    def __init__(self, model):
        self.model, self.evals = model, 0

    def conditional(self, *args, **kwargs):
        cdf = self.model.conditional(*args, **kwargs)

        def counted(y):
            self.evals += 1
            return cdf(y)
        return counted


class _StepCdf:
    """Stand-in whose conditional CDF jumps from ``below`` to ``above`` at
    surge ``jump``."""

    def __init__(self, jump, below, above):
        self.jump, self.below, self.above = jump, below, above

    def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
        return lambda y: np.where(np.asarray(y) < self.jump, self.below,
                                  self.above)


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
        counted = _Counted(model)
        grid = np.geomspace(1e-4, 1e-1, 20)
        curve = return_curve(grid, counted, cal)
        npt.assert_array_equal(curve.z, return_curve(grid, model, cal).z)
        assert counted.evals <= 8 * grid.size, counted.evals

    def test_curve_averages_at_most_five_evaluations_per_level(self,
                                                               surge_model):
        # Anderson-Bjorck scaling of a kept end's h: Illinois' halving
        # spends about one more evaluation per level on this curve.
        model, cal = surge_model
        counted = _Counted(model)
        grid = np.geomspace(1e-4, 1e-1, 20)
        return_curve(grid, counted, cal)
        assert counted.evals <= 5 * grid.size, counted.evals

    @pytest.mark.parametrize("below,above", [(0.999, 0.99999), (0.999, 1.0)])
    def test_step_function_returns_the_jump(self, below, above):
        # F jumps at surge 0.8, so at z = 3.8 m over a constant 3 m tide;
        # 1 - p lies inside the jump and the solver can only narrow the
        # bracket around it until the iteration cap.
        cal = _one_year_calendar(705, tide=3.0)
        model = _StepCdf(0.8, below, above)
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
    exi_model = fit_exi_curve(series, run_length=4)
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


def _reference_annual_max_cdf(z, model, cal, exi_model, scenario):
    """Per-cycle factors from the public body, tail and extremal-index
    functions, multiplied out year by year."""
    y = z - cal.tide
    u = model.thresholds.for_month(cal.month)
    below = y <= u
    cdf = np.empty(y.shape)
    cdf[below] = eval_body_cdf(model.body, y[below], cal.month[below],
                               cal.tide[below])
    above = ~below
    record = (cal.day_of_year[above], cal.day_of_month[above],
              cal.month[above], cal.tide[above])
    lam = rate_at(model.params.rate, *record, year_std=scenario.year_std)
    sigma = scale_at(model.params.scale, record[0], record[3],
                     year_std=scenario.year_std)
    cdf[above] = 1.0 - gpd_tail_prob(y[above], u[above], lam, sigma,
                                     model.params.xi)
    theta = eval_exi(exi_model, y)
    factor = np.zeros_like(cdf)  # cdf ** theta; zero stays zero
    pos = cdf > 0.0
    factor[pos] = cdf[pos] ** theta[pos]
    years = [np.prod(factor[cal.year_index == k]) for k in range(cal.n_years)]
    return np.mean(years), cdf


def test_engine_matches_the_per_cycle_reference(seasonal_model):
    model, cal, series = seasonal_model
    exi_model = ExiModel(v=0.45, psi=0.1, theta=0.9, theta_v=0.6,
                         run_length=4, levels=np.array([0.2, 0.3, 0.4]),
                         runs_theta=np.array([0.4, 0.5, 0.55]))
    scenario = Scenario(year_std=0.5)
    conditional = model.conditional(
        cal.day_of_year, cal.day_of_month, cal.month, cal.tide,
        year_std=scenario.year_std)
    u = model.thresholds.for_month(cal.month)
    levels = {
        "body only": float(np.min(cal.tide + u)) - 0.05,
        "mixed": float(np.median(cal.tide)) + 0.3,
        "mixed, nonzero": float(np.max(cal.tide)) - 0.2,
        "tail only": float(np.max(cal.tide + u)) + 0.05,
        "far tail": float(np.max(cal.tide)) + 1.5,
    }
    for name, z in levels.items():
        expected, cycle_cdf = _reference_annual_max_cdf(z, model, cal,
                                                        exi_model, scenario)
        npt.assert_allclose(conditional(z - cal.tide), cycle_cdf,
                            rtol=1e-12, err_msg=name)
        got = annual_max_cdf(z, model, cal, exi_model, scenario)
        npt.assert_allclose(got, expected, rtol=1e-12, err_msg=name)
    # the levels above cover both branches and a nonzero mixed year
    assert 0.0 < annual_max_cdf(levels["mixed, nonzero"], model, cal,
                                exi_model, scenario) < 1.0


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


class TestTideSampleCalendar:
    def test_keeps_complete_years_only(self, sim_r0):
        series, _, _ = sim_r0
        cal = TideSampleCalendar.from_series(series)
        assert set(cal.years) < set(np.unique(series.year))
        counts = cal.cycles_per_year()
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
