"""Covariate-parameterized GPD tail for threshold-exceeding skew surges.

The tail of the skew-surge distribution above the monthly threshold u_j is

    P(Y > y) = lambda_(d,x) * [1 + xi * (y - u_j) / sigma_(d,x)]_+ ** (-1/xi)

with a single site-level shape xi. The exceedance rate lambda follows a
logit-linear model in a within-month day term, a seasonal harmonic of the
standardized peak tide, and optionally a long-term trend in standardized
year (families R1/R2) or GMT anomaly (R3/R4); even-numbered families give
each season its own trend slope. The scale sigma is a seasonal harmonic
plus a linear peak-tide term, with the analogous optional trends (S1-S4).

Both predictors come from one kernel (:func:`rate_terms`,
:func:`scale_terms` over :func:`seasonal_basis`), which fitting, the
simulator and the CDF share. Below u_j the distribution is 1 - lambda
times the tide-banded empirical body. One evaluator over fixed records
(:meth:`SkewSurgeModel._evaluator`) gives the conditional CDF of a surge,
F = 1 - S (:meth:`SkewSurgeModel.conditional`, the PIT through
:func:`eval_cdf`), and of a sea level, log F = log1p(-S) (with
``level``, the annual-maximum engine).

h(z; xi) = log1p(xi z)/xi is the GPD's one kernel (:func:`_gpd_h`),
which the likelihood and, through its inverse, the simulator share. Its
one rule at xi = 0: h = z where |xi| is below the smallest normal float,
the closed form everywhere else, which stays within 2.5e-16 relative of
the exact value (about one rounding) for every normal shape. The kernel
is two pieces: the factor of z (:func:`_gpd_factor`, xi or 1 under that
rule) and the clamp, log1p and division by xi of the scaled
w = factor z (:func:`_gpd_h_scaled`); the evaluator folds the factor
into its 1/sigma and calls the second piece alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .body import cell_cdf
from .data import SEASONS, season_of_day

RATE_FAMILIES = ("R0", "R1", "R2", "R3", "R4")
SCALE_FAMILIES = ("S0", "S1", "S2", "S3", "S4")

# Families whose trend covariate is the standardized year vs the GMT anomaly;
# even-numbered families carry one slope per season (winter..autumn).
YEAR_FAMILIES = frozenset({"R1", "R2", "S1", "S2"})
GMT_FAMILIES = frozenset({"R3", "R4", "S3", "S4"})
SEASONAL_FAMILIES = frozenset({"R2", "R4", "S2", "S4"})

_TWO_PI_OVER_F = 2.0 * np.pi / 365.0
_W_DAY = _TWO_PI_OVER_F * np.arange(367.0)  # seasonal_basis' days 0..366
_DAY_SIN, _DAY_COS = np.sin(_W_DAY), np.cos(_W_DAY)
_XI_TINY = np.finfo(float).tiny  # the smallest normal float


def logit(p):
    """Log-odds of a probability in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("logit requires 0 < p < 1")
    out = np.log(p / (1.0 - p))
    return out if out.ndim else float(out)


def inv_logit(t):
    """Inverse of :func:`logit`, 1/(1 + exp(-t)): exp(-t) overflows to inf
    below t of about -709, which gives 0."""
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(-np.asarray(t, dtype=float)))
    return out if out.ndim else float(out)


def _trend_names(family, prefix):
    """A family's trend slope names: none (R0/S0), ``prefix`` (R1/R3/S1/S3)
    or ``<prefix>_<season>``, winter first (R2/R4/S2/S4)."""
    if family in SEASONAL_FAMILIES:
        return [f"{prefix}_{s}" for s in SEASONS]
    return [prefix] if family in YEAR_FAMILIES | GMT_FAMILIES else []


# Amplitude -> phase of each harmonic; a pair is fitted through (b1, b2).
_PHASE_OF = {"beta_day": "phi_day", "beta_tide": "phi_tide",
             "beta_sigma": "phi_sigma"}


class _HalfParams:
    """What RateParams and ScaleParams share. Each declares its half of the
    model once: ``_BASE`` maps its base parameter names, in param_names
    order, to the fields that hold them, and its trend slopes are
    :func:`_trend_names` of ``_TREND``."""

    def __post_init__(self):
        n = len(self._names(self.family)) - len(self._BASE)  # checks family
        if self.delta is None:
            return
        if not n or np.shape(self.delta) != ((n,) if n > 1 else ()):
            got = ("a scalar" if np.ndim(self.delta) == 0
                   else f"a list of {np.size(self.delta)}")
            raise ValueError(
                f"family {self.family} takes {n} trend delta value(s)"
                f"{' as a scalar' if n == 1 else ''}, not {got}")
        if n > 1:
            self.delta = np.asarray(self.delta, dtype=float)

    @classmethod
    def _names(cls, family):
        if family not in cls._FAMILIES:
            raise ValueError(f"unknown {cls._KIND} family {family!r}")
        return [*cls._BASE, *_trend_names(family, cls._TREND)]

    def values(self):
        """The parameters as a flat name -> value dict (see param_names)."""
        values = {name: getattr(self, f) for name, f in self._BASE.items()}
        trend = _trend_names(self.family, self._TREND)
        if trend:
            if self.delta is None:
                raise ValueError(f"family {self.family} has no trend delta set")
            delta = self.delta if len(trend) > 1 else [self.delta]
            values.update(zip(trend, map(float, delta)))
        return values

    @classmethod
    def _from_values(cls, family, values, **extra):
        trend = [values[n] for n in _trend_names(family, cls._TREND)]
        delta = trend[0] if len(trend) == 1 else trend or None
        return cls(family=family, delta=delta, **extra,
                   **{f: values[n] for n, f in cls._BASE.items()})

    def to_dict(self):
        """The fields for JSON: arrays as lists, an unset delta left out."""
        d = {f.name: getattr(self, f.name) for f in fields(self)
             if f.name != "delta" or self.delta is not None}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in d.items()}

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class RateParams(_HalfParams):
    """Exceedance-rate model parameters plus the data standardizers.

    ``month_mean_day`` holds the observed mean day-of-month per month
    (the centering constant for the day term); ``tide_mean``/``tide_sd``
    standardize peak tide. ``delta`` is a scalar for R1/R3, a length-4
    seasonal array (winter, spring, summer, autumn) for R2/R4, unused
    for R0.
    """

    family: str = "R0"
    lam: float = 0.05
    beta_day: float = 0.0
    phi_day: float = 0.0
    alpha_tide: float = 0.0
    beta_tide: float = 0.0
    phi_tide: float = 0.0
    tide_mean: float = 0.0
    tide_sd: float = 1.0
    month_mean_day: np.ndarray = field(default_factory=lambda: np.full(12, 15.5))
    delta: float | np.ndarray | None = None

    _KIND, _FAMILIES, _TREND = "rate", RATE_FAMILIES, "delta_rate"
    _BASE = {n: n for n in ("lam", "beta_day", "phi_day", "alpha_tide",
                            "beta_tide", "phi_tide")}

    def __post_init__(self):
        super().__post_init__()
        self.month_mean_day = np.asarray(self.month_mean_day, dtype=float)


@dataclass
class ScaleParams(_HalfParams):
    """GPD scale model parameters (metres). ``delta`` as in RateParams."""

    family: str = "S0"
    alpha: float = 0.1
    beta: float = 0.01
    phi: float = 0.0
    gamma: float = 0.0
    delta: float | np.ndarray | None = None

    _KIND, _FAMILIES, _TREND = "scale", SCALE_FAMILIES, "delta_sigma"
    _BASE = {"alpha_sigma": "alpha", "beta_sigma": "beta", "phi_sigma": "phi",
             "gamma_sigma": "gamma"}


@dataclass
class TailParams:
    """Complete tail specification: rate family, scale family, shared shape."""

    rate: RateParams
    scale: ScaleParams
    xi: float = 0.0

    def to_dict(self):
        return {"rate": self.rate.to_dict(), "scale": self.scale.to_dict(),
                "xi": self.xi}

    @classmethod
    def from_dict(cls, d):
        return cls(
            rate=RateParams.from_dict(d["rate"]),
            scale=ScaleParams.from_dict(d["scale"]),
            xi=d["xi"],
        )


def param_names(rate_family, scale_family):
    """Full ordered parameter-name list for a family pair."""
    return [*RateParams._names(rate_family), *ScaleParams._names(scale_family),
            "xi"]


def params_to_values(tp):
    """Flatten TailParams into one name -> value dict."""
    return {**tp.rate.values(), **tp.scale.values(), "xi": tp.xi}


def values_to_params(values, rate_family, scale_family, std):
    """Assemble TailParams from a flat dict plus the rate standardizers
    ``std`` (anything with tide_mean, tide_sd and month_mean_day)."""
    rate = RateParams._from_values(
        rate_family, values, tide_mean=std.tide_mean, tide_sd=std.tide_sd,
        month_mean_day=np.array(std.month_mean_day, dtype=float))
    scale = ScaleParams._from_values(scale_family, values)
    return TailParams(rate=rate, scale=scale, xi=values["xi"])


# The predictor kernel. The rate logit and the scale are each a sum of
# terms; a term is (parameter names, covariate, columns), and its
# contribution is the covariate times the sum of its linear coefficients
# times its columns. A scalar parameter has the single column 1 and is its
# own coefficient, except the rate intercept, whose coefficient is
# logit(lam). A harmonic beta*sin(w(d - phi)) has the columns sin(wd) and
# cos(wd), with coefficients b1 = beta*cos(w*phi) and b2 = -beta*sin(w*phi).
# Fitting stacks covariate x column into a design matrix; the CDF and the
# simulator sum the terms without stacking one, so the harmonics share the
# two basis columns instead of each holding its own products.


def seasonal_basis(d):
    """(sin wd, cos wd) with w = 2 pi / 365: the columns of every harmonic.

    Integer days 0..366 are gathered from tables of the same expression
    (at most 367 distinct days, so the same bits for a small part of the
    cost); any other input takes the formula.
    """
    d = np.asarray(d)
    if d.dtype.kind in "iu" and d.size and d.min() >= 0 and d.max() < 367:
        return _DAY_SIN[d], _DAY_COS[d]
    w = _TWO_PI_OVER_F * np.asarray(d, dtype=float)
    return np.sin(w), np.cos(w)


def _trend_terms(family, prefix, d, year_std, gmt):
    """One slope on the trend covariate, or one per season (the season of
    day-of-year d)."""
    names = _trend_names(family, prefix)
    if not names:
        return []
    if family in YEAR_FAMILIES:
        cov, cov_name = year_std, "year_std (standardized year)"
    else:
        cov, cov_name = gmt, "gmt (GMT anomaly)"
    if cov is None:
        raise ValueError(f"family {family} needs the {cov_name} covariate")
    cov = np.asarray(cov, dtype=float)
    if len(names) == 1:
        return [((prefix,), cov, [1.0])]
    season = season_of_day(d)
    return [((name,), cov, [season == k]) for k, name in enumerate(names)]


def rate_terms(family, basis, d, d_j, j, x, std, year_std=None, gmt=None):
    """Terms of the rate logit, in param_names order; broadcasts.

    Args:
        family: rate family.
        basis: seasonal_basis(d).
        d: day of year (1..365).
        d_j: day of month (1..31).
        j: month (1..12).
        x: peak tide (metres).
        std: standardizers (tide_mean, tide_sd, month_mean_day).
        year_std, gmt: trend covariates, required by the matching families.
    """
    if std.tide_sd == 0:
        raise ValueError("tide_sd is zero")
    day_dev = (np.asarray(d_j, dtype=float)
               - np.asarray(std.month_mean_day)[np.asarray(j) - 1])
    tide_std = (np.asarray(x, dtype=float) - std.tide_mean) / std.tide_sd
    return [
        (("lam",), 1.0, [1.0]),
        (("beta_day", "phi_day"), day_dev, basis),
        (("alpha_tide",), tide_std, [1.0]),
        (("beta_tide", "phi_tide"), tide_std, basis),
    ] + _trend_terms(family, "delta_rate", d, year_std, gmt)


def scale_terms(family, basis, d, x, year_std=None, gmt=None):
    """Terms of the GPD scale, in param_names order; broadcasts. ``basis``
    is seasonal_basis(d)."""
    return [
        (("alpha_sigma",), 1.0, [1.0]),
        (("beta_sigma", "phi_sigma"), 1.0, basis),
        (("gamma_sigma",), np.asarray(x, dtype=float), [1.0]),
    ] + _trend_terms(family, "delta_sigma", d, year_std, gmt)


def _to_linear(names, values):
    """Linear coefficients of one term from its parameter values."""
    if names[0] == "lam":
        return [logit(values["lam"])]
    if len(names) == 2:
        beta, w = values[names[0]], _TWO_PI_OVER_F * values[names[1]]
        return [beta * math.cos(w), -beta * math.sin(w)]
    return [values[names[0]]]


def _term_values(names, coefs):
    """Parameter values of one term from its linear coefficients."""
    if names[0] == "lam":
        return {"lam": float(inv_logit(coefs[0]))}
    if len(names) == 2:
        w = math.atan2(-coefs[1], coefs[0])
        return {names[0]: math.hypot(coefs[0], coefs[1]),
                names[1]: (w / _TWO_PI_OVER_F) % 365.0}
    return {names[0]: float(coefs[0])}


def _term_jacobian(names, values):
    """d(linear coefficients)/d(parameter values) of one term."""
    if names[0] == "lam":
        return np.array([[1.0 / (values["lam"] * (1.0 - values["lam"]))]])
    if len(names) == 2:
        beta, w = values[names[0]], _TWO_PI_OVER_F * values[names[1]]
        c, s = math.cos(w), math.sin(w)
        return np.array([[c, -beta * _TWO_PI_OVER_F * s],
                         [-s, -beta * _TWO_PI_OVER_F * c]])
    return np.eye(1)


def linear_predictor(terms, values):
    """Sum over the terms of covariate x coefficient x column, the
    coefficients taken from the parameter values."""
    total = 0.0
    for names, cov, cols in terms:
        coefs = _to_linear(names, values)
        inner = coefs[0] * cols[0]
        if len(cols) == 2:
            inner = inner + coefs[1] * cols[1]
        total = total + cov * inner
    return total


def rate_at(rp, d, d_j, j, x, year_std=None, gmt=None):
    """Per-cycle threshold exceedance probability lambda_(d,x); broadcasts
    over arrays. The record arguments are those of :func:`rate_terms`; the
    standardizers are the ones ``rp`` carries."""
    terms = rate_terms(rp.family, seasonal_basis(d), d, d_j, j, x, rp,
                       year_std, gmt)
    return inv_logit(linear_predictor(terms, rp.values()))


def scale_at(sp, d, x, year_std=None, gmt=None):
    """GPD scale sigma_(d,x) in metres; broadcasts over arrays.

    Values are returned as computed; callers that need positivity (the
    likelihood, the simulator) must check, since an optimizer may propose
    parameters that push sigma negative somewhere.
    """
    terms = scale_terms(sp.family, seasonal_basis(d), d, x, year_std, gmt)
    sigma = linear_predictor(terms, sp.values())
    return sigma if np.ndim(sigma) else float(sigma)


def _gpd_factor(xi):
    """The factor of z in h(z; xi): xi, or 1 where |xi| < _XI_TINY, the
    one rule at xi = 0, under which h = z."""
    return 1.0 if abs(xi) < _XI_TINY else xi


def _gpd_h_scaled(w, xi):
    """h(z; xi) in place over w = factor z, the factor from
    :func:`_gpd_factor`: log1p(w)/xi with w clamped at -1, so h is +inf
    beyond a negative shape's endpoint, or w itself under the same rule at
    xi = 0."""
    if abs(xi) < _XI_TINY:
        return w
    np.maximum(w, -1.0, out=w)
    with np.errstate(divide="ignore"):
        np.log1p(w, out=w)
    w /= xi
    return w


def _gpd_h(z, xi):
    """h(z; xi) = log1p(xi z)/xi over an array of scaled excesses z, or z
    where |xi| < _XI_TINY: the GPD's log survival is -h, its negative
    log-density log(sigma) + (1 + xi) h. It is :func:`_gpd_h_scaled` of
    z times :func:`_gpd_factor`; a caller that already scales its excess
    folds the factor into that scale and calls the second piece alone.
    """
    return _gpd_h_scaled(np.multiply(z, _gpd_factor(xi)), xi)


def _gpd_quantile(w, xi, sigma):
    """The inverse of :func:`_gpd_h`: the excess sigma expm1(xi w)/xi whose
    h of excess/sigma is w, or sigma w under the same rule at xi = 0."""
    if abs(xi) < _XI_TINY:
        return sigma * np.asarray(w, dtype=float)
    return sigma * np.expm1(xi * w) / xi


def mean_excess(sigma_eff, xi):
    """Mean excess above the threshold: sigma / (1 - xi); requires xi < 1."""
    if xi >= 1:
        raise ValueError("mean excess undefined for xi >= 1")
    sigma_eff = np.asarray(sigma_eff, dtype=float)
    if np.any(sigma_eff <= 0):
        raise ValueError("sigma must be positive")
    out = sigma_eff / (1.0 - xi)
    return out if out.ndim else float(out)


@dataclass
class SkewSurgeModel:
    """Fitted skew-surge distribution: empirical body + GPD tail + thresholds."""

    body: object  # TideBandedEmpirical
    params: TailParams
    thresholds: object  # MonthlyThresholds

    def __post_init__(self):
        # the body stops at its own u_j and the tail starts at these
        if not np.array_equal(self.body.thresholds, self.thresholds.values):
            raise ValueError("the body was built at other thresholds than "
                             "the model's")

    def _evaluator(self, d, d_j, j, x, year_std, gmt, level):
        """The conditional CDF of fixed records, F(t) or log F(t), behind
        :meth:`conditional` and the annual-maximum engine.

        Built once: lambda, sigma, u_j, each record's edge (u_j for a
        surge t, x + u_j when ``level`` makes t a sea level), a =
        factor/sigma (:func:`_gpd_factor`), and the :func:`cell_cdf` body
        at the first call that searches it. Each call: sigma <= 0 is an
        error exactly where t is above the edge; one pass w = (t - edge) a,
        h = :func:`_gpd_h_scaled` of w, -S = -lambda exp(-h), so S <=
        lambda above the edge and exactly 0 beyond a negative shape's
        endpoint; then F = 1 + (-S) in a new array or, with ``level``,
        log F = log1p(-S) in one kept array. The body times 1 - lambda
        overwrites the records with t <= edge, so F(u_j) = 1 - lambda
        exactly and F does not fall below it above u_j; the body is
        searched only when min(t) <= max(edge), the function's
        ``top_edge``, and the log path then takes their log.
        """
        d, d_j, j, x = np.broadcast_arrays(
            np.asarray(d), np.asarray(d_j), np.asarray(j),
            np.asarray(x, dtype=float))
        rate, scale = self.params.rate, self.params.scale
        basis = seasonal_basis(d)
        lam = inv_logit(linear_predictor(
            rate_terms(rate.family, basis, d, d_j, j, x, rate, year_std, gmt),
            rate.values()))
        sigma = linear_predictor(
            scale_terms(scale.family, basis, d, x, year_std, gmt),
            scale.values())
        del basis  # two record-sized arrays fewer at the build's peak
        body = functools.cache(lambda: cell_cdf(self.body, j, x))
        edge = self.thresholds.for_month(j)
        if level:
            edge = x + edge
        xi = self.params.xi
        with np.errstate(divide="ignore"):
            a = _gpd_factor(xi) / sigma
        below_mass, minus_lam = 1.0 - lam, -lam
        bad = sigma <= 0.0
        bad = bad if bad.any() else None
        top_edge = edge.max()
        kept = np.empty(edge.shape) if level else None

        def evaluate(t):
            if bad is not None and np.any(
                    np.broadcast_to(t, edge.shape)[bad] > edge[bad]):
                raise ValueError("sigma must be positive")
            out = kept if level else np.empty(edge.shape)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                np.subtract(t, edge, out=out)
                np.multiply(out, a, out=out)  # 0 inf where sigma = 0: body
                _gpd_h_scaled(out, xi)
                np.negative(out, out=out)
                np.exp(out, out=out)
                np.multiply(out, minus_lam, out=out)  # -S
                if level:
                    np.log1p(out, out=out)
                else:
                    np.add(out, 1.0, out=out)
                if np.min(t) <= top_edge:
                    below = t <= edge
                    body()(np.broadcast_to(t - x if level else t, edge.shape),
                           out, below)
                    np.multiply(out, below_mass, out=out, where=below)
                    if level:
                        np.log(out, out=out, where=below)
            return out

        evaluate.top_edge = float(top_edge)
        return evaluate

    def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
        """The conditional CDF of fixed records as a function of the surge.

        Returns F with F(y)[i] = P(Y <= y[i] | record i), a new array per
        call; y must broadcast to the records' shape, and the record
        arguments (those of :func:`rate_terms`) to one another.
        """
        return self._evaluator(d, d_j, j, x, year_std, gmt, level=False)


def eval_cdf(y, d, d_j, j, x, *, body, params, thresholds, year_std=None, gmt=None):
    """Full skew-surge CDF: (1 - lambda) times the empirical body for
    y <= u_j, the GPD tail 1 - lambda S above, so F(u_j) = 1 - lambda.

    All record arguments broadcast with y. This is
    ``SkewSurgeModel.conditional(d, d_j, j, x, year_std, gmt)(y)``, the
    code path the return engine evaluates too.
    """
    y, d, d_j, j, x = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(d), np.asarray(d_j),
        np.asarray(j), np.asarray(x, dtype=float))
    model = SkewSurgeModel(body=body, params=params, thresholds=thresholds)
    out = model.conditional(d, d_j, j, x, year_std, gmt)(y)
    return out if np.ndim(out) else float(out)


def delta_lambda(rp, d, d_j, j, x, covariate, a, b):
    """Change in exceedance probability when the trend covariate moves a -> b.

    ``covariate`` is "year_std" (families R1/R2) or "gmt" (R3/R4); the
    result broadcasts over the record arguments.
    """
    trends = {"year_std": (YEAR_FAMILIES, "year"), "gmt": (GMT_FAMILIES, "GMT")}
    if covariate not in trends:
        raise ValueError(f"unknown covariate {covariate!r}")
    families, what = trends[covariate]
    if rp.family not in families:
        raise ValueError(f"family {rp.family} has no {what} trend")
    return (rate_at(rp, d, d_j, j, x, **{covariate: b})
            - rate_at(rp, d, d_j, j, x, **{covariate: a}))
