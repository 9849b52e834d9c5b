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
simulator and the CDF share. Below u_j the distribution is the
tide-banded empirical body. :meth:`SkewSurgeModel.conditional` freezes a
set of records (day of year, day of month, month, peak tide, trend
covariates) and returns their conditional CDF as a function of the surge
alone: u_j, lambda, sigma and the body cells are built once (shared with
:meth:`SkewSurgeModel._level_log_cdf`, the engine's log CDF at one sea
level), and each evaluation is a GPD tail pass, the survival
lambda * exp(-h(z; xi)) of the scaled excess z in place over one array,
plus a body search only where some record is at or below its threshold.
:func:`eval_cdf` (used by the PIT) builds and applies it once.

h(z; xi) = log1p(xi z)/xi is the GPD's one kernel (:func:`_gpd_h`),
which the likelihood and, through its inverse, the simulator share. Its
one rule at xi = 0: h = z where |xi| is below the smallest normal float,
the closed form everywhere else, which stays within 2.5e-16 relative of
the exact value (about one rounding) for every normal shape. The kernel
is two pieces: the factor of z (:func:`_gpd_factor`, xi or 1 under that
rule) and the clamp, log1p and division by xi of the scaled
w = factor z (:func:`_gpd_h_scaled`); the annual-maximum engine folds
the factor into its affine excess and calls the second piece alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
_XI_TINY = np.finfo(float).tiny  # the smallest normal float


def logit(p):
    """Log-odds of a probability in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("logit requires 0 < p < 1")
    out = np.log(p / (1.0 - p))
    return out if out.ndim else float(out)


def inv_logit(t):
    """Inverse of :func:`logit`, numerically stable for large |t|."""
    t = np.asarray(t, dtype=float)
    # np.where evaluates both branches; the off-branch may overflow harmlessly.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(
            t >= 0, 1.0 / (1.0 + np.exp(-t)), np.exp(t) / (1.0 + np.exp(t))
        )
    return out if out.ndim else float(out)


@dataclass
class RateParams:
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

    def __post_init__(self):
        if self.family not in RATE_FAMILIES:
            raise ValueError(f"unknown rate family {self.family!r}")
        self.month_mean_day = np.asarray(self.month_mean_day, dtype=float)
        if self.family in SEASONAL_FAMILIES and self.delta is not None:
            self.delta = np.asarray(self.delta, dtype=float)

    def to_dict(self):
        d = {
            "family": self.family,
            "lam": self.lam,
            "beta_day": self.beta_day,
            "phi_day": self.phi_day,
            "alpha_tide": self.alpha_tide,
            "beta_tide": self.beta_tide,
            "phi_tide": self.phi_tide,
            "tide_mean": self.tide_mean,
            "tide_sd": self.tide_sd,
            "month_mean_day": self.month_mean_day.tolist(),
        }
        if self.delta is not None:
            d["delta"] = (
                self.delta.tolist() if isinstance(self.delta, np.ndarray)
                else self.delta
            )
        return d

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "month_mean_day" in d:
            d["month_mean_day"] = np.asarray(d["month_mean_day"], dtype=float)
        return cls(**d)


@dataclass
class ScaleParams:
    """GPD scale model parameters (metres). ``delta`` as in RateParams."""

    family: str = "S0"
    alpha: float = 0.1
    beta: float = 0.01
    phi: float = 0.0
    gamma: float = 0.0
    delta: float | np.ndarray | None = None

    def __post_init__(self):
        if self.family not in SCALE_FAMILIES:
            raise ValueError(f"unknown scale family {self.family!r}")
        if self.family in SEASONAL_FAMILIES and self.delta is not None:
            self.delta = np.asarray(self.delta, dtype=float)

    def to_dict(self):
        d = {
            "family": self.family,
            "alpha": self.alpha,
            "beta": self.beta,
            "phi": self.phi,
            "gamma": self.gamma,
        }
        if self.delta is not None:
            d["delta"] = (
                self.delta.tolist() if isinstance(self.delta, np.ndarray)
                else self.delta
            )
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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


def _trend_values(family, prefix, delta):
    if family in ("R0", "S0"):
        return {}
    if delta is None:
        raise ValueError(f"family {family} has no trend delta set")
    if family in SEASONAL_FAMILIES:
        return {f"{prefix}_{s}": float(v) for s, v in zip(SEASONS, delta)}
    return {prefix: float(delta)}


def rate_values(rp):
    """The rate parameters as a flat name -> value dict (see param_names)."""
    return {"lam": rp.lam, "beta_day": rp.beta_day, "phi_day": rp.phi_day,
            "alpha_tide": rp.alpha_tide, "beta_tide": rp.beta_tide,
            "phi_tide": rp.phi_tide,
            **_trend_values(rp.family, "delta_rate", rp.delta)}


def scale_values(sp):
    """The scale parameters as a flat name -> value dict."""
    return {"alpha_sigma": sp.alpha, "beta_sigma": sp.beta,
            "phi_sigma": sp.phi, "gamma_sigma": sp.gamma,
            **_trend_values(sp.family, "delta_sigma", sp.delta)}


def params_to_values(tp):
    """Flatten TailParams into one name -> value dict."""
    return {**rate_values(tp.rate), **scale_values(tp.scale), "xi": tp.xi}


def _trend_delta(values, family, prefix):
    if family in ("R0", "S0"):
        return None
    if family in SEASONAL_FAMILIES:
        return np.array([values[f"{prefix}_{s}"] for s in SEASONS])
    return values[prefix]


def values_to_params(values, rate_family, scale_family, std):
    """Assemble TailParams from a flat dict plus the rate standardizers
    ``std`` (anything with tide_mean, tide_sd and month_mean_day)."""
    rate = RateParams(
        family=rate_family,
        lam=values["lam"],
        beta_day=values["beta_day"],
        phi_day=values["phi_day"],
        alpha_tide=values["alpha_tide"],
        beta_tide=values["beta_tide"],
        phi_tide=values["phi_tide"],
        tide_mean=std.tide_mean,
        tide_sd=std.tide_sd,
        month_mean_day=np.array(std.month_mean_day, dtype=float),
        delta=_trend_delta(values, rate_family, "delta_rate"),
    )
    scale = ScaleParams(
        family=scale_family,
        alpha=values["alpha_sigma"],
        beta=values["beta_sigma"],
        phi=values["phi_sigma"],
        gamma=values["gamma_sigma"],
        delta=_trend_delta(values, scale_family, "delta_sigma"),
    )
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
    """(sin wd, cos wd) with w = 2 pi / 365: the columns of every harmonic."""
    w = _TWO_PI_OVER_F * np.asarray(d, dtype=float)
    return np.sin(w), np.cos(w)


def _trend_terms(family, prefix, d, year_std, gmt):
    """One slope on the trend covariate, or one per season (the season of
    day-of-year d)."""
    if family in ("R0", "S0"):
        return []
    if family in YEAR_FAMILIES:
        cov, cov_name = year_std, "year_std (standardized year)"
    else:
        cov, cov_name = gmt, "gmt (GMT anomaly)"
    if cov is None:
        raise ValueError(f"family {family} needs the {cov_name} covariate")
    cov = np.asarray(cov, dtype=float)
    if family in SEASONAL_FAMILIES:
        season = season_of_day(d)
        return [((f"{prefix}_{s}",), cov, [season == k])
                for k, s in enumerate(SEASONS)]
    return [((prefix,), cov, [1.0])]


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


def rate_logit(rp, d, d_j, j, x, year_std=None, gmt=None):
    """Logit of the per-cycle exceedance probability; broadcasts over arrays.

    The record arguments are those of :func:`rate_terms`; the standardizers
    are the ones ``rp`` carries.
    """
    terms = rate_terms(rp.family, seasonal_basis(d), d, d_j, j, x, rp,
                       year_std, gmt)
    g = linear_predictor(terms, rate_values(rp))
    return g if np.ndim(g) else float(g)


def rate_at(rp, d, d_j, j, x, year_std=None, gmt=None):
    """Per-cycle threshold exceedance probability lambda_(d,x)."""
    return inv_logit(rate_logit(rp, d, d_j, j, x, year_std, gmt))


def scale_at(sp, d, x, year_std=None, gmt=None):
    """GPD scale sigma_(d,x) in metres; broadcasts over arrays.

    Values are returned as computed; callers that need positivity (the
    likelihood, the simulator) must check, since an optimizer may propose
    parameters that push sigma negative somewhere.
    """
    terms = scale_terms(sp.family, seasonal_basis(d), d, x, year_std, gmt)
    sigma = linear_predictor(terms, scale_values(sp))
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


def _gpd_h(z, xi, out=None):
    """h(z; xi) = log1p(xi z)/xi over an array of scaled excesses z, or z
    where |xi| < _XI_TINY: the GPD's log survival is -h, its negative
    log-density log(sigma) + (1 + xi) h. It is :func:`_gpd_h_scaled` of
    z times :func:`_gpd_factor`; a caller that already scales z affinely
    folds the factor into its coefficients and calls the second piece
    alone. ``out`` may be z itself.
    """
    return _gpd_h_scaled(np.multiply(z, _gpd_factor(xi), out=out), xi)


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

    def _records(self, d, d_j, j, x, year_std=None, gmt=None):
        """(u_j, lambda, sigma, :func:`cell_cdf` body) of fixed records in
        their broadcast shape, from one seasonal basis: all that
        :meth:`conditional` and :meth:`_level_log_cdf` need but y."""
        d, d_j, j, x = np.broadcast_arrays(
            np.asarray(d), np.asarray(d_j), np.asarray(j),
            np.asarray(x, dtype=float))
        rate, scale = self.params.rate, self.params.scale
        basis = seasonal_basis(d)
        lam = inv_logit(linear_predictor(
            rate_terms(rate.family, basis, d, d_j, j, x, rate, year_std, gmt),
            rate_values(rate)))
        sigma = linear_predictor(
            scale_terms(scale.family, basis, d, x, year_std, gmt),
            scale_values(scale))
        return self.thresholds.for_month(j), lam, sigma, cell_cdf(self.body, j, x)

    def _level_log_cdf(self, d, d_j, j, x, year_std=None, gmt=None):
        """z -> log F(z - x) of fixed records, x their peak tides, at one
        sea level z, in one kept array: h = :func:`_gpd_h_scaled` of the
        affine w = a z + c, whose a = factor/sigma and c = -factor (x +
        u_j)/sigma fold the kernel's :func:`_gpd_factor` into the scaled
        excess, log F = log1p(-exp(log lambda - h)), never 1 - S, and the
        body's log F where z <= x + u_j. sigma <= 0 is an error only where
        z is above x + u_j. The function's ``top_edge`` is max(x + u_j),
        above which every record is in the tail."""
        u, lam, sigma, body = self._records(d, d_j, j, x, year_std, gmt)
        x = np.broadcast_to(np.asarray(x, dtype=float), u.shape)
        edge = x + u
        xi = self.params.xi
        factor = _gpd_factor(xi)
        with np.errstate(divide="ignore", invalid="ignore"):
            a, c, log_lam = factor / sigma, -factor * edge / sigma, np.log(lam)
        top_edge, bad_edge = edge.max(), edge[sigma <= 0.0].min(initial=np.inf)
        out = np.empty(u.shape)

        def log_cdf(z):
            if z > bad_edge:
                raise ValueError("sigma must be positive")
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                np.multiply(a, z, out=out)
                np.add(out, c, out=out)  # inf - inf where sigma = 0: body
                _gpd_h_scaled(out, xi)
                np.subtract(log_lam, out, out=out)
                np.exp(out, out=out)
                np.negative(out, out=out)
                np.log1p(out, out=out)
                if z <= top_edge:
                    below = z <= edge
                    body(z - x, out, below)
                    np.log(out, out=out, where=below)
            return out

        log_cdf.top_edge = float(top_edge)
        return log_cdf

    def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
        """The conditional CDF of fixed records as a function of the surge.

        Returns F with F(y)[i] = P(Y <= y[i] | record i); y must broadcast
        to the records' shape. The record arguments are those of
        :func:`rate_terms` and broadcast together. Everything that does not
        depend on y is built here once (:meth:`_records`, then 1/sigma and
        the records with sigma <= 0). Each call then fills one new array
        in place for every record: z = (y - u_j)/sigma, the tail survival
        S = exp(log lambda - h(z; xi)), exactly 0 beyond the endpoint, then
        F = 1 - S. The empirical body overwrites the records at or
        below their threshold, searched for those records alone. A
        record with sigma <= 0 is an error only where y is above u_j.
        """
        u, lam, sigma, body = self._records(d, d_j, j, x, year_std, gmt)
        with np.errstate(divide="ignore"):
            log_lam, inv_sigma = np.log(lam), 1.0 / sigma
        bad_sigma = sigma <= 0.0
        any_bad_sigma = bool(np.any(bad_sigma))

        def cdf(y):
            y = np.broadcast_to(np.asarray(y, dtype=float), u.shape)
            above = y > u
            if any_bad_sigma and np.any(bad_sigma & above):
                raise ValueError("sigma must be positive")
            out = np.subtract(y, u, out=np.empty(u.shape))
            with np.errstate(invalid="ignore", over="ignore"):
                out *= inv_sigma  # 0 * inf where sigma = 0 at y = u: body
                _gpd_h(out, self.params.xi, out=out)
                np.subtract(log_lam, out, out=out)
                np.exp(out, out=out)  # S
            np.subtract(1.0, out, out=out)
            if not above.all():
                body(y, out, ~above)
            return out

        return cdf


def eval_cdf(y, d, d_j, j, x, *, body, params, thresholds, year_std=None, gmt=None):
    """Full skew-surge CDF: empirical body for y <= u_j, GPD tail above.

    All record arguments broadcast with y. This is
    ``SkewSurgeModel.conditional(d, d_j, j, x, year_std, gmt)(y)``, the
    code path the return engine evaluates too. The two branches are
    evaluated as-is and do not meet at u_j: the body's mass below u_j is
    set per (month, tide band), the tail's 1 - lambda per cycle. So F is
    not a CDF wherever the two differ: on a simulated 35,000-cycle R1/S0
    site, with the true parameters, F drops as it crosses u_j in about
    half of the cycles, by up to 0.017.
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
    if covariate == "year_std":
        if rp.family not in ("R1", "R2"):
            raise ValueError(f"family {rp.family} has no year trend")
        hi = rate_at(rp, d, d_j, j, x, year_std=b)
        lo = rate_at(rp, d, d_j, j, x, year_std=a)
    elif covariate == "gmt":
        if rp.family not in ("R3", "R4"):
            raise ValueError(f"family {rp.family} has no GMT trend")
        hi = rate_at(rp, d, d_j, j, x, gmt=b)
        lo = rate_at(rp, d, d_j, j, x, gmt=a)
    else:
        raise ValueError(f"unknown covariate {covariate!r}")
    return hi - lo
