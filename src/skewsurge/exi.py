"""Extremal index of the skew-surge series: runs estimates and a level curve.

Exceedances of a high level arrive in clusters (a storm spanning several
tidal cycles); the extremal index theta is the reciprocal mean cluster
size, estimated by runs declustering. Above a high anchor level v the
index is smoothed by an exponential-in-level curve

    theta(y, r) = theta - (theta - theta_v) * exp(-(y - v) / psi)

fitted by least squares to the runs estimates on a quantile grid; below v
the runs estimates are interpolated directly. For a fixed psi the curve is
linear in theta, so the fit is by variable projection (Golub & Pereyra
1973): theta in closed form for each psi, psi by a 1-D search on the
profiled sum of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_PSI_RANGE = (-12.0, 8.0)  # searched around log of the level span
LOG_PSI_TOL = 1e-10


def runs_estimate(values, level, run_length):
    """Runs estimate of the extremal index at one level.

    Clusters are maximal groups of exceedances separated by at least
    ``run_length`` consecutive non-exceedances; the estimate is the number
    of clusters divided by the number of exceedances.
    """
    if run_length < 1:
        raise ValueError("run_length must be >= 1")
    values = np.asarray(values, dtype=float)
    idx = np.flatnonzero(values > level)
    if idx.size == 0:
        raise ValueError(f"no exceedances of level {level}")
    gaps = np.diff(idx) - 1
    n_clusters = 1 + int(np.count_nonzero(gaps >= run_length))
    return n_clusters / idx.size


@dataclass
class ExiModel:
    """Fitted extremal-index curve with its empirical backing grid."""

    v: float
    psi: float
    theta: float
    theta_v: float
    run_length: int
    levels: np.ndarray  # grid levels, ascending
    runs_theta: np.ndarray  # runs estimates at the grid levels

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=float)
        self.runs_theta = np.asarray(self.runs_theta, dtype=float)
        for name in ("theta", "theta_v"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], not "
                                 f"{getattr(self, name)}")
        if not ((self.runs_theta > 0.0) & (self.runs_theta <= 1.0)).all():
            raise ValueError("runs estimates must lie in (0, 1]")
        if not (np.diff(self.levels) >= 0.0).all():
            raise ValueError("levels must be ascending")
        if not 0.0 < self.psi < math.inf:
            raise ValueError(
                f"psi must be positive and finite, not {self.psi}")
        if self.levels.shape != self.runs_theta.shape:
            raise ValueError("levels and runs estimates must have equal "
                             "lengths")

    def to_dict(self):
        return {
            "v": self.v,
            "psi": self.psi,
            "theta": self.theta,
            "theta_v": self.theta_v,
            "run_length": self.run_length,
            "levels": self.levels.tolist(),
            "runs_theta": self.runs_theta.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def fit_exi_to_estimates(levels, estimates, v, theta_v):
    """Least-squares (theta, psi) for the exponential curve above v.

    ``levels``/``estimates`` are the grid points strictly above v with
    their runs estimates. theta is constrained to [theta_v, 1], psi > 0.
    Variable projection: with e = exp(-(levels - v) / psi) the residuals
    are theta * (1 - e) - (estimates - theta_v * e), so the best theta for
    a psi is a 1-D linear least-squares solution clipped to its bounds.
    The profiled sum of squares is minimised over log psi on an 81-point
    grid around the level span, refined by 9-point grids between the best
    point's neighbours. Where theta sits at theta_v the curve is flat and
    psi is arbitrary.
    """
    levels = np.asarray(levels, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if levels.size < 3:
        raise ValueError("need at least 3 grid levels above v")
    if 1.0 - theta_v < 1e-12:
        # The lower bound already pins theta at 1; the curve is identically 1
        # and psi is unidentifiable.
        return 1.0, 1.0
    excess = levels - v

    def profile(log_psi):
        """(sum of squares, theta) at each log psi, theta at its best."""
        e = np.exp(-excess / np.exp(log_psi)[..., None])
        a, b = 1.0 - e, estimates - theta_v * e
        theta = np.clip((a * b).sum(-1) / (a * a).sum(-1), theta_v, 1.0)
        r = theta[..., None] * a - b
        return (r * r).sum(-1), theta

    log_span = math.log(max(float(excess.max()), 1e-3))
    lo, hi = log_span + LOG_PSI_RANGE[0], log_span + LOG_PSI_RANGE[1]
    n = 81
    while hi - lo > LOG_PSI_TOL:
        grid = np.linspace(lo, hi, n)
        k = int(np.argmin(profile(grid)[0]))
        lo, hi, n = grid[max(k - 1, 0)], grid[min(k + 1, n - 1)], 9
    log_psi = 0.5 * (lo + hi)
    return float(profile(np.array(log_psi))[1]), math.exp(log_psi)


def fit_exi_curve(series, v, levels, run_length=4):
    """Fit the extremal-index model to a time-ordered skew-surge series.

    ``series`` is a SiteSeries, in time order by construction, or a plain
    value array, whose order is the caller's: runs declustering counts
    runs of consecutive cycles. ``v`` is the anchor level and ``levels``
    the grid. Grid levels without exceedances are dropped; at least 3
    usable levels above v are required. A plain array with a NaN or ±inf
    value is refused (a SiteSeries holds none).
    """
    values = np.asarray(getattr(series, "skew_surge", series), dtype=float)
    if not hasattr(series, "skew_surge") and not np.isfinite(values).all():
        raise ValueError("values must be finite")
    top = values.max()
    if v >= top:
        raise ValueError("v must lie below the maximum observation")
    levels = np.sort(np.asarray(levels, dtype=float))
    usable = levels[levels < top]
    estimates = np.array([runs_estimate(values, lev, run_length)
                          for lev in usable])
    above = usable > v
    if above.sum() < 3:
        raise ValueError("fewer than 3 usable grid levels above v")
    theta_v = runs_estimate(values, v, run_length)
    theta, psi = fit_exi_to_estimates(usable[above], estimates[above], v, theta_v)
    return ExiModel(
        v=float(v), psi=psi, theta=theta, theta_v=theta_v,
        run_length=run_length, levels=usable, runs_theta=estimates,
    )


def exi_curve(model):
    """theta(y, r) of a fitted model as a function of y: the fitted curve
    at max(y, v), so that the exponential cannot overflow, overwritten by
    interpolation in a table built once where y <= v. Both lie between
    values that ExiModel keeps in (0, 1]; broadcasts over y.
    """
    below_v = model.levels < model.v
    xp = np.append(model.levels[below_v], model.v)
    fp = np.append(model.runs_theta[below_v], model.theta_v)

    def theta(y):
        y = np.asarray(y, dtype=float)
        out = np.asarray(model.theta - (model.theta - model.theta_v) * np.exp(
            (np.maximum(y, model.v) - model.v) / -model.psi))
        low = y <= model.v
        if low.any():
            out[low] = np.interp(y[low], xp, fp)
        return out

    return theta


def exi_at_level(model, tide):
    """z -> theta(z - tide) of fixed peak tides. Where z - v >= max tide it
    is theta - exp(-(z - max tide - v)/psi) k, k = (theta - theta_v)
    exp((tide - max tide)/psi): one scalar exp and a multiply-add into one
    kept array. Lower levels take :func:`exi_curve`."""
    curve = exi_curve(model)
    top = float(np.max(tide))
    k = (model.theta - model.theta_v) * np.exp((tide - top) / model.psi)
    out = np.empty(k.shape)

    def theta(z):
        if z - model.v < top:
            return curve(z - tide)
        np.multiply(k, -math.exp(-(z - top - model.v) / model.psi), out=out)
        return np.add(out, model.theta, out=out)

    return theta


def eval_exi(model, y):
    """theta(y): empirical interpolation below v, fitted curve above.

    The two branches agree at v by construction. Output in (0, 1];
    broadcasts over y.
    """
    out = exi_curve(model)(y)
    return out if out.ndim else float(out)
