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

DEFAULT_GRID_SIZE = 30
DEFAULT_GRID_QUANTILES = (0.95, 0.999)
DEFAULT_V_QUANTILE = 0.99
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
        return cls(
            v=d["v"], psi=d["psi"], theta=d["theta"], theta_v=d["theta_v"],
            run_length=d["run_length"],
            levels=np.asarray(d["levels"], dtype=float),
            runs_theta=np.asarray(d["runs_theta"], dtype=float),
        )


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


def fit_exi_curve(series, v=None, run_length=4, levels=None):
    """Fit the extremal-index model to a time-ordered skew-surge series.

    ``series`` is a SiteSeries or a plain value array (already in time
    order). ``v`` defaults to the 0.99 sample quantile; the grid defaults
    to 30 equally spaced quantile levels between the 0.95 and 0.999 sample
    quantiles. Grid levels without exceedances are dropped; at least 3
    usable levels above v are required.
    """
    values = np.asarray(getattr(series, "skew_surge", series), dtype=float)
    if v is None:
        v = float(np.quantile(values, DEFAULT_V_QUANTILE))
    if v >= values.max():
        raise ValueError("v must lie below the maximum observation")
    if levels is None:
        lo, hi = np.quantile(values, DEFAULT_GRID_QUANTILES)
        levels = np.linspace(lo, hi, DEFAULT_GRID_SIZE)
    levels = np.sort(np.asarray(levels, dtype=float))
    usable, estimates = [], []
    for lev in levels:
        if (values > lev).any():
            usable.append(lev)
            estimates.append(runs_estimate(values, lev, run_length))
    usable = np.asarray(usable)
    estimates = np.asarray(estimates)
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
    """theta(y, r) of a fitted model as a function of y: empirical
    interpolation below v, the fitted curve above.

    The interpolation table is built once; each call evaluates each branch
    only where it applies. Output clipped to [0, 1]; broadcasts over y.
    """
    below_v = model.levels < model.v
    xp = np.append(model.levels[below_v], model.v)
    fp = np.append(model.runs_theta[below_v], model.theta_v)

    def theta(y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape)
        low = y <= model.v
        out[low] = np.interp(y[low], xp, fp)
        high = ~low
        out[high] = model.theta - (model.theta - model.theta_v) * np.exp(
            -(y[high] - model.v) / model.psi)
        return np.clip(out, 0.0, 1.0, out=out)

    return theta


def eval_exi(model, y, run_length=None):
    """theta(y, r): empirical interpolation below v, fitted curve above.

    The two branches agree at v by construction. Output clipped to [0, 1];
    broadcasts over y.
    """
    if run_length is not None and run_length != model.run_length:
        raise ValueError(
            f"model was fitted for run length {model.run_length}, got {run_length}"
        )
    out = exi_curve(model)(y)
    return out if out.ndim else float(out)
