"""Extremal index of the skew-surge series: runs estimates and a level curve.

Exceedances of a high level arrive in clusters (a storm spanning several
tidal cycles); the extremal index theta is the reciprocal mean cluster
size, estimated by runs declustering. Above a high anchor level v the
index is smoothed by an exponential-in-level curve

    theta(y, r) = theta - (theta - theta_v) * exp(-(y - v) / psi)

fitted by least squares to the runs estimates on a quantile grid; below v
the runs estimates are interpolated directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

DEFAULT_GRID_SIZE = 30
DEFAULT_GRID_QUANTILES = (0.95, 0.999)
DEFAULT_V_QUANTILE = 0.99


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
    """
    levels = np.asarray(levels, dtype=float)
    estimates = np.asarray(estimates, dtype=float)
    if levels.size < 3:
        raise ValueError("need at least 3 grid levels above v")
    if 1.0 - theta_v < 1e-12:
        # The lower bound already pins theta at 1; the curve is identically 1
        # and psi is unidentifiable.
        return 1.0, 1.0

    def resid(p):
        theta, psi = p
        return theta - (theta - theta_v) * np.exp(-(levels - v) / psi) - estimates

    span = max(float(levels.max() - v), 1e-3)
    x0 = np.array([0.5 * (theta_v + 1.0), 0.5 * span])
    res = least_squares(
        resid, x0,
        bounds=([theta_v, 1e-9], [1.0, np.inf]),
        xtol=1e-14, ftol=1e-14, gtol=1e-14,
    )
    return float(res.x[0]), float(res.x[1])


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
