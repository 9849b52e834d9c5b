"""Annual-maximum sea-level distribution and return levels.

The annual-maximum CDF at level z averages, over observed years, the
product across that year's tidal cycles of the conditional skew-surge CDF
evaluated at z minus the cycle's peak tide, each factor raised to the
extremal index at that level to discount within-cluster dependence
(the skew-surge joint probability method).

The engine works in log survival. Along a curve only the level z
changes, so each of :func:`annual_max_cdf`, :func:`return_level` and
:func:`return_curve` builds once the cycles' log CDF at a sea level
(``model._evaluator`` with ``level``, of a SkewSurgeModel), the extremal
index at a level (:func:`exi_at_level`) and the year starts. One
evaluation is log F times theta, one ``np.add.reduceat`` slice per year
(the layout :class:`TideSampleCalendar` checks) and the annual
exceedance 1 - A as the years' mean of -expm1(log A_year), never 1 - F.
A zero factor sends its year to zero.

Return levels solve h(z) = log(1 - A(z)) - log p = 0, the log of the
engine's exceedance, near linear in z in the tail, until |h| < 1e-9, i.e.
the exceedance is within 1e-9 p of p. A curve solves its grid from the
largest p down, each level the lower end of the next bracket. The first
bracket starts just above max(tide + u_j), the engine's ``top_edge``,
where no cycle searches the body, unless the exceedance there is below
the largest p. Each probe is z interpolated at log p as a polynomial in
log f (inverse interpolation) through the newest six of the last five
solved levels and the level's own probes, where there are two such points
and the value falls inside the bracket; otherwise a step of regula falsi
on the bracket (a bisection step where the exceedance is 0 makes h
-inf). On a 20-level curve that is three evaluations per level near its
top and two from about its eighth level. Every probe is moved toward the
bracket's midpoint as far as it must be for the bracket to stay within
2**(RETURN_LEVEL_SLACK - k) of its first width after k probes (the
projection of ITP, Oliveira and Takahashi 2020). So a level on a step of
the empirical body (a staircase in z) takes at most RETURN_LEVEL_SLACK =
3 evaluations more than bisection, and ends once its bracket is one
float wide. A bracket not that narrow within RETURN_LEVEL_MAX_ITER
probes (a jump at z = 0, where halving runs through the subnormals) is
an error, as is a nan exceedance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exi import exi_at_level

RETURN_LEVEL_TOL = 1e-6  # |F - (1 - p)| every level meets, with room
RETURN_LEVEL_LOG_TOL = 1e-9
RETURN_LEVEL_MAX_ITER = 200
RETURN_LEVEL_SLACK = 3  # probes a level may take beyond bisection's count


@dataclass
class Scenario:
    """Covariate values held fixed across the synthetic year.

    The annual-maximum construction treats the year as stationary given
    its covariates, so trend terms are evaluated at these fixed values
    rather than per cycle. Leave a field None when the fitted families do
    not use it.
    """

    year_std: float | None = None
    gmt: float | None = None


@dataclass
class TideSampleCalendar:
    """Observed peak tides with calendar tags, grouped by complete year.

    Flat arrays of equal length, ordered year-major: ``year_index`` maps
    each element to its position in ``years``, does not decrease, and
    runs from 0 to ``n_years - 1`` without a gap, so every year holds at
    least one cycle. The annual-maximum engine sums each year as one
    contiguous slice and relies on this layout; other layouts are
    rejected. Only years with all twelve months present qualify.
    """

    years: np.ndarray
    month: np.ndarray
    day_of_month: np.ndarray
    day_of_year: np.ndarray
    tide: np.ndarray
    year_index: np.ndarray

    def __post_init__(self):
        n = len(self.tide)
        if any(len(a) != n for a in (self.month, self.day_of_month,
                                     self.day_of_year, self.year_index)):
            raise ValueError("calendar arrays must have equal lengths")
        steps = np.diff(self.year_index)
        if (n == 0 or self.year_index[0] != 0
                or self.year_index[-1] != len(self.years) - 1
                or np.any((steps != 0) & (steps != 1))):
            raise ValueError(
                "calendar must be year-major with every year present: "
                "year_index must step by 0 or 1 from 0 to n_years - 1")

    @classmethod
    def from_series(cls, series):
        """Build a calendar from a site record, keeping complete years only."""
        years, year_of = np.unique(series.year, return_inverse=True)
        has_month = np.zeros((years.size, 13), dtype=bool)
        has_month[year_of, series.month] = True
        years = years[has_month[:, 1:].all(axis=1)]
        if not years.size:
            raise ValueError(
                f"site {series.site_id}: no year has all twelve months"
            )
        keep = np.isin(series.year, years)
        return cls(
            years=years,
            month=series.month[keep],
            day_of_month=series.day_of_month[keep],
            day_of_year=series.day_of_year[keep],
            tide=series.peak_tide[keep],
            year_index=np.searchsorted(years, series.year[keep]),
        )

    @property
    def n_years(self):
        return len(self.years)


def _annual_max(model, calendar, exi_model, scenario):
    """z -> P(annual maximum > z), with everything that does not depend on
    z built once. Its ``top_edge`` is the log CDF's max(tide + u_j), above
    which no cycle searches the body."""
    if scenario is None:
        scenario = Scenario()
    log_cdf = model._evaluator(
        calendar.day_of_year, calendar.day_of_month, calendar.month,
        calendar.tide, scenario.year_std, scenario.gmt, level=True)
    theta = ((lambda z: 1.0) if exi_model is None
             else exi_at_level(exi_model, calendar.tide))
    year_starts = np.searchsorted(calendar.year_index,
                                  np.arange(calendar.n_years))
    weighted = np.empty(calendar.tide.shape)

    def exceedance(z):  # theta > 0, so a zero factor keeps its year 0
        np.multiply(log_cdf(z), theta(z), out=weighted)
        return float(-np.expm1(np.add.reduceat(weighted, year_starts)).mean())

    exceedance.top_edge = log_cdf.top_edge
    return exceedance


def annual_max_cdf(z, model, calendar, exi_model=None, scenario=None):
    """P(annual maximum sea level <= z) under the fitted models: one minus
    the engine's annual exceedance probability.

    ``model`` is a SkewSurgeModel; ``exi_model`` of None means an
    extremal index of one everywhere. ``scenario`` fixes trend covariates
    for the whole synthetic year.
    """
    return 1.0 - _annual_max(model, calendar, exi_model, scenario)(z)


def _predicted(solved, log_p, probes):
    """The next probe of a level: z interpolated at log p, as a Lagrange
    polynomial in log f, through the newest six of the last five levels
    ``solved`` (log p, z) and this level's ``probes`` (z, h), each at log p
    + h; None with fewer than two of them or where two share a log f."""
    nodes = (solved[-5:] + [(log_p + h, c) for c, h in probes])[-6:]
    if len(nodes) < 2:
        return None
    z = 0.0
    for i, (t_i, z_i) in enumerate(nodes):
        for k, (t_k, _) in enumerate(nodes):
            if k != i:
                if t_k == t_i:
                    return None
                z_i *= (log_p - t_k) / (t_i - t_k)
        z += z_i
    return z


def _invert(p, f, lo, hi, solved):
    """(z, f(z)) with the exceedance f(z) = p, from (z, f(z)) ends with
    f(hi) <= p; ``lo`` if f(lo) is at most p. Each probe is the
    :func:`_predicted` one where that lies inside the bracket, else a
    regula falsi step on h = log f - log p, clamped toward the midpoint
    so that the bracket after k probes is within 2**(RETURN_LEVEL_SLACK -
    k) times the first (ITP's projection). On a step of f across p (the
    body's staircase) it returns the upper end of a one-ulp bracket, at
    most RETURN_LEVEL_SLACK probes after bisection would; a bracket still
    wider after RETURN_LEVEL_MAX_ITER probes is a ValueError."""
    log_p = math.log(p)

    def h(z, q):  # -inf where the exceedance is 0, without taking log(0)
        if q > 0.0:
            return math.log(q) - log_p
        if q == 0.0:
            return -math.inf
        raise ValueError(f"annual exceedance is {q} at z = {z:.6g}")
    (a, f_a), (b, f_b) = lo, hi
    h_a, h_b = h(a, f_a), h(b, f_b)
    if h_a < RETURN_LEVEL_LOG_TOL:
        return lo
    probes = []  # (z, h) of this level's probes with a positive exceedance
    bound = (b - a) * 2.0 ** RETURN_LEVEL_SLACK  # halved: widest after a probe
    for _ in range(RETURN_LEVEL_MAX_ITER):
        if b <= math.nextafter(a, math.inf):  # no float left between the ends
            return b, f_b
        c = _predicted(solved, log_p, probes)
        if c is None or not a < c < b:
            c = 0.5 * (a + b) if h_b == -math.inf else b - h_b * (b - a) / (h_b - h_a)
        bound *= 0.5
        mid, r = 0.5 * (a + b), max(bound - 0.5 * (b - a), 0.0)
        c = min(max(c, mid - r), mid + r)
        f_c = f(c)
        h_c = h(c, f_c)
        if abs(h_c) < RETURN_LEVEL_LOG_TOL:
            return c, f_c
        if h_c > -math.inf:
            probes.append((c, h_c))
        if h_c > 0.0:
            a, f_a, h_a = c, f_c, h_c
        else:
            b, f_b, h_b = c, f_c, h_c
    raise ValueError(
        f"no return level for p={p} in {RETURN_LEVEL_MAX_ITER} probes: "
        f"exceedance {f_a:.6g} at z = {a:.17g}, {f_b:.6g} at z = {b:.17g}")


def return_level(p, model, calendar, exi_model=None, scenario=None):
    """Level exceeded by the annual maximum with probability p (see
    :func:`return_curve`)."""
    return float(return_curve([p], model, calendar, exi_model, scenario).z[0])


@dataclass
class ReturnCurve:
    """Return levels over a grid of annual exceedance probabilities."""

    p: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.p.shape != self.z.shape:
            raise ValueError("p and z must have matching shapes")

    def rows(self):
        """(p, return period in years, level) triples, smallest p first."""
        order = np.argsort(self.p)
        return [
            (float(self.p[i]), float(1.0 / self.p[i]), float(self.z[i]))
            for i in order
        ]

    def to_dict(self):
        return {"p": self.p.tolist(), "z_m": self.z.tolist()}


def _p_grid(p_grid):
    """The grid as a float array, refused unless it is a nonempty 1-D array
    of annual exceedance probabilities in [1e-6, 0.5]."""
    p = np.asarray(p_grid, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p grid must be a nonempty 1-D array")
    outside = ~((p >= 1e-6) & (p <= 0.5))
    if outside.any():
        raise ValueError(
            f"annual exceedance probability {p[outside][0]} outside [1e-6, 0.5]")
    return p


def return_curve(p_grid, model, calendar, exi_model=None, scenario=None):
    """Return levels for each probability in the grid, monotonicity checked.

    Solves annual_max_cdf(z) = 1 - p from the largest p down, each level
    the lower end of the next bracket. The first bracket is [just above
    max(tide + u_j), max tide + 10], which no body search reaches, or
    [min tide - 1, max tide + 10] where the exceedance just above
    max(tide + u_j) is below the grid's largest p; raises when a target
    lies outside it, where the exceedance is nan, or where a level's
    bracket is not one float wide within the cap (see :func:`_invert`).
    """
    p = _p_grid(p_grid)
    f = _annual_max(model, calendar, exi_model, scenario)

    def at(z):
        return z, f(z)
    hi = at(float(calendar.tide.max()) + 10.0)
    lo = at(math.nextafter(f.top_edge, math.inf))  # every cycle in its tail
    if not lo[1] >= p.max():
        lo = at(float(calendar.tide.min()) - 1.0)
    if lo[1] < p.max() or hi[1] > p.min():
        raise ValueError(
            f"no bracket for p={p.max() if lo[1] < p.max() else p.min()}: "
            f"exceedance {lo[1]:.6g} at {lo[0]:.3f}, {hi[1]:.6g} at {hi[0]:.3f}")
    z, solved = np.empty_like(p), []  # solved: (log p, z), distinct p
    for i in np.argsort(-p, kind="stable"):
        lo, log_p = _invert(p[i], f, lo, hi, solved), math.log(p[i])
        z[i] = lo[0]
        if not solved or solved[-1][0] != log_p:
            solved.append((log_p, lo[0]))
    if np.any(np.diff(z[np.argsort(p)]) > 1e-9):
        raise RuntimeError("return levels not nonincreasing in p")
    return ReturnCurve(p=p, z=z)
