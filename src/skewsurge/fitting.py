"""Likelihood inference for the threshold-exceedance skew-surge model.

The per-cycle likelihood is a Bernoulli term for the exceedance indicator
(probability from the rate model) times, for exceedances, the GPD density
of the excess above the monthly threshold (scale from the scale model,
shared shape). An optional Normal penalty on the shape enters as an
additive log-density term; with it enabled the reported log-likelihood is
the penalized objective value.

The two terms share no parameter, so the model is two independent
regressions, its two *halves*: the logistic GLM of a rate family, solved
by Newton/IRLS (McCullagh & Nelder 1989), and the GPD regression of a
scale family for the scale coefficients and the shape, solved by Newton
with the analytic gradient and Hessian (Davison & Smith 1990). Written as
b1*sin(wd) + b2*cos(wd), each harmonic beta*sin(w(d - phi)) is linear in
its coefficients, and so are the rate logit and the scale.

A half is a block design over one or more sites: the predictor columns
from the kernel in :mod:`skewsurge.tail` (which the CDF and the simulator
evaluate too), stacked once per site, with frozen parameters as offsets.
``_fit_half`` solves one and takes its Wald block, and a FitResult joins
one rate half and one GPD half: their log-likelihoods and iteration
counts add, and the information matrix is block diagonal. So
:func:`fit_grid` solves each family of a selection grid once, and
:func:`fit_pooled` ties parameters across sites within each half.
Amplitudes and phases are reported as derived values, with delta-method
standard errors from the analytic information matrix.

Each half has one kernel (:func:`_kernel`): the value, gradient and
Hessian from one pass per site, at the start and at each Newton trial
point; the solve's last pass gives the Wald block and the site
log-likelihoods. Designs are column-major, so X'WX is one BLAS product.
The rate half takes all three from one e = exp(-|g|) per cycle, the GPD
half from one z and one h(z; xi) = log1p(xi z)/xi over the exceedances
(the CDF's kernel: h = z only where |xi| is below the smallest normal
float) and the design's exceedance rows, gathered once per site; h's
xi-derivatives switch to a power series where |xi z| < 1e-4. Each rate
intercept starts at the logit of its exceedance fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Standardizers, standardize_year, standardizers
from .tail import (
    RATE_FAMILIES,
    SCALE_FAMILIES,
    TailParams,
    _PHASE_OF,
    _gpd_h,
    _term_jacobian,
    _term_values,
    linear_predictor,
    param_names,
    params_to_values,
    rate_terms,
    scale_terms,
    seasonal_basis,
    values_to_params,
)

_XI_BOX = (-0.49, 0.999)
_MAX_NEWTON = 100
# A fitted logit beyond this puts a cycle's exceedance probability within
# 2e-9 of 0 or 1. No rate covariate supports that on a real record; Newton
# gets there only when the covariates separate exceedances from the other
# cycles, and the logistic likelihood then has no finite maximum.
_SEPARATION_LOGIT = 20.0


def _prior_variance(variance):
    """The shape prior's variance, refused unless positive."""
    if variance <= 0:
        raise ValueError("prior variance must be positive")
    return variance


@dataclass
class ShapePrior:
    """Normal penalty on the GPD shape, entering the objective as a log-density."""

    mean: float = 0.0119
    variance: float = 0.0343

    def __post_init__(self):
        _prior_variance(self.variance)

    def neg_log_density(self, xi):
        return 0.5 * ((xi - self.mean) ** 2 / self.variance
                      + math.log(2.0 * math.pi * self.variance))


def _check_pairs(names, what):
    """Reject an amplitude without its phase, or a phase without its amplitude."""
    for amplitude, phase in _PHASE_OF.items():
        if (amplitude in names) != (phase in names):
            have, missing = ((amplitude, phase) if amplitude in names
                             else (phase, amplitude))
            raise ValueError(
                f"{what} names {have!r} without its partner {missing!r}; "
                "a harmonic's amplitude and phase go together"
            )


def _check_shared(shared, config):
    """Refuse names to tie across sites unless each is a free parameter
    of the configured families and a harmonic's amplitude and phase go
    together."""
    rf, sf = config.rate_family, config.scale_family
    missing = [n for n in shared
               if n not in param_names(rf, sf) or n in config.frozen]
    if missing:
        raise ValueError(f"shared names not free in family {rf}/{sf}: {missing}")
    _check_pairs(shared, "shared")


@dataclass
class FitConfig:
    """Fitting options: families, shape prior, frozen values.

    ``frozen`` maps parameter names to fixed values that enter the fit as
    offsets; a harmonic's amplitude and phase are frozen together.
    """

    rate_family: str = "R0"
    scale_family: str = "S0"
    shape_prior: ShapePrior | None = None
    frozen: dict = field(default_factory=dict)

    def __post_init__(self):
        valid = set(param_names(self.rate_family, self.scale_family))
        bad = set(self.frozen) - valid
        if bad:
            raise ValueError(f"frozen names not in family: {sorted(bad)}")
        _check_pairs(self.frozen, "frozen")


@dataclass
class FitResult:
    """Maximum-likelihood fit of one family pair on one site.

    ``n_iter`` counts Newton iterations: those of the rate solve plus
    those of the GPD solve. ``max_scaled_gradient`` is the largest
    gradient component of the objective at the estimate, measured in
    se-standardized coordinates when the information matrix is usable
    (raw otherwise). ``converged`` is that value against a 1e-3 cutoff,
    and False when the estimate sits on a feasibility edge (the shape's
    box, sigma > 0, beta_sigma <= alpha_sigma), which ``message`` names.
    """

    site_id: str
    rate_family: str
    scale_family: str
    estimates: dict
    params: TailParams
    loglik: float
    n_obs: int
    n_exceed: int
    n_params: int
    aic: float
    bic: float
    std_errors: dict | None
    conf_intervals: dict | None
    converged: bool
    hessian_ok: bool
    n_iter: int
    max_scaled_gradient: float
    frozen: dict
    message: str

    def to_dict(self):
        return {**vars(self), "params": self.params.to_dict(),
                "conf_intervals": _listed(self.conf_intervals)}


def _listed(intervals):
    """Interval map with each (lo, hi) as a list, for JSON."""
    if intervals is None:
        return None
    return {k: list(v) for k, v in intervals.items()}


@dataclass
class _Prepared:
    """A site's exceedances and what its predictor terms are built from."""

    series: object  # SiteSeries
    std: Standardizers
    basis: tuple  # seasonal_basis of the day of year
    n: int
    n_exceed: int
    bern_sign: np.ndarray  # +1 non-exceedance, -1 exceedance
    exc_idx: np.ndarray
    excess: np.ndarray

    def terms(self, family):
        """Predictor terms of a rate family or of a scale family."""
        s, year_std = self.series, standardize_year(self.series.year)
        if family in RATE_FAMILIES:
            return rate_terms(family, self.basis, s.day_of_year,
                              s.day_of_month, s.month, s.peak_tide, self.std,
                              year_std, s.gmt)
        return scale_terms(family, self.basis, s.day_of_year, s.peak_tide,
                           year_std, s.gmt)


def _prepare(series, thresholds, std):
    """A series' exceedances, its covariates to be standardized by ``std``."""
    u = thresholds.for_month(series.month)
    exceed = series.skew_surge > u
    return _Prepared(
        series=series,
        std=std,
        basis=seasonal_basis(series.day_of_year),
        n=len(series),
        n_exceed=int(exceed.sum()),
        bern_sign=np.where(exceed, -1.0, 1.0),
        exc_idx=np.flatnonzero(exceed),
        excess=(series.skew_surge - u)[exceed],
    )


def _bernoulli_nll(data, g):
    """Negative log-likelihood of the exceedance indicators at logits g,
    with the s g and e = exp(-|g|) it is taken from.

    A cycle's term is log(1 + e^(s g)), s its indicator's sign, written
    as max(s g, 0) + log1p(e): one exp per cycle, and no overflow at any
    logit.
    """
    sg = data.bern_sign * g
    e = np.exp(-np.abs(g))
    return float(np.maximum(sg, 0.0).sum() + np.log1p(e).sum()), sg, e


def _gpd_xi_derivs(z, a, t, h, xi):
    """The xi-derivatives (h1, h2) of h = h(z; xi) (:func:`_gpd_h`), with
    a = xi z and t = 1 + a.

    Their closed forms cancel as xi z -> 0, so where |xi z| < 1e-4 they
    are overwritten by their power series in xi z, which covers xi = 0;
    elsewhere the cancellation error stays below 1e-8 relative.
    """
    near = np.flatnonzero(np.abs(a) < 1e-4)
    an, zn = a[near], z[near]
    with np.errstate(divide="ignore", invalid="ignore"):
        h1 = (z / t - h) / xi
        h1[near] = zn * zn * (-1 / 2 + 2 * an / 3 - 3 * an * an / 4
                              + 4 * an ** 3 / 5)
        h2 = -(z * z / (t * t) + 2 * h1) / xi
        h2[near] = zn ** 3 * (2 / 3 - 3 * an / 2 + 12 * an * an / 5
                              - 10 * an ** 3 / 3)
    return h1, h2


def _gpd_nll(data, sigma, values):
    """Negative GPD log-density of the excesses at scales sigma: the sum
    of log(sigma) + (1 + xi) h over the excesses, h = h(z; xi) of
    z = excess/sigma (:func:`_gpd_h`).

    Returns it with the excesses' (sigma, z, h), which its derivatives
    take, or +inf and None outside the region where the likelihood is
    finite and the scale model valid: sigma > 0 on every cycle,
    0 <= beta_sigma <= alpha_sigma, xi < 1, and every excess inside the
    support.
    """
    xi = values["xi"]
    if (not 0.0 <= values["beta_sigma"] <= values["alpha_sigma"]
            or not values["alpha_sigma"] > 0.0 or xi >= 1.0
            or np.min(sigma) <= 0.0):
        return np.inf, None
    sig_exc = sigma[data.exc_idx]
    z = data.excess / sig_exc
    h = _gpd_h(z, xi)
    with np.errstate(invalid="ignore"):
        nll = float(np.log(sig_exc).sum() + (1.0 + xi) * h.sum())
    return (nll, (sig_exc, z, h)) if np.isfinite(nll) else (np.inf, None)


def neg_loglik(params, series, thresholds, shape_prior=None):
    """Negative (penalized) log-likelihood of TailParams on a site series.

    Sums a Bernoulli exceedance term per tidal cycle and a GPD density term
    per exceedance; +inf for invalid parameters. The covariates are
    standardized by the standardizers ``params.rate`` carries, so this is
    the likelihood of the model that ``rate_at`` and ``eval_cdf``
    evaluate, on any series. A fit stores the standardizers of the series
    it was fitted to.
    """
    if not 0.0 < params.rate.lam < 1.0:
        return np.inf
    data = _prepare(series, thresholds, params.rate)
    values = params_to_values(params)
    gpd, _ = _gpd_nll(data, linear_predictor(
        data.terms(params.scale.family), values), values)
    if shape_prior is not None:
        gpd += shape_prior.neg_log_density(values["xi"])
    return _bernoulli_nll(data, linear_predictor(
        data.terms(params.rate.family), values))[0] + gpd


def wald_intervals(hessian, x):
    """Standard errors and 95% intervals from a curvature matrix.

    Returns (se, ci, ok); ok is False when the Hessian is not positive
    definite, in which case se and ci are None.
    """
    x = np.asarray(x, dtype=float)
    hessian = np.asarray(hessian, dtype=float)
    if not np.all(np.isfinite(hessian)):
        return None, None, False
    try:
        np.linalg.cholesky(hessian)
    except np.linalg.LinAlgError:
        return None, None, False
    diag = np.diag(np.linalg.inv(hessian))
    if np.any(diag <= 0):
        return None, None, False
    se = np.sqrt(diag)
    ci = np.stack([x - 1.96 * se, x + 1.96 * se], axis=1)
    return se, ci, True


def _site_data(series, thresholds):
    """A site prepared for fitting, standardized by its own record."""
    data = _prepare(series, thresholds, standardizers(
        series.peak_tide, series.month, series.day_of_month))
    if data.n_exceed < 50:
        raise ValueError(
            f"site {series.site_id}: {data.n_exceed} exceedances; need >= 50"
        )
    return data


def _columns(terms, frozen, n):
    """Free columns of a predictor, filled one by one into a column-major
    design, and the offset of its frozen terms."""
    free = [(cov, c) for names, cov, cols in terms if names[0] not in frozen
            for c in cols]
    X = np.empty((n, len(free)), order="F")
    for j, (cov, c) in enumerate(free):
        np.multiply(cov, c, out=X[:, j])
    offset = np.zeros(n) + linear_predictor(
        [t for t in terms if t[0][0] in frozen], frozen)
    return X, offset


def _size(slots):
    return sum(len(names) for _, names, _ in slots)


def _layout(terms, shared, n_sites):
    """Global coefficient layout of a block design over sites.

    A shared term takes one slot; any other term takes one slot per
    site. Returns the slots as (start, names, site index, or None for a
    shared slot) and, per site, the global index of each local
    coefficient.
    """
    slots, where = [], [[] for _ in range(n_sites)]

    def add(names, site):
        start = _size(slots)
        slots.append((start, names, site))
        return start

    starts = {names: add(names, None) for names in terms
              if names[0] in shared}
    for i in range(n_sites):
        for names in terms:
            start = starts.get(names)
            if start is None:
                start = add(names, i)
            where[i].extend(range(start, start + len(names)))
    return slots, [np.array(w, dtype=int) for w in where]


@dataclass
class _Block:
    """One site's part of a half: its free columns, the offset of its
    frozen terms and the global index of each local coefficient."""

    data: _Prepared
    X: np.ndarray  # every cycle
    offset: np.ndarray
    at: np.ndarray
    rows: np.ndarray | None  # a GPD half's X at the exceedances
    prior: ShapePrior | None  # the shape penalty charged on this site


@dataclass
class _Half:
    """One of the model's two regressions over a block design of sites:
    the logistic GLM of a rate family, or the GPD regression of a scale
    family (scale coefficients, then the shape when free)."""

    family: str
    gpd: bool
    frozen: dict
    terms: list  # free terms, local order
    slots: list
    blocks: list


def _half(datas, family, config, shared=()):
    """Block design of one family's regression over prepared sites.

    ``shared`` names the parameters tied across sites, none in a
    single-site fit. The shape prior is charged once per distinct shape
    parameter.
    """
    frozen = config.frozen
    gpd = family in SCALE_FAMILIES
    terms = [data.terms(family) for data in datas]
    free = [t[0] for t in terms[0] if t[0][0] not in frozen]
    if gpd and "xi" not in frozen:
        free.append(("xi",))
    slots, at = _layout(free, shared, len(datas))
    xi_per_site = "xi" not in frozen and "xi" not in shared
    blocks = []
    for i, (data, site_terms) in enumerate(zip(datas, terms)):
        X, offset = _columns(site_terms, frozen, data.n)
        blocks.append(_Block(
            data, X, offset, at[i], X[data.exc_idx] if gpd else None,
            config.shape_prior if gpd and (i == 0 or xi_per_site) else None))
    return _Half(family, gpd, dict(frozen), free, slots, blocks)


def _block_values(half, local):
    """A site's values of the half's parameters, frozen ones included,
    from its local coefficients."""
    values, k = dict(half.frozen), 0
    for names in half.terms:
        values.update(_term_values(names, local[k:k + len(names)]))
        k += len(names)
    return values


def _rate_kernel(half, b, local):
    """A site's Bernoulli term, a zero penalty, and the term's gradient
    and Hessian, from the e = exp(-|g|) of its value (:func:`_bernoulli_nll`).

    With q = 1/(1 + e), a cycle's residual, the derivative s sigmoid(s g)
    of its term, is s q where s g >= 0 and s e q elsewhere, and its
    weight p(1 - p) is e q^2.
    """
    nll, sg, e = _bernoulli_nll(b.data, b.offset + b.X @ local)
    q = 1.0 / (1.0 + e)
    e *= q
    r = np.where(sg >= 0.0, q, e)
    r *= b.data.bern_sign
    e *= q
    return nll, 0.0, b.X.T @ r, b.X.T @ (b.X * e[:, None])


def _gpd_kernel(half, b, local):
    """A site's GPD term, its shape penalty, and their gradient and
    Hessian in the scale coefficients and the shape, from the one z and
    h(z; xi) of its value (:func:`_gpd_nll`).

    An excess's term log(sigma) + (1 + xi) h has, with a = xi z and
    t = 1 + a, the sigma-derivatives (1 - z)/(sigma t) and
    (2 z + a z - 1)/(sigma t)^2; its xi-derivatives and the mixed one
    z (z - 1)/(sigma t^2) are taken only while the shape is free. The
    exceedance rows of the design carry them to the scale coefficients.
    """
    k = b.X.shape[1]
    values = _block_values(half, local)
    nll, pieces = _gpd_nll(b.data, b.offset + b.X @ local[:k], values)
    if pieces is None:
        return nll, 0.0, None, None
    xi = values["xi"]
    sigma, z, h = pieces
    a = xi * z
    t = 1.0 + a
    st = sigma * t
    Z = b.rows
    grad, hess = np.empty(local.size), np.empty((local.size, local.size))
    grad[:k] = Z.T @ ((1 - z) / st)
    hess[:k, :k] = Z.T @ (Z * ((2 * z + a * z - 1) / (st * st))[:, None])
    penalty = 0.0 if b.prior is None else b.prior.neg_log_density(xi)
    if k < local.size:  # the shape is free
        h1, h2 = _gpd_xi_derivs(z, a, t, h, xi)
        grad[k] = (h + (1 + xi) * h1).sum()
        hess[:k, k] = hess[k, :k] = Z.T @ (z * (z - 1) / (st * t))
        hess[k, k] = (2 * h1 + (1 + xi) * h2).sum()
        if b.prior is not None:
            grad[k] += (xi - b.prior.mean) / b.prior.variance
            hess[k, k] += 1.0 / b.prior.variance
    return nll, penalty, grad, hess


def _kernel(half, x):
    """The half at coefficients x from one pass of its kernel per site:
    the objective, shape penalty included, its gradient and Hessian, and
    each site's negative log-likelihood without the penalty. Where the
    objective is +inf the rest are None."""
    f, nll = 0.0, []
    grad, hess = np.zeros(x.size), np.zeros((x.size, x.size))
    for b in half.blocks:
        v, penalty, g, h = (_gpd_kernel if half.gpd else _rate_kernel)(
            half, b, x[b.at])
        if g is None:
            return np.inf, None, None, None
        f += v + penalty
        nll.append(v)
        grad[b.at] += g
        hess[b.at[:, None], b.at] += h
    return f, grad, hess, nll


def _newton(kernel, x, lo, hi):
    """Minimize an objective by damped Newton steps from a point where it
    is finite.

    ``kernel`` gives the objective, its analytic gradient and Hessian,
    and whatever else the caller keeps, from one pass at a point: once at
    the start and once per trial point. A coordinate at a bound of
    [lo, hi] whose gradient pushes outward is held for the step; the
    Hessian's eigenvalues are taken in absolute value and floored, so
    every step descends. The step is halved until the objective is finite
    and falls by the Armijo fraction, which keeps every iterate inside the
    region where the likelihood is finite. Stops when the Newton decrement
    g'H^-1 g (about twice the excess of the objective over its minimum)
    drops below 1e-10. Returns the minimizer, the number of iterations and
    the kernel's evaluation there, which is not repeated.
    """
    at = kernel(x)
    if not np.isfinite(at[0]):
        raise ValueError("the frozen values leave no finite starting point")
    for it in range(1, _MAX_NEWTON + 1):
        f, grad, hess = at[:3]
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        if not free.any():
            break
        w, v = np.linalg.eigh(hess[free][:, free])
        w = np.maximum(np.abs(w), 1e-12 * max(np.abs(w).max(), 1.0))
        step = np.zeros_like(x)
        step[free] = -v @ ((v.T @ grad[free]) / w)
        if -(grad @ step) < 1e-10:
            break
        t = 1.0
        while t > 1e-10:
            trial = np.clip(x + t * step, lo, hi)
            at_trial = kernel(trial)
            if at_trial[0] <= f + 1e-4 * (grad @ (trial - x)):
                break
            t *= 0.5
        else:
            break
        x, at = trial, at_trial
    return x, it, at


def _check_separation(half, x):
    for b in half.blocks:
        logit = np.abs(b.offset + b.X @ x[b.at]).max()
        if logit > _SEPARATION_LOGIT:
            raise ValueError(
                f"site {b.data.series.site_id}: rate family {half.family} "
                f"separates the exceedances (a fitted logit reaches "
                f"{logit:.0f}); the logistic likelihood has no finite maximum"
            )


def _start(half):
    """Closed-form start of a half's Newton solve, other coefficients 0.

    Each rate intercept starts at the logit of its sites' exceedance
    fraction, the maximum-likelihood estimate of the intercept-only model.
    The GPD regression starts at the exponential: shape 0 and a constant
    scale at the mean excess.
    """
    x = np.zeros(_size(half.slots))
    for start, names, site in half.slots:
        if names not in (("lam",), ("alpha_sigma",)):
            continue
        datas = [b.data for b in (half.blocks if site is None
                                  else [half.blocks[site]])]
        if half.gpd:
            x[start] = np.concatenate([d.excess for d in datas]).mean()
        else:
            k, n = sum(d.n_exceed for d in datas), sum(d.n for d in datas)
            x[start] = math.log(k / (n - k)) if k < n else 0.0
    return x


def _edge(half, x, lo, hi):
    """The feasibility edge a GPD estimate sits on, or None."""
    if np.any((x <= lo) | (x >= hi)):
        return f"xi box [{_XI_BOX[0]}, {_XI_BOX[1]}]"
    for b in half.blocks:
        values = _block_values(half, x[b.at])
        sigma = b.offset + b.X @ x[b.at][:b.X.shape[1]]
        site = b.data.series.site_id
        if sigma.min() < 1e-4 * sigma.mean():
            return f"site {site} sigma > 0"
        if values["beta_sigma"] > (1.0 - 1e-4) * values["alpha_sigma"]:
            return f"site {site} beta_sigma <= alpha_sigma"
    return None


@dataclass
class _HalfFit:
    """A solved half.

    Per site, ``values`` holds the half's parameter values (frozen ones
    included) and ``nll`` its negative log-likelihood without the shape
    penalty, which ``penalty`` sums. ``names`` are the free parameters in
    a site's local order, and ``at`` holds, per site, the global index of
    each. In global order, ``grad`` is the objective's gradient in the
    parameter values and ``se`` and ``ci`` the Wald standard errors and
    intervals, None when the half's information block is not positive
    definite.
    """

    values: list
    nll: list
    penalty: float
    names: list
    at: list
    grad: np.ndarray
    se: np.ndarray | None
    ci: np.ndarray | None
    n_iter: int
    edge: str | None  # the GPD estimate's feasibility edge


def _fit_half(half):
    """Solve one half by damped Newton and take its Wald block.

    The rate GLM starts with each intercept at the logit of its
    exceedance fraction and every other coefficient 0, and raises when its
    covariates separate the exceedances; the GPD regression starts from
    the exponential and keeps its shape in a box (:func:`_start`). The
    Wald block and the site log-likelihoods come from the solve's last
    kernel pass (:func:`_kernel`), not from a pass at the estimate. The
    information in the linear coefficients is carried to the parameter
    values through the Jacobian of the map between them (the delta method).
    """
    n = _size(half.slots)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    if half.gpd:
        for start, names, _ in half.slots:
            if names == ("xi",):
                lo[start], hi[start] = _XI_BOX
    x, n_iter, (_, grad, hess, nll) = _newton(
        lambda v: _kernel(half, v), _start(half), lo, hi)
    if not half.gpd:
        _check_separation(half, x)
    jac = np.zeros((n, n))
    values = []
    for start, names, _ in half.slots:
        vals = _term_values(names, x[start:start + len(names)])
        jac[start:start + len(names), start:start + len(names)] = \
            _term_jacobian(names, vals)
        values += [vals[name] for name in names]
    se, ci, _ = wald_intervals(jac.T @ hess @ jac, values)
    site_values = [_block_values(half, x[b.at]) for b in half.blocks]
    return _HalfFit(
        values=site_values,
        nll=nll,
        penalty=sum(b.prior.neg_log_density(v["xi"])
                    for b, v in zip(half.blocks, site_values)
                    if b.prior is not None),
        names=[name for names in half.terms for name in names],
        at=[b.at for b in half.blocks],
        grad=np.abs(jac.T @ grad),
        se=se,
        ci=ci,
        n_iter=n_iter,
        edge=_edge(half, x, lo, hi) if half.gpd else None,
    )


def _site_result(data, rate, gpd, i, config, penalty=0.0):
    """FitResult of site i from its rate half and its GPD half.

    The log-likelihood is the two halves' at site i, less ``penalty``.
    The information matrix is block diagonal, so it is usable when both
    blocks are; the gradient is then measured in se units.
    """
    rf, sf = config.rate_family, config.scale_family
    values = {**rate.values[i], **gpd.values[i]}
    names = rate.names + gpd.names
    loglik = -(rate.nll[i] + gpd.nll[i] + penalty)
    ok = rate.se is not None and gpd.se is not None
    grad = np.concatenate([rate.grad, gpd.grad])
    if ok:
        grad = grad * np.concatenate([rate.se, gpd.se])
        se = np.concatenate([rate.se[rate.at[i]], gpd.se[gpd.at[i]]])
        ci = np.concatenate([rate.ci[rate.at[i]], gpd.ci[gpd.at[i]]])
    max_grad = float(grad.max(initial=0.0))
    converged = max_grad < 1e-3 and gpd.edge is None
    if gpd.edge is not None:
        message = f"estimate held on the {gpd.edge} edge"
    elif not converged:
        message = f"max scaled gradient {max_grad:.2e} above 1e-3"
    else:
        message = "ok"
    k = len(names)
    return FitResult(
        site_id=data.series.site_id,
        rate_family=rf,
        scale_family=sf,
        estimates={n: float(values[n]) for n in names},
        params=values_to_params(values, rf, sf, data.std),
        loglik=loglik,
        n_obs=data.n,
        n_exceed=data.n_exceed,
        n_params=k,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(data.n) - 2.0 * loglik,
        std_errors={n: float(e) for n, e in zip(names, se)} if ok else None,
        conf_intervals={n: (float(lo), float(hi))
                        for n, (lo, hi) in zip(names, ci)} if ok else None,
        converged=converged,
        hessian_ok=ok,
        n_iter=rate.n_iter + gpd.n_iter,
        max_scaled_gradient=max_grad,
        frozen=dict(config.frozen),
        message=message,
    )


def fit_grid(series, config, rate_families, scale_families, thresholds):
    """Fit every (rate family, scale family) pair of a grid on one site.

    Returns {(rate family, scale family): FitResult}. The two halves of
    the model share no parameter, so each listed family's half is solved
    once and a pair's fit joins its two halves: |R| + |S| Newton solves
    for |R| x |S| fits. ``config`` gives the shape prior and the frozen
    values; each pair is checked with it as a FitConfig of that pair.
    ``thresholds`` are the MonthlyThresholds that define the exceedances.
    """
    return _grid(_site_data(series, thresholds), config, rate_families,
                 scale_families)


def _grid(data, config, rate_families, scale_families):
    """:func:`fit_grid` on a site prepared by :func:`_site_data`."""
    configs = {(rf, sf): replace(config, rate_family=rf, scale_family=sf)
               for rf in rate_families for sf in scale_families}
    if any(set(param_names(*pair)) <= set(config.frozen) for pair in configs):
        raise ValueError("every parameter is frozen; nothing to fit")
    rates = {rf: _fit_half(_half([data], rf, config))
             for rf in dict.fromkeys(rate_families)}
    gpds = {sf: _fit_half(_half([data], sf, config))
            for sf in dict.fromkeys(scale_families)}
    return {(rf, sf): _site_result(data, rates[rf], gpds[sf], 0, cfg,
                                   gpds[sf].penalty)
            for (rf, sf), cfg in configs.items()}


def fit_tail(series, config, thresholds):
    """Fit the tail model by (penalized) maximum likelihood.

    The rate coefficients come from a Newton/IRLS solve of the logistic
    GLM, the scale coefficients and the shape from a Newton solve of the
    GPD regression, and the standard errors from the analytic information
    matrix. Requires at least 50 threshold exceedances. Raises ValueError
    when the rate covariates separate the exceedances, since the logistic
    likelihood then has no finite maximum. An estimate held on the shape's
    box or another feasibility edge comes back with ``converged`` False
    and a message naming the edge. This is the one-pair case of
    :func:`fit_grid`.
    """
    pair = (config.rate_family, config.scale_family)
    return fit_grid(series, config, [pair[0]], [pair[1]], thresholds)[pair]


@dataclass
class PooledSpec:
    """Datasets to fit jointly and the parameter names tied across them.

    ``datasets`` is a list of (SiteSeries, MonthlyThresholds) pairs.
    """

    datasets: list
    shared: list


@dataclass
class PooledFitResult:
    """Joint fit with named parameters tied equal across sites."""

    shared_names: list
    shared_estimates: dict
    shared_std_errors: dict | None
    shared_conf_intervals: dict | None
    site_results: list
    loglik: float
    n_obs: int
    n_params: int
    aic: float
    bic: float
    untied_aic: float
    untied_bic: float
    converged: bool
    hessian_ok: bool
    max_scaled_gradient: float

    def to_dict(self):
        return {**vars(self),
                "shared_conf_intervals": _listed(self.shared_conf_intervals),
                "site_results": [r.to_dict() for r in self.site_results]}


def fit_pooled(spec, config):
    """Maximize the summed per-site log-likelihood with tied parameters.

    Solves each half as one block design: a shared parameter has one
    coefficient whose columns stack over the sites, any other one
    coefficient per site.
    Reports pooled AIC/BIC next to the untied alternative (the sum of
    independent per-site fits' scores). The Normal shape penalty, when
    enabled, is charged once per distinct shape parameter in the joint
    objective. Site results carry the joint fit's iteration count and
    convergence.
    """
    if not spec.datasets:
        raise ValueError("PooledSpec has no datasets")
    rf, sf = config.rate_family, config.scale_family
    names = [n for n in param_names(rf, sf) if n not in config.frozen]
    _check_shared(spec.shared, config)
    datas = [_site_data(series, thr) for series, thr in spec.datasets]
    singles = [_grid(data, config, [rf], [sf])[rf, sf] for data in datas]
    rate = _fit_half(_half(datas, rf, config, set(spec.shared)))
    gpd = _fit_half(_half(datas, sf, config, set(spec.shared)))
    site_results = [_site_result(data, rate, gpd, i, config)
                    for i, data in enumerate(datas)]
    shared = [n for n in names if n in spec.shared]
    first = site_results[0]
    loglik = sum(r.loglik for r in site_results) - gpd.penalty
    n_total = sum(data.n for data in datas)
    k_global = rate.grad.size + gpd.grad.size
    return PooledFitResult(
        shared_names=shared,
        shared_estimates={n: first.estimates[n] for n in shared},
        shared_std_errors={n: first.std_errors[n] for n in shared}
        if first.hessian_ok else None,
        shared_conf_intervals={n: first.conf_intervals[n] for n in shared}
        if first.hessian_ok else None,
        site_results=site_results,
        loglik=loglik,
        n_obs=n_total,
        n_params=k_global,
        aic=2.0 * k_global - 2.0 * loglik,
        bic=k_global * math.log(n_total) - 2.0 * loglik,
        untied_aic=sum(s.aic for s in singles),
        untied_bic=sum(s.bic for s in singles),
        converged=first.converged,
        hessian_ok=first.hessian_ok,
        max_scaled_gradient=first.max_scaled_gradient,
    )
