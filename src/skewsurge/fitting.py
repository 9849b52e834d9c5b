"""Likelihood inference for the threshold-exceedance skew-surge model.

The per-cycle likelihood is a Bernoulli term for the exceedance indicator
(probability from the rate model) times, for exceedances, the GPD density
of the excess above the monthly threshold (scale from the scale model,
shared shape). An optional Normal penalty on the shape enters as an
additive log-density term; with it enabled the reported log-likelihood is
the penalized objective value.

The two terms share no parameters. Written as b1*sin(wd) + b2*cos(wd),
each harmonic beta*sin(w(d - phi)) is linear in its coefficients, and so
are the rate logit and the scale. A fit is therefore two exact solves:
Newton/IRLS on the logistic GLM for the rate (McCullagh & Nelder 1989),
then Newton with the analytic gradient and Hessian on the GPD regression
for the scale coefficients and the shape (Davison & Smith 1990). The
predictor columns come from the kernel in :mod:`skewsurge.tail`, which
the CDF and the simulator evaluate too; a fit stacks them once per site
into a design matrix. Frozen parameters enter as offsets. Amplitudes and phases are reported as derived
values, with delta-method standard errors from the analytic information
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SEASONS, Standardizers, monthly_thresholds, standardizers
from .tail import (
    RATE_FAMILIES,
    SCALE_FAMILIES,
    XI_ZERO_TOL,
    TailParams,
    _term_jacobian,
    _term_values,
    inv_logit,
    linear_predictor,
    params_to_values,
    rate_terms,
    scale_terms,
    seasonal_basis,
    values_to_params,
)

RATE_BASE_NAMES = ("lam", "beta_day", "phi_day", "alpha_tide", "beta_tide", "phi_tide")
SCALE_BASE_NAMES = ("alpha_sigma", "beta_sigma", "phi_sigma", "gamma_sigma")

_XI_BOX = (-0.49, 0.999)
# Amplitude -> phase of each harmonic; a pair is fitted through (b1, b2).
_PHASE_OF = {"beta_day": "phi_day", "beta_tide": "phi_tide",
             "beta_sigma": "phi_sigma"}
_MAX_NEWTON = 100
# A fitted logit beyond this puts a cycle's exceedance probability within
# 2e-9 of 0 or 1. No rate covariate supports that on a real record; Newton
# gets there only when the covariates separate exceedances from the other
# cycles, and the logistic likelihood then has no finite maximum.
_SEPARATION_LOGIT = 20.0


def rate_param_names(family):
    if family not in RATE_FAMILIES:
        raise ValueError(f"unknown rate family {family!r}")
    names = list(RATE_BASE_NAMES)
    if family in ("R1", "R3"):
        names.append("delta_rate")
    elif family in ("R2", "R4"):
        names.extend(f"delta_rate_{s}" for s in SEASONS)
    return names


def scale_param_names(family):
    if family not in SCALE_FAMILIES:
        raise ValueError(f"unknown scale family {family!r}")
    names = list(SCALE_BASE_NAMES)
    if family in ("S1", "S3"):
        names.append("delta_sigma")
    elif family in ("S2", "S4"):
        names.extend(f"delta_sigma_{s}" for s in SEASONS)
    return names


def param_names(rate_family, scale_family):
    """Full ordered parameter-name list for a family pair."""
    return rate_param_names(rate_family) + scale_param_names(scale_family) + ["xi"]


@dataclass
class ShapePrior:
    """Normal penalty on the GPD shape, entering the objective as a log-density."""

    mean: float = 0.0119
    variance: float = 0.0343

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("prior variance must be positive")

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


@dataclass
class FitConfig:
    """Fitting options: families, shape prior, frozen values, run length.

    ``frozen`` maps parameter names to fixed values that enter the fit as
    offsets; a harmonic's amplitude and phase are frozen together.
    ``run_length`` is carried along for reporting only.
    """

    rate_family: str = "R0"
    scale_family: str = "S0"
    shape_prior: ShapePrior | None = None
    run_length: int = 4
    frozen: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.rate_family not in RATE_FAMILIES:
            raise ValueError(f"unknown rate family {self.rate_family!r}")
        if self.scale_family not in SCALE_FAMILIES:
            raise ValueError(f"unknown scale family {self.scale_family!r}")
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
    run_length: int
    message: str

    def to_dict(self):
        return {
            "site_id": self.site_id,
            "rate_family": self.rate_family,
            "scale_family": self.scale_family,
            "estimates": self.estimates,
            "params": self.params.to_dict(),
            "loglik": self.loglik,
            "n_obs": self.n_obs,
            "n_exceed": self.n_exceed,
            "n_params": self.n_params,
            "aic": self.aic,
            "bic": self.bic,
            "std_errors": self.std_errors,
            "conf_intervals": {k: list(v) for k, v in self.conf_intervals.items()}
            if self.conf_intervals is not None else None,
            "converged": self.converged,
            "hessian_ok": self.hessian_ok,
            "n_iter": self.n_iter,
            "max_scaled_gradient": self.max_scaled_gradient,
            "frozen": self.frozen,
            "run_length": self.run_length,
            "message": self.message,
        }


@dataclass
class _Prepared:
    """A site's exceedances and its predictor terms."""

    n: int
    n_exceed: int
    std: Standardizers
    rate_terms: list
    scale_terms: list
    bern_sign: np.ndarray  # +1 non-exceedance, -1 exceedance
    exc_idx: np.ndarray
    excess: np.ndarray


def _prepare(series, thresholds, rate_family, scale_family, std):
    """A series' exceedances and predictor terms, its covariates
    standardized by ``std``."""
    u = thresholds.for_month(series.month)
    exceed = series.skew_surge > u
    d, basis = series.day_of_year, seasonal_basis(series.day_of_year)
    return _Prepared(
        n=len(series),
        n_exceed=int(exceed.sum()),
        std=std,
        rate_terms=rate_terms(rate_family, basis, d, series.day_of_month,
                              series.month, series.peak_tide, std,
                              series.year_std, series.gmt),
        scale_terms=scale_terms(scale_family, basis, d, series.peak_tide,
                                series.year_std, series.gmt),
        bern_sign=np.where(exceed, -1.0, 1.0),
        exc_idx=np.flatnonzero(exceed),
        excess=(series.skew_surge - u)[exceed],
    )


def _bernoulli_nll(data, g):
    """Negative log-likelihood of the exceedance indicators at logits g."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.logaddexp(0.0, data.bern_sign * g).sum())


def _gpd_nll(data, sigma, values, prior):
    """Negative GPD log-density of the excesses at scales sigma, plus the
    shape penalty.

    +inf outside the region where the likelihood is finite and the scale
    model valid: sigma > 0 on every cycle, 0 <= beta_sigma <= alpha_sigma,
    xi < 1, and every excess inside the support.
    """
    xi = values["xi"]
    if (not 0.0 <= values["beta_sigma"] <= values["alpha_sigma"]
            or not values["alpha_sigma"] > 0.0 or xi >= 1.0
            or np.min(sigma) <= 0.0):
        return np.inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sig_exc = sigma[data.exc_idx]
        scaled = data.excess / sig_exc
        if abs(xi) < XI_ZERO_TOL:
            nll = float(np.log(sig_exc).sum() + scaled.sum())
        else:
            inner = 1.0 + xi * scaled
            if np.min(inner) <= 0.0:
                return np.inf
            nll = float(np.log(sig_exc).sum()
                        + (1.0 + 1.0 / xi) * np.log(inner).sum())
    if prior is not None:
        nll += prior.neg_log_density(xi)
    return nll if np.isfinite(nll) else np.inf


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
    data = _prepare(series, thresholds, params.rate.family, params.scale.family,
                    params.rate)
    values = params_to_values(params)
    return (_bernoulli_nll(data, linear_predictor(data.rate_terms, values))
            + _gpd_nll(data, linear_predictor(data.scale_terms, values),
                       values, shape_prior))


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


def _columns(terms, frozen, n):
    """Free columns of a predictor and the offset of its frozen terms."""
    free = [np.broadcast_to(cov * c, n) for names, cov, cols in terms
            if names[0] not in frozen for c in cols]
    offset = np.zeros(n) + linear_predictor(
        [t for t in terms if t[0][0] in frozen], frozen)
    return (np.column_stack(free) if free else np.zeros((n, 0))), offset


def _size(slots):
    return sum(len(names) for _, names, _ in slots)


def _layout(terms, shared, n_sites):
    """Global coefficient layout of a block design over sites.

    A shared term (every term when ``shared`` is None) takes one slot,
    labelled with its parameter names; any other term takes one slot per
    site, labelled "<name>@<site index>". Returns the slots as (start,
    names, labels) and, per site, the global index of each local
    coefficient.
    """
    slots, where = [], [[] for _ in range(n_sites)]

    def add(names, labels):
        start = _size(slots)
        slots.append((start, names, labels))
        return start

    starts = {names: add(names, list(names)) for names in terms
              if shared is None or names[0] in shared}
    for i in range(n_sites):
        for names in terms:
            start = starts.get(names)
            if start is None:
                start = add(names, [f"{n}@{i}" for n in names])
            where[i].extend(range(start, start + len(names)))
    return slots, [np.array(w, dtype=int) for w in where]


@dataclass
class _Site:
    """One site of a block design: free columns, frozen offsets, and the
    global index of each local rate and GPD coefficient."""

    site_id: str
    data: _Prepared
    X: np.ndarray  # rate columns
    x_offset: np.ndarray
    Z: np.ndarray  # scale columns, every cycle
    z_offset: np.ndarray
    rate_at: np.ndarray
    gpd_at: np.ndarray  # scale coefficients, then the shape when free
    prior: ShapePrior | None  # the shape penalty charged on this site


@dataclass
class _Joint:
    """Sites fitted together. The rate coefficients and the GPD ones (scale
    coefficients and shape) are separate vectors: the likelihood is a sum
    of one term in each."""

    rate_family: str
    scale_family: str
    frozen: dict
    rate_terms: list  # free terms, local order
    gpd_terms: list
    rate_slots: list
    gpd_slots: list
    sites: list


def _joint(pairs, config, shared=None):
    """Block design of (series, thresholds) pairs under one configuration.

    ``shared`` names the parameters tied across sites; None ties every
    parameter (a single-site fit). The shape prior is charged once per
    distinct shape parameter.
    """
    rf, sf, frozen = config.rate_family, config.scale_family, config.frozen
    built = []
    for series, thresholds in pairs:
        data = _prepare(series, thresholds, rf, sf, standardizers(
            series.peak_tide, series.month, series.day_of_month))
        if data.n_exceed < 50:
            raise ValueError(
                f"site {series.site_id}: {data.n_exceed} exceedances; need >= 50"
            )
        built.append((series.site_id, data))
    first = built[0][1]
    rate_free = [t[0] for t in first.rate_terms if t[0][0] not in frozen]
    gpd_free = [t[0] for t in first.scale_terms if t[0][0] not in frozen]
    if "xi" not in frozen:
        gpd_free.append(("xi",))
    rate_slots, rate_at = _layout(rate_free, shared, len(pairs))
    gpd_slots, gpd_at = _layout(gpd_free, shared, len(pairs))
    xi_per_site = shared is not None and "xi" not in frozen and "xi" not in shared
    sites = [
        _Site(site_id, data, *_columns(data.rate_terms, frozen, data.n),
              *_columns(data.scale_terms, frozen, data.n), rate_at[i],
              gpd_at[i], config.shape_prior if i == 0 or xi_per_site else None)
        for i, (site_id, data) in enumerate(built)
    ]
    return _Joint(rf, sf, dict(frozen), rate_free, gpd_free, rate_slots,
                  gpd_slots, sites)


def _values(terms, coefs):
    """Parameter values of consecutive terms from their linear coefficients."""
    values, k = {}, 0
    for names in terms:
        values.update(_term_values(names, coefs[k:k + len(names)]))
        k += len(names)
    return values


def _site_values(joint, site, rate_x, gpd_x):
    """Every parameter value of one site, frozen ones included."""
    return {**joint.frozen, **_values(joint.rate_terms, rate_x[site.rate_at]),
            **_values(joint.gpd_terms, gpd_x[site.gpd_at])}


def _rate_objective(joint, x):
    """The Bernoulli term summed over the sites, at rate coefficients x."""
    return sum(_bernoulli_nll(s.data, s.x_offset + s.X @ x[s.rate_at])
               for s in joint.sites)


def _gpd_objective(joint, x):
    """The GPD term and the shape penalty summed over the sites, at GPD
    coefficients x (scale coefficients, then the shape when free)."""
    total = 0.0
    for s in joint.sites:
        local = x[s.gpd_at]
        sigma = s.z_offset + s.Z @ local[:s.Z.shape[1]]
        values = {**joint.frozen, **_values(joint.gpd_terms, local)}
        total += _gpd_nll(s.data, sigma, values, s.prior)
    return total


def _rate_derivs(joint, x):
    """Gradient and Hessian of the Bernoulli term in the rate coefficients."""
    grad = np.zeros(x.size)
    hess = np.zeros((x.size, x.size))
    for s in joint.sites:
        p = inv_logit(s.x_offset + s.X @ x[s.rate_at])
        grad[s.rate_at] += s.X.T @ (p - (s.data.bern_sign < 0))
        hess[np.ix_(s.rate_at, s.rate_at)] += s.X.T @ (s.X * (p * (1.0 - p))[:, None])
    return grad, hess


def _gpd_pieces(excess, sigma, xi):
    """Per-exceedance derivatives of the GPD negative log-density.

    The density term is log(sigma) + (1 + xi) h with z = excess/sigma and
    h = log1p(xi z)/xi. Returns its derivatives d/dsigma, d/dxi,
    d2/dsigma2, d2/dsigma dxi and d2/dxi2. The xi-derivatives of h come
    from its power series in xi z where |xi z| < 1e-4, which covers the
    exponential limit xi -> 0, and from the closed form elsewhere, where
    its cancellation error stays below 1e-8 relative.
    """
    z = excess / sigma
    a = xi * z
    t = 1.0 + a
    series = np.abs(a) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(series, z * (1 - a / 2 + a * a / 3 - a ** 3 / 4),
                     np.log1p(a) / xi)
        h1 = np.where(series,
                      z * z * (-1 / 2 + 2 * a / 3 - 3 * a * a / 4 + 4 * a ** 3 / 5),
                      (z / t - h) / xi)
        h2 = np.where(series,
                      z ** 3 * (2 / 3 - 3 * a / 2 + 12 * a * a / 5 - 10 * a ** 3 / 3),
                      -(z * z / (t * t) + 2 * h1) / xi)
    return ((1 - z) / (sigma * t),
            h + (1 + xi) * h1,
            (2 * z + a * z - 1) / (sigma * t) ** 2,
            z * (z - 1) / (sigma * t * t),
            2 * h1 + (1 + xi) * h2)


def _gpd_derivs(joint, x):
    """Gradient and Hessian of the GPD term and the shape prior in the
    scale coefficients and the shape."""
    grad = np.zeros(x.size)
    hess = np.zeros((x.size, x.size))
    xi_free = "xi" not in joint.frozen
    for s in joint.sites:
        local = x[s.gpd_at]
        k = s.Z.shape[1]
        xi = local[k] if xi_free else joint.frozen["xi"]
        Z = s.Z[s.data.exc_idx]
        sigma = s.z_offset[s.data.exc_idx] + Z @ local[:k]
        d_s, d_x, d_ss, d_sx, d_xx = _gpd_pieces(s.data.excess, sigma, xi)
        g = Z.T @ d_s
        h = Z.T @ (Z * d_ss[:, None])
        if xi_free:
            cross = Z.T @ d_sx
            g = np.append(g, d_x.sum())
            h = np.block([[h, cross[:, None]],
                          [cross[None, :], np.array([[d_xx.sum()]])]])
            if s.prior is not None:
                g[-1] += (xi - s.prior.mean) / s.prior.variance
                h[-1, -1] += 1.0 / s.prior.variance
        grad[s.gpd_at] += g
        hess[np.ix_(s.gpd_at, s.gpd_at)] += h
    return grad, hess


def _newton(fun, derivs, x, lo, hi):
    """Minimize fun from a point where it is finite by damped Newton steps.

    ``derivs`` gives the analytic gradient and Hessian. A coordinate at a
    bound of [lo, hi] whose gradient pushes outward is held for the step;
    the Hessian's eigenvalues are taken in absolute value and floored, so
    every step descends. The step is halved until fun is finite and falls
    by the Armijo fraction, which keeps every iterate inside the region
    where the likelihood is finite. Stops when the Newton decrement
    g'H^-1 g (about twice the excess of fun over its minimum) drops below
    1e-10.
    Returns the minimizer and the number of iterations.
    """
    f = fun(x)
    for it in range(1, _MAX_NEWTON + 1):
        grad, hess = derivs(x)
        free = ~(((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0)))
        if not free.any():
            break
        w, v = np.linalg.eigh(hess[np.ix_(free, free)])
        w = np.maximum(np.abs(w), 1e-12 * max(np.abs(w).max(), 1.0))
        step = np.zeros_like(x)
        step[free] = -v @ ((v.T @ grad[free]) / w)
        if -(grad @ step) < 1e-10:
            break
        t = 1.0
        while t > 1e-10:
            trial = np.clip(x + t * step, lo, hi)
            f_trial = fun(trial)
            if f_trial <= f + 1e-4 * (grad @ (trial - x)):
                break
            t *= 0.5
        else:
            break
        x, f = trial, f_trial
    return x, it


def _check_separation(joint, rate_x):
    for s in joint.sites:
        logit = np.abs(s.x_offset + s.X @ rate_x[s.rate_at]).max()
        if logit > _SEPARATION_LOGIT:
            raise ValueError(
                f"site {s.site_id}: rate family {joint.rate_family} separates "
                f"the exceedances (a fitted logit reaches {logit:.0f}); the "
                "logistic likelihood has no finite maximum"
            )


def _gpd_start(joint):
    """Exponential start: shape 0 and a constant scale at the mean excess."""
    x = np.zeros(_size(joint.gpd_slots))
    for start, names, labels in joint.gpd_slots:
        if names == ("alpha_sigma",):
            _, _, site = labels[0].partition("@")
            sites = [joint.sites[int(site)]] if site else joint.sites
            x[start] = np.concatenate([s.data.excess for s in sites]).mean()
    return x


def _edge(joint, rate_x, gpd_x, lo, hi):
    """The feasibility edge the GPD estimate sits on, or None."""
    if np.any((gpd_x <= lo) | (gpd_x >= hi)):
        return f"xi box [{_XI_BOX[0]}, {_XI_BOX[1]}]"
    for s in joint.sites:
        values = _site_values(joint, s, rate_x, gpd_x)
        sigma = s.z_offset + s.Z @ gpd_x[s.gpd_at][:s.Z.shape[1]]
        if sigma.min() < 1e-4 * sigma.mean():
            return f"site {s.site_id} sigma > 0"
        if values["beta_sigma"] > (1.0 - 1e-4) * values["alpha_sigma"]:
            return f"site {s.site_id} beta_sigma <= alpha_sigma"
    return None


def _intervals(joint, rate_x, gpd_x):
    """Wald intervals of the parameter values from the analytic information.

    The information in the linear coefficients is carried to the
    parameter values through the Jacobian of the map between them (the
    delta method). Returns (se map, ci map, ok, max scaled gradient), the
    maps keyed by slot label and None when ok is False.
    """
    labels, values, grads, blocks = [], [], [], []
    for slots, x, derivs in ((joint.rate_slots, rate_x, _rate_derivs),
                             (joint.gpd_slots, gpd_x, _gpd_derivs)):
        grad, hess = derivs(joint, x)
        jac = np.zeros((x.size, x.size))
        for start, names, slot_labels in slots:
            vals = _term_values(names, x[start:start + len(names)])
            jac[start:start + len(names), start:start + len(names)] = \
                _term_jacobian(names, vals)
            values += [vals[n] for n in names]
            labels += slot_labels
        grads.append(jac.T @ grad)
        blocks.append(jac.T @ hess @ jac)
    n_rate = rate_x.size
    hess = np.zeros((len(labels), len(labels)))
    hess[:n_rate, :n_rate] = blocks[0]
    hess[n_rate:, n_rate:] = blocks[1]
    se, ci, ok = wald_intervals(hess, values)
    scaled = np.abs(np.concatenate(grads)) * (se if ok else 1.0)
    max_grad = float(scaled.max()) if scaled.size else 0.0
    if not ok:
        return None, None, False, max_grad
    return ({n: float(se[i]) for i, n in enumerate(labels)},
            {n: (float(ci[i, 0]), float(ci[i, 1])) for i, n in enumerate(labels)},
            True, max_grad)


@dataclass
class _Solution:
    values: list  # every parameter value, per site
    std_errors: dict | None  # by slot label
    conf_intervals: dict | None
    hessian_ok: bool
    max_scaled_gradient: float
    converged: bool
    message: str
    n_iter: int


def _solve(joint):
    """Fit a block design: the rate GLM first, then the GPD regression."""
    gpd_x = _gpd_start(joint)
    rate_x = np.zeros(_size(joint.rate_slots))
    if not np.isfinite(_gpd_objective(joint, gpd_x)):
        raise ValueError("the frozen scale values leave no finite starting point")
    unbounded = np.full(rate_x.size, np.inf)
    rate_x, n_rate = _newton(lambda x: _rate_objective(joint, x),
                             lambda x: _rate_derivs(joint, x),
                             rate_x, -unbounded, unbounded)
    _check_separation(joint, rate_x)
    lo = np.full(gpd_x.size, -np.inf)
    hi = np.full(gpd_x.size, np.inf)
    for start, names, _ in joint.gpd_slots:
        if names == ("xi",):
            lo[start], hi[start] = _XI_BOX
    gpd_x, n_gpd = _newton(lambda x: _gpd_objective(joint, x),
                           lambda x: _gpd_derivs(joint, x), gpd_x, lo, hi)
    se, ci, ok, max_grad = _intervals(joint, rate_x, gpd_x)
    edge = _edge(joint, rate_x, gpd_x, lo, hi)
    converged = max_grad < 1e-3 and edge is None
    if edge is not None:
        message = f"estimate held on the {edge} edge"
    elif not converged:
        message = f"max scaled gradient {max_grad:.2e} above 1e-3"
    else:
        message = "ok"
    values = [_site_values(joint, s, rate_x, gpd_x) for s in joint.sites]
    return _Solution(values, se, ci, ok, max_grad, converged, message,
                     n_rate + n_gpd)


def fit_tail(series, config, thresholds=None):
    """Fit the tail model by (penalized) maximum likelihood.

    The rate coefficients come from a Newton/IRLS solve of the logistic
    GLM, the scale coefficients and the shape from a Newton solve of the
    GPD regression, and the standard errors from the analytic information
    matrix. Requires at least 50 threshold exceedances. Raises ValueError
    when the rate covariates separate the exceedances, since the logistic
    likelihood then has no finite maximum. An estimate held on the shape's
    box or another feasibility edge comes back with ``converged`` False
    and a message naming the edge.
    """
    if thresholds is None:
        thresholds = monthly_thresholds(series)
    rf, sf = config.rate_family, config.scale_family
    names = [n for n in param_names(rf, sf) if n not in config.frozen]
    if not names:
        raise ValueError("every parameter is frozen; nothing to fit")
    joint = _joint([(series, thresholds)], config)
    return _site_result(joint, _solve(joint), 0, series, thresholds, config,
                        {n: n for n in names}, config.shape_prior)


def _site_result(joint, sol, i, series, thresholds, config, labels, prior):
    """FitResult of site i of a solved block design.

    ``labels`` maps each free parameter to its slot label; the
    log-likelihood is ``neg_loglik`` at the returned parameters, with the
    shape penalty ``prior``.
    """
    rf, sf = config.rate_family, config.scale_family
    data = joint.sites[i].data
    values = sol.values[i]
    params = values_to_params(values, rf, sf, data.std)
    loglik = -neg_loglik(params, series, thresholds, prior)
    k = len(labels)
    return FitResult(
        site_id=series.site_id,
        rate_family=rf,
        scale_family=sf,
        estimates={n: float(values[n]) for n in labels},
        params=params,
        loglik=loglik,
        n_obs=data.n,
        n_exceed=data.n_exceed,
        n_params=k,
        aic=2.0 * k - 2.0 * loglik,
        bic=k * math.log(data.n) - 2.0 * loglik,
        std_errors={n: sol.std_errors[s] for n, s in labels.items()}
        if sol.hessian_ok else None,
        conf_intervals={n: sol.conf_intervals[s] for n, s in labels.items()}
        if sol.hessian_ok else None,
        converged=sol.converged,
        hessian_ok=sol.hessian_ok,
        n_iter=sol.n_iter,
        max_scaled_gradient=sol.max_scaled_gradient,
        frozen=dict(config.frozen),
        run_length=config.run_length,
        message=sol.message,
    )


@dataclass
class PooledSpec:
    """Datasets to fit jointly and the parameter names tied across them.

    ``datasets`` is a list of SiteSeries or (SiteSeries, MonthlyThresholds)
    pairs; thresholds are computed per site when omitted.
    """

    datasets: list
    shared: list

    def normalized(self):
        out = []
        for item in self.datasets:
            if isinstance(item, tuple):
                out.append(item)
            else:
                out.append((item, None))
        return out


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
        return {
            "shared_names": self.shared_names,
            "shared_estimates": self.shared_estimates,
            "shared_std_errors": self.shared_std_errors,
            "shared_conf_intervals": {
                k: list(v) for k, v in self.shared_conf_intervals.items()
            } if self.shared_conf_intervals is not None else None,
            "site_results": [r.to_dict() for r in self.site_results],
            "loglik": self.loglik,
            "n_obs": self.n_obs,
            "n_params": self.n_params,
            "aic": self.aic,
            "bic": self.bic,
            "untied_aic": self.untied_aic,
            "untied_bic": self.untied_bic,
            "converged": self.converged,
            "hessian_ok": self.hessian_ok,
            "max_scaled_gradient": self.max_scaled_gradient,
        }


def fit_pooled(spec, config):
    """Maximize the summed per-site log-likelihood with tied parameters.

    Solves one block design: a shared parameter has one coefficient whose
    columns stack over the sites, any other one coefficient per site.
    Reports pooled AIC/BIC next to the untied alternative (the sum of
    independent per-site fits' scores). The Normal shape penalty, when
    enabled, is charged once per distinct shape parameter in the joint
    objective. Site results carry the joint fit's iteration count and
    convergence.
    """
    datasets = spec.normalized()
    if not datasets:
        raise ValueError("PooledSpec has no datasets")
    rf, sf = config.rate_family, config.scale_family
    names = [n for n in param_names(rf, sf) if n not in config.frozen]
    missing = [n for n in spec.shared if n not in names]
    if missing:
        raise ValueError(f"shared names not free in family {rf}/{sf}: {missing}")
    _check_pairs(spec.shared, "shared")
    pairs = [(series, thr if thr is not None else monthly_thresholds(series))
             for series, thr in datasets]
    singles = [fit_tail(series, config, thresholds=thr) for series, thr in pairs]
    joint = _joint(pairs, config, shared=set(spec.shared))
    sol = _solve(joint)
    shared = [n for n in names if n in spec.shared]

    site_results = [
        _site_result(joint, sol, i, series, thr, config,
                     {n: n if n in spec.shared else f"{n}@{i}" for n in names},
                     None)
        for i, (series, thr) in enumerate(pairs)
    ]
    penalty = sum(s.prior.neg_log_density(v["xi"])
                  for s, v in zip(joint.sites, sol.values) if s.prior is not None)
    loglik = sum(r.loglik for r in site_results) - penalty
    n_total = sum(s.data.n for s in joint.sites)
    k_global = _size(joint.rate_slots) + _size(joint.gpd_slots)
    return PooledFitResult(
        shared_names=shared,
        shared_estimates={n: float(sol.values[0][n]) for n in shared},
        shared_std_errors={n: sol.std_errors[n] for n in shared}
        if sol.hessian_ok else None,
        shared_conf_intervals={n: sol.conf_intervals[n] for n in shared}
        if sol.hessian_ok else None,
        site_results=site_results,
        loglik=loglik,
        n_obs=n_total,
        n_params=k_global,
        aic=2.0 * k_global - 2.0 * loglik,
        bic=k_global * math.log(n_total) - 2.0 * loglik,
        untied_aic=sum(s.aic for s in singles),
        untied_bic=sum(s.bic for s in singles),
        converged=sol.converged,
        hessian_ok=sol.hessian_ok,
        max_scaled_gradient=sol.max_scaled_gradient,
    )
