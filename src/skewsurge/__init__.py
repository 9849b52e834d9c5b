"""Non-stationary extreme value analysis of tidal skew surges.

Per-cycle threshold exceedances follow a generalized Pareto tail whose
rate and scale vary with season, peak tide and long-term covariates;
below the monthly threshold an empirical tide-banded distribution fills
in the body. On top sit extremal-index declustering, annual-maximum
return levels, multi-site pooled fits, and pairwise tail-dependence
diagnostics, all reachable from the ``skewsurge`` command line.
"""

__version__ = "0.1.0"

from .body import TideBandedEmpirical, build_empirical, eval_body_cdf
from .data import (
    GmtSeries,
    MonthlyThresholds,
    SiteSeries,
    attach_covariates,
    detrend_msl,
    load_gmt,
    load_series,
    monthly_thresholds,
    standardize_year,
    write_series_csv,
)
from .dependence import (
    PairedDailySeries,
    chi_chibar,
    daily_max_pairs,
    kendall_tau,
    pairwise_reports,
    pit_transform,
)
from .exi import ExiModel, eval_exi, fit_exi_curve, runs_estimate
from .fitting import (
    FitConfig,
    FitResult,
    PooledFitResult,
    PooledSpec,
    ShapePrior,
    fit_pooled,
    fit_tail,
    neg_loglik,
    param_names,
)
from .returns import (
    ReturnCurve,
    Scenario,
    TideSampleCalendar,
    annual_max_cdf,
    return_curve,
    return_level,
)
from .simulate import SimSpec, simulate_series
from .tail import (
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    delta_lambda,
    eval_cdf,
    gpd_tail_prob,
    mean_excess,
    rate_at,
    scale_at,
)

__all__ = [
    "__version__",
    "TideBandedEmpirical", "build_empirical", "eval_body_cdf",
    "GmtSeries", "MonthlyThresholds", "SiteSeries", "attach_covariates",
    "detrend_msl", "load_gmt", "load_series", "monthly_thresholds",
    "standardize_year", "write_series_csv",
    "PairedDailySeries", "chi_chibar", "daily_max_pairs", "kendall_tau",
    "pairwise_reports", "pit_transform",
    "ExiModel", "eval_exi", "fit_exi_curve", "runs_estimate",
    "FitConfig", "FitResult", "PooledFitResult", "PooledSpec", "ShapePrior",
    "fit_pooled", "fit_tail", "neg_loglik", "param_names",
    "ReturnCurve", "Scenario", "TideSampleCalendar", "annual_max_cdf",
    "return_curve", "return_level",
    "SimSpec", "simulate_series",
    "RateParams", "ScaleParams", "SkewSurgeModel", "TailParams",
    "delta_lambda", "eval_cdf", "gpd_tail_prob", "mean_excess",
    "rate_at", "scale_at",
]
