"""Command-line front end: config-driven pipeline with file artifacts.

Subcommands cover the pipeline end to end: ``ingest`` (validate, detrend,
summarize), ``fit`` (empirical body plus tail model per site), ``select``
(AIC/BIC across family combinations), ``exi`` (extremal-index curve),
``rl`` (return curves), ``dep`` (pairwise dependence table), ``pool``
(joint fit with tied parameters) and ``simulate`` (synthetic records).

Options come from a YAML config file; the flags ``--site``,
``--rate-family``, ``--scale-family``, ``--out``, ``--seed``,
``--percentile`` and ``--run-length`` override it, each read by its
key's reader, the last three as YAML reads their text. As it loads,
before any data, a key that the schema below lacks is ignored with a
warning naming it, a bare name where a list is expected is a one-item
list, and a bad value, or one outside the range the schema gives, exits
1 naming its key.
Artifacts are deterministic for a given config and inputs: no
timestamps, sorted JSON keys, and every file embeds the config hash and
tool version (JSON keys, or a leading ``#`` line in CSVs). SKEWSURGE_LOG
sets the log level: DEBUG, INFO, WARNING (default) or ERROR, any case.

Config schema (all sections optional unless a subcommand needs them)::

    inputs:
      gauge_csv: data/gauges.csv     # site,timestamp,peak_tide_m,...
      gmt_csv: data/gmt.csv          # year,anomaly_c (GMT families only)
    sites: [newlyn, heysham]         # default: every site in the file
    detrend:
      reference_year: 2017
      rates_mm_per_year: {newlyn: 1.52}
    threshold_percentile: 0.95       # in (0.5, 1): u_j of ingest and every fit
    rate_family: R1                  # fit/rl/dep/pool
    scale_family: S0
    select:                          # default: every family, less
      rate_families: [R0, R1, R2, R3, R4]   # R3/R4/S3/S4 without gmt_csv
      scale_families: [S0, S1, S2, S3, S4]
    fit:
      shape_prior: {mean: 0.0119, variance: 0.0343}  # or true; default off
      frozen: {beta_day: 0.0, phi_day: 0.0}   # amplitude and phase together
    run_length: 4                    # >= 1; only the exi/rl extremal index
    exi:
      v_quantile: 0.99               # in (0, 1)
      n_levels: 30    # >= 3, equally spaced in probability, 0.95 to 0.999
    return_levels:
      p_grid: [0.1, 0.01, 0.001, 0.0001]  # each in [1e-6, 0.5]
      scenario: {year: 2017, gmt: null}
    dependence:
      p: 0.05                        # in (0, 1)
      lags: [-1, 0, 1]               # nonempty
      uniform: true
    pooling:                         # fitted at threshold_percentile
      shared: [delta_rate]
    simulate:         # params unset: 0, but lam 0.05 and alpha_sigma 0.1
      site_id: SIM                   # not blank
      n_cycles: 50000                # >= 2
      start: "1950-01-01T00:00"      # a date and time numpy reads
      threshold: 0.3                 # scalar or 12 monthly values
      tide_mean: 3.0
      tide_amp: 1.0                  # > 0
      body_mean: 0.0
      body_sd: 0.1                   # > 0
      params: {rate_family: R1, scale_family: S0, xi: 0.05,  # the fit's names
               lam: 0.05, beta_day: 0.0, phi_day: 0.0, alpha_tide: 0.0,
               beta_tide: 0.0, phi_tide: 0.0, alpha_sigma: 0.12,
               beta_sigma: 0.04, phi_sigma: 91.25, gamma_sigma: 0.01,
               delta_rate: 0.2, delta_sigma: 0.0}  # seasonal: 4, winter first
    out_dir: out
    seed: 0                          # >= 0
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from copy import copy
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .body import build_empirical
from .data import (
    attach_covariates,
    detrend_msl,
    load_gmt,
    load_series,
    monthly_thresholds,
    standardize_year,
    write_series_csv,
    MonthlyThresholds,
)
from .dependence import pairwise_reports
from .exi import eval_exi, fit_exi_curve
from .fitting import (
    FitConfig,
    PooledSpec,
    ShapePrior,
    _check_shared,
    _prior_variance,
    fit_grid,
    fit_pooled,
    fit_tail,
)
from .returns import Scenario, TideSampleCalendar, _p_grid, return_curve
from .simulate import SimSpec, _in_range, simulate_series
from .tail import (
    GMT_FAMILIES,
    RATE_FAMILIES,
    SCALE_FAMILIES,
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    YEAR_FAMILIES,
    _trend_names,
    params_to_values,
    values_to_params,
)

log = logging.getLogger("skewsurge")

SUBCOMMANDS = ("ingest", "fit", "select", "exi", "rl", "dep", "pool", "simulate")
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's, if built


def _mapping(v):
    if not isinstance(v, dict):
        raise TypeError(f"expected a mapping, not {v!r}")
    return dict(v)


def _list_of(read):
    """A reader of a list of ``read`` items; a bare name is one item."""
    def read_list(v):
        if not isinstance(v, (list, tuple, str)):
            raise TypeError(f"expected a list, not {v!r}")
        return [read(x) for x in ([v] if isinstance(v, str) else v)]
    return read_list


def _nonempty(items):
    if not items:
        raise ValueError("expected a nonempty list")
    return items


def _one_of(choices):
    """A reader of one of ``choices``."""
    def read(v):
        if v not in choices:
            raise ValueError(f"{v!r} is not one of {', '.join(choices)}")
        return v
    return read


def _number(v):
    """A finite number: an int, a float or text that ``float`` reads
    (PyYAML loads ``1e-3`` as text), but not a bool."""
    if isinstance(v, bool) or not np.isfinite(float(v)):
        raise ValueError(f"expected a finite number, not {v!r}")
    return float(v)


def _text(v):
    if not isinstance(v, str):
        raise TypeError(f"expected text, not {v!r}: quote the value")
    return v


def _between(lo, hi):
    """A reader of a number in the open interval (lo, hi)."""
    def read(v):
        if not lo < _number(v) < hi:
            raise ValueError(f"expected a value in ({lo}, {hi}), not {v}")
        return float(v)
    return read


def _whole(v, lo=-np.inf):
    """A whole number no less than ``lo``: an int or a float with no
    fraction, not a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or v % 1:
        raise TypeError(f"expected a whole number, not {v!r}")
    if v < lo:
        raise ValueError(f"expected at least {lo}, not {v}")
    return int(v)


def _at_least(lo):
    """A reader of a whole number no less than ``lo``."""
    return lambda v: _whole(v, lo)


def _boolean(v):
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, not {v!r}")
    return v


def _read(path, read, value):
    """``read(value)``, its error raised again naming the config key."""
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config {path}: {exc}") from None


def _numbers(v):
    """One number or a list of them, as a list."""
    return [_number(x) for x in (v if isinstance(v, list) else [v])]


def _thresholds(v):
    """simulate.threshold as written: one value, or one a month."""
    read = _numbers(v)
    if len(read) not in (1, 12):
        raise ValueError(f"expected one value or 12, not {len(read)}")
    return read if isinstance(v, list) else read[0]


_RATE, _SCALE = _one_of(RATE_FAMILIES), _one_of(SCALE_FAMILIES)
# simulate.params' unset values: the library's, less the scale harmonic.
_SIM_DEFAULTS = params_to_values(TailParams(RateParams(), ScaleParams(beta=0.0)))

# The keys inside the mapping-valued fields and their readers. Handlers
# pass on only the keys that are set, so callees keep their own defaults.
_KEYS = {
    "fit": {"shape_prior": lambda v: v if isinstance(v, bool) else _mapping(v),
            "frozen": _mapping},
    "fit.shape_prior": {"mean": _number,
                        "variance": lambda v: _prior_variance(_number(v))},
    "return_levels.scenario": {"year": _whole, "gmt": _number},
    "dependence": {"p": _between(0, 1),
                   "lags": lambda v: _nonempty(_list_of(_whole)(v)),
                   "uniform": _boolean},
    # the ranges the library owns are read by its own checks
    "simulate": {"site_id": lambda v: _in_range("site_id", _text(v)),
                 "start": lambda v: _in_range("start", _text(v)),
                 "n_cycles": lambda v: _in_range("n_cycles", _whole(v)),
                 **dict.fromkeys(("tide_mean", "body_mean"), _number),
                 "tide_amp": lambda v: _in_range("tide_amp", _number(v)),
                 "body_sd": lambda v: _in_range("body_sd", _number(v)),
                 "params": _mapping, "threshold": _thresholds},
    "simulate.params": {
        "rate_family": _RATE, "scale_family": _SCALE,
        **dict.fromkeys(_SIM_DEFAULTS, _number),
        **dict.fromkeys(("delta_rate", "delta_sigma"), _numbers)},
}
# Mappings of free names (parameters, sites) to numbers, read name by name.
_NAMED = {"fit.frozen", "detrend.rates_mm_per_year"}


def _key(path, read, default=None):
    """A RunConfig field read from the config key ``path`` by ``read``."""
    return field(default_factory=lambda: copy(default),
                 metadata={"path": path, "read": read})


@dataclass
class RunConfig:
    """Validated, flag-merged run options; hashed canonically for artifacts."""

    gauge_csv: str | None = _key("inputs.gauge_csv", _text)
    gmt_csv: str | None = _key("inputs.gmt_csv", _text)
    sites: list = _key("sites", _list_of(_text), [])
    detrend_rates: dict = _key("detrend.rates_mm_per_year", _mapping, {})
    detrend_reference_year: int = _key("detrend.reference_year", _whole, 2017)
    threshold_percentile: float = _key("threshold_percentile",
                                       _between(0.5, 1), 0.95)
    rate_family: str = _key("rate_family", _RATE, "R0")
    scale_family: str = _key("scale_family", _SCALE, "S0")
    select_rate_families: list | None = _key(  # None: select_families()
        "select.rate_families", lambda v: _list_of(_RATE)(v) or None)
    select_scale_families: list | None = _key(
        "select.scale_families", lambda v: _list_of(_SCALE)(v) or None)
    fit_options: dict = _key("fit", _mapping, {})
    run_length: int = _key("run_length", _at_least(1), 4)
    exi_v_quantile: float = _key("exi.v_quantile", _between(0, 1), 0.99)
    exi_n_levels: int = _key("exi.n_levels", _at_least(3), 30)
    p_grid: list = _key("return_levels.p_grid",  # as return_curve takes it
                        lambda v: _p_grid(_list_of(_number)(v)).tolist(),
                        [0.1, 0.01, 0.001, 0.0001])
    scenario: dict = _key("return_levels.scenario", _mapping, {})
    dependence: dict = _key("dependence", _mapping, {})
    pooling_shared: list = _key("pooling.shared", _list_of(_text), [])
    simulate: dict = _key("simulate", _mapping, {})
    out_dir: str = _key("out_dir", _text, "out")
    seed: int = _key("seed", _at_least(0), 0)

    @classmethod
    def from_mapping(cls, doc):
        read = {}
        _read_section(_read("document", _mapping, doc or {}), "", read)
        cfg = cls(**{name: read[path] for name, (path, _) in _FIELDS.items()
                     if read.get(path) is not None})
        cfg.validate()
        return cfg

    def apply_flags(self, args):
        """The flags' values, each read like the config key it overrides:
        the number flags' text as the YAML value it is in a config file."""
        for flag, name in _FLAGS.items():
            value = getattr(args, flag)
            if value is not None:
                path, read = _FIELDS[name]
                if flag in _YAML_FLAGS:
                    value = _read(path, _yaml_value, value)
                setattr(self, name, _read(path, read, value))
        return self

    def validate(self):
        for kind, listed in (("rate", self.select_rate_families),
                             ("scale", self.select_scale_families)):
            gmt = [fam for fam in listed or () if fam in GMT_FAMILIES]
            if gmt and not self.gmt_csv:
                raise ValueError(
                    f"{kind} family {gmt[0]} in select list needs the GMT "
                    "anomaly: set inputs.gmt_csv")

    def select_families(self):
        """(rate, scale) families for ``select``: the listed ones, by
        default every family, leaving out the GMT ones (R3/R4/S3/S4) when
        no GMT file is given."""
        def pick(listed, families):
            if listed is not None:
                return listed
            return [f for f in families
                    if self.gmt_csv or f not in GMT_FAMILIES]
        return (pick(self.select_rate_families, RATE_FAMILIES),
                pick(self.select_scale_families, SCALE_FAMILIES))

    def config_hash(self):
        doc = asdict(self)
        # An unlisted select list hashes as the full list it used to be
        # stored as, so artifacts keep their hash.
        doc["select_rate_families"] = (self.select_rate_families
                                       or list(RATE_FAMILIES))
        doc["select_scale_families"] = (self.select_scale_families
                                        or list(SCALE_FAMILIES))
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


_FIELDS = {f.name: (f.metadata["path"], f.metadata["read"])
           for f in fields(RunConfig)}
_FLAGS = {"site": "sites", "rate_family": "rate_family",
          "scale_family": "scale_family", "out": "out_dir", "seed": "seed",
          "percentile": "threshold_percentile", "run_length": "run_length"}
_YAML_FLAGS = {"seed", "percentile", "run_length"}
# Every config key path and its reader, and every path that holds keys.
_READERS = dict(_FIELDS.values()) | {
    f"{s}.{k}": read for s, keys in _KEYS.items() for k, read in keys.items()}
_SECTIONS = {path.rpartition(".")[0] for path in _READERS if "." in path}
_SECTIONS |= _NAMED


def _read_section(doc, prefix, read):
    """The set keys of the config mapping ``doc`` at ``prefix``, each read
    (sections in turn) and put in ``read`` by path; unknown keys warn once."""
    values = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        reader = _number if prefix[:-1] in _NAMED else _READERS.get(path)
        if prefix[:-1] in _NAMED:  # a free name: a site or a parameter
            _read(path, _text, key)
        if reader is None and path not in _SECTIONS:
            log.warning("ignoring unknown config key %s", path)
        elif value is not None:
            value = _read(path, reader or _mapping, value)
            if isinstance(value, dict) and path in _SECTIONS:
                value = _read_section(value, f"{path}.", read)
            values[key] = read[path] = value
    return values


def _fit_config(cfg, **overrides):
    opts = dict(cfg.fit_options)
    prior = opts.pop("shape_prior", False)
    if prior is not False:
        opts["shape_prior"] = ShapePrior(**({} if prior is True else prior))
    return FitConfig(**{"rate_family": cfg.rate_family,
                        "scale_family": cfg.scale_family, **opts, **overrides})


def _load_sites(cfg):
    """Load, detrend and covariate-attach the configured sites."""
    if not cfg.gauge_csv:
        raise ValueError("config is missing inputs.gauge_csv")
    all_series = load_series(cfg.gauge_csv)
    for site in cfg.detrend_rates:
        if site not in all_series:
            raise ValueError(f"config detrend.rates_mm_per_year.{site}: site "
                             f"{site!r} not present in {cfg.gauge_csv}")
    gmt = load_gmt(cfg.gmt_csv) if cfg.gmt_csv else None
    wanted = cfg.sites or sorted(all_series)
    out = {}
    for site in wanted:
        if site not in all_series:
            raise ValueError(f"site {site!r} not present in {cfg.gauge_csv}")
        series = all_series[site]
        if site in cfg.detrend_rates:
            series = detrend_msl(series, cfg.detrend_rates[site],
                                 cfg.detrend_reference_year)
        try:
            out[site] = attach_covariates(series, gmt=gmt)
        except KeyError as exc:  # a record year that the GMT file lacks
            raise ValueError(f"site {site!r}: {exc.args[0]} in inputs.gmt_csv "
                             f"{cfg.gmt_csv}") from None
    return out


def _stamp(meta):
    """The ``config_hash=... tool_version=...`` line of a CSV artifact."""
    return (f"config_hash={meta['config_hash']} "
            f"tool_version={meta['tool_version']}")


def _write_json(path, payload, meta):
    doc = dict(payload)
    doc.update(meta)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _write_csv(path, header, rows, meta):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {_stamp(meta)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


def _fmt(x):
    if x is None:
        return ""
    return f"{x:.10g}"


def _scenario(cfg):
    """The return-level scenario, refused if it lacks a trend covariate
    that the configured families need."""
    for kind, family in (("rate", cfg.rate_family),
                         ("scale", cfg.scale_family)):
        need = ("year" if family in YEAR_FAMILIES
                else "gmt" if family in GMT_FAMILIES else None)
        if need and need not in cfg.scenario:
            raise ValueError(f"return_levels.scenario needs {need} for {kind} "
                             f"family {family}")
    year = cfg.scenario.get("year")
    year_std = None if year is None else float(standardize_year(year))
    return Scenario(year_std=year_std, gmt=cfg.scenario.get("gmt"))


def _fit_one(series, cfg, fit_cfg):
    """A site's tail fit at the configured thresholds, and the thresholds."""
    thresholds = monthly_thresholds(series, cfg.threshold_percentile)
    return fit_tail(series, fit_cfg, thresholds=thresholds), thresholds


def _fit_model(series, cfg, fit_cfg):
    """A site's tail fit and the model that joins it to the empirical body."""
    fit, thresholds = _fit_one(series, cfg, fit_cfg)
    body = build_empirical(series, thresholds)
    return fit, SkewSurgeModel(body=body, params=fit.params, thresholds=thresholds)


def _cmd_ingest(cfg, out, meta):
    series_map = _load_sites(cfg)
    summary = {"sites": {}}
    for site, series in series_map.items():
        thresholds = monthly_thresholds(series, cfg.threshold_percentile)
        info = series.summary()
        info["detrend_mm_per_year"] = cfg.detrend_rates.get(site)
        info["monthly_thresholds_m"] = [float(v) for v in thresholds.values]
        summary["sites"][site] = info
        write_series_csv(out / f"ingest_{site}.csv", series,
                         comment=_stamp(meta))
    _write_json(out / "ingest.json", summary, meta)
    return 0


def _cmd_fit(cfg, out, meta):
    fit_cfg = _fit_config(cfg)
    series_map = _load_sites(cfg)
    for site, series in series_map.items():
        fit, thresholds = _fit_one(series, cfg, fit_cfg)
        doc = fit.to_dict()
        doc["threshold_percentile"] = cfg.threshold_percentile
        doc["monthly_thresholds_m"] = [float(v) for v in thresholds.values]
        name = f"fit_{site}_{cfg.rate_family}{cfg.scale_family}.json"
        _write_json(out / name, doc, meta)
        log.info("site %s: loglik %.3f converged %s", site, fit.loglik,
                 fit.converged)
    return 0


def _cmd_select(cfg, out, meta):
    rfs, sfs = cfg.select_families()
    fit_cfg = _fit_config(cfg, rate_family=rfs[0], scale_family=sfs[0])
    series_map = _load_sites(cfg)
    for site, series in series_map.items():
        thresholds = monthly_thresholds(series, cfg.threshold_percentile)
        fits = fit_grid(series, fit_cfg, rfs, sfs, thresholds=thresholds)
        rows = []
        for sf in sfs:
            for rf in rfs:
                fit = fits[rf, sf]
                rows.append([rf, sf, fit.n_params, fit.loglik, fit.aic,
                             fit.bic, fit.converged])
                log.info("site %s %s/%s: aic %.2f bic %.2f", site, rf, sf,
                         fit.aic, fit.bic)
        aic_min = min(r[4] for r in rows)
        bic_min = min(r[5] for r in rows)
        table = [
            [r[0], r[1], r[2], _fmt(r[3]), _fmt(r[4]), _fmt(r[5]),
             int(r[4] == aic_min), int(r[5] == bic_min), int(r[6])]
            for r in rows
        ]
        _write_csv(
            out / f"select_{site}.csv",
            ["rate_family", "scale_family", "n_params", "loglik", "aic",
             "bic", "aic_best", "bic_best", "converged"],
            table, meta,
        )
    return 0


def _exi_model(series, cfg):
    """A site's extremal-index curve: v and the levels are quantiles, the
    levels equally spaced in probability from 0.95 to 0.999."""
    x = series.skew_surge
    return fit_exi_curve(
        series, float(np.quantile(x, cfg.exi_v_quantile)),
        np.quantile(x, np.linspace(0.95, 0.999, cfg.exi_n_levels)),
        run_length=cfg.run_length)


def _cmd_exi(cfg, out, meta):
    series_map = _load_sites(cfg)
    for site, series in series_map.items():
        model = _exi_model(series, cfg)
        _write_json(out / f"exi_{site}.json", {"site_id": site,
                                               "model": model.to_dict()}, meta)
        fitted = eval_exi(model, model.levels)
        _write_csv(
            out / f"exi_{site}.csv",
            ["level_m", "runs_theta", "fitted_theta"],
            [[_fmt(l), _fmt(t), _fmt(f)]
             for l, t, f in zip(model.levels, model.runs_theta, fitted)],
            meta,
        )
    return 0


def _cmd_rl(cfg, out, meta):
    scenario, fit_cfg = _scenario(cfg), _fit_config(cfg)
    series_map = _load_sites(cfg)
    for site, series in series_map.items():
        fit, model = _fit_model(series, cfg, fit_cfg)
        exi_model = _exi_model(series, cfg)
        calendar = TideSampleCalendar.from_series(series)
        curve = return_curve(cfg.p_grid, model, calendar, exi_model, scenario)
        _write_csv(
            out / f"rl_{site}.csv",
            ["p", "return_period_years", "z_m"],
            [[_fmt(p), _fmt(rp), _fmt(z)] for p, rp, z in curve.rows()],
            meta,
        )
        _write_json(out / f"rl_{site}.json", {
            "site_id": site,
            "curve": curve.to_dict(),
            "scenario": {"year_std": scenario.year_std, "gmt": scenario.gmt},
            "fit": fit.to_dict(),
            "exi": exi_model.to_dict(),
        }, meta)
    return 0


def _cmd_dep(cfg, out, meta):
    dep, fit_cfg = dict(cfg.dependence), _fit_config(cfg)
    series_map = _load_sites(cfg)
    if len(series_map) < 2:
        raise ValueError("dependence needs at least two sites")
    models = None
    if dep.pop("uniform", True):
        models = {site: _fit_model(series, cfg, fit_cfg)[1]
                  for site, series in series_map.items()}
    rows = pairwise_reports(series_map, models=models, **dep)
    _write_csv(
        out / "dep.csv",
        ["pair", "lag", "margin", "tau", "chi", "chibar", "p", "n"],
        [[r["pair"], r["lag"], r["margin"], _fmt(r["tau"]), _fmt(r["chi"]),
          _fmt(r["chibar"]), _fmt(r["p"]), r["n"]] for r in rows],
        meta,
    )
    return 0


def _cmd_pool(cfg, out, meta):
    fit_cfg = _fit_config(cfg)
    if not cfg.pooling_shared:
        raise ValueError("config is missing pooling.shared")
    _read("pooling.shared", lambda v: _check_shared(v, fit_cfg),
          cfg.pooling_shared)
    series_map = _load_sites(cfg)
    if len(series_map) < 2:
        raise ValueError("pooling needs at least two sites")
    spec = PooledSpec(
        datasets=[(s, monthly_thresholds(s, cfg.threshold_percentile))
                  for _, s in sorted(series_map.items())],
        shared=list(cfg.pooling_shared))
    result = fit_pooled(spec, fit_cfg)
    _write_json(out / "pool.json", result.to_dict(), meta)
    return 0


def _sim_params(doc):
    """TailParams from the read simulate.params and _SIM_DEFAULTS."""
    values = {"rate_family": "R0", "scale_family": "S0", **_SIM_DEFAULTS,
              **doc}
    rf, sf = values.pop("rate_family"), values.pop("scale_family")
    for name, family in (("delta_rate", rf), ("delta_sigma", sf)):
        deltas = values.pop(name, [])
        slots = _trend_names(family, name)
        if slots and len(deltas) != len(slots):
            raise ValueError(f"config simulate.params.{name}: families "
                             f"{rf}/{sf} take {len(slots)} value(s), "
                             f"not {len(deltas)}")
        values.update(zip(slots, deltas))
    # the rate standardizers are placeholders: simulate_series sets them
    return values_to_params(values, rf, sf, RateParams())


def _cmd_simulate(cfg, out, meta):
    if not cfg.simulate:
        raise ValueError("config is missing the simulate section")
    doc = dict(cfg.simulate)
    if "n_cycles" not in doc:
        raise ValueError("simulate.n_cycles is required")
    params = _sim_params(doc.pop("params", {}))
    needs_gmt = {params.rate.family, params.scale.family} & GMT_FAMILIES
    gmt = load_gmt(cfg.gmt_csv) if (cfg.gmt_csv and needs_gmt) else None
    spec = SimSpec(params=params, thresholds=MonthlyThresholds(
        np.full(12, doc.pop("threshold", 0.3))), gmt=gmt, **doc)
    series, params_eff = simulate_series(spec, cfg.seed)
    write_series_csv(out / f"sim_{spec.site_id}.csv", series,
                     comment=_stamp(meta))
    _write_json(out / f"sim_{spec.site_id}_truth.json", {
        "site_id": spec.site_id,
        "n_cycles": spec.n_cycles,
        "seed": cfg.seed,
        "params_effective": params_eff.to_dict(),
        "thresholds_m": [float(v) for v in spec.thresholds.values],
    }, meta)
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "fit": _cmd_fit,
    "select": _cmd_select,
    "exi": _cmd_exi,
    "rl": _cmd_rl,
    "dep": _cmd_dep,
    "pool": _cmd_pool,
    "simulate": _cmd_simulate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skewsurge",
        description="Skew-surge extreme value pipeline "
                    "(tail fits, return levels, dependence).",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--site", action="append",
                        help="restrict to a site (repeatable)")
    # no type or choices: RunConfig.apply_flags reads each value as its key
    parser.add_argument("--rate-family", help=f"one of {', '.join(RATE_FAMILIES)}")
    parser.add_argument("--scale-family", help=f"one of {', '.join(SCALE_FAMILIES)}")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed")
    parser.add_argument("--percentile",
                        help="threshold percentile in (0.5, 1)")
    parser.add_argument("--run-length",
                        help="declustering run length (cycles)")
    return parser


def _yaml_value(text):
    """``text`` read as the config file's loader reads a value."""
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError:
        raise ValueError(f"{text!r} is not a YAML value") from None


def _setup_logging():
    level = os.environ.get("SKEWSURGE_LOG", "WARNING").upper()
    try:
        _one_of(("DEBUG", "INFO", "WARNING", "ERROR"))(level)
    except ValueError as exc:
        raise ValueError(f"SKEWSURGE_LOG: {exc}") from None
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        doc = {}
        if args.config:
            path = Path(args.config)
            if not path.exists():
                raise FileNotFoundError(f"config file not found: {path}")
            with open(path) as fh:
                doc = yaml.load(fh, Loader=_LOADER) or {}
        cfg = RunConfig.from_mapping(doc).apply_flags(args)
        meta = {"config_hash": cfg.config_hash(), "tool_version": __version__}
        out = Path(cfg.out_dir)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        try:
            return _HANDLERS[args.subcommand](cfg, out, meta)
        finally:  # a run that wrote nothing leaves no directory it made
            for d in made:  # out first, then its parents
                if any(d.iterdir()):
                    break
                d.rmdir()
    except (ValueError, FileNotFoundError, RuntimeError, KeyError,
            OSError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
