"""Command-line front end: config-driven pipeline with file artifacts.

Subcommands cover the pipeline end to end: ``ingest`` (validate, detrend,
summarize), ``fit`` (empirical body plus tail model per site), ``select``
(AIC/BIC across family combinations), ``exi`` (extremal-index curve),
``rl`` (return curves), ``dep`` (pairwise dependence table), ``pool``
(joint fit with tied parameters) and ``simulate`` (synthetic records).

Options come from a YAML config file; the flags ``--site``,
``--rate-family``, ``--scale-family``, ``--out``, ``--seed``,
``--percentile`` and ``--run-length`` override it. Artifacts are
deterministic for a given config and inputs: no timestamps, sorted JSON
keys, and every file embeds the config hash and tool version (JSON keys,
or a leading ``#`` line in CSVs). Set SKEWSURGE_LOG to control log
verbosity (DEBUG/INFO/WARNING/ERROR; default WARNING).

Config schema (all sections optional unless a subcommand needs them)::

    inputs:
      gauge_csv: data/gauges.csv     # site,timestamp,peak_tide_m,...
      gmt_csv: data/gmt.csv          # year,anomaly_c (GMT families only)
    sites: [newlyn, heysham]         # default: every site in the file
    detrend:
      reference_year: 2017
      rates_mm_per_year: {newlyn: 1.52}
    threshold_percentile: 0.95       # in (0.5, 1)
    rate_family: R1                  # fit/rl/dep/pool
    scale_family: S0
    select:                          # default: every family, less
      rate_families: [R0, R1, R2, R3, R4]   # R3/R4/S3/S4 without gmt_csv
      scale_families: [S0, S1, S2, S3, S4]
    fit:                             # other keys are ignored with a warning
      shape_prior: false             # or {mean: 0.0119, variance: 0.0343}
      frozen: {beta_day: 0.0, phi_day: 0.0}   # amplitude and phase together
    run_length: 4
    exi:
      v_quantile: 0.99
      n_levels: 30
    return_levels:
      p_grid: [0.1, 0.01, 0.001, 0.0001]
      scenario: {year: 2017, gmt: null}   # or year_std directly
    dependence:
      p: 0.05
      lags: [-1, 0, 1]
      uniform: true
    pooling:
      shared: [delta_rate]
    simulate:
      site_id: SIM
      n_cycles: 50000
      start: "1950-01-01T00:00"
      threshold: 0.3                 # scalar or 12 monthly values
      tide_mean: 3.0
      tide_amp: 1.0
      body_mean: 0.0
      body_sd: 0.1
      params:
        rate_family: R1
        scale_family: S0
        lam: 0.05
        delta_rate: 0.2
        alpha_sigma: 0.12
        beta_sigma: 0.04
        phi_sigma: 91.25
        gamma_sigma: 0.01
        xi: 0.05
    out_dir: out
    seed: 0
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .body import build_empirical
from .data import (
    GmtSeries,
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
    fit_grid,
    fit_pooled,
    fit_tail,
)
from .returns import Scenario, TideSampleCalendar, return_curve
from .simulate import SimSpec, simulate_series
from .tail import (
    GMT_FAMILIES,
    RATE_FAMILIES,
    SCALE_FAMILIES,
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    YEAR_FAMILIES,
)

log = logging.getLogger("skewsurge")

SUBCOMMANDS = ("ingest", "fit", "select", "exi", "rl", "dep", "pool", "simulate")
_FIT_OPTIONS = ("shape_prior", "frozen")


@dataclass
class RunConfig:
    """Validated, flag-merged run options; hashed canonically for artifacts."""

    gauge_csv: str | None = None
    gmt_csv: str | None = None
    sites: list = field(default_factory=list)
    detrend_rates: dict = field(default_factory=dict)
    detrend_reference_year: int = 2017
    threshold_percentile: float = 0.95
    rate_family: str = "R0"
    scale_family: str = "S0"
    select_rate_families: list | None = None  # None: select_families()
    select_scale_families: list | None = None
    fit_options: dict = field(default_factory=dict)
    run_length: int = 4
    exi_v_quantile: float = 0.99
    exi_n_levels: int = 30
    p_grid: list = field(default_factory=lambda: [0.1, 0.01, 0.001, 0.0001])
    scenario: dict = field(default_factory=dict)
    dependence: dict = field(default_factory=dict)
    pooling_shared: list = field(default_factory=list)
    simulate: dict = field(default_factory=dict)
    out_dir: str = "out"
    seed: int = 0

    @classmethod
    def from_mapping(cls, doc):
        doc = doc or {}
        if not isinstance(doc, dict):
            raise ValueError("config document must be a mapping")
        inputs = doc.get("inputs") or {}
        detrend = doc.get("detrend") or {}
        select = doc.get("select") or {}
        exi = doc.get("exi") or {}
        rl = doc.get("return_levels") or {}
        pooling = doc.get("pooling") or {}
        cfg = cls(
            gauge_csv=inputs.get("gauge_csv"),
            gmt_csv=inputs.get("gmt_csv"),
            sites=list(doc.get("sites") or []),
            detrend_rates=dict(detrend.get("rates_mm_per_year") or {}),
            detrend_reference_year=int(detrend.get("reference_year", 2017)),
            threshold_percentile=float(doc.get("threshold_percentile", 0.95)),
            rate_family=str(doc.get("rate_family", "R0")),
            scale_family=str(doc.get("scale_family", "S0")),
            select_rate_families=list(select.get("rate_families") or ())
            or None,
            select_scale_families=list(select.get("scale_families") or ())
            or None,
            fit_options=dict(doc.get("fit") or {}),
            run_length=int(doc.get("run_length", 4)),
            exi_v_quantile=float(exi.get("v_quantile", 0.99)),
            exi_n_levels=int(exi.get("n_levels", 30)),
            p_grid=[float(p) for p in rl.get("p_grid", [0.1, 0.01, 0.001, 0.0001])],
            scenario=dict(rl.get("scenario") or {}),
            dependence=dict(doc.get("dependence") or {}),
            pooling_shared=list(pooling.get("shared") or []),
            simulate=dict(doc.get("simulate") or {}),
            out_dir=str(doc.get("out_dir", "out")),
            seed=int(doc.get("seed", 0)),
        )
        for key in sorted(set(cfg.fit_options) - set(_FIT_OPTIONS)):
            log.warning("ignoring unknown fit option %r", key)
        cfg.validate()
        return cfg

    def apply_flags(self, args):
        if args.site:
            self.sites = list(args.site)
        if args.rate_family:
            self.rate_family = args.rate_family
        if args.scale_family:
            self.scale_family = args.scale_family
        if args.out:
            self.out_dir = args.out
        if args.seed is not None:
            self.seed = args.seed
        if args.percentile is not None:
            self.threshold_percentile = args.percentile
        if args.run_length is not None:
            self.run_length = args.run_length
        self.validate()
        return self

    def validate(self):
        if not 0.5 < self.threshold_percentile < 1.0:
            raise ValueError(
                f"threshold_percentile {self.threshold_percentile} "
                "outside (0.5, 1)"
            )
        for fam, pool in ((self.rate_family, RATE_FAMILIES),
                          (self.scale_family, SCALE_FAMILIES)):
            if fam not in pool:
                raise ValueError(f"unknown family {fam!r}")
        for kind, fams, pool in (
                ("rate", self.select_rate_families, RATE_FAMILIES),
                ("scale", self.select_scale_families, SCALE_FAMILIES)):
            for fam in fams or ():
                if fam not in pool:
                    raise ValueError(
                        f"unknown {kind} family {fam!r} in select list")
                if fam in GMT_FAMILIES and not self.gmt_csv:
                    raise ValueError(
                        f"{kind} family {fam} in select list needs the GMT "
                        "anomaly: set inputs.gmt_csv")
        if self.run_length < 1:
            raise ValueError("run_length must be >= 1")

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


def _fit_config(cfg, **overrides):
    opts = cfg.fit_options
    prior = opts.get("shape_prior", False)
    if prior is True:
        prior = ShapePrior()
    elif isinstance(prior, dict):
        prior = ShapePrior(mean=float(prior.get("mean", 0.0119)),
                           variance=float(prior.get("variance", 0.0343)))
    else:
        prior = None
    kw = {
        "rate_family": cfg.rate_family,
        "scale_family": cfg.scale_family,
        "shape_prior": prior,
        "run_length": cfg.run_length,
        "frozen": {k: float(v) for k, v in (opts.get("frozen") or {}).items()},
    }
    kw.update(overrides)
    return FitConfig(**kw)


def _load_sites(cfg):
    """Load, detrend and covariate-attach the configured sites."""
    if not cfg.gauge_csv:
        raise ValueError("config is missing inputs.gauge_csv")
    all_series = load_series(cfg.gauge_csv)
    gmt = load_gmt(cfg.gmt_csv) if cfg.gmt_csv else None
    wanted = cfg.sites or sorted(all_series)
    out = {}
    for site in wanted:
        if site not in all_series:
            raise ValueError(f"site {site!r} not present in {cfg.gauge_csv}")
        series = all_series[site]
        rate = cfg.detrend_rates.get(site)
        if rate is not None:
            series = detrend_msl(series, float(rate),
                                 cfg.detrend_reference_year)
        out[site] = attach_covariates(series, gmt=gmt)
    return out, gmt


def _meta(cfg):
    return {"config_hash": cfg.config_hash(), "tool_version": __version__}


def _write_json(path, payload, cfg):
    doc = dict(payload)
    doc.update(_meta(cfg))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _write_csv(path, header, rows, cfg):
    meta = _meta(cfg)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={meta['config_hash']} "
                 f"tool_version={meta['tool_version']}\n")
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
    sc = cfg.scenario
    year_std = sc.get("year_std")
    if year_std is None and sc.get("year") is not None:
        year_std = float(standardize_year(int(sc["year"])))
    gmt = sc.get("gmt")
    for kind, family in (("rate", cfg.rate_family),
                         ("scale", cfg.scale_family)):
        if family in YEAR_FAMILIES and year_std is None:
            need = "year or year_std"
        elif family in GMT_FAMILIES and gmt is None:
            need = "gmt"
        else:
            continue
        raise ValueError(f"return_levels.scenario needs {need} for {kind} "
                         f"family {family}")
    return Scenario(
        year_std=None if year_std is None else float(year_std),
        gmt=None if gmt is None else float(gmt),
    )


def _fit_one(series, cfg):
    """A site's tail fit at the configured thresholds, and the thresholds."""
    thresholds = monthly_thresholds(series, cfg.threshold_percentile)
    return fit_tail(series, _fit_config(cfg), thresholds=thresholds), thresholds


def _fit_model(series, cfg):
    """A site's tail fit and the model that joins it to the empirical body."""
    fit, thresholds = _fit_one(series, cfg)
    body = build_empirical(series, thresholds)
    return fit, SkewSurgeModel(body=body, params=fit.params, thresholds=thresholds)


def _cmd_ingest(cfg, out):
    series_map, _ = _load_sites(cfg)
    summary = {"sites": {}}
    for site, series in series_map.items():
        thresholds = monthly_thresholds(series, cfg.threshold_percentile)
        info = series.summary()
        info["detrend_mm_per_year"] = cfg.detrend_rates.get(site)
        info["monthly_thresholds_m"] = [float(v) for v in thresholds.values]
        summary["sites"][site] = info
        write_series_csv(
            out / f"ingest_{site}.csv", series,
            comment=f"config_hash={cfg.config_hash()} tool_version={__version__}",
        )
    _write_json(out / "ingest.json", summary, cfg)
    return 0


def _cmd_fit(cfg, out):
    series_map, _ = _load_sites(cfg)
    for site, series in series_map.items():
        fit, thresholds = _fit_one(series, cfg)
        doc = fit.to_dict()
        doc["threshold_percentile"] = cfg.threshold_percentile
        doc["monthly_thresholds_m"] = [float(v) for v in thresholds.values]
        name = f"fit_{site}_{cfg.rate_family}{cfg.scale_family}.json"
        _write_json(out / name, doc, cfg)
        log.info("site %s: loglik %.3f converged %s", site, fit.loglik,
                 fit.converged)
    return 0


def _cmd_select(cfg, out):
    series_map, _ = _load_sites(cfg)
    for site, series in series_map.items():
        thresholds = monthly_thresholds(series, cfg.threshold_percentile)
        rfs, sfs = cfg.select_families()
        fit_cfg = _fit_config(cfg, rate_family=rfs[0], scale_family=sfs[0])
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
            table, cfg,
        )
    return 0


def _exi_model(series, cfg):
    """A site's extremal-index curve over the configured levels."""
    return fit_exi_curve(
        series,
        v=float(np.quantile(series.skew_surge, cfg.exi_v_quantile)),
        run_length=cfg.run_length,
        levels=np.quantile(series.skew_surge,
                           np.linspace(0.95, 0.999, cfg.exi_n_levels)),
    )


def _cmd_exi(cfg, out):
    series_map, _ = _load_sites(cfg)
    for site, series in series_map.items():
        model = _exi_model(series, cfg)
        _write_json(out / f"exi_{site}.json", {"site_id": site,
                                               "model": model.to_dict()}, cfg)
        fitted = eval_exi(model, model.levels)
        _write_csv(
            out / f"exi_{site}.csv",
            ["level_m", "runs_theta", "fitted_theta"],
            [[_fmt(l), _fmt(t), _fmt(f)]
             for l, t, f in zip(model.levels, model.runs_theta, fitted)],
            cfg,
        )
    return 0


def _cmd_rl(cfg, out):
    scenario = _scenario(cfg)
    series_map, _ = _load_sites(cfg)
    for site, series in series_map.items():
        fit, model = _fit_model(series, cfg)
        exi_model = _exi_model(series, cfg)
        calendar = TideSampleCalendar.from_series(series)
        curve = return_curve(cfg.p_grid, model, calendar, exi_model, scenario)
        _write_csv(
            out / f"rl_{site}.csv",
            ["p", "return_period_years", "z_m"],
            [[_fmt(p), _fmt(rp), _fmt(z)] for p, rp, z in curve.rows()],
            cfg,
        )
        _write_json(out / f"rl_{site}.json", {
            "site_id": site,
            "curve": curve.to_dict(),
            "scenario": {"year_std": scenario.year_std, "gmt": scenario.gmt},
            "fit": fit.to_dict(),
            "exi": exi_model.to_dict(),
        }, cfg)
    return 0


def _cmd_dep(cfg, out):
    series_map, _ = _load_sites(cfg)
    if len(series_map) < 2:
        raise ValueError("dependence needs at least two sites")
    dep = cfg.dependence
    models = None
    if dep.get("uniform", True):
        models = {}
        for site, series in series_map.items():
            _fit, model = _fit_model(series, cfg)
            models[site] = model
    rows = pairwise_reports(
        series_map,
        lags=tuple(dep.get("lags", (-1, 0, 1))),
        p=float(dep.get("p", 0.05)),
        models=models,
    )
    _write_csv(
        out / "dep.csv",
        ["pair", "lag", "margin", "tau", "chi", "chibar", "p", "n"],
        [[r["pair"], r["lag"], r["margin"], _fmt(r["tau"]), _fmt(r["chi"]),
          _fmt(r["chibar"]), _fmt(r["p"]), r["n"]] for r in rows],
        cfg,
    )
    return 0


def _cmd_pool(cfg, out):
    series_map, _ = _load_sites(cfg)
    if len(series_map) < 2:
        raise ValueError("pooling needs at least two sites")
    if not cfg.pooling_shared:
        raise ValueError("config is missing pooling.shared")
    spec = PooledSpec(datasets=[series_map[s] for s in sorted(series_map)],
                      shared=list(cfg.pooling_shared))
    result = fit_pooled(spec, _fit_config(cfg))
    _write_json(out / "pool.json", result.to_dict(), cfg)
    return 0


def _params_from_mapping(doc):
    rf = doc.get("rate_family", "R0")
    sf = doc.get("scale_family", "S0")
    if rf not in RATE_FAMILIES or sf not in SCALE_FAMILIES:
        raise ValueError(f"unknown simulate families {rf}/{sf}")

    def seq_or_scalar(key):
        v = doc.get(key)
        if v is None:
            return None
        return np.asarray(v, dtype=float) if isinstance(v, (list, tuple)) else float(v)

    rate = RateParams(
        family=rf,
        lam=float(doc.get("lam", 0.05)),
        beta_day=float(doc.get("beta_day", 0.0)),
        phi_day=float(doc.get("phi_day", 0.0)),
        alpha_tide=float(doc.get("alpha_tide", 0.0)),
        beta_tide=float(doc.get("beta_tide", 0.0)),
        phi_tide=float(doc.get("phi_tide", 0.0)),
        delta=seq_or_scalar("delta_rate") if rf != "R0" else None,
    )
    scale = ScaleParams(
        family=sf,
        alpha=float(doc.get("alpha_sigma", 0.1)),
        beta=float(doc.get("beta_sigma", 0.0)),
        phi=float(doc.get("phi_sigma", 0.0)),
        gamma=float(doc.get("gamma_sigma", 0.0)),
        delta=seq_or_scalar("delta_sigma") if sf != "S0" else None,
    )
    return TailParams(rate=rate, scale=scale, xi=float(doc.get("xi", 0.0)))


def _cmd_simulate(cfg, out):
    doc = cfg.simulate
    if not doc:
        raise ValueError("config is missing the simulate section")
    if "n_cycles" not in doc:
        raise ValueError("simulate.n_cycles is required")
    params = _params_from_mapping(doc.get("params") or {})
    needs_gmt = params.rate.family in GMT_FAMILIES \
        or params.scale.family in GMT_FAMILIES
    gmt = load_gmt(cfg.gmt_csv) if (cfg.gmt_csv and needs_gmt) else None
    threshold = doc.get("threshold", 0.3)
    if isinstance(threshold, (list, tuple)):
        threshold = MonthlyThresholds(
            values=np.asarray(threshold, dtype=float), percentile=None
        )
    spec = SimSpec(
        params=params,
        thresholds=threshold,
        n_cycles=int(doc["n_cycles"]),
        start=str(doc.get("start", "1950-01-01T00:00")),
        site_id=str(doc.get("site_id", "SIM")),
        tide_mean=float(doc.get("tide_mean", 3.0)),
        tide_amp=float(doc.get("tide_amp", 1.0)),
        body_mean=float(doc.get("body_mean", 0.0)),
        body_sd=float(doc.get("body_sd", 0.1)),
        gmt=gmt,
    )
    series, params_eff = simulate_series(spec, cfg.seed)
    write_series_csv(
        out / f"sim_{spec.site_id}.csv", series,
        comment=f"config_hash={cfg.config_hash()} tool_version={__version__}",
    )
    _write_json(out / f"sim_{spec.site_id}_truth.json", {
        "site_id": spec.site_id,
        "n_cycles": spec.n_cycles,
        "seed": cfg.seed,
        "params_effective": params_eff.to_dict(),
        "thresholds_m": [float(v) for v in spec.thresholds.values],
    }, cfg)
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
    parser.add_argument("--rate-family", choices=RATE_FAMILIES)
    parser.add_argument("--scale-family", choices=SCALE_FAMILIES)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--percentile", type=float,
                        help="threshold percentile in (0.5, 1)")
    parser.add_argument("--run-length", type=int,
                        help="declustering run length (cycles)")
    return parser


def _setup_logging():
    level = os.environ.get("SKEWSURGE_LOG", "WARNING").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        doc = {}
        if args.config:
            path = Path(args.config)
            if not path.exists():
                raise FileNotFoundError(f"config file not found: {path}")
            with open(path) as fh:  # libyaml's loader where PyYAML has it
                doc = yaml.load(fh, Loader=getattr(
                    yaml, "CSafeLoader", yaml.SafeLoader)) or {}
        cfg = RunConfig.from_mapping(doc).apply_flags(args)
        out = Path(cfg.out_dir)
        made = [d for d in (out, *out.parents) if not d.exists()]
        out.mkdir(parents=True, exist_ok=True)
        try:
            return _HANDLERS[args.subcommand](cfg, out)
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
