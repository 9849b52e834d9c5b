"""Benchmark workloads: seeded inputs, timed pipeline steps, answer checks.

Each workload is a batch job: one process and one caller running its
pipeline steps in sequence (a closed loop). ``setup`` builds the inputs
from the seed, ``steps`` lists the timed pipeline as named steps, each a
function of the outputs of the steps before it, and ``check`` verifies
the answers outside the timed window using public functions only. The
package receives only the generated record (CSV files or SiteSeries);
the true parameters stay on the benchmark's side.

Package functions are called through their modules (``data.load_series``
rather than an imported name) so that the tracer's patches see them.
"""

from __future__ import annotations

import json
import math

import numpy as np
import yaml
from scipy.stats import kendalltau

from skewsurge import (body, cli, data, dependence, exi, fitting, returns,
                       simulate, tail)
from skewsurge.tail import RateParams, ScaleParams, TailParams

# The README quick-start model: R1/S0, every harmonic free.
TRUTH = TailParams(
    rate=RateParams(family="R1", lam=0.05, delta=0.2),
    scale=ScaleParams(family="S0", alpha=0.12, beta=0.04, phi=91.25, gamma=0.01),
    xi=0.05,
)
THRESHOLD = 0.3
N_CYCLES = 35_000  # about 49 years of tidal cycles
# fit_frozen fits many half-length sites: how many evaluations a fit takes
# varies with the data (coefficient of variation 0.23 per 35,000-cycle
# site, 0.14 per 17,500-cycle one), and a run's total over 12 sites
# varies a quarter as much as one site's.
N_FIT_SITES = 12
N_FIT_CYCLES = 17_500
N_POOL_CYCLES = 15_000
N_TABLE_SITES = 4
# The rate harmonics the acceptance tests freeze at their true value of 0.
FROZEN_RATE_HARMONICS = {"beta_day": 0.0, "phi_day": 0.0,
                         "beta_tide": 0.0, "phi_tide": 0.0}

P_GRID = np.geomspace(1e-4, 1e-1, 20)
SCENARIO_YEARS = (1950, 2017, 2100)
LAGS = (-1, 0, 1)
CHI_P = 0.05
LOGLIK_SLACK = 1e-6
POOL_LOGLIK_GAP = 1e-8
TAU_TOL = 1e-12


def site_seed(seed, k):
    """Simulation seed of site k under benchmark seed ``seed``."""
    return 100 * seed + k


def simulate_site(seed, k, n_cycles, site_id):
    """(series, effective truth, thresholds) of one synthetic site."""
    spec = simulate.SimSpec(params=TRUTH, thresholds=THRESHOLD,
                            n_cycles=n_cycles, site_id=site_id)
    series, truth = simulate.simulate_series(spec, site_seed(seed, k))
    return series, truth, spec.thresholds


def truth_model(series, truth, thresholds):
    return tail.SkewSurgeModel(body=body.build_empirical(series, thresholds),
                               params=truth, thresholds=thresholds)


def write_config(workdir, name, csv_path, fit_options):
    """A CLI run config reading ``csv_path``; returns its path."""
    config = {
        "inputs": {"gauge_csv": str(csv_path)},
        "rate_family": TRUTH.rate.family,
        "scale_family": TRUTH.scale.family,
        "threshold_percentile": 0.95,
        "fit": fit_options,
        "pooling": {"shared": ["delta_rate"]},
        "seed": 0,
        "out_dir": str(workdir / "out"),
    }
    path = workdir / f"{name}.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh)
    return path


def cli_step(subcommand, config_path):
    return lambda outputs: cli.main([subcommand, "--config", str(config_path)])


def read_artifact(path, rc):
    """The JSON a CLI run wrote, removed so a later run must write its own."""
    if rc != 0 or not path.exists():
        return None
    doc = json.loads(path.read_text())
    path.unlink()
    return doc


class SiteFits:
    """Sites in CSVs of their own, each fitted by one in-process CLI ``fit``.

    One step and one operation per site.
    """

    def __init__(self, n_sites, n_cycles, fit_options):
        self.n_sites = n_sites
        self.n_cycles = n_cycles
        self.fit_options = fit_options
        self.ops = n_sites

    def setup(self, seed, workdir):
        sites = []
        for k in range(self.n_sites):
            series, truth, _ = simulate_site(seed, k, self.n_cycles,
                                             f"S{k}")
            csv_path = workdir / f"gauge_S{k}.csv"
            data.write_series_csv(csv_path, [series])
            sites.append({
                "id": f"S{k}", "csv": csv_path, "truth": truth,
                "config": write_config(workdir, f"fit_S{k}", csv_path,
                                       self.fit_options),
            })
        return {"sites": sites, "out": workdir / "out"}

    def steps(self, state):
        return [(f"fit {site['id']}", cli_step("fit", site["config"]))
                for site in state["sites"]]

    def check(self, state, outputs):
        fam = TRUTH.rate.family + TRUTH.scale.family
        failed, fields = 0, {}
        for site in state["sites"]:
            doc = read_artifact(state["out"] / f"fit_{site['id']}_{fam}.json",
                                outputs[f"fit {site['id']}"])
            if doc is None:
                failed += 1
                fields[site["id"]] = None
                continue
            got = {k: doc[k] for k in ("loglik", "converged", "hessian_ok",
                                       "max_scaled_gradient", "n_iter")}
            got["truth_loglik"] = self._truth_loglik(site)
            failed += not (doc["converged"] and math.isfinite(doc["loglik"])
                           and doc["loglik"] >= got["truth_loglik"]
                           - LOGLIK_SLACK)
            fields[site["id"]] = got
        return failed, fields

    @staticmethod
    def _truth_loglik(site):
        """Log-likelihood of the simulator's truth on the fitted data."""
        if "truth_loglik" not in site:
            loaded = data.load_series(site["csv"])[site["id"]]
            series = data.attach_covariates(loaded)
            thresholds = data.monthly_thresholds(series, 0.95)
            site["truth_loglik"] = -fitting.neg_loglik(
                site["truth"], series, thresholds)
        return site["truth_loglik"]


class PoolFit:
    """Two sites in one CSV, one joint CLI ``pool`` fit with ``delta_rate``
    shared. One operation per run."""

    ops = 1

    def setup(self, seed, workdir):
        sites = [simulate_site(seed, k, N_POOL_CYCLES, f"S{k}")[0]
                 for k in range(2)]
        csv_path = workdir / "gauges.csv"
        data.write_series_csv(csv_path, sites)
        return {"config": write_config(workdir, "pool", csv_path,
                                       {"multi_start": 1}),
                "out": workdir / "out"}

    def steps(self, state):
        return [("pool", cli_step("pool", state["config"]))]

    def check(self, state, outputs):
        doc = read_artifact(state["out"] / "pool.json", outputs["pool"])
        if doc is None:
            return 1, {"exit_code": outputs["pool"]}
        fields = {k: doc[k] for k in ("loglik", "converged", "hessian_ok",
                                      "max_scaled_gradient")}
        fields["delta_rate"] = doc["shared_estimates"]["delta_rate"]
        site_sum = sum(r["loglik"] for r in doc["site_results"])
        fields["site_loglik_gap"] = abs(doc["loglik"] - site_sum)
        ok = (doc["converged"] and math.isfinite(doc["loglik"])
              and fields["site_loglik_gap"] <= POOL_LOGLIK_GAP)
        return int(not ok), fields


def _daily_max(timestamps, values):
    days = timestamps.astype("datetime64[D]")
    uniq, inverse = np.unique(days, return_inverse=True)
    out = np.full(uniq.size, -np.inf)
    np.maximum.at(out, inverse, values)
    return uniq, out


class Tables:
    """The library path to a study's tables.

    Several sites in one CSV are loaded and given covariates, and their
    pairwise dependence table is built on raw and uniform margins (truth
    models). Then return curves of site S0 (20 levels x 3 scenario years)
    are computed from a truth model, the empirical body, a fitted extremal
    index curve and a tide calendar, all built in set-up.
    """

    n_rows = math.comb(N_TABLE_SITES, 2) * 2 * len(LAGS)
    ops = n_rows + len(P_GRID) * len(SCENARIO_YEARS)

    def setup(self, seed, workdir):
        sites = [simulate_site(seed, k, N_CYCLES, f"S{k}")
                 for k in range(N_TABLE_SITES)]
        csv_path = workdir / "gauges.csv"
        data.write_series_csv(csv_path, [s for s, _, _ in sites])
        models = {s.site_id: truth_model(s, t, thr) for s, t, thr in sites}
        series = sites[0][0]
        skew = series.skew_surge
        exi_model = exi.fit_exi_curve(
            series, v=float(np.quantile(skew, 0.99)), run_length=4,
            levels=np.quantile(skew, np.linspace(0.95, 0.999, 30)),
        )
        return {
            "csv": csv_path,
            "models": models,
            "curve_args": (models["S0"],
                           returns.TideSampleCalendar.from_series(series),
                           exi_model),
            "scenarios": [
                returns.Scenario(year_std=float(data.standardize_year(y)))
                for y in SCENARIO_YEARS
            ],
        }

    def steps(self, state):
        def load(outputs):
            return {site: data.attach_covariates(series)
                    for site, series in data.load_series(state["csv"]).items()}

        def pairs(outputs):
            return dependence.pairwise_reports(outputs["load"], lags=LAGS,
                                               p=CHI_P, models=state["models"])

        def curve(scenario):
            return lambda outputs: returns.return_curve(
                P_GRID, *state["curve_args"], scenario)

        return [("load", load), ("pairwise", pairs)] + [
            (f"curve {year}", curve(scenario))
            for year, scenario in zip(SCENARIO_YEARS, state["scenarios"])
        ]

    def check(self, state, outputs):
        failed_rows, fields = self._check_rows(state, outputs)
        failed_levels, fields["return_levels"] = self._check_curves(state,
                                                                    outputs)
        return failed_rows + failed_levels, fields

    def _tau_reference(self, state, series_map, row):
        """scipy's tau-b of a table row, from daily maxima built here."""
        refs = state.setdefault("tau_refs", {})
        key = (row["pair"], row["margin"], row["lag"])
        if key not in refs:
            daily = state.setdefault("daily", {})

            def daily_values(site):
                if (site, row["margin"]) not in daily:
                    series = series_map[site]
                    if row["margin"] == "uniform":
                        series = dependence.pit_transform(
                            series, state["models"][site])
                    daily[site, row["margin"]] = _daily_max(
                        series.timestamps, series.skew_surge)
                return daily[site, row["margin"]]

            site_a, site_b = row["pair"].split("-")
            da, va = daily_values(site_a)
            db, vb = daily_values(site_b)
            _, ia, ib = np.intersect1d(
                da, db - np.timedelta64(row["lag"], "D"), return_indices=True)
            refs[key] = (kendalltau(va[ia], vb[ib]).statistic, ia.size)
        return refs[key]

    def _check_rows(self, state, outputs):
        rows = outputs["pairwise"]
        failed = self.n_rows - len(rows)
        for row in rows:
            tau_ref, n_ref = self._tau_reference(state, outputs["load"], row)
            ok = (math.isfinite(row["tau"])
                  and abs(row["tau"] - tau_ref) <= TAU_TOL
                  and 0.0 <= row["chi"] <= 1.0
                  and row["n"] == n_ref)
            failed += not ok
        first = [r for r in rows if r["pair"] == "S0-S1" and r["lag"] == 0]
        fields = {r["margin"]: {k: r[k] for k in ("tau", "chi", "chibar", "n")}
                  for r in first}
        return failed, fields

    def _check_curves(self, state, outputs):
        failed, fields = 0, {}
        args = state["curve_args"]
        for year, scenario in zip(SCENARIO_YEARS, state["scenarios"]):
            curve = outputs[f"curve {year}"]
            order = np.argsort(curve.p)
            monotone = bool(np.all(np.diff(curve.z[order]) <= 0.0))
            for p, z in zip(curve.p, curve.z):
                ok = monotone and math.isfinite(z) and abs(
                    returns.annual_max_cdf(z, *args, scenario) - (1.0 - p)
                ) < returns.RETURN_LEVEL_TOL
                failed += not ok
            fields[str(year)] = {
                "z_p0.01": returns.return_level(0.01, *args, scenario),
                "z": curve.z.tolist(),
            }
        return failed, fields


WORKLOADS = {
    "fit_frozen": SiteFits(N_FIT_SITES, N_FIT_CYCLES, {
        "multi_start": 1, "frozen": FROZEN_RATE_HARMONICS}),
    "tables": Tables(),
    # Runnable by name: the fits as users run them, every harmonic free.
    # Their cost varies several-fold with the seed, and pool fails to
    # converge on some seeds (see README.md).
    "site_fit": SiteFits(1, N_CYCLES, {"multi_start": 5}),
    "pool": PoolFit(),
}
# The workloads listed in BENCHMARK.json.
DRIVEN = ("fit_frozen", "tables")
