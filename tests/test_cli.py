"""End-to-end command-line runs against a small simulated record."""

import argparse
import csv
import json
import logging
from pathlib import Path

import numpy as np
import pytest
import yaml

from skewsurge import __version__
from skewsurge.cli import RunConfig, main

FIT_SECTION = {
    "multi_start": 1,
    "frozen": {"beta_day": 0.0, "phi_day": 0.0, "beta_tide": 0.0,
               "phi_tide": 0.0},
}

SIM_PARAMS = {
    "rate_family": "R0",
    "scale_family": "S0",
    "lam": 0.05,
    "alpha_sigma": 0.12,
    "beta_sigma": 0.04,
    "phi_sigma": 91.25,
    "gamma_sigma": 0.01,
    "xi": 0.05,
}


README = Path(__file__).resolve().parent.parent / "README.md"


def _loaded_alike(text):
    """The document as ``main`` loads it (libyaml's loader where PyYAML has
    it), checked against PyYAML's pure-Python SafeLoader: the same mapping
    with the same scalar types, in the same key order."""
    doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert repr(doc) == repr(yaml.load(text, Loader=yaml.SafeLoader))
    return doc


def _hash_alike(text):
    assert (RunConfig.from_mapping(_loaded_alike(text)).config_hash()
            == RunConfig.from_mapping(yaml.safe_load(text)).config_hash())


def _write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    _loaded_alike(Path(path).read_text())
    return str(path)


@pytest.fixture(scope="module")
def gauges(tmp_path_factory):
    """Two-site gauge CSV produced by the simulate subcommand."""
    root = tmp_path_factory.mktemp("cli_data")
    paths = []
    for site, seed in (("SIM", 0), ("SIM2", 1)):
        cfg = _write_yaml(root / f"sim_{site}.yaml", {
            "simulate": {
                "site_id": site,
                "n_cycles": 6000,
                "threshold": 0.3,
                "params": SIM_PARAMS,
            },
            "seed": seed,
            "out_dir": str(root / f"simout_{site}"),
        })
        assert main(["simulate", "--config", cfg]) == 0
        paths.append(root / f"simout_{site}" / f"sim_{site}.csv")
    lines = paths[0].read_text().splitlines(keepends=True)
    for extra in paths[1:]:
        lines += [
            ln for ln in extra.read_text().splitlines(keepends=True)
            if not (ln.startswith("#") or ln.startswith("site,"))
        ]
    combined = root / "gauges.csv"
    combined.write_text("".join(lines))
    return combined


@pytest.fixture()
def base_doc(gauges):
    return {
        "inputs": {"gauge_csv": str(gauges)},
        "sites": ["SIM"],
        "rate_family": "R0",
        "scale_family": "S0",
        "fit": dict(FIT_SECTION),
    }


class TestRunConfig:
    def test_hash_ignores_document_key_order(self):
        a = RunConfig.from_mapping({"seed": 3, "rate_family": "R1"})
        b = RunConfig.from_mapping({"rate_family": "R1", "seed": 3})
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 16

    def test_hash_is_pinned(self):
        # Artifact headers carry this hash; these values must not move.
        assert RunConfig.from_mapping({}).config_hash() == "5b82964721d2be25"
        doc = {"rate_family": "R1",
               "fit": {"frozen": {"beta_day": 0.0, "phi_day": 0.0}},
               "return_levels": {"scenario": {"year": 2017}}}
        assert RunConfig.from_mapping(doc).config_hash() == "b70453db7aabefa2"

    @pytest.mark.parametrize("block", range(2))
    def test_readme_configs_load_alike(self, block):
        text = README.read_text().split("```yaml\n")[1 + block].split("```")[0]
        assert "out_dir" in _loaded_alike(text)
        _hash_alike(text)

    def test_written_configs_hash_alike(self, tmp_path, base_doc):
        # _write_yaml compares the two loaders on every config it writes
        for doc in ({}, base_doc, {**base_doc, "return_levels": {
                "p_grid": [0.1, 0.01], "scenario": {"year": 2017}}}):
            _hash_alike(Path(_write_yaml(tmp_path / "c.yaml", doc)).read_text())

    def test_hash_tracks_option_changes(self):
        a = RunConfig.from_mapping({})
        b = RunConfig.from_mapping({"threshold_percentile": 0.97})
        assert a.config_hash() != b.config_hash()

    def test_flags_override_document(self):
        ns = argparse.Namespace(
            site=["x"], rate_family="R2", scale_family=None, out="odir",
            seed=9, percentile=0.96, run_length=6,
        )
        cfg = RunConfig.from_mapping({"rate_family": "R0"}).apply_flags(ns)
        assert cfg.rate_family == "R2"
        assert cfg.sites == ["x"]
        assert cfg.out_dir == "odir"
        assert (cfg.seed, cfg.threshold_percentile, cfg.run_length) \
            == (9, 0.96, 6)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="threshold_percentile"):
            RunConfig.from_mapping({"threshold_percentile": 0.4})
        with pytest.raises(ValueError, match="family"):
            RunConfig.from_mapping({"rate_family": "R9"})
        with pytest.raises(ValueError, match="run_length"):
            RunConfig.from_mapping({"run_length": 0})
        with pytest.raises(ValueError, match="mapping"):
            RunConfig.from_mapping(["not", "a", "dict"])


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        doc = {
            "simulate": {"n_cycles": 500, "threshold": 0.3,
                         "params": SIM_PARAMS},
            "seed": 5,
        }
        doc["out_dir"] = str(tmp_path / "one")
        cfg = _write_yaml(tmp_path / "sim.yaml", doc)
        assert main(["simulate", "--config", cfg]) == 0
        a = (tmp_path / "one" / "sim_SIM.csv").read_bytes()
        assert main(["simulate", "--config", cfg]) == 0
        b = (tmp_path / "one" / "sim_SIM.csv").read_bytes()
        assert a == b
        truth = json.loads(
            (tmp_path / "one" / "sim_SIM_truth.json").read_text()
        )
        assert truth["seed"] == 5
        assert truth["tool_version"] == __version__
        assert len(truth["config_hash"]) == 16
        assert a.decode().startswith("# config_hash=")

    def test_seed_flag_changes_output(self, tmp_path):
        doc = {"simulate": {"n_cycles": 200, "params": SIM_PARAMS}}
        cfg = _write_yaml(tmp_path / "sim.yaml", doc)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--seed", "7",
              "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "sim_SIM.csv").read_bytes() \
            != (tmp_path / "b" / "sim_SIM.csv").read_bytes()

    def test_missing_section_fails_cleanly(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "bad.yaml", {"seed": 1})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "simulate" in capsys.readouterr().err


class TestIngest:
    def test_summary_and_csv(self, tmp_path, base_doc):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["ingest", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "ingest.json").read_text())
        info = summary["sites"]["SIM"]
        assert len(info["monthly_thresholds_m"]) == 12
        assert info["n_cycles"] == 6000
        assert (out / "ingest_SIM.csv").exists()

    def test_unknown_site_fails(self, tmp_path, base_doc, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        rc = main(["ingest", "--config", cfg, "--site", "NOPE",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "NOPE" in capsys.readouterr().err


class TestFit:
    def test_fit_artifact(self, tmp_path, base_doc):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "fit_SIM_R0S0.json").read_text())
        assert doc["converged"] is True
        assert abs(doc["estimates"]["lam"] - 0.05) < 0.01
        assert doc["threshold_percentile"] == 0.95
        assert doc["config_hash"] == RunConfig.from_mapping(
            yaml.safe_load(Path(cfg).read_text())
        ).apply_flags(argparse.Namespace(
            site=None, rate_family=None, scale_family=None, out=str(out),
            seed=None, percentile=None, run_length=None,
        )).config_hash()

    def test_percentile_flag_reaches_artifact(self, tmp_path, base_doc):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out),
                     "--percentile", "0.94"]) == 0
        doc = json.loads((out / "fit_SIM_R0S0.json").read_text())
        assert doc["threshold_percentile"] == 0.94


class TestSelect:
    def test_score_table(self, tmp_path, base_doc):
        base_doc["select"] = {"rate_families": ["R0", "R1"],
                              "scale_families": ["S0"]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["select", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "select_SIM.csv").read_text().splitlines()
        assert text[0].startswith("# config_hash=")
        rows = list(csv.DictReader(text[1:]))
        assert [r["rate_family"] for r in rows] == ["R0", "R1"]
        assert sum(int(r["aic_best"]) for r in rows) == 1
        assert sum(int(r["bic_best"]) for r in rows) == 1
        # one more parameter must not lose log likelihood
        assert float(rows[1]["loglik"]) >= float(rows[0]["loglik"]) - 1e-6

    def test_unknown_fit_option_warns_once(self, tmp_path, base_doc, caplog):
        assert "multi_start" in base_doc["fit"]  # no longer a fit option
        base_doc["select"] = {"rate_families": ["R0", "R1"],
                              "scale_families": ["S0"]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            assert main(["select", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        named = [r for r in caplog.records if "multi_start" in r.getMessage()]
        assert len(named) == 1 and named[0].levelno == logging.WARNING


class TestExi:
    def test_curve_artifacts(self, tmp_path, base_doc):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["exi", "--config", cfg, "--out", str(out),
                     "--run-length", "6"]) == 0
        doc = json.loads((out / "exi_SIM.json").read_text())
        assert doc["model"]["run_length"] == 6
        assert 0.0 < doc["model"]["theta_v"] <= 1.0
        rows = (out / "exi_SIM.csv").read_text().splitlines()
        assert rows[1].split(",") == ["level_m", "runs_theta",
                                      "fitted_theta"]
        assert len(rows) == 2 + 30


class TestReturnLevels:
    def test_curve_artifacts(self, tmp_path, base_doc):
        base_doc["return_levels"] = {"p_grid": [0.1, 0.01]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["rl", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "rl_SIM.json").read_text())
        z = doc["curve"]["z_m"]
        assert z[1] > z[0]  # the rarer event sits higher
        assert doc["fit"]["converged"] is True
        assert "exi" in doc
        rows = (out / "rl_SIM.csv").read_text().splitlines()
        assert rows[1] == "p,return_period_years,z_m"
        first = rows[2].split(",")
        assert float(first[0]) == 0.01
        np.testing.assert_allclose(float(first[1]), 100.0, rtol=1e-12)

    def test_scenario_year_shifts_levels_with_trend_family(
            self, tmp_path, base_doc):
        base_doc["rate_family"] = "R1"
        base_doc["return_levels"] = {"p_grid": [0.05]}
        docs = {}
        for year in (1950, 2020):
            base_doc["return_levels"]["scenario"] = {"year": year}
            cfg = _write_yaml(tmp_path / f"c{year}.yaml", base_doc)
            out = tmp_path / f"out{year}"
            assert main(["rl", "--config", cfg, "--out", str(out)]) == 0
            docs[year] = json.loads((out / "rl_SIM.json").read_text())
        assert docs[1950]["scenario"]["year_std"] \
            != docs[2020]["scenario"]["year_std"]
        # the data carry no trend, so the two levels differ only through
        # the fitted trend coefficient; both runs must at least succeed
        assert docs[1950]["curve"]["z_m"][0] > 0.0


class TestDependence:
    def test_raw_table(self, tmp_path, base_doc):
        base_doc["sites"] = ["SIM", "SIM2"]
        base_doc["dependence"] = {"p": 0.05, "lags": [0],
                                  "uniform": False}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["dep", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "dep.csv").read_text().splitlines()
        rows = list(csv.DictReader(text[1:]))
        assert len(rows) == 1
        assert rows[0]["pair"] == "SIM-SIM2"
        assert rows[0]["margin"] == "raw"
        assert -1.0 <= float(rows[0]["tau"]) <= 1.0

    def test_needs_two_sites(self, tmp_path, base_doc, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        assert main(["dep", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "two sites" in capsys.readouterr().err


class TestPool:
    def test_joint_fit_artifact(self, tmp_path, base_doc):
        base_doc["sites"] = ["SIM", "SIM2"]
        base_doc["pooling"] = {"shared": ["xi"]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["pool", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "pool.json").read_text())
        assert doc["shared_names"] == ["xi"]
        assert "xi" in doc["shared_estimates"]
        total = sum(r["loglik"] for r in doc["site_results"])
        np.testing.assert_allclose(doc["loglik"], total, atol=1e-6)

    def test_missing_shared_list(self, tmp_path, base_doc, capsys):
        base_doc["sites"] = ["SIM", "SIM2"]
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        assert main(["pool", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "pooling.shared" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["fit", "--config", str(tmp_path / "absent.yaml"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "absent.yaml" in capsys.readouterr().err

    def test_missing_gauge_csv_key(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml", {"seed": 0})
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "gauge_csv" in capsys.readouterr().err

    def test_nonexistent_gauge_path(self, tmp_path, capsys):
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"inputs": {"gauge_csv": "no/such.csv"}})
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "no/such.csv" in capsys.readouterr().err

    def test_yaml_syntax_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("inputs: {gauge_csv: [a.csv\n")
        assert main(["fit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
