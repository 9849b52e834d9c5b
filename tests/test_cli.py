"""End-to-end command-line runs against a small simulated record."""

import argparse
import copy
import csv
import hashlib
import json
import logging
import re
import shlex
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from skewsurge import SimSpec, __version__, simulate_series
from skewsurge import cli
from skewsurge.cli import RunConfig, main
from skewsurge.data import (attach_covariates, load_series,
                            monthly_thresholds, write_series_csv)
from skewsurge.fitting import FitConfig, ShapePrior, fit_tail
from skewsurge.tail import (
    RATE_FAMILIES,
    SCALE_FAMILIES,
    RateParams,
    ScaleParams,
    TailParams,
    param_names,
)

FIT_SECTION = {
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


QUICK_START_PINS = Path(__file__).with_name("quick_start_pins.json")


def _artifacts(root):
    """Every file that the quick start writes under ``root``, by its path
    there: a simulated record (``sim_*.csv``) as the SHA-256 of its bytes,
    another CSV as its text, a JSON file as its value. ``json.dump`` of
    this dict writes ``QUICK_START_PINS``."""
    out = {}
    for folder in ("simout", "simout2", "out"):
        for path in sorted((root / folder).iterdir()):
            name = path.relative_to(root).as_posix()
            if path.name.startswith("sim_") and path.suffix == ".csv":
                out[name] = {"sha256": hashlib.sha256(
                    path.read_bytes()).hexdigest()}
            elif path.suffix == ".csv":
                out[name] = {"text": path.read_bytes().decode()}
            else:
                out[name] = {"json": json.loads(path.read_text())}
    return out


def _same_json(got, want, where):
    """``got`` has ``want``'s keys, list lengths and non-float values
    exactly, and its floats to a relative 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(
            want, rel=1e-9, abs=0.0), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


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

    def test_whole_numbers_read_from_integral_floats(self):
        cfg = RunConfig.from_mapping({
            "seed": 3.0, "run_length": 2, "exi": {"n_levels": 4.0},
            "dependence": {"lags": [-1.0, 0], "uniform": False},
            "return_levels": {"scenario": {"year": 2050.0}},
            "simulate": {"n_cycles": 100.0}})
        got = (cfg.seed, cfg.run_length, cfg.exi_n_levels,
               *cfg.dependence["lags"], cfg.scenario["year"],
               cfg.simulate["n_cycles"])
        assert got == (3, 2, 4, -1, 0, 2050, 100)
        assert all(type(v) is int for v in got)
        assert cfg.dependence["uniform"] is False

    def test_hash_leaves_out_keys_the_schema_ignores(self):
        doc = {"fit": {"frozen": {"beta_day": 0.0},
                       "shape_prior": {"mean": 0.1}},
               "simulate": {"n_cycles": 500, "params": {"lam": 0.05}}}
        want = RunConfig.from_mapping(doc).config_hash()
        doc["fit"]["multi_start"] = 1
        doc["fit"]["shape_prior"]["spread"] = 2.0
        doc["simulate"]["params"]["lamda"] = 0.1
        assert RunConfig.from_mapping(doc).config_hash() == want

    @pytest.mark.parametrize("section", [
        {"simulate": {"n_cycles": "many"}},
        {"return_levels": {"scenario": {"year": "late"}}},
        {"dependence": {"p": "small"}},
    ])
    def test_malformed_section_fails_any_subcommand_before_loading(
            self, tmp_path, capsys, section):
        # the hash reads every section, so fit reports one it does not use
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"inputs": {"gauge_csv": "no/such.csv"}, **section})
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "no/such.csv" not in err

    @pytest.mark.parametrize("block", range(2))
    def test_readme_configs_load_alike(self, block):
        text = README.read_text().split("```yaml\n")[1 + block].split("```")[0]
        assert "out_dir" in _loaded_alike(text)
        _hash_alike(text)

    def test_readme_library_use_runs(self, tmp_path, monkeypatch):
        # The "Library use" block as README.md has it, on a simulated
        # gauges.csv holding the site it names.
        block = README.read_text().split("## Library use")[1]
        block = block.split("```python\n")[1].split("```")[0]
        spec = SimSpec(params=TailParams(
            rate=RateParams(family="R1", lam=0.05, delta=0.2),
            scale=ScaleParams(family="S0", alpha=0.12, beta=0.04,
                              phi=91.25, gamma=0.01),
            xi=0.05), thresholds=0.3, n_cycles=8000, site_id="newlyn")
        write_series_csv(tmp_path / "gauges.csv", simulate_series(spec, 3)[0])
        monkeypatch.chdir(tmp_path)
        scope = {}
        exec(compile(block, str(README), "exec"), scope)
        assert np.isfinite(scope["z100"])

    def test_readme_quick_start_runs(self, tmp_path, monkeypatch):
        # README's sim.yaml and run.yaml, then every `skewsurge` line of
        # the shell block that follows them, in order; then dep and pool
        # on that site and a second one (sim.yaml as SIM2, seed 1), as
        # CI's quick-start step runs them
        readme = README.read_text()
        for name in ("sim.yaml", "run.yaml"):
            block = re.search(rf"```yaml\n# {re.escape(name)}\n(.*?)```",
                              readme, re.S).group(1)
            (tmp_path / name).write_text(block)
        after = readme.split("# run.yaml\n")[1]
        shell = after.split("```sh\n")[1].split("```")[0]
        commands = [shlex.split(line, comments=True)[1:]
                    for line in shell.splitlines()
                    if line.startswith("skewsurge ")]
        assert [c[0] for c in commands] == ["simulate", "fit", "rl", "select",
                                          "exi"]
        monkeypatch.chdir(tmp_path)
        for args in commands:
            assert main(args) == 0, args
        sim2 = Path("sim.yaml").read_text().replace("site_id: SIM\n",
                                                    "site_id: SIM2\n")
        assert "SIM2" in sim2
        Path("sim2.yaml").write_text(sim2)
        assert main(["simulate", "--config", "sim2.yaml", "--seed", "1",
                     "--out", "simout2"]) == 0
        second = Path("simout2/sim_SIM2.csv").read_text().splitlines(True)
        Path("both.csv").write_text(Path("simout/sim_SIM.csv").read_text()
                                    + "".join(second[2:]))
        run = Path("run.yaml").read_text()
        assert "gauge_csv: simout/sim_SIM.csv" in run
        Path("both.yaml").write_text(
            run.replace("simout/sim_SIM.csv", "both.csv")
            + "pooling:\n  shared: [delta_rate]\n")
        for sub in ("dep", "pool"):
            assert main([sub, "--config", "both.yaml"]) == 0, sub
        found = _artifacts(tmp_path)
        pins = json.loads(QUICK_START_PINS.read_text())
        assert sorted(found) == sorted(pins)
        for name, want in pins.items():
            _same_json(found[name], want, name)

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
        # argparse gives each flag's text
        ns = argparse.Namespace(
            site=["x"], rate_family="R2", scale_family=None, out="odir",
            seed="9", percentile="0.96", run_length="6",
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

    def test_yaml_exponent_text_reads_as_a_number(self):
        # PyYAML loads 1e-4 and 2E-3 as text, 1.0e-3 as a float
        doc = yaml.safe_load("return_levels: {p_grid: [1e-4, 2E-3]}")
        assert doc["return_levels"]["p_grid"] == ["1e-4", "2E-3"]
        cfg = RunConfig.from_mapping(doc)
        assert cfg.p_grid == [0.0001, 0.002]
        assert cfg.config_hash() == RunConfig.from_mapping(
            {"return_levels": {"p_grid": [0.0001, 0.002]}}).config_hash()

    def test_numbers_are_not_read_as_text(self):
        # YAML 1.1 reads 01 as the int 1: a site id must be quoted
        with pytest.raises(ValueError, match="config sites: expected text, "
                                             "not 1: quote the value"):
            RunConfig.from_mapping(yaml.safe_load("sites: [01]"))
        assert RunConfig.from_mapping(
            yaml.safe_load("sites: ['01']")).sites == ["01"]

    def test_bare_name_is_a_one_item_list(self):
        bare = RunConfig.from_mapping({
            "sites": "newlyn", "pooling": {"shared": "delta_rate"},
            "select": {"rate_families": "R1"}})
        assert (bare.sites, bare.pooling_shared, bare.select_rate_families) \
            == (["newlyn"], ["delta_rate"], ["R1"])
        listed = RunConfig.from_mapping({
            "sites": ["newlyn"], "pooling": {"shared": ["delta_rate"]},
            "select": {"rate_families": ["R1"]}})
        assert bare.config_hash() == listed.config_hash()

    def test_unknown_keys_warn_once_each(self, caplog):
        doc = {"threshold_percentil": 0.9, "seed": 1,
               "return_levels": {"p_grid": [0.1],
                                 "scenario": {"year": 2017, "yeer": 2017}},
               "dependence": {"lags": [0], "lag": [0]},
               "fit": {"shape_prior": {"mean": 0.0, "meen": 0.0}},
               "simulate": {"n_cycles": 10,
                            "params": {"lam": 0.1, "lamm": 0.1}}}
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            cfg = RunConfig.from_mapping(doc)
        assert cfg.threshold_percentile == 0.95
        assert [r.getMessage() for r in caplog.records] == [
            f"ignoring unknown config key {path}" for path in (
                "threshold_percentil", "return_levels.scenario.yeer",
                "dependence.lag", "fit.shape_prior.meen",
                "simulate.params.lamm")]

    def test_docstring_schema_lists_every_key(self, caplog):
        # The schema block's key paths are the fields' config keys, the
        # keys known inside the mapping-valued ones, and their sections:
        # each one is documented, and nothing else is.
        keys = ({f.metadata["path"] for f in fields(RunConfig)}
                | {f"{section}.{key}" for section, known in cli._KEYS.items()
                   for key in known})
        sections = {path.rpartition(".")[0] for path in keys if "." in path}

        def paths(doc, prefix=""):
            for key, value in doc.items():
                yield prefix + key
                if prefix + key in sections and isinstance(value, dict):
                    yield from paths(value, f"{prefix}{key}.")

        block = yaml.safe_load(
            textwrap.dedent(cli.__doc__.split("::\n")[1]))
        assert set(paths(block)) == keys | sections
        assert set(cli._READERS) == keys
        # and the documented values are read without a warning
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            RunConfig.from_mapping(block)
        assert caplog.records == []

    def test_ignored_keys_leave_every_field_alone(self, caplog):
        doc = {"seed": 1, "inputs": {"gauge_csv": "g.csv"},
               "fit": {"frozen": {"beta_day": 0.0},
                       "shape_prior": {"mean": 0.1}},
               "return_levels": {"scenario": {"year": 2017}},
               "simulate": {"n_cycles": 10, "params": {"lam": 0.1}}}
        noisy = copy.deepcopy(doc)
        noisy["seeed"] = 2
        noisy["inputs"]["gauge"] = "h.csv"
        noisy["fit"]["multi_start"] = 5
        noisy["fit"]["shape_prior"]["spread"] = 2.0
        noisy["return_levels"]["scenario"]["yeer"] = 2050
        noisy["simulate"]["params"]["lamda"] = 0.2
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            plain, ignored = (RunConfig.from_mapping(doc),
                              RunConfig.from_mapping(noisy))
        assert len(caplog.records) == 6
        for f in fields(RunConfig):
            assert getattr(ignored, f.name) == getattr(plain, f.name), f.name

    @pytest.mark.parametrize("flag,value,key,reason", [
        ("--percentile", "0.4", "threshold_percentile",
         "expected a value in (0.5, 1), not 0.4"),
        ("--run-length", "0", "run_length", "expected at least 1, not 0"),
        # argparse checks no type or choice: the key's reader does
        ("--rate-family", "R9", "rate_family",
         "'R9' is not one of R0, R1, R2, R3, R4"),
        ("--seed", "1.5", "seed", "expected a whole number, not 1.5"),
        ("--run-length", "0.5", "run_length",
         "expected a whole number, not 0.5"),
    ])
    def test_out_of_range_flag_fails_like_its_key(self, tmp_path, capsys,
                                                  flag, value, key, reason):
        # the gauge file is missing too: the value is read before any data
        doc = {"inputs": {"gauge_csv": "no/such.csv"}}
        out = tmp_path / "out"
        cfg = _write_yaml(tmp_path / "c.yaml", doc)
        assert main(["exi", "--config", cfg, "--out", str(out),
                     flag, value]) == 1
        by_flag = capsys.readouterr().err
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {**doc, key: yaml.safe_load(value)})
        assert main(["exi", "--config", cfg, "--out", str(out)]) == 1
        assert by_flag == capsys.readouterr().err \
            == f"error: config {key}: {reason}\n"
        assert not out.exists()

    def test_readme_lists_every_parameter_name(self):
        # Each bullet of "Model parameters" adds its names to the families
        # it heads (a range like R0–R4, a list like R1, R3, or every pair).
        block = README.read_text().split("### Model parameters")[1]
        names = {}
        for head, text in re.findall(r"^- \*\*(.+?):\*\*(.*?)(?=^\S|^$)",
                                     block.split("\n### ")[0], re.M | re.S):
            lo, _, hi = head.partition("–")
            families = ([f"{lo[0]}{k}" for k in range(int(lo[1]), int(hi[1]) + 1)]
                        if hi else head.split(", "))
            for family in families:
                names.setdefault(family, []).extend(re.findall(r"`(\w+)`", text))
        xi = names.pop("Every pair")
        assert len(names) == 10
        for rf in RATE_FAMILIES:
            for sf in SCALE_FAMILIES:
                assert names[rf] + names[sf] + xi == param_names(rf, sf)


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

    def test_written_bytes_are_pinned(self, tmp_path, monkeypatch):
        # The digest of the file the per-row writer first wrote for this
        # config; ``out_dir`` is relative because it is part of the hash
        # in the file's comment line.
        monkeypatch.chdir(tmp_path)
        cfg = _write_yaml(tmp_path / "sim.yaml", {
            "simulate": {"n_cycles": 2000, "threshold": 0.3,
                         "params": SIM_PARAMS},
            "seed": 0,
            "out_dir": "simout",
        })
        assert main(["simulate", "--config", cfg]) == 0
        written = (tmp_path / "simout" / "sim_SIM.csv").read_bytes()
        assert hashlib.sha256(written).hexdigest() == (
            "62f1bbcda8952198585c7bd2ebeff5fd5fe86ad65b2d45a636fd1690d9b66c16")

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

    def test_missing_cycle_count_fails_cleanly(self, tmp_path, capsys):
        doc = {"simulate": {"params": SIM_PARAMS}}
        with pytest.raises(ValueError,
                           match="^simulate.n_cycles is required$"):
            cli._cmd_simulate(RunConfig.from_mapping(doc), tmp_path, {})
        cfg = _write_yaml(tmp_path / "bad.yaml", doc)
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            "error: simulate.n_cycles is required\n")


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


    def test_detrend_rate_for_a_site_not_in_the_file_fails(
            self, tmp_path, base_doc, capsys):
        base_doc["detrend"] = {"rates_mm_per_year": {"SIM": 1.5, "SMI": 1.5}}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "o"
        assert main(["ingest", "--config", cfg, "--out", str(out)]) == 1
        assert "detrend.rates_mm_per_year.SMI" in capsys.readouterr().err
        assert not out.exists()

    def test_detrend_rate_for_a_site_left_out_is_allowed(self, tmp_path,
                                                          base_doc):
        base_doc.pop("sites")
        base_doc["detrend"] = {"rates_mm_per_year": {"SIM": 1.5, "SIM2": 2.0}}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "o"
        assert main(["ingest", "--config", cfg, "--site", "SIM",
                     "--out", str(out)]) == 0
        sites = json.loads((out / "ingest.json").read_text())["sites"]
        assert list(sites) == ["SIM"]
        assert sites["SIM"]["detrend_mm_per_year"] == 1.5

    @pytest.mark.parametrize("field, bad", [
        ("peak_tide", "nan"), ("skew_surge", "inf"), ("max_sea_level", "-inf"),
    ], ids=["nan", "inf", "-inf"])
    def test_a_level_that_is_not_finite_is_refused_by_every_run(
            self, tmp_path, base_doc, gauges, capsys, field, bad):
        lines = gauges.read_text().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("SIM,"))
        row = lines[at].rstrip("\n").split(",")
        row[2 + ("peak_tide", "max_sea_level", "skew_surge").index(field)] = bad
        lines[at] = ",".join(row) + "\n"
        (tmp_path / "g.csv").write_text("".join(lines))
        base_doc["inputs"]["gauge_csv"] = str(tmp_path / "g.csv")
        base_doc["sites"] = ["SIM", "SIM2"]
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        for command in ("ingest", "fit", "exi", "dep"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"error: site SIM: column {field} is not finite at "
                f"{row[1].rstrip('Z')}\n")
            assert not out.exists()


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

    def test_base_config_logs_no_warning(self, tmp_path, base_doc, caplog):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            assert main(["fit", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelno >= logging.WARNING] == []

    def test_gmt_file_without_a_record_year_names_site_and_file(
            self, tmp_path, base_doc, gauges, capsys):
        years = np.unique(load_series(gauges)["SIM"].year)
        assert years.size > 1
        gmt = tmp_path / "gmt.csv"
        gmt.write_text("year,anomaly_c\n" + "".join(
            f"{y},0.1\n" for y in years[:-1]))
        base_doc["inputs"]["gmt_csv"] = str(gmt)
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: site 'SIM': no GMT anomaly for year {years[-1]} "
            f"in inputs.gmt_csv {gmt}\n")

    def test_empty_body_cell_fits_but_has_no_model(self, tmp_path, base_doc,
                                                   gauges, capsys):
        # One peak tide all March leaves that month's upper tide bands empty:
        # the tail fit needs no body, a return curve does.
        lines = gauges.read_text().splitlines(keepends=True)
        flat = [re.sub(r"^(SIM,\d{4}-03-[^,]*),[^,]*,", r"\1,3.000000,", line)
                for line in lines]
        assert sum(a != b for a, b in zip(lines, flat)) > 100
        base_doc["inputs"]["gauge_csv"] = str(tmp_path / "flat.csv")
        (tmp_path / "flat.csv").write_text("".join(flat))
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads((out / "fit_SIM_R0S0.json").read_text())["converged"]
        assert main(["rl", "--config", cfg, "--out", str(out)]) == 1
        assert "month 3 tide band 1 is empty" in capsys.readouterr().err

    def test_percentile_flag_reaches_artifact(self, tmp_path, base_doc):
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out),
                     "--percentile", "0.94"]) == 0
        doc = json.loads((out / "fit_SIM_R0S0.json").read_text())
        assert doc["threshold_percentile"] == 0.94

    @pytest.mark.parametrize("prior, expected", [
        (True, ShapePrior()),
        ({"mean": 0.1, "variance": 0.01}, ShapePrior(0.1, 0.01)),
    ], ids=["default", "mapping"])
    def test_shape_prior_reaches_the_fit(self, tmp_path, base_doc, gauges,
                                         prior, expected):
        base_doc["fit"]["shape_prior"] = prior
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "fit_SIM_R0S0.json").read_text())
        series = attach_covariates(load_series(gauges)["SIM"])
        fit = fit_tail(series, FitConfig(frozen=FIT_SECTION["frozen"],
                                         shape_prior=expected),
                       monthly_thresholds(series, 0.95))
        assert (doc["loglik"], doc["estimates"]) == (fit.loglik,
                                                     fit.estimates)


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
        base_doc["fit"]["multi_start"] = 1  # no longer a fit option
        base_doc["select"] = {"rate_families": ["R0", "R1"],
                              "scale_families": ["S0"]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        with caplog.at_level(logging.WARNING, logger="skewsurge"):
            assert main(["select", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        named = [r for r in caplog.records if "multi_start" in r.getMessage()]
        assert len(named) == 1 and named[0].levelno == logging.WARNING


    def test_default_lists_leave_out_gmt_families_without_a_gmt_file(self):
        plain = RunConfig.from_mapping({})
        assert plain.select_families() == (["R0", "R1", "R2"],
                                           ["S0", "S1", "S2"])
        with_gmt = RunConfig.from_mapping({"inputs": {"gmt_csv": "g.csv"}})
        assert with_gmt.select_families() == (
            ["R0", "R1", "R2", "R3", "R4"], ["S0", "S1", "S2", "S3", "S4"])
        listed = RunConfig.from_mapping(
            {"select": {"rate_families": ["R1", "R0"]}})
        assert listed.select_families() == (["R1", "R0"],
                                            ["S0", "S1", "S2"])

    @pytest.mark.parametrize("section", [
        {"rate_families": ["R0", "R3"]},
        {"scale_families": ["S4"]},
        {"rate_families": ["R0", "R1", "R2", "R3", "R4"]},
    ])
    def test_listed_gmt_family_without_a_gmt_file_fails_before_loading(
            self, tmp_path, capsys, section):
        doc = {"inputs": {"gauge_csv": "no/such.csv"}, "select": section}
        with pytest.raises(ValueError, match="gmt_csv"):
            RunConfig.from_mapping(doc)
        cfg = _write_yaml(tmp_path / "c.yaml", doc)
        assert main(["select", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gmt_csv" in err
        assert "no/such.csv" not in err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("families,scenario,message", [
        (("R1", "S0"), {}, "needs year for rate family R1"),
        (("R0", "S3"), {"year": 2017}, "needs gmt for scale family S3"),
    ])
    def test_scenario_without_a_family_covariate_fails_before_loading(
            self, tmp_path, capsys, families, scenario, message):
        doc = {"inputs": {"gauge_csv": "no/such.csv"},
               "rate_family": families[0], "scale_family": families[1],
               "return_levels": {"scenario": scenario}}
        cfg = _write_yaml(tmp_path / "c.yaml", doc)
        assert main(["rl", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: return_levels.scenario {message}\n"

    def test_fit_options_and_hash_are_read_once_per_run(
            self, tmp_path, base_doc, monkeypatch):
        # two sites, each fitted and each writing two artifacts
        calls = {"fit_config": 0, "config_hash": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "_fit_config",
                            counted("fit_config", cli._fit_config))
        monkeypatch.setattr(RunConfig, "config_hash",
                            counted("config_hash", RunConfig.config_hash))
        base_doc["sites"] = ["SIM", "SIM2"]
        base_doc["return_levels"] = {"p_grid": [0.01]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        out = tmp_path / "out"
        assert main(["rl", "--config", cfg, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 4
        assert calls == {"fit_config": 1, "config_hash": 1}

    def test_a_failed_run_leaves_no_output_directory(self, tmp_path):
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "inputs": {"gauge_csv": "no/such.csv"}, "rate_family": "R1"})
        out = tmp_path / "out"
        assert main(["rl", "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()
        nested = out / "a" / "b"  # every level the run made goes again
        assert main(["rl", "--config", cfg, "--out", str(nested)]) == 1
        assert not out.exists()
        out.mkdir()  # a directory the run did not make stays
        assert main(["rl", "--config", cfg, "--out", str(out)]) == 1
        assert main(["rl", "--config", cfg, "--out", str(nested)]) == 1
        assert out.is_dir() and not any(out.iterdir())


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

    def test_undefined_chibar_is_an_empty_field(self, tmp_path):
        # A peaks on its last days and B on its first: no day has both
        # above their 0.95 quantiles, so chi is 0 and chibar undefined.
        days = np.datetime64("2001-03-01T06:00", "m") + np.arange(40) \
            * np.timedelta64(1, "D")
        lines = ["site,timestamp,peak_tide_m,max_sea_level_m"]
        for site, surges in (("A", np.arange(40)), ("B", 39 - np.arange(40))):
            for k, (day, surge) in enumerate(zip(days, surges)):
                tide = 3.0 + 0.1 * (k % 5)
                lines.append(f"{site},{day}Z,{tide:.1f},"
                             f"{tide + surge / 100:.2f}")
        (tmp_path / "g.csv").write_text("\n".join(lines) + "\n")
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "inputs": {"gauge_csv": str(tmp_path / "g.csv")},
            "dependence": {"p": 0.05, "lags": [0], "uniform": False}})
        assert main(["dep", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "dep.csv").read_text().splitlines()
        [row] = csv.DictReader(text[1:])
        assert row["pair"] == "A-B" and row["n"] == "40"
        assert row["tau"] == "-1"
        assert row["chi"] == "0" and row["chibar"] == ""

    def test_table_bytes_are_pinned(self, tmp_path, base_doc, gauges,
                                    monkeypatch):
        # Raw and uniform margins at lags -1, 0 and 1: every tau, chi and
        # chibar digit the table writes, pinned to the table written once
        # the body below u_j was scaled by 1 - lambda. The gauge path is relative because it is part
        # of the config hash in the file's comment line; the fit section
        # keeps the ignored multi_start key, which the hash leaves out.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gauges.csv").write_bytes(gauges.read_bytes())
        base_doc["inputs"] = {"gauge_csv": "gauges.csv"}
        base_doc["fit"]["multi_start"] = 1
        base_doc["sites"] = ["SIM", "SIM2"]
        base_doc["dependence"] = {"p": 0.05, "lags": [-1, 0, 1],
                                  "uniform": True}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        assert main(["dep", "--config", cfg, "--out", "out"]) == 0
        written = (tmp_path / "out" / "dep.csv").read_bytes()
        assert written.count(b"\n") == 2 + 6
        assert hashlib.sha256(written).hexdigest() == (
            "ed2dbc9ba70e8081c4825f911e7896015833faf650bf9e5e83a3a38fd72d2a94")


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

    def test_percentile_sets_each_site_thresholds(self, tmp_path, base_doc):
        # pool fits each site at the thresholds fit uses for it
        base_doc["sites"] = ["SIM", "SIM2"]
        base_doc["pooling"] = {"shared": ["xi"]}
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)

        def n_exceed(subcommand, percentile):
            out = tmp_path / f"{subcommand}_{percentile}"
            assert main([subcommand, "--config", cfg, "--out", str(out),
                         "--percentile", percentile]) == 0
            if subcommand == "pool":
                doc = json.loads((out / "pool.json").read_text())
                return {r["site_id"]: r["n_exceed"]
                        for r in doc["site_results"]}
            return {site: json.loads((out / f"fit_{site}_R0S0.json")
                                     .read_text())["n_exceed"]
                    for site in base_doc["sites"]}

        pooled = n_exceed("pool", "0.9")
        assert pooled == n_exceed("fit", "0.9")
        assert pooled != n_exceed("pool", "0.95")

    def test_needs_two_sites(self, tmp_path, base_doc, capsys):
        base_doc["pooling"] = {"shared": ["xi"]}
        with pytest.raises(ValueError,
                           match="^pooling needs at least two sites$"):
            cli._cmd_pool(RunConfig.from_mapping(base_doc), tmp_path, {})
        cfg = _write_yaml(tmp_path / "c.yaml", base_doc)
        assert main(["pool", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.endswith(
            "error: pooling needs at least two sites\n")

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

    def test_site_id_that_is_not_utf8(self, tmp_path, capsys):
        gauges = tmp_path / "g.csv"
        gauges.write_bytes(b"site,timestamp,peak_tide_m,max_sea_level_m\n"
                           b"\xff\xfe,2000-01-01T00:00Z,3.0,3.1\n")
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"inputs": {"gauge_csv": str(gauges)}})
        assert main(["ingest", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "g.csv line 2: site id is not UTF-8" in err

    def test_yaml_syntax_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("inputs: {gauge_csv: [a.csv\n")
        assert main(["fit", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("subcommand,doc,key", [
        ("fit", {"inputs": ["a"]}, "inputs"),
        ("dep", {"dependence": [1]}, "dependence"),
        ("rl", {"return_levels": {"p_grid": 0.01}}, "return_levels.p_grid"),
        ("simulate", {"simulate": {"n_cycles": 10, "params": {
            "rate_family": "R2", "delta_rate": 0.2}}},
         "simulate.params.delta_rate"),
        # out of range, refused as the config loads
        ("exi", {"exi": {"v_quantile": 1.5}}, "exi.v_quantile"),
        ("exi", {"exi": {"n_levels": -1}}, "exi.n_levels"),
        ("dep", {"dependence": {"p": 1.5}}, "dependence.p"),
        # whole numbers and booleans are checked, not converted
        ("fit", {"run_length": 2.5}, "run_length"),
        ("fit", {"seed": 1.7}, "seed"),
        ("fit", {"seed": True}, "seed"),
        ("fit", {"seed": "3"}, "seed"),
        ("fit", {"detrend": {"reference_year": 2017.5}},
         "detrend.reference_year"),
        ("exi", {"exi": {"n_levels": 3.9}}, "exi.n_levels"),
        ("dep", {"dependence": {"lags": [0.5, 1]}}, "dependence.lags"),
        ("rl", {"return_levels": {"scenario": {"year": 2050.7}}},
         "return_levels.scenario.year"),
        ("simulate", {"simulate": {"n_cycles": 100.5}}, "simulate.n_cycles"),
        ("dep", {"dependence": {"uniform": "false"}}, "dependence.uniform"),
        ("dep", {"dependence": {"uniform": 1}}, "dependence.uniform"),
        # numbers are finite and not booleans; text is only text
        ("simulate", {"simulate": {"n_cycles": 10, "tide_mean": True}},
         "simulate.tide_mean"),
        ("fit", {"fit": {"frozen": {"beta_day": float("nan"),
                                    "phi_day": 0.0}}}, "fit.frozen.beta_day"),
        ("rl", {"return_levels": {"p_grid": [0.1, float("inf")]}},
         "return_levels.p_grid"),
        ("simulate", {"simulate": {"n_cycles": 10, "params": {
            "lam": float("nan")}}}, "simulate.params.lam"),
        ("rl", {"return_levels": {"scenario": {"gmt": float("-inf")}}},
         "return_levels.scenario.gmt"),
        ("fit", {"fit": {"shape_prior": {"mean": float("nan")}}},
         "fit.shape_prior.mean"),
        ("simulate", {"simulate": {"n_cycles": 10, "site_id": 123}},
         "simulate.site_id"),
        ("fit", {"inputs": {"gauge_csv": 5}}, "inputs.gauge_csv"),
        ("fit", {"out_dir": 7}, "out_dir"),
        ("fit", {"sites": [1, 2]}, "sites"),
        ("pool", {"pooling": {"shared": [1]}}, "pooling.shared"),
        *[("ingest", {"detrend": {"rates_mm_per_year": {"SIM": rate}}},
           "detrend.rates_mm_per_year.SIM")
          for rate in ("x", True, float("nan"))],
        # the grid that return_curve takes, from any subcommand
        ("fit", {"return_levels": {"p_grid": [0.9]}}, "return_levels.p_grid"),
        ("ingest", {"return_levels": {"p_grid": []}}, "return_levels.p_grid"),
        # a free name that YAML types as a number (01 loads as 1)
        ("ingest", {"detrend": {"rates_mm_per_year": {1: 1.5}}},
         "detrend.rates_mm_per_year.1"),
        ("fit", {"fit": {"frozen": {1: 0.0}}}, "fit.frozen.1"),
        ("simulate", {"simulate": {"n_cycles": 10, "threshold": [0.3, 0.4]}},
         "simulate.threshold"),
        # a table with no rows
        ("dep", {"dependence": {"lags": []}}, "dependence.lags"),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, capsys,
                                           subcommand, doc, key):
        cfg = _write_yaml(tmp_path / "c.yaml", doc)
        assert main([subcommand, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {key}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,text,key", [
        ("--seed", "[1", "seed"),
        ("--percentile", "{a", "threshold_percentile"),
    ])
    def test_flag_text_that_yaml_cannot_read_names_its_key(
            self, tmp_path, capsys, flag, text, key):
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"inputs": {"gauge_csv": "no/such.csv"}})
        out = tmp_path / "o"
        assert main(["ingest", "--config", cfg, "--out", str(out),
                     flag, text]) == 1
        err = capsys.readouterr().err
        assert err == f"error: config {key}: {text!r} is not a YAML value\n"
        assert not out.exists()

    @pytest.mark.parametrize("subcommand,section,key", [
        *[(subcommand, {"fit": {"frozen": [1]}}, "fit.frozen")
          for subcommand in ("fit", "select", "rl", "dep", "pool")],
        ("dep", {"dependence": {"lags": ["x"]}}, "dependence.lags"),
    ])
    def test_malformed_section_key_is_reported_before_loading(
            self, tmp_path, capsys, subcommand, section, key):
        # the gauge file is missing too: the config key is named first
        cfg = _write_yaml(tmp_path / "c.yaml",
                          {"inputs": {"gauge_csv": "no.csv"}, **section})
        assert main([subcommand, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {key}: ")

    def test_detrend_rate_is_read_before_any_data(self, tmp_path, capsys,
                                                  monkeypatch):
        def load_series(path):
            raise AssertionError("the gauge file was read")

        monkeypatch.setattr(cli, "load_series", load_series)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "inputs": {"gauge_csv": str(tmp_path / "no.csv")},
            "detrend": {"rates_mm_per_year": {"SIM": "x"}}})
        assert main(["ingest", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "error: config detrend.rates_mm_per_year.SIM: ")
        assert err.count("\n") == 1

    def test_p_grid_is_read_before_any_data(self, tmp_path, capsys,
                                            monkeypatch):
        def load_series(path):
            raise AssertionError("the gauge file was read")

        monkeypatch.setattr(cli, "load_series", load_series)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "inputs": {"gauge_csv": str(tmp_path / "no.csv")},
            "return_levels": {"p_grid": [0.1, 0.9]}})
        assert main(["fit", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: config return_levels.p_grid: annual exceedance "
            "probability 0.9 outside [1e-6, 0.5]\n")

    @pytest.mark.parametrize("subcommand,section,flags,key,reason", [
        ("fit", {"fit": {"shape_prior": {"variance": -1}}}, [],
         "fit.shape_prior.variance", "prior variance must be positive"),
        ("ingest", {"simulate": {"n_cycles": 0}}, [], "simulate.n_cycles",
         "n_cycles must be >= 2"),
        ("ingest", {"simulate": {"n_cycles": 10, "tide_amp": -0.5}}, [],
         "simulate.tide_amp", "tide_amp must be positive"),
        ("ingest", {"simulate": {"n_cycles": 10, "body_sd": 0}}, [],
         "simulate.body_sd", "body_sd must be positive"),
        # values a run cannot use: a constant tide has no standardizer
        ("simulate", {"simulate": {"n_cycles": 10, "tide_amp": 0}}, [],
         "simulate.tide_amp", "tide_amp must be positive"),
        ("simulate", {"simulate": {"n_cycles": 1}}, [], "simulate.n_cycles",
         "n_cycles must be >= 2"),
        ("simulate", {"simulate": {"n_cycles": 10, "start": "garbage"}}, [],
         "simulate.start", "start must be a date and time numpy reads"),
        ("simulate", {"simulate": {"n_cycles": 10, "site_id": " "}}, [],
         "simulate.site_id", "site_id must not be blank"),
        ("simulate", {"seed": -1, "simulate": {"n_cycles": 10}}, [], "seed",
         "expected at least 0, not -1"),
        ("simulate", {"simulate": {"n_cycles": 10}}, ["--seed", "-1"], "seed",
         "expected at least 0, not -1"),
        ("fit", {}, ["--seed", "-3"], "seed", "expected at least 0, not -3"),
        ("pool", {"pooling": {"shared": ["foo"]}}, [], "pooling.shared",
         "shared names not free in family R0/S0: ['foo']"),
        ("pool", {"pooling": {"shared": ["beta_sigma"]}}, [],
         "pooling.shared", "shared names 'beta_sigma' without its partner "
         "'phi_sigma'; a harmonic's amplitude and phase go together"),
    ], ids=["variance", "n_cycles", "tide_amp", "body_sd", "flat tide",
            "one cycle", "start", "site_id", "seed", "seed flag",
            "fit seed flag", "shared name", "shared pair"])
    def test_library_range_is_read_with_its_key_before_any_data(
            self, tmp_path, capsys, monkeypatch, subcommand, section, flags,
            key, reason):
        # the library's own check, named by the key that holds the value
        def load_series(path):
            raise AssertionError("the gauge file was read")

        monkeypatch.setattr(cli, "load_series", load_series)
        cfg = _write_yaml(tmp_path / "c.yaml", {
            "inputs": {"gauge_csv": str(tmp_path / "no.csv")}, **section})
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out),
                     *flags]) == 1
        assert capsys.readouterr().err == f"error: config {key}: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("level", ["verbose", "basic_format", "5"])
    def test_unknown_log_level_fails(self, tmp_path, capsys, monkeypatch,
                                     level):
        monkeypatch.setenv("SKEWSURGE_LOG", level)
        out = tmp_path / "o"
        assert main(["ingest", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SKEWSURGE_LOG: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_log_level_in_any_case(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SKEWSURGE_LOG", "info")
        # past the level: the run fails on the missing input, not on it
        assert main(["ingest", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            "error: config is missing inputs.gauge_csv\n")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_help_lists_the_families(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "one of R0, R1, R2, R3, R4" in text
        assert "one of S0, S1, S2, S3, S4" in text
