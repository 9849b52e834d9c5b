"""Self-test of the benchmark harness (not part of the package's test suite).

Run from the repository root with ``python3 -m pytest bench/tests -q``.
Workloads are rebuilt at small sizes so the test takes seconds; the
harness code paths are the same as at full size.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_package()

import workloads  # noqa: E402
from skewsurge import cli, fitting  # noqa: E402

SMALL = 8000


@pytest.fixture()
def tmp_path():
    """A temporary directory inside the checkout, as the benchmark uses."""
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR, prefix="selftest-") as d:
        yield Path(d)


@pytest.fixture()
def small(monkeypatch):
    monkeypatch.setattr(workloads, "N_CYCLES", SMALL)
    monkeypatch.setattr(workloads, "N_POOL_CYCLES", SMALL)
    frozen = {"multi_start": 1, "frozen": workloads.FROZEN_RATE_HARMONICS}
    return {
        "fit": workloads.SiteFits(1, SMALL, frozen),
        "fits": workloads.SiteFits(2, SMALL, frozen),
        "pool": workloads.PoolFit(),
        "tables": workloads.Tables(),
    }


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {k: v[0] for k, v in run.PER_LAYER.items()}
    per_layer.update(run.DERIVED)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name in workloads.DRIVEN]


@pytest.mark.parametrize("name", ["fits", "pool", "tables"])
def test_seed_alone_decides_the_input_csvs(small, tmp_path, name):
    wl = small[name]

    def csv_bytes(seed, label):
        workdir = tmp_path / label
        workdir.mkdir()
        wl.setup(seed, workdir)
        return [p.read_bytes() for p in sorted(workdir.glob("*.csv"))]

    first = csv_bytes(3, "a")
    assert first
    assert csv_bytes(3, "b") == first
    assert csv_bytes(4, "c") != first


@pytest.mark.parametrize("name", ["fits", "pool", "tables"])
def test_tracing_changes_no_answer(small, tmp_path, name):
    wl = small[name]
    _, attempted, failed, fields, _ = run.measure_plain(
        wl, 2, 0.0, tmp_path / "plain", 0.0)
    assert attempted == wl.ops
    metrics, _, traced_failed, traced_fields, detail = run.measure_traced(
        wl, 2, tmp_path / "traced", tmp_path / "spans.json")
    assert traced_fields == fields
    assert detail["fields_traced"] == fields
    assert traced_failed == 2 * failed
    if name != "pool":
        assert failed == 0
    assert set(metrics) == set(run.PER_LAYER) | set(run.DERIVED)
    # the tracer put every original function back
    assert cli.fit_tail is fitting.fit_tail
    assert not hasattr(fitting.fit_tail, "__wrapped__")


def test_calls_through_the_cli_are_traced(small, tmp_path):
    metrics, _, failed, _, detail = run.measure_traced(
        small["fit"], 1, tmp_path, tmp_path / "spans.json")
    assert failed == 0
    assert detail["spans"]["cli.main"]["calls"] == 1
    assert metrics["fitting.fit_tail.calls"] == 1
    assert metrics["fitting.nll_evals"] > 0
    assert metrics["data.load_series.rows"] == SMALL
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = [s[0] for s in spans]
    fit_span = spans[names.index("fitting.fit_tail")]
    assert spans[fit_span[3]][0] == "cli.main"
