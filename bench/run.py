"""skewsurge benchmark: seeded synthetic workloads through the package's layers.

Usage (from the repository root)::

    python3 bench/run.py --workload tables --seed 0 --seconds 45 --trace 0
    python3 bench/run.py --workload all

An untraced run (``--trace 0``) sets up the workload three times and
reports the median set-up time. It then runs the pipeline, a list of
named steps, in passes over the same inputs until another pass would go
past ``--seconds``, and reports the mean pass as ``wall_s``. Both times
are in reference seconds: scaled by the pace of a fixed reference loop
sampled between set-ups and steps (see ``reference_loop_s``). A traced
run (``--trace 1``) runs one pass untraced and then set-up plus one pass
with every public package function wrapped in spans, and reports
per-layer self times, counts and the tracing overhead.

Every answer is checked outside the timed window. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
result fields, per-pass times, span table) goes to
``.bench_work/results/`` and, for traced runs, the spans as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_REPEATS = 3
# Times are reported in reference seconds: seconds on a machine where the
# reference loop below takes REF_LOOP_S. See reference_loop_s.
REF_LOOP_ITERS = 300_000
REF_LOOP_S = 0.02

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, kind, sources). "self" sums the self time of
# the named spans, "calls" counts spans, "count" reads a tracer counter.
PER_LAYER = {
    "data.load_series.s": ("s", "self", ["data.load_series"]),
    "data.load_series.rows": ("count", "count", ["data.load_series.rows"]),
    "data.write_series_csv.s": ("s", "self", ["data.write_series_csv"]),
    "data.prepare.s": ("s", "self", ["data.attach_covariates",
                                     "data.monthly_thresholds"]),
    "body.build_empirical.s": ("s", "self", ["body.build_empirical"]),
    "body.eval_body_cdf.s": ("s", "self", ["body.eval_body_cdf"]),
    "body.eval_body_cdf.points": ("count", "count",
                                  ["body.eval_body_cdf.points"]),
    "tail.eval_cdf.s": ("s", "self", ["tail.eval_cdf"]),
    "tail.eval_cdf.calls": ("count", "calls", ["tail.eval_cdf"]),
    "tail.eval_cdf.points": ("count", "count", ["tail.eval_cdf.points"]),
    "tail.rate_at.s": ("s", "self", ["tail.rate_at"]),
    "tail.scale_at.s": ("s", "self", ["tail.scale_at"]),
    "fitting.fit_tail.s": ("s", "self", ["fitting.fit_tail"]),
    "fitting.fit_tail.calls": ("count", "calls", ["fitting.fit_tail"]),
    "fitting.nll_evals": ("count", "count", ["fitting.fit_tail.nll_evals"]),
    "fitting.fit_pooled.s": ("s", "self", ["fitting.fit_pooled"]),
    "exi.fit_exi_curve.s": ("s", "self", ["exi.fit_exi_curve"]),
    "exi.eval_exi.s": ("s", "self", ["exi.eval_exi"]),
    "returns.return_level.s": ("s", "self", ["returns.return_level"]),
    "returns.return_level.calls": ("count", "calls", ["returns.return_level"]),
    "returns.annual_max_cdf.s": ("s", "self", ["returns.annual_max_cdf"]),
    "returns.annual_max_cdf.calls": ("count", "calls",
                                     ["returns.annual_max_cdf"]),
    "dependence.pit_transform.s": ("s", "self", ["dependence.pit_transform"]),
    "dependence.pit_transform.calls": ("count", "calls",
                                       ["dependence.pit_transform"]),
    "dependence.daily_max_pairs.s": ("s", "self",
                                     ["dependence.daily_max_pairs"]),
    "dependence.kendall_tau.s": ("s", "self", ["dependence.kendall_tau"]),
    "dependence.kendall_tau.calls": ("count", "calls",
                                     ["dependence.kendall_tau"]),
    "dependence.chi_chibar.s": ("s", "self", ["dependence.chi_chibar"]),
    "simulate.simulate_series.s": ("s", "self", ["simulate.simulate_series"]),
    "cli.main.self_s": ("s", "self", ["cli.main"]),
}
# Ratios and the overhead, computed in layer_metrics.
DERIVED = {
    "fitting.converged_ratio": "ratio",
    "returns.cdf_evals_per_level": "calls/level",
    "trace.overhead_s": "s",
}


def import_package():
    """Import the package from this checkout; returns the seconds it took."""
    src = ROOT / "src"
    if not (src / "skewsurge" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import skewsurge
    import skewsurge.cli  # noqa: F401  (the package does not import it)

    elapsed = time.perf_counter() - start
    if Path(skewsurge.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported skewsurge from {skewsurge.__file__}")
    return elapsed


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
        },
        "git_commit": _git_commit(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop_s():
    """Seconds a fixed pure-Python loop takes now: the machine's pace.

    On a shared virtual machine the pace can swing by half for stretches
    of tens of seconds, longer than a pass. Sampled between steps and
    averaged over a run, the loop's time follows those swings (on a 2-vCPU
    Xeon VM its log correlated at 0.96 with a return curve's over 45 s
    windows), so dividing by it removes them. The loop does not touch the
    package, so a change to the package cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERS):
        total += i * i
    return time.perf_counter() - start


def timed_pass(wl, state, pace=None):
    """One pass over the pipeline's steps.

    Returns (seconds per step, outputs by step, traceback or None); a
    step that raises ends the pass. With a list ``pace``, a sample of
    :func:`reference_loop_s` is appended to it before each step.
    """
    times, outputs = {}, {}
    for name, step in wl.steps(state):
        if pace is not None:
            pace.append(reference_loop_s())
        start = time.perf_counter()
        try:
            outputs[name] = step(outputs)
        except Exception:  # a raising step is a measured failure
            return times, outputs, traceback.format_exc()
        times[name] = time.perf_counter() - start
    return times, outputs, None


def check_pass(wl, state, outputs, error):
    """(failed operations, result fields) of one pass."""
    if error is not None:
        return wl.ops, {"error": error}
    return wl.check(state, outputs)


def setup_timed(wl, seed, workdir):
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    state = wl.setup(seed, workdir)
    return time.perf_counter() - start, state


def measure_plain(wl, seed, seconds, workdir, import_s):
    """Untraced run: three set-ups, then passes until ``seconds`` are used.

    ``setup_s`` is the import plus the median set-up and ``wall_s`` the
    mean pass, each in reference seconds: scaled by REF_LOOP_S over the
    mean reference loop time sampled around the set-ups, or between the
    steps of the passes.
    """
    setup_pace, setups = [reference_loop_s()], []
    for k in range(SETUP_REPEATS):
        state = None  # free the previous set-up's inputs first
        elapsed, state = setup_timed(wl, seed, workdir / f"setup{k}")
        setups.append(elapsed)
        setup_pace.append(reference_loop_s())
    pass_pace, passes, failed, fields, error = [], [], 0, None, None
    start = time.perf_counter()
    while error is None and (
            not passes or time.perf_counter() - start + passes[-1] <= seconds):
        times, outputs, error = timed_pass(wl, state, pass_pace)
        passes.append(sum(times.values()))
        bad, got = check_pass(wl, state, outputs, error)
        if fields is None:
            fields = got
        elif got != fields:  # same input, different answer
            bad = wl.ops
        failed += bad
    setup_speed = REF_LOOP_S / statistics.fmean(setup_pace)
    pass_speed = REF_LOOP_S / statistics.fmean(pass_pace)
    metrics = {
        "wall_s": statistics.fmean(passes) * pass_speed,
        "setup_s": (import_s + statistics.median(setups)) * setup_speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"import_s": import_s, "setup_runs_s": setups, "pass_s": passes,
              "setup_pace_s": setup_pace, "pass_pace_s": pass_pace,
              "setup_speed": setup_speed, "pass_speed": pass_speed}
    return metrics, len(passes) * wl.ops, failed, fields, detail


def layer_metrics(tracer, overhead_s):
    totals = tracer.totals()
    out = {}
    for name, (unit, kind, sources) in PER_LAYER.items():
        if kind == "count":
            value = sum(tracer.counts[s] for s in sources)
        else:
            col = 0 if kind == "calls" else 2
            value = sum(totals.get(s, (0, 0.0, 0.0))[col] for s in sources)
        out[name] = value
    counts = tracer.counts
    fits = counts["fitting.fit_tail.fits"] + counts["fitting.fit_pooled.fits"]
    converged = (counts["fitting.fit_tail.converged"]
                 + counts["fitting.fit_pooled.converged"])
    out["fitting.converged_ratio"] = converged / fits if fits else 0.0
    levels = out["returns.return_level.calls"]
    out["returns.cdf_evals_per_level"] = (
        out["returns.annual_max_cdf.calls"] / levels if levels else 0.0)
    out["trace.overhead_s"] = overhead_s
    return out, totals


def measure_traced(wl, seed, workdir, spans_path):
    """One untraced pass, then traced set-up and one traced pass."""
    from spans import Tracer

    _, state = setup_timed(wl, seed, workdir / "plain")
    times, outputs, error = timed_pass(wl, state)
    plain_wall = sum(times.values())
    plain_failed, plain_fields = check_pass(wl, state, outputs, error)
    state = outputs = None
    with Tracer() as tracer:
        _, state = setup_timed(wl, seed, workdir / "traced")
        times, outputs, error = timed_pass(wl, state)
    traced_wall = sum(times.values())
    traced_failed, traced_fields = check_pass(wl, state, outputs, error)
    if traced_fields != plain_fields:  # tracing changed an answer
        traced_failed = wl.ops
    tracer.write(spans_path)
    metrics, totals = layer_metrics(tracer, traced_wall - plain_wall)
    detail = {
        "wall_untraced_s": plain_wall,
        "wall_traced_s": traced_wall,
        "fields_traced": traced_fields,
        "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                  for k, (c, t, s) in sorted(totals.items())},
        "spans_file": spans_path.name,
    }
    return (metrics, 2 * wl.ops, plain_failed + traced_failed, plain_fields,
            detail)


def run_workload(name, seed, seconds, trace, import_s):
    """Measure one workload; returns the full record."""
    import workloads

    wl = workloads.WORKLOADS[name]
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{stem}-") as tmp:
        if trace:
            metrics, attempted, failed, fields, detail = measure_traced(
                wl, seed, Path(tmp), results_dir / f"{stem}-spans.json")
            units = {**{k: v[0] for k, v in PER_LAYER.items()}, **DERIVED}
        else:
            metrics, attempted, failed, fields, detail = measure_plain(
                wl, seed, seconds, Path(tmp), import_s)
            units = END_TO_END
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fields": fields, "detail": detail, "environment": environment(),
    }
    with open(results_dir / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def print_record(record):
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {record['fail_frac']:14.6g} "
          f"({record['failed']}/{record['attempted']} operations)")
    if record["trace"]:
        print("  span                        calls    total_s     self_s")
        for name, row in record["detail"]["spans"].items():
            print(f"  {name:26s} {row['calls']:7d} {row['total_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
    print("  fields " + json.dumps(record["fields"], sort_keys=True)[:2000])


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(summary))
    return 0 if all(summary.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0,
                        help="seconds of passes in an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_s = import_package()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          import_s)
    print_record(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
