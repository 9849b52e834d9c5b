"""In-memory span tracer for the package's public functions.

The tracer replaces each traced function with a wrapper in every
``skewsurge`` module that holds it under its own name, so calls made
through the CLI or from another module (``cli.fit_tail``,
``tail.eval_body_cdf``, ``returns.eval_exi`` ...) are traced too. Each
call records a span (name, start, end, parent) and, through an optional
counter, how much work it did. Spans stay in memory until the caller
writes them out; :meth:`Tracer.restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _rows(result):
    return {"rows": sum(len(s) for s in result.values())}


def _points(result):
    return {"points": int(np.size(result))}


def _fit(result):
    return {"fits": 1, "converged": int(bool(result.converged)),
            "nll_evals": int(result.n_iter)}


def _pooled_fit(result):
    return {"fits": 1, "converged": int(bool(result.converged))}


# Traced functions by defining module, with the counter each one feeds.
TRACED = {
    "skewsurge.data": {
        "load_series": _rows, "write_series_csv": None,
        "attach_covariates": None, "monthly_thresholds": None,
    },
    "skewsurge.body": {"build_empirical": None, "eval_body_cdf": _points},
    "skewsurge.tail": {"eval_cdf": _points, "rate_at": None, "scale_at": None},
    "skewsurge.fitting": {"fit_tail": _fit, "fit_pooled": _pooled_fit},
    "skewsurge.exi": {"fit_exi_curve": None, "eval_exi": None},
    "skewsurge.returns": {"return_curve": None, "return_level": None,
                          "annual_max_cdf": None},
    "skewsurge.dependence": {
        "pairwise_reports": None, "pit_transform": None,
        "daily_max_pairs": None, "kendall_tau": None, "chi_chibar": None,
    },
    "skewsurge.simulate": {"simulate_series": None},
    "skewsurge.cli": {"main": None},
}


class Tracer:
    """Records spans and counts for the functions in :data:`TRACED`."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()  # "<span name>.<counter>" -> total
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None,
                 self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter is not None:
                for key, value in counter(result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def install(self):
        """Patch every traced function wherever a package module names it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "skewsurge"
                                         or n.startswith("skewsurge."))]
        for modname, functions in TRACED.items():
            home = sys.modules[modname]
            layer = modname.rsplit(".", 1)[1]
            for attr, counter in functions.items():
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original, counter)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))

    def restore(self):
        """Put the original functions back."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans (children of one span never overlap).
        """
        child_time = defaultdict(float)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[idx]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Write spans and counts as JSON."""
        doc = {
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
