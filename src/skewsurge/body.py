"""Empirical below-threshold skew-surge distribution, banded by peak tide.

Within each calendar month, records are split into three peak-tide bands at
the month's 0.33 and 0.67 tide quantiles. Each (month, band) cell keeps the
sorted skew surges that did not exceed the monthly threshold, together with
the total cell count including exceedances, so the evaluated step function
reaches roughly the threshold percentile (not 1) at u_j and leaves the
remaining mass to the tail model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BAND_QUANTILES = (0.33, 0.67)


@dataclass
class TideBandedEmpirical:
    """Per-month, tide-banded empirical CDF of below-threshold skew surges."""

    tide_breaks: np.ndarray  # (12, 2) per-month tide band edges
    samples: list  # 12 lists of 3 sorted arrays (surges <= u_j)
    totals: np.ndarray  # (12, 3) total cell counts, exceedances included
    thresholds: np.ndarray  # (12,) monthly thresholds u_j (metres)

    def band_index(self, month, tide):
        """Band (0, 1 or 2) of each record: tide <= q33, <= q67, else upper."""
        month = np.asarray(month)
        tide = np.asarray(tide)
        breaks = self.tide_breaks[month - 1]
        return (tide > breaks[..., 0]).astype(int) + (tide > breaks[..., 1])

    def to_dict(self):
        return {
            "band_quantiles": list(BAND_QUANTILES),
            "tide_breaks": self.tide_breaks.tolist(),
            "samples": [[band.tolist() for band in m] for m in self.samples],
            "totals": self.totals.tolist(),
            "thresholds": self.thresholds.tolist(),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            tide_breaks=np.asarray(d["tide_breaks"], dtype=float),
            samples=[[np.asarray(b, dtype=float) for b in m] for m in d["samples"]],
            totals=np.asarray(d["totals"], dtype=int),
            thresholds=np.asarray(d["thresholds"], dtype=float),
        )


def build_empirical(series, thresholds):
    """Build the tide-banded empirical body from a series and its thresholds.

    Every month must be present and every (month, band) cell non-empty;
    a cell whose records are all exceedances would leave the body with no
    support there and is also rejected.
    """
    tide_breaks = np.empty((12, 2))
    samples = []
    totals = np.zeros((12, 3), dtype=int)
    for j in range(1, 13):
        sel = series.month == j
        if not sel.any():
            raise ValueError(f"site {series.site_id}: no records in month {j}")
        tide = series.peak_tide[sel]
        ss = series.skew_surge[sel]
        tide_breaks[j - 1] = np.quantile(tide, BAND_QUANTILES)
        band = (tide > tide_breaks[j - 1, 0]).astype(int) + (tide > tide_breaks[j - 1, 1])
        u = thresholds.values[j - 1]
        month_samples = []
        for b in range(3):
            in_band = band == b
            totals[j - 1, b] = int(in_band.sum())
            if totals[j - 1, b] == 0:
                raise ValueError(
                    f"site {series.site_id}: month {j} tide band {b} is empty"
                )
            kept = np.sort(ss[in_band & (ss <= u)])
            if kept.size == 0:
                raise ValueError(
                    f"site {series.site_id}: month {j} tide band {b} has no "
                    "below-threshold records"
                )
            month_samples.append(kept)
        samples.append(month_samples)
    return TideBandedEmpirical(
        tide_breaks=tide_breaks,
        samples=samples,
        totals=totals,
        thresholds=np.asarray(thresholds.values, dtype=float).copy(),
    )


def cell_cdf(model, month, tide):
    """The body CDF of fixed records as a function of y, with no threshold
    check: y -> (stored samples <= y) / total, per (month, band) cell.

    The records are grouped once by cell with a stable sort, so each call
    is one ``searchsorted`` per contiguous slice of the grouped values.
    Month and tide broadcast; the returned function takes y of their
    broadcast shape. Called as ``cdf(y, out, where)``, it searches only
    the records where the boolean ``where`` holds and writes their values
    into the C-contiguous ``out``, leaving its other entries as they are.
    """
    month, tide = np.broadcast_arrays(np.asarray(month), np.asarray(tide))
    cell = (3 * (month - 1) + model.band_index(month, tide)).ravel()
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell[order], np.arange(37))
    cells = [c for c in range(36) if bounds[c] < bounds[c + 1]]

    def cdf(y, out=None, where=None):
        rows, at = order, bounds
        if where is not None:  # the selected records, still grouped by cell
            keep = np.ravel(where)[order]
            rows = order[keep]
            at = np.concatenate(([0], np.cumsum(keep)))[bounds]
        grouped = np.asarray(y, dtype=float).ravel()[rows]
        for c in cells:
            lo, hi = at[c], at[c + 1]
            j, b = divmod(c, 3)
            grouped[lo:hi] = np.searchsorted(
                model.samples[j][b], grouped[lo:hi], side="right"
            ) / model.totals[j, b]
        if out is None:
            out = np.empty(month.shape)
        out.reshape(-1)[rows] = grouped
        return out

    return cdf


def eval_body_cdf(model, y, month, tide):
    """Evaluate the empirical body CDF at skew surge y.

    The value is (number of stored below-threshold samples <= y) divided by
    the total cell count, so it reaches roughly the threshold percentile
    (not 1) at the monthly threshold; y above the threshold is an error,
    since that region belongs to the tail model. All arguments broadcast.
    """
    y, month, tide = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(month), np.asarray(tide)
    )
    if np.any(y > model.thresholds[np.asarray(month) - 1]):
        raise ValueError(
            "eval_body_cdf requires y <= the monthly threshold; "
            "values above it belong to the tail branch"
        )
    out = cell_cdf(model, month, tide)(y)
    return out if out.ndim else float(out)
