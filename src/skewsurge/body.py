"""Empirical below-threshold skew-surge distribution, banded by peak tide.

Within each calendar month, records are split into three peak-tide bands at
the month's 0.33 and 0.67 tide quantiles. Each (month, band) cell keeps the
sorted skew surges that did not exceed the monthly threshold. The body is
their plain empirical CDF, 1 at u_j; ``SkewSurgeModel`` scales it by the
tail's 1 - lambda per cycle, so F is continuous at u_j.
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
    thresholds: np.ndarray  # (12,) monthly thresholds u_j (metres)

    def band_index(self, month, tide):
        """Band (0, 1 or 2) of each record: tide <= q33, <= q67, else upper."""
        month, tide = np.asarray(month), np.asarray(tide)
        breaks = self.tide_breaks[month - 1]
        return (tide > breaks[..., 0]).astype(int) + (tide > breaks[..., 1])


def build_empirical(series, thresholds):
    """Build the tide-banded empirical body from a series and its thresholds.

    Every month must be present and every (month, band) cell non-empty;
    a cell whose records are all exceedances would leave the body with no
    support there and is also rejected.
    """
    model = TideBandedEmpirical(  # filled in month by month
        np.empty((12, 2)), [], np.array(thresholds.values, dtype=float))
    for j in range(1, 13):
        sel = series.month == j
        if not sel.any():
            raise ValueError(f"site {series.site_id}: no records in month {j}")
        tide, ss = series.peak_tide[sel], series.skew_surge[sel]
        model.tide_breaks[j - 1] = np.quantile(tide, BAND_QUANTILES)
        band = model.band_index(j, tide)
        u = thresholds.values[j - 1]
        month_samples = []
        for b in range(3):
            in_band = band == b
            if not in_band.any():
                raise ValueError(f"site {series.site_id}: month {j} tide "
                                 f"band {b} is empty")
            kept = np.sort(ss[in_band & (ss <= u)])
            if kept.size == 0:
                raise ValueError(f"site {series.site_id}: month {j} tide "
                                 f"band {b} has no below-threshold records")
            month_samples.append(kept)
        model.samples.append(month_samples)
    return model


def cell_cdf(model, month, tide):
    """The body CDF of fixed records as a function of y, with no threshold
    check: y -> (stored samples <= y) / (stored samples), per (month, band)
    cell, the plain empirical CDF of the kept surges, 1 at u_j.

    The records are grouped once by cell with a stable sort of the cell
    numbers as int8 (numpy radix-sorts keys of 16 bits or fewer), so each
    call is one ``searchsorted`` per contiguous slice of the grouped values.
    Month and tide broadcast; the returned function ``cdf(y, out, where)``
    takes y of their broadcast shape, searches only the records where the
    boolean ``where`` holds and writes their values into the C-contiguous
    ``out``, leaving its other entries as they are.
    """
    month, tide = np.broadcast_arrays(np.asarray(month), np.asarray(tide))
    cell = (3 * (month - 1) + model.band_index(month, tide)).ravel()
    order = np.argsort(cell.astype(np.int8), kind="stable")
    bounds = np.searchsorted(cell[order], np.arange(37))
    cells = [c for c in range(36) if bounds[c] < bounds[c + 1]]

    def cdf(y, out, where):
        keep = np.ravel(where)[order]  # the selected records, grouped by cell
        rows = order[keep]
        at = np.concatenate(([0], np.cumsum(keep)))[bounds]
        grouped = np.asarray(y, dtype=float).ravel()[rows]
        for c in cells:
            lo, hi = at[c], at[c + 1]
            kept = model.samples[c // 3][c % 3]
            grouped[lo:hi] = np.searchsorted(kept, grouped[lo:hi],
                                             side="right") / kept.size
        out.reshape(-1)[rows] = grouped
        return out

    return cdf


def eval_body_cdf(model, y, month, tide):
    """Evaluate the empirical body CDF at skew surge y.

    The value is (number of stored below-threshold samples <= y) divided by
    the number stored, so it reaches 1 at the monthly threshold; the
    conditional CDF scales it by 1 - lambda. y above the threshold is an
    error, since that region belongs to the tail model. All arguments
    broadcast.
    """
    y, month, tide = np.broadcast_arrays(
        np.asarray(y, dtype=float), np.asarray(month), np.asarray(tide))
    if np.any(y > model.thresholds[month - 1]):
        raise ValueError("eval_body_cdf requires y <= the monthly threshold; "
                         "values above it belong to the tail branch")
    out = cell_cdf(model, month, tide)(y, np.empty(y.shape),
                                       np.ones(y.shape, dtype=bool))
    return out if out.ndim else float(out)
