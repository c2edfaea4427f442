"""Per-line finder-pattern search used only as a test oracle.

Scans each row and each column on its own for 1:1:3:1:1 run windows, checks
every row hit against every column hit, and clusters the survivors by
comparing each one with every cluster in creation order. Quadratic, but
written the plain way, and shares no code with the whole-bitmap scanner in
`trap4phish.qr.decode`.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from trap4phish.qr import NoFinderPatterns

_RATIO_ARR = np.array((1, 1, 3, 1, 1), dtype=np.float64)


def ratio_candidates(line: np.ndarray) -> list[tuple[float, float]]:
    """Centers of 1:1:3:1:1 dark/light/dark/light/dark run windows."""
    boundaries = np.flatnonzero(np.concatenate(([True], line[1:] != line[:-1], [True])))
    lengths = np.diff(boundaries)
    if len(lengths) < 5:
        return []
    starts = boundaries[:-1]
    dark_first = bool(line[0])
    windows = sliding_window_view(lengths, 5)
    units = windows.sum(axis=1) / 7.0
    tolerance = np.maximum(units * 0.75, 1.5)
    ok = (np.abs(windows - units[:, None] * _RATIO_ARR) <= tolerance[:, None]).all(axis=1)
    ok &= units >= 1.0
    # runs alternate, so window k starts dark iff k parity matches line[0]
    parity = np.arange(len(windows)) % 2
    ok &= parity == (0 if dark_first else 1)
    out = []
    for k in np.flatnonzero(ok):
        center = starts[k + 2] + lengths[k + 2] / 2.0
        out.append((float(center), float(units[k])))
    return out


def find_finder_centers(binary: np.ndarray):
    """Cluster row/column ratio hits into candidate finder centers."""
    row_hits = []  # (y, x, unit)
    for y in range(binary.shape[0]):
        for x, unit in ratio_candidates(binary[y]):
            row_hits.append((float(y), x, unit))
    col_hits = []
    for x in range(binary.shape[1]):
        for y, unit in ratio_candidates(binary[:, x]):
            col_hits.append((y, float(x), unit))
    if not row_hits or not col_hits:
        raise NoFinderPatterns("no 1:1:3:1:1 run pattern found")

    # a candidate needs a perpendicular hit with matching center and unit
    col_arr = np.array(col_hits)
    points = []
    for y, x, unit in row_hits:
        dy = np.abs(col_arr[:, 0] - y)
        dx = np.abs(col_arr[:, 1] - x)
        du = np.maximum(col_arr[:, 2], unit) / np.minimum(col_arr[:, 2], unit)
        close = (dy <= unit) & (dx <= unit) & (du <= 1.5)
        if close.any():
            points.append((y, x, unit))
    if not points:
        raise NoFinderPatterns("row and column patterns never intersect")

    clusters: list[dict] = []
    for y, x, unit in points:
        for cluster in clusters:
            if abs(cluster["y"] - y) <= 1.5 * unit and abs(cluster["x"] - x) <= 1.5 * unit:
                w = cluster["weight"]
                cluster["y"] = (cluster["y"] * w + y) / (w + 1)
                cluster["x"] = (cluster["x"] * w + x) / (w + 1)
                cluster["unit"] = (cluster["unit"] * w + unit) / (w + 1)
                cluster["weight"] = w + 1
                break
        else:
            clusters.append({"y": y, "x": x, "unit": unit, "weight": 1})
    if len(clusters) < 3:
        raise NoFinderPatterns(f"found {len(clusters)} finder pattern(s), need 3")
    clusters.sort(key=lambda c: -c["weight"])
    return clusters[:12]


def refine_center(binary: np.ndarray, y: float, x: float, unit: float):
    """Snap a cluster mean to the exact run-ratio center near it."""
    height, width = binary.shape
    for dy in sorted(range(-int(unit) - 1, int(unit) + 2), key=abs):
        row_idx = int(round(y)) + dy
        if not 0 <= row_idx < height:
            continue
        candidates = [(cx, u) for cx, u in ratio_candidates(binary[row_idx])
                      if abs(cx - x) <= 2 * unit]
        if not candidates:
            continue
        x2, u2 = min(candidates, key=lambda c: abs(c[0] - x))
        col_idx = int(round(x2))
        if not 0 <= col_idx < width:
            continue
        vertical = [(cy, u) for cy, u in ratio_candidates(binary[:, col_idx])
                    if abs(cy - y) <= 2 * unit]
        if not vertical:
            continue
        y2, u3 = min(vertical, key=lambda c: abs(c[0] - y))
        return y2, x2, (u2 + u3) / 2.0
    return y, x, unit
