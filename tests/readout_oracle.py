"""The image readout one circle at a time, as a test oracle.

``hexwalk.imaging`` gathers the member pixels of all circles together and
sums circles of equal pixel count as the rows of one matrix.  This module
keeps the form it replaced: one box of pixels per circle, its pixel
centres tested against the radius, and the members summed on their own.
numpy sums a row by the same pairwise scheme as a vector of that length,
so the two must agree bit for bit, and so must the two renders, which add
overlapping spots in the same mask order.
"""

from __future__ import annotations

import numpy as np

from hexwalk.imaging import MaskEntry, MaskSpec, PixelImage


def disk_window(cx: float, cy: float, reach: float, shape: tuple[int, int]):
    """The box of half-width ``reach`` round (cx, cy) clipped to ``shape``, or None if empty.

    Returns the box as (row slice, column slice) and its pixel centres' squared distances.
    """
    x0 = max(0, int(np.ceil(cx - reach)))
    x1 = min(shape[1] - 1, int(np.floor(cx + reach)))
    y0 = max(0, int(np.ceil(cy - reach)))
    y1 = min(shape[0] - 1, int(np.floor(cy + reach)))
    if x0 > x1 or y0 > y1:
        return None
    xs = np.arange(x0, x1 + 1)
    ys = np.arange(y0, y1 + 1)
    d2 = (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2
    return (slice(y0, y1 + 1), slice(x0, x1 + 1)), d2


def circle_sum(image: PixelImage, entry: MaskEntry) -> float:
    """The intensity at the pixel centres inside one circle, summed on its own."""
    window = disk_window(entry.cx, entry.cy, entry.radius, (image.rows, image.cols))
    if window is None:
        return 0.0
    box, d2 = window
    return float(image.intensities[box][d2 <= entry.radius * entry.radius].sum())


def render_one_by_one(probabilities, mask: MaskSpec, shape: tuple[int, int], sigma: float) -> PixelImage:
    """``render_synthetic`` without its checks: one spot added to the canvas at a time."""
    canvas = np.zeros(shape)
    cut = 4.0 * sigma
    for p, e in zip(probabilities, mask.entries):
        if p == 0.0:
            continue
        window = disk_window(e.cx, e.cy, cut, shape)
        if window is None:
            continue
        box, d2 = window
        spot = np.where(d2 <= cut * cut, np.exp(-d2 / (2.0 * sigma * sigma)), 0.0)
        canvas[box] += p * spot
    return PixelImage(canvas)
