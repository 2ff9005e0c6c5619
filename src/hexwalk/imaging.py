"""Pixel-image readout of walker distributions through circular node masks.

A camera frame is treated as a plain matrix of non-negative pixel
intensities.  Each graph node is assigned a circular region (centre pixel
coordinates plus radius); summing the intensity inside every circle and
normalising the sums turns a frame into a probability distribution over
nodes, and the exit node's share is the measured hitting efficiency.  No
background subtraction is applied: frames are assumed dark-corrected.

Pixel (row r, column c) has its centre at point (x=c, y=r), and a pixel
belongs to a circle when its centre satisfies (x-cx)^2 + (y-cy)^2 <= r^2.

The module also renders synthetic frames by dropping a truncated Gaussian
spot on every node centre with brightness proportional to the node's
probability.  Extraction of such a frame must reproduce the input
distribution, which gives the readout path an end-to-end oracle.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


class ImageParseError(ValueError):
    """Malformed pixel-matrix text; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MaskError(ValueError):
    """Mask entries are inconsistent with each other, the image, or the graph."""


class DegenerateImageError(ValueError):
    """The masked regions hold no intensity, so no distribution exists."""


class SpotWidthWarning(UserWarning):
    """Rendered spots are wide enough to leak outside their own mask circle."""


class PixelImage:
    """Immutable matrix of non-negative pixel intensities."""

    def __init__(self, intensities: np.ndarray):
        arr = np.array(intensities, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("pixel matrix must be two-dimensional and non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("pixel intensities must be finite")
        if np.any(arr < 0.0):
            raise ValueError("pixel intensities must be non-negative")
        arr.flags.writeable = False
        self._intensities = arr

    @property
    def intensities(self) -> np.ndarray:
        return self._intensities

    @property
    def rows(self) -> int:
        return self._intensities.shape[0]

    @property
    def cols(self) -> int:
        return self._intensities.shape[1]

    @property
    def total(self) -> float:
        return float(self._intensities.sum())

    def __repr__(self) -> str:
        return f"PixelImage({self.rows}x{self.cols}, total={self.total:g})"


def parse_image(text: str) -> PixelImage:
    """Parse whitespace-separated rows of pixel values.

    Every row must hold the same number of values and every value must be
    a non-negative number.  Violations raise :class:`ImageParseError`
    carrying the 1-based line number; trailing blank lines are ignored.
    The first offending line wins, and within a line the checks run in the
    order row width, numeric tokens, finiteness, sign.

    Each row is converted by numpy in one call (it accepts exactly the
    tokens ``float()`` accepts) and the whole matrix is checked at once;
    only a frame that fails is walked again line by line to word the error.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ImageParseError("image is empty", 1)
    try:
        pixels = np.stack([np.array(line.split(), dtype=float) for line in lines])
    except ValueError:  # a ragged or blank row, or a token that is not a number
        pixels = None
    if pixels is None or not (np.isfinite(pixels).all() and (pixels >= 0.0).all()):
        _raise_first_error(lines)
    return PixelImage(pixels)


def _raise_first_error(lines: list[str]) -> None:
    """Raise :class:`ImageParseError` for the first line that breaks a rule."""
    width = -1
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            raise ImageParseError("blank row inside the pixel matrix", lineno)
        if width < 0:
            width = len(tokens)
        elif len(tokens) != width:
            raise ImageParseError(
                f"row has {len(tokens)} values, expected {width}", lineno
            )
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            bad = next(tok for tok in tokens if not _is_number(tok))
            raise ImageParseError(f"non-numeric value {bad!r}", lineno) from None
        if any(not np.isfinite(v) for v in values):
            raise ImageParseError("non-finite value", lineno)
        if any(v < 0.0 for v in values):
            raise ImageParseError("negative intensity", lineno)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def format_image(image: PixelImage) -> str:
    """Serialise a pixel matrix back to whitespace-separated text."""
    lines = [" ".join(format(v, ".10g") for v in row) for row in image.intensities]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MaskEntry:
    """One node's readout circle: centre pixel coordinates and radius."""

    node_id: int
    cx: float
    cy: float
    radius: float


class MaskSpec:
    """Circular readout regions for a set of nodes, kept sorted by node id."""

    def __init__(self, entries):
        entries = tuple(sorted(entries, key=lambda e: e.node_id))
        if not entries:
            raise MaskError("mask needs at least one entry")
        ids = [e.node_id for e in entries]
        dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
        if dup is not None:
            raise MaskError(f"duplicate node id {dup} in mask")
        for e in entries:
            if e.node_id < 0:
                raise MaskError(f"node id must be >= 0, got {e.node_id}")
            if not np.isfinite(e.radius) or e.radius <= 0.0:
                raise MaskError(f"node {e.node_id}: radius must be > 0, got {e.radius}")
            if not (np.isfinite(e.cx) and np.isfinite(e.cy)):
                raise MaskError(f"node {e.node_id}: centre must be finite")
        self._entries = entries

    @property
    def entries(self) -> tuple[MaskEntry, ...]:
        return self._entries

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(e.node_id for e in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def validate_for(self, image: PixelImage) -> None:
        """Check circles sit fully inside the image and do not overlap.

        The first circle outside the image, in node-id order, is reported
        before any overlap.  Overlaps are found by sort-and-sweep: with the
        centres sorted by x, neighbours k = 1, 2, ... places apart are
        compared until no pair k apart is closer than 2 * max(radius) in x,
        since pairs further apart in that order are further apart in x.
        Circles overlap when gap^2 < (r_a + r_b)^2, so tangent circles pass.
        Of the overlapping pairs, the first in node-id order is named.
        """
        cx, cy, r = np.array([(e.cx, e.cy, e.radius) for e in self._entries]).T
        outside = (
            (cx - r < 0.0) | (cy - r < 0.0) | (cx + r > image.cols - 1) | (cy + r > image.rows - 1)
        )
        if outside.any():
            e = self._entries[int(np.argmax(outside))]
            raise MaskError(
                f"node {e.node_id}: circle at ({e.cx:g}, {e.cy:g}) r={e.radius:g} "
                f"reaches outside a {image.rows}x{image.cols} image"
            )
        n = len(self._entries)
        order = np.argsort(cx, kind="stable")
        x, y, rad = cx[order], cy[order], r[order]
        reach = 2.0 * rad.max()
        first = n * n  # i * n + j of the first overlapping pair i < j in node-id order
        for k in range(1, n):
            dx = x[k:] - x[:-k]
            if not (dx < reach).any():
                break
            hit = np.flatnonzero(dx**2 + (y[k:] - y[:-k]) ** 2 < (rad[k:] + rad[:-k]) ** 2)
            a, b = order[hit], order[hit + k]
            first = int((np.minimum(a, b) * n + np.maximum(a, b)).min(initial=first))
        if first < n * n:
            a, b = self._entries[first // n], self._entries[first % n]
            raise MaskError(f"circles of nodes {a.node_id} and {b.node_id} overlap")


def parse_mask(text: str) -> MaskSpec:
    """Parse a mask CSV with header ``node_id,cx,cy,radius``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise MaskError("mask file is empty")
    header = [col.strip() for col in lines[0].split(",")]
    if header != ["node_id", "cx", "cy", "radius"]:
        raise MaskError(f"mask header must be 'node_id,cx,cy,radius', got {lines[0]!r}")
    entries = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise MaskError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            entries.append(
                MaskEntry(int(fields[0]), float(fields[1]), float(fields[2]), float(fields[3]))
            )
        except ValueError:
            raise MaskError(f"line {lineno}: malformed mask row {line!r}") from None
    return MaskSpec(entries)


def mask_csv(mask: MaskSpec) -> str:
    """Serialise a mask back to its CSV form."""
    lines = ["node_id,cx,cy,radius"]
    for e in mask.entries:
        lines.append(
            f"{e.node_id},{format(e.cx, '.10g')},{format(e.cy, '.10g')},{format(e.radius, '.10g')}"
        )
    return "\n".join(lines) + "\n"


def _disk_window(cx: float, cy: float, reach: float, shape: tuple[int, int]):
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


def _circle_sum(image: PixelImage, entry: MaskEntry) -> float:
    window = _disk_window(entry.cx, entry.cy, entry.radius, (image.rows, image.cols))
    if window is None:
        return 0.0
    box, d2 = window
    return float(image.intensities[box][d2 <= entry.radius * entry.radius].sum())


@dataclass
class ExtractionResult:
    """Per-node probabilities (sorted by node id) and the exit node's share."""

    node_ids: np.ndarray
    probabilities: np.ndarray
    efficiency: float


def extract_probabilities(
    image: PixelImage, mask: MaskSpec, exit_node: int | None = None
) -> ExtractionResult:
    """Turn a frame into a node distribution and read off the hitting efficiency.

    Sums the intensity inside every mask circle (pixel-centre membership),
    normalises the sums to unit total, and reports the exit node's share.
    The exit defaults to the largest node id in the mask, which is where
    every graph family here places its exit.

    Raises :class:`MaskError` for circles outside the image, overlapping
    circles, or an unknown exit node, and :class:`DegenerateImageError`
    when the masked regions hold no intensity at all.
    """
    mask.validate_for(image)
    ids = np.array(mask.node_ids, dtype=int)
    if exit_node is None:
        exit_node = int(ids[-1])
    elif exit_node not in set(mask.node_ids):
        raise MaskError(f"exit node {exit_node} has no mask entry")
    sums = np.array([_circle_sum(image, e) for e in mask.entries])
    total = float(sums.sum())
    if total <= 0.0:
        raise DegenerateImageError("masked regions hold zero total intensity")
    probs = sums / total
    efficiency = float(probs[ids == exit_node][0])
    return ExtractionResult(ids, probs, efficiency)


def render_synthetic(
    probabilities: np.ndarray,
    mask: MaskSpec,
    shape: tuple[int, int],
    sigma: float,
) -> PixelImage:
    """Render a frame of Gaussian spots, one per mask entry.

    ``probabilities`` aligns with the mask's node ids in sorted order.  Each
    spot is exp(-d^2 / (2 sigma^2)) scaled by the node's probability and
    truncated beyond 4 sigma.  The render is deterministic.  A sigma at or
    above the smallest mask radius leaks weight outside its own circle and
    triggers :class:`SpotWidthWarning`, since extraction can then no longer
    reproduce the input exactly.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if probabilities.shape != (len(mask),):
        raise ValueError(
            f"got {probabilities.shape[0] if probabilities.ndim == 1 else 'non-vector'} "
            f"probabilities for {len(mask)} mask entries"
        )
    if np.any(probabilities < 0.0) or not np.all(np.isfinite(probabilities)):
        raise ValueError("probabilities must be finite and non-negative")
    rows, cols = int(shape[0]), int(shape[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"image shape must be positive, got {shape}")
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"spot width must be finite and > 0, got {sigma}")
    min_radius = min(e.radius for e in mask.entries)
    if sigma >= min_radius:
        warnings.warn(
            f"spot width {sigma:g} is at or above the smallest mask radius "
            f"{min_radius:g}; spots will leak between regions",
            SpotWidthWarning,
            stacklevel=2,
        )
    canvas = np.zeros((rows, cols))
    cut = 4.0 * sigma
    for p, e in zip(probabilities, mask.entries):
        if p == 0.0:
            continue
        window = _disk_window(e.cx, e.cy, cut, (rows, cols))
        if window is None:
            continue
        box, d2 = window
        spot = np.where(d2 <= cut * cut, np.exp(-d2 / (2.0 * sigma * sigma)), 0.0)
        canvas[box] += p * spot
    return PixelImage(canvas)
