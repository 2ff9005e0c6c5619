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
    """Immutable matrix of non-negative pixel intensities.

    The image keeps a read-only copy of ``intensities``, so later writes to
    the caller's array do not reach it.  The parser and the renderer, which
    build a fresh matrix that nothing else holds, hand it over through
    :meth:`_adopt` without that copy.
    """

    def __init__(self, intensities: np.ndarray):
        self._keep(np.array(intensities, dtype=float))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> PixelImage:
        """The image of the float matrix ``arr``, taken over without a copy."""
        image = cls.__new__(cls)
        image._keep(arr)
        return image

    def _keep(self, arr: np.ndarray) -> None:
        """Check ``arr`` and freeze it as the image's matrix."""
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
    order row width, numeric tokens, finiteness, sign.  Tokens are read as
    Python's ``float()`` reads them.

    numpy's C text reader (``np.loadtxt``) reads the lines first.  It splits
    on the same whitespace as ``str.split`` and accepts no token that
    ``float()`` rejects, so its matrix stands when it has one row per line
    and :class:`PixelImage` accepts every value.  Otherwise (a blank, ragged
    or bad row, or a token such as ``1_0`` that ``float()`` reads and numpy
    does not) the lines are walked again with ``float()``, which returns
    the matrix or raises the first error.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ImageParseError("image is empty", 1)
    try:
        image = PixelImage._adopt(np.loadtxt(lines, dtype=float, ndmin=2, comments=None))
    except ValueError:  # a ragged row, a token numpy does not read, a bad value
        pass
    else:
        if image.rows == len(lines):  # loadtxt skips blank rows
            return image
    return PixelImage._adopt(_walk_lines(lines))


def _walk_lines(lines: list[str]) -> np.ndarray:
    """Read the lines with ``float()``; raise :class:`ImageParseError` at the first bad line."""
    width = -1
    rows = []
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
        values = []
        for tok in tokens:
            try:
                values.append(float(tok))
            except ValueError:
                raise ImageParseError(f"non-numeric value {tok!r}", lineno) from None
        if any(not np.isfinite(v) for v in values):
            raise ImageParseError("non-finite value", lineno)
        if any(v < 0.0 for v in values):
            raise ImageParseError("negative intensity", lineno)
        rows.append(values)
    return np.array(rows)


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
            if e.node_id >= 2**63:  # node ids are read back as int64
                raise MaskError(f"node id must be below 2**63, got {e.node_id}")
            if not np.isfinite(e.radius) or e.radius <= 0.0:
                raise MaskError(f"node {e.node_id}: radius must be > 0, got {e.radius}")
            if not (np.isfinite(e.cx) and np.isfinite(e.cy)):
                raise MaskError(f"node {e.node_id}: centre must be finite")
        self._entries = entries
        self._circles = np.array([(e.cx, e.cy, e.radius) for e in entries], dtype=float)
        self._circles.flags.writeable = False

    @property
    def entries(self) -> tuple[MaskEntry, ...]:
        return self._entries

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(e.node_id for e in self._entries)

    @property
    def circles(self) -> np.ndarray:
        """Read-only (n, 3) array of the entries' (cx, cy, radius), in node-id order."""
        return self._circles

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
        cx, cy, r = self._circles.T
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
    """Parse a mask CSV with header ``node_id,cx,cy,radius``.

    Blank lines are skipped; errors name the line of the file itself.
    """
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise MaskError("mask file is empty")
    header = [col.strip() for col in lines[0][1].split(",")]
    if header != ["node_id", "cx", "cy", "radius"]:
        raise MaskError(f"mask header must be 'node_id,cx,cy,radius', got {lines[0][1]!r}")
    entries = []
    for lineno, line in lines[1:]:
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


#: Box pixels :func:`_disk_pixels` enumerates at once; a larger box goes alone.
_GATHER_PIXELS = 1 << 15


def _disk_pixels(cx: np.ndarray, cy: np.ndarray, reach, shape: tuple[int, int]):
    """The pixels within ``reach`` of each centre (cx, cy), in chunks of circles.

    Yields ``(first, counts, pixels, d2)`` for the circles ``first,
    first + 1, ...``: each one's number of member pixels, and their flat
    indices into ``shape`` and squared centre distances, circle by circle
    and row by row.  Membership is d2 <= reach^2 at pixel centres inside
    each circle's box of half-width ``reach``, clipped to ``shape``.  A
    chunk's boxes hold at most ``_GATHER_PIXELS`` pixels unless one box is
    larger; such a box is gone through in bands of rows of at most that
    many pixels, so only its members, not its box, take memory at once.
    """
    rows, cols = shape
    reach = np.broadcast_to(np.asarray(reach, dtype=float), np.shape(cx))
    with np.errstate(over="ignore"):  # a reach past 1e154 squares to inf: every pixel is in
        reach2 = reach * reach
    x0 = np.clip(np.ceil(cx - reach), 0, cols).astype(np.intp)
    y0 = np.clip(np.ceil(cy - reach), 0, rows).astype(np.intp)
    width = np.maximum(np.clip(np.floor(cx + reach), -1, cols - 1).astype(np.intp) + 1 - x0, 0)
    height = np.maximum(np.clip(np.floor(cy + reach), -1, rows - 1).astype(np.intp) + 1 - y0, 0)
    area = width * height
    end = np.cumsum(area)
    first = 0
    while first < len(area):
        start = end[first] - area[first]
        stop = max(first + 1, int(np.searchsorted(end, start + _GATHER_PIXELS, side="right")))
        # one entry per box row, then one per box pixel of a band of rows
        h = height[first:stop]
        circle = np.repeat(np.arange(first, stop), h)
        y = y0[circle] + np.arange(len(circle)) - np.repeat(np.cumsum(h) - h, h)
        band = max(1, _GATHER_PIXELS // max(1, int(width[first:stop].max())))
        counts = np.zeros(stop - first, dtype=np.intp)
        found = []
        for s in range(0, max(len(circle), 1), band):  # one band, if empty, for the arrays
            c, yc = circle[s : s + band], y[s : s + band]
            w = width[c]
            line = np.repeat(np.arange(len(c)), w)
            x = x0[c][line] + np.arange(len(line)) - np.repeat(np.cumsum(w) - w, w)
            d2 = (x - cx[c][line]) ** 2 + ((yc - cy[c]) ** 2)[line]
            (inside,) = np.nonzero(d2 <= reach2[c][line])
            line = line[inside]
            counts += np.bincount(c[line] - first, minlength=stop - first)
            found.append((yc[line] * cols + x[inside], d2[inside]))
        pixels, d2 = (np.concatenate(part) for part in zip(*found))
        del found  # the bands' own copies, while the caller works
        yield first, counts, pixels, d2
        first = stop


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

    The member pixels of all circles are gathered together (see
    :func:`_disk_pixels`), and circles with the same pixel count are summed
    together as the rows of one C-ordered matrix.  numpy sums each row by
    the same pairwise scheme as a vector of that length, so every circle's
    sum is bit-identical to summing its own pixels, in row-major order, on
    their own.

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
    sums = _circle_sums(image, mask)
    total = float(sums.sum())
    if total <= 0.0:
        raise DegenerateImageError("masked regions hold zero total intensity")
    probs = sums / total
    efficiency = float(probs[ids == exit_node][0])
    return ExtractionResult(ids, probs, efficiency)


def _circle_sums(image: PixelImage, mask: MaskSpec) -> np.ndarray:
    """The intensity inside each mask circle, in node-id order."""
    cx, cy, r = mask.circles.T
    sums = np.zeros(len(mask))
    flat = image.intensities.reshape(-1)
    for first, counts, pixels, _ in _disk_pixels(cx, cy, r, (image.rows, image.cols)):
        values = flat[pixels]
        starts = np.cumsum(counts) - counts
        for m in set(counts.tolist()):  # not np.unique, which imports numpy.ma on first use
            (same,) = np.nonzero(counts == m)
            sums[first + same] = values[starts[same, None] + np.arange(m)].sum(axis=1)
    return sums


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
    cx, cy, _ = mask.circles.T
    for first, counts, pixels, d2 in _disk_pixels(cx, cy, 4.0 * sigma, (rows, cols)):
        weight = np.repeat(probabilities[first : first + len(counts)], counts)
        # unbuffered, in circle order: overlapping spots add in mask order
        np.add.at(canvas.reshape(-1), pixels, weight * np.exp(-d2 / (2.0 * sigma * sigma)))
    return PixelImage._adopt(canvas)
