"""Tests for ASCII image parsing, mask handling, and intensity extraction."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from readout_oracle import circle_sum, render_one_by_one

from hexwalk import imaging
from hexwalk.graphs import path_graph
from hexwalk.imaging import (
    DegenerateImageError,
    ImageParseError,
    MaskEntry,
    MaskError,
    MaskSpec,
    PixelImage,
    SpotWidthWarning,
    extract_probabilities,
    format_image,
    mask_csv,
    parse_image,
    parse_mask,
    render_synthetic,
)


def three_spot_mask(radius: float = 6.0) -> MaskSpec:
    return MaskSpec(
        [
            MaskEntry(0, 10.0, 10.0, radius),
            MaskEntry(1, 30.0, 10.0, radius),
            MaskEntry(2, 50.0, 10.0, radius),
        ]
    )


# ---------------------------------------------------------------------------
# image parsing and formatting
# ---------------------------------------------------------------------------


def test_parse_small_matrix():
    img = parse_image("1 2\n3 4")
    assert img.rows == 2
    assert img.cols == 2
    assert np.array_equal(img.intensities, [[1.0, 2.0], [3.0, 4.0]])
    assert img.total == 10.0


def test_parse_accepts_trailing_newlines_and_extra_spaces():
    img = parse_image("0   1.5\t2\n3 4 5\n\n")
    assert img.rows == 2
    assert img.cols == 3


def test_parse_rejects_ragged_rows_with_line_number():
    with pytest.raises(ImageParseError, match="line 2"):
        parse_image("1 2 3\n4 5")


def test_parse_rejects_non_numeric_token():
    with pytest.raises(ImageParseError, match="bright"):
        parse_image("1 2\n3 bright")


def test_parse_rejects_negative_and_non_finite_values():
    with pytest.raises(ImageParseError, match="line 1"):
        parse_image("-3 2\n1 1")
    with pytest.raises(ImageParseError):
        parse_image("1 inf\n1 1")
    with pytest.raises(ImageParseError):
        parse_image("nan 1\n1 1")


def test_parse_rejects_blank_interior_line_and_empty_text():
    with pytest.raises(ImageParseError, match="line 2"):
        parse_image("1 2\n\n3 4")
    with pytest.raises(ImageParseError):
        parse_image("")


def test_first_offending_line_wins_over_later_errors():
    # a later ragged row must not hide the negative value on line 2
    with pytest.raises(ImageParseError, match=r"^line 2: negative intensity$"):
        parse_image("1 2 3\n-1 2 3\n1 2 3\n1 2")
    with pytest.raises(ImageParseError, match=r"^line 2: non-finite value$"):
        parse_image("1 2\ninf 2\n1 -2\n1 1")
    with pytest.raises(ImageParseError, match=r"^line 3: non-numeric value 'x'$"):
        parse_image("1 2\n3 4\n-5 x\n1 2 3")


# Tokens at the edges of what ``float()`` reads: underscores, spelled-out and
# overflowing infinities, signed zero, hex, Fortran exponents, non-ASCII digits;
# and a comment mark and a quoted number, which a text reader may treat apart.
EDGE_TOKENS = (
    "1_0", "Infinity", "1e400", "-0", "0x10", "1d3", "\u0661", "1e-400", "-1e-400",
    "+1.5", ".5", "5.", "nan", "-nan", "INF", "-inf", "1e", "_1", "1__0", "0_1",
    "1,5", "+", "\uff11", "\u0663.\u0665", "\u2212" "1", "\u00bd", "1j", "0b1", "00012",
    "#", '"1"',
)

# Whitespace that ``str.split`` splits on but ``str.splitlines`` does not break
# at, and the line breaks ``str.splitlines`` knows beyond "\n".
SEPARATORS = (" ", "\t", "\x1f", "\xa0", "\u3000")
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028")


def float_reference(lines):
    """Read a rectangular frame token by token with ``float()``: (matrix, None) or (None, error)."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        values = []
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                return None, f"line {lineno}: non-numeric value {tok!r}"
        if not all(np.isfinite(values)):
            return None, f"line {lineno}: non-finite value"
        if any(v < 0.0 for v in values):
            return None, f"line {lineno}: negative intensity"
        rows.append(values)
    return np.array(rows), None


def test_edge_tokens_are_read_as_float_reads_them():
    rng = np.random.default_rng(2024)
    for trial in range(600):
        rows, cols = rng.integers(1, 5, size=2)
        cells = rng.choice(["1", "2.5", "0"], size=(rows, cols)).astype(object)
        for _ in range(rng.integers(1, 3)):
            cells[rng.integers(rows), rng.integers(cols)] = rng.choice(EDGE_TOKENS)
        if trial % 2:  # single spaces and newlines
            text = "\n".join(" ".join(row) for row in cells)
        else:  # any whitespace between and around tokens, any line break between rows
            lines = []
            for row in cells:
                gaps = rng.choice(SEPARATORS, size=len(row) + 1)
                edge = rng.random(2) < 0.3
                lines.append(
                    (gaps[0] if edge[0] else "")
                    + "".join(tok + gap for tok, gap in zip(row[:-1], gaps[1:]))
                    + row[-1]
                    + (gaps[-1] if edge[1] else "")
                )
            breaks = rng.choice(LINE_BREAKS, size=len(lines))
            text = "".join(line + brk for line, brk in zip(lines[:-1], breaks)) + lines[-1]
            text += breaks[-1] if rng.random() < 0.5 else ""
        expected, error = float_reference(text.splitlines())
        if error is None:
            got = parse_image(text).intensities
            assert np.array_equal(got, expected), repr(text)
            assert np.array_equal(np.signbit(got), np.signbit(expected)), repr(text)
        else:
            with pytest.raises(ImageParseError) as caught:
                parse_image(text)
            assert str(caught.value) == error, repr(text)


def test_format_parse_round_trip():
    img = PixelImage(np.array([[0.0, 1.25], [3.5, 10.0]]))
    again = parse_image(format_image(img))
    assert np.array_equal(again.intensities, img.intensities)


def test_pixel_image_validation():
    with pytest.raises(ValueError):
        PixelImage(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PixelImage(np.array([[1.0, -2.0]]))


def test_pixel_image_keeps_its_own_copy_of_a_callers_array():
    pixels = np.array([[0.0, 1.25], [3.5, 10.0]])
    image = PixelImage(pixels)
    pixels[0, 0] = 7.0
    assert np.array_equal(image.intensities, [[0.0, 1.25], [3.5, 10.0]])
    assert not image.intensities.flags.writeable
    assert pixels.flags.writeable


def test_parsed_image_holds_the_matrix_the_reader_built(monkeypatch):
    built = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: built.append(loadtxt(*a, **k)) or built[-1])
    image = parse_image("0 1.5\n2 3\n")
    assert image.intensities is built[0]
    assert not image.intensities.flags.writeable
    with pytest.raises(ValueError, match="negative intensity"):
        parse_image("0 -1\n")


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_mask_entries_are_sorted_by_node_id():
    mask = MaskSpec([MaskEntry(2, 50.0, 10.0, 5.0), MaskEntry(0, 10.0, 10.0, 5.0), MaskEntry(1, 30.0, 10.0, 5.0)])
    assert mask.node_ids == (0, 1, 2)
    assert len(mask) == 3


def test_mask_rejects_duplicates_and_bad_fields():
    with pytest.raises(MaskError):
        MaskSpec([MaskEntry(0, 10.0, 10.0, 5.0), MaskEntry(0, 30.0, 10.0, 5.0)])
    with pytest.raises(MaskError):
        MaskSpec([MaskEntry(-1, 10.0, 10.0, 5.0)])
    with pytest.raises(MaskError):
        MaskSpec([MaskEntry(0, 10.0, 10.0, 0.0)])
    with pytest.raises(MaskError):
        MaskSpec([MaskEntry(0, float("nan"), 10.0, 5.0)])


def test_mask_names_the_smallest_duplicate_id():
    entries = [MaskEntry(i, 10.0 * i, 10.0, 1.0) for i in (4, 2, 7, 4, 2, 1)]
    with pytest.raises(MaskError, match="^duplicate node id 2 in mask$"):
        MaskSpec(entries)
    # sorted order finds a duplicate in one pass, so a large mask fails fast
    large = [MaskEntry(i, 10.0 * i, 10.0, 1.0) for i in range(20000)]
    large.append(MaskEntry(19999, 0.0, 0.0, 1.0))
    with pytest.raises(MaskError, match="^duplicate node id 19999 in mask$"):
        MaskSpec(large)


def test_mask_overlap_rejected_tangency_allowed():
    image = PixelImage(np.ones((21, 61)))
    touching = MaskSpec([MaskEntry(0, 10.0, 10.0, 5.0), MaskEntry(1, 20.0, 10.0, 5.0)])
    touching.validate_for(image)  # distance 10 equals r1+r2, allowed
    overlapping = MaskSpec([MaskEntry(0, 10.0, 10.0, 5.0), MaskEntry(1, 19.0, 10.0, 5.0)])
    with pytest.raises(MaskError, match="overlap"):
        overlapping.validate_for(image)


def test_mask_out_of_bounds_rejected():
    image = PixelImage(np.ones((21, 21)))
    sticking_out = MaskSpec([MaskEntry(0, 2.0, 10.0, 5.0)])
    with pytest.raises(MaskError, match="outside"):
        sticking_out.validate_for(image)


def brute_force_overlap(mask: MaskSpec):
    """The message of the first overlapping pair in node-id order, by checking every pair."""
    entries = mask.entries
    for i, a in enumerate(entries):
        for b in entries[i + 1 :]:
            if (a.cx - b.cx) ** 2 + (a.cy - b.cy) ** 2 < (a.radius + b.radius) ** 2:
                return f"circles of nodes {a.node_id} and {b.node_id} overlap"
    return None


def overlap_message(mask: MaskSpec, image: PixelImage):
    try:
        mask.validate_for(image)
    except MaskError as exc:
        return str(exc)
    return None


def test_sweep_names_the_pair_a_brute_force_check_names():
    rng = np.random.default_rng(77)
    image = PixelImage(np.zeros((101, 101)))
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(2, 60))
        ids = rng.choice(1000, size=n, replace=False)
        xy = rng.uniform(10.0, 90.0, size=(n, 2))
        radii = rng.uniform(0.5, 6.0 * rng.uniform(0.1, 1.0), size=n)
        if trial % 2:  # a half-pixel lattice, so equal x and tangency are common
            xy, radii = np.round(2.0 * xy) / 2.0, np.ceil(2.0 * radii) / 2.0
        mask = MaskSpec(
            MaskEntry(int(i), float(x), float(y), float(r)) for i, (x, y), r in zip(ids, xy, radii)
        )
        expected = brute_force_overlap(mask)
        assert overlap_message(mask, image) == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_tangent_circles_pass_at_any_angle():
    image = PixelImage(np.zeros((101, 101)))
    # centre gaps (6, 8), (0, 10), (10, 0) and (8, 6) of length 10 = 4 + 6
    for dx, dy in ((6.0, 8.0), (0.0, 10.0), (10.0, 0.0), (8.0, -6.0)):
        mask = MaskSpec([MaskEntry(0, 40.0, 40.0, 4.0), MaskEntry(1, 40.0 + dx, 40.0 + dy, 6.0)])
        mask.validate_for(image)
        closer = MaskSpec([MaskEntry(0, 40.0, 40.0, 4.0), MaskEntry(1, 40.0 + dx, 40.0 + dy, 6.5)])
        with pytest.raises(MaskError, match="^circles of nodes 0 and 1 overlap$"):
            closer.validate_for(image)


def test_bounds_error_comes_before_overlap_error():
    image = PixelImage(np.zeros((41, 41)))
    mask = MaskSpec(
        [
            MaskEntry(0, 10.0, 10.0, 5.0),
            MaskEntry(1, 12.0, 10.0, 5.0),  # overlaps node 0
            MaskEntry(5, 38.0, 20.0, 5.0),  # reaches past column 40
            MaskEntry(3, 20.0, 2.0, 5.0),  # reaches above row 0
        ]
    )
    outside = r"^node 3: circle at \(20, 2\) r=5 reaches outside a 41x41 image$"
    with pytest.raises(MaskError, match=outside):
        mask.validate_for(image)


def test_ten_thousand_circle_lattice_validates():
    # 100 x 100 tangent circles: every row and column of centres shares its coordinate
    centres = 5.0 + 10.0 * np.arange(100)
    mask = MaskSpec(
        MaskEntry(100 * i + j, float(x), float(y), 5.0)
        for i, y in enumerate(centres)
        for j, x in enumerate(centres)
    )
    image = PixelImage(np.zeros((1001, 1001)))
    mask.validate_for(image)
    crowded = MaskSpec(mask.entries[:-1] + (MaskEntry(10000, 500.0, 497.0, 1.0),))
    with pytest.raises(MaskError, match="^circles of nodes 4949 and 10000 overlap$"):
        crowded.validate_for(image)


def test_mask_keeps_its_circles_as_one_read_only_array():
    mask = MaskSpec([MaskEntry(2, 50.0, 10.5, 5.0), MaskEntry(0, 10.0, 10.0, 4.0)])
    assert np.array_equal(mask.circles, [[10.0, 10.0, 4.0], [50.0, 10.5, 5.0]])
    assert mask.circles.dtype == float
    with pytest.raises(ValueError):
        mask.circles[0, 0] = 1.0


def test_parse_mask_and_csv_round_trip():
    text = "node_id,cx,cy,radius\n0,10,10,6\n1,30,10.5,6\n2,50,10,6\n"
    mask = parse_mask(text)
    assert mask.node_ids == (0, 1, 2)
    assert mask.entries[1].cy == 10.5
    again = parse_mask(mask_csv(mask))
    assert again.entries == mask.entries


def test_parse_mask_errors_carry_line_numbers():
    with pytest.raises(MaskError, match="header"):
        parse_mask("id,x,y,r\n0,1,1,1\n")
    with pytest.raises(MaskError, match="line 2"):
        parse_mask("node_id,cx,cy,radius\n0,10,10\n")
    with pytest.raises(MaskError, match="line 3"):
        parse_mask("node_id,cx,cy,radius\n0,10,10,5\nx,30,10,5\n")
    # blank lines count: the numbers are the file's own
    with pytest.raises(MaskError, match="line 3: expected 4 fields"):
        parse_mask("node_id,cx,cy,radius\n\n0,1,2\n")
    with pytest.raises(MaskError, match="line 4: malformed mask row"):
        parse_mask("node_id,cx,cy,radius\r\n0,10,10,5\r\n\r\n1,30,10,bad\r\n")
    with pytest.raises(MaskError, match="line 4: malformed mask row"):
        parse_mask("\n\nnode_id,cx,cy,radius\n0,x,10,5\n")
    # a node id is an integer as written: no float form of one is read as one
    for node_id in ("1.5", "2.0", "1e2", "nan"):
        with pytest.raises(MaskError, match=f"^line 3: malformed mask row '{node_id},10,10,5'$"):
            parse_mask(f"node_id,cx,cy,radius\n0,30,10,5\n{node_id},10,10,5\n")


def test_parse_mask_reads_numbers_as_python_does():
    mask = parse_mask("node_id,cx,cy,radius\r\n2, 50 ,10,6\r\n0,1_0,10,6\r\n\r\n1,+30,1.05e1,6.5\r\n")
    assert mask.entries == (
        MaskEntry(0, 10.0, 10.0, 6.0), MaskEntry(1, 30.0, 10.5, 6.5), MaskEntry(2, 50.0, 10.0, 6.0)
    )
    with pytest.raises(MaskError, match="node 7: centre must be finite"):
        parse_mask("node_id,cx,cy,radius\n7,inf,10,6\n")


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_uniform_image_gives_equal_shares():
    image = PixelImage(np.ones((21, 61)))
    result = extract_probabilities(image, three_spot_mask())
    assert np.allclose(result.probabilities, 1.0 / 3.0)
    assert np.array_equal(result.node_ids, [0, 1, 2])


def test_all_intensity_at_exit_gives_unit_efficiency():
    pixels = np.zeros((21, 61))
    pixels[10, 50] = 7.0
    result = extract_probabilities(PixelImage(pixels), three_spot_mask())
    assert result.efficiency == 1.0
    assert np.array_equal(result.probabilities, [0.0, 0.0, 1.0])


def test_extraction_is_linear_in_the_image():
    mask = three_spot_mask()
    a = np.zeros((21, 61))
    a[10, 10] = 1.0
    b = np.zeros((21, 61))
    b[10, 30] = 1.0
    combined = extract_probabilities(PixelImage(3.0 * a + 1.0 * b), mask)
    assert np.allclose(combined.probabilities, [0.75, 0.25, 0.0])


def test_extraction_ignores_light_outside_every_circle():
    mask = three_spot_mask()
    pixels = np.zeros((21, 61))
    pixels[10, 10] = 2.0
    pixels[0, 0] = 50.0  # far corner, inside no circle
    result = extract_probabilities(PixelImage(pixels), mask)
    assert np.array_equal(result.probabilities, [1.0, 0.0, 0.0])


def test_mask_entry_order_does_not_matter():
    pixels = np.random.default_rng(0).random((21, 61))
    image = PixelImage(pixels)
    forward = extract_probabilities(image, three_spot_mask())
    shuffled = MaskSpec(list(reversed(three_spot_mask().entries)))
    backward = extract_probabilities(image, shuffled)
    assert np.array_equal(forward.probabilities, backward.probabilities)
    assert np.array_equal(forward.node_ids, backward.node_ids)


def test_exit_node_defaults_to_highest_id_and_can_be_overridden():
    image = PixelImage(np.ones((21, 61)))
    mask = three_spot_mask()
    default = extract_probabilities(image, mask)
    named = extract_probabilities(image, mask, exit_node=0)
    assert abs(default.efficiency - 1.0 / 3.0) < 1e-12
    assert abs(named.efficiency - 1.0 / 3.0) < 1e-12
    with pytest.raises(MaskError):
        extract_probabilities(image, mask, exit_node=9)


def random_mask(rng, rows: int, cols: int, n: int) -> MaskSpec:
    """Circles of radius 0.5 to 7 with non-integral centres, some reaching past the frame."""
    xy = rng.uniform([-3.0, -3.0], [cols + 3.0, rows + 3.0], size=(n, 2))
    radii = rng.uniform(0.5, 7.0, size=n)
    if rng.random() < 0.5:  # half-pixel centres and radii: touching circles, ties at d^2 = r^2
        xy, radii = np.round(2.0 * xy) / 2.0, np.ceil(2.0 * radii) / 2.0
    return MaskSpec(
        MaskEntry(i, float(x), float(y), float(r)) for i, ((x, y), r) in enumerate(zip(xy, radii))
    )


@pytest.mark.parametrize("budget", [imaging._GATHER_PIXELS, 40])
def test_gathered_circle_sums_equal_one_circle_at_a_time(budget, monkeypatch):
    # a budget of 40 box pixels splits every mask into many chunks
    monkeypatch.setattr(imaging, "_GATHER_PIXELS", budget)
    rng = np.random.default_rng(31)
    for _ in range(300):
        rows, cols = (int(v) for v in rng.integers(4, 60, size=2))
        image = PixelImage(rng.random((rows, cols)) * 10.0 ** rng.uniform(-3, 3, size=(rows, cols)))
        mask = random_mask(rng, rows, cols, int(rng.integers(1, 40)))
        expected = [circle_sum(image, e) for e in mask.entries]
        assert np.array_equal(imaging._circle_sums(image, mask), expected)
    # circles far off the frame, and a radius whose square overflows to inf
    image = PixelImage(np.ones((7, 9)))
    far = MaskSpec(
        [MaskEntry(0, 1e300, -1e300, 1.0), MaskEntry(1, 5.0, 5.0, 1e300), MaskEntry(2, -1e308, 3.0, 2.0)]
    )
    assert np.array_equal(imaging._circle_sums(image, far), [0.0, 63.0, 0.0])
    assert [circle_sum(image, e) for e in far.entries] == [0.0, 63.0, 0.0]


def test_extraction_equals_the_one_circle_at_a_time_readout():
    # a row of tangent circles at quarter-pixel centres, radii 0.5 to 7 in halves (exact sums)
    rng = np.random.default_rng(5)
    radii = np.ceil(rng.uniform(1.0, 14.0, size=30)) / 2.0
    cx = 8.25 + np.cumsum(radii) + np.r_[0.0, np.cumsum(radii[:-1])]
    mask = MaskSpec(MaskEntry(i, float(x), 8.25, float(r)) for i, (x, r) in enumerate(zip(cx, radii)))
    image = PixelImage(rng.random((18, int(cx[-1] + radii[-1]) + 3)))
    sums = np.array([circle_sum(image, e) for e in mask.entries])
    result = extract_probabilities(image, mask)
    assert np.array_equal(result.probabilities, sums / float(sums.sum()))


def test_extraction_memory_follows_the_circles_own_boxes():
    # 2000 circles of radius 1 beside one of radius 300: one matrix of
    # 2001 x 601^2 boxes would take 5.8 GB; the boxes themselves hold 0.4 M pixels
    small = [(603.0 + 2.0 * (k % 48), 1.0 + 2.0 * (k // 48)) for k in range(2000)]
    mask = MaskSpec(
        [MaskEntry(0, 300.0, 300.0, 300.0)]
        + [MaskEntry(k + 1, x, y, 1.0) for k, (x, y) in enumerate(small)]
    )
    image = PixelImage(np.ones((601, 700)))
    tracemalloc.start()
    try:
        result = extract_probabilities(image, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    big = circle_sum(image, mask.entries[0])
    assert np.array_equal(result.probabilities, np.r_[big, np.full(2000, 5.0)] / (big + 10000.0))
    assert peak < 16 * 8 * 601**2  # sixteen float64 copies of the largest box
    # the large box is gone through in bands of rows: its 282697 member pixels, not
    # its 361201 box pixels, take memory at once, six numbers each (81 bytes at 21.8 MiB before)
    assert peak < 6 * 8 * 282697


def test_dark_image_is_degenerate():
    image = PixelImage(np.zeros((21, 61)))
    with pytest.raises(DegenerateImageError):
        extract_probabilities(image, three_spot_mask())


# ---------------------------------------------------------------------------
# synthetic rendering and the round trip
# ---------------------------------------------------------------------------


def test_indicator_probability_renders_one_spot():
    mask = three_spot_mask()
    img = render_synthetic(np.array([0.0, 1.0, 0.0]), mask, (21, 61), sigma=2.0)
    assert img.intensities[10, 30] == img.intensities.max()
    assert img.intensities[10, 10] == 0.0
    assert img.intensities[10, 50] == 0.0


def test_uniform_probabilities_render_equal_mass():
    mask = three_spot_mask()
    img = render_synthetic(np.full(3, 1.0 / 3.0), mask, (21, 61), sigma=2.0)
    result = extract_probabilities(img, mask)
    assert np.allclose(result.probabilities, 1.0 / 3.0, atol=1e-12)


def test_rendering_is_deterministic():
    mask = three_spot_mask()
    p = np.array([0.2, 0.5, 0.3])
    one = format_image(render_synthetic(p, mask, (21, 61), sigma=2.0))
    two = format_image(render_synthetic(p, mask, (21, 61), sigma=2.0))
    assert one == two


def test_wide_spot_warns():
    mask = three_spot_mask(radius=6.0)
    with pytest.warns(SpotWidthWarning):
        render_synthetic(np.array([0.2, 0.5, 0.3]), mask, (21, 61), sigma=6.0)


def test_render_validation():
    mask = three_spot_mask()
    with pytest.raises(ValueError):
        render_synthetic(np.array([0.5, 0.5]), mask, (21, 61), sigma=2.0)
    with pytest.raises(ValueError):
        render_synthetic(np.array([0.2, -0.1, 0.9]), mask, (21, 61), sigma=2.0)
    with pytest.raises(ValueError):
        render_synthetic(np.full(3, 1.0 / 3.0), mask, (21, 61), sigma=0.0)


@pytest.mark.parametrize("budget", [imaging._GATHER_PIXELS, 40])
def test_render_matches_one_spot_at_a_time(budget, monkeypatch):
    # wide spots overlap, so pixels gather up to many spots in mask order
    monkeypatch.setattr(imaging, "_GATHER_PIXELS", budget)
    rng = np.random.default_rng(8)
    for _ in range(200):
        rows, cols = (int(v) for v in rng.integers(4, 60, size=2))
        mask = random_mask(rng, rows, cols, int(rng.integers(1, 30)))
        p = rng.random(len(mask)) * (rng.random(len(mask)) < 0.8)
        sigma = float(rng.uniform(0.2, 6.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SpotWidthWarning)
            got = render_synthetic(p, mask, (rows, cols), sigma)
        expected = render_one_by_one(p, mask, (rows, cols), sigma)
        assert got.intensities.tobytes() == expected.intensities.tobytes()
        assert format_image(got) == format_image(expected)


@pytest.mark.parametrize("radius", [6.0, 9.0])
def test_round_trip_recovers_probabilities(radius):
    spacing = 4.0 * radius
    entries = [MaskEntry(i, 20.0 + spacing * i, 20.0, radius) for i in range(4)]
    mask = MaskSpec(entries)
    shape = (41, int(40 + spacing * 3 + 1))
    p = np.array([0.05, 0.45, 0.30, 0.20])
    img = render_synthetic(p, mask, shape, sigma=radius / 3.0)
    result = extract_probabilities(img, mask)
    assert np.max(np.abs(result.probabilities - p)) < 1e-3


def test_large_synthetic_file_parses_with_matching_total():
    rng = np.random.default_rng(12)
    entries = []
    for i in range(16):
        row, col = divmod(i, 4)
        entries.append(MaskEntry(i, 64.0 + 128.0 * col, 64.0 + 128.0 * row, 8.0))
    mask = MaskSpec(entries)
    p = rng.random(16)
    p /= p.sum()
    img = render_synthetic(p, mask, (512, 512), sigma=8.0 / 3.0)
    parsed = parse_image(format_image(img))
    assert parsed.rows == 512
    assert parsed.cols == 512
    assert abs(parsed.total - img.total) < 1e-6 * img.total
