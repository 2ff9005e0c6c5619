"""The graph builders and the ``Graph`` checks one node or edge at a time, as a test oracle.

``hexwalk.graphs`` builds every family as int64 arrays and checks a graph
in one numpy pass.  This module keeps the form it replaced: the builders
loop over hexagons, tree nodes and bitstrings in Python, and
``LoopGraph`` checks coordinates and edges one at a time, raising at the
first fault in input order.  Both must give the same graphs, and the same
exception type and message for every bad input.
"""

from __future__ import annotations

import random

import numpy as np

from hexwalk.graphs import FAMILIES, GLUING_MODES, _check_size, _checked_mirror, _integer


class LoopGraph:
    """The graph's family, coordinates, edges, ends, parameters and mirror,
    checked as ``Graph`` checked them before it took arrays."""

    def __init__(self, family, coords, edges, entry, exit, params=None, mirror=None):
        if family not in FAMILIES:
            raise ValueError(f"unknown graph family {family!r}")
        coords = tuple((_integer(x, "coordinate"), _integer(y, "coordinate")) for x, y in coords)
        n = len(coords)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        if len(set(coords)) != n:
            raise ValueError("node coordinates must be unique")
        canon = set()
        for a, b in edges:
            a, b = _integer(a, "node id"), _integer(b, "node id")
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references a node outside 0..{n - 1}")
            pair = (a, b) if a < b else (b, a)
            if pair in canon:
                raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
            canon.add(pair)
        entry, exit = _integer(entry, "entry node"), _integer(exit, "exit node")
        for label, node in (("entry", entry), ("exit", exit)):
            if not (0 <= node < n):
                raise ValueError(f"{label} node {node} outside 0..{n - 1}")
        if entry == exit:
            raise ValueError("entry and exit must be distinct nodes")
        self.family = family
        self.coords = coords
        self.edges = np.array(sorted(canon), dtype=np.int64).reshape(-1, 2)
        self.entry = entry
        self.exit = exit
        self.params = dict(params or {})
        if mirror is not None:
            key = self.edges[:, 0] * n + self.edges[:, 1]
            mirror = _checked_mirror(mirror, n, key, entry, exit)
        self.mirror = mirror


_HEX_CORNERS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def hexagonal_graph(n: int) -> LoopGraph:
    _check_size(n, "depth n", 1)
    corners: set[tuple[int, int]] = set()
    sides: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for c in range(2 * n - 1):
        rows = n - abs(c - (n - 1))
        cx = 3 * c
        for j in range(rows):
            cy = 2 * j - (rows - 1)
            ring = [(cx + dx, cy + dy) for dx, dy in _HEX_CORNERS]
            corners.update(ring)
            for k in range(6):
                a, b = ring[k], ring[(k + 1) % 6]
                sides.add((a, b) if a < b else (b, a))
    coords = sorted(corners)
    index = {xy: i for i, xy in enumerate(coords)}
    edges = [(index[a], index[b]) for a, b in sides]
    mirror = [index[(6 * (n - 1) - x, y)] for x, y in coords]
    return LoopGraph("hexagonal", coords, edges, 0, len(coords) - 1, {"n": n}, mirror)


def glued_tree(depth: int, gluing: str = "random", seed: int = 0) -> LoopGraph:
    if gluing not in GLUING_MODES:
        raise ValueError(f"glue must be 'identity' or 'random', got {gluing!r}")
    _check_size(depth, "depth", 1)
    leaves = 2**depth
    coords_by_key: dict[tuple[str, int, int], tuple[int, int]] = {}
    for level in range(depth + 1):
        span = 2 ** (depth - level)
        for i in range(2**level):
            y = (2 * i + 1 - 2**level) * span
            coords_by_key[("L", level, i)] = (level, y)
            coords_by_key[("R", level, i)] = (2 * depth + 1 - level, y)
    pairs = []
    for level in range(depth):
        for i in range(2**level):
            for child in (2 * i, 2 * i + 1):
                pairs.append((("L", level, i), ("L", level + 1, child)))
                pairs.append((("R", level, i), ("R", level + 1, child)))
    if gluing == "identity":
        for i in range(leaves):
            pairs.append((("L", depth, i), ("R", depth, i)))
    else:
        rng = random.Random(seed)
        left_order = rng.sample(range(leaves), leaves)
        right_order = rng.sample(range(leaves), leaves)
        for k in range(leaves):
            pairs.append((("L", depth, left_order[k]), ("R", depth, right_order[k])))
            pairs.append((("R", depth, right_order[k]), ("L", depth, left_order[(k + 1) % leaves])))
    order = sorted(coords_by_key, key=coords_by_key.__getitem__)
    index = {key: i for i, key in enumerate(order)}
    coords = [coords_by_key[key] for key in order]
    edges = [(index[a], index[b]) for a, b in pairs]
    params = {"depth": depth, "gluing": gluing}
    mirror = None
    if gluing == "random":
        params["seed"] = seed
    else:
        mirror = [index[("R" if side == "L" else "L", level, i)] for side, level, i in order]
    entry, exit = index[("L", 0, 0)], index[("R", 0, 0)]
    return LoopGraph("glued-tree", coords, edges, entry, exit, params, mirror)


def hypercube_graph(d: int) -> LoopGraph:
    _check_size(d, "dimension d", 1)
    n = 2**d
    layers: dict[int, list[int]] = {}
    for v in range(n):
        layers.setdefault(bin(v).count("1"), []).append(v)
    coords = [(0, 0)] * n
    for weight, members in layers.items():
        for pos, v in enumerate(sorted(members)):
            coords[v] = (weight, 2 * pos - (len(members) - 1))
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return LoopGraph("hypercube", coords, edges, 0, n - 1, {"d": d}, np.arange(n)[::-1])


def path_graph(m: int) -> LoopGraph:
    _check_size(m, "site count m", 2)
    coords = [(2 * i, 0) for i in range(m)]
    edges = [(i, i + 1) for i in range(m - 1)]
    return LoopGraph("path", coords, edges, (m - 1) // 2, m - 1, params={"m": m})
