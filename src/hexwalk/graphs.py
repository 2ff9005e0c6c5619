"""Graph builders for walk experiments on honeycomb and reference topologies.

Every builder returns an immutable :class:`Graph` whose nodes carry integer
coordinates on a doubled lattice: a node stored at (X, Y) sits at the
physical point (X * s / 2, Y * sqrt(3) * s / 2) for waveguide pitch s.
Working in doubled integers makes vertex identity exact, so merging the
corners shared by neighbouring hexagons never depends on a float tolerance.

Node ids are dense 0..N-1.  For the coordinate-built families they follow
the lexicographic (X, then Y) order of the coordinates, which makes every
CSV export reproducible and puts the entry at id 0 and the exit at id N-1.
"""

from __future__ import annotations

import random

import numpy as np

GLUING_MODES = ("identity", "random-cycle")

#: The one place that knows each family: family -> (build, scale).
#: ``build(take, seed)`` builds the graph from a selector, where
#: ``take(key, default=None, cast=int)`` hands out one parameter and ``seed``
#: is the command-line --seed.  ``scale(params)`` is the depth-like size of a
#: built graph that sets its default scan window.  Builders are looked up by
#: their module-level names at call time, so a wrapper installed on those
#: names sees every build.
_FAMILY_TABLE = {
    "hexagonal": (lambda take, seed: hexagonal_graph(take("n")), lambda p: p["n"]),
    "glued-tree": (
        lambda take, seed: glued_tree(
            take("d"), _gluing(take("glue", "random", str)), take("seed", seed)
        ),
        lambda p: p["depth"],
    ),
    "hypercube": (lambda take, seed: hypercube_graph(take("d")), lambda p: p["d"]),
    "path": (lambda take, seed: path_graph(take("m")), lambda p: max(1, p["m"] // 4)),
}

FAMILIES = tuple(_FAMILY_TABLE)


class Graph:
    """Immutable undirected graph with integer display coordinates.

    Instances are meant to be built by the module-level constructors and
    never mutated; the adjacency matrix and degree vector are cached on
    first use and handed out as read-only arrays, so a single graph can be
    shared freely between scan workers.
    """

    def __init__(
        self,
        family: str,
        coords: list[tuple[int, int]],
        edges: list[tuple[int, int]],
        entry: int,
        exit: int,
        params: dict | None = None,
    ):
        if family not in FAMILIES:
            raise ValueError(f"unknown graph family {family!r}")
        coords = tuple((int(x), int(y)) for x, y in coords)
        n = len(coords)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        if len(set(coords)) != n:
            raise ValueError("node coordinates must be unique")
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) references a node outside 0..{n - 1}")
            pair = (a, b) if a < b else (b, a)
            if pair in canon:
                raise ValueError(f"duplicate edge ({pair[0]}, {pair[1]})")
            canon.add(pair)
        for label, node in (("entry", entry), ("exit", exit)):
            if not (0 <= node < n):
                raise ValueError(f"{label} node {node} outside 0..{n - 1}")
        if entry == exit:
            raise ValueError("entry and exit must be distinct nodes")
        self._family = family
        self._coords = coords
        self._edges = tuple(sorted(canon))
        self._entry = int(entry)
        self._exit = int(exit)
        self._params = dict(params or {})
        self._adjacency: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._neighbors: tuple[tuple[int, ...], ...] | None = None

    @property
    def family(self) -> str:
        return self._family

    @property
    def coords(self) -> tuple[tuple[int, int], ...]:
        return self._coords

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    @property
    def entry(self) -> int:
        return self._entry

    @property
    def exit(self) -> int:
        return self._exit

    @property
    def params(self) -> dict:
        """Constructor parameters (a copy; the graph itself stays frozen)."""
        return dict(self._params)

    @property
    def n_nodes(self) -> int:
        return len(self._coords)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @property
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only, cached)."""
        if self._adjacency is None:
            a = np.zeros((self.n_nodes, self.n_nodes))
            for i, j in self._edges:
                a[i, j] = 1.0
                a[j, i] = 1.0
            a.flags.writeable = False
            self._adjacency = a
        return self._adjacency

    @property
    def degrees(self) -> np.ndarray:
        """Per-node degree vector (read-only, cached)."""
        if self._degrees is None:
            d = np.zeros(self.n_nodes, dtype=np.int64)
            for i, j in self._edges:
                d[i] += 1
                d[j] += 1
            d.flags.writeable = False
            self._degrees = d
        return self._degrees

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbour ids of a node (the per-node lists are cached)."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside 0..{self.n_nodes - 1}")
        if self._neighbors is None:
            out: list[list[int]] = [[] for _ in range(self.n_nodes)]
            for i, j in self._edges:
                out[i].append(j)
                out[j].append(i)
            self._neighbors = tuple(tuple(sorted(nbs)) for nbs in out)
        return self._neighbors[node]

    @property
    def connected(self) -> bool:
        """Whether every node is reachable from node 0."""
        seen, stack = {0}, [0]
        while stack:
            new = set(self.neighbors(stack.pop())) - seen
            seen |= new
            stack.extend(new)
        return len(seen) == self.n_nodes

    def __repr__(self) -> str:
        return (
            f"Graph({self._family}, {self.n_nodes} nodes, {self.n_edges} edges, "
            f"entry={self._entry}, exit={self._exit})"
        )


def _check_size(value, label: str, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{label} must be an integer")
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}, got {value}")


# Corner offsets of one hexagon around its centre, in cyclic order, so that
# consecutive corners are joined by a side of physical length s.
_HEX_CORNERS = ((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1))


def hexagonal_graph(n: int) -> Graph:
    """Diamond-shaped polyhex patch that is n hexagons tall at its waist.

    Hexagon columns c = 0..2n-2 hold n - |c - (n-1)| cells stacked
    symmetrically about the horizontal axis, so the patch contains n**2
    hexagons in total.  Corners shared between neighbouring cells are merged
    exactly via their doubled-lattice integer coordinates.  The unique
    leftmost corner (-2, 0) is the entry and the unique rightmost corner the
    exit.  A patch of depth n always has 2n**2 + 4n nodes and
    3n**2 + 4n - 1 edges.
    """
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
    min_x = coords[0][0]
    max_x = coords[-1][0]
    if sum(1 for x, _ in coords if x == min_x) != 1:
        raise ValueError("leftmost corner is not unique; cannot place the entry")
    if sum(1 for x, _ in coords if x == max_x) != 1:
        raise ValueError("rightmost corner is not unique; cannot place the exit")
    return Graph("hexagonal", coords, edges, 0, len(coords) - 1, params={"n": n})


def glued_tree(depth: int, gluing: str = "random-cycle", seed: int = 0) -> Graph:
    """Two complete binary trees of the given depth joined leaf-to-leaf.

    The left tree's root is the entry and the right tree's root the exit.
    With ``gluing="identity"`` leaf i of one tree is joined to leaf i of the
    other (each leaf gains one edge); with ``gluing="random-cycle"`` the
    leaves are joined by a seeded alternating cycle through both leaf sets,
    so every leaf gains exactly two edges and ends up with degree 3.  The
    cycle is a deterministic function of ``seed``.

    Coordinates are a layered drawing: the left tree occupies X = 0..depth,
    the mirrored right tree X = depth+1..2*depth+1, and siblings spread in Y
    so that every parent sits midway between its children.
    """
    _check_size(depth, "depth", 1)
    if gluing not in GLUING_MODES:
        raise ValueError(f"gluing must be one of {GLUING_MODES}, got {gluing!r}")
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
    if gluing == "random-cycle":
        params["seed"] = seed
    return Graph("glued-tree", coords, edges, index[("L", 0, 0)], index[("R", 0, 0)], params=params)


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube: node ids are the bitstrings 0..2**d - 1.

    Edges join ids at Hamming distance one; the entry is the all-zeros
    corner 0 and the exit the all-ones corner 2**d - 1.  Coordinates are for
    display only (X = Hamming weight, layers spread in Y) and do not affect
    the id assignment.
    """
    _check_size(d, "dimension d", 1)
    n = 2**d
    layers: dict[int, list[int]] = {}
    for v in range(n):
        layers.setdefault(bin(v).count("1"), []).append(v)
    coords = [(0, 0)] * n
    for weight, members in layers.items():
        for pos, v in enumerate(sorted(members)):
            coords[v] = (weight, 2 * pos - (len(members) - 1))
    edges = []
    for v in range(n):
        for b in range(d):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Graph("hypercube", coords, edges, 0, n - 1, params={"d": d})


def path_graph(m: int) -> Graph:
    """Path of m sites.  Spreading walks launch from the middle, so the
    entry is site (m - 1) // 2 and the exit the far end m - 1; taking the
    left-of-centre site for even m keeps entry and exit distinct down to
    m = 2."""
    _check_size(m, "site count m", 2)
    coords = [(2 * i, 0) for i in range(m)]
    edges = [(i, i + 1) for i in range(m - 1)]
    return Graph("path", coords, edges, (m - 1) // 2, m - 1, params={"m": m})


def _gluing(glue: str) -> str:
    mode = "random-cycle" if glue == "random" else glue
    if mode not in GLUING_MODES:
        raise ValueError(f"glue must be 'identity' or 'random', got {mode!r}")
    return mode


def parse_graph_selector(text: str, default_seed: int = 0) -> Graph:
    """Build a graph from a selector such as ``hexagonal:n=4``.

    Selectors are ``family:key=value,key=value``, each key given once.
    Families and keys: ``hexagonal:n=4``, ``glued-tree:d=3,glue=random,seed=7``
    (glue is ``identity`` or ``random``; seed falls back to --seed),
    ``hypercube:d=5``, ``path:m=101``.
    """
    family, _, tail = text.partition(":")
    family = family.strip()
    params: dict[str, str] = {}
    if tail:
        for chunk in tail.split(","):
            key, eq, value = chunk.partition("=")
            key = key.strip()
            if not eq or not key or not value.strip():
                raise ValueError(f"malformed selector parameter {chunk!r} in {text!r}")
            if key in params:
                raise ValueError(f"selector {text!r} repeats parameter {key!r}")
            params[key] = value.strip()
    if family not in _FAMILY_TABLE:
        raise ValueError(
            f"unknown graph family {family!r}; "
            f"expected {', '.join(FAMILIES[:-1])}, or {FAMILIES[-1]}"
        )

    def take(key: str, default=None, cast=int):
        if key not in params:
            if default is None:
                raise ValueError(f"selector {text!r} is missing required parameter {key!r}")
            return default
        raw = params.pop(key)
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(f"selector parameter {key}={raw!r} is not an integer") from None

    graph = _FAMILY_TABLE[family][0](take, default_seed)
    if params:
        raise ValueError(f"unknown selector parameter(s) {sorted(params)} for {family!r}")
    return graph


def depth_scale(graph: Graph) -> int:
    """Depth-like size of a graph, which sets its default scan window."""
    return _FAMILY_TABLE[graph.family][1](graph.params)


def edge_csv(graph: Graph) -> str:
    """Edge list as CSV text with header ``node_a,node_b``."""
    lines = ["node_a,node_b"]
    lines.extend(f"{a},{b}" for a, b in graph.edges)
    return "\n".join(lines) + "\n"


def node_csv(graph: Graph) -> str:
    """Node table as CSV text with header ``id,X,Y,is_entry,is_exit``."""
    lines = ["id,X,Y,is_entry,is_exit"]
    for i, (x, y) in enumerate(graph.coords):
        lines.append(f"{i},{x},{y},{int(i == graph.entry)},{int(i == graph.exit)}")
    return "\n".join(lines) + "\n"
