"""Graph builders for walk experiments on honeycomb and reference topologies.

Every builder returns an immutable :class:`Graph` whose nodes carry integer
coordinates on a doubled lattice: a node stored at (X, Y) sits at the
physical point (X * s / 2, Y * sqrt(3) * s / 2) for waveguide pitch s.
Working in doubled integers makes vertex identity exact, so merging the
corners shared by neighbouring hexagons never depends on a float tolerance.

Node ids are dense 0..N-1.  For the coordinate-built families they follow
the lexicographic (X, then Y) order of the coordinates, which makes every
node table reproducible and puts the entry at id 0 and the exit at id N-1.
The builders make each family as int64 arrays, with no loop over nodes,
and refuse a graph of more than :data:`MAX_NODES` nodes before building it.
"""

from __future__ import annotations

import operator
import random

import numpy as np

GLUING_MODES = ("identity", "random-cycle")

#: Largest node count a builder makes; a larger graph is refused before any
#: array is allocated.
MAX_NODES = 10**6

#: Most bytes a neighbour table, or a walk spectrum, may take; read when each is checked
#: (:func:`_within_budget`).  ``hexagonal_graph(133)`` (18088 cells, 3.9 GiB) fits.
MAX_WALK_BYTES = 4 * 2**30

#: The one place that knows each family: family -> (build, scale).
#: ``build(take, seed)`` builds the graph from a selector, where
#: ``take(key, default=None, cast=int)`` hands out one parameter and ``seed``
#: is the command-line --seed.  ``scale(params)`` is the depth-like size of a
#: built graph that sets its default scan window.  Builders are looked up by
#: their module-level names at call time, so a wrapper installed on those
#: names sees every build.
_FAMILY_TABLE = {
    "hexagonal": (lambda take, seed: hexagonal_graph(take("n")), lambda p: p["n"]),
    "glued-tree": (lambda take, seed: _glued_tree_from(take, seed), lambda p: p["depth"]),
    "hypercube": (lambda take, seed: hypercube_graph(take("d")), lambda p: p["d"]),
    "path": (lambda take, seed: path_graph(take("m")), lambda p: max(1, p["m"] // 4)),
}

FAMILIES = tuple(_FAMILY_TABLE)


def cached(compute):
    """A read-only property whose value ``compute(self)`` makes on first read.

    The value is kept in the instance's ``__dict__`` under the property's own
    name, an entry the property (a data descriptor) shadows.  A value that
    is an ndarray is made read-only.  The factory returns a plain
    :class:`property`, so a wrapper around its ``fget`` sees every read.
    """
    name = compute.__name__

    def get(self):
        store = vars(self)
        if name not in store:
            store[name] = value = compute(self)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return store[name]

    return property(get, doc=compute.__doc__)


class Graph:
    """Immutable undirected graph with integer display coordinates.

    Instances are meant to be built by the module-level constructors and
    never mutated.  ``coords`` and ``edges`` are sequences of pairs or (R, 2)
    arrays.  The coordinates are stored as a read-only int64 array
    (:attr:`coord_array`; :attr:`coords` is the same as tuples of ``int``)
    and the edges once, as a read-only (E, 2) array; the adjacency matrix
    and degree vector are derived from it, cached on first use and handed
    out read-only too, so a single graph can be shared freely between scan
    workers.  Coordinates, node ids, entry and exit must be integers,
    numpy's but not bools; any other value raises ``ValueError`` rather than
    being truncated, and so does a coordinate beyond int64.  The graph
    needs two nodes, unique coordinates, and no self-loop, edge outside
    0..N-1 or repeated edge; the ``ValueError`` names the first faulty edge
    in input order.  An integer array is checked in one numpy pass; any
    other input is read one value at a time, with the same messages.

    Builders that know them declare ``mirror`` and ``cells``, which the graph
    checks but never searches for.  ``mirror`` is an involution tau of the
    nodes (tau[v] is the image of node v) mapping edges onto edges and the
    entry onto the exit, the reflection swapping the walk's two ends, by
    which walk operators split their spectra (:mod:`hexwalk.quantum`).
    ``cells`` labels each node with its cell of :attr:`entry_cells`.
    """

    def __init__(
        self,
        family: str,
        coords,
        edges,
        entry: int,
        exit: int,
        params: dict | None = None,
        mirror: np.ndarray | list[int] | None = None,
        cells: np.ndarray | list[int] | None = None,
    ):
        if family not in FAMILIES:
            raise ValueError(f"unknown graph family {family!r}")
        xy, fault = _int64_rows(coords, "coordinate")
        if fault is not None:
            raise fault
        n = len(xy)
        if n < 2:
            raise ValueError("graph needs at least two nodes")
        ranked = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
        if np.any((ranked[1:] == ranked[:-1]).all(axis=1)):
            raise ValueError("node coordinates must be unique")
        pairs, fault = _int64_rows(edges, "node id", lambda a, b: _edge_fault(a, b, n))
        key = _edge_keys(pairs, n)
        del pairs
        if fault is not None:
            raise fault
        entry, exit = _integer(entry, "entry node"), _integer(exit, "exit node")
        for label, node in (("entry", entry), ("exit", exit)):
            if not (0 <= node < n):
                raise ValueError(f"{label} node {node} outside 0..{n - 1}")
        if entry == exit:
            raise ValueError("entry and exit must be distinct nodes")
        self._family = family
        xy.flags.writeable = False
        self._xy = xy
        if mirror is not None:
            mirror = _checked_mirror(mirror, n, key, entry, exit)
        self._mirror = mirror
        self._cells = None if cells is None else _node_values(cells, n, "cells", "cell label")
        edge_array = np.column_stack((key // n, key % n))
        del key
        edge_array.flags.writeable = False
        self._edges = edge_array
        self._entry = entry
        self._exit = exit
        self._params = dict(params or {})

    @property
    def family(self) -> str:
        return self._family

    @cached
    def coords(self) -> tuple[tuple[int, int], ...]:
        """Node coordinates as (X, Y) pairs of ``int``, indexed by node id (cached)."""
        return tuple(map(tuple, self._xy.tolist()))

    @property
    def coord_array(self) -> np.ndarray:
        """Node coordinates, shape (N, 2), int64 (read-only)."""
        return self._xy

    @property
    def edges(self) -> np.ndarray:
        """Edge list, shape (E, 2), each row (a, b) with a < b, rows sorted (read-only)."""
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
    def mirror(self) -> np.ndarray | None:
        """Node permutation tau that swaps entry and exit (read-only), or None."""
        return self._mirror

    @property
    def n_nodes(self) -> int:
        return len(self._xy)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    @cached
    def adjacency(self) -> np.ndarray:
        """Dense symmetric 0/1 adjacency matrix (read-only, cached)."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        i, j = self._edges.T
        a[i, j] = a[j, i] = 1.0
        return a

    @cached
    def degrees(self) -> np.ndarray:
        """Per-node degree vector (read-only, cached)."""
        return np.bincount(self._edges.ravel(), minlength=self.n_nodes)

    @cached
    def neighbours(self) -> np.ndarray:
        """Neighbour table, shape (N, max degree): row v lists the neighbours of
        node v, padded with the node id N, which no node has (read-only, cached).
        One over :data:`MAX_WALK_BYTES` raises ``ValueError`` before it is allocated."""
        n, deg = self.n_nodes, self.degrees
        stage = f"the neighbour table of {n} nodes of degree up to {deg.max()}"
        _within_budget(stage, 8 * n * int(deg.max()))
        a, b = self._edges.T
        src, dst = np.r_[a, b], np.r_[b, a]
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        table = np.full((n, deg.max()), n)
        table[src, np.arange(len(src)) - (np.cumsum(deg) - deg)[src]] = dst
        return table

    @cached
    def distances(self) -> np.ndarray:
        """Distance of every node from the entry, in edges, or -1 for a node the
        entry cannot reach (read-only, cached).  The graph is connected exactly
        when no distance is -1.

        A breadth-first search, one frontier of nodes at a time through
        :attr:`neighbours`.  A node that several frontier nodes reach joins
        the next frontier once: of its places in the list of reached nodes,
        the one that ``owner`` keeps, whichever write lands last.
        """
        n, table = self.n_nodes, self.neighbours
        dist, owner = np.full(n + 1, -1), np.empty(n + 1, dtype=np.int64)
        dist[[n, self._entry]] = 0  # the padding node n is never visited
        frontier, layer = np.array([self._entry]), 0
        while frontier.size:
            layer += 1
            reached = table[frontier].ravel()
            reached = reached[dist[reached] < 0]
            place = np.arange(len(reached))
            owner[reached] = place
            frontier = reached[owner[reached] == place]
            dist[frontier] = layer
        return dist[:n]

    @cached
    def parity(self) -> np.ndarray | None:
        """Distance from the entry mod 2 of every node when every node has a
        distance and every edge joins an even and an odd layer, else None
        (read-only, cached).

        Such a parity is the graph's 2-colouring: the adjacency matrix only
        couples nodes of opposite parity.
        """
        if self.distances.min() < 0:
            return None
        a, b = self._edges.T
        parity = self.distances % 2
        return parity if np.all(parity[a] != parity[b]) else None

    @cached
    def entry_cells(self) -> np.ndarray:
        """Cell id of every node in the entry partition, equitable with the
        entry alone: the declared labels numbered 0..k-1 in ascending order,
        or ``np.arange(N)`` where none are declared (read-only, cached).  On
        first read ``ValueError`` names the first node that shares the entry's
        cell, or whose sorted neighbour cells differ from those of the first
        node of its cell."""
        if self._cells is None:
            return np.arange(self.n_nodes)
        e = self._entry
        _, first, cell = np.unique(self._cells, return_index=True, return_inverse=True)
        mates = np.flatnonzero(cell == cell[e])
        if len(mates) > 1:
            raise ValueError(f"the entry {e} shares its cell with node {mates[mates != e][0]}")
        rows = np.sort(np.r_[cell, -1][self.neighbours], axis=1)  # the padding's cell is -1
        broken = np.flatnonzero(np.any(rows != rows[first[cell]], axis=1))
        if broken.size:
            v, u = broken[0], first[cell[broken[0]]]
            raise ValueError(f"cells are not equitable: node {v} differs from node {u} of its cell")
        return cell

    def __repr__(self) -> str:
        return (
            f"Graph({self._family}, {self.n_nodes} nodes, {self.n_edges} edges, "
            f"entry={self._entry}, exit={self._exit})"
        )


def _integer(value, label: str) -> int:
    """``value`` as an int, through ``__index__``: numpy integers pass; a bool, 1.5, 2.0 do not."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{label} {value!r} is not an integer")


def _within_budget(stage: str, need: float) -> None:
    """``ValueError`` naming ``stage`` if ``need`` bytes are above :data:`MAX_WALK_BYTES` now."""
    if need > MAX_WALK_BYTES:
        size = f"about {need / 2**30:.3g} GiB, above the limit of {MAX_WALK_BYTES / 2**30:.3g} GiB"
        raise ValueError(f"{stage} would take {size}")


def _positive(value, label: str):
    """``value`` if it is finite and > 0, else ``ValueError`` naming ``label``."""
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{label} must be finite and > 0, got {value}")
    return value


_INT64 = np.iinfo(np.int64)


def _int64_rows(rows, label: str, wide=None, pairs=True) -> tuple[np.ndarray, Exception | None]:
    """``rows`` as an (R, 2) int64 array, or with ``pairs`` false an (R,) one of
    single values, and the error of the first row that is not a pair of
    integers (not an integer), or None.

    An integer ndarray whose values fit int64 is taken whole (copied); for
    pairs its shape must be (R, 2).  Anything else is read as
    ``for a, b in rows`` (``for v in rows``), one value at a time through
    :func:`_integer`, up to the first row that fails: the rows before it come
    back with that row's error.  For a value beyond int64 that is
    ``wide(a, b)``, or by default a ``ValueError`` naming the first such value.
    """
    if (
        isinstance(rows, np.ndarray)
        and rows.dtype.kind in "iu"
        and (not pairs or (rows.ndim == 2 and rows.shape[1] == 2))
        and (rows.dtype.kind == "i" or rows.size == 0 or rows.max() <= _INT64.max)
    ):
        return rows.astype(np.int64), None
    done, fault = [], None
    try:
        for row in rows:
            if pairs:
                a, b = row  # a row that is no pair fails here, as unpacking does
            row = (_integer(a, label), _integer(b, label)) if pairs else (_integer(row, label),)
            far = [v for v in row if not _INT64.min <= v <= _INT64.max]
            if far and wide:
                raise wide(*row)
            if far:
                raise ValueError(f"{label} {far[0]} is outside the int64 range")
            done.append(row)
    except (TypeError, ValueError) as exc:
        fault = exc
    return np.array(done, dtype=np.int64).reshape((-1, 2) if pairs else -1), fault


def _edge_fault(a: int, b: int, n: int) -> ValueError:
    """The error for edge (a, b) of an n-node graph, known to be at fault."""
    if a == b:
        return ValueError(f"self-loop at node {a}")
    if 0 <= a < n and 0 <= b < n:
        return ValueError(f"duplicate edge ({min(a, b)}, {max(a, b)})")
    return ValueError(f"edge ({a}, {b}) references a node outside 0..{n - 1}")


def _edge_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """Ascending keys a * n + b of the edges as rows (a, b) with a < b;
    ``ValueError`` naming the first self-loop, edge outside 0..n-1 or repeat
    of an earlier edge, in input order."""
    a, b = pairs.T
    key, hi = np.minimum(a, b), np.maximum(a, b)
    bad = (key == hi) | (key < 0) | (hi >= n)
    key *= n
    key += hi
    del hi
    # a faulty row gets a negative key of its own, so it repeats nothing
    key[bad] = -1 - np.flatnonzero(bad)
    order = np.argsort(key, kind="stable")
    key = key[order]
    bad[order[1:][key[1:] == key[:-1]]] = True  # stable: the first of equal keys stays
    if bad.any():
        i = int(np.argmax(bad))
        raise _edge_fault(int(a[i]), int(b[i]), n)
    return key


def _node_values(values, n: int, name: str, label: str) -> np.ndarray:
    """``values`` as an (n,) int64 array, each read by :func:`_int64_rows` as a ``label``."""
    array, fault = _int64_rows(values, label, pairs=False)
    if fault is not None or array.shape != (n,):
        raise fault or ValueError(f"{name} has shape {array.shape}, expected ({n},)")
    return array


def _checked_mirror(mirror, n: int, key: np.ndarray, entry: int, exit: int) -> np.ndarray:
    """``mirror`` as a read-only node permutation; ``ValueError`` naming the fault
    unless it is an involutive automorphism that maps ``entry`` to ``exit``.
    ``key`` holds the edges as ascending keys a * n + b with a < b."""
    tau = _node_values(mirror, n, "mirror", "mirror entry")
    if not np.array_equal(np.sort(tau), np.arange(n)):
        raise ValueError(f"mirror is not a permutation of the nodes 0..{n - 1}")
    moved = np.flatnonzero(tau[tau] != np.arange(n))
    if moved.size:
        v, w = moved[0], tau[moved[0]]
        raise ValueError(f"mirror is not an involution: it maps {v} to {w} and {w} to {tau[w]}")
    a, b = tau[key // n], tau[key % n]
    image = np.minimum(a, b) * n
    image += np.maximum(a, b)
    del a, b
    at = np.searchsorted(key, image)
    lost = np.flatnonzero(key[np.minimum(at, len(key) - 1)] != image)
    if lost.size:
        (a, b), (c, d) = divmod(key[lost[0]], n), divmod(image[lost[0]], n)
        raise ValueError(f"mirror maps edge ({a}, {b}) onto ({c}, {d}), which is not an edge")
    if tau[entry] != exit:
        raise ValueError(f"mirror maps the entry {entry} to {tau[entry]}, not to the exit {exit}")
    tau.flags.writeable = False
    return tau


def _check_size(value, label: str, minimum: int) -> int:
    """``value`` as an int of at least ``minimum``, read by :func:`_integer`."""
    value = _integer(value, label)
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}, got {value}")
    return value


def _check_nodes(count: int | str) -> None:
    """Refuse a graph of more than :data:`MAX_NODES` nodes before it is built.
    A count too large to work out is given as text, and always refused."""
    if isinstance(count, str) or count > MAX_NODES:
        raise ValueError(f"graph would have {count} nodes, above the cap of {MAX_NODES}")


# Corner offsets of one hexagon around its centre, in cyclic order, so that
# consecutive corners are joined by a side of physical length s.
_HEX_CORNERS = np.array(((2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)))


def hexagonal_graph(n: int) -> Graph:
    """Diamond-shaped polyhex patch that is n hexagons tall at its waist.

    Hexagon columns c = 0..2n-2 hold n - |c - (n-1)| cells stacked
    symmetrically about the horizontal axis, so the patch contains n**2
    hexagons in total.  Corners shared between neighbouring cells are merged
    exactly via their doubled-lattice integer coordinates.  The unique
    leftmost corner (-2, 0) is the entry and the unique rightmost corner the
    exit: each end column holds one hexagon, on the axis, so those corners
    are the first and last coordinates in order.  A patch of depth n always
    has 2n**2 + 4n nodes and 3n**2 + 4n - 1 edges; a depth whose patch
    would exceed :data:`MAX_NODES` is refused.  Its mirror is the
    reflection X -> 6(n - 1) - X across the middle column, which swaps the
    entry and exit corners; its entry cells are the pairs (X, |Y|).
    """
    n = _check_size(n, "depth n", 1)
    _check_nodes(2 * n * n + 4 * n)
    rows = n - np.abs(np.arange(2 * n - 1) - (n - 1))  # hexagons per column
    col = np.repeat(np.arange(2 * n - 1), rows)
    j = np.arange(n * n) - np.repeat(np.cumsum(rows) - rows, rows)
    centre = np.column_stack((3 * col, 2 * j - (rows[col] - 1)))
    corner = centre[:, None, :] + _HEX_CORNERS  # (n**2, 6, 2)
    # X >= -2 and |Y| <= n, so this key orders corners as (X, Y) pairs do
    span = 2 * n + 1
    keys, node = np.unique((corner[..., 0] + 2) * span + corner[..., 1] + n, return_inverse=True)
    node = node.reshape(corner.shape[:2])
    coords = np.column_stack((keys // span - 2, keys % span - n))
    count = len(keys)
    a, b = node, np.roll(node, -1, axis=1)
    sides = np.sort(np.minimum(a, b) * count + np.maximum(a, b), axis=None)
    sides = sides[np.r_[True, sides[1:] != sides[:-1]]]  # each inner side once
    edges = np.column_stack((sides // count, sides % count))
    mirror = np.searchsorted(keys, (6 * n - 4 - coords[:, 0]) * span + coords[:, 1] + n)
    cells = (coords[:, 0] + 2) * span + np.abs(coords[:, 1])
    return Graph("hexagonal", coords, edges, 0, count - 1, {"n": n}, mirror, cells)


def glued_tree(depth: int, gluing: str = "random-cycle", seed: int = 0) -> Graph:
    """Two complete binary trees of the given depth joined leaf-to-leaf.

    The left tree's root is the entry and the right tree's root the exit.
    With ``gluing="identity"`` leaf i of one tree is joined to leaf i of the
    other (each leaf gains one edge); with ``gluing="random-cycle"`` the
    leaves are joined by a seeded alternating cycle through both leaf sets,
    so every leaf gains exactly two edges and ends up with degree 3.  The
    cycle is a deterministic function of the integer ``seed``.  The graph has
    2**(depth + 2) - 2 nodes; a depth whose graph would exceed
    :data:`MAX_NODES` is refused.

    Coordinates are a layered drawing: the left tree occupies X = 0..depth,
    the mirrored right tree X = depth+1..2*depth+1, and siblings spread in Y
    so that every parent sits midway between its children.  The identity
    gluing carries a mirror, which swaps node i of each level of the left
    tree with node i of the same level of the right tree; a random cycle
    carries none.  Either gluing's entry cells are the columns X.
    """
    depth = _check_size(depth, "depth", 1)
    if gluing not in GLUING_MODES:
        raise ValueError(f"gluing must be one of {GLUING_MODES}, got {gluing!r}")
    _check_nodes(2 ** (depth + 2) - 2 if depth < 64 else f"2**{depth + 2} - 2")
    half = 2 ** (depth + 1) - 1  # nodes per tree
    leaves = 2**depth
    # In (X, Y) order the left tree's ids are its heap indices h (children
    # 2h + 1 and 2h + 2), level by level; the right tree follows, deepest
    # level first, and its node in the place of h gets id ``right[h]``.
    h = np.arange(half)
    level = np.repeat(np.arange(depth + 1), 2 ** np.arange(depth + 1))
    first = 2**level
    y = (2 * (h + 1 - first) + 1 - first) * 2 ** (depth - level)
    right = 2 * half + 2 + h - 3 * first
    coords = np.empty((2 * half, 2), dtype=np.int64)
    coords[h] = np.column_stack((level, y))
    coords[right] = np.column_stack((2 * depth + 1 - level, y))
    parent = (h[1:] - 1) // 2
    trees = np.r_[np.column_stack((parent, h[1:])), np.column_stack((right[parent], right[1:]))]
    left_leaf, right_leaf = h[-leaves:], right[-leaves:]
    params = {"depth": depth, "gluing": gluing}
    mirror = None
    if gluing == "identity":
        glue = np.column_stack((left_leaf, right_leaf))
        mirror = np.empty(2 * half, dtype=np.int64)
        mirror[h], mirror[right] = right, h
    else:
        params["seed"] = seed = _integer(seed, "seed")
        rng = random.Random(seed)
        lo = left_leaf[rng.sample(range(leaves), leaves)]
        ro = right_leaf[rng.sample(range(leaves), leaves)]
        glue = np.column_stack((lo, ro, ro, np.roll(lo, -1))).reshape(-1, 2)
    edges = np.r_[trees, glue]
    return Graph("glued-tree", coords, edges, 0, 2 * half - 1, params, mirror, coords[:, 0])


def hypercube_graph(d: int) -> Graph:
    """d-dimensional hypercube: node ids are the bitstrings 0..2**d - 1.

    Edges join ids at Hamming distance one; the entry is the all-zeros
    corner 0 and the exit the all-ones corner 2**d - 1, and the mirror is the
    complement v -> 2**d - 1 - v.  Coordinates are for display only
    (X = Hamming weight, layers spread in Y) and do not affect the id
    assignment.  The entry cells are the Hamming weights.  A dimension
    whose 2**d nodes exceed :data:`MAX_NODES` is refused.
    """
    d = _check_size(d, "dimension d", 1)
    _check_nodes(2**d if d < 64 else f"2**{d}")
    n = 2**d
    v = np.arange(n)
    flip = 1 << np.arange(d)
    unset = (v[:, None] & flip) == 0  # (v, b): bit b of v is 0
    weight = d - np.count_nonzero(unset, axis=1)
    size = np.bincount(weight)
    order = np.argsort(weight, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = v - (np.cumsum(size) - size)[weight[order]]
    coords = np.column_stack((weight, 2 * pos - (size[weight] - 1)))
    low, b = np.nonzero(unset)
    del unset
    edges = np.column_stack((low, low | flip[b]))
    del low, b
    return Graph("hypercube", coords, edges, 0, n - 1, {"d": d}, v[::-1], weight)


def path_graph(m: int) -> Graph:
    """Path of m sites.  Spreading walks launch from the middle, so the
    entry is site (m - 1) // 2 and the exit the far end m - 1; taking the
    left-of-centre site for even m keeps entry and exit distinct down to
    m = 2.  An odd m declares the entry cells |i - entry|; an even m, with
    one site per cell, none.  More than :data:`MAX_NODES` sites are refused."""
    m = _check_size(m, "site count m", 2)
    _check_nodes(m)
    i = np.arange(m)
    coords = np.column_stack((2 * i, np.zeros_like(i)))
    edges = np.column_stack((i[:-1], i[1:]))
    cells = np.abs(i - (m - 1) // 2) if m % 2 else None
    return Graph("path", coords, edges, (m - 1) // 2, m - 1, {"m": m}, cells=cells)


def _glued_tree_from(take, seed: int) -> Graph:
    """A glued tree from its selector; only the random gluing takes a seed."""
    depth, glue = take("d"), take("glue", "random", str)
    gluing = "random-cycle" if glue == "random" else glue
    if gluing not in GLUING_MODES:
        raise ValueError(f"glue must be 'identity' or 'random', got {gluing!r}")
    if gluing == "identity":
        return glued_tree(depth, gluing)
    return glued_tree(depth, gluing, take("seed", seed))


def parse_graph_selector(text: str, default_seed: int = 0) -> Graph:
    """Build a graph from a selector such as ``hexagonal:n=4``.

    Selectors are ``family:key=value,key=value``, each key given once.
    Families and keys: ``hexagonal:n=4``, ``glued-tree:d=3,glue=random,seed=7``
    (glue is ``identity`` or ``random``; only a random gluing takes a seed,
    which falls back to --seed),
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
    try:
        return _FAMILY_TABLE[graph.family][1](graph.params)
    except KeyError as exc:
        raise ValueError(
            f"{graph.family} graph has no size parameter {exc.args[0]!r}; "
            "give the scan window explicitly"
        ) from None
