"""Colour refinement by whole-row ``np.unique``: the oracle for declared entry cells.

Every builder declares its graph's entry partition in closed form, and
``Graph.entry_cells`` checks that a declared partition is equitable with
the entry alone, not that it is the coarsest.  This module finds the
coarsest by refinement, and the tests hold each declaration to it, as a
partition (:func:`same_partition`).  Each round recolours a node by the
rank of its row [own colour, sorted neighbour colours] among the distinct
rows, which ``np.unique(axis=0)`` hands back, until the cell count stops
growing.  :func:`unique_row_cells` starts from the distance layers of a
plain-queue breadth-first search of its own, since every equitable
partition with the entry alone lies within them; :func:`unseeded_cells`
starts from {entry} | rest, and the two must agree.
:func:`with_oracle_cells` hands a graph that declares no cells, such as a
hand-built one, the oracle's partition, so that its walks run on the
entry cells.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from hexwalk.graphs import Graph


def queue_distances(graph: Graph) -> np.ndarray:
    """Distance of every node from the entry by a plain-queue search, or -1 for
    a node it cannot reach."""
    n = graph.n_nodes
    near = [[] for _ in range(n)]
    for a, b in graph.edges.tolist():
        near[a].append(b)
        near[b].append(a)
    dist = [-1] * n
    dist[graph.entry] = 0
    queue = deque([graph.entry])
    while queue:
        node = queue.popleft()
        for nb in near[node]:
            if dist[nb] < 0:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return np.array(dist, dtype=np.int64)


def _refine(graph: Graph, seed: np.ndarray) -> np.ndarray:
    """The coarsest equitable refinement of the colouring ``seed``, by whole-row ``np.unique``."""
    n = graph.n_nodes
    a, b = graph.edges.T
    src, dst = np.r_[a, b], np.r_[b, a]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    # neighbour table padded with node n, whose colour -1 no node has
    table = np.full((n, deg.max()), n)
    table[src, np.arange(len(src)) - (np.cumsum(deg) - deg)[src]] = dst
    colour = np.r_[seed, -1]
    cells = 0
    while colour.max() + 1 > cells:
        cells = colour.max() + 1
        rows = np.column_stack((colour[:n], np.sort(colour[table], axis=1)))
        colour[:n] = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    return colour[:n]


def unique_row_cells(graph: Graph) -> np.ndarray:
    """Cell id of every node in the entry partition, refined from the distance layers,
    the nodes the entry cannot reach one layer past the last."""
    dist = queue_distances(graph)
    return _refine(graph, np.where(dist < 0, dist.max() + 1, dist))


def with_oracle_cells(g: Graph) -> Graph:
    """The same graph with :func:`unique_row_cells` declared as its cells."""
    cells = unique_row_cells(g)
    return Graph(g.family, g.coord_array, g.edges, g.entry, g.exit, g.params, g.mirror, cells)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two cell labellings of the same nodes group them alike, whatever the ids."""
    pairs = np.unique(np.column_stack((a, b)), axis=0)
    return len(pairs) == len(np.unique(a)) == len(np.unique(b))


def unseeded_cells(graph: Graph) -> np.ndarray:
    """Cell id of every node in the entry partition, refined from {entry} | rest."""
    seed = np.zeros(graph.n_nodes, dtype=np.int64)
    seed[graph.entry] = 1
    return _refine(graph, seed)
