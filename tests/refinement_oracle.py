"""Colour refinement by whole-row ``np.unique``, as a test oracle.

``Graph.entry_cells`` seeds its refinement with the distance layers from
the entry and ranks each round's rows with one ``np.lexsort``.  This
module keeps the form it replaced: ``np.unique(axis=0)`` sorts the rows as
structured records, compared field by field, and hands back each row's
rank among the distinct rows.  Both orders are lexicographic, so with the
same seed the two must give the same cell ids, not merely the same
partition.  :func:`unique_row_cells` takes its layers from a plain-queue
breadth-first search of its own; :func:`unseeded_cells` starts from
{entry} | rest, as the refinement did before it was seeded.
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


def unseeded_cells(graph: Graph) -> np.ndarray:
    """Cell id of every node in the entry partition, refined from {entry} | rest."""
    seed = np.zeros(graph.n_nodes, dtype=np.int64)
    seed[graph.entry] = 1
    return _refine(graph, seed)
