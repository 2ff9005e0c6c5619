"""Colour refinement by whole-row ``np.unique``, as a test oracle.

``Graph.entry_cells`` ranks each round's rows with one ``np.lexsort``.
This module keeps the form it replaced: ``np.unique(axis=0)`` sorts the
rows as structured records, compared field by field, and hands back each
row's rank among the distinct rows.  Both orders are lexicographic, so the
two must give the same cell ids, not merely the same partition.
"""

from __future__ import annotations

import numpy as np

from hexwalk.graphs import Graph


def unique_row_cells(graph: Graph) -> np.ndarray:
    """Cell id of every node in the entry partition, refined by whole-row ``np.unique``."""
    n = graph.n_nodes
    a, b = graph.edges.T
    src, dst = np.r_[a, b], np.r_[b, a]
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    # neighbour table padded with node n, whose colour -1 no node has
    table = np.full((n, deg.max()), n)
    table[src, np.arange(len(src)) - (np.cumsum(deg) - deg)[src]] = dst
    colour = np.zeros(n + 1, dtype=np.int64)
    colour[graph.entry] = 1
    colour[n] = -1
    cells = 0
    while colour.max() + 1 > cells:
        cells = colour.max() + 1
        rows = np.column_stack((colour[:n], np.sort(colour[table], axis=1)))
        colour[:n] = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    return colour[:n]
