"""Dense forms of a walk operator and of its spectra, for tests only.

:class:`hexwalk.quantum.WalkOperator` makes its matrix as node pairs, and a
:class:`hexwalk.quantum.Spectrum` keeps V as two sector blocks on the cells
of a node partition.  These helpers put the matrix and V together whole,
and exponentiate the matrix with scipy.  The layout of V, the cells'
mirror, pairs and fixed cells, is worked out here from the operator's
mirror and chirality and the partition rather than read from the
spectrum's own maps, so products with it check the sector products.
``entry`` picks the spectrum: the operator's node spectrum, or the one on
its entry cells.  :class:`BothSectors` is a walk operator's node matrix
without its chirality, so its node spectrum diagonalises both sectors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg import expm

from hexwalk.quantum import Spectrum, WalkOperator


class BothSectors:
    """A walk operator's node pairs, phase and mirror without its chirality: handed to
    :class:`Spectrum` as its node spectrum, they run an ``eigh`` for each mirror sector."""

    chirality = None

    def __init__(self, op: WalkOperator):
        self.dim, self.pairs, self.phase, self.mirror = op.dim, op.pairs, op.phase, op.mirror

    @cached_property
    def spectrum(self) -> Spectrum:
        return Spectrum(self, np.arange(self.dim))


Operator = WalkOperator | BothSectors


def dense_matrix(op: Operator) -> np.ndarray:
    """The dim x dim matrix of the operator's node pairs."""
    i, j, value = op.pairs
    m = np.zeros((op.dim, op.dim))
    np.add.at(m, (i, j), value)
    return m


def propagate_expm(op: Operator, x0: np.ndarray, ts) -> np.ndarray:
    """exp(phase M t) x0 by scipy's ``expm`` of :func:`dense_matrix`, at one length or
    one row per length of a grid."""
    m = op.phase * dense_matrix(op)
    ts = np.asarray(ts, dtype=float)
    rows = [expm(t * m) @ x0 for t in ts.ravel()]
    return rows[0] if ts.ndim == 0 else np.array(rows)


def cells_of(op: Operator, entry: bool) -> np.ndarray:
    """The cell of every node: the entry cells, or every node its own."""
    return op.graph.entry_cells if entry else np.arange(op.dim)


def spectrum_of(op: Operator, entry: bool) -> Spectrum:
    return op.entry_spectrum if entry else op.spectrum


def indicator(cell: np.ndarray) -> np.ndarray:
    """S, the N x k cell indicator with each column scaled to unit norm."""
    s = (cell[:, None] == np.arange(cell.max() + 1)[None, :]).astype(float)
    return s / np.sqrt(s.sum(axis=0))


def cell_matrix(op: Operator, entry: bool) -> np.ndarray:
    """S^T M S: the matrix in the orthonormal basis of the states constant on the cells."""
    s = indicator(cells_of(op, entry))
    return s.T @ dense_matrix(op) @ s


def cell_mirror(op: Operator, entry: bool) -> np.ndarray | None:
    """The mirror carried to the cells, r[cell[v]] = cell[tau[v]], or None where there
    is none or where it splits a cell."""
    cell, tau = cells_of(op, entry), op.mirror
    if tau is None:
        return None
    r = np.zeros(cell.max() + 1, dtype=int)
    for v in range(len(cell)):
        r[cell[v]] = cell[tau[v]]
    return r if np.array_equal(r[cell], cell[tau]) else None


def orbits(op: Operator, entry: bool) -> tuple[np.ndarray, ...]:
    """The cell of every node, the cells' mirror r (the identity where there is none),
    the pair cells c < r[c] and the fixed cells."""
    cell = cells_of(op, entry)
    ids = np.arange(cell.max() + 1)
    r = cell_mirror(op, entry)
    r = ids if r is None else r
    return cell, r, np.flatnonzero(ids < r), np.flatnonzero(ids == r)


def dense_v(op: Operator, entry: bool = False) -> np.ndarray:
    """The k x k eigenvector matrix of the spectrum, read at the cells: entry [c, m] is
    mode m at every node of cell c, columns in the order of its ``w``.

    A pair cell p and its image r[p] share the even rows ``even[a]`` and take
    the odd rows +-``odd[a]``; a fixed cell has its even row and 0 on the odd
    columns.  A derived odd block is Gamma[p] times ``odd``, the even block itself.  At the nodes, ``dense_v(op, entry)[cells_of(op, entry)]``
    is V, N x k with orthonormal columns.
    """
    spectrum, (cell, r, p, f) = spectrum_of(op, entry), orbits(op, entry)
    k, n = len(r), len(p)
    odd = spectrum.odd
    if op.chirality is not None and n:
        gamma = np.zeros(k)
        gamma[cell] = op.chirality
        odd = gamma[p, None] * odd
    v = np.zeros((k, k))
    v_even, v_odd = v[:, : k - n], v[:, k - n :]
    v_even[p] = v_even[r[p]] = spectrum.even[:n]
    v_even[f] = spectrum.even[n:]
    if n:
        v_odd[p] = odd
        v_odd[r[p]] = -odd
    return v


def orthonormal_v(op: Operator, entry: bool = False) -> np.ndarray:
    """:func:`dense_v` in the orthonormal cell basis of :func:`cell_matrix`."""
    return dense_v(op, entry) * np.sqrt(np.bincount(cells_of(op, entry)))[:, None]


def propagate_dense(op: Operator, x0: np.ndarray, ts, entry: bool = False) -> np.ndarray:
    """V exp(phase w t) V^T x0 through V at the nodes, at one length or one row per length."""
    v, w = dense_v(op, entry)[cells_of(op, entry)], spectrum_of(op, entry).w
    modes = v.T @ x0
    ts = np.asarray(ts, dtype=float)
    if ts.ndim == 0:
        return v @ (np.exp(op.phase * w * float(ts)) * modes)
    return (np.exp(op.phase * np.outer(ts, w)) * modes) @ v.T
