"""One spectral propagator for the coherent and the classical walk.

Both walks evolve a state on the graph under a real symmetric matrix M:
the coherent walk as psi(z) = exp(-i H z) psi(0), the classical walk as
p(t) = exp(K t) p(0).  With the cached eigendecomposition M = V diag(w) V^T
both are the same computation,

    x(t) = V exp(phase * w * t) V^T x(0),

with phase = -i for the Hamiltonian and phase = 1 for the rate matrix, so a
single factorisation serves every length on a scan grid.
:class:`SpectralOperator` holds the matrix and its spectrum and
:func:`propagate` evaluates the formula at one length, on a grid, or at one
site across a grid.

One site's curve x_s(t_j) = sum_m c_m exp(phase w_m t_j), with
c = V[s, :] * (V^T x(0)), is what every hitting scan samples, on an evenly
spaced grid t_j = t0 + j dz of T points.  Writing j = b q + r with
b = ceil(sqrt(T)) splits each exponential into a block start and an offset,
exp(phase w (t0 + dz b q)) * exp(phase w dz r), so the curve is one
(T/b x k) by (k x b) matrix product: about 2 sqrt(T) k exponentials and
O(T + sqrt(T) k) memory in place of T k of each.  For the classical walk
w <= 0 and both factors lie in [0, 1], so nothing overflows.

A walk launched at the entry never needs the N x N matrix.  Every symmetry
of the graph that keeps the entry in place also keeps the launch state, so
the state stays constant on the cells of the entry partition
(:attr:`hexwalk.graphs.Graph.entry_cells`): the coarsest equitable
partition with the entry alone in its cell (Krovi & Brun, PRA 75, 062332,
2007).  With S the N x k cell indicator, columns scaled to unit norm, M
maps span(S) into itself because degrees are constant on cells, so
exp(phase M t) S = S exp(phase S^T M S t) exactly.  On a walk operator
:func:`propagate` therefore runs every state constant on the cells, the
launch state among them, on the k x k quotient S^T M S and lifts the
result back.  A hexagonal patch halves (n^2 + 3n cells of 2n^2 + 4n
nodes), a glued tree of depth d shrinks to 2d + 2 cells and a hypercube of
dimension d to d + 1, so glued trees of depth 12 (16382 nodes) and larger
scan without forming a dense matrix.  Any other state keeps the full
spectrum.

A graph whose builder declares a mirror (:attr:`hexwalk.graphs.Graph.mirror`,
an involutive automorphism tau that swaps entry and exit) halves each
``eigh`` once more.  M commutes with the permutation tau, so its spectrum
splits into an even sector, the states with x[tau[i]] = x[i], and an odd
sector, x[tau[i]] = -x[i], and M couples neither to the other.  The quotient
inherits the mirror as r[cell[v]] = cell[tau[v]].  Each sector gets its own
``eigh`` of about k/2 rows, one more than k/2 for every cell the mirror
fixes, and the eigenvectors are lifted back into one k x k orthonormal V
(:attr:`SpectralOperator.spectrum`), so :func:`propagate` does not see the
split.  A hexagonal patch, a hypercube and a glued tree with the identity
gluing carry a mirror; a path, a random-cycle glued tree and a hand-built
graph do not, and take one ``eigh`` of size k.

The Hamiltonian couples neighbouring sites with a uniform strength C (units
1/mm, so the evolution parameter z is a propagation length in mm) and has
no on-site term: a common one would only add a global phase.  Since only
the product C*z enters the dynamics, everything defaults to C = 1 and
physical couplings are applied by rescaling; see
:func:`hexwalk.hitting.calibrated_coupling`.  The rate matrix lives in
:mod:`hexwalk.stochastic`.
"""

from __future__ import annotations

import math

import numpy as np

from hexwalk.graphs import Graph

#: Most bytes a walk spectrum may take (see :meth:`WalkOperator._assemble`).
#: ``hexagonal_graph(100)`` (10300 cells, 3.6 GiB predicted) fits.
MAX_SPECTRUM_BYTES = 4 * 2**30

#: k x k float arrays a walk on k cells holds at its peak: the matrix, V, the
#: sector blocks and ``eigh`` workspace, and the complex copy of V that a
#: coherent state's modes take.  Fitted to the peak RSS of coherent scans,
#: less the interpreter's: 4.36 arrays at hexagonal n = 60, 4.06 at n = 100.
_SPECTRUM_ARRAYS = 4.5


class SpectralOperator:
    """Real symmetric matrix with its eigendecomposition cached.

    ``phase`` multiplies the eigenvalues in the propagator's exponent: -1j
    for the coherent walk, whose states are complex amplitudes, and 1 for
    the classical walk, whose states are real probabilities.  The matrix is
    read-only and the spectrum is computed once on first use and reused for
    every evolution length.  A subclass that forms its matrix on demand
    passes None.  ``mirror``, an involution r of the indices with
    M[r[i], r[j]] = M[i, j], splits the spectrum into its two sectors; None
    stands for the identity.
    """

    def __init__(
        self,
        matrix: np.ndarray | None,
        phase: complex | float = 1.0,
        mirror: np.ndarray | None = None,
    ):
        if matrix is not None:
            matrix.flags.writeable = False
        self._matrix = matrix
        self.phase = phase
        self.mirror = mirror
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dtype(self) -> type:
        """Element type of the states the operator evolves."""
        return float if self.phase == 1.0 else complex

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and orthonormal eigenvectors of the matrix, even sector first.

        The eigenvalues ascend within each sector.  Cells i < r[i] pair with
        their mirror images; cells with r[i] = i are fixed.  The even sector
        has the basis (e_i + e_r[i]) / sqrt(2) for pairs and e_i for fixed
        cells, the odd sector (e_i - e_r[i]) / sqrt(2) for pairs, and M has
        no element between the two.  In those bases the blocks are
        [[A + B, sqrt(2) C], [sqrt(2) C^T, F]] and A - B, with A, B, C and F
        the blocks M[p, p], M[p, r[p]], M[p, f] and M[f, f] of pair cells p
        and fixed cells f; each goes to its own ``eigh`` and the eigenvectors
        are lifted back to k rows.  Without a mirror every cell is fixed, the
        even block is M itself and the empty odd block's ``eigh`` is skipped.
        """
        if self._spectrum is None:
            m = self.matrix
            i = np.arange(len(m))
            r = i if self.mirror is None else self.mirror
            p, f = np.flatnonzero(i < r), np.flatnonzero(i == r)
            a, b, c = m[np.ix_(p, p)], m[np.ix_(p, r[p])], math.sqrt(2.0) * m[np.ix_(p, f)]
            w_even, y_even = np.linalg.eigh(np.block([[a + b, c], [c.T, m[np.ix_(f, f)]]]))
            w_odd, y_odd = np.linalg.eigh(a - b) if len(p) else (w_even[:0], a)
            v = np.zeros(m.shape)
            even, odd = v[:, : len(w_even)], v[:, len(w_even) :]
            even[p] = even[r[p]] = math.sqrt(0.5) * y_even[: len(p)]
            even[f] = y_even[len(p) :]
            odd[p] = math.sqrt(0.5) * y_odd
            odd[r[p]] = -odd[p]
            w = np.concatenate([w_even, w_odd])
            w.flags.writeable = False
            v.flags.writeable = False
            self._spectrum = (w, v)
        return self._spectrum


class WalkOperator(SpectralOperator):
    """Walk matrix M = scale * (A - diagonal * D) of a graph.

    The Hamiltonian has ``diagonal`` 0 and the rate matrix 1.  The dense
    N x N matrix, and with it the N x N spectrum, is formed only when it is
    asked for; a state constant on the entry cells runs on :attr:`quotient`.  Both
    are the same assembly S^T M S, on singleton cells for the dense matrix.
    """

    diagonal = 0.0

    def __init__(self, graph: Graph, scale: float, phase: complex | float):
        super().__init__(None, phase, graph.mirror)
        self.graph = graph
        self.scale = scale
        self._quotient: SpectralOperator | None = None

    def _assemble(self, cell: np.ndarray) -> np.ndarray:
        """S^T M S for an equitable partition of the nodes into cells ``cell``.

        S is the N x k indicator of the cells with each column divided by
        sqrt(|cell|).  Cells a and b joined by e_ab edges meet at
        e_ab / sqrt(|a| |b|), and D is constant on every cell because the
        partition is equitable; the matrix is assembled from those counts,
        never from the dense one.  With one node per cell, S = I and the
        result is M itself.  A spectrum predicted to take more than
        :data:`MAX_SPECTRUM_BYTES` is refused with ``ValueError`` before
        anything is allocated.
        """
        g = self.graph
        size = np.bincount(cell)
        k = len(size)
        need = _SPECTRUM_ARRAYS * 8 * k * k
        if need > MAX_SPECTRUM_BYTES:
            raise ValueError(
                f"the walk spectrum on {k} cells would take about {need / 2**30:.3g} GiB, "
                f"above the limit of {MAX_SPECTRUM_BYTES / 2**30:.3g} GiB"
            )
        a, b = cell[g.edges.T]
        pair, links = np.unique(np.concatenate([a * k + b, b * k + a]), return_counts=True)
        i, j = np.divmod(pair, k)
        degree = np.zeros(k)
        degree[cell] = g.degrees
        m = np.zeros((k, k))
        m[i, j] = links / np.sqrt(size[i] * size[j])
        m.flat[:: k + 1] -= self.diagonal * degree
        m *= self.scale
        return m

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self._assemble(np.arange(self.graph.n_nodes))
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    @property
    def dim(self) -> int:
        return self.graph.n_nodes

    @property
    def quotient(self) -> SpectralOperator:
        """The k x k matrix S^T M S on the cells of :attr:`Graph.entry_cells`.

        Its mirror is the graph's, carried to the cells: r[cell[v]] =
        cell[tau[v]].  That is well defined when tau maps every cell onto a
        cell, as it does whenever the exit is alone in its cell; otherwise
        the quotient has no mirror.
        """
        if self._quotient is None:
            g = self.graph
            cell, tau, r = g.entry_cells, g.mirror, None
            if tau is not None:
                r = np.empty(cell.max() + 1, dtype=np.int64)
                r[cell] = cell[tau]
                if not np.array_equal(r[cell], cell[tau]):
                    r = None
            self._quotient = SpectralOperator(self._assemble(cell), self.phase, r)
        return self._quotient


class Hamiltonian(WalkOperator):
    """Coherent walk generator H = coupling * A of a graph.

    The coupling C (1/mm) sits at every adjacent pair; states are complex
    amplitudes evolved by exp(-i H z).
    """

    def __init__(self, graph: Graph, coupling: float = 1.0):
        coupling = float(coupling)
        if not np.isfinite(coupling) or coupling <= 0.0:
            raise ValueError(f"coupling must be finite and > 0, got {coupling}")
        self.coupling = coupling
        super().__init__(graph, coupling, -1j)


def entry_state(graph: Graph) -> np.ndarray:
    """Indicator of the graph's entry node: unit amplitude, or probability 1."""
    x = np.zeros(graph.n_nodes)
    x[graph.entry] = 1.0
    return x


def propagate(op: SpectralOperator, x0: np.ndarray, ts, site: int | None = None) -> np.ndarray:
    """Evolve the state x0 through the operator's cached spectrum.

    A single length ``ts`` (finite, >= 0) gives the evolved state, shape
    (N,); a 1-D grid of lengths gives one state per row, shape (T, N).  With
    a grid, ``site`` gives only that node's entry of each state, shape (T,),
    without forming the full states; that grid must be evenly spaced, from
    any start, and is evaluated as the blocked product described in the
    module docstring.  The coherent propagator is unitary and
    the classical one stochastic, so the norm, or the total probability, of
    x0 is kept to rounding.

    On a :class:`WalkOperator`, an x0 that equals itself read at one node of
    each cell of the entry partition is evolved as y = S^T x on
    ``op.quotient`` and lifted back as x = S y: node i holds
    y[cell(i)] / sqrt(|cell(i)|).  Neither the N x N matrix nor its spectrum
    is formed.  A classical walk from a non-negative x0 is then clipped at
    0: spectral rounding leaves residues of order 1e-16 around the true
    value, below 0 where the walk has not arrived yet.  A signed x0 is not
    clipped, as its true evolution can go negative.
    """
    x0 = np.asarray(x0, dtype=op.dtype)
    if x0.shape != (op.dim,):
        raise ValueError(f"state has shape {x0.shape}, expected ({op.dim},)")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim > 1:
        raise ValueError("length grid must be one-dimensional")
    if ts.size and not (0.0 <= ts.min() and ts.max() < np.inf):
        raise ValueError("evolution lengths must be finite and >= 0")
    if site is not None and (ts.ndim == 0 or not 0 <= site < op.dim):
        raise ValueError(f"site {site} needs a length grid and a node in 0..{op.dim - 1}")
    if isinstance(op, WalkOperator):
        cell = op.graph.entry_cells
        lift = 1.0 / np.sqrt(np.bincount(cell))
        node = np.empty(len(lift), dtype=np.intp)
        node[cell] = np.arange(len(cell))  # some node of each cell
        if np.array_equal(x0[node][cell], x0):
            q, y0 = op.quotient, x0[node] / lift
            if site is not None:
                x = propagate(q, y0, ts, cell[site]) * lift[cell[site]]
            else:
                x = (propagate(q, y0, ts) * lift)[..., cell]
            return x if q.dtype is complex or x0.min() < 0.0 else np.maximum(x, 0.0)
    w, v = op.spectrum
    modes = v.T @ x0
    if ts.ndim == 0:
        return v @ (np.exp(op.phase * w * float(ts)) * modes)
    if site is None:
        return (np.exp(op.phase * np.outer(ts, w)) * modes) @ v.T
    n = len(ts)
    if n > 1 and ts[-1] < ts[0]:  # ascending, so the classical offsets exp(w dz r) stay <= 1
        return propagate(op, x0, ts[::-1], site)[::-1]
    t0 = ts[0] if n else 0.0
    dz = (ts[-1] - t0) / (n - 1) if n > 1 else 0.0
    slack = 8 * np.finfo(float).eps * ts.max(initial=0.0)
    if np.any(np.abs(ts - (t0 + dz * np.arange(n))) > slack):
        raise ValueError("a site curve needs an evenly spaced length grid")
    # t_j = t0 + dz (b q + r) for j = b q + r: rows carry the block starts, columns the offsets
    b = max(1, math.ceil(math.sqrt(n)))
    rows = np.exp(op.phase * np.outer(t0 + dz * b * np.arange(-(-n // b)), w))
    cols = np.exp(op.phase * np.outer(dz * np.arange(b), w))
    return ((rows * (v[site, :] * modes)) @ cols.T).ravel()[:n]
