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

No operator keeps a dense matrix beside its spectrum.  Each holds its
entries as pairs (i, j, value), a walk operator its node pairs and its
quotient the cell pairs; each sector block is scattered from them, goes to
``eigh`` and is freed before the next is built, and V comes last.  So a
spectrum peaks at about 1.55 k x k float arrays with a mirror and 5.2
without (:func:`_spectrum_bytes`).  A complex state is projected onto V,
and a single length lifted back, a block of rows of V at a time, never
through a complex copy of all of V.

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

#: Most bytes a walk spectrum may take (see :func:`_spectrum_bytes`).
#: ``hexagonal_graph(133)`` (18088 cells, 3.9 GiB predicted) fits.
MAX_SPECTRUM_BYTES = 4 * 2**30

#: n x n float arrays an ``eigh`` of order n holds at its peak: its input,
#: its result, and LAPACK's copy and workspace (``dsyevd``, 2 n^2 and more)
#: inside the call; measured at 5.1 and 5.2 for n = 3000 and 1890.
_EIGH_ARRAYS = 5.2

#: Resident bytes beside a spectrum's arrays: the graph, its cells and the
#: curve, and freed blocks under glibc's 32 MiB mmap threshold that stay in
#: its heap (about 0.6 k x k arrays at hexagonal n = 60, none at n = 100).
_RESIDENT_SLACK = 128 * 2**20


def _spectrum_bytes(k: int, odd: int) -> float:
    """Peak resident bytes of a walk on k cells whose spectrum has ``odd`` odd rows.

    :attr:`SpectralOperator.spectrum` holds, one stage after another, the
    even sector's ``eigh`` (e = k - odd rows), the odd sector's beside the
    even eigenvectors, and V beside both: max(5.2 e^2, e^2 + 5.2 odd^2,
    k^2 + e^2 + odd^2) floats.  Evolving a state adds vectors and
    sqrt(T) x k mode factors only.  So a mirror that halves the cells
    needs 1.55 k x k arrays and a graph without one 5.2.  Against the peak
    RSS of runs less the interpreter's: coherent and classical scans at
    hexagonal n = 100 (k = 10300) took 1.53 arrays, the dense spectrum of
    hexagonal n = 60 (7440 nodes) 1.53, and a path of 4000 cells 5.08.
    """
    even = k - odd
    arrays = max(_EIGH_ARRAYS * even**2, even**2 + _EIGH_ARRAYS * odd**2, k**2 + even**2 + odd**2)
    return 8.0 * arrays + _RESIDENT_SLACK


class SpectralOperator:
    """Real symmetric matrix held as its entries, with its eigendecomposition cached.

    ``pairs`` is three equal-length arrays (i, j, value) that list each
    entry that may be nonzero once, the diagonal among them; a repeated
    (i, j) is overwritten, not summed.  The spectrum scatters each sector
    block straight from the pairs, and :attr:`matrix` forms the dense
    ``dim`` x ``dim`` matrix anew, read-only, on each request.  ``phase``
    multiplies the eigenvalues in the propagator's exponent: -1j for the
    coherent walk, whose states are complex amplitudes, and 1 for the
    classical walk, whose states are real probabilities.  The spectrum is
    computed once on first use and reused for every evolution length.
    ``mirror``, an involution r of the indices with M[r[i], r[j]] =
    M[i, j], splits the spectrum into its two sectors; None stands for the
    identity.
    """

    def __init__(
        self,
        dim: int,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        phase: complex | float = 1.0,
        mirror: np.ndarray | None = None,
    ):
        self.dim = dim
        self._pairs = pairs
        self.phase = phase
        self.mirror = mirror
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dtype(self) -> type:
        """Element type of the states the operator evolves."""
        return float if self.phase == 1.0 else complex

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._pairs

    @property
    def matrix(self) -> np.ndarray:
        m = self._block(np.arange(self.dim), np.arange(self.dim))
        m.flags.writeable = False
        return m

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """A new array of the entries M[rows[a], cols[b]], scattered from the pairs."""
        i, j, value = self.pairs
        at = np.full((2, self.dim), -1)  # each index's place among rows, and among cols
        at[0, rows] = np.arange(len(rows))
        at[1, cols] = np.arange(len(cols))
        a, b = at[0, i], at[1, j]
        (keep,) = np.nonzero((a >= 0) & (b >= 0))
        out = np.zeros((len(rows), len(cols)))
        out[a[keep], b[keep]] = value[keep]
        return out

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
        and fixed cells f.  Each block is built, goes to its own ``eigh`` and
        is freed before the next is built, and V is allocated last, so the
        peak is the one :func:`_spectrum_bytes` counts.  Without a mirror
        every cell is fixed, the even block is M itself and the empty odd
        block's ``eigh`` is skipped.
        """
        if self._spectrum is None:
            k = self.dim
            i = np.arange(k)
            r = i if self.mirror is None else self.mirror
            p, f = np.flatnonzero(i < r), np.flatnonzero(i == r)
            n = len(p)
            block = np.empty((k - n, k - n))
            np.add(self._block(p, p), self._block(p, r[p]), out=block[:n, :n])
            np.multiply(math.sqrt(2.0), self._block(p, f), out=block[:n, n:])
            block[n:, :n] = block[:n, n:].T
            block[n:, n:] = self._block(f, f)
            w_even, y_even = np.linalg.eigh(block)
            block = self._block(p, p)
            block -= self._block(p, r[p])
            w_odd, y_odd = np.linalg.eigh(block) if n else (w_even[:0], block)
            del block
            v = np.zeros((k, k))
            even, odd = v[:, : len(w_even)], v[:, len(w_even) :]
            even[f] = y_even[n:]
            y_even = y_even[:n]
            y_even *= math.sqrt(0.5)
            even[p] = even[r[p]] = y_even
            y_odd *= math.sqrt(0.5)
            odd[p] = y_odd
            odd[r[p]] = np.negative(y_odd, out=y_odd)
            del y_even, y_odd
            w = np.concatenate([w_even, w_odd])
            w.flags.writeable = False
            v.flags.writeable = False
            self._spectrum = (w, v)
        return self._spectrum


class WalkOperator(SpectralOperator):
    """Walk matrix M = scale * (A - diagonal * D) of a graph.

    The Hamiltonian has ``diagonal`` 0 and the rate matrix 1.  The operator
    holds M as its node pairs, assembled on first use, and :attr:`quotient`
    as the pairs of its entry cells; a state constant on the entry cells
    runs on the quotient.  Both are the same assembly S^T M S, on singleton
    cells for the nodes.
    No dense matrix outlives a request for it.
    """

    diagonal = 0.0

    def __init__(self, graph: Graph, scale: float, phase: complex | float):
        super().__init__(graph.n_nodes, None, phase, graph.mirror)
        self.graph = graph
        self.scale = scale
        self._quotient: SpectralOperator | None = None

    def _assemble(
        self, cell: np.ndarray, mirror: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pairs (i, j, value) of S^T M S for an equitable partition into cells ``cell``.

        S is the N x k indicator of the cells with each column divided by
        sqrt(|cell|).  Cells a and b joined by e_ab edges meet at
        e_ab / sqrt(|a| |b|), and D is constant on every cell because the
        partition is equitable; the pairs come from those counts, and
        every cell's diagonal entry is listed.  With one node per cell,
        S = I and the pairs are M's.  A spectrum predicted to take more
        than :data:`MAX_SPECTRUM_BYTES`, given the cells' ``mirror``, is
        refused with ``ValueError`` before anything is allocated.
        """
        g = self.graph
        size = np.bincount(cell)
        k = len(size)
        odd = 0 if mirror is None else int(np.count_nonzero(np.arange(k) < mirror))
        need = _spectrum_bytes(k, odd)
        if need > MAX_SPECTRUM_BYTES:
            raise ValueError(
                f"the walk spectrum on {k} cells would take about {need / 2**30:.3g} GiB, "
                f"above the limit of {MAX_SPECTRUM_BYTES / 2**30:.3g} GiB"
            )
        a, b = cell[g.edges.T]
        pair, links = np.unique(np.concatenate([a * k + b, b * k + a]), return_counts=True)
        i, j = np.divmod(pair, k)
        value = links / np.sqrt(size[i] * size[j])
        degree = np.zeros(k)
        degree[cell] = g.degrees
        diagonal = np.zeros(k)
        on = i == j
        diagonal[i[on]] = value[on]
        diagonal -= self.diagonal * degree
        cells = np.arange(k)
        i, j = np.concatenate([i[~on], cells]), np.concatenate([j[~on], cells])
        return i, j, np.concatenate([value[~on], diagonal]) * self.scale

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._pairs is None:
            self._pairs = self._assemble(np.arange(self.dim), self.mirror)
        return self._pairs

    @property
    def quotient(self) -> SpectralOperator:
        """S^T M S on the cells of :attr:`Graph.entry_cells`, held as its cell pairs.

        Its mirror is the graph's, carried to the cells: r[cell[v]] =
        cell[tau[v]].  That is well defined when tau maps every cell onto a
        cell, as it does whenever the exit is alone in its cell; otherwise
        the quotient has no mirror.  The quotient refers to nothing of the
        walk operator, so both are freed as soon as the last reference to
        either goes.
        """
        if self._quotient is None:
            g = self.graph
            cell, tau, r = g.entry_cells, g.mirror, None
            k = int(cell.max()) + 1
            if tau is not None:
                r = np.empty(k, dtype=np.int64)
                r[cell] = cell[tau]
                if not np.array_equal(r[cell], cell[tau]):
                    r = None
            self._quotient = SpectralOperator(k, self._assemble(cell, r), self.phase, r)
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


#: Rows of V that :func:`_matmul` casts to complex at a time.
_V_BLOCK = 64


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real matrix a and a real or complex vector b, without a complex copy of a.

    numpy casts a real factor of a complex product to complex whole, for V
    a temporary twice its size.  Here :data:`_V_BLOCK` rows of a are cast
    at a time.  Each entry of the product comes from its own row of a, and
    numpy sends a block of two or more rows to the same BLAS routine
    (gemv) as the whole matrix, so the product is numpy's bit for bit.  A
    block of one row would go to a dot product instead, so a last lone row
    joins the block before it.
    """
    if b.dtype != complex:
        return a @ b
    out = np.empty(len(a), dtype=complex)
    starts = list(range(0, len(a) - 1, _V_BLOCK)) or [0]
    for s, e in zip(starts, starts[1:] + [len(a)]):
        out[s:e] = a[s:e] @ b
    return out


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
    modes = _matmul(v.T, x0)
    if ts.ndim == 0:
        return _matmul(v, np.exp(op.phase * w * float(ts)) * modes)
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
