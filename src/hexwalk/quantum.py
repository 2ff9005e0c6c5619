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
fixes.  The eigenvectors stay in their sector blocks
(:class:`Spectrum`): V's rows at a cell and at its image agree on the even
columns and are opposite on the odd ones, so V is never formed, and
:func:`propagate` applies V^T, V and one row of V as small products on the
blocks.  A hexagonal patch, a hypercube and a glued tree with the identity
gluing carry a mirror; a path, a random-cycle glued tree and a hand-built
graph do not, and take one ``eigh`` of size k, whose eigenvectors are V.

The coherent walk on a patch, an identity-glued tree or an odd-dimensional
hypercube takes one ``eigh`` in all.  Those graphs are connected and
bipartite, with Gamma = +-1 by the parity of the distance from the entry
(:attr:`hexwalk.graphs.Graph.parity`), so Gamma H Gamma = -H; and their
mirror maps every node, and every cell, to one of the opposite parity, so
Gamma carries the even sector onto the odd one.  The odd sector's
eigenpairs are then the even ones' with the eigenvalues negated and Gamma
applied (:attr:`SpectralOperator.chirality`), and the products apply
the odd block as Gamma and a column reversal of the even one, so it is
never stored.  A site curve from a real start x0 of one parity,
Gamma x0 = s x0, also needs only half the modes: with S the blocked sum
over the even modes, the odd ones add sigma conj(S), sigma =
Gamma[site] s.  At the exit, of the parity the entry does not have, the
amplitude is S - conj(S) = 2i Im S.  The classical walk keeps both
``eigh`` calls: its diagonal -D breaks Gamma K Gamma = -K.

No operator keeps a dense matrix beside its spectrum.  Each holds its
entries as pairs (i, j, value), a walk operator its node pairs and its
quotient the cell pairs; each sector block is summed from them, goes to
``eigh`` and is freed before the next is built.  So a spectrum peaks at
about 1.55 k x k float arrays with a mirror and 5.2 without
(:func:`_spectrum_bytes`), and keeps 0.5 of them with a mirror, 0.25
where the odd block is derived.  Every product of a real block with a complex state is
two real products, with its real and its imaginary part, never through a
complex copy of the block.  A classical result from a start with
no negative entry is clipped at 0 once, on every route, as it leaves
:func:`propagate`.

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

from hexwalk.graphs import Graph, _integer, _positive, cached

#: Most bytes a walk spectrum may take (see :func:`_spectrum_bytes`).
#: ``hexagonal_graph(133)`` (18088 cells, 3.9 GiB predicted) fits.
MAX_SPECTRUM_BYTES = 4 * 2**30

#: n x n float arrays an ``eigh`` of order n holds at its peak: its input,
#: its result, and LAPACK's copy and workspace (``dsyevd``, 2 n^2 and more)
#: inside the call; measured at 5.1 and 5.2 for n = 3000 and 1890.
_EIGH_ARRAYS = 5.2

#: Resident bytes beside a spectrum's arrays: the graph, its cells and the
#: curve, and freed blocks under glibc's 32 MiB mmap threshold that stay in
#: its heap (about 0.2 k x k arrays at hexagonal n = 40, none at n = 60).
_RESIDENT_SLACK = 128 * 2**20


def _spectrum_bytes(k: int, odd: int) -> float:
    """Peak resident bytes of a walk on k cells whose spectrum has ``odd`` odd rows.

    :attr:`SpectralOperator.spectrum` holds, one stage after another, the
    even sector's ``eigh`` (e = k - odd rows) and the odd sector's beside
    the even eigenvectors: max(5.2 e^2, e^2 + 5.2 odd^2) floats.  No k x k
    array follows (:class:`Spectrum`), and evolving a state adds vectors
    and sqrt(T) x k mode factors only.  So a mirror that halves the cells
    needs 1.55 k x k arrays and a graph without one 5.2.  Against the peak
    RSS of fresh-process scans less the RSS before the spectrum, a
    classical one took 1.72 arrays at hexagonal n = 40 (k = 1720), where
    freed blocks stay in the heap, and 1.55 at n = 60; a coherent one 1.43
    and 1.31.  A spectrum that derives its odd sector
    (:attr:`SpectralOperator.chirality`) runs no odd ``eigh``, so for it
    the count is an upper bound: its peak is the even ``eigh``.
    """
    even = k - odd
    arrays = max(_EIGH_ARRAYS * even**2, even**2 + _EIGH_ARRAYS * odd**2)
    return 8.0 * arrays + _RESIDENT_SLACK


class Spectrum:
    """An eigendecomposition M = V diag(w) V^T held by mirror sector, V never formed.

    ``w`` lists the eigenvalues, the even sector's first, ascending within
    each.  V's rows at a pair cell p and at its image r[p] agree on the even
    columns and are opposite on the odd ones, and a fixed cell's row is 0 on
    the odd columns, so two blocks hold all of V: ``y_even``, its even
    columns at the pair cells and then at the fixed cells, and ``y_odd``,
    its odd columns at the pair cells.  They are the sector blocks'
    eigenvectors with the pair rows scaled by 1/sqrt(2).  Under a chirality
    Gamma the odd block is Gamma[p] times ``y_even`` with its columns
    reversed, applied as such, and ``y_odd`` is None.  Without a mirror
    every cell is fixed and ``y_even`` is V.  :meth:`project` and
    :meth:`expand` give V^T x and V c from the blocks, in real products
    (:func:`_real_product`); V[s] is the projection of the indicator of s.
    """

    def __init__(self, w, y_even, y_odd, pair, image, fixed, gamma):
        self.w, self.y_even, self.y_odd = w, y_even, y_odd
        self.pair, self.image, self.fixed = pair, image, fixed
        self._gamma = gamma  # Gamma at the pair cells while y_odd is derived, else None
        for part in (w, y_even, y_odd):
            if part is not None:
                part.flags.writeable = False

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x: the modes of the state x, even sector first."""
        p, q = self.pair, self.image
        even = _real_product(self.y_even.T, np.concatenate([x[p] + x[q], x[self.fixed]]))
        if not len(p):
            return even
        if self._gamma is None:
            odd = _real_product(self.y_odd.T, x[p] - x[q])
        else:
            odd = _real_product(self.y_even.T, self._gamma * (x[p] - x[q]))[::-1]
        return np.concatenate([even, odd])

    def expand(self, c: np.ndarray) -> np.ndarray:
        """V c for one vector of modes, c V^T for one row of modes per length."""
        n, e = len(self.pair), len(self.y_even)
        even = _apply(self.y_even, c[..., :e])
        if not n:
            return even
        if self._gamma is None:
            odd = _apply(self.y_odd, c[..., e:])
        else:
            odd = _apply(self.y_even, c[..., e:][..., ::-1]) * self._gamma
        x = np.empty(c.shape, dtype=even.dtype)
        x[..., self.fixed] = even[..., n:]
        head = even[..., :n]
        x[..., self.image] = head - odd
        head += odd
        x[..., self.pair] = head
        return x


class SpectralOperator:
    """Real symmetric matrix held as its entries, with its eigendecomposition cached.

    ``pairs`` is three equal-length arrays (i, j, value) that list the
    entries that may be nonzero, the diagonal among them; entries at a
    repeated (i, j) are summed, as in the COO format.  The spectrum sums
    each sector block straight from the pairs, and :attr:`matrix` forms the
    dense ``dim`` x ``dim`` matrix anew, read-only, on each request.
    ``phase`` multiplies the eigenvalues in the propagator's exponent: -1j
    for the coherent walk, whose states are complex amplitudes, and 1 for
    the classical walk, whose states are real probabilities.  The spectrum
    is computed once on first use and reused for every evolution length.
    ``mirror``, an involution r of the indices with M[r[i], r[j]] =
    M[i, j], splits the spectrum into its two sectors; None stands for the
    identity.  ``parity``, a 0/1 label of the indices with M[i, j] = 0
    wherever i and j share a label, lets the spectrum derive one sector
    from the other when the mirror flips every label (:attr:`chirality`).
    """

    def __init__(
        self,
        dim: int,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
        phase: complex | float = 1.0,
        mirror: np.ndarray | None = None,
        parity: np.ndarray | None = None,
    ):
        self.dim = dim
        self._pairs = pairs
        self.phase = phase
        self.mirror = mirror
        self._parity = parity

    @property
    def dtype(self) -> type:
        """Element type of the states the operator evolves."""
        return float if self.phase == 1.0 else complex

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._pairs

    @property
    def parity(self) -> np.ndarray | None:
        return self._parity

    @cached
    def chirality(self) -> np.ndarray | None:
        """Gamma = (-1)^parity as floats when the mirror maps every index to one of
        the opposite parity, else None (read-only, cached).

        Then Gamma M Gamma = -M and Gamma r = -r Gamma, so Gamma carries the
        even mirror sector onto the odd one and the odd block is
        -Gamma (even block) Gamma (:attr:`spectrum`).
        """
        parity, r = self.parity, self.mirror
        if parity is None or r is None or np.any(parity[r] == parity):
            return None
        return 1.0 - 2.0 * parity

    @property
    def matrix(self) -> np.ndarray:
        i, j, value = self.pairs
        m = np.bincount(i * self.dim + j, value, minlength=self.dim**2).reshape(self.dim, self.dim)
        m.flags.writeable = False
        return m

    @cached
    def spectrum(self) -> Spectrum:
        """Eigenvalues and eigenvectors of the matrix by mirror sector (:class:`Spectrum`).

        The eigenvalues ascend within each sector.  Cells i < r[i] pair with
        their mirror images; cells with r[i] = i are fixed.  The even sector
        has the basis (e_i + e_r[i]) / sqrt(2) for pairs and e_i for fixed
        cells, the odd sector (e_i - e_r[i]) / sqrt(2) for pairs, and M has
        no element between the two.  In those bases the blocks are
        [[A + B, sqrt(2) C], [sqrt(2) C^T, F]] and A - B, with A, B, C and F
        the blocks M[p, p], M[p, r[p]], M[p, f] and M[f, f] of pair cells p
        and fixed cells f.  Each block is one ``np.bincount`` of the pairs
        in the rows of pair cells, and of fixed cells for the even block,
        each column folded onto its pair: an entry is at most one x + y or
        x - y.  The even block goes to its ``eigh`` and is freed before the
        odd one is built, so the peak is the one :func:`_spectrum_bytes`
        counts.  Without a mirror every cell is fixed, the even block is M
        itself and the empty odd block's ``eigh`` is skipped.

        With a :attr:`chirality` Gamma no cell is fixed, and Gamma on the
        pair cells gives A - B = -Gamma (A + B) Gamma (Coulson & Rushbrooke,
        Proc. Camb. Phil. Soc. 36, 193, 1940).  The odd sector is then not
        diagonalised but derived: its eigenvalues are the even ones negated
        and reversed, its eigenvectors Gamma times the even ones reversed.
        """
        k = self.dim
        cell = np.arange(k)
        r = cell if self.mirror is None else self.mirror
        p, f = np.flatnonzero(cell < r), np.flatnonzero(cell == r)
        n, e = len(p), k - len(p)
        place = np.empty(k, dtype=np.intp)  # each cell's row in its sector blocks
        place[p] = place[r[p]] = np.arange(n)
        place[f] = np.arange(n, e)
        i, j, value = self.pairs
        side_i, side_j = np.sign(r[i] - i), np.sign(r[j] - j)  # 1 pair cell, 0 fixed, -1 image

        def block(keep: np.ndarray, weight: np.ndarray, size: int) -> np.ndarray:
            at = place[i[keep]] * size + place[j[keep]]
            return np.bincount(at, weight[keep], minlength=size * size).reshape(size, size)

        # a fixed row takes its pair columns once, at the pair cell, with the sqrt(2) of C^T
        keep = (side_i > 0) | ((side_i == 0) & (side_j >= 0))
        w_even, y_even = np.linalg.eigh(
            block(keep, np.where((side_i == 0) != (side_j == 0), math.sqrt(2.0), 1.0) * value, e)
        )
        y_even[:n] *= math.sqrt(0.5)
        gamma, w_odd, y_odd = self.chirality, w_even[:0], np.empty((0, 0))
        if gamma is not None:
            gamma, w_odd, y_odd = gamma[p], -w_even[::-1], None
        elif n:
            w_odd, y_odd = np.linalg.eigh(block((side_i > 0) & (side_j != 0), side_j * value, n))
            y_odd *= math.sqrt(0.5)
        return Spectrum(np.concatenate([w_even, w_odd]), y_even, y_odd, p, r[p], f, gamma)


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
    def parity(self) -> np.ndarray | None:
        """The graph's :attr:`Graph.parity` for a walk without a diagonal, else None."""
        return None if self.diagonal else self.graph.parity

    @cached
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._assemble(np.arange(self.dim), self.mirror)

    @cached
    def lift(self) -> np.ndarray:
        """1 / sqrt(|c|) for every cell c of :attr:`Graph.entry_cells` (read-only,
        cached): the quotient state y lifts to the node state y[cell(v)] * lift[cell(v)]."""
        return 1.0 / np.sqrt(np.bincount(self.graph.entry_cells))

    @cached
    def quotient(self) -> SpectralOperator:
        """S^T M S on the cells of :attr:`Graph.entry_cells`, held as its cell pairs.

        Its mirror is the graph's, carried to the cells: r[cell[v]] =
        cell[tau[v]].  That is well defined when tau maps every cell onto a
        cell, as it does whenever the exit is alone in its cell; otherwise
        the quotient has no mirror.  Cells lie within distance layers, so
        the walk's :attr:`parity` carries to them too.  The quotient refers
        to nothing of the walk operator, so both are freed as soon as the
        last reference to either goes.
        """
        g = self.graph
        cell, tau, r, parity = g.entry_cells, g.mirror, None, None
        k = int(cell.max()) + 1
        if tau is not None:
            r = np.empty(k, dtype=np.int64)
            r[cell] = cell[tau]
            if not np.array_equal(r[cell], cell[tau]):
                r = None
        if self.parity is not None:
            parity = np.empty(k, dtype=np.int64)
            parity[cell] = self.parity
        return SpectralOperator(k, self._assemble(cell, r), self.phase, r, parity)


class Hamiltonian(WalkOperator):
    """Coherent walk generator H = coupling * A of a graph.

    The coupling C (1/mm) sits at every adjacent pair; states are complex
    amplitudes evolved by exp(-i H z).
    """

    def __init__(self, graph: Graph, coupling: float = 1.0):
        self.coupling = _positive(float(coupling), "coupling")
        super().__init__(graph, self.coupling, -1j)


def entry_state(graph: Graph) -> np.ndarray:
    """Indicator of the graph's entry node: unit amplitude, or probability 1."""
    x = np.zeros(graph.n_nodes)
    x[graph.entry] = 1.0
    return x


def _real_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real factor and a real or complex one, in real products only:
    numpy would cast the real factor to complex whole, for V twice its size."""
    if a.dtype != complex and b.dtype != complex:
        return a @ b
    re, im = (a.real @ b, a.imag @ b) if a.dtype == complex else (a @ b.real, a @ b.imag)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


def _apply(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """y applied to the last axis of c: y c for a vector, c y^T for rows."""
    return _real_product(y, c) if c.ndim == 1 else _real_product(c, y.T)


def propagate(op: SpectralOperator, x0: np.ndarray, ts, site: int | None = None) -> np.ndarray:
    """Evolve the state x0 through the operator's cached spectrum.

    A single length ``ts`` (finite, >= 0) gives the evolved state, shape
    (N,); a 1-D grid of lengths gives one state per row, shape (T, N).  With
    a grid, ``site`` gives only that node's entry of each state, shape (T,),
    without forming the full states; that grid must be evenly spaced, from
    any start, and is evaluated as the blocked product described in the
    module docstring, over the even modes only when the operator has a
    :attr:`SpectralOperator.chirality` and x0 is real and of one parity.
    The coherent propagator is unitary and the classical one stochastic, so
    the norm, or the total probability, of x0 is kept to rounding.  An x0
    with an entry that is not finite, a ``site`` that is not an integer, or
    an uneven grid with a ``site`` raises ``ValueError`` before any
    spectrum is built.

    On a :class:`WalkOperator`, an x0 that equals itself read at one node of
    each cell of the entry partition is evolved as y = S^T x on
    ``op.quotient`` and lifted back as x = S y: node i holds
    y[cell(i)] / sqrt(|cell(i)|) (:attr:`WalkOperator.lift`).  Neither the
    N x N matrix nor its spectrum is formed.  A real result from an x0 with no
    negative entry is clipped at 0 on every route: spectral rounding leaves
    residues of order 1e-16 below 0 where the walk has not arrived yet.  A
    signed x0 is not clipped, as its true evolution can go negative.
    """
    x0 = np.asarray(x0, dtype=op.dtype)
    if x0.shape != (op.dim,):
        raise ValueError(f"state has shape {x0.shape}, expected ({op.dim},)")
    if not np.isfinite(x0).all():
        raise ValueError("state has entries that are not finite")
    ts = np.asarray(ts, dtype=float)
    if ts.ndim > 1:
        raise ValueError("length grid must be one-dimensional")
    if ts.size and not (0.0 <= ts.min() and ts.max() < np.inf):
        raise ValueError("evolution lengths must be finite and >= 0")
    if site is not None:
        site = _integer(site, "site")
        if ts.ndim == 0 or not 0 <= site < op.dim:
            raise ValueError(f"site {site} needs a length grid and a node in 0..{op.dim - 1}")
        n = len(ts)
        if n > 1 and ts[-1] < ts[0]:  # ascending, so the classical offsets exp(w dz r) stay <= 1
            return propagate(op, x0, ts[::-1], site)[::-1]
        dz = (ts[-1] - ts[0]) / (n - 1) if n > 1 else 0.0
        slack = 8 * np.finfo(float).eps * ts.max(initial=0.0)
        if np.any(np.abs(ts - (ts[:1] + dz * np.arange(n))) > slack):
            raise ValueError("a site curve needs an evenly spaced length grid")
    x = _evolve(op, x0, ts, site)
    if op.dtype is complex or x0.min() < 0.0:
        return x
    return np.maximum(x, 0.0, out=x)


def _evolve(op: SpectralOperator, x0: np.ndarray, ts: np.ndarray, site: int | None) -> np.ndarray:
    """:func:`propagate` for checked arguments, without the clip."""
    if isinstance(op, WalkOperator):
        cell, lift = op.graph.entry_cells, op.lift
        node = np.empty(len(lift), dtype=np.intp)
        node[cell] = np.arange(len(cell))  # some node of each cell
        if np.array_equal(x0[node][cell], x0):
            q, y0 = op.quotient, x0[node] / lift
            if site is not None:
                return _evolve(q, y0, ts, cell[site]) * lift[cell[site]]
            return (_evolve(q, y0, ts, None) * lift)[..., cell]
    spectrum = op.spectrum
    w = spectrum.w
    if site is None:
        modes = spectrum.project(x0)
        if ts.ndim == 0:
            return spectrum.expand(np.exp(op.phase * w * float(ts)) * modes)
        return spectrum.expand(np.exp(op.phase * np.outer(ts, w)) * modes)
    n = len(ts)
    t0 = ts[0] if n else 0.0
    dz = (ts[-1] - t0) / (n - 1) if n > 1 else 0.0
    gamma = op.chirality
    sign = _parity_sign(gamma, x0)
    at_site = spectrum.project(np.eye(1, op.dim, site)[0])  # V[site], from the site's indicator
    coeffs = at_site * spectrum.project(x0.real if sign else x0)
    if sign:  # S over the even modes; the odd ones add gamma[site] sign conj(S) (module docstring)
        half = len(w) // 2
        w, coeffs = w[:half], coeffs[:half]
    # t_j = t0 + dz (b q + r) for j = b q + r: rows carry the block starts, columns the offsets
    b = max(1, math.ceil(math.sqrt(n)))
    rows = np.exp(op.phase * np.outer(t0 + dz * b * np.arange(-(-n // b)), w))
    cols = np.exp(op.phase * np.outer(dz * np.arange(b), w))
    curve = ((rows * coeffs) @ cols.T).ravel()[:n]
    if sign:
        curve += gamma[site] * sign * curve.conj()
    return curve


def _parity_sign(gamma: np.ndarray | None, x0: np.ndarray) -> int:
    """s with Gamma x0 = s x0 for a real x0 and a chirality Gamma, or 0 when there is none."""
    if gamma is None or np.any(x0.imag):
        return 0
    if not np.any(x0.real[gamma < 0]):
        return 1
    return 0 if np.any(x0.real[gamma > 0]) else -1
