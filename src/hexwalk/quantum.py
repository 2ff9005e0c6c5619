"""One spectral propagator for the coherent and the classical walk.

Both walks evolve a state on the graph under a real symmetric matrix M:
the coherent walk as psi(z) = exp(-i H z) psi(0), the classical walk as
p(t) = exp(K t) p(0).  With the cached eigendecomposition M = V diag(w) V^T
both are the same computation,

    x(t) = V exp(phase * w * t) V^T x(0),

with phase = -i for the Hamiltonian and phase = 1 for the rate matrix, so a
single factorisation serves every length on a scan grid.
:class:`WalkOperator` holds a graph's walk matrix and its spectra and
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

Every spectrum is built for a partition of the nodes into cells
(:class:`Spectrum`); on the node route each node is its own cell.  A walk
launched at the entry needs fewer.  Every symmetry of the graph that keeps
the entry in place also keeps the launch state, so the state stays
constant on the cells of the entry partition
(:attr:`hexwalk.graphs.Graph.entry_cells`): the coarsest equitable
partition with the entry alone in its cell (Krovi & Brun, PRA 75, 062332,
2007), which each builder declares.  Degrees are constant on its cells, so
M maps the states constant on them into themselves, and :func:`propagate`
runs every such state on the spectrum of M restricted to them.  A
hexagonal patch halves (n^2 + 3n cells of 2n^2 + 4n nodes), a glued tree
of depth d shrinks to 2d + 2 cells and a hypercube of dimension d to
d + 1, so glued trees of depth 12 (16382 nodes) and larger scan without
forming a dense matrix.  Any other state, and any state on a graph that
declares no cells, takes the node route.

A graph whose builder declares a mirror (:attr:`hexwalk.graphs.Graph.mirror`,
an involutive automorphism tau that swaps entry and exit) halves each
``eigh`` once more.  M commutes with the permutation tau, so its spectrum
splits into an even sector, the states with x[tau[i]] = x[i], and an odd
sector, x[tau[i]] = -x[i], and M couples neither to the other.  The mirror
carries to the cells as r[cell[v]] = cell[tau[v]] wherever tau maps every
cell onto a cell, as it does whenever the exit is alone in its cell;
otherwise the cells have no mirror and every cell is fixed.  The layout of
every spectrum follows from the cell orbits {c, r[c]}:

- the even sector has one column per orbit, the pair orbits (c < r[c]) first
  in the order of c, then the fixed cells: the indicator of the orbit's nodes;
- the odd sector has one column per pair orbit: +1 on the nodes of c and -1 on
  those of r[c];
- every column is divided by the square root of its node count, so the
  columns are orthonormal.

Each sector block is then one ``np.bincount`` of M's node pairs through
node -> cell -> column and sign, and goes to its own ``eigh`` of about k/2
rows, one more than k/2 for every fixed cell.  With the eigenvector rows
divided by the same square roots, V^T x is the eigenvectors applied to the
signed sums of x over each column's nodes, and V c at a cell is its
column's even value plus its sign times the odd one: the value at every
node of the cell.  So V is never formed, and :func:`propagate` gathers the
cell values to the nodes once.  A hexagonal patch, a hypercube and a glued
tree with the identity gluing carry a mirror; a path, a random-cycle glued
tree and a hand-built graph do not, and take one ``eigh`` of size k.

The coherent walk on a patch, an identity-glued tree or an odd-dimensional
hypercube takes one ``eigh`` in all.  Those graphs are connected and
bipartite, with Gamma = +-1 by the parity of the distance from the entry
(:attr:`hexwalk.graphs.Graph.parity`), so Gamma H Gamma = -H; and their
mirror maps every node, and every cell, to one of the opposite parity, so
Gamma carries the even sector onto the odd one.  The odd sector's
eigenpairs are then the even ones' with the eigenvalues negated and Gamma
applied (:attr:`WalkOperator.chirality`), so the odd block is the even
array itself, its rows signed by Gamma, and is stored once.  A site curve
from a real start x0 of one parity, Gamma x0 = s x0, also needs only half
the modes: with S the blocked sum over the even modes, the odd ones add
sigma conj(S), sigma = Gamma[site] s.  At the exit, of the parity the
entry does not have, the amplitude is S - conj(S) = 2i Im S.  The
classical walk keeps both ``eigh`` calls: its diagonal -D breaks
Gamma K Gamma = -K.

No operator keeps a dense matrix beside its spectrum.  It makes its node
pairs (i, j, value) from the graph's edges on each request, each listed
once; each sector block is summed from them, goes to ``eigh`` and is freed
before the next is built.  So a spectrum
peaks at about 1.55 k x k float arrays with a mirror and 5.2 without
(:func:`_spectrum_bytes`; one above :data:`hexwalk.graphs.MAX_WALK_BYTES`
is refused before any block is built), and keeps 0.5 of them with a mirror,
0.25 where the odd block is derived.  Every product of a real block with a
complex state is two real products, never through a complex copy of the
block.  A classical result from a start with no negative entry is clipped
at 0 once, on every route, as it leaves :func:`propagate`.

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

from hexwalk.graphs import Graph, _integer, _positive, _within_budget, cached

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

    :class:`Spectrum` holds, one stage after another, the
    even sector's ``eigh`` (e = k - odd rows) and the odd sector's beside
    the even eigenvectors: max(5.2 e^2, e^2 + 5.2 odd^2) floats.  No k x k
    array follows (:class:`Spectrum`), and evolving a state adds vectors
    and sqrt(T) x k mode factors only.  So a mirror that halves the cells
    needs 1.55 k x k arrays and a graph without one 5.2.  Against the peak
    RSS of fresh-process scans less the RSS before the spectrum, a
    classical one took 1.72 arrays at hexagonal n = 40 (k = 1720), where
    freed blocks stay in the heap, and 1.55 at n = 60; a coherent one 1.43
    and 1.31.  A spectrum that derives its odd sector
    (:attr:`WalkOperator.chirality`) runs no odd ``eigh``, so for it
    the count is an upper bound: its peak is the even ``eigh``.
    """
    even = k - odd
    arrays = max(_EIGH_ARRAYS * even**2, even**2 + _EIGH_ARRAYS * odd**2)
    return 8.0 * arrays + _RESIDENT_SLACK


class Spectrum:
    """An eigendecomposition M = V diag(w) V^T on the cells of a node partition, V never formed.

    Built from the operator's node pairs, mirror and
    :attr:`WalkOperator.chirality` for the partition ``cell`` (the cell
    id of every node), to which it carries the mirror; the module docstring
    gives the layout.  It keeps no reference to the operator.  ``w``
    lists the eigenvalues: the even sector's ascending, then the odd
    sector's in the column order of its block.
    ``column`` and ``sign`` are the cell-to-sector map: every cell's column
    in the even sector, the column of its orbit, and +1 or -1 on the two
    cells of a pair orbit (its column in the odd sector) or 0 on a fixed
    cell.  ``even`` and ``odd`` are the sector blocks' eigenvectors, rows
    divided by the square root of their column's node count, and each odd
    row has a sign: 1 where the odd sector has its own ``eigh`` (``odd`` 0 x
    0 without a pair orbit), and Gamma of its pair cell where it is derived.
    Then ``odd`` is the ``even`` array itself and ``chirality`` the node
    Gamma; otherwise ``chirality`` is None.  :meth:`project` gives V^T x of
    a node state and :meth:`expand` V c at the cells, in real products
    (:func:`_real_product`); V[s] is the projection of the indicator of s.

    A spectrum predicted to take more than :data:`hexwalk.graphs.MAX_WALK_BYTES`,
    read as it is built, is refused with ``ValueError`` before any allocation.  With a
    chirality Gamma no cell is fixed, and Gamma on the pair orbits gives
    the odd block as -Gamma (even block) Gamma (Coulson & Rushbrooke, Proc.
    Camb. Phil. Soc. 36, 193, 1940): its eigenvalues are the even ones
    negated, its eigenvectors Gamma times the even ones in the same order,
    and no odd ``eigh`` runs.
    """

    def __init__(self, op: WalkOperator, cell: np.ndarray):
        mirror, chirality = op.mirror, op.chirality
        k = int(cell.max()) + 1
        ids = np.arange(k)
        r = ids
        if mirror is not None:
            r = np.empty(k, dtype=np.intp)
            r[cell] = cell[mirror]
            if not np.array_equal(r[cell], cell[mirror]):  # tau splits a cell: no mirror
                r, chirality = ids, None
        plus, fixed = np.flatnonzero(ids < r), np.flatnonzero(ids == r)
        n = len(plus)
        _within_budget(f"the walk spectrum on {k} cells", _spectrum_bytes(k, n))
        e = k - n
        self.cell, self._plus, self._minus = cell, plus, r[plus]  # the odd columns' cells
        self.sign = np.zeros(k)
        self.sign[plus], self.sign[self._minus] = 1.0, -1.0
        self.column = np.empty(k, dtype=np.intp)
        self.column[plus] = self.column[self._minus] = ids[:n]
        self.column[fixed] = ids[n:e]
        at, signs = self.column[cell], self.sign[cell]  # every node's column and sign
        size = np.bincount(at, minlength=e)  # every column's node count
        i, j, value = op.pairs
        a, b = at[i], at[j]
        value = value / np.sqrt(size[a] * size[b])
        odd = None  # the odd block's entries, where it is diagonalised
        if n and chirality is None:
            s = signs[i] * signs[j]
            keep = s != 0
            odd = a[keep] * n + b[keep], (s * value)[keep]
            del s, keep
        even = np.bincount(a * e + b, value, e * e).reshape(e, e)
        del i, j, a, b, value, at, signs  # no node array outlives the blocks
        w, self.even = np.linalg.eigh(even)
        del even
        root = np.sqrt(size)[:, None]
        self.even /= root
        gamma = np.ones(k)
        if chirality is not None:  # the odd modes are Gamma times the even ones, at -w
            gamma[cell] = chirality
            w_odd, self.odd = -w, self.even
        elif odd is not None:
            w_odd, self.odd = np.linalg.eigh(np.bincount(*odd, n * n).reshape(n, n))
            self.odd /= root[:n]
        else:  # no pair orbit: an empty odd sector
            w_odd, self.odd = w[:0], self.even[:0, :0]
        self.chirality, self._gamma, self.w = chirality, gamma[plus], np.concatenate([w, w_odd])
        for part in (self.w, self.even, self.odd, self.cell, self.column, self.sign):
            part.flags.writeable = False

    def project(self, x: np.ndarray) -> np.ndarray:
        """V^T x: the modes of the node state x, even sector first."""
        at, e = self.column[self.cell], len(self.even)
        even = _real_product(self.even.T, _sums(at, x, e))
        signed = _sums(at, self.sign[self.cell] * x, e)[: len(self.odd)]
        return np.concatenate([even, _real_product(self.odd.T, self._gamma * signed)])

    def expand(self, c: np.ndarray) -> np.ndarray:
        """V c at the cells for one vector of modes, c V^T for one row of modes per length."""
        e = len(self.even)
        x = _real_product(c[..., :e], self.even.T)[..., self.column]
        odd = _real_product(c[..., e:], self.odd.T)
        odd *= self._gamma
        x.T[self._plus] += odd.T  # cells first, so a vector and rows index alike
        x.T[self._minus] -= odd.T
        return x


class WalkOperator:
    """Walk matrix M = scale * (A - diagonal * D) of a graph, with its spectra cached.

    ``diagonal`` and ``phase`` are class attributes.  The Hamiltonian keeps
    the defaults, ``diagonal`` 0 and ``phase`` -1j, for complex amplitudes
    evolved by exp(-i M z); the rate matrix sets ``diagonal`` 1 and
    ``phase`` 1, for real probabilities evolved by exp(M t).  M's node
    pairs are made from the graph's edges on each request, and no dense
    matrix is formed.  Two spectra are kept, each made on first use:
    :attr:`spectrum` on the nodes and :attr:`entry_spectrum` on the entry
    cells, where every state constant on those cells runs.
    """

    diagonal, phase = 0.0, -1j

    def __init__(self, graph: Graph, scale: float):
        self.graph = graph
        self.dim = graph.n_nodes
        self.mirror = graph.mirror
        self.scale = scale

    @property
    def dtype(self) -> type:
        """Element type of the states the operator evolves."""
        return float if self.phase == 1.0 else complex

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M's entries (i, j, value): ``scale`` at (a, b) and (b, a) for every edge,
        then each node's diagonal -diagonal * scale * degree."""
        g = self.graph
        a, b = g.edges.T
        nodes = np.arange(self.dim)
        diagonal = -self.diagonal * self.scale * g.degrees
        value = np.concatenate([np.full(2 * g.n_edges, self.scale), diagonal])
        return np.concatenate([a, b, nodes]), np.concatenate([b, a, nodes]), value

    @cached
    def chirality(self) -> np.ndarray | None:
        """Gamma = (-1)^parity of :attr:`Graph.parity` as floats for a walk without a
        diagonal whose mirror maps every node to one of the opposite parity, else
        None (read-only, cached).

        Then Gamma M Gamma = -M and Gamma tau = -tau Gamma, so Gamma carries the
        even mirror sector onto the odd one, which :class:`Spectrum` derives.
        The parity is read only for a walk without a diagonal that has a mirror.
        """
        r = self.mirror
        parity = None if self.diagonal or r is None else self.graph.parity
        if parity is None or np.any(parity[r] == parity):
            return None
        return 1.0 - 2.0 * parity

    @cached
    def spectrum(self) -> Spectrum:
        """The eigendecomposition with every node its own cell (:class:`Spectrum`, cached)."""
        return Spectrum(self, np.arange(self.dim))

    @cached
    def entry_spectrum(self) -> Spectrum:
        """The eigendecomposition on the cells of :attr:`Graph.entry_cells`
        (:class:`Spectrum`, cached), or :attr:`spectrum` where every node is its
        own cell, with its own id.  It refers to nothing of the operator."""
        cell = self.graph.entry_cells
        return self.spectrum if np.array_equal(cell, np.arange(self.dim)) else Spectrum(self, cell)


class Hamiltonian(WalkOperator):
    """Coherent walk generator H = coupling * A of a graph.

    The coupling C (1/mm) sits at every adjacent pair; states are complex
    amplitudes evolved by exp(-i H z).
    """

    def __init__(self, graph: Graph, coupling: float = 1.0):
        self.coupling = _positive(float(coupling), "coupling")
        super().__init__(graph, self.coupling)


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


def _sums(index: np.ndarray, x: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(index, x, size) for a real or a complex x."""
    if x.dtype != complex:
        return np.bincount(index, x, size)
    out = np.empty(size, dtype=complex)
    out.real, out.imag = np.bincount(index, x.real, size), np.bincount(index, x.imag, size)
    return out


def propagate(op: WalkOperator, x0: np.ndarray, ts, site: int | None = None) -> np.ndarray:
    """Evolve the state x0 through the operator's cached spectrum.

    A single length ``ts`` (finite, >= 0) gives the evolved state, shape
    (N,); a 1-D grid of lengths gives one state per row, shape (T, N).  With
    a grid, ``site`` gives only that node's entry of each state, shape (T,),
    without forming the full states; that grid must be evenly spaced, from
    any start, and is evaluated as the blocked product described in the
    module docstring, over the even modes only when the operator has a
    :attr:`WalkOperator.chirality` and x0 is real and of one parity.
    The coherent propagator is unitary and the classical one stochastic, so
    the norm, or the total probability, of x0 is kept to rounding.  An x0
    with an entry that is not finite, a classical x0 with a nonzero
    imaginary part, a ``site`` that is not an integer (a bool included), or
    an uneven grid with a ``site`` raises ``ValueError`` before any
    spectrum is built; a classical x0 whose imaginary part is zero is read
    as its real part.

    An x0 that equals itself read at one node of each cell of the entry
    partition runs on :attr:`WalkOperator.entry_spectrum`, whose cell values
    are gathered to the nodes; the node spectrum is not formed.  A real
    result from an x0 with no negative entry is clipped at 0 on every route:
    spectral rounding leaves residues of order 1e-16 below 0 where the walk
    has not arrived yet.  A signed x0 is not clipped, as its true evolution
    can go negative.
    """
    x0 = np.asarray(x0)
    if op.dtype is float and np.iscomplexobj(x0):
        if np.any(x0.imag):
            raise ValueError("state has a nonzero imaginary part, but the walk is real")
        x0 = x0.real
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
    t0 = dz = 0.0  # a site curve's grid t0 + j dz
    if site is not None:
        site = _integer(site, "site")
        if ts.ndim == 0 or not 0 <= site < op.dim:
            raise ValueError(f"site {site} needs a length grid and a node in 0..{op.dim - 1}")
        n = len(ts)
        if n > 1 and ts[-1] < ts[0]:  # ascending, so the classical offsets exp(w dz r) stay <= 1
            return propagate(op, x0, ts[::-1], site)[::-1]
        if n:
            t0, dz = ts[0], (ts[-1] - ts[0]) / max(n - 1, 1)
        slack = 8 * np.finfo(float).eps * ts.max(initial=0.0)
        if np.any(np.abs(ts - (t0 + dz * np.arange(n))) > slack):
            raise ValueError("a site curve needs an evenly spaced length grid")
    x = _evolve(op, x0, ts, site, t0, dz)
    if op.dtype is complex or x0.min() < 0.0:
        return x
    return np.maximum(x, 0.0, out=x)


def _evolve(
    op: WalkOperator, x0: np.ndarray, ts: np.ndarray, site: int | None, t0: float, dz: float
) -> np.ndarray:
    """:func:`propagate` for checked arguments, without the clip; a site grid is t0 + j dz."""
    cells = op.graph.entry_cells
    node = np.empty(int(cells.max()) + 1, dtype=np.intp)
    node[cells] = np.arange(len(cells))  # some node of each cell
    cell = cells if np.array_equal(x0[node][cells], x0) else None
    spectrum = op.spectrum if cell is None else op.entry_spectrum
    w = spectrum.w
    if site is None:
        # one length or a grid; the mode matrix is freed as expand returns, before the gather
        x = spectrum.expand(np.exp(op.phase * np.multiply.outer(ts, w)) * spectrum.project(x0))
        return x if cell is None else x[..., cell]
    n = len(ts)
    gamma = spectrum.chirality
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
