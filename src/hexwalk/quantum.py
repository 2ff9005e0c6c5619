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

The Hamiltonian couples neighbouring sites with a uniform strength C (units
1/mm, so the evolution parameter z is a propagation length in mm) and has
no on-site term: a common one would only add a global phase.  Since only
the product C*z enters the dynamics, everything defaults to C = 1 and
physical couplings are applied by rescaling; see
:func:`hexwalk.hitting.calibrated_coupling`.  The rate matrix lives in
:mod:`hexwalk.stochastic`.
"""

from __future__ import annotations

import numpy as np

from hexwalk.graphs import Graph


class SpectralOperator:
    """Real symmetric matrix on a graph, with its eigendecomposition cached.

    ``phase`` multiplies the eigenvalues in the propagator's exponent and
    ``dtype`` is the element type of the states it evolves; subclasses set
    both and build the matrix.  The matrix is read-only and the spectrum is
    computed once on first use and reused for every evolution length.
    """

    phase: complex | float = 1.0
    dtype: type = float

    def __init__(self, graph: Graph, matrix: np.ndarray):
        matrix.flags.writeable = False
        self.graph = graph
        self._matrix = matrix
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self.graph.n_nodes

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and orthonormal eigenvectors of the matrix."""
        if self._spectrum is None:
            w, v = np.linalg.eigh(self._matrix)
            w.flags.writeable = False
            v.flags.writeable = False
            self._spectrum = (w, v)
        return self._spectrum


class Hamiltonian(SpectralOperator):
    """Coherent walk generator H = coupling * A of a graph.

    The coupling C (1/mm) sits at every adjacent pair; states are complex
    amplitudes evolved by exp(-i H z).
    """

    phase = -1j
    dtype = complex

    def __init__(self, graph: Graph, coupling: float = 1.0):
        coupling = float(coupling)
        if not np.isfinite(coupling) or coupling <= 0.0:
            raise ValueError(f"coupling must be finite and > 0, got {coupling}")
        self.coupling = coupling
        super().__init__(graph, coupling * graph.adjacency)


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
    without forming the full states.  The coherent propagator is unitary and
    the classical one stochastic, so the norm, or the total probability, of
    x0 is kept to rounding.
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
    w, v = op.spectrum
    modes = v.T @ x0
    if ts.ndim == 0:
        return v @ (np.exp(op.phase * w * float(ts)) * modes)
    factors = np.exp(op.phase * np.outer(ts, w))
    if site is None:
        return (factors * modes) @ v.T
    return factors @ (v[site, :] * modes)
