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
1/mm, so the evolution parameter z is a propagation length in mm) and puts
a common detuning on the diagonal.  Since only the product C*z enters the
dynamics, everything defaults to C = 1 and physical couplings are applied
by rescaling; see :func:`hexwalk.hitting.calibrated_coupling`.  The rate
matrix lives in :mod:`hexwalk.stochastic`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hexwalk.graphs import Graph


@dataclass(frozen=True)
class CouplingModel:
    """Uniform per-edge coupling (1/mm) and on-site diagonal energy."""

    coupling: float = 1.0
    diagonal: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.coupling) or self.coupling <= 0.0:
            raise ValueError(f"coupling must be finite and > 0, got {self.coupling}")
        if not np.isfinite(self.diagonal):
            raise ValueError(f"diagonal energy must be finite, got {self.diagonal}")


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
    """Coherent walk generator for a graph under a coupling model.

    The matrix has ``coupling`` at every adjacent pair and ``diagonal`` on
    the diagonal; states are complex amplitudes evolved by exp(-i H z).
    """

    phase = -1j
    dtype = complex

    def __init__(self, graph: Graph, model: CouplingModel | None = None):
        self.model = model if model is not None else CouplingModel()
        h = self.model.coupling * graph.adjacency
        if self.model.diagonal != 0.0:
            h = h + self.model.diagonal * np.eye(graph.n_nodes)
        super().__init__(graph, h)


def build_hamiltonian(graph: Graph, model: CouplingModel | None = None) -> Hamiltonian:
    return Hamiltonian(graph, model)


def entry_state(graph: Graph) -> np.ndarray:
    """Unit amplitude on the graph's entry node."""
    psi = np.zeros(graph.n_nodes, dtype=complex)
    psi[graph.entry] = 1.0
    return psi


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


def site_probabilities(psi: np.ndarray) -> np.ndarray:
    """Born-rule site distribution |psi_i|^2 of an amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.abs(psi) ** 2
