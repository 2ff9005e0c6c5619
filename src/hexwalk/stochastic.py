"""Classical and dissipative walk dynamics on the same graphs.

Two engines live here.  The first is the continuous-time classical walk
generated by K = gamma * (A - D).  :class:`ClassicalGenerator` is the real
half of the spectral operator in :mod:`hexwalk.quantum`: the same cached
eigendecomposition and the same :func:`hexwalk.quantum.propagate` evolve
p(t) = exp(K t) p(0), with phase 1 in place of the coherent walk's -i.  Its
stationary distribution on a connected graph is uniform, which is what
makes the classical hitting efficiency collapse to 1/N.  The second is a
density-matrix walk that interpolates between the coherent and classical
limits with a mixing weight omega in [0, 1]:

    drho/dt = -(1 - omega) * i [H, rho] + omega * dissipator(rho)

with one jump operator per directed edge, L_ij = sqrt(gamma * A_ij) |i><j|.
For that jump set the operator sum collapses to a closed form used here:
the diagonal gains omega*gamma*(A p - deg * p) exactly like the classical
walk on the populations p = diag(rho), and every coherence rho_ik is damped
at the rate omega*gamma*(deg_i + deg_k)/2.  At omega = 0 the equation is
the coherent walk on states; at omega = 1 the populations follow K and the
coherences only decay.

The density-matrix engine integrates with a fixed-step classic Runge-Kutta
scheme and is meant for cross-checks on small graphs, hence the node cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hexwalk.graphs import Graph
from hexwalk.quantum import Hamiltonian, SpectralOperator

#: Largest graph the density-matrix integrator accepts by default.
DEFAULT_NODE_CAP = 64

#: Trace drift tolerated over a full integration before the step is halved.
TRACE_DRIFT_LIMIT = 1.0e-6

_MAX_STEP_HALVINGS = 4


class IntegrationFailureError(RuntimeError):
    """Raised when step halving cannot keep the integration's trace drift in check."""


class ClassicalGenerator(SpectralOperator):
    """Rate matrix K = gamma * (A - D) of the classical walk on a graph.

    K is symmetric because the walk hops along undirected edges at a uniform
    rate, so it shares the coherent walk's spectral propagator with a real
    phase; states are probability vectors evolved by exp(K t).  The
    all-ones direction is an exact null vector (column sums vanish), which
    pins the stationary distribution of a connected graph at uniform.
    """

    def __init__(self, graph: Graph, rate: float = 1.0):
        rate = float(rate)
        if not np.isfinite(rate) or rate <= 0.0:
            raise ValueError(f"hop rate must be finite and > 0, got {rate}")
        self.rate = rate
        super().__init__(graph, rate * (graph.adjacency - np.diag(graph.degrees.astype(float))))


def classical_generator(graph: Graph, rate: float = 1.0) -> ClassicalGenerator:
    return ClassicalGenerator(graph, rate)


def entry_distribution(graph: Graph) -> np.ndarray:
    """Probability 1 on the entry node."""
    p = np.zeros(graph.n_nodes)
    p[graph.entry] = 1.0
    return p


def _check_time(t: float) -> float:
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if t < 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    return t


@dataclass(frozen=True)
class QswParams:
    """Mixing weight, hop rate, and step size of the density-matrix walk.

    omega = 0 reproduces the coherent walk, omega = 1 the classical one,
    and anything in between damps coherences at a rate proportional to
    omega * rate.  ``step`` is the Runge-Kutta step in evolution length.
    """

    omega: float
    rate: float = 1.0
    step: float = 0.01

    def __post_init__(self):
        if not np.isfinite(self.omega) or not (0.0 <= self.omega <= 1.0):
            raise ValueError(f"mixing weight omega must lie in [0, 1], got {self.omega}")
        if not np.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError(f"hop rate must be finite and > 0, got {self.rate}")
        if not np.isfinite(self.step) or self.step <= 0.0:
            raise ValueError(f"step must be finite and > 0, got {self.step}")


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def basis_density(n: int, site: int) -> np.ndarray:
    """Density matrix of a walker localised on one site."""
    if not (0 <= site < n):
        raise ValueError(f"site {site} outside 0..{n - 1}")
    rho = np.zeros((n, n), dtype=complex)
    rho[site, site] = 1.0
    return rho


def lindblad_rhs(rho: np.ndarray, hamiltonian: Hamiltonian, params: QswParams) -> np.ndarray:
    """Right-hand side of the interpolating master equation.

    Evaluates the closed form of the edge-jump dissipator rather than the
    O(N^4) sum over jump operators; the two agree to rounding and the test
    suite holds the brute-force sum as an oracle.
    """
    rho = np.asarray(rho, dtype=complex)
    n = hamiltonian.dim
    if rho.shape != (n, n):
        raise ValueError(f"density matrix has shape {rho.shape}, expected ({n}, {n})")
    omega = params.omega
    out = np.zeros_like(rho)
    if omega < 1.0:
        h = hamiltonian.matrix
        out += -(1.0 - omega) * 1j * (h @ rho - rho @ h)
    if omega > 0.0:
        gamma = params.rate
        adj = hamiltonian.graph.adjacency
        deg = hamiltonian.graph.degrees.astype(float)
        pops = np.diagonal(rho)
        gain = np.zeros_like(rho)
        np.fill_diagonal(gain, adj @ pops)
        damp = 0.5 * (deg[:, None] + deg[None, :])
        out += omega * gamma * (gain - damp * rho)
    return out


def _rk4_step(rho: np.ndarray, dt: float, hamiltonian: Hamiltonian, params: QswParams) -> np.ndarray:
    k1 = lindblad_rhs(rho, hamiltonian, params)
    k2 = lindblad_rhs(rho + 0.5 * dt * k1, hamiltonian, params)
    k3 = lindblad_rhs(rho + 0.5 * dt * k2, hamiltonian, params)
    k4 = lindblad_rhs(rho + dt * k3, hamiltonian, params)
    return rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_qsw(
    rho0: np.ndarray,
    hamiltonian: Hamiltonian,
    params: QswParams,
    t: float,
    node_cap: int = DEFAULT_NODE_CAP,
) -> np.ndarray:
    """Integrate the density-matrix walk from rho0 over time t.

    Fixed-step classic Runge-Kutta at ``params.step``; if the trace drifts
    from one by more than 1e-6 anywhere along the run, the step is halved
    and the run repeated, up to four times, after which
    :class:`IntegrationFailureError` is raised.

    Parameters
    ----------
    rho0 : complex array, shape (N, N)
        Initial density matrix (Hermitian, unit trace).
    hamiltonian : Hamiltonian
        Coherent part's generator; its graph supplies the jump structure.
    params : QswParams
        Mixing weight, hop rate, and base step.
    t : float
        Total evolution time, >= 0.
    node_cap : int
        Dense-matrix safety cap on the graph size.
    """
    t = _check_time(t)
    n = hamiltonian.dim
    if n > node_cap:
        raise ValueError(
            f"graph has {n} nodes, above the density-matrix cap of {node_cap}"
        )
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ValueError(f"density matrix has shape {rho0.shape}, expected ({n}, {n})")
    if t == 0.0:
        return rho0.copy()
    step = params.step
    for _ in range(_MAX_STEP_HALVINGS + 1):
        steps = max(1, int(np.ceil(t / step)))
        dt = t / steps
        rho = rho0.copy()
        drift = abs(np.trace(rho).real - 1.0)
        # a diverging run may overflow before the drift check catches it;
        # the drift test below is the real detector, so mute the noise
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(steps):
                rho = _rk4_step(rho, dt, hamiltonian, params)
                here = abs(np.trace(rho).real - 1.0)
                drift = max(drift, here) if np.isfinite(here) else np.inf
                if drift > TRACE_DRIFT_LIMIT:
                    break
        if drift <= TRACE_DRIFT_LIMIT:
            return rho
        step *= 0.5
    raise IntegrationFailureError(
        f"trace drift {drift:.3e} still above {TRACE_DRIFT_LIMIT:.0e} "
        f"after {_MAX_STEP_HALVINGS} step halvings (final step {step:.3e})"
    )
