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

Both parts have exact solutions through the cached spectra of H and K;
the density-matrix engine composes them by Strang splitting and is meant
for cross-checks on small graphs, hence the node cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hexwalk.graphs import Graph
from hexwalk.quantum import Hamiltonian, SpectralOperator, propagate

#: Largest graph the density-matrix engine accepts by default.
DEFAULT_NODE_CAP = 64


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


def entry_distribution(graph: Graph) -> np.ndarray:
    """Probability 1 on the entry node."""
    p = np.zeros(graph.n_nodes)
    p[graph.entry] = 1.0
    return p


@dataclass(frozen=True)
class QswParams:
    """Mixing weight, hop rate, and step size of the density-matrix walk.

    omega = 0 reproduces the coherent walk, omega = 1 the classical one,
    and anything in between damps coherences at a rate proportional to
    omega * rate.  ``step`` is the longest Strang splitting step in
    evolution length for 0 < omega < 1; at omega = 0 and 1 the evolution
    is exact and the step is not used.
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


def evolve_qsw(
    rho0: np.ndarray,
    hamiltonian: Hamiltonian,
    params: QswParams,
    t: float,
    node_cap: int = DEFAULT_NODE_CAP,
) -> np.ndarray:
    """Evolve the density matrix rho0 of the walk on ``hamiltonian``'s graph over time t >= 0.

    Strang splitting S = D(dt/2) U(dt) D(dt/2) into the generator's two
    exact pieces: U is the unitary step through the cached spectrum of H,
    D the dissipator, which moves the populations by the classical walk at
    rate omega * rate and damps each coherence.  Both keep the trace, so
    there is no failure mode.  The splitting error has only even powers of
    dt, so for 0 < omega < 1 one Richardson step (4 S^2m - S^m) / 3, with
    m = ceil(t / step), cancels its leading term.  At omega = 0 or 1 one
    piece is left and a single step of length t is exact.  Graphs above
    ``node_cap`` nodes are refused, since every state is a dense N x N matrix.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if t < 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
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
    omega = params.omega
    # a piece of weight 0 is skipped, so at omega = 1 zero coherences stay exactly zero
    unitary, dissipative = omega < 1.0, omega > 0.0
    if dissipative:
        classical = ClassicalGenerator(hamiltonian.graph, omega * params.rate)
        deg = hamiltonian.graph.degrees.astype(float)
        pair = deg[:, None] + deg[None, :]

    def strang(steps: int) -> np.ndarray:
        dt = t / steps
        if unitary:
            w, v = hamiltonian.spectrum
            u = (v * np.exp(-1j * (1.0 - omega) * w * dt)) @ v.T
        if dissipative:
            # coherence rho_ik decays at omega * rate * (d_i + d_k) / 2
            damp = {tau: np.exp(-0.5 * classical.rate * tau * pair) for tau in (0.5 * dt, dt)}

        def dissipate(rho, tau):
            if dissipative:
                pops = propagate(classical, np.diagonal(rho).real, tau)
                rho *= damp[tau]
                np.fill_diagonal(rho, pops)

        # D is a semigroup: the two half steps between consecutive U merge
        rho = rho0.copy()
        dissipate(rho, 0.5 * dt)
        for k in range(steps):
            if unitary:
                rho = u @ rho @ u.conj().T
            dissipate(rho, dt if k < steps - 1 else 0.5 * dt)
        return rho

    if omega in (0.0, 1.0):
        return strang(1)
    m = max(1, math.ceil(t / params.step))
    return (4.0 * strang(2 * m) - strang(m)) / 3.0
