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
from hexwalk.quantum import Hamiltonian, WalkOperator, propagate

#: Largest graph the density-matrix engine accepts: every state is a dense
#: N x N matrix and every step multiplies two of them.
NODE_CAP = 64

#: Longest Strang splitting step, in evolution length, for 0 < omega < 1.
STEP = 0.01


class ClassicalGenerator(WalkOperator):
    """Rate matrix K = gamma * (A - D) of the classical walk on a graph.

    K is symmetric because the walk hops along undirected edges at a uniform
    rate, so it shares the coherent walk's spectral propagator with a real
    phase; states are probability vectors evolved by exp(K t).  The
    all-ones direction is an exact null vector (column sums vanish), which
    pins the stationary distribution of a connected graph at uniform.
    """

    diagonal = 1.0

    def __init__(self, graph: Graph, rate: float = 1.0):
        rate = float(rate)
        if not np.isfinite(rate) or rate <= 0.0:
            raise ValueError(f"hop rate must be finite and > 0, got {rate}")
        self.rate = rate
        super().__init__(graph, rate, 1.0)


@dataclass(frozen=True)
class QswParams:
    """Mixing weight and hop rate of the density-matrix walk.

    omega = 0 reproduces the coherent walk, omega = 1 the classical one,
    and anything in between damps coherences at a rate proportional to
    omega * rate.
    """

    omega: float
    rate: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.omega) or not (0.0 <= self.omega <= 1.0):
            raise ValueError(f"mixing weight omega must lie in [0, 1], got {self.omega}")
        if not np.isfinite(self.rate) or self.rate <= 0.0:
            raise ValueError(f"hop rate must be finite and > 0, got {self.rate}")


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def evolve_qsw(
    rho0: np.ndarray,
    hamiltonian: Hamiltonian,
    params: QswParams,
    t: float,
) -> np.ndarray:
    """Evolve the density matrix rho0 of the walk on ``hamiltonian``'s graph over time t >= 0.

    Strang splitting S = D(dt/2) U(dt) D(dt/2) into the generator's two
    exact pieces: U is the unitary step through the cached spectrum of H,
    D the dissipator, which moves the populations by the classical walk at
    rate omega * rate and damps each coherence.  Both keep the trace, so
    there is no failure mode.  The splitting error has only even powers of
    dt, so for 0 < omega < 1 one Richardson step (4 S^2m - S^m) / 3, with
    m = ceil(t / :data:`STEP`), cancels its leading term.  At omega = 0 or
    1 one piece is left and a single step of length t is exact.  Only the
    products coupling * t and rate * t enter, so dividing both by a and
    evolving over a * t runs the same walk in steps a times finer.  Graphs
    above :data:`NODE_CAP` nodes are refused.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    if t < 0.0:
        raise ValueError(f"evolution time must be >= 0, got {t}")
    n = hamiltonian.dim
    if n > NODE_CAP:
        raise ValueError(f"graph has {n} nodes, above the density-matrix cap of {NODE_CAP}")
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
    m = math.ceil(t / STEP)
    return (4.0 * strang(2 * m) - strang(m)) / 3.0
