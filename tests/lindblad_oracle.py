"""Right-hand side of the density-matrix walk's master equation, as a test oracle.

``evolve_qsw`` applies the same closed form, but folded for speed onto one
real array Re rho + Im rho, shifted by a multiple of the identity.  This
module writes the generator out term by term on the complex rho, with both
commutator products, so the tests can check it against the explicit sum
over jump operators and check ``evolve_qsw`` against its exponential.
"""

from __future__ import annotations

import numpy as np

from hexwalk.quantum import Hamiltonian
from hexwalk.stochastic import QswParams
from spectrum_oracle import dense_matrix


def lindblad_rhs(rho: np.ndarray, hamiltonian: Hamiltonian, params: QswParams) -> np.ndarray:
    """drho/dt = -(1 - omega) i [H, rho] + omega * dissipator(rho).

    Evaluates the closed form of the edge-jump dissipator rather than the
    O(N^4) sum over jump operators: the populations p = diag(rho) gain
    gamma * (A p - deg * p) and each coherence rho_ik decays at
    gamma * (deg_i + deg_k) / 2.
    """
    rho = np.asarray(rho, dtype=complex)
    n = hamiltonian.dim
    if rho.shape != (n, n):
        raise ValueError(f"density matrix has shape {rho.shape}, expected ({n}, {n})")
    omega = params.omega
    out = np.zeros_like(rho)
    if omega < 1.0:
        h = dense_matrix(hamiltonian)
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


def lindblad_generator(hamiltonian: Hamiltonian, params: QswParams) -> np.ndarray:
    """The N^2 x N^2 matrix of :func:`lindblad_rhs` on row-major vec(rho), column by column."""
    n = hamiltonian.dim
    generator = np.zeros((n * n, n * n), dtype=complex)
    for col in range(n * n):
        unit = np.zeros(n * n, dtype=complex)
        unit[col] = 1.0
        generator[:, col] = lindblad_rhs(unit.reshape(n, n), hamiltonian, params).ravel()
    return generator
