"""Classical and dissipative walk dynamics on the same graphs.

Two engines live here.  The first is the continuous-time classical walk
generated by K = gamma * (A - D).  :class:`ClassicalGenerator` is the real
half of the walk operator in :mod:`hexwalk.quantum`: the same cached
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

The classical walk runs through the cached spectrum of K; the
density-matrix engine applies the closed form term by term of a Taylor
series to dense N x N states, for cross-checks on small graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hexwalk.graphs import Graph, _positive
from hexwalk.quantum import Hamiltonian, WalkOperator

#: Largest graph the density-matrix engine accepts: every state is a dense
#: N x N matrix and every series term multiplies it by A twice.
NODE_CAP = 64

#: Most Taylor substeps one run may take (see :func:`evolve_qsw`).  The run's
#: a-priori error bound s 2^-53 stays at 1.1e-12 and its work near 16 s for a
#: 64-node graph on one core: up to 39 terms a substep, each at most two real
#: 64 x 64 products (about 42 us a term at omega = 0.5, 35 us at 0 and 12 us at
#: 1, in the benchmark's calibrated seconds); the longest run in the tests
#: takes 1334.
SUBSTEP_CAP = 10**4

#: Largest Taylor substep beta * tau (see :func:`evolve_qsw`).  Terms per
#: unit of beta * t, m / theta, fall as it grows (9.0 at 3, 6.5 at 6, 5.6 at
#: 8), but terms up to e^theta cancel: at 8 a run of beta t = 8000 rounds 3x worse.
_THETA = 6.0


class ClassicalGenerator(WalkOperator):
    """Rate matrix K = gamma * (A - D) of the classical walk on a graph, gamma = ``rate``.

    K is symmetric because the walk hops along undirected edges at a uniform
    rate, so it shares the coherent walk's spectral propagator with a real
    phase; states are probability vectors evolved by exp(K t).  The
    all-ones direction is an exact null vector (column sums vanish), which
    pins the stationary distribution of a connected graph at uniform.
    """

    diagonal, phase = 1.0, 1.0

    def __init__(self, graph: Graph, rate: float = 1.0):
        self.rate = _positive(float(rate), "hop rate")
        super().__init__(graph, self.rate)


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
        _positive(self.rate, "hop rate")


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|, exactly Hermitian.

    The outer product alone rounds psi_i conj(psi_k) and psi_k conj(psi_i)
    apart, and leaves imaginary residue on the diagonal; its Hermitian part
    0.5 (r + r^H) does not.  For a real psi the two are the same bits.
    """
    psi = np.asarray(psi, dtype=complex)
    r = np.outer(psi, psi.conj())
    return 0.5 * (r + r.conj().T)


def _series_plan(beta_t: float) -> tuple[int, int]:
    """Substeps s and degree m of the Taylor series of exp(t L), for beta * t = ``beta_t``;
    ``ValueError`` if s would exceed :data:`SUBSTEP_CAP` (or beta * t is not finite).

    s = ceil(beta t / theta) with theta = :data:`_THETA`, and m is the smallest
    degree with m + 2 > x and x^(m+1) / (m+1)! / (1 - x / (m+2)) <= 2^-53 for
    x = beta t / s: the tail sum_{j>m} x^j / j! is at most its first term times
    the geometric series of ratio x / (m+2), so it is within 2^-53 too.
    """
    if not beta_t / _THETA <= SUBSTEP_CAP:
        raise ValueError(
            f"the series needs {beta_t / _THETA:.3g} substeps, above the cap of {SUBSTEP_CAP}"
        )
    s = math.ceil(beta_t / _THETA)
    theta, m = (beta_t / s if s else 0.0), 0
    while m + 2 <= theta or (
        theta ** (m + 1) / math.factorial(m + 1) > 2.0**-53 * (1.0 - theta / (m + 2))
    ):
        m += 1
    return s, m


def evolve_qsw(
    rho0: np.ndarray,
    hamiltonian: Hamiltonian,
    params: QswParams,
    t: float,
) -> np.ndarray:
    """Evolve the density matrix rho0 of the walk on ``hamiltonian``'s graph over time t >= 0.

    The state is held as one real N x N array R = X + Y, for rho = X + iY:
    X is symmetric and Y antisymmetric, so tr(X^T Y) = 0 and |R| = |rho| in
    the Frobenius norm, and rho = (R + R^T) / 2 + i (R - R^T) / 2 unpacks it
    exactly Hermitian at the end.  On R the generator is L(R) =
    (1 - omega) C [A, R]^T - omega * rate * (d_i + d_k) / 2 R_ik (entrywise)
    + omega * rate * diag(A p), with p = diag(R) the populations: two real
    N x N products with A per application, and H = C A is never formed.
    exp(t L) = e^(-r t) exp(t (L + r I)), and the series runs on the centred
    generator L + r I with r = omega * rate * d_max (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 488, 2011).  beta = q + r bounds it in the
    Frobenius norm, with q = 2 d_max (1 - omega) C: |[A, R]| <= 2 d_max |R|;
    the shifted damping rates lie in [0, r]; and on the populations the
    shifted dissipator is omega * rate * (d_max - D + A), a nonnegative
    symmetric matrix with row sums d_max.  s = ceil(beta t / theta) substeps
    of tau = t / s, each e^(-r tau) times the degree-m Taylor series, where
    m is the smallest degree whose geometric bound on the tail
    sum_{j>m} (beta tau)^j / j! is at most 2^-53 (see :func:`_series_plan`),
    are each within 2^-53 |rho| of exp(tau L) rho.  A symmetric A
    makes the semigroup unital as well as completely positive and
    trace-preserving, so it contracts the Frobenius norm and no substep
    amplifies the errors before it: the run is within s 2^-53 |rho0| of the
    exact solution, to first order, plus rounding.  At omega = 1 the
    coherent weight is an exact zero, so no commutator is formed and zero
    coherences stay zero; at omega = 0 the dissipator's weight is, so
    neither its shift nor its population transfer is formed.  rho0 must be
    finite and Hermitian to 1e-12 of its largest entry; its Hermitian part
    is evolved, and returned as it is when the series has no substeps.
    Graphs above :data:`NODE_CAP` nodes, and runs of more than
    :data:`SUBSTEP_CAP` substeps, are refused before the series starts.
    """
    t = float(t)
    if not 0.0 <= t < np.inf:
        raise ValueError(f"evolution time must be finite and >= 0, got {t}")
    n = hamiltonian.dim
    if n > NODE_CAP:
        raise ValueError(f"graph has {n} nodes, above the density-matrix cap of {NODE_CAP}")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (n, n):
        raise ValueError(f"density matrix has shape {rho0.shape}, expected ({n}, {n})")
    if not np.isfinite(rho0).all():
        raise ValueError("density matrix has entries that are not finite")
    skew = np.max(np.abs(rho0 - rho0.conj().T), initial=0.0)
    if skew > 1e-12 * np.max(np.abs(rho0), initial=0.0):
        raise ValueError(f"density matrix is not Hermitian: max |rho - rho^dagger| = {skew:.3g}")
    rho = 0.5 * (rho0 + rho0.conj().T)
    omega, gamma, deg = params.omega, params.rate, hamiltonian.graph.degrees.astype(float)
    d_max = float(deg.max(initial=0.0))
    coherent, r = (1.0 - omega) * hamiltonian.coupling, omega * gamma * d_max
    s, m = _series_plan((2.0 * d_max * coherent + r) * t if t else 0.0)
    if s == 0:
        return rho
    tau, adj = t / s, hamiltonian.graph.adjacency
    hop, transfer = coherent * adj, (omega * gamma) * adj
    shift = r - 0.5 * omega * gamma * (deg[:, None] + deg)
    state = rho.real + rho.imag
    for _ in range(s):
        term = state * math.exp(-r * tau)
        state = term.copy()
        for j in range(1, m + 1):
            prev, term = term, 0.0
            if omega < 1.0:
                term = prev.T @ hop
                term -= hop @ prev.T
            if omega > 0.0:
                term += shift * prev  # at omega = 1 the float 0.0 becomes a new array
                term.reshape(-1)[:: n + 1] += transfer @ prev.diagonal()
            term *= tau / j
            state += term
    return 0.5 * (state + state.T) + 0.5j * (state - state.T)
