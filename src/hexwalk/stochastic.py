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
density-matrix engine applies the closed form term by term of a Chebyshev
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

#: Most substeps one run may take (see :func:`evolve_qsw`).  The run's a-priori
#: error bound s 2^-53 stays at 1.1e-12, and with :data:`_DEGREE_CAP` its work
#: at 10^4 x 1025 terms, each at most two real N x N products: about 43 us a term
#: at omega = 0.5, 34 us at 0 and 12 us at 1 on a 64-node graph, in the
#: benchmark's calibrated seconds.  The longest run in the tests takes 9.
SUBSTEP_CAP = 10**4

#: Largest amplification sum_k |a_k| rho^k of one substep's series: the series
#: magnifies the rounding of its terms by at most this much.
_AMPLIFICATION_CAP = 2.0**9

#: Largest degree of one substep's series.  It bounds a substep's work, and
#: the rounding its recurrence gathers, where the amplification does not: that
#: is 1 at omega = 1 and grows only as sqrt(c) at omega = 0.
_DEGREE_CAP = 2**10

#: The truncation target: (1 + sqrt 2) sum_{k>m} |a_k| rho^k <= 2^-53.
_TAIL = 2.0**-53 / (1.0 + math.sqrt(2.0))


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


def _ellipse(x: float, y: float, target: float) -> tuple[float, float]:
    """Semi-axes (a, b), real and imaginary, of an ellipse around the rectangle [-x, x] x i[-y, y].

    It passes through the corner (x, y), and a + b is least where
    tan^3 phi = y / x for a = x / cos phi, b = y / sin phi.  Where that puts
    2 e^(a - x), about the series' amplification on it, above ``target``,
    a = x + ln(target / 2) instead, and the ellipse is taller.
    """
    w, spare = math.sqrt(x ** (2 / 3) + y ** (2 / 3)), math.log(0.5 * target)
    a, b = x ** (2 / 3) * w, y ** (2 / 3) * w
    if a > x + spare:
        a = x + spare
        b = y * a / math.sqrt(spare * (2.0 * x + spare))
    return a, b


def _tail_bound(k: int, x: float, a: float, b: float) -> float:
    """Bound on sum_{j>=k} |a_j| rho^j for k >= max(b, 1).

    |J_k(c)| and I_k(c) are at most e^eta, eta = sqrt(k^2 + D) + k ln(c / (k + sqrt(k^2 + D))),
    D = a^2 - b^2 = +-c^2: Kapteyn's inequality for J (Watson, Bessel Functions, 8.7),
    and the same form for I.  From k >= b on the ratio of successive bounds times rho
    falls, and is at most (a + b) / (k + sqrt(k^2 + D)).
    """
    root = math.sqrt(k * k + (a - b) * (a + b))
    ratio = (a + b) / (k + root)
    if ratio >= 1.0:
        return math.inf
    return 2.0 * math.exp(root - x + k * (math.log(a + b) - math.log(k + root))) / (1.0 - ratio)


def _degree(x: float, a: float, b: float, tail: float) -> int:
    """Smallest degree m whose :func:`_tail_bound` beyond m is at most ``tail``."""
    lo = max(math.ceil(b), 1) - 1  # the terms rise until k = b
    hi = lo + 1
    while _tail_bound(hi + 1, x, a, b) > tail:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _tail_bound(mid + 1, x, a, b) > tail else (lo, mid)
    return hi


def _coefficients(x: float, a: float, b: float, n: int) -> list[float]:
    """a_k rho^k for k = 0..n: e^-x (2 - [k = 0]) I_k(c) rho^k, or J_k(c) for b > a.

    Miller's backward recurrence from n + 1 for g_k = I_k(c) rho^k (J_k(c) rho^k),
    g_(k-1) = (k / sigma) g_k + delta g_(k+1) with sigma = (a + b) / 2 and
    delta = (a - b) / (a + b), held as h_k = g_k / u^k, u = min(sigma, 1), so that
    no step divides by a tiny sigma; sum_k g_k + sum_(k>0) delta^k g_k = e^a fixes
    the scale (the generating functions at rho), summed by Horner's rule on the way.
    """
    sigma, delta = 0.5 * (a + b), (a - b) / (a + b)
    u, ratio = (sigma, 1.0) if sigma < 1.0 else (1.0, 1.0 / sigma)
    squeeze, cur, later = delta * u * u, 1.0, 0.0  # h_n and h_(n+1)
    h, plain, signed = [cur], cur, cur
    for k in range(n, 0, -1):
        cur, later = k * ratio * cur + squeeze * later, cur
        h.append(cur)
        plain, signed = cur + u * plain, cur + u * delta * signed
    scale = 2.0 * math.exp(a - x) / (plain + signed - cur)
    coef = [scale * v * u**k for k, v in enumerate(reversed(h))]
    coef[0] *= 0.5
    return coef


def _chebyshev_plan(x: float, y: float) -> tuple[int, float, float, list[float]]:
    """Substeps s, one substep's semi-axes (a, b) and its a_k rho^k, for exp(t L) with r t = x
    and q t = y; ``ValueError`` if s would exceed :data:`SUBSTEP_CAP`.

    A substep's rectangle is [-x / s, x / s] x i[-y / s, y / s], and its ellipse
    is :func:`_ellipse`'s.  s is the least whose degree, as :func:`_tail_bound`
    predicts it, fits :data:`_DEGREE_CAP`.  The degree m is then the least whose
    tail, summed from Miller's coefficients and bounded beyond them, meets the
    target.  Where the amplification sum_k |a_k| rho^k exceeds
    :data:`_AMPLIFICATION_CAP`, the plan is made again for an ellipse held
    lower by the ratio.
    """
    if not x + y < math.inf:
        raise ValueError(f"the series needs {x + y:.3g} substeps, above the cap of {SUBSTEP_CAP}")
    target = _AMPLIFICATION_CAP

    def fits(s):
        a, b = _ellipse(x / s, y / s, target)  # a wider one needs more terms than the cap
        return a + b <= _DEGREE_CAP**2 and _degree(x / s, a, b, _TAIL) <= _DEGREE_CAP

    while True:
        lo, s = 0, 1  # the fewest substeps that fit lie in (lo, s]
        while not fits(s):
            lo, s = s, 2 * s
        while s - lo > 1:
            mid = (lo + s) // 2
            lo, s = (lo, mid) if fits(mid) else (mid, s)
        if s > SUBSTEP_CAP:
            raise ValueError(f"the series needs {s:.3g} substeps, above the cap of {SUBSTEP_CAP}")
        a, b = _ellipse(x / s, y / s, target)
        coef = _coefficients(x / s, a, b, _degree(x / s, a, b, _TAIL * 2.0**-20))
        m, tail = len(coef) - 1, _tail_bound(len(coef), x / s, a, b)
        while m and tail + abs(coef[m]) <= _TAIL:
            tail += abs(coef[m])
            m -= 1
        amplification = sum(abs(v) for v in coef[: m + 1])
        if amplification <= _AMPLIFICATION_CAP:
            return s, a, b, coef[: m + 1]
        target *= 0.99 * _AMPLIFICATION_CAP / amplification


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
    exp(t L) = e^(-r t) exp(t G) for the centred generator G = L + r I,
    r = omega * rate * d_max.  In the Frobenius inner product the commutator
    part of G is skew with norm at most q = 2 d_max (1 - omega) C, and the
    rest is symmetric with spectrum in [-r, r] (the shifted damping rates
    lie in [0, r]; on the populations it is omega * rate * (d_max - D + A)),
    so G's field of values lies in the rectangle [-r, r] x i[-q, q].  On an
    ellipse E around it, with semi-axes a (real) and b, foci +-c and
    rho = (a + b) / c, e^(tz) is a Chebyshev series with coefficients
    a_k = e^(-rt) (2 - [k=0]) I_k(ct) for real foci, or J_k(ct) with the real
    recurrence P_(k+1) = 2 (G / c) P_k + P_(k-1) for imaginary ones
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), and |P_k| <= rho^k
    on E.  By the Crouzeix-Palencia theorem (SIAM J. Matrix Anal. Appl. 38,
    649, 2017) the degree-m series is then within
    (1 + sqrt 2) sum_{k>m} |a_k| rho^k |rho| of exp(t L) rho, whatever G's
    normality.  The run takes s substeps of tau = t / s, each a series of
    degree at most 1024 whose tail bound is at most 2^-53 and whose
    amplification sum_k |a_k| rho^k, which bounds how much it magnifies the
    rounding of its terms, is at most 512: s is the fewest substeps that
    fit, and m the least degree (see :func:`_chebyshev_plan`).  With the terms held
    as Q_k = P_k / rho^k, both kinds of foci run one recurrence,
    Q_(k+1) = 2 tau G Q_k / (a + b) - (a - b) / (a + b) Q_(k-1), with
    2 tau / (a + b) folded into the generator once.  A symmetric A makes the
    semigroup unital as well as completely positive and trace-preserving, so
    it contracts the Frobenius norm and no substep amplifies the errors
    before it: the run is within s 2^-53 |rho0| of the exact solution, to first
    order, plus rounding.  At omega = 1 the coherent weight is an exact
    zero, so no commutator is formed and zero coherences stay zero; at
    omega = 0 the dissipator's weight is, so neither its shift nor its
    population transfer is formed.  rho0 must be finite and Hermitian to
    1e-12 of its largest entry; its Hermitian part is evolved, and returned
    as it is when there is nothing to evolve (t = 0 or no edges).  Graphs
    above :data:`NODE_CAP` nodes, and runs of more than :data:`SUBSTEP_CAP`
    substeps, are refused before the series starts.
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
    x, y = (r * t, 2.0 * d_max * coherent * t) if t else (0.0, 0.0)
    if not x + y:
        return rho
    s, a, b, coef = _chebyshev_plan(x, y)
    scale, delta, adj = 2.0 * t / (s * (a + b)), (a - b) / (a + b), hamiltonian.graph.adjacency
    hop, transfer = (scale * coherent) * adj, (scale * omega * gamma) * adj
    shift = scale * (r - 0.5 * omega * gamma * (deg[:, None] + deg))
    state = rho.real + rho.imag
    for _ in range(s):
        prev, cur, state = None, state, coef[0] * state
        for k in range(1, len(coef)):
            term = 0.0  # at k = 1 the first sum below makes Q_1 a new array
            if k > 1:  # Q_(k-1) is not needed again: Q_(k+1) is built in its place
                prev *= -delta
                term = prev
            if omega < 1.0:
                term += cur.T @ hop
                term -= hop @ cur.T
            if omega > 0.0:
                term += shift * cur
                term.reshape(-1)[:: n + 1] += transfer @ cur.diagonal()
            if k == 1:
                term *= 0.5
            prev, cur = cur, term
            state += coef[k] * cur
    return 0.5 * (state + state.T) + 0.5j * (state - state.T)
