"""Tests for the classical generator and the density-matrix walk."""

from __future__ import annotations

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import ive, jv

from hexwalk import stochastic
from hexwalk.graphs import Graph, glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, QswParams, density_from_state, evolve_qsw
from child_process import run_child
from lindblad_oracle import lindblad_generator, lindblad_rhs
from spectrum_oracle import dense_matrix, propagate_expm


def brute_force_dissipator(rho: np.ndarray, adjacency: np.ndarray, rate: float) -> np.ndarray:
    """Direct operator-sum evaluation with one jump operator per ordered edge."""
    n = rho.shape[0]
    out = np.zeros_like(rho)
    for i in range(n):
        for j in range(n):
            if adjacency[i, j] == 0.0:
                continue
            jump = np.zeros((n, n), dtype=complex)
            jump[i, j] = math.sqrt(rate * adjacency[i, j])
            anti = jump.conj().T @ jump
            out += jump @ rho @ jump.conj().T - 0.5 * (anti @ rho + rho @ anti)
    return out


# ---------------------------------------------------------------------------
# classical generator
# ---------------------------------------------------------------------------


def test_generator_matrix_structure():
    g = hexagonal_graph(2)
    rate = 0.8
    gen = ClassicalGenerator(g, rate=rate)
    k = dense_matrix(gen)
    assert np.array_equal(k, k.T)
    assert np.allclose(k.sum(axis=0), 0.0, atol=1e-12)
    off = k - np.diag(np.diag(k))
    assert np.all(off >= 0.0)
    assert np.allclose(np.diag(k), -rate * g.degrees)
    assert np.allclose(k @ np.full(g.n_nodes, 1.0 / g.n_nodes), 0.0, atol=1e-12)


def test_generator_rejects_bad_rate():
    with pytest.raises(ValueError):
        ClassicalGenerator(path_graph(3), rate=0.0)
    with pytest.raises(ValueError):
        ClassicalGenerator(path_graph(3), rate=-1.0)


def test_zero_time_returns_start():
    g = path_graph(5)
    gen = ClassicalGenerator(g)
    p0 = entry_state(g)
    assert np.allclose(propagate(gen, p0, 0.0), p0, atol=1e-12)


def test_two_site_relaxation_analytic():
    gen = ClassicalGenerator(path_graph(2), rate=0.7)
    p0 = np.array([1.0, 0.0])
    for t in (0.1, 0.5, 2.0, 10.0):
        p = propagate(gen, p0, t)
        expected = (1.0 - math.exp(-2.0 * 0.7 * t)) / 2.0
        assert abs(p[1] - expected) < 1e-12


def test_sixteen_node_diamond_reaches_uniform():
    g = hexagonal_graph(2)
    gen = ClassicalGenerator(g)
    p = propagate(gen, entry_state(g), 200.0)
    assert np.max(np.abs(p - 0.0625)) < 1e-6


def test_simplex_is_preserved():
    rng = np.random.default_rng(5)
    g = glued_tree(2, gluing="random", seed=1)
    gen = ClassicalGenerator(g, rate=1.3)
    for _ in range(10):
        p0 = rng.random(g.n_nodes)
        p0 /= p0.sum()
        t = rng.uniform(0.0, 50.0)
        p = propagate(gen, p0, t)
        assert abs(p.sum() - 1.0) < 1e-10
        assert p.min() > -1e-12


def test_deviation_decays_after_transient():
    g = hexagonal_graph(3)
    gen = ClassicalGenerator(g)
    ts = np.linspace(5.0, 80.0, 40)
    grid = propagate(gen, entry_state(g), ts)
    dev = np.max(np.abs(grid - 1.0 / g.n_nodes), axis=1)
    assert np.all(np.diff(dev) < 0.0)


def test_evolve_classical_rejects_bad_input():
    gen = ClassicalGenerator(path_graph(3))
    p0 = entry_state(path_graph(3))
    with pytest.raises(ValueError):
        propagate(gen, p0, -1.0)
    with pytest.raises(ValueError):
        propagate(gen, p0[:2], 1.0)


# ---------------------------------------------------------------------------
# density-matrix helpers
# ---------------------------------------------------------------------------


def test_density_from_state_is_projector():
    psi = np.array([1.0, 1j]) / math.sqrt(2.0)
    rho = density_from_state(psi)
    assert np.allclose(rho, rho.conj().T)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_density_from_state_is_exactly_hermitian():
    # a complex state whose plain outer product leaves imaginary residue on the diagonal
    g = hexagonal_graph(1)
    k = np.arange(g.n_nodes)
    psi = np.exp(1j * k) * (1.0 + k / 5.0)
    psi /= np.linalg.norm(psi)
    outer = np.outer(psi, psi.conj())
    assert not np.array_equal(outer, outer.conj().T)
    rho = density_from_state(psi)
    assert np.array_equal(rho, rho.conj().T)
    assert not np.any(np.diag(rho).imag)
    assert np.max(np.abs(rho - outer)) <= 1e-16
    # a real state keeps its plain outer product, bit for bit
    real = entry_state(g) + 0.3 * np.cos(k)
    assert np.array_equal(density_from_state(real), np.outer(real, real).astype(complex))


def test_qsw_params_validation():
    QswParams(omega=0.0)
    QswParams(omega=1.0)
    with pytest.raises(ValueError):
        QswParams(omega=-0.01)
    with pytest.raises(ValueError):
        QswParams(omega=1.01)
    with pytest.raises(ValueError):
        QswParams(omega=0.5, rate=0.0)


# ---------------------------------------------------------------------------
# Lindblad right-hand side
# ---------------------------------------------------------------------------


def test_rhs_coherent_limit_is_commutator():
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    rho = density_from_state(entry_state(g))
    rhs = lindblad_rhs(rho, h, QswParams(omega=0.0))
    m = dense_matrix(h)
    expected = -1j * (m @ rho - rho @ m)
    assert np.array_equal(rhs, expected)


def test_rhs_classical_limit_on_populations():
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    rate = 1.4
    gen = ClassicalGenerator(g, rate=rate)
    pops = np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05])
    rho = np.diag(pops).astype(complex)
    rhs = lindblad_rhs(rho, h, QswParams(omega=1.0, rate=rate))
    assert np.allclose(np.diag(rhs).real, dense_matrix(gen) @ pops, atol=1e-12)
    assert np.max(np.abs(rhs - np.diag(np.diag(rhs)))) == 0.0


def test_rhs_matches_operator_sum_oracle():
    rng = np.random.default_rng(3)
    g = hexagonal_graph(1)
    h = Hamiltonian(g, 0.9)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    omega, rate = 0.35, 1.2
    rhs = lindblad_rhs(rho, h, QswParams(omega=omega, rate=rate))
    m = dense_matrix(h)
    coherent = -1j * (m @ rho - rho @ m)
    expected = (1.0 - omega) * coherent + omega * brute_force_dissipator(rho, g.adjacency, rate)
    assert np.max(np.abs(rhs - expected)) < 1e-12


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(9)
    g = glued_tree(1, gluing="identity")
    h = Hamiltonian(g)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    rhs = lindblad_rhs(rho, h, QswParams(omega=0.6, rate=0.8))
    assert abs(np.trace(rhs)) < 1e-12
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# full quantum stochastic evolution
# ---------------------------------------------------------------------------


def test_qsw_zero_time_returns_a_complex_start_bit_for_bit():
    # entries with both a real and an imaginary part would not survive packing
    # into one real array, so a run with no substeps does not pack
    g = hexagonal_graph(1)
    psi = np.exp(1j * np.arange(g.n_nodes)) * np.linspace(1.0, 2.0, g.n_nodes)
    rho0 = density_from_state(psi / np.linalg.norm(psi))
    rho0 = 0.5 * (rho0 + rho0.conj().T)  # the outer product's diagonal has imaginary rounding
    assert np.all(rho0.real[~np.eye(g.n_nodes, dtype=bool)] != 0.0)
    assert np.all(rho0.imag[~np.eye(g.n_nodes, dtype=bool)] != 0.0)
    assert np.array_equal(evolve_qsw(rho0, Hamiltonian(g), QswParams(omega=0.5), 0.0), rho0)
    for omega in (0.0, 0.5, 1.0):
        rho = evolve_qsw(rho0, Hamiltonian(g), QswParams(omega=omega), 2.0)
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_qsw_refuses_a_start_that_is_not_finite(bad):
    g = hexagonal_graph(1)
    rho0 = density_from_state(entry_state(g))
    rho0[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="density matrix has entries that are not finite"):
            evolve_qsw(rho0, Hamiltonian(g), QswParams(omega=0.5), 1.0)


def test_qsw_zero_time_copies_input():
    g = path_graph(3)
    h = Hamiltonian(g)
    rho0 = density_from_state(entry_state(g))
    rho = evolve_qsw(rho0, h, QswParams(omega=0.5), 0.0)
    assert np.array_equal(rho, rho0)
    assert rho is not rho0


@pytest.mark.parametrize(
    "graph",
    [
        hexagonal_graph(1),
        hexagonal_graph(2),
        glued_tree(2, gluing="identity"),
        glued_tree(2, gluing="random", seed=4),
        hypercube_graph(3),
        path_graph(9),
    ],
    ids=["hex1", "hex2", "glued-id", "glued-cycle", "cube3", "path9"],
)
def test_qsw_limits_reproduce_dedicated_engines(graph):
    assert graph.n_nodes <= 30
    h = Hamiltonian(graph)
    t = 1.5
    rho0 = density_from_state(entry_state(graph))

    coherent = evolve_qsw(rho0, h, QswParams(omega=0.0), t)
    psi = propagate_expm(h, entry_state(graph), t)
    assert np.max(np.abs(np.diag(coherent).real - np.abs(psi) ** 2)) < 1e-6

    classical = evolve_qsw(rho0, h, QswParams(omega=1.0), t)
    gen = ClassicalGenerator(graph)
    p = propagate_expm(gen, entry_state(graph), t)
    assert np.max(np.abs(np.diag(classical).real - p)) < 1e-6
    off = classical - np.diag(np.diag(classical))
    assert np.max(np.abs(off)) == 0.0


def test_qsw_midpoint_agrees_with_finer_steps():
    g = hexagonal_graph(1)
    rho0 = density_from_state(entry_state(g))
    h, params, t = Hamiltonian(g), QswParams(omega=0.5), 5.0
    whole = evolve_qsw(rho0, h, params, t)
    # r t = omega rate d_max t = 5 and q t = 2 d_max (1 - omega) C t = 10: the whole run is
    # one series of degree 51, each half one of degree 35, so the two plans differ
    whole_plan, half_plan = stochastic._chebyshev_plan(5.0, 10.0), stochastic._chebyshev_plan(2.5, 5.0)
    assert (whole_plan[0], len(whole_plan[3]) - 1, half_plan[0], len(half_plan[3]) - 1) == (1, 51, 1, 35)
    halves = evolve_qsw(evolve_qsw(rho0, h, params, t / 2), h, params, t / 2)
    assert np.max(np.abs(whole - halves)) < 1e-12
    # only C t and rate t enter: C = rate = 0.1 over 10 t is the same walk with the same plan
    scaled = evolve_qsw(rho0, Hamiltonian(g, 0.1), QswParams(omega=0.5, rate=0.1), 10.0 * t)
    assert np.max(np.abs(whole - scaled)) < 1e-12


def test_qsw_at_omega_one_forms_no_product_with_h():
    # the coherent weight is an exact zero: a coupling whose products with rho would
    # overflow to inf, and inf * 0 to nan, leaves the walk exactly as at C = 1
    g = hexagonal_graph(2)
    rho0 = density_from_state(entry_state(g))
    params = QswParams(omega=1.0, rate=1.3)
    at_one = evolve_qsw(rho0, Hamiltonian(g), params, 4.0)
    huge = evolve_qsw(rho0, Hamiltonian(g, 1e308), params, 4.0)
    assert np.array_equal(huge, at_one)


def test_qsw_output_is_a_valid_density_matrix():
    g = hexagonal_graph(2)
    h = Hamiltonian(g)
    rho0 = density_from_state(entry_state(g))
    for omega in (0.0, 0.3, 1.0):
        rho = evolve_qsw(rho0, h, QswParams(omega=omega), 3.0)
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-6


def test_qsw_node_cap():
    # every state is a dense N x N matrix: 64 nodes run, 65 are refused
    for at_cap, t in ((path_graph(64), 0.1), (hypercube_graph(6), 3.0)):
        rho0 = density_from_state(entry_state(at_cap))
        rho = evolve_qsw(rho0, Hamiltonian(at_cap), QswParams(omega=0.5), t)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.array_equal(rho, rho.conj().T)
    over = path_graph(65)
    rho0 = density_from_state(entry_state(over))
    with pytest.raises(ValueError, match="65 nodes, above the density-matrix cap of 64"):
        evolve_qsw(rho0, Hamiltonian(over), QswParams(omega=0.5), 1.0)


# Evolves hexagonal_graph(4) at omega = 0.5 with the coupling and time given,
# warnings as errors, and prints how long the ValueError took and its message.
_SUBSTEP_CAP_CHILD = """
import sys, time, warnings
from hexwalk import Hamiltonian, QswParams, entry_state, evolve_qsw, hexagonal_graph
from hexwalk.stochastic import density_from_state
g = hexagonal_graph(4)
rho0 = density_from_state(entry_state(g))
h = Hamiltonian(g, float(sys.argv[1]))
warnings.simplefilter("error")
start = time.perf_counter()
try:
    evolve_qsw(rho0, h, QswParams(omega=0.5), float(sys.argv[2]))
except ValueError as exc:
    print(time.perf_counter() - start, exc)
else:
    print("0 no error")
"""


@pytest.mark.parametrize(
    "coupling, t, work",
    [
        (1.0, 1e12, "1\\.2e\\+10 substeps"),  # r t = 1.5e12, q t = 3e12: 1.2 10^10 substeps
        (1e308, 1.0, "inf substeps"),  # q t overflows to inf
    ],
)
def test_qsw_refuses_a_run_above_the_substep_cap(coupling, t, work):
    # in a child with a deadline: a run that is not refused goes on for years
    proc = run_child(_SUBSTEP_CAP_CHILD, repr(coupling), repr(t), timeout=10)
    assert proc.returncode == 0, proc.stderr
    seconds, message = proc.stdout.rstrip("\n").split(" ", 1)
    assert re.search(f"needs {work}, above the cap of 10000$", message), message
    assert float(seconds) < 0.1


def test_qsw_with_an_overflowing_bound_still_runs_for_no_time():
    g = hexagonal_graph(1)
    rho0 = density_from_state(entry_state(g))
    assert np.array_equal(evolve_qsw(rho0, Hamiltonian(g, 1e308), QswParams(omega=0.5), 0.0), rho0)


def test_qsw_coarse_step_stays_a_density_matrix():
    g = hexagonal_graph(1)
    # C t = 2000 and rate t = 50: at omega = 0, q t = 8000 in 9 substeps of degree 996
    h = Hamiltonian(g, 20000.0)
    rho0 = density_from_state(entry_state(g))
    # a run this long for its coupling still gives a finite, trace-one
    # Hermitian matrix: every series term is exactly Hermitian
    for omega in (0.0, 0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = evolve_qsw(rho0, h, QswParams(omega=omega, rate=500.0), 0.1)
        assert np.all(np.isfinite(rho))
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        if omega in (0.0, 1.0):
            assert np.linalg.eigvalsh(rho).min() >= -1e-12


def expm_scaling_squaring(a: np.ndarray) -> np.ndarray:
    """exp(a) by a Taylor series on a / 2^s, squared back s times."""
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300)))) + 1)
    scaled = a / 2.0**s
    term = np.eye(a.shape[0], dtype=a.dtype)
    out = term.copy()
    for k in range(1, 30):
        term = term @ scaled / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def oracle_evolution(rho0: np.ndarray, h: Hamiltonian, params: QswParams, t: float) -> np.ndarray:
    """exp(t L) rho0 with L assembled column by column from the ``lindblad_rhs`` oracle."""
    generator = lindblad_generator(h, params)
    return (expm_scaling_squaring(generator * t) @ rho0.ravel()).reshape(rho0.shape)


@pytest.mark.parametrize("omega", [0.25, 0.5, 0.75])
def test_qsw_matches_exponential_of_lindblad_rhs(omega):
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    params = QswParams(omega=omega, rate=1.3)
    rho0 = density_from_state(entry_state(g))
    t = 2.0
    exact = oracle_evolution(rho0, h, params, t)
    assert np.max(np.abs(evolve_qsw(rho0, h, params, t) - exact)) < 1e-9


@pytest.mark.parametrize("omega", [0.25, 0.5, 0.75])
@pytest.mark.parametrize(
    "graph, t",
    # hex2 has nodes of degree 2 and 3, so the centring shift differs between entries
    [
        (hexagonal_graph(1), 2.0),
        (glued_tree(1, gluing="random", seed=2), 5.0),
        (hexagonal_graph(2), 2.0),
    ],
    ids=["hex1", "glued1", "hex2"],
)
def test_qsw_series_matches_oracle_exponential_to_rounding(graph, t, omega):
    h = Hamiltonian(graph, 0.8)
    params = QswParams(omega=omega, rate=1.3)
    rho0 = density_from_state(entry_state(graph))
    exact = oracle_evolution(rho0, h, params, t)
    assert np.max(np.abs(evolve_qsw(rho0, h, params, t) - exact)) < 1e-12


_LIMIT_GRAPHS = {
    "hex2": hexagonal_graph(2),
    "glued-cycle": glued_tree(2, gluing="random", seed=4),
    "cube4": hypercube_graph(4),
    "path9": path_graph(9),
}


@pytest.mark.parametrize(
    "graph, t",
    [pytest.param(g, t, id=f"{t}-{name}") for t in (1.5, 12.0) for name, g in _LIMIT_GRAPHS.items()]
    # the benchmark's sizes and times
    + [
        pytest.param(hexagonal_graph(4), 8.0, id="8.0-hex4"),
        pytest.param(hypercube_graph(6), 3.0, id="3.0-cube6"),
    ],
)
def test_qsw_limits_equal_propagate_to_rounding(graph, t):
    h = Hamiltonian(graph, 0.7)
    start = entry_state(graph)
    rho0 = density_from_state(start)

    psi = propagate_expm(h, start, t)
    coherent = evolve_qsw(rho0, h, QswParams(omega=0.0, rate=1.3), t)
    assert np.max(np.abs(coherent - np.outer(psi, psi.conj()))) < 1e-12

    p = propagate_expm(ClassicalGenerator(graph, 1.3), start, t)
    classical = evolve_qsw(rho0, h, QswParams(omega=1.0, rate=1.3), t)
    assert np.max(np.abs(np.diag(classical) - p)) < 1e-12
    assert not np.any(classical - np.diag(np.diag(classical)))


@pytest.mark.parametrize("omega", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_qsw_in_several_substeps_matches_expm(omega):
    # C t = 480 and rate t = 780 on the hexagon: every omega but 1 takes several substeps,
    # whose errors add; scipy's expm of the whole generator is the reference
    g = hexagonal_graph(1)
    h, params, t = Hamiltonian(g, 0.8), QswParams(omega=omega, rate=1.3), 600.0
    substeps = stochastic._chebyshev_plan(omega * 1.3 * 2 * t, 2 * 2 * (1 - omega) * 0.8 * t)[0]
    assert substeps > 1 or omega == 1.0
    rho0 = density_from_state(entry_state(g))
    exact = (expm(t * lindblad_generator(h, params)) @ rho0.ravel()).reshape(rho0.shape)
    assert np.max(np.abs(evolve_qsw(rho0, h, params, t) - exact)) < 1e-12


# (r t, q t) of the benchmark's runs, hexagonal n = 4 to t = 8 and hypercube d = 6 to t = 3 at
# omega = 0, 0.25, 0.5, 0.75 and 1, and of a long run, a tiny one and a circle
_PLANS = [(w * d * t, 2 * d * (1 - w) * t) for d, t in ((3, 8.0), (6, 3.0)) for w in (0, 0.25, 0.5, 0.75, 1)]
_PLANS += [(90.0, 180.0), (1e-9, 3e-9), (2.0, 2.0)]


@pytest.mark.parametrize("x, y", _PLANS)
def test_series_plan_meets_its_truncation_bound(x, y):
    # every coefficient a_k rho^k to 30 digits: the tail bound holds, the tail beyond the
    # degree meets the target, one degree less would not, the amplification is within the
    # cap, and the ellipse passes through the corner of the substep's rectangle
    s, a, b, coef = stochastic._chebyshev_plan(x, y)
    with mpmath.workdps(30):
        m, xs, a, b = len(coef) - 1, mpmath.mpf(x) / s, mpmath.mpf(a), mpmath.mpf(b)
        c = mpmath.sqrt(abs(a - b) * (a + b))

        def exact(k):
            if c == 0:  # a circle: the Taylor series
                return mpmath.exp(-xs) * ((a + b) / 2) ** k / mpmath.factorial(k)
            bessel = mpmath.besseli(k, c) if a > b else mpmath.besselj(k, c)
            return mpmath.exp(-xs) * bessel * ((a + b) / c) ** k

        terms = [abs(exact(0))]
        while len(terms) <= m + 10 or terms[-1] > mpmath.mpf(10) ** -60:  # then they fall faster still
            terms.append(2 * abs(exact(len(terms))))
        for k in range(max(math.ceil(b), 1), m + 10):  # the bound the plan searches with
            assert stochastic._tail_bound(k, float(xs), float(a), float(b)) >= mpmath.fsum(terms[k:])
        tail, target = mpmath.fsum(terms[m + 1 :]), mpmath.mpf(2) ** -53 / (1 + mpmath.sqrt(2))
        assert tail <= target
        assert m == 0 or tail + terms[m] > target
        assert mpmath.fsum(terms[: m + 1]) <= stochastic._AMPLIFICATION_CAP * (1 + 1e-12)
        assert np.max(np.abs(np.abs(coef) - np.array(terms[: m + 1], dtype=float))) <= 1e-14 * float(max(terms))
        corner = (xs / a) ** 2 if a else 0.0
        corner += (mpmath.mpf(y) / s / b) ** 2 if b else 0.0
        assert abs(corner - 1) <= 1e-12


_BESSEL_RECTANGLES = [
    (0.0, 1e-300),
    (1e-300, 0.0),
    (1e-300, 3e-300),
    (2e-10, 1e-10),
    (0.3, 1.0),
    (6.0, 36.0),
    (24.0, 0.0),
    (0.0, 48.0),
    (40.0, 400.0),
    (1000.0, 0.0),
    (0.0, 1000.0),
]


@pytest.mark.parametrize("x, y", _BESSEL_RECTANGLES)
def test_miller_coefficients_match_scipy(x, y):
    # e^-x (2 - [k = 0]) I_k(c) rho^k, or J_k(c) rho^k, for c from 1e-300 to 1e3 and every
    # k up to the planned degree; scipy's own J_k(1000) is good to 3e-13 of the largest
    a, b = stochastic._ellipse(x, y, stochastic._AMPLIFICATION_CAP)
    m = stochastic._degree(x, a, b, stochastic._TAIL)
    got = stochastic._coefficients(x, a, b, stochastic._degree(x, a, b, stochastic._TAIL * 2.0**-20))
    k = np.arange(m + 1)
    c = math.sqrt(abs(a - b)) * math.sqrt(a + b)
    bessel = math.exp(c - x) * ive(k, c) if a > b else math.exp(-x) * jv(k, c)
    want = np.where(k == 0, 1.0, 2.0) * bessel * ((a + b) / c) ** k
    assert 1e-300 <= c <= 1e3 + 1e-9
    assert np.max(np.abs(got[: m + 1] - want)) <= 1e-12 * np.max(np.abs(want))


def test_series_plan_stops_at_the_substep_cap():
    # at omega = 0 the fewest substeps whose degrees fit the cap are the plan: find the
    # largest q t that still runs, in 10^4 substeps, and the next float is refused
    cap = stochastic.SUBSTEP_CAP

    def runs(y):
        try:
            return stochastic._chebyshev_plan(0.0, y)
        except ValueError as exc:
            assert str(exc).endswith(f"substeps, above the cap of {cap}")
            return None

    lo, hi = 1e6, 1e8
    assert runs(lo) and not runs(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if runs(mid) else (lo, mid)
    assert runs(lo)[0] == cap
    assert runs(math.nextafter(lo, math.inf)) is None
    for bad, shown in ((math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=f"needs {shown} substeps"):
            stochastic._chebyshev_plan(bad, 1.0)


def test_series_plan_at_the_benchmark_sizes():
    # one substep each, of the degrees below: 724 terms over the benchmark's ten runs
    plans = [stochastic._chebyshev_plan(x, y) for x, y in _PLANS[:10]]
    assert [(s, len(coef) - 1) for s, _, _, coef in plans] == [
        (1, 89),
        (1, 95),
        (1, 87),
        (1, 73),
        (1, 45),
        (1, 74),
        (1, 78),
        (1, 72),
        (1, 61),
        (1, 40),
    ]
    assert sum(s * len(coef) for s, _, _, coef in plans) == 724


def test_qsw_on_an_edgeless_graph_keeps_the_start():
    g = Graph("path", [(0, 0), (2, 0), (4, 0)], [], 0, 2)
    rho0 = density_from_state(np.array([0.6, 0.8j, 0.0]))
    rho = evolve_qsw(rho0, Hamiltonian(g), QswParams(omega=0.5), 7.0)
    assert np.array_equal(rho, rho0)
    assert rho is not rho0


def test_qsw_refuses_a_start_that_is_not_hermitian():
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    rho0 = density_from_state(entry_state(g))
    rho0[0, 1] = 0.25
    with pytest.raises(ValueError, match="density matrix is not Hermitian"):
        evolve_qsw(rho0, h, QswParams(omega=0.5), 1.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        evolve_qsw(1j * density_from_state(entry_state(g)), h, QswParams(omega=0.5), 0.0)


def test_qsw_evolves_the_hermitian_part_of_a_start_within_rounding():
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    params = QswParams(omega=0.5)
    rho0 = density_from_state(np.full(g.n_nodes, 1.0 / math.sqrt(g.n_nodes)))
    skewed = rho0.copy()
    skewed[0, 1] += 1e-14
    rho = evolve_qsw(skewed, h, params, 2.0)
    assert np.array_equal(rho, rho.conj().T)
    assert np.max(np.abs(rho - evolve_qsw(rho0, h, params, 2.0))) < 1e-14
