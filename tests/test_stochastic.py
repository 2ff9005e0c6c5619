"""Tests for the classical generator and the density-matrix walk."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hexwalk.graphs import glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.quantum import (
    CouplingModel,
    build_hamiltonian,
    entry_state,
    propagate,
    site_probabilities,
)
from hexwalk.stochastic import (
    ClassicalGenerator,
    QswParams,
    basis_density,
    density_from_state,
    entry_distribution,
    evolve_qsw,
    lindblad_rhs,
)


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
    k = gen.matrix
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
    p0 = entry_distribution(g)
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
    p = propagate(gen, entry_distribution(g), 200.0)
    assert np.max(np.abs(p - 0.0625)) < 1e-6


def test_simplex_is_preserved():
    rng = np.random.default_rng(5)
    g = glued_tree(2, gluing="random-cycle", seed=1)
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
    grid = propagate(gen, entry_distribution(g), ts)
    dev = np.max(np.abs(grid - 1.0 / g.n_nodes), axis=1)
    assert np.all(np.diff(dev) < 0.0)


def test_evolve_classical_rejects_bad_input():
    gen = ClassicalGenerator(path_graph(3))
    p0 = entry_distribution(path_graph(3))
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


def test_basis_density_is_diagonal_indicator():
    rho = basis_density(4, 2)
    assert rho.shape == (4, 4)
    assert rho[2, 2] == 1.0
    assert np.count_nonzero(rho) == 1


def test_qsw_params_validation():
    QswParams(omega=0.0)
    QswParams(omega=1.0)
    with pytest.raises(ValueError):
        QswParams(omega=-0.01)
    with pytest.raises(ValueError):
        QswParams(omega=1.01)
    with pytest.raises(ValueError):
        QswParams(omega=0.5, rate=0.0)
    with pytest.raises(ValueError):
        QswParams(omega=0.5, step=0.0)


# ---------------------------------------------------------------------------
# Lindblad right-hand side
# ---------------------------------------------------------------------------


def test_rhs_coherent_limit_is_commutator():
    g = hexagonal_graph(1)
    h = build_hamiltonian(g)
    rho = density_from_state(entry_state(g))
    rhs = lindblad_rhs(rho, h, QswParams(omega=0.0))
    expected = -1j * (h.matrix @ rho - rho @ h.matrix)
    assert np.array_equal(rhs, expected)


def test_rhs_classical_limit_on_populations():
    g = hexagonal_graph(1)
    h = build_hamiltonian(g)
    rate = 1.4
    gen = ClassicalGenerator(g, rate=rate)
    pops = np.array([0.4, 0.3, 0.1, 0.1, 0.05, 0.05])
    rho = np.diag(pops).astype(complex)
    rhs = lindblad_rhs(rho, h, QswParams(omega=1.0, rate=rate))
    assert np.allclose(np.diag(rhs).real, gen.matrix @ pops, atol=1e-12)
    assert np.max(np.abs(rhs - np.diag(np.diag(rhs)))) == 0.0


def test_rhs_matches_operator_sum_oracle():
    rng = np.random.default_rng(3)
    g = hexagonal_graph(1)
    h = build_hamiltonian(g, CouplingModel(coupling=0.9))
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    omega, rate = 0.35, 1.2
    rhs = lindblad_rhs(rho, h, QswParams(omega=omega, rate=rate))
    coherent = -1j * (h.matrix @ rho - rho @ h.matrix)
    expected = (1.0 - omega) * coherent + omega * brute_force_dissipator(rho, g.adjacency, rate)
    assert np.max(np.abs(rhs - expected)) < 1e-12


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(9)
    g = glued_tree(1, gluing="identity")
    h = build_hamiltonian(g)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = raw @ raw.conj().T
    rho /= np.trace(rho).real
    rhs = lindblad_rhs(rho, h, QswParams(omega=0.6, rate=0.8))
    assert abs(np.trace(rhs)) < 1e-12
    assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# full quantum stochastic evolution
# ---------------------------------------------------------------------------


def test_qsw_zero_time_copies_input():
    g = path_graph(3)
    h = build_hamiltonian(g)
    rho0 = basis_density(3, 1)
    rho = evolve_qsw(rho0, h, QswParams(omega=0.5), 0.0)
    assert np.array_equal(rho, rho0)
    assert rho is not rho0


@pytest.mark.parametrize(
    "graph",
    [
        hexagonal_graph(1),
        hexagonal_graph(2),
        glued_tree(2, gluing="identity"),
        glued_tree(2, gluing="random-cycle", seed=4),
        hypercube_graph(3),
        path_graph(9),
    ],
    ids=["hex1", "hex2", "glued-id", "glued-cycle", "cube3", "path9"],
)
def test_qsw_limits_reproduce_dedicated_engines(graph):
    assert graph.n_nodes <= 30
    h = build_hamiltonian(graph)
    t = 1.5
    rho0 = basis_density(graph.n_nodes, graph.entry)

    coherent = evolve_qsw(rho0, h, QswParams(omega=0.0), t)
    psi = propagate(h, entry_state(graph), t)
    assert np.max(np.abs(np.diag(coherent).real - site_probabilities(psi))) < 1e-6

    classical = evolve_qsw(rho0, h, QswParams(omega=1.0), t)
    gen = ClassicalGenerator(graph)
    p = propagate(gen, entry_distribution(graph), t)
    assert np.max(np.abs(np.diag(classical).real - p)) < 1e-6
    off = classical - np.diag(np.diag(classical))
    assert np.max(np.abs(off)) == 0.0


def test_qsw_midpoint_agrees_with_finer_steps():
    g = hexagonal_graph(1)
    h = build_hamiltonian(g)
    rho0 = basis_density(g.n_nodes, g.entry)
    t = 2.0
    coarse = evolve_qsw(rho0, h, QswParams(omega=0.5, step=0.01), t)
    fine = evolve_qsw(rho0, h, QswParams(omega=0.5, step=0.001), t)
    assert np.max(np.abs(coarse - fine)) < 1e-6


def test_qsw_output_is_a_valid_density_matrix():
    g = hexagonal_graph(2)
    h = build_hamiltonian(g)
    rho0 = basis_density(g.n_nodes, g.entry)
    for omega in (0.0, 0.3, 1.0):
        rho = evolve_qsw(rho0, h, QswParams(omega=omega), 3.0)
        assert abs(np.trace(rho).real - 1.0) < 1e-6
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-6


def test_qsw_node_cap():
    g = hexagonal_graph(6)
    assert g.n_nodes > 64
    h = build_hamiltonian(g)
    rho0 = basis_density(g.n_nodes, g.entry)
    with pytest.raises(ValueError):
        evolve_qsw(rho0, h, QswParams(omega=0.5), 1.0)
    # a higher explicit cap lets the same evolution run
    rho = evolve_qsw(rho0, h, QswParams(omega=0.0, step=0.05), 0.1, node_cap=128)
    assert abs(np.trace(rho).real - 1.0) < 1e-6


def test_qsw_coarse_step_stays_a_density_matrix():
    g = hexagonal_graph(1)
    h = build_hamiltonian(g, CouplingModel(coupling=40.0))
    rho0 = basis_density(g.n_nodes, g.entry)
    # a step far too coarse for this coupling still gives a finite,
    # trace-one Hermitian matrix: every split piece is an exact map
    for omega in (0.0, 0.5, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rho = evolve_qsw(rho0, h, QswParams(omega=omega, step=5.0), 50.0)
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


@pytest.mark.parametrize("omega", [0.25, 0.5, 0.75])
def test_qsw_matches_exponential_of_lindblad_rhs(omega):
    g = hexagonal_graph(1)
    n = g.n_nodes
    h = build_hamiltonian(g)
    params = QswParams(omega=omega, rate=1.3)
    generator = np.zeros((n * n, n * n), dtype=complex)
    for col in range(n * n):
        unit = np.zeros(n * n, dtype=complex)
        unit[col] = 1.0
        generator[:, col] = lindblad_rhs(unit.reshape(n, n), h, params).ravel()
    rho0 = basis_density(n, g.entry)
    t = 2.0
    exact = (expm_scaling_squaring(generator * t) @ rho0.ravel()).reshape(n, n)
    assert np.max(np.abs(evolve_qsw(rho0, h, params, t) - exact)) < 1e-9
