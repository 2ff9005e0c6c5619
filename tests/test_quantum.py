"""Tests for Hamiltonian construction and the spectral propagator of both walks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hexwalk.graphs import glued_tree, hexagonal_graph, path_graph
from hexwalk.quantum import (
    CouplingModel,
    build_hamiltonian,
    entry_state,
    propagate,
    site_probabilities,
)
from hexwalk.stochastic import ClassicalGenerator, entry_distribution

# Exit probability of the 6-node single-hexagon walk at C=1, z=1, computed
# with a 40-term series expansion of the propagator and frozen here.
HEX1_EXIT_PROB_AT_Z1 = 0.066502875399


def taylor_evolve(matrix: np.ndarray, psi0: np.ndarray, z: float, terms: int = 40) -> np.ndarray:
    """Truncated series for e^{-iHz} psi0, an oracle independent of eigh."""
    psi = psi0.astype(complex)
    term = psi0.astype(complex)
    for k in range(1, terms + 1):
        term = (-1j * z / k) * (matrix @ term)
        psi = psi + term
    return psi


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_two_site_hamiltonian_is_pauli_x():
    h = build_hamiltonian(path_graph(2), CouplingModel(coupling=1.0))
    assert np.array_equal(h.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_row_sums_equal_scaled_degrees():
    g = hexagonal_graph(2)
    c = 0.7
    h = build_hamiltonian(g, CouplingModel(coupling=c))
    assert np.allclose(h.matrix.sum(axis=1), c * g.degrees)


def test_diagonal_term_shifts_identity():
    g = hexagonal_graph(1)
    base = build_hamiltonian(g, CouplingModel(coupling=1.0))
    shifted = build_hamiltonian(g, CouplingModel(coupling=1.0, diagonal=5.0))
    assert np.allclose(shifted.matrix - base.matrix, 5.0 * np.eye(g.n_nodes))


def test_model_defaults_and_validation():
    assert CouplingModel().coupling == 1.0
    assert CouplingModel().diagonal == 0.0
    with pytest.raises(ValueError):
        CouplingModel(coupling=0.0)
    with pytest.raises(ValueError):
        CouplingModel(coupling=-1.0)
    with pytest.raises(ValueError):
        CouplingModel(coupling=float("nan"))
    with pytest.raises(ValueError):
        CouplingModel(diagonal=float("inf"))


def test_spectrum_reconstructs_hamiltonian():
    h = build_hamiltonian(hexagonal_graph(2))
    w, v = h.spectrum
    assert np.max(np.abs(v @ np.diag(w) @ v.T - h.matrix)) < 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(h.dim))) < 1e-12


def test_matrix_is_read_only():
    h = build_hamiltonian(path_graph(3))
    with pytest.raises(ValueError):
        h.matrix[0, 0] = 9.0


def test_entry_state_is_entry_indicator():
    g = hexagonal_graph(2)
    psi = entry_state(g)
    assert psi.dtype == complex
    assert psi[g.entry] == 1.0
    assert np.count_nonzero(psi) == 1


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_zero_length_evolution_is_identity():
    g = glued_tree(2, gluing="identity")
    h = build_hamiltonian(g)
    psi0 = entry_state(g)
    assert np.max(np.abs(propagate(h, psi0, 0.0) - psi0)) < 1e-12


def test_two_site_rabi_oscillation():
    h = build_hamiltonian(path_graph(2), CouplingModel(coupling=0.9))
    psi0 = entry_state(path_graph(2))
    for z in (0.3, 1.1, 2.5):
        p = site_probabilities(propagate(h, psi0, z))
        assert abs(p[1] - math.sin(0.9 * z) ** 2) < 1e-12


def test_norm_is_conserved_for_random_states_and_lengths():
    rng = np.random.default_rng(11)
    g = hexagonal_graph(2)
    h = build_hamiltonian(g, CouplingModel(coupling=0.5))
    for _ in range(10):
        psi0 = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        psi0 /= np.linalg.norm(psi0)
        z = rng.uniform(0.0, 100.0 / 0.5)
        psi = propagate(h, psi0, z)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_diagonal_shift_is_a_pure_phase():
    g = hexagonal_graph(1)
    psi0 = entry_state(g)
    plain = build_hamiltonian(g, CouplingModel(coupling=1.0))
    shifted = build_hamiltonian(g, CouplingModel(coupling=1.0, diagonal=2.5))
    for z in (0.7, 3.0):
        p_plain = site_probabilities(propagate(plain, psi0, z))
        p_shift = site_probabilities(propagate(shifted, psi0, z))
        assert np.max(np.abs(p_plain - p_shift)) < 1e-10


def test_scaling_coupling_rescales_length():
    g = hexagonal_graph(2)
    psi0 = entry_state(g)
    slow = build_hamiltonian(g, CouplingModel(coupling=1.0))
    fast = build_hamiltonian(g, CouplingModel(coupling=2.0))
    z = 4.2
    psi_slow = propagate(slow, psi0, z)
    psi_fast = propagate(fast, psi0, z / 2.0)
    assert np.max(np.abs(psi_slow - psi_fast)) < 1e-9


def test_evolution_composes():
    g = glued_tree(2, gluing="identity")
    h = build_hamiltonian(g, CouplingModel(coupling=0.8))
    psi0 = entry_state(g)
    direct = propagate(h, psi0, 3.7)
    stepped = propagate(h, propagate(h, psi0, 1.4), 2.3)
    assert np.max(np.abs(direct - stepped)) < 1e-9


def test_propagator_matches_series_oracle_on_small_graphs():
    for g in (hexagonal_graph(1), hexagonal_graph(2), glued_tree(2, gluing="identity")):
        assert g.n_nodes <= 30
        h = build_hamiltonian(g)
        psi0 = entry_state(g)
        spectral = propagate(h, psi0, 1.0)
        series = taylor_evolve(h.matrix, psi0, 1.0)
        assert np.max(np.abs(spectral - series)) < 1e-8


def test_single_hexagon_exit_probability_frozen_value():
    g = hexagonal_graph(1)
    h = build_hamiltonian(g)
    psi = propagate(h, entry_state(g), 1.0)
    assert abs(site_probabilities(psi)[g.exit] - HEX1_EXIT_PROB_AT_Z1) < 1e-9


# Both walks run through the one propagator.  Per walk: the operator at a
# given coupling or hop rate, the launch state, the state's dtype, the
# probability carried by a propagated entry, and the lowest probability
# allowed.  The classical propagator is stochastic only to rounding, so its
# raw exit curve may dip ~1e-16 below 0 (the hitting scan clips that).
OPERATORS = {
    "coherent": (
        lambda g, c: build_hamiltonian(g, CouplingModel(coupling=c)),
        entry_state,
        np.complex128,
        lambda x: np.abs(x) ** 2,
        0.0,
    ),
    "classical": (
        lambda g, c: ClassicalGenerator(g, rate=c),
        entry_distribution,
        np.float64,
        lambda x: x,
        -1e-15,
    ),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_evolve_rejects_bad_lengths_and_shapes(kind):
    g = path_graph(3)
    make, launch, _, _, _ = OPERATORS[kind]
    h = make(g, 1.0)
    psi0 = launch(g)
    with pytest.raises(ValueError):
        propagate(h, psi0, -0.1)
    with pytest.raises(ValueError):
        propagate(h, psi0, float("nan"))
    with pytest.raises(ValueError):
        propagate(h, psi0[:2], 1.0)
    with pytest.raises(ValueError):
        propagate(h, np.zeros((3, 3)), 1.0)
    zs = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        propagate(h, psi0, np.array([0.0, -0.1]))
    with pytest.raises(ValueError):
        propagate(h, psi0, np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        propagate(h, psi0, zs.reshape(1, 3))
    for site in (-1, 3):
        with pytest.raises(ValueError):
            propagate(h, psi0, zs, site)
    with pytest.raises(ValueError):
        propagate(h, psi0, 1.0, 0)


# ---------------------------------------------------------------------------
# probabilities and grids
# ---------------------------------------------------------------------------


def test_site_probabilities_on_indicator_and_uniform():
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert np.array_equal(site_probabilities(e2), [0.0, 1.0, 0.0])
    quarter = np.full(4, 0.5, dtype=complex)
    assert np.allclose(site_probabilities(quarter), 0.25)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_amplitude_grid_matches_single_shot_evolution(kind):
    g = hexagonal_graph(1)
    make, launch, dtype, _, _ = OPERATORS[kind]
    h = make(g, 1.3)
    psi0 = launch(g)
    zs = np.array([0.0, 0.5, 1.25, 4.0])
    grid = propagate(h, psi0, zs)
    assert grid.shape == (4, g.n_nodes)
    assert grid.dtype == dtype
    for row, z in zip(grid, zs):
        single = propagate(h, psi0, z)
        assert single.dtype == dtype
        assert np.max(np.abs(row - single)) < 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_site_probability_curve_matches_grid(kind):
    g = hexagonal_graph(2)
    make, launch, dtype, probability, floor = OPERATORS[kind]
    h = make(g, 1.0)
    psi0 = launch(g)
    zs = np.linspace(0.0, 8.0, 33)
    site = propagate(h, psi0, zs, g.exit)
    grid = propagate(h, psi0, zs)
    assert site.shape == zs.shape
    assert site.dtype == dtype
    assert np.max(np.abs(site - grid[:, g.exit])) < 1e-12
    curve = probability(site)
    assert np.max(np.abs(curve - probability(grid[:, g.exit]))) < 1e-12
    assert np.all(curve >= floor)
    assert np.all(curve <= 1.0 + 1e-12)
