"""Tests for Hamiltonian construction and the spectral propagator of both walks."""

from __future__ import annotations

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from child_process import run_child
from hexwalk import graphs, quantum
from hexwalk.graphs import Graph, glued_tree, hexagonal_graph, hypercube_graph, path_graph
from hexwalk.hitting import quantum_hitting_curve
from hexwalk.quantum import Hamiltonian, WalkOperator, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator
from refinement_oracle import with_oracle_cells
from spectrum_oracle import (
    BothSectors,
    cell_matrix,
    cell_mirror,
    cells_of,
    dense_matrix,
    dense_v,
    orbits,
    orthonormal_v,
    propagate_dense,
    propagate_expm,
    spectrum_of,
)
from test_hitting import _two_hexagons as two_hexagons

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
    h = Hamiltonian(path_graph(2), 1.0)
    assert np.array_equal(dense_matrix(h), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_row_sums_equal_scaled_degrees():
    g = hexagonal_graph(2)
    c = 0.7
    h = Hamiltonian(g, c)
    assert np.allclose(dense_matrix(h).sum(axis=1), c * g.degrees)


def test_model_defaults_and_validation():
    g = path_graph(2)
    assert Hamiltonian(g).coupling == 1.0
    with pytest.raises(ValueError):
        Hamiltonian(g, 0.0)
    with pytest.raises(ValueError):
        Hamiltonian(g, -1.0)
    with pytest.raises(ValueError):
        Hamiltonian(g, float("nan"))


def test_spectrum_reconstructs_hamiltonian():
    h = Hamiltonian(hexagonal_graph(2))
    w, v = h.spectrum.w, dense_v(h)
    assert np.max(np.abs(v @ np.diag(w) @ v.T - dense_matrix(h))) < 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(h.dim))) < 1e-12


def test_spectrum_arrays_are_read_only():
    h = Hamiltonian(path_graph(3))
    for part in ("w", "even", "column", "sign"):
        with pytest.raises(ValueError):
            getattr(h.spectrum, part)[0] = 9


def test_entry_state_is_entry_indicator():
    g = hexagonal_graph(2)
    psi = entry_state(g)
    assert psi.dtype == np.float64
    assert psi[g.entry] == 1.0
    assert np.count_nonzero(psi) == 1


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_zero_length_evolution_is_identity():
    g = glued_tree(2, gluing="identity")
    h = Hamiltonian(g)
    psi0 = entry_state(g)
    assert np.max(np.abs(propagate(h, psi0, 0.0) - psi0)) < 1e-12


def test_two_site_rabi_oscillation():
    h = Hamiltonian(path_graph(2), 0.9)
    psi0 = entry_state(path_graph(2))
    for z in (0.3, 1.1, 2.5):
        p = np.abs(propagate(h, psi0, z)) ** 2
        assert abs(p[1] - math.sin(0.9 * z) ** 2) < 1e-12


def test_norm_is_conserved_for_random_states_and_lengths():
    rng = np.random.default_rng(11)
    g = hexagonal_graph(2)
    h = Hamiltonian(g, 0.5)
    for _ in range(10):
        psi0 = rng.normal(size=g.n_nodes) + 1j * rng.normal(size=g.n_nodes)
        psi0 /= np.linalg.norm(psi0)
        z = rng.uniform(0.0, 100.0 / 0.5)
        psi = propagate(h, psi0, z)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-10


def test_scaling_coupling_rescales_length():
    g = hexagonal_graph(2)
    psi0 = entry_state(g)
    slow = Hamiltonian(g, 1.0)
    fast = Hamiltonian(g, 2.0)
    z = 4.2
    psi_slow = propagate_expm(slow, psi0, z)
    psi_fast = propagate(fast, psi0, z / 2.0)
    assert np.max(np.abs(psi_slow - psi_fast)) < 1e-9


def test_evolution_composes():
    g = glued_tree(2, gluing="identity")
    h = Hamiltonian(g, 0.8)
    psi0 = entry_state(g)
    direct = propagate_expm(h, psi0, 3.7)
    stepped = propagate(h, propagate(h, psi0, 1.4), 2.3)
    assert np.max(np.abs(direct - stepped)) < 1e-9


def test_propagator_matches_series_oracle_on_small_graphs():
    for g in (hexagonal_graph(1), hexagonal_graph(2), glued_tree(2, gluing="identity")):
        assert g.n_nodes <= 30
        h = Hamiltonian(g)
        psi0 = entry_state(g)
        spectral = propagate(h, psi0, 1.0)
        series = taylor_evolve(dense_matrix(h), psi0, 1.0)
        assert np.max(np.abs(spectral - series)) < 1e-8


def test_single_hexagon_exit_probability_frozen_value():
    g = hexagonal_graph(1)
    h = Hamiltonian(g)
    psi = propagate(h, entry_state(g), 1.0)
    assert abs(abs(psi[g.exit]) ** 2 - HEX1_EXIT_PROB_AT_Z1) < 1e-9


# Both walks run through the one propagator.  Per walk: the operator at a
# given coupling or hop rate, the launch state, the state's dtype, and the
# probability carried by a propagated entry.  The launch state has no
# negative entry, so no probability may fall below 0: the classical walk is
# clipped there.
OPERATORS = {
    "coherent": (
        lambda g, c: Hamiltonian(g, c),
        entry_state,
        np.complex128,
        lambda x: np.abs(x) ** 2,
    ),
    "classical": (
        lambda g, c: ClassicalGenerator(g, rate=c),
        entry_state,
        np.float64,
        lambda x: x,
    ),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_evolve_rejects_bad_lengths_and_shapes(kind):
    g = path_graph(3)
    make, launch, _, _ = OPERATORS[kind]
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
    for site in (-1, 3, 1.5, 2.0, np.float64(1.0), "1"):
        with pytest.raises(ValueError):
            propagate(h, psi0, zs, site)
    with pytest.raises(ValueError):
        propagate(h, psi0, 1.0, 0)
    uneven = np.array([0.0, 1.0, 5.0])
    with pytest.raises(ValueError, match="evenly spaced"):
        propagate(h, psi0, uneven, 0)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_an_uneven_site_grid_is_refused_before_any_spectrum(kind, monkeypatch):
    g = hexagonal_graph(6)
    make, launch, _, _ = OPERATORS[kind]
    psi0 = launch(g)
    sizes = count_eigh(monkeypatch)
    op = make(g, 1.0)
    for zs in ([0.0, 1.0, 5.0], [5.0, 1.0, 0.0]):
        with pytest.raises(ValueError, match="^a site curve needs an evenly spaced length grid$"):
            propagate(op, psi0, zs, g.exit)
    assert sizes == []


# ---------------------------------------------------------------------------
# probabilities and grids
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_amplitude_grid_matches_single_shot_evolution(kind):
    g = hexagonal_graph(1)
    make, launch, dtype, _ = OPERATORS[kind]
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
    make, launch, dtype, probability = OPERATORS[kind]
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
    assert np.all(curve >= 0.0)
    assert np.all(curve <= 1.0 + 1e-12)


def peak_traced_bytes(run) -> int:
    """Peak bytes allocated while ``run()`` executes, by tracemalloc."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("t0", [0.0, 2.5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 97, 100, 101])
def test_site_curve_matches_scalar_propagation(kind, t0, n):
    # n = 0 is an empty grid, n = 1 a single point, and 97 and 101 leave the
    # last block of ceil(sqrt(n)) offsets partly filled
    g = hexagonal_graph(2)
    make, launch, dtype, _ = OPERATORS[kind]
    op = make(g, 1.3)
    psi0 = launch(g)
    zs = t0 + 0.07 * np.arange(n)
    expected = np.array([propagate_expm(op, psi0, z)[g.exit] for z in zs], dtype=dtype)
    curve = propagate(op, psi0, zs, g.exit)
    assert curve.shape == (n,)
    assert curve.dtype == dtype
    assert np.max(np.abs(curve - expected), initial=0.0) < 1e-12
    descending = propagate(op, psi0, zs[::-1], g.exit)
    assert np.max(np.abs(descending - expected[::-1]), initial=0.0) < 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_site_curve_to_long_lengths_is_within_phase_rounding(kind):
    # Each mode's phase w t is rounded to within eps |w| t once per point on
    # the scalar side and twice (block start, offset) on the blocked side,
    # and the grid check admits t_j off t0 + j dz by 8 eps t_max, so the
    # phases differ by at most ~10 eps |w|_max z_max.  The curve is sum_m c_m
    # exp(phase w_m t) with sum |c_m| <= 1 for a unit launch state, so it
    # differs by no more: 6.7e-11 here for |w| <= 3 at z = 10^4.
    g = hexagonal_graph(3)
    make, launch, dtype, _ = OPERATORS[kind]
    op = make(g, 1.0)
    psi0 = launch(g)
    zs = np.linspace(0.0, 1e4, 1001)
    expected = propagate_dense(op, psi0, zs)[:, g.exit]
    bound = 10 * np.finfo(float).eps * np.abs(op.spectrum.w).max() * zs[-1]
    assert np.max(np.abs(propagate(op, psi0, zs, g.exit) - expected)) < bound


def test_million_point_scan_stays_small():
    # a T x k matrix of mode factors would be 999999 x 180 complex, 2.7 GiB
    g = hexagonal_graph(12)
    curves = []
    peak = peak_traced_bytes(
        lambda: curves.append(quantum_hitting_curve(Hamiltonian(g, 1.0), z_max=9999.98, dz=0.01))
    )
    assert len(curves[0].z) == 999_999
    assert peak < 64 * 2**20


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_node_pairs_peak_below_twice_their_size(kind):
    op = OPERATORS[kind][0](hexagonal_graph(30), 1.0)
    op.graph.degrees
    peak = peak_traced_bytes(lambda: op.pairs)
    assert peak <= 2 * sum(part.nbytes for part in op.pairs)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_quotient_spectrum_and_a_site_curve_peak_below_three_cell_arrays(kind):
    # k = 990 cells: the two sector blocks and V, never the k x k quotient or a complex V
    g = hexagonal_graph(30)
    k = int(g.entry_cells.max()) + 1
    op = OPERATORS[kind][0](g, 1.0)
    grid = 0.01 * np.arange(12001)
    peak = peak_traced_bytes(lambda: propagate(op, entry_state(g), grid, g.exit))
    assert len(op.entry_spectrum.w) == k == 990
    assert peak <= 3 * 8 * k * k


def test_a_coherent_state_is_projected_without_a_complex_copy_of_v():
    g = hexagonal_graph(30)
    h = Hamiltonian(g)
    v = dense_v(h, entry=True)
    x0 = entry_state(g) * np.exp(0.3j)
    peak = peak_traced_bytes(lambda: propagate(h, x0, 1.0))
    assert peak <= 0.25 * v.nbytes


def test_a_coherent_grid_is_lifted_without_a_complex_copy_of_v():
    g = hexagonal_graph(30)
    h = Hamiltonian(g)
    v = dense_v(h, entry=True)
    grid = np.linspace(0.0, 47.0, 48)
    peak = peak_traced_bytes(lambda: propagate(h, entry_state(g), grid))
    assert peak <= 0.5 * v.nbytes


@pytest.mark.parametrize("kind, bound", [("coherent", 1.86), ("classical", 1.84)])
def test_a_grid_on_the_entry_cells_peaks_below_two_results(kind, bound):
    # 990 cells of 1920 nodes: the mode matrix and the cell values are about half a result
    # each, and the cell values go to the nodes once the mode matrix is freed
    g = hexagonal_graph(30)
    op = OPERATORS[kind][0](g, 1.0)
    grid = np.linspace(0.0, 47.0, 48)
    result = propagate(op, entry_state(g), grid)
    peak = peak_traced_bytes(lambda: propagate(op, entry_state(g), grid))
    assert peak <= bound * result.nbytes


def test_a_classical_walk_off_the_quotient_is_never_negative():
    # node 0 of a path is not the entry, so the walk runs on the node spectrum,
    # whose rounding leaves residues of about -1e-16 where it has not arrived
    g = path_graph(41)
    gen = ClassicalGenerator(g)
    x0 = np.zeros(g.n_nodes)
    x0[0] = 1.0
    ts = np.linspace(0.0, 3.0, 31)
    grid = propagate(gen, x0, ts)
    assert np.min(grid) == 0.0
    assert np.min(propagate(gen, x0, ts, g.n_nodes - 1)) == 0.0
    assert np.max(np.abs(grid.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 64, 65, 129, 130])
def test_real_products_match_numpys_complex_ones(k):
    # both sum the same k products, so they differ by rounding only: to 1e-15
    # of |a| @ |b|, entry by entry; a real operand is numpy's own product
    rng = np.random.default_rng(k)
    v = rng.standard_normal((k, k))
    x = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    rows = rng.standard_normal((7, k)) + 1j * rng.standard_normal((7, k))
    for a in (v, v.T):
        for left, right in ((a, x), (rows, a)):
            got = quantum._real_product(left, right)
            assert got.dtype == complex
            scale = np.abs(left) @ np.abs(right)
            assert np.all(np.abs(got - left @ right) <= 1e-15 * scale)
        assert np.array_equal(quantum._real_product(a, x.real), a @ x.real)
        assert np.array_equal(quantum._real_product(rows.real, a), rows.real @ a)




def test_a_curve_frees_its_operator_and_quotient_without_the_collector():
    # the curve keeps no reference to the walk it scanned, and a reference cycle
    # between operator and spectrum would keep both until gc runs
    h = Hamiltonian(hexagonal_graph(4))
    gc.disable()
    try:
        operator, v = weakref.ref(h), weakref.ref(h.entry_spectrum)
        curve = quantum_hitting_curve(h)
        del h
        assert operator() is None
        assert v() is None
        assert 0.0 < curve.p_opt < 1.0  # the curve itself lives on
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_spectrum_limit_refuses_one_byte_over_the_prediction(kind, monkeypatch):
    # hexagonal_graph(3) has 18 entry cells, 9 of them in the odd sector
    need = quantum._spectrum_bytes(18, 9)
    monkeypatch.setattr(graphs, "MAX_WALK_BYTES", need)
    assert len(OPERATORS[kind][0](hexagonal_graph(3), 1.0).entry_spectrum.w) == 18
    monkeypatch.setattr(graphs, "MAX_WALK_BYTES", need - 1)
    op = OPERATORS[kind][0](hexagonal_graph(3), 1.0)
    with pytest.raises(ValueError, match="the walk spectrum on 18 cells would take about"):
        op.entry_spectrum
    with pytest.raises(ValueError, match="on 30 cells"):
        op.spectrum
    # the default limit admits a depth-133 patch, 18088 cells, and no deeper one
    monkeypatch.undo()
    assert quantum._spectrum_bytes(18088, 9044) <= graphs.MAX_WALK_BYTES
    assert quantum._spectrum_bytes(18358, 9179) > graphs.MAX_WALK_BYTES


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_the_walk_budget_is_read_when_a_spectrum_is_predicted(kind, monkeypatch):
    # hexagonal_graph(3): a 720-byte neighbour table, and 18 entry cells whose spectrum
    # is predicted at 128 MiB; a budget of 1 MiB set after import lies between the two
    g = hexagonal_graph(3)
    op = OPERATORS[kind][0](g, 1.0)
    monkeypatch.setattr(graphs, "MAX_WALK_BYTES", 2**20)
    assert g.neighbours.nbytes == 720
    sizes = count_eigh(monkeypatch)
    with pytest.raises(ValueError, match="^the walk spectrum on 18 cells would take about 0.125 GiB"):
        op.entry_spectrum
    assert sizes == []  # refused before any block went to eigh
    assert not hasattr(quantum, "MAX_SPECTRUM_BYTES")  # the one budget is graphs.MAX_WALK_BYTES


# A ring of 40000 nodes with a seeded chord matching: no two nodes look alike from the
# entry, so every node is its own cell and a k x k array alone would take 11.9 GiB.
# The address-space limit makes the allocation fail at once wherever the refusal is lost.
_RING_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
import numpy as np
from hexwalk.graphs import Graph
from hexwalk.quantum import Hamiltonian
n = 40000
nodes = np.arange(n)
chords = np.random.default_rng(7).permutation(n).reshape(-1, 2)
gap = np.abs(chords[:, 0] - chords[:, 1])
chords = chords[(gap != 1) & (gap != n - 1)]
edges = np.concatenate([np.column_stack((nodes, (nodes + 1) % n)), chords])
g = Graph("path", np.column_stack((2 * nodes, 0 * nodes)), edges, 0, n // 2)
print(g.entry_cells.max() + 1)
try:
    Hamiltonian(g).entry_spectrum
except ValueError as exc:
    print(exc)
"""


def test_an_oversized_quotient_is_refused_before_it_is_allocated():
    proc = run_child(_RING_CHILD, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "40000\nthe walk spectrum on 40000 cells would take about 62.1 GiB, "
        "above the limit of 4 GiB\n"
    )


# ---------------------------------------------------------------------------
# the entry quotient
# ---------------------------------------------------------------------------

# Path m odd puts the exit in one cell with site 0; m even leaves every
# site its own cell.
QUOTIENT_GRAPHS = (
    [(f"hexagonal-{n}", lambda n=n: hexagonal_graph(n)) for n in range(1, 7)]
    + [(f"glued-{glue}-{d}", lambda d=d, glue=glue: glued_tree(d, glue, seed=d))
       for d in range(1, 6) for glue in ("identity", "random-cycle")]
    + [(f"hypercube-{d}", lambda d=d: hypercube_graph(d)) for d in range(1, 7)]
    + [(f"path-{m}", lambda m=m: path_graph(m)) for m in (2, 9, 10)]
)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("build", [b for _, b in QUOTIENT_GRAPHS], ids=[n for n, _ in QUOTIENT_GRAPHS])
def test_quotient_matches_dense_propagation(kind, build):
    g = build()
    make, launch, dtype, _ = OPERATORS[kind]
    zs = np.linspace(0.0, 6.0, 25)
    op = make(g, 0.8)
    reference = propagate_expm(op, launch(g), zs)
    grid = propagate(op, launch(g), zs)
    assert grid.shape == reference.shape
    assert grid.dtype == dtype
    assert np.max(np.abs(grid - reference)) < 1e-12
    for site in (g.exit, 0):
        assert np.max(np.abs(propagate(op, launch(g), zs, site) - reference[:, site])) < 1e-12
    assert np.max(np.abs(propagate(op, launch(g), zs[7]) - reference[7])) < 1e-12
    # the spectrum rebuilds S^T M S, S the cell indicator with columns scaled to unit norm
    v = orthonormal_v(op, entry=True)
    rebuilt = (v * op.entry_spectrum.w) @ v.T
    assert np.max(np.abs(rebuilt - cell_matrix(op, entry=True))) < 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("build", [b for _, b in QUOTIENT_GRAPHS], ids=[n for n, _ in QUOTIENT_GRAPHS])
def test_dense_matrix_is_scale_times_adjacency_minus_diagonal_degrees(kind, build):
    # the node pairs list M's entries
    g = build()
    op = OPERATORS[kind][0](g, 0.8)
    expected = op.scale * (g.adjacency - op.diagonal * np.diag(g.degrees.astype(float)))
    assert np.array_equal(dense_matrix(op), expected)


def count_eigh(monkeypatch) -> list[int]:
    """Record the size of every ``eigh`` from here on."""
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    return sizes


def forbid_dense_matrix(monkeypatch) -> None:
    monkeypatch.setattr(WalkOperator, "spectrum", property(lambda self: pytest.fail("node spectrum")))


def entry_plus_exit(g: Graph) -> np.ndarray:
    return entry_state(g) + np.eye(g.n_nodes)[g.exit]


def uniform(g: Graph) -> np.ndarray:
    return np.full(g.n_nodes, 1.0 / g.n_nodes)


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize(
    "state", [entry_state, entry_plus_exit, uniform], ids=["entry", "entry-plus-exit", "uniform"]
)
def test_states_constant_on_the_cells_never_form_the_dense_matrix(kind, state, monkeypatch):
    # the entry and the exit are each alone in a cell, and the uniform state is constant on all
    g = hexagonal_graph(3)
    make, _, dtype, _ = OPERATORS[kind]
    zs = np.linspace(0.0, 6.0, 25)
    reference = propagate_expm(make(g, 1.0), state(g), zs)
    op = make(g, 1.0)
    forbid_dense_matrix(monkeypatch)
    sizes = count_eigh(monkeypatch)
    grid = propagate(op, state(g), zs)
    assert grid.dtype == dtype
    assert np.max(np.abs(grid - reference)) <= 1e-12
    for site in (g.exit, 4):
        assert np.max(np.abs(propagate(op, state(g), zs, site) - reference[:, site])) <= 1e-12
    assert np.max(np.abs(propagate(op, state(g), zs[7]) - reference[7])) <= 1e-12
    # the 18 cells split into the two mirror sectors; the coherent odd sector is derived
    assert sizes == ([9] if kind == "coherent" else [9, 9])


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_a_state_not_constant_on_the_cells_takes_the_dense_spectrum(kind, monkeypatch):
    g = hexagonal_graph(3)
    cell = g.entry_cells
    node = int(np.flatnonzero(np.bincount(cell)[cell] > 1)[0])  # shares its cell
    x0 = entry_state(g)
    x0[node] = 1e-300
    op = OPERATORS[kind][0](g, 1.0)
    sizes = count_eigh(monkeypatch)
    zs = np.linspace(0.0, 2.0, 5)
    grid = propagate(op, x0, zs)
    # the 30 nodes split into the two mirror sectors; the coherent odd sector is derived
    assert sizes == ([15] if kind == "coherent" else [15, 15])
    # the node spectrum's V exp(phase w t) V^T x0, as the module docstring writes it
    spectrum = op.spectrum
    whole = spectrum.expand(np.exp(op.phase * np.outer(zs, spectrum.w)) * spectrum.project(x0))
    assert np.array_equal(grid, whole if kind == "coherent" else np.maximum(whole, 0.0))


def test_a_signed_classical_state_is_not_clipped(monkeypatch):
    # exp(K t) of e_entry - e_exit goes negative at the exit: the quotient must keep it
    g = hexagonal_graph(3)
    x0 = entry_state(g) - np.eye(g.n_nodes)[g.exit]
    zs = np.linspace(0.0, 6.0, 25)
    reference = propagate_expm(ClassicalGenerator(g), x0, zs)
    op = ClassicalGenerator(g)
    forbid_dense_matrix(monkeypatch)
    sizes = count_eigh(monkeypatch)
    grid = propagate(op, x0, zs)
    assert sizes == [9, 9]
    assert grid.min() < -0.1
    assert np.max(np.abs(grid - reference)) <= 1e-12
    assert np.max(np.abs(propagate(op, x0, zs, g.exit) - reference[:, g.exit])) <= 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_entry_propagation_on_an_edgeless_graph_stays_at_the_entry(kind):
    g = Graph("path", [(0, 0), (2, 0)], [], 0, 1)
    op = OPERATORS[kind][0](g, 1.0)
    assert np.array_equal(propagate(op, entry_state(g), 1.0), entry_state(g))
    assert np.array_equal(propagate(op, entry_state(g), np.linspace(0.0, 2.0, 3), g.exit), np.zeros(3))


def test_entry_propagation_rejects_bad_sites():
    g = path_graph(5)
    h = Hamiltonian(g)
    x0 = entry_state(g)
    zs = np.linspace(0.0, 1.0, 3)
    for site in (-1, 5):
        with pytest.raises(ValueError):
            propagate(h, x0, zs, site)
    with pytest.raises(ValueError):
        propagate(h, x0, 1.0, 0)
    with pytest.raises(ValueError):
        propagate(h, x0, -1.0)


# ---------------------------------------------------------------------------
# mirror sectors
# ---------------------------------------------------------------------------


# Graphs whose builders declare a mirror: an even-dimensional hypercube has
# one fixed cell, the middle Hamming layer; the others have none.  Then
# graphs without one.  On the hexagonal patches, the identity-glued trees
# and the odd-dimensional hypercubes the mirror flips the parity of every
# node, so the coherent walk's odd sector is derived from the even one.
SECTOR_GRAPHS = (
    [(f"hexagonal-{n}", lambda n=n: hexagonal_graph(n)) for n in range(1, 7)]
    + [(f"hypercube-{d}", lambda d=d: hypercube_graph(d)) for d in range(1, 7)]
    + [(f"glued-identity-{d}", lambda d=d: glued_tree(d, "identity")) for d in range(1, 5)]
    + [
        ("path-9", lambda: path_graph(9)),
        ("glued-random-cycle-3", lambda: glued_tree(3, "random-cycle", seed=3)),
        ("two-hexagons", lambda: two_hexagons(2)),  # built by hand
    ]
)
SECTOR_IDS = [name for name, _ in SECTOR_GRAPHS]
SECTOR_BUILDS = [build for _, build in SECTOR_GRAPHS]


def paired(g: Graph) -> bool:
    """Whether the graph's mirror maps every node to one of the opposite parity."""
    if g.mirror is None or g.family not in ("hexagonal", "hypercube", "glued-tree"):
        return False
    return g.family != "hypercube" or g.params["d"] % 2 == 1


def sector_operator(kind: str, build, part: str):
    """The graph, the operator and whether its spectrum on the entry cells is meant.

    "dense" is the walk operator's node spectrum, "quotient" its spectrum on
    the entry cells and "reference" its :class:`BothSectors`: node-level
    sectors without the chirality, so the odd sector is never derived.
    """
    g = build()
    op = OPERATORS[kind][0](g, 0.8)
    return g, (BothSectors(op) if part == "reference" else op), part == "quotient"


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("part", ["dense", "quotient"])
@pytest.mark.parametrize("build", SECTOR_BUILDS, ids=SECTOR_IDS)
def test_sector_spectrum_rebuilds_its_matrix(kind, part, build):
    _, op, entry = sector_operator(kind, build, part)
    m = cell_matrix(op, entry)
    w, v = spectrum_of(op, entry).w, orthonormal_v(op, entry)
    scale = np.max(np.abs(m))
    assert np.max(np.abs((v * w) @ v.T - m)) <= 1e-12 * scale
    assert np.max(np.abs(v.T @ v - np.eye(len(m)))) <= 1e-12
    assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(m))) <= 1e-12 * scale


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("part", ["dense", "quotient", "reference"])
@pytest.mark.parametrize("build", SECTOR_BUILDS, ids=SECTOR_IDS)
def test_mirror_splits_eigh_into_two_sectors(kind, part, build, monkeypatch):
    g, op, entry = sector_operator(kind, build, part)
    assert isinstance(op, WalkOperator) == (part != "reference")
    k = int(cells_of(op, entry).max()) + 1
    assert k == (g.n_nodes if part != "quotient" else int(g.entry_cells.max()) + 1)
    sizes = count_eigh(monkeypatch)
    spectrum = spectrum_of(op, entry)
    if g.mirror is None:
        assert sizes == [k]
        return
    # f nodes, or cells, that the mirror maps onto themselves
    if part != "quotient":
        f = int(np.sum(g.mirror == np.arange(k)))
    else:
        cell = g.entry_cells
        f = len(np.unique(cell[cell[g.mirror] == cell]))
    assert f == int(g.family == "hypercube" and part == "quotient" and k % 2 == 1)
    # the coherent walk derives its odd sector where the mirror flips the parity
    derived = kind == "coherent" and part != "reference" and paired(g)
    assert (spectrum.chirality is not None) == derived
    sectors = ((k + f) // 2, (k - f) // 2)[: 1 if derived else 2]
    assert sizes == [size for size in sectors if size]


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize(
    "build, part",
    [
        (lambda: path_graph(9), "dense"),
        (lambda: path_graph(9), "quotient"),
        (lambda: glued_tree(4, "random-cycle", seed=5), "quotient"),
        (lambda: two_hexagons(2), "dense"),
        (lambda: two_hexagons(2), "quotient"),
    ],
    ids=["path-9-dense", "path-9-quotient", "glued-random-cycle-4", "two-hexagons-dense",
         "two-hexagons-quotient"],
)
def test_spectrum_without_a_mirror_is_exactly_eigh(kind, build, part):
    # every cell is fixed, so the even block is the whole matrix on the cells: the same bits
    # as eigh of it, summed from the node pairs in their order; on the nodes that is M itself
    _, op, entry = sector_operator(kind, build, part)
    assert cell_mirror(op, entry) is None
    w, v = spectrum_of(op, entry).w, dense_v(op, entry)
    m, _, size = scattered_blocks(op, entry)
    if not entry:
        assert np.array_equal(m, dense_matrix(op))
    w_ref, v_ref = np.linalg.eigh(m)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref / np.sqrt(size)[:, None])


def scattered_blocks(op, entry: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The even and the odd sector block, each summed by ``np.add.at`` over the node pairs
    in their order, with the columns of the module docstring's layout, and the node count
    of every even column."""
    cell, r, p, f = orbits(op, entry)
    k, n = len(r), len(p)
    e = k - n
    column, sign = np.empty(k, dtype=int), np.zeros(k)
    column[p] = column[r[p]] = np.arange(n)
    column[f] = np.arange(n, e)
    sign[p], sign[r[p]] = 1.0, -1.0
    at, signs = column[cell], sign[cell]
    size = np.bincount(at, minlength=e)
    i, j, value = op.pairs
    a, b = at[i], at[j]
    value = value / np.sqrt(size[a] * size[b])
    even, odd = np.zeros((e, e)), np.zeros((n, n))
    np.add.at(even, (a, b), value)
    s = signs[i] * signs[j]
    keep = s != 0
    np.add.at(odd, (a[keep], b[keep]), (s * value)[keep])
    return even, odd, size


def scattered_spectrum(op, entry: bool, derive: bool) -> tuple[np.ndarray, np.ndarray]:
    """w and :func:`dense_v`'s V from :func:`scattered_blocks` and ``eigh``.

    With ``derive``, for a walk without a diagonal on a bipartite graph whose
    mirror maps every cell to one of the opposite parity, the odd sector is
    the even one with its eigenvalues negated and reversed and its
    eigenvectors reversed and signed by (-1)^parity.
    """
    cell, r, p, f = orbits(op, entry)
    k, n = len(r), len(p)
    node_parity = None if op.diagonal else op.graph.parity
    parity = np.zeros(k, dtype=int)
    if node_parity is not None:
        parity[cell] = node_parity
    even, odd, size = scattered_blocks(op, entry)
    w_even, y_even = np.linalg.eigh(even)
    if derive and node_parity is not None and n and np.all(parity[r] != parity):
        w_odd, y_odd = -w_even[::-1], np.where(parity[p, None] == 1, -1.0, 1.0) * y_even[:, ::-1]
    else:
        w_odd, y_odd = np.linalg.eigh(odd) if n else (w_even[:0], odd)
    root = np.sqrt(size)[:, None]
    v = np.zeros((k, k))
    v_even, v_odd = v[:, : len(w_even)], v[:, len(w_even) :]
    v_even[p] = v_even[r[p]] = y_even[:n] / root[:n]
    v_even[f] = y_even[n:] / root[n:]
    v_odd[p] = y_odd / root[:n]
    v_odd[r[p]] = -v_odd[p]
    return np.concatenate([w_even, w_odd]), v


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("part", ["dense", "quotient"])
@pytest.mark.parametrize("build", SECTOR_BUILDS, ids=SECTOR_IDS)
def test_spectrum_from_pairs_is_bit_for_bit_the_gathered_one(kind, part, build):
    _, op, entry = sector_operator(kind, build, part)
    w_ref, v_ref = scattered_spectrum(op, entry, derive=True)
    w, v = spectrum_of(op, entry).w, dense_v(op, entry)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


PAIRED_GRAPHS = [(name, build) for name, build in SECTOR_GRAPHS if paired(build())]


@pytest.mark.parametrize("part", ["dense", "quotient"])
@pytest.mark.parametrize(
    "build", [b for _, b in PAIRED_GRAPHS], ids=[n for n, _ in PAIRED_GRAPHS]
)
def test_derived_odd_sector_solves_the_odd_block(part, build):
    # oracle: an explicit eigh of the odd block A - B, in the basis (e_i - e_r[i]) / sqrt(2)
    _, op, entry = sector_operator("coherent", build, part)
    m, r = cell_matrix(op, entry), cell_mirror(op, entry)
    p = np.flatnonzero(np.arange(len(m)) < r)
    odd_block = m[np.ix_(p, p)] - m[np.ix_(p, r[p])]
    spectrum, v = spectrum_of(op, entry), orthonormal_v(op, entry)
    w = spectrum.w
    w_odd, y = w[len(p) :], math.sqrt(2.0) * v[p, len(p) :]
    scale = np.max(np.abs(m))
    assert spectrum.chirality is not None
    assert np.max(np.abs(w_odd - np.linalg.eigvalsh(odd_block))) <= 1e-12 * scale
    assert np.linalg.norm(odd_block @ y - y * w_odd) <= 1e-12 * scale
    assert np.array_equal(w_odd, -w[: len(p)][::-1])


# (id, kind, build, part) where the odd sector keeps its own eigh, or where there is none
UNPAIRED_CASES = (
    [(f"classical-{n}-{part}", "classical", b, part) for n, b in PAIRED_GRAPHS for part in ("dense", "quotient")]
    + [
        (f"hypercube-{d}-{part}", "coherent", lambda d=d: hypercube_graph(d), part)
        for d in (2, 4, 6)
        for part in ("dense", "quotient")
    ]
    + [
        (f"glued-random-{s}-{part}", "coherent", lambda s=s: glued_tree(4, "random-cycle", seed=s), part)
        for s in (1, 2)
        for part in ("dense", "quotient")
    ]
    + [(f"path-{m}-{part}", "coherent", lambda m=m: path_graph(m), part) for m in (8, 9) for part in ("dense", "quotient")]
)


@pytest.mark.parametrize(
    "kind, build, part", [c[1:] for c in UNPAIRED_CASES], ids=[c[0] for c in UNPAIRED_CASES]
)
def test_odd_sector_is_diagonalised_where_the_pairing_fails(kind, build, part, monkeypatch):
    # the classical walk has a diagonal; an even hypercube's mirror keeps the parity, and on its
    # entry cells fixes the middle layer; random glued trees and paths have no mirror at all
    _, op, entry = sector_operator(kind, build, part)
    k = int(cells_of(op, entry).max()) + 1
    sizes = count_eigh(monkeypatch)
    spectrum = spectrum_of(op, entry)
    assert spectrum.chirality is None
    w, v = spectrum.w, dense_v(op, entry)
    if cell_mirror(op, entry) is None:
        assert sizes == [k]
    else:
        assert len(sizes) == 2 and sum(sizes) == k
    w_ref, v_ref = scattered_spectrum(op, entry, derive=False)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)


def _node_of_parity(g: Graph, parity: int) -> int:
    return int(np.flatnonzero(g.parity == parity)[3])


@pytest.mark.parametrize(
    "state",
    [
        lambda g: entry_state(g),
        lambda g: np.eye(g.n_nodes)[_node_of_parity(g, 1)],
        lambda g: entry_state(g) - 0.5 * np.eye(g.n_nodes)[_node_of_parity(g, 0)],
        lambda g: entry_state(g) + np.eye(g.n_nodes)[_node_of_parity(g, 1)],
        lambda g: 1j * entry_state(g),
    ],
    ids=["entry", "odd-node", "even-pair", "mixed-parity", "complex"],
)
@pytest.mark.parametrize("build", [hexagonal_graph, lambda n: glued_tree(n, "identity")], ids=["hex", "glued"])
def test_site_curves_over_half_the_modes_match_both_sectors(state, build):
    # a real start of one parity runs on the even modes only; any other start on all of them
    g = build(3)
    op, reference = Hamiltonian(g, 0.8), BothSectors(Hamiltonian(g, 0.8))
    assert op.chirality is not None and reference.chirality is None
    zs = np.linspace(0.5, 9.0, 37)
    whole = propagate_dense(reference, state(g), zs)
    for site in (g.entry, g.exit, _node_of_parity(g, 0), _node_of_parity(g, 1)):
        curve = propagate(op, state(g), zs, site)
        assert curve.dtype == complex
        assert np.max(np.abs(curve - whole[:, site])) <= 1e-12


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("build", SECTOR_BUILDS, ids=SECTOR_IDS)
def test_entry_propagation_matches_the_dense_adjacency_spectrum(kind, build):
    # oracle: eigh of the whole N x N walk matrix, no quotient and no mirror
    g = build()
    op = OPERATORS[kind][0](g, 0.8)
    m = 0.8 * (g.adjacency - op.diagonal * np.diag(g.degrees.astype(float)))
    w, v = np.linalg.eigh(m)
    zs = np.linspace(0.0, 6.0, 25)
    oracle = (np.exp(op.phase * np.outer(zs, w)) * v[g.entry]) @ v.T
    assert np.max(np.abs(propagate(op, entry_state(g), zs) - oracle)) <= 1e-12
    for site in (g.exit, g.entry):
        assert np.max(np.abs(propagate(op, entry_state(g), zs, site) - oracle[:, site])) <= 1e-12


def _within(got: np.ndarray, expected: np.ndarray, scale: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - expected) <= 1e-14 * scale))


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("part", ["dense", "quotient"])
@pytest.mark.parametrize("build", SECTOR_BUILDS, ids=SECTOR_IDS)
def test_sector_products_match_the_dense_v_oracle(kind, part, build):
    # a one-hot operand reads one row or one column of V, so it matches bit for bit; any other
    # sums the same products in another order, to 1e-14 of the sum of their magnitudes.
    # project reads V at the nodes, expand at the cells
    _, op, entry = sector_operator(kind, build, part)
    spectrum, v, cell = spectrum_of(op, entry), dense_v(op, entry), cells_of(op, entry)
    nodes, n, k = v[cell], op.dim, len(v)
    for node, x in enumerate(np.eye(n)):
        assert np.array_equal(spectrum.project(x), nodes[node])
    eye = np.eye(k)
    for c in range(k):
        assert np.array_equal(spectrum.expand(eye[c]), v[:, c])
    assert np.array_equal(spectrum.expand(eye), v.T)
    rng = np.random.default_rng(k)
    starts = [rng.standard_normal(k)]
    if op.dtype is complex:
        starts.append(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    zs = np.linspace(0.0, 1.0, 11)
    sites = sorted({0, n // 2, n - 1})
    for y in starts:
        x0 = rng.standard_normal(n).astype(y.dtype) * y[cell]
        rows = rng.standard_normal((5, k)).astype(y.dtype) * y
        assert _within(spectrum.project(x0), nodes.T @ x0, np.abs(nodes).T @ np.abs(x0))
        assert _within(spectrum.expand(y), v @ y, np.abs(v) @ np.abs(y))
        assert _within(spectrum.expand(rows), rows @ v.T, np.abs(rows) @ np.abs(v).T)
    # whole propagations: |exp(phase w t)| <= 1, so |V| |V^T| |x0| bounds every sum.  A state
    # off the cells runs on the node spectrum, one constant on them on the entry cells'
    for y in [eye[k // 2], *starts]:
        x0 = y[cell] if entry else y + 1e-3 * rng.standard_normal(k)
        scale = np.abs(nodes) @ (np.abs(nodes).T @ np.abs(x0))
        assert _within(propagate(op, x0, 0.7), propagate_dense(op, x0, 0.7, entry), scale)
        grid = propagate_dense(op, x0, zs, entry)
        assert _within(propagate(op, x0, zs), grid, scale)
        for site in sites:
            assert _within(propagate(op, x0, zs, site), grid[:, site], scale[site])


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_a_quotient_spectrum_allocates_no_cell_by_cell_array(kind):
    # k = 990 cells, 495 in each sector: each block and its eigenvectors are k^2 / 4 floats.
    # The parent peaked at 1.5 and held 1.0 arrays of 8 k^2 bytes: V, beside both blocks
    op = OPERATORS[kind][0](hexagonal_graph(30), 1.0)
    k = int(op.graph.entry_cells.max()) + 1
    op.graph.degrees
    tracemalloc.start()
    try:
        op.entry_spectrum
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k == 990
    assert peak < 1.0 * 8 * k * k
    # the coherent walk keeps the even eigenvectors only, the classical both sectors'
    assert held < (0.3 if kind == "coherent" else 0.55) * 8 * k * k


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_a_mirror_that_splits_a_cell_leaves_the_quotient_whole(kind, monkeypatch):
    # a star with centre 0: the mirror swaps the entry leaf 1 and the exit leaf 2, but the
    # exit shares its entry cell {2, 3} with leaf 3, so the cells are not mapped onto cells
    coords, edges = [(0, 0), (-2, 0), (2, 0), (0, 2)], [(0, 1), (0, 2), (0, 3)]
    g = with_oracle_cells(Graph("path", coords, edges, 1, 2, mirror=[0, 2, 1, 3]))
    op = OPERATORS[kind][0](g, 0.8)
    sizes = count_eigh(monkeypatch)
    assert cell_mirror(op, entry=True) is None
    zs = np.linspace(0.0, 6.0, 25)
    grid = propagate(op, entry_state(g), zs)
    assert sizes == [3]
    assert not np.any(op.entry_spectrum.sign)  # every cell is fixed
    # the dense matrix keeps the mirror: nodes 0 and 3 are fixed, so the sectors have 3 and 1 rows
    assert np.max(np.abs(grid - propagate_dense(op, entry_state(g), zs))) <= 1e-12
    assert sizes == [3, 3, 1]


# ---------------------------------------------------------------------------
# cached stages
# ---------------------------------------------------------------------------

# Every lazy stage of a graph or a walk operator: the class that declares it,
# its name, and an instance to read it on.
CACHED_STAGES = [
    *((Graph, name, lambda: hexagonal_graph(2)) for name in (
        "coords", "adjacency", "degrees", "neighbours", "distances", "parity", "entry_cells"
    )),
    (WalkOperator, "spectrum", lambda: Hamiltonian(hexagonal_graph(2))),
    (WalkOperator, "chirality", lambda: Hamiltonian(hexagonal_graph(2))),
    (WalkOperator, "entry_spectrum", lambda: ClassicalGenerator(hexagonal_graph(2), 1.0)),
]


@pytest.mark.parametrize("owner, name, make", CACHED_STAGES, ids=[s[1] for s in CACHED_STAGES])
def test_a_cached_stage_is_one_read_only_property(owner, name, make):
    obj = make()
    first = getattr(obj, name)
    assert first is not None
    assert getattr(obj, name) is first
    parts = first if isinstance(first, tuple) else (first,)
    assert not any(p.flags.writeable for p in parts if isinstance(p, np.ndarray))
    with pytest.raises(AttributeError):
        setattr(obj, name, first)
    assert getattr(obj, name) is first
    # a property on its class, as the benchmark's tracer wraps it through fget
    assert isinstance(vars(owner)[name], property)


def test_a_wrapped_stage_getter_still_caches(monkeypatch):
    # the benchmark's tracer installs property(wrapper(fget)) in place of a stage
    reads, fget = [], Graph.adjacency.fget
    monkeypatch.setattr(Graph, "adjacency", property(lambda self: reads.append(self) or fget(self)))
    g = hexagonal_graph(2)
    a = g.adjacency
    assert isinstance(a, np.ndarray) and a.shape == (g.n_nodes, g.n_nodes)
    assert g.adjacency is a and len(reads) == 2


def test_a_none_parity_is_computed_once(monkeypatch):
    g = Graph("path", [(0, 0), (2, 0), (1, 2)], [(0, 1), (1, 2), (0, 2)], 0, 2)  # a triangle
    assert g.parity is None
    monkeypatch.setattr(Graph, "distances", property(lambda self: pytest.fail("distances read")))
    assert g.parity is None


@pytest.mark.parametrize("kind", sorted(OPERATORS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_start_that_is_not_finite_is_refused_before_any_spectrum(kind, bad, monkeypatch):
    g = hexagonal_graph(3)
    op = OPERATORS[kind][0](g, 1.0)
    sizes = count_eigh(monkeypatch)
    zs = np.linspace(0.0, 1.0, 3)
    one = entry_state(g)
    one[1] = bad
    for x0 in (np.full(g.n_nodes, bad), one):
        for args in ((1.0,), (zs,), (zs, g.exit)):
            with pytest.raises(ValueError, match="^state has entries that are not finite$"):
                propagate(op, x0, *args)
    assert sizes == []


def test_a_classical_start_with_an_imaginary_part_is_refused_before_any_spectrum(monkeypatch):
    # a cast to float would drop a nonzero imaginary part, so it is refused
    g = hexagonal_graph(3)
    op = ClassicalGenerator(g)
    sizes = count_eigh(monkeypatch)
    zs = np.linspace(0.0, 1.0, 3)
    calls = ((1.0,), (zs,), (zs, g.exit))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args in calls:
            with pytest.raises(ValueError, match="^state has a nonzero imaginary part, but the walk"):
                propagate(op, entry_state(g) + 1j, *args)
        assert sizes == []
        # an imaginary part that is zero throughout is read as the real part
        for args in calls:
            got = propagate(op, entry_state(g) + 0j, *args)
            assert got.dtype == float
            assert np.array_equal(got, propagate(op, entry_state(g), *args))
