"""Generated properties: both walks on small graphs nobody picked, against scipy and networkx.

Two kinds of graph are drawn.  Random graphs take their edge set directly,
with up to 20 nodes, connected or not, and a random entry and exit.
Doubled graphs are two copies of a random graph joined by rungs and
crossings that the swap of the copies maps onto each other, and a few
nodes that the swap fixes; the swap is their mirror and maps the entry
onto the exit.  When the copy is 2-coloured, every crossing joins nodes of
one colour and nothing is fixed, the swap flips the parity of every node,
so on a connected graph the coherent walk derives its odd sector.  So the
mirror sectors, fixed cells, a mirror that splits a cell and the chiral
pairing all occur (:func:`test_doubled_graphs_reach_every_sector_case`).

Every run draws the same examples and keeps none: a fixed
``max_examples``, ``derandomize=True`` and no example database.
"""

from __future__ import annotations

import os

import networkx as nx
import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.linalg import expm

from hexwalk.graphs import Graph
from hexwalk.hitting import ConvergenceError, classical_convergence_time
from hexwalk.quantum import Hamiltonian, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator, QswParams, density_from_state, evolve_qsw
from lindblad_oracle import lindblad_generator
from refinement_oracle import same_partition, unique_row_cells, with_oracle_cells

PROFILE = settings(max_examples=40, derandomize=True, database=None, deadline=None)

# At collection hypothesis caches the constants of the collected source in .hypothesis/
# under the working directory.  No folder can be made under os.devnull, so it keeps none.
set_hypothesis_home_dir(os.devnull)


def _graph(n: int, edges, entry: int, exit: int, mirror=None) -> Graph:
    """The graph, with the refinement oracle's entry partition declared as its cells."""
    plain = Graph("path", [(2 * v, 0) for v in range(n)], sorted(edges), entry, exit, mirror=mirror)
    return with_oracle_cells(plain)


@st.composite
def random_graphs(draw, max_nodes: int = 20) -> Graph:
    n = draw(st.integers(2, max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n))
    entry, exit = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return _graph(n, edges, entry, exit)


@st.composite
def doubled_graphs(draw, max_copy: int = 8) -> Graph:
    m = draw(st.integers(1, max_copy))
    coloured = draw(st.booleans())
    colour = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    inside = [(a, b) for a in range(m) for b in range(a + 1, m) if not coloured or colour[a] != colour[b]]
    across = [(a, b) for a in range(m) for b in range(a, m) if not coloured or colour[a] == colour[b]]
    own = draw(st.sets(st.sampled_from(inside), max_size=2 * m)) if inside else set()
    cross = draw(st.sets(st.sampled_from(across), max_size=m))
    fixed = 0 if coloured else draw(st.integers(0, 2))
    edges = {*own, *((a + m, b + m) for a, b in own)}
    edges |= {(a, b + m) for a, b in cross} | {(b, a + m) for a, b in cross}
    for z in range(2 * m, 2 * m + fixed):
        hubs = draw(st.sets(st.integers(0, m - 1), max_size=3))
        edges |= {(a, z) for a in hubs} | {(a + m, z) for a in hubs}
    entry = draw(st.integers(0, m - 1))
    mirror = [*range(m, 2 * m), *range(m), *range(2 * m, 2 * m + fixed)]
    return _graph(2 * m + fixed, edges, entry, entry + m, mirror)


GRAPHS = {"random": random_graphs(), "doubled": doubled_graphs()}

# (operator, the walk's scale * (A - diagonal * D) as a dense matrix)
WALKS = {
    "coherent": (Hamiltonian, lambda g: g.adjacency),
    "classical": (ClassicalGenerator, lambda g: g.adjacency - np.diag(g.degrees.astype(float))),
}


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("kind", sorted(WALKS))
@PROFILE
@given(data=st.data())
def test_propagate_matches_expm_on_both_routes(kind, family, data):
    # the entry state runs on the entry cells, a random real state on the nodes; every
    # entry of exp(phase M t) x0 is at most |x0|_1 in size, for both walks
    g = data.draw(GRAPHS[family])
    make, matrix = WALKS[kind]
    rate = data.draw(st.sampled_from([0.5, 1.0, 1.7]))
    op = make(g, rate)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ts = np.linspace(0.0, data.draw(st.sampled_from([0.3, 1.0, 2.5])), 6)
    site = int(rng.integers(g.n_nodes))
    m = rate * matrix(g)
    for x0 in (entry_state(g), rng.standard_normal(g.n_nodes)):
        expected = np.array([expm(op.phase * t * m) @ x0 for t in ts])
        bound = 1e-12 * np.abs(x0).sum()
        assert np.max(np.abs(propagate(op, x0, ts[-1]) - expected[-1])) <= bound
        assert np.max(np.abs(propagate(op, x0, ts) - expected)) <= bound
        assert np.max(np.abs(propagate(op, x0, ts, site) - expected[:, site])) <= bound


@pytest.mark.parametrize("family", sorted(GRAPHS))
@PROFILE
@given(data=st.data())
def test_convergence_fails_exactly_on_disconnected_graphs(family, data):
    g = data.draw(GRAPHS[family])
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n_nodes))
    reference.add_edges_from(g.edges.tolist())
    if nx.is_connected(reference):
        result = classical_convergence_time(ClassicalGenerator(g))
        assert 0.0 < result.t_low <= result.t_converge <= result.t_high
    else:
        with pytest.raises(ConvergenceError, match="disconnected"):
            classical_convergence_time(ClassicalGenerator(g))


@pytest.mark.parametrize("family", sorted(GRAPHS))
@PROFILE
@given(data=st.data())
def test_settling_deviation_never_increases(family, data):
    # exp(K s) is doubly stochastic, so each entry of p(t + s) - 1/N is a convex combination
    # of those of p(t) - 1/N, connected or not.  A connected graph's gap is above 4 / N^2
    # (Mohar, Graphs Combin. 7, 53, 1991), so the grid to 5 N^2 runs past settling
    g = data.draw(GRAPHS[family])
    ts = np.linspace(0.0, 5.0 * g.n_nodes**2, 1001)
    p = propagate(ClassicalGenerator(g), entry_state(g), ts)
    deviation = np.max(np.abs(p - 1.0 / g.n_nodes), axis=1)
    assert np.max(np.diff(deviation)) <= 1e-15


@pytest.mark.parametrize("family", sorted(GRAPHS))
@PROFILE
@given(data=st.data())
def test_declared_cells_are_accepted_and_a_merge_of_unlike_cells_is_refused(family, data):
    # the oracle's partition runs the entry state on its k cells, as expm does on the nodes;
    # two of its cells whose nodes count their neighbours in the cells differently merge
    # into a partition the graph refuses on first read
    g = data.draw(GRAPHS[family])
    cell = g.entry_cells
    k = int(cell.max()) + 1
    assert same_partition(cell, unique_row_cells(g))
    t = data.draw(st.sampled_from([0.4, 1.3]))
    for make, matrix in WALKS.values():
        op = make(g)
        assert len(op.entry_spectrum.w) == k
        expected = expm(op.phase * t * matrix(g)) @ entry_state(g)
        assert np.max(np.abs(propagate(op, entry_state(g), t) - expected)) <= 1e-12
    counts = g.adjacency @ (cell[:, None] == np.arange(k))
    rows = counts[np.unique(cell, return_index=True)[1]]  # one node of each cell
    unlike = [(a, b) for a in range(k) for b in range(a + 1, k) if np.any(rows[a] != rows[b])]
    if unlike:
        a, b = data.draw(st.sampled_from(unlike))
        merged = np.where(cell == b, a, cell)
        bad = Graph(g.family, g.coord_array, g.edges, g.entry, g.exit, mirror=g.mirror, cells=merged)
        refusal = "^the entry .* shares its cell" if cell[g.entry] in (a, b) else "^cells are not equitable"
        with pytest.raises(ValueError, match=refusal):
            bad.entry_cells


# the density-matrix walk on graphs of at most 10 nodes: its oracle is an N^2 x N^2 expm
QSW_GRAPHS = {"random": random_graphs(max_nodes=10), "doubled": doubled_graphs(max_copy=4)}


@pytest.mark.parametrize("family", sorted(QSW_GRAPHS))
@PROFILE
@given(data=st.data())
def test_qsw_is_a_density_matrix_between_the_two_walks(family, data):
    g = data.draw(QSW_GRAPHS[family])
    n = g.n_nodes
    omega = data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rate = data.draw(st.floats(0.25, 2.0))
    t = data.draw(st.floats(0.0, 4.0))
    h, params = Hamiltonian(g), QswParams(omega=omega, rate=rate)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi0 /= np.linalg.norm(psi0)
    p0 = rng.random(n)
    p0 /= p0.sum()
    flow = expm(t * lindblad_generator(h, params))
    rhos = []
    for rho0 in (density_from_state(psi0), np.diag(p0).astype(complex)):
        rho = evolve_qsw(rho0, h, params, t)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.array_equal(rho, rho.conj().T)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12
        assert np.max(np.abs(rho - (flow @ rho0.ravel()).reshape(n, n))) <= 1e-12
        rhos.append(rho)
    pure, diagonal = rhos
    if omega == 0.0:
        psi = propagate(h, psi0, t)
        assert np.max(np.abs(pure - np.outer(psi, psi.conj()))) <= 1e-12
    if omega == 1.0:
        p = propagate(ClassicalGenerator(g, rate), p0, t)
        assert np.max(np.abs(np.diag(diagonal) - p)) <= 1e-12
        assert not np.any(diagonal - np.diag(np.diag(diagonal)))


def _splits_a_cell(g: Graph) -> bool:
    cell = g.entry_cells
    r = np.zeros(cell.max() + 1, dtype=int)
    r[cell] = cell[g.mirror]
    return not np.array_equal(r[cell], cell[g.mirror])


@pytest.mark.parametrize(
    "case",
    [
        lambda g: Hamiltonian(g).chirality is not None and not _splits_a_cell(g),
        lambda g: np.any(g.mirror == np.arange(g.n_nodes)) and not _splits_a_cell(g),
        lambda g: _splits_a_cell(g),
        lambda g: ClassicalGenerator(g).entry_spectrum.sign.any(),
    ],
    ids=["chiral", "fixed-cells", "split-cell", "classical-sectors"],
)
def test_doubled_graphs_reach_every_sector_case(case):
    # the first example found will do: no shrinking
    find(doubled_graphs(), case, settings=settings(PROFILE, max_examples=100, phases=[Phase.generate]))
