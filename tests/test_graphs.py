"""Tests for the graph builders and the Graph container."""

from __future__ import annotations

import re
import time
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from hexwalk import graphs
from hexwalk.graphs import (
    Graph,
    depth_scale,
    glued_tree,
    hexagonal_graph,
    hypercube_graph,
    parse_graph_selector,
    path_graph,
)
from hexwalk.hitting import (
    BoundaryMaximumWarning,
    ConvergenceError,
    classical_convergence_time,
    classical_hitting_curve,
    depth_sweep,
    quantum_hitting_curve,
)
from hexwalk.quantum import Hamiltonian, WalkOperator, entry_state, propagate
from hexwalk.stochastic import ClassicalGenerator
import graph_oracle
from spectrum_oracle import dense_v
from refinement_oracle import queue_distances, same_partition, unique_row_cells, unseeded_cells


def bfs_layers(g: Graph, start: int) -> dict[int, int]:
    """Independent breadth-first distance oracle used by several checks."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nb in np.flatnonzero(g.adjacency[node]).tolist():
            if nb not in dist:
                dist[nb] = dist[node] + 1
                queue.append(nb)
    return dist


# ---------------------------------------------------------------------------
# hexagonal diamonds
# ---------------------------------------------------------------------------


def test_hexagonal_node_and_edge_counts_follow_closed_forms():
    for n in range(1, 13):
        g = hexagonal_graph(n)
        assert g.n_nodes == 2 * n * n + 4 * n
        assert g.n_edges == 3 * n * n + 4 * n - 1


def test_hexagonal_known_sizes():
    assert hexagonal_graph(1).n_nodes == 6
    assert hexagonal_graph(2).n_nodes == 16
    assert hexagonal_graph(3).n_nodes == 30
    assert hexagonal_graph(8).n_nodes == 160


def test_hexagonal_euler_relation():
    # V - E + F = 2 for a planar embedding whose bounded faces are the n^2
    # hexagons, so E = V + n^2 - 1.
    for n in range(1, 9):
        g = hexagonal_graph(n)
        assert g.n_edges == g.n_nodes + n * n - 1


def test_hexagonal_degrees_bounded_by_three():
    for n in (1, 2, 5):
        g = hexagonal_graph(n)
        assert g.degrees.max() == (2 if n == 1 else 3)
        assert g.degrees.min() == 2
        assert g.degrees[g.entry] == 2
        assert g.degrees[g.exit] == 2


def test_hexagonal_entry_exit_are_extreme_columns():
    for n in (1, 2, 4):
        g = hexagonal_graph(n)
        xs = [x for x, _ in g.coords]
        assert g.coords[g.entry][0] == min(xs)
        assert g.coords[g.exit][0] == max(xs)
        assert xs.count(min(xs)) == 1
        assert xs.count(max(xs)) == 1
        assert g.entry == 0
        assert g.exit == g.n_nodes - 1


def test_hexagonal_ids_sorted_by_coordinates():
    g = hexagonal_graph(3)
    assert list(g.coords) == sorted(g.coords)


def test_hexagonal_is_connected_and_bipartite():
    for n in (1, 2, 4):
        g = hexagonal_graph(n)
        dist = bfs_layers(g, g.entry)
        assert len(dist) == g.n_nodes
        for a, b in g.edges:
            assert (dist[a] + dist[b]) % 2 == 1


def test_hexagonal_mirror_symmetry():
    # Reflecting X about the diamond midline maps the node set onto itself
    # and preserves adjacency; the graph carries that reflection as its mirror.
    for n in range(1, 7):
        g = hexagonal_graph(n)
        span = 6 * (n - 1)
        index = {xy: i for i, xy in enumerate(g.coords)}
        perm = {}
        for i, (x, y) in enumerate(g.coords):
            mirrored = (span - x, y)
            assert mirrored in index
            perm[i] = index[mirrored]
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
        assert mapped == set(map(tuple, g.edges.tolist()))
        assert perm[g.entry] == g.exit
        assert g.mirror.tolist() == [perm[i] for i in range(g.n_nodes)]
        assert not g.mirror.flags.writeable


def test_hexagonal_rejects_bad_depth():
    with pytest.raises(ValueError):
        hexagonal_graph(0)
    with pytest.raises(ValueError):
        hexagonal_graph(-2)


# ---------------------------------------------------------------------------
# glued trees
# ---------------------------------------------------------------------------


def test_glued_tree_counts():
    # Two depth-d binary trees: 2(2^{d+1} - 1) nodes.
    for d in (1, 2, 3, 4):
        g = glued_tree(d, gluing="identity")
        assert g.n_nodes == 2 * (2 ** (d + 1) - 1)
    assert glued_tree(4, gluing="identity").n_nodes == 62


def test_glued_tree_identity_small():
    g = glued_tree(1, gluing="identity")
    assert g.n_nodes == 6
    assert g.n_edges == 6
    assert g.degrees[g.entry] == 2
    assert g.degrees[g.exit] == 2


def test_glued_tree_leaf_degrees_by_mode():
    d = 3
    leaves_per_side = 2**d
    ident = glued_tree(d, gluing="identity")
    cyc = glued_tree(d, gluing="random", seed=3)
    # identity gluing: each leaf keeps its tree edge plus one matching edge
    ident_leaf_degs = sorted(ident.degrees)[: 2 * leaves_per_side]
    assert all(deg == 2 for deg in ident_leaf_degs)
    # random cycle: every leaf picks up two cycle edges
    assert cyc.degrees.min() == 2  # the two roots
    assert sorted(cyc.degrees).count(2) == 2
    assert cyc.n_edges == ident.n_edges + leaves_per_side


def test_glued_tree_entry_exit_distance():
    d = 3
    g = glued_tree(d, gluing="identity")
    dist = bfs_layers(g, g.entry)
    assert dist[g.exit] == 2 * d + 1
    assert len(dist) == g.n_nodes


def test_glued_tree_random_cycle_is_seed_deterministic():
    a = glued_tree(3, gluing="random", seed=7)
    b = glued_tree(3, gluing="random", seed=7)
    c = glued_tree(3, gluing="random", seed=8)
    assert np.array_equal(a.edges, b.edges)
    assert a.coords == b.coords
    assert not np.array_equal(c.edges, a.edges)


def test_glued_tree_reads_its_seed_as_an_integer():
    # a numpy integer seeds the same cycle as the int it holds; a bool, float or str is refused
    g, ref = glued_tree(3, seed=np.int64(3)), glued_tree(3, seed=3)
    assert repr(g.params) == repr(ref.params)
    assert np.array_equal(g.edges, ref.edges)
    for bad in (True, np.True_, 3.0, 2.5, "x"):
        with pytest.raises(ValueError, match=f"^seed {re.escape(repr(bad))} is not an integer$"):
            glued_tree(3, seed=bad)


def test_glued_tree_random_cycle_alternates_sides():
    g = glued_tree(2, gluing="random", seed=0)
    dist = bfs_layers(g, g.entry)
    left_leaves = {i for i, d_ in dist.items() if d_ == 2 and g.coords[i][0] == 2}
    # each left leaf must connect to exactly two right leaves
    for leaf in left_leaves:
        right = [nb for nb in np.flatnonzero(g.adjacency[leaf]) if g.coords[nb][0] == 3]
        assert len(right) == 2


def test_glued_tree_rejects_bad_arguments():
    with pytest.raises(ValueError):
        glued_tree(0)
    for gluing in ("staircase", "random-cycle"):
        with pytest.raises(ValueError, match=f"^glue must be 'identity' or 'random', got '{gluing}'$"):
            glued_tree(2, gluing=gluing)


# ---------------------------------------------------------------------------
# hypercubes and paths
# ---------------------------------------------------------------------------


def test_hypercube_counts():
    for d in (1, 2, 3, 5):
        g = hypercube_graph(d)
        assert g.n_nodes == 2**d
        assert g.n_edges == d * 2 ** (d - 1)
        assert np.all(g.degrees == d)


def test_hypercube_entry_exit_are_antipodal():
    g = hypercube_graph(3)
    assert g.entry == 0
    assert g.exit == 7
    dist = bfs_layers(g, g.entry)
    assert dist[g.exit] == 3


def test_hypercube_edges_are_single_bit_flips():
    g = hypercube_graph(4)
    for a, b in g.edges:
        assert bin(a ^ b).count("1") == 1


def test_hypercube_build_frees_its_bit_table_before_the_graph_checks():
    # the (E, 2) edge array is 8 MiB at d = 16; the build peaks while Graph
    # copies and sorts it, and by then the (N, d) bit table and the E-long
    # pairs drawn from it are gone (42.5 MiB with them, 33.5 MiB without)
    tracemalloc.start()
    try:
        g = hypercube_graph(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.75 * g.edges.nbytes


def test_path_graph_layout():
    g = path_graph(5)
    assert g.n_nodes == 5
    assert g.n_edges == 4
    assert g.entry == 2
    assert g.exit == 4
    assert g.coords == ((0, 0), (2, 0), (4, 0), (6, 0), (8, 0))


def test_path_graph_entry_site():
    assert path_graph(3).entry == 1
    assert path_graph(101).entry == 50
    assert path_graph(2).entry == 0


def test_path_graph_rejects_short_chains():
    with pytest.raises(ValueError):
        path_graph(1)


@pytest.mark.parametrize("build", [hexagonal_graph, glued_tree, hypercube_graph, path_graph])
def test_builders_read_sizes_as_graph_does(build):
    # a numpy integer is the int it holds; a bool or a float is refused
    g, ref = build(np.int64(3)), build(3)
    assert repr(g.params) == repr(ref.params)
    assert np.array_equal(g.edges, ref.edges)
    for bad in (True, np.True_, 3.0, 2.5):
        with pytest.raises(ValueError, match="is not an integer$"):
            build(bad)


def test_a_bool_is_refused_wherever_an_integer_is_read():
    # every integer the package reads refuses a bool, as the builders' sizes do
    with pytest.raises(ValueError, match="^depth True is not an integer$"):
        depth_sweep([True, 2, 3])
    g = path_graph(3)
    with pytest.raises(ValueError, match="^site True is not an integer$"):
        propagate(Hamiltonian(g), entry_state(g), np.linspace(0.0, 1.0, 3), True)
    line = [(0, 0), (2, 0)]
    for coords, edges, entry, message in (
        (line, [(0, True)], False, "node id True"),
        (line, [(0, 1)], False, "entry node False"),
        ([(0, 0), (True, 0)], [(0, 1)], 0, "coordinate True"),
    ):
        with pytest.raises(ValueError, match=f"^{message} is not an integer$"):
            Graph("path", coords, edges, entry, 1)


# ---------------------------------------------------------------------------
# Graph container validation
# ---------------------------------------------------------------------------


def test_graph_rejects_duplicate_coordinates():
    with pytest.raises(ValueError):
        Graph("path", [(0, 0), (0, 0)], [(0, 1)], entry=0, exit=1)


def test_graph_rejects_self_loops_and_duplicate_edges():
    coords = [(0, 0), (2, 0), (4, 0)]
    with pytest.raises(ValueError):
        Graph("path", coords, [(0, 0)], entry=0, exit=2)
    with pytest.raises(ValueError):
        Graph("path", coords, [(0, 1), (1, 0), (1, 2)], entry=0, exit=2)


def test_graph_rejects_bad_node_references():
    coords = [(0, 0), (2, 0)]
    with pytest.raises(ValueError):
        Graph("path", coords, [(0, 5)], entry=0, exit=1)
    with pytest.raises(ValueError):
        Graph("path", coords, [(0, 1)], entry=0, exit=0)


@pytest.mark.parametrize(
    "coords, edges, entry, exit, message",
    [
        ([(0, 0), (2, 0), (4, 0)], [(0, 1.5), (1, 2)], 0, 2, "node id 1.5"),
        ([(0, 0), (2.7, 0), (4, 0)], [(0, 1), (1, 2)], 0, 2, "coordinate 2.7"),
        ([(0, 0), (2, 0), (4, 0)], [(0, 1), (1, 2)], 0.5, 2, "entry node 0.5"),
        ([(0, 0), (2, 0), (4, 0)], [(0, 1), (1, 2)], 0, 2.0, "exit node 2.0"),
    ],
    ids=["node-id", "coordinate", "entry", "exit"],
)
def test_graph_refuses_non_integral_input(coords, edges, entry, exit, message):
    # int() would truncate each of these to a valid graph
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        Graph("path", coords, edges, entry, exit, params={"m": 3})


def test_graph_takes_numpy_integers_as_plain_ints():
    ids = np.arange(3)
    g = Graph("path", np.array([(0, 0), (2, 0), (4, 0)]), [(ids[0], ids[1]), (1, 2)], ids[0], ids[2])
    assert g.coords == ((0, 0), (2, 0), (4, 0))
    assert all(type(x) is int for xy in g.coords for x in xy)
    assert (type(g.entry), type(g.exit)) == (int, int)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_builders_declare_the_mirror_that_swaps_entry_and_exit():
    for d in range(1, 7):
        assert hypercube_graph(d).mirror.tolist() == [2**d - 1 - v for v in range(2**d)]
    for d in range(1, 5):
        g = glued_tree(d, gluing="identity")
        # left tree at X = level, right tree at X = 2d + 1 - level, same Y
        index = {xy: i for i, xy in enumerate(g.coords)}
        assert g.mirror.tolist() == [index[(2 * d + 1 - x, y)] for x, y in g.coords]
    for g in (path_graph(9), glued_tree(3, seed=4), Graph("path", [(0, 0), (2, 0)], [(0, 1)], 0, 1)):
        assert g.mirror is None


def test_graph_keeps_its_own_copy_of_the_mirror():
    tau = np.array([1, 0])
    g = Graph("path", [(0, 0), (2, 0)], [(0, 1)], 0, 1, mirror=tau)
    tau[:] = 0
    assert g.mirror.tolist() == [1, 0]


# One hexagon: nodes 0 (-2, 0), 1 (-1, -1), 2 (-1, 1), 3 (1, -1), 4 (1, 1), 5 (2, 0)
# and the six sides 0-1, 0-2, 1-3, 2-4, 3-5, 4-5; its mirror is [5, 3, 4, 1, 2, 0].
@pytest.mark.parametrize(
    "mirror, message",
    [
        ([5, 3, 4, 1, 2], r"mirror has shape \(5,\), expected \(6,\)"),
        ([5, 3, 3, 1, 2, 0], r"mirror is not a permutation of the nodes 0\.\.5"),
        ([5, 3, 4, 2, 1, 0], r"mirror is not an involution: it maps 1 to 3 and 3 to 2"),
        ([5, 1, 2, 3, 4, 0], r"mirror maps edge \(0, 1\) onto \(1, 5\), which is not an edge"),
        ([0, 2, 1, 4, 3, 5], r"mirror maps the entry 0 to 0, not to the exit 5"),
        ([5, 3, 4, 1, 2.5, 0], r"mirror entry 2\.5 is not an integer"),
        ([5.0, 3, 4, 1, 2, 0], r"mirror entry 5\.0 is not an integer"),
        ([5, 3, 4, 1, 2**70, 0], r"mirror entry 1180591620717411303424 is outside the int64 range"),
        ([5, 3, 4, 1, -(2**63) - 1, 0], r"mirror entry -9223372036854775809 is outside the int64 range"),
        ([5, 3, 4, 1, 2, False], r"mirror entry False is not an integer"),
        (
            np.array([[5, 3, 4], [1, 2, 0]], dtype=object),
            r"mirror entry array\(\[5, 3, 4\], dtype=object\) is not an integer",
        ),
        (np.array([[5, 3, 4], [1, 2, 0]]), r"mirror has shape \(2, 3\), expected \(6,\)"),
    ],
    ids=[
        "length", "permutation", "involution", "edge", "entry", "fraction", "float", "wide",
        "wide-low", "bool", "object-rows", "integer-rows",
    ],
)
def test_graph_refuses_a_mirror_that_does_not_swap_entry_and_exit(mirror, message):
    one = hexagonal_graph(1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Graph("hexagonal", one.coords, one.edges, one.entry, one.exit, mirror=mirror)
    fine = Graph("hexagonal", one.coords, one.edges, one.entry, one.exit, mirror=one.mirror)
    assert fine.mirror.tolist() == [5, 3, 4, 1, 2, 0]


def test_graph_rejects_unknown_family():
    with pytest.raises(ValueError):
        Graph("moebius", [(0, 0), (1, 0)], [(0, 1)], entry=0, exit=1)


# ---------------------------------------------------------------------------
# family table and selectors
# ---------------------------------------------------------------------------

# One selector per family; a family added to the table without one fails here.
SELECTOR_EXAMPLES = {
    "hexagonal": "hexagonal:n=2",
    "glued-tree": "glued-tree:d=3,glue=identity",
    "hypercube": "hypercube:d=3",
    "path": "path:m=9",
}

BUILDERS = ("hexagonal_graph", "glued_tree", "hypercube_graph", "path_graph")


@pytest.mark.parametrize("family", graphs.FAMILIES)
def test_every_family_selector_builds_through_the_module_name_and_scales(family, monkeypatch):
    calls = []
    for name in BUILDERS:
        real = getattr(graphs, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(graphs, name, spy)
    g = parse_graph_selector(SELECTOR_EXAMPLES[family])
    assert g.family == family
    assert len(calls) == 1
    assert depth_scale(g) > 0


def test_unknown_family_error_lists_every_family():
    with pytest.raises(ValueError, match="unknown graph family 'pentagon'") as err:
        parse_graph_selector("pentagon:n=2")
    for family in graphs.FAMILIES:
        assert family in str(err.value)


def test_glued_tree_selector_defaults_and_seed_fallback():
    g = parse_graph_selector("glued-tree:d=3", default_seed=5)
    assert g.params == {"depth": 3, "gluing": "random", "seed": 5}
    assert parse_graph_selector("glued-tree:d=3,seed=2", default_seed=5).params["seed"] == 2


def test_adjacency_matches_edge_list_and_is_frozen():
    g = hexagonal_graph(2)
    adj = g.adjacency
    assert adj.shape == (16, 16)
    assert np.array_equal(adj, adj.T)
    assert adj.sum() == 2 * g.n_edges
    for a, b in g.edges:
        assert adj[a, b] == 1.0
    with pytest.raises(ValueError):
        adj[0, 0] = 5.0
    assert np.array_equal(g.degrees, adj.sum(axis=0))


@pytest.mark.parametrize(
    "graph",
    [
        hexagonal_graph(3),
        glued_tree(3, gluing="random", seed=2),
        glued_tree(2, gluing="identity"),
        hypercube_graph(4),
        path_graph(7),
        Graph("path", [(0, 0), (2, 0), (4, 0)], [(2, 1), (1, 0)], 0, 2),
        Graph("path", [(0, 0), (2, 0)], [], 0, 1),
    ],
    ids=["hex3", "glued-cycle", "glued-id", "cube4", "path7", "hand-built", "edgeless"],
)
def test_adjacency_and_degrees_match_a_per_edge_loop(graph):
    n = graph.n_nodes
    adj = np.zeros((n, n))
    deg = np.zeros(n, dtype=np.int64)
    for a, b in graph.edges.tolist():
        adj[a, b] = adj[b, a] = 1.0
        deg[a] += 1
        deg[b] += 1
    assert np.array_equal(graph.adjacency, adj)
    assert graph.degrees.dtype == np.int64
    assert np.array_equal(graph.degrees, deg)
    # the edges are stored once: sorted (a, b) rows with a < b, read-only
    edges = graph.edges
    assert edges.dtype == np.int64 and edges.shape == (graph.n_edges, 2)
    assert not edges.flags.writeable
    assert np.all(edges[:, 0] < edges[:, 1])
    assert edges.tolist() == sorted(edges.tolist())


def test_classical_quotient_of_every_family_has_one_zero_mode():
    # the spectrum on the entry cells has one zero mode exactly when the graph is connected
    for g in (
        hexagonal_graph(3),
        glued_tree(2, gluing="identity"),
        glued_tree(3, seed=5),
        hypercube_graph(4),
        path_graph(6),
    ):
        assert len(bfs_layers(g, 0)) == g.n_nodes
        op = ClassicalGenerator(g)
        w = op.entry_spectrum.w
        zero = w >= -1e-12 * np.max(np.abs(w))
        assert np.count_nonzero(zero) == 1
        # its eigenvector, read at the nodes, is uniform: 1/sqrt(N) up to its sign
        node = dense_v(op, entry=True)[g.entry_cells, np.argmax(zero)]
        assert np.max(np.abs(np.sign(node[0]) * node - g.n_nodes**-0.5)) <= 1e-12
    two_parts = Graph("path", [(0, 0), (2, 0), (4, 0), (6, 0)], [(0, 1), (2, 3)], 0, 3)
    with pytest.raises(ConvergenceError, match="disconnected"):
        classical_convergence_time(ClassicalGenerator(two_parts))


# ---------------------------------------------------------------------------
# entry partition
# ---------------------------------------------------------------------------

# Every family at the sizes the quotient is checked on, with the cell count
# that proves the partition coarsest where a closed form is known: a
# hexagonal patch folds only about its horizontal axis, glued trees and
# hypercubes down to their distance layers from the entry, and a path of
# odd length onto its mirror pairs.
PARTITION_CASES = (
    [(f"hexagonal-{n}", lambda n=n: hexagonal_graph(n), n * n + 3 * n) for n in range(1, 7)]
    + [(f"glued-random-{d}", lambda d=d: glued_tree(d, seed=d), 2 * d + 2) for d in range(1, 6)]
    + [(f"glued-identity-{d}", lambda d=d: glued_tree(d, "identity"), None) for d in range(1, 6)]
    + [(f"hypercube-{d}", lambda d=d: hypercube_graph(d), d + 1) for d in range(1, 7)]
    + [(f"path-{m}", lambda m=m: path_graph(m), (m + 1) // 2 if m % 2 else None) for m in (2, 3, 8, 9, 21)]
)


@pytest.mark.parametrize("build, cells", [c[1:] for c in PARTITION_CASES], ids=[c[0] for c in PARTITION_CASES])
def test_entry_partition_is_equitable_with_the_entry_alone(build, cells):
    g = build()
    cell = g.entry_cells
    k = int(cell.max()) + 1
    assert sorted(set(cell.tolist())) == list(range(k))
    assert np.count_nonzero(cell == cell[g.entry]) == 1
    # equitable: all nodes of a cell have the same neighbour count in every cell
    counts = g.adjacency @ (cell[:, None] == np.arange(k)[None, :])
    for c in range(k):
        assert np.all(counts[cell == c] == counts[cell == c][0])
    if cells is not None:
        assert k == cells
    with pytest.raises(ValueError):
        cell[0] = 5


# The partition cases, three graphs of the benchmark's size and a long path,
# whose layers the unseeded refinement found one round at a time, and two
# disconnected graphs built by hand, which declare no cells.
BUILT_CASES = [c[:2] for c in PARTITION_CASES] + [
    (name, lambda spec=spec: parse_graph_selector(spec))
    for name, spec in (
        ("hexagonal-24", "hexagonal:n=24"),
        ("glued-random-9", "glued-tree:d=9,seed=1"),
        ("hypercube-9", "hypercube:d=9"),
        ("path-1001", "path:m=1001"),
    )
]
HAND_BUILT_CASES = [
    ("two-parts", lambda: Graph("path", [(0, 0), (2, 0), (4, 0), (6, 0)], [(0, 1), (2, 3)], 0, 3)),
    ("edgeless", lambda: Graph("path", [(0, 0), (2, 0)], [], 0, 1)),
]
REFINEMENT_CASES = BUILT_CASES + HAND_BUILT_CASES
REFINEMENT_IDS = [name for name, _ in REFINEMENT_CASES]
REFINEMENT_BUILDS = [build for _, build in REFINEMENT_CASES]


@pytest.mark.parametrize("build", [b for _, b in BUILT_CASES], ids=[name for name, _ in BUILT_CASES])
def test_entry_cells_equal_the_whole_row_refinement(build):
    # the declared cells group the nodes as the oracle's refinement does, whatever their ids
    g = build()
    assert same_partition(g.entry_cells, unique_row_cells(g))


# Every builder at the sizes its declaration is held to the oracle at.
DECLARED_SIZES = {
    "hexagonal": lambda: (hexagonal_graph(n) for n in range(1, 41)),
    "glued-tree": lambda: (
        glued_tree(d, gluing, seed)
        for d in range(1, 10)
        for gluing, seeds in (("identity", [0]), ("random", range(5)))
        for seed in seeds
    ),
    "hypercube": lambda: (hypercube_graph(d) for d in range(1, 13)),
    "path": lambda: (path_graph(m) for m in range(2, 201)),
}


@pytest.mark.parametrize("family", sorted(DECLARED_SIZES))
def test_every_declared_partition_is_the_coarsest(family):
    for g in DECLARED_SIZES[family]():
        assert same_partition(g.entry_cells, unique_row_cells(g)), g


@pytest.mark.parametrize("build", REFINEMENT_BUILDS, ids=REFINEMENT_IDS)
def test_distance_seed_gives_the_unseeded_partition(build):
    # every equitable partition with the entry alone refines the distance layers
    g = build()
    assert same_partition(unique_row_cells(g), unseeded_cells(g))


@pytest.mark.parametrize("build", REFINEMENT_BUILDS, ids=REFINEMENT_IDS)
def test_distances_and_parity_match_networkx(build):
    nx = pytest.importorskip("networkx")
    g = build()
    h = nx.Graph()
    h.add_nodes_from(range(g.n_nodes))
    h.add_edges_from(g.edges.tolist())
    reached = nx.single_source_shortest_path_length(h, g.entry)
    expected = [reached.get(v, -1) for v in range(g.n_nodes)]
    assert g.distances.dtype == np.int64 and g.distances.tolist() == expected
    assert np.array_equal(g.distances, queue_distances(g))
    bipartite = nx.is_connected(h) and nx.is_bipartite(h)
    assert (g.parity is not None) == bipartite
    if bipartite:
        assert np.array_equal(g.parity, g.distances % 2)
        assert not g.parity.flags.writeable
    assert not g.distances.flags.writeable
    table = g.neighbours
    assert not table.flags.writeable and table.shape == (g.n_nodes, g.degrees.max())
    for v in range(g.n_nodes):
        row = table[v].tolist()
        assert sorted(row) == sorted(h[v]) + [g.n_nodes] * (len(row) - len(h[v]))


def test_building_a_graph_and_its_walk_runs_no_search(monkeypatch):
    # the density-matrix walk builds both and needs neither distances nor cells
    monkeypatch.setattr(Graph, "distances", property(lambda self: pytest.fail("distances")))
    monkeypatch.setattr(Graph, "neighbours", property(lambda self: pytest.fail("neighbours")))
    g = hexagonal_graph(3)
    h = Hamiltonian(g)
    assert len(h.pairs[0]) == g.n_nodes + 2 * g.n_edges


def test_a_long_path_checks_its_declared_cells_at_once():
    # an odd path declares its distances from the entry: 50001 cells, checked in well under a second
    g = path_graph(100001)
    start = time.perf_counter()
    cells = g.entry_cells
    assert time.perf_counter() - start < 5.0
    assert cells.max() + 1 == 50001
    assert np.array_equal(cells, g.distances)


_HAND_HEXAGON = hexagonal_graph(3)


def _by_hand(cells=None) -> Graph:
    """A depth-3 patch built by hand from the builder's arrays, with the given cells."""
    g = _HAND_HEXAGON
    return Graph("hexagonal", g.coord_array, g.edges, g.entry, g.exit, mirror=g.mirror, cells=cells)


@pytest.mark.parametrize(
    "build",
    [b for _, b in HAND_BUILT_CASES] + [_by_hand],
    ids=[name for name, _ in HAND_BUILT_CASES] + ["hexagonal-3"],
)
def test_a_graph_without_cells_takes_the_node_route(build, monkeypatch):
    # every node is its own cell, so the entry spectrum is the node spectrum: a scan and a
    # state constant on no coarser cells share its eigh, one per sector the walk diagonalises
    g = build()
    assert np.array_equal(g.entry_cells, np.arange(g.n_nodes))
    assert not g.entry_cells.flags.writeable
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
    x0 = np.sin(np.arange(g.n_nodes))
    for op, scan in ((Hamiltonian(g), quantum_hitting_curve), (ClassicalGenerator(g), classical_hitting_curve)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryMaximumWarning)
            scan(op, 6.0, 0.1)
        propagate(op, x0, 1.0)
        assert op.entry_spectrum is op.spectrum
    # the patch's coherent walk derives its odd sector; its classical walk takes both
    assert sizes == ([g.n_nodes] * 2 if g.mirror is None else [g.n_nodes // 2] * 3)


def test_a_hand_built_graph_with_the_oracles_cells_runs_on_them(monkeypatch):
    plain = _by_hand()
    cells = unique_row_cells(plain)
    g = _by_hand(cells)
    walks = (Hamiltonian, ClassicalGenerator)
    expected = [propagate(make(plain), entry_state(plain), 2.5) for make in walks]
    monkeypatch.setattr(WalkOperator, "spectrum", property(lambda self: pytest.fail("node spectrum")))
    for make, x in zip(walks, expected):
        op = make(g)
        assert len(op.entry_spectrum.w) == int(cells.max()) + 1 == 18
        assert np.max(np.abs(propagate(op, entry_state(g), 2.5) - x)) <= 1e-12


def test_nodes_as_cells_in_another_order_get_a_spectrum_of_their_own():
    # an even path has one site per cell; labels in reverse number its cells backwards, so
    # the node spectrum, whose cell ids are the node ids, cannot serve as the entry spectrum
    g = path_graph(6)
    backwards = Graph("path", g.coord_array, g.edges, g.entry, g.exit, cells=np.arange(6)[::-1])
    assert backwards.entry_cells.tolist() == [5, 4, 3, 2, 1, 0]
    zs = np.linspace(0.0, 2.0, 5)
    for make in (Hamiltonian, ClassicalGenerator):
        op, reference = make(backwards), make(g)
        assert op.entry_spectrum is not op.spectrum
        for got, expected in (
            (propagate(op, entry_state(g), zs), propagate(reference, entry_state(g), zs)),
            (propagate(op, entry_state(g), zs, g.exit), propagate(reference, entry_state(g), zs, g.exit)),
        ):
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_declared_cells_are_renumbered_in_the_order_of_their_labels():
    g = Graph("path", [(0, 0), (2, 0), (4, 0)], [(0, 1), (1, 2)], 1, 2, cells=[-7, 40, -7])
    assert g.entry_cells.tolist() == [0, 1, 0]
    assert g.entry_cells.dtype == np.intp and not g.entry_cells.flags.writeable


# A path 0 - 1 - 2 - 3 - 4 entered at its centre 2, and cell labellings it refuses.
_PATH5 = ([(2 * i, 0) for i in range(5)], [(0, 1), (1, 2), (2, 3), (3, 4)], 2, 4)


@pytest.mark.parametrize(
    "cells, message",
    [
        # {0, 4} and {1, 3} merged: the ends have one neighbour, 1 and 3 two
        ([0, 0, 1, 0, 0], r"^cells are not equitable: node 1 differs from node 0 of its cell$"),
        # the entry's cell merged with the ends
        ([0, 1, 0, 1, 0], r"^the entry 2 shares its cell with node 0$"),
        # 1 and 3 apart, but 0 and 4 together: 0 sees cell 1, 4 sees cell 2
        ([0, 1, 3, 2, 0], r"^cells are not equitable: node 4 differs from node 0 of its cell$"),
    ],
    ids=["not-equitable", "entry-shares", "mixed-ends"],
)
def test_a_declared_partition_that_fails_is_refused_on_first_read(cells, message):
    g = Graph("path", *_PATH5, cells=cells)  # built: the check waits for a read
    for _ in range(2):  # the failure is not cached
        with pytest.raises(ValueError, match=message):
            g.entry_cells


@pytest.mark.parametrize(
    "cells, message",
    [
        ([0, 1, 2, 1], r"^cells has shape \(4,\), expected \(5,\)$"),
        (np.array([[0, 1, 2, 1, 0]]), r"^cells has shape \(1, 5\), expected \(5,\)$"),
        ([0, 1, 2, 1, 0.5], r"^cell label 0.5 is not an integer$"),
        ([0, 1, 2, 1, True], r"^cell label True is not an integer$"),
    ],
    ids=["short", "two-dimensional", "fraction", "bool"],
)
def test_cells_of_the_wrong_shape_or_type_are_refused_at_once(cells, message):
    with pytest.raises(ValueError, match=message):
        Graph("path", *_PATH5, cells=cells)
    assert Graph("path", *_PATH5, cells=[2, 1, 0, 1, 2]).entry_cells.tolist() == [2, 1, 0, 1, 2]


# ---------------------------------------------------------------------------
# array builders and checks against the loop oracle
# ---------------------------------------------------------------------------

ORACLE_CASES = (
    [(f"hexagonal-{n}", "hexagonal_graph", (n,)) for n in range(1, 41)]
    + [(f"glued-identity-{d}", "glued_tree", (d, "identity")) for d in range(1, 13)]
    + [
        (f"glued-random-{d}-seed{s}", "glued_tree", (d, "random", s))
        for d in range(1, 13)
        for s in range(10)
    ]
    + [(f"hypercube-{d}", "hypercube_graph", (d,)) for d in range(1, 13)]
    + [(f"path-{m}", "path_graph", (m,)) for m in range(2, 61)]
)


@pytest.mark.parametrize("name, args", [c[1:] for c in ORACLE_CASES], ids=[c[0] for c in ORACLE_CASES])
def test_array_builders_equal_the_loop_builders(name, args):
    g, ref = getattr(graphs, name)(*args), getattr(graph_oracle, name)(*args)
    assert g.coords == ref.coords
    assert all(type(v) is int for xy in g.coords for v in xy)
    assert g.coord_array.dtype == np.int64 and g.coord_array.tolist() == list(map(list, ref.coords))
    assert not g.coord_array.flags.writeable
    assert g.edges.dtype == ref.edges.dtype and np.array_equal(g.edges, ref.edges)
    assert (type(g.entry), type(g.exit)) == (int, int)
    assert (g.entry, g.exit, g.params) == (ref.entry, ref.exit, ref.params)
    if ref.mirror is None:
        assert g.mirror is None
    else:
        assert g.mirror.dtype == np.int64 and np.array_equal(g.mirror, ref.mirror)


_LINE = [(0, 0), (2, 0), (4, 0)]
_ONE = graph_oracle.hexagonal_graph(1)

# (coords, edges, entry, exit, mirror): each is refused, or accepted as the
# same graph, by Graph and by the loop oracle alike.
GRAPH_INPUTS = {
    "coordinate-1.5": ([(0, 0), (1.5, 0), (4, 0)], [(0, 1)], 0, 2, None),
    "coordinate-2.0": ([(0, 0), (2.0, 0), (4, 0)], [(0, 1)], 0, 2, None),
    "coordinate-str": ([(0, 0), ("1", 0), (4, 0)], [(0, 1)], 0, 2, None),
    "coordinate-float-array": (np.array([(0, 0), (2.0, 0)]), [(0, 1)], 0, 1, None),
    "coordinate-numpy-ints": ([(np.int32(0), np.int64(0)), (np.uint8(2), 0)], [(0, 1)], 0, 1, None),
    "coordinate-int32-array": (np.array([(0, 0), (2, 0)], dtype=np.int32), [(0, 1)], 0, 1, None),
    "coordinate-bools": ([(False, True), (True, True)], [(0, 1)], 0, 1, None),
    "coordinate-numpy-bool": ([(0, 0), (np.True_, 0)], [(0, 1)], 0, 1, None),
    "coordinate-bool-array": (np.array([(False, True), (True, True)]), [(0, 1)], 0, 1, None),
    "coordinate-triple": ([(0, 0), (2, 0, 1)], [(0, 1)], 0, 1, None),
    "coordinate-not-a-pair": ([(0, 0), 2], [(0, 1)], 0, 1, None),
    "one-node": ([(0, 0)], [], 0, 0, None),
    "no-nodes": (np.empty((0, 2), dtype=np.int64), [], 0, 1, None),
    "duplicate-coordinates": ([(0, 0), (2, 0), (0, 0)], [(0, 1)], 0, 2, None),
    "duplicate-coordinates-array": (np.array([(4, 0), (0, 0), (4, 0)]), [(0, 1)], 0, 2, None),
    "self-loop": (_LINE, [(0, 1), (2, 2)], 0, 2, None),
    "node-above": (_LINE, [(0, 1), (1, 3)], 0, 2, None),
    "node-below": (_LINE, [(0, 1), (-1, 2)], 0, 2, None),
    "node-beyond-int64": (_LINE, [(0, 1), (1, 2**70)], 0, 2, None),
    "self-loop-beyond-int64": (_LINE, [(0, 1), (-(2**70), -(2**70))], 0, 2, None),
    "node-beyond-int64-uint64": (_LINE, np.array([(0, 1), (1, 2**63)], dtype=np.uint64), 0, 2, None),
    "duplicate-same-way": (_LINE, [(0, 1), (1, 2), (0, 1)], 0, 2, None),
    "duplicate-reversed": (_LINE, [(1, 0), (1, 2), (0, 1)], 0, 2, None),
    "duplicate-array": (_LINE, np.array([(2, 1), (0, 1), (1, 2)]), 0, 2, None),
    "node-id-1.5": (_LINE, [(0, 1.5)], 0, 2, None),
    "node-id-2.0": (_LINE, [(0, 1), (1, 2.0)], 0, 2, None),
    "node-id-str": (_LINE, [(0, "1")], 0, 2, None),
    "node-id-numpy-bool": (_LINE, [(0, np.True_)], 0, 2, None),
    "node-ids-bools-and-numpy": (_LINE, [(False, True), (np.int16(1), np.uint64(2))], 0, 2, None),
    "edge-not-a-pair": (_LINE, [(0, 1), 2], 0, 2, None),
    "edge-triple": (_LINE, [(0, 1), (1, 2, 0)], 0, 2, None),
    "edges-int32-array": (_LINE, np.array([(1, 2), (1, 0)], dtype=np.int32), 0, 2, None),
    "no-edges": (_LINE, [], 0, 2, None),
    # several faults: the first in input order wins
    "loop-before-outside-and-repeat": (_LINE, [(0, 1), (1, 1), (0, 7), (1, 0)], 0, 2, None),
    "outside-before-loop": (_LINE, [(0, 7), (1, 1)], 0, 2, None),
    "outside-and-loop-in-one-edge": (_LINE, [(0, 1), (5, 5)], 0, 2, None),
    "repeat-before-loop-and-outside": (_LINE, [(1, 0), (0, 1), (2, 2), (9, 0)], 0, 2, None),
    "repeat-before-loop-array": (_LINE, np.array([(1, 0), (0, 1), (2, 2), (9, 0)]), 0, 2, None),
    "fraction-before-loop": (_LINE, [(0, 1), (1.5, 2), (1, 1)], 0, 2, None),
    "loop-before-fraction": (_LINE, [(0, 1), (1, 1), (1.5, 2)], 0, 2, None),
    "repeat-before-fraction": (_LINE, [(0, 1), (1, 0), (0, 2.5)], 0, 2, None),
    "outside-before-not-a-pair": (_LINE, [(0, 9), 2], 0, 2, None),
    "repeat-before-beyond-int64": (_LINE, [(0, 1), (1, 0), (0, 2**64)], 0, 2, None),
    "entry-outside": (_LINE, [(0, 1)], 3, 2, None),
    "entry-negative": (_LINE, [(0, 1)], -1, 2, None),
    "exit-outside": (_LINE, [(0, 1)], 0, 5, None),
    "entry-is-exit": (_LINE, [(0, 1)], 1, 1, None),
    "entry-fraction": (_LINE, [(0, 1)], 0.5, 2, None),
    "exit-float": (_LINE, [(0, 1)], 0, 2.0, None),
    "entry-numpy": (_LINE, [(0, 1)], np.int64(0), np.uint8(2), None),
    "mirror-length": (_ONE.coords, _ONE.edges, 0, 5, [5, 3, 4, 1, 2]),
    "mirror-permutation": (_ONE.coords, _ONE.edges, 0, 5, [5, 3, 3, 1, 2, 0]),
    "mirror-involution": (_ONE.coords, _ONE.edges, 0, 5, [5, 3, 4, 2, 1, 0]),
    "mirror-edge": (_ONE.coords, _ONE.edges, 0, 5, [5, 1, 2, 3, 4, 0]),
    "mirror-entry": (_ONE.coords, _ONE.edges, 0, 5, [0, 2, 1, 4, 3, 5]),
    "mirror-fraction": (_ONE.coords, _ONE.edges, 0, 5, [5, 3, 4, 1, 2.5, 0]),
    "mirror-float": (_ONE.coords, _ONE.edges, 0, 5, [5.0, 3, 4, 1, 2, 0]),
    "mirror-fine": (_ONE.coords, _ONE.edges, 0, 5, [5, 3, 4, 1, 2, 0]),
}


def _outcome(cls, coords, edges, entry, exit, mirror):
    """What building a graph gives: the exception type and message, or the graph's fields."""
    try:
        g = cls("path", coords, edges, entry, exit, {"m": 3}, mirror)
    except Exception as exc:  # noqa: BLE001 - the type is part of what is compared
        return type(exc), str(exc)
    m = None if g.mirror is None else g.mirror.tolist()
    return g.coords, g.edges.tolist(), (g.entry, g.exit), type(g.entry), g.params, m


@pytest.mark.parametrize("inputs", GRAPH_INPUTS.values(), ids=GRAPH_INPUTS.keys())
def test_graph_checks_equal_the_loop_checks(inputs):
    assert _outcome(Graph, *inputs) == _outcome(graph_oracle.LoopGraph, *inputs)


def test_graph_refuses_coordinates_beyond_int64():
    # the loop constructor kept them as Python ints; the int64 array cannot
    wide = [(0, 0), (2**63, 0)]
    assert graph_oracle.LoopGraph("path", wide, [(0, 1)], 0, 1).coords == ((0, 0), (2**63, 0))
    for coords, value in (
        (wide, 2**63),
        ([(0, 0), (0, -(2**63) - 1)], -(2**63) - 1),
        ([(2**70, 0), (0, 0)], 2**70),
        (np.array([(0, 0), (2**63, 0)], dtype=np.uint64), 2**63),
        (np.array([(0, 0), (0, 2**70)], dtype=object), 2**70),
    ):
        with pytest.raises(ValueError, match=f"^coordinate {value} is outside the int64 range$"):
            Graph("path", coords, [(0, 1)], 0, 1)
    # the int64 extremes themselves are kept exactly
    ends = [(-(2**63), 2**63 - 1), (2**63 - 1, -(2**63))]
    assert Graph("path", ends, [(0, 1)], 0, 1).coords == tuple(ends)
    assert Graph("path", np.array(ends, dtype=object), [(0, 1)], 0, 1).coords == tuple(ends)


def test_graph_keeps_its_own_copy_of_an_array_input():
    coords, edges = np.array([(0, 0), (2, 0), (4, 0)]), np.array([(1, 2), (0, 1)])
    g = Graph("path", coords, edges, 0, 2)
    coords[:] = 7
    edges[:] = 0
    assert g.coords == ((0, 0), (2, 0), (4, 0)) and g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.coord_array.tolist() == [[0, 0], [2, 0], [4, 0]]


@pytest.mark.parametrize(
    "build, count",
    [
        (lambda: hypercube_graph(40), 2**40),
        (lambda: glued_tree(40), 2**42 - 2),
        (lambda: glued_tree(40, "identity"), 2**42 - 2),
        (lambda: hexagonal_graph(10**6), 2 * 10**12 + 4 * 10**6),
        (lambda: path_graph(10**12), 10**12),
        (lambda: hypercube_graph(10**12), "2**1000000000000"),
        (lambda: glued_tree(10**12), "2**1000000000002 - 2"),
    ],
    ids=["hypercube-40", "glued-40", "glued-identity-40", "hexagonal-1e6", "path-1e12", "hypercube-1e12", "glued-1e12"],
)
def test_builders_refuse_graphs_above_the_node_cap_at_once(build, count):
    message = f"graph would have {count} nodes, above the cap of {graphs.MAX_NODES}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
    assert time.perf_counter() - start < 0.1


def test_node_cap_counts_follow_the_closed_forms(monkeypatch):
    # at a cap of 16 nodes each family builds up to 16 and refuses the next size
    monkeypatch.setattr(graphs, "MAX_NODES", 16)
    for ok, refused, count in (
        (lambda: hexagonal_graph(2), lambda: hexagonal_graph(3), 30),
        (lambda: glued_tree(2), lambda: glued_tree(3), 30),
        (lambda: hypercube_graph(4), lambda: hypercube_graph(5), 32),
        (lambda: path_graph(16), lambda: path_graph(17), 17),
    ):
        assert ok().n_nodes <= 16
        with pytest.raises(ValueError, match=f"^graph would have {count} nodes, above the cap of 16$"):
            refused()


def test_node_cap_admits_every_size_the_docs_name():
    assert hexagonal_graph(200).n_nodes == 80800 <= graphs.MAX_NODES
    for nodes in (2**14 - 2, 2**16 - 2, 2**14):  # glued d = 12 and 14, hypercube d = 14
        assert nodes <= graphs.MAX_NODES


def _star(leaves: int) -> Graph:
    """A hub, the entry, joined to ``leaves`` leaves in a row; the last leaf is the exit."""
    coords = [(0, 0)] + [(2 * i, 2) for i in range(leaves)]
    return Graph("path", coords, [(0, i) for i in range(1, leaves + 1)], 0, leaves)


def test_a_neighbour_table_over_the_budget_is_refused_before_it_is_allocated(monkeypatch):
    # 401 nodes of degree up to 400 take 401 * 400 * 8 = 1283200 bytes, above 1 MiB;
    # the real budget is 4 GiB, and a table that large is never built here
    need = 401 * 400 * 8
    monkeypatch.setattr(graphs, "MAX_WALK_BYTES", need)
    assert _star(400).neighbours.shape == (401, 400)
    monkeypatch.setattr(graphs, "MAX_WALK_BYTES", 2**20)
    message = (
        "the neighbour table of 401 nodes of degree up to 400 would take about 0.0012 GiB, "
        "above the limit of 0.000977 GiB"
    )
    g = _star(400)
    g.degrees
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            g.neighbours
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need // 10
    # every stage that reads the table refuses the graph the same way
    for stage in (lambda: g.distances, lambda: classical_convergence_time(ClassicalGenerator(g))):
        with pytest.raises(ValueError, match=re.escape(message)):
            stage()
    monkeypatch.undo()
    assert graphs.MAX_WALK_BYTES == 4 * 2**30  # one budget, for the table and every spectrum
