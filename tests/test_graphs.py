"""Tests for the graph builders and the Graph container."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from hexwalk import graphs
from hexwalk.graphs import (
    Graph,
    edge_csv,
    glued_tree,
    hexagonal_graph,
    hypercube_graph,
    node_csv,
    parse_graph_selector,
    path_graph,
)
from hexwalk.hitting import default_scan_window


def bfs_layers(g: Graph, start: int) -> dict[int, int]:
    """Independent breadth-first distance oracle used by several checks."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for nb in g.neighbors(node):
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
    # and preserves adjacency.
    for n in (2, 3):
        g = hexagonal_graph(n)
        span = 6 * (n - 1)
        index = {xy: i for i, xy in enumerate(g.coords)}
        perm = {}
        for i, (x, y) in enumerate(g.coords):
            mirrored = (span - x, y)
            assert mirrored in index
            perm[i] = index[mirrored]
        mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in g.edges}
        assert mapped == set(g.edges)
        assert perm[g.entry] == g.exit


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
    cyc = glued_tree(d, gluing="random-cycle", seed=3)
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
    a = glued_tree(3, gluing="random-cycle", seed=7)
    b = glued_tree(3, gluing="random-cycle", seed=7)
    c = glued_tree(3, gluing="random-cycle", seed=8)
    assert a.edges == b.edges
    assert a.coords == b.coords
    assert c.edges != a.edges


def test_glued_tree_random_cycle_alternates_sides():
    g = glued_tree(2, gluing="random-cycle", seed=0)
    dist = bfs_layers(g, g.entry)
    left_leaves = {i for i, d_ in dist.items() if d_ == 2 and g.coords[i][0] == 2}
    # each left leaf must connect to exactly two right leaves
    for leaf in left_leaves:
        right = [nb for nb in g.neighbors(leaf) if g.coords[nb][0] == 3]
        assert len(right) == 2


def test_glued_tree_rejects_bad_arguments():
    with pytest.raises(ValueError):
        glued_tree(0)
    with pytest.raises(ValueError):
        glued_tree(2, gluing="staircase")


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
    z_max, dz = default_scan_window(g)
    assert z_max > 0.0 and dz > 0.0


def test_unknown_family_error_lists_every_family():
    with pytest.raises(ValueError, match="unknown graph family 'pentagon'") as err:
        parse_graph_selector("pentagon:n=2")
    for family in graphs.FAMILIES:
        assert family in str(err.value)


def test_glued_tree_selector_defaults_and_seed_fallback():
    g = parse_graph_selector("glued-tree:d=3", default_seed=5)
    assert g.params == {"depth": 3, "gluing": "random-cycle", "seed": 5}
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


def test_neighbors_agree_with_adjacency():
    g = glued_tree(2, gluing="identity")
    for node in range(g.n_nodes):
        expected = tuple(sorted(np.nonzero(g.adjacency[node])[0].tolist()))
        assert g.neighbors(node) == expected
    assert g.connected
    for g in (hexagonal_graph(3), glued_tree(3, seed=5), hypercube_graph(4), path_graph(6)):
        assert g.connected
        assert len(bfs_layers(g, 0)) == g.n_nodes
    two_parts = Graph("path", [(0, 0), (2, 0), (4, 0), (6, 0)], [(0, 1), (2, 3)], 0, 3)
    assert not two_parts.connected
    assert two_parts.neighbors(1) == (0,)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_node_csv_shape_and_flags():
    g = path_graph(3)
    lines = node_csv(g).strip().split("\n")
    assert lines[0] == "id,X,Y,is_entry,is_exit"
    assert len(lines) == 4
    assert lines[2] == "1,2,0,1,0"
    assert lines[3] == "2,4,0,0,1"


def test_edge_csv_is_sorted_and_complete():
    g = hexagonal_graph(1)
    lines = edge_csv(g).strip().split("\n")
    assert lines[0] == "node_a,node_b"
    pairs = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert pairs == sorted(pairs)
    assert len(pairs) == g.n_edges
