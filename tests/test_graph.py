import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import gainline as gl
import gainline.graph as graph_module
from gainline.errors import InputError, ValidationError
from gainline.graph import bfs_tree, line_roots

from helpers import (K2, PAW, STAR3, TRIANGLE, complete_graph,
                     random_connected_graph, reference_line_graph,
                     shuffled_graph, star_graph)


def test_paw_line_graph_matches_drawn_adjacencies():
    data = gl.line_graph(PAW)
    assert data.line.n == 4
    assert data.line.edges == ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3))


def test_star_line_graph_is_triangle():
    data = gl.line_graph(STAR3)
    assert data.line.n == 3
    assert data.line.edges == ((0, 1), (0, 2), (1, 2))
    assert data.shared_vertex == (0, 0, 0)


def test_k2_line_graph_is_single_vertex():
    data = gl.line_graph(K2)
    assert data.line.n == 1
    assert data.line.edges == ()


def test_one_vertex_graph_has_no_line_graph():
    # K1 = L(K2) is a graph, but with no edge it has no line graph
    K1 = gl.SimpleGraph(1, ())
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.identity, Q8.identity)
    H = gl.incidence_phase(K1, Q8)
    psi = gl.GainFunction(K1, Q8, ())
    for build in (lambda: gl.line_graph(K1), lambda: gl.psi_line(H, ctx),
                  lambda: gl.gain_line(psi, gl.default_orientation(K1), ctx),
                  lambda: gl.reff_line_phase(H)):
        with pytest.raises(ValidationError) as refused:
            build()
        assert str(refused.value) == "a graph with no edge has no line graph"


def test_shared_vertex_incident_to_both_endpoints():
    for g in (PAW, STAR3, TRIANGLE):
        data = gl.line_graph(g)
        for pos, (i, j) in enumerate(data.line.edges):
            v = data.shared_vertex[pos]
            assert v in g.edges[i] and v in g.edges[j]


def test_line_graph_matches_pairwise_reference(monkeypatch):
    rng = random.Random(101)
    graphs = [star_graph(k) for k in (1, 2, 7, 40)]
    graphs += [complete_graph(n) for n in (2, 3, 5, 9)]
    graphs += [shuffled_graph(rng, random_connected_graph(rng, max_n))
               for max_n in (4, 10, 30, 100, 400, 400)]
    for g in graphs:
        data = gl.line_graph(g)
        assert data.line.n == g.m
        assert (data.line.edges, data.shared_vertex) == reference_line_graph(g)
        assert gl.line_graph(g) is data
        # built without a check, yet equal to the checked graph on its edges
        checked = gl.SimpleGraph(g.m, data.line.edges)
        assert data.line == checked and hash(data.line) == hash(checked)
        assert data.line.incidence == checked.incidence
        assert bfs_tree(data.line) == bfs_tree(checked)
    assert graphs[0].m == 1 and gl.line_graph(graphs[0]).line.n == 1  # K2

    def refuse(self):
        raise AssertionError("a derived line graph was checked again")

    fresh = [gl.SimpleGraph(g.n, g.edges) for g in graphs]
    with monkeypatch.context() as patch:
        patch.setattr(gl.SimpleGraph, "__post_init__", refuse)
        lines = [gl.line_graph(g).line for g in fresh]
    assert lines == [gl.line_graph(g).line for g in graphs]


def test_incidence_lists_and_degrees():
    rng = random.Random(103)
    for _ in range(20):
        g = shuffled_graph(rng, random_connected_graph(rng, 30))
        for v in range(g.n):
            expected = [k for k, e in enumerate(g.edges) if v in e]
            assert list(g.incidence[v]) == expected


def test_incidence_matrix_k2():
    assert gl.incidence_matrix(K2).tolist() == [[1], [1]]


def test_incidence_matrix_paw_column_supports():
    N = gl.incidence_matrix(PAW)
    supports = [tuple(np.nonzero(N[:, k])[0]) for k in range(4)]
    assert supports == [(0, 1), (1, 2), (2, 3), (1, 3)]


def test_incidence_row_sums_are_degrees():
    N = gl.incidence_matrix(PAW)
    assert N.sum(axis=1).tolist() == [len(PAW.incidence[v]) for v in range(4)]


def test_default_orientation_low_to_high():
    o = gl.default_orientation(PAW)
    assert o.heads[3] == (1, 3)
    assert gl.default_orientation(K2).heads == ((0, 1),)
    # the reversal is a valid orientation too
    gl.Orientation(PAW, tuple((h, t) for t, h in o.heads))


def test_classical_matrix_identities_small_graphs():
    graphs = [K2, PAW, STAR3, TRIANGLE,
              gl.SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))]
    for g in graphs:
        N = gl.incidence_matrix(g)
        mats = gl.classical_matrices(g)
        assert (N @ N.T == mats["signless_laplacian"]).all()
        data = gl.line_graph(g)
        al = gl.classical_matrices(data.line)["adjacency"] \
            if data.line.m else np.zeros((g.m, g.m), dtype=int)
        assert (N.T @ N == 2 * np.eye(g.m, dtype=int) + al).all()


def test_triangle_spectrum():
    a = gl.classical_matrices(TRIANGLE)["adjacency"]
    vals = np.sort(np.linalg.eigvalsh(a.astype(float)))
    assert np.allclose(vals, [-1, -1, 2])


def test_line_graph_preserves_edge_order_as_vertex_order():
    data = gl.line_graph(PAW)
    # vertex k of the line graph is edge k of the root
    assert data.line.n == PAW.m


def test_rejects_disconnected():
    with pytest.raises(ValidationError):
        gl.SimpleGraph(4, ((0, 1), (2, 3)))


def test_rejects_loops_and_duplicates():
    with pytest.raises(ValidationError):
        gl.SimpleGraph(2, ((0, 0),))
    with pytest.raises(ValidationError):
        gl.SimpleGraph(2, ((0, 1), (1, 0)))


#: Edge lists with several faults each; the first fault in edge order
#: (range, then loop, then duplicate, per edge) named in the table's own
#: 0-based terms, which names the case, and its message, which names the
#: vertices 1-based as in files.
FIRST_FAULTS = [
    (3, ((0, 1), (1, 1), (3, 0), (1, 0)), "loop at vertex 1", "loop at vertex 2"),
    (3, ((0, 1), (2, 5), (1, 1), (0, 1)), "edge (2, 5) out of vertex range",
     "edge (3, 6) out of vertex range"),
    (3, ((0, 1), (4, 4), (2, 2)), "edge (4, 4) out of vertex range",
     "edge (5, 5) out of vertex range"),
    (4, ((0, 1), (1, 2), (2, 1), (3, 3), (0, 9)), "duplicate edge (1, 2)",
     "duplicate edge (2, 3)"),
    (4, ((1, 0), (0, 1), (2, 2), (2, 7)), "duplicate edge (0, 1)", "duplicate edge (1, 2)"),
    (4, ((2, 3), (0, 1), (3, 2), (1, 0)), "duplicate edge (2, 3)", "duplicate edge (3, 4)"),
    (2, ((0, 1), (0, 1), (1, 1), (0, 2)), "duplicate edge (0, 1)", "duplicate edge (1, 2)"),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 4)), "loop at vertex 4", "loop at vertex 5"),
    (5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)), "edge (4, 5) out of vertex range",
     "edge (5, 6) out of vertex range"),
]


@pytest.mark.parametrize("n, edges, message", [
    pytest.param(n, edges, message, id=f"{n}-edges{i}-{fault}")
    for i, (n, edges, fault, message) in enumerate(FIRST_FAULTS)])
def test_first_fault_is_named_in_edge_order(n, edges, message):
    with pytest.raises(ValidationError) as checked:
        gl.SimpleGraph(n, edges)
    assert str(checked.value) == message
    # the file reader checks the same graph, 1-based on the wire
    data = {"n": n, "edges": [[u + 1, v + 1] for u, v in edges]}
    with pytest.raises(InputError) as read:
        gl.graph_from_dict(data)
    assert str(read.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: gl.SimpleGraph(2, ()), "graph needs at least one edge"),
    # named, like FIRST_FAULTS, by the fault in the table's 0-based terms
    pytest.param(lambda: gl.Orientation(PAW, ((1, 0), (2, 1), (3, 2), (1, 2))),
                 "oriented pair (2, 3) does not match edge (2, 4)",
                 id="<lambda>-oriented pair (1, 2) does not match edge (1, 3)"),
])
def test_graph_faults_are_named(build, message):
    with pytest.raises(ValidationError) as refused:
        build()
    assert str(refused.value) == message


def test_bfs_tree_is_run_once_and_cannot_be_changed():
    rng = random.Random(107)
    g = shuffled_graph(rng, random_connected_graph(rng, 40))
    parent, order, via = bfs_tree(g)
    assert bfs_tree(g) is bfs_tree(g)
    assert sorted(order) == list(range(g.n)) and order[0] == parent[0] == 0
    assert all((min(v, parent[v]), max(v, parent[v])) in g.edges for v in order[1:])
    assert all(set(g.edges[via[v]]) == {v, parent[v]} for v in order[1:])
    # what every caller reads is the cached tree itself, so it is immutable
    assert type(parent) is tuple and type(order) is tuple and type(via) is tuple
    with pytest.raises(TypeError):
        parent[1] = 0


def test_graph_file_roundtrip():
    d = gl.graph_to_dict(PAW)
    assert d == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [2, 4]]}
    assert gl.graph_from_dict(d) == PAW


def test_graph_file_rejects_bad_input():
    with pytest.raises(InputError):
        gl.graph_from_dict({"n": 2})
    with pytest.raises(InputError):
        gl.graph_from_dict({"n": 2, "edges": []})
    with pytest.raises(InputError):
        gl.graph_from_dict({"n": 2, "edges": [[0, 1]]})  # 1-based required


def test_exhaustive_identities_up_to_five_vertices():
    # every connected graph shape on <= 5 vertices (by edge subsets)
    for n in range(2, 6):
        all_edges = list(itertools.combinations(range(n), 2))
        for r in range(n - 1, len(all_edges) + 1):
            for subset in itertools.combinations(all_edges, r):
                try:
                    g = gl.SimpleGraph(n, subset)
                except ValidationError:
                    continue
                N = gl.incidence_matrix(g)
                mats = gl.classical_matrices(g)
                assert (N @ N.T == mats["signless_laplacian"]).all()


def test_line_graph_past_the_cap_is_refused_before_it_is_built(monkeypatch):
    # K1,1415 has C(1415, 2) = 1 000 405 line edges, the smallest star past the
    # cap; building them would allocate about 250 MB
    star = star_graph(1415)
    assert math.comb(1414, 2) <= graph_module.MAX_LINE_EDGES < math.comb(1415, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as refused:
            gl.line_graph(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "line graph of 1000405 edges exceeds cap 1000000"
    assert peak < 100_000
    # the cap admits a line graph of exactly MAX_LINE_EDGES edges
    monkeypatch.setattr(graph_module, "MAX_LINE_EDGES", 5)
    assert gl.line_graph(PAW).line.m == 5
    with pytest.raises(ValidationError, match="^line graph of 6 edges exceeds cap 5$"):
        gl.line_graph(star_graph(4))


def _atlas_graph(g) -> gl.SimpleGraph:
    return gl.SimpleGraph(g.number_of_nodes(),
                          tuple(sorted(tuple(sorted(e)) for e in g.edges())))


def test_line_root_matches_networkx_on_every_atlas_graph():
    nx = pytest.importorskip("networkx")
    connected = line_graphs = 0
    several = []
    for g in nx.graph_atlas_g():
        if g.number_of_edges() == 0 or not nx.is_connected(g):
            continue
        connected += 1
        try:
            nx.inverse_line_graph(g)
            is_line = True
        except nx.NetworkXError:
            is_line = False
        line_graphs += is_line
        G = _atlas_graph(g)
        roots = list(line_roots(G))
        assert bool(roots) == is_line, sorted(g.edges())
        assert all(gl.line_graph(root).line == G for root in roots)
        if len(roots) > 1:
            several.append((G.n, G.m, len(roots)))
    assert (connected, line_graphs) == (995, 129)
    # Whitney: two labelled roots for K3 (K3 and K1,3), L(K1,3 + e), L(K4 - e)
    # and L(K4), and one for every other connected line graph
    assert sorted(several) == [(3, 3, 2), (4, 5, 2), (5, 8, 2), (6, 12, 2)]


def _shuffled_random_graph(rng: random.Random, n: int, m: int) -> gl.SimpleGraph:
    """A random recursive tree plus chords, edges in random order."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    edges = sorted(edges)
    rng.shuffle(edges)
    return gl.SimpleGraph(n, tuple(edges))


def test_line_root_recovers_random_roots():
    rng = random.Random(22)
    for n in (50, 200, 1000):
        root = _shuffled_random_graph(rng, n, 2 * n)
        line = gl.line_graph(root).line
        found = next(line_roots(line), None)
        assert gl.line_graph(found).line == line
        # Whitney: the root is unique up to relabelling its vertices
        assert (found.n, sorted(map(len, found.incidence))) == \
            (n, sorted(map(len, root.incidence)))
    # the one-vertex graph is the line graph of K2
    assert next(line_roots(gl.line_graph(K2).line), None) == K2


def test_line_root_refuses_unsorted_edges_and_stays_under_the_cap(monkeypatch):
    line = gl.line_graph(PAW).line
    assert next(line_roots(line), None) is not None
    unsorted = gl.SimpleGraph(line.n, line.edges[1:] + line.edges[:1])
    assert next(line_roots(unsorted), None) is None
    # L(K1,5) = K5 has C(5, 2) = 10 line edges: past a cap of 5, its root is
    # not certified, and nothing is built
    monkeypatch.setattr(graph_module, "MAX_LINE_EDGES", 5)
    assert next(line_roots(complete_graph(5)), None) is None
