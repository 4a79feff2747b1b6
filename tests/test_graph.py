import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import gainline as gl
import gainline.graph as graph_module
from gainline.errors import InputError, ValidationError
from gainline.graph import line_roots

from helpers import (K2, PAW, STAR3, TRIANGLE, bfs_tree, complete_graph,
                     incidence_lists, pairwise_line_graph, random_connected_graph,
                     reference_first_fault, reference_line_graph, shuffled_graph,
                     star_graph)


def test_paw_line_graph_matches_drawn_adjacencies():
    data = gl.line_graph(PAW)
    assert data.line.n == 4
    assert data.line.edges.tolist() == [[0, 1], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_star_line_graph_is_triangle():
    data = gl.line_graph(STAR3)
    assert data.line.n == 3
    assert data.line.edges.tolist() == [[0, 1], [0, 2], [1, 2]]
    assert data.shared_vertex.tolist() == [0, 0, 0]


def test_k2_line_graph_is_single_vertex():
    data = gl.line_graph(K2)
    assert data.line.n == 1
    assert data.line.edges.shape == (0, 2)


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
        data, edges = gl.line_graph(g), g.edges.tolist()
        for (i, j), v in zip(data.line.edges.tolist(), data.shared_vertex.tolist()):
            assert v in edges[i] and v in edges[j]


def test_line_graph_matches_pairwise_reference(monkeypatch):
    rng = random.Random(101)
    graphs = [star_graph(k) for k in (1, 2, 7, 40)]
    graphs += [complete_graph(n) for n in (2, 3, 5, 9)]
    graphs += [shuffled_graph(rng, random_connected_graph(rng, max_n))
               for max_n in (4, 10, 30, 100, 400, 400)]
    for g in graphs:
        data = gl.line_graph(g)
        assert data.line.n == g.m
        assert (tuple(map(tuple, data.line.edges.tolist())),
                tuple(data.shared_vertex.tolist())) == pairwise_line_graph(g)
        assert gl.line_graph(g) is data
        # built without a check, yet equal to the checked graph on its edges
        checked = gl.SimpleGraph(g.m, data.line.edges)
        assert data.line == checked and hash(data.line) == hash(checked)
        assert all(map(np.array_equal, data.line.incidence, checked.incidence))
        assert bfs_tree(data.line) == bfs_tree(checked)
    assert graphs[0].m == 1 and gl.line_graph(graphs[0]).line.n == 1  # K2

    def refuse(self):
        raise AssertionError("a derived line graph was checked again")

    fresh = [gl.SimpleGraph(g.n, g.edges) for g in graphs]
    with monkeypatch.context() as patch:
        patch.setattr(gl.SimpleGraph, "__post_init__", refuse)
        lines = [gl.line_graph(g).line for g in fresh]
    assert lines == [gl.line_graph(g).line for g in graphs]


def test_line_graph_matches_the_combinations_build():
    nx = pytest.importorskip("networkx")
    graphs = [_atlas_graph(g) for g in nx.graph_atlas_g()
              if g.number_of_edges() and nx.is_connected(g)]
    rng = random.Random(31)
    for _ in range(8):  # 200-5000 edges
        m = rng.randint(200, 5000)
        graphs.append(shuffled_graph(rng, _shuffled_random_graph(rng, rng.randint(m // 3, m), m)))
    assert len(graphs) == 995 + 8
    for g in graphs:
        data = gl.line_graph(g)
        edges, shared = reference_line_graph(g)
        assert data.line.n == g.m
        assert data.line.edges.tolist() == list(map(list, edges))
        assert data.shared_vertex.tolist() == list(shared)
        assert not data.line.edges.flags.writeable and not data.shared_vertex.flags.writeable


def _labelled(rng: random.Random, n: int, edges) -> tuple[int, np.ndarray]:
    """``edges`` with the vertices renamed at random, the edges shuffled."""
    name = list(range(n))
    rng.shuffle(name)
    out = [(name[u], name[v]) for u, v in edges]
    rng.shuffle(out)
    return n, np.array(out)


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    k = 40
    cliques = [(u, v) for u, v in itertools.combinations(range(2 * k), 2)
               if (u < k) == (v < k)]
    # each with the one edge whose removal disconnects it, and without it
    cases = {"path": (5000, [(v, v + 1) for v in range(4999)], (2499, 2500)),
             "star": (5000, [(0, v) for v in range(1, 5000)], (0, 4999)),
             "cliques": (2 * k, cliques + [(k - 1, k)], (k - 1, k))}
    for name, (n, edges, cut) in cases.items():
        for kept in (edges, [e for e in edges if e != cut]):
            n, ends = _labelled(rng, n, kept)
            reference = nx.Graph(ends.tolist())
            reference.add_nodes_from(range(n))
            expected = nx.is_connected(reference)
            lo, hi = ends.min(axis=1), ends.max(axis=1)
            assert graph_module._connected(n, lo, hi) == expected, name
            if expected:
                assert gl.SimpleGraph(n, ends).m == len(kept)
            else:
                with pytest.raises(ValidationError, match="^graph is not connected$"):
                    gl.SimpleGraph(n, ends)


def test_graphs_hash_and_compare_by_value():
    pairs = ((1, 0), (1, 2), (2, 3), (3, 1))
    graphs = [gl.SimpleGraph(4, pairs), gl.SimpleGraph(4, [list(e) for e in pairs]),
              gl.SimpleGraph(4, np.array(pairs)), PAW]
    assert all(g == PAW and hash(g) == hash(PAW) for g in graphs)
    assert len(set(graphs)) == 1
    assert PAW != gl.SimpleGraph(4, pairs[::-1]) and PAW != gl.SimpleGraph(5, pairs + ((3, 4),))
    assert (PAW != "x") is True and (PAW == "x") is False
    assert PAW.edges.dtype == np.intp and PAW.edges.shape == (4, 2)
    for array in (PAW.edges, PAW.degrees, *PAW.incidence):
        with pytest.raises(ValueError):
            array[0] = 1
    assert PAW.edges.tolist() == [[0, 1], [1, 2], [2, 3], [1, 3]]


def test_incidence_lists_and_degrees():
    rng = random.Random(103)
    for _ in range(20):
        g = shuffled_graph(rng, random_connected_graph(rng, 30))
        for v in range(g.n):
            expected = tuple(k for k, e in enumerate(g.edges.tolist()) if v in e)
            assert incidence_lists(g)[v] == expected
        assert g.degrees.tolist() == list(map(len, incidence_lists(g)))


def test_incidence_matrix_k2():
    assert gl.incidence_matrix(K2).tolist() == [[1], [1]]


def test_one_vertex_graph_matrices():
    K1 = gl.SimpleGraph(1, ())
    assert gl.incidence_matrix(K1).shape == (1, 0)
    assert all(a.tolist() == [[0]] for a in gl.classical_matrices(K1).values())


def test_incidence_matrix_paw_column_supports():
    N = gl.incidence_matrix(PAW)
    supports = [tuple(np.nonzero(N[:, k])[0]) for k in range(4)]
    assert supports == [(0, 1), (1, 2), (2, 3), (1, 3)]


def test_incidence_row_sums_are_degrees():
    N = gl.incidence_matrix(PAW)
    assert N.sum(axis=1).tolist() == PAW.degrees.tolist()


def test_default_orientation_low_to_high():
    o = gl.default_orientation(PAW)
    assert o.heads[3].tolist() == [1, 3]
    assert gl.default_orientation(K2).heads.tolist() == [[0, 1]]
    # the reversal is a valid orientation too
    gl.Orientation(PAW, tuple((h, t) for t, h in o.heads.tolist()))


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


def seeded_faults(seed: int):
    """A shuffled connected graph of 200-5000 edges with 1-3 faults put in at
    random positions, each an end out of range (past n or negative, at the
    tail or the head), a loop, or a copy of another edge in either
    orientation: (n, edges, the fault kinds in insertion order)."""
    rng = random.Random(seed)
    m = rng.randint(200, 5000)
    n = rng.randint(m // 3, m)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)
    kinds = [rng.choice(("past-n-tail", "past-n-head", "negative-tail", "negative-head",
                         "loop", "duplicate", "reversed"))
             for _ in range(rng.randint(1, 3))]
    for kind in kinds:
        u, v = edges[rng.randrange(len(edges))]
        high, low = n + rng.randrange(3), -1 - rng.randrange(2)
        bad = {"past-n-tail": (high, v), "past-n-head": (u, high),
               "negative-tail": (low, v), "negative-head": (u, low),
               "loop": (u, u), "duplicate": (u, v), "reversed": (v, u)}[kind]
        edges.insert(rng.randrange(len(edges) + 1), bad)
    return n, tuple(edges), kinds


@pytest.mark.parametrize("n, edges, message", [
    pytest.param(n, edges, message, id=f"{n}-edges{i}-{fault}")
    for i, (n, edges, fault, message) in enumerate(FIRST_FAULTS)] + [
    pytest.param(n, edges, reference_first_fault(n, edges),
                 id=f"seeded{seed}-{'+'.join(kinds)}")
    for seed in range(36) for n, edges, kinds in [seeded_faults(seed)]])
def test_first_fault_is_named_in_edge_order(n, edges, message):
    assert message is not None
    with pytest.raises(ValidationError) as checked:
        gl.SimpleGraph(n, edges)
    assert str(checked.value) == message
    # the file reader checks the same graph, 1-based on the wire, after
    # refusing the first pair with a vertex below 1
    data = {"n": n, "edges": [[u + 1, v + 1] for u, v in edges]}
    low = next(([u + 1, v + 1] for u, v in edges if min(u, v) < 0), None)
    if low is not None:
        message = f"vertices are 1-based; got {low} in graph field 'edges'"
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
        assert (found.n, sorted(found.degrees)) == (n, sorted(root.degrees))
    # the one-vertex graph is the line graph of K2
    assert next(line_roots(gl.line_graph(K2).line), None) == K2


def test_line_root_refuses_unsorted_edges_and_stays_under_the_cap(monkeypatch):
    line = gl.line_graph(PAW).line
    assert next(line_roots(line), None) is not None
    unsorted = gl.SimpleGraph(line.n, np.roll(line.edges, -1, axis=0))
    assert next(line_roots(unsorted), None) is None
    # L(K1,5) = K5 has C(5, 2) = 10 line edges: past a cap of 5, its root is
    # not certified, and nothing is built
    monkeypatch.setattr(graph_module, "MAX_LINE_EDGES", 5)
    assert next(line_roots(complete_graph(5)), None) is None


def _stars(graph: gl.SimpleGraph) -> frozenset:
    """The edges at each vertex: a root up to renaming its vertices."""
    return frozenset(map(frozenset, incidence_lists(graph)))


def _relabelled(rng: random.Random, n: int, edges) -> gl.SimpleGraph:
    """The graph on ``edges`` with its vertices renamed and edges shuffled."""
    names = list(range(n))
    rng.shuffle(names)
    return shuffled_graph(rng, gl.SimpleGraph(n, tuple((names[u], names[v]) for u, v in edges)))


def _root_families(rng: random.Random) -> list[tuple[str, int, list]]:
    """(name, n, edges) of roots with pendant paths, triangles, K4s and trees."""
    def tree(n):
        return [(rng.randrange(v), v) for v in range(1, n)]

    def random_root(n, m):
        edges = set(tree(n))
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        return sorted(edges)

    def pendant_paths(n, edges, count):
        edges = list(edges)
        for _ in range(count):
            at = rng.randrange(n)
            for _ in range(rng.randint(1, 4)):
                edges.append((at, n))
                at, n = n, n + 1
        return n, edges

    def on_edges(n, edges, count, size):
        """A new K_size on each of ``count`` edges: a triangle or a K4."""
        edges = list(edges)
        for u, v in rng.sample(edges, count):
            new = list(range(n, n + size - 2))
            clique = [u, v] + new
            edges += [(a, b) for a, b in itertools.combinations(clique, 2) if b >= n]
            n += size - 2
        return n, edges

    families = [("path", 40, [(v, v + 1) for v in range(39)]),
                ("star", 31, [(0, v) for v in range(1, 31)]),
                ("tree", 60, tree(60)),
                ("tree", 200, tree(200)),
                ("pendant paths", *pendant_paths(40, random_root(40, 80), 8)),
                ("pendant paths", *pendant_paths(2, [(0, 1)], 6)),
                ("windmill", 21, [e for t in range(10) for e in
                                  ((0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2))]),
                ("triangles", *on_edges(30, tree(30), 12, 3)),
                ("triangles", *on_edges(40, random_root(40, 60), 20, 3)),
                ("K4", *on_edges(4, list(itertools.combinations(range(4), 2)), 3, 4)),
                ("K4", *on_edges(30, random_root(30, 45), 10, 4)),
                ("K5", 5, list(itertools.combinations(range(5), 2))),
                ("K6 with a pendant path",
                 *pendant_paths(6, list(itertools.combinations(range(6), 2)), 1))]
    return families


def test_line_root_recovers_pendant_paths_triangles_k4s_and_trees():
    rng = random.Random(33)
    for name, n, edges in _root_families(rng):
        root = _relabelled(rng, n, edges)
        line = gl.line_graph(root).line
        assert line.n > 6, name
        roots = list(line_roots(gl.SimpleGraph(line.n, line.edges)))
        # Whitney: with more than six line vertices the root is unique
        assert len(roots) == 1, name
        assert gl.line_graph(roots[0]).line == line, name
        assert _stars(roots[0]) == _stars(root), name


def test_line_root_decides_one_edge_perturbations_like_networkx():
    """A line edge added to or removed from a line graph: a root is found,
    and certified, exactly when networkx finds one."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(34)
    found = Counter()
    for n in (50, 200, 50, 200):
        line = gl.line_graph(_shuffled_random_graph(rng, n, 2 * n)).line
        edges = set(map(tuple, line.edges.tolist()))
        for change in range(8):
            if change % 2:
                edge = tuple(sorted(rng.sample(range(line.n), 2)))
                perturbed = edges | {edge}
            else:
                edge = rng.choice(sorted(edges))
                perturbed = edges - {edge}
                if not nx.is_connected(nx.Graph(sorted(perturbed))):
                    continue
            graph = gl.SimpleGraph(line.n, tuple(sorted(perturbed)))
            try:
                nx.inverse_line_graph(nx.Graph(sorted(perturbed)))
                is_line = True
            except nx.NetworkXError:
                is_line = False
            roots = list(line_roots(graph))
            assert len(roots) == is_line, (n, edge)
            assert all(gl.line_graph(root).line == graph for root in roots)
            found[is_line] += 1
    # removing the one line edge of a degree-two root vertex splits it, so
    # some perturbations are line graphs again
    assert found[True] and found[False]
