"""Ordered simple graphs, orientations, incidence and line graphs.

Vertices are 0-based indices internally; the file format is 1-based to match
the usual way small examples are drawn.  Edges are normalized to (min, max)
pairs and keep their given order, so the default orientation and the line
graph are deterministic.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ValidationError, require_fields, require_type

#: Largest line graph built, in edges: about 250 bytes each while building.
MAX_LINE_EDGES = 1_000_000


@dataclass(frozen=True)
class SimpleGraph:
    """A finite, connected, simple graph.

    The one-vertex graph is the only graph without an edge; it is line_graph(K2),
    and it has no line graph of its own.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n, edges = self.n, tuple(self.edges)
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        if not edges and n > 1:
            raise ValidationError("graph needs at least one edge")
        norm = tuple([(u, v) if u < v else (v, u) for u, v in edges])
        if norm:
            # A few C-level passes decide; the per-edge scan runs only to
            # name the first bad edge.
            lo, hi = zip(*norm)
            if not (min(lo) >= 0 and max(hi) < n and all(map(operator.lt, lo, hi))
                    and len(set(norm)) == len(norm)):
                _raise_first_fault(n, edges)
        object.__setattr__(self, "edges", norm)
        # Connected needs n - 1 edges; checked before the BFS allocates n.
        if n > len(norm) + 1 or len(self._tree[1]) != n:
            raise ValidationError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices of its incident edges in edge order."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for k, (u, v) in enumerate(self.edges):
            out[u].append(k)
            out[v].append(k)
        return tuple(tuple(ks) for ks in out)

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The BFS tree from vertex 0, run once; read it through :func:`bfs_tree`."""
        return _bfs(self)

    @cached_property
    def _line(self) -> "LineGraphData":
        """The line graph, built once; read it through :func:`line_graph`."""
        if not self.edges:  # the one-vertex graph
            raise ValidationError("a graph with no edge has no line graph")
        size = _line_size(map(len, self.incidence))
        if size > MAX_LINE_EDGES:
            raise ValidationError(
                f"line graph of {size} edges exceeds cap {MAX_LINE_EDGES}")
        pairs = []
        for v, ks in enumerate(self.incidence):
            for a, i in enumerate(ks):
                for j in ks[a + 1:]:
                    pairs.append((i, j, v))
        # Two distinct edges of a simple graph share at most one vertex, so
        # the (i, j) pairs are distinct and sorting fixes the order.  The
        # line graph of a connected simple graph is connected and simple, so
        # it is built without a check.
        pairs.sort()
        return LineGraphData(_trusted(self.m, tuple((i, j) for i, j, _ in pairs)),
                             tuple(v for _, _, v in pairs))


def _line_size(degrees: Iterable[int]) -> int:
    """The number of line edges: a vertex of degree d joins C(d, 2) of them."""
    return sum(d * (d - 1) // 2 for d in degrees)


def _raise_first_fault(n: int, edges: tuple) -> None:
    """Scan the edges in order and raise for the first one that is out of
    range, a loop or a duplicate, naming its vertices 1-based as files do."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge {(u + 1, v + 1)} out of vertex range")
        if u == v:
            raise ValidationError(f"loop at vertex {u + 1}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge {(key[0] + 1, key[1] + 1)}")
        seen.add(key)


def _trusted(n: int, edges: tuple[tuple[int, int], ...]) -> SimpleGraph:
    """A SimpleGraph on ``edges`` that are already known to be (min, max)
    pairs of a connected simple graph on ``n`` vertices; nothing is checked."""
    graph = object.__new__(SimpleGraph)
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "edges", edges)
    return graph


def bfs_tree(graph: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """BFS from vertex 0: (parent per vertex, with the root its own parent;
    vertices in visiting order; per vertex the index of the tree edge that
    joins it to its parent, -1 at the root).  Run once per graph and shared."""
    return graph._tree


def _bfs(graph: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The BFS behind :func:`bfs_tree`; parent is -1 where unreached."""
    parent = [-1] * graph.n
    via = [-1] * graph.n
    parent[0] = 0
    order = [0]
    edges = graph.edges
    for u in order:
        for k in graph.incidence[u]:
            a, b = edges[k]
            w = a + b - u
            if parent[w] < 0:
                parent[w] = u
                via[w] = k
                order.append(w)
    return tuple(parent), tuple(order), tuple(via)


@dataclass(frozen=True)
class Orientation:
    """One ordered (tail, head) pair per edge, in edge order."""

    graph: SimpleGraph
    heads: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.heads) != self.graph.m:
            raise ValidationError("orientation must cover every edge exactly once")
        for (t, h), (a, b) in zip(self.heads, self.graph.edges):
            if (min(t, h), max(t, h)) != (a, b):
                # named 1-based, as files name vertices
                raise ValidationError(f"oriented pair {(t + 1, h + 1)} "
                                      f"does not match edge {(a + 1, b + 1)}")


def default_orientation(graph: SimpleGraph) -> Orientation:
    """Each edge oriented from its lower to its higher vertex index."""
    return Orientation(graph, graph.edges)


@dataclass(frozen=True)
class LineGraphData:
    """The line graph plus, for each line edge, the shared root vertex."""

    line: SimpleGraph
    shared_vertex: tuple[int, ...]


def line_graph(graph: SimpleGraph) -> LineGraphData:
    """Vertices are the edges of the input, in the same order.

    Line edges are ordered lexicographically by their (min, max) edge-index
    pair; each records the vertex the two edges share.  Built once per graph
    from its incidence lists, in O(sum of squared degrees).
    """
    return graph._line


def line_roots(line: SimpleGraph) -> Iterator[SimpleGraph]:
    """Every root R with ``line_graph(R).line == line``, one per labelled root
    up to renaming R's vertices.

    Edge k of R is vertex k of ``line``, so ``line``'s edges must come in
    sorted order.  Line vertices are placed in BFS order, each as the one
    root edge whose endpoints meet exactly its placed neighbours (Degiorgi
    and Simon, WG 1995).  By Whitney (Amer. J. Math. 54, 1932) a placed
    connected part with more than six vertices leaves at most one choice,
    and a line graph with more than six vertices has one labelled root.
    K3 (root K3 or K1,3), L(K4), L(K4 - e) and L(K1,3 + e) have more, so
    every choice for the first six vertices is tried.  O(n + m) per start;
    a root is yielded only when its line graph, built within the line-graph
    cap, equals ``line``.
    """
    edges = line.edges
    if any(map(operator.ge, edges, edges[1:])):
        return
    order, incidence = line._tree[1], line.incidence
    starts = [([None] * line.n, [])]  # (root ends per line vertex, line vertices per root vertex)
    for e in order[:6]:
        starts = [_placed(ends[:], [set(s) for s in star], choice, e)
                  for ends, star in starts
                  for choice in _choices(ends, star, edges, incidence[e], e)]
    seen = set()
    for ends, star in starts:
        for e in order[6:]:
            choice = next(_choices(ends, star, edges, incidence[e], e), None)
            if choice is None:
                break
            _placed(ends, star, choice, e)
        else:
            stars = frozenset(map(frozenset, star))
            if stars in seen:
                continue
            seen.add(stars)
            size = _line_size(map(len, star))
            if size != line.m or size > MAX_LINE_EDGES:
                return
            root = SimpleGraph(len(star), tuple(ends))
            if line_graph(root).line != line:
                return
            yield root
            if line.n > 6:
                return


def _choices(ends: list, star: list, edges: tuple, incident: tuple, e: int):
    """The root vertex pairs (p, q) that edge e can take, q None for a new
    vertex: every placed edge at p or q, and no other, meets e in ``line``."""
    placed = {w for a, b in map(edges.__getitem__, incident)
              for w in (a + b - e,) if ends[w] is not None}
    if not placed:  # the first vertex
        yield None, None
        return
    for p in ends[next(iter(placed))]:
        if star[p] <= placed:
            rest = placed - star[p]
            if not rest:
                yield p, None
            else:
                for q in ends[next(iter(rest))]:
                    if star[q] == rest:
                        yield p, q


def _placed(ends: list, star: list, choice: tuple, e: int) -> tuple[list, list]:
    """Place line vertex e as root edge ``choice``, new vertices appended."""
    p, q = choice
    if p is None:
        p = len(star)
        star.append(set())
    if q is None:
        q = len(star)
        star.append(set())
    ends[e] = (p, q)
    star[p].add(e)
    star[q].add(e)
    return ends, star


def incidence_matrix(graph: SimpleGraph) -> np.ndarray:
    """Classical 0/1 vertex-by-edge incidence matrix."""
    out = np.zeros((graph.n, graph.m), dtype=np.int64)
    for k, (u, v) in enumerate(graph.edges):
        out[u, k] = 1
        out[v, k] = 1
    return out


def classical_matrices(graph: SimpleGraph) -> dict[str, np.ndarray]:
    """Adjacency, degree, Laplacian and signless Laplacian over the integers."""
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    for u, v in graph.edges:
        a[u, v] = 1
        a[v, u] = 1
    deg = np.diag(a.sum(axis=1))
    return {
        "adjacency": a,
        "degree": deg,
        "laplacian": deg - a,
        "signless_laplacian": deg + a,
    }


def graph_from_dict(data: dict) -> SimpleGraph:
    """Parse ``{"n": 4, "edges": [[1,2], ...]}`` with 1-based vertices."""
    n, edges = require_fields(data, "graph description", "n", "edges")
    n = require_type(n, int, "graph field 'n'")
    edges = vertex_pairs(edges, "graph field 'edges'")
    try:
        return SimpleGraph(n, edges)
    except ValidationError as exc:
        raise InputError(str(exc))


def vertex_pairs(data: list, what: str) -> tuple[tuple[int, int], ...]:
    """Read ``what``, a JSON list of ``[a, b]`` pairs of 1-based vertices,
    as 0-based tuples."""
    pairs, one_pair, one_vertex = [], f"a pair in {what}", f"a vertex in {what}"
    for pair in require_type(data, list, what):
        if len(require_type(pair, list, one_pair)) != 2:
            raise InputError(f"{pair} in {what} must be a pair of vertices")
        a, b = pair
        if require_type(a, int, one_vertex) < 1 or require_type(b, int, one_vertex) < 1:
            raise InputError(f"vertices are 1-based; got {pair} in {what}")
        pairs.append((a - 1, b - 1))
    return tuple(pairs)


def graph_to_dict(graph: SimpleGraph) -> dict:
    return {"n": graph.n, "edges": [[u + 1, v + 1] for u, v in graph.edges]}
