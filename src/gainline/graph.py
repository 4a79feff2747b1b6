"""Ordered simple graphs, orientations, incidence and line graphs.

Vertices are 0-based indices internally; the file format is 1-based to match
the usual way small examples are drawn.  Edges are normalized to (min, max)
pairs and keep their given order, so the default orientation and the line
graph are deterministic.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import InputError, ValidationError, _plain, require_fields, require_type

#: Largest line graph built, in edges: about 80 bytes each while building.
MAX_LINE_EDGES = 1_000_000

#: Largest n whose edge keys ``lo * n + hi`` fit in an intp.
_KEY_MAX_N = math.isqrt(np.iinfo(np.intp).max)


@dataclass(frozen=True, eq=False)
class SimpleGraph:
    """A finite, connected, simple graph.

    ``edges`` is a read-only (m, 2) ``np.intp`` array of (min, max) rows in
    the given edge order.  The one-vertex graph is the only graph without an
    edge; it is line_graph(K2), and it has no line graph of its own.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValidationError("graph needs at least one vertex")
        ends = _pairs(self.edges)
        if n > _KEY_MAX_N:  # bounds and keys in exact integers; never connected
            ends = ends.astype(object)
        m = len(ends)
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        # Faults by masks: the lowest faulty edge is named, range before loop
        # before duplicate, 1-based as files name vertices.
        out, loop = (lo < 0) | (hi >= n), lo == hi
        fault, key = out | loop, lo * n + hi
        # A sort decides whether a key repeats; only then does np.unique,
        # which gives the first edge of each key, mark the later copies.
        if (np.diff(np.sort(key)) == 0).any():
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            fault |= first[inverse] != np.arange(m)
        bad = np.flatnonzero(fault)
        if bad.size:
            k = bad[0]
            u, v = ends[k].tolist()
            if out[k]:
                raise ValidationError(f"edge {(u + 1, v + 1)} out of vertex range")
            if loop[k]:
                raise ValidationError(f"loop at vertex {u + 1}")
            u, v = sorted((u, v))
            raise ValidationError(f"duplicate edge {(u + 1, v + 1)}")
        if not m and n > 1:
            raise ValidationError("graph needs at least one edge")
        # Connected needs n - 1 edges; checked before any n-sized array.
        if n > m + 1 or not _connected(n, lo, hi):
            raise ValidationError("graph is not connected")
        object.__setattr__(self, "edges", _frozen(np.stack((lo, hi), axis=1)))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, SimpleGraph) and self.n == other.n
            and np.array_equal(self.edges, other.edges))

    def __hash__(self) -> int:
        return hash((self.n, self.edges.tobytes()))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def degrees(self) -> np.ndarray:
        """The degree of each vertex, read-only."""
        return _frozen(np.bincount(self.edges.ravel(), minlength=self.n))

    @cached_property
    def incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence (indptr, indices): the edges at vertex v are
        ``indices[indptr[v]:indptr[v + 1]]``, in edge order.  Read-only."""
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(self.degrees, out=indptr[1:])
        return _frozen(indptr), _frozen(np.argsort(self.edges.ravel(), kind="stable") // 2)

    @cached_property
    def _tree(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The BFS tree from vertex 0, run once; read it through :func:`bfs_tree`."""
        return _bfs(self)

    @cached_property
    def _line(self) -> "LineGraphData":
        """The line graph, built once; read it through :func:`line_graph`."""
        if not self.m:  # the one-vertex graph
            raise ValidationError("a graph with no edge has no line graph")
        deg = self.degrees
        size = _line_size(deg)
        if size > MAX_LINE_EDGES:
            raise ValidationError(
                f"line graph of {size} edges exceeds cap {MAX_LINE_EDGES}")
        # Each CSR slot s of vertex v pairs with the later slots of v, so the
        # pairs at v are its C(deg v, 2) slot pairs, listed vertex by vertex.
        indptr, indices = self.incidence
        later = np.repeat(indptr[1:], deg) - np.arange(2 * self.m) - 1
        first = np.repeat(np.arange(2 * self.m), later)
        second = first + np.arange(size) - np.repeat(np.cumsum(later) - later, later) + 1
        i, j = indices[first], indices[second]
        # Incidence lists are in edge order, so i < j; two distinct edges of a
        # simple graph share at most one vertex, so the keys are distinct and
        # sorting fixes the order.  The line graph of a connected simple graph
        # is connected and simple, so it is built without a check.
        order = np.argsort(i * self.m + j)
        shared = np.repeat(np.arange(self.n), deg * (deg - 1) // 2)[order]
        return LineGraphData(_trusted(self.m, np.stack((i[order], j[order]), axis=1)),
                             _frozen(shared))


def _pairs(pairs) -> np.ndarray:
    """``pairs`` as an (m, 2) array: intp, or object where a vertex does not
    fit in intp, so that checks on it stay exact."""
    try:
        out = np.array(pairs, dtype=np.intp)
    except OverflowError:
        out = np.array(pairs, dtype=object)
    return out.reshape(len(out), 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as intp, marked read-only."""
    a = a.astype(np.intp, copy=False)
    a.flags.writeable = False
    return a


def _connected(n: int, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the edges (lo, hi) join all n vertices.

    Each round, every root hooks onto the smallest root it shares an edge
    with, and pointer jumping then flattens every tree.  A root left alone
    is next to a tree that hooked below it, so it hooks in the next round:
    the trees halve every two rounds, O(log n) rounds of O(n + m) each.
    Vertex 0 is the smallest root, so the graph is connected when every edge
    lies in one tree and every label is 0.
    """
    comp = np.arange(n)
    while True:
        a, b = comp[lo], comp[hi]
        cross = a != b
        if not cross.any():
            return not comp.any()
        a, b = a[cross], b[cross]
        np.minimum.at(comp, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = comp[comp]
            if np.array_equal(up, comp):
                break
            comp = up


def _line_size(degrees: np.ndarray) -> int:
    """The number of line edges: a vertex of degree d joins C(d, 2) of them."""
    return int((degrees * (degrees - 1) // 2).sum())


def _trusted(n: int, edges: np.ndarray) -> SimpleGraph:
    """A SimpleGraph on ``edges`` that are already known to be (min, max)
    rows of a connected simple graph on ``n`` vertices; nothing is checked."""
    graph = object.__new__(SimpleGraph)
    object.__setattr__(graph, "n", n)
    object.__setattr__(graph, "edges", _frozen(edges))
    return graph


def bfs_tree(graph: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """BFS from vertex 0: (parent per vertex, with the root its own parent;
    vertices in visiting order; per vertex the index of the tree edge that
    joins it to its parent, -1 at the root).  Run once per graph and shared."""
    return graph._tree


def _bfs(graph: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The BFS behind :func:`bfs_tree`; parent is -1 where unreached."""
    indptr, indices = graph.incidence
    # per CSR slot, the vertex at the other end of its edge
    far = (graph.edges[indices, 0] + graph.edges[indices, 1]
           - np.repeat(np.arange(graph.n), graph.degrees))
    indptr, indices, far = indptr.tolist(), indices.tolist(), far.tolist()
    parent = [-1] * graph.n
    via = [-1] * graph.n
    parent[0] = 0
    order = [0]
    for u in order:
        for s in range(indptr[u], indptr[u + 1]):
            w = far[s]
            if parent[w] < 0:
                parent[w] = u
                via[w] = indices[s]
                order.append(w)
    return tuple(parent), tuple(order), tuple(via)


@dataclass(frozen=True, eq=False)
class Orientation:
    """One ordered (tail, head) row per edge, in edge order, as a read-only
    (m, 2) ``np.intp`` array."""

    graph: SimpleGraph
    heads: np.ndarray

    def __post_init__(self):
        heads = _pairs(self.heads)
        if len(heads) != self.graph.m:
            raise ValidationError("orientation must cover every edge exactly once")
        edges = self.graph.edges
        tail, head = heads[:, 0], heads[:, 1]
        bad = np.flatnonzero((np.minimum(tail, head) != edges[:, 0])
                             | (np.maximum(tail, head) != edges[:, 1]))
        if bad.size:
            # named 1-based, as files name vertices
            (t, h), (a, b) = heads[bad[0]].tolist(), edges[bad[0]].tolist()
            raise ValidationError(f"oriented pair {(t + 1, h + 1)} "
                                  f"does not match edge {(a + 1, b + 1)}")
        object.__setattr__(self, "heads", _frozen(heads))


def default_orientation(graph: SimpleGraph) -> Orientation:
    """Each edge oriented from its lower to its higher vertex index."""
    return Orientation(graph, graph.edges)


@dataclass(frozen=True, eq=False)
class LineGraphData:
    """The line graph plus, for each line edge, the shared root vertex (a
    read-only ``np.intp`` array)."""

    line: SimpleGraph
    shared_vertex: np.ndarray


def line_graph(graph: SimpleGraph) -> LineGraphData:
    """Vertices are the edges of the input, in the same order.

    Line edges are ordered lexicographically by their (min, max) edge-index
    pair; each records the vertex the two edges share.  Built once per graph
    from its CSR incidence, in O(sum of squared degrees) array work.
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
    edges = line.edges.tolist()
    if any(map(operator.ge, edges, edges[1:])):
        return
    indptr, indices = (a.tolist() for a in line.incidence)
    incidence = [indices[a:b] for a, b in zip(indptr, indptr[1:])]
    order = line._tree[1]
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
            size = _line_size(np.fromiter(map(len, star), np.intp))
            if size != line.m or size > MAX_LINE_EDGES:
                return
            root = SimpleGraph(len(star), tuple(ends))
            if line_graph(root).line != line:
                return
            yield root
            if line.n > 6:
                return


def _choices(ends: list, star: list, edges: list, incident: list, e: int):
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
    out[graph.edges, np.arange(graph.m)[:, None]] = 1
    return out


def classical_matrices(graph: SimpleGraph) -> dict[str, np.ndarray]:
    """Adjacency, degree, Laplacian and signless Laplacian over the integers."""
    a = np.zeros((graph.n, graph.n), dtype=np.int64)
    u, v = graph.edges.T
    a[u, v] = a[v, u] = 1
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


def vertex_pairs(data: list, what: str) -> np.ndarray:
    """Read ``what``, a JSON list of ``[a, b]`` pairs of 1-based vertices,
    as an (m, 2) array of 0-based vertices: intp, or object if a vertex does
    not fit in intp.

    C-level type passes come first, since numpy reads a JSON ``true`` as 1;
    the array is built only once every vertex is an exact int, and kept only
    if none is below 1.  Otherwise the per-pair scan names the first fault.
    """
    pairs = require_type(data, list, what)
    if set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2} \
            and set(map(type, chain.from_iterable(pairs))) <= {int}:
        try:
            flat = np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs))
        except OverflowError:  # a vertex past intp: the scan keeps it exact
            flat = None
        if flat is not None and (not flat.size or flat.min() >= 1):
            return (flat - 1).reshape(-1, 2)
    one_pair, one_vertex = f"a pair in {what}", f"a vertex in {what}"
    for pair in pairs:
        if len(require_type(pair, list, one_pair)) != 2:
            raise InputError(f"{pair} in {what} must be a pair of vertices")
        a, b = pair
        if require_type(a, int, one_vertex) < 1 or require_type(b, int, one_vertex) < 1:
            raise InputError(f"vertices are 1-based; got {pair} in {what}")
    return _pairs([[a - 1, b - 1] for a, b in pairs])


def _graph_wire(graph: SimpleGraph) -> dict:
    """The wire form of a graph, its 1-based ``edges`` left an (m, 2) array."""
    return {"n": graph.n, "edges": graph.edges + 1}


def graph_to_dict(graph: SimpleGraph) -> dict:
    return _plain(_graph_wire(graph))
