"""Ordered simple graphs, orientations, incidence and line graphs.

Vertices are 0-based indices internally; the file format is 1-based to match
the usual way small examples are drawn.  Edges are normalized to (min, max)
pairs and keep their given order, so the default orientation and the line
graph are deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

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
        # Ends sorted by vertex, then by slot 2k or 2k + 1 of edge k: the keys,
        # below n 2m, are distinct, so an unstable sort gives the stable order.
        slots = 2 * self.m
        order = np.argsort(self.edges.ravel() * slots + np.arange(slots))
        return _frozen(indptr), _frozen(order // 2)

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
    up to renaming R's vertices, which are numbered by first appearance.

    Edge k of R is vertex k of ``line``, so ``line``'s edges must come in
    sorted order.  The roots are read off the Krausz stars, the cliques of
    the line edges at one root vertex, found by array passes over the CSR
    incidence; an adjacency test is a ``searchsorted`` of a packed key.

    Let line vertex a be the root edge xy, its smallest neighbour b = xw,
    and A_z the other edges at z, a clique.  N(a) is A_x and A_y, and
    P(a) = {b} + (N(a) & N(b)) is A_x plus c = yw when R has the triangle
    xyw.  With p the smallest of P(a) - {b} and D the rest of P(a) not
    adjacent to p: p in A_x gives D = {c} or none, and p = c gives
    D = A_x - {b}, so s = |P(a)| = |D| + 2.  So |D| >= 2 makes p the c,
    |D| = 0 < s - 2 leaves no c, and |D| = 1 < s - 2 makes D's vertex the c.
    Otherwise, s = 2 or s = 3 = |D| + 2, T = {a, b, p} is a root triangle
    (c = p) or a star at x of degree 3 (c in D or none), and its parity
    decides (van Rooij and Wilf, Period. Math. Hungar. 1, 1965): every
    other line vertex meets 0 or 2 vertices of a root triangle, and some
    meets 1 of a star unless every other edge at its three far ends joins
    two of them, which leaves R inside a K4, at most six line vertices.  No
    line vertex meets all of T, since N(a) & N(b) - {p} is empty or not
    adjacent to p, so T is even iff the degrees of T sum to 6 plus twice
    the common neighbours of its three line edges, each less one: s - 1
    for (a, b), and the other two counted on the shorter neighbour list.
    These cases have d_x <= 3, so each b serves at most two at each end
    and the counts read at most 10 m neighbours of a line graph; past that
    there is no root.  With six line vertices or fewer both readings of
    each case are tried, which yields both roots of Whitney's exceptions
    (Amer. J. Math. 54, 1932): K3 (root K3 or K1,3), L(K1,3 + e), L(K4 - e)
    and L(K4).

    Line edge (a, z) then lies in the star at x if z is in P(a) - {c} and
    at y otherwise, and the side (a, x) or (a, y) is numbered 2a or 2a + 1.
    A star is a clique, so its smallest side is one step from each of its
    sides and one minimum labels it; a side with no line edge is a leaf.
    O(m log m); a root is yielded only when its line graph, built within
    the line-graph cap, equals ``line``.
    """
    n, m = line.n, line.m
    lo, hi = line.edges.T
    keys = lo * n + hi  # a connected graph has n <= m + 1, so no key overflows
    if m > MAX_LINE_EDGES or (keys[1:] <= keys[:-1]).any():
        return
    seen = set()
    for ends in _root_ends(line, keys):
        degrees = np.bincount(ends.ravel())
        if (ends[:, 0] == ends[:, 1]).any() or _line_size(degrees) != m:
            continue
        # A root is its stars, the line vertices at each of its vertices.
        stars = frozenset(frozenset(np.flatnonzero((ends == v).any(axis=1)).tolist())
                          for v in range(len(degrees))) if n <= 6 else None
        # Unchecked: its line graph equals line, which is simple and
        # connected, only if the root is too.
        root = _trusted(len(degrees), np.sort(ends, axis=1))
        if stars not in seen and line_graph(root).line == line:
            seen.add(stars)
            yield root


def _root_ends(line: SimpleGraph, keys: np.ndarray) -> Iterator[np.ndarray]:
    """The candidate roots of :func:`line_roots`, as the (n, 2) array of the
    root vertices of each line vertex: one, or one per reading of the
    undecided triangles when there are at most six line vertices."""
    n, m = line.n, line.m
    if not m:  # the one-vertex graph is the line graph of K2
        yield np.array([[0, 1]])
        return

    def adjacent(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Whether each u is a neighbour of v.  Below b(v), v's smallest
        neighbour, none is, so only those above b(v) are looked up."""
        least = b[v]
        out = u == least
        ask = np.flatnonzero(u > least)
        lo, hi = np.minimum(u[ask], v[ask]), np.maximum(u[ask], v[ask])
        q = lo * n + hi  # never a key where u == v
        out[ask] = keys[np.minimum(np.searchsorted(keys, q), m - 1)] == q
        return out

    def first_of(mask: np.ndarray) -> np.ndarray:
        """Per line vertex, its first slot in ``mask``, or 2m if none."""
        return np.minimum.reduceat(np.where(mask, slots, 2 * m), first)

    indptr, indices = line.incidence
    first, deg, slots = indptr[:-1], np.diff(indptr), np.arange(2 * m)
    src = np.repeat(np.arange(n), deg)  # per slot, its line vertex a
    flat = line.edges.ravel()
    end = 2 * indices + (flat[2 * indices + 1] == src)  # per slot, its end in flat
    nbr = flat[end ^ 1]  # per slot, the neighbour, ascending per line vertex
    rev = np.empty(2 * m, dtype=np.intp)
    rev[end] = slots
    rev = rev[end ^ 1]  # the slot of the same line edge at nbr
    b = nbr[first]  # per line vertex, its smallest neighbour
    shared = adjacent(b[src], nbr)  # P(a) - {b}
    s = np.add.reduceat(shared, first) + 1
    p_slot = first_of(shared)
    p = nbr[np.minimum(p_slot, 2 * m - 1)]  # valid where s >= 2
    rest = np.flatnonzero(shared & (slots != p_slot[src]))
    far = np.zeros(2 * m, dtype=bool)
    far[rest[~adjacent(p[src[rest]], nbr[rest])]] = True
    r, r_slot = np.add.reduceat(far, first), first_of(far)
    c_slot = np.where(r >= 2, p_slot, np.where((r == 1) & (s >= 4), r_slot, -1))
    amb = np.flatnonzero((s == 2) | ((s == 3) & (r == 1)))
    star = np.where(s[amb] == 3, r_slot[amb], -1)  # c where T is a star
    if n > 6 and amb.size:
        u = np.concatenate((amb, b[amb]))
        v = np.concatenate((p[amb], p[amb]))
        w = np.where(deg[u] <= deg[v], u, v)
        size = deg[w]
        total = int(size.sum())
        if total > 10 * m:
            return
        start = np.cumsum(size) - size
        z = nbr[np.repeat(indptr[w] - start, size) + np.arange(total)]
        o = np.repeat(u + v - w, size)
        common = np.add.reduceat(adjacent(o, z), start)
        even = (deg[amb] + deg[b[amb]] + deg[p[amb]] - 6
                == 2 * (s[amb] + common.reshape(2, -1).sum(axis=0) - 4))
        c_slot[amb] = np.where(even, p_slot[amb], star)
    readings = [()] if n > 6 else product((False, True), repeat=amb.size)
    for root_triangle in readings:
        if n <= 6:
            c_slot[amb] = np.where(root_triangle, p_slot[amb], star)
        side = ~shared
        side[first] = False
        side[c_slot[c_slot >= 0]] = True
        # per slot (a, z): the side of z that holds line edge (a, z), the
        # smallest on a's side x being b's at a's first slot; past the last
        # slot, 2n leaves a side with no line edge its own number, a leaf
        held = np.append(2 * nbr + side[rev], 2 * n)
        own = 2 * np.arange(n)
        label = np.stack((np.minimum(own, held[first]),
                          np.minimum(own + 1, held[first_of(side)])), axis=1)
        used = np.zeros(2 * n, dtype=bool)
        used[label] = True
        yield (np.cumsum(used) - 1)[label]


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
