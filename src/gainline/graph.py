"""Ordered simple graphs, orientations, incidence and line graphs.

Vertices are 0-based indices internally; the file format is 1-based to match
the usual way small examples are drawn.  Edges are normalized to (min, max)
pairs and keep their given order, so the default orientation and the line
graph are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, ValidationError


@dataclass(frozen=True)
class SimpleGraph:
    """A finite, connected, simple graph.

    Input graphs always carry at least one edge; the single-vertex edgeless
    graph is allowed only so that line_graph(K2) has an image.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("graph needs at least one vertex")
        if not self.edges and self.n > 1:
            raise ValidationError("graph needs at least one edge")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValidationError(f"edge {e} out of vertex range")
            if u == v:
                raise ValidationError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        # Connected needs n - 1 edges; checked before the BFS allocates n.
        if self.n > len(norm) + 1 or len(bfs_tree(self)[1]) != self.n:
            raise ValidationError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_index

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Map (min, max) endpoint pair -> edge position."""
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, the indices of its incident edges in edge order."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for k, (u, v) in enumerate(self.edges):
            out[u].append(k)
            out[v].append(k)
        return tuple(tuple(ks) for ks in out)

    @cached_property
    def _line(self) -> "LineGraphData":
        """The line graph, built once; read it through :func:`line_graph`."""
        pairs = []
        for v, ks in enumerate(self.incidence):
            for a, i in enumerate(ks):
                for j in ks[a + 1:]:
                    pairs.append((i, j, v))
        # Two distinct edges of a simple graph share at most one vertex, so
        # the (i, j) pairs are distinct and sorting fixes the order.
        pairs.sort()
        return LineGraphData(SimpleGraph(self.m, tuple((i, j) for i, j, _ in pairs)),
                             tuple(v for _, _, v in pairs))

    def incident_edges(self, v: int) -> list[int]:
        return list(self.incidence[v])

    def degree(self, v: int) -> int:
        return len(self.incidence[v])


def bfs_tree(graph: SimpleGraph) -> tuple[list[int], list[int]]:
    """BFS from vertex 0: (parent per vertex, with the root its own parent
    and -1 where unreached; reached vertices in visiting order)."""
    parent = [-1] * graph.n
    parent[0] = 0
    order = [0]
    for u in order:
        for k in graph.incidence[u]:
            a, b = graph.edges[k]
            w = a + b - u
            if parent[w] < 0:
                parent[w] = u
                order.append(w)
    return parent, order


@dataclass(frozen=True)
class Orientation:
    """One ordered (tail, head) pair per edge, in edge order."""

    graph: SimpleGraph
    heads: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.heads) != self.graph.m:
            raise ValidationError("orientation must cover every edge exactly once")
        for k, (t, h) in enumerate(self.heads):
            if (min(t, h), max(t, h)) != self.graph.edges[k]:
                raise ValidationError(
                    f"oriented pair {(t, h)} does not match edge {self.graph.edges[k]}")

    def reversed(self) -> "Orientation":
        return Orientation(self.graph, tuple((h, t) for t, h in self.heads))


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
    try:
        n = int(data["n"])
        edges = data["edges"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"graph description needs integer 'n' and 'edges': {exc}")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of vertex pairs")
    if not edges:
        raise InputError("input graph needs at least one edge")
    converted = []
    for e in edges:
        try:
            a, b = e
            u, v = int(a) - 1, int(b) - 1
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"edge {e} must be a pair of integer endpoints")
        if u < 0 or v < 0:
            raise InputError(f"vertices are 1-based; got edge {e}")
        converted.append((u, v))
    try:
        return SimpleGraph(n, tuple(converted))
    except ValidationError as exc:
        raise InputError(str(exc))


def graph_to_dict(graph: SimpleGraph) -> dict:
    return {"n": graph.n, "edges": [[u + 1, v + 1] for u, v in graph.edges]}
