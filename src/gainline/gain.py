"""Gain functions, their matrices, switching and balance.

Gains are stored only on the default (low-to-high) orientation; the reverse
gain is always computed as the group inverse, so the defining identity
psi(u,v) * psi(v,u) = 1 holds structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import CGMatrix
from .errors import InputError, ValidationError, _plain, require_fields, require_type
from .graph import SimpleGraph, _frozen, _graph_wire, graph_from_dict
from .group import (Element, FiniteGroup, _element_array, _group_wire, build_group,
                    require_central_weak_involution)


@dataclass(frozen=True, eq=False)
class GainFunction:
    """An edge labeling by group elements, one gain per stored edge.

    ``forward`` is a read-only (m,) ``np.intp`` array: per edge (u, v), u < v,
    the gain read from u to v.  It may be given as a tuple, a list or an
    array of integers.
    """

    graph: SimpleGraph
    group: FiniteGroup
    forward: np.ndarray

    def __post_init__(self):
        if len(self.forward) != self.graph.m:
            raise ValidationError("need exactly one gain per edge")
        object.__setattr__(self, "forward", _element_array(
            self.forward, (self.graph.m,), self.group.order,
            "each gain must be an integer element index", "gain index {x} out of range"))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GainFunction) and self.graph == other.graph
            and self.group == other.group and np.array_equal(self.forward, other.forward))

    def __hash__(self) -> int:
        return hash(self.forward.tobytes())

    def gain(self, u: int, v: int) -> Element:
        """The gain of the oriented edge (u, v), found among the edges at u
        in O(deg u)."""
        if 0 <= u < self.graph.n:
            indptr, indices = self.graph.incidence
            at = indices[indptr[u]:indptr[u + 1]]
            for k, (a, b) in zip(at.tolist(), self.graph.edges[at].tolist()):
                if a + b - u == v:
                    g = int(self.forward[k])
                    return g if u == a else self.group.inv[g]
        raise InputError(f"vertices {u} and {v} are not adjacent")


def constant_gain(graph: SimpleGraph, group: FiniteGroup, s: Element) -> GainFunction:
    """The constant gain s; s must be a weak involution so that it is a
    well-defined gain on unordered edges."""
    if group.mul(s, s) != 0:  # mul range-checks s
        raise ValidationError("constant gain requires s with s^2 = 1")
    return GainFunction(graph, group, _frozen(np.full(graph.m, s)))


def gain_adjacency(psi: GainFunction) -> CGMatrix:
    """The adjacency matrix over CG; satisfies A* = A."""
    return _adjacency(psi, psi.forward, ())


def s_laplacian(psi: GainFunction, s: Element) -> CGMatrix:
    """deg(Gamma, G) + s * adjacency, for a central weak involution s."""
    G = psi.group
    require_central_weak_involution(G, s, "s")
    # s is central and s^2 = 1, so s psi is a gain: s g^-1 = (s g)^-1.
    return _adjacency(psi, G.table[s][psi.forward], psi.graph.degrees)


def _adjacency(psi: GainFunction, forward: np.ndarray, degrees) -> CGMatrix:
    """The adjacency matrix of the gain ``forward`` on psi's edges, plus
    degrees[i] times the identity at (i, i) for each given degree."""
    (u, v), k, n = psi.graph.edges.T, np.arange(len(degrees)), psi.graph.n
    return CGMatrix._from_terms(
        psi.group, (n, n), np.concatenate((k, u, v)), np.concatenate((k, v, u)),
        np.concatenate((np.zeros_like(k), forward, psi.group.inverse[forward])),
        np.concatenate((degrees, np.ones(2 * len(u)))))


def switch(psi: GainFunction, f: Sequence[Element]) -> GainFunction:
    """psi^f with psi^f(u, v) = f(u)^-1 psi(u, v) f(v), for f a group
    element per vertex."""
    if len(f) != psi.graph.n:
        raise ValidationError("switching function must assign a value per vertex")
    G = psi.group
    f = _element_array(f, (psi.graph.n,), G.order,
                       "each switching value must be an integer element index",
                       "element index {x} out of range")
    u, v = psi.graph.edges.T
    return GainFunction(psi.graph, G, _frozen(G.table[G.table[G.inverse[f[u]], psi.forward], f[v]]))


def walk_gain(psi: GainFunction, walk: Sequence[int]) -> Element:
    """The ordered product of gains along a walk of vertices."""
    if len(walk) < 1:
        raise InputError("walk must contain at least one vertex")
    mult = psi.group.mult
    g = psi.group.identity
    for u, v in zip(walk, walk[1:]):
        g = mult[g][psi.gain(u, v)]
    return g


def balance_witness(psi: GainFunction) -> tuple[Element, ...] | None:
    """A switching function f, one element per vertex, with psi^f = 1
    constant, or None."""
    return switching_to(psi, constant_gain(psi.graph, psi.group, psi.group.identity))


def switching_to(psi1: GainFunction, psi2: GainFunction) -> tuple[Element, ...] | None:
    """Some f, one element per vertex, with psi2 = psi1^f, or None if the
    gains are not equivalent.

    The potentials p(v) and q(v) are the psi1 and psi2 gains along a
    spanning-tree path from vertex 0 (see :func:`_potentials`), and edge
    (u, v) closes a cycle with gains c1 = p(u) psi1(u,v) p(v)^-1 and
    c2 = q(u) psi2(u,v) q(v)^-1.  The f with psi1^f = psi2 are
    f(v) = p(v)^-1 s q(v) for the seeds s with s^-1 c1 s = c2 on every edge;
    seeds are tried identity first.  On a connected graph the f with
    f(0) = s is unique, so the seeds that admit one, and the witness, are
    the same whichever spanning tree gives the potentials.
    """
    if psi1.graph != psi2.graph:
        raise ValidationError("gain functions live on different graphs")
    if psi1.group != psi2.group:
        raise ValidationError("gain functions take values in different groups")
    G = psi1.group
    T, inv = G.table, G.inverse
    p, q = _potentials(psi1.graph, np.stack((psi1.forward, psi2.forward)), T, inv)
    # The cycle gains are gathers over the edge columns; each seed is tested
    # on their distinct pairs.
    u, v = psi1.graph.edges.T
    c1 = T[T[p[u], psi1.forward], inv[p[v]]]
    c2 = T[T[q[u], psi2.forward], inv[q[v]]]
    c1, c2 = np.divmod(np.unique(c1 * G.order + c2), G.order)
    # A seed conjugates every pair, so one gather over all seeds on the last
    # pair, whose c1 is the largest, leaves the candidates, still in order.
    seeds = np.arange(G.order)
    if c1.size:
        seeds = seeds[T[T[inv, c1[-1]], seeds] == c2[-1]]
    for s in seeds.tolist():
        if np.array_equal(T[T[inv[s], c1], s], c2):
            return tuple(T[T[inv[p], s], q].tolist())
    return None


def _potentials(graph: SimpleGraph, gains: np.ndarray, T: np.ndarray,
                inv: np.ndarray) -> np.ndarray:
    """Per row of ``gains`` (one gain per edge, read from its lower end), the
    potential of each vertex: the product of the gains along a path of one
    spanning tree from vertex 0.

    The tree is grown by the hooking and pointer jumping of
    ``graph._connected`` (Shiloach and Vishkin, J. Algorithms 3, 1982), with
    no search.  Each vertex v keeps its root comp[v] and the gain w[v] of a
    tree path from that root to v, so p(v) = p(comp[v]) w[v].  Each round one
    scatter gives every hooked root R its new root S, the smallest adjacent
    one, and the first edge (x, y) that joins them, x under S and y under R;
    R gets w[R] = w[x] g(x -> y) w[y]^-1.  Pointer jumping composes
    w[comp[v]] w[v].  Roots only hook onto smaller roots, so vertex 0 is the
    last root and its potential is the identity.
    """
    n, m = graph.n, graph.m
    lo, hi = graph.edges.T
    comp = np.arange(n)
    w = np.zeros((len(gains), n), dtype=np.intp)  # the identity is 0
    while True:
        a, b = comp[lo], comp[hi]
        k = np.flatnonzero(a != b)
        if not k.size:
            return w
        best = np.full(n, n * m)
        np.minimum.at(best, np.maximum(a[k], b[k]), np.minimum(a[k], b[k]) * m + k)
        R = np.flatnonzero(best < n * m)
        S, k = np.divmod(best[R], m)
        low_under_R = a[k] == R
        y = np.where(low_under_R, lo[k], hi[k])
        x = lo[k] + hi[k] - y
        g = gains[:, k]
        g = np.where(low_under_R, inv[g], g)  # the gain from x to y
        w[:, R] = T[T[w[:, x], g], inv[w[:, y]]]
        comp[R] = S
        while True:
            up = comp[comp]
            if np.array_equal(up, comp):
                break
            w = T[w[:, comp], w]
            comp = up


# -- serialization ----------------------------------------------------------

def gain_from_dict(data: dict) -> GainFunction:
    """Parse ``{"graph": ..., "group": ..., "gains": ["-i", ...]}``.

    Gains are labels, one per edge in edge order, read on the default
    orientation.
    """
    graph, group, gains = require_fields(data, "gain description",
                                         "graph", "group", "gains")
    graph, group = graph_from_dict(graph), build_group(group)
    if len(require_type(gains, list, "gain field 'gains'")) != graph.m:
        raise InputError(
            f"expected {graph.m} gains (one per edge), got {len(gains)}")
    try:  # one C-level pass; the scan names the first unknown label
        forward = np.fromiter(map(group._label_index.__getitem__, gains), np.intp, graph.m)
    except (KeyError, TypeError):
        forward = np.fromiter(map(group.element, gains), np.intp, graph.m)
    return GainFunction(graph, group, _frozen(forward))


def _gain_wire(psi: GainFunction) -> dict:
    """The wire form of psi, the grids of its graph and group left arrays."""
    return {"graph": _graph_wire(psi.graph), "group": _group_wire(psi.group),
            "gains": list(map(psi.group.labels.__getitem__, psi.forward.tolist()))}


def gain_to_dict(psi: GainFunction) -> dict:
    return _plain(_gain_wire(psi))
