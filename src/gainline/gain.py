"""Gain functions, their matrices, switching and balance.

Gains are stored only on the default (low-to-high) orientation; the reverse
gain is always computed as the group inverse, so the defining identity
psi(u,v) * psi(v,u) = 1 holds structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, CGMatrix
from .errors import InputError, ValidationError, require_fields, require_type
from .graph import SimpleGraph, bfs_tree, graph_from_dict, graph_to_dict
from .group import (Element, FiniteGroup, build_group, group_to_dict,
                    require_central_weak_involution)


@dataclass(frozen=True)
class GainFunction:
    """An edge labeling by group elements, one gain per stored edge."""

    graph: SimpleGraph
    group: FiniteGroup
    forward: tuple[Element, ...]

    def __post_init__(self):
        if len(self.forward) != self.graph.m:
            raise ValidationError("need exactly one gain per edge")
        for g in self.forward:
            if not 0 <= g < self.group.order:
                raise ValidationError(f"gain index {g} out of range")

    def gain(self, u: int, v: int) -> Element:
        """The gain of the oriented edge (u, v), found among the edges at u
        in O(deg u)."""
        if 0 <= u < self.graph.n:
            indptr, indices = self.graph.incidence
            for k in indices[indptr[u]:indptr[u + 1]].tolist():
                a, b = self.graph.edges[k].tolist()
                if a + b - u == v:
                    return self.forward[k] if u == a else self.group.invert(self.forward[k])
        raise InputError(f"vertices {u} and {v} are not adjacent")


def constant_gain(graph: SimpleGraph, group: FiniteGroup, s: Element) -> GainFunction:
    """The constant gain s; s must be a weak involution so that it is a
    well-defined gain on unordered edges."""
    if group.mul(s, s) != 0:  # mul range-checks s
        raise ValidationError("constant gain requires s with s^2 = 1")
    return GainFunction(graph, group, (s,) * graph.m)


def gain_adjacency(psi: GainFunction) -> CGMatrix:
    """The adjacency matrix over CG; satisfies A* = A."""
    G = psi.group
    n = psi.graph.n
    # Entries are never mutated, so equal entries share one object.
    unit = [AlgebraElement.unit(G, g) for g in G.elements()]
    support = {}
    for (u, v), g in zip(psi.graph.edges.tolist(), psi.forward):
        support[u, v] = unit[g]
        support[v, u] = unit[G.inv[g]]
    return CGMatrix(G, support, (n, n))


def s_laplacian(psi: GainFunction, s: Element) -> CGMatrix:
    """deg(Gamma, G) + s * adjacency, for a central weak involution s."""
    G = psi.group
    require_central_weak_involution(G, s, "s")
    # s is central and s^2 = 1, so s psi is a gain: s g^-1 = (s g)^-1.
    s_row = G.mult[s]
    adj = gain_adjacency(GainFunction(psi.graph, G, tuple(s_row[g] for g in psi.forward)))
    degrees = {(i, i): AlgebraElement(G, {G.identity: d})
               for i, d in enumerate(psi.graph.degrees.tolist())}
    return CGMatrix(G, adj.support | degrees, (adj.rows, adj.cols))


def switch(psi: GainFunction, f: Sequence[Element]) -> GainFunction:
    """psi^f with psi^f(u, v) = f(u)^-1 psi(u, v) f(v), for f a group
    element per vertex."""
    if len(f) != psi.graph.n:
        raise ValidationError("switching function must assign a value per vertex")
    G = psi.group
    return GainFunction(psi.graph, G, tuple(G.mul(G.invert(f[u]), G.mul(g, f[v]))
                                            for (u, v), g in zip(psi.graph.edges.tolist(), psi.forward)))


def walk_gain(psi: GainFunction, walk: Sequence[int]) -> Element:
    """The ordered product of gains along a walk of vertices."""
    if len(walk) < 1:
        raise InputError("walk must contain at least one vertex")
    G = psi.group
    g = G.identity
    for u, v in zip(walk, walk[1:]):
        g = G.mul(g, psi.gain(u, v))
    return g


def balance_witness(psi: GainFunction) -> tuple[Element, ...] | None:
    """A switching function f, one element per vertex, with psi^f = 1
    constant, or None."""
    return switching_to(psi, constant_gain(psi.graph, psi.group, psi.group.identity))


def switching_to(psi1: GainFunction, psi2: GainFunction) -> tuple[Element, ...] | None:
    """Some f, one element per vertex, with psi2 = psi1^f, or None if the
    gains are not equivalent.

    The potentials p(v) and q(v) are the psi1 and psi2 gains along the BFS
    tree path from vertex 0, and edge (u, v) closes a cycle with gains
    c1 = p(u) psi1(u,v) p(v)^-1 and c2 = q(u) psi2(u,v) q(v)^-1.  The f with
    psi1^f = psi2 are f(v) = p(v)^-1 s q(v) for the seeds s with
    s^-1 c1 s = c2 on every edge; seeds are tried identity first.
    """
    if psi1.graph != psi2.graph:
        raise ValidationError("gain functions live on different graphs")
    if psi1.group != psi2.group:
        raise ValidationError("gain functions take values in different groups")
    G = psi1.group
    # Gains are range-checked on construction, so the table is read directly.
    mul, inv = G.mult, G.inv
    parent, order, via = bfs_tree(psi1.graph)
    p = [G.identity] * psi1.graph.n
    q = [G.identity] * psi1.graph.n
    for v in order[1:]:
        # forward[k] is read from the lower end, so a higher parent inverts it.
        u, k = parent[v], via[v]
        p[v] = mul[p[u]][psi1.forward[k] if u < v else inv[psi1.forward[k]]]
        q[v] = mul[q[u]][psi2.forward[k] if u < v else inv[psi2.forward[k]]]
    # The cycle gains are gathers over the edge columns; each seed is tested
    # on their distinct pairs.
    T, inv = G.table, np.array(inv, dtype=np.intp)
    p, q = np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)
    u, v = psi1.graph.edges.T
    c1 = T[T[p[u], np.array(psi1.forward, dtype=np.intp)], inv[p[v]]]
    c2 = T[T[q[u], np.array(psi2.forward, dtype=np.intp)], inv[q[v]]]
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
    forward = tuple(map(group.element, gains))
    return GainFunction(graph, group, forward)


def gain_to_dict(psi: GainFunction) -> dict:
    return {"graph": graph_to_dict(psi.graph), "group": group_to_dict(psi.group),
            "gains": [psi.group.label(g) for g in psi.forward]}
