"""Gain functions, their matrices, switching and balance.

Gains are stored only on the default (low-to-high) orientation; the reverse
gain is always computed as the group inverse, so the defining identity
psi(u,v) * psi(v,u) = 1 holds structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import AlgebraElement, CGMatrix, group_diagonal
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
        """The gain of the oriented edge (u, v)."""
        key = (min(u, v), max(u, v))
        try:
            k = self.graph.edge_index[key]
        except KeyError:
            raise InputError(f"vertices {u} and {v} are not adjacent")
        g = self.forward[k]
        return g if (u, v) == self.graph.edges[k] else self.group.invert(g)


@dataclass(frozen=True)
class SwitchingFunction:
    """A group element per vertex."""

    group: FiniteGroup
    values: tuple[Element, ...]


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
    for (u, v), g in zip(psi.graph.edges, psi.forward):
        support[u, v] = unit[g]
        support[v, u] = unit[G.inv[g]]
    return CGMatrix(G, support, (n, n))


def s_laplacian(psi: GainFunction, s: Element) -> CGMatrix:
    """deg(Gamma, G) + s * adjacency, for a central weak involution s."""
    G = psi.group
    require_central_weak_involution(G, s, "s")
    adj = gain_adjacency(psi).scalar_mul(AlgebraElement.unit(G, s), side="left")
    n = psi.graph.n
    degrees = CGMatrix(G, {(i, i): AlgebraElement(G, {G.identity: psi.graph.degree(i)})
                           for i in range(n)}, (n, n))
    return degrees + adj


def switch(psi: GainFunction, f: SwitchingFunction | Sequence[Element]) -> GainFunction:
    """psi^f with psi^f(u, v) = f(u)^-1 psi(u, v) f(v)."""
    values = f.values if isinstance(f, SwitchingFunction) else tuple(f)
    if len(values) != psi.graph.n:
        raise ValidationError("switching function must assign a value per vertex")
    G = psi.group
    out = []
    for k, (u, v) in enumerate(psi.graph.edges):
        g = G.mul(G.invert(values[u]), G.mul(psi.forward[k], values[v]))
        out.append(g)
    return GainFunction(psi.graph, G, tuple(out))


def walk_gain(psi: GainFunction, walk: Sequence[int]) -> Element:
    """The ordered product of gains along a walk of vertices."""
    if len(walk) < 1:
        raise InputError("walk must contain at least one vertex")
    G = psi.group
    g = G.identity
    for u, v in zip(walk, walk[1:]):
        g = G.mul(g, psi.gain(u, v))
    return g


def balance_witness(psi: GainFunction) -> SwitchingFunction | None:
    """A switching function f with psi^f = 1 constant, or None."""
    return switching_to(psi, constant_gain(psi.graph, psi.group, psi.group.identity))


def is_balanced(psi: GainFunction) -> bool:
    return balance_witness(psi) is not None


def antibalance_witness(psi: GainFunction) -> SwitchingFunction | None:
    """Witness that psi is switching-equivalent to the constant -1 gain.

    Only defined when the group designates an element labeled "-1".
    """
    try:
        minus_one = psi.group.element("-1")
    except InputError:
        raise InputError(
            f"group {psi.group.name} has no element labeled '-1'; "
            "antibalance is undefined")
    return switching_to(psi, constant_gain(psi.graph, psi.group, minus_one))


def switching_to(psi1: GainFunction, psi2: GainFunction) -> SwitchingFunction | None:
    """Some f with psi2 = psi1^f, or None if the gains are not equivalent.

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
    parent, order = bfs_tree(psi1.graph)
    p = [G.identity] * psi1.graph.n
    q = [G.identity] * psi1.graph.n
    for v in order[1:]:
        u = parent[v]
        p[v] = mul[p[u]][psi1.gain(u, v)]
        q[v] = mul[q[u]][psi2.gain(u, v)]
    cycles = {(mul[mul[p[u]][g1]][inv[p[v]]], mul[mul[q[u]][g2]][inv[q[v]]])
              for (u, v), g1, g2 in zip(psi1.graph.edges, psi1.forward, psi2.forward)}
    for s in G.elements():
        if all(mul[mul[inv[s]][c1]][s] == c2 for c1, c2 in cycles):
            return SwitchingFunction(G, tuple(mul[mul[inv[pv]][s]][qv]
                                              for pv, qv in zip(p, q)))
    return None


def switching_equivalent(psi1: GainFunction, psi2: GainFunction) -> bool:
    return switching_to(psi1, psi2) is not None


def switching_diagonal(f: SwitchingFunction) -> CGMatrix:
    """The diagonal matrix underline(f) used to conjugate gain matrices."""
    return group_diagonal(f.group, f.values)


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
    return {
        "graph": graph_to_dict(psi.graph),
        "group": group_to_dict(psi.group),
        "gains": [psi.group.label(g) for g in psi.forward],
    }
