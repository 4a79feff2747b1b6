"""G-phases and everything they induce.

A G-phase assigns a group element to every incident (vertex, edge) pair and
zero elsewhere.  From a phase H we read off a gain on the graph (psi), a gain
on its line graph (psi_line), the line phase in Reff's sense, and the orbit
relations of the right/left/two-sided diagonal actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, CGMatrix
from .errors import InputError, ValidationError
from .gain import GainFunction, switching_to
from .graph import (Orientation, SimpleGraph, graph_from_dict, graph_to_dict,
                    line_graph)
from .group import (Element, FiniteGroup, build_group, group_to_dict,
                    require_central_weak_involution)


@dataclass(frozen=True)
class PhaseContext:
    """The ambient pair of central weak involutions (s1, s2)."""

    group: FiniteGroup
    s1: Element
    s2: Element

    def __post_init__(self):
        require_central_weak_involution(self.group, self.s1, "s1")
        require_central_weak_involution(self.group, self.s2, "s2")


@dataclass(frozen=True)
class GPhase:
    """A group element per incident (vertex, edge) pair.

    ``rows[i][k]`` is the element at vertex i, edge k, or None where the
    vertex is not an endpoint of the edge.
    """

    graph: SimpleGraph
    group: FiniteGroup
    rows: tuple[tuple[Element | None, ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.graph.n:
            raise ValidationError("phase must have one row per vertex")
        m = self.graph.m
        for i, row in enumerate(self.rows):
            if len(row) != m:
                raise ValidationError("phase must have one column per edge")
            incident = self.graph.incidence[i]
            for k in incident:
                if row[k] is None:
                    raise ValidationError(
                        f"missing entry at incident pair (v{i + 1}, e{k + 1})")
                if not 0 <= row[k] < self.group.order:
                    raise ValidationError(f"element index {row[k]} out of range")
            # The incident entries are set, so any further non-None is misplaced.
            if row.count(None) != m - len(incident):
                k = next(k for k, x in enumerate(row)
                         if x is not None and k not in incident)
                raise ValidationError(
                    f"nonzero entry at non-incident pair (v{i + 1}, e{k + 1})")

    def entry(self, i: int, k: int) -> Element:
        g = self.rows[i][k]
        if g is None:
            raise ValidationError(f"vertex {i} is not incident to edge {k}")
        return g

    def to_cg_matrix(self) -> CGMatrix:
        G = self.group
        return CGMatrix(G, {(i, k): AlgebraElement.unit(G, self.rows[i][k])
                            for i, incident in enumerate(self.graph.incidence)
                            for k in incident},
                        (self.graph.n, self.graph.m))


def incidence_phase(graph: SimpleGraph, group: FiniteGroup) -> GPhase:
    """The all-identity phase, the CG analogue of the incidence matrix."""
    rows = [[None] * graph.m for _ in range(graph.n)]
    for i, incident in enumerate(graph.incidence):
        for k in incident:
            rows[i][k] = group.identity
    return GPhase(graph, group, tuple(tuple(row) for row in rows))


def psi(H: GPhase, ctx: PhaseContext) -> GainFunction:
    """The induced gain on the graph: s1 * H[i,k] * H[j,k]^-1 per edge."""
    G = _shared_group(H, ctx)
    out = []
    for k, (i, j) in enumerate(H.graph.edges):
        g = G.mul(ctx.s1, G.mul(H.entry(i, k), G.invert(H.entry(j, k))))
        out.append(g)
    return GainFunction(H.graph, G, tuple(out))


def psi_line(H: GPhase, ctx: PhaseContext) -> GainFunction:
    """The induced gain on the line graph: s2 * H[k,i]^-1 * H[k,j]."""
    G = _shared_group(H, ctx)
    data = line_graph(H.graph)
    out = []
    for (i, j), k in zip(data.line.edges, data.shared_vertex):
        g = G.mul(ctx.s2, G.mul(G.invert(H.entry(k, i)), H.entry(k, j)))
        out.append(g)
    return GainFunction(data.line, G, tuple(out))


def phase_from_orientation(psi_fn: GainFunction, orientation: Orientation,
                           ctx: PhaseContext) -> GPhase:
    """The section of psi: gain at the tail, s1 at the head, per edge."""
    if orientation.graph != psi_fn.graph:
        raise ValidationError("orientation belongs to a different graph")
    G = _shared_group(psi_fn, ctx)
    graph = psi_fn.graph
    rows = [[None] * graph.m for _ in range(graph.n)]
    for k, (tail, head) in enumerate(orientation.heads):
        rows[tail][k] = psi_fn.gain(tail, head)
        rows[head][k] = ctx.s1
    return GPhase(graph, G, tuple(tuple(row) for row in rows))


def act(H: GPhase, f: tuple[Element, ...] | None = None,
        g: tuple[Element, ...] | None = None) -> GPhase:
    """underline(f)* H underline(g): entry -> f_i^-1 H[i,k] g_k."""
    G = H.group
    if f is not None and len(f) != H.graph.n:
        raise ValidationError("left action vector must have one entry per vertex")
    if g is not None and len(g) != H.graph.m:
        raise ValidationError("right action vector must have one entry per edge")
    rows = [list(row) for row in H.rows]
    for i, incident in enumerate(H.graph.incidence):
        for k in incident:
            if f is not None:
                rows[i][k] = G.mul(G.invert(f[i]), rows[i][k])
            if g is not None:
                rows[i][k] = G.mul(rows[i][k], g[k])
    return GPhase(H.graph, G, tuple(tuple(row) for row in rows))


def same_orbit(H1: GPhase, H2: GPhase, which: str, ctx: PhaseContext) -> bool:
    """Decide orbit membership for the r, l, l x r or l-and-r relations.

    Decisions go through the induced gains: the r-orbits are the fibers of
    psi, the l-orbits the fibers of psi_line, and the two-sided orbits the
    switching classes of either image.
    """
    if H1.graph != H2.graph or H1.group != H2.group:
        raise ValidationError("phases live on different graphs or groups")
    if which == "r":
        return psi(H1, ctx) == psi(H2, ctx)
    if which == "l":
        return psi_line(H1, ctx) == psi_line(H2, ctx)
    if which == "lr":
        return switching_to(psi(H1, ctx), psi(H2, ctx)) is not None
    if which == "l_and_r":
        return (psi(H1, ctx) == psi(H2, ctx)
                and psi_line(H1, ctx) == psi_line(H2, ctx))
    raise InputError(f"unknown orbit relation {which!r}; "
                     "expected r, l, lr or l_and_r")


def gain_line(psi_fn: GainFunction, orientation: Orientation,
              ctx: PhaseContext) -> GainFunction:
    """The gain-line lift: psi_line of the section phase of psi.

    Only the switching class of the result is canonical; the representative
    depends on the chosen orientation.
    """
    return psi_line(phase_from_orientation(psi_fn, orientation, ctx), ctx)


def reff_line_phase(H: GPhase) -> GPhase:
    """The line phase: inverse of the shared-vertex entry, per incidence."""
    G = H.group
    data = line_graph(H.graph)
    m = H.graph.m
    q = data.line.m
    rows: list[list[Element | None]] = [[None] * q for _ in range(m)]
    for pos, (i, j) in enumerate(data.line.edges):
        v = data.shared_vertex[pos]
        rows[i][pos] = G.invert(H.entry(v, i))
        rows[j][pos] = G.invert(H.entry(v, j))
    return GPhase(data.line, G, tuple(tuple(row) for row in rows))


def recognize_gain_line(zeta: GainFunction, root: SimpleGraph,
                        ctx: PhaseContext) -> GPhase | None:
    """A phase H of the root graph with psi_line(H) = zeta, or None.

    Rows are independent: at each root vertex the first edge, the base, is
    anchored at the identity and each line edge (base, e) forces e to
    s2 zeta(base, e).  Line edges are sorted, so the base pairs come first;
    every later line edge is checked once, its reverse holding with it as s2
    is a central involution and reverse gains are inverses.
    """
    G = _shared_group(zeta, ctx)
    data = line_graph(root)
    if zeta.graph != data.line:
        raise ValidationError("gain function does not live on the root's line graph")
    mul, inv, s2 = G.mult, G.inv, ctx.s2
    rows: list[list[Element | None]] = [[None] * root.m for _ in range(root.n)]
    for v, incident in enumerate(root.incidence):
        rows[v][incident[0]] = G.identity
    for (a, b), v, g in zip(data.line.edges, data.shared_vertex, zeta.forward):
        row = rows[v]
        if a == root.incidence[v][0]:
            row[b] = mul[s2][g]
        elif mul[s2][mul[inv[row[a]]][row[b]]] != g:
            return None
    return GPhase(root, G, tuple(tuple(row) for row in rows))


def _shared_group(obj, ctx: PhaseContext) -> FiniteGroup:
    if obj.group != ctx.group:
        raise ValidationError("context involutions come from a different group")
    return obj.group


# -- serialization ----------------------------------------------------------

def phase_from_dict(data: dict) -> GPhase:
    """Parse ``{"graph": ..., "group": ..., "entries": [["i", "0", ...]]}``.

    ``"0"`` marks structural zeros; the support must match the graph's
    incidence pattern.
    """
    if not isinstance(data, dict):
        raise InputError("phase description must be a JSON object")
    try:
        graph = graph_from_dict(data["graph"])
        group = build_group(data["group"])
        entries = data["entries"]
    except KeyError as exc:
        raise InputError(f"phase description needs {exc} field")
    if (not isinstance(entries, list) or len(entries) != graph.n
            or any(not isinstance(row, list) or len(row) != graph.m
                   for row in entries)):
        raise InputError("phase entries must form an n x m array")
    rows = []
    for i, (row, incident) in enumerate(zip(entries, graph.incidence)):
        # Incidence decides whether "0" is a structural zero or a label
        # (cyclic groups label their identity "0").
        zeros_elsewhere = row.count("0") - sum(row[k] == "0" for k in incident)
        if zeros_elsewhere != graph.m - len(incident):
            _first_row_failure(group, i, row, set(incident))
        parsed: list[Element | None] = [None] * graph.m
        for k in incident:
            parsed[k] = group.element(str(row[k]))
        rows.append(tuple(parsed))
    try:
        return GPhase(graph, group, tuple(rows))
    except ValidationError as exc:
        raise InputError(str(exc))


def _first_row_failure(group: FiniteGroup, i: int, row: list,
                       incident: set[int]) -> None:
    """Scan row i in order and raise its first bad entry: an unknown label
    at an incident pair or a non-zero elsewhere.  Returns when every
    non-incident entry still reads as "0" (an integer 0, say)."""
    for k, label in enumerate(row):
        if k in incident:
            group.element(str(label))
        elif str(label) != "0":
            raise InputError(f"expected structural zero at (v{i + 1}, e{k + 1})")


def phase_to_dict(H: GPhase) -> dict:
    return {
        "graph": graph_to_dict(H.graph),
        "group": group_to_dict(H.group),
        "entries": [["0" if g is None else H.group.label(g) for g in row]
                    for row in H.rows],
    }
