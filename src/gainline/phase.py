"""G-phases and everything they induce.

A G-phase assigns a group element to every incident (vertex, edge) pair and
zero elsewhere.  From a phase H we read off a gain on the graph (psi), a gain
on its line graph (psi_line), the line phase in Reff's sense, and the orbit
relations of the right/left/two-sided diagonal actions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, CGMatrix
from .errors import InputError, ValidationError, require_fields, require_type
from .gain import GainFunction, switching_to
from .graph import (Orientation, SimpleGraph, _frozen, _line_size, graph_from_dict,
                    graph_to_dict, line_graph)
from .group import (Element, FiniteGroup, _element_array, build_group, group_to_dict,
                    require_central_weak_involution)

#: Largest phase written out, in n x m entries: a witness of ``check gainline``
#: takes about 13 bytes an entry on stdout.
MAX_PHASE_CELLS = 4_000_000


@dataclass(frozen=True)
class PhaseContext:
    """The ambient pair of central weak involutions (s1, s2)."""

    group: FiniteGroup
    s1: Element
    s2: Element

    def __post_init__(self):
        require_central_weak_involution(self.group, self.s1, "s1")
        require_central_weak_involution(self.group, self.s2, "s2")


@dataclass(frozen=True, eq=False)
class _SparseRows:
    """An n x m grid stored as its support: row i holds ``zero`` except at
    the columns ``columns[indptr[i]:indptr[i + 1]]``, which come in column
    order, where slot s holds ``labels[values[s]]``.  ``indptr``,
    ``columns`` and ``values`` are integer arrays."""

    width: int
    zero: object
    labels: Sequence
    indptr: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    def dense(self) -> list[list]:
        ptr, columns = self.indptr.tolist(), self.columns.tolist()
        values = list(map(self.labels.__getitem__, self.values.tolist()))
        grid = []
        for a, b in zip(ptr, ptr[1:]):
            row = [self.zero] * self.width
            for k, x in zip(columns[a:b], values[a:b]):
                row[k] = x
            grid.append(row)
        return grid


def _read_grid(graph: SimpleGraph, group: FiniteGroup, grid: Sequence[Sequence]
               ) -> np.ndarray:
    """The ends, as in ``GPhase.ends``, of the phase-file grid ``grid``: the
    string "0" at every pair off the incidence pattern and an element label
    at each incident pair.

    One C-level ``count`` per row decides its off-support cells; only a row
    that fails it is scanned in column order, to name its first fault, so
    faults are named in row-major order.
    """
    m, element = graph.m, group.element
    if len(grid) != graph.n:
        raise InputError("phase must have one row per vertex")
    if any(len(row) != m for row in grid):
        raise InputError("phase must have one column per edge")
    indptr, indices = graph.incidence
    ptr, columns = indptr.tolist(), indices.tolist()
    values = []  # per CSR slot, the element at its vertex's end of its edge
    for i, row in enumerate(grid):
        incident = columns[ptr[i]:ptr[i + 1]]
        # Incidence decides whether a "0" cell is off the support or an entry
        # (cyclic groups label their identity "0").
        if row.count("0") - sum(row[k] == "0" for k in incident) != m - len(incident):
            on = set(incident)
            for k, x in enumerate(row):
                if k in on:
                    element(x)
                elif x != "0":
                    raise InputError(
                        f"expected structural zero at (v{i + 1}, e{k + 1})")
        values += map(element, map(row.__getitem__, incident))
    ends = np.empty(2 * m, dtype=np.intp)
    ends[_slots(graph, indices, _slot_vertices(graph))] = values
    return _frozen(ends.reshape(m, 2))


@dataclass(frozen=True, eq=False)
class GPhase:
    """A group element per incident (vertex, edge) pair.

    Stored as ``ends``, a read-only (m, 2) ``np.intp`` array: per edge
    k = (u, v) with u < v the row (H[u,k], H[v,k]), so H[i,k] is
    ``ends[k, i == v]``.  It may be given as pairs in a tuple or a list, or
    as an array.  ``rows`` is the dense view: None where vertex i is not an
    endpoint of edge k.
    """

    graph: SimpleGraph
    group: FiniteGroup
    ends: np.ndarray

    def __post_init__(self):
        if len(self.ends) != self.graph.m:
            raise ValidationError("need exactly one pair of entries per edge")
        object.__setattr__(self, "ends", _element_array(
            self.ends, (self.graph.m, 2), self.group.order,
            "each edge needs a pair of element indices", "element index"))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, GPhase) and self.graph == other.graph
            and self.group == other.group and np.array_equal(self.ends, other.ends))

    def __hash__(self) -> int:
        return hash(self.ends.tobytes())

    @property
    def rows(self) -> tuple[tuple[Element | None, ...], ...]:
        """The dense vertex-by-edge view; built on each access."""
        return tuple(map(tuple, self._sparse_rows(None, range(self.group.order)).dense()))

    def _sparse_rows(self, zero, labels: Sequence) -> _SparseRows:
        """The n x m view, ``labels[H[i,k]]`` at each incident pair and
        ``zero`` elsewhere, kept as its 2m incident cells.  ``labels`` is
        indexed by element; ``range(order)`` gives the elements themselves."""
        graph = self.graph
        indptr, indices = graph.incidence
        values = self.ends.ravel()[_slots(graph, indices, _slot_vertices(graph))]
        return _SparseRows(graph.m, zero, labels, indptr, indices, values)

    def to_cg_matrix(self) -> CGMatrix:
        G = self.group
        return CGMatrix(G, {(i, k): AlgebraElement.unit(G, g)
                            for k, pair in enumerate(zip(self.graph.edges.tolist(),
                                                         self.ends.tolist()))
                            for i, g in zip(*pair)},
                        (self.graph.n, self.graph.m))


def incidence_phase(graph: SimpleGraph, group: FiniteGroup) -> GPhase:
    """The all-identity phase, the CG analogue of the incidence matrix."""
    return GPhase(graph, group, _frozen(np.zeros((graph.m, 2), dtype=np.intp)))


def psi(H: GPhase, ctx: PhaseContext) -> GainFunction:
    """The induced gain on the graph: s1 * H[i,k] * H[j,k]^-1 per edge."""
    G = _shared_group(H, ctx)
    T = G.table
    return GainFunction(H.graph, G, _frozen(T[ctx.s1][T[H.ends[:, 0], G.inverse[H.ends[:, 1]]]]))


def psi_line(H: GPhase, ctx: PhaseContext) -> GainFunction:
    """The induced gain on the line graph: s2 * H[v,i]^-1 * H[v,j] per line
    edge (i, j) at shared vertex v, which is psi of Reff's line phase with
    s2 in the place of s1; one gather over the line edges."""
    G = _shared_group(H, ctx)
    data = line_graph(H.graph)
    at_i, at_j = _line_entries(H, data)
    T = G.table
    return GainFunction(data.line, G, _frozen(T[ctx.s2][T[G.inverse[at_i], at_j]]))


def phase_from_orientation(psi_fn: GainFunction, orientation: Orientation,
                           ctx: PhaseContext) -> GPhase:
    """The section of psi: gain at the tail, s1 at the head, per edge."""
    if orientation.graph != psi_fn.graph:
        raise ValidationError("orientation belongs to a different graph")
    G = _shared_group(psi_fn, ctx)
    # forward[k] is read from the lower end, so a higher tail gets its inverse.
    g, low = psi_fn.forward, orientation.heads[:, 0] < orientation.heads[:, 1]
    ends = np.full((psi_fn.graph.m, 2), ctx.s1, dtype=np.intp)
    ends[low, 0] = g[low]
    ends[~low, 1] = G.inverse[g[~low]]
    return GPhase(psi_fn.graph, G, _frozen(ends))


def act(H: GPhase, f: tuple[Element, ...] | None = None,
        g: tuple[Element, ...] | None = None) -> GPhase:
    """underline(f)* H underline(g): entry -> f_i^-1 H[i,k] g_k."""
    G, T = H.group, H.group.table
    if f is not None and len(f) != H.graph.n:
        raise ValidationError("left action vector must have one entry per vertex")
    if g is not None and len(g) != H.graph.m:
        raise ValidationError("right action vector must have one entry per edge")
    ends = H.ends
    if f is not None:
        f = _element_array(f, (H.graph.n,), G.order,
                           "each left action value must be an integer element index",
                           "element index")
        ends = T[G.inverse[f[H.graph.edges]], ends]
    if g is not None:
        g = _element_array(g, (H.graph.m,), G.order,
                           "each right action value must be an integer element index",
                           "element index")
        ends = T[ends, g[:, None]]
    return GPhase(H.graph, G, _frozen(ends))


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
    G, data = H.group, line_graph(H.graph)
    at_i, at_j = _line_entries(H, data)
    # Line edge (i, j) has i < j, so H[v,i]^-1 sits at its lower end.
    return GPhase(data.line, G, _frozen(G.inverse[np.stack((at_i, at_j), axis=1)]))


def _slots(graph: SimpleGraph, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The flat index 2 k + (v is the higher end of edge k) of each entry
    H[v,k], into ``GPhase.ends.ravel()``."""
    return 2 * k + (graph.edges[k, 1] == v)


def _slot_vertices(graph: SimpleGraph) -> np.ndarray:
    """The vertex of each slot of the CSR incidence."""
    return np.repeat(np.arange(graph.n), graph.degrees)


def _line_entries(H: GPhase, data) -> tuple[np.ndarray, np.ndarray]:
    """(H[v,i], H[v,j]) per line edge (i, j) at shared vertex v, as arrays."""
    ends, (i, j), v = H.ends.ravel(), data.line.edges.T, data.shared_vertex
    return ends[_slots(H.graph, i, v)], ends[_slots(H.graph, j, v)]


def recognize_gain_line(zeta: GainFunction, root: SimpleGraph,
                        ctx: PhaseContext) -> GPhase | None:
    """A phase H of the root graph with psi_line(H) = zeta, or None.

    Rows are independent: at each root vertex the first edge, the base, is
    anchored at the identity and each line edge (base, e) forces e to
    s2 zeta(base, e).  The base pairs are scattered first, then every line
    edge is checked in one comparison, its reverse holding with it as s2 is
    a central involution and reverse gains are inverses.
    """
    G = _shared_group(zeta, ctx)
    # Sizes first, the line edges counted in O(n): a mismatch builds nothing.
    if (zeta.graph.n, zeta.graph.m) != (root.m, _line_size(root.degrees)) \
            or zeta.graph != line_graph(root).line:
        raise ValidationError("gain function does not live on the root's line graph")
    data = line_graph(root)
    T, inv, s2 = G.table, G.inverse, G.table[ctx.s2]
    (a, b), v = data.line.edges.T, data.shared_vertex
    at_a, at_b = _slots(root, a, v), _slots(root, b, v)
    g = zeta.forward
    indptr, indices = root.incidence
    base = a == indices[indptr[v]]
    H = np.zeros(2 * root.m, dtype=np.intp)  # the identity is 0
    H[at_b[base]] = s2[g[base]]
    # A base pair holds by construction, since s2^2 = 1.
    if not np.array_equal(s2[T[inv[H[at_a]], H[at_b]]], g):
        return None
    return GPhase(root, G, _frozen(H.reshape(-1, 2)))


def _shared_group(obj, ctx: PhaseContext) -> FiniteGroup:
    if obj.group != ctx.group:
        raise ValidationError("context involutions come from a different group")
    return obj.group


# -- serialization ----------------------------------------------------------

def phase_from_dict(data: dict) -> GPhase:
    """Parse ``{"graph": ..., "group": ..., "entries": [["i", "0", ...]]}``.

    Each incident entry is an element label and every other entry is the
    string ``"0"``, so the support matches the graph's incidence pattern.
    """
    graph, group, entries = require_fields(data, "phase description",
                                           "graph", "group", "entries")
    graph, group = graph_from_dict(graph), build_group(group)
    for row in require_type(entries, list, "phase field 'entries'"):
        require_type(row, list, "phase row")
    return GPhase(graph, group, _read_grid(graph, group, entries))


def _phase_wire(H: GPhase) -> dict:
    """The wire form of H with its ``entries`` left sparse ("0" off the
    support): :func:`phase_to_dict` densifies them, the CLI writes them.
    Refused above ``MAX_PHASE_CELLS`` entries, before any is written."""
    if H.graph.n * H.graph.m > MAX_PHASE_CELLS:
        raise ValidationError(
            f"phase of {H.graph.n}x{H.graph.m} entries exceeds cap {MAX_PHASE_CELLS}")
    return {"graph": graph_to_dict(H.graph), "group": group_to_dict(H.group),
            "entries": H._sparse_rows("0", H.group.labels)}


def phase_to_dict(H: GPhase) -> dict:
    data = _phase_wire(H)
    data["entries"] = data["entries"].dense()
    return data
