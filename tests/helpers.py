"""Shared generators and tiny oracles for the test suite."""

from __future__ import annotations

import itertools
import random

import numpy as np

import gainline as gl


def random_connected_graph(rng: random.Random, max_n: int = 8) -> gl.SimpleGraph:
    """Random spanning tree plus a few extra edges; connected by construction."""
    n = rng.randint(2, max_n)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)
                if (u, v) not in edges]
    rng.shuffle(possible)
    for e in possible[:rng.randint(0, max(1, n // 2))]:
        edges.add(e)
    return gl.SimpleGraph(n, tuple(sorted(edges)))


def random_gain(rng: random.Random, graph: gl.SimpleGraph,
                group: gl.FiniteGroup) -> gl.GainFunction:
    return gl.GainFunction(
        graph, group, tuple(rng.randrange(group.order) for _ in range(graph.m)))


def random_phase(rng: random.Random, graph: gl.SimpleGraph,
                 group: gl.FiniteGroup) -> gl.GPhase:
    rows = []
    for i in range(graph.n):
        row = []
        for k in range(graph.m):
            row.append(rng.randrange(group.order) if i in graph.edges[k] else None)
        rows.append(tuple(row))
    return gl.GPhase(graph, group, tuple(rows))


def random_pure_matrix(rng: random.Random, group: gl.FiniteGroup,
                       rows: int, cols: int) -> gl.CGMatrix:
    return gl.CGMatrix(group, [
        [gl.AlgebraElement.unit(group, rng.randrange(group.order))
         for _ in range(cols)]
        for _ in range(rows)])


def random_cg_matrix(rng: random.Random, group: gl.FiniteGroup,
                     rows: int, cols: int) -> gl.CGMatrix:
    """About half the entries zero, the rest up to three terms with small
    Gaussian-integer coefficients, so every product stays exact."""
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            coeffs = {}
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 3)):
                    coeffs[rng.randrange(group.order)] = complex(
                        rng.randint(-2, 2), rng.choice((0, 0, rng.randint(-2, 2))))
            row.append(gl.AlgebraElement(group, coeffs))
        grid.append(row)
    return gl.CGMatrix(group, grid)


def reference_fourier(A: gl.CGMatrix, rep: gl.UnitaryRepresentation) -> np.ndarray:
    """Blockwise Fourier transform by the dense per-entry loop; oracle only."""
    k = rep.degree
    out = np.zeros((A.rows * k, A.cols * k), dtype=np.complex128)
    for i in range(A.rows):
        for j in range(A.cols):
            block = out[i * k:(i + 1) * k, j * k:(j + 1) * k]
            for g, c in A[i, j].coeffs.items():
                block += c * rep.images[g]
    return out


def reference_phase_rows(graph: gl.SimpleGraph, group: gl.FiniteGroup, entries):
    """Phase-file rows parsed by the per-pair incidence test, raising at the
    first bad pair in row-major order; oracle only."""
    rows = []
    for i, row in enumerate(entries):
        parsed = []
        for k, label in enumerate(row):
            if i in graph.edges[k]:
                parsed.append(group.element(str(label)))
            elif str(label) == "0":
                parsed.append(None)
            else:
                raise gl.InputError(
                    f"expected structural zero at (v{i + 1}, e{k + 1})")
        rows.append(tuple(parsed))
    return tuple(rows)


def reference_center(group: gl.FiniteGroup) -> list[int]:
    """Central elements by the per-pair table scan; oracle only."""
    return [g for g in group.elements()
            if all(group.mult[g][h] == group.mult[h][g] for h in group.elements())]


def random_vector(rng: random.Random, group: gl.FiniteGroup,
                  length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(group.order) for _ in range(length))


def all_phases(graph: gl.SimpleGraph, group: gl.FiniteGroup):
    """Every G-phase of the graph; |G|^(2m) of them, small inputs only."""
    slots = [(i, k) for k in range(graph.m) for i in graph.edges[k]]
    for combo in itertools.product(range(group.order), repeat=len(slots)):
        rows: list[list[int | None]] = [[None] * graph.m for _ in range(graph.n)]
        for (i, k), g in zip(slots, combo):
            rows[i][k] = g
        yield gl.GPhase(graph, group, tuple(tuple(r) for r in rows))


def all_gains(graph: gl.SimpleGraph, group: gl.FiniteGroup):
    for combo in itertools.product(range(group.order), repeat=graph.m):
        yield gl.GainFunction(graph, group, combo)


def brute_force_switching(psi1: gl.GainFunction, psi2: gl.GainFunction):
    """Exhaustive |G|^n search for a switching function; oracle only."""
    G = psi1.group
    n = psi1.graph.n
    for values in itertools.product(range(G.order), repeat=n):
        if gl.switch(psi1, values) == psi2:
            return values
    return None


def shuffled_graph(rng: random.Random, graph: gl.SimpleGraph) -> gl.SimpleGraph:
    """The same graph with its edges in random order and random endpoint order."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
    rng.shuffle(edges)
    return gl.SimpleGraph(graph.n, tuple(edges))


def complete_graph(n: int) -> gl.SimpleGraph:
    return gl.SimpleGraph(n, tuple(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> gl.SimpleGraph:
    return gl.SimpleGraph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def reference_line_graph(graph: gl.SimpleGraph):
    """(line edges, shared vertices) by the pairwise O(m^2) scan; oracle only."""
    m = graph.m
    line_edges = []
    shared = []
    for i in range(m):
        for j in range(i + 1, m):
            common = set(graph.edges[i]) & set(graph.edges[j])
            if common:
                line_edges.append((i, j))
                shared.append(common.pop())
    return tuple(line_edges), tuple(shared)


def reference_gain_line(psi: gl.GainFunction, orientation: gl.Orientation,
                        ctx: gl.PhaseContext) -> tuple[int, ...]:
    """Line gains by the closed-form orientation rule; oracle only.

    Per line edge (a, b) at shared vertex v: s2 * h(v, a)^-1 * h(v, b), where
    h(v, k) is the gain of edge k at its tail and s1 at its head.
    """
    G = psi.group
    line_edges, shared = reference_line_graph(psi.graph)

    def section_entry(v: int, k: int) -> int:
        tail, head = orientation.heads[k]
        return psi.gain(tail, head) if v == tail else ctx.s1

    return tuple(
        G.mul(ctx.s2, G.mul(G.invert(section_entry(v, a)), section_entry(v, b)))
        for (a, b), v in zip(line_edges, shared))


def random_orientation(rng: random.Random, graph: gl.SimpleGraph) -> gl.Orientation:
    return gl.Orientation(graph, tuple(
        (u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges))


def reference_table_failure(table) -> str | None:
    """The message of the first failed Latin, identity, inverse or
    associativity check, by exhaustive loops; oracle only."""
    order = len(table)
    full = list(range(order))
    for a in full:
        if sorted(table[a]) != full:
            return f"row {a} of the table is not a permutation"
        if sorted(table[b][a] for b in full) != full:
            return f"column {a} of the table is not a permutation"
    if any(table[0][g] != g or table[g][0] != g for g in full):
        return "element 0 is not a two-sided identity"
    for g in full:
        if not any(table[g][h] == 0 and table[h][g] == 0 for h in full):
            return f"element {g} has no two-sided inverse"
    for a, b, c in itertools.product(full, repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return "table is not associative"
    return None


def reference_representation_failure(group: gl.FiniteGroup, images,
                                     tol: float = 1e-10) -> str | None:
    """The message of the first failed unitarity or homomorphism check, by
    the per-element and per-pair loops; oracle only."""
    eye = np.eye(images.shape[1])
    for g in group.elements():
        if np.abs(images[g].conj().T @ images[g] - eye).max() > tol:
            return f"pi({group.label(g)}) is not unitary"
    for g in group.elements():
        for h in group.elements():
            gh = group.mult[g][h]
            if np.abs(images[g] @ images[h] - images[gh]).max() > tol:
                return (f"pi is not a homomorphism at ({group.label(g)}, "
                        f"{group.label(h)})")
    return None


def small_groups() -> list[gl.FiniteGroup]:
    return [
        gl.sign_group(),
        gl.t4(),
        gl.direct_product(gl.cyclic(2), gl.cyclic(2)),
        gl.dihedral(4),
        gl.quaternion8(),
    ]


PAW = gl.SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (1, 3)))
STAR3 = gl.SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
TRIANGLE = gl.SimpleGraph(3, ((0, 1), (0, 2), (1, 2)))
K2 = gl.SimpleGraph(2, ((0, 1),))
DIAMOND = gl.SimpleGraph(4, ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3)))


def q8_gain(graph: gl.SimpleGraph, labels: list[str]) -> gl.GainFunction:
    Q8 = gl.quaternion8()
    return gl.GainFunction(graph, Q8, tuple(Q8.element(l) for l in labels))


def reference_switching_to(psi1: gl.GainFunction, psi2: gl.GainFunction):
    """Some f with psi2 = psi1^f by propagating f along the BFS tree from
    each seed f(0) in element order and checking every edge; oracle only."""
    G = psi1.group
    parent, order = gl.graph.bfs_tree(psi1.graph)
    for seed in G.elements():
        f = [seed] * psi1.graph.n
        for v in order[1:]:
            u = parent[v]
            f[v] = G.mul(G.invert(psi1.gain(u, v)), G.mul(f[u], psi2.gain(u, v)))
        if gl.switch(psi1, f) == psi2:
            return gl.SwitchingFunction(G, tuple(f))
    return None


def reference_recognize_gain_line(zeta: gl.GainFunction, root: gl.SimpleGraph,
                                  ctx: gl.PhaseContext):
    """Recognition with each row anchored at its first incident edge and
    checked on every ordered pair of incident edges; oracle only."""
    G = zeta.group
    rows = [[None] * root.m for _ in range(root.n)]
    for v, incident in enumerate(root.incidence):
        if not incident:
            continue
        base = incident[0]
        rows[v][base] = G.identity
        for e in incident[1:]:
            rows[v][e] = G.mul(ctx.s2, zeta.gain(base, e))
        for a, b in itertools.permutations(incident, 2):
            lhs = G.mul(ctx.s2, G.mul(G.invert(rows[v][a]), rows[v][b]))
            if lhs != zeta.gain(a, b):
                return None
    return gl.GPhase(root, G, tuple(tuple(row) for row in rows))


def perturbed(rng: random.Random, psi: gl.GainFunction) -> gl.GainFunction:
    """psi with one gain, chosen at random, moved to another element."""
    forward = list(psi.forward)
    k = rng.randrange(len(forward))
    forward[k] = (forward[k] + rng.randrange(1, psi.group.order)) % psi.group.order
    return gl.GainFunction(psi.graph, psi.group, tuple(forward))
