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
    rows, edges = [], graph.edges.tolist()
    for i in range(graph.n):
        row = []
        for k in range(graph.m):
            row.append(rng.randrange(group.order) if i in edges[k] else None)
        rows.append(tuple(row))
    return phase_of_rows(graph, group, rows)


def phase_of_rows(graph: gl.SimpleGraph, group: gl.FiniteGroup, rows) -> gl.GPhase:
    """The phase whose dense vertex-by-edge view is ``rows``."""
    return gl.GPhase(graph, group, tuple((rows[u][k], rows[v][k])
                                         for k, (u, v) in enumerate(graph.edges)))


def matrix_of_rows(group: gl.FiniteGroup, rows) -> gl.CGMatrix:
    """The matrix whose dense grid of entries is ``rows``, zeros included."""
    return gl.CGMatrix(group, {(i, j): a for i, row in enumerate(rows)
                               for j, a in enumerate(row)},
                       (len(rows), len(rows[0])))


def random_pure_matrix(rng: random.Random, group: gl.FiniteGroup,
                       rows: int, cols: int) -> gl.CGMatrix:
    return matrix_of_rows(group, [
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
    return matrix_of_rows(group, grid)


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


def reference_multiplicity_groups(eigenvalues) -> list[int]:
    """Group ids by the per-value loop: a new id wherever a value exceeds the
    one before it by more than ``MULTIPLICITY_TOL``; oracle only."""
    ids, current = [], 0
    for i, lam in enumerate(eigenvalues):
        if i > 0 and lam - eigenvalues[i - 1] > gl.representation.MULTIPLICITY_TOL:
            current += 1
        ids.append(current)
    return ids


def builtin_representations(G: gl.FiniteGroup) -> list[gl.UnitaryRepresentation]:
    """Every builtin representation that G takes, with every power of
    ``root_of_unity`` modulo the order."""
    specs = [{"builtin": name} for name in ("trivial", "regular", "sign_character", "q8_2dim")]
    specs += [{"builtin": "root_of_unity", "power": p} for p in range(G.order)]
    reps = []
    for spec in specs:
        try:
            reps.append(gl.representation_from_dict(spec, G))
        except gl.InputError:  # a builtin that this group does not take
            pass
    return reps


def reference_phase_rows(graph: gl.SimpleGraph, group: gl.FiniteGroup, entries):
    """Phase-file rows parsed by the per-pair incidence test, raising at the
    first bad pair in row-major order; oracle only."""
    rows, edges = [], graph.edges.tolist()
    for i, row in enumerate(entries):
        parsed = []
        for k, label in enumerate(row):
            if i in edges[k]:
                parsed.append(group.element(label))
            elif label == "0":
                parsed.append(None)
            else:
                raise gl.InputError(
                    f"expected structural zero at (v{i + 1}, e{k + 1})")
        rows.append(tuple(parsed))
    return tuple(rows)


def reference_phase_from_orientation(psi: gl.GainFunction,
                                     orientation: gl.Orientation,
                                     ctx: gl.PhaseContext) -> gl.GPhase:
    """The section phase filled into dense rows; oracle only."""
    graph = psi.graph
    rows = [[None] * graph.m for _ in range(graph.n)]
    for k, (tail, head) in enumerate(orientation.heads):
        rows[tail][k] = psi.gain(tail, head)
        rows[head][k] = ctx.s1
    return phase_of_rows(graph, psi.group, rows)


def reference_psi(H: gl.GPhase, ctx: gl.PhaseContext) -> gl.GainFunction:
    """s1 H[i,k] H[j,k]^-1 per edge (i, j), read from the dense rows; oracle only."""
    G, rows = H.group, H.rows
    return gl.GainFunction(H.graph, G, tuple(
        G.mul(ctx.s1, G.mul(rows[i][k], G.invert(rows[j][k])))
        for k, (i, j) in enumerate(H.graph.edges)))


def reference_psi_line(H: gl.GPhase, ctx: gl.PhaseContext) -> gl.GainFunction:
    """s2 H[v,i]^-1 H[v,j] per line edge (i, j) at shared vertex v, read from
    the dense rows; oracle only."""
    G, rows = H.group, H.rows
    data = gl.line_graph(H.graph)
    return gl.GainFunction(data.line, G, tuple(
        G.mul(ctx.s2, G.mul(G.invert(rows[v][i]), rows[v][j]))
        for (i, j), v in zip(data.line.edges, data.shared_vertex)))


def reference_act(H: gl.GPhase, f=None, g=None) -> gl.GPhase:
    """f_i^-1 H[i,k] g_k on every incident pair of the dense rows; oracle only."""
    G = H.group
    rows = [list(row) for row in H.rows]
    for i, incident in enumerate(incidence_lists(H.graph)):
        for k in incident:
            if f is not None:
                rows[i][k] = G.mul(G.invert(f[i]), rows[i][k])
            if g is not None:
                rows[i][k] = G.mul(rows[i][k], g[k])
    return phase_of_rows(H.graph, G, rows)


def reference_reff_line_phase(H: gl.GPhase) -> gl.GPhase:
    """Reff's line phase filled into dense rows; oracle only."""
    G, rows = H.group, H.rows
    data = gl.line_graph(H.graph)
    out = [[None] * data.line.m for _ in range(H.graph.m)]
    for pos, ((i, j), v) in enumerate(zip(data.line.edges, data.shared_vertex)):
        out[i][pos] = G.invert(rows[v][i])
        out[j][pos] = G.invert(rows[v][j])
    return phase_of_rows(data.line, G, out)


def reference_to_cg_matrix(H: gl.GPhase) -> gl.CGMatrix:
    """The dense grid of units and zeros; oracle only."""
    zero = gl.AlgebraElement(H.group, {})
    return matrix_of_rows(H.group, [
        [zero if g is None else gl.AlgebraElement.unit(H.group, g) for g in row]
        for row in H.rows])


def reference_center(group: gl.FiniteGroup) -> list[int]:
    """Central elements by the per-pair table scan; oracle only."""
    return [g for g in group.elements()
            if all(group.mult[g][h] == group.mult[h][g] for h in group.elements())]


def random_vector(rng: random.Random, group: gl.FiniteGroup,
                  length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(group.order) for _ in range(length))


def all_phases(graph: gl.SimpleGraph, group: gl.FiniteGroup):
    """Every G-phase of the graph; |G|^(2m) of them, small inputs only."""
    for combo in itertools.product(range(group.order), repeat=2 * graph.m):
        yield gl.GPhase(graph, group, tuple(zip(combo[::2], combo[1::2])))


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


def reference_first_fault(n: int, edges) -> str | None:
    """The message for the first edge, in order, that is out of range, a loop
    or a duplicate, its vertices named 1-based as files do, or None; the
    per-edge scan of the older two-path check, kept as an oracle."""
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {(u + 1, v + 1)} out of vertex range"
        if u == v:
            return f"loop at vertex {u + 1}"
        key = (min(u, v), max(u, v))
        if key in seen:
            return f"duplicate edge {(key[0] + 1, key[1] + 1)}"
        seen.add(key)
    return None


def holonomy(psi: gl.GainFunction) -> frozenset[int]:
    """The holonomy group of psi at vertex 0: the subgroup generated by the
    cycle gains p(u) psi(u, v) p(v)^-1, where p(v) is the gain of the BFS
    tree path from vertex 0 to v; oracle only."""
    G = psi.group
    steps = [[] for _ in range(psi.graph.n)]
    for (u, v), g in zip(psi.graph.edges, psi.forward):
        steps[u].append((v, g))
        steps[v].append((u, G.invert(g)))
    p = {0: G.identity}
    queue = [0]
    for u in queue:
        for v, g in steps[u]:
            if v not in p:
                p[v] = G.mul(p[u], g)
                queue.append(v)
    cycles = {G.mul(G.mul(p[u], g), G.invert(p[v]))
              for (u, v), g in zip(psi.graph.edges, psi.forward)}
    # a finite group: closing {1} under the generators gives the subgroup
    hol, frontier = {G.identity}, [G.identity]
    for h in frontier:
        for c in cycles:
            x = G.mul(h, c)
            if x not in hol:
                hol.add(x)
                frontier.append(x)
    return frozenset(hol)


def derived_cover(psi: gl.GainFunction) -> np.ndarray:
    """The 0/1 adjacency of the derived cover on n |G| vertices, (v, h) at
    index v |G| + h: each stored edge (u, v), u < v, with gain g joins
    (u, g h) to (v, h) for every h.  Built from the edges, the gains and the
    table only, with no representation code; oracle only."""
    N = psi.group.order
    cover = np.zeros((psi.graph.n * N, psi.graph.n * N), dtype=int)
    for (u, v), g in zip(psi.graph.edges, psi.forward):
        for h in range(N):
            a, b = u * N + psi.group.table[g, h], v * N + h
            cover[a, b] = cover[b, a] = 1
    return cover


def shuffled_graph(rng: random.Random, graph: gl.SimpleGraph) -> gl.SimpleGraph:
    """The same graph with its edges in random order and random endpoint order."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges]
    rng.shuffle(edges)
    return gl.SimpleGraph(graph.n, tuple(edges))


def complete_graph(n: int) -> gl.SimpleGraph:
    return gl.SimpleGraph(n, tuple(itertools.combinations(range(n), 2)))


def star_graph(leaves: int) -> gl.SimpleGraph:
    return gl.SimpleGraph(leaves + 1, tuple((0, v) for v in range(1, leaves + 1)))


def incidence_lists(graph: gl.SimpleGraph) -> tuple[tuple[int, ...], ...]:
    """Per vertex, the indices of its incident edges in edge order, read off
    the CSR incidence."""
    indptr, indices = (a.tolist() for a in graph.incidence)
    return tuple(tuple(indices[a:b]) for a, b in zip(indptr, indptr[1:]))


def pairwise_line_graph(graph: gl.SimpleGraph):
    """(line edges, shared vertices) by the pairwise O(m^2) scan; oracle only."""
    edges = graph.edges.tolist()
    line_edges = []
    shared = []
    for i in range(graph.m):
        for j in range(i + 1, graph.m):
            common = set(edges[i]) & set(edges[j])
            if common:
                line_edges.append((i, j))
                shared.append(common.pop())
    return tuple(line_edges), tuple(shared)


def reference_line_graph(graph: gl.SimpleGraph):
    """(line edges, shared vertices) by the per-vertex build of pairs of
    incident edges, sorted; oracle only."""
    incident = [[] for _ in range(graph.n)]
    for k, (u, v) in enumerate(graph.edges.tolist()):
        incident[u].append(k)
        incident[v].append(k)
    pairs = sorted((i, j, v) for v, ks in enumerate(incident)
                   for i, j in itertools.combinations(ks, 2))
    return tuple((i, j) for i, j, _ in pairs), tuple(v for _, _, v in pairs)


def reference_gain_line(psi: gl.GainFunction, orientation: gl.Orientation,
                        ctx: gl.PhaseContext) -> tuple[int, ...]:
    """Line gains by the closed-form orientation rule; oracle only.

    Per line edge (a, b) at shared vertex v: s2 * h(v, a)^-1 * h(v, b), where
    h(v, k) is the gain of edge k at its tail and s1 at its head.
    """
    G = psi.group
    line_edges, shared = pairwise_line_graph(psi.graph)

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


def dense_table_failure(mult) -> str | None:
    """The message of the first failed table check, by whole-table numpy
    intp passes: a bool scan of the 0 and 1 entries, boolean scatters for the
    Latin square, and Light's test on the greedy generators by a row and a
    column gather each, O(order^2) per generator where the exhaustive loops
    of :func:`reference_table_failure` are O(order^3); oracle only."""
    order = len(mult)
    try:
        T = np.array(mult)
    except (TypeError, ValueError, OverflowError):
        T = None
    if T is None or T.shape != (order, order) or T.dtype.kind not in "iu" \
            or any(isinstance(mult[i][j], (bool, np.bool_))
                   for i, j in np.argwhere(np.isin(T, (0, 1))).tolist()):
        return "multiplication table entries must be integers"
    T = T.astype(np.intp)
    full = np.arange(order)
    valid = (T >= 0) & (T < order)
    hits = np.where(valid, T, 0)
    row_hit = np.zeros((order, order), dtype=bool)
    col_hit = np.zeros((order, order), dtype=bool)
    row_hit[full[:, None], hits] = True
    col_hit[hits, full] = True
    bad_rows = ~(valid.all(axis=1) & row_hit.all(axis=1))
    bad_cols = ~(valid.all(axis=0) & col_hit.all(axis=0))
    bad = np.flatnonzero(bad_rows | bad_cols)
    if bad.size:
        kind = "row" if bad_rows[bad[0]] else "column"
        return f"{kind} {bad[0]} of the table is not a permutation"
    if (T[0] != full).any() or (T[:, 0] != full).any():
        return "element 0 is not a two-sided identity"
    bad = np.flatnonzero(T[np.argmin(T, axis=1), full] != 0)
    if bad.size:
        return f"element {bad[0]} has no two-sided inverse"
    gens, reached = [], np.zeros(order, dtype=bool)
    reached[0] = True
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        while True:
            R = np.flatnonzero(reached)
            reached[T[np.ix_(R, R)]] = True
            if np.count_nonzero(reached) == R.size:
                break
    for s in gens:
        bad = np.argwhere(T[T[:, s], :] != T[:, T[s, :]])
        if bad.size:
            x, y = bad[0]
            return f"table is not associative at ({x}, {s}, {y})"
    return None


def reference_representation_failure(group: gl.FiniteGroup, images,
                                     tol: float = 1e-10) -> str | None:
    """The message of the first failed identity, unitarity or homomorphism
    check, by the per-element and per-pair loops; oracle only."""
    eye = np.eye(images.shape[1])
    if np.abs(images[0] - eye).max() > tol:
        return "pi(identity) is not the identity matrix"
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


def reference_generators(group: gl.FiniteGroup) -> tuple[int, ...]:
    """The greedy generating set by right multiplication from the identity:
    each element not yet reached is added; oracle only."""
    gens: list[int] = []
    reached = {0}
    for g in group.elements():
        if g not in reached:
            gens.append(g)
            frontier = list(reached)
            while frontier:
                step = {group.mul(x, s) for x in frontier for s in gens}
                frontier = list(step - reached)
                reached |= step
    return tuple(gens)


def reference_cyclic_table(n: int) -> list[list[int]]:
    """Z_n by the per-pair loop; oracle only."""
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def reference_dihedral(n: int) -> tuple[list[str], list[list[int]]]:
    """Labels and table of D_n by the per-pair loop over (rotation, flip)
    pairs, element s n + a for r^a (s = 0) or s_a (s = 1); oracle only."""
    def idx(a: int, s: int) -> int:
        return s * n + a % n

    labels = [f"r{a}" for a in range(n)] + [f"s{a}" for a in range(n)]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a, s in itertools.product(range(n), range(2)):
        for b, t in itertools.product(range(n), range(2)):
            c = (a + b) % n if s == 0 else (a - b) % n
            table[idx(a, s)][idx(b, t)] = idx(c, (s + t) % 2)
    return labels, table


_Q8_BASIS_MULT = {
    # (b1, b2) -> (sign, basis) for basis order 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def reference_quaternion8() -> tuple[list[str], list[list[int]]]:
    """Labels and table of Q8 from the basis product table; oracle only."""
    labels = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    table = [[0] * 8 for _ in range(8)]
    for s1, b1 in itertools.product(range(2), range(4)):
        for s2, b2 in itertools.product(range(2), range(4)):
            s, b = _Q8_BASIS_MULT[(b1, b2)]
            table[s1 * 4 + b1][s2 * 4 + b2] = (s1 + s2 + s) % 2 * 4 + b
    return labels, table


def reference_direct_product(a: gl.FiniteGroup, b: gl.FiniteGroup
                             ) -> tuple[list[str], list[list[int]]]:
    """Labels and table of a x b by a dict over index pairs; oracle only."""
    pairs = list(itertools.product(range(a.order), range(b.order)))
    index = {p: i for i, p in enumerate(pairs)}
    labels = [f"({a.labels[x]},{b.labels[y]})" for x, y in pairs]
    table = [[index[(a.mul(x1, x2), b.mul(y1, y2))] for x2, y2 in pairs]
             for x1, y1 in pairs]
    return labels, table


def relabeled(rng: random.Random, group: gl.FiniteGroup) -> gl.FiniteGroup:
    """An isomorphic custom table: seeded order of the non-identity
    elements and fresh labels "g0", "g1", ..."""
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    back = {old: new for new, old in enumerate(perm)}
    return gl.FiniteGroup([f"g{i}" for i in range(group.order)],
                          [[back[group.mult[a][b]] for b in perm] for a in perm])


def reference_sign_values(group: gl.FiniteGroup) -> list[int]:
    """The sign character of a named builtin family, read off its name and
    order: sign, even Z_n (parity of the exponent), T4 and D_n (reflections
    -> -1); oracle only."""
    n = group.order
    if group.name == "sign":
        return [1, -1]
    if group.name == "T4":
        return [1, -1, 1, -1]
    if group.name.startswith("Z") and n % 2 == 0:
        return [1 if a % 2 == 0 else -1 for a in range(n)]
    if group.name.startswith("D"):
        return [1] * (n // 2) + [-1] * (n // 2)
    raise ValueError(f"no named sign character for {group.name}")


def index_two_subgroups(group: gl.FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup of index 2 as a sorted index tuple, by testing each
    half-size subset that holds the identity for closure; oracle only."""
    if group.order % 2:
        return []
    found = []
    for rest in itertools.combinations(range(1, group.order), group.order // 2 - 1):
        subset = (0,) + rest
        members = set(subset)
        if all(group.mult[a][b] in members for a in subset for b in subset):
            found.append(subset)
    return found


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


def per_seed_switching_to(psi1: gl.GainFunction, psi2: gl.GainFunction):
    """Some f with psi2 = psi1^f by propagating f along the BFS tree from
    each seed f(0) in element order and checking every edge; oracle only."""
    G = psi1.group
    parent, order, _ = gl.graph.bfs_tree(psi1.graph)
    for seed in G.elements():
        f = [seed] * psi1.graph.n
        for v in order[1:]:
            u = parent[v]
            f[v] = G.mul(G.invert(psi1.gain(u, v)), G.mul(f[u], psi2.gain(u, v)))
        if gl.switch(psi1, f) == psi2:
            return tuple(f)
    return None


def reference_switching_to(psi1: gl.GainFunction, psi2: gl.GainFunction):
    """Some f with psi2 = psi1^f, or None, from potentials p and q taken
    along the BFS tree from vertex 0: f(v) = p(v)^-1 s q(v) for the first
    seed s, in element order, with s^-1 c1 s = c2 for the cycle gains
    c1 = p(u) psi1(u,v) p(v)^-1 and c2 = q(u) psi2(u,v) q(v)^-1 of every
    edge; oracle only."""
    G = psi1.group
    mul, inv = G.mult, G.inv
    parent, order, via = gl.graph.bfs_tree(psi1.graph)
    g1, g2 = psi1.forward.tolist(), psi2.forward.tolist()
    p = [G.identity] * psi1.graph.n
    q = [G.identity] * psi1.graph.n
    for v in order[1:]:
        # forward[k] is read from the lower end, so a higher parent inverts it.
        u, k = parent[v], via[v]
        p[v] = mul[p[u]][g1[k] if u < v else inv[g1[k]]]
        q[v] = mul[q[u]][g2[k] if u < v else inv[g2[k]]]
    pairs = {(mul[mul[p[u]][a]][inv[p[v]]], mul[mul[q[u]][b]][inv[q[v]]])
             for (u, v), a, b in zip(psi1.graph.edges.tolist(), g1, g2)}
    for s in G.elements():
        if all(mul[mul[inv[s]][c1]][s] == c2 for c1, c2 in pairs):
            return tuple(mul[mul[inv[p[v]]][s]][q[v]] for v in range(psi1.graph.n))
    return None


def reference_recognize_gain_line(zeta: gl.GainFunction, root: gl.SimpleGraph,
                                  ctx: gl.PhaseContext):
    """Recognition with each row anchored at its first incident edge and
    checked on every ordered pair of incident edges; oracle only."""
    G = zeta.group
    rows = [[None] * root.m for _ in range(root.n)]
    for v, incident in enumerate(incidence_lists(root)):
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
    return phase_of_rows(root, G, rows)


def perturbed(rng: random.Random, psi: gl.GainFunction) -> gl.GainFunction:
    """psi with one gain, chosen at random, moved to another element."""
    forward = list(psi.forward)
    k = rng.randrange(len(forward))
    forward[k] = (forward[k] + rng.randrange(1, psi.group.order)) % psi.group.order
    return gl.GainFunction(psi.graph, psi.group, tuple(forward))
