"""Seeded inputs for the three benchmark workloads.

Everything here is independent of gainline: groups are rebuilt from their
defining models (matrices, permutations, residues), graphs and gains come
from a ``random.Random`` seeded with the workload name and ``--seed``, and
each request carries the facts its oracle needs.  gainline itself only ever
sees the JSON files written here.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np


# -- groups -----------------------------------------------------------------

class Group:
    """A finite group as a multiplication table with gainline's wire labels."""

    def __init__(self, name, spec, labels, table):
        self.name = name
        self.spec = spec  # the group description sent to gainline
        self.labels = list(labels)
        self.table = [list(row) for row in table]
        self.order = len(self.labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.inv = [row.index(0) for row in self.table]

    def mul(self, a, b):
        return self.table[a][b]


_Q8_UNITS = {
    "1": np.eye(2, dtype=complex),
    "i": np.array([[0, -1], [1, 0]], dtype=complex),
    "j": np.array([[0, 1j], [1j, 0]]),
    "k": np.array([[-1j, 0], [0, 1j]]),
}
Q8_LABELS = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]


def q8_images():
    return np.array([_Q8_UNITS[b] for b in Q8_LABELS[:4]]
                    + [-_Q8_UNITS[b] for b in Q8_LABELS[:4]])


def _table_from_images(images):
    """Multiplication table of a faithful matrix group, by matrix products."""
    out = []
    for a in images:
        row = []
        for b in images:
            prod = a @ b
            row.append(next(i for i, c in enumerate(images)
                            if np.abs(c - prod).max() < 1e-9))
        out.append(row)
    return out


def quaternion8():
    return Group("Q8", {"family": "quaternion8"}, Q8_LABELS,
                 _table_from_images(q8_images()))


def cyclic(n):
    return Group(f"Z{n}", {"family": "cyclic", "n": n}, [str(a) for a in range(n)],
                 [[(a + b) % n for b in range(n)] for a in range(n)])


def t4():
    return Group("T4", {"family": "t4"}, ["1", "i", "-1", "-i"],
                 [[(a + b) % 4 for b in range(4)] for a in range(4)])


def dihedral(n):
    """Order 2n: r_a is x -> x + a and s_a is x -> a - x on Z_n; g*h = g after h."""
    perms = ([tuple((x + a) % n for x in range(n)) for a in range(n)]
             + [tuple((a - x) % n for x in range(n)) for a in range(n)])
    where = {p: i for i, p in enumerate(perms)}
    table = [[where[tuple(g[h[x]] for x in range(n))] for h in perms] for g in perms]
    labels = [f"r{a}" for a in range(n)] + [f"s{a}" for a in range(n)]
    return Group(f"D{n}", {"family": "dihedral", "n": n}, labels, table)


def direct_product(a, b):
    pairs = list(itertools.product(range(a.order), range(b.order)))
    where = {p: i for i, p in enumerate(pairs)}
    table = [[where[(a.table[x1][x2], b.table[y1][y2])] for x2, y2 in pairs]
             for x1, y1 in pairs]
    labels = [f"({a.labels[x]},{b.labels[y]})" for x, y in pairs]
    return Group(f"{a.name}x{b.name}",
                 {"family": "direct_product", "left": a.spec, "right": b.spec},
                 labels, table)


def relabeled(group, rng):
    """An isomorphic custom table: seeded element order and fresh labels."""
    rest = list(range(1, group.order))
    rng.shuffle(rest)
    perm = [0] + rest  # new index i is old element perm[i]
    back = {old: new for new, old in enumerate(perm)}
    names = list(range(group.order))
    rng.shuffle(names)
    labels = [f"g{names[i]}" for i in range(group.order)]
    table = [[back[group.table[perm[i]][perm[j]]] for j in range(group.order)]
             for i in range(group.order)]
    spec = {"family": "custom", "name": f"{group.name}-relabeled",
            "labels": labels, "table": table}
    return Group(spec["name"], spec, labels, table)


def central_involution(group):
    """The unique non-identity central element with square 1 (-1, r_{n/2}, ...)."""
    t = group.table
    found = [g for g in range(1, group.order) if t[g][g] == 0
             and all(t[g][h] == t[h][g] for h in range(group.order))]
    if len(found) != 1:
        raise ValueError(f"{group.name} has {len(found)} central involutions")
    return found[0]


# -- representations ----------------------------------------------------------

@dataclass
class Rep:
    spec: dict
    images: np.ndarray
    irreducible: bool

    @property
    def degree(self):
        return self.images.shape[1]


def rep_q8(group):
    return Rep({"builtin": "q8_2dim"}, q8_images(), True)


def rep_root_of_unity(group, power=1):
    n = group.order
    images = np.array([[[cmath.exp(2j * cmath.pi * power * a / n)]] for a in range(n)])
    spec = {"builtin": "root_of_unity"}
    if power != 1:
        spec["power"] = power
    return Rep(spec, images, True)


def rep_sign_character(group):
    if group.name.startswith("D"):
        half = group.order // 2
        values = [1.0] * half + [-1.0] * half
    else:  # cyclic of even order, T4 included: parity of the exponent
        values = [(-1.0) ** a for a in range(group.order)]
    return Rep({"builtin": "sign_character"},
               np.array([[[complex(v)]] for v in values]), True)


def rep_regular(group):
    n = group.order
    images = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        for h in range(n):
            images[g, group.table[g][h], h] = 1
    return Rep({"builtin": "regular"}, images, n == 1)


# -- graphs, gains and phases --------------------------------------------------

@dataclass
class Graph:
    n: int
    edges: list  # (u, v) with u < v, in wire order
    tree: set = field(default_factory=set)  # edge positions of the seeding tree

    def to_dict(self):
        return {"n": self.n, "edges": [[u + 1, v + 1] for u, v in self.edges]}


def random_graph(rng, n, m):
    """Random recursive spanning tree plus random chords, edges shuffled."""
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    edges = set(tree)
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    order = sorted(edges)
    rng.shuffle(order)
    return Graph(n, order, {k for k, e in enumerate(order) if e in tree})


def line_graph(graph):
    """Per-vertex incidence construction: (line edges, shared vertex per edge)."""
    incident = [[] for _ in range(graph.n)]
    for k, (u, v) in enumerate(graph.edges):
        incident[u].append(k)
        incident[v].append(k)
    pairs = []
    for v, ks in enumerate(incident):
        for a, b in itertools.combinations(sorted(ks), 2):
            pairs.append((a, b, v))
    pairs.sort()
    return Graph(len(graph.edges), [(a, b) for a, b, _ in pairs]), [v for _, _, v in pairs]


def switched(graph, group, gains, f):
    """psi^f(u, v) = f(u)^-1 psi(u, v) f(v) on every stored edge."""
    mul, inv = group.mul, group.inv
    return [mul(inv[f[u]], mul(g, f[v])) for (u, v), g in zip(graph.edges, gains)]


def random_phase(rng, graph, group):
    """{(vertex, edge): element} on every incident pair."""
    return {(w, k): rng.randrange(group.order)
            for k, e in enumerate(graph.edges) for w in e}


def section_phase(graph, gains, s1):
    """Default orientation: the gain at the tail (low end), s1 at the head."""
    H = {}
    for k, (u, v) in enumerate(graph.edges):
        H[(u, k)] = gains[k]
        H[(v, k)] = s1
    return H


def line_gains(group, line, shared, H, s2):
    """zeta(a, b) = s2 * H[v, a]^-1 * H[v, b] at the shared vertex v."""
    mul, inv = group.mul, group.inv
    return [mul(s2, mul(inv[H[(v, a)]], H[(v, b)]))
            for (a, b), v in zip(line.edges, shared)]


def other_element(rng, group, g):
    return (g + rng.randrange(1, group.order)) % group.order


# -- requests ---------------------------------------------------------------------

@dataclass
class Request:
    cmd: str  # e.g. "spectrum", "check obstruction"
    argv: list
    check: str  # oracle name in oracles.py
    facts: dict  # what the oracle needs
    stats: dict  # n, m, order, degree, line_edges


class Inputs:
    """Writes JSON files into ``root`` and collects the request list."""

    def __init__(self, root):
        self.root = root
        self.files = {}
        self.requests = []

    def write(self, name, data):
        if name not in self.files:
            text = json.dumps(data, separators=(",", ":"))
            with open(os.path.join(self.root, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[name] = hashlib.sha256(text.encode()).hexdigest()
        return name

    def gain_file(self, name, graph, group, gains):
        return self.write(name, {"graph": graph.to_dict(), "group": group.spec,
                                 "gains": [group.labels[g] for g in gains]})

    def add(self, cmd, argv, check, facts, **stats):
        self.requests.append(Request(cmd, argv, check, facts, stats))

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(f"{name}:{self.files[name]}\n".encode())
        for r in self.requests:
            h.update(json.dumps(r.argv).encode())
        return h.hexdigest()


def spectra(rng, inp):
    """Dense CG build, fourier and eigvalsh over small groups (|G| <= 8)."""
    for group, make_rep in ((quaternion8(), rep_q8), (t4(), rep_root_of_unity),
                            (dihedral(4), rep_sign_character)):
        rep = make_rep(group)
        rep_file = inp.write(f"{group.name}-rep.json", rep.spec)
        for n in (50, 200, 400):
            g = random_graph(rng, n, 2 * n)
            gains = [rng.randrange(group.order) for _ in g.edges]
            f = inp.gain_file(f"{group.name}-spec-{n}.json", g, group, gains)
            inp.add("spectrum", ["spectrum", f, rep_file], "spectrum",
                    {"graph": g, "group": group, "gains": gains, "rep": rep},
                    n=n, m=len(g.edges), order=group.order, degree=rep.degree)
        one, minus = 0, central_involution(group)
        for n in (50, 100, 200):
            root = random_graph(rng, n, 2 * n)
            line, shared = line_graph(root)
            psi = [rng.randrange(group.order) for _ in root.edges]
            cases = [(s1, s2, line_gains(group, line, shared,
                                         section_phase(root, psi, s1), s2))
                     for s1, s2 in itertools.product((one, minus), repeat=2)]
            cases.append((None, minus, [rng.randrange(group.order) for _ in line.edges]))
            for s1, s2, zeta in cases:
                tag = "random" if s1 is None else f"{s1}{s2}"
                f = inp.gain_file(f"{group.name}-zeta-{n}-{tag}.json", line, group, zeta)
                inp.add("check obstruction",
                        ["check", "obstruction", f, "--rep", rep_file,
                         "--s2", group.labels[s2]],
                        "obstruction",
                        {"graph": line, "group": group, "gains": zeta, "rep": rep,
                         "s2": s2},
                        n=line.n, m=len(line.edges), order=group.order,
                        degree=rep.degree, root_n=n)


def big_group(rng, inp):
    """Few CG entries over big groups: validation and |G|-sized work dominate."""
    q8 = quaternion8()
    z512, d64, d32 = cyclic(512), dihedral(64), dihedral(32)
    q8z8, q8z64 = direct_product(q8, cyclic(8)), direct_product(q8, cyclic(64))
    families = (z512, d64, q8z8, d32, q8z64)
    for group in families + tuple(relabeled(g, rng) for g in families):
        f = inp.write(f"group-{group.name}.json", group.spec)
        inp.add("group", ["group", f], "group", {"group": group}, order=group.order)
    power = 2 * rng.randrange(256) + 1  # odd, so the character is faithful
    plan = ((z512, rep_root_of_unity(z512, power), 200, 1),
            (d64, rep_sign_character(d64), 200, 3),
            (q8z8, rep_regular(q8z8), 16, 2),
            (d32, rep_regular(d32), 16, 2))
    for group, rep, n, copies in plan:
        rep_file = inp.write(f"{group.name}-rep.json", rep.spec)
        for c in range(copies):
            g = random_graph(rng, n, 2 * n)
            gains = [rng.randrange(group.order) for _ in g.edges]
            f = inp.gain_file(f"{group.name}-spec-{n}-{c}.json", g, group, gains)
            inp.add("spectrum", ["spectrum", f, rep_file], "spectrum",
                    {"graph": g, "group": group, "gains": gains, "rep": rep},
                    n=n, m=len(g.edges), order=group.order, degree=rep.degree)


def lift(rng, inp):
    """Pure-Python combinatorics with large JSON output; no CG matrices.

    Line-graph commands cost the same over both groups, so at n = 1000 only
    Q8 runs them; D32 keeps its switching and balance checks there, where
    the order of the group sets the work.
    """
    for n in (200, 400, 1000):
        for gi, group in enumerate((quaternion8(), dihedral(32))):
            line_cmds = gi == 0 or n < 1000
            tag = f"{group.name}-{n}"
            root = random_graph(rng, n, 2 * n)
            m = len(root.edges)
            line, shared = line_graph(root)
            gfile = inp.write(f"{tag}-graph.json", root.to_dict())
            common = {"graph": root, "group": group}
            sizes = {"n": n, "m": m, "order": group.order}
            if gi == 0:
                inp.add("line", ["line", gfile], "line", common,
                        line_edges=len(line.edges), **sizes)

            signs = [0, central_involution(group)]
            s1, s2 = rng.choice(signs), rng.choice(signs)
            flags = ["--s1", group.labels[s1], "--s2", group.labels[s2]]
            psi = [rng.randrange(group.order) for _ in root.edges]
            psi_file = inp.gain_file(f"{tag}-psi.json", root, group, psi)
            if line_cmds:
                inp.add("gainline", ["gainline", psi_file] + flags, "gainline",
                        dict(common, gains=psi, s1=s1, s2=s2, line=line,
                             shared=shared),
                        line_edges=len(line.edges), **sizes)
                zeta = line_gains(group, line, shared, random_phase(rng, root, group), s2)
                degree = [0] * n
                for e in root.edges:
                    for w in e:
                        degree[w] += 1
                # Perturb a line edge at the last vertex of degree >= 3: the
                # degree puts it in a triangle, so no phase exists, and being
                # last keeps a first-failure scan over vertices equally long
                # for every seed.
                hub = max(v for v in range(n) if degree[v] >= 3)
                p = rng.choice([p for p, v in enumerate(shared) if v == hub])
                bad = list(zeta)
                bad[p] = other_element(rng, group, bad[p])
                for kind, gains in (("pos", zeta), ("neg", bad)):
                    f = inp.gain_file(f"{tag}-zeta-{kind}.json", line, group, gains)
                    inp.add("check gainline",
                            ["check", "gainline", f, "--root", gfile] + flags,
                            "check_gainline",
                            dict(common, line=line, shared=shared, zeta=gains, s2=s2),
                            line_edges=len(line.edges), **sizes)

            f_switch = [rng.randrange(group.order) for _ in range(n)]
            psi2 = switched(root, group, psi, f_switch)
            chords = [k for k in range(m) if k not in root.tree]
            late = max(chords)  # the last edge that closes a cycle
            far = list(psi2)
            far[late] = other_element(rng, group, far[late])
            for kind, gains in (("pos", psi2), ("neg", far)):
                f2 = inp.gain_file(f"{tag}-switch-{kind}.json", root, group, gains)
                inp.add("check switch-equiv", ["check", "switch-equiv", psi_file, f2],
                        "switch_equiv", dict(common, first=psi, second=gains), **sizes)

            balanced = switched(root, group, [0] * m,
                                [rng.randrange(group.order) for _ in range(n)])
            nearly = list(balanced)
            nearly[late] = other_element(rng, group, nearly[late])
            for kind, gains in (("pos", balanced), ("neg", nearly)):
                f = inp.gain_file(f"{tag}-balance-{kind}.json", root, group, gains)
                inp.add("check balance", ["check", "balance", f], "balance",
                        dict(common, gains=gains), **sizes)


WORKLOADS = {"spectra": spectra, "big_group": big_group, "lift": lift}
