"""Output oracles, independent of gainline.

Each oracle takes a request's stdout text and the facts recorded when its
inputs were generated, and returns None when the output is right or a short
reason when it is not.  Spectra are compared with ``SPECTRUM_TOL``; every
other check is exact.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from workloads import line_graph, line_gains, section_phase

#: Absolute tolerance on eigenvalues, margins and extreme eigenvalues.  The
#: represented matrices have norm at most the maximum degree (< 20 here), so
#: this is far above eigvalsh's round-off and far below any spectral gap the
#: verdicts depend on.
SPECTRUM_TOL = 1e-8
#: The obstruction rules' slack around -2 and 2 (the CLI's --tol default).
OBSTRUCTION_TOL = 1e-8


def represented(graph, group, gains, rep):
    """The represented adjacency matrix, assembled block by block."""
    k, n = rep.degree, graph.n
    out = np.zeros((n * k, n * k), dtype=complex)
    for (u, v), g in zip(graph.edges, gains):
        out[u * k:(u + 1) * k, v * k:(v + 1) * k] = rep.images[g]
        out[v * k:(v + 1) * k, u * k:(u + 1) * k] = rep.images[group.inv[g]]
    return out


def _close(got, want):
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= SPECTRUM_TOL))


def spectrum(text, f):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["index", "eigenvalue", "multiplicity_group"]:
        return "bad CSV header"
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(len(body))):
        return "indices are not 0..N-1"
    values = [float(r[1]) for r in body]
    if not _close(values, np.linalg.eigvalsh(represented(f["graph"], f["group"],
                                                          f["gains"], f["rep"]))):
        return "eigenvalues differ from the numpy assembly"
    ids = [0]
    for prev, lam in zip(values, values[1:]):
        ids.append(ids[-1] + (lam - prev > 1e-8))
    if [int(r[2]) for r in body] != ids:
        return "multiplicity groups do not follow the eigenvalue gaps"
    return None


def obstruction(text, f):
    out = json.loads(text)
    rep, tol = f["rep"], OBSTRUCTION_TOL
    spec = np.linalg.eigvalsh(represented(f["graph"], f["group"], f["gains"], rep))
    if not _close(out["spectrum"], spec):
        return "spectrum differs from the numpy assembly"
    lo, hi = spec[0], spec[-1]
    if abs(out["min_eig"] - lo) > SPECTRUM_TOL or abs(out["max_eig"] - hi) > SPECTRUM_TOL:
        return "extreme eigenvalues differ"
    image, eye = rep.images[f["s2"]], np.eye(rep.degree)
    s2_class = ("plus_identity" if np.abs(image - eye).max() <= tol else
                "minus_identity" if np.abs(image + eye).max() <= tol else "other")
    below, above = lo < -2 - tol, hi > 2 + tol
    violated, margin = None, 0.0
    if rep.irreducible and below and above:
        violated, margin = "gainline", min(-2 - lo, hi - 2)
    elif s2_class == "plus_identity" and below:
        violated, margin = "cor1", -2 - lo
    elif s2_class == "minus_identity" and above:
        violated, margin = "cor2", hi - 2
    if (out["s2_class"], out["violated"]) != (s2_class, violated):
        return f"verdict {out['s2_class']}/{out['violated']}, expected {s2_class}/{violated}"
    if abs(out["margin"] - margin) > SPECTRUM_TOL:
        return "margin differs"
    return None


def _line_wire(graph):
    line, shared = line_graph(graph)
    return {"n": line.n, "edges": [[a + 1, b + 1] for a, b in line.edges]}, shared


def _same_group(data, group):
    return data["labels"] == group.labels and data["table"] == group.table


def line(text, f):
    out = json.loads(text)
    wire, shared = _line_wire(f["graph"])
    if out["line"] != wire:
        return "line graph differs from the per-vertex incidence construction"
    if out["shared_vertex"] != [v + 1 for v in shared]:
        return "shared vertices differ"
    return None


def gainline(text, f):
    out = json.loads(text)
    group = f["group"]
    if out["graph"] != _line_wire(f["graph"])[0]:
        return "gain-line graph does not live on the line graph"
    if not _same_group(out["group"], group):
        return "group table differs"
    H = section_phase(f["graph"], f["gains"], f["s1"])
    want = line_gains(group, f["line"], f["shared"], H, f["s2"])
    if out["gains"] != [group.labels[g] for g in want]:
        return "gains differ from s2 * H[v,a]^-1 * H[v,b] on the section phase"
    return None


def _is_gain_line(group, line, shared, zeta, s2):
    """Decide recognition: per root vertex, the clique of its edges must satisfy
    zeta(a0, a) zeta(a, b) = s2 zeta(a0, b) for its first edge a0."""
    at = {}
    for (a, b), v, g in zip(line.edges, shared, zeta):
        at.setdefault(v, {})[(a, b)] = g
    mul = group.mul
    for pairs in at.values():
        edges = sorted({k for pair in pairs for k in pair})
        a0 = edges[0]
        for i, a in enumerate(edges[1:], 1):
            for b in edges[i + 1:]:
                if mul(pairs[(a0, a)], pairs[(a, b)]) != mul(s2, pairs[(a0, b)]):
                    return False
    return True


def check_gainline(text, f):
    out = json.loads(text)
    group, graph, line_, shared = f["group"], f["graph"], f["line"], f["shared"]
    truth = _is_gain_line(group, line_, shared, f["zeta"], f["s2"])
    if out["gain_line"] != truth:
        return f"verdict {out['gain_line']}, the triangle oracle says {truth}"
    if not truth:
        return None
    phase = out["witness_phase"]
    if phase["graph"] != graph.to_dict() or not _same_group(phase["group"], group):
        return "witness phase lives on another graph or group"
    H = {}
    for v, row in enumerate(phase["entries"]):
        for k, label in enumerate(row):
            if v in graph.edges[k]:
                H[(v, k)] = group.index[label]
            elif label != "0":
                return f"witness has an entry off the incidence pattern at ({v}, {k})"
    if line_gains(group, line_, shared, H, f["s2"]) != f["zeta"]:
        return "witness does not reproduce zeta"
    return None


def _tree_normal(graph, group, gains):
    """Switch gains to the identity on a BFS tree; chords keep their cycle gains."""
    adj = [[] for _ in range(graph.n)]
    for k, (u, v) in enumerate(graph.edges):
        adj[u].append((v, gains[k]))
        adj[v].append((u, group.inv[gains[k]]))
    t = [None] * graph.n
    t[0] = 0
    queue = [0]
    for u in queue:
        for v, g in adj[u]:
            if t[v] is None:
                t[v] = group.mul(t[u], g)
                queue.append(v)
    return [group.mul(group.mul(t[u], g), group.inv[t[v]])
            for (u, v), g in zip(graph.edges, gains)]


def _equivalent(graph, group, first, second):
    """Fundamental-cycle test: the tree-normal forms must be conjugate."""
    a = _tree_normal(graph, group, first)
    b = _tree_normal(graph, group, second)
    mul, inv = group.mul, group.inv
    return any(all(mul(inv[x], mul(g, x)) == h for g, h in zip(a, b))
               for x in range(group.order))


def _witness_ok(out, graph, group, first, second):
    f = [group.index[label] for label in out["witness"]]
    if len(f) != graph.n:
        return False
    mul, inv = group.mul, group.inv
    return all(mul(inv[f[u]], mul(g, f[v])) == h
               for (u, v), g, h in zip(graph.edges, first, second))


def switch_equiv(text, f):
    out = json.loads(text)
    graph, group = f["graph"], f["group"]
    truth = _equivalent(graph, group, f["first"], f["second"])
    if out["equivalent"] != truth:
        return f"verdict {out['equivalent']}, the fundamental-cycle oracle says {truth}"
    if truth and not _witness_ok(out, graph, group, f["first"], f["second"]):
        return "witness does not switch the first gain onto the second"
    return None


def balance(text, f):
    out = json.loads(text)
    graph, group, gains = f["graph"], f["group"], f["gains"]
    truth = all(g == 0 for g in _tree_normal(graph, group, gains))
    if out["balanced"] != truth:
        return f"verdict {out['balanced']}, the fundamental-cycle oracle says {truth}"
    if truth and not _witness_ok(out, graph, group, gains, [0] * len(gains)):
        return "witness does not switch the gain to the identity"
    return None


def group(text, f):
    out = json.loads(text)
    G = f["group"]
    T = np.array(G.table)
    centre = [g for g in range(G.order) if np.array_equal(T[g], T[:, g])]
    want = {
        "order": int(T.shape[0]),
        "abelian": bool(np.array_equal(T, T.T)),
        "center": [G.labels[g] for g in centre],
        "central_weak_involutions": [G.labels[g] for g in centre if T[g, g] == 0],
    }
    for key, value in want.items():
        if out[key] != value:
            return f"{key} differs from the table scan"
    if not _same_group(out["group"], G):
        return "echoed table differs"
    return None


ORACLES = {"spectrum": spectrum, "obstruction": obstruction, "line": line,
           "gainline": gainline, "check_gainline": check_gainline,
           "switch_equiv": switch_equiv, "balance": balance, "group": group}


def check(request, text):
    """None if the output is right, else the reason it is wrong."""
    try:
        return ORACLES[request.check](text, request.facts)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"
