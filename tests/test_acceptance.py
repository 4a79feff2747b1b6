"""End-to-end acceptance checks, one per pinned criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failure shows up as an ordinary pytest failure.
"""

import itertools
import math
import random
import time

import numpy as np

import gainline as gl
from gainline.algebra import AlgebraElement

from helpers import (DIAMOND, PAW, STAR3, all_phases, q8_gain,
                     random_connected_graph, random_gain, random_phase,
                     random_vector, small_groups)

DIAMOND_GAINS = ["-k", "1", "1", "1", "-j"]
PAW_GAINS = ["-i", "-j", "-k", "-i"]


def ok(message: str) -> None:
    print(f"PASS {message}")


def test_criterion_01_q8_spectrum_reproduction():
    start = time.perf_counter()
    Q8 = gl.quaternion8()
    psi = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    spec = gl.hermitian_spectrum(gl.fourier(gl.gain_adjacency(psi), rep))
    big = 0.5 * math.sqrt(10 + 2 * math.sqrt(17))
    small = 0.5 * math.sqrt(10 - 2 * math.sqrt(17))
    expected = sorted([-big, -big, -small, -small, small, small, big, big])
    assert np.allclose(spec, expected, atol=1e-8)
    assert abs(big - 2.1357792) < 1e-7
    assert abs(small - 0.6621534) < 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(f"criterion 1: quaternion spectrum +-2.1357792/+-0.6621534 x2 "
       f"within 1e-8 in {elapsed:.3f}s")


def test_criterion_02_obstruction_verdict_both_s2():
    Q8 = gl.quaternion8()
    zeta = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    for s2 in (Q8.identity, Q8.element("-1")):
        verdict = gl.gainline_obstruction(zeta, rep, s2)
        assert verdict.violated == "gainline"
    ok("criterion 2: two-sided irreducible rule flags the example for "
       "s2 = 1 and s2 = -1")


def test_criterion_03_exact_structural_identities():
    start = time.perf_counter()
    rng = random.Random(2024)
    groups = small_groups()
    checked = 0
    while checked < 500:
        G = rng.choice(groups)
        graph = random_connected_graph(rng, 8)
        invs = gl.central_weak_involutions(G)
        ctx = gl.PhaseContext(G, rng.choice(invs), rng.choice(invs))
        H = random_phase(rng, graph, G)
        M = H.to_cg_matrix()
        assert M @ M.star() == gl.s_laplacian(gl.psi(H, ctx), ctx.s1)
        two = gl.group_diagonal(G, [G.identity] * graph.m).scalar_mul(
            AlgebraElement(G, {G.identity: 2}))
        rhs = two + \
            gl.gain_adjacency(gl.psi_line(H, ctx)).scalar_mul(
                AlgebraElement.unit(G, ctx.s2), "left")
        assert M.star() @ M == rhs
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(f"criterion 3: both factorization identities exact on {checked} "
       f"random instances in {elapsed:.2f}s")


def connected_graphs_up_to(max_n: int, max_m: int):
    for n in range(2, max_n + 1):
        pool = list(itertools.combinations(range(n), 2))
        for m in range(n - 1, max_m + 1):
            for subset in itertools.combinations(pool, m):
                try:
                    yield gl.SimpleGraph(n, subset)
                except gl.ValidationError:
                    continue


def brute_orbit_ids(phases, index, movers):
    """Union-find orbit ids under the listed mover functions."""
    parent = list(range(len(phases)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx, H in enumerate(phases):
        for move in movers:
            other = index[move(H)]
            ra, rb = find(idx), find(other)
            if ra != rb:
                parent[rb] = ra
    return [find(i) for i in range(len(phases))]


def partition_labels(ids):
    seen = {}
    return tuple(seen.setdefault(x, len(seen)) for x in ids)


def test_criterion_04_orbit_fiber_theorems_exhaustive():
    Z2 = gl.sign_group()
    ctx = gl.PhaseContext(Z2, 0, 0)
    rng = random.Random(4)
    for graph in connected_graphs_up_to(4, 4):
        phases = list(all_phases(graph, Z2))
        index = {H: i for i, H in enumerate(phases)}
        n, m = graph.n, graph.m
        g_moves = [(lambda H, v=v: gl.act(H, g=v))
                   for v in itertools.product(range(2), repeat=m)]
        f_moves = [(lambda H, v=v: gl.act(H, f=v))
                   for v in itertools.product(range(2), repeat=n)]
        r_ids = brute_orbit_ids(phases, index, g_moves)
        l_ids = brute_orbit_ids(phases, index, f_moves)
        lr_ids = brute_orbit_ids(phases, index, g_moves + f_moves)

        # theorem-side partitions: fibers of the vertex / line gain maps,
        # and switching classes of the vertex gains
        psi_keys = [tuple(gl.psi(H, ctx).forward.tolist()) for H in phases]
        line_keys = [tuple(gl.psi_line(H, ctx).forward.tolist()) for H in phases]
        assert partition_labels(r_ids) == partition_labels(psi_keys)
        assert partition_labels(l_ids) == partition_labels(line_keys)

        class_of = {}
        reps = []
        for key in psi_keys:
            if key in class_of:
                continue
            psi_fn = gl.GainFunction(graph, Z2, key)
            for rep_key, rep_fn in reps:
                if gl.switching_to(rep_fn, psi_fn) is not None:
                    class_of[key] = class_of[rep_key]
                    break
            else:
                class_of[key] = len(reps)
                reps.append((key, psi_fn))
        lr_keys = [class_of[key] for key in psi_keys]
        assert partition_labels(lr_ids) == partition_labels(lr_keys)

        # spot-check the pairwise deciders against the brute-force ids
        for _ in range(60):
            i, j = rng.randrange(len(phases)), rng.randrange(len(phases))
            assert gl.same_orbit(phases[i], phases[j], "r", ctx) == \
                (r_ids[i] == r_ids[j])
            assert gl.same_orbit(phases[i], phases[j], "l", ctx) == \
                (l_ids[i] == l_ids[j])
            assert gl.same_orbit(phases[i], phases[j], "lr", ctx) == \
                (lr_ids[i] == lr_ids[j])
    ok("criterion 4: action orbits equal the gain-map fibers and switching "
       "classes on every graph with <= 4 vertices and <= 4 edges")


def test_criterion_05_gain_line_well_posedness():
    rng = random.Random(5)
    for _ in range(100):
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 6)
        invs = gl.central_weak_involutions(G)
        ctx = gl.PhaseContext(G, rng.choice(invs), rng.choice(invs))
        psi = random_gain(rng, graph, G)
        f = random_vector(rng, G, graph.n)
        o1 = gl.Orientation(graph, tuple(
            (u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges))
        o2 = gl.Orientation(graph, tuple(
            (u, v) if rng.random() < 0.5 else (v, u) for u, v in graph.edges))
        z1 = gl.gain_line(psi, o1, ctx)
        z2 = gl.gain_line(gl.switch(psi, f), o2, ctx)
        witness = gl.switching_to(z1, z2)
        assert witness is not None
        assert gl.switch(z1, witness) == z2
    ok("criterion 5: gain-line construction is orientation- and "
       "switching-independent on 100 random instances")


def test_criterion_06_balance_correspondence():
    rng = random.Random(6)
    for trial in range(200):
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 6)
        ctx = gl.PhaseContext(G, G.identity, G.identity)
        if trial % 2 == 0:
            H = random_phase(rng, graph, G)
        else:
            # seed balanced cases: act on the plain incidence pattern
            H = gl.act(gl.incidence_phase(graph, G),
                       f=random_vector(rng, G, graph.n),
                       g=random_vector(rng, G, graph.m))
        assert (gl.balance_witness(gl.psi(H, ctx)) is None) == \
            (gl.balance_witness(gl.psi_line(H, ctx)) is None)
    ok("criterion 6: vertex gains balanced iff line gains balanced, "
       "200 instances with trivial signs")


def test_criterion_07_line_phase_map_consistency():
    rng = random.Random(7)
    done = 0
    while done < 200:
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 6)
        data = gl.line_graph(graph)
        if data.line.m == 0:
            continue
        invs = gl.central_weak_involutions(G)
        ctx = gl.PhaseContext(G, rng.choice(invs), rng.choice(invs))
        H = random_phase(rng, graph, G)
        LH = gl.reff_line_phase(H)
        s1s2 = G.mul(ctx.s1, ctx.s2)
        lifted = gl.psi(LH, ctx)
        assert gl.psi_line(H, ctx) == gl.GainFunction(
            lifted.graph, G, tuple(G.mul(s1s2, g) for g in lifted.forward))
        g = random_vector(rng, G, graph.m)
        f = random_vector(rng, G, graph.n)
        assert gl.reff_line_phase(gl.act(H, g=g)) == gl.act(LH, f=g)
        f_prime = tuple(f[v] for v in data.shared_vertex)
        assert gl.reff_line_phase(gl.act(H, f=f)) == gl.act(LH, g=f_prime)
        done += 1
    ok("criterion 7: line-phase map intertwines the gain maps and both "
       "actions on 200 random instances")


def test_criterion_08_classical_reduction_all_small_graphs():
    import networkx as nx
    G1 = gl.cyclic(1)
    rep = gl.trivial_representation(G1)
    ctx = gl.PhaseContext(G1, 0, 0)
    checked = 0
    for nx_graph in nx.graph_atlas_g():
        if nx_graph.number_of_nodes() < 2 or not nx.is_connected(nx_graph):
            continue
        mapping = {v: i for i, v in enumerate(sorted(nx_graph.nodes()))}
        graph = gl.SimpleGraph(nx_graph.number_of_nodes(), tuple(sorted(
            tuple(sorted((mapping[u], mapping[v])))
            for u, v in nx_graph.edges())))
        N = gl.incidence_matrix(graph)
        mats = gl.classical_matrices(graph)
        assert (N @ N.T == mats["signless_laplacian"]).all()
        data = gl.line_graph(graph)
        al = gl.classical_matrices(data.line)["adjacency"] if data.line.m \
            else np.zeros((graph.m, graph.m), dtype=int)
        assert (N.T @ N == 2 * np.eye(graph.m, dtype=int) + al).all()
        # the represented pipeline reproduces the same integers
        F = gl.fourier(gl.incidence_phase(graph, G1).to_cg_matrix(), rep)
        assert np.array_equal(F.real.astype(int), N)
        if data.line.m:
            zeta = gl.psi_line(gl.incidence_phase(graph, G1), ctx)
            spec = gl.hermitian_spectrum(
                gl.fourier(gl.gain_adjacency(zeta), rep))
            assert spec[0] >= -2 - 1e-8
        checked += 1
    assert checked > 900
    ok(f"criterion 8: classical identities and the -2 line-spectrum bound "
       f"hold on all {checked} connected graphs with <= 7 vertices")


def test_criterion_09_recognition_exhaustive_star():
    Z2 = gl.sign_group()
    line = gl.line_graph(STAR3).line
    for s1 in (0, 1):
        for s2 in (0, 1):
            ctx = gl.PhaseContext(Z2, s1, s2)
            image = {gl.psi_line(H, ctx).forward.tobytes()
                     for H in all_phases(STAR3, Z2)}
            accepted = set()
            for combo in itertools.product(range(2), repeat=line.m):
                zeta = gl.GainFunction(line, Z2, combo)
                H = gl.recognize_gain_line(zeta, STAR3, ctx)
                if H is not None:
                    assert gl.psi_line(H, ctx) == zeta
                    accepted.add(zeta.forward.tobytes())
            assert accepted == image
            assert 0 < len(accepted) < 2 ** line.m
    ok("criterion 9: recognition accepts exactly the realizable line gains "
       "of the 3-star, a proper nonempty subset, for all sign contexts")


def test_criterion_10_gain_line_golden():
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.element("-1"), Q8.element("-1"))
    zeta = gl.gain_line(q8_gain(PAW, PAW_GAINS),
                        gl.default_orientation(PAW), ctx)
    line = gl.line_graph(PAW).line
    expected = {(0, 1): "-j", (1, 2): "-k", (2, 3): "-1",
                (0, 3): "-i", (1, 3): "-k"}
    got = {e: Q8.label(g) for e, g in zip(map(tuple, line.edges.tolist()), zeta.forward)}
    assert got == expected
    ok("criterion 10: paw gain line equals the five published gains "
       "(-j, -k, -1, -i, -k)")
