import random

import numpy as np
import pytest

import gainline as gl
import gainline.representation as representation_module
import gainline.spectral as spectral_module
from gainline.errors import InputError, ValidationError

from helpers import (DIAMOND, K2, PAW, STAR3, q8_gain, random_connected_graph,
                     random_phase, small_groups)

DIAMOND_GAINS = ["-k", "1", "1", "1", "-j"]
K4 = gl.SimpleGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def reps_for(G):
    reps = [gl.trivial_representation(G), gl.regular_representation(G)]
    if G.labels == gl.quaternion8().labels:
        reps.append(gl.q8_representation(G))
        q8 = reps[-1].images
        twice = np.zeros((8, 4, 4), dtype=complex)
        twice[:, :2, :2] = twice[:, 2:, 2:] = q8
        reps.append(gl.UnitaryRepresentation(G, twice))  # <chi, chi> = 4
    if G.order == 2:
        reps.append(gl.sign_character(G))
    # raw degree-1 images, so irreducible by decision alone
    reps.append(gl.UnitaryRepresentation(G, gl.sign_character(G).images))
    return reps


def contexts_for(G):
    invs = gl.central_weak_involutions(G)
    return [gl.PhaseContext(G, s1, s2) for s1 in invs for s2 in invs]


def test_line_identity_random_instances():
    rng = random.Random(51)
    count = 0
    while count < 200:
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 7)
        ctx = rng.choice(contexts_for(G))
        H = random_phase(rng, graph, G)
        rep = rng.choice(reps_for(G))
        assert gl.verify_line_identity(H, rep, ctx) <= 1e-10
        count += 1


def test_line_identity_trivial_rep_reduces_to_classical():
    # under the trivial representation the identity collapses to
    # N^T N = 2 I + A_L, which can be checked against integer matrices
    G = gl.sign_group()
    ctx = gl.PhaseContext(G, G.identity, G.identity)
    N = gl.incidence_phase(PAW, G)
    rep = gl.trivial_representation(G)
    assert gl.verify_line_identity(N, rep, ctx) == 0.0
    nt = gl.incidence_matrix(PAW)
    line = gl.line_graph(PAW).line
    al = gl.classical_matrices(line)["adjacency"]
    assert (nt.T @ nt == 2 * np.eye(PAW.m, dtype=int) + al).all()


def test_line_identity_paw_quaternion_example():
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.element("-1"), Q8.element("-1"))
    psi = q8_gain(PAW, ["-i", "-j", "-k", "-i"])
    H = gl.phase_from_orientation(psi, gl.default_orientation(PAW), ctx)
    for rep in reps_for(Q8):
        assert gl.verify_line_identity(H, rep, ctx) <= 1e-12


def test_line_identity_degenerate_single_edge():
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.element("-1"), Q8.identity)
    H = gl.incidence_phase(K2, Q8)
    assert gl.verify_line_identity(H, gl.q8_representation(Q8), ctx) <= 1e-12


def test_diamond_obstruction_fires_for_both_s2():
    Q8 = gl.quaternion8()
    zeta = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    for s2 in (Q8.identity, Q8.element("-1")):
        verdict = gl.gainline_obstruction(zeta, rep, s2)
        assert verdict.violated == "gainline"
        assert verdict.min_eig < -2 and verdict.max_eig > 2
        assert verdict.margin > 0.1
        assert len(verdict.spectrum) == 8
    # the underlying graph is a line graph: the trivial gain with s2 = 1
    # passes the test, so the obstruction above is about the gains
    trivial = gl.constant_gain(DIAMOND, Q8, Q8.identity)
    clean = gl.gainline_obstruction(trivial, rep, Q8.identity)
    assert clean.violated is None


def test_one_sided_lower_bound_violation():
    # all-negative signs on K4 under the sign character: spectrum of -A(K4)
    # is {-3, 1, 1, 1}; only the lower bound is breached
    G = gl.sign_group()
    zeta = gl.constant_gain(K4, G, G.element("-1"))
    rep = gl.sign_character(G)
    verdict = gl.gainline_obstruction(zeta, rep, G.identity)
    assert verdict.s2_class == "plus_identity"
    assert verdict.violated == "cor1"
    assert verdict.margin == pytest.approx(1.0, abs=1e-8)


def test_one_sided_upper_bound_violation():
    # trivial signs on K4: spectrum {3, -1, -1, -1}; pi(s2) = -1
    G = gl.sign_group()
    zeta = gl.constant_gain(K4, G, G.identity)
    rep = gl.sign_character(G)
    verdict = gl.gainline_obstruction(zeta, rep, G.element("-1"))
    assert verdict.s2_class == "minus_identity"
    assert verdict.violated == "cor2"
    assert verdict.margin == pytest.approx(1.0, abs=1e-8)


def test_boundary_eigenvalues_are_clean():
    # C4 has spectrum {-2, 0, 0, 2}: both bounds met with equality
    G = gl.sign_group()
    c4 = gl.SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    zeta = gl.constant_gain(c4, G, G.identity)
    for rep in (gl.trivial_representation(G), gl.sign_character(G)):
        for s2 in G.elements():
            assert gl.gainline_obstruction(zeta, rep, s2).violated is None


def test_reducible_rep_never_uses_two_sided_rule():
    Q8 = gl.quaternion8()
    zeta = q8_gain(DIAMOND, DIAMOND_GAINS)
    reg = gl.regular_representation(Q8)
    verdict = gl.gainline_obstruction(zeta, reg, Q8.element("-1"))
    assert verdict.s2_class == "other"
    assert verdict.violated is None


def test_obstruction_sound_on_actual_gain_lines():
    # no gain line produced by the library is ever flagged
    rng = random.Random(57)
    decided = set()
    for _ in range(80):
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 7)
        ctx = rng.choice(contexts_for(G))
        H = random_phase(rng, graph, G)
        zeta = gl.psi_line(H, ctx)
        if zeta.graph.m == 0:
            continue
        for rep in reps_for(G):
            verdict = gl.gainline_obstruction(zeta, rep, ctx.s2)
            assert verdict.violated is None
            decided.add(rep.irreducible)
            cls = verdict.s2_class
            if cls == "plus_identity":
                assert verdict.min_eig >= -2 - 1e-8
            elif cls == "minus_identity":
                assert verdict.max_eig <= 2 + 1e-8
    assert decided == {True, False}


def test_obstruction_requires_matching_group():
    G = gl.sign_group()
    zeta = gl.constant_gain(K4, G, 0)
    rep = gl.trivial_representation(gl.quaternion8())
    with pytest.raises(ValidationError):
        gl.gainline_obstruction(zeta, rep, 0)


def test_obstruction_requires_central_weak_involution():
    Q8 = gl.quaternion8()
    zeta = q8_gain(DIAMOND, ["-k", "1", "1", "1", "-j"])
    rep = gl.q8_representation(Q8)
    for s2 in ("i", "j", "-k"):
        with pytest.raises(ValidationError,
                           match=f"^s2={s2} is not a central weak involution of Q8$"):
            gl.gainline_obstruction(zeta, rep, Q8.element(s2))
    for s2 in gl.central_weak_involutions(Q8):
        gl.gainline_obstruction(zeta, rep, s2)
    with pytest.raises(ValidationError, match="^element index out of range: 9$"):
        gl.classify_s2_image(gl.regular_representation(gl.cyclic(4)), 9)


def test_obstruction_rejects_bad_tolerance():
    Q8 = gl.quaternion8()
    zeta = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    minus = Q8.element("-1")
    for tol in (float("nan"), -5.0, -1e-300, float("inf")):
        with pytest.raises(InputError, match="tolerance"):
            gl.gainline_obstruction(zeta, rep, minus, tol=tol)
        with pytest.raises(InputError, match="tolerance"):
            gl.classify_s2_image(rep, minus, tol=tol)
    # zero is a tolerance, and the verdict is the default one
    verdict = gl.gainline_obstruction(zeta, rep, minus, tol=0.0)
    assert (verdict.violated, verdict.s2_class) == ("gainline", "minus_identity")


def test_verdict_serialization():
    G = gl.sign_group()
    zeta = gl.constant_gain(K4, G, G.identity)
    verdict = gl.gainline_obstruction(zeta, gl.sign_character(G),
                                      G.element("-1"))
    d = verdict.to_dict()
    assert d["violated"] == "cor2"
    assert d["s2_class"] == "minus_identity"
    assert len(d["spectrum"]) == 4


def test_central_involutions_act_as_plus_or_minus_one_on_irreducibles():
    # Schur's lemma: a central s2 commutes with every pi(g), so pi(s2) is a
    # scalar on an irreducible pi, and s2^2 = 1 makes it +-I
    builtins = [("trivial", {}), ("sign_character", {}), ("q8_2dim", {})]
    checked = 0
    for G in (gl.quaternion8(), gl.dihedral(4), gl.dihedral(32), gl.cyclic(8), gl.t4()):
        for which, kwargs in builtins + [("root_of_unity", {"power": power})
                                         for power in range(G.order)]:
            try:
                rep = gl.representation_from_dict({"builtin": which, **kwargs}, G)
            except InputError:  # the builtin does not apply to G
                continue
            assert rep.irreducible
            for s in gl.central_weak_involutions(G):
                assert gl.classify_s2_image(rep, s) != "other", (G.name, which, kwargs, s)
            checked += 1
    # trivial and sign on all five, q8_2dim on Q8, and 8 + 4 characters of Z8 and T4
    assert checked == 10 + 1 + 12


def _random_root(rng: random.Random, n: int, m: int) -> gl.SimpleGraph:
    """A random recursive tree on n vertices plus chords up to m edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return gl.SimpleGraph(n, tuple(sorted(edges)))


def _solved_sides(monkeypatch, zeta, rep, s2):
    """The verdict, and the side of every matrix whose eigenvalues it solved."""
    sides = []
    solve = representation_module.hermitian_spectrum

    def recorded(M):
        sides.append(len(M))
        return solve(M)

    with monkeypatch.context() as patch:
        patch.setattr(representation_module, "hermitian_spectrum", recorded)
        return gl.gainline_obstruction(zeta, rep, s2), sides


def test_root_laplacian_oracle_matches_the_dense_solve(monkeypatch):
    # zeta = psi_line(H) with pi(s2) = eps I: FH* FH = 2I + eps A_pi(zeta), and
    # FH FH* is the n_R k root Laplacian, so A_pi(zeta) is solved on the root
    rng = random.Random(22)
    Q8 = gl.quaternion8()
    cases = [(Q8, gl.q8_representation(Q8), gl.central_weak_involutions(Q8)),
             (gl.t4(), gl.root_of_unity_representation(gl.t4()), (0, 2)),
             (Q8, gl.regular_representation(Q8), (Q8.identity,))]
    cases += [(G, gl.sign_character(G), gl.central_weak_involutions(G))
              for G in (gl.dihedral(4), gl.dihedral(32))]
    verdicts = set()
    for G, rep, involutions in cases:
        k = rep.degree
        for s2 in involutions:
            eps = 1 if gl.classify_s2_image(rep, s2) == "plus_identity" else -1
            assert np.array_equal(rep.images[s2], eps * np.eye(k))
            # K4 and the diamond K4 - e have two labelled roots each, and
            # five or more root vertices make it unique (Whitney)
            roots = [K4, DIAMOND] + [_random_root(rng, n, rng.randint(n + 1, 2 * n))
                                     for n in (rng.randint(5, 12) for _ in range(8))]
            for root in roots:
                ctx = gl.PhaseContext(G, rng.choice(gl.central_weak_involutions(G)), s2)
                zeta = gl.psi_line(random_phase(rng, root, G), ctx)
                verdict, sides = _solved_sides(monkeypatch, zeta, rep, s2)
                with monkeypatch.context() as patch:
                    patch.setattr(spectral_module, "_root_side_spectrum", lambda *a: None)
                    dense, dense_sides = _solved_sides(monkeypatch, zeta, rep, s2)
                assert sum(sides) == root.n * k and sum(dense_sides) == root.m * k
                assert (verdict.violated, verdict.s2_class) == (dense.violated,
                                                                dense.s2_class)
                mass = max(map(len, zeta.graph.incidence))
                assert len(verdict.spectrum) == len(dense.spectrum) == root.m * k
                assert np.abs(np.subtract(verdict.spectrum, dense.spectrum)).max() \
                    <= 1e-9 * mass
                assert verdict.spectrum.count(-2.0 * eps) == (root.m - root.n) * k
                verdicts.add(verdict.violated)
    assert verdicts == {None}


def test_root_side_fallbacks_are_the_dense_solve(monkeypatch):
    rng = random.Random(23)
    Q8 = gl.quaternion8()
    q8, regular = gl.q8_representation(Q8), gl.regular_representation(Q8)
    minus = Q8.element("-1")
    ctx = gl.PhaseContext(Q8, minus, minus)
    root = _random_root(rng, 8, 14)
    data = gl.line_graph(root)
    zeta = gl.psi_line(random_phase(rng, root, Q8), ctx)
    # a line edge in a triangle of the root's line graph: moving its gain
    # leaves no phase
    p = next(p for p, v in enumerate(data.shared_vertex) if len(root.incidence[v]) >= 3)
    moved = list(zeta.forward)
    moved[p] = Q8.mul(moved[p], Q8.element("i"))
    order = list(range(zeta.graph.m))
    order[0], order[1] = 1, 0
    unsorted = gl.GainFunction(
        gl.SimpleGraph(zeta.graph.n, tuple(zeta.graph.edges[i] for i in order)), Q8,
        tuple(zeta.forward[i] for i in order))
    c4 = gl.SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    cases = [
        (gl.GainFunction(zeta.graph, Q8, tuple(moved)), q8),  # not a gain-line graph
        (q8_gain(STAR3, ["i", "j", "k"]), q8),  # the claw is no line graph
        (q8_gain(DIAMOND, DIAMOND_GAINS), q8),  # its root, the paw, has m = n
        (unsorted, q8),  # line edges out of order
        (zeta, regular),  # the regular pi(-1) is not +-I
        (gl.psi_line(random_phase(rng, c4, Q8), ctx), q8),  # m = n on C4
    ]
    for case, rep in cases:
        verdict, sides = _solved_sides(monkeypatch, case, rep, minus)
        # for q8_2dim this is hermitian_spectrum(fourier(A, rep))
        assert verdict.spectrum == gl.represented_spectrum(gl.gain_adjacency(case), rep)
        assert sum(sides) == case.graph.n * rep.degree
    # the root side needs pi(s2) exactly -I: the exact image, -0.0 off the
    # diagonal, takes it, and an image 1e-13 off -I, which validates and is
    # classified minus_identity at the default tol, does not
    assert np.signbit(q8.images[minus].real).all()
    verdict, sides = _solved_sides(monkeypatch, zeta, q8, minus)
    assert verdict.s2_class == "minus_identity" and sum(sides) == root.n * q8.degree
    nudged = q8.images.copy()
    nudged[minus, 0, 0] += 1e-13
    near = gl.UnitaryRepresentation(Q8, nudged)
    verdict, sides = _solved_sides(monkeypatch, zeta, near, minus)
    assert verdict.s2_class == "minus_identity" and sum(sides) == zeta.graph.n * near.degree
    assert verdict.spectrum == gl.represented_spectrum(gl.gain_adjacency(zeta), near)


def test_represented_side_is_capped_on_zetas_side(monkeypatch):
    # 2049 line vertices under a degree-2 representation: 4098 > 4096, refused
    # before the root, whose side would be 2 * 1000, is looked for
    rng = random.Random(24)
    Q8 = gl.quaternion8()
    minus = Q8.element("-1")
    root = _random_root(rng, 1000, 2049)
    zeta = gl.psi_line(gl.incidence_phase(root, Q8), gl.PhaseContext(Q8, minus, minus))

    def unreachable(line):
        raise AssertionError("root looked for past the cap")

    monkeypatch.setattr(spectral_module, "line_roots", unreachable)
    with pytest.raises(InputError, match="^represented matrix of size 4098 x 4098 "
                                         "exceeds cap 4096$"):
        gl.gainline_obstruction(zeta, gl.q8_representation(Q8), minus)
