import itertools
import random

import pytest

import gainline as gl
from gainline.algebra import AlgebraElement
from gainline.errors import InputError, ValidationError
from gainline.gain import switching_diagonal

from helpers import (K2, PAW, TRIANGLE, all_gains, brute_force_switching,
                     perturbed, q8_gain, random_connected_graph, random_gain,
                     random_vector, reference_switching_to, small_groups)

PAW_GAINS = ["-i", "-j", "-k", "-i"]


def test_paw_adjacency_matches_displayed_matrix():
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    A = gl.gain_adjacency(psi)
    expected = [
        ["0", "-i", "0", "0"],
        ["i", "0", "-j", "-i"],
        ["0", "j", "0", "-k"],
        ["0", "i", "k", "0"],
    ]
    for i in range(4):
        for j in range(4):
            want = AlgebraElement.zero(Q8) if expected[i][j] == "0" \
                else AlgebraElement.unit(Q8, Q8.element(expected[i][j]))
            assert A[i, j] == want


def test_adjacency_is_self_adjoint():
    rng = random.Random(5)
    for G in small_groups():
        g = random_connected_graph(rng, 6)
        A = gl.gain_adjacency(random_gain(rng, g, G))
        assert A.star() == A


def test_trivial_gain_k2_is_classical_adjacency():
    G = gl.sign_group()
    psi = gl.constant_gain(K2, G, G.identity)
    A = gl.gain_adjacency(psi)
    one = AlgebraElement.unit(G, 0)
    assert A[0, 1] == one and A[1, 0] == one
    assert A[0, 0].is_zero() and A[1, 1].is_zero()


def test_s_laplacian_diagonal_is_degrees():
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    lap = gl.s_laplacian(psi, Q8.element("-1"))
    for i, d in enumerate([1, 3, 2, 2]):
        assert lap[i, i] == AlgebraElement(Q8, {0: d})


def test_s_laplacian_requires_central_involution():
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    with pytest.raises(ValidationError):
        gl.s_laplacian(psi, Q8.element("i"))
    for s in (7, -1):  # never wrapped into the group
        with pytest.raises(ValidationError, match="^element index out of range"):
            gl.constant_gain(PAW, gl.cyclic(4), s)


def test_s_laplacian_trivial_gain_is_signless_laplacian():
    G = gl.cyclic(1)
    psi = gl.constant_gain(PAW, G, 0)
    lap = gl.s_laplacian(psi, 0)
    q = gl.classical_matrices(PAW)["signless_laplacian"]
    for i in range(4):
        for j in range(4):
            assert lap[i, j] == AlgebraElement(G, {0: int(q[i, j])})


def test_switch_by_identity_is_noop():
    rng = random.Random(9)
    psi = q8_gain(PAW, PAW_GAINS)
    assert gl.switch(psi, (0, 0, 0, 0)) == psi


def test_switch_by_constant_in_abelian_group_is_noop():
    rng = random.Random(10)
    Z4 = gl.cyclic(4)
    psi = random_gain(rng, PAW, Z4)
    assert gl.switch(psi, (3, 3, 3, 3)) == psi


def test_quaternion_conjugation_by_constant():
    Q8 = gl.quaternion8()
    psi = gl.GainFunction(K2, Q8, (Q8.element("i"),))
    j = Q8.element("j")
    switched = gl.switch(psi, (j, j))
    assert switched.forward == (Q8.element("-i"),)


def test_switch_is_invertible():
    rng = random.Random(12)
    for G in small_groups():
        g = random_connected_graph(rng, 6)
        psi = random_gain(rng, g, G)
        f = random_vector(rng, G, g.n)
        f_inv = tuple(G.invert(x) for x in f)
        assert gl.switch(gl.switch(psi, f), f_inv) == psi


def test_switch_matches_diagonal_conjugation():
    rng = random.Random(14)
    for G in small_groups():
        g = random_connected_graph(rng, 6)
        psi = random_gain(rng, g, G)
        f = gl.SwitchingFunction(G, random_vector(rng, G, g.n))
        F = switching_diagonal(f)
        left = F.star() @ gl.gain_adjacency(psi) @ F
        assert left == gl.gain_adjacency(gl.switch(psi, f))
        s = gl.central_weak_involutions(G)[-1]
        assert F.star() @ gl.s_laplacian(psi, s) @ F == \
            gl.s_laplacian(gl.switch(psi, f), s)


def test_walk_gain_single_edge_and_reverse():
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    assert psi.gain(0, 1) == Q8.element("-i")
    assert gl.walk_gain(psi, [0, 1]) == Q8.element("-i")
    assert gl.walk_gain(psi, [0, 1, 0]) == Q8.identity


def test_walk_gain_rejects_non_adjacent():
    psi = q8_gain(PAW, PAW_GAINS)
    with pytest.raises(InputError):
        gl.walk_gain(psi, [0, 2])


def test_trees_are_balanced():
    rng = random.Random(15)
    tree = gl.SimpleGraph(5, ((0, 1), (0, 2), (2, 3), (2, 4)))
    for G in small_groups():
        psi = random_gain(rng, tree, G)
        assert gl.is_balanced(psi)


def test_sign_triangle_with_minus_one_unbalanced():
    G = gl.sign_group()
    psi = gl.constant_gain(TRIANGLE, G, G.element("-1"))
    assert not gl.is_balanced(psi)
    # but the all-identity triangle is balanced
    assert gl.is_balanced(gl.constant_gain(TRIANGLE, G, 0))


def test_switching_class_of_identity_is_balanced():
    rng = random.Random(16)
    for G in small_groups():
        g = random_connected_graph(rng, 6)
        trivial = gl.constant_gain(g, G, G.identity)
        psi = gl.switch(trivial, random_vector(rng, G, g.n))
        witness = gl.balance_witness(psi)
        assert witness is not None
        assert gl.switch(psi, witness) == trivial
        # the constant identity gain is fixed by conjugation, so the
        # identity seed fits whenever any seed does
        assert witness.values[0] == G.identity
        assert witness == gl.switching_to(psi, trivial)


def test_switching_to_finds_witness():
    rng = random.Random(17)
    for G in small_groups():
        g = random_connected_graph(rng, 6)
        psi = random_gain(rng, g, G)
        f = random_vector(rng, G, g.n)
        target = gl.switch(psi, f)
        found = gl.switching_to(psi, target)
        assert found is not None
        assert gl.switch(psi, found) == target


def test_constant_gains_on_cycle_with_obstruction():
    # 1 vs s on a cycle whose length does not kill s: inequivalent
    Z4 = gl.cyclic(4)
    cycle5 = gl.SimpleGraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
    s = 2  # the involution of Z4; 5 * 2 != 0 mod 4
    psi1 = gl.constant_gain(cycle5, Z4, 0)
    psi2 = gl.constant_gain(cycle5, Z4, s)
    assert gl.switching_to(psi1, psi2) is None


def test_switching_equivalence_agrees_with_brute_force():
    # exhaustive oracle on small graphs and groups
    cases = [
        (gl.SimpleGraph(3, ((0, 1), (1, 2))), gl.cyclic(3)),
        (TRIANGLE, gl.cyclic(3)),
        (PAW, gl.sign_group()),
    ]
    pairs = [itertools.product(all_gains(graph, G), repeat=2) for graph, G in cases]
    # Nonabelian: the seed matters.  216 gains on the triangle over D3, so
    # sample pairs, half of them switched onto each other.
    rng = random.Random(23)
    D3 = gl.dihedral(3)
    sampled = []
    for _ in range(150):
        psi1 = random_gain(rng, TRIANGLE, D3)
        psi2 = gl.switch(psi1, random_vector(rng, D3, 3)) if rng.random() < 0.5 \
            else random_gain(rng, TRIANGLE, D3)
        sampled.append((psi1, psi2))
    pairs.append(sampled)
    verdicts = set()
    for gains in pairs:
        for psi1, psi2 in gains:
            fast = gl.switching_to(psi1, psi2)
            brute = brute_force_switching(psi1, psi2)
            assert (fast is None) == (brute is None)
            assert gl.switching_equivalent(psi1, psi2) == (brute is not None)
            if fast is not None:
                assert gl.switch(psi1, fast) == psi2
            verdicts.add((psi1.group.order, fast is None))
    assert {(6, True), (6, False)} <= verdicts


def test_switching_to_matches_per_seed_reference():
    rng = random.Random(29)
    groups = [gl.quaternion8(), gl.dihedral(3), gl.dihedral(4),
              gl.direct_product(gl.cyclic(2), gl.cyclic(2)), gl.sign_group()]
    nones, seeds = 0, set()
    for G in groups:
        for _ in range(100):
            graph = random_connected_graph(rng, 8)
            psi1 = random_gain(rng, graph, G)
            switched = gl.switch(psi1, random_vector(rng, G, graph.n))
            for psi2 in (switched, perturbed(rng, switched),
                         random_gain(rng, graph, G)):
                want = reference_switching_to(psi1, psi2)
                assert gl.switching_to(psi1, psi2) == want
                nones += want is None
                if want is not None:
                    seeds.add((G.name, want.values[0]))
            trivial = gl.constant_gain(graph, G, G.identity)
            balanced = gl.switch(trivial, random_vector(rng, G, graph.n))
            for psi in (balanced, perturbed(rng, balanced)):
                assert gl.balance_witness(psi) == reference_switching_to(psi, trivial)
    # both verdicts occur, and witnesses need seeds other than the identity
    assert nones > 0 and len(seeds) > 2 * len(groups)


def test_closed_walk_gains_conjugate_under_switching():
    rng = random.Random(21)
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    walk = [1, 2, 3, 1]  # the paw triangle
    for _ in range(20):
        f = random_vector(rng, Q8, 4)
        base = gl.walk_gain(psi, walk)
        switched = gl.walk_gain(gl.switch(psi, f), walk)
        fv = f[walk[0]]
        assert switched == Q8.mul(Q8.invert(fv), Q8.mul(base, fv))


def test_antibalance_needs_minus_one_label():
    Z3 = gl.cyclic(3)
    with pytest.raises(InputError):
        gl.gain.antibalance_witness(gl.constant_gain(TRIANGLE, Z3, 0))
    G = gl.sign_group()
    psi = gl.constant_gain(TRIANGLE, G, G.element("-1"))
    assert gl.gain.antibalance_witness(psi) is not None


def test_gain_file_roundtrip():
    psi = q8_gain(PAW, PAW_GAINS)
    d = gl.gain_to_dict(psi)
    assert d["gains"] == PAW_GAINS
    assert gl.gain_from_dict(d) == psi


def test_gain_file_rejects_wrong_count():
    d = gl.gain_to_dict(q8_gain(PAW, PAW_GAINS))
    d["gains"] = d["gains"][:-1]
    with pytest.raises(InputError):
        gl.gain_from_dict(d)


def test_equal_adjacency_matrices_hash_equal():
    a = gl.gain_adjacency(q8_gain(PAW, ["-i", "-j", "-k", "-i"]))
    b = gl.gain_adjacency(q8_gain(PAW, ["-i", "-j", "-k", "-i"]))
    assert a == b and a.group is not b.group
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
