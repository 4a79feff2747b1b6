import itertools
import random

import numpy as np
import pytest

import gainline as gl
from gainline.algebra import AlgebraElement
from gainline.errors import InputError, ValidationError

from helpers import (DIAMOND, K2, PAW, TRIANGLE, all_gains, brute_force_switching,
                     builtin_representations, derived_cover, holonomy, perturbed, q8_gain,
                     per_seed_switching_to, random_connected_graph, random_gain,
                     random_vector, reference_switching_to, shuffled_graph, small_groups)

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
            want = AlgebraElement(Q8, {}) if expected[i][j] == "0" \
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
    assert not A[0, 0].coeffs and not A[1, 1].coeffs


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
        f = random_vector(rng, G, g.n)
        F = gl.group_diagonal(G, f)
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


def test_gain_reads_both_orientations_and_refuses_the_rest():
    rng = random.Random(151)
    Q8 = gl.quaternion8()
    for graph in (PAW, DIAMOND):
        psi = gl.GainFunction(graph, Q8, tuple(rng.randrange(8) for _ in graph.edges))
        for (u, v), g in zip(graph.edges, psi.forward):
            assert psi.gain(u, v) == g and psi.gain(v, u) == Q8.invert(g)
        for u, v in ((0, 2), (0, 0), (-1, 0), (0, graph.n)):
            with pytest.raises(InputError) as refused:
                psi.gain(u, v)
            assert str(refused.value) == f"vertices {u} and {v} are not adjacent"


def test_gain_faults_are_named():
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    cases = [
        (lambda: gl.GainFunction(PAW, Q8, (0, 0, 0)),
         ValidationError, "need exactly one gain per edge"),
        (lambda: gl.GainFunction(PAW, Q8, (0, 0, 0, 8)),
         ValidationError, "gain index 8 out of range"),
        # the first bad index in edge order, exact past intp
        (lambda: gl.GainFunction(PAW, Q8, [0, 2 ** 70, -1, 0]),
         ValidationError, f"gain index {2 ** 70} out of range"),
        (lambda: gl.GainFunction(PAW, Q8, np.array([0, 0, 9, -1], dtype=np.int8)),
         ValidationError, "gain index 9 out of range"),
        # never converted: numpy would read True as 1 and 1.0 as an index
        *((lambda bad=bad: gl.GainFunction(PAW, Q8, bad), ValidationError,
           "each gain must be an integer element index")
          for bad in ((0, 0, 0, 1.5), (0, 0, 0, 1.0), (0, 0, 0, True), (0, 0, 0, "1"),
                      (0, 0, 0, None), np.array([0.0, 0, 0, 1]), np.ones(4, dtype=bool),
                      np.zeros((4, 1), dtype=np.intp))),
        (lambda: gl.switch(psi, (0, 0, 0, 8)),
         ValidationError, "element index 8 out of range"),
        (lambda: gl.constant_gain(PAW, Q8, Q8.element("i")),
         ValidationError, "constant gain requires s with s^2 = 1"),
        (lambda: gl.switch(psi, (0, 0, 0)),
         ValidationError, "switching function must assign a value per vertex"),
        (lambda: gl.walk_gain(psi, []),
         InputError, "walk must contain at least one vertex"),
        (lambda: gl.switching_to(psi, gl.constant_gain(DIAMOND, Q8, 0)),
         ValidationError, "gain functions live on different graphs"),
        (lambda: gl.switching_to(psi, gl.constant_gain(PAW, gl.cyclic(8), 0)),
         ValidationError, "gain functions take values in different groups"),
    ]
    for build, kind, message in cases:
        with pytest.raises(kind) as refused:
            build()
        assert str(refused.value) == message


def test_gains_are_read_only_arrays_compared_by_value():
    Q8 = gl.quaternion8()
    labels = [Q8.element(l) for l in PAW_GAINS]
    given = np.array(labels)
    forms = [gl.GainFunction(PAW, Q8, tuple(labels)), gl.GainFunction(PAW, Q8, labels),
             gl.GainFunction(PAW, Q8, given), gl.GainFunction(PAW, Q8, given.astype(np.uint8)),
             gl.gain_from_dict(gl.gain_to_dict(q8_gain(PAW, PAW_GAINS)))]
    given[0] = 0  # the caller's array was copied
    for psi in forms:
        assert psi.forward.dtype == np.intp and psi.forward.tolist() == labels
        assert psi == forms[0] and hash(psi) == hash(forms[0])
        with pytest.raises(ValueError):
            psi.forward[0] = 0
    assert len(set(forms)) == 1
    # a read-only intp array is shared, not copied
    assert gl.GainFunction(PAW, Q8, forms[0].forward).forward is forms[0].forward
    other = [forms[0] != x for x in (
        gl.GainFunction(PAW, Q8, labels[:3] + [0]), gl.GainFunction(PAW, gl.cyclic(8), labels),
        gl.GainFunction(gl.SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 2))), Q8, labels),
        forms[0].forward, labels, None)]
    assert all(other)


def test_trees_are_balanced():
    rng = random.Random(15)
    tree = gl.SimpleGraph(5, ((0, 1), (0, 2), (2, 3), (2, 4)))
    for G in small_groups():
        psi = random_gain(rng, tree, G)
        assert gl.balance_witness(psi) is not None


def test_sign_triangle_with_minus_one_unbalanced():
    G = gl.sign_group()
    psi = gl.constant_gain(TRIANGLE, G, G.element("-1"))
    assert gl.balance_witness(psi) is None
    # but the all-identity triangle is balanced
    assert gl.balance_witness(gl.constant_gain(TRIANGLE, G, 0)) is not None


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
        assert witness[0] == G.identity
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
            # Brute force tries f in lexicographic order, so its first hit has
            # the least f(0) that admits any f; on a connected graph f(0)
            # fixes f, so the witness is that hit.
            brute = brute_force_switching(psi1, psi2)
            assert fast == brute
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
                want = per_seed_switching_to(psi1, psi2)
                assert gl.switching_to(psi1, psi2) == want
                nones += want is None
                if want is not None:
                    seeds.add((G.name, want[0]))
            trivial = gl.constant_gain(graph, G, G.identity)
            balanced = gl.switch(trivial, random_vector(rng, G, graph.n))
            for psi in (balanced, perturbed(rng, balanced)):
                assert gl.balance_witness(psi) == per_seed_switching_to(psi, trivial)
    # both verdicts occur, and witnesses need seeds other than the identity
    assert nones > 0 and len(seeds) > 2 * len(groups)


def large_graphs(rng):
    """(name, graph) for seeded random graphs, a shuffled 5000-vertex path,
    a star, and two K40 joined by one edge, each with shuffled vertex labels
    and edge order."""
    def relabelled(name, n, edges):
        perm = list(range(n))
        rng.shuffle(perm)
        return name, shuffled_graph(rng, gl.SimpleGraph(n, tuple(
            (perm[u], perm[v]) for u, v in edges)))

    for n in (2, 5, 40, 300, 1000):
        edges = {tuple(sorted((rng.randrange(v), v))) for v in range(1, n)}
        while len(edges) < min(2 * n, n * (n - 1) // 2):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        yield relabelled(f"random{n}", n, sorted(edges))
    yield relabelled("path5000", 5000, [(v, v + 1) for v in range(4999)])
    yield relabelled("star300", 301, [(0, v) for v in range(1, 301)])
    k40 = list(itertools.combinations(range(40), 2))
    yield relabelled("two-k40", 80, k40 + [(u + 40, v + 40) for u, v in k40] + [(39, 40)])


def test_switching_to_matches_the_bfs_potentials():
    """Potentials from hooking give the witness, and None, of potentials
    from the BFS tree, on large and deep graphs."""
    rng = random.Random(31)
    nones = 0
    for G in (gl.quaternion8(), gl.dihedral(4), gl.dihedral(32)):
        for name, graph in large_graphs(rng):
            psi1 = random_gain(rng, graph, G)
            switched = gl.switch(psi1, random_vector(rng, G, graph.n))
            # a chord is an edge off the BFS tree; a tree has none
            chords = sorted(set(range(graph.m)) - set(gl.graph.bfs_tree(graph)[2]))
            k = chords[-1] if chords else graph.m - 1
            def changed(psi):
                forward = psi.forward.copy()
                forward[k] = (forward[k] + 1 + rng.randrange(G.order - 1)) % G.order
                return gl.GainFunction(graph, G, forward)

            trivial = gl.constant_gain(graph, G, G.identity)
            balanced = gl.switch(trivial, random_vector(rng, G, graph.n))
            for psi2 in (switched, changed(switched)):
                want = reference_switching_to(psi1, psi2)
                assert gl.switching_to(psi1, psi2) == want, (G.name, name)
                nones += want is None
            for psi in (balanced, changed(balanced)):
                want = reference_switching_to(psi, trivial)
                assert gl.balance_witness(psi) == want, (G.name, name)
                nones += want is None
    assert nones > 0


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
    # antibalance is switching to the constant gain labelled "-1"
    with pytest.raises(InputError):
        gl.cyclic(3).element("-1")
    G = gl.sign_group()
    minus_one = gl.constant_gain(TRIANGLE, G, G.element("-1"))
    assert gl.switching_to(minus_one, minus_one) is not None
    assert gl.switching_to(gl.constant_gain(TRIANGLE, G, G.identity), minus_one) is None


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


#: The groups of the holonomy tests, D32 of order 64.
HOLONOMY_GROUPS = [gl.quaternion8(), gl.dihedral(4), gl.dihedral(32), gl.cyclic(8), gl.t4()]


def holonomy_gains(rng: random.Random, G: gl.FiniteGroup) -> list[gl.GainFunction]:
    """Gains on graphs with cycles: uniform ones, ones switched from values in
    a proper non-trivial cyclic subgroup <h>, and balanced ones.  On the
    diamond the values in <h> are all h, so its holonomy is a conjugate of
    <h>: the cycle 0, 1, 3 has gain h h h^-1."""
    while True:
        h = rng.randrange(1, G.order)
        powers = [h]
        while powers[-1] != G.identity:
            powers.append(G.mul(powers[-1], h))
        if len(powers) < G.order:
            break
    gains = []
    for graph in (DIAMOND, random_connected_graph(rng, 7)):
        inside = [h] * graph.m if graph is DIAMOND else [rng.choice(powers) for _ in graph.edges]
        gains.append(random_gain(rng, graph, G))
        for base in (gl.GainFunction(graph, G, tuple(inside)),
                     gl.constant_gain(graph, G, G.identity)):
            gains.append(gl.switch(base, random_vector(rng, G, graph.n)))
    return gains


@pytest.mark.parametrize("G", HOLONOMY_GROUPS, ids=lambda G: G.name)
def test_represented_laplacian_kernel_is_fixed_by_holonomy(G):
    # L = D (x) I - pi(A) is sum over edges |x_u - pi(psi(u, v)) x_v|^2 >= 0,
    # and x is in its kernel iff x_0 is fixed by pi(Hol) and the rest follows
    # along the tree, so dim ker L = (1/|Hol|) sum over Hol of chi
    rng = random.Random(G.order)
    reps = builtin_representations(G)
    assert any(rep.degree == G.order for rep in reps)  # regular
    sizes = set()
    for psi in holonomy_gains(rng, G):
        hol = holonomy(psi)
        sizes.add(len(hol))
        degrees = np.diag(psi.graph.degrees)
        for rep in reps:
            L = np.kron(degrees, np.eye(rep.degree)) - gl.fourier(gl.gain_adjacency(psi), rep)
            lam = np.linalg.eigvalsh(L)
            fixed = sum(np.trace(rep.images[h]) for h in hol) / len(hol)
            assert abs(fixed - round(fixed.real)) < 1e-9
            assert lam[0] >= -1e-9
            assert np.sum(np.abs(lam) < 1e-9) == round(fixed.real), (psi.forward, rep.degree)
    assert 1 in sizes and any(1 < s < G.order for s in sizes)


@pytest.mark.parametrize("G", HOLONOMY_GROUPS, ids=lambda G: G.name)
def test_holonomy_decides_balance_and_is_conjugated_by_switching(G):
    rng = random.Random(G.order + 1)
    gains = holonomy_gains(rng, G)
    gains += [gl.switch(psi, random_vector(rng, G, psi.graph.n))
              for psi in gains] + [perturbed(rng, psi) for psi in gains]
    switched = 0
    for psi in gains:
        hol = holonomy(psi)
        assert (hol == {G.identity}) == (gl.balance_witness(psi) is not None)
        for phi in gains:
            if phi.graph != psi.graph or (f := gl.switching_to(psi, phi)) is None:
                continue
            # Hol(psi^f) = f(0)^-1 Hol(psi) f(0), whichever witness f is found
            switched += psi is not phi
            assert holonomy(phi) == {G.mul(G.mul(G.invert(f[0]), h), f[0]) for h in hol}
    assert switched


#: The groups of the derived-cover test, each with a regular representation.
COVER_GROUPS = [gl.quaternion8(), gl.dihedral(4), gl.dihedral(32), gl.cyclic(8),
                gl.direct_product(gl.quaternion8(), gl.cyclic(8))]


@pytest.mark.parametrize("G", COVER_GROUPS, ids=lambda G: G.name)
def test_regular_gain_adjacency_is_the_derived_cover(G):
    # the regular image of g sends e_h to e_(g h), so block (u, v) of the
    # regular transform joins (u, g h) to (v, h): the derived cover, which
    # the oracle builds from the table alone
    rng = random.Random(G.order + 2)
    regular = gl.regular_representation(G)
    for psi in holonomy_gains(rng, G):
        cover = derived_cover(psi)
        A = gl.gain_adjacency(psi)
        assert np.array_equal(gl.fourier(A, regular), cover), psi.forward
        deviation = np.abs(np.array(gl.represented_spectrum(A, regular))
                           - np.linalg.eigvalsh(cover)).max()
        assert deviation <= 1e-9 * psi.graph.degrees.max(), psi.forward
