import random

import numpy as np
import pytest

import gainline as gl
from gainline.algebra import AlgebraElement, CGMatrix, group_diagonal
from gainline.errors import ValidationError

from helpers import (matrix_of_rows, random_cg_matrix, random_connected_graph, random_gain,
                     random_pure_matrix, random_vector, small_groups)


def unit(G, label):
    return AlgebraElement.unit(G, G.element(label))


def test_pure_elements_multiply_as_in_group():
    Q8 = gl.quaternion8()
    assert unit(Q8, "i") * unit(Q8, "j") == unit(Q8, "k")


def test_zero_absorbs():
    Q8 = gl.quaternion8()
    x = unit(Q8, "i") + unit(Q8, "j")
    assert not (x * AlgebraElement(Q8, {})).coeffs


def test_group_ring_square_in_z2():
    # (e + s)^2 = 2e + 2s, expanded by hand
    Z2 = gl.cyclic(2)
    x = AlgebraElement(Z2, {0: 1, 1: 1})
    sq = x * x
    assert sq == AlgebraElement(Z2, {0: 2, 1: 2})


def test_star_conjugates_and_inverts():
    Q8 = gl.quaternion8()
    a = AlgebraElement(Q8, {Q8.element("i"): 2 + 1j})
    assert a.star() == AlgebraElement(Q8, {Q8.element("-i"): 2 - 1j})


def test_star_is_involution():
    rng = random.Random(7)
    for G in small_groups():
        coeffs = {rng.randrange(G.order): complex(rng.randint(-3, 3),
                                                  rng.randint(-3, 3))
                  for _ in range(3)}
        a = AlgebraElement(G, coeffs)
        assert a.star().star() == a


def test_star_of_pure_element_is_inverse():
    Q8 = gl.quaternion8()
    assert unit(Q8, "j").star() == unit(Q8, "-j")


def test_group_mismatch_raises():
    a = unit(gl.sign_group(), "1")
    b = unit(gl.quaternion8(), "1")
    with pytest.raises(ValidationError):
        a * b


def test_algebra_faults_are_named():
    Q8, D4 = gl.quaternion8(), gl.dihedral(4)
    one = unit(Q8, "1")
    square = matrix_of_rows(Q8, [[one, one], [one, one]])
    column = matrix_of_rows(Q8, [[one], [one], [one]])
    other = matrix_of_rows(D4, [[unit(D4, "r1")] * 2] * 2)
    cases = [
        (lambda: AlgebraElement.unit(Q8, 8), ValidationError,
         "element index out of range: 8"),
        (lambda: CGMatrix(Q8, {}, (0, 1)), ValidationError,
         "matrix must have at least one row"),
        (lambda: square[2, 0], IndexError, "entry (2, 0) outside a 2x2 matrix"),
        (lambda: square @ other, ValidationError, "matrix product across different groups"),
        (lambda: square @ column, ValidationError, "dimension mismatch: 2x2 @ 3x1"),
        (lambda: square + other, ValidationError, "matrix sum across different groups"),
        (lambda: square + column, ValidationError, "matrix sum with mismatched shapes"),
        (lambda: square.scalar_mul(unit(D4, "r1")), ValidationError,
         "scalar from a different group"),
        (lambda: square.scalar_mul(one, side="up"), ValidationError,
         "side must be 'left' or 'right', got 'up'"),
    ]
    for build, kind, message in cases:
        with pytest.raises(kind) as refused:
            build()
        assert str(refused.value) == message


def test_negation_and_difference():
    Q8 = gl.quaternion8()
    i, j = unit(Q8, "i"), unit(Q8, "j")
    minus_one = AlgebraElement(Q8, {Q8.identity: -1})
    assert -i == minus_one * i == AlgebraElement(Q8, {Q8.element("i"): -1})
    assert i - j == AlgebraElement(Q8, {Q8.element("i"): 1, Q8.element("j"): -1})
    assert not (i - i).coeffs and -AlgebraElement(Q8, {}) == AlgebraElement(Q8, {})
    with pytest.raises(ValidationError):
        i - unit(gl.sign_group(), "1")


def test_repr_of_elements_and_matrices():
    Q8 = gl.quaternion8()
    i, zero = unit(Q8, "i"), AlgebraElement(Q8, {})
    assert repr(zero) == "0"
    assert repr(i) == "i"
    assert repr(unit(Q8, "1") + AlgebraElement(Q8, {Q8.identity: 2}) * i) == "1 + ((2+0j))i"
    three = AlgebraElement(Q8, {Q8.identity: 3})
    assert repr(matrix_of_rows(Q8, [[i, zero], [zero, three * unit(Q8, "-k")]])) \
        == "CGMatrix[i, 0; 0, ((3+0j))-k]"


def test_matmul_identity_diagonal():
    rng = random.Random(3)
    Q8 = gl.quaternion8()
    A = random_pure_matrix(rng, Q8, 3, 4)
    I = group_diagonal(Q8, [Q8.identity] * 4)
    assert A @ I == A


def test_one_by_one_matmul_is_alg_multiply():
    Q8 = gl.quaternion8()
    A = matrix_of_rows(Q8, [[unit(Q8, "i")]])
    B = matrix_of_rows(Q8, [[unit(Q8, "j")]])
    assert (A @ B)[0, 0] == unit(Q8, "i") * unit(Q8, "j")


def test_incidence_product_is_signless_laplacian_on_path():
    # P2 over the trivial group: N N* embeds deg + A
    G = gl.cyclic(1)
    path = gl.SimpleGraph(3, ((0, 1), (1, 2)))
    N = gl.incidence_phase(path, G).to_cg_matrix()
    got = N @ N.star()
    q = gl.classical_matrices(path)["signless_laplacian"]
    for i in range(3):
        for j in range(3):
            expected = AlgebraElement(G, {0: int(q[i, j])})
            assert got[i, j] == expected


def test_matmul_associative_exact():
    rng = random.Random(11)
    for G in small_groups():
        A = random_pure_matrix(rng, G, 2, 3)
        B = random_pure_matrix(rng, G, 3, 2)
        C = random_pure_matrix(rng, G, 2, 2)
        assert (A @ B) @ C == A @ (B @ C)


def test_star_antihomomorphism():
    rng = random.Random(13)
    for G in small_groups():
        A = random_pure_matrix(rng, G, 3, 3)
        B = random_pure_matrix(rng, G, 3, 3)
        assert (A @ B).star() == B.star() @ A.star()


def test_double_star():
    rng = random.Random(17)
    G = gl.dihedral(4)
    A = random_pure_matrix(rng, G, 2, 4)
    assert A.star().star() == A


def test_scalar_mul_matches_diagonal_product():
    rng = random.Random(19)
    G = gl.quaternion8()
    A = random_pure_matrix(rng, G, 3, 2)
    g = rng.randrange(G.order)
    a = AlgebraElement.unit(G, g)
    left = A.scalar_mul(a, side="left")
    assert left == group_diagonal(G, [g] * 3) @ A
    right = A.scalar_mul(a, side="right")
    assert right == A @ group_diagonal(G, [g] * 2)


def test_scalar_mul_by_inverse_restores():
    rng = random.Random(23)
    G = gl.quaternion8()
    A = random_pure_matrix(rng, G, 2, 2)
    g = G.element("j")
    back = A.scalar_mul(AlgebraElement.unit(G, g), "left") \
            .scalar_mul(AlgebraElement.unit(G, G.invert(g)), "left")
    assert back == A


def test_abelian_scalar_sides_agree():
    rng = random.Random(29)
    Z4 = gl.cyclic(4)
    A = random_pure_matrix(rng, Z4, 3, 3)
    a = AlgebraElement.unit(Z4, 3)
    assert A.scalar_mul(a, "left") == A.scalar_mul(a, "right")


def test_group_diagonal_is_unitary():
    rng = random.Random(31)
    for G in small_groups():
        f = random_vector(rng, G, 4)
        F = group_diagonal(G, f)
        assert F @ F.star() == group_diagonal(G, [G.identity] * 4)


def test_star_transposes_diagonal_of_inverses():
    G = gl.quaternion8()
    f = [G.element("i"), G.element("j")]
    F = group_diagonal(G, f).star()
    assert F == group_diagonal(G, [G.invert(g) for g in f])


def test_equal_elements_hash_equal_across_group_objects():
    a = AlgebraElement.unit(gl.quaternion8(), 1)
    b = AlgebraElement.unit(gl.quaternion8(), 1)
    assert a == b and a.group is not b.group
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_dense_grid_and_support_build_the_same_matrix():
    rng = random.Random(37)
    for G in small_groups():
        A = random_cg_matrix(rng, G, 4, 5)
        grid = [[A[i, j] for j in range(5)] for i in range(4)]
        support = {(i, j): grid[i][j] for i in range(4) for j in range(5)
                   if grid[i][j].coeffs}
        B = CGMatrix(G, support, (4, 5))
        # a mapping that also holds every zero entry builds the same matrix
        dense = matrix_of_rows(G, grid)
        assert dense == B and hash(dense) == hash(B) and dense.support == support
        assert B.entries == tuple(tuple(row) for row in grid)
        assert all(a.coeffs for a in A.support.values())
    # equal (empty) supports, different shapes
    assert CGMatrix(G, {}, (4, 5)) != CGMatrix(G, {}, (5, 4))


def test_support_holds_only_nonzero_entries():
    G = gl.quaternion8()
    zero = AlgebraElement(G, {})
    A = matrix_of_rows(G, [[zero, unit(G, "i")], [zero, zero]])
    assert list(A.support) == [(0, 1)]
    assert A[1, 0] == zero and A[0, 1] == unit(G, "i")
    # entries that cancel leave the support
    minus_A = A.scalar_mul(AlgebraElement(G, {G.identity: -1}))
    assert not (A + minus_A).support
    assert A + minus_A == CGMatrix(G, {}, (2, 2))
    with pytest.raises(ValidationError):
        CGMatrix(G, {(2, 0): unit(G, "i")}, (2, 2))


def test_entries_must_come_from_the_matrix_group():
    G, twin = gl.quaternion8(), gl.quaternion8()
    assert twin is not G and twin == G
    # an equal group object is the same group; another group is refused
    assert matrix_of_rows(G, [[unit(twin, "i"), unit(G, "j")]]).support[0, 0] == unit(G, "i")
    refused = "^matrix entry from a different group$"
    with pytest.raises(ValidationError, match=refused):
        matrix_of_rows(G, [[unit(G, "i"), unit(gl.dihedral(4), "r1")]])
    with pytest.raises(ValidationError, match=refused):
        CGMatrix(G, {(0, 1): AlgebraElement.unit(gl.cyclic(8), 3)}, (1, 2))


def test_sparse_products_match_dense_expansion():
    rng = random.Random(41)
    for G in small_groups():
        A = random_cg_matrix(rng, G, 3, 4)
        B = random_cg_matrix(rng, G, 4, 2)
        product = A @ B
        for i in range(3):
            for j in range(2):
                expected = AlgebraElement(G, {})
                for l in range(4):
                    expected = expected + A[i, l] * B[l, j]
                assert product[i, j] == expected
        assert (A @ B).star() == B.star() @ A.star()


def test_malformed_indices_and_positions_are_refused():
    Q8 = gl.quaternion8()
    u = unit(Q8, "i")
    cases = [
        (lambda: AlgebraElement(Q8, {99: 1}), "^element index out of range: 99$"),
        (lambda: AlgebraElement(Q8, {-1: 1}), "^element index out of range: -1$"),
        (lambda: AlgebraElement(Q8, {1.5: 1}), "^each term needs an integer element index$"),
        (lambda: AlgebraElement(Q8, {True: 1}), "^each term needs an integer element index$"),
        (lambda: AlgebraElement.unit(Q8, 1.5), "^each term needs an integer element index$"),
        (lambda: CGMatrix(Q8, {(0.5, 0): u}, (2, 2)),
         "^matrix positions must be pairs of integers$"),
        (lambda: CGMatrix(Q8, {0: u}, (2, 2)), "^matrix positions must be pairs of integers$"),
        (lambda: CGMatrix(Q8, {(0, 1): u, (1, -1): u}, (2, 2)),
         r"^entry \(1, -1\) outside a 2x2 matrix$"),
        (lambda: CGMatrix(Q8, {(0, 10 ** 30): u}, (2, 2)),
         rf"^entry \(0, {10 ** 30}\) outside a 2x2 matrix$"),
        (lambda: group_diagonal(Q8, [0, 8]), "^element index out of range: 8$"),
        (lambda: group_diagonal(Q8, [0.5]), "^each term needs an integer element index$"),
        (lambda: group_diagonal(Q8, []), "^matrix must have at least one row$"),
    ]
    for build, message in cases:
        with pytest.raises(ValidationError, match=message):
            build()


def test_a_shape_must_be_a_pair_of_integers():
    # a float shape was accepted, and the entries view then raised TypeError
    Q8 = gl.quaternion8()
    for shape in ((1.5, 2), (2, 2.0), (True, 2), (2,), (2, 2, 2), "ab", None):
        with pytest.raises(ValidationError, match="^matrix shape must be a pair of integers$"):
            CGMatrix(Q8, {}, shape)
    A = CGMatrix(Q8, {}, (np.int64(2), 3))
    assert (A.rows, A.cols) == (2, 3) and type(A.rows) is int and len(A.entries) == 2


def test_terms_are_sorted_read_only_arrays():
    rng = random.Random(43)
    for G in small_groups():
        A = random_cg_matrix(rng, G, 4, 5)
        for M in (A, A.star(), A @ A.star(), A + A, A.scalar_mul(A[0, 0] + AlgebraElement.unit(G, 0))):
            assert [a.dtype for a in (M.i, M.j, M.g, M.c)] \
                == [np.intp, np.intp, np.intp, np.complex128]
            assert not any(a.flags.writeable for a in (M.i, M.j, M.g, M.c))
            keys = list(zip(M.i.tolist(), M.j.tolist(), M.g.tolist()))
            assert keys == sorted(set(keys)) and M.c.all()


def test_array_form_hashes_with_equality():
    rng = random.Random(47)
    for G in (gl.quaternion8(), gl.dihedral(4)):
        graph = random_connected_graph(rng, 8)
        psi = random_gain(rng, graph, G)
        A = gl.gain_adjacency(psi)
        star = A.star()
        # conjugation writes -0.0 imaginary parts, which must not reach the hash
        assert star == A and hash(star) == hash(A) and len({A, star}) == 1
        twin = gl.FiniteGroup(G.labels, G.table, G.name)
        B = gl.gain_adjacency(gl.GainFunction(graph, twin, psi.forward))
        assert B.group is not A.group and B == A and hash(B) == hash(A)
        # support is a new dict of new elements on each access
        support = A.support
        first = next(iter(support))
        support[first].coeffs.clear()
        support.clear()
        assert A == star and A[first].coeffs and len(A.support) == 2 * graph.m


def test_positions_past_any_packed_key():
    G = gl.quaternion8()
    u = unit(G, "i")
    far = 10 ** 12
    A = CGMatrix(G, {(0, far): u}, (1, far + 1))
    assert A[0, far] == u and not A[0, far - 1].coeffs and not A[0, 0].coeffs
    assert A.support == {(0, far): u}
    assert A.star()[far, 0] == unit(G, "-i")
    assert A.star().star() == A and hash(A.star().star()) == hash(A)
    assert A != CGMatrix(G, {(0, far - 1): u}, (1, far + 1))


def test_one_vertex_graph_has_an_empty_incidence_matrix():
    G = gl.quaternion8()
    N = gl.incidence_phase(gl.SimpleGraph(1, ()), G).to_cg_matrix()
    assert N == CGMatrix(G, {}, (1, 0)) and not N.support and N.entries == ((),)
    assert gl.fourier(N, gl.q8_representation(G)).shape == (2, 0)
    assert N @ N.star() == CGMatrix(G, {}, (1, 1))
