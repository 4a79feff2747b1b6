import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gainline as gl
from gainline.errors import InputError, ValidationError
from gainline.group import is_central_weak_involution

from helpers import (dense_table_failure, reference_center, reference_cyclic_table,
                     reference_dihedral, reference_direct_product, reference_generators,
                     reference_quaternion8, reference_table_failure, small_groups)


def test_q8_defining_relations():
    Q8 = gl.quaternion8()
    i, j, k = Q8.element("i"), Q8.element("j"), Q8.element("k")
    assert Q8.mul(i, j) == k
    assert Q8.mul(j, i) == Q8.element("-k")
    assert Q8.mul(i, i) == Q8.element("-1")
    assert Q8.invert(i) == Q8.element("-i")


def test_identity_law_everywhere():
    for G in small_groups():
        for g in G.elements():
            assert G.mul(0, g) == g
            assert G.mul(g, 0) == g


def test_cyclic_arithmetic():
    Z4 = gl.cyclic(4)
    assert Z4.mul(3, 2) == 1
    Z5 = gl.cyclic(5)
    assert Z5.invert(2) == 3


def test_center_q8_and_d4():
    Q8 = gl.quaternion8()
    assert sorted(gl.center(Q8)) == sorted(
        [Q8.element("1"), Q8.element("-1")])
    D4 = gl.dihedral(4)
    assert sorted(gl.center(D4)) == sorted(
        [D4.element("r0"), D4.element("r2")])


def test_center_of_abelian_group_is_everything():
    Z6 = gl.cyclic(6)
    assert gl.center(Z6) == list(Z6.elements())


def test_central_weak_involutions():
    Q8 = gl.quaternion8()
    assert sorted(gl.central_weak_involutions(Q8)) == sorted(
        [Q8.element("1"), Q8.element("-1")])
    Z5 = gl.cyclic(5)
    assert gl.central_weak_involutions(Z5) == [0]
    V = gl.direct_product(gl.cyclic(2), gl.cyclic(2))
    assert len(gl.central_weak_involutions(V)) == 4


def test_weak_involutions_contain_identity_and_commute():
    for G in small_groups():
        invs = gl.central_weak_involutions(G)
        assert 0 in invs
        for s in invs:
            assert G.mul(s, s) == 0
            assert all(G.mul(s, h) == G.mul(h, s) for h in G.elements())


def test_center_agrees_with_table_scan():
    rng = random.Random(5)
    groups = small_groups() + [gl.dihedral(6), gl.dihedral(32),
                               gl.direct_product(gl.quaternion8(), gl.cyclic(4))]
    for G in groups:
        # the same group with its non-identity elements in random order
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        back = {old: new for new, old in enumerate(perm)}
        H = gl.FiniteGroup([G.labels[p] for p in perm],
                           [[back[G.mult[a][b]] for b in perm] for a in perm])
        for K in (G, H):
            want = reference_center(K)
            assert gl.center(K) == want
            assert gl.central_weak_involutions(K) == [
                g for g in want if K.mult[g][g] == 0]
            assert [s for s in K.elements() if is_central_weak_involution(K, s)] \
                == gl.central_weak_involutions(K)
        assert not is_central_weak_involution(G, G.order)


def test_direct_product_z2_z3_is_z6():
    G = gl.direct_product(gl.cyclic(2), gl.cyclic(3))
    assert G.order == 6
    assert G.is_abelian()
    # an element of order 6 exists, so the group is cyclic
    orders = set()
    for g in G.elements():
        x, k = g, 1
        while x != 0:
            x = G.mul(x, g)
            k += 1
        orders.add(k)
    assert 6 in orders


@given(st.integers(min_value=1, max_value=24))
def test_cyclic_inverse_involution(n):
    G = gl.cyclic(n)
    for g in G.elements():
        assert G.invert(G.invert(g)) == g


def test_associativity_exhaustive_small():
    for G in small_groups():
        if G.order > 8:
            continue
        for a, b, c in itertools.product(G.elements(), repeat=3):
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))


def test_rejects_non_latin_square():
    with pytest.raises(ValidationError):
        gl.FiniteGroup(["e", "a"], [[0, 0], [1, 1]])


def test_rejects_non_associative_table():
    # Latin square with identity but not associative (order 5 quasigroup).
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        gl.FiniteGroup(["e", "a", "b", "c", "d"], table)
    # Z2^3 with the intercalate at rows 2/3 x columns 4/5 swapped: the first
    # generator passes Light's test, the later ones do not.
    Z222 = gl.direct_product(gl.direct_product(gl.cyclic(2), gl.cyclic(2)), gl.cyclic(2))
    table = [list(row) for row in Z222.mult]
    for r in (2, 3):
        table[r][4], table[r][5] = table[r][5], table[r][4]
    with pytest.raises(ValidationError, match="not associative"):
        gl.FiniteGroup(Z222.labels, table)


def test_rejects_non_associative_table_of_order_512():
    # Z512 with one intercalate swapped: still a Latin square with identity 0
    # and inverses, but 8144 of its 512^3 triples are not associative.
    n = 512
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    for r in (3, 259):
        table[r][5], table[r][261] = table[r][261], table[r][5]
    with pytest.raises(ValidationError, match="not associative"):
        gl.FiniteGroup([str(a) for a in range(n)], table)


def swap_intercalate(rng, table):
    """Swap a seeded intercalate of the list table in place: rows a, c and
    columns b, d with table[a][b] = table[c][d] and table[a][d] = table[c][b],
    away from row and column 0 and from the value 0."""
    order = len(table)
    while True:
        a, b = rng.randrange(1, order), rng.randrange(1, order)
        for c in rng.sample(range(1, order), order - 1):
            d = table[c].index(table[a][b])
            if a != c and d not in (0, b) and table[a][d] == table[c][b] \
                    and 0 not in (table[a][b], table[a][d]):
                table[a][b], table[a][d] = table[a][d], table[a][b]
                table[c][b], table[c][d] = table[c][d], table[c][b]
                return


def test_order_512_table_checks_agree_with_the_dense_oracle():
    rng = random.Random(512)
    groups = (gl.cyclic(512), gl.dihedral(256),
              gl.direct_product(gl.quaternion8(), gl.cyclic(64)))
    verdicts = []
    for G in groups:
        for _ in range(2):
            table = G.table.tolist()
            i, j = rng.randrange(1, G.order), rng.randrange(1, G.order)
            swapped = [list(row) for row in table]
            swap_intercalate(rng, swapped)
            out_of_range = [list(row) for row in table]
            out_of_range[i][j] = rng.choice((-1, G.order, 2**40))
            with_true = [list(row) for row in table]
            with_true[i][with_true[i].index(1)] = True
            with_float = [list(row) for row in table]
            with_float[i][j] = float(with_float[i][j])
            float_array = np.array(table, dtype=np.float64)
            float_array[i, j] += 0.5
            cases = [swapped, np.array(swapped), out_of_range, np.array(out_of_range),
                     with_true, with_float, float_array]
            for mult in cases:
                expected = dense_table_failure(mult)
                verdicts.append(expected)
                with pytest.raises(ValidationError) as info:
                    gl.FiniteGroup(G.labels, mult)
                assert str(info.value) == expected, G.name
    kinds = {verdict.split(" ")[0] for verdict in verdicts}
    assert {"row", "column", "table", "multiplication"} <= kinds
    assert sum(verdict.startswith("table is not associative at (")
               for verdict in verdicts) == 2 * 2 * len(groups)


def test_builders_check_order_cap_first():
    for build in (lambda: gl.cyclic(10**6), lambda: gl.dihedral(10**6),
                  lambda: gl.direct_product(gl.cyclic(64), gl.dihedral(8))):
        with pytest.raises(ValidationError, match="exceeds cap"):
            build()


def test_table_checks_agree_with_exhaustive_loops():
    rng = random.Random(109)
    groups = small_groups() + [gl.cyclic(6), gl.dihedral(3), gl.cyclic(1)]
    verdicts, out_of_range = set(), 0
    for _ in range(300):
        G = rng.choice(groups)
        table = [list(row) for row in G.mult]
        for _ in range(rng.randint(1, 2)):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            c, d = rng.randrange(G.order), rng.randrange(G.order)
            r = rng.random()
            if r < 0.3:  # swap two entries
                table[a][b], table[c][d] = table[c][d], table[a][b]
            elif r < 0.5:  # swap two rows, keeping the table Latin
                table[a], table[c] = table[c], table[a]
            elif table[a][b] in table[c]:  # swap an intercalate, if (a, c, b) spans one
                d = table[c].index(table[a][b])
                if 0 not in (a, b, c, d) and a != c and table[a][d] == table[c][b]:
                    table[a][b], table[a][d] = table[a][d], table[a][b]
                    table[c][b], table[c][d] = table[c][d], table[c][b]
        if rng.random() < 0.2:  # an entry out of range: -1 must not wrap round
            table[rng.randrange(G.order)][rng.randrange(G.order)] = rng.choice(
                (-1, G.order, 2**40))
            out_of_range += 1
        expected = reference_table_failure(table)
        verdicts.add(expected.split(" ")[0] if expected else None)
        if expected is None:
            gl.FiniteGroup(G.labels, table)
            continue
        with pytest.raises(ValidationError) as info:
            gl.FiniteGroup(G.labels, table)
        message = str(info.value)
        assert message.startswith(expected) if "associative" in expected \
            else message == expected
    assert {"row", "column", "element", "table", None} <= verdicts
    assert out_of_range > 30


def test_rejects_wrong_identity_position():
    # swap rows so that element 0 is not the identity
    Z2 = [[1, 0], [0, 1]]
    with pytest.raises(ValidationError):
        gl.FiniteGroup(["x", "y"], Z2)


def test_build_group_dispatch_and_roundtrip():
    spec = {"family": "quaternion8"}
    Q8 = gl.build_group(spec)
    again = gl.build_group(gl.group_to_dict(Q8))
    assert again == Q8

    with pytest.raises(InputError):
        gl.build_group({"family": "nope"})
    with pytest.raises(InputError):
        gl.build_group({"labels": ["e"]})


def test_build_group_sign_labels():
    G = gl.build_group({"family": "sign"})
    assert G.labels == ("1", "-1")
    T = gl.build_group({"family": "t4"})
    assert T.labels == ("1", "i", "-1", "-i")


def test_order_cap():
    with pytest.raises(ValidationError):
        n = 600
        gl.FiniteGroup([str(i) for i in range(n)],
                       [[(a + b) % n for b in range(n)] for a in range(n)])


def test_group_faults_are_named():
    cases = [
        (lambda: gl.FiniteGroup(["e", "e"], [[0, 1], [1, 0]]), ValidationError,
         "element labels must be unique"),
        (lambda: gl.quaternion8().invert(8), ValidationError,
         "element index out of range: 8"),
        (lambda: gl.dihedral(0), InputError, "dihedral group needs n >= 1"),
        # entries out of range, below and above
        (lambda: gl.FiniteGroup(["e", "a"], [[0, 1], [1, -1]]), ValidationError,
         "row 1 of the table is not a permutation"),
        (lambda: gl.FiniteGroup(["e", "a"], [[0, 1], [1, 2]]), ValidationError,
         "row 1 of the table is not a permutation"),
    ]
    for build, kind, message in cases:
        with pytest.raises(kind) as refused:
            build()
        assert str(refused.value) == message


def test_unknown_label_is_input_error():
    for label in ("q", 1, None, [1]):
        with pytest.raises(InputError):
            gl.sign_group().element(label)


def test_custom_table_with_non_integer_entry_is_rejected():
    with pytest.raises(ValidationError):
        gl.build_group({"family": "custom", "labels": ["e", "a"],
                        "table": [["x", "1"], ["1", "0"]]})
    # no entry is converted: 1.5 is not truncated, 1.0, "1" and True are not 1
    for entry in (1.5, 1.0, "1", True, False, [1], None, 2**64):
        with pytest.raises(ValidationError,
                           match="^multiplication table entries must be integers$"):
            gl.build_group({"family": "custom", "labels": ["e", "a"],
                            "table": [[0, entry], [1, 0]]})
    with pytest.raises(ValidationError, match="entries must be integers"):
        gl.FiniteGroup(["e", "a"], np.array([[False, True], [True, False]]))
    # integer arrays of any width give the same group
    for dtype in (np.int8, np.uint16, np.int64):
        G = gl.FiniteGroup(["e", "a"], np.array([[0, 1], [1, 0]], dtype=dtype))
        assert G.table.dtype == np.intp
        assert G == gl.FiniteGroup(["e", "a"], [[0, 1], [1, 0]])


def test_closed_form_builders_match_loop_tables():
    for n in range(1, 25):
        G = gl.cyclic(n)
        assert G.labels == tuple(str(a) for a in range(n))
        assert G.table.tolist() == reference_cyclic_table(n)
    assert gl.t4().table.tolist() == reference_cyclic_table(4)
    for n in range(1, 17):
        labels, table = reference_dihedral(n)
        G = gl.dihedral(n)
        assert G.labels == tuple(labels) and G.table.tolist() == table
    labels, table = reference_quaternion8()
    Q8 = gl.quaternion8()
    assert Q8.labels == tuple(labels) and Q8.table.tolist() == table
    for a in small_groups():
        for b in small_groups():
            labels, table = reference_direct_product(a, b)
            G = gl.direct_product(a, b)
            assert G.labels == tuple(labels) and G.table.tolist() == table


def test_generators_match_right_multiplication_search():
    rng = random.Random(7)
    groups = small_groups() + [gl.cyclic(1), gl.cyclic(60), gl.dihedral(9),
                               gl.direct_product(gl.quaternion8(), gl.cyclic(6)),
                               gl.direct_product(gl.sign_group(), gl.direct_product(
                                   gl.cyclic(2), gl.cyclic(2)))]
    for G in groups:
        # the same group with its non-identity elements in random order
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        back = {old: new for new, old in enumerate(perm)}
        H = gl.FiniteGroup([G.labels[p] for p in perm],
                           [[back[G.mul(a, b)] for b in perm] for a in perm])
        for K in (G, H):
            assert K.generators == reference_generators(K)


def test_equality_and_hash_follow_labels_and_table():
    groups = [gl.cyclic(1), gl.cyclic(12), gl.sign_group(), gl.t4(), gl.dihedral(5),
              gl.quaternion8(), gl.direct_product(gl.quaternion8(), gl.cyclic(3))]
    for G in groups:
        back = gl.build_group(gl.group_to_dict(G))
        assert back == G and hash(back) == hash(G)
        wider = gl.FiniteGroup(G.labels, G.table.astype(np.int16))
        assert wider == G and hash(wider) == hash(G)
        relabeled = list(G.labels)
        relabeled[-1] += "'"
        assert gl.FiniteGroup(relabeled, G.table) != G
    # Z2 x Z2 with the intercalate at rows and columns 1, 2 swapped is a
    # group again (Z4 in another element order), on the same labels
    V = gl.direct_product(gl.cyclic(2), gl.cyclic(2))
    table = V.table.tolist()
    table[1][1], table[1][2], table[2][1], table[2][2] = 3, 0, 0, 3
    W = gl.FiniteGroup(V.labels, table)
    assert W != V and V != W and W.labels == V.labels
    assert W.mul(1, 1) == 3 and W.mul(1, 3) == 2


def test_a_group_equals_itself_without_a_table_comparison(monkeypatch):
    # most operands share one group object: equality is decided by identity
    # first, and only distinct objects compare their tables
    G, H = gl.dihedral(32), gl.dihedral(32)
    compared = []
    monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or True)
    assert G == G and not G != G and not (G == 5)
    assert compared == []
    assert G == H and compared == [1]
