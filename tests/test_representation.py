import math
import random
import warnings

import numpy as np
import pytest

import gainline as gl
from gainline.algebra import CGMatrix
from gainline.errors import InputError, ValidationError

from helpers import (DIAMOND, PAW, builtin_representations, index_two_subgroups, q8_gain,
                     random_cg_matrix, random_connected_graph, random_gain, random_phase,
                     random_pure_matrix, random_vector, reference_fourier,
                     reference_multiplicity_groups, reference_representation_failure,
                     reference_sign_values, relabeled, small_groups)

DIAMOND_GAINS = ["-k", "1", "1", "1", "-j"]


def test_q8_two_dim_images():
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    assert rep.degree == 2 and rep.irreducible
    assert np.array_equal(rep.images[Q8.element("i")], [[0, -1], [1, 0]])
    assert np.array_equal(rep.images[Q8.element("j")], [[0, 1j], [1j, 0]])
    assert np.array_equal(rep.images[Q8.element("k")], [[-1j, 0], [0, 1j]])
    assert np.array_equal(rep.images[Q8.element("-1")], [[-1, 0], [0, -1]])


def test_validation_rejects_bad_tables():
    Z2 = gl.sign_group()
    with pytest.raises(ValidationError):  # pi(1) != I
        gl.UnitaryRepresentation(Z2, [[[0.0]], [[1.0]]])
    with pytest.raises(ValidationError):  # not unitary
        gl.UnitaryRepresentation(Z2, [[[1.0]], [[2.0]]])
    with pytest.raises(ValidationError):  # not a homomorphism
        gl.UnitaryRepresentation(Z2, [[[1.0]], [[1j]]])
    for images in ([[[1.0]]], np.zeros((2, 0, 0))):  # wrong shape, degree 0
        with pytest.raises(ValidationError, match="must be an .order, k, k. array"):
            gl.UnitaryRepresentation(Z2, images)


def test_fourier_refuses_a_matrix_over_another_group():
    psi = gl.constant_gain(PAW, gl.cyclic(8), 0)
    with pytest.raises(ValidationError) as refused:
        gl.fourier(gl.gain_adjacency(psi), gl.q8_representation(gl.quaternion8()))
    assert str(refused.value) == "representation defined on a different group"


def test_builtin_dispatch():
    Q8 = gl.quaternion8()
    rep = gl.representation_from_dict({"builtin": "q8_2dim"}, Q8)
    assert rep.degree == 2
    with pytest.raises(InputError):
        gl.representation_from_dict({"builtin": "mystery"}, Q8)
    with pytest.raises(InputError):
        gl.representation_from_dict({"builtin": "root_of_unity"}, Q8)
    with pytest.raises(InputError):  # Q8's labels over the table of Z8
        gl.q8_representation(gl.FiniteGroup(Q8.labels, gl.cyclic(8).table))


def test_root_of_unity_values():
    Z4 = gl.cyclic(4)
    rep = gl.root_of_unity_representation(Z4, power=1)
    assert abs(rep.images[1][0, 0] - 1j) < 1e-12
    assert abs(rep.images[2][0, 0] + 1) < 1e-12
    squared = gl.root_of_unity_representation(Z4, power=2)
    assert abs(squared.images[1][0, 0] + 1) < 1e-12
    # only power mod n matters; a huge or negative power is reduced exactly
    for n, power in ((4, 10**400 + 1), (12, -5), (512, 3 * 10**400 + 7)):
        assert np.array_equal(gl.root_of_unity_representation(gl.cyclic(n), power).images,
                              gl.root_of_unity_representation(gl.cyclic(n), power % n).images)


def test_root_of_unity_is_exact_at_quarter_turns():
    quarter = np.array([1, 1j, -1, -1j])
    assert (gl.root_of_unity_representation(gl.t4()).images[:, 0, 0] == quarter).all()
    for n, power in ((8, 1), (8, 3), (512, 1), (512, 7)):
        images = gl.root_of_unity_representation(gl.cyclic(n), power).images[:, 0, 0]
        # a is a quarter point iff a * power is a multiple of n / 4
        a = np.arange(0, n, n // 4)
        assert (images[a] == quarter[power * np.arange(4) % 4]).all()
        others = np.setdiff1d(np.arange(n), a)
        assert not np.isin(images[others], quarter).any()


def test_sign_character_families():
    assert gl.sign_character(gl.sign_group()).images[1][0, 0] == -1
    assert gl.sign_character(gl.cyclic(6)).images[3][0, 0] == -1
    D4 = gl.dihedral(4)
    assert gl.sign_character(D4).images[D4.element("s0")][0, 0] == -1
    with pytest.raises(InputError):
        gl.sign_character(gl.cyclic(5))
    # read off the table, never the name
    V = gl.direct_product(gl.cyclic(2), gl.cyclic(2))
    assert gl.sign_character(gl.FiniteGroup(V.labels, V.table, name="sign")).images \
        .tolist() == [[[1.0]], [[1.0]], [[-1.0]], [[-1.0]]]
    rng = random.Random(61)
    for G in (gl.direct_product(gl.quaternion8(), gl.cyclic(8)),
              relabeled(rng, gl.dihedral(64)), relabeled(rng, gl.cyclic(64))):
        values = gl.sign_character(G).images[:, 0, 0]
        assert sorted(values) == [-1.0] * (G.order // 2) + [1.0] * (G.order // 2)


def test_sign_character_keeps_the_values_of_the_named_families():
    groups = ([gl.sign_group(), gl.t4(), gl.cyclic(512), gl.dihedral(256)]
              + [gl.cyclic(n) for n in range(2, 65, 2)]
              + [gl.dihedral(n) for n in range(1, 65)])
    for G in groups:
        values = gl.sign_character(G).images[:, 0, 0]
        assert values.tolist() == reference_sign_values(G), G.name


def test_sign_character_kernel_is_the_least_index_two_subgroup():
    rng = random.Random(67)
    groups = ([gl.cyclic(n) for n in range(1, 17)] + [gl.dihedral(n) for n in range(1, 9)]
              + [gl.sign_group(), gl.t4(), gl.quaternion8(),
                 gl.direct_product(gl.cyclic(2), gl.cyclic(3))]
              + [gl.direct_product(a, b) for a in small_groups() for b in small_groups()
                 if a.order * b.order <= 16])
    groups += [relabeled(rng, G) for G in groups]
    for G in groups:
        subgroups = index_two_subgroups(G)
        if not subgroups:
            with pytest.raises(InputError, match="has no sign character"):
                gl.sign_character(G)
            continue
        values = gl.sign_character(G).images[:, 0, 0]
        assert np.array_equal(np.abs(values), np.ones(G.order)), G
        assert tuple(np.flatnonzero(values == 1)) == min(subgroups), G


def test_sign_character_of_z2_to_the_ninth():
    G = gl.cyclic(2)
    for _ in range(8):
        G = gl.direct_product(G, gl.cyclic(2))
    assert G.order == 512 and len(G.generators) == 9
    values = gl.sign_character(G).images[:, 0, 0]
    assert np.flatnonzero(values == 1).tolist() == list(range(256))


def test_regular_representation_is_faithful_permutation():
    for G in small_groups():
        rep = gl.regular_representation(G)
        for g in G.elements():
            mat = rep.images[g]
            assert np.array_equal(mat @ mat.conj().T, np.eye(G.order))
            assert set(np.unique(mat.real)) <= {0.0, 1.0}
        seen = {rep.images[g].tobytes() for g in G.elements()}
        assert len(seen) == G.order


def test_fourier_is_multiplicative():
    rng = random.Random(33)
    for G in small_groups():
        reps = [gl.trivial_representation(G), gl.regular_representation(G)]
        if G.labels == gl.quaternion8().labels:
            reps.append(gl.q8_representation(G))
        A = random_pure_matrix(rng, G, 3, 4)
        B = random_pure_matrix(rng, G, 4, 2)
        for rep in reps:
            lhs = gl.fourier(A @ B, rep)
            rhs = gl.fourier(A, rep) @ gl.fourier(B, rep)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_fourier_respects_star():
    rng = random.Random(37)
    for G in small_groups():
        rep = gl.regular_representation(G)
        A = random_pure_matrix(rng, G, 3, 3)
        lhs = gl.fourier(A.star(), rep)
        rhs = gl.fourier(A, rep).conj().T
        assert np.abs(lhs - rhs).max() < 1e-12


def test_fourier_of_incidence_at_trivial_is_classical():
    for G in (gl.sign_group(), gl.quaternion8()):
        rep = gl.trivial_representation(G)
        F = gl.fourier(gl.incidence_phase(PAW, G).to_cg_matrix(), rep)
        assert np.array_equal(F.real, gl.incidence_matrix(PAW))
        assert np.abs(F.imag).max() == 0


def test_diamond_represented_adjacency_matches_displayed_matrix():
    Q8 = gl.quaternion8()
    psi = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    F = gl.fourier(gl.gain_adjacency(psi), rep)
    expected = np.array([
        [0, 0, 1j, 0, 0, 0, 1, 0],
        [0, 0, 0, -1j, 0, 0, 0, 1],
        [-1j, 0, 0, 0, 1, 0, 1, 0],
        [0, 1j, 0, 0, 0, 1, 0, 1],
        [0, 0, 1, 0, 0, 0, 0, -1j],
        [0, 0, 0, 1, 0, 0, -1j, 0],
        [1, 0, 1, 0, 0, 1j, 0, 0],
        [0, 1, 0, 1, 1j, 0, 0, 0],
    ], dtype=np.complex128)
    assert np.array_equal(F, expected)


def test_diamond_pi_spectrum_closed_form():
    Q8 = gl.quaternion8()
    psi = q8_gain(DIAMOND, DIAMOND_GAINS)
    rep = gl.q8_representation(Q8)
    spec = gl.hermitian_spectrum(gl.fourier(gl.gain_adjacency(psi), rep))
    big = 0.5 * math.sqrt(10 + 2 * math.sqrt(17))
    small = 0.5 * math.sqrt(10 - 2 * math.sqrt(17))
    expected = sorted([-big, -big, -small, -small, small, small, big, big])
    assert np.allclose(spec, expected, atol=1e-8)
    assert gl.multiplicity_groups(spec) == [0, 0, 1, 1, 2, 2, 3, 3]


def test_hermitian_spectrum_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        gl.hermitian_spectrum(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValidationError):
        gl.hermitian_spectrum(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        gl.hermitian_spectrum(np.zeros(3))


def test_hermitian_spectrum_refuses_non_finite_entries():
    # NaN fails every comparison and inf - inf is NaN, so neither may reach
    # the Hermitian test; warnings are errors here, so none may be raised
    nan, inf = float("nan"), float("inf")
    for M in ([[nan]], [[0, nan], [nan, 0]], [[inf, 0], [0, 1]], [[0, inf], [inf, 0]],
              [[1, -inf], [-inf, 1]], [[0, complex(0, inf)], [complex(0, -inf), 0]]):
        with pytest.raises(ValidationError, match="^matrix must have finite entries$"):
            gl.hermitian_spectrum(np.array(M))


def test_hermitian_spectrum_refuses_a_huge_non_hermitian_matrix_without_warning():
    # finite entries whose Hermitian deviation overflows to inf
    for M in ([[0, -1e308], [1e308, 0]], [[0, -1e308 - 1e308j], [1e308 + 1e308j, 0]],
              [[1e308, 0], [0, -1e308j]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^matrix is not Hermitian within tolerance$"):
                gl.hermitian_spectrum(np.array(M))


def test_hermitian_spectrum_of_the_empty_matrix_is_empty():
    assert gl.hermitian_spectrum(np.zeros((0, 0))) == ()


def test_eigenvalues_match_residual_certified_pairs():
    # cross-check the computed spectrum against independently computed
    # eigenpairs whose residuals are certified small
    rng = random.Random(39)
    for _ in range(30):
        G = rng.choice(small_groups())
        graph = random_connected_graph(rng, 6)
        psi = random_gain(rng, graph, G)
        rep = gl.regular_representation(G)
        M = gl.fourier(gl.gain_adjacency(psi), rep)
        spec = gl.hermitian_spectrum(M)
        w, V = np.linalg.eigh(M)
        norm = np.linalg.norm(M, 2) or 1.0
        for idx in range(len(w)):
            residual = np.linalg.norm(M @ V[:, idx] - w[idx] * V[:, idx])
            assert residual <= 1e-9 * norm
        assert np.allclose(spec, np.sort(w), atol=1e-12)


def test_pi_spectrum_is_switching_invariant():
    rng = random.Random(43)
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    for _ in range(20):
        graph = random_connected_graph(rng, 6)
        psi = random_gain(rng, graph, Q8)
        f = random_vector(rng, Q8, graph.n)
        s1 = gl.hermitian_spectrum(gl.fourier(gl.gain_adjacency(psi), rep))
        s2 = gl.hermitian_spectrum(
            gl.fourier(gl.gain_adjacency(gl.switch(psi, f)), rep))
        assert np.allclose(s1, s2, atol=1e-10)


def test_regular_rep_of_trivial_gain_blows_up_classical_spectrum():
    for G in (gl.sign_group(), gl.quaternion8()):
        rep = gl.regular_representation(G)
        psi = gl.constant_gain(PAW, G, G.identity)
        spec = gl.hermitian_spectrum(gl.fourier(gl.gain_adjacency(psi), rep))
        classical = np.sort(np.linalg.eigvalsh(
            gl.classical_matrices(PAW)["adjacency"].astype(float)))
        expected = np.sort(np.repeat(classical, G.order))
        assert np.allclose(spec, expected, atol=1e-10)


def test_validation_reports_first_failure_like_the_pairwise_loop():
    rng = random.Random(53)
    cases = [(gl.quaternion8(), gl.q8_representation),
             (gl.dihedral(4), gl.regular_representation),
             (gl.cyclic(12), gl.root_of_unity_representation),
             (gl.dihedral(32), gl.regular_representation)]
    verdicts, accepted_by_scan, accepted_near_zero = set(), set(), set()
    for G, build in cases:
        images = build(G).images
        assert reference_representation_failure(G, images) is None
        for _ in range(10):
            bad = images.astype(np.complex128)
            g = rng.randrange(1, G.order)
            if rng.random() < 0.5:
                bad[g] = bad[g] * np.exp(0.3j)  # unitary, not a homomorphism
            else:
                bad[g] = bad[g] * 1.5  # not unitary
            expected = reference_representation_failure(G, bad)
            with pytest.raises(ValidationError) as info:
                gl.UnitaryRepresentation(G, bad)
            assert str(info.value) == expected
        if np.isrealobj(images):  # permutation images: two rows swapped in one
            bad = images.copy()
            g = rng.randrange(1, G.order)
            bad[g, [0, 1]] = bad[g, [1, 0]]
            with pytest.raises(ValidationError) as info:
                gl.UnitaryRepresentation(G, bad)
            assert str(info.value) == reference_representation_failure(G, bad)
        # near the tolerance: one image moved by delta, along one entry or
        # by a phase; every verdict and message is the pairwise loop's
        k = images.shape[1]
        eps = 1e-10 / (4 * k * G.order)
        for delta in (1e-14, 1e-12, 5e-11, 2e-10, 1e-9):
            for along_entry in (True, False):
                bad = images.astype(np.complex128)
                g = rng.randrange(1, G.order)
                if along_entry:
                    bad[g, rng.randrange(k), rng.randrange(k)] += delta
                else:
                    bad[g] = bad[g] * np.exp(1j * delta)
                expected = reference_representation_failure(G, bad)
                verdicts.add(expected is None)
                if expected is not None:
                    with pytest.raises(ValidationError) as info:
                        gl.UnitaryRepresentation(G, bad)
                    assert str(info.value) == expected
                    continue
                gl.UnitaryRepresentation(G, bad)
                deviation = generator_deviation(G, bad)
                if deviation > eps:
                    # no generator proof exists: the all-pairs scan accepted
                    accepted_by_scan.add(G.name)
                elif deviation < eps / 2:
                    accepted_near_zero.add(G.name)
    assert verdicts == {True, False}
    assert accepted_by_scan == {"Q8", "D4", "Z12", "D32"}
    # at degree 64 the smallest delta already exceeds eps
    assert accepted_near_zero == {"Q8", "D4", "Z12"}


#: The three refusals of UnitaryRepresentation, by a word of each message.
KINDS = ("identity matrix", "unitary", "homomorphism")


def exact_mutations(rng, images):
    """Gaussian-integer changes of exact images, each on a seeded element:
    two images swapped, one row negated, one row copied onto another (two
    units in one column), one image times i, a non-monomial image, a wrong
    identity, and one entry 2^60."""
    n, k = images.shape[:2]
    g, h = rng.sample(range(1, n), 2)
    swapped, negated, copied, turned, sheared, identity, huge = (
        images.astype(np.complex128) for _ in range(7))
    swapped[[g, h]] = swapped[[h, g]]
    negated[g, rng.randrange(k)] *= -1
    copied[g, 1 % k] = copied[g, 0]
    turned[g] *= 1j
    sheared[g] = np.eye(k)
    if k > 1:
        sheared[g, 0, 1] = 1  # [[1, 1], [0, 1]] in the top corner
    else:
        sheared[g] = 1 + 1j
    identity[0] = -identity[0] if rng.random() < 0.5 else identity[g]
    huge[g, rng.randrange(k), rng.randrange(k)] = 2.0 ** 60
    return swapped, negated, copied, turned, sheared, identity, huge


def test_exact_validation_reports_first_failure_like_the_pairwise_loop():
    rng = random.Random(59)
    D4, Q8, T4 = gl.dihedral(4), gl.quaternion8(), gl.t4()
    cases = [(gl.regular_representation(D4), 4), (gl.q8_representation(Q8), 4),
             (gl.root_of_unity_representation(T4), 4), (gl.sign_character(D4), 4),
             (gl.regular_representation(gl.dihedral(32)), 1)]
    verdicts = set()
    for rep, rounds in cases:
        G = rep.group
        for _ in range(rounds):
            for bad in exact_mutations(rng, rep.images):
                assert np.array_equal(bad, bad.round())  # the exact branch decides
                expected = reference_representation_failure(G, bad)
                verdicts.add(expected and next(kind for kind in KINDS if kind in expected))
                if expected is None:
                    gl.UnitaryRepresentation(G, bad)
                    continue
                with pytest.raises(ValidationError) as info:
                    gl.UnitaryRepresentation(G, bad)
                assert str(info.value) == expected, G.name
    assert verdicts == {None, *KINDS}


def generator_deviation(G, images):
    """Largest |pi(s)pi(h) - pi(sh)| over the group's generators s."""
    return max(np.abs(images[s] @ images[h] - images[G.mul(s, h)]).max()
               for s in G.generators for h in G.elements())


def test_represented_gain_matrices_laplacian_psd_when_s_is_identity():
    rng = random.Random(47)
    G = gl.quaternion8()
    rep = gl.q8_representation(G)
    psi = random_gain(rng, PAW, G)
    spec = gl.hermitian_spectrum(gl.fourier(gl.s_laplacian(psi, G.identity), rep))
    assert spec[0] >= -1e-10


def test_multiplicity_groups_tolerance():
    assert gl.multiplicity_groups((0.0, 1e-10, 1.0, 1.0 + 1e-10, 2.0)) == [0, 0, 1, 1, 2]
    assert gl.multiplicity_groups(()) == []
    # gaps drawn on both sides of the tolerance, and exactly at it
    rng = random.Random(418)
    tol = gl.representation.MULTIPLICITY_TOL
    for size in range(1, 60):
        lam = [rng.uniform(-4, 4)]
        for _ in range(size - 1):
            lam.append(lam[-1] + rng.choice((0.0, tol / 2, tol, 2 * tol, rng.uniform(0, 1))))
        ids = gl.multiplicity_groups(tuple(lam))
        assert ids == reference_multiplicity_groups(lam)
        assert all(type(i) is int for i in ids)


def test_classify_s2_image():
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    assert gl.classify_s2_image(rep, Q8.element("-1")) == "minus_identity"
    assert gl.classify_s2_image(rep, Q8.identity) == "plus_identity"
    reg = gl.regular_representation(Q8)
    assert gl.classify_s2_image(reg, Q8.element("-1")) == "other"


def test_representation_file_roundtrip():
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    d = gl.representation_to_dict(rep)
    back = gl.representation_from_dict(d, Q8)
    assert np.abs(back.images - rep.images).max() < 1e-12
    assert back.irreducible == rep.irreducible


def test_representation_file_writes_every_entry_with_its_sign_of_zero():
    for G in (gl.quaternion8(), gl.dihedral(4), gl.cyclic(8), gl.t4()):
        for rep in builtin_representations(G):
            images = gl.representation_to_dict(rep)["images"]
            assert list(images) == list(G.labels)
            for g, label in enumerate(G.labels):
                want = [[[float(x.real), float(x.imag)] for x in row] for row in rep.images[g]]
                # repr tells -0.0 from 0.0, and a numpy scalar from a float
                assert repr(images[label]) == repr(want), (G.name, label)


def test_representation_file_builtin_and_errors():
    Q8 = gl.quaternion8()
    rep = gl.representation_from_dict({"builtin": "q8_2dim"}, Q8)
    assert rep.degree == 2
    with pytest.raises(InputError):
        gl.representation_from_dict({"degree": 1}, Q8)
    partial = {"degree": 1, "images": {"1": [[[1, 0]]]}}
    with pytest.raises(InputError):
        gl.representation_from_dict(partial, Q8)
    # "irreducible" is a claim checked against <chi, chi>, never a setting
    regular = gl.representation_to_dict(gl.regular_representation(Q8))
    for data in (regular | {"irreducible": True}, {"builtin": "regular", "irreducible": True},
                 {"builtin": "q8_2dim", "irreducible": False}):
        with pytest.raises(InputError, match="'irreducible' is wrong"):
            gl.representation_from_dict(data, Q8)
    for data in (regular, {"builtin": "q8_2dim", "irreducible": True}):
        claim = data.get("irreducible")
        assert gl.representation_from_dict(data, Q8).irreducible == claim
    del regular["irreducible"]
    assert not gl.representation_from_dict(regular, Q8).irreducible


def _real_representations(G):
    reps = [gl.trivial_representation(G), gl.regular_representation(G)]
    try:
        reps.append(gl.sign_character(G))
    except InputError:
        pass
    return reps


def _representations(G):
    reps = _real_representations(G)
    if G.labels == gl.quaternion8().labels:
        reps.append(gl.q8_representation(G))
    return reps


def test_sparse_fourier_matches_dense_reference():
    rng = random.Random(59)
    for G in small_groups():
        s = gl.central_weak_involutions(G)[-1]
        for rep in _representations(G):
            graph = random_connected_graph(rng, 7)
            matrices = [
                random_cg_matrix(rng, G, 3, 4) @ random_cg_matrix(rng, G, 4, 5),
                gl.s_laplacian(random_gain(rng, graph, G), s),
                random_phase(rng, graph, G).to_cg_matrix(),
                gl.CGMatrix(G, {}, (2, 3)),
            ]
            for A in matrices:
                F = gl.fourier(A, rep)
                # small Gaussian integers times 0/+-1/+-i images: exact
                assert np.array_equal(F, reference_fourier(A, rep))
                assert F.shape == (A.rows * rep.degree, A.cols * rep.degree)
                real_coeffs = all(c.imag == 0 for a in A.support.values()
                                  for c in a.coeffs.values())
                assert np.isrealobj(F) == (
                    np.isrealobj(rep.images) and real_coeffs)


def test_real_representations_hold_float64_images():
    for G in small_groups():
        for rep in _real_representations(G):
            assert rep.images.dtype == np.float64
    Q8 = gl.quaternion8()
    assert gl.q8_representation(Q8).images.dtype == np.complex128
    for n in (4, 12):
        rep = gl.root_of_unity_representation(gl.cyclic(n))
        assert rep.images.dtype == np.complex128
    # Z2's character is exactly +-1, so it is real, as the sign character is
    assert gl.root_of_unity_representation(gl.cyclic(2)).images.dtype == np.float64
    # explicit images whose imaginary parts are all exactly zero are real
    images = {"1": [[[1, 0]]], "-1": [[[-1, 0]]]}
    rep = gl.representation_from_dict({"degree": 1, "images": images},
                                      gl.sign_group())
    assert rep.images.dtype == np.float64


def test_real_driver_eigenvalues_match_complex_driver():
    rng = random.Random(61)
    for _ in range(20):
        G = rng.choice(small_groups())
        rep = rng.choice(_real_representations(G))
        psi = random_gain(rng, random_connected_graph(rng, 8), G)
        M = gl.fourier(gl.gain_adjacency(psi), rep)
        assert M.dtype == np.float64
        got = np.array(gl.hermitian_spectrum(M))
        want = np.linalg.eigvalsh(M.astype(np.complex128))
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.linalg.norm(M, 2))


def test_irreducibility_is_decided_from_the_character():
    # the builtins decide what they used to declare
    groups = ([gl.cyclic(n) for n in range(1, 65)] + [gl.dihedral(n) for n in range(1, 65)]
              + [gl.quaternion8(), gl.t4(), gl.sign_group(), gl.cyclic(512), gl.dihedral(256),
                 gl.direct_product(gl.quaternion8(), gl.cyclic(8)),
                 gl.direct_product(gl.cyclic(2), gl.cyclic(2))])
    built = 0
    for G in groups:
        for which in ("trivial", "regular", "root_of_unity", "sign_character", "q8_2dim"):
            try:
                rep = gl.representation_from_dict({"builtin": which}, G)
            except InputError:
                continue
            assert rep.irreducible is (which != "regular" or G.order == 1), (G.name, which)
            built += 1
    assert built == 440
    # an inexact image that passes validation keeps the decision
    Q8 = gl.quaternion8()
    moved = gl.q8_representation(Q8).images.copy()
    moved[Q8.element("j"), 0, 1] += 1e-12
    assert gl.UnitaryRepresentation(Q8, moved).irreducible


def test_regular_representation_refused_above_cap():
    with pytest.raises(InputError):
        gl.regular_representation(gl.dihedral(65))


def coefficient_mass(A):
    """The largest sum_v sum_x |A_uv(x)| over rows and columns: the s of the
    block-split bound in invariant_blocks."""
    rows, cols = np.zeros(A.rows), np.zeros(A.cols)
    for (i, j), entry in A.support.items():
        mass = sum(abs(c) for c in entry.coeffs.values())
        rows[i] += mass
        cols[j] += mass
    return max(rows.max(), cols.max())


def assert_blocks_solve_like_the_dense_matrix(A, rep):
    dense = np.array(gl.hermitian_spectrum(gl.fourier(A, rep)))
    got = np.array(gl.represented_spectrum(A, rep))
    assert got.shape == dense.shape
    assert np.abs(got - dense).max() <= 1e-9 * coefficient_mass(A)


@pytest.mark.parametrize("make", [lambda: gl.dihedral(4), gl.quaternion8,
                                  lambda: gl.dihedral(32),
                                  lambda: gl.direct_product(gl.quaternion8(), gl.cyclic(8))])
def test_regular_spectrum_is_the_union_of_its_blocks(make):
    rng = random.Random(113)
    for G in (make(), relabeled(rng, make())):
        rep = gl.regular_representation(G)
        blocks = gl.invariant_blocks(rep)
        assert len(blocks) > 1 and sum(b.shape[1] for b in blocks) == G.order
        for block in blocks:  # each block is itself a unitary representation
            gl.UnitaryRepresentation(G, block)
        for n in (3, 6):
            graph = random_connected_graph(rng, n)
            assert_blocks_solve_like_the_dense_matrix(
                gl.gain_adjacency(random_gain(rng, graph, G)), rep)


def test_complex_reducible_representation_splits_into_its_summands():
    # q8_2dim + q8_2dim in a random unitary basis
    Q8 = gl.quaternion8()
    gen = np.random.default_rng(127)
    U, _ = np.linalg.qr(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    two = gl.q8_representation(Q8).images
    summed = np.zeros((8, 4, 4), dtype=complex)
    summed[:, :2, :2] = summed[:, 2:, 2:] = two
    rep = gl.UnitaryRepresentation(Q8, U @ summed @ U.conj().T)
    assert not rep.irreducible
    blocks = gl.invariant_blocks(rep)
    assert [b.shape[1:] for b in blocks] == [(2, 2), (2, 2)]
    assert all(np.iscomplexobj(b) for b in blocks)
    rng = random.Random(131)
    for _ in range(5):
        psi = random_gain(rng, random_connected_graph(rng, 8), Q8)
        assert_blocks_solve_like_the_dense_matrix(gl.gain_adjacency(psi), rep)


def test_irreducible_representations_are_one_block_without_a_change_of_basis():
    reps = [rep for G in small_groups() for rep in _representations(G) if rep.irreducible]
    reps += [gl.root_of_unity_representation(G, 3) for G in (gl.t4(), gl.cyclic(8))]
    assert len(reps) == 13
    for rep in reps:
        (block,) = gl.invariant_blocks(rep)
        assert block is rep.images


@pytest.mark.parametrize("angle", [1e-7, None])
def test_a_split_that_fails_its_certificate_is_one_block(monkeypatch, angle):
    G = gl.dihedral(4)
    rep = gl.regular_representation(G)
    psi = random_gain(random.Random(137), DIAMOND, G)
    eigh = np.linalg.eigh

    def bad_eigh(C):
        w, Q = eigh(C)
        if angle is None:  # a basis that knows nothing of the representation
            Q, _ = np.linalg.qr(np.random.default_rng(139).standard_normal(Q.shape))
            return np.arange(len(w), dtype=float), Q
        # the first eigenvector turned slightly towards the last one
        c, s = np.cos(angle), np.sin(angle)
        Q[:, [0, -1]] = Q[:, [0, -1]] @ np.array([[c, -s], [s, c]])
        return w, Q

    monkeypatch.setattr(np.linalg, "eigh", bad_eigh)
    (block,) = gl.invariant_blocks(rep)
    assert block is rep.images
    A = gl.gain_adjacency(psi)
    assert gl.represented_spectrum(A, rep) == gl.hermitian_spectrum(gl.fourier(A, rep))


def test_fourier_takes_an_image_array_of_the_group():
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    A = gl.gain_adjacency(q8_gain(DIAMOND, DIAMOND_GAINS))
    assert np.array_equal(gl.fourier(A, rep.images), gl.fourier(A, rep))
    # too few elements, one matrix, non-square and empty images
    for images in (rep.images[:4], rep.images[0], np.zeros((8, 2, 3)),
                   np.zeros((8, 0, 0))):
        with pytest.raises(ValidationError, match="must be an .order, k, k. array"):
            gl.fourier(A, images)


def test_quaternionic_type_spectra_pair_up():
    # q8_2dim is of quaternionic type: fourier(A, pi) commutes with an
    # antiunitary J with J^2 = -1 when A has real coefficients, so every
    # eigenvalue has even multiplicity (Kramers)
    rng = random.Random(173)
    Q8 = gl.quaternion8()
    rep = gl.q8_representation(Q8)
    for _ in range(200):
        psi = random_gain(rng, random_connected_graph(rng, 12), Q8)
        for A in (gl.gain_adjacency(psi), gl.s_laplacian(psi, Q8.identity),
                  gl.s_laplacian(psi, Q8.element("-1"))):
            spec = gl.represented_spectrum(A, rep)
            groups = gl.multiplicity_groups(spec)
            assert all(groups.count(gid) % 2 == 0 for gid in set(groups))
            assert max(abs(b - a) for a, b in zip(spec[::2], spec[1::2])) <= 1e-12
