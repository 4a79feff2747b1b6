"""Unitary representations, the matrix Fourier transform and spectra."""

from __future__ import annotations

import numpy as np

from .algebra import CGMatrix
from .errors import InputError, ValidationError, require_fields, require_type
from .group import Element, FiniteGroup, quaternion8

#: Homomorphism, unitarity and Hermitian validation tolerance.
VALIDATION_TOL = 1e-10
#: Eigenvalues closer than this share a multiplicity group.
MULTIPLICITY_TOL = 1e-8
#: Largest group order with a regular representation.
REGULAR_MAX_ORDER = 128
#: Largest side of a represented matrix, rows (or columns) times the degree.
MAX_EIG_DIM = 4096


class UnitaryRepresentation:
    """A per-element table of unitary matrices g -> pi(g).

    Validated at construction: pi(1) = I, pi(g)pi(h) = pi(gh) and
    pi(g)* pi(g) = I, all within tol = ``VALIDATION_TOL``.  ``images`` is
    float64 when every imaginary part is exactly zero (regular, sign and
    trivial representations), so that validation, Fourier transforms and
    eigensolves run in real arithmetic, and complex128 otherwise.

    Tolerances are on the largest entry.  The homomorphism is decided on the
    generators S of the group first.  Let n = |G|, k the degree, and rho = 0
    if every entry is a Gaussian integer (by unitarity 0, +-1 or +-i, whose
    products are exact), else rho = (k + 2) 2^-52, a bound on the rounding
    of an entry of a product.  S suffices if it is not empty, k n tol <= 1
    and every computed |pi(s)pi(h) - pi(sh)| <= tol / (4 k n) - rho.  Proof:
    the exact deviations at S are then at most d = tol / (4 k n), k d in the
    spectral norm, and ||pi(g)||^2 <= u^2 = 1 + k (tol + rho).  Each g is a
    word s_1 ... s_L in S, 1 <= L <= n; peeling one letter at a time bounds
    ||pi(g)pi(h) - pi(gh)|| by 2 k d L u^(L-1) <= (e^(1/2) / 2) tol < 0.83 tol
    as (n - 1) rho <= tol, and a scan, off by rho <= tol / 8, accepts every
    pair.  Otherwise the scan decides, naming the first failing (g, h).

    ``irreducible`` is decided, never declared: pi is irreducible iff
    <chi, chi> = (1/n) sum_g |tr pi(g)|^2 = 1 (Serre, section 2.3, Thm 5), and
    the flag is round(<chi, chi>) == 1.  <chi, chi> = tr P for
    P = (1/n) sum_g pi(g) (x) conj(pi(g)), which for exact images is the
    projection onto the commutant, of rank sum_i m_i^2.  For k <= MAX_EIG_DIM
    the checks above bound every exact entry of pi(g)pi(h) - pi(gh) and of
    pi(g)* pi(g) - I by t = 1.01 tol (their own rounding is under
    (k + 2) 2^-52 w^2 <= tol / 100), so ||pi(g)|| <= w = (1 + k t)^(1/2).
    P^2 - P is the mean over (g, h) of A (x) conj(A) - B (x) conj(B), with
    A = pi(g)pi(h) and B = pi(gh), so its nuclear norm is at most
    c = k^(5/2) t (w^2 + w).  Its eigenvalues are lambda_i^2 - lambda_i over
    the k^2 eigenvalues lambda_i of P, and Weyl's inequality (the sum of
    |eigenvalues| is at most the nuclear norm) gives
    sum_i |lambda_i^2 - lambda_i| <= c.  Each lambda_i lies within
    2 |lambda_i^2 - lambda_i| of 0 or 1, so tr P is within 2 c < 0.44 of the
    number N of lambda_i nearer 1, and rounding in the sum adds under
    (k + n) k^2 2^-51 < 1e-4.  So round(<chi, chi>) = N, which is
    sum_i m_i^2 for exact images.  Above MAX_EIG_DIM, the largest degree
    ``fourier`` accepts, this is not proved.
    """

    def __init__(self, group: FiniteGroup, images: np.ndarray):
        images = np.asarray(images)
        if np.iscomplexobj(images) and not images.imag.any():
            images = images.real
        images = np.ascontiguousarray(
            images, dtype=np.complex128 if np.iscomplexobj(images) else np.float64)
        _image_stack(images, group)
        if not np.isfinite(images).all():
            raise ValidationError("images must have finite entries")
        n, k, tol = group.order, images.shape[1], VALIDATION_TOL
        eye = np.eye(k)
        if np.abs(images[0] - eye).max() > tol:
            raise ValidationError("pi(identity) is not the identity matrix")
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries: not unitary
            gram = images.conj().transpose(0, 2, 1) @ images
        bad = np.flatnonzero(~(np.abs(gram - eye).max(axis=(1, 2)) <= tol))
        if bad.size:
            raise ValidationError(f"pi({group.label(bad[0])}) is not unitary")

        def deviation(g: Element) -> np.ndarray:  # max |pi(g)pi(h) - pi(gh)| per h
            return np.abs(images[g] @ images - images[group.table[g]]).max(axis=(1, 2))

        rho = 0.0 if np.array_equal(images, images.round()) else (k + 2) * 2.0 ** -52
        if not (group.generators and k * n * tol <= 1 and all(
                deviation(s).max() <= tol / (4 * k * n) - rho for s in group.generators)):
            for g in group.elements():
                bad = np.flatnonzero(deviation(g) > tol)
                if bad.size:
                    raise ValidationError(
                        f"pi is not a homomorphism at ({group.label(g)}, "
                        f"{group.label(bad[0])})")
        self.group = group
        self.degree = k
        self.images = images
        chi = np.trace(images, axis1=1, axis2=2)
        self.irreducible = round(np.vdot(chi, chi).real / n) == 1

    def __repr__(self) -> str:
        return (f"UnitaryRepresentation({self.group.name}, degree={self.degree}, "
                f"{'irreducible' if self.irreducible else 'reducible'})")


def _image_stack(images: np.ndarray, group: FiniteGroup) -> np.ndarray:
    """``images`` if it is an (order, k, k) array with k >= 1."""
    if images.ndim != 3 or images.shape[0] != group.order \
            or images.shape[1] != images.shape[2] or images.shape[1] == 0:
        raise ValidationError("images must be an (order, k, k) array of matrices")
    return images


def _images(A: CGMatrix, rep: UnitaryRepresentation | np.ndarray) -> np.ndarray:
    """The images ``rep`` gives A, after the refusals that come before any
    work on them: another group, a malformed image array, or a represented
    side above ``MAX_EIG_DIM``."""
    if isinstance(rep, UnitaryRepresentation):
        if A.group != rep.group:
            raise ValidationError("representation defined on a different group")
        images = rep.images
    else:
        images = _image_stack(np.asarray(rep), A.group)
    _require_side(A.rows, A.cols, images.shape[1])
    return images


def _require_side(rows: int, cols: int, k: int) -> None:
    """Refuse a represented (rows k) x (cols k) matrix with a side above
    ``MAX_EIG_DIM``."""
    if max(rows, cols) * k > MAX_EIG_DIM:
        raise InputError(f"represented matrix of size {rows * k} x {cols * k} "
                         f"exceeds cap {MAX_EIG_DIM}")


def fourier(A: CGMatrix, rep: UnitaryRepresentation | np.ndarray) -> np.ndarray:
    """Blockwise Fourier transform: entry f -> sum_x f_x pi(x).

    ``rep`` is a representation of A's group or an (order, k, k) array of
    images with k >= 1, such as a block from :func:`invariant_blocks`.  The
    result is the (rows k) x (cols k) block matrix, one k x k block per
    entry of A; every term c*x of every stored entry is scattered into its
    block in one pass.  It is real when the images and the coefficients
    are, complex otherwise.  Refused, before anything is allocated, when a
    side of the result would exceed ``MAX_EIG_DIM``.
    """
    images = _images(A, rep)
    k = images.shape[1]
    where = np.array([(i, j, g) for (i, j), entry in A.support.items()
                      for g in entry.coeffs], dtype=np.intp).reshape(-1, 3)
    coeffs = np.array([c for entry in A.support.values()
                       for c in entry.coeffs.values()], dtype=np.complex128)
    if not np.iscomplexobj(images) and not coeffs.imag.any():
        coeffs = coeffs.real
    blocks = coeffs[:, None, None] * images[where[:, 2]]
    out = np.zeros((A.rows, k, A.cols, k), dtype=blocks.dtype)
    np.add.at(out, (where[:, 0], slice(None), where[:, 1]), blocks)
    return out.reshape(A.rows * k, A.cols * k)


def invariant_blocks(rep: UnitaryRepresentation) -> tuple[np.ndarray, ...]:
    """The images of ``rep`` on certified invariant subspaces U_i, one
    (order, d_i, d_i) array B_i(g) = U_i* pi(g) U_i per block, sum d_i = k.
    ``(rep.images,)``, with no change of basis, when rep is irreducible or no
    split is certified.

    Finding the blocks: for a fixed-seed x (complex when the images are),
    C = sum_g pi(g) x (pi(g) x)* commutes with every pi(h), so each
    eigenspace of C is invariant.  ``eigh(C)`` gives Q = [U_1 ... U_r], its
    columns cut where consecutive eigenvalues differ by more than
    k 2^-52 ||C|| / VALIDATION_TOL.  eigh's backward error is about
    k 2^-52 ||C||, and it turns an eigenspace by about that over its gap, so
    a cut gap leaks little; eigenspaces closer than that stay one block.

    Certifying them: the split is kept when 2 l + 3 e + 5 k rho is at most
    VALIDATION_TOL, where rho = (k + 2) 2^-52 as in the constructor, l is the
    largest computed ||pi(g) Q - Q B(g)||_F over g, with B(g) the block
    diagonal of the B_i(g), and e = ||Q* Q - I||_F.  Then for every CG matrix
    A, with s the largest coefficient mass sum_v sum_x |A_uv(x)| of a row or
    a column, the sorted union of the eigenvalues of the Hermitian parts of
    the fourier(A, B_i) is within VALIDATION_TOL s, term by term, of the
    sorted eigenvalues of the Hermitian part H of M = fourier(A, rep).

    Proof.  Rounding moves each entry of the two residuals by at most rho,
    so the exact ones have norms at most l' = l + k rho and e' = e + k rho.
    Let W = I (x) Q, and N the block matrix of the sum_x A_uv(x) B(x), a
    permutation of the direct sum of the fourier(A, B_i).  R = MW - WN has
    blocks sum_x A_uv(x) (pi(x) Q - Q B(x)), so ||R|| <= l' s (a block
    matrix's norm is at most the geometric mean of its largest block row
    and column sums of norms).  Write Q = V P with V unitary and
    P = (Q* Q)^(1/2), so ||P - I|| <= e'; with Z = I (x) V and P' = I (x) P,
    Z* M Z - N = P' N P'^-1 - N + Z* R P'^-1, of norm at most
    (2 e' ||N|| + l' s) / (1 - e').  The constructor's unitarity check gives
    ||B(x)|| <= ||Q||^2 ||pi(x)|| < 1.01, so ||N|| < 1.01 s and the norm is
    under (2 l' + 3 e') s <= VALIDATION_TOL s.  Hermitian parts do not raise
    it, Z* H Z has the eigenvalues of H, and by Weyl's inequality no sorted
    eigenvalue moves by more than that norm.  On both sides alike come the
    rounding of ``fourier`` and ``eigvalsh``, and eigvalsh reading one
    triangle, within the deviation :func:`hermitian_spectrum` checks.
    """
    images, k = rep.images, rep.degree
    if rep.irreducible:
        return (images,)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(k)
    if np.iscomplexobj(images):
        x = x + 1j * rng.standard_normal(k)
    rows = images.reshape(-1, k)  # the rows of every pi(g), in one matrix
    orbit = (rows @ x).reshape(-1, k)  # row g is pi(g) x
    w, Q = np.linalg.eigh(orbit.T @ orbit.conj())
    cuts = list(np.flatnonzero(np.diff(w) > k * 2.0 ** -52 * w[-1] / VALIDATION_TOL) + 1)
    if not cuts:
        return (images,)
    moved = (rows @ Q).reshape(images.shape)  # pi(g) Q
    blocks, leak = [], np.zeros(len(images))
    for a, b in zip([0] + cuts, cuts + [k]):
        U, moved_U = Q[:, a:b], moved[:, :, a:b]
        block = U.conj().T @ moved_U
        leak += (np.abs(moved_U - U @ block) ** 2).sum(axis=(1, 2))
        blocks.append(block)
    e = np.linalg.norm(Q.conj().T @ Q - np.eye(k))
    rho = (k + 2) * 2.0 ** -52
    if 2 * np.sqrt(leak.max()) + 3 * e + 5 * k * rho > VALIDATION_TOL:
        return (images,)
    return tuple(blocks)


def multiplicity_groups(eigenvalues: tuple[float, ...]) -> list[int]:
    """Group id per ascending eigenvalue; consecutive values within
    ``MULTIPLICITY_TOL`` share one."""
    ids = []
    current = 0
    for i, lam in enumerate(eigenvalues):
        if i > 0 and lam - eigenvalues[i - 1] > MULTIPLICITY_TOL:
            current += 1
        ids.append(current)
    return ids


def hermitian_spectrum(M: np.ndarray) -> tuple[float, ...]:
    """Real eigenvalues of a finite square array that is Hermitian within
    ``VALIDATION_TOL``, such as a :func:`fourier` block matrix, ascending,
    with multiplicity."""
    data = np.asarray(M)
    if data.ndim != 2 or data.shape[0] != data.shape[1]:
        raise ValidationError("spectrum requires a square matrix")
    if data.size == 0:
        return ()
    if not np.isfinite(data).all():
        raise ValidationError("matrix must have finite entries")
    # A difference of finite entries past the float range is inf, and refused.
    with np.errstate(over="ignore"):
        deviation = np.abs(data - data.conj().T).max()
    if deviation > VALIDATION_TOL:
        raise ValidationError("matrix is not Hermitian within tolerance")
    return tuple(np.linalg.eigvalsh(data).tolist())


def represented_spectrum(A: CGMatrix, rep: UnitaryRepresentation) -> tuple[float, ...]:
    """The ascending eigenvalues of fourier(A, rep), solved block by block.

    The refusals of :func:`fourier` come first, before any block is found.
    Each block of :func:`invariant_blocks` is then transformed and solved on
    its own, and the union is sorted once: sides rows * d_i instead of
    rows * k, within VALIDATION_TOL times the coefficient mass of A of the
    dense solve.  An irreducible rep, or one with no certified split, is the
    one block rep.images, whose solve is the dense one.
    """
    _images(A, rep)
    return tuple(sorted(lam for block in invariant_blocks(rep)
                        for lam in hermitian_spectrum(fourier(A, block))))


# -- builtin representations ------------------------------------------------

def trivial_representation(group: FiniteGroup) -> UnitaryRepresentation:
    images = np.ones((group.order, 1, 1))
    return UnitaryRepresentation(group, images)


def regular_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """Permutation matrices of left translation; faithful and unitary.

    Refused above ``REGULAR_MAX_ORDER``: the images take order^3 entries.
    """
    n = group.order
    if n > REGULAR_MAX_ORDER:
        raise InputError(f"regular representation of order {n} exceeds "
                         f"cap {REGULAR_MAX_ORDER}")
    images = np.zeros((n, n, n))
    g = np.arange(n)
    images[g[:, None], group.table, g[None, :]] = 1
    return UnitaryRepresentation(group, images)


def root_of_unity_representation(group: FiniteGroup,
                                 power: int = 1) -> UnitaryRepresentation:
    """Degree-1 character of a cyclic group: generator -> e^(2 pi i power / n).

    Requires the group to be cyclic with the table of Z_n (which covers the
    cyclic and t4 builders).  Only power mod n matters, so it is reduced
    first: any integer power is exact.  So is each exponent e = a * power
    mod n, so every image is one rounding of exp, with no drift from
    repeated powers; at quarter turns, 4 e = 0 mod n, it is 1, i, -1 or -i
    exactly.
    """
    n = group.order
    a = np.arange(n)
    if not (group.table == (a[:, None] + a) % n).all():
        raise InputError(
            f"group {group.name} does not carry the standard cyclic table")
    e = (power % n) * a % n
    images = np.exp(2j * np.pi * e / n)
    quarter = 4 * e % n == 0
    images[quarter] = np.array([1, 1j, -1, -1j])[4 * e[quarter] // n]
    return UnitaryRepresentation(group, images[:, None, None])


def sign_character(group: FiniteGroup) -> UnitaryRepresentation:
    """-1 off the least index-2 subgroup, as a sorted index tuple: the parity
    on even Z_n and T4, the reflections of D_n, and on A x B the character of A
    if A has one (so Z2xZ2 takes the first factor).  Every sign choice c on the
    generators S spreads along one breadth-first tree, e(x) = <c, parity[x]>,
    and is kept if e(xs) = e(x) + e(s) for all x and s in S, a proof by
    induction on length.  e is linear in c, so that holds iff <c, r> is even
    for each distinct relation vector r = parity[xs] ^ parity[x] ^ parity[s]."""
    T, S = group.table, list(group.generators)
    parity, queue, steps = [0] + [None] * (group.order - 1), [0], T[:, S].tolist()
    for x in queue:  # bit j of parity[x]: odd count of s_j on the tree path to x
        for j, y in enumerate(steps[x]):
            if parity[y] is None:
                parity[y] = parity[x] ^ 1 << j
                queue.append(y)
    parity = np.array(parity)
    relations = np.zeros(2 ** len(S), dtype=bool)  # the values r takes
    relations[parity[T[:, S]] ^ parity[:, None] ^ parity[S]] = True
    bits = (np.arange(2 ** len(S))[:, None] >> np.arange(len(S))) % 2
    e = bits @ bits[parity].T % 2 == 1  # e[c, x]: x is -1 under choice c
    kept = e[(bits @ bits[relations].T % 2 == 0).all(1) & e.any(1)]
    if not kept.size:
        raise InputError(f"group {group.name} has no sign character")
    values = kept[np.lexsort(kept.T[::-1])[0]]
    return UnitaryRepresentation(group, 1 - 2.0 * values[:, None, None])


_Q8_2DIM = {
    "1": np.eye(2),
    "i": np.array([[0, -1], [1, 0]], dtype=np.complex128),
    "j": np.array([[0, 1j], [1j, 0]]),
    "k": np.array([[-1j, 0], [0, 1j]]),
}


def q8_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """The faithful 2-dimensional representation of the quaternion group."""
    if group != quaternion8():
        raise InputError("q8_2dim requires the builtin quaternion8 group")
    images = np.zeros((8, 2, 2), dtype=np.complex128)
    for b, label in enumerate(("1", "i", "j", "k")):
        images[b] = _Q8_2DIM[label]
        images[4 + b] = -_Q8_2DIM[label]
    return UnitaryRepresentation(group, images)


_BUILTINS = {
    "trivial": trivial_representation,
    "regular": regular_representation,
    "root_of_unity": root_of_unity_representation,
    "sign_character": sign_character,
    "q8_2dim": q8_representation,
}


# -- serialization ----------------------------------------------------------

def _parse_complex_matrix(rows, degree: int) -> np.ndarray:
    """One image: a degree x degree list of [re, im] pairs of JSON numbers."""
    pairs = np.array(rows, dtype=object)
    if pairs.shape != (degree, degree, 2):
        raise InputError("representation image has wrong shape")
    if {type(x) for x in pairs.flat} <= {int, float}:
        try:
            return pairs.astype(np.float64).view(np.complex128)[..., 0]
        except OverflowError:  # an integer beyond the float range
            pass
    raise InputError("complex entries must be [re, im] pairs of numbers")


def representation_from_dict(data: dict, group: FiniteGroup) -> UnitaryRepresentation:
    """Parse ``{"degree": k, "images": {label: [[[re, im], ...], ...]}}``.

    A ``"builtin"`` key selects a named construction instead of explicit
    images.  An optional ``"irreducible"`` (true or false) sets nothing: it is
    a claim, refused unless it equals the value decided from <chi, chi>.
    """
    what = "representation description"
    require_fields(data, what)
    if "irreducible" in data:
        require_type(data["irreducible"], bool, "representation field 'irreducible'")
    if "builtin" in data:
        which = require_type(data["builtin"], str, "representation field 'builtin'")
        kwargs = {}
        if "power" in data:
            if which != "root_of_unity":
                raise InputError("only root_of_unity takes a 'power'")
            kwargs["power"] = require_type(data["power"], int,
                                           "representation field 'power'")
        if which not in _BUILTINS:
            raise InputError(f"unknown builtin representation {which!r}")
        rep = _BUILTINS[which](group, **kwargs)
    else:
        degree, image_map = require_fields(data, what, "degree", "images")
        degree = require_type(degree, int, "representation field 'degree'")
        require_fields(image_map, "representation field 'images'")
        parsed = {group.element(label): _parse_complex_matrix(rows, degree)
                  for label, rows in image_map.items()}
        if len(parsed) != group.order:
            raise InputError("representation must assign a matrix to every element")
        rep = UnitaryRepresentation(group, np.array([parsed[g] for g in group.elements()]))
    if data.get("irreducible", rep.irreducible) != rep.irreducible:
        decided = "irreducible" if rep.irreducible else "reducible"
        raise InputError("representation field 'irreducible' is wrong: "
                         f"<chi, chi> decides the images are {decided}")
    return rep


def representation_to_dict(rep: UnitaryRepresentation) -> dict:
    images = {}
    for g in rep.group.elements():
        mat = rep.images[g]
        images[rep.group.label(g)] = [
            [[float(mat[i, j].real), float(mat[i, j].imag)]
             for j in range(rep.degree)]
            for i in range(rep.degree)]
    return {"degree": rep.degree, "irreducible": rep.irreducible, "images": images}
