"""Unitary representations, the matrix Fourier transform and spectra."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import CGMatrix
from .errors import InputError, ValidationError
from .group import Element, FiniteGroup, same_group

#: Homomorphism / unitarity validation tolerance.
VALIDATION_TOL = 1e-10
#: Matrix entries per block of the homomorphism check.
_BLOCK_ENTRIES = 16384
#: Largest group order with a regular representation.
REGULAR_MAX_ORDER = 128


class UnitaryRepresentation:
    """A per-element table of unitary matrices g -> pi(g).

    Validated at construction: pi(1) = I, pi(g)pi(h) = pi(gh) and
    pi(g)* pi(g) = I, all within ``tol``.  Irreducibility is declared by the
    caller, never verified.  ``images`` is float64 when every imaginary part
    is exactly zero (regular, sign and trivial representations), so that
    validation, Fourier transforms and eigensolves run in real arithmetic,
    and complex128 otherwise.
    """

    def __init__(self, group: FiniteGroup, images: np.ndarray,
                 irreducible: bool = False, tol: float = VALIDATION_TOL):
        images = np.asarray(images)
        if np.iscomplexobj(images) and not images.imag.any():
            images = images.real
        images = np.ascontiguousarray(
            images, dtype=np.complex128 if np.iscomplexobj(images) else np.float64)
        if images.ndim != 3 or images.shape[0] != group.order \
                or images.shape[1] != images.shape[2]:
            raise ValidationError(
                "images must be an (order, k, k) array of matrices")
        if not np.isfinite(images).all():
            raise ValidationError("images must have finite entries")
        k = images.shape[1]
        eye = np.eye(k)
        if np.abs(images[0] - eye).max() > tol:
            raise ValidationError("pi(identity) is not the identity matrix")
        gram = images.conj().transpose(0, 2, 1) @ images
        bad = np.flatnonzero(np.abs(gram - eye).max(axis=(1, 2)) > tol)
        if bad.size:
            raise ValidationError(f"pi({group.label(bad[0])}) is not unitary")
        # pi(g) pi(h) for a block of h per product: small degrees take every h
        # at once, large ones keep the block in cache.
        block = max(1, _BLOCK_ENTRIES // (k * k))
        for g in group.elements():
            row = group.table[g]
            for h0 in range(0, group.order, block):
                products = images[g] @ images[h0:h0 + block]
                deviation = np.abs(products - images[row[h0:h0 + block]]).max(axis=(1, 2))
                bad = np.flatnonzero(deviation > tol)
                if bad.size:
                    raise ValidationError(
                        f"pi is not a homomorphism at ({group.label(g)}, "
                        f"{group.label(h0 + bad[0])})")
        self.group = group
        self.degree = k
        self.images = images
        self.irreducible = bool(irreducible)

    def __call__(self, g: Element) -> np.ndarray:
        return self.images[g]

    def __repr__(self) -> str:
        return (f"UnitaryRepresentation({self.group.name}, degree={self.degree}, "
                f"irreducible={self.irreducible})")


@dataclass(frozen=True)
class RepresentedMatrix:
    """A complex block matrix, one degree-sized block per CG entry."""

    data: np.ndarray
    block_rows: int
    block_cols: int
    degree: int


def fourier(A: CGMatrix, rep: UnitaryRepresentation) -> RepresentedMatrix:
    """Blockwise Fourier transform: entry f -> sum_x f_x pi(x).

    Every term c*x of every stored entry is scattered into its block in one
    pass.  The result is real when the images and the coefficients are.
    """
    if not same_group(A.group, rep.group):
        raise ValidationError("representation defined on a different group")
    k = rep.degree
    where = np.array([(i, j, g) for (i, j), entry in A.support.items()
                      for g in entry.coeffs], dtype=np.intp).reshape(-1, 3)
    coeffs = np.array([c for entry in A.support.values()
                       for c in entry.coeffs.values()], dtype=np.complex128)
    if not np.iscomplexobj(rep.images) and not coeffs.imag.any():
        coeffs = coeffs.real
    blocks = coeffs[:, None, None] * rep.images[where[:, 2]]
    out = np.zeros((A.rows, k, A.cols, k), dtype=blocks.dtype)
    np.add.at(out, (where[:, 0], slice(None), where[:, 1]), blocks)
    return RepresentedMatrix(out.reshape(A.rows * k, A.cols * k),
                             A.rows, A.cols, k)


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalues, with multiplicity."""

    eigenvalues: tuple[float, ...]

    def multiplicity_groups(self, tol: float = 1e-8) -> list[int]:
        """Group id per eigenvalue; consecutive values within tol share one."""
        ids = []
        current = 0
        for i, lam in enumerate(self.eigenvalues):
            if i > 0 and lam - self.eigenvalues[i - 1] > tol:
                current += 1
            ids.append(current)
        return ids


def hermitian_spectrum(M: RepresentedMatrix | np.ndarray,
                       tol: float = VALIDATION_TOL) -> Spectrum:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    data = M.data if isinstance(M, RepresentedMatrix) else np.asarray(M)
    if data.shape[0] != data.shape[1]:
        raise ValidationError("spectrum requires a square matrix")
    if data.size and np.abs(data - data.conj().T).max() > tol:
        raise ValidationError("matrix is not Hermitian within tolerance")
    if data.size == 0:
        return Spectrum(())
    values = np.linalg.eigvalsh(data)
    return Spectrum(tuple(float(v) for v in values))


# -- builtin representations ------------------------------------------------

def trivial_representation(group: FiniteGroup) -> UnitaryRepresentation:
    images = np.ones((group.order, 1, 1))
    return UnitaryRepresentation(group, images, irreducible=True)


def regular_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """Permutation matrices of left translation; faithful and unitary.

    Refused above ``REGULAR_MAX_ORDER``: the images take order^3 entries and
    their validation order^2 products of order x order matrices.
    """
    n = group.order
    if n > REGULAR_MAX_ORDER:
        raise InputError(f"regular representation of order {n} exceeds "
                         f"cap {REGULAR_MAX_ORDER}")
    images = np.zeros((n, n, n))
    g = np.arange(n)
    images[g[:, None], group.table, g[None, :]] = 1
    return UnitaryRepresentation(group, images, irreducible=(n == 1))


def root_of_unity_representation(group: FiniteGroup,
                                 power: int = 1) -> UnitaryRepresentation:
    """Degree-1 character of a cyclic group: generator -> e^(2 pi i power / n).

    Requires the group to be cyclic with the table of Z_n (which covers the
    cyclic and t4 builders).
    """
    n = group.order
    a = np.arange(n)
    if not (group.table == (a[:, None] + a) % n).all():
        raise InputError(
            f"group {group.name} does not carry the standard cyclic table")
    omega = np.exp(2j * np.pi * power / n)
    images = np.array([[[omega ** a]] for a in range(n)])
    return UnitaryRepresentation(group, images, irreducible=True)


def sign_character(group: FiniteGroup) -> UnitaryRepresentation:
    """An order-2 character: -1 on the non-trivial coset of an index-2 subgroup.

    Supported for the sign group, even cyclic groups (parity of the
    exponent) and dihedral groups (reflections -> -1).
    """
    n = group.order
    values: list[int] | None = None
    if group.name == "sign":
        values = [1, -1]
    elif group.name.startswith("Z") and n % 2 == 0:
        values = [1 if a % 2 == 0 else -1 for a in range(n)]
    elif group.name == "T4":
        values = [1, -1, 1, -1]
    elif group.name.startswith("D") and 2 * (n // 2) == n:
        half = n // 2
        values = [1] * half + [-1] * half
    if values is None:
        raise InputError(f"no builtin sign character for group {group.name}")
    images = np.array([[[float(v)]] for v in values])
    return UnitaryRepresentation(group, images, irreducible=True)


_Q8_2DIM = {
    "1": np.eye(2),
    "i": np.array([[0, -1], [1, 0]], dtype=np.complex128),
    "j": np.array([[0, 1j], [1j, 0]]),
    "k": np.array([[-1j, 0], [0, 1j]]),
}


def q8_representation(group: FiniteGroup) -> UnitaryRepresentation:
    """The faithful 2-dimensional representation of the quaternion group."""
    if group.labels != ("1", "i", "j", "k", "-1", "-i", "-j", "-k"):
        raise InputError("q8_2dim requires the builtin quaternion8 group")
    images = np.zeros((8, 2, 2), dtype=np.complex128)
    for b, label in enumerate(("1", "i", "j", "k")):
        images[b] = _Q8_2DIM[label]
        images[4 + b] = -_Q8_2DIM[label]
    return UnitaryRepresentation(group, images, irreducible=True)


def builtin_representation(group: FiniteGroup, which: str,
                           **kwargs) -> UnitaryRepresentation:
    builders = {
        "trivial": trivial_representation,
        "regular": regular_representation,
        "root_of_unity": root_of_unity_representation,
        "sign_character": sign_character,
        "q8_2dim": q8_representation,
    }
    try:
        builder = builders[which]
    except (KeyError, TypeError):
        raise InputError(f"unknown builtin representation {which!r}")
    return builder(group, **kwargs)


# -- serialization ----------------------------------------------------------

def _parse_complex_matrix(rows, degree: int) -> np.ndarray:
    try:
        pairs = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InputError("complex entries must be [re, im] pairs of numbers")
    if pairs.shape != (degree, degree, 2):
        raise InputError("representation image has wrong shape")
    return pairs[..., 0] + 1j * pairs[..., 1]


def representation_from_dict(data: dict, group: FiniteGroup) -> UnitaryRepresentation:
    """Parse ``{"degree": k, "images": {label: [[[re, im], ...], ...]}}``.

    A ``"builtin"`` key selects a named construction instead of explicit
    images.
    """
    if not isinstance(data, dict):
        raise InputError("representation description must be a JSON object")
    if "builtin" in data:
        kwargs = {}
        if "power" in data:
            if data["builtin"] != "root_of_unity":
                raise InputError("only root_of_unity takes a 'power'")
            kwargs["power"] = _integer_field(data, "power")
        return builtin_representation(group, data["builtin"], **kwargs)
    degree = _integer_field(data, "degree")
    image_map = data.get("images")
    if not isinstance(image_map, dict):
        raise InputError("representation 'images' must map element labels to matrices")
    parsed = {group.element(str(label)): _parse_complex_matrix(rows, degree)
              for label, rows in image_map.items()}
    if len(parsed) != group.order:
        raise InputError("representation must assign a matrix to every element")
    return UnitaryRepresentation(group, np.array([parsed[g] for g in group.elements()]),
                                 irreducible=bool(data.get("irreducible", False)))


def _integer_field(data: dict, key: str) -> int:
    try:
        return int(data[key])
    except KeyError:
        raise InputError(f"representation description needs '{key}' field")
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"representation field '{key}' must be an integer, "
                         f"got {data[key]!r}")


def representation_to_dict(rep: UnitaryRepresentation) -> dict:
    images = {}
    for g in rep.group.elements():
        mat = rep.images[g]
        images[rep.group.label(g)] = [
            [[float(mat[i, j].real), float(mat[i, j].imag)]
             for j in range(rep.degree)]
            for i in range(rep.degree)]
    return {"degree": rep.degree, "irreducible": rep.irreducible, "images": images}
