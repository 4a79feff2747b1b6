"""The group algebra CG and rectangular matrices over it.

A :class:`CGMatrix` is its terms: read-only arrays ``i``, ``j`` (row and
column), ``g`` (group element) and ``c`` (np.complex128 coefficient), sorted
by (i, j, g) with no repeats and no zero c; entry (i, j) is the sum of c g
over its terms.  Products, sums and the star are array passes over the terms,
and small-integer coefficients stay exact.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .group import Element, FiniteGroup, _element_array


class AlgebraElement:
    """A finite linear combination of group elements: ``coeffs`` maps element
    index -> nonzero complex; sum, product and star are the 1 x 1 matrix's."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Mapping[Element, complex]):
        keys = _element_array(list(coeffs), (len(coeffs),), group.order,
                              "each term needs an integer element index",
                              "element index out of range: {x}")
        self.group = group
        self.coeffs = {g: c for g, c in zip(keys.tolist(), map(complex, coeffs.values())) if c}

    @classmethod
    def unit(cls, group: FiniteGroup, g: Element) -> "AlgebraElement":
        """The pure group element g, embedded with coefficient 1."""
        return cls(group, {g: 1})

    def _matrix(self) -> "CGMatrix":
        return CGMatrix(self.group, {(0, 0): self}, (1, 1))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return (self._matrix() + other._matrix())[0, 0]

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution product, the linear extension of the group product."""
        return (self._matrix() @ other._matrix())[0, 0]

    def star(self) -> "AlgebraElement":
        """Conjugate the coefficients and invert the support."""
        return self._matrix().star()[0, 0]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement) and self.group == other.group
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return " + ".join(("" if c == 1 else f"({c})") + self.group.label(g)
                          for g, c in sorted(self.coeffs.items())) or "0"


def _element(group: FiniteGroup, coeffs: dict[int, complex]) -> AlgebraElement:
    """An entry read from a matrix's terms, which need no check."""
    a = object.__new__(AlgebraElement)
    a.group, a.coeffs = group, coeffs
    return a


class CGMatrix:
    """A rectangular matrix with entries in the group algebra CG, built from
    a mapping from (i, j) to :class:`AlgebraElement` and ``shape=(rows, cols)``.
    ``support``, ``entries`` and ``A[i, j]`` are views built on each access."""

    __slots__ = ("group", "rows", "cols", "i", "j", "g", "c")

    def __init__(self, group: FiniteGroup, entries: Mapping[tuple[int, int], AlgebraElement],
                 shape: tuple[int, int]):
        rows, cols = shape
        if rows < 1 or cols < 0:
            raise ValidationError("matrix must have at least one row")
        if any(a.group != group for a in entries.values()):
            raise ValidationError("matrix entry from a different group")
        where = _element_array(list(entries), (len(entries), 2), shape,
                               "matrix positions must be pairs of integers",
                               "entry ({}, {}) outside a " f"{rows}x{cols} matrix")
        terms = [a.coeffs for a in entries.values()]
        self._set(group, shape, *where.repeat(list(map(len, terms)), axis=0).T,
                  np.array([g for a in terms for g in a], dtype=np.intp),
                  np.array([c for a in terms for c in a.values()], dtype=np.complex128))

    @classmethod
    def _from_terms(cls, group: FiniteGroup, shape: tuple[int, int], i, j, g, c) -> "CGMatrix":
        """The private builder, from terms (i, j, x, c) in ``shape`` and the
        group, in any order and with repeats, which are summed."""
        matrix = object.__new__(cls)
        matrix._set(group, shape, i, j, g, c)
        return matrix

    def _set(self, group, shape, i, j, g, c) -> None:
        # lexsort's last key is the primary one, so no packed key can overflow.
        order = np.lexsort((g, j, i))
        i, j, g, c = i[order], j[order], g[order], c[order]
        new = (i[1:] != i[:-1]) | (j[1:] != j[:-1]) | (g[1:] != g[:-1])
        if not new.all():  # sum the repeated terms
            start = np.flatnonzero(np.concatenate(([True], new)))
            i, j, g, c = i[start], j[start], g[start], np.add.reduceat(c, start)
        keep = c != 0
        # Adding 0.0 turns every -0.0 into 0.0, so equal matrices have equal bytes.
        self.i, self.j, self.g = i[keep], j[keep], g[keep]
        self.c = np.add(c[keep], 0.0, dtype=np.complex128)
        for a in self._terms():
            a.flags.writeable = False
        self.group, (self.rows, self.cols) = group, shape

    def _terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.i, self.j, self.g, self.c

    @property
    def support(self) -> dict[tuple[int, int], AlgebraElement]:
        """The nonzero entries by position, in a new dict on each access."""
        coeffs: dict[tuple[int, int], dict[int, complex]] = {}
        for i, j, g, c in zip(*(a.tolist() for a in self._terms())):
            coeffs.setdefault((i, j), {})[g] = c
        return {key: _element(self.group, a) for key, a in coeffs.items()}

    @property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        """The dense grid of entries, zeros included; built on each access."""
        grid = [[_element(self.group, {})] * self.cols for _ in range(self.rows)]
        for (i, j), a in self.support.items():
            grid[i][j] = a
        return tuple(map(tuple, grid))

    def __getitem__(self, key: tuple[int, int]) -> AlgebraElement:
        """Entry (i, j), found by binary search over the sorted terms."""
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        lo, hi = np.searchsorted(self.i, (i, i + 1))
        lo, hi = lo + np.searchsorted(self.j[lo:hi], (j, j + 1))
        return _element(self.group, dict(zip(self.g[lo:hi].tolist(), self.c[lo:hi].tolist())))

    def __matmul__(self, other: "CGMatrix") -> "CGMatrix":
        """Term (i, l, x, a) of self and term (l, j, y, b) of other, found by
        binary search over other's sorted rows, give the term (i, j, xy, ab)."""
        if self.group != other.group:
            raise ValidationError("matrix product across different groups")
        if self.cols != other.rows:
            raise ValidationError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        lo = np.searchsorted(other.i, self.j)
        counts = np.searchsorted(other.i, self.j, side="right") - lo
        left = np.repeat(np.arange(len(lo)), counts)
        # term t of self meets other's terms lo[t], ..., lo[t] + counts[t] - 1
        right = np.arange(len(left)) + (lo - np.cumsum(counts) + counts)[left]
        return CGMatrix._from_terms(
            self.group, (self.rows, other.cols), self.i[left], other.j[right],
            self.group.table[self.g[left], other.g[right]], self.c[left] * other.c[right])

    def __add__(self, other: "CGMatrix") -> "CGMatrix":
        if self.group != other.group:
            raise ValidationError("matrix sum across different groups")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix sum with mismatched shapes")
        return CGMatrix._from_terms(self.group, (self.rows, self.cols), *map(
            np.concatenate, zip(self._terms(), other._terms())))

    def star(self) -> "CGMatrix":
        """Transpose combined with the entrywise star involution."""
        return CGMatrix._from_terms(self.group, (self.cols, self.rows), self.j, self.i,
                                    self.group.inverse[self.g], self.c.conj())

    def scalar_mul(self, a: AlgebraElement, side: str = "left") -> "CGMatrix":
        """Entrywise multiplication by a fixed algebra element: the product
        with a on the diagonal, on the left or on the right."""
        if a.group != self.group:
            raise ValidationError("scalar from a different group")
        if side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
        n, used = (self.rows, self.i) if side == "left" else (self.cols, self.j)
        k, scalar = np.unique(used)[:, None], a._matrix()  # a at the rows or columns in use
        diagonal = CGMatrix._from_terms(self.group, (n, n), *(
            t.ravel() for t in np.broadcast_arrays(k, k, scalar.g, scalar.c)))
        return diagonal @ self if side == "left" else self @ diagonal

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CGMatrix) and self.group == other.group
                and (self.rows, self.cols) == (other.rows, other.cols)
                and all(map(np.array_equal, self._terms(), other._terms())))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, *(a.tobytes() for a in self._terms())))

    def __repr__(self) -> str:
        return f"CGMatrix[{'; '.join(', '.join(map(repr, row)) for row in self.entries)}]"


def group_diagonal(group: FiniteGroup, diag: Iterable[Element]) -> CGMatrix:
    """Embed a vector of group elements as a diagonal matrix over CG."""
    elems = list(diag)
    return CGMatrix(group, {(i, i): AlgebraElement.unit(group, g)
                            for i, g in enumerate(elems)}, (len(elems), len(elems)))
