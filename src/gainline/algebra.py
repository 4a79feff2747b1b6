"""The group algebra CG and rectangular matrices over it.

Coefficients are Python complex numbers; everything exercised by the exact
structural identities stays within small-integer arithmetic, which is exact
in double precision.

A :class:`CGMatrix` stores only its nonzero entries, keyed by (row, column).
The matrices built here from graphs (adjacency, s-Laplacian, phases) have
O(n + m) nonzero entries among n^2 or n*m, so construction, products, sums
and the star involution walk the support and never the full grid.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import ValidationError
from .group import Element, FiniteGroup


class AlgebraElement:
    """A finite linear combination of group elements.

    ``coeffs`` maps element index -> complex coefficient; exact zeros are
    never stored.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: dict[Element, complex]):
        self.group = group
        self.coeffs = {g: complex(c) for g, c in coeffs.items() if c != 0}

    @classmethod
    def unit(cls, group: FiniteGroup, g: Element) -> "AlgebraElement":
        """The pure group element g, embedded with coefficient 1."""
        if not 0 <= g < group.order:
            raise ValidationError(f"element index out of range: {g}")
        return cls(group, {g: 1})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.group != other.group:
            raise ValidationError("algebra elements belong to different groups")
        coeffs = dict(self.coeffs)
        for g, c in other.coeffs.items():
            coeffs[g] = coeffs.get(g, 0) + c
        return AlgebraElement(self.group, coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Convolution product, the linear extension of the group product."""
        if self.group != other.group:
            raise ValidationError("algebra elements belong to different groups")
        mult = self.group.mult
        coeffs: dict[Element, complex] = {}
        for x, fx in self.coeffs.items():
            row = mult[x]
            for y, hy in other.coeffs.items():
                g = row[y]
                coeffs[g] = coeffs.get(g, 0) + fx * hy
        return AlgebraElement(self.group, coeffs)

    def star(self) -> "AlgebraElement":
        """Conjugate the coefficients and invert the support."""
        inv = self.group.inv
        return AlgebraElement(
            self.group, {inv[g]: c.conjugate() for g, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.group == other.group
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for g in sorted(self.coeffs):
            c = self.coeffs[g]
            coeff = "" if c == 1 else f"({c})"
            terms.append(f"{coeff}{self.group.label(g)}")
        return " + ".join(terms)


class CGMatrix:
    """A rectangular matrix with entries in the group algebra CG.

    Only the nonzero entries are stored: ``support`` maps (i, j) to a nonzero
    :class:`AlgebraElement`.  The constructor takes such a mapping, in which
    zero entries are dropped, and ``shape=(rows, cols)``.
    """

    __slots__ = ("group", "rows", "cols", "support")

    def __init__(self, group: FiniteGroup,
                 entries: Mapping[tuple[int, int], AlgebraElement],
                 shape: tuple[int, int]):
        rows, cols = shape
        if rows < 1 or cols < 0:
            raise ValidationError("matrix must have at least one row")
        support = {}
        for (i, j), a in entries.items():
            # Entries nearly always share the matrix's group object, which is
            # settled by identity; only another object pays for equality.
            if a.group is not group and a.group != group:
                raise ValidationError("matrix entry from a different group")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValidationError(
                    f"entry ({i}, {j}) outside a {rows}x{cols} matrix")
            if a.coeffs:
                support[i, j] = a
        self.group = group
        self.rows = rows
        self.cols = cols
        self.support = support

    @property
    def entries(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        """The dense grid of entries, zeros included; built on each access."""
        zero = AlgebraElement(self.group, {})
        get = self.support.get
        return tuple(tuple(get((i, j), zero) for j in range(self.cols))
                     for i in range(self.rows))

    def __getitem__(self, key: tuple[int, int]) -> AlgebraElement:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside a {self.rows}x{self.cols} matrix")
        return self.support.get((i, j)) or AlgebraElement(self.group, {})

    def __matmul__(self, other: "CGMatrix") -> "CGMatrix":
        if self.group != other.group:
            raise ValidationError("matrix product across different groups")
        if self.cols != other.rows:
            raise ValidationError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row: dict[int, list[tuple[int, AlgebraElement]]] = {}
        for (l, j), b in other.support.items():
            by_row.setdefault(l, []).append((j, b))
        out: dict[tuple[int, int], AlgebraElement] = {}
        for (i, l), a in self.support.items():
            for j, b in by_row.get(l, ()):
                term = a * b
                out[i, j] = out[i, j] + term if (i, j) in out else term
        return CGMatrix(self.group, out, (self.rows, other.cols))

    def __add__(self, other: "CGMatrix") -> "CGMatrix":
        if self.group != other.group:
            raise ValidationError("matrix sum across different groups")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix sum with mismatched shapes")
        out = dict(self.support)
        for key, b in other.support.items():
            out[key] = out[key] + b if key in out else b
        return CGMatrix(self.group, out, (self.rows, self.cols))

    def star(self) -> "CGMatrix":
        """Transpose combined with the entrywise star involution."""
        return CGMatrix(self.group, {(j, i): a.star()
                                     for (i, j), a in self.support.items()},
                        (self.cols, self.rows))

    def scalar_mul(self, a: AlgebraElement, side: str = "left") -> "CGMatrix":
        """Entrywise multiplication by a fixed algebra element."""
        if a.group != self.group:
            raise ValidationError("scalar from a different group")
        if side == "left":
            out = {key: a * x for key, x in self.support.items()}
        elif side == "right":
            out = {key: x * a for key, x in self.support.items()}
        else:
            raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
        return CGMatrix(self.group, out, (self.rows, self.cols))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CGMatrix) and self.group == other.group
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.support == other.support)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.support.items())))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.entries)
        return f"CGMatrix[{body}]"


def group_diagonal(group: FiniteGroup, diag: Iterable[Element]) -> CGMatrix:
    """Embed a vector of group elements as a diagonal matrix over CG."""
    elems = list(diag)
    n = len(elems)
    return CGMatrix(group, {(i, i): AlgebraElement.unit(group, g)
                            for i, g in enumerate(elems)}, (n, n))
