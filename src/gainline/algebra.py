"""The group algebra CG and rectangular matrices over it.

Coefficients are Python complex numbers; everything exercised by the exact
structural identities stays within small-integer arithmetic, which is exact
in double precision.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ValidationError
from .group import Element, FiniteGroup, same_group


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
    def zero(cls, group: FiniteGroup) -> "AlgebraElement":
        return cls(group, {})

    @classmethod
    def unit(cls, group: FiniteGroup, g: Element) -> "AlgebraElement":
        """The pure group element g, embedded with coefficient 1."""
        if not 0 <= g < group.order:
            raise ValidationError(f"element index out of range: {g}")
        return cls(group, {g: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def pure_element(self) -> Element | None:
        """The group element if this is g with coefficient 1, else None."""
        if len(self.coeffs) == 1:
            (g, c), = self.coeffs.items()
            if c == 1:
                return g
        return None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_group(other)
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
        self._same_group(other)
        mult = self.group.mult
        coeffs: dict[Element, complex] = {}
        for x, fx in self.coeffs.items():
            row = mult[x]
            for y, hy in other.coeffs.items():
                g = row[y]
                coeffs[g] = coeffs.get(g, 0) + fx * hy
        return AlgebraElement(self.group, coeffs)

    def scale(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: scalar * c for g, c in self.coeffs.items()})

    def star(self) -> "AlgebraElement":
        """Conjugate the coefficients and invert the support."""
        inv = self.group.inv
        return AlgebraElement(
            self.group, {inv[g]: c.conjugate() for g, c in self.coeffs.items()})

    def _same_group(self, other: "AlgebraElement") -> None:
        if not same_group(self.group, other.group):
            raise ValidationError("algebra elements belong to different groups")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement)
                and same_group(self.group, other.group)
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
    """A rectangular matrix with entries in the group algebra CG."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group: FiniteGroup,
                 entries: Sequence[Sequence[AlgebraElement]]):
        rows = len(entries)
        if rows == 0:
            raise ValidationError("matrix must have at least one row")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValidationError("matrix rows have inconsistent lengths")
        for row in entries:
            for a in row:
                if not same_group(a.group, group):
                    raise ValidationError("matrix entry from a different group")
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries = tuple(tuple(row) for row in entries)

    @classmethod
    def zeros(cls, group: FiniteGroup, rows: int, cols: int) -> "CGMatrix":
        zero = AlgebraElement.zero(group)
        return cls(group, [[zero] * cols for _ in range(rows)])

    @classmethod
    def identity_diagonal(cls, group: FiniteGroup, n: int) -> "CGMatrix":
        """diag(1_G, ..., 1_G)."""
        return group_diagonal(group, [group.identity] * n)

    def __getitem__(self, key: tuple[int, int]) -> AlgebraElement:
        i, j = key
        return self.entries[i][j]

    def __matmul__(self, other: "CGMatrix") -> "CGMatrix":
        if not same_group(self.group, other.group):
            raise ValidationError("matrix product across different groups")
        if self.cols != other.rows:
            raise ValidationError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = AlgebraElement.zero(self.group)
                for l in range(self.cols):
                    a = self.entries[i][l]
                    b = other.entries[l][j]
                    if a.coeffs and b.coeffs:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CGMatrix(self.group, out)

    def __add__(self, other: "CGMatrix") -> "CGMatrix":
        if not same_group(self.group, other.group):
            raise ValidationError("matrix sum across different groups")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError("matrix sum with mismatched shapes")
        return CGMatrix(self.group, [
            [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
            for i in range(self.rows)])

    def star(self) -> "CGMatrix":
        """Transpose combined with the entrywise star involution."""
        return CGMatrix(self.group, [
            [self.entries[i][j].star() for i in range(self.rows)]
            for j in range(self.cols)])

    def scalar_mul(self, a: AlgebraElement, side: str = "left") -> "CGMatrix":
        """Entrywise multiplication by a fixed algebra element."""
        if not same_group(a.group, self.group):
            raise ValidationError("scalar from a different group")
        if side == "left":
            return CGMatrix(self.group, [[a * x for x in row] for row in self.entries])
        if side == "right":
            return CGMatrix(self.group, [[x * a for x in row] for row in self.entries])
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")

    def scale(self, scalar: complex) -> "CGMatrix":
        return CGMatrix(self.group, [[x.scale(scalar) for x in row]
                                     for row in self.entries])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CGMatrix) and same_group(self.group, other.group)
                and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(x) for x in row) for row in self.entries)
        return f"CGMatrix[{body}]"


def group_diagonal(group: FiniteGroup, diag: Iterable[Element]) -> CGMatrix:
    """Embed a vector of group elements as a diagonal matrix over CG."""
    elems = list(diag)
    n = len(elems)
    zero = AlgebraElement.zero(group)
    entries = [[zero] * n for _ in range(n)]
    for i, g in enumerate(elems):
        entries[i][i] = AlgebraElement.unit(group, g)
    return CGMatrix(group, entries)
