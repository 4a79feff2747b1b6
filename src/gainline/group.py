"""Finite groups as explicit multiplication tables.

Elements are plain integer indices into the group's element list, with the
convention that index 0 is the identity.  All builders return validated
:class:`FiniteGroup` instances.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import InputError, ValidationError

Element = int

#: Artifact cap on the order of every group, builtin or custom.
MAX_ORDER = 512


class FiniteGroup:
    """A finite group given by an order x order multiplication table.

    ``mult[a][b]`` is the index of the product of elements ``a`` and ``b``;
    index 0 is always the identity.  Instances are immutable after
    construction and safe to share between threads.
    """

    def __init__(self, labels: Sequence[str], mult: Sequence[Sequence[int]],
                 name: str = "custom"):
        try:
            order = len(labels)
            if order == 0:
                raise ValidationError("group must have at least one element")
            _check_order(order)
            names = tuple(str(label) for label in labels)
            if len(set(labels)) != order or len(set(names)) != order:
                raise ValidationError("element labels must be unique")
            if len(mult) != order or any(len(row) != order for row in mult):
                raise ValidationError(
                    "multiplication table must be square of size order")
        except TypeError:
            raise ValidationError(
                "group labels must be a list of strings and the table a list of rows")

        try:
            table = tuple(tuple(int(x) for x in row) for row in mult)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError("multiplication table entries must be integers")
        T = np.array(table)
        T.flags.writeable = False
        full = np.arange(order)
        bad_rows = (np.sort(T, axis=1) != full).any(axis=1)
        bad_cols = (np.sort(T, axis=0) != full[:, None]).any(axis=0)
        bad = np.flatnonzero(bad_rows | bad_cols)
        if bad.size:
            kind = "row" if bad_rows[bad[0]] else "column"
            raise ValidationError(f"{kind} {bad[0]} of the table is not a permutation")
        if (T[0] != full).any() or (T[:, 0] != full).any():
            raise ValidationError("element 0 is not a two-sided identity")
        # Rows are permutations, so g h = 1 has exactly one solution h.
        inv = np.argmin(T, axis=1)
        bad = np.flatnonzero(T[inv, full] != 0)
        if bad.size:
            raise ValidationError(f"element {bad[0]} has no two-sided inverse")
        _check_associativity(T)

        self.name = name
        self.labels = names
        self.mult = table
        #: The table as a read-only (order, order) integer array.
        self.table = T
        self.inv = tuple(inv.tolist())
        self.order = order
        self._label_index = {label: i for i, label in enumerate(self.labels)}
        self._abelian = bool((T == T.T).all())

    # -- basic operations ---------------------------------------------------

    @property
    def identity(self) -> Element:
        return 0

    def elements(self) -> range:
        return range(self.order)

    def mul(self, g: Element, h: Element) -> Element:
        if not (0 <= g < self.order and 0 <= h < self.order):
            raise ValidationError(f"element index out of range: {g}, {h}")
        return self.mult[g][h]

    def invert(self, g: Element) -> Element:
        if not 0 <= g < self.order:
            raise ValidationError(f"element index out of range: {g}")
        return self.inv[g]

    def label(self, g: Element) -> str:
        return self.labels[g]

    def element(self, label: str) -> Element:
        try:
            return self._label_index[label]
        except KeyError:
            raise InputError(f"unknown element label {label!r} in group {self.name}")

    def is_abelian(self) -> bool:
        return self._abelian

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.labels == other.labels and self.mult == other.mult)

    def __hash__(self) -> int:
        return hash((self.labels, self.mult))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _check_associativity(T: np.ndarray) -> None:
    """Light's test: (x s) y = x (s y) for all x, y and each generator s.

    The elements a with (x a) y = x (a y) for all x, y are closed under the
    product, so checking a generating set proves associativity.
    """
    for s in _generators(T):
        bad = np.argwhere(T[T[:, s], :] != T[:, T[s, :]])
        if bad.size:
            x, y = bad[0]
            raise ValidationError(f"table is not associative at ({x}, {s}, {y})")


def _generators(T: np.ndarray) -> list[Element]:
    """A greedy generating set: each element not yet reached from the
    identity by right multiplication with the generators so far is added."""
    gens: list[Element] = []
    reached = np.zeros(len(T), dtype=bool)
    reached[0] = True
    for g in range(len(T)):
        if not reached[g]:
            gens.append(g)
            while not reached[T[np.ix_(reached, gens)]].all():
                reached[T[np.ix_(reached, gens)]] = True
    return gens


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValidationError(f"group order {order} exceeds cap {MAX_ORDER}")


def same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    """Value equality, decided by identity first: most operands share one
    group object, and comparing tables costs O(order^2)."""
    return a is b or a == b


def center(group: FiniteGroup) -> list[Element]:
    """All elements commuting with the whole group, in element order."""
    T = group.table
    return np.flatnonzero((T == T.T).all(axis=1)).tolist()


def central_weak_involutions(group: FiniteGroup) -> list[Element]:
    """Central elements s with s^2 = 1.  Always contains the identity."""
    square = group.table.diagonal()
    return [g for g in center(group) if square[g] == 0]


def is_central_weak_involution(group: FiniteGroup, s: Element) -> bool:
    if not 0 <= s < group.order:
        return False
    T = group.table
    return bool(T[s, s] == 0 and (T[s] == T[:, s]).all())


def require_central_weak_involution(group: FiniteGroup, s: Element,
                                    name: str) -> None:
    """Raise ValidationError, naming s by its label, unless it qualifies."""
    if not is_central_weak_involution(group, s):
        shown = group.label(s) if 0 <= s < group.order else f"index {s}"
        raise ValidationError(
            f"{name}={shown} is not a central weak involution of {group.name}")


# -- builders ---------------------------------------------------------------

def cyclic(n: int) -> FiniteGroup:
    """Z_n with additive labels "0".."n-1"."""
    if n < 1:
        raise InputError("cyclic group needs n >= 1")
    _check_order(n)
    labels = [str(a) for a in range(n)]
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(labels, mult, name=f"Z{n}")


def sign_group() -> FiniteGroup:
    """The order-2 group {1, -1}."""
    return FiniteGroup(["1", "-1"], [[0, 1], [1, 0]], name="sign")


def t4() -> FiniteGroup:
    """Fourth roots of unity {1, i, -1, -i} under multiplication."""
    labels = ["1", "i", "-1", "-i"]
    mult = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    return FiniteGroup(labels, mult, name="T4")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}."""
    if n < 1:
        raise InputError("dihedral group needs n >= 1")
    _check_order(2 * n)

    def idx(a: int, s: int) -> int:
        return s * n + a % n

    labels = [f"r{a}" for a in range(n)] + [f"s{a}" for a in range(n)]
    mult = [[0] * (2 * n) for _ in range(2 * n)]
    for a, s in itertools.product(range(n), range(2)):
        for b, t in itertools.product(range(n), range(2)):
            c = (a + b) % n if s == 0 else (a - b) % n
            mult[idx(a, s)][idx(b, t)] = idx(c, (s + t) % 2)
    return FiniteGroup(labels, mult, name=f"D{n}")


_Q8_BASIS_MULT = {
    # (b1, b2) -> (sign, basis) for basis order 1, i, j, k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion8() -> FiniteGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}."""
    labels = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]

    def idx(sign: int, basis: int) -> int:
        return sign * 4 + basis

    mult = [[0] * 8 for _ in range(8)]
    for s1, b1 in itertools.product(range(2), range(4)):
        for s2, b2 in itertools.product(range(2), range(4)):
            s, b = _Q8_BASIS_MULT[(b1, b2)]
            mult[idx(s1, b1)][idx(s2, b2)] = idx((s1 + s2 + s) % 2, b)
    return FiniteGroup(labels, mult, name="Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs, labeled "(x,y)"."""
    _check_order(a.order * b.order)
    pairs = list(itertools.product(range(a.order), range(b.order)))
    index = {p: i for i, p in enumerate(pairs)}
    labels = [f"({a.labels[x]},{b.labels[y]})" for x, y in pairs]
    mult = [[index[(a.mult[x1][x2], b.mult[y1][y2])] for x2, y2 in pairs]
            for x1, y1 in pairs]
    return FiniteGroup(labels, mult, name=f"{a.name}x{b.name}")


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from its JSON-shaped description.

    Builtin references look like ``{"family": "quaternion8"}`` (with an ``n``
    parameter where the family needs one); custom tables supply ``labels``
    and ``table`` explicitly.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise InputError("group description must be an object with a 'family' key")
    family = spec["family"]
    if family == "cyclic":
        return cyclic(_order_field(spec))
    if family == "sign":
        return sign_group()
    if family == "t4":
        return t4()
    if family == "dihedral":
        return dihedral(_order_field(spec))
    if family == "quaternion8":
        return quaternion8()
    if family == "direct_product":
        left, right = _fields(spec, "left", "right")
        return direct_product(build_group(left), build_group(right))
    if family == "custom":
        labels, table = _fields(spec, "labels", "table")
        return FiniteGroup(labels, table, name=spec.get("name", "custom"))
    raise InputError(f"unknown group family {family!r}")


def _fields(spec: dict, *keys: str) -> tuple:
    try:
        return tuple(spec[key] for key in keys)
    except KeyError as exc:
        raise InputError(f"{spec['family']} group needs {exc} field")


def _order_field(spec: dict) -> int:
    (n,) = _fields(spec, "n")
    try:
        return int(n)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"group field 'n' must be an integer, got {n!r}")


def group_to_dict(group: FiniteGroup) -> dict:
    """Serialize a group; always emits the explicit custom form."""
    return {
        "family": "custom",
        "name": group.name,
        "labels": list(group.labels),
        "table": [list(row) for row in group.mult],
    }
