"""Finite groups as explicit multiplication tables.

Elements are plain integer indices into the group's element list, with the
convention that index 0 is the identity.  All builders return validated
:class:`FiniteGroup` instances.
"""

from __future__ import annotations

import functools
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import InputError, ValidationError, require_fields, require_type

Element = int

#: Artifact cap on the order of every group, builtin or custom.
MAX_ORDER = 512


class FiniteGroup:
    """A finite group given by an order x order multiplication table.

    ``table[a, b]`` is the index of the product of elements ``a`` and ``b``;
    index 0 is always the identity.  Instances are immutable after
    construction and safe to share between threads.

    Once its entries are known to lie in range, the table is validated on an
    int16 working copy (an order is at most ``MAX_ORDER`` = 512) and its
    contiguous transpose, so that both sides of Light's associativity test
    are row gathers of a few hundred kB; ``table`` keeps np.intp.
    """

    def __init__(self, labels: Sequence[str], mult: Sequence[Sequence[int]],
                 name: str = "custom"):
        try:
            order = len(labels)
            if order == 0:
                raise ValidationError("group must have at least one element")
            _check_order(order)
            if not isinstance(labels, (list, tuple)) \
                    or not all(isinstance(label, str) for label in labels):
                raise TypeError("labels are not a list of strings")  # reported below
            if len(set(labels)) != order:
                raise ValidationError("element labels must be unique")
            if len(mult) != order or any(len(row) != order for row in mult):
                raise ValidationError(
                    "multiplication table must be square of size order")
        except TypeError:
            raise ValidationError(
                "group labels must be a list of strings and the table a list of rows")

        integer_array = isinstance(mult, np.ndarray) and mult.dtype.kind in "iu"
        try:  # the one copy of the table
            T = np.array(mult, dtype=np.intp if integer_array else None)
        except (TypeError, ValueError, OverflowError):
            T = None
        # numpy reads a bool among ints as an int, so a list is scanned: only
        # its entries 0 and 1 can be bools.  An integer array holds none.
        if T is None or T.shape != (order, order) or T.dtype.kind not in "iu" \
                or not integer_array and any(
                    isinstance(mult[i][j], (bool, np.bool_))
                    for i, j in np.argwhere(T >> 1 == 0).tolist()):
            raise ValidationError("multiplication table entries must be integers")
        T = T.astype(np.intp, copy=False)
        T.flags.writeable = False
        # Latin square: two boolean scatters of the range-masked entries, one
        # by row and one by column, must each hit every index.
        bad_rows, bad_cols = _not_permutations(T)
        bad = np.flatnonzero(bad_rows | bad_cols)
        if bad.size:
            kind = "row" if bad_rows[bad[0]] else "column"
            raise ValidationError(f"{kind} {bad[0]} of the table is not a permutation")
        # Every entry is now below order <= MAX_ORDER, so int16 holds it.
        W = T.astype(np.int16)
        Wt = np.ascontiguousarray(W.T)
        full = np.arange(order)
        if (W[0] != full).any() or (Wt[0] != full).any():
            raise ValidationError("element 0 is not a two-sided identity")
        # Rows are permutations, so g h = 1 has exactly one solution h.
        inv = np.argmin(W, axis=1)
        bad = np.flatnonzero(W[inv, full] != 0)
        if bad.size:
            raise ValidationError(f"element {bad[0]} has no two-sided inverse")
        # Light's test: the elements a with (x a) y = x (a y) for all x, y are
        # closed under the product, so checking the generators proves
        # associativity.  Both sides are row gathers: (x s) y is row W[x, s] of
        # W, and x (s y) is row W[s, y] of Wt, read transposed.
        generators = _generators(W)
        for s in generators:
            bad = W[Wt[s]] != Wt[W[s]].T
            if bad.any():
                x, y = np.argwhere(bad)[0]
                raise ValidationError(f"table is not associative at ({x}, {s}, {y})")

        self.name = name
        self.labels = tuple(labels)
        #: The validated table as a read-only (order, order) np.intp array.
        self.table = T
        #: A generating set: every element is a product of these.
        self.generators = generators
        #: The inverse of each element as a read-only np.intp array, for gathers.
        self.inverse = inv
        inv.flags.writeable = False
        self.order = order
        self._label_index = {label: i for i, label in enumerate(self.labels)}

    @functools.cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """The table as nested tuples, for scalar loops; built on first use."""
        return tuple(map(tuple, self.table.tolist()))

    @functools.cached_property
    def inv(self) -> tuple[int, ...]:
        """The inverses as a tuple, for scalar loops; built on first use."""
        return tuple(self.inverse.tolist())

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
        except (KeyError, TypeError):  # TypeError: an unhashable label such as [1]
            raise InputError(f"unknown element label {label!r} in group {self.name}")

    def is_abelian(self) -> bool:
        return bool((self.table == self.table.T).all())

    def __eq__(self, other: object) -> bool:
        """Value equality, decided by identity first: most operands share one
        group object, and comparing tables costs O(order^2)."""
        return self is other or (
            isinstance(other, FiniteGroup) and self.labels == other.labels
            and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        return hash((self.labels, self.table.tobytes()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _not_permutations(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rows and of the columns of the square T that are not
    permutations of its indices, by boolean scatters: a row or column is one
    when its order entries are all in range and hit every index.  Entries out
    of range fail their row and column and are masked to 0 before the
    scatters, where a negative index would wrap round.  Both scatters take
    flat indices, r order + T[r, c] and T[r, c] order + c, made in place in
    one array.  A function of its own, so that its (order, order) temporaries
    are freed before Light's test."""
    order = len(T)
    full = np.arange(order)
    valid = (T >= 0) & (T < order)
    flat = np.where(valid, T, 0)
    row_hit = np.zeros((order, order), dtype=bool)
    col_hit = np.zeros((order, order), dtype=bool)
    flat += full[:, None] * order
    row_hit.ravel()[flat] = True
    flat -= full[:, None] * order
    flat *= order
    flat += full
    col_hit.ravel()[flat] = True
    return (~(valid.all(axis=1) & row_hit.all(axis=1)),
            ~(valid.all(axis=0) & col_hit.all(axis=0)))


def _generators(T: np.ndarray) -> tuple[Element, ...]:
    """A greedy generating set: the least element not yet reached is added,
    then the reached set is squared until it stops growing or is everything."""
    order = len(T)
    gens, count = [], 1
    reached = np.zeros(order, dtype=bool)
    reached[0] = True
    while count < order:
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        while True:
            R = np.flatnonzero(reached)
            reached[T[R][:, R]] = True
            count = np.count_nonzero(reached)
            if count in (R.size, order):
                break
    return tuple(gens)


def _check_order(order: int) -> None:
    if order > MAX_ORDER:
        raise ValidationError(f"group order {order} exceeds cap {MAX_ORDER}")


def _element_array(values, shape: tuple[int, ...], order: int, kind: str,
                   index: str) -> np.ndarray:
    """``values`` as a read-only np.intp array of ``shape`` whose entries are
    element indices below ``order``.

    An integer array is taken as it is, and shared when it is already a
    read-only intp array; a list or tuple (of rows, for a 2-D ``shape``)
    gets C-level type passes before numpy reads it, since numpy reads a bool
    among integers as 0 or 1.  A bool, a float, a string or another shape
    raises ValidationError(``kind``).  Then one mask finds the first entry x
    out of range in row-major order, and raises ValidationError naming it as
    ``f"{index} {x} out of range"``; an integer too large for intp stays
    exact in an object array until then.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        a = values if values.dtype == np.intp and not values.flags.writeable \
            else values.copy()
    else:
        a, rows = None, values.tolist() if isinstance(values, np.ndarray) else values
        try:
            flat = list(chain.from_iterable(rows) if len(shape) > 1 else rows)
            flat = None if len(shape) > 1 and set(map(len, rows)) - {shape[1]} else flat
        except TypeError:  # a row or a value that is not a sequence
            flat = None
        if flat is not None and all(issubclass(t, (int, np.integer)) and t is not bool
                                    for t in set(map(type, flat))):
            try:
                a = np.fromiter(flat, np.intp, len(flat))
            except OverflowError:
                a = np.array(flat, dtype=object)
            a = a.reshape(-1, *shape[1:])
    if a is None or a.shape != shape:
        raise ValidationError(kind)
    bad = np.flatnonzero((a < 0) | (a >= order))
    if bad.size:
        raise ValidationError(f"{index} {a.ravel()[bad[0]]} out of range")
    a = a.astype(np.intp, copy=False)
    a.flags.writeable = False
    return a


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
    a = np.arange(n)
    return FiniteGroup(list(map(str, range(n))), (a[:, None] + a) % n, name=f"Z{n}")


def sign_group() -> FiniteGroup:
    """The order-2 group {1, -1}."""
    return FiniteGroup(["1", "-1"], [[0, 1], [1, 0]], name="sign")


def t4() -> FiniteGroup:
    """Fourth roots of unity {1, i, -1, -i} under multiplication."""
    return FiniteGroup(["1", "i", "-1", "-i"], cyclic(4).table, name="T4")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1};
    element s n + a is (a, s), with (a, s)(b, t) = (a + (-1)^s b, s + t)."""
    if n < 1:
        raise InputError("dihedral group needs n >= 1")
    _check_order(2 * n)
    s, a = np.divmod(np.arange(2 * n), n)
    table = (s[:, None] + s) % 2 * n + (a[:, None] + (1 - 2 * s[:, None]) * a) % n
    labels = [f"r{i}" for i in range(n)] + [f"s{i}" for i in range(n)]
    return FiniteGroup(labels, table, name=f"D{n}")


#: 1 where the product b1 b2 of basis quaternions (order 1, i, j, k) is negative.
_Q8_BASIS_SIGN = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])


def quaternion8() -> FiniteGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}: element 4 sign + b is
    (-1)^sign times basis b (1, i, j, k), and the basis of b1 b2 is b1 XOR b2."""
    labels = ["1", "i", "j", "k", "-1", "-i", "-j", "-k"]
    sign, b = np.divmod(np.arange(8), 4)
    table = ((sign[:, None] + sign + _Q8_BASIS_SIGN[b[:, None], b]) % 2 * 4
             + (b[:, None] ^ b))
    return FiniteGroup(labels, table, name="Q8")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs (x, y) = x |B| + y, labeled "(x,y)"."""
    n = a.order * b.order
    _check_order(n)
    labels = [f"({x},{y})" for x in a.labels for y in b.labels]
    table = (a.table[:, None, :, None] * b.order
             + b.table[None, :, None, :]).reshape(n, n)
    return FiniteGroup(labels, table, name=f"{a.name}x{b.name}")


def build_group(spec: dict) -> FiniteGroup:
    """Build a group from its JSON-shaped description.

    Builtin references look like ``{"family": "quaternion8"}`` (with an ``n``
    parameter where the family needs one); custom tables supply ``labels``
    and ``table`` explicitly.
    """
    (family,) = require_fields(spec, "group description", "family")
    if family in ("cyclic", "dihedral"):
        (n,) = require_fields(spec, f"{family} group", "n")
        build = cyclic if family == "cyclic" else dihedral
        return build(require_type(n, int, "group field 'n'"))
    if family == "sign":
        return sign_group()
    if family == "t4":
        return t4()
    if family == "quaternion8":
        return quaternion8()
    if family == "direct_product":
        left, right = require_fields(spec, "direct_product group", "left", "right")
        try:
            return direct_product(build_group(left), build_group(right))
        except RecursionError:  # deeper than the stack; the innermost level reports it
            raise InputError("group description is nested too deeply")
    if family == "custom":
        labels, table = require_fields(spec, "custom group", "labels", "table")
        name = require_type(spec.get("name", "custom"), str, "group field 'name'")
        return FiniteGroup(labels, table, name=name)
    raise InputError(f"unknown group family {family!r}")


def _group_wire(group: FiniteGroup) -> dict:
    """The wire form of a group with its ``table`` left as the read-only
    array: :func:`group_to_dict` turns it into lists, the CLI writes it."""
    return {"family": "custom", "name": group.name, "labels": list(group.labels),
            "table": group.table}


def group_to_dict(group: FiniteGroup) -> dict:
    """Serialize a group; always emits the explicit custom form."""
    data = _group_wire(group)
    data["table"] = data["table"].tolist()
    return data
