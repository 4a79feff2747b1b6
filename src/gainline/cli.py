"""Command-line front end.

Subcommands: group, line, gainline, check (balance | switch-equiv |
gainline | obstruction), spectrum.  All verdicts are machine-readable JSON
on stdout; spectra are CSV.  Exit code 0 means a verdict was computed (even
a "violated" one); nonzero signals an input or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from . import gain, graph, group, phase, representation, spectral
from .errors import GainlineError, InputError


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or integer
        raise InputError(f"{path} is not valid JSON: {exc}")


#: Exact types that the C encoder writes as JSON scalars.
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _layout(level: int):
    """Item indentation, item separator and closing pad of a container at
    nesting ``level``, and an encoder whose item separator is that one.

    The encoder is the C encoder that ``json.dumps(separators=(comma, ": "))``
    builds on every call, built here once per level; on a Python without
    the ``_json`` accelerator it is that call's pure-Python encoder.  It
    keeps no markers for circular references: every document the CLI
    writes is a tree.
    """
    inner = "\n" + "  " * (level + 1)
    comma = "," + inner
    if c_make_encoder is None:
        return inner, comma, inner[:-2], json.JSONEncoder(
            separators=(comma, ": "), check_circular=False).encode
    chunks = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                            None, ": ", comma, False, False, True)
    return inner, comma, inner[:-2], lambda value: "".join(chunks(value, 0))


#: Text gathered before it is written: a write holds at most this much, or
#: one piece where a piece is longer.
_CHUNK = 1 << 16


def _encode(value, level: int, write, head: str = "") -> None:
    """Write ``head`` and then ``value`` at nesting ``level``, exactly as
    ``json.dump(value, fp, indent=2, sort_keys=True)`` writes ``value``.

    With ``indent`` set, ``json.dump`` runs the pure-Python encoder.  Here
    only non-empty dicts and lists that hold a container are walked in
    Python; everything else (a scalar, a dict key, an empty container, or a
    list whose items all have exact ``_SCALARS`` types) goes out in one call
    of the level's C encoder, whose item separator carries the indentation.
    A non-empty list of such lists is written row by row.  A 2-D integer
    ``np.ndarray`` with entries in ``range(size)`` (a group's ``table``), or
    a list of equal-length lists of exact ``int`` in that range (an edge
    list), goes to :func:`_grid`, and a phase's ``_SparseRows`` to
    :func:`_sparse`; any other array is written as its ``tolist()``.  Each
    ``write`` gets at most one row, one block of grid rows within
    ``_CHUNK``, or one piece, with the separator, key or bracket before it.
    Dict keys must be ``str``, as in every gainline wire format.
    """
    inner, comma, pad, encode = _layout(level)
    if type(value) is list and value and type(value[0]) is list:
        grid = _int_grid(value)
        value = value if grid is None else grid
    if isinstance(value, np.ndarray):
        if value.ndim == 2 and value.dtype.kind in "iu" and value.size \
                and value.min() >= 0 and value.max() < value.size:
            _grid(value, level, write, head)
        else:
            _encode(value.tolist(), level, write, head)
    elif isinstance(value, phase._SparseRows):
        _sparse(value, level, write, head)
    elif isinstance(value, dict) and value:
        sep = head + "{" + inner
        for key, item in sorted(value.items()):
            _encode(item, level + 1, write, sep + encode(key) + ": ")
            sep = comma
        write(pad + "}")
    elif isinstance(value, (list, tuple)) and value \
            and all(isinstance(row, (list, tuple)) and set(map(type, row)) <= _SCALARS
                    for row in value):
        row_inner, _, row_pad, row_encode = _layout(level + 1)
        sep = head + "[" + inner
        for row in value:
            body = row_encode(row)[1:-1]
            write(sep + ("[" + row_inner + body + row_pad + "]" if body else "[]"))
            sep = comma
        write(pad + "]")
    elif isinstance(value, (list, tuple)) and not set(map(type, value)) <= _SCALARS:
        sep = head + "[" + inner
        for item in value:
            _encode(item, level + 1, write, sep)
            sep = comma
        write(pad + "]")
    elif isinstance(value, (list, tuple)) and value:
        write(head + "[" + inner + encode(value)[1:-1] + pad + "]")
    else:
        write(head + encode(value))


def _grid(value: np.ndarray, level: int, write, head: str) -> None:
    """Write the 2-D array ``value`` of integers in ``range(size)`` as
    :func:`_encode` writes its ``tolist()``, from one string per value.

    Each value's string carries the separator after it, or, in the last
    column, the row's closing bracket.  A block of rows that fits in
    ``_CHUNK`` is an object array of those strings behind each row's
    opening, filled by two gathers and written by one join.
    """
    inner, comma, pad, _ = _layout(level)
    row_inner, row_comma, row_pad, _ = _layout(level + 1)
    top = value.max() + 1
    sep = np.array([str(v) + row_comma for v in range(top)], dtype=object)
    last = np.array([str(v) + row_pad + "]" for v in range(top)], dtype=object)
    rows, width = value.shape
    opening = comma + "[" + row_inner
    per = max(1, _CHUNK // (len(opening) + width * len(sep[-1]) + len(last[-1])))
    tokens = np.empty((min(per, rows), width + 1), dtype=object)
    tokens[:, 0] = opening
    tokens[0, 0] = head + "[" + inner + "[" + row_inner
    for start in range(0, rows, per):
        block, part = tokens[:min(per, rows - start)], value[start:start + per]
        block[:, 1:-1] = sep[part[:, :-1]]
        block[:, -1] = last[part[:, -1]]
        write("".join(block.ravel().tolist()))
        tokens[0, 0] = opening
    write(pad + "]")


def _sparse(value: phase._SparseRows, level: int, write, head: str) -> None:
    """Write the grid of ``value`` as :func:`_encode` writes its ``dense()``
    form, without building it.

    Each distinct label is encoded once, and every zero run is a slice of
    one run of ``width`` zeros, so a row costs O(its support) steps and one
    join.
    """
    inner, comma, pad, _ = _layout(level)
    row_inner, row_comma, row_pad, row_encode = _layout(level + 1)
    bare = [row_encode(label) for label in value.labels]
    cell = [text + row_comma for text in bare]
    zero = row_encode(value.zero) + row_comma
    width, z = value.width, len(zero)
    zeros = zero * width
    ptr, columns, values = (a.tolist() for a in (value.indptr, value.columns, value.values))
    sep = head + "[" + inner
    for a, b in zip(ptr, ptr[1:]):
        if not width:
            write(sep + "[]")
            sep = comma
            continue
        parts, done = [sep + "[" + row_inner], 0
        for k, x in zip(columns[a:b], values[a:b]):
            parts += (zeros[:z * (k - done)], cell[x])
            done = k + 1
        # every cell is followed by the separator, except the last of the row
        if done < width:
            parts.append(zeros[:z * (width - done) - len(row_comma)])
        else:
            parts[-1] = bare[values[b - 1]]
        parts.append(row_pad + "]")
        write("".join(parts))
        sep = comma
    write(pad + "]")


def _int_grid(rows: list) -> np.ndarray | None:
    """``rows`` as a 2-D intp array, if they are equal-length non-empty lists
    of exact ``int`` in ``range(size)``; otherwise None.  Types are checked
    by C-level passes before any entry is converted."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {len(rows[0])} \
            or not rows[0] or set(map(type, chain.from_iterable(rows))) != {int}:
        return None
    size = len(rows) * len(rows[0])
    try:
        grid = np.fromiter(chain.from_iterable(rows), np.intp, size)
    except OverflowError:
        return None
    return grid.reshape(len(rows), -1) if 0 <= grid.min() and grid.max() < size else None


def _emit(data: dict) -> None:
    """Write ``data`` and a newline to stdout, the pieces of :func:`_encode`
    joined into writes of at most ``_CHUNK`` (or one longer piece)."""
    pieces, size = [], 0

    def put(text: str) -> None:
        nonlocal size
        if size + len(text) > _CHUNK and pieces:
            sys.stdout.write("".join(pieces))
            pieces.clear()
            size = 0
        pieces.append(text)
        size += len(text)

    _encode(data, 0, put)
    put("\n")
    sys.stdout.write("".join(pieces))


def _context(G: group.FiniteGroup, args) -> phase.PhaseContext:
    s1 = G.element(args.s1) if args.s1 is not None else G.identity
    s2 = G.element(args.s2) if args.s2 is not None else G.identity
    return phase.PhaseContext(G, s1, s2)


def _orientation(g: graph.SimpleGraph, spec: str) -> graph.Orientation:
    if spec == "default":
        return graph.default_orientation(g)
    heads = graph.vertex_pairs(_load_json(spec), f"orientation file {spec}")
    return graph.Orientation(g, heads)


def cmd_group(args) -> None:
    G = group.build_group(_load_json(args.file))
    center = group.center(G)
    square = G.table.diagonal()
    _emit({
        "group": group._group_wire(G),
        "order": G.order,
        "abelian": len(center) == G.order,
        "center": [G.label(g) for g in center],
        "central_weak_involutions": [G.label(g) for g in center if square[g] == 0],
    })


def cmd_line(args) -> None:
    g = graph.graph_from_dict(_load_json(args.file))
    data = graph.line_graph(g)
    _emit({"line": graph.graph_to_dict(data.line),
           "shared_vertex": (data.shared_vertex + 1).tolist()})


def cmd_gainline(args) -> None:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    ctx = _context(psi_fn.group, args)
    orientation = _orientation(psi_fn.graph, args.orientation)
    zeta = phase.gain_line(psi_fn, orientation, ctx)
    _emit(gain.gain_to_dict(zeta))


def cmd_check_balance(args) -> None:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    witness = gain.balance_witness(psi_fn)
    verdict = {"balanced": witness is not None}
    if witness is not None:
        verdict["witness"] = list(map(psi_fn.group.labels.__getitem__, witness))
    _emit(verdict)


def cmd_check_switch_equiv(args) -> None:
    psi1 = gain.gain_from_dict(_load_json(args.first))
    psi2 = gain.gain_from_dict(_load_json(args.second))
    witness = gain.switching_to(psi1, psi2)
    verdict = {"equivalent": witness is not None}
    if witness is not None:
        verdict["witness"] = list(map(psi1.group.labels.__getitem__, witness))
    _emit(verdict)


def cmd_check_gainline(args) -> None:
    zeta = gain.gain_from_dict(_load_json(args.file))
    root = graph.graph_from_dict(_load_json(args.root))
    ctx = _context(zeta.group, args)
    H = phase.recognize_gain_line(zeta, root, ctx)
    verdict = {"gain_line": H is not None}
    if H is not None:
        verdict["witness_phase"] = phase._phase_wire(H)
    _emit(verdict)


def cmd_check_obstruction(args) -> None:
    zeta = gain.gain_from_dict(_load_json(args.file))
    rep = representation.representation_from_dict(_load_json(args.rep), zeta.group)
    s2 = zeta.group.element(args.s2) if args.s2 is not None else zeta.group.identity
    verdict = spectral.gainline_obstruction(zeta, rep, s2, tol=args.tol)
    _emit(verdict.to_dict())


def cmd_spectrum(args) -> None:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    rep = representation.representation_from_dict(_load_json(args.rep), psi_fn.group)
    spec = representation.represented_spectrum(gain.gain_adjacency(psi_fn), rep)
    groups = representation.multiplicity_groups(spec)
    sys.stdout.write("".join(
        ["index,eigenvalue,multiplicity_group\r\n"]
        + [f"{i},{lam!r},{gid}\r\n"
           for i, (lam, gid) in enumerate(zip(spec, groups))]))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="gainline",
        description="Gain graphs over finite groups: constructions and checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="validate and describe a group file")
    p.add_argument("file")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("line", help="line graph with the shared-vertex map")
    p.add_argument("file")
    p.set_defaults(func=cmd_line)

    p = sub.add_parser("gainline", help="gain-line graph of a gain file")
    p.add_argument("file")
    p.add_argument("--s1", default=None, metavar="LABEL")
    p.add_argument("--s2", default=None, metavar="LABEL")
    p.add_argument("--orientation", default="default",
                   help="'default' or a JSON file of 1-based [tail, head] pairs")
    p.set_defaults(func=cmd_gainline)

    check = sub.add_parser("check", help="decision procedures")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    p = check_sub.add_parser("balance")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_balance)

    p = check_sub.add_parser("switch-equiv")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_check_switch_equiv)

    p = check_sub.add_parser("gainline",
                             help="exact recognition against a root graph")
    p.add_argument("file", help="gain file on the line graph")
    p.add_argument("--root", required=True, help="graph file for the root graph")
    p.add_argument("--s1", default=None, metavar="LABEL",
                   help="checked to be a central weak involution; the verdict "
                        "depends on --s2 only")
    p.add_argument("--s2", default=None, metavar="LABEL")
    p.set_defaults(func=cmd_check_gainline)

    p = check_sub.add_parser("obstruction", help="spectral necessary conditions")
    p.add_argument("file")
    p.add_argument("--rep", required=True, help="representation file")
    p.add_argument("--s2", default=None, metavar="LABEL")
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.set_defaults(func=cmd_check_obstruction)

    p = sub.add_parser("spectrum", help="pi-spectrum of a gain graph, as CSV")
    p.add_argument("file")
    p.add_argument("rep")
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except GainlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader left early (`| head`).  Point stdout at devnull so that
        # the flush at exit cannot raise again (Python's "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
