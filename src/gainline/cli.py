"""Command-line front end.

Subcommands: group, line, gainline, check (balance | switch-equiv |
gainline | obstruction), spectrum.  All verdicts are machine-readable JSON
on stdout; spectra are CSV.  Exit code 0 means a verdict was computed (even
a "violated" one); nonzero signals an input or validation error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import gain, graph, group, phase, representation, spectral
from .errors import GainlineError, InputError


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _context(G: group.FiniteGroup, args) -> phase.PhaseContext:
    s1 = G.element(args.s1) if args.s1 is not None else G.identity
    s2 = G.element(args.s2) if args.s2 is not None else G.identity
    return phase.PhaseContext(G, s1, s2)


def _orientation(g: graph.SimpleGraph, spec: str) -> graph.Orientation:
    if spec == "default":
        return graph.default_orientation(g)
    data = _load_json(spec)
    try:
        heads = tuple((int(t) - 1, int(h) - 1) for t, h in data)
        return graph.Orientation(g, heads)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{spec} must be a list of [tail, head] pairs")
    except GainlineError as exc:
        raise InputError(str(exc))


def cmd_group(args) -> int:
    G = group.build_group(_load_json(args.file))
    _emit({
        "group": group.group_to_dict(G),
        "order": G.order,
        "abelian": G.is_abelian(),
        "center": [G.label(g) for g in group.center(G)],
        "central_weak_involutions": [
            G.label(g) for g in group.central_weak_involutions(G)],
    })
    return 0


def cmd_line(args) -> int:
    g = graph.graph_from_dict(_load_json(args.file))
    data = graph.line_graph(g)
    _emit({
        "line": {"n": data.line.n,
                 "edges": [[u + 1, v + 1] for u, v in data.line.edges]},
        "shared_vertex": [v + 1 for v in data.shared_vertex],
    })
    return 0


def cmd_gainline(args) -> int:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    ctx = _context(psi_fn.group, args)
    orientation = _orientation(psi_fn.graph, args.orientation)
    zeta = phase.gain_line(psi_fn, orientation, ctx)
    _emit(gain.gain_to_dict(zeta))
    return 0


def cmd_check_balance(args) -> int:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    witness = gain.balance_witness(psi_fn)
    verdict = {"balanced": witness is not None}
    if witness is not None:
        verdict["witness"] = [psi_fn.group.label(v) for v in witness.values]
    _emit(verdict)
    return 0


def cmd_check_switch_equiv(args) -> int:
    psi1 = gain.gain_from_dict(_load_json(args.first))
    psi2 = gain.gain_from_dict(_load_json(args.second))
    witness = gain.switching_to(psi1, psi2)
    verdict = {"equivalent": witness is not None}
    if witness is not None:
        verdict["witness"] = [psi1.group.label(v) for v in witness.values]
    _emit(verdict)
    return 0


def cmd_check_gainline(args) -> int:
    zeta = gain.gain_from_dict(_load_json(args.file))
    root = graph.graph_from_dict(_load_json(args.root))
    ctx = _context(zeta.group, args)
    H = phase.recognize_gain_line(zeta, root, ctx)
    verdict = {"gain_line": H is not None}
    if H is not None:
        verdict["witness_phase"] = phase.phase_to_dict(H)
    _emit(verdict)
    return 0


def cmd_check_obstruction(args) -> int:
    zeta = gain.gain_from_dict(_load_json(args.file))
    rep = representation.representation_from_dict(_load_json(args.rep), zeta.group)
    s2 = zeta.group.element(args.s2) if args.s2 is not None else zeta.group.identity
    verdict = spectral.gainline_obstruction(zeta, rep, s2, tol=args.tol)
    _emit(verdict.to_dict())
    return 0


def cmd_spectrum(args) -> int:
    psi_fn = gain.gain_from_dict(_load_json(args.file))
    rep = representation.representation_from_dict(_load_json(args.rep), psi_fn.group)
    spec = representation.hermitian_spectrum(
        representation.fourier(gain.gain_adjacency(psi_fn), rep))
    groups = spec.multiplicity_groups()
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["index", "eigenvalue", "multiplicity_group"])
    for i, (lam, gid) in enumerate(zip(spec.eigenvalues, groups)):
        writer.writerow([i, repr(lam), gid])
    sys.stdout.write(out.getvalue())
    return 0


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--s1", default=None, metavar="LABEL")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GainlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
