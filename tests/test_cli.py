import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gainline as gl
from gainline import cli
from gainline.cli import _emit, main
from gainline.phase import _SparseRows, _phase_wire

from helpers import (DIAMOND, K2, PAW, incidence_lists, q8_gain, random_connected_graph,
                     random_phase, relabeled)

PAW_GAINS = ["-i", "-j", "-k", "-i"]


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def paw_gain_file(tmp_path, name="gain.json", gains=PAW_GAINS, graph=PAW):
    return write(tmp_path, name, gl.gain_to_dict(q8_gain(graph, gains)))


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_command(tmp_path, capsys):
    path = write(tmp_path, "q8.json", {"family": "quaternion8"})
    code, out, _ = run(capsys, ["group", path])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 8
    assert data["abelian"] is False
    assert sorted(data["center"]) == ["-1", "1"]
    assert sorted(data["central_weak_involutions"]) == ["-1", "1"]
    # the echoed table parses back into the same group
    assert gl.build_group(data["group"]) == gl.quaternion8()


def test_one_parser_serves_every_request_of_a_process(tmp_path, capsys):
    sign = write(tmp_path, "sign.json", {"family": "sign"})
    broken = tmp_path / "broken.json"
    broken.write_text('{"family": ')
    first = run(capsys, ["group", sign])
    assert first[0] == 0 and first[2] == ""
    # argparse refuses an unknown flag, and the next request is unharmed
    with pytest.raises(SystemExit) as refused:
        main(["group", sign, "--no-such-flag"])
    assert refused.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, ["group", str(broken)])
    assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
    assert run(capsys, ["group", sign]) == first
    assert cli.build_parser() is cli.build_parser()


def nested_group_text(depth):
    """A group file with direct_product nested ``depth`` levels deep, written
    without recursion."""
    leaf = '{"family": "cyclic", "n": 1}'
    return ('{"family": "direct_product", "left": ' * depth + leaf
            + (', "right": ' + leaf + "}") * depth)


def test_deeply_nested_group_ends_in_a_verdict_or_one_error_line(tmp_path, capsys):
    # the deepest file json.loads accepts from here, up to the recursion
    # limit; the CLI adds frames of its own, so the depths just below it
    # run out of stack in json.load, in build_group or not at all
    lo, hi = 0, sys.getrecursionlimit()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            json.loads(nested_group_text(mid))
            lo = mid
        except RecursionError:
            hi = mid
    path = tmp_path / "group.json"
    for depth in range(lo - 14, lo + 1):
        path.write_text(nested_group_text(depth))
        code, out, err = run(capsys, ["group", str(path)])
        assert (code, err) == (0, "") or (
            (code, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1), depth


def test_line_command(tmp_path, capsys):
    path = write(tmp_path, "paw.json", gl.graph_to_dict(PAW))
    code, out, _ = run(capsys, ["line", path])
    assert code == 0
    data = json.loads(out)
    assert data["line"] == {"n": 4, "edges": [[1, 2], [1, 4], [2, 3],
                                              [2, 4], [3, 4]]}
    assert data["shared_vertex"] == [2, 2, 3, 2, 4]


def test_gainline_command_golden(tmp_path, capsys):
    path = paw_gain_file(tmp_path)
    code, out, _ = run(capsys, ["gainline", path, "--s1", "-1", "--s2", "-1"])
    assert code == 0
    data = json.loads(out)
    assert data["gains"] == ["-j", "-i", "-k", "-k", "-1"]
    assert data["graph"]["edges"] == [[1, 2], [1, 4], [2, 3], [2, 4], [3, 4]]


def test_gainline_command_orientation_file(tmp_path, capsys):
    path = paw_gain_file(tmp_path)
    default = (gl.default_orientation(PAW).heads + 1).tolist()
    opath = write(tmp_path, "orient.json", default)
    code, out, _ = run(capsys, ["gainline", path, "--s1", "-1", "--s2", "-1",
                                "--orientation", opath])
    assert code == 0
    assert json.loads(out)["gains"] == ["-j", "-i", "-k", "-k", "-1"]


def test_check_balance_command(tmp_path, capsys):
    unbalanced = paw_gain_file(tmp_path, "a.json")
    code, out, _ = run(capsys, ["check", "balance", unbalanced])
    assert code == 0 and json.loads(out) == {"balanced": False}

    balanced = paw_gain_file(tmp_path, "b.json", ["1", "1", "1", "1"])
    code, out, _ = run(capsys, ["check", "balance", balanced])
    data = json.loads(out)
    assert code == 0 and data["balanced"] is True
    assert len(data["witness"]) == 4


def test_check_switch_equiv_command(tmp_path, capsys):
    Q8 = gl.quaternion8()
    psi = q8_gain(PAW, PAW_GAINS)
    switched = gl.switch(psi, (Q8.element("j"),) * 4)
    a = paw_gain_file(tmp_path, "a.json")
    b = write(tmp_path, "b.json", gl.gain_to_dict(switched))
    code, out, _ = run(capsys, ["check", "switch-equiv", a, b])
    data = json.loads(out)
    assert code == 0 and data["equivalent"] is True
    witness = tuple(Q8.element(l) for l in data["witness"])
    assert gl.switch(psi, witness) == switched

    # triangle gain i is not conjugate to the triangle gain -1 of psi
    c = paw_gain_file(tmp_path, "c.json", ["1", "1", "1", "i"])
    code, out, _ = run(capsys, ["check", "switch-equiv", a, c])
    assert code == 0 and json.loads(out)["equivalent"] is False


def test_check_commands_run_one_bfs_per_graph(tmp_path, capsys, monkeypatch):
    """Connectivity, switching potentials and root recovery are array passes,
    so the package has no graph search, and no command but check obstruction
    recovers a root."""
    assert not hasattr(gl.graph, "_bfs") and not hasattr(gl.graph, "bfs_tree")
    runs = []
    recover = gl.spectral.line_roots
    monkeypatch.setattr(gl.spectral, "line_roots", lambda line: runs.append(line) or recover(line))
    psi = q8_gain(PAW, PAW_GAINS)
    a = paw_gain_file(tmp_path, "a.json")
    b = write(tmp_path, "b.json", gl.gain_to_dict(gl.switch(psi, (2, 5, 1, 0))))
    code, out, _ = run(capsys, ["check", "switch-equiv", a, b])
    assert code == 0 and json.loads(out)["equivalent"] is True
    balanced = paw_gain_file(tmp_path, "c.json", ["1", "1", "1", "1"])
    code, out, _ = run(capsys, ["check", "balance", balanced])
    assert code == 0 and json.loads(out)["balanced"] is True
    assert runs == []

    ctx = gl.PhaseContext(psi.group, psi.group.identity, psi.group.identity)
    zeta = write(tmp_path, "zeta.json", gl.gain_to_dict(
        gl.gain_line(psi, gl.default_orientation(PAW), ctx)))
    root = write(tmp_path, "root.json", gl.graph_to_dict(PAW))
    for argv in (["line", root], ["gainline", a], ["check", "gainline", zeta, "--root", root]):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out
    assert runs == []


def test_check_commands_read_tree_gains_without_a_lookup(tmp_path, capsys, monkeypatch):
    """switching_to reads each tree edge's gain from the BFS; it never looks
    an edge up by its endpoints."""
    def refuse(self, u, v):
        raise AssertionError("a gain was looked up by its endpoints")

    monkeypatch.setattr(gl.GainFunction, "gain", refuse)
    psi = q8_gain(PAW, PAW_GAINS)
    a = paw_gain_file(tmp_path, "a.json")
    switched = gl.switch(psi, (2, 5, 1, 0))
    b = write(tmp_path, "b.json", gl.gain_to_dict(switched))
    code, out, _ = run(capsys, ["check", "switch-equiv", a, b])
    witness = json.loads(out)["witness"]
    assert code == 0 and gl.switch(psi, tuple(map(psi.group.element, witness))) == switched
    c = paw_gain_file(tmp_path, "c.json", ["1", "1", "1", "i"])
    code, out, _ = run(capsys, ["check", "switch-equiv", a, c])
    assert code == 0 and json.loads(out) == {"equivalent": False}
    for gains, balanced in ((PAW_GAINS, False), (["i", "j", "-i", "k"], True)):
        code, out, _ = run(capsys, ["check", "balance", paw_gain_file(tmp_path, "d.json", gains)])
        assert code == 0 and json.loads(out)["balanced"] is balanced


def test_check_gainline_command(tmp_path, capsys):
    ctx = gl.PhaseContext(gl.quaternion8(), gl.quaternion8().element("-1"),
                          gl.quaternion8().element("-1"))
    zeta = gl.gain_line(q8_gain(PAW, PAW_GAINS),
                        gl.default_orientation(PAW), ctx)
    zpath = write(tmp_path, "zeta.json", gl.gain_to_dict(zeta))
    root = write(tmp_path, "root.json", gl.graph_to_dict(PAW))
    code, out, _ = run(capsys, ["check", "gainline", zpath, "--root", root,
                                "--s1", "-1", "--s2", "-1"])
    data = json.loads(out)
    assert code == 0 and data["gain_line"] is True
    H = gl.phase_from_dict(data["witness_phase"])
    assert gl.psi_line(H, ctx) == zeta

    # wrong context: s2 defaults to the identity, so recognition fails
    code, out, _ = run(capsys, ["check", "gainline", zpath, "--root", root])
    assert code == 0 and json.loads(out)["gain_line"] is False


def test_check_gainline_s1_is_checked_but_never_read(tmp_path, capsys):
    # psi_L depends on s2 alone: both central weak involutions of Q8 give
    # the same bytes, and a non-central s1 is still refused
    ctx = gl.PhaseContext(gl.quaternion8(), 4, 4)
    zeta = gl.gain_line(q8_gain(PAW, PAW_GAINS), gl.default_orientation(PAW), ctx)
    argv = ["check", "gainline", write(tmp_path, "zeta.json", gl.gain_to_dict(zeta)),
            "--root", write(tmp_path, "root.json", gl.graph_to_dict(PAW)), "--s2", "-1"]
    plus = run(capsys, argv + ["--s1", "1"])
    assert plus[0] == 0 and json.loads(plus[1])["gain_line"] is True and plus[2] == ""
    assert run(capsys, argv + ["--s1", "-1"]) == plus
    assert run(capsys, argv + ["--s1", "i"]) == (
        1, "", "error: s1=i is not a central weak involution of Q8\n")


@pytest.mark.parametrize("graph, group, gains, s2", [
    (K2, {"family": "quaternion8"}, ["i"], "-1"),
    (K2, {"family": "cyclic", "n": 4}, ["1"], "2"),
    (PAW, {"family": "quaternion8"}, PAW_GAINS, "-1"),
    (PAW, {"family": "cyclic", "n": 4}, ["1", "2", "3", "0"], "2"),
], ids=["K2-Q8", "K2-Z4", "paw-Q8", "paw-Z4"])
def test_gainline_output_reads_back_into_every_command(tmp_path, capsys, graph, group,
                                                        gains, s2):
    # L(K2) is the one-vertex graph; the commands read it as they read any other
    root = write(tmp_path, "root.json", gl.graph_to_dict(graph))
    psi = write(tmp_path, "psi.json", {"graph": gl.graph_to_dict(graph),
                                       "group": group, "gains": gains})
    code, out, err = run(capsys, ["gainline", psi, "--s2", s2])
    assert (code, err) == (0, "")
    zeta_data = json.loads(out)
    assert zeta_data["graph"]["n"] == graph.m
    zeta = write(tmp_path, "zeta.json", zeta_data)
    code, out, err = run(capsys, ["check", "gainline", zeta, "--root", root, "--s2", s2])
    assert (code, err) == (0, "") and json.loads(out)["gain_line"] is True
    code, out, err = run(capsys, ["check", "balance", zeta])
    balanced = gl.balance_witness(gl.gain_from_dict(zeta_data)) is not None
    assert (code, err) == (0, "") and json.loads(out)["balanced"] is balanced
    regular = write(tmp_path, "regular.json", {"builtin": "regular"})
    code, out, err = run(capsys, ["spectrum", zeta, regular])
    order = gl.build_group(group).order
    assert (code, err) == (0, "") and out.count("\r\n") == 1 + graph.m * order


def test_graphs_without_edges_are_named(tmp_path, capsys):
    one_vertex = write(tmp_path, "k1.json", {"n": 1, "edges": []})
    assert run(capsys, ["line", one_vertex]) == (
        1, "", "error: a graph with no edge has no line graph\n")
    two_vertices = write(tmp_path, "e2.json", {"n": 2, "edges": []})
    assert run(capsys, ["line", two_vertices]) == (
        1, "", "error: graph needs at least one edge\n")


#: A 40-vertex path, whose faults below come after 39 good edges.
PATH40 = [[v, v + 1] for v in range(1, 40)]


@pytest.mark.parametrize("n, edges, message", [
    (3, [[1, 2], [1, True]], "a vertex in graph field 'edges' must be an integer, got True"),
    (3, [[1, 2], [2, 2.0]], "a vertex in graph field 'edges' must be an integer, got 2.0"),
    (3, [[1, 2], [1, 10**30]], f"edge (1, {10**30}) out of vertex range"),
    (3, [[1, 2], [0, 1]], "vertices are 1-based; got [0, 1] in graph field 'edges'"),
    (3, [[1, 2], [1]], "[1] in graph field 'edges' must be a pair of vertices"),
    (3, [1, 2], "a pair in graph field 'edges' must be a list, got 1"),
    (40, PATH40 + [[40, 40]], "loop at vertex 40"),
    (40, PATH40 + [[21, 20]], "duplicate edge (20, 21)"),
    (40, PATH40 + [[3, 41]], "edge (3, 41) out of vertex range"),
    (40, PATH40[:19] + PATH40[20:] + [[1, 3]], "graph is not connected"),
    (10**30, [[1, 10**30]], "graph is not connected"),
    (10**12, [[1, 10**11], [10**11, 1]], f"duplicate edge (1, {10**11})"),
], ids=["true", "float", "huge", "zero", "short", "flat", "loop-last", "reversed-duplicate",
        "out-of-range", "disconnected", "huge-n", "huge-n-duplicate"])
def test_graph_file_faults_end_in_one_error_line(tmp_path, capsys, n, edges, message):
    path = write(tmp_path, "g.json", {"n": n, "edges": edges})
    assert run(capsys, ["line", path]) == (1, "", f"error: {message}\n")


def test_check_obstruction_command(tmp_path, capsys):
    zpath = paw_gain_file(tmp_path, "zeta.json",
                          ["-k", "1", "1", "1", "-j"], DIAMOND)
    rpath = write(tmp_path, "rep.json", {"builtin": "q8_2dim"})
    code, out, _ = run(capsys, ["check", "obstruction", zpath,
                                "--rep", rpath, "--s2", "-1"])
    data = json.loads(out)
    assert code == 0
    assert data["violated"] == "gainline"
    assert data["min_eig"] == pytest.approx(-2.1357789, abs=1e-6)
    assert data["max_eig"] == pytest.approx(2.1357789, abs=1e-6)

    # a gain-line graph whose regular spectrum breaches both -2 and 2: the
    # two-sided rule needs an irreducible pi, so a false claim of it is refused
    code, out, _ = run(capsys, ["gainline", paw_gain_file(tmp_path),
                                "--s1", "-1", "--s2", "-1"])
    zpath = write(tmp_path, "line.json", json.loads(out))
    regular = gl.representation_to_dict(gl.regular_representation(gl.quaternion8()))
    unclaimed = {key: regular[key] for key in ("degree", "images")}
    for rep in (regular | {"irreducible": True}, regular, unclaimed):
        argv = ["check", "obstruction", zpath, "--rep", write(tmp_path, "regular.json", rep),
                "--s2", "-1"]
        code, out, err = run(capsys, argv)
        if rep.get("irreducible"):
            assert code == 1 and out == "" and err.startswith("error:")
            assert err.count("\n") == 1
            continue
        data = json.loads(out)
        assert code == 0 and data["violated"] is None, rep.keys()
        assert data["min_eig"] < -2 and data["max_eig"] > 2


def test_spectrum_command(tmp_path, capsys):
    zpath = paw_gain_file(tmp_path, "zeta.json",
                          ["-k", "1", "1", "1", "-j"], DIAMOND)
    rpath = write(tmp_path, "rep.json", {"builtin": "q8_2dim"})
    code, out, _ = run(capsys, ["spectrum", zpath, rpath])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,eigenvalue,multiplicity_group"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    assert [r[2] for r in rows] == ["0", "0", "1", "1", "2", "2", "3", "3"]


def test_spectrum_refuses_regular_representation_of_order_512(tmp_path, capsys):
    data = {"graph": gl.graph_to_dict(PAW), "group": {"family": "cyclic", "n": 512},
            "gains": ["1", "2", "3", "4"]}
    gain_path = write(tmp_path, "z512.json", data)
    rep_path = write(tmp_path, "rep.json", {"builtin": "regular"})
    start = time.perf_counter()
    code, out, err = run(capsys, ["spectrum", gain_path, rep_path])
    assert code == 1 and out == "" and err.startswith("error:")
    assert time.perf_counter() - start < 1.0


def test_spectrum_refuses_represented_matrix_above_cap(tmp_path, capsys, monkeypatch):
    # a 1000-vertex path over Z128: the regular representation is allowed, but
    # its 128000 x 128000 represented adjacency is refused before allocation,
    # and before any invariant block is looked for
    def no_blocks(C):
        raise AssertionError("invariant blocks looked for before the cap")

    monkeypatch.setattr(np.linalg, "eigh", no_blocks)
    n = 1000
    data = {"graph": {"n": n, "edges": [[v, v + 1] for v in range(1, n)]},
            "group": {"family": "cyclic", "n": 128},
            "gains": [str(v % 128) for v in range(n - 1)]}
    gain_path = write(tmp_path, "path_z128.json", data)
    rep_path = write(tmp_path, "rep.json", {"builtin": "regular"})
    code, out, err = run(capsys, ["spectrum", gain_path, rep_path])
    assert (code, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1
    # a second run, so a cold BLAS load does not count, timed in CPU seconds
    # of this process, so a busy neighbour on the machine does not count either
    start = time.process_time()
    assert run(capsys, ["spectrum", gain_path, rep_path]) == (code, out, err)
    assert time.process_time() - start < 1.0


def csv_of(spec):
    """What csv.writer makes of a spectrum: the rows `spectrum` must print."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["index", "eigenvalue", "multiplicity_group"])
    for i, (lam, gid) in enumerate(zip(spec, gl.multiplicity_groups(spec))):
        writer.writerow([i, repr(lam), gid])
    return out.getvalue()


def test_irreducible_spectra_are_the_dense_solve_byte_for_byte(tmp_path, capsys):
    rng = random.Random(149)
    groups = {"trivial": gl.dihedral(4), "root_of_unity": gl.cyclic(8),
              "sign_character": gl.dihedral(4), "q8_2dim": gl.quaternion8()}
    for which, G in groups.items():
        rep_data = {"builtin": which} | ({"power": 3} if which == "root_of_unity" else {})
        rep = gl.representation_from_dict(rep_data, G)
        assert rep.irreducible
        rep_path = write(tmp_path, "rep.json", rep_data)
        for _ in range(3):
            graph = random_connected_graph(rng, 12)
            psi = gl.GainFunction(graph, G, tuple(rng.randrange(G.order) for _ in graph.edges))
            gain_path = write(tmp_path, "gain.json", gl.gain_to_dict(psi))
            dense = gl.hermitian_spectrum(gl.fourier(gl.gain_adjacency(psi), rep))
            assert run(capsys, ["spectrum", gain_path, rep_path]) == (0, csv_of(dense), "")
            code, out, err = run(capsys, ["check", "obstruction", gain_path, "--rep", rep_path])
            assert (code, err) == (0, "") and json.loads(out)["spectrum"] == list(dense)


def test_regular_spectrum_solves_no_side_above_a_block(tmp_path, capsys, monkeypatch):
    # regular D32 on 16 vertices: the dense side is 16 x 64 = 1024, and no
    # invariant block of the regular representation has degree above 4
    rng = random.Random(151)
    n, edges = 16, {(rng.randrange(v), v) for v in range(1, 16)}
    while len(edges) < 32:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    D32 = gl.dihedral(32)
    psi = gl.GainFunction(gl.SimpleGraph(n, tuple(sorted(edges))), D32,
                          tuple(rng.randrange(64) for _ in edges))
    gain_path = write(tmp_path, "d32.json", gl.gain_to_dict(psi))
    rep_path = write(tmp_path, "rep.json", {"builtin": "regular"})
    eigvalsh, sides = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M: sides.append(len(M)) or eigvalsh(M))
    code, out, err = run(capsys, ["spectrum", gain_path, rep_path])
    assert (code, err) == (0, "")
    assert sum(sides) == 16 * 64 and max(sides) <= 16 * 4
    monkeypatch.undo()
    dense = eigvalsh(gl.fourier(gl.gain_adjacency(psi), gl.regular_representation(D32)))
    values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    # the coefficient mass of a row of the gain adjacency is the vertex degree
    mass = psi.graph.degrees.max()
    assert np.abs(np.array(values) - dense).max() <= 1e-9 * mass


def test_spectrum_reads_a_huge_power_modulo_the_order(tmp_path, capsys):
    z4_gain = write(tmp_path, "z4.json", {"graph": gl.graph_to_dict(PAW),
                                          "group": {"family": "cyclic", "n": 4},
                                          "gains": ["1", "2", "3", "0"]})
    outs = []
    for power in (10**400 + 1, 1):
        rep_path = write(tmp_path, "rep.json", {"builtin": "root_of_unity", "power": power})
        code, out, err = run(capsys, ["spectrum", z4_gain, rep_path])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_error_paths_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, ["group", str(tmp_path / "missing.json")])
    assert code == 1 and "error:" in err

    bad = tmp_path / "bad.json"
    for raw in (b"{not json", b"[" * 100000 + b"]" * 100000, b'{"n": ' + b"1" * 5000 + b"}",
                b'\xff\xfe{"family": "sign"}'):
        bad.write_bytes(raw)
        code, _, err = run(capsys, ["group", str(bad)])
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1, raw[:20]

    disconnected = write(tmp_path, "g.json", {"n": 4, "edges": [[1, 2], [3, 4]]})
    code, _, err = run(capsys, ["line", disconnected])
    assert code == 1 and "error:" in err

    for spec in ({"family": "cyclic"}, {"family": "cyclic", "n": "x"},
                 {"family": "cyclic", "n": 1.5}, {"family": "cyclic", "n": True},
                 {"family": "dihedral", "n": "3"},
                 {"family": "direct_product", "left": {"family": "sign"}},
                 {"family": "cyclic", "n": 100000},
                 {"family": "dihedral", "n": 100000},
                 {"family": "direct_product", "left": {"family": "cyclic", "n": 32},
                  "right": {"family": "cyclic", "n": 32}},
                 {"family": "custom", "name": 5, "labels": ["e", "a"],
                  "table": [[0, 1], [1, 0]]},
                 {"family": "custom", "name": None, "labels": ["e", "a"],
                  "table": [[0, 1], [1, 0]]}):
        code, _, err = run(capsys, ["group", write(tmp_path, "grp.json", spec)])
        assert code == 1 and err.startswith("error:"), spec
        assert err.count("\n") == 1, spec

    for data in ({"n": 2, "edges": [["a", 2]]}, {"n": "x", "edges": [[1, 2]]},
                 {"n": 3, "edges": [[1, 2, 3]]}, {"n": float("inf"), "edges": [[1, 2]]},
                 {"n": 2, "edges": [[1, float("inf")]]},
                 {"n": 10**12, "edges": [[1, 2]]}, {"n": 2.7, "edges": [[1, 2]]},
                 {"n": True, "edges": [[1, 2]]}, {"n": 2, "edges": [["1", 2.5]]},
                 {"n": 2, "edges": [[True, 2]]}, {"n": 2, "edges": [[1, 2.0]]}):
        code, _, err = run(capsys, ["line", write(tmp_path, "bad_graph.json", data)])
        assert code == 1 and err.startswith("error:"), data
        assert err.count("\n") == 1, data

    for labels, table in ((["e", "a"], [["x", "1"], ["1", "0"]]), (5, [[0]]),
                          (["e"], [1]), ([[1]], [[0]]), (["e"], 5),
                          ([1, "1"], [[0, 1], [1, 0]]), (["e"], [[float("inf")]]),
                          ([1, "b"], [[0, 1], [1, 0]]), ("ab", [[0, 1], [1, 0]])):
        custom = {"family": "custom", "labels": labels, "table": table}
        code, _, err = run(capsys, ["group", write(tmp_path, "grp.json", custom)])
        assert code == 1 and err.startswith("error:"), custom
    for entry in (1.5, 1.0, "1", True):
        custom = {"family": "custom", "labels": ["e", "a"], "table": [[0, entry], [1, 0]]}
        code, out, err = run(capsys, ["group", write(tmp_path, "grp.json", custom)])
        assert (code, out, err) == (
            1, "", "error: multiplication table entries must be integers\n"), custom
    inf_order = {"family": "cyclic", "n": float("inf")}
    code, _, err = run(capsys, ["group", write(tmp_path, "grp.json", inf_order)])
    assert code == 1 and err.startswith("error:")

    gain_data = gl.gain_to_dict(q8_gain(PAW, PAW_GAINS))
    gain_data["gains"] = 5
    bad_gain = write(tmp_path, "g5.json", gain_data)
    code, _, err = run(capsys, ["check", "balance", bad_gain])
    assert code == 1 and err.startswith("error:")

    for gains in ([3], [[1]], [None]):
        k2_z4 = {"graph": {"n": 2, "edges": [[1, 2]]},
                 "group": {"family": "cyclic", "n": 4}, "gains": gains}
        code, out, err = run(capsys, ["check", "balance", write(tmp_path, "k2.json", k2_z4)])
        assert code == 1 and out == "" and err.startswith("error:"), gains
        assert err.count("\n") == 1, gains

    for data in (5, []):
        top = write(tmp_path, "top.json", data)
        code, _, err = run(capsys, ["check", "balance", top])
        assert code == 1 and err.startswith("error:"), data

    code, _, err = run(capsys, ["line", write(tmp_path, "e5.json", {"n": 2, "edges": 5})])
    assert code == 1 and err.startswith("error:")

    z4_gain = write(tmp_path, "z4.json", {"graph": gl.graph_to_dict(PAW),
                                          "group": {"family": "cyclic", "n": 4},
                                          "gains": ["1", "2", "3", "0"]})
    for rep in (5, {"degree": 1, "images": 5}, {"degree": "x", "images": {}},
                {"builtin": "root_of_unity", "power": "x"}, {"builtin": [1]},
                {"degree": 2, "images": {"1": 5}}, {"degree": 0, "images": {}},
                {"degree": float("inf"), "images": {}},
                {"builtin": "root_of_unity", "power": float("inf")},
                {"degree": 1.7, "images": {}}, {"degree": True, "images": {}},
                {"builtin": "root_of_unity", "power": 1.9},
                {"builtin": "root_of_unity", "power": True},
                {"degree": 1, "irreducible": "false",
                 "images": {a: [[[1, 0]]] for a in "0123"}},
                {"degree": 1, "irreducible": 1,
                 "images": {a: [[[1, 0]]] for a in "0123"}},
                {"builtin": "regular", "power": 2},
                {"degree": 1, "images": {"0": [[[1, 0, 0]]]}},
                {"degree": 1, "images": {a: [[[float("nan"), 0]]] for a in "0123"}},
                {"degree": 1, "images": {a: [[[1, 0]]] for a in "123"} | {"0": [[["1", 0]]]}},
                {"degree": 1, "images": {a: [[[1, 0]]] for a in "123"} | {"0": [[[True, 0]]]}},
                {"degree": 1, "images": {a: [[[1, 0]]] for a in "123"} | {"0": [[[None, 0]]]}},
                {"degree": 1, "images": {a: [[[1, 0]]] for a in "123"} | {"0": [[[10**400, 0]]]}}):
        rep_path = write(tmp_path, "rep.json", rep)
        code, out, err = run(capsys, ["spectrum", z4_gain, rep_path])
        assert code == 1 and out == "" and err.startswith("error:"), rep
        assert err.count("\n") == 1, rep

    zpath = paw_gain_file(tmp_path, "zeta.json", ["-k", "1", "1", "1", "-j"], DIAMOND)
    rpath = write(tmp_path, "rep.json", {"builtin": "q8_2dim"})
    for tol in ("nan", "-5", "inf"):
        code, out, err = run(capsys, ["check", "obstruction", zpath, "--rep", rpath,
                                      "--s2", "-1", "--tol", tol])
        assert code == 1 and out == "" and err.startswith("error:"), tol
        assert err.count("\n") == 1, tol

    gain_path = paw_gain_file(tmp_path)
    for data in ({"a": 1}, [[1]], 7, [[1.5, 2], [2, 3], [3, 4], [2, 4]],
                 [[True, 2], [2, 3], [3, 4], [2, 4]], [["1", 2], [2, 3], [3, 4], [2, 4]]):
        opath = write(tmp_path, "orient.json", data)
        code, _, err = run(capsys, ["gainline", gain_path, "--orientation", opath])
        assert code == 1 and err.startswith("error:"), data
        assert err.count("\n") == 1, data


def test_named_faults_reach_the_cli_as_one_error_line(tmp_path, capsys):
    twins = write(tmp_path, "twins.json", {"family": "custom", "labels": ["e", "e"],
                                           "table": [[0, 1], [1, 0]]})
    assert run(capsys, ["group", twins]) == (
        1, "", "error: element labels must be unique\n")
    # the last pair joins v2 and v3, but the fourth edge of the paw is v2-v4
    orientation = write(tmp_path, "orient.json", [[1, 2], [2, 3], [3, 4], [2, 3]])
    argv = ["gainline", paw_gain_file(tmp_path), "--orientation", orientation]
    assert run(capsys, argv) == (
        1, "", "error: oriented pair (2, 3) does not match edge (2, 4)\n")


def test_s2_checks_agree_across_commands(tmp_path, capsys):
    # --s2 i over Q8: not a central weak involution, refused by every command
    gain_path = paw_gain_file(tmp_path)
    zeta = gl.gain_line(q8_gain(PAW, PAW_GAINS), gl.default_orientation(PAW),
                        gl.PhaseContext(gl.quaternion8(), 0, 0))
    zeta_path = write(tmp_path, "zeta.json", gl.gain_to_dict(zeta))
    root = write(tmp_path, "root.json", gl.graph_to_dict(PAW))
    rep = write(tmp_path, "rep.json", {"builtin": "q8_2dim"})
    for argv in (["gainline", gain_path],
                 ["check", "gainline", zeta_path, "--root", root],
                 ["check", "obstruction", zeta_path, "--rep", rep]):
        code, out, err = run(capsys, argv + ["--s2", "i"])
        assert (code, out, err) == (
            1, "", "error: s2=i is not a central weak involution of Q8\n"), argv


def test_roundtrip_all_file_formats(tmp_path):
    # every to_dict/from_dict pair survives a JSON round trip on disk
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.element("-1"), Q8.element("-1"))
    psi = q8_gain(PAW, PAW_GAINS)
    H = gl.phase_from_orientation(psi, gl.default_orientation(PAW), ctx)
    rep = gl.q8_representation(Q8)
    cases = [
        (gl.group_to_dict(Q8), gl.build_group, Q8),
        (gl.graph_to_dict(PAW), gl.graph_from_dict, PAW),
        (gl.gain_to_dict(psi), gl.gain_from_dict, psi),
        (gl.phase_to_dict(H), gl.phase_from_dict, H),
    ]
    for data, parse, original in cases:
        path = tmp_path / "file.json"
        path.write_text(json.dumps(data))
        assert parse(json.loads(path.read_text())) == original
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(gl.representation_to_dict(rep)))
    back = gl.representation_from_dict(json.loads(path.read_text()), Q8)
    assert abs(back.images - rep.images).max() < 1e-12


def test_closed_pipe_exits_quietly(tmp_path):
    # the reader closes after one line of a table echo far larger than the pipe
    path = write(tmp_path, "z512.json", {"family": "cyclic", "n": 512})
    src = str(Path(gl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "gainline.cli", "group", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def canonical(out):
    """The bytes json.dump(indent=2, sort_keys=True) writes for ``out``'s value."""
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


TEXTS = st.text(max_size=8) | st.sampled_from(["é", "λ", "\U0001F600", "𝔾_8", "a\"\\\n\x00"])
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**64, max_value=2**200).flatmap(
               lambda k: st.sampled_from([k, -k]))
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308])
           | TEXTS)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=6)
                      | st.lists(children, max_size=6).map(tuple)
                      | st.dictionaries(TEXTS, children, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, database=None, max_examples=300)
@given(JSON_VALUES)
@example({"é": [1, "λ\U0001F600", (2, "x"), [], {}, [[]], {"\U0001F600": {}}, 3],
          "": [float("nan"), float("inf"), float("-inf"), -0.0, 1e308, 2**70, -2**70],
          "b": (True, False, None, [True, [False, [None]]], 0.5, "")})
@example([[[0, 1], [2, 3]], [[1, 3], [2, 4]], [[0, True]], [[0], [1, 2]], [[], []],
          [[2**70, 0]], [[-1, 0]], [[0, 1.0]], ([0, 1],), [(0, 1)], [[0, 1], "x"]])
def test_emit_writes_the_bytes_of_json_dumps(value):
    buf = io.StringIO()
    with redirect_stdout(buf):
        _emit(value)
    assert buf.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_every_json_subcommand_prints_canonical_json(tmp_path, capsys):
    # a custom Z3 with non-ASCII labels, through every command that echoes labels
    z3 = {"family": "custom", "name": "Z3-λ", "labels": ["e", "é", "λ"],
          "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    z3_gain = write(tmp_path, "z3_gain.json", {"graph": gl.graph_to_dict(PAW),
                                               "group": z3, "gains": ["é", "λ", "é", "e"]})
    z3_line = write(tmp_path, "z3_line.json", json.loads(run(capsys, ["gainline", z3_gain])[1]))
    q8_line = write(tmp_path, "q8_line.json", gl.gain_to_dict(gl.gain_line(
        q8_gain(PAW, PAW_GAINS), gl.default_orientation(PAW),
        gl.PhaseContext(gl.quaternion8(), gl.quaternion8().element("-1"),
                        gl.quaternion8().element("-1")))))
    q8_gain_path = paw_gain_file(tmp_path)
    switched = write(tmp_path, "switched.json", gl.gain_to_dict(
        gl.switch(q8_gain(PAW, PAW_GAINS), (gl.quaternion8().element("j"),) * 4)))
    balanced = paw_gain_file(tmp_path, "balanced.json", ["1", "1", "1", "1"])
    root = write(tmp_path, "root.json", gl.graph_to_dict(PAW))
    diamond = paw_gain_file(tmp_path, "diamond.json", ["-k", "1", "1", "1", "-j"], DIAMOND)
    q8_2dim = write(tmp_path, "q8_2dim.json", {"builtin": "q8_2dim"})
    argvs = [
        ["group", write(tmp_path, "q8.json", {"family": "quaternion8"})],
        ["group", write(tmp_path, "z3.json", z3)],
        ["line", root],
        ["gainline", q8_gain_path, "--s1", "-1", "--s2", "-1"],
        ["gainline", z3_gain],
        ["check", "balance", q8_gain_path],
        ["check", "balance", balanced],
        ["check", "balance", z3_gain],
        ["check", "switch-equiv", q8_gain_path, switched],
        ["check", "switch-equiv", z3_gain, z3_gain],
        ["check", "gainline", q8_line, "--root", root, "--s1", "-1", "--s2", "-1"],
        ["check", "obstruction", diamond, "--rep", q8_2dim, "--s2", "-1"],
        ["check", "obstruction", q8_line, "--rep", q8_2dim, "--s2", "-1"],
        ["check", "gainline", z3_line, "--root", root],
    ]
    for argv in argvs:
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), argv
        assert out == canonical(out), argv
    # the last gain-line check printed a witness grid of escaped labels
    entries = json.loads(out)["witness_phase"]["entries"]
    assert {"é", "λ"} & {label for row in entries for label in row}
    assert "\\u00e9" in out and out.isascii()


def test_spectrum_prints_the_rows_of_csv_writer(tmp_path, capsys):
    z4 = {"graph": gl.graph_to_dict(PAW), "group": {"family": "cyclic", "n": 4},
          "gains": ["1", "2", "3", "0"]}
    cases = [(gl.gain_to_dict(q8_gain(DIAMOND, ["-k", "1", "1", "1", "-j"])),
              {"builtin": "q8_2dim"}),
             (z4, {"builtin": "root_of_unity", "power": 1}),
             (z4, {"builtin": "regular"})]
    for gain_data, rep_data in cases:
        argv = ["spectrum", write(tmp_path, "gain.json", gain_data),
                write(tmp_path, "rep.json", rep_data)]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        psi = gl.gain_from_dict(gain_data)
        spec = gl.represented_spectrum(
            gl.gain_adjacency(psi), gl.representation_from_dict(rep_data, psi.group))
        assert out == csv_of(spec), rep_data


class WriteRecorder:
    """A stdout that keeps every write it is given."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_emit_streams_a_large_document(tmp_path, monkeypatch):
    # the order-512 table echo is 3.4 MB; no write may hold more than a chunk
    # and one row, and the document is not written whole
    path = write(tmp_path, "z512.json", {"family": "cyclic", "n": 512})
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(["group", path]) == 0
    out = "".join(recorder.writes)
    canonical_bytes = out == canonical(out)  # not in the assert: pytest would diff 3.4 MB
    assert canonical_bytes
    table = json.loads(out)["group"]["table"]
    # a row as it stands in the document, at nesting level 3, plus the
    # separator, key and bracket that may share its write
    row = max(len(json.dumps(r, indent=2).replace("\n", "\n" + "  " * 3)) for r in table)
    assert max(map(len, recorder.writes)) <= cli._CHUNK + row + len(',\n    "table": [\n      ')
    assert len(recorder.writes) >= len(out) // (cli._CHUNK + row)


def group_document(G):
    """What `gainline group` prints for G, from the library's plain forms."""
    return {"group": gl.group_to_dict(G), "order": G.order, "abelian": G.is_abelian(),
            "center": [G.label(g) for g in gl.center(G)],
            "central_weak_involutions": [G.label(g) for g in gl.central_weak_involutions(G)]}


def test_group_echo_is_the_bytes_of_json_dumps(tmp_path, capsys):
    rng = random.Random(163)
    builtins = [{"family": "cyclic", "n": 512}, {"family": "dihedral", "n": 256},
                {"family": "direct_product", "left": {"family": "quaternion8"},
                 "right": {"family": "cyclic", "n": 64}}]
    specs = builtins + [gl.group_to_dict(relabeled(rng, gl.build_group(spec)))
                        for spec in builtins]
    specs += [{"family": "cyclic", "n": 1},
              {"family": "custom", "name": "two", "labels": ["e", "a"],
               "table": [[0, 1], [1, 0]]}]
    for spec in specs:
        code, out, err = run(capsys, ["group", write(tmp_path, "group.json", spec)])
        expected = json.dumps(group_document(gl.build_group(spec)), indent=2,
                              sort_keys=True) + "\n"
        same = out == expected  # not in the assert: pytest would diff 3.4 MB
        assert (code, err, same) == (0, "", True), spec.get("n", spec.get("name"))


def test_group_echo_builds_no_list_copy_of_the_table(tmp_path, capsys, monkeypatch):
    # every command that echoes a group, a graph, a gain or a phase writes
    # its arrays as they are stored, never through the plain list forms
    rng = random.Random(173)
    D256, s = gl.dihedral(256), "r128"
    graph = random_connected_graph(rng, 12)
    psi = gl.GainFunction(graph, D256, tuple(rng.randrange(512) for _ in range(graph.m)))
    ctx = gl.PhaseContext(D256, D256.element(s), D256.element(s))
    zeta = gl.gain_line(psi, gl.default_orientation(graph), ctx)
    data, H = gl.line_graph(graph), gl.recognize_gain_line(zeta, graph, ctx)
    flags = ["--s1", s, "--s2", s]
    cases = [
        (["group", write(tmp_path, "z512.json", {"family": "cyclic", "n": 512})],
         group_document(gl.cyclic(512))),
        (["line", write(tmp_path, "graph.json", gl.graph_to_dict(graph))],
         {"line": gl.graph_to_dict(data.line),
          "shared_vertex": (data.shared_vertex + 1).tolist()}),
        (["gainline", write(tmp_path, "psi.json", gl.gain_to_dict(psi))] + flags,
         gl.gain_to_dict(zeta)),
        (["check", "gainline", write(tmp_path, "zeta.json", gl.gain_to_dict(zeta)),
          "--root", write(tmp_path, "root.json", gl.graph_to_dict(graph))] + flags,
         {"gain_line": True, "witness_phase": gl.phase_to_dict(H)}),
    ]

    def refuse(value):
        raise AssertionError("an array was copied into lists")

    names = ("graph_to_dict", "group_to_dict", "gain_to_dict", "phase_to_dict")
    for argv, document in cases:
        for module in [m for key, m in sys.modules.items()
                       if key == "gainline" or key.startswith("gainline.")]:
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        code, out, err = run(capsys, argv)
        monkeypatch.undo()
        same = out == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert (code, err, same) == (0, "", True), argv[0]


def test_gainline_and_its_check_echo_the_bytes_of_json_dumps(tmp_path, capsys):
    # D32 is lift's group and D256 has order 512; r(n/2) is central with
    # r(n/2)^2 = 1, so it serves as s1 and s2
    rng = random.Random(167)
    for G, s in ((gl.dihedral(32), "r16"), (gl.dihedral(256), "r128")):
        graph = random_connected_graph(rng, 12)
        psi = gl.GainFunction(graph, G, tuple(rng.randrange(G.order) for _ in range(graph.m)))
        ctx = gl.PhaseContext(G, G.element(s), G.element(s))
        zeta = gl.gain_line(psi, gl.default_orientation(graph), ctx)
        H = gl.recognize_gain_line(zeta, graph, ctx)
        gains = write(tmp_path, "psi.json", gl.gain_to_dict(psi))
        code, out, err = run(capsys, ["gainline", gains, "--s1", s, "--s2", s])
        expected = json.dumps(gl.gain_to_dict(zeta), indent=2, sort_keys=True) + "\n"
        assert (code, err, out == expected) == (0, "", True), G.order
        argv = ["check", "gainline", write(tmp_path, "zeta.json", json.loads(out)),
                "--root", write(tmp_path, "root.json", gl.graph_to_dict(graph)),
                "--s1", s, "--s2", s]
        code, out, err = run(capsys, argv)
        expected = json.dumps({"gain_line": True, "witness_phase": gl.phase_to_dict(H)},
                              indent=2, sort_keys=True) + "\n"
        assert (code, err, out == expected) == (0, "", True), G.order


def plain(value):
    """``value`` with every array replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def array_documents():
    rng = np.random.default_rng(167)
    arrays = [rng.integers(0, rows * cols, (rows, cols)).astype(dtype)
              for dtype in (np.int8, np.int32, np.intp, np.uint16)
              for rows, cols in ((1, 1), (1, 9), (9, 1), (6, 6), (11, 7))]
    table = gl.dihedral(6).table
    assert not table.flags.writeable
    arrays += [table, table.T]
    # written as their tolist(): a negative entry, an entry past the size,
    # no entries, one or three axes, floats and bools
    arrays += [np.array([[0, -1]], dtype=np.int8), np.array([[0, 2]]),
               np.zeros((2, 0), dtype=np.int32), np.zeros((0, 3), dtype=int),
               np.arange(3), np.arange(8).reshape(2, 2, 2), np.array([[1.5, -0.0]]),
               np.array([[True, False]])]
    return [{"table": array, "nested": [array, {"rows": array}], "n": 1} for array in arrays]


def test_emit_writes_integer_arrays_as_json_dumps_of_their_lists(capsys, monkeypatch):
    documents = array_documents()
    try:
        for encoder in ("C", "Python"):
            for document in documents:
                _emit(document)
                assert capsys.readouterr().out == json.dumps(
                    plain(document), indent=2, sort_keys=True) + "\n", (encoder, document)
            # a Python built without the _json accelerator has no C encoder
            monkeypatch.setattr(cli, "c_make_encoder", None)
    finally:
        monkeypatch.undo()


def test_rows_of_a_list_are_written_without_a_call_each(tmp_path, capsys, monkeypatch):
    # the edges of a line graph are one array of rows, however many it has
    calls = []
    encode = cli._encode
    monkeypatch.setattr(cli, "_encode", lambda *args: calls.append(1) or encode(*args))
    rng = random.Random(157)
    counts = []
    for n in (10, 1000):
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < 2 * n:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        graph = gl.SimpleGraph(n, tuple(sorted(edges)))
        assert run(capsys, ["line", write(tmp_path, "g.json", gl.graph_to_dict(graph))])[0] == 0
        counts.append((len(calls), gl.line_graph(graph).line.m))
        calls.clear()
    (small, small_rows), (large, large_rows) = counts
    assert large_rows > 50 * small_rows and large == small


def recognized(tmp_path, H, s2):
    """The `check gainline` argv for psi_line(H) over H's root, and the
    verdict the library reaches on it."""
    G = H.group
    ctx = gl.PhaseContext(G, G.identity, s2)
    zeta = gl.psi_line(H, ctx)
    witness = gl.recognize_gain_line(zeta, H.graph, ctx)
    argv = ["check", "gainline", write(tmp_path, "zeta.json", gl.gain_to_dict(zeta)),
            "--root", write(tmp_path, "root.json", gl.graph_to_dict(H.graph)),
            "--s2", G.label(s2)]
    return argv, {"gain_line": True, "witness_phase": gl.phase_to_dict(witness)}


def test_check_gainline_prints_the_witness_of_json_dumps(tmp_path, capsys):
    rng = random.Random(131)
    escaped = gl.build_group({"family": "custom", "name": "Z3 \"escaped\"",
                              "labels": ["e", 'q"\\', "\u00e9\U0001F600"],
                              "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    c4 = gl.SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert incidence_lists(c4)[0] == (0, 3)  # v1 is on the first and the last edge
    cases = [
        (random_phase(rng, PAW, gl.cyclic(4)), "2"),  # the identity "0" is also the zero
        (random_phase(rng, PAW, escaped), "e"),
        (random_phase(rng, c4, gl.dihedral(4)), "r2"),
        (random_phase(rng, random_connected_graph(rng, 40), gl.quaternion8()), "-1"),
        (random_phase(rng, random_connected_graph(rng, 40), gl.dihedral(32)), "r16"),
    ]
    for H, s2 in cases:
        argv, verdict = recognized(tmp_path, H, H.group.element(s2))
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), H.group
        assert out == json.dumps(verdict, indent=2, sort_keys=True) + "\n", H.group
    # a K2 root (m = 1) has the one-vertex line graph, and the one-vertex
    # graph has empty rows: their witness rows go through the same writer
    # from the library
    for graph in (K2, gl.SimpleGraph(1, ())):
        H = random_phase(rng, graph, gl.quaternion8())
        _emit({"gain_line": True, "witness_phase": _phase_wire(H)})
        verdict = {"gain_line": True, "witness_phase": gl.phase_to_dict(H)}
        assert capsys.readouterr().out == json.dumps(verdict, indent=2, sort_keys=True) + "\n"


def test_check_gainline_streams_its_witness_rows(tmp_path, monkeypatch):
    # a 1000-vertex, 1500-edge root over Q8: the witness grid has 1.5 M cells,
    # all but 3000 of them the structural zero, and is never built
    rng = random.Random(137)
    n, m = 1000, 1500
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    root = gl.SimpleGraph(n, tuple(sorted(edges)))
    Q8 = gl.quaternion8()
    H = gl.GPhase(root, Q8, tuple(
        (rng.randrange(8), rng.randrange(8)) for _ in range(m)))
    argv, verdict = recognized(tmp_path, H, Q8.element("-1"))

    def no_grid(self):
        raise AssertionError("the dense witness grid was built")

    monkeypatch.setattr(_SparseRows, "tolist", no_grid)
    recorder = WriteRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    monkeypatch.undo()
    out = "".join(recorder.writes)
    expected = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    same = out == expected  # not in the assert: pytest would diff 20 MB
    assert same
    # a row as it stands in the document, at nesting level 3, plus the
    # separator, keys and brackets that may share its write
    row = max(len(json.dumps(r, indent=2).replace("\n", "\n" + "  " * 3))
              for r in verdict["witness_phase"]["entries"])
    assert max(map(len, recorder.writes)) <= cli._CHUNK + row + len(
        ',\n  "witness_phase": {\n    "entries": [\n      ')
    assert len(recorder.writes) >= len(out) // (cli._CHUNK + row)


def test_line_graphs_past_the_cap_are_one_error_line(tmp_path, capsys):
    # K1,1415, the smallest star past the cap, through both commands that
    # build a line graph
    star = {"n": 1416, "edges": [[1, v] for v in range(2, 1417)]}
    gains = {"graph": star, "group": {"family": "quaternion8"}, "gains": ["i"] * 1415}
    for argv in (["line", write(tmp_path, "star.json", star)],
                 ["gainline", write(tmp_path, "star_q8.json", gains), "--s2", "-1"]):
        assert run(capsys, argv) == (
            1, "", "error: line graph of 1000405 edges exceeds cap 1000000\n")


def test_check_gainline_refuses_a_witness_past_the_cap(tmp_path, capsys, monkeypatch):
    # a root of 1000 vertices and 4001 edges has a 4 001 000-entry witness,
    # just past the cap: refused before any byte goes out, while a negative
    # verdict on the same root, which writes no witness, is still printed
    rng = random.Random(151)
    n, m = 1000, 4001
    assert (n - 1) * m <= gl.phase.MAX_PHASE_CELLS < n * m
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    root = gl.SimpleGraph(n, tuple(sorted(edges)))
    Q8 = gl.quaternion8()
    ctx = gl.PhaseContext(Q8, Q8.identity, Q8.element("-1"))
    zeta = gl.gain_line(gl.GainFunction(root, Q8, tuple(rng.randrange(8) for _ in range(m))),
                        gl.default_orientation(root), ctx)
    changed = gl.GainFunction(zeta.graph, Q8, [(zeta.forward[0] + 1) % 8] + zeta.forward[1:].tolist())
    assert gl.recognize_gain_line(changed, root, ctx) is None
    root_path = write(tmp_path, "root.json", gl.graph_to_dict(root))
    argv = ["check", "gainline", write(tmp_path, "zeta.json", gl.gain_to_dict(zeta)),
            "--root", root_path, "--s2", "-1"]
    assert run(capsys, argv) == (
        1, "", "error: phase of 1000x4001 entries exceeds cap 4000000\n")
    argv[2] = write(tmp_path, "changed.json", gl.gain_to_dict(changed))
    assert run(capsys, argv) == (0, '{\n  "gain_line": false\n}\n', "")
    # the cap admits a witness of exactly MAX_PHASE_CELLS entries: the paw's 16
    argv, verdict = recognized(tmp_path, random_phase(rng, PAW, Q8), Q8.element("-1"))
    monkeypatch.setattr(gl.phase, "MAX_PHASE_CELLS", 16)
    assert run(capsys, argv) == (0, json.dumps(verdict, indent=2, sort_keys=True) + "\n", "")
    monkeypatch.setattr(gl.phase, "MAX_PHASE_CELLS", 15)
    assert run(capsys, argv) == (1, "", "error: phase of 4x4 entries exceeds cap 15\n")


def test_emit_falls_back_to_the_python_encoder(capsys, monkeypatch):
    # a Python built without the _json accelerator has no C encoder
    z3 = gl.build_group({"family": "custom", "labels": ["e", "\u00e9", "\u03bb"],
                         "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
    data = gl.line_graph(PAW)
    H = random_phase(random.Random(157), DIAMOND, z3)
    cases = [({"group": gl.group_to_dict(z3), "order": 3, "abelian": True}, None),
             ({"line": gl.graph_to_dict(data.line),
               "shared_vertex": (data.shared_vertex + 1).tolist()}, None),
             ({"gain_line": True, "witness_phase": _phase_wire(H)},
              {"gain_line": True, "witness_phase": gl.phase_to_dict(H)})]
    monkeypatch.setattr(cli, "c_make_encoder", None)
    try:
        for value, plain in cases:
            _emit(value)
            assert capsys.readouterr().out == json.dumps(
                plain or value, indent=2, sort_keys=True) + "\n"
        assert isinstance(cli._layout(0)[3].__self__, json.JSONEncoder)
    finally:
        monkeypatch.undo()
