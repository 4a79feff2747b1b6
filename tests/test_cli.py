import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gainline as gl
from gainline.cli import main

from helpers import DIAMOND, PAW, q8_gain

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
    default = [[u + 1, v + 1] for u, v in gl.default_orientation(PAW).heads]
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


def test_spectrum_refuses_represented_matrix_above_cap(tmp_path, capsys):
    # a 1000-vertex path over Z128: the regular representation is allowed, but
    # its 128000 x 128000 represented adjacency is refused before allocation
    n = 1000
    data = {"graph": {"n": n, "edges": [[v, v + 1] for v in range(1, n)]},
            "group": {"family": "cyclic", "n": 128},
            "gains": [str(v % 128) for v in range(n - 1)]}
    gain_path = write(tmp_path, "path_z128.json", data)
    rep_path = write(tmp_path, "rep.json", {"builtin": "regular"})
    code, out, err = run(capsys, ["spectrum", gain_path, rep_path])
    assert (code, out) == (1, "") and err.startswith("error:") and err.count("\n") == 1
    start = time.perf_counter()  # a second run, so a cold BLAS load does not count
    assert run(capsys, ["spectrum", gain_path, rep_path]) == (code, out, err)
    assert time.perf_counter() - start < 1.0


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
