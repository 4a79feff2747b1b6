"""Fuzzing of the JSON input boundary.

Every parser and every subcommand must answer arbitrary JSON, and every
one-slot mutation of a valid file, with a result (exit 0) or a single
``error:`` line (exit 1); nothing else may escape.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import gainline as gl
from gainline.cli import main

from helpers import PAW, q8_gain

FUZZ = settings(derandomize=True, database=None, deadline=5000, max_examples=40,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

#: Values at the edges of what JSON can carry.
EXTREMES = st.sampled_from([0, -1, 2**63, 10**400, -10**400, 1e308, float("nan"),
                            float("inf"), float("-inf"), "", "0", [], {}, [[]]])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | EXTREMES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)

Q8 = gl.quaternion8()
CTX = gl.PhaseContext(Q8, Q8.element("-1"), Q8.element("-1"))
PSI = q8_gain(PAW, ["-i", "-j", "-k", "-i"])
ZETA = gl.gain_line(PSI, gl.default_orientation(PAW), CTX)

#: One valid document per file kind.
VALID = {
    "group": {"family": "direct_product", "left": {"family": "cyclic", "n": 2},
              "right": {"family": "custom", "name": "z2", "labels": ["e", "a"],
                        "table": [[0, 1], [1, 0]]}},
    "graph": gl.graph_to_dict(PAW),
    "gain": gl.gain_to_dict(PSI),
    "z4_gain": gl.gain_to_dict(gl.GainFunction(PAW, gl.cyclic(4), (1, 2, 3, 0))),
    "zeta": gl.gain_to_dict(ZETA),
    "phase": gl.phase_to_dict(gl.phase_from_orientation(PSI, gl.default_orientation(PAW), CTX)),
    "rep": gl.representation_to_dict(gl.q8_representation(Q8)),
    "builtin": {"builtin": "root_of_unity", "power": 3},
    "orientation": [[2, 1], [2, 3], [3, 4], [4, 2]],
}

#: Parsers, each with the kind of document it reads.
PARSERS = [
    (gl.build_group, "group"),
    (gl.graph_from_dict, "graph"),
    (gl.gain_from_dict, "gain"),
    (gl.phase_from_dict, "phase"),
    (lambda data: gl.representation_from_dict(data, Q8), "rep"),
    (lambda data: gl.representation_from_dict(data, gl.cyclic(4)), "builtin"),
]

#: Command lines, with the kind of the one file that is fuzzed (``{}``) and
#: valid files for the rest.
COMMANDS = [
    (["group", "{}"], "group"),
    (["line", "{}"], "graph"),
    (["gainline", "{}", "--s1", "-1", "--s2", "-1"], "gain"),
    (["gainline", "@gain", "--orientation", "{}"], "orientation"),
    (["check", "balance", "{}"], "gain"),
    (["check", "switch-equiv", "@gain", "{}"], "gain"),
    (["check", "gainline", "{}", "--root", "@graph", "--s1", "-1", "--s2", "-1"], "zeta"),
    (["check", "gainline", "@zeta", "--root", "{}"], "graph"),
    (["check", "obstruction", "@zeta", "--rep", "{}", "--s2", "-1"], "rep"),
    (["spectrum", "{}", "@rep"], "gain"),
    (["spectrum", "@gain", "{}"], "rep"),
    (["spectrum", "@z4_gain", "{}"], "builtin"),
]


def _slots(doc):
    """Every (container, key) pair inside ``doc``."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def _swapped(value):
    """The same content under another JSON type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return 0


@st.composite
def documents(draw, kind):
    """Arbitrary JSON, or the valid document of ``kind`` with one slot
    dropped, retyped or replaced by an extreme value or arbitrary JSON."""
    action = draw(st.sampled_from(["json", "drop", "swap", "extreme", "replace"]))
    if action == "json":
        return draw(JSON_VALUES)
    doc = copy.deepcopy(VALID[kind])
    node, key = draw(st.sampled_from(_slots(doc)))
    if action == "drop":
        node.pop(key)
    elif action == "swap":
        node[key] = _swapped(node[key])
    else:
        node[key] = draw(EXTREMES if action == "extreme" else JSON_VALUES)
    return doc


@pytest.mark.parametrize("parse, kind", PARSERS)
@FUZZ
@given(data=st.data())
def test_parsers_raise_only_gainline_errors(parse, kind, data):
    try:
        parse(data.draw(documents(kind)))
    except gl.GainlineError:
        pass


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    paths = {}
    for kind, doc in VALID.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_text(json.dumps(doc))
    paths["fuzzed"] = root / "fuzzed.json"
    return {kind: str(path) for kind, path in paths.items()}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_valid_documents_pass_every_command(files):
    for template, kind in COMMANDS:
        argv = [files[a[1:]] if a.startswith("@") else files[kind] if a == "{}" else a
                for a in template]
        code, out, err = _run(argv)
        assert (code, err) == (0, "") and out, argv


@pytest.mark.parametrize("template, kind", COMMANDS)
@FUZZ
@given(data=st.data())
def test_commands_exit_zero_or_print_one_error_line(files, template, kind, data):
    with open(files["fuzzed"], "w") as fh:
        json.dump(data.draw(documents(kind)), fh)
    argv = [files[a[1:]] if a.startswith("@") else files["fuzzed"] if a == "{}" else a
            for a in template]
    code, out, err = _run(argv)
    if code != 0:
        assert code == 1 and out == "" and err.startswith("error:"), err
        assert err.count("\n") == 1, err
