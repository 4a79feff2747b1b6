"""Benchmark worker: one process, one client, one request at a time.

Started by run.py as ``python3 bench/worker.py <src-dir>``.  It imports
gainline from ``<src-dir>`` (and refuses any other copy), reports ready, and
then answers JSON-line messages on stdin:

* ``{"op": "run", "argv": [...], "out": path}`` runs ``gainline.cli.main``
  with stdout written to ``path`` and replies with the latency, exit code and
  a hash of the output.  Only the call and the flush of its stdout are timed.
* ``{"op": "trace", "on": true}`` installs the tracing wrappers;
  ``{"op": "trace", "on": false}`` removes them and replies with the spans
  and counters recorded in between.
* ``{"op": "quit"}`` replies with the peak RSS of this process and exits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.realpath(sys.argv[1])
sys.path.insert(0, SRC)

import gainline  # noqa: E402
from gainline import cli  # noqa: E402

PROTOCOL = sys.stdout


def send(obj):
    PROTOCOL.write(json.dumps(obj) + "\n")
    PROTOCOL.flush()


def run(msg, tracer):
    err = io.StringIO()
    code, error = None, None
    if tracer is not None:
        tracer.begin(msg["id"])
    fh = open(msg["out"], "w", encoding="utf-8")
    t0 = time.perf_counter()
    try:
        with fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(err):
            code = cli.main(msg["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed request, not a dead worker
        error = traceback.format_exc(limit=4)
    latency = time.perf_counter() - t0
    digest = hashlib.sha256()
    with open(msg["out"], "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return {"latency_s": latency, "code": code, "error": error,
            "stderr": err.getvalue()[-400:], "bytes": os.path.getsize(msg["out"]),
            "sha256": digest.hexdigest()}


def main():
    where = os.path.realpath(gainline.__file__)
    if not where.startswith(os.path.join(SRC, "")):
        send({"error": f"gainline was imported from {where}, not from {SRC}"})
        return 3
    send({"ready": True, "gainline": where})
    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            send(run(msg, tracer))
        elif op == "trace" and msg["on"]:
            from trace_layers import Tracer
            tracer = Tracer()
            tracer.install()
            send({"ok": True})
        elif op == "trace":
            tracer.uninstall()
            send(tracer.dump())
            tracer = None
        elif op == "quit":
            send({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
