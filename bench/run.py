"""gainline benchmark: closed-loop CLI requests on seeded inputs.

    python3 bench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

The checkout root is the parent of this directory; gainline is imported from
its ``src/`` and from nowhere else.  One request is one ``gainline.cli.main``
call in a fresh worker process (bench/worker.py) with one client and no
threads.  run.py writes the inputs, times worker start-up, sends the
workload's fixed request list in whole passes (at least MIN_PASSES, more
while they fit in ``--seconds``), checks every output with the oracles in
oracles.py, and prints a summary followed by one JSON line.  See README.md.
"""

from __future__ import annotations

import os

#: BLAS threads in the worker and in the oracles: fixed, recorded, <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
from trace_layers import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS, Inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".bench_runs"
#: Worker start-ups per run; setup_s is their median.
SETUP_SPAWNS = 11
#: Hard stop for a whole run, well inside the 180 s a run may take.
DEADLINE_S = 170
#: Requests that must lie above the reported tail latency.
TAIL_BEYOND = 10
#: Whole passes every run makes, however long they take; more follow while
#: another fits in ``--seconds``.  The tail percentile is the one that has
#: TAIL_BEYOND requests beyond it in MIN_PASSES passes, whatever the count.
MIN_PASSES = 3
COUNTERS = ["group.eq.calls", "group.mul.calls", "graph.line_graph.line_edges",
            "algebra.entries", "algebra.nnz", "algebra.nnz_ratio",
            "representation.eig_dim", "representation.fourier.used_ratio",
            "cli.stdout_bytes"]
#: Per-layer values of one traced pass; the reported metrics add the overhead.
PASS_METRICS = [f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "self_ms")] + COUNTERS
LAYER_METRICS = PASS_METRICS + ["trace.overhead_ratio"]


class BenchError(Exception):
    pass


class Worker:
    """One gainline worker process and its JSON-line pipe."""

    def __init__(self, cwd, deadline):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=cwd, text=True)
        try:
            ready = self._read()
        except BenchError:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        if not ready.get("ready"):
            self.stop()
            raise BenchError(ready.get("error", "worker did not start"))

    def _read(self):
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise BenchError("the run passed its deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, msg):
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        """Stop the worker and return its peak RSS in kB."""
        try:
            return self.call({"op": "quit"})["maxrss_kb"]
        finally:
            self.stop()

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Pass:
    traced: bool
    responses: list
    trace: dict | None


def measure(worker, requests, seconds, trace, work):
    """Whole passes over the request list: MIN_PASSES of them, then more
    while another fits in ``seconds``.  When tracing, every second pass is
    traced."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            worker.call({"op": "trace", "on": True})
        t0 = time.perf_counter()
        responses = []
        for i, req in enumerate(requests):
            out = os.path.join("out", f"{i}.out" if not passes else "last.out")
            resp = worker.call({"op": "run", "id": len(passes) * len(requests) + i,
                                "argv": req.argv, "out": out})
            if passes and resp["sha256"] != passes[0].responses[i]["sha256"]:
                with open(os.path.join(work, out), encoding="utf-8") as fh:
                    resp["changed"] = oracles.check(req, fh.read())
            responses.append(resp)
        dump = worker.call({"op": "trace", "on": False}) if traced else None
        passes.append(Pass(traced, responses, dump))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - t0) > seconds:
            return passes


def failures(requests, passes, work):
    """(request index, pass, reason) for every failed request execution."""
    verdicts = []
    for i, req in enumerate(requests):
        path = os.path.join(work, "out", f"{i}.out")
        with open(path, encoding="utf-8") as fh:
            verdicts.append(oracles.check(req, fh.read()))
    out = []
    for p, pas in enumerate(passes):
        for i, resp in enumerate(pas.responses):
            if resp["error"] or resp["code"] != 0:
                reason = resp["error"] or f"exit {resp['code']}: {resp['stderr'].strip()}"
            else:
                reason = resp.get("changed", verdicts[i]) if p else verdicts[i]
            if reason:
                out.append((i, p, reason))
    return out


def end_to_end(passes, n, setup, rss_kb):
    samples = sorted(r["latency_s"] for p in passes for r in p.responses)
    s = len(samples)
    fixed = n * MIN_PASSES
    if fixed <= TAIL_BEYOND:
        raise BenchError(f"{fixed} requests leave no tail with {TAIL_BEYOND} beyond it")
    beyond = -(-TAIL_BEYOND * s // fixed)  # TAIL_BEYOND per MIN_PASSES passes, rounded up
    per_request = [statistics.median(p.responses[i]["latency_s"] for p in passes)
                   for i in range(n)]
    metrics = {
        "total_s": (sum(per_request), "s"),
        "req_p50_ms": (statistics.median(per_request) * 1e3, "ms"),
        "req_tail_ms": (samples[s - beyond - 1] * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {"total_s": f"sum of {n} per-request medians over {len(passes)} passes",
             "req_tail_ms": f"p{100 * (1 - TAIL_BEYOND / fixed):.1f} of {s} requests, "
                            f"{beyond} beyond it",
             "setup_s": f"median of {len(setup)} worker start-ups"}
    return metrics, notes


def _self_times(spans):
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, req in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


def layer_pass(pas, n, keep):
    """Per-layer values of one traced pass over the request indices ``keep``."""
    spans = pas.trace["spans"]
    values = Counter()
    for span, own in zip(spans, _self_times(spans)):
        name, req = span[0], span[4]
        if name in SPAN_NAMES and req % n in keep:
            values[f"{name}.calls"] += 1
            values[f"{name}.self_ms"] += own * 1e3
    counts = Counter()
    for req, c in pas.trace["counts"].items():
        if int(req) % n in keep:
            counts.update(c)
    for key in ("group.eq.calls", "group.mul.calls", "graph.line_graph.line_edges",
                "algebra.entries", "algebra.nnz", "representation.eig_dim"):
        values[key] = counts[key]
    values["algebra.nnz_ratio"] = (counts["algebra.nnz"] / counts["algebra.entries"]
                                   if counts["algebra.entries"] else 0.0)
    fourier = values["representation.fourier.calls"]
    values["representation.fourier.used_ratio"] = (
        counts["representation.fourier.used"] / fourier if fourier else 0.0)
    values["cli.stdout_bytes"] = sum(pas.responses[i]["bytes"] for i in keep)
    values["span_ms"] = sum(v for k, v in values.items() if k.endswith(".self_ms"))
    values["request_ms"] = sum(pas.responses[i]["latency_s"] for i in keep) * 1e3
    return values


def per_layer(passes, n, keep):
    traced = [p for p in passes if p.traced]
    per_pass = [layer_pass(p, n, keep) for p in traced]
    # Counts repeat exactly from pass to pass; median_low keeps them integers.
    values = {k: (statistics.median if k.endswith(("_ms", "_ratio"))
                  else statistics.median_low)(v[k] for v in per_pass)
              for k in PASS_METRICS + ["span_ms", "request_ms"]}
    plain = [p for p in passes if not p.traced]
    untraced = sum(statistics.median(p.responses[i]["latency_s"] for p in plain)
                   for i in keep)
    traced_s = sum(statistics.median(p.responses[i]["latency_s"] for p in traced)
                   for i in keep)
    values["trace.overhead_ratio"] = traced_s / untraced
    values["trace.coverage"] = values["span_ms"] / values["request_ms"]
    return values


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def provenance(inp):
    stats = [dict(r.stats, cmd=r.cmd) for r in inp.requests]
    n = len(stats)
    return {
        "inputs_sha256": inp.digest(),
        "requests": n,
        "requests_per_command": dict(Counter(s["cmd"] for s in stats)),
        "share_order_ge_64": sum(s.get("order", 0) >= 64 for s in stats) / n,
        "share_n_ge_400": sum(s.get("n", 0) >= 400 for s in stats) / n,
        "per_request": stats,
    }


def run(args):
    if not (ROOT / "src" / "gainline" / "__init__.py").is_file():
        raise BenchError(f"no gainline sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS)
    try:
        os.mkdir(os.path.join(work, "out"))
        t0 = time.perf_counter()
        inp = Inputs(work)
        WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"), inp)
        phases = {"inputs_s": time.perf_counter() - t0}
        requests, n = inp.requests, len(inp.requests)
        setup = []
        for _ in range(SETUP_SPAWNS - 1):
            w = Worker(work, deadline)
            setup.append(w.setup_s)
            w.stop()
        worker = Worker(work, deadline)
        setup.append(worker.setup_s)
        t0 = time.perf_counter()
        try:
            passes = measure(worker, requests, args.seconds, args.trace, work)
        finally:
            rss_kb = worker.close()
        phases["measure_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        failed = failures(requests, passes, work)
        phases["oracles_s"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = n * len(passes)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
              "passes": len(passes), "phases": phases, "provenance": provenance(inp),
              "failures": [{"request": i, "pass": p, "cmd": requests[i].cmd,
                            "argv": requests[i].argv, "reason": r}
                           for i, p, r in failed]}
    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  {n} requests x "
          f"{len(passes)} passes  blas_threads {BLAS_THREADS}  nproc {record['nproc']}  "
          + "  ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(f"inputs sha256 {prov['inputs_sha256']}  per command "
          f"{json.dumps(prov['requests_per_command'])}  share |G|>=64 "
          f"{prov['share_order_ge_64']:.3f}  share n>=400 {prov['share_n_ge_400']:.3f}")
    for f in record["failures"]:
        print(f"FAILED request {f['request']} pass {f['pass']} ({' '.join(f['argv'])}): "
              f"{f['reason']}")
    print(f"fail_ratio {len(failed) / attempted} ({len(failed)} of {attempted})")

    if args.trace:
        everything = set(range(n))
        values = per_layer(passes, n, everything)
        by_cmd = {cmd: per_layer(passes, n, {i for i, r in enumerate(requests)
                                             if r.cmd == cmd})
                  for cmd in prov["requests_per_command"]}
        record["per_layer"] = values
        record["per_layer_by_command"] = by_cmd
        record["spans"] = [p.trace for p in passes if p.traced]
        for name, value in values.items():
            print(f"{name} {value} {unit(name)}")
        for cmd, v in by_cmd.items():
            print(f"[{cmd}] fourier.used_ratio {v['representation.fourier.used_ratio']}"
                  f"  group.eq.calls {v['group.eq.calls']}"
                  f"  line_graph.self_ms {v['graph.line_graph.self_ms']:.3f}"
                  f"  coverage {v['trace.coverage']:.4f}")
        metrics = {k: {"value": values[k], "unit": unit(k)} for k in LAYER_METRICS}
    else:
        values, notes = end_to_end(passes, n, setup, rss_kb)
        record["latency_s"] = [[p.responses[i]["latency_s"] for p in passes]
                               for i in range(n)]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for k, (v, u) in values.items():
            print(f"{k} {v} {u}" + (f"  ({notes[k]})" if k in notes else ""))
    record["metrics"] = metrics
    with open(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
