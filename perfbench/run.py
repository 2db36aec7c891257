#!/usr/bin/env python3
"""Benchmark of the `azk` command line, end to end and per module.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, both modes, seed 0

One client sends the requests of a workload one after another to
`azumaya.cli.main(argv)` in this process (a closed loop) and checks every
report.  `--trace 0` prints the end-to-end metrics, `--trace 1` the
per-module metrics of a traced run plus the size ladders.  Human-readable
lines come first; the last line of stdout is one JSON object.  See
perfbench/README.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

import ladders  # noqa: E402
import workloads as W  # noqa: E402
from ladders import CapExceeded  # noqa: E402

# The calibration kernel's time on the reference machine (the one the
# README's figures come from).  End-to-end times are scaled to it.
CALIBRATION_REF_S = 0.0016
CALIBRATION_WINDOW = 10     # calibrations on each side that set one request's scale
SETUP_SPAWNS = 3      # fresh interpreters that set up fully
COLD_SAMPLES = 24     # forked cold starts, each after one reference import
# A bare interpreter importing a fixed set of standard library modules takes
# this long on the reference machine.  Set-up and cold start are scaled by
# it: their drift on a shared machine follows that of other imports, not
# that of the calibration kernel.
IMPORT_REF_S = 0.072
TRACE_ROUNDS = 2
DEFAULT_SECONDS = 25

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "cold_start_s": "s",
    "peak_rss_mb": "MB",
}


@contextlib.contextmanager
def scratch_dir():
    """Work in a fresh directory of this process under WORK, where problem
    files get bare names; removed afterwards, and WORK with it if empty."""
    path = WORK / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def import_cli():
    """`azumaya.cli` from this checkout's sources; exits 2 when absent."""
    if not (SRC / "azumaya" / "cli.py").is_file():
        print(f"perfbench: no azumaya sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    from azumaya import cli
    return cli


def calibrate() -> float:
    """Seconds for one run of a fixed pure-Python kernel, exact rational and
    dict arithmetic like the program's own.  The shared machine's speed
    drifts by a fifth or more within seconds; this tracks it."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(1, i % 97 + 1)
    table = {}
    for i in range(1800):
        table[i % 300] = table.get(i % 300, 0) + i
    return perf_counter() - t0


def scaled(lat, cal):
    """Each latency times CALIBRATION_REF_S over the mean calibration time of
    the requests around it."""
    sums = [0.0]
    for c in cal:
        sums.append(sums[-1] + c)
    out = []
    for i, t in enumerate(lat):
        lo, hi = max(0, i - CALIBRATION_WINDOW), min(len(cal), i + CALIBRATION_WINDOW + 1)
        out.append(t * CALIBRATION_REF_S * (hi - lo) / (sums[hi] - sums[lo]))
    return out


def execute(cli, req):
    """(seconds, exit code, stdout, exception) of one request under its cap."""
    buf = io.StringIO()
    code = exc = None
    signal.setitimer(signal.ITIMER_REAL, req.cap_s)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(req.command_argv())
    except (CapExceeded, Exception) as e:  # a request that raises is a failed request
        exc = e
    finally:
        dt = perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return dt, code, buf.getvalue(), exc


class Pass(NamedTuple):
    wall: float
    lat: list
    cal: list
    failed: int


class Session:
    """One workload's requests, written to disk, with their checks."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.requests = W.WORKLOADS[workload](seed)
        W.materialize(self.requests, "r")
        self.digests = [None] * len(self.requests)
        self.pinned = None
        if seed == W.DEFAULT_SEED and DIGESTS.is_file():
            self.pinned = json.loads(DIGESTS.read_text())[workload]
        self.errors = []

    def warm_up(self):
        """One request per command, the one with the smallest problem file."""
        best = {}
        for req in self.requests:
            size = len(json.dumps(req.problem)) if req.problem is not None else 0
            key = tuple(req.argv[:2])
            if key not in best or size < best[key][0]:
                best[key] = (size, req)
        for _, req in best.values():
            execute(self.cli, req)

    def verify(self, idx, req, dt, code, out, exc):
        """Check one response; the first response of a request gets the full
        check, later ones must repeat its bytes.  Returns True when right."""
        digest = hashlib.sha256(out.encode()).hexdigest()
        if isinstance(exc, CapExceeded) or dt > req.cap_s:
            err = f"ran past its {req.cap_s} s cap"
        elif self.digests[idx] is None:
            err = W.check(req, code, out, exc)
            if err is None and self.pinned is not None and self.pinned[idx] != digest:
                err = "report differs from the pinned digest"
            if err is None:
                self.digests[idx] = digest
        elif exc is not None or digest != self.digests[idx]:
            err = "report differs from the first response to the same request"
        else:
            return True
        if err is not None:
            self.errors.append(f"{req.kind} {' '.join(req.argv)}: {err}")
            return False
        return True

    def run_pass(self, calibrated=False):
        """One pass over the requests; with `calibrated`, the calibration
        kernel runs after every request."""
        lat, cal, failed = [], [], 0
        t0 = perf_counter()
        for idx, req in enumerate(self.requests):
            dt, code, out, exc = execute(self.cli, req)
            lat.append(dt)
            if calibrated:
                cal.append(calibrate())
            if not self.verify(idx, req, dt, code, out, exc):
                failed += 1
        return Pass(perf_counter() - t0, lat, cal, failed)


def run_defects(cli, seed):
    """(attempted, escaped) for the known-defect payloads."""
    reqs = W.known_defects(seed)
    W.materialize(reqs, "d")
    escaped = sum(execute(cli, req)[3] is not None for req in reqs)
    return len(reqs), escaped


def _probe(*args):
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probes(workload, seed):
    """Scaled median cold start and set-up, and the scale.  Runs in the
    scratch directory, where the lightest request's files go."""
    light = W.LIGHTEST[workload]()
    W.materialize([light], "c")
    doc = _probe("--cold", str(COLD_SAMPLES), *light.command_argv(), "--out", "cold.json")
    with open("cold.json", encoding="utf-8") as fh:
        err = W.check(light, 0, fh.read(), None)
    if err:
        raise RuntimeError(f"cold-start request failed: {err}")
    scale = IMPORT_REF_S / statistics.median(doc["reference_s"])
    setup = [_probe("--setup", workload, str(seed))["setup_s"] for _ in range(SETUP_SPAWNS)]
    return statistics.median(doc["cold_start_s"]) * scale, statistics.median(setup) * scale, scale


def quantile(values, q):
    """Inclusive quantile, as statistics.quantiles(n=100, method='inclusive')."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(cli, args):
    cold, setup, import_scale = setup_probes(args.workload, args.seed)
    session = Session(cli, args.workload, args.seed)
    session.warm_up()
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        passes.append(session.run_pass(calibrated=True))
    attempted = sum(len(p.lat) for p in passes)
    failed = sum(p.failed for p in passes)
    ref = [scaled(p.lat, p.cal) for p in passes]
    metrics = {
        "throughput_rps": statistics.median(len(lat) / sum(lat) for lat in ref),
        "latency_p50_ms": 1000 * statistics.median(quantile(lat, 50) for lat in ref),
        "latency_p90_ms": 1000 * statistics.median(quantile(lat, 90) for lat in ref),
        "setup_s": setup,
        "cold_start_s": cold,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [f"passes = {len(passes)} of {len(session.requests)} requests, "
             f"{perf_counter() - start:.1f} s timed",
             "wall clock, unscaled: throughput_rps = {:.6g}, latency_p50_ms = {:.6g}, "
             "latency_p90_ms = {:.6g}, setup_s = {:.6g}, cold_start_s = {:.6g}; machine speed "
             "= {:.3f} x reference (kernel), {:.3f} x reference (imports)".format(
                 statistics.median(len(p.lat) / sum(p.lat) for p in passes),
                 1000 * statistics.median(quantile(p.lat, 50) for p in passes),
                 1000 * statistics.median(quantile(p.lat, 90) for p in passes),
                 setup / import_scale, cold / import_scale,
                 CALIBRATION_REF_S / statistics.median(c for p in passes for c in p.cal),
                 import_scale)]
    fail_attempted, fail_count = attempted, failed
    if args.workload == "cech-twists":
        n, escaped = run_defects(cli, args.seed)
        fail_attempted += n
        fail_count += escaped
        lines.append(f"known-defect payloads: {escaped} of {n} raised out of cli.main")
    lines.append(f"fail_ratio = {fail_count / fail_attempted:.6f} "
                 f"({fail_count} of {fail_attempted}; not gated, see README)")
    return session, attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, lines


def traced(cli, args):
    from tracer import Tracer

    session = Session(cli, args.workload, args.seed)
    session.warm_up()
    tracer = Tracer()
    plain_wall = traced_wall = 0.0
    attempted = failed = 0
    for _ in range(TRACE_ROUNDS):
        plain = session.run_pass()
        with tracer:
            traced_pass = session.run_pass()
        plain_wall += plain.wall
        traced_wall += traced_pass.wall
        attempted += len(plain.lat) + len(traced_pass.lat)
        failed += plain.failed + traced_pass.failed
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.coverage"] = (sum(tracer.mod_self) / traced_wall, "ratio")
    metrics["trace.spans"] = (tracer.span_count(), "count")
    escaped = 0
    if args.workload == "cech-twists":
        _, escaped = run_defects(cli, args.seed)
    metrics["cli.uncaught_errors"] = (escaped, "count")
    import azumaya
    ladder_metrics, lines = ladders.run_ladders(azumaya, args.seed)
    metrics.update(ladder_metrics)
    lines.insert(0, f"traced {TRACE_ROUNDS} of {TRACE_ROUNDS * 2} passes, "
                    f"{tracer.span_count()} module spans")
    return session, attempted, failed, metrics, lines


def metadata():
    src = SRC / "azumaya"
    files = sorted(src.glob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()[:16]
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                              text=True, cwd=str(ROOT), timeout=10)
        top, _, head = proc.stdout.strip().partition("\n")
        if proc.returncode == 0 and Path(top) == ROOT:   # not some enclosing repository
            commit = head
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"commit": commit, "source_sha256": digest, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu, "src_lines": lines}


def run_workload(args) -> int:
    cli = import_cli()
    signal.signal(signal.SIGALRM, ladders.on_alarm)
    run = traced if args.trace else end_to_end
    with scratch_dir():
        session, attempted, failed, metrics, lines = run(cli, args)
    print("# meta " + json.dumps(metadata(), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for line in lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for err in session.errors[:20]:
        print(f"# FAILED {err}")
    correct = failed == 0 and not session.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def pin_digests():
    """Record the sha256 of every report at the default seed."""
    cli = import_cli()
    signal.signal(signal.SIGALRM, ladders.on_alarm)
    out = {}
    for name in W.WORKLOADS:
        with scratch_dir():
            session = Session(cli, name, W.DEFAULT_SEED)
            session.pinned = None
            failed = session.run_pass().failed
        if failed:
            print("\n".join(session.errors), file=sys.stderr)
            return 1
        out[name] = session.digests
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def run_all(seconds) -> int:
    """Every workload, end to end and traced, at the default seed."""
    ok = True
    for name in W.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(W.DEFAULT_SEED), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=str(ROOT))
            print(f"== {name} trace={trace}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            doc = json.loads(lines[-1])
            print(f"correct={doc['correct']} attempted={doc['attempted']} failed={doc['failed']}")
            ok = ok and doc["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true",
                    help="rewrite digests.json from the current sources")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        return run_all(args.seconds)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
