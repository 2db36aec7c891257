"""Set-up and cold-start probes, run in a fresh interpreter by run.py.

    probe.py --cold N ARGV...      cold start, N samples
    probe.py --setup W SEED        set-up of workload W

Cold start is the import of `azumaya.cli` plus `main(ARGV)`.  The probe
imports nothing itself first: it forks N children one after another, each
starting from this bare interpreter, and before each of them one more child
that imports a fixed set of standard library modules; run.py scales by the
latter (see README).  Set-up is everything the benchmark does before its
first timed request, from the first line of this script: its own imports,
the program's import, fixture generation and warm-up.  Interpreter start-up
and `site` are outside both, as the program does not control them.
Prints one JSON line.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402  (already loaded by site)
import sys  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _reference():
    import argparse, decimal, email.parser, http.client, json, logging  # noqa: E401,F401
    import tarfile, unittest, xml.dom.minidom  # noqa: E401,F401


def _cold(argv):
    sys.path.insert(0, SRC)
    from azumaya import cli
    if cli.main(argv) != 0:
        raise SystemExit(1)


def _timed_in_child(fn, *args):
    """Seconds fn(*args) takes in a forked child; None if it failed."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        status = 1
        try:
            t = perf_counter()
            fn(*args)
            os.write(w, repr(perf_counter() - t).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    return float(text) if status == 0 and text else None


def main():
    if sys.argv[1] == "--cold":
        count, argv = int(sys.argv[2]), sys.argv[3:]
        ref, cold = [], []
        for _ in range(count):
            ref.append(_timed_in_child(_reference))
            cold.append(_timed_in_child(_cold, argv))
        if None in ref or None in cold:
            print("probe: a cold-start child failed", file=sys.stderr)
            return 1
        import json
        print(json.dumps({"cold_start_s": cold, "reference_s": ref}))
        return 0
    import json
    import signal
    import run
    workload, seed = sys.argv[2], int(sys.argv[3])
    cli = run.import_cli()
    signal.signal(signal.SIGALRM, run.ladders.on_alarm)
    with run.scratch_dir():
        run.Session(cli, workload, seed).warm_up()
    print(json.dumps({"setup_s": perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
