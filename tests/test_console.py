"""Every row of tests/golden/console.json is one `azk` call and its exact
outcome: the argv after `azk`, the problem files written to the working
directory first, the exit code and the report bytes on stdout.

Under pytest each row runs through `cli.main` in a fresh working directory.
Run as a script, `python tests/test_console.py`, it runs the same rows
through the `azk` on PATH, each from a fresh temporary directory, and exits
1 when any row differs.  Both compare through `mismatch`.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "golden" / "console.json"
ROWS = json.loads(TABLE.read_text(encoding="utf-8"))
SECONDS = 10  # every row answers within this many seconds of wall clock


def write_files(row, cwd):
    for name, doc in row["files"].items():
        (Path(cwd) / name).write_text(json.dumps(doc), encoding="utf-8")


def mismatch(row, code, stdout, stderr, seconds):
    """How one call's outcome differs from its row, or None when it matches."""
    if (code, stdout, stderr) != (row["exit"], row["stdout"], ""):
        return (f"{row['name']}: exit {code}, want {row['exit']}\n"
                f"stdout {stdout!r}\nwant   {row['stdout']!r}\nstderr {stderr!r}")
    if seconds >= SECONDS:
        return f"{row['name']} took {seconds:.1f} s"
    return None


def test_console_row(row, tmp_path, monkeypatch, capsys):
    from azumaya import cli  # here, so that the script form needs only the azk on PATH

    monkeypatch.chdir(tmp_path)
    write_files(row, tmp_path)
    start = time.perf_counter()
    code = cli.main(row["argv"])
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    problem = mismatch(row, code, out, err, seconds)
    assert problem is None, problem


def pytest_generate_tests(metafunc):
    if "row" in metafunc.fixturenames:
        metafunc.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])


def main() -> int:
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as cwd:
            write_files(row, cwd)
            start = time.perf_counter()
            proc = subprocess.run(["azk", *row["argv"]], cwd=cwd, capture_output=True,
                                  encoding="utf-8", timeout=SECONDS)
            seconds = time.perf_counter() - start
        problem = mismatch(row, proc.returncode, proc.stdout, proc.stderr, seconds)
        failed += problem is not None
        print(f"FAIL {problem}" if problem else f"ok   {row['name']}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows match {TABLE.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
