"""Submodules load on first use: each check runs in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the names ``from azumaya import *`` bound when the package imported every module
STAR = {
    "AzumayaError", "Cochain1", "CoverMismatchError", "CoverNerve", "DegenerateError", "FORMAL",
    "HiggsPair", "HiggsingReport", "InvalidInputError", "LambdaConnectionFamily",
    "MixedOperator", "ModeMismatchError", "MorphismPresentation", "Mu", "MultiPoly",
    "NonConstantError", "NotAdmissibleError", "NotSplitError", "PolyMatrix",
    "PreconditionError", "Qstar", "ShapeError", "SheafOnP1", "SimplicityCertificate",
    "SpectralCover", "TwistedBundle", "UndecidableGroupError", "UnitCochain2", "WeylElement",
    "ZeroElementError", "ZeroLambdaError", "act_on_polynomial", "char_poly",
    "check_2cocycle", "classify_higgsing", "coboundary", "commutation_constraint",
    "commutativity_admissible", "curvature", "diffop", "discriminant",
    "endomorphism_azumaya", "errors", "eval_poly_at_matrix", "fourier",
    "fundamental_solutions", "higgs_to_morphism", "hilbert_poly", "image_ideal",
    "is_coboundary", "kernel_saturated", "lambda_connection_check", "lambda_family", "linalg",
    "linear_solve_exact", "min_poly", "mixed_mul", "morphism_hilbert_poly",
    "morphism_to_higgs", "parse_poly", "parse_weyl", "poly", "pushforward_report",
    "reduce_to_scalar", "refine", "solve_commutation", "specialize_lambda", "spectral",
    "spectral_cover", "twist_matching_check", "twist_of_hom", "twist_of_tensor", "twisted",
    "twisted_gluing_check", "weyl", "weyl_mul", "zmod",
}

RAN = """
def ran():
    return sorted(k[8:] for k, m in sys.modules.items()
                  if k.startswith("azumaya.") and type(m) is types.ModuleType)
"""


def _fresh(code, cwd=None):
    # -B: the bare environment drops PYTHONDONTWRITEBYTECODE, and a test run
    # should leave no bytecode in the source tree
    proc = subprocess.run([sys.executable, "-B", "-c", "import sys, types\n" + RAN + code],
                          env={"PYTHONPATH": SRC, "PATH": ""}, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_runs_no_submodule_and_every_name_resolves():
    got = _fresh("import azumaya\nbefore = ran()\n"
                 "ok = all(getattr(azumaya, n) is not None for n in azumaya.__all__)\n"
                 "import json; print(json.dumps([before, ok, sorted(azumaya.__all__)]))")
    assert got == [[], True, sorted(STAR)]


def test_star_import_and_dir_keep_the_names():
    got = _fresh("import azumaya\nns = {}\nexec('from azumaya import *', ns)\n"
                 "pub = [n for n in dir(azumaya) if not n.startswith('_')]\n"
                 "import json; print(json.dumps([sorted(set(ns) - {'__builtins__'}), pub]))")
    assert set(got[0]) == STAR
    assert set(got[1]) == STAR | {"suites"}
    for name in STAR:
        exec(f"from azumaya import {name}", {})


def test_tracer_modules_are_registered_after_importing_cli():
    names = ("cli", "suites", "weyl", "diffop", "spectral", "linalg", "poly", "twisted", "zmod")
    got = _fresh("import azumaya.cli\nimport json\n"
                 f"print(json.dumps([f'azumaya.{{m}}' in sys.modules for m in {names!r}]))")
    assert got == [True] * len(names)


@pytest.mark.parametrize("argv, problem, allowed, banned", [
    (["weyl", "nf", "--expr", "x*d", "--lam", "1"], None,
     {"cli", "errors", "poly", "suites", "weyl"}, set()),
    (["azu", "classify"], {"B": [["1", "0"], ["0", "2"]]},
     None, {"weyl", "spectral", "twisted", "zmod"}),
    (["hilb", "morphism"], {"summands": [[1, 0]]}, None, {"weyl", "diffop", "spectral"}),
])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, argv, problem, allowed, banned):
    if problem is not None:
        doc = {"version": 1, "command": " ".join(argv), "payload": problem}
        (tmp_path / "p.json").write_text(json.dumps(doc))
        argv = argv + ["p.json"]
    got = _fresh("import io, contextlib\nfrom azumaya import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = cli.main({argv!r})\n"
                 "import json; print(json.dumps([code, ran()]))", cwd=tmp_path)
    code, modules = got
    assert code == 0
    if allowed is not None:
        assert set(modules) == allowed
    assert not banned & set(modules)


def test_concurrent_first_reads_run_the_module_once():
    got = _fresh("""
import threading, time
import azumaya
loader = sys.modules["azumaya.poly"].__spec__.loader
runs, original = [], loader.exec_module

def slow(module):
    runs.append(module.__name__)
    time.sleep(0.05)
    original(module)

loader.exec_module = slow
barrier, seen = threading.Barrier(8, timeout=30), []

def read():
    barrier.wait()
    seen.append(azumaya.poly.MultiPoly)

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=read) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
assert not any(t.is_alive() for t in threads)
import json; print(json.dumps([runs, len(seen), len({id(c) for c in seen})]))
""")
    assert got == [["azumaya.poly"], 8, 1]


def test_documented_command_lines_and_help_never_import_argparse(tmp_path):
    # one documented line per group, then help
    problems = {"spec cover": {"rank": 1, "phis": [[["z"]]]},
                "coc check": {"group": "mu", "n": 2, "indices": 3, "values": []},
                "hilb sheaf": {"summands": [2, -1]}}
    for command, payload in problems.items():
        doc = {"version": 1, "command": command, "payload": payload}
        (tmp_path / f"{command.replace(' ', '-')}.json").write_text(json.dumps(doc))
    lines = [["weyl", "nf", "--expr", "D*x", "--lam", "1"],
             ["azu", "basis", "--a", '[["0","1"],["0","0"]]', "--lambda", "1", "--text"],
             ["spec", "cover", "spec-cover.json"],
             ["coc", "check", "coc-check.json", "--out", "report.json"],
             ["hilb", "sheaf", "hilb-sheaf.json"],
             ["demo", "cocycle-dd", "--seed", "3", "--count=5"]]
    got = _fresh("import io, contextlib\nfrom azumaya import cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    codes = [cli.main(argv) for argv in {lines!r}]\n"
                 "    after_lines = 'argparse' in sys.modules\n"
                 "    codes.append(cli.main(['azu', 'report', '--help']))\n"
                 "import json; print(json.dumps([codes, after_lines, 'argparse' in sys.modules]))",
                 cwd=tmp_path)
    assert got == [[0] * (len(lines) + 1), False, False]
