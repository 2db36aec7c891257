import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import cli, diffop, linalg, spectral, suites, twisted, weyl
from azumaya.cli import main
from azumaya.linalg import PolyMatrix

GOLDEN = Path(__file__).parent / "golden" / "example-5-1-11.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_demo_matches_golden_and_is_deterministic(capsys):
    code1, out1 = run(capsys, "demo", "example-5-1-11")
    code2, out2 = run(capsys, "demo", "example-5-1-11")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 == GOLDEN.read_text(encoding="utf-8")


def test_demo_bhat_variants(capsys):
    code, doc = run_json(capsys, "demo", "example-5-1-11", "--bhat", "1,1,0,1")
    assert code == 0
    assert doc["data"]["pushforward"]["case"] == "RepeatedNilpotent"
    assert doc["data"]["pushforward"]["filtration"] is True
    code, doc = run_json(capsys, "demo", "example-5-1-11", "--bhat", "2,0,0,2")
    assert doc["data"]["pushforward"]["case"] == "RepeatedSemisimple"


def test_weyl_normal_form(capsys):
    code, doc = run_json(capsys, "weyl", "nf", "--expr", "D*x", "--lam", "1")
    assert code == 0
    assert doc["data"]["normal_form"] == "x*d + 1"


@pytest.mark.parametrize("argv, joined", [
    (("nf", "--expr", "-x*d", "--lam", "1"), ("nf", "--expr=-x*d", "--lam", "1")),
    (("nf", "--expr", "x", "--lam", "-2/3"), ("nf", "--expr", "x", "--lam=-2/3")),
    (("act", "--expr", "x*d", "--poly", "-x^2", "--lam", "1"),
     ("act", "--expr", "x*d", "--poly=-x^2", "--lam", "1")),
    (("reduce", "--lam", "-1", "--expr", "-x^2*d"), ("reduce", "--lam=-1", "--expr=-x^2*d")),
])
def test_flag_value_with_a_leading_minus(capsys, argv, joined):
    code, out = run(capsys, "weyl", *argv)
    assert (code, out) == run(capsys, "weyl", *joined)
    assert code == 0 and json.loads(out)["status"] == "ok"


def test_flag_without_its_value_is_still_an_input_error(capsys):
    for argv in (("--expr", "--lam", "1"), ("--lam", "--expr", "x"), ("--expr", "x", "--lam"),
                 ("--expr", "--la", "1"), ("--expr", "--lam=1"), ("--expr", "-h")):
        code, doc = run_json(capsys, "weyl", "nf", *argv)
        assert code == 1 and doc["data"]["code"] == "E_INPUT"
        assert "expected one argument" in doc["diagnostics"][0]


def test_weyl_action_and_reduce(capsys):
    code, doc = run_json(capsys, "weyl", "act", "--expr", "x*d", "--poly",
                         "x^2 + 1", "--lam", "1")
    assert doc["data"]["result"] == "2*x^2"
    code, doc = run_json(capsys, "weyl", "reduce", "--expr", "x^2*d")
    assert doc["data"]["scalar"] == "2*lam^3"
    assert [s["generator"] for s in doc["data"]["steps"]] == ["d1", "d1", "x1"]


def test_exit_code_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1, "command": "coc check",
        "payload": {"group": "mu", "n": 4, "indices": 4,
                    "values": [{"ijk": [0, 1, 2], "v": 1}]}}))
    code, doc = run_json(capsys, "coc", "check", str(bad))
    assert code == 2
    assert doc["status"] == "violation"
    assert doc["data"]["violation"]


def test_exit_code_malformed_input(capsys, tmp_path):
    mal = tmp_path / "mal.json"
    mal.write_text("{ not json")
    code, doc = run_json(capsys, "coc", "check", str(mal))
    assert code == 1
    assert doc["status"] == "error"


_DEEP = "[" * 100000 + "]" * 100000     # nested past the interpreter's recursion limit


def test_json_nested_too_deep_is_malformed_input(capsys, tmp_path):
    # the RecursionError's wording comes from the interpreter, so it is not pinned
    deep = tmp_path / "deep.json"
    deep.write_text('{"version": 1, "command": "azu classify", "payload": {"B": %s}}' % _DEEP)
    code, doc = run_json(capsys, "azu", "classify", str(deep))
    assert (code, doc["data"]) == (1, {"code": "E_INPUT"})
    assert doc["diagnostics"][0].startswith(f"malformed JSON in {deep}: ")
    code, doc = run_json(capsys, "azu", "solve", "--lambda", "1", "--a", _DEEP)
    assert (code, doc["data"]) == (1, {"code": "E_INPUT"})
    assert doc["diagnostics"][0].startswith("bad --a: '[[[")


def test_problem_file_validation(capsys, tmp_path):
    doc = {"version": 2, "command": "coc check",
           "payload": {"group": "mu", "n": 2, "indices": 2, "values": []}}
    f = tmp_path / "v.json"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "coc", "check", str(f))
    assert code == 1 and "version" in rep["diagnostics"][0]

    doc["version"] = 1
    doc["command"] = "coc match"
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "coc", "check", str(f))
    assert code == 1 and "command" in rep["diagnostics"][0]

    doc["command"] = "coc check"
    doc["extra"] = True
    f.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "coc", "check", str(f))
    assert code == 1 and "unknown" in rep["diagnostics"][0]


@pytest.mark.parametrize("argv, files, report", [
    (("coc", "check", "missing.json"), {},
     "cannot read missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    (("coc", "check", "list.json"), {"list.json": [1]}, "problem file must be a JSON object"),
    (("weyl", "nf", "p.json"), {"p.json": {"version": 1, "command": "weyl nf", "payload": [1]}},
     "payload must be a JSON object"),
    (("azu", "basis", "b.json"),
     {"b.json": {"version": 1, "command": "azu basis",
                 "payload": {"A": [["0", "1"], ["0", "0"]], "lambda": 0.5}}},
     "bad lambda: floating point is not exact; send rationals as strings"),
    ((), {}, "expected a GROUP and SUBCOMMAND; see --help"),
    (("demo", "example-5-1-11", "--bhat", "1,0,2"), {}, "bhat needs four entries"),
    (("weyl", "nf", "--expr", "\u0663*x"), {}, "bad expression: bad token at '\u0663*x'"),
    (("weyl", "nf", "--expr", "x^\u0663"), {}, "bad expression: bad token at '\u0663'"),
])
def test_input_error_reports(capsys, tmp_path, monkeypatch, argv, files, report):
    monkeypatch.chdir(tmp_path)
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    code, out = run(capsys, *argv)
    assert code == 1
    assert out == json.dumps({"data": {"code": "E_INPUT"}, "diagnostics": [report],
                              "status": "error"}, separators=(",", ":")) + "\n"


def test_unknown_payload_fields_rejected(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": "azu classify",
                             "payload": {"B": [["1", "0"], ["0", "2"]],
                                         "bogus": 1}}))
    code, rep = run_json(capsys, "azu", "classify", str(f))
    assert code == 1 and "bogus" in rep["diagnostics"][0]


def test_module_error_surfaces_code(capsys, tmp_path):
    f = tmp_path / "ns.json"
    f.write_text(json.dumps({"version": 1, "command": "azu classify",
                             "payload": {"B": [["0", "2"], ["1", "0"]]}}))
    code, rep = run_json(capsys, "azu", "classify", str(f))
    assert code == 1
    assert rep["data"]["code"] == "E_NOT_SPLIT"


@pytest.mark.parametrize("b", [[["v", "1"], ["0", "v"]], [["v", "0"], ["0", "0"]]])
def test_classify_refuses_the_eigenvalue_variable(capsys, tmp_path, b):
    f = tmp_path / "v.json"
    f.write_text(json.dumps({"version": 1, "command": "azu classify",
                             "payload": {"B": b}}))
    code, out = run(capsys, "azu", "classify", str(f))
    assert code == 1
    rep = json.loads(out)   # exactly one report
    assert rep["status"] == "error" and rep["data"]["code"] == "E_SHAPE"


def _spec_cover(tmp_path, payload):
    f = tmp_path / "cover.json"
    f.write_text(json.dumps({"version": 1, "command": "spec cover", "payload": payload}))
    return str(f)


def test_spec_cover_refuses_the_eigenvalue_variable(capsys, tmp_path):
    f = _spec_cover(tmp_path, {"rank": 2, "base_vars": ["v"], "phis": [[["v", "1"], ["0", "v"]]]})
    code, rep = run_json(capsys, "spec", "cover", f)
    assert code == 1 and rep["data"]["code"] == "E_SHAPE"


@pytest.mark.parametrize("entry, why", [
    ("1/0", "zero denominator in '1/0'"), ("3/00", "zero denominator in '3/00'"),
    ("z +", "unexpected token None"), ("2 ** z", "unexpected token mul"),
    ("x y", "trailing input in 'x y'"), ("1/2/3", "bad token at '/3'"),
    ("(z", "expected rpar, got None"), ("", "unexpected token None"),
    ("z^-1", "expected num, got minus"),
    ("1/2*z^1/2", "invalid literal for int() with base 10: '1/2'"), (0.5, "bad token at '.5'"),
])
def test_matrix_entry_reports(capsys, tmp_path, entry, why):
    # every malformed entry is reported by the recursive-descent parser
    f = _spec_cover(tmp_path, {"rank": 2, "phis": [[["0", entry], ["1", "0"]]]})
    code, out = run(capsys, "spec", "cover", f)
    assert (code, out) == (1, _INPUT % f"bad phi: {entry!r} ({why})" + "\n")


def test_a_wrong_cover_fails_the_image_ideal_certificate(capsys, tmp_path, monkeypatch):
    char_poly = spectral.char_poly
    monkeypatch.setattr(spectral, "char_poly", lambda m: char_poly(m) + 1)
    f = _spec_cover(tmp_path, {"rank": 3, "phis": [[["0", "0", "z"], ["1", "0", "1"], ["0", "1", "0"]]]})
    code, rep = run_json(capsys, "spec", "cover", f)
    assert code == 1 and rep["data"]["code"] == "E_INTERNAL"
    assert "does not annihilate" in rep["diagnostics"][0]


def test_image_equals_cover_up_to_a_unit(capsys, tmp_path):
    # a non-derogatory field whose cover has non-integer coefficients: the
    # image ideal is 6 times the cover, and they are equal up to a unit
    f = _spec_cover(tmp_path, {"rank": 2, "phis": [[["0", "(-1/2)*z + (3)"], ["1", "(2/3)*z"]]]})
    assert run_json(capsys, "spec", "cover", f) == (0, {"status": "ok", "diagnostics": [], "data": {
        "cover": "-2/3*z*v + v^2 + 1/2*z - 3", "reduced": True,
        "image_ideal": "-4*z*v + 6*v^2 + 3*z - 18", "image_equals_cover": True}})
    # diag(z, z, 1) is derogatory: its minimal polynomial has degree 2 < 3
    f = _spec_cover(tmp_path, {"rank": 3, "phis": [[["z", "0", "0"], ["0", "z", "0"], ["0", "0", "1"]]]})
    assert run_json(capsys, "spec", "cover", f)[1]["data"]["image_equals_cover"] is False


def test_a_wrong_kernel_fails_the_kernel_check(capsys, tmp_path, monkeypatch):
    # each relation is moved off the kernel; B has distinct eigenvalues, so
    # its minimal polynomial comes from the certificate, not from _relations
    relations = linalg._relations
    monkeypatch.setattr(linalg, "_relations", lambda *args: (
        (rel[0] + 1, *rel[1:]) for rel in relations(*args)))
    with pytest.raises(AssertionError, match="does not annihilate its kernel basis"):
        linalg.kernel_saturated(PolyMatrix.from_rows([["1", "1"], ["1", "1"]]))
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"version": 1, "command": "azu classify",
                             "payload": {"B": [["1", "1"], ["0", "2"]]}}))
    code, rep = run_json(capsys, "azu", "classify", str(f))
    assert code == 1 and rep["data"]["code"] == "E_INTERNAL"
    assert rep["diagnostics"] == ["AssertionError: M does not annihilate its kernel basis"]


def test_a_wrong_solution_fails_the_commutation_check(capsys, monkeypatch):
    # each series gets 1 added to its top coefficient of the (0, 0) entry
    recurrence = diffop._recurrence
    def shifted(*args):
        out = recurrence(*args)
        for bs, _ in out:
            bs[-1][0] += 1
        return out
    monkeypatch.setattr(diffop, "_recurrence", shifted)
    code, rep = run_json(capsys, "azu", "solve", "--a", '[["0","1"],["0","0"]]', "--lambda", "1")
    assert code == 1 and rep["data"]["code"] == "E_INTERNAL"
    assert rep["diagnostics"] == ["AssertionError: a basis element does not solve lam B' + [A, B] = 0"]


def test_azu_report(capsys):
    code, doc = run_json(capsys, "azu", "report", "--a", '[["0","1"],["0","0"]]',
                         "--lambda", "1", "--bhat", "1,0,0,2")
    assert code == 0
    assert doc["data"]["case"] == "DistinctEigen"
    assert doc["data"]["eigenvalues"] == ["1", "2"]


def test_azu_solve_and_basis(capsys):
    code, doc = run_json(capsys, "azu", "solve", "--a", '[["0","1"],["0","0"]]',
                         "--lambda", "1")
    assert doc["data"]["dimension"] == 4
    code, doc = run_json(capsys, "azu", "basis", "--a", '[["0","1"],["0","0"]]',
                         "--lambda", "1")
    assert doc["data"]["basis"][0] == [["1", "z"], ["0", "0"]]


def test_spec_commands(capsys, tmp_path):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"version": 1, "command": "spec cover",
                             "payload": {"rank": 2, "base_vars": ["z"],
                                         "phis": [[["0", "z"], ["1", "0"]]]}}))
    code, doc = run_json(capsys, "spec", "cover", str(f))
    assert doc["data"]["cover"] == "v^2 - z"
    assert doc["data"]["reduced"] is True

    f.write_text(json.dumps({"version": 1, "command": "spec family",
                             "payload": {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]],
                                         "lambda": "1", "degree": 2}}))
    code, doc = run_json(capsys, "spec", "family", str(f))
    assert doc["data"]["injective"] is True

    f.write_text(json.dumps({"version": 1, "command": "spec admissible",
                             "payload": {"rank": 2,
                                         "phis": [[["0", "1"], ["0", "0"]],
                                                  [["0", "0"], ["1", "0"]]]}}))
    code, doc = run_json(capsys, "spec", "admissible", str(f))
    assert code == 2 and doc["data"]["admissible"] is False


_SPEC_PAYLOADS = {
    "cover": {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]]},
    "admissible": {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]]},
    "family": {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]], "lambda": "1"},
    "curvature": {"rank": 2, "gammas": [[["w2", "0"], ["0", "1"]]]},
}


@pytest.mark.parametrize("sub", sorted(_SPEC_PAYLOADS))
def test_spec_mode_must_match_the_subcommand(capsys, tmp_path, sub):
    payload = _SPEC_PAYLOADS[sub]
    f = tmp_path / "p.json"

    def report(**extra):
        f.write_text(json.dumps({"version": 1, "command": f"spec {sub}",
                                 "payload": dict(payload, **extra)}))
        return run(capsys, "spec", sub, str(f))

    wrong = "cover" if sub == "family" else "family"
    assert report(mode=wrong) == (1, _INPUT % (
        f"payload mode '{wrong}' does not match subcommand '{sub}'") + "\n")
    plain = report()
    assert plain[0] == 0 and report(mode=sub) == plain and report(mode=None) == plain
    # keys are checked before the handler's mode check
    assert report(mode=wrong, bogus=1) == (1, _INPUT % "unknown payload fields: ['bogus']" + "\n")


@pytest.mark.parametrize("phis,formed,code", [
    # e12 and e21: the first pair fails
    ([[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]], 1, 2),
    # Phi and I + Phi commute, e12 commutes with neither
    ([[["0", "z"], ["1", "0"]], [["1", "z"], ["1", "1"]], [["0", "1"], ["0", "0"]]], 2, 2),
    # Phi, Phi^2 and I + Phi pairwise commute
    ([[["0", "z"], ["1", "0"]], [["z", "0"], ["0", "z"]], [["1", "z"], ["1", "1"]]], 3, 0),
])
def test_spec_admissible_forms_each_commutator_once(capsys, tmp_path, monkeypatch,
                                                    phis, formed, code):
    # the closure checks commutativity itself; the command does not check first
    calls = []
    commutator = PolyMatrix.commutator
    monkeypatch.setattr(PolyMatrix, "commutator",
                        lambda a, b: calls.append(1) or commutator(a, b))
    f = tmp_path / "a.json"
    f.write_text(json.dumps({"version": 1, "command": "spec admissible",
                             "payload": {"rank": 2, "phis": phis}}))
    got, out = run(capsys, "spec", "admissible", str(f))
    assert (got, len(calls)) == (code, formed)
    if code:
        assert out == ('{"data":{"admissible":false},'
                       '"diagnostics":["generator images do not commute"],'
                       '"status":"violation"}\n')
    else:
        assert json.loads(out)["data"]["admissible"] is True


def test_coc_coboundary_both_directions(capsys, tmp_path):
    beta = {"group": "mu", "n": 3, "indices": 3,
            "values": [{"ij": [0, 1], "v": 1}, {"ij": [1, 2], "v": 2}]}
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"version": 1, "command": "coc coboundary",
                             "payload": {"beta": beta}}))
    code, doc = run_json(capsys, "coc", "coboundary", str(f))
    assert code == 0
    alpha = doc["data"]["coboundary"]

    f.write_text(json.dumps({"version": 1, "command": "coc coboundary",
                             "payload": {"alpha": alpha}}))
    code, doc = run_json(capsys, "coc", "coboundary", str(f))
    assert code == 0 and doc["data"]["is_coboundary"] is True


def test_coc_glue_with_endomorphisms(capsys, tmp_path):
    payload = {
        "rank": 1, "indices": 3,
        "gluing": [{"ij": [0, 1], "g": [["2"]]}, {"ij": [1, 0], "g": [["1/2"]]},
                   {"ij": [0, 2], "g": [["3"]]}, {"ij": [2, 0], "g": [["1/3"]]},
                   {"ij": [1, 2], "g": [["5"]]}, {"ij": [2, 1], "g": [["1/5"]]}],
        "twist": {"group": "qstar", "indices": 3, "values": [
            {"ijk": [0, 1, 2], "v": "10/3"}, {"ijk": [0, 2, 1], "v": "3/10"},
            {"ijk": [1, 2, 0], "v": "10/3"}, {"ijk": [2, 0, 1], "v": "10/3"},
            {"ijk": [1, 0, 2], "v": "3/10"}, {"ijk": [2, 1, 0], "v": "3/10"}]},
        "descend_endomorphisms": True,
    }
    f = tmp_path / "g.json"
    f.write_text(json.dumps({"version": 1, "command": "coc glue", "payload": payload}))
    code, doc = run_json(capsys, "coc", "glue", str(f))
    assert code == 0, doc
    assert doc["data"]["glued"] and doc["data"]["endomorphism_cocycle"]


def test_coc_match(capsys, tmp_path):
    a = {"group": "mu", "n": 2, "indices": 3, "values": []}
    b = {"group": "mu", "n": 2, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 1}, {"ijk": [1, 2, 0], "v": 1},
        {"ijk": [2, 0, 1], "v": 1}, {"ijk": [0, 2, 1], "v": 1},
        {"ijk": [1, 0, 2], "v": 1}, {"ijk": [2, 1, 0], "v": 1}]}
    f = tmp_path / "m.json"
    f.write_text(json.dumps({"version": 1, "command": "coc match",
                             "payload": {"left": a, "right": b}}))
    code, doc = run_json(capsys, "coc", "match", str(f))
    assert code == 2 and doc["data"]["mismatch"] == [0, 1, 2]


def test_hilb_commands(capsys, tmp_path):
    f = tmp_path / "h.json"
    f.write_text(json.dumps({"version": 1, "command": "hilb sheaf",
                             "payload": {"summands": [2, -1], "torsion": 1,
                                         "g_rank": 1, "g_summands": [0]}}))
    code, doc = run_json(capsys, "hilb", "sheaf", str(f))
    assert doc["data"]["polynomial"] == "2*m + 4"
    f.write_text(json.dumps({"version": 1, "command": "hilb morphism",
                             "payload": {"summands": [[0, 1], [0, 1]]}}))
    code, doc = run_json(capsys, "hilb", "morphism", str(f))
    assert doc["data"]["polynomial"] == "4*m + 2"


def test_suite_demo_deterministic(capsys):
    code1, out1 = run(capsys, "demo", "cocycle-dd", "--seed", "3", "--count", "25")
    code2, out2 = run(capsys, "demo", "cocycle-dd", "--seed", "3", "--count", "25")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["data"]["passes"] == 25


# -- every command and every suite is entered once, in cli.COMMANDS and by @suite ---

@pytest.mark.parametrize("command", sorted(cli.HANDLERS))
def test_every_command_has_help(capsys, command):
    assert main([*command, "--help"]) == 0
    assert f"usage: azk {' '.join(command)}" in capsys.readouterr().out


_WEYL_FLAGS = {"--expr", "--lam", "--n"}
# the flags each command has; every command not listed has none of its own
_COMMAND_FLAGS = {
    **dict.fromkeys([("weyl", "nf"), ("weyl", "fourier"), ("weyl", "reduce")], _WEYL_FLAGS),
    ("weyl", "act"): _WEYL_FLAGS | {"--poly"},
    ("azu", "solve"): {"--a", "--lambda", "--deg-bound"},
    ("azu", "basis"): {"--a", "--lambda"},
    ("azu", "report"): {"--a", "--lambda", "--deg-bound", "--bhat"},
    ("spec", "family"): {"--lambda", "--degree"},
    ("demo", cli.CANONICAL_DEMO): {"--a", "--lambda", "--bhat"},
    **{("demo", name): {"--seed", "--count"} for name in suites.SUITES},
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS), ids=" ".join)
def test_help_lists_the_flags_of_the_declared_keys(capsys, command):
    assert main([*command, "--help"]) == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"(?m)^  (--[a-z-]+)", out)) - {"--help", "--text", "--out"}
    assert listed == _COMMAND_FLAGS.get(command, set())
    _, required, optional = cli.COMMANDS[command]
    assert {key for key, (option, *_) in cli.FLAGS.items() if option in listed} <= {
        *required, *optional}
    # only weyl's --lam takes 'formal'; --lambda is a rational value
    assert ("formal" in out) == ("--lam" in listed)
    assert bool(re.search(r"(?m)^  --lambda Q +rational value$", out)) == ("--lambda" in listed)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_every_suite_runs_as_a_demo(capsys, name):
    code, doc = run_json(capsys, "demo", name, "--count", "2")
    assert code == 0
    assert doc["data"] == {"suite": name, "seed": 0, "count": 2, "passes": 2, "failures": 0}


def test_suite_reports_failures_and_first_counterexample(monkeypatch):
    described = []

    def flaky(rng):
        u, k = rng.random(), rng.randrange(4)
        return k != 0, lambda: described.append(u) or f"case {u}"

    monkeypatch.setitem(suites.SUITES, "flaky", flaky)
    res = suites.run_suite("flaky", 7, 40)
    rng = random.Random(7)
    draws = [(rng.random(), rng.randrange(4)) for _ in range(40)]
    failing = [u for u, k in draws if k == 0]
    assert (res.passes, res.failures) == (40 - len(failing), len(failing)) and failing
    assert described == [failing[0]]            # only the first failure is described
    assert res.to_json()["first_counterexample"] == f"case {failing[0]}"


def test_weyl_reduce_suite_requires_a_scalar(monkeypatch):
    # a certificate that replays to its own non-scalar input is still refused
    def no_steps(d):
        return weyl.SimplicityCertificate((), d.symbol)

    assert suites.run_suite("weyl-reduce", 3, 20).ok
    monkeypatch.setattr(weyl, "reduce_to_scalar", no_steps)
    assert suites.run_suite("weyl-reduce", 3, 20).failures > 0


def test_unknown_suite(capsys):
    code, doc = run_json(capsys, "demo", "weyl-assoc", "--seed", "1", "--count", "5")
    assert code == 0
    code2, out2 = run(capsys, "weyl", "nf")
    assert code2 == 1   # missing --expr


def test_out_flag(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run(capsys, "demo", "example-5-1-11", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8") == GOLDEN.read_text(encoding="utf-8")


def test_unwritable_out_reports_input_error(capsys, tmp_path):
    code, doc = run_json(capsys, "weyl", "nf", "--expr", "x",
                         "--out", str(tmp_path / "missing" / "r.json"))
    assert code == 1 and doc["data"]["code"] == "E_INPUT"
    assert "cannot write" in doc["diagnostics"][0]


def test_text_mode(capsys, monkeypatch):
    monkeypatch.setenv("AZK_COLOR", "never")
    code, out = run(capsys, "weyl", "nf", "--expr", "D*x", "--lam", "1", "--text")
    assert code == 0
    assert out.splitlines()[0] == "status: ok"
    assert "normal_form: x*d + 1" in out
    code, out = run(capsys, "weyl", "nf", "--expr", "x^", "--text")
    assert code == 1
    assert out == "status: error\nnote: bad expression: expected num, got None\ncode: E_INPUT\n"


def test_error_codes_are_distinct():
    from azumaya import errors
    codes = [cls.code for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.AzumayaError)
             and cls not in (errors.AzumayaError, errors.InvalidInputError)]
    codes += [errors.E_INPUT, errors.E_BUDGET, errors.E_INTERNAL, errors.InvalidInputError.code]
    assert len(codes) == len(set(codes))


# -- budgets -------------------------------------------------------------------------

def _budget_request(tmp_path, command, payload):
    if command.startswith("demo "):     # a demo takes its payload as flags
        return [*command.split(), *(f"--{key}={value}" for key, value in payload.items())]
    f = tmp_path / "budget.json"
    f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
    return [*command.split(), str(f)]


_AZU = {"A": [["0", "1"], ["0", "0"]], "lambda": "1"}


@pytest.mark.parametrize("command, payload", [
    ("weyl nf", {"expr": "x*d", "n": 10 ** 30}),
    ("weyl act", {"expr": "x1000000000*d1", "poly": "x1", "lam": "1"}),
    ("weyl nf", {"expr": "X1000000000*d1"}),
    ("coc glue", {"rank": 10 ** 6, "indices": 2, "gluing": []}),
    ("azu solve", dict(_AZU, deg_bound=10 ** 6)),
    ("azu report", dict(_AZU, bhat=["1", "0", "0", "2"], deg_bound=10 ** 6)),
    ("coc check", {"group": "qstar", "indices": 400, "values": []}),
    ("coc coboundary", {"alpha": {"group": "mu", "n": 2, "indices": 400, "values": []}}),
    ("weyl nf", {"expr": "(x + d)^1000000"}),
    ("weyl reduce", {"expr": "x*d + (x + (lam^2)*d)^ 1000000", "n": 1}),
    ("weyl fourier", {"expr": "(D*x)^100000*d", "lam": "1"}),
    ("demo mixed-assoc", {"count": 10 ** 9}),
], ids=lambda x: x if isinstance(x, str) else "")
def test_an_unbounded_payload_is_refused_at_once(capsys, tmp_path, command, payload):
    # unbudgeted, each runs past 5 s, and the first two allocate without bound
    argv = _budget_request(tmp_path, command, payload)
    run(capsys, *argv)      # the parser and the modules the command reads are loaded
    t0 = time.perf_counter()
    code, doc = run_json(capsys, *argv)
    assert time.perf_counter() - t0 < 0.1
    assert (code, doc["data"]) == (1, {"code": "E_BUDGET"})
    assert doc["diagnostics"][0].startswith("E_BUDGET: ")


# budget -> a request whose only large size is that budget's, cheap at the limit
_AT_SIZE = {
    "n": ("weyl nf", lambda n: {"expr": f"x{n}*d1"}),
    "exponent": ("weyl nf", lambda k: {"expr": f"(x + 1)*d^2 + x^{k}"}),
    "count": ("demo hilbert-degree", lambda c: {"count": c}),
    "rank": ("coc glue", lambda r: {"rank": r, "indices": 2, "gluing": []}),
    "deg_bound": ("azu solve", lambda d: {"A": [["0", "0"], ["0", "0"]], "lambda": "1",
                                          "deg_bound": d}),
    "indices": ("coc check", lambda n: {"group": "mu", "n": 2, "indices": n, "values": []}),
    "decided indices": ("coc coboundary",
                        lambda n: {"alpha": {"group": "mu", "n": 2, "indices": n, "values": []}}),
}


@pytest.mark.parametrize("key", sorted(cli.BUDGETS))
def test_a_budget_takes_its_limit_and_refuses_one_more(capsys, tmp_path, key):
    command, payload = _AT_SIZE[key]
    limit = cli.BUDGETS[key]
    code, doc = run_json(capsys, *_budget_request(tmp_path, command, payload(limit)))
    assert (code, doc["status"]) == (0, "ok")
    code, doc = run_json(capsys, *_budget_request(tmp_path, command, payload(limit + 1)))
    assert (code, doc["diagnostics"]) == (
        1, [f"E_BUDGET: {key} {limit + 1} is past the budget of {limit}"])


_QSTAR = {"group": "qstar", "indices": 3, "values": [{"ijk": [0, 1, 2], "v": "2"}]}
_MU = {"group": "mu", "n": 2, "indices": 3, "values": [{"ijk": [0, 1, 2], "v": 1}]}
_GLUE = {"rank": 1, "indices": 2,
         "gluing": [{"ij": [0, 1], "g": [["2"]]}, {"ij": [1, 0], "g": [["1/2"]]}]}


def _with_value(doc, **item):
    return dict(doc, values=[dict(doc["values"][0], **item)])


@pytest.mark.parametrize("command, payload, code", [
    ("coc check", {k: v for k, v in _QSTAR.items() if k != "indices"}, "E_INPUT"),
    ("coc check", _with_value(_QSTAR, v="1/0"), "E_INPUT"),
    ("coc check", _with_value(_QSTAR, ijk=[0, 1]), "E_INPUT"),
    ("coc check", _with_value(_QSTAR, ijk=[0, "1", 2]), "E_INPUT"),
    ("coc check", dict(_MU, n="x"), "E_INPUT"),
    ("coc check", dict(_MU, values={"ijk": [0, 1, 2]}), "E_INPUT"),
    ("coc check", dict(_QSTAR, bogus=1), "E_INPUT"),
    ("coc check", _with_value(_QSTAR, v=0.5), "E_INVALID_INPUT"),
    ("coc check", dict(_MU, n=0), "E_INVALID_INPUT"),
    ("coc check", _with_value(_MU, ijk=[0, 1, 5]), "E_INVALID_INPUT"),
    ("coc check", dict(_MU, group="z2"), "E_INVALID_INPUT"),
    ("coc coboundary", {"alpha": _QSTAR}, "E_UNDECIDABLE_GROUP"),
    ("coc coboundary", {"beta": _MU}, "E_INPUT"),
    ("coc coboundary", {"alpha": [1, 2]}, "E_INPUT"),
    ("coc match", {"left": _MU, "right": None}, "E_INPUT"),
    ("coc glue", dict(_GLUE, gluing=[{"ij": [0, 1], "g": [["x"]]}]), "E_INPUT"),
    ("coc glue", dict(_GLUE, gluing=[{"ij": [0, 1], "g": [[0.5]]}]), "E_INVALID_INPUT"),
    ("coc glue", dict(_GLUE, gluing=[{"ij": [0, 1]}]), "E_INPUT"),
    ("coc glue", dict(_GLUE, twist=_QSTAR), "E_COVER_MISMATCH"),
    ("hilb sheaf", {"summands": ["abc"]}, "E_INPUT"),
    ("hilb sheaf", {"summands": 3}, "E_INPUT"),
    ("hilb sheaf", {"summands": [1], "g_rank": 2, "g_summands": [0]}, "E_INVALID_INPUT"),
    ("hilb sheaf", {"summands": [1], "torsion": -1}, "E_INVALID_INPUT"),
    ("hilb morphism", {"summands": [[1]]}, "E_INPUT"),
    ("weyl nf", {"expr": "x", "n": "x"}, "E_INPUT"),
    ("coc check", {"group": "mu", "n": 2.7, "indices": 3.9, "values": []}, "E_INPUT"),
    ("coc check", dict(_MU, n=True), "E_INPUT"),
    ("weyl nf", {"expr": "x", "n": 1.9}, "E_INPUT"),
    ("hilb sheaf", {"summands": [1.5]}, "E_INPUT"),
    ("hilb sheaf", {"summands": [1], "torsion": False}, "E_INPUT"),
    ("coc glue", dict(_GLUE, rank=1.0), "E_INPUT"),
    ("coc glue", {"rank": 0, "indices": 2, "gluing": [],
                  "descend_endomorphisms": True}, "E_INVALID_INPUT"),
    ("coc check", {"group": "mu", "n": 2, "indices": 3,
                   "values": [{"ijk": [0, True, 2], "v": True}]}, "E_INPUT"),
    ("coc check", _with_value(_MU, ijk=[0, True, 2]), "E_INPUT"),
    ("coc glue", dict(_GLUE, gluing=[{"ij": [0, 1], "g": [[True]]}]), "E_INPUT"),
    ("weyl nf", {"expr": "x1*d1", "n": 0}, "E_INPUT"),
    ("weyl nf", {"expr": "x", "n": False}, "E_INPUT"),
    ("weyl nf", {"expr": "x", "n": -1}, "E_INPUT"),
    ("hilb sheaf", {"summands": "12"}, "E_INPUT"),
    ("coc glue", dict(_GLUE, gluing=[{"ij": [0, 1], "g": "5"},
                                     {"ij": [1, 0], "g": [["1/5"]]}]), "E_INPUT"),
    ("azu report", {"A": [["0", "1"], ["0", "0"]], "lambda": "1", "bhat": "1002"}, "E_INPUT"),
    ("spec curvature", {"rank": 2, "base_vars": "ab",
                        "gammas": [[["a", "0"], ["0", "0"]], [["0", "b"], ["0", "0"]]]},
     "E_INPUT"),
    ("spec cover", {"rank": 2, "base_vars": [1], "phis": [[["0", "1"], ["1", "0"]]]},
     "E_INPUT"),
    ("spec family", {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]], "lambda": "1",
                     "degree": -2}, "E_INPUT"),
    ("demo weyl-assoc --count -3", None, "E_INPUT"),
    ("azu solve", {"A": [["0", "1"], ["0", "0"]], "lambda": "1", "deg_bound": -1}, "E_INPUT"),
    ("azu report", {"A": [["0", "1"], ["0", "0"]], "lambda": "1",
                    "bhat": ["1", "0", "0", "2"], "deg_bound": -1}, "E_INPUT"),
    ('azu solve --a [["0","1"],["0","0"]] --lambda 1 --deg-bound -1', None, "E_INPUT"),
    ("azu classify", {"B": [["1/0", "0"], ["0", "1"]]}, "E_INPUT"),
    ("weyl nf", {"expr": "3/0*x"}, "E_INPUT"),
    ("weyl nf", {"expr": "x0*d0", "lam": "1"}, "E_INPUT"),
    ("weyl act", {"expr": "d0", "poly": "x", "lam": "1"}, "E_INPUT"),
    ("spec curvature", {"rank": "abc", "gammas": [[["w2", "0"], ["0", "1"]],
                                                  [["w1", "1"], ["0", "w2"]]]}, "E_INPUT"),
    ("spec curvature", {"rank": 3, "gammas": [[["w2", "0"], ["0", "1"]],
                                              [["w1", "1"], ["0", "w2"]]]}, "E_SHAPE"),
    ("spec curvature", {"rank": 2, "gammas": []}, "E_SHAPE"),
])
def test_malformed_payload_reports_one_error(capsys, tmp_path, command, payload, code):
    # a payload of None: the command line alone is the malformed input
    argv = command.split()
    if payload is not None:
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
        argv.append(str(f))
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out.count("\n") == 1 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["status"] == "error" and doc["data"]["code"] == code


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(payload):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli.HANDLERS, ("weyl", "nf"), broken)
    status = main(["weyl", "nf", "--expr", "x"])
    captured = capsys.readouterr()
    assert status == 1 and captured.err == ""
    assert json.loads(captured.out) == {"status": "error", "data": {"code": "E_INTERNAL"},
                                        "diagnostics": ["RuntimeError: boom"]}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python writes an int of any length")
@pytest.mark.parametrize("text", [False, True], ids=["json", "text"])
def test_a_report_that_cannot_be_written_is_an_internal_error(capsys, tmp_path, text):
    # monomials at degree 10^2200 is an int past the digit limit of str(int);
    # the message differs between Python versions
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": "spec family",
                             "payload": {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]]}}))
    argv = ["spec", "family", str(f), "--lambda", "1", "--degree", "1" + "0" * 2200]
    status = main(argv + ["--text"] * text)
    captured = capsys.readouterr()
    assert status == 1 and captured.err == ""
    if text:
        lines = captured.out.splitlines()
        assert lines[0] == "status: error" and lines[-1] == "code: E_INTERNAL"
        assert len(lines) == 3 and lines[1].startswith("note: ValueError: ")
    else:
        doc = json.loads(captured.out)
        assert captured.out.count("\n") == 1
        assert (doc["status"], doc["data"]) == ("error", {"code": "E_INTERNAL"})
        assert doc["diagnostics"][0].startswith("ValueError: ")


def test_counts_accept_ints_and_integer_strings(capsys, tmp_path):
    for n in (2, "2"):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"version": 1, "command": "coc check",
                                 "payload": dict(_MU, n=n, indices="3", values=[])}))
        code, doc = run_json(capsys, "coc", "check", str(f))
        assert code == 0 and doc["data"] == {"cocycle": True}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _beta_mu3(v, ij=(0, 1)):
    return {"beta": {"group": "mu", "n": 3, "indices": 3, "values": [{"ij": list(ij), "v": v}]}}


_INPUT = '{"data":{"code":"E_INPUT"},"diagnostics":["%s"],"status":"error"}'
_INVALID = '{"data":{"code":"E_INVALID_INPUT"},"diagnostics":["E_INVALID_INPUT: %s"],"status":"error"}'
_D_BETA_MU3 = ('{"data":{"coboundary":{"group":"mu","indices":3,"n":3,"values":['
               '{"ijk":[0,1,2],"v":2},{"ijk":[0,2,1],"v":1},{"ijk":[1,0,2],"v":1},'
               '{"ijk":[1,2,0],"v":2},{"ijk":[2,0,1],"v":2},{"ijk":[2,1,0],"v":1}]}},'
               '"diagnostics":[],"status":"ok"}')


@pytest.mark.parametrize("command, payload, status, report", [
    ("coc check", _without(_MU, "indices"), 1, _INPUT % "missing payload fields: ['indices']"),
    ("coc check", dict(_MU, indices=0), 1, _INVALID % "a cover needs at least one index"),
    ("coc check", _without(_MU, "n"), 1, _INPUT % "missing payload fields: ['n']"),
    ("coc check", dict(_MU, n=0), 1, _INVALID % "mu requires n >= 1"),
    ("coc check", dict(_MU, values=_MU["values"][0]), 1,
     _INPUT % "bad values: {'ijk': [0, 1, 2], 'v': 1} (expected a JSON array)"),
    ("coc check", dict(_MU, values=[[0, 1, 2]]), 1, _INPUT % "expected a JSON object, got [0, 1, 2]"),
    ("coc check", _with_value(_MU, w=1), 1, _INPUT % "unknown payload fields: ['w']"),
    ("coc check", _with_value(_MU, ijk=[0, 1]), 1, _INPUT % "bad ijk: [0, 1] (expected 3 entries)"),
    ("coc check", _with_value(_MU, ijk=[0, True, 2]), 1,
     _INPUT % "bad ijk: [0, True, 2] (entries must be integers)"),
    ("coc check", _with_value(_MU, ijk=[0, 1, 3]), 1, _INVALID % "index out of range: (0, 1, 3)"),
    ("coc check", _with_value(_QSTAR, v=0.5), 1,
     _INVALID % "floating-point values are not exact; send rationals as strings"),
    ("coc check", _with_value(_QSTAR, v=True), 1, _INPUT % "bad values: True (expected a number)"),
    ("coc check", _with_value(_QSTAR, v="1/0"), 1, _INPUT % "bad values: '1/0' (Fraction(1, 0))"),
    ("coc coboundary", _beta_mu3(2, ij=(1, 1)), 1, _INVALID % "diagonal values must be the identity"),
    ("coc coboundary", _beta_mu3("2"), 0, _D_BETA_MU3),
    ("coc coboundary", _beta_mu3(2), 0, _D_BETA_MU3),
])
def test_cochain_codec_reports(capsys, tmp_path, command, payload, status, report):
    # the exact report for each malformed cochain, and a mu value "2" read as 2
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
    code, out = run(capsys, *command.split(), str(f))
    assert (code, out) == (status, report + "\n")


# -- a rational is read only as [+-]digits or [+-]digits/digits ----------------------

def _rational_requests(literal, tmp_path):
    """argv and report label for each place a rational literal arrives: weyl's
    --lam, azu's lambda, a qstar cochain value and a gluing entry."""
    def problem(command, payload):
        f = tmp_path / f"{command.replace(' ', '-')}.json"
        f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
        return [*command.split(), str(f)]

    glue = [{"ij": [0, 1], "g": [[literal]]}, {"ij": [1, 0], "g": [["1"]]}]
    return [(["weyl", "nf", "--expr", "d*x", f"--lam={literal}"], "lambda"),
            (problem("azu basis", {"A": [["0", "1"], ["0", "0"]], "lambda": literal}), "lambda"),
            (problem("coc check", _with_value(_QSTAR, v=literal)), "values"),
            (problem("coc glue", dict(_GLUE, gluing=glue)), "gluing entries")]


@pytest.mark.parametrize("literal", ["1e500000", "1.5", "1_000", " 3 ", "1e3", "٣", "3/", "/3"])
def test_rational_literal_outside_the_grammar_is_refused_at_once(capsys, tmp_path, literal):
    run(capsys, "weyl", "nf", "--expr", "d*x", "--lam", "1")  # the parser is built
    for argv, what in _rational_requests(literal, tmp_path):
        t0 = time.perf_counter()
        code, doc = run_json(capsys, *argv)
        assert time.perf_counter() - t0 < 0.05, argv
        reason = f"Invalid literal for Fraction: {literal!r}"
        assert (code, doc) == (1, json.loads(_INPUT % f"bad {what}: {literal!r} ({reason})"))


@pytest.mark.parametrize("literal, value", [("-2/3", Fraction(-2, 3)), ("+3", Fraction(3)),
                                            ("4/8", Fraction(1, 2)), ("007", Fraction(7)),
                                            (-5, Fraction(-5))])
def test_rational_literal_in_the_grammar_is_read(capsys, tmp_path, literal, value):
    assert cli._rational(literal) == value
    for argv, _ in _rational_requests(literal, tmp_path):
        assert run(capsys, *argv)[0] != 1, argv
    assert run_json(capsys, "weyl", "nf", "--expr", "d*x", f"--lam={literal}")[1]["data"] == {
        "normal_form": str(weyl.parse_weyl("x*d", 1, value) + value)}
    read = cli.cochain_from_json(_with_value(_QSTAR, v=str(literal)), "ijk")
    assert read.values == ({} if value == 1 else {(0, 1, 2): value})


# -- the reader converts each distinct literal once ---------------------------------

def _item_by_item(payload, key):
    """The cochain with each item's literal converted on its own."""
    group = twisted.Qstar() if payload["group"] == "qstar" else twisted.Mu(payload["n"])
    convert = Fraction if payload["group"] == "qstar" else int
    values = {tuple(item[key]): convert(item["v"]) for item in payload["values"]}
    cochain = twisted.UnitCochain2 if key == "ijk" else twisted.Cochain1
    return cochain(twisted.CoverNerve(payload["indices"]), group, values)


@pytest.mark.parametrize("payload, key", [
    ({"group": "qstar", "indices": 4, "values": [
        {"ijk": [0, 1, 2], "v": "1/2"}, {"ijk": [0, 2, 1], "v": "2/4"},
        {"ijk": [1, 0, 2], "v": "-3"}, {"ijk": [1, 2, 0], "v": "-3/1"},
        {"ijk": [2, 0, 1], "v": "1/2"}, {"ijk": [2, 1, 0], "v": "-3"},
        {"ijk": [3, 3, 1], "v": "1"}, {"ijk": [0, 1, 3], "v": "4/4"},
        {"ijk": [1, 2, 3], "v": "6/4"}, {"ijk": [0, 1, 2], "v": "4/8"}]}, "ijk"),
    ({"group": "qstar", "indices": 4, "values": [
        {"ij": [0, 1], "v": "1/2"}, {"ij": [1, 0], "v": "2"}, {"ij": [0, 2], "v": "-3"},
        {"ij": [2, 3], "v": "-3/1"}, {"ij": [3, 2], "v": "-1/3"}, {"ij": [1, 1], "v": "1"}]}, "ij"),
    ({"group": "mu", "n": 4, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 6}, {"ijk": [0, 2, 1], "v": 2}, {"ijk": [1, 0, 2], "v": -2},
        {"ijk": [1, 2, 0], "v": 6}, {"ijk": [2, 0, 1], "v": 0}]}, "ijk"),
])
def test_cochain_reader_shares_converted_literals(payload, key):
    # equal values written differently and repeated literals read as the
    # item-by-item conversion does, down to the wire form written back
    got, want = cli.cochain_from_json(payload, key), _item_by_item(payload, key)
    assert got.values == want.values and got.nerve == want.nerve and got.group == want.group
    assert cli.cochain_to_json(got) == cli.cochain_to_json(want)


_HALF_TWO = [{"ijk": [0, 1, 2], "v": "1/2"}, {"ijk": [0, 2, 1], "v": "2"},
             {"ijk": [1, 0, 2], "v": "1/2"}]


@pytest.mark.parametrize("item, report", [
    ({"ijk": [1, 2, 0], "v": "1/2", "w": 1}, _INPUT % "unknown payload fields: ['w']"),
    ({"ijk": [1, True, 0], "v": "1/2"}, _INPUT % "bad ijk: [1, True, 0] (entries must be integers)"),
    ({"ijk": [1, 2], "v": "2"}, _INPUT % "bad ijk: [1, 2] (expected 3 entries)"),
    ({"ijk": [1, 2, 3], "v": "2"}, _INVALID % "index out of range: (1, 2, 3)"),
    ({"ijk": [1, 1, 0], "v": "1/2"},
     _INVALID % "values on tuples with repeated indices must be the identity"),
    ({"ijk": [1, 2, 0], "v": 0.5},
     _INVALID % "floating-point values are not exact; send rationals as strings"),
])
def test_malformed_item_after_converted_literals(capsys, tmp_path, item, report):
    # an item refused after well-formed items whose literal it repeats
    payload = {"group": "qstar", "indices": 3, "values": _HALF_TWO + [item]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": "coc check", "payload": payload}))
    assert run(capsys, "coc", "check", str(f)) == (1, report + "\n")


@pytest.mark.parametrize("command, payload, status, report", [
    ("coc coboundary", {"beta": {"group": "mu", "n": 5, "indices": 3, "values": [
        {"ij": [0, 1], "v": 2}, {"ij": [0, 1], "v": 3}]}}, 1,
     _INVALID % "conflicting values for pair (0, 1)"),
    ("coc coboundary", {"beta": {"group": "qstar", "indices": 3, "values": [
        {"ij": [1, 0], "v": "2"}, {"ij": [1, 0], "v": "3"}]}}, 1,
     _INVALID % "conflicting values for pair (0, 1)"),
    ("coc check", {"group": "mu", "n": 3, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 1}, {"ijk": [0, 1, 2], "v": 2}]}, 1,
     _INVALID % "conflicting values for triple (0, 1, 2)"),
    ("coc check", {"group": "qstar", "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": "2"}, {"ijk": [0, 1, 2], "v": "1"}]}, 1,
     _INVALID % "conflicting values for triple (0, 1, 2)"),
    # values equal as group elements: 2 and 5 in mu_3, 1/2 and 2/4 in qstar
    ("coc coboundary", {"beta": {"group": "mu", "n": 3, "indices": 3, "values": [
        {"ij": [0, 1], "v": 2}, {"ij": [0, 1], "v": 5}]}}, 0, _D_BETA_MU3),
    ("coc check", {"group": "qstar", "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": "1/2"}, {"ijk": [0, 1, 2], "v": "2/4"}]}, 2, None),
])
def test_tuple_listed_twice(capsys, tmp_path, command, payload, status, report):
    # a tuple listed twice is refused unless both values are one group element
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
    code, out = run(capsys, *command.split(), str(f))
    assert code == status and (report is None or out == report + "\n")


@pytest.mark.parametrize("payload, report", [
    # a malformed item is reported before an index out of range listed first
    ({"group": "qstar", "indices": 3, "values": [
        {"ijk": [0, 1, 3], "v": "2"}, {"ijk": [0, 1, 2], "v": 0.5}]},
     _INVALID % "floating-point values are not exact; send rationals as strings"),
    # a zero that a later listing overrides passes the constructor, and the
    # repeat check reports it
    ({"group": "qstar", "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": "0"}, {"ijk": [1, 2, 0], "v": "2"}, {"ijk": [0, 1, 2], "v": "2"}]},
     _INVALID % "0 is not a unit"),
    # the constructor's report comes before a conflicting repeat
    ({"group": "mu", "n": 3, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 1}, {"ijk": [0, 1, 2], "v": 2}, {"ijk": [0, 0, 1], "v": 1}]},
     _INVALID % "values on tuples with repeated indices must be the identity"),
    # a malformed value equal to a literal read before it (True == 1.0 == 1)
    ({"group": "mu", "n": 3, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 1}, {"ijk": [1, 2, 0], "v": True}]},
     _INPUT % "bad values: True (expected a number)"),
    ({"group": "mu", "n": 3, "indices": 3, "values": [
        {"ijk": [0, 1, 2], "v": 1}, {"ijk": [1, 2, 0], "v": 1.0}]},
     _INVALID % "floating-point values are not exact; send rationals as strings"),
])
def test_fault_precedence(capsys, tmp_path, payload, report):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": "coc check", "payload": payload}))
    assert run(capsys, "coc", "check", str(f)) == (1, report + "\n")


# -- the one-pass reader against the reader it replaced ------------------------------

def _wire_rational(raw):
    """A qstar value as the wire contract reads it: ``Fraction`` of the text
    only when it is [+-]digits or [+-]digits/digits."""
    text = str(raw)
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    return Fraction(text)


def _item_reader(payload, key):
    """``cochain_from_json`` as it read cochains before the one-pass reader:
    the helpers, then the checked constructor."""
    cli._take(payload, optional=cli.COCHAIN)
    name = payload.get("group")
    if name == "qstar":
        group = twisted.Qstar()
    elif name == "mu":
        group = twisted.Mu(cli._int(cli._field(payload, "n"), "n"))
    else:
        raise twisted.InvalidInputError(f"unknown group {name!r}")
    nerve = twisted.CoverNerve(cli._int(cli._field(payload, "indices"), "indices"))
    convert = _wire_rational if name == "qstar" else int
    values = {}
    for item in cli._list(payload.get("values", []), "values"):
        cli._take(item, required=(key, "v"))
        values[cli._indices(item[key], key, len(key))] = cli._exact(item["v"], convert, "values")
    cochain = twisted.UnitCochain2 if len(key) == 3 else twisted.Cochain1
    cochain = cochain(nerve, group, values)
    # and a tuple listed again must carry the same group element
    last = {}
    for item in payload.get("values", []):
        t, v = tuple(item[key]), convert(item["v"])
        if t in last and group.validate(last[t]) != group.validate(v):
            what = f"triple {t}" if len(t) == 3 else f"pair {tuple(sorted(t))}"
            raise twisted.InvalidInputError(f"conflicting values for {what}")
        last[t] = v
    return cochain


def _read_outcome(reader, payload, key):
    """The cochain ``reader`` reads, as its parts, or the exit code and report
    bytes of the `azk` command that reads it."""
    try:
        c = reader(payload, key)
        return c.nerve, c.group, list(c.values.items())
    except Exception:
        pass
    command, body = ("check", payload) if key == "ijk" else ("coboundary", {"beta": payload})
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "p.json"
        path.write_text(json.dumps({"version": 1, "command": f"coc {command}", "payload": body}))
        mp.setattr(cli, "cochain_from_json", reader)
        with contextlib.redirect_stdout(buf):
            code = main(["coc", command, str(path)])
    return code, buf.getvalue()


# what a well-formed item may be turned into, one change per cochain
_BREAKS = ["bool index", "float index", "string index", "index -1", "index N", "short tuple",
           "long tuple", "tuple as tuple", "extra key", "missing v", "item not a dict",
           "bool value", "float value", "value 0", "value 1/0", "string mu value",
           "equal repeat", "different repeat", "reversed pair", "diagonal", "identity",
           "decimal value"]


@st.composite
def wire_cochains(draw):
    """(payload, key): a wire cochain of N = 1 to 6 in qstar or mu_n, well
    formed or with one or two of ``_BREAKS``, each applied to its own item,
    so that a fault the checked constructor reports may come before a
    malformed item."""
    key = draw(st.sampled_from(["ijk", "ij"]))
    size = draw(st.integers(1, 6))
    qstar = draw(st.booleans())
    n = draw(st.integers(1, 6))
    if qstar:
        value = st.sampled_from(["1", "2", "-1/2", "3/4", "2/4", "-1", "1/1", "4/2", "-3"])
    else:
        value = st.integers(-n - 1, 2 * n + 1)
    if key == "ijk":
        tuples = st.tuples(*[st.integers(0, size - 1)] * 3)
    else:
        tuples = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
            lambda t: t[0] < t[1]) if size > 1 else st.nothing()
    picked = draw(st.lists(tuples, min_size=1, max_size=12, unique=True)) if size > 1 else []
    items = [{key: list(t), "v": draw(value)} for t in picked]
    if key == "ijk":
        # a triple with a repeated index carries the identity
        for item in items:
            if len(set(item[key])) < 3:
                item["v"] = "1" if qstar else n * draw(st.integers(-1, 1))
    payload = {"group": "qstar" if qstar else "mu", "indices": size, "values": items}
    if not qstar:
        payload["n"] = n
    broken = []
    for brk in draw(st.lists(st.sampled_from([None] * 8 + _BREAKS), min_size=1, max_size=2)):
        if brk is None:
            continue
        # each break goes to an item no break has touched yet
        clean = [x for x in items if type(x) is dict and all(x is not b for b in broken)]
        if clean:
            item = clean[draw(st.integers(0, len(clean) - 1))]
        else:
            item = {key: [0] * len(key), "v": "1" if qstar else 0}
            items.append(item)
        broken.append(item)
        t, pos = item[key], draw(st.integers(0, len(key) - 1))
        if brk == "bool index":
            t[pos] = True
        elif brk == "float index":
            t[pos] = float(t[pos])
        elif brk == "string index":
            t[pos] = str(t[pos])
        elif brk in ("index -1", "index N"):
            t[pos] = -1 if brk == "index -1" else size
        elif brk == "short tuple":
            t.pop()
        elif brk == "long tuple":
            t.append(0)
        elif brk == "tuple as tuple":
            item[key] = tuple(t)
        elif brk == "extra key":
            item["w"] = 1
        elif brk == "missing v":
            del item["v"]
        elif brk == "item not a dict":
            items.append(list(t))
        elif brk == "bool value":
            item["v"] = True
        elif brk == "float value":
            item["v"] = 0.5
        elif brk == "value 0":
            item["v"] = "0" if qstar else 0
        elif brk == "value 1/0":
            item["v"] = "1/0"
        elif brk == "string mu value":
            item["v"] = str(item["v"])
        elif brk == "equal repeat":
            v = item["v"]
            twin = {"1": "1/1", "2": "4/2", "2/4": "1/2", "-1": "-1/1"}.get(v, v) if qstar else v + n
            items.append({key: list(t), "v": twin})
        elif brk == "different repeat":
            items.append({key: list(t), "v": draw(value.filter(lambda v: v != item.get("v")))})
        elif brk == "reversed pair":
            items.append({key: t[::-1], "v": draw(value)})
        elif brk == "diagonal":
            t[-1] = t[0]
        elif brk == "identity":
            item["v"] = "1" if qstar else n
        elif brk == "decimal value":
            item["v"] = draw(st.sampled_from(["1.5", "1e3", " 2", "1_000", "2.0"]))
    return payload, key


@settings(max_examples=400, deadline=None)
@given(wire_cochains())
def test_cochain_reader_matches_the_item_reader(case):
    # the same cochain, dict order included, or the same exit code and report
    payload, key = case
    assert _read_outcome(cli.cochain_from_json, payload, key) == _read_outcome(_item_reader, payload, key)


def test_reader_validates_each_literal_once(monkeypatch):
    # a well-formed N = 8 cochain: at most one validate per distinct literal,
    # and the checked constructors never run
    rng = random.Random(8)
    nerve = twisted.CoverNerve(8)
    docs = []
    for group, pick in ((twisted.Qstar(), [Fraction(p, q) for p in (1, -1, 2, 3) for q in (1, 2, 5)]),
                        (twisted.Mu(6), list(range(6)))):
        beta = twisted.Cochain1(nerve, group, {(i, j): rng.choice(pick)
                                               for i in range(8) for j in range(i + 1, 8)})
        docs += [(cli.cochain_to_json(beta), "ij"),
                 (cli.cochain_to_json(twisted.coboundary(beta)), "ijk")]
    want = [cli.cochain_from_json(doc, key) for doc, key in docs]

    def refuse(*_):
        raise AssertionError("the checked constructor ran")
    calls = []
    qstar, mu = twisted.Qstar.validate, twisted.Mu.validate
    monkeypatch.setattr(twisted.Qstar, "validate", staticmethod(lambda a: calls.append(a) or qstar(a)))
    monkeypatch.setattr(twisted.Mu, "validate", lambda self, a: calls.append(a) or mu(self, a))
    monkeypatch.setattr(twisted.UnitCochain2, "__init__", refuse)
    monkeypatch.setattr(twisted.Cochain1, "__init__", refuse)
    for (doc, key), cochain in zip(docs, want):
        calls.clear()
        got = cli.cochain_from_json(doc, key)
        assert list(got.values.items()) == list(cochain.values.items())
        assert 0 < len(calls) <= len({item["v"] for item in doc["values"]}) < len(doc["values"])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([None, 2, 3, 6]), st.randoms(use_true_random=False))
def test_coboundary_matches_the_checked_constructor(size, n, rng):
    nerve = twisted.CoverNerve(size)
    group = twisted.Qstar() if n is None else twisted.Mu(n)
    pick = [Fraction(1), Fraction(-2), Fraction(3, 4)] if n is None else list(range(n))
    beta = twisted.Cochain1(nerve, group, {(i, j): rng.choice(pick)
                                           for i in range(size) for j in range(i + 1, size)})
    got = twisted.coboundary(beta)
    want = twisted.UnitCochain2(nerve, group, twisted._coboundary_values(beta))
    assert got == want and list(got.values.items()) == list(want.values.items())


# -- main() keeps no state between calls ------------------------------------------

def _fresh(argv, cwd):
    """The bytes a new `azk` process prints for ``argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, AZK_COLOR="never")
    proc = subprocess.run([sys.executable, "-m", "azumaya.cli", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def test_reused_parser_carries_no_state(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("AZK_COLOR", "never")
    monkeypatch.chdir(tmp_path)
    nf = ["weyl", "nf", "--expr", "D*x^2", "--lam", "1"]
    sequences = [
        [nf + ["--text"], nf],
        [nf + ["--out", "r.json"], nf],
        [["weyl", "nf", "--bogus"], nf],
        [["demo", "weyl-assoc", "--seed", "5", "--count", "3"], ["demo", "weyl-assoc"]],
    ]
    for seq in sequences:
        for argv in seq:
            code, out = run(capsys, *argv)
            written = Path("r.json").read_text() if "--out" in argv else None
            assert (code, out) == _fresh(argv, tmp_path), argv
            if written is not None:
                assert written == Path("r.json").read_text()


# -- the documented command lines are read from the command table ---------------

_A = '[["0","1"],["0","0"]]'
_README_LINES = [
    ["weyl", "nf", "--expr", "D*x", "--lam", "1"],
    ["weyl", "act", "--expr", "x*d", "--poly", "x^2+1", "--lam", "1"],
    ["weyl", "reduce", "--expr", "x^2*d"],
    ["azu", "solve", "--a", _A, "--lambda", "1"],
    ["azu", "basis", "--a", _A, "--lambda", "1"],
    ["azu", "report", "--a", _A, "--lambda", "1", "--bhat", "1,0,0,2"],
    ["coc", "check", "problem.json"],
    ["hilb", "sheaf", "problem.json"],
    ["demo", "example-5-1-11"],
    ["demo", "cocycle-dd", "--seed", "3", "--count", "500"],
    ["weyl", "nf", "--expr", "-x*d", "--lam", "-2/3", "--text", "--out", "r.json"],
    ["weyl", "nf", "--expr=-x*d", "--lam=formal", "p.json", "--n", "2"],
]


def _perfbench_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    for name, make in workloads.WORKLOADS.items():
        for req in [*make(workloads.DEFAULT_SEED), workloads.LIGHTEST[name]()]:
            yield req.argv + (["p.json"] if req.problem is not None else [])


# GROUP SUB FILE, demo NAME --seed S --count C and the worked demo's --bhat=...
_COMMAND_LINES = [
    [group, sub, "p.json"] if group != "demo"
    else [group, sub, "--bhat=1,2,0,3"] if sub == cli.CANONICAL_DEMO
    else [group, sub, "--seed", "7", "--count", "2"] for group, sub in sorted(cli.COMMANDS)]


def test_documented_lines_are_read_without_argparse(monkeypatch):
    for argv in [*_README_LINES, *_COMMAND_LINES, *_perfbench_lines(monkeypatch)]:
        args = cli._Parser.parse_args(argv)
        assert args["command"] == tuple(argv[:2]), argv
        options = {token.partition("=")[0] for token in argv if token.startswith("--")}
        assert {key for key, (option, *_) in cli.FLAGS.items() if option in options} == (
            set(args) & set(cli.FLAGS)), argv


# -- fuzzed `weyl` commands: one report and a contract exit code for any text ------

_ATOMS = st.sampled_from(["x", "d", "D", "X", "x1", "d1", "x2", "d2", "lam", "3", "2/3", "0"])
# unknown names, index 0, bad literals, stray operators and spaces
_JUNK = ["y", "x0", "d0", "3/0", "1.5", "#", "^", "()", ")", "(", "**", " ", "x^-1"]
_SIGNS = st.sampled_from(["", "-", "+", "- -", "-+"])
_OPS = st.sampled_from([" + ", " - ", "+-", "*"])


@st.composite
def weyl_text(draw):
    """Sums of products of generators, numbers and parenthesised sums, with
    exponents at most 4; one time in four a junk token lands somewhere."""
    def power(text):
        k = draw(st.integers(-1, 4))
        return text if k < 0 else f"{text}^{k}"

    def chain(part, most):
        out = part()
        for _ in range(draw(st.integers(0, most - 1))):
            out += draw(_OPS) + part()
        return draw(_SIGNS) + out

    def factor():
        if draw(st.booleans()):
            return power(draw(_ATOMS))
        return power("(" + chain(lambda: draw(_ATOMS), 3) + ")")

    text = chain(lambda: "*".join(factor() for _ in range(draw(st.integers(1, 3)))), 3)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(_JUNK)) + text[at:]
    return text


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["nf", "act", "fourier", "reduce"]), weyl_text(),
       st.sampled_from([None, "formal", "1", "0", "-2/3", "5/7"]),
       st.sampled_from([None, None, "1", "2", "3"]),
       st.sampled_from(["x^2 + 1", "x1*x2 - 3", "2/3*x", "y", "x^"]))
def test_weyl_commands_fuzzed(sub, text, lam, n, poly):
    argv = ["weyl", sub, f"--expr={text}"]
    # `act` needs a lam; a formal one is a mode mismatch
    lam = "1" if sub == "act" and lam is None else lam
    argv += [] if lam is None else [f"--lam={lam}"]
    argv += [] if n is None else [f"--n={n}"]
    argv += [f"--poly={poly}"] if sub == "act" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2) and code == cli.EXIT_BY_STATUS[doc["status"]]
    # E_INTERNAL is the code of a defect, not of malformed text
    assert doc["data"].get("code") != "E_INTERNAL", doc


# -- every command fuzzed from its declared keys ------------------------------------

_MAT = st.sampled_from([[["0", "1"], ["0", "0"]], [["1/2", "1/3"], ["0", "1/2"]],
                        [["z", "1"], ["0", "z"]], [["0", "z"], ["1", "0"]],
                        [["0", "2"], ["1", "0"]], [["0", "0", "z"], ["1", "0", "1"], ["0", "1", "0"]]])
_GAMMA = st.sampled_from([[["w2", "0"], ["0", "1"]], [["w1", "1"], ["0", "w2"]],
                          [["1", "0"], ["0", "2"]]])


@st.composite
def _cochain(draw, key):
    """A small mu or qstar cochain in wire form, a 2-cochain for key "ijk";
    one time in three a 2-cochain is d of a 1-cochain."""
    if key == "ijk" and draw(st.integers(0, 2)) == 0:
        group = twisted.Mu(draw(st.integers(1, 8))) if draw(st.booleans()) else twisted.Qstar()
        beta = suites.rand_cochain1(random.Random(draw(st.integers(0, 99))),
                                    twisted.CoverNerve(draw(st.integers(1, 5))), group)
        return cli.cochain_to_json(twisted.coboundary(beta))
    group, size = draw(st.sampled_from(["mu", "qstar"])), draw(st.integers(1, 4))
    value = st.integers(0, 7) if group == "mu" else st.sampled_from(["2", "-1/3", "1"])
    item = st.fixed_dictionaries({key: st.lists(st.integers(0, size - 1), min_size=len(key),
                                                max_size=len(key)), "v": value})
    out = {"group": group, "indices": size, "values": draw(st.lists(item, max_size=6))}
    return dict(out, n=draw(st.integers(1, 8))) if group == "mu" else out


_GLUE3 = [{"ij": list(ij), "g": [[g]]} for ij, g in (
    ((0, 1), "2"), ((1, 0), "1/2"), ((0, 2), "3"), ((2, 0), "1/3"), ((1, 2), "5"), ((2, 1), "1/5"))]

# a well-formed value for each payload key; sizes stay small or go past their
# budget, and values that suit one command (a rank, a matrix) are often wrong
# for another
_VALID = {
    "expr": st.sampled_from(["x", "D*x", "x1*d2 + x2^2", "(x + d)^3", "lam*d - 2/3"]),
    "poly": st.sampled_from(["x^2 + 1", "x1*x2 - 3", "2/3*x"]),
    "lam": st.sampled_from(["1", "0", "-2/3", "formal"]),
    "n": st.one_of(st.integers(1, 8), st.just(10 ** 30)),
    "A": _MAT, "B": _MAT,
    "lambda": st.sampled_from(["1", "-2/3", "0", "2"]),
    "deg_bound": st.one_of(st.integers(0, 20), st.just(10 ** 6)),
    "bhat": st.sampled_from([["1", "0", "0", "2"], ["1", "1", "0", "1"], ["2", "0", "0", "2"]]),
    "rank": st.sampled_from([1, 1, 2, 2, 3, 8, 10 ** 6]),
    "phis": st.lists(_MAT, min_size=1, max_size=2),
    "gammas": st.lists(_GAMMA, min_size=1, max_size=2),
    "base_vars": st.sampled_from([["z"], ["w1", "w2"], []]),
    "mode": st.sampled_from([None, "cover", "admissible", "family", "curvature"]),
    "degree": st.integers(0, 20),
    "group": st.sampled_from(["mu", "qstar"]),
    "indices": st.sampled_from([1, 2, 3, 3, 8, 400]),
    "values": _cochain("ijk").map(lambda c: c["values"]),
    "beta": _cochain("ij"),
    **dict.fromkeys(("alpha", "left", "right", "twist"), _cochain("ijk")),
    "gluing": st.sampled_from([_GLUE3, _GLUE3[:2], _GLUE["gluing"], []]),
    "descend_endomorphisms": st.booleans(),
    "summands": st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                          st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                   min_size=1, max_size=3)),
    "torsion": st.integers(0, 3),
    "g_rank": st.integers(1, 3),
    "g_summands": st.lists(st.integers(-2, 2), min_size=1, max_size=3),
    "seed": st.integers(0, 50),
    "count": st.integers(0, 1),
}
_FUZZ_JUNK = st.sampled_from([
    True, False, 0.5, -1, 0, None, [], {}, "", "1/0", "v", "formal", [[]],
    [["1", "2"], ["3"]], [[0.5]], [[True]], [{"ij": [0, 1]}], {"group": "z2"},
    {"group": "mu", "n": 2, "indices": 3, "values": [{"ijk": [0, 1]}]},
    {"group": "qstar", "indices": 2, "values": [{"ij": [0, 1], "v": 0.5}]}])


def _flag_text(key, value):
    if key == "bhat" and isinstance(value, list) and all(isinstance(c, str) for c in value):
        return ",".join(value)
    return value if isinstance(value, str) else json.dumps(value)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS), ids=" ".join)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_command_fuzzed(tmp_path_factory, command, data):
    # a payload of the declared keys, all required and some optional ones,
    # with up to two values replaced by junk; flags carry what they can.
    # A suite always gets a count: without one it runs 100 cases
    _, required, optional = cli.COMMANDS[command]
    keys = [*required, *(k for k in optional if k == "count" or data.draw(st.booleans()))]
    payload = {k: data.draw(_VALID[k]) for k in keys}
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)) if keys else ():
        payload[key] = data.draw(_FUZZ_JUNK)
    argv = list(command)
    for key in list(payload):
        if key in cli.FLAGS and command[0] != "coc" and (
                command[0] == "demo" or data.draw(st.booleans())):
            argv.append(f"{cli.FLAGS[key][0]}={_flag_text(key, payload.pop(key))}")
    if command[0] != "demo":
        f = tmp_path_factory.getbasetemp() / "fuzz.json"
        f.write_text(json.dumps({"version": 1, "command": " ".join(command), "payload": payload}))
        argv.append(str(f))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")
    doc = json.loads(out.getvalue())
    assert code in (0, 1, 2) and code == cli.EXIT_BY_STATUS[doc["status"]]
    assert doc["data"].get("code") != "E_INTERNAL", (argv, payload, doc)


# -- report paths no other test reaches, pinned byte for byte -------------------

def _ok(data):
    return '{"data":%s,"diagnostics":[],"status":"ok"}\n' % data


_MU2_TWO_TRIPLES = {"group": "mu", "n": 2, "indices": 3, "values": [
    {"ijk": [0, 1, 2], "v": 1}, {"ijk": [1, 2, 0], "v": 1}]}


@pytest.mark.parametrize("command, payload, status, report", [
    ("spec curvature", {"rank": 2, "gammas": [[["w2", "0"], ["0", "1"]],
                                              [["w1", "1"], ["0", "w2"]]]},
     0, _ok('{"components":{"0,1":[["0","w2 - 1"],["0","0"]]},"flat":false}')),
    ("spec curvature", {"rank": 2, "gammas": [[["1", "0"], ["0", "2"]],
                                              [["3", "0"], ["0", "w2"]]]},
     0, _ok('{"components":{"0,1":[["0","0"],["0","0"]]},"flat":true}')),
    ("spec family", {"rank": 2, "phis": [[["0", "z"], ["1", "0"]]], "lambda": "0"},
     0, _ok('{"cover":"v^2 - z","image_ideal":"v^2 - z","lambda":"0","reduced":true}')),
    ("spec admissible", {"rank": 2, "phis": [[["0", "z"], ["1", "0"]],
                                             [["1", "z"], ["1", "1"]]]},
     0, _ok('{"admissible":true,"subalgebra_basis":'
            '[[["1","0"],["0","1"]],[["0","z"],["1","0"]]]}')),
    ("azu classify", {"B": [["1", "z"], ["0", "2"]]},
     0, _ok('{"case":"DistinctEigen","components":[{"basis":[["1","0"]],"eigenvalue":"1",'
            '"rank":1},{"basis":[["z","1"]],"eigenvalue":"2","rank":1}],"eigenvalues":'
            '["1","2"],"filtration":false,"kernel_ideal":"v^2 - 3*v + 2"}')),
    ("azu classify", {"B": [["0", "z"], ["0", "0"]]},
     0, _ok('{"case":"RepeatedNilpotent","components":[{"basis":[["1","0"]],'
            '"eigenvalue":"0","rank":1}],"eigenvalues":["0"],"filtration":true,'
            '"kernel_ideal":"v^2"}')),
    ("coc coboundary", {"alpha": {"group": "mu", "n": 3, "indices": 4,
                                  "values": [{"ijk": [0, 1, 2], "v": 1}]}},
     0, _ok('{"is_coboundary":false}')),
    ("coc glue", {"rank": 1, "indices": 3, "gluing": [
        {"ij": [0, 1], "g": [["2"]]}, {"ij": [1, 0], "g": [["1/2"]]},
        {"ij": [0, 2], "g": [["3"]]}, {"ij": [2, 0], "g": [["1/3"]]},
        {"ij": [1, 2], "g": [["5"]]}, {"ij": [2, 1], "g": [["1/5"]]}]},
     2, '{"data":{"glued":false,"violation":[0,1,2]},"diagnostics":'
        '["twisted cocycle condition fails on (0, 1, 2)"],"status":"violation"}\n'),
    ("coc match", {"left": _MU2_TWO_TRIPLES,
                   "right": dict(_MU2_TWO_TRIPLES, values=_MU2_TWO_TRIPLES["values"][::-1])},
     0, _ok('{"match":true}')),
])
def test_report_paths_pinned(capsys, tmp_path, command, payload, status, report):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"version": 1, "command": command, "payload": payload}))
    assert run(capsys, *command.split(), str(f)) == (status, report)


def test_azu_report_with_degree_bound_pinned(capsys):
    assert run(capsys, "azu", "report", "--a", '[["0","1"],["0","0"]]', "--lambda", "1",
               "--bhat", "1,0,0,2", "--deg-bound", "2") == (0, _ok(
        '{"case":"DistinctEigen","components":[{"basis":[["1","0"]],"eigenvalue":"1",'
        '"rank":1},{"basis":[["-z","1"]],"eigenvalue":"2","rank":1}],"deg_bound":2,'
        '"eigenvalues":["1","2"],"filtration":false,"kernel_ideal":"v^2 - 3*v + 2",'
        '"solve_dimension":4}'))


def _text(*lines):
    return "\n".join(lines) + "\n"


def test_text_mode_nests_lists_and_objects(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("AZK_COLOR", "never")
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"version": 1, "command": "coc coboundary", "payload": {
        "beta": {"group": "mu", "n": 3, "indices": 3, "values": [{"ij": [0, 1], "v": 1}]}}}))
    triples = []
    for ijk, v in (("012", 1), ("021", 2), ("102", 2), ("120", 1), ("201", 1), ("210", 2)):
        triples += ["    -", "      ijk:", *(f"        - {i}" for i in ijk), f"      v: {v}"]
    assert run(capsys, "coc", "coboundary", "--text", str(f)) == (0, _text(
        "status: ok", "coboundary:", "  group: mu", "  indices: 3", "  n: 3", "  values:",
        *triples))

    def matrix(*rows):
        return ["  -", *(line for row in rows for line in ("    -", *(f"      - {x}" for x in row)))]

    assert run(capsys, "azu", "basis", "--a", '[["0","1"],["0","0"]]', "--lambda", "1",
               "--text") == (0, _text(
        "status: ok", "basis:", *matrix(("1", "z"), ("0", "0")), *matrix(("0", "1"), ("0", "0")),
        *matrix(("-z", "-z^2"), ("1", "z")), *matrix(("0", "-z"), ("0", "1")),
        "discriminant: 0"))
