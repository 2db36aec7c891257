"""Tests of the benchmark itself (not of azumaya):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import ladders  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import COUNT_METRICS, MODULES, Tracer  # noqa: E402

CLI = run.import_cli()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def in_checkout(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    previous = signal.signal(signal.SIGALRM, ladders.on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _fingerprint(requests):
    return [(r.kind, r.argv, r.problem, r.exit, r.data) for r in requests]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_fixtures_are_deterministic_per_seed(name):
    gen = W.WORKLOADS[name]
    assert _fingerprint(gen(3)) == _fingerprint(gen(3))
    assert _fingerprint(gen(3)) != _fingerprint(gen(4))
    assert len(gen(3)) >= 100


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_default_seed_matches_pinned_digests(name):
    with run.scratch_dir():
        session = run.Session(CLI, name, W.DEFAULT_SEED)
        assert session.pinned is not None
        result = session.run_pass()
    assert result.failed == 0, session.errors[:5]
    assert len(result.lat) == len(session.pinned)


def _truncated(monkeypatch, name, count=24):
    full = W.WORKLOADS[name]
    monkeypatch.setitem(W.WORKLOADS, name, lambda seed: full(seed)[:count])


def _fast_ladders(monkeypatch):
    stub = {m: (0.5, "count" if m == "ladder.skipped" else "s") for m in ladders.metric_names()}
    monkeypatch.setattr(run.ladders, "run_ladders", lambda az, seed: (dict(stub), []))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_repeats_digests_and_counts(monkeypatch, name):
    """Traced passes must reproduce the untraced reports byte for byte, every
    per-layer metric must be reported, and counts must repeat exactly."""
    _truncated(monkeypatch, name)
    _fast_ladders(monkeypatch)
    args = SimpleNamespace(workload=name, seed=W.DEFAULT_SEED, seconds=1, trace=1)
    results = []
    for _ in range(2):
        with run.scratch_dir():
            session, attempted, failed, metrics, _ = run.traced(CLI, args)
        assert failed == 0, session.errors[:5]
        assert attempted == 4 * len(session.requests)
        results.append(metrics)
    assert list(results[0]) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric, (value, unit) in results[0].items():
        if unit in ("count", "bits", "bytes"):
            assert results[1][metric][0] == value, metric


def _namespaces():
    import azumaya
    mods = [sys.modules[f"azumaya.{m}"] for m in MODULES] + [azumaya]
    owners = mods + [v for m in mods for v in vars(m).values() if isinstance(v, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return CLI.main(argv)


def test_uninstall_restores_every_binding():
    before = _namespaces()
    tracer = Tracer()
    with tracer:
        assert _namespaces() != before
        _quiet(["weyl", "nf", "--expr", "x*d", "--lam", "1"])
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.calls_of("weyl:parse_weyl") == 1


def test_tracer_counts_nested_module_time_once():
    tracer = Tracer()
    with tracer:
        _quiet(["weyl", "nf", "--expr", "(x+D)^6"])
    m = tracer.metrics()
    assert m["weyl.mul_calls"][0] >= 6
    assert m["weyl.mul_s"][0] <= m["weyl.parse_s"][0] <= m["weyl.busy_s"][0] <= m["cli.busy_s"][0]
    assert sum(tracer.mod_self) == pytest.approx(m["cli.busy_s"][0], abs=1e-6)
    assert set(COUNT_METRICS) <= set(m)


def test_end_to_end_names_match_benchmark_json():
    assert list(run.END_TO_END.items()) == [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]


def test_cap_aborts_a_long_call():
    def spin():
        while True:
            pass
    with pytest.raises(ladders.CapExceeded):
        ladders.call_capped(spin, 0.05)


def test_request_over_its_cap_fails():
    req = W.Request("slow", ["weyl", "nf", "--expr", "(x+D)^60"], cap_s=0.01)
    dt, code, out, exc = run.execute(CLI, req)
    assert isinstance(exc, ladders.CapExceeded)
    with run.scratch_dir():
        session = run.Session(CLI, "cech-twists", 1)
    assert not session.verify(0, req, dt, code, out, exc)


def test_known_defects_are_counted_not_fatal():
    with run.scratch_dir():
        attempted, escaped = run.run_defects(CLI, W.DEFAULT_SEED)
    assert attempted == 4
    assert 0 <= escaped <= attempted
