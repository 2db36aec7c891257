"""Every script in demos/ prints exactly the bytes recorded for it in
tests/golden/demos/<name>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import azumaya

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_prints_its_golden_output(demo):
    src = str(Path(azumaya.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{demo.stem}.txt").read_bytes()
