"""Smoke tests: every experiment script runs to completion at its smallest size."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = [
    ["cohomology_table.py", "--max-genus", "1", "--primes", "2", "--max-level", "1"],
    ["lift_battery.py", "--seeds", "1", "--max-dim", "2", "--mode", "kummer"],
    ["lift_battery.py", "--seeds", "1", "--max-dim", "2", "--mode", "wound-kummer"],
    ["oracle_audit.py", "--modules", "2", "--max-dim", "2"],
    ["kummer_census.py", "--dim", "3"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if argv[0] == "lift_battery.py":
        # the battery reports its session's memo use
        assert re.search(
            r"^memo: splits \d+ hits / \d+ misses, kummer \d+ hits / \d+ misses, "
            r"walks \d+ hits / \d+ misses$",
            proc.stdout, re.MULTILINE,
        ), proc.stdout
    if argv[0] == "kummer_census.py":
        # every Kummer flag of the d = 3 pool lifts
        assert "dim 3: 1408 relator-exact flags over Z/4, 685 Kummer\n" in proc.stdout
        assert "kummer lifts: 685, no kummer lift: 0, inconclusive: 0\n" in proc.stdout
