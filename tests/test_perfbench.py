"""The benchmark harness's own self-test, run as part of the suite: a traced
function renamed in the package, or a traced call count that no longer
matches the config, fails here and not only when the benchmark runs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "selftest: all checks passed" in proc.stdout
