"""The benchmark's self-test runs green against the current library.

The benchmark calls the library through its public names (for example
``GroupSpec.degree`` and ``exact_expected_fixers(..., threads=1)``); a change
that breaks one of those calls fails here instead of in every benchmark run.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
