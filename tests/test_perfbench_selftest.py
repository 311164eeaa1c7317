"""The benchmark's own self-tests pass against the package sources.

They trace every function the benchmark wraps (`membership_system`,
`cli.check_farkas`, `ConstraintSystem.column_submatrix`, ...), so a source
change that drops or renames one of them fails here first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK" in result.stderr
