"""tools/output_digests.py on the bundled scenarios: two runs print the
same digests, so the command line's output is byte-deterministic."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digests() -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "output_digests.py"), str(ROOT), "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_bundled_digests_repeat():
    first = _digests()
    # four scenarios, each with run and report, and run --selftest
    assert len(first) == 9 and first[-1].endswith("  run --selftest")
    assert len({line.split()[0] for line in first}) == 9
    assert _digests() == first
