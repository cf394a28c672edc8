"""The A/B timing tool's argument checks."""

import subprocess
import sys
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "tools" / "ab.py"


def test_one_pair_is_rejected_before_any_work():
    # The ratios' quartiles need two pairs; one is refused at parse time,
    # before the base revision is exported or anything is timed.
    proc = subprocess.run(
        [sys.executable, str(AB), "solve", "--pairs", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "--pairs" in proc.stderr
