"""`tools/leak_probe.py`: how far the forecast at `t` moves when only the data
after `t + horizon` changes."""

import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "leak_probe.py"


def test_leak_probe_prints_one_finite_number():
    # the value is not pinned: a forecast that sees no future data prints 0
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and math.isfinite(float(lines[0])) and float(lines[0]) >= 0
