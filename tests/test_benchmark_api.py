"""The benchmark's traced pass must still find every name it wraps."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_on_the_package():
    code = "import child, spans; child.import_package(); spans.install(spans.Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
