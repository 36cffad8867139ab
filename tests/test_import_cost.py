"""Starting the CLI loads only what its commands use: no value class is a
dataclass and no arithmetic goes through fractions, so `import ncpark.cli`
pulls in none of the heavy standard modules those need."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses brings inspect, ast and dis; fractions brings decimal and numbers
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "numbers", "ast", "dis")


def test_cli_import_loads_no_heavy_module():
    probe = f"import sys, ncpark.cli; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    # -S: no site hooks, so only ncpark's own imports count
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
