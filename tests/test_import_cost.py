"""Starting the CLI loads only what its commands use: no value class is a
dataclass, no arithmetic goes through fractions, argparse is imported
only for the argv the direct parse leaves to it and json only for a value
cli.encode does not write itself, so `import ncpark.cli` pulls in none of
the heavy standard modules those need."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

SRC = Path(__file__).resolve().parents[1] / "src"

# dataclasses brings inspect, ast and dis; fractions brings decimal and
# numbers; argparse brings gettext, which imports locale on its first
# message; json brings its decoder and scanner
HEAVY = (
    "dataclasses", "inspect", "fractions", "decimal", "numbers", "ast", "dis", "argparse", "gettext", "locale",
    "json",
)


def test_cli_import_loads_no_heavy_module():
    probe = f"import sys, ncpark.cli; print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    # -S: no site hooks, so only ncpark's own imports count
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=child_env(PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == []
