"""Every benchmark command, run through cli.main, writes output with the
sha256 that perfbench/reference.json records: the CLI promises
byte-identical output.  The reference file is only read."""

import hashlib
import json
from pathlib import Path

import pytest

from ncpark.cli import EXIT_OK, main

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize("command", sorted(REFERENCE))
def test_output_matches_reference_digest(command, tmp_path):
    out = tmp_path / "out.jsonl"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE[command]
