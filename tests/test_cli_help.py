"""``orecert --help`` and ``orecert <command> -h``, byte for byte, against a
committed golden file.

Each call builds only its own command's parser, and the top-level parser
serves only help and usage errors; the help texts must read as they did when
one parser held every command.  argparse wraps help to the terminal's width,
so the width is fixed at 80 columns.

Regenerate the golden file only when a help change is intended:
``PYTHONPATH=src python tests/test_cli_help.py``.
"""

import io
import json
import os
from pathlib import Path

from orecert.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_help.json"
COMMANDS = ["wp", "canon", "alt-check", "alt-trace", "ore-search", "ore-signed",
            "extract", "rel2sol", "folner", "pool", "verify"]
ARGVS = [["--help"]] + [[command, "-h"] for command in COMMANDS]


def help_records() -> list:
    records = []
    for argv in ARGVS:
        out, err = io.StringIO(), io.StringIO()
        code = main(list(argv), stdout=out, stderr=err)
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    return records


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    golden = json.loads(GOLDEN.read_text())
    records = help_records()
    assert [r["argv"] for r in records] == [g["argv"] for g in golden] == ARGVS
    for record, expected in zip(records, golden):
        assert record == expected, record["argv"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(help_records(), indent=1) + "\n")
