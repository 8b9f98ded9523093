"""The README's command-line tour, byte for byte, against a committed golden file.

Every tour command runs through ``cli.main`` in table and in JSON form, but
``verify``, which has one output form; each JSON document is also written to
a file and re-checked with ``verify``.
Standard output, standard error and exit code must equal
``golden/readme_tour.json``.  A few commands beyond the tour cover the
certificate kinds and exit codes the tour does not reach: ``pool``, a
``rel2sol`` that cannot embed its relation, one given a word that is not a
relation, and a failed ``folner``.

Regenerate the golden file only when an output change is intended:
``PYTHONPATH=src python tests/test_readme_tour.py``.
"""

import io
import json
from pathlib import Path

from orecert.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_tour.json"

# "{sol}" stands for the solution certificate the tour saves as sol.json.
SOL_SEARCH = ["ore-search", "--backend", "zm:2", "--a", "a", "--b", "b",
              "--max-support", "2", "--pool-len", "1"]
TOUR = [
    ["wp", "--backend", "mb:2", "a b A B"],
    ["wp", "--backend", "f", "x1 x0 x2^-1 x0^-1"],
    ["canon", "--backend", "posmon", "x2 x1 x0"],
    ["alt-check", "x0 x1"],
    ["alt-trace", "x0 x1 x0^-1 x1^-1"],
    SOL_SEARCH,
    ["ore-search", "--backend", "posmon", "--a", "x0", "--b", "x1",
     "--max-support", "3", "--pool-len", "3", "--pool-idx", "4"],
    ["ore-signed", "--backend", "zm:2", "--a", "a", "--b", "b", "--signs=mm",
     "--coeff-bound", "1", "--max-support", "2", "--pool-len", "1"],
    ["extract", "{sol}"],
    ["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "a^-1 b^-1 a b"],
    ["folner", "--backend", "zm:2", "--epsilon", "1/2", "--budget", "100"],
    ["verify", "{sol}"],
    ["pool", "--backend", "posmon", "--pool-len", "2", "--pool-idx", "1"],
    ["rel2sol", "--backend", "posmon", "--a", "x0", "--b", "x0",
     "--pool-len", "0", "--pool-idx", "0", "a b^-1"],
    ["rel2sol", "--backend", "zm:2", "--a", "a", "--b", "b", "a b a^-1 b"],
    ["folner", "--backend", "posmon", "--epsilon", "1/10", "--budget", "8"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def tour_records(workdir: Path) -> list:
    sol = workdir / "sol.json"
    sol.write_text(_run(SOL_SEARCH + ["--format", "json"])["stdout"])
    records = []
    for argv in TOUR:
        concrete = [str(sol) if arg == "{sol}" else arg for arg in argv]
        for fmt in ("table", "json") if argv[0] != "verify" else (None,):
            flags = [] if fmt is None else ["--format", fmt]
            record = {"argv": argv + flags, **_run(concrete + flags)}
            if fmt == "json":
                cert = workdir / "cert.json"
                cert.write_text(record["stdout"])
                record["verify"] = _run(["verify", str(cert)])
            records.append(record)
    return records


def test_readme_tour_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    records = tour_records(tmp_path)
    assert [r["argv"] for r in records] == [g["argv"] for g in golden]
    for record, expected in zip(records, golden):
        assert record == expected, record["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(tour_records(Path(tmp)), indent=1) + "\n")
