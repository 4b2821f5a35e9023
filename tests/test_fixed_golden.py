"""`fixed <descriptor> J|B --json` pinned to a committed record, so a change
to realization, lifting or the catalog shape labels that alters any exit
code or report shows up as a diff.

tests/data/fixed_catalog.json holds one entry per field, descriptor and
space below, written by

    brownalg fixed <descriptor> <space> --field <field> --json

with the exit code, and the report without its `version` key when the run
exits 0.  The whole set runs in-process in about a second.
"""

import json
from pathlib import Path

import pytest

from brownalg.cli import main

DATA = Path(__file__).parent / "data"
FIELDS = ("Fp:7", "Q")
DESCRIPTORS = ("s", "t", "t*", "varpi", "s.varpi", "t.varpi", "t*.varpi",
               "t:1,1,1,1,-1,1", "t:1,1,1,1,-1,1.varpi")
RECORD = {(e["field"], e["descriptor"], e["space"]): e
          for e in json.loads((DATA / "fixed_catalog.json").read_text())}


def test_record_covers_every_run():
    assert set(RECORD) == {(f, d, s) for f in FIELDS for d in DESCRIPTORS for s in "JB"}


@pytest.mark.parametrize("space", ["J", "B"])
@pytest.mark.parametrize("descriptor", DESCRIPTORS)
@pytest.mark.parametrize("field", FIELDS)
def test_fixed_json_matches_committed_record(capsys, field, descriptor, space):
    code = main(["fixed", descriptor, space, "--field", field, "--json"])
    want = RECORD[field, descriptor, space]
    assert code == want["code"]
    out = capsys.readouterr().out
    if code == 0:
        got = json.loads(out)
        got.pop("version")
        assert got == want["report"]
