"""`verify all --json` pinned to committed reports, so a kernel rewrite that
changes any verdict or detail shows up as a diff.

The reports in tests/data were written by

    brownalg verify all --field Fp:7 --seed 0 --samples 100 --json
    brownalg verify all --field Fp:11 --seed 0 --samples 20 --json
    brownalg verify all --field Q --seed 0 --samples 10 --json

and are compared without the `version` key.  Q runs 10 samples, which keeps
its run under a second.
"""

import json
from pathlib import Path

import pytest

from brownalg.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "field, samples, name",
    [("Fp:7", 100, "verify_all_fp7_seed0.json"), ("Fp:11", 20, "verify_all_fp11_seed0.json"),
     ("Q", 10, "verify_all_q_seed0.json")],
)
def test_verify_all_json_matches_committed_report(capsys, field, samples, name):
    code = main(["verify", "all", "--field", field, "--seed", "0",
                 "--samples", str(samples), "--json"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((DATA / name).read_text())
    assert code == 0
    got.pop("version")
    want.pop("version")
    assert got == want
