"""`kac` text and `--json` output pinned to a committed record, so a change to
the enumeration order, the gcd flags, the residual types or the report layout
shows up as a diff.

tests/data/kac_golden.json holds one entry per diagram, options and order m
below, written by

    brownalg kac <diagram> <m> [options] [--json]

For m <= 12 an entry keeps the `--json` report without its `version` key and
the text output in full; for m = 16, 18 and 20 it keeps only the sha256 of
each (the report as `json.dumps` writes it), which keeps the file small.
"""

import hashlib
import json
from pathlib import Path

import pytest

from brownalg.cli import main

DATA = Path(__file__).parent / "data"
CASES = (("e6~",), ("e6~2",), ("e6~2", "--no-gcd", "--folded"))
ORDERS = (*range(1, 13), 16, 18, 20)
RECORD = {tuple(e["argv"]): e for e in json.loads((DATA / "kac_golden.json").read_text())}


def _argv(case, m):
    return ("kac", case[0], str(m), *case[1:])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_record_covers_every_run():
    assert set(RECORD) == {_argv(c, m) for c in CASES for m in ORDERS}


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_kac_output_matches_committed_record(capsys, case, m):
    want = RECORD[_argv(case, m)]
    assert main([*_argv(case, m), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("version")
    assert main(list(_argv(case, m))) == 0
    text = capsys.readouterr().out
    if "report" in want:
        assert report == want["report"]
        assert text == want["text"]
    else:
        assert _sha256(json.dumps(report)) == want["report_sha256"]
        assert _sha256(text) == want["text_sha256"]
