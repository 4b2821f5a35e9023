"""Each `brownalg fixed|kac|classify` line of README's "Command line" block
runs in-process, exits 0 and prints the dimension or count its comment
states ("dimension 28", "six solutions", "six classes")."""

import re
import shlex
from pathlib import Path

import pytest

from brownalg.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
NUMBERS = {"one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
           "seven": 7, "eight": 8, "nine": 9, "ten": 10}
# a claim in a line's comment, and the text of the output that bears it out
CLAIMS = (
    (re.compile(r"dimension (\d+)"), "dimension: {}"),
    (re.compile(r"(\w+) solutions?\b"), "{} solution(s)"),
    (re.compile(r"(\w+) classes\b"), "total: {}"),
)


def _command_lines():
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines()
            if re.match(r"brownalg (fixed|kac|classify)\b", line)]


def _claims(line):
    comment = line.partition("#")[2]
    out = []
    for pattern, shown in CLAIMS:
        for word in pattern.findall(comment):
            out.append(shown.format(NUMBERS.get(word, word)))
    return out


def _args(line):
    return shlex.split(line, comments=True)[1:]


LINES = _command_lines()


def test_readme_states_the_checked_claims():
    claims = {" ".join(_args(line)): _claims(line) for line in LINES}
    assert claims["fixed varpi B"] == ["dimension: 28"]
    assert claims["fixed s B"] == ["dimension: 24"]
    assert claims["kac e6~ 2"] == ["6 solution(s)"]
    assert claims["kac e6~2 2 --no-gcd --folded"] == ["3 solution(s)"]
    assert claims["classify R E6"] == ["total: 6"]


@pytest.mark.parametrize("line", LINES, ids=[" ".join(_args(line)) for line in LINES])
def test_readme_command_runs_and_matches_its_comment(capsys, line):
    assert main(_args(line)) == 0
    out = capsys.readouterr().out
    for claim in _claims(line):
        assert re.search(rf"(?<!\d){re.escape(claim)}(?!\d)", out), (claim, out)
