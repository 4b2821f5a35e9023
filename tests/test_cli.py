import json
import subprocess
import sys

from brownalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_composition_fp7(capsys):
    code, out, err = run(capsys, "verify", "composition", "--field", "Fp:7",
                         "--seed", "0", "--samples", "40")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_albert_over_q(capsys):
    code, out, err = run(capsys, "verify", "albert", "--field", "Q", "--samples", "12")
    assert code == 0
    assert "(x#)# = N(x)x" in out and "PASS" in out


def test_verify_bad_field_exits_2(capsys):
    code, out, err = run(capsys, "verify", "albert", "--field", "Fp:4")
    assert code == 2
    assert "error" in err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "brown", "--samples", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"])


def test_fixed_varpi(capsys):
    code, out, err = run(capsys, "fixed", "varpi", "B")
    assert code == 0
    assert "dimension: 28" in out
    assert "B^varpi" in out


def test_fixed_s_on_b(capsys):
    code, out, err = run(capsys, "fixed", "s", "B", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 24
    assert doc["product_closed"] and doc["involution_closed"]


def test_fixed_t_on_b(capsys):
    code, out, err = run(capsys, "fixed", "t", "B")
    assert code == 0
    assert "dimension: 32" in out


def test_fixed_t_varpi(capsys):
    code, out, err = run(capsys, "fixed", "t.varpi", "B")
    assert code == 0
    assert "dimension: 28" in out
    assert "t.varpi" in out


def test_fixed_s_on_j(capsys):
    code, out, err = run(capsys, "fixed", "s", "J")
    assert code == 0
    assert "dimension: 11" in out


def test_fixed_unknown_descriptor_exits_2(capsys):
    code, out, err = run(capsys, "fixed", "zorp", "B")
    assert code == 2


def test_fixed_identity_descriptor_exits_2(capsys):
    code, out, err = run(capsys, "fixed", "t:1,1,1,1,1,1", "B")
    assert code == 2


def test_kac_m2(capsys):
    code, out, err = run(capsys, "kac", "e6~", "2")
    assert code == 0
    assert "6 solution(s)" in out
    assert out.count("D5") == 3
    assert out.count("A1 x A5") == 3


def test_kac_twisted(capsys):
    code, out, err = run(capsys, "kac", "e6~2", "2", "--no-gcd", "--folded")
    assert code == 0
    assert "F4" in out and "C4" in out
    assert "(2, 0, 0, 0, 0, 0, 0)" in out
    assert "(0, 1, 0, 0, 0, 0, 1)" in out


def test_kac_m1(capsys):
    code, out, err = run(capsys, "kac", "e6~", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) == 3
    assert all(s["residual"] == ["E6"] for s in doc["solutions"])


def test_kac_bad_diagram_exits_2(capsys):
    code, out, err = run(capsys, "kac", "nope-not-a-diagram", "2")
    assert code == 2


def test_kac_bad_folding_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"marks": [1, 1, 2], "edges": [[0, 1], [1, 2]], "folding": [[0, 2]]}')
    code, out, err = run(capsys, "kac", str(path), "2", "--folded")
    assert code == 2
    assert "marks" in err


def test_classify_r_e6(capsys):
    code, out, err = run(capsys, "classify", "R", "E6")
    assert code == 0
    assert "total: 6" in out


def test_classify_fp7_e6(capsys):
    code, out, err = run(capsys, "classify", "Fp:7", "E6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total"] == 4
    assert doc["classes"]["sigma"] == 1 and doc["classes"]["dagger"] == 1


def test_classify_q_e6(capsys):
    code, out, err = run(capsys, "classify", "Q", "E6")
    assert code == 0
    assert "infinite" in out
    assert "p = 3 mod 4" in out


def test_classify_qp5_padic_rep(capsys):
    code, out, err = run(capsys, "classify", "Qp:5", "E6")
    assert code == 0
    assert "t:1,1,1,1,-5,-2" in out


def test_classify_bad_field_exits_2(capsys):
    code, out, err = run(capsys, "classify", "Fp:9", "E6")
    assert code == 2


def test_module_entry_point_smoke():
    """`python -m brownalg.cli` runs the verify and fixed commands end to end."""
    out = subprocess.run(
        [sys.executable, "-m", "brownalg.cli", "verify", "composition",
         "--field", "Fp:7", "--samples", "25"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout
    out2 = subprocess.run(
        [sys.executable, "-m", "brownalg.cli", "fixed", "varpi", "B"],
        capture_output=True, text=True,
    )
    assert out2.returncode == 0
    assert "dimension: 28" in out2.stdout


def test_classify_f4_and_g2(capsys):
    code, out, err = run(capsys, "classify", "R", "F4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["type_I"] == 3 and doc["classes"]["type_II"] == 1
    code, out, err = run(capsys, "classify", "Qp:7", "G2")
    assert code == 0
    assert "total: 2" in out
