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


def test_internal_norm_disagreement_exits_2(capsys, monkeypatch):
    """An InternalError raised inside `fixed` exits 2 with its message and no
    traceback.  Here it is the check of `linmaps._dagger_plan`, which the
    lift of t:1,1,-1,1,1,1 to B reaches through `dagger`: every cross-table
    entry is split into two halves, the same product, so no basis pair
    reaches a basis vector alone."""
    from brownalg import linmaps
    from brownalg.albert import AlbertAlgebra
    from brownalg.kernels import MulTable

    cross_table = AlbertAlgebra.cross_table

    def halved(self):
        f = self.field
        return MulTable(27, [(i, j, k, f.mul(f.half(), c))
                             for i, j, k, c in cross_table(self).entries for _ in range(2)])

    monkeypatch.setattr(AlbertAlgebra, "cross_table", halved)
    linmaps._dagger_plan.cache_clear()
    code, out, err = run(capsys, "fixed", "t:1,1,-1,1,1,1", "B", "--field", "Fp:7")
    assert code == 2
    assert "through no basis pair alone" in err and "Traceback" not in err


def test_asymmetric_cross_table_exits_2(capsys, monkeypatch):
    """The check of `linmaps._dagger_plan` that the cross table is symmetric,
    as the certificate's image rows hold only the pairs i <= j: one entry
    e_i # e_j with i < j doubled, and not its mirror, makes the lift of
    t:1,1,-1,1,1,1 to B exit 2 with the plan's message and no traceback."""
    from brownalg import linmaps
    from brownalg.albert import AlbertAlgebra
    from brownalg.kernels import MulTable

    cross_table = AlbertAlgebra.cross_table

    def tampered(self):
        entries = list(cross_table(self).entries)
        at = next(n for n, (i, j, _, _) in enumerate(entries) if i < j)
        i, j, k, c = entries[at]
        entries[at] = (i, j, k, self.field.add(c, c))
        return MulTable(27, entries)

    monkeypatch.setattr(AlbertAlgebra, "cross_table", tampered)
    linmaps._dagger_plan.cache_clear()
    code, out, err = run(capsys, "fixed", "t:1,1,-1,1,1,1", "B", "--field", "Fp:7")
    assert code == 2
    assert "the cross table is not symmetric" in err and "Traceback" not in err


def test_verify_json(capsys):
    code, out, err = run(capsys, "verify", "brown", "--samples", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"])


def test_verify_json_names_version_and_backend(capsys):
    import brownalg

    argv = ("verify", "composition", "--field", "Fp:7", "--samples", "5", "--json")
    code, out, err = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == brownalg.__version__
    assert doc["backend"] == brownalg.BACKEND
    assert set(doc) == {"version", "backend", "field", "seed", "samples", "checks",
                        "passed", "failed"}
    for check in doc["checks"]:
        assert set(check) == {"suite", "name", "ok", "detail"}
    # the report is a function of (field, seed, samples): a second run prints
    # the same text
    assert run(capsys, *argv)[1] == out


def test_fixed_varpi(capsys):
    code, out, err = run(capsys, "fixed", "varpi", "B")
    assert code == 0
    assert "dimension: 28" in out
    assert "B^varpi" in out


def test_shape_label_realizes_candidates_only_when_reached(capsys, monkeypatch):
    """`fixed varpi B` is named by the diagonal, so the label realizes no
    map; `fixed t.varpi B` realizes the J atoms s, the candidate before t,
    and t, and none after; the label realizes no map on B."""
    from brownalg.involutions import Catalog

    realized = []
    realize = Catalog.realize

    def recording(self, descriptor, space):
        realized.append((descriptor, space))
        return realize(self, descriptor, space)

    monkeypatch.setattr(Catalog, "realize", recording)
    for descriptor, shape, seen in (("varpi", "B^varpi (diagonal", []),
                                    ("t.varpi", "B^(t.varpi) (twisted diagonal by t)",
                                     [("s", "J"), ("t", "J")])):
        del realized[:]
        code, out, err = run(capsys, "fixed", descriptor, "B", "--field", "Fp:7")
        assert code == 0 and f"catalog shape: {shape}" in out
        assert realized == [(descriptor, "B")] + seen


def _span_label(cat, m, rep):
    """The 28-dimensional label by span: the first of varpi and the
    atom.varpi of the model's involutions whose fixed space on B has the
    span of rep's basis."""
    from brownalg.linalg import same_span

    balg = cat.algebra_of(m)
    candidates = [("B^varpi (diagonal {(a, a, j, j)})", balg.varpi())] + [
        (f"B^({atom}.varpi) (twisted diagonal by {atom})", cat.realize(f"{atom}.varpi", "B"))
        for atom in cat.INVOLUTIONS[balg.jalg.model]]
    for label, canon in candidates:
        if same_span(list(rep.basis), list(canon.fixed_space()), m.field):
            return label
    return "a 28-dimensional varpi-type shape"


def test_shape_label_of_28_dimensions_matches_the_span():
    """The label read off the basis, a = b and j = A l, names the shape
    that comparing spans names, over Q and F_7, on every twisted diagonal
    of the catalog, on composites in either order and on maps that are no
    catalog shape.  It rests on fix(A.varpi) = {(a, a, A l, l)}, which
    needs each atom A to be an automorphism of J of order 2."""
    from brownalg.cli import _shape_label
    from brownalg.fields import Fp, Q
    from brownalg.involutions import Catalog, fixed_subalgebra
    from brownalg.linmaps import is_aut_member

    descriptors = ("varpi", "s.varpi", "varpi.t", "t*.varpi", "t:1,1,1,1,-1,1.varpi",
                   "t:1,1,-1,1.varpi", "s.t.varpi", "t:-1,1.varpi")
    for field in (Q(), Fp(7)):
        cat = Catalog(field)
        for model, jalg in (("her", cat.J), ("tits", cat.Jt)):
            for atom in cat.INVOLUTIONS[model]:
                a = cat.realize(atom, "J")
                assert a.basis_tag == jalg.basis_tag
                assert is_aut_member(a, jalg) and a.order_divides_two() and not a.is_identity()
        labels = []
        for descriptor in descriptors:
            m = cat.realize_involution(descriptor, "B")
            rep = fixed_subalgebra(m, cat.algebra_of(m))
            assert rep.dimension == 28
            labels.append(_shape_label(cat, m, "B", rep))
            assert labels[-1] == _span_label(cat, m, rep)
        assert labels.count("a 28-dimensional varpi-type shape") == 2


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


def test_fixed_space_that_is_not_closed_gets_no_shape_name(capsys):
    """t:-1,1,1,1,1,1 lies in Inv(J) but not in Aut(J): its 15-dimensional
    fixed space is not closed under the Jordan product, so it is not named
    as the Hermitian matrix algebra J^t, in the text or the JSON report."""
    for field in ("Q", "Fp:7"):
        code, out, err = run(capsys, "fixed", "t:-1,1,1,1,1,1", "J", "--field", field)
        assert code == 0, err
        assert "product: NOT closed" in out
        assert "catalog shape: 15-dimensional fixed space, not a subalgebra" in out
        assert "Her3" not in out
        code, out, err = run(capsys, "fixed", "t:-1,1,1,1,1,1", "J", "--field", field, "--json")
        assert code == 0, err
        doc = json.loads(out)
        assert not doc["product_closed"]
        assert doc["shape"] == "15-dimensional fixed space, not a subalgebra"


def test_fixed_unknown_descriptor_exits_2(capsys):
    code, out, err = run(capsys, "fixed", "zorp", "B")
    assert code == 2


def test_fixed_malformed_descriptor_exits_2(capsys):
    for descriptor in ("t:1,1,,1,1,-1,1", "s..t", ".s", "s.", "t:1,1,1,1,-1,1,"):
        code, out, err = run(capsys, "fixed", descriptor, "J")
        assert code == 2, descriptor
        assert out == "" and repr(descriptor) in err


def test_fixed_decimal_torus_parameters(capsys):
    """Decimal torus parameters are read as numbers: t:1.0,1,1,1,-1.0,1 fixes
    what t:1,1,1,1,-1,1 fixes, and t:0.5,2 is two parameters of a map of
    infinite order."""
    reports = []
    for descriptor in ("t:1.0,1,1,1,-1.0,1", "t:1,1,1,1,-1,1"):
        code, out, err = run(capsys, "fixed", descriptor, "J", "--field", "Q", "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report.pop("descriptor") == descriptor
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["dimension"] == 15
    code, out, err = run(capsys, "fixed", "t:0.5,2", "J", "--field", "Q")
    assert code == 2
    assert "does not have order 2" in err and "parameters" not in err


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


def test_kac_badly_shaped_diagram_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"edges": [[0, 1]]}')
    code, out, err = run(capsys, "kac", str(path), "2")
    assert code == 2
    assert "marks" in err
    assert "Traceback" not in err


def test_kac_zero_mark_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"marks": [1, 0, 1], "edges": [[0, 1], [1, 2]]}')
    code, out, err = run(capsys, "kac", str(path), "2")
    assert code == 2
    assert "mark 0" in err


def test_main_builds_the_parser_once(capsys):
    """Three commands in one process share one parser, and each parses its
    own arguments: the `--json` and `--no-gcd` of one call do not leak into
    the next."""
    from brownalg import cli

    cli.build_parser.cache_clear()
    code, out, err = run(capsys, "kac", "e6~", "2", "--no-gcd", "--json")
    assert code == 0 and len(json.loads(out)["solutions"]) == 9
    code, out, err = run(capsys, "classify", "R", "E6")
    assert code == 0 and "total: 6" in out
    code, out, err = run(capsys, "kac", "e6~", "2")
    assert code == 0 and "6 solution(s)" in out
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


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
    assert "D = (2, 5)" in out


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


def test_fixed_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "fixed", "t:1/0,1,1,1,1,1", "J")
    assert code == 2
    assert "error" in err and "Traceback" not in err


def test_verify_rejects_nonpositive_samples(capsys):
    import pytest

    from brownalg.fields import Fp
    from brownalg.verify import run_suite

    for samples in (0, -3):
        with pytest.raises(ValueError):
            run_suite("composition", Fp(7), 0, samples)
        code, out, err = run(capsys, "verify", "composition", "--samples", str(samples))
        assert code == 2
        assert "samples" in err and "passed" not in out


def test_every_json_output_names_version_and_backend(capsys):
    """fixed, kac and classify open their `--json` documents with the same
    `version` and `backend` as verify, and keep their own keys."""
    import brownalg

    cases = {
        ("fixed", "varpi", "B", "--json"): {"descriptor", "space", "field", "dimension",
                                            "product_closed", "involution_closed", "shape"},
        ("kac", "e6~", "2", "--json"): {"diagram", "m", "folded", "solutions"},
        ("classify", "Qp:5", "E6", "--json"): {"field", "level", "classes", "total",
                                               "representatives"},
    }
    for argv, keys in cases.items():
        code, out, err = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == brownalg.__version__
        assert doc["backend"] == brownalg.BACKEND
        assert set(doc) == {"version", "backend"} | keys
