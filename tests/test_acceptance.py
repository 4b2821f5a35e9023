"""Acceptance criteria, one test per criterion, each printing a PASS line and
enforcing the stated sample counts, exactness, and time bounds."""

import random
import time
from collections import Counter

from brownalg import linalg
from brownalg.albert import split_albert, tits
from brownalg.cayley import CDAlgebra
from brownalg.fields import INFINITE, Fp, Kbar, Q, Qp, Rplace
from brownalg.involutions import (
    Catalog,
    conjugate_involution,
    fixed_subalgebra,
    grade_decompose,
    make_theta_tits,
    make_torus_element,
    make_uv_bridge,
    verify_conjugacy_transport,
)
from brownalg.kac import E6_EXTENDED, E6_TWISTED, enumerate_solutions
from brownalg.linmaps import ALBERT, LinMap, dagger
from brownalg.quatclass import (
    QuatPresentation,
    class_report,
    hilbert_places,
    hilbert_symbol,
    is_split,
    isotropic_ternary_search,
)


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


def _uop(alg, coords):
    return LinMap(alg.uop_matrix(coords), alg.field, ALBERT, alg.basis_tag)


def test_criterion_1_composition_law():
    start = time.monotonic()
    rng = random.Random(101)
    for field in (Fp(7), Fp(11), Q()):
        alg = CDAlgebra.split_octonions(field)
        f = alg.field
        for _ in range(1000):
            x = alg.sample(rng, 4).coords
            y = alg.sample(rng, 4).coords
            assert alg.qnorm_raw(alg.mul_raw(x, y)) == f.mul(
                alg.qnorm_raw(x), alg.qnorm_raw(y)
            )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(1, "composition law, 1000 pairs over F7/F11/Q in "
               f"{elapsed:.2f}s")


def test_criterion_2_sharp_axioms():
    start = time.monotonic()
    rng = random.Random(102)
    for alg in (split_albert(Fp(7)), tits(Fp(7))):
        f = alg.field
        e = alg.unit_coords
        for _ in range(500):
            x = alg.sample(rng).coords
            y = alg.sample(rng).coords
            xs = alg.sharp_raw(x)
            assert alg.trform_raw(xs, y) == alg.norm_derivative_raw(x, y)
            n = alg.norm_raw(x)
            assert alg.sharp_raw(xs) == tuple(f.mul(n, v) for v in x)
            tr = alg.tr_raw(x)
            assert alg.cross_raw(e, x) == tuple(
                f.sub(f.mul(tr, e[k]), x[k]) for k in range(27)
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(2, f"sharped-cubic-form axioms, 500 samples in both models in {elapsed:.2f}s")


def test_criterion_3_u_operator_coherence():
    start = time.monotonic()
    rng = random.Random(103)
    for alg in (split_albert(Fp(7)), tits(Fp(7))):
        f = alg.field
        for _ in range(50):
            x = alg.sample(rng).coords
            assert alg.uop_matrix(x) == alg.uop_matrix_sharp(x)
            y = alg.sample(rng).coords
            nx = alg.norm_raw(x)
            assert alg.norm_raw(alg.uapply_raw(x, y)) == f.mul(
                f.mul(nx, nx), alg.norm_raw(y)
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _report(3, f"U-operator coherence on 100 samples in {elapsed:.2f}s")


def test_criterion_4_dagger_laws():
    rng = random.Random(104)
    cat = Catalog(Fp(7))
    alg = cat.J
    for _ in range(50):
        x = alg.sample_norm_one(rng)
        ux = _uop(alg, x.coords)
        assert dagger(ux, alg).matrix == alg.uop_matrix(alg.jinv_raw(x.coords))
    that = cat.realize("t", "J")
    assert dagger(that, alg).matrix == that.matrix
    b = cat.B
    w = b.varpi()
    for _ in range(50):
        x = alg.sample_norm_one(rng)
        ux = _uop(alg, x.coords)
        lifted = b.lift_inv(ux)
        assert w.compose(lifted).compose(w).matrix == b.lift_inv(dagger(ux, alg)).matrix
    _report(4, "dagger laws: U_x dagger, t-hat fixed, varpi conjugation on 50 lifts")


def test_criterion_5_fixed_dimensions():
    cat = Catalog(Fp(7))
    checks = [
        ("s", "B", 24),
        ("t", "B", 32),
        ("varpi", "B", 28),
        ("t.varpi", "B", 28),
        ("s", "J", 11),
        ("t", "J", 15),
    ]
    for desc, space, dim in checks:
        start = time.monotonic()
        m = cat.realize(desc, space)
        context = cat.B if space == "B" else cat.J
        rep = fixed_subalgebra(m, context)
        elapsed = time.monotonic() - start
        assert rep.dimension == dim, (desc, space, rep.dimension)
        assert rep.product_closed
        assert elapsed < 5.0, f"{desc} on {space} took {elapsed:.2f}s"
    _report(5, "fixed dimensions B^s=24 B^t=32 B^varpi=28 B^t.varpi=28 J^s=11 J^t=15")


def test_criterion_6_uv_bridge():
    for field in (Fp(7), Q()):
        cat = Catalog(field)
        uv = make_uv_bridge(cat.J)
        s = cat.realize("s", "J")
        assert uv.compose(uv).matrix == s.matrix
        assert dagger(uv, cat.J).matrix == uv.inverse_map().matrix
        b = cat.B
        lifted = b.lift_inv(uv)
        fix_w = fixed_subalgebra(b.varpi(), b).basis
        fix_sw = fixed_subalgebra(cat.realize("s.varpi", "B"), b).basis
        image = [lifted.apply(v) for v in fix_w]
        assert linalg.same_span(image, list(fix_sw), field)
    _report(6, "U_V bridge: U_V^2 = s, dagger(U_V) = U_V^-1, B^varpi -> B^(s.varpi)")


def test_criterion_7_torus_inversion():
    rng = random.Random(107)
    jt = tits(Fp(7))
    th = make_theta_tits(jt)
    f = jt.field
    for _ in range(20):
        params = tuple(f.sample_nonzero(rng) for _ in range(6))
        t = make_torus_element(jt, params, "E6")
        assert th.compose(dagger(t, jt)).compose(th).matrix == t.inverse_map().matrix
    _report(7, "torus inversion (theta . dagger) phi(u,v,w) = phi(u,v,w)^-1, 20 triples")


def test_criterion_8_kac_enumeration():
    start = time.monotonic()
    sols = enumerate_solutions(E6_EXTENDED, 2)
    assert len(sols) == 6
    by_s = {s.s: s.residual_str for s in sols}
    assert by_s[(1, 1, 0, 0, 0, 0, 0)] == "D5"
    assert by_s[(0, 0, 1, 0, 0, 0, 0)] == "A1 x A5"
    counts = Counter(s.residual_str for s in sols)
    assert counts == {"D5": 3, "A1 x A5": 3}
    folded = enumerate_solutions(E6_TWISTED, 2, gcd_filter=False, folded=True)
    fold_by_s = {s.s: s.residual_str for s in folded}
    assert fold_by_s[(2, 0, 0, 0, 0, 0, 0)] == "F4"
    assert fold_by_s[(0, 1, 0, 0, 0, 0, 1)] == "C4"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(8, f"Kac enumeration m=2 catalog and twisted F4/C4 in {elapsed:.3f}s")


def test_criterion_9_class_counts():
    assert class_report(Kbar(), "E6").total == 4
    assert class_report(Fp(7), "E6").total == 4
    assert class_report(Rplace(), "E6").total == 6
    for p in (2, 3, 5, 7):
        rep = class_report(Qp(p), "E6")
        assert rep.total == 6
        kinds = dict(rep.kinds)
        assert kinds["sigma"] == 1 and kinds["dagger"] == 1
    for field in (Kbar(), Fp(7), Rplace(), Q()):
        kinds = dict(class_report(field, "E6").kinds)
        assert kinds["sigma"] == 1 and kinds["dagger"] == 1
    assert class_report(Q(), "E6").total is INFINITE
    _report(9, "E6 class totals 4/4/6/6 with sigma and dagger always 1")


def test_criterion_10_hilbert_and_split():
    rng = random.Random(110)
    from fractions import Fraction

    for _ in range(100):
        a = Fraction(rng.choice([x for x in range(-30, 31) if x]), rng.randint(1, 9))
        b = Fraction(rng.choice([x for x in range(-30, 31) if x]), rng.randint(1, 9))
        prod = 1
        for place in hilbert_places(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a and b:
                assert is_split(QuatPresentation(a, b), Q()) == isotropic_ternary_search(
                    a, b, 60
                ), (a, b)
    _report(10, "Hilbert product formula (100 pairs) and is_split vs height search")


def test_criterion_11_conjugacy_transport_and_grading():
    rng = random.Random(111)
    cat = Catalog(Fp(7))
    for t in (cat.realize("s", "J"), cat.realize("t", "J")):
        for _ in range(10):
            g = cat.random_j_automorphism(rng)
            t2 = conjugate_involution(g, t)
            assert verify_conjugacy_transport(g, t, t2)
    plus, minus = grade_decompose(cat.realize("s", "J"), cat.J)
    assert (len(plus), len(minus)) == (11, 16)
    plus, minus = grade_decompose(cat.realize("t", "J"), cat.J)
    assert (len(plus), len(minus)) == (15, 12)
    _report(11, "conjugacy transport (20 conjugations) and grading laws")
