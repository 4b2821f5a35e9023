import functools
import random
import sys

import pytest

from brownalg import albert, involutions, linalg
from brownalg.albert import tits
from brownalg.brown import BrownAlgebra
from brownalg.cayley import CDAlgebra
from brownalg.errors import (
    ArityMismatch,
    CarrierMismatch,
    NotAutomorphism,
    NotNormPreserving,
    NotOrderTwo,
    NotUnitNorm,
    ZeroParameter,
)
from brownalg.fields import Fp, Q
from brownalg.involutions import (
    Catalog,
    conjugate_involution,
    fixed_subalgebra,
    grade_decompose,
    isotope_automorphism_check,
    make_canonical_t,
    make_t,
    make_t_star,
    make_theta_tits,
    make_torus_element,
    make_uv_bridge,
    outer_fixed_condition,
    verify_conjugacy_transport,
)
from brownalg.kernels import MulTable
from brownalg.linmaps import ALBERT, LinMap, dagger, is_aut_member


def cat7():
    return Catalog(Fp(7))


# -- octonion level ------------------------------------------------------------

def test_f_minus_e_order_two_fixed_dim_4():
    c = CDAlgebra.split_octonions(Fp(7))
    t = make_canonical_t(c)
    assert t.compose(t).is_identity()
    fix = t.fixed_space()
    assert len(fix) == 4
    # fixed subspace is the quaternion base: closed under mul and conj
    f = c.field
    span, _ = linalg.int_span(fix, 8, f)
    for u in fix:
        assert span.contains(c.conj_raw(u))
        for v in fix:
            assert span.contains(c.mul_raw(u, v))


def test_make_t_rejects_non_unit_norm():
    c = CDAlgebra.split_octonions(Q())
    with pytest.raises(NotUnitNorm):
        make_t(c, [2, 0, 0, 1])  # det 2
    with pytest.raises(NotUnitNorm):
        make_t(c, c.element([1, 0, 0, 1, 1, 0, 0, 0]))  # not in the base


def test_f_p_composition():
    c = CDAlgebra.split_octonions(Fp(7))
    base = c.base_algebra()
    p = base.element([2, 0, 0, 4])  # det 8 = 1 mod 7
    q = base.element([3, 0, 0, 5])  # det 15 = 1 mod 7
    fp, fq = make_t(c, p), make_t(c, q)
    pq = base.mul_raw(p.coords, q.coords)
    assert fp.compose(fq).matrix == make_t(c, base.element(pq)).matrix


def test_t_star_is_automorphism_with_default_ordering():
    c = CDAlgebra.split_octonions(Fp(7))
    t = make_t_star(c)
    assert t.basis_tag == c.basis_tag  # identity ordering accepted
    assert t.compose(t).is_identity()
    fix = t.fixed_space()
    assert len(fix) == 4
    f = c.field
    span, _ = linalg.int_span(fix, 8, f)
    for u in fix:
        assert span.contains(c.conj_raw(u))
        for v in fix:
            assert span.contains(c.mul_raw(u, v))


def test_g2_torus_matches_displayed_diagonal():
    c = CDAlgebra.split_octonions(Fp(11))
    f = c.field
    rng = random.Random(0)
    for _ in range(10):
        eta, nu = f.sample_nonzero(rng), f.sample_nonzero(rng)
        m = make_torus_element(c, (eta, nu), "G2")
        en = f.mul(eta, nu)
        expect = (
            f.one(), en, f.inv(en), f.one(),
            f.inv(nu), eta, f.inv(eta), nu,
        )
        for i in range(8):
            for j in range(8):
                want = expect[i] if i == j else f.zero()
                assert m.matrix[i][j] == want


def test_g2_torus_composition_and_order():
    c = CDAlgebra.split_octonions(Fp(7))
    t1 = make_torus_element(c, (2, 3), "G2")
    t2 = make_torus_element(c, (3, 2), "G2")
    t12 = make_torus_element(c, (6, 6), "G2")
    assert t1.compose(t2).matrix == t12.matrix
    assert make_torus_element(c, (1, -1), "G2").order_divides_two()
    assert make_torus_element(c, (-1, -1), "G2").order_divides_two()
    assert not make_torus_element(c, (2, 1), "G2").order_divides_two()


def test_torus_errors():
    c = CDAlgebra.split_octonions(Fp(7))
    with pytest.raises(ZeroParameter):
        make_torus_element(c, (0, 1), "G2")
    with pytest.raises(ArityMismatch):
        make_torus_element(c, (1, 1, 1), "G2")
    jt = tits(Fp(7))
    with pytest.raises(ArityMismatch):
        make_torus_element(jt, (1, 1), "F4")
    with pytest.raises(CarrierMismatch):
        make_torus_element(jt, (1, 1), "G2")


@pytest.mark.parametrize("params, level", [((1, 2), "G2"), ((1, 2, 4, 1), "F4"),
                                           ((1, 2, 4, 1, 2, 4), "E6")])
def test_torus_arity_messages(params, level):
    """Each level and each descriptor length read one arity table: a torus
    element with one parameter too many names its level and count, and a
    descriptor with a count of no level names the counts that are."""
    c, jt = CDAlgebra.split_octonions(Fp(7)), tits(Fp(7))
    algebra = c if level == "G2" else jt
    k = len(params)
    with pytest.raises(ArityMismatch) as err:
        make_torus_element(algebra, params + (1,), level)
    assert str(err.value) == f"level {level} needs {k} parameters, got {k + 1}"
    cat = Catalog(Fp(7))
    assert cat.realize("t:" + ",".join(map(str, params)), "J").dim == 27
    with pytest.raises(ArityMismatch) as err:
        cat.realize("t:" + ",".join(map(str, params + (1,))), "J")
    assert str(err.value) == "torus descriptors take 2, 4 or 6 parameters"


# -- albert level ----------------------------------------------------------------

def test_lifted_t_hat():
    cat = cat7()
    that = cat.realize("t", "J")
    assert is_aut_member(that, cat.J)
    assert that.compose(that).is_identity()
    assert len(that.fixed_space()) == 15


def test_make_s_action_and_fixed_dim():
    cat = cat7()
    s = cat.realize("s", "J")
    assert s.compose(s).is_identity()
    assert len(s.fixed_space()) == 11
    # coordinate action (xi; a, -b, -c)
    f = cat.field
    rng = random.Random(1)
    for _ in range(10):
        x = cat.J.sample(rng)
        img = s.apply(x.coords)
        expect = x.coords[:11] + tuple(f.neg(v) for v in x.coords[11:])
        assert img == expect


def test_s_fixed_space_is_beth():
    cat = cat7()
    s = cat.realize("s", "J")
    fix = s.fixed_space()
    beth = [b.coords for b in albert.beth_basis(cat.J)]
    assert linalg.same_span(fix, beth, cat.field)


def test_e6_torus_element_orders():
    jt = tits(Fp(7))
    t1 = make_torus_element(jt, (1, 1, 1, 1, 1, 1), "E6")
    assert t1.is_identity()
    t2 = make_torus_element(jt, (1, 1, 1, 1, -1, 1), "E6")
    assert not t2.is_identity() and t2.order_divides_two()
    # over Q: order divides 2 iff every parameter squares to 1
    jq = tits(Q())
    assert not make_torus_element(jq, (2, 1, 1, 1, 1, 1), "E6").order_divides_two()
    assert make_torus_element(jq, (-1, -1, 1, 1, 1, -1), "E6").order_divides_two()


def test_e6_torus_composition_coordinatewise():
    jt = tits(Fp(11))
    a = (2, 3, 4, 5, 6, 7)
    b = (3, 3, 2, 2, 5, 5)
    f = jt.field
    ab = tuple(f.mul(x, y) for x, y in zip(a, b))
    lhs = make_torus_element(jt, a, "E6").compose(make_torus_element(jt, b, "E6"))
    assert lhs.matrix == make_torus_element(jt, ab, "E6").matrix


def test_theta_tits_order_two_and_norm():
    jt = tits(Fp(7))
    th = make_theta_tits(jt)
    assert th.compose(th).is_identity()
    rng = random.Random(2)
    for _ in range(20):
        x = jt.sample(rng)
        assert jt.norm_raw(th.apply(x.coords)) == jt.norm_raw(x.coords)


def test_theta_dagger_inverts_torus():
    """theta . dagger(phi(u,v,w)) . theta = phi(u,v,w)^-1 on diagonal triples."""
    jt = tits(Fp(7))
    th = make_theta_tits(jt)
    f = jt.field
    rng = random.Random(3)
    for _ in range(12):
        params = tuple(f.sample_nonzero(rng) for _ in range(6))
        t = make_torus_element(jt, params, "E6")
        lhs = th.compose(dagger(t, jt)).compose(th)
        assert lhs.matrix == t.inverse_map().matrix


def test_dagger_of_tits_phi_is_swap():
    """Trace-form dagger of phi(u,v,w) equals phi(v,u,w) exactly."""
    jt = tits(Fp(7))
    f = jt.field
    rng = random.Random(4)
    ident = linalg.identity(3, f)
    for _ in range(6):
        # unimodular diagonal triples
        d = [tuple(f.sample_nonzero(rng) for _ in range(2)) for _ in range(3)]
        mats = []
        for x1, x2 in d:
            x3 = f.inv(f.mul(x1, x2))
            zero = f.zero()
            mats.append(((x1, zero, zero), (zero, x2, zero), (zero, zero, x3)))
        u, v, w = mats
        phi = jt.linmap(jt.tits_phi_matrix(u, v, w))
        assert dagger(phi, jt).matrix == jt.tits_phi_matrix(v, u, w)


# -- fixed subalgebras on B ------------------------------------------------------

def test_fixed_dims_catalog_on_brown():
    cat = cat7()
    b = cat.B
    s_hat = cat.realize("s", "B")
    t_hat = cat.realize("t", "B")
    w = b.varpi()
    cases = {
        "s": (s_hat, 24),
        "t": (t_hat, 32),
        "varpi": (w, 28),
        "t.varpi": (t_hat.compose(w), 28),
        "s.varpi": (s_hat.compose(w), 28),
    }
    for name, (m, dim) in cases.items():
        rep = fixed_subalgebra(m, b)
        assert rep.dimension == dim, name
        assert rep.product_closed, name
        assert rep.involution_closed, name


def test_fixed_subalgebra_checks_every_ordered_brown_pair():
    """phi = +1 on coordinates alpha, j_0 and l_0, -1 elsewhere: its fixed space
    is spanned by e_alpha, e_j0, e_l0, and e_l0 . e_j0 = e_beta leaves it
    although e_j0 . e_l0 = e_alpha does not.  The Brown product is not
    commutative, so the verdict needs both orders."""
    from brownalg.brown import bmul
    from brownalg.linmaps import BROWN

    b = Catalog(Q()).B
    f = b.field
    plus = {0, 2, 29}
    rows = tuple(
        tuple((f.one() if i in plus else f.neg(f.one())) if i == j else f.zero()
              for j in range(56))
        for i in range(56)
    )
    phi = LinMap(rows, f, BROWN, b.basis_tag)
    rep = fixed_subalgebra(phi, b)
    assert rep.dimension == 3
    assert not rep.product_closed
    basis = b.basis()
    assert bmul(basis[2], basis[29]).coords == basis[0].coords
    assert bmul(basis[29], basis[2]).coords == basis[1].coords


def test_fixed_dims_on_albert():
    cat = cat7()
    assert fixed_subalgebra(cat.realize("s", "J"), cat.J).dimension == 11
    assert fixed_subalgebra(cat.realize("t", "J"), cat.J).dimension == 15


def test_fixed_subalgebra_requires_involutive():
    cat = cat7()
    f = cat.field
    cols = [cat.J.phi_lambda_raw(f.from_int(2), b.coords) for b in cat.J.basis()]
    phi2 = LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
                  f, ALBERT, cat.J.basis_tag)
    with pytest.raises(NotOrderTwo):
        fixed_subalgebra(phi2, cat.J)


# -- gradings ---------------------------------------------------------------------

def test_grade_decompose_identity():
    cat = cat7()
    ident = cat.J.linmap(linalg.identity(27, cat.field))
    plus, minus = grade_decompose(ident, cat.J)
    assert len(plus) == 27 and len(minus) == 0


def test_grade_decompose_s():
    cat = cat7()
    plus, minus = grade_decompose(cat.realize("s", "J"), cat.J)
    assert (len(plus), len(minus)) == (11, 16)


def test_grade_decompose_t_hat():
    cat = cat7()
    plus, minus = grade_decompose(cat.realize("t", "J"), cat.J)
    assert (len(plus), len(minus)) == (15, 12)


@pytest.mark.parametrize("f", [Q(), Fp(7)], ids=["Q", "Fp:7"])
def test_grade_decompose_rejects_minus_identity(f):
    """-id is Gram-invariant of order 2 with an empty '+' eigenspace, but
    x*y is not -(x*y): the (-,-) grading law must test against the zero span."""
    J = Catalog(f).J
    neg = LinMap(tuple(tuple(f.from_int(-1) if i == j else f.zero() for j in range(27))
                       for i in range(27)), f, ALBERT, J.basis_tag)
    with pytest.raises(NotAutomorphism):
        grade_decompose(neg, J)


@pytest.mark.parametrize("f", [Q(), Fp(7), Fp(2**61 - 1)], ids=["Q", "Fp:7", "Fp:2^61-1"])
def test_grade_decompose_rejects_a_trace_form_reflection(f):
    """The reflection r(x) = x - 2 T(v, x) / T(v, v) v in the trace form, for v
    = e_3 + e_j off the diagonal, has order 2 and keeps the form, but it is
    no automorphism: some product of v with the fixed space leaves the line
    of v (checked by products of field values), so the grading law fails."""
    J = Catalog(f).J
    G = J.gram
    j = next(j for j in range(27) if G[3][j])
    v = [f.from_int(int(i in (3, j))) for i in range(27)]
    gv = [functools.reduce(f.add, map(f.mul, row, v)) for row in G]
    scale = f.mul(f.from_int(2), f.inv(functools.reduce(f.add, map(f.mul, v, gv))))
    r = J.linmap(tuple(tuple(f.sub(f.from_int(int(a == b)), f.mul(v[a], f.mul(scale, gv[b])))
                             for b in range(27)) for a in range(27)))
    plus = r.fixed_space()
    assert r.order_divides_two() and len(plus) == 26
    assert any(linalg.rank((tuple(v), J.mul_raw(v, w)), f) == 2 for w in plus)
    with pytest.raises(NotAutomorphism):
        grade_decompose(r, J)


def test_grade_decompose_rejects_similarity_form():
    cat = cat7()
    f = cat.field
    cols = [cat.J.nu_g_raw(f.from_int(2), b.coords) for b in cat.J.basis()]
    nu = LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
                f, ALBERT, cat.J.basis_tag)
    with pytest.raises(NotOrderTwo):
        grade_decompose(nu, cat.J)


@pytest.mark.parametrize("f", [Q(), Fp(7)], ids=["Q", "Fp:7"])
def test_grade_decompose_rejects_a_map_that_breaks_the_trace_form(f):
    """Negating coordinate j of the a-block, for the first j there that the
    trace form pairs with another coordinate, has order 2 and breaks the
    form; the grading law alone rejects it, with no matrix view built."""
    J = Catalog(f).J
    G = J.gram
    j = next(j for j in range(3, 11) if any(G[j][k] for k in range(27) if k != j))
    r = J.linmap(tuple(tuple(f.from_int(-1 if a == b == j else int(a == b)) for b in range(27))
                       for a in range(27)))
    assert r.order_divides_two()
    with pytest.raises(NotAutomorphism):
        grade_decompose(r, J)
    assert "matrix" not in r.__dict__
    m = r.matrix
    assert linalg.mat_mul(linalg.mat_mul(linalg.transpose(m), G, f), m, f) != G


@pytest.mark.parametrize("f", [Q(), Fp(7)], ids=["Q", "Fp:7"])
def test_grade_decompose_on_the_brown_algebra(f):
    """The grading law needs no form, so B is graded like J: t, varpi and
    s.varpi split it as 32 + 24, 28 + 28 and 28 + 28, and no map builds its
    matrix view."""
    cat = Catalog(f)
    for desc, dims in (("t", (32, 24)), ("varpi", (28, 28)), ("s.varpi", (28, 28))):
        phi = cat.realize(desc, "B")
        plus, minus = grade_decompose(phi, cat.B)
        assert (len(plus), len(minus)) == dims
        assert "matrix" not in phi.__dict__


# -- conjugacy transport ------------------------------------------------------------

def test_conjugacy_transport_on_j():
    cat = cat7()
    rng = random.Random(5)
    for t in (cat.realize("s", "J"), cat.realize("t", "J")):
        for _ in range(6):
            g = cat.random_j_automorphism(rng)
            t2 = conjugate_involution(g, t)
            assert len(t2.fixed_space()) == len(t.fixed_space())
            assert verify_conjugacy_transport(g, t, t2)


@pytest.mark.parametrize("field", [Fp(7), Q()], ids=str)
def test_transport_through_a_singular_map(field):
    """g = (1 + t)/2 projects onto fix(t), so it maps fix(t) onto fix(t)
    although it is not invertible."""
    cat = Catalog(field)
    t = cat.realize("t", "J")
    half = field.half()
    n = t.dim
    g = LinMap(tuple(tuple(field.mul(half, field.add(v, field.one() if i == j else field.zero()))
                           for j, v in enumerate(row)) for i, row in enumerate(t.matrix)),
               field, t.carrier, t.basis_tag)
    assert linalg.rank(g.matrix, field) == len(t.fixed_space()) < n
    assert verify_conjugacy_transport(g, t, t)
    assert not verify_conjugacy_transport(g, t, cat.realize("s", "J"))


def test_transport_fails_for_unrelated_involutions():
    cat = cat7()
    ident = cat.J.linmap(linalg.identity(27, cat.field))
    assert not verify_conjugacy_transport(ident, cat.realize("s", "J"), cat.realize("t", "J"))


def test_uv_bridge_is_a_conjugacy_transport_on_brown():
    """The Brown lift of U_V transports fix(varpi) onto fix(s.varpi)."""
    cat = cat7()
    b = cat.B
    g = b.lift_inv(make_uv_bridge(cat.J))
    w = b.varpi()
    sw = cat.realize("s", "B").compose(w)
    assert verify_conjugacy_transport(g, w, sw)


# -- U_V bridge ----------------------------------------------------------------------

def test_uv_bridge_properties():
    for field in (Fp(7), Q()):
        cat = Catalog(field)
        uv = make_uv_bridge(cat.J)
        s = cat.realize("s", "J")
        assert uv.compose(uv).matrix == s.matrix
        dag = dagger(uv, cat.J)
        assert dag.matrix == uv.inverse_map().matrix
        b = cat.B
        lifted = b.lift_inv(uv)
        w = b.varpi()
        s_hat = cat.realize("s", "B")
        fix_w = fixed_subalgebra(w, b).basis
        fix_sw = fixed_subalgebra(s_hat.compose(w), b).basis
        image = [lifted.apply(v) for v in fix_w]
        assert linalg.same_span(list(image), list(fix_sw), field)


# -- outer fixed condition -------------------------------------------------------------

def test_outer_fixed_condition():
    cat = cat7()
    s = cat.realize("s", "J")
    ident = cat.J.linmap(linalg.identity(27, cat.field))
    assert outer_fixed_condition(ident, s, cat.J)
    # an automorphism commuting with s passes (dagger = itself)
    that = cat.realize("t", "J")
    assert s.compose(that).matrix == that.compose(s).matrix
    assert outer_fixed_condition(that, s, cat.J)
    # a generic unit-norm U_x fails
    rng = random.Random(6)
    x = cat.J.sample_norm_one(rng)
    ux = LinMap(cat.J.uop_matrix(x.coords), cat.field, ALBERT, cat.J.basis_tag)
    assert not outer_fixed_condition(ux, s, cat.J)
    # the carrier is a label: the same map under another one gives the same answers
    for delta in (ident, that, ux):
        relabelled = LinMap(s.matrix, s.field, "J-map", s.basis_tag)
        assert outer_fixed_condition(delta, relabelled, cat.J) == outer_fixed_condition(delta, s, cat.J)


def test_outer_fixed_condition_guards_the_norm_once(monkeypatch):
    """One Inv(J) certificate per call, in dagger, whether delta is accepted,
    rejected, or off the norm group: one pass of image rows (`_image_rows`)
    and, when the trace-form check passes, one comparison (`_rows_agree`)."""
    from brownalg import linmaps

    cat = cat7()
    s = cat.realize("s", "J")
    calls = []
    image_rows, rows_agree = linmaps._image_rows, linmaps._rows_agree
    monkeypatch.setattr(linmaps, "_image_rows",
                        lambda phi, *args: calls.append(("_image_rows", phi)) or image_rows(phi, *args))
    monkeypatch.setattr(linmaps, "_rows_agree",
                        lambda *args: calls.append(("_rows_agree",)) or rows_agree(*args))
    that = cat.realize("t", "J")
    x = cat.J.sample_norm_one(random.Random(6))
    ux = LinMap(cat.J.uop_matrix(x.coords), cat.field, ALBERT, cat.J.basis_tag)
    three = LinMap(tuple(tuple(3 * v for v in row)
                         for row in linalg.identity(27, cat.field)),
                   cat.field, ALBERT, cat.J.basis_tag)
    for delta, verdict in ((that, True), (ux, False), (three, None)):
        calls.clear()
        if verdict is None:  # N(3x) = 27 N(x) = 6 N(x) over F_7
            with pytest.raises(NotNormPreserving):
                outer_fixed_condition(delta, s, cat.J)
        else:
            assert outer_fixed_condition(delta, s, cat.J) is verdict
        law = [] if verdict is None else [("_rows_agree",)]
        assert calls == [("_image_rows", delta)] + law


# -- isotope automorphisms ---------------------------------------------------------------

def test_isotope_automorphism_trivial_and_s():
    cat = cat7()
    e = cat.J.unit()
    assert isotope_automorphism_check(e, e)
    sprime = cat.J.diag(1, -1, -1)
    assert isotope_automorphism_check(sprime, e)


def test_isotope_automorphism_searched_pair():
    """Deterministic small search over diagonal x and y != e with
    (U_x U_y)^2 = id; the found pair passes the isotope check."""
    cat = cat7()
    alg = cat.J
    f = cat.field
    found = None
    for dx in ((1, -1, -1), (1, 1, -1), (-1, -1, -1)):
        for dy in ((-1, -1, -1), (2, 4, 1), (-1, 1, 1)):
            x, y = alg.diag(*dx), alg.diag(*dy)
            if y.coords == alg.unit().coords:
                continue
            if not alg.norm_raw(x.coords) or not alg.norm_raw(y.coords):
                continue
            m = linalg.mat_mul(alg.uop_matrix(x.coords), alg.uop_matrix(y.coords), f)
            if linalg.mat_mul(m, m, f) == linalg.identity(27, f):
                found = (x, y)
                break
        if found:
            break
    assert found is not None
    assert isotope_automorphism_check(*found)


# -- descriptors ---------------------------------------------------------------------------

def test_descriptor_realization():
    cat = cat7()
    s_b = cat.realize_involution("s", "B")
    assert fixed_subalgebra(s_b, cat.B).dimension == 24
    t_b = cat.realize_involution("t", "B")
    assert fixed_subalgebra(t_b, cat.B).dimension == 32
    w = cat.realize_involution("varpi", "B")
    assert fixed_subalgebra(w, cat.B).dimension == 28
    tw = cat.realize_involution("t.varpi", "B")
    assert fixed_subalgebra(tw, cat.B).dimension == 28
    sj = cat.realize_involution("s", "J")
    assert sj.matrix == cat.realize("s", "J").matrix


@pytest.mark.parametrize("descriptor, model", [
    ("t", "her"), ("s.varpi", "her"), ("t:2,1,1,1,1,1", "tits"),
])
def test_realize_certifies_each_j_atom_once(monkeypatch, descriptor, model):
    """Lifting a J atom to B runs the automorphism certificate on the
    27-dimensional map once (the octonion atoms are certified on their
    8-dimensional maps); a map outside Aut(J) takes its l-block from dagger."""
    cat = cat7()
    balg = cat.B if model == "her" else cat.Bt
    calls = []

    def spy(phi, algebra):
        calls.append(phi)
        return is_aut_member(phi, algebra)

    for name, module in list(sys.modules.items()):
        if name.startswith("brownalg") and getattr(module, "is_aut_member", None) is is_aut_member:
            monkeypatch.setattr(module, "is_aut_member", spy)
    m = cat.realize(descriptor, "B")
    j_calls = [phi for phi in calls if phi.dim == 27]
    assert len(j_calls) == 1
    jmap = j_calls[0]
    f = cat.field
    ml = jmap if is_aut_member(jmap, balg.jalg) else dagger(jmap, balg.jalg)
    expected = balg.linmap(linalg.block_diag((linalg.identity(2, f), jmap.matrix, ml.matrix), f))
    if descriptor.endswith(".varpi"):
        expected = expected.compose(balg.varpi())
    assert m.matrix == expected.matrix


def test_catalog_build_applies_few_products(monkeypatch):
    """Building the catalog algebras derives their tables from structure
    data: only the construction-time norm checks apply a product."""
    apply = MulTable.apply
    calls = []

    def counting(self, x, y, field):
        calls.append(self)
        return apply(self, x, y, field)

    monkeypatch.setattr(MulTable, "apply", counting)
    for field in (Q(), Fp(7)):
        calls.clear()
        cat = Catalog(field)
        assert cat.Jt is not None and cat.Bt is not None
        assert len(calls) <= 100


def test_descriptor_torus():
    cat = cat7()
    m = cat.realize_involution("t:1,1,1,1,-1,1", "J")
    assert m.order_divides_two()
    mb = cat.realize_involution("t:1,1,1,1,-1,1.varpi", "B")
    assert mb.order_divides_two()
    with pytest.raises(NotOrderTwo):
        cat.realize_involution("t:1,1,1,1,1,1", "B")


def test_descriptor_errors():
    cat = cat7()
    with pytest.raises(ValueError):
        cat.realize("nonsense", "J")
    with pytest.raises(ValueError):
        cat.realize("varpi", "J")
    with pytest.raises(CarrierMismatch):
        cat.realize("s.t:1,1,1,1,-1,1", "J")


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_catalog_builds_and_lifts_each_atom_once(monkeypatch, field):
    """One catalog builds each J atom once and lifts it to B once, however
    many descriptors and spaces use it, and hands back the same map; bad
    descriptors still raise the same errors after the atoms are built."""
    lifted, tori = [], []
    lift_inv, make_torus_element = BrownAlgebra.lift_inv, involutions.make_torus_element

    def lift_spy(self, phi):
        lifted.append(phi)
        return lift_inv(self, phi)

    def torus_spy(*args):
        tori.append(args)
        return make_torus_element(*args)

    monkeypatch.setattr(BrownAlgebra, "lift_inv", lift_spy)
    monkeypatch.setattr(involutions, "make_torus_element", torus_spy)
    cat = Catalog(field)
    for space in ("J", "B"):
        for descriptor in ("s", "s.varpi", "t", "t.varpi", "t:1,1,1,1,-1,1"):
            if space == "J" and descriptor.endswith(".varpi"):
                with pytest.raises(ValueError, match="varpi only acts on the Brown algebra"):
                    cat.realize(descriptor, space)
            else:
                cat.realize(descriptor, space)
    atoms = [cat.realize(atom, "J") for atom in ("s", "t", "t:1,1,1,1,-1,1")]
    assert len(tori) == 1
    assert len(lifted) == 3 and all(phi is atom for phi, atom in zip(lifted, atoms))
    assert cat.realize("s", "B") is cat.realize("s", "B")
    for descriptor, space, error, message in (
        ("s.t:1,1,1,1,-1,1", "J", CarrierMismatch, "cannot mix"),
        ("t:1,1,1,1,-1,1.t.varpi", "B", CarrierMismatch, "cannot mix"),
        ("varpi", "J", ValueError, "varpi only acts"),
        ("t.nonsense", "B", ValueError, "unknown descriptor atom"),
    ):
        with pytest.raises(error, match=message) as err:
            cat.realize(descriptor, space)
        assert err.type is error
    assert len(tori) == 1 and len(lifted) == 3


def test_algebra_of_names_the_catalog_algebra_of_a_map():
    cat = cat7()
    for descriptor, space, algebra in (
        ("s", "J", cat.J), ("s.varpi", "B", cat.B),
        ("t:1,1,1,1,-1,1", "J", cat.Jt), ("t:1,1,1,1,-1,1.varpi", "B", cat.Bt),
    ):
        assert cat.algebra_of(cat.realize(descriptor, space)) is algebra
    with pytest.raises(CarrierMismatch):
        cat.algebra_of(make_canonical_t(cat.octonions))


@pytest.mark.parametrize("descriptor", [
    "t:1,1,,1,1,-1,1", "s..t", ".s", "s.", "t:1,1,1,1,-1,1,", "t:", "t:1,1,1,1,-1,1. varpi. ",
])
def test_malformed_descriptor_is_rejected(descriptor):
    with pytest.raises(ValueError, match="empty atom or parameter") as err:
        cat7().realize(descriptor, "B")
    assert repr(descriptor) in str(err.value)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_decimal_torus_parameters(field):
    """A "." before a digit is a decimal point, not an atom separator."""
    cat = Catalog(field)
    assert cat.realize("t:0.5,2", "J").matrix == cat.realize("t:1/2,2", "J").matrix
    assert cat.realize("t:1.0,-1.0.varpi", "B").matrix == cat.realize("t:1,-1.varpi", "B").matrix
    assert (cat.realize("t:1,1,1,1,-1.0,1.varpi", "B").matrix
            == cat.realize("t:1,1,1,1,-1,1.varpi", "B").matrix)


def test_empty_descriptor_message():
    with pytest.raises(ValueError, match="empty descriptor"):
        cat7().realize("", "J")
