import random
from fractions import Fraction

import pytest

from brownalg import albert, brown, linalg, linmaps, verify
from brownalg.albert import AlbertAlgebra, hermitian, split_albert, tits
from brownalg.brown import BrownAlgebra, BrownElem, binv, bmul
from brownalg.cayley import CDAlgebra
from brownalg.errors import NotAutomorphism, NotCommuting, NotNormPreserving
from brownalg.fields import Fp, Q
from brownalg.involutions import Catalog, lift_c_to_j, make_canonical_t, make_s
from brownalg.linmaps import ALBERT, LinMap, dagger


def _brown(field):
    return BrownAlgebra(split_albert(field))


def _uop_map(alg, x):
    return LinMap(alg.uop_matrix(x.coords), alg.field, ALBERT, alg.basis_tag)


def test_scalar_block_product():
    b = _brown(Q())
    z = b.jalg.zero()
    x = b.element(2, 3, z, z)
    y = b.element(5, 7, z, z)
    assert bmul(x, y).coords == b.element(10, 21, z, z).coords


def test_unit_law():
    rng = random.Random(0)
    for b in (_brown(Fp(7)), _brown(Q()), BrownAlgebra(tits(Fp(7)))):
        e = b.unit()
        for _ in range(15):
            x = b.sample(rng)
            assert bmul(e, x).coords == x.coords
            assert bmul(x, e).coords == x.coords


def test_s0_squares_to_unit_and_type1():
    for b in (_brown(Fp(7)), _brown(Q()), BrownAlgebra(split_albert(Q()), zeta=3)):
        s0 = b.s0()
        assert bmul(s0, s0).coords == b.unit().coords
        assert b.type_of() == "Type1"


def test_binv_is_antihomomorphism():
    rng = random.Random(1)
    for b in (_brown(Fp(7)), BrownAlgebra(split_albert(Fp(11)), zeta=2)):
        for _ in range(25):
            x, y = b.sample(rng), b.sample(rng)
            assert binv(bmul(x, y)).coords == bmul(binv(y), binv(x)).coords
            assert binv(binv(x)).coords == x.coords
    assert binv(_brown(Q()).unit()).coords == _brown(Q()).unit().coords


def test_skew_space_is_one_dimensional():
    for b in (_brown(Fp(7)), _brown(Q())):
        skew = b.skew_basis()
        assert len(skew) == 1
        s0 = b.s0().coords
        assert linalg.same_span([s0], skew, b.field)


def test_lift_aut_identity():
    """The lift of the identity automorphism is the identity."""
    b = _brown(Fp(7))
    ident = b.jalg.linmap(linalg.identity(27, b.field))
    assert b.lift_inv(ident).is_identity()


def test_lift_of_t_hat_preserves_product():
    rng = random.Random(2)
    b = _brown(Fp(7))
    that = lift_c_to_j(make_canonical_t(b.jalg.octonions), b.jalg)
    lifted = b.lift_inv(that)
    for _ in range(40):
        x, y = b.sample(rng), b.sample(rng)
        assert lifted.apply(b.bmul_raw(x.coords, y.coords)) == b.bmul_raw(
            lifted.apply(x.coords), lifted.apply(y.coords)
        )
    bi = b.binv_map()
    assert lifted.compose(bi).matrix == bi.compose(lifted).matrix


def test_lift_aut_respects_composition():
    """On automorphisms of J the lift is a homomorphism."""
    b = _brown(Fp(7))
    that = lift_c_to_j(make_canonical_t(b.jalg.octonions), b.jalg)
    s = make_s(b.jalg)
    assert b.lift_inv(that.compose(s)).matrix == b.lift_inv(that).compose(b.lift_inv(s)).matrix


def test_lift_inv_rejects_a_map_outside_inv():
    """phi_2 scales the cubic norm, so it lies outside Inv(J) and has no lift."""
    b = _brown(Fp(7))
    f = b.field
    cols = [b.jalg.phi_lambda_raw(f.from_int(2), bb.coords) for bb in b.jalg.basis()]
    phi2 = LinMap(tuple(tuple(cols[j][i] for j in range(27)) for i in range(27)),
                  f, ALBERT, b.jalg.basis_tag)
    with pytest.raises(NotNormPreserving):
        b.lift_inv(phi2)


def test_lift_inv_uop_preserves_product():
    rng = random.Random(3)
    b = _brown(Fp(7))
    x = b.jalg.sample_norm_one(rng)
    lifted = b.lift_inv(_uop_map(b.jalg, x))
    for _ in range(30):
        u, v = b.sample(rng), b.sample(rng)
        assert lifted.apply(b.bmul_raw(u.coords, v.coords)) == b.bmul_raw(
            lifted.apply(u.coords), lifted.apply(v.coords)
        )
    bi = b.binv_map()
    assert lifted.compose(bi).matrix == bi.compose(lifted).matrix


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_lift_inv_guards_the_norm_once(monkeypatch, field):
    """lift_inv certifies phi in Inv(J) once, in dagger: one pass of image
    rows (`_image_rows`) and one comparison (`_rows_agree`) for a U_x, whose
    unit law fails `is_aut_member` first; for 3 id the trace-form check
    fails after the image rows and no comparison runs."""
    b = _brown(field)
    calls = []
    image_rows, rows_agree = linmaps._image_rows, linmaps._rows_agree
    monkeypatch.setattr(linmaps, "_image_rows",
                        lambda phi, *args: calls.append(("_image_rows", phi)) or image_rows(phi, *args))
    monkeypatch.setattr(linmaps, "_rows_agree",
                        lambda *args: calls.append(("_rows_agree",)) or rows_agree(*args))
    x = b.jalg.sample_norm_one(random.Random(5))
    u = _uop_map(b.jalg, x)
    b.lift_inv(u)
    assert calls == [("_image_rows", u), ("_rows_agree",)]
    calls.clear()
    three = tuple(tuple(field.mul(field.from_int(3), v) for v in row)
                  for row in linalg.identity(27, field))
    three = LinMap(three, field, ALBERT, b.jalg.basis_tag)
    with pytest.raises(NotNormPreserving):  # N(3x) = 27 N(x)
        b.lift_inv(three)
    assert calls == [("_image_rows", three)]


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_lift_inv_of_an_automorphism_skips_dagger(monkeypatch, field):
    """On Aut(J) the lift is block_diag(I2, phi, phi), with no trace-form solve."""
    b = _brown(field)
    calls = []
    monkeypatch.setattr(brown, "dagger", lambda *args: calls.append(args))
    for phi in (lift_c_to_j(make_canonical_t(b.jalg.octonions), b.jalg), make_s(b.jalg)):
        want = linalg.block_diag((linalg.identity(2, field), phi.matrix, phi.matrix), field)
        assert b.lift_inv(phi).matrix == want
    assert calls == []


def test_varpi_order_two_and_fixed_dim():
    for b in (_brown(Fp(7)), BrownAlgebra(tits(Fp(7)))):
        w = b.varpi()
        assert w.compose(w).is_identity()
        assert len(w.fixed_space()) == 28


def test_varpi_refuses_a_zeta_other_than_one():
    """The plain exchange is an automorphism of B(J, zeta) only for
    zeta = 1; any other zeta is refused and named."""
    jalg = split_albert(Q())
    assert linmaps.is_aut_member(BrownAlgebra(jalg).varpi(), BrownAlgebra(jalg))
    for zeta, shown in ((-1, "-1"), (2, "2"), (8, "8"), (Fraction(1, 27), "1/27")):
        with pytest.raises(NotAutomorphism, match=f"zeta = {shown}$"):
            BrownAlgebra(jalg, zeta=zeta).varpi()


def test_varpi_is_brown_automorphism():
    rng = random.Random(4)
    b = _brown(Fp(11))
    w = b.varpi()
    for _ in range(25):
        x, y = b.sample(rng), b.sample(rng)
        assert w.apply(b.bmul_raw(x.coords, y.coords)) == b.bmul_raw(
            w.apply(x.coords), w.apply(y.coords)
        )


def test_varpi_conjugation_realizes_dagger():
    """varpi . lift(phi) . varpi = lift of dagger(phi) for U-operator lifts."""
    rng = random.Random(5)
    b = _brown(Fp(7))
    w = b.varpi()
    for _ in range(10):
        x = b.jalg.sample_norm_one(rng)
        u = _uop_map(b.jalg, x)
        lhs = w.compose(b.lift_inv(u)).compose(w)
        rhs = b.lift_inv(dagger(u, b.jalg))
        assert lhs.matrix == rhs.matrix


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_varpi_check_reindexes_the_lift(monkeypatch, field):
    """`verify.check_varpi_dagger` conjugates each lift by varpi with no
    `compose`: it reindexes the lift by the permutation read off varpi's
    matrix.  The one `compose` it makes is varpi with itself, the order
    check.  Each sampled U_x is certified once: the lift of its dagger
    reuses the copy of U_x kept as the dagger's dagger.  A varpi that is not
    a coordinate permutation (-varpi, also of order 2) fails the check; the
    check reads varpi from the catalog, which builds it with
    `BrownAlgebra.varpi` once, so the patched varpi goes to a new context."""
    ctx = verify.Ctx(field, 0, 50)
    calls = []
    image_rows = linmaps._image_rows
    monkeypatch.setattr(linmaps, "_image_rows", lambda *args: calls.append(1) or image_rows(*args))

    squared = []
    compose = LinMap.compose

    def squaring(self, other):
        if other is not self:
            raise AssertionError("dense compose in the varpi check")
        squared.append(self)
        return compose(self, other)

    monkeypatch.setattr(LinMap, "compose", squaring)
    verify.check_varpi_dagger(ctx)
    assert len(calls) == ctx.scaled(0.1) == 5
    assert len(squared) == 1 and squared[0] is ctx.cat.realize("varpi", "B")
    b = ctx.cat.B
    minus = b.linmap(tuple(tuple(field.neg(v) for v in row) for row in b.varpi().matrix))
    monkeypatch.setattr(BrownAlgebra, "varpi", lambda self: minus)
    with pytest.raises(verify.CheckFailure, match="not a coordinate permutation"):
        verify.check_varpi_dagger(verify.Ctx(field, 0, 50))


def test_commuting_pair_subalgebra():
    b = _brown(Fp(7))
    ident = b.jalg.linmap(linalg.identity(27, b.field))
    basis = b.commuting_pair_subalgebra(ident, ident)
    assert len(basis) == 28
    that = lift_c_to_j(make_canonical_t(b.jalg.octonions), b.jalg)
    basis2 = b.commuting_pair_subalgebra(that, that)
    assert len(basis2) == 28
    # the carrier is a label: that under another one still commutes with that
    relabelled = LinMap(that.matrix, b.field, "J-map", that.basis_tag)
    assert len(b.commuting_pair_subalgebra(that, relabelled)) == 28
    mat = tuple(x.coords for x in basis2)
    assert linalg.rank(mat, b.field) == 28


def test_commuting_pair_rejects_non_commuting():
    b = _brown(Fp(7))
    s = make_s(b.jalg)
    # U of the (1 2) permutation matrix: order-2 automorphism not commuting with s
    f = b.field
    z8 = [f.zero()] * 8
    s12 = b.jalg.her_element((0, 0, 1), z8, z8, b.jalg.octonions.unit_coords)
    u12 = _uop_map(b.jalg, s12)
    assert u12.compose(s).matrix != s.compose(u12).matrix
    with pytest.raises(NotCommuting):
        b.commuting_pair_subalgebra(s, u12)


def test_json_round_trip():
    b = _brown(Q())
    rng = random.Random(6)
    x = b.sample(rng)
    assert BrownElem.from_json(b, x.to_json()).coords == x.coords


# -- the derived product table --------------------------------------------------

def _ref_bmul(b, x, y):
    """The 2x2-block product written out from the Albert operations:
    (a1 a2 + z Tr(j1, l2), b1 b2 + z Tr(j2, l1),
     a1 j2 + b2 j1 + z l1 # l2, b1 l2 + a2 l1 + j1 # j2)."""
    f, J, z = b.field, b.jalg, b.zeta
    a1, b1, j1, l1 = x[0], x[1], x[2:29], x[29:]
    a2, b2, j2, l2 = y[0], y[1], y[2:29], y[29:]
    alpha = f.add(f.mul(a1, a2), f.mul(z, J.trform_raw(j1, l2)))
    beta = f.add(f.mul(b1, b2), f.mul(z, J.trform_raw(j2, l1)))
    lc = _ref_cross(J, l1, l2)
    jc = _ref_cross(J, j1, j2)
    jout = tuple(
        f.add(f.add(f.mul(a1, j2[k]), f.mul(b2, j1[k])), f.mul(z, lc[k])) for k in range(27)
    )
    lout = tuple(
        f.add(f.add(f.mul(b1, l2[k]), f.mul(a2, l1[k])), jc[k]) for k in range(27)
    )
    return (alpha, beta) + jout + lout


def _ref_cross(J, x, y):
    """x # y = 2 x.y - Tr(x) y - Tr(y) x + (Tr(x)Tr(y) - Tr(x,y)) e."""
    f = J.field
    p = J.jmul_raw(x, y)
    tx, ty = J.tr_raw(x), J.tr_raw(y)
    s = f.sub(f.mul(tx, ty), J.trform_raw(x, y))
    e = J.unit_coords
    return tuple(
        f.add(f.sub(f.sub(f.mul(f.from_int(2), p[k]), f.mul(tx, y[k])), f.mul(ty, x[k])),
              f.mul(s, e[k]))
        for k in range(27)
    )


def _brown_models(f):
    # 5/7 has no residue mod 7, so the third kappa is 5/3 over F_7
    kappas = ("-1/2", "3", "5/3" if f.p == 7 else "5/7")
    octonions = CDAlgebra(f, kappas=tuple(f.parse_scalar(k) for k in kappas))
    gamma = tuple(f.parse_scalar(g) for g in ("1", "2/3", "-5"))
    kappa_her = hermitian(octonions, gamma=gamma)
    return [
        BrownAlgebra(split_albert(f)),
        BrownAlgebra(kappa_her, zeta=f.parse_scalar("-2/5")),
        BrownAlgebra(tits(f, f.parse_scalar("3/2")), zeta=3),
    ]


def _sparse_brown(b, rng, nonzero):
    f = b.field
    coords = [f.zero()] * 56
    for k in rng.sample(range(56), nonzero):
        coords[k] = f.sample_raw(rng, 4) or f.one()
    return tuple(coords)


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_brown_table_matches_formula(field):
    """The derived 56-dimensional table against the block formula, for zeta 1
    and zeta != 1, on basis pairs, sparse and dense operands."""
    rng = random.Random(13)
    for b in _brown_models(field):
        assert b.table is b.table
        cross = len(b.jalg.cross_table().entries)
        assert len(b.table.entries) == 2 + 2 * 27 + 4 * 27 + 2 * cross
        basis = [e.coords for e in b.basis()]
        pairs = [(basis[i], basis[j]) for i in (0, 1, 2, 29) for j in range(0, 56, 3)]
        pairs += [(basis[j], basis[i]) for i in (0, 1, 2, 29) for j in range(0, 56, 3)]
        for nonzero in (1, 2, 6, 56):
            pairs += [(_sparse_brown(b, rng, nonzero), _sparse_brown(b, rng, nonzero))
                      for _ in range(4)]
        pairs += [(b.sample(rng).coords, b.sample(rng).coords) for _ in range(4)]
        for x, y in pairs:
            assert b.bmul_raw(x, y) == _ref_bmul(b, x, y)


def test_brown_table_is_derived_not_evaluated(monkeypatch):
    """The table comes from the cross table, the Gram matrix and zeta:
    deriving it evaluates no product of J or B."""
    b = BrownAlgebra(tits(Q(), 2), zeta=5)

    def forbidden(*args):
        raise AssertionError("product evaluated while deriving the Brown table")

    for cls, name in ((AlbertAlgebra, "jmul_raw"), (AlbertAlgebra, "cross_raw"),
                      (AlbertAlgebra, "trform_raw"), (BrownAlgebra, "bmul_raw")):
        monkeypatch.setattr(cls, name, forbidden)
    assert len(b.table.entries) == 704


def test_tables_are_built_lazily_and_once(monkeypatch):
    """A Catalog builds no cross or Brown table; the first Brown product
    builds each once, and later products reuse them."""
    built = []

    class CountingTable(brown.MulTable):
        def __init__(self, n, entries):
            built.append(n)
            super().__init__(n, entries)

    cat = Catalog(Q())
    monkeypatch.setattr(brown, "MulTable", CountingTable)
    monkeypatch.setattr(albert, "MulTable", CountingTable)
    assert cat.J._cross_table is None and "table" not in vars(cat.B)
    x = cat.B.unit().coords
    for _ in range(3):
        assert cat.B.bmul_raw(x, x) == x
    assert sorted(built) == [27, 56]
    assert cat.J._cross_table is not None and "table" in vars(cat.B)
