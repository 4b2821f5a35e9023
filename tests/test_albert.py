import itertools
import random
from fractions import Fraction

import pytest

from brownalg import albert, linalg, verify
from brownalg.albert import (
    AlbertAlgebra,
    NormForm,
    beth_basis,
    cross,
    hermitian,
    isotope_mul,
    jinverse,
    jmul,
    norm,
    nu_g,
    phi_lambda,
    sharp,
    split_albert,
    tits,
    tits_phi,
    triple,
    trform,
    uapply,
)
from brownalg.cayley import CDAlgebra
from brownalg.errors import (
    ModelMismatch,
    NotUnimodular,
    SingularElement,
    ZeroMultiplier,
)
from brownalg.fields import Fp, Q, scalar
from brownalg.kernels import MulTable


def models_f7():
    return [split_albert(Fp(7)), tits(Fp(7))]


def all_models():
    return [
        split_albert(Fp(7)),
        tits(Fp(7)),
        split_albert(Q()),
        tits(Q()),
        hermitian(CDAlgebra.split_octonions(Fp(11)), gamma=(1, 2, 3)),
    ]


# -- reference: the Jordan product evaluated on full 3x3 matrices ------------

def _ref_her_full_matrix(alg, coords):
    """3x3 matrix of octonion coordinate vectors realizing the element."""
    f, C, g = alg.field, alg.octonions, alg.gamma
    a, b, c = coords[3:11], coords[11:19], coords[19:27]
    def smul(s, v):
        return tuple(f.mul(s, t) for t in v)
    M = [[None] * 3 for _ in range(3)]
    for i in range(3):
        M[i][i] = smul(coords[i], C.unit_coords)
    M[0][1] = tuple(c)
    M[1][0] = smul(f.div(g[0], g[1]), C.conj_raw(c))
    M[1][2] = tuple(a)
    M[2][1] = smul(f.div(g[1], g[2]), C.conj_raw(a))
    M[2][0] = tuple(b)
    M[0][2] = smul(f.div(g[2], g[0]), C.conj_raw(b))
    return M


def _ref_her_extract(M):
    return (M[0][0][0], M[1][1][0], M[2][2][0]) + tuple(M[1][2]) + tuple(M[2][0]) + tuple(M[0][1])


def _ref_her_jmul(alg, x, y):
    """(XY + YX)/2 on the full gamma-Hermitian matrices."""
    f, C = alg.field, alg.octonions
    Mx, My = _ref_her_full_matrix(alg, x), _ref_her_full_matrix(alg, y)
    half = f.half()
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = [f.zero()] * 8
            for k in range(3):
                for term in (C.mul_raw(Mx[i][k], My[k][j]), C.mul_raw(My[i][k], Mx[k][j])):
                    acc = [f.add(u, v) for u, v in zip(acc, term)]
            out[i][j] = tuple(f.mul(half, v) for v in acc)
    return _ref_her_extract(out)


def _ref_tits_sharp_cross(alg, x, y):
    """Polarized Tits sharp x # y from 3x3 adjugates and matrix products."""
    f = alg.field
    vs, vsi = alg.varsigma, f.inv(alg.varsigma)
    a0, a1, a2 = (albert.mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
    b0, b1, b2 = (albert.mat3_from_flat(y[9 * r: 9 * r + 9]) for r in range(3))
    def adjp(A, B):
        s = tuple(tuple(f.add(A[i][j], B[i][j]) for j in range(3)) for i in range(3))
        out, oa, ob = albert.mat3_adj(f, s), albert.mat3_adj(f, A), albert.mat3_adj(f, B)
        return tuple(tuple(f.sub(f.sub(out[i][j], oa[i][j]), ob[i][j]) for j in range(3))
                     for i in range(3))
    def msub2(A, B, C):
        return tuple(tuple(f.sub(f.sub(A[i][j], B[i][j]), C[i][j]) for j in range(3))
                     for i in range(3))
    def mscale(s, A):
        return tuple(tuple(f.mul(s, v) for v in row) for row in A)
    def mul(A, B):
        return linalg.mat_mul(A, B, f)
    p0 = msub2(adjp(a0, b0), mul(a1, b2), mul(b1, a2))
    p1 = msub2(mscale(vsi, adjp(a2, b2)), mul(a0, b1), mul(b0, a1))
    p2 = msub2(mscale(vs, adjp(a1, b1)), mul(a2, b0), mul(b2, a0))
    return tuple(v for m in (p0, p1, p2) for row in m for v in row)


def _ref_tits_trform(alg, x, y):
    f = alg.field
    xs = [albert.mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3)]
    ys = [albert.mat3_from_flat(y[9 * r: 9 * r + 9]) for r in range(3)]
    acc = albert.mat3_tr(f, linalg.mat_mul(xs[0], ys[0], f))
    acc = f.add(acc, albert.mat3_tr(f, linalg.mat_mul(xs[1], ys[2], f)))
    return f.add(acc, albert.mat3_tr(f, linalg.mat_mul(xs[2], ys[1], f)))


def _ref_tits_jmul(alg, x, y):
    """x.y = (x#y + Tr(x) y + Tr(y) x - S(x,y) 1)/2 from the sharped cubic form."""
    f = alg.field
    half = f.half()
    trx = f.add(f.add(x[0], x[4]), x[8])
    try_ = f.add(f.add(y[0], y[4]), y[8])
    sr = f.sub(f.mul(trx, try_), _ref_tits_trform(alg, x, y))
    sc = _ref_tits_sharp_cross(alg, x, y)
    e = alg.unit_coords
    return tuple(
        f.mul(half, f.sub(f.add(f.add(sc[k], f.mul(trx, y[k])), f.mul(try_, x[k])),
                          f.mul(sr, e[k])))
        for k in range(27)
    )


def _ref_jordan_entries(alg):
    """Table entries from the direct product on the basis pairs i <= j,
    mirrored to (j, i)."""
    direct = _ref_her_jmul if alg.model == "her" else _ref_tits_jmul
    basis = [b.coords for b in alg.basis()]
    entries = []
    for i in range(27):
        for j in range(i, 27):
            for k, c in enumerate(direct(alg, basis[i], basis[j])):
                if c:
                    entries += [(i, j, k, c), (j, i, k, c)] if i != j else [(i, j, k, c)]
    return entries


# -- unit and product basics -------------------------------------------------

def test_unit_law():
    rng = random.Random(0)
    for alg in all_models():
        e = alg.unit()
        for _ in range(10):
            x = alg.sample(rng)
            assert jmul(e, x).coords == x.coords
            assert jmul(x, e).coords == x.coords


def test_commutative():
    rng = random.Random(1)
    for alg in all_models():
        for _ in range(10):
            x, y = alg.sample(rng), alg.sample(rng)
            assert jmul(x, y).coords == jmul(y, x).coords


# the coordinates that each model's unit sets
DIAGONAL = {"her": (0, 1, 2), "tits": (0, 4, 8)}


def diag_models():
    return all_models() + [tits(Q(), Fraction(3, 2))]


def test_diagonal_product():
    """diag(a, b, c) sets exactly the model's three diagonal coordinates, its
    zeros are the field's shared zero(), and diagonal elements multiply
    entrywise."""
    for alg in diag_models():
        f = alg.field
        x = alg.diag(1, 2, 3)
        assert [k for k, v in enumerate(x.coords) if v] == list(DIAGONAL[alg.model])
        assert all(v is f.zero() for v in x.coords if not v)
        y = alg.diag(4, 5, 6)
        assert jmul(x, y).coords == alg.diag(4, 10, 18).coords


def test_hermitian_closure():
    """Jordan products of gamma-Hermitian matrices stay gamma-Hermitian:
    the direct 3x3 computation must reproduce the conjugate entries."""
    rng = random.Random(2)
    for alg in (split_albert(Fp(7)), hermitian(CDAlgebra.split_octonions(Fp(7)), gamma=(2, 3, 5))):
        C, f, g = alg.octonions, alg.field, alg.gamma
        for _ in range(12):
            x, y = alg.sample(rng), alg.sample(rng)
            M = _ref_her_full_matrix(alg, alg.jmul_raw(x.coords, y.coords))
            for (i, j) in ((0, 1), (1, 2), (2, 0)):
                expect = tuple(
                    f.mul(f.div(g[j], g[i]), v) for v in C.conj_raw(M[j][i])
                )
                assert M[i][j] == expect
            for i in range(3):
                d = M[i][i]
                assert d == tuple(f.mul(d[0], u) for u in C.unit_coords)


def test_power_associativity_samples():
    rng = random.Random(3)
    for alg in models_f7():
        for _ in range(15):
            x = alg.sample(rng)
            x2 = jmul(x, x)
            x3 = jmul(x2, x)
            assert jmul(x2, x2).coords == jmul(x3, x).coords


# -- cubic data ----------------------------------------------------------------

def test_norm_of_unit_and_diag():
    for alg in diag_models():
        f = alg.field
        assert norm(alg.unit()) == 1
        assert alg.tr_raw(alg.unit_coords) == f.from_int(3)
        assert alg.tr_raw(alg.diag(2, 3, 5).coords) == f.from_int(10)
        assert norm(alg.diag(2, 3, 4)) == scalar(f, 24)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_norm_closed_formula_gamma_id_displayed(field):
    """N = x1 x2 x3 - x1 q(a) - x2 q(b) - x3 q(c) + <ab, conj(c)>, checked as an
    independent evaluation against algebra.norm at the four probe points
    (x_i = 1 with e in the matching block, and a = b = c = e) and at random
    points."""
    alg = split_albert(field)
    f, C = field, alg.octonions
    one, zero = f.one(), f.zero()
    e, z = C.unit_coords, (zero,) * 8
    points = [(one, zero, zero) + e + z + z, (zero, one, zero) + z + e + z,
              (zero, zero, one) + z + z + e, (zero, zero, zero) + e + e + e]
    rng = random.Random(4)
    points += [alg.sample(rng, 3).coords for _ in range(30)]
    for x in points:
        a, b, c = x[3:11], x[11:19], x[19:27]
        expect = f.mul(f.mul(x[0], x[1]), x[2])
        for xi, block in zip(x[:3], (a, b, c)):
            expect = f.sub(expect, f.mul(xi, C.qnorm_raw(block)))
        expect = f.add(expect, C.bilin_raw(C.mul_raw(a, b), C.conj_raw(c)))
        assert alg.norm_raw(x) == expect
    # at the probes the displayed formula reads -1, -1, -1 and <ee, e> = 2
    assert [alg.norm_raw(x) for x in points[:4]] == [f.from_int(v) for v in (-1, -1, -1, 2)]


def test_closed_norm_equals_intrinsic_certificate():
    """Full polynomial-identity certificate: both cubic forms agree on every
    multiset of size <= 3 of basis vectors (sparse points, exact)."""
    for alg in (split_albert(Q()), hermitian(CDAlgebra.split_octonions(Q()), gamma=(1, 2, 3)), tits(Q())):
        f = alg.field
        idx = list(range(27))
        pts = []
        for i in idx:
            pts.append((i,))
        pts += list(itertools.combinations_with_replacement(idx, 2))
        pts += list(itertools.combinations_with_replacement(idx, 3))
        for pt in pts:
            v = [f.zero()] * 27
            for i in pt:
                v[i] = f.add(v[i], f.one())
            v = tuple(v)
            assert alg.norm_raw(v) == alg.norm_intrinsic_raw(v)


def _norm_form_models(f):
    # 5/7 has no residue mod 7, so the third kappa is 5/3 over F_7
    kappas = ("-1/2", "3", "5/3" if f.p == 7 else "5/7")
    octonions = CDAlgebra(f, kappas=tuple(f.parse_scalar(k) for k in kappas))
    gamma = tuple(f.parse_scalar(g) for g in ("1", "2/3", "-5"))
    return [split_albert(f), hermitian(octonions, gamma=gamma), tits(f, f.parse_scalar("3/2"))]


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_norm_form_matches_norm_raw(field):
    rng = random.Random(11)
    models = _norm_form_models(field)
    for alg in models:
        form = alg.norm_form()
        assert form is alg.norm_form()
        assert all(i <= j <= k and isinstance(c, int) and c for i, j, k, c in form.terms)
        assert form.den == 1 or field == Q()
        for _ in range(6):
            x = alg.sample(rng).coords
            value = sum(c * x[i] * x[j] * x[k] for i, j, k, c in form.terms)
            assert field.div(value, field.from_int(form.den)) == alg.norm_raw(x)
    if field == Q():
        assert [alg.norm_form().den > 1 for alg in models] == [False, True, True]


def _fitted_norm_form(alg):
    """The norm form fitted from field values: t = G (e_i # e_j) for the
    pairs i <= j, and the monomial x_i x_j x_k (i <= j <= k) given t_k/6,
    t_k/2 or t_k by how many of its indices are equal, which assumes
    Tr(e_i # e_j, e_k) symmetric in i, j, k."""
    f = alg.field
    basis = [b.coords for b in alg.basis()]
    sixth, half = f.inv(f.from_int(6)), f.half()
    coeffs = []
    for i in range(27):
        for j in range(i, 27):
            t = alg.gram_vec(alg.cross_raw(basis[i], basis[j]))
            for k in range(j, 27):
                c = t[k]
                if c:
                    if i == k:
                        c = f.mul(sixth, c)
                    elif i == j or j == k:
                        c = f.mul(half, c)
                    coeffs.append((i, j, k, c))
    den, ints = linalg.to_ints([c for _, _, _, c in coeffs], f)
    return NormForm(tuple((i, j, k, c) for (i, j, k, _), c in zip(coeffs, ints)), den)


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_norm_form_equals_the_field_value_fit(field):
    """The form read off the integer entries has the terms, in order, and
    the denominator of the fit from field-value cross products."""
    for alg in _norm_form_models(field):
        assert alg.norm_form() == _fitted_norm_form(alg)


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_cross_table_polarizes_sharp_on_every_basis_pair(field):
    """e_i # e_j = e_j # e_i = (e_i + e_j)# - e_i# - e_j# for i < j and
    e_i # e_i = 2 e_i#, with sharp from the Jordan table (`sharp_raw`).
    Both sides are bilinear in the coordinates, so x # x = 2 x# for every
    x, and the norm form, Tr(x # x, x)/6, is Tr(x#, x)/3, the intrinsic
    norm (`norm_intrinsic_raw`)."""
    for alg in _norm_form_models(field):
        f = alg.field
        basis = [b.coords for b in alg.basis()]
        sharp = [alg.sharp_raw(e) for e in basis]
        for i in range(27):
            assert alg.cross_raw(basis[i], basis[i]) == tuple(f.add(v, v) for v in sharp[i])
            for j in range(i + 1, 27):
                both = alg.sharp_raw(tuple(map(f.add, basis[i], basis[j])))
                polar = tuple(f.sub(f.sub(v, a), b) for v, a, b in zip(both, sharp[i], sharp[j]))
                assert alg.cross_raw(basis[i], basis[j]) == polar
                assert alg.cross_raw(basis[j], basis[i]) == polar


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_construction_evaluates_no_norm(field, monkeypatch):
    """The norm form is built on first norm use: building either model
    evaluates neither the intrinsic norm nor the norm form."""
    def forbidden(*args):
        raise AssertionError("norm evaluated during construction")

    monkeypatch.setattr(AlbertAlgebra, "norm_intrinsic_raw", forbidden)
    monkeypatch.setattr(NormForm, "evaluate", forbidden)
    for alg in (split_albert(field), tits(field, field.parse_scalar("3/2"))):
        assert alg._norm_form is None


def test_tits_norm_closed_matches_definition():
    alg = tits(Fp(7), varsigma=2)
    rng = random.Random(5)
    f = alg.field
    for _ in range(20):
        x = alg.sample(rng)
        a0, a1, a2 = x.parts()
        expect = f.sub(
            f.add(f.add(albert.mat3_det(f, a0), f.mul(f.from_int(2), albert.mat3_det(f, a1))),
                  f.mul(f.inv(f.from_int(2)), albert.mat3_det(f, a2))),
            albert.mat3_tr(f, linalg.mat_mul(linalg.mat_mul(a0, a1, f), a2, f)),
        )
        assert alg.norm_raw(x.coords) == expect


def test_check_closed_norm_reads_the_tits_model(monkeypatch):
    """`verify`'s displayed-formula check covers the Tits norm: a norm that is
    off by one on the Tits model only fails it."""
    ctx = verify.Ctx(Fp(7), 0, 10)
    verify.check_closed_norm(ctx)
    norm_raw = AlbertAlgebra.norm_raw
    monkeypatch.setattr(
        AlbertAlgebra, "norm_raw",
        lambda self, x: self.field.add(norm_raw(self, x), 1) if self.model == "tits"
        else norm_raw(self, x))
    with pytest.raises(verify.CheckFailure, match='"algebra": "tits:'):
        verify.check_closed_norm(ctx)


def test_trform_gram_rank_27():
    for alg in (split_albert(Fp(7)), tits(Fp(7)), split_albert(Q())):
        assert linalg.rank(alg.gram, alg.field) == 27


def test_trform_values():
    for alg in all_models():
        e = alg.unit()
        assert trform(e, e) == 3


def test_tits_trform_matches_eq8_pattern():
    alg = tits(Fp(11), varsigma=3)
    rng = random.Random(6)
    for _ in range(15):
        x, y = alg.sample(rng), alg.sample(rng)
        assert alg.trform_raw(x.coords, y.coords) == _ref_tits_trform(alg, x.coords, y.coords)


# -- sharp ---------------------------------------------------------------------

def test_sharp_unit_and_diag():
    for alg in all_models():
        e = alg.unit()
        assert sharp(e).coords == e.coords
    alg = split_albert(Q())
    d = alg.diag(Fraction(2), Fraction(3), Fraction(5))
    assert sharp(d).coords == alg.diag(15, 10, 6).coords


def test_sharp_axioms_sampled():
    """(1) Tr(x#, y) = dN(x; y), (2) (x#)# = N(x) x, (3) 1 # x = Tr(x) 1 - x."""
    rng = random.Random(7)
    for alg in all_models():
        f = alg.field
        e = alg.unit()
        for _ in range(40):
            x, y = alg.sample(rng, 3), alg.sample(rng, 3)
            assert trform(sharp(x), y).value == alg.norm_derivative_raw(x.coords, y.coords)
            n = alg.norm_raw(x.coords)
            assert sharp(sharp(x)).coords == x.scale(n).coords
            assert cross(e, x).coords == (e.scale(alg.tr_raw(x.coords)) - x).coords


def _ref_cross(alg, x, y):
    """x # y = 2 x.y - Tr(x) y - Tr(y) x + (Tr(x)Tr(y) - Tr(x,y)) e, written
    out coordinate by coordinate from the Jordan product."""
    f = alg.field
    two = f.from_int(2)
    p = alg.jmul_raw(x, y)
    tx, ty = alg.tr_raw(x), alg.tr_raw(y)
    s = f.sub(f.mul(tx, ty), alg.trform_raw(x, y))
    e = alg.unit_coords
    return tuple(
        f.add(f.sub(f.sub(f.mul(two, p[k]), f.mul(tx, y[k])), f.mul(ty, x[k])),
              f.mul(s, e[k]))
        for k in range(27)
    )


def _sparse_sample(alg, rng, nonzero):
    f = alg.field
    coords = [f.zero()] * 27
    for k in rng.sample(range(27), nonzero):
        coords[k] = f.sample_raw(rng, 4) or f.one()
    return tuple(coords)


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_cross_table_matches_formula(field):
    """The derived cross table against the coordinate formula: split and
    kappa/gamma Hermitian models and a Tits model with varsigma 3/2, on
    dense, sparse and basis operands."""
    rng = random.Random(12)
    for alg in _norm_form_models(field):
        table = alg.cross_table()
        assert table is alg.cross_table()
        assert all(c for _, _, _, c in table.entries)
        basis = [b.coords for b in alg.basis()]
        pairs = [(basis[i], basis[j]) for i in (0, 3, 11, 26) for j in range(27)]
        for nonzero in (1, 2, 5, 27):
            pairs += [(_sparse_sample(alg, rng, nonzero), _sparse_sample(alg, rng, nonzero))
                      for _ in range(4)]
        pairs += [(alg.sample(rng).coords, alg.sample(rng).coords) for _ in range(4)]
        for x, y in pairs:
            assert alg.cross_raw(x, y) == _ref_cross(alg, x, y)


def test_cross_table_is_derived_not_evaluated(monkeypatch):
    """The table comes from the Jordan table, trace and Gram data: deriving
    it evaluates no product."""
    models = [tits(Q(), Fraction(3, 2)), split_albert(Fp(7))]

    def forbidden(*args):
        raise AssertionError("product evaluated while deriving the cross table")

    monkeypatch.setattr(AlbertAlgebra, "jmul_raw", forbidden)
    monkeypatch.setattr(AlbertAlgebra, "trform_raw", forbidden)
    for alg in models:
        assert len(alg.cross_table().entries) == 270


@pytest.mark.parametrize("field", [Q(), Fp(7), Fp(2**61 - 1)], ids=str)
def test_jordan_table_matches_direct_product(field):
    """The derived Jordan tables equal the product evaluated on full 3x3
    matrices: split and kappa/gamma Hermitian models, Tits with varsigma 1
    and 3/2."""
    models = _norm_form_models(field) + [tits(field, 1)]
    for alg in models:
        assert sorted(alg.table.entries, key=lambda e: e[:3]) == \
            sorted(_ref_jordan_entries(alg), key=lambda e: e[:3])
    assert [len(alg.table.entries) for alg in models] == [339, 531, 339, 339]


def test_jordan_table_is_derived_not_evaluated(monkeypatch):
    """Both tables are read off structure data: no composition product, no
    table apply and no 3x3 matrix product."""
    octonions = CDAlgebra.split_octonions(Q())
    gamma = (Fraction(1), Fraction(2, 3), Fraction(-5))

    def forbidden(*args):
        raise AssertionError("product evaluated while deriving the Jordan table")

    monkeypatch.setattr(CDAlgebra, "mul_raw", forbidden)
    monkeypatch.setattr(MulTable, "apply", forbidden)
    monkeypatch.setattr(albert, "mat_mul", forbidden)
    assert len(albert.her_jordan_table(octonions, gamma).entries) == 339
    assert len(albert.tits_jordan_table(Q(), Fraction(3, 2)).entries) == 339
    assert len(albert.tits_jordan_table(Fp(7), 1).entries) == 339


def test_euler_relation():
    rng = random.Random(8)
    for alg in models_f7():
        for _ in range(25):
            x = alg.sample(rng)
            assert trform(sharp(x), x).value == alg.field.mul(
                alg.field.from_int(3), alg.norm_raw(x.coords)
            )


# -- U operators -----------------------------------------------------------------

def test_uop_unit_is_identity():
    for alg in models_f7():
        assert alg.uop_matrix(alg.unit_coords) == linalg.identity(27, alg.field)


def test_uop_diagonal():
    alg = split_albert(Q())
    x = alg.diag(2, 3, 5)
    y = alg.diag(7, 11, 13)
    expect = alg.diag(4 * 7, 9 * 11, 25 * 13)
    assert uapply(x, y).coords == expect.coords
    assert alg.linmap(alg.uop_matrix(x.coords)).apply(y.coords) == expect.coords


def test_uop_linmap():
    from brownalg.albert import uop

    alg = split_albert(Fp(7))
    m = uop(alg.unit())
    assert m.is_identity()
    d = alg.diag(2, 3, 5)
    y = alg.diag(1, 1, 1)
    assert m.carrier == "albert27"
    assert uop(d).apply(y.coords) == alg.diag(4, 2, 4).coords  # squares mod 7


def test_uop_formulas_agree_as_matrices():
    rng = random.Random(9)
    for alg in all_models():
        for _ in range(8):
            x = alg.sample(rng, 3)
            assert alg.uop_matrix(x.coords) == alg.uop_matrix_sharp(x.coords)


def test_norm_of_u_image():
    rng = random.Random(10)
    for alg in models_f7():
        f = alg.field
        for _ in range(30):
            x, y = alg.sample(rng), alg.sample(rng)
            lhs = alg.norm_raw(alg.uapply_raw(x.coords, y.coords))
            nx = alg.norm_raw(x.coords)
            rhs = f.mul(f.mul(nx, nx), alg.norm_raw(y.coords))
            assert lhs == rhs


# -- inverses and isotopes ---------------------------------------------------------

def test_jinverse_basics():
    alg = split_albert(Q())
    e = alg.unit()
    assert jinverse(e).coords == e.coords
    d = alg.diag(2, 3, 4)
    assert jinverse(d).coords == alg.diag(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)).coords
    with pytest.raises(SingularElement):
        jinverse(alg.diag(0, 1, 1))


def test_uop_of_inverse_inverts():
    rng = random.Random(11)
    alg = split_albert(Fp(7))
    f = alg.field
    for _ in range(10):
        x = alg.sample_invertible(rng)
        xi = alg.jinv_raw(x.coords)
        u = alg.uop_matrix(x.coords)
        ui = alg.uop_matrix(xi)
        assert linalg.mat_mul(u, ui, f) == linalg.identity(27, f)
        assert alg.uapply_raw(x.coords, xi) == x.coords


def test_triple_with_unit_is_product():
    rng = random.Random(12)
    for alg in models_f7():
        e = alg.unit()
        for _ in range(10):
            x, y = alg.sample(rng), alg.sample(rng)
            assert triple(x, e, y).coords == jmul(x, y).coords


def test_isotope_unit_law():
    alg = split_albert(Q())
    u = alg.diag(2, 3, 4)
    eu = jinverse(u)
    rng = random.Random(13)
    for _ in range(10):
        x = alg.sample(rng)
        assert isotope_mul(x, u, eu).coords == x.coords
    with pytest.raises(SingularElement):
        isotope_mul(alg.unit(), alg.diag(0, 1, 1), alg.unit())


def _isotope_left_mul(alg, x, y):
    """Matrix of z -> x <y> z = {x, y, z}."""
    cols = [alg.triple_raw(x, y, b.coords) for b in alg.basis()]
    return tuple(tuple(cols[j][i] for j in range(27)) for i in range(27))


def test_isotope_u_operator_shift():
    """U_x^<y> = U_x U_y as 27x27 matrices; the isotope U-operator is
    assembled independently as 2 L'^2 - L'_{x<y>x} with L' the isotope
    left multiplication."""
    rng = random.Random(14)
    alg = split_albert(Fp(7))
    f = alg.field
    two = f.from_int(2)
    for _ in range(6):
        x = alg.sample(rng)
        y = alg.sample_invertible(rng)
        lx = _isotope_left_mul(alg, x.coords, y.coords)
        xsq = alg.triple_raw(x.coords, y.coords, x.coords)
        lx2 = _isotope_left_mul(alg, xsq, y.coords)
        left = tuple(
            tuple(f.sub(f.mul(two, a), b) for a, b in zip(ra, rb))
            for ra, rb in zip(linalg.mat_mul(lx, lx, f), lx2)
        )
        right = linalg.mat_mul(alg.uop_matrix(x.coords), alg.uop_matrix(y.coords), f)
        assert left == right


def test_isotope_of_isotope():
    """(J^<y>)^<z> product equals J^<U_y z> product on samples."""
    rng = random.Random(15)
    alg = split_albert(Fp(7))
    for _ in range(8):
        y = alg.sample_invertible(rng)
        z = alg.sample_invertible(rng)
        x, w = alg.sample(rng), alg.sample(rng)
        # product of (J^<y>)^<z>: x *' w = {x, z, w} taken in J^<y>
        inner = lambda u, v, t: alg.triple_raw(u, v, t)
        # {x, z, w}^<y> = (x<y>z)<y>w + (w<y>z)<y>x - (x<y>w)<y>z
        xy_z = inner(inner(x.coords, y.coords, z.coords), y.coords, w.coords)
        wy_z = inner(inner(w.coords, y.coords, z.coords), y.coords, x.coords)
        xy_w = inner(inner(x.coords, y.coords, w.coords), y.coords, z.coords)
        f = alg.field
        left = tuple(f.sub(f.add(a, b), c) for a, b, c in zip(xy_z, wy_z, xy_w))
        uyz = alg.uapply_raw(y.coords, z.coords)
        right = alg.triple_raw(x.coords, uyz, w.coords)
        assert left == right


# -- norm similarities ---------------------------------------------------------

def test_phi_lambda():
    alg = split_albert(Q())
    rng = random.Random(16)
    f = alg.field
    for _ in range(25):
        x = alg.sample(rng, 3)
        assert phi_lambda(1, x).coords == x.coords
        two = f.from_int(2)
        assert alg.norm_raw(phi_lambda(2, x).coords) == f.mul(two, alg.norm_raw(x.coords))
        y = phi_lambda(3, phi_lambda(2, x))
        assert alg.norm_raw(y.coords) == f.mul(f.from_int(6), alg.norm_raw(x.coords))
    with pytest.raises(ZeroMultiplier):
        phi_lambda(0, alg.unit())
    with pytest.raises(ModelMismatch):
        phi_lambda(2, tits(Q()).unit())


def test_nu_g():
    alg = split_albert(Fp(11))
    f = alg.field
    rng = random.Random(17)
    u = alg.diag(1, 0, 0)
    for g in (2, 3):
        graw = f.from_int(g)
        for _ in range(15):
            x = alg.sample(rng)
            assert alg.norm_raw(alg.nu_g_raw(graw, x.coords)) == alg.norm_raw(x.coords)
        g4i = f.inv(f.mul(f.mul(graw, graw), f.mul(graw, graw)))
        assert nu_g(g, u).coords == u.scale(g4i).coords
    assert nu_g(1, alg.unit()).coords == alg.unit().coords
    with pytest.raises(ZeroMultiplier):
        nu_g(0, alg.unit())
    with pytest.raises(ModelMismatch):
        nu_g(2, hermitian(CDAlgebra.split_octonions(Fp(11)), gamma=(1, 2, 3)).unit())


# -- beth ---------------------------------------------------------------------

def test_beth_basis():
    alg = split_albert(Q())
    basis = beth_basis(alg)
    assert len(basis) == 11
    u = basis[0]
    assert jmul(u, u).coords == u.coords
    # Q(u) = Tr(u^2)/2 = 1/2
    assert alg.trform_raw(u.coords, u.coords) == Fraction(1)
    mat = tuple(b.coords for b in basis)
    assert linalg.rank(mat, alg.field) == 11
    span, _ = linalg.int_span(mat, 27, alg.field)
    for x in basis:
        for y in basis:
            assert span.contains(linalg.to_ints(jmul(x, y).coords, alg.field)[1])


# -- tits phi -------------------------------------------------------------------

def _unimodular_samples(f, rng, count):
    """Products of elementary matrices, det = 1."""
    out = []
    for _ in range(count):
        m = linalg.identity(3, f)
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = f.sample_raw(rng, 3)
            e = [list(r) for r in linalg.identity(3, f)]
            e[i][j] = c
            m = linalg.mat_mul(m, tuple(tuple(r) for r in e), f)
        out.append(m)
    return out


def test_tits_phi_identity_and_norm():
    alg = tits(Fp(7))
    f = alg.field
    rng = random.Random(18)
    ident = linalg.identity(3, f)
    x = alg.sample(rng)
    assert tits_phi(ident, ident, ident, x).coords == x.coords
    us = _unimodular_samples(f, rng, 10)
    vs = _unimodular_samples(f, rng, 10)
    ws = _unimodular_samples(f, rng, 10)
    for u, v, w in zip(us, vs, ws):
        y = alg.sample(rng)
        assert alg.norm_raw(alg.tits_phi_raw(u, v, w, y.coords)) == alg.norm_raw(y.coords)


def test_tits_phi_composition():
    alg = tits(Fp(7))
    f = alg.field
    rng = random.Random(19)
    u1, v1, w1 = _unimodular_samples(f, rng, 3)
    u2, v2, w2 = _unimodular_samples(f, rng, 3)
    x = alg.sample(rng)
    lhs = tits_phi(u1, v1, w1, tits_phi(u2, v2, w2, x))
    rhs = tits_phi(
        linalg.mat_mul(u1, u2, f), linalg.mat_mul(v1, v2, f), linalg.mat_mul(w1, w2, f), x
    )
    assert lhs.coords == rhs.coords


def test_tits_phi_rejects_non_unimodular():
    alg = tits(Q())
    f = alg.field
    bad = ((Fraction(2), Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(0), Fraction(1)))
    ident = linalg.identity(3, f)
    with pytest.raises(NotUnimodular):
        tits_phi(bad, ident, ident, alg.unit())


def test_tits_diagonal_torus_characters():
    """phi(diag(s), diag(t), diag(r)) scales each Tits coordinate by an
    explicit character s_p t_q^-1 etc."""
    alg = tits(Fp(11))
    f = alg.field
    s = (2, 3, f.inv(6))
    t = (4, 5, f.inv(20 % 11))
    r = (7, 8, f.inv(56 % 11))
    dm = lambda d: ((d[0], 0, 0), (0, d[1], 0), (0, 0, d[2]))
    ds, dt, dr = dm(s), dm(t), dm(r)
    for m in (ds, dt, dr):
        assert albert.mat3_det(f, m) == f.one()
    for part, (left, right) in enumerate(((s, t), (t, r), (r, s))):
        for p in range(3):
            for q in range(3):
                idx = 9 * part + 3 * p + q
                x = alg.basis()[idx]
                img = alg.tits_phi_raw(ds, dt, dr, x.coords)
                expect = [f.zero()] * 27
                expect[idx] = f.mul(left[p], f.inv(right[q]))
                assert img == tuple(expect)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_each_model_refuses_the_other_models_arguments(field):
    """Neither factory takes the other model's arguments: varsigma on the
    Hermitian model and gamma or octonions on the Tits model raise
    TypeError, instead of building a model that drops them."""
    o = CDAlgebra.split_octonions(field)
    with pytest.raises(TypeError):
        hermitian(o, varsigma=5)
    with pytest.raises(TypeError):
        tits(field, gamma=(1, 2, 3))
    with pytest.raises(TypeError):
        tits(field, octonions=o)
    assert tits(field, varsigma=5).basis_tag == f"tits:{field}:varsigma=5"
    assert hermitian(o, gamma=(1, 2, 3)).gamma == tuple(map(field.coerce, (1, 2, 3)))
