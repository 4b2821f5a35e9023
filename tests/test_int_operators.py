"""The Albert operators computed in scaled integers (`uop_map`, `uop_matrix`,
`uop_matrix_sharp`, `sharp_raw`, `jinv_raw`, `trform_raw`, `gram_vec`) and the
Kronecker-block `tits_phi_matrix`, against references built from the Jordan
product through the unchanged `MulTable.apply`."""

import math
import random
from fractions import Fraction

import pytest

from brownalg import albert, linalg, linmaps
from brownalg.albert import hermitian, split_albert, tits
from brownalg.cayley import CDAlgebra
from brownalg.errors import ModelMismatch, NotUnimodular
from brownalg.fields import _ZERO, RATIONALS, Fp, Q
from brownalg.involutions import Catalog
from brownalg.kernels import MulTable
from brownalg.linmaps import LinMap


def _general_her():
    """Her3(CD(Q; -2/3, 5/7, 3/2), gamma = (1, 2/5, -3/4)): table denominators
    well above 2."""
    F = Q()
    C = CDAlgebra(F, kappas=(Fraction(-2, 3), Fraction(5, 7), Fraction(3, 2)))
    return hermitian(C, gamma=(1, Fraction(2, 5), Fraction(-3, 4)))


MODELS = {
    "her-Q": lambda: split_albert(Q()),
    "tits-Q": lambda: tits(Q()),
    "her-F7": lambda: split_albert(Fp(7)),
    "tits-F7": lambda: tits(Fp(7)),
    "her-general-Q": _general_her,
    "tits-3/2-Q": lambda: tits(Q(), Fraction(3, 2)),
    "her-general-F11": lambda: hermitian(
        CDAlgebra(Fp(11), kappas=(3, 5, 7)), gamma=(1, 2, 3)),
}


def _points(alg, rng, count=3):
    """Samples with non-integral coordinates (over Q), some coordinates set to
    zero, plus a sparse point and the zero vector."""
    f = alg.field
    out = []
    for _ in range(count):
        x = list(alg.sample(rng, 5).coords)
        for k in rng.sample(range(27), 9):
            x[k] = f.zero()
        out.append(tuple(x))
    sparse = [f.zero()] * 27
    sparse[rng.randrange(27)] = f.sample_nonzero(rng, 5)
    sparse[rng.randrange(27)] = f.sample_nonzero(rng, 5)
    out.append(tuple(sparse))
    out.append((f.zero(),) * 27)
    return out


def _assert_shared_zeros(field, values):
    if field.kind == RATIONALS:
        assert all(v is _ZERO for v in values if not v)


def _ref_uop_columns(alg, x):
    """Column j is 2 x.(x.e_j) - x^2.e_j, by `jmul_raw`."""
    f = alg.field
    x2 = alg.jmul_raw(x, x)
    cols = []
    for e in linalg.identity(27, f):
        xxe = alg.jmul_raw(x, alg.jmul_raw(x, e))
        x2e = alg.jmul_raw(x2, e)
        cols.append(tuple(f.sub(f.add(a, a), b) for a, b in zip(xxe, x2e)))
    return linalg.transpose(cols)


def _ref_sharp(alg, x):
    """x^2 - T(x) x + S(x) e with S(x) = (T(x)^2 - T(x^2)) / 2."""
    f = alg.field
    x2 = alg.jmul_raw(x, x)
    t = alg.tr_raw(x)
    s = f.mul(f.half(), f.sub(f.mul(t, t), alg.tr_raw(x2)))
    return tuple(f.add(f.sub(q, f.mul(t, v)), f.mul(s, e))
                 for q, v, e in zip(x2, x, alg.unit_coords))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_uop_matrix_matches_jordan_reference(name):
    alg = MODELS[name]()
    rng = random.Random(f"uop:{name}")
    for x in _points(alg, rng, count=2):
        u = alg.uop_matrix(x)
        ref = _ref_uop_columns(alg, x)
        assert tuple(map(tuple, u)) == tuple(map(tuple, ref))
        assert alg.uop_matrix_sharp(x) == u
        for row in u:
            _assert_shared_zeros(alg.field, row)
        for row in alg.uop_matrix_sharp(x):
            _assert_shared_zeros(alg.field, row)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_sharp_and_inverse_match_jordan_reference(name):
    alg = MODELS[name]()
    f = alg.field
    rng = random.Random(f"sharp:{name}")
    for x in _points(alg, rng):
        xs = alg.sharp_raw(x)
        assert xs == _ref_sharp(alg, x)
        _assert_shared_zeros(f, xs)
        n = alg.norm_raw(x)
        if n:
            xi = alg.jinv_raw(x)
            assert xi == tuple(f.div(v, n) for v in xs)
            assert alg.jmul_raw(x, xi) == alg.unit_coords
            _assert_shared_zeros(f, xi)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_trform_and_gram_vec_match_the_gram_matrix(name):
    alg = MODELS[name]()
    f = alg.field
    rng = random.Random(f"gram:{name}")
    pts = _points(alg, rng)
    for x, y in zip(pts, pts[1:] + pts[:1]):
        assert alg.trform_raw(x, y) == alg.tr_raw(alg.jmul_raw(x, y))
        g = alg.gram_vec(x)
        assert g == alg.linmap(alg.gram).apply(x)
        _assert_shared_zeros(f, g)


def test_int_kernels_match_apply():
    """D (x.y) and D L_x from the integer table equal D times `apply`, and
    D L_x converted back by `from_ints` is the map y -> x.y, on a table with
    unlike denominators."""
    rng = random.Random(3)
    n = 7
    entries = [(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))) for _ in range(40)]
    table = MulTable(n, entries)
    D, _ = table.int_table()
    assert D == math.lcm(*(c.denominator for *_, c in entries))
    f = Q()
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        y = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
        xi, yi = [int(v) for v in x], [int(v) for v in y]
        assert [Fraction(v, D) for v in table.mul_ints(xi, yi)] == list(table.apply(x, y, f))
        lm = tuple(linalg.from_ints(r, D, f) for r in table.left_ints(xi))
        assert [[Fraction(v, D) for v in r] for r in table.left_ints(xi)] == [list(r) for r in lm]
        assert LinMap(lm, f, "table7", "table7").apply(y) == table.apply(x, y, f)


# -- tits_phi_matrix -----------------------------------------------------------

def _unimodular(f, rng, diagonal):
    if diagonal:
        a, b = f.sample_nonzero(rng, 4), f.sample_nonzero(rng, 4)
        z = f.zero()
        return ((a, z, z), (z, b, z), (z, z, f.inv(f.mul(a, b))))
    m = linalg.identity(3, f)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        e = [list(r) for r in linalg.identity(3, f)]
        e[i][j] = f.sample_raw(rng, 3)
        m = linalg.mat_mul(m, tuple(map(tuple, e)), f)
    return m


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "general"])
def test_tits_phi_map_matches_the_per_element_map(field, diagonal, monkeypatch):
    alg = tits(field)
    rng = random.Random(f"phi:{field}:{diagonal}")
    calls = []
    real = albert.mat3_adj
    monkeypatch.setattr(albert, "mat3_adj", lambda f, a: calls.append(a) or real(f, a))
    for _ in range(3):
        u, v, w = (_unimodular(field, rng, diagonal) for _ in range(3))
        ref = alg.linmap_of(lambda x: alg.tits_phi_raw(u, v, w, x))
        calls.clear()
        m = alg.linmap(alg.tits_phi_matrix(u, v, w))
        assert len(calls) == 3
        assert m.matrix == ref.matrix
        for row in m.matrix:
            _assert_shared_zeros(field, row)


def test_tits_phi_map_errors():
    f = Q()
    ident = linalg.identity(3, f)
    bad = ((Fraction(2), _ZERO, _ZERO), (_ZERO, Fraction(1), _ZERO), (_ZERO, _ZERO, Fraction(1)))
    with pytest.raises(NotUnimodular, match="determinant 1"):
        tits(f).tits_phi_matrix(ident, bad, ident)
    with pytest.raises(ModelMismatch, match="first Tits construction"):
        split_albert(f).tits_phi_matrix(ident, ident, ident)


def test_torus_realization_zeros_are_shared():
    m = Catalog(Q()).realize("t:1,1,1,1,-1,1", "J")
    zeros = [v for row in m.matrix for v in row if not v]
    assert len(zeros) == 702
    assert all(v is _ZERO for v in zeros)


@pytest.mark.parametrize("p", [7, 1000003, 2**61 - 1])
@pytest.mark.parametrize("model", ["her", "tits"])
def test_uop_matrix_reduces_its_matvec_entries(p, model):
    """`MatVec` takes entries in [0, p) over F_p, and `uop_matrix` reduces the
    integer left multiplication it squares: it still equals `uop_matrix_sharp`,
    also at coordinates p - 1, where the unreduced entries are largest (at
    the 61-bit prime they overflow the slots unless reduced)."""
    f = Fp(p)
    alg = split_albert(f) if model == "her" else tits(f, 3)
    rng = random.Random(f"matvec:{p}:{model}")
    points = _points(alg, rng, count=2) + [(p - 1,) * 27]
    for x in points:
        assert alg.uop_matrix(x) == alg.uop_matrix_sharp(x)


def _lift(v):
    """A field value as a `Fraction`: a residue mod p as its integer."""
    return Fraction(v)


def _reduce(v, f):
    """A `Fraction` as a value of f: itself over Q, num / den mod p over F_p."""
    if f.kind == RATIONALS:
        return v
    return v.numerator * pow(v.denominator, -1, f.p) % f.p


def _ref_uop(alg, x):
    """2 L_x^2 - L_{x^2} in plain `Fraction`s from the entries of the Jordan
    table, (i, j, k, c) meaning (e_i . e_j)_k = c, reduced mod p at the end
    over F_p."""
    f = alg.field
    x = [_lift(v) for v in x]
    entries = [(i, j, k, _lift(c)) for i, j, k, c in alg.table.entries]

    def left(v):
        m = [[Fraction(0)] * 27 for _ in range(27)]
        for i, j, k, c in entries:
            m[k][j] += c * v[i]
        return m

    lx = left(x)
    square = [Fraction(0)] * 27
    for i, j, k, c in entries:
        square[k] += c * x[i] * x[j]
    lx2 = left(square)
    return tuple(tuple(_reduce(2 * sum(lx[r][t] * lx[t][s] for t in range(27)) - lx2[r][s], f)
                       for s in range(27)) for r in range(27))


def _dense_norm_one(alg, rng):
    """An element with every coordinate nonzero and norm 1: the norm is
    affine in coordinate 0 (xi_1 in the Hermitian model, the (0, 0) entry
    of a0 in the Tits model), so it is solved for from two norms."""
    f = alg.field
    while True:
        x = [f.sample_nonzero(rng, 5) for _ in range(27)]
        at0 = alg.norm_raw(tuple([f.zero()] + x[1:]))
        slope = f.sub(alg.norm_raw(tuple([f.one()] + x[1:])), at0)
        if slope:
            x[0] = f.div(f.sub(f.one(), at0), slope)
            if x[0]:
                assert alg.norm_raw(tuple(x)) == f.one()
                return tuple(x)


def _large(f, rng):
    """An element with numerators of up to 30 digits over denominators
    2^a 3^b 5^c of 29 to 45 digits, units mod every p of `UOP_FIELDS`."""
    return tuple(f.div(f.from_int(rng.randrange(-10**30, 10**30)),
                       f.from_int(2 ** rng.randrange(40, 60) * 3 ** rng.randrange(20, 30)
                                  * 5 ** rng.randrange(10, 20)))
                 for _ in range(27))


UOP_FIELDS = {"Q": Q(), "Fp:7": Fp(7), "Fp:1000003": Fp(1000003)}


@pytest.mark.parametrize("name", list(UOP_FIELDS))
@pytest.mark.parametrize("model", ["her", "tits"])
def test_uop_matrix_matches_a_fraction_reference(name, model, monkeypatch):
    """`uop_matrix` equals 2 L_x^2 - L_{x^2} built in plain `Fraction`s from
    the Jordan table's entries, on both models, for a dense norm-one x,
    diag(1, -1, -1), zero and an x with large numerators and denominators;
    it runs on stacked `mul_ints` products, with no `MatVec` and no
    `left_ints`."""
    f = UOP_FIELDS[name]
    alg = split_albert(f) if model == "her" else tits(f)
    rng = random.Random(34)
    xs = [_dense_norm_one(alg, rng), alg.diag(1, -1, -1).coords, alg.zero().coords,
          _large(f, rng)]
    want = [_ref_uop(alg, x) for x in xs]

    def forbidden(*args):
        raise AssertionError("uop_matrix used a MatVec or left_ints")

    monkeypatch.setattr(linalg.MatVec, "__init__", forbidden)
    monkeypatch.setattr(linalg.MatVec, "apply", forbidden)
    monkeypatch.setattr(MulTable, "left_ints", forbidden)
    for x, ref in zip(xs, want):
        assert alg.uop_matrix(x) == ref
    assert all(v is alg.field.zero() for row in alg.uop_matrix(xs[2]) for v in row)


@pytest.mark.parametrize("name", ["Q", "Fp:7"])
def test_uop_matrix_view_reduces_nothing_over_fp(name, monkeypatch):
    """Over F_p a map's integer form is canonical (d = 1, entries in
    [0, p)), so the `matrix` view of U_x is its rows, made with no
    `from_ints` call; over Q it is M / d, one `from_ints` per row."""
    f = UOP_FIELDS[name]
    alg = split_albert(f)
    x = _dense_norm_one(alg, random.Random(38))
    d, rows = alg.uop_map(x)._ints
    calls = []

    def spy(ints, den, field):
        calls.append(den)
        return linalg.from_ints(ints, den, field)

    monkeypatch.setattr(linmaps, "from_ints", spy)
    view = alg.uop_matrix(x)
    assert view == tuple(linalg.from_ints(row, d, f) for row in rows)
    if f.kind == RATIONALS:
        assert calls == [d] * 27
    else:
        assert calls == [] and d == 1 and view == rows
        assert all(0 <= v < f.p for row in rows for v in row)


@pytest.mark.parametrize("name", ["Q", "Fp:7", "Fp:2^61-1"])
@pytest.mark.parametrize("model", ["her", "tits"])
def test_uop_map_is_the_integer_form_of_uop_matrix_sharp(name, model, monkeypatch):
    """`uop_map` keeps the integer rows of its stacked products as the map's
    form, in lowest terms: the form `LinMap` gives the independent
    `uop_matrix_sharp`, at zero, the unit, a non-integral x and a norm-one
    x, made with no `albert.from_ints` and no `linmaps.to_ints` or
    `linmaps.checked_ints` (the conversion of `LinMap(matrix)`)."""
    f = {"Q": Q(), "Fp:7": Fp(7), "Fp:2^61-1": Fp(2**61 - 1)}[name]
    alg = split_albert(f) if model == "her" else tits(f)
    rng = random.Random(f"uop_map:{name}:{model}")
    x = alg.sample(rng, 5).coords
    assert f.kind != RATIONALS or linalg.to_ints(x, f)[0] > 1
    xs = [alg.zero().coords, alg.unit_coords, x, _dense_norm_one(alg, rng)]
    want = [LinMap(alg.uop_matrix_sharp(x), f, alg.carrier, alg.basis_tag)._ints for x in xs]
    calls = []
    for module, attr in ((albert, "from_ints"), (linmaps, "to_ints"), (linmaps, "checked_ints")):
        real = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, real=real, attr=attr: calls.append(attr) or real(*a))
    got = [alg.uop_map(x) for x in xs]
    assert calls == []
    assert [u._ints for u in got] == want
    assert got[1].is_identity() and not any(map(any, got[0]._ints[1]))
    assert all((u.field, u.carrier, u.basis_tag) == (f, alg.carrier, alg.basis_tag) for u in got)
