"""Eigenspaces computed on a map's integer form (`LinMap.eigenbasis`,
`linalg.kernel`) and the `IntSpan` built on a kernel basis and its free
columns, against a Gauss-Jordan nullspace in field values and the
`int_span` of the same basis, over Q and F_7."""

import random
from fractions import Fraction

import pytest

from brownalg import linalg
from brownalg.errors import NonArithmeticField
from brownalg.fields import FieldSpec, Fp, Q
from brownalg.involutions import Catalog, grade_decompose
from brownalg.linmaps import LinMap, block_diag_map

FIELDS = {"Q": Q(), "Fp:7": Fp(7)}

# the fixed spaces a catalog query asks for, on J and on B
QUERIES = [(d, "J") for d in ("s", "t", "t*", "t:1,1,1,1,-1,1")] + \
    [(d, "B") for d in ("s", "t", "t*", "t:1,1,1,1,-1,1", "varpi", "s.varpi", "t.varpi")]


def _ref_nullspace(a, f):
    """Gauss-Jordan elimination in field values with FieldSpec arithmetic,
    then one basis vector per free column: 1 there, minus the reduced
    row's entry at each pivot column."""
    rows = [list(r) for r in a]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = f.inv(rows[r][c])
        rows[r] = [f.mul(inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                t = rows[i][c]
                rows[i] = [f.sub(v, f.mul(t, w)) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [f.zero()] * n
        v[fc] = f.one()
        for row, pc in zip(rows, pivots):
            v[pc] = f.neg(row[fc])
        basis.append(tuple(v))
    return basis


def _shifted(m, ev):
    """The matrix of m - ev id in field values."""
    f = m.field
    ev = f.coerce(ev)
    return [[f.sub(v, ev) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(m.matrix)]


@pytest.fixture(scope="module")
def catalogs():
    return {name: Catalog(f) for name, f in FIELDS.items()}


@pytest.mark.parametrize("desc, space", QUERIES)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_eigenspaces_match_the_field_value_nullspace(catalogs, name, desc, space):
    m = catalogs[name].realize(desc, space)
    for ev in (1, -1):
        basis, free, forms = m.eigenbasis(ev)
        assert basis == m.eigenspace(ev) == _ref_nullspace(_shifted(m, ev), m.field)
        assert [(d, list(ints)) for d, ints in (linalg.to_ints(v, m.field) for v in basis)] == \
            [(d, list(ints)) for d, ints in forms]
        for r, v in enumerate(basis):
            assert [v[c] for c in free] == [int(r == s) for s in range(len(free))]


def test_eigenspace_of_a_non_integral_eigenvalue():
    """ev = 1/2 reads b M - a d I with b = 2, a = 1: on a diagonal map with
    1/2 at one coordinate the eigenspace is that coordinate, and on a map with
    a Jordan block at 1/2 it is the block's one eigenvector."""
    q = Q()
    half = Fraction(1, 2)
    diag = [[q.zero()] * 4 for _ in range(4)]
    for i, v in enumerate((1, half, 3, Fraction(2, 3))):
        diag[i][i] = q.coerce(v)
    m = LinMap(tuple(map(tuple, diag)), q, "m", "m")
    assert m.eigenspace(half) == _ref_nullspace(_shifted(m, half), q) == \
        [(q.zero(), q.one(), q.zero(), q.zero())]
    assert m.eigenspace(Fraction(2, 3)) == [(q.zero(), q.zero(), q.zero(), q.one())]
    assert m.eigenspace(Fraction(5, 7)) == []
    block = ((half, Fraction(3, 5), q.zero()), (q.zero(), half, q.zero()),
             (Fraction(-1, 3), q.zero(), Fraction(2)))
    m = LinMap(block, q, "m", "m")
    assert m.eigenspace(half) == _ref_nullspace(_shifted(m, half), q)
    assert len(m.eigenspace(half)) == 1


def _probes(ints, n, f, rng):
    """Integer vectors inside the span of ints (combinations, and their
    multiples) and, mostly, outside it (the unit vectors, random vectors and
    a basis vector plus a unit vector)."""
    inside = [[0] * n]
    for _ in range(4):
        c = [rng.randint(-3, 3) for _ in ints]
        inside.append([sum(ci * v[k] for ci, v in zip(c, ints)) for k in range(n)])
        inside.append([5 * x for x in inside[-1]])
    outside = [[int(k == j) for k in range(n)] for j in range(n)]
    outside += [[rng.randint(-2, 2) for _ in range(n)] for _ in range(4)]
    if ints:
        outside += [[x + (k == j) for k, x in enumerate(ints[0])] for j in range(n)]
    if f.p:
        outside.append([f.p * x for x in outside[0]])
    return inside, outside


def _agree(m, eigval, table, rng):
    """The `IntSpan` of m's eigenspace on the kernel basis and its free
    columns and `int_span`'s (RREF) agree on `contains` for vectors in and
    out of the span and on `closed`; returns `closed`."""
    f, n = m.field, m.dim
    basis, free, forms = m.eigenbasis(eigval)
    assert basis
    kspan = linalg.IntSpan(forms, free, n, f)
    rspan, ints = linalg.int_span(basis, n, f)
    assert [list(v) for v in ints] == [list(v) for _, v in forms]
    inside, outside = _probes(ints, n, f, rng)
    for w in inside:
        assert kspan.contains(w) and rspan.contains(w)
    for w in outside:
        assert kspan.contains(w) == rspan.contains(w)
    closed = kspan.closed(table, ints)
    assert closed == rspan.closed(table, ints)
    return closed


@pytest.mark.parametrize("desc, space", QUERIES)
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_kernel_span_agrees_with_int_span_on_fixed_spaces(catalogs, name, desc, space):
    cat = catalogs[name]
    m = cat.realize(desc, space)
    alg = cat.algebra_of(m)
    rng = random.Random(f"{name}:{desc}:{space}")
    assert _agree(m, 1, alg.table, rng)


@pytest.mark.parametrize("desc", ["s", "t", "t*"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_kernel_span_agrees_with_int_span_on_the_minus_space(catalogs, name, desc):
    """grade_decompose's -1 eigenspace on J, which is not closed under the
    Jordan product: both spans say so."""
    cat = catalogs[name]
    m = cat.realize(desc, "J")
    rng = random.Random(f"minus:{name}:{desc}")
    plus, minus = grade_decompose(m, cat.J)
    assert tuple(m.eigenspace(-1)) == minus
    assert not _agree(m, -1, cat.J.table, rng)


def test_kernel_of_a_full_rank_and_of_a_zero_matrix():
    for f in FIELDS.values():
        assert linalg.kernel([[1, 0], [0, 1]], f) == ([], [], [])
        basis, free, forms = linalg.kernel([[0, 0, 0]], f)
        assert free == [0, 1, 2]
        assert basis == list(linalg.identity(3, f))
        assert [(d, list(v)) for d, v in forms] == [(1, [int(i == j) for j in range(3)]) for i in range(3)]
        assert linalg.kernel([], f) == ([], [], [])


def test_a_map_over_a_field_without_arithmetic_still_raises():
    real = FieldSpec("R")
    with pytest.raises(NonArithmeticField):
        LinMap(((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))), real, "m", "m")
    with pytest.raises(NonArithmeticField):
        linalg.kernel([[1, 2], [2, 4]], real)
    with pytest.raises(NonArithmeticField):
        linalg.nullspace(((Fraction(1), Fraction(2)),), real)


# -- integer forms kept by composition and block diagonals -------------------------


def _fresh_ints(m):
    """The integer form `to_ints` gives for the map's matrix."""
    return LinMap(m.matrix, m.field, m.carrier, m.basis_tag)._ints


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_compose_and_lifts_keep_the_to_ints_form(catalogs, name):
    cat = catalogs[name]
    f = cat.field
    x = cat.J.diag(2, f.parse_scalar("1/3"), 5).coords
    maps = [cat.realize(d, "B") for d in ("s", "t", "varpi")] + \
        [cat.realize("s", "J"), cat.J.linmap(cat.J.uop_matrix(x)), cat.J.uop_map(x)]
    for m in maps:
        assert m._ints == _fresh_ints(m)
    assert maps[5] == maps[4]
    for a, b in ((maps[0], maps[2]), (maps[1], maps[2]), (maps[3], maps[4]), (maps[4], maps[4]),
                 (maps[3], maps[5]), (maps[5], maps[5])):
        c = a.compose(b)
        assert c.matrix == linalg.mat_mul(a.matrix, b.matrix, f)
        assert c._ints == _fresh_ints(c)
    u = maps[5]
    lifted = block_diag_map((LinMap(linalg.identity(2, f), f, "k2", "k2"), u, u), "brown56", "x")
    assert lifted.matrix == linalg.block_diag((linalg.identity(2, f), u.matrix, u.matrix), f)
    assert lifted._ints == _fresh_ints(lifted)


def test_lowest_terms_equals_the_to_ints_of_from_ints():
    rng = random.Random(3)
    for f in (Q(), Fp(7), Fp(2**61 - 1)):
        for _ in range(20):
            ints = [rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(6)]
            den = rng.randint(1, 24)
            if f.p and den % f.p == 0:
                continue
            got = linalg.lowest_terms(ints, den, f)
            want = linalg.to_ints(linalg.from_ints(ints, den, f), f)
            assert (got[0], list(got[1])) == (want[0], list(want[1]))
