import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownalg import linalg
from brownalg.albert import split_albert
from brownalg.errors import CarrierMismatch, NonArithmeticField
from brownalg.fields import _ZERO, FieldSpec, Fp, Q
from brownalg.involutions import Catalog, fixed_subalgebra
from brownalg.kernels import BACKEND, MulTable
from brownalg.linmaps import BROWN, LinMap


def _random_matrix(rng, m, n, p):
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(m))


def test_backend_reports():
    assert BACKEND == "pure"


def test_rref_known():
    f = Q()
    a = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    rows, pivots = linalg.rref(a, f)
    assert pivots == (0,)
    assert rows[0] == (Fraction(1), Fraction(2))
    assert not any(rows[1])


def test_inverse_round_trip_q():
    f = Q()
    a = (
        (Fraction(2), Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(3)),
        (Fraction(1), Fraction(0), Fraction(1)),
    )
    ai = linalg.inverse(a, f)
    assert linalg.mat_mul(a, ai, f) == linalg.identity(3, f)


def test_inverse_singular_returns_none():
    f = Fp(7)
    a = ((1, 2), (2, 4))
    assert linalg.inverse(a, f) is None


def test_nullspace_dimension_theorem():
    rng = random.Random(3)
    f = Fp(11)
    for _ in range(12):
        a = _random_matrix(rng, 6, 9, 11)
        r = linalg.rank(a, f)
        ns = linalg.nullspace(a, f)
        assert r + len(ns) == 9
        for v in ns:
            assert not any(_ref_mat_vec(a, v, 11))


def test_nullspace_zeros_are_the_shared_zero_over_q():
    """Over Q every zero entry of a nullspace basis is `fields._ZERO`, the
    value the `is not zero` shortcut of `linalg.to_ints` skips: on a small
    matrix whose pivot rows hold zeros in a free column,
    and on the fixed space of t.varpi on B."""
    f = Q()
    a = tuple(tuple(Fraction(v) for v in row) for row in ((1, 0, 1, 2), (0, 1, 0, 3)))
    spaces = [linalg.nullspace(a, f), Catalog(f).realize("t.varpi", "B").fixed_space()]
    assert [len(ns) for ns in spaces] == [2, 28]
    for ns in spaces:
        zeros = [v for vec in ns for v in vec if not v]
        assert zeros and all(v is _ZERO for v in zeros)


PRIMES = (101, 4294967311, 2**61 - 1)


def _ref_mat_mul(a, b, p):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) % p for j in range(m))
        for i in range(n)
    )


def _ref_mat_vec(a, v, p):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) % p for i in range(len(a)))


def _ref_bilinear_apply(entries, x, y, n, p):
    out = [0] * n
    for i, j, k, c in entries:
        out[k] += c * x[i] * y[j]
    return tuple(v % p for v in out)


def _ref_rref(a, p):
    """Textbook Gauss-Jordan elimination mod p."""
    rows = [list(r) for r in a]
    m, n = len(rows), len(rows[0])
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(m):
            if i != r:
                f = rows[i][c]
                rows[i] = [(rows[i][j] - f * rows[r][j]) % p for j in range(n)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(v % p for v in row) for row in rows), tuple(pivots)


def _sparse_matrix(rng, n, p):
    """Permutation-like: one nonzero per row and column, plus a few extra
    entries and one repeated row so rref meets zero rows and free columns."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.randrange(1, p)
    for _ in range(n // 4):
        rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(p)
    rows[-1] = list(rows[0])
    return tuple(tuple(r) for r in rows)


def test_mod_kernels_match_dense_reference():
    """mat_mul, `MatVec` (also on weights off [0, p), which it reduces, and
    on entries off [0, p) once `lowest_terms` has reduced them),
    `LinMap.apply` and rref against the triple-loop reference, on dense and
    permutation-like sparse matrices, for small, 33-bit and 61-bit p."""
    for p in PRIMES:
        rng = random.Random(p)
        f = Fp(p)
        for shape in ("dense", "sparse"):
            for _ in range(6):
                if shape == "dense":
                    a, b = _random_matrix(rng, 7, 7, p), _random_matrix(rng, 7, 7, p)
                else:
                    a, b = _sparse_matrix(rng, 9, p), _sparse_matrix(rng, 9, p)
                assert linalg.mat_mul(a, b, f) == _ref_mat_mul(a, b, p)
                assert linalg.rref(a, f) == _ref_rref(a, p)
                v = tuple(rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(len(a)))
                assert linalg.from_ints(linalg.MatVec(a, f).apply(v), 1, f) == \
                    _ref_mat_vec(a, v, p)
                off = [linalg.lowest_terms([x - 3 * p for x in row], 1, f)[1] for row in a]
                assert linalg.from_ints(linalg.MatVec(off, f).apply([x + p for x in v]), 1, f) \
                    == _ref_mat_vec(a, v, p)
                assert LinMap(a, f, "m", "m").apply(v) == _ref_mat_vec(a, v, p)
        a = _random_matrix(rng, 5, 8, p)
        assert linalg.rref(a, f) == _ref_rref(a, p)


# Primes on each side of the slot widths of the packed F_p kernels at
# dimension 56: (p - 1) + 56 (p - 1)^2 fits 2, 4 and 8 bytes for the first of
# each pair and not for the second; 2^61 - 1 takes the generic 16-byte path.
SLOT_PRIMES = (7, 31, 37, 8753, 8761, 573939143, 573939151, 2**61 - 1)


def test_slot_widths_and_pack_round_trip():
    assert [linalg._slot(56 * (p - 1) ** 2) for p in SLOT_PRIMES] == [2, 2, 4, 4, 8, 8, 9, 16]
    assert [linalg._slot(p - 1 + 56 * (p - 1) ** 2) for p in SLOT_PRIMES] == \
        [2, 2, 4, 4, 8, 8, 9, 16]
    for slot in (2, 4, 8, 9, 16):
        top = 256**slot - 1
        row = [top, 0, 1, top, top - 1, 0]
        packed = linalg._pack(row, slot)
        assert list(linalg._unpack(packed, len(row), slot)) == row
        assert list(linalg._unpack(0, 3, slot)) == [0, 0, 0]


def test_slot_j_holds_column_j():
    """The packed layout is fixed, whatever the host's byte order: column j
    of a row sits in slot j from the low end."""
    assert linalg._pack([1, 2], 2) == 1 + (2 << 16)
    assert linalg.SignedPacking(2, 0).pack([-1, 1]) == -1 + (1 << 16)


def _signed_slots(acc, n, slot):
    """The n signed values v_j of acc = sum_j v_j 2^(8 slot j), lowest slot
    first, each in [-2^(8 slot - 1), 2^(8 slot - 1))."""
    bits = 8 * slot
    out = []
    for _ in range(n):
        v = acc & ((1 << bits) - 1)
        v -= (v >> (bits - 1)) << bits
        out.append(v)
        acc = (acc - v) >> bits
    assert acc == 0
    return out


def test_signed_pack_round_trip_and_separation():
    """Mixed-sign rows at +-(2^(s - 1) - 1) round-trip through the signed pack
    (entry j in slot j from the low end on every host) and
    `SignedPacking.unpack_signed`, and changing one entry by 1 changes it.
    Over Q, F_7 and F_(2^61 - 1), `is_zero` reads one such entry in the
    lowest, middle or top slot as zero exactly when it is 0 in the field
    (some are multiples of 7), and nonzero multiples of p as zero; `holding`
    takes this slot for entries up to 2^(s - 1) - 1 and a wider one, which
    reads them back, for entries up to 2^(s - 1); suffix i
    of `suffixes` packs vectors[i:] with vectors[i] in the lowest slot,
    `stack` is suffix 0, and no vectors pack to the empty operand."""
    for slot in (2, 4, 8, 9, 16):
        top = 2 ** (8 * slot - 1) - 1
        row = [top, -top, 0, -1, 1, -top, top - 1]
        packed = linalg._pack_signed(row, slot)
        assert _signed_slots(packed, len(row), slot) == row
        assert linalg.SignedPacking(slot, 0).unpack_signed(packed, len(row)) == row
        for j, v in enumerate(row):
            near = row[:j] + [v - 1 if v > 0 else v + 1] + row[j + 1 :]
            assert linalg._pack_signed(near, slot) != packed
        assert linalg._pack_signed([], slot) == 0
        vectors = [row, [-v for v in row], [1] * 7, [0] * 7, row[::-1]]
        for f in (Q(), Fp(7), Fp(2**61 - 1)):
            p = f.p or 0
            packing = linalg.SignedPacking.holding(top, f)
            assert packing == linalg.SignedPacking(slot, p)
            wider = linalg.SignedPacking.holding(top + 1, f)
            edge = [top + 1, -top - 1, 0, top + 1]
            assert wider.slot > slot and wider.unpack_signed(wider.pack(edge), 4) == edge
            if p:
                edge = [(top + 1) // p * p, 0, -((top + 1) // p * p)]
                assert wider.is_zero(wider.pack(edge), 3)
            for j in (0, 3, 6):
                for v in (top, -top):
                    single = [0] * 7
                    single[j] = v
                    assert packing.is_zero(packing.pack(single), 7) is (p > 0 and v % p == 0)
            if p:
                multiples = [c * p for c in (1, 0, -1, 5, -(top // p), top // p)
                             if abs(c * p) <= top]
                assert packing.is_zero(packing.pack(multiples), len(multiples))
                assert not packing.is_zero(packing.pack(multiples + [1]), len(multiples) + 1)
            suffixes = list(packing.suffixes(vectors))[::-1]
            assert len(suffixes) == len(vectors)
            for i, suffix in enumerate(suffixes):
                k = len(vectors) - i
                for j, acc in enumerate(suffix):
                    want = [v[j] for v in vectors[i:]]
                    assert _signed_slots(acc, k, slot) == want
                    assert packing.unpack_signed(acc, k) == want
            assert packing.stack(vectors) == suffixes[0]
            assert packing.stack([]) == [] and list(packing.suffixes([])) == []


@st.composite
def _signed_rows(draw):
    """(slot, rows): a slot width of 2, 4, 8 or 11 bytes and 1 to 5 rows of
    one length from 1 to 30, with entries of both signs up to
    +-(2^(s - 1) - 1), drawn often at the extremes, next to 0 and at +-1."""
    slot = draw(st.sampled_from((2, 4, 8, 11)))
    top = 2 ** (8 * slot - 1) - 1
    entry = st.one_of(st.integers(-top, top), st.sampled_from((top, -top, 0, 1, -1, top - 1)))
    n = draw(st.integers(1, 30))
    return slot, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(_signed_rows())
def test_unstack_reads_each_slot_as_unpack_signed(case):
    """`SignedPacking.unstack(packed, t)` reads slot t of each packing as
    `unpack_signed` does, for every slot t, on packings of rows with entries
    of both signs at every width the certificates use; on the `stack` of the
    rows it gives back row t."""
    slot, rows = case
    n = len(rows[0])
    packing = linalg.SignedPacking(slot, 0)
    packed = [packing.pack(row) for row in rows]
    full = [packing.unpack_signed(acc, n) for acc in packed]
    assert full == rows
    for t in range(n):
        assert packing.unstack(packed, t) == [row[t] for row in full]
    stacked = packing.stack(rows)
    for t, row in enumerate(rows):
        assert packing.unstack(stacked, t) == row


def _zero_test_rows(rng, n, p, h):
    """Rows of n entries below h in absolute value for `is_zero`: random and
    extreme multiples of p (up to +-((h - 1) // p) p), entries +-(h - 1) mixed
    with them, and multiples with one entry off by +-1 in the lowest, middle
    or top slot."""
    top = (h - 1) // p
    yield [rng.randint(-top, top) * p for _ in range(n)]
    yield [rng.choice((-top, top)) * p for _ in range(n)]
    yield [top * p] * n
    yield [-top * p] * n
    yield [rng.choice((h - 1, -(h - 1), top * p, -top * p, 0)) for _ in range(n)]
    for j in (0, n // 2, n - 1):
        for d in (1, -1):
            row = [rng.choice((-top, 0, top)) * p for _ in range(n)]
            row[j] += d if abs(row[j] + d) < h else -d
            yield row


def test_is_zero_matches_a_per_slot_reference():
    """`SignedPacking.is_zero` over F_p says zero exactly when every entry is
    0 mod p, on every slot width and row length the certificates use (up to
    56^2 entries), for primes from 2 to 2^61 - 1."""
    rng = random.Random(31)
    for p in (2, 3, 7, 65537, 2**31 - 1, 2**61 - 1):
        for slot in (2, 3, 4, 8, 9, 16):
            h = 1 << (8 * slot - 1)
            packing = linalg.SignedPacking(slot, p)
            for n in (1, 2, 3, 27, 56, 3136):
                for row in _zero_test_rows(rng, n, p, h):
                    want = all(v % p == 0 for v in row)
                    assert packing.is_zero(packing.pack(row), n) is want, (p, slot, n)


def test_packed_kernels_at_the_largest_slot_values():
    """All-(p - 1) dense 56 x 56 products and vectors put the largest value,
    56 (p - 1)^2, in every slot, at primes on each side of a slot width."""
    for p in SLOT_PRIMES:
        f = Fp(p)
        full = tuple((p - 1,) * 56 for _ in range(56))
        assert linalg.mat_mul(full, full, f) == _ref_mat_mul(full, full, p)
        assert LinMap(full, f, BROWN, "b56").apply(full[0]) == _ref_mat_vec(full, full[0], p)
        rng = random.Random(p)
        a = _random_matrix(rng, 56, 56, p)
        assert linalg.mat_mul(a, full, f) == _ref_mat_mul(a, full, p)


def _largest_slot_rref_input(m, n, p):
    """An m x n matrix (n >= 2m) whose Gauss-Jordan elimination mod p has
    every row multiplier f = 1 and every scaled pivot row equal to p - 1 in
    the columns from m on: an elimination that accumulates row_i += (p - f)
    row_r unreduced adds the largest increment, (p - f)(p - 1) = (p - 1)^2,
    to those entries of row 0 at each of the m - 1 pivots after its own.
    Built backwards from the RREF [I | X]:
    step c is undone by scaling row c by d_c and adding it to every other
    row, and X[c] = m - 2 - c makes row c read -1 after step c."""
    rows = [[int(i == j) for j in range(m)] + [(m - 2 - i) % p] * (n - m) for i in range(m)]
    for c in reversed(range(m)):
        d = c % (p - 1) + 1
        pivot = rows[c]
        rows = [[(v + w) % p for v, w in zip(row, pivot)] if i != c else [v * d % p for v in row]
                for i, row in enumerate(rows)]
    return tuple(map(tuple, rows))


def test_rref_at_the_largest_slot_values():
    """The verdict of a 56 x 112 elimination whose unreduced updates would
    add 55 (p - 1)^2 to the entries of row 0, more than 2 bytes hold at
    p = 37: `rref` reduces every update mod p and matches Gauss-Jordan."""
    for p in (7, 37, 8761):
        a = _largest_slot_rref_input(56, 112, p)
        rows, pivots = linalg.rref(a, Fp(p))
        assert (rows, pivots) == _ref_rref(a, p)
        assert pivots == tuple(range(56))
        assert rows[0][56:] == ((56 - 2) % p,) * 56


def test_rref_on_wide_augmented_systems():
    """The 27 x 54 system of `solve_right` and the 56 x 112 one of `inverse`,
    random and with an all-(p - 1) left block, against Gauss-Jordan mod p;
    inverse and solve_right check out against mat_mul."""
    for p in SLOT_PRIMES:
        rng = random.Random(p + 2)
        f = Fp(p)
        a, b = _random_matrix(rng, 27, 27, p), _random_matrix(rng, 27, 27, p)
        assert linalg.rref(tuple(x + y for x, y in zip(a, b)), f) == \
            _ref_rref(tuple(x + y for x, y in zip(a, b)), p)
        x = linalg.solve_right(a, b, f)
        assert x is not None and linalg.mat_mul(a, x, f) == b
        eye = linalg.identity(56, f)
        a, full = _random_matrix(rng, 56, 56, p), tuple((p - 1,) * 56 for _ in range(56))
        for m in (a, full):
            aug = tuple(r + e for r, e in zip(m, eye))
            assert linalg.rref(aug, f) == _ref_rref(aug, p)
        assert linalg.inverse(full, f) is None
        ai = linalg.inverse(a, f)
        assert ai is not None and linalg.mat_mul(a, ai, f) == eye


def test_linmap_apply_reuses_its_packed_columns():
    """LinMap.apply against the reference a v, twice on the same map, on
    dense and one-hot vectors."""
    for p in (7, 37, 2**61 - 1):
        rng = random.Random(p + 3)
        f = Fp(p)
        a = _random_matrix(rng, 56, 56, p)
        phi = LinMap(a, f, BROWN, "b56")
        dense = tuple(rng.randrange(p) for _ in range(56))
        one_hot = [tuple(int(i == j) for j in range(56)) for i in (0, 17, 55)]
        for v in (dense, *one_hot, (0,) * 56, (p - 1,) * 56):
            assert phi.apply(v) == _ref_mat_vec(a, v, p)
            assert phi.apply(v) == _ref_mat_vec(a, v, p)
        assert phi.apply(one_hot[1]) == tuple(row[17] for row in a)


def test_packed_kernels_on_empty_and_one_row_matrices():
    for p in (7, 2**61 - 1):
        f = Fp(p)
        rng = random.Random(p + 4)
        assert linalg.mat_mul((), (), f) == ()
        assert linalg.rref((), f) == ((), ())
        assert tuple(linalg.MatVec((), f).apply(())) == ()
        assert linalg.inverse((), f) == ()
        assert linalg.nullspace((), f) == []
        for n in (1, 5, 56):
            a = _random_matrix(rng, 1, n, p)
            b = _random_matrix(rng, n, 3, p)
            v = tuple(rng.randrange(p) for _ in range(n))
            assert linalg.mat_mul(a, b, f) == _ref_mat_mul(a, b, p)
            assert linalg.from_ints(linalg.MatVec(a, f).apply(v), 1, f) == \
                _ref_mat_vec(a, v, p)
            assert linalg.rref(a, f) == _ref_rref(a, p)
            zero = ((0,) * n,)
            assert linalg.rref(zero, f) == (zero, ())


def test_bilinear_apply_matches_reference():
    for p in PRIMES:
        rng = random.Random(1)
        n = 9
        entries = [
            (rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(1, p))
            for _ in range(60)
        ]
        table = MulTable(n, entries)
        for _ in range(10):
            x = tuple(rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(n))
            y = tuple(rng.randrange(p) for _ in range(n))
            assert table.apply(x, y, Fp(p)) == _ref_bilinear_apply(entries, x, y, n, p)


def test_split_albert_constructs_over_a_61_bit_prime():
    J = split_albert(Fp(2**61 - 1))
    assert J.field.p == 2**61 - 1


def test_multable_generic_matches_mod():
    """Same table evaluated over Q with integer inputs reduces to the F_p result."""
    rng = random.Random(2)
    n, p = 6, 7
    entries = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(1, p))
        for _ in range(25)
    ]
    tq = MulTable(n, [(i, j, k, Fraction(c)) for i, j, k, c in entries])
    tp = MulTable(n, entries)
    for _ in range(8):
        x = tuple(rng.randrange(p) for _ in range(n))
        y = tuple(rng.randrange(p) for _ in range(n))
        over_q = tq.apply(tuple(map(Fraction, x)), tuple(map(Fraction, y)), Q())
        assert tuple(int(v) % p for v in over_q) == tp.apply(x, y, Fp(p))


def test_left_matrix_consistent_with_apply():
    rng = random.Random(4)
    n, p = 8, 11
    entries = [
        (rng.randrange(n), rng.randrange(n), rng.randrange(n), rng.randrange(1, p))
        for _ in range(40)
    ]
    table = MulTable(n, entries)
    f = Fp(p)
    x = tuple(rng.randrange(p) for _ in range(n))
    m = tuple(linalg.from_ints(row, 1, f) for row in table.left_ints(x))
    for _ in range(5):
        y = tuple(rng.randrange(p) for _ in range(n))
        assert LinMap(m, f, BROWN, "b8").apply(y) == table.apply(x, y, f)


def _contains(rows, pivots, v, field):
    """Membership of field values v in a row space given in RREF, through
    the `IntSpan` of the rows' `to_ints` forms and the `to_ints` form of v."""
    forms = [linalg.to_ints(row, field) for row in rows]
    return linalg.IntSpan(forms, pivots, len(v), field).contains(linalg.to_ints(v, field)[1])


def _ref_in_span(rows, pivots, v, p):
    """Dense reduction of v by every RREF row, no entry skipped."""
    w = list(v)
    for row, pc in zip(rows, pivots):
        f = w[pc]
        w = [(w[j] - f * row[j]) % p for j in range(len(w))]
    return not any(w)


def test_in_span_matches_dense_reference():
    """Members (random combinations) and near-misses (one coordinate bumped)
    of dense and permutation-like sparse row spaces, over F_p and over Q."""
    for p in PRIMES:
        rng = random.Random(p + 1)
        f = Fp(p)
        for shape in ("dense", "sparse"):
            for _ in range(4):
                a = _random_matrix(rng, 5, 9, p) if shape == "dense" else _sparse_matrix(rng, 9, p)
                rows, pivots = linalg.row_space_rref(a, f)
                coeffs = [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in a]
                member = tuple(sum(c * r[j] for c, r in zip(coeffs, a)) % p for j in range(9))
                bump = rng.randrange(9)
                miss = tuple((v + (j == bump)) % p for j, v in enumerate(member))
                for v in (member, miss):
                    assert _contains(rows, pivots, v, f) == _ref_in_span(rows, pivots, v, p)
                assert _contains(rows, pivots, member, f)
    q = Q()
    rng = random.Random(5)
    a = tuple(tuple(Fraction(rng.randrange(-3, 4), rng.randrange(1, 4)) if rng.random() < 0.4
                    else Fraction(0) for _ in range(8)) for _ in range(4))
    rows, pivots = linalg.row_space_rref(a, q)
    member = tuple(Fraction(2, 3) * x - y for x, y in zip(a[0], a[2]))
    assert _contains(rows, pivots, member, q)
    for j in range(8):
        bumped = tuple(v + (j == k) for k, v in enumerate(member))
        reduced = list(bumped)
        for row, pc in zip(rows, pivots):
            c = reduced[pc]
            reduced = [x - c * r for x, r in zip(reduced, row)]
        assert _contains(rows, pivots, bumped, q) == (not any(reduced))


def test_int_span_of_no_vectors_is_zero_subspace():
    for f in (Q(), Fp(7)):
        span, ints = linalg.int_span([], 3, f)
        assert ints == []
        assert span.contains((0, 0, 0))
        assert not span.contains((0, 1, 0))
        assert not span.contains((0, 0, -5))


def test_span_closed_checks_ordered_pairs():
    """A product with x.y in the span but y.x outside is not closed: the
    table is not commutative, so both orders are checked.  Nor is the span
    of x_0 = (0, 4, 5) and x_1 = (5, 2, 2) over F_7 under the one-sided
    product with unit e0, e1.e2 = e1, e2.e2 = e2 and e2.e1 = 0: only
    x_1.x_0 leaves it."""
    f = Fp(7)
    span, ints = linalg.int_span([(1, 0, 0), (0, 1, 0)], 3, f)
    # e0.e1 = e0, e1.e0 = e2, everything else 0
    product = MulTable(3, [(0, 1, 0, 1), (1, 0, 2, 1)])

    assert not product.commutative
    assert not span.closed(product, ints)
    assert span.closed(MulTable(3, []), ints)

    one_sided = MulTable(3, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (0, 2, 2, 1),
                             (2, 0, 2, 1), (1, 2, 1, 1), (2, 2, 2, 1)])
    vecs = [(0, 4, 5), (5, 2, 2)]
    span, ints = linalg.int_span(vecs, 3, f)
    rows, pivots = linalg.row_space_rref(vecs, f)
    outside = {(a, b) for a, x in enumerate(vecs) for b, y in enumerate(vecs)
               if not _ref_product_in_span(one_sided, rows, pivots, x, y, f)}
    assert outside == {(1, 0)}
    assert not one_sided.commutative
    assert not span.closed(one_sided, ints)


def test_in_span_and_same_span():
    f = Fp(7)
    vecs = [(1, 2, 3, 0), (0, 1, 1, 1)]
    span, _ = linalg.int_span(vecs, 4, f)
    combo = tuple((3 * a + 2 * b) % 7 for a, b in zip(*vecs))
    assert span.contains(combo)
    assert not span.contains((1, 0, 0, 0))
    assert linalg.same_span(vecs, [combo, vecs[0]], f)


@pytest.mark.parametrize("field", [Q(), Fp(7)], ids=str)
def test_empty_span(field):
    """The span of no vectors unpacks as ((), ()) and holds only zero."""
    rows, pivots = linalg.row_space_rref([], field)
    assert (rows, pivots) == ((), ())
    assert _contains(rows, pivots, (0, 0, 0), field)
    assert not _contains(rows, pivots, (0, 1, 0), field)
    assert linalg.same_span([], [], field)
    assert not linalg.same_span([], [(1, 0, 0)], field)


def _ref_field_rref(a, field):
    """Gauss-Jordan elimination one field operation at a time
    (`FieldSpec.inv`, `mul` and `sub`), skipping zero entries: in Fractions
    over Q and in residues over F_p, with no integer form and no linalg
    code."""
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        rr = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [field.sub(vi, field.mul(f, vr)) if vr else vi
                           for vi, vr in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def _ref_q_mat_mul(a, b, field):
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * n
        for aik, bk in zip(row, b):
            if aik:
                acc = [s + aik * x if x else s for s, x in zip(acc, bk)]
        out.append(tuple(acc))
    return tuple(out)


def _q_cases(rng):
    """(a, b) pairs, a m x n and b n x k, of every shape the Q kernels meet."""
    def dense(m, n, bound=10**6):
        return tuple(tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                           for _ in range(n)) for _ in range(m))

    def near_permutation(n):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i, j in enumerate(perm):
            rows[i][j] = Fraction(rng.choice((1, -1)))
        for _ in range(3):
            rows[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.choice((1, -1)))
        return tuple(tuple(r) for r in rows)

    def deficient(m, n, rank):
        basis = dense(rank, n, 50)
        rows = [tuple(sum((Fraction(rng.randint(-3, 3)) * v[j] for v in basis), Fraction(0))
                      for j in range(n)) for _ in range(m)]
        rows[rng.randrange(m)] = (Fraction(0),) * n
        return tuple(rows)

    def mixed(m, n):
        return tuple(tuple(rng.randint(-9, 9) if rng.random() < 0.5
                           else Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(n)) for _ in range(m))

    for _ in range(3):
        yield dense(6, 6), dense(6, 4)
        yield dense(5, 8), dense(8, 3)
        p = near_permutation(56)
        yield p, near_permutation(56)
        yield p[:-1] + (p[0],), p
        yield deficient(6, 6, 3), dense(6, 2, 100)
        yield deficient(7, 5, 2), deficient(5, 5, 4)
        yield mixed(6, 6), mixed(6, 5)
    zero = tuple((Fraction(0),) * 5 for _ in range(5))
    yield zero, zero
    yield tuple((0,) * 4 for _ in range(4)), mixed(4, 4)


def _all_fractions(matrix):
    return all(type(v) is Fraction for row in matrix for v in row)


def _ref_field_nullspace(a, field):
    """Basis of {v : a v = 0} read off `_ref_field_rref`: for each free
    column fc, 1 at fc and minus column fc of the pivot rows at their
    pivots."""
    rows, pivots = _ref_field_rref(a, field)
    n = len(a[0])
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [field.zero()] * n
        v[fc] = field.one()
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[fc])
        out.append(tuple(v))
    return out


def _ref_field_solve_right(a, b, field):
    """X with a X = b from `_ref_field_rref` of [a | b], None when a is
    singular."""
    n = len(a)
    rows, pivots = _ref_field_rref([tuple(a[i]) + tuple(b[i]) for i in range(n)], field)
    if pivots[:n] != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rows)


def test_q_kernels_match_fraction_reference():
    """rref, mat_mul, nullspace, inverse and solve_right over Q on integer
    rows equal Gauss-Jordan elimination and products in Fractions entry for
    entry, and return only Fractions; the expected values are computed from
    the Fraction references alone."""
    q = Q()
    rng = random.Random(12)
    for a, b in _q_cases(rng):
        got = {"rref": linalg.rref(a, q), "mat_mul": linalg.mat_mul(a, b, q),
               "nullspace": linalg.nullspace(a, q)}
        expected = {"rref": _ref_field_rref(a, q), "mat_mul": _ref_q_mat_mul(a, b, q),
                    "nullspace": _ref_field_nullspace(a, q)}
        if len(a) == len(a[0]):
            n = len(a)
            unit = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
            got["inverse"] = linalg.inverse(a, q)
            got["solve_right"] = linalg.solve_right(a, b, q)
            expected["inverse"] = _ref_field_solve_right(a, unit, q)
            expected["solve_right"] = _ref_field_solve_right(a, b, q)
        assert got == expected
        assert _all_fractions(got["rref"][0]) and _all_fractions(got["mat_mul"])
        assert _all_fractions(got["nullspace"])
        for name in ("inverse", "solve_right"):
            assert got.get(name) is None or _all_fractions(got[name])
    assert linalg.rref((), q) == ((), ())
    assert linalg.mat_mul((), (), q) == ()
    assert linalg.inverse((), q) == ()
    assert linalg.nullspace((), q) == []


def test_q_linalg_does_no_fraction_arithmetic(monkeypatch):
    """The 27 x 54 trace-form system M^T G X = G of a U-operator, whose
    solution is phi-dagger, is multiplied, reduced and solved with no
    Fraction arithmetic: Fractions are only read and built."""
    q = Q()
    alg = Catalog(q).J
    rng = random.Random(8)
    x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(27))
    ut = linalg.transpose(alg.uop_matrix(x))
    expected = linalg.solve_right(linalg.mat_mul(ut, alg.gram, q), alg.gram, q)

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic in an integer kernel")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, op, forbidden)
    lhs = linalg.mat_mul(ut, alg.gram, q)
    rows, pivots = linalg.rref(tuple(a + g for a, g in zip(lhs, alg.gram)), q)
    assert pivots == tuple(range(27))
    assert linalg.solve_right(lhs, alg.gram, q) == expected
    assert tuple(r[27:] for r in rows) == expected


def test_non_arithmetic_field_rejects_rref_and_mat_mul():
    real = FieldSpec("R")
    a = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))
    with pytest.raises(NonArithmeticField):
        linalg.rref(a, real)
    with pytest.raises(NonArithmeticField):
        linalg.mat_mul(a, a, real)


# -- the scaled-integer form ----------------------------------------------------------


def test_to_ints_q_unlike_denominators():
    f = Q()
    d, ints = linalg.to_ints((Fraction(1, 2), _ZERO, Fraction(-2, 3), Fraction(5, 4)), f)
    assert d == 12
    assert ints == [6, 0, -8, 15]
    assert linalg.from_ints(ints, d, f) == (Fraction(1, 2), 0, Fraction(-2, 3), Fraction(5, 4))


def test_to_ints_q_reads_an_unshared_zero_as_zero():
    f = Q()
    zero = Fraction(0)
    assert zero is not _ZERO
    d, ints = linalg.to_ints((zero, Fraction(3, 7)), f)
    assert (d, ints) == (7, [0, 3])
    assert linalg.from_ints(ints, d, f)[0] is _ZERO


def test_to_ints_q_all_zero_vector_has_denominator_one():
    f = Q()
    d, ints = linalg.to_ints((_ZERO, Fraction(0), _ZERO), f)
    assert (d, ints) == (1, [0, 0, 0])
    assert all(v is _ZERO for v in linalg.from_ints(ints, d, f))
    assert linalg.to_ints((), f) == (1, [])


def test_from_ints_q_negative_denominator():
    """rref divides its rows by their pivots, which can be negative."""
    f = Q()
    out = linalg.from_ints([4, 0, -6], -8, f)
    assert out == (Fraction(-1, 2), 0, Fraction(3, 4))
    assert out[1] is _ZERO
    assert all(v.denominator > 0 for v in out)


def test_to_ints_fp_passes_values_through():
    f = Fp(7)
    x = (3, 0, 6, 1)
    d, ints = linalg.to_ints(x, f)
    assert d == 1 and ints is x
    assert linalg.from_ints(ints, d, f) == x


def test_from_ints_fp_divides_by_a_unit():
    f = Fp(7)
    # 3 is a unit mod 7 with inverse 5; -3 has inverse 2
    assert linalg.from_ints([1, 0, 6, 10, -4], 3, f) == (5, 0, 2, 1, 1)
    assert linalg.from_ints([1, 0, 6], -3, f) == (2, 0, 5)


def test_from_ints_zeros_are_the_shared_zero():
    f = Q()
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 6)) for _ in range(9))
        d, ints = linalg.to_ints(x, f)
        assert [Fraction(v, d) for v in ints] == list(x)
        back = linalg.from_ints(ints, d, f)
        assert back == x
        assert all(b is _ZERO for b in back if not b)


# -- the integer membership kernel against Fraction references ---------------------------

def _ref_q_in_span(rows, pivots, v):
    """Reduction of v by every RREF row in Fractions, no entry skipped."""
    w = list(v)
    for row, pc in zip(rows, pivots):
        c = w[pc]
        w = [x - c * r for x, r in zip(w, row)]
    return not any(w)


def test_q_span_membership_matches_fraction_reference():
    """Over Q, RREF rows with negative, non-integral entries of unlike
    denominators: random members, integer multiples of their `to_ints`
    forms, and every one-coordinate near-miss agree with reduction in
    Fractions."""
    q = Q()
    rng = random.Random(16)
    seen = set()
    for _ in range(6):
        a = tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.5
                        else Fraction(0) for _ in range(9)) for _ in range(4))
        rows, pivots = linalg.row_space_rref(a, q)
        seen |= {(v < 0, v.denominator > 1) for row in rows for v in row if v}
        span = linalg.IntSpan([linalg.to_ints(row, q) for row in rows], pivots, 9, q)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in a]
        member = tuple(sum((c * r[j] for c, r in zip(coeffs, a)), Fraction(0)) for j in range(9))
        assert _ref_q_in_span(rows, pivots, member)
        assert _contains(rows, pivots, member, q)
        ints = linalg.to_ints(member, q)[1]
        assert span.contains(ints) and span.contains([-3 * v for v in ints])
        for j in range(9):
            for delta in (Fraction(1, 7), Fraction(-2)):
                miss = tuple(v + delta if k == j else v for k, v in enumerate(member))
                expected = _ref_q_in_span(rows, pivots, miss)
                assert _contains(rows, pivots, miss, q) == expected
                assert span.contains(linalg.to_ints(miss, q)[1]) == expected
    assert (True, True) in seen


def _ref_q_product(table):
    def product(x, y):
        out = [Fraction(0)] * table.n
        for i, j, k, c in table.entries:
            out[k] += c * x[i] * y[j]
        return tuple(out)
    return product


def test_span_closed_matches_fraction_reference():
    """`IntSpan.closed` on the Jordan table (packed `mul_ints`) agrees with
    products and reductions in Fractions, on a closed fixed subalgebra of J
    and on sets whose products leave their span."""
    q = Q()
    cat = Catalog(q)
    J = cat.J
    ref = _ref_q_product(J.table)
    rng = random.Random(17)
    fixed = cat.realize_involution("s", "J").fixed_space()
    cases = [fixed, fixed[:10] + [J.sample(rng).coords], [J.sample(rng).coords for _ in range(3)]]
    verdicts = []
    for vecs in cases:
        rows, pivots = linalg.row_space_rref(vecs, q)
        expected = all(_ref_q_in_span(rows, pivots, ref(x, y)) for x in vecs for y in vecs)
        span, ints = linalg.int_span(vecs, J.dim, q)
        assert span.closed(J.table, ints) == expected
        verdicts.append(expected)
    assert verdicts == [True, False, False]


def test_apply_matches_fraction_reference_over_q():
    """`MulTable.apply` over Q (`to_ints`, `mul_ints`, `from_ints`) equals the
    sum over the entries in Fractions, on non-integral coefficients and
    inputs with zeros, an unshared Fraction(0) among them; its zeros are the
    shared zero()."""
    q = Q()
    rng = random.Random(18)
    n = 7
    table = MulTable(n, [(rng.randrange(n), rng.randrange(n), rng.randrange(n),
                          Fraction(rng.randint(-6, 6), rng.randint(1, 5))) for _ in range(30)])
    ref = _ref_q_product(table)
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6
                  else Fraction(0) for _ in range(n))
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.6
                  else _ZERO for _ in range(n))
        got = table.apply(x, y, q)
        assert got == ref(x, y)
        assert all(v is _ZERO for v in got if not v)


def _ref_q_mat_vec(a, v):
    return tuple(sum((r * Fraction(x) for r, x in zip(row, v)), Fraction(0)) for row in a)


def test_linmap_apply_over_q_matches_fraction_reference():
    """Over Q `LinMap.apply` (the map's cached integer form times the
    `to_ints` form of v, one `from_ints`) equals a v summed in Fractions, on
    the dense 56-dimensional lift of a U_x with non-integral entries, on the
    sparse near-permutation map t.varpi, on coordinates given as ints and on
    the zero vector; its zeros are the shared zero()."""
    q = Q()
    cat = Catalog(q)
    rng = random.Random(19)
    J = cat.J
    ux = J.linmap(J.uop_matrix(J.sample_norm_one(rng).coords))
    dense, sparse = cat.B.lift_inv(ux), cat.realize("t.varpi", "B")
    assert any(v.denominator > 1 for row in dense.matrix for v in row)
    vectors = [
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.5 else _ZERO
              for _ in range(56)),
        tuple(rng.randint(-3, 3) for _ in range(56)),
        tuple(int(i == 30) for i in range(56)),
        (_ZERO,) * 56,
        (0,) * 56,
    ]
    for phi in (dense, sparse):
        for v in vectors:
            got = phi.apply(v)
            assert got == _ref_q_mat_vec(phi.matrix, v)
            assert all(y is _ZERO for y in got if not y)
        assert phi.apply((0,) * 56) == (_ZERO,) * 56


def test_fixed_subalgebra_closure_runs_on_integers(monkeypatch):
    """Over Q the closure and involution checks of `fixed_subalgebra` run on
    integer vectors: `MulTable.apply` is not called, and every residual
    (closure's packed ones and the involution check's) is taken of a vector
    of ints."""
    cat = Catalog(Q())
    cases = [(cat.realize_involution("t.varpi", "B"), cat.B, 28, True),
             (cat.realize_involution("s", "J"), cat.J, 11, None)]

    def forbidden(*args):
        raise AssertionError("field-value product in the closure loop")

    residual = linalg.IntSpan._residual
    tested = []

    def int_residual(span, w):
        tested.append(all(type(v) is int for v in w))
        return residual(span, w)

    monkeypatch.setattr(MulTable, "apply", forbidden)
    monkeypatch.setattr(linalg.IntSpan, "_residual", int_residual)
    for phi, ctx, dim, inv_closed in cases:
        del tested[:]
        rep = fixed_subalgebra(phi, ctx)
        assert (rep.dimension, rep.product_closed, rep.involution_closed) == (dim, True, inv_closed)
        assert tested and all(tested)


# -- packed closure against the Fraction and mod-p references -------------------------------

PACKED_FIELDS = {"Q": Q(), "Fp:7": Fp(7), "Fp:2^61-1": Fp(2**61 - 1)}


def _defect_span(field):
    """Two vectors of F^5 with coordinate 1 zero: e_1 is outside their span."""
    v = field.parse_scalar
    return [tuple(map(v, ("1", "0", "-2/3", "5", "0"))), tuple(map(v, ("0", "0", "1", "-1/2", "7")))]


def _defect_table(field, symmetric=False):
    """x.y = f(x) g(y) u + x_1 y_0 e_1 on F^5, with u = u_0 + 3 u_1 in the span
    of `_defect_span`: x.y lies in the span iff x_1 y_0 = 0.  The symmetric
    table adds y.x: x.y = (f(x) g(y) + g(x) f(y)) u + (x_1 y_0 + x_0 y_1) e_1,
    which is commutative and lies in the span iff x_1 y_0 + x_0 y_1 = 0."""
    u0, u1 = (tuple(Fraction(c) for c in vec) for vec in
              (("1", "0", "-2/3", "5", "0"), ("0", "0", "1", "-1/2", "7")))
    u = [a + 3 * b for a, b in zip(u0, u1)]
    fx = (1, -1, 2, Fraction(-5, 3), 1)
    gy = (0, Fraction(1, 2), 1, -3, 2)
    entries = []
    for i, j, k in itertools.product(range(5), repeat=3):
        c = fx[i] * gy[j] * u[k] + ((i, j, k) == (1, 0, 1))
        if symmetric:
            c += fx[j] * gy[i] * u[k] + ((i, j, k) == (0, 1, 1))
        if c:
            entries.append((i, j, k, field.parse_scalar(str(c))))
    return MulTable(5, entries)


def _extreme(field, count, keep):
    """`count` vectors of F^5 with the largest entries: over Q 30-digit
    Fractions, all negative in the even-numbered vectors; over F_p all p - 1.
    Coordinate c is zero in every vector not numbered in keep[c], for each
    c in `keep`."""
    vectors = []
    for b in range(count):
        vec = []
        for j in range(5):
            if j in keep and b not in keep[j]:
                vec.append(field.zero())
            elif field.p is None:
                sign = -1 if b % 2 == 0 else 1
                vec.append(Fraction(sign * (10**29 + 1000 * b + 17 * j + 1), 1 + (b + j) % 3))
            else:
                vec.append(field.p - 1)
        vectors.append(tuple(vec))
    return vectors


def _ref_product_in_span(table, rows, pivots, x, y, field):
    """Whether x.y lies in the row space, summed and reduced in Fractions over
    Q and mod p over F_p."""
    if field.p is None:
        return _ref_q_in_span(rows, pivots, _ref_q_product(table)(x, y))
    p = field.p
    return _ref_in_span(rows, pivots, _ref_bilinear_apply(table.entries, x, y, table.n, p), p)


@pytest.mark.parametrize("name", list(PACKED_FIELDS))
def test_packed_closure_matches_reference(name):
    """`IntSpan.closed` (one packed `mul_ints` per x) agrees with every pair
    checked in field values: on a closed set of extreme vectors, on one that
    fails only at the last pair (the last slot of the last x), and on one
    that fails in the middle slot only, between negative neighbours.  On
    one set of x and y, closed or not, the table, which is not commutative,
    fails at the last pair (3, 3) or at (3, 0) alone, and the symmetric
    table, which checks only the pairs i <= j (suffix packings, the last x
    first), at (3, 3), the one slot of the last x, or at (0, 3), the last
    slot of the first x, and at its mirror."""
    f = PACKED_FIELDS[name]
    table = _defect_table(f)
    rows, pivots = linalg.row_space_rref(_defect_span(f), f)
    span = linalg.IntSpan([linalg.to_ints(row, f) for row in rows], pivots, 5, f)

    def ints(vectors):
        return [linalg.to_ints(v, f)[1] for v in vectors]

    def failures(table, xs, ys):
        return {(a, b) for a, x in enumerate(xs) for b, y in enumerate(ys)
                if not _ref_product_in_span(table, rows, pivots, x, y, f)}

    cases = [
        (_extreme(f, 3, {1: ()}), _extreme(f, 4, {}), set()),
        (_extreme(f, 3, {1: (2,)}), _extreme(f, 4, {0: (3,)}), {(2, 3)}),
        (_extreme(f, 3, {}), _extreme(f, 3, {0: (1,)}), {(0, 1), (1, 1), (2, 1)}),
    ]
    for xs, ys, bad in cases:
        assert failures(table, xs, ys) == bad
        assert span.closed(table, ints(xs), ints(ys)) is (not bad)
    symmetric = _defect_table(f, symmetric=True)
    assert not table.commutative and symmetric.commutative
    for keep, bad in (({1: ()}, set()), ({0: (3,), 1: (3,)}, {(3, 3)}),
                      ({0: (0,), 1: (3,)}, {(3, 0)})):
        xs = _extreme(f, 4, keep)
        assert failures(table, xs, xs) == bad
        assert span.closed(table, ints(xs)) is (not bad)
        assert failures(symmetric, xs, xs) == bad | {(b, a) for a, b in bad}
        assert span.closed(symmetric, ints(xs)) is (not bad)


def _elimination_cases(rng, p):
    """(name, matrix) over F_p: dense, permutation-like sparse with a
    repeated row, rank-deficient products of a 9 x 4 and a 4 x 9 factor,
    and non-square dense and rank-deficient matrices of both shapes."""
    def low_rank(m, n, k):
        u, v = _random_matrix(rng, m, k, p), _random_matrix(rng, k, n, p)
        return _ref_mat_mul(u, v, p)

    for _ in range(3):
        yield "dense", _random_matrix(rng, 9, 9, p)
        yield "sparse", _sparse_matrix(rng, 9, p)
        yield "rank-deficient", low_rank(9, 9, 4)
        yield "wide", _random_matrix(rng, 5, 11, p)
        yield "tall", _random_matrix(rng, 11, 5, p)
        yield "wide rank-deficient", low_rank(6, 10, 3)
        yield "tall rank-deficient", low_rank(10, 6, 3)


@pytest.mark.parametrize("p", [5, 7, 1000003])
def test_fp_elimination_matches_field_reference(p):
    """`rank`, `rref`, `nullspace` and `inverse` over F_p against
    `_ref_field_rref`, the Gauss-Jordan reference of the Q tests run in
    residues, on dense, sparse, rank-deficient and non-square matrices;
    `inverse` on the square ones.
    The same matrices with entries moved off [0, p) by multiples of p have
    the same `rref`: the elimination reads every entry mod p."""
    f = Fp(p)
    rng = random.Random(p + 40)
    for name, a in _elimination_cases(rng, p):
        got_rows, got_pivots = linalg.rref(a, f)
        assert (got_rows, got_pivots) == _ref_field_rref(a, f), name
        assert linalg.rank(a, f) == len(got_pivots), name
        if "rank-deficient" in name:
            assert len(got_pivots) < min(len(a), len(a[0])), name
        off = tuple(tuple(v + p * ((i + j) % 3 - 1) for j, v in enumerate(row))
                    for i, row in enumerate(a))
        assert linalg.rref(off, f) == (got_rows, got_pivots), name
        assert linalg.nullspace(a, f) == _ref_field_nullspace(a, f), name
        if len(a) == len(a[0]):
            eye = linalg.identity(len(a), f)
            assert linalg.inverse(a, f) == _ref_field_solve_right(a, eye, f), name


SHAPE_FIELDS = {"Q": Q(), "Fp:7": Fp(7)}


def _field_matrix(rows, f):
    return tuple(tuple(f.coerce(v) for v in row) for row in rows)


@pytest.mark.parametrize("name", list(SHAPE_FIELDS))
def test_mat_mul_rejects_factors_that_do_not_fit(name):
    """A 2 x 3 matrix times a 2 x 2 one, and a ragged factor on either side,
    raise CarrierMismatch instead of dropping a column."""
    f = SHAPE_FIELDS[name]
    a = _field_matrix(((1, 2, 3), (4, 5, 6)), f)
    eye = linalg.identity(2, f)
    ragged = _field_matrix(((1, 2), (3,)), f)
    for x, y in ((a, eye), (ragged, eye), (eye, ragged)):
        with pytest.raises(CarrierMismatch):
            linalg.mat_mul(x, y, f)
    assert linalg.mat_mul(eye, a, f) == a


@pytest.mark.parametrize("name", list(SHAPE_FIELDS))
def test_inverse_and_solve_right_reject_a_matrix_that_is_not_square(name):
    """`inverse` and `solve_right` of a 2 x 3 or 3 x 2 matrix, and
    `solve_right` with a right side of another height, raise
    CarrierMismatch."""
    f = SHAPE_FIELDS[name]
    wide = _field_matrix(((1, 0, 0), (0, 1, 0)), f)
    tall = _field_matrix(((1, 2), (3, 4), (5, 6)), f)
    for a in (wide, tall):
        with pytest.raises(CarrierMismatch):
            linalg.inverse(a, f)
        with pytest.raises(CarrierMismatch):
            linalg.solve_right(a, linalg.identity(len(a), f), f)
    square = _field_matrix(((1, 2), (3, 4)), f)
    with pytest.raises(CarrierMismatch):
        linalg.solve_right(square, linalg.identity(3, f), f)
    assert linalg.mat_mul(square, linalg.inverse(square, f), f) == linalg.identity(2, f)


@pytest.mark.parametrize("name", list(SHAPE_FIELDS))
def test_elimination_rejects_ragged_rows(name):
    """Ragged rows raise CarrierMismatch from `rref`, `rank` and
    `nullspace`, with no bare IndexError and no zero padding."""
    f = SHAPE_FIELDS[name]
    for a in (((1, 2), (3,)), ((1,), (2, 3))):
        a = _field_matrix(a, f)
        for fn in (linalg.rref, linalg.rank, linalg.nullspace):
            with pytest.raises(CarrierMismatch):
                fn(a, f)
