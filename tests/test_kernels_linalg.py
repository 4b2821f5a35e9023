import random
from fractions import Fraction

from brownalg import linalg
from brownalg.albert import split_albert
from brownalg.fields import Fp, Q
from brownalg.kernels import BACKEND, MulTable


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
            assert not any(linalg.mat_vec(a, v, f))


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
    """mat_mul, mat_vec and rref against the triple-loop reference, on dense
    and permutation-like sparse matrices, for small, 33-bit and 61-bit p."""
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
                assert linalg.mat_vec(a, v, f) == _ref_mat_vec(a, v, p)
        a = _random_matrix(rng, 5, 8, p)
        assert linalg.rref(a, f) == _ref_rref(a, p)


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
    m = table.left_matrix(x, f)
    for _ in range(5):
        y = tuple(rng.randrange(p) for _ in range(n))
        assert linalg.mat_vec(m, y, f) == table.apply(x, y, f)


def test_in_span_and_same_span():
    f = Fp(7)
    vecs = [(1, 2, 3, 0), (0, 1, 1, 1)]
    rows, pivots = linalg.row_space_rref(vecs, f)
    combo = tuple((3 * a + 2 * b) % 7 for a, b in zip(*vecs))
    assert linalg.in_span(rows, pivots, combo, f)
    assert not linalg.in_span(rows, pivots, (1, 0, 0, 0), f)
    assert linalg.same_span(vecs, [combo, vecs[0]], f)
