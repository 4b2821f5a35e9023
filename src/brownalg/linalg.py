"""Exact linear algebra over Q and F_p.

Matrices are tuples of row tuples of raw field values: `Fraction` over Q,
`int` in [0, p) over F_p.  Each operation has one implementation for both
fields.  `mat_mul`, `mat_vec` and the row operations of `rref` skip zero
entries, so the sparse near-permutation maps of the involution catalog cost
proportionally less.  Over F_p the products reduce each output entry mod p
once, at the end, and `rref` reduces inline after each row operation.
"""

from __future__ import annotations

from .fields import PRIME, FieldSpec


def identity(n: int, field: FieldSpec):
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a))


def mat_mul(a, b, field: FieldSpec):
    """Row i of a b is the combination of the rows b[k] weighted by the
    nonzero a[i][k]."""
    zero = field.zero()
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [zero] * n
        for aik, bk in zip(row, b):
            if aik:
                acc = [s + aik * x if x else s for s, x in zip(acc, bk)]
        out.append(acc)
    if field.kind == PRIME:
        p = field.p
        return tuple(tuple(s % p for s in acc) for acc in out)
    return tuple(tuple(acc) for acc in out)


def mat_vec(a, v, field: FieldSpec):
    """a v, reading only the columns where v is nonzero."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    zero = field.zero()
    out = []
    for row in a:
        acc = zero
        for k, x in nz:
            r = row[k]
            if r:
                acc += r * x
        out.append(acc)
    if field.kind == PRIME:
        p = field.p
        return tuple(s % p for s in out)
    return tuple(out)


def rref(a, field: FieldSpec):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    p = field.p if field.kind == PRIME else None
    rows = [list(r) for r in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if p is None:
            rows[r] = [v * inv for v in rows[r]]
        else:
            rows[r] = [v * inv % p for v in rows[r]]
        rr = rows[r]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                if p is None:
                    rows[i] = [vi - f * vr if vr else vi for vi, vr in zip(rows[i], rr)]
                else:
                    rows[i] = [(vi - f * vr) % p if vr else vi for vi, vr in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(a, field: FieldSpec) -> int:
    return len(rref(a, field)[1])


def nullspace(a, field: FieldSpec):
    """Basis of {v : a v = 0}, one vector per free column."""
    rows, pivots = rref(a, field)
    n = len(a[0]) if a else 0
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    one, zero = field.one(), field.zero()
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(rows[r][fc])
        basis.append(tuple(v))
    return basis


def inverse(a, field: FieldSpec):
    """Exact inverse; returns None when singular."""
    n = len(a)
    aug = tuple(tuple(a[i]) + identity(n, field)[i] for i in range(n))
    rows, pivots = rref(aug, field)
    if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) != n:
        return None
    return tuple(r[n:] for r in rows[:n])


def solve_right(a, b, field: FieldSpec):
    """Solve a X = b for square invertible a (b a matrix); None if singular."""
    n = len(a)
    k = len(b[0])
    aug = tuple(tuple(a[i]) + tuple(b[i]) for i in range(n))
    rows, pivots = rref(aug, field)
    if tuple(pivots[:n]) != tuple(range(n)):
        return None
    return tuple(r[n : n + k] for r in rows[:n])


def row_space_rref(vectors, field: FieldSpec):
    """RREF basis of the span of the given vectors (zero rows dropped)."""
    if not vectors:
        return ()
    rows, pivots = rref(tuple(vectors), field)
    return rows[: len(pivots)], pivots


def in_span(rref_rows, pivots, v, field: FieldSpec) -> bool:
    """Membership of v in a row space presented in RREF."""
    w = list(v)
    if field.kind == PRIME:
        p = field.p
        for row, pc in zip(rref_rows, pivots):
            f = w[pc]
            if f:
                w = [(wi - f * ri) % p for wi, ri in zip(w, row)]
    else:
        for row, pc in zip(rref_rows, pivots):
            f = w[pc]
            if f:
                w = [wi - f * ri for wi, ri in zip(w, row)]
    return not any(w)


def same_span(vecs_a, vecs_b, field: FieldSpec) -> bool:
    ra, pa = row_space_rref(vecs_a, field) if vecs_a else ((), ())
    rb, pb = row_space_rref(vecs_b, field) if vecs_b else ((), ())
    return ra == rb
