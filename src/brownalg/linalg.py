"""Exact linear algebra over Q and F_p.

Matrices are tuples of row tuples of raw field values: `Fraction` over Q,
`int` in [0, p) over F_p.  Their shapes are checked once, where the rows
enter (`_int_rows`, `mat_mul`, and squareness in `solve_right` and
`inverse`): ragged rows or factors that do not fit raise CarrierMismatch.
`mat_mul` and the row operations of elimination skip zero entries, so the
sparse near-permutation maps of the involution catalog cost proportionally
less.  `MatVec.apply`, the one code that picks the kernel for the field,
multiplies an integer matrix by vectors; `AlbertAlgebra.uop_map` builds its
integer rows from `MulTable.mul_ints` on a stacked identity instead.

Over F_p `MatVec` holds each column as one Python int with one fixed-width
slot per entry, entry j in slot j from the low end on every host (Kronecker
substitution; Harvey, J. Symb. Comp. 44, 2009): M v is one big-integer
multiply-add per nonzero v_k in C instead of a Python loop over the
entries.  It takes entries in [0, p) and does not reduce its input.
Entries stay nonnegative and are only added up, so a slot never borrows
from its neighbour; it only needs room for the largest sum, n (p-1)^2 for
inner dimension n (`_slot`), and the caller reduces mod p at the end.
Elimination over F_p needs no packing: it is plain Gauss-Jordan on integer
lists kept in [0, p), with each pivot row scaled to 1 and every other row
updated as row_i - f row_r mod p on the pivot row's nonzero entries only.
Kronecker packing stays where it pays, in `MatVec` (and so `int_mat_mul`
over F_p) and in the `SignedPacking` certificates.

`SignedPacking` packs rows of any sign on both fields: row v is the one int
sum_j v_j 2^(s j) whatever the signs, and a sum of multiples of packed rows
is the packing of the same sum of the rows, exactly, since that is an
identity of integers.  It is also the one judge of a packed identity: its
docstring states the rule, and `SignedPacking.is_zero` applies it.  Over Q
the packed int must be 0; over F_p "every entry is 0 mod p" is decided by
one division by p, two additions and two masks on the whole int, and no
slot is read back.  The certificates that use it, each with its own
identity and bound, are `IntSpan.closed` and the basis-pair product law
that `linmaps.is_automorphism` and `linmaps.is_inv_member` share.  A
product that is linear in one operand, such as `MulTable.mul_ints`, maps
the stack of many vectors (`SignedPacking.stack` and `suffixes`) to the
stack of their images, so one call covers them all;
`SignedPacking.unstack` reads one of the images back, and `unpack_signed`
every entry of one packing.

`to_ints` and `from_ints` are the one scaled-integer form of the package: a
vector of field values is (d, ints) with values == ints / d, d the lcm of
the denominators over Q and 1 over F_p, and integer results are converted
back once per entry, one `Fraction` per nonzero entry over Q (zeros are the
field's shared `zero()`) and one reduction mod p over F_p.  The integer
kernels of `kernels`, `albert` and `linmaps` read and write this form.
`to_ints` trusts its values to be the field's, as the package makes them;
`checked_ints`, the conversion of `LinMap(matrix)` and `LinMap.apply`,
checks values that come from a caller, reducing ints mod p over F_p, so
the form is canonical.

`lowest_terms` puts an integer form in lowest terms without making field
values, as `to_ints` of `from_ints` would: `LinMap.compose`, the dagger of
`linmaps` and `int_span` make their results' integer forms this way.

Span membership is one kernel for both fields, `IntSpan`, on integer
vectors in this form.  An `IntSpan` is made from the integer forms of rows
that are 1 at one column each and 0 at the others' columns: the RREF of any
vectors, which `int_span(vectors, n, field)` computes in ints, or a
`kernel` basis with its free columns, which needs no second elimination.
Membership is `IntSpan.contains`, and closure under the product of a
`MulTable` is `IntSpan.closed`, which stacks the second factors and makes
one `mul_ints` call per first factor; for the products of a set with
itself under a commutative table (`MulTable.commutative`, read off the
table) it checks the pairs i <= j only.

The one matrix product is `int_mat_mul`, on integer matrices: over Q a
loop over the nonzero entries, over F_p the `MatVec` of the second factor.
`mat_mul` of field values is `int_mat_mul` of the two `to_ints` forms with
one `from_ints` per row, on both fields.  Elimination (`_eliminate`) is one
loop per field on integer rows: `rref` is `to_ints` followed by it, `rank`
counts its pivots, and `kernel` runs it on an integer matrix directly, such
as a map's integer form shifted by an eigenvalue (`LinMap.eigenbasis`).
One integer solve, `int_solve`, serves `solve_right`, `inverse` and
`LinMap.inverse_map`: it eliminates [A | B] to [I | X] and returns X over
one denominator in lowest terms.  `solve_right` (and `inverse`, its call on
[a | I]) runs it on the `to_ints` rows of [a | b] and converts X once per
row; `inverse_map` runs it on [M | d I] for the map's integer form (d, M)
and makes no field value.  Over Q it eliminates
fraction-free on primitive integer rows (Bareiss, Math. Comp. 22, 1968;
Cohen, *A Course in Computational Algebraic Number Theory*, 2.2).  Row
scaling does not change the reduced row echelon form, which is unique, so
the result equals Gauss-Jordan elimination in `Fraction`s entry for entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from dataclasses import dataclass
from fractions import Fraction

from .errors import CarrierMismatch, MixedFields, NonArithmeticField
from .fields import _ZERO, PRIME, RATIONALS, FieldSpec


def _modulus(field: FieldSpec) -> int:
    """p of F_p; the kinds other than Q and F_p carry no arithmetic."""
    if field.kind != PRIME:
        raise NonArithmeticField(f"{field} carries no element arithmetic")
    return field.p


# little-endian struct format codes by item size for the packed slot widths
_CODES = {2: "H", 4: "I", 8: "Q"}


def _slot(bound: int) -> int:
    """Bytes per slot holding values up to `bound`: 2, 4 or 8 when that is
    enough, the exact byte count above 8."""
    size = (bound.bit_length() + 7) // 8
    return next((s for s in (2, 4, 8) if size <= s), size)


def _pack(row, slot: int) -> int:
    """The nonnegative ints of `row`, below 256**slot, as one int."""
    code = _CODES.get(slot)
    if code is None:
        data = b"".join([v.to_bytes(slot, "little") for v in row])
    else:
        data = struct.pack(f"<{len(row)}{code}", *row)
    return int.from_bytes(data, "little")


@functools.lru_cache(maxsize=64)
def _offsets(n: int, slot: int) -> int:
    """h = 2**(8 slot - 1) in each of n slots, packed."""
    return _pack([1 << (8 * slot - 1)] * n, slot)


def _pack_signed(row, slot: int) -> int:
    """The ints of `row`, of any sign and absolute value below 2**(8 slot - 1),
    as the one int sum_j row[j] 2**(8 slot j): each entry is packed offset
    by h = 2**(8 slot - 1) and h is taken out of every slot at once
    (`_offsets`), which borrows across slots exactly as the sum does."""
    h = 1 << (8 * slot - 1)
    return _pack([v + h for v in row], slot) - _offsets(len(row), slot)


def _unpack(acc: int, n: int, slot: int):
    """The n slot values of a packed row, in column order."""
    data = acc.to_bytes(n * slot, "little")
    code = _CODES.get(slot)
    if code is None:
        return [int.from_bytes(data[i : i + slot], "little")
                for i in range(0, n * slot, slot)]
    return struct.unpack(f"<{n}{code}", data)


def to_ints(values, field: FieldSpec):
    """(d, ints) with values == ints / d.  Over Q d is the lcm of the
    denominators and only the nonzero entries are read as fractions; over
    F_p the values are ints already, d is 1 and `values` is returned."""
    if field.kind == PRIME:
        return 1, values
    nonzero = [(j, v.as_integer_ratio()) for j, v in enumerate(values) if v is not _ZERO and v]
    d = math.lcm(*[q for _, (_, q) in nonzero])
    ints = [0] * len(values)
    for j, (num, q) in nonzero:
        ints[j] = num * (d // q)
    return d, ints


def checked_ints(values, field: FieldSpec):
    """`to_ints` of values that come from a caller, checked as
    `FieldSpec.coerce` checks one value: over F_p ints, each reduced mod p,
    and over Q ints and `Fraction`s; any other value raises MixedFields.
    The type test runs once per distinct type, not per entry."""
    allowed = int if field.kind == PRIME else (int, Fraction)
    if not all(issubclass(t, allowed) for t in set(map(type, values))):
        bad = next(v for v in values if not isinstance(v, allowed))
        raise MixedFields(f"{bad!r} is not a value of {field}")
    if field.kind == PRIME:
        p = field.p
        return 1, [v % p for v in values]
    return to_ints(values, field)


def from_ints(ints, den: int, field: FieldSpec):
    """The field values ints / den as a tuple: over Q one `Fraction` per
    nonzero entry and the shared zero() for the others; over F_p each entry
    times 1/den (den a unit mod p; skipped when it is 1), reduced once."""
    if field.kind == PRIME:
        p = field.p
        if den == 1:
            return tuple([v % p for v in ints])
        inv = pow(den, -1, p)
        return tuple([v * inv % p for v in ints])
    return tuple([Fraction(v, den) if v else _ZERO for v in ints])


def lowest_terms(ints, den: int, field: FieldSpec):
    """`to_ints` of `from_ints(ints, den, field)`, computed without field
    values, for den > 0: over Q (den / g, ints / g) with g the gcd of den and
    the ints, over F_p (1, each entry times 1/den reduced mod p)."""
    if field.kind == PRIME:
        return 1, from_ints(ints, den, field)
    g = math.gcd(den, *ints)
    if g == 1:
        return den, ints
    return den // g, [v // g for v in ints]


def identity(n: int, field: FieldSpec):
    one, zero = field.one(), field.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def transpose(a):
    return tuple(zip(*a))


def block_diag(blocks, field: FieldSpec):
    """The square matrix with the square `blocks` down its diagonal."""
    n = sum(map(len, blocks))
    zero = field.zero()
    out = []
    for block in blocks:
        left = (zero,) * len(out)
        right = (zero,) * (n - len(out) - len(block))
        out.extend([left + tuple(row) + right for row in block])
    return tuple(out)


def kron(a, b, field: FieldSpec):
    """The Kronecker product a (x) b: entry ((i, k), (j, l)) is a_ij b_kl,
    and the field's zero() where either factor is zero."""
    zero, mul = field.zero(), field.mul
    return tuple(
        tuple([mul(x, y) if x and y else zero for x in ra for y in rb])
        for ra in a for rb in b
    )


class MatVec:
    """An m x n integer matrix M held for repeated products M v with integer
    vectors v, on both fields.  Over F_p the entries of M must lie in [0, p)
    (`lowest_terms` reduces a matrix that is not); the columns are packed
    once (slots for n (p-1)^2), and M v is the packed sum of the columns
    weighted by the nonzero v[k] mod p, read back unreduced for the caller's
    `from_ints`; over Q each row is summed against v.  A field with no
    arithmetic raises NonArithmeticField."""

    __slots__ = ("p", "m", "slot", "cols", "rows")

    def __init__(self, a, field: FieldSpec):
        if field.kind == RATIONALS:
            self.p, self.rows = 0, a
            return
        p = self.p = _modulus(field)
        self.m = len(a)
        self.slot = _slot((len(a[0]) if a else 0) * (p - 1) ** 2)
        self.cols = [_pack(col, self.slot) for col in zip(*a)]

    def apply(self, v):
        """M v for an integer vector v, as a sequence of ints."""
        p = self.p
        if not p:
            return [sum(map(operator.mul, row, v)) for row in self.rows]
        acc = sum([x % p * col for x, col in zip(v, self.cols) if x])
        return _unpack(acc, self.m, self.slot)


@dataclass(frozen=True)
class SignedPacking:
    """The Kronecker packing of integer rows of any sign, and the one test
    of a packed identity.  Row v is the one int sum_j v_j 2^(s j)
    (`_pack_signed`), with s = 8 `slot` bits.  Packing is linear, so a sum
    of multiples of packed rows is, exactly, the packing of the same sum of
    the rows; and a product linear in one operand, such as
    `MulTable.mul_ints` in either, maps the `stack` of many vectors to the
    stack of their images.

    The slot rule: a packed entry is a sum of terms c x y, so its bound is
    the sum of the terms' bounds |c| |x| |y|, and `holding(bound, field)`
    takes the fewest bytes with 2^(s - 1) > bound (`_slot` of 2 bound) and
    records p (0 over Q).  Each caller derives its bound from this rule in
    its docstring.  Then every entry of a packing, of a `stack` and of a
    packed difference has absolute value below h = 2^(s - 1), which
    `unpack_signed`, `unstack` and `is_zero` need.

    The packed-zero rule: a certificate forms the packed difference of the
    two sides of its identity (or its packed residual) and asks `is_zero`.
    When the slots hold every entry of the difference, the packed int is 0
    only if every entry is (the lowest nonzero slot would leave a nonzero
    remainder mod 2^s there), which decides the identity over Q; this
    needs only every |entry| < 2^s.  Over F_p no entry is read back.  With
    h = 2^(s - 1), L = (h - 1) // p, ONES the packed all-ones row and TOP =
    h ONES (`_offsets`), every entry v_j is 0 mod p exactly when p divides
    acc and X = acc / p + L ONES has X & TOP = 0 and
    (X + (h - 1 - 2L) ONES) & TOP = 0, read mod 2^(s n) as Python's & reads
    a negative X.  If v_j = p w_j, then |w_j| <= L and X has the digits
    w_j + L in [0, 2L], below h - (h - 1 - 2L), so both tests pass.
    Conversely, the first test puts every digit d_j of X mod 2^(s n) below
    h, so adding h - 1 - 2L < h to each carries into no neighbour, and the
    second puts every d_j in [0, 2L].  Then the packing of the entries
    p (d_j - L), of absolute value at most p L < h, is congruent mod
    2^(s n) to p (X - L ONES) = acc; two packings of entries below h lie in
    (-2^(s n - 1), 2^(s n - 1)), so the two are equal, and by the remainder
    argument above entry for entry: v_j = p (d_j - L).  This is the test of
    many digits in one whole-word operation (Lamport, CACM 18(8), 1975) on
    the Kronecker packing."""

    slot: int
    p: int

    @classmethod
    def holding(cls, bound: int, field: FieldSpec) -> "SignedPacking":
        """The packing of `field` whose slots hold every entry of absolute
        value at most `bound` (the slot rule of the class docstring)."""
        return cls(_slot(2 * bound), 0 if field.kind == RATIONALS else _modulus(field))

    def pack(self, row) -> int:
        return _pack_signed(row, self.slot)

    def unpack_signed(self, acc: int, n: int):
        """The n entries of a packing whose entries all have absolute value
        below h = 2^(s - 1): h is added to every slot (`_offsets`), which
        makes each entry nonnegative, and taken out of each slot read back."""
        h = 1 << (8 * self.slot - 1)
        return [v - h for v in _unpack(acc + _offsets(n, self.slot), n, self.slot)]

    def unstack(self, packed, t: int):
        """Entry t of each packing in `packed`, whose entries all have
        absolute value below h = 2^(s - 1), with no other slot read back:
        vectors[t] of a `stack`.  The entries below slot t sum to L with
        |L| < 2^(s t - 1), so adding 2^(s t - 1) (nothing at t = 0) makes
        the part below slot t nonnegative and less than 2^(s t); the shift
        then leaves sum_{j >= t} v_j 2^(s (j - t)), and adding h to it makes
        v_t + h the nonnegative lowest slot, as in `unpack_signed`."""
        bits = 8 * self.slot
        h = 1 << (bits - 1)
        shift = bits * t
        offset = (h << shift) + (1 << shift >> 1)
        mask = (h << 1) - 1
        return [((acc + offset) >> shift & mask) - h for acc in packed]

    def is_zero(self, acc: int, n: int) -> bool:
        """Whether each of the n entries of the packing acc is 0 in the field,
        with a few whole-int operations and no slot read back (the
        packed-zero rule of the class docstring)."""
        if not acc:
            return True
        p = self.p
        if not p:
            return False
        q, r = divmod(acc, p)
        if r:
            return False
        shift = 8 * self.slot - 1
        h = 1 << shift
        top = _offsets(n, self.slot)
        ones = top >> shift
        lim = (h - 1) // p
        x = q + lim * ones
        return not x & top and not (x + (h - 1 - 2 * lim) * ones) & top

    def suffixes(self, vectors):
        """The `stack`s of vectors[i:] for i = len(vectors) - 1 down to 0,
        each from the one before with one shift and add per coordinate;
        a generator, so a caller that stops early builds no more."""
        bits = 8 * self.slot
        packed = [0] * (len(vectors[0]) if vectors else 0)
        for v in reversed(vectors):
            packed = [(a << bits) + x for a, x in zip(packed, v)]
            yield packed

    def stack(self, vectors):
        """Coordinate j of the vectors packed into one int, vectors[b] in
        slot b (`pack` of the column j), for each j: the last of the
        `suffixes`, and [] for no vectors."""
        packed = []
        for packed in self.suffixes(vectors):
            pass
        return packed


def mat_mul(a, b, field: FieldSpec):
    """a b for matrices of field values: the `int_mat_mul` of their
    `to_ints` forms (d_a, A) and (d_b, B), with row i converted once by
    `from_ints` over d_a d_b, on both fields.  Ragged rows, or rows of a
    whose length is not the number of rows of b, raise CarrierMismatch."""
    k, n = len(b), _width(b)
    if a and _width(a) != k:
        raise CarrierMismatch(f"cannot multiply rows of length {len(a[0])} by {k} rows")
    da, ia = to_ints([v for row in a for v in row], field)
    db, ib = to_ints([v for row in b for v in row], field)
    prod = int_mat_mul([ia[i * k : i * k + k] for i in range(len(a))],
                       [ib[i * n : i * n + n] for i in range(k)], field)
    return tuple([from_ints(row, da * db, field) for row in prod])


def int_mat_mul(a, b, field: FieldSpec):
    """a b for integer matrices a and b (entries of b in [0, p) over F_p) as
    integer rows, not reduced: over Q row i sums the rows b[k] weighted by
    the nonzero a[i][k], skipping their zero entries; over F_p it is
    b^T a[i] by the `MatVec` of b^T, whose packed columns are the rows of b."""
    if field.kind != RATIONALS:
        bt = MatVec(transpose(b), field)
        return [bt.apply(row) for row in a]
    n = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * n
        for c, bk in zip(row, b):
            if c:
                acc = [s + c * x if x else s for s, x in zip(acc, bk)]
        out.append(acc)
    return out


def _width(a) -> int:
    """The length of every row of the matrix a (0 for no rows); ragged rows
    raise CarrierMismatch."""
    n = len(a[0]) if a else 0
    if any(len(r) != n for r in a):
        raise CarrierMismatch(f"matrix rows of lengths {sorted(set(map(len, a)))}")
    return n


def _int_rows(a, field: FieldSpec):
    """The `to_ints` integer row of each row of a, each over its own d;
    ragged rows raise CarrierMismatch."""
    _width(a)
    return [to_ints(r, field)[1] for r in a]


def rref(a, field: FieldSpec):
    """Reduced row echelon form; returns (rows, pivot_columns): the `to_ints`
    rows of a through `_eliminate`, each pivot row divided by its pivot entry."""
    rows, pivots = _eliminate(_int_rows(a, field), field)
    n = len(a[0]) if a else 0
    out = [from_ints(row, row[c], field) for row, c in zip(rows, pivots)]
    zero_row = (field.zero(),) * n
    out.extend(zero_row for _ in range(len(a) - len(pivots)))
    return tuple(out), tuple(pivots)


def _eliminate(rows, field):
    """(rows, pivots): the nonzero rows of the reduced row echelon form of an
    integer matrix, one per pivot column, each as an integer row times a
    nonzero factor: over Q a primitive row (`_eliminate_q`), over F_p the
    RREF row itself, its pivot entry 1 and every entry in [0, p).

    Over F_p it is Gauss-Jordan mod p on integer lists: the pivot is the
    first entry nonzero mod p, the pivot row is scaled to 1, and every other
    row with a nonzero entry f in the pivot column becomes row_i - f row_r
    mod p, computed at the pivot row's nonzero entries only.  So an input
    entry off [0, p) is read as its residue."""
    if field.kind == RATIONALS:
        return _eliminate_q(rows)
    p = _modulus(field)
    rows = list(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] % p), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c] % p)
        rr = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(vi - f * vr) % p if vr else vi for vi, vr in zip(rows[i], rr)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def _eliminate_q(rows):
    """`_eliminate` over Q on integer rows: row i is eliminated against the
    pivot row as (pv/g) row_i - (f/g) row_r with g = gcd(pv, f), then divided
    by the gcd of its entries."""
    rows = list(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), -1)
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        pv = rr[c]
        for i in range(m):
            f = rows[i][c]
            if i != r and f:
                g = math.gcd(pv, f)
                s, t = pv // g, f // g
                if s == 1:
                    row = [vi - t * vr if vr else vi for vi, vr in zip(rows[i], rr)]
                else:
                    row = [s * vi - t * vr if vr else s * vi for vi, vr in zip(rows[i], rr)]
                g = math.gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def rank(a, field: FieldSpec) -> int:
    """The number of pivots `_eliminate` finds in the `to_ints` rows of a."""
    return len(_eliminate(_int_rows(a, field), field)[1])


def kernel(rows, field: FieldSpec):
    """(basis, free, forms): a basis of {v : a v = 0} for the integer matrix
    a with these rows (entries in [0, p) over F_p), the free columns of its
    echelon form (`_eliminate`), one per basis vector, and the `to_ints`
    form (d, ints) of each basis vector.  Vector r is 1 at free[r], 0 at the
    other free columns (what an `IntSpan` of the kernel reads) and
    -a'_s[free[r]] / a'_s[pc_s] at the pivot column pc_s of the echelon row
    a'_s.  It is built in ints over the lcm of those pivot entries, put in
    lowest terms (`lowest_terms`) and converted once by `from_ints`, so its
    zero entries are the field's shared `zero()`."""
    n = len(rows[0]) if rows else 0
    echelon, pivots = _eliminate(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis, forms = [], []
    for fc in free:
        terms = [(pc, row[fc], row[pc]) for row, pc in zip(echelon, pivots) if row[fc]]
        den = math.lcm(*[pv for _, _, pv in terms])
        v = [0] * n
        v[fc] = den
        for pc, x, pv in terms:
            v[pc] = -x * (den // pv)
        form = lowest_terms(v, den, field)
        basis.append(from_ints(form[1], form[0], field))
        forms.append(form)
    return basis, free, forms


def nullspace(a, field: FieldSpec):
    """Basis of {v : a v = 0}: the `kernel` of the `to_ints` rows of a."""
    return kernel(_int_rows(a, field), field)[0]


def inverse(a, field: FieldSpec):
    """Exact inverse; returns None when singular, and a matrix that is not
    square raises CarrierMismatch (`solve_right`)."""
    return solve_right(a, identity(len(a), field), field)


def solve_right(a, b, field: FieldSpec):
    """Solve a X = b for square invertible a (b a matrix); None if singular.
    `int_solve` of the `to_ints` rows of [a | b], converted once per row.
    An a that is not square, or a b with another number of rows, raises
    CarrierMismatch."""
    n = len(a)
    if _width(a) != n:
        raise CarrierMismatch(f"matrix with {n} rows is not square")
    if len(b) != n:
        raise CarrierMismatch(f"{len(b)} right-hand rows for {n} equations")
    sol = int_solve(_int_rows([tuple(a[i]) + tuple(b[i]) for i in range(n)], field), n, field)
    if sol is None:
        return None
    den, x = sol
    return tuple([from_ints(row, den, field) for row in x])


def int_solve(aug, n: int, field: FieldSpec):
    """(den, X) with A X = B and X = rows / den in lowest terms, for the
    integer rows of [A | B] with A n x n (entries in [0, p) over F_p); None
    when A is singular.  `_eliminate` reduces [A | B] to [I | X] with row r
    times its pivot entry, so X is each row's B part over that entry, put
    over the lcm of the pivot entries (1 over F_p) and in lowest terms."""
    rows, pivots = _eliminate(aug, field)
    if pivots[:n] != list(range(n)):
        return None
    k = len(aug[0]) - n if aug else 0
    den = math.lcm(*[row[r] for r, row in enumerate(rows)])
    flat = [v * (den // row[r]) for r, row in enumerate(rows) for v in row[n:]]
    den, flat = lowest_terms(flat, den, field)
    return den, [flat[i * k : i * k + k] for i in range(n)]


def row_space_rref(vectors, field: FieldSpec):
    """RREF basis of the span of the given vectors (zero rows dropped);
    the empty span is ((), ())."""
    rows, pivots = rref(tuple(vectors), field)
    return rows[: len(pivots)], pivots


class IntSpan:
    """A row space, scaled once for membership tests of integer vectors.  It
    is given by rows R_r and one column pc_r per row with R_r[pc_s] = 1 if
    r = s and 0 otherwise: the RREF rows and their pivot columns
    (`int_span`), or a `kernel` basis and its free columns.  Each row is
    given by its integer form, R_r = ints_r / d_r (`to_ints`), and kept as
    pc_r and its entries off the columns pc, scaled to L, the lcm of the
    d_r.  w lies in the span iff w = sum_r w[pc_r] R_r, which holds at the
    columns pc by the precondition; so the test is that the residual
    L w[k] - sum_r w[pc_r] (L / d_r) ints_r[k] is 0 at every other
    column k, in ints over Q and mod p over F_p.  It does not change when w
    is scaled, so w may be any integer multiple of a vector, such as a
    `to_ints` form or a `MulTable.mul_ints` product of such forms.  The
    residual is linear in w, so `closed` runs it on packed vectors;
    `weight` is the largest L + sum_r |(L / d_r) ints_r[k]| over the
    columns off pc, with |residual[k]| <= weight max|w|."""

    __slots__ = ("field", "mask", "rows", "weight")

    def __init__(self, forms, pivots, n: int, field: FieldSpec):
        self.field = field
        lcm = math.lcm(*[d for d, _ in forms])
        pivot_set = set(pivots)
        # L w is compared at the columns off pc; the columns pc hold by the precondition
        self.mask = [0 if k in pivot_set else lcm for k in range(n)]
        weight = list(self.mask)
        rows = []
        for pc, (d, ints) in zip(pivots, forms):
            s = lcm // d
            entries = [(k, s * v) for k, v in enumerate(ints) if v and k not in pivot_set]
            for k, c in entries:
                weight[k] += abs(c)
            if entries:
                rows.append((pc, entries))
        self.rows = rows
        self.weight = max(weight, default=0)

    def _residual(self, w):
        """L w[k] - sum_r w[pc_r] c_rk at every column k (0 at the columns
        pc), for an integer vector w or a packing of several."""
        acc = list(map(operator.mul, w, self.mask))
        for pc, entries in self.rows:
            x = w[pc]
            if x:
                for k, c in entries:
                    acc[k] -= x * c
        return acc

    def contains(self, w) -> bool:
        """Whether the integer vector w of length n lies in the span."""
        acc = self._residual(w)
        p = self.field.p
        return not any([v % p for v in acc] if p else acc)

    def closed(self, table, xs, ys=None) -> bool:
        """Whether the product x.y of the `MulTable` lies in the span for every
        x in xs and y in ys, lists of integer vectors (ys defaults to xs).
        When ys is xs and the table is commutative (`MulTable.commutative`),
        only the pairs (xs[i], xs[j]) with i <= j are checked: x.y = y.x
        gives the others.

        One `mul_ints` call covers all the y for one x: the ys are stacked
        (`SignedPacking.stack`, Y_j = sum_b ys[b][j] 2^(s b)), and both
        `mul_ints` and the residual are linear in Y, so the residual of
        mul_ints(x, Y) packs the residuals of the x.ys[b]: |x.y| <=
        S max|x| max|y| (S the table's `MulTable.int_sum`) and
        |residual| <= weight max|w|, so the slots hold
        S max|x| max|y| weight, and `SignedPacking.is_zero` judges them.
        In that suffix mode xs[i] meets the suffix xs[i:]
        (`SignedPacking.suffixes`).  Stops at the first x that fails."""
        if ys is None:
            ys = xs
        if not xs or not ys:
            return True
        xtop = max(map(abs, itertools.chain.from_iterable(xs)))
        ytop = max(map(abs, itertools.chain.from_iterable(ys)))
        packing = SignedPacking.holding(table.int_sum() * xtop * ytop * self.weight, self.field)

        def holds(x, packed, k):
            return all([packing.is_zero(a, k) for a in self._residual(table.mul_ints(x, packed)) if a])

        if ys is xs and table.commutative:
            suffixes = zip(range(len(xs) - 1, -1, -1), packing.suffixes(xs))
            return all(holds(xs[i], packed, len(xs) - i) for i, packed in suffixes)
        packed = packing.stack(ys)
        return all(holds(x, packed, len(ys)) for x in xs)


def int_span(vectors, n: int, field: FieldSpec):
    """(span, ints): the `IntSpan` of the row space of the vectors in F^n and
    their `to_ints` forms, for closure tests on the vectors themselves.  The
    span's rows are the RREF rows, from `_eliminate` of those forms: each
    echelon row over its pivot entry, made positive, in lowest terms.  n is
    given, not read off the vectors, so that the span of no vectors is the
    zero subspace of F^n and holds only the zero vector."""
    ints = _int_rows(vectors, field)
    rows, pivots = _eliminate(ints, field)
    forms = [lowest_terms([-v for v in row] if row[c] < 0 else row, abs(row[c]), field)
             for row, c in zip(rows, pivots)]
    return IntSpan(forms, pivots, n, field), ints


def same_span(vecs_a, vecs_b, field: FieldSpec) -> bool:
    return row_space_rref(vecs_a, field)[0] == row_space_rref(vecs_b, field)[0]
