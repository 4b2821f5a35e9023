"""Exact linear maps on the spaces of the algebra tower, plus the
norm/automorphism membership predicates and phi-dagger, the trace-form
adjoint inverse of a map in Inv(J), built from cross products.

A `LinMap` takes its dimension from its matrix, so it can act on any
algebra of the tower (a quaternion algebra too); it is matched to an
algebra, and to another map, by the basis tag, and its carrier is only a
label.  A map is its integer form `_ints` = (d, M), M = d * matrix in
lowest terms (d the lcm of the entries' denominators, 1 over F_p), the one
form it stores.  `LinMap(matrix, ...)` scales its matrix once
(`linalg.checked_ints`, which reduces ints mod p over F_p and refuses a
value that is not the field's), and `LinMap.of_ints` takes a form in
lowest terms and makes no field value: `compose` multiplies the two integer forms
(`linalg.int_mat_mul`) and puts the product in lowest terms,
`block_diag_map` (the lifts of `brown` and `involutions`) scales its
blocks' forms to one d, `AlbertAlgebra.uop_map` keeps the integer rows of
U_x, and the dagger below is read off cross products in ints.  `matrix`,
the field values M / d, is a view built on first read, for callers (over
F_p, where d = 1 and the entries lie in [0, p), the rows of M themselves);
`AlbertAlgebra.uop_matrix`, the matrix of U_x, is the one computation of
the package that reads it.  The form is canonical, so two maps are equal,
and hash alike, exactly when their matrices, fields and basis tags are; the
carrier label takes no part, as in matching.  `apply`, `is_identity` and
the membership certificates below all read the form, and so does the map's
largest |entry|, which sizes the slots of every packed certificate.
`apply` reads its coordinates with `checked_ints` too and runs the
`linalg.MatVec` of M, built once, on both fields.
`eigenspace` and `fixed_space` read it too: the kernel of self - (a/b) id
is `linalg.kernel` of b M - a d I, an integer matrix.  `inverse_map` is d
M^-1, the solution X of M X = d I (`linalg.int_solve` on [M | d I]), made
with `of_ints`.  A map over a field with no element arithmetic is refused
when it is made.  A map also keeps whether it squares to the identity:
`order_divides_two` is `is_identity` of the map's `compose` with itself,
computed once, so it needs no packing of its own, and powers made by
`compose` decide any order m the same way.

The product law below forms the packed difference of the two sides of its
identity and hands it to `linalg.SignedPacking.is_zero`, with slots sized
from a bound on that difference (the rule is stated once, in the
`SignedPacking` docstring) by `_law_packing`, for both of its callers.  The
unit law of `is_automorphism` is one plain integer difference, judged entry
by entry, and the norm multiplier of `is_inv_member` a single integer dot
product, read as a field value.

Membership in Aut and in Inv(J), and the anti-automorphism laws, are one
product law on basis pairs, a P mul_ints(e_i, e_l) = b target.mul_ints(M e_i,
M e_l) for the integer form M of phi, an integer matrix P, scales a, b and a
target table on the image side (the table itself unless given).  It is two
`MulTable.mul_ints` calls per basis vector on stacked second factors: the
image side (`_image_rows`) and the one comparison (`_rows_agree`), on the
pairs i <= l only when both tables are commutative (`MulTable.commutative`).
`is_automorphism` takes P = M with its unit law, for the product of any
`MulTable`, and makes its image rows one at a time, so the first failing row
ends it: it serves `is_aut_member` on every algebra of the tower
(composition, Albert and Brown, matched by basis tag) and the isotope check
of `involutions`, and with the opposite table (`MulTable.opposite`) as its
target it certifies an anti-automorphism, unit law included: `verify`
decides conj(xy) = conj(y) conj(x) and the Brown involution's law this way.
A target with another integer denominator than the table's raises
AlgebraMismatch; none is scaled for yet.  `is_inv_member` is a deterministic
certificate over Q and F_p for phi(x) # phi(y) = phi-dagger(x # y) (Springer
and Veldkamp, *Octonions, Jordan Algebras and Exceptional Groups*, ch. 5):
the law runs on the cross table, and P is phi-dagger scaled to integers.
The law makes psi* phi a scalar lambda, the norm multiplier, for any P it
passes, and one entry of the trace form reads lambda = 1
(`_multiplier_is_one`); the proof is in the `is_inv_member` docstring.

`dagger` has no verdict of its own: it returns the dagger that
`is_inv_member` keeps on a map it certifies, and raises NotNormPreserving
when the certificate fails.  No linear system is solved for it.  For phi in
Inv(J), phi-dagger takes x # y to phi(x) # phi(y), and every entry of the
cross table takes a basis pair to a multiple of one basis vector, so each
column of phi-dagger is one cross product of two columns of the map's
integer form, for the pairs i <= j picked once per algebra (`_dagger_plan`).
Those products are slots of the certificate's own image rows, so each cross
product is made once and read back from its slot (`SignedPacking.unstack`); the
multiplier check runs on those columns before the same rows go to the
comparison, and the two together prove Tr(phi x, psi y) = Tr(x, y).
dagger is an involutive automorphism of Inv(J), so a certified phi keeps psi and psi
keeps a copy of phi: `dagger`, `is_inv_member` and `lift_inv` of either run
the certificate at most once.
No membership test evaluates the norm; its form lives in `albert`.

This module never imports the algebra modules; algebra objects are passed in
and used through their raw-operation methods.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator

from .errors import (
    AlgebraMismatch,
    CarrierMismatch,
    InternalError,
    NotNormPreserving,
    SingularGram,
)
from .fields import RATIONALS, FieldSpec
from .linalg import (
    MatVec,
    SignedPacking,
    checked_ints,
    from_ints,
    int_mat_mul,
    int_solve,
    kernel,
    lowest_terms,
    to_ints,
)

OCT = "oct8"
ALBERT = "albert27"
BROWN = "brown56"


class LinMap:
    """Square exact map tagged with carrier label and basis convention, held
    as its integer form `_ints` = (d, M), M = d * matrix in lowest terms."""

    def __init__(self, matrix, field: FieldSpec, carrier: str, basis_tag: str):
        field._need_arith()
        n = len(matrix)
        if any(len(r) != n for r in matrix):
            raise CarrierMismatch(f"matrix with {n} rows is not square")
        d, flat = checked_ints([v for row in matrix for v in row], field)
        self._make(d, tuple(zip(*[iter(flat)] * n)), field, carrier, basis_tag)

    def _make(self, den: int, rows: tuple, field: FieldSpec, carrier: str, basis_tag: str):
        self._ints = (den, rows)
        self.field = field
        self.carrier = carrier
        self.basis_tag = basis_tag
        # the map's `dagger`, set only by a passing `is_inv_member`
        self._dagger = None

    @classmethod
    def of_ints(cls, den: int, rows, field: FieldSpec, carrier: str, basis_tag: str) -> "LinMap":
        """The map with matrix rows / den, for integer rows over den in lowest
        terms (`linalg.lowest_terms`); no field value is made."""
        m = cls.__new__(cls)
        m._make(den, tuple(map(tuple, rows)), field, carrier, basis_tag)
        return m

    @functools.cached_property
    def matrix(self) -> tuple:
        """M / d as a tuple of row tuples of field values, built on first
        read over Q; over F_p the form is canonical (d = 1, entries in
        [0, p)), so its rows are the view."""
        d, m = self._ints
        if self.field.kind != RATIONALS:
            return m
        return tuple([from_ints(row, d, self.field) for row in m])

    @property
    def dim(self) -> int:
        return len(self._ints[1])

    def _key(self):
        return self._ints, self.field, self.basis_tag

    def __eq__(self, other):
        """Equal matrices on the same field and basis: the integer forms are
        in lowest terms, so they are equal exactly when the matrices are."""
        if not isinstance(other, LinMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"LinMap(dim={self.dim}, field={self.field}, {self.carrier!r}, {self.basis_tag!r})"

    def _check(self, other: "LinMap"):
        if (self.dim, self.basis_tag, self.field) != (other.dim, other.basis_tag, other.field):
            raise CarrierMismatch(
                f"cannot combine maps on {self.basis_tag!r} and {other.basis_tag!r}"
            )

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other: M M' / (d d') on the integer forms (d, M) and
        (d', M') (`linalg.int_mat_mul`), in lowest terms (`of_ints`)."""
        self._check(other)
        f, n = self.field, self.dim
        (d, m), (d2, m2) = self._ints, other._ints
        flat = [v for row in int_mat_mul(m, m2, f) for v in row]
        den, flat = lowest_terms(flat, d * d2, f)
        return LinMap.of_ints(den, zip(*[iter(flat)] * n), f, self.carrier, self.basis_tag)

    @functools.cached_property
    def _top(self) -> int:
        """The largest |entry| of M in `_ints` (0 for the empty map)."""
        return max(map(abs, itertools.chain.from_iterable(self._ints[1])), default=0)

    @functools.cached_property
    def _matvec(self) -> MatVec:
        """The `MatVec` of M in `_ints`, built on first use."""
        return MatVec(self._ints[1], self.field)

    def apply(self, coords):
        """The image of a coordinate vector: M v / (d d_v) on the integer
        forms of the map and of v, read by `linalg.checked_ints`, which
        raises MixedFields for a value that is not the field's."""
        if len(coords) != self.dim:
            raise CarrierMismatch(
                f"map of dimension {self.dim} applied to {len(coords)} coordinates"
            )
        dv, v = checked_ints(coords, self.field)
        return from_ints(self._matvec.apply(v), self._ints[0] * dv, self.field)

    def inverse_map(self) -> "LinMap":
        """The inverse map, d M^-1 for the integer form (d, M): the X of
        M X = d I (`linalg.int_solve` on [M | d I]), already in lowest terms.
        Raises SingularGram when M is singular."""
        d, m = self._ints
        n = self.dim
        aug = [row + (0,) * i + (d,) + (0,) * (n - 1 - i) for i, row in enumerate(m)]
        sol = int_solve(aug, n, self.field)
        if sol is None:
            raise SingularGram("map is not invertible")
        return LinMap.of_ints(*sol, self.field, self.carrier, self.basis_tag)

    def is_identity(self) -> bool:
        """Whether M = d I for the integer form (d, M) of the map."""
        d, m = self._ints
        return all(row[i] == d and not any(row[:i]) and not any(row[i + 1 :])
                   for i, row in enumerate(m))

    def order_divides_two(self) -> bool:
        return self._order_divides_two

    @functools.cached_property
    def _order_divides_two(self) -> bool:
        """Whether the map squares to the identity: `is_identity` of its
        `compose` with itself, computed once per map."""
        return self.compose(self).is_identity()

    def fixed_space(self):
        """Basis of ker(self - id)."""
        return self.eigenspace(1)

    def eigenspace(self, eigval):
        """Basis of ker(self - eigval id), the basis of `eigenbasis`."""
        return self.eigenbasis(eigval)[0]

    def eigenbasis(self, eigval):
        """(basis, free, forms): `linalg.kernel` of b M - a d I for the
        integer form (d, M) of the map and eigval = a / b in lowest terms,
        whose kernel is ker(self - eigval id); over F_p that is
        (M - eigval I) mod p.  Vector r of the basis is 1 at the free column
        free[r] and 0 at the others, and forms[r] is its `to_ints` form."""
        f = self.field
        a, b = f.coerce(eigval).as_integer_ratio()
        d, m = self._ints
        rows = []
        for i, row in enumerate(m):
            row = [b * v for v in row] if b != 1 else list(row)
            # an int difference over Q, reduced mod p over F_p
            row[i] = f.sub(row[i], a * d)
            rows.append(row)
        return kernel(rows, f)


def block_diag_map(maps, carrier: str, basis_tag: str) -> LinMap:
    """The map with the square maps down its diagonal, on the given carrier
    and basis, built from their integer forms: each block's form scaled to
    the lcm of their d, which keeps it in lowest terms."""
    den = math.lcm(*[m._ints[0] for m in maps])
    n = sum([m.dim for m in maps])
    rows = []
    for m in maps:
        d, ints = m._ints
        left, right = (0,) * len(rows), (0,) * (n - len(rows) - m.dim)
        rows += [left + (row if d == den else tuple([den // d * v for v in row])) + right
                 for row in ints]
    return LinMap.of_ints(den, rows, maps[0].field, carrier, basis_tag)


def _require_albert(phi: LinMap, algebra):
    if algebra.carrier != ALBERT or phi.basis_tag != algebra.basis_tag:
        raise CarrierMismatch("map does not live on this Albert algebra")


def is_inv_member(phi: LinMap, algebra) -> bool:
    """Cubic-norm invariance, as a deterministic certificate over Q and F_p:
    phi is in Inv(J) iff phi(x) # phi(y) = psi(x # y) for all x, y and some
    psi, and the norm multiplier lambda that this law fixes is 1; psi is
    then phi-dagger (Springer and Veldkamp, ch. 5).

    A map that keeps a dagger has passed already.  Otherwise each cross
    product of two columns of the integer form (d, M) of phi is made once:
    R_i = mul_ints(M e_i, stack of the M e_l, l >= i) on the cross table
    (`_image_rows`), the image side of the law, with (M e_i) # (M e_l) at
    slot l - i.  Every entry of the cross table takes a basis pair to a
    multiple of one basis vector (`_dagger_plan`): with
    D (e_a # e_b) = C e_k, a <= b, and s C = lcm, column k of P is s times
    slot b - a of R_a (`SignedPacking.unstack`), reduced mod p over F_p, and
    P = lcm d^2 psi when phi is in Inv(J).  Two checks follow, and a map
    that fails either is not in Inv(J).  The multiplier check
    (`_multiplier_is_one`) reads one entry of the trace form; then the law
    P mul_ints(e_i, e_l) = lcm mul_ints(M e_i, M e_l), the form
    psi(e_i # e_l) = phi(e_i) # phi(e_l) takes in these integers, is
    checked on the pairs i <= l against the same rows (`_rows_agree`).

    Why the two checks prove phi in Inv(J) with psi = phi-dagger, for
    psi = P / (d^2 lcm), T(x, y, z) = Tr(x # y, z) and psi* the trace-form
    adjoint of psi (2 and 3 are invertible, and Tr is nondegenerate):
    1. The law is symmetric and bilinear, so on basis pairs it gives
       phi x # phi y = psi(x # y) for all x and y.
    2. T is symmetric and trilinear, so T(phi x, phi y, phi z) =
       Tr(psi(x # y), phi z) = T(x, y, A z) with A = psi* phi.
    3. The left side of 2 is symmetric in x, y and z, so
       Tr(x, y # A z) = Tr(x, z # A y) for all x: y # A z = z # A y.
    4. At z = e, with e # u = Tr(u) e - u, this reads
       A y = (Tr(y) Tr(a) - Tr(y, a)) / 2 e - y # a for a = A e: a fixes A.
    5. Such an A meets 3 only for a in k e, and a = lambda e gives
       A = lambda id.  3 and 4 are a linear system in a, whose kernel does
       not change under a field extension, and over the algebraic closure J
       has a frame E_1, E_2, E_3 of idempotents with Peirce spaces J_ij.
       Write a = sum alpha_i E_i + a_12 + a_23 + a_31.  y = E_1 and z = E_2
       give alpha_1 = alpha_2 = alpha_3, from the coefficients of E_2 and
       E_3.  Take alpha_1 e away, which meets 3, so a = a_12 + a_23 + a_31.
       Then A E_1 = a_23, and y = E_1 and z = u in J_23 give
       -t/2 (E_2 + E_3) = -t E_1, with u # a_23 = -t E_1 and
       t = Tr(u, a_23).  So a_23 is orthogonal to J_23, and 0; the other
       two Peirce spaces follow by symmetry.  `tests/test_linmaps.py` pins
       the kernel of this system, span(e), on both models over Q and three
       primes.
    6. So A = lambda id, Tr(psi u, phi v) = lambda Tr(u, v) for all u and v,
       and at x = y the law reads (phi x)# = psi(x#), so
       3 N(phi x) = Tr(psi x#, phi x) = lambda Tr(x#, x) = 3 lambda N(x).
    7. The multiplier check reads lambda at one entry (a, b, g) of DG G
       (`AlbertAlgebra.gram_int`), g != 0: lambda = 1 iff
       (P e_a)^T (DG G) (M e_b) = d^3 lcm g.  Then psi* phi = id, so phi is
       invertible and psi, the unique map with Tr(phi x, psi y) = Tr(x, y),
       is phi-dagger; the whole identity M^T (DG G) P = d^3 lcm (DG G)
       holds, and N(phi x) = N(x).  The norm is evaluated at no point.
    8. The law alone is not enough: 2 id passes it with psi = 4 id, and
       lambda = 8, which is 1 over F_7 only.

    The slots are fixed before P is known, by `_law_packing` with a = 1,
    top = max|M| and ptop a bound on |P|: p - 1 over F_p and
    max|s| S top^2 over Q, S the cross table's `MulTable.int_sum`.  They
    also hold |R| <= S top^2, so every slot of R reads back.

    A map that passes keeps psi = P / (d^2 lcm) in lowest terms
    (`LinMap.of_ints`) as its dagger.  psi is in Inv(J) with
    psi-dagger = phi, as dagger is an involutive automorphism of Inv(J), so
    psi keeps a fresh map with phi's integer form (not phi itself, which
    would make a reference cycle).  A failure keeps nothing."""
    _require_albert(phi, algebra)
    if phi._dagger is not None:
        return True
    f = algebra.field
    d, n = phi._ints[0], phi.dim
    picks, lcm = _dagger_plan(algebra)
    cross = algebra.cross_table()
    s, top = cross.int_sum(), phi._top
    ptop = max(abs(t) for _, _, t in picks) * s * top ** 2 if f.kind == RATIONALS else f.p - 1
    packing = _law_packing(cross, cross, 1, ptop, top, f)
    # the suffix rows come from the last row back: rows[i] is (i, i, R_i)
    rows = list(_image_rows(phi, cross, cross, packing))[::-1]
    pcols = [lowest_terms([t * v for v in packing.unstack(rows[a][2], b - a)], 1, f)[1]
             for a, b, t in picks]
    if not _multiplier_is_one(phi, algebra, pcols, lcm) or \
            not _rows_agree(cross, 1, pcols, lcm, rows, packing):
        return False
    den, flat = lowest_terms([v for row in zip(*pcols) for v in row], d * d * lcm, f)
    psi = LinMap.of_ints(den, zip(*[iter(flat)] * n), f, algebra.carrier, algebra.basis_tag)
    psi._dagger = LinMap.of_ints(*phi._ints, phi.field, phi.carrier, phi.basis_tag)
    phi._dagger = psi
    return True


def _multiplier_is_one(phi: LinMap, algebra, pcols, lcm: int) -> bool:
    """Whether the norm multiplier lambda of `is_inv_member` is 1, for the
    integer columns `pcols` of P it reads off the cross products, (d, M) the
    integer form of phi and lcm from `_dagger_plan`: at the first entry
    (a, b, g) of `AlbertAlgebra.gram_int`, whether
    (P e_a)^T (DG G) (M e_b) = d^3 lcm g, exactly over Q and mod p over
    F_p.  It holds when lambda = 1; given the law, it fails otherwise
    (`is_inv_member`, step 7)."""
    d, m = phi._ints
    a, b, g = algebra.gram_int[0]
    dot = sum(map(operator.mul, pcols[a], algebra._gram_ints([row[b] for row in m])))
    return not algebra.field.from_int(dot - d ** 3 * lcm * g)


def _image_rows(phi: LinMap, table, target, packing: SignedPacking):
    """The image side of the product law of `table` onto `target`, one row
    per basis vector: (i, first, R_i) with R_i = target.mul_ints(M e_i,
    stack of the M e_l for l >= first), M the integer matrix (`_ints`) of
    phi, so slot l - first of coordinate c of R_i holds coordinate c of
    target.mul_ints(M e_i, M e_l).  When both tables are commutative
    (`MulTable.commutative`) the pairs l < i follow from the pairs l >= i,
    so first = i, and the rows run from the last back, each stack the
    `SignedPacking.suffixes` of the one before; otherwise first = 0 and the
    stack is built once.  A generator: a caller that stops early makes no
    more products."""
    n = phi.dim
    cols = list(zip(*phi._ints[1]))
    if table.commutative and target.commutative:
        for i, packed in zip(range(n - 1, -1, -1), packing.suffixes(cols)):
            yield i, i, target.mul_ints(cols[i], packed)
        return
    packed = packing.stack(cols)
    for i in range(n):
        yield i, 0, target.mul_ints(cols[i], packed)


def _law_packing(table, target, a: int, ptop: int, top: int, field: FieldSpec):
    """The slots of `_rows_agree` for a P with |entries| <= ptop and the
    image rows R of a map with |entries| <= top on `target`: entry c of the
    difference a P mul_ints(e_i, e_l) - b R is n terms a P[c][j] w_j, with
    |w_j| <= S, plus b R_c, with |R_c| <= S' top^2 (S and S' the tables'
    `MulTable.int_sum`), so the slots hold n S a ptop + S' top^2, and R
    reads back.  b needs no factor: it is 1 but in `is_inv_member` over Q,
    where b = lcm = |s C| <= max|s| S for the scale s and coefficient C of
    each pick (`_dagger_plan`), and ptop = max|s| S top^2, so
    b S' top^2 <= n S a ptop; an entry is then below twice the bound, so
    below 2^(8 slot), all that `SignedPacking.is_zero` needs over Q."""
    return SignedPacking.holding(
        table.n * table.int_sum() * a * ptop + target.int_sum() * top ** 2, field)


def _rows_agree(table, a: int, pcols, b: int, rows, packing: SignedPacking) -> bool:
    """Whether a P mul_ints(e_i, e_l) = b R_i[l] for every row
    (i, first, R_i) of `rows` (`_image_rows`) and every l >= first, with
    P the integer matrix of columns `pcols` and the products on the
    `MulTable`: the one comparison of `is_automorphism` and
    `is_inv_member`.  The target of the rows must have the table's integer
    denominator D, as `is_automorphism` makes sure; no other D is scaled
    for.

    Row i checks every l at once on packed vectors (`linalg.SignedPacking`):
    with E the identity stacked (E_l = 2^(s l)) from slot `first` on,
    `mul_ints` is bilinear, so mul_ints(e_i, E) packs the e_i.e_l over l,
    one call per row, on the slots of `packing` (`_law_packing`).  The
    row's n packed differences, one per output coordinate c, are one
    packing for one `SignedPacking.is_zero`: difference c shifted by
    c (n - first) slots, which is exact, as packing is linear and every
    entry keeps its bound.  Stops at the first failing row."""
    n = table.n
    # the nonzero entries of a P, column by column
    pcols = [[(r, a * c) for r, c in enumerate(col) if c] for col in pcols]
    # the identity stacked: e_l in slot l
    powers = [1 << (8 * packing.slot * l) for l in range(n)]
    for i, first, right in rows:
        e = [0] * n
        e[i] = 1
        left = [0] * n
        for j, w in enumerate(table.mul_ints(e, [0] * first + powers[: n - first])):
            if w:
                for r, c in pcols[j]:
                    left[r] += c * w
        if b != 1:
            right = [b * x for x in right]
        if left == right:
            continue
        # one packing of all n differences: difference c from slot c (n - first) on
        width = 8 * packing.slot * (n - first)
        if not packing.is_zero(sum([(x - y) << width * c for c, (x, y) in enumerate(zip(left, right))
                                    if x != y]), n * (n - first)):
            return False
    return True


def is_automorphism(phi: LinMap, table, unit, target=None) -> bool:
    """Exact: phi(unit) = unit and phi(e_i . e_j) = phi(e_i) * phi(e_j) for
    every basis pair of the product . of the `MulTable` (a bilinear product
    is determined by its values on basis pairs, so they certify), the pairs
    i <= j when both tables are commutative (`MulTable.commutative`).  * is
    the product of `target`, the table on the image side, which is `table`
    by default: an automorphism.  With `target=table.opposite()`
    (`MulTable.opposite`), u * v = v . u, and the law reads
    phi(x . y) = phi(y) . phi(x): phi is an anti-automorphism, such as a
    conjugation or the Brown involution.  A target whose integer
    denominator is not the table's raises AlgebraMismatch: the law compares
    the two tables' integer products, and no other denominator is scaled
    for.

    With (d, M) the integer form of the map and u that of the unit, the unit
    law M u = d u is one integer difference, judged with no packing, entry
    by entry: in ints over Q and mod p over F_p, as
    `linalg.IntSpan.contains` judges its residual.  The pairs are
    `_rows_agree` with P = M, a = d and b = 1,
    d M mul_ints(e_i, e_l) = target.mul_ints(M e_i, M e_l), on the rows of
    `_image_rows`, made one at a time so that the first failing row ends
    the check, on the slots of `_law_packing` with ptop = top = max|M|."""
    target = table if target is None else target
    den, tden = table.int_table()[0], target.int_table()[0]
    if den != tden:
        raise AlgebraMismatch(f"the target's integer denominator {tden} is not the table's {den}")
    f = phi.field
    d, m = phi._ints
    u = to_ints(unit, f)[1]
    diff = [s - d * x for s, x in zip(phi._matvec.apply(u), u)]
    if any([v % f.p for v in diff] if f.p else diff):
        return False
    packing = _law_packing(table, target, d, phi._top, phi._top, f)
    rows = _image_rows(phi, table, target, packing)
    return _rows_agree(table, d, zip(*m), 1, rows, packing)


def is_aut_member(phi: LinMap, algebra) -> bool:
    """Exact: phi(e) = e and phi(e_i . e_j) = phi(e_i) . phi(e_j) for every
    basis pair of any algebra of the tower (`is_automorphism` on its table;
    the pairs i <= j when it is commutative).  Raises CarrierMismatch for a
    map on another basis."""
    if phi.basis_tag != algebra.basis_tag:
        raise CarrierMismatch(f"map on {phi.basis_tag!r} does not live on {algebra.basis_tag!r}")
    return is_automorphism(phi, algebra.table, algebra.unit_coords)


@functools.lru_cache(maxsize=16)
def _dagger_plan(algebra):
    """What `is_inv_member` reads of an Albert algebra, built once per
    algebra: (picks, lcm).

    Column k of phi-dagger is one cross product: picks[k] = (i, j, s) names a
    basis pair i <= j whose cross product is a multiple of e_k alone,
    D (e_i # e_j) = C e_k in the cross table's integer form (`mul_ints`),
    and s with s C = lcm: over Q lcm is the lcm of the C and s = lcm / C,
    over F_p lcm = 1 and s = C^-1 mod p.  The image rows of the certificate
    hold only the pairs i <= j, which `_image_rows` makes for a commutative
    table, so the plan raises InternalError unless the cross table is
    (`MulTable.commutative`: (j, i, k, c) an entry with every (i, j, k, c)).
    Each pick is the table's first entry for e_k, in row order, that is
    alone on its pair; on a commutative table it has i <= j, as the mirror
    of a pair with i > j comes first, in row j."""
    f = algebra.field
    p = f.p if f.kind != RATIONALS else 0
    cross = algebra.cross_table()
    if not cross.commutative:
        raise InternalError("the cross table is not symmetric")
    entries = [(i, j, k, c) for i, row in enumerate(cross.int_table()[1]) for j, k, c in row]
    terms = collections.Counter((i, j) for i, j, _, _ in entries)
    picks = {}
    for i, j, k, c in entries:
        if terms[i, j] == 1:
            picks.setdefault(k, (i, j, c))
    if len(picks) != 27:
        raise InternalError("the cross table reaches some basis vector through no basis pair alone")
    picks = [picks[k] for k in range(27)]
    lcm = 1 if p else math.lcm(*[c for _, _, c in picks])
    picks = tuple((i, j, pow(c, -1, p) if p else lcm // c) for i, j, c in picks)
    return picks, lcm


def dagger(phi: LinMap, algebra) -> LinMap:
    """phi-dagger, the unique psi with Tr(phi x, psi y) = Tr(x, y), for phi in
    Inv(J): the dagger `is_inv_member` keeps on a map it certifies.  Raises
    NotNormPreserving when the certificate fails, so phi is not in Inv(J).
    A map's dagger is computed once, and a dagger's dagger is a copy of phi;
    a failure is not kept."""
    if not is_inv_member(phi, algebra):
        raise NotNormPreserving("map is not in Inv(J), where dagger is defined")
    return phi._dagger
