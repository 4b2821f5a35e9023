"""The 27-dimensional Albert algebra in two models.

Hermitian model: gamma-Hermitian 3x3 matrices over an octonion algebra C,
coordinates (xi1, xi2, xi3, a-block, b-block, c-block) with a at position
(2,3), b at (3,1), c at (1,2) and the remaining entries forced by
x_ji = gamma_j^-1 gamma_i conj(x_ij).

First Tits construction: three copies of Mat3(k) with twisted norm and sharp;
coordinates are the three matrices row-major.

The two factories supply each model's structure data: `hermitian` and
`tits` check their own arguments and hand `AlbertAlgebra` the model's Jordan
table, the three diagonal coordinates that the unit sets ((0, 1, 2) for
Hermitian, (0, 4, 8) for Tits), the basis tag and the model's parameters.
The unit, the trace vector, `tr_raw`, `diag` and the Gram matrix (G_ij the
sum of c_ijk over the diagonal k) all read those coordinates; the model
string is read only to refuse an operation of the other model.

The Jordan product is a structure table derived from structure data, never
by evaluating products: from the composition table and gamma in the
Hermitian model (`her_jordan_table`), from the 3x3 matrix units and varsigma
in the Tits model (`tits_jordan_table`).

The cubic norm has one evaluator: the integer norm form (`norm_form`),
N(x) = Tr(x # x, x)/6, read exactly on first use off the integer entries of
the cross table and the Gram matrix.  `norm_raw` evaluates it in Python
ints; the membership certificates of `linmaps` evaluate no norm.  The
intrinsic norm N = Tr(x#, x)/3 (`norm_intrinsic_raw`, with sharp from the
quadratic trace) and the paper's displayed norm formulas are kept only as
independent references, in `verify.check_closed_norm` and the tests.
The cross product x # y is a structure table (`cross_table`) derived on first
use from the Jordan table, the trace vector and the Gram matrix, summed in
ints from their integer forms and converted to field values once.

The operators that turn one input into 27 to 729 outputs run in Python ints
on both fields: `sharp_raw`, `jinv_raw`, `uop_map`, `uop_matrix_sharp` and
`trform_raw`, and `gram_vec` (G v), element API that only the tests call.
Each scales its input once to
integers over one denominator (`linalg.to_ints`), sums with the integer
Jordan table (`MulTable.mul_ints`, `MulTable.left_ints`) and the integer
Gram matrix, and, all but `uop_map`, converts once per output entry
(`linalg.from_ints`): one `Fraction` per nonzero entry over Q, with zeros
the shared zero(), and one reduction mod p over F_p.  U_x is one map made
from integer rows: `uop_map` is three `mul_ints` calls on the stacked
identity (`linalg.SignedPacking`), one per factor of 2 L_x^2 and L_{x^2},
whose rows it keeps in lowest terms as the map's integer form
(`LinMap.of_ints`) with no field value made; `uop_matrix` is that map's
matrix, a view.  `uop_matrix_sharp`, from x# and the Gram matrix, is the
independent formula `verify.check_uop_coherence` compares `uop_matrix`
with.
`tits_phi_matrix` builds the torus and SL3 maps of the Tits model from
Kronecker blocks, inverting each determinant-1 factor once as its
adjugate (`mat3_adj`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import mul

from .cayley import CDAlgebra
from .errors import (
    ModelMismatch,
    NotUnimodular,
    SingularElement,
    ZeroMultiplier,
)
from .fields import FieldSpec, Scalar
from .kernels import Algebra, Elem, MulTable
from .linalg import (
    SignedPacking,
    block_diag,
    from_ints,
    identity,
    kron,
    lowest_terms,
    mat_mul,
    to_ints,
    transpose,
)
from .linmaps import ALBERT, LinMap

DIM = 27


def _cubic(terms, v) -> int:
    return sum([c * v[i] * v[j] * v[k] for i, j, k, c in terms])


@dataclass(frozen=True)
class NormForm:
    """The cubic norm as integer monomials:
    N(x) = sum(c * x_i * x_j * x_k for (i, j, k, c) in terms) / den, with
    i <= j <= k.  Over Q the c are integers over the common denominator den;
    over F_p they are residues mod p and den = 1."""

    terms: tuple
    den: int

    def evaluate(self, x, field: FieldSpec):
        """N(x) for raw field values, summed in Python ints at v = D x
        (`to_ints`) as sum c v_i v_j v_k / (den D^3)."""
        d, v = to_ints(x, field)
        return from_ints((_cubic(self.terms, v),), self.den * d ** 3, field)[0]


# -- 3x3 matrix helpers over a field (used by the Tits model) ---------------

def mat3_det(f, A):
    (a, b, c), (d, e, g), (h, i, j) = A
    return f.sub(
        f.add(f.mul(a, f.sub(f.mul(e, j), f.mul(g, i))),
              f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))),
        f.mul(b, f.sub(f.mul(d, j), f.mul(g, h))),
    )


def mat3_adj(f, A):
    (a, b, c), (d, e, g), (h, i, j) = A
    return (
        (f.sub(f.mul(e, j), f.mul(g, i)), f.sub(f.mul(c, i), f.mul(b, j)), f.sub(f.mul(b, g), f.mul(c, e))),
        (f.sub(f.mul(g, h), f.mul(d, j)), f.sub(f.mul(a, j), f.mul(c, h)), f.sub(f.mul(c, d), f.mul(a, g))),
        (f.sub(f.mul(d, i), f.mul(e, h)), f.sub(f.mul(b, h), f.mul(a, i)), f.sub(f.mul(a, e), f.mul(b, d))),
    )


def mat3_tr(f, A):
    return f.add(f.add(A[0][0], A[1][1]), A[2][2])


def mat3_from_flat(flat):
    return (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))


# -- the Jordan tables, derived from structure data --------------------------

def _jordan_entries(products):
    """Table entries from the products of the basis pairs i <= j, given as
    {k: coefficient} dicts; the product is commutative, so (j, i) repeats
    (i, j)."""
    entries = []
    for (i, j), prod in products:
        for k in sorted(prod):
            c = prod[k]
            if c:
                entries.append((i, j, k, c))
                if i != j:
                    entries.append((j, i, k, c))
    return entries


def her_jordan_table(octonions: CDAlgebra, gamma) -> MulTable:
    """x.y = (xy + yx)/2 on gamma-Hermitian 3x3 matrices over the octonions,
    derived from the composition table.  Each basis element is a sparse 3x3
    matrix of (octonion index, coefficient) lists: a diagonal element holds
    the octonion unit, and e_p in an off-diagonal block holds e_p at its
    position and gamma_j^-1 gamma_i conj(e_p) at the transposed one.  The
    coordinates of a product are read at the diagonal (coefficient of
    octonion index 0) and at the a (2,3), b (3,1) and c (1,2) positions."""
    f, C = octonions.field, octonions
    zero, one, half = f.zero(), f.one(), f.half()
    by_pair = {}
    for p, q, k, c in C.table.entries:
        by_pair.setdefault((p, q), []).append((k, c))
    unit = [(k, v) for k, v in enumerate(C.unit_coords) if v]
    basis = [{(i, i): unit} for i in range(3)]
    readout = {((i, i), 0): i for i in range(3)}
    # the a, b, c blocks at (i, j); x_ji = gamma_j^-1 gamma_i conj(x_ij)
    for block, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        ratio = f.div(gamma[i], gamma[j])
        for p in range(8):
            k, c = C._conj[p]
            basis.append({(i, j): [(p, one)], (j, i): [(k, f.mul(ratio, c))]})
            readout[(i, j), p] = 3 + 8 * block + p

    def jordan(X, Y):
        acc = {}
        for A, B in ((X, Y), (Y, X)):
            for (r, t), xs in A.items():
                for (t2, s), ys in B.items():
                    if t != t2:
                        continue
                    for p, a in xs:
                        for q, b in ys:
                            ab = f.mul(a, b)
                            for k, c in by_pair.get((p, q), ()):
                                slot = readout.get(((r, s), k))
                                if slot is not None:
                                    acc[slot] = f.add(acc.get(slot, zero), f.mul(ab, c))
        return {k: f.mul(half, v) for k, v in acc.items()}

    return MulTable(DIM, _jordan_entries(
        ((i, j), jordan(basis[i], basis[j])) for i in range(DIM) for j in range(i, DIM)
    ))


def _eps(i, a, c):
    """Sign of the permutation (i, a, c) of (0, 1, 2)."""
    return 1 if (a - i) % 3 == 1 else -1


# (block of x, block of y) -> block of the term -x y in the Tits sharp
_TITS_PRODUCT_BLOCK = {(1, 2): 0, (0, 1): 1, (2, 0): 2}


def tits_jordan_table(field: FieldSpec, varsigma) -> MulTable:
    """x.y = (x#y + Tr(x) y + Tr(y) x - S(x, y) e)/2 on the first Tits
    construction, derived from the matrix units E_ab of the three blocks.
    With x# = (a0# - a1 a2, varsigma^-1 a2# - a0 a1, varsigma a1# - a2 a0),
    the polarized adjugate of E_ab and E_cd is eps_iac eps_jbd at (j, i),
    i = 3-a-c and j = 3-b-d, and E_ab E_cd = delta_bc E_ad.
    S(x, y) = Tr(x) Tr(y) - T(x, y) with T(x, y) = tr(x0 y0 + x1 y2 + x2 y1)."""
    f = field
    zero, one, half = f.zero(), f.one(), f.half()
    # block of a pair x, y -> (block of its adjugate term, scale)
    adj_block = {0: (0, one), 2: (1, f.inv(varsigma)), 1: (2, varsigma)}
    units = [(r, a, b) for r in range(3) for a in range(3) for b in range(3)]

    def jordan(x, y):
        (r, a, b), (s, c, d) = x, y
        acc = {}

        def add(k, v):
            acc[k] = f.add(acc.get(k, zero), v)

        if r == s and a != c and b != d:
            w, scale = adj_block[r]
            i, j = 3 - a - c, 3 - b - d
            add(9 * w + 3 * j + i, f.mul(scale, f.from_int(_eps(i, a, c) * _eps(j, b, d))))
        if (r, s) in _TITS_PRODUCT_BLOCK and b == c:
            add(9 * _TITS_PRODUCT_BLOCK[r, s] + 3 * a + d, f.neg(one))
        if (s, r) in _TITS_PRODUCT_BLOCK and d == a:
            add(9 * _TITS_PRODUCT_BLOCK[s, r] + 3 * c + b, f.neg(one))
        tr_x, tr_y = r == 0 and a == b, s == 0 and c == d
        if tr_x:
            add(9 * s + 3 * c + d, one)
        if tr_y:
            add(9 * r + 3 * a + b, one)
        sr = int(tr_x and tr_y) - int((r + s) % 3 == 0 and b == c and a == d)
        if sr:
            for k in (0, 4, 8):
                add(k, f.from_int(-sr))
        return {k: f.mul(half, v) for k, v in acc.items()}

    return MulTable(DIM, _jordan_entries(
        ((i, j), jordan(units[i], units[j])) for i in range(DIM) for j in range(i, DIM)
    ))


class AlbertElem(Elem):
    mismatch = ModelMismatch

    @property
    def xi(self):
        return self.coords[0:3]

    @property
    def a(self):
        return self.coords[3:11]

    @property
    def b(self):
        return self.coords[11:19]

    @property
    def c(self):
        return self.coords[19:27]

    def parts(self):
        return tuple(mat3_from_flat(self.coords[9 * r: 9 * r + 9]) for r in range(3))


class AlbertAlgebra(Algebra):
    """One model of the Albert algebra over an exact field, made by
    `hermitian` or `tits` from the model's structure data: its Jordan table,
    the diagonal coordinates that the unit sets, its basis tag, its model
    string and its parameters as attributes (`octonions` and `gamma`, or
    `varsigma`).  The model string is read only to refuse."""

    dim = DIM
    carrier = ALBERT
    elem = AlbertElem

    def __init__(self, field: FieldSpec, table: MulTable, diagonal, basis_tag: str,
                 model: str, **params):
        self.field = field
        self.table = table
        self.diagonal = diagonal
        self.basis_tag = basis_tag
        self.model = model
        vars(self).update(params)
        one, zero = field.one(), field.zero()
        # the unit sets the diagonal coordinates, which Tr(x) sums
        self.unit_coords = tuple(one if k in diagonal else zero for k in range(DIM))
        self.trvec = self.unit_coords
        self._unit_int = tuple(int(k in diagonal) for k in range(DIM))
        # G[i][j] = Tr(e_i . e_j), the sum of the table's c_ijk over the diagonal k
        rows = [[zero] * DIM for _ in range(DIM)]
        for i, j, k, c in table.entries:
            if k in diagonal:
                rows[i][j] = field.add(rows[i][j], c)
        self.gram = tuple(map(tuple, rows))
        # the integer form of G: gram_int holds the nonzero entries (i, j, g)
        # of DG G in row order, with DG = gram_den the lcm of their
        # denominators (`to_ints`, residues over F_p)
        gram = [(i, j, v) for i, row in enumerate(self.gram) for j, v in enumerate(row) if v]
        self.gram_den, ints = to_ints([v for _, _, v in gram], field)
        self.gram_int = tuple((i, j, g) for (i, j, _), g in zip(gram, ints))
        self._norm_form = None
        self._cross_table = None

    # -- elements ------------------------------------------------------------

    def her_element(self, xi, a, b, c) -> "AlbertElem":
        if self.model != "her":
            raise ModelMismatch("her_element on the Tits model")
        get = lambda z: z.coords if hasattr(z, "coords") else tuple(z)
        return self.element(tuple(xi) + get(a) + get(b) + get(c))

    def diag(self, x1, x2, x3) -> "AlbertElem":
        """x1, x2, x3 at the model's diagonal coordinates, zero() elsewhere."""
        coords = [self.field.zero()] * DIM
        for k, v in zip(self.diagonal, (x1, x2, x3)):
            coords[k] = v
        return self.element(coords)

    def tits_element(self, a0, a1, a2) -> "AlbertElem":
        if self.model != "tits":
            raise ModelMismatch("tits_element on the Hermitian model")
        flat = []
        for m in (a0, a1, a2):
            for row in m:
                flat.extend(row)
        return self.element(flat)

    def sample_invertible(self, rng: random.Random, bound: int = 4) -> "AlbertElem":
        while True:
            x = self.sample(rng, bound)
            if self.norm_raw(x.coords):
                return x

    def sample_norm_one(self, rng: random.Random, bound: int = 4) -> "AlbertElem":
        """phi_{1/N(x)} applied to a random invertible x, so N = 1 exactly."""
        if self.model != "her":
            raise ModelMismatch("norm-one sampling uses the Hermitian phi_lambda")
        x = self.sample_invertible(rng, bound)
        ninv = self.field.inv(self.norm_raw(x.coords))
        return AlbertElem(self, self.phi_lambda_raw(ninv, x.coords))

    # -- core operations ------------------------------------------------------

    jmul_raw = Algebra.mul_raw

    def tr_raw(self, x):
        f = self.field
        i, j, k = self.diagonal
        return f.add(f.add(x[i], x[j]), x[k])

    def trform_raw(self, x, y):
        f = self.field
        dx, xi = to_ints(x, f)
        dy, yi = to_ints(y, f)
        acc = sum(map(mul, xi, self._gram_ints(yi)))
        return from_ints((acc,), self.gram_den * dx * dy, f)[0]

    def sharp_raw(self, x):
        f = self.field
        return from_ints(*self._sharp_ints(*to_ints(x, f)), f)

    def _sharp_ints(self, d, xi):
        """(v, den) with x# = v / den for x = xi / d, xi in ints:
        x# = x^2 - T(x) x + S(x) e with S(x) = (T(x)^2 - Tr(x, x)) / 2, over
        the common denominator 2 D DG d^2 (D of the Jordan table, DG of the
        Gram matrix)."""
        D, dg = self.table.int_table()[0], self.gram_den
        t = sum(map(mul, self._unit_int, xi))
        q = sum(map(mul, xi, self._gram_ints(xi)))
        a, b, c = 2 * dg, 2 * D * dg * t, D * (dg * t * t - q)
        v = [a * s - b * xv + c * e
             for s, xv, e in zip(self.table.mul_ints(xi, xi), xi, self._unit_int)]
        return v, 2 * D * dg * d * d

    def cross_table(self) -> MulTable:
        """The cross product x # y = 2 x.y - Tr(x) y - Tr(y) x
        + (Tr(x)Tr(y) - Tr(x,y)) e as a table, derived on first use and cached:
        C_ijk = 2 T_ijk - t_i d_jk - t_j d_ik + (t_i t_j - G_ij) e_k from the
        Jordan table T, the trace vector t, the Gram matrix G and the unit e.

        It is summed in ints over L = lcm(D, DG), from the integer forms of T
        (`MulTable.int_entries`) and of G (`gram_int`) and from t = e, the
        unit's 0/1 coordinates: L C_ijk = 2 (L/D) (D T_ijk) - L t_i d_jk
        - L t_j d_ik + (L t_i t_j - (L/DG) (DG G_ij)) e_k.  The keys follow the
        Jordan entries and then the pairs (i, j) row by row, of which only
        those with t_i or t_j != 0 or G_ij != 0 carry a term; one
        `MulTable.from_ints` call makes the entries."""
        if self._cross_table is None:
            D, dg = self.table.int_table()[0], self.gram_den
            lcm = math.lcm(D, dg)
            t = self._unit_int
            support = [i for i in range(DIM) if t[i]]
            gram = {(i, j): g for i, j, g in self.gram_int}
            coeffs = {}

            def add(i, j, k, c):
                coeffs[i, j, k] = coeffs.get((i, j, k), 0) + c

            for i, j, k, c in self.table.int_entries():
                add(i, j, k, 2 * (lcm // D) * c)
            pairs = {(i, j) for i in support for j in range(DIM)}
            pairs |= {(j, i) for i, j in pairs} | gram.keys()
            for i, j in sorted(pairs):
                if t[i]:
                    add(i, j, j, -lcm * t[i])
                if t[j]:
                    add(i, j, i, -lcm * t[j])
                s = lcm * t[i] * t[j] - lcm // dg * gram.get((i, j), 0)
                if s:
                    for k in support:
                        add(i, j, k, s * t[k])
            self._cross_table = MulTable.from_ints(DIM, coeffs, coeffs.values(), lcm, self.field)
        return self._cross_table

    def cross_raw(self, x, y):
        """x # y through `cross_table`."""
        return (self._cross_table or self.cross_table()).apply(x, y, self.field)

    def norm_intrinsic_raw(self, x):
        f = self.field
        third = f.inv(f.from_int(3))
        return f.mul(third, self.trform_raw(self.sharp_raw(x), x))

    def norm_raw(self, x):
        """N(x), evaluated from the integer norm form."""
        return self.norm_form().evaluate(x, self.field)

    def norm_form(self) -> NormForm:
        """The cubic norm as integer monomials, read on first use off the
        integer entries of the cross table and the Gram matrix, and cached.

        With t_ijk = Tr(e_i # e_j, e_k), the norm is
        N(x) = Tr(x # x, x)/6 = sum t_ijk x_i x_j x_k / 6 over all ordered
        index triples (x # x = 2 x#, and N(x) = Tr(x#, x)/3), so the monomial
        x_i x_j x_k (i <= j <= k) has coefficient the sum of t over the
        orderings of (i, j, k), divided by 6.  This is exact: no symmetry of
        t is assumed and nothing is sampled."""
        if self._norm_form is None:
            self._norm_form = self._fit_norm_form()
        return self._norm_form

    def _fit_norm_form(self) -> NormForm:
        """The sums of `norm_form` in ints: each entry (i, j, l, c) of the
        cross table's integer form (`MulTable.int_entries`, c = DC C_ijl)
        and each (l, k, g) of `gram_int` (g = DG G_lk) add c g to the
        monomial sorted((i, j, k)), over the denominator 6 DC DG, put in
        lowest terms (`linalg.lowest_terms`, residues over F_p), with the
        zero terms dropped."""
        cross = self.cross_table()
        gram_rows = [[] for _ in range(DIM)]
        for l, k, g in self.gram_int:
            gram_rows[l].append((k, g))
        sums = {}
        for i, j, l, c in cross.int_entries():
            for k, g in gram_rows[l]:
                key = tuple(sorted((i, j, k)))
                sums[key] = sums.get(key, 0) + c * g
        keys = sorted(sums)
        den, ints = lowest_terms([sums[key] for key in keys],
                                 6 * cross.int_table()[0] * self.gram_den, self.field)
        return NormForm(tuple((*key, c) for key, c in zip(keys, ints) if c), den)

    def norm_derivative_raw(self, x, y):
        """Coefficient of t in N(x + t y), by exact interpolation at t = 0, +-1, 2."""
        f = self.field
        def at(t):
            tt = f.from_int(t)
            return self.norm_raw(tuple(f.add(a, f.mul(tt, b)) for a, b in zip(x, y)))
        p0, p1, pm1, p2 = at(0), at(1), at(-1), at(2)
        # interpolate p(t) = c0 + c1 t + c2 t^2 + c3 t^3 at t = 0, 1, -1, 2
        c2 = f.mul(f.half(), f.sub(f.add(p1, pm1), f.mul(f.from_int(2), p0)))
        c3 = f.div(
            f.sub(f.add(p2, f.mul(f.from_int(3), p0)),
                  f.add(f.mul(f.from_int(3), p1), pm1)),
            f.from_int(6),
        )
        return f.sub(f.sub(f.sub(p1, p0), c2), c3)

    def uapply_raw(self, x, y):
        """U_x y = Tr(x, y) x - x# # y."""
        f = self.field
        t = self.trform_raw(x, y)
        xs = self.sharp_raw(x)
        cr = self.cross_raw(xs, y)
        return tuple(f.sub(f.mul(t, x[k]), cr[k]) for k in range(DIM))

    def uop_map(self, x) -> LinMap:
        """U_x = 2 L_x^2 - L_{x^2} as a map, from three `MulTable.mul_ints`
        calls on packed operands.  With x = xi / d and E the identity stacked
        (e_j in slot j, `linalg.SignedPacking`), mul_ints is linear in each
        operand, so coordinate i of
        2 mul_ints(xi, mul_ints(xi, E)) - mul_ints(mul_ints(xi, xi), E) packs
        row i of (D d)^2 U_x, entry j in slot j.  With S the table's
        `MulTable.int_sum` and top = max|xi|, |mul_ints(xi, e_j)| <= S top
        and |mul_ints(xi, xi)| <= S top^2, so an entry is at most
        2 S (S top) top + S (S top^2) = 3 S^2 top^2, which sizes the slots
        (the rule of `linalg.SignedPacking`); the rows are read back by
        `SignedPacking.unpack_signed`, put over (D d)^2 in lowest terms
        (`linalg.lowest_terms`) and kept as the map's integer form
        (`LinMap.of_ints`): no field value is made."""
        f = self.field
        d, xi = to_ints(x, f)
        table = self.table
        packing = SignedPacking.holding(3 * (table.int_sum() * max(map(abs, xi))) ** 2, f)
        e = [1 << (8 * packing.slot * j) for j in range(DIM)]
        left = table.mul_ints(xi, table.mul_ints(xi, e))
        right = table.mul_ints(table.mul_ints(xi, xi), e)
        flat = [v for a, b in zip(left, right) for v in packing.unpack_signed(2 * a - b, DIM)]
        den, flat = lowest_terms(flat, (table.int_table()[0] * d) ** 2, f)
        return LinMap.of_ints(den, zip(*[iter(flat)] * DIM), f, self.carrier, self.basis_tag)

    def uop_matrix(self, x):
        """U_x as a 27x27 matrix of field values: the view of `uop_map`."""
        return self.uop_map(x).matrix

    def _gram_ints(self, v):
        """DG G v for an integer vector v (`gram_den` is DG)."""
        out = [0] * DIM
        for i, j, g in self.gram_int:
            vv = v[j]
            if vv:
                out[i] += g * vv
        return out

    def gram_vec(self, v):
        """G v for the trace-form Gram matrix (sparse)."""
        d, vi = to_ints(v, self.field)
        return from_ints(self._gram_ints(vi), self.gram_den * d, self.field)

    def uop_matrix_sharp(self, x):
        """U_x y = Tr(x, y) x - x# # y assembled as a matrix: the cross with
        x# expands into the left multiplication by x# plus rank-one terms,
        U_x = x (G x)^T - 2 L_{x#} + Tr(x#) I + x# t^T - e (Tr(x#) t - G x#)^T
        with t the trace vector; summed in ints over one denominator."""
        f = self.field
        d, xi = to_ints(x, f)
        sn, sd = self._sharp_ints(d, xi)
        D, dg, e = self.table.int_table()[0], self.gram_den, self._unit_int
        lxs = self.table.left_ints(sn)  # D sd L_{x#}
        gx = self._gram_ints(xi)  # DG d G x
        trs = sum(map(mul, e, sn))  # sd Tr(x#)
        # over the denominator D DG d^2 sd, the terms are scaled by:
        a, b, c, g = D * sd, 2 * dg * d * d, D * dg * d * d, D * d * d
        erow = [g * s - c * trs * t for s, t in zip(self._gram_ints(sn), e)]
        den = c * sd
        rows = []
        for i, lrow in enumerate(lxs):
            ax = a * xi[i]
            row = [ax * gj - b * lv for gj, lv in zip(gx, lrow)]
            row[i] += c * trs
            if sn[i]:
                cs = c * sn[i]
                row = [v + cs * t for v, t in zip(row, e)]
            if e[i]:
                row = [v + w for v, w in zip(row, erow)]
            rows.append(from_ints(row, den, f))
        return tuple(rows)

    def jinv_raw(self, x):
        """x^-1 = x# / N(x), summed in ints over one denominator."""
        n = self.norm_raw(x)
        if not n:
            raise SingularElement("cubic norm vanishes")
        f = self.field
        v, den = self._sharp_ints(*to_ints(x, f))
        nn, nd = n.as_integer_ratio()
        return from_ints([nd * s for s in v], den * nn, f)

    def triple_raw(self, x, z, y):
        f = self.field
        xz_y = self.jmul_raw(self.jmul_raw(x, z), y)
        yz_x = self.jmul_raw(self.jmul_raw(y, z), x)
        xy_z = self.jmul_raw(self.jmul_raw(x, y), z)
        return tuple(f.sub(f.add(xz_y[k], yz_x[k]), xy_z[k]) for k in range(DIM))

    def phi_lambda_raw(self, lam, x):
        if self.model != "her":
            raise ModelMismatch("phi_lambda lives on the Hermitian model")
        if not lam:
            raise ZeroMultiplier("lambda must be nonzero")
        f = self.field
        li = f.inv(lam)
        out = list(x)
        out[0] = f.mul(lam, x[0])
        out[1] = f.mul(lam, x[1])
        out[2] = f.mul(li, x[2])
        for k in range(19, 27):
            out[k] = f.mul(lam, x[k])
        return tuple(out)

    def nu_g_raw(self, g, x):
        if self.model != "her":
            raise ModelMismatch("nu_g lives on the Hermitian model")
        if self.gamma != (self.field.one(),) * 3:
            raise ModelMismatch("nu_g requires gamma = id")
        if not g:
            raise ZeroMultiplier("g must be nonzero")
        f = self.field
        g2 = f.mul(g, g)
        g4i = f.inv(f.mul(g2, g2))
        gi = f.inv(g)
        out = [f.mul(g4i, x[0]), f.mul(g2, x[1]), f.mul(g2, x[2])]
        out += [f.mul(g2, v) for v in x[3:11]]
        out += [f.mul(gi, v) for v in x[11:19]]
        out += [f.mul(gi, v) for v in x[19:27]]
        return tuple(out)

    def _tits_phi_inverses(self, u, v, w):
        """(u^-1, v^-1, w^-1) for unimodular factors of tits_phi: each
        factor has determinant 1, so its inverse is its adjugate."""
        if self.model != "tits":
            raise ModelMismatch("tits_phi lives on the first Tits construction")
        f = self.field
        one = f.one()
        for m in (u, v, w):
            if mat3_det(f, m) != one:
                raise NotUnimodular("tits_phi factors must have determinant 1")
        return tuple(mat3_adj(f, m) for m in (u, v, w))

    def tits_phi_raw(self, u, v, w, x):
        """(u a0 v^-1, v a1 w^-1, w a2 u^-1) on one element; the reference for
        `tits_phi_matrix`."""
        f = self.field
        ui, vi, wi = self._tits_phi_inverses(u, v, w)
        a0, a1, a2 = (mat3_from_flat(x[9 * r: 9 * r + 9]) for r in range(3))
        p0 = mat_mul(mat_mul(u, a0, f), vi, f)
        p1 = mat_mul(mat_mul(v, a1, f), wi, f)
        p2 = mat_mul(mat_mul(w, a2, f), ui, f)
        flat = []
        for m in (p0, p1, p2):
            for row in m:
                flat.extend(row)
        return tuple(flat)

    def tits_phi_matrix(self, u, v, w):
        """The matrix of x -> tits_phi_raw(u, v, w, x).  On a row-major 3x3
        block, a -> m a n^-1 is m (x) (n^-1)^T, so the map is
        block_diag(u (x) (v^-1)^T, v (x) (w^-1)^T, w (x) (u^-1)^T); zeros are
        the field's zero()."""
        f = self.field
        ui, vi, wi = self._tits_phi_inverses(u, v, w)
        return block_diag(
            [kron(m, transpose(ni), f) for m, ni in ((u, vi), (v, wi), (w, ui))], f
        )


def hermitian(octonions: CDAlgebra, gamma=None) -> AlbertAlgebra:
    """Her3(C, gamma), gamma = (1, 1, 1) by default, over the field of C."""
    f = octonions.field
    if octonions.dim != 8:
        raise ValueError("Hermitian model needs a dimension-8 composition algebra")
    gamma = tuple(map(f.coerce, (1, 1, 1) if gamma is None else gamma))
    if len(gamma) != 3 or any(not g for g in gamma):
        raise ValueError("gamma must be three nonzero scalars")
    tag = f"her:{octonions.basis_tag}:gamma={','.join(f.scalar_str(g) for g in gamma)}"
    return AlbertAlgebra(f, her_jordan_table(octonions, gamma), (0, 1, 2), tag, "her",
                         octonions=octonions, gamma=gamma)


def tits(field: FieldSpec, varsigma=1) -> AlbertAlgebra:
    """The first Tits construction with parameter varsigma over `field`."""
    field._need_arith()
    vs = field.coerce(1 if varsigma is None else varsigma)
    if not vs:
        raise ValueError("varsigma must be nonzero")
    return AlbertAlgebra(field, tits_jordan_table(field, vs), (0, 4, 8),
                         f"tits:{field}:varsigma={field.scalar_str(vs)}", "tits", varsigma=vs)


def split_albert(field: FieldSpec) -> AlbertAlgebra:
    """Her3(split octonions, id), the default split model."""
    return hermitian(CDAlgebra.split_octonions(field))


# -- public operations -------------------------------------------------------

def jmul(x: AlbertElem, y: AlbertElem) -> AlbertElem:
    x._check(y)
    return AlbertElem(x.algebra, x.algebra.jmul_raw(x.coords, y.coords))


def norm(x: AlbertElem) -> Scalar:
    return Scalar(x.algebra.norm_raw(x.coords), x.algebra.field)


def sharp(x: AlbertElem) -> AlbertElem:
    return AlbertElem(x.algebra, x.algebra.sharp_raw(x.coords))


def cross(x: AlbertElem, y: AlbertElem) -> AlbertElem:
    x._check(y)
    return AlbertElem(x.algebra, x.algebra.cross_raw(x.coords, y.coords))


def trform(x: AlbertElem, y: AlbertElem) -> Scalar:
    x._check(y)
    return Scalar(x.algebra.trform_raw(x.coords, y.coords), x.algebra.field)


def uapply(x: AlbertElem, y: AlbertElem) -> AlbertElem:
    x._check(y)
    return AlbertElem(x.algebra, x.algebra.uapply_raw(x.coords, y.coords))


def uop(x: AlbertElem) -> LinMap:
    """U_x as an exact 27x27 map on the element's algebra."""
    return x.algebra.uop_map(x.coords)


def jinverse(x: AlbertElem) -> AlbertElem:
    return AlbertElem(x.algebra, x.algebra.jinv_raw(x.coords))


def triple(x: AlbertElem, z: AlbertElem, y: AlbertElem) -> AlbertElem:
    x._check(z)
    x._check(y)
    return AlbertElem(x.algebra, x.algebra.triple_raw(x.coords, z.coords, y.coords))


def isotope_mul(x: AlbertElem, u: AlbertElem, y: AlbertElem) -> AlbertElem:
    if not u.algebra.norm_raw(u.coords):
        raise SingularElement("isotope base point must have nonzero norm")
    return triple(x, u, y)


def phi_lambda(lam, x: AlbertElem) -> AlbertElem:
    lam = x.algebra.field.coerce(lam)
    return AlbertElem(x.algebra, x.algebra.phi_lambda_raw(lam, x.coords))


def nu_g(g, x: AlbertElem) -> AlbertElem:
    g = x.algebra.field.coerce(g)
    return AlbertElem(x.algebra, x.algebra.nu_g_raw(g, x.coords))


def tits_phi(u, v, w, x: AlbertElem) -> AlbertElem:
    return AlbertElem(x.algebra, x.algebra.tits_phi_raw(u, v, w, x.coords))


def beth_basis(algebra: AlbertAlgebra):
    """Basis of the 11-dimensional quadratic subalgebra
    beth = k u + k(e-u) + E0 attached to u = diag(1,0,0)."""
    if algebra.model != "her":
        raise ModelMismatch("beth basis lives on the Hermitian model")
    f = algebra.field
    z8 = [f.zero()] * 8
    out = [
        algebra.her_element((1, 0, 0), z8, z8, z8),
        algebra.her_element((0, 1, 1), z8, z8, z8),
        algebra.her_element((0, 1, -1), z8, z8, z8),
    ]
    return out + [algebra.her_element((0, 0, 0), a, z8, z8) for a in identity(8, f)]
