"""Composition algebras of dimension 1, 2, 4, 8 via Cayley-Dickson doubling.

Two dimension-4 base models are supported: the generic doubled chain, and the
split 2x2-matrix model (basis E11, E12, E21, E22; product = matrix product,
norm = determinant).  Doubling convention, with kappa in k*:

    (a1, a2)(b1, b2) = (a1 b1 + kappa conj(b2) a2,  b2 a1 + a2 conj(b1))
    q((a1, a2))      = q(a1) - kappa q(a2)
    conj((a1, a2))   = (conj(a1), -a2)

Basis order of a doubled algebra is (first-copy basis, second-copy basis).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

from .errors import AlgebraMismatch, NoSuchV
from .fields import FieldSpec, Scalar
from .kernels import MulTable


def _base_unit_tables(field):
    one = field.one()
    mul = [(0, 0, 0, one)]
    conj = [(0, one)]
    qform = {(0, 0): one}
    return mul, conj, qform


def _base_split4_tables(field):
    """2x2 matrix units in basis order (E11, E12, E21, E22)."""
    one, neg = field.one(), field.neg
    # E_{ab} E_{cd} = delta_{bc} E_{ad}; index of E_{ab} is 2(a-1)+(b-1)
    mul = []
    for a, b in itertools.product((0, 1), repeat=2):
        for c, d in itertools.product((0, 1), repeat=2):
            if b == c:
                mul.append((2 * a + b, 2 * c + d, 2 * a + d, one))
    # adjugate: E11 <-> E22, E12 -> -E12, E21 -> -E21
    conj = [(3, one), (1, neg(one)), (2, neg(one)), (0, one)]
    qform = {(0, 3): one, (1, 2): neg(one)}  # det = x1 x4 - x2 x3
    return mul, conj, qform


def _double_tables(field, mul, conj, qform, n, kappa):
    """One Cayley-Dickson doubling step on structure data of dimension n."""
    neg, mulf = field.neg, field.mul
    by_pair = {}
    for i, j, k, c in mul:
        by_pair.setdefault((i, j), []).append((k, c))
    new_mul = []
    for i, j in itertools.product(range(n), repeat=2):
        # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
        for k, c in by_pair.get((i, j), ()):
            new_mul.append((i, j, k, c))
        # (e_i, 0)(0, e_j) = (0, e_j e_i)
        for k, c in by_pair.get((j, i), ()):
            new_mul.append((i, n + j, n + k, c))
        # (0, e_i)(e_j, 0) = (0, e_i conj(e_j))
        jt, jc = conj[j]
        for k, c in by_pair.get((i, jt), ()):
            new_mul.append((n + i, j, n + k, mulf(c, jc)))
        # (0, e_i)(0, e_j) = (kappa conj(e_j) e_i, 0)
        for k, c in by_pair.get((jt, i), ()):
            new_mul.append((n + i, n + j, k, mulf(kappa, mulf(c, jc))))
    new_conj = list(conj) + [(n + i, neg(field.one())) for i in range(n)]
    new_q = dict(qform)
    for (i, j), c in qform.items():
        new_q[(n + i, n + j)] = neg(mulf(kappa, c))
    return new_mul, new_conj, new_q


class CDAlgebra:
    """Composition algebra descriptor with cached structure data."""

    def __init__(self, field: FieldSpec, kappas=(), split_base=False):
        field._need_arith()
        kappas = tuple(field.from_int(k) if isinstance(k, int) else k for k in kappas)
        if any(not k for k in kappas):
            raise ValueError("doubling parameters must be nonzero")
        self.field = field
        self.kappas = kappas
        self.split_base = split_base
        if split_base:
            mul, conj, qform = _base_split4_tables(field)
            dim = 4
        else:
            mul, conj, qform = _base_unit_tables(field)
            dim = 1
        for kappa in kappas:
            mul, conj, qform = _double_tables(field, mul, conj, qform, dim, kappa)
            dim *= 2
        if dim not in (1, 2, 4, 8):
            raise ValueError(f"composition algebras exist only in dims 1,2,4,8, got {dim}")
        self.dim = dim
        self.table = MulTable(dim, mul)
        self._conj = tuple(conj)
        self._qform = qform
        self.unit_coords = self._unit()
        if self.gram_rank() != dim:
            raise ValueError("degenerate quadratic form (bad kappa chain)")

    def _unit(self):
        one, zero = self.field.one(), self.field.zero()
        e = [zero] * self.dim
        if self.split_base:
            e[0] = one
            e[3] = one
        else:
            e[0] = one
        return tuple(e)

    @classmethod
    def split_octonions(cls, field: FieldSpec, kappa=1) -> "CDAlgebra":
        return cls(field, kappas=(kappa,), split_base=True)

    @property
    def descriptor(self) -> str:
        chain = ",".join(self.field.scalar_str(k) for k in self.kappas)
        if self.split_base:
            return f"cd:{self.field}:split:{chain}" if chain else f"cd:{self.field}:split"
        return f"cd:{self.field}:{chain}"

    @staticmethod
    def parse(text: str) -> "CDAlgebra":
        """Accepts "cd:<field>:<k1,k2,k3>" (doubling chain from dimension 1)
        and "cd:<field>:split[:<k>]" (2x2-matrix base)."""
        if not text.startswith("cd:"):
            raise ValueError(f"not an algebra descriptor: {text!r}")
        tokens = text[3:].split(":")
        try:
            field = FieldSpec.parse(tokens[0])
            rest = tokens[1:]
        except ValueError:
            field = FieldSpec.parse(":".join(tokens[:2]))
            rest = tokens[2:]
        split = False
        if rest and rest[0] in ("split", "unit"):
            split = rest[0] == "split"
            rest = rest[1:]
        kappas = ()
        if rest and rest[0]:
            kappas = tuple(field.parse_scalar(t) for t in rest[0].split(","))
        return CDAlgebra(field, kappas=kappas, split_base=split)

    # -- elements ----------------------------------------------------------

    def element(self, coords) -> "CompElem":
        coords = tuple(
            self.field.from_int(c) if isinstance(c, int) else c for c in coords
        )
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates, got {len(coords)}")
        return CompElem(self, coords)

    def unit(self) -> "CompElem":
        return CompElem(self, self.unit_coords)

    def zero(self) -> "CompElem":
        return CompElem(self, tuple(self.field.zero() for _ in range(self.dim)))

    def basis(self):
        one, zero = self.field.one(), self.field.zero()
        return [
            CompElem(self, tuple(one if i == j else zero for j in range(self.dim)))
            for i in range(self.dim)
        ]

    def sample(self, rng: random.Random, bound: int = 5) -> "CompElem":
        return CompElem(
            self, tuple(self.field.sample_raw(rng, bound) for _ in range(self.dim))
        )

    # -- raw operations (hot paths) ----------------------------------------

    def mul_raw(self, x, y):
        return self.table.apply(x, y, self.field)

    def conj_raw(self, x):
        out = [self.field.zero()] * self.dim
        for i, (k, c) in enumerate(self._conj):
            out[k] = self.field.mul(c, x[i])
        return tuple(out)

    def qnorm_raw(self, x):
        f = self.field
        acc = f.zero()
        for (i, j), c in self._qform.items():
            if i == j:
                acc = f.add(acc, f.mul(c, f.mul(x[i], x[i])))
            else:
                acc = f.add(acc, f.mul(c, f.mul(x[i], x[j])))
        return acc

    def bilin_raw(self, x, y):
        """Polar form <x,y> = q(x+y) - q(x) - q(y)."""
        f = self.field
        acc = f.zero()
        for (i, j), c in self._qform.items():
            if i == j:
                acc = f.add(acc, f.mul(c, f.mul(f.from_int(2), f.mul(x[i], y[i]))))
            else:
                acc = f.add(acc, f.mul(c, f.add(f.mul(x[i], y[j]), f.mul(x[j], y[i]))))
        return acc

    def gram_matrix(self):
        basis = [b.coords for b in self.basis()]
        return tuple(
            tuple(self.bilin_raw(bi, bj) for bj in basis) for bi in basis
        )

    def gram_rank(self) -> int:
        from .linalg import rank

        return rank(self.gram_matrix(), self.field)

    def left_mul_matrix(self, x):
        """Matrix of y -> x y."""
        return self.table.left_matrix(x, self.field)

    # -- base quaternion subalgebra -----------------------------------------

    def base_algebra(self) -> "CDAlgebra":
        """The first doubling copy (coords 0..dim/2) as its own algebra."""
        if self.dim < 2:
            raise ValueError("dimension-1 algebra has no proper base")
        if self.split_base and not self.kappas:
            raise ValueError("matrix base is its own base")
        return CDAlgebra(self.field, kappas=self.kappas[:-1], split_base=self.split_base)

    def __eq__(self, other):
        return (
            isinstance(other, CDAlgebra)
            and self.field == other.field
            and self.kappas == other.kappas
            and self.split_base == other.split_base
        )

    def __hash__(self):
        return hash((self.field, self.kappas, self.split_base))

    def __repr__(self):
        return f"CDAlgebra({self.descriptor})"


@dataclass(frozen=True)
class CompElem:
    algebra: CDAlgebra
    coords: tuple

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return CompElem(
            self.algebra, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return CompElem(
            self.algebra, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        f = self.algebra.field
        return CompElem(self.algebra, tuple(f.neg(a) for a in self.coords))

    def scale(self, c):
        f = self.algebra.field
        c = f.from_int(c) if isinstance(c, int) else c
        return CompElem(self.algebra, tuple(f.mul(c, a) for a in self.coords))

    def _check(self, other):
        if not isinstance(other, CompElem) or other.algebra != self.algebra:
            raise AlgebraMismatch("elements of different composition algebras")

    def to_json(self) -> str:
        f = self.algebra.field
        return json.dumps([f.scalar_str(c) for c in self.coords])

    @staticmethod
    def from_json(algebra: CDAlgebra, text: str) -> "CompElem":
        vals = json.loads(text)
        return algebra.element([algebra.field.parse_scalar(v) for v in vals])


def mul(x: CompElem, y: CompElem) -> CompElem:
    x._check(y)
    return CompElem(x.algebra, x.algebra.mul_raw(x.coords, y.coords))


def conj(x: CompElem) -> CompElem:
    return CompElem(x.algebra, x.algebra.conj_raw(x.coords))


def qnorm(x: CompElem) -> Scalar:
    return Scalar(x.algebra.qnorm_raw(x.coords), x.algebra.field)


def bilin(x: CompElem, y: CompElem) -> Scalar:
    x._check(y)
    return Scalar(x.algebra.bilin_raw(x.coords, y.coords), x.algebra.field)


def find_skew_unit(algebra: CDAlgebra) -> CompElem:
    """First v (in the deterministic {-1,0,1}-lattice order) with
    q(v) = -1 and <v,e> = 0, i.e. conj(v) = -v and v*v = e.  Exists exactly
    when the algebra is isotropic enough; raises NoSuchV otherwise."""
    f = algebra.field
    minus_one = f.neg(f.one())
    candidates = itertools.product((f.zero(), f.one(), minus_one), repeat=algebra.dim)
    e = algebra.unit_coords
    for cand in candidates:
        if not any(cand):
            continue
        if algebra.qnorm_raw(cand) == minus_one and not algebra.bilin_raw(cand, e):
            return CompElem(algebra, cand)
    raise NoSuchV("no trace-zero element of norm -1 with small coordinates")
