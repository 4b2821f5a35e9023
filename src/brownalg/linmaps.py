"""Exact linear maps on the octonion (8), Albert (27) and Brown (56) carrier
spaces, plus the norm/automorphism membership predicates and the dagger
(outer) automorphism solved from the trace form.

This module never imports the algebra modules; algebra objects are passed in
and used through their raw-operation methods.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    CarrierMismatch,
    NotNormPreserving,
    SingularGram,
)
from .fields import RATIONALS, FieldSpec
from .linalg import (
    identity,
    inverse,
    mat_mul,
    mat_vec,
    nullspace,
    solve_right,
    transpose,
)

OCT = "oct8"
ALBERT = "albert27"
BROWN = "brown56"

_DIMS = {OCT: 8, ALBERT: 27, BROWN: 56}


@dataclass(frozen=True)
class LinMap:
    """Square exact matrix tagged with carrier space and basis convention."""

    matrix: tuple
    field: FieldSpec
    carrier: str
    basis_tag: str

    def __post_init__(self):
        n = _DIMS.get(self.carrier)
        if n is None:
            raise CarrierMismatch(f"unknown carrier {self.carrier!r}")
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise CarrierMismatch(f"matrix is not {n}x{n}")

    @property
    def dim(self) -> int:
        return _DIMS[self.carrier]

    def _check(self, other: "LinMap"):
        if (
            self.carrier != other.carrier
            or self.basis_tag != other.basis_tag
            or self.field != other.field
        ):
            raise CarrierMismatch(
                f"cannot combine maps on {self.basis_tag!r} and {other.basis_tag!r}"
            )

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other (matrix product self . other)."""
        self._check(other)
        return LinMap(
            mat_mul(self.matrix, other.matrix, self.field),
            self.field,
            self.carrier,
            self.basis_tag,
        )

    def apply(self, coords):
        return mat_vec(self.matrix, coords, self.field)

    def inverse_map(self) -> "LinMap":
        inv = inverse(self.matrix, self.field)
        if inv is None:
            raise SingularGram("map is not invertible")
        return LinMap(inv, self.field, self.carrier, self.basis_tag)

    def is_identity(self) -> bool:
        return self.matrix == identity(self.dim, self.field)

    def order_divides_two(self) -> bool:
        return self.compose(self).is_identity()

    def fixed_space(self):
        """Basis of ker(self - id)."""
        f = self.field
        n = self.dim
        m = tuple(
            tuple(f.sub(v, f.one()) if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(self.matrix)
        )
        return nullspace(m, f)

    def eigenspace(self, eigval):
        f = self.field
        ev = f.from_int(eigval) if isinstance(eigval, int) else eigval
        m = tuple(
            tuple(f.sub(v, ev) if i == j else v for j, v in enumerate(row))
            for i, row in enumerate(self.matrix)
        )
        return nullspace(m, f)


def identity_map(field: FieldSpec, carrier: str, basis_tag: str) -> LinMap:
    return LinMap(identity(_DIMS[carrier], field), field, carrier, basis_tag)


def from_columns(cols, field: FieldSpec, carrier: str, basis_tag: str) -> LinMap:
    n = len(cols)
    return LinMap(
        tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)),
        field,
        carrier,
        basis_tag,
    )


def _require_albert(phi: LinMap, algebra):
    if phi.carrier != ALBERT or phi.basis_tag != algebra.basis_tag:
        raise CarrierMismatch("map does not live on this Albert algebra")


def norm_preserving_sampled(phi: LinMap, algebra, samples: int, seed: int = 0) -> bool:
    _require_albert(phi, algebra)
    rng = random.Random(seed)
    f = algebra.field
    for _ in range(samples):
        x = tuple(f.sample_raw(rng, 3) for _ in range(27))
        if algebra.norm_raw(phi.apply(x)) != algebra.norm_raw(x):
            return False
    return True


def is_inv_member(phi: LinMap, algebra, samples: int = 200, seed: int = 0) -> bool:
    """Cubic-norm invariance.  Over Q this is a deterministic certificate: the
    difference of the two cubic forms vanishes on every multiset of size <= 3
    of basis vectors iff it is the zero polynomial (4060 points for n = 27).
    Over F_p the check is randomized with failure probability <= (3/p)^samples
    for a non-member."""
    _require_albert(phi, algebra)
    f = algebra.field
    if f.kind != RATIONALS:
        return norm_preserving_sampled(phi, algebra, samples, seed)
    cols = tuple(zip(*phi.matrix))
    zero = f.zero()
    idx = range(27)
    combos = itertools.chain(
        [()],
        itertools.combinations_with_replacement(idx, 1),
        itertools.combinations_with_replacement(idx, 2),
        itertools.combinations_with_replacement(idx, 3),
    )
    for combo in combos:
        v = [zero] * 27
        mv = [zero] * 27
        for i in combo:
            v[i] += 1
            col = cols[i]
            for k in range(27):
                ck = col[k]
                if ck:
                    mv[k] += ck
        if algebra.norm_raw(tuple(mv)) != algebra.norm_raw(tuple(v)):
            return False
    return True


def is_aut_member(phi: LinMap, algebra) -> bool:
    """Exact: phi(e) = e and phi(e_i . e_j) = phi(e_i) . phi(e_j) for every
    basis pair (the product is bilinear, so basis pairs certify)."""
    _require_albert(phi, algebra)
    if phi.apply(algebra.unit_coords) != algebra.unit_coords:
        return False
    f = algebra.field
    n = 27
    one, zero = f.one(), f.zero()
    basis = [tuple(one if k == i else zero for k in range(n)) for i in range(n)]
    images = [phi.apply(b) for b in basis]
    for i in range(n):
        for j in range(i, n):
            lhs = phi.apply(algebra.jmul_raw(basis[i], basis[j]))
            if lhs != algebra.jmul_raw(images[i], images[j]):
                return False
    return True


def dagger(phi: LinMap, algebra, presample: int = 40, seed: int = 1) -> LinMap:
    """The unique psi with Tr(phi x, psi y) = Tr(x, y): solves
    M^T G psi = G exactly.  phi must preserve the cubic norm."""
    _require_albert(phi, algebra)
    if not norm_preserving_sampled(phi, algebra, presample, seed):
        raise NotNormPreserving("dagger is only defined on Inv(J)")
    g = algebra.gram
    lhs = mat_mul(transpose(phi.matrix), g, algebra.field)
    sol = solve_right(lhs, g, algebra.field)
    if sol is None:
        raise SingularGram("trace-form system unexpectedly singular")
    return LinMap(sol, algebra.field, ALBERT, algebra.basis_tag)
