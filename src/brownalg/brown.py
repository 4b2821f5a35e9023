"""The 56-dimensional Brown algebra B(J x J, k x k, zeta) over a cubic Jordan
view J, with its 2x2-block product, exchange involution, skew line, type test,
and the one lift `lift_inv` of the norm-preserving maps of J, Inv(J) -> Aut(B).

Coordinate order: (alpha, beta, j-block 27, l-block 27).
"""

from __future__ import annotations

import functools
import math

from .albert import DIM as JDIM
from .albert import AlbertAlgebra, AlbertElem
from .errors import (
    InternalError,
    NotAutomorphism,
    NotCommuting,
    NotOrderTwo,
)
from .kernels import Algebra, Elem, MulTable
from .linalg import identity, int_span
from .linmaps import BROWN, LinMap, block_diag_map, dagger, is_aut_member

BDIM = 2 + 2 * JDIM


class BrownElem(Elem):
    @property
    def alpha(self):
        return self.coords[0]

    @property
    def beta(self):
        return self.coords[1]

    @property
    def j(self):
        return self.coords[2 : 2 + JDIM]

    @property
    def l(self):
        return self.coords[2 + JDIM :]


class BrownAlgebra(Algebra):
    dim = BDIM
    carrier = BROWN
    elem = BrownElem

    def __init__(self, jalg: AlbertAlgebra, zeta=1):
        f = jalg.field
        zeta = f.coerce(zeta)
        if not zeta:
            raise ValueError("zeta must be nonzero")
        self.jalg = jalg
        self.field = f
        self.zeta = zeta
        self.basis_tag = f"brown:{jalg.basis_tag}:zeta={f.scalar_str(zeta)}"
        one, zero = f.one(), f.zero()
        self.unit_coords = (one, one) + (zero,) * (2 * JDIM)

    # -- elements -----------------------------------------------------------

    def element(self, alpha, beta, j, l) -> "BrownElem":
        jc = j.coords if isinstance(j, AlbertElem) else tuple(j)
        lc = l.coords if isinstance(l, AlbertElem) else tuple(l)
        if len(jc) != JDIM or len(lc) != JDIM:
            raise ValueError("j and l need 27 coordinates each")
        return super().element((alpha, beta) + jc + lc)

    def s0(self) -> "BrownElem":
        z = self.jalg.zero()
        return self.element(1, -1, z, z)

    # -- product and involution ----------------------------------------------

    @functools.cached_property
    def table(self) -> MulTable:
        """The Brown product as a table, derived on first use and cached from
        the Albert cross table C, the Gram matrix G and zeta:
            alpha = a1 a2 + zeta Tr(j1, l2)
            beta  = b1 b2 + zeta Tr(j2, l1)
            j     = a1 j2 + b2 j1 + zeta l1 # l2
            l     = b1 l2 + a2 l1 + j1 # j2
        in ints over L = zd lcm(DG, D) for zeta = zn / zd, from the integer
        forms of G (`gram_int`, over DG) and of C (`MulTable.int_entries`,
        over D), and converted by one `MulTable.from_ints` call."""
        f, jalg = self.field, self.jalg
        zn, zd = self.zeta.as_integer_ratio()
        cross = jalg.cross_table()
        D, dg = cross.int_table()[0], jalg.gram_den
        lcm = zd * math.lcm(dg, D)
        zg, zc, c1 = zn * (lcm // (zd * dg)), zn * (lcm // (zd * D)), lcm // D
        J0, L0 = 2, 2 + JDIM
        keys, ints = [(0, 0, 0), (1, 1, 1)], [lcm, lcm]
        for i, j, g in jalg.gram_int:
            keys += [(J0 + i, L0 + j, 0), (L0 + j, J0 + i, 1)]
            ints += [zg * g] * 2
        for k in range(JDIM):
            keys += [
                (0, J0 + k, J0 + k), (J0 + k, 1, J0 + k),
                (1, L0 + k, L0 + k), (L0 + k, 0, L0 + k),
            ]
            ints += [lcm] * 4
        for i, j, k, c in cross.int_entries():
            keys += [(L0 + i, L0 + j, J0 + k), (J0 + i, J0 + j, L0 + k)]
            ints += [zc * c, c1 * c]
        return MulTable.from_ints(BDIM, keys, ints, lcm, f)

    bmul_raw = Algebra.mul_raw

    def binv_raw(self, x):
        """(alpha, beta, j, l) -> (beta, alpha, j, l), on a tuple or a list."""
        return (x[1], x[0], *x[2:])

    def binv_map(self) -> LinMap:
        return self.linmap_of(self.binv_raw)

    def skew_basis(self):
        """Kernel of (binv + id): the one-dimensional skew line."""
        return self.binv_map().eigenspace(-1)

    def type_of(self) -> str:
        """Type 1 iff the square of the skew generator is a square scalar."""
        s = self.s0()
        sq = self.bmul_raw(s.coords, s.coords)
        unit = self.unit_coords
        scalar_val = sq[0]
        if sq != tuple(self.field.mul(scalar_val, u) for u in unit):
            raise InternalError("s0^2 is not a scalar multiple of the unit")
        return "Type1" if self.field.is_square(scalar_val) else "Type2"

    # -- lifts ---------------------------------------------------------------

    def lift_inv(self, phi: LinMap) -> LinMap:
        """(alpha, beta, j, l) -> (alpha, beta, phi j, phi-dagger l) for phi in
        Inv(J).  An automorphism keeps the trace form, so when `is_aut_member`
        certifies phi the l-block is phi itself; otherwise it is `dagger`, which
        raises NotNormPreserving when `is_inv_member`'s certificate fails, for
        a map outside Inv(J)."""
        ml = phi if is_aut_member(phi, self.jalg) else dagger(phi, self.jalg)
        scalars = LinMap(identity(2, self.field), self.field, "k2", "k2")
        return block_diag_map((scalars, phi, ml), self.carrier, self.basis_tag)

    def varpi(self) -> LinMap:
        """(alpha, beta, j, l) -> (beta, alpha, l, j); order 2.  It is an
        automorphism only for zeta = 1: the product puts zeta on Tr(j1, l2)
        and l1 # l2 but not on j1 # j2, so any other zeta raises
        NotAutomorphism."""
        if self.zeta != self.field.one():
            raise NotAutomorphism(
                f"varpi is an automorphism only for zeta = 1, not zeta = {self.field.scalar_str(self.zeta)}")
        return self.linmap_of(lambda x: (x[1], x[0]) + x[2 + JDIM:] + x[2 : 2 + JDIM])

    # -- commuting-pair subalgebra --------------------------------------------

    def commuting_pair_subalgebra(self, phi1: LinMap, phi2: LinMap):
        """Basis of {(alpha, alpha, phi1 j, phi2 j)} with exact closure check;
        phi1, phi2 must be commuting order-2 automorphisms of J."""
        for name, phi in (("phi1", phi1), ("phi2", phi2)):
            if not is_aut_member(phi, self.jalg):
                raise NotAutomorphism(f"{name} is not an Albert algebra automorphism")
            if not phi.order_divides_two():
                raise NotOrderTwo(f"{name} must square to the identity")
        if phi1.compose(phi2) != phi2.compose(phi1):
            raise NotCommuting("phi1 and phi2 must commute")
        f = self.field
        zero = f.zero()
        basis = [self.unit_coords] + [
            (zero, zero) + phi1.apply(e) + phi2.apply(e) for e in identity(JDIM, f)
        ]
        span, ints = int_span(basis, BDIM, f)
        if not span.closed(self.table, ints):
            raise InternalError("commuting-pair span not closed")
        if not all(span.contains(self.binv_raw(v)) for v in ints):
            raise InternalError("commuting-pair span not involution-closed")
        return [BrownElem(self, b) for b in basis]


def bmul(x: BrownElem, y: BrownElem) -> BrownElem:
    x._check(y)
    return BrownElem(x.algebra, x.algebra.bmul_raw(x.coords, y.coords))


def binv(x: BrownElem) -> BrownElem:
    return BrownElem(x.algebra, x.algebra.binv_raw(x.coords))
