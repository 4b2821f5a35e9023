"""The 56-dimensional Brown algebra B(J x J, k x k, zeta) over a cubic Jordan
view J, with its 2x2-block product, exchange involution, skew line, type test,
and the lifts of norm-preserving and automorphic maps of J.

Coordinate order: (alpha, beta, j-block 27, l-block 27).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .albert import DIM as JDIM
from .albert import AlbertAlgebra, AlbertElem
from .errors import (
    AlgebraMismatch,
    NotAutomorphism,
    NotCommuting,
    NotNormPreserving,
    NotOrderTwo,
)
from . import linmaps
from .linalg import in_span, nullspace, row_space_rref
from .linmaps import BROWN, LinMap, dagger, is_aut_member, norm_preserving_sampled

BDIM = 2 + 2 * JDIM


class BrownAlgebra:
    def __init__(self, jalg: AlbertAlgebra, zeta=1):
        f = jalg.field
        zeta = f.from_int(zeta) if isinstance(zeta, int) else zeta
        if not zeta:
            raise ValueError("zeta must be nonzero")
        self.jalg = jalg
        self.field = f
        self.zeta = zeta
        self.basis_tag = f"brown:{jalg.basis_tag}:zeta={f.scalar_str(zeta)}"

    # -- elements -----------------------------------------------------------

    def element(self, alpha, beta, j, l) -> "BrownElem":
        f = self.field
        conv = lambda v: f.from_int(v) if isinstance(v, int) else v
        jc = j.coords if isinstance(j, AlbertElem) else tuple(conv(v) for v in j)
        lc = l.coords if isinstance(l, AlbertElem) else tuple(conv(v) for v in l)
        if len(jc) != JDIM or len(lc) != JDIM:
            raise ValueError("j and l need 27 coordinates each")
        return BrownElem(self, (conv(alpha), conv(beta)) + jc + lc)

    def unit(self) -> "BrownElem":
        z = self.jalg.zero()
        return self.element(1, 1, z, z)

    def s0(self) -> "BrownElem":
        z = self.jalg.zero()
        return self.element(1, -1, z, z)

    def zero(self) -> "BrownElem":
        return BrownElem(self, tuple(self.field.zero() for _ in range(BDIM)))

    def basis(self):
        f = self.field
        one, zero = f.one(), f.zero()
        return [
            BrownElem(self, tuple(one if i == k else zero for k in range(BDIM)))
            for i in range(BDIM)
        ]

    def sample(self, rng: random.Random, bound: int = 4) -> "BrownElem":
        f = self.field
        return BrownElem(self, tuple(f.sample_raw(rng, bound) for _ in range(BDIM)))

    # -- product and involution ----------------------------------------------

    def bmul_raw(self, x, y):
        f, J, z = self.field, self.jalg, self.zeta
        a1, b1, j1, l1 = x[0], x[1], x[2 : 2 + JDIM], x[2 + JDIM :]
        a2, b2, j2, l2 = y[0], y[1], y[2 : 2 + JDIM], y[2 + JDIM :]
        alpha = f.add(f.mul(a1, a2), f.mul(z, J.trform_raw(j1, l2)))
        beta = f.add(f.mul(b1, b2), f.mul(z, J.trform_raw(j2, l1)))
        lc = J.cross_raw(l1, l2)
        jc = J.cross_raw(j1, j2)
        jout = tuple(
            f.add(f.add(f.mul(a1, j2[k]), f.mul(b2, j1[k])), f.mul(z, lc[k]))
            for k in range(JDIM)
        )
        lout = tuple(
            f.add(f.add(f.mul(b1, l2[k]), f.mul(a2, l1[k])), jc[k])
            for k in range(JDIM)
        )
        return (alpha, beta) + jout + lout

    def binv_raw(self, x):
        return (x[1], x[0]) + x[2:]

    def binv_map(self) -> LinMap:
        f = self.field
        cols = []
        for b in self.basis():
            cols.append(self.binv_raw(b.coords))
        return linmaps.from_columns(cols, f, BROWN, self.basis_tag)

    def skew_basis(self):
        """Kernel of (binv + id): the one-dimensional skew line."""
        f = self.field
        m = self.binv_map().matrix
        mm = tuple(
            tuple(f.add(v, f.one()) if i == k else v for k, v in enumerate(row))
            for i, row in enumerate(m)
        )
        return nullspace(mm, f)

    def type_of(self) -> str:
        """Type 1 iff the square of the skew generator is a square scalar."""
        s = self.s0()
        sq = self.bmul_raw(s.coords, s.coords)
        unit = self.unit().coords
        scalar_val = sq[0]
        if sq != tuple(self.field.mul(scalar_val, u) for u in unit):
            raise RuntimeError("internal: s0^2 is not a scalar multiple of the unit")
        return "Type1" if self.field.is_square(scalar_val) else "Type2"

    # -- lifts ---------------------------------------------------------------

    def _block_map(self, mj, ml) -> LinMap:
        f = self.field
        one, zero = f.one(), f.zero()
        rows = []
        for i in range(BDIM):
            rows.append([zero] * BDIM)
        rows[0][0] = one
        rows[1][1] = one
        for i in range(JDIM):
            for j in range(JDIM):
                rows[2 + i][2 + j] = mj[i][j]
                rows[2 + JDIM + i][2 + JDIM + j] = ml[i][j]
        return LinMap(tuple(tuple(r) for r in rows), f, BROWN, self.basis_tag)

    def lift_aut(self, phi: LinMap) -> LinMap:
        """(alpha, beta, j, l) -> (alpha, beta, phi j, phi l) for phi in Aut(J)."""
        if not is_aut_member(phi, self.jalg):
            raise NotAutomorphism("lift_aut needs an Albert algebra automorphism")
        return self._block_map(phi.matrix, phi.matrix)

    def lift_inv(self, phi: LinMap, presample: int = 40, seed: int = 7) -> LinMap:
        """(alpha, beta, j, l) -> (alpha, beta, phi j, phi-dagger l) for
        phi in Inv(J); agrees with lift_aut on Aut(J)."""
        if not norm_preserving_sampled(phi, self.jalg, presample, seed):
            raise NotNormPreserving("lift_inv needs a norm-preserving map")
        dag = dagger(phi, self.jalg)
        return self._block_map(phi.matrix, dag.matrix)

    def varpi(self) -> LinMap:
        """(alpha, beta, j, l) -> (beta, alpha, l, j); order 2."""
        f = self.field
        one, zero = f.one(), f.zero()
        rows = [[zero] * BDIM for _ in range(BDIM)]
        rows[0][1] = one
        rows[1][0] = one
        for i in range(JDIM):
            rows[2 + i][2 + JDIM + i] = one
            rows[2 + JDIM + i][2 + i] = one
        return LinMap(tuple(tuple(r) for r in rows), f, BROWN, self.basis_tag)

    # -- commuting-pair subalgebra --------------------------------------------

    def commuting_pair_subalgebra(self, phi1: LinMap, phi2: LinMap):
        """Basis of {(alpha, alpha, phi1 j, phi2 j)} with exact closure check;
        phi1, phi2 must be commuting order-2 automorphisms of J."""
        for name, phi in (("phi1", phi1), ("phi2", phi2)):
            if not is_aut_member(phi, self.jalg):
                raise NotAutomorphism(f"{name} is not an Albert algebra automorphism")
            if not phi.compose(phi).is_identity():
                raise NotOrderTwo(f"{name} must square to the identity")
        if phi1.compose(phi2).matrix != phi2.compose(phi1).matrix:
            raise NotCommuting("phi1 and phi2 must commute")
        f = self.field
        basis = [self.unit().coords]
        one, zero = f.one(), f.zero()
        for i in range(JDIM):
            e = tuple(one if k == i else zero for k in range(JDIM))
            basis.append(
                (zero, zero) + tuple(phi1.apply(e)) + tuple(phi2.apply(e))
            )
        rows, pivots = row_space_rref(basis, f)
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                prod = self.bmul_raw(basis[i], basis[j])
                if not in_span(rows, pivots, prod, f):
                    raise RuntimeError("internal: commuting-pair span not closed")
            if not in_span(rows, pivots, self.binv_raw(basis[i]), f):
                raise RuntimeError("internal: commuting-pair span not involution-closed")
        return [BrownElem(self, b) for b in basis]

    def __eq__(self, other):
        return isinstance(other, BrownAlgebra) and self.basis_tag == other.basis_tag

    def __hash__(self):
        return hash(self.basis_tag)

    def __repr__(self):
        return f"BrownAlgebra({self.basis_tag})"


@dataclass(frozen=True)
class BrownElem:
    algebra: BrownAlgebra
    coords: tuple

    def _check(self, other):
        if not isinstance(other, BrownElem) or other.algebra != self.algebra:
            raise AlgebraMismatch("elements of different Brown algebras")

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

    def __add__(self, other):
        self._check(other)
        f = self.algebra.field
        return BrownElem(
            self.algebra, tuple(f.add(a, b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        self._check(other)
        f = self.algebra.field
        return BrownElem(
            self.algebra, tuple(f.sub(a, b) for a, b in zip(self.coords, other.coords))
        )

    def scale(self, c):
        f = self.algebra.field
        c = f.from_int(c) if isinstance(c, int) else c
        return BrownElem(self.algebra, tuple(f.mul(c, v) for v in self.coords))

    def to_json(self) -> str:
        f = self.algebra.field
        s = f.scalar_str
        jelem = AlbertElem(self.algebra.jalg, self.j)
        lelem = AlbertElem(self.algebra.jalg, self.l)
        return json.dumps(
            {
                "alpha": s(self.alpha),
                "beta": s(self.beta),
                "j": json.loads(jelem.to_json()),
                "l": json.loads(lelem.to_json()),
                "zeta": s(self.algebra.zeta),
            }
        )

    @staticmethod
    def from_json(algebra: "BrownAlgebra", text: str) -> "BrownElem":
        d = json.loads(text)
        f = algebra.field
        j = AlbertElem.from_json(algebra.jalg, json.dumps(d["j"]))
        l = AlbertElem.from_json(algebra.jalg, json.dumps(d["l"]))
        return algebra.element(f.parse_scalar(d["alpha"]), f.parse_scalar(d["beta"]), j, l)


def bmul(x: BrownElem, y: BrownElem) -> BrownElem:
    x._check(y)
    return BrownElem(x.algebra, x.algebra.bmul_raw(x.coords, y.coords))


def binv(x: BrownElem) -> BrownElem:
    return BrownElem(x.algebra, x.algebra.binv_raw(x.coords))
